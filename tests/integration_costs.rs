//! Cross-crate cost-shape integration: the theorems' energy/depth
//! bounds measured end-to-end (small-scale versions of the `experiments`
//! binary's paper tables, kept fast enough for `cargo test`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spatial_trees::layout::{edge_distance_stats, local_kernel_energy, Layout};
use spatial_trees::lca::batched_lca;
use spatial_trees::pram::{pram_subtree_sums, PramEngine};
use spatial_trees::prelude::*;
use spatial_trees::tree::generators;
use spatial_trees::treefix::treefix_bottom_up;

/// Theorem 1 + Theorem 2: the messaging kernel is linear on every
/// energy-bound curve, for bounded and unbounded degrees alike.
#[test]
fn kernel_energy_linear_across_curves() {
    let mut rng = StdRng::seed_from_u64(1);
    for curve in [CurveKind::Hilbert, CurveKind::ZOrder, CurveKind::Peano] {
        let mut per_n = Vec::new();
        for log_n in [12u32, 14] {
            let t = generators::uniform_random(1 << log_n, &mut rng);
            let l = Layout::light_first(&t, curve);
            per_n.push(local_kernel_energy(&t, &l) as f64 / t.n() as f64);
        }
        assert!(
            per_n[1] < per_n[0] * 1.4,
            "{curve}: kernel energy/n grew {per_n:?}"
        );
        assert!(per_n[1] < 8.0, "{curve}: kernel energy/n = {}", per_n[1]);
    }
}

/// §III's negative examples, quantified: BFS on a perfect binary tree
/// and a random layout both scale like √n per edge; light-first stays
/// constant.
#[test]
fn adversarial_layouts_scale_sqrt_n() {
    let mut rng = StdRng::seed_from_u64(2);
    let t_small = generators::perfect_kary(2, 10);
    let t_large = generators::perfect_kary(2, 14);

    let bfs_small = edge_distance_stats(&t_small, &Layout::bfs(&t_small, CurveKind::Hilbert));
    let bfs_large = edge_distance_stats(&t_large, &Layout::bfs(&t_large, CurveKind::Hilbert));
    // √n grows 4× from 2^11 to 2^15 vertices; expect ≥ 2× mean growth.
    assert!(
        bfs_large.mean > 2.0 * bfs_small.mean,
        "BFS mean should grow ~√n: {} → {}",
        bfs_small.mean,
        bfs_large.mean
    );

    let lf_large =
        edge_distance_stats(&t_large, &Layout::light_first(&t_large, CurveKind::Hilbert));
    assert!(
        lf_large.mean < 4.0,
        "light-first stays O(1): {}",
        lf_large.mean
    );

    let rand_large = edge_distance_stats(
        &t_large,
        &Layout::random(&t_large, CurveKind::Hilbert, &mut rng),
    );
    assert!(
        rand_large.mean > 20.0 * lf_large.mean,
        "random layout must be far worse: {} vs {}",
        rand_large.mean,
        lf_large.mean
    );
}

/// The §I-C headline: spatial treefix `O(n log n)` energy vs PRAM
/// simulation `Θ(n^{3/2})` — and the gap widens with n.
#[test]
fn spatial_beats_pram_and_gap_widens() {
    let mut gaps = Vec::new();
    for log_n in [10u32, 12] {
        let n = 1u32 << log_n;
        let mut rng = StdRng::seed_from_u64(3);
        let t = generators::random_binary(n, &mut rng);
        let values: Vec<u64> = (0..n as u64).collect();

        let layout = Layout::light_first(&t, CurveKind::Hilbert);
        let machine = layout.machine();
        let monoids: Vec<Add> = values.iter().map(|&v| Add(v)).collect();
        let spatial = treefix_bottom_up(&machine, &layout, &t, &monoids, &mut rng);
        let spatial_energy = machine.report().energy;

        let mut pram = PramEngine::new(2 * n, 2 * n, &mut rng);
        let pram_res = pram_subtree_sums(&mut pram, &t, &values, &mut rng);
        let pram_energy = pram.report().energy;

        // Same answers.
        let got: Vec<u64> = spatial.values.iter().map(|&Add(v)| v).collect();
        assert_eq!(got, pram_res);

        assert!(
            pram_energy > 4 * spatial_energy,
            "n=2^{log_n}: PRAM {pram_energy} vs spatial {spatial_energy}"
        );
        gaps.push(pram_energy as f64 / spatial_energy as f64);
    }
    assert!(
        gaps[1] > gaps[0] * 1.3,
        "the PRAM gap must widen with n: {gaps:?}"
    );
}

/// Theorem 6's costs measured through the whole stack, plus the
/// PRAM-simulated permutation bound for scale: LCA beats `n^{3/2}`.
/// (The `n log n` vs `n^{3/2}` crossover sits near n ≈ 2^13 with our
/// constants, so this measures at 2^14.)
#[test]
fn lca_energy_beats_permutation_bound() {
    let n = 1u32 << 14;
    let mut rng = StdRng::seed_from_u64(4);
    let t = generators::uniform_random(n, &mut rng);
    let layout = Layout::light_first(&t, CurveKind::Hilbert);
    let machine = layout.machine();
    let queries: Vec<(NodeId, NodeId)> = (0..n / 2)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    batched_lca(&machine, &layout, &t, &queries, &mut rng);
    let r = machine.report();
    let n_three_halves = (n as f64).powf(1.5);
    assert!(
        (r.energy as f64) < n_three_halves,
        "LCA energy {} should be below n^1.5 = {n_three_halves}",
        r.energy
    );
    assert!(
        r.energy_per_n_log_n(n as u64) < 12.0,
        "energy/(n log n) = {}",
        r.energy_per_n_log_n(n as u64)
    );
}

/// Depth through the full stack stays poly-logarithmic even on a path
/// (the worst case for naive traversals: depth n).
#[test]
fn depth_polylog_on_path() {
    let n = 1u32 << 13;
    let mut rng = StdRng::seed_from_u64(5);
    let t = generators::path(n);
    let layout = Layout::light_first(&t, CurveKind::Hilbert);
    let machine = layout.machine();
    treefix_bottom_up(&machine, &layout, &t, &vec![Add(1); n as usize], &mut rng);
    let depth = machine.report().depth;
    let log_n = (n as f64).log2();
    assert!(
        (depth as f64) < 20.0 * log_n,
        "path treefix depth {depth} should be O(log n) ≈ {log_n:.0}"
    );
}

/// The work (local operations) of the treefix stays near-linear — the
/// energy ≤ work relationship from §II-A holds for the message part.
#[test]
fn message_counts_near_linear() {
    let n = 1u32 << 12;
    let mut rng = StdRng::seed_from_u64(6);
    let t = generators::preferential_attachment(n, &mut rng);
    let layout = Layout::light_first(&t, CurveKind::Hilbert);
    let machine = layout.machine();
    treefix_bottom_up(&machine, &layout, &t, &vec![Add(1); n as usize], &mut rng);
    let r = machine.report();
    let per_vertex = r.messages as f64 / n as f64;
    assert!(
        per_vertex < 12.0 * (n as f64).log2() / (n as f64).log2(),
        "messages per vertex {per_vertex} too high"
    );
    // Mean message distance must be O(1): locality is real, not an
    // artifact of sending few messages.
    assert!(
        r.mean_message_distance() < 6.0,
        "mean message distance {}",
        r.mean_message_distance()
    );
}
