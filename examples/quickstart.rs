//! Quickstart: stand up a `SpatialForest` session over a tree, serve a
//! mixed query batch, and read the energy/depth meters.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spatial_trees::prelude::*;
use spatial_trees::sfc::Curve;
use spatial_trees::tree::generators;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let n = 1u32 << 14;

    // A uniformly random labelled tree (unbounded degree).
    let tree = generators::uniform_random(n, &mut rng);
    println!("tree: {}", spatial_trees::tree::TreeStats::of(&tree));

    // The session layer: light-first Hilbert layout + a pool of
    // retained engines, built lazily, reused across every batch.
    let mut forest = SpatialForest::new(&tree);
    println!(
        "forest on {} curve, grid side {}, kernel energy {:.2} per vertex (Theorem 1 says O(1))",
        forest.layout().curve().kind(),
        forest.layout().curve().side(),
        forest.dynamic_stats().baseline_energy as f64 / n as f64,
    );

    // One mixed batch: LCA pairs, subtree sums, tour ranks, and a
    // couple of live leaf inserts. Each query kind in a session pays
    // for ONE charged engine run, however many queries share it.
    let mut batch = QueryBatch::new();
    for _ in 0..n / 2 {
        batch.lca(rng.gen_range(0..n), rng.gen_range(0..n));
    }
    for _ in 0..64 {
        batch.subtree_sum(rng.gen_range(0..n));
    }
    for _ in 0..64 {
        batch.rank(rng.gen_range(0..n));
    }
    batch.insert_leaf(7).subtree_sum(7);

    let responses = forest.execute(batch.requests(), &mut rng).to_vec();
    println!("\nserved {} requests", responses.len());
    match (batch.requests()[0], responses[0]) {
        (Request::Lca(a, b), Response::Lca(w)) => println!("  e.g. LCA({a}, {b}) = {w}"),
        _ => unreachable!(),
    }

    let report = forest.last_report();
    println!(
        "  {} charge-batched sessions: {} LCA + {} sums + {} ranks + {} inserts",
        report.sessions,
        report.lca_queries,
        report.sum_queries,
        report.rank_queries,
        report.inserts,
    );
    println!(
        "  grid machine: {}   energy/(n·log n) = {:.2}   depth/log² n = {:.2}",
        report.grid,
        report.grid.energy_per_n_log_n(n as u64),
        report.grid.depth_per_log2_n(n as u64),
    );
    println!("  dart machine (ranking): {}", report.ranking);

    // Spot-check three answers against the host oracle.
    let oracle = spatial_trees::lca::HostLca::new(forest.tree());
    for (req, resp) in batch.requests().iter().zip(responses.iter()).take(3) {
        if let (Request::Lca(a, b), Response::Lca(w)) = (*req, *resp) {
            assert_eq!(w, oracle.query(a, b));
        }
    }

    // The same warm forest keeps serving — engines stay bound, buffers
    // stay grown, the steady state allocates nothing.
    let mut batch2 = QueryBatch::new();
    for _ in 0..256 {
        batch2.lca(rng.gen_range(0..forest.n()), rng.gen_range(0..forest.n()));
    }
    forest.execute(batch2.requests(), &mut rng);
    println!(
        "\nwarm batch of {}: {}   pool: {:?}",
        batch2.len(),
        forest.last_report().grid,
        forest.pool().stats(),
    );
    println!("\nall good — the `experiments` binary in crates/bench runs the full reproduction.");
}
