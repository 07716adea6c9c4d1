//! Differential property suite: the allocation-free CSR contraction
//! engine must behave *identically* to the retained seed engine — same
//! treefix sums, same `ContractionStats`, the same machine charges
//! (energy, messages, work, depth) and the same clock on every slot —
//! on random trees, seeds, and both directions. Both machines start
//! from the same skewed entry clocks (a few random sends), so a message
//! that reads its sender's clock at another point than the seed's
//! rounds do changes the clocks.
//!
//! The engine numbers vertices in light-first preorder and keeps the
//! seed's vertex-id order only where the Las Vegas process observes it
//! (coin draws, same-round rake cascades). So every tree is compared
//! under variants where that preorder index differs from the vertex id
//! or from the machine slot: the tree as generated and with its vertex
//! ids randomly permuted, each on a light-first layout, a uniformly
//! random layout, and a light-first layout with leaves appended at the
//! curve tail (a session's layout between inserts and the next rebuild).

use proptest::prelude::*;
use rand::prelude::*;
use spatial_layout::{DynamicLayout, Layout};
use spatial_model::{CurveKind, Machine};
use spatial_tree::generators::{self, TreeFamily};
use spatial_tree::{NodeId, Tree, NIL};
use spatial_treefix::contraction::ContractionEngine;
use spatial_treefix::reference::ReferenceEngine;
use spatial_treefix::{Add, Max};

/// `t` with its vertex ids relabelled by a random permutation.
fn permute_ids(t: &Tree, seed: u64) -> Tree {
    let n = t.n();
    let mut perm: Vec<NodeId> = (0..n).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut parents = vec![NIL; n as usize];
    for v in t.vertices() {
        if let Some(p) = t.parent(v) {
            parents[perm[v as usize] as usize] = perm[p as usize];
        }
    }
    Tree::from_parents(perm[t.root() as usize], parents)
}

/// `t` grown by `n / 4 + 1` random leaves that take the curve's tail
/// slots of its light-first layout, with no rebuild.
fn with_tail_leaves(t: &Tree, curve: CurveKind, seed: u64) -> (Tree, Layout) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dynamic = DynamicLayout::new(t, curve, f64::MAX);
    for _ in 0..t.n() / 4 + 1 {
        let parent = rng.gen_range(0..dynamic.n());
        dynamic.insert_leaf(parent);
    }
    (dynamic.tree(), dynamic.layout().clone())
}

/// The (label, tree, layout) inputs both engines are compared on.
fn variants(t: &Tree, curve: CurveKind, seed: u64) -> Vec<(String, Tree, Layout)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut out = Vec::new();
    for (ids, tree) in [("ids", t.clone()), ("permuted ids", permute_ids(t, seed))] {
        let light_first = Layout::light_first(&tree, curve);
        out.push((format!("{ids}, light-first"), tree.clone(), light_first));
        let random = Layout::random(&tree, curve, &mut rng);
        out.push((format!("{ids}, random layout"), tree.clone(), random));
        let (grown, layout) = with_tail_leaves(&tree, curve, seed);
        out.push((format!("{ids}, tail leaves"), grown, layout));
    }
    out
}

/// The layout's machine with skewed entry clocks: a few random sends.
fn skewed_machine(layout: &Layout, seed: u64) -> Machine {
    let m = layout.machine();
    let n = m.n_slots();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc10c);
    for _ in 0..n / 8 + 2 {
        m.send(rng.gen_range(0..n), rng.gen_range(0..n));
    }
    m
}

/// Same `report()` and the same clock on every slot.
fn assert_same_state(got: &Machine, want: &Machine, label: &str) {
    assert_eq!(
        got.report(),
        want.report(),
        "machine charges diverged ({label})"
    );
    for s in 0..want.n_slots() {
        assert_eq!(got.clock(s), want.clock(s), "slot {s} diverged ({label})");
    }
}

fn compare_bottom_up(t: &Tree, layout: &Layout, algo_seed: u64, label: &str) {
    let n = t.n() as u64;
    let values: Vec<(Add, Max)> = (0..n).map(|v| (Add(v * 7 + 1), Max(v % 97))).collect();

    let machine_new = skewed_machine(layout, algo_seed);
    let mut eng = ContractionEngine::new(t, layout, &values, true);
    let stats_new = eng.contract(&machine_new, &mut StdRng::seed_from_u64(algo_seed));
    let result_new = eng.uncontract_bottom_up(&machine_new).to_vec();

    let machine_ref = skewed_machine(layout, algo_seed);
    let mut reference = ReferenceEngine::new(t, layout, &machine_ref, &values, true);
    let stats_ref = reference.contract(&mut StdRng::seed_from_u64(algo_seed));
    let result_ref = reference.uncontract_bottom_up();

    assert_eq!(result_new, result_ref, "values diverged ({label})");
    assert_eq!(stats_new, stats_ref, "stats diverged ({label})");
    assert_same_state(&machine_new, &machine_ref, label);
}

fn compare_top_down(t: &Tree, layout: &Layout, algo_seed: u64, label: &str) {
    let n = t.n() as u64;
    let values: Vec<Add> = (0..n).map(|v| Add(v % 31 + 1)).collect();

    let machine_new = skewed_machine(layout, algo_seed);
    let mut eng = ContractionEngine::new(t, layout, &values, false);
    let stats_new = eng.contract(&machine_new, &mut StdRng::seed_from_u64(algo_seed));
    let result_new = eng.uncontract_top_down(&machine_new, &values).to_vec();

    let machine_ref = skewed_machine(layout, algo_seed);
    let mut reference = ReferenceEngine::new(t, layout, &machine_ref, &values, false);
    let stats_ref = reference.contract(&mut StdRng::seed_from_u64(algo_seed));
    let result_ref = reference.uncontract_top_down(&values);

    assert_eq!(result_new, result_ref, "values diverged ({label})");
    assert_eq!(stats_new, stats_ref, "stats diverged ({label})");
    assert_same_state(&machine_new, &machine_ref, label);
}

/// Runs `compare` on every variant of `t`.
fn compare_variants(
    t: &Tree,
    curve: CurveKind,
    algo_seed: u64,
    compare: fn(&Tree, &Layout, u64, &str),
) {
    for (label, tree, layout) in variants(t, curve, algo_seed) {
        compare(&tree, &layout, algo_seed, &label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn bottom_up_identical_on_random_trees(
        t in spatial_tree::strategies::arb_tree(400),
        algo_seed in 0u64..10_000,
    ) {
        compare_variants(&t, CurveKind::Hilbert, algo_seed, compare_bottom_up);
    }

    #[test]
    fn top_down_identical_on_random_trees(
        t in spatial_tree::strategies::arb_tree(400),
        algo_seed in 0u64..10_000,
    ) {
        compare_variants(&t, CurveKind::ZOrder, algo_seed, compare_top_down);
    }
}

#[test]
fn identical_across_all_families() {
    let mut rng = StdRng::seed_from_u64(99);
    for fam in TreeFamily::ALL {
        let t = fam.generate(500, &mut rng);
        compare_variants(&t, CurveKind::Hilbert, 7, compare_bottom_up);
        compare_variants(&t, CurveKind::ZOrder, 8, compare_top_down);
    }
}

#[test]
fn identical_on_a_larger_instance() {
    let t = generators::preferential_attachment(1 << 13, &mut StdRng::seed_from_u64(3));
    compare_variants(&t, CurveKind::Hilbert, 11, compare_bottom_up);
}

/// Chain- and star-heavy shapes, up to n = 2¹²: on paths, combs,
/// caterpillars and brooms most groups of a round have one child (the
/// COMPRESS and RAKE passes' single-child paths), on stars one group
/// has them all, and the heavy-path adversary's groups have two. Both
/// directions, every variant, every slot's clock from skewed entry
/// clocks.
#[test]
fn identical_on_chain_and_star_heavy_shapes() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut shapes = Vec::new();
    for n in [2u32, 3, 4, 7, 64, 1000, 1 << 12] {
        shapes.push((format!("path({n})"), generators::path(n)));
        shapes.push((format!("comb({n})"), generators::comb(n)));
        shapes.push((
            format!("caterpillar({n})"),
            generators::caterpillar(n, &mut rng),
        ));
        shapes.push((format!("broom({n})"), generators::broom(n, n.div_ceil(2))));
        shapes.push((format!("star({n})"), generators::star(n)));
    }
    for order in [2u32, 5, 9, 16] {
        shapes.push((
            format!("heavy-path adversary({order})"),
            generators::heavy_path_adversary(order),
        ));
    }
    for (name, t) in shapes {
        let seed = t.n() as u64;
        for (label, tree, layout) in variants(&t, CurveKind::Hilbert, seed) {
            compare_bottom_up(&tree, &layout, seed, &format!("{name}, {label}"));
        }
        for (label, tree, layout) in variants(&t, CurveKind::ZOrder, seed + 1) {
            compare_top_down(&tree, &layout, seed + 1, &format!("{name}, {label}"));
        }
    }
}
