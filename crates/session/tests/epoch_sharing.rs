//! The forest keeps one contraction engine, bound at most once per
//! epoch: in a light-first epoch LCA steps 1 and 3 and the subtree sums
//! all run on it; in an epoch left dirty by tail appends the sums
//! rebind it on the dirty layout, and the LCA engine stays bound to its
//! older epoch. Either way answers match naive oracles, and a twin
//! restored from a snapshot taken just before — cold pool, nothing
//! bound — charges identically.

use rand::prelude::*;
use spatial_session::{ForestOptions, QueryBatch, Response, SpatialForest};
use spatial_tree::{generators, NodeId, Tree};

fn naive_lca(t: &Tree, a: NodeId, b: NodeId) -> NodeId {
    let mut above_a = vec![false; t.n() as usize];
    let mut x = Some(a);
    while let Some(y) = x {
        above_a[y as usize] = true;
        x = t.parent(y);
    }
    let mut y = b;
    while !above_a[y as usize] {
        y = t.parent(y).expect("the root is above every vertex");
    }
    y
}

fn naive_sum(t: &Tree, weights: &[u64], v: NodeId) -> u64 {
    t.vertices()
        .filter(|&u| {
            let mut x = Some(u);
            while let Some(y) = x {
                if y == v {
                    return true;
                }
                x = t.parent(y);
            }
            false
        })
        .map(|u| weights[u as usize])
        .sum()
}

/// Executes `batch` on `forest` and on a twin recovered from a snapshot
/// file written just before, with the same session RNG state; checks
/// every answer against the naive oracles and the twin's charges.
fn execute_checked(forest: &mut SpatialForest, batch: &QueryBatch, rng: &mut StdRng, what: &str) {
    let opts = ForestOptions {
        rebuild_factor: f64::INFINITY,
        ..ForestOptions::default()
    };
    let snap_path = std::env::temp_dir().join(format!(
        "spatial-epoch-sharing-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    forest.snapshot_to(&snap_path, 0).expect("snapshot");
    let mut twin =
        SpatialForest::recover_from(&snap_path, snap_path.with_extension("journal"), opts)
            .expect("recover twin");
    std::fs::remove_file(&snap_path).ok();
    let mut twin_rng = rng.clone();
    let responses = forest.execute(batch.requests(), rng).to_vec();
    let report = forest.last_report();

    let tree = forest.tree().clone();
    let weights: Vec<u64> = tree.vertices().map(|v| forest.weight(v)).collect();
    for (req, resp) in batch.requests().iter().zip(&responses) {
        match (*req, *resp) {
            (spatial_session::Request::Lca(a, b), Response::Lca(w)) => {
                assert_eq!(w, naive_lca(&tree, a, b), "{what}: lca({a}, {b})")
            }
            (spatial_session::Request::SubtreeSum(v), Response::SubtreeSum(s)) => {
                assert_eq!(s, naive_sum(&tree, &weights, v), "{what}: sum({v})")
            }
            (spatial_session::Request::InsertLeaf { .. }, Response::InsertedLeaf(_)) => {}
            other => panic!("{what}: unexpected pair {other:?}"),
        }
    }
    assert_eq!(
        twin.execute(batch.requests(), &mut twin_rng),
        &responses[..],
        "{what}: twin answers"
    );
    assert_eq!(twin.last_report(), report, "{what}: twin charges");
}

#[test]
fn light_first_epochs_share_the_lca_contraction_and_dirty_epochs_bind_the_pool() {
    let n = 300u32;
    let tree = generators::uniform_random(n, &mut StdRng::seed_from_u64(1));
    // No threshold rebuilds: every insert leaves the layout dirty.
    let opts = ForestOptions {
        rebuild_factor: f64::INFINITY,
        ..ForestOptions::default()
    };
    let mut forest = SpatialForest::with_options(&tree, opts);
    for v in (0..n).step_by(7) {
        forest.set_weight(v, v as u64 + 3);
    }
    let mut rng = StdRng::seed_from_u64(2);
    let mut qrng = StdRng::seed_from_u64(3);
    let mut lca_and_sums = |n: u32| {
        let mut b = QueryBatch::new();
        for _ in 0..40 {
            b.lca(qrng.gen_range(0..n), qrng.gen_range(0..n));
        }
        for _ in 0..30 {
            b.subtree_sum(qrng.gen_range(0..n));
        }
        b
    };

    // Light-first epoch: the LCA engine and the contraction engine are
    // built; the LCA run and the sums share the one bind.
    execute_checked(
        &mut forest,
        &lca_and_sums(n),
        &mut rng,
        "first light-first epoch",
    );
    let s = forest.pool().stats();
    assert_eq!((s.builds, s.rebinds), (2, 0));
    assert_eq!(forest.pool().contraction_engines(), 1);

    // Dirty epoch (insert, then sums only): the sums rebind the
    // contraction engine for the dirty layout (and grow it past 300);
    // the LCA engine stays bound to the older epoch.
    let mut dirty = QueryBatch::new();
    dirty.insert_leaf_weighted(5, 11);
    for v in [0, 5, 17, n] {
        dirty.subtree_sum(v);
    }
    execute_checked(&mut forest, &dirty, &mut rng, "first dirty epoch");
    let s = forest.pool().stats();
    assert_eq!((s.builds, s.rebinds, s.grows), (2, 1, 1));
    assert_eq!(forest.pool().contraction_engines(), 1);
    assert_eq!(
        forest.dynamic_stats().rebuilds,
        0,
        "sums leave the layout dirty"
    );

    // LCA + sums restore light-first: the LCA engine and the
    // contraction engine each rebind once, and the sums share the bind.
    execute_checked(
        &mut forest,
        &lca_and_sums(n + 1),
        &mut rng,
        "second light-first epoch",
    );
    let s = forest.pool().stats();
    assert_eq!((s.builds, s.rebinds), (2, 3));
    assert_eq!(forest.dynamic_stats().rebuilds, 1);

    // A second dirty epoch rebinds the contraction engine alone.
    let mut dirty = QueryBatch::new();
    dirty
        .insert_leaf_weighted(n, 2)
        .insert_leaf_weighted(n + 1, 9);
    for v in [0, n, n + 1, n + 2] {
        dirty.subtree_sum(v);
    }
    execute_checked(&mut forest, &dirty, &mut rng, "second dirty epoch");
    let s = forest.pool().stats();
    assert_eq!((s.builds, s.rebinds), (2, 4));
    assert_eq!(forest.pool().contraction_engines(), 1);
}

#[test]
fn lca_engine_grows_geometrically() {
    // 32 single-leaf inserts on n = 64, each followed by an LCA query:
    // the contraction engine the LCA engine runs on is built at n = 65
    // and grows once, to 128 — not once per insert epoch. Both engines
    // rebind once per later epoch.
    let tree = generators::uniform_random(64, &mut StdRng::seed_from_u64(4));
    let mut forest = SpatialForest::new(&tree);
    let mut rng = StdRng::seed_from_u64(5);
    for i in 0..32u32 {
        let mut b = QueryBatch::new();
        b.insert_leaf(i % 64).lca(i % 64, 64 + i);
        let answer = forest.execute(b.requests(), &mut rng)[1];
        assert_eq!(answer, Response::Lca(i % 64), "insert {i}");
    }
    let s = forest.pool().stats();
    assert_eq!((s.builds, s.rebinds), (2, 62));
    assert_eq!(s.grows, 1, "one geometric growth, 65 → 128");
}
