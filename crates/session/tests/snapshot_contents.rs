//! A snapshot whose checksums pass but whose contents a restore cannot
//! use fails [`SpatialForest::recover_from`] with
//! [`StoreError::Inconsistent`] instead of panicking inside it: a curve
//! index out of range, an order that is not a permutation, a parent id
//! at or above `n`, a reserved capacity below `n`, a cycle among the
//! parents, a snapshot of no vertex, and an order that is not
//! light-first under a header that marks the layout clean. The same
//! snapshot, unmodified, still recovers the forest that wrote it. A
//! restored order that is not light-first answers subtree sums and
//! ranks as the forest that wrote it does, before and after the first
//! LCA session rebuilds it.

use rand::prelude::*;
use spatial_session::{ForestOptions, QueryBatch, SpatialForest};
use spatial_store::{ForestSnapshot, MappedSnapshot, StoreError};
use spatial_tree::generators;
use std::sync::Arc;

/// A fresh directory of this process for the test `name`.
fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spatial-snapshot-contents-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A named edit that breaks one invariant of a snapshot's contents.
type Corruption = (&'static str, fn(&mut ForestSnapshot));

#[test]
fn inconsistent_contents_fail_the_recovery() {
    let dir = temp_dir("inconsistent");
    let journal = dir.join("absent.journal");
    let tree = generators::uniform_random(200, &mut StdRng::seed_from_u64(1));
    let mut live = SpatialForest::new(&tree);
    let mut batch = QueryBatch::new();
    batch.insert_leaf(3).lca(5, 9).subtree_sum(0).rank(7);
    live.execute(batch.requests(), &mut StdRng::seed_from_u64(2));
    let good = live.snapshot(1);
    let n = good.parents.len() as u32;

    let cases: [Corruption; 6] = [
        ("curve index out of range", |s| s.curve = 9),
        ("order not a permutation", |s| s.order[0] = s.order[1]),
        ("parent id at n", |s| {
            let n = s.parents.len();
            s.parents[(s.root as usize + 1) % n] = n as u32;
        }),
        ("reserved below n", |s| {
            s.reserved = s.parents.len() as u64 - 1
        }),
        ("a cycle", |s| {
            // A grandchild of the root becomes its own parent's parent.
            let grandchild = (0..s.parents.len())
                .find(|&g| s.parents.get(s.parents[g] as usize) == Some(&s.root))
                .expect("the tree has depth 2");
            let child = s.parents[grandchild] as usize;
            s.parents[child] = grandchild as u32;
        }),
        ("no vertex", |s| {
            s.parents.clear();
            s.order.clear();
            s.weights.clear();
        }),
    ];
    for (what, corrupt) in cases {
        let mut bad = good.clone();
        corrupt(&mut bad);
        let path = dir.join("bad.snapshot");
        bad.write_to(&path).expect("write");
        match SpatialForest::recover_from(&path, &journal, ForestOptions::default()) {
            Err(StoreError::Inconsistent(_)) => {}
            Err(e) => panic!("{what}: {e}"),
            Ok(_) => panic!("{what}: recovered"),
        }
    }

    let path = dir.join("good.snapshot");
    good.write_to(&path).expect("write");
    let mut recovered =
        SpatialForest::recover_from(&path, &journal, ForestOptions::default()).expect("recover");
    let mut probe = QueryBatch::new();
    probe.lca(11, 150).subtree_sum(4).rank(n - 1).insert_leaf(0);
    let want = live
        .execute(probe.requests(), &mut StdRng::seed_from_u64(3))
        .to_vec();
    let got = recovered.execute(probe.requests(), &mut StdRng::seed_from_u64(3));
    assert_eq!(got, want);
    assert_eq!(recovered.last_report(), live.last_report());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_clean_header_needs_a_light_first_order() {
    // A reversed order under a clean header would feed the LCA engine a
    // layout it cannot decompose: recovery refuses it, and a plain
    // restore (`from_mapped`, the serve layer's path) restores it dirty.
    // Under a dirty header it is a layout like any other. Either way the
    // first LCA session rebuilds it; until then, sums and ranks run on
    // the reversed order, where slot order puts every child before its
    // parent, and must answer as the twin does.
    let dir = temp_dir("light-first");
    let journal = dir.join("absent.journal");
    let tree = generators::uniform_random(300, &mut StdRng::seed_from_u64(4));
    let mut twin = SpatialForest::new(&tree);
    let mut batch = QueryBatch::new();
    batch.lca(5, 9).subtree_sum(0).rank(7);
    twin.execute(batch.requests(), &mut StdRng::seed_from_u64(5));
    // A leaf of weight u64::MAX: every sum above it wraps.
    let leaf = (0..300u32)
        .find(|&v| tree.children(v).is_empty())
        .expect("a tree has a leaf");
    twin.set_weight(leaf, u64::MAX);
    let mut snap = twin.snapshot(1);
    assert!(!snap.layout_dirty, "an LCA session leaves the layout clean");
    snap.order.reverse();
    let path = dir.join("reversed.snapshot");

    snap.write_to(&path).expect("write");
    match SpatialForest::recover_from(&path, &journal, ForestOptions::default()) {
        Err(StoreError::Inconsistent(_)) => {}
        Err(e) => panic!("clean header, reversed order: {e}"),
        Ok(_) => panic!("clean header, reversed order: recovered"),
    }
    let mapped = MappedSnapshot::open(&path).expect("open");
    let restored = SpatialForest::from_mapped(&Arc::new(mapped), ForestOptions::default());

    snap.layout_dirty = true;
    let dirty_path = dir.join("reversed-dirty.snapshot");
    snap.write_to(&dirty_path).expect("write");
    let recovered = SpatialForest::recover_from(&dirty_path, &journal, ForestOptions::default())
        .expect("recover");
    let mut sums_and_ranks = QueryBatch::new();
    for v in 0..300u32 {
        sums_and_ranks.subtree_sum(v).rank(v);
    }
    let twin_answers = twin
        .execute(sums_and_ranks.requests(), &mut StdRng::seed_from_u64(7))
        .to_vec();
    let mut forests = [("restored", restored), ("recovered", recovered)];
    for (what, forest) in &mut forests {
        let got = forest.execute(sums_and_ranks.requests(), &mut StdRng::seed_from_u64(7));
        assert_eq!(got, twin_answers, "{what}: sums and ranks before a rebuild");
    }
    let mut probe = QueryBatch::new();
    for i in 0..200u32 {
        probe.lca(i, 299 - i).subtree_sum(i).rank(i);
    }
    probe.insert_leaf(17).lca(300, 4).rank(300);
    let want = twin
        .execute(probe.requests(), &mut StdRng::seed_from_u64(6))
        .to_vec();
    for (what, mut forest) in forests {
        let got = forest.execute(probe.requests(), &mut StdRng::seed_from_u64(6));
        assert_eq!(got, want, "{what}: answers");
        assert_eq!(forest.last_report(), twin.last_report(), "{what}: report");
    }
    std::fs::remove_dir_all(&dir).ok();
}
