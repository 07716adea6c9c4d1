//! The forest's resident-bytes census ([`SpatialForest::resident_bytes`])
//! against a counting allocator, the one-contraction-engine rule, the
//! per-vertex memory budget at n = 2¹⁰, and the tree
//! [`SpatialForest::tree`] builds on demand: held only from the call to
//! the next insert, and never by a forest that only serves.
//!
//! Live bytes are counted per thread (allocations minus frees made on
//! the measuring thread), so the tests of this binary may run
//! concurrently.

use rand::prelude::*;
use spatial_session::{ForestOptions, QueryBatch, ResidentBytes, SpatialForest};
use spatial_store::MappedSnapshot;
use spatial_tree::{generators, Tree};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAllocator;

thread_local! {
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

const N: u32 = 1 << 10;

/// Census bytes per vertex after one mixed execute on `uniform_random`
/// at n = 2¹⁰: 349 measured (365 while the forest's own ranking set
/// also reserved by-id ranks, 16 B/vertex, that the session's
/// position-map reads never use; 421 while the forest kept a materialized
/// tree, 12 B/vertex, the layout its per-vertex grid points before any
/// append, 8, and the LCA structure its own copies of the parents,
/// slots, sizes and CSR, its step-3 indicator and its step-4 slot
/// points, 36; 437 while the LCA structure also kept LCA step 2's
/// construction pairs, 16 B/vertex; 493 while the layout also reserved
/// its append headroom at construction and the forest kept its Euler
/// tour and the LCA structure its step-1 ones; 533 while the layout
/// also kept its rebuild-only buffers). A forest that also kept an idle
/// second contraction engine and copies of the layout's arrays held
/// ≈719.
const MIXED_BUDGET: usize = 437;

/// Census bytes per vertex after an insert epoch that opens with a
/// sums-only session and then serves every query kind: 680 measured
/// (712 with the by-id ranks reserved for the set's 2¹²-dart capacity;
/// 760 with the materialized tree and the LCA structure's copies kept,
/// the layout's grid points being part of its headroom by then; 776
/// with the construction pairs kept too, 803 with the Euler tour and
/// the step-1 ones kept too). Two contraction engines, each grown to
/// 2¹¹ vertices, held ≈1174.
const EPOCH_BUDGET: usize = 744;

fn tree() -> Tree {
    generators::uniform_random(N, &mut StdRng::seed_from_u64(21))
}

/// LCA pairs, subtree sums and ranks over `0..n`.
fn mixed(n: u32, seed: u64) -> QueryBatch {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = QueryBatch::new();
    for _ in 0..64 {
        batch
            .lca(rng.gen_range(0..n), rng.gen_range(0..n))
            .subtree_sum(rng.gen_range(0..n))
            .rank(rng.gen_range(0..n));
    }
    batch
}

/// One insert, then subtree sums only: the insert epoch's first
/// session runs on a layout left dirty by the tail append.
fn insert_then_sums() -> QueryBatch {
    let mut batch = QueryBatch::new();
    batch.insert_leaf_weighted(7, 3);
    for v in [0, 7, N, N / 2] {
        batch.subtree_sum(v);
    }
    batch
}

fn per_vertex(bytes: &ResidentBytes, forest: &SpatialForest) -> usize {
    bytes.total() / forest.n() as usize
}

/// Asserts the census is within 1% of the live bytes the forest holds.
fn assert_honest(census: &ResidentBytes, live_bytes: i64, what: &str) {
    let total = census.total() as i64;
    let gap = (total - live_bytes).abs();
    assert!(
        gap * 100 <= live_bytes,
        "{what}: census {total} B ({census:?}) vs {live_bytes} B live"
    );
}

#[test]
fn census_matches_the_live_bytes_of_an_owned_forest() {
    let tree = tree();
    let first = mixed(N, 1);
    let sums = insert_then_sums();
    let later = mixed(N + 1, 2);
    let mut rng = StdRng::seed_from_u64(3);

    let before = live();
    let mut forest = SpatialForest::new(&tree);
    forest.execute(first.requests(), &mut rng);
    assert_honest(
        &forest.resident_bytes(),
        live() - before,
        "after a mixed execute",
    );

    forest.execute(sums.requests(), &mut rng);
    forest.execute(later.requests(), &mut rng);
    assert_honest(
        &forest.resident_bytes(),
        live() - before,
        "after an insert epoch and every query kind",
    );
}

#[test]
fn a_forest_holds_one_contraction_engine() {
    let tree = tree();
    let mut rng = StdRng::seed_from_u64(4);

    // Read-only: LCA steps 1 and 3 and the sums share one engine.
    let mut forest = SpatialForest::new(&tree);
    assert_eq!(forest.pool().contraction_engines(), 0, "built on first use");
    assert_eq!(forest.resident_bytes().contraction, 0);
    forest.execute(mixed(N, 5).requests(), &mut rng);
    assert_eq!(forest.pool().contraction_engines(), 1, "read-only forest");

    // An insert epoch that opens with a sums-only session binds the
    // engine on the dirty layout; the LCA session that follows rebinds
    // the same engine after the light-first rebuild.
    let mut forest = SpatialForest::new(&tree);
    forest.execute(insert_then_sums().requests(), &mut rng);
    assert_eq!(forest.pool().contraction_engines(), 1, "sums-only session");
    assert!(!forest.pool().has_lca());
    forest.execute(mixed(N + 1, 6).requests(), &mut rng);
    assert_eq!(forest.pool().contraction_engines(), 1, "then every kind");
    assert!(forest.pool().has_lca());
}

#[test]
fn bytes_per_vertex_stay_within_budget() {
    let tree = tree();
    let mut rng = StdRng::seed_from_u64(7);

    let mut forest = SpatialForest::new(&tree);
    forest.execute(mixed(N, 8).requests(), &mut rng);
    let bytes = forest.resident_bytes();
    assert!(
        per_vertex(&bytes, &forest) <= MIXED_BUDGET,
        "after a mixed execute: {} B/vertex ({bytes:?})",
        per_vertex(&bytes, &forest)
    );

    forest.execute(insert_then_sums().requests(), &mut rng);
    forest.execute(mixed(N + 1, 9).requests(), &mut rng);
    let bytes = forest.resident_bytes();
    assert!(
        per_vertex(&bytes, &forest) <= EPOCH_BUDGET,
        "after an insert epoch and every query kind: {} B/vertex ({bytes:?})",
        per_vertex(&bytes, &forest)
    );
}

/// The tree of the forest's parents, read through its snapshot.
fn tree_of(forest: &SpatialForest) -> Tree {
    let snap = forest.snapshot(0);
    Tree::from_parents(snap.root, snap.parents)
}

/// `count` leaf inserts under vertices `0, 7, 14, …`.
fn inserts(count: u32) -> QueryBatch {
    let mut batch = QueryBatch::new();
    for i in 0..count {
        batch.insert_leaf(i * 7);
    }
    batch
}

#[test]
fn the_tree_is_built_on_demand_and_dropped_by_the_next_insert() {
    let tree = tree();
    let mut rng = StdRng::seed_from_u64(10);
    // No threshold rebuild: inserts leave the layout dirty until an LCA
    // session rebuilds it.
    let opts = ForestOptions {
        rebuild_factor: f64::INFINITY,
        ..ForestOptions::default()
    };

    // Built and served without the call: no tree.
    let mut forest = SpatialForest::with_options(&tree, opts);
    assert_eq!(forest.resident_bytes().structure, 0, "built");
    forest.execute(mixed(N, 11).requests(), &mut rng);
    assert_eq!(forest.resident_bytes().structure, 0, "served");

    // After inserts, on the dirty layout: the forest's parents, counted
    // while held, and exactly the bytes the call left allocated.
    forest.execute(inserts(5).requests(), &mut rng);
    let before = live();
    let held = forest.tree().resident_bytes();
    assert_eq!(live() - before, held as i64, "what the call allocated");
    let want = tree_of(&forest);
    assert_eq!(forest.tree(), &want, "on a dirty layout");
    assert_eq!(forest.resident_bytes().structure, held);
    assert!(held > 0);

    // An LCA session rebuilds the layout but not the tree: still held,
    // still the forest's parents.
    let rebuilds = forest.dynamic_stats().rebuilds;
    forest.execute(mixed(forest.n(), 12).requests(), &mut rng);
    assert_eq!(forest.dynamic_stats().rebuilds, rebuilds + 1);
    assert_eq!(forest.resident_bytes().structure, held, "after a rebuild");
    assert_eq!(forest.tree(), &want, "after a rebuild");

    // The next insert drops it; the next call builds the grown tree.
    forest.execute(inserts(1).requests(), &mut rng);
    assert_eq!(forest.resident_bytes().structure, 0, "dropped");
    let want = tree_of(&forest);
    assert_eq!(want.n(), N + 6, "grown");
    assert_eq!(forest.tree(), &want, "after the insert");

    // Restored by `from_mapped` and served without the call: no tree.
    let path = std::env::temp_dir().join(format!(
        "spatial-resident-bytes-{}-tree.snapshot",
        std::process::id()
    ));
    forest.snapshot_to(&path, 0).expect("snapshot");
    let snap = Arc::new(MappedSnapshot::open(&path).expect("open"));
    let mut restored = SpatialForest::from_mapped(&snap, opts);
    restored.execute(mixed(restored.n(), 13).requests(), &mut rng);
    assert_eq!(
        restored.resident_bytes().structure,
        0,
        "restored and served"
    );
    assert_eq!(restored.tree(), &want, "restored");
    drop((restored, snap));
    std::fs::remove_file(&path).ok();
}
