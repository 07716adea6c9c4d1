//! Counting-allocator proof of the restart story: a recovered forest
//! (slabs mapped from the snapshot file, as every durable tenant
//! restarts) that has been [`SpatialForest::warmstart`]ed serves its
//! **first** post-restart mixed query session with **zero heap
//! allocation** —
//! the engine pool and every batch scratch are pre-sized from the
//! snapshot header's reserved capacity, so the restart does not pay a
//! warm-up session the way a cold forest does.
//!
//! This binary holds exactly one live `#[test]` so no concurrent test
//! can pollute the count (the same harness as `alloc_free.rs`).

use rand::prelude::*;
use spatial_session::{ForestOptions, QueryBatch, Response, SpatialForest};
use spatial_tree::generators;
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAllocator;

thread_local! {
    /// Whether this thread has the gate open. Only the opening thread's
    /// allocations count, so the test harness's own thread cannot fail
    /// the gate; a thread spawned inside the gate is still caught,
    /// because spawning allocates on the opening thread.
    static GATE_OPEN: Cell<bool> = const { Cell::new(false) };
}
static TRAP: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn gate_open() -> bool {
    GATE_OPEN.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        if gate_open() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            if TRAP.load(Ordering::Relaxed) {
                GATE_OPEN.set(false);
                panic!("gated alloc of {} bytes", layout.size());
            }
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        if gate_open() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            if TRAP.load(Ordering::Relaxed) {
                GATE_OPEN.set(false);
                panic!("gated realloc {} -> {} bytes", layout.size(), new_size);
            }
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    GATE_OPEN.set(true);
    let result = f();
    GATE_OPEN.set(false);
    (result, ALLOCATIONS.load(Ordering::SeqCst))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("spatial-warmstart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn warmstarted_recovery_serves_first_session_without_allocating() {
    let n = 1024u32;
    let dir = temp_dir("first-session");
    let snap_path = dir.join("forest.snapshot");

    // A forest with history: inserts (so reserved > n in the header)
    // and one query batch to settle the layout light-first.
    let tree = generators::uniform_random(n, &mut StdRng::seed_from_u64(42));
    let mut forest = SpatialForest::new(&tree);
    let mut rng = StdRng::seed_from_u64(9);
    let mut grow = QueryBatch::new();
    for v in 0..64u32 {
        grow.insert_leaf_weighted(v % n, v as u64 + 1);
    }
    forest.execute(grow.requests(), &mut rng);
    let mut settle = QueryBatch::new();
    settle.lca(1, 2).subtree_sum(0).rank(3);
    forest.execute(settle.requests(), &mut rng);
    forest.snapshot_to(&snap_path, 1).expect("snapshot");

    // The first post-restart session's stream, built before the gate.
    let total = forest.n();
    let mut qrng = StdRng::seed_from_u64(7);
    let mut batch = QueryBatch::with_capacity(100);
    for _ in 0..40 {
        batch.lca(qrng.gen_range(0..total), qrng.gen_range(0..total));
    }
    for _ in 0..30 {
        batch.subtree_sum(qrng.gen_range(0..total));
    }
    for _ in 0..30 {
        batch.rank(qrng.gen_range(0..total));
    }

    // Restart: recover and warmstart — no warm-up execute.
    let mut restarted = SpatialForest::recover_from(
        &snap_path,
        dir.join("forest.journal"),
        ForestOptions::default(),
    )
    .expect("recover");
    assert_eq!(restarted.replayed_records(), 0, "no journal to replay");
    restarted.warmstart(batch.len());

    TRAP.store(
        std::env::var_os("WARMSTART_TRAP").is_some(),
        Ordering::SeqCst,
    );
    let mut session_rng = StdRng::seed_from_u64(77);
    let mut checksum = 0u64;
    let ((), allocs) = count_allocations(|| {
        let responses = restarted.execute(batch.requests(), &mut session_rng);
        for r in responses {
            checksum ^= match *r {
                Response::Lca(w) => w as u64,
                Response::SubtreeSum(s) => s,
                Response::Rank(r) => r,
                Response::InsertedLeaf(v) => v as u64,
            };
        }
    });
    assert!(checksum != 0, "responses were produced");
    assert_eq!(
        allocs, 0,
        "first post-restart session allocated {allocs} times despite warmstart"
    );

    // The warmstart must be charge- and answer-neutral: a twin that
    // recovers without warmstarting gives bit-identical results.
    let mut twin = SpatialForest::recover_from(
        &snap_path,
        dir.join("forest.journal"),
        ForestOptions::default(),
    )
    .expect("recover twin");
    let mut twin_rng = StdRng::seed_from_u64(77);
    let mut twin_checksum = 0u64;
    for r in twin.execute(batch.requests(), &mut twin_rng) {
        twin_checksum ^= match *r {
            Response::Lca(w) => w as u64,
            Response::SubtreeSum(s) => s,
            Response::Rank(r) => r,
            Response::InsertedLeaf(v) => v as u64,
        };
    }
    assert_eq!(checksum, twin_checksum, "warmstart changed answers");
    assert_eq!(
        twin.last_report(),
        restarted.last_report(),
        "warmstart changed charges"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
