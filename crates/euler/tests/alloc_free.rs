//! Counting-allocator proof that [`RankingEngine::rank`] performs
//! **zero heap allocation** after engine setup — the same harness as
//! the treefix contraction engine's `alloc_free` test.
//!
//! A global counting allocator tallies every `alloc`/`realloc` while
//! the gate is open; the gate opens after [`RankingEngine::new`] (which
//! is allowed — and expected — to allocate its arrays) and closes
//! before the results are inspected. This binary holds exactly one
//! live `#[test]` so no concurrent test can pollute the count.

use rand::prelude::*;
use spatial_euler::ranking::{rank_sequential, RankingEngine, END};
use spatial_model::{CurveKind, Machine};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

thread_local! {
    /// Whether this thread has the gate open. Only the opening thread's
    /// allocations count, so the test harness's own thread cannot fail
    /// the gate; a thread spawned inside the gate is still caught,
    /// because spawning allocates on the opening thread.
    static GATE_OPEN: Cell<bool> = const { Cell::new(false) };
}
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn gate_open() -> bool {
    GATE_OPEN.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        if gate_open() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        if gate_open() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with the allocation gate open, returning its result and
/// the number of heap allocations performed inside.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    GATE_OPEN.set(true);
    let result = f();
    GATE_OPEN.set(false);
    (result, ALLOCATIONS.load(Ordering::SeqCst))
}

/// A random permutation list over `n` elements.
fn random_list(n: usize, seed: u64) -> (Vec<u32>, u32) {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let mut next = vec![END; n];
    for w in perm.windows(2) {
        next[w[0] as usize] = w[1];
    }
    (next, perm[0])
}

#[test]
fn rank_does_not_allocate() {
    for (n, list_seed) in [(256usize, 1u64), (2000, 2), (4096, 3)] {
        let (next, start) = random_list(n, list_seed);
        let expect = rank_sequential(&next, start);
        let machine = Machine::on_curve(CurveKind::Hilbert, n as u32);
        // Warm the machine's round staging (the engine charges in bulk
        // and never stages rounds, but keep symmetry with treefix).
        let mut engine = RankingEngine::new(&next, start);
        let mut rng = StdRng::seed_from_u64(7);

        // Two runs inside the gate: the first exercises the pristine
        // engine, the second the reset path — both must be clean.
        let (rounds, allocs) = count_allocations(|| {
            let r1 = engine.rank(&machine, &mut rng);
            let r2 = engine.rank(&machine, &mut rng);
            (r1, r2)
        });
        assert_eq!(engine.ranks(), &expect[..], "n = {n}: wrong ranks");
        assert!(rounds.0 > 0 && rounds.1 > 0);
        assert_eq!(
            allocs, 0,
            "n = {n}: rank() allocated {allocs} times after setup"
        );
    }
}

#[test]
#[ignore = "sanity check for the harness itself: proves the gate counts"]
fn counting_harness_detects_allocations() {
    let ((), allocs) = count_allocations(|| {
        let v: Vec<u64> = (0..100).collect();
        std::hint::black_box(&v);
    });
    assert!(allocs > 0, "gate failed to observe an allocation");
}
