//! Counting-allocator proof that the PRAM baseline engines perform
//! **zero heap allocation** in steady state — the same harness as the
//! treefix/ranking/layout engines' `alloc_free` tests.
//!
//! The gate opens after engine setup plus one warm-up run per baseline
//! (the answer/output buffers grow to their batch sizes) and closes
//! before the results are inspected. This binary holds exactly one live
//! `#[test]` so no concurrent test can pollute the count.

use rand::prelude::*;
use spatial_pram::{PramEngine, PramLcaBatch, PramListRanker, PramPrefixSummer, PramTreefix};
use spatial_tree::generators::TreeFamily;
use spatial_tree::NodeId;
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
    let mut next = vec![u32::MAX; n];
    for w in perm.windows(2) {
        next[w[0] as usize] = w[1];
    }
    (next, perm[0])
}

#[test]
fn pram_baselines_do_not_allocate_in_steady_state() {
    let n = 1u32 << 10;
    let tree = TreeFamily::UniformRandom.generate(n, &mut StdRng::seed_from_u64(1));
    let values: Vec<u64> = (0..n as u64).map(|v| v + 1).collect();
    let (next, start) = random_list(n as usize, 2);
    let queries: Vec<(NodeId, NodeId)> = {
        let mut rng = StdRng::seed_from_u64(3);
        (0..n as usize / 2)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect()
    };

    // Setup: machine engine (2n cells cover the darts) + the four
    // baseline engines.
    let mut pram = PramEngine::new(2 * n, 2 * n, &mut StdRng::seed_from_u64(4));
    let mut ranker = PramListRanker::new(&next, start);
    let mut summer = PramPrefixSummer::with_capacity(n as usize);
    let mut treefix = PramTreefix::new(&tree);
    let mut lca = PramLcaBatch::new(&tree);

    // Warm-up: one run per baseline grows every retained buffer (the
    // splice logs, the answer vectors).
    let mut rng = StdRng::seed_from_u64(5);
    {
        let mut run = pram.run();
        ranker.rank(&mut run, &mut rng);
        summer.run(&mut run, &values);
        run.finish();
    }
    treefix.subtree_sums(&mut pram, &values, &mut rng);
    lca.run(&mut pram, &queries, &mut rng);

    // Snapshot the warm-up results (allocates — outside the gate).
    let expect_ranks = ranker.ranks().to_vec();
    let expect_sums = summer.sums().to_vec();
    let expect_subtree = treefix.sums().to_vec();
    let expect_answers = lca.answers().to_vec();
    pram.reset();

    // Two full rounds inside the gate — a reused rng and a fresh one —
    // must be allocation-free.
    let mut rng_a = StdRng::seed_from_u64(5);
    let mut rng_b = StdRng::seed_from_u64(6);
    let ((), allocs) = count_allocations(|| {
        for rng in [&mut rng_a, &mut rng_b] {
            let mut run = pram.run();
            ranker.rank(&mut run, rng);
            summer.run(&mut run, &values);
            run.finish();
            treefix.subtree_sums(&mut pram, &values, rng);
            lca.run(&mut pram, &queries, rng);
            pram.reset();
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state PRAM baseline runs allocated {allocs} times"
    );

    // The Las Vegas coins change only costs, never results.
    assert_eq!(ranker.ranks(), &expect_ranks[..]);
    assert_eq!(summer.sums(), &expect_sums[..]);
    assert_eq!(treefix.sums(), &expect_subtree[..]);
    assert_eq!(lca.answers(), &expect_answers[..]);
}
