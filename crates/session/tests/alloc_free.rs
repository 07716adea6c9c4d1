//! Counting-allocator proof of the session layer's headline contract:
//! after one warm-up batch, a **1000-query mixed stream** (LCA +
//! subtree sums + Euler-tour ranks, across several `execute` calls)
//! performs **zero heap allocation** — every engine run, every answer
//! scatter, every report lands in retained buffers.
//!
//! Inserts are deliberately excluded from the gated stream: tree
//! mutations are the (amortized, documented) allocation path — they
//! rebind the engines and re-point the machines. The steady state the
//! ROADMAP's serving story cares about is the query path.
//!
//! This binary holds exactly one live `#[test]` so no concurrent test
//! can pollute the count (the same harness as the layout/treefix/euler
//! `alloc_free` suites).

use rand::prelude::*;
use spatial_session::{QueryBatch, Request, Response, SpatialForest};
use spatial_tree::generators;
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

fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    GATE_OPEN.set(true);
    let result = f();
    GATE_OPEN.set(false);
    (result, ALLOCATIONS.load(Ordering::SeqCst))
}

#[test]
fn thousand_query_mixed_stream_does_not_allocate() {
    let n = 2048u32;
    let tree = generators::uniform_random(n, &mut StdRng::seed_from_u64(42));
    let mut forest = SpatialForest::new(&tree);

    // Ten batches of 100 mixed queries each (40 LCA + 30 sums + 30
    // ranks), built up front so request construction stays outside the
    // gate too.
    let mut qrng = StdRng::seed_from_u64(7);
    let batches: Vec<QueryBatch> = (0..10)
        .map(|_| {
            let mut b = QueryBatch::with_capacity(100);
            for _ in 0..40 {
                b.lca(qrng.gen_range(0..n), qrng.gen_range(0..n));
            }
            for _ in 0..30 {
                b.subtree_sum(qrng.gen_range(0..n));
            }
            for _ in 0..30 {
                b.rank(qrng.gen_range(0..n));
            }
            b
        })
        .collect();
    assert_eq!(
        batches.iter().map(|b| b.len()).sum::<usize>(),
        1000,
        "the acceptance stream is 1000 queries"
    );

    // One warm-up batch: grows the lazily-built engines, the response
    // buffer, and every charging scratch to the workload size.
    let mut rng = StdRng::seed_from_u64(9);
    forest.execute(batches[0].requests(), &mut rng);

    let mut checksum = 0u64;
    let ((), allocs) = count_allocations(|| {
        for batch in &batches {
            let responses = forest.execute(batch.requests(), &mut rng);
            for r in responses {
                checksum ^= match *r {
                    Response::Lca(w) => w as u64,
                    Response::SubtreeSum(s) => s,
                    Response::Rank(r) => r,
                    Response::InsertedLeaf(v) => v as u64,
                };
            }
        }
    });
    assert!(checksum != 0, "responses were produced");
    assert!(forest.last_report().grid.energy > 0);
    assert_eq!(
        allocs, 0,
        "1000-query mixed stream allocated {allocs} times after warm-up"
    );

    // Cross-check a few answers against the request stream (the gate
    // proved the memory discipline; this proves it still answers).
    let responses = forest.execute(batches[0].requests(), &mut rng).to_vec();
    for (req, resp) in batches[0].requests().iter().zip(&responses) {
        match (req, resp) {
            (Request::Lca(..), Response::Lca(_)) => {}
            (Request::SubtreeSum(_), Response::SubtreeSum(s)) => assert!(*s >= 1),
            (Request::Rank(_), Response::Rank(r)) => assert!(*r < 2 * n as u64),
            other => panic!("mismatched response: {other:?}"),
        }
    }
}
