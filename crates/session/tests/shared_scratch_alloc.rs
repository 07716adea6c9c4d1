//! Counting-allocator proof that forests sharing one [`SessionScratch`]
//! stay allocation-free: once every forest has run once on the shared
//! set (which grows to the largest of them on the way), a further round
//! of mixed executes over all of them performs **zero heap
//! allocation**, whichever forest's runs the set served last.
//!
//! This binary holds exactly one live `#[test]` so no concurrent test
//! can pollute the count (the same harness as the `alloc_free` suites).

use rand::prelude::*;
use spatial_session::{QueryBatch, SessionScratch, SpatialForest};
use spatial_tree::generators::TreeFamily;
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

thread_local! {
    /// Whether this thread has the gate open. Only the opening thread's
    /// allocations count, so the test harness's own thread cannot fail
    /// the gate.
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

/// 32 LCA pairs, 24 subtree sums and 24 ranks over `0..n`.
fn mixed(n: u32, rng: &mut StdRng) -> QueryBatch {
    let mut batch = QueryBatch::with_capacity(80);
    for _ in 0..32 {
        batch.lca(rng.gen_range(0..n), rng.gen_range(0..n));
    }
    for _ in 0..24 {
        batch
            .subtree_sum(rng.gen_range(0..n))
            .rank(rng.gen_range(0..n));
    }
    batch
}

#[test]
fn a_round_over_warm_forests_on_a_shared_set_does_not_allocate() {
    // Small, large, small: the shared set grows at the large forest
    // and is lent to the smaller ones from then on.
    let mut forests: Vec<SpatialForest> = [
        (TreeFamily::UniformRandom, 1u32 << 8),
        (TreeFamily::RandomBinary, 1 << 12),
        (TreeFamily::PreferentialAttachment, 1 << 10),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (family, n))| {
        SpatialForest::new(&family.generate(n, &mut StdRng::seed_from_u64(i as u64)))
    })
    .collect();
    let mut qrng = StdRng::seed_from_u64(7);
    let batches: Vec<QueryBatch> = forests.iter().map(|f| mixed(f.n(), &mut qrng)).collect();
    let mut shared = SessionScratch::new();
    let mut rng = StdRng::seed_from_u64(9);

    // Warm-up: every forest runs once (building its engines and batch
    // buffers; the set grows at the largest).
    for (forest, batch) in forests.iter_mut().zip(&batches) {
        forest.execute_with(&mut shared, batch.requests(), &mut rng);
    }

    let (answered, allocs) = count_allocations(|| {
        let mut answered = 0usize;
        for _ in 0..2 {
            for (forest, batch) in forests.iter_mut().zip(&batches) {
                answered += forest
                    .execute_with(&mut shared, batch.requests(), &mut rng)
                    .len();
            }
        }
        answered
    });
    assert_eq!(
        answered,
        2 * batches.iter().map(QueryBatch::len).sum::<usize>()
    );
    assert_eq!(
        allocs, 0,
        "warm forests on a shared set allocated {allocs} times"
    );
}
