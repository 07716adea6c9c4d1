//! Counting-allocator proof that `contract` and both `uncontract`
//! passes perform **zero heap allocation** after engine setup, and so
//! do a pooled engine's structure bind and per-run `load` within its
//! capacity.
//!
//! A global counting allocator tallies every `alloc`/`realloc` while
//! the gate is open; the gate opens after `ContractionEngine::new`
//! (which is allowed — and expected — to allocate its arenas) and
//! closes before the results are inspected. This binary holds exactly
//! one `#[test]` so no concurrent test can pollute the count.

use rand::prelude::*;
use spatial_layout::Layout;
use spatial_model::{CurveKind, EngineLifecycle, Slot};
use spatial_tree::generators::TreeFamily;
use spatial_treefix::contraction::ContractionEngine;
use spatial_treefix::{treefix_bottom_up_host, treefix_top_down_host, Add};
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

#[test]
fn contract_and_uncontract_do_not_allocate() {
    use spatial_tree::ChildrenCsr;

    let mut tree_rng = StdRng::seed_from_u64(42);
    // One pooled engine serves every family below: after the first
    // (largest) binding has grown the buffers, every later bind +
    // contract + uncontract — the whole steady-state run cycle — must
    // be allocation-free.
    let mut pooled: ContractionEngine<Add> = ContractionEngine::with_capacity(4096);
    for (fam, n) in [
        (TreeFamily::UniformRandom, 2000u32),
        (TreeFamily::RandomBinary, 4096),
        (TreeFamily::PreferentialAttachment, 1500),
        (TreeFamily::Comb, 1024),
        (TreeFamily::Star, 512),
    ] {
        let t = fam.generate(n, &mut tree_rng);
        let values: Vec<Add> = (0..n as u64).map(|v| Add(v % 101 + 1)).collect();
        let layout = Layout::light_first(&t, CurveKind::Hilbert);
        let sizes = t.subtree_sizes();
        let csr = ChildrenCsr::by_size(&t, &sizes);
        let expect_bu = treefix_bottom_up_host(&t, &values);
        let expect_td = treefix_top_down_host(&t, &values);

        // Bottom-up: setup allocates, the hot phases must not.
        let machine = layout.machine();
        let mut engine = ContractionEngine::new(&t, &layout, &values, true);
        let mut rng = StdRng::seed_from_u64(7);
        let (stats, allocs) = count_allocations(|| {
            let stats = engine.contract(&machine, &mut rng);
            engine.uncontract_bottom_up(&machine);
            stats
        });
        assert_eq!(engine.output(), &expect_bu[..], "{fam}: wrong result");
        assert!(stats.compact_rounds > 0);
        assert_eq!(
            allocs, 0,
            "{fam} (n = {n}): bottom-up contract/uncontract allocated {allocs} times"
        );

        // Top-down over the same tree.
        let machine = layout.machine();
        let mut engine = ContractionEngine::new(&t, &layout, &values, false);
        let mut rng = StdRng::seed_from_u64(8);
        let (_, allocs) = count_allocations(|| {
            let stats = engine.contract(&machine, &mut rng);
            engine.uncontract_top_down(&machine, &values);
            stats
        });
        assert_eq!(engine.output(), &expect_td[..], "{fam}: wrong result");
        assert_eq!(
            allocs, 0,
            "{fam} (n = {n}): top-down contract/uncontract allocated {allocs} times"
        );

        // The pooled engine: rebinding within capacity is part of the
        // allocation-free contract (the session layer's steady state).
        // Warm up once at the largest size before opening the gate.
        if pooled.capacity() >= n as usize {
            let machine = layout.machine();
            let mut rng = StdRng::seed_from_u64(9);
            let (_, allocs) = count_allocations(|| {
                pooled.bind(&t, &layout, &csr, &values, true);
                let stats = pooled.contract(&machine, &mut rng);
                pooled.uncontract_bottom_up(&machine);
                stats
            });
            assert_eq!(pooled.output(), &expect_bu[..], "{fam}: pooled result");
            assert_eq!(
                allocs, 0,
                "{fam} (n = {n}): pooled bind/contract/uncontract allocated {allocs} times"
            );

            // The bind-once path: one structure bind, then several
            // load + contract + uncontract cycles in both directions.
            let slots: Vec<Slot> = (0..n).map(|v| layout.slot(v)).collect();
            let (correct, allocs) = count_allocations(|| {
                pooled.bind_structure(t.parents(), &slots, &csr);
                let mut correct = true;
                for _ in 0..3 {
                    pooled.load(&values, true);
                    pooled.contract(&machine, &mut rng);
                    correct &= pooled.uncontract_bottom_up(&machine) == &expect_bu[..];
                    pooled.load(&values, false);
                    pooled.contract(&machine, &mut rng);
                    correct &= pooled.uncontract_top_down(&machine, &values) == &expect_td[..];
                }
                correct
            });
            assert!(correct, "{fam}: pooled load cycles gave a wrong result");
            assert_eq!(
                allocs, 0,
                "{fam} (n = {n}): pooled structure + load cycles allocated {allocs} times"
            );
        }
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
