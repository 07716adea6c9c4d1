//! Engine capacity growth: reuse one pooled engine at `n`, then
//! `2n + 3`, then `5` — results must be identical to fresh per-tree
//! builds, and `reserve` alone is the allocating step: after a single
//! `reserve` to the largest size, **every** bind + run cycle (first
//! run at a size included — no warm-up) is allocation-free
//! (counting-allocator gate, the same harness as the other
//! `alloc_free` suites).
//!
//! This binary holds exactly one live `#[test]` so no concurrent test
//! can pollute the count.

use rand::prelude::*;
use spatial_euler::ranking::{rank_sequential, RankingEngine};
use spatial_layout::Layout;
use spatial_model::{CurveKind, EngineLifecycle, Machine};
use spatial_tree::{generators, ChildrenCsr, Tree};
use spatial_treefix::contraction::ContractionEngine;
use spatial_treefix::{treefix_bottom_up_host, Add};
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

struct Workload {
    tree: Tree,
    layout: Layout,
    csr: ChildrenCsr,
    values: Vec<Add>,
    machine: Machine,
    expect: Vec<Add>,
    list: Vec<u32>,
    list_start: u32,
    list_machine: Machine,
    list_expect: Vec<u64>,
}

fn workload(n: u32, seed: u64) -> Workload {
    let tree = generators::uniform_random(n, &mut StdRng::seed_from_u64(seed));
    let layout = Layout::light_first(&tree, CurveKind::Hilbert);
    let sizes = tree.subtree_sizes();
    let csr = ChildrenCsr::by_size(&tree, &sizes);
    let values: Vec<Add> = (0..n as u64).map(|v| Add(v % 53 + 1)).collect();
    let machine = layout.machine();
    let expect = treefix_bottom_up_host(&tree, &values);

    let mut order: Vec<u32> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf00d);
    for i in (1..n as usize).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut list = vec![u32::MAX; n as usize];
    for w in order.windows(2) {
        list[w[0] as usize] = w[1];
    }
    let list_start = order[0];
    let list_machine = Machine::on_curve(CurveKind::Hilbert, n);
    let list_expect = rank_sequential(&list, list_start);
    Workload {
        tree,
        layout,
        csr,
        values,
        machine,
        expect,
        list,
        list_start,
        list_machine,
        list_expect,
    }
}

#[test]
fn growth_sequence_matches_fresh_builds_then_goes_alloc_free() {
    let n = 400u32;
    let small = workload(5, 3);
    let mid = workload(n, 1);
    let big = workload(2 * n + 3, 2);

    let mut treefix: ContractionEngine<Add> = ContractionEngine::with_capacity(n as usize);
    let mut ranking = RankingEngine::with_capacity(n as usize);

    // ---- Phase 1: n, then the growth to 2n+3, then 5 — every size ----
    // ---- must answer exactly like a fresh engine.                  ----
    for w in [&mid, &big, &small] {
        let wn = w.tree.n() as usize;
        treefix.reserve(wn);
        treefix.bind(&w.tree, &w.layout, &w.csr, &w.values, true);
        treefix.contract(&w.machine, &mut StdRng::seed_from_u64(11));
        assert_eq!(
            treefix.uncontract_bottom_up(&w.machine),
            &w.expect[..],
            "treefix at n={wn} diverged from the host oracle"
        );

        ranking.reserve(wn);
        ranking.bind(&w.list, w.list_start);
        ranking.rank(&w.list_machine, &mut StdRng::seed_from_u64(12));
        assert_eq!(
            ranking.ranks(),
            &w.list_expect[..],
            "ranking at n={wn} diverged from the sequential oracle"
        );
    }
    assert!(
        treefix.capacity() >= big.tree.n() as usize,
        "grew past 2n+3"
    );

    // ---- Phase 2: after the growth, the whole bind→run cycle at    ----
    // ---- every previously seen size is allocation-free.            ----
    let mut rng = StdRng::seed_from_u64(13);
    let ((), allocs) = count_allocations(|| {
        for w in [&small, &big, &mid, &big, &small] {
            treefix.bind(&w.tree, &w.layout, &w.csr, &w.values, true);
            treefix.contract(&w.machine, &mut rng);
            treefix.uncontract_bottom_up(&w.machine);

            ranking.bind(&w.list, w.list_start);
            ranking.rank(&w.list_machine, &mut rng);
        }
    });
    assert_eq!(treefix.output(), &small.expect[..]);
    assert_eq!(ranking.ranks(), &small.list_expect[..]);
    assert_eq!(
        allocs, 0,
        "post-growth bind/run cycles allocated {allocs} times"
    );

    // ---- Phase 3 (strict): brand-new engines, one `reserve`, no    ----
    // ---- warm-up runs — the FIRST charged run at every size must   ----
    // ---- already be clean, proving `reserve` grows everything      ----
    // ---- (relay + local-charge scratch included).                  ----
    let mut cold_treefix: ContractionEngine<Add> = ContractionEngine::with_capacity(8);
    let mut cold_ranking = RankingEngine::with_capacity(8);
    cold_treefix.reserve(big.tree.n() as usize);
    cold_ranking.reserve(big.tree.n() as usize);
    let ((), allocs) = count_allocations(|| {
        for w in [&big, &small, &mid] {
            cold_treefix.bind(&w.tree, &w.layout, &w.csr, &w.values, true);
            cold_treefix.contract(&w.machine, &mut rng);
            cold_treefix.uncontract_bottom_up(&w.machine);

            cold_ranking.bind(&w.list, w.list_start);
            cold_ranking.rank(&w.list_machine, &mut rng);
        }
    });
    assert_eq!(cold_treefix.output(), &mid.expect[..]);
    assert_eq!(cold_ranking.ranks(), &mid.list_expect[..]);
    assert_eq!(
        allocs, 0,
        "reserve-only engines allocated {allocs} times on their first runs"
    );
}
