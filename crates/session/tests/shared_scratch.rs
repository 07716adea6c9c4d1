//! Forests that borrow their engines' run buffers and their machines
//! from one shared [`SessionScratch`] ([`SpatialForest::execute_with`])
//! answer and charge exactly like twins that run on their own
//! ([`SpatialForest::execute`]), whatever size and curve the forest
//! before them had, and a borrowing forest's census counts no run
//! buffers, no machines, no Euler tour, no materialized tree, no second
//! copy of the tree in the LCA structure, and no append headroom.
//!
//! Live bytes are counted per thread (allocations minus frees made on
//! the measuring thread), so the tests of this binary may run
//! concurrently.

use rand::prelude::*;
use spatial_lca::LcaEngine;
use spatial_model::CurveKind;
use spatial_session::{QueryBatch, ResidentBytes, SessionScratch, SpatialForest};
use spatial_tree::generators::TreeFamily;
use spatial_tree::{ChildrenCsr, Tree};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Census bytes per vertex of a tenant that runs on a shared set, after
/// one mixed execute on `uniform_random` at n = 2¹⁰: 107 measured (the
/// same forest on its own set reads 349). The shared set's ranking
/// buffers are not the tenant's, so dropping their by-id ranks left
/// this figure as it was. It read 163 while the forest
/// kept a materialized tree (12 B/vertex), the layout its per-vertex
/// grid points before any append (8) and the LCA structure its own
/// copies of the parents, slots, sizes and CSR, its step-3 indicator
/// and its step-4 slot points (36); 179 while the LCA structure also
/// kept LCA step 2's construction pairs (16); and 283 while every
/// tenant also kept its own machines, its Euler tour, its append
/// headroom and the LCA structure's step-1 ones.
const SERVED_BUDGET: usize = 143;

/// A mixed batch over the forest's current `n` vertices: LCA pairs,
/// subtree sums and ranks, with `inserts` leaf inserts spread through
/// it (each splits the batch into sessions).
fn mixed(n: u32, inserts: u32, rng: &mut StdRng) -> QueryBatch {
    let mut batch = QueryBatch::new();
    let mut n = n;
    for i in 0..48u32 {
        if i % 16 == 7 && i / 16 < inserts {
            batch.insert_leaf_weighted(rng.gen_range(0..n), rng.gen_range(1..9));
            n += 1;
        }
        batch
            .lca(rng.gen_range(0..n), rng.gen_range(0..n))
            .subtree_sum(rng.gen_range(0..n))
            .rank(rng.gen_range(0..n));
    }
    batch
}

/// A borrowing forest, its twin on its own set, and both session RNGs.
struct Pair {
    borrowing: SpatialForest,
    twin: SpatialForest,
    rng: StdRng,
    twin_rng: StdRng,
}

impl Pair {
    fn new(family: TreeFamily, n: u32, curve: CurveKind, seed: u64) -> Self {
        let tree = family.generate(n, &mut StdRng::seed_from_u64(seed));
        Pair {
            borrowing: SpatialForest::with_curve(&tree, curve),
            twin: SpatialForest::with_curve(&tree, curve),
            rng: StdRng::seed_from_u64(seed + 100),
            twin_rng: StdRng::seed_from_u64(seed + 100),
        }
    }

    /// Runs `batch` on the borrowing forest over `scratch` and on the
    /// twin over its own set; answers and reports must agree.
    fn run(&mut self, scratch: &mut SessionScratch, batch: &QueryBatch, what: &str) {
        let got = self
            .borrowing
            .execute_with(scratch, batch.requests(), &mut self.rng)
            .to_vec();
        let want = self.twin.execute(batch.requests(), &mut self.twin_rng);
        assert_eq!(got, want, "{what}: answers");
        assert_eq!(
            self.borrowing.last_report(),
            self.twin.last_report(),
            "{what}: report"
        );
    }
}

#[test]
fn borrowing_forests_match_twins_on_their_own_sets() {
    let mut pairs = [
        Pair::new(TreeFamily::UniformRandom, 1 << 8, CurveKind::Hilbert, 1),
        Pair::new(
            TreeFamily::PreferentialAttachment,
            1 << 12,
            CurveKind::Hilbert,
            2,
        ),
        Pair::new(TreeFamily::RandomBinary, 1 << 10, CurveKind::Hilbert, 3),
    ];
    let mut shared = SessionScratch::new();
    let mut qrng = StdRng::seed_from_u64(4);
    // Small, then large (the set grows mid-stream), then small again:
    // the grown set is lent to the smaller forests from then on.
    for (step, &i) in [0usize, 1, 0, 2, 1, 2, 0, 2, 1, 0].iter().enumerate() {
        let pair = &mut pairs[i];
        let batch = mixed(pair.twin.n(), (step % 3) as u32, &mut qrng);
        pair.run(&mut shared, &batch, &format!("step {step}, forest {i}"));
    }

    // A set that a run on a larger, different tree left behind serves
    // every forest as well.
    let mut left_behind = SessionScratch::new();
    let big = TreeFamily::Caterpillar.generate(1 << 13, &mut StdRng::seed_from_u64(5));
    let mut other = SpatialForest::new(&big);
    let batch = mixed(other.n(), 1, &mut qrng);
    other.execute_with(
        &mut left_behind,
        batch.requests(),
        &mut StdRng::seed_from_u64(6),
    );
    for (i, pair) in pairs.iter_mut().enumerate() {
        let batch = mixed(pair.twin.n(), 2, &mut qrng);
        pair.run(
            &mut left_behind,
            &batch,
            &format!("left-behind set, forest {i}"),
        );
    }
}

#[test]
fn tenants_of_other_sizes_and_curves_take_turns_on_one_set() {
    // Each turn re-points the set's machines: onto another curve
    // family, another side of one family (the prefix of one curve at
    // another length, when only the vertex count differs), or nothing
    // at all when the forest before shared this one's geometry.
    let mut pairs = [
        Pair::new(TreeFamily::UniformRandom, 1 << 8, CurveKind::Hilbert, 11),
        Pair::new(TreeFamily::Yule, 1 << 8, CurveKind::Hilbert, 12),
        Pair::new(
            TreeFamily::PreferentialAttachment,
            700,
            CurveKind::Hilbert,
            13,
        ),
        Pair::new(TreeFamily::RandomBinary, 1 << 10, CurveKind::ZOrder, 14),
        Pair::new(TreeFamily::Caterpillar, 500, CurveKind::Peano, 15),
        Pair::new(TreeFamily::UniformRandom, 300, CurveKind::Moore, 16),
        Pair::new(TreeFamily::Star, 90, CurveKind::RowMajor, 17),
    ];
    let mut shared = SessionScratch::new();
    let mut qrng = StdRng::seed_from_u64(18);
    let turns = [0usize, 1, 0, 2, 3, 2, 4, 5, 6, 1, 4, 3, 0, 5, 2, 6, 6, 1];
    for (step, &i) in turns.iter().enumerate() {
        let pair = &mut pairs[i];
        let batch = mixed(pair.twin.n(), (step % 4) as u32, &mut qrng);
        pair.run(&mut shared, &batch, &format!("turn {step}, forest {i}"));
    }
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
fn a_borrowing_forest_counts_no_run_buffers() {
    let n = 1u32 << 10;
    let tree: Tree = TreeFamily::UniformRandom.generate(n, &mut StdRng::seed_from_u64(21));
    let mut qrng = StdRng::seed_from_u64(22);
    let first = mixed(n, 0, &mut qrng);
    // A set reserved past every forest below never grows, so every
    // byte the forests' executes leave allocated is theirs.
    let mut shared = SessionScratch::new();
    shared.reserve(4 * n as usize);
    let shared_bytes = shared.resident_bytes();

    let before = live();
    let mut forest = SpatialForest::new(&tree);
    forest.execute_with(
        &mut shared,
        first.requests(),
        &mut StdRng::seed_from_u64(23),
    );
    let census = forest.resident_bytes();
    assert_honest(&census, live() - before, "after a mixed execute");
    assert_eq!(
        shared.resident_bytes(),
        shared_bytes,
        "the set did not grow"
    );
    let per_vertex = census.total() / n as usize;
    assert!(
        per_vertex <= SERVED_BUDGET,
        "a served tenant holds {per_vertex} B/vertex ({census:?})"
    );
    // At rest a read-only tenant holds one copy of its tree, in its
    // layout, and the structure its engines derive: no machine, no
    // Euler tour, no materialized tree, and no append headroom (parents
    // 4, placement 8, subtree sizes 4, light-first CSR 8 and weights 8
    // B/vertex, for the n vertices alone, and no per-vertex grid points
    // before an append).
    let n_bytes = n as usize;
    assert_eq!(census.machines, 0, "{census:?}");
    assert_eq!(census.structure, 0, "{census:?}");
    assert_eq!(census.layout, 32 * n_bytes, "{census:?}");
    // The LCA part is what the engine derives, exactly what a
    // standalone engine over the same tree holds beside its own copy of
    // the tree (parents, slots, sizes and CSR): the forest's engine
    // reads those from the layout. Its derived parts (relay schedule,
    // heads, layers, cover, step 4's entry weights) read 25.8 B/vertex
    // here; a step-3 indicator (8 B/vertex), step-4 slot points (8) or
    // any per-vertex array of 4 bytes would break the bound of 26.
    let standalone = LcaEngine::new(forest.layout(), &tree);
    let sizes = tree.subtree_sizes();
    let csr = ChildrenCsr::by_size(&tree, &sizes);
    let copy = (3 * n_bytes) * 4 + csr.resident_bytes();
    assert_eq!(census.lca, standalone.resident_bytes() - copy, "{census:?}");
    assert!(census.lca <= 26 * n_bytes, "{census:?}");

    // The same forest on its own set counts that set on top: only the
    // contraction, ranking and machine parts differ.
    let mut own = SpatialForest::new(&tree);
    own.execute(first.requests(), &mut StdRng::seed_from_u64(23));
    let owned = own.resident_bytes();
    assert!(owned.contraction > census.contraction && owned.ranking > census.ranking);
    assert!(owned.machines > 0);
    let without_the_set = |bytes: ResidentBytes| ResidentBytes {
        contraction: 0,
        ranking: 0,
        machines: 0,
        ..bytes
    };
    assert_eq!(without_the_set(owned), without_the_set(census));

    // An insert epoch (a rebuild, a rebind and every query kind) on a
    // set that other trees' runs left behind: still no run buffers.
    let mut other = SpatialForest::new(&TreeFamily::Star.generate(3 * n, &mut qrng));
    other.execute_with(
        &mut shared,
        mixed(3 * n, 1, &mut qrng).requests(),
        &mut qrng,
    );
    let later = mixed(n, 2, &mut qrng);
    let held = census.total() as i64;
    let before = live();
    forest.execute_with(
        &mut shared,
        later.requests(),
        &mut StdRng::seed_from_u64(24),
    );
    assert_honest(
        &forest.resident_bytes(),
        held + live() - before,
        "after an insert epoch",
    );
    assert_eq!(
        shared.resident_bytes(),
        shared_bytes,
        "the set did not grow"
    );
}
