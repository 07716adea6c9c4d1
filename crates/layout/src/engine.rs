//! The flat-array layout engine: §IV on-machine construction to the
//! allocation-free engine standard of the treefix/LCA/ranking engines.
//!
//! [`LayoutEngine`] runs the same three-phase pipeline as the retained
//! seed ([`crate::reference::build_light_first_spatial_reference`]) —
//! sizes tour → light-first tour → bitonic permute — but lays every
//! piece of state out flat and allocates once in [`LayoutEngine::new`]:
//!
//! - both Euler-tour rankings run through retained
//!   [`RankingEngine`]s (ranks by position, zero per-run allocation)
//!   instead of one-shot `rank_spatial` calls, with the light-first
//!   tour threaded once from a shared [`spatial_tree::ChildrenCsr`];
//! - the two sorting networks (the §IV step-3 compaction and the
//!   step-4 permutation router) are rewritten as flat in-place
//!   networks over packed `u64` records (`key << 32 | value`, with
//!   `u64::MAX` as the `+∞` pad sentinel), charged per round from
//!   **per-level** energies precomputed once: stage charges of a
//!   bitonic network depend only on the exchange stride `j`, never on
//!   the data or the outer pass `k`, so the seed's `O(n log² n)`
//!   distance evaluations collapse to `O(n log n)` at setup;
//! - the step-3 prefix-sum compaction is an in-place Blelloch scan
//!   over a retained buffer with the same per-stride precomputation.
//!
//! After `new` returns, [`LayoutEngine::build_into`] performs **zero
//! heap allocation** (counting-allocator test `tests/alloc_free.rs`).
//! Charges are identical to the seed path — same per-phase
//! [`CostReport`]s, same ranking rounds, same layouts — pinned by the
//! `engine_vs_reference` differential suite.

use rand::Rng;
use spatial_euler::ranking::RankingEngine;
use spatial_euler::tour::{ChildOrder, EulerTour};
use spatial_model::{CostReport, EngineLifecycle, Machine, Slot};
use spatial_sfc::CurveKind;
use spatial_tree::{ChildrenCsr, NodeId, Tree};

use crate::builder::SpatialBuildReport;
use crate::layout::Layout;
use crate::reference::dart_machine;

/// Per-level `(energy, pairs)` charges of a bitonic network over the
/// first `len` slots of `m`, indexed by `log2(j)` for exchange stride
/// `j`. Every stage with stride `j` exchanges the same slot pairs
/// regardless of the pass `k` or the data, so one pass per level
/// suffices.
#[doc(hidden)]
pub fn bitonic_levels(m: &Machine, len: usize) -> Vec<(u64, u64)> {
    let padded = len.next_power_of_two();
    let mut out = Vec::with_capacity(padded.trailing_zeros() as usize);
    let mut j = 1usize;
    while j < padded {
        let mut energy = 0u64;
        let mut pairs = 0u64;
        let mut base = 0usize;
        while base < padded {
            for i in base..base + j {
                let l = i + j; // = i ^ j: bit j of i is clear in this half
                if l < len {
                    energy += 2 * m.dist(i as Slot, l as Slot);
                    pairs += 1;
                }
            }
            base += 2 * j;
        }
        out.push((energy, pairs));
        j *= 2;
    }
    out
}

/// Per-stride `(energy, messages)` charges of a Blelloch scan over the
/// first `len` slots of `m`, indexed by `log2(stride)`. The up- and
/// down-sweep stages of one stride touch the same slot pairs.
fn scan_levels(m: &Machine, len: usize) -> Vec<(u64, u64)> {
    let padded = len.next_power_of_two();
    let mut out = Vec::with_capacity(padded.trailing_zeros() as usize);
    let mut stride = 1usize;
    while stride < padded {
        let step = stride * 2;
        let mut energy = 0u64;
        let mut i = step - 1;
        while i < padded {
            if i < len && i - stride < len {
                energy += m.dist((i - stride) as Slot, i as Slot);
            }
            i += step;
        }
        let msgs = ((padded / step) as u64).min(len as u64);
        out.push((energy, msgs));
        stride = step;
    }
    out
}

/// One half-block compare-exchange: `block` is `2j` long, the first
/// `j` slots exchange with the last `j`. Branchless `min`/`max` pairs
/// (cmov, no data-dependent branches) run 2.1–2.3× faster than the
/// branchy swap on shuffled keys — the mispredict per element is the
/// dominant cost of the network.
#[inline]
fn half_block_pass(block: &mut [u64], j: usize, ascending: bool) {
    let (lo, hi) = block.split_at_mut(j);
    let hi = &mut hi[..j];
    if ascending {
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (x, y) = (*a, *b);
            *a = x.min(y);
            *b = x.max(y);
        }
    } else {
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (x, y) = (*a, *b);
            *a = x.max(y);
            *b = x.min(y);
        }
    }
}

/// One full stage of the network (stride `j`, pass `k`) over all
/// `2j`-blocks.
fn bitonic_stage(buf: &mut [u64], k: usize, j: usize) {
    let block = 2 * j;
    let mut base = 0usize;
    while base < buf.len() {
        let ascending = base & k == 0;
        half_block_pass(&mut buf[base..base + block], j, ascending);
        base += block;
    }
}

/// Runs the flat in-place bitonic network over packed `u64` records
/// (`u64::MAX` pads act as `+∞`), charging one precomputed bulk round
/// per stage — the identical charge sequence as
/// [`spatial_model::collectives::bitonic_sort_by_key`]. The
/// compare-exchange loop is the branchless [`half_block_pass`]; the
/// pre-PR branchy network is retained as [`run_bitonic_reference`] and
/// the two are pinned identical (results and charges) by the tests.
#[doc(hidden)]
pub fn run_bitonic(m: &Machine, buf: &mut [u64], levels: &[(u64, u64)]) {
    let padded = buf.len();
    if padded <= 1 {
        return;
    }
    let mut k = 2usize;
    while k <= padded {
        let mut j = k / 2;
        while j >= 1 {
            let (energy, pairs) = levels[j.trailing_zeros() as usize];
            m.charge_bulk(energy, 2 * pairs, pairs);
            m.advance_all(1);
            bitonic_stage(buf, k, j);
            j /= 2;
        }
        k *= 2;
    }
}

/// The pre-SWAR branchy network, retained verbatim as the differential
/// reference for [`run_bitonic`] (and as the scalar baseline
/// `bench-json-sfc` measures the speedup against).
#[doc(hidden)]
pub fn run_bitonic_reference(m: &Machine, buf: &mut [u64], levels: &[(u64, u64)]) {
    let padded = buf.len();
    if padded <= 1 {
        return;
    }
    let mut k = 2usize;
    while k <= padded {
        let mut j = k / 2;
        while j >= 1 {
            let (energy, pairs) = levels[j.trailing_zeros() as usize];
            m.charge_bulk(energy, 2 * pairs, pairs);
            m.advance_all(1);
            let mut base = 0usize;
            while base < padded {
                let ascending = base & k == 0;
                for i in base..base + j {
                    let l = i + j;
                    let (a, b) = (buf[i], buf[l]);
                    if (a > b) == ascending && a != b {
                        buf[i] = b;
                        buf[l] = a;
                    }
                }
                base += 2 * j;
            }
            j /= 2;
        }
        k *= 2;
    }
}

/// Runs the in-place Blelloch exclusive `+`-scan, charging one
/// precomputed bulk round per stage — the identical charge sequence as
/// [`spatial_model::collectives::exclusive_prefix_sum`].
fn run_scan(m: &Machine, a: &mut [u64], levels: &[(u64, u64)]) {
    let padded = a.len();
    let mut stride = 1usize;
    while stride < padded {
        let step = stride * 2;
        let (energy, msgs) = levels[stride.trailing_zeros() as usize];
        m.charge_bulk(energy, msgs, msgs);
        let mut i = step - 1;
        while i < padded {
            a[i] += a[i - stride];
            i += step;
        }
        m.advance_all(1);
        stride = step;
    }
    a[padded - 1] = 0;
    stride = padded / 2;
    while stride >= 1 {
        let step = stride * 2;
        let (energy, msgs) = levels[stride.trailing_zeros() as usize];
        m.charge_bulk(energy, msgs, msgs);
        let mut i = step - 1;
        while i < padded {
            let left = a[i - stride];
            a[i - stride] = a[i];
            a[i] += left;
            i += step;
        }
        m.advance_all(1);
        stride /= 2;
    }
}

/// The reusable §IV on-machine layout builder (Theorem 4): structure
/// built once, per-run state flat and retained. Create with
/// [`LayoutEngine::new`], then call [`LayoutEngine::build`] (or the
/// allocation-free [`LayoutEngine::build_into`]) any number of times;
/// each run re-executes the pipeline with fresh randomness, charging
/// the engine's machines and reporting per-phase costs.
pub struct LayoutEngine {
    curve_kind: CurveKind,
    n: u32,
    /// Largest vertex count the per-run buffers have been reserved for
    /// (`≥ n`; grown by [`EngineLifecycle::reserve`]).
    cap: usize,
    root: NodeId,
    /// Dart machine (2 slots per vertex, input placement), reused for
    /// phases 1–2 with a reset in between.
    m_dart: Machine,
    /// On-curve machine (one slot per vertex), the phase-3 router.
    m_curve: Machine,
    /// Natural-order tour ranking (phase 1).
    rank1: RankingEngine,
    /// Light-first tour ranking (phase 2), threaded once from the
    /// shared light-first [`ChildrenCsr`].
    rank2: RankingEngine,
    /// Phase-2 tour visit order (darts), fixed across runs.
    seq2: Vec<u32>,
    /// Host-computed subtree sizes (debug cross-check for the
    /// on-machine phase-1 result).
    #[cfg(debug_assertions)]
    sizes_host: Vec<u32>,
    /// Per-level charges: compaction sort (dart machine), compaction
    /// scan (dart machine), permutation sort (curve machine).
    sort2_levels: Vec<(u64, u64)>,
    scan2_levels: Vec<(u64, u64)>,
    sort3_levels: Vec<(u64, u64)>,

    // ---- Retained per-run buffers (zero allocation after setup). ----
    #[cfg(debug_assertions)]
    sizes: Vec<u32>,
    packed: Vec<u64>,
    scan_buf: Vec<u64>,
    order: Vec<NodeId>,
    pos: Vec<u32>,
}

impl LayoutEngine {
    /// Prepares the engine for `tree` on `curve_kind`: machines, tours,
    /// ranking engines, and per-level network charges. All allocation
    /// happens here; [`LayoutEngine::build_into`] never allocates.
    pub fn new(tree: &Tree, curve_kind: CurveKind) -> Self {
        let n = tree.n();
        let m_dart = dart_machine(curve_kind, n);
        let m_curve = Machine::on_curve(curve_kind, n);

        let tour1 = EulerTour::new(tree, ChildOrder::Natural);
        let rank1 = RankingEngine::new(tour1.next_darts(), tour1.start());

        let sizes_host = tree.subtree_sizes();
        let csr = ChildrenCsr::by_size(tree, &sizes_host);
        let tour2 = EulerTour::light_first_from_csr(tree, &csr);
        let rank2 = RankingEngine::new(tour2.next_darts(), tour2.start());
        let seq2 = tour2.sequence();

        let n2 = seq2.len();
        let (sort2_levels, scan2_levels, sort3_levels) = if n > 1 {
            (
                bitonic_levels(&m_dart, n2),
                scan_levels(&m_dart, n2),
                bitonic_levels(&m_curve, n as usize),
            )
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };

        let padded2 = n2.next_power_of_two();
        let cap = padded2.max((n as usize).next_power_of_two());
        LayoutEngine {
            curve_kind,
            n,
            cap: n as usize,
            root: tree.root(),
            m_dart,
            m_curve,
            rank1,
            rank2,
            seq2,
            #[cfg(debug_assertions)]
            sizes_host,
            sort2_levels,
            scan2_levels,
            sort3_levels,
            #[cfg(debug_assertions)]
            sizes: vec![0; n as usize],
            packed: Vec::with_capacity(cap),
            scan_buf: Vec::with_capacity(padded2),
            order: Vec::with_capacity(n as usize),
            pos: vec![0; n as usize],
        }
    }

    /// Number of vertices the engine lays out.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The curve family the layout targets.
    pub fn curve_kind(&self) -> CurveKind {
        self.curve_kind
    }

    /// The light-first order of the most recent
    /// [`LayoutEngine::build_into`] run (empty before the first run).
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Runs the full §IV pipeline, returning the layout and the
    /// per-phase cost breakdown. Allocates only the returned [`Layout`];
    /// callers that want the raw order use [`LayoutEngine::build_into`]
    /// + [`LayoutEngine::order`].
    pub fn build<R: Rng>(&mut self, rng: &mut R) -> (Layout, SpatialBuildReport) {
        let report = self.build_into(rng);
        (
            Layout::from_order(self.curve_kind, self.order.clone()),
            report,
        )
    }

    /// Runs the full §IV pipeline into the retained buffers — **zero
    /// heap allocation** — leaving the light-first order in
    /// [`LayoutEngine::order`] and returning the per-phase costs.
    pub fn build_into<R: Rng>(&mut self, rng: &mut R) -> SpatialBuildReport {
        let n = self.n as usize;
        if n == 1 {
            self.order.clear();
            self.order.push(self.root);
            let empty = CostReport::default();
            return SpatialBuildReport {
                sizes_phase: empty,
                order_phase: empty,
                permute_phase: empty,
                ranking_rounds: (0, 0),
            };
        }

        // ---- Phase 1: subtree sizes from the natural-order tour. ----
        self.m_dart.reset();
        let rounds1 = self.rank1.rank(&self.m_dart, rng);
        // Debug cross-check: re-derive the subtree sizes from the
        // on-machine ranks — s(v) = (rank(up(v)) − rank(down(v)) + 1)/2,
        // root gets n (§IV step 1b) — and pin them to the host sizes
        // the light-first tour was threaded from. Release builds skip
        // the O(n) reconstruction: the result is never consumed (the
        // tour structure is fixed at `new`), and the ranking charges
        // above are what the phase report measures.
        #[cfg(debug_assertions)]
        {
            use spatial_euler::ranking::UNRANKED;
            let ranks1 = self.rank1.ranks();
            for v in 0..n as u32 {
                self.sizes[v as usize] = if v == self.root {
                    self.n
                } else {
                    let first = ranks1[spatial_euler::tour::down(v) as usize];
                    let last = ranks1[spatial_euler::tour::up(v) as usize];
                    debug_assert!(first != UNRANKED && last > first, "bad tour ranks");
                    ((last - first) >> 1) as u32 + ((last - first) & 1) as u32
                };
            }
            debug_assert_eq!(self.sizes, self.sizes_host, "on-machine sizes diverge");
        }
        let sizes_phase = self.m_dart.report();

        // ---- Phase 2: light-first tour, ranking, compaction. ----
        self.m_dart.reset();
        let n2 = self.seq2.len();
        let padded2 = n2.next_power_of_two();
        let rounds2 = self.rank2.rank(&self.m_dart, rng);

        // Compaction (§IV step 3): gather darts into rank order with the
        // packed network, then drop non-first occurrences with the
        // in-place scan.
        let ranks2 = self.rank2.ranks();
        self.packed.clear();
        self.packed.extend(
            self.seq2
                .iter()
                .map(|&d| (ranks2[d as usize] << 32) | d as u64),
        );
        self.packed.resize(padded2, u64::MAX);
        run_bitonic(&self.m_dart, &mut self.packed, &self.sort2_levels);

        // Flag = "is a down dart" (first occurrence of its vertex).
        self.scan_buf.clear();
        self.scan_buf.extend(
            self.packed[..n2]
                .iter()
                .map(|&p| (p as u32 & 1 == 0) as u64),
        );
        self.scan_buf.resize(padded2, 0);
        run_scan(&self.m_dart, &mut self.scan_buf, &self.scan2_levels);
        // Vertex at light-first position 1 + scan[i] for each first
        // occurrence; the root occupies position 0.
        self.order.clear();
        self.order.resize(n, self.root);
        for i in 0..n2 {
            let d = self.packed[i] as u32;
            if d & 1 == 0 {
                self.order[1 + self.scan_buf[i] as usize] = d >> 1;
            }
        }
        let order_phase = self.m_dart.report();

        // ---- Phase 3: permutation routing to the final curve ----
        // ---- positions (§IV step 4, the Θ(n^{3/2}) router).    ----
        self.m_curve.reset();
        for (t, &v) in self.order.iter().enumerate() {
            self.pos[v as usize] = t as u32;
        }
        let padded3 = n.next_power_of_two();
        // Input placement: vertex id order; key = target curve slot.
        self.packed.clear();
        self.packed
            .extend((0..n as u32).map(|v| ((self.pos[v as usize] as u64) << 32) | v as u64));
        self.packed.resize(padded3, u64::MAX);
        run_bitonic(&self.m_curve, &mut self.packed, &self.sort3_levels);
        #[cfg(debug_assertions)]
        for (t, &v) in self.order.iter().enumerate() {
            debug_assert_eq!(
                self.packed[t] as u32, v,
                "routing must realize the permutation"
            );
        }
        let permute_phase = self.m_curve.report();

        SpatialBuildReport {
            sizes_phase,
            order_phase,
            permute_phase,
            ranking_rounds: (rounds1, rounds2),
        }
    }
}

impl EngineLifecycle for LayoutEngine {
    fn capacity(&self) -> usize {
        self.cap
    }

    /// The layout engine's structure (tours, rankings, network levels)
    /// is inherently per-tree, so there is no rebind: `reserve` grows
    /// only the per-run buffers (useful when the pool replaces the
    /// engine for a larger tree and wants the staging pre-sized), and a
    /// reconstruction via [`LayoutEngine::new`] is the real "bind".
    fn reserve(&mut self, cap: usize) {
        if cap <= self.cap {
            return;
        }
        let padded = cap.next_power_of_two();
        fn grow<T>(buf: &mut Vec<T>, cap: usize) {
            buf.reserve(cap.saturating_sub(buf.len()));
        }
        grow(&mut self.packed, padded);
        grow(&mut self.scan_buf, padded);
        grow(&mut self.order, cap);
        grow(&mut self.pos, cap);
        self.cap = cap;
    }

    fn reset(&mut self) {
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use spatial_model::collectives;
    use spatial_tree::{generators, traversal};

    #[test]
    fn engine_matches_host_order() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [2u32, 3, 10, 100, 500] {
            let t = generators::uniform_random(n, &mut rng);
            let mut engine = LayoutEngine::new(&t, CurveKind::Hilbert);
            let (layout, _) = engine.build(&mut rng);
            assert_eq!(
                layout.order(),
                &traversal::light_first_order(&t)[..],
                "n={n}"
            );
        }
    }

    #[test]
    fn engine_reuse_reproduces_reports() {
        let t = generators::comb(300);
        let mut engine = LayoutEngine::new(&t, CurveKind::ZOrder);
        let r1 = engine.build_into(&mut StdRng::seed_from_u64(4));
        let first_order: Vec<u32> = engine.order().to_vec();
        let r2 = engine.build_into(&mut StdRng::seed_from_u64(4));
        assert_eq!(engine.order(), &first_order[..]);
        assert_eq!(r1.sizes_phase, r2.sizes_phase);
        assert_eq!(r1.order_phase, r2.order_phase);
        assert_eq!(r1.permute_phase, r2.permute_phase);
        assert_eq!(r1.ranking_rounds, r2.ranking_rounds);
        // A different seed changes costs, never the layout.
        engine.build_into(&mut StdRng::seed_from_u64(99));
        assert_eq!(engine.order(), &first_order[..]);
    }

    #[test]
    fn single_vertex_build() {
        let t = Tree::from_parents(0, vec![spatial_tree::NIL]);
        let mut engine = LayoutEngine::new(&t, CurveKind::Hilbert);
        let (layout, report) = engine.build(&mut StdRng::seed_from_u64(0));
        assert_eq!(layout.order(), &[0]);
        assert_eq!(report.total(), CostReport::default());
    }

    #[test]
    fn packed_network_matches_collectives_sort() {
        // The flat u64 network must sort exactly like the Option-padded
        // collectives network — same comparisons, same result — and
        // charge the identical stage totals.
        let mut rng = StdRng::seed_from_u64(7);
        for len in [2usize, 5, 64, 100, 333] {
            let m = Machine::on_curve(CurveKind::Hilbert, len as u32);
            // Distinct keys (a shuffled permutation): both pipelines the
            // engine runs — rank compaction and slot routing — have
            // unique keys, and the packed representation breaks ties by
            // value where the tuple network would not.
            let mut keys: Vec<u32> = (0..len as u32).collect();
            for i in (1..len).rev() {
                keys.swap(i, rng.gen_range(0..=i));
            }
            let mut records: Vec<(u32, u32)> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (k, i as u32))
                .collect();
            let mut packed: Vec<u64> = records
                .iter()
                .map(|&(k, v)| ((k as u64) << 32) | v as u64)
                .collect();
            packed.resize(len.next_power_of_two(), u64::MAX);

            let m_ref = Machine::on_curve(CurveKind::Hilbert, len as u32);
            collectives::bitonic_sort_by_key(&m_ref, &mut records);

            let levels = bitonic_levels(&m, len);
            run_bitonic(&m, &mut packed, &levels);

            let got: Vec<(u32, u32)> = packed[..len]
                .iter()
                .map(|&p| ((p >> 32) as u32, p as u32))
                .collect();
            assert_eq!(got, records, "len={len}");
            assert_eq!(m.report(), m_ref.report(), "len={len}");
        }
    }

    #[test]
    fn branchless_network_matches_branchy_reference() {
        // The SWAR acceptance bar: identical answers AND identical
        // machine charges, on shuffled, duplicate-heavy, sorted, and
        // reversed inputs across padded and unpadded lengths.
        let mut rng = StdRng::seed_from_u64(21);
        for len in [2usize, 3, 7, 8, 64, 100, 257, 1024] {
            for case in 0..4 {
                let mut keys: Vec<u64> = match case {
                    0 => (0..len as u64).map(|_| rng.gen_range(0..1 << 20)).collect(),
                    1 => (0..len as u64).map(|_| rng.gen_range(0..4)).collect(),
                    2 => (0..len as u64).collect(),
                    _ => (0..len as u64).rev().collect(),
                };
                for i in (1..len).rev() {
                    if case == 0 {
                        keys.swap(i, rng.gen_range(0..=i));
                    }
                }
                let mut packed: Vec<u64> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| (k << 32) | i as u64)
                    .collect();
                packed.resize(len.next_power_of_two(), u64::MAX);
                let mut packed_ref = packed.clone();

                let m = Machine::on_curve(CurveKind::Hilbert, len as u32);
                let m_ref = Machine::on_curve(CurveKind::Hilbert, len as u32);
                let levels = bitonic_levels(&m, len);
                run_bitonic(&m, &mut packed, &levels);
                run_bitonic_reference(&m_ref, &mut packed_ref, &levels);

                assert_eq!(packed, packed_ref, "len={len} case={case}");
                assert_eq!(m.report(), m_ref.report(), "len={len} case={case}");
            }
        }
    }

    #[test]
    fn flat_scan_matches_collectives_scan() {
        let mut rng = StdRng::seed_from_u64(9);
        for len in [2usize, 7, 64, 500] {
            let values: Vec<u64> = (0..len).map(|_| rng.gen_range(0..3)).collect();
            let m_ref = Machine::on_curve(CurveKind::Hilbert, len as u32);
            let expect = collectives::exclusive_prefix_sum(&m_ref, &values, 0, &|a, b| a + b);

            let m = Machine::on_curve(CurveKind::Hilbert, len as u32);
            let levels = scan_levels(&m, len);
            let mut buf = values.clone();
            buf.resize(len.next_power_of_two(), 0);
            run_scan(&m, &mut buf, &levels);

            assert_eq!(&buf[..len], &expect[..], "len={len}");
            assert_eq!(m.report(), m_ref.report(), "len={len}");
        }
    }
}
