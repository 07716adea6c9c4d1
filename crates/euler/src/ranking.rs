//! List ranking: sequential and spatial random-mate contraction
//! (Theorem 5).
//!
//! List ranking determines the index of every element in a linked list.
//! The spatial algorithm follows §IV of the paper: repeatedly select an
//! independent set of elements by *random-mate* (heads whose predecessor
//! flipped tails), splice them out while accumulating rank weights, solve
//! the base case sequentially once `O(log n)` elements remain, and then
//! undo the splices level by level. Each contraction round costs
//! `O(n′·√n)` energy (pointers reach across the grid) and `O(1)` depth;
//! with high probability a constant fraction of elements is removed per
//! round, giving `O(n^{3/2})` energy and `O(log n)` depth overall.
//!
//! # Memory discipline
//!
//! The contraction is the inner loop of on-machine layout creation
//! (§IV runs it twice per layout), so [`RankingEngine`] lays every
//! piece of state out flat and allocates once in
//! [`RankingEngine::new`]:
//!
//! - the splice log is three flat arrays (`mid`, `left`, carried
//!   weight) with per-round end offsets — replacing the seed's
//!   per-round `Vec<Splice>` history of nested `Vec`s;
//! - per-round removals mark a flag array swept by `retain`, replacing
//!   the seed's per-round `HashSet`;
//! - pointer-distance charging is batched: one pass over the live
//!   successor pairs sums their distances and counts them, then
//!   [`Machine::charge_pointer_round`] charges the synchronous round.
//!
//! After `new` returns, [`RankingEngine::rank`] performs **zero heap
//! allocation** (asserted by the counting-allocator test
//! `tests/alloc_free.rs`, the same harness as the treefix engine's).
//! The seed implementation is retained as
//! [`crate::reference::rank_spatial_reference`]; the `ranking_props`
//! suite asserts both produce identical ranks, round counts, and
//! machine charges.

use rand::Rng;
use spatial_model::{EngineLifecycle, Machine, Slot};

/// Sentinel for "end of list" (same convention as the tour darts).
pub const END: u32 = u32::MAX;

/// Rank value for elements that are not on the list.
pub const UNRANKED: u64 = u64::MAX;

/// Sequential list ranking: index of each element from `start`.
/// Elements not on the list get [`UNRANKED`].
pub fn rank_sequential(next: &[u32], start: u32) -> Vec<u64> {
    let mut ranks = vec![UNRANKED; next.len()];
    if start == END {
        return ranks;
    }
    let mut at = start;
    let mut r = 0u64;
    while at != END {
        debug_assert_eq!(ranks[at as usize], UNRANKED, "cycle in list");
        ranks[at as usize] = r;
        r += 1;
        at = next[at as usize];
    }
    ranks
}

/// Result of the spatial list ranking.
#[derive(Debug, Clone)]
pub struct SpatialRanking {
    /// Rank (index from the start) of each element; [`UNRANKED`] off-list.
    pub ranks: Vec<u64>,
    /// Number of random-mate contraction rounds executed (Las Vegas:
    /// `O(log n)` with high probability).
    pub rounds: u32,
}

/// The reusable spatial list-ranking engine (§IV, Theorem 5): flat
/// splice log, per-round end offsets, zero heap allocation after
/// setup. Create with [`RankingEngine::new`], then call
/// [`RankingEngine::rank`] any number of times (each run re-ranks the
/// same list with fresh randomness, charging the machine it is given).
pub struct RankingEngine {
    /// Original successor array (the list never changes across runs).
    next0: Vec<u32>,
    start: u32,
    /// Elements on the list, in id order (the initial alive set).
    alive0: Vec<u32>,
    /// Contract until at most this many elements remain.
    threshold: usize,
    /// Largest element count the retained buffers have ever served;
    /// bindings at or below this never allocate.
    cap: usize,

    // ---- Per-run mutable state (reset at the top of `rank`). ----
    nxt: Vec<u32>,
    prev: Vec<u32>,
    weight: Vec<u64>,
    coin: Vec<bool>,
    dead: Vec<bool>,
    alive: Vec<u32>,
    ranks: Vec<u64>,

    // ---- Flat splice log (replaces the seed's Vec<Vec<Splice>>). ----
    /// Spliced-out elements, all rounds back to back.
    splice_mid: Vec<u32>,
    /// Left neighbour each splice merged into.
    splice_left: Vec<u32>,
    /// Rank weight the spliced element carried.
    splice_weight: Vec<u64>,
    /// End offset into the splice arrays after each round.
    round_ends: Vec<u32>,
    /// Random-mate selection scratch.
    selected: Vec<u32>,
    rounds: u32,
}

impl RankingEngine {
    /// Prepares the engine for the list `next` starting at `start`.
    /// All arrays are allocated here; [`RankingEngine::rank`] never
    /// allocates.
    pub fn new(next: &[u32], start: u32) -> Self {
        let mut engine = Self::with_capacity(next.len());
        engine.bind(next, start);
        engine
    }

    /// An unbound engine whose buffers are pre-sized for lists of up to
    /// `cap` elements; [`RankingEngine::bind`] calls within the
    /// capacity never allocate.
    pub fn with_capacity(cap: usize) -> Self {
        RankingEngine {
            next0: Vec::with_capacity(cap),
            start: END,
            alive0: Vec::with_capacity(cap),
            threshold: 4,
            cap,
            nxt: Vec::with_capacity(cap),
            prev: Vec::with_capacity(cap),
            weight: Vec::with_capacity(cap),
            coin: Vec::with_capacity(cap),
            dead: Vec::with_capacity(cap),
            alive: Vec::with_capacity(cap),
            ranks: Vec::with_capacity(cap),
            splice_mid: Vec::with_capacity(cap),
            splice_left: Vec::with_capacity(cap),
            splice_weight: Vec::with_capacity(cap),
            // Every round appends one end offset, including rounds that
            // splice nothing; the capacity is a generous bound on the
            // O(log n) w.h.p. round count.
            round_ends: Vec::with_capacity(cap + 64),
            selected: Vec::with_capacity(cap),
            rounds: 0,
        }
    }

    /// Loads a new list into the retained buffers, restarting the run
    /// cycle — **zero heap allocation** whenever `next.len()` is within
    /// the engine's capacity (grow first with
    /// [`EngineLifecycle::reserve`]).
    pub fn bind(&mut self, next: &[u32], start: u32) {
        let n = next.len();
        self.cap = self.cap.max(n);
        self.next0.clear();
        self.next0.extend_from_slice(next);
        self.start = start;
        // Membership walk through the retained coin buffer (reset to
        // all-false first; `coin` is otherwise per-round scratch).
        self.coin.clear();
        self.coin.resize(n, false);
        if start != END {
            let mut at = start;
            while at != END {
                debug_assert!(!self.coin[at as usize], "cycle in list");
                self.coin[at as usize] = true;
                at = next[at as usize];
            }
        }
        self.alive0.clear();
        let coin = &self.coin;
        self.alive0
            .extend((0..n as u32).filter(|&v| coin[v as usize]));
        let list_len = self.alive0.len();
        self.threshold = (2 * (usize::BITS - list_len.leading_zeros()) as usize).max(4);
        // Per-run arrays track the element count (`resize` both grows
        // and shrinks); `reset_run` (called at the top of every
        // `rank`) fills them.
        self.nxt.resize(n, END);
        self.prev.resize(n, END);
        self.weight.resize(n, 1);
        self.dead.resize(n, false);
        self.ranks.resize(n, UNRANKED);
        self.rounds = 0;
    }

    /// Number of elements on the list.
    pub fn list_len(&self) -> usize {
        self.alive0.len()
    }

    /// The ranks of the most recent [`RankingEngine::rank`] run
    /// ([`UNRANKED`] off-list, or everywhere before the first run).
    pub fn ranks(&self) -> &[u64] {
        &self.ranks
    }

    /// Resets the per-run state to the pristine list. (Named apart
    /// from [`EngineLifecycle::reset`]: a private inherent `reset`
    /// would shadow the trait method and make `engine.reset()` a
    /// private-method error for downstream callers.)
    fn reset_run(&mut self) {
        self.nxt.copy_from_slice(&self.next0);
        self.prev.fill(END);
        for &v in &self.alive0 {
            let w = self.nxt[v as usize];
            if w != END {
                self.prev[w as usize] = v;
            }
        }
        self.weight.fill(1);
        self.dead.fill(false);
        self.alive.clear();
        self.alive.extend_from_slice(&self.alive0);
        self.ranks.fill(UNRANKED);
        self.splice_mid.clear();
        self.splice_left.clear();
        self.splice_weight.clear();
        self.round_ends.clear();
        self.rounds = 0;
    }

    /// Ranks the list by random-mate contraction, charging every
    /// pointer round on `m`. Returns the number of contraction rounds;
    /// read the ranks via [`RankingEngine::ranks`]. The seed affects
    /// only costs, never ranks. Performs no heap allocation.
    pub fn rank<R: Rng>(&mut self, m: &Machine, rng: &mut R) -> u32 {
        let n = self.next0.len();
        assert!(n as u32 <= m.n_slots(), "need one slot per list element");
        self.reset_run();
        if self.start == END {
            return 0;
        }
        let start = self.start;

        // ---- Contract until O(log n) elements remain. ----
        while self.alive.len() > self.threshold {
            // Every alive element flips a coin and tells its successor —
            // one synchronous communication round over the current list,
            // charged through the batched pointer-distance hooks.
            for &v in &self.alive {
                self.coin[v as usize] = rng.gen();
            }
            let (mut coin_energy, mut coin_msgs) = (0u64, 0u64);
            for &v in &self.alive {
                let w = self.nxt[v as usize];
                if w != END {
                    coin_energy += m.dist(v as Slot, w as Slot);
                    coin_msgs += 1;
                }
            }
            m.charge_pointer_round(coin_energy, coin_msgs);

            // Select: heads whose predecessor flipped tails (never the
            // start element — it anchors the ranking). Selection is
            // evaluated against the pre-splice pointers, as a
            // branchless compact pass: unconditional write, cursor
            // advanced by the predicate — the coin pattern is random,
            // so a data-dependent branch here mispredicts half the
            // time. The END-guarded probe reads index 0 and is masked
            // out by the `!= END` factor (cmov, not a branch).
            self.selected.clear();
            self.selected.resize(self.alive.len(), 0);
            let mut k = 0usize;
            for i in 0..self.alive.len() {
                let v = self.alive[i];
                let pv = self.prev[v as usize];
                let safe_pv = if pv == END { 0 } else { pv as usize };
                let ok = (v != start) & self.coin[v as usize] & (pv != END) & !self.coin[safe_pv];
                self.selected[k] = v;
                k += ok as usize;
            }
            self.selected.truncate(k);

            // Splice each selected element out: its left neighbour
            // inherits its weight and pointer (message mid → left), and
            // its right neighbour learns its new predecessor (message
            // mid → right). The splice is logged flat.
            let mut splice_energy = 0u64;
            let mut splice_msgs = 0u64;
            for &mid in &self.selected {
                let left = self.prev[mid as usize];
                let right = self.nxt[mid as usize];
                debug_assert_ne!(left, END);
                splice_energy += m.dist(mid as Slot, left as Slot);
                splice_msgs += 1;
                if right != END {
                    splice_energy += m.dist(mid as Slot, right as Slot);
                    splice_msgs += 1;
                    self.prev[right as usize] = left;
                }
                self.nxt[left as usize] = right;
                self.weight[left as usize] += self.weight[mid as usize];
                self.splice_mid.push(mid);
                self.splice_left.push(left);
                self.splice_weight.push(self.weight[mid as usize]);
                self.dead[mid as usize] = true;
            }
            m.charge_pointer_round(splice_energy, splice_msgs);
            self.round_ends.push(self.splice_mid.len() as u32);
            self.rounds += 1;

            // Branchless sweep of the dead flags (same stable order as
            // the `retain` it replaces).
            let Self { alive, dead, .. } = &mut *self;
            let mut k = 0usize;
            for i in 0..alive.len() {
                let v = alive[i];
                alive[k] = v;
                k += !dead[v as usize] as usize;
            }
            alive.truncate(k);
        }

        // ---- Base case: walk the remaining list sequentially, ----
        // ---- charging each hop.                                ----
        let mut at = start;
        let mut acc = 0u64;
        while at != END {
            self.ranks[at as usize] = acc;
            acc += self.weight[at as usize];
            let nx = self.nxt[at as usize];
            if nx != END {
                m.send(at as Slot, nx as Slot);
            }
            at = nx;
        }

        // ---- Uncontraction: undo rounds in reverse; all splices of ----
        // ---- one round resolve in parallel (independent set).      ----
        for round in (0..self.rounds as usize).rev() {
            let lo = if round == 0 {
                0
            } else {
                self.round_ends[round - 1] as usize
            };
            let hi = self.round_ends[round] as usize;
            let mut energy = 0u64;
            let msgs = (hi - lo) as u64;
            for i in lo..hi {
                let mid = self.splice_mid[i];
                let left = self.splice_left[i];
                energy += m.dist(left as Slot, mid as Slot);
                self.weight[left as usize] -= self.splice_weight[i];
                self.ranks[mid as usize] = self.ranks[left as usize] + self.weight[left as usize];
            }
            m.charge_pointer_round(energy, msgs);
        }

        self.rounds
    }
}

impl EngineLifecycle for RankingEngine {
    fn capacity(&self) -> usize {
        self.cap
    }

    fn reserve(&mut self, cap: usize) {
        if cap <= self.cap {
            return;
        }
        fn grow<T>(buf: &mut Vec<T>, cap: usize) {
            buf.reserve(cap.saturating_sub(buf.len()));
        }
        grow(&mut self.next0, cap);
        grow(&mut self.alive0, cap);
        grow(&mut self.nxt, cap);
        grow(&mut self.prev, cap);
        grow(&mut self.weight, cap);
        grow(&mut self.coin, cap);
        grow(&mut self.dead, cap);
        grow(&mut self.alive, cap);
        grow(&mut self.ranks, cap);
        grow(&mut self.splice_mid, cap);
        grow(&mut self.splice_left, cap);
        grow(&mut self.splice_weight, cap);
        grow(&mut self.round_ends, cap + 64);
        grow(&mut self.selected, cap);
        self.cap = cap;
    }

    fn reset(&mut self) {
        self.next0.clear();
        self.alive0.clear();
        self.start = END;
        self.rounds = 0;
    }
}

/// Spatial list ranking by random-mate contraction (§IV, Theorem 5).
///
/// Element `i` of the list lives at machine slot `i`; the machine must
/// have at least `next.len()` slots. Every pointer access is charged as
/// a message between the slots involved — initially `Θ(√n)` on average,
/// which is where the `O(n^{3/2})` energy comes from.
///
/// One-shot wrapper over [`RankingEngine`]; callers that rank the same
/// list repeatedly (Las Vegas retries, cost experiments) should hold an
/// engine and call [`RankingEngine::rank`] directly.
pub fn rank_spatial<R: Rng>(m: &Machine, next: &[u32], start: u32, rng: &mut R) -> SpatialRanking {
    let mut engine = RankingEngine::new(next, start);
    let rounds = engine.rank(m, rng);
    SpatialRanking {
        ranks: engine.ranks().to_vec(),
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use spatial_model::CurveKind;

    /// A list 0 → 1 → … → n−1 stored at shuffled slots is uninteresting;
    /// instead build a random permutation list over n elements.
    fn random_list(n: usize, rng: &mut StdRng) -> (Vec<u32>, u32) {
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut next = vec![END; n];
        for w in order.windows(2) {
            next[w[0] as usize] = w[1];
        }
        (next, order[0])
    }

    #[test]
    fn sequential_ranks_identity_list() {
        let next = vec![1, 2, 3, END];
        let r = rank_sequential(&next, 0);
        assert_eq!(r, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sequential_skips_off_list() {
        let next = vec![2, END, END, END];
        let r = rank_sequential(&next, 0);
        assert_eq!(r[0], 0);
        assert_eq!(r[2], 1);
        assert_eq!(r[1], UNRANKED);
        assert_eq!(r[3], UNRANKED);
    }

    #[test]
    fn empty_list() {
        assert!(rank_sequential(&[], END).is_empty());
        let m = Machine::on_curve(CurveKind::Hilbert, 4);
        let r = rank_spatial(&m, &[END, END], END, &mut StdRng::seed_from_u64(0));
        assert_eq!(r.ranks, vec![UNRANKED, UNRANKED]);
    }

    #[test]
    fn rebinding_across_lists_matches_fresh_engines() {
        // One pooled engine rebound across lists of sizes n, 2n+3, 5
        // ranks and charges exactly like a fresh engine per list.
        let n0 = 100usize;
        let mut engine = RankingEngine::with_capacity(n0);
        let mut rng = StdRng::seed_from_u64(77);
        for n in [n0, 2 * n0 + 3, 5, n0] {
            let (next, start) = random_list(n, &mut rng);
            engine.reserve(n);
            engine.bind(&next, start);
            let m_pooled = Machine::on_curve(CurveKind::Hilbert, n as u32);
            let rounds = engine.rank(&m_pooled, &mut StdRng::seed_from_u64(5));
            let mut fresh = RankingEngine::new(&next, start);
            let m_fresh = Machine::on_curve(CurveKind::Hilbert, n as u32);
            let fresh_rounds = fresh.rank(&m_fresh, &mut StdRng::seed_from_u64(5));
            assert_eq!(engine.ranks(), fresh.ranks(), "n={n}");
            assert_eq!(rounds, fresh_rounds, "n={n}");
            assert_eq!(m_pooled.report(), m_fresh.report(), "n={n}");
            assert_eq!(engine.ranks(), &rank_sequential(&next, start)[..], "n={n}");
        }
    }

    #[test]
    fn spatial_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(9);
        for n in [1usize, 2, 5, 33, 256, 2000] {
            let (next, start) = random_list(n, &mut rng);
            let m = Machine::on_curve(CurveKind::Hilbert, n as u32);
            let got = rank_spatial(&m, &next, start, &mut rng);
            assert_eq!(got.ranks, rank_sequential(&next, start), "n={n}");
        }
    }

    #[test]
    fn spatial_is_las_vegas_always_correct() {
        // Different seeds change costs, never results.
        let (next, start) = random_list(500, &mut StdRng::seed_from_u64(1));
        let expect = rank_sequential(&next, start);
        for seed in 0..10 {
            let m = Machine::on_curve(CurveKind::Hilbert, 500);
            let got = rank_spatial(&m, &next, start, &mut StdRng::seed_from_u64(seed));
            assert_eq!(got.ranks, expect, "seed={seed}");
        }
    }

    #[test]
    fn engine_reuse_across_runs() {
        // One engine, many runs with different seeds: always correct,
        // and a repeated seed reproduces ranks, rounds, and charges.
        let (next, start) = random_list(700, &mut StdRng::seed_from_u64(2));
        let expect = rank_sequential(&next, start);
        let mut engine = RankingEngine::new(&next, start);
        let mut first: Option<(Vec<u64>, u32, spatial_model::CostReport)> = None;
        for run in 0..6u64 {
            let m = Machine::on_curve(CurveKind::Hilbert, 700);
            let rounds = engine.rank(&m, &mut StdRng::seed_from_u64(run % 3));
            assert_eq!(engine.ranks(), &expect[..], "run {run}");
            if run % 3 == 0 {
                match &first {
                    None => first = Some((engine.ranks().to_vec(), rounds, m.report())),
                    Some((r, c, rep)) => {
                        assert_eq!(engine.ranks(), &r[..], "repeat run ranks");
                        assert_eq!(rounds, *c, "repeat run rounds");
                        assert_eq!(m.report(), *rep, "repeat run charges");
                    }
                }
            }
        }
    }

    #[test]
    fn spatial_rounds_logarithmic() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in [1024usize, 8192] {
            let (next, start) = random_list(n, &mut rng);
            let m = Machine::on_curve(CurveKind::Hilbert, n as u32);
            let got = rank_spatial(&m, &next, start, &mut rng);
            let bound = 8 * (n as f64).log2() as u32;
            assert!(
                got.rounds <= bound,
                "n={n}: {} rounds > {bound}",
                got.rounds
            );
        }
    }

    #[test]
    fn spatial_energy_matches_theorem5() {
        // Energy / n^{3/2} roughly flat; depth O(log n).
        let mut ratios = Vec::new();
        for log_n in [10u32, 12] {
            let n = 1usize << log_n;
            let (next, start) = random_list(n, &mut StdRng::seed_from_u64(3));
            let m = Machine::on_curve(CurveKind::Hilbert, n as u32);
            let res = rank_spatial(&m, &next, start, &mut StdRng::seed_from_u64(4));
            let r = m.report();
            ratios.push(r.energy_per_n_three_halves(n as u64));
            assert!(
                (r.depth as f64) < 30.0 * log_n as f64,
                "n={n}: depth {} not O(log n)",
                r.depth
            );
            assert_eq!(res.ranks[start as usize], 0);
        }
        let (lo, hi) = (ratios[0].min(ratios[1]), ratios[0].max(ratios[1]));
        assert!(hi / lo < 3.0, "energy/n^1.5 not flat: {ratios:?}");
    }

    #[test]
    fn singleton_list() {
        let m = Machine::on_curve(CurveKind::Hilbert, 1);
        let r = rank_spatial(&m, &[END], 0, &mut StdRng::seed_from_u64(0));
        assert_eq!(r.ranks, vec![0]);
        assert_eq!(r.rounds, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::{rank_spatial, END};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};
    use spatial_model::{CurveKind, Machine};

    fn list_from_perm(perm: &[u32]) -> (Vec<u32>, u32) {
        let mut next = vec![END; perm.len()];
        for w in perm.windows(2) {
            next[w[0] as usize] = w[1];
        }
        (next, perm[0])
    }

    proptest! {
        /// Ranks are exactly the positions in the permutation, for any
        /// list shape and any algorithm seed.
        #[test]
        fn prop_spatial_ranks_any_list(
            shuffle_seed in 0u64..10_000,
            algo_seed in 0u64..10_000,
            n in 1usize..300,
        ) {
            let mut perm: Vec<u32> = (0..n as u32).collect();
            let mut rng = StdRng::seed_from_u64(shuffle_seed);
            for i in (1..n).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            let (next, start) = list_from_perm(&perm);
            let m = Machine::on_curve(CurveKind::Hilbert, n as u32);
            let got = rank_spatial(&m, &next, start, &mut StdRng::seed_from_u64(algo_seed));
            for (pos, &el) in perm.iter().enumerate() {
                prop_assert_eq!(got.ranks[el as usize], pos as u64);
            }
        }
    }
}
