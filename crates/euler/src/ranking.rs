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
//! # The list-ordered array
//!
//! The list never changes across runs, so [`RankingEngine::bind`] walks
//! it once and numbers its elements by position (position 0 is the
//! start). A run keeps the live list as one compact array of positions
//! in list order: an element's live neighbours are its array
//! neighbours, so no successor or predecessor pointer is stored. Each
//! contraction round is one pass over that array that selects every
//! head whose left neighbour flipped tails, splices it out and compacts
//! the array behind it. The grid point of every position is gathered
//! once per run, so the pass reads points in list order instead of
//! chasing pointers across the machine.
//!
//! The charges are the seed algorithm's, bit for bit:
//!
//! - the coin round sends one message per live pointer. Its energy is a
//!   running total: the whole list's pointer energy at the start of a
//!   run, and each splice of `mid` between `left` and `right` changes it
//!   by `−d(mid, left) − d(mid, right) + d(left, right)`. Its message
//!   count is the live length − 1;
//! - the splice round sends `mid → left` and `mid → right`;
//! - the undo round of each contraction round sends `left → mid` once
//!   per splice, so each round keeps its `Σ d(mid, left)` for its undo
//!   round to charge.
//!
//! The Las Vegas process is the seed's too: coins are drawn in
//! element-id order (a second array keeps the live positions in that
//! order).
//!
//! # Ranks by position, read through the position map
//!
//! The bind keeps one element → position map (`END` for an element off
//! the list), the same length as the successor array; its on-list
//! entries in id order are the first round's coin-draw order. A run
//! ([`RankingEngine::run`]) leaves the ranks by position, and
//! [`RankingEngine::rank_of`] reads one element's rank through the map,
//! so a caller that asks for a few elements touches only those. The
//! by-id answer array of [`RankingEngine::ranks`] costs a pass over all
//! `n` elements (fill every entry with [`UNRANKED`], then scatter every
//! position's rank): [`RankingEngine::rank`] is a run plus that scatter,
//! for callers that read every rank. Both charge the same.
//!
//! # Memory discipline
//!
//! The contraction is the inner loop of on-machine layout creation
//! (§IV runs it twice per layout), so every buffer is flat, indexed by
//! position, `u32` wherever a position or a weight fits, and allocated
//! once: the splice log is two arrays (`mid`, `left`) with per-round end
//! offsets. The engine owns its structure (the list numbered by
//! position, and the position map) and, unless lent one, its run
//! buffers: everything a run restores, and the scatter's ranks by
//! element id, lives in a [`RankingRun`] that
//! [`RankingEngine::swap_run`] swaps in and out, so one set can serve
//! the engines of many lists in turn. A run rewrites every run buffer
//! it reads. [`RankingRun::reserve`] does not size the by-id ranks
//! (8 bytes per element, which a set that serves only runs never
//! reads): [`RankingEngine::rank`]'s scatter sizes them, and an
//! engine's own set reserves them with the rest. After
//! [`RankingEngine::new`] (or a `bind` within the capacity) returns,
//! [`RankingEngine::rank`] performs **zero heap allocation** (asserted
//! by the counting-allocator test `tests/alloc_free.rs`, the same
//! harness as the treefix engine's); a lent set too small for the
//! bound list grows to the engine's capacity. The seed implementation
//! is retained as [`crate::reference::rank_spatial_reference`]; the
//! `ranking_props` suite asserts both produce identical ranks, round
//! counts, machine charges and per-slot clocks.

use rand::Rng;
use spatial_model::{manhattan, round_capacity, vec_bytes, EngineLifecycle, GridPoint, Machine};

/// Sentinel for "end of list" (same convention as the tour darts).
pub const END: u32 = u32::MAX;

/// Rank value for elements that are not on the list.
pub const UNRANKED: u64 = u64::MAX;

/// Sequential list ranking: index of each element from `start`.
/// Elements not on the list get [`UNRANKED`]. Panics on a cyclic list.
pub fn rank_sequential(next: &[u32], start: u32) -> Vec<u64> {
    let mut ranks = vec![UNRANKED; next.len()];
    let mut at = start;
    let mut r = 0u64;
    while at != END {
        assert!(ranks[at as usize] == UNRANKED, "cycle in list");
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

/// The per-run buffers of a [`RankingEngine`]: everything a run
/// restores, indexed by list position, plus the ranks by element id of
/// [`RankingEngine::rank`]'s scatter. A set holds no list: a run
/// rewrites every buffer it reads, so one set can serve the engines of
/// many lists in turn ([`RankingEngine::swap_run`]).
/// [`RankingRun::default`] allocates nothing.
#[derive(Default)]
pub struct RankingRun {
    /// Largest element count the buffers are reserved for.
    cap: usize,
    /// Grid point of every position's slot, gathered once per run.
    points: Vec<GridPoint>,
    /// Live positions in list order: the contracted list.
    live: Vec<u32>,
    /// Live positions in element-id order: the coin-draw order.
    alive: Vec<u32>,
    /// Rank weight: how many list elements a live position stands for.
    weight: Vec<u32>,
    coin: Vec<bool>,
    dead: Vec<bool>,
    /// Rank of every position.
    rank_at: Vec<u32>,
    /// Rank of every element id: [`RankingEngine::rank`]'s scatter, the
    /// answer of [`RankingEngine::ranks`]. Sized by the scatter (or with
    /// an engine's own set), not by [`RankingRun::reserve`].
    ranks: Vec<u64>,

    // ---- Flat splice log: all rounds back to back. ----
    /// Spliced-out positions.
    splice_mid: Vec<u32>,
    /// Left neighbour each splice merged into.
    splice_left: Vec<u32>,
    /// End offset into the splice log after each round.
    round_ends: Vec<u32>,
    /// `Σ d(mid, left)` of each round: the energy of its undo round.
    undo_energy: Vec<u64>,
}

impl RankingRun {
    /// A set reserved for lists of up to `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        let mut run = Self::default();
        run.reserve(cap);
        run
    }

    /// Grows every buffer a run uses to hold a run on `cap` elements
    /// (never shrinks; a no-op at or below the capacity). The by-id
    /// ranks of [`RankingEngine::rank`]'s scatter are not among them.
    pub fn reserve(&mut self, cap: usize) {
        if cap <= self.cap {
            return;
        }
        fn grow<T>(buf: &mut Vec<T>, cap: usize) {
            buf.reserve_exact(cap.saturating_sub(buf.len()));
        }
        grow(&mut self.points, cap);
        grow(&mut self.live, cap);
        grow(&mut self.alive, cap);
        grow(&mut self.weight, cap);
        grow(&mut self.coin, cap);
        grow(&mut self.dead, cap);
        grow(&mut self.rank_at, cap);
        grow(&mut self.splice_mid, cap);
        grow(&mut self.splice_left, cap);
        grow(&mut self.round_ends, round_capacity(cap));
        grow(&mut self.undo_energy, round_capacity(cap));
        self.cap = cap;
    }

    /// Heap bytes the set keeps resident, by capacity.
    pub fn resident_bytes(&self) -> usize {
        vec_bytes(&self.points)
            + vec_bytes(&self.live)
            + vec_bytes(&self.alive)
            + vec_bytes(&self.weight)
            + vec_bytes(&self.coin)
            + vec_bytes(&self.dead)
            + vec_bytes(&self.rank_at)
            + vec_bytes(&self.ranks)
            + vec_bytes(&self.splice_mid)
            + vec_bytes(&self.splice_left)
            + vec_bytes(&self.round_ends)
            + vec_bytes(&self.undo_energy)
    }
}

/// The reusable spatial list-ranking engine (§IV, Theorem 5): the live
/// list as an array of positions in list order, a flat splice log,
/// zero heap allocation after setup. Create with [`RankingEngine::new`]
/// (or [`RankingEngine::with_capacity`] and [`RankingEngine::bind`]),
/// then call [`RankingEngine::rank`] any number of times (each run
/// re-ranks the same list with fresh randomness, charging the machine
/// it is given).
pub struct RankingEngine {
    /// Whether a list is bound ([`EngineLifecycle::reset`] unbinds).
    bound: bool,
    /// Element count of the bound list's successor array (on the list
    /// or not).
    n: usize,
    /// Element at every list position; position 0 is the start.
    order: Vec<u32>,
    /// Position of every element ([`END`] off the list): the map
    /// [`RankingEngine::rank_of`] reads through, and, its on-list
    /// entries in id order, the first round's coin-draw order.
    by_id: Vec<u32>,
    /// Contract until at most this many elements remain.
    threshold: usize,
    /// Largest element count the structure has ever served; bindings
    /// at or below this never allocate.
    cap: usize,
    /// Contraction rounds of the most recent run.
    rounds: u32,
    /// The run buffers: the engine's own set, or one lent to it.
    run: RankingRun,
}

impl Default for RankingEngine {
    /// An unbound engine with no structure and no run buffers: it
    /// allocates nothing until it is reserved, bound or lent a set.
    fn default() -> Self {
        RankingEngine {
            bound: false,
            n: 0,
            order: Vec::new(),
            by_id: Vec::new(),
            threshold: 4,
            cap: 0,
            rounds: 0,
            run: RankingRun::default(),
        }
    }
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

    /// An unbound engine whose structure and own run buffers are
    /// pre-sized for lists of up to `cap` elements (the by-id ranks of
    /// [`RankingEngine::rank`]'s scatter included);
    /// [`RankingEngine::bind`] and [`RankingEngine::rank`] calls within
    /// the capacity never allocate.
    pub fn with_capacity(cap: usize) -> Self {
        let mut engine = Self::default();
        engine.reserve(cap);
        engine.reserve_own_run(cap);
        engine
    }

    /// Grows the engine's own run buffers, the scatter's by-id ranks
    /// included: an engine that keeps its set calls [`RankingEngine::rank`].
    fn reserve_own_run(&mut self, cap: usize) {
        self.run.reserve(cap);
        let ranks = &mut self.run.ranks;
        ranks.reserve_exact(cap.saturating_sub(ranks.len()));
    }

    /// Loads a new list into the retained structure: one walk from
    /// `start` numbers the list by position. Touches no run buffer.
    /// Panics on a cyclic list. **Zero heap allocation** whenever
    /// `next.len()` is within the engine's capacity (grow first with
    /// [`EngineLifecycle::reserve`]).
    pub fn bind(&mut self, next: &[u32], start: u32) {
        let n = next.len();
        self.cap = self.cap.max(n);
        self.n = n;
        self.bound = true;
        // The walk marks each element's position in `by_id`; END stays
        // off-list.
        let pos = &mut self.by_id;
        pos.clear();
        pos.resize(n, END);
        self.order.clear();
        let mut at = start;
        while at != END {
            assert!(pos[at as usize] == END, "cycle in list");
            pos[at as usize] = self.order.len() as u32;
            self.order.push(at);
            at = next[at as usize];
        }
        let list_len = self.order.len();
        self.threshold = (2 * (usize::BITS - list_len.leading_zeros()) as usize).max(4);
        self.rounds = 0;
    }

    /// Number of elements on the list.
    pub fn list_len(&self) -> usize {
        self.order.len()
    }

    /// Swaps the engine's run buffers with `run`: the way to lend the
    /// engine a set and take it back (call again with the same `run`).
    /// The bound list stays; [`RankingEngine::ranks`] reads the ranks
    /// of the set now held.
    pub fn swap_run(&mut self, run: &mut RankingRun) {
        std::mem::swap(&mut self.run, run);
    }

    /// The ranks of the most recent [`RankingEngine::rank`] on the run
    /// buffers the engine holds, by element id ([`UNRANKED`] off-list;
    /// empty before the set's first `rank`). A [`RankingEngine::run`]
    /// does not write them: read its ranks with
    /// [`RankingEngine::rank_of`].
    pub fn ranks(&self) -> &[u64] {
        &self.run.ranks
    }

    /// The rank of `element` in the most recent run
    /// ([`RankingEngine::run`] or [`RankingEngine::rank`]) of the bound
    /// list on the run buffers the engine holds, read through the
    /// position map: [`UNRANKED`] for an element off the list.
    pub fn rank_of(&self, element: u32) -> u64 {
        match self.by_id[element as usize] {
            END => UNRANKED,
            p => self.run.rank_at[p as usize] as u64,
        }
    }

    /// Ranks the list by random-mate contraction, charging every
    /// pointer round on `m`, and scatters the ranks by element id.
    /// Returns the number of contraction rounds; read the ranks via
    /// [`RankingEngine::ranks`] (or [`RankingEngine::rank_of`]). The
    /// seed affects only costs, never ranks. Performs no heap allocation
    /// once the run buffers and the by-id ranks fit the list.
    pub fn rank<R: Rng>(&mut self, m: &Machine, rng: &mut R) -> u32 {
        let rounds = self.run(m, rng);
        let run = &mut self.run;
        // Off-list elements read UNRANKED, whatever the set held before.
        run.ranks.clear();
        run.ranks.resize(self.n, UNRANKED);
        for (&v, &r) in self.order.iter().zip(&run.rank_at) {
            run.ranks[v as usize] = r as u64;
        }
        rounds
    }

    /// [`RankingEngine::rank`] without the scatter: ranks the list,
    /// charging exactly what `rank` charges, and leaves the ranks by
    /// list position, read one element at a time with
    /// [`RankingEngine::rank_of`] ([`RankingEngine::ranks`] keeps the
    /// last scatter's). Returns the number of contraction rounds.
    /// Performs no heap allocation once the run buffers fit the list.
    pub fn run<R: Rng>(&mut self, m: &Machine, rng: &mut R) -> u32 {
        assert!(self.bound, "bind a list first");
        let n = self.n;
        assert!(n as u32 <= m.n_slots(), "need one slot per list element");
        if self.run.cap < n {
            self.run.reserve(self.cap);
        }
        let run = &mut self.run;
        run.splice_mid.clear();
        run.splice_left.clear();
        run.round_ends.clear();
        run.undo_energy.clear();
        self.rounds = 0;
        let len = self.order.len();
        if len == 0 {
            return 0;
        }

        // ---- Reset: every position live, in both orders. Element v ----
        // ---- lives at slot v; its point is read once, in list order. ----
        run.points.clear();
        run.points.extend(self.order.iter().map(|&v| m.point_of(v)));
        let mut energy: u64 = run.points.windows(2).map(|w| manhattan(w[0], w[1])).sum();
        run.live.clear();
        run.live.extend(0..len as u32);
        run.alive.clear();
        run.alive
            .extend(self.by_id.iter().copied().filter(|&p| p != END));
        run.weight.clear();
        run.weight.resize(len, 1);
        run.dead.clear();
        run.dead.resize(len, false);
        // Written before every read (coin draws, the base case and the
        // undo rounds): only the lengths need restoring.
        run.coin.resize(len, false);
        run.rank_at.resize(len, 0);

        // ---- Contract until O(log n) elements remain. ----
        while run.live.len() > self.threshold {
            // Every live element flips a coin and tells its successor:
            // one synchronous round over the current list, whose energy
            // is the running pointer energy.
            for &p in &run.alive {
                run.coin[p as usize] = rng.gen();
            }
            let k = run.live.len();
            m.charge_pointer_round(energy, k as u64 - 1);

            // One pass selects every head whose left neighbour flipped
            // tails (never position 0, which anchors the ranking),
            // splices it out and compacts the array behind it. A
            // selected element's neighbours are never selected, so
            // `left` is the last kept element and `right` the next one.
            // The pass branches on the coin pattern: a branch-free form
            // (every store unconditional) measured twice as slow.
            let RankingRun {
                points,
                live,
                weight,
                coin,
                dead,
                splice_mid,
                splice_left,
                ..
            } = &mut *run;
            let mut left = live[0];
            let (mut left_coin, mut left_point) = (coin[left as usize], points[left as usize]);
            let (mut pair_energy, mut left_energy, mut bridge_energy) = (0u64, 0u64, 0u64);
            let (mut kept, mut rights) = (1usize, 0u64);
            let first = splice_mid.len();
            for i in 1..k {
                let mid = live[i];
                let mid_coin = coin[mid as usize];
                if mid_coin & !left_coin {
                    // Splice: `mid → left` carries the weight, `mid →
                    // right` the new predecessor.
                    let mid_point = points[mid as usize];
                    let to_left = manhattan(mid_point, left_point);
                    pair_energy += to_left;
                    left_energy += to_left;
                    if let Some(&right) = live.get(i + 1) {
                        let right_point = points[right as usize];
                        pair_energy += manhattan(mid_point, right_point);
                        bridge_energy += manhattan(left_point, right_point);
                        rights += 1;
                    }
                    weight[left as usize] += weight[mid as usize];
                    dead[mid as usize] = true;
                    splice_mid.push(mid);
                    splice_left.push(left);
                } else {
                    live[kept] = mid;
                    kept += 1;
                    left = mid;
                    left_point = points[mid as usize];
                }
                left_coin = mid_coin;
            }
            live.truncate(kept);
            m.charge_pointer_round(pair_energy, (splice_mid.len() - first) as u64 + rights);
            energy = energy - pair_energy + bridge_energy;
            run.undo_energy.push(left_energy);
            run.round_ends.push(run.splice_mid.len() as u32);
            self.rounds += 1;

            // Branchless sweep of the dead positions from the id-order
            // array (stable, so coins stay drawn in element-id order).
            let RankingRun { alive, dead, .. } = &mut *run;
            let mut w = 0usize;
            for i in 0..alive.len() {
                let p = alive[i];
                alive[w] = p;
                w += !dead[p as usize] as usize;
            }
            alive.truncate(w);
        }

        // ---- Base case: walk the remaining list sequentially, ----
        // ---- charging each hop.                                ----
        let mut acc = 0u32;
        for (j, &p) in run.live.iter().enumerate() {
            run.rank_at[p as usize] = acc;
            acc += run.weight[p as usize];
            if let Some(&q) = run.live.get(j + 1) {
                m.send(self.order[p as usize], self.order[q as usize]);
            }
        }

        // ---- Uncontraction: undo rounds in reverse; all splices of ----
        // ---- one round resolve in parallel (independent set).      ----
        for round in (0..self.rounds as usize).rev() {
            let lo = if round == 0 {
                0
            } else {
                run.round_ends[round - 1] as usize
            };
            let hi = run.round_ends[round] as usize;
            m.charge_pointer_round(run.undo_energy[round], (hi - lo) as u64);
            for i in lo..hi {
                let (mid, left) = (run.splice_mid[i] as usize, run.splice_left[i] as usize);
                run.weight[left] -= run.weight[mid];
                run.rank_at[mid] = run.rank_at[left] + run.weight[left];
            }
        }
        self.rounds
    }

    /// Heap bytes the engine keeps resident: its structure and the run
    /// buffers it holds (its own set, or one lent to it), by capacity.
    pub fn resident_bytes(&self) -> usize {
        vec_bytes(&self.order) + vec_bytes(&self.by_id) + self.run.resident_bytes()
    }
}

impl EngineLifecycle for RankingEngine {
    /// The structure's capacity (a run set has its own).
    fn capacity(&self) -> usize {
        self.cap
    }

    /// Grows the structure to `cap` elements, and the run buffers the
    /// engine holds unless they are the empty set (a pooled engine
    /// between runs, whose lent set grows with [`RankingRun::reserve`]
    /// or at the first run that needs it).
    fn reserve(&mut self, cap: usize) {
        if self.run.cap > 0 {
            self.reserve_own_run(cap);
        }
        if cap <= self.cap {
            return;
        }
        fn grow<T>(buf: &mut Vec<T>, cap: usize) {
            buf.reserve(cap.saturating_sub(buf.len()));
        }
        grow(&mut self.order, cap);
        grow(&mut self.by_id, cap);
        self.cap = cap;
    }

    fn reset(&mut self) {
        self.bound = false;
        self.n = 0;
        self.order.clear();
        self.by_id.clear();
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
    fn a_lent_set_ranks_like_the_engines_own() {
        // One run set serves lists of several sizes in turn, each cut
        // after its first half so the rest is off-list: every run ranks
        // (UNRANKED off-list included), counts rounds and charges like
        // a fresh engine on its own set.
        let mut shared = RankingRun::default();
        let mut rng = StdRng::seed_from_u64(78);
        for n in [300usize, 40, 1000, 7] {
            let (mut next, start) = random_list(n, &mut rng);
            let mut at = start;
            for _ in 0..n / 2 {
                at = next[at as usize];
            }
            next[at as usize] = END;
            let mut engine = RankingEngine::default();
            engine.bind(&next, start);
            engine.swap_run(&mut shared);
            let m_lent = Machine::on_curve(CurveKind::Hilbert, n as u32);
            let rounds = engine.rank(&m_lent, &mut StdRng::seed_from_u64(6));
            let mut fresh = RankingEngine::new(&next, start);
            let m_fresh = Machine::on_curve(CurveKind::Hilbert, n as u32);
            let fresh_rounds = fresh.rank(&m_fresh, &mut StdRng::seed_from_u64(6));
            assert_eq!(engine.ranks(), &rank_sequential(&next, start)[..], "n={n}");
            assert_eq!(rounds, fresh_rounds, "n={n}");
            assert_eq!(m_lent.report(), m_fresh.report(), "n={n}");
            engine.swap_run(&mut shared);
            assert_eq!(engine.run.resident_bytes(), 0, "n={n}: kept no run buffers");
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

    #[test]
    #[should_panic(expected = "cycle in list")]
    fn sequential_rejects_a_cycle() {
        // 0 → 1 → 2 → 1: the walk revisits 1.
        rank_sequential(&[1, 2, 1], 0);
    }

    #[test]
    #[should_panic(expected = "cycle in list")]
    fn bind_rejects_a_cycle() {
        RankingEngine::new(&[1, 2, 3, 1], 0);
    }

    #[test]
    #[should_panic(expected = "bind a list first")]
    fn rank_after_reset_requires_a_new_binding() {
        let (next, start) = random_list(50, &mut StdRng::seed_from_u64(6));
        let mut engine = RankingEngine::new(&next, start);
        let m = Machine::on_curve(CurveKind::Hilbert, 50);
        engine.rank(&m, &mut StdRng::seed_from_u64(0));
        engine.reset();
        engine.rank(&m, &mut StdRng::seed_from_u64(0));
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
