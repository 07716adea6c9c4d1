//! Work-optimal(ish) PRAM algorithms as reusable flat-array engines,
//! charged on the simulation machine.
//!
//! These are the baselines of experiment E8 — random-mate list
//! ranking, Blelloch prefix sums, Euler-tour subtree sums, and
//! sparse-table LCA. Each is split the same way as every other engine
//! in the workspace: the input-dependent *structure* (Euler tours,
//! membership, sparse-table storage, scratch arrays) is allocated once
//! in `new`, and each run routes its accesses through a [`PramRun`]
//! using the batched [`PramRun::read_batch`] /
//! [`PramRun::write_batch`] hooks — **zero heap allocation** after the
//! first warm-up run (`tests/alloc_free.rs`), and charge totals
//! identical to the retained seed implementations in
//! [`crate::reference`] (`tests/engine_vs_reference.rs`).
//!
//! The shapes to observe: `Θ(n^{3/2})` energy (every shared-memory
//! access pays `Θ(√n)`) and `O(log^k n)` depth from the per-step
//! routing overhead — against the spatial counterparts' `O(n log n)`
//! energy (see `BENCH_pram.json` and DESIGN.md).

use crate::engine::{PramEngine, PramRun};
use rand::Rng;
use spatial_euler::tour::{down, up, ChildOrder, EulerTour, END};
use spatial_tree::{NodeId, Tree};

/// Rank value for elements that are not on the list.
const UNRANKED: u64 = u64::MAX;

// ---------------------------------------------------------------------
// Random-mate list ranking
// ---------------------------------------------------------------------

/// PRAM random-mate list ranking (Anderson–Miller, the algorithm §IV
/// adapts) as a reusable engine: `O(n)` work ⇒ `Θ(n^{3/2})` simulated
/// energy, `O(log n)` PRAM steps.
///
/// The list (`END`-terminated successor array + start element) is
/// fixed at construction; [`PramListRanker::rank`] re-ranks it with
/// fresh randomness, allocation-free — the splice log is three flat
/// arrays with per-round end offsets, the same discipline as
/// `spatial_euler::RankingEngine`.
pub struct PramListRanker {
    next0: Vec<u32>,
    start: u32,
    /// Elements on the list, in id order (the initial alive set).
    alive0: Vec<u32>,
    /// Contract until at most this many elements remain (the seed's
    /// bound, computed from the *array* length).
    threshold: usize,

    // ---- Per-run state (reset at the top of `rank`). ----
    nxt: Vec<u32>,
    prev: Vec<u32>,
    weight: Vec<u64>,
    coin: Vec<bool>,
    dead: Vec<bool>,
    alive: Vec<u32>,
    ranks: Vec<u64>,

    // ---- Flat splice log (replaces the seed's Vec<Vec<(…)>>). ----
    splice_mid: Vec<u32>,
    splice_left: Vec<u32>,
    splice_weight: Vec<u64>,
    round_ends: Vec<u32>,
    selected: Vec<u32>,
    rounds: u32,
}

impl PramListRanker {
    /// Prepares the ranker for the list `next` starting at `start`.
    /// All arrays are allocated here; [`PramListRanker::rank`] never
    /// allocates. Panics on a cyclic list.
    pub fn new(next: &[u32], start: u32) -> Self {
        let n = next.len();
        let mut membership = vec![false; n];
        if start != END {
            let mut at = start;
            while at != END {
                assert!(!membership[at as usize], "cycle in list");
                membership[at as usize] = true;
                at = next[at as usize];
            }
        }
        let alive0: Vec<u32> = (0..n as u32).filter(|&v| membership[v as usize]).collect();
        let list_len = alive0.len();
        let threshold = (2 * (usize::BITS - n.leading_zeros()) as usize).max(4);
        PramListRanker {
            next0: next.to_vec(),
            start,
            alive0,
            threshold,
            nxt: vec![END; n],
            prev: vec![END; n],
            weight: vec![1u64; n],
            coin: vec![false; n],
            dead: vec![false; n],
            alive: Vec::with_capacity(list_len),
            ranks: vec![UNRANKED; n],
            splice_mid: Vec::with_capacity(list_len),
            splice_left: Vec::with_capacity(list_len),
            splice_weight: Vec::with_capacity(list_len),
            round_ends: Vec::with_capacity(64),
            selected: Vec::with_capacity(list_len),
            rounds: 0,
        }
    }

    /// Number of elements on the list.
    pub fn list_len(&self) -> usize {
        self.alive0.len()
    }

    /// The ranks of the most recent [`PramListRanker::rank`] run
    /// (`u64::MAX` off-list, or everywhere before the first run).
    pub fn ranks(&self) -> &[u64] {
        &self.ranks
    }

    fn reset(&mut self) {
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

    /// Ranks the list, charging every shared-memory access on the
    /// run (processor `i` owns element `i`; the list arrays live
    /// in cells `0..n`, so the run's machine must have at least
    /// `n` cells). Returns the number of contraction rounds; read the
    /// ranks via [`PramListRanker::ranks`]. The rng affects only
    /// costs, never ranks.
    pub fn rank<R: Rng>(&mut self, run: &mut PramRun<'_>, rng: &mut R) -> u32 {
        self.reset();
        if self.start == END {
            return 0;
        }
        let start = self.start;
        assert!(
            self.next0.len() as u32 <= run.cells(),
            "need one cell per list element"
        );

        // ---- Contract until O(log n) elements remain. ----
        while self.alive.len() > self.threshold {
            // Every alive element flips a coin, publishes it (one
            // write), and reads its successor's cell — the seed's
            // per-element charges, folded into two batches.
            for &v in &self.alive {
                self.coin[v as usize] = rng.gen();
            }
            let Self { alive, nxt, .. } = &*self;
            run.write_batch(alive.iter().map(|&v| (v, v)));
            run.read_batch(
                alive
                    .iter()
                    .filter(|&&v| nxt[v as usize] != END)
                    .map(|&v| (v, nxt[v as usize])),
            );
            run.end_step();

            // Select: heads whose predecessor flipped tails (never the
            // start element — it anchors the ranking), evaluated
            // against the pre-splice pointers.
            self.selected.clear();
            for &v in &self.alive {
                if v != start
                    && self.coin[v as usize]
                    && self.prev[v as usize] != END
                    && !self.coin[self.prev[v as usize] as usize]
                {
                    self.selected.push(v);
                }
            }

            // Splice each selected element out. The selected set is
            // independent (a head whose predecessor is a tail), so no
            // two splices share a neighbour and the batched charges
            // below can read `prev`/`nxt` after the whole mutation
            // pass: `prev[mid]` is untouched and `nxt[prev[mid]]` is
            // the spliced-in right neighbour.
            for &mid in &self.selected {
                let left = self.prev[mid as usize];
                let right = self.nxt[mid as usize];
                debug_assert_ne!(left, END);
                if right != END {
                    self.prev[right as usize] = left;
                }
                self.nxt[left as usize] = right;
                self.weight[left as usize] += self.weight[mid as usize];
                self.splice_mid.push(mid);
                self.splice_left.push(left);
                self.splice_weight.push(self.weight[mid as usize]);
                self.dead[mid as usize] = true;
            }
            // left reads mid's pointer+weight, left publishes, right
            // learns its new prev — the seed's three charges per splice.
            let Self {
                selected,
                prev,
                nxt,
                ..
            } = &*self;
            run.read_batch(selected.iter().map(|&mid| (prev[mid as usize], mid)));
            run.write_batch(
                selected
                    .iter()
                    .map(|&mid| (prev[mid as usize], prev[mid as usize])),
            );
            run.write_batch(
                selected
                    .iter()
                    .filter(|&&mid| nxt[prev[mid as usize] as usize] != END)
                    .map(|&mid| (mid, nxt[prev[mid as usize] as usize])),
            );
            run.end_step();
            self.round_ends.push(self.splice_mid.len() as u32);
            self.rounds += 1;

            let Self { alive, dead, .. } = &mut *self;
            alive.retain(|&v| !dead[v as usize]);
        }

        // ---- Sequential base case: walk the remaining list, one ----
        // ---- self-read per element.                              ----
        let mut at = start;
        let mut acc = 0u64;
        while at != END {
            self.ranks[at as usize] = acc;
            acc += self.weight[at as usize];
            at = self.nxt[at as usize];
        }
        let nxt = &self.nxt;
        run.read_batch(
            std::iter::successors(Some(start), |&v| {
                let w = nxt[v as usize];
                (w != END).then_some(w)
            })
            .map(|v| (v, v)),
        );
        run.end_step();

        // ---- Uncontraction: undo rounds in reverse; all splices of ----
        // ---- one round resolve in one step (independent set).      ----
        for round in (0..self.rounds as usize).rev() {
            let lo = if round == 0 {
                0
            } else {
                self.round_ends[round - 1] as usize
            };
            let hi = self.round_ends[round] as usize;
            for i in lo..hi {
                let mid = self.splice_mid[i] as usize;
                let left = self.splice_left[i] as usize;
                self.weight[left] -= self.splice_weight[i];
                self.ranks[mid] = self.ranks[left] + self.weight[left];
            }
            let Self {
                splice_mid,
                splice_left,
                ..
            } = &*self;
            run.read_batch((lo..hi).map(|i| (splice_mid[i], splice_left[i])));
            run.end_step();
        }

        self.rounds
    }
}

// ---------------------------------------------------------------------
// Blelloch prefix sums
// ---------------------------------------------------------------------

/// PRAM Blelloch exclusive prefix sum as a reusable engine: `O(n)`
/// work, `O(log n)` steps ⇒ `Θ(n^{3/2})` simulated energy.
///
/// The padded work array is retained; once it has grown to the largest
/// input seen, [`PramPrefixSummer::run`] performs no heap allocation.
#[derive(Default)]
pub struct PramPrefixSummer {
    a: Vec<u64>,
    out_len: usize,
}

impl PramPrefixSummer {
    /// Summer pre-sized for inputs of up to `capacity` values.
    pub fn with_capacity(capacity: usize) -> Self {
        PramPrefixSummer {
            a: Vec::with_capacity(capacity.next_power_of_two()),
            out_len: 0,
        }
    }

    /// The sums of the most recent [`PramPrefixSummer::run`].
    pub fn sums(&self) -> &[u64] {
        &self.a[..self.out_len]
    }

    /// Computes the exclusive prefix sums of `values`, charging the
    /// run (processor and cell `i` own element `i`; the machine
    /// must have at least `values.len()` cells). Returns the sums
    /// (also available via [`PramPrefixSummer::sums`]).
    pub fn run(&mut self, run: &mut PramRun<'_>, values: &[u64]) -> &[u64] {
        let n = values.len();
        self.out_len = n;
        self.a.clear();
        if n == 0 {
            return &self.a;
        }
        assert!(n as u32 <= run.cells(), "need one cell per value");
        let padded = n.next_power_of_two();
        self.a.extend_from_slice(values);
        self.a.resize(padded, 0);
        let a = &mut self.a;

        // Up-sweep: one read + one write per touched in-range index.
        let mut stride = 1usize;
        while stride < padded {
            let step = stride * 2;
            for i in (step - 1..padded).step_by(step) {
                a[i] += a[i - stride];
            }
            let touched = (step - 1..padded).step_by(step).filter(|&i| i < n);
            run.read_batch(
                touched
                    .clone()
                    .map(|i| (i as u32, ((i - stride).min(n - 1)) as u32)),
            );
            run.write_batch(touched.map(|i| (i as u32, i as u32)));
            run.end_step();
            stride = step;
        }
        a[padded - 1] = 0;

        // Down-sweep.
        stride = padded / 2;
        while stride >= 1 {
            let step = stride * 2;
            for i in (step - 1..padded).step_by(step) {
                let left = a[i - stride];
                a[i - stride] = a[i];
                a[i] += left;
            }
            let touched = (step - 1..padded).step_by(step).filter(|&i| i < n);
            run.read_batch(
                touched
                    .clone()
                    .map(|i| (i as u32, ((i - stride).min(n - 1)) as u32)),
            );
            run.write_batch(touched.map(|i| (i as u32, i as u32)));
            run.end_step();
            stride /= 2;
        }
        &self.a[..n]
    }
}

// ---------------------------------------------------------------------
// Euler-tour subtree sums
// ---------------------------------------------------------------------

/// PRAM bottom-up subtree sums (`u64` addition) via Euler tour + list
/// ranking + prefix sums — the classic work-optimal construction the
/// paper's §I-C compares against. `Θ(n^{3/2})` simulated energy.
///
/// The Euler tour, the list ranker, the prefix summer, and the scatter
/// buffers are built once per tree; [`PramTreefix::subtree_sums`] is
/// allocation-free after one warm-up run. The run's machine needs
/// at least `2n` cells (one per dart).
pub struct PramTreefix {
    ranker: PramListRanker,
    prefix: PramPrefixSummer,
    by_rank: Vec<u64>,
    out: Vec<u64>,
    root: NodeId,
    n: u32,
}

impl PramTreefix {
    /// Prepares the engine for `tree` (natural child order, matching
    /// the seed).
    pub fn new(tree: &Tree) -> Self {
        let n = tree.n();
        let (ranker, len) = if n == 1 {
            (PramListRanker::new(&[], END), 0)
        } else {
            let tour = EulerTour::new(tree, ChildOrder::Natural);
            (
                PramListRanker::new(tour.next_darts(), tour.start()),
                (2 * (n - 1)) as usize,
            )
        };
        PramTreefix {
            ranker,
            prefix: PramPrefixSummer::with_capacity(len),
            by_rank: vec![0u64; len],
            out: Vec::with_capacity(n as usize),
            root: tree.root(),
            n,
        }
    }

    /// The sums of the most recent run.
    pub fn sums(&self) -> &[u64] {
        &self.out
    }

    /// Computes every vertex's subtree sum of `values`, charging the
    /// engine. Returns the sums (also via [`PramTreefix::sums`]).
    pub fn subtree_sums<R: Rng>(
        &mut self,
        pram: &mut PramEngine,
        values: &[u64],
        rng: &mut R,
    ) -> &[u64] {
        let n = self.n;
        assert_eq!(values.len() as u32, n);
        self.out.clear();
        if n == 1 {
            self.out.push(values[0]);
            return &self.out;
        }
        let mut run = pram.run();
        let cells = run.cells();
        self.ranker.rank(&mut run, rng);
        let ranks = self.ranker.ranks();

        // Scatter: value of v at its down dart's rank (one write per
        // dart).
        self.by_rank.fill(0);
        for v in 0..n {
            if v != self.root {
                self.by_rank[ranks[down(v) as usize] as usize] = values[v as usize];
            }
        }
        let root = self.root;
        run.write_batch(
            (0..n)
                .filter(|&v| v != root)
                .map(|v| (v, ranks[down(v) as usize] as u32 % cells)),
        );
        run.end_step();

        let prefix = self.prefix.run(&mut run, &self.by_rank);

        // sum(v) = val(v) + (prefix over the tour span of v) — two
        // reads per non-root vertex.
        let total: u64 = values.iter().sum();
        for v in 0..n {
            if v == root {
                self.out.push(total);
            } else {
                let lo = ranks[down(v) as usize] as usize;
                let hi = ranks[up(v) as usize] as usize;
                // Exclusive prefix: sum over darts in [lo, hi) plus v.
                self.out
                    .push(values[v as usize] + (prefix[hi] - prefix[lo] - values[v as usize]));
            }
        }
        run.read_batch((0..n).filter(|&v| v != root).flat_map(|v| {
            let lo = ranks[down(v) as usize] as u32 % cells;
            let hi = ranks[up(v) as usize] as u32 % cells;
            [(v, lo), (v, hi)]
        }));
        run.finish();
        &self.out
    }
}

// ---------------------------------------------------------------------
// Sparse-table batched LCA
// ---------------------------------------------------------------------

/// PRAM batched LCA via Euler tour + sparse-table RMQ (`O(n log n)`
/// work): the standard shared-memory construction. Simulated energy
/// `Θ(n^{3/2} log n)`.
///
/// The paper's `O(n)`-work Schieber–Vishkin variant would shave a log
/// factor off the energy but not change the `n^{3/2}` shape — see
/// DESIGN.md. Tour, ranker, visit/first/table storage, and the answer
/// buffer are retained; [`PramLcaBatch::run`] is allocation-free after
/// warm-up (for query batches no larger than the warm-up's).
pub struct PramLcaBatch {
    ranker: PramListRanker,
    depths: Vec<u32>,
    parent: Vec<NodeId>,
    /// Vertex visit sequence (position 0 = root, then one entry per
    /// dart arrival) and first-occurrence positions, rebuilt per run.
    visit: Vec<NodeId>,
    first: Vec<u32>,
    /// Flat sparse table, `levels` rows of `len` entries.
    table: Vec<NodeId>,
    levels: usize,
    len: usize,
    answers: Vec<NodeId>,
    root: NodeId,
    n: u32,
}

impl PramLcaBatch {
    /// Prepares the engine for `tree`.
    pub fn new(tree: &Tree) -> Self {
        let n = tree.n();
        let (ranker, len) = if n == 1 {
            (PramListRanker::new(&[], END), 1)
        } else {
            let tour = EulerTour::new(tree, ChildOrder::Natural);
            (
                PramListRanker::new(tour.next_darts(), tour.start()),
                2 * (n as usize - 1) + 1,
            )
        };
        let levels = (usize::BITS - len.leading_zeros()) as usize;
        let parent = (0..n)
            .map(|v| tree.parent(v).unwrap_or(tree.root()))
            .collect();
        PramLcaBatch {
            ranker,
            depths: tree.depths(),
            parent,
            visit: vec![tree.root(); len],
            first: vec![0u32; n as usize],
            table: vec![0 as NodeId; levels * len],
            levels,
            len,
            answers: Vec::new(),
            root: tree.root(),
            n,
        }
    }

    /// The answers of the most recent run.
    pub fn answers(&self) -> &[NodeId] {
        &self.answers
    }

    /// Answers every `(a, b)` query with the LCA of `a` and `b`,
    /// charging the engine (needs at least `2n` cells — the ranker
    /// addresses the full dart array). Returns
    /// the answers (also via [`PramLcaBatch::answers`]).
    pub fn run<R: Rng>(
        &mut self,
        pram: &mut PramEngine,
        queries: &[(NodeId, NodeId)],
        rng: &mut R,
    ) -> &[NodeId] {
        self.answers.clear();
        if self.n == 1 {
            self.answers.extend(queries.iter().map(|_| self.root));
            return &self.answers;
        }
        let n = self.n;
        let mut run = pram.run();
        let cells = run.cells();
        self.ranker.rank(&mut run, rng);
        let ranks = self.ranker.ranks();

        // Visit sequence + first occurrences from the dart ranks.
        self.visit.fill(self.root);
        for v in 0..n {
            if v != self.root {
                let d_rank = ranks[down(v) as usize] as usize + 1;
                self.visit[d_rank] = v;
                self.first[v as usize] = d_rank as u32;
                let u_rank = ranks[up(v) as usize] as usize + 1;
                self.visit[u_rank] = self.parent[v as usize];
            }
        }

        // Sparse table build: O(len log len) writes, one step per row.
        let (len, levels) = (self.len, self.levels);
        let depths = &self.depths;
        let key = |v: NodeId| (depths[v as usize], v);
        self.table[..len].copy_from_slice(&self.visit);
        for k in 1..levels {
            let half = 1usize << (k - 1);
            let (lower, upper) = self.table.split_at_mut(k * len);
            let prev = &lower[(k - 1) * len..];
            let row = &mut upper[..len];
            for (i, slot) in row.iter_mut().enumerate() {
                let j = (i + half).min(len - 1);
                *slot = if key(prev[i]) <= key(prev[j]) {
                    prev[i]
                } else {
                    prev[j]
                };
            }
            run.write_batch((0..len).map(|i| ((i as u32) % n, (i as u32) % cells)));
            run.end_step();
        }

        // Queries: two table reads each.
        for &(a, b) in queries {
            let (mut lo, mut hi) = (
                self.first[a as usize] as usize,
                self.first[b as usize] as usize,
            );
            if lo > hi {
                std::mem::swap(&mut lo, &mut hi);
            }
            let k = (usize::BITS - 1 - (hi - lo + 1).leading_zeros()) as usize;
            let x = self.table[k * len + lo];
            let y = self.table[k * len + hi + 1 - (1 << k)];
            self.answers.push(if key(x) <= key(y) { x } else { y });
        }
        let first = &self.first;
        run.read_batch(queries.iter().enumerate().flat_map(|(qi, &(a, b))| {
            let (mut lo, mut hi) = (first[a as usize], first[b as usize]);
            if lo > hi {
                std::mem::swap(&mut lo, &mut hi);
            }
            let proc = (qi as u32) % n;
            [(proc, lo % cells), (proc, hi % cells)]
        }));
        run.finish();
        &self.answers
    }
}

// ---------------------------------------------------------------------
// One-shot wrappers (the E8 harness entry points)
// ---------------------------------------------------------------------

/// One-shot PRAM random-mate list ranking over `pram`. Callers that
/// re-rank the same list should hold a [`PramListRanker`].
pub fn pram_list_rank<R: Rng>(
    pram: &mut PramEngine,
    next: &[u32],
    start: u32,
    rng: &mut R,
) -> Vec<u64> {
    let mut ranker = PramListRanker::new(next, start);
    let mut run = pram.run();
    ranker.rank(&mut run, rng);
    run.finish();
    ranker.ranks().to_vec()
}

/// One-shot PRAM Blelloch exclusive prefix sum over `pram`.
pub fn pram_prefix_sum(pram: &mut PramEngine, values: &[u64]) -> Vec<u64> {
    let mut summer = PramPrefixSummer::with_capacity(values.len());
    let mut run = pram.run();
    summer.run(&mut run, values);
    run.finish();
    summer.sums().to_vec()
}

/// One-shot PRAM bottom-up subtree sums over `pram` (needs `≥ 2n`
/// cells). Callers that re-run the same tree should hold a
/// [`PramTreefix`].
pub fn pram_subtree_sums<R: Rng>(
    pram: &mut PramEngine,
    tree: &Tree,
    values: &[u64],
    rng: &mut R,
) -> Vec<u64> {
    let mut engine = PramTreefix::new(tree);
    engine.subtree_sums(pram, values, rng).to_vec()
}

/// One-shot PRAM batched LCA over `pram` (needs `≥ 2n` cells).
/// Callers that re-query the same tree should hold a [`PramLcaBatch`].
pub fn pram_lca_batch<R: Rng>(
    pram: &mut PramEngine,
    tree: &Tree,
    queries: &[(NodeId, NodeId)],
    rng: &mut R,
) -> Vec<NodeId> {
    let mut engine = PramLcaBatch::new(tree);
    engine.run(pram, queries, rng).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use spatial_tree::generators;

    #[test]
    #[should_panic(expected = "cycle in list")]
    fn cyclic_list_panics_instead_of_hanging() {
        // 0 → 1 → 2 → 0: the membership walk never reaches END.
        PramListRanker::new(&[1, 2, 0], 0);
    }

    #[test]
    fn list_rank_correct() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1usize, 2, 10, 500] {
            let mut order: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut next = vec![END; n];
            for w in order.windows(2) {
                next[w[0] as usize] = w[1];
            }
            let mut pram = PramEngine::new(n as u32, n as u32, &mut rng);
            let got = pram_list_rank(&mut pram, &next, order[0], &mut rng);
            let expect = spatial_euler::rank_sequential(&next, order[0]);
            assert_eq!(got, expect, "n={n}");
        }
    }

    #[test]
    fn prefix_sum_correct() {
        let mut rng = StdRng::seed_from_u64(2);
        let values: Vec<u64> = (0..777).map(|_| rng.gen_range(0..50)).collect();
        let mut pram = PramEngine::new(1024, 1024, &mut rng);
        let got = pram_prefix_sum(&mut pram, &values);
        let mut acc = 0;
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(got[i], acc, "index {i}");
            acc += v;
        }
    }

    #[test]
    fn subtree_sums_match_host() {
        let mut rng = StdRng::seed_from_u64(3);
        for fam in [
            generators::TreeFamily::UniformRandom,
            generators::TreeFamily::Comb,
            generators::TreeFamily::Star,
        ] {
            let t = fam.generate(200, &mut rng);
            let n = t.n();
            let values: Vec<u64> = (0..n as u64).map(|v| v + 1).collect();
            let mut pram = PramEngine::new(2 * n, 2 * n, &mut rng);
            let got = pram_subtree_sums(&mut pram, &t, &values, &mut rng);
            // Verify against a host bottom-up accumulation.
            let mut expect = values.clone();
            let order = spatial_tree::traversal::bfs_order(&t);
            for &v in order.iter().rev() {
                if let Some(p) = t.parent(v) {
                    expect[p as usize] += expect[v as usize];
                }
            }
            assert_eq!(got, expect, "{fam}");
        }
    }

    #[test]
    fn reused_treefix_engine_is_stable() {
        let mut rng = StdRng::seed_from_u64(8);
        let t = generators::random_binary(400, &mut rng);
        let values: Vec<u64> = (0..400u64).collect();
        let mut pram = PramEngine::new(800, 800, &mut rng);
        let mut engine = PramTreefix::new(&t);
        let first = engine.subtree_sums(&mut pram, &values, &mut rng).to_vec();
        for _ in 0..3 {
            let again = engine.subtree_sums(&mut pram, &values, &mut rng);
            assert_eq!(again, &first[..], "reuse must not change results");
        }
    }

    #[test]
    fn lca_matches_naive() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = generators::uniform_random(300, &mut rng);
        let queries: Vec<(NodeId, NodeId)> = (0..100)
            .map(|_| (rng.gen_range(0..300), rng.gen_range(0..300)))
            .collect();
        let mut pram = PramEngine::new(600, 600, &mut rng);
        let got = pram_lca_batch(&mut pram, &t, &queries, &mut rng);
        let host = naive_lca(&t, &queries);
        assert_eq!(got, host);
    }

    fn naive_lca(t: &Tree, queries: &[(NodeId, NodeId)]) -> Vec<NodeId> {
        // Naive parent-walking reference.
        let depth = t.depths();
        queries
            .iter()
            .map(|&(mut u, mut v)| {
                while depth[u as usize] > depth[v as usize] {
                    u = t.parent(u).unwrap();
                }
                while depth[v as usize] > depth[u as usize] {
                    v = t.parent(v).unwrap();
                }
                while u != v {
                    u = t.parent(u).unwrap();
                    v = t.parent(v).unwrap();
                }
                u
            })
            .collect()
    }

    #[test]
    fn single_vertex_tree() {
        let t = spatial_tree::Tree::from_parents(0, vec![spatial_tree::NIL]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut pram = PramEngine::new(2, 2, &mut rng);
        assert_eq!(pram_subtree_sums(&mut pram, &t, &[7], &mut rng), vec![7]);
        assert_eq!(
            pram_lca_batch(&mut pram, &t, &[(0, 0), (0, 0)], &mut rng),
            vec![0, 0]
        );
        assert_eq!(pram.report().energy, 0, "no charges on trivial trees");
        assert_eq!(pram.steps(), 0);
    }

    #[test]
    fn energy_is_three_halves() {
        // The headline: PRAM treefix energy/n^{3/2} flat, and much worse
        // than linear in n.
        let mut ratios = Vec::new();
        for log_n in [9u32, 11] {
            let n = 1u32 << log_n;
            let mut rng = StdRng::seed_from_u64(5);
            let t = generators::random_binary(n, &mut rng);
            let values = vec![1u64; n as usize];
            let mut pram = PramEngine::new(2 * n, 2 * n, &mut rng);
            pram_subtree_sums(&mut pram, &t, &values, &mut rng);
            ratios.push(pram.report().energy_per_n_three_halves(n as u64));
        }
        let (lo, hi) = (ratios[0].min(ratios[1]), ratios[0].max(ratios[1]));
        assert!(
            hi / lo < 3.0,
            "PRAM energy/n^1.5 should be near-flat: {ratios:?}"
        );
    }
}
