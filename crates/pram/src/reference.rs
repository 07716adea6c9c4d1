//! The seed PRAM simulation — retained, unoptimized, as the
//! differential baseline for [`crate::PramEngine`].
//!
//! [`PramMachine`] charges every shared-memory access through the
//! machine's bulk counters, one call per access, and the
//! algorithms below allocate freely (per-round `Vec`s, a removal
//! `HashSet`, a fresh sparse table per call). The flat-array engine in
//! [`crate::engine`] / [`crate::algorithms`] must stay **charge- and
//! result-identical** to this module; `tests/engine_vs_reference.rs`
//! pins energy, depth, messages, work, and step counts across seeds,
//! sizes, and non-power-of-two `processors ≠ cells` shapes.
//!
//! The only intentional post-seed change is the step-overhead bugfix
//! (shared with the engine): the seed computed `32 −
//! slots.leading_zeros()`, which charges `log₂(slots) + 1` rounds of
//! routing depth for exact powers of two — one round more than the
//! documented `O(log n)` per-step overhead. Both paths now use
//! `⌈log₂(slots)⌉` (at least 1); `step_overhead_pinned` pins the
//! corrected values at `slots ∈ {1, 2, 1024, 1025}`.

use rand::seq::SliceRandom;
use rand::Rng;
use spatial_euler::tour::{down, up, ChildOrder, EulerTour, END};
use spatial_model::{CostReport, CurveKind, Machine, Slot};
use spatial_tree::{NodeId, Tree};

/// Per-step routing overhead of the simulation: `⌈log₂(slots)⌉` rounds
/// of depth, at least one. Shared with [`crate::PramEngine`] so the two
/// paths cannot drift.
pub(crate) fn step_overhead_for(slots: u32) -> u32 {
    slots.next_power_of_two().trailing_zeros().max(1)
}

/// A simulated EREW/CREW PRAM on the spatial grid (the seed machine).
///
/// Processor `i` occupies grid slot `i`; memory cell `j` lives at a slot
/// chosen by a random permutation (the hashing that makes shared memory
/// location-oblivious). Each [`read`](PramMachine::read) /
/// [`write`](PramMachine::write) charges the Manhattan distance between
/// the processor and the cell; [`end_step`](PramMachine::end_step)
/// closes one synchronous PRAM step and charges the simulation's
/// poly-logarithmic routing overhead in depth.
pub struct PramMachine {
    machine: Machine,
    cell_slot: Vec<Slot>,
    step_overhead: u32,
    steps: u32,
}

impl PramMachine {
    /// Creates a PRAM with `processors` processors and `cells` shared
    /// memory cells, hashed over a grid of `max(processors, cells)`
    /// slots.
    pub fn new<R: Rng>(processors: u32, cells: u32, rng: &mut R) -> Self {
        let slots = processors.max(cells).max(1);
        let machine = Machine::on_curve(CurveKind::Hilbert, slots);
        let mut cell_slot: Vec<Slot> = (0..slots).collect();
        cell_slot.shuffle(rng);
        cell_slot.truncate(cells as usize);
        let step_overhead = step_overhead_for(slots);
        PramMachine {
            machine,
            cell_slot,
            step_overhead,
            steps: 0,
        }
    }

    /// Number of shared memory cells.
    pub fn cells(&self) -> u32 {
        self.cell_slot.len() as u32
    }

    /// Depth charged per synchronous step.
    pub fn step_overhead(&self) -> u32 {
        self.step_overhead
    }

    /// Charges a read of `cell` by `proc`: a request and a response
    /// message across the grid.
    pub fn read(&self, proc: u32, cell: u32) {
        let d = self.machine.dist(proc, self.cell_slot[cell as usize]);
        self.machine.charge_bulk(2 * d, 2, 1);
    }

    /// Charges a write to `cell` by `proc`: one message.
    pub fn write(&self, proc: u32, cell: u32) {
        let d = self.machine.dist(proc, self.cell_slot[cell as usize]);
        self.machine.charge_bulk(d, 1, 1);
    }

    /// Ends one synchronous PRAM step: the simulation's routing costs
    /// `O(log n)` depth per step (conservative; the paper quotes
    /// poly-log overall overhead).
    pub fn end_step(&mut self) {
        self.machine.advance_all(self.step_overhead);
        self.steps += 1;
    }

    /// Number of PRAM steps executed.
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// Cost snapshot of the underlying spatial machine.
    pub fn report(&self) -> CostReport {
        self.machine.report()
    }
}

/// Seed PRAM random-mate list ranking (Anderson–Miller, the algorithm
/// §IV adapts): `O(n)` work ⇒ `Θ(n^{3/2})` simulated energy, `O(log n)`
/// PRAM steps.
///
/// `next` is `END`-terminated; returns the rank of each list element
/// (`u64::MAX` off-list).
pub fn pram_list_rank<R: Rng>(
    pram: &mut PramMachine,
    next: &[u32],
    start: u32,
    rng: &mut R,
) -> Vec<u64> {
    let n = next.len();
    let mut ranks = vec![u64::MAX; n];
    if start == END {
        return ranks;
    }
    // Mirror of the spatial algorithm, but every pointer/weight access
    // is a shared-memory access (processor i owns element i; the list
    // arrays live in cells 0..n).
    let mut membership = vec![false; n];
    let mut at = start;
    while at != END {
        membership[at as usize] = true;
        at = next[at as usize];
    }
    let mut alive: Vec<u32> = (0..n as u32).filter(|&v| membership[v as usize]).collect();
    let mut nxt = next.to_vec();
    let mut prev = vec![END; n];
    for &v in &alive {
        if nxt[v as usize] != END {
            prev[nxt[v as usize] as usize] = v;
        }
    }
    let mut weight = vec![1u64; n];
    let mut coin = vec![false; n];
    let threshold = (2 * (usize::BITS - n.leading_zeros()) as usize).max(4);
    let mut history: Vec<Vec<(u32, u32, u64)>> = Vec::new();

    while alive.len() > threshold {
        for &v in &alive {
            coin[v as usize] = rng.gen();
            // Publish the coin; successor reads it.
            pram.write(v, v);
            if nxt[v as usize] != END {
                pram.read(v, nxt[v as usize]);
            }
        }
        pram.end_step();

        let selected: Vec<u32> = alive
            .iter()
            .copied()
            .filter(|&v| {
                v != start
                    && coin[v as usize]
                    && prev[v as usize] != END
                    && !coin[prev[v as usize] as usize]
            })
            .collect();
        let mut splices = Vec::with_capacity(selected.len());
        for &mid in &selected {
            let left = prev[mid as usize];
            let right = nxt[mid as usize];
            // left reads mid's pointer+weight, right learns its new prev.
            pram.read(left, mid);
            pram.write(left, left);
            if right != END {
                pram.write(mid, right);
                prev[right as usize] = left;
            }
            nxt[left as usize] = right;
            weight[left as usize] += weight[mid as usize];
            splices.push((mid, left, weight[mid as usize]));
        }
        pram.end_step();
        history.push(splices);
        let removed: std::collections::HashSet<u32> = selected.into_iter().collect();
        alive.retain(|v| !removed.contains(v));
    }

    // Sequential base case.
    let mut at = start;
    let mut acc = 0u64;
    while at != END {
        ranks[at as usize] = acc;
        acc += weight[at as usize];
        pram.read(at, at);
        at = nxt[at as usize];
    }
    pram.end_step();

    for splices in history.into_iter().rev() {
        for &(mid, left, w_mid) in &splices {
            weight[left as usize] -= w_mid;
            ranks[mid as usize] = ranks[left as usize] + weight[left as usize];
            pram.read(mid, left);
        }
        pram.end_step();
    }
    ranks
}

/// Seed PRAM Blelloch exclusive prefix sum over `values`: `O(n)` work,
/// `O(log n)` steps ⇒ `Θ(n^{3/2})` simulated energy.
pub fn pram_prefix_sum(pram: &mut PramMachine, values: &[u64]) -> Vec<u64> {
    let n = values.len();
    if n == 0 {
        return Vec::new();
    }
    let padded = n.next_power_of_two();
    let mut a = values.to_vec();
    a.resize(padded, 0);

    let mut stride = 1usize;
    while stride < padded {
        let step = stride * 2;
        for i in (step - 1..padded).step_by(step) {
            if i < n {
                pram.read(i as u32, (i - stride).min(n - 1) as u32);
                pram.write(i as u32, i as u32);
            }
            a[i] += a[i - stride];
        }
        pram.end_step();
        stride = step;
    }
    a[padded - 1] = 0;
    stride = padded / 2;
    while stride >= 1 {
        let step = stride * 2;
        for i in (step - 1..padded).step_by(step) {
            if i < n {
                pram.read(i as u32, (i - stride).min(n - 1) as u32);
                pram.write(i as u32, i as u32);
            }
            let left = a[i - stride];
            a[i - stride] = a[i];
            a[i] += left;
        }
        pram.end_step();
        stride /= 2;
    }
    a.truncate(n);
    a
}

/// Seed PRAM bottom-up subtree sums (`u64` addition) via Euler tour +
/// list ranking + prefix sums — the classic work-optimal construction
/// the paper's §I-C compares against. `Θ(n^{3/2})` simulated energy.
pub fn pram_subtree_sums<R: Rng>(
    pram: &mut PramMachine,
    tree: &Tree,
    values: &[u64],
    rng: &mut R,
) -> Vec<u64> {
    let n = tree.n();
    assert_eq!(values.len() as u32, n);
    if n == 1 {
        return vec![values[0]];
    }
    let tour = EulerTour::new(tree, ChildOrder::Natural);
    let ranks = pram_list_rank(pram, tour.next_darts(), tour.start(), rng);

    // Scatter: value of v at its down dart's rank (one write per dart).
    let len = (2 * (n - 1)) as usize;
    let mut by_rank = vec![0u64; len];
    for v in tree.vertices() {
        if v != tree.root() {
            by_rank[ranks[down(v) as usize] as usize] = values[v as usize];
            pram.write(v, ranks[down(v) as usize] as u32 % pram.cells());
        }
    }
    pram.end_step();

    let prefix = pram_prefix_sum(pram, &by_rank);
    // sum(v) = val(v) + (prefix over the tour span of v) — two reads.
    let total: u64 = values.iter().sum();
    (0..n)
        .map(|v| {
            if v == tree.root() {
                total
            } else {
                let lo = ranks[down(v) as usize] as usize;
                let hi = ranks[up(v) as usize] as usize;
                pram.read(v, lo as u32 % pram.cells());
                pram.read(v, hi as u32 % pram.cells());
                // Exclusive prefix: sum over darts in [lo, hi) plus v.
                values[v as usize] + (prefix[hi] - prefix[lo] - values[v as usize])
            }
        })
        .collect()
}

/// Seed PRAM batched LCA via Euler tour + sparse-table RMQ (`O(n log
/// n)` work): the standard shared-memory construction. Simulated
/// energy `Θ(n^{3/2} log n)`.
pub fn pram_lca_batch<R: Rng>(
    pram: &mut PramMachine,
    tree: &Tree,
    queries: &[(NodeId, NodeId)],
    rng: &mut R,
) -> Vec<NodeId> {
    let n = tree.n();
    if n == 1 {
        return queries.iter().map(|_| tree.root()).collect();
    }
    let tour = EulerTour::new(tree, ChildOrder::Natural);
    let ranks = pram_list_rank(pram, tour.next_darts(), tour.start(), rng);

    // Vertex visit sequence: position 0 is the root, then one entry per
    // dart arrival; depth-sequence RMQ gives the LCA.
    let depths = tree.depths();
    let len = 2 * (n as usize - 1) + 1;
    let mut visit = vec![tree.root(); len];
    let mut first = vec![0usize; n as usize];
    for v in tree.vertices() {
        if v != tree.root() {
            let d_rank = ranks[down(v) as usize] as usize + 1;
            visit[d_rank] = v;
            first[v as usize] = d_rank;
            let u_rank = ranks[up(v) as usize] as usize + 1;
            visit[u_rank] = tree.parent(v).expect("non-root");
        }
    }
    // Sparse table build: O(len log len) writes.
    let levels = (usize::BITS - len.leading_zeros()) as usize;
    let key = |v: NodeId| (depths[v as usize], v);
    let mut table = vec![visit.clone()];
    for k in 1..levels {
        let half = 1usize << (k - 1);
        let prev = &table[k - 1];
        let row: Vec<NodeId> = (0..len)
            .map(|i| {
                let j = (i + half).min(len - 1);
                if key(prev[i]) <= key(prev[j]) {
                    prev[i]
                } else {
                    prev[j]
                }
            })
            .collect();
        for i in 0..len {
            pram.write((i as u32) % n, (i as u32) % pram.cells());
        }
        pram.end_step();
        table.push(row);
    }

    queries
        .iter()
        .enumerate()
        .map(|(qi, &(a, b))| {
            let (mut lo, mut hi) = (first[a as usize], first[b as usize]);
            if lo > hi {
                std::mem::swap(&mut lo, &mut hi);
            }
            let k = (usize::BITS - 1 - (hi - lo + 1).leading_zeros()) as usize;
            let proc = (qi as u32) % n;
            pram.read(proc, (lo as u32) % pram.cells());
            pram.read(proc, (hi as u32) % pram.cells());
            let x = table[k][lo];
            let y = table[k][hi + 1 - (1 << k)];
            if key(x) <= key(y) {
                x
            } else {
                y
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn accesses_cost_sqrt_n_on_average() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 1u32 << 12;
        let mut pram = PramMachine::new(n, n, &mut rng);
        for p in 0..n {
            pram.read(p, (p * 7 + 13) % n);
        }
        pram.end_step();
        let r = pram.report();
        let mean = r.energy as f64 / n as f64;
        let side = (n as f64).sqrt();
        // Mean random distance on a √n × √n grid is Θ(√n).
        assert!(
            mean > 0.3 * side && mean < 4.0 * side,
            "mean access energy {mean} vs side {side}"
        );
    }

    #[test]
    fn step_overhead_accumulates_depth() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut pram = PramMachine::new(1024, 1024, &mut rng);
        for _ in 0..10 {
            pram.end_step();
        }
        assert_eq!(pram.steps(), 10);
        assert_eq!(pram.report().depth, 10 * 10); // 10 steps × log2(1024)
    }

    #[test]
    fn step_overhead_pinned() {
        // The bugfix: the seed formula `32 - slots.leading_zeros()`
        // charged log2(slots)+1 for exact powers of two. The corrected
        // overhead is ⌈log2(slots)⌉, at least 1.
        for (slots, expect) in [(1u32, 1u32), (2, 1), (1024, 10), (1025, 11)] {
            assert_eq!(
                step_overhead_for(slots),
                expect,
                "slots = {slots}: overhead"
            );
            let mut rng = StdRng::seed_from_u64(7);
            let pram = PramMachine::new(slots, slots, &mut rng);
            assert_eq!(pram.step_overhead(), expect, "slots = {slots}: machine");
        }
    }

    #[test]
    fn cells_can_exceed_processors() {
        let mut rng = StdRng::seed_from_u64(3);
        let pram = PramMachine::new(4, 100, &mut rng);
        assert_eq!(pram.cells(), 100);
        pram.read(3, 99);
        assert!(pram.report().messages == 2);
    }

    #[test]
    fn list_rank_matches_sequential() {
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
            let mut pram = PramMachine::new(n as u32, n as u32, &mut rng);
            let got = pram_list_rank(&mut pram, &next, order[0], &mut rng);
            let expect = spatial_euler::rank_sequential(&next, order[0]);
            assert_eq!(got, expect, "n={n}");
        }
    }
}
