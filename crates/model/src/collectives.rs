//! Foundational spatial collectives (§II-A of the paper).
//!
//! All collectives are implemented as *real* message patterns over slot
//! ranges and charged through the [`Machine`]:
//!
//! - [`range_broadcast`] / [`range_reduce`] / [`all_reduce`]: balanced
//!   binary trees over a contiguous slot range. On an energy-bound order
//!   the recursion `T(s) = 2T(s/2) + O(√s)` gives `O(s)` energy and
//!   `O(log s)` depth — this is also exactly the virtual broadcast tree
//!   of Lemma 13 used by the LCA algorithm.
//! - [`exclusive_prefix_sum`]: a Blelloch scan (up-sweep + down-sweep),
//!   `O(n)` energy and `O(log n)` depth on a distance-bound curve.
//! - [`bitonic_sort_by_key`]: a bitonic sorting network. Each stage moves
//!   records between slots `i` and `i ⊕ stride`; summing the
//!   distance-weighted volume over all `O(log² n)` stages gives
//!   `Θ(n^{3/2})` energy — matching the `Ω(n^{3/2})` lower bound for a
//!   global permutation on a `√n × √n` grid — and poly-logarithmic depth.
//!
//! Senders are ticked between consecutive messages so that "one message
//! per round" chains show up in the depth meter.
//!
//! The exceptions are the closed forms: [`closed_form_barrier`] charges
//! the all-reduce's totals and clocks without replaying its messages,
//! and [`LayeredBroadcast`] does the same for a whole phase of per-layer
//! range broadcasts and barriers (the batched LCA's step 4). Both are
//! bit-identical to the message replays [`barrier`] and
//! [`range_broadcast`]; the derivations are in their docs.

use crate::engine::vec_bytes;
use crate::machine::{CurvePrefix, Machine, Slot};
use rayon::prelude::*;
use spatial_sfc::{manhattan, AnyCurve, Curve, GridPoint};
use std::cell::Cell;

/// Broadcasts a value held at slot `lo` to every slot in `[lo, hi)` along
/// a balanced binary tree (Lemma 13's virtual broadcast tree).
///
/// Charges `O(hi - lo)` energy and `O(log (hi - lo))` depth on an
/// energy-bound slot order.
pub fn range_broadcast(m: &Machine, lo: Slot, hi: Slot) {
    assert!(lo < hi && hi <= m.n_slots(), "invalid range [{lo}, {hi})");
    broadcast_rec(m, lo, hi);
}

fn broadcast_rec(m: &Machine, lo: Slot, hi: Slot) {
    if hi - lo <= 1 {
        return;
    }
    let mid = lo + (hi - lo) / 2;
    m.send(lo, mid);
    m.tick(lo); // one message per round: the next send from lo is later
    broadcast_rec(m, lo, mid);
    broadcast_rec(m, mid, hi);
}

/// [`barrier`] in closed form: the identical charges and clocks as the
/// unit-token all-reduce (reduce tree + broadcast tree over `[0, n)`)
/// followed by the floor lift, in one O(n) pass over the clocks instead
/// of 2(n−1) sends and ticks.
///
/// Both trees are the balanced split tree of `[0, n)`, split at
/// `mid = lo + (hi − lo)/2`. The charges follow from it:
///
/// - **messages = work = 2(n−1)**: one send and one tick per split, once
///   up and once down.
/// - **energy = 2·Σ dist(lo, mid)** over the splits. It depends only
///   on the placement, so it is computed once per machine.
/// - **depth**: the reduce leaves slot 0 at `R = val(0, n)`, where
///   `val(s, s+1)` is slot `s`'s effective clock and `val(lo, hi) =
///   max(val(lo, mid), val(mid, hi) + 1) + 1` (the receive from `mid`,
///   then the tick). Every other clock is then below `R`. The
///   broadcast's split at recursion depth `k` hands `R + k + 1` to its
///   `mid` and ticks `lo` to the same value, so the deepest leaf ends
///   at `D′ = R + ⌈log₂ n⌉`, the split tree's height, and the new
///   depth is `max(D′, depth)`.
///
/// The closing floor lift then sets every effective clock to the new
/// depth. Every clock the message path would write lies at or below
/// that floor. A clock is only ever read as `max(raw, floor)`, so those
/// writes are unobservable: skipping them leaves [`Machine::report`] and
/// every [`Machine::clock`] bit-identical. A traced machine records
/// each message, so on one this is simply [`barrier`].
pub fn closed_form_barrier(m: &Machine) {
    let n = m.n_slots();
    if n == 0 || m.is_traced() {
        return barrier(m);
    }
    let messages = 2 * (n as u64 - 1);
    m.charge_bulk(barrier_energy(m), messages, messages);
    let (clocks, floor) = m.raw_clocks();
    let depth = m.depth();
    let target = (reduced_clock(clocks, floor) + split_height(n)).max(depth);
    m.advance_all(target - depth);
}

/// Energy of one [`barrier`] over all of `m`'s slots: twice the summed
/// split distances of the balanced split tree of `[0, n)` (see
/// [`closed_form_barrier`]). Computed once per machine, without allocating.
fn barrier_energy(m: &Machine) -> u64 {
    *m.barrier_energy
        .get_or_init(|| 2 * split_energy(m.points(), 0, m.n_slots()))
}

/// `Σ dist(lo, mid)` over the balanced split tree of `[lo, hi)` for
/// slots placed at `points`: the energy of one [`range_broadcast`] (or
/// [`range_reduce`]) over the range.
fn split_energy(points: &[GridPoint], lo: Slot, hi: Slot) -> u64 {
    if hi - lo <= 1 {
        return 0;
    }
    let mid = lo + (hi - lo) / 2;
    manhattan(points[lo as usize], points[mid as usize])
        + split_energy(points, lo, mid)
        + split_energy(points, mid, hi)
}

/// `⌈log₂ n⌉`: the height of the balanced split tree of `n ≥ 1` slots.
fn split_height(n: u32) -> u32 {
    32 - (n - 1).leading_zeros()
}

/// `val(lo, hi)` of [`closed_form_barrier`] for the raw clocks of `[lo, hi)`:
/// slot `lo`'s clock after the reduce tree over the range.
///
/// Over a power-of-two range of `2^k` slots, the split path to offset
/// `i` takes `k` levels and turns right `popcount(i)` times (each right
/// turn is the extra `+1` hop from `mid`), so `val = k + max_i
/// (max(raw_i, floor) + popcount(i))` — a flat pass. The floor's share
/// peaks at `floor + k` (offset `2^k − 1`), leaving only the raw clocks
/// to scan, sixteen at a time with the low four offset bits' popcounts
/// from a table (baseline x86-64 has no popcount instruction).
fn reduced_clock(clocks: &[Cell<u32>], floor: u32) -> u32 {
    const POP16: [u32; 16] = [0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4];
    let len = clocks.len();
    if len == 1 {
        return clocks[0].get().max(floor);
    }
    if len.is_power_of_two() && len >= POP16.len() {
        let k = len.trailing_zeros();
        let raw_max = clocks
            .chunks_exact(POP16.len())
            .zip(0u32..)
            .map(|(block, b)| {
                let block_max = (block.iter().zip(POP16))
                    .map(|(c, pop)| c.get() + pop)
                    .fold(0, u32::max);
                block_max + b.count_ones()
            })
            .fold(0, u32::max);
        return k + raw_max.max(floor + k);
    }
    let (left, right) = clocks.split_at(len / 2);
    reduced_clock(left, floor).max(reduced_clock(right, floor) + 1) + 1
}

/// A *layered broadcast* precomputed for one curve prefix: per layer,
/// a [`range_broadcast`] over each of the layer's disjoint ranges, then
/// a [`barrier`]. This is the batched LCA's step 4 (§VI-C): Lemma 13
/// broadcasts inside every cover subtree of a layer, and a
/// synchronization barrier before the next layer.
///
/// [`LayeredBroadcast::charge`] charges the whole phase in one
/// pass over the entry clocks, one bulk charge and one floor lift,
/// leaving [`Machine::report`] and every [`Machine::clock`]
/// bit-identical to the replay. The closed form follows from the
/// message trees:
///
/// - **energy, messages, work** depend only on the placement and the
///   ranges. A range's broadcast sends `hi − lo − 1` messages, ticks
///   the sender after each, and costs `Σ dist(lo, mid)` over its split
///   tree. Each barrier adds [`closed_form_barrier`]'s totals.
/// - **clocks** evolve max-plus linearly in the effective clocks: a
///   send sets `clock(to) = max(clock(to), clock(from) + 1)` and a tick
///   adds one. So does the barrier's reduce value,
///   `R = max_t(clock(t) + rw[t])`, where `rw[t]` is slot `t`'s path
///   weight in the reduce tree of `[0, n)` (+1 per level, +1 more per
///   right turn). The barrier lifts the floor to `max(R + h, depth)`
///   with `h = ⌈log₂ n⌉`, and `R + h` exceeds every clock the layer's
///   broadcasts wrote.
/// - **The first layer** meets arbitrary entry clocks. Pushing the
///   weights `rw + h` backward through its broadcasts (a tick adds one
///   to the sender's weight, a send raises it to the receiver's plus
///   one) gives per-slot weights `w` with a first floor of
///   `max(max_s(clock(s) + w[s]), depth)`.
/// - **Every later layer** starts with all effective clocks at one
///   floor `T`. Its broadcasts leave slot `t` at `T + d[t]`, where
///   `d[t]` is `t`'s leaf depth in its range's split tree (0 outside
///   every range), so its barrier adds the constant `max_t(d[t] +
///   rw[t]) + h` to the floor.
///
/// Every clock the replay writes lies at or below the final floor, and
/// clocks are only read as `max(raw, floor)`, so skipping those writes
/// is unobservable (the argument of [`closed_form_barrier`]).
#[derive(Debug)]
pub struct LayeredBroadcast {
    /// The curve prefix the constants were computed for.
    placement: CurvePrefix,
    energy: u64,
    /// Messages, which equal the work: one tick per send.
    messages: u64,
    /// The first layer's max-plus weights `w`.
    entry_weights: Vec<u32>,
    /// The later layers' floor increments, summed.
    lift: u32,
}

impl LayeredBroadcast {
    /// Heap bytes the precomputed phase keeps resident: the first
    /// layer's max-plus weights.
    pub fn resident_bytes(&self) -> usize {
        vec_bytes(&self.entry_weights)
    }

    /// Precomputes the phase for the slots `0..n_slots` of `curve` and
    /// `layers`, each given as the `(los, his)` arrays of its `[lo, hi)`
    /// slot ranges, sorted and pairwise disjoint. Costs one batch curve
    /// transform and one walk of every range's split tree. The slot
    /// points are read while the constants are computed and not kept:
    /// the phase keys its placement by the curve prefix (curve kind,
    /// side and slot count).
    pub fn new<'a>(
        curve: &AnyCurve,
        n_slots: u32,
        layers: impl IntoIterator<Item = (&'a [Slot], &'a [Slot])>,
    ) -> Self {
        let n = n_slots;
        assert!(n > 0, "a layered broadcast needs at least one slot");
        let mut points = vec![GridPoint::default(); n as usize];
        curve.point_range_batch(0, &mut points);
        let height = split_height(n);
        let barrier_energy = 2 * split_energy(&points, 0, n);
        let barrier_messages = 2 * (n as u64 - 1);
        // The reduce weights `rw`, which become the entry weights once
        // the later layers have read them.
        let mut weights = vec![0u32; n as usize];
        fill_reduce_weights(&mut weights, 0);
        let reduce_max = weights.iter().copied().fold(0, u32::max);

        let mut layers = layers.into_iter();
        let (first_los, first_his) = layers
            .next()
            .expect("a layered broadcast needs at least one layer");
        let mut energy = barrier_energy;
        let mut messages = barrier_messages + layer_messages(first_los, first_his, n);
        let mut lift = 0;
        for (los, his) in layers {
            energy += barrier_energy;
            messages += barrier_messages + layer_messages(los, his, n);
            let mut reach = reduce_max;
            for (&lo, &hi) in los.iter().zip(his) {
                let (e, r) = broadcast_reach(&points, &weights, lo, hi, 0);
                energy += e;
                reach = reach.max(r);
            }
            lift += reach + height;
        }
        for w in &mut weights {
            *w += height;
        }
        for (&lo, &hi) in first_los.iter().zip(first_his) {
            energy += pull_back_broadcast(&points, &mut weights, lo, hi);
        }
        LayeredBroadcast {
            placement: CurvePrefix {
                kind: curve.kind(),
                side: curve.side(),
                n_slots: n,
            },
            energy,
            messages,
            entry_weights: weights,
            lift,
        }
    }

    /// Charges the phase on `m` in closed form and returns `true`. On a
    /// traced machine, which records every message, or one that is not
    /// on the curve prefix this phase was computed for (another curve,
    /// another side, another slot count, or explicit points, as
    /// [`Machine::repoint`] keys them), it charges nothing and returns
    /// `false`: the caller then replays the broadcasts and barriers
    /// message by message.
    pub fn charge(&self, m: &Machine) -> bool {
        if m.is_traced() || m.curve_prefix() != Some(self.placement) {
            return false;
        }
        m.charge_bulk(self.energy, self.messages, self.messages);
        let (clocks, floor) = m.raw_clocks();
        let reach = (clocks.iter().zip(&self.entry_weights))
            .map(|(c, &w)| c.get().max(floor) + w)
            .fold(0, u32::max);
        let depth = m.depth();
        m.advance_all(reach.max(depth) + self.lift - depth);
        true
    }
}

/// The messages of one [`range_broadcast`] over each of a layer's
/// ranges, `Σ (hi − lo − 1)`. The ranges must be sorted, pairwise
/// disjoint and inside `[0, n)`.
fn layer_messages(los: &[Slot], his: &[Slot], n: u32) -> u64 {
    assert_eq!(los.len(), his.len(), "one hi per lo");
    let mut prev_hi = 0;
    (los.iter().zip(his))
        .map(|(&lo, &hi)| {
            assert!(
                prev_hi <= lo && lo < hi && hi <= n,
                "range [{lo}, {hi}) overlaps its layer or leaves the machine"
            );
            prev_hi = hi;
            (hi - lo - 1) as u64
        })
        .sum()
}

/// Fills `rw` with the reduce-tree path weights of its slots (see
/// [`LayeredBroadcast`]): entering a half costs one level, and the
/// right half's value arrives one hop later.
fn fill_reduce_weights(rw: &mut [u32], acc: u32) {
    if rw.len() == 1 {
        rw[0] = acc;
        return;
    }
    let (left, right) = rw.split_at_mut(rw.len() / 2);
    fill_reduce_weights(left, acc + 1);
    fill_reduce_weights(right, acc + 2);
}

/// Pushes the max-plus weights `w` backward through a
/// [`range_broadcast`] over `[lo, hi)`, in reverse message order: each
/// split's subtrees, then its sender's tick (+1), then its send (the
/// sender's weight rises to the receiver's + 1). Returns the
/// broadcast's energy.
fn pull_back_broadcast(points: &[GridPoint], w: &mut [u32], lo: Slot, hi: Slot) -> u64 {
    if hi - lo <= 1 {
        return 0;
    }
    let mid = lo + (hi - lo) / 2;
    let energy = manhattan(points[lo as usize], points[mid as usize])
        + pull_back_broadcast(points, w, lo, mid)
        + pull_back_broadcast(points, w, mid, hi);
    w[lo as usize] = w[lo as usize].max(w[mid as usize]) + 1;
    energy
}

/// A [`range_broadcast`] over `[lo, hi)` from level clocks leaves each
/// slot `t` at its leaf depth `d[t]` below `depth` in the range's split
/// tree. Returns the broadcast's energy and `max_t(d[t] + rw[t])`.
fn broadcast_reach(points: &[GridPoint], rw: &[u32], lo: Slot, hi: Slot, depth: u32) -> (u64, u32) {
    if hi - lo <= 1 {
        return (0, depth + rw[lo as usize]);
    }
    let mid = lo + (hi - lo) / 2;
    let (left_energy, left_reach) = broadcast_reach(points, rw, lo, mid, depth + 1);
    let (right_energy, right_reach) = broadcast_reach(points, rw, mid, hi, depth + 1);
    (
        manhattan(points[lo as usize], points[mid as usize]) + left_energy + right_energy,
        left_reach.max(right_reach),
    )
}

/// Reduces the `values` of slots `[lo, hi)` into slot `lo` with the
/// associative operator `op`, along the mirror of the broadcast tree.
///
/// Returns the combined value. Charges `O(hi - lo)` energy and
/// `O(log (hi - lo))` depth on an energy-bound slot order.
pub fn range_reduce<T, F>(m: &Machine, lo: Slot, hi: Slot, values: &[T], op: &F) -> T
where
    T: Copy,
    F: Fn(T, T) -> T,
{
    assert!(lo < hi && hi <= m.n_slots(), "invalid range [{lo}, {hi})");
    assert_eq!(
        values.len() as u32,
        hi - lo,
        "need one value per slot in the range"
    );
    reduce_rec(m, lo, hi, values, op)
}

fn reduce_rec<T, F>(m: &Machine, lo: Slot, hi: Slot, values: &[T], op: &F) -> T
where
    T: Copy,
    F: Fn(T, T) -> T,
{
    if hi - lo <= 1 {
        return values[0];
    }
    let mid = lo + (hi - lo) / 2;
    let split = (mid - lo) as usize;
    let (lv, rv) = values.split_at(split);
    let left = reduce_rec(m, lo, mid, lv, op);
    let right = reduce_rec(m, mid, hi, rv, op);
    m.send(mid, lo);
    m.tick(lo);
    op(left, right)
}

/// Reduce followed by broadcast over the whole machine: every slot learns
/// the combined value. This is the paper's synchronization barrier
/// (`O(n)` energy, `O(log n)` depth).
pub fn all_reduce<T, F>(m: &Machine, values: &[T], op: &F) -> T
where
    T: Copy,
    F: Fn(T, T) -> T,
{
    let n = m.n_slots();
    let total = range_reduce(m, 0, n, values, op);
    range_broadcast(m, 0, n);
    total
}

/// A synchronization barrier: an all-reduce carrying a unit token.
/// Afterwards every slot's clock is at least the pre-barrier depth.
pub fn barrier(m: &Machine) {
    let n = m.n_slots();
    if n == 0 {
        return;
    }
    if n > 1 {
        let units = vec![(); n as usize];
        all_reduce(m, &units, &|_, _| ());
    }
    // The broadcast only advances clocks of receivers; lift everyone to
    // the post-barrier frontier.
    m.advance_all(0);
}

/// Exclusive prefix sum (Blelloch scan) of `values` over slots
/// `0..values.len()` with associative `op` and `identity`.
///
/// Returns the exclusive scan; charges `O(n)` energy and `O(log n)` depth
/// on a distance-bound curve. Stages are charged in bulk (energy summed
/// in parallel, one synchronous depth step per stage).
pub fn exclusive_prefix_sum<T, F>(m: &Machine, values: &[T], identity: T, op: &F) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync,
{
    let n = values.len();
    assert!(n as u32 <= m.n_slots(), "more values than slots");
    if n == 0 {
        return Vec::new();
    }
    let padded = n.next_power_of_two();
    let mut a: Vec<T> = Vec::with_capacity(padded);
    a.extend_from_slice(values);
    a.resize(padded, identity);

    // Up-sweep.
    let mut stride = 1usize;
    while stride < padded {
        let step = stride * 2;
        let energy: u64 = (step - 1..padded)
            .into_par_iter()
            .step_by(step)
            .filter(|&i| i < n && i >= stride && i - stride < n)
            .map(|i| m.dist((i - stride) as Slot, i as Slot))
            .sum();
        let msgs = ((padded / step) as u64).min(n as u64);
        m.charge_bulk(energy, msgs, msgs);
        for i in (step - 1..padded).step_by(step) {
            a[i] = op(a[i - stride], a[i]);
        }
        m.advance_all(1);
        stride = step;
    }

    // Down-sweep.
    a[padded - 1] = identity;
    stride = padded / 2;
    while stride >= 1 {
        let step = stride * 2;
        let energy: u64 = (step - 1..padded)
            .into_par_iter()
            .step_by(step)
            .filter(|&i| i < n && i >= stride && i - stride < n)
            .map(|i| m.dist((i - stride) as Slot, i as Slot))
            .sum();
        let msgs = ((padded / step) as u64).min(n as u64);
        m.charge_bulk(energy, msgs, msgs);
        for i in (step - 1..padded).step_by(step) {
            let left = a[i - stride];
            a[i - stride] = a[i];
            a[i] = op(left, a[i]);
        }
        m.advance_all(1);
        stride /= 2;
    }

    a.truncate(n);
    a
}

/// Inclusive prefix sum: the exclusive scan combined with each element.
pub fn inclusive_prefix_sum<T, F>(m: &Machine, values: &[T], identity: T, op: &F) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync,
{
    let ex = exclusive_prefix_sum(m, values, identity, op);
    ex.into_iter()
        .zip(values)
        .map(|(acc, &v)| op(acc, v))
        .collect()
}

/// Sorts `(key, value)` records held one-per-slot with a bitonic sorting
/// network, charging every compare-exchange stage.
///
/// Returns the records in sorted order. Energy is `Θ(n^{3/2})` on any
/// square-grid placement — matching the global-permutation lower bound —
/// and depth is `O(log² n)`. Records are padded with virtual `+∞`
/// sentinels to the next power of two; exchanges that involve a sentinel
/// are free (the pad region is known to every processor and never holds
/// data).
pub fn bitonic_sort_by_key<K, V>(m: &Machine, records: &mut Vec<(K, V)>)
where
    K: Ord + Copy + Send + Sync,
    V: Copy + Send + Sync,
{
    let n = records.len();
    assert!(n as u32 <= m.n_slots(), "more records than slots");
    if n <= 1 {
        return;
    }
    let padded = n.next_power_of_two();
    let mut a: Vec<Option<(K, V)>> = records.drain(..).map(Some).collect();
    a.resize(padded, None);

    let mut k = 2usize;
    while k <= padded {
        let mut j = k / 2;
        while j >= 1 {
            // Charge the stage: every real-real pair exchanges two
            // messages (one each way) at the slots' Manhattan distance.
            let energy: u64 = (0..padded)
                .into_par_iter()
                .map(|i| {
                    let l = i ^ j;
                    if l > i && l < n && i < n {
                        2 * m.dist(i as Slot, l as Slot)
                    } else {
                        0
                    }
                })
                .sum();
            let pairs = (0..padded)
                .filter(|&i| {
                    let l = i ^ j;
                    l > i && l < n
                })
                .count() as u64;
            m.charge_bulk(energy, 2 * pairs, pairs);
            m.advance_all(1);

            for i in 0..padded {
                let l = i ^ j;
                if l > i {
                    let ascending = i & k == 0;
                    let swap = match (&a[i], &a[l]) {
                        (Some((ki, _)), Some((kl, _))) => {
                            if ascending {
                                ki > kl
                            } else {
                                ki < kl
                            }
                        }
                        // None acts as +∞.
                        (None, Some(_)) => ascending,
                        (Some(_), None) => !ascending,
                        (None, None) => false,
                    };
                    if swap {
                        a.swap(i, l);
                    }
                }
            }
            j /= 2;
        }
        k *= 2;
    }

    records.extend(a.into_iter().flatten());
    debug_assert_eq!(records.len(), n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CurveKind;
    use rand::prelude::*;

    fn hilbert_machine(n: u32) -> Machine {
        Machine::on_curve(CurveKind::Hilbert, n)
    }

    #[test]
    fn broadcast_linear_energy_log_depth() {
        for log_n in [8u32, 10, 12] {
            let n = 1u32 << log_n;
            let m = hilbert_machine(n);
            range_broadcast(&m, 0, n);
            let r = m.report();
            assert_eq!(
                r.messages,
                n as u64 - 1,
                "tree broadcast sends n-1 messages"
            );
            assert!(
                r.energy_per_n(n as u64) < 8.0,
                "n={n}: broadcast energy/n = {} not O(1)",
                r.energy_per_n(n as u64)
            );
            assert!(
                r.depth as f64 <= 3.0 * log_n as f64 + 4.0,
                "n={n}: broadcast depth {} not O(log n)",
                r.depth
            );
        }
    }

    #[test]
    fn broadcast_range_offsets() {
        let m = hilbert_machine(256);
        range_broadcast(&m, 17, 93);
        let r = m.report();
        assert_eq!(r.messages, (93 - 17 - 1) as u64);
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn broadcast_rejects_empty_range() {
        let m = hilbert_machine(8);
        range_broadcast(&m, 5, 5);
    }

    #[test]
    fn reduce_combines_and_charges() {
        let n = 1u32 << 10;
        let m = hilbert_machine(n);
        let values: Vec<u64> = (0..n as u64).collect();
        let total = range_reduce(&m, 0, n, &values, &|a, b| a + b);
        assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
        let r = m.report();
        assert_eq!(r.messages, n as u64 - 1);
        assert!(r.energy_per_n(n as u64) < 8.0);
        assert!(r.depth <= 3 * 10 + 4);
    }

    #[test]
    fn reduce_with_max_operator() {
        let m = hilbert_machine(64);
        let values: Vec<i64> = vec![3, -7, 42, 0, 9, 41, -1, 42, 5, 6, 7, 8, 1, 2, 3, 4];
        let top = range_reduce(&m, 0, 16, &values, &|a, b| a.max(b));
        assert_eq!(top, 42);
    }

    #[test]
    fn all_reduce_reaches_everyone() {
        let n = 128u32;
        let m = hilbert_machine(n);
        let values = vec![1u64; n as usize];
        let total = all_reduce(&m, &values, &|a, b| a + b);
        assert_eq!(total, n as u64);
        // Every slot participated: roughly 2(n-1) messages.
        assert_eq!(m.report().messages, 2 * (n as u64 - 1));
    }

    #[test]
    fn barrier_lifts_all_clocks() {
        let m = hilbert_machine(64);
        m.send(0, 1);
        m.send(1, 2);
        let before = m.depth();
        barrier(&m);
        for s in 0..64 {
            assert!(m.clock(s) >= before, "slot {s} below pre-barrier depth");
        }
    }

    #[test]
    fn prefix_sum_matches_sequential() {
        let n = 1000usize;
        let mut rng = StdRng::seed_from_u64(7);
        let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100)).collect();
        let m = hilbert_machine(n as u32);
        let got = exclusive_prefix_sum(&m, &values, 0, &|a, b| a + b);
        let mut acc = 0u64;
        for i in 0..n {
            assert_eq!(got[i], acc, "exclusive prefix mismatch at {i}");
            acc += values[i];
        }
        let r = m.report();
        assert!(
            r.energy_per_n(n as u64) < 16.0,
            "prefix sum energy/n = {}",
            r.energy_per_n(n as u64)
        );
        assert!(r.depth as f64 <= 2.0 * (n as f64).log2() + 6.0);
    }

    #[test]
    fn inclusive_prefix_sum_shifts() {
        let m = hilbert_machine(8);
        let values = vec![1u64, 2, 3, 4];
        assert_eq!(
            inclusive_prefix_sum(&m, &values, 0, &|a, b| a + b),
            vec![1, 3, 6, 10]
        );
    }

    #[test]
    fn prefix_sum_empty_and_single() {
        let m = hilbert_machine(4);
        let empty: Vec<u64> = vec![];
        assert!(exclusive_prefix_sum(&m, &empty, 0, &|a, b| a + b).is_empty());
        assert_eq!(exclusive_prefix_sum(&m, &[5u64], 0, &|a, b| a + b), vec![0]);
    }

    #[test]
    fn bitonic_sorts_correctly() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1usize, 2, 5, 64, 100, 1000] {
            let m = hilbert_machine(n as u32);
            let mut records: Vec<(u64, u32)> = (0..n)
                .map(|i| (rng.gen_range(0..1_000_000), i as u32))
                .collect();
            let mut expect = records.clone();
            expect.sort_by_key(|r| r.0);
            bitonic_sort_by_key(&m, &mut records);
            let got_keys: Vec<u64> = records.iter().map(|r| r.0).collect();
            let want_keys: Vec<u64> = expect.iter().map(|r| r.0).collect();
            assert_eq!(got_keys, want_keys, "n={n}");
        }
    }

    #[test]
    fn bitonic_energy_scales_three_halves() {
        // Energy/n^{3/2} should be roughly flat across sizes (within 2x),
        // while energy/n grows — the Θ(n^{3/2}) signature.
        let mut ratios = Vec::new();
        for log_n in [8u32, 10, 12] {
            let n = 1usize << log_n;
            let m = hilbert_machine(n as u32);
            let mut recs: Vec<(u64, u32)> = (0..n)
                .map(|i| (((i * 2654435761) % 1_000_003) as u64, i as u32))
                .collect();
            bitonic_sort_by_key(&m, &mut recs);
            ratios.push(m.report().energy_per_n_three_halves(n as u64));
        }
        let (min, max) = (
            ratios.iter().cloned().fold(f64::MAX, f64::min),
            ratios.iter().cloned().fold(0.0, f64::max),
        );
        assert!(
            max / min < 3.0,
            "energy/n^1.5 should be near-constant, got {ratios:?}"
        );
    }

    #[test]
    fn bitonic_depth_polylog() {
        let n = 1usize << 10;
        let m = hilbert_machine(n as u32);
        let mut recs: Vec<(u64, u32)> = (0..n).map(|i| ((n - i) as u64, i as u32)).collect();
        bitonic_sort_by_key(&m, &mut recs);
        let stages = (10 * 11) / 2; // log n (log n + 1) / 2
        assert_eq!(m.report().depth, stages as u64);
    }

    #[test]
    fn barrier_local_single_slot() {
        let replay = hilbert_machine(1);
        barrier(&replay);
        let closed = hilbert_machine(1);
        closed_form_barrier(&closed);
        assert_eq!(replay.report(), closed.report());
    }

    #[test]
    fn prefix_sum_on_zorder_machine() {
        // The collectives also run on Z-order placements.
        let n = 512usize;
        let m = Machine::on_curve(CurveKind::ZOrder, n as u32);
        let values = vec![1u64; n];
        let got = exclusive_prefix_sum(&m, &values, 0, &|a, b| a + b);
        assert_eq!(got[n - 1], (n - 1) as u64);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::CurveKind;
    use proptest::prelude::*;

    proptest! {
        /// Prefix sums agree with the sequential scan for any inputs.
        #[test]
        fn prop_prefix_sum_correct(values in proptest::collection::vec(0u64..1000, 1..200)) {
            let m = Machine::on_curve(CurveKind::Hilbert, values.len() as u32);
            let got = exclusive_prefix_sum(&m, &values, 0, &|a, b| a + b);
            let mut acc = 0u64;
            for (i, &v) in values.iter().enumerate() {
                prop_assert_eq!(got[i], acc);
                acc += v;
            }
        }

        /// Bitonic sort sorts any record set and preserves multiplicity.
        #[test]
        fn prop_bitonic_sorts(keys in proptest::collection::vec(0u64..100, 1..150)) {
            let m = Machine::on_curve(CurveKind::Hilbert, keys.len() as u32);
            let mut records: Vec<(u64, u32)> =
                keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
            bitonic_sort_by_key(&m, &mut records);
            let got: Vec<u64> = records.iter().map(|r| r.0).collect();
            let mut want = keys.clone();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }

        /// Reduce computes the fold regardless of range position.
        #[test]
        fn prop_reduce_any_range(
            values in proptest::collection::vec(0u64..1000, 2..100),
            offset in 0u32..50,
        ) {
            let n = values.len() as u32;
            let m = Machine::on_curve(CurveKind::Hilbert, n + offset);
            let total = range_reduce(&m, offset, offset + n, &values, &|a, b| a + b);
            prop_assert_eq!(total, values.iter().sum::<u64>());
        }
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::machine::MachineBuilder;
    use crate::CurveKind;

    /// White-box check: a range broadcast over [0, 8) sends exactly the
    /// balanced-binary-tree edges, in dependency order.
    #[test]
    fn broadcast_trace_is_balanced_tree() {
        let m = MachineBuilder::on_curve(CurveKind::Hilbert, 8)
            .trace(true)
            .build();
        range_broadcast(&m, 0, 8);
        let trace = m.take_trace();
        let edges: Vec<(u32, u32)> = trace.iter().map(|e| (e.from, e.to)).collect();
        // Root splits [0,8) at 4; then [0,4) at 2, [4,8) at 6; etc.
        assert_eq!(edges.len(), 7);
        assert!(edges.contains(&(0, 4)));
        assert!(edges.contains(&(0, 2)));
        assert!(edges.contains(&(4, 6)));
        assert!(edges.contains(&(0, 1)));
        assert!(edges.contains(&(2, 3)));
        assert!(edges.contains(&(4, 5)));
        assert!(edges.contains(&(6, 7)));
        // Every receiver's depth is after its sender's receive.
        for e in &trace {
            let sender_receipt = trace
                .iter()
                .find(|f| f.to == e.from)
                .map(|f| f.depth_after)
                .unwrap_or(0);
            assert!(
                e.depth_after > sender_receipt,
                "{} → {} violates dependency order",
                e.from,
                e.to
            );
        }
    }

    /// The reduce trace is the mirror: same edges, reversed direction.
    #[test]
    fn reduce_trace_mirrors_broadcast() {
        let m = MachineBuilder::on_curve(CurveKind::Hilbert, 8)
            .trace(true)
            .build();
        let values = vec![1u64; 8];
        range_reduce(&m, 0, 8, &values, &|a, b| a + b);
        let up: std::collections::HashSet<(u32, u32)> =
            m.take_trace().iter().map(|e| (e.to, e.from)).collect();

        let m2 = MachineBuilder::on_curve(CurveKind::Hilbert, 8)
            .trace(true)
            .build();
        range_broadcast(&m2, 0, 8);
        let down: std::collections::HashSet<(u32, u32)> =
            m2.take_trace().iter().map(|e| (e.from, e.to)).collect();
        assert_eq!(up, down);
    }
}
