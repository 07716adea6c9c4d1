//! Balanced relay charging for arbitrary participant sets.
//!
//! The treefix RAKE operation (§V-A2) reduces the partial sums of a
//! subset of a vertex's children — possibly unboundedly many — into the
//! parent. Under O(1) memory, that reduction travels a balanced binary
//! relay over the participants (in their light-first sibling order, so
//! the participants are near-contiguous on the curve). This module
//! charges such relays without materializing a full [`crate::VirtualTree`]
//! for the shrinking contracted tree: [`charge_reduce_relays`] halves
//! every group level by level (the seed engine's oracle), and
//! [`StagedReduceRelays`] stages every group's messages by level and
//! charges one round per level (the contraction engine's path).

use spatial_model::{vec_bytes, Machine, Slot};

/// Charges a balanced binary *reduce* relay: `participants` combine
/// pairwise (in slice order) and the result arrives at `target`.
///
/// Energy: the distance-weighted relay volume; depth: `⌈log₂ k⌉ + 1`
/// machine rounds for `k` participants. Charges nothing for an empty
/// participant set.
pub fn charge_reduce_relay(m: &Machine, participants: &[Slot], target: Slot) {
    if participants.is_empty() {
        return;
    }
    // Bottom-up halving: in each round, the i-th surviving participant
    // with odd index sends to its even-indexed neighbour.
    let mut current: Vec<Slot> = participants.to_vec();
    while current.len() > 1 {
        let mut msgs = Vec::with_capacity(current.len() / 2);
        let mut next = Vec::with_capacity(current.len().div_ceil(2));
        for pair in current.chunks(2) {
            if pair.len() == 2 {
                msgs.push((pair[1], pair[0]));
            }
            next.push(pair[0]);
        }
        m.round(&msgs);
        current = next;
    }
    m.send(current[0], target);
}

/// Charges a balanced binary *broadcast* relay: a message from `source`
/// reaches every participant (mirror of [`charge_reduce_relay`]).
pub fn charge_broadcast_relay(m: &Machine, source: Slot, participants: &[Slot]) {
    if participants.is_empty() {
        return;
    }
    m.send(source, participants[0]);
    // Top-down doubling over the slice: the holder set doubles each
    // round, each holder forwarding to the midpoint of its segment.
    let mut segments: Vec<(usize, usize)> = vec![(0, participants.len())];
    while !segments.is_empty() {
        let mut msgs = Vec::new();
        let mut next = Vec::new();
        for (lo, hi) in segments {
            if hi - lo <= 1 {
                continue;
            }
            let mid = lo + (hi - lo) / 2;
            msgs.push((participants[lo], participants[mid]));
            next.push((lo, mid));
            next.push((mid, hi));
        }
        if msgs.is_empty() {
            break;
        }
        m.round(&msgs);
        segments = next;
    }
}

/// Charges many independent reduce relays *simultaneously*: all groups
/// advance level by level, each level being one machine round, so
/// relays of different groups never chain through shared endpoints
/// (parent `i`'s child may be parent `i+1`'s source — the messages are
/// still concurrent).
pub fn charge_reduce_relays(m: &Machine, groups: &mut [(Vec<Slot>, Slot)]) {
    let mut done = vec![false; groups.len()];
    loop {
        let mut msgs = Vec::new();
        for (gi, (current, target)) in groups.iter_mut().enumerate() {
            if done[gi] {
                continue;
            }
            if current.len() <= 1 {
                if let Some(&last) = current.first() {
                    msgs.push((last, *target));
                }
                done[gi] = true;
                continue;
            }
            let mut next = Vec::with_capacity(current.len().div_ceil(2));
            for pair in current.chunks(2) {
                if pair.len() == 2 {
                    msgs.push((pair[1], pair[0]));
                }
                next.push(pair[0]);
            }
            *current = next;
        }
        if msgs.is_empty() {
            break;
        }
        m.round(&msgs);
    }
}

/// Charges many independent broadcast relays simultaneously (mirror of
/// [`charge_reduce_relays`]).
pub fn charge_broadcast_relays(m: &Machine, groups: &[(Slot, Vec<Slot>)]) {
    // Round 0: every source reaches its first participant.
    let first: Vec<(Slot, Slot)> = groups
        .iter()
        .filter(|(_, parts)| !parts.is_empty())
        .map(|(src, parts)| (*src, parts[0]))
        .collect();
    if first.is_empty() {
        return;
    }
    m.round(&first);
    // Then segment doubling, one machine round per level across all
    // groups.
    let mut segments: Vec<(usize, usize, usize)> = groups
        .iter()
        .enumerate()
        .filter(|(_, (_, parts))| parts.len() > 1)
        .map(|(gi, (_, parts))| (gi, 0usize, parts.len()))
        .collect();
    while !segments.is_empty() {
        let mut msgs = Vec::new();
        let mut next = Vec::new();
        for (gi, lo, hi) in segments {
            if hi - lo <= 1 {
                continue;
            }
            let parts = &groups[gi].1;
            let mid = lo + (hi - lo) / 2;
            msgs.push((parts[lo], parts[mid]));
            next.push((gi, lo, mid));
            next.push((gi, mid, hi));
        }
        if msgs.is_empty() {
            break;
        }
        m.round(&msgs);
        segments = next;
    }
}

/// Levels a staged reduce relay can have: a group of `k ≤ 2³²`
/// participants reaches its target at level `⌈log₂ k⌉ ≤ 32`.
const RELAY_LEVELS: usize = 33;

/// Many concurrent reduce relays, staged by level and charged one
/// machine round per level — the same charges as
/// [`charge_reduce_relays`], with no per-group arrays and no per-level
/// rescan of the groups.
///
/// [`StagedReduceRelays::stage`] writes each message of a group's relay
/// with its level: level `ℓ` pairs participant `(2j+1)·2^ℓ` into
/// participant `2j·2^ℓ`, and participant 0 reaches the target at level
/// `⌈log₂ k⌉`, so a group of `k` participants stages `k` messages.
/// [`StagedReduceRelays::charge`] counting-sorts them by level and
/// charges each level as one [`Machine::round`]. A round's charges do
/// not depend on the order of its messages, so this equals the
/// level-major halving of [`charge_reduce_relays`], even where a target
/// is another group's participant.
///
/// Sized with [`StagedReduceRelays::with_capacity`] (or grown with
/// [`StagedReduceRelays::reserve`]) to the participants staged between
/// two charges, staging and charging perform **zero heap allocation** —
/// the property the treefix contraction engine relies on.
#[derive(Debug)]
pub struct StagedReduceRelays {
    /// Staged messages, in staging order.
    staged: Vec<(Slot, Slot)>,
    /// Level of every staged message.
    levels: Vec<u8>,
    /// The staged messages sorted by level.
    sorted: Vec<(Slot, Slot)>,
    /// Staged messages per level.
    counts: [u32; RELAY_LEVELS],
}

impl StagedReduceRelays {
    /// Heap bytes the staging keeps resident, by capacity.
    pub fn resident_bytes(&self) -> usize {
        vec_bytes(&self.staged) + vec_bytes(&self.levels) + vec_bytes(&self.sorted)
    }

    /// Staging for up to `participants` relay participants between two
    /// charges.
    pub fn with_capacity(participants: usize) -> Self {
        StagedReduceRelays {
            staged: Vec::with_capacity(participants),
            levels: Vec::with_capacity(participants),
            sorted: Vec::with_capacity(participants),
            counts: [0; RELAY_LEVELS],
        }
    }

    /// Grows the staging to `participants` (never shrinks).
    pub fn reserve(&mut self, participants: usize) {
        fn grow<T>(buf: &mut Vec<T>, cap: usize) {
            buf.reserve_exact(cap.saturating_sub(buf.len()));
        }
        grow(&mut self.staged, participants);
        grow(&mut self.levels, participants);
        grow(&mut self.sorted, participants);
    }

    /// Drops every staged message and zeroes the per-level counts, so
    /// the next charge covers only what is staged after this call.
    pub fn clear(&mut self) {
        self.staged.clear();
        self.levels.clear();
        self.counts = [0; RELAY_LEVELS];
    }

    /// Stages the balanced reduce relay of `k` participants (participant
    /// `i` at `slot_at(i)`, combined pairwise in index order) into
    /// `target`. Stages nothing for `k = 0`.
    #[inline]
    pub fn stage(&mut self, k: usize, slot_at: impl Fn(usize) -> Slot, target: Slot) {
        if k == 0 {
            return;
        }
        let mut level = 0usize;
        let mut step = 1usize;
        while step < k {
            let mut j = step;
            while j < k {
                self.staged.push((slot_at(j), slot_at(j - step)));
                self.levels.push(level as u8);
                self.counts[level] += 1;
                j += 2 * step;
            }
            level += 1;
            step *= 2;
        }
        self.staged.push((slot_at(0), target));
        self.levels.push(level as u8);
        self.counts[level] += 1;
    }

    /// Charges every staged relay concurrently, one machine round per
    /// level, and clears the staging.
    pub fn charge(&mut self, m: &Machine) {
        let mut starts = [0u32; RELAY_LEVELS + 1];
        for l in 0..RELAY_LEVELS {
            starts[l + 1] = starts[l] + self.counts[l];
        }
        let mut at = starts;
        self.sorted.clear();
        self.sorted.resize(self.staged.len(), (0, 0));
        for (&msg, &level) in self.staged.iter().zip(&self.levels) {
            let i = &mut at[level as usize];
            self.sorted[*i as usize] = msg;
            *i += 1;
        }
        for l in 0..RELAY_LEVELS {
            let (lo, hi) = (starts[l] as usize, starts[l + 1] as usize);
            if lo == hi {
                break;
            }
            m.round(&self.sorted[lo..hi]);
        }
        self.clear();
    }
}

/// The doubling levels of one broadcast relay group, charged
/// depth-first message by message: participant `i` of `k` sits at
/// `slot_at(i)`, and participant 0 must already hold the message (round
/// 0 of [`charge_broadcast_relays`]: every source → its first
/// participant, charged for all groups first as one round).
///
/// Each participant after the first receives exactly once, from a
/// participant that received before it, and sends only after that. So
/// when no slot is a participant of two groups, round 0 followed by
/// every group's levels charged this way, in any group order, charges
/// the same energy, messages, per-slot clocks and depth as the
/// level-major rounds of [`charge_broadcast_relays`] — with no segment
/// buffers and no group arrays.
#[inline]
pub fn charge_broadcast_levels_depth_first(
    m: &Machine,
    k: usize,
    slot_at: impl Fn(usize) -> Slot + Copy,
) {
    fn split(m: &Machine, mut lo: usize, hi: usize, slot_at: impl Fn(usize) -> Slot + Copy) {
        // The segment [lo, hi) is held by `lo`; it forwards to the
        // midpoint, recurses left, and iterates right.
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            m.send(slot_at(lo), slot_at(mid));
            split(m, lo, mid, slot_at);
            lo = mid;
        }
    }
    // Two and three participants, the commonest branching groups, send
    // their split tree's one or two messages directly, in its order.
    match k {
        0 | 1 => {}
        2 => m.send(slot_at(0), slot_at(1)),
        3 => {
            let mid = slot_at(1);
            m.send(slot_at(0), mid);
            m.send(mid, slot_at(2));
        }
        _ => split(m, 0, k, slot_at),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use spatial_model::{CurveKind, Machine};

    fn line(n: u32) -> Machine {
        Machine::from_points(
            (0..n)
                .map(|i| spatial_model::GridPoint::new(i, 0))
                .collect(),
        )
    }

    #[test]
    fn empty_participants_free() {
        let m = line(4);
        charge_reduce_relay(&m, &[], 0);
        charge_broadcast_relay(&m, 0, &[]);
        assert_eq!(m.report().energy, 0);
        assert_eq!(m.report().messages, 0);
    }

    #[test]
    fn single_participant_one_message() {
        let m = line(4);
        charge_reduce_relay(&m, &[3], 0);
        assert_eq!(m.report().messages, 1);
        assert_eq!(m.report().energy, 3);
    }

    #[test]
    fn reduce_relay_message_count() {
        // k participants → k messages (k−1 merges + 1 to target).
        for k in [1u32, 2, 5, 16, 33] {
            let m = line(64);
            let parts: Vec<Slot> = (1..=k).collect();
            charge_reduce_relay(&m, &parts, 0);
            assert_eq!(m.report().messages as u32, k, "k={k}");
        }
    }

    #[test]
    fn reduce_relay_depth_logarithmic() {
        let m = line(1024);
        let parts: Vec<Slot> = (0..1000).collect();
        charge_reduce_relay(&m, &parts, 1023);
        let d = m.report().depth;
        assert!(d <= 12, "depth {d} > ⌈log₂ 1000⌉ + 2");
        assert!(d >= 10);
    }

    #[test]
    fn broadcast_relay_reaches_all_with_log_depth() {
        let m = line(1024);
        let parts: Vec<Slot> = (1..1001).collect();
        charge_broadcast_relay(&m, 0, &parts);
        assert_eq!(m.report().messages, 1000);
        assert!(m.report().depth <= 12);
    }

    #[test]
    fn batched_broadcasts_do_not_chain() {
        // A chain of single-child "relays": parent i → child i+1. As
        // independent per-parent calls they would chain to depth n; the
        // batched call keeps them concurrent.
        let m = line(64);
        let groups: Vec<(Slot, Vec<Slot>)> = (0..63).map(|i| (i, vec![i + 1])).collect();
        charge_broadcast_relays(&m, &groups);
        assert_eq!(m.report().depth, 1, "independent broadcasts are parallel");
        assert_eq!(m.report().messages, 63);
    }

    #[test]
    fn batched_reduces_do_not_chain() {
        let m = line(64);
        let mut groups: Vec<(Vec<Slot>, Slot)> = (0..63).map(|i| (vec![i + 1], i)).collect();
        charge_reduce_relays(&m, &mut groups);
        assert_eq!(m.report().depth, 1);
        assert_eq!(m.report().messages, 63);
    }

    #[test]
    fn batched_matches_single_counts() {
        // One large group in the batched API = the single-group charge.
        let m1 = line(256);
        charge_reduce_relay(&m1, &(1..200).collect::<Vec<_>>(), 0);
        let m2 = line(256);
        let mut groups = vec![((1..200).collect::<Vec<_>>(), 0 as Slot)];
        charge_reduce_relays(&m2, &mut groups);
        assert_eq!(m1.report().messages, m2.report().messages);
        assert_eq!(m1.report().energy, m2.report().energy);
    }

    #[test]
    fn batched_mixed_group_sizes() {
        let m = line(128);
        let groups: Vec<(Slot, Vec<Slot>)> = vec![
            (0, vec![]),
            (1, vec![2]),
            (3, (4..20).collect()),
            (50, (51..128).collect()),
        ];
        charge_broadcast_relays(&m, &groups);
        // 0 messages + 1 + 16 + 77.
        assert_eq!(m.report().messages, 94);
        assert!(m.report().depth <= 8);
    }

    /// Round 0 as one round, then every group's doubling levels
    /// depth-first in reverse group order — the CSR-shaped broadcast
    /// the treefix contraction engine charges.
    fn charge_broadcast_csr(m: &Machine, groups: &[(Slot, Vec<Slot>)]) {
        let first: Vec<(Slot, Slot)> = groups
            .iter()
            .filter(|(_, parts)| !parts.is_empty())
            .map(|(src, parts)| (*src, parts[0]))
            .collect();
        m.round(&first);
        for (_, parts) in groups.iter().rev() {
            charge_broadcast_levels_depth_first(m, parts.len(), |i| parts[i]);
        }
    }

    #[test]
    fn csr_broadcast_matches_vec_charging() {
        // Round 0 plus depth-first levels must charge the identical
        // energy, message count, depth and per-slot clocks as the
        // level-major Vec-of-Vecs path: on fixed shapes, and on random
        // groups of distinct participants whose sources are participants
        // of other groups (a parent that is itself some group's child),
        // over pre-skewed clocks so chaining shows.
        let mut shapes: Vec<Vec<(Slot, Vec<Slot>)>> = vec![
            vec![
                (0, vec![]),
                (1, vec![2]),
                (3, (4..20).collect()),
                (50, (51..128).collect()),
            ],
            (0..63).map(|i| (i, vec![i + 1])).collect(),
            vec![
                (5, (6..7).collect()),
                (10, vec![]),
                (20, (21..100).collect()),
            ],
            vec![],
        ];
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..40usize {
            let mut slots: Vec<Slot> = (0..128).collect();
            slots.shuffle(&mut rng);
            let mut groups = Vec::new();
            let mut at = 0usize;
            while at < slots.len() {
                let k = rng.gen_range(1..=1 + trial % 17).min(slots.len() - at);
                groups.push((rng.gen_range(0..128), slots[at..at + k].to_vec()));
                at += k;
            }
            shapes.push(groups);
        }
        for groups in shapes {
            let skewed = || {
                let m = line(128);
                for s in (0..128).step_by(3) {
                    m.send(s, (s + 1) % 128);
                }
                m
            };
            let m_vec = skewed();
            charge_broadcast_relays(&m_vec, &groups);

            let m_csr = skewed();
            charge_broadcast_csr(&m_csr, &groups);

            assert_eq!(m_vec.report(), m_csr.report(), "groups {groups:?}");
            for s in 0..128 {
                assert_eq!(
                    m_vec.clock(s),
                    m_csr.clock(s),
                    "slot {s}, groups {groups:?}"
                );
            }
        }
    }

    #[test]
    fn contiguous_participants_linear_energy() {
        // Contiguous participants on a curve: relay energy O(k) — the
        // Theorem 1 recursion at work.
        let machine = Machine::on_curve(CurveKind::Hilbert, 4096);
        let parts: Vec<Slot> = (1..4096).collect();
        charge_reduce_relay(&machine, &parts, 0);
        let per = machine.report().energy as f64 / 4096.0;
        assert!(per < 8.0, "relay energy per element {per} not O(1)");
    }
}
