//! Precomputed CSR broadcast schedules over the virtual tree.
//!
//! [`crate::local_broadcast`] rebuilds its per-round message batches on
//! every call — one `Vec` per relay round. Algorithms that broadcast
//! repeatedly over the *same* tree (the batched-LCA engine broadcasts
//! twice per run, every run) instead precompute the relay rounds once
//! as a round-indexed CSR of `(from, to)` slot pairs and replay them.
//! Replaying charges the **identical** message batches — same energy,
//! messages, and depth evolution as the `Vec`-building path — without
//! any per-call allocation.
//!
//! # The construction exchange in closed form
//!
//! The Fig. 4 construction ([`VirtualTree::charge_construction`]) is,
//! per relay round, one [`Machine::round`] of every delivery pair of the
//! round and its reverse (request and response), then a one-step
//! [`Machine::advance_all`]. Its charges follow from the delivery pairs
//! without sending anything ([`BroadcastSchedule::charge_construction`]):
//!
//! - **energy** is `2·Σ dist(p, c)` over the delivery pairs `(p, c)`,
//!   **messages** `2(n − 1)` (one pair per non-root vertex), and work 0;
//! - **round 1** is the only round that meets unequal clocks. Every
//!   endpoint of a round-1 pair both sends and receives, and a raw clock
//!   never exceeds the depth, so the round leaves the depth at `D =
//!   max(depth, 1 + max clock(x))` over the endpoints `x` (`D = depth`
//!   when the round is empty), and its barrier lifts the floor to `D +
//!   1`;
//! - **every later round** starts with every effective clock at the
//!   floor `F`: its messages carry `F + 1` and its barrier lifts the
//!   floor to `F + 2`, or to `F + 1` when the round is empty.
//!
//! Every raw clock the replay writes lies below the final floor, and
//! clocks are only read as `max(raw, floor)`, so skipping those writes
//! is unobservable: [`Machine::report`] and every [`Machine::clock`]
//! come out bit-identical (the argument of
//! [`spatial_model::collectives::closed_form_barrier`]). A traced
//! machine records each message, so on one the rounds are replayed.

use crate::virtual_tree::VirtualTree;
use spatial_layout::Layout;
use spatial_model::{vec_bytes, Machine, Slot};
use spatial_tree::NodeId;

/// Round-indexed CSR schedule of the TRANSFORM virtual tree's delivery
/// pairs, which charge both the Fig. 4 construction exchange and the
/// Theorem 3 local broadcast.
#[derive(Debug, Clone)]
pub struct BroadcastSchedule {
    /// Broadcast delivery pairs (relay parent → vertex), all rounds
    /// back to back, vertices in id order within a round.
    rounds: Vec<(Slot, Slot)>,
    /// End offset into `rounds` after each relay round (one entry per
    /// relay round, including empty rounds, to replay faithfully).
    round_ends: Vec<u32>,
}

impl BroadcastSchedule {
    /// Heap bytes the schedule keeps resident, by capacity.
    pub fn resident_bytes(&self) -> usize {
        vec_bytes(&self.rounds) + vec_bytes(&self.round_ends)
    }

    /// Builds the schedule from a virtual tree over the tree rooted at
    /// `root` and the layout its messages travel on, in one counting
    /// pass over the vertices' relay rounds.
    pub fn new(vt: &VirtualTree, layout: &Layout, root: NodeId) -> Self {
        // The 0-based relay round of every non-root vertex.
        let round_of = |v: NodeId| {
            let r = vt.relay_round(v) as usize;
            (v != root && r > 0).then(|| r - 1)
        };
        let mut round_ends = vec![0u32; vt.max_round() as usize];
        for v in 0..vt.n() {
            if let Some(r) = round_of(v) {
                round_ends[r] += 1;
            }
        }
        // Counts become end offsets; `cursor` holds each round's start.
        let mut cursor = round_ends.clone();
        let mut total = 0u32;
        for (end, at) in round_ends.iter_mut().zip(&mut cursor) {
            *at = total;
            total += *end;
            *end = total;
        }
        let mut rounds = vec![(0, 0); total as usize];
        for v in 0..vt.n() {
            if let Some(r) = round_of(v) {
                rounds[cursor[r] as usize] = (layout.slot(vt.relay_parent(v)), layout.slot(v));
                cursor[r] += 1;
            }
        }
        BroadcastSchedule { rounds, round_ends }
    }

    /// Number of relay rounds in the schedule.
    pub fn num_rounds(&self) -> u32 {
        self.round_ends.len() as u32
    }

    /// Charges the Fig. 4 reference-passing construction (mirror of
    /// [`VirtualTree::charge_construction`]): per relay round, one
    /// machine round of every delivery pair and its reverse, plus one
    /// synchronous step. Charged in closed form (see the module docs):
    /// one pass over the delivery pairs, reading only round 1's clocks,
    /// then one bulk charge and one floor lift. A traced machine replays
    /// the rounds, rebuilding each from its delivery pairs.
    pub fn charge_construction(&self, m: &Machine) {
        if m.is_traced() {
            let mut msgs = Vec::new();
            let mut start = 0usize;
            for &end in &self.round_ends {
                msgs.clear();
                for &(p, c) in &self.rounds[start..end as usize] {
                    msgs.push((p, c));
                    msgs.push((c, p));
                }
                m.round(&msgs);
                m.advance_all(1);
                start = end as usize;
            }
            return;
        }
        let Some((&first_end, later)) = self.round_ends.split_first() else {
            return;
        };
        let (first, rest) = self.rounds.split_at(first_end as usize);
        let (mut energy, mut reach) = (0u64, m.depth());
        for &(p, c) in first {
            energy += m.dist(p, c);
            reach = reach.max(m.clock(p).max(m.clock(c)) + 1);
        }
        energy += rest.iter().map(|&(p, c)| m.dist(p, c)).sum::<u64>();
        let messages = 2 * self.rounds.len() as u64;
        m.charge_bulk(2 * energy, messages, 0);
        let mut floor = reach + 1;
        let mut prev = first_end;
        for &end in later {
            floor += if end > prev { 2 } else { 1 };
            prev = end;
        }
        m.advance_all(floor - m.depth());
    }

    /// Replays the local-broadcast delivery charges (mirror of the
    /// message pattern of [`crate::local_broadcast`]): one machine
    /// round per relay round, consecutive rounds chaining through the
    /// receivers' clocks.
    pub fn charge_broadcast(&self, m: &Machine) {
        let mut start = 0usize;
        for &end in &self.round_ends {
            m.round(&self.rounds[start..end as usize]);
            start = end as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_broadcast;
    use rand::prelude::*;
    use spatial_model::{CurveKind, MachineBuilder};
    use spatial_tree::{generators, Tree};

    fn setup(t: &Tree) -> (Layout, VirtualTree, BroadcastSchedule) {
        let layout = Layout::light_first(t, CurveKind::Hilbert);
        let vt = VirtualTree::new(t);
        let schedule = BroadcastSchedule::new(&vt, &layout, t.root());
        (layout, vt, schedule)
    }

    #[test]
    fn replay_matches_local_broadcast_charges() {
        let mut rng = StdRng::seed_from_u64(11);
        for t in [
            generators::star(100),
            generators::comb(64),
            generators::broom(90, 30),
            generators::preferential_attachment(400, &mut rng),
            generators::uniform_random(333, &mut rng),
        ] {
            let (layout, vt, schedule) = setup(&t);
            let values: Vec<u64> = (0..t.n() as u64).collect();

            let m_vec = layout.machine();
            local_broadcast(&m_vec, &layout, &vt, &t, &values);

            let m_csr = layout.machine();
            schedule.charge_broadcast(&m_csr);

            assert_eq!(m_vec.report(), m_csr.report(), "n = {}", t.n());
        }
    }

    /// `layout`'s machine, traced or not, with skewed entry clocks (a
    /// few random sends, so a closed form that misreads a clock shows).
    fn skewed_machine(layout: &Layout, traced: bool, seed: u64) -> Machine {
        let m = MachineBuilder::from_points(layout.slot_points())
            .trace(traced)
            .build();
        let n = m.n_slots();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n / 4 + 2 {
            m.send(rng.gen_range(0..n), rng.gen_range(0..n));
        }
        m.take_trace();
        m
    }

    #[test]
    fn replay_matches_construction_charges() {
        // The closed form (untraced) must leave the report and every
        // clock exactly where the traced replay and the Vec-building
        // construction of `VirtualTree` leave them, from skewed entry
        // clocks; the replay must also send the construction's messages
        // in its order.
        let mut rng = StdRng::seed_from_u64(13);
        for t in [
            Tree::from_parents(0, vec![spatial_tree::NIL]),
            generators::path(2),
            generators::star(200),
            generators::path(150),
            generators::comb(64),
            generators::broom(90, 30),
            generators::uniform_random(250, &mut rng),
            generators::preferential_attachment(300, &mut rng),
        ] {
            let (layout, vt, schedule) = setup(&t);
            for seed in 0..4 {
                let what = format!("n = {}, seed {seed}", t.n());
                let m_vec = skewed_machine(&layout, true, seed);
                vt.charge_construction(&m_vec, &layout);

                let m_replay = skewed_machine(&layout, true, seed);
                schedule.charge_construction(&m_replay);

                let m_closed = skewed_machine(&layout, false, seed);
                schedule.charge_construction(&m_closed);

                assert_eq!(m_replay.take_trace(), m_vec.take_trace(), "{what}");
                for m in [&m_replay, &m_closed] {
                    assert_eq!(m.report(), m_vec.report(), "{what}");
                    for s in 0..m_vec.n_slots() {
                        assert_eq!(m.clock(s), m_vec.clock(s), "{what}, slot {s}");
                    }
                }
            }
        }
    }

    #[test]
    fn closed_form_counts_an_empty_round_once() {
        // A virtual tree never leaves a relay round empty, but the
        // replay's barrier still lifts the floor by one for such a
        // round: a hand-built schedule with one pins the closed form to
        // that.
        let t = generators::path(8);
        let layout = Layout::light_first(&t, CurveKind::Hilbert);
        let rounds = vec![(0, 1), (1, 2), (2, 3), (5, 4)];
        for round_ends in [vec![2, 2, 3, 3, 4], vec![0, 2, 3, 4, 4]] {
            let schedule = BroadcastSchedule {
                rounds: rounds.clone(),
                round_ends,
            };
            for seed in 0..4 {
                let what = format!("{:?}, seed {seed}", schedule.round_ends);
                let m_replay = skewed_machine(&layout, true, seed);
                schedule.charge_construction(&m_replay);
                let m_closed = skewed_machine(&layout, false, seed);
                schedule.charge_construction(&m_closed);
                assert_eq!(m_closed.report(), m_replay.report(), "{what}");
                for s in 0..m_replay.n_slots() {
                    assert_eq!(m_closed.clock(s), m_replay.clock(s), "{what}, slot {s}");
                }
            }
        }
    }

    #[test]
    fn repeated_replays_accumulate() {
        // Two replays charge exactly twice the messages of one — the
        // LCA engine broadcasts ranges and heavy-child ids back to back.
        let t = generators::star(64);
        let (layout, _, schedule) = setup(&t);
        let m1 = layout.machine();
        schedule.charge_broadcast(&m1);
        let once = m1.report();
        let m2 = layout.machine();
        schedule.charge_broadcast(&m2);
        schedule.charge_broadcast(&m2);
        assert_eq!(m2.report().messages, 2 * once.messages);
        assert_eq!(m2.report().energy, 2 * once.energy);
    }

    #[test]
    fn single_vertex_schedule_is_empty() {
        let t = Tree::from_parents(0, vec![spatial_tree::NIL]);
        let (layout, _, schedule) = setup(&t);
        assert_eq!(schedule.num_rounds(), 0);
        let m = layout.machine();
        schedule.charge_construction(&m);
        schedule.charge_broadcast(&m);
        assert_eq!(m.report(), spatial_model::CostReport::default());
    }
}
