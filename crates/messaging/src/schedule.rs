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

use crate::virtual_tree::VirtualTree;
use spatial_layout::Layout;
use spatial_model::{vec_bytes, Machine, Slot};
use spatial_tree::Tree;

/// Round-indexed CSR schedules for the TRANSFORM virtual tree: the
/// Fig. 4 construction exchange and the Theorem 3 local broadcast.
#[derive(Debug, Clone)]
pub struct BroadcastSchedule {
    /// Construction exchange pairs (request + response per vertex),
    /// all rounds back to back.
    construction: Vec<(Slot, Slot)>,
    /// End offset into `construction` after each round (one entry per
    /// relay round, including empty rounds, to replay faithfully).
    construction_ends: Vec<u32>,
    /// Broadcast delivery pairs (relay parent → vertex), all rounds
    /// back to back.
    rounds: Vec<(Slot, Slot)>,
    /// End offset into `rounds` after each round.
    round_ends: Vec<u32>,
}

impl BroadcastSchedule {
    /// Heap bytes both schedules keep resident, by capacity.
    pub fn resident_bytes(&self) -> usize {
        vec_bytes(&self.construction)
            + vec_bytes(&self.construction_ends)
            + vec_bytes(&self.rounds)
            + vec_bytes(&self.round_ends)
    }

    /// Builds both schedules from a virtual tree and the layout its
    /// messages travel on.
    pub fn new(vt: &VirtualTree, layout: &Layout, tree: &Tree) -> Self {
        let n = vt.n();
        let max_round = vt.max_round();
        let mut construction = Vec::with_capacity(2 * n.saturating_sub(1) as usize);
        let mut construction_ends = Vec::with_capacity(max_round as usize);
        let mut rounds = Vec::with_capacity(n.saturating_sub(1) as usize);
        let mut round_ends = Vec::with_capacity(max_round as usize);
        for round in 1..=max_round {
            for v in 0..n {
                if v == tree.root() || vt.relay_round(v) != round {
                    continue;
                }
                let (p, c) = (layout.slot(vt.relay_parent(v)), layout.slot(v));
                construction.push((p, c));
                construction.push((c, p));
                rounds.push((p, c));
            }
            construction_ends.push(construction.len() as u32);
            round_ends.push(rounds.len() as u32);
        }
        BroadcastSchedule {
            construction,
            construction_ends,
            rounds,
            round_ends,
        }
    }

    /// Number of relay rounds in the schedule.
    pub fn num_rounds(&self) -> u32 {
        self.round_ends.len() as u32
    }

    /// Replays the Fig. 4 reference-passing construction charges
    /// (mirror of [`VirtualTree::charge_construction`]): one machine
    /// round plus one synchronous step per relay round.
    pub fn charge_construction(&self, m: &Machine) {
        let mut start = 0usize;
        for &end in &self.construction_ends {
            m.round(&self.construction[start..end as usize]);
            m.advance_all(1);
            start = end as usize;
        }
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
    use spatial_model::CurveKind;
    use spatial_tree::generators;

    fn setup(t: &Tree) -> (Layout, VirtualTree, BroadcastSchedule) {
        let layout = Layout::light_first(t, CurveKind::Hilbert);
        let vt = VirtualTree::new(t);
        let schedule = BroadcastSchedule::new(&vt, &layout, t);
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

    #[test]
    fn replay_matches_construction_charges() {
        let mut rng = StdRng::seed_from_u64(13);
        for t in [
            generators::star(200),
            generators::uniform_random(250, &mut rng),
        ] {
            let (layout, vt, schedule) = setup(&t);

            let m_vec = layout.machine();
            vt.charge_construction(&m_vec, &layout);

            let m_csr = layout.machine();
            schedule.charge_construction(&m_csr);

            assert_eq!(m_vec.report(), m_csr.report(), "n = {}", t.n());
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
