//! `Machine::round` against a two-phase model of a round: read every
//! sender's clock, then raise each receiver in message order.
//!
//! From a random pre-state (sends, ticks and floor lifts that leave raw
//! clocks on both sides of the floor), a random sequence of rounds —
//! with repeated receivers, slots that both send and receive, and empty
//! batches — must leave the machine and the model with the same
//! `report()`, the same `clock(s)` for every slot and, on traced
//! machines, the same trace events. A round that raised a receiver
//! before it had read every sender would let one message of a batch
//! chain on another, and fail.

use proptest::prelude::*;
use rand::prelude::*;
use spatial_model::{CostReport, CurveKind, Machine, MachineBuilder, Slot, TraceEvent};

/// The machine's observable state, and a round over it phase by phase.
struct Model {
    clocks: Vec<u32>,
    report: CostReport,
    trace: Vec<TraceEvent>,
}

impl Model {
    fn of(m: &Machine) -> Self {
        Model {
            clocks: (0..m.n_slots()).map(|s| m.clock(s)).collect(),
            report: m.report(),
            trace: Vec::new(),
        }
    }

    fn round(&mut self, m: &Machine, msgs: &[(Slot, Slot)]) {
        // Phase 1: every sender's clock, before any receiver moves.
        let carried: Vec<u32> = (msgs.iter())
            .map(|&(from, _)| self.clocks[from as usize] + 1)
            .collect();
        // Phase 2: raise each receiver, in message order.
        for (&(from, to), &after) in msgs.iter().zip(&carried) {
            let energy = m.dist(from, to);
            let clock = &mut self.clocks[to as usize];
            *clock = (*clock).max(after);
            self.report.energy += energy;
            self.report.messages += 1;
            self.report.depth = self.report.depth.max(*clock as u64);
            self.trace.push(TraceEvent {
                from,
                to,
                energy,
                depth_after: after,
            });
        }
    }
}

/// Random sends, ticks and floor lifts: some raw clocks end below the
/// floor, some above.
fn apply_pre_state(m: &Machine, rng: &mut StdRng) {
    let n = m.n_slots();
    for _ in 0..rng.gen_range(0..3 * n as usize + 4) {
        match rng.gen_range(0..10) {
            0 => m.advance_all(rng.gen_range(0..4)),
            1..=3 => m.tick(rng.gen_range(0..n)),
            _ => m.send(rng.gen_range(0..n), rng.gen_range(0..n)),
        }
    }
}

/// A batch drawn from a few slots, so that most of them both send and
/// receive and receivers repeat; empty about one time in eight.
fn batch(n: u32, rng: &mut StdRng) -> Vec<(Slot, Slot)> {
    let pool: Vec<Slot> = (0..rng.gen_range(1..=4))
        .map(|_| rng.gen_range(0..n))
        .collect();
    let pick = |rng: &mut StdRng| pool[rng.gen_range(0..pool.len())];
    (0..rng.gen_range(0..8))
        .map(|_| (pick(&mut *rng), pick(&mut *rng)))
        .collect()
}

fn check_rounds(n: u32, seed: u64, traced: bool) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = MachineBuilder::on_curve(CurveKind::Hilbert, n)
        .trace(traced)
        .build();
    apply_pre_state(&m, &mut rng);
    m.take_trace();
    let mut model = Model::of(&m);
    for _ in 0..rng.gen_range(1..12) {
        let msgs = batch(n, &mut rng);
        m.round(&msgs);
        model.round(&m, &msgs);
        prop_assert_eq!(m.report(), model.report, "batch {msgs:?}");
        for s in 0..n {
            prop_assert_eq!(
                m.clock(s),
                model.clocks[s as usize],
                "slot {s}, batch {msgs:?}"
            );
        }
    }
    if traced {
        prop_assert_eq!(m.take_trace(), model.trace);
    }
    Ok(())
}

proptest! {
    #[test]
    fn round_matches_the_two_phase_model(
        n in 1u32..=64,
        seed in 0u64..u64::MAX,
        traced in 0usize..2,
    ) {
        check_rounds(n, seed, traced == 1)?;
    }
}
