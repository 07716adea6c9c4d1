//! The closed-form collectives against the per-message replays.
//!
//! Every test starts from a random pre-state: sends, ticks, and floor
//! lifts that leave some raw clocks below the floor and some above.
//!
//! - `collectives::closed_form_barrier` charges a barrier's totals and
//!   clocks in closed form, while `collectives::barrier` replays its
//!   2(n−1) sends and ticks. Range broadcasts, then a barrier, repeated,
//!   must leave both machines in the same state. On traced machines the
//!   closed form is the replay, so the recorded events must match too.
//! - `collectives::LayeredBroadcast` charges a whole phase of per-layer
//!   broadcasts over disjoint ranges and barriers in closed form; it
//!   must match the same phase replayed message by message.

use proptest::prelude::*;
use rand::prelude::*;
use spatial_model::collectives::{barrier, closed_form_barrier, range_broadcast, LayeredBroadcast};
use spatial_model::{CurveKind, Machine, MachineBuilder, Slot};

/// One charge of the random pre-state.
#[derive(Debug, Clone)]
enum Op {
    Send(Slot, Slot),
    Tick(Slot),
    AdvanceAll(u32),
}

fn pre_state(n: u32, rng: &mut StdRng) -> Vec<Op> {
    (0..rng.gen_range(0..3 * n as usize + 4))
        .map(|_| match rng.gen_range(0..10) {
            0 => Op::AdvanceAll(rng.gen_range(0..4)),
            1..=3 => Op::Tick(rng.gen_range(0..n)),
            _ => Op::Send(rng.gen_range(0..n), rng.gen_range(0..n)),
        })
        .collect()
}

fn apply_pre(m: &Machine, pre: &[Op]) {
    for op in pre {
        match *op {
            Op::Send(a, b) => m.send(a, b),
            Op::Tick(s) => m.tick(s),
            Op::AdvanceAll(d) => m.advance_all(d),
        }
    }
}

/// Per layer: the `[lo, hi)` ranges broadcast before its barrier.
fn layers(n: u32, count: usize, rng: &mut StdRng) -> Vec<Vec<(Slot, Slot)>> {
    (0..count)
        .map(|_| {
            let mut ranges = Vec::new();
            if n >= 2 {
                for _ in 0..rng.gen_range(0..6) {
                    let lo = rng.gen_range(0..n - 1);
                    ranges.push((lo, rng.gen_range(lo + 2..=n)));
                }
            }
            ranges
        })
        .collect()
}

fn assert_same_state(replay: &Machine, closed: &Machine) -> Result<(), String> {
    prop_assert_eq!(replay.report(), closed.report());
    for s in 0..replay.n_slots() {
        prop_assert_eq!(replay.clock(s), closed.clock(s), "slot {s}");
    }
    Ok(())
}

/// The step-4 pattern on `n` slots through both barriers.
fn check_step4_pattern(n: u32, barriers: usize, seed: u64, kind: CurveKind) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pre = pre_state(n, &mut rng);
    let layers = layers(n, barriers, &mut rng);

    let replay = Machine::on_curve(kind, n);
    apply_pre(&replay, &pre);
    for ranges in &layers {
        for &(lo, hi) in ranges {
            range_broadcast(&replay, lo, hi);
        }
        barrier(&replay);
    }

    let closed = Machine::on_curve(kind, n);
    apply_pre(&closed, &pre);
    for ranges in &layers {
        for &(lo, hi) in ranges {
            range_broadcast(&closed, lo, hi);
        }
        closed_form_barrier(&closed);
    }

    assert_same_state(&replay, &closed)
}

/// Per layer: sorted, pairwise disjoint `[lo, hi)` ranges, as
/// `(los, his)`.
fn disjoint_layers(n: u32, count: usize, rng: &mut StdRng) -> Vec<(Vec<Slot>, Vec<Slot>)> {
    (0..count)
        .map(|_| {
            let (mut los, mut his) = (Vec::new(), Vec::new());
            let mut at = rng.gen_range(0..=n.min(3));
            while at < n {
                let hi = rng.gen_range(at + 1..=n.min(at + 1 + n / 2));
                los.push(at);
                his.push(hi);
                at = hi + rng.gen_range(0..=2);
            }
            (los, his)
        })
        .collect()
}

/// A layered broadcast in closed form against its replay.
fn check_layered_broadcast(n: u32, count: usize, seed: u64, kind: CurveKind) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pre = pre_state(n, &mut rng);
    let layers = disjoint_layers(n, count, &mut rng);

    let replay = Machine::on_curve(kind, n);
    apply_pre(&replay, &pre);
    for (los, his) in &layers {
        for (&lo, &hi) in los.iter().zip(his) {
            range_broadcast(&replay, lo, hi);
        }
        barrier(&replay);
    }

    // The closed form runs on the curve prefix it was computed for,
    // which a re-point sets (the same points as `on_curve`).
    let curve = kind.for_capacity(n as u64);
    let mut closed = Machine::default();
    closed.repoint(&curve, n);
    apply_pre(&closed, &pre);
    let phase = LayeredBroadcast::new(&curve, n, layers.iter().map(|(l, h)| (&l[..], &h[..])));
    prop_assert!(
        phase.charge(&closed),
        "untraced, same placement: closed form"
    );
    assert_same_state(&replay, &closed)?;

    let traced = MachineBuilder::on_curve(kind, n).trace(true).build();
    prop_assert!(!phase.charge(&traced), "traced: replay");
    let unkeyed = Machine::on_curve(kind, n);
    prop_assert!(!phase.charge(&unkeyed), "built, not re-pointed: replay");
    Ok(())
}

proptest! {
    #[test]
    fn layered_broadcast_matches_its_replay(
        n in 1u32..=600,
        layers in 1usize..=8,
        seed in 0u64..u64::MAX,
        curve in 0usize..2,
    ) {
        check_layered_broadcast(n, layers, seed, [CurveKind::Hilbert, CurveKind::ZOrder][curve])?;
    }

    #[test]
    fn closed_form_barrier_matches_message_path(
        n in 1u32..=600,
        barriers in 1usize..=12,
        seed in 0u64..u64::MAX,
        curve in 0usize..2,
    ) {
        check_step4_pattern(n, barriers, seed, [CurveKind::Hilbert, CurveKind::ZOrder][curve])?;
    }
}

#[test]
fn closed_form_barrier_matches_on_power_of_two_splits() {
    // Sizes whose split trees reach power-of-two ranges of 16 slots or
    // more, where the reduce is one flat pass, next to their neighbours.
    for n in [
        15u32, 16, 17, 31, 32, 33, 48, 96, 127, 128, 129, 255, 256, 384, 512, 513, 1024,
    ] {
        for seed in 0..4 {
            check_step4_pattern(n, 6, seed, CurveKind::Hilbert)
                .unwrap_or_else(|e| panic!("n={n} seed={seed}: {e}"));
        }
    }
}

#[test]
fn traced_session_barrier_records_the_same_messages() {
    let build = |n| {
        MachineBuilder::on_curve(CurveKind::Hilbert, n)
            .trace(true)
            .build()
    };
    for n in [1u32, 2, 3, 7, 64, 100, 257, 600] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let pre = pre_state(n, &mut rng);
        let layers = layers(n, 3, &mut rng);

        let replay = build(n);
        apply_pre(&replay, &pre);
        for ranges in &layers {
            for &(lo, hi) in ranges {
                range_broadcast(&replay, lo, hi);
            }
            barrier(&replay);
        }

        let closed = build(n);
        apply_pre(&closed, &pre);
        for ranges in &layers {
            for &(lo, hi) in ranges {
                range_broadcast(&closed, lo, hi);
            }
            closed_form_barrier(&closed);
        }

        let events = closed.take_trace();
        assert!(n == 1 || events.len() >= 3 * 2 * (n as usize - 1), "n={n}");
        assert_eq!(replay.take_trace(), events, "n={n}");
        assert_same_state(&replay, &closed).unwrap();
    }
}
