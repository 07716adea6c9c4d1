//! The session charge kernel and its closed forms against the atomic,
//! per-message oracle.
//!
//! Every test starts from a random pre-state: sends, ticks, and floor
//! lifts that leave some raw clocks below the floor and some above.
//!
//! - A random sequence of session operations (sends, ticks, rounds
//!   whose slots both send and receive, floor lifts, bulk charges, and
//!   commit-and-reopen) must leave the same `report()` and the same
//!   `clock(s)` for every slot as the same operations on the atomic
//!   `Machine` path.
//! - `collectives::barrier_local` charges a barrier's totals and clocks
//!   in closed form, while the atomic `collectives::barrier` replays its
//!   2(n−1) sends and ticks. Range broadcasts, then a barrier, repeated,
//!   must leave both machines in the same state. On traced machines the
//!   session barrier keeps the message path, so the recorded events
//!   must match too.
//! - `collectives::LayeredBroadcast` charges a whole phase of per-layer
//!   broadcasts over disjoint ranges and barriers in closed form; it
//!   must match the same phase replayed on the atomic path.

use proptest::prelude::*;
use rand::prelude::*;
use spatial_model::collectives::{
    barrier, barrier_local, range_broadcast, range_broadcast_local, LayeredBroadcast,
};
use spatial_model::{CurveKind, LocalChargeScratch, Machine, MachineBuilder, Slot};

/// One charge. The random pre-state uses the first three kinds, the
/// session differential all of them.
#[derive(Debug, Clone)]
enum Op {
    Send(Slot, Slot),
    Tick(Slot),
    AdvanceAll(u32),
    Round(Vec<(Slot, Slot)>),
    ChargeBulk(u64, u64, u64),
    /// Commit the session and open a new one (nothing on the atomic
    /// path).
    Reopen,
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

/// Charges `op` on the atomic `Machine` path.
fn apply_atomic(m: &Machine, op: &Op) {
    match *op {
        Op::Send(a, b) => m.send(a, b),
        Op::Tick(s) => m.tick(s),
        Op::AdvanceAll(d) => m.advance_all(d),
        Op::Round(ref msgs) => m.round(msgs),
        Op::ChargeBulk(e, messages, w) => m.charge_bulk(e, messages, w),
        Op::Reopen => {}
    }
}

fn apply_pre(m: &Machine, pre: &[Op]) {
    for op in pre {
        apply_atomic(m, op);
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

fn assert_same_state(atomic: &Machine, local: &Machine) -> Result<(), String> {
    prop_assert_eq!(atomic.report(), local.report());
    for s in 0..atomic.n_slots() {
        prop_assert_eq!(atomic.clock(s), local.clock(s), "slot {s}");
    }
    Ok(())
}

/// The step-4 pattern on `n` slots through both barriers.
fn check_step4_pattern(n: u32, barriers: usize, seed: u64, kind: CurveKind) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pre = pre_state(n, &mut rng);
    let layers = layers(n, barriers, &mut rng);
    // Commit and reopen the session after some barriers: each session
    // must pick up where the last one left the clocks.
    let splits: Vec<bool> = (0..barriers).map(|_| rng.gen_range(0..3) == 0).collect();

    let atomic = Machine::on_curve(kind, n);
    apply_pre(&atomic, &pre);
    for ranges in &layers {
        for &(lo, hi) in ranges {
            range_broadcast(&atomic, lo, hi);
        }
        barrier(&atomic);
    }

    let local = Machine::on_curve(kind, n);
    apply_pre(&local, &pre);
    let mut scratch = LocalChargeScratch::new();
    let mut lc = local.begin_local_charge(&mut scratch);
    for (ranges, &split) in layers.iter().zip(&splits) {
        for &(lo, hi) in ranges {
            range_broadcast_local(&mut lc, lo, hi);
        }
        barrier_local(&mut lc);
        if split {
            lc.commit();
            lc = local.begin_local_charge(&mut scratch);
        }
    }
    lc.commit();

    assert_same_state(&atomic, &local)
}

fn session_ops(n: u32, rng: &mut StdRng) -> Vec<Op> {
    (0..rng.gen_range(1..4 * n as usize + 8))
        .map(|_| match rng.gen_range(0..16) {
            0 => Op::AdvanceAll(rng.gen_range(0..4)),
            1 => Op::ChargeBulk(
                rng.gen_range(0..100),
                rng.gen_range(0..8),
                rng.gen_range(0..8),
            ),
            2 => Op::Reopen,
            3..=5 => Op::Tick(rng.gen_range(0..n)),
            6..=9 => {
                // Draw from a few slots so that most of them both send
                // and receive within the round.
                let pool: Vec<Slot> = (0..rng.gen_range(1..=4))
                    .map(|_| rng.gen_range(0..n))
                    .collect();
                let pick = |rng: &mut StdRng| pool[rng.gen_range(0..pool.len())];
                Op::Round(
                    (0..rng.gen_range(0..8))
                        .map(|_| (pick(&mut *rng), pick(&mut *rng)))
                        .collect(),
                )
            }
            _ => Op::Send(rng.gen_range(0..n), rng.gen_range(0..n)),
        })
        .collect()
}

/// The session operations `ops` on both paths, comparing the machines
/// at every commit.
fn check_session_ops(n: u32, seed: u64, kind: CurveKind) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pre = pre_state(n, &mut rng);
    let ops = session_ops(n, &mut rng);

    let atomic = Machine::on_curve(kind, n);
    let local = Machine::on_curve(kind, n);
    apply_pre(&atomic, &pre);
    apply_pre(&local, &pre);
    let mut scratch = LocalChargeScratch::new();
    let mut lc = local.begin_local_charge(&mut scratch);
    for op in &ops {
        apply_atomic(&atomic, op);
        match *op {
            Op::Send(a, b) => lc.send(a, b),
            Op::Tick(s) => lc.tick(s),
            Op::AdvanceAll(d) => lc.advance_all(d),
            Op::Round(ref msgs) => lc.round(msgs),
            Op::ChargeBulk(e, messages, w) => lc.charge_bulk(e, messages, w),
            Op::Reopen => {
                lc.commit();
                assert_same_state(&atomic, &local)?;
                lc = local.begin_local_charge(&mut scratch);
            }
        }
    }
    lc.commit();
    assert_same_state(&atomic, &local)
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

/// A layered broadcast in closed form against its atomic replay.
fn check_layered_broadcast(n: u32, count: usize, seed: u64, kind: CurveKind) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pre = pre_state(n, &mut rng);
    let layers = disjoint_layers(n, count, &mut rng);

    let atomic = Machine::on_curve(kind, n);
    apply_pre(&atomic, &pre);
    for (los, his) in &layers {
        for (&lo, &hi) in los.iter().zip(his) {
            range_broadcast(&atomic, lo, hi);
        }
        barrier(&atomic);
    }

    let local = Machine::on_curve(kind, n);
    apply_pre(&local, &pre);
    let points = (0..n).map(|s| local.point_of(s)).collect();
    let phase = LayeredBroadcast::new(points, layers.iter().map(|(l, h)| (&l[..], &h[..])));
    let mut scratch = LocalChargeScratch::new();
    let mut lc = local.begin_local_charge(&mut scratch);
    prop_assert!(
        phase.charge_local(&mut lc),
        "untraced, same placement: closed form"
    );
    lc.commit();
    assert_same_state(&atomic, &local)?;

    let traced = MachineBuilder::on_curve(kind, n).trace(true).build();
    let mut lc = traced.begin_local_charge(&mut scratch);
    prop_assert!(!phase.charge_local(&mut lc), "traced: replay");
    Ok(())
}

proptest! {
    #[test]
    fn session_ops_match_the_atomic_path(
        n in 1u32..=300,
        seed in 0u64..u64::MAX,
        curve in 0usize..2,
    ) {
        check_session_ops(n, seed, [CurveKind::Hilbert, CurveKind::ZOrder][curve])?;
    }

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

        let atomic = build(n);
        apply_pre(&atomic, &pre);
        for ranges in &layers {
            for &(lo, hi) in ranges {
                range_broadcast(&atomic, lo, hi);
            }
            barrier(&atomic);
        }

        let local = build(n);
        apply_pre(&local, &pre);
        let mut scratch = LocalChargeScratch::new();
        let mut lc = local.begin_local_charge(&mut scratch);
        for ranges in &layers {
            for &(lo, hi) in ranges {
                range_broadcast_local(&mut lc, lo, hi);
            }
            barrier_local(&mut lc);
        }
        lc.commit();

        let events = local.take_trace();
        assert!(n == 1 || events.len() >= 3 * 2 * (n as usize - 1), "n={n}");
        assert_eq!(atomic.take_trace(), events, "n={n}");
        assert_same_state(&atomic, &local).unwrap();
    }
}
