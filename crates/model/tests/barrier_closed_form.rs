//! The closed-form session barrier against the per-message oracle.
//!
//! `collectives::barrier_local` charges a barrier's totals and clocks
//! in closed form, while the atomic `collectives::barrier` replays its
//! 2(n−1) sends and ticks. Starting from a random pre-state (sends,
//! ticks, and floor lifts that leave some raw clocks below the floor
//! and some above), the batched-LCA step-4 pattern — range broadcasts,
//! then a barrier, repeated — must leave both machines with the same
//! `report()` and the same `clock(s)` for every slot. On traced
//! machines the session barrier keeps the message path, so the recorded
//! events must match too.

use proptest::prelude::*;
use rand::prelude::*;
use spatial_model::collectives::{barrier, barrier_local, range_broadcast, range_broadcast_local};
use spatial_model::{CurveKind, LocalChargeScratch, Machine, MachineBuilder, Slot};

/// One charge of the random pre-state.
#[derive(Debug, Clone, Copy)]
enum Pre {
    Send(Slot, Slot),
    Tick(Slot),
    AdvanceAll(u32),
}

fn pre_state(n: u32, rng: &mut StdRng) -> Vec<Pre> {
    (0..rng.gen_range(0..3 * n as usize + 4))
        .map(|_| match rng.gen_range(0..10) {
            0 => Pre::AdvanceAll(rng.gen_range(0..4)),
            1..=3 => Pre::Tick(rng.gen_range(0..n)),
            _ => Pre::Send(rng.gen_range(0..n), rng.gen_range(0..n)),
        })
        .collect()
}

fn apply_pre(m: &Machine, pre: &[Pre]) {
    for &op in pre {
        match op {
            Pre::Send(a, b) => m.send(a, b),
            Pre::Tick(s) => m.tick(s),
            Pre::AdvanceAll(d) => m.advance_all(d),
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

proptest! {
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
