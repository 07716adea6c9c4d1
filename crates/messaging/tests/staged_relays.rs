//! The level-staged reduce relays against the `Vec`-of-`Vec`s oracle.
//!
//! `StagedReduceRelays` stages every group's relay messages by level
//! and charges one `Machine::round` per level from a counting-sorted
//! buffer; `charge_reduce_relays` halves every group's participant list
//! level by level. From the same skewed entry clocks, both must leave
//! the same `report()` and the same `clock(s)` for every slot — also
//! where a group's target is another group's participant, so relays of
//! different groups meet at a shared slot within one level.

use rand::prelude::*;
use spatial_messaging::relay::{charge_reduce_relays, StagedReduceRelays};
use spatial_model::{GridPoint, Machine, Slot};

const SLOTS: u32 = 256;

/// A row of slots with skewed entry clocks: a few random sends, so a
/// relay that chains or reads a clock too late shows in the clocks.
fn skewed(seed: u64) -> Machine {
    let m = Machine::from_points((0..SLOTS).map(|i| GridPoint::new(i % 16, i / 16)).collect());
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..48 {
        m.send(rng.gen_range(0..SLOTS), rng.gen_range(0..SLOTS));
    }
    m
}

fn assert_same_state(got: &Machine, want: &Machine, what: &str) {
    assert_eq!(got.report(), want.report(), "{what}: report");
    for s in 0..SLOTS {
        assert_eq!(got.clock(s), want.clock(s), "{what}: slot {s}");
    }
}

fn check(groups: &[(Vec<Slot>, Slot)], staging: &mut StagedReduceRelays, seed: u64) {
    let what = format!("groups {groups:?}");
    let want = skewed(seed);
    charge_reduce_relays(&want, &mut groups.to_vec());

    let got = skewed(seed);
    for (parts, target) in groups {
        staging.stage(parts.len(), |i| parts[i], *target);
    }
    staging.charge(&got);
    assert_same_state(&got, &want, &what);
}

#[test]
fn staged_reduce_matches_vec_charging() {
    let mut shapes: Vec<Vec<(Vec<Slot>, Slot)>> = vec![
        vec![
            (vec![], 0),
            (vec![2], 1),
            ((4..20).collect(), 3),
            ((51..128).collect(), 50),
        ],
        (0..63).map(|i| (vec![i + 1], i)).collect(),
        vec![((1..200).collect(), 0)],
        vec![((10..17).collect(), 2), ((30..31).collect(), 29)],
        // Targets that are another group's participants: 20 reduces
        // into 5, a participant of the first group, and 5's group
        // reduces into 200, a participant of the last.
        vec![
            ((1..9).collect(), 0),
            ((21..40).collect(), 5),
            ((9..20).collect(), 200),
            ((190..230).collect(), 100),
        ],
        vec![],
    ];
    // Random groups of distinct participants whose targets are any
    // slot, often another group's participant.
    let mut rng = StdRng::seed_from_u64(5);
    for trial in 0..40usize {
        let mut slots: Vec<Slot> = (0..SLOTS).collect();
        slots.shuffle(&mut rng);
        let mut groups = Vec::new();
        let mut at = 0usize;
        while at < slots.len() {
            let k = rng.gen_range(1..=1 + trial % 37).min(slots.len() - at);
            groups.push((slots[at..at + k].to_vec(), rng.gen_range(0..SLOTS)));
            at += k;
        }
        shapes.push(groups);
    }
    // One staging buffer sized to the largest shape serves every charge.
    let mut staging = StagedReduceRelays::with_capacity(SLOTS as usize);
    for (i, groups) in shapes.iter().enumerate() {
        check(groups, &mut staging, i as u64);
    }
}

#[test]
fn a_group_of_k_stages_k_messages() {
    // k − 1 merges plus one message to the target, ⌈log₂ k⌉ + 1 rounds
    // deep (exactly that deep when k is a power of two).
    for k in [1usize, 2, 3, 5, 16, 33, 128, 200] {
        let m = Machine::from_points((0..SLOTS).map(|i| GridPoint::new(i, 0)).collect());
        let mut staging = StagedReduceRelays::with_capacity(k);
        staging.stage(k, |i| i as Slot + 1, 0);
        staging.charge(&m);
        let rounds = (usize::BITS - (k - 1).leading_zeros()) as u64 + 1;
        assert_eq!(m.report().messages, k as u64, "k={k}");
        assert!(m.report().depth <= rounds, "k={k}");
        if k.is_power_of_two() {
            assert_eq!(m.report().depth, rounds, "k={k}");
        }
    }
}
