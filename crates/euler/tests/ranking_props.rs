//! Property suite for spatial list ranking: the list-ordered engine
//! must (a) equal the sequential walk after every contract/uncontract
//! round trip, (b) preserve the `UNRANKED`/`END` sentinel conventions,
//! and (c) behave *identically* to the retained seed implementation —
//! same ranks, round counts, machine charges and per-slot clocks, from
//! the same skewed entry clocks — on random permutations, sparse lists
//! and the Euler tours of every tree family. A run without the by-id
//! scatter, read element by element through the position map, must
//! answer and charge exactly like the scattering `rank()`.

use proptest::prelude::*;
use rand::prelude::*;
use spatial_euler::ranking::{
    rank_sequential, rank_spatial, RankingEngine, RankingRun, END, UNRANKED,
};
use spatial_euler::reference::rank_spatial_reference;
use spatial_euler::tour::{ChildOrder, EulerTour};
use spatial_model::{CurveKind, Machine};
use spatial_tree::generators::TreeFamily;

/// A random permutation list over `n` elements.
fn random_list(n: usize, seed: u64) -> (Vec<u32>, u32) {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let mut next = vec![END; n];
    for w in perm.windows(2) {
        next[w[0] as usize] = w[1];
    }
    (next, perm[0])
}

/// A list over `n` slots where only every `stride`-th element is on the
/// list (exercises the off-list sentinel paths).
fn sparse_list(n: usize, stride: usize) -> (Vec<u32>, u32) {
    let mut next = vec![END; n];
    let members: Vec<u32> = (0..n).step_by(stride).map(|v| v as u32).collect();
    for w in members.windows(2) {
        next[w[0] as usize] = w[1];
    }
    (next, members[0])
}

/// A machine with skewed entry clocks: a few random sends, so a run
/// that reads or raises a clock differently shows per slot.
fn skewed_machine(n_slots: u32, seed: u64) -> Machine {
    let m = Machine::on_curve(CurveKind::Hilbert, n_slots);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    for _ in 0..n_slots / 8 + 2 {
        m.send(rng.gen_range(0..n_slots), rng.gen_range(0..n_slots));
    }
    m
}

/// Same `report()` and the same clock on every slot.
fn assert_same_state(got: &Machine, want: &Machine, what: &str) {
    assert_eq!(
        got.report(),
        want.report(),
        "{what}: machine charges diverged"
    );
    for s in 0..want.n_slots() {
        assert_eq!(got.clock(s), want.clock(s), "{what}: slot {s}");
    }
}

fn compare_engines(next: &[u32], start: u32, n_slots: u32, algo_seed: u64) {
    let m_new = skewed_machine(n_slots, algo_seed);
    let got = rank_spatial(&m_new, next, start, &mut StdRng::seed_from_u64(algo_seed));

    let m_ref = skewed_machine(n_slots, algo_seed);
    let expect = rank_spatial_reference(&m_ref, next, start, &mut StdRng::seed_from_u64(algo_seed));

    assert_eq!(got.ranks, expect.ranks, "ranks diverged");
    assert_eq!(got.rounds, expect.rounds, "round counts diverged");
    assert_same_state(&m_new, &m_ref, "list");
}

#[test]
fn round_trip_equals_sequential_on_permutations() {
    for (n, seed) in [(1usize, 0u64), (2, 1), (7, 2), (64, 3), (513, 4), (2048, 5)] {
        let (next, start) = random_list(n, seed);
        let m = Machine::on_curve(CurveKind::Hilbert, n as u32);
        let got = rank_spatial(&m, &next, start, &mut StdRng::seed_from_u64(seed + 100));
        assert_eq!(got.ranks, rank_sequential(&next, start), "n={n}");
    }
}

#[test]
fn sentinels_preserved_on_sparse_lists() {
    // Off-list elements stay UNRANKED; the END-terminated walk ranks
    // exactly the members.
    for stride in [2usize, 3, 7] {
        let n = 600;
        let (next, start) = sparse_list(n, stride);
        let m = Machine::on_curve(CurveKind::Hilbert, n as u32);
        let got = rank_spatial(&m, &next, start, &mut StdRng::seed_from_u64(9));
        for v in 0..n {
            if v % stride == 0 {
                assert_eq!(got.ranks[v], (v / stride) as u64, "member {v}");
            } else {
                assert_eq!(got.ranks[v], UNRANKED, "off-list {v}");
            }
        }
        // The input successor array is not mutated by the engine.
        let engine = RankingEngine::new(&next, start);
        assert_eq!(engine.list_len(), n.div_ceil(stride));
    }
}

#[test]
fn empty_and_singleton_sentinels() {
    let m = Machine::on_curve(CurveKind::Hilbert, 4);
    let got = rank_spatial(&m, &[END, END, END], END, &mut StdRng::seed_from_u64(0));
    assert_eq!(got.ranks, vec![UNRANKED; 3]);
    assert_eq!(got.rounds, 0);
    assert_eq!(m.report().energy, 0, "empty list charges nothing");

    let got = rank_spatial(&m, &[END], 0, &mut StdRng::seed_from_u64(0));
    assert_eq!(got.ranks, vec![0]);
}

#[test]
fn identical_to_reference_on_fixed_sizes() {
    for (n, list_seed, algo_seed) in [
        (2usize, 0u64, 0u64),
        (16, 1, 7),
        (100, 2, 8),
        (777, 3, 9),
        (4096, 4, 10),
    ] {
        let (next, start) = random_list(n, list_seed);
        compare_engines(&next, start, n as u32, algo_seed);
    }
}

#[test]
fn identical_to_reference_on_sparse_lists() {
    let (next, start) = sparse_list(500, 3);
    for algo_seed in 0..5 {
        compare_engines(&next, start, 500, algo_seed);
    }
}

#[test]
fn identical_to_reference_on_euler_tours_of_every_family() {
    // The dart lists the forest and the layout engine rank: 2n slots,
    // the root's two darts off-list.
    for fam in TreeFamily::ALL {
        for (n, seed) in [(2u32, 1u64), (37, 2), (600, 3)] {
            let tree = fam.generate(n, &mut StdRng::seed_from_u64(seed));
            for order in [ChildOrder::Natural, ChildOrder::LightFirst] {
                let tour = EulerTour::new(&tree, order);
                let next = tour.next_darts();
                compare_engines(next, tour.start(), next.len() as u32, seed + 40);
                let ranks = rank_sequential(next, tour.start());
                let root = tree.root() as usize;
                assert_eq!(ranks[2 * root], UNRANKED, "{fam}: root dart on-list");
                assert_eq!(ranks[2 * root + 1], UNRANKED, "{fam}: root dart on-list");
            }
        }
    }
}

/// A run without the scatter, on a lent set, read through the
/// position map, answers every element (off-list ones `UNRANKED`) like
/// `rank()`'s by-id ranks, and charges, draws and counts rounds like
/// it, from the same skewed entry clocks: on the Euler tours of every
/// family (the root's two darts off-list), sparse lists and the empty
/// list. The lent set never holds by-id ranks.
#[test]
fn run_reads_through_the_position_map_like_rank() {
    let mut lists: Vec<(String, Vec<u32>, u32)> = Vec::new();
    for fam in TreeFamily::ALL {
        for (n, seed) in [(1u32, 0u64), (2, 1), (37, 2), (600, 3)] {
            let tree = fam.generate(n, &mut StdRng::seed_from_u64(seed));
            let tour = EulerTour::new(&tree, ChildOrder::LightFirst);
            lists.push((
                format!("{fam} tour n={}", tree.n()),
                tour.next_darts().to_vec(),
                tour.start(),
            ));
        }
    }
    for stride in [2usize, 5] {
        let (next, start) = sparse_list(300, stride);
        lists.push((format!("sparse stride {stride}"), next, start));
    }
    lists.push(("empty".to_string(), vec![END; 3], END));

    let mut shared = RankingRun::default();
    for (i, (what, next, start)) in lists.iter().enumerate() {
        let n_slots = (next.len() as u32).max(1);
        let rng = StdRng::seed_from_u64(i as u64 + 60);
        let mut engine = RankingEngine::default();
        engine.bind(next, *start);
        engine.swap_run(&mut shared);
        let m_run = skewed_machine(n_slots, i as u64);
        let mut rng_run = rng.clone();
        let rounds = engine.run(&m_run, &mut rng_run);

        let mut scattering = RankingEngine::new(next, *start);
        let m_rank = skewed_machine(n_slots, i as u64);
        let mut rng_rank = rng.clone();
        let rank_rounds = scattering.rank(&m_rank, &mut rng_rank);

        assert_eq!(
            scattering.ranks(),
            &rank_sequential(next, *start)[..],
            "{what}"
        );
        for (e, &r) in scattering.ranks().iter().enumerate() {
            assert_eq!(engine.rank_of(e as u32), r, "{what}: element {e}");
        }
        assert!(engine.ranks().is_empty(), "{what}: a run scattered");
        assert_eq!(rounds, rank_rounds, "{what}: round counts diverged");
        assert_eq!(rng_run, rng_rank, "{what}: rng draws diverged");
        assert_same_state(&m_run, &m_rank, what);
        engine.swap_run(&mut shared);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Contract/uncontract round trip equals sequential ranking and the
    /// seed engine bit for bit, for any list shape and seed.
    #[test]
    fn prop_engine_identical_to_reference(
        n in 1usize..400,
        list_seed in 0u64..10_000,
        algo_seed in 0u64..10_000,
    ) {
        let (next, start) = random_list(n, list_seed);
        compare_engines(&next, start, n as u32, algo_seed);
        let m = Machine::on_curve(CurveKind::Hilbert, n as u32);
        let got = rank_spatial(&m, &next, start, &mut StdRng::seed_from_u64(algo_seed));
        prop_assert_eq!(got.ranks, rank_sequential(&next, start));
    }

    /// Reusing one engine across seeds matches fresh reference runs.
    #[test]
    fn prop_engine_reuse_identical(
        n in 2usize..300,
        list_seed in 0u64..10_000,
        seed_a in 0u64..10_000,
        seed_b in 0u64..10_000,
    ) {
        let (next, start) = random_list(n, list_seed);
        let mut engine = RankingEngine::new(&next, start);
        for algo_seed in [seed_a, seed_b, seed_a] {
            let m_new = skewed_machine(n as u32, algo_seed);
            let rounds = engine.rank(&m_new, &mut StdRng::seed_from_u64(algo_seed));
            let m_ref = skewed_machine(n as u32, algo_seed);
            let expect = rank_spatial_reference(
                &m_ref, &next, start, &mut StdRng::seed_from_u64(algo_seed),
            );
            prop_assert_eq!(engine.ranks(), &expect.ranks[..]);
            prop_assert_eq!(rounds, expect.rounds);
            assert_same_state(&m_new, &m_ref, "reused engine");
        }
    }
}
