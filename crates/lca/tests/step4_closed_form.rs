//! Step 4 of the batched LCA (§VI-C) in closed form against the
//! per-message oracle.
//!
//! `LcaEngine::charge_step4` charges the per-layer range broadcasts and
//! barriers through the `LayeredBroadcast` it computed at bind. The
//! oracle replays them message by message: `range_broadcast` inside
//! every cover subtree of a layer, then `barrier`. From random
//! entry clocks (sends, ticks and floor lifts that leave raw clocks on
//! both sides of the floor), both must leave the same `report()` and the
//! same `clock(s)` for every slot, and a treefix run after them must
//! charge identically. The closed form is keyed by the layout's curve
//! prefix (curve kind, side, slot count): it runs on `Layout::machine`
//! and on a machine re-pointed onto the layout's curve at `n` slots.
//! Every other machine replays — one built from explicit points (even
//! the layout's own) or built on a curve, one re-pointed onto another
//! side or slot count of the curve family, and a traced one, which must
//! record the oracle's events.

use rand::prelude::*;
use spatial_layout::Layout;
use spatial_lca::LcaEngine;
use spatial_model::collectives::{barrier, range_broadcast, LayeredBroadcast};
use spatial_model::{CurveKind, GridPoint, Machine, MachineBuilder};
use spatial_tree::generators::TreeFamily;
use spatial_treefix::Add;

/// Random charges before step 4: some raw clocks end below the floor,
/// some above.
fn apply_entry_clocks(m: &Machine, seed: u64) {
    let n = m.n_slots();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..rng.gen_range(0..3 * n as usize + 4) {
        match rng.gen_range(0..10) {
            0 => m.advance_all(rng.gen_range(0..4)),
            1..=3 => m.tick(rng.gen_range(0..n)),
            _ => m.send(rng.gen_range(0..n), rng.gen_range(0..n)),
        }
    }
}

/// The oracle: step 4 replayed message by message.
fn replay_step4(engine: &LcaEngine, m: &Machine) {
    let cover = engine.cover();
    for li in 0..cover.num_layers() {
        let (los, his) = cover.layer_ranges(li);
        for (&lo, &hi) in los.iter().zip(his) {
            range_broadcast(m, lo, hi);
        }
        barrier(m);
    }
}

/// A subtree-sum treefix on the engine's contraction engine.
fn treefix_run(engine: &mut LcaEngine, m: &Machine, seed: u64) {
    let ones = vec![Add(1); engine.children_csr().n() as usize];
    let treefix = engine.treefix_mut();
    treefix.load(&ones, true);
    treefix.contract(m, &mut StdRng::seed_from_u64(seed));
    treefix.uncontract_bottom_up(m);
}

fn assert_same_state(got: &Machine, want: &Machine, what: &str) {
    assert_eq!(got.report(), want.report(), "{what}: report");
    for s in 0..want.n_slots() {
        assert_eq!(got.clock(s), want.clock(s), "{what}: slot {s}");
    }
}

/// Step 4 through the engine on `build()`'s machine against the oracle
/// on another, both from the same entry clocks; then a treefix run on
/// each. Returns both machines.
fn check(
    engine: &mut LcaEngine,
    build: impl Fn() -> Machine,
    seed: u64,
    what: &str,
) -> (Machine, Machine) {
    let (got, want) = (build(), build());
    apply_entry_clocks(&got, seed);
    apply_entry_clocks(&want, seed);
    engine.charge_step4(&got);
    replay_step4(engine, &want);
    assert_same_state(&got, &want, what);
    treefix_run(engine, &got, seed);
    treefix_run(engine, &want, seed);
    assert_same_state(&got, &want, &format!("{what}, then a treefix run"));
    (got, want)
}

/// Whether `LayeredBroadcast` takes the closed form on `m` for the
/// engine's cover over the slots of `layout`.
fn takes_closed_form(engine: &LcaEngine, layout: &Layout, m: &Machine) -> bool {
    let cover = engine.cover();
    let phase = LayeredBroadcast::new(
        layout.curve(),
        layout.n(),
        (0..cover.num_layers()).map(|li| cover.layer_ranges(li)),
    );
    phase.charge(m)
}

#[test]
fn closed_form_matches_the_replay_on_every_family() {
    for fam in TreeFamily::ALL {
        for curve in [CurveKind::Hilbert, CurveKind::ZOrder] {
            for n in [1u32, 2, 3, 257, 4096] {
                let seed = n as u64 * 31 + curve as u64;
                let tree = fam.generate(n, &mut StdRng::seed_from_u64(seed));
                let layout = Layout::light_first(&tree, curve);
                let mut engine = LcaEngine::new(&layout, &tree);
                let what = format!("{fam} {curve:?} n={}", tree.n());
                let n = tree.n();
                // A machine re-pointed onto the slots `0..n_slots` of `c`.
                let repointed = |c: &_, n_slots| {
                    let mut m = Machine::default();
                    m.repoint(c, n_slots);
                    m
                };

                // The layout's own machine, and one re-pointed onto the
                // layout's curve at n slots: closed form.
                assert!(
                    takes_closed_form(&engine, &layout, &layout.machine()),
                    "{what}"
                );
                check(&mut engine, || layout.machine(), seed, &what);
                let same = || repointed(layout.curve(), n);
                assert!(takes_closed_form(&engine, &layout, &same()), "{what}");
                check(&mut engine, same, seed, &format!("{what}, re-pointed"));

                // Traced machines replay, recording the oracle's events.
                let points = layout.slot_points();
                let traced = || {
                    MachineBuilder::from_points(points.clone())
                        .trace(true)
                        .build()
                };
                assert!(!takes_closed_form(&engine, &layout, &traced()));
                let (got, want) = check(&mut engine, traced, seed, &format!("{what}, traced"));
                assert_eq!(got.take_trace(), want.take_trace(), "{what}: events");

                // Machines built from explicit points replay, even on
                // the layout's own points: they carry no curve prefix.
                let explicit = || Machine::from_points(points.clone());
                assert!(!takes_closed_form(&engine, &layout, &explicit()));
                check(&mut engine, explicit, seed, &format!("{what}, explicit"));
                let reversed: Vec<GridPoint> = points.iter().rev().copied().collect();
                let other = || Machine::from_points(reversed.clone());
                assert!(!takes_closed_form(&engine, &layout, &other()));
                check(&mut engine, other, seed, &format!("{what}, reversed"));

                // Another slot count or another side of the curve family
                // replays: more slots of the layout's own curve, and the
                // family's curve for more cells.
                let cells = layout.capacity() as u32;
                if cells > n {
                    let longer = || repointed(layout.curve(), (n + 5).min(cells));
                    assert!(!takes_closed_form(&engine, &layout, &longer()));
                    check(&mut engine, longer, seed, &format!("{what}, more slots"));
                }
                let bigger = curve.for_capacity(4 * cells as u64);
                let wider_side = || repointed(&bigger, n);
                assert!(!takes_closed_form(&engine, &layout, &wider_side()));
                check(
                    &mut engine,
                    wider_side,
                    seed,
                    &format!("{what}, other side"),
                );
                // A machine built on the family's curve, not re-pointed,
                // carries no key.
                let wider = || Machine::on_curve(curve, n + 5);
                assert!(!takes_closed_form(&engine, &layout, &wider()));
                check(&mut engine, wider, seed, &format!("{what}, wider"));
            }
        }
    }
}
