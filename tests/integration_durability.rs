//! Crash-injection fuzz for the durable forest path.
//!
//! The protocol under test: snapshot the forest, journal every durable
//! mutation write-ahead, and after a crash rebuild the forest as
//! snapshot + the journal's surviving record prefix. The crash is
//! simulated at the byte level — the journal file is truncated at
//! arbitrary offsets, including mid-record — and recovery must land on
//! a forest that is **bit-identical going forward** to one that
//! honestly lived through exactly the surviving mutations: the same
//! answers *and* the same `SessionReport` charges for every future
//! batch, across `DynamicLayout` capacity growths and query-triggered
//! rebuilds. All seeds are fixed; the fuzz is deterministic in CI.

use rand::prelude::*;
use spatial_trees::session::{ForestOptions, QueryBatch, Request, SpatialForest};
use spatial_trees::store::delta::{
    commit_delta_without_applying_for_tests, partially_apply_pending_delta_for_tests,
};
use spatial_trees::store::{
    delta_path, parse_journal, DirtyExtents, JournalWriter, MappedSnapshot, Record, RECORD_BYTES,
};
use spatial_trees::tree::Tree;
use std::path::Path;
use std::sync::Arc;

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("spatial-durability-{tag}-{}", std::process::id()))
}

/// Restores the snapshot at `path` with no journal: the mapped reader,
/// then the one restore.
fn restore(path: &Path, opts: ForestOptions) -> SpatialForest {
    let snap = MappedSnapshot::open(path).expect("open snapshot");
    SpatialForest::from_mapped(&Arc::new(snap), opts)
}

/// Replays journal records through the **public API only**, on a fresh
/// forest over `tree` that was never restored — the honest-history
/// reference a recovered forest is compared against. Inserts go
/// through `execute`, weight changes through `set_weight`, and a
/// `Rebuild` record is provoked the way the original was: by a query
/// that requires the light-first order.
fn replay_via_public_api(tree: &Tree, opts: ForestOptions, records: &[Record]) -> SpatialForest {
    let mut forest = SpatialForest::with_options(tree, opts);
    let mut rng = StdRng::seed_from_u64(0xFACE);
    for rec in records {
        match *rec {
            Record::InsertLeaf { parent, weight } => {
                forest.execute(&[Request::InsertLeaf { parent, weight }], &mut rng);
            }
            Record::SetWeight { vertex, weight } => forest.set_weight(vertex, weight),
            Record::Rebuild => {
                // At this point of any valid history the layout is
                // dirty, so an LCA query forces exactly one rebuild.
                let before = forest.dynamic_stats().rebuilds;
                forest.execute(&[Request::Lca(0, 0)], &mut rng);
                assert_eq!(
                    forest.dynamic_stats().rebuilds,
                    before + 1,
                    "journaled Rebuild did not correspond to a dirty layout"
                );
            }
            Record::RngState(_) => {}
        }
    }
    forest
}

/// The two forests must be indistinguishable from the outside: same
/// structure and layout, and a shared future — identical answers and
/// identical charges on a mixed verification batch.
fn assert_forests_equivalent(a: &mut SpatialForest, b: &mut SpatialForest, ctx: &str) {
    assert_eq!(a.n(), b.n(), "{ctx}: vertex count");
    assert_eq!(a.dynamic_stats(), b.dynamic_stats(), "{ctx}: dynamic stats");
    assert_eq!(
        a.layout().order(),
        b.layout().order(),
        "{ctx}: layout order"
    );

    let n = a.n();
    let mut probe = QueryBatch::new();
    for i in 0..15u32 {
        probe
            .lca(i % n, (i * 13 + 2) % n)
            .subtree_sum((i * 5) % n)
            .rank((i * 3 + 1) % n);
    }
    probe.insert_leaf(0).subtree_sum(0);
    let ans_a = a
        .execute(probe.requests(), &mut StdRng::seed_from_u64(0xBEEF))
        .to_vec();
    let ans_b = b
        .execute(probe.requests(), &mut StdRng::seed_from_u64(0xBEEF))
        .to_vec();
    assert_eq!(ans_a, ans_b, "{ctx}: future answers diverged");
    assert_eq!(
        a.last_report(),
        b.last_report(),
        "{ctx}: future charges diverged"
    );
}

/// Drives a journaled forest through a mixed workload that crosses at
/// least one capacity growth and triggers query-forced rebuilds, then
/// kills the journal at fuzzed byte offsets and checks every surviving
/// prefix recovers bit-identically.
#[test]
fn kill_at_random_offset_recovery_is_bit_identical() {
    for seed in [1u64, 7, 42] {
        let journal_path = temp_path(&format!("kill-journal-{seed}"));
        let snap_path = temp_path(&format!("kill-snap-{seed}"));

        let mut tree_rng = StdRng::seed_from_u64(seed);
        // n = 24 reserves 48 slots; ~100 inserts cross the doubling to
        // 96 and then to 192 — the growth events the replay must
        // reproduce exactly.
        let tree = spatial_trees::tree::generators::uniform_random(24, &mut tree_rng);
        let opts = ForestOptions::default();
        let mut live = SpatialForest::with_options(&tree, opts);

        // Snapshot at time zero (through the file format, so the fuzz
        // also crosses encode/decode), then journal everything after.
        live.snapshot_to(&snap_path, seed).expect("snapshot");
        let tag = MappedSnapshot::open(&snap_path).expect("open").header().tag;
        assert_eq!(tag, seed, "caller tag survives the roundtrip");
        live.attach_journal(JournalWriter::create(&journal_path).expect("journal"));

        let mut wl_rng = StdRng::seed_from_u64(seed ^ 0x0DD5);
        for round in 0..12u32 {
            let mut batch = QueryBatch::new();
            for _ in 0..9 {
                batch.insert_leaf_weighted(
                    wl_rng.gen_range(0..live.n()),
                    wl_rng.gen_range(1..100u64),
                );
            }
            // Queries force light-first rebuilds mid-history (Rebuild
            // records in the journal).
            let n = live.n();
            batch
                .lca(wl_rng.gen_range(0..n), wl_rng.gen_range(0..n))
                .subtree_sum(wl_rng.gen_range(0..n))
                .rank(wl_rng.gen_range(0..n));
            live.execute(batch.requests(), &mut StdRng::seed_from_u64(round as u64));
            live.set_weight(wl_rng.gen_range(0..live.n()), wl_rng.gen_range(1..1000u64));
        }
        live.journal_mut().expect("attached").sync().expect("sync");
        live.detach_journal();
        assert!(
            live.dynamic_stats().grows >= 2,
            "workload must cross capacity growths"
        );

        let bytes = std::fs::read(&journal_path).expect("journal bytes");
        let full = parse_journal(&bytes);
        assert!(
            full.iter().any(|r| matches!(r, Record::Rebuild)),
            "workload must journal query-triggered rebuilds"
        );

        // Crash offsets: the ends, record boundaries, mid-record cuts,
        // and a batch of fuzzed positions — all fixed-seed.
        let mut cuts = vec![
            0,
            bytes.len(),
            bytes.len() - 1,
            RECORD_BYTES,
            RECORD_BYTES - 3,
        ];
        let mut cut_rng = StdRng::seed_from_u64(seed ^ 0xC07);
        cuts.extend((0..12).map(|_| cut_rng.gen_range(0..=bytes.len())));

        for cut in cuts {
            let surviving = parse_journal(&bytes[..cut]);
            assert_eq!(surviving.len(), cut / RECORD_BYTES, "cut {cut}");

            let mut recovered = restore(&snap_path, opts);
            recovered.apply_journal(&surviving);
            let mut reference = replay_via_public_api(&tree, opts, &surviving);
            assert_forests_equivalent(
                &mut recovered,
                &mut reference,
                &format!("seed {seed}, cut {cut}"),
            );
        }

        // The intact journal recovers the live forest itself.
        let mut recovered = restore(&snap_path, opts);
        recovered.apply_journal(&full);
        assert_forests_equivalent(
            &mut recovered,
            &mut live,
            &format!("seed {seed}, full journal vs live"),
        );

        std::fs::remove_file(&journal_path).ok();
        std::fs::remove_file(&snap_path).ok();
    }
}

/// `recover_from` — the one-call snapshot + journal path — equals the
/// live forest, including when the journal ends in a torn record.
#[test]
fn recover_from_tolerates_a_torn_tail() {
    let journal_path = temp_path("torn-journal");
    let snap_path = temp_path("torn-snap");

    let tree = spatial_trees::tree::generators::path(30);
    let opts = ForestOptions::default();
    let mut live = SpatialForest::with_options(&tree, opts);
    live.snapshot_to(&snap_path, 0).expect("snapshot");
    live.attach_journal(JournalWriter::create(&journal_path).expect("journal"));

    let mut batch = QueryBatch::new();
    for i in 0..40u32 {
        batch.insert_leaf(i % 30).lca(i % 30, (i + 3) % 30);
    }
    live.execute(batch.requests(), &mut StdRng::seed_from_u64(5));
    live.journal_mut().expect("attached").sync().expect("sync");
    live.detach_journal();

    // Tear the journal mid-record: append half a valid frame.
    let half = Record::InsertLeaf {
        parent: 0,
        weight: 1,
    }
    .encode();
    let mut bytes = std::fs::read(&journal_path).expect("bytes");
    let intact = parse_journal(&bytes).len();
    bytes.extend_from_slice(&half[..RECORD_BYTES / 2]);
    std::fs::write(&journal_path, &bytes).expect("rewrite");

    let mut recovered =
        SpatialForest::recover_from(&snap_path, &journal_path, opts).expect("recover");
    assert_eq!(
        recovered.dynamic_stats().insertions,
        live.dynamic_stats().insertions,
        "the torn half-record must not lose intact history ({intact} records)"
    );
    assert_forests_equivalent(&mut recovered, &mut live, "torn tail");

    std::fs::remove_file(&journal_path).ok();
    std::fs::remove_file(&snap_path).ok();
}

/// An incremental checkpoint of a weight-edit-heavy ("dirty tail")
/// history writes a small fraction of the full snapshot, and a crash
/// at any point of the in-place patch — injected byte budget by byte
/// budget through the store's test hook — recovers bit-identically
/// through the public `recover_from`.
#[test]
fn incremental_checkpoint_crash_recovers_bit_identically() {
    let snap_path = temp_path("incr-snap");
    let target_path = temp_path("incr-target");
    let journal_path = temp_path("incr-journal"); // never created: empty history

    // Base generation on disk, tracked by the live forest that wrote it.
    let tree = spatial_trees::tree::generators::uniform_random(600, &mut StdRng::seed_from_u64(3));
    let opts = ForestOptions::default();
    let mut live = SpatialForest::with_options(&tree, opts);
    // Settle the layout so the dirty-tail workload below triggers no
    // rebuild (a rebuild rewrites the whole order slab).
    live.execute(
        QueryBatch::new().lca(0, 599).requests(),
        &mut StdRng::seed_from_u64(30),
    );
    let first = live.checkpoint_to(&snap_path, 1).expect("base checkpoint");
    assert!(!first.incremental, "no base to patch yet: a full write");
    let base = live.snapshot(1);

    // Dirty-tail workload: many weight edits, a few appends, no grow.
    let mut wl_rng = StdRng::seed_from_u64(0x11);
    for _ in 0..120 {
        live.set_weight(wl_rng.gen_range(0..600), wl_rng.gen_range(1..1000u64));
    }
    let mut tail = QueryBatch::new();
    for i in 0..8u32 {
        tail.insert_leaf_weighted(i, 7);
    }
    live.execute(tail.requests(), &mut StdRng::seed_from_u64(31));

    // Uninterrupted incremental checkpoint: small, and recoverable.
    let full_len = std::fs::metadata(&snap_path).expect("base meta").len();
    let stats = live.checkpoint_to(&snap_path, 2).expect("checkpoint");
    assert!(stats.incremental, "dirty-tail workload patches extents");
    assert!(
        stats.bytes_written * 4 <= full_len,
        "incremental wrote {} of a {} byte snapshot",
        stats.bytes_written,
        full_len
    );
    // The checkpointed state, captured before the equivalence probe
    // below mutates `live`, and written out whole as the oracle of the
    // crash sweep.
    let target = live.snapshot(2);
    target.write_to(&target_path).expect("write target");
    let mut recovered =
        SpatialForest::recover_from(&snap_path, &journal_path, opts).expect("recover");
    assert_eq!(recovered.replayed_records(), 0, "no journal to replay");
    assert_forests_equivalent(&mut recovered, &mut live, "uninterrupted incremental");

    // Crash injection: rebuild the pre-checkpoint base, re-commit the
    // same delta without applying it, and kill the patch at a sweep of
    // byte budgets. Recovery must always land on the checkpointed
    // state.
    let mut weight_cells: Vec<u32> = Vec::new();
    for v in 0..600u32 {
        if base.weights[v as usize] != target.weights[v as usize] {
            weight_cells.push(v);
        }
    }
    assert!(weight_cells.len() >= 60, "workload dirtied many cells");
    let extents = DirtyExtents {
        base_len: base.parents.len() as u32,
        order_rewritten: false,
        weight_cells,
    };
    let mut cut = 0u64;
    loop {
        spatial_trees::store::atomic_write(&snap_path, &base.encode()).expect("reset base");
        let committed = commit_delta_without_applying_for_tests(
            &snap_path,
            &target,
            &extents,
            base.slab_crcs(),
        )
        .expect("commit delta")
        .expect("base validates");
        let torn = partially_apply_pending_delta_for_tests(&snap_path, cut).expect("partial patch");
        assert!(torn <= cut, "patch wrote past the injected crash");
        let mut after_crash = SpatialForest::recover_from(&snap_path, &journal_path, opts)
            .expect("recover after injected crash");
        let mut expect = restore(&target_path, opts);
        assert_forests_equivalent(
            &mut after_crash,
            &mut expect,
            &format!("crash at {cut} of {committed} delta bytes"),
        );
        if cut >= committed {
            break;
        }
        cut = (cut + 64).min(committed);
    }
    assert!(
        !delta_path(&snap_path).exists(),
        "recovery retires the pending delta"
    );

    std::fs::remove_file(&snap_path).ok();
    std::fs::remove_file(&target_path).ok();
}

/// `recover_from` reports exactly how many journal records it applied:
/// zero for a missing journal (the empty-tail short-circuit), the
/// record count otherwise.
#[test]
fn recovery_counts_applied_records() {
    let snap_path = temp_path("count-snap");
    let journal_path = temp_path("count-journal");

    let tree = spatial_trees::tree::generators::path(50);
    let opts = ForestOptions::default();
    let mut live = SpatialForest::with_options(&tree, opts);
    live.snapshot_to(&snap_path, 0).expect("snapshot");

    // Missing journal: nothing replayed.
    let empty = SpatialForest::recover_from(&snap_path, &journal_path, opts).expect("recover");
    assert_eq!(empty.replayed_records(), 0);

    // Journal some mutations, then recover and count.
    live.attach_journal(JournalWriter::create(&journal_path).expect("journal"));
    let mut batch = QueryBatch::new();
    for i in 0..10u32 {
        batch.insert_leaf(i % 50);
    }
    live.execute(batch.requests(), &mut StdRng::seed_from_u64(1));
    live.set_weight(3, 99);
    live.journal_mut().expect("attached").sync().expect("sync");
    live.detach_journal();

    let recovered = SpatialForest::recover_from(&snap_path, &journal_path, opts).expect("recover");
    let on_disk = parse_journal(&std::fs::read(&journal_path).expect("bytes")).len() as u64;
    assert_eq!(recovered.replayed_records(), on_disk);
    assert!(on_disk >= 11, "inserts + weight edit were journaled");

    std::fs::remove_file(&journal_path).ok();
    std::fs::remove_file(&snap_path).ok();
}

/// A snapshot taken mid-lifetime — dirty layout, growths and rebuilds
/// already behind it — restores bit-identically with no journal at all.
#[test]
fn mid_stream_snapshot_roundtrip_is_bit_identical() {
    let snap_path = temp_path("midstream-snap");
    let mut rng = StdRng::seed_from_u64(77);
    let tree = spatial_trees::tree::generators::uniform_random(40, &mut rng);
    let opts = ForestOptions {
        rebuild_factor: 3.0,
        ..ForestOptions::default()
    };
    let mut live = SpatialForest::with_options(&tree, opts);

    // Mutate past a growth, and end on a bare insert so the snapshot
    // captures `layout_dirty = true` (the non-light-first state).
    let mut batch = QueryBatch::new();
    for i in 0..70u32 {
        batch.insert_leaf(i % 40);
        if i % 9 == 0 {
            batch.rank(i % 40);
        }
    }
    batch.insert_leaf(0);
    live.execute(batch.requests(), &mut StdRng::seed_from_u64(78));
    assert!(live.dynamic_stats().grows >= 1);

    live.snapshot_to(&snap_path, 3).expect("snapshot");
    let header = *MappedSnapshot::open(&snap_path).expect("open").header();
    assert!(
        header.layout_dirty,
        "snapshot must capture the dirty-layout state"
    );
    let mut restored = restore(&snap_path, opts);
    assert_forests_equivalent(&mut restored, &mut live, "mid-stream snapshot");

    std::fs::remove_file(&snap_path).ok();
}
