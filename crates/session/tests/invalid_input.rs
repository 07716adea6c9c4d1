//! A batch or weight change that names a vertex which does not exist
//! panics before anything is journaled, reset or charged, so it cannot
//! poison the journal. After each rejected call, `recover_from` must
//! rebuild the pre-call forest: its vertex count, its order and its
//! future charges equal those of a twin that never saw the bad input.
//! A journal that holds such a record anyway (written before the check
//! existed) replays up to it and drops the rest, like a torn tail.

use rand::prelude::*;
use spatial_session::{ForestOptions, QueryBatch, Request, SpatialForest};
use spatial_store::{parse_journal, JournalWriter, Record};
use spatial_tree::{generators, Tree, NIL};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

fn scratch_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spatial-invalid-{name}-{}", std::process::id()))
}

/// A mixed batch over `n` vertices: inserts, then queries that name the
/// inserted leaves.
fn mixed_batch(n: u32, seed: u64) -> QueryBatch {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = QueryBatch::new();
    for before in n..n + 12 {
        batch.insert_leaf(rng.gen_range(0..before));
        let live_n = before + 1;
        batch
            .lca(rng.gen_range(0..live_n), rng.gen_range(0..live_n))
            .subtree_sum(rng.gen_range(0..live_n))
            .rank(rng.gen_range(0..live_n));
    }
    batch
}

/// A never-restored forest over `tree` that lived the journaled history
/// of `rejected_input_leaves_the_journal_replayable`: the warm batch,
/// then one weight change.
fn history_twin(tree: &Tree, opts: ForestOptions) -> SpatialForest {
    let mut twin = SpatialForest::with_options(tree, opts);
    let warm = mixed_batch(tree.n(), 2);
    twin.execute(warm.requests(), &mut StdRng::seed_from_u64(3));
    twin.set_weight(5, 9);
    twin
}

#[test]
fn rejected_input_leaves_the_journal_replayable() {
    let (snap_path, journal_path) = (scratch_path("snap"), scratch_path("journal"));
    let opts = ForestOptions::default();
    let tree = generators::uniform_random(64, &mut StdRng::seed_from_u64(1));
    let mut live = SpatialForest::with_options(&tree, opts);
    live.snapshot_to(&snap_path, 0).expect("snapshot");
    live.attach_journal(JournalWriter::create(&journal_path).expect("journal"));

    // Journaled history before the bad input: inserts (which leave the
    // layout dirty), query-triggered rebuilds and a weight change.
    let warm = mixed_batch(live.n(), 2);
    live.execute(warm.requests(), &mut StdRng::seed_from_u64(3));
    live.set_weight(5, 9);
    let mut twin = history_twin(&tree, opts);

    let n = live.n();
    let insert = |parent| Request::InsertLeaf { parent, weight: 1 };
    let bad_batches: Vec<Vec<Request>> = vec![
        vec![insert(n + 100)],
        vec![insert(0), insert(NIL)],
        // The first insert makes vertex n; n + 1 still does not exist.
        vec![insert(0), Request::Lca(0, n), Request::Lca(0, n + 1)],
        vec![Request::SubtreeSum(0), Request::SubtreeSum(n)],
        vec![Request::Rank(n)],
        vec![Request::Lca(n, 0)],
    ];
    // A rejected batch also keeps the forest's own run buffers.
    let bytes = live.resident_bytes();
    for (case, batch) in bad_batches.iter().enumerate() {
        let report = live.last_report();
        let rejected = catch_unwind(AssertUnwindSafe(|| {
            live.execute(batch, &mut StdRng::seed_from_u64(4));
        }));
        assert!(rejected.is_err(), "case {case}: bad batch accepted");
        assert_eq!(live.n(), n, "case {case}: batch partly applied");
        assert_eq!(live.last_report(), report, "case {case}: batch charged");
        assert_eq!(live.resident_bytes(), bytes, "case {case}: buffers dropped");
        check_recovery(
            &snap_path,
            &journal_path,
            opts,
            history_twin(&tree, opts),
            &format!("batch {case}"),
        );
    }
    let rejected = catch_unwind(AssertUnwindSafe(|| live.set_weight(n + 5, 7)));
    assert!(rejected.is_err(), "bad set_weight accepted");
    check_recovery(
        &snap_path,
        &journal_path,
        opts,
        history_twin(&tree, opts),
        "set_weight",
    );

    // The id check follows the batch's own inserts: a query may name
    // the leaf an earlier insert of the same batch creates.
    let edge = [insert(0), Request::Lca(0, n), Request::Rank(n)];
    let a = live.execute(&edge, &mut StdRng::seed_from_u64(5)).to_vec();
    let b = twin.execute(&edge, &mut StdRng::seed_from_u64(5)).to_vec();
    assert_eq!(a, b);
    assert_eq!(live.last_report(), twin.last_report());

    // The live forest, the twin and a recovery all share one future.
    let mut recovered =
        SpatialForest::recover_from(&snap_path, &journal_path, opts).expect("recover");
    let probe = mixed_batch(twin.n(), 6);
    let want = twin
        .execute(probe.requests(), &mut StdRng::seed_from_u64(7))
        .to_vec();
    for (name, forest) in [("live", &mut live), ("recovered", &mut recovered)] {
        let got = forest
            .execute(probe.requests(), &mut StdRng::seed_from_u64(7))
            .to_vec();
        assert_eq!(got, want, "{name}: answers diverged");
        assert_eq!(
            forest.last_report(),
            twin.last_report(),
            "{name}: charges diverged"
        );
    }

    std::fs::remove_file(&snap_path).ok();
    std::fs::remove_file(&journal_path).ok();
}

/// Recovers from the snapshot and the journal as they stand and checks
/// the result against `twin`, a never-restored forest: same vertex
/// count, same order, and the same answers and charges for one more
/// batch. Returns the recovered forest.
fn check_recovery(
    snap_path: &Path,
    journal_path: &Path,
    opts: ForestOptions,
    mut twin: SpatialForest,
    what: &str,
) -> SpatialForest {
    let mut recovered = SpatialForest::recover_from(snap_path, journal_path, opts)
        .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
    assert_eq!(recovered.n(), twin.n(), "{what}: vertex count");
    assert_eq!(
        recovered.layout().order(),
        twin.layout().order(),
        "{what}: order"
    );

    let probe = mixed_batch(twin.n(), 8);
    let want = twin
        .execute(probe.requests(), &mut StdRng::seed_from_u64(9))
        .to_vec();
    let got = recovered
        .execute(probe.requests(), &mut StdRng::seed_from_u64(9))
        .to_vec();
    assert_eq!(got, want, "{what}: answers diverged");
    assert_eq!(
        recovered.last_report(),
        twin.last_report(),
        "{what}: charges diverged"
    );
    recovered
}

/// A journaled session of inserts, query-triggered rebuilds and a
/// weight change over `tree`, ended by the serve layer's commit marker.
fn committed_session(forest: &mut SpatialForest) {
    let session = mixed_batch(forest.n(), 12);
    forest.execute(session.requests(), &mut StdRng::seed_from_u64(13));
    forest.set_weight(7, 70);
    if let Some(journal) = forest.journal_mut() {
        journal
            .append(Record::RngState([1, 2, 3, 4]))
            .expect("append commit marker");
    }
}

#[test]
fn replay_stops_before_an_invalid_record() {
    let (snap_path, journal_path) = (scratch_path("replay-snap"), scratch_path("replay-journal"));
    let opts = ForestOptions::default();
    let tree = generators::uniform_random(64, &mut StdRng::seed_from_u64(11));
    let mut live = SpatialForest::with_options(&tree, opts);
    live.snapshot_to(&snap_path, 0).expect("snapshot");
    live.attach_journal(JournalWriter::create(&journal_path).expect("journal"));
    committed_session(&mut live);
    live.detach_journal();
    let committed = std::fs::read(&journal_path).expect("journal bytes");
    let committed_records = parse_journal(&committed).len() as u64;
    let committed_twin = || {
        let mut twin = SpatialForest::with_options(&tree, opts);
        committed_session(&mut twin);
        twin
    };

    // Ids are checked where each record stands: an insert makes vertex
    // n, so a weight change may name n but not n + 1.
    let n = live.n();
    let stream = [
        Record::InsertLeaf {
            parent: n - 1,
            weight: 2,
        },
        Record::SetWeight {
            vertex: n,
            weight: 3,
        },
        Record::SetWeight {
            vertex: n + 1,
            weight: 4,
        },
    ];
    assert_eq!(live.replayable_len(&stream), 2);

    // Each bad record follows the committed session and is followed by
    // records that would replay on their own: recovery lands on the
    // committed session, without panicking, and replays nothing after
    // the bad record.
    let tail = [
        Record::InsertLeaf {
            parent: 0,
            weight: 5,
        },
        Record::SetWeight {
            vertex: 1,
            weight: 6,
        },
        Record::RngState([5, 6, 7, 8]),
    ];
    for bad in [
        Record::InsertLeaf {
            parent: n,
            weight: 1,
        },
        Record::InsertLeaf {
            parent: NIL,
            weight: 1,
        },
        Record::SetWeight {
            vertex: n,
            weight: 1,
        },
        Record::SetWeight {
            vertex: u32::MAX,
            weight: 1,
        },
    ] {
        let mut bytes = committed.clone();
        for rec in std::iter::once(bad).chain(tail) {
            bytes.extend_from_slice(&rec.encode());
        }
        std::fs::write(&journal_path, &bytes).expect("rewrite journal");
        let recovered = check_recovery(
            &snap_path,
            &journal_path,
            opts,
            committed_twin(),
            &format!("{bad:?}"),
        );
        assert_eq!(
            recovered.replayed_records(),
            committed_records,
            "{bad:?}: replayed past the bad record"
        );
    }

    std::fs::remove_file(&snap_path).ok();
    std::fs::remove_file(&journal_path).ok();
}
