//! Serve-layer failure paths and durable round-trips.
//!
//! The failure half kills a worker for real — an out-of-range `Rank`
//! query panics inside `SpatialForest::execute` on the worker thread —
//! and checks the contract around the corpse: tickets resolve to
//! [`ServeError::WorkerLost`] instead of hanging or aborting, sibling
//! shards keep serving, and shutdown reports the shard as poisoned.
//!
//! The durable half restarts a [`ForestService::start_durable`] service
//! and checks the recovered tenants continue bit-identically (answers
//! and charges) with a never-stopped twin, also when the journal holds
//! a record that cannot replay.

use rand::prelude::*;
use spatial_serve::{tenant_seed, DurabilityOptions, ForestService, ServeError, ServiceOptions};
use spatial_session::{QueryBatch, Response, SessionReport, SpatialForest};
use spatial_store::{JournalWriter, MappedSnapshot, Record};
use spatial_tree::{generators, Tree};

fn trees(n_tenants: usize, n: u32, seed: u64) -> Vec<Tree> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_tenants)
        .map(|_| generators::uniform_random(n, &mut rng))
        .collect()
}

/// Silences the killed worker's panic backtrace for the duration of
/// `f` (the panic is the point of the test, not noise to print).
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

#[test]
fn dead_worker_fails_tickets_instead_of_hanging() {
    with_quiet_panics(|| {
        let ts = trees(4, 120, 31);
        let service = ForestService::start(&ts, ServiceOptions::new(2));

        // Tenants 0 and 2 live on shard 0; tenant 1 on shard 1. Kill
        // shard 0 with an out-of-range rank query.
        let mut poison = QueryBatch::new();
        poison.rank(10_000);
        let killed = service.submit(0, poison.requests());
        assert_eq!(killed.wait(), Err(ServeError::WorkerLost { shard: 0 }));

        // A job submitted after the worker died: the send fails, the
        // ticket still resolves (to the same error), no panic, no hang.
        let mut batch = QueryBatch::new();
        batch.lca(1, 2).subtree_sum(0);
        let dead = service.submit(2, batch.requests());
        assert_eq!(dead.wait(), Err(ServeError::WorkerLost { shard: 0 }));

        // The sibling shard is unaffected.
        let alive = service.submit(1, batch.requests());
        assert_eq!(alive.wait().expect("shard 1 alive").len(), 2);

        // Shutdown survives the dead worker and marks the shard.
        let report = service.shutdown();
        assert_eq!(report.poisoned_shards(), vec![0]);
        assert!(report.shards[0].poisoned);
        assert!(!report.shards[1].poisoned);
        assert_eq!(report.shards[1].requests, 2);
    });
}

#[test]
fn jobs_queued_behind_the_killer_disconnect_promptly() {
    with_quiet_panics(|| {
        let ts = trees(1, 100, 32);
        let mut opts = ServiceOptions::new(1);
        opts.queue_capacity = 32;
        let service = ForestService::start(&ts, opts);

        // A bulky job keeps the worker busy while the poison pill and
        // an innocent job queue up behind it — the innocent job dies in
        // the queue when the worker unwinds, and its ticket must
        // disconnect rather than wait forever.
        let mut big = QueryBatch::new();
        for v in 0..90u32 {
            big.lca(v, (v * 7) % 100).subtree_sum(v);
        }
        let head = service.submit(0, big.requests());
        let mut poison = QueryBatch::new();
        poison.rank(u32::MAX);
        let killer = service.submit(0, poison.requests());
        let mut small = QueryBatch::new();
        small.subtree_sum(0);
        let queued = service.submit(0, small.requests());

        // The head job may complete or die with the worker depending on
        // coalescing — what must hold is that nothing hangs and the
        // poisoned batch itself fails.
        let _ = head.wait();
        assert_eq!(killer.wait(), Err(ServeError::WorkerLost { shard: 0 }));
        assert_eq!(queued.wait(), Err(ServeError::WorkerLost { shard: 0 }));

        // Dropping the service (not shutdown) must not abort either.
        drop(service);
    });
}

#[test]
fn durable_service_recovers_bit_identical_across_restart() {
    let dir = std::env::temp_dir().join(format!("spatial-serve-durable-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let ts = trees(3, 150, 33);
    let mut opts = ServiceOptions::new(2);
    opts.record_streams = true;
    // Interval 2 forces checkpoints (and journal-generation switches)
    // mid-run, not just the one at startup.
    let mut dur = DurabilityOptions::new(&dir);
    dur.checkpoint_interval = 2;

    let mk_batch = |round: u32| {
        let mut b = QueryBatch::new();
        for i in 0..12u32 {
            b.insert_leaf((round * 7 + i) % 150)
                .lca(i, (i * 13 + round) % 150)
                .subtree_sum((i * 3) % 150)
                .rank((round + i) % 150);
        }
        b
    };

    // Phase 1: serve five rounds durably, then shut down cleanly.
    let mut twin_streams: Vec<Vec<Vec<spatial_session::Request>>> = vec![Vec::new(); 3];
    {
        let service = ForestService::start_durable(&ts, opts, dur.clone());
        for round in 0..5u32 {
            let b = mk_batch(round);
            let tickets: Vec<_> = (0..3u32).map(|t| service.submit(t, b.requests())).collect();
            for t in tickets {
                t.wait().expect("answered");
            }
        }
        let report = service.shutdown();
        assert!(report.poisoned_shards().is_empty());
        for tenant in 0..3u32 {
            twin_streams[tenant as usize] =
                report.tenant_log(tenant).expect("served").streams.clone();
        }
    }

    // Phase 2: restart from the durable files, serve five more rounds.
    let service = ForestService::start_durable(&ts, opts, dur.clone());
    let mut recovered_answers: Vec<Vec<Response>> = vec![Vec::new(); 3];
    for round in 5..10u32 {
        let b = mk_batch(round);
        let tickets: Vec<_> = (0..3u32).map(|t| service.submit(t, b.requests())).collect();
        for (tenant, t) in tickets.into_iter().enumerate() {
            recovered_answers[tenant].extend(t.wait().expect("answered"));
        }
    }
    let report = service.shutdown();
    assert!(report.poisoned_shards().is_empty());

    // Twin: a never-stopped forest replaying phase 1's exact streams,
    // then phase 2's batches — answers AND charges must match the
    // recovered service.
    for tenant in 0..3u32 {
        let mut twin = SpatialForest::with_options(&ts[tenant as usize], opts.forest);
        let mut rng = StdRng::seed_from_u64(tenant_seed(opts.seed, tenant));
        for stream in &twin_streams[tenant as usize] {
            twin.execute(stream, &mut rng);
        }
        let mut twin_answers: Vec<Response> = Vec::new();
        let mut twin_reports: Vec<SessionReport> = Vec::new();
        for round in 5..10u32 {
            let b = mk_batch(round);
            twin_answers.extend_from_slice(twin.execute(b.requests(), &mut rng));
            twin_reports.push(twin.last_report());
        }
        assert_eq!(
            twin_answers, recovered_answers[tenant as usize],
            "tenant {tenant}: answers diverged across the restart"
        );
        let log = report.tenant_log(tenant).expect("served");
        assert_eq!(
            twin_reports, log.reports,
            "tenant {tenant}: charges diverged across the restart"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_restart_without_new_work_is_stable() {
    let dir =
        std::env::temp_dir().join(format!("spatial-serve-durable-idle-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ts = trees(2, 80, 34);
    let opts = ServiceOptions::new(1);
    let dur = DurabilityOptions::new(&dir);

    // Start → mutate → stop, then restart twice with no traffic: each
    // restart re-checkpoints without corrupting anything.
    {
        let service = ForestService::start_durable(&ts, opts, dur.clone());
        let mut b = QueryBatch::new();
        b.insert_leaf(0).insert_leaf(1).subtree_sum(0);
        for t in 0..2u32 {
            service.submit(t, b.requests()).wait().expect("answered");
        }
        service.shutdown();
    }
    for _ in 0..2 {
        let service = ForestService::start_durable(&ts, opts, dur.clone());
        service.shutdown();
    }

    // The forests still carry the inserts.
    let service = ForestService::start_durable(&ts, opts, dur.clone());
    let mut probe = QueryBatch::new();
    probe.subtree_sum(0);
    let answers = service
        .submit(0, probe.requests())
        .wait()
        .expect("answered");
    assert_eq!(answers, vec![Response::SubtreeSum(82)], "80 + 2 inserts");
    service.shutdown();

    std::fs::remove_dir_all(&dir).ok();
}

/// A journal record that names a missing vertex (a journal written
/// before the up-front id check could hold one) ends a durable tenant's
/// replay: the restart keeps the committed session before it and drops
/// the rest, even a later session with its own commit marker. The
/// tenant then answers like a twin that lived only the committed
/// session, and no ticket fails with `WorkerLost`.
#[test]
fn durable_restart_stops_replay_at_an_invalid_record() {
    let dir =
        std::env::temp_dir().join(format!("spatial-serve-durable-bad-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ts = trees(1, 90, 35);
    let mut opts = ServiceOptions::new(1);
    opts.record_streams = true;
    let dur = DurabilityOptions::new(&dir);

    // Phase 1: one committed session, then a clean shutdown.
    let mut session = QueryBatch::new();
    for i in 0..8u32 {
        session
            .insert_leaf(i * 11)
            .lca(i, 89 - i)
            .subtree_sum(i)
            .rank(i * 3);
    }
    let streams = {
        let service = ForestService::start_durable(&ts, opts, dur.clone());
        service
            .submit(0, session.requests())
            .wait()
            .expect("answered");
        let report = service.shutdown();
        report.tenant_log(0).expect("served").streams.clone()
    };

    // Behind the committed session: a bad insert, then a session that
    // would replay on its own, commit marker included.
    let n = 90 + 8;
    let generation = MappedSnapshot::open(dir.join("tenant-0.snapshot"))
        .expect("open tenant snapshot")
        .header()
        .tag;
    let mut writer = JournalWriter::open_append(dir.join(format!("tenant-0.{generation}.journal")))
        .expect("open tenant journal");
    for rec in [
        Record::InsertLeaf {
            parent: n + 3,
            weight: 1,
        },
        Record::InsertLeaf {
            parent: 0,
            weight: 2,
        },
        Record::RngState([9, 9, 9, 9]),
    ] {
        writer.append(rec).expect("append");
    }
    writer.sync().expect("sync");
    drop(writer);

    // Phase 2: restart and probe.
    let mut probe = QueryBatch::new();
    for i in 0..10u32 {
        probe.lca(i, n - 1 - i).subtree_sum(i).rank(n - 1 - i);
    }
    probe.insert_leaf(5).subtree_sum(0);
    let service = ForestService::start_durable(&ts, opts, dur.clone());
    let answers = service
        .submit(0, probe.requests())
        .wait()
        .expect("the restarted tenant answers");
    let report = service.shutdown();
    assert!(report.poisoned_shards().is_empty());

    let mut twin = SpatialForest::with_options(&ts[0], opts.forest);
    let mut rng = StdRng::seed_from_u64(tenant_seed(opts.seed, 0));
    for stream in &streams {
        twin.execute(stream, &mut rng);
    }
    assert_eq!(twin.n(), n);
    let want = twin.execute(probe.requests(), &mut rng).to_vec();
    assert_eq!(answers, want, "answers diverged from the committed twin");
    assert_eq!(
        report.tenant_log(0).expect("served").reports,
        vec![twin.last_report()],
        "charges diverged from the committed twin"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A tenant snapshot whose header marks the layout clean but whose
/// order is not light-first restores with the layout dirty: the
/// tenant's first LCA job rebuilds it instead of panicking the shard
/// worker inside the LCA engine build, and answers like a twin.
#[test]
fn durable_restart_rebuilds_a_clean_marked_order_that_is_not_light_first() {
    let dir = std::env::temp_dir().join(format!(
        "spatial-serve-durable-order-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let ts = trees(1, 300, 36);
    let mut opts = ServiceOptions::new(1);
    opts.record_streams = true;
    let dur = DurabilityOptions::new(&dir);

    // Phase 1: one LCA session (which leaves the layout clean), then a
    // clean shutdown that checkpoints it.
    let mut session = QueryBatch::new();
    for i in 0..20u32 {
        session.lca(i, 299 - i);
    }
    let streams = {
        let service = ForestService::start_durable(&ts, opts, dur.clone());
        service
            .submit(0, session.requests())
            .wait()
            .expect("answered");
        let report = service.shutdown();
        report.tenant_log(0).expect("served").streams.clone()
    };

    // Rewrite the checkpoint with its order reversed, header unchanged.
    let path = dir.join("tenant-0.snapshot");
    let mapped = MappedSnapshot::open(&path).expect("open tenant snapshot");
    let generation = mapped.header().tag;
    let mut snap =
        SpatialForest::from_mapped(&std::sync::Arc::new(mapped), opts.forest).snapshot(generation);
    assert!(!snap.layout_dirty, "an LCA session leaves the layout clean");
    snap.order.reverse();
    snap.write_to(&path).expect("rewrite tenant snapshot");

    // Phase 2: restart and run LCA queries.
    let mut probe = QueryBatch::new();
    for i in 0..200u32 {
        probe.lca(i, 299 - i).subtree_sum(i);
    }
    let service = ForestService::start_durable(&ts, opts, dur.clone());
    let answers = service
        .submit(0, probe.requests())
        .wait()
        .expect("the restarted tenant answers");
    let report = service.shutdown();
    assert!(report.poisoned_shards().is_empty());

    let mut twin = SpatialForest::with_options(&ts[0], opts.forest);
    let mut rng = StdRng::seed_from_u64(tenant_seed(opts.seed, 0));
    for stream in &streams {
        twin.execute(stream, &mut rng);
    }
    let want = twin.execute(probe.requests(), &mut rng).to_vec();
    assert_eq!(answers, want, "answers diverged from the twin");
    assert_eq!(
        report.tenant_log(0).expect("served").reports,
        vec![twin.last_report()],
        "charges diverged from the twin"
    );

    std::fs::remove_dir_all(&dir).ok();
}
