//! Out-of-core differential suite: a forest recovered **mapped**
//! (zero-copy slabs over the snapshot file, cold-page touches priced
//! as long-distance messages) must be indistinguishable from its owned
//! twin — the live forest that wrote the snapshot, never restored — on
//! every axis except the explicit paging rows: identical answers and
//! bit-identical non-paging [`SessionReport`] fields over mixed fuzz
//! streams, even when the slabs exceed the resident-page budget many
//! times over. The paging
//! rows themselves must behave like a real cache: fault counts
//! monotone non-increasing as the budget grows (LRU is a stack
//! algorithm), zero evictions once everything fits.

use rand::prelude::*;
use spatial_trees::model::{PagingConfig, PagingReport};
use spatial_trees::session::{ForestOptions, QueryBatch, Response, SessionReport, SpatialForest};
use spatial_trees::tree::generators;

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("spatial-ooc-{tag}-{}", std::process::id()))
}

/// A random mixed request stream (the `integration_fuzz` shape).
fn random_stream(n0: u32, len: usize, insert_pct: u32, rng: &mut StdRng) -> QueryBatch {
    let mut batch = QueryBatch::with_capacity(len);
    let mut n = n0;
    for _ in 0..len {
        let kind = rng.gen_range(0..100);
        if kind < insert_pct {
            batch.insert_leaf_weighted(rng.gen_range(0..n), rng.gen_range(1..5));
            n += 1;
        } else if kind < insert_pct + 30 {
            batch.lca(rng.gen_range(0..n), rng.gen_range(0..n));
        } else if kind < insert_pct + 65 {
            batch.subtree_sum(rng.gen_range(0..n));
        } else {
            batch.rank(rng.gen_range(0..n));
        }
    }
    batch
}

/// Builds a forest with some history (inserts, weight edits, settled
/// layout) and snapshots it to `path`; returns the live forest.
fn snapshot_worked_forest(path: &std::path::Path, n: u32, seed: u64) -> SpatialForest {
    let tree = generators::uniform_random(n, &mut StdRng::seed_from_u64(seed));
    let mut forest = SpatialForest::new(&tree);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAB);
    let mut batch = QueryBatch::new();
    for i in 0..40u32 {
        batch.insert_leaf_weighted(i % n, (i as u64 % 7) + 1);
    }
    batch.lca(0, n - 1).subtree_sum(0).rank(1);
    forest.execute(batch.requests(), &mut rng);
    for v in 0..(n / 2) {
        forest.set_weight(v, (v as u64 % 13) + 1);
    }
    forest.snapshot_to(path, 1).expect("snapshot");
    forest
}

/// The same report with the paging rows removed — everything that must
/// be bit-identical between a mapped forest and its owned twin.
fn strip_paging(mut report: SessionReport) -> SessionReport {
    report.paging = None;
    report
}

/// Mapped recovery with a resident budget far below the slab footprint
/// serves a full mixed stream (queries *and* promoting mutations)
/// bit-identically to the owned twin that wrote the snapshot, with
/// paging charges reported.
#[test]
fn mapped_forest_matches_owned_twin_beyond_its_budget() {
    let snap_path = temp_path("differential");
    let mut owned = snapshot_worked_forest(&snap_path, 3000, 42);
    let n = owned.n();
    let journal = temp_path("differential-nojournal");

    // 4 resident pages (16 KiB) against slabs an order of magnitude
    // bigger: parents + order + weights together are ~16 n bytes.
    let paging = PagingConfig {
        page_bytes: 4096,
        resident_pages: 4,
    };
    let mut mapped = SpatialForest::recover_from(
        &snap_path,
        &journal,
        ForestOptions {
            paging: Some(paging),
            ..ForestOptions::default()
        },
    )
    .expect("mapped recovery");
    assert!(mapped.any_slab_mapped(), "slabs start zero-copy");
    assert!(!owned.any_slab_mapped(), "the twin holds owned slabs");
    let constructed = mapped.paging_lifetime().expect("paging configured");
    assert!(
        constructed.faults > 0,
        "construction reads fault cold pages"
    );

    // Round 0 is query-only (slabs stay mapped: every flush re-touches
    // them), later rounds mix in inserts (which CoW-promote).
    let mut stream_rng = StdRng::seed_from_u64(7);
    for round in 0..4u64 {
        let insert_pct = if round == 0 { 0 } else { 12 };
        let batch = random_stream(mapped.n(), 60, insert_pct, &mut stream_rng);
        let got = mapped
            .execute(batch.requests(), &mut StdRng::seed_from_u64(round))
            .to_vec();
        let want = owned
            .execute(batch.requests(), &mut StdRng::seed_from_u64(round))
            .to_vec();
        assert_eq!(got, want, "round {round}: answers diverged");
        assert_eq!(
            strip_paging(mapped.last_report()),
            strip_paging(owned.last_report()),
            "round {round}: non-paging charges diverged"
        );
        let paging = mapped.last_report().paging.expect("paging rows present");
        assert!(owned.last_report().paging.is_none());
        if round == 0 {
            assert!(
                paging.faults > 0,
                "query-only session over mapped slabs must fault"
            );
            assert!(paging.charge.energy > 0 && paging.charge.messages > 0);
        }
    }
    // The mutating rounds promoted the mapped slabs copy-on-write.
    assert!(
        !mapped.any_slab_mapped(),
        "inserts promote every mapped slab"
    );
    assert_eq!(mapped.n(), owned.n());
    assert!(mapped.n() > n, "the stream inserted");

    std::fs::remove_file(&snap_path).ok();
}

/// LRU residency is a stack algorithm: over the identical query-only
/// stream, fault counts are monotone non-increasing in the resident
/// budget, and a budget that holds everything stops evicting. Answers
/// never depend on the budget.
#[test]
fn paging_faults_are_monotone_under_shrinking_budgets() {
    let snap_path = temp_path("monotone");
    snapshot_worked_forest(&snap_path, 2048, 9);
    let journal = temp_path("monotone-nojournal");

    let budgets = [1usize, 2, 4, 8, 32, 1 << 14];
    let mut lifetimes: Vec<PagingReport> = Vec::new();
    let mut answers: Vec<Vec<Response>> = Vec::new();
    for &resident_pages in &budgets {
        let mut forest = SpatialForest::recover_from(
            &snap_path,
            &journal,
            ForestOptions {
                paging: Some(PagingConfig {
                    page_bytes: 4096,
                    resident_pages,
                }),
                ..ForestOptions::default()
            },
        )
        .expect("mapped recovery");
        let mut stream_rng = StdRng::seed_from_u64(31);
        let mut got = Vec::new();
        for round in 0..3u64 {
            let batch = random_stream(forest.n(), 50, 0, &mut stream_rng);
            got.extend_from_slice(
                forest.execute(batch.requests(), &mut StdRng::seed_from_u64(round)),
            );
        }
        assert!(forest.any_slab_mapped(), "query-only stream never promotes");
        lifetimes.push(forest.paging_lifetime().expect("paging configured"));
        answers.push(got);
    }

    for w in lifetimes.windows(2) {
        assert!(
            w[1].faults <= w[0].faults,
            "faults must not increase with a bigger budget: {lifetimes:?}"
        );
    }
    let tightest = &lifetimes[0];
    let fits_all = lifetimes.last().expect("budgets nonempty");
    assert!(
        tightest.faults > fits_all.faults,
        "a one-page budget must re-fault what a fits-everything budget keeps"
    );
    assert_eq!(
        fits_all.evictions, 0,
        "nothing is evicted once every slab page fits"
    );
    for got in &answers[1..] {
        assert_eq!(got, &answers[0], "answers depended on the paging budget");
    }

    std::fs::remove_file(&snap_path).ok();
}
