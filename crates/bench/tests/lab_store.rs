//! The bench lab's durability and gate contracts: append/read
//! roundtrip through a real file, torn-tail and damaged-line
//! tolerance (kill-at-offset, the `store/tests` style), and the
//! noise-aware regression gate on synthetic histories — a real
//! regression is flagged, run-to-run noise is tolerated, and
//! deterministic machine-charge drift is always flagged — plus the
//! acceptance bars, checked before a snapshot is written and by the
//! gate. Outside the bar tests, synthetic runs use bench names that
//! carry no bars.

use spatial_bench::lab::{
    append_run, bar_violations, read_runs, regression_report, ChargeStatus, GateConfig, LabRun,
    RunRecord, ScenarioRow, WallKind, WallMetric, WallStatus,
};
use spatial_bench::Speedup;

fn temp_store(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "spatial-bench-lab-{tag}-{}/runs.jsonl",
        std::process::id()
    ))
}

fn charge_row(energy: u64, det: bool) -> ScenarioRow {
    ScenarioRow {
        scenario: "subtree_sums".into(),
        impl_name: "spatial".into(),
        family: "random_binary".into(),
        n: 8192,
        curve: "hilbert".into(),
        energy,
        depth: 40,
        messages: 7,
        work: 9000,
        steps: None,
        det,
    }
}

fn run_at(rev: &str, energy: u64, speedup: f64) -> RunRecord {
    RunRecord {
        bench: "kernels".into(),
        git_rev: rev.into(),
        timestamp: 1,
        config: vec![("profile".into(), "release".into())],
        scenarios: vec![charge_row(energy, true)],
        wall: vec![WallMetric {
            name: "kernel.speedup".into(),
            value: speedup,
            kind: WallKind::Ratio,
        }],
    }
}

#[test]
fn append_then_read_roundtrip() {
    let path = temp_store("roundtrip");
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
    let a = run_at("rev-a", 100, 2.2);
    let b = run_at("rev-b", 100, 2.1);
    append_run(&path, &a).expect("append a");
    append_run(&path, &b).expect("append b");
    let history = read_runs(&path).expect("read");
    assert_eq!(history.runs, vec![a, b]);
    assert_eq!(history.dropped_lines, 0);
    assert_eq!(history.torn_tail_bytes, 0);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn torn_tail_is_dropped_at_every_offset() {
    let path = temp_store("torn");
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
    let a = run_at("rev-a", 100, 2.2);
    let b = run_at("rev-b", 100, 2.1);
    append_run(&path, &a).expect("append a");
    append_run(&path, &b).expect("append b");
    let full = std::fs::read(&path).expect("read back");
    let first_len = a.to_line().len() + 1;
    // Kill the append at every offset inside the second line: the
    // intact prefix (run a) must always survive.
    for cut in first_len..full.len() {
        std::fs::write(&path, &full[..cut]).expect("truncate");
        let history = read_runs(&path).expect("read");
        assert_eq!(history.runs, vec![a.clone()], "cut at {cut}");
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn damaged_line_drops_itself_and_everything_after() {
    let path = temp_store("damaged");
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
    for rev in ["rev-a", "rev-b", "rev-c"] {
        append_run(&path, &run_at(rev, 100, 2.2)).expect("append");
    }
    // Flip one byte inside the SECOND line's payload: its CRC fails,
    // and per the journal's intact-prefix rule the third (intact) line
    // is not trusted either.
    let mut bytes = std::fs::read(&path).expect("read back");
    let first_len = run_at("rev-a", 100, 2.2).to_line().len() + 1;
    let at = first_len + 40;
    bytes[at] = bytes[at].wrapping_add(1);
    std::fs::write(&path, &bytes).expect("rewrite");
    let history = read_runs(&path).expect("read");
    assert_eq!(history.runs.len(), 1);
    assert_eq!(history.runs[0].git_rev, "rev-a");
    assert_eq!(history.dropped_lines, 2);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn gate_flags_synthetic_wall_regression() {
    // Two prior runs at ~2.2x, then the latest rev collapses to 0.9x —
    // far beyond max(rel_eps·2.2, k·MAD).
    let runs = vec![
        run_at("rev-a", 100, 2.25),
        run_at("rev-a", 100, 2.15),
        run_at("rev-b", 100, 0.9),
    ];
    let report = regression_report(&runs, &GateConfig::default(), None);
    assert_eq!(report.latest_rev, "rev-b");
    assert_eq!(report.benches[0].prior_rev.as_deref(), Some("rev-a"));
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert!(report.violations[0].contains("kernel.speedup"));
    let wall = &report.benches[0].wall[0];
    assert_eq!(wall.status, WallStatus::Regressed);
    assert_eq!(wall.prior_median, Some(2.2));
    assert_eq!(wall.samples, (2, 1));
}

#[test]
fn gate_tolerates_run_to_run_noise() {
    // Same code re-measured: charges identical, speedup wobbles within
    // the band (2.2 → 1.9 is well inside rel_eps = 0.5).
    let runs = vec![
        run_at("rev-a", 100, 2.2),
        run_at("rev-a", 100, 2.3),
        run_at("rev-b", 100, 1.9),
        run_at("rev-b", 100, 2.0),
    ];
    let report = regression_report(&runs, &GateConfig::default(), None);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.benches[0].charge[0].status, ChargeStatus::Exact);
    assert_eq!(report.benches[0].wall[0].status, WallStatus::Ok);
}

#[test]
fn gate_always_flags_deterministic_charge_drift() {
    // Wall metrics identical; one deterministic energy unit moved.
    // Machine charges have a zero noise budget — this must violate no
    // matter how small the drift or how wide the noise band.
    let runs = vec![run_at("rev-a", 100, 2.2), run_at("rev-b", 101, 2.2)];
    let cfg = GateConfig {
        rel_eps: 10.0,
        mad_k: 100.0,
        ..GateConfig::default()
    };
    let report = regression_report(&runs, &cfg, None);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert!(matches!(
        report.benches[0].charge[0].status,
        ChargeStatus::Drift {
            field: "energy",
            prior: 100,
            latest: 101,
        }
    ));
}

#[test]
fn gate_flags_within_rev_nondeterminism_of_det_rows() {
    // Two runs at the SAME rev disagree on a row marked deterministic:
    // that is a determinism bug, not a regression, and must violate.
    let runs = vec![run_at("rev-a", 100, 2.2), run_at("rev-a", 104, 2.2)];
    let report = regression_report(&runs, &GateConfig::default(), None);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert!(matches!(
        report.benches[0].charge[0].status,
        ChargeStatus::Nondeterministic { field: "energy" }
    ));
}

#[test]
fn gate_compares_nondet_rows_under_the_noise_band() {
    let mk = |rev: &str, energy: u64| RunRecord {
        bench: "sessions".into(),
        git_rev: rev.into(),
        timestamp: 1,
        config: vec![("profile".into(), "release".into())],
        scenarios: vec![charge_row(energy, false)],
        wall: vec![],
    };
    // 1000 → 1100 is within rel_eps = 0.5; no violation even though
    // the values differ.
    let report = regression_report(
        &[mk("rev-a", 1000), mk("rev-b", 1100)],
        &GateConfig::default(),
        None,
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(
        report.benches[0].charge[0].status,
        ChargeStatus::NoisyWithin
    );
    // 1000 → 5000 is beyond any reasonable band.
    let report = regression_report(
        &[mk("rev-a", 1000), mk("rev-b", 5000)],
        &GateConfig::default(),
        None,
    );
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
}

#[test]
fn gate_passes_first_ever_revision_and_improvements() {
    // A single rev has nothing to compare against.
    let report = regression_report(&[run_at("rev-a", 100, 2.2)], &GateConfig::default(), None);
    assert!(report.violations.is_empty());
    assert_eq!(report.benches[0].wall[0].status, WallStatus::NoHistory);
    // Getting faster is never a violation.
    let runs = vec![run_at("rev-a", 100, 2.2), run_at("rev-b", 100, 9.0)];
    let report = regression_report(&runs, &GateConfig::default(), None);
    assert!(report.violations.is_empty());
    assert_eq!(report.benches[0].wall[0].status, WallStatus::Improved);
}

#[test]
fn wall_comparisons_are_profile_stratified() {
    // A debug run at the prior rev must not feed the release
    // comparison: debug timings would make any release run look like a
    // huge improvement (or regression) for free.
    let mut debug_prior = run_at("rev-a", 100, 0.4);
    debug_prior.config = vec![("profile".into(), "debug".into())];
    let runs = vec![
        debug_prior,
        run_at("rev-a", 100, 2.2),
        run_at("rev-b", 100, 2.1),
    ];
    let report = regression_report(&runs, &GateConfig::default(), None);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let wall = &report.benches[0].wall[0];
    assert_eq!(
        wall.prior_median,
        Some(2.2),
        "debug sample must be excluded"
    );
    // Charges are profile-free: the debug run's identical charge row
    // participates in the exact comparison.
    assert_eq!(report.benches[0].charge[0].status, ChargeStatus::Exact);
}

#[test]
fn time_metrics_are_not_gated_by_default() {
    let mk = |rev: &str, ms: f64| RunRecord {
        bench: "lca_mincut".into(),
        git_rev: rev.into(),
        timestamp: 1,
        config: vec![("profile".into(), "release".into())],
        scenarios: vec![],
        wall: vec![WallMetric {
            name: "kernel.optimized".into(),
            value: ms,
            kind: WallKind::Time,
        }],
    };
    // A 10x wall-time blowup alone (e.g. a slower CI box) must not
    // fail the gate...
    let runs = [mk("rev-a", 10.0), mk("rev-b", 100.0)];
    let report = regression_report(&runs, &GateConfig::default(), None);
    assert!(report.violations.is_empty());
    assert_eq!(report.benches[0].wall[0].status, WallStatus::Ungated);
    // ...unless gate_time is opted in.
    let cfg = GateConfig {
        gate_time: true,
        ..GateConfig::default()
    };
    let report = regression_report(&runs, &cfg, None);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
}

#[test]
fn runs_below_a_bar_fail_the_pre_write_check_and_the_gate() {
    // Checkpoint recovery must beat full replay by >= 2x; this run's
    // win is 1.5x.
    let mut lab = LabRun::new("durability");
    lab.wall_pair("recovery_vs_full_replay", Speedup::of(2.0, 3.0));
    let broken = bar_violations(lab.record());
    assert_eq!(broken.len(), 1, "{broken:?}");
    assert!(broken[0].contains("recovery_vs_full_replay.speedup = 1.500"));
    let mut run = lab.record().clone();
    let report = regression_report(&[run.clone()], &GateConfig::default(), None);
    assert_eq!(report.violations, broken);
    // Exactly at the bar holds; a run missing the metric fails.
    run.wall[2].value = 2.0;
    assert!(bar_violations(&run).is_empty());
    run.wall.clear();
    assert!(bar_violations(&run)[0].contains("not recorded"));
}

#[test]
fn debug_runs_are_exempt_from_release_only_bars() {
    // Unoptimized SWAR lanes lose to unoptimized scalar loops.
    let mut run = run_at("rev-a", 100, 2.2);
    run.bench = "sfc_treefix".into();
    run.config = vec![("profile".into(), "debug".into())];
    run.wall = [
        "hilbert_index_batch_order10.speedup",
        "zorder_index_batch_order10.speedup",
        "bitonic_sort_2^16.speedup",
    ]
    .map(|name| WallMetric {
        name: name.into(),
        value: 0.8,
        kind: WallKind::Ratio,
    })
    .to_vec();
    assert!(bar_violations(&run).is_empty());
    let report = regression_report(&[run.clone()], &GateConfig::default(), None);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    // The same figures from a release build break all three bars.
    run.config = vec![("profile".into(), "release".into())];
    assert_eq!(bar_violations(&run).len(), 3);
}
