//! Schema-consistency check across the checked-in `BENCH_*.json`
//! baselines.
//!
//! Every baseline file carries a `scenarios` array whose rows share one
//! machine-cost schema — `scenario`, `n`, `curve`, `energy`, `depth`,
//! `messages` (plus `impl`/`family`/`work`, and `steps` on PRAM rows) —
//! so downstream tooling can join the baseline files on the shared keys.
//! The writers emit one row object per line; this suite validates the
//! shared keys and the numeric fields without a JSON dependency (the
//! offline workspace has none), plus the structural checks over values
//! the bench lab does not record. The numeric acceptance bars live only
//! in `spatial_bench::lab::BARS`, which the committed-history test
//! enforces through the regression gate.

use std::path::PathBuf;

const FILES: [&str; 8] = [
    "BENCH_sfc_treefix.json",
    "BENCH_lca_mincut.json",
    "BENCH_layout.json",
    "BENCH_pram.json",
    "BENCH_service.json",
    "BENCH_throughput.json",
    "BENCH_durability.json",
    "BENCH_ooc.json",
];

/// Keys every scenarios row must carry, in every file.
const SHARED_KEYS: [&str; 6] = [
    "\"scenario\"",
    "\"n\"",
    "\"curve\"",
    "\"energy\"",
    "\"depth\"",
    "\"messages\"",
];

/// Numeric fields: `"key": <u64>`.
const NUMERIC_KEYS: [&str; 4] = ["n", "energy", "depth", "messages"];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn numeric_value(row: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let at = row
        .find(&needle)
        .unwrap_or_else(|| panic!("missing key {key} in row: {row}"));
    let rest = &row[at + needle.len()..];
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key} in row: {row}"))
}

#[test]
fn every_bench_file_shares_the_scenarios_schema() {
    let root = workspace_root();
    for file in FILES {
        let path = root.join(file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{file} must be checked in at the workspace root: {e}"));
        assert!(
            text.contains("\"scenarios\": ["),
            "{file}: missing the shared `scenarios` section"
        );
        // Balanced-brace sanity so a truncated regeneration can't slip
        // through CI.
        let opens = text.matches(['{', '[']).count();
        let closes = text.matches(['}', ']']).count();
        assert_eq!(opens, closes, "{file}: unbalanced JSON brackets");

        let rows: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"scenario\":"))
            .collect();
        assert!(!rows.is_empty(), "{file}: no scenarios rows");
        for row in rows {
            for key in SHARED_KEYS {
                assert!(
                    row.contains(&format!("{key}: ")),
                    "{file}: row missing shared key {key}: {row}"
                );
            }
            for key in NUMERIC_KEYS {
                numeric_value(row, key);
            }
            assert!(
                numeric_value(row, "n") > 0,
                "{file}: scenario with n = 0: {row}"
            );
        }
    }
}

#[test]
fn committed_lab_history_seeds_the_regression_gate() {
    // The bench lab ships with a committed run history so the FIRST
    // gated CI comparison already has a prior: at least two distinct
    // revisions, every bench represented, zero torn/dropped lines, and
    // the noise-aware gate — acceptance bars included — passes on the
    // committed history itself (committed runs must never violate their
    // own baseline).
    use spatial_bench::lab;
    let path = workspace_root().join("lab/runs.jsonl");
    let history = lab::read_runs(&path).expect("lab/runs.jsonl must be checked in and readable");
    assert_eq!(
        history.dropped_lines, 0,
        "committed store has damaged lines"
    );
    assert_eq!(
        history.torn_tail_bytes, 0,
        "committed store has a torn tail"
    );
    let revs = lab::rev_order(&history.runs);
    assert!(
        revs.len() >= 2,
        "the gate needs >= 2 distinct revisions of committed history, got {revs:?}"
    );
    for bench in [
        "sfc_treefix",
        "lca_mincut",
        "layout",
        "pram",
        "service",
        "throughput",
        "durability",
        "ooc",
    ] {
        assert!(
            history.runs.iter().any(|r| r.bench == bench),
            "no committed lab run for bench {bench}"
        );
    }
    let report = lab::regression_report(&history.runs, &lab::GateConfig::default(), None);
    assert!(
        report.violations.is_empty(),
        "committed lab history violates its own gate: {:?}",
        report.violations
    );
}

#[test]
fn service_file_shows_the_session_reuse_win() {
    // The reuse speedup itself is a bar in `lab::BARS`; the crossover
    // scenario must price the PRAM shadow strictly above the spatial
    // run.
    let text = std::fs::read_to_string(workspace_root().join("BENCH_service.json"))
        .expect("BENCH_service.json checked in");
    let crossover: Vec<u64> = text
        .lines()
        .filter(|l| l.contains("\"scenario\": \"service_sums_crossover\""))
        .map(|l| numeric_value(l, "energy"))
        .collect();
    assert_eq!(crossover.len(), 2, "spatial + pram crossover rows");
    assert!(
        crossover[1] > crossover[0],
        "PRAM shadow must cost more energy: {crossover:?}"
    );
}

#[test]
fn throughput_file_shows_the_sharding_win() {
    // The modeled scaling and single-shard overhead are bars in
    // `lab::BARS`. Every worker-count row reports both throughput
    // figures and the client-observed latency tail.
    let text = std::fs::read_to_string(workspace_root().join("BENCH_throughput.json"))
        .expect("BENCH_throughput.json checked in");
    for workers in [1, 2, 4, 8] {
        let row = text
            .lines()
            .find(|l| l.contains(&format!("\"workers\": {workers},")))
            .unwrap_or_else(|| panic!("missing results row for {workers} workers"));
        for key in [
            "\"wall_qps\"",
            "\"modeled_qps\"",
            "\"p50_ms\"",
            "\"p99_ms\"",
        ] {
            assert!(
                row.contains(&format!("{key}: ")),
                "{workers}-worker row missing {key}: {row}"
            );
        }
    }

    // The dispatch-granularity sweep backs the baked-in constant.
    assert!(
        text.contains("\"granularity_sweep\": ["),
        "missing granularity sweep section"
    );
    assert!(
        text.contains("\"min_coalesced_batch\": "),
        "missing baked-in coalesce constant"
    );
}

#[test]
fn durability_file_shows_the_recovery_win() {
    // The recovery speedup is a bar in `lab::BARS`. The tail the
    // recovery path replays is a small fraction of the history the
    // rebuild path replays — the structural reason the speedup exists
    // at all.
    let text = std::fs::read_to_string(workspace_root().join("BENCH_durability.json"))
        .expect("BENCH_durability.json checked in");
    let (history, tail) = (
        numeric_value(&text, "history_records"),
        numeric_value(&text, "tail_records"),
    );
    assert!(
        tail * 4 < history,
        "tail ({tail}) must be a small fraction of history ({history})"
    );
}

#[test]
fn ooc_file_shows_the_incremental_and_paging_wins() {
    // The incremental checkpoint's size is a bar in `lab::BARS`. The
    // sweep must contain cells where the slab footprint exceeds the
    // resident-page budget, and every such cell reports paging faults —
    // the mapped forest really served out of core, not from a budget
    // that quietly held everything. Fault counts must also be monotone
    // non-increasing in the budget per size (LRU is a stack algorithm).
    let text = std::fs::read_to_string(workspace_root().join("BENCH_ooc.json"))
        .expect("BENCH_ooc.json checked in");
    let mut beyond_budget = 0u32;
    let mut faults_by_n: std::collections::BTreeMap<u64, Vec<u64>> =
        std::collections::BTreeMap::new();
    for row in text.lines().filter(|l| l.contains("\"resident_pages\":")) {
        let budget = numeric_value(row, "budget_bytes");
        let footprint = numeric_value(row, "snapshot_bytes");
        let faults = numeric_value(row, "faults");
        if budget < footprint {
            beyond_budget += 1;
            assert!(
                faults > 0,
                "a below-footprint budget must report paging faults: {row}"
            );
        }
        faults_by_n
            .entry(numeric_value(row, "n"))
            .or_default()
            .push(faults);
    }
    assert!(
        beyond_budget >= 2,
        "the sweep must include forests larger than the resident budget"
    );
    for (n, faults) in faults_by_n {
        assert!(
            faults.windows(2).all(|w| w[1] <= w[0]),
            "n={n}: faults must not increase with the budget: {faults:?}"
        );
    }
}

#[test]
fn pram_file_shows_the_e8_crossover() {
    // The acceptance bar, checked against the committed data: for list
    // ranking (layout-aware list) and subtree sums, PRAM energy grows
    // strictly faster than spatial energy across the checked-in sizes.
    let text = std::fs::read_to_string(workspace_root().join("BENCH_pram.json"))
        .expect("BENCH_pram.json checked in");
    for (scenario, family) in [
        ("subtree_sums", "random-binary"),
        ("list_ranking", "in-order-list"),
    ] {
        let mut by_impl: std::collections::BTreeMap<u64, [Option<u64>; 2]> =
            std::collections::BTreeMap::new();
        for row in text.lines().filter(|l| {
            l.contains(&format!("\"scenario\": \"{scenario}\""))
                && l.contains(&format!("\"family\": \"{family}\""))
                && l.contains("\"curve\": \"hilbert\"")
        }) {
            let n = numeric_value(row, "n");
            let e = numeric_value(row, "energy");
            let slot = if row.contains("\"impl\": \"pram\"") {
                1
            } else {
                0
            };
            by_impl.entry(n).or_insert([None, None])[slot] = Some(e);
        }
        assert!(
            by_impl.len() >= 3,
            "{scenario}/{family}: expected ≥ 3 sizes, got {by_impl:?}"
        );
        let ratios: Vec<f64> = by_impl
            .values()
            .map(|pair| {
                let (s, p) = (pair[0].expect("spatial row"), pair[1].expect("pram row"));
                p as f64 / s as f64
            })
            .collect();
        assert!(
            ratios.windows(2).all(|w| w[1] > w[0]),
            "{scenario}/{family}: PRAM/spatial energy ratio must grow with n: {ratios:?}"
        );
    }
}
