//! The experiment harness: regenerates the paper's tables (`e*`,
//! `a*`) and the `BENCH_*.json` baselines, and reads the bench lab's
//! run store (`lab-*`). [`EXPERIMENTS`] lists every id.
//!
//! ```sh
//! cargo run --release -p spatial-bench --bin experiments           # all
//! cargo run --release -p spatial-bench --bin experiments -- e1 e7  # some
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spatial_bench::lab::{self, LabRun};
use spatial_bench::{
    best_of, f2, f3, interleaved_pairs, interleaved_speedup, two_point_fit, workload, Speedup,
    Table,
};
use spatial_trees::layout::{
    build_light_first_spatial, edge_distance_stats, local_kernel_energy, Layout, LayoutKind,
};
use spatial_trees::lca::batched_lca;
use spatial_trees::messaging::{local_broadcast, VirtualTree};
use spatial_trees::model::CostReport;
use spatial_trees::model::{CurveKind, Machine};
use spatial_trees::pram::{pram_lca_batch, pram_subtree_sums, PramEngine};
use spatial_trees::prelude::*;
use spatial_trees::session::{QueryBatch, SessionReport, SpatialForest};
use spatial_trees::sfc::locality::{alpha_estimate, mean_step_distance};
use spatial_trees::sfc::zorder::{longest_diagonal, ZOrderCurve};
use spatial_trees::sfc::Curve;
use spatial_trees::tree::generators::TreeFamily;
use spatial_trees::tree::HeavyPathDecomposition;
use spatial_trees::treefix::{treefix_bottom_up, treefix_top_down};
use std::time::Duration;

/// How an experiment joins a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    /// A paper table: part of the no-argument run.
    Table,
    /// A `BENCH_*.json` writer: part of the no-argument run, and of
    /// `bench-json`, which selects the whole group.
    Writer,
    /// Runs only when named: a plain run must not depend on the run
    /// store the `lab-*` views read.
    Explicit,
}

/// The id that selects every writer at once.
const BENCH_JSON: &str = "bench-json";

/// One registry entry: `(id, group, run)`. `run` gets the command
/// line, whose `key=value` arguments filter the lab views.
type Experiment = (&'static str, Group, fn(&[String]));

/// Every experiment, in the order a run executes them.
#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    ("e1", Group::Table, |_| e1_layout_energy()),
    ("e2", Group::Table, |_| e2_zorder()),
    ("e3", Group::Table, |_| e3_curve_locality()),
    ("e4", Group::Table, |_| e4_unbounded_degree()),
    ("e5", Group::Table, |_| e5_layout_creation()),
    ("e6", Group::Table, |_| e6_treefix()),
    ("e7", Group::Table, |_| e7_lca()),
    ("e8", Group::Table, |_| e8_pram_baseline()),
    ("e9", Group::Table, |_| e9_path_decomposition()),
    ("e11", Group::Table, |_| e11_mincut()),
    ("a1", Group::Table, |_| a1_order_and_curve_ablation()),
    ("a2", Group::Table, |_| a2_dynamic_layout()),
    ("a3", Group::Table, |_| a3_expression_evaluation()),
    ("bench-json-sfc", Group::Writer, |_| bench_json_sfc()),
    ("bench-json-lca", Group::Writer, |_| bench_json_lca()),
    ("bench-json-layout", Group::Writer, |_| bench_json_layout()),
    ("bench-json-pram", Group::Writer, |_| bench_json_pram()),
    ("bench-json-service", Group::Writer, |_| bench_json_service()),
    ("bench-json-throughput", Group::Writer, |_| bench_json_throughput()),
    ("bench-json-durability", Group::Writer, |_| bench_json_durability()),
    ("bench-json-ooc", Group::Writer, |_| bench_json_ooc()),
    ("lab-regress", Group::Explicit, |args| lab_regress(args, false)),
    ("lab-sweep", Group::Explicit, lab_sweep),
    ("lab-ab", Group::Explicit, lab_ab),
    ("lab-gate", Group::Explicit, |args| lab_regress(args, true)),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match select(&args) {
        Ok(selected) => {
            for (_, _, run) in selected {
                run(&args);
            }
        }
        Err(msg) => {
            // A typo'd id would otherwise select nothing and exit 0,
            // silently skipping an artifact's regeneration in CI.
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// Every id the command line accepts: the experiments' ids, with
/// `bench-json` ahead of the first writer.
fn valid_ids() -> Vec<&'static str> {
    let mut ids = Vec::with_capacity(EXPERIMENTS.len() + 1);
    for &(id, group, _) in EXPERIMENTS {
        if group == Group::Writer && !ids.contains(&BENCH_JSON) {
            ids.push(BENCH_JSON);
        }
        ids.push(id);
    }
    ids
}

/// The experiments `args` select, in table order, each once. With no
/// arguments every non-explicit experiment runs; otherwise each named
/// id (case-insensitively) runs, and `bench-json` runs every writer.
/// `key=value` arguments are lab-view filters and select nothing; any
/// other unknown argument is an error listing the valid ids.
fn select(args: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let ids = valid_ids();
    let known = |a: &String| a.contains('=') || ids.iter().any(|id| a.eq_ignore_ascii_case(id));
    let named = |id: &str| args.iter().any(|a| a.eq_ignore_ascii_case(id));
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        return Err(format!(
            "unknown experiment id '{bad}'\nvalid ids:\n  {}",
            ids.join("\n  ")
        ));
    }
    Ok(EXPERIMENTS
        .iter()
        .filter(|&&(id, group, _)| {
            if args.is_empty() {
                group != Group::Explicit
            } else {
                named(id) || (group == Group::Writer && named(BENCH_JSON))
            }
        })
        .collect())
}

/// The value of a `key=value` argument.
fn filter_of(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .find_map(|a| a.strip_prefix(&format!("{key}=")).map(str::to_string))
}

/// Reads the lab run store and prints its summary line.
fn lab_history() -> lab::RunHistory {
    let path = lab::runs_path();
    let history = lab::read_runs(&path).expect("read lab run store");
    println!(
        "\n### lab — {} runs across {} revs in {}",
        history.runs.len(),
        lab::rev_order(&history.runs).len(),
        path.display()
    );
    if history.torn_tail_bytes > 0 {
        println!(
            "  note: dropped a {}-byte torn tail (interrupted append)",
            history.torn_tail_bytes
        );
    }
    if history.dropped_lines > 0 {
        println!(
            "  WARNING: dropped {} damaged trailing lines (CRC/schema failure)",
            history.dropped_lines
        );
    }
    history
}

/// The row filter of the sweep and A/B views: `bench=`, `scenario=`,
/// `impl=`, `family=`, `curve=`.
fn row_filter(args: &[String]) -> lab::RowFilter {
    lab::RowFilter {
        bench: filter_of(args, "bench"),
        scenario: filter_of(args, "scenario"),
        impl_name: filter_of(args, "impl"),
        family: filter_of(args, "family"),
        curve: filter_of(args, "curve"),
    }
}

/// `lab-regress` — the latest revision against the prior one, per
/// bench, with the gate tuned by `rel_eps=`, `mad_k=`, `gate_time=` and
/// narrowed by `bench=`. As `lab-gate` (`gate`), exits 1 on any
/// violation or on an empty store.
fn lab_regress(args: &[String], gate: bool) {
    let history = lab_history();
    let mut cfg = lab::GateConfig::default();
    if let Some(v) = filter_of(args, "rel_eps") {
        cfg.rel_eps = v.parse().expect("rel_eps must be a float");
    }
    if let Some(v) = filter_of(args, "mad_k") {
        cfg.mad_k = v.parse().expect("mad_k must be a float");
    }
    if let Some(v) = filter_of(args, "gate_time") {
        cfg.gate_time = v.parse().expect("gate_time must be true/false");
    }
    let report = lab::regression_report(&history.runs, &cfg, filter_of(args, "bench").as_deref());
    print_regression_report(&report);
    if !gate {
        return;
    }
    if history.runs.is_empty() {
        eprintln!("lab-gate: FAIL — the run store is empty; seed it with ≥2 baseline runs");
        std::process::exit(1);
    }
    if report.violations.is_empty() {
        println!("lab-gate: OK — no regressions at rev {}", report.latest_rev);
    } else {
        eprintln!(
            "lab-gate: FAIL — {} violation(s) at rev {}",
            report.violations.len(),
            report.latest_rev
        );
        std::process::exit(1);
    }
}

/// `lab-sweep` — one metric (`metric=`, default energy) across n ×
/// revision, normalized by `norm=none|nlogn|n15`.
fn lab_sweep(args: &[String]) {
    let history = lab_history();
    let metric = filter_of(args, "metric").unwrap_or_else(|| "energy".into());
    let norm = filter_of(args, "norm")
        .map(|v| lab::Norm::from_name(&v).expect("norm must be none|nlogn|n15"))
        .unwrap_or(lab::Norm::None);
    // Default to the headline E8 kernel when nothing narrows the
    // sweep: spatial subtree sums, whose normalized energy should
    // sit flat across sizes and revs.
    let mut f = row_filter(args);
    if f.scenario.is_none() && f.impl_name.is_none() && f.bench.is_none() {
        f.scenario = Some("subtree_sums".into());
        f.impl_name = Some("spatial".into());
    }
    let view = lab::sweep_view(&history.runs, &f, &metric, norm);
    println!(
        "\nlab-sweep — {metric} (norm {norm:?}) over {} row keys, n x rev:",
        view.keys_matched
    );
    if view.ns.is_empty() {
        println!("  no rows match the filter");
        return;
    }
    let mut headers = vec!["n".to_string()];
    headers.extend(view.revs.iter().cloned());
    let mut table = Table::new(headers);
    for (i, n) in view.ns.iter().enumerate() {
        let mut cells = vec![n.to_string()];
        for rev_cells in &view.cells {
            cells.push(
                rev_cells[i]
                    .map(|v| format!("{v:.4}"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        table.row(cells);
    }
    table.print();
}

/// `lab-ab` — paired implementations on shared scenarios at the
/// latest revision.
fn lab_ab(args: &[String]) {
    let pairs = lab::ab_view(&lab_history().runs, &row_filter(args));
    println!("\nlab-ab — paired impls on shared scenarios (latest rev):");
    if pairs.is_empty() {
        println!("  no pairs match the filter");
        return;
    }
    let mut table = Table::new(["pair", "a", "a value", "b", "b value", "b/a"]);
    for p in &pairs {
        table.row([
            p.key.clone(),
            p.a.0.clone(),
            format!("{:.3}", p.a.1),
            p.b.0.clone(),
            format!("{:.3}", p.b.1),
            format!("{:.2}x", p.ratio),
        ]);
    }
    table.print();
}

/// The one write path of every `bench-json-*` writer: checks the run
/// against its acceptance bars ([`lab::BARS`]) — a broken bar writes
/// nothing — then writes the `BENCH_*.json` snapshot at `path` and
/// appends the run to the lab store.
fn write_snapshot(lab: LabRun, path: &str, json: &str) {
    let broken = lab::bar_violations(lab.record());
    assert!(
        broken.is_empty(),
        "acceptance bar broken, {path} not written:\n  {}",
        broken.join("\n  ")
    );
    spatial_trees::store::atomic_write(path, json.as_bytes())
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    lab.commit();
    println!("\n  wrote {path}\n");
}

/// Single-shot timing passes ([`best_of`]) for runs of a millisecond
/// or more.
const SINGLE_SHOT: Duration = Duration::ZERO;

/// Runs `optimized` and `reference` once each on a fresh `machine()`,
/// asserts they agree on answers and charges, then times both
/// single-shot, machine construction included. Returns the optimized
/// and reference milliseconds and the charges of one run.
fn check_then_time<T: PartialEq + std::fmt::Debug>(
    what: &str,
    machine: impl Fn() -> Machine,
    optimized: impl Fn(&Machine) -> T,
    reference: impl Fn(&Machine) -> T,
) -> (f64, f64, CostReport) {
    let (m_opt, m_ref) = (machine(), machine());
    assert_eq!(
        optimized(&m_opt),
        reference(&m_ref),
        "{what}: engines disagree"
    );
    assert_eq!(m_opt.report(), m_ref.report(), "{what}: charges disagree");
    let time = |run: &dyn Fn(&Machine) -> T| {
        best_of(3, SINGLE_SHOT, || {
            std::hint::black_box(run(&machine()));
            0
        })
    };
    (time(&optimized), time(&reference), m_opt.report())
}

/// Asserts that a restarted forest matches the never-stopped `live`
/// one: vertex count, dynamic stats, and a fixed mixed probe's answers
/// and session charges under the RNG `seed`.
fn assert_same_forest(
    candidate: &mut SpatialForest,
    live: &mut SpatialForest,
    seed: u64,
    what: &str,
) {
    assert_eq!(candidate.n(), live.n(), "{what}: vertex count");
    assert_eq!(
        candidate.dynamic_stats(),
        live.dynamic_stats(),
        "{what}: dynamic stats"
    );
    let nn = live.n();
    let mut probe = QueryBatch::new();
    for i in 0..24u32 {
        probe
            .lca(i % nn, (i * 131 + 7) % nn)
            .subtree_sum((i * 17) % nn)
            .rank((i * 5 + 3) % nn);
    }
    let got = candidate
        .execute(probe.requests(), &mut StdRng::seed_from_u64(seed))
        .to_vec();
    let expect = live
        .execute(probe.requests(), &mut StdRng::seed_from_u64(seed))
        .to_vec();
    assert_eq!(got, expect, "{what}: answers diverged from live forest");
    assert_eq!(
        candidate.last_report(),
        live.last_report(),
        "{what}: charges diverged from live forest"
    );
}

/// Records a forest session's charges as two scenario rows: the grid
/// machine's as `scenario` (impl `forest`) and the Euler-tour dart
/// machine's as `{scenario}_ranking` (impl `forest-dart`).
fn session_rows(
    lab: &mut LabRun,
    scenario: &str,
    family: TreeFamily,
    n: u32,
    report: SessionReport,
) -> [String; 2] {
    let (family, curve) = (family.name(), CurveKind::Hilbert.name());
    [
        lab.scenario_row(
            scenario,
            "forest",
            family,
            n as u64,
            curve,
            report.grid,
            None,
        ),
        lab.scenario_row(
            &format!("{scenario}_ranking"),
            "forest-dart",
            family,
            n as u64,
            curve,
            report.ranking,
            None,
        ),
    ]
}

/// Prints the `lab-regress` view of a [`lab::RegressionReport`].
fn print_regression_report(report: &lab::RegressionReport) {
    if report.benches.is_empty() {
        println!("lab-regress: no runs at a latest revision (empty store?)");
        return;
    }
    println!("\nlab-regress — latest rev {}:", report.latest_rev);
    for b in &report.benches {
        let prior = b.prior_rev.as_deref().unwrap_or("(no prior rev)");
        let mut exact = 0usize;
        let mut fresh = 0usize;
        let mut missing = 0usize;
        let mut noisy = 0usize;
        let mut bad = 0usize;
        for c in &b.charge {
            match c.status {
                lab::ChargeStatus::Exact => exact += 1,
                lab::ChargeStatus::New => fresh += 1,
                lab::ChargeStatus::Missing => missing += 1,
                lab::ChargeStatus::NoisyWithin => noisy += 1,
                _ => bad += 1,
            }
        }
        println!(
            "\n  {} vs {prior} ({} profile) — charges: {exact} exact, {noisy} noisy-ok, {fresh} new, {missing} missing, {bad} VIOLATING",
            b.bench, b.profile
        );
        if !b.wall.is_empty() {
            let mut table = Table::new([
                "wall metric",
                "kind",
                "prior med",
                "mad",
                "latest med",
                "tol",
                "runs",
                "status",
            ]);
            for w in &b.wall {
                table.row([
                    w.name.clone(),
                    format!("{:?}", w.kind).to_lowercase(),
                    w.prior_median
                        .map(|v| format!("{v:.4}"))
                        .unwrap_or_else(|| "-".into()),
                    format!("{:.4}", w.prior_mad),
                    format!("{:.4}", w.latest_median),
                    format!("{:.4}", w.tolerance),
                    format!("{}/{}", w.samples.0, w.samples.1),
                    format!("{:?}", w.status).to_lowercase(),
                ]);
            }
            table.print();
        }
    }
    if report.violations.is_empty() {
        println!("\n  violations: none");
    } else {
        println!("\n  violations:");
        for v in &report.violations {
            println!("    - {v}");
        }
    }
}

/// `bench-json-service` — the session layer's mixed-workload
/// throughput: one warm [`spatial_trees::session::SpatialForest`]
/// serving 16 batches × 96 mixed queries (LCA + subtree sums + tour
/// ranks) against (a) building every engine fresh per query — the
/// no-session-layer baseline the acceptance bar measures — and (b) a
/// fresh forest per batch. Writes `BENCH_service.json` next to the
/// workspace root.
fn bench_json_service() {
    use spatial_trees::euler::ranking::RankingEngine;
    use spatial_trees::euler::EulerTour;
    use spatial_trees::lca::LcaEngine;
    use spatial_trees::session::{ForestOptions, Request, Response};
    use spatial_trees::tree::ChildrenCsr;
    use spatial_trees::treefix::contraction::ContractionEngine;
    use spatial_trees::treefix::Add;

    println!(
        "\n### bench-json-service — SpatialForest mixed-workload throughput → BENCH_service.json\n"
    );
    let mut lab = LabRun::new("service");

    let log_n = 13u32;
    let n = 1u32 << log_n;
    let family = TreeFamily::UniformRandom;
    let t = workload(family, n, 21);

    // 16 batches × 96 mixed queries, drawn once up front.
    let mut qrng = StdRng::seed_from_u64(22);
    let batches: Vec<QueryBatch> = (0..16)
        .map(|_| {
            let mut b = QueryBatch::with_capacity(96);
            for _ in 0..40 {
                b.lca(qrng.gen_range(0..n), qrng.gen_range(0..n));
            }
            for _ in 0..30 {
                b.subtree_sum(qrng.gen_range(0..n));
            }
            for _ in 0..26 {
                b.rank(qrng.gen_range(0..n));
            }
            b
        })
        .collect();
    let total_queries: usize = batches.iter().map(|b| b.len()).sum();

    // ---- The warm forest: correctness reference + charge rows. ----
    let mut forest = SpatialForest::new(&t);
    forest.execute(batches[0].requests(), &mut StdRng::seed_from_u64(23));
    let report = {
        forest.execute(batches[0].requests(), &mut StdRng::seed_from_u64(23));
        forest.last_report()
    };
    let forest_answers: Vec<Response> = forest
        .execute(batches[0].requests(), &mut StdRng::seed_from_u64(23))
        .to_vec();

    // ---- Baseline (a): fresh engines per query (shared tree, layout ----
    // ---- and machine — only the engines are rebuilt, which is       ----
    // ---- exactly what the session layer amortizes).                 ----
    let layout = Layout::light_first(&t, CurveKind::Hilbert);
    let sizes = t.subtree_sizes();
    let csr = ChildrenCsr::by_size(&t, &sizes);
    let tour = EulerTour::light_first_from_csr(&t, &csr);
    let ones = vec![Add(1); n as usize];
    let answer_fresh = |req: &Request, rng: &mut StdRng| -> Response {
        match *req {
            Request::Lca(a, b) => {
                let machine = layout.machine();
                let mut engine = LcaEngine::new(&layout, &t);
                Response::Lca(engine.run(&machine, &[(a, b)], rng).answers[0])
            }
            Request::SubtreeSum(v) => {
                let machine = layout.machine();
                let mut engine = ContractionEngine::new(&t, &layout, &ones, true);
                engine.contract(&machine, rng);
                Response::SubtreeSum(engine.uncontract_bottom_up(&machine)[v as usize].0)
            }
            Request::Rank(v) => {
                let machine = Machine::on_curve(CurveKind::Hilbert, 2 * n);
                let mut engine = RankingEngine::new(tour.next_darts(), tour.start());
                engine.rank(&machine, rng);
                Response::Rank(if v == t.root() {
                    0
                } else {
                    engine.ranks()[spatial_trees::euler::tour::down(v) as usize] + 1
                })
            }
            Request::InsertLeaf { .. } => unreachable!("query-only batches"),
        }
    };
    // Cross-check the warm forest against the fresh-engine baseline
    // before timing anything.
    {
        let mut rng = StdRng::seed_from_u64(23);
        for (req, got) in batches[0].requests().iter().zip(&forest_answers) {
            assert_eq!(
                *got,
                answer_fresh(req, &mut rng),
                "forest diverged on {req:?}"
            );
        }
    }

    // ---- Timings (ms per query). ----
    let reuse_ms = best_of(3, SINGLE_SHOT, || {
        let mut acc = 0u64;
        for b in &batches {
            let responses = forest.execute(b.requests(), &mut StdRng::seed_from_u64(23));
            acc = acc.wrapping_add(responses.len() as u64);
        }
        acc
    }) / total_queries as f64;

    // Fresh engines are ~three orders slower; one batch is plenty of
    // signal (and keeps CI fast).
    let fresh_engines_ms = best_of(1, SINGLE_SHOT, || {
        let mut rng = StdRng::seed_from_u64(23);
        let mut acc = 0u64;
        for req in batches[0].requests() {
            acc = acc.wrapping_add(match answer_fresh(req, &mut rng) {
                Response::Lca(w) => w as u64,
                Response::SubtreeSum(s) => s,
                Response::Rank(r) => r,
                Response::InsertedLeaf(v) => v as u64,
            });
        }
        acc
    }) / batches[0].len() as f64;

    let fresh_forest_ms = best_of(2, SINGLE_SHOT, || {
        let mut acc = 0u64;
        for b in batches.iter().take(4) {
            let mut fresh = SpatialForest::new(&t);
            let responses = fresh.execute(b.requests(), &mut StdRng::seed_from_u64(23));
            acc = acc.wrapping_add(responses.len() as u64);
        }
        acc
    }) / (4 * batches[0].len()) as f64;

    let speedup_engines = fresh_engines_ms / reuse_ms;
    let speedup_forest = fresh_forest_ms / reuse_ms;

    // ---- Crossover mode: the same sums priced on the PRAM shadow. ----
    let crossover_report = {
        let mut xf = SpatialForest::with_options(
            &t,
            ForestOptions {
                crossover: true,
                ..ForestOptions::default()
            },
        );
        let mut b = QueryBatch::new();
        for i in 0..16u32 {
            b.subtree_sum(i * 97 % n);
        }
        xf.execute(b.requests(), &mut StdRng::seed_from_u64(24));
        xf.last_report()
    };
    let pram_shadow = crossover_report.pram.expect("crossover mode");

    // Timings are per query.
    let rows = lab.speedup_table(
        "ms",
        4,
        &[
            (
                "service_mixed_2^13_reuse_vs_fresh_engines",
                Speedup::of(reuse_ms, fresh_engines_ms),
            ),
            (
                "service_mixed_2^13_reuse_vs_fresh_forest_per_batch",
                Speedup::of(reuse_ms, fresh_forest_ms),
            ),
        ],
    );
    println!(
        "  crossover shadow: grid energy {} vs PRAM energy {} ({}x)",
        crossover_report.grid.energy,
        pram_shadow.energy,
        pram_shadow.energy / crossover_report.grid.energy.max(1)
    );

    lab.config("n", format!("2^{log_n}"));
    lab.config("batches", "16x96 mixed");
    let mut scenario_rows = session_rows(&mut lab, "service_mixed", family, n, report).to_vec();
    for (impl_name, r) in [("spatial", crossover_report.grid), ("pram", pram_shadow)] {
        scenario_rows.push(lab.scenario_row(
            "service_sums_crossover",
            impl_name,
            family.name(),
            n as u64,
            CurveKind::Hilbert.name(),
            r,
            None,
        ));
    }
    let json = format!(
        "{{\n  \"workload\": \"uniform_random n=2^{log_n}, 16 batches x 96 mixed queries (40 LCA + 30 subtree sums + 26 tour ranks)\",\n  \"baselines\": \"fresh-engines = rebuild every engine per query (shared tree/layout); fresh-forest = new SpatialForest per batch\",\n  \"total_queries\": {total_queries},\n  \"speedup_vs_fresh_engines\": {speedup_engines:.3},\n  \"speedup_vs_fresh_forest_per_batch\": {speedup_forest:.3},\n  \"results\": [\n{}\n  ],\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        rows,
        scenario_rows.join(",\n")
    );
    write_snapshot(lab, "BENCH_service.json", &json);
}

/// `bench-json-throughput` — sustained mixed-load throughput of the
/// sharded [`spatial_trees::serve::ForestService`]: 8 tenants of
/// n = 2^13 each, an open-loop arrival trace of 256 jobs × 32 mixed
/// requests (≈6% inserts) with tenant skew 4:2:2:1:1:1:1:1, replayed
/// against 1/2/4/8 worker threads. Reports measured wall-clock QPS,
/// **modeled** aggregate QPS (total requests / busiest shard's busy
/// time — the load-balance critical path, i.e. the throughput the
/// sharding supports with one core per worker; on a machine with
/// fewer cores, wall QPS is core-bound while this figure is not), and
/// client-observed p50/p99 job latency. Also runs the dispatch
/// granularity micro-sweep behind
/// [`spatial_trees::serve::MIN_COALESCED_BATCH`]. Writes
/// `BENCH_throughput.json` next to the workspace root.
fn bench_json_throughput() {
    use spatial_trees::serve::{
        thread_cpu_time, ForestService, ServiceOptions, Ticket, MIN_COALESCED_BATCH,
    };
    use std::time::Instant;

    println!(
        "\n### bench-json-throughput — sharded ForestService sustained load → BENCH_throughput.json\n"
    );
    let mut lab = LabRun::new("throughput");

    let log_n = 13u32;
    let n = 1u32 << log_n;
    let tenants = 8usize;
    let family = TreeFamily::UniformRandom;
    let trees: Vec<Tree> = (0..tenants)
        .map(|t| workload(family, n, 31 + t as u64))
        .collect();

    // ---- Open-loop arrival trace, shared by every worker count. ----
    // Tenant skew stresses load balance: the busiest tenant carries
    // 4/13 of the requests. That does not cap the modeled 8w/1w scaling
    // at 13/4 = 3.25x: the figure divides per-thread busy clocks, and
    // eight workers sharing fewer cores do not split one worker's busy
    // time eight ways, so there it is not a critical path (16 runs on a
    // 2-vCPU host read 2.84–4.03x, 12 of them above 3.25x). The bar in
    // `lab::BARS` asks for 2.0x.
    const JOB_LEN: usize = 32;
    const JOBS: usize = 256;
    let skew = [4u32, 2, 2, 1, 1, 1, 1, 1];
    let skew_total: u32 = skew.iter().sum();
    let mut trace_rng = StdRng::seed_from_u64(32);
    let mut sizes: Vec<u32> = vec![n; tenants];
    let trace: Vec<(u32, QueryBatch)> = (0..JOBS)
        .map(|_| {
            let mut pick = trace_rng.gen_range(0..skew_total);
            let tenant = skew
                .iter()
                .position(|&w| {
                    if pick < w {
                        true
                    } else {
                        pick -= w;
                        false
                    }
                })
                .expect("skew covers the draw") as u32;
            let mut b = QueryBatch::with_capacity(JOB_LEN);
            let sz = &mut sizes[tenant as usize];
            for _ in 0..JOB_LEN {
                let kind = trace_rng.gen_range(0..100);
                if kind < 6 {
                    b.insert_leaf_weighted(trace_rng.gen_range(0..*sz), trace_rng.gen_range(1..5));
                    *sz += 1;
                } else if kind < 40 {
                    b.lca(trace_rng.gen_range(0..*sz), trace_rng.gen_range(0..*sz));
                } else if kind < 72 {
                    b.subtree_sum(trace_rng.gen_range(0..*sz));
                } else {
                    b.rank(trace_rng.gen_range(0..*sz));
                }
            }
            (tenant, b)
        })
        .collect();
    let total_requests = (JOBS * JOB_LEN) as u64;

    // ---- Correctness cross-check before timing anything: the ----
    // ---- 2-worker service answers exactly like direct forests. ----
    let direct_answers: Vec<Vec<Response>> = {
        let mut forests: Vec<SpatialForest> = trees.iter().map(SpatialForest::new).collect();
        let mut rng = StdRng::seed_from_u64(40);
        trace
            .iter()
            .map(|(tenant, b)| {
                forests[*tenant as usize]
                    .execute(b.requests(), &mut rng)
                    .to_vec()
            })
            .collect()
    };
    {
        let service = ForestService::start(&trees, ServiceOptions::new(2));
        let tickets: Vec<Ticket> = trace
            .iter()
            .map(|(tenant, b)| service.submit(*tenant, b.requests()))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(
                ticket.wait().expect("worker alive"),
                direct_answers[i],
                "service diverged from direct forests on job {i}"
            );
        }
        service.shutdown();
    }

    // ---- Direct single-thread baseline (per-job, no coalescing): ----
    // ---- the warm path the 1-worker service must stay within 10% ----
    // ---- of. One pass, in ms per query, on the per-thread CPU     ----
    // ---- clock the worker charges its busy time on. The forests   ----
    // ---- are built before the clock starts, as the service builds ----
    // ---- its in-memory tenants before its worker's clock runs.    ----
    let direct_pass = || {
        let mut forests: Vec<SpatialForest> = trees.iter().map(SpatialForest::new).collect();
        let mut rng = StdRng::seed_from_u64(40);
        let t0 = thread_cpu_time();
        let mut acc = 0u64;
        for (tenant, b) in &trace {
            acc = acc.wrapping_add(
                forests[*tenant as usize]
                    .execute(b.requests(), &mut rng)
                    .len() as u64,
            );
        }
        std::hint::black_box(acc);
        let busy = thread_cpu_time().saturating_sub(t0);
        busy.as_secs_f64() * 1e3 / total_requests as f64
    };

    // ---- The sustained-load runs. ----
    struct ConfigRun {
        workers: usize,
        wall_qps: f64,
        modeled_qps: f64,
        p50_ms: f64,
        p99_ms: f64,
        executes: u64,
        busy_ms_per_q_busiest: f64,
        total_busy_s: f64,
        grid_total: CostReport,
    }
    let run_config = |workers: usize| -> ConfigRun {
        let mut opts = ServiceOptions::new(workers);
        opts.seed = 77;
        opts.queue_capacity = 512;
        let service = ForestService::start(&trees, opts);
        // One collector thread per shard drains tickets in each
        // shard's FIFO completion order, so a slow shard never
        // inflates another shard's observed latency.
        let (mut latencies, wall_s) = std::thread::scope(|s| {
            let mut txs = Vec::with_capacity(workers);
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let (tx, rx) = std::sync::mpsc::channel::<(Instant, Ticket)>();
                txs.push(tx);
                handles.push(s.spawn(move || {
                    let mut lats = Vec::new();
                    while let Ok((t0, ticket)) = rx.recv() {
                        std::hint::black_box(ticket.wait().expect("worker alive").len());
                        lats.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    lats
                }));
            }
            let wall0 = Instant::now();
            for (tenant, b) in &trace {
                let t0 = Instant::now();
                let ticket = service.submit(*tenant, b.requests());
                txs[*tenant as usize % workers]
                    .send((t0, ticket))
                    .expect("collector alive");
            }
            drop(txs);
            let mut lats: Vec<f64> = Vec::with_capacity(JOBS);
            for h in handles {
                lats.extend(h.join().expect("collector"));
            }
            (lats, wall0.elapsed().as_secs_f64())
        });
        let report = service.shutdown();
        assert_eq!(report.total_requests(), total_requests);
        latencies.sort_by(f64::total_cmp);
        // Nearest-rank percentile: the old `((len-1)·p) as usize`
        // truncation read p99-over-256 at index 252 (~p98.8), biasing
        // the reported tail low.
        let pct =
            |p: f64| spatial_bench::percentile(&latencies, p).expect("every job has a latency");
        let busiest = report
            .shards
            .iter()
            .max_by_key(|s| s.busy)
            .expect("nonempty");
        let grid_total = report
            .shards
            .iter()
            .flat_map(|s| s.tenants.iter())
            .flat_map(|t| t.reports.iter())
            .fold(CostReport::default(), |acc, r| acc + r.grid);
        ConfigRun {
            workers,
            wall_qps: total_requests as f64 / wall_s,
            modeled_qps: report.modeled_qps(),
            p50_ms: pct(0.50),
            p99_ms: pct(0.99),
            executes: report.total_executes(),
            busy_ms_per_q_busiest: busiest.busy.as_secs_f64() * 1e3
                / busiest.requests.max(1) as f64,
            total_busy_s: report.total_busy().as_secs_f64(),
            grid_total,
        }
    };

    let runs: Vec<ConfigRun> = [1usize, 2, 4, 8].into_iter().map(run_config).collect();

    let mut table = Table::new([
        "workers",
        "wall q/s",
        "modeled q/s",
        "p50 ms",
        "p99 ms",
        "sessions",
    ]);
    for r in &runs {
        table.row([
            r.workers.to_string(),
            f2(r.wall_qps),
            f2(r.modeled_qps),
            f3(r.p50_ms),
            f3(r.p99_ms),
            r.executes.to_string(),
        ]);
    }
    table.print();

    // The modeled 1 → 8 worker scaling, a ratio of per-thread busy
    // clocks (see the trace above); its bar is in `lab::BARS`.
    let speedup_modeled = runs[3].modeled_qps / runs[0].modeled_qps;
    // The single-shard overhead is the median ratio of interleaved
    // pairs, each a direct pass and then a 1-worker service pass (a
    // best-of-2 direct pass against one service run read between −19%
    // and +13% overhead on unchanged code).
    const OVERHEAD_PAIRS: u32 = 5;
    direct_pass();
    let overhead = interleaved_pairs(OVERHEAD_PAIRS, direct_pass, || {
        run_config(1).busy_ms_per_q_busiest
    });
    let direct_ms_per_q = overhead.optimized;
    let single_shard_busy_ms_per_q = overhead.reference;
    let single_shard_overhead = overhead.speedup;
    println!(
        "  modeled scaling 1->8 workers: {speedup_modeled:.2}x; single-shard overhead vs direct: {:.1}%",
        (single_shard_overhead - 1.0) * 100.0
    );

    // ---- Dispatch granularity micro-sweep: per-query cost vs   ----
    // ---- requests-per-cycle, coalescing disabled so every job  ----
    // ---- is its own session. The curve fits F/b + c: a fixed   ----
    // ---- per-cycle cost F (session setup + hand-off) amortized ----
    // ---- over b requests plus a marginal per-query cost c.     ----
    const SWEEP_REQUESTS: usize = 1024;
    let sweep_sizes = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    let mut sweep_rows = Vec::new();
    let mut sweep_ms_per_q = Vec::new();
    let mut sweep_table = Table::new(["batch", "ms/query", "vs b=1024"]);
    let mut sweep_rng = StdRng::seed_from_u64(50);
    let sweep_jobs: Vec<QueryBatch> = {
        // One read-only request pool, re-chunked per batch size below.
        let mut b = QueryBatch::with_capacity(SWEEP_REQUESTS);
        for _ in 0..SWEEP_REQUESTS {
            match sweep_rng.gen_range(0..3) {
                0 => b.lca(sweep_rng.gen_range(0..n), sweep_rng.gen_range(0..n)),
                1 => b.subtree_sum(sweep_rng.gen_range(0..n)),
                _ => b.rank(sweep_rng.gen_range(0..n)),
            };
        }
        vec![b]
    };
    let pool = sweep_jobs[0].requests();
    let sweep_opts = || {
        let mut opts = ServiceOptions::new(1);
        opts.seed = 77;
        opts.queue_capacity = 512;
        opts.coalesce_target = 1; // one session per job: expose the hand-off
        opts
    };
    // Every sweep config starts with the identical warm job (engine
    // builds + one big session); measure that prefix once so the
    // per-batch-size figures cover only the chunked timed pass.
    let warm_busy_s = {
        let service = ForestService::start(&trees[..1], sweep_opts());
        service.submit(0, pool).wait().expect("worker alive");
        service.shutdown().shards[0].busy.as_secs_f64()
    };
    // One sweep run: a fresh 1-worker service, the warm job, then
    // `passes` passes over the pool in jobs of `bsz` requests; ms per
    // query of the chunked passes.
    let sweep_run = |bsz: usize, passes: usize| {
        let service = ForestService::start(&trees[..1], sweep_opts());
        service.submit(0, pool).wait().expect("worker alive");
        let tickets: Vec<Ticket> = (0..passes)
            .flat_map(|_| pool.chunks(bsz))
            .map(|chunk| service.submit(0, chunk))
            .collect();
        for t in tickets {
            std::hint::black_box(t.wait().expect("worker alive").len());
        }
        let report = service.shutdown();
        let timed_s = (report.shards[0].busy.as_secs_f64() - warm_busy_s).max(1e-9);
        timed_s * 1e3 / (passes * SWEEP_REQUESTS) as f64
    };
    for &bsz in &sweep_sizes {
        let ms_per_q = sweep_run(bsz, 1);
        sweep_ms_per_q.push(ms_per_q);
        sweep_rows.push(format!(
            "    {{\"batch\": {bsz}, \"ms_per_query\": {ms_per_q:.5}}}"
        ));
    }
    let asymptote = *sweep_ms_per_q.last().expect("sweep ran");
    for (i, &bsz) in sweep_sizes.iter().enumerate() {
        sweep_table.row([
            bsz.to_string(),
            format!("{:.5}", sweep_ms_per_q[i]),
            format!("{:.2}x", sweep_ms_per_q[i] / asymptote),
        ]);
    }
    sweep_table.print();
    // The knee criterion is self-relative: the smallest cycle size
    // whose per-query cost is within 2x of the batch-everything bound
    // (b = the whole pool). Below it, fixed-cost amortization still
    // dominates; above it, doubling the cycle buys < 2x.
    let measured_min = sweep_sizes
        .iter()
        .zip(&sweep_ms_per_q)
        .find(|(_, &ms)| ms <= 2.0 * asymptote)
        .map(|(&b, _)| b)
        .unwrap_or(*sweep_sizes.last().expect("nonempty"));
    println!(
        "  measured minimum coalesced batch (within 2x of the b=1024 bound): {measured_min}; baked-in MIN_COALESCED_BATCH = {MIN_COALESCED_BATCH}"
    );
    // Regression check on the baked constant: its per-query cost must
    // stay within 2.5x of the batch-everything bound. It reads the
    // median ratio of interleaved pairs, each a b=1024 run and then a
    // b=MIN_COALESCED_BATCH run. A single sweep broke the bound about
    // one run in four on a 2-vCPU host, and medians of one-pass pairs
    // still read 1.96–2.81 over five runs and broke it once: one pass
    // is only a few ms of busy time beside the once-measured warm
    // prefix. Each paired run therefore makes GRANULARITY_PASSES passes.
    const GRANULARITY_PAIRS: u32 = 5;
    const GRANULARITY_PASSES: usize = 8;
    let granularity = interleaved_pairs(
        GRANULARITY_PAIRS,
        || sweep_run(SWEEP_REQUESTS, GRANULARITY_PASSES),
        || sweep_run(MIN_COALESCED_BATCH, GRANULARITY_PASSES),
    );
    println!(
        "  b={MIN_COALESCED_BATCH} vs b={SWEEP_REQUESTS}: {:.2}x per query (median of {GRANULARITY_PAIRS} interleaved pairs; bound 2.5x)",
        granularity.speedup
    );
    assert!(
        granularity.speedup <= 2.5,
        "MIN_COALESCED_BATCH={MIN_COALESCED_BATCH} no longer amortizes the cycle cost: {:.5} ms/q vs bound {:.5} ({:.2}x)",
        granularity.reference,
        granularity.optimized,
        granularity.speedup
    );
    // Two-point fit of ms/q = F/b + c through the check's medians at
    // b = MIN_COALESCED_BATCH and b = 1024. The single-shot sweep's
    // last two points put F anywhere in 0.21–10.78 ms per cycle over 16
    // runs of unchanged serve code. The marginal cost, here
    // 2·ms₁₀₂₄ − ms₅₁₂, is unresolved (`null`, not a clamped 0) when the
    // paired ratio reads ≥ 2.
    let (b1, b2) = (MIN_COALESCED_BATCH as f64, SWEEP_REQUESTS as f64);
    let (fixed_ms_per_cycle, marginal_ms_per_q) =
        two_point_fit((b1, granularity.reference), (b2, granularity.optimized));
    match marginal_ms_per_q {
        Some(c) => println!(
            "  fit: per-cycle fixed cost {fixed_ms_per_cycle:.2} ms, marginal {c:.4} ms/query"
        ),
        None => println!(
            "  fit: per-cycle fixed cost {fixed_ms_per_cycle:.2} ms, marginal unresolved \
             (the medians' ratio {:.2}x >= {:.0}x, which F/b + c with c > 0 cannot produce)",
            granularity.reference / granularity.optimized,
            b2 / b1
        ),
    }
    let marginal_json = marginal_ms_per_q.map_or_else(|| "null".to_string(), |c| format!("{c:.4}"));

    // ---- JSON. ----
    let result_rows: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"workers\": {}, \"wall_qps\": {:.1}, \"modeled_qps\": {:.1}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"jobs\": {JOBS}, \"sessions\": {}, \"total_busy_s\": {:.4}}}",
                r.workers, r.wall_qps, r.modeled_qps, r.p50_ms, r.p99_ms, r.executes, r.total_busy_s
            )
        })
        .collect();
    lab.config("n", format!("2^{log_n}"));
    lab.config("tenants", tenants);
    lab.config("trace", format!("{JOBS}x{JOB_LEN}"));
    // Summed per-session charges depend on how the open-loop trace
    // coalesces, which is queue-timing dependent — these rows are NOT
    // run-to-run deterministic, so the lab gates them under the noise
    // tolerance instead of exactly.
    let scenario_rows: Vec<String> = runs
        .iter()
        .map(|r| {
            lab.scenario_row_nondet(
                "service_throughput_grid_total",
                &format!("sharded-{}w", r.workers),
                family.name(),
                n as u64,
                CurveKind::Hilbert.name(),
                r.grid_total,
                None,
            )
        })
        .collect();
    for r in &runs {
        lab.wall_info(&format!("wall_qps_{}w", r.workers), r.wall_qps);
        lab.wall_info(&format!("modeled_qps_{}w", r.workers), r.modeled_qps);
        lab.wall_time(&format!("p50_ms_{}w", r.workers), r.p50_ms);
        lab.wall_time(&format!("p99_ms_{}w", r.workers), r.p99_ms);
    }
    lab.wall_ratio("modeled_scaling_8w_vs_1w.speedup", speedup_modeled);
    lab.wall_info("single_shard_overhead_vs_direct", single_shard_overhead);
    lab.wall_info("granularity_fixed_ms_per_cycle", fixed_ms_per_cycle);
    let json = format!(
        "{{\n  \"workload\": \"8 tenants x uniform_random n=2^{log_n}, open-loop trace of {JOBS} jobs x {JOB_LEN} mixed requests (~6% inserts), tenant skew 4:2:2:1:1:1:1:1\",\n  \"metrics\": \"modeled_qps = total_requests / busiest shard busy time (load-balance critical path, one core per worker); wall_qps is measured on this machine and bounded by its core count; latency is client-observed per job\",\n  \"total_requests\": {total_requests},\n  \"speedup_modeled_8w_vs_1w\": {speedup_modeled:.3},\n  \"single_shard_busy_ms_per_query\": {:.4},\n  \"direct_forest_ms_per_query\": {direct_ms_per_q:.4},\n  \"single_shard_overhead_vs_direct\": {single_shard_overhead:.3},\n  \"min_coalesced_batch\": {MIN_COALESCED_BATCH},\n  \"measured_min_coalesced_batch\": {measured_min},\n  \"granularity_fit\": {{\"fixed_ms_per_cycle\": {fixed_ms_per_cycle:.3}, \"marginal_ms_per_query\": {marginal_json}}},\n  \"results\": [\n{}\n  ],\n  \"granularity_sweep\": [\n{}\n  ],\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        single_shard_busy_ms_per_q,
        result_rows.join(",\n"),
        sweep_rows.join(",\n"),
        scenario_rows.join(",\n")
    );
    write_snapshot(lab, "BENCH_throughput.json", &json);
}

/// `bench-json-durability` — crash-recovery cost of the snapshot +
/// journal store: a [`spatial_trees::session::SpatialForest`] lives
/// through a long journaled mutation history (weighted inserts,
/// weight updates, query-triggered light-first rebuilds) with a
/// checkpoint snapshot taken near the end, leaving a short journal
/// tail. The bar compares restarting from the checkpoint (snapshot
/// read + tail replay — the crash-recovery path) against rebuilding by
/// replaying the entire history from the seed snapshot, and
/// cross-checks both against the never-stopped forest (answers *and*
/// `SessionReport` charges). Writes `BENCH_durability.json` next to
/// the workspace root.
fn bench_json_durability() {
    use spatial_trees::session::ForestOptions;
    use spatial_trees::store::{read_journal, JournalWriter};

    println!(
        "\n### bench-json-durability — snapshot + journal recovery vs full replay → BENCH_durability.json\n"
    );
    let mut lab = LabRun::new("durability");

    let log_n = 12u32;
    let n = 1u32 << log_n;
    let family = TreeFamily::UniformRandom;
    let t = workload(family, n, 41);
    let opts = ForestOptions::default();

    let dir = std::env::temp_dir().join(format!("spatial-bench-durability-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let seed_snap_path = dir.join("seed.snapshot");
    let history_path = dir.join("history.journal");
    let ckpt_snap_path = dir.join("checkpoint.snapshot");
    let tail_path = dir.join("tail.journal");

    // ---- The live forest: long journaled history, checkpoint near ----
    // ---- the end, then a short tail of post-checkpoint mutations.  ----
    let mut live = SpatialForest::with_options(&t, opts);
    live.snapshot_to(&seed_snap_path, 0).expect("seed snapshot");
    live.attach_journal(JournalWriter::create(&history_path).expect("history journal"));

    let mut wl = StdRng::seed_from_u64(42);
    let round = |forest: &mut SpatialForest, inserts: u32, rng: &mut StdRng| {
        let mut b = QueryBatch::new();
        for _ in 0..inserts {
            b.insert_leaf_weighted(rng.gen_range(0..forest.n()), rng.gen_range(1..100u64));
        }
        let nn = forest.n();
        // The queries force a journaled light-first rebuild per round —
        // the expensive part of replaying history.
        b.lca(rng.gen_range(0..nn), rng.gen_range(0..nn))
            .subtree_sum(rng.gen_range(0..nn));
        forest.execute(b.requests(), &mut StdRng::seed_from_u64(43));
        forest.set_weight(rng.gen_range(0..forest.n()), rng.gen_range(1..1000u64));
    };
    for _ in 0..24 {
        round(&mut live, 64, &mut wl);
    }
    live.journal_mut().expect("attached").sync().expect("sync");
    live.detach_journal();

    live.snapshot_to(&ckpt_snap_path, 1)
        .expect("checkpoint snapshot");
    live.attach_journal(JournalWriter::create(&tail_path).expect("tail journal"));
    for _ in 0..2 {
        round(&mut live, 30, &mut wl);
    }
    live.journal_mut().expect("attached").sync().expect("sync");
    live.detach_journal();

    let history_records = read_journal(&history_path).expect("history records").len();
    let tail_records = read_journal(&tail_path).expect("tail records").len();

    // ---- Both restart paths, verified against the live forest ----
    // ---- before anything is timed.                             ----
    let recover = || {
        SpatialForest::recover_from(&ckpt_snap_path, &tail_path, opts)
            .expect("recover from checkpoint")
    };
    let rebuild = || {
        let mut f = SpatialForest::recover_from(&seed_snap_path, &history_path, opts)
            .expect("recover from seed");
        f.apply_journal(&read_journal(&tail_path).expect("tail records"));
        f
    };
    let mut recovered = recover();
    assert_same_forest(&mut recovered, &mut live, 44, "recover");
    assert_same_forest(&mut rebuild(), &mut live, 44, "rebuild");
    let report = recovered.last_report();

    // ---- Timings (ms per restart, files read inside the loop). ----
    let recover_ms = best_of(5, SINGLE_SHOT, || recover().dynamic_stats().insertions);
    let rebuild_ms = best_of(3, SINGLE_SHOT, || rebuild().dynamic_stats().insertions);
    let speedup = rebuild_ms / recover_ms;

    let mut table = Table::new(["restart path", "ms", "journal records", "speedup"]);
    table.row([
        "recover (checkpoint + tail)".to_string(),
        f3(recover_ms),
        tail_records.to_string(),
        format!("{speedup:.2}x"),
    ]);
    table.row([
        "rebuild (seed + full history)".to_string(),
        f3(rebuild_ms),
        (history_records + tail_records).to_string(),
        "1.00x".to_string(),
    ]);
    table.print();

    lab.config("n", format!("2^{log_n}"));
    lab.config("rounds", "24 + 2 tail");
    lab.wall_pair(
        "recovery_vs_full_replay",
        Speedup::of(recover_ms, rebuild_ms),
    );
    let scenario_rows = session_rows(
        &mut lab,
        "durability_recovered_mixed",
        family,
        live.n(),
        report,
    );
    let json = format!(
        "{{\n  \"workload\": \"uniform_random n=2^{log_n}, 24 journaled rounds x (64 weighted inserts + mixed queries + set_weight), checkpoint snapshot before a 2-round tail\",\n  \"metrics\": \"recover = checkpoint snapshot read + tail journal replay; rebuild = seed snapshot read + full history replay; both paths verified bit-identical (answers and charges) against the never-stopped forest before timing\",\n  \"history_records\": {history_records},\n  \"tail_records\": {tail_records},\n  \"recover_ms\": {recover_ms:.3},\n  \"rebuild_ms\": {rebuild_ms:.3},\n  \"speedup_recover_vs_rebuild\": {speedup:.3},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        scenario_rows.join(",\n")
    );
    write_snapshot(lab, "BENCH_durability.json", &json);

    std::fs::remove_dir_all(&dir).ok();
}

/// `bench-json-ooc` — the out-of-core story end to end. Part one
/// sweeps resident-page budget × forest size over mapped recovery
/// (zero-copy slabs over the snapshot file): every cell serves the
/// identical query-only mixed stream as the live forest that wrote
/// the snapshot and is verified bit-identical to it (answers and
/// non-paging charges) before timing; the sweep includes forests whose
/// slab footprint exceeds the budget many times over, where every row
/// must report paging faults. Part two measures the incremental checkpoint on a
/// dirty-tail workload (weight-edit-heavy, a few inserts, no
/// rebuild), whose size against a full snapshot rewrite has a bar in
/// [`lab::BARS`]. Writes `BENCH_ooc.json` next to the workspace root.
fn bench_json_ooc() {
    use spatial_trees::model::PagingConfig;
    use spatial_trees::session::ForestOptions;

    println!(
        "\n### bench-json-ooc — mapped recovery under resident budgets + incremental checkpoints → BENCH_ooc.json\n"
    );
    let mut lab = LabRun::new("ooc");

    let family = TreeFamily::UniformRandom;
    let page_bytes = 4096u64;
    let dir = std::env::temp_dir().join(format!("spatial-bench-ooc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let no_journal = dir.join("absent.journal");

    // A forest with history: weighted inserts, a settled (rebuilt)
    // layout, and non-uniform weights — so every slab is live data.
    // It writes its snapshot to `path` and stays live as the oracle.
    let worked_forest = |log_n: u32, path: &std::path::Path| -> SpatialForest {
        let n = 1u32 << log_n;
        let t = workload(family, n, 41);
        let mut forest = SpatialForest::new(&t);
        let mut rng = StdRng::seed_from_u64(42 + log_n as u64);
        let mut b = QueryBatch::new();
        for i in 0..64u32 {
            b.insert_leaf_weighted(i % n, (i as u64 % 7) + 1);
        }
        b.lca(0, n - 1).subtree_sum(0).rank(1);
        forest.execute(b.requests(), &mut rng);
        for v in 0..(n / 2) {
            forest.set_weight(v, (v as u64 % 13) + 1);
        }
        forest.snapshot_to(path, 1).expect("sweep snapshot");
        forest
    };
    let stream = |n: u32, rng: &mut StdRng| -> QueryBatch {
        let mut b = QueryBatch::with_capacity(200);
        for _ in 0..200 {
            match rng.gen_range(0..100) {
                0..=29 => b.lca(rng.gen_range(0..n), rng.gen_range(0..n)),
                30..=64 => b.subtree_sum(rng.gen_range(0..n)),
                _ => b.rank(rng.gen_range(0..n)),
            };
        }
        b
    };
    // Three rounds of the stream: the answers, and the reports without
    // their paging rows.
    let serve = |forest: &mut SpatialForest| {
        let mut rng = StdRng::seed_from_u64(7);
        let mut answers = Vec::new();
        let mut reports = Vec::new();
        for round in 0..3u64 {
            let b = stream(forest.n(), &mut rng);
            answers
                .extend_from_slice(forest.execute(b.requests(), &mut StdRng::seed_from_u64(round)));
            let mut report = forest.last_report();
            report.paging = None;
            reports.push(report);
        }
        (answers, reports)
    };

    // ---- Part one: resident budget × forest size sweep. ----
    let mut table = Table::new([
        "n",
        "snapshot KiB",
        "budget KiB",
        "faults",
        "evictions",
        "paging energy",
        "mapped ms",
    ]);
    let mut sweep_rows: Vec<String> = Vec::new();
    let mut scenario_rows: Vec<String> = Vec::new();
    for log_n in [12u32, 14] {
        let snap_path = dir.join(format!("sweep-{log_n}.snapshot"));
        let mut live = worked_forest(log_n, &snap_path);
        let n0 = live.n();
        let (want, want_reports) = serve(&mut live);
        let snapshot_bytes = std::fs::metadata(&snap_path).expect("snapshot len").len();
        // 4 pages (16 KiB) is far below either forest's slab footprint
        // — the forest-exceeds-budget cells of the sweep; the largest
        // budget holds everything.
        for resident_pages in [4usize, 64, 1 << 14] {
            let paging = PagingConfig {
                page_bytes,
                resident_pages,
            };
            let run = || {
                let mut forest = SpatialForest::recover_from(
                    &snap_path,
                    &no_journal,
                    ForestOptions {
                        paging: Some(paging),
                        ..ForestOptions::default()
                    },
                )
                .expect("sweep recovery");
                let (answers, reports) = serve(&mut forest);
                (forest, answers, reports)
            };
            let (mapped, got, got_reports) = run();
            assert_eq!(
                got, want,
                "n=2^{log_n}: mapped answers diverged from the live forest"
            );
            assert_eq!(
                got_reports, want_reports,
                "n=2^{log_n}: mapped non-paging charges diverged from the live forest"
            );
            assert!(mapped.any_slab_mapped(), "query-only stream never promotes");
            let paged = mapped.paging_lifetime().expect("paging configured");
            let budget_bytes = page_bytes * resident_pages as u64;
            if budget_bytes < snapshot_bytes {
                assert!(
                    paged.faults > 0,
                    "n=2^{log_n}: a below-footprint budget must fault"
                );
            }
            let mapped_ms = best_of(3, SINGLE_SHOT, || run().1.len() as u64);
            table.row([
                format!("2^{log_n}"),
                (snapshot_bytes / 1024).to_string(),
                (budget_bytes / 1024).to_string(),
                paged.faults.to_string(),
                paged.evictions.to_string(),
                paged.charge.energy.to_string(),
                f3(mapped_ms),
            ]);
            sweep_rows.push(format!(
                "    {{\"n\": {n0}, \"resident_pages\": {resident_pages}, \"budget_bytes\": {budget_bytes}, \"snapshot_bytes\": {snapshot_bytes}, \"faults\": {}, \"evictions\": {}, \"paging_energy\": {}, \"paging_messages\": {}, \"mapped_ms\": {mapped_ms:.3}}}",
                paged.faults, paged.evictions, paged.charge.energy, paged.charge.messages
            ));
            if resident_pages == 4 {
                let report = mapped.last_report();
                scenario_rows.extend(session_rows(
                    &mut lab,
                    "ooc_mapped_mixed",
                    family,
                    mapped.n(),
                    report,
                ));
                lab.wall_time(&format!("mapped_ms_2^{log_n}_p4"), mapped_ms);
            }
        }
    }
    table.print();

    // ---- Part two: incremental checkpoint on a dirty-tail workload. ----
    // Weight edits dominate and the few inserts stay far below the
    // rebuild threshold, so only the weight slab's tail extents are
    // dirty — the shape the delta protocol exists for.
    let log_n = 14u32;
    let ckpt_path = dir.join("checkpoint.snapshot");
    let mut live = worked_forest(log_n, &ckpt_path);
    // `snapshot_to` leaves the dirty tracker without a base generation;
    // a full checkpoint gives it one to patch against.
    live.checkpoint_to(&ckpt_path, 2).expect("base checkpoint");
    let full_bytes = std::fs::metadata(&ckpt_path).expect("snapshot len").len();
    let mut wl = StdRng::seed_from_u64(45);
    for _ in 0..400 {
        let v = live.n() - 1 - wl.gen_range(0..live.n() / 16);
        live.set_weight(v, wl.gen_range(1..1000u64));
    }
    let mut b = QueryBatch::new();
    for _ in 0..8 {
        b.insert_leaf_weighted(wl.gen_range(0..live.n()), wl.gen_range(1..100u64));
    }
    live.execute(b.requests(), &mut StdRng::seed_from_u64(46));
    let stats = live
        .checkpoint_to(&ckpt_path, 3)
        .expect("incremental checkpoint");
    let ratio = stats.bytes_written as f64 / full_bytes as f64;
    assert!(
        stats.incremental,
        "dirty-tail workload must take the delta path"
    );
    // The patched file round-trips bit-identically.
    let mut recovered =
        SpatialForest::recover_from(&ckpt_path, &no_journal, ForestOptions::default())
            .expect("post-checkpoint recovery");
    assert_same_forest(&mut recovered, &mut live, 47, "incremental checkpoint");
    println!(
        "  incremental checkpoint: {} of {} bytes ({:.1}% of a full rewrite)\n",
        stats.bytes_written,
        full_bytes,
        ratio * 100.0
    );

    let json = format!(
        "{{\n  \"workload\": \"uniform_random n=2^12 and 2^14 with 64 weighted inserts + settled layout + edited weights, snapshotted then recovered mapped under 4/64/2^14 resident 4-KiB pages; dirty-tail checkpoint = 400 tail weight edits + 8 inserts on n=2^14\",\n  \"metrics\": \"every sweep cell verified bit-identical (answers and non-paging charges) against the live forest that wrote the snapshot before timing; faults/evictions/energy from the paging lifetime; incremental checkpoint bytes vs a full snapshot rewrite of the same forest\",\n  \"page_bytes\": {page_bytes},\n  \"full_snapshot_bytes\": {full_bytes},\n  \"incremental_checkpoint_bytes\": {},\n  \"incremental_ratio\": {ratio:.4},\n  \"sweep\": [\n{}\n  ],\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        stats.bytes_written,
        sweep_rows.join(",\n"),
        scenario_rows.join(",\n")
    );
    lab.config("sweep", "2^12,2^14 x 4/64/2^14 pages");
    lab.config("page_bytes", page_bytes);
    // Lower-is-better and deterministic given seeds, but not a
    // speedup, so the noise gate does not compare it; its bar in
    // `lab::BARS` holds it.
    lab.wall_info("incremental_checkpoint_ratio", ratio);
    write_snapshot(lab, "BENCH_ooc.json", &json);

    std::fs::remove_dir_all(&dir).ok();
}

/// `bench-json-layout` — the unified layout scenario runner plus the
/// machine-readable perf baseline for the layout subsystem. One code
/// path sweeps `LayoutKind × CurveKind × tree family` (grid/BFS
/// adversary, comb, random caterpillar, uniform random, and the
/// heavy-path adversary) through the shared quality metrics; the perf
/// section times the flat-array [`spatial_trees::layout::LayoutEngine`]
/// against the retained seed build on the order-10 grid, and the
/// incremental `DynamicLayout` against the seed rebuild-per-insert
/// baseline. Writes `BENCH_layout.json` next to the workspace root.
fn bench_json_layout() {
    use spatial_trees::layout::reference::{
        build_light_first_spatial_reference, ReferenceDynamicLayout,
    };
    use spatial_trees::layout::{
        edge_distance_stats_with_points_into, DynamicLayout, LayoutEngine,
    };
    println!(
        "\n### bench-json-layout — layout scenario sweep + perf baseline → BENCH_layout.json\n"
    );
    let mut lab = LabRun::new("layout");

    // ---- Scenario sweep: tree family × curve × layout order, all ----
    // ---- through edge_distance_stats_with_points (one code path). ----
    let families = [
        TreeFamily::PerfectBinary,
        TreeFamily::Comb,
        TreeFamily::Caterpillar,
        TreeFamily::UniformRandom,
        TreeFamily::HeavyAdversary,
    ];
    let n_sweep = 1u32 << 14;
    let mut rng = StdRng::seed_from_u64(200);
    let mut sweep_rows = Vec::new();
    let mut table = Table::new([
        "family", "n", "curve", "layout", "mean", "p50", "p95", "p99", "max",
    ]);
    // One counting scratch across the whole sweep — the percentile
    // array is allocated once and reused by every layout × curve cell.
    let mut counts_scratch: Vec<u64> = Vec::new();
    for family in families {
        let t = workload(family, n_sweep, 201);
        for curve in CurveKind::ENERGY_BOUND {
            for kind in LayoutKind::ALL {
                let layout = Layout::of_kind(kind, &t, curve, &mut rng);
                // Coordinates derived once per layout, shared by every
                // metric — the sweep's single code path.
                let points = layout.grid_points();
                let s = edge_distance_stats_with_points_into(&t, &points, &mut counts_scratch);
                table.row([
                    family.name().to_string(),
                    t.n().to_string(),
                    curve.name().to_string(),
                    kind.name().to_string(),
                    f2(s.mean),
                    s.p50.to_string(),
                    s.p95.to_string(),
                    s.p99.to_string(),
                    s.max.to_string(),
                ]);
                sweep_rows.push(format!(
                    "    {{\"family\": \"{}\", \"n\": {}, \"curve\": \"{}\", \"layout\": \"{}\", \"edges\": {}, \"total\": {}, \"mean\": {:.3}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
                    family.name(), t.n(), curve.name(), kind.name(),
                    s.edges, s.total, s.mean, s.p50, s.p95, s.p99, s.max
                ));
            }
        }
    }
    table.print();

    // ---- Perf 1: the §IV on-machine build on the order-10 grid ----
    // ---- (n = 2^20 vertices ⇒ the routing machine is 1024²).   ----
    let n = 1u32 << 20;
    let t = workload(TreeFamily::UniformRandom, n, 7);
    let mut engine = LayoutEngine::new(&t, CurveKind::Hilbert);
    assert_eq!(
        CurveKind::Hilbert.side_for_capacity(n as u64),
        1 << 10,
        "order-10 grid"
    );
    // Correctness + charge cross-check before timing anything; the
    // build's total machine charges feed the shared `scenarios` rows.
    let build_report = {
        let (ref_layout, ref_report) = build_light_first_spatial_reference(
            &t,
            CurveKind::Hilbert,
            &mut StdRng::seed_from_u64(9),
        );
        let report = engine.build_into(&mut StdRng::seed_from_u64(9));
        assert_eq!(engine.order(), ref_layout.order(), "engines disagree");
        assert_eq!(
            report.sizes_phase, ref_report.sizes_phase,
            "charges disagree"
        );
        assert_eq!(
            report.order_phase, ref_report.order_phase,
            "charges disagree"
        );
        assert_eq!(
            report.permute_phase, ref_report.permute_phase,
            "charges disagree"
        );
        report.total()
    };
    let build_ref = best_of(3, SINGLE_SHOT, || {
        let (l, _) = build_light_first_spatial_reference(
            &t,
            CurveKind::Hilbert,
            &mut StdRng::seed_from_u64(9),
        );
        l.order()[0] as u64
    });
    let build_oneshot = best_of(3, SINGLE_SHOT, || {
        let mut e = LayoutEngine::new(&t, CurveKind::Hilbert);
        e.build_into(&mut StdRng::seed_from_u64(9));
        e.order()[0] as u64
    });
    // The reuse path the engine exists for: structure built once, runs
    // pay only the per-build work.
    let build_reuse = best_of(3, SINGLE_SHOT, || {
        engine.build_into(&mut StdRng::seed_from_u64(9));
        engine.order()[0] as u64
    });

    // ---- Perf 2: dynamic layout — a leaf-insertion stream that ----
    // ---- doubles a 2^13 tree (incremental vs seed rebuild-all). ----
    let base = workload(TreeFamily::UniformRandom, 1 << 13, 103);
    let inserts: Vec<u32> = {
        let mut rng = StdRng::seed_from_u64(104);
        (1u32 << 13..1 << 14).map(|m| rng.gen_range(0..m)).collect()
    };
    let dyn_new = best_of(3, SINGLE_SHOT, || {
        let mut dl = DynamicLayout::new(&base, CurveKind::Hilbert, 4.0);
        for &p in &inserts {
            dl.insert_leaf(p);
        }
        dl.current_energy()
    });
    let dyn_ref = best_of(3, SINGLE_SHOT, || {
        let mut dl = ReferenceDynamicLayout::new(&base, CurveKind::Hilbert, 4.0);
        for &p in &inserts {
            dl.insert_leaf(p);
        }
        dl.current_energy()
    });

    let rows = lab.speedup_table(
        "ms",
        2,
        &[
            (
                "layout_build_order10_grid_2^20",
                Speedup::of(build_oneshot, build_ref),
            ),
            (
                "layout_build_order10_grid_2^20_engine_reuse",
                Speedup::of(build_reuse, build_ref),
            ),
            ("dynamic_insert_stream_2^13", Speedup::of(dyn_new, dyn_ref)),
        ],
    );

    lab.config("build_n", "2^20");
    lab.config("dynamic_n", "2^13");
    lab.config("sweep_n", format!("{n_sweep}"));
    let scenario_rows = [lab.scenario_row(
        "layout_build",
        "spatial",
        TreeFamily::UniformRandom.name(),
        n as u64,
        CurveKind::Hilbert.name(),
        build_report,
        None,
    )];
    let json = format!(
        "{{\n  \"grid\": \"order-10 (1024x1024) for the on-machine build\",\n  \"build_workload\": \"uniform_random n=2^20, light-first spatial build\",\n  \"dynamic_workload\": \"uniform_random n=2^13 doubled by random leaf inserts, factor 4\",\n  \"sweep_n\": {n_sweep},\n  \"results\": [\n{}\n  ],\n  \"scenarios\": [\n{}\n  ],\n  \"sweep\": [\n{}\n  ]\n}}\n",
        rows,
        scenario_rows.join(",\n"),
        sweep_rows.join(",\n")
    );
    write_snapshot(lab, "BENCH_layout.json", &json);
}

/// `bench-json-pram` — experiment E8 end to end: every PRAM baseline
/// (random-mate list ranking, Blelloch prefix sums, Euler-tour subtree
/// sums, sparse-table LCA) against its spatial counterpart (the
/// [`spatial_trees::euler::RankingEngine`], the §II-A prefix-sum
/// collective, treefix sums, the [`spatial_trees::lca::LcaEngine`])
/// across sizes × curves × tree families. Both sides compute the same
/// outputs from the same inputs (asserted); the energy columns make
/// the `Θ(n^{3/2})` vs `O(n log n)` crossover visible in the data.
/// Writes `BENCH_pram.json` next to the workspace root.
fn bench_json_pram() {
    use spatial_trees::euler::ranking::END;
    use spatial_trees::euler::RankingEngine;
    use spatial_trees::lca::LcaEngine;
    use spatial_trees::model::collectives;
    use spatial_trees::pram::{pram_list_rank, pram_prefix_sum, PramEngine};

    println!("\n### bench-json-pram — E8 PRAM-vs-spatial energy crossover → BENCH_pram.json\n");
    let mut lab = LabRun::new("pram");
    lab.config("sizes", "2^14..2^18 (lca 2^12..2^16)");
    let curves = [CurveKind::Hilbert, CurveKind::ZOrder];
    let mut rows: Vec<String> = Vec::new();
    // Both sides of one comparison, as `scenarios` rows.
    let mut record = |scenario: &str,
                      family: &str,
                      n: u64,
                      curve: CurveKind,
                      spatial: CostReport,
                      pram: &PramEngine| {
        let (report, steps) = (pram.report(), Some(pram.steps()));
        rows.push(lab.scenario_row(scenario, "spatial", family, n, curve.name(), spatial, None));
        rows.push(lab.scenario_row(scenario, "pram", family, n, curve.name(), report, steps));
    };

    // ---- Subtree sums: PRAM Euler tour + rank + prefix vs spatial ----
    // ---- treefix (O(n log n) energy). The headline crossover.      ----
    println!("subtree sums (same inputs, same outputs):");
    let mut table = Table::new([
        "family",
        "curve",
        "n",
        "spatial_energy",
        "pram_energy",
        "ratio",
        "spatial/(n·log n)",
        "pram/n^1.5",
    ]);
    for family in [
        TreeFamily::RandomBinary,
        TreeFamily::UniformRandom,
        TreeFamily::Comb,
    ] {
        for curve in curves {
            let mut ratios = Vec::new();
            for log_n in [14u32, 16, 18] {
                let n = 1u32 << log_n;
                let t = workload(family, n, 88);
                let values: Vec<u64> = (0..t.n() as u64).collect();
                let layout = Layout::light_first(&t, curve);
                let machine = layout.machine();
                let monoids: Vec<Add> = values.iter().map(|&v| Add(v)).collect();
                let spatial = treefix_bottom_up(
                    &machine,
                    &layout,
                    &t,
                    &monoids,
                    &mut StdRng::seed_from_u64(89),
                );
                let sr = machine.report();

                let mut prng = StdRng::seed_from_u64(90);
                let mut pram = PramEngine::with_curve(curve, 2 * t.n(), 2 * t.n(), &mut prng);
                let sums = pram_subtree_sums(&mut pram, &t, &values, &mut prng);
                let got: Vec<u64> = spatial.values.iter().map(|&Add(v)| v).collect();
                assert_eq!(got, sums, "baselines must agree");
                let pr = pram.report();

                ratios.push(pr.energy as f64 / sr.energy as f64);
                table.row([
                    family.name().to_string(),
                    curve.name().to_string(),
                    format!("2^{log_n}"),
                    sr.energy.to_string(),
                    pr.energy.to_string(),
                    f2(pr.energy as f64 / sr.energy as f64),
                    f3(sr.energy_per_n_log_n(n as u64)),
                    f3(pr.energy_per_n_three_halves(n as u64)),
                ]);
                record("subtree_sums", family.name(), n as u64, curve, sr, &pram);
            }
            // The acceptance bar: Θ(n^{3/2}) must outgrow O(n log n).
            assert!(
                ratios.windows(2).all(|w| w[1] > w[0]),
                "{family}/{curve}: PRAM/spatial energy ratio must grow with n: {ratios:?}"
            );
        }
    }
    table.print();

    // ---- List ranking: PRAM random-mate vs the spatial RankingEngine. ----
    // ---- "in-order": the list laid out along the curve (the layout-   ----
    // ---- aware case — near-linear spatial energy, the crossover).     ----
    // ---- "random-perm": no layout; both sides pay Θ(n^{3/2}) and the  ----
    // ---- gap is the constant-factor cost of hashed shared memory.     ----
    println!("\nlist ranking (spatial engine vs PRAM random-mate):");
    let mut table = Table::new([
        "list",
        "curve",
        "n",
        "spatial_energy",
        "pram_energy",
        "ratio",
    ]);
    for in_order in [true, false] {
        let list_family = if in_order {
            "in-order-list"
        } else {
            "random-perm-list"
        };
        for curve in curves {
            let mut ratios = Vec::new();
            for log_n in [14u32, 16, 18] {
                let n = 1usize << log_n;
                let (next, start) = if in_order {
                    let mut next: Vec<u32> = (1..=n as u32).collect();
                    next[n - 1] = END;
                    (next, 0u32)
                } else {
                    spatial_bench::random_list(n, 10 + log_n as u64)
                };
                let m = Machine::on_curve(curve, n as u32);
                let mut engine = RankingEngine::new(&next, start);
                engine.rank(&m, &mut StdRng::seed_from_u64(11));
                let sr = m.report();

                let mut prng = StdRng::seed_from_u64(12);
                let mut pram = PramEngine::with_curve(curve, n as u32, n as u32, &mut prng);
                let pram_ranks = pram_list_rank(&mut pram, &next, start, &mut prng);
                assert_eq!(engine.ranks(), &pram_ranks[..], "baselines must agree");
                let pr = pram.report();

                ratios.push(pr.energy as f64 / sr.energy as f64);
                table.row([
                    list_family.to_string(),
                    curve.name().to_string(),
                    format!("2^{log_n}"),
                    sr.energy.to_string(),
                    pr.energy.to_string(),
                    f2(pr.energy as f64 / sr.energy as f64),
                ]);
                record("list_ranking", list_family, n as u64, curve, sr, &pram);
            }
            if in_order {
                // The acceptance bar: with a layout to exploit, spatial
                // ranking is near-linear and the PRAM gap widens.
                assert!(
                    ratios.windows(2).all(|w| w[1] > w[0]),
                    "in-order/{curve}: PRAM/spatial ratio must grow with n: {ratios:?}"
                );
            } else {
                // No layout: both are Θ(n^{3/2}); PRAM still pays the
                // hashed-access constant.
                assert!(
                    ratios.iter().all(|&r| r > 1.0),
                    "random-perm/{curve}: PRAM must cost more: {ratios:?}"
                );
            }
        }
    }
    table.print();

    // ---- Prefix sums: PRAM Blelloch vs the §II-A spatial collective ----
    // ---- (O(n) energy on the curve).                                ----
    println!("\nprefix sums (Blelloch vs spatial collective):");
    let mut table = Table::new(["curve", "n", "spatial_energy", "pram_energy", "ratio"]);
    for curve in curves {
        let mut ratios = Vec::new();
        for log_n in [14u32, 16, 18] {
            let n = 1usize << log_n;
            let values: Vec<u64> = {
                let mut rng = StdRng::seed_from_u64(20);
                (0..n).map(|_| rng.gen_range(0..1000)).collect()
            };
            let m = Machine::on_curve(curve, n as u32);
            let spatial = collectives::exclusive_prefix_sum(&m, &values, 0u64, &|a, b| a + b);
            let sr = m.report();

            let mut prng = StdRng::seed_from_u64(21);
            let mut pram = PramEngine::with_curve(curve, n as u32, n as u32, &mut prng);
            let pram_sums = pram_prefix_sum(&mut pram, &values);
            assert_eq!(spatial, pram_sums, "baselines must agree");
            let pr = pram.report();

            ratios.push(pr.energy as f64 / sr.energy as f64);
            table.row([
                curve.name().to_string(),
                format!("2^{log_n}"),
                sr.energy.to_string(),
                pr.energy.to_string(),
                f2(pr.energy as f64 / sr.energy as f64),
            ]);
            record("prefix_sums", "values", n as u64, curve, sr, &pram);
        }
        assert!(
            ratios.windows(2).all(|w| w[1] > w[0]),
            "prefix/{curve}: PRAM/spatial ratio must grow with n: {ratios:?}"
        );
    }
    table.print();

    // ---- Batched LCA: PRAM sparse table vs the spatial LcaEngine ----
    // ---- (O(n log n) energy, n/2 queries).                       ----
    println!("\nbatched LCA (n/2 queries):");
    let mut table = Table::new([
        "family",
        "curve",
        "n",
        "spatial_energy",
        "pram_energy",
        "ratio",
    ]);
    for family in [TreeFamily::UniformRandom, TreeFamily::Comb] {
        for curve in curves {
            let mut ratios = Vec::new();
            for log_n in [12u32, 14, 16] {
                let n = 1u32 << log_n;
                let t = workload(family, n, 90);
                let mut qrng = StdRng::seed_from_u64(91);
                let queries: Vec<(NodeId, NodeId)> = (0..n / 2)
                    .map(|_| (qrng.gen_range(0..t.n()), qrng.gen_range(0..t.n())))
                    .collect();
                let layout = Layout::light_first(&t, curve);
                let machine = layout.machine();
                let mut lca_engine = LcaEngine::new(&layout, &t);
                let res = lca_engine.run(&machine, &queries, &mut StdRng::seed_from_u64(92));
                let sr = machine.report();

                let mut prng = StdRng::seed_from_u64(93);
                let mut pram = PramEngine::with_curve(curve, 2 * t.n(), 2 * t.n(), &mut prng);
                let pram_answers = pram_lca_batch(&mut pram, &t, &queries, &mut prng);
                assert_eq!(res.answers, pram_answers, "baselines must agree");
                let pr = pram.report();

                ratios.push(pr.energy as f64 / sr.energy as f64);
                table.row([
                    family.name().to_string(),
                    curve.name().to_string(),
                    format!("2^{log_n}"),
                    sr.energy.to_string(),
                    pr.energy.to_string(),
                    f2(pr.energy as f64 / sr.energy as f64),
                ]);
                record("batched_lca", family.name(), n as u64, curve, sr, &pram);
            }
            assert!(
                ratios.windows(2).all(|w| w[1] > w[0]),
                "lca {family}/{curve}: PRAM/spatial ratio must grow with n: {ratios:?}"
            );
        }
    }
    table.print();

    let json = format!(
        "{{\n  \"suite\": \"E8 — PRAM-simulation baselines vs spatial counterparts\",\n  \"subtree_sums_workload\": \"treefix bottom-up vs PRAM Euler tour + rank + prefix, 2n-cell shared memory\",\n  \"list_ranking_workload\": \"RankingEngine vs PRAM random-mate; in-order-list = laid out along the curve\",\n  \"prefix_sums_workload\": \"spatial prefix collective vs PRAM Blelloch\",\n  \"lca_workload\": \"LcaEngine vs PRAM sparse-table RMQ, n/2 queries\",\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    write_snapshot(lab, "BENCH_pram.json", &json);
}

/// `bench-json-lca` — the machine-readable perf baseline for the upper
/// pipeline: batched LCA (flat-array engine vs seed reference) on the
/// order-10 grid, spatial list ranking (flat splice-log engine vs seed
/// reference), and the end-to-end 1-respecting min-cut pipeline.
/// Writes `BENCH_lca_mincut.json` next to the workspace root.
fn bench_json_lca() {
    use spatial_trees::euler::ranking::rank_spatial;
    use spatial_trees::euler::reference::rank_spatial_reference;
    use spatial_trees::lca::reference::batched_lca_reference;
    use spatial_trees::mincut::reference::one_respecting_cuts_reference;
    use spatial_trees::mincut::{one_respecting_cuts, SpannedGraph};

    println!(
        "\n### bench-json-lca — LCA + ranking + mincut perf baseline → BENCH_lca_mincut.json\n"
    );
    let mut lab = LabRun::new("lca_mincut");

    // ---- Batched LCA on the order-10 grid (side 1024 ⇒ n = 2^20 ----
    // ---- slots), n/2 random queries — the acceptance workload.    ----
    let log_n = 20u32;
    let n = 1u32 << log_n;
    let t = workload(TreeFamily::UniformRandom, n, 7);
    let layout = Layout::light_first(&t, CurveKind::Hilbert);
    assert_eq!(layout.machine().side(), 1 << 10, "order-10 grid");
    let mut qrng = StdRng::seed_from_u64(8);
    let queries: Vec<(NodeId, NodeId)> = (0..n / 2)
        .map(|_| (qrng.gen_range(0..n), qrng.gen_range(0..n)))
        .collect();
    // The machine charges feed the shared `scenarios` rows.
    let (lca_new, lca_ref, lca_report) = check_then_time(
        "batched LCA",
        || layout.machine(),
        |m| batched_lca(m, &layout, &t, &queries, &mut StdRng::seed_from_u64(9)).answers,
        |m| batched_lca_reference(m, &layout, &t, &queries, &mut StdRng::seed_from_u64(9)).answers,
    );
    // The reuse path the engine exists for: structure built once,
    // timed runs pay only the per-batch work (Las Vegas retries).
    let mut lca_engine = spatial_trees::lca::LcaEngine::new(&layout, &t);
    let lca_reuse = best_of(3, SINGLE_SHOT, || {
        let machine = layout.machine();
        let res = lca_engine.run(&machine, &queries, &mut StdRng::seed_from_u64(9));
        res.answers[0] as u64
    });

    // ---- Spatial list ranking, n = 2^18 elements. ----
    let rn = 1usize << 18;
    let (next, start) = spatial_bench::random_list(rn, 10);
    let (rank_new, rank_ref, rank_report) = check_then_time(
        "list ranking",
        || Machine::on_curve(CurveKind::Hilbert, rn as u32),
        |m| rank_spatial(m, &next, start, &mut StdRng::seed_from_u64(11)).ranks,
        |m| rank_spatial_reference(m, &next, start, &mut StdRng::seed_from_u64(11)).ranks,
    );

    // ---- End-to-end 1-respecting min cut, n = 2^16, n/2 extra edges. ----
    let mn = 1u32 << 16;
    let graph = SpannedGraph::random(mn, mn as usize / 2, 100, &mut StdRng::seed_from_u64(12));
    let mlayout = Layout::light_first(graph.tree(), CurveKind::Hilbert);
    let (cut_new, cut_ref, cut_report) = check_then_time(
        "mincut",
        || mlayout.machine(),
        |m| one_respecting_cuts(m, &mlayout, &graph, &mut StdRng::seed_from_u64(13)).cuts,
        |m| one_respecting_cuts_reference(m, &mlayout, &graph, &mut StdRng::seed_from_u64(13)).cuts,
    );
    let mut pipeline = spatial_trees::mincut::MinCutPipeline::new(&graph, &mlayout);
    let cut_reuse = best_of(3, SINGLE_SHOT, || {
        let machine = mlayout.machine();
        let res = pipeline.run(&machine, &mut StdRng::seed_from_u64(13));
        res.best_weight
    });

    let rows = lab.speedup_table(
        "ms",
        2,
        &[
            (
                "batched_lca_order10_grid_2^20",
                Speedup::of(lca_new, lca_ref),
            ),
            (
                "batched_lca_order10_grid_2^20_engine_reuse",
                Speedup::of(lca_reuse, lca_ref),
            ),
            ("list_ranking_2^18", Speedup::of(rank_new, rank_ref)),
            ("mincut_1respect_2^16", Speedup::of(cut_new, cut_ref)),
            (
                "mincut_1respect_2^16_pipeline_reuse",
                Speedup::of(cut_reuse, cut_ref),
            ),
        ],
    );

    lab.config("lca_n", "2^20");
    lab.config("ranking_n", "2^18");
    lab.config("mincut_n", "2^16");
    let scenario_rows = [
        lab.scenario_row(
            "batched_lca",
            "spatial",
            TreeFamily::UniformRandom.name(),
            n as u64,
            CurveKind::Hilbert.name(),
            lca_report,
            None,
        ),
        lab.scenario_row(
            "list_ranking",
            "spatial",
            "random-perm-list",
            rn as u64,
            CurveKind::Hilbert.name(),
            rank_report,
            None,
        ),
        lab.scenario_row(
            "mincut_1respect",
            "spatial",
            "spanned-graph",
            mn as u64,
            CurveKind::Hilbert.name(),
            cut_report,
            None,
        ),
    ];
    let json = format!(
        "{{\n  \"grid\": \"order-10 (1024x1024) for batched LCA\",\n  \"lca_workload\": \"uniform_random n=2^20, n/2 queries\",\n  \"ranking_workload\": \"random permutation list n=2^18\",\n  \"mincut_workload\": \"random spanned graph n=2^16, n/2 extra edges\",\n  \"results\": [\n{}\n  ],\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        rows,
        scenario_rows.join(",\n")
    );
    write_snapshot(lab, "BENCH_lca_mincut.json", &json);
}

/// `bench-json-sfc` — the machine-readable perf baseline for the two
/// hot paths: curve indexing (scalar reference vs LUT/magic-mask vs
/// batch) and treefix contraction (seed engine vs allocation-free CSR
/// engine). Writes `BENCH_sfc_treefix.json` next to the workspace root.
fn bench_json_sfc() {
    use spatial_trees::sfc::reference as scalar_ref;
    use spatial_trees::sfc::GridPoint;
    use spatial_trees::treefix::contraction::ContractionEngine;
    use spatial_trees::treefix::reference::ReferenceEngine;

    // Each call consumes its input once; reps fill ~60 ms per pass.
    const PASS: Duration = Duration::from_millis(60);

    println!("\n### bench-json-sfc — SFC + treefix perf baseline → BENCH_sfc_treefix.json\n");
    let mut lab = LabRun::new("sfc_treefix");
    // The acceptance-criterion order-10 grid, as concrete curve types:
    // the reference paths are direct function calls, so the optimized
    // paths must not pay enum dispatch either.
    let side = 1u32 << 10;
    let hilbert = spatial_trees::sfc::HilbertCurve::new(side);
    let zorder = spatial_trees::sfc::zorder::ZOrderCurve::new(side);
    let n = hilbert.len();
    let points: Vec<GridPoint> = hilbert.all_points();
    let zpoints: Vec<GridPoint> = zorder.all_points();

    // Every row is the median of PAIRS interleaved optimized/reference
    // pass pairs (`interleaved_speedup`): the ≥ 1.5× bars on the batch
    // kernels read the median ratio, so one noisy pass on a shared host
    // cannot break them.
    const PAIRS: u32 = 7;
    // ns per op = ms per full sweep · 10⁶ / n.
    let per_op = 1e6 / n as f64;

    let h_point = interleaved_speedup(
        PAIRS,
        PASS,
        || (0..n).map(|i| hilbert.point(i).x as u64).sum(),
        || {
            (0..n)
                .map(|i| scalar_ref::hilbert_point_scalar(side, i).x as u64)
                .sum()
        },
    )
    .scaled(per_op);
    let h_index = interleaved_speedup(
        PAIRS,
        PASS,
        || points.iter().map(|&p| hilbert.index(p)).sum(),
        || {
            points
                .iter()
                .map(|&p| scalar_ref::hilbert_index_scalar(side, p))
                .sum()
        },
    )
    .scaled(per_op);
    // Batch rows: the SWAR lane kernels behind the public batch API
    // against the pre-PR scalar batch loops (retained verbatim in
    // `sfc::swar::*_chunk_scalar`), with release-only bars in
    // `lab::BARS`. Each side writes its own output buffer.
    use spatial_trees::sfc::swar;
    let indices: Vec<u64> = (0..n).collect();
    let (mut points_opt, mut points_ref) = (
        vec![GridPoint::default(); n as usize],
        vec![GridPoint::default(); n as usize],
    );
    let (mut idx_opt, mut idx_ref) = (vec![0u64; n as usize], vec![0u64; n as usize]);
    let h_point_batch = interleaved_speedup(
        PAIRS,
        PASS,
        || {
            hilbert.point_range_batch(0, &mut points_opt);
            points_opt[0].x as u64
        },
        || {
            swar::hilbert_point_chunk_scalar(&hilbert, &indices, &mut points_ref);
            points_ref[0].x as u64
        },
    )
    .scaled(per_op);
    let h_index_batch = interleaved_speedup(
        PAIRS,
        PASS,
        || {
            hilbert.index_batch(&points, &mut idx_opt);
            idx_opt[0]
        },
        || {
            swar::hilbert_index_chunk_scalar(&hilbert, &points, &mut idx_ref);
            idx_ref[0]
        },
    )
    .scaled(per_op);
    let z_index = interleaved_speedup(
        PAIRS,
        PASS,
        || zpoints.iter().map(|&p| zorder.index(p)).sum(),
        || {
            zpoints
                .iter()
                .map(|&p| scalar_ref::zorder_index_scalar(side, p))
                .sum()
        },
    )
    .scaled(per_op);
    let z_index_batch = interleaved_speedup(
        PAIRS,
        PASS,
        || {
            zorder.index_batch(&zpoints, &mut idx_opt);
            idx_opt[0]
        },
        || {
            swar::zorder_index_chunk_scalar(side, &zpoints, &mut idx_ref);
            idx_ref[0]
        },
    )
    .scaled(per_op);
    let z_point_batch = interleaved_speedup(
        PAIRS,
        PASS,
        || {
            zorder.point_batch(&indices, &mut points_opt);
            points_opt[0].x as u64
        },
        || {
            swar::zorder_point_chunk_scalar(side, &indices, &mut points_ref);
            points_ref[0].x as u64
        },
    )
    .scaled(per_op);

    // Bitonic sort: the branchless compare-exchange network vs the
    // retained branchy reference, both over the same shuffled packed
    // records on a 2^16-slot curve machine (identical charge rows).
    let bitonic = {
        use rand::seq::SliceRandom;
        use spatial_trees::layout::engine::{bitonic_levels, run_bitonic, run_bitonic_reference};
        use spatial_trees::model::Machine;
        let sort_n = 1usize << 16;
        let m = Machine::on_curve(CurveKind::Hilbert, sort_n as u32);
        let levels = bitonic_levels(&m, sort_n);
        let mut keys: Vec<u64> = (0..sort_n as u64).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(77));
        let (mut buf_opt, mut buf_ref) = (vec![0u64; sort_n], vec![0u64; sort_n]);
        interleaved_speedup(
            PAIRS,
            PASS,
            || {
                buf_opt.copy_from_slice(&keys);
                run_bitonic(&m, &mut buf_opt, &levels);
                buf_opt[0]
            },
            || {
                buf_ref.copy_from_slice(&keys);
                run_bitonic_reference(&m, &mut buf_ref, &levels);
                buf_ref[0]
            },
        )
        .scaled(1e6 / sort_n as f64)
    };

    // Treefix contraction: whole bottom-up runs on a 2^13 random binary
    // tree, old engine vs new.
    let t = workload(TreeFamily::RandomBinary, 1 << 13, 5);
    let layout = Layout::light_first(&t, CurveKind::Hilbert);
    let values = vec![Add(1); t.n() as usize];
    let treefix = interleaved_speedup(
        PAIRS,
        PASS,
        || {
            let machine = layout.machine();
            let mut rng = StdRng::seed_from_u64(6);
            let mut eng = ContractionEngine::new(&t, &layout, &values, true);
            eng.contract(&machine, &mut rng);
            eng.uncontract_bottom_up(&machine)[0].0
        },
        || {
            let machine = layout.machine();
            let mut rng = StdRng::seed_from_u64(6);
            let mut eng = ReferenceEngine::new(&t, &layout, &machine, &values, true);
            eng.contract(&mut rng);
            eng.uncontract_bottom_up()[0].0
        },
    )
    .scaled(1e6);
    // One charged run for the shared `scenarios` rows.
    let tf_report = {
        let machine = layout.machine();
        treefix_bottom_up(
            &machine,
            &layout,
            &t,
            &values,
            &mut StdRng::seed_from_u64(6),
        );
        machine.report()
    };

    let rows = lab.speedup_table(
        "ns_per_op",
        2,
        &[
            ("hilbert_point_order10", h_point),
            ("hilbert_index_order10", h_index),
            ("hilbert_point_batch_order10", h_point_batch),
            ("hilbert_index_batch_order10", h_index_batch),
            ("zorder_index_order10", z_index),
            ("zorder_index_batch_order10", z_index_batch),
            ("zorder_point_batch_order10", z_point_batch),
            ("bitonic_sort_2^16", bitonic),
            ("treefix_bottom_up_2^13", treefix),
        ],
    );

    lab.config("grid", "order-10");
    lab.config("treefix_n", "2^13");
    let scenario_rows = [lab.scenario_row(
        "treefix_bottom_up",
        "spatial",
        TreeFamily::RandomBinary.name(),
        t.n() as u64,
        CurveKind::Hilbert.name(),
        tf_report,
        None,
    )];
    let json = format!(
        "{{\n  \"grid\": \"order-10 (1024x1024)\",\n  \"treefix_tree\": \"random_binary n=2^13\",\n  \"batch_baseline\": \"*_batch rows compare the SWAR lane kernels against the pre-PR scalar batch loops (retained in sfc::swar::*_chunk_scalar); bitonic compares the branchless network against the retained branchy reference, both charged identically\",\n  \"results\": [\n{}\n  ],\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        rows,
        scenario_rows.join(",\n")
    );
    write_snapshot(lab, "BENCH_sfc_treefix.json", &json);
}

/// E11 — the cited application: 1-respecting minimum cuts (Karger)
/// from batched LCA + one fused treefix, near-linear energy end-to-end.
fn e11_mincut() {
    println!("\n### E11 — 1-respecting minimum cuts (the §I-C application)\n");
    let mut table = Table::new([
        "n",
        "extra_edges",
        "energy/(n·log n)",
        "depth/log² n",
        "best_cut",
    ]);
    for log_n in [10u32, 12, 14] {
        let n = 1u32 << log_n;
        let mut rng = StdRng::seed_from_u64(111);
        let graph = spatial_trees::mincut::SpannedGraph::random(n, n as usize / 2, 100, &mut rng);
        let layout = Layout::light_first(graph.tree(), CurveKind::Hilbert);
        let machine = layout.machine();
        let res = spatial_trees::mincut::one_respecting_cuts(&machine, &layout, &graph, &mut rng);
        let r = machine.report();
        table.row([
            format!("2^{log_n}"),
            (n / 2).to_string(),
            f3(r.energy_per_n_log_n(n as u64)),
            f2(r.depth_per_log2_n(n as u64)),
            res.best_weight.to_string(),
        ]);
    }
    table.print();
    println!("  (cut values verified against brute force in the test suite)\n");
}

/// A1 — ablation: which ingredient of the layout matters? Sweeps the
/// child order (light-first vs heavy-first vs natural DFS) and the
/// curve (distance-bound vs not) independently for the treefix workload.
fn a1_order_and_curve_ablation() {
    println!("\n### A1 — ablation: child order × curve (treefix energy/(n·log n))\n");
    let n = 1u32 << 14;
    let t = workload(TreeFamily::UniformRandom, n, 101);
    let orders: [(&str, Vec<NodeId>); 3] = [
        (
            "light-first",
            spatial_trees::tree::traversal::light_first_order(&t),
        ),
        (
            "heavy-first",
            spatial_trees::tree::traversal::heavy_first_order(&t),
        ),
        (
            "natural-dfs",
            spatial_trees::tree::traversal::dfs_preorder(&t),
        ),
    ];
    let mut table = Table::new(["order", "hilbert", "moore", "zorder", "serpentine"]);
    for (name, order) in &orders {
        let mut cells = vec![name.to_string()];
        for curve in [
            CurveKind::Hilbert,
            CurveKind::Moore,
            CurveKind::ZOrder,
            CurveKind::Serpentine,
        ] {
            let layout = Layout::from_order(curve, order.clone());
            let machine = layout.machine();
            let mut rng = StdRng::seed_from_u64(102);
            treefix_bottom_up(
                &machine,
                &layout,
                &t,
                &vec![Add(1); t.n() as usize],
                &mut rng,
            );
            cells.push(f3(machine.report().energy_per_n_log_n(t.n() as u64)));
        }
        table.row(cells);
    }
    table.print();
    println!("  (n = 2^14, uniform random tree; lower is better)\n");
}

/// A2 — dynamic layouts (§VII future work): a leaf-insertion stream
/// with amortized rebuilds at different quality tolerances.
fn a2_dynamic_layout() {
    println!("\n### A2 — dynamic layout maintenance (§VII future work)\n");
    let base = workload(TreeFamily::UniformRandom, 1 << 12, 103);
    let inserts = 1u32 << 12; // double the tree
    let mut table = Table::new([
        "rebuild_factor",
        "rebuilds",
        "final_energy/n",
        "fresh_energy/n",
        "overhead",
    ]);
    for factor in [f64::INFINITY, 8.0, 2.0] {
        let mut dl = spatial_trees::layout::DynamicLayout::new(&base, CurveKind::Hilbert, factor);
        let mut rng = StdRng::seed_from_u64(104);
        for _ in 0..inserts {
            let p = rng.gen_range(0..dl.n());
            dl.insert_leaf(p);
        }
        let tree = dl.tree();
        let n = tree.n() as f64;
        let current = dl.current_energy() as f64 / n;
        let fresh =
            local_kernel_energy(&tree, &Layout::light_first(&tree, CurveKind::Hilbert)) as f64 / n;
        table.row([
            if factor.is_infinite() {
                "never".to_string()
            } else {
                format!("{factor}")
            },
            dl.stats().rebuilds.to_string(),
            f2(current),
            f2(fresh),
            f2(current / fresh),
        ]);
    }
    table.print();
    println!("  (2^12-vertex tree doubled by random leaf insertions)\n");
}

/// A3 — expression tree evaluation (Miller–Reif, the §V reference):
/// all subexpressions of random +/× trees, bounded-degree treefix costs.
fn a3_expression_evaluation() {
    println!("\n### A3 — expression tree evaluation (Miller–Reif via rake/compress)\n");
    let mut table = Table::new(["leaves", "n", "energy/(n·log n)", "depth/log n", "rounds"]);
    for log_leaves in [10u32, 12, 14] {
        let expr = spatial_trees::treefix::ExprTree::random(
            1 << log_leaves,
            &mut StdRng::seed_from_u64(105),
        );
        let layout = Layout::light_first(expr.tree(), CurveKind::Hilbert);
        let machine = layout.machine();
        let res = spatial_trees::treefix::evaluate_expression(
            &machine,
            &layout,
            &expr,
            &mut StdRng::seed_from_u64(106),
        );
        // Verified against the host evaluator before reporting.
        assert_eq!(
            res.values,
            spatial_trees::treefix::evaluate_expression_host(&expr)
        );
        let r = machine.report();
        let n = expr.n() as u64;
        table.row([
            format!("2^{log_leaves}"),
            n.to_string(),
            f3(r.energy_per_n_log_n(n)),
            f2(r.depth_per_log_n(n)),
            res.stats.compact_rounds.to_string(),
        ]);
    }
    table.print();
    println!("  (all subexpression values verified against the host evaluator)\n");
}

/// E1 (Theorems 1–2, Fig. 1): mean parent→child grid distance per
/// layout, on every energy-bound curve (Hilbert, Moore, Z-order,
/// Peano). Light-first stays O(1); BFS on perfect binary trees and
/// random layouts grow like √n; DFS degrades on the comb.
fn e1_layout_energy() {
    println!("\n### E1 — messaging-kernel energy by layout (Theorems 1–2, all four curves)\n");
    let mut rng = StdRng::seed_from_u64(1);
    for family in [
        TreeFamily::PerfectBinary,
        TreeFamily::Comb,
        TreeFamily::UniformRandom,
        TreeFamily::PreferentialAttachment,
    ] {
        println!("family = {family} (mean edge distance)");
        let mut table = Table::new(["n", "curve", "light-first", "bfs", "dfs", "random"]);
        for log_n in [12u32, 14, 16] {
            let t = workload(family, 1 << log_n, 11);
            for curve in CurveKind::ENERGY_BOUND {
                let mut cells = vec![format!("2^{log_n}"), curve.name().to_string()];
                for kind in LayoutKind::ALL {
                    let layout = Layout::of_kind(kind, &t, curve, &mut rng);
                    cells.push(f2(edge_distance_stats(&t, &layout).mean));
                }
                table.row(cells);
            }
        }
        table.print();
        println!();
    }
}

/// E2 (Theorem 2, Fig. 2): Z-order light-first is energy-bound; the
/// diagonal term Ed stays linear.
fn e2_zorder() {
    println!("\n### E2 — Z-order light-first and the diagonal term (Theorem 2)\n");
    println!("kernel energy per vertex, light-first order, by curve:");
    let mut table = Table::new([
        "n",
        "hilbert",
        "moore",
        "zorder",
        "peano",
        "serpentine",
        "rowmajor",
    ]);
    for log_n in [12u32, 14, 16] {
        let t = workload(TreeFamily::UniformRandom, 1 << log_n, 22);
        let mut cells = vec![format!("2^{log_n}")];
        for curve in [
            CurveKind::Hilbert,
            CurveKind::Moore,
            CurveKind::ZOrder,
            CurveKind::Peano,
            CurveKind::Serpentine,
            CurveKind::RowMajor,
        ] {
            let layout = Layout::light_first(&t, curve);
            cells.push(f2(local_kernel_energy(&t, &layout) as f64 / t.n() as f64));
        }
        table.row(cells);
    }
    table.print();

    println!("\nLemma 3 split on tree edges (Z-light-first): Ed total / n:");
    let mut table = Table::new(["n", "Ed_total/n", "max_diagonal", "edges_using_diagonals_%"]);
    for log_n in [12u32, 14, 16] {
        let t = workload(TreeFamily::UniformRandom, 1 << log_n, 22);
        let layout = Layout::light_first(&t, CurveKind::ZOrder);
        let curve = ZOrderCurve::new(layout.machine().side());
        let mut ed_total = 0u64;
        let mut ed_max = 0u64;
        let mut using = 0u64;
        for (p, c) in t.edges() {
            let (i, j) = (layout.slot(p) as u64, layout.slot(c) as u64);
            let ed = longest_diagonal(&curve, i, j);
            ed_total += ed;
            ed_max = ed_max.max(ed);
            if ed > 1 {
                using += 1;
            }
        }
        table.row([
            format!("2^{log_n}"),
            f2(ed_total as f64 / t.n() as f64),
            ed_max.to_string(),
            f2(100.0 * using as f64 / (t.n() - 1) as f64),
        ]);
    }
    table.print();
    println!();
}

/// E3 (§III-B): measured distance-bound constants α per curve, against
/// the proven values (Hilbert 3, Peano √(10⅔); Z-order/row-major are
/// unbounded and must grow with the grid side).
fn e3_curve_locality() {
    println!("\n### E3 — distance-bound constants (§III-B)\n");
    let mut table = Table::new(["curve", "side", "measured α", "proven α", "mean step"]);
    for kind in CurveKind::ALL {
        for side_hint in [64u64 * 64, 256 * 256] {
            let curve = kind.for_capacity(side_hint);
            let stride = if curve.len() > 1 << 14 { 13 } else { 1 };
            let alpha = alpha_estimate(&curve, stride);
            table.row([
                kind.name().to_string(),
                curve.side().to_string(),
                f3(alpha),
                kind.alpha().map(f3).unwrap_or_else(|| "unbounded".into()),
                f3(mean_step_distance(&curve)),
            ]);
        }
    }
    table.print();
    println!();
}

/// E4 (Theorem 3, Figs. 3–4): unbounded-degree local broadcast through
/// the virtual tree: O(n) energy and O(log n) depth, vs the naive
/// direct kernel that pays Θ(n^{3/2}) on stars.
fn e4_unbounded_degree() {
    println!("\n### E4 — unbounded degree via virtual trees (Theorem 3)\n");
    for family in [
        TreeFamily::Star,
        TreeFamily::Broom,
        TreeFamily::PreferentialAttachment,
    ] {
        println!("family = {family}");
        let mut table = Table::new([
            "n",
            "direct_energy/n",
            "virtual_energy/n",
            "virtual_depth",
            "2·log2(n)",
        ]);
        for log_n in [12u32, 14, 16] {
            let n = 1u32 << log_n;
            let t = workload(family, n, 44);
            let layout = Layout::light_first(&t, CurveKind::Hilbert);
            let direct = local_kernel_energy(&t, &layout);
            let machine = layout.machine();
            let vt = VirtualTree::new(&t);
            vt.charge_construction(&machine, &layout);
            let values = vec![1u64; t.n() as usize];
            local_broadcast(&machine, &layout, &vt, &t, &values);
            let r = machine.report();
            table.row([
                format!("2^{log_n}"),
                f2(direct as f64 / t.n() as f64),
                f2(r.energy as f64 / t.n() as f64),
                r.depth.to_string(),
                (2 * log_n).to_string(),
            ]);
        }
        table.print();
        println!();
    }
}

/// E5 (Theorems 4–5): spatial layout creation: O(n^{3/2}) energy and
/// O(log n) depth w.h.p.; random-mate rounds concentrate.
fn e5_layout_creation() {
    println!("\n### E5 — layout creation on the machine (Theorems 4–5)\n");
    let mut table = Table::new([
        "n",
        "energy/n^1.5",
        "depth",
        "depth/log2(n)",
        "rank_rounds",
        "sort_share_%",
    ]);
    for log_n in [10u32, 12, 14] {
        let n = 1u32 << log_n;
        let t = workload(TreeFamily::UniformRandom, n, 55);
        let mut rng = StdRng::seed_from_u64(56);
        let (_, report) = build_light_first_spatial(&t, CurveKind::Hilbert, &mut rng);
        let total = report.total();
        table.row([
            format!("2^{log_n}"),
            f3(total.energy_per_n_three_halves(t.n() as u64)),
            total.depth.to_string(),
            f2(total.depth as f64 / log_n as f64),
            format!("{}+{}", report.ranking_rounds.0, report.ranking_rounds.1),
            f2(100.0 * report.permute_phase.energy as f64 / total.energy as f64),
        ]);
    }
    table.print();

    println!("\nLas Vegas concentration: ranking rounds over 10 seeds (n = 2^12):");
    let t = workload(TreeFamily::UniformRandom, 1 << 12, 55);
    let mut rounds: Vec<u32> = (0..10)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, report) = build_light_first_spatial(&t, CurveKind::Hilbert, &mut rng);
            report.ranking_rounds.0
        })
        .collect();
    rounds.sort_unstable();
    println!(
        "  min={} median={} max={} (log2 n = 12)\n",
        rounds[0], rounds[5], rounds[9]
    );
}

/// E6 (Lemmas 10–12): treefix sums: O(n log n) energy; O(log n) depth
/// for bounded degree, O(log² n) otherwise; O(log n) COMPACT rounds.
fn e6_treefix() {
    println!("\n### E6 — treefix sums (Lemmas 10–12)\n");
    for family in [
        TreeFamily::RandomBinary,
        TreeFamily::Comb,
        TreeFamily::UniformRandom,
        TreeFamily::PreferentialAttachment,
        TreeFamily::Yule,
    ] {
        let bounded = TreeFamily::BOUNDED_DEGREE.contains(&family);
        println!(
            "family = {family} ({} degree)",
            if bounded { "bounded" } else { "unbounded" }
        );
        let mut table = Table::new([
            "n",
            "dir",
            "energy/(n·log n)",
            "depth",
            "depth/log n",
            "depth/log² n",
            "rounds",
        ]);
        for log_n in [12u32, 14, 16] {
            let n = 1u32 << log_n;
            let t = workload(family, n, 66);
            let layout = Layout::light_first(&t, CurveKind::Hilbert);
            let values = vec![Add(1); t.n() as usize];
            for dir in ["up", "down"] {
                let machine = layout.machine();
                let mut rng = StdRng::seed_from_u64(67);
                let stats = if dir == "up" {
                    treefix_bottom_up(&machine, &layout, &t, &values, &mut rng).stats
                } else {
                    treefix_top_down(&machine, &layout, &t, &values, &mut rng).stats
                };
                let r = machine.report();
                table.row([
                    format!("2^{log_n}"),
                    dir.to_string(),
                    f3(r.energy_per_n_log_n(t.n() as u64)),
                    r.depth.to_string(),
                    f2(r.depth_per_log_n(t.n() as u64)),
                    f2(r.depth_per_log2_n(t.n() as u64)),
                    stats.compact_rounds.to_string(),
                ]);
            }
        }
        table.print();
        println!();
    }
}

/// E7 (Theorem 6, Fig. 8): batched LCA: O(n log n) energy, O(log² n)
/// depth; every answer verified against the host oracle.
fn e7_lca() {
    println!("\n### E7 — batched LCA (Theorem 6)\n");
    let mut table = Table::new([
        "n",
        "queries",
        "energy/(n·log n)",
        "energy/n^1.5",
        "depth/log² n",
        "layers",
        "step1_%",
    ]);
    for log_n in [12u32, 14, 16] {
        let n = 1u32 << log_n;
        let t = workload(TreeFamily::UniformRandom, n, 77);
        let layout = Layout::light_first(&t, CurveKind::Hilbert);
        let machine = layout.machine();
        let mut rng = StdRng::seed_from_u64(78);
        let queries: Vec<(NodeId, NodeId)> = (0..n / 2)
            .map(|_| (rng.gen_range(0..t.n()), rng.gen_range(0..t.n())))
            .collect();
        let res = batched_lca(&machine, &layout, &t, &queries, &mut rng);
        let r = machine.report();
        // Verify against the oracle before reporting.
        let oracle = spatial_trees::lca::HostLca::new(&t);
        for (qi, &(a, b)) in queries.iter().enumerate() {
            assert_eq!(res.answers[qi], oracle.query(a, b));
        }
        table.row([
            format!("2^{log_n}"),
            queries.len().to_string(),
            f3(r.energy_per_n_log_n(t.n() as u64)),
            f3(r.energy_per_n_three_halves(t.n() as u64)),
            f2(r.depth_per_log2_n(t.n() as u64)),
            res.stats.layers.to_string(),
            f2(100.0 * res.stats.answered_step1 as f64 / queries.len() as f64),
        ]);
    }
    table.print();
    println!("  (all answers verified against the binary-lifting oracle)\n");
}

/// E8 (§I-C): spatial vs PRAM-simulation energy for the same treefix
/// and LCA computations; the gap grows like √n / log n.
fn e8_pram_baseline() {
    println!("\n### E8 — PRAM simulation baseline (§I-C)\n");
    println!("subtree sums (same inputs, same outputs):");
    let mut table = Table::new([
        "n",
        "spatial_energy",
        "pram_energy",
        "ratio",
        "spatial/(n·log n)",
        "pram/n^1.5",
    ]);
    for log_n in [10u32, 12, 14] {
        let n = 1u32 << log_n;
        let t = workload(TreeFamily::RandomBinary, n, 88);
        let values: Vec<u64> = (0..t.n() as u64).collect();
        let mut rng = StdRng::seed_from_u64(89);

        let layout = Layout::light_first(&t, CurveKind::Hilbert);
        let machine = layout.machine();
        let monoids: Vec<Add> = values.iter().map(|&v| Add(v)).collect();
        let spatial = treefix_bottom_up(&machine, &layout, &t, &monoids, &mut rng);
        let se = machine.report().energy;

        let mut pram = PramEngine::new(2 * t.n(), 2 * t.n(), &mut rng);
        let pram_res = pram_subtree_sums(&mut pram, &t, &values, &mut rng);
        let pe = pram.report().energy;
        let got: Vec<u64> = spatial.values.iter().map(|&Add(v)| v).collect();
        assert_eq!(got, pram_res, "baselines must agree");

        table.row([
            format!("2^{log_n}"),
            se.to_string(),
            pe.to_string(),
            f2(pe as f64 / se as f64),
            f3(machine.report().energy_per_n_log_n(t.n() as u64)),
            f3(pram.report().energy_per_n_three_halves(t.n() as u64)),
        ]);
    }
    table.print();

    println!("\nbatched LCA (n/2 queries):");
    let mut table = Table::new(["n", "spatial_energy", "pram_energy", "ratio"]);
    for log_n in [10u32, 12] {
        let n = 1u32 << log_n;
        let t = workload(TreeFamily::UniformRandom, n, 90);
        let mut rng = StdRng::seed_from_u64(91);
        let queries: Vec<(NodeId, NodeId)> = (0..n / 2)
            .map(|_| (rng.gen_range(0..t.n()), rng.gen_range(0..t.n())))
            .collect();

        let layout = Layout::light_first(&t, CurveKind::Hilbert);
        let machine = layout.machine();
        let res = batched_lca(&machine, &layout, &t, &queries, &mut rng);
        let se = machine.report().energy;

        let mut pram = PramEngine::new(t.n(), 2 * t.n(), &mut rng);
        let pram_answers = pram_lca_batch(&mut pram, &t, &queries, &mut rng);
        assert_eq!(res.answers, pram_answers, "baselines must agree");
        let pe = pram.report().energy;

        table.row([
            format!("2^{log_n}"),
            se.to_string(),
            pe.to_string(),
            f2(pe as f64 / se as f64),
        ]);
    }
    table.print();
    println!();
}

/// E9 (§VI-A, Fig. 8): path decompositions have O(log n) layers and
/// cover membership stays O(log n).
fn e9_path_decomposition() {
    println!("\n### E9 — path decomposition layers (§VI-A)\n");
    let mut table = Table::new(["family", "n", "layers", "log2(n)", "max_cover_membership"]);
    for family in [
        TreeFamily::Path,
        TreeFamily::Star,
        TreeFamily::Comb,
        TreeFamily::PerfectBinary,
        TreeFamily::UniformRandom,
        TreeFamily::PreferentialAttachment,
        TreeFamily::Yule,
    ] {
        let n = 1u32 << 16;
        let t = workload(family, n, 99);
        let sizes = t.subtree_sizes();
        let d = HeavyPathDecomposition::with_sizes(&t, &sizes);
        let layout = Layout::light_first(&t, CurveKind::Hilbert);
        let cover = spatial_trees::lca::SubtreeCover::new(t.parents(), &layout, &d, &sizes);
        let max_membership = cover
            .membership_counts(&layout)
            .into_iter()
            .max()
            .unwrap_or(0);
        table.row([
            family.name().to_string(),
            t.n().to_string(),
            d.num_layers().to_string(),
            f2((t.n() as f64).log2()),
            max_membership.to_string(),
        ]);
    }
    table.print();
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every id the command line accepts, in the order errors list them.
    const CLI_IDS: &str = "e1 e2 e3 e4 e5 e6 e7 e8 e9 e11 a1 a2 a3 \
        bench-json bench-json-sfc bench-json-lca bench-json-layout bench-json-pram \
        bench-json-service bench-json-throughput bench-json-durability bench-json-ooc \
        lab-regress lab-sweep lab-ab lab-gate";
    const TABLES: &str = "e1 e2 e3 e4 e5 e6 e7 e8 e9 e11 a1 a2 a3";
    const WRITERS: &str = "bench-json-sfc bench-json-lca bench-json-layout bench-json-pram \
        bench-json-service bench-json-throughput bench-json-durability bench-json-ooc";

    fn ids(list: &str) -> Vec<&str> {
        list.split_whitespace().collect()
    }

    fn selected(list: &str) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = list.split_whitespace().map(str::to_string).collect();
        Ok(select(&args)?.into_iter().map(|&(id, _, _)| id).collect())
    }

    #[test]
    fn registry_keeps_the_cli_ids() {
        let valid = valid_ids();
        assert_eq!(valid, ids(CLI_IDS));
        assert!(valid
            .iter()
            .enumerate()
            .all(|(i, id)| !valid[..i].contains(id)));
    }

    #[test]
    fn no_argument_run_is_the_tables_then_the_writers() {
        assert_eq!(selected(""), Ok([ids(TABLES), ids(WRITERS)].concat()));
    }

    #[test]
    fn bench_json_selects_exactly_the_writers_once() {
        assert_eq!(selected("bench-json"), Ok(ids(WRITERS)));
        assert_eq!(selected("BENCH-JSON bench-json-ooc"), Ok(ids(WRITERS)));
        assert_eq!(selected("bench-json-ooc e3"), Ok(ids("e3 bench-json-ooc")));
    }

    #[test]
    fn explicit_ids_run_only_when_named() {
        let default_run = selected("").expect("valid");
        for id in ids("lab-regress lab-sweep lab-ab lab-gate") {
            assert!(!default_run.contains(&id), "{id} ran by default");
            assert_eq!(selected(id), Ok(vec![id]));
        }
        // Filters pass through and select nothing on their own.
        assert_eq!(selected("lab-gate bench=ooc"), Ok(vec!["lab-gate"]));
        assert_eq!(selected("bench=ooc"), Ok(vec![]));
    }

    #[test]
    fn select_rejects_typos_and_accepts_filters() {
        assert!(selected("e1 bench-json-throughput lab-regress").is_ok());
        assert!(selected("lab-sweep scenario=subtree_sums norm=nlogn").is_ok());
        // The CI-silent-skip typo: a hard error naming the valid ids.
        let err = selected("bench-jsonthroughput").unwrap_err();
        assert!(err.contains("unknown experiment id 'bench-jsonthroughput'"));
        assert!(err.contains("bench-json-throughput"));
    }
}
