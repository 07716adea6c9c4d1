//! The benchmark's own checks: reproducible inputs and charges, the
//! answer oracle and the traced mirror against the forest, metric names
//! against `BENCHMARK.json`, and the percentile rules. Heavy: run with
//! `cargo test --release`.

use perfbench::gauge::{Gauge, GAUGE_REF_S};
use perfbench::gen::{self, JobGen};
use perfbench::mirror::Trace;
use perfbench::oracle::Oracle;
use perfbench::replay::Replayer;
use perfbench::workloads;
use perfbench::{mean, p99, percentile, slowdown, Window, P99_MIN_SAMPLES};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spatial_session::SpatialForest;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Whether `name` matches `[A-Za-z0-9_.-]+`.
fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn value(outcome: &perfbench::Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

/// Metric names of one section of `BENCHMARK.json`, read with a plain
/// scan (the file is flat enough to need no JSON parser).
fn benchmark_names(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn same_seed_same_inputs() {
    let a = gen::trees(3, 500, 9);
    let b = gen::trees(3, 500, 9);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.parents(), y.parents());
    }
    assert_ne!(a[0].parents(), gen::trees(3, 500, 10)[0].parents());

    let mut g1 = JobGen::new(9, 4, 500, 32, 2);
    let mut g2 = JobGen::new(9, 4, 500, 32, 2);
    for _ in 0..50 {
        assert_eq!(g1.next_job(), g2.next_job());
    }
    let (_, job) = JobGen::new(9, 4, 500, 32, 2).next_job();
    let inserts = job
        .iter()
        .filter(|r| matches!(r, spatial_session::Request::InsertLeaf { .. }))
        .count();
    assert_eq!((job.len(), inserts), (32, 2));
}

#[test]
fn read_mix_charges_repeat_exactly() {
    let dir = scratch("repeat");
    let a = workloads::run("read_mix", 5, 0.001, &dir, false).expect("known workload");
    let b = workloads::run("read_mix", 5, 0.001, &dir, false).expect("known workload");
    assert_eq!(a.failed, 0);
    for name in ["energy_per_req", "depth_per_session"] {
        assert_eq!(
            value(&a, name).to_bits(),
            value(&b, name).to_bits(),
            "{name}"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn oracle_and_mirror_agree_with_the_forest_across_inserts() {
    let tree = gen::trees(1, 300, 4).remove(0);
    let mut jobs = JobGen::new(4, 1, 300, 24, 3);
    let mut oracle = Oracle::new(&tree);
    let mut forest = SpatialForest::new(&tree);
    let mut rng = StdRng::seed_from_u64(1);
    let dir = scratch("oracle");
    let mut trace = Trace::default();
    let mut replayer = Replayer::new(0, &tree, StdRng::seed_from_u64(1), &dir, &mut trace);
    for _ in 0..40 {
        let job = jobs.job(0);
        let answers = forest.execute(&job, &mut rng).to_vec();
        let want: Vec<_> = job.iter().map(|&r| oracle.answer(r)).collect();
        assert_eq!(answers, want, "forest disagrees with the oracle");
        // The replayer asserts its mirror matched the forest bit for bit.
        assert_eq!(replayer.run(&job, &mut trace), answers);
    }
    assert_eq!(oracle.n(), 300 + 40 * 3);
    assert!(trace.inserts == 120 && trace.rebuilds > 0);
    assert!(replayer.mutate(&mut trace));
    assert!(replayer.recover(&mut trace));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn metric_names_match_benchmark_json() {
    let end_to_end = benchmark_names("end_to_end");
    let per_layer = benchmark_names("per_layer");
    assert!(end_to_end
        .iter()
        .chain(&per_layer)
        .all(|n| valid_metric_name(n)));
    assert!(!valid_metric_name("bad name") && !valid_metric_name(""));

    let dir = scratch("names");
    let untraced = workloads::run("durable_ingest", 2, 0.5, &dir, false).expect("known");
    let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, end_to_end);
    assert_eq!(untraced.failed, 0);

    let traced = workloads::run("durable_ingest", 2, 0.5, &dir, true).expect("known");
    // The runner replaces the traced throughput by the overhead share.
    let names: Vec<&str> = traced
        .metrics
        .iter()
        .map(|m| match m.name {
            "trace.throughput_rps" => "trace.overhead_frac",
            n => n,
        })
        .collect();
    assert_eq!(names, per_layer);
    assert_eq!(traced.failed, 0);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn percentiles_are_nearest_rank_and_p99_needs_enough_samples() {
    let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.5), Some(5.0));
    assert_eq!(percentile(&samples, 0.9), Some(9.0));
    let mut sorted = samples.clone();
    sorted.sort_by(f64::total_cmp);
    assert_eq!(
        percentile(&samples, 0.75),
        spatial_bench::percentile(&sorted, 0.75)
    );

    let few: Vec<f64> = (0..P99_MIN_SAMPLES - 1).map(|i| i as f64).collect();
    assert_eq!(p99(&few), None);
    let enough: Vec<f64> = (0..P99_MIN_SAMPLES).map(|i| i as f64).collect();
    assert_eq!(p99(&enough), Some(989.0));
}

#[test]
fn window_stats_are_scaled_to_the_gauge_reference_speed() {
    // Two 3 s slices of 3000 requests each, latencies 2, 4, .., 10 ms
    // in the first and 3, 6, .., 15 ms in the second.
    // The passes around the first slice say the host ran at half the
    // reference speed ...
    let mut window = Window::opened(2.0 * GAUGE_REF_S);
    window.requests = 6000;
    window.latency_ms = (1..=5).map(|i| 2.0 * f64::from(i)).collect();
    window.close(3.0, 2.0 * GAUGE_REF_S);
    window
        .latency_ms
        .extend((1..=5).map(|i| 3.0 * f64::from(i)));
    // ... and those around the second, at a third of it on average.
    window.close(3.0, 4.0 * GAUGE_REF_S);
    // At the reference speed both slices took 2.5 s together with
    // latencies 1..=5 ms, twice over.
    let (rate, p50, p90) = window.stats();
    assert!((rate - 6000.0 / 2.5).abs() < 1e-9, "rate {rate}");
    assert!((p50 - 3.0).abs() < 1e-9 && (p90 - 5.0).abs() < 1e-9);
    assert_eq!(window.wall_s, 6.0);
    assert!((slowdown(&window.gauge_s) - 8.0 / 3.0).abs() < 1e-12);
    assert_eq!(slowdown(&[]), 1.0);
    assert_eq!(mean(&[]), 0.0);
}

#[test]
fn gauge_passes_take_time() {
    let mut gauge = Gauge::new();
    assert!(gauge.time() > 0.0 && gauge.time() < 1.0);
}
