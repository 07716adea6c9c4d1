//! The repository benchmark: drives `SpatialForest` → `ForestService`
//! → `store` through public functions only, checks every answer
//! against host oracles, and reports end-to-end metrics (untraced) or
//! a per-layer split (traced). See `README.md` next to this crate's
//! manifest for the workloads and the metric map.

pub mod gauge;
pub mod gen;
pub mod mirror;
pub mod oracle;
pub mod replay;
pub mod workloads;

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The result of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests issued (set-up, window and replay answers all checked).
    pub attempted: u64,
    /// `ServeError`s plus answers that disagree with the oracle.
    pub failed: u64,
    /// Every metric of the run's mode.
    pub metrics: Vec<Metric>,
    /// Context printed before the result line (sample counts, and
    /// `latency_p99_ms` where a run has enough samples for it).
    pub info: Vec<Metric>,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
        .expect("writing to a String cannot fail");
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Nearest-rank percentile of unsorted samples, as
/// `spatial_bench::percentile`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    spatial_bench::percentile(&sorted, p)
}

/// The median of unsorted samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// Fewest samples at which `latency_p99_ms` is reported: ten samples
/// must lie beyond the 99th percentile.
pub const P99_MIN_SAMPLES: usize = 1000;

/// The 99th percentile, only when there are enough samples for it.
pub fn p99(samples: &[f64]) -> Option<f64> {
    if samples.len() < P99_MIN_SAMPLES {
        return None;
    }
    percentile(samples, 0.99)
}

/// The arithmetic mean (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// How much slower than the reference the host ran while `gauge_s`
/// were taken: their mean over [`gauge::GAUGE_REF_S`] (1 when empty).
pub fn slowdown(gauge_s: &[f64]) -> f64 {
    if gauge_s.is_empty() {
        1.0
    } else {
        mean(gauge_s) / gauge::GAUGE_REF_S
    }
}

/// A timed window, cut into slices of load with a gauge pass before
/// the first and after each (see [`gauge`]). Each slice's time and
/// latencies are scaled to the reference host speed by the mean of the
/// passes on either side of it: the host drifts within seconds, so a
/// slice is compared with the passes next to it.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Requests answered.
    pub requests: u64,
    /// Seconds under load, the gauge's pauses left out, at the
    /// reference speed.
    pub load_s: f64,
    /// Per-call latencies in ms; those of closed slices at the
    /// reference speed.
    pub latency_ms: Vec<f64>,
    /// The gauge passes, s.
    pub gauge_s: Vec<f64>,
    /// Wall seconds under load, as measured.
    pub wall_s: f64,
    /// Where the open slice's latencies start.
    open: usize,
}

impl Window {
    /// An empty window opened by a gauge pass that took `gauge_s`.
    pub fn opened(gauge_s: f64) -> Self {
        Window {
            gauge_s: vec![gauge_s],
            ..Window::default()
        }
    }

    /// Closes the open slice, `slice_s` wall seconds of load, with a
    /// gauge pass that took `gauge_s`.
    pub fn close(&mut self, slice_s: f64, gauge_s: f64) {
        let before = self.gauge_s.last().copied().unwrap_or(gauge_s);
        let scale = gauge::GAUGE_REF_S / mean(&[before, gauge_s]);
        for ms in &mut self.latency_ms[self.open..] {
            *ms *= scale;
        }
        self.open = self.latency_ms.len();
        self.load_s += slice_s * scale;
        self.wall_s += slice_s;
        self.gauge_s.push(gauge_s);
    }

    /// `(requests/s, p50 ms, p90 ms)` over the whole window at the
    /// reference speed.
    pub fn stats(&self) -> (f64, f64, f64) {
        let rate = self.requests as f64 / self.load_s.max(f64::MIN_POSITIVE);
        let p = |q| percentile(&self.latency_ms, q).unwrap_or(0.0);
        (rate, p(0.5), p(0.9))
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
