//! Shared infrastructure for the experiment harness: table printing,
//! timing and canonical workloads.
//!
//! Every paper table and `BENCH_*.json` baseline is regenerated by the
//! `experiments` binary in this crate, whose registry lists the ids:
//!
//! ```sh
//! cargo run --release -p spatial-bench --bin experiments          # all
//! cargo run --release -p spatial-bench --bin experiments -- e1 e5 # some
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spatial_trees::tree::generators::TreeFamily;
use spatial_trees::tree::Tree;
use std::time::{Duration, Instant};

pub mod lab;

/// Fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table with per-column widths.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Deterministic tree for (family, n, seed) — the canonical workloads
/// of the experiments.
pub fn workload(family: TreeFamily, n: u32, seed: u64) -> Tree {
    let mut rng = StdRng::seed_from_u64(seed ^ (n as u64).rotate_left(17));
    family.generate(n, &mut rng)
}

/// Deterministic random-permutation linked list over `n` elements:
/// returns the successor array (`u32::MAX`-terminated, the
/// `spatial_euler::ranking::END` convention) and the start element —
/// the canonical list-ranking workload of the experiments.
pub fn random_list(n: usize, seed: u64) -> (Vec<u32>, u32) {
    if n == 0 {
        // The empty list: no successors, and the start is END itself.
        return (Vec::new(), u32::MAX);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut next = vec![u32::MAX; n];
    for w in order.windows(2) {
        next[w[0] as usize] = w[1];
    }
    (next, order[0])
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// element whose rank is at least `p · len` (`p` in `[0, 1]`), i.e.
/// `sorted[ceil(p · len) - 1]` clamped to the valid range. `None` on
/// an empty sample.
///
/// This is the textbook nearest-rank definition: p99 over 256 sorted
/// latencies reads index 253 (rank 254), where the previous
/// `((len - 1) · p) as usize` truncation read index 252 (~p98.8),
/// biasing reported tails low.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// One untimed call of `f` (warm-up, and the calibration of a pass):
/// returns how many calls fill about `pass_budget` (at least one, so a
/// zero budget times single-shot) and the call's result.
fn calibrate(pass_budget: Duration, f: &mut impl FnMut() -> u64) -> (u32, u64) {
    let start = Instant::now();
    let sink = f();
    let once = start.elapsed().max(Duration::from_nanos(100));
    let reps = (pass_budget.as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;
    (reps, sink)
}

/// One timed pass of `reps` calls of `f`, its results folded into
/// `sink`: the mean milliseconds per call.
fn timed_pass(reps: u32, f: &mut impl FnMut() -> u64, sink: &mut u64) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        *sink ^= f();
    }
    start.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// The median of a non-empty sample.
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Best-of-`passes` wall-clock timer shared by every experiment: one
/// untimed call (warm-up, and the calibration of `reps`), then `passes`
/// passes of `reps` calls each, where `reps` fills about `pass_budget`
/// (at least one call, so a zero budget times single-shot). Returns the
/// best pass's mean milliseconds per call. `f`'s results feed a
/// black-boxed sink so its work cannot be optimized away.
pub fn best_of(passes: u32, pass_budget: Duration, mut f: impl FnMut() -> u64) -> f64 {
    let (reps, mut sink) = calibrate(pass_budget, &mut f);
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        best = best.min(timed_pass(reps, &mut f, &mut sink));
    }
    std::hint::black_box(sink);
    best
}

/// An optimized/reference timing pair, in milliseconds (or any one
/// unit) per call, and the speedup recorded for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speedup {
    /// Time per call of the optimized path.
    pub optimized: f64,
    /// Time per call of the reference path.
    pub reference: f64,
    /// How many times faster the optimized path is.
    pub speedup: f64,
}

impl Speedup {
    /// Two separately timed sides: the speedup is their ratio.
    pub fn of(optimized: f64, reference: f64) -> Self {
        Speedup {
            optimized,
            reference,
            speedup: reference / optimized,
        }
    }

    /// The same pair in another unit: both timings times `factor`.
    pub fn scaled(self, factor: f64) -> Self {
        Speedup {
            optimized: self.optimized * factor,
            reference: self.reference * factor,
            ..self
        }
    }
}

/// The one paired wall-clock measurement of the harness: alternates
/// `first` and `second` `pairs` times (one call of each per pair,
/// `first` then `second`) and returns `first`'s median reading as
/// `optimized`, `second`'s as `reference`, and the median of the pairs'
/// `second / first` ratios as `speedup`. A busy stretch of a shared
/// host slows both readings of the pairs it overlaps, so it moves a few
/// ratios rather than the median — one reading per side, or a best-of
/// per side timed apart, lets one lucky or unlucky run decide the
/// ratio.
pub fn interleaved_pairs(
    pairs: u32,
    mut first: impl FnMut() -> f64,
    mut second: impl FnMut() -> f64,
) -> Speedup {
    assert!(pairs > 0, "at least one pair");
    let (mut firsts, mut seconds, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..pairs {
        let a = first();
        let b = second();
        firsts.push(a);
        seconds.push(b);
        ratios.push(b / a);
    }
    Speedup {
        optimized: median(firsts),
        reference: median(seconds),
        speedup: median(ratios),
    }
}

/// Times `optimized` against `reference` as `pairs` interleaved pass
/// pairs ([`interleaved_pairs`]): after one untimed calibrating call of
/// each, every pair runs one pass of the optimized path and then one of
/// the reference path, each pass filling about `pass_budget`.
pub fn interleaved_speedup(
    pairs: u32,
    pass_budget: Duration,
    mut optimized: impl FnMut() -> u64,
    mut reference: impl FnMut() -> u64,
) -> Speedup {
    let (opt_reps, mut opt_sink) = calibrate(pass_budget, &mut optimized);
    let (ref_reps, mut ref_sink) = calibrate(pass_budget, &mut reference);
    let speedup = interleaved_pairs(
        pairs,
        || timed_pass(opt_reps, &mut optimized, &mut opt_sink),
        || timed_pass(ref_reps, &mut reference, &mut ref_sink),
    );
    std::hint::black_box((opt_sink, ref_sink));
    speedup
}

/// The two-point fit of a per-query cost `ms/q = F/b + c` — a fixed
/// cost `F` per cycle of `b` queries plus a marginal cost `c` per query
/// — through `(b₁, ms₁)` and `(b₂, ms₂)`, `b₁ < b₂`: returns `F` and
/// `c`. The fitted `c = (b₂·ms₂ − b₁·ms₁)/(b₂ − b₁)` is positive only
/// while `ms₁/ms₂ < b₂/b₁`. At or above that ratio two points cannot
/// separate a marginal cost from the fixed one, and `c` is `None`
/// rather than a clamped 0.
pub fn two_point_fit((b1, ms1): (f64, f64), (b2, ms2): (f64, f64)) -> (f64, Option<f64>) {
    let fixed = (ms1 - ms2) / (1.0 / b1 - 1.0 / b2);
    let marginal = ms2 - fixed / b2;
    (fixed, (marginal > 0.0).then_some(marginal))
}

/// Formats a float with three significant decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["n", "energy"]);
        t.row(["1024", "3.5"]);
        t.row(["1048576", "3.6"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].ends_with("energy"));
        assert!(lines[2].trim().starts_with("1024"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn two_point_fit_resolves_a_marginal_cost_or_reports_none() {
        // ms/q = 4/b + 0.001: both costs come back.
        let at = |b: f64| 4.0 / b + 0.001;
        let (fixed, marginal) = two_point_fit((512.0, at(512.0)), (1024.0, at(1024.0)));
        assert!((fixed - 4.0).abs() < 1e-9, "{fixed}");
        let marginal = marginal.expect("resolved");
        assert!((marginal - 0.001).abs() < 1e-12, "{marginal}");
        // A ratio at or above b₂/b₁ = 2, which F/b + c with c > 0 cannot
        // produce: the fixed cost stays, the marginal is unresolved.
        for ratio in [2.05, 2.35] {
            let (fixed, marginal) = two_point_fit((512.0, ratio * 0.01), (1024.0, 0.01));
            assert!(fixed > 0.0, "ratio {ratio}");
            assert_eq!(marginal, None, "ratio {ratio}");
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let a = workload(TreeFamily::UniformRandom, 100, 1);
        let b = workload(TreeFamily::UniformRandom, 100, 1);
        assert_eq!(a, b);
        let c = workload(TreeFamily::UniformRandom, 100, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn random_list_handles_degenerate_sizes() {
        // n = 0: no order[0] to read — the empty list under the END
        // convention, not a panic.
        assert_eq!(random_list(0, 7), (Vec::new(), u32::MAX));
        // n = 1: the single element is the start and has no successor.
        assert_eq!(random_list(1, 7), (vec![u32::MAX], 0));
    }

    #[test]
    fn random_list_is_deterministic_permutation() {
        let (next, start) = random_list(64, 42);
        assert_eq!(random_list(64, 42), (next.clone(), start));
        // Walking from start visits every element exactly once.
        let mut seen = [false; 64];
        let mut at = start;
        for _ in 0..64 {
            assert!(!seen[at as usize]);
            seen[at as usize] = true;
            at = next[at as usize];
        }
        assert_eq!(at, u32::MAX);
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn percentile_nearest_rank_on_known_vectors() {
        assert_eq!(percentile(&[], 0.5), None);
        let one = [42.0];
        assert_eq!(percentile(&one, 0.0), Some(42.0));
        assert_eq!(percentile(&one, 1.0), Some(42.0));
        // Even-length sample: nearest-rank p50 is the lower middle
        // (rank ceil(0.5·4) = 2).
        let four = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&four, 0.5), Some(20.0));
        assert_eq!(percentile(&four, 0.75), Some(30.0));
        assert_eq!(percentile(&four, 0.99), Some(40.0));
        // The regression the fix pins: p99 over 256 samples must read
        // rank ceil(0.99·256) = 254 → index 253, not the truncated
        // ((256-1)·0.99) as usize = 252 of the old code.
        let many: Vec<f64> = (0..256).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(253.0));
        assert_eq!(percentile(&many, 0.5), Some(127.0));
        assert_eq!(percentile(&many, 1.0), Some(255.0));
    }

    #[test]
    fn best_of_calls_once_per_rep_after_one_warmup() {
        let mut calls = 0u64;
        // A zero budget times single-shot passes: warm-up + 3 calls.
        let ms = best_of(3, Duration::ZERO, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 4);
        assert!(ms.is_finite() && ms >= 0.0);
    }

    #[test]
    fn interleaved_pairs_alternates_the_sides_once_per_pair() {
        let log = std::cell::RefCell::new(Vec::new());
        let pair = interleaved_pairs(
            4,
            || {
                log.borrow_mut().push('a');
                1.0
            },
            || {
                log.borrow_mut().push('b');
                3.0
            },
        );
        assert_eq!(log.into_inner(), "abababab".chars().collect::<Vec<_>>());
        assert_eq!(pair, Speedup::of(1.0, 3.0));
    }

    #[test]
    fn one_outlier_on_either_side_moves_no_median() {
        // Five pairs of readings 2 and 5: one reading of ten times its
        // side's value, at any pair, leaves both medians and the median
        // ratio where they were.
        let steady = Speedup::of(2.0, 5.0);
        for outlier in 0..5 {
            for side in 0..2 {
                let readings = |this_side: usize, value: f64| {
                    let mut xs = vec![value; 5];
                    if this_side == side {
                        xs[outlier] *= 10.0;
                    }
                    let mut xs = xs.into_iter();
                    move || xs.next().expect("one reading per pair")
                };
                let pair = interleaved_pairs(5, readings(0, 2.0), readings(1, 5.0));
                assert_eq!(pair, steady, "outlier at pair {outlier}, side {side}");
            }
        }
    }
}
