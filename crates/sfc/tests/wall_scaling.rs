//! Real wall-clock scaling smoke: with two workers, the forked batch
//! fill must actually be faster than with one — not just modeled
//! faster. Complements the calibration fits (which only promise the
//! crossover is *profitable*) with an end-to-end check that the
//! `par_fill` fork path wins on a real second core.
//!
//! The rayon shim memoizes its worker count on first use, so the
//! parent re-execs this same test binary twice with `SPATIAL_THREADS`
//! pinned to 1 and 2; each child times the same 2^20-point Hilbert
//! index batch and prints its best pass. Skips (silently passes) on
//! single-core hosts, where a second worker cannot exist.
//!
//! A wall-clock bar has no place in the functional suite — on a shared
//! host a loaded second core loses the race — so the test is ignored by
//! default and run on its own in release:
//!
//! ```sh
//! cargo test --release -p spatial-sfc --test wall_scaling -- --ignored --nocapture
//! ```

use spatial_sfc::{Curve, GridPoint, HilbertCurve};
use std::time::Instant;

#[test]
#[ignore = "wall-clock bar, meaningful only in release on idle cores; run with -- --ignored"]
fn two_thread_batch_fill_scales_in_release() {
    if std::env::var("SPATIAL_THREADS").is_ok() {
        // Child mode: time the batch under the pinned worker count.
        let curve = HilbertCurve::new(1 << 10);
        let points: Vec<GridPoint> = curve.all_points();
        let mut out = vec![0u64; points.len()];
        curve.index_batch(&points, &mut out); // warm-up
        let mut best = u128::MAX;
        for _ in 0..7 {
            let t0 = Instant::now();
            curve.index_batch(&points, &mut out);
            best = best.min(t0.elapsed().as_nanos());
        }
        assert!(out[0] < curve.len(), "batch produced a valid index");
        println!("WALL_NS={best}");
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!("skipping: single-core host ({cores} worker)");
        return;
    }
    let run = |threads: &str| -> u128 {
        let exe = std::env::current_exe().expect("test binary path");
        let output = std::process::Command::new(exe)
            .args([
                "--exact",
                "two_thread_batch_fill_scales_in_release",
                "--ignored",
                "--nocapture",
            ])
            .env("SPATIAL_THREADS", threads)
            .output()
            .expect("spawn child test process");
        assert!(
            output.status.success(),
            "child (SPATIAL_THREADS={threads}) failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("WALL_NS="))
            .unwrap_or_else(|| panic!("no WALL_NS line in child output: {stdout}"))
            .trim()
            .parse()
            .expect("numeric WALL_NS")
    };
    let t1 = run("1");
    let t2 = run("2");
    assert!(
        (t2 as f64) < (t1 as f64) * 0.9,
        "two workers must beat one by >= 10% wall-clock: t1 = {t1} ns, t2 = {t2} ns"
    );
}
