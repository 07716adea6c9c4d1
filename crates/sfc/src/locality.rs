//! Empirical locality analysis of space-filling curves.
//!
//! §III-B of the paper defines a curve as *distance-bound* when
//! `dist(i, i+j) ≤ α·√j + o(√j)` for every `i, j`, and *aligned* (Lemma 4)
//! when every `4^k` consecutive elements fit inside a `2·2^k × 2·2^k`
//! subgrid. This module measures both properties so that the experiment
//! harness can print measured α values next to the proven constants
//! (Hilbert 3, Peano √(10⅔), H-index 2√2) and show that Z-order, row-major
//! and serpentine orders are unbounded.
//!
//! All measurements run on the batch interface
//! ([`Curve::point_range_batch`] / [`Curve::point_batch`]): each curve
//! position is transformed exactly once, and the scans then run over
//! the materialized coordinate array. The materialization is capped at
//! [`MATERIALIZE_MAX`] positions; beyond that the functions fall back
//! to the on-the-fly strided scans, so the `stride` parameter keeps
//! bounding memory on huge grids exactly as it did before the batch
//! rewrite.

use crate::geom::{manhattan, BoundingBox, GridPoint};
use crate::Curve;

/// Largest curve (in positions) the measurement functions will
/// materialize as one coordinate array (4M points ≈ 32 MiB); larger
/// curves use the on-the-fly strided scans.
pub const MATERIALIZE_MAX: u64 = 1 << 22;

/// Measured locality of one index gap `j` on a curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapStretch {
    /// The index gap `j`.
    pub gap: u64,
    /// `max_i dist(i, i+j)` over the sampled starting positions.
    pub max_dist: u64,
    /// `max_dist / √gap` — the per-gap distance-bound constant.
    pub ratio: f64,
}

/// Maximum `dist(i, i+j)` over all `i` in `0..len-j`, sampled with the
/// given stride (stride 1 is exhaustive).
pub fn max_dist_for_gap<C: Curve + Sync>(curve: &C, gap: u64, stride: u64) -> u64 {
    assert!(gap >= 1, "gap must be positive");
    assert!(stride >= 1, "stride must be positive");
    let n = curve.len();
    if gap >= n {
        return 0;
    }
    let starts: Vec<u64> = (0..n - gap).step_by(stride as usize).collect();
    let ends: Vec<u64> = starts.iter().map(|&i| i + gap).collect();
    let mut from = vec![GridPoint::default(); starts.len()];
    let mut to = vec![GridPoint::default(); ends.len()];
    curve.point_batch(&starts, &mut from);
    curve.point_batch(&ends, &mut to);
    max_dist_of(&from, &to)
}

/// Measures [`GapStretch`] for each gap in `gaps`. The curve is
/// transformed once (batch), then every gap scans the shared
/// coordinate array.
pub fn stretch_profile<C: Curve + Sync>(curve: &C, gaps: &[u64], stride: u64) -> Vec<GapStretch> {
    assert!(stride >= 1, "stride must be positive");
    let n = curve.len();
    let points = (n <= MATERIALIZE_MAX).then(|| curve.all_points());
    gaps.iter()
        .map(|&gap| {
            assert!(gap >= 1, "gap must be positive");
            let max_dist = if gap >= n {
                0
            } else if let Some(points) = &points {
                let lim = points.len() - gap as usize;
                (0..lim)
                    .step_by(stride as usize)
                    .map(|i| manhattan(points[i], points[i + gap as usize]))
                    .max()
                    .unwrap_or(0)
            } else {
                // Huge curve: on-the-fly strided scan, O(1) memory.
                (0..n - gap)
                    .step_by(stride as usize)
                    .map(|i| manhattan(curve.point(i), curve.point(i + gap)))
                    .max()
                    .unwrap_or(0)
            };
            GapStretch {
                gap,
                max_dist,
                ratio: max_dist as f64 / (gap as f64).sqrt(),
            }
        })
        .collect()
}

/// Empirical distance-bound constant: the worst `dist/√j` over a sweep of
/// power-of-two gaps. For a distance-bound curve this converges to its α;
/// for Z-order/row-major it grows with the grid side.
pub fn alpha_estimate<C: Curve + Sync>(curve: &C, stride: u64) -> f64 {
    let n = curve.len();
    let mut gaps = Vec::new();
    let mut g = 1u64;
    while g < n {
        gaps.push(g);
        g *= 2;
    }
    stretch_profile(curve, &gaps, stride)
        .into_iter()
        .map(|s| s.ratio)
        .fold(0.0, f64::max)
}

/// Checks the alignment property of Lemma 4 on *sampled* windows: every
/// `4^k` consecutive elements must fit in a `2·2^k`-sided box. Returns the
/// largest observed `max_side / 2^k` ratio (≤ 2 means aligned).
pub fn alignment_ratio<C: Curve + Sync>(curve: &C, k: u32, stride: u64) -> f64 {
    let window = 4u64.pow(k);
    let n = curve.len();
    if window > n {
        return 0.0;
    }
    let worst = if n <= MATERIALIZE_MAX {
        let points = curve.all_points();
        let window = window as usize;
        (0..=points.len() - window)
            .step_by(stride as usize)
            .map(|start| {
                BoundingBox::of_points(points[start..start + window].iter().copied())
                    .map(|bb| bb.max_side())
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
    } else {
        // Huge curve: transform each sampled window on the fly.
        (0..=n - window)
            .step_by(stride as usize)
            .map(|start| {
                BoundingBox::of_points((start..start + window).map(|i| curve.point(i)))
                    .map(|bb| bb.max_side())
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
    };
    worst as f64 / (1u64 << k) as f64
}

/// Average Manhattan distance between consecutive curve positions — 1.0
/// for edge-connected curves (Hilbert, Peano, serpentine), larger for
/// Z-order and row-major.
pub fn mean_step_distance<C: Curve + Sync>(curve: &C) -> f64 {
    let n = curve.len();
    if n < 2 {
        return 0.0;
    }
    // Blocked batch transform with one position of overlap: batch
    // speed, O(block) memory on any curve size.
    const BLOCK: u64 = 1 << 16;
    let mut buf = vec![GridPoint::default(); BLOCK.min(n) as usize];
    let mut total = 0u64;
    let mut start = 0u64;
    while start + 1 < n {
        let len = (n - start).min(BLOCK);
        let chunk = &mut buf[..len as usize];
        curve.point_range_batch(start, chunk);
        total += chunk.windows(2).map(|w| manhattan(w[0], w[1])).sum::<u64>();
        // Overlap by one so the seam step is counted exactly once
        // (the loop guard keeps len ≥ 2, so this always progresses).
        start += len - 1;
    }
    total as f64 / (n - 1) as f64
}

/// Maximum pairwise Manhattan distance between aligned coordinate
/// slices.
fn max_dist_of(from: &[GridPoint], to: &[GridPoint]) -> u64 {
    assert_eq!(from.len(), to.len());
    from.iter()
        .zip(to)
        .map(|(&a, &b)| manhattan(a, b))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CurveKind;

    #[test]
    fn hilbert_alpha_close_to_three() {
        let c = CurveKind::Hilbert.with_side(64);
        let a = alpha_estimate(&c, 1);
        assert!(a <= 3.01, "Hilbert α measured {a} > 3");
        assert!(a > 1.5, "Hilbert α measured {a} suspiciously small");
    }

    #[test]
    fn peano_alpha_within_proof() {
        let c = CurveKind::Peano.with_side(27);
        let a = alpha_estimate(&c, 1);
        let bound = (10.0 + 2.0 / 3.0f64).sqrt() + 0.01;
        assert!(a <= bound, "Peano α measured {a} > {bound}");
    }

    #[test]
    fn zorder_alpha_grows_with_side() {
        let small = alpha_estimate(&CurveKind::ZOrder.with_side(16), 1);
        let large = alpha_estimate(&CurveKind::ZOrder.with_side(128), 1);
        assert!(
            large > small * 1.8,
            "Z-order α should grow with side: {small} vs {large}"
        );
    }

    #[test]
    fn rowmajor_alpha_unbounded() {
        let a = alpha_estimate(&CurveKind::RowMajor.with_side(64), 1);
        assert!(a > 8.0, "row-major α measured only {a}");
    }

    #[test]
    fn hilbert_is_aligned() {
        let c = CurveKind::Hilbert.with_side(32);
        for k in 0..=3 {
            let r = alignment_ratio(&c, k, 7);
            assert!(r <= 2.0, "alignment ratio {r} > 2 at k={k}");
        }
    }

    #[test]
    fn zorder_unaligned_windows_can_be_far_apart() {
        // Lemma 3: unaligned Z-order windows span two subgrids "connected
        // by some diagonal and could therefore be far apart" — the
        // alignment ratio over arbitrary windows exceeds 2, which is
        // exactly why Theorem 2 needs the Ed diagonal accounting.
        let c = CurveKind::ZOrder.with_side(32);
        let r = alignment_ratio(&c, 2, 1);
        assert!(r > 2.0, "expected unaligned Z windows to spread, got {r}");
    }

    #[test]
    fn mean_step_distance_edge_connected() {
        assert_eq!(mean_step_distance(&CurveKind::Hilbert.with_side(16)), 1.0);
        assert_eq!(mean_step_distance(&CurveKind::Peano.with_side(9)), 1.0);
        assert_eq!(
            mean_step_distance(&CurveKind::Serpentine.with_side(10)),
            1.0
        );
        assert!(mean_step_distance(&CurveKind::ZOrder.with_side(16)) > 1.0);
        assert!(mean_step_distance(&CurveKind::RowMajor.with_side(16)) > 1.0);
    }

    #[test]
    fn stretch_profile_shapes() {
        let c = CurveKind::Hilbert.with_side(16);
        let profile = stretch_profile(&c, &[1, 4, 16, 64], 1);
        assert_eq!(profile.len(), 4);
        assert_eq!(profile[0].max_dist, 1, "unit gap on Hilbert is adjacent");
        for w in profile.windows(2) {
            assert!(w[0].max_dist <= w[1].max_dist, "max dist must be monotone");
        }
    }

    #[test]
    fn gap_larger_than_curve() {
        let c = CurveKind::Hilbert.with_side(4);
        assert_eq!(max_dist_for_gap(&c, 100, 1), 0);
        assert_eq!(stretch_profile(&c, &[100], 1)[0].max_dist, 0);
    }

    #[test]
    fn strided_and_exhaustive_agree_on_structured_curves() {
        // Batch max_dist_for_gap must agree with a direct scalar scan.
        let c = CurveKind::Hilbert.with_side(32);
        for gap in [1u64, 3, 17, 64] {
            let direct = (0..c.len() - gap)
                .map(|i| manhattan(c.point(i), c.point(i + gap)))
                .max()
                .unwrap();
            assert_eq!(max_dist_for_gap(&c, gap, 1), direct, "gap {gap}");
        }
    }
}
