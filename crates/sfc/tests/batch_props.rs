//! Property tests: the batch curve transforms must agree element-wise
//! with the scalar `point`/`index` for every curve family, and the
//! optimized hot paths must agree with the retained scalar references.

use proptest::prelude::*;
use spatial_sfc::{Curve, CurveKind, GridPoint};

/// Orders 1..=7 for the power-of-two families and levels 1..=4 for
/// Peano (3^4 = 81 ≈ the same grid scale).
fn curve_for(kind: CurveKind, order: u32) -> spatial_sfc::AnyCurve {
    let side = match kind {
        CurveKind::Peano => 3u32.pow(order.clamp(1, 4)),
        _ => 1u32 << order,
    };
    kind.with_side(side)
}

fn batch_agrees_with_scalar(kind: CurveKind, order: u32, seed: u64) {
    let curve = curve_for(kind, order);
    let n = curve.len();
    // A mix of stride patterns: contiguous prefix, strided, and a
    // pseudo-random pattern derived from the seed.
    let mut indices: Vec<u64> = (0..n.min(512)).collect();
    indices.extend((0..n).step_by(7));
    indices.extend((0..257u64).map(|k| (seed.wrapping_mul(k + 1).wrapping_add(k * k)) % n));

    let mut batch = vec![GridPoint::default(); indices.len()];
    curve.point_batch(&indices, &mut batch);
    for (k, &i) in indices.iter().enumerate() {
        assert_eq!(batch[k], curve.point(i), "{kind} order {order} point({i})");
    }

    let mut back = vec![0u64; batch.len()];
    curve.index_batch(&batch, &mut back);
    for (k, &i) in indices.iter().enumerate() {
        assert_eq!(back[k], i, "{kind} order {order} index(point({i}))");
        assert_eq!(curve.index(batch[k]), i);
    }

    // Range batch over a window.
    let start = seed % n;
    let len = (n - start).min(300) as usize;
    let mut window = vec![GridPoint::default(); len];
    curve.point_range_batch(start, &mut window);
    for (k, &p) in window.iter().enumerate() {
        assert_eq!(p, curve.point(start + k as u64));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hilbert_batch_matches_scalar(order in 1u32..=7, seed in 0u64..10_000) {
        batch_agrees_with_scalar(CurveKind::Hilbert, order, seed);
    }

    #[test]
    fn zorder_batch_matches_scalar(order in 1u32..=7, seed in 0u64..10_000) {
        batch_agrees_with_scalar(CurveKind::ZOrder, order, seed);
    }

    #[test]
    fn moore_batch_matches_scalar(order in 1u32..=7, seed in 0u64..10_000) {
        batch_agrees_with_scalar(CurveKind::Moore, order, seed);
    }

    #[test]
    fn peano_batch_matches_scalar(order in 1u32..=4, seed in 0u64..10_000) {
        batch_agrees_with_scalar(CurveKind::Peano, order, seed);
    }

    #[test]
    fn negative_controls_batch_matches_scalar(order in 1u32..=7, seed in 0u64..10_000) {
        batch_agrees_with_scalar(CurveKind::RowMajor, order, seed);
        batch_agrees_with_scalar(CurveKind::Serpentine, order, seed);
    }
}

#[test]
fn large_batches_cross_the_parallel_threshold() {
    // The largest batch-vs-scalar check: one 2^18-cell SWAR pass per
    // batch call, far beyond the proptests' grids.
    for kind in [CurveKind::Hilbert, CurveKind::ZOrder] {
        let curve = kind.with_side(1 << 9);
        let n = curve.len();
        let mut points = vec![GridPoint::default(); n as usize];
        curve.point_range_batch(0, &mut points);
        let indices: Vec<u64> = (0..n).collect();
        let mut batch = vec![GridPoint::default(); n as usize];
        curve.point_batch(&indices, &mut batch);
        assert_eq!(points, batch, "{kind}");
        let mut back = vec![0u64; n as usize];
        curve.index_batch(&points, &mut back);
        assert_eq!(back, indices, "{kind}");
        // Spot-check scalar agreement at both ends and inside.
        for i in [0u64, (1 << 14) - 1, 1 << 14, n / 2, n - 1] {
            assert_eq!(points[i as usize], curve.point(i), "{kind} at {i}");
        }
    }
}

#[test]
fn hilbert_matches_seed_reference_on_order_10() {
    // The acceptance-criterion grid: order 10 (1024×1024), sampled.
    let curve = CurveKind::Hilbert.with_side(1 << 10);
    for i in (0..curve.len()).step_by(997) {
        let p = spatial_sfc::reference::hilbert_point_scalar(1 << 10, i);
        assert_eq!(curve.point(i), p);
        assert_eq!(curve.index(p), i);
    }
}
