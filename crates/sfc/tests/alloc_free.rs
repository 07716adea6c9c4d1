//! Counting-allocator proof that the batch curve transforms perform
//! **zero heap allocation** into caller-provided buffers — the same
//! harness as the layout, ranking and treefix engines' `alloc_free`
//! tests.
//!
//! The SWAR rewrite must not regress this: the chunk kernels write
//! straight into the output slice and the packed LUTs are `static`, so
//! once the buffers exist, a batch costs no allocator traffic. This
//! binary holds exactly one live `#[test]` so no concurrent test can
//! pollute the count.

use spatial_sfc::{Curve, CurveKind, GridPoint};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::count_allocations;

#[test]
fn batch_transforms_do_not_allocate() {
    for kind in [CurveKind::Hilbert, CurveKind::ZOrder] {
        let curve = kind.with_side(1 << 6); // 4096 cells
        let n = curve.len() as usize;
        let indices: Vec<u64> = (0..n as u64).collect();
        let mut points = vec![GridPoint::default(); n];
        let mut back = vec![0u64; n];

        // Warm-up outside the gate (nothing lazy to grow, but keep the
        // shape of the sibling suites).
        curve.point_range_batch(0, &mut points);

        let ((), allocs) = count_allocations(|| {
            curve.point_range_batch(0, &mut points);
            curve.index_batch(&points, &mut back);
            curve.point_batch(&indices, &mut points);
        });
        assert_eq!(back, indices, "{kind}: round-trip");
        assert_eq!(
            allocs, 0,
            "{kind}: batch transforms allocated {allocs} times into preallocated buffers"
        );
    }
}
