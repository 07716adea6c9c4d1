//! Reference scalar curve transforms, retained for benchmarking and
//! differential testing of the optimized implementations.
//!
//! These are the pre-optimization code paths: the branchy
//! rotate-and-swap Hilbert loop (one quadrant level per iteration, with
//! data-dependent branches) and the bit-at-a-time Morton interleave.
//! The `bench-json-sfc` experiment (`BENCH_sfc_treefix.json`) times
//! them against the lookup-table / magic-mask hot paths, and the
//! property tests assert exact agreement on every index.
//!
//! Not part of the public API surface; signatures take raw `side`
//! values so the reference paths cannot accidentally pick up the
//! optimized precomputation.
#![doc(hidden)]

use crate::geom::GridPoint;

/// Seed implementation of `HilbertCurve::point`: LSB-first loop, one
/// 2-bit quadrant level per iteration, branchy rotation.
pub fn hilbert_point_scalar(side: u32, index: u64) -> GridPoint {
    let mut t = index;
    let (mut x, mut y) = (0u64, 0u64);
    let mut s = 1u64;
    let n = side as u64;
    while s < n {
        let rx = 1 & (t / 2);
        let ry = 1 & (t ^ rx);
        rotate(s, &mut x, &mut y, rx, ry);
        x += s * rx;
        y += s * ry;
        t /= 4;
        s *= 2;
    }
    GridPoint::new(x as u32, y as u32)
}

/// Seed implementation of `HilbertCurve::index` (inverse of
/// [`hilbert_point_scalar`]).
pub fn hilbert_index_scalar(side: u32, p: GridPoint) -> u64 {
    let (mut x, mut y) = (p.x as u64, p.y as u64);
    let mut d = 0u64;
    let mut s = (side as u64) / 2;
    while s > 0 {
        let rx = u64::from((x & s) > 0);
        let ry = u64::from((y & s) > 0);
        d += s * s * ((3 * rx) ^ ry);
        rotate(s, &mut x, &mut y, rx, ry);
        s /= 2;
    }
    d
}

/// One step of the Hilbert quadrant rotation/reflection (the branchy
/// form the optimized lookup tables replace).
#[inline]
fn rotate(s: u64, x: &mut u64, y: &mut u64, rx: u64, ry: u64) {
    if ry == 0 {
        if rx == 1 {
            *x = s.wrapping_sub(1).wrapping_sub(*x);
            *y = s.wrapping_sub(1).wrapping_sub(*y);
        }
        std::mem::swap(x, y);
    }
}

/// Bit-at-a-time Morton decode: the scalar baseline the magic-mask
/// deinterleave is measured against.
pub fn zorder_point_scalar(side: u32, index: u64) -> GridPoint {
    let bits = side.max(1).trailing_zeros();
    let (mut x, mut y) = (0u32, 0u32);
    for b in 0..bits {
        x |= (((index >> (2 * b)) & 1) as u32) << b;
        y |= (((index >> (2 * b + 1)) & 1) as u32) << b;
    }
    GridPoint::new(x, y)
}

/// Bit-at-a-time Morton encode (inverse of [`zorder_point_scalar`]).
pub fn zorder_index_scalar(side: u32, p: GridPoint) -> u64 {
    let bits = side.max(1).trailing_zeros();
    let mut d = 0u64;
    for b in 0..bits {
        d |= (((p.x >> b) & 1) as u64) << (2 * b);
        d |= (((p.y >> b) & 1) as u64) << (2 * b + 1);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_hilbert_roundtrips() {
        for order in 0..=6u32 {
            let side = 1u32 << order;
            for i in 0..(side as u64 * side as u64) {
                let p = hilbert_point_scalar(side, i);
                assert_eq!(hilbert_index_scalar(side, p), i, "order {order} i {i}");
            }
        }
    }

    #[test]
    fn scalar_zorder_matches_figure2() {
        // Fig. 2 layout on the 4×4 grid.
        assert_eq!(zorder_point_scalar(4, 6), GridPoint::new(2, 1));
        assert_eq!(zorder_index_scalar(4, GridPoint::new(2, 1)), 6);
        for i in 0..16 {
            let p = zorder_point_scalar(4, i);
            assert_eq!(zorder_index_scalar(4, p), i);
        }
    }
}
