//! The Z-order (Morton) curve and its diagonal analysis.
//!
//! The Z-order curve visits the four quadrants of the grid recursively in
//! the order upper-left, upper-right, lower-left, lower-right (Fig. 2 of
//! the paper). Unlike the Hilbert curve it is **not** distance-bound:
//! consecutive positions can be `Θ(√n)` apart when the curve jumps across
//! a *diagonal* between two power-of-two-aligned subgrids. Theorem 2
//! nevertheless shows that Z-light-first layouts are energy-bound, by
//! splitting each message's energy into a bounded part `Eb` (Lemma 4: the
//! curve is *aligned*) and a diagonal part `Ed` whose total is `O(n)`
//! because each diagonal can be the longest one only a logarithmic number
//! of times (Lemmas 5–6). This module exposes the machinery needed to
//! measure both parts.

use crate::geom::{manhattan, GridPoint};
use crate::Curve;

/// Z-order (Morton) curve over a `side × side` grid (`side` a power of 2).
#[derive(Debug, Clone)]
pub struct ZOrderCurve {
    side: u32,
}

impl ZOrderCurve {
    /// Creates the Z-order curve for the given side length.
    ///
    /// # Panics
    /// Panics when `side` is zero or not a power of two.
    pub fn new(side: u32) -> Self {
        assert!(side > 0, "Z-order curve needs a positive side");
        assert!(
            side.is_power_of_two(),
            "Z-order curve side must be a power of two, got {side}"
        );
        ZOrderCurve { side }
    }
}

impl Curve for ZOrderCurve {
    fn side(&self) -> u32 {
        self.side
    }

    /// Magic-mask Morton decode (branchless).
    ///
    /// # Panics
    /// Panics when `index ≥ len()` (a real bounds check in release
    /// builds, matching [`crate::HilbertCurve`]).
    fn point(&self, index: u64) -> GridPoint {
        assert!(
            index < self.len(),
            "curve position {index} out of range (len {})",
            self.len()
        );
        GridPoint::new(deinterleave(index), deinterleave(index >> 1))
    }

    /// Magic-mask Morton encode.
    ///
    /// # Panics
    /// Panics when `p` lies outside the grid.
    fn index(&self, p: GridPoint) -> u64 {
        assert!(
            p.x < self.side && p.y < self.side,
            "{p} outside the {0}×{0} grid",
            self.side
        );
        interleave(p.x) | (interleave(p.y) << 1)
    }

    fn point_batch(&self, indices: &[u64], out: &mut [GridPoint]) {
        assert_eq!(indices.len(), out.len(), "batch size mismatch");
        crate::swar::zorder_point_chunk(self.side, indices, out);
    }

    fn index_batch(&self, points: &[GridPoint], out: &mut [u64]) {
        assert_eq!(points.len(), out.len(), "batch size mismatch");
        crate::swar::zorder_index_chunk(self.side, points, out);
    }

    fn point_range_batch(&self, start: u64, out: &mut [GridPoint]) {
        let end = start
            .checked_add(out.len() as u64)
            .expect("curve position range overflows u64");
        assert!(end <= self.len(), "range end {end} out of curve range");
        crate::swar::zorder_point_range_chunk(self.side, start, out);
    }
}

/// Fused encode of both coordinates: one magic-mask pipeline over a
/// single `u64` holding `y` in the high half and `x` in the low half,
/// halving the bit-twiddling work of two separate [`interleave`] calls.
#[inline]
pub(crate) fn interleave_xy(x: u32, y: u32) -> u64 {
    let mut z = ((y as u64) << 32) | x as u64;
    z = (z | (z << 8)) & 0x00FF_00FF_00FF_00FF;
    z = (z | (z << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    z = (z | (z << 2)) & 0x3333_3333_3333_3333;
    z = (z | (z << 1)) & 0x5555_5555_5555_5555;
    (z & 0xFFFF_FFFF) | ((z >> 32) << 1)
}

/// Spreads the 32 bits of `v` into the even bit positions of a `u64`.
#[inline]
pub(crate) fn interleave(v: u32) -> u64 {
    let mut x = v as u64;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Extracts the even bit positions of `v` into a compact `u32`.
#[inline]
pub(crate) fn deinterleave(v: u64) -> u32 {
    let mut x = v & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    x as u32
}

/// The Manhattan distance of the curve step `t → t+1`.
///
/// A step with distance `> 1` is a *diagonal* in the sense of Fig. 2.
pub fn step_distance(curve: &ZOrderCurve, t: u64) -> u64 {
    manhattan(curve.point(t), curve.point(t + 1))
}

/// `Ed(i, j)`: the Manhattan distance of the longest diagonal crossed when
/// walking the curve from position `i` to position `j` (Lemma 3, Fig. 2).
///
/// Returns 0 when `i == j`. The longest diagonal sits at the highest
/// power-of-two boundary inside `(min, max]`, which this computes in O(1)
/// curve evaluations.
pub fn longest_diagonal(curve: &ZOrderCurve, i: u64, j: u64) -> u64 {
    if i == j {
        return 0;
    }
    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
    // The curve step with the most trailing ones in [lo, hi) is the one
    // just below the highest multiple of a power of two in (lo, hi].
    let h = 63 - (lo ^ hi).leading_zeros();
    let boundary = (hi >> h) << h;
    debug_assert!(boundary > lo && boundary <= hi);
    step_distance(curve, boundary - 1)
}

/// A diagonal of the Z-order curve: the step `at → at+1` together with its
/// Manhattan distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Diagonal {
    /// The curve position whose successor step is the diagonal.
    pub at: u64,
    /// Manhattan distance of the step.
    pub distance: u64,
}

/// Enumerates all diagonals (steps of Manhattan distance `> 1`) in the
/// half-open position range `[from, to)`.
pub fn diagonals_in_range(curve: &ZOrderCurve, from: u64, to: u64) -> Vec<Diagonal> {
    let to = to.min(curve.len().saturating_sub(1));
    (from..to)
        .filter_map(|t| {
            let d = step_distance(curve, t);
            (d > 1).then_some(Diagonal { at: t, distance: d })
        })
        .collect()
}

/// Splits the energy of a message from curve position `i` to `j` into the
/// Lemma 3 decomposition `E(i,j) ≤ Eb(i,j) + Ed(i,j)`:
///
/// - `bounded`: the aligned-curve estimate `8·√|j−i|` of Lemma 4, capped
///   at the true distance;
/// - `diagonal`: the longest-diagonal term [`longest_diagonal`].
///
/// The actual Manhattan distance is also returned so that experiments can
/// check `actual ≤ bounded + diagonal`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergySplit {
    /// True Manhattan distance between the positions.
    pub actual: u64,
    /// Aligned-curve bound `Eb` (Lemma 4): `8·√|j−i|`, rounded up.
    pub bounded: u64,
    /// Longest-diagonal term `Ed` (Fig. 2).
    pub diagonal: u64,
}

/// Computes the [`EnergySplit`] for a message between positions `i`, `j`.
pub fn energy_split(curve: &ZOrderCurve, i: u64, j: u64) -> EnergySplit {
    let actual = manhattan(curve.point(i), curve.point(j));
    let gap = i.abs_diff(j);
    let bounded = (8.0 * (gap as f64).sqrt()).ceil() as u64;
    let diagonal = longest_diagonal(curve, i, j);
    EnergySplit {
        actual,
        bounded,
        diagonal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::BoundingBox;
    use proptest::prelude::*;

    #[test]
    fn fused_interleave_matches_pairwise() {
        for x in [0u32, 1, 2, 255, 256, 65_534, 65_535] {
            for y in [0u32, 1, 3, 129, 4096, 65_535] {
                assert_eq!(
                    interleave_xy(x, y),
                    interleave(x) | (interleave(y) << 1),
                    "({x}, {y})"
                );
            }
        }
    }

    #[test]
    fn matches_bitloop_reference() {
        let c = ZOrderCurve::new(64);
        for i in 0..c.len() {
            let p = crate::reference::zorder_point_scalar(64, i);
            assert_eq!(c.point(i), p);
            assert_eq!(crate::reference::zorder_index_scalar(64, p), i);
            assert_eq!(c.index(p), i);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn point_bounds_checked_in_release() {
        let _ = ZOrderCurve::new(4).point(16);
    }

    #[test]
    fn figure2_grid_layout() {
        // Fig. 2 of the paper: 16 elements stored in Z-order.
        //   0  1 | 4  5
        //   2  3 | 6  7
        //   8  9 | 12 13
        //  10 11 | 14 15
        let c = ZOrderCurve::new(4);
        let expect = [
            (0, 0, 0),
            (1, 1, 0),
            (2, 0, 1),
            (3, 1, 1),
            (4, 2, 0),
            (5, 3, 0),
            (6, 2, 1),
            (7, 3, 1),
            (8, 0, 2),
            (9, 1, 2),
            (10, 0, 3),
            (11, 1, 3),
            (12, 2, 2),
            (13, 3, 2),
            (14, 2, 3),
            (15, 3, 3),
        ];
        for (i, x, y) in expect {
            assert_eq!(c.point(i), GridPoint::new(x, y), "index {i}");
            assert_eq!(c.index(GridPoint::new(x, y)), i);
        }
    }

    #[test]
    fn figure2_longest_diagonal_example() {
        // "Given i = 6 and j = 10 ... Ed(6, 10) = 4."
        let c = ZOrderCurve::new(4);
        assert_eq!(longest_diagonal(&c, 6, 10), 4);
        assert_eq!(longest_diagonal(&c, 10, 6), 4, "symmetric");
    }

    #[test]
    fn longest_diagonal_degenerate() {
        let c = ZOrderCurve::new(8);
        assert_eq!(longest_diagonal(&c, 5, 5), 0);
        // Adjacent cells within a 2x2 block: longest "diagonal" is the
        // unit step itself.
        assert_eq!(longest_diagonal(&c, 0, 1), 1);
    }

    #[test]
    fn longest_diagonal_matches_bruteforce() {
        let c = ZOrderCurve::new(16);
        for i in (0..255).step_by(7) {
            for j in (i + 1..256).step_by(13) {
                let brute = (i..j).map(|t| step_distance(&c, t)).max().unwrap();
                assert_eq!(longest_diagonal(&c, i, j), brute, "mismatch for ({i}, {j})");
            }
        }
    }

    #[test]
    fn bijective_roundtrip() {
        for side in [1u32, 2, 4, 8, 32] {
            let c = ZOrderCurve::new(side);
            let mut seen = vec![false; c.len() as usize];
            for i in 0..c.len() {
                let p = c.point(i);
                assert_eq!(c.index(p), i);
                let cell = (p.y * side + p.x) as usize;
                assert!(!seen[cell]);
                seen[cell] = true;
            }
        }
    }

    #[test]
    fn aligned_windows_stay_compact() {
        // Every 4^k consecutive *aligned* elements occupy exactly a
        // 2^k × 2^k subgrid.
        let c = ZOrderCurve::new(16);
        for k in 0..=2u32 {
            let window = 4u64.pow(k);
            for start in (0..c.len()).step_by(window as usize) {
                let bb =
                    BoundingBox::of_points((start..start + window).map(|i| c.point(i))).unwrap();
                assert_eq!(bb.max_side(), 1 << k, "window at {start}");
            }
        }
    }

    #[test]
    fn not_distance_bound() {
        // The jump across the middle of the grid has Manhattan distance
        // Θ(side) even though the index gap is 1.
        let side = 64u32;
        let c = ZOrderCurve::new(side);
        let mid = c.len() / 2;
        let d = manhattan(c.point(mid - 1), c.point(mid));
        assert!(d as u32 >= side, "midline jump {d} should be ≥ {side}");
    }

    #[test]
    fn diagonal_enumeration_counts() {
        let c = ZOrderCurve::new(4);
        let all = diagonals_in_range(&c, 0, 16);
        // Steps 1→2, 3→4, 5→6, ..: every odd t is a diagonal of ≥ 2.
        assert!(all.iter().all(|d| d.distance >= 2));
        assert!(all.iter().all(|d| d.at % 2 == 1));
        // The worst diagonal is at t = 7 (crossing to the lower half).
        let worst = all.iter().max_by_key(|d| d.distance).unwrap();
        assert_eq!(worst.at, 7);
        assert_eq!(worst.distance, 4);
    }

    #[test]
    fn energy_split_upper_bounds_actual() {
        let c = ZOrderCurve::new(32);
        for i in (0..c.len()).step_by(17) {
            for j in (0..c.len()).step_by(23) {
                let s = energy_split(&c, i, j);
                assert!(
                    s.actual <= s.bounded + s.diagonal,
                    "Lemma 3 violated for ({i}, {j}): {s:?}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(side_log in 0u32..8, raw in 0u64..u64::MAX) {
            let c = ZOrderCurve::new(1 << side_log);
            let idx = raw % c.len();
            prop_assert_eq!(c.index(c.point(idx)), idx);
        }

        #[test]
        fn prop_lemma3_split(i in 0u64..1024, j in 0u64..1024) {
            let c = ZOrderCurve::new(32);
            let s = energy_split(&c, i, j);
            prop_assert!(s.actual <= s.bounded + s.diagonal);
        }
    }
}
