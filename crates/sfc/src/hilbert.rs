//! The Hilbert curve.
//!
//! The Hilbert curve of order `k` covers a `2^k × 2^k` grid so that
//! consecutive curve positions are always grid-adjacent. It is
//! *distance-bound* with constant `α = 3` (Niedermeier & Sanders): sending
//! a message from the `i`-th to the `(i+j)`-th processor costs at most
//! `3·√j + o(√j)` energy. It is also *aligned* in the sense of Lemma 4:
//! any `4^k` consecutive positions fit inside a `2·2^k × 2·2^k` box.
//!
//! # Implementation
//!
//! `point`/`index` are the inner loop of every energy charge in the
//! simulator, so they run a **branchless lookup-table state machine**
//! built at compile time: the curve orientation inside a quadrant is
//! one of four dihedral transforms, and the `(state, digits) → (cell
//! bits, next state)` tables come in one-, two-, four-, and five-level
//! granularities. Orders divisible by five walk [`POINT5`]/[`INDEX5`]
//! (ten index bits per dependent lookup — order 10, the `1024×1024`
//! benchmark grid, finishes in two); all other orders peel the
//! `order mod 4` head levels with [`POINT1`]/[`POINT2`] and then
//! consume eight index bits per [`POINT4`] step. The seed's branchy
//! rotate-and-swap loop is retained as
//! [`crate::reference::hilbert_point_scalar`] for benchmarking and
//! differential tests; both produce the identical classic curve
//! (position 0 at the origin, order-1 cells `(0,0) (0,1) (1,1) (1,0)`).

use crate::geom::GridPoint;
use crate::Curve;

/// A dihedral transform on a square, packed as bitflags:
/// bit 0 = transpose, bit 1 = negate x, bit 2 = negate y
/// (transpose applies first). Only four of the eight elements are
/// reachable from the Hilbert recursion.
type Transform = u8;

const IDENTITY: Transform = 0b000;
const TRANSPOSE: Transform = 0b001;
const ANTITRANSPOSE: Transform = 0b111;
const ROTATE180: Transform = 0b110;

/// The reachable states, indexed by the 2-bit state id used in the
/// tables.
const STATES: [Transform; 4] = [IDENTITY, TRANSPOSE, ANTITRANSPOSE, ROTATE180];

/// `compose(a, b)(p) = a(b(p))`.
const fn compose(a: Transform, b: Transform) -> Transform {
    let swap = (a ^ b) & 1;
    let (bx, by) = ((b >> 1) & 1, (b >> 2) & 1);
    // When `a` transposes, b's axis negations swap roles.
    let (bx, by) = if a & 1 == 1 { (by, bx) } else { (bx, by) };
    let nx = ((a >> 1) & 1) ^ bx;
    let ny = ((a >> 2) & 1) ^ by;
    swap | (nx << 1) | (ny << 2)
}

/// Applies a transform to a cell of the 2×2 grid (packed `x << 1 | y`).
const fn apply2(t: Transform, cell: u8) -> u8 {
    let (mut x, mut y) = ((cell >> 1) & 1, cell & 1);
    if t & 1 == 1 {
        let tmp = x;
        x = y;
        y = tmp;
    }
    x ^= (t >> 1) & 1;
    y ^= (t >> 2) & 1;
    (x << 1) | y
}

/// State id of a transform within [`STATES`].
const fn state_id(t: Transform) -> u8 {
    let mut i = 0;
    while i < 4 {
        if STATES[i] == t {
            return i as u8;
        }
        i += 1;
    }
    panic!("unreachable Hilbert state");
}

/// Base order-1 curve: quadrant digit → cell (`x << 1 | y`).
/// Cells (0,0), (0,1), (1,1), (1,0) — the classic U opening right.
const BASE_CELL: [u8; 4] = [0b00, 0b01, 0b11, 0b10];

/// Sub-curve orientation per quadrant digit of the base curve.
const BASE_CHILD: [Transform; 4] = [TRANSPOSE, IDENTITY, IDENTITY, ANTITRANSPOSE];

/// One-level point table: `POINT1[state][quadrant digit]` packs
/// `cell (2 bits) | next_state << 2`.
pub(crate) const POINT1: [[u8; 4]; 4] = {
    let mut table = [[0u8; 4]; 4];
    let mut s = 0;
    while s < 4 {
        let mut q = 0;
        while q < 4 {
            let cell = apply2(STATES[s], BASE_CELL[q]);
            let next = state_id(compose(STATES[s], BASE_CHILD[q]));
            table[s][q] = cell | (next << 2);
            q += 1;
        }
        s += 1;
    }
    table
};

/// One-level index table: `INDEX1[state][cell]` packs
/// `quadrant digit (2 bits) | next_state << 2`.
pub(crate) const INDEX1: [[u8; 4]; 4] = {
    let mut table = [[0u8; 4]; 4];
    let mut s = 0;
    while s < 4 {
        let mut q = 0;
        while q < 4 {
            let packed = POINT1[s][q];
            let (cell, next) = (packed & 3, packed >> 2);
            table[s][cell as usize] = (q as u8) | (next << 2);
            q += 1;
        }
        s += 1;
    }
    table
};

/// Two-level point table: `POINT2[state][4 index bits]` packs
/// `x bits (2) | y bits << 2 | next_state << 4`.
pub(crate) const POINT2: [[u8; 16]; 4] = {
    let mut table = [[0u8; 16]; 4];
    let mut s = 0;
    while s < 4 {
        let mut q = 0;
        while q < 16 {
            let hi = POINT1[s][q >> 2];
            let mid = hi >> 2;
            let lo = POINT1[mid as usize][q & 3];
            let x = ((hi >> 1) & 1) << 1 | ((lo >> 1) & 1);
            let y = (hi & 1) << 1 | (lo & 1);
            table[s][q] = x | (y << 2) | ((lo >> 2) << 4);
            q += 1;
        }
        s += 1;
    }
    table
};

/// Two-level index table: `INDEX2[state][x bits (2) | y bits << 2]`
/// packs `4 index bits | next_state << 4`.
pub(crate) const INDEX2: [[u8; 16]; 4] = {
    let mut table = [[0u8; 16]; 4];
    let mut s = 0;
    while s < 4 {
        let mut cell = 0;
        while cell < 16 {
            let packed = POINT2[s][cell];
            let xy = packed & 0b1111;
            table[s][xy as usize] = (cell as u8) | ((packed >> 4) << 4);
            cell += 1;
        }
        s += 1;
    }
    table
};

/// Four-level point table (the hot-loop workhorse):
/// `POINT4[state][8 index bits]` packs
/// `x bits (4) | y bits << 4 | next_state << 8` in a `u16`.
/// 4 × 256 × 2 B = 2 KiB — comfortably L1-resident.
pub(crate) const POINT4: [[u16; 256]; 4] = {
    let mut table = [[0u16; 256]; 4];
    let mut s = 0;
    while s < 4 {
        let mut q = 0;
        while q < 256 {
            let hi = POINT2[s][q >> 4];
            let mid = (hi >> 4) as usize;
            let lo = POINT2[mid][q & 15];
            let x = ((hi & 3) << 2 | (lo & 3)) as u16;
            let y = (((hi >> 2) & 3) << 2 | ((lo >> 2) & 3)) as u16;
            table[s][q] = x | (y << 4) | (((lo >> 4) as u16) << 8);
            q += 1;
        }
        s += 1;
    }
    table
};

/// Four-level index table: `INDEX4[state][x bits (4) | y bits << 4]`
/// packs `8 index bits | next_state << 8` in a `u16`.
pub(crate) const INDEX4: [[u16; 256]; 4] = {
    let mut table = [[0u16; 256]; 4];
    let mut s = 0;
    while s < 4 {
        let mut q = 0;
        while q < 256 {
            let packed = POINT4[s][q];
            let xy = (packed & 0xFF) as usize;
            table[s][xy] = (q as u16) | ((packed >> 8) << 8);
            q += 1;
        }
        s += 1;
    }
    table
};

/// Five-level point table for orders divisible by five (order 10 — the
/// `1024×1024` acceptance grid — walks in exactly **two** dependent
/// lookups): `POINT5[state][10 index bits]` packs
/// `x bits (5) | y bits << 5 | next_state << 10` in a `u16`.
/// 4 × 1024 × 2 B = 8 KiB.
pub(crate) const POINT5: [[u16; 1024]; 4] = {
    let mut table = [[0u16; 1024]; 4];
    let mut s = 0;
    while s < 4 {
        let mut q = 0;
        while q < 1024 {
            let hi = POINT1[s][q >> 8];
            let mid = (hi >> 2) as usize;
            let lo = POINT4[mid][q & 255];
            let x = ((((hi >> 1) & 1) as u16) << 4) | (lo & 15);
            let y = (((hi & 1) as u16) << 4) | ((lo >> 4) & 15);
            table[s][q] = x | (y << 5) | ((lo >> 8) << 10);
            q += 1;
        }
        s += 1;
    }
    table
};

/// Five-level index table: `INDEX5[state][x bits (5) | y bits << 5]`
/// packs `10 index bits | next_state << 10` in a `u16`.
pub(crate) const INDEX5: [[u16; 1024]; 4] = {
    let mut table = [[0u16; 1024]; 4];
    let mut s = 0;
    while s < 4 {
        let mut q = 0;
        while q < 1024 {
            let packed = POINT5[s][q];
            let xy = (packed & 0x3FF) as usize;
            table[s][xy] = (q as u16) | ((packed >> 10) << 10);
            q += 1;
        }
        s += 1;
    }
    table
};

/// Hilbert curve over a `side × side` grid (`side` a power of two).
#[derive(Debug, Clone)]
pub struct HilbertCurve {
    side: u32,
    order: u32,
}

impl HilbertCurve {
    /// Creates the Hilbert curve for a grid with the given side length.
    ///
    /// # Panics
    /// Panics when `side` is zero or not a power of two.
    pub fn new(side: u32) -> Self {
        assert!(side > 0, "Hilbert curve needs a positive side");
        assert!(
            side.is_power_of_two(),
            "Hilbert curve side must be a power of two, got {side}"
        );
        HilbertCurve {
            side,
            order: side.trailing_zeros(),
        }
    }

    /// Curve order `k` (the grid is `2^k × 2^k`).
    pub fn order(&self) -> u32 {
        self.order
    }

    /// LUT walk without the bounds check; `index` must be `< len()`.
    ///
    /// The index is pre-shifted so each step reads its digits from the
    /// top bits (no per-step level arithmetic): the `order mod 4` head
    /// levels peel off with the small tables, then each counted-loop
    /// iteration consumes eight index bits through [`POINT4`].
    #[inline]
    pub(crate) fn point_unchecked(&self, index: u64) -> GridPoint {
        let order = self.order;
        if order == 0 {
            return GridPoint::new(0, 0);
        }
        let mut t = index << (64 - 2 * order);
        let mut state = 0usize;
        let (mut x, mut y) = (0u32, 0u32);
        if order.is_multiple_of(5) {
            // Shortest dependent-load chain: ten index bits per step.
            for _ in 0..order / 5 {
                let packed = POINT5[state][(t >> 54) as usize];
                t <<= 10;
                x = (x << 5) | (packed & 31) as u32;
                y = (y << 5) | ((packed >> 5) & 31) as u32;
                state = ((packed >> 10) & 3) as usize;
            }
            return GridPoint::new(x, y);
        }
        if order & 1 == 1 {
            let packed = POINT1[0][(t >> 62) as usize];
            t <<= 2;
            x = ((packed >> 1) & 1) as u32;
            y = (packed & 1) as u32;
            state = ((packed >> 2) & 3) as usize;
        }
        if order & 2 == 2 {
            let packed = POINT2[state][(t >> 60) as usize];
            t <<= 4;
            x = (x << 2) | (packed & 3) as u32;
            y = (y << 2) | ((packed >> 2) & 3) as u32;
            state = ((packed >> 4) & 3) as usize;
        }
        for _ in 0..order / 4 {
            let packed = POINT4[state][(t >> 56) as usize];
            t <<= 8;
            x = (x << 4) | (packed & 15) as u32;
            y = (y << 4) | ((packed >> 4) & 15) as u32;
            state = ((packed >> 8) & 3) as usize;
        }
        GridPoint::new(x, y)
    }

    /// LUT walk without the bounds check; `p` must be inside the grid.
    #[inline]
    pub(crate) fn index_unchecked(&self, p: GridPoint) -> u64 {
        let order = self.order;
        if order == 0 {
            return 0;
        }
        let mut xs = p.x << (32 - order);
        let mut ys = p.y << (32 - order);
        let mut state = 0usize;
        let mut d = 0u64;
        if order.is_multiple_of(5) {
            for _ in 0..order / 5 {
                let cell = (xs >> 27) | ((ys >> 27) << 5);
                xs <<= 5;
                ys <<= 5;
                let packed = INDEX5[state][cell as usize];
                d = (d << 10) | (packed & 0x3FF) as u64;
                state = ((packed >> 10) & 3) as usize;
            }
            return d;
        }
        if order & 1 == 1 {
            let cell = ((xs >> 31) << 1) | (ys >> 31);
            xs <<= 1;
            ys <<= 1;
            let packed = INDEX1[0][cell as usize];
            d = (packed & 3) as u64;
            state = ((packed >> 2) & 3) as usize;
        }
        if order & 2 == 2 {
            let cell = (xs >> 30) | ((ys >> 30) << 2);
            xs <<= 2;
            ys <<= 2;
            let packed = INDEX2[state][cell as usize];
            d = (d << 4) | (packed & 15) as u64;
            state = ((packed >> 4) & 3) as usize;
        }
        for _ in 0..order / 4 {
            let cell = (xs >> 28) | ((ys >> 28) << 4);
            xs <<= 4;
            ys <<= 4;
            let packed = INDEX4[state][cell as usize];
            d = (d << 8) | (packed & 255) as u64;
            state = ((packed >> 8) & 3) as usize;
        }
        d
    }
}

impl Curve for HilbertCurve {
    fn side(&self) -> u32 {
        self.side
    }

    /// Maps a curve position to its grid coordinate.
    ///
    /// # Panics
    /// Panics when `index ≥ len()` — a real bounds check even in
    /// release builds, since a silently wrapped position would charge
    /// energy for a processor that does not exist.
    fn point(&self, index: u64) -> GridPoint {
        // One shift+compare: index < 4^order ⟺ no bits at 2·order and up.
        assert!(
            index >> (2 * self.order) == 0,
            "curve position {index} out of range (len {})",
            self.len()
        );
        self.point_unchecked(index)
    }

    /// Maps a grid coordinate back to its curve position.
    ///
    /// # Panics
    /// Panics when `p` lies outside the grid.
    fn index(&self, p: GridPoint) -> u64 {
        // One or: both coordinates inside ⟺ their union is.
        assert!(
            (p.x | p.y) < self.side,
            "{p} outside the {0}×{0} grid",
            self.side
        );
        self.index_unchecked(p)
    }

    fn point_batch(&self, indices: &[u64], out: &mut [GridPoint]) {
        assert_eq!(indices.len(), out.len(), "batch size mismatch");
        crate::swar::hilbert_point_chunk(self.side, indices, out);
    }

    fn index_batch(&self, points: &[GridPoint], out: &mut [u64]) {
        assert_eq!(points.len(), out.len(), "batch size mismatch");
        crate::swar::hilbert_index_chunk(self.side, points, out);
    }

    fn point_range_batch(&self, start: u64, out: &mut [GridPoint]) {
        let end = start
            .checked_add(out.len() as u64)
            .expect("curve position range overflows u64");
        assert!(end <= self.len(), "range end {end} out of curve range");
        crate::swar::hilbert_point_range_chunk(self.side, start, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{manhattan, BoundingBox};
    use crate::reference;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = HilbertCurve::new(3);
    }

    #[test]
    #[should_panic(expected = "positive side")]
    fn rejects_zero_side() {
        let _ = HilbertCurve::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn point_bounds_checked_in_release() {
        let c = HilbertCurve::new(4);
        let _ = c.point(16);
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn index_bounds_checked_in_release() {
        let c = HilbertCurve::new(4);
        let _ = c.index(GridPoint::new(4, 0));
    }

    #[test]
    fn tables_are_consistent() {
        // Every state/digit round-trips through the paired tables.
        for s in 0..4usize {
            for (q, &packed) in POINT1[s].iter().enumerate() {
                let cell = (packed & 3) as usize;
                assert_eq!((INDEX1[s][cell] & 3) as usize, q);
                assert_eq!(INDEX1[s][cell] >> 2, packed >> 2);
            }
            for (q, &packed) in POINT2[s].iter().enumerate() {
                let cell = (packed & 15) as usize;
                assert_eq!((INDEX2[s][cell] & 15) as usize, q);
                assert_eq!(INDEX2[s][cell] >> 4, packed >> 4);
            }
            for (q, &packed) in POINT4[s].iter().enumerate() {
                let cell = (packed & 255) as usize;
                assert_eq!((INDEX4[s][cell] & 255) as usize, q);
                assert_eq!(INDEX4[s][cell] >> 8, packed >> 8);
            }
            for (q, &packed) in POINT5[s].iter().enumerate() {
                let cell = (packed & 0x3FF) as usize;
                assert_eq!((INDEX5[s][cell] & 0x3FF) as usize, q);
                assert_eq!(INDEX5[s][cell] >> 10, packed >> 10);
            }
        }
    }

    #[test]
    fn lut_matches_scalar_reference_exhaustively() {
        // The optimized state machine must reproduce the seed scalar
        // curve bit for bit, on both even and odd orders.
        for order in 0..=6u32 {
            let side = 1u32 << order;
            let c = HilbertCurve::new(side);
            for i in 0..c.len() {
                let expect = reference::hilbert_point_scalar(side, i);
                assert_eq!(c.point(i), expect, "order {order} point({i})");
                assert_eq!(
                    c.index(expect),
                    reference::hilbert_index_scalar(side, expect),
                    "order {order} index({expect})"
                );
            }
        }
    }

    #[test]
    fn order_of_first_cells_is_consistent() {
        // Whatever the orientation convention, position 0 must be a corner
        // and the first four positions must cover one 2x2 quadrant.
        let c = HilbertCurve::new(4);
        let p0 = c.point(0);
        assert!(
            (p0.x == 0 || p0.x == 3) && (p0.y == 0 || p0.y == 3),
            "start must be a corner, got {p0}"
        );
        let bb = BoundingBox::of_points((0..4).map(|i| c.point(i))).unwrap();
        assert_eq!(bb.max_side(), 2);
    }

    #[test]
    fn consecutive_positions_are_adjacent() {
        for order in 0..=5 {
            let c = HilbertCurve::new(1 << order);
            for i in 1..c.len() {
                let a = c.point(i - 1);
                let b = c.point(i);
                assert!(
                    a.is_adjacent(b),
                    "order {order}: positions {} and {i} not adjacent: {a} vs {b}",
                    i - 1
                );
            }
        }
    }

    #[test]
    fn bijective_roundtrip_small_orders() {
        for order in 0..=5 {
            let c = HilbertCurve::new(1 << order);
            let mut seen = vec![false; c.len() as usize];
            for i in 0..c.len() {
                let p = c.point(i);
                assert!(p.x < c.side() && p.y < c.side());
                assert_eq!(c.index(p), i, "roundtrip failed at {i}");
                let cell = (p.y * c.side() + p.x) as usize;
                assert!(!seen[cell], "cell {p} visited twice");
                seen[cell] = true;
            }
            assert!(seen.iter().all(|&v| v));
        }
    }

    #[test]
    fn alignment_property_lemma4() {
        // Any 4^k consecutive (not necessarily aligned) elements fit in a
        // 2·2^k × 2·2^k box.
        let c = HilbertCurve::new(32);
        for k in 0..=3u32 {
            let window = 4u64.pow(k);
            let limit = 2 * (1u64 << k);
            for start in (0..c.len() - window).step_by(37) {
                let bb =
                    BoundingBox::of_points((start..start + window).map(|i| c.point(i))).unwrap();
                assert!(
                    (bb.max_side() as u64) <= limit,
                    "window [{start}, {}) spans {} > {limit}",
                    start + window,
                    bb.max_side()
                );
            }
        }
    }

    #[test]
    fn distance_bound_alpha_three() {
        // dist(i, i+j) ≤ 3√j + small slack on a 64x64 grid.
        let c = HilbertCurve::new(64);
        let n = c.len();
        for i in (0..n).step_by(11) {
            for shift in 0..12 {
                let j = 1u64 << shift;
                if i + j >= n {
                    break;
                }
                let d = manhattan(c.point(i), c.point(i + j)) as f64;
                let bound = 3.0 * (j as f64).sqrt() + 2.0;
                assert!(
                    d <= bound,
                    "dist({i}, {}) = {d} exceeds 3√{j} + 2 = {bound}",
                    i + j
                );
            }
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(order in 1u32..7, idx in 0u64..4096) {
            let c = HilbertCurve::new(1 << order);
            let idx = idx % c.len();
            prop_assert_eq!(c.index(c.point(idx)), idx);
        }

        #[test]
        fn prop_adjacent_steps(order in 1u32..7, idx in 0u64..4095) {
            let c = HilbertCurve::new(1 << order);
            let idx = idx % (c.len() - 1);
            prop_assert_eq!(manhattan(c.point(idx), c.point(idx + 1)), 1);
        }

        #[test]
        fn prop_matches_reference(order in 1u32..11, idx in 0u64..u64::MAX) {
            let side = 1u32 << order;
            let c = HilbertCurve::new(side);
            let idx = idx % c.len();
            let p = reference::hilbert_point_scalar(side, idx);
            prop_assert_eq!(c.point(idx), p);
            prop_assert_eq!(c.index(p), idx);
        }
    }
}
