//! Space-filling curves and grid geometry for the spatial computer model.
//!
//! The spatial computer model places processors on a `√n × √n` grid and
//! charges a message from `(i, j)` to `(x, y)` an *energy* equal to the
//! Manhattan distance `|x−i| + |y−j|`. Tree layouts in this workspace map a
//! linear vertex order onto the grid with a space-filling curve; the
//! locality of that curve (its *distance-bound* constant, §III-B of the
//! paper) determines the constant factors of every energy bound.
//!
//! This crate provides:
//!
//! - [`GridPoint`] and [`manhattan`]: the grid geometry shared by the whole
//!   workspace.
//! - [`Curve`]: the interface `index ↔ coordinate` for discrete
//!   space-filling curves on a square grid.
//! - Curve implementations: [`hilbert::HilbertCurve`] (distance-bound,
//!   `α = 3`), [`zorder::ZOrderCurve`] (*not* distance-bound but still
//!   energy-bound for light-first layouts, Theorem 2),
//!   [`peano::PeanoCurve`] (distance-bound, `α = √(10⅔)`), and the
//!   negative controls [`simple::RowMajorCurve`] /
//!   [`simple::SerpentineCurve`].
//! - [`locality`]: empirical measurement of distance-bound constants and
//!   the alignment property (Lemma 4).
//! - [`zorder`] diagonal analysis: the `Ed` term of Lemma 3 and the
//!   longest-diagonal counting of Lemmas 5–6 (Fig. 2).
//! - [`swar`]: the SWAR batch kernels behind `point_batch`/`index_batch`
//!   (state-lane-packed Hilbert walks, pair-packed Morton decode). A
//!   batch runs on the calling thread: no kernel here forks.

pub mod geom;
pub mod hilbert;
pub mod locality;
pub mod moore;
pub mod peano;
#[doc(hidden)]
pub mod reference;
pub mod simple;
#[doc(hidden)]
pub mod swar;
pub mod zorder;

pub use geom::{manhattan, GridPoint};
pub use hilbert::HilbertCurve;
pub use moore::MooreCurve;
pub use peano::PeanoCurve;
pub use simple::{RowMajorCurve, SerpentineCurve};
pub use zorder::ZOrderCurve;

/// A discrete space-filling curve over a `side × side` grid.
///
/// A curve is a bijection between `0..side²` ("curve positions") and grid
/// coordinates. The *i-th processor* of the paper is the processor at
/// [`Curve::point`]`(i)`.
pub trait Curve {
    /// Side length of the square grid this curve instance covers.
    fn side(&self) -> u32;

    /// Number of grid cells covered (`side²`).
    fn len(&self) -> u64 {
        (self.side() as u64) * (self.side() as u64)
    }

    /// Returns `true` when the curve covers no cells (side 0).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maps a curve position `index < len()` to its grid coordinate.
    fn point(&self, index: u64) -> GridPoint;

    /// Maps a grid coordinate back to its curve position (inverse of
    /// [`Curve::point`]).
    fn index(&self, p: GridPoint) -> u64;

    /// Manhattan distance between the `i`-th and `j`-th positions: the
    /// energy of one message between them in the spatial computer model.
    fn dist(&self, i: u64, j: u64) -> u64 {
        manhattan(self.point(i), self.point(j))
    }

    /// Batch [`Curve::point`]: fills `out[k] = point(indices[k])`.
    ///
    /// The default maps the scalar transform; the hot curves (Hilbert,
    /// Z-order, and [`AnyCurve`]) override it with branchless SWAR
    /// inner loops.
    fn point_batch(&self, indices: &[u64], out: &mut [GridPoint]) {
        assert_eq!(indices.len(), out.len(), "batch size mismatch");
        for (o, &i) in out.iter_mut().zip(indices) {
            *o = self.point(i);
        }
    }

    /// Batch [`Curve::index`]: fills `out[k] = index(points[k])`.
    fn index_batch(&self, points: &[GridPoint], out: &mut [u64]) {
        assert_eq!(points.len(), out.len(), "batch size mismatch");
        for (o, &p) in out.iter_mut().zip(points) {
            *o = self.index(p);
        }
    }

    /// Batch [`Curve::point`] over the contiguous position range
    /// `start..start + out.len()` — the layout/machine construction
    /// pattern, with no index buffer to materialize.
    fn point_range_batch(&self, start: u64, out: &mut [GridPoint]) {
        let end = start
            .checked_add(out.len() as u64)
            .expect("curve position range overflows u64");
        assert!(end <= self.len(), "range end {end} out of curve range");
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.point(start + k as u64);
        }
    }

    /// Convenience [`Curve::point_range_batch`] allocating the output:
    /// the grid coordinates of every position in `0..len()`.
    fn all_points(&self) -> Vec<GridPoint> {
        let mut out = vec![GridPoint::default(); self.len() as usize];
        self.point_range_batch(0, &mut out);
        out
    }
}

/// The space-filling curves shipped with this crate.
///
/// `Hilbert`, `Peano` are distance-bound (Theorem 1 applies directly);
/// `ZOrder` is energy-bound despite not being distance-bound (Theorem 2);
/// `RowMajor` and `Serpentine` are *not* energy-bound and serve as
/// negative controls in the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CurveKind {
    /// Hilbert curve; distance-bound with `α = 3`.
    Hilbert,
    /// Moore curve (closed Hilbert, the H-index family); distance-bound
    /// with `α ≤ 3` (the canonical H-index orientation achieves `2√2`).
    Moore,
    /// Z-order (Morton) curve; aligned but not distance-bound.
    ZOrder,
    /// Peano curve (base 3); distance-bound with `α = √(10 + 2/3)`.
    Peano,
    /// Plain row-major order; pathological locality (negative control).
    RowMajor,
    /// Boustrophedon row order; adjacent steps but not distance-bound.
    Serpentine,
}

impl CurveKind {
    /// All curve kinds, in a stable order (useful for experiment sweeps).
    pub const ALL: [CurveKind; 6] = [
        CurveKind::Hilbert,
        CurveKind::Moore,
        CurveKind::ZOrder,
        CurveKind::Peano,
        CurveKind::RowMajor,
        CurveKind::Serpentine,
    ];

    /// The curve kinds that satisfy the distance-bound property of §III-B.
    pub const DISTANCE_BOUND: [CurveKind; 3] =
        [CurveKind::Hilbert, CurveKind::Moore, CurveKind::Peano];

    /// The curve kinds that are *energy-bound* for light-first layouts
    /// (Theorems 1–2): the three distance-bound curves plus Z-order.
    /// E1-style experiment tables and the `bench-json-layout` scenario
    /// sweep cover exactly these four.
    pub const ENERGY_BOUND: [CurveKind; 4] = [
        CurveKind::Hilbert,
        CurveKind::Moore,
        CurveKind::ZOrder,
        CurveKind::Peano,
    ];

    /// Human-readable name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            CurveKind::Hilbert => "hilbert",
            CurveKind::Moore => "moore",
            CurveKind::ZOrder => "zorder",
            CurveKind::Peano => "peano",
            CurveKind::RowMajor => "rowmajor",
            CurveKind::Serpentine => "serpentine",
        }
    }

    /// Whether the curve satisfies the distance-bound property
    /// (`dist(i, i+j) ∈ O(√j)`).
    pub fn is_distance_bound(self) -> bool {
        matches!(
            self,
            CurveKind::Hilbert | CurveKind::Moore | CurveKind::Peano
        )
    }

    /// Proven distance-bound constant `α` where known
    /// (`dist(i, i+j) ≤ α·√j + o(√j)`); `None` for unbounded curves.
    pub fn alpha(self) -> Option<f64> {
        match self {
            CurveKind::Hilbert => Some(3.0),
            // Conservative: each quadrant is a Hilbert curve; the
            // canonical H-index orientation is proven at 2√2.
            CurveKind::Moore => Some(3.0),
            CurveKind::Peano => Some((10.0 + 2.0 / 3.0f64).sqrt()),
            _ => None,
        }
    }

    /// Smallest legal side length with `side² ≥ capacity` for this curve
    /// family (power of two for Hilbert/Z-order, power of three for
    /// Peano, exact ceiling square root otherwise). Always at least 1,
    /// so a zero-capacity request yields the 1-cell curve for every
    /// family — the fractal families round up anyway; the simple
    /// families would otherwise reject side 0 and make the degenerate
    /// empty layout curve-dependent.
    pub fn side_for_capacity(self, capacity: u64) -> u32 {
        let min_side = ceil_sqrt(capacity).max(1);
        match self {
            CurveKind::Hilbert | CurveKind::Moore | CurveKind::ZOrder => {
                min_side.next_power_of_two()
            }
            CurveKind::Peano => next_power_of_three(min_side),
            CurveKind::RowMajor | CurveKind::Serpentine => min_side,
        }
    }

    /// Builds the curve instance of this kind that covers at least
    /// `capacity` cells.
    pub fn for_capacity(self, capacity: u64) -> AnyCurve {
        let side = self.side_for_capacity(capacity);
        self.with_side(side)
    }

    /// Builds the curve with an explicit side length.
    ///
    /// # Panics
    /// Panics when `side` is not legal for the family (see
    /// [`CurveKind::side_for_capacity`]).
    pub fn with_side(self, side: u32) -> AnyCurve {
        match self {
            CurveKind::Hilbert => AnyCurve::Hilbert(HilbertCurve::new(side)),
            CurveKind::Moore => AnyCurve::Moore(MooreCurve::new(side)),
            CurveKind::ZOrder => AnyCurve::ZOrder(ZOrderCurve::new(side)),
            CurveKind::Peano => AnyCurve::Peano(PeanoCurve::new(side)),
            CurveKind::RowMajor => AnyCurve::RowMajor(RowMajorCurve::new(side)),
            CurveKind::Serpentine => AnyCurve::Serpentine(SerpentineCurve::new(side)),
        }
    }
}

impl std::fmt::Display for CurveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Enum-dispatched curve: avoids boxing in hot per-message paths while
/// still letting experiment code sweep over [`CurveKind::ALL`].
#[derive(Debug, Clone)]
pub enum AnyCurve {
    /// See [`HilbertCurve`].
    Hilbert(HilbertCurve),
    /// See [`MooreCurve`].
    Moore(MooreCurve),
    /// See [`ZOrderCurve`].
    ZOrder(ZOrderCurve),
    /// See [`PeanoCurve`].
    Peano(PeanoCurve),
    /// See [`RowMajorCurve`].
    RowMajor(RowMajorCurve),
    /// See [`SerpentineCurve`].
    Serpentine(SerpentineCurve),
}

impl AnyCurve {
    /// The [`CurveKind`] of this instance.
    pub fn kind(&self) -> CurveKind {
        match self {
            AnyCurve::Hilbert(_) => CurveKind::Hilbert,
            AnyCurve::Moore(_) => CurveKind::Moore,
            AnyCurve::ZOrder(_) => CurveKind::ZOrder,
            AnyCurve::Peano(_) => CurveKind::Peano,
            AnyCurve::RowMajor(_) => CurveKind::RowMajor,
            AnyCurve::Serpentine(_) => CurveKind::Serpentine,
        }
    }
}

impl Curve for AnyCurve {
    fn side(&self) -> u32 {
        match self {
            AnyCurve::Hilbert(c) => c.side(),
            AnyCurve::Moore(c) => c.side(),
            AnyCurve::ZOrder(c) => c.side(),
            AnyCurve::Peano(c) => c.side(),
            AnyCurve::RowMajor(c) => c.side(),
            AnyCurve::Serpentine(c) => c.side(),
        }
    }

    fn point(&self, index: u64) -> GridPoint {
        match self {
            AnyCurve::Hilbert(c) => c.point(index),
            AnyCurve::Moore(c) => c.point(index),
            AnyCurve::ZOrder(c) => c.point(index),
            AnyCurve::Peano(c) => c.point(index),
            AnyCurve::RowMajor(c) => c.point(index),
            AnyCurve::Serpentine(c) => c.point(index),
        }
    }

    fn index(&self, p: GridPoint) -> u64 {
        match self {
            AnyCurve::Hilbert(c) => c.index(p),
            AnyCurve::Moore(c) => c.index(p),
            AnyCurve::ZOrder(c) => c.index(p),
            AnyCurve::Peano(c) => c.index(p),
            AnyCurve::RowMajor(c) => c.index(p),
            AnyCurve::Serpentine(c) => c.index(p),
        }
    }

    // Batch calls dispatch the enum once per batch instead of once per
    // element, then run the concrete curve's override.
    fn point_batch(&self, indices: &[u64], out: &mut [GridPoint]) {
        match self {
            AnyCurve::Hilbert(c) => c.point_batch(indices, out),
            AnyCurve::Moore(c) => c.point_batch(indices, out),
            AnyCurve::ZOrder(c) => c.point_batch(indices, out),
            AnyCurve::Peano(c) => c.point_batch(indices, out),
            AnyCurve::RowMajor(c) => c.point_batch(indices, out),
            AnyCurve::Serpentine(c) => c.point_batch(indices, out),
        }
    }

    fn index_batch(&self, points: &[GridPoint], out: &mut [u64]) {
        match self {
            AnyCurve::Hilbert(c) => c.index_batch(points, out),
            AnyCurve::Moore(c) => c.index_batch(points, out),
            AnyCurve::ZOrder(c) => c.index_batch(points, out),
            AnyCurve::Peano(c) => c.index_batch(points, out),
            AnyCurve::RowMajor(c) => c.index_batch(points, out),
            AnyCurve::Serpentine(c) => c.index_batch(points, out),
        }
    }

    fn point_range_batch(&self, start: u64, out: &mut [GridPoint]) {
        match self {
            AnyCurve::Hilbert(c) => c.point_range_batch(start, out),
            AnyCurve::Moore(c) => c.point_range_batch(start, out),
            AnyCurve::ZOrder(c) => c.point_range_batch(start, out),
            AnyCurve::Peano(c) => c.point_range_batch(start, out),
            AnyCurve::RowMajor(c) => c.point_range_batch(start, out),
            AnyCurve::Serpentine(c) => c.point_range_batch(start, out),
        }
    }
}

/// Integer ceiling square root: smallest `s` with `s² ≥ v`.
pub fn ceil_sqrt(v: u64) -> u32 {
    if v == 0 {
        return 0;
    }
    let mut s = (v as f64).sqrt() as u64;
    while s * s < v {
        s += 1;
    }
    while s > 1 && (s - 1) * (s - 1) >= v {
        s -= 1;
    }
    s as u32
}

/// Smallest power of three `≥ v` (`v = 0, 1 → 1`).
pub fn next_power_of_three(v: u32) -> u32 {
    let mut p: u32 = 1;
    while p < v {
        p = p.checked_mul(3).expect("power of three overflows u32");
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_sqrt_exact_and_between() {
        assert_eq!(ceil_sqrt(0), 0);
        assert_eq!(ceil_sqrt(1), 1);
        assert_eq!(ceil_sqrt(2), 2);
        assert_eq!(ceil_sqrt(4), 2);
        assert_eq!(ceil_sqrt(5), 3);
        assert_eq!(ceil_sqrt(9), 3);
        assert_eq!(ceil_sqrt(10), 4);
        assert_eq!(ceil_sqrt(1 << 20), 1 << 10);
        assert_eq!(ceil_sqrt((1 << 20) + 1), (1 << 10) + 1);
    }

    #[test]
    fn power_of_three_progression() {
        assert_eq!(next_power_of_three(0), 1);
        assert_eq!(next_power_of_three(1), 1);
        assert_eq!(next_power_of_three(2), 3);
        assert_eq!(next_power_of_three(3), 3);
        assert_eq!(next_power_of_three(4), 9);
        assert_eq!(next_power_of_three(10), 27);
        assert_eq!(next_power_of_three(27), 27);
        assert_eq!(next_power_of_three(28), 81);
    }

    #[test]
    fn side_for_capacity_respects_family() {
        assert_eq!(CurveKind::Hilbert.side_for_capacity(17), 8);
        assert_eq!(CurveKind::ZOrder.side_for_capacity(16), 4);
        assert_eq!(CurveKind::Peano.side_for_capacity(10), 9);
        assert_eq!(CurveKind::RowMajor.side_for_capacity(10), 4);
        assert_eq!(CurveKind::Serpentine.side_for_capacity(9), 3);
    }

    #[test]
    fn for_capacity_covers_requested_cells() {
        for kind in CurveKind::ALL {
            for cap in [1u64, 5, 64, 100, 1000] {
                let c = kind.for_capacity(cap);
                assert!(c.len() >= cap, "{kind} capacity {cap} got {}", c.len());
            }
        }
    }

    #[test]
    fn energy_bound_is_distance_bound_plus_zorder() {
        for kind in CurveKind::DISTANCE_BOUND {
            assert!(CurveKind::ENERGY_BOUND.contains(&kind), "{kind}");
        }
        assert!(CurveKind::ENERGY_BOUND.contains(&CurveKind::ZOrder));
        assert!(!CurveKind::ENERGY_BOUND.contains(&CurveKind::RowMajor));
        assert!(!CurveKind::ENERGY_BOUND.contains(&CurveKind::Serpentine));
    }

    #[test]
    fn alpha_only_for_distance_bound() {
        for kind in CurveKind::ALL {
            assert_eq!(kind.alpha().is_some(), kind.is_distance_bound());
        }
    }

    #[test]
    fn kind_roundtrip_through_anycurve() {
        for kind in CurveKind::ALL {
            assert_eq!(kind.for_capacity(50).kind(), kind);
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(CurveKind::Hilbert.to_string(), "hilbert");
        assert_eq!(CurveKind::ZOrder.to_string(), "zorder");
    }
}
