//! The [`Layout`] type: vertex → curve slot → grid coordinate.

use rand::Rng;
use spatial_model::{covering_side, vec_bytes, Machine, Slot};
use spatial_sfc::{AnyCurve, Curve, CurveKind, GridPoint};
use spatial_tree::{traversal, ChildrenCsr, NodeId, Tree};

/// How the linear order of a layout is chosen; the experiment harness
/// sweeps over these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutKind {
    /// Light-first order (§III-A) — the paper's construction.
    LightFirst,
    /// Breadth-first order — the `Ω(√n)` adversary for perfect binary
    /// trees.
    Bfs,
    /// Depth-first order (construction child order) — the comb adversary.
    Dfs,
    /// Uniformly random order — the locality-free baseline.
    Random,
}

impl LayoutKind {
    /// All layout kinds in experiment-table order.
    pub const ALL: [LayoutKind; 4] = [
        LayoutKind::LightFirst,
        LayoutKind::Bfs,
        LayoutKind::Dfs,
        LayoutKind::Random,
    ];

    /// Table name.
    pub fn name(self) -> &'static str {
        match self {
            LayoutKind::LightFirst => "light-first",
            LayoutKind::Bfs => "bfs",
            LayoutKind::Dfs => "dfs",
            LayoutKind::Random => "random",
        }
    }
}

impl std::fmt::Display for LayoutKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A tree in a layout, borrowed as flat arrays from whoever keeps them:
/// the root, the parent and slot of every vertex, the subtree sizes and
/// the light-first child lists ([`ChildrenCsr::by_size`]). The engines
/// bind from these and the batched LCA reads them at every run, so a
/// caller that keeps them once per tree (the dynamic layout,
/// [`crate::DynamicLayout::light_first_parts`]) lends them instead of
/// each engine copying them.
#[derive(Debug, Clone, Copy)]
pub struct TreeParts<'a> {
    /// The root vertex.
    pub root: NodeId,
    /// Parent of every vertex ([`spatial_tree::NIL`] at the root).
    pub parents: &'a [NodeId],
    /// Machine slot of every vertex ([`Layout::slots`]).
    pub slots: &'a [Slot],
    /// Subtree size of every vertex.
    pub sizes: &'a [u32],
    /// Light-first child lists.
    pub csr: &'a ChildrenCsr,
}

impl TreeParts<'_> {
    /// Number of vertices.
    pub fn n(&self) -> u32 {
        self.parents.len() as u32
    }
}

/// A placement of tree vertices on the grid: a linear order mapped onto
/// a space-filling curve.
#[derive(Debug, Clone)]
pub struct Layout {
    curve: AnyCurve,
    slot_of: Vec<Slot>,
    vertex_at: Vec<NodeId>,
}

impl Layout {
    /// Builds a layout from an explicit linear order (`order[i]` is the
    /// vertex stored at curve position `i`).
    ///
    /// # Panics
    /// Panics when `order` is not a permutation of `0..n`.
    pub fn from_order(curve_kind: CurveKind, order: Vec<NodeId>) -> Self {
        let n = order.len() as u64;
        Self::from_order_with_capacity(curve_kind, order, n)
    }

    /// [`Layout::from_order`] with the curve sized for at least
    /// `capacity` cells instead of exactly `order.len()`. The slots
    /// `order.len()..capacity` are *reserved tail slots*: unoccupied
    /// curve positions that [`Layout::append_tail`] can fill without
    /// changing the geometry of any existing vertex — the backbone of
    /// incremental [`crate::DynamicLayout`] maintenance. The placement
    /// arrays hold the `n` placed vertices only; [`Layout::reserve`]
    /// sizes them for the appends.
    ///
    /// # Panics
    /// Panics when `order` is not a permutation of `0..n`, or when
    /// `capacity < order.len()`.
    pub fn from_order_with_capacity(
        curve_kind: CurveKind,
        order: Vec<NodeId>,
        capacity: u64,
    ) -> Self {
        let n = order.len();
        assert!(capacity >= n as u64, "capacity below vertex count");
        let curve = curve_kind.for_capacity(capacity);
        let mut slot_of = vec![Slot::MAX; n];
        for (i, &v) in order.iter().enumerate() {
            assert!(
                (v as usize) < n && slot_of[v as usize] == Slot::MAX,
                "order is not a permutation (vertex {v})"
            );
            slot_of[v as usize] = i as Slot;
        }
        Layout {
            curve,
            slot_of,
            vertex_at: order,
        }
    }

    /// Number of curve cells the layout's grid covers (`≥ n`); slots
    /// `n..capacity` are free tail positions for [`Layout::append_tail`].
    pub fn capacity(&self) -> u64 {
        self.curve.len()
    }

    /// Grows both placement arrays to hold `vertices` vertices, so
    /// [`Layout::append_tail`] up to that count never reallocates (a
    /// no-op once they do).
    pub fn reserve(&mut self, vertices: usize) {
        fn grow<T>(buf: &mut Vec<T>, cap: usize) {
            buf.reserve_exact(cap.saturating_sub(buf.len()));
        }
        grow(&mut self.slot_of, vertices);
        grow(&mut self.vertex_at, vertices);
    }

    /// Appends vertex `n` (the next fresh id) at the first free curve
    /// tail slot in O(1), returning its slot. No existing vertex moves.
    ///
    /// # Panics
    /// Panics when the curve has no free tail slot left (grow by
    /// rebuilding with [`Layout::from_order_with_capacity`]).
    pub fn append_tail(&mut self, v: NodeId) -> Slot {
        let slot = self.vertex_at.len() as Slot;
        assert_eq!(v as usize, self.vertex_at.len(), "ids must be dense");
        assert!(
            (slot as u64) < self.curve.len(),
            "no reserved tail slot left (capacity {})",
            self.curve.len()
        );
        self.vertex_at.push(v);
        self.slot_of.push(slot);
        slot
    }

    /// Replaces the linear order in place, reusing the existing buffers
    /// and curve (same vertex count, same capacity): the amortized
    /// rebuild path of [`crate::DynamicLayout`] — no heap allocation.
    ///
    /// # Panics
    /// Panics when `order` is not a permutation of the current `0..n`.
    pub fn set_order(&mut self, order: &[NodeId]) {
        assert_eq!(order.len(), self.vertex_at.len(), "vertex count changed");
        self.slot_of.fill(Slot::MAX);
        for (i, &v) in order.iter().enumerate() {
            assert!(
                (v as usize) < order.len() && self.slot_of[v as usize] == Slot::MAX,
                "order is not a permutation (vertex {v})"
            );
            self.slot_of[v as usize] = i as Slot;
        }
        self.vertex_at.copy_from_slice(order);
    }

    /// Light-first layout (sequential host construction).
    pub fn light_first(tree: &Tree, curve_kind: CurveKind) -> Self {
        Self::from_order(curve_kind, traversal::light_first_order(tree))
    }

    /// Breadth-first layout (the paper's negative example for perfect
    /// binary trees).
    pub fn bfs(tree: &Tree, curve_kind: CurveKind) -> Self {
        Self::from_order(curve_kind, traversal::bfs_order(tree))
    }

    /// Depth-first layout with construction child order (the paper's
    /// negative example for combs).
    pub fn dfs(tree: &Tree, curve_kind: CurveKind) -> Self {
        Self::from_order(curve_kind, traversal::dfs_preorder(tree))
    }

    /// Uniformly random layout.
    pub fn random<R: Rng>(tree: &Tree, curve_kind: CurveKind, rng: &mut R) -> Self {
        let mut order: Vec<NodeId> = (0..tree.n()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        Self::from_order(curve_kind, order)
    }

    /// Builds the layout of the given kind.
    pub fn of_kind<R: Rng>(
        kind: LayoutKind,
        tree: &Tree,
        curve_kind: CurveKind,
        rng: &mut R,
    ) -> Self {
        match kind {
            LayoutKind::LightFirst => Self::light_first(tree, curve_kind),
            LayoutKind::Bfs => Self::bfs(tree, curve_kind),
            LayoutKind::Dfs => Self::dfs(tree, curve_kind),
            LayoutKind::Random => Self::random(tree, curve_kind, rng),
        }
    }

    /// Number of vertices placed.
    pub fn n(&self) -> u32 {
        self.slot_of.len() as u32
    }

    /// The curve the layout lives on.
    pub fn curve(&self) -> &AnyCurve {
        &self.curve
    }

    /// Curve slot (linear position) of a vertex.
    #[inline]
    pub fn slot(&self, v: NodeId) -> Slot {
        self.slot_of[v as usize]
    }

    /// Curve slot of every vertex, indexed by vertex id (the inverse of
    /// [`Layout::order`]).
    pub fn slots(&self) -> &[Slot] {
        &self.slot_of
    }

    /// Heap bytes the layout keeps resident: both directions of the
    /// placement, by capacity (curves hold no heap state).
    pub fn resident_bytes(&self) -> usize {
        vec_bytes(&self.slot_of) + vec_bytes(&self.vertex_at)
    }

    /// Vertex stored at a slot.
    #[inline]
    pub fn vertex_at(&self, s: Slot) -> NodeId {
        self.vertex_at[s as usize]
    }

    /// The linear order (slot → vertex).
    pub fn order(&self) -> &[NodeId] {
        &self.vertex_at
    }

    /// Grid coordinate of a vertex.
    #[inline]
    pub fn point(&self, v: NodeId) -> GridPoint {
        self.curve.point(self.slot(v) as u64)
    }

    /// Manhattan distance between two vertices under this layout.
    #[inline]
    pub fn dist(&self, u: NodeId, v: NodeId) -> u64 {
        spatial_sfc::manhattan(self.point(u), self.point(v))
    }

    /// Instantiates the machine whose slot `i` is curve position `i`;
    /// vertex `v` lives at machine slot [`Layout::slot`]`(v)`.
    ///
    /// The slots are transformed through **this layout's own curve**,
    /// not a freshly-built compact curve for `n` cells: a layout built
    /// with [`Layout::from_order_with_capacity`] sits on a curve sized
    /// for the capacity, whose geometry (side length, cell positions)
    /// differs from the compact curve — pricing reserved-tail
    /// placements through a compact grid undercharges them. The machine
    /// is [`Machine::repoint`]ed onto the slots `0..n` of that curve, so
    /// it is keyed by that curve prefix (curve kind, side and slot
    /// count), the key step 4's closed form checks.
    pub fn machine(&self) -> Machine {
        let mut machine = Machine::default();
        machine.repoint(&self.curve, self.n());
        machine
    }

    /// The side of [`Layout::machine`]'s grid (the smallest square
    /// covering the slots `0..n` on this layout's curve), computed
    /// without building the machine: a batch transform through a
    /// fixed stack buffer, no allocation.
    pub fn machine_side(&self) -> u32 {
        let mut chunk = [GridPoint::default(); 256];
        let mut side = 0;
        for start in (0..self.vertex_at.len()).step_by(chunk.len()) {
            let len = chunk.len().min(self.vertex_at.len() - start);
            self.curve
                .point_range_batch(start as u64, &mut chunk[..len]);
            side = side.max(covering_side(&chunk[..len]));
        }
        side
    }

    /// Grid coordinate of every slot `0..n` on this layout's curve (one
    /// batch curve transform): the placement of [`Layout::machine`].
    pub fn slot_points(&self) -> Vec<GridPoint> {
        let mut points = vec![GridPoint::default(); self.vertex_at.len()];
        self.curve.point_range_batch(0, &mut points);
        points
    }

    /// Grid coordinate of every vertex, indexed by vertex id — one
    /// batch curve transform plus a permutation, instead of `n` scalar
    /// [`Layout::point`] calls. The backbone of the quality metrics.
    pub fn grid_points(&self) -> Vec<GridPoint> {
        let n = self.vertex_at.len();
        let by_slot = self.slot_points();
        let mut by_vertex = vec![GridPoint::default(); n];
        for (slot, &v) in self.vertex_at.iter().enumerate() {
            by_vertex[v as usize] = by_slot[slot];
        }
        by_vertex
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use spatial_tree::generators;

    #[test]
    fn from_order_roundtrip() {
        let order = vec![2, 0, 1, 3];
        let l = Layout::from_order(CurveKind::Hilbert, order.clone());
        assert_eq!(l.n(), 4);
        for (i, &v) in order.iter().enumerate() {
            assert_eq!(l.slot(v), i as Slot);
            assert_eq!(l.vertex_at(i as Slot), v);
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_duplicate_vertex() {
        let _ = Layout::from_order(CurveKind::Hilbert, vec![0, 0, 1]);
    }

    #[test]
    fn capacity_reserves_tail_slots() {
        let l = Layout::from_order_with_capacity(CurveKind::Hilbert, vec![1, 0, 2], 64);
        assert_eq!(l.n(), 3);
        assert_eq!(l.capacity(), 64);
        // Appends fill consecutive tail slots without moving anyone.
        let p1 = l.point(1);
        let mut l = l;
        assert_eq!(l.append_tail(3), 3);
        assert_eq!(l.append_tail(4), 4);
        assert_eq!(l.n(), 5);
        assert_eq!(l.point(1), p1);
        assert_eq!(l.vertex_at(3), 3);
        assert_eq!(l.slot(4), 4);
    }

    #[test]
    fn zero_node_layout_on_every_curve() {
        // 0-node layouts must behave identically across curve families:
        // capacity 0 rounds up to the 1-cell curve everywhere (the
        // simple families used to reject side 0 while the fractal
        // families rounded up).
        for kind in spatial_sfc::CurveKind::ALL {
            let l = Layout::from_order_with_capacity(kind, vec![], 0);
            assert_eq!(l.n(), 0, "{kind}");
            assert_eq!(l.capacity(), 1, "{kind}");
            assert_eq!(l.order(), &[] as &[NodeId], "{kind}");
            assert!(l.grid_points().is_empty(), "{kind}");
            // The single reserved cell accepts exactly one append.
            let mut l = l;
            assert_eq!(l.append_tail(0), 0, "{kind}");
            assert_eq!(l.n(), 1, "{kind}");
        }
    }

    #[test]
    fn zero_node_set_order_roundtrip() {
        let mut l = Layout::from_order(CurveKind::Hilbert, vec![]);
        l.set_order(&[]);
        assert_eq!(l.n(), 0);
        assert_eq!(l.machine().n_slots(), 0);
    }

    #[test]
    fn one_node_layout_with_capacity_one() {
        let l = Layout::from_order_with_capacity(CurveKind::Hilbert, vec![0], 1);
        assert_eq!(l.n(), 1);
        assert_eq!(l.capacity(), 1);
        assert_eq!(l.slot(0), 0);
        assert_eq!(l.point(0), spatial_sfc::GridPoint { x: 0, y: 0 });
    }

    #[test]
    #[should_panic(expected = "no reserved tail slot")]
    fn one_node_full_curve_rejects_append() {
        let mut l = Layout::from_order_with_capacity(CurveKind::Hilbert, vec![0], 1);
        l.append_tail(1);
    }

    #[test]
    fn capacity_equals_len_fills_to_curve_boundary() {
        // capacity == len: the requested capacity is exhausted, but the
        // curve's side rounding may leave real tail cells — appends must
        // succeed exactly up to the curve boundary and panic after.
        let l = Layout::from_order_with_capacity(CurveKind::Hilbert, vec![2, 0, 1], 3);
        assert_eq!(l.capacity(), 4, "side rounds 3 up to a 2x2 grid");
        let mut l = l;
        assert_eq!(l.append_tail(3), 3);
        assert_eq!(l.n() as u64, l.capacity());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| l.append_tail(4)));
        assert!(r.is_err(), "append past the curve boundary must panic");
    }

    #[test]
    #[should_panic(expected = "capacity below vertex count")]
    fn rejects_capacity_below_len() {
        let _ = Layout::from_order_with_capacity(CurveKind::Hilbert, vec![0, 1, 2], 2);
    }

    #[test]
    #[should_panic(expected = "ids must be dense")]
    fn append_tail_rejects_sparse_ids() {
        let mut l = Layout::from_order_with_capacity(CurveKind::Hilbert, vec![0, 1], 16);
        l.append_tail(7);
    }

    #[test]
    #[should_panic(expected = "no reserved tail slot")]
    fn append_tail_rejects_full_curve() {
        let mut l = Layout::from_order_with_capacity(CurveKind::Hilbert, vec![0, 1, 2, 3], 4);
        l.append_tail(4);
    }

    #[test]
    fn set_order_rebuilds_in_place() {
        let t = generators::comb(32);
        let mut l = Layout::bfs(&t, CurveKind::Hilbert);
        let fresh = Layout::light_first(&t, CurveKind::Hilbert);
        l.set_order(fresh.order());
        assert_eq!(l.order(), fresh.order());
        for v in 0..32u32 {
            assert_eq!(l.slot(v), fresh.slot(v));
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn set_order_rejects_duplicates() {
        let mut l = Layout::from_order(CurveKind::Hilbert, vec![0, 1, 2]);
        l.set_order(&[0, 0, 2]);
    }

    #[test]
    fn light_first_layout_positions() {
        let t = generators::comb(8);
        let l = Layout::light_first(&t, CurveKind::Hilbert);
        // Root at slot 0 by definition of a DFS-style order.
        assert_eq!(l.slot(t.root()), 0);
        assert_eq!(
            spatial_tree::traversal::verify_light_first(&t, l.order()),
            Ok(())
        );
    }

    #[test]
    fn light_first_on_path_does_not_overflow() {
        // Deep recursion guard: a path of 200k vertices.
        let t = generators::path(200_000);
        let order = spatial_tree::traversal::light_first_order(&t);
        assert_eq!(order.len(), 200_000);
        assert_eq!(
            spatial_tree::traversal::verify_light_first(&t, &order),
            Ok(())
        );
        let l = Layout::light_first(&t, CurveKind::Hilbert);
        assert_eq!(l.order(), &order[..]);
    }

    #[test]
    fn random_layout_reproducible() {
        let t = generators::path(50);
        let a = Layout::random(&t, CurveKind::Hilbert, &mut StdRng::seed_from_u64(1));
        let b = Layout::random(&t, CurveKind::Hilbert, &mut StdRng::seed_from_u64(1));
        assert_eq!(a.order(), b.order());
    }

    #[test]
    fn dist_is_symmetric_grid_distance() {
        let t = generators::path(16);
        let l = Layout::light_first(&t, CurveKind::Hilbert);
        // A path in light-first order on the Hilbert curve: every
        // parent-child pair sits on consecutive curve positions.
        for v in 1..16u32 {
            assert_eq!(l.dist(v - 1, v), 1, "edge ({}, {v})", v - 1);
        }
    }

    #[test]
    fn machine_matches_layout_geometry() {
        let t = generators::star(20);
        let l = Layout::light_first(&t, CurveKind::Hilbert);
        let m = l.machine();
        for v in 0..20u32 {
            assert_eq!(m.point_of(l.slot(v)), l.point(v));
        }
    }

    #[test]
    fn machine_prices_reserved_tail_placements() {
        // A capacity-64 layout holding 3 vertices sits on an 8×8 curve;
        // the compact 3-cell curve is 2×2. Pricing through the compact
        // grid (the old `Machine::on_curve(kind, n)` construction)
        // collapses every placement into the small grid and
        // undercharges messages that cross the real geometry — the bug
        // PR 5 worked around by rebuilding the grid from the dynamic
        // curve's true points in `session/forest.rs`.
        let mut l = Layout::from_order_with_capacity(CurveKind::Hilbert, vec![2, 0, 1], 64);
        l.append_tail(3);
        l.append_tail(4);
        let m = l.machine();
        assert_eq!(m.n_slots(), 5);
        // Machine geometry is the layout's own: every vertex (including
        // the tail appends) sits at its true curve point.
        for v in 0..5u32 {
            assert_eq!(m.point_of(l.slot(v)), l.point(v), "vertex {v}");
        }
        // The charge for a tail-to-head message is the true Manhattan
        // distance on the 8×8 curve…
        m.send(l.slot(4), l.slot(0));
        assert_eq!(m.energy(), l.dist(4, 0));
        // …which the compact grid cannot even represent: slot 4 is out
        // of range for a 2×2 machine, and the true distance exceeds the
        // compact grid's diameter.
        let compact = Machine::on_curve(CurveKind::Hilbert, 3);
        assert!(l.slot(4) >= compact.n_slots());
        assert!(l.dist(4, 0) > (2 * (compact.side().max(1) as u64 - 1)));
    }

    #[test]
    fn machine_side_is_the_machines() {
        for kind in spatial_sfc::CurveKind::ALL {
            for (n, capacity) in [(0u32, 0u64), (1, 1), (3, 64), (300, 600), (700, 1400)] {
                let l = Layout::from_order_with_capacity(kind, (0..n).collect(), capacity);
                assert_eq!(
                    l.machine_side(),
                    l.machine().side(),
                    "{kind} {n}/{capacity}"
                );
            }
        }
    }

    #[test]
    fn reserve_sizes_the_placement_for_appends() {
        let mut l = Layout::from_order_with_capacity(CurveKind::Hilbert, vec![1, 0, 2], 64);
        assert_eq!(l.resident_bytes(), 2 * 3 * 4, "only the placed vertices");
        l.reserve(40);
        let bytes = l.resident_bytes();
        assert_eq!(bytes, 2 * 40 * 4);
        for v in 3..40 {
            l.append_tail(v);
        }
        assert_eq!(l.resident_bytes(), bytes, "appends within the reserve");
    }

    #[test]
    fn machine_unchanged_for_compact_layouts() {
        // For layouts without reserved tails the fix is geometry-
        // neutral: the batch-transformed points equal the compact
        // curve construction, so all existing charge baselines hold.
        let t = generators::uniform_random(100, &mut StdRng::seed_from_u64(3));
        let l = Layout::light_first(&t, CurveKind::Hilbert);
        let m = l.machine();
        let compact = Machine::on_curve(CurveKind::Hilbert, 100);
        assert_eq!(m.n_slots(), compact.n_slots());
        for s in 0..100u32 {
            assert_eq!(m.point_of(s), compact.point_of(s), "slot {s}");
        }
    }

    #[test]
    fn of_kind_dispatch() {
        let t = generators::comb(32);
        let mut rng = StdRng::seed_from_u64(8);
        for kind in LayoutKind::ALL {
            let l = Layout::of_kind(kind, &t, CurveKind::Hilbert, &mut rng);
            assert_eq!(l.n(), 32, "{kind}");
        }
    }
}
