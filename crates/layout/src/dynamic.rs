//! Dynamic layout maintenance (§VII future work).
//!
//! The paper's layouts are static: "layouts \[must\] be precomputed", with
//! the cost amortized over repeated analyses (§I-D). Its conclusion
//! names *dynamic updates* as the open extension. This module implements
//! true incremental maintenance on top of the reserved-tail-slot support
//! in [`Layout`]:
//!
//! - **O(1) appends**: the curve is sized for twice the current tree, so
//!   a new leaf takes the next free tail slot — one scalar curve
//!   transform and one incremental energy update; no vertex moves, no
//!   arrays are rebuilt. [`DynamicLayout::insert_leaves`] batches a whole
//!   stream with a single quality check at the end.
//! - **Amortized light-first rebuilds**: when the incrementally tracked
//!   messaging-kernel energy exceeds `rebuild_factor` times the
//!   post-rebuild baseline, the light-first order is recomputed through
//!   retained scratch ([`Layout::set_order`] reuses the layout's own
//!   buffers), so steady-state rebuilds perform **zero heap allocation**
//!   (counting-allocator test `tests/dynamic_alloc.rs`).
//! - **Amortized growth**: when appends exhaust the reserved tail, the
//!   curve doubles (the only allocating step, amortized over the
//!   doubling) while preserving the current order, and the baseline is
//!   re-anchored to the fresh light-first energy at the new geometry.
//!
//! With rebuild factor `c > 1`, the total energy of a length-`m`
//! insertion stream is within `O(c)` of the always-fresh layout's, while
//! rebuilds happen only `O(log_c (E_final / E_initial))` times per
//! doubling — the classic amortization (property-tested in
//! `tests/dynamic_props.rs`).

use crate::layout::{Layout, TreeParts};
use crate::quality::local_kernel_energy_with_points;
use spatial_model::{vec_bytes, CurveKind};
use spatial_sfc::{manhattan, Curve, GridPoint};
use spatial_store::CowSlab;
use spatial_tree::{ChildrenCsr, NodeId, Tree, NIL};

/// Statistics of a dynamic layout's lifetime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicStats {
    /// Number of leaf insertions performed.
    pub insertions: u64,
    /// Number of full light-first rebuilds triggered (by the quality
    /// threshold or [`DynamicLayout::rebuild`]; capacity growth is
    /// counted separately).
    pub rebuilds: u32,
    /// Number of capacity doublings (order-preserving curve growth).
    pub grows: u32,
    /// Kernel energy right after the last rebuild (re-anchored to the
    /// fresh light-first energy after a capacity growth).
    pub baseline_energy: u64,
}

/// Retained buffers for the light-first rebuild: the light-first child
/// CSR and subtree sizes, BFS scratch, the order under construction,
/// and coordinate staging. The CSR and the sizes serve every epoch's
/// engine binds, so they are kept; until the layout's first append,
/// rebuild or growth they hold the current tree only. The BFS scratch,
/// the order, the DFS stack, the slot points and the position scratch
/// serve only a CSR build, a light-first rebuild or a capacity growth:
/// they are released after construction and reserved to the capacity
/// at the next CSR build or the first append, rebuild or growth, so
/// steady-state rebuilds never allocate and a layout that is only read
/// never holds them.
#[derive(Debug, Default)]
struct RebuildScratch {
    /// Light-first child lists of the tree (see `current`).
    csr: ChildrenCsr,
    /// Subtree sizes of the tree (see `current`).
    sizes: Vec<u32>,
    /// Whether `csr` and `sizes` describe the current tree: set when
    /// they are computed, cleared by every append.
    current: bool,
    /// BFS scratch of the CSR build.
    bfs: Vec<NodeId>,
    /// Light-first order under construction.
    order: Vec<NodeId>,
    /// DFS stack.
    stack: Vec<NodeId>,
    /// Per-slot coordinates (batch transform staging).
    slot_points: Vec<GridPoint>,
    /// Vertex → position scratch for hypothetical-order energies.
    pos: Vec<u32>,
}

impl RebuildScratch {
    fn resident_bytes(&self) -> usize {
        self.csr.resident_bytes()
            + vec_bytes(&self.sizes)
            + vec_bytes(&self.bfs)
            + vec_bytes(&self.order)
            + vec_bytes(&self.stack)
            + vec_bytes(&self.slot_points)
            + vec_bytes(&self.pos)
    }

    /// Grows every buffer to `cap` entries (a no-op once they hold
    /// that many).
    fn reserve(&mut self, cap: usize) {
        self.csr.reserve(cap);
        grow(&mut self.sizes, cap);
        grow(&mut self.bfs, cap);
        grow(&mut self.order, cap);
        grow(&mut self.stack, cap);
        grow(&mut self.slot_points, cap);
        grow(&mut self.pos, cap);
    }

    /// Frees the buffers that only a CSR build, a rebuild or a growth
    /// uses.
    fn release_working(&mut self) {
        self.bfs = Vec::new();
        self.order = Vec::new();
        self.stack = Vec::new();
        self.slot_points = Vec::new();
        self.pos = Vec::new();
    }

    /// Computes the light-first child CSR and subtree sizes of the tree
    /// given by `parents` unless they are already current, with the BFS
    /// scratch reserved to `cap` entries.
    fn ensure_children(&mut self, parents: &[NodeId], root: NodeId, cap: usize) {
        if !self.current {
            grow(&mut self.bfs, cap);
            self.csr
                .fill_light_first(parents, root, &mut self.sizes, &mut self.bfs);
            self.current = true;
        }
    }

    /// Computes the light-first order of the tree into `order`: the
    /// CSR (if not current), then an iterative DFS with the smallest
    /// child on top of the stack. Allocation-free once reserved.
    fn light_first_order(&mut self, parents: &[NodeId], root: NodeId, cap: usize) {
        self.ensure_children(parents, root, cap);
        let RebuildScratch {
            csr, order, stack, ..
        } = self;
        order.clear();
        stack.clear();
        stack.push(root);
        while let Some(v) = stack.pop() {
            order.push(v);
            stack.extend(csr.children(v).iter().rev());
        }
    }
}

/// Grows `buf` to hold `cap` entries (a no-op once it does).
fn grow<T>(buf: &mut Vec<T>, cap: usize) {
    buf.reserve_exact(cap.saturating_sub(buf.len()));
}

/// A tree layout that supports leaf insertion with O(1) placement and
/// amortized light-first rebuilds.
#[derive(Debug)]
pub struct DynamicLayout {
    /// Parent of every vertex ([`NIL`] for the root); appends extend
    /// it. Either owned or a zero-copy view over a mapped snapshot
    /// ([`DynamicLayout::restore_slab`]), promoted to owned on the
    /// first structural mutation.
    parents: CowSlab<NodeId>,
    /// The (fixed) root vertex.
    root: NodeId,
    /// Curve family the layout lives on.
    curve: CurveKind,
    /// The live layout; its curve is sized for [`DynamicLayout::reserved`]
    /// vertices, so appended leaves take free tail slots in O(1).
    layout: Layout,
    /// Grid coordinate of every vertex, indexed by vertex id — kept in
    /// sync incrementally so energy updates are O(1) per insert. Filled
    /// at the first append, rebuild or growth, with the headroom; a
    /// layout that is only read keeps none (its energy comes from the
    /// slot points at construction and restore).
    points: Vec<GridPoint>,
    /// Current messaging-kernel energy, maintained incrementally.
    energy: u64,
    /// Vertex count at which the next capacity doubling happens.
    reserved: u64,
    /// Allowed kernel-energy degradation factor `c ≥ 1` (e.g. 2.0 =
    /// rebuild when the energy reaches twice the baseline).
    rebuild_factor: f64,
    /// Lifetime statistics.
    stats: DynamicStats,
    /// Retained rebuild buffers (zero steady-state allocation).
    scratch: RebuildScratch,
    /// Whether the per-vertex arrays hold room for `reserved` vertices
    /// (the append headroom): set at the first append, rebuild or
    /// growth, so a layout that is only read holds its `n` vertices
    /// alone.
    headroom: bool,
}

impl DynamicLayout {
    /// Wraps an initial tree; `rebuild_factor` is the allowed kernel
    /// energy degradation (e.g. 2.0 = rebuild when twice the baseline).
    ///
    /// # Panics
    /// Panics when `rebuild_factor < 1.0`.
    pub fn new(tree: &Tree, curve: CurveKind, rebuild_factor: f64) -> Self {
        assert!(rebuild_factor >= 1.0, "rebuild factor must be ≥ 1");
        let n = tree.n() as usize;
        let reserved = (2 * n as u64).max(4);
        let mut scratch = RebuildScratch::default();
        scratch.light_first_order(tree.parents(), tree.root(), n);
        let layout = Layout::from_order_with_capacity(curve, scratch.order.clone(), reserved);
        let mut dl = DynamicLayout {
            parents: CowSlab::owned(tree.parents().to_vec()),
            root: tree.root(),
            curve,
            layout,
            points: Vec::new(),
            energy: 0,
            reserved,
            rebuild_factor,
            stats: DynamicStats {
                insertions: 0,
                rebuilds: 0,
                grows: 0,
                baseline_energy: 1,
            },
            scratch,
            headroom: false,
        };
        dl.refresh_energy();
        dl.stats.baseline_energy = dl.energy.max(1);
        dl.scratch.release_working();
        dl
    }

    /// Rebuilds a dynamic layout from persisted state: the parent
    /// slab, the layout's linear order, the reserved capacity, and the
    /// lifetime statistics captured from a live instance (see
    /// `spatial_store::ForestSnapshot`). The parent slab may be owned
    /// or, as on every restore from a snapshot, a zero-copy view of a
    /// mapped file (`spatial_store::MappedSnapshot::parents_slab`),
    /// which stays borrowed until the first structural mutation
    /// (append or grow) promotes it to owned memory with one copy.
    /// The incremental energy counter is recomputed from the restored
    /// geometry — the live instance maintains it incrementally, and the
    /// two agree exactly (`incremental_energy_matches_recomputation`) —
    /// so the result is
    /// **bit-identical** to the snapshotted layout: same placement,
    /// same quality threshold state, same future rebuild/growth
    /// schedule for any continuation stream.
    ///
    /// # Panics
    /// Panics when the inputs are inconsistent (`order` not a
    /// permutation of the vertices, `reserved` below the vertex count,
    /// `rebuild_factor < 1`).
    pub fn restore_slab(
        root: NodeId,
        parents: CowSlab<NodeId>,
        curve: CurveKind,
        order: Vec<NodeId>,
        reserved: u64,
        rebuild_factor: f64,
        stats: DynamicStats,
    ) -> Self {
        assert!(rebuild_factor >= 1.0, "rebuild factor must be ≥ 1");
        let n = parents.len();
        assert_eq!(order.len(), n, "order must place every vertex");
        assert!(reserved >= n as u64, "reserved capacity below vertex count");
        let layout = Layout::from_order_with_capacity(curve, order, reserved);
        let mut dl = DynamicLayout {
            parents,
            root,
            curve,
            layout,
            points: Vec::new(),
            energy: 0,
            reserved,
            rebuild_factor,
            stats,
            scratch: RebuildScratch::default(),
            headroom: false,
        };
        dl.refresh_energy();
        dl.scratch.release_working();
        dl
    }

    /// Current number of vertices.
    pub fn n(&self) -> u32 {
        self.parents.len() as u32
    }

    /// The root vertex.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of every vertex ([`NIL`] for the root) — the snapshot
    /// slab, borrowed instead of materialized through
    /// [`DynamicLayout::tree`].
    pub fn parents(&self) -> &[NodeId] {
        self.parents.as_slice()
    }

    /// Whether the parent slab is still a borrowed view over a mapped
    /// snapshot (no structural mutation since
    /// [`DynamicLayout::restore_slab`]).
    pub fn parents_backing_mapped(&self) -> bool {
        self.parents.is_mapped()
    }

    /// The curve family the layout lives on.
    pub fn curve_kind(&self) -> CurveKind {
        self.curve
    }

    /// Vertex count at which the next capacity doubling happens.
    pub fn reserved(&self) -> u64 {
        self.reserved
    }

    /// The allowed kernel-energy degradation factor.
    pub fn rebuild_factor(&self) -> f64 {
        self.rebuild_factor
    }

    /// The current layout (valid until the next insertion).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Materializes the current tree.
    pub fn tree(&self) -> Tree {
        Tree::from_parents(self.root, self.parents.as_slice().to_vec())
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> DynamicStats {
        self.stats
    }

    /// The subtree sizes and light-first child lists
    /// ([`ChildrenCsr::by_size`]) of the current tree, from the
    /// retained rebuild scratch. A light-first rebuild (threshold,
    /// forced, or at construction) leaves them there, so after one this
    /// is a borrow; otherwise the first call after an append computes
    /// them, once, into the scratch (allocation-free within the
    /// reserved capacity), and a rebuild before the next append reuses
    /// them. Valid until the next insertion. The light-first layout,
    /// the Euler tour, the batched-LCA structure and the treefix
    /// structure of one tree all derive from this one child order.
    pub fn light_first_children(&mut self) -> (&[u32], &ChildrenCsr) {
        let s = &mut self.scratch;
        s.ensure_children(self.parents.as_slice(), self.root, self.reserved as usize);
        (&s.sizes, &s.csr)
    }

    /// Whether the layout's order is the light-first order of the tree
    /// ([`DynamicLayout::light_first_children`]'s lists, ties between
    /// equal sizes broken by vertex id): the root at position 0, and the
    /// children of the vertex at position `p`, in list order, at `p + 1`
    /// and then each one the previous child's subtree size further on.
    /// Those positions define the light-first order, so an order that
    /// meets them is it. O(n) beside the child lists, which it computes
    /// if they are not current (what the next engine bind reads anyway).
    pub fn order_is_light_first(&mut self) -> bool {
        if self.layout.order().first() != Some(&self.root) {
            return false;
        }
        let (layout, tree) = self.light_first_parts();
        let order = layout.order();
        order.iter().enumerate().all(|(p, &v)| {
            let mut at = p + 1;
            tree.csr.children(v).iter().all(|&c| {
                let placed = order.get(at) == Some(&c);
                at += tree.sizes[c as usize] as usize;
                placed
            })
        })
    }

    /// The current layout together with the current tree's
    /// [`TreeParts`] — the root, the parent slab (read in place, mapped
    /// or owned), the layout's slots and
    /// [`DynamicLayout::light_first_children`] — borrowed at once: what
    /// every engine bind and every LCA run over the current tree reads,
    /// without copying.
    pub fn light_first_parts(&mut self) -> (&Layout, TreeParts<'_>) {
        self.light_first_children();
        let parts = TreeParts {
            root: self.root,
            parents: self.parents.as_slice(),
            slots: self.layout.slots(),
            sizes: &self.scratch.sizes,
            csr: &self.scratch.csr,
        };
        (&self.layout, parts)
    }

    /// Heap bytes the dynamic layout keeps resident, by capacity: the
    /// parent slab (0 while it is a mapped view), the layout, the
    /// per-vertex grid points (none before the first append, rebuild or
    /// growth) and the retained rebuild scratch (which holds the
    /// light-first sizes and child CSR). Until the first append,
    /// rebuild or growth every part holds the `n` current vertices
    /// only; from then on it holds room for
    /// [`DynamicLayout::reserved`].
    pub fn resident_bytes(&self) -> usize {
        self.parents.resident_bytes()
            + self.layout.resident_bytes()
            + vec_bytes(&self.points)
            + self.scratch.resident_bytes()
    }

    /// Kernel energy of the *current* placement (the quality signal) —
    /// O(1): tracked incrementally across appends and rebuilds.
    pub fn current_energy(&self) -> u64 {
        self.energy
    }

    /// Inserts a new leaf under `parent`, placing it at the next free
    /// curve tail slot in O(1); rebuilds the light-first layout when
    /// quality has degraded past the rebuild factor. Returns the new
    /// vertex id.
    pub fn insert_leaf(&mut self, parent: NodeId) -> NodeId {
        let v = self.append(parent);
        self.stats.insertions += 1;
        self.maybe_rebuild();
        v
    }

    /// Batched insert: appends one leaf per entry of `parents` (entries
    /// may reference vertices created earlier in the same batch), with a
    /// **single** quality check at the end — the whole stream pays at
    /// most one rebuild. Returns the id range of the new vertices.
    pub fn insert_leaves(&mut self, parents: &[NodeId]) -> std::ops::Range<NodeId> {
        let first = self.n();
        for &p in parents {
            self.append(p);
        }
        self.stats.insertions += parents.len() as u64;
        self.maybe_rebuild();
        first..self.n()
    }

    /// O(1) append (amortized: doubles the curve when the reserved tail
    /// is exhausted). Does not touch the insertion counter or the
    /// quality threshold.
    fn append(&mut self, parent: NodeId) -> NodeId {
        assert!(parent < self.n(), "parent {parent} out of range");
        if self.parents.len() as u64 == self.reserved {
            self.grow();
        } else if !self.headroom {
            self.reserve_headroom();
            self.refresh_points_and_energy();
        }
        let v = self.n() as NodeId;
        // Promoting here (CoW) is the first structural mutation a
        // mapped-backed layout sees; the copy is reserved to capacity.
        self.parents.make_mut(self.reserved as usize).push(parent);
        self.scratch.current = false;
        let slot = self.layout.append_tail(v);
        let p = self.layout.curve().point(slot as u64);
        self.points.push(p);
        self.energy += manhattan(self.points[parent as usize], p);
        v
    }

    fn maybe_rebuild(&mut self) {
        if self.energy as f64 > self.rebuild_factor * self.stats.baseline_energy as f64 {
            self.rebuild();
        }
    }

    /// Sizes every per-vertex array, and the rebuild scratch, for
    /// `reserved` vertices: the append headroom. A mapped parent slab
    /// is sized when the first append promotes it; the caller fills the
    /// per-vertex grid points.
    fn reserve_headroom(&mut self) {
        let cap = self.reserved as usize;
        self.parents.reserve(cap - self.parents.len());
        grow(&mut self.points, cap);
        self.layout.reserve(cap);
        self.scratch.reserve(cap);
        self.headroom = true;
    }

    /// Forces a light-first rebuild now (retained scratch: zero heap
    /// allocation in the steady state).
    pub fn rebuild(&mut self) {
        if !self.headroom {
            self.reserve_headroom();
        }
        let cap = self.reserved as usize;
        self.scratch
            .light_first_order(self.parents.as_slice(), self.root, cap);
        self.layout.set_order(&self.scratch.order);
        self.refresh_points_and_energy();
        self.stats.rebuilds += 1;
        self.stats.baseline_energy = self.energy.max(1);
    }

    /// Doubles the reserved capacity, preserving the current order: the
    /// curve is rebuilt for the larger grid (the only allocating step,
    /// amortized over the doubling), coordinates and energy are
    /// recomputed, and the baseline is re-anchored to the fresh
    /// light-first energy at the new geometry.
    fn grow(&mut self) {
        let n = self.parents.len() as u64;
        self.reserved = (2 * n).max(4);
        let order = self.layout.order().to_vec();
        self.layout = Layout::from_order_with_capacity(self.curve, order, self.reserved);
        self.reserve_headroom();
        self.refresh_points_and_energy();
        self.stats.grows += 1;
        self.stats.baseline_energy = self.fresh_light_first_energy().max(1);
    }

    /// Recomputes the kernel energy and the per-vertex coordinates (one
    /// batch transform) from the live layout.
    fn refresh_points_and_energy(&mut self) {
        self.refresh_energy();
        let s = &self.scratch;
        self.points.clear();
        self.points
            .resize(s.slot_points.len(), GridPoint::default());
        for (slot, &p) in s.slot_points.iter().enumerate() {
            self.points[self.layout.vertex_at(slot as u32) as usize] = p;
        }
    }

    /// Recomputes the kernel energy from the live layout through the
    /// slot points alone (one batch transform into the scratch), keeping
    /// no per-vertex coordinates: the construction and restore path,
    /// whose layout may never see an append.
    fn refresh_energy(&mut self) {
        self.fill_slot_points();
        let (points, slots) = (&self.scratch.slot_points, self.layout.slots());
        let at = |v: usize| points[slots[v] as usize];
        self.energy = 0;
        for (v, &p) in self.parents.as_slice().iter().enumerate() {
            if p != NIL {
                self.energy += manhattan(at(p as usize), at(v));
            }
        }
    }

    /// Transforms the slots `0..n` of the live curve into the slot-point
    /// scratch.
    fn fill_slot_points(&mut self) {
        let s = &mut self.scratch;
        s.slot_points.clear();
        s.slot_points
            .resize(self.parents.len(), GridPoint::default());
        self.layout.curve().point_range_batch(0, &mut s.slot_points);
    }

    /// Kernel energy a fresh light-first layout would have on the
    /// current curve, without adopting it (the baseline re-anchor after
    /// a capacity growth).
    fn fresh_light_first_energy(&mut self) -> u64 {
        let cap = self.reserved as usize;
        self.scratch
            .light_first_order(self.parents.as_slice(), self.root, cap);
        self.fill_slot_points();
        let n = self.parents.len();
        let s = &mut self.scratch;
        s.pos.clear();
        s.pos.resize(n, 0);
        for (i, &v) in s.order.iter().enumerate() {
            s.pos[v as usize] = i as u32;
        }
        let mut energy = 0u64;
        for (v, &p) in self.parents.as_slice().iter().enumerate() {
            if p != NIL {
                energy += manhattan(
                    s.slot_points[s.pos[p as usize] as usize],
                    s.slot_points[s.pos[v] as usize],
                );
            }
        }
        energy
    }

    /// Recomputes the kernel energy from scratch (O(n)) — the oracle for
    /// the incremental counter, used by tests and assertions. It reads
    /// the layout's own placement ([`Layout::grid_points`]), not the
    /// per-vertex points the counter keeps.
    pub fn recomputed_energy(&self) -> u64 {
        local_kernel_energy_with_points(&self.tree(), &self.layout.grid_points())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use spatial_tree::generators;

    fn seed_tree(n: u32) -> Tree {
        generators::uniform_random(n, &mut StdRng::seed_from_u64(1))
    }

    #[test]
    fn insertions_grow_the_tree() {
        let t = seed_tree(50);
        let mut dl = DynamicLayout::new(&t, CurveKind::Hilbert, 4.0);
        let v = dl.insert_leaf(10);
        assert_eq!(v, 50);
        assert_eq!(dl.n(), 51);
        let rebuilt = dl.tree();
        assert_eq!(rebuilt.parent(v), Some(10));
        assert!(rebuilt.is_leaf(v));
    }

    #[test]
    fn layout_stays_a_permutation() {
        let t = seed_tree(20);
        let mut dl = DynamicLayout::new(&t, CurveKind::Hilbert, 2.0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let p = rng.gen_range(0..dl.n());
            dl.insert_leaf(p);
        }
        assert_eq!(dl.n(), 120);
        // Every vertex has a unique slot.
        let layout = dl.layout();
        let mut seen = [false; 1 << 9];
        for v in 0..120u32 {
            let s = layout.slot(v) as usize;
            assert!(!seen[s]);
            seen[s] = true;
        }
    }

    #[test]
    fn incremental_energy_matches_recomputation() {
        // The O(1) counter must agree with the O(n) oracle through
        // appends, threshold rebuilds, and capacity growths.
        let t = seed_tree(60);
        let mut dl = DynamicLayout::new(&t, CurveKind::Hilbert, 3.0);
        let mut rng = StdRng::seed_from_u64(12);
        for i in 0..500 {
            let p = rng.gen_range(0..dl.n());
            dl.insert_leaf(p);
            if i % 37 == 0 {
                assert_eq!(dl.current_energy(), dl.recomputed_energy(), "step {i}");
            }
        }
        assert!(dl.stats().grows >= 2, "stream should have grown twice");
        assert_eq!(dl.current_energy(), dl.recomputed_energy());
    }

    #[test]
    fn batched_insert_matches_stream_tree() {
        let t = seed_tree(40);
        let mut dl = DynamicLayout::new(&t, CurveKind::Hilbert, 2.0);
        // Batch parents referencing both old and in-batch vertices.
        let range = dl.insert_leaves(&[0, 5, 40, 41, 12]);
        assert_eq!(range, 40..45);
        let tree = dl.tree();
        assert_eq!(tree.parent(42), Some(40), "in-batch parent");
        assert_eq!(dl.stats().insertions, 5);
        // A batch pays at most one rebuild.
        assert!(dl.stats().rebuilds <= 1);
        assert_eq!(dl.current_energy(), dl.recomputed_energy());
    }

    #[test]
    fn rebuild_restores_quality() {
        let t = seed_tree(200);
        let mut dl = DynamicLayout::new(&t, CurveKind::Hilbert, f64::INFINITY);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..400 {
            let p = rng.gen_range(0..dl.n());
            dl.insert_leaf(p);
        }
        assert_eq!(dl.stats().rebuilds, 0, "infinite factor never rebuilds");
        let degraded = dl.current_energy();
        dl.rebuild();
        let fresh = dl.current_energy();
        assert!(
            degraded > 2 * fresh,
            "appending should degrade quality: {degraded} vs {fresh}"
        );
        // The rebuilt layout is exactly the light-first layout.
        let tree = dl.tree();
        assert_eq!(
            dl.layout().order(),
            &spatial_tree::traversal::light_first_order(&tree)[..]
        );
    }

    #[test]
    fn threshold_bounds_degradation() {
        let t = seed_tree(200);
        let factor = 3.0;
        let mut dl = DynamicLayout::new(&t, CurveKind::Hilbert, factor);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..600 {
            let p = rng.gen_range(0..dl.n());
            dl.insert_leaf(p);
            // Invariant: after the post-insert check, quality never
            // exceeds factor × baseline.
            let e = dl.current_energy() as f64;
            let cap = factor * dl.stats().baseline_energy as f64;
            assert!(e <= cap, "energy {e} above cap {cap}");
        }
        assert!(dl.stats().rebuilds >= 1, "threshold should have triggered");
        assert_eq!(dl.stats().insertions, 600);
    }

    #[test]
    fn amortized_rebuilds_are_rare_and_factor_scales() {
        let t = seed_tree(500);
        let mut rng = StdRng::seed_from_u64(5);
        let inserts: Vec<u32> = {
            // Pre-draw a parent sequence usable for both factors (ids
            // are deterministic: 500, 501, …).
            (500..2000).map(|n| rng.gen_range(0..n)).collect()
        };
        let run = |factor: f64| {
            let mut dl = DynamicLayout::new(&t, CurveKind::Hilbert, factor);
            for &p in &inserts {
                dl.insert_leaf(p);
            }
            dl.stats().rebuilds
        };
        let tight = run(2.0);
        let loose = run(8.0);
        // Rebuilds stay a small fraction of the insert count, and a
        // looser tolerance must need strictly fewer of them.
        assert!(tight <= 60, "factor 2: too many rebuilds: {tight}");
        assert!(
            loose < tight,
            "factor 8 should rebuild less than factor 2: {loose} vs {tight}"
        );
    }

    #[test]
    fn light_first_children_describe_the_current_tree() {
        // After construction, after appends (computed on demand), and
        // after a rebuild that reuses them: always the fresh lists.
        let check = |dl: &mut DynamicLayout, what: &str| {
            let tree = dl.tree();
            let (sizes, csr) = dl.light_first_children();
            assert_eq!(sizes, &tree.subtree_sizes()[..], "{what}");
            assert_eq!(csr, &ChildrenCsr::by_size(&tree, sizes), "{what}");
        };
        let t = seed_tree(120);
        let mut dl = DynamicLayout::new(&t, CurveKind::Hilbert, f64::INFINITY);
        check(&mut dl, "construction");
        let mut rng = StdRng::seed_from_u64(6);
        for round in 0..4 {
            for _ in 0..50 {
                let p = rng.gen_range(0..dl.n());
                dl.insert_leaf(p);
            }
            check(&mut dl, "after appends");
            dl.rebuild();
            check(&mut dl, "after rebuild");
            let tree = dl.tree();
            assert_eq!(
                dl.layout().order(),
                &spatial_tree::traversal::light_first_order(&tree)[..],
                "round {round}"
            );
        }
        assert!(dl.stats().grows >= 1, "the stream should cross a growth");
    }

    #[test]
    fn headroom_is_reserved_at_the_first_append() {
        let t = seed_tree(300);
        let mut dl = DynamicLayout::new(&t, CurveKind::Hilbert, f64::INFINITY);
        let lean = dl.resident_bytes();
        dl.light_first_children();
        assert_eq!(dl.resident_bytes(), lean, "reads reserve nothing");
        dl.insert_leaf(0);
        let reserved = dl.resident_bytes();
        assert!(reserved > lean, "{reserved} vs {lean}");
        let mut rng = StdRng::seed_from_u64(9);
        while (dl.n() as u64) < dl.reserved() {
            dl.insert_leaf(rng.gen_range(0..dl.n()));
            dl.light_first_children();
        }
        assert_eq!(dl.stats().grows, 0);
        assert_eq!(dl.resident_bytes(), reserved, "appends within the headroom");
    }

    #[test]
    #[should_panic(expected = "rebuild factor")]
    fn rejects_sub_one_factor() {
        let t = seed_tree(10);
        let _ = DynamicLayout::new(&t, CurveKind::Hilbert, 0.5);
    }
}
