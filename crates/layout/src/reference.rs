//! The seed §IV on-machine layout construction, retained verbatim as
//! the differential baseline for [`crate::engine::LayoutEngine`].
//!
//! This implementation allocates per build (fresh machines, nested
//! child lists, `Vec<(u32, u32)>` sort records, `Option`-padded bitonic
//! buffers via [`collectives::bitonic_sort_by_key`]) and re-derives the
//! per-stage network energies with distance sums on every stage of
//! every run. The `engine_vs_reference` suite pins the flat-array
//! engine to it — identical layouts, per-phase cost reports, ranking
//! rounds, and kernel energies on arbitrary trees, curves, and seeds.

use rand::Rng;
use spatial_euler::ranking::rank_spatial;
use spatial_euler::tour::{ChildOrder, EulerTour};
use spatial_model::{collectives, CostReport, Machine, Slot};
use spatial_sfc::{Curve, CurveKind, GridPoint};
use spatial_tree::{traversal, NodeId, Tree};

use crate::builder::{ranks_to_u32, SpatialBuildReport};
use crate::layout::Layout;

/// Machine for a tour: dart `d` lives on the processor of its owning
/// vertex `⌊d/2⌋`, placed at curve position = vertex id (the arbitrary
/// *input* placement the paper starts from).
pub(crate) fn dart_machine(curve_kind: CurveKind, n: u32) -> Machine {
    let curve = curve_kind.for_capacity(n as u64);
    // Batch the n vertex positions, then fan each out to its two darts.
    let mut vertex_points = vec![GridPoint::default(); n as usize];
    curve.point_range_batch(0, &mut vertex_points);
    let points: Vec<GridPoint> = vertex_points.into_iter().flat_map(|p| [p, p]).collect();
    Machine::from_points(points)
}

/// The seed dynamic layout, retained as the wall-clock baseline for
/// `bench-json-layout`: every insert clones the whole linear order,
/// rebuilds the [`Layout`] (re-running the permutation check and the
/// curve transform), and recomputes the kernel energy from scratch —
/// `O(n)` per insert where [`crate::DynamicLayout`] pays `O(1)`.
pub struct ReferenceDynamicLayout {
    parents: Vec<NodeId>,
    root: NodeId,
    curve: CurveKind,
    layout: Layout,
    rebuild_factor: f64,
    /// (insertions, rebuilds, baseline energy) — the seed's stats.
    pub stats: (u64, u32, u64),
}

impl ReferenceDynamicLayout {
    /// Seed semantics: layout capacity tracks the exact vertex count.
    pub fn new(tree: &Tree, curve: CurveKind, rebuild_factor: f64) -> Self {
        assert!(rebuild_factor >= 1.0, "rebuild factor must be ≥ 1");
        let layout = Layout::light_first(tree, curve);
        let baseline = crate::quality::local_kernel_energy(tree, &layout);
        ReferenceDynamicLayout {
            parents: tree.parents().to_vec(),
            root: tree.root(),
            curve,
            layout,
            rebuild_factor,
            stats: (0, 0, baseline.max(1)),
        }
    }

    /// Current number of vertices.
    pub fn n(&self) -> u32 {
        self.parents.len() as u32
    }

    /// Materializes the current tree.
    pub fn tree(&self) -> Tree {
        Tree::from_parents(self.root, self.parents.clone())
    }

    /// Kernel energy of the current placement, recomputed from scratch.
    pub fn current_energy(&self) -> u64 {
        crate::quality::local_kernel_energy(&self.tree(), &self.layout)
    }

    /// Seed insert: append at the curve tail by rebuilding the layout.
    pub fn insert_leaf(&mut self, parent: NodeId) -> NodeId {
        assert!(parent < self.n(), "parent {parent} out of range");
        let v = self.n() as NodeId;
        self.parents.push(parent);
        self.stats.0 += 1;
        let mut order = self.layout.order().to_vec();
        order.push(v);
        self.layout = Layout::from_order(self.curve, order);
        let energy = self.current_energy();
        if energy as f64 > self.rebuild_factor * self.stats.2 as f64 {
            let tree = self.tree();
            self.layout = Layout::light_first(&tree, self.curve);
            self.stats.1 += 1;
            self.stats.2 = crate::quality::local_kernel_energy(&tree, &self.layout).max(1);
        }
        v
    }
}

/// The seed spatial light-first build (Theorem 4), kept as the
/// differential baseline. Same contract as
/// [`crate::builder::build_light_first_spatial`].
pub fn build_light_first_spatial_reference<R: Rng>(
    tree: &Tree,
    curve_kind: CurveKind,
    rng: &mut R,
) -> (Layout, SpatialBuildReport) {
    let n = tree.n();
    if n == 1 {
        let layout = Layout::from_order(curve_kind, vec![tree.root()]);
        let empty = CostReport::default();
        return (
            layout,
            SpatialBuildReport {
                sizes_phase: empty,
                order_phase: empty,
                permute_phase: empty,
                ranking_rounds: (0, 0),
            },
        );
    }

    // ---- Phase 1: subtree sizes from a natural-order tour. ----
    let m1 = dart_machine(curve_kind, n);
    let tour1 = EulerTour::new(tree, ChildOrder::Natural);
    let ranking1 = rank_spatial(&m1, tour1.next_darts(), tour1.start(), rng);
    let ranks1 = ranks_to_u32(&ranking1.ranks);
    let sizes = spatial_euler::tour::subtree_sizes_from_ranks(tree, &ranks1);
    let sizes_phase = m1.report();

    // ---- Phase 2: light-first tour, ranking, compaction. ----
    let m2 = dart_machine(curve_kind, n);
    let sorted = traversal::children_by_size(tree, &sizes);
    let tour2 = EulerTour::with_children(tree, |v| &sorted[v as usize][..]);
    let ranking2 = rank_spatial(&m2, tour2.next_darts(), tour2.start(), rng);
    let ranks2 = ranks_to_u32(&ranking2.ranks);

    // Compaction (§IV step 3): physically gather darts into rank order
    // with a sorting network, then drop non-first occurrences with a
    // parallel prefix sum over the curve order.
    let mut rank_keyed: Vec<(u32, u32)> = tour2
        .sequence()
        .iter()
        .map(|&d| (ranks2[d as usize], d))
        .collect();
    collectives::bitonic_sort_by_key(&m2, &mut rank_keyed);
    let flags: Vec<u64> = rank_keyed
        .iter()
        .map(|&(_, d)| u64::from(spatial_euler::tour::is_down(d)))
        .collect();
    let scan = collectives::exclusive_prefix_sum(&m2, &flags, 0, &|a, b| a + b);
    // Vertex at light-first position 1 + scan[i] for each first
    // occurrence; the root occupies position 0.
    let mut order = vec![tree.root(); n as usize];
    for (i, &(_, d)) in rank_keyed.iter().enumerate() {
        if spatial_euler::tour::is_down(d) {
            let pos = 1 + scan[i] as usize;
            order[pos] = spatial_euler::tour::dart_vertex(d);
        }
    }
    let order_phase = m2.report();

    // ---- Phase 3: permutation routing to the final curve positions. ----
    let m3 = Machine::on_curve(curve_kind, n);
    let mut records: Vec<(Slot, NodeId)> = order
        .iter()
        .enumerate()
        .map(|(target, &v)| (target as Slot, v))
        .collect();
    // Input placement: vertex id order. Route each record to its target
    // slot through the sorting network.
    records.sort_by_key(|&(_, v)| v);
    collectives::bitonic_sort_by_key(&m3, &mut records);
    let routed: Vec<NodeId> = records.into_iter().map(|(_, v)| v).collect();
    debug_assert_eq!(routed, order, "routing must realize the permutation");
    let permute_phase = m3.report();

    let layout = Layout::from_order(curve_kind, routed);
    (
        layout,
        SpatialBuildReport {
            sizes_phase,
            order_phase,
            permute_phase,
            ranking_rounds: (ranking1.rounds, ranking2.rounds),
        },
    )
}
