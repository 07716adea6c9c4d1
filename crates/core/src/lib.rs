//! # spatial-trees — Low-Depth Spatial Tree Algorithms
//!
//! A full implementation of *"Low-Depth Spatial Tree Algorithms"*
//! (Baumann, Ben-Nun, Besta, Gianinazzi, Hoefler, Luczynski — IPDPS
//! 2024) on an instrumented spatial computer: a `√n × √n` grid of
//! constant-memory processors where a message costs its Manhattan
//! distance in *energy* and the *depth* is the longest chain of
//! dependent messages.
//!
//! ## What's inside
//!
//! | Paper section | Crate | Entry points |
//! |---|---|---|
//! | §II model & collectives | [`model`] | [`model::Machine`], [`model::collectives`] |
//! | §II-B space-filling curves | [`sfc`] | [`sfc::CurveKind`], [`sfc::locality`] |
//! | §III light-first layouts | [`layout`] | [`layout::Layout`], [`layout::local_kernel_energy`] |
//! | §III-D virtual trees | [`messaging`] | [`messaging::VirtualTree`], [`messaging::local_broadcast`] |
//! | §IV layout construction | [`euler`], [`layout`] | [`layout::build_light_first_spatial`] |
//! | §V treefix sums | [`treefix`] | [`treefix::treefix_bottom_up`], [`treefix::treefix_top_down`] |
//! | §VI batched LCA | [`lca`] | [`lca::batched_lca`] |
//! | §I-C PRAM baseline | [`pram`] | [`pram::pram_subtree_sums`] |
//! | session layer (serving) | [`session`] | [`session::SpatialForest`], [`session::QueryBatch`] |
//! | service layer (sharded, multi-threaded) | [`serve`] | [`serve::ForestService`] |
//! | durability (snapshot + journal) | [`store`] | [`store::ForestSnapshot`], [`session::SpatialForest::recover_from`] |
//!
//! ## Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use spatial_trees::prelude::*;
//!
//! // A random 1000-vertex tree, laid out light-first on a Hilbert curve.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let tree = spatial_trees::tree::generators::uniform_random(1000, &mut rng);
//! let st = SpatialTree::new(tree);
//!
//! // Subtree sums with full energy/depth accounting.
//! let machine = st.machine();
//! let values = vec![Add(1); st.n() as usize];
//! let sums = st.treefix_sum(&machine, &values, &mut rng);
//! assert_eq!(sums.values[st.tree().root() as usize], Add(1000));
//! println!("{}", machine.report()); // energy=…, depth=…
//! ```

pub use spatial_euler as euler;
pub use spatial_layout as layout;
pub use spatial_lca as lca;
pub use spatial_messaging as messaging;
pub use spatial_mincut as mincut;
pub use spatial_model as model;
pub use spatial_pram as pram;
pub use spatial_serve as serve;
pub use spatial_session as session;
pub use spatial_sfc as sfc;
pub use spatial_store as store;
pub use spatial_tree as tree;
pub use spatial_treefix as treefix;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::SpatialTree;
    pub use spatial_layout::{Layout, LayoutKind};
    pub use spatial_lca::{batched_lca, LcaResult};
    pub use spatial_model::{CostReport, CurveKind, EngineLifecycle, Machine};
    pub use spatial_session::{QueryBatch, Request, Response, SpatialForest};
    pub use spatial_tree::{NodeId, Tree};
    pub use spatial_treefix::{Add, CommutativeMonoid, Max, Min};
}

use rand::Rng;
use spatial_layout::Layout;
use spatial_lca::LcaResult;
use spatial_messaging::VirtualTree;
use spatial_model::{CurveKind, Machine};
use spatial_tree::{NodeId, Tree};
use spatial_treefix::{CommutativeMonoid, TreefixResult};

/// A tree stored in an energy-bound light-first layout, with the
/// paper's algorithms as methods. This is the high-level API; the
/// individual crates expose every building block.
pub struct SpatialTree {
    tree: Tree,
    layout: Layout,
    sizes: Vec<u32>,
    virtual_tree: VirtualTree,
}

impl SpatialTree {
    /// Lays the tree out light-first on a Hilbert curve (the default,
    /// distance-bound with the best constant).
    pub fn new(tree: Tree) -> Self {
        Self::with_curve(tree, CurveKind::Hilbert)
    }

    /// Lays the tree out light-first on the given curve.
    pub fn with_curve(tree: Tree, curve: CurveKind) -> Self {
        let layout = Layout::light_first(&tree, curve);
        let sizes = tree.subtree_sizes();
        let virtual_tree = VirtualTree::with_sizes(&tree, &sizes);
        SpatialTree {
            tree,
            layout,
            sizes,
            virtual_tree,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> u32 {
        self.tree.n()
    }

    /// The underlying tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The light-first layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Subtree sizes (`s(v)`).
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// The TRANSFORM virtual tree used for unbounded-degree messaging.
    pub fn virtual_tree(&self) -> &VirtualTree {
        &self.virtual_tree
    }

    /// A fresh machine whose slots match this layout's curve.
    pub fn machine(&self) -> Machine {
        self.layout.machine()
    }

    /// Energy of the fundamental kernel: every vertex messages all its
    /// children once (Theorems 1–2: `O(n)` on this layout).
    pub fn messaging_energy(&self) -> u64 {
        spatial_layout::local_kernel_energy(&self.tree, &self.layout)
    }

    /// Bottom-up treefix sum (§V): `result[v] = ⊕ values over v's
    /// subtree`, charged on `machine`.
    pub fn treefix_sum<M: CommutativeMonoid, R: Rng>(
        &self,
        machine: &Machine,
        values: &[M],
        rng: &mut R,
    ) -> TreefixResult<M> {
        spatial_treefix::treefix_bottom_up(machine, &self.layout, &self.tree, values, rng)
    }

    /// Top-down treefix sum (§V-D): `result[v] = ⊕ values along the
    /// root → v path`, charged on `machine`.
    pub fn treefix_top_down<M: CommutativeMonoid, R: Rng>(
        &self,
        machine: &Machine,
        values: &[M],
        rng: &mut R,
    ) -> TreefixResult<M> {
        spatial_treefix::treefix_top_down(machine, &self.layout, &self.tree, values, rng)
    }

    /// Batched lowest common ancestors (§VI), charged on `machine`.
    pub fn lca_batch<R: Rng>(
        &self,
        machine: &Machine,
        queries: &[(NodeId, NodeId)],
        rng: &mut R,
    ) -> LcaResult {
        spatial_lca::batched_lca(machine, &self.layout, &self.tree, queries, rng)
    }

    /// Local broadcast (§III-D): every vertex's value is delivered to
    /// all its children; returns `received[v]`.
    pub fn local_broadcast<T: Copy>(&self, machine: &Machine, values: &[T]) -> Vec<Option<T>> {
        spatial_messaging::local_broadcast(
            machine,
            &self.layout,
            &self.virtual_tree,
            &self.tree,
            values,
        )
    }

    /// Local reduce (§III-D): every parent receives the ordered
    /// reduction of its children's values; returns `result[p]`.
    pub fn local_reduce<T: Copy, F: Fn(T, T) -> T>(
        &self,
        machine: &Machine,
        values: &[T],
        op: &F,
    ) -> Vec<Option<T>> {
        spatial_messaging::local_reduce(
            machine,
            &self.layout,
            &self.virtual_tree,
            &self.tree,
            values,
            op,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use spatial_treefix::Add;

    #[test]
    fn facade_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let tree = spatial_tree::generators::yule(100, &mut rng);
        let n = tree.n();
        let st = SpatialTree::new(tree);
        assert_eq!(st.n(), n);

        let machine = st.machine();
        let sums = st.treefix_sum(&machine, &vec![Add(1); n as usize], &mut rng);
        let sizes: Vec<u64> = sums.values.iter().map(|a| a.0).collect();
        let expect: Vec<u64> = st.sizes().iter().map(|&s| s as u64).collect();
        assert_eq!(sizes, expect);
        assert!(machine.report().energy > 0);
    }

    #[test]
    fn facade_lca_and_messaging() {
        let mut rng = StdRng::seed_from_u64(2);
        let tree = spatial_tree::generators::uniform_random(200, &mut rng);
        let st = SpatialTree::with_curve(tree, CurveKind::ZOrder);
        let machine = st.machine();

        let res = st.lca_batch(&machine, &[(5, 17), (3, 3)], &mut rng);
        assert_eq!(res.answers.len(), 2);
        assert_eq!(res.answers[1], 3);

        let vals: Vec<u64> = (0..200).collect();
        let received = st.local_broadcast(&machine, &vals);
        assert_eq!(received[st.tree().root() as usize], None);
        let reduced = st.local_reduce(&machine, &vals, &|a, b| a + b);
        let root_sum: u64 = st
            .tree()
            .children(st.tree().root())
            .iter()
            .map(|&c| c as u64)
            .sum();
        assert_eq!(reduced[st.tree().root() as usize], Some(root_sum));
    }

    #[test]
    fn facade_layout_is_light_first_on_every_family() {
        let mut rng = StdRng::seed_from_u64(3);
        for family in spatial_tree::generators::TreeFamily::ALL {
            let tree = family.generate(5000, &mut rng);
            for curve in CurveKind::ENERGY_BOUND {
                let expect = Layout::light_first(&tree, curve);
                let st = SpatialTree::with_curve(tree.clone(), curve);
                assert_eq!(st.layout().order(), expect.order(), "{family} on {curve}");
                assert_eq!(st.layout().curve().kind(), curve, "{family}");
            }
        }
    }

    #[test]
    fn messaging_energy_linear() {
        let tree = spatial_tree::generators::comb(1 << 14);
        let st = SpatialTree::new(tree);
        let per = st.messaging_energy() as f64 / st.n() as f64;
        assert!(per < 4.0, "kernel energy per vertex {per}");
    }
}
