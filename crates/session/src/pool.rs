//! The engine pool: lazily-built, epoch-tagged, capacity-growable
//! engines behind the forest.
//!
//! Engines are built on first use (a forest that only ever answers
//! subtree sums never pays for a subtree cover), invalidated by the
//! forest's mutation epoch, and **rebound** — not rebuilt — where the
//! engine supports it: rebinding reuses every retained flat buffer and
//! only allocates when the tree outgrew the capacity
//! ([`spatial_model::EngineLifecycle::reserve`], amortized doubling).

use rand::rngs::StdRng;
use rand::SeedableRng;
use spatial_euler::ranking::RankingEngine;
use spatial_layout::{Layout, LayoutEngine};
use spatial_lca::LcaEngine;
use spatial_model::{CurveKind, EngineLifecycle, Slot};
use spatial_pram::{PramEngine, PramTreefix};
use spatial_tree::{ChildrenCsr, NodeId, Tree};
use spatial_treefix::contraction::ContractionEngine;
use spatial_treefix::Add;

/// Build/rebind counters of the pool (observability + test hooks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Fresh engine constructions (first use after a kind's cold start).
    pub builds: u32,
    /// Structure rebinds into retained buffers (epoch misses).
    pub rebinds: u32,
    /// Capacity growths across all engines.
    pub grows: u32,
    /// Subtree-sum runs served by the LCA engine's contraction engine,
    /// bound to the same epoch's tree, instead of the pool's own.
    pub treefix_shared: u32,
}

/// Grows `engine` to the next power of two at or above `n` when `n`
/// exceeds its capacity, counting the growth: the one growth policy of
/// the pool's rebindable engines.
fn grow_for(engine: &mut impl EngineLifecycle, n: usize, stats: &mut PoolStats) {
    if n > engine.capacity() {
        engine.reserve(n.next_power_of_two());
        stats.grows += 1;
    }
}

/// The forest's engine pool. Every engine is optional until first use;
/// `u64::MAX` marks "never bound".
pub struct EnginePool {
    curve: CurveKind,
    /// Base seed for the PRAM shadow engine's hashed cell placement
    /// (deterministic per epoch so fresh and reused forests charge
    /// identically).
    pram_seed: u64,
    stats: PoolStats,

    /// §VI-C batched LCA.
    lca: Option<LcaEngine>,
    lca_epoch: u64,
    /// §V treefix contraction (subtree sums) for epochs the LCA engine
    /// is not bound to: layouts left dirty by tail appends, and forests
    /// that have answered no LCA query this epoch. The tree structure
    /// is bound once per such epoch ([`EnginePool::treefix_for`]); each
    /// session only loads the weights.
    treefix: ContractionEngine<Add>,
    treefix_epoch: u64,
    /// Theorem 5 list ranking over the light-first Euler tour darts.
    ranking: Option<RankingEngine>,
    ranking_epoch: u64,
    /// §IV on-machine layout construction (charged build reports).
    layout_engine: Option<LayoutEngine>,
    layout_epoch: u64,
    /// PRAM shadow (crossover mode): the same subtree sums priced on
    /// the §I-C simulation.
    pram: Option<(PramEngine, PramTreefix)>,
    pram_epoch: u64,
}

impl EnginePool {
    /// An empty pool whose treefix engine is pre-sized for `cap`
    /// vertices.
    pub(crate) fn new(curve: CurveKind, cap: usize, pram_seed: u64) -> Self {
        EnginePool {
            curve,
            pram_seed,
            stats: PoolStats::default(),
            lca: None,
            lca_epoch: u64::MAX,
            treefix: ContractionEngine::with_capacity(cap),
            treefix_epoch: u64::MAX,
            ranking: None,
            ranking_epoch: u64::MAX,
            layout_engine: None,
            layout_epoch: u64::MAX,
            pram: None,
            pram_epoch: u64::MAX,
        }
    }

    /// Build/rebind counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Whether the batched-LCA engine has been built.
    pub fn has_lca(&self) -> bool {
        self.lca.is_some()
    }

    /// Whether the ranking engine has been built.
    pub fn has_ranking(&self) -> bool {
        self.ranking.is_some()
    }

    /// Whether the layout engine has been built.
    pub fn has_layout_engine(&self) -> bool {
        self.layout_engine.is_some()
    }

    /// The treefix engine's current capacity (vertices).
    pub fn treefix_capacity(&self) -> usize {
        self.treefix.capacity()
    }

    /// Grows the treefix engine for a tree of `n` vertices, counting
    /// the growth. (The other engines grow inside their rebinds.)
    pub(crate) fn reserve_treefix(&mut self, n: usize) {
        grow_for(&mut self.treefix, n, &mut self.stats);
    }

    /// A treefix engine with `epoch`'s tree structure bound. When the
    /// LCA engine is bound to `epoch`, its contraction engine already
    /// holds that structure — the same parents, slots and light-first
    /// CSR — and serves the run. Otherwise the pool's own engine does:
    /// an epoch miss grows it for the tree and rebinds the structure
    /// from the forest's cached parent, slot and CSR arrays.
    pub(crate) fn treefix_for(
        &mut self,
        epoch: u64,
        parents: &[NodeId],
        slots: &[Slot],
        csr: &ChildrenCsr,
    ) -> &mut ContractionEngine<Add> {
        if self.lca_epoch == epoch {
            if let Some(lca) = self.lca.as_mut() {
                self.stats.treefix_shared += 1;
                return lca.treefix_mut();
            }
        }
        if self.treefix_epoch != epoch {
            grow_for(&mut self.treefix, parents.len(), &mut self.stats);
            self.treefix.bind_structure(parents, slots, csr);
            if self.treefix_epoch != u64::MAX {
                self.stats.rebinds += 1;
            }
            self.treefix_epoch = epoch;
        }
        &mut self.treefix
    }

    /// The LCA engine, built or rebound for `epoch` from the epoch's
    /// subtree sizes and light-first child CSR; an epoch miss that
    /// outgrows it grows it to the next power of two.
    pub(crate) fn lca_for(
        &mut self,
        epoch: u64,
        layout: &Layout,
        tree: &Tree,
        sizes: &[u32],
        csr: &ChildrenCsr,
    ) -> &mut LcaEngine {
        match &mut self.lca {
            None => {
                self.lca = Some(LcaEngine::with_parts(layout, tree, sizes, csr));
                self.stats.builds += 1;
            }
            Some(engine) if self.lca_epoch != epoch => {
                grow_for(engine, tree.n() as usize, &mut self.stats);
                engine.bind_parts(layout, tree, sizes, csr);
                self.stats.rebinds += 1;
            }
            Some(_) => {}
        }
        self.lca_epoch = epoch;
        self.lca.as_mut().expect("just built")
    }

    /// The ranking engine, built or rebound for `epoch` over the tour
    /// successor darts.
    pub(crate) fn ranking_for(
        &mut self,
        epoch: u64,
        tour_next: &[u32],
        tour_start: u32,
    ) -> &mut RankingEngine {
        match &mut self.ranking {
            None => {
                self.ranking = Some(RankingEngine::new(tour_next, tour_start));
                self.stats.builds += 1;
            }
            Some(engine) if self.ranking_epoch != epoch => {
                grow_for(engine, tour_next.len(), &mut self.stats);
                engine.bind(tour_next, tour_start);
                self.stats.rebinds += 1;
            }
            Some(_) => {}
        }
        self.ranking_epoch = epoch;
        self.ranking.as_mut().expect("just built")
    }

    /// The §IV layout engine for `epoch` (structure is per-tree, so an
    /// epoch miss reconstructs it — see
    /// [`spatial_layout::LayoutEngine`]'s lifecycle notes).
    pub(crate) fn layout_engine_for(&mut self, epoch: u64, tree: &Tree) -> &mut LayoutEngine {
        if self.layout_engine.is_none() || self.layout_epoch != epoch {
            if self.layout_engine.is_none() {
                self.stats.builds += 1;
            } else {
                self.stats.rebinds += 1;
            }
            self.layout_engine = Some(LayoutEngine::new(tree, self.curve));
            self.layout_epoch = epoch;
        }
        self.layout_engine.as_mut().expect("just built")
    }

    /// The PRAM shadow pair for `epoch` (crossover mode). The engine's
    /// hashed cell placement is derived from `pram_seed ^ epoch`, so a
    /// replayed stream prices identically.
    pub(crate) fn pram_for(&mut self, epoch: u64, tree: &Tree) -> &mut (PramEngine, PramTreefix) {
        if self.pram.is_none() || self.pram_epoch != epoch {
            if self.pram.is_none() {
                self.stats.builds += 1;
            } else {
                self.stats.rebinds += 1;
            }
            let n = tree.n();
            let mut rng = StdRng::seed_from_u64(self.pram_seed ^ epoch);
            // ≥ 2n cells: the treefix scatters one value per tour dart.
            self.pram = Some((
                PramEngine::with_curve(self.curve, n, 2 * n.max(1), &mut rng),
                PramTreefix::new(tree),
            ));
            self.pram_epoch = epoch;
        }
        self.pram.as_mut().expect("just built")
    }
}
