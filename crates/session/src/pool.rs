//! The engine pool: lazily-built, epoch-tagged, capacity-growable
//! engines behind the forest.
//!
//! Engines are built on first use (a forest that only ever answers
//! subtree sums never pays for a subtree cover), invalidated by the
//! forest's mutation epoch, and **rebound** — not rebuilt — where the
//! engine supports it: rebinding reuses every retained flat buffer and
//! only allocates when the tree outgrew the capacity
//! ([`spatial_model::EngineLifecycle::reserve`], amortized doubling).
//!
//! The pool's engines hold their per-tree structure only. The buffers
//! the contraction, the subtree sums' host pass and the list ranking
//! need while they run, and the machines every run charges, live in a
//! [`SessionScratch`] that the forest borrows for each execute, so
//! forests that run one at a time can share one set.

use crate::forest::ResidentBytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spatial_euler::ranking::{RankingEngine, RankingRun};
use spatial_euler::tour::EulerTour;
use spatial_layout::{DynamicLayout, Layout, TreeParts};
use spatial_lca::LcaStructure;
use spatial_model::{vec_bytes, CurveKind, EngineLifecycle, Machine, Slot};
use spatial_pram::{PramEngine, PramTreefix};
use spatial_tree::{ChildrenCsr, NodeId};
use spatial_treefix::contraction::{ContractionEngine, ContractionRun};
use spatial_treefix::{Add, VALUED_CHECKS};

/// What an execute needs only while it runs: one set of run buffers
/// for each pooled engine that needs them (the §V contraction's
/// [`ContractionRun`] and the Euler-tour list ranking's
/// [`RankingRun`]), the buffer the subtree sums' host pass folds into,
/// and the two machines the session charges, the grid machine and the
/// two-slots-per-vertex dart machine. A forest borrows the set for an
/// execute ([`crate::SpatialForest::execute_with`]), lends the run
/// buffers to an engine for each run, and re-points the machines onto
/// its own geometry, so forests that run one at a time — a service
/// shard's tenants — can share one set instead of each keeping its own.
/// A set holds no tree: the engines and the sums pass rewrite every
/// buffer they read, a machine is reset at every re-point and only
/// recomputes its points when the curve or the slot count changes
/// ([`Machine::repoint`]), and a set that is too small for the tree it
/// serves grows. [`SessionScratch::new`] allocates nothing.
#[derive(Default)]
pub struct SessionScratch {
    pub(crate) contraction: ContractionRun<Add>,
    pub(crate) ranking: RankingRun,
    /// The subtree sums of the session in flight, by vertex id: the
    /// host pass over the contraction engine's preorder
    /// ([`spatial_treefix::treefix_bottom_up_host_into`]).
    pub(crate) sums: Vec<Add>,
    /// Grid machine: slots `0..n` of the layout's curve.
    pub(crate) machine: Machine,
    /// Dart machine: `2n` slots on the curve family's curve for `2n`.
    pub(crate) dart_machine: Machine,
}

impl SessionScratch {
    /// An empty set: it allocates nothing until a forest runs on it or
    /// it is reserved.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the run buffers, the sum buffer and both machines for
    /// forests of up to `vertices` vertices (the ranking and the dart
    /// machine run over two tour darts per vertex). A run grows a
    /// smaller set by itself; reserving only moves that allocation
    /// ahead of the first run. The contraction's value buffers
    /// ([`ContractionRun::reserve_values`]) are reserved only where
    /// sessions run valued passes ([`VALUED_CHECKS`]: builds with debug
    /// assertions).
    pub fn reserve(&mut self, vertices: usize) {
        self.contraction.reserve(vertices);
        if VALUED_CHECKS {
            self.contraction.reserve_values(vertices);
        }
        self.ranking.reserve(2 * vertices);
        self.sums
            .reserve_exact(vertices.saturating_sub(self.sums.len()));
        self.machine.reserve(vertices);
        self.dart_machine.reserve(2 * vertices);
    }

    /// Heap bytes the set keeps resident, by capacity.
    pub fn resident_bytes(&self) -> usize {
        self.contraction_bytes() + self.ranking.resident_bytes() + self.machines_bytes()
    }

    /// Heap bytes of the set's contraction run buffers and sum buffer.
    pub(crate) fn contraction_bytes(&self) -> usize {
        self.contraction.resident_bytes() + vec_bytes(&self.sums)
    }

    /// Heap bytes of the set's two machines.
    pub(crate) fn machines_bytes(&self) -> usize {
        self.machine.resident_bytes() + self.dart_machine.resident_bytes()
    }
}

/// Build/rebind counters of the pool (observability + test hooks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Fresh engine constructions (first use after a kind's cold start).
    pub builds: u32,
    /// Structure rebinds into retained buffers (epoch misses).
    pub rebinds: u32,
    /// Capacity growths across all engines.
    pub grows: u32,
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
    stats: PoolStats,

    /// §V treefix contraction: the forest's only contraction engine.
    /// LCA steps 1 and 3 ([`LcaStructure::run_on`]) and the subtree sums
    /// all run on it. Its tree structure is bound at most once per
    /// epoch ([`EnginePool::treefix_for`]); each pass only loads its
    /// values.
    treefix: Option<ContractionEngine<Add>>,
    treefix_epoch: u64,
    /// §VI-C batched LCA: the per-tree structure only; it borrows
    /// `treefix` for its runs.
    lca: Option<LcaStructure>,
    lca_epoch: u64,
    /// Theorem 5 list ranking over the light-first Euler tour darts.
    ranking: Option<RankingEngine>,
    ranking_epoch: u64,
    /// PRAM shadow (crossover mode): the same subtree sums priced on
    /// the §I-C simulation.
    pram: Option<(PramEngine, PramTreefix)>,
    pram_epoch: u64,
}

impl EnginePool {
    /// An empty pool: every engine is built on first use.
    pub(crate) fn new(curve: CurveKind) -> Self {
        EnginePool {
            curve,
            stats: PoolStats::default(),
            treefix: None,
            treefix_epoch: u64::MAX,
            lca: None,
            lca_epoch: u64::MAX,
            ranking: None,
            ranking_epoch: u64::MAX,
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

    /// How many contraction engines the pool's engines hold: the
    /// pool's own, once used (the LCA structure runs on it and holds
    /// none). At most 1.
    pub fn contraction_engines(&self) -> usize {
        self.treefix.is_some() as usize
    }

    /// Fills the serving engines' parts of a forest's census: the LCA
    /// engine, the contraction engine and the ranking engine (an engine
    /// not yet built holds none; between runs an engine holds its
    /// structure only). The crossover PRAM shadow is not counted.
    pub(crate) fn census(&self, bytes: &mut ResidentBytes) {
        bytes.lca = self.lca.as_ref().map_or(0, LcaStructure::resident_bytes);
        bytes.contraction = self
            .treefix
            .as_ref()
            .map_or(0, ContractionEngine::resident_bytes);
        bytes.ranking = self
            .ranking
            .as_ref()
            .map_or(0, RankingEngine::resident_bytes);
    }

    /// Creates the contraction engine with structure capacity for `n`
    /// vertices, or grows it to the next power of two at or above `n`,
    /// counting the build or growth. The engine holds no run buffers of
    /// its own: the forest lends it a [`SessionScratch`]'s for each run.
    pub(crate) fn reserve_treefix(&mut self, n: usize) -> &mut ContractionEngine<Add> {
        if let Some(engine) = self.treefix.as_mut() {
            grow_for(engine, n, &mut self.stats);
        } else {
            self.stats.builds += 1;
        }
        self.treefix.get_or_insert_with(|| {
            let mut engine = ContractionEngine::default();
            engine.reserve(n);
            engine
        })
    }

    /// The contraction engine with `epoch`'s tree structure bound: built
    /// on first use, and on an epoch miss grown for the tree and
    /// rebound from the forest's parent, slot and light-first CSR
    /// arrays — at most once per epoch, however many passes run on it.
    pub(crate) fn treefix_for(
        &mut self,
        epoch: u64,
        parents: &[NodeId],
        slots: &[Slot],
        csr: &ChildrenCsr,
    ) -> &mut ContractionEngine<Add> {
        let last = std::mem::replace(&mut self.treefix_epoch, epoch);
        if last != epoch && last != u64::MAX {
            self.stats.rebinds += 1;
        }
        let engine = self.reserve_treefix(parents.len());
        if last != epoch {
            engine.bind_structure(parents, slots, csr);
        }
        engine
    }

    /// The LCA structure, built or rebound for `epoch` from the epoch's
    /// tree parts (parents, slots, subtree sizes and light-first child
    /// CSR, lent, not copied), together with the contraction engine it
    /// runs on, bound to the same epoch's tree.
    pub(crate) fn lca_for(
        &mut self,
        epoch: u64,
        layout: &Layout,
        tree: TreeParts,
    ) -> (&mut LcaStructure, &mut ContractionEngine<Add>) {
        match &mut self.lca {
            None => {
                self.lca = Some(LcaStructure::with_parts(layout, tree));
                self.stats.builds += 1;
            }
            Some(engine) if self.lca_epoch != epoch => {
                engine.bind_parts(layout, tree);
                self.stats.rebinds += 1;
            }
            Some(_) => {}
        }
        self.lca_epoch = epoch;
        self.treefix_for(epoch, tree.parents, tree.slots, tree.csr);
        (
            self.lca.as_mut().expect("just built"),
            self.treefix.as_mut().expect("just bound"),
        )
    }

    /// The ranking engine, built or rebound for `epoch` over the darts
    /// of the tree's light-first Euler tour. The tour is threaded from
    /// the light-first child lists `csr` and the `root` only when the
    /// engine (re)binds, and dropped once the engine has read it. Like
    /// the contraction engine, the ranking engine holds no run buffers
    /// of its own.
    pub(crate) fn ranking_for(
        &mut self,
        epoch: u64,
        root: NodeId,
        csr: &ChildrenCsr,
    ) -> &mut RankingEngine {
        let bound = self.ranking.is_some() && self.ranking_epoch == epoch;
        if !bound {
            let tour = EulerTour::from_csr(csr, root);
            let (next, start) = (tour.next_darts(), tour.start());
            match &mut self.ranking {
                None => {
                    let mut engine = RankingEngine::default();
                    engine.reserve(next.len());
                    engine.bind(next, start);
                    self.ranking = Some(engine);
                    self.stats.builds += 1;
                }
                Some(engine) => {
                    grow_for(engine, next.len(), &mut self.stats);
                    engine.bind(next, start);
                    self.stats.rebinds += 1;
                }
            }
        }
        self.ranking_epoch = epoch;
        self.ranking.as_mut().expect("just built")
    }

    /// Base seed of the PRAM shadow's hashed cell placement: one fixed
    /// value, so fresh, reused and recovered forests price the shadow
    /// identically.
    const PRAM_SEED: u64 = 0x5eed_0f0e;

    /// The PRAM shadow pair for `epoch` (crossover mode). The engine's
    /// hashed cell placement is derived from `PRAM_SEED ^ epoch`, so a
    /// replayed stream prices identically. The shadow's treefix is built
    /// over a tree materialized from `dynamic` for it and dropped, only
    /// when the pair (re)builds.
    pub(crate) fn pram_for(
        &mut self,
        epoch: u64,
        dynamic: &DynamicLayout,
    ) -> &mut (PramEngine, PramTreefix) {
        if self.pram.is_none() || self.pram_epoch != epoch {
            if self.pram.is_none() {
                self.stats.builds += 1;
            } else {
                self.stats.rebinds += 1;
            }
            let tree = dynamic.tree();
            let n = tree.n();
            let mut rng = StdRng::seed_from_u64(Self::PRAM_SEED ^ epoch);
            // ≥ 2n cells: the treefix scatters one value per tour dart.
            self.pram = Some((
                PramEngine::with_curve(self.curve, n, 2 * n.max(1), &mut rng),
                PramTreefix::new(&tree),
            ));
            self.pram_epoch = epoch;
        }
        self.pram.as_mut().expect("just built")
    }
}
