//! The four-step batched LCA algorithm (§VI-C, Theorem 6) as a
//! reusable flat-array engine.
//!
//! [`LcaEngine`] separates the rng-independent structure of the
//! algorithm — the TRANSFORM relay schedule, the heavy-path
//! decomposition, and the layer-indexed CSR [`SubtreeCover`] — from
//! the per-run work. All three are read off one input: the tree's
//! parents, subtree sizes and light-first child CSR, placed by a
//! light-first layout (the heavy child is the last entry of each list;
//! heads, layers and cover ranges follow the layout's slot order).
//!
//! An [`LcaStructure`] keeps only what it derives. The tree itself —
//! parents, slots, sizes and CSR, a [`TreeParts`] — stays with whoever
//! keeps it and is lent to every bind and every run:
//! [`LcaStructure::with_parts`] and [`LcaStructure::bind_parts`] take it
//! from the caller (the session forest lends its dynamic layout's
//! arrays, which it keeps once per insert epoch and shares with the
//! Euler tour and the subtree-sum treefix), and [`LcaStructure::run_on`]
//! takes it again at each run. [`LcaEngine`] is that structure plus a
//! copy of the tree: [`LcaEngine::new`] and [`LcaEngine::bind`] compute
//! the sizes and CSR from a [`Tree`] into the copy, and
//! [`LcaEngine::run`] and [`LcaEngine::run_into`] lend it the same way,
//! so both kinds of caller go through one bind and one run. A run
//! charges exactly the costs of §VI-C:
//!
//! 1. one bottom-up treefix (subtree sizes → ranges; Theorem 6 step 1),
//! 2. the virtual-tree construction, charged in closed form from the
//!    precomputed CSR schedule (one pass over its delivery pairs that
//!    reads only the first relay round's clocks, then one bulk charge
//!    and one floor lift; traced machines replay it), and two
//!    range/heavy-child broadcasts replayed from the same schedule
//!    (step 2),
//! 3. one top-down treefix over the light-edge indicator (step 3),
//! 4. per layer, the Lemma 13 range broadcast inside every cover
//!    subtree plus a synchronization barrier — charged in closed form
//!    by a [`LayeredBroadcast`] computed at bind for the layout's curve
//!    prefix. Its energy, messages and work are per-structure
//!    constants. The first layer's barrier floor is a max-plus pass
//!    over the entry clocks with per-slot weights, and each later layer
//!    adds a per-structure constant to the floor, so a run costs one
//!    `O(n)` pass, one bulk charge and one floor lift. Traced machines,
//!    and machines not on that curve prefix, replay the broadcasts and
//!    barriers instead, with identical charges.
//!
//! Queries are resolved by walking each endpoint's head chain (the at
//! most `O(log n)` cover subtrees containing it) instead of rescanning
//! the whole batch once per layer. Costs: `O(n log n)` energy and
//! `O(log² n)` depth w.h.p. for `O(1)` queries per vertex (Theorem 6).
//!
//! Both treefix passes run on one [`ContractionEngine`] bound to the
//! same tree. The answers read the sizes, heads and layers the bind
//! derived, never the passes' values, so outside builds with debug
//! assertions both passes are charge-only
//! ([`ContractionEngine::charge_only_run`]: the charges, draws and
//! stats of a valued pass, no values). Builds with debug assertions run
//! them valued, loading step 1's ones and step 3's light-edge indicator
//! by rule, without an array, and check the sizes and layers they
//! compute against the bind's. A caller that
//! keeps such an engine (the session forest, which also runs its
//! subtree sums on it) lends it to [`LcaStructure::run_on`], so a tree
//! has one contraction engine, not two. [`LcaEngine::run_into`] runs on
//! an engine the LCA engine creates on first use and binds with its
//! copy of the tree ([`LcaEngine::treefix_mut`]). Either way a run
//! performs **zero heap allocation** once the contraction engine exists
//! (the answers land in a caller-retained buffer). The seed
//! implementation is retained as
//! [`crate::reference::batched_lca_reference`]; the differential suite
//! pins this engine to it bit for bit (answers, stats, charges).

use crate::cover::SubtreeCover;
use rand::Rng;
use spatial_layout::{Layout, TreeParts};
use spatial_messaging::{BroadcastSchedule, VirtualTree};
use spatial_model::collectives::{self, LayeredBroadcast};
use spatial_model::{vec_bytes, EngineLifecycle, Machine, Slot};
use spatial_tree::{ChildrenCsr, HeavyPathDecomposition, NodeId, Tree, NIL};
use spatial_treefix::contraction::ContractionEngine;
use spatial_treefix::{Add, VALUED_CHECKS};

/// Cost-relevant statistics of a batched LCA run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LcaStats {
    /// Number of path-decomposition layers processed in step 4.
    pub layers: u32,
    /// Queries answered already in step 1 (ancestor/descendant pairs).
    pub answered_step1: u32,
    /// COMPACT rounds of the two treefix runs (steps 1 and 3).
    pub treefix_rounds: (u32, u32),
}

/// Result of a batched LCA run.
#[derive(Debug, Clone)]
pub struct LcaResult {
    /// `answers[q]` is the LCA of `queries[q]`.
    pub answers: Vec<NodeId>,
    /// Cost statistics.
    pub stats: LcaStats,
}

/// What the batched LCA derives from a tree + layout pair, rebuilt by
/// every bind. The tree it derives from is lent to every run
/// ([`TreeParts`]).
struct Derived {
    n: u32,
    root: NodeId,
    /// CSR relay rounds of the TRANSFORM virtual tree (step 2): the
    /// delivery pairs, from which the construction exchange is charged
    /// in closed form and the broadcasts are replayed.
    schedule: BroadcastSchedule,
    /// Heavy-path head of every vertex. Step 3's light-edge indicator
    /// is `head[v] == v` off the root.
    head: Vec<NodeId>,
    /// Path-decomposition layer of every vertex.
    layer: Vec<u32>,
    /// The layer-indexed CSR subtree cover (§VI-B).
    cover: SubtreeCover,
    /// Step 4's broadcasts and barriers over the cover, in closed form
    /// for the layout's curve prefix.
    step4: LayeredBroadcast,
}

impl Derived {
    /// The per-tree structure of `tree` in `layout`: the relay tree,
    /// the heavy-path decomposition and the cover are all read off the
    /// light-first CSR, the last two walking the layout's slot order.
    /// The only bind path: lent parts and an [`LcaEngine`]'s own copy
    /// both come through here.
    fn build(layout: &Layout, tree: TreeParts) -> Self {
        let n = tree.n();
        assert_eq!(layout.n(), n, "layout size mismatch");
        assert_eq!(tree.slots.len(), n as usize, "one slot per vertex");
        assert_eq!(tree.sizes.len(), n as usize, "one subtree size per vertex");
        assert_eq!(tree.csr.n(), n, "children CSR size mismatch");
        if cfg!(debug_assertions) {
            let t = Tree::from_parents(tree.root, tree.parents.to_vec());
            debug_assert_eq!(
                spatial_tree::traversal::verify_light_first(&t, layout.order()),
                Ok(()),
                "batched LCA requires a light-first layout"
            );
            debug_assert!(
                tree.slots == layout.slots()
                    && tree.sizes == t.subtree_sizes()
                    && *tree.csr == ChildrenCsr::by_size(&t, tree.sizes),
                "slots, sizes and CSR must be the layout's slots and the tree's subtree sizes and light-first child lists"
            );
        }
        let vt = VirtualTree::with_csr(tree.csr, tree.root);
        let schedule = BroadcastSchedule::new(&vt, layout, tree.root);
        let decomposition = HeavyPathDecomposition::from_csr(tree.csr, layout.order());
        let cover = SubtreeCover::new(tree.parents, layout, &decomposition, tree.sizes);
        let step4 = LayeredBroadcast::new(
            layout.curve(),
            n,
            (0..cover.num_layers()).map(|li| cover.layer_ranges(li)),
        );
        Derived {
            n,
            root: tree.root,
            schedule,
            head: decomposition.head,
            layer: decomposition.layer,
            cover,
            step4,
        }
    }
}

/// The tree of an [`LcaEngine`]: its own copy of the parts a caller
/// that keeps them lends an [`LcaStructure`] instead.
struct OwnedTree {
    root: NodeId,
    parents: Vec<NodeId>,
    slots: Vec<Slot>,
    sizes: Vec<u32>,
    csr: ChildrenCsr,
}

impl OwnedTree {
    /// Copies `tree`'s parents and `layout`'s slots, and computes the
    /// subtree sizes and light-first child CSR.
    fn of(layout: &Layout, tree: &Tree) -> Self {
        let sizes = tree.subtree_sizes();
        let csr = ChildrenCsr::by_size(tree, &sizes);
        OwnedTree {
            root: tree.root(),
            parents: tree.parents().to_vec(),
            slots: layout.slots().to_vec(),
            sizes,
            csr,
        }
    }

    fn parts(&self) -> TreeParts<'_> {
        TreeParts {
            root: self.root,
            parents: &self.parents,
            slots: &self.slots,
            sizes: &self.sizes,
            csr: &self.csr,
        }
    }

    fn resident_bytes(&self) -> usize {
        vec_bytes(&self.parents)
            + vec_bytes(&self.slots)
            + vec_bytes(&self.sizes)
            + self.csr.resident_bytes()
    }
}

/// The batched LCA's per-tree structure over a tree it does not keep:
/// what it derives (relay schedule, heads, layers, cover, step 4's
/// entry weights) and the per-run chain scratch. The tree — parents,
/// slots, sizes and CSR, a [`TreeParts`] — stays with the caller, who
/// lends it to every bind ([`LcaStructure::with_parts`],
/// [`LcaStructure::bind_parts`]) and every run
/// ([`LcaStructure::run_on`]), together with a contraction engine
/// bound to the same tree: the session forest, which keeps both once
/// per insert epoch. [`LcaEngine`] is this structure with a copy of
/// its tree and a contraction engine of its own.
pub struct LcaStructure {
    derived: Derived,
    // ---- Retained per-run scratch. ----
    /// Head chains of the two query endpoints, indexed by layer.
    chain_a: Vec<NodeId>,
    chain_b: Vec<NodeId>,
}

impl LcaStructure {
    /// Precomputes the structure of the tree `tree` lends, stored in
    /// `layout`: an energy-bound light-first layout (cover subtrees
    /// must be contiguous slot ranges) whose slots are `tree.slots`,
    /// `tree.sizes` and `tree.csr` being the tree's subtree sizes and
    /// light-first child lists. Keeps nothing of `tree`: every run takes
    /// the same parts again.
    pub fn with_parts(layout: &Layout, tree: TreeParts) -> Self {
        let derived = Derived::build(layout, tree);
        let num_layers = derived.cover.num_layers() as usize;
        LcaStructure {
            derived,
            chain_a: Vec::with_capacity(num_layers),
            chain_b: Vec::with_capacity(num_layers),
        }
    }

    /// Rebinds the structure to a (possibly different, possibly larger)
    /// tree + layout pair, lent as in [`LcaStructure::with_parts`],
    /// keeping the chain scratch — the pool path after a tree mutation.
    /// Runs stay allocation-free; rebinding itself allocates the new
    /// structure.
    pub fn bind_parts(&mut self, layout: &Layout, tree: TreeParts) {
        self.derived = Derived::build(layout, tree);
    }

    /// Heap bytes the structure keeps resident: what it derives and the
    /// chain scratch. By capacity, deterministic.
    pub fn resident_bytes(&self) -> usize {
        self.derived.resident_bytes() + vec_bytes(&self.chain_a) + vec_bytes(&self.chain_b)
    }

    /// Answers one batch of LCA queries over `tree` — the parts the
    /// structure was bound from — on `treefix`, whose structure must be
    /// bound to the same tree: its parents, slots and light-first CSR
    /// (see [`LcaEngine::treefix_mut`]). Charges the full §VI-C cost on
    /// `machine`; the random seed affects only costs, never answers.
    /// Steps 1 and 3 each restore `treefix`'s run state (charge-only
    /// outside builds with debug assertions), so the run charges exactly
    /// as on a freshly bound engine; a caller that also runs its subtree
    /// sums on it keeps one contraction engine per tree instead of two.
    /// Performs **zero heap allocation** once `answers` has grown to the
    /// batch size.
    pub fn run_on<R: Rng>(
        &mut self,
        tree: TreeParts,
        treefix: &mut ContractionEngine<Add>,
        machine: &Machine,
        queries: &[(NodeId, NodeId)],
        answers: &mut Vec<NodeId>,
        rng: &mut R,
    ) -> LcaStats {
        self.derived.run(
            tree,
            (&mut self.chain_a, &mut self.chain_b),
            treefix,
            machine,
            queries,
            answers,
            rng,
        )
    }
}

/// The reusable batched-LCA engine: structure once per tree, any
/// number of query batches; rebindable to new trees ([`LcaEngine::bind`])
/// under the [`EngineLifecycle`] `reset/reserve` contract. It keeps its own copy
/// of its tree and runs on a contraction engine of its own; a caller
/// that keeps the tree and a contraction engine over it uses an
/// [`LcaStructure`] instead.
pub struct LcaEngine {
    structure: LcaStructure,
    /// The engine's own copy of its tree, lent to every run.
    tree: OwnedTree,
    /// The contraction engine of the runs ([`LcaEngine::treefix_mut`]):
    /// created on first use and bound to the engine's tree.
    treefix: Option<ContractionEngine<Add>>,
    /// Whether `treefix` is bound to the current tree.
    treefix_bound: bool,
}

impl LcaEngine {
    /// Precomputes the engine's structure for one tree + layout pair.
    /// The tree must be stored in an energy-bound light-first layout
    /// (cover subtrees must be contiguous slot ranges). Computes the
    /// subtree sizes and light-first child CSR into a copy of the tree
    /// the engine keeps for its runs, then builds from it as
    /// [`LcaStructure::with_parts`] does from lent parts.
    pub fn new(layout: &Layout, tree: &Tree) -> Self {
        let own = OwnedTree::of(layout, tree);
        LcaEngine {
            structure: LcaStructure::with_parts(layout, own.parts()),
            tree: own,
            treefix: None,
            treefix_bound: false,
        }
    }

    /// Rebinds the engine to a (possibly different, possibly larger)
    /// tree + layout pair, rebuilding the per-tree structure while
    /// keeping the retained contraction engine (if one was created)
    /// and scratch. Runs stay allocation-free; rebinding itself
    /// allocates the new structure. Copies the tree as
    /// [`LcaEngine::new`] does, then binds from the copy as
    /// [`LcaStructure::bind_parts`] does from lent parts.
    pub fn bind(&mut self, layout: &Layout, tree: &Tree) {
        let own = OwnedTree::of(layout, tree);
        self.structure.bind_parts(layout, own.parts());
        self.tree = own;
        self.treefix_bound = false;
    }

    /// The contraction engine of the engine's runs, created on first
    /// use and bound to the engine's tree: the parents, slots and
    /// light-first CSR a subtree-sum treefix over the same tree binds.
    /// A caller runs further passes on it by `load`ing its own values —
    /// [`LcaEngine::run_into`] restores its run state for each of its
    /// passes, so such runs charge exactly as on a freshly bound engine.
    pub fn treefix_mut(&mut self) -> &mut ContractionEngine<Add> {
        let tree = &self.tree;
        let n = tree.parents.len();
        let treefix = self
            .treefix
            .get_or_insert_with(|| ContractionEngine::with_capacity(n));
        if !self.treefix_bound {
            treefix.reserve(n);
            treefix.bind_structure(&tree.parents, &tree.slots, &tree.csr);
            self.treefix_bound = true;
        }
        treefix
    }

    /// Heap bytes the engine keeps resident: its [`LcaStructure`], its
    /// copy of the tree and, once created, its contraction engine. By
    /// capacity, deterministic.
    pub fn resident_bytes(&self) -> usize {
        self.structure.resident_bytes()
            + self.tree.resident_bytes()
            + self
                .treefix
                .as_ref()
                .map_or(0, ContractionEngine::resident_bytes)
    }

    /// The subtree cover the engine routes queries through.
    pub fn cover(&self) -> &SubtreeCover {
        &self.structure.derived.cover
    }

    /// The light-first child CSR of the engine's copy of its tree
    /// (shared with callers that run further treefix passes over the
    /// same tree, e.g. the min-cut pipeline).
    pub fn children_csr(&self) -> &ChildrenCsr {
        &self.tree.csr
    }

    /// Charges step 4 of a run on `machine`: per cover layer, the
    /// Lemma 13 range broadcast inside every cover subtree, then a
    /// synchronization barrier before the next layer (§VI-C). The
    /// charges are computed in closed form when `machine` is untraced
    /// and sits on the bound layout's curve prefix (see
    /// [`LayeredBroadcast`]); otherwise the broadcasts and barriers are
    /// replayed. Both paths charge identically.
    pub fn charge_step4(&self, machine: &Machine) {
        self.structure.derived.charge_step4(machine);
    }

    /// Answers one batch of LCA queries, charging the full §VI-C cost
    /// on `machine`. The random seed affects only costs (the Las Vegas
    /// treefix rounds), never answers. Allocates only the returned
    /// result; [`LcaEngine::run_into`] is the allocation-free variant.
    pub fn run<R: Rng>(
        &mut self,
        machine: &Machine,
        queries: &[(NodeId, NodeId)],
        rng: &mut R,
    ) -> LcaResult {
        let mut answers = Vec::new();
        let stats = self.run_into(machine, queries, &mut answers, rng);
        LcaResult { answers, stats }
    }

    /// [`LcaEngine::run`] into a caller-retained answer buffer: the
    /// engine lends its copy of the tree and its contraction engine
    /// ([`LcaEngine::treefix_mut`]) to [`LcaStructure::run_on`].
    /// Performs **zero heap allocation** once `answers` has grown to
    /// the batch size and the contraction engine exists.
    pub fn run_into<R: Rng>(
        &mut self,
        machine: &Machine,
        queries: &[(NodeId, NodeId)],
        answers: &mut Vec<NodeId>,
        rng: &mut R,
    ) -> LcaStats {
        self.treefix_mut();
        let treefix = self.treefix.as_mut().expect("created above");
        self.structure
            .run_on(self.tree.parts(), treefix, machine, queries, answers, rng)
    }
}

impl Derived {
    /// Heap bytes of the per-tree structure, by capacity.
    fn resident_bytes(&self) -> usize {
        self.schedule.resident_bytes()
            + vec_bytes(&self.head)
            + vec_bytes(&self.layer)
            + self.cover.resident_bytes()
            + self.step4.resident_bytes()
    }

    /// See [`LcaEngine::charge_step4`].
    fn charge_step4(&self, machine: &Machine) {
        assert!(self.n > 0, "bind() a tree first");
        if self.step4.charge(machine) {
            return;
        }
        for li in 0..self.cover.num_layers() {
            let (los, his) = self.cover.layer_ranges(li);
            for (&lo, &hi) in los.iter().zip(his.iter()) {
                if hi - lo >= 2 {
                    collectives::range_broadcast(machine, lo, hi);
                }
            }
            collectives::closed_form_barrier(machine);
        }
    }

    /// Fills `chain` so `chain[li]` is the head of the layer-`li` cover
    /// subtree containing `v`, for `li = 0 ..= layer[v]` (every vertex
    /// lies in exactly one subtree per layer up to its own).
    fn fill_chain(&self, parents: &[NodeId], chain: &mut Vec<NodeId>, v: NodeId) {
        chain.clear();
        chain.resize(self.layer[v as usize] as usize + 1, NIL);
        let mut x = v;
        loop {
            let h = self.head[x as usize];
            chain[self.layer[h as usize] as usize] = h;
            match parents[h as usize] {
                NIL => break,
                p => x = p,
            }
        }
    }

    /// One batch of queries over `tree` (the tree this structure was
    /// built from) on `treefix` (bound to the same tree): the four steps
    /// of §VI-C, charged on `machine`, answers into `answers`. The only
    /// run path: lent parts and an [`LcaEngine`]'s own copy both come
    /// through here.
    #[allow(clippy::too_many_arguments)]
    fn run<R: Rng>(
        &self,
        tree: TreeParts,
        (chain_a, chain_b): (&mut Vec<NodeId>, &mut Vec<NodeId>),
        treefix: &mut ContractionEngine<Add>,
        machine: &Machine,
        queries: &[(NodeId, NodeId)],
        answers: &mut Vec<NodeId>,
        rng: &mut R,
    ) -> LcaStats {
        let s = self;
        let n = s.n;
        assert!(n > 0, "bind() a tree first");
        // Check every query before anything is charged.
        for &(a, b) in queries {
            assert!(a < n && b < n, "query ({a}, {b}) out of range");
        }
        assert!(
            tree.n() == n && tree.slots.len() == n as usize && tree.sizes.len() == n as usize,
            "the parts must be this engine's tree"
        );
        assert_eq!(
            treefix.bound_vertices(),
            n as usize,
            "the contraction engine must be bound to this engine's tree"
        );
        let TreeParts {
            parents,
            slots,
            sizes,
            ..
        } = tree;

        // ---- Step 1: subtree sizes (bottom-up treefix), ranges, and ----
        // ---- ancestor/descendant answers. The ranges read the bind's ----
        // ---- sizes, so the pass runs charge-only outside builds with ----
        // ---- debug assertions, which check its sizes against them.   ----
        let stats1 = if VALUED_CHECKS {
            treefix.load_with(|_| Add(1), true);
            let stats = treefix.contract(machine, rng);
            let tf1_values = treefix.uncontract_bottom_up(machine);
            assert!(
                tf1_values
                    .iter()
                    .map(|a| a.0 as u32)
                    .eq(sizes.iter().copied()),
                "treefix sizes must match the host sizes"
            );
            stats
        } else {
            treefix.charge_only_run(machine, rng)
        };

        let in_range = |v: NodeId, w: NodeId| -> bool {
            let sv = slots[v as usize];
            let lo = slots[w as usize];
            lo <= sv && sv < lo + sizes[w as usize]
        };
        answers.clear();
        answers.resize(queries.len(), NIL);
        let mut answered_step1 = 0u32;
        for (qi, &(a, b)) in queries.iter().enumerate() {
            if a == b || in_range(b, a) {
                // Equal vertices or b a descendant of a: the answer is a.
                answers[qi] = a;
                answered_step1 += 1;
            } else if in_range(a, b) {
                answers[qi] = b;
                answered_step1 += 1;
            }
        }

        // ---- Step 2: every vertex broadcasts its range to its      ----
        // ---- children (and its heavy child id, for the step-3      ----
        // ---- indicator) — the precomputed CSR relay schedule: the  ----
        // ---- construction in closed form, the broadcasts replayed. ----
        s.schedule.charge_construction(machine);
        s.schedule.charge_broadcast(machine); // subtree ranges
        s.schedule.charge_broadcast(machine); // heavy-child ids

        // ---- Step 3: layers via top-down treefix over the light-edge ----
        // ---- indicator: every head but the root starts a new path    ----
        // ---- (heavy children continue their parent's). Resolution    ----
        // ---- reads the bind's layers: charge-only as in step 1.      ----
        let stats3 = if VALUED_CHECKS {
            let (head, root) = (&s.head, s.root);
            let indicator = |v: NodeId| Add((head[v as usize] == v && v != root) as u64);
            treefix.load_with(indicator, false);
            let stats = treefix.contract(machine, rng);
            let tf3_values = treefix.uncontract_top_down_with(machine, indicator);
            assert!(
                tf3_values
                    .iter()
                    .map(|a| a.0 as u32)
                    .eq(s.layer.iter().copied()),
                "treefix layers must match the host decomposition"
            );
            stats
        } else {
            treefix.charge_only_run(machine, rng)
        };

        // ---- Step 4 charging: per layer, broadcast inside every    ----
        // ---- cover subtree (Lemma 13) and barrier.                 ----
        s.charge_step4(machine);

        // ---- Step 4 resolution: walk each query's head chains from ----
        // ---- layer 0 upward; the first layer whose subtree isolates ----
        // ---- one endpoint answers the query (Corollary 3).          ----
        // Whether `partner`'s slot lies in `r(parent(root)) \ r(root)` —
        // the Corollary 3 resolution test; returns the answer `w`.
        let resolve = |root: NodeId, partner: NodeId| -> Option<NodeId> {
            let w = parents[root as usize];
            if w == NIL {
                return None;
            }
            let wlo = slots[w as usize];
            let whi = wlo + sizes[w as usize];
            let lo = slots[root as usize];
            let hi = lo + sizes[root as usize];
            let ps = slots[partner as usize];
            (wlo <= ps && ps < whi && !(lo <= ps && ps < hi)).then_some(w)
        };
        for (qi, &(a, b)) in queries.iter().enumerate() {
            if answers[qi] != NIL {
                continue;
            }
            s.fill_chain(parents, chain_a, a);
            s.fill_chain(parents, chain_b, b);
            let (la, lb) = (s.layer[a as usize], s.layer[b as usize]);
            for li in 0..=la.max(lb) as usize {
                if li <= la as usize {
                    if let Some(w) = resolve(chain_a[li], b) {
                        answers[qi] = w;
                        break;
                    }
                }
                if li <= lb as usize {
                    if let Some(w) = resolve(chain_b[li], a) {
                        answers[qi] = w;
                        break;
                    }
                }
            }
        }

        debug_assert!(
            answers.iter().all(|&a| a != NIL),
            "Corollary 3 guarantees every query resolves"
        );

        LcaStats {
            layers: s.cover.num_layers(),
            answered_step1,
            treefix_rounds: (stats1.compact_rounds, stats3.compact_rounds),
        }
    }
}

impl EngineLifecycle for LcaEngine {
    /// The capacity of the engine's contraction engine (0 before one is
    /// created); the per-tree structure is rebuilt at every bind.
    fn capacity(&self) -> usize {
        self.treefix.as_ref().map_or(0, EngineLifecycle::capacity)
    }

    fn reserve(&mut self, cap: usize) {
        self.treefix
            .get_or_insert_with(|| ContractionEngine::with_capacity(cap))
            .reserve(cap);
    }

    fn reset(&mut self) {
        self.structure.derived.n = 0;
        self.treefix_bound = false;
        if let Some(treefix) = self.treefix.as_mut() {
            treefix.reset();
        }
    }
}

/// Answers a batch of LCA queries on the spatial machine.
///
/// The tree must be stored in an energy-bound light-first layout (cover
/// subtrees must be contiguous slot ranges). Costs: `O(n log n)` energy
/// and `O(log² n)` depth w.h.p. when every vertex appears in `O(1)`
/// queries (Theorem 6). One-shot wrapper over [`LcaEngine`]; callers
/// that answer several batches on the same tree should hold an engine.
pub fn batched_lca<R: Rng>(
    machine: &Machine,
    layout: &Layout,
    tree: &Tree,
    queries: &[(NodeId, NodeId)],
    rng: &mut R,
) -> LcaResult {
    LcaEngine::new(layout, tree).run(machine, queries, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostLca;
    use rand::prelude::*;
    use spatial_model::CurveKind;
    use spatial_tree::generators;

    fn random_queries<R: Rng>(n: u32, count: usize, rng: &mut R) -> Vec<(NodeId, NodeId)> {
        (0..count)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect()
    }

    fn check_against_host(t: &Tree, queries: &[(NodeId, NodeId)], seed: u64) -> LcaStats {
        let layout = Layout::light_first(t, CurveKind::Hilbert);
        let machine = layout.machine();
        let res = batched_lca(
            &machine,
            &layout,
            t,
            queries,
            &mut StdRng::seed_from_u64(seed),
        );
        let host = HostLca::new(t);
        for (qi, &(a, b)) in queries.iter().enumerate() {
            assert_eq!(res.answers[qi], host.query(a, b), "query ({a}, {b})");
        }
        res.stats
    }

    #[test]
    fn correct_on_all_families() {
        let mut rng = StdRng::seed_from_u64(30);
        for fam in generators::TreeFamily::ALL {
            let t = fam.generate(257, &mut rng);
            let queries = random_queries(t.n(), 200, &mut rng);
            check_against_host(&t, &queries, 31);
        }
    }

    #[test]
    fn ancestor_pairs_resolved_in_step1() {
        let t = generators::path(64);
        let queries: Vec<(NodeId, NodeId)> = (0..32).map(|i| (i, i + 32)).collect();
        let stats = check_against_host(&t, &queries, 32);
        assert_eq!(stats.answered_step1, 32, "all pairs are ancestor pairs");
    }

    #[test]
    fn sibling_pairs_need_the_cover() {
        let t = generators::star(100);
        let queries: Vec<(NodeId, NodeId)> = (1..50).map(|i| (i, i + 49)).collect();
        let stats = check_against_host(&t, &queries, 33);
        assert_eq!(stats.answered_step1, 0);
        assert_eq!(stats.layers, 2);
    }

    #[test]
    fn self_queries() {
        let t = generators::comb(30);
        let queries = vec![(7, 7), (0, 0), (29, 29)];
        check_against_host(&t, &queries, 34);
    }

    #[test]
    fn las_vegas_seeds_do_not_change_answers() {
        let mut rng = StdRng::seed_from_u64(35);
        let t = generators::uniform_random(300, &mut rng);
        let queries = random_queries(300, 150, &mut rng);
        let layout = Layout::light_first(&t, CurveKind::Hilbert);
        let mut baseline = None;
        for seed in 0..5 {
            let machine = layout.machine();
            let res = batched_lca(
                &machine,
                &layout,
                &t,
                &queries,
                &mut StdRng::seed_from_u64(seed),
            );
            match &baseline {
                None => baseline = Some(res.answers),
                Some(b) => assert_eq!(&res.answers, b, "seed {seed}"),
            }
        }
    }

    #[test]
    fn engine_reuse_across_batches() {
        // One engine, many batches: every batch answers correctly and
        // a repeated batch answers identically.
        let mut rng = StdRng::seed_from_u64(40);
        let t = generators::preferential_attachment(400, &mut rng);
        let layout = Layout::light_first(&t, CurveKind::Hilbert);
        let host = HostLca::new(&t);
        let mut engine = LcaEngine::new(&layout, &t);
        let mut first = None;
        for batch in 0..4 {
            let queries = random_queries(t.n(), 120, &mut StdRng::seed_from_u64(batch % 2));
            let machine = layout.machine();
            let res = engine.run(&machine, &queries, &mut StdRng::seed_from_u64(41 + batch));
            for (qi, &(a, b)) in queries.iter().enumerate() {
                assert_eq!(res.answers[qi], host.query(a, b), "batch {batch}");
            }
            match (batch % 2, &first) {
                (0, None) => first = Some(res.answers),
                (0, Some(f)) => assert_eq!(&res.answers, f, "repeat batch diverged"),
                _ => {}
            }
        }
    }

    #[test]
    fn rebinding_across_trees_matches_fresh_engines() {
        // One pooled engine rebound across trees of sizes n, 2n+3, 5
        // answers and charges exactly like a fresh engine per tree.
        let n0 = 150u32;
        let mut engine: Option<LcaEngine> = None;
        for (i, n) in [n0, 2 * n0 + 3, 5].into_iter().enumerate() {
            let t = generators::uniform_random(n, &mut StdRng::seed_from_u64(50 + i as u64));
            let layout = Layout::light_first(&t, CurveKind::Hilbert);
            let queries = random_queries(n, (n / 2) as usize, &mut StdRng::seed_from_u64(60));
            let engine = match engine.as_mut() {
                None => engine.insert(LcaEngine::new(&layout, &t)),
                Some(e) => {
                    e.bind(&layout, &t);
                    e
                }
            };
            let m_pooled = layout.machine();
            let res = engine.run(&m_pooled, &queries, &mut StdRng::seed_from_u64(70));
            let m_fresh = layout.machine();
            let fresh = batched_lca(
                &m_fresh,
                &layout,
                &t,
                &queries,
                &mut StdRng::seed_from_u64(70),
            );
            assert_eq!(res.answers, fresh.answers, "n={n}");
            assert_eq!(res.stats, fresh.stats, "n={n}");
            assert_eq!(m_pooled.report(), m_fresh.report(), "n={n}");
        }
    }

    #[test]
    fn theorem6_costs() {
        // O(n log n) energy, O(log² n) depth, with n/2 queries.
        let mut e_norm = Vec::new();
        for log_n in [10u32, 12] {
            let n = 1u32 << log_n;
            let t = generators::random_binary(n, &mut StdRng::seed_from_u64(36));
            let layout = Layout::light_first(&t, CurveKind::Hilbert);
            let machine = layout.machine();
            let mut rng = StdRng::seed_from_u64(37);
            let queries = random_queries(n, (n / 2) as usize, &mut rng);
            batched_lca(&machine, &layout, &t, &queries, &mut rng);
            let r = machine.report();
            e_norm.push(r.energy_per_n_log_n(n as u64));
            let log2 = (log_n as f64) * (log_n as f64);
            assert!(
                (r.depth as f64) < 40.0 * log2,
                "n=2^{log_n}: depth {} not O(log² n)",
                r.depth
            );
        }
        assert!(
            e_norm[1] / e_norm[0] < 2.0,
            "energy/(n log n) should stay flat: {e_norm:?}"
        );
    }

    #[test]
    fn zorder_layout_works() {
        let mut rng = StdRng::seed_from_u64(38);
        let t = generators::yule(200, &mut rng);
        let layout = Layout::light_first(&t, CurveKind::ZOrder);
        let machine = layout.machine();
        let queries = random_queries(t.n(), 100, &mut rng);
        let res = batched_lca(&machine, &layout, &t, &queries, &mut rng);
        let host = HostLca::new(&t);
        for (qi, &(a, b)) in queries.iter().enumerate() {
            assert_eq!(res.answers[qi], host.query(a, b));
        }
    }

    #[test]
    fn bad_query_panics_before_charging() {
        let t = generators::path(16);
        let layout = Layout::light_first(&t, CurveKind::Hilbert);
        let machine = layout.machine();
        let mut engine = LcaEngine::new(&layout, &t);
        let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run(&machine, &[(0, 1), (3, 16)], &mut StdRng::seed_from_u64(1))
        }));
        assert!(rejected.is_err(), "query (3, 16) accepted");
        assert_eq!(machine.report(), spatial_model::CostReport::default());
    }

    #[test]
    fn single_vertex_tree() {
        let t = Tree::from_parents(0, vec![spatial_tree::NIL]);
        let layout = Layout::light_first(&t, CurveKind::Hilbert);
        let machine = layout.machine();
        let res = batched_lca(
            &machine,
            &layout,
            &t,
            &[(0, 0)],
            &mut StdRng::seed_from_u64(39),
        );
        assert_eq!(res.answers, vec![0]);
    }
}
