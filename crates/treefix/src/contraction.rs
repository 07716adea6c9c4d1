//! The rake/compress contraction engine (§V-A, §V-B) — allocation-free
//! after setup, bound once per tree, loaded once per run.
//!
//! Supervertices are identified with their representative `R(u)` — the
//! vertex closest to the root, which is also the first vertex of the
//! supervertex in light-first order. Every vertex holds O(1) state:
//! parent pointer, live child count, a partial sum `P`, and — once
//! deactivated — its O(1) share of the distributed contraction log
//! (Fig. 6): the step number, the merge kind, and the parent's
//! pre-merge partial sum. The engine charges every message on the
//! machine; unbounded fan-in/out goes through balanced relays
//! (`spatial-messaging`).
//!
//! # Engine indices
//!
//! The engine numbers vertices by their light-first preorder over the
//! sorted child CSR, so parents precede children and every subtree is
//! one contiguous index range — on a light-first layout this is exactly
//! slot order. The live child lists are one CSR in index order (group
//! parents, group lengths, children). Because no live vertex lies
//! between a single-child parent and its child in index order, a
//! compressed vertex's group is always the group right after its
//! parent's, so each COMPACT round is two sequential passes over that
//! CSR, each compacting it in place toward one end of its buffers:
//!
//! - a forward pass runs the first children broadcast's doubling levels,
//!   the random-mate probe and COMPRESS, and compacts the CSR to the
//!   front;
//! - a reverse (children-first) pass runs the second children broadcast
//!   and RAKE, drops the raked children and compacts the CSR to the back.
//!
//! # Charges
//!
//! Each children broadcast is charged in two parts: round 0 (parent →
//! first child), then each group's doubling levels depth-first; every
//! later receiver is a distinct child that receives once and only sends
//! afterwards, so the charges equal the level-major
//! [`spatial_messaging::relay::charge_broadcast_relays`] the seed
//! engine uses. Round 0 of the first broadcast is one two-phase
//! [`Machine::round`], staged by the previous round's RAKE pass (or by
//! `load`): sent during the forward pass, a parent's fresh clock would
//! chain into its own children. Round 0 of the second broadcast is sent
//! group by group inside the RAKE pass, which equals the two-phase round
//! because a parent's clock is raised only by its own parent's group,
//! which the children-first pass visits later.
//!
//! All rakes of a round reduce concurrently: the RAKE pass stages every
//! reduce relay by level in a
//! [`spatial_messaging::relay::StagedReduceRelays`] (level `ℓ` pairs
//! participant `(2j+1)·2^ℓ` into `2j·2^ℓ`, and the survivor reaches the
//! parent at `⌈log₂ k⌉`), which then charges one round per level — the
//! charges of the seed's level-major halving.
//!
//! # Single-child groups
//!
//! Most groups a pass visits have one child (about 70% on random trees,
//! nearly all on paths and combs), so both passes handle them in a case
//! of their own, and the general code sees only branching groups:
//!
//! - COMPRESS: a single-child group `u → [v]` has no doubling level. Its
//!   probe `u → v` is written at the probe cursor whether or not `v` is
//!   viable, and the cursor advances past it only if `v` is: the probe
//!   buffer is sized at reserve, so viability takes no branch.
//! - RAKE: a single-child group `u → [c]` sends its round 0, then
//!   either keeps `c` (which has children) or rakes the one leaf `c` —
//!   one staged relay message `c → u`, with no leaf count and no loop
//!   over children.
//! - Child lists of up to three entries move element by element, not by
//!   `copy_within` (a `memmove` call per group), and the depth-first
//!   broadcast levels send the split trees of two and three children
//!   directly.
//!
//! None of this moves a charge: each case sends, stages and logs the
//! same messages in the same order as the general code does for one
//! child (whose reduce relay is the single message `c → u` at level 0,
//! and whose leaf count and sums over one child are that child's), and
//! the probe buffer holds the same messages in the same order as the
//! list it replaces. `tests/csr_vs_reference.rs` pins every slot's
//! clock against the seed engine, on chain- and star-heavy shapes too.
//!
//! The Las Vegas process is the seed engine's, draw for draw, because
//! two vertex-id orders are kept where they are observable: coins are
//! drawn in vertex-id order (the alive list is kept in id order for that
//! one loop), and a child that RAKE emptied earlier in the same round
//! counts as a leaf only when its vertex id is smaller than its
//! parent's — exactly what an id-order RAKE loop sees. The rake log then
//! lists a cascaded child's group before its parent's group, the order
//! uncontraction needs.
//!
//! # Charge-only runs
//!
//! [`ContractionEngine::charge_only_run`] is a run for a caller that
//! must pay for a pass but never reads its values: the batched LCA's
//! steps 1 and 3, whose answers come from the sizes and heads its bind
//! derived, and the session forest's subtree sums, whose answers come
//! from one host pass over the bound structure's light-first preorder
//! ([`ContractionEngine::preorder`] and
//! [`crate::host::treefix_bottom_up_host_into`]: the preorder puts
//! parents first whatever the slots). It restores the structure's run
//! state without values, runs the same COMPACT rounds, then replays
//! only the uncontraction's charges (each round's rake undo
//! broadcasts, then its compress undo messages, rounds in reverse).
//! It skips every read and write of the
//! partial sums `P`, the saved pre-merge sums, the uncontraction
//! accumulator and the output. Nothing it skips feeds a charge, a draw
//! or the log: the coins, the viability and leaf tests, the deferral
//! and every message read only the structure (parents, live child
//! counts, the CSR, slots and vertex ids), and the uncontraction
//! charges read only the log and the parents frozen at merge time. So
//! its report, per-slot clocks, stats and rng draws are a valued run's,
//! in either direction: the rake flag (`rake_adds_to_p`) only decides
//! whether RAKE adds to `P`. The passes take the choice as a
//! compile-time flag, so both runs share one source. Those callers run
//! the pass valued and check its values against their host answers
//! exactly when [`VALUED_CHECKS`] is set (builds with debug
//! assertions), and charge-only otherwise.
//!
//! # Memory discipline and lifecycle
//!
//! This is the hottest loop in the workspace, so all storage is laid
//! out flat. The engine owns its structure and, unless lent one, its
//! run buffers: the per-tree structure (preorder numbering, slots,
//! parents, the initial child CSR) lives in the engine, and everything a
//! run restores lives in a [`ContractionRun`]. There are no borrows,
//! which is what lets the session layer's engine pool retain one engine
//! across many trees, and lets one set of run buffers serve the engines
//! of many trees in turn ([`ContractionEngine::swap_run`]). The uniform
//! `reset/reserve/run` lifecycle ([`spatial_model::EngineLifecycle`]):
//!
//! - [`ContractionEngine::with_capacity`] allocates the structure and
//!   a default set of run buffers once; [`ContractionEngine::default`]
//!   allocates neither, for an engine that runs on lent sets;
//! - [`ContractionEngine::bind_structure`] numbers a concrete (tree,
//!   slots, light-first CSR) instance once per tree: preorder, slots and
//!   the initial child CSR in index order. It touches no run buffer;
//! - [`ContractionEngine::load`] restores the per-run state with
//!   sequential passes and permutes one run's values into index order —
//!   [`ContractionEngine::bind`] and [`ContractionEngine::bind_parts`]
//!   are "structure, then load"; none of these allocates whenever the
//!   tree fits the current capacity. `load` rewrites every run buffer a
//!   run reads, so a set that another tree's run left behind serves as
//!   well as a fresh one; a set too small for the bound tree grows to
//!   the engine's capacity;
//! - [`ContractionEngine::contract`] and the `uncontract_*` methods
//!   run the §V algorithm, charging the machine they are given, never
//!   allocate, and return results permuted back to vertex ids;
//!   [`ContractionEngine::charge_only_run`] restores, contracts and
//!   charges the uncontraction in one call, with no values;
//! - [`spatial_model::EngineLifecycle::reserve`] grows the structure's
//!   capacity and any run buffers the engine holds (the only allocating
//!   step once the engine exists, besides a lent set's growth);
//!   [`ContractionRun::reserve`] grows a set on its own, without its
//!   four value buffers (`P`, the saved pre-merge sums, the
//!   uncontraction accumulator and the output):
//!   [`ContractionRun::reserve_values`] grows those, an engine's own set
//!   reserves them with the rest, and a valued load grows a lent set's
//!   to the engine's capacity. A set that serves only charge-only runs
//!   never holds them.
//!
//! The distributed contraction log is three flat arrays with per-round
//! end offsets (sized to a bound on the `O(log n)` w.h.p. round count,
//! [`spatial_model::round_capacity`]); message batches and the reduce
//! relay staging are persistent buffers sized to the capacity, and every
//! round charges the machine directly (its round staging is allocated
//! when it is built).
//! Zero allocation is asserted by the counting-allocator test
//! `tests/alloc_free.rs`; the seed implementation is retained as
//! [`crate::reference::ReferenceEngine`] and the `csr_vs_reference`
//! suite pins identical results, statistics, machine charges and
//! per-slot clocks.

use crate::monoid::CommutativeMonoid;
use rand::Rng;
use spatial_layout::Layout;
use spatial_messaging::relay::{charge_broadcast_levels_depth_first, StagedReduceRelays};
use spatial_model::{round_capacity, vec_bytes, EngineLifecycle, Machine, Slot};
use spatial_tree::{ChildrenCsr, NodeId, Tree, NIL};

/// Whether callers that read none of a pass's values still run it
/// valued, to check those values against their host answers: set
/// exactly in builds with debug assertions. Without it those callers
/// run [`ContractionEngine::charge_only_run`], which charges the same,
/// and the run sets they lend never hold the value buffers
/// ([`ContractionRun::reserve_values`]). The batched LCA's steps 1 and
/// 3, the session forest's subtree sums and the session scratch's
/// reservation all read this one rule.
pub const VALUED_CHECKS: bool = cfg!(debug_assertions);

/// Cost-relevant counters of one contraction run (Las Vegas evidence:
/// these vary with the seed, the output never does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContractionStats {
    /// Number of COMPACT rounds until one supervertex remained.
    pub compact_rounds: u32,
    /// Total COMPRESS merges.
    pub compresses: u64,
    /// Total vertices removed by RAKE merges.
    pub rakes: u64,
}

impl ContractionStats {
    const ZERO: Self = ContractionStats {
        compact_rounds: 0,
        compresses: 0,
        rakes: 0,
    };
}

/// Where the engine currently is in its `bind → load → contract →
/// uncontract` cycle (misuse guard; loading restarts the run cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No tree bound (fresh, or after [`EngineLifecycle::reset`]).
    Unbound,
    /// A tree's structure is bound; load values before contracting.
    Structured,
    /// Values are loaded and ready to contract.
    Bound,
    /// [`ContractionEngine::contract`] has run; one `uncontract_*` may.
    Contracted,
    /// The run cycle finished; load again before the next run.
    Done,
}

/// The per-run buffers of a [`ContractionEngine`]: everything a run
/// restores, indexed by engine index (see the module docs). A set holds
/// no tree: [`ContractionEngine::load`] rewrites every buffer a run
/// reads, so one set can serve the engines of many trees in turn
/// ([`ContractionEngine::swap_run`]). [`ContractionRun::default`]
/// allocates nothing.
pub struct ContractionRun<M: CommutativeMonoid> {
    /// Largest vertex count the buffers are reserved for.
    cap: usize,
    parent: Vec<u32>,
    /// Live child count of every index.
    child_count: Vec<u32>,
    p: Vec<M>,
    active: Vec<bool>,
    /// Alive indices in vertex-id order: the coin-draw order.
    alive: Vec<u32>,
    /// Live child CSR (same shape as the initial one, and the same
    /// buffer lengths). Each pass compacts it in place toward one end:
    /// the COMPRESS pass to the front, the RAKE pass to the back.
    group_parent: Vec<u32>,
    group_len: Vec<u32>,
    kids: Vec<u32>,

    /// Parent's partial sum before the merge that deactivated this
    /// vertex (the no-inverse replacement for the paper's subtraction).
    saved_p: Vec<M>,

    // ---- Flat contraction log (replaces the seed's Vec<StepLog>). ----
    /// Compressed vertices, all rounds back to back.
    compress_log: Vec<u32>,
    /// End offset into `compress_log` after each round, sized to the
    /// round bound ([`round_capacity`]), not to the vertex capacity.
    compress_ends: Vec<u32>,
    /// Raked vertices, all rounds back to back, in rake order.
    rake_log: Vec<u32>,
    /// Rake groups `(parent, start, end)` spanning `rake_log`.
    rake_groups: Vec<(u32, u32, u32)>,
    /// End offset into `rake_groups` after each round.
    rake_ends: Vec<u32>,

    // ---- Message and relay staging (cleared per use). ----
    /// Round 0 of the next round's first children broadcast, staged by
    /// the RAKE pass.
    first_msgs: Vec<(Slot, Slot)>,
    /// Random-mate probe messages (parent → viable child), written at
    /// the front through the COMPRESS pass's cursor: one entry per
    /// vertex, sized at reserve.
    probe_msgs: Vec<(Slot, Slot)>,
    /// COMPRESS messages (`v → u`, `v → c`).
    compress_msgs: Vec<(Slot, Slot)>,
    /// Rake parents emptied this round whose parent must not see them
    /// as leaves until the round ends (larger vertex id than the
    /// parent's).
    deferred: Vec<u32>,
    /// The round's RAKE reduce relays, staged by level.
    relays: StagedReduceRelays,
    /// Uncontraction accumulator (`A_v` / `B_v`).
    acc: Vec<M>,
    /// Output buffer by vertex id, returned by slice.
    out: Vec<M>,
    coin: Vec<bool>,
}

impl<M: CommutativeMonoid> Default for ContractionRun<M> {
    fn default() -> Self {
        ContractionRun {
            cap: 0,
            parent: Vec::new(),
            child_count: Vec::new(),
            p: Vec::new(),
            active: Vec::new(),
            alive: Vec::new(),
            group_parent: Vec::new(),
            group_len: Vec::new(),
            kids: Vec::new(),
            saved_p: Vec::new(),
            compress_log: Vec::new(),
            compress_ends: Vec::new(),
            rake_log: Vec::new(),
            rake_groups: Vec::new(),
            rake_ends: Vec::new(),
            first_msgs: Vec::new(),
            probe_msgs: Vec::new(),
            compress_msgs: Vec::new(),
            deferred: Vec::new(),
            relays: StagedReduceRelays::with_capacity(0),
            acc: Vec::new(),
            out: Vec::new(),
            coin: Vec::new(),
        }
    }
}

impl<M: CommutativeMonoid> ContractionRun<M> {
    /// A set reserved for charge-only runs on trees of up to `cap`
    /// vertices ([`ContractionRun::reserve`]; the first valued load
    /// sizes the value buffers).
    pub fn with_capacity(cap: usize) -> Self {
        let mut run = Self::default();
        run.reserve(cap);
        run
    }

    /// Grows every buffer a charge-only run uses to hold a run on `cap`
    /// vertices (never shrinks; a no-op at or below the capacity). The
    /// value buffers are not among them: see
    /// [`ContractionRun::reserve_values`].
    pub fn reserve(&mut self, cap: usize) {
        if cap <= self.cap {
            return;
        }
        grow_exact(&mut self.parent, cap);
        grow_exact(&mut self.child_count, cap);
        grow_exact(&mut self.active, cap);
        grow_exact(&mut self.alive, cap);
        grow_exact(&mut self.group_parent, cap);
        grow_exact(&mut self.group_len, cap);
        grow_exact(&mut self.kids, cap);
        grow_exact(&mut self.compress_log, cap);
        grow_exact(&mut self.compress_ends, round_capacity(cap));
        grow_exact(&mut self.rake_log, cap);
        grow_exact(&mut self.rake_groups, cap);
        grow_exact(&mut self.rake_ends, round_capacity(cap));
        grow_exact(&mut self.first_msgs, cap);
        // The COMPRESS pass writes probes through a cursor: the buffer
        // holds one entry per vertex.
        grow_exact(&mut self.probe_msgs, cap);
        self.probe_msgs.resize(cap, (0, 0));
        grow_exact(&mut self.compress_msgs, cap);
        grow_exact(&mut self.deferred, cap);
        grow_exact(&mut self.coin, cap);
        self.relays.reserve(cap);
        self.cap = cap;
    }

    /// Grows the four value buffers (the partial sums `P`, the saved
    /// pre-merge sums, the uncontraction accumulator and the output) to
    /// hold a valued run on `cap` vertices (never shrinks). Only a
    /// valued run reads them, and its load grows a short set to its
    /// engine's capacity, so a set that serves only charge-only runs
    /// never holds them.
    pub fn reserve_values(&mut self, cap: usize) {
        grow_exact(&mut self.p, cap);
        grow_exact(&mut self.saved_p, cap);
        grow_exact(&mut self.acc, cap);
        grow_exact(&mut self.out, cap);
    }

    /// Heap bytes the set keeps resident, by capacity.
    pub fn resident_bytes(&self) -> usize {
        vec_bytes(&self.parent)
            + vec_bytes(&self.child_count)
            + vec_bytes(&self.p)
            + vec_bytes(&self.active)
            + vec_bytes(&self.alive)
            + vec_bytes(&self.group_parent)
            + vec_bytes(&self.group_len)
            + vec_bytes(&self.kids)
            + vec_bytes(&self.saved_p)
            + vec_bytes(&self.compress_log)
            + vec_bytes(&self.compress_ends)
            + vec_bytes(&self.rake_log)
            + vec_bytes(&self.rake_groups)
            + vec_bytes(&self.rake_ends)
            + vec_bytes(&self.first_msgs)
            + vec_bytes(&self.probe_msgs)
            + vec_bytes(&self.compress_msgs)
            + vec_bytes(&self.deferred)
            + self.relays.resident_bytes()
            + vec_bytes(&self.acc)
            + vec_bytes(&self.out)
            + vec_bytes(&self.coin)
    }
}

/// The contraction engine. Create with
/// [`ContractionEngine::with_capacity`] (or the one-shot
/// [`ContractionEngine::new`]), bind a tree with
/// [`ContractionEngine::bind_structure`] and each run's values with
/// [`ContractionEngine::load`] (or both at once with
/// [`ContractionEngine::bind`]), run [`ContractionEngine::contract`],
/// then exactly one of the `uncontract` methods — or, for a pass whose
/// values nobody reads, [`ContractionEngine::charge_only_run`] in place
/// of all three. The engine owns its
/// structure and, unless lent one, its run buffers, so one instance
/// serves any number of trees and runs.
pub struct ContractionEngine<M: CommutativeMonoid> {
    /// Vertex count of the bound structure (0 when unbound).
    n: usize,
    /// Largest vertex count the structure has ever served; bindings at
    /// or below this never allocate.
    cap: usize,
    phase: Phase,
    /// Whether RAKE folds leaf sums into the parent's partial sum
    /// (bottom-up) or leaves it untouched (top-down, where `P` tracks
    /// the supervertex's path-segment values only).
    rake_adds_to_p: bool,

    // ---- Per-tree structure, indexed by engine index. ----
    /// Vertex id of every engine index.
    vid: Vec<NodeId>,
    /// Engine index of every vertex id (inverse of `vid`).
    index_of: Vec<u32>,
    /// Machine slot of every engine index, copied at bind so runs need
    /// no layout borrow.
    slot: Vec<Slot>,
    /// Parent index of every index ([`NIL`] at the root).
    parent0: Vec<u32>,
    /// Initial child CSR: parents with children in index order, their
    /// child counts, and the children (in light-first sibling order).
    group_parent0: Vec<u32>,
    group_len0: Vec<u32>,
    kids0: Vec<u32>,

    // ---- Per-run state, restored by `load`. ----
    /// Live group and child counts of the run's child CSR: a suffix of
    /// its buffers between rounds, a prefix between the two passes of
    /// a round.
    live_groups: usize,
    live_kids: usize,
    stats: ContractionStats,
    /// The run buffers: the engine's own set, or one lent to it.
    run: ContractionRun<M>,
}

impl<M: CommutativeMonoid> Default for ContractionEngine<M> {
    /// An unbound engine with no structure and no run buffers: it
    /// allocates nothing until it is reserved, bound or lent a set.
    fn default() -> Self {
        ContractionEngine {
            n: 0,
            cap: 0,
            phase: Phase::Unbound,
            rake_adds_to_p: true,
            vid: Vec::new(),
            index_of: Vec::new(),
            slot: Vec::new(),
            parent0: Vec::new(),
            group_parent0: Vec::new(),
            group_len0: Vec::new(),
            kids0: Vec::new(),
            live_groups: 0,
            live_kids: 0,
            stats: ContractionStats::ZERO,
            run: ContractionRun::default(),
        }
    }
}

impl<M: CommutativeMonoid> ContractionEngine<M> {
    /// An unbound engine whose structure and own run buffers are
    /// pre-sized for trees of up to `cap` vertices; bindings and runs
    /// within the capacity never allocate.
    pub fn with_capacity(cap: usize) -> Self {
        let mut engine = Self::default();
        engine.reserve(cap);
        engine.reserve_own_run(cap);
        engine
    }

    /// Grows the engine's own run buffers, the value buffers included:
    /// an engine that keeps its set runs valued passes.
    fn reserve_own_run(&mut self, cap: usize) {
        self.run.reserve(cap);
        self.run.reserve_values(cap);
    }

    /// One-shot constructor: capacity for exactly this tree, bound to
    /// it with children in light-first sibling order (matching the
    /// layout's placement).
    pub fn new(tree: &Tree, layout: &Layout, values: &[M], rake_adds_to_p: bool) -> Self {
        let sizes = tree.subtree_sizes();
        let sorted = ChildrenCsr::by_size(tree, &sizes);
        Self::with_children_csr(tree, layout, values, rake_adds_to_p, &sorted)
    }

    /// As [`ContractionEngine::new`], but consuming a prebuilt
    /// light-first [`ChildrenCsr`] — callers that already hold one
    /// (e.g. after threading an Euler tour over the same child order)
    /// skip the re-sort.
    pub fn with_children_csr(
        tree: &Tree,
        layout: &Layout,
        values: &[M],
        rake_adds_to_p: bool,
        sorted: &ChildrenCsr,
    ) -> Self {
        let mut eng = Self::with_capacity(tree.n() as usize);
        eng.bind(tree, layout, sorted, values, rake_adds_to_p);
        eng
    }

    /// Binds a concrete (tree, layout, light-first CSR) instance and
    /// loads one run's values: [`ContractionEngine::bind_structure`]
    /// from the tree and layout, then [`ContractionEngine::load`].
    /// Performs **zero heap allocation** whenever `tree.n()` is within
    /// the engine's capacity (grow first with
    /// [`EngineLifecycle::reserve`]).
    pub fn bind(
        &mut self,
        tree: &Tree,
        layout: &Layout,
        sorted: &ChildrenCsr,
        values: &[M],
        rake_adds_to_p: bool,
    ) {
        assert_eq!(layout.n(), tree.n(), "layout size mismatch");
        self.structure(tree.parents(), |v| layout.slot(v), sorted);
        self.load(values, rake_adds_to_p);
    }

    /// [`ContractionEngine::bind`] from the flat pieces a retaining
    /// caller already holds: the parent array and the per-vertex machine
    /// slots, instead of `Tree`/`Layout` borrows. Binds the structure
    /// on every call; callers that run many times on one tree bind it
    /// once with [`ContractionEngine::bind_structure`] and then only
    /// [`ContractionEngine::load`]. Same zero-allocation contract.
    pub fn bind_parts(
        &mut self,
        parents: &[NodeId],
        slots: &[Slot],
        sorted: &ChildrenCsr,
        values: &[M],
        rake_adds_to_p: bool,
    ) {
        self.bind_structure(parents, slots, sorted);
        self.load(values, rake_adds_to_p);
    }

    /// The per-tree structure step: numbers the vertices in light-first
    /// preorder of `sorted` and stores each index's slot, parent and
    /// initial child list. Any number of
    /// [`ContractionEngine::load`]-and-run cycles follow. Touches no run
    /// buffer; zero heap allocation within capacity.
    pub fn bind_structure(&mut self, parents: &[NodeId], slots: &[Slot], sorted: &ChildrenCsr) {
        assert_eq!(slots.len(), parents.len(), "one slot per vertex");
        self.structure(parents, |v| slots[v as usize], sorted);
    }

    fn structure(
        &mut self,
        parents: &[NodeId],
        slot_of: impl Fn(NodeId) -> Slot,
        sorted: &ChildrenCsr,
    ) {
        let n = parents.len();
        assert_eq!(sorted.n() as usize, n, "children CSR size mismatch");
        self.n = n;
        self.cap = self.cap.max(n);
        self.phase = Phase::Structured;

        // Light-first preorder of the sorted CSR (the slot buffer,
        // filled right after, doubles as the DFS stack).
        self.vid.clear();
        self.index_of.clear();
        self.index_of.resize(n, NIL);
        let stack = &mut self.slot;
        stack.clear();
        stack.extend(parents.iter().position(|&p| p == NIL).map(|r| r as u32));
        while let Some(v) = stack.pop() {
            self.index_of[v as usize] = self.vid.len() as u32;
            self.vid.push(v);
            stack.extend(sorted.children(v).iter().rev());
        }
        assert_eq!(self.vid.len(), n, "parents must form one rooted tree");

        self.slot.clear();
        self.slot.extend(self.vid.iter().map(|&v| slot_of(v)));
        let index_of = &self.index_of;
        self.parent0.clear();
        self.parent0
            .extend(self.vid.iter().map(|&v| match parents[v as usize] {
                NIL => NIL,
                p => index_of[p as usize],
            }));
        self.group_parent0.clear();
        self.group_len0.clear();
        self.kids0.clear();
        for (i, &v) in self.vid.iter().enumerate() {
            let cs = sorted.children(v);
            if !cs.is_empty() {
                self.group_parent0.push(i as u32);
                self.group_len0.push(cs.len() as u32);
                self.kids0.extend(cs.iter().map(|&c| index_of[c as usize]));
            }
        }
    }

    /// Swaps the engine's run buffers with `run`: the way to lend the
    /// engine a set and take it back (call again with the same `run`).
    /// The bound structure stays; a run in progress is abandoned, so
    /// [`ContractionEngine::load`] must run before the next contraction.
    pub fn swap_run(&mut self, run: &mut ContractionRun<M>) {
        std::mem::swap(&mut self.run, run);
        if self.phase != Phase::Unbound {
            self.phase = Phase::Structured;
        }
    }

    /// The per-run step: restores the run state of the bound structure
    /// with sequential passes and loads `values` (by vertex id),
    /// restarting the run cycle. Rewrites every run buffer a run reads,
    /// whatever tree's run the set last served; grows a set too small
    /// for the bound tree to the engine's capacity. Zero heap
    /// allocation when the set fits.
    pub fn load(&mut self, values: &[M], rake_adds_to_p: bool) {
        assert!(self.phase != Phase::Unbound, "bind a tree structure first");
        assert_eq!(values.len(), self.n, "one value per vertex");
        self.load_with(|v| values[v as usize], rake_adds_to_p);
    }

    /// [`ContractionEngine::load`] with each vertex's value read from
    /// `value_of(v)` instead of a slice: a caller whose values follow a
    /// rule (the batched LCA's step 1 loads `Add(1)` everywhere) keeps
    /// no array for them. Charges and results are those of `load` over
    /// the same values.
    pub fn load_with(&mut self, value_of: impl Fn(NodeId) -> M, rake_adds_to_p: bool) {
        self.restore::<true>(value_of, rake_adds_to_p);
    }

    /// The per-run restore of [`ContractionEngine::load_with`]; with
    /// `V = false` (a charge-only run) it restores the structure's run
    /// state only and touches no value buffer (`p`, `saved_p`, `acc`,
    /// `out`), so `value_of` is never called.
    fn restore<const V: bool>(&mut self, value_of: impl Fn(NodeId) -> M, rake_adds_to_p: bool) {
        assert!(self.phase != Phase::Unbound, "bind a tree structure first");
        let n = self.n;
        self.phase = Phase::Bound;
        self.rake_adds_to_p = rake_adds_to_p;
        if self.run.cap < n {
            self.run.reserve(self.cap);
        }
        if V && self.run.p.capacity() < n {
            self.run.reserve_values(self.cap);
        }

        let run = &mut self.run;
        run.parent.clear();
        run.parent.extend_from_slice(&self.parent0);
        run.child_count.clear();
        run.child_count.resize(n, 0);
        for (&u, &len) in self.group_parent0.iter().zip(&self.group_len0) {
            run.child_count[u as usize] = len;
        }
        if V {
            run.p.clear();
            run.p.extend(self.vid.iter().map(|&v| value_of(v)));
            // Written before every read (at deactivation / at
            // uncontraction): only the lengths need restoring.
            run.saved_p.resize(n, M::identity());
            run.out.resize(n, M::identity());
            run.acc.clear();
            run.acc.resize(n, M::identity());
        }
        run.active.clear();
        run.active.resize(n, true);
        run.alive.clear();
        run.alive.extend_from_slice(&self.index_of);
        run.group_parent.clear();
        run.group_parent.extend_from_slice(&self.group_parent0);
        run.group_len.clear();
        run.group_len.extend_from_slice(&self.group_len0);
        run.kids.clear();
        run.kids.extend_from_slice(&self.kids0);
        self.live_groups = run.group_parent.len();
        self.live_kids = run.kids.len();
        // Written before every per-round read: only the length needs
        // restoring.
        run.coin.resize(n, false);
        run.compress_log.clear();
        run.compress_ends.clear();
        run.rake_log.clear();
        run.rake_groups.clear();
        run.rake_ends.clear();
        run.relays.clear();
        self.stats = ContractionStats::ZERO;

        run.first_msgs.clear();
        let mut start = 0usize;
        for (&u, &len) in self.group_parent0.iter().zip(&self.group_len0) {
            let first = self.kids0[start];
            run.first_msgs
                .push((self.slot[u as usize], self.slot[first as usize]));
            start += len as usize;
        }
    }

    /// Steps 1–3 of a COMPACT round in one forward pass over the live
    /// child CSR: the first children broadcast's doubling levels, the
    /// random-mate probe of every viable vertex, COMPRESS of the
    /// selected ones, and the compaction of the CSR (a suffix of its
    /// buffers) to the front. Stages the COMPRESS round; returns the
    /// compresses and the number of probe messages, staged at the front
    /// of the probe buffer. Single-child groups take their own case
    /// (see "Single-child groups" in the module docs). With `V = false`
    /// (a charge-only run) it moves no partial sum.
    fn compress_pass<const V: bool>(&mut self, m: &Machine) -> (u64, usize) {
        let slot = &self.slot;
        let ContractionRun {
            parent,
            child_count,
            p,
            active,
            group_parent,
            group_len,
            kids,
            saved_p,
            compress_log,
            probe_msgs,
            compress_msgs,
            coin,
            ..
        } = &mut self.run;
        compress_msgs.clear();
        let groups = group_parent.len();
        // Read cursors (group, child) run ahead of write cursors.
        let (mut r, mut rk) = (groups - self.live_groups, kids.len() - self.live_kids);
        let (mut w, mut wk) = (0usize, 0usize);
        let mut probes = 0usize;
        let mut compresses = 0u64;
        while r < groups {
            let u = group_parent[r];
            let len = group_len[r];
            group_parent[w] = u;
            group_len[w] = len;
            w += 1;
            if len > 1 {
                // Branching parent: none of its children is viable.
                let len = len as usize;
                let ks = &kids[rk..rk + len];
                charge_broadcast_levels_depth_first(m, len, |j| slot[ks[j] as usize]);
                move_kids(kids, rk, wk, len);
                r += 1;
                rk += len;
                wk += len;
                continue;
            }
            let v = kids[rk];
            let (ui, vi) = (u as usize, v as usize);
            // v is viable when it is u's only child and has one child.
            let viable = child_count[vi] == 1;
            probe_msgs[probes] = (slot[ui], slot[vi]);
            probes += viable as usize;
            if viable & coin[vi] & !coin[ui] {
                // COMPRESS v into u. v's group, [c], is the next one:
                // no live vertex lies between u and v in index order.
                debug_assert_eq!(group_parent[r + 1], v);
                let c = kids[rk + 1];
                let ci = c as usize;
                probe_msgs[probes] = (slot[vi], slot[ci]);
                probes += (child_count[ci] == 1) as usize;
                if V {
                    saved_p[vi] = p[ui];
                    p[ui] = p[ui].combine(p[vi]);
                }
                // u's only child was v; u inherits v's only child c.
                parent[ci] = u;
                active[vi] = false;
                compress_msgs.push((slot[vi], slot[ui]));
                compress_msgs.push((slot[vi], slot[ci]));
                compress_log.push(v);
                compresses += 1;
                kids[wk] = c;
                r += 2;
                rk += 2;
            } else {
                kids[wk] = v;
                r += 1;
                rk += 1;
            }
            wk += 1;
        }
        self.live_groups = w;
        self.live_kids = wk;
        (compresses, probes)
    }

    /// Steps 4–5 of a COMPACT round in one children-first (reverse
    /// index order) pass over the live child CSR (a prefix of its
    /// buffers): per group, the second children broadcast — round 0 as
    /// a send, then the doubling levels — and RAKE of the leaf
    /// supervertices wherever all-but-at-most-one children are leaves.
    /// Stages every rake's reduce relay by level, compacts the CSR to
    /// the back of its buffers, and stages round 0 of the next round's
    /// first children broadcast.
    ///
    /// Sending round 0 group by group equals the two-phase round: a
    /// parent's clock is raised only by its own parent's group, which
    /// has a smaller index, so the pass reaches it after the parent has
    /// sent. Single-child groups take their own case (see
    /// "Single-child groups" in the module docs). With `V = false` (a
    /// charge-only run) it moves no partial sum.
    fn rake_pass<const V: bool>(&mut self, m: &Machine) {
        let slot = &self.slot;
        let vid = &self.vid;
        let run = &mut self.run;
        run.first_msgs.clear();
        run.deferred.clear();
        // Read cursors run from the end of the prefix, write cursors
        // from the end of the buffers, never below the read cursors.
        let mut end = self.live_kids;
        let (mut wg, mut wk) = (run.group_parent.len(), run.kids.len());
        for g in (0..self.live_groups).rev() {
            let u = run.group_parent[g] as usize;
            let len = run.group_len[g] as usize;
            let start = end - len;
            end = start;
            let left = if len == 1 {
                let c = run.kids[start];
                let ci = c as usize;
                let (su, sc) = (slot[u], slot[ci]);
                m.send(su, sc);
                if run.child_count[ci] != 0 {
                    wg -= 1;
                    wk -= 1;
                    run.group_parent[wg] = u as u32;
                    run.group_len[wg] = 1;
                    run.kids[wk] = c;
                    run.first_msgs.push((su, sc));
                    continue;
                }
                // RAKE the one leaf c into u.
                run.relays.stage(1, |_| sc, su);
                run.active[ci] = false;
                if V {
                    let saved = run.p[u];
                    run.saved_p[ci] = saved;
                    if self.rake_adds_to_p {
                        run.p[u] = saved.combine(run.p[ci]);
                    }
                }
                let at = run.rake_log.len() as u32;
                run.rake_log.push(c);
                run.rake_groups.push((u as u32, at, at + 1));
                self.stats.rakes += 1;
                0
            } else {
                let ks = &run.kids[start..start + len];
                m.send(slot[u], slot[ks[0] as usize]);
                charge_broadcast_levels_depth_first(m, len, |j| slot[ks[j] as usize]);
                // Branchless count: is this a raking parent?
                let leaves = ks
                    .iter()
                    .map(|&c| (run.child_count[c as usize] == 0) as usize)
                    .sum::<usize>();
                if leaves == 0 || len - leaves > 1 {
                    wg -= 1;
                    wk -= len;
                    run.group_parent[wg] = u as u32;
                    run.group_len[wg] = len as u32;
                    move_kids(&mut run.kids, start, wk, len);
                    run.first_msgs.push((slot[u], slot[run.kids[wk] as usize]));
                    continue;
                }
                // The reduce relay spans all children (the non-raked
                // child w contributes the identity, as in the paper).
                run.relays.stage(len, |j| slot[ks[j] as usize], slot[u]);

                let saved = if V { run.p[u] } else { M::identity() };
                let mut acc = M::identity();
                let group_start = run.rake_log.len() as u32;
                let mut kept = NIL;
                for &c in ks {
                    let ci = c as usize;
                    if run.child_count[ci] == 0 {
                        if V {
                            acc = acc.combine(run.p[ci]);
                            run.saved_p[ci] = saved;
                        }
                        run.active[ci] = false;
                        run.rake_log.push(c);
                    } else {
                        kept = c;
                    }
                }
                if V && self.rake_adds_to_p {
                    run.p[u] = saved.combine(acc);
                }
                self.stats.rakes += leaves as u64;
                run.rake_groups
                    .push((u as u32, group_start, run.rake_log.len() as u32));
                let left = (len - leaves) as u32;
                if left == 1 {
                    wg -= 1;
                    wk -= 1;
                    run.group_parent[wg] = u as u32;
                    run.group_len[wg] = 1;
                    run.kids[wk] = kept;
                    run.first_msgs.push((slot[u], slot[kept as usize]));
                }
                left
            };
            // An id-order RAKE loop reaches u's parent before u when the
            // parent's id is smaller: that parent must still see u as
            // branching this round.
            let w = run.parent[u];
            if left == 0 && w != NIL && vid[u] > vid[w as usize] {
                run.deferred.push(u as u32);
            } else {
                run.child_count[u] = left;
            }
        }
        for &u in &run.deferred {
            run.child_count[u as usize] = 0;
        }
        self.live_groups = run.group_parent.len() - wg;
        self.live_kids = run.kids.len() - wk;
    }

    /// One COMPACT round: compress an independent random-mate set of
    /// viable supervertices, then rake leaf supervertices (moving
    /// partial sums only when `V`).
    fn compact_round<const V: bool, R: Rng>(&mut self, rng: &mut R, m: &Machine) {
        // Step 1: branching info — round 0 here, the doubling levels in
        // the COMPRESS pass. Round 0 stays one two-phase round: sent
        // during the forward pass, a parent's fresh clock would chain
        // into its own children.
        m.round(&self.run.first_msgs);

        // Step 2: random-mate coins, drawn in vertex-id order.
        let run = &mut self.run;
        for &v in &run.alive {
            run.coin[v as usize] = rng.gen();
        }

        // Steps 2–3: probe the viable vertices and COMPRESS the selected
        // independent set (heads with a tails parent, so no parent is
        // itself compressed this round).
        let (compresses, probes) = self.compress_pass::<V>(m);
        m.round(&self.run.probe_msgs[..probes]);
        m.round(&self.run.compress_msgs);
        self.stats.compresses += compresses;

        // Steps 4–5: refresh branching info after the compresses and
        // RAKE. All rakes of the round run concurrently: the reduce
        // relays are charged as one batch, one round per level.
        self.rake_pass::<V>(m);
        let run = &mut self.run;
        run.relays.charge(m);
        compact_by_flag(&mut run.alive, &run.active);

        run.compress_ends.push(run.compress_log.len() as u32);
        run.rake_ends.push(run.rake_groups.len() as u32);
        self.stats.compact_rounds += 1;
    }

    /// Contracts the whole tree to a single supervertex, charging every
    /// round on `machine`. Returns the stats; the random seed affects
    /// only costs, never results.
    pub fn contract<R: Rng>(&mut self, machine: &Machine, rng: &mut R) -> ContractionStats {
        assert_eq!(
            self.phase,
            Phase::Bound,
            "bind() a tree first and load() its values"
        );
        self.phase = Phase::Contracted;
        self.contract_rounds::<true, R>(machine, rng)
    }

    /// The COMPACT rounds of [`ContractionEngine::contract`], moving
    /// partial sums only when `V`.
    fn contract_rounds<const V: bool, R: Rng>(
        &mut self,
        machine: &Machine,
        rng: &mut R,
    ) -> ContractionStats {
        let n = self.n as u64;
        // Rake always removes the deepest leaves, so every round makes
        // progress; the bound below is a defensive cap, not a tuning
        // parameter.
        let cap = 4 * n + 64;
        while self.run.alive.len() > 1 {
            let before = self.run.alive.len();
            self.compact_round::<V, R>(rng, machine);
            debug_assert!(self.run.alive.len() < before, "COMPACT made no progress");
            assert!(
                (self.stats.compact_rounds as u64) <= cap,
                "contraction failed to converge"
            );
        }
        self.stats
    }

    /// Replays one logged round's rake undo broadcasts (group `u` →
    /// its raked leaves) from the flat log, group by group: round 0 as
    /// a send, then the doubling levels depth-first (every raked leaf
    /// belongs to one group). Sending round 0 in log order equals the
    /// two-phase round: the log lists a cascaded child's group before
    /// the group that raked the child, so every parent sends before its
    /// own parent's group raises it.
    fn charge_rake_undo_broadcast(&self, group_range: std::ops::Range<usize>, m: &Machine) {
        let (slot, log) = (&self.slot, &self.run.rake_log);
        for &(u, start, end) in &self.run.rake_groups[group_range] {
            let leaves = &log[start as usize..end as usize];
            m.send(slot[u as usize], slot[leaves[0] as usize]);
            charge_broadcast_levels_depth_first(m, leaves.len(), |j| slot[leaves[j] as usize]);
        }
    }

    /// Charges the compress-undo messages (`u → v`) of one logged
    /// round.
    fn charge_compress_undo(&mut self, log_range: std::ops::Range<usize>, m: &Machine) {
        let (slot, run) = (&self.slot, &mut self.run);
        run.compress_msgs.clear();
        for &v in &run.compress_log[log_range] {
            // The parent pointer of a compressed vertex is frozen at
            // merge time: it is the representative v merged into.
            let u = run.parent[v as usize];
            run.compress_msgs.push((slot[u as usize], slot[v as usize]));
        }
        m.round(&run.compress_msgs);
    }

    /// §V-B uncontraction for the bottom-up treefix: returns
    /// `sum(v) = ⊕ values over v's subtree` for every vertex id. The
    /// slice lives in the run's output buffer (valid until the next
    /// run or swap).
    pub fn uncontract_bottom_up(&mut self, machine: &Machine) -> &[M] {
        assert_eq!(self.phase, Phase::Contracted, "contract() must run first");
        self.phase = Phase::Done;
        let n = self.n;
        // a[v]: combination of v's *outside descendants* — subtree
        // values below v that merged past it (preallocated identity).
        for round in (0..self.stats.compact_rounds as usize).rev() {
            let (gs, ge) = round_span(&self.run.rake_ends, round);
            let (cs, ce) = round_span(&self.run.compress_ends, round);
            // Rakes were executed after compresses within the step; undo
            // them first — all rake groups of the step concurrently.
            self.charge_rake_undo_broadcast(gs..ge, machine);
            let run = &mut self.run;
            for gi in (gs..ge).rev() {
                let (u, start, end) = run.rake_groups[gi];
                let mut acc = M::identity();
                for &v in &run.rake_log[start as usize..end as usize] {
                    acc = acc.combine(run.p[v as usize]);
                    // Leaf supervertices have no outside descendants:
                    // a[v] stays the identity.
                }
                run.acc[u as usize] = run.acc[u as usize].combine(acc);
                run.p[u as usize] = run.saved_p[run.rake_log[start as usize] as usize];
            }
            self.charge_compress_undo(cs..ce, machine);
            let run = &mut self.run;
            for li in (cs..ce).rev() {
                let v = run.compress_log[li];
                let u = run.parent[v as usize];
                // v's outside descendants were u's outside descendants.
                run.acc[v as usize] = run.acc[u as usize];
                run.acc[u as usize] = run.acc[u as usize].combine(run.p[v as usize]);
                run.p[u as usize] = run.saved_p[v as usize];
            }
        }
        let run = &mut self.run;
        let (p, acc) = (&run.p, &run.acc);
        for (out, &i) in run.out[..n].iter_mut().zip(&self.index_of) {
            *out = p[i as usize].combine(acc[i as usize]);
        }
        &run.out[..n]
    }

    /// §V-D uncontraction for the top-down treefix: returns
    /// `sum'(v) = ⊕ values along the root → v path` for every vertex
    /// id. The engine must have been loaded with `rake_adds_to_p =
    /// false`, and `values` must be the loaded values. The slice lives
    /// in the run's output buffer (valid until the next run or swap).
    pub fn uncontract_top_down(&mut self, machine: &Machine, values: &[M]) -> &[M] {
        self.uncontract_top_down_with(machine, |v| values[v as usize])
    }

    /// [`ContractionEngine::uncontract_top_down`] with each vertex's
    /// value read from `value_of(v)`: the top-down twin of
    /// [`ContractionEngine::load_with`], for a run loaded from a rule
    /// (the batched LCA's step 3 indicator). `value_of` must give the
    /// loaded values.
    pub fn uncontract_top_down_with(
        &mut self,
        machine: &Machine,
        value_of: impl Fn(NodeId) -> M,
    ) -> &[M] {
        assert_eq!(self.phase, Phase::Contracted, "contract() must run first");
        assert!(
            !self.rake_adds_to_p,
            "top-down uncontraction needs a path-segment P (rake_adds_to_p = false)"
        );
        self.phase = Phase::Done;
        let n = self.n;
        // acc[v] plays b[v]: combination of values strictly above
        // supervertex v.
        for round in (0..self.stats.compact_rounds as usize).rev() {
            let (gs, ge) = round_span(&self.run.rake_ends, round);
            let (cs, ce) = round_span(&self.run.compress_ends, round);
            self.charge_rake_undo_broadcast(gs..ge, machine);
            let run = &mut self.run;
            for gi in (gs..ge).rev() {
                let (u, start, end) = run.rake_groups[gi];
                for li in start as usize..end as usize {
                    let v = run.rake_log[li];
                    // The raked leaves hang below u's whole path segment.
                    run.acc[v as usize] = run.acc[u as usize].combine(run.p[u as usize]);
                }
            }
            self.charge_compress_undo(cs..ce, machine);
            let run = &mut self.run;
            for li in (cs..ce).rev() {
                let v = run.compress_log[li];
                let u = run.parent[v as usize];
                // The segment above v is u's pre-merge segment.
                run.acc[v as usize] = run.acc[u as usize].combine(run.saved_p[v as usize]);
                run.p[u as usize] = run.saved_p[v as usize];
            }
        }
        let run = &mut self.run;
        let acc = &run.acc;
        for ((out, &i), v) in run.out[..n].iter_mut().zip(&self.index_of).zip(0..) {
            *out = acc[i as usize].combine(value_of(v));
        }
        &run.out[..n]
    }

    /// A charge-only run of the bound structure: restores its run state
    /// without values, contracts it, then replays the uncontraction's
    /// charges round by round in reverse. It charges `machine`, draws
    /// from `rng` and logs exactly what a valued run
    /// ([`ContractionEngine::load`], [`ContractionEngine::contract`] and
    /// either `uncontract_*` method) does, in either direction, and
    /// returns the same stats, but reads and writes no value buffer, so
    /// it has no output. For a caller that needs a pass's charges but
    /// not its values (see "Charge-only runs" in the module docs). Load
    /// again before the next valued run; zero heap allocation when the
    /// run buffers fit.
    pub fn charge_only_run<R: Rng>(&mut self, machine: &Machine, rng: &mut R) -> ContractionStats {
        self.restore::<false>(|_| M::identity(), true);
        let stats = self.contract_rounds::<false, R>(machine, rng);
        for round in (0..stats.compact_rounds as usize).rev() {
            let (gs, ge) = round_span(&self.run.rake_ends, round);
            let (cs, ce) = round_span(&self.run.compress_ends, round);
            self.charge_rake_undo_broadcast(gs..ge, machine);
            self.charge_compress_undo(cs..ce, machine);
        }
        self.phase = Phase::Structured;
        stats
    }

    /// The most recent uncontraction result, re-borrowed (valid after
    /// an `uncontract_*` call, until the next load or swap).
    pub fn output(&self) -> &[M] {
        assert_eq!(self.phase, Phase::Done, "run an uncontraction first");
        &self.run.out[..self.n]
    }

    /// Number of still-active supervertices.
    pub fn alive_count(&self) -> usize {
        self.run.alive.len()
    }

    /// Vertex count of the bound tree structure (0 when unbound).
    pub fn bound_vertices(&self) -> usize {
        self.n
    }

    /// The vertex ids of the bound structure in engine-index order: the
    /// light-first preorder of the bound child CSR, so every parent
    /// precedes its children whatever the slots (empty when unbound).
    /// A caller that runs a pass charge-only folds its answers on the
    /// host over this order
    /// ([`crate::host::treefix_bottom_up_host_into`]).
    pub fn preorder(&self) -> &[NodeId] {
        &self.vid[..self.n]
    }

    /// Heap bytes the engine keeps resident: its structure and the run
    /// buffers it holds (its own set, or one lent to it), by capacity.
    /// Deterministic for a given capacity history, and what a counting
    /// allocator sees the engine hold.
    pub fn resident_bytes(&self) -> usize {
        vec_bytes(&self.vid)
            + vec_bytes(&self.index_of)
            + vec_bytes(&self.slot)
            + vec_bytes(&self.parent0)
            + vec_bytes(&self.group_parent0)
            + vec_bytes(&self.group_len0)
            + vec_bytes(&self.kids0)
            + self.run.resident_bytes()
    }
}

impl<M: CommutativeMonoid> EngineLifecycle for ContractionEngine<M> {
    /// The structure's capacity (a run set has its own).
    fn capacity(&self) -> usize {
        self.cap
    }

    /// Grows the structure to `cap` vertices, and the run buffers the
    /// engine holds unless they are the empty set (a pooled engine
    /// between runs, whose lent set grows with
    /// [`ContractionRun::reserve`] or at the first load that needs it).
    fn reserve(&mut self, cap: usize) {
        if self.run.cap > 0 {
            self.reserve_own_run(cap);
        }
        if cap <= self.cap {
            return;
        }
        fn grow<T>(buf: &mut Vec<T>, cap: usize) {
            buf.reserve(cap.saturating_sub(buf.len()));
        }
        grow(&mut self.vid, cap);
        grow(&mut self.index_of, cap);
        grow(&mut self.slot, cap);
        grow(&mut self.parent0, cap);
        grow(&mut self.group_parent0, cap);
        grow(&mut self.group_len0, cap);
        grow(&mut self.kids0, cap);
        self.cap = cap;
    }

    fn reset(&mut self) {
        self.n = 0;
        self.phase = Phase::Unbound;
    }
}

/// Grows `buf` to hold at least `cap` elements, exactly (a run set's
/// buffers are sized once, not doubled).
fn grow_exact<T>(buf: &mut Vec<T>, cap: usize) {
    buf.reserve_exact(cap.saturating_sub(buf.len()));
}

/// Stable in-place compaction keeping `v` where `flag[v]`: the
/// branchless SWAR replacement for `retain` on the alive list —
/// unconditional write, cursor advanced by the flag, no data-dependent
/// branch on the (random) liveness pattern for the predictor to miss.
fn compact_by_flag(list: &mut Vec<u32>, flag: &[bool]) {
    let mut k = 0usize;
    for i in 0..list.len() {
        let v = list[i];
        list[k] = v;
        k += flag[v as usize] as usize;
    }
    list.truncate(k);
}

/// Moves the child list `kids[from..from + len]` of a branching group
/// (`len ≥ 2`; both passes move single-child lists inline) to start at
/// `to`, either direction, overlapping or not. Lists of two and three
/// children move element by element: `copy_within` is a `memmove` call,
/// and most branching lists are that short.
#[inline(always)]
fn move_kids(kids: &mut [u32], from: usize, to: usize, len: usize) {
    match len {
        2 => {
            let (a, b) = (kids[from], kids[from + 1]);
            kids[to] = a;
            kids[to + 1] = b;
        }
        3 => {
            let (a, b, c) = (kids[from], kids[from + 1], kids[from + 2]);
            kids[to] = a;
            kids[to + 1] = b;
            kids[to + 2] = c;
        }
        _ => kids.copy_within(from..from + len, to),
    }
}

/// `[start, end)` span of round `r` in a per-round end-offset array.
#[inline]
fn round_span(ends: &[u32], round: usize) -> (usize, usize) {
    let start = if round == 0 {
        0
    } else {
        ends[round - 1] as usize
    };
    (start, ends[round] as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{treefix_bottom_up_host, treefix_top_down_host};
    use crate::monoid::{Add, Max};
    use rand::prelude::*;
    use spatial_model::CurveKind;
    use spatial_tree::generators;

    fn run_bottom_up<M: CommutativeMonoid>(
        tree: &Tree,
        values: &[M],
        seed: u64,
    ) -> (Vec<M>, ContractionStats) {
        let layout = Layout::light_first(tree, CurveKind::Hilbert);
        let machine = layout.machine();
        let mut eng = ContractionEngine::new(tree, &layout, values, true);
        let stats = eng.contract(&machine, &mut StdRng::seed_from_u64(seed));
        (eng.uncontract_bottom_up(&machine).to_vec(), stats)
    }

    fn run_top_down<M: CommutativeMonoid>(tree: &Tree, values: &[M], seed: u64) -> Vec<M> {
        let layout = Layout::light_first(tree, CurveKind::Hilbert);
        let machine = layout.machine();
        let mut eng = ContractionEngine::new(tree, &layout, values, false);
        eng.contract(&machine, &mut StdRng::seed_from_u64(seed));
        eng.uncontract_top_down(&machine, values).to_vec()
    }

    #[test]
    fn two_vertex_tree() {
        let t = Tree::from_parents(0, vec![NIL, 0]);
        let (got, stats) = run_bottom_up(&t, &[Add(5), Add(7)], 1);
        assert_eq!(got, vec![Add(12), Add(7)]);
        assert_eq!(stats.compact_rounds, 1);
        assert_eq!(stats.rakes, 1);
    }

    #[test]
    fn path_bottom_up() {
        let t = generators::path(10);
        let values: Vec<Add> = (0..10u64).map(Add).collect();
        let (got, _) = run_bottom_up(&t, &values, 3);
        assert_eq!(got, treefix_bottom_up_host(&t, &values));
    }

    #[test]
    fn star_bottom_up() {
        let t = generators::star(100);
        let values: Vec<Add> = (0..100u64).map(|v| Add(v + 1)).collect();
        let (got, stats) = run_bottom_up(&t, &values, 4);
        assert_eq!(got, treefix_bottom_up_host(&t, &values));
        // One rake absorbs all 99 leaves.
        assert_eq!(stats.compact_rounds, 1);
        assert_eq!(stats.rakes, 99);
    }

    #[test]
    fn bottom_up_matches_host_on_families() {
        let mut rng = StdRng::seed_from_u64(5);
        for fam in generators::TreeFamily::ALL {
            let t = fam.generate(300, &mut rng);
            let n = t.n();
            let values: Vec<Add> = (0..n as u64).map(|v| Add(v * 3 + 1)).collect();
            let (got, _) = run_bottom_up(&t, &values, 6);
            assert_eq!(got, treefix_bottom_up_host(&t, &values), "{fam}");
        }
    }

    #[test]
    fn top_down_matches_host_on_families() {
        let mut rng = StdRng::seed_from_u64(7);
        for fam in generators::TreeFamily::ALL {
            let t = fam.generate(300, &mut rng);
            let n = t.n();
            let values: Vec<Add> = (0..n as u64).map(|v| Add(v * 5 + 2)).collect();
            let got = run_top_down(&t, &values, 8);
            assert_eq!(got, treefix_top_down_host(&t, &values), "{fam}");
        }
    }

    #[test]
    fn max_monoid_no_inverse() {
        // max has no inverses: this exercises the saved-P undo path.
        let mut rng = StdRng::seed_from_u64(9);
        let t = generators::uniform_random(500, &mut rng);
        let values: Vec<Max> = (0..500u64)
            .map(|v| Max((v * 2_654_435_761) % 1000))
            .collect();
        let (got, _) = run_bottom_up(&t, &values, 10);
        assert_eq!(got, treefix_bottom_up_host(&t, &values));
        let got_td = run_top_down(&t, &values, 11);
        assert_eq!(got_td, treefix_top_down_host(&t, &values));
    }

    #[test]
    fn las_vegas_any_seed_same_result() {
        let mut rng = StdRng::seed_from_u64(12);
        let t = generators::preferential_attachment(200, &mut rng);
        let values: Vec<Add> = (0..200u64).map(Add).collect();
        let expect = treefix_bottom_up_host(&t, &values);
        for seed in 0..8 {
            let (got, _) = run_bottom_up(&t, &values, seed);
            assert_eq!(got, expect, "seed {seed}");
        }
    }

    #[test]
    fn rounds_logarithmic() {
        let mut rng = StdRng::seed_from_u64(13);
        for log_n in [10u32, 13] {
            let n = 1u32 << log_n;
            let t = generators::random_binary(n, &mut rng);
            let values = vec![Add(1); n as usize];
            let (_, stats) = run_bottom_up(&t, &values, 14);
            assert!(
                stats.compact_rounds <= 6 * log_n,
                "n=2^{log_n}: {} rounds",
                stats.compact_rounds
            );
        }
    }

    #[test]
    fn subtree_sizes_via_treefix() {
        let mut rng = StdRng::seed_from_u64(15);
        let t = generators::uniform_random(400, &mut rng);
        let (got, _) = run_bottom_up(&t, &vec![Add(1); 400], 16);
        let sizes: Vec<u64> = got.iter().map(|a| a.0).collect();
        let expect: Vec<u64> = t.subtree_sizes().iter().map(|&s| s as u64).collect();
        assert_eq!(sizes, expect);
    }

    #[test]
    fn single_vertex() {
        let t = Tree::from_parents(0, vec![NIL]);
        let (got, stats) = run_bottom_up(&t, &[Add(42)], 17);
        assert_eq!(got, vec![Add(42)]);
        assert_eq!(stats.compact_rounds, 0);
    }

    #[test]
    fn prebuilt_csr_constructor_agrees() {
        let mut rng = StdRng::seed_from_u64(18);
        let t = generators::uniform_random(300, &mut rng);
        let sizes = t.subtree_sizes();
        let csr = ChildrenCsr::by_size(&t, &sizes);
        let layout = Layout::light_first(&t, CurveKind::Hilbert);
        let machine = layout.machine();
        let values: Vec<Add> = (0..300u64).map(Add).collect();
        let mut eng = ContractionEngine::with_children_csr(&t, &layout, &values, true, &csr);
        eng.contract(&machine, &mut StdRng::seed_from_u64(19));
        assert_eq!(
            eng.uncontract_bottom_up(&machine),
            &treefix_bottom_up_host(&t, &values)[..]
        );
    }

    #[test]
    fn rebinding_across_trees_matches_fresh_engines() {
        // One pooled engine serving trees of sizes n, then 2n+3, then 5
        // answers exactly like a fresh engine per tree, and the charges
        // agree too (the capacity-growth contract of the session pool).
        // Each tree is bound once, then loaded for runs in both
        // directions with different values.
        let n0 = 120u32;
        let mut engine: ContractionEngine<Add> = ContractionEngine::with_capacity(n0 as usize);
        for (i, n) in [n0, 2 * n0 + 3, 5, 2 * n0].into_iter().enumerate() {
            let t = generators::uniform_random(n, &mut StdRng::seed_from_u64(20 + i as u64));
            let layout = Layout::light_first(&t, CurveKind::Hilbert);
            let sizes = t.subtree_sizes();
            let csr = ChildrenCsr::by_size(&t, &sizes);
            engine.reserve(n as usize);
            for run in 0..4u64 {
                let values: Vec<Add> = (0..n as u64).map(|v| Add(v * run + 1)).collect();
                let bottom_up = run % 2 == 0;
                if run == 0 {
                    engine.bind(&t, &layout, &csr, &values, bottom_up);
                } else {
                    engine.load(&values, bottom_up);
                }
                let m_pooled = layout.machine();
                let s_pooled = engine.contract(&m_pooled, &mut StdRng::seed_from_u64(30 + run));
                let got = if bottom_up {
                    engine.uncontract_bottom_up(&m_pooled).to_vec()
                } else {
                    engine.uncontract_top_down(&m_pooled, &values).to_vec()
                };

                let mut fresh = ContractionEngine::new(&t, &layout, &values, bottom_up);
                let m_fresh = layout.machine();
                let s_fresh = fresh.contract(&m_fresh, &mut StdRng::seed_from_u64(30 + run));
                let expect = if bottom_up {
                    fresh.uncontract_bottom_up(&m_fresh).to_vec()
                } else {
                    fresh.uncontract_top_down(&m_fresh, &values).to_vec()
                };

                assert_eq!(got, expect, "n={n}, run {run}");
                assert_eq!(s_pooled, s_fresh, "n={n}, run {run}");
                assert_eq!(m_pooled.report(), m_fresh.report(), "n={n}, run {run}");
            }
        }
    }

    #[test]
    fn a_lent_set_contracts_like_the_engines_own() {
        // One run set serves trees of several sizes and both directions
        // in turn: every run answers and charges like a fresh engine on
        // its own set, per-slot clocks included.
        let mut shared: ContractionRun<Max> = ContractionRun::default();
        for (i, n) in [120u32, 500, 30, 260].into_iter().enumerate() {
            let t = generators::uniform_random(n, &mut StdRng::seed_from_u64(40 + i as u64));
            let layout = Layout::light_first(&t, CurveKind::Hilbert);
            let csr = ChildrenCsr::by_size(&t, &t.subtree_sizes());
            let slots: Vec<Slot> = (0..n).map(|v| layout.slot(v)).collect();
            let values: Vec<Max> = (0..n as u64).map(|v| Max((v * 37) % 101)).collect();
            let bottom_up = i % 2 == 0;
            let mut engine = ContractionEngine::default();
            engine.bind_structure(t.parents(), &slots, &csr);
            engine.swap_run(&mut shared);
            engine.load(&values, bottom_up);
            let m_lent = layout.machine();
            let s_lent = engine.contract(&m_lent, &mut StdRng::seed_from_u64(50));
            let got = if bottom_up {
                engine.uncontract_bottom_up(&m_lent).to_vec()
            } else {
                engine.uncontract_top_down(&m_lent, &values).to_vec()
            };
            let mut fresh = ContractionEngine::new(&t, &layout, &values, bottom_up);
            let m_fresh = layout.machine();
            let s_fresh = fresh.contract(&m_fresh, &mut StdRng::seed_from_u64(50));
            let want = if bottom_up {
                fresh.uncontract_bottom_up(&m_fresh).to_vec()
            } else {
                fresh.uncontract_top_down(&m_fresh, &values).to_vec()
            };
            assert_eq!(got, want, "n={n}");
            assert_eq!(s_lent, s_fresh, "n={n}");
            assert_eq!(m_lent.report(), m_fresh.report(), "n={n}");
            assert!(
                (0..m_lent.n_slots()).all(|s| m_lent.clock(s) == m_fresh.clock(s)),
                "n={n}: per-slot clocks"
            );
            engine.swap_run(&mut shared);
            assert_eq!(engine.run.resident_bytes(), 0, "n={n}: kept no run buffers");
        }
    }

    #[test]
    fn preorder_is_slot_order_on_light_first_layouts() {
        // On a light-first layout the engine's index order is the slot
        // order, on every family.
        let mut rng = StdRng::seed_from_u64(21);
        for fam in generators::TreeFamily::ALL {
            let t = fam.generate(1 << 14, &mut rng);
            let layout = Layout::light_first(&t, CurveKind::Hilbert);
            let values = vec![Add(1); t.n() as usize];
            let eng = ContractionEngine::new(&t, &layout, &values, true);
            assert!(
                eng.slot.iter().enumerate().all(|(i, &s)| s as usize == i),
                "{fam}: engine index order is not slot order"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bind a tree structure first")]
    fn load_requires_a_structure() {
        let mut engine: ContractionEngine<Add> = ContractionEngine::with_capacity(8);
        engine.load(&[Add(1)], true);
    }

    #[test]
    #[should_panic(expected = "bind() a tree first")]
    fn contract_requires_binding() {
        let mut engine: ContractionEngine<Add> = ContractionEngine::with_capacity(8);
        let machine = Machine::on_curve(CurveKind::Hilbert, 8);
        engine.contract(&machine, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "contract() must run first")]
    fn uncontract_requires_contract() {
        let t = generators::path(4);
        let layout = Layout::light_first(&t, CurveKind::Hilbert);
        let machine = layout.machine();
        let values = vec![Add(1); 4];
        let mut engine = ContractionEngine::new(&t, &layout, &values, true);
        engine.uncontract_bottom_up(&machine);
    }
}
