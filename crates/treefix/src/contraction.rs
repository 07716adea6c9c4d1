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
//! The Las Vegas process is the seed engine's, draw for draw, because
//! two vertex-id orders are kept where they are observable: coins are
//! drawn in vertex-id order (the alive list is kept in id order for that
//! one loop), and a child that RAKE emptied earlier in the same round
//! counts as a leaf only when its vertex id is smaller than its
//! parent's — exactly what an id-order RAKE loop sees. The rake log then
//! lists a cascaded child's group before its parent's group, the order
//! uncontraction needs.
//!
//! # Memory discipline and lifecycle
//!
//! This is the hottest loop in the workspace, so all storage is laid
//! out flat and owned by the engine — there are no borrows, which is
//! what lets the session layer's engine pool retain one engine across
//! many trees. The uniform `reset/reserve/run` lifecycle
//! ([`spatial_model::EngineLifecycle`]):
//!
//! - [`ContractionEngine::with_capacity`] allocates every buffer once;
//! - [`ContractionEngine::bind_structure`] numbers a concrete (tree,
//!   slots, light-first CSR) instance once per tree: preorder, slots and
//!   the initial child CSR in index order;
//! - [`ContractionEngine::load`] restores the per-run state with
//!   sequential passes and permutes one run's values into index order —
//!   [`ContractionEngine::bind`] and [`ContractionEngine::bind_parts`]
//!   are "structure, then load"; none of these allocates whenever the
//!   tree fits the current capacity;
//! - [`ContractionEngine::contract`] and the `uncontract_*` methods
//!   run the §V algorithm, charging the machine they are given, never
//!   allocate, and return results permuted back to vertex ids;
//! - [`spatial_model::EngineLifecycle::reserve`] grows the capacity
//!   (the only allocating step once the engine exists).
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

/// The contraction engine. Create with
/// [`ContractionEngine::with_capacity`] (or the one-shot
/// [`ContractionEngine::new`]), bind a tree with
/// [`ContractionEngine::bind_structure`] and each run's values with
/// [`ContractionEngine::load`] (or both at once with
/// [`ContractionEngine::bind`]), run [`ContractionEngine::contract`],
/// then exactly one of the `uncontract` methods. The engine owns every
/// buffer, so one instance serves any number of trees and runs.
pub struct ContractionEngine<M: CommutativeMonoid> {
    /// Vertex count of the bound structure (0 when unbound).
    n: usize,
    /// Largest vertex count the retained buffers have ever served;
    /// bindings at or below this never allocate.
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
    /// Live group and child counts of the CSR: a suffix of the buffers
    /// between rounds, a prefix between the two passes of a round.
    live_groups: usize,
    live_kids: usize,

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

    // ---- Reusable scratch (allocated once, cleared per use). ----
    /// Round 0 of the next round's first children broadcast, staged by
    /// the RAKE pass.
    first_msgs: Vec<(Slot, Slot)>,
    /// Random-mate probe messages (parent → viable child).
    probe_msgs: Vec<(Slot, Slot)>,
    /// COMPRESS messages (`v → u`, `v → c`).
    compress_msgs: Vec<(Slot, Slot)>,
    /// Rake parents emptied this round whose parent must not see them
    /// as leaves until the round ends (larger vertex id than the
    /// parent's).
    deferred: Vec<u32>,
    /// The round's RAKE reduce relays, staged by level.
    relays: StagedReduceRelays,
    /// Uncontraction accumulator (`A_v` / `B_v`), preallocated.
    acc: Vec<M>,
    /// Output buffer by vertex id, retained across runs and returned by
    /// slice.
    out: Vec<M>,

    stats: ContractionStats,
    coin: Vec<bool>,
}

impl<M: CommutativeMonoid> ContractionEngine<M> {
    /// An unbound engine whose buffers are pre-sized for trees of up to
    /// `cap` vertices; bindings within the capacity never allocate.
    pub fn with_capacity(cap: usize) -> Self {
        ContractionEngine {
            n: 0,
            cap,
            phase: Phase::Unbound,
            rake_adds_to_p: true,
            vid: Vec::with_capacity(cap),
            index_of: Vec::with_capacity(cap),
            slot: Vec::with_capacity(cap),
            parent0: Vec::with_capacity(cap),
            group_parent0: Vec::with_capacity(cap),
            group_len0: Vec::with_capacity(cap),
            kids0: Vec::with_capacity(cap),
            parent: Vec::with_capacity(cap),
            child_count: Vec::with_capacity(cap),
            p: Vec::with_capacity(cap),
            active: Vec::with_capacity(cap),
            alive: Vec::with_capacity(cap),
            group_parent: Vec::with_capacity(cap),
            group_len: Vec::with_capacity(cap),
            kids: Vec::with_capacity(cap),
            live_groups: 0,
            live_kids: 0,
            saved_p: Vec::with_capacity(cap),
            compress_log: Vec::with_capacity(cap),
            compress_ends: Vec::with_capacity(round_capacity(cap)),
            rake_log: Vec::with_capacity(cap),
            rake_groups: Vec::with_capacity(cap),
            rake_ends: Vec::with_capacity(round_capacity(cap)),
            first_msgs: Vec::with_capacity(cap),
            probe_msgs: Vec::with_capacity(cap),
            compress_msgs: Vec::with_capacity(cap),
            deferred: Vec::with_capacity(cap),
            relays: StagedReduceRelays::with_capacity(cap),
            acc: Vec::with_capacity(cap),
            out: Vec::with_capacity(cap),
            stats: ContractionStats::ZERO,
            coin: Vec::with_capacity(cap),
        }
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
    /// [`ContractionEngine::load`]-and-run cycles follow. Zero heap
    /// allocation within capacity.
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

        // Light-first preorder of the sorted CSR (the per-run alive
        // buffer doubles as the DFS stack).
        self.vid.clear();
        self.index_of.clear();
        self.index_of.resize(n, NIL);
        let stack = &mut self.alive;
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

    /// The per-run step: restores the run state of the bound structure
    /// with sequential passes and loads `values` (by vertex id),
    /// restarting the run cycle. Zero heap allocation within capacity.
    pub fn load(&mut self, values: &[M], rake_adds_to_p: bool) {
        assert!(self.phase != Phase::Unbound, "bind a tree structure first");
        let n = self.n;
        assert_eq!(values.len(), n, "one value per vertex");
        self.phase = Phase::Bound;
        self.rake_adds_to_p = rake_adds_to_p;

        self.parent.clear();
        self.parent.extend_from_slice(&self.parent0);
        self.child_count.clear();
        self.child_count.resize(n, 0);
        for (&u, &len) in self.group_parent0.iter().zip(&self.group_len0) {
            self.child_count[u as usize] = len;
        }
        self.p.clear();
        self.p.extend(self.vid.iter().map(|&v| values[v as usize]));
        self.active.clear();
        self.active.resize(n, true);
        self.alive.clear();
        self.alive.extend_from_slice(&self.index_of);
        self.group_parent.clear();
        self.group_parent.extend_from_slice(&self.group_parent0);
        self.group_len.clear();
        self.group_len.extend_from_slice(&self.group_len0);
        self.kids.clear();
        self.kids.extend_from_slice(&self.kids0);
        self.live_groups = self.group_parent.len();
        self.live_kids = self.kids.len();
        // Written before every read (at deactivation / per-round draw):
        // only the length needs restoring.
        self.saved_p.resize(n, M::identity());
        self.coin.resize(n, false);
        self.compress_log.clear();
        self.compress_ends.clear();
        self.rake_log.clear();
        self.rake_groups.clear();
        self.rake_ends.clear();
        self.acc.clear();
        self.acc.resize(n, M::identity());
        self.out.resize(n, M::identity());
        self.stats = ContractionStats::ZERO;

        self.first_msgs.clear();
        let mut start = 0usize;
        for (&u, &len) in self.group_parent.iter().zip(&self.group_len) {
            let first = self.kids[start];
            self.first_msgs
                .push((self.slot[u as usize], self.slot[first as usize]));
            start += len as usize;
        }
    }

    /// Steps 1–3 of a COMPACT round in one forward pass over the live
    /// child CSR: the first children broadcast's doubling levels, the
    /// random-mate probe of every viable vertex, COMPRESS of the
    /// selected ones, and the compaction of the CSR (a suffix of its
    /// buffers) to the front. Stages the probe and COMPRESS rounds.
    fn compress_pass(&mut self, m: &Machine) -> u64 {
        let slot = &self.slot;
        let coin = &self.coin;
        let child_count = &self.child_count;
        let kids = &mut self.kids;
        let group_parent = &mut self.group_parent;
        let group_len = &mut self.group_len;
        self.probe_msgs.clear();
        self.compress_msgs.clear();
        let groups = group_parent.len();
        // Read cursors (group, child) run ahead of write cursors.
        let (mut r, mut rk) = (groups - self.live_groups, kids.len() - self.live_kids);
        let (mut w, mut wk) = (0usize, 0usize);
        let mut compresses = 0u64;
        while r < groups {
            let u = group_parent[r];
            let len = group_len[r] as usize;
            if len > 1 {
                // Branching parent: none of its children is viable.
                let ks = &kids[rk..rk + len];
                charge_broadcast_levels_depth_first(m, len, |j| slot[ks[j] as usize]);
                kids.copy_within(rk..rk + len, wk);
            } else {
                let v = kids[rk];
                kids[wk] = v;
                if child_count[v as usize] == 1 {
                    // v is viable: u's only child with one child.
                    self.probe_msgs.push((slot[u as usize], slot[v as usize]));
                    if coin[v as usize] & !coin[u as usize] {
                        // COMPRESS v into u. v's group, [c], is the
                        // next one: no live vertex lies between u and v
                        // in index order.
                        debug_assert_eq!(group_parent[r + 1], v);
                        let c = kids[rk + 1];
                        if child_count[c as usize] == 1 {
                            self.probe_msgs.push((slot[v as usize], slot[c as usize]));
                        }
                        let (ui, vi) = (u as usize, v as usize);
                        self.saved_p[vi] = self.p[ui];
                        self.p[ui] = self.p[ui].combine(self.p[vi]);
                        // u's only child was v; u inherits v's only child c.
                        self.parent[c as usize] = u;
                        self.active[vi] = false;
                        self.compress_msgs.push((slot[vi], slot[ui]));
                        self.compress_msgs.push((slot[vi], slot[c as usize]));
                        self.compress_log.push(v);
                        compresses += 1;
                        kids[wk] = c;
                        r += 1;
                        rk += 1;
                    }
                }
            }
            group_parent[w] = u;
            group_len[w] = len as u32;
            r += 1;
            rk += len;
            w += 1;
            wk += len;
        }
        self.live_groups = w;
        self.live_kids = wk;
        compresses
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
    /// sent.
    fn rake_pass(&mut self, m: &Machine) {
        let slot = &self.slot;
        let vid = &self.vid;
        self.first_msgs.clear();
        self.deferred.clear();
        // Read cursors run from the end of the prefix, write cursors
        // from the end of the buffers, never below the read cursors.
        let mut end = self.live_kids;
        let (mut wg, mut wk) = (self.group_parent.len(), self.kids.len());
        for g in (0..self.live_groups).rev() {
            let u = self.group_parent[g] as usize;
            let len = self.group_len[g] as usize;
            let start = end - len;
            end = start;
            let ks = &self.kids[start..start + len];
            m.send(slot[u], slot[ks[0] as usize]);
            if len > 1 {
                charge_broadcast_levels_depth_first(m, len, |j| slot[ks[j] as usize]);
            }
            // Branchless count: is this a raking parent?
            let leaves = ks
                .iter()
                .map(|&c| (self.child_count[c as usize] == 0) as usize)
                .sum::<usize>();
            if leaves == 0 || len - leaves > 1 {
                wg -= 1;
                wk -= len;
                self.group_parent[wg] = u as u32;
                self.group_len[wg] = len as u32;
                self.kids.copy_within(start..start + len, wk);
                self.first_msgs
                    .push((slot[u], slot[self.kids[wk] as usize]));
                continue;
            }
            // The reduce relay spans all children (the non-raked child w
            // contributes the identity, as in the paper).
            self.relays.stage(len, |j| slot[ks[j] as usize], slot[u]);

            let saved = self.p[u];
            let mut acc = M::identity();
            let group_start = self.rake_log.len() as u32;
            let mut kept = NIL;
            for &c in ks {
                let ci = c as usize;
                if self.child_count[ci] == 0 {
                    acc = acc.combine(self.p[ci]);
                    self.saved_p[ci] = saved;
                    self.active[ci] = false;
                    self.rake_log.push(c);
                } else {
                    kept = c;
                }
            }
            if self.rake_adds_to_p {
                self.p[u] = saved.combine(acc);
            }
            self.stats.rakes += leaves as u64;
            self.rake_groups
                .push((u as u32, group_start, self.rake_log.len() as u32));
            let left = (len - leaves) as u32;
            if left == 1 {
                wg -= 1;
                wk -= 1;
                self.group_parent[wg] = u as u32;
                self.group_len[wg] = 1;
                self.kids[wk] = kept;
                self.first_msgs.push((slot[u], slot[kept as usize]));
            }
            // An id-order RAKE loop reaches u's parent before u when the
            // parent's id is smaller: that parent must still see u as
            // branching this round.
            let w = self.parent[u];
            if left == 0 && w != NIL && vid[u] > vid[w as usize] {
                self.deferred.push(u as u32);
            } else {
                self.child_count[u] = left;
            }
        }
        for &u in &self.deferred {
            self.child_count[u as usize] = 0;
        }
        self.live_groups = self.group_parent.len() - wg;
        self.live_kids = self.kids.len() - wk;
    }

    /// One COMPACT round: compress an independent random-mate set of
    /// viable supervertices, then rake leaf supervertices.
    fn compact_round<R: Rng>(&mut self, rng: &mut R, m: &Machine) {
        // Step 1: branching info — round 0 here, the doubling levels in
        // the COMPRESS pass. Round 0 stays one two-phase round: sent
        // during the forward pass, a parent's fresh clock would chain
        // into its own children.
        m.round(&self.first_msgs);

        // Step 2: random-mate coins, drawn in vertex-id order.
        for &v in &self.alive {
            self.coin[v as usize] = rng.gen();
        }

        // Steps 2–3: probe the viable vertices and COMPRESS the selected
        // independent set (heads with a tails parent, so no parent is
        // itself compressed this round).
        let compresses = self.compress_pass(m);
        m.round(&self.probe_msgs);
        m.round(&self.compress_msgs);
        self.stats.compresses += compresses;

        // Steps 4–5: refresh branching info after the compresses and
        // RAKE. All rakes of the round run concurrently: the reduce
        // relays are charged as one batch, one round per level.
        self.rake_pass(m);
        self.relays.charge(m);
        let mut alive = std::mem::take(&mut self.alive);
        compact_by_flag(&mut alive, &self.active);
        self.alive = alive;

        self.compress_ends.push(self.compress_log.len() as u32);
        self.rake_ends.push(self.rake_groups.len() as u32);
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
        let n = self.n as u64;
        // Rake always removes the deepest leaves, so every round makes
        // progress; the bound below is a defensive cap, not a tuning
        // parameter.
        let cap = 4 * n + 64;
        while self.alive.len() > 1 {
            let before = self.alive.len();
            self.compact_round(rng, machine);
            debug_assert!(self.alive.len() < before, "COMPACT made no progress");
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
        let (slot, log) = (&self.slot, &self.rake_log);
        for &(u, start, end) in &self.rake_groups[group_range] {
            let leaves = &log[start as usize..end as usize];
            m.send(slot[u as usize], slot[leaves[0] as usize]);
            if leaves.len() > 1 {
                charge_broadcast_levels_depth_first(m, leaves.len(), |j| slot[leaves[j] as usize]);
            }
        }
    }

    /// Charges the compress-undo messages (`u → v`) of one logged
    /// round.
    fn charge_compress_undo(&mut self, log_range: std::ops::Range<usize>, m: &Machine) {
        self.compress_msgs.clear();
        for &v in &self.compress_log[log_range] {
            let u = self.parent_at_merge(v);
            self.compress_msgs
                .push((self.slot[u as usize], self.slot[v as usize]));
        }
        m.round(&self.compress_msgs);
    }

    /// §V-B uncontraction for the bottom-up treefix: returns
    /// `sum(v) = ⊕ values over v's subtree` for every vertex id. The
    /// slice lives in the engine's retained output buffer (valid until
    /// the next run).
    pub fn uncontract_bottom_up(&mut self, machine: &Machine) -> &[M] {
        assert_eq!(self.phase, Phase::Contracted, "contract() must run first");
        self.phase = Phase::Done;
        let n = self.n;
        // a[v]: combination of v's *outside descendants* — subtree
        // values below v that merged past it (preallocated identity).
        for round in (0..self.stats.compact_rounds as usize).rev() {
            let (gs, ge) = round_span(&self.rake_ends, round);
            let (cs, ce) = round_span(&self.compress_ends, round);
            // Rakes were executed after compresses within the step; undo
            // them first — all rake groups of the step concurrently.
            self.charge_rake_undo_broadcast(gs..ge, machine);
            for gi in (gs..ge).rev() {
                let (u, start, end) = self.rake_groups[gi];
                let mut acc = M::identity();
                for &v in &self.rake_log[start as usize..end as usize] {
                    acc = acc.combine(self.p[v as usize]);
                    // Leaf supervertices have no outside descendants:
                    // a[v] stays the identity.
                }
                self.acc[u as usize] = self.acc[u as usize].combine(acc);
                self.p[u as usize] = self.saved_p[self.rake_log[start as usize] as usize];
            }
            self.charge_compress_undo(cs..ce, machine);
            for li in (cs..ce).rev() {
                let v = self.compress_log[li];
                let u = self.parent_at_merge(v);
                // v's outside descendants were u's outside descendants.
                self.acc[v as usize] = self.acc[u as usize];
                self.acc[u as usize] = self.acc[u as usize].combine(self.p[v as usize]);
                self.p[u as usize] = self.saved_p[v as usize];
            }
        }
        let (p, acc) = (&self.p, &self.acc);
        for (out, &i) in self.out[..n].iter_mut().zip(&self.index_of) {
            *out = p[i as usize].combine(acc[i as usize]);
        }
        &self.out[..n]
    }

    /// §V-D uncontraction for the top-down treefix: returns
    /// `sum'(v) = ⊕ values along the root → v path` for every vertex
    /// id. The engine must have been loaded with `rake_adds_to_p =
    /// false`, and `values` must be the loaded values. The slice lives
    /// in the engine's retained output buffer (valid until the next
    /// run).
    pub fn uncontract_top_down(&mut self, machine: &Machine, values: &[M]) -> &[M] {
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
            let (gs, ge) = round_span(&self.rake_ends, round);
            let (cs, ce) = round_span(&self.compress_ends, round);
            self.charge_rake_undo_broadcast(gs..ge, machine);
            for gi in (gs..ge).rev() {
                let (u, start, end) = self.rake_groups[gi];
                for li in start as usize..end as usize {
                    let v = self.rake_log[li];
                    // The raked leaves hang below u's whole path segment.
                    self.acc[v as usize] = self.acc[u as usize].combine(self.p[u as usize]);
                }
            }
            self.charge_compress_undo(cs..ce, machine);
            for li in (cs..ce).rev() {
                let v = self.compress_log[li];
                let u = self.parent_at_merge(v);
                // The segment above v is u's pre-merge segment.
                self.acc[v as usize] = self.acc[u as usize].combine(self.saved_p[v as usize]);
                self.p[u as usize] = self.saved_p[v as usize];
            }
        }
        let acc = &self.acc;
        for ((out, &i), &value) in self.out[..n].iter_mut().zip(&self.index_of).zip(values) {
            *out = acc[i as usize].combine(value);
        }
        &self.out[..n]
    }

    /// The most recent uncontraction result, re-borrowed (valid after
    /// an `uncontract_*` call, until the next load).
    pub fn output(&self) -> &[M] {
        assert_eq!(self.phase, Phase::Done, "run an uncontraction first");
        &self.out[..self.n]
    }

    /// The representative a compressed vertex merged into. The parent
    /// pointer of `v` is frozen at merge time (deactivated vertices are
    /// never re-parented).
    fn parent_at_merge(&self, v: u32) -> u32 {
        self.parent[v as usize]
    }

    /// Number of still-active supervertices.
    pub fn alive_count(&self) -> usize {
        self.alive.len()
    }

    /// Vertex count of the bound tree structure (0 when unbound).
    pub fn bound_vertices(&self) -> usize {
        self.n
    }

    /// Heap bytes the engine keeps resident: every retained buffer, by
    /// capacity. Deterministic for a given capacity history, and what a
    /// counting allocator sees the engine hold.
    pub fn resident_bytes(&self) -> usize {
        vec_bytes(&self.vid)
            + vec_bytes(&self.index_of)
            + vec_bytes(&self.slot)
            + vec_bytes(&self.parent0)
            + vec_bytes(&self.group_parent0)
            + vec_bytes(&self.group_len0)
            + vec_bytes(&self.kids0)
            + vec_bytes(&self.parent)
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

impl<M: CommutativeMonoid> EngineLifecycle for ContractionEngine<M> {
    fn capacity(&self) -> usize {
        self.cap
    }

    fn reserve(&mut self, cap: usize) {
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
        grow(&mut self.parent, cap);
        grow(&mut self.child_count, cap);
        grow(&mut self.p, cap);
        grow(&mut self.active, cap);
        grow(&mut self.alive, cap);
        grow(&mut self.group_parent, cap);
        grow(&mut self.group_len, cap);
        grow(&mut self.kids, cap);
        grow(&mut self.saved_p, cap);
        grow(&mut self.compress_log, cap);
        grow(&mut self.compress_ends, round_capacity(cap));
        grow(&mut self.rake_log, cap);
        grow(&mut self.rake_groups, cap);
        grow(&mut self.rake_ends, round_capacity(cap));
        grow(&mut self.first_msgs, cap);
        grow(&mut self.probe_msgs, cap);
        grow(&mut self.compress_msgs, cap);
        grow(&mut self.deferred, cap);
        grow(&mut self.acc, cap);
        grow(&mut self.out, cap);
        grow(&mut self.coin, cap);
        self.relays.reserve(cap);
        self.cap = cap;
    }

    fn reset(&mut self) {
        self.n = 0;
        self.phase = Phase::Unbound;
    }
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
