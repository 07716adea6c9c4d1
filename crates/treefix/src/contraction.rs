//! The rake/compress contraction engine (§V-A, §V-B) — allocation-free
//! after setup, rebindable across trees.
//!
//! Supervertices are identified with their representative `R(u)` — the
//! vertex closest to the root, which is also the first vertex of the
//! supervertex in light-first order. Every vertex holds O(1) state:
//! parent pointer, a doubly-linked sibling list (so child sets mutate in
//! O(1) per merge), a partial sum `P`, and — once deactivated — its O(1)
//! share of the distributed contraction log (Fig. 6): the step number,
//! the merge kind, and the parent's pre-merge partial sum. The engine
//! charges every message on the machine; unbounded fan-in/out goes
//! through balanced relays (`spatial-messaging`).
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
//! - [`ContractionEngine::bind`] loads a concrete (tree, layout, CSR,
//!   values) instance into the retained buffers — **zero heap
//!   allocation** whenever the tree fits the current capacity;
//! - [`ContractionEngine::contract`] and the `uncontract_*` methods
//!   run the §V algorithm, charging the machine they are given, and
//!   never allocate;
//! - [`spatial_model::EngineLifecycle::reserve`] grows the capacity
//!   (the only allocating step once the engine exists).
//!
//! Per-vertex storage details: initial child lists come from a
//! [`spatial_tree::ChildrenCsr`] arena; the distributed contraction log
//! is three flat arrays with per-round end offsets; message batches and
//! relay groups reuse persistent scratch
//! ([`spatial_messaging::relay::RelayScratch`] plus the engine's own
//! CSR group buffers); every engine round charges through a
//! [`spatial_model::LocalCharge`] session (a non-atomic clock snapshot
//! committed in one batch — identical energy, messages, work, and depth
//! to per-message atomic charging). Zero allocation is asserted by the
//! counting-allocator test `tests/alloc_free.rs`; the seed
//! implementation is retained as [`crate::reference::ReferenceEngine`]
//! and the `csr_vs_reference` suite pins identical results, statistics,
//! and machine charges.

use crate::monoid::CommutativeMonoid;
use rand::Rng;
use spatial_layout::Layout;
use spatial_messaging::relay::{
    charge_broadcast_relays_csr_into, charge_reduce_relays_csr_into, RelayScratch,
};
use spatial_model::{EngineLifecycle, LocalCharge, LocalChargeScratch, Machine, Slot};
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

/// Where the engine currently is in its `bind → contract → uncontract`
/// run cycle (misuse guard; rebinding restarts the cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No tree loaded (fresh, or after [`EngineLifecycle::reset`]).
    Unbound,
    /// A tree is loaded and ready to contract.
    Bound,
    /// [`ContractionEngine::contract`] has run; one `uncontract_*` may.
    Contracted,
    /// The run cycle finished; rebind before running again.
    Done,
}

/// The contraction engine. Create with
/// [`ContractionEngine::with_capacity`] (or the one-shot
/// [`ContractionEngine::new`]), load a tree with
/// [`ContractionEngine::bind`], run [`ContractionEngine::contract`],
/// then exactly one of the `uncontract` methods. The engine owns every
/// buffer, so one instance serves any number of trees.
pub struct ContractionEngine<M: CommutativeMonoid> {
    /// Vertex count of the current binding (0 when unbound).
    n: usize,
    /// Largest vertex count the retained buffers have ever served;
    /// bindings at or below this never allocate.
    cap: usize,
    phase: Phase,
    /// Whether RAKE folds leaf sums into the parent's partial sum
    /// (bottom-up) or leaves it untouched (top-down, where `P` tracks
    /// the supervertex's path-segment values only).
    rake_adds_to_p: bool,

    /// Machine slot of every vertex, copied from the layout at bind so
    /// runs need no layout borrow.
    slot: Vec<Slot>,
    parent: Vec<NodeId>,
    first_child: Vec<NodeId>,
    next_sib: Vec<NodeId>,
    prev_sib: Vec<NodeId>,
    child_count: Vec<u32>,
    p: Vec<M>,
    active: Vec<bool>,
    alive: Vec<NodeId>,

    /// Parent's partial sum before the merge that deactivated this
    /// vertex (the no-inverse replacement for the paper's subtraction).
    saved_p: Vec<M>,

    // ---- Flat contraction log (replaces the seed's Vec<StepLog>). ----
    /// Compressed vertices, all rounds back to back.
    compress_log: Vec<NodeId>,
    /// End offset into `compress_log` after each round.
    compress_ends: Vec<u32>,
    /// Raked vertices, all rounds back to back, in rake order.
    rake_log: Vec<NodeId>,
    /// Rake groups `(parent, start, end)` spanning `rake_log`.
    rake_groups: Vec<(NodeId, u32, u32)>,
    /// End offset into `rake_groups` after each round.
    rake_ends: Vec<u32>,

    // ---- Reusable scratch (allocated once, cleared per use). ----
    /// Selected / viable vertex list.
    nodes_scratch: Vec<NodeId>,
    /// Message batch buffer.
    msgs_scratch: Vec<(Slot, Slot)>,
    /// Relay group endpoint slots (sources or targets).
    group_slots: Vec<Slot>,
    /// Relay group participants, flat.
    group_parts: Vec<Slot>,
    /// Relay group offsets into `group_parts`.
    group_offsets: Vec<u32>,
    /// Relay level-walk scratch.
    relay: RelayScratch,
    /// Round staging for the local charging sessions (one per
    /// `contract`, one per `uncontract_*`): all engine rounds charge
    /// through plain arithmetic and commit in one batch.
    local: LocalChargeScratch,
    /// Uncontraction accumulator (`A_v` / `B_v`), preallocated.
    acc: Vec<M>,
    /// Output buffer, retained across runs and returned by slice.
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
            slot: Vec::with_capacity(cap),
            parent: Vec::with_capacity(cap),
            first_child: Vec::with_capacity(cap),
            next_sib: Vec::with_capacity(cap),
            prev_sib: Vec::with_capacity(cap),
            child_count: Vec::with_capacity(cap),
            p: Vec::with_capacity(cap),
            active: Vec::with_capacity(cap),
            alive: Vec::with_capacity(cap),
            saved_p: Vec::with_capacity(cap),
            compress_log: Vec::with_capacity(cap),
            compress_ends: Vec::with_capacity(cap + 1),
            rake_log: Vec::with_capacity(cap),
            rake_groups: Vec::with_capacity(cap),
            rake_ends: Vec::with_capacity(cap + 1),
            nodes_scratch: Vec::with_capacity(cap),
            msgs_scratch: Vec::with_capacity(2 * cap + 2),
            group_slots: Vec::with_capacity(cap),
            group_parts: Vec::with_capacity(cap),
            group_offsets: Vec::with_capacity(cap + 1),
            relay: RelayScratch::with_capacity(cap, cap),
            local: LocalChargeScratch::with_capacity(2 * cap + 2),
            acc: Vec::with_capacity(cap),
            out: Vec::with_capacity(cap),
            stats: ContractionStats {
                compact_rounds: 0,
                compresses: 0,
                rakes: 0,
            },
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

    /// Loads a concrete (tree, layout, light-first CSR, values)
    /// instance into the retained buffers, restarting the run cycle.
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
        let n = tree.n() as usize;
        assert_eq!(layout.n() as usize, n, "layout size mismatch");
        self.slot.clear();
        self.slot.extend((0..n as u32).map(|v| layout.slot(v)));
        self.bind_inner(tree.parents(), sorted, values, rake_adds_to_p);
    }

    /// [`ContractionEngine::bind`] from the flat pieces a retaining
    /// caller (the batched-LCA engine, the session pool) already holds:
    /// the parent array and the per-vertex machine slots, instead of
    /// `Tree`/`Layout` borrows. Same zero-allocation contract.
    pub fn bind_parts(
        &mut self,
        parents: &[NodeId],
        slots: &[Slot],
        sorted: &ChildrenCsr,
        values: &[M],
        rake_adds_to_p: bool,
    ) {
        assert_eq!(slots.len(), parents.len(), "one slot per vertex");
        self.slot.clear();
        self.slot.extend_from_slice(slots);
        self.bind_inner(parents, sorted, values, rake_adds_to_p);
    }

    fn bind_inner(
        &mut self,
        parents: &[NodeId],
        sorted: &ChildrenCsr,
        values: &[M],
        rake_adds_to_p: bool,
    ) {
        let n = parents.len();
        assert_eq!(values.len(), n, "one value per vertex");
        assert_eq!(sorted.n() as usize, n, "children CSR size mismatch");

        self.n = n;
        self.cap = self.cap.max(n);
        self.phase = Phase::Bound;
        self.rake_adds_to_p = rake_adds_to_p;

        self.parent.clear();
        self.parent.extend_from_slice(parents);
        self.first_child.clear();
        self.first_child.resize(n, NIL);
        self.next_sib.clear();
        self.next_sib.resize(n, NIL);
        self.prev_sib.clear();
        self.prev_sib.resize(n, NIL);
        self.child_count.clear();
        self.child_count.resize(n, 0);
        self.p.clear();
        self.p.extend_from_slice(values);
        self.active.clear();
        self.active.resize(n, true);
        self.alive.clear();
        self.alive.extend(0..n as NodeId);
        self.saved_p.clear();
        self.saved_p.resize(n, M::identity());
        self.compress_log.clear();
        self.compress_ends.clear();
        self.rake_log.clear();
        self.rake_groups.clear();
        self.rake_ends.clear();
        self.acc.clear();
        self.acc.resize(n, M::identity());
        self.out.clear();
        self.out.resize(n, M::identity());
        self.coin.clear();
        self.coin.resize(n, false);
        self.stats = ContractionStats {
            compact_rounds: 0,
            compresses: 0,
            rakes: 0,
        };

        for v in 0..n as NodeId {
            let cs = sorted.children(v);
            self.child_count[v as usize] = cs.len() as u32;
            if let Some(&first) = cs.first() {
                self.first_child[v as usize] = first;
            }
            // Branchless splice over the CSR run: thread the sibling
            // links pairwise without the windows bounds machinery.
            for (&a, &b) in cs.iter().zip(cs.iter().skip(1)) {
                self.next_sib[a as usize] = b;
                self.prev_sib[b as usize] = a;
            }
        }
    }

    fn unlink_child(&mut self, u: NodeId, v: NodeId) {
        let (prev, next) = (self.prev_sib[v as usize], self.next_sib[v as usize]);
        if prev != NIL {
            self.next_sib[prev as usize] = next;
        } else {
            self.first_child[u as usize] = next;
        }
        if next != NIL {
            self.prev_sib[next as usize] = prev;
        }
        self.prev_sib[v as usize] = NIL;
        self.next_sib[v as usize] = NIL;
        self.child_count[u as usize] -= 1;
    }

    /// §V-A3 step 1/4: every supervertex tells its children whether it
    /// is branching. All parents broadcast *simultaneously* (batched
    /// relays, one machine round per relay level): `O(n)` energy and
    /// `O(log Δ)` depth per COMPACT round.
    fn charge_children_broadcast(&mut self, lc: &mut LocalCharge) {
        self.group_slots.clear();
        self.group_parts.clear();
        self.group_offsets.clear();
        self.group_offsets.push(0);
        for &u in &self.alive {
            if self.child_count[u as usize] == 0 {
                continue;
            }
            self.group_slots.push(self.slot[u as usize]);
            let mut c = self.first_child[u as usize];
            while c != NIL {
                self.group_parts.push(self.slot[c as usize]);
                c = self.next_sib[c as usize];
            }
            self.group_offsets.push(self.group_parts.len() as u32);
        }
        charge_broadcast_relays_csr_into(
            lc,
            &self.group_slots,
            &self.group_parts,
            &self.group_offsets,
            &mut self.relay,
        );
    }

    fn viable(&self, v: NodeId) -> bool {
        let p = self.parent[v as usize];
        p != NIL && self.child_count[p as usize] == 1 && self.child_count[v as usize] == 1
    }

    /// One COMPACT round: compress an independent random-mate set of
    /// viable supervertices, then rake leaf supervertices.
    fn compact_round<R: Rng>(&mut self, rng: &mut R, lc: &mut LocalCharge) {
        // Step 1: branching info.
        self.charge_children_broadcast(lc);

        // Step 2: random-mate selection among viable supervertices.
        for &v in &self.alive {
            self.coin[v as usize] = rng.gen();
        }
        // Branchless select/compact passes (SWAR-style: unconditional
        // write, advance the cursor by the predicate — no data-dependent
        // branches for the predictor to miss on random coins). Order,
        // contents, and the charged message rounds are identical to the
        // retained `push`/`retain` formulation, pinned by the
        // differential suite.
        let mut selected = std::mem::take(&mut self.nodes_scratch);
        selected.clear();
        selected.resize(self.alive.len(), 0);
        let mut k = 0usize;
        for i in 0..self.alive.len() {
            let v = self.alive[i];
            let p = self.parent[v as usize];
            // NIL-safe probe: index 0 when parentless, masked out of the
            // predicate by the `p != NIL` factor (cmov, not a branch).
            let safe_p = if p == NIL { 0 } else { p as usize };
            let ok =
                (p != NIL) & (self.child_count[safe_p] == 1) & (self.child_count[v as usize] == 1);
            debug_assert_eq!(ok, self.viable(v));
            selected[k] = v;
            k += ok as usize;
        }
        selected.truncate(k);
        self.msgs_scratch.clear();
        for &v in &selected {
            self.msgs_scratch.push((
                self.slot[self.parent[v as usize] as usize],
                self.slot[v as usize],
            ));
        }
        lc.round(&self.msgs_scratch);
        let mut k = 0usize;
        for i in 0..selected.len() {
            let v = selected[i];
            let keep = self.coin[v as usize] & !self.coin[self.parent[v as usize] as usize];
            selected[k] = v;
            k += keep as usize;
        }
        selected.truncate(k);

        // Step 3: COMPRESS every selected v with its parent u. The
        // selected set is independent (heads with tails predecessor), so
        // no parent is itself compressed this round.
        self.msgs_scratch.clear();
        for &v in &selected {
            let u = self.parent[v as usize];
            let c = self.first_child[v as usize];
            debug_assert!(c != NIL && self.child_count[v as usize] == 1);
            self.saved_p[v as usize] = self.p[u as usize];
            self.p[u as usize] = self.p[u as usize].combine(self.p[v as usize]);
            // u's only child was v; u inherits v's only child c.
            self.first_child[u as usize] = c;
            self.child_count[u as usize] = 1;
            self.parent[c as usize] = u;
            self.prev_sib[c as usize] = NIL;
            self.next_sib[c as usize] = NIL;
            self.active[v as usize] = false;
            self.msgs_scratch
                .push((self.slot[v as usize], self.slot[u as usize]));
            self.msgs_scratch
                .push((self.slot[v as usize], self.slot[c as usize]));
            self.compress_log.push(v);
        }
        lc.round(&self.msgs_scratch);
        self.stats.compresses += selected.len() as u64;
        self.nodes_scratch = selected;

        // Step 4: refresh branching info after the compresses.
        let mut alive = std::mem::take(&mut self.alive);
        compact_by_flag(&mut alive, &self.active);
        self.alive = alive;
        self.charge_children_broadcast(lc);

        // Step 5: RAKE leaf supervertices wherever all-but-at-most-one
        // children are leaves. All rakes of the round run concurrently:
        // the reduce relays are charged as one batch.
        self.group_slots.clear();
        self.group_parts.clear();
        self.group_offsets.clear();
        self.group_offsets.push(0);
        for i in 0..self.alive.len() {
            let u = self.alive[i];
            if self.child_count[u as usize] == 0 {
                continue;
            }
            // First sibling walk: is this a raking parent? Branchless
            // accumulate — both counters advance by a predicate, no
            // per-child branch.
            let mut leaves = 0u64;
            let mut others = 0u64;
            let mut c = self.first_child[u as usize];
            while c != NIL {
                let is_leaf = self.child_count[c as usize] == 0;
                leaves += is_leaf as u64;
                others += !is_leaf as u64;
                c = self.next_sib[c as usize];
            }
            if leaves == 0 || others > 1 {
                continue;
            }
            // The reduce relay spans all children (the non-raked child w
            // contributes the identity, as in the paper).
            self.group_slots.push(self.slot[u as usize]);
            let mut c = self.first_child[u as usize];
            while c != NIL {
                self.group_parts.push(self.slot[c as usize]);
                c = self.next_sib[c as usize];
            }
            self.group_offsets.push(self.group_parts.len() as u32);

            let saved = self.p[u as usize];
            let mut acc = M::identity();
            let group_start = self.rake_log.len() as u32;
            let mut c = self.first_child[u as usize];
            while c != NIL {
                let next = self.next_sib[c as usize];
                if self.child_count[c as usize] == 0 {
                    acc = acc.combine(self.p[c as usize]);
                    self.saved_p[c as usize] = saved;
                    self.active[c as usize] = false;
                    self.unlink_child(u, c);
                    self.rake_log.push(c);
                }
                c = next;
            }
            if self.rake_adds_to_p {
                self.p[u as usize] = saved.combine(acc);
            }
            self.stats.rakes += leaves;
            self.rake_groups
                .push((u, group_start, self.rake_log.len() as u32));
        }
        charge_reduce_relays_csr_into(
            lc,
            &self.group_parts,
            &self.group_offsets,
            &self.group_slots,
            &mut self.relay,
        );
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
        assert_eq!(self.phase, Phase::Bound, "bind() a tree first");
        self.phase = Phase::Contracted;
        let n = self.n as u64;
        // Rake always removes the deepest leaves, so every round makes
        // progress; the bound below is a defensive cap, not a tuning
        // parameter.
        let cap = 4 * n + 64;
        // All rounds of the contraction charge through one local
        // session (identical accounting, no per-message atomics).
        let mut scratch = std::mem::take(&mut self.local);
        let mut lc = machine.begin_local_charge(&mut scratch);
        while self.alive.len() > 1 {
            let before = self.alive.len();
            self.compact_round(rng, &mut lc);
            debug_assert!(self.alive.len() < before, "COMPACT made no progress");
            assert!(
                (self.stats.compact_rounds as u64) <= cap,
                "contraction failed to converge"
            );
        }
        lc.commit();
        self.local = scratch;
        self.stats
    }

    /// Replays one logged round's rake undo broadcasts (group `u` →
    /// its raked leaves) from the flat log.
    fn charge_rake_undo_broadcast(
        &mut self,
        group_range: std::ops::Range<usize>,
        lc: &mut LocalCharge,
    ) {
        self.group_slots.clear();
        self.group_parts.clear();
        self.group_offsets.clear();
        self.group_offsets.push(0);
        for &(u, start, end) in &self.rake_groups[group_range.clone()] {
            self.group_slots.push(self.slot[u as usize]);
            for &v in &self.rake_log[start as usize..end as usize] {
                self.group_parts.push(self.slot[v as usize]);
            }
            self.group_offsets.push(self.group_parts.len() as u32);
        }
        charge_broadcast_relays_csr_into(
            lc,
            &self.group_slots,
            &self.group_parts,
            &self.group_offsets,
            &mut self.relay,
        );
    }

    /// Charges the compress-undo messages (`u → v`) of one logged
    /// round.
    fn charge_compress_undo(&mut self, log_range: std::ops::Range<usize>, lc: &mut LocalCharge) {
        self.msgs_scratch.clear();
        for &v in &self.compress_log[log_range] {
            let u = self.parent_at_merge(v);
            self.msgs_scratch
                .push((self.slot[u as usize], self.slot[v as usize]));
        }
        lc.round(&self.msgs_scratch);
    }

    /// §V-B uncontraction for the bottom-up treefix: returns
    /// `sum(v) = ⊕ values over v's subtree` for every vertex. The slice
    /// lives in the engine's retained output buffer (valid until the
    /// next run).
    pub fn uncontract_bottom_up(&mut self, machine: &Machine) -> &[M] {
        assert_eq!(self.phase, Phase::Contracted, "contract() must run first");
        self.phase = Phase::Done;
        let n = self.n;
        let mut scratch = std::mem::take(&mut self.local);
        let mut lc = machine.begin_local_charge(&mut scratch);
        // a[v]: combination of v's *outside descendants* — subtree
        // values below v that merged past it (preallocated identity).
        for round in (0..self.stats.compact_rounds as usize).rev() {
            let (gs, ge) = round_span(&self.rake_ends, round);
            let (cs, ce) = round_span(&self.compress_ends, round);
            // Rakes were executed after compresses within the step; undo
            // them first — all rake groups of the step concurrently.
            self.charge_rake_undo_broadcast(gs..ge, &mut lc);
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
            self.charge_compress_undo(cs..ce, &mut lc);
            for li in (cs..ce).rev() {
                let v = self.compress_log[li];
                let u = self.parent_at_merge(v);
                // v's outside descendants were u's outside descendants.
                self.acc[v as usize] = self.acc[u as usize];
                self.acc[u as usize] = self.acc[u as usize].combine(self.p[v as usize]);
                self.p[u as usize] = self.saved_p[v as usize];
            }
        }
        lc.commit();
        self.local = scratch;
        let (p, acc) = (&self.p, &self.acc);
        for (v, out) in self.out[..n].iter_mut().enumerate() {
            *out = p[v].combine(acc[v]);
        }
        &self.out[..n]
    }

    /// §V-D uncontraction for the top-down treefix: returns
    /// `sum'(v) = ⊕ values along the root → v path` for every vertex.
    /// The engine must have been bound with `rake_adds_to_p = false`.
    /// The slice lives in the engine's retained output buffer (valid
    /// until the next run).
    pub fn uncontract_top_down(&mut self, machine: &Machine, values: &[M]) -> &[M] {
        assert_eq!(self.phase, Phase::Contracted, "contract() must run first");
        assert!(
            !self.rake_adds_to_p,
            "top-down uncontraction needs a path-segment P (rake_adds_to_p = false)"
        );
        self.phase = Phase::Done;
        let n = self.n;
        let mut scratch = std::mem::take(&mut self.local);
        let mut lc = machine.begin_local_charge(&mut scratch);
        // acc[v] plays b[v]: combination of values strictly above
        // supervertex v.
        for round in (0..self.stats.compact_rounds as usize).rev() {
            let (gs, ge) = round_span(&self.rake_ends, round);
            let (cs, ce) = round_span(&self.compress_ends, round);
            self.charge_rake_undo_broadcast(gs..ge, &mut lc);
            for gi in (gs..ge).rev() {
                let (u, start, end) = self.rake_groups[gi];
                for li in start as usize..end as usize {
                    let v = self.rake_log[li];
                    // The raked leaves hang below u's whole path segment.
                    self.acc[v as usize] = self.acc[u as usize].combine(self.p[u as usize]);
                }
            }
            self.charge_compress_undo(cs..ce, &mut lc);
            for li in (cs..ce).rev() {
                let v = self.compress_log[li];
                let u = self.parent_at_merge(v);
                // The segment above v is u's pre-merge segment.
                self.acc[v as usize] = self.acc[u as usize].combine(self.saved_p[v as usize]);
                self.p[u as usize] = self.saved_p[v as usize];
            }
        }
        lc.commit();
        self.local = scratch;
        let acc = &self.acc;
        for (v, out) in self.out[..n].iter_mut().enumerate() {
            *out = acc[v].combine(values[v]);
        }
        &self.out[..n]
    }

    /// The most recent uncontraction result, re-borrowed (valid after
    /// an `uncontract_*` call, until the next bind).
    pub fn output(&self) -> &[M] {
        assert_eq!(self.phase, Phase::Done, "run an uncontraction first");
        &self.out[..self.n]
    }

    /// The representative a compressed vertex merged into. The parent
    /// pointer of `v` is frozen at merge time (deactivated vertices are
    /// never re-parented).
    fn parent_at_merge(&self, v: NodeId) -> NodeId {
        self.parent[v as usize]
    }

    /// Number of still-active supervertices.
    pub fn alive_count(&self) -> usize {
        self.alive.len()
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
        grow(&mut self.slot, cap);
        grow(&mut self.parent, cap);
        grow(&mut self.first_child, cap);
        grow(&mut self.next_sib, cap);
        grow(&mut self.prev_sib, cap);
        grow(&mut self.child_count, cap);
        grow(&mut self.p, cap);
        grow(&mut self.active, cap);
        grow(&mut self.alive, cap);
        grow(&mut self.saved_p, cap);
        grow(&mut self.compress_log, cap);
        grow(&mut self.compress_ends, cap + 1);
        grow(&mut self.rake_log, cap);
        grow(&mut self.rake_groups, cap);
        grow(&mut self.rake_ends, cap + 1);
        grow(&mut self.nodes_scratch, cap);
        grow(&mut self.msgs_scratch, 2 * cap + 2);
        grow(&mut self.group_slots, cap);
        grow(&mut self.group_parts, cap);
        grow(&mut self.group_offsets, cap + 1);
        grow(&mut self.acc, cap);
        grow(&mut self.out, cap);
        grow(&mut self.coin, cap);
        self.relay.reserve(cap, cap);
        self.local.reserve(2 * cap + 2);
        self.cap = cap;
    }

    fn reset(&mut self) {
        self.n = 0;
        self.phase = Phase::Unbound;
    }
}

/// `[start, end)` span of round `r` in a per-round end-offset array.
#[inline]
/// Stable in-place compaction keeping `v` where `flag[v]`: the
/// branchless SWAR replacement for `retain` on the alive list —
/// unconditional write, cursor advanced by the flag, no data-dependent
/// branch on the (random) liveness pattern for the predictor to miss.
fn compact_by_flag(list: &mut Vec<NodeId>, flag: &[bool]) {
    let mut k = 0usize;
    for i in 0..list.len() {
        let v = list[i];
        list[k] = v;
        k += flag[v as usize] as usize;
    }
    list.truncate(k);
}

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
        let n0 = 120u32;
        let mut engine: ContractionEngine<Add> = ContractionEngine::with_capacity(n0 as usize);
        for (i, n) in [n0, 2 * n0 + 3, 5, 2 * n0].into_iter().enumerate() {
            let t = generators::uniform_random(n, &mut StdRng::seed_from_u64(20 + i as u64));
            let layout = Layout::light_first(&t, CurveKind::Hilbert);
            let sizes = t.subtree_sizes();
            let csr = ChildrenCsr::by_size(&t, &sizes);
            let values: Vec<Add> = (0..n as u64).map(|v| Add(v + 1)).collect();

            engine.reserve(n as usize);
            engine.bind(&t, &layout, &csr, &values, true);
            let m_pooled = layout.machine();
            let s_pooled = engine.contract(&m_pooled, &mut StdRng::seed_from_u64(30));
            let got = engine.uncontract_bottom_up(&m_pooled).to_vec();

            let mut fresh = ContractionEngine::new(&t, &layout, &values, true);
            let m_fresh = layout.machine();
            let s_fresh = fresh.contract(&m_fresh, &mut StdRng::seed_from_u64(30));
            let expect = fresh.uncontract_bottom_up(&m_fresh);

            assert_eq!(got, expect, "n={n}");
            assert_eq!(s_pooled, s_fresh, "n={n}");
            assert_eq!(m_pooled.report(), m_fresh.report(), "n={n}");
        }
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
