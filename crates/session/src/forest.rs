//! [`SpatialForest`]: one tree + layout, pooled engines, mixed query
//! batches in charge-batched sessions.

use crate::batch::{Request, Response, SessionReport};
use crate::pool::{EnginePool, SessionScratch};
use rand::Rng;
use spatial_euler::ranking::UNRANKED;
use spatial_euler::tour::down;
use spatial_layout::{DynamicLayout, DynamicStats, Layout};
use spatial_model::{vec_bytes, CurveKind, PagedMachine, PagingConfig, PagingReport};
use spatial_store::{
    CowSlab, DirtyExtents, ForestSnapshot, JournalWriter, MappedSnapshot, Record, StoreError,
};
use spatial_tree::{NodeId, Tree};
use spatial_treefix::Add;
use std::path::Path;
use std::sync::Arc;

/// Construction options for [`SpatialForest`].
#[derive(Debug, Clone, Copy)]
pub struct ForestOptions {
    /// Space-filling curve family of the layout and machine.
    pub curve: CurveKind,
    /// Kernel-energy degradation factor before the dynamic layout
    /// rebuilds itself (see [`DynamicLayout`]).
    pub rebuild_factor: f64,
    /// Crossover mode: shadow-price every subtree-sum session on the
    /// §I-C PRAM simulation and report both ([`SessionReport::pram`]).
    pub crossover: bool,
    /// Out-of-core charge model: when set, a forest restored from a
    /// snapshot ([`SpatialForest::from_mapped`]) tracks the residency
    /// of its still-mapped slabs under this budget and prices every
    /// cold-page touch as a long-distance message
    /// ([`SessionReport::paging`]). `None` (the default) reports no
    /// paging rows and keeps every report bit-identical to pre-paging
    /// builds.
    pub paging: Option<PagingConfig>,
}

impl Default for ForestOptions {
    fn default() -> Self {
        ForestOptions {
            curve: CurveKind::Hilbert,
            rebuild_factor: 2.0,
            crossover: false,
            paging: None,
        }
    }
}

/// What [`SpatialForest::checkpoint_to`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Total bytes written (delta + in-place patch, or the full file).
    pub bytes_written: u64,
    /// Whether the incremental (dirty-extent) path was taken.
    pub incremental: bool,
}

/// Dirty state since the last on-disk snapshot generation — what
/// [`SpatialForest::checkpoint_to`] turns into an incremental delta.
#[derive(Debug, Default)]
struct DirtyTracker {
    /// `(n, reserved, slab_crcs)` of the base generation on disk;
    /// `None` when no generation exists to patch against.
    base: Option<(u32, u64, [u32; 3])>,
    /// A rebuild permuted the whole order slab since the base.
    order_rewritten: bool,
    /// A capacity growth invalidated every slab offset since the base.
    grew: bool,
    /// Weight cells overwritten below the base vertex count.
    weight_cells: Vec<u32>,
}

/// `&[u64]` → `&[Add]`, no copy. Sound because `Add` is
/// `#[repr(transparent)]` over `u64`.
fn as_add(weights: &[u64]) -> &[Add] {
    unsafe { std::slice::from_raw_parts(weights.as_ptr().cast::<Add>(), weights.len()) }
}

/// Panics unless every vertex a request names exists when the request
/// runs: `n` vertices at the start of the stream, one more after each
/// insert.
fn check_vertex_ids(requests: &[Request], mut n: u32) {
    for (i, &req) in requests.iter().enumerate() {
        let (a, b) = match req {
            Request::Lca(a, b) => (a, b),
            Request::SubtreeSum(v) | Request::Rank(v) => (v, v),
            Request::InsertLeaf { parent, .. } => (parent, parent),
        };
        assert!(
            a < n && b < n,
            "request {i} ({req:?}) names a vertex outside 0..{n}"
        );
        if let Request::InsertLeaf { .. } = req {
            n += 1;
        }
    }
}

/// Heap bytes a [`SpatialForest`] keeps resident, by part
/// ([`SpatialForest::resident_bytes`]). Every part counts retained
/// buffers by capacity, so the census is deterministic: the same
/// stream on the same tree reads the same bytes, and the parts sum to
/// what a counting allocator sees the forest hold. The crossover PRAM
/// shadow and an attached journal are not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResidentBytes {
    /// The durable state and the one copy of the tree every engine
    /// reads: the dynamic layout (parent slab, placement, the rebuild
    /// scratch that holds the epoch's light-first sizes and child CSR,
    /// and, from the first append, rebuild or growth on, the per-vertex
    /// grid points), the weight slab and the dirty weight cells. A slab
    /// still mapped from a snapshot counts 0. Until the layout's first
    /// append, rebuild or growth every part holds the current vertices
    /// only; from then on the append headroom up to the reserved
    /// capacity too.
    pub layout: usize,
    /// The tree [`SpatialForest::tree`] materialized, while it is held
    /// (the next insert drops it); 0 for a forest never asked for it.
    /// No engine reads it: they bind from and run over the layout's
    /// arrays. The Euler tour is threaded only while the ranking engine
    /// binds, and not kept.
    pub structure: usize,
    /// The grid and dart machines of the forest's own
    /// [`SessionScratch`] (none for a forest that only runs on lent
    /// sets, [`SpatialForest::execute_with`]) and the pager's resident
    /// set.
    pub machines: usize,
    /// The batched LCA engine's per-tree structure: what it derives
    /// from the tree (relay schedule, heads, layers, cover, step 4's
    /// entry weights), not the tree itself.
    pub lca: usize,
    /// The contraction engine that LCA steps 1 and 3 and the subtree
    /// sums share: its structure, plus the run buffers of the forest's
    /// own [`SessionScratch`] (none for a forest that only runs on
    /// lent sets, [`SpatialForest::execute_with`]).
    pub contraction: usize,
    /// The Euler-tour list-ranking engine: its structure, plus the run
    /// buffers of the forest's own [`SessionScratch`].
    pub ranking: usize,
    /// Retained batch scratch: responses and per-kind query buffers.
    pub scratch: usize,
}

impl ResidentBytes {
    /// The sum of every part.
    pub fn total(&self) -> usize {
        self.layout
            + self.structure
            + self.machines
            + self.lca
            + self.contraction
            + self.ranking
            + self.scratch
    }
}

/// A tree held in a light-first layout with a pool of retained engines,
/// serving mixed query batches. See the crate docs for the model and
/// `DESIGN.md` for the lifecycle details.
pub struct SpatialForest {
    opts: ForestOptions,
    /// The tree + its incrementally maintained layout (owns both).
    dynamic: DynamicLayout,
    /// Mutation epoch: bumped by every insert and forced relayout;
    /// engines bound at an older epoch rebind before running.
    epoch: u64,
    /// Whether tail appends have left the layout non-light-first (the
    /// batched LCA engine requires light-first; other engines only
    /// charge more on a degraded layout).
    layout_dirty: bool,
    /// The epoch the lent machines were re-pointed at in the execute in
    /// flight; `u64::MAX` before its first session.
    machines_epoch: u64,
    /// The tree, materialized by [`SpatialForest::tree`] only and
    /// dropped by the next insert. The engines bind from and run over
    /// the dynamic layout's parents, slots, light-first sizes and CSR,
    /// borrowed where they live ([`DynamicLayout::light_first_parts`]).
    tree: Option<Tree>,

    // ---- Per-vertex query values. ----
    /// Subtree-sum weights: owned, or a zero-copy view over the mapped
    /// snapshot until the first weight mutation promotes it (CoW).
    /// Served to the treefix as `&[Add]` via the `repr(transparent)`
    /// cast — no shadow array.
    weights: CowSlab<u64>,

    // ---- Out-of-core state (restored forests only). ----
    /// The mapped snapshot serving un-promoted slabs (kept alive here
    /// and inside each [`CowSlab`] view).
    mapped: Option<Arc<MappedSnapshot>>,
    /// Residency tracker pricing cold-page touches (paging opt-in).
    pager: Option<PagedMachine>,
    /// Journal records replayed into this forest since construction.
    replayed: u64,
    /// Dirty extents since the last checkpoint generation.
    dirty: DirtyTracker,

    /// When attached, every durable mutation (insert, weight change,
    /// query-triggered rebuild) is appended here **before** it is
    /// applied in memory, so the journaled history is never behind the
    /// live state. Journal IO failure is fail-stop (panic): continuing
    /// would silently diverge the durable history from the forest.
    journal: Option<JournalWriter>,

    pool: EnginePool,
    /// The run buffers and machines [`SpatialForest::execute`] and
    /// [`SpatialForest::warmstart`] lend the session; empty (and never
    /// allocated) in a forest that only runs on lent sets.
    scratch: SessionScratch,

    // ---- Retained batch scratch (zero steady-state allocation). ----
    responses: Vec<Response>,
    lca_q: Vec<(NodeId, NodeId)>,
    lca_idx: Vec<u32>,
    lca_answers: Vec<NodeId>,
    sum_v: Vec<NodeId>,
    sum_idx: Vec<u32>,
    rank_v: Vec<NodeId>,
    rank_idx: Vec<u32>,

    session: SessionReport,
}

impl SpatialForest {
    /// A forest over `tree` with unit weights and default options
    /// (Hilbert curve, rebuild factor 2, no crossover shadow).
    pub fn new(tree: &Tree) -> Self {
        Self::with_options(tree, ForestOptions::default())
    }

    /// [`SpatialForest::new`] on an explicit curve family.
    pub fn with_curve(tree: &Tree, curve: CurveKind) -> Self {
        Self::with_options(
            tree,
            ForestOptions {
                curve,
                ..ForestOptions::default()
            },
        )
    }

    /// A forest with explicit options; weights start at 1 per vertex
    /// (adjust with [`SpatialForest::set_weight`]).
    pub fn with_options(tree: &Tree, opts: ForestOptions) -> Self {
        let n = tree.n() as usize;
        let dynamic = DynamicLayout::new(tree, opts.curve, opts.rebuild_factor);
        Self::from_dynamic(dynamic, CowSlab::owned(vec![1; n]), false, opts, None)
    }

    /// The shared constructor: wraps an already-built dynamic layout
    /// (fresh from [`DynamicLayout::new`] or restored over a mapped
    /// snapshot) with the forest's engine pool.
    fn from_dynamic(
        dynamic: DynamicLayout,
        weights: CowSlab<u64>,
        layout_dirty: bool,
        opts: ForestOptions,
        mapped: Option<Arc<MappedSnapshot>>,
    ) -> Self {
        let n = dynamic.n() as usize;
        assert_eq!(weights.len(), n, "one weight per vertex");
        SpatialForest {
            opts,
            dynamic,
            epoch: 0,
            layout_dirty,
            machines_epoch: u64::MAX,
            tree: None,
            weights,
            mapped,
            pager: opts.paging.map(PagedMachine::new),
            replayed: 0,
            dirty: DirtyTracker::default(),
            journal: None,
            pool: EnginePool::new(opts.curve),
            scratch: SessionScratch::new(),
            responses: Vec::new(),
            lca_q: Vec::new(),
            lca_idx: Vec::new(),
            lca_answers: Vec::new(),
            sum_v: Vec::new(),
            sum_idx: Vec::new(),
            rank_v: Vec::new(),
            rank_idx: Vec::new(),
            session: SessionReport::default(),
        }
    }

    /// Current number of vertices.
    pub fn n(&self) -> u32 {
        self.dynamic.n()
    }

    /// The current tree, materialized from the layout's parents on the
    /// first call after construction or an insert and held until the
    /// next insert (counted in [`ResidentBytes::structure`] while held).
    /// Serving never calls it: the engines read the layout's arrays.
    pub fn tree(&mut self) -> &Tree {
        self.tree.get_or_insert_with(|| self.dynamic.tree())
    }

    /// The current layout (valid until the next mutating batch).
    pub fn layout(&self) -> &Layout {
        self.dynamic.layout()
    }

    /// The dynamic layout's lifetime statistics (inserts, rebuilds,
    /// capacity growths).
    pub fn dynamic_stats(&self) -> DynamicStats {
        self.dynamic.stats()
    }

    /// The engine pool (build/rebind observability).
    pub fn pool(&self) -> &EnginePool {
        &self.pool
    }

    /// The heap bytes this forest keeps resident, by part (see
    /// [`ResidentBytes`]).
    pub fn resident_bytes(&self) -> ResidentBytes {
        let mut bytes = ResidentBytes {
            layout: self.dynamic.resident_bytes()
                + self.weights.resident_bytes()
                + vec_bytes(&self.dirty.weight_cells),
            structure: self.tree.as_ref().map_or(0, Tree::resident_bytes),
            machines: self.scratch.machines_bytes()
                + self.pager.as_ref().map_or(0, PagedMachine::resident_bytes),
            scratch: vec_bytes(&self.responses)
                + vec_bytes(&self.lca_q)
                + vec_bytes(&self.lca_idx)
                + vec_bytes(&self.lca_answers)
                + vec_bytes(&self.sum_v)
                + vec_bytes(&self.sum_idx)
                + vec_bytes(&self.rank_v)
                + vec_bytes(&self.rank_idx),
            ..ResidentBytes::default()
        };
        self.pool.census(&mut bytes);
        bytes.contraction += self.scratch.contraction.resident_bytes();
        bytes.ranking += self.scratch.ranking.resident_bytes();
        bytes
    }

    /// Charges of the most recent [`SpatialForest::execute`].
    pub fn last_report(&self) -> SessionReport {
        self.session
    }

    /// The subtree-sum weight of a vertex.
    pub fn weight(&self, v: NodeId) -> u64 {
        self.weights.as_slice()[v as usize]
    }

    /// Sets the subtree-sum weight of a vertex (no relayout — weights
    /// are per-session treefix inputs, not structure).
    ///
    /// Panics if `v` is not a vertex, before journaling anything.
    pub fn set_weight(&mut self, v: NodeId, weight: u64) {
        let n = self.n();
        assert!(v < n, "set_weight: vertex {v} outside 0..{n}");
        if let Some(journal) = self.journal.as_mut() {
            journal
                .append(Record::SetWeight { vertex: v, weight })
                .expect("journal append failed (fail-stop)");
        }
        self.set_weight_inner(v, weight);
    }

    /// The weight mutation shared by [`SpatialForest::set_weight`] and
    /// journal replay: charges/promotes the mapped weight slab and
    /// tracks the dirty cell for incremental checkpoints.
    fn set_weight_inner(&mut self, v: NodeId, weight: u64) {
        if self.weights.is_mapped() {
            // Promotion reads the whole slab once to copy it.
            self.touch_weights_span();
        }
        let cap = self.dynamic.reserved() as usize;
        self.weights.make_mut(cap)[v as usize] = weight;
        if let Some((base_n, _, _)) = self.dirty.base {
            if v < base_n {
                self.dirty.weight_cells.push(v);
            }
        }
    }

    // ---- Out-of-core accessors + paging charges. ----

    /// Whether any slab is still served zero-copy from the mapped
    /// snapshot (no promoting mutation yet).
    pub fn any_slab_mapped(&self) -> bool {
        self.weights.is_mapped() || self.dynamic.parents_backing_mapped()
    }

    /// Journal records replayed into this forest since construction
    /// ([`SpatialForest::apply_journal`] /
    /// [`SpatialForest::recover_from`]).
    pub fn replayed_records(&self) -> u64 {
        self.replayed
    }

    /// Lifetime paging charges (construction + every session), when
    /// paging is configured.
    pub fn paging_lifetime(&self) -> Option<PagingReport> {
        self.pager.as_ref().map(|p| p.lifetime())
    }

    /// The model price of one cold-page fetch: a message across the
    /// diameter of the layout's grid machine ([`Layout::machine_side`])
    /// — the farthest a long-distance fetch can travel.
    fn fault_energy(&self) -> u64 {
        (2 * (self.dynamic.layout().machine_side() as u64).saturating_sub(1)).max(1)
    }

    /// Charges a touch of the mapped parents slab (if still mapped).
    fn touch_parents_span(&mut self) {
        if self.dynamic.parents_backing_mapped() {
            self.touch_span(MappedSnapshot::parents_span);
        }
    }

    /// Charges a touch of the mapped weights slab (if still mapped).
    fn touch_weights_span(&mut self) {
        if self.weights.is_mapped() {
            self.touch_span(MappedSnapshot::weights_span);
        }
    }

    /// Charges a touch of one slab of the mapped snapshot, when the
    /// forest has a pager.
    fn touch_span(&mut self, span: fn(&MappedSnapshot) -> (u64, u64)) {
        if self.pager.is_none() {
            return;
        }
        let energy = self.fault_energy();
        if let (Some(pager), Some(mapped)) = (self.pager.as_mut(), self.mapped.as_ref()) {
            let (off, len) = span(mapped);
            pager.touch_range(off, len, energy);
        }
    }

    /// Folds any accumulated paging charges into the pager's lifetime
    /// meters without attributing them to a session — construction and
    /// warmstart reads use this so the first execute's report stays
    /// comparable.
    fn absorb_paging_into_lifetime(&mut self) {
        if let Some(pager) = self.pager.as_mut() {
            let _ = pager.commit_session();
        }
    }

    // ---- Durability: snapshot + journal + recovery. ----

    /// Captures the forest's durable state (tree structure, layout
    /// order and reserve, weights, rebuild-threshold anchor) as a
    /// [`ForestSnapshot`]. `tag` is stored verbatim for the caller —
    /// the serve layer keeps its journal generation there.
    ///
    /// Restoring the written snapshot ([`SpatialForest::from_mapped`])
    /// and replaying any later journal ([`SpatialForest::apply_journal`])
    /// yields a forest that is *bit-identical going forward*: the same
    /// answers **and** the same [`SessionReport`] charges for every
    /// future batch, including the same rebuild/growth schedule.
    pub fn snapshot(&self, tag: u64) -> ForestSnapshot {
        let stats = self.dynamic.stats();
        let curve = CurveKind::ALL
            .iter()
            .position(|&c| c == self.opts.curve)
            .expect("every curve kind is in CurveKind::ALL") as u32;
        ForestSnapshot {
            curve,
            root: self.dynamic.root(),
            layout_dirty: self.layout_dirty,
            rebuilds: stats.rebuilds,
            grows: stats.grows,
            reserved: self.dynamic.reserved(),
            baseline_energy: stats.baseline_energy,
            insertions: stats.insertions,
            tag,
            parents: self.dynamic.parents().to_vec(),
            order: self.dynamic.layout().order().to_vec(),
            weights: self.weights.as_slice().to_vec(),
        }
    }

    /// [`SpatialForest::snapshot`] written to `path` via temp-file +
    /// atomic rename (readers never observe a partial snapshot).
    pub fn snapshot_to(&self, path: impl AsRef<Path>, tag: u64) -> std::io::Result<()> {
        self.snapshot(tag).write_to(path)
    }

    /// Restores a forest zero-copy over a mapped snapshot: the parents
    /// and weights slabs stay borrowed views into `snap`'s region until
    /// a mutation promotes them (CoW); queries run directly over the
    /// mapped bytes. With [`ForestOptions::paging`] set, the
    /// construction-time slab reads are charged to the pager's lifetime
    /// meters (not the first session). The curve family comes from the
    /// snapshot (overriding `opts.curve`); `rebuild_factor` and
    /// `crossover` are not persisted and must be passed unchanged for
    /// charge-identical recovery. A layout the header marks clean is
    /// restored clean only if its order is the light-first order of its
    /// parents ([`DynamicLayout::order_is_light_first`]): the LCA engine
    /// builds on a clean order as it stands, so any other order is
    /// restored dirty, and the first LCA session rebuilds it.
    pub fn from_mapped(snap: &Arc<MappedSnapshot>, opts: ForestOptions) -> Self {
        let header = *snap.header();
        let curve = *CurveKind::ALL
            .get(header.curve as usize)
            .expect("snapshot curve index out of range");
        let opts = ForestOptions { curve, ..opts };
        let mut dynamic = DynamicLayout::restore_slab(
            header.root,
            snap.parents_slab(),
            curve,
            // The order slab feeds the layout's derived structures, so
            // it is copied: the one construction-time read a restore
            // cannot avoid.
            snap.order().to_vec(),
            header.reserved,
            opts.rebuild_factor,
            DynamicStats {
                insertions: header.insertions,
                rebuilds: header.rebuilds,
                grows: header.grows,
                baseline_energy: header.baseline_energy,
            },
        );
        let layout_dirty = header.layout_dirty || !dynamic.order_is_light_first();
        let mut forest = Self::from_dynamic(
            dynamic,
            snap.weights_slab(),
            layout_dirty,
            opts,
            Some(snap.clone()),
        );
        // Price what construction actually read — the parents slab
        // (the layout's energy pass and the light-first check, which
        // derives the sizes and CSR) and the order slab — and absorb it
        // into the lifetime meters.
        if forest.pager.is_some() {
            let energy = forest.fault_energy();
            let spans = [snap.parents_span(), snap.order_span()];
            let pager = forest.pager.as_mut().expect("checked above");
            for (off, len) in spans {
                pager.touch_range(off, len, energy);
            }
            forest.absorb_paging_into_lifetime();
        }
        forest.dirty.base = Some((header.n, header.reserved, snap.slab_crcs()));
        forest
    }

    /// Full crash recovery: open the snapshot at `snapshot_path`
    /// ([`MappedSnapshot::open`], which first applies a pending
    /// incremental-checkpoint delta and checks the slabs' contents),
    /// check that its curve index names a [`CurveKind`], restore it
    /// ([`SpatialForest::from_mapped`]), then replay the journal at
    /// `journal_path` ([`SpatialForest::apply_journal`]; a missing
    /// journal file is an empty history). A snapshot whose contents are
    /// inconsistent, that holds no vertex, or whose header marks the
    /// layout clean while its order is not the light-first order of its
    /// parents ([`DynamicLayout::order_is_light_first`]) is an
    /// [`StoreError::Inconsistent`], not a panic.
    /// The journal's torn tail, if any, is silently dropped — see
    /// `spatial_store` — and so is everything from its first invalid
    /// record on.
    pub fn recover_from(
        snapshot_path: impl AsRef<Path>,
        journal_path: impl AsRef<Path>,
        opts: ForestOptions,
    ) -> Result<Self, StoreError> {
        let snap = Arc::new(MappedSnapshot::open(snapshot_path)?);
        if CurveKind::ALL.get(snap.header().curve as usize).is_none() {
            return Err(StoreError::Inconsistent(
                "snapshot curve index out of range",
            ));
        }
        if snap.n() == 0 {
            return Err(StoreError::Inconsistent("snapshot of no vertex"));
        }
        let mut forest = Self::from_mapped(&snap, opts);
        if forest.layout_dirty != snap.header().layout_dirty {
            // `from_mapped` found the order that the header marks clean
            // not light-first.
            return Err(StoreError::Inconsistent(
                "snapshot layout marked clean but its order is not light-first",
            ));
        }
        forest.apply_journal(&spatial_store::read_journal(journal_path)?);
        Ok(forest)
    }

    /// The length of the longest prefix of `records` that
    /// [`SpatialForest::apply_journal`] applies to this forest: it ends
    /// before the first record that names a vertex which does not
    /// exist where the record stands (one more vertex after each
    /// insert). The journal's twin of the batch check `execute` makes.
    pub fn replayable_len(&self, records: &[Record]) -> usize {
        let mut n = self.n();
        for (i, rec) in records.iter().enumerate() {
            match *rec {
                Record::InsertLeaf { parent, .. } if parent < n => n += 1,
                Record::SetWeight { vertex, .. } if vertex < n => {}
                Record::Rebuild | Record::RngState(_) => {}
                _ => return i,
            }
        }
        records.len()
    }

    /// Replays journal records against the restored forest, in order,
    /// and returns how many it applied: the prefix
    /// [`SpatialForest::replayable_len`] accepts, so an invalid record
    /// ends the replay as a torn tail would, instead of panicking.
    /// [`Record::RngState`] markers are skipped — session RNG recovery
    /// belongs to the serve layer, which owns the RNG.
    pub fn apply_journal(&mut self, records: &[Record]) -> u64 {
        let records = &records[..self.replayable_len(records)];
        for rec in records {
            match *rec {
                Record::InsertLeaf { parent, weight } => {
                    self.insert_leaf_inner(parent, weight);
                }
                Record::SetWeight { vertex, weight } => {
                    self.set_weight_inner(vertex, weight);
                }
                Record::Rebuild => {
                    self.touch_parents_span();
                    self.dynamic.rebuild();
                    self.dirty.order_rewritten = true;
                    self.layout_dirty = false;
                    self.epoch += 1;
                }
                Record::RngState(_) => {}
            }
        }
        self.replayed += records.len() as u64;
        records.len() as u64
    }

    /// Writes the current state over the snapshot at `path`,
    /// incrementally when possible: if the file still carries the
    /// tracked base generation (same capacity, no grow since, matching
    /// per-slab CRCs), only the dirty extents are patched through the
    /// crash-safe delta protocol ([`spatial_store::write_incremental`]);
    /// otherwise the full snapshot is rewritten atomically. Either way
    /// the tracker rebases onto the written generation.
    pub fn checkpoint_to(
        &mut self,
        path: impl AsRef<Path>,
        tag: u64,
    ) -> Result<CheckpointStats, StoreError> {
        let path = path.as_ref();
        let snap = self.snapshot(tag);
        if let Some((base_n, base_reserved, base_crcs)) = self.dirty.base {
            if !self.dirty.grew && snap.reserved == base_reserved {
                let extents = DirtyExtents {
                    base_len: base_n,
                    order_rewritten: self.dirty.order_rewritten,
                    weight_cells: std::mem::take(&mut self.dirty.weight_cells),
                };
                match spatial_store::write_incremental(path, &snap, &extents, base_crcs)? {
                    Some(bytes_written) => {
                        self.rebase(&snap);
                        return Ok(CheckpointStats {
                            bytes_written,
                            incremental: true,
                        });
                    }
                    // The base on disk didn't validate — put the cells
                    // back (harmless if the full rewrite below also
                    // fails) and fall through.
                    None => self.dirty.weight_cells = extents.weight_cells,
                }
            }
        }
        // Full rewrite. Retire any pending delta *first* so no state
        // exists where a stale delta could later patch the new base.
        spatial_store::apply_pending_delta(path)?;
        let bytes = snap.encode();
        spatial_store::atomic_write(path, &bytes)?;
        self.rebase(&snap);
        Ok(CheckpointStats {
            bytes_written: bytes.len() as u64,
            incremental: false,
        })
    }

    /// Rebases the dirty tracker onto a just-written generation.
    fn rebase(&mut self, snap: &ForestSnapshot) {
        self.dirty = DirtyTracker {
            base: Some((snap.parents.len() as u32, snap.reserved, snap.slab_crcs())),
            ..DirtyTracker::default()
        };
    }

    /// Pre-sizes the engine pool, the forest's own run buffers and
    /// machines, and the batch scratch for this forest's reserved
    /// capacity (the snapshot header's `reserved` after a recovery) and
    /// `batch_hint` requests per execute, so the first post-restart
    /// [`SpatialForest::execute`] allocates nothing on the steady-state
    /// path: [`SpatialForest::warmstart_with`] on the forest's own set.
    pub fn warmstart(&mut self, batch_hint: usize) {
        let mut own = std::mem::take(&mut self.scratch);
        self.warmstart_with(&mut own, batch_hint);
        self.scratch = own;
    }

    /// [`SpatialForest::warmstart`] for a forest that runs on `scratch`
    /// ([`SpatialForest::execute_with`]): reserves `scratch` (run
    /// buffers and machines) instead of the forest's own set.
    /// Charge-neutral: engine construction is
    /// host-side and the LCA engine is only pre-built when the layout is
    /// already light-first (building it on a dirty layout would change
    /// the journaled rebuild schedule).
    pub fn warmstart_with(&mut self, scratch: &mut SessionScratch, batch_hint: usize) {
        let cap = self.dynamic.reserved().max(self.n() as u64) as usize;
        scratch.reserve(cap);
        self.pool.reserve_treefix(cap);
        let (layout, tree) = self.dynamic.light_first_parts();
        if !self.layout_dirty {
            self.pool.lca_for(self.epoch, layout, tree);
        }
        self.pool.ranking_for(self.epoch, tree.root, tree.csr);
        self.responses.reserve(batch_hint);
        self.lca_q.reserve(batch_hint);
        self.lca_idx.reserve(batch_hint);
        self.lca_answers.reserve(batch_hint);
        self.sum_v.reserve(batch_hint);
        self.sum_idx.reserve(batch_hint);
        self.rank_v.reserve(batch_hint);
        self.rank_idx.reserve(batch_hint);
        // Any mapped-slab reads the warmstart performed are lifetime
        // charges, not first-session ones.
        self.absorb_paging_into_lifetime();
    }

    /// Starts journaling: every subsequent durable mutation is appended
    /// to `writer` before being applied (write-ahead).
    pub fn attach_journal(&mut self, writer: JournalWriter) {
        self.journal = Some(writer);
    }

    /// Stops journaling and hands the writer back (the checkpoint path:
    /// snapshot, then switch to a fresh journal generation).
    pub fn detach_journal(&mut self) -> Option<JournalWriter> {
        self.journal.take()
    }

    /// The attached journal, if any — the serve layer appends its
    /// [`Record::RngState`] session commit markers through this.
    pub fn journal_mut(&mut self) -> Option<&mut JournalWriter> {
        self.journal.as_mut()
    }

    /// The insert-leaf mutation shared by the execute path and journal
    /// replay: extends the dynamic layout and the weight arrays, and
    /// tracks whether the append left the layout non-light-first.
    fn insert_leaf_inner(&mut self, parent: NodeId, weight: u64) -> NodeId {
        // The first structural mutation promotes the mapped slabs
        // (each promotion reads its whole slab once to copy it).
        self.touch_parents_span();
        if self.weights.is_mapped() {
            self.touch_weights_span();
        }
        let before = self.dynamic.stats();
        let v = self.dynamic.insert_leaf(parent);
        let after = self.dynamic.stats();
        // An insert dirties the light-first order unless the dynamic
        // layout's quality threshold rebuilt it on the spot (the
        // rebuild runs after the append).
        self.layout_dirty = after.rebuilds == before.rebuilds;
        if after.rebuilds != before.rebuilds {
            self.dirty.order_rewritten = true;
        }
        if after.grows != before.grows {
            self.dirty.grew = true;
        }
        let cap = self.dynamic.reserved() as usize;
        self.weights.make_mut(cap).push(weight);
        self.epoch += 1;
        self.tree = None;
        v
    }

    /// Executes a mixed request stream. Consecutive queries between
    /// mutations form one *charge-batched session*: each query kind in
    /// a session pays for a single engine run, however many queries
    /// share it. Responses align with `requests` by index; machine
    /// charges land in [`SpatialForest::last_report`]. This is
    /// [`SpatialForest::execute_with`] on the forest's own
    /// [`SessionScratch`], which it keeps between calls.
    ///
    /// Panics if a request names a vertex that does not exist at its
    /// position in the stream. The whole batch is checked first, so a
    /// rejected batch journals, resets and charges nothing.
    pub fn execute<R: Rng>(&mut self, requests: &[Request], rng: &mut R) -> &[Response] {
        // Checked before the set leaves the forest, so a rejected batch
        // keeps it.
        check_vertex_ids(requests, self.n());
        let mut own = std::mem::take(&mut self.scratch);
        self.execute_checked(&mut own, requests, rng);
        self.scratch = own;
        &self.responses
    }

    /// [`SpatialForest::execute`] with the engines' run buffers and the
    /// session's machines borrowed from `scratch`: each engine run
    /// takes the run buffers in and hands them back when it ends, and
    /// each session charges the set's machines, re-pointed onto this
    /// forest's geometry and reset when a session opens at a new epoch
    /// ([`spatial_model::Machine::repoint`]), so the forest keeps none
    /// of them between calls. Answers and charges are the same as
    /// `execute`'s, whatever forest's runs `scratch` served before; a
    /// set too small for this forest's tree grows to fit it.
    pub fn execute_with<R: Rng>(
        &mut self,
        scratch: &mut SessionScratch,
        requests: &[Request],
        rng: &mut R,
    ) -> &[Response] {
        check_vertex_ids(requests, self.n());
        self.execute_checked(scratch, requests, rng);
        &self.responses
    }

    /// The session of [`SpatialForest::execute_with`] on a batch whose
    /// vertex ids are already checked.
    fn execute_checked<R: Rng>(
        &mut self,
        scratch: &mut SessionScratch,
        requests: &[Request],
        rng: &mut R,
    ) {
        self.machines_epoch = u64::MAX;
        self.session = SessionReport::default();
        self.responses.clear();
        // Drop any queries a previous execute left behind (it can only
        // happen if a caller caught a panic mid-flush and reused the
        // forest — stale indices must not corrupt this batch).
        self.lca_q.clear();
        self.lca_idx.clear();
        self.sum_v.clear();
        self.sum_idx.clear();
        self.rank_v.clear();
        self.rank_idx.clear();

        for (i, &req) in requests.iter().enumerate() {
            match req {
                Request::Lca(a, b) => {
                    self.lca_q.push((a, b));
                    self.lca_idx.push(i as u32);
                    self.responses.push(Response::Lca(spatial_tree::NIL));
                }
                Request::SubtreeSum(v) => {
                    self.sum_v.push(v);
                    self.sum_idx.push(i as u32);
                    self.responses.push(Response::SubtreeSum(0));
                }
                Request::Rank(v) => {
                    self.rank_v.push(v);
                    self.rank_idx.push(i as u32);
                    self.responses.push(Response::Rank(0));
                }
                Request::InsertLeaf { parent, weight } => {
                    self.flush_session(scratch, rng);
                    if let Some(journal) = self.journal.as_mut() {
                        journal
                            .append(Record::InsertLeaf { parent, weight })
                            .expect("journal append failed (fail-stop)");
                    }
                    let v = self.insert_leaf_inner(parent, weight);
                    self.session.inserts += 1;
                    self.responses.push(Response::InsertedLeaf(v));
                }
            }
        }
        self.flush_session(scratch, rng);
        self.fold_machines(scratch);
        // Publish the session's paging charges in one batch: a forest
        // without a pager reports `None`.
        if let Some(pager) = self.pager.as_mut() {
            self.session.paging = Some(pager.commit_session());
        }
    }

    /// Restores the light-first order after tail appends (the batched
    /// LCA engine's correctness precondition) and bumps the epoch so
    /// slot-dependent engine bindings refresh.
    fn ensure_light_first(&mut self) {
        if self.layout_dirty {
            // Query-triggered rebuilds depend on which queries arrived,
            // not just the insert stream — they must be journaled or
            // replay would diverge. (Threshold rebuilds inside an
            // insert are deterministic and are not.)
            if let Some(journal) = self.journal.as_mut() {
                journal
                    .append(Record::Rebuild)
                    .expect("journal append failed (fail-stop)");
            }
            self.touch_parents_span();
            self.dynamic.rebuild();
            self.dirty.order_rewritten = true;
            self.layout_dirty = false;
            self.epoch += 1;
        }
    }

    /// Points the lent machines at the current epoch, once per epoch
    /// of an execute: the charges of the epoch's earlier sessions are
    /// folded into the report, then both machines are re-pointed and
    /// reset, the grid machine onto the slots `0..n` of the layout's
    /// curve (its actual cells: a capacity-reserved tail is priced on
    /// the reserved geometry, as [`Layout::machine`] prices it) and the
    /// dart machine onto `2n` slots of the family's curve for `2n`.
    fn point_machines(&mut self, scratch: &mut SessionScratch) {
        if self.machines_epoch == self.epoch {
            return;
        }
        self.fold_machines(scratch);
        let layout = self.dynamic.layout();
        let n = layout.n();
        scratch.machine.repoint(layout.curve(), n);
        let darts = 2 * n;
        scratch
            .dart_machine
            .repoint(&self.opts.curve.for_capacity(darts as u64), darts);
        self.machines_epoch = self.epoch;
    }

    /// Adds the lent machines' charges to the in-flight report, if this
    /// execute has pointed them.
    fn fold_machines(&mut self, scratch: &SessionScratch) {
        if self.machines_epoch != u64::MAX {
            self.session.grid = self.session.grid + scratch.machine.report();
            self.session.ranking = self.session.ranking + scratch.dart_machine.report();
        }
    }

    /// Flushes the buffered query session: one charged engine run per
    /// kind present, in the fixed order LCA → subtree sums → ranks.
    /// Each run borrows its engine's run buffers from `scratch`.
    fn flush_session<R: Rng>(&mut self, scratch: &mut SessionScratch, rng: &mut R) {
        if self.lca_q.is_empty() && self.sum_v.is_empty() && self.rank_v.is_empty() {
            return;
        }
        if !self.lca_q.is_empty() {
            self.ensure_light_first();
        }
        self.point_machines(scratch);
        self.session.sessions += 1;

        if !self.lca_q.is_empty() {
            let (layout, tree) = self.dynamic.light_first_parts();
            let (engine, treefix) = self.pool.lca_for(self.epoch, layout, tree);
            treefix.swap_run(&mut scratch.contraction);
            engine.run_on(
                tree,
                treefix,
                &scratch.machine,
                &self.lca_q,
                &mut self.lca_answers,
                rng,
            );
            treefix.swap_run(&mut scratch.contraction);
            for (&idx, &w) in self.lca_idx.iter().zip(self.lca_answers.iter()) {
                self.responses[idx as usize] = Response::Lca(w);
            }
            self.session.lca_queries += self.lca_q.len() as u32;
            self.lca_q.clear();
            self.lca_idx.clear();
        }

        if !self.sum_v.is_empty() {
            // The treefix reads every weight; a still-mapped slab pays
            // its residency before the engine runs.
            self.touch_weights_span();
            let (_, tree) = self.dynamic.light_first_parts();
            let treefix = self
                .pool
                .treefix_for(self.epoch, tree.parents, tree.slots, tree.csr);
            treefix.swap_run(&mut scratch.contraction);
            treefix.load(as_add(self.weights.as_slice()), true);
            treefix.contract(&scratch.machine, rng);
            let sums = treefix.uncontract_bottom_up(&scratch.machine);
            for (&idx, &v) in self.sum_idx.iter().zip(self.sum_v.iter()) {
                self.responses[idx as usize] = Response::SubtreeSum(sums[v as usize].0);
            }
            treefix.swap_run(&mut scratch.contraction);
            self.session.sum_queries += self.sum_v.len() as u32;

            if self.opts.crossover {
                let (pram, treefix) = self.pool.pram_for(self.epoch, &self.dynamic);
                pram.reset();
                treefix.subtree_sums(pram, self.weights.as_slice(), rng);
                let shadow = pram.report();
                self.session.pram = Some(self.session.pram.unwrap_or_default() + shadow);
            }
            self.sum_v.clear();
            self.sum_idx.clear();
        }

        if !self.rank_v.is_empty() {
            let root = self.dynamic.root();
            let (_, csr) = self.dynamic.light_first_children();
            let engine = self.pool.ranking_for(self.epoch, root, csr);
            engine.swap_run(&mut scratch.ranking);
            // No by-id scatter: each queried dart is read through the
            // engine's position map.
            engine.run(&scratch.dart_machine, rng);
            for (&idx, &v) in self.rank_idx.iter().zip(self.rank_v.iter()) {
                let rank = if v == root {
                    0
                } else {
                    let r = engine.rank_of(down(v));
                    debug_assert_ne!(r, UNRANKED, "non-root vertex off the tour");
                    r + 1
                };
                self.responses[idx as usize] = Response::Rank(rank);
            }
            engine.swap_run(&mut scratch.ranking);
            self.session.rank_queries += self.rank_v.len() as u32;
            self.rank_v.clear();
            self.rank_idx.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use spatial_euler::ranking::rank_sequential;
    use spatial_euler::tour::EulerTour;
    use spatial_tree::{generators, ChildrenCsr};

    fn naive_lca(tree: &Tree, mut a: NodeId, mut b: NodeId) -> NodeId {
        let depth = |mut v: NodeId| {
            let mut d = 0u32;
            while let Some(p) = tree.parent(v) {
                v = p;
                d += 1;
            }
            d
        };
        let (mut da, mut db) = (depth(a), depth(b));
        while da > db {
            a = tree.parent(a).unwrap();
            da -= 1;
        }
        while db > da {
            b = tree.parent(b).unwrap();
            db -= 1;
        }
        while a != b {
            a = tree.parent(a).unwrap();
            b = tree.parent(b).unwrap();
        }
        a
    }

    fn naive_subtree_sum(tree: &Tree, weights: &[u64], v: NodeId) -> u64 {
        let mut sum = weights[v as usize];
        for c in tree.children(v) {
            sum += naive_subtree_sum(tree, weights, *c);
        }
        sum
    }

    fn naive_rank(tree: &Tree, v: NodeId) -> u64 {
        if v == tree.root() {
            return 0;
        }
        let sizes = tree.subtree_sizes();
        let csr = ChildrenCsr::by_size(tree, &sizes);
        let tour = EulerTour::light_first_from_csr(tree, &csr);
        rank_sequential(tour.next_darts(), tour.start())[down(v) as usize] + 1
    }

    #[test]
    fn mixed_batch_matches_naive() {
        let mut rng = StdRng::seed_from_u64(1);
        let tree = generators::uniform_random(200, &mut rng);
        let mut forest = SpatialForest::new(&tree);
        let mut batch = crate::QueryBatch::new();
        for i in 0..40u32 {
            batch.lca(i * 3 % 200, i * 7 % 200);
            batch.subtree_sum(i * 5 % 200);
            batch.rank(i * 11 % 200);
        }
        let responses = forest.execute(batch.requests(), &mut rng).to_vec();
        let weights = vec![1u64; 200];
        for (req, resp) in batch.requests().iter().zip(&responses) {
            match (*req, *resp) {
                (Request::Lca(a, b), Response::Lca(w)) => {
                    assert_eq!(w, naive_lca(&tree, a, b), "lca({a},{b})")
                }
                (Request::SubtreeSum(v), Response::SubtreeSum(s)) => {
                    assert_eq!(s, naive_subtree_sum(&tree, &weights, v), "sum({v})")
                }
                (Request::Rank(v), Response::Rank(r)) => {
                    assert_eq!(r, naive_rank(&tree, v), "rank({v})")
                }
                other => panic!("mismatched response kind: {other:?}"),
            }
        }
        let report = forest.last_report();
        assert_eq!(report.sessions, 1, "one mutation-free session");
        assert_eq!(report.lca_queries, 40);
        assert!(report.grid.energy > 0);
        assert!(report.ranking.energy > 0);
        assert!(report.pram.is_none());
    }

    #[test]
    fn inserts_split_sessions_and_are_visible() {
        let mut rng = StdRng::seed_from_u64(2);
        let tree = generators::random_binary(60, &mut rng);
        let mut forest = SpatialForest::new(&tree);
        let mut batch = crate::QueryBatch::new();
        batch
            .subtree_sum(tree.root())
            .insert_leaf_weighted(5, 10)
            .subtree_sum(tree.root())
            .lca(60, 5) // the new leaf: its LCA with its parent is the parent
            .rank(60);
        let responses = forest.execute(batch.requests(), &mut rng).to_vec();
        assert_eq!(responses[0], Response::SubtreeSum(60));
        assert_eq!(responses[1], Response::InsertedLeaf(60));
        assert_eq!(responses[2], Response::SubtreeSum(70), "weight 10 landed");
        assert_eq!(responses[3], Response::Lca(5));
        let report = forest.last_report();
        assert_eq!(report.sessions, 2);
        assert_eq!(report.inserts, 1);
        assert_eq!(forest.n(), 61);
        // The post-insert queries saw the rebuilt light-first layout.
        let expected_rank = naive_rank(forest.tree(), 60);
        assert_eq!(responses[4], Response::Rank(expected_rank));
    }

    #[test]
    fn repeated_batches_reuse_engines_and_charge_identically() {
        let mut rng = StdRng::seed_from_u64(3);
        let tree = generators::preferential_attachment(300, &mut rng);
        let mut forest = SpatialForest::new(&tree);
        let mut batch = crate::QueryBatch::new();
        for i in 0..50u32 {
            batch.lca(i, (i * 13 + 1) % 300);
            batch.subtree_sum((i * 3) % 300);
            batch.rank((i * 17) % 300);
        }
        let first: Vec<Response> = forest
            .execute(batch.requests(), &mut StdRng::seed_from_u64(9))
            .to_vec();
        let first_report = forest.last_report();
        let builds_after_first = forest.pool().stats().builds;
        for _ in 0..3 {
            let again = forest.execute(batch.requests(), &mut StdRng::seed_from_u64(9));
            assert_eq!(again, &first[..], "answers drifted across reuse");
            assert_eq!(forest.last_report(), first_report, "charges drifted");
        }
        assert_eq!(
            forest.pool().stats().builds,
            builds_after_first,
            "reuse must not rebuild engines"
        );
        assert_eq!(forest.pool().stats().rebinds, 0, "no mutations, no rebinds");
    }

    #[test]
    fn crossover_mode_prices_the_pram_shadow() {
        let mut rng = StdRng::seed_from_u64(4);
        let tree = generators::random_binary(256, &mut rng);
        let mut forest = SpatialForest::with_options(
            &tree,
            ForestOptions {
                crossover: true,
                ..ForestOptions::default()
            },
        );
        let mut batch = crate::QueryBatch::new();
        batch.subtree_sum(0).subtree_sum(100);
        forest.execute(batch.requests(), &mut rng);
        let report = forest.last_report();
        let pram = report.pram.expect("crossover mode prices the shadow");
        assert!(
            pram.energy > report.grid.energy,
            "PRAM simulation must cost more: {} vs {}",
            pram.energy,
            report.grid.energy
        );
    }

    #[test]
    fn single_vertex_forest() {
        let tree = Tree::from_parents(0, vec![spatial_tree::NIL]);
        let mut forest = SpatialForest::new(&tree);
        let mut rng = StdRng::seed_from_u64(5);
        let mut batch = crate::QueryBatch::new();
        batch
            .lca(0, 0)
            .subtree_sum(0)
            .rank(0)
            .insert_leaf(0)
            .rank(1);
        let responses = forest.execute(batch.requests(), &mut rng).to_vec();
        assert_eq!(responses[0], Response::Lca(0));
        assert_eq!(responses[1], Response::SubtreeSum(1));
        assert_eq!(responses[2], Response::Rank(0));
        assert_eq!(responses[3], Response::InsertedLeaf(1));
        assert_eq!(responses[4], Response::Rank(1));
    }

    #[test]
    fn set_weight_changes_sums_without_rebinding() {
        let tree = generators::path(10);
        let mut forest = SpatialForest::new(&tree);
        let mut rng = StdRng::seed_from_u64(6);
        let mut batch = crate::QueryBatch::new();
        batch.subtree_sum(0);
        assert_eq!(
            forest.execute(batch.requests(), &mut rng)[0],
            Response::SubtreeSum(10)
        );
        forest.set_weight(9, 100);
        assert_eq!(
            forest.execute(batch.requests(), &mut rng)[0],
            Response::SubtreeSum(109)
        );
        assert_eq!(forest.pool().stats().rebinds, 0);
    }

    #[test]
    fn subtree_sums_wrap_modulo_2_64() {
        // 64 unit weights and a u64::MAX leaf under the root: the root's
        // sum is 64 + (2^64 − 1) ≡ 63 (mod 2^64), and every sum is the
        // wrapping `Add` monoid's, as the host treefix computes it.
        let tree = generators::uniform_random(64, &mut StdRng::seed_from_u64(7));
        let root = tree.root();
        let mut forest = SpatialForest::new(&tree);
        let mut batch = crate::QueryBatch::new();
        batch.insert_leaf_weighted(root, u64::MAX);
        for v in 0..65 {
            batch.subtree_sum(v);
        }
        let responses = forest
            .execute(batch.requests(), &mut StdRng::seed_from_u64(8))
            .to_vec();

        let mut parents = tree.parents().to_vec();
        parents.push(root);
        let mut weights = vec![Add(1); 64];
        weights.push(Add(u64::MAX));
        let host =
            spatial_treefix::treefix_bottom_up_host(&Tree::from_parents(root, parents), &weights);
        assert_eq!(responses[1 + root as usize], Response::SubtreeSum(63));
        for (v, sum) in host.iter().enumerate() {
            assert_eq!(responses[1 + v], Response::SubtreeSum(sum.0), "sum({v})");
        }
    }

    #[test]
    fn snapshot_and_journal_recovery_is_charge_identical() {
        let dir = std::env::temp_dir();
        let snap_path = dir.join(format!("spatial-session-snap-{}", std::process::id()));
        let journal_path = dir.join(format!("spatial-session-journal-{}", std::process::id()));

        let mut rng = StdRng::seed_from_u64(11);
        let tree = generators::uniform_random(80, &mut rng);
        let opts = ForestOptions::default();
        let mut live = SpatialForest::with_options(&tree, opts);

        // Mutate pre-snapshot so the captured state is mid-lifetime.
        let mut warm = crate::QueryBatch::new();
        for i in 0..30u32 {
            warm.insert_leaf(i % 80).lca(i, (i * 7 + 1) % 80);
        }
        live.execute(warm.requests(), &mut StdRng::seed_from_u64(12));
        live.set_weight(3, 41);

        // Checkpoint, then journal a continuation that crosses inserts,
        // weight changes, and a query-triggered rebuild.
        live.snapshot_to(&snap_path, 7).expect("snapshot");
        live.attach_journal(JournalWriter::create(&journal_path).expect("journal"));
        let mut cont = crate::QueryBatch::new();
        for i in 0..40u32 {
            cont.insert_leaf(i % live.n()).subtree_sum(i % 50).rank(i);
        }
        live.execute(cont.requests(), &mut StdRng::seed_from_u64(13));
        live.set_weight(9, 1000);
        live.detach_journal();

        let mut recovered =
            SpatialForest::recover_from(&snap_path, &journal_path, opts).expect("recover");
        assert_eq!(recovered.n(), live.n());
        assert_eq!(recovered.dynamic_stats(), live.dynamic_stats());
        assert_eq!(recovered.layout().order(), live.layout().order());

        // The future is pinned: identical answers AND identical charges.
        let mut probe = crate::QueryBatch::new();
        for i in 0..25u32 {
            probe
                .lca(i, (i * 13 + 2) % 100)
                .subtree_sum(i * 4)
                .rank(i * 3);
        }
        let a = live
            .execute(probe.requests(), &mut StdRng::seed_from_u64(14))
            .to_vec();
        let b = recovered
            .execute(probe.requests(), &mut StdRng::seed_from_u64(14))
            .to_vec();
        assert_eq!(a, b, "answers diverged after recovery");
        assert_eq!(
            live.last_report(),
            recovered.last_report(),
            "charges diverged after recovery"
        );

        // The snapshot preserved the caller's tag verbatim.
        let snap = MappedSnapshot::open(&snap_path).expect("reopen");
        assert_eq!(snap.header().tag, 7);

        std::fs::remove_file(&snap_path).ok();
        std::fs::remove_file(&journal_path).ok();
    }
}
