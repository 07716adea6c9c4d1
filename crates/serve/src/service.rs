//! [`ForestService`]: shard-owned forests behind coalescing bounded
//! queues.

use crossbeam::channel::{bounded, Receiver, Sender};
use rand::prelude::*;
use spatial_session::{
    ForestOptions, Request, Response, SessionReport, SessionScratch, SpatialForest,
};
use spatial_store::{read_journal, JournalWriter, MappedSnapshot, Record, StoreError};
use spatial_tree::Tree;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The clock a worker charges its busy time on: per-thread CPU time,
/// so a shard's `busy` means "compute this shard performed", not "wall
/// time during which it happened to hold the core". On hosts with
/// fewer cores than workers (CI containers are single-core) wall-clock
/// deltas would silently include the time a worker sat preempted while
/// its siblings ran, inflating every shard's busy toward the total and
/// erasing the sharding signal the modeled-QPS metric exists to
/// measure.
#[cfg(target_os = "linux")]
mod thread_clock {
    use std::time::Duration;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    /// CPU time consumed by the calling thread so far.
    pub fn now() -> Duration {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        debug_assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID unavailable");
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    }
}

/// Wall-clock fallback where no per-thread CPU clock is exposed; busy
/// figures are then only meaningful with one core per worker.
#[cfg(not(target_os = "linux"))]
mod thread_clock {
    use std::time::{Duration, Instant};

    pub fn now() -> Duration {
        thread_local! {
            static ANCHOR: Instant = Instant::now();
        }
        ANCHOR.with(|a| a.elapsed())
    }
}

/// CPU time the calling thread has consumed so far: the clock a shard
/// worker charges its busy time on ([`ShardReport::busy`]). Work timed
/// on the caller's thread with this clock compares like with like
/// against a shard's busy time.
pub fn thread_cpu_time() -> Duration {
    thread_clock::now()
}

/// Minimum number of requests a worker tries to coalesce into one
/// charge-batched session before executing.
///
/// Measured by the dispatch-granularity sweep in
/// `experiments -- bench-json-throughput` (recorded in `DESIGN.md`):
/// a dispatch cycle's cost fits `F/b + c` per query, and at n = 2^13
/// the fixed per-cycle cost F (~15 ms: session setup, structure
/// refresh, and — a distant third — the channel hand-off itself)
/// dwarfs the marginal per-query cost c (~6 µs), so per-query cost
/// falls like `1/b` with cycle size. This constant is the measured
/// smallest cycle within 2× of the batch-everything bound — past it,
/// doubling the cycle (and with it the latency coupling between
/// coalesced jobs) buys less than 2×. Coalescing is opportunistic — a
/// worker never *waits* for this many requests (latency is bounded by
/// work in flight, not by a timer); it just keeps draining its queue
/// without executing while fewer than this many requests are pending
/// and more jobs are available.
pub const MIN_COALESCED_BATCH: usize = 512;

/// Construction options for [`ForestService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceOptions {
    /// Number of worker threads; tenant `t` is owned by shard
    /// `t % workers`.
    pub workers: usize,
    /// Bounded capacity of each shard's submission queue, in **jobs**;
    /// a full queue blocks [`ForestService::submit`] (backpressure).
    pub queue_capacity: usize,
    /// A worker keeps draining pending jobs (without blocking) until
    /// it holds at least this many requests, then executes the lot as
    /// per-tenant charge-batched sessions. See [`MIN_COALESCED_BATCH`].
    pub coalesce_target: usize,
    /// Options for every tenant's [`SpatialForest`].
    pub forest: ForestOptions,
    /// Root seed; each tenant derives its private session RNG from it
    /// (see [`tenant_seed`]), independent of sharding.
    pub seed: u64,
    /// Record every executed per-tenant request stream in the shard
    /// report — the hook the differential fuzz harness uses to replay
    /// the service's exact coalescing on a single-threaded twin.
    pub record_streams: bool,
}

impl ServiceOptions {
    /// Defaults with an explicit worker count.
    pub fn new(workers: usize) -> Self {
        ServiceOptions {
            workers,
            queue_capacity: 256,
            coalesce_target: MIN_COALESCED_BATCH,
            forest: ForestOptions::default(),
            seed: 0x5eed,
            record_streams: false,
        }
    }
}

/// The RNG seed of a tenant's forest sessions: a fixed mix of the
/// service seed and the tenant id. Shard-independent, so a
/// single-threaded twin replaying a tenant's recorded streams with
/// this seed reproduces the service's answers and charges bit for bit.
pub fn tenant_seed(seed: u64, tenant: u32) -> u64 {
    seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(tenant as u64 + 1))
}

/// What went wrong serving a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The shard's worker thread died (panicked) before answering this
    /// job. The tenant's shard is permanently out of service for the
    /// lifetime of this [`ForestService`]; [`ForestService::shutdown`]
    /// reports it as poisoned.
    WorkerLost {
        /// The dead shard's index.
        shard: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::WorkerLost { shard } => {
                write!(f, "shard {shard} worker died before answering")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One submitted unit of work: a tenant plus a request stream, with
/// the reply channel the owning worker answers on.
struct Job {
    tenant: u32,
    requests: Vec<Request>,
    reply: Sender<Vec<Response>>,
}

/// A handle to one submitted job's pending responses.
#[must_use = "wait() retrieves the responses"]
pub struct Ticket {
    rx: Receiver<Vec<Response>>,
    shard: usize,
}

impl Ticket {
    /// Blocks until the owning worker has executed the job; responses
    /// align with the submitted requests by index.
    ///
    /// Returns [`ServeError::WorkerLost`] when the shard's worker died
    /// before answering — whether it panicked executing this very job,
    /// crashed with the job still queued behind it, or was already dead
    /// at submission. Never hangs on a dead worker: the reply channel
    /// disconnects when the job is dropped, queued or in flight.
    pub fn wait(self) -> Result<Vec<Response>, ServeError> {
        self.rx
            .recv()
            .map_err(|_| ServeError::WorkerLost { shard: self.shard })
    }
}

/// Everything one worker accumulated for one tenant.
#[derive(Debug, Clone)]
pub struct TenantLog {
    /// The tenant id.
    pub tenant: u32,
    /// One [`SessionReport`] per executed coalesced session, in
    /// execution order.
    pub reports: Vec<SessionReport>,
    /// The executed request streams (one per session, concatenated in
    /// coalescing order) when `record_streams` was set; empty
    /// otherwise.
    pub streams: Vec<Vec<Request>>,
}

/// Shutdown summary of one shard (= one worker thread).
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index (`0..workers`).
    pub shard: usize,
    /// Jobs the worker answered.
    pub jobs: u64,
    /// Requests across those jobs.
    pub requests: u64,
    /// Coalesced sessions executed (`≤ jobs`; the coalescing win is
    /// `jobs / executes`).
    pub executes: u64,
    /// CPU time this worker spent executing (drain + execute + reply),
    /// excluding idle blocking on the queue, measured on the
    /// per-thread CPU clock so co-scheduled workers on an
    /// oversubscribed host don't leak into each other's figure. The
    /// critical-path denominator of the modeled aggregate throughput.
    pub busy: Duration,
    /// Whether the shard's worker died (panicked) instead of exiting
    /// cleanly. A poisoned shard's counters and logs cover only what
    /// the unwind left recoverable — nothing, with the current
    /// thread-owned state — so they read as zero/empty.
    pub poisoned: bool,
    /// Per-tenant logs for the tenants this shard owns.
    pub tenants: Vec<TenantLog>,
}

impl ShardReport {
    /// The placeholder report of a shard whose worker panicked: zeroed
    /// counters, no tenant logs, `poisoned` set.
    fn lost(shard: usize) -> Self {
        ShardReport {
            shard,
            jobs: 0,
            requests: 0,
            executes: 0,
            busy: Duration::ZERO,
            poisoned: true,
            tenants: Vec::new(),
        }
    }
}

/// Shutdown summary of the whole service.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// One report per shard, indexed by shard.
    pub shards: Vec<ShardReport>,
}

impl ServiceReport {
    /// Total requests answered across all shards.
    pub fn total_requests(&self) -> u64 {
        self.shards.iter().map(|s| s.requests).sum()
    }

    /// Total jobs answered across all shards.
    pub fn total_jobs(&self) -> u64 {
        self.shards.iter().map(|s| s.jobs).sum()
    }

    /// Total coalesced sessions executed across all shards.
    pub fn total_executes(&self) -> u64 {
        self.shards.iter().map(|s| s.executes).sum()
    }

    /// The busiest shard's busy time — the critical path of the run if
    /// every worker had its own core.
    pub fn max_shard_busy(&self) -> Duration {
        self.shards.iter().map(|s| s.busy).max().unwrap_or_default()
    }

    /// Summed busy time across shards (the single-core wall-clock
    /// lower bound).
    pub fn total_busy(&self) -> Duration {
        self.shards.iter().map(|s| s.busy).sum()
    }

    /// **Modeled** aggregate queries/sec: total requests divided by
    /// the busiest shard's busy time. This is the throughput the run's
    /// *load balance* supports when each worker has a dedicated core —
    /// on a machine with fewer cores than workers (CI containers), the
    /// measured wall-clock QPS is lower while this figure isolates the
    /// sharding quality. Both are reported side by side in
    /// `BENCH_throughput.json`.
    pub fn modeled_qps(&self) -> f64 {
        let crit = self.max_shard_busy().as_secs_f64();
        if crit == 0.0 {
            return 0.0;
        }
        self.total_requests() as f64 / crit
    }

    /// Indices of shards whose workers died instead of exiting cleanly
    /// (empty on a healthy run).
    pub fn poisoned_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .filter(|s| s.poisoned)
            .map(|s| s.shard)
            .collect()
    }

    /// The log of one tenant (wherever it was sharded).
    pub fn tenant_log(&self, tenant: u32) -> Option<&TenantLog> {
        self.shards
            .iter()
            .flat_map(|s| s.tenants.iter())
            .find(|t| t.tenant == tenant)
    }
}

/// Durability settings of a [`ForestService::start_durable`] service.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory holding every tenant's snapshot + journal files
    /// (created if absent). One snapshot `tenant-<t>.snapshot` and one
    /// live journal `tenant-<t>.<generation>.journal` per tenant.
    pub dir: PathBuf,
    /// Number of committed sessions between checkpoints: after this
    /// many, the tenant's forest is re-checkpointed (incrementally when
    /// the on-disk base still matches) and the journal restarts at the
    /// next generation (bounding recovery replay).
    pub checkpoint_interval: u64,
}

impl DurabilityOptions {
    /// Durability under `dir` with a checkpoint every 8 sessions.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityOptions {
            dir: dir.into(),
            checkpoint_interval: 8,
        }
    }
}

/// Per-tenant durability bookkeeping (worker-side).
struct TenantDurability {
    dir: PathBuf,
    /// Current journal generation — also written into the snapshot's
    /// `tag`, which is what makes the checkpoint's snapshot/journal
    /// switch crash-safe: whichever snapshot survives names the one
    /// journal file that goes with it.
    generation: u64,
    sessions_since_checkpoint: u64,
    interval: u64,
}

/// Per-tenant worker-side state: the forest, its session RNG, and the
/// accumulated logs.
struct TenantState {
    tenant: u32,
    forest: SpatialForest,
    rng: StdRng,
    reports: Vec<SessionReport>,
    streams: Vec<Vec<Request>>,
    durable: Option<TenantDurability>,
}

/// One tenant slot of a shard. Durable tenants start `Lazy` and are
/// recovered on their first job, so restarting a large fleet faults in
/// (and re-checkpoints) only the tenants actually receiving traffic —
/// a never-touched tenant's durable files are left exactly as the
/// previous run published them.
enum TenantSlot {
    /// A live tenant forest (non-durable tenants start here).
    Ready(Box<TenantState>),
    /// A durable tenant not yet recovered; holds the non-persisted
    /// half of its identity (the seed tree) until the first job.
    Lazy { tenant: u32, tree: Tree },
}

impl TenantSlot {
    fn tenant(&self) -> u32 {
        match self {
            TenantSlot::Ready(s) => s.tenant,
            TenantSlot::Lazy { tenant, .. } => *tenant,
        }
    }
}

fn snapshot_path(dir: &Path, tenant: u32) -> PathBuf {
    dir.join(format!("tenant-{tenant}.snapshot"))
}

fn journal_path(dir: &Path, tenant: u32, generation: u64) -> PathBuf {
    dir.join(format!("tenant-{tenant}.{generation}.journal"))
}

/// Opens a tenant's snapshot over a [`MappedSnapshot`]: slabs are
/// served zero-copy out of the snapshot file until a mutation promotes
/// them (or out of memory where `mmap` is unavailable), so restart cost
/// scales with the tenants actually touched. `None` means no snapshot
/// exists yet (a fresh tenant); a pending incremental-checkpoint delta
/// is applied first (crash recovery).
fn open_tenant_snapshot(
    tenant: u32,
    opts: &ServiceOptions,
    dur: &DurabilityOptions,
) -> Option<(SpatialForest, u64)> {
    let spath = snapshot_path(&dur.dir, tenant);
    // `MappedSnapshot::open` applies a pending delta itself.
    match MappedSnapshot::open(&spath) {
        Ok(mapped) => {
            let generation = mapped.header().tag;
            let forest = SpatialForest::from_mapped(&Arc::new(mapped), opts.forest);
            Some((forest, generation))
        }
        Err(StoreError::Io(ref e)) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => panic!("tenant {tenant} snapshot unmappable: {e}"),
    }
}

/// Builds one tenant's state from its durable files: recover from the
/// snapshot + committed journal prefix when a snapshot exists, start
/// fresh otherwise. A recovered tenant whose journal is completely
/// empty keeps its generation and re-attaches the same journal for
/// append — restarting a cleanly-checkpointed fleet rewrites nothing.
/// Every other path ends on a brand-new checkpoint generation. Either
/// way the forest is warmstarted on the shard's `scratch` (reserving it
/// for this tenant), so the first session's steady-state path
/// allocates nothing.
fn start_tenant_durable(
    tenant: u32,
    tree: &Tree,
    opts: &ServiceOptions,
    dur: &DurabilityOptions,
    scratch: &mut SessionScratch,
) -> TenantState {
    let durable = |generation| {
        Some(TenantDurability {
            dir: dur.dir.clone(),
            generation,
            sessions_since_checkpoint: 0,
            interval: dur.checkpoint_interval.max(1),
        })
    };
    let fresh_rng = || StdRng::seed_from_u64(tenant_seed(opts.seed, tenant));
    let mut state = match open_tenant_snapshot(tenant, opts, dur) {
        Some((mut forest, generation)) => {
            let jpath = journal_path(&dur.dir, tenant, generation);
            let records = read_journal(&jpath).expect("tenant journal unreadable");
            // Session-atomic replay: the RngState marker appended after
            // each executed session is the commit point. Everything
            // past the last marker of the replayable prefix is a
            // session the crash interrupted mid-write, or one holding a
            // record that names a missing vertex — drop it wholesale
            // rather than replay half of it.
            let committed = records[..forest.replayable_len(&records)]
                .iter()
                .rposition(|r| matches!(r, Record::RngState(_)))
                .map_or(0, |i| i + 1);
            forest.apply_journal(&records[..committed]);
            let rng = records[..committed]
                .iter()
                .rev()
                .find_map(|r| match r {
                    Record::RngState(s) => Some(StdRng::from_state(*s)),
                    _ => None,
                })
                .unwrap_or_else(fresh_rng);
            let mut state = TenantState {
                tenant,
                forest,
                rng,
                reports: Vec::new(),
                streams: Vec::new(),
                durable: durable(generation),
            };
            // An entirely byte-empty journal has nothing to compact:
            // skip the startup checkpoint and keep appending to the
            // same generation. Any bytes at all — even a torn partial
            // record — force the checkpoint below, which truncates
            // them.
            let journal_bytes = std::fs::metadata(&jpath).map_or(0, |m| m.len());
            if records.is_empty() && journal_bytes == 0 {
                let writer = JournalWriter::open_append(&jpath).expect("reopen tenant journal");
                state.forest.attach_journal(writer);
            } else {
                checkpoint_tenant(&mut state);
            }
            state
        }
        None => {
            let mut state = TenantState {
                tenant,
                forest: SpatialForest::with_options(tree, opts.forest),
                rng: fresh_rng(),
                reports: Vec::new(),
                streams: Vec::new(),
                durable: durable(0),
            };
            // A fresh tenant checkpoints immediately: its first
            // snapshot plus the generation-1 journal.
            checkpoint_tenant(&mut state);
            state
        }
    };
    state.forest.warmstart_with(scratch, opts.coalesce_target);
    state
}

/// Re-checkpoints the tenant and switches to the next journal
/// generation. The snapshot write goes through
/// [`SpatialForest::checkpoint_to`]: when the on-disk base still
/// matches the forest's tracked generation, only the dirty slab
/// extents are patched through the crash-safe delta protocol instead
/// of rewriting the whole file. Crash-safe at every step: the next
/// generation's journal is created *before* the snapshot that names
/// it is published (atomic rename or delta commit), and the old
/// journal is only removed after — a crash anywhere leaves exactly
/// one (snapshot, journal) pair that recovery will agree on.
fn checkpoint_tenant(state: &mut TenantState) {
    let d = state
        .durable
        .as_ref()
        .expect("checkpoint of durable tenant");
    let (dir, generation) = (d.dir.clone(), d.generation);
    let next = generation + 1;
    let writer = JournalWriter::create(journal_path(&dir, state.tenant, next))
        .expect("create next journal generation");
    state
        .forest
        .checkpoint_to(snapshot_path(&dir, state.tenant), next)
        .expect("write checkpoint snapshot");
    state.forest.detach_journal();
    state.forest.attach_journal(writer);
    let _ = std::fs::remove_file(journal_path(&dir, state.tenant, generation));
    let d = state
        .durable
        .as_mut()
        .expect("checkpoint of durable tenant");
    d.generation = next;
    d.sessions_since_checkpoint = 0;
}

/// Commits one executed session to the tenant's journal (the RngState
/// marker + fsync), checkpointing when the interval is due. A no-op
/// for non-durable tenants.
fn commit_session(state: &mut TenantState) {
    if state.durable.is_none() {
        return;
    }
    let marker = Record::RngState(state.rng.state());
    {
        let journal = state
            .forest
            .journal_mut()
            .expect("durable tenant has a journal attached");
        journal
            .append(marker)
            .expect("journal append failed (fail-stop)");
        journal.sync().expect("journal sync failed (fail-stop)");
    }
    let d = state.durable.as_mut().expect("checked above");
    d.sessions_since_checkpoint += 1;
    if d.sessions_since_checkpoint >= d.interval {
        checkpoint_tenant(state);
    }
}

/// A fixed pool of worker threads serving many tenants' forests.
///
/// Tenant `t` is owned by shard `t % workers`: all of a tenant's
/// requests execute on one thread, in submission order, against
/// thread-exclusive state — the hot path takes **no locks** and shares
/// **no cache lines** across shards. Cross-thread communication is
/// confined to the bounded job queue in front of each shard and the
/// per-job reply channel, both carrying whole batches.
pub struct ForestService {
    txs: Vec<Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<ShardReport>>,
    workers: usize,
    tenants: usize,
}

impl ForestService {
    /// Spawns the worker pool and builds one [`SpatialForest`] per
    /// tenant tree, sharded round-robin across workers.
    ///
    /// # Panics
    /// Panics when `opts.workers == 0` or any option is degenerate.
    pub fn start(trees: &[Tree], opts: ServiceOptions) -> Self {
        Self::start_inner(trees, opts, None)
    }

    /// [`ForestService::start`] with durable tenants: each tenant whose
    /// snapshot exists under `dur.dir` is **recovered** from it (plus
    /// the committed prefix of its journal) instead of built from its
    /// tree; every tenant then journals its mutations session by
    /// session and re-checkpoints every `dur.checkpoint_interval`
    /// committed sessions — incrementally, patching only the dirty
    /// slab extents, when the on-disk base still matches. Recovery is
    /// **lazy** and **mapped**: a tenant is opened on its
    /// shard's thread at its first job, zero-copy over the mmap'd
    /// snapshot, so restarting a large fleet pays only for the tenants
    /// that actually receive traffic. Pass the same `trees`,
    /// `opts.forest`, and `opts.seed` across restarts — they are the
    /// non-persisted half of the tenant identity.
    pub fn start_durable(trees: &[Tree], opts: ServiceOptions, dur: DurabilityOptions) -> Self {
        std::fs::create_dir_all(&dur.dir).expect("create durability directory");
        Self::start_inner(trees, opts, Some(dur))
    }

    fn start_inner(trees: &[Tree], opts: ServiceOptions, dur: Option<DurabilityOptions>) -> Self {
        assert!(opts.workers >= 1, "need at least one worker");
        assert!(opts.queue_capacity >= 1, "need a non-empty queue");
        let mut per_shard: Vec<Vec<TenantSlot>> = (0..opts.workers).map(|_| Vec::new()).collect();
        for (t, tree) in trees.iter().enumerate() {
            let tenant = t as u32;
            per_shard[t % opts.workers].push(match &dur {
                // Durable tenants recover lazily, on their shard's
                // thread, at first job.
                Some(_) => TenantSlot::Lazy {
                    tenant,
                    tree: tree.clone(),
                },
                None => TenantSlot::Ready(Box::new(TenantState {
                    tenant,
                    forest: SpatialForest::with_options(tree, opts.forest),
                    rng: StdRng::seed_from_u64(tenant_seed(opts.seed, tenant)),
                    reports: Vec::new(),
                    streams: Vec::new(),
                    durable: None,
                })),
            });
        }
        let mut txs = Vec::with_capacity(opts.workers);
        let mut handles = Vec::with_capacity(opts.workers);
        for (shard, slots) in per_shard.into_iter().enumerate() {
            let (tx, rx) = bounded::<Job>(opts.queue_capacity);
            let dur = dur.clone();
            handles.push(std::thread::spawn(move || {
                worker_loop(shard, rx, slots, opts, dur)
            }));
            txs.push(tx);
        }
        ForestService {
            txs,
            handles,
            workers: opts.workers,
            tenants: trees.len(),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of tenants.
    pub fn tenants(&self) -> usize {
        self.tenants
    }

    /// Enqueues a request stream for a tenant and returns a [`Ticket`]
    /// for its responses. Blocks while the owning shard's queue is
    /// full (backpressure).
    ///
    /// A tenant's requests execute in submission order as long as each
    /// tenant is driven from one thread at a time.
    ///
    /// Submitting to a shard whose worker has died does not block and
    /// does not panic: the returned ticket reports
    /// [`ServeError::WorkerLost`] from [`Ticket::wait`].
    ///
    /// # Panics
    /// Panics when the tenant id is out of range.
    pub fn submit(&self, tenant: u32, requests: &[Request]) -> Ticket {
        assert!((tenant as usize) < self.tenants, "unknown tenant {tenant}");
        let shard = tenant as usize % self.workers;
        let (reply, rx) = bounded::<Vec<Response>>(1);
        let job = Job {
            tenant,
            requests: requests.to_vec(),
            reply,
        };
        // A dead worker's queue is disconnected; the failed send drops
        // `job` — and with it the only reply sender — right here, so
        // the ticket's recv disconnects instead of hanging.
        let _ = self.txs[shard].send(job);
        Ticket { rx, shard }
    }

    /// Disconnects the queues, waits for every worker to drain and
    /// exit, and returns the per-shard reports. Every ticket submitted
    /// before this call is answered first (or, on a shard whose worker
    /// died, reports [`ServeError::WorkerLost`]). A dead worker does
    /// not panic the shutdown: its shard comes back as a poisoned
    /// placeholder report ([`ShardReport::poisoned`]).
    pub fn shutdown(mut self) -> ServiceReport {
        self.txs.clear();
        let shards = self
            .handles
            .drain(..)
            .enumerate()
            .map(|(shard, h)| h.join().unwrap_or_else(|_| ShardReport::lost(shard)))
            .collect();
        ServiceReport { shards }
    }
}

impl Drop for ForestService {
    fn drop(&mut self) {
        // A dropped (not shut down) service still drains and joins so
        // no worker outlives the handle; reports are discarded.
        self.txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The shard worker: blockingly pops one job, opportunistically drains
/// more up to the coalesce target, executes one charge-batched session
/// per tenant present, then replies per job. A durable tenant's slot
/// is materialized (recovered from its snapshot + journal, warmstarted)
/// the first time a job names it. Every tenant's session runs on the
/// worker's one [`SessionScratch`]: a worker runs one session at a
/// time, so its tenants share one set of engine run buffers.
fn worker_loop(
    shard: usize,
    rx: Receiver<Job>,
    mut slots: Vec<TenantSlot>,
    opts: ServiceOptions,
    dur: Option<DurabilityOptions>,
) -> ShardReport {
    let coalesce_target = opts.coalesce_target;
    let record = opts.record_streams;
    let mut jobs_total = 0u64;
    let mut requests_total = 0u64;
    let mut executes = 0u64;
    let mut busy = Duration::ZERO;
    // Retained cycle scratch: the drained jobs, the distinct tenants
    // of the cycle, the concatenated per-tenant request stream, and the
    // run buffers every tenant's engines borrow.
    let mut jobs: Vec<Job> = Vec::new();
    let mut cycle_tenants: Vec<u32> = Vec::new();
    let mut stream: Vec<Request> = Vec::new();
    let mut responses: Vec<Response> = Vec::new();
    let mut scratch = SessionScratch::new();

    while let Ok(first) = rx.recv() {
        let t0 = thread_clock::now();
        jobs.clear();
        let mut pending = first.requests.len();
        jobs.push(first);
        // Coalesce: drain without blocking while below the target.
        while pending < coalesce_target {
            match rx.try_recv() {
                Ok(job) => {
                    pending += job.requests.len();
                    jobs.push(job);
                }
                Err(_) => break,
            }
        }
        // One charged session per distinct tenant, preserving each
        // tenant's arrival order (the drain above is FIFO).
        cycle_tenants.clear();
        for job in &jobs {
            if !cycle_tenants.contains(&job.tenant) {
                cycle_tenants.push(job.tenant);
            }
        }
        for &tenant in &cycle_tenants {
            stream.clear();
            for job in jobs.iter().filter(|j| j.tenant == tenant) {
                stream.extend_from_slice(&job.requests);
            }
            // Tenant t is sharded to worker t % workers, as the shard's
            // (t / workers)-th slot.
            let slot = &mut slots[tenant as usize / opts.workers];
            debug_assert_eq!(slot.tenant(), tenant, "slot of the tenant");
            if let TenantSlot::Lazy { tenant, tree } = slot {
                let dur = dur.as_ref().expect("lazy slots are durable");
                *slot = TenantSlot::Ready(Box::new(start_tenant_durable(
                    *tenant,
                    tree,
                    &opts,
                    dur,
                    &mut scratch,
                )));
            }
            let state = match slot {
                TenantSlot::Ready(state) => state,
                TenantSlot::Lazy { .. } => unreachable!("materialized above"),
            };
            responses.clear();
            responses.extend_from_slice(state.forest.execute_with(
                &mut scratch,
                &stream,
                &mut state.rng,
            ));
            state.reports.push(state.forest.last_report());
            if record {
                state.streams.push(stream.clone());
            }
            // Durable tenants commit (marker + fsync, maybe a
            // checkpoint) *before* replying: an answered ticket is
            // always a recoverable session.
            commit_session(state);
            // Slice the session's responses back out per job.
            let mut off = 0usize;
            for job in jobs.iter().filter(|j| j.tenant == tenant) {
                let len = job.requests.len();
                // A dropped ticket is fine — the work is already done.
                let _ = job.reply.send(responses[off..off + len].to_vec());
                off += len;
            }
            executes += 1;
        }
        jobs_total += jobs.len() as u64;
        requests_total += pending as u64;
        busy += thread_clock::now().saturating_sub(t0);
    }

    ShardReport {
        shard,
        jobs: jobs_total,
        requests: requests_total,
        executes,
        busy,
        poisoned: false,
        tenants: slots
            .into_iter()
            .map(|slot| match slot {
                TenantSlot::Ready(s) => TenantLog {
                    tenant: s.tenant,
                    reports: s.reports,
                    streams: s.streams,
                },
                // Never materialized: no job ever named this tenant.
                TenantSlot::Lazy { tenant, .. } => TenantLog {
                    tenant,
                    reports: Vec::new(),
                    streams: Vec::new(),
                },
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_session::QueryBatch;
    use spatial_tree::generators;

    fn trees(n_tenants: usize, n: u32, seed: u64) -> Vec<Tree> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_tenants)
            .map(|_| generators::uniform_random(n, &mut rng))
            .collect()
    }

    #[test]
    fn answers_match_a_direct_forest() {
        let ts = trees(3, 150, 11);
        let opts = ServiceOptions::new(2);
        let service = ForestService::start(&ts, opts);
        let mut batch = QueryBatch::new();
        batch.lca(3, 77).subtree_sum(0).rank(42).insert_leaf(5);
        let tickets: Vec<_> = (0..3u32)
            .map(|t| service.submit(t, batch.requests()))
            .collect();
        let answers: Vec<_> = tickets
            .into_iter()
            .map(|t| t.wait().expect("answered"))
            .collect();
        let report = service.shutdown();
        assert!(report.poisoned_shards().is_empty());

        for (t, tree) in ts.iter().enumerate() {
            let mut forest = SpatialForest::with_options(tree, opts.forest);
            let mut rng = StdRng::seed_from_u64(tenant_seed(opts.seed, t as u32));
            let want = forest.execute(batch.requests(), &mut rng).to_vec();
            assert_eq!(answers[t], want, "tenant {t}");
            let log = report.tenant_log(t as u32).expect("tenant served");
            assert_eq!(log.reports, vec![forest.last_report()], "tenant {t}");
        }
        assert_eq!(report.total_jobs(), 3);
        assert_eq!(report.total_requests(), 12);
    }

    #[test]
    fn coalesces_queued_jobs_into_fewer_sessions() {
        let ts = trees(1, 200, 5);
        let mut opts = ServiceOptions::new(1);
        opts.queue_capacity = 64;
        opts.coalesce_target = 1_000;
        let service = ForestService::start(&ts, opts);
        // A bulky first job keeps the worker busy while the pile of
        // small jobs below queues up behind it.
        let mut big = QueryBatch::new();
        for v in 0..180u32 {
            big.lca(v, (v * 7) % 200).subtree_sum(v).rank(v);
        }
        let head = service.submit(0, big.requests());
        let mut batch = QueryBatch::new();
        batch.lca(1, 2).subtree_sum(3);
        // The worker picks up whatever has accumulated by the time it
        // wakes and sessions it together.
        let tickets: Vec<_> = (0..32)
            .map(|_| service.submit(0, batch.requests()))
            .collect();
        assert_eq!(head.wait().expect("answered").len(), 540);
        for t in tickets {
            assert_eq!(t.wait().expect("answered").len(), 2);
        }
        let report = service.shutdown();
        assert_eq!(report.total_jobs(), 33);
        assert!(
            report.total_executes() < 32,
            "expected coalescing, got {} sessions for 32 jobs",
            report.total_executes()
        );
    }

    #[test]
    fn per_tenant_order_is_preserved_across_inserts() {
        let ts = trees(2, 100, 9);
        let service = ForestService::start(&ts, ServiceOptions::new(2));
        // Two inserts then a query that can only see both.
        let mut b1 = QueryBatch::new();
        b1.insert_leaf(0).insert_leaf(0);
        let mut b2 = QueryBatch::new();
        b2.subtree_sum(0);
        let t1 = service.submit(1, b1.requests());
        let t2 = service.submit(1, b2.requests());
        assert_eq!(
            t1.wait().expect("answered"),
            vec![Response::InsertedLeaf(100), Response::InsertedLeaf(101)]
        );
        assert_eq!(
            t2.wait().expect("answered"),
            vec![Response::SubtreeSum(102)]
        );
        service.shutdown();
    }

    #[test]
    fn backpressure_blocks_then_completes() {
        let ts = trees(1, 64, 3);
        let mut opts = ServiceOptions::new(1);
        opts.queue_capacity = 2;
        let service = ForestService::start(&ts, opts);
        let mut batch = QueryBatch::new();
        batch.lca(0, 1);
        // More jobs than queue slots: submit blocks transiently but
        // every job completes.
        let tickets: Vec<_> = (0..16)
            .map(|_| service.submit(0, batch.requests()))
            .collect();
        assert_eq!(tickets.len(), 16);
        for t in tickets {
            assert_eq!(t.wait().expect("answered").len(), 1);
        }
        service.shutdown();
    }

    #[test]
    fn record_streams_reproduce_the_run() {
        let ts = trees(2, 120, 21);
        let mut opts = ServiceOptions::new(2);
        opts.record_streams = true;
        let service = ForestService::start(&ts, opts);
        let mut batch = QueryBatch::new();
        batch.insert_leaf(3).lca(2, 9).subtree_sum(1);
        let tickets: Vec<_> = (0..2u32)
            .flat_map(|t| (0..3).map(move |_| t))
            .map(|t| service.submit(t, batch.requests()))
            .collect();
        let answers: Vec<_> = tickets
            .into_iter()
            .map(|t| t.wait().expect("answered"))
            .collect();
        let report = service.shutdown();

        for tenant in 0..2u32 {
            let log = report.tenant_log(tenant).expect("served");
            // Twin: replay the recorded streams on a fresh forest.
            let mut twin = SpatialForest::with_options(&ts[tenant as usize], opts.forest);
            let mut rng = StdRng::seed_from_u64(tenant_seed(opts.seed, tenant));
            let mut twin_answers = Vec::new();
            let mut twin_reports = Vec::new();
            for stream in &log.streams {
                twin_answers.extend_from_slice(twin.execute(stream, &mut rng));
                twin_reports.push(twin.last_report());
            }
            let service_answers: Vec<Response> = answers
                .iter()
                .enumerate()
                .filter(|(i, _)| (*i as u32) / 3 == tenant)
                .flat_map(|(_, a)| a.iter().copied())
                .collect();
            assert_eq!(twin_answers, service_answers, "tenant {tenant}");
            assert_eq!(twin_reports, log.reports, "tenant {tenant}");
        }
    }
}
