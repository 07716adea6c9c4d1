//! The traced replay of one tenant: a `SpatialForest` executing the
//! tenant's jobs one per execute, the engine mirror in lock step, and
//! the durable commit path the serve layer runs after each session
//! (journal marker + fsync, a checkpoint every
//! [`CHECKPOINT_INTERVAL`] sessions), each store call timed.

use crate::mirror::{Mirror, Trace};
use crate::ms_since;
use rand::rngs::StdRng;
use spatial_session::{ForestOptions, Request, Response, SpatialForest};
use spatial_store::{read_journal, JournalWriter, MappedSnapshot, Record};
use spatial_tree::{NodeId, Tree};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Committed sessions between checkpoints, as the serve layer's
/// default `DurabilityOptions`.
pub const CHECKPOINT_INTERVAL: u64 = 8;

/// One tenant's forest, mirror and durable files.
pub struct Replayer {
    tenant: u32,
    root: NodeId,
    forest: SpatialForest,
    rng: StdRng,
    mirror: Mirror,
    dir: PathBuf,
    generation: u64,
    since_checkpoint: u64,
    executed: bool,
}

impl Replayer {
    /// A fresh tenant over `tree`, checkpointed at generation 1 under
    /// `dir` with its journal attached.
    pub fn new(tenant: u32, tree: &Tree, rng: StdRng, dir: &Path, trace: &mut Trace) -> Self {
        let opts = ForestOptions::default();
        let t = Instant::now();
        let forest = SpatialForest::with_options(tree, opts);
        trace.span("session.construct", t);
        let mut replayer = Replayer {
            tenant,
            root: tree.root(),
            forest,
            rng,
            mirror: Mirror::new(tree, opts, trace),
            dir: dir.to_path_buf(),
            generation: 0,
            since_checkpoint: 0,
            executed: false,
        };
        replayer.checkpoint(trace);
        replayer
    }

    /// Executes one job on the forest and the mirror, asserts that the
    /// mirror matched the forest's answers, charges, session count and
    /// RNG stream exactly, then commits the session.
    pub fn run(&mut self, requests: &[Request], trace: &mut Trace) -> Vec<Response> {
        let mut mirror_rng = self.rng.clone();
        let t = Instant::now();
        let answers = self.forest.execute(requests, &mut self.rng);
        let execute_ms = ms_since(t);
        let answers = answers.to_vec();
        let name = if self.executed {
            "session.execute"
        } else {
            "session.first_execute"
        };
        trace.spans.entry(name).or_default().push(execute_ms);
        self.executed = true;

        let mirrored = self.mirror.execute(requests, &mut mirror_rng, trace);
        let report = self.forest.last_report();
        assert_eq!(self.mirror.responses(), answers, "mirror answers diverged");
        assert_eq!(mirrored.grid, report.grid, "mirror grid charges diverged");
        assert_eq!(
            mirrored.ranking, report.ranking,
            "mirror ranking charges diverged"
        );
        assert_eq!(
            mirrored.sessions, report.sessions,
            "mirror sessions diverged"
        );
        assert_eq!(
            mirror_rng, self.rng,
            "mirror consumed a different RNG stream"
        );
        trace
            .spans
            .entry("session.self")
            .or_default()
            .push(execute_ms - mirrored.children_ms);

        self.commit(trace);
        answers
    }

    /// A final mutation — one leaf under the root, then an LCA that
    /// needs the light-first order back — so every tenant's recovery
    /// replays a non-empty journal. Returns whether it answered right.
    pub fn mutate(&mut self, trace: &mut Trace) -> bool {
        let v = self.forest.n();
        let job = [
            Request::InsertLeaf {
                parent: self.root,
                weight: 1,
            },
            Request::Lca(v, self.root),
        ];
        self.run(&job, trace) == [Response::InsertedLeaf(v), Response::Lca(self.root)]
    }

    /// Recovers the tenant from its files as a restart would (mapped
    /// snapshot + committed journal prefix) and returns whether the
    /// result equals the live forest.
    pub fn recover(&mut self, trace: &mut Trace) -> bool {
        let journal = self.journal_path(self.generation);
        trace.journal_bytes += file_len(&journal);
        let t = Instant::now();
        let mapped = MappedSnapshot::open(self.snapshot_path()).expect("open replay snapshot");
        let generation = mapped.header().tag;
        let records = read_journal(self.journal_path(generation)).expect("read replay journal");
        let mut recovered = SpatialForest::from_mapped(&Arc::new(mapped), ForestOptions::default());
        let committed = records
            .iter()
            .rposition(|r| matches!(r, Record::RngState(_)))
            .map_or(0, |i| i + 1);
        recovered.apply_journal(&records[..committed]);
        trace.span("store.recover", t);
        generation == self.generation
            && recovered.n() == self.forest.n()
            && recovered.layout().order() == self.forest.layout().order()
    }

    /// The serve layer's session commit: RNG marker, fsync, and a
    /// checkpoint when the interval is due.
    fn commit(&mut self, trace: &mut Trace) {
        let journal = self
            .forest
            .journal_mut()
            .expect("replay forests always journal");
        journal
            .append(Record::RngState(self.rng.state()))
            .expect("append replay journal");
        let t = Instant::now();
        journal.sync().expect("sync replay journal");
        trace.span("store.sync", t);
        trace.syncs += 1;
        self.since_checkpoint += 1;
        if self.since_checkpoint >= CHECKPOINT_INTERVAL {
            self.checkpoint(trace);
        }
    }

    /// The serve layer's checkpoint: next journal generation first,
    /// then the snapshot that names it, then the old journal retires.
    fn checkpoint(&mut self, trace: &mut Trace) {
        let next = self.generation + 1;
        let writer = JournalWriter::create(self.journal_path(next)).expect("create replay journal");
        let t = Instant::now();
        let stats = self
            .forest
            .checkpoint_to(self.snapshot_path(), next)
            .expect("write replay checkpoint");
        trace.span("store.checkpoint", t);
        trace.checkpoint_bytes.push(stats.bytes_written as f64);
        self.forest.detach_journal();
        self.forest.attach_journal(writer);
        if self.generation > 0 {
            let old = self.journal_path(self.generation);
            trace.journal_bytes += file_len(&old);
            std::fs::remove_file(old).expect("retire replay journal");
        }
        self.generation = next;
        self.since_checkpoint = 0;
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join(format!("tenant-{}.snapshot", self.tenant))
    }

    fn journal_path(&self, generation: u64) -> PathBuf {
        self.dir
            .join(format!("tenant-{}.{generation}.journal", self.tenant))
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
