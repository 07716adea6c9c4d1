//! The traced mirror: replays one forest's executes through the same
//! public engine functions `SpatialForest` composes (dynamic layout,
//! structure refresh, batched LCA, treefix contraction, Euler-tour
//! ranking), timing each call from outside. Nothing inside the program
//! is instrumented; the mirror's charges are compared bit for bit with
//! the forest's `SessionReport`, so its per-layer split measures the
//! same work the forest did.

use crate::ms_since;
use rand::Rng;
use spatial_euler::ranking::{RankingEngine, END};
use spatial_euler::tour::{down, EulerTour};
use spatial_layout::DynamicLayout;
use spatial_lca::LcaEngine;
use spatial_model::{CostReport, CurveKind, EngineLifecycle, Machine, Slot};
use spatial_session::{ForestOptions, Request, Response};
use spatial_tree::{ChildrenCsr, NodeId, Tree, NIL};
use spatial_treefix::contraction::ContractionEngine;
use spatial_treefix::Add;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans (per-call durations in ms, by name) and per-layer counters
/// gathered by a traced run.
#[derive(Debug, Default)]
pub struct Trace {
    /// Durations of every recorded call, by span name.
    pub spans: BTreeMap<&'static str, Vec<f64>>,
    /// Grid-machine charges of the LCA runs.
    pub lca: CostReport,
    /// Grid-machine charges of the treefix runs.
    pub treefix: CostReport,
    /// Dart-machine charges of the ranking runs.
    pub rank: CostReport,
    /// Requests mirrored.
    pub requests: u64,
    /// Charge-batched sessions mirrored.
    pub sessions: u64,
    /// Leaf inserts mirrored.
    pub inserts: u64,
    /// Light-first rebuilds (threshold and query-triggered).
    pub rebuilds: u64,
    /// Journal bytes written, counted per retired generation.
    pub journal_bytes: u64,
    /// Journal fsyncs.
    pub syncs: u64,
    /// Bytes written by each checkpoint.
    pub checkpoint_bytes: Vec<f64>,
}

impl Trace {
    /// Records a span that started at `t`; returns its length in ms.
    pub fn span(&mut self, name: &'static str, t: Instant) -> f64 {
        let ms = ms_since(t);
        self.spans.entry(name).or_default().push(ms);
        ms
    }

    /// The median of a span's durations (0 when it never ran).
    pub fn median(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| crate::median(s))
    }
}

/// What one mirrored execute charged, for the fidelity check against
/// the forest's `SessionReport`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mirrored {
    /// Grid-machine charges (LCA + treefix), summed over sessions.
    pub grid: CostReport,
    /// Dart-machine charges (ranking), summed over sessions.
    pub ranking: CostReport,
    /// Charge-batched sessions flushed.
    pub sessions: u32,
    /// Summed duration of the engine, refresh and layout spans.
    pub children_ms: f64,
}

/// One tenant's structure and engines, kept in step with its forest.
pub struct Mirror {
    curve: CurveKind,
    dynamic: DynamicLayout,
    layout_dirty: bool,
    stale: bool,
    tree: Tree,
    slots: Vec<Slot>,
    csr: ChildrenCsr,
    tour_next: Vec<u32>,
    tour_start: u32,
    machine: Machine,
    dart_machine: Machine,
    weights: Vec<Add>,
    lca: Option<LcaEngine>,
    lca_bound: bool,
    treefix: ContractionEngine<Add>,
    ranking: Option<RankingEngine>,
    ranking_bound: bool,
    responses: Vec<Response>,
    lca_q: Vec<(NodeId, NodeId)>,
    lca_idx: Vec<usize>,
    lca_answers: Vec<NodeId>,
    sum_v: Vec<NodeId>,
    sum_idx: Vec<usize>,
    rank_v: Vec<NodeId>,
    rank_idx: Vec<usize>,
}

impl Mirror {
    /// The mirror of `SpatialForest::with_options(tree, opts)`: unit
    /// weights, fresh dynamic layout, engines built on first use.
    pub fn new(tree: &Tree, opts: ForestOptions, trace: &mut Trace) -> Self {
        assert!(tree.n() > 1, "the mirror needs at least one edge");
        let n = tree.n() as usize;
        let placeholder = Tree::from_parents(0, vec![NIL]);
        let mut mirror = Mirror {
            curve: opts.curve,
            dynamic: DynamicLayout::new(tree, opts.curve, opts.rebuild_factor),
            layout_dirty: false,
            stale: true,
            csr: ChildrenCsr::natural(&placeholder),
            tree: placeholder,
            slots: Vec::new(),
            tour_next: Vec::new(),
            tour_start: END,
            machine: Machine::on_curve(opts.curve, 1),
            dart_machine: Machine::on_curve(opts.curve, 1),
            weights: vec![Add(1); n],
            lca: None,
            lca_bound: false,
            treefix: ContractionEngine::with_capacity(n),
            ranking: None,
            ranking_bound: false,
            responses: Vec::new(),
            lca_q: Vec::new(),
            lca_idx: Vec::new(),
            lca_answers: Vec::new(),
            sum_v: Vec::new(),
            sum_idx: Vec::new(),
            rank_v: Vec::new(),
            rank_idx: Vec::new(),
        };
        mirror.refresh(trace);
        mirror
    }

    /// The answers of the last mirrored execute.
    pub fn responses(&self) -> &[Response] {
        &self.responses
    }

    /// Mirrors `SpatialForest::execute`: queries between two inserts
    /// form one session, each kind present runs its engine once, in the
    /// order LCA → subtree sums → ranks. `rng` must be a clone of the
    /// forest's session RNG taken just before its execute.
    pub fn execute<R: Rng>(
        &mut self,
        requests: &[Request],
        rng: &mut R,
        trace: &mut Trace,
    ) -> Mirrored {
        self.machine.reset();
        self.dart_machine.reset();
        self.responses.clear();
        let mut out = Mirrored::default();
        for (i, &req) in requests.iter().enumerate() {
            match req {
                Request::Lca(a, b) => {
                    self.lca_q.push((a, b));
                    self.lca_idx.push(i);
                    self.responses.push(Response::Lca(NIL));
                }
                Request::SubtreeSum(v) => {
                    self.sum_v.push(v);
                    self.sum_idx.push(i);
                    self.responses.push(Response::SubtreeSum(0));
                }
                Request::Rank(v) => {
                    self.rank_v.push(v);
                    self.rank_idx.push(i);
                    self.responses.push(Response::Rank(0));
                }
                Request::InsertLeaf { parent, weight } => {
                    self.flush(rng, trace, &mut out);
                    let rebuilds = self.dynamic.stats().rebuilds;
                    let t = Instant::now();
                    let v = self.dynamic.insert_leaf(parent);
                    out.children_ms += trace.span("layout.insert", t);
                    // An insert leaves the order non-light-first unless
                    // the quality threshold rebuilt it on the spot.
                    let rebuilt = self.dynamic.stats().rebuilds != rebuilds;
                    self.layout_dirty = !rebuilt;
                    trace.inserts += 1;
                    trace.rebuilds += rebuilt as u64;
                    self.weights.push(Add(weight));
                    self.stale = true;
                    self.responses.push(Response::InsertedLeaf(v));
                }
            }
        }
        self.flush(rng, trace, &mut out);
        out.grid = out.grid + self.machine.report();
        out.ranking = out.ranking + self.dart_machine.report();
        trace.requests += requests.len() as u64;
        trace.sessions += out.sessions as u64;
        out
    }

    /// Rebuilds the materialized structure and both machines from the
    /// dynamic layout; returns the time spent.
    fn refresh(&mut self, trace: &mut Trace) -> f64 {
        let t = Instant::now();
        self.tree = self.dynamic.tree();
        self.csr = ChildrenCsr::by_size(&self.tree, &self.tree.subtree_sizes());
        let mut ms = trace.span("tree.csr", t);

        let t = Instant::now();
        let tour = EulerTour::light_first_from_csr(&self.tree, &self.csr);
        self.tour_next.clear();
        self.tour_next.extend_from_slice(tour.next_darts());
        self.tour_start = tour.start();
        ms += trace.span("euler.tour", t);

        let t = Instant::now();
        let n = self.tree.n();
        let layout = self.dynamic.layout();
        self.slots.clear();
        self.slots.extend((0..n).map(|v| layout.slot(v)));
        self.machine = layout.machine();
        self.dart_machine = Machine::on_curve(self.curve, 2 * n);
        ms += trace.span("layout.machine", t);

        self.stale = false;
        self.lca_bound = false;
        self.ranking_bound = false;
        ms
    }

    fn flush<R: Rng>(&mut self, rng: &mut R, trace: &mut Trace, out: &mut Mirrored) {
        if self.lca_q.is_empty() && self.sum_v.is_empty() && self.rank_v.is_empty() {
            return;
        }
        // The batched LCA engine needs a light-first order.
        if !self.lca_q.is_empty() && self.layout_dirty {
            let t = Instant::now();
            self.dynamic.rebuild();
            out.children_ms += trace.span("layout.rebuild", t);
            trace.rebuilds += 1;
            self.layout_dirty = false;
            self.stale = true;
        }
        if self.stale {
            out.grid = out.grid + self.machine.report();
            out.ranking = out.ranking + self.dart_machine.report();
            out.children_ms += self.refresh(trace);
        }
        out.sessions += 1;

        if !self.lca_q.is_empty() {
            if !self.lca_bound {
                let t = Instant::now();
                match &mut self.lca {
                    None => self.lca = Some(LcaEngine::new(self.dynamic.layout(), &self.tree)),
                    Some(engine) => engine.bind(self.dynamic.layout(), &self.tree),
                }
                out.children_ms += trace.span("lca.bind", t);
                self.lca_bound = true;
            }
            let engine = self.lca.as_mut().expect("bound above");
            let before = self.machine.report();
            let t = Instant::now();
            engine.run_into(&self.machine, &self.lca_q, &mut self.lca_answers, rng);
            out.children_ms += trace.span("lca.run", t);
            trace.lca = trace.lca + (self.machine.report() - before);
            for (&i, &w) in self.lca_idx.iter().zip(&self.lca_answers) {
                self.responses[i] = Response::Lca(w);
            }
            self.lca_q.clear();
            self.lca_idx.clear();
        }

        if !self.sum_v.is_empty() {
            let n = self.tree.n() as usize;
            if n > self.treefix.capacity() {
                self.treefix.reserve(n.next_power_of_two());
            }
            let before = self.machine.report();
            let t = Instant::now();
            self.treefix.bind_parts(
                self.tree.parents(),
                &self.slots,
                &self.csr,
                &self.weights,
                true,
            );
            out.children_ms += trace.span("treefix.bind", t);
            let t = Instant::now();
            self.treefix.contract(&self.machine, rng);
            out.children_ms += trace.span("treefix.contract", t);
            let t = Instant::now();
            let sums = self.treefix.uncontract_bottom_up(&self.machine);
            out.children_ms += trace.span("treefix.uncontract", t);
            for (&i, &v) in self.sum_idx.iter().zip(&self.sum_v) {
                self.responses[i] = Response::SubtreeSum(sums[v as usize].0);
            }
            trace.treefix = trace.treefix + (self.machine.report() - before);
            self.sum_v.clear();
            self.sum_idx.clear();
        }

        if !self.rank_v.is_empty() {
            let t = Instant::now();
            match &mut self.ranking {
                None => {
                    self.ranking = Some(RankingEngine::new(&self.tour_next, self.tour_start));
                }
                Some(engine) if !self.ranking_bound => {
                    if self.tour_next.len() > engine.capacity() {
                        engine.reserve(self.tour_next.len().next_power_of_two());
                    }
                    engine.bind(&self.tour_next, self.tour_start);
                }
                Some(_) => {}
            }
            self.ranking_bound = true;
            let engine = self.ranking.as_mut().expect("bound above");
            let before = self.dart_machine.report();
            engine.rank(&self.dart_machine, rng);
            out.children_ms += trace.span("euler.rank", t);
            trace.rank = trace.rank + (self.dart_machine.report() - before);
            let root = self.tree.root();
            for (&i, &v) in self.rank_idx.iter().zip(&self.rank_v) {
                let rank = if v == root {
                    0
                } else {
                    engine.ranks()[down(v) as usize] + 1
                };
                self.responses[i] = Response::Rank(rank);
            }
            self.rank_v.clear();
            self.rank_idx.clear();
        }
    }
}
