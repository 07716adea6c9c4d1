//! The three workloads. `read_mix` drives one `SpatialForest`
//! directly; `durable_ingest` and `tenant_fanout` drive a
//! `ForestService` (one worker) from one client thread in a closed
//! loop: a fixed window of jobs outstanding, the next submitted as
//! soon as the oldest is answered.

use crate::gauge::{Gauge, GAUGE_REF_S};
use crate::gen::{self, JobGen};
use crate::mirror::Trace;
use crate::oracle::Oracle;
use crate::replay::Replayer;
use crate::{median, ms_since, p99, peak_rss_mb, slowdown, Metric, Outcome, Window};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spatial_serve::{
    tenant_seed, DurabilityOptions, ForestService, ServeError, ServiceOptions, ServiceReport,
};
use spatial_session::{ForestOptions, Request, Response, SessionReport, SpatialForest};
use spatial_tree::Tree;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["read_mix", "durable_ingest", "tenant_fanout"];

/// Vertices of the `read_mix` tree.
pub const READ_MIX_N: u32 = 1 << 16;
/// Requests per `read_mix` batch.
pub const READ_MIX_BATCH: usize = 256;
/// Distinct `read_mix` batches per run. The window cycles through
/// them; the charge metrics cover exactly the first pass, so they
/// repeat exactly for a seed whatever the machine's speed.
pub const READ_MIX_POOL: usize = 32;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Jobs per tenant that the untimed durable prologue commits, each as
/// its own session: fewer than a checkpoint interval, so every journal
/// is non-empty at the restart `setup_s` measures.
pub const PROLOGUE_JOBS: usize = 3;
/// Most jobs a traced run replays through the mirror.
pub const REPLAY_CAP: usize = 512;
/// Wall seconds of load in a slice of a service window; the client
/// then drains the window and runs a gauge pass.
pub const SLICE_S: f64 = 0.5;

/// The shape of a service workload.
#[derive(Debug, Clone, Copy)]
pub struct ServiceShape {
    /// Tenant forests.
    pub tenants: usize,
    /// Vertices per tenant tree.
    pub n: u32,
    /// Jobs kept outstanding.
    pub window: usize,
    /// Requests per job.
    pub job_len: usize,
    /// Leaf inserts per job.
    pub inserts: usize,
    /// Whether tenants are durable (`start_durable`).
    pub durable: bool,
}

/// Writes next to reads on durable tenants.
pub const DURABLE_INGEST: ServiceShape = ServiceShape {
    tenants: 16,
    n: 1 << 12,
    window: 8,
    job_len: 32,
    inserts: 2,
    durable: true,
};

/// Many small in-memory tenants, read-only.
pub const TENANT_FANOUT: ServiceShape = ServiceShape {
    tenants: 256,
    n: 1 << 10,
    window: 16,
    job_len: 16,
    inserts: 0,
    durable: false,
};

/// Runs a workload by name; `None` for an unknown name. `data` is a
/// scratch directory the run may fill.
pub fn run(workload: &str, seed: u64, seconds: f64, data: &Path, traced: bool) -> Option<Outcome> {
    Some(match workload {
        "read_mix" => read_mix(seed, seconds, data, traced),
        "durable_ingest" => service(&DURABLE_INGEST, seed, seconds, data, traced),
        "tenant_fanout" => service(&TENANT_FANOUT, seed, seconds, data, traced),
        _ => return None,
    })
}

/// Counts a job's answers into `out`: an error fails every request of
/// the job, otherwise each answer that differs from `want` fails.
fn tally(out: &mut Outcome, want: &[Response], got: &Result<Vec<Response>, ServeError>) {
    out.attempted += want.len() as u64;
    out.failed += match got {
        Err(_) => want.len() as u64,
        Ok(got) => {
            let wrong = want.iter().zip(got).filter(|(w, g)| w != g).count();
            (wrong + want.len().abs_diff(got.len())) as u64
        }
    };
}

/// The charge metrics' numerator and denominators over a run's reports.
#[derive(Debug, Default, Clone, Copy)]
struct Charges {
    energy: u64,
    depth: u64,
    sessions: u64,
    requests: u64,
}

impl Charges {
    fn add(&mut self, r: &SessionReport) {
        let paging = r.paging.map(|p| p.charge).unwrap_or_default();
        self.energy += r.grid.energy + r.ranking.energy + paging.energy;
        self.depth += r.grid.depth + r.ranking.depth + paging.depth;
        self.sessions += r.sessions as u64;
        self.requests += (r.lca_queries + r.sum_queries + r.rank_queries + r.inserts) as u64;
    }
}

/// Set-up times with a gauge pass after each.
#[derive(Debug, Default)]
struct Setups {
    wall_s: Vec<f64>,
    gauge_s: Vec<f64>,
}

impl Setups {
    fn push(&mut self, wall_s: f64, gauge: &mut Gauge) {
        self.wall_s.push(wall_s);
        self.gauge_s.push(gauge.time());
    }

    /// The median set-up, each scaled to the reference host speed by
    /// the gauge pass that followed it.
    fn seconds(&self) -> f64 {
        let scaled: Vec<f64> = (self.wall_s.iter().zip(&self.gauge_s))
            .map(|(wall, gauge)| wall * GAUGE_REF_S / gauge)
            .collect();
        median(&scaled)
    }
}

/// Calls `step` for `seconds`, and at least `min_calls` times, with a
/// gauge pass before the first call and after each: every call is a
/// slice of its own.
/// `step` gets the call's index from 0 and returns the requests it
/// answered; each call is one latency sample.
fn timed_calls(
    seconds: f64,
    min_calls: usize,
    gauge: &mut Gauge,
    mut step: impl FnMut(usize) -> u64,
) -> Window {
    let mut window = Window::opened(gauge.time());
    let t0 = Instant::now();
    let mut i = 0;
    while i < min_calls || t0.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        window.requests += step(i);
        let call_s = t.elapsed().as_secs_f64();
        window.latency_ms.push(call_s * 1e3);
        window.close(call_s, gauge.time());
        i += 1;
    }
    window
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(window: &Window, setups: &Setups, rss_mb: f64, charges: Charges) -> Vec<Metric> {
    let (rate, p50, p90) = window.stats();
    vec![
        Metric::new("throughput_rps", rate, "1/s"),
        Metric::new("latency_p50_ms", p50, "ms"),
        Metric::new("latency_p90_ms", p90, "ms"),
        Metric::new("setup_s", setups.seconds(), "s"),
        Metric::new("peak_rss_mb", rss_mb, "MB"),
        Metric::new(
            "energy_per_req",
            charges.energy as f64 / charges.requests.max(1) as f64,
            "energy/req",
        ),
        Metric::new(
            "depth_per_session",
            charges.depth as f64 / charges.sessions.max(1) as f64,
            "depth/session",
        ),
    ]
}

/// Sample count, the window's mean host slowdown against the gauge's
/// reference, its throughput as measured and, from 1000 samples on,
/// the 99th percentile of the whole window at the reference speed.
fn window_info(window: &Window) -> Vec<Metric> {
    let mut info = vec![
        Metric::new("latency_samples", window.latency_ms.len() as f64, "count"),
        Metric::new("host_slowdown", slowdown(&window.gauge_s), "x"),
        Metric::new(
            "wall_throughput_rps",
            window.requests as f64 / window.wall_s.max(f64::MIN_POSITIVE),
            "1/s",
        ),
    ];
    if let Some(p) = p99(&window.latency_ms) {
        info.push(Metric::new("latency_p99_ms", p, "ms"));
    }
    info
}

/// `read_mix`: one forest, read-only batches, one thread.
fn read_mix(seed: u64, seconds: f64, data: &Path, traced: bool) -> Outcome {
    let tree = gen::trees(1, READ_MIX_N, seed).remove(0);
    let mut jobs = JobGen::new(seed, 1, READ_MIX_N, READ_MIX_BATCH, 0);
    let batches: Vec<Vec<Request>> = (0..READ_MIX_POOL).map(|_| jobs.job(0)).collect();
    let mut oracle = Oracle::new(&tree);
    let expected: Vec<Vec<Response>> = batches
        .iter()
        .map(|b| b.iter().map(|&r| oracle.answer(r)).collect())
        .collect();
    let session_seed = gen::sub_seed(seed, 3);
    let mut gauge = Gauge::new();
    if traced {
        return read_mix_traced(
            &tree,
            &batches,
            &expected,
            session_seed,
            seconds,
            data,
            &mut gauge,
        );
    }

    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        drop(live.take());
        let mut rng = StdRng::seed_from_u64(session_seed);
        let t = Instant::now();
        let mut forest = SpatialForest::with_options(&tree, ForestOptions::default());
        let first = forest.execute(&batches[0], &mut rng);
        let wall_s = t.elapsed().as_secs_f64();
        tally(&mut out, &expected[0], &Ok(first.to_vec()));
        setups.push(wall_s, &mut gauge);
        live = Some((forest, rng));
    }
    let (mut forest, mut rng) = live.expect("at least one set-up");

    let mut answers = Vec::new();
    let mut charges = Charges::default();
    let window = timed_calls(seconds, READ_MIX_POOL, &mut gauge, |i| {
        let b = (i + 1) % READ_MIX_POOL;
        let got = forest.execute(&batches[b], &mut rng).to_vec();
        if i < READ_MIX_POOL {
            charges.add(&forest.last_report());
        }
        let requests = got.len() as u64;
        answers.push((b, got));
        requests
    });
    let rss_mb = peak_rss_mb();

    for (b, got) in answers {
        tally(&mut out, &expected[b], &Ok(got));
    }
    out.metrics = end_to_end(&window, &setups, rss_mb, charges);
    out.info = window_info(&window);
    out
}

/// Traced `read_mix`: the same batches through a replayer (forest +
/// mirror + commit path), and the batch pool once through a
/// one-tenant service for the serve layer's share.
fn read_mix_traced(
    tree: &Tree,
    batches: &[Vec<Request>],
    expected: &[Vec<Response>],
    session_seed: u64,
    seconds: f64,
    data: &Path,
    gauge: &mut Gauge,
) -> Outcome {
    let mut out = Outcome::default();
    let mut trace = Trace::default();
    let dir = fresh_dir(data.join("replay"));
    let rng = StdRng::seed_from_u64(session_seed);
    let mut replayer = Replayer::new(0, tree, rng, &dir, &mut trace);
    let first = replayer.run(&batches[0], &mut trace);
    tally(&mut out, &expected[0], &Ok(first));

    let mut pool = batches.iter().cycle().skip(1).take(batches.len());
    let serve = serve_probe(std::slice::from_ref(tree), ServiceOptions::new(1), || {
        pool.next().map(|b| (0, b.clone()))
    });
    for (done, want) in serve.done.iter().zip(expected.iter().cycle().skip(1)) {
        tally(&mut out, want, &done.answers);
    }

    let window = timed_calls(seconds, batches.len(), gauge, |i| {
        let b = (i + 1) % batches.len();
        let got = replayer.run(&batches[b], &mut trace);
        let requests = got.len() as u64;
        tally(&mut out, &expected[b], &Ok(got));
        requests
    });
    let (throughput, _, _) = window.stats();
    finish_replay(&mut out, &mut trace, vec![replayer]);
    let sessions_per_req = trace.sessions as f64 / trace.requests as f64;
    out.metrics = layer_metrics(&trace, &serve, sessions_per_req, throughput);
    out
}

/// One answered (or failed) job of a closed loop.
#[derive(Debug)]
struct Done {
    tenant: u32,
    requests: Vec<Request>,
    answers: Result<Vec<Response>, ServeError>,
    latency_ms: f64,
}

/// What the client saw of a service: every job, the client-side
/// spans, and the shutdown report.
struct ServeRun {
    done: Vec<Done>,
    /// The closed loop's timed window.
    window: Window,
    submit_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    /// Start until every tenant had answered once, per set-up.
    setups: Setups,
    report: ServiceReport,
    /// Start to shutdown of the measured service.
    lifetime_s: f64,
    rss_mb: f64,
}

/// Keeps `window` jobs outstanding until `seconds` have passed or
/// `next` runs dry, then drains. Jobs complete in submission order:
/// the client always waits on the oldest ticket.
///
/// With a gauge, a pass opens the window and the load comes in slices
/// of [`SLICE_S`]: the client stops submitting, drains, runs a gauge
/// pass and fills the window again. The jobs that fill it find fewer
/// jobs ahead than a full window holds, so only the later ones are
/// latency samples.
fn closed_loop(
    service: &ForestService,
    window: usize,
    seconds: f64,
    mut next: impl FnMut() -> Option<(u32, Vec<Request>)>,
    mut gauge: Option<&mut Gauge>,
    run: &mut ServeRun,
) {
    if let Some(gauge) = gauge.as_deref_mut() {
        run.window = Window::opened(gauge.time());
    }
    let mut outstanding = VecDeque::with_capacity(window);
    let t0 = Instant::now();
    let mut slice = Instant::now();
    let mut filling = window;
    loop {
        let pause = gauge.is_some() && slice.elapsed().as_secs_f64() >= SLICE_S;
        while !pause && outstanding.len() < window && t0.elapsed().as_secs_f64() < seconds {
            let Some((tenant, requests)) = next() else {
                break;
            };
            let t = Instant::now();
            let ticket = service.submit(tenant, &requests);
            run.submit_ms.push(ms_since(t));
            outstanding.push_back((t, tenant, requests, ticket, filling == 0));
            filling = filling.saturating_sub(1);
        }
        if let Some((t, tenant, requests, ticket, sample)) = outstanding.pop_front() {
            let w = Instant::now();
            let answers = ticket.wait();
            run.wait_ms.push(ms_since(w));
            let latency_ms = ms_since(t);
            run.window.requests += answers.as_ref().map_or(0, |a| a.len() as u64);
            if sample {
                run.window.latency_ms.push(latency_ms);
            }
            run.done.push(Done {
                tenant,
                requests,
                answers,
                latency_ms,
            });
            continue;
        }
        let slice_s = slice.elapsed().as_secs_f64();
        let Some(gauge) = gauge.as_deref_mut() else {
            break;
        };
        run.window.close(slice_s, gauge.time());
        if !pause || t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        slice = Instant::now();
        filling = window;
    }
}

/// A one-tenant service fed `next`'s jobs one at a time: the serve
/// layer's cost over a stream the workload itself runs directly.
fn serve_probe(
    trees: &[Tree],
    opts: ServiceOptions,
    next: impl FnMut() -> Option<(u32, Vec<Request>)>,
) -> ServeRun {
    let started = Instant::now();
    let service = ForestService::start(trees, opts);
    let start_s = started.elapsed().as_secs_f64();
    let mut run = empty_run();
    closed_loop(&service, 1, f64::INFINITY, next, None, &mut run);
    let first_ms = run.done.first().map_or(0.0, |d| d.latency_ms);
    run.setups.wall_s.push(start_s + first_ms / 1e3);
    run.report = service.shutdown();
    run.lifetime_s = started.elapsed().as_secs_f64();
    run
}

fn empty_run() -> ServeRun {
    ServeRun {
        done: Vec::new(),
        window: Window::default(),
        submit_ms: Vec::new(),
        wait_ms: Vec::new(),
        setups: Setups::default(),
        report: ServiceReport { shards: Vec::new() },
        lifetime_s: 0.0,
        rss_mb: 0.0,
    }
}

fn start(trees: &[Tree], opts: ServiceOptions, shape: &ServiceShape, dir: &Path) -> ForestService {
    if shape.durable {
        ForestService::start_durable(trees, opts, DurabilityOptions::new(dir))
    } else {
        ForestService::start(trees, opts)
    }
}

/// An empty directory at `path`: durable state left by an earlier run
/// would be recovered instead of the seed's trees.
fn fresh_dir(path: PathBuf) -> PathBuf {
    if path.exists() {
        std::fs::remove_dir_all(&path).expect("clear data directory");
    }
    std::fs::create_dir_all(&path).expect("create data directory");
    path
}

fn copy_dir(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).expect("list template directory") {
        let entry = entry.expect("template directory entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy template file");
    }
}

/// A service workload: untimed prologue (durable only), `SETUP_REPS`
/// set-ups, then the closed-loop window; traced runs replay every job
/// through the mirror afterwards.
fn service(shape: &ServiceShape, seed: u64, seconds: f64, data: &Path, traced: bool) -> Outcome {
    let trees = gen::trees(shape.tenants, shape.n, seed);
    let mut jobs = JobGen::new(seed, shape.tenants, shape.n, shape.job_len, shape.inserts);
    let mut oracles: Vec<Oracle> = trees.iter().map(Oracle::new).collect();
    let opts = ServiceOptions {
        seed: gen::sub_seed(seed, 3),
        ..ServiceOptions::new(1)
    };
    let mut out = Outcome::default();
    // Every job the tenants saw, in order, with its checked answers:
    // the traced replay's input.
    let mut history: Vec<(u32, Vec<Request>, Vec<Response>)> = Vec::new();

    let template = fresh_dir(data.join("template"));
    if shape.durable {
        let service = start(&trees, opts, shape, &template);
        for tenant in 0..shape.tenants as u32 {
            for _ in 0..PROLOGUE_JOBS {
                let job = jobs.job(tenant);
                let got = service.submit(tenant, &job).wait();
                let want: Vec<Response> = job
                    .iter()
                    .map(|&r| oracles[tenant as usize].answer(r))
                    .collect();
                tally(&mut out, &want, &got);
                history.push((tenant, job, want));
            }
        }
        if !service.shutdown().poisoned_shards().is_empty() {
            out.failed += 1;
        }
    }

    let warm: Vec<(u32, Vec<Request>)> = (0..shape.tenants as u32)
        .map(|t| (t, jobs.read_job(t)))
        .collect();
    for (tenant, job) in &warm {
        let oracle = &mut oracles[*tenant as usize];
        let want = job.iter().map(|&r| oracle.answer(r)).collect();
        history.push((*tenant, job.clone(), want));
    }

    let mut gauge = Gauge::new();
    let mut run = empty_run();
    let mut live: Option<(ForestService, Instant)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((service, _)) = live.take() {
            service.shutdown();
        }
        let dir = fresh_dir(data.join(format!("setup-{rep}")));
        if shape.durable {
            copy_dir(&template, &dir);
        }
        let started = Instant::now();
        let service = start(&trees, opts, shape, &dir);
        let tickets: Vec<_> = warm
            .iter()
            .map(|(t, job)| service.submit(*t, job))
            .collect();
        let answers: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        let wall_s = started.elapsed().as_secs_f64();
        let want = &history[history.len() - warm.len()..];
        for ((_, _, want), got) in want.iter().zip(&answers) {
            tally(&mut out, want, got);
        }
        run.setups.push(wall_s, &mut gauge);
        live = Some((service, started));
    }
    let (service, started) = live.expect("at least one set-up");

    closed_loop(
        &service,
        shape.window,
        seconds,
        || Some(jobs.next_job()),
        Some(&mut gauge),
        &mut run,
    );
    run.rss_mb = peak_rss_mb();
    run.report = service.shutdown();
    run.lifetime_s = started.elapsed().as_secs_f64();
    if !run.report.poisoned_shards().is_empty() {
        out.failed += 1;
    }

    for done in &run.done {
        let oracle = &mut oracles[done.tenant as usize];
        let want: Vec<Response> = done.requests.iter().map(|&r| oracle.answer(r)).collect();
        tally(&mut out, &want, &done.answers);
        history.push((done.tenant, done.requests.clone(), want));
    }

    // The window's sessions: every tenant's first report is its warm
    // set-up job, answered before the window opened.
    let mut charges = Charges::default();
    let mut sessions = 0u64;
    for log in run.report.shards.iter().flat_map(|s| &s.tenants) {
        for report in log.reports.iter().skip(1) {
            charges.add(report);
        }
        sessions += log.reports.iter().map(|r| r.sessions as u64).sum::<u64>();
    }

    if traced {
        let mut trace = Trace::default();
        let dir = fresh_dir(data.join("replay"));
        let mut replayers: Vec<Option<Replayer>> = (0..shape.tenants).map(|_| None).collect();
        for (tenant, job, want) in history.iter().take(REPLAY_CAP) {
            let replayer = replayers[*tenant as usize].get_or_insert_with(|| {
                let rng = StdRng::seed_from_u64(tenant_seed(opts.seed, *tenant));
                Replayer::new(*tenant, &trees[*tenant as usize], rng, &dir, &mut trace)
            });
            let got = replayer.run(job, &mut trace);
            tally(&mut out, want, &Ok(got));
        }
        finish_replay(
            &mut out,
            &mut trace,
            replayers.into_iter().flatten().collect(),
        );
        let sessions_per_req = sessions as f64 / run.report.total_requests() as f64;
        out.metrics = layer_metrics(&trace, &run, sessions_per_req, run.window.stats().0);
    } else {
        out.metrics = end_to_end(&run.window, &run.setups, run.rss_mb, charges);
        out.info = window_info(&run.window);
    }
    out
}

/// Ends a replay: one mutation per tenant, then a recovery from its
/// files that must equal the live forest.
fn finish_replay(out: &mut Outcome, trace: &mut Trace, replayers: Vec<Replayer>) {
    for mut replayer in replayers {
        out.attempted += 2;
        if !replayer.mutate(trace) || !replayer.recover(trace) {
            out.failed += 1;
        }
    }
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
/// `trace.throughput_rps` is the traced run's own throughput; the
/// runner turns it into `trace.overhead_frac` against an untraced run.
fn layer_metrics(
    trace: &Trace,
    serve: &ServeRun,
    sessions_per_req: f64,
    throughput: f64,
) -> Vec<Metric> {
    let report = &serve.report;
    let requests = trace.requests.max(1) as f64;
    let sessions = trace.sessions.max(1) as f64;
    let charges = trace.lca + trace.treefix + trace.rank;
    let serve_requests = report.total_requests().max(1) as f64;
    vec![
        Metric::new("serve.submit_ms", median(&serve.submit_ms), "ms"),
        Metric::new("serve.wait_ms", median(&serve.wait_ms), "ms"),
        Metric::new(
            "serve.jobs_per_execute",
            report.total_jobs() as f64 / report.total_executes().max(1) as f64,
            "count",
        ),
        Metric::new(
            "serve.busy_ms_per_req",
            report.total_busy().as_secs_f64() * 1e3 / serve_requests,
            "ms",
        ),
        Metric::new(
            "serve.busy_frac",
            report.max_shard_busy().as_secs_f64() / serve.lifetime_s,
            "frac",
        ),
        Metric::new(
            "serve.first_reply_ms",
            median(&serve.setups.wall_s) * 1e3,
            "ms",
        ),
        Metric::new("session.execute_ms", trace.median("session.execute"), "ms"),
        Metric::new("session.self_ms", trace.median("session.self"), "ms"),
        Metric::new("session.sessions_per_req", sessions_per_req, "count"),
        Metric::new(
            "session.construct_ms",
            trace.median("session.construct"),
            "ms",
        ),
        Metric::new(
            "session.first_execute_ms",
            trace.median("session.first_execute"),
            "ms",
        ),
        Metric::new("lca.bind_ms", trace.median("lca.bind"), "ms"),
        Metric::new("lca.run_ms", trace.median("lca.run"), "ms"),
        Metric::new(
            "lca.energy",
            trace.lca.energy as f64 / requests,
            "energy/req",
        ),
        Metric::new(
            "lca.depth",
            trace.lca.depth as f64 / sessions,
            "depth/session",
        ),
        Metric::new("treefix.bind_ms", trace.median("treefix.bind"), "ms"),
        Metric::new(
            "treefix.contract_ms",
            trace.median("treefix.contract"),
            "ms",
        ),
        Metric::new(
            "treefix.uncontract_ms",
            trace.median("treefix.uncontract"),
            "ms",
        ),
        Metric::new(
            "treefix.energy",
            trace.treefix.energy as f64 / requests,
            "energy/req",
        ),
        Metric::new(
            "treefix.depth",
            trace.treefix.depth as f64 / sessions,
            "depth/session",
        ),
        Metric::new("euler.tour_ms", trace.median("euler.tour"), "ms"),
        Metric::new("euler.rank_ms", trace.median("euler.rank"), "ms"),
        Metric::new(
            "euler.rank_energy",
            trace.rank.energy as f64 / requests,
            "energy/req",
        ),
        Metric::new(
            "euler.rank_depth",
            trace.rank.depth as f64 / sessions,
            "depth/session",
        ),
        Metric::new("tree.csr_ms", trace.median("tree.csr"), "ms"),
        Metric::new("layout.insert_ms", trace.median("layout.insert"), "ms"),
        Metric::new("layout.rebuild_ms", trace.median("layout.rebuild"), "ms"),
        Metric::new("layout.machine_ms", trace.median("layout.machine"), "ms"),
        Metric::new(
            "layout.rebuilds_per_insert",
            trace.rebuilds as f64 / trace.inserts.max(1) as f64,
            "count",
        ),
        Metric::new(
            "model.messages_per_req",
            charges.messages as f64 / requests,
            "count",
        ),
        Metric::new(
            "model.work_per_req",
            charges.work as f64 / requests,
            "count",
        ),
        Metric::new(
            "store.journal_bytes_per_req",
            trace.journal_bytes as f64 / requests,
            "bytes",
        ),
        Metric::new(
            "store.fsyncs_per_req",
            trace.syncs as f64 / requests,
            "count",
        ),
        Metric::new("store.sync_ms", trace.median("store.sync"), "ms"),
        Metric::new(
            "store.checkpoint_ms",
            trace.median("store.checkpoint"),
            "ms",
        ),
        Metric::new(
            "store.checkpoint_bytes",
            median(&trace.checkpoint_bytes),
            "bytes",
        ),
        Metric::new("store.recover_ms", trace.median("store.recover"), "ms"),
        Metric::new("trace.throughput_rps", throughput, "1/s"),
    ]
}
