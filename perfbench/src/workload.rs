//! The two workloads. Each run builds its world and offline artifacts
//! (exact, as served, and indexed), loads the exact ones through the store
//! into an in-process server (cold start), drives it open-loop, reloads
//! it, runs batches of in-process selections, checks every output, and
//! reports its metrics.
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` gives the
//! per-layer metrics: after the untraced nominal phase it searches the rate
//! ladder for the sustained rate, then replays the nominal phase against a
//! second server with its access log on, and records the benchmark's own
//! spans throughout.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tps_core::ann::{AnnConfig, AnnIndex, AnnMode};
use tps_core::ids::ModelId;
use tps_core::parallel::ParallelConfig;
use tps_core::pipeline::{two_phase_select, OfflineArtifacts, OfflineConfig, PipelineConfig};
use tps_core::recall::RecallConfig;
use tps_core::select::fine::FineSelectionConfig;
use tps_core::select::{brute::brute_force, halving::successive_halving};
use tps_core::telemetry::{Telemetry, TraceReport};
use tps_serve::{ReloadSource, SelectionResult, ServeConfig, ServeStats, ServeSummary, Server};
use tps_store::{ArtifactKind, Store};
use tps_zoo::{SyntheticConfig, World, ZooOracle, ZooTrainer};

use crate::driver::{self, PhaseReport, Status};
use crate::spans::{ProxyTally, TimedOracle, TimedTrainer, Tracer};
use crate::streams::{self, Knobs, Rng};
use crate::{checks, residual, stats};

/// p99 latency limit of the rate ladder, ms.
pub const LIMIT_MS: f64 = 100.0;
/// The fixed rate ladder: `LADDER_BASE · LADDER_STEP^k` req/s.
pub const LADDER_BASE: f64 = 30.0;
pub const LADDER_STEP: f64 = 1.15;
pub const LADDER_RUNGS: usize = 18;
/// Requests sent before the nominal phase (fills the result cache).
pub const WARMUP: usize = 100;
/// How long a phase waits for replies after its last send.
const DRAIN: Duration = Duration::from_secs(10);
/// A percentile that lands on a failed request (no latency) reads this.
const FAILED_MS: f64 = 1e6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeSkewed,
    ServeUnique,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "serve-skewed" => Some(Workload::ServeSkewed),
            "serve-unique" => Some(Workload::ServeUnique),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSkewed => "serve-skewed",
            Workload::ServeUnique => "serve-unique",
        }
    }

    /// Rung of the ladder the nominal phase runs at, at or below ~60 % of
    /// the sustained rate the traced run finds: 79.8 req/s on serve-skewed,
    /// 45.6 req/s on serve-unique. serve-skewed runs faster so that its p99
    /// rests on more samples and a reply held back by Nagle's algorithm
    /// waits less for the next send (see README.md, "Steadiness").
    fn nominal_rung(self) -> usize {
        match self {
            Workload::ServeSkewed => 7,
            Workload::ServeUnique => 3,
        }
    }

    /// Timing rounds of an untraced run (see [`Timings`]): more where the
    /// timed operations are cheap.
    fn timing_rounds(self) -> usize {
        match self {
            Workload::ServeSkewed => 20,
            Workload::ServeUnique => 8,
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a run reports.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub provenance: BTreeMap<String, serde_json::Value>,
}

/// A plain value as JSON.
pub fn json<T: serde::Serialize>(value: T) -> serde_json::Value {
    serde_json::to_value(value).expect("plain values serialize")
}

fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn median_of(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

fn finite_ms(v: Option<f64>) -> f64 {
    match v {
        Some(x) if x.is_finite() => x,
        _ => FAILED_MS,
    }
}

/// Sizes of the run's phases, fixed before anything is sent. `--seconds`
/// is the length of the nominal phase; a rung of the ladder search lasts a
/// tenth of it (at least three seconds).
struct Plan {
    ladder: Vec<f64>,
    /// Rung of the nominal phase.
    nominal: usize,
    nominal_requests: usize,
    rung_seconds: f64,
}

impl Plan {
    fn new(seconds: u64, nominal: usize) -> Self {
        let ladder = driver::ladder(LADDER_BASE, LADDER_STEP, LADDER_RUNGS);
        let rate = ladder[nominal];
        // At least enough samples for a p99.
        let nominal_requests =
            stats::samples_for_tail(99.0).max((seconds as f64 * rate).round() as usize);
        Plan {
            ladder,
            nominal,
            nominal_requests,
            rung_seconds: (0.1 * seconds as f64).max(3.0),
        }
    }

    fn rate(&self) -> f64 {
        self.ladder[self.nominal]
    }

    fn rung_requests(&self, rate: f64) -> usize {
        (rate * self.rung_seconds).round() as usize
    }

    /// Requests the stream must hold: warm-up and nominal twice (the
    /// traced run replays them) plus the most the ladder search can send —
    /// bisecting `n` rungs probes at most ⌈log2 n⌉ of them.
    fn stream_len(&self) -> usize {
        let above = self.ladder.len() - self.nominal;
        let probes = (usize::BITS - (above - 1).leading_zeros()) as usize;
        let climb: usize = self.ladder[self.ladder.len() - probes..]
            .iter()
            .map(|&r| self.rung_requests(r))
            .sum();
        let below: usize = self.ladder[..self.nominal]
            .iter()
            .map(|&r| self.rung_requests(r))
            .sum();
        2 * (WARMUP + self.nominal_requests) + climb.max(below)
    }
}

fn synthetic_world(seed: u64, models: usize, n_targets: usize) -> World {
    let n_singletons = models / 3;
    World::synthetic(&SyntheticConfig {
        seed,
        n_families: ((models - n_singletons) / 4).max(1),
        family_size: (3, 5),
        n_singletons,
        n_benchmarks: 20,
        n_targets,
        stages: 5,
    })
}

/// Seed of every workload's world: the CV world the paper tables use and
/// the synthetic zoo the unique workload was sized on. The run's `--seed`
/// varies the traffic, not the zoo, so runs with different seeds measure
/// the same selection cost and quality.
pub const WORLD_SEED: u64 = 7;

/// Requested size of the unique workload's synthetic zoo (975 built: a
/// third singletons, the rest in families of 3–5).
const UNIQUE_MODELS: usize = 1_000;

/// Targets of the unique workload's world, whatever `--seconds` is: the
/// last is the cold-start and reload probe, the rest are drawn without
/// repeats, so the stream may hold at most `UNIQUE_TARGETS - 1` requests.
const UNIQUE_TARGETS: usize = 8_192;

/// The workload's world, request stream and probe request.
fn world_and_stream(
    workload: Workload,
    seed: u64,
    len: usize,
) -> Result<(World, Vec<Knobs>, Knobs), String> {
    match workload {
        Workload::ServeSkewed => {
            let world = World::cv(WORLD_SEED);
            let stream = streams::skewed_stream(WORLD_SEED, seed, len, world.n_targets());
            Ok((world, stream, Knobs::default_for(0)))
        }
        Workload::ServeUnique => {
            let pool = UNIQUE_TARGETS - 1;
            if len > pool {
                return Err(format!(
                    "the run needs {len} distinct targets, the world has {pool}: lower --seconds"
                ));
            }
            let world = synthetic_world(WORLD_SEED, UNIQUE_MODELS, UNIQUE_TARGETS);
            let stream = streams::unique_stream(seed, len, pool);
            Ok((world, stream, Knobs::default_for(pool)))
        }
    }
}

/// The program's default offline settings (serial), recall in `mode`.
fn offline_config(mode: AnnMode) -> OfflineConfig {
    OfflineConfig {
        ann: ann_config(mode),
        ..OfflineConfig::default()
    }
}

fn ann_config(mode: AnnMode) -> AnnConfig {
    AnnConfig {
        mode,
        ..AnnConfig::default()
    }
}

/// The server's defaults (exact recall), with the access log on or off.
fn serve_config(access_log: Option<&Path>) -> ServeConfig {
    ServeConfig {
        access_log: access_log.map(|p| p.display().to_string()),
        ..ServeConfig::default()
    }
}

/// An in-process server running on its own thread.
struct Running {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<ServeSummary>>,
}

impl Running {
    fn start(server: Server) -> Self {
        let addr = server.addr();
        let handle = std::thread::spawn(move || server.run());
        Running { addr, handle }
    }

    fn shutdown(self) -> Result<ServeSummary, String> {
        driver::round_trip(self.addr, &streams::control_line(0, "shutdown")).map_err(io_err)?;
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(io_err)
    }
}

/// Request ids, unique across the run.
struct Ids(u64);

impl Ids {
    fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

/// Result key of a request: target and resolved knobs.
fn key(knobs: &Knobs, stages: usize) -> String {
    let (t, k, th, s) = knobs.key(stages);
    format!("t{t}.k{k}.th{}.s{s}", f64::from_bits(th))
}

/// Client-side accounting of the measured server.
#[derive(Default)]
struct Tally {
    sent: u64,
    ok: u64,
    overloaded: u64,
    errors: u64,
}

impl Tally {
    fn add_phase(&mut self, p: &PhaseReport) {
        self.sent += p.samples.len() as u64;
        self.ok += p.count(Status::Ok) as u64;
        self.overloaded += p.count(Status::Overloaded) as u64;
        self.errors += p.count(Status::Error) as u64;
    }

    fn add_line(&mut self, line: &str) {
        self.sent += 1;
        match tps_serve::protocol::status_of(line) {
            Some("ok") => self.ok += 1,
            Some("overloaded") => self.overloaded += 1,
            _ => self.errors += 1,
        }
    }
}

struct Ctx<'a> {
    args: &'a Args,
    plan: Plan,
    world: World,
    artifacts: OfflineArtifacts,
    stream: Vec<Knobs>,
    probe: Knobs,
    tracer: Tracer,
    tally: ProxyTally,
    work: PathBuf,
    ids: Ids,
    metrics: Vec<(&'static str, f64, &'static str)>,
    failures: Vec<String>,
    provenance: BTreeMap<String, serde_json::Value>,
}

impl Ctx<'_> {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    fn line(&mut self, knobs: &Knobs) -> (u64, String) {
        let id = self.ids.next();
        let name = &self.world.targets[knobs.target].name;
        (id, streams::select_line(id, name, knobs))
    }

    fn lines(&mut self, range: std::ops::Range<usize>) -> Vec<(u64, String)> {
        let knobs: Vec<Knobs> = self.stream[range].to_vec();
        knobs.iter().map(|k| self.line(k)).collect()
    }
}

/// Wall time a timing sample lasts at least, in an untraced run: an
/// operation that takes milliseconds is repeated within a sample and its
/// mean call time kept.
const SAMPLE_MIN_S: f64 = 0.1;

/// One timing sample of an operation that reports `N` timed parts: calls
/// `f` until `min_s` has passed (at least once) and returns the means of
/// what it reported and the last call's value. Logs the means on stderr.
fn sample<const N: usize, T>(
    what: &str,
    min_s: f64,
    mut f: impl FnMut() -> Result<([f64; N], T), String>,
) -> Result<([f64; N], T), String> {
    let t0 = Instant::now();
    let mut sum = [0.0; N];
    let mut calls = 0;
    loop {
        let (times, value) = f()?;
        for (s, t) in sum.iter_mut().zip(times) {
            *s += t;
        }
        calls += 1;
        if secs(t0) >= min_s {
            let means = sum.map(|s| s / calls as f64);
            eprintln!("perfbench: {what}: {calls} calls, mean s {means:?}");
            return Ok((means, value));
        }
    }
}

/// Samples of the set-up-like operations, whose medians are the timed
/// end-to-end metrics. They are taken in rounds, one sample of each
/// operation per round, half of the rounds before the nominal phase and
/// half after it, so a median averages the host's speed over the whole run
/// instead of the few seconds a batch of samples takes: on a shared host
/// the speed of the same code drifts by tens of per cent between seconds.
#[derive(Default)]
struct Timings {
    setup: Vec<f64>,
    build: Vec<f64>,
    indexed_build: Vec<f64>,
    cold_start: Vec<f64>,
    reload: Vec<f64>,
}

/// World generation, exact offline build and bind until a ping answers;
/// returns (set-up, build) seconds and what was built.
fn set_up(tracer: &Tracer, args: &Args, len: usize) -> Result<([f64; 2], Built), String> {
    let t0 = Instant::now();
    let (world, stream, probe) = tracer.span("world.generate", None, None, |_| {
        world_and_stream(args.workload, args.seed, len)
    })?;
    let t1 = Instant::now();
    let artifacts = build_offline(tracer, &world, AnnMode::Exact)?;
    let build_s = secs(t1);
    let running =
        Running::start(Server::bind(&world, &artifacts.0, serve_config(None)).map_err(io_err)?);
    driver::round_trip(running.addr, &streams::control_line(0, "ping")).map_err(io_err)?;
    let setup_s = secs(t0);
    running.shutdown()?;
    Ok(([setup_s, build_s], (world, stream, probe, artifacts)))
}

type Built = (World, Vec<Knobs>, Knobs, (OfflineArtifacts, TraceReport));

/// The indexed offline build of the same zoo, which serving does not use
/// but `indexed_regret` selects from.
fn indexed_build(world: &World) -> Result<([f64; 1], OfflineArtifacts), String> {
    let t = Instant::now();
    let (built, _) = build_offline(&Tracer::new(false), world, AnnMode::Indexed)?;
    Ok(([secs(t)], built))
}

pub fn run(args: &Args, out_dir: &Path) -> Result<Outcome, String> {
    let threads = host_threads();
    let plan = Plan::new(args.seconds, args.workload.nominal_rung());
    let work = out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(io_err)?;
    let tracer = Tracer::new(args.trace);
    let min_s = if args.trace { 0.0 } else { SAMPLE_MIN_S };

    // The first set-up and indexed-build samples build what the run uses.
    let len = plan.stream_len();
    let mut timings = Timings::default();
    let ([setup_s, build_s], (world, stream, probe, (artifacts, offline_trace))) =
        sample("set-up", min_s, || set_up(&tracer, args, len))?;
    timings.setup.push(setup_s);
    timings.build.push(build_s);
    let ([indexed_build_s], indexed) = sample("indexed build", min_s, || indexed_build(&world))?;
    timings.indexed_build.push(indexed_build_s);
    let mut cx = Ctx {
        args,
        plan,
        world,
        artifacts,
        stream,
        probe,
        tracer,
        tally: ProxyTally::default(),
        work,
        ids: Ids(0),
        metrics: Vec::new(),
        failures: Vec::new(),
        provenance: BTreeMap::new(),
    };
    let result = measure(
        &mut cx,
        Setup {
            timings,
            min_s,
            indexed,
            offline_trace,
        },
    );
    let spans_path = out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if cx.tracer.on() {
        cx.tracer.write_jsonl(&spans_path).map_err(io_err)?;
    }
    let _ = std::fs::remove_dir_all(&cx.work);
    let (attempted, failed) = result?;
    cx.provenance
        .insert("host_threads".into(), json(threads as u64));
    Ok(Outcome {
        metrics: cx.metrics,
        attempted,
        failed,
        failures: cx.failures,
        provenance: cx.provenance,
    })
}

/// What the set-up measured and built besides the served artifacts.
struct Setup {
    timings: Timings,
    /// Least wall time of a timing sample.
    min_s: f64,
    indexed: OfflineArtifacts,
    /// The `offline.*` spans of the exact build (traced runs only).
    offline_trace: TraceReport,
}

/// `build_offline_par` + `OfflineArtifacts::build` (traced when tracing,
/// for the `offline.*` spans).
fn build_offline(
    tracer: &Tracer,
    world: &World,
    mode: AnnMode,
) -> Result<(OfflineArtifacts, TraceReport), String> {
    let config = offline_config(mode);
    let (matrix, curves) = tracer
        .span("offline.simulate", None, None, |_| {
            world.build_offline_par(config.parallel.resolve())
        })
        .map_err(io_err)?;
    if tracer.on() {
        let (tel, sink) = Telemetry::recording();
        let artifacts = tracer
            .span("offline.build", None, None, |_| {
                OfflineArtifacts::build_traced(matrix, &curves, &config, &tel)
            })
            .map_err(io_err)?;
        Ok((artifacts, sink.report()))
    } else {
        let artifacts = OfflineArtifacts::build(matrix, &curves, &config).map_err(io_err)?;
        Ok((artifacts, TraceReport::empty()))
    }
}

/// Everything after set-up; returns (attempted, failed).
fn measure(cx: &mut Ctx, setup: Setup) -> Result<(u64, u64), String> {
    let args = cx.args;
    // Serialize and commit to the store.
    let t = Instant::now();
    let (world_bytes, artifact_bytes) = cx.tracer.span("artifact.serialize", None, None, |_| {
        (
            serde_json::to_vec(&cx.world).map_err(io_err),
            serde_json::to_vec(&cx.artifacts).map_err(io_err),
        )
    });
    let (world_bytes, artifact_bytes) = (world_bytes?, artifact_bytes?);
    let serialize_s = secs(t);
    let store_dir = cx.work.join("store");
    let t = Instant::now();
    cx.tracer
        .span("store.commit", None, None, |_| -> Result<(), String> {
            let mut store = Store::open(&store_dir).map_err(io_err)?;
            store
                .put_raw_overwrite("bench.world", ArtifactKind::World, &world_bytes)
                .map_err(io_err)?;
            store
                .put_raw_overwrite(
                    "bench.artifacts",
                    ArtifactKind::OfflineArtifacts,
                    &artifact_bytes,
                )
                .map_err(io_err)?;
            Ok(())
        })?;
    let commit_s = secs(t);
    let fsck = checks::fsck(&Store::open(&store_dir).map_err(io_err)?);
    cx.check("store fsck after commit", fsck);

    // The server the run drives, cold-started from the store.
    let (running, mut load, reply) = cold_start(cx, &store_dir)?;
    let mut tally = Tally::default();
    tally.add_line(&reply);
    let first = tps_serve::protocol::extract_result(&reply)
        .ok_or_else(|| format!("cold-start select failed: {reply}"))?
        .to_string();
    let Setup {
        mut timings,
        min_s,
        indexed,
        offline_trace,
    } = setup;
    let rounds = if args.trace {
        1
    } else {
        args.workload.timing_rounds()
    };
    let mut timer = Timer {
        timings: &mut timings,
        min_s,
        store_dir: &store_dir,
        addr: running.addr,
        first: &first,
        reloads: 0,
    };
    for _ in 0..rounds.div_ceil(2) {
        load = timer.round(cx, &mut tally)?;
    }
    let mut served: Vec<(String, String)> = vec![(key(&cx.probe, cx.world.stages), first.clone())];

    // Open-loop phases.
    let rate = cx.plan.rate();
    let n_nominal = cx.plan.nominal_requests;
    let warm = phase(cx, running.addr, 0..WARMUP, rate)?;
    tally.add_phase(&warm);
    let nominal_range = WARMUP..WARMUP + n_nominal;
    let nominal = phase(cx, running.addr, nominal_range.clone(), rate)?;
    tally.add_phase(&nominal);
    let mut phases = vec![(0..WARMUP, warm), (nominal_range.clone(), nominal.clone())];
    let mut cursor = WARMUP + n_nominal;
    let mut sustained = None;
    let mut traced = None;
    if args.trace {
        let (best, rungs) = ladder_walk(
            cx,
            running.addr,
            &nominal,
            &mut cursor,
            &mut phases,
            &mut tally,
        )?;
        sustained = best;
        cx.provenance.insert(
            "rungs".into(),
            serde_json::Value::Array(
                rungs
                    .iter()
                    .map(|r| {
                        json(format!(
                            "{} req/s: sent {} overloaded {} misses {} growth {:.1} ms {}",
                            r.rate,
                            r.sent,
                            r.overloaded,
                            r.misses,
                            r.backlog_growth_ms,
                            if r.passed { "pass" } else { "fail" }
                        ))
                    })
                    .collect(),
            ),
        );
    }

    for _ in 0..rounds / 2 {
        timer.round(cx, &mut tally)?;
    }
    let reloads = timer.reloads;
    let summary = running.shutdown()?;
    cx.check(
        "accounting",
        checks::accounting(
            tally.sent,
            tally.ok,
            tally.overloaded,
            tally.errors,
            &summary.stats,
        ),
    );

    // Traced run: the same nominal phase again, against a server with its
    // access log on, with a client span per request.
    if args.trace {
        traced = Some(traced_phase(cx, &mut cursor, &mut phases)?);
    }

    for (range, phase) in &phases {
        for (k, s) in phase.samples.iter().enumerate() {
            if let Some(result) = &s.result {
                served.push((
                    key(&cx.stream[range.start + k], cx.world.stages),
                    result.clone(),
                ));
            }
        }
    }

    // In-process selections: references for the served results and the
    // selection-quality metrics, exact and indexed.
    let batch = batch_keys(cx, &nominal_range);
    let references = select_batch(cx, &cx.artifacts, AnnMode::Exact, &batch, true)?;
    let proxy_unique_ratio = cx.tally.unique_ratio();
    let reference: HashMap<String, String> = references
        .iter()
        .map(|(k, r)| (k.clone(), r.json.clone()))
        .collect();
    let served_check = checks::served_bytes(
        served.iter().map(|(k, v)| (k.as_str(), v.as_str())),
        &reference,
    );
    cx.provenance.insert(
        "served_checked".into(),
        json(*served_check.as_ref().unwrap_or(&0) as u64),
    );
    let min_checked = match args.workload {
        Workload::ServeSkewed => served.len(),
        Workload::ServeUnique => 64,
    };
    cx.check(
        "served bytes",
        served_check.and_then(|n| {
            if n >= min_checked {
                Ok(())
            } else {
                Err(format!(
                    "only {n} served results checked, need {min_checked}"
                ))
            }
        }),
    );
    if args.workload == Workload::ServeSkewed {
        let rows = epoch_rows(cx, &references)?;
        cx.check("epochs vs SH/BF", checks::epoch_ratios(&rows));
    }
    let set = quality_set(cx);
    let (epochs, regret) = match args.workload {
        Workload::ServeSkewed => quality(cx, &references),
        Workload::ServeUnique => quality(
            cx,
            &select_batch(cx, &cx.artifacts, AnnMode::Exact, &set, false)?,
        ),
    };
    let indexed_set = select_batch(cx, &indexed, AnnMode::Indexed, &set, false)?;
    let (_, indexed_regret) = quality(cx, &indexed_set);

    let nominal_fail = nominal.count(Status::Overloaded)
        + nominal.count(Status::Error)
        + nominal.count(Status::Missing);
    let attempted = nominal.samples.len() as u64
        + (batch.len() + set.len() + indexed_set.len()) as u64
        + 1
        + reloads;
    let failed = nominal_fail as u64 + cx.failures.len() as u64;
    cx.provenance.insert("nominal_rate".into(), json(rate));
    cx.provenance
        .insert("nominal_requests".into(), json(n_nominal as u64));

    if !args.trace {
        let latencies = nominal.latencies_ms();
        cx.metric(
            "latency_p50_ms",
            finite_ms(stats::percentile(&latencies, 50.0)),
            "ms",
        );
        cx.metric(
            "latency_p99_ms",
            finite_ms(stats::tail_percentile(&latencies, 99.0)),
            "ms",
        );
        cx.metric("epochs_per_select", epochs, "epochs");
        cx.metric("selection_regret", regret, "acc");
        cx.metric("indexed_regret", indexed_regret, "acc");
        cx.metric("setup_s", median_of(&timings.setup), "s");
        cx.metric("peak_rss_mb", peak_rss_mb(), "MB");
        cx.metric("offline_build_s", median_of(&timings.build), "s");
        cx.metric("indexed_build_s", median_of(&timings.indexed_build), "s");
        cx.metric("cold_start_s", median_of(&timings.cold_start), "s");
        cx.metric("reload_s", median_of(&timings.reload), "s");
    } else {
        // Selection throughput from the same batch without the timing
        // wrappers, whose own cost (and second LEEP) would count otherwise;
        // the wrappers must not change a result.
        let plain = select_batch(cx, &cx.artifacts, AnnMode::Exact, &batch, false)?;
        cx.check(
            "timing wrappers",
            checks::same_results(
                plain.iter().map(|(k, r)| (k.as_str(), r.json.as_str())),
                references
                    .iter()
                    .map(|(k, r)| (k.as_str(), r.json.as_str())),
            ),
        );
        // The median call time, so a burst of host noise during the batch
        // does not move it.
        let call_s: Vec<f64> = plain.iter().map(|(_, r)| r.seconds).collect();
        let traced = traced.expect("traced phase ran");
        per_layer(
            cx,
            &nominal,
            &traced,
            &offline_trace,
            &load,
            (serialize_s, commit_s, artifact_bytes.len()),
        )?;
        let error_rate = nominal_fail as f64 / nominal.samples.len().max(1) as f64;
        cx.metric("bench.error_rate", error_rate, "share");
        cx.metric("serve.sustained_rps", sustained.unwrap_or(0.0), "req/s");
        cx.metric("recall.proxy_unique_ratio", proxy_unique_ratio, "ratio");
        cx.metric("select.calls_per_s", 1.0 / median_of(&call_s), "sel/s");
    }
    Ok((attempted, failed))
}

/// Takes the timing rounds of a run against its store and serving server.
struct Timer<'a> {
    timings: &'a mut Timings,
    min_s: f64,
    store_dir: &'a Path,
    addr: SocketAddr,
    /// The serving server's first probe answer.
    first: &'a str,
    /// Reloads sent so far.
    reloads: u64,
}

impl Timer<'_> {
    /// One sample of each timed operation: set-up, indexed build, cold
    /// start (each timed server then shut down) and reload of the serving
    /// server. Returns the load times of the cold start.
    fn round(&mut self, cx: &mut Ctx, tally: &mut Tally) -> Result<LoadTimes, String> {
        let off = Tracer::new(false);
        let len = cx.plan.stream_len();
        let ([setup_s, build_s], _) = sample("set-up", self.min_s, || set_up(&off, cx.args, len))?;
        self.timings.setup.push(setup_s);
        self.timings.build.push(build_s);
        let ([indexed_s], _) = sample("indexed build", self.min_s, || indexed_build(&cx.world))?;
        self.timings.indexed_build.push(indexed_s);
        let ([cold_s], load) = sample("cold start", self.min_s, || {
            let (running, load, _) = cold_start(cx, self.store_dir)?;
            running.shutdown()?;
            Ok(([load.total_s], load))
        })?;
        self.timings.cold_start.push(cold_s);
        let ([reload_s], ()) = sample("reload", self.min_s, || self.reload(cx, tally))?;
        self.timings.reload.push(reload_s);
        Ok(load)
    }

    /// Reload the serving server, then send the probe select, which must
    /// answer as before from the new generation.
    fn reload(&mut self, cx: &mut Ctx, tally: &mut Tally) -> Result<([f64; 1], ()), String> {
        self.reloads += 1;
        let id = cx.ids.next();
        let t0 = Instant::now();
        let (reply, elapsed) =
            driver::round_trip(self.addr, &streams::control_line(id, "reload")).map_err(io_err)?;
        cx.tracer
            .record("serve.reload", None, Some(id), t0, Instant::now());
        let got = tps_serve::protocol::generation_of(&reply);
        let probe = cx.probe;
        let (_, line) = cx.line(&probe);
        let (after, _) = driver::round_trip(self.addr, &line).map_err(io_err)?;
        tally.add_line(&after);
        let after_result = tps_serve::protocol::extract_result(&after).unwrap_or("");
        let check = if got != Some(self.reloads + 1) {
            Err(format!(
                "reload reply generation {got:?}, expected {}",
                self.reloads + 1
            ))
        } else {
            checks::reload(
                self.first,
                after_result,
                self.reloads,
                tps_serve::protocol::generation_of(&after),
            )
        };
        cx.check("reload", check);
        Ok(([elapsed.as_secs_f64()], ()))
    }
}

fn conns() -> usize {
    (host_threads() / 2).max(1)
}

/// Find the sustained rate by walking the ladder from the nominal rung
/// (bisection, see [`driver::walk`]); every rung's replies join `phases`.
fn ladder_walk(
    cx: &mut Ctx,
    addr: SocketAddr,
    nominal: &PhaseReport,
    cursor: &mut usize,
    phases: &mut Vec<(std::ops::Range<usize>, PhaseReport)>,
    tally: &mut Tally,
) -> Result<(Option<f64>, Vec<driver::Rung>), String> {
    let ladder = cx.plan.ladder.clone();
    let first = driver::judge_rung(nominal, LIMIT_MS);
    driver::walk(&ladder, cx.plan.nominal, first, |rate| {
        let n = cx.plan.rung_requests(rate);
        let range = *cursor..*cursor + n;
        *cursor += n;
        let report = phase(cx, addr, range.clone(), rate).map_err(std::io::Error::other)?;
        tally.add_phase(&report);
        let rung = driver::judge_rung(&report, LIMIT_MS);
        phases.push((range, report));
        Ok(rung)
    })
    .map_err(io_err)
}

/// Open-loop phase over `stream[range]`, on a schedule seeded by the run
/// seed and the phase's place in the stream.
fn phase(
    cx: &mut Ctx,
    addr: SocketAddr,
    range: std::ops::Range<usize>,
    rate: f64,
) -> Result<PhaseReport, String> {
    let seed = cx.args.seed ^ (range.start as u64) << 32;
    let lines = cx.lines(range);
    driver::run_phase(addr, &lines, rate, seed, conns(), true, DRAIN).map_err(io_err)
}

/// Load the store into a new server and send it the probe select; returns
/// the running server, the load times and the probe's reply.
fn cold_start(cx: &mut Ctx, store_dir: &Path) -> Result<(Running, LoadTimes, String), String> {
    let t0 = Instant::now();
    let (world, artifacts, times) = load_from_store(&cx.tracer, store_dir)?;
    let t_bind = Instant::now();
    let server = cx
        .tracer
        .span("serve.bind", None, None, |_| {
            Server::bind(&world, &artifacts, serve_config(None))
        })
        .map_err(io_err)?
        .with_reload_source(reload_source(store_dir));
    let bind_s = secs(t_bind);
    let running = Running::start(server);
    let probe = cx.probe;
    let (id, line) = cx.line(&probe);
    let (reply, _) = driver::round_trip(running.addr, &line).map_err(io_err)?;
    cx.tracer.record(
        "cold_start.first_select",
        None,
        Some(id),
        t0,
        Instant::now(),
    );
    let load = LoadTimes {
        bind_s,
        total_s: secs(t0),
        ..times
    };
    Ok((running, load, reply))
}

#[derive(Default, Clone)]
struct LoadTimes {
    /// `Store::open` through the probe's reply.
    total_s: f64,
    read_s: f64,
    world_parse_s: f64,
    artifact_parse_s: f64,
    bind_s: f64,
}

fn load_from_store(
    tracer: &Tracer,
    dir: &Path,
) -> Result<(World, OfflineArtifacts, LoadTimes), String> {
    let t = Instant::now();
    let (world_bytes, artifact_bytes) = tracer.span("store.read", None, None, |_| {
        let store = Store::open(dir).map_err(io_err)?;
        Ok::<_, String>((
            store
                .get_raw("bench.world", ArtifactKind::World)
                .map_err(io_err)?,
            store
                .get_raw("bench.artifacts", ArtifactKind::OfflineArtifacts)
                .map_err(io_err)?,
        ))
    })?;
    let read_s = secs(t);
    let t = Instant::now();
    let world: World = tracer
        .span("world.parse", None, None, |_| {
            serde_json::from_slice(&world_bytes)
        })
        .map_err(io_err)?;
    let world_parse_s = secs(t);
    let t = Instant::now();
    let artifacts: OfflineArtifacts = tracer
        .span("artifact.parse", None, None, |_| {
            serde_json::from_slice(&artifact_bytes)
        })
        .map_err(io_err)?;
    let artifact_parse_s = secs(t);
    Ok((
        world,
        artifacts,
        LoadTimes {
            read_s,
            world_parse_s,
            artifact_parse_s,
            ..LoadTimes::default()
        },
    ))
}

fn reload_source(dir: &Path) -> ReloadSource {
    let dir = dir.to_path_buf();
    Box::new(move || {
        let store = Store::open(&dir).map_err(io_err)?;
        let world = store
            .get("bench.world", ArtifactKind::World)
            .map_err(io_err)?;
        let artifacts = store
            .get("bench.artifacts", ArtifactKind::OfflineArtifacts)
            .map_err(io_err)?;
        Ok((world, artifacts))
    })
}

/// A second server over the same artifacts with its access log on: warm
/// up, then replay the nominal phase's request pattern with a client span
/// per request.
fn traced_phase(
    cx: &mut Ctx,
    cursor: &mut usize,
    phases: &mut Vec<(std::ops::Range<usize>, PhaseReport)>,
) -> Result<Traced, String> {
    let log = cx.work.join("access.jsonl");
    let server =
        Server::bind(&cx.world, &cx.artifacts, serve_config(Some(&log))).map_err(io_err)?;
    let running = Running::start(server);
    let rate = cx.plan.rate();
    let n = cx.plan.nominal_requests;
    let warm_range = *cursor..*cursor + WARMUP;
    let range = warm_range.end..warm_range.end + n;
    *cursor = range.end;
    let warm = phase(cx, running.addr, warm_range.clone(), rate)?;
    let phase = phase(cx, running.addr, range.clone(), rate)?;
    for s in &phase.samples {
        if let Some(l) = s.latency_us {
            let due = phase.start + Duration::from_secs_f64(s.due_us / 1e6);
            cx.tracer.record(
                "client.request",
                None,
                Some(s.id),
                due,
                due + Duration::from_secs_f64(l.max(0.0) / 1e6),
            );
        }
    }
    let mut tally = Tally::default();
    tally.add_phase(&warm);
    tally.add_phase(&phase);
    let summary = running.shutdown()?;
    cx.check(
        "traced accounting",
        checks::accounting(
            tally.sent,
            tally.ok,
            tally.overloaded,
            tally.errors,
            &summary.stats,
        ),
    );
    let text = std::fs::read_to_string(&log).map_err(io_err)?;
    let access = residual::parse_log(&text)?;
    let splits = residual::split(&phase, &access);
    let splits = match splits {
        Ok(s) => s,
        Err(e) => {
            cx.check("latency split", Err(e));
            Vec::new()
        }
    };
    let distinct: std::collections::BTreeSet<_> = cx.stream[warm_range.start..range.end]
        .iter()
        .map(|k| k.key(cx.world.stages))
        .collect();
    phases.push((warm_range, warm));
    phases.push((range, phase.clone()));
    Ok(Traced {
        phase,
        splits,
        summary,
        distinct: distinct.len(),
    })
}

struct Traced {
    phase: PhaseReport,
    splits: Vec<residual::Split>,
    summary: ServeSummary,
    /// Distinct result keys the traced server was sent.
    distinct: usize,
}

/// The requests the in-process batch selects: on the skewed workload all
/// 96 knob combinations (a superset of every key served); otherwise a
/// seeded sample of 256 nominal requests.
fn batch_keys(cx: &Ctx, nominal: &std::ops::Range<usize>) -> Vec<Knobs> {
    match cx.args.workload {
        Workload::ServeSkewed => streams::skewed_fingerprints(cx.world.n_targets()),
        Workload::ServeUnique => {
            let mut rng = Rng::new(cx.args.seed ^ 0xba7c);
            let order = rng.permutation(nominal.len());
            order
                .into_iter()
                .take(256)
                .map(|i| cx.stream[nominal.start + i])
                .collect()
        }
    }
}

struct Reference {
    json: String,
    winner: ModelId,
    target: usize,
    epochs: f64,
    /// Wall time of the `two_phase_select` call.
    seconds: f64,
}

fn pipeline_config(cx: &Ctx, knobs: &Knobs, mode: AnnMode) -> PipelineConfig {
    PipelineConfig {
        recall: RecallConfig {
            top_k: knobs.top_k.unwrap_or(10),
            ..RecallConfig::default()
        },
        fine: FineSelectionConfig {
            threshold: knobs.threshold.unwrap_or(0.0),
            ..FineSelectionConfig::default()
        },
        total_stages: knobs.stages.unwrap_or(cx.world.stages),
        parallel: ParallelConfig::with_threads(1),
        ann: ann_config(mode),
    }
}

/// Run `two_phase_select` over `artifacts`, with recall in `mode`, for
/// every key: through the timing wrappers when `wrapped`, otherwise with
/// the plain `ZooOracle` and `ZooTrainer`.
fn select_batch(
    cx: &Ctx,
    artifacts: &OfflineArtifacts,
    mode: AnnMode,
    batch: &[Knobs],
    wrapped: bool,
) -> Result<Vec<(String, Reference)>, String> {
    let mut out = Vec::with_capacity(batch.len());
    for (i, knobs) in batch.iter().enumerate() {
        let config = pipeline_config(cx, knobs, mode);
        let started = Instant::now();
        let outcome = if wrapped {
            cx.tracer
                .span("pipeline.two_phase_select", None, Some(i as u64), |span| {
                    let oracle = TimedOracle::new(
                        ZooOracle::new(&cx.world, knobs.target)?,
                        knobs.target,
                        &cx.tracer,
                        span,
                        &cx.tally,
                    );
                    let mut trainer = TimedTrainer::new(
                        ZooTrainer::new(&cx.world, knobs.target)?,
                        &cx.tracer,
                        span,
                    );
                    let outcome = two_phase_select(artifacts, &oracle, &mut trainer, &config)?;
                    cx.tracer
                        .record_count("select.train_calls", trainer.advanced as f64);
                    Ok::<_, tps_core::error::SelectionError>(outcome)
                })
        } else {
            ZooOracle::new(&cx.world, knobs.target).and_then(|oracle| {
                let mut trainer = ZooTrainer::new(&cx.world, knobs.target)?;
                two_phase_select(artifacts, &oracle, &mut trainer, &config)
            })
        };
        let seconds = secs(started);
        let outcome = outcome.map_err(io_err)?;
        let epochs = outcome.ledger.total();
        let winner = outcome.selection.winner;
        let result = SelectionResult::new(&cx.world, artifacts, knobs.target, outcome);
        let json = serde_json::to_string(&result).map_err(io_err)?;
        out.push((
            key(knobs, cx.world.stages),
            Reference {
                json,
                winner,
                target: knobs.target,
                epochs,
                seconds,
            },
        ));
    }
    Ok(out)
}

/// Two-phase vs successive halving vs brute force epochs per target, at
/// default knobs.
fn epoch_rows(
    cx: &Ctx,
    references: &[(String, Reference)],
) -> Result<Vec<(String, f64, f64, f64)>, String> {
    let models: Vec<ModelId> = (0..cx.world.n_models()).map(ModelId::from).collect();
    let mut rows = Vec::new();
    for target in 0..cx.world.n_targets() {
        let knobs = Knobs::default_for(target);
        let k = key(&knobs, cx.world.stages);
        let two_phase = match references.iter().find(|(rk, _)| *rk == k) {
            Some((_, r)) => r.epochs,
            None => {
                select_batch(cx, &cx.artifacts, AnnMode::Exact, &[knobs], false)?[0]
                    .1
                    .epochs
            }
        };
        let mut t = ZooTrainer::new(&cx.world, target).map_err(io_err)?;
        let sh = successive_halving(&mut t, &models, cx.world.stages).map_err(io_err)?;
        let mut t = ZooTrainer::new(&cx.world, target).map_err(io_err)?;
        let bf = brute_force(&mut t, &models, cx.world.stages).map_err(io_err)?;
        rows.push((
            cx.world.targets[target].name.clone(),
            two_phase,
            sh.ledger.total(),
            bf.ledger.total(),
        ));
    }
    Ok(rows)
}

/// Targets the unique workload's quality metrics average over: the
/// world's first targets, the same on every seed.
const QUALITY_TARGETS: usize = 256;

/// The fixed selection set the quality metrics average over: all 96 knob
/// combinations on the skewed workload (the reference batch itself), the
/// first [`QUALITY_TARGETS`] targets at default knobs on the unique one.
fn quality_set(cx: &Ctx) -> Vec<Knobs> {
    match cx.args.workload {
        Workload::ServeSkewed => streams::skewed_fingerprints(cx.world.n_targets()),
        Workload::ServeUnique => (0..QUALITY_TARGETS).map(Knobs::default_for).collect(),
    }
}

/// (mean epochs per selection, mean selection regret) of a set of
/// selections. Regret is the ground-truth best accuracy on the target
/// minus the ground-truth accuracy of the selected model.
fn quality(cx: &Ctx, set: &[(String, Reference)]) -> (f64, f64) {
    let epochs: Vec<f64> = set.iter().map(|(_, r)| r.epochs).collect();
    let mut best: HashMap<usize, f64> = HashMap::new();
    let regrets: Vec<f64> = set
        .iter()
        .map(|(_, r)| {
            let b = *best
                .entry(r.target)
                .or_insert_with(|| cx.world.best_model_for_target(r.target).1);
            b - cx.world.target_accuracy(r.winner, r.target)
        })
        .collect();
    (
        stats::mean(&epochs).unwrap_or(0.0),
        stats::mean(&regrets).unwrap_or(0.0),
    )
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn span_ms(trace: &TraceReport, name: &str) -> Vec<f64> {
    trace
        .spans_named(name)
        .iter()
        .map(|s| s.elapsed_us as f64 / 1000.0)
        .collect()
}

fn span_s(trace: &TraceReport, name: &str) -> f64 {
    span_ms(trace, name).iter().sum::<f64>() / 1000.0
}

fn p(values: &[f64], q: f64) -> f64 {
    stats::percentile(&stats::sorted(values.to_vec()), q).unwrap_or(0.0)
}

/// The per-layer metrics of a traced run.
fn per_layer(
    cx: &mut Ctx,
    untraced: &PhaseReport,
    traced: &Traced,
    offline: &TraceReport,
    load: &LoadTimes,
    (serialize_s, commit_s, artifact_bytes): (f64, f64, usize),
) -> Result<(), String> {
    let splits = &traced.splits;
    let col = |f: fn(&residual::Split) -> f64| splits.iter().map(f).collect::<Vec<f64>>();
    let hits: Vec<f64> = splits
        .iter()
        .filter(|s| s.cache == "hit" || s.cache == "flight")
        .map(|s| s.exec_ms)
        .collect();
    let misses: Vec<f64> = splits
        .iter()
        .filter(|s| s.cache == "miss" || s.cache == "none")
        .map(|s| s.exec_ms)
        .collect();
    let stats: &ServeStats = &traced.summary.stats;
    let trace = &traced.summary.trace;
    let share = |f: fn(&residual::Split) -> f64| {
        p(
            &splits
                .iter()
                .map(|s| f(s) / s.latency_ms.max(1e-9))
                .collect::<Vec<_>>(),
            50.0,
        )
    };
    cx.metric(
        "serve.queue_wait_ms.p50",
        p(&col(|s| s.queue_ms), 50.0),
        "ms",
    );
    cx.metric(
        "serve.queue_wait_ms.p99",
        p(&col(|s| s.queue_ms), 99.0),
        "ms",
    );
    cx.metric("serve.exec_hit_ms.p50", p(&hits, 50.0), "ms");
    cx.metric("serve.exec_miss_ms.p50", p(&misses, 50.0), "ms");
    cx.metric("serve.exec_miss_ms.p90", p(&misses, 90.0), "ms");
    cx.metric(
        "serve.residual_ms.p50",
        p(&col(|s| s.residual_ms), 50.0),
        "ms",
    );
    cx.metric(
        "serve.residual_ms.p99",
        p(&col(|s| s.residual_ms), 99.0),
        "ms",
    );
    cx.metric("serve.queue_share.p50", share(|s| s.queue_ms), "share");
    cx.metric("serve.exec_share.p50", share(|s| s.exec_ms), "share");
    cx.metric(
        "serve.residual_share.p50",
        share(|s| s.residual_ms),
        "share",
    );
    let answered = (stats.executed + stats.cache_hits).max(1) as f64;
    cx.metric(
        "serve.cache_hit_rate",
        stats.cache_hits as f64 / answered,
        "share",
    );
    cx.metric(
        "serve.executed_per_distinct",
        stats.executed as f64 / traced.distinct.max(1) as f64,
        "ratio",
    );
    cx.metric(
        "serve.queue_peak_share",
        stats.queue_peak as f64 / stats.queue_capacity.max(1) as f64,
        "share",
    );
    cx.metric("serve.rejected", stats.rejected as f64, "count");
    cx.metric("serve.bind_s", load.bind_s, "s");
    cx.metric(
        "recall.coarse_ms.p50",
        p(&span_ms(trace, "recall.coarse"), 50.0),
        "ms",
    );
    cx.metric(
        "recall.proxy_scoring_ms.p50",
        p(&span_ms(trace, "recall.proxy_scoring"), 50.0),
        "ms",
    );
    cx.metric(
        "recall.proxy_evals_per_exec",
        trace.counter("recall.proxy_evals").unwrap_or(0.0) / stats.executed.max(1) as f64,
        "count",
    );
    cx.metric(
        "zoo.predictions_ms.p50",
        p(&cx.tracer.durations_ms("zoo.predictions"), 50.0),
        "ms",
    );
    cx.metric(
        "proxy.leep_ms.p50",
        p(&cx.tracer.durations_ms("proxy.leep"), 50.0),
        "ms",
    );
    cx.metric(
        "select.fine_ms.p50",
        p(&span_ms(trace, "select.fine"), 50.0),
        "ms",
    );
    cx.metric(
        "select.train_calls_per_exec",
        stats::mean(&cx.tracer.counts("select.train_calls")).unwrap_or(0.0),
        "count",
    );
    cx.metric(
        "zoo.train_ms.p50",
        p(&cx.tracer.durations_ms("zoo.train"), 50.0),
        "ms",
    );

    // Offline layers: spans of the traced build, plus direct ANN calls on
    // the same performance vectors.
    cx.metric(
        "offline.simulate_s",
        cx.tracer.total_s("offline.simulate"),
        "s",
    );
    cx.metric(
        "offline.similarity_s",
        span_s(offline, "offline.similarity"),
        "s",
    );
    cx.metric("offline.cluster_s", span_s(offline, "offline.cluster"), "s");
    cx.metric("offline.trends_s", span_s(offline, "offline.trends"), "s");
    let config = AnnConfig {
        mode: AnnMode::Indexed,
        ..AnnConfig::default()
    };
    let vectors = cx.artifacts.matrix.model_vectors();
    let sim_top_k = OfflineConfig::default().similarity_top_k;
    let t = Instant::now();
    let index = cx
        .tracer
        .span("ann.index_build", None, None, |_| {
            AnnIndex::build(vectors, sim_top_k, &config)
        })
        .map_err(io_err)?;
    let ann_index_s = secs(t);
    let t = Instant::now();
    let lists = cx.tracer.span("ann.knn_lists", None, None, |_| {
        index.knn_lists(
            config.k,
            config.ef_search,
            offline_config(AnnMode::Indexed).parallel.resolve(),
        )
    });
    let knn_s = secs(t);
    std::hint::black_box(lists);
    cx.metric("offline.ann_index_s", ann_index_s, "s");
    cx.metric("offline.knn_s", knn_s, "s");
    let sizes = cx.artifacts.clustering.cluster_sizes();
    cx.metric("offline.clusters", sizes.len() as f64, "count");
    cx.metric(
        "offline.non_singleton",
        sizes.iter().filter(|&&n| n > 1).count() as f64,
        "count",
    );
    cx.metric("artifact.bytes", artifact_bytes as f64, "bytes");
    cx.metric("artifact.serialize_s", serialize_s, "s");
    cx.metric("store.commit_s", commit_s, "s");
    cx.metric("store.read_s", load.read_s, "s");
    cx.metric("world.parse_s", load.world_parse_s, "s");
    cx.metric("artifact.parse_s", load.artifact_parse_s, "s");
    cx.metric(
        "bench.send_lag_p99_ms",
        p(&traced.phase.lags_ms(), 99.0),
        "ms",
    );
    let p50 = |r: &PhaseReport| finite_ms(stats::percentile(&r.latencies_ms(), 50.0));
    cx.metric(
        "bench.trace_overhead_ms",
        p50(&traced.phase) - p50(untraced),
        "ms",
    );
    Ok(())
}
