//! One benchmark run: set up the loopback stack, drive the mechanisms
//! for the run length, restart the tenant, check every output, and turn
//! what was measured into the end-to-end or per-layer metrics.
//!
//! The stack is the deployment path end to end, in one process:
//! `GenericClientCollector` (per-user `UserClient` perturbation) →
//! [`NetSink`] → `NetClient` → loopback TCP → `NetServer` → admission →
//! tenant dispatcher → `IngestService` (pool, shards, kernels, WAL).
//! Load is a closed loop: each driver thread runs its mechanism one
//! timestamp at a time and waits for every round's estimate.
//!
//! A run repeats one *episode* until its time is used up: fresh drivers
//! (new connections, sessions, clients and mechanisms) run the workload's
//! seeded stream for a fixed number of timestamps against the long-lived
//! server and tenant. Every episode does the same work, so a faster
//! program runs more episodes, never different ones, and every metric
//! compares like with like across commits. Episodes advance in blocks;
//! the tenant is checkpointed between blocks (outside the timed region),
//! so the restart at the end always replays exactly one block of WAL on
//! top of a snapshot.

use crate::probe::{self, same_estimate, ProbeResult};
use crate::sink::{CapturedRound, NetSink, SinkCounters};
use crate::trace::{self, Span, Trace};
use crate::workload::{driver_seeds, Workload};
use ldp_ids::collector::{CollectorStats, ReportScope, RoundCollector, RoundEstimate};
use ldp_ids::protocol::{ClientCollector, GenericClientCollector};
use ldp_ids::{CoreError, MechanismConfig, Release, StreamMechanism};
use ldp_net::{AdmissionSnapshot, ClientStats, NetClient, NetServer, ServerConfig};
use ldp_obs::{HistogramSnapshot, MetricSample, MetricValue};
use ldp_service::{IngestService, ServiceConfig, SessionId, TenantRegistry, TenantSpec};
use ldp_util::stats::{mean, quantile};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The tenant every workload drives.
pub const TENANT: &str = "bench";

/// Responses per `SubmitBatch` frame: the service's own default batch
/// size, so a Taxi round (N = 10 357) travels as three pipelined frames.
pub const BATCH_SIZE: usize = 4096;

/// Largest share of a driver's step wall time in an episode, as the
/// driver's own clock measures it, that the layer spans' self times may
/// leave uncovered. It bounds the sum over the episode's steps, not each
/// step: a step of a few hundred microseconds can lose a tenth of itself
/// to one scheduler preemption outside every span.
pub const UNATTRIBUTED_BOUND: f64 = 0.05;

/// Set-ups per untraced run; the median is `setup_s`.
const SETUP_REPEATS: usize = 15;

/// Tenant restarts per run; the median is `restart_s`.
const RESTART_REPEATS: usize = 3;

/// Reports the traced run keeps (whole rounds) for the offline layer
/// probes.
const CAPTURE_REPORTS: u64 = 200_000;

/// Timestamps `mre` is measured over. The seed's in-process reference
/// run, which the gate pins bit-identical to the wire releases over each
/// episode, continues past the episode to here, outside the timed region.
/// Over one 400-timestamp Taxi episode the error spread 0.17 (IQR ÷
/// median) between seeds; over 2000 it spread 0.05.
const MRE_STEPS: usize = 2000;

/// How one run is sized. [`Options::new`] gives the benchmark's settings;
/// the self-tests shrink the population and the episode.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: seeds every stream and every collector.
    pub seed: u64,
    /// Timed run length in seconds (at least one episode runs).
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Population (the workload's own unless shrunk for tests).
    pub population: u64,
    /// Timestamps per episode.
    pub episode_steps: usize,
    /// Timestamps per block (checkpoint cadence of durable tenants).
    pub block_steps: usize,
    /// Drop this response (0-based, first driver of every episode)
    /// instead of sending it: the fault the gate self-test injects.
    pub drop_response: Option<u64>,
    /// Scratch directory for tenant WALs and trace output.
    pub out_dir: PathBuf,
}

impl Options {
    /// The benchmark's settings for `workload`.
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        out_dir: PathBuf,
    ) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            population: workload.population(),
            episode_steps: workload.episode_steps(),
            block_steps: 200,
            drop_response: None,
            out_dir,
        }
    }

    fn config(&self) -> MechanismConfig {
        self.workload.config(self.population)
    }

    fn service_config(&self) -> ServiceConfig {
        ServiceConfig::default().with_sync(self.workload.wal_sync())
    }
}

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result line of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Rounds attempted.
    pub attempted: u64,
    /// Rounds that failed (any RPC error, retry, reconnect, timeout,
    /// overload rejection, admission shed or client refusal).
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Why the gate failed, one entry per mismatch.
    pub mismatches: Vec<String>,
    /// Facts about the run worth printing next to the result.
    pub notes: Vec<(String, String)>,
}

// ---------------------------------------------------------------------
// the stack

/// A `RoundCollector` view that wraps every `collect` in a span.
struct Traced<'a> {
    inner: &'a mut GenericClientCollector<NetSink>,
    trace: &'a Trace,
}

impl RoundCollector for Traced<'_> {
    fn population(&self) -> u64 {
        self.inner.population()
    }

    fn domain_size(&self) -> usize {
        self.inner.domain_size()
    }

    fn begin_step(&mut self) -> Result<(), CoreError> {
        self.inner.begin_step()
    }

    fn collect(&mut self, scope: ReportScope, epsilon: f64) -> Result<RoundEstimate, CoreError> {
        let inner = &mut *self.inner;
        self.trace
            .span("client.collect", || inner.collect(scope, epsilon))
    }

    fn stats(&self) -> CollectorStats {
        self.inner.stats()
    }
}

/// One driver: a mechanism over its own collector, connection and
/// session, for one episode.
struct Driver {
    collector: GenericClientCollector<NetSink>,
    mechanism: Box<dyn StreamMechanism>,
    trace: Trace,
    releases: Vec<Release>,
    latencies_ns: Vec<u64>,
    block_start_uplink: u64,
    error: Option<String>,
}

impl Driver {
    /// Run the episode's next `n` timestamps.
    fn run_block(&mut self, n: usize) {
        self.block_start_uplink = self.collector.stats().uplink_reports;
        for _ in 0..n {
            let t = self.releases.len();
            self.trace.set_request(t as u64);
            let trace = self.trace.clone();
            let collector = &mut self.collector;
            let mechanism = &mut self.mechanism;
            let start = Instant::now();
            let released = trace.span("step", || {
                trace.span("stream.begin_step", || collector.begin_step())?;
                let mut traced = Traced {
                    inner: collector,
                    trace: &trace,
                };
                trace.span("mechanism.step", || mechanism.step(&mut traced))
            });
            let elapsed = start.elapsed().as_nanos() as u64;
            match released {
                Ok(release) => {
                    self.releases.push(release);
                    self.latencies_ns.push(elapsed);
                }
                Err(e) => {
                    self.error = Some(format!("timestamp {t}: {e}"));
                    return;
                }
            }
        }
    }
}

/// The long-lived side: tenant registry, service and server.
struct Server {
    registry: TenantRegistry,
    server: NetServer,
    service: Arc<IngestService>,
    dir: PathBuf,
}

impl Server {
    fn start(opts: &Options, dir: PathBuf) -> Result<Server, String> {
        let registry = TenantRegistry::new();
        let spec = TenantSpec::durable(TENANT, opts.service_config(), &dir);
        let service = registry
            .register(spec)
            .map_err(|e| format!("register tenant: {e}"))?;
        let server = NetServer::start("127.0.0.1:0", &registry, ServerConfig::default())
            .map_err(|e| format!("start server: {e}"))?;
        Ok(Server {
            registry,
            server,
            service,
            dir,
        })
    }

    /// One episode's drivers: a connection, collector (with all N user
    /// clients) and mechanism per session.
    fn drivers(&self, opts: &Options, trace: bool, capture: bool) -> Result<Vec<Driver>, String> {
        let w = opts.workload;
        let config = opts.config();
        let addr = self.server.addr().to_string();
        // Let the server's freshly spawned accept thread reach its first
        // poll before connecting, as it has long done when a real client
        // arrives; otherwise whether a set-up skips one 5 ms accept-poll
        // sleep depends on which thread the scheduler ran first.
        std::thread::yield_now();
        (0..w.sessions())
            .map(|i| {
                let (stream_seed, collector_seed) = driver_seeds(opts.seed, i);
                let source = w.dataset(opts.population).build(stream_seed);
                let mechanism = w
                    .mechanism()
                    .build(&config)
                    .map_err(|e| format!("build mechanism: {e}"))?;
                let client = NetClient::connect(addr.clone(), TENANT)
                    .map_err(|e| format!("connect: {e}"))?;
                let trace = if trace { Trace::on() } else { Trace::off() };
                let mut sink = NetSink::new(client, BATCH_SIZE, trace.clone());
                if capture {
                    sink = sink.capture_up_to(CAPTURE_REPORTS);
                }
                if let (0, Some(n)) = (i, opts.drop_response) {
                    sink = sink.dropping_response(n);
                }
                let collector =
                    GenericClientCollector::with_sink(source, &config, collector_seed, sink);
                Ok(Driver {
                    collector,
                    mechanism,
                    trace,
                    releases: Vec::new(),
                    latencies_ns: Vec::new(),
                    block_start_uplink: 0,
                    error: None,
                })
            })
            .collect()
    }

    /// Tear down in dependency order: the server (its connections end
    /// with their drivers, which must already be dropped), then the
    /// service and its WAL.
    fn shutdown(self) {
        self.server.shutdown();
        drop(self.service);
        drop(self.registry);
    }
}

enum Budget {
    Seconds(f64),
    Episodes(usize),
}

/// Everything kept from a driven server once it is torn down.
#[derive(Default)]
struct Pass {
    episodes: usize,
    steps: usize,
    wall: Duration,
    latencies_ns: Vec<u64>,
    uplink: u64,
    /// First episode's uplink reports, summed over drivers.
    episode_uplink: u64,
    /// Uplink reports of the latest episode's last block, summed over
    /// drivers: the reports behind the WAL left on disk, since every
    /// block starts with a checkpoint that retires the WAL before it.
    last_block_reports: u64,
    publications: u64,
    /// Step wall time the layer spans leave uncovered, summed over
    /// traced steps (see [`trace::unattributed_ns`]).
    unattributed_ns: u64,
    counters: SinkCounters,
    client: ClientStats,
    sessions: Vec<(u64, Option<(u64, RoundEstimate)>)>,
    captured: Vec<Vec<CapturedRound>>,
    spans: Vec<Vec<Span>>,
    samples: Vec<MetricSample>,
    admission: AdmissionSnapshot,
    /// Transport and mechanism errors met while driving.
    errors: Vec<String>,
    /// Episodes whose releases differ from the in-process reference.
    mismatches: Vec<String>,
    dir: PathBuf,
    peak_rss_kb: u64,
}

impl Pass {
    /// Fold one finished episode in; its releases are checked against
    /// the in-process reference here, between episodes, outside the
    /// timed region.
    fn absorb(&mut self, drivers: Vec<Driver>, reference: &[Vec<Release>]) {
        let first = self.episodes == 0;
        self.last_block_reports = 0;
        for (i, mut d) in drivers.into_iter().enumerate() {
            let stats = d.collector.stats();
            let sink = d.collector.sink();
            let c = sink.counters();
            self.counters.rounds += c.rounds;
            self.counters.failed_rounds += c.failed_rounds;
            self.counters.submit_frames += c.submit_frames;
            let cs = sink.client_stats();
            self.client.retries += cs.retries;
            self.client.reconnects += cs.reconnects;
            self.client.timeouts += cs.timeouts;
            self.client.overloaded += cs.overloaded;
            self.sessions
                .push((sink.session(), sink.last_closed().cloned()));
            if first {
                self.captured.push(sink.captured().to_vec());
            }
            if let Some(e) = sink.error() {
                self.errors.push(e.to_string());
            }
            if let Some(e) = d.error.take() {
                self.errors.push(e);
            }
            let want = reference.get(i).map_or(&[][..], Vec::as_slice);
            if d.releases.len() != want.len() {
                self.mismatches.push(format!(
                    "episode {}: driver {i} released {} of {} timestamps",
                    self.episodes,
                    d.releases.len(),
                    want.len()
                ));
            } else if let Some(t) = d
                .releases
                .iter()
                .zip(want)
                .position(|(g, w)| !same_release(g, w))
            {
                self.mismatches.push(format!(
                    "episode {}: driver {i} release at timestamp {t} differs from the in-process reference",
                    self.episodes
                ));
            }
            self.uplink += stats.uplink_reports;
            self.last_block_reports += stats.uplink_reports - d.block_start_uplink;
            self.publications += d.mechanism.publications();
            let spans = d.trace.spans();
            if !spans.is_empty() {
                let gap: u64 = trace::unattributed_ns(&spans, &d.latencies_ns).iter().sum();
                let wall: u64 = d.latencies_ns.iter().sum();
                if gap as f64 > UNATTRIBUTED_BOUND * wall as f64 {
                    self.mismatches.push(format!(
                        "episode {}: driver {i}: layer spans leave {gap} of {wall} ns of step time unattributed (bound {UNATTRIBUTED_BOUND})",
                        self.episodes
                    ));
                }
                self.unattributed_ns += gap;
            }
            self.latencies_ns.extend_from_slice(&d.latencies_ns);
            self.spans.push(spans);
            if first {
                self.episode_uplink += stats.uplink_reports;
            }
        }
        self.episodes += 1;
    }
}

/// Drive episodes on `server` until `budget` is used up, starting with
/// `first` (already built) when given. With `trace`, every driver
/// records spans and the first episode captures rounds for the probes.
fn drive(
    server: Server,
    first: Option<Vec<Driver>>,
    opts: &Options,
    budget: Budget,
    trace: bool,
    reference: &[Vec<Release>],
) -> Result<Pass, String> {
    let mut pass = Pass {
        dir: server.dir.clone(),
        ..Pass::default()
    };
    let mut first = first;
    let mut blocks = 0usize;
    loop {
        let mut drivers = match first.take() {
            Some(d) => d,
            None => server.drivers(opts, trace, trace && pass.episodes == 0)?,
        };
        let mut done = 0;
        while done < opts.episode_steps && pass.errors.is_empty() {
            if blocks > 0 {
                if let Err(e) = server.service.checkpoint() {
                    pass.errors.push(format!("checkpoint: {e}"));
                    break;
                }
            }
            let n = opts.block_steps.min(opts.episode_steps - done);
            let start = Instant::now();
            std::thread::scope(|s| {
                for d in drivers.iter_mut() {
                    s.spawn(move || d.run_block(n));
                }
            });
            pass.wall += start.elapsed();
            done += n;
            blocks += 1;
            if drivers.iter().any(|d| d.error.is_some()) {
                break;
            }
        }
        pass.steps += done;
        if pass.episodes == 0 {
            pass.peak_rss_kb = peak_rss_kb();
        }
        pass.absorb(drivers, reference);
        let stop = !pass.errors.is_empty()
            || !pass.mismatches.is_empty()
            || match budget {
                Budget::Episodes(n) => pass.episodes >= n,
                Budget::Seconds(limit) => {
                    let per_episode = pass.wall / pass.episodes as u32;
                    (pass.wall + per_episode).as_secs_f64() > limit
                }
            };
        if stop {
            break;
        }
    }
    pass.samples = server.registry.metrics().snapshot();
    pass.admission = server.server.admission_snapshot(TENANT).unwrap_or_default();
    server.shutdown();
    Ok(pass)
}

// ---------------------------------------------------------------------
// measurements read from outside the layers

/// The process's peak resident set (`VmHWM`), in KiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn has_labels(s: &MetricSample, labels: &[(&str, &str)]) -> bool {
    labels.iter().all(|(k, v)| s.label(k) == Some(v))
}

fn counter(samples: &[MetricSample], name: &str, labels: &[(&str, &str)]) -> u64 {
    samples
        .iter()
        .filter(|s| s.name == name && has_labels(s, labels))
        .map(|s| match &s.value {
            MetricValue::Counter(v) => *v,
            _ => 0,
        })
        .sum()
}

fn histogram(samples: &[MetricSample], name: &str, labels: &[(&str, &str)]) -> HistogramSnapshot {
    let mut out: Option<HistogramSnapshot> = None;
    for s in samples
        .iter()
        .filter(|s| s.name == name && has_labels(s, labels))
    {
        if let MetricValue::Histogram(h) = &s.value {
            match &mut out {
                Some(acc) => acc.merge(h),
                None => out = Some(h.clone()),
            }
        }
    }
    out.unwrap_or_else(|| ldp_obs::Histogram::new().snapshot())
}

fn hist_mean(h: &HistogramSnapshot) -> f64 {
    if h.count == 0 {
        0.0
    } else {
        h.sum as f64 / h.count as f64
    }
}

fn dir_bytes(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// restart

/// What restarting the tenant found.
#[derive(Debug, Default)]
struct Restart {
    times_s: Vec<f64>,
    replay_s: Vec<f64>,
    records_replayed: u64,
    mismatches: Vec<String>,
}

/// Reopen the run's tenant [`RESTART_REPEATS`] times after shutdown, each
/// time from a fresh copy of its directory, timing the registration
/// (`IngestService::open`: snapshot load, WAL replay, and verification of
/// every logged close). Each reopened service must report no corrupt
/// tail and return every session's last closed estimate bit for bit.
fn restart(opts: &Options, pass: &Pass, work: &Path) -> Restart {
    let mut out = Restart::default();
    for i in 0..RESTART_REPEATS {
        let copy = work.join(format!("restart-{i}"));
        if let Err(e) = copy_dir(&pass.dir, &copy) {
            out.mismatches
                .push(format!("restart: copy tenant dir: {e}"));
            return out;
        }
        let registry = TenantRegistry::new();
        let spec = TenantSpec::durable(TENANT, opts.service_config(), &copy);
        let start = Instant::now();
        let registered = registry.register(spec);
        out.times_s.push(start.elapsed().as_secs_f64());
        let service = match registered {
            Ok(service) => service,
            Err(e) => {
                out.mismatches.push(format!("restart: reopen tenant: {e}"));
                return out;
            }
        };
        match service.recovery_report() {
            Some(report) => {
                out.records_replayed = report.wal_records_replayed;
                if let Some(tail) = &report.corrupt_tail {
                    out.mismatches
                        .push(format!("restart: corrupt WAL tail: {tail}"));
                }
            }
            None => out.mismatches.push("restart: no recovery report".into()),
        }
        let replay = histogram(&registry.metrics().snapshot(), "ldp_replay_ns", &[]);
        out.replay_s.push(replay.sum as f64 / 1e9);
        for (session, last) in &pass.sessions {
            let Some((round, want)) = last else { continue };
            match service.close_round_at(SessionId::from_raw(*session), *round) {
                Ok(got) if same_estimate(&got, want) => {}
                Ok(_) => out.mismatches.push(format!(
                    "restart: session {session} round {round} estimate changed"
                )),
                Err(e) => out
                    .mismatches
                    .push(format!("restart: session {session} round {round}: {e}")),
            }
        }
        drop(service);
        drop(registry);
        let _ = std::fs::remove_dir_all(copy);
    }
    out
}

// ---------------------------------------------------------------------
// correctness gates

fn same_release(a: &Release, b: &Release) -> bool {
    a.t == b.t
        && a.kind == b.kind
        && a.frequencies.len() == b.frequencies.len()
        && a.frequencies
            .iter()
            .zip(&b.frequencies)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Every driver's releases from the same seeded mechanism over the
/// in-process `ClientCollector`, for [`MRE_STEPS`] timestamps or one
/// episode, whichever is longer.
fn reference(opts: &Options) -> Result<Vec<Vec<Release>>, String> {
    let w = opts.workload;
    let config = opts.config();
    (0..w.sessions())
        .map(|i| {
            let (stream_seed, collector_seed) = driver_seeds(opts.seed, i);
            let source = w.dataset(opts.population).build(stream_seed);
            let mut collector = ClientCollector::new(source, &config, collector_seed);
            let mut mechanism = w.mechanism().build(&config).map_err(|e| e.to_string())?;
            (0..MRE_STEPS.max(opts.episode_steps))
                .map(|_| {
                    collector.begin_step()?;
                    mechanism.step(&mut collector)
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("reference run: {e}"))
        })
        .collect()
}

/// Mean relative error of every driver's reference releases against its
/// true stream.
fn reference_mre(opts: &Options, reference: &[Vec<Release>]) -> f64 {
    let mut released = Vec::new();
    let mut truth = Vec::new();
    for (i, releases) in reference.iter().enumerate() {
        released.extend(releases.iter().map(|r| r.frequencies.clone()));
        let (stream_seed, _) = driver_seeds(opts.seed, i);
        let mut source = opts.workload.dataset(opts.population).build(stream_seed);
        truth.extend((0..releases.len()).map(|_| source.next_histogram().frequencies()));
    }
    ldp_metrics::mre(&released, &truth, ldp_metrics::DEFAULT_MRE_FLOOR)
}

/// The gates every pass must meet: no transport error, every episode's
/// releases f64-bit-identical to the in-process reference (checked as
/// the episodes end), and the service's accumulated-report counter equal
/// to the collectors' uplink reports.
fn gate_pass(label: &str, pass: &Pass, out: &mut Vec<String>) {
    for e in pass.errors.iter().chain(&pass.mismatches) {
        out.push(format!("{label}: {e}"));
    }
    let accumulated = counter(
        &pass.samples,
        "ldp_reports_accumulated_total",
        &[("tenant", TENANT)],
    );
    if accumulated != pass.uplink {
        out.push(format!(
            "{label}: service accumulated {accumulated} reports, collectors sent {}",
            pass.uplink
        ));
    }
}

// ---------------------------------------------------------------------
// the run

/// Run `opts`, returning the result line.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let work = opts.out_dir.join(format!(
        "run-{}-{}-{}",
        opts.workload.name(),
        opts.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = run_in(opts, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(opts: &Options, work: &Path) -> Result<Outcome, String> {
    if opts.episode_steps == 0 || opts.block_steps == 0 {
        return Err("episodes and blocks need at least one timestamp".into());
    }
    let reference = reference(opts)?;
    let episode: Vec<Vec<Release>> = reference
        .iter()
        .map(|r| r[..opts.episode_steps].to_vec())
        .collect();
    let mut mismatches = Vec::new();
    let mut notes = Vec::new();
    let (metrics, pass) = if !opts.trace {
        // Set the whole stack up several times; the last one runs.
        let mut setup_s = Vec::new();
        let mut built: Option<(Server, Vec<Driver>)> = None;
        for i in 0..SETUP_REPEATS {
            if let Some((server, drivers)) = built.take() {
                drop(drivers);
                server.shutdown();
            }
            let start = Instant::now();
            let server = Server::start(opts, work.join(format!("setup-{i}")))?;
            let drivers = server.drivers(opts, false, false)?;
            setup_s.push(start.elapsed().as_secs_f64());
            built = Some((server, drivers));
        }
        let (server, drivers) = built.expect("at least one set-up");
        notes.push(("loopback".into(), server.server.addr().to_string()));
        let pass = drive(
            server,
            Some(drivers),
            opts,
            Budget::Seconds(opts.seconds),
            false,
            &episode,
        )?;
        let restart = restart(opts, &pass, work);
        mismatches.extend(restart.mismatches.iter().cloned());
        gate_pass("run", &pass, &mut mismatches);
        let mre = reference_mre(opts, &reference);
        (end_to_end(opts, &pass, &setup_s, &restart, mre), pass)
    } else {
        // An untraced pass for half the time, then a traced pass over
        // as many episodes: the per-layer numbers come from the second,
        // the tracing overhead from comparing the two.
        let server = Server::start(opts, work.join("untraced"))?;
        notes.push(("loopback".into(), server.server.addr().to_string()));
        let untraced = drive(
            server,
            None,
            opts,
            Budget::Seconds(opts.seconds / 2.0),
            false,
            &episode,
        )?;
        let server = Server::start(opts, work.join("traced"))?;
        let traced = drive(
            server,
            None,
            opts,
            Budget::Episodes(untraced.episodes),
            true,
            &episode,
        )?;
        let restart = restart(opts, &traced, work);
        mismatches.extend(restart.mismatches.iter().cloned());
        gate_pass("untraced", &untraced, &mut mismatches);
        gate_pass("traced", &traced, &mut mismatches);
        let probe = probe::run(&traced.captured, opts.service_config());
        mismatches.extend(probe.mismatches.iter().map(|m| format!("probe: {m}")));
        let path = opts.out_dir.join(format!(
            "trace-{}-{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        trace::write_file(&path, &traced.spans)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        notes.push(("trace_file".into(), path.display().to_string()));
        let metrics = per_layer(opts, &untraced, &traced, &restart, &probe);
        (metrics, traced)
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        mismatches.push(format!("metric {} is not finite", m.name));
    }
    notes.push(("episodes".into(), pass.episodes.to_string()));
    notes.push(("steps_per_driver".into(), pass.steps.to_string()));
    notes.push(("wall_s".into(), format!("{:.6}", pass.wall.as_secs_f64())));
    notes.push(("drivers".into(), opts.workload.sessions().to_string()));
    let failed =
        pass.counters.failed_rounds.max(pass.admission.shed_total()) + pass.errors.len() as u64;
    Ok(Outcome {
        correct: mismatches.is_empty(),
        attempted: pass.counters.rounds.max(1),
        failed,
        metrics,
        mismatches,
        notes,
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn end_to_end(
    opts: &Options,
    pass: &Pass,
    setup_s: &[f64],
    restart: &Restart,
    mre: f64,
) -> Vec<Metric> {
    let latencies_ms: Vec<f64> = pass
        .latencies_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let users_steps =
        (opts.population * (opts.episode_steps * opts.workload.sessions()) as u64) as f64;
    vec![
        metric(
            "reports_per_s",
            pass.uplink as f64 / pass.wall.as_secs_f64(),
            "reports/s",
        ),
        metric("release_ms_p50", quantile(&latencies_ms, 0.5), "ms"),
        metric("release_ms_p95", quantile(&latencies_ms, 0.95), "ms"),
        metric("mre", mre, "ratio"),
        metric(
            "cfpu",
            pass.episode_uplink as f64 / users_steps,
            "report/user/step",
        ),
        metric("setup_s", quantile(setup_s, 0.5), "s"),
        metric("restart_s", quantile(&restart.times_s, 0.5), "s"),
        metric("peak_rss_mb", pass.peak_rss_kb as f64 / 1024.0, "MB"),
    ]
}

/// Span durations and summed self times, by span name, over every lane.
struct SpanTable {
    durations: std::collections::BTreeMap<&'static str, Vec<f64>>,
    self_ns: std::collections::BTreeMap<&'static str, u64>,
}

impl SpanTable {
    fn new(lanes: &[Vec<Span>]) -> SpanTable {
        let mut durations = std::collections::BTreeMap::new();
        let mut self_ns = std::collections::BTreeMap::new();
        for spans in lanes {
            for (s, own) in spans.iter().zip(trace::self_times(spans)) {
                durations
                    .entry(s.name)
                    .or_insert_with(Vec::new)
                    .push(s.duration_ns() as f64);
                *self_ns.entry(s.name).or_insert(0) += own;
            }
        }
        SpanTable { durations, self_ns }
    }

    fn durations(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    fn self_ns(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64
    }
}

fn per_layer(
    opts: &Options,
    untraced: &Pass,
    traced: &Pass,
    restart: &Restart,
    probe: &ProbeResult,
) -> Vec<Metric> {
    let spans = SpanTable::new(&traced.spans);
    let samples = &traced.samples;
    let tenant = [("tenant", TENANT)];
    let rpc = |op: &str| histogram(samples, "ldp_net_rpc_ns", &[("tenant", TENANT), ("op", op)]);
    let (open, submit, close) = (rpc("open_round"), rpc("submit_batch"), rpc("close_round"));
    let rpc_busy_ns: u64 = ["hello", "open_round", "submit_batch", "close_round"]
        .iter()
        .map(|op| rpc(op).sum)
        .sum();
    let wall_ns = traced.wall.as_nanos() as f64;
    let drivers = opts.workload.sessions() as f64;
    let total_steps = (traced.steps * opts.workload.sessions()) as f64;
    let uplink = traced.uplink.max(1) as f64;
    let client_self = spans.self_ns("client.collect");
    let close_ms = |q: f64| quantile(spans.durations("net.close_round"), q) / 1e6;
    let close_mean_ns = mean(spans.durations("net.close_round"));

    let step_ns: u64 = traced.latencies_ns.iter().sum();
    let unattributed = traced.unattributed_ns as f64 / step_ns.max(1) as f64;

    let append = histogram(samples, "ldp_wal_append_ns", &tenant);
    let fsync = histogram(samples, "ldp_wal_fsync_ns", &tenant);
    let last_block = traced.last_block_reports.max(1) as f64;
    let wal_bytes = dir_bytes(&traced.dir, "wal-") as f64;
    let replay_s = quantile(&restart.replay_s, 0.5);
    let replay_rate = if replay_s > 0.0 {
        traced.last_block_reports as f64 / replay_s
    } else {
        0.0
    };
    let untraced_per_step = untraced.wall.as_secs_f64() / untraced.steps.max(1) as f64;
    let traced_per_step = traced.wall.as_secs_f64() / traced.steps.max(1) as f64;

    vec![
        metric(
            "stream.begin_step_ms_mean",
            mean(spans.durations("stream.begin_step")) / 1e6,
            "ms",
        ),
        metric("client.perturb_ns_per_report", client_self / uplink, "ns"),
        metric(
            "client.busy_share",
            client_self / (wall_ns * drivers),
            "fraction",
        ),
        metric(
            "mechanism.self_us_per_step",
            spans.self_ns("mechanism.step") / total_steps / 1e3,
            "us",
        ),
        metric(
            "mechanism.rounds_per_step",
            traced.counters.rounds as f64 / total_steps,
            "rounds/step",
        ),
        metric(
            "mechanism.publish_ratio",
            traced.publications as f64 / total_steps,
            "fraction",
        ),
        metric(
            "net.open_round_us_p50",
            quantile(spans.durations("net.open_round"), 0.5) / 1e3,
            "us",
        ),
        metric(
            "net.submit_batch_us_mean",
            mean(spans.durations("net.submit_batch")) / 1e3,
            "us",
        ),
        metric(
            "net.submit_frames",
            traced.counters.submit_frames as f64,
            "count",
        ),
        metric("net.close_round_ms_p50", close_ms(0.5), "ms"),
        metric("net.close_round_ms_p95", close_ms(0.95), "ms"),
        metric("net.retries", traced.client.retries as f64, "count"),
        metric("net.reconnects", traced.client.reconnects as f64, "count"),
        metric("net.timeouts", traced.client.timeouts as f64, "count"),
        metric("net.overloaded", traced.client.overloaded as f64, "count"),
        metric(
            "net.close_wait_ms_mean",
            (close_mean_ns - hist_mean(&close)) / 1e6,
            "ms",
        ),
        metric("server.open_service_us_mean", hist_mean(&open) / 1e3, "us"),
        metric(
            "server.submit_service_us_mean",
            hist_mean(&submit) / 1e3,
            "us",
        ),
        metric(
            "server.close_service_us_mean",
            hist_mean(&close) / 1e3,
            "us",
        ),
        metric(
            "server.dispatch_busy_share",
            rpc_busy_ns as f64 / wall_ns,
            "fraction",
        ),
        metric(
            "admission.shed_total",
            traced.admission.shed_total() as f64,
            "count",
        ),
        metric(
            "service.reports_accumulated",
            counter(samples, "ldp_reports_accumulated_total", &tenant) as f64,
            "count",
        ),
        metric(
            "service.ingest_ns_per_report",
            probe.ingest_ns_per_report,
            "ns",
        ),
        metric("wal.append_us_mean", hist_mean(&append) / 1e3, "us"),
        metric("wal.fsync_us_mean", hist_mean(&fsync) / 1e3, "us"),
        metric(
            "wal.fsyncs_per_record",
            fsync.count as f64 / append.count.max(1) as f64,
            "fsyncs/record",
        ),
        metric("wal.bytes_per_report", wal_bytes / last_block, "B/report"),
        metric(
            "recovery.records_replayed",
            restart.records_replayed as f64,
            "count",
        ),
        metric("recovery.replay_reports_per_s", replay_rate, "reports/s"),
        metric(
            "codec.encode_ns_per_report",
            probe.encode_ns_per_report,
            "ns",
        ),
        metric(
            "codec.decode_ns_per_report",
            probe.decode_ns_per_report,
            "ns",
        ),
        metric("codec.bytes_per_report", probe.bytes_per_report, "B/report"),
        metric(
            "fo.accumulate_ns_per_report",
            probe.accumulate_ns_per_report,
            "ns",
        ),
        metric("trace.unattributed_share", unattributed, "fraction"),
        metric(
            "trace.overhead_share",
            traced_per_step / untraced_per_step - 1.0,
            "fraction",
        ),
    ]
}
