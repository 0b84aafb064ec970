//! Loopback throughput of the network frontend (`BENCH_net.json`).
//!
//! Pre-perturbs one round's worth of reports (10⁶ at paper scale, the
//! same report set as `BENCH_throughput.json`), then drives it over a
//! real TCP loopback: `NetClient` → frames → `NetServer` connection
//! thread → `IngestService`. Sweeping the client count splits the
//! identical report set across that many concurrent connections, each
//! bound to its own tenant, so the sweep exposes the frontend's
//! concurrency behavior — while every closed round is still asserted
//! **bit-identical** to the sequential in-process estimate.
//!
//! Compared against `BENCH_throughput.json` (same report set, no wire),
//! the gap is the price of framing, checksums, and socket hops.

use crate::hostmeta::HostMeta;
use crate::scale::RunScale;
use ldp_fo::{build_oracle, FoKind, OracleHandle};
use ldp_ids::protocol::{AggregationServer, UserResponse};
use ldp_metrics::Table;
use ldp_net::{ClientOptions, NetClient, NetServer, ServerConfig};
use ldp_obs::{HistogramSnapshot, MetricValue, MetricsRegistry, Scope};
use ldp_service::{ServiceConfig, TenantRegistry, TenantSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Concurrent client counts the sweep measures.
pub const CLIENT_SWEEP: [usize; 3] = [1, 2, 4];

/// Reports per round at each scale (same as the in-process throughput
/// sweep, so the two artifacts are directly comparable).
pub fn reports_per_round(scale: RunScale) -> u64 {
    super::throughput::reports_per_round(scale)
}

/// Client-observed RPC latency quantiles in nanoseconds, read from the
/// shared [`ldp_obs`] registry (`ldp_client_rpc_ns`) rather than
/// hand-rolled timers — the same series a live scrape sees.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyBlock {
    /// Median RPC latency (ns).
    pub p50: u64,
    /// 95th-percentile RPC latency (ns).
    pub p95: u64,
    /// 99th-percentile RPC latency (ns).
    pub p99: u64,
    /// Slowest observed RPC (ns, exact).
    pub max: u64,
}

impl LatencyBlock {
    fn from_snapshot(h: &HistogramSnapshot) -> LatencyBlock {
        LatencyBlock {
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
            max: h.max,
        }
    }
}

/// Read the merged `ldp_client_rpc_ns` histogram out of `registry`.
fn client_rpc_latency(registry: &MetricsRegistry) -> LatencyBlock {
    registry
        .snapshot()
        .into_iter()
        .find(|s| s.name == "ldp_client_rpc_ns")
        .and_then(|s| match s.value {
            MetricValue::Histogram(h) => Some(LatencyBlock::from_snapshot(&h)),
            _ => None,
        })
        .unwrap_or_default()
}

/// One measured client count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetRun {
    /// Concurrent connections (each on its own tenant).
    pub clients: usize,
    /// Wall-clock seconds for the best measured round.
    pub elapsed_secs: f64,
    /// Reports carried over the wire per second, all clients combined.
    pub reports_per_sec: f64,
    /// Per-RPC latency quantiles for the best round, merged across all
    /// clients (each submit/open/close is one RPC; retries included).
    pub latency_ns: LatencyBlock,
}

/// One fault kind driven through a `FlakyTransport` (feature `chaos`,
/// `repro chaos`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosCell {
    /// Fault kind name (`corrupt`, `truncate`, ...).
    pub fault: String,
    /// Wall-clock seconds for the full round under sustained faults.
    pub elapsed_secs: f64,
    /// Reports that reached the closed round (must equal the cell's
    /// input size — zero lost, zero duplicated).
    pub reports: u64,
    /// Faults the proxy injected during the run.
    pub faults_injected: u64,
    /// Connections the proxy carried (1 + reconnects).
    pub proxy_connections: u64,
    /// Client-side retry count (all causes), read from the client's
    /// `ldp_obs` counters.
    pub client_retries: u64,
    /// Client-side reconnect count.
    pub client_reconnects: u64,
    /// Retries caused by typed `Overloaded` rejections.
    pub client_overloaded: u64,
    /// RPC deadline expiries.
    pub client_timeouts: u64,
    /// Mean backoff slept per retry, milliseconds.
    pub mean_backoff_ms: f64,
    /// Client-observed RPC latency under sustained faults, from the
    /// same registry series as the throughput sweep.
    pub latency_ns: LatencyBlock,
    /// Whether the estimate matched the in-process reference bit for
    /// bit (the run aborts if not, so a written artifact always says
    /// `true` — recorded for the reader's benefit).
    pub bit_identical: bool,
}

/// The overload scenario: one tenant floods past its rate limit while
/// a co-tenant completes a round (feature `chaos`, `repro chaos`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadCell {
    /// Submit frames admitted for the flooding tenant.
    pub admitted: u64,
    /// Submits shed by the token bucket.
    pub shed_rate: u64,
    /// Submits shed by the in-flight quota.
    pub shed_inflight: u64,
    /// Flooding client's total retries.
    pub client_retries: u64,
    /// Flooding client's retries caused by typed `Overloaded`.
    pub client_overloaded: u64,
    /// Flooding client's mean backoff per retry, milliseconds.
    pub mean_backoff_ms: f64,
    /// The co-tenant's round closed bit-identically with zero sheds.
    pub co_tenant_ok: bool,
    /// The flooding tenant's round itself converged bit-identically.
    pub bit_identical: bool,
}

/// The chaos/overload block merged into `BENCH_net.json` by
/// `repro chaos`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Reports driven through the proxy per fault cell.
    pub reports_per_cell: u64,
    /// One entry per fault kind.
    pub cells: Vec<ChaosCell>,
    /// The two-tenant overload scenario.
    pub overload: OverloadCell,
}

/// The full sweep, as written to `BENCH_net.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetBenchReport {
    /// Artifact id ("net").
    pub id: String,
    /// Frequency oracle driving the fold.
    pub fo: String,
    /// Per-report privacy budget.
    pub epsilon: f64,
    /// Domain cardinality.
    pub domain_size: usize,
    /// Reports carried per measured round, across all clients.
    pub reports_per_round: u64,
    /// Responses per `SubmitBatch` frame.
    pub chunk_size: usize,
    /// Client pipelining window (unacked frames in flight).
    pub window: usize,
    /// Host the artifact was produced on.
    pub host: HostMeta,
    /// One entry per client count in [`CLIENT_SWEEP`].
    pub runs: Vec<NetRun>,
    /// Chaos/overload counters, populated by `repro chaos` (the
    /// throughput sweep writes `null`; the vendored serde stub has no
    /// field attributes, so the key is always present).
    pub chaos: Option<ChaosReport>,
}

impl NetBenchReport {
    /// Render the sweep as a fixed-width table.
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            "clients",
            "elapsed s",
            "reports/s",
            "p50 us",
            "p99 us",
        ]);
        for run in &self.runs {
            table.push_numeric_row(
                run.clients.to_string(),
                &[
                    run.elapsed_secs,
                    run.reports_per_sec,
                    run.latency_ns.p50 as f64 / 1e3,
                    run.latency_ns.p99 as f64 / 1e3,
                ],
                2,
            );
        }
        let mut rendered = format!(
            "== net — {} reports/round over loopback, {} d={} ε={}, chunk {}, window {} ==\n{}\n{}",
            self.reports_per_round,
            self.fo,
            self.domain_size,
            self.epsilon,
            self.chunk_size,
            self.window,
            table.render(),
            self.host.render()
        );
        if let Some(chaos) = &self.chaos {
            rendered.push('\n');
            rendered.push_str(&chaos.render());
        }
        rendered
    }

    /// Write the report as pretty JSON to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<PathBuf> {
        let json = serde_json::to_string_pretty(self).expect("net report serializes");
        std::fs::write(path, json)?;
        Ok(path.to_path_buf())
    }
}

impl ChaosReport {
    /// Render the chaos matrix and overload scenario as tables.
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            "fault",
            "elapsed s",
            "faults",
            "conns",
            "retries",
            "reconnects",
            "backoff ms",
            "p99 ms",
        ]);
        for cell in &self.cells {
            table.push_numeric_row(
                cell.fault.clone(),
                &[
                    cell.elapsed_secs,
                    cell.faults_injected as f64,
                    cell.proxy_connections as f64,
                    cell.client_retries as f64,
                    cell.client_reconnects as f64,
                    cell.mean_backoff_ms,
                    cell.latency_ns.p99 as f64 / 1e6,
                ],
                2,
            );
        }
        let o = &self.overload;
        format!(
            "-- chaos: {} reports/cell through FlakyTransport, all cells bit-identical --\n{}\n\
             -- overload: admitted {} / shed {} (rate {}, inflight {}); \
             flood retried {} ({} overloaded, mean backoff {:.1} ms); co-tenant ok: {} --",
            self.reports_per_cell,
            table.render(),
            o.admitted,
            o.shed_rate + o.shed_inflight,
            o.shed_rate,
            o.shed_inflight,
            o.client_retries,
            o.client_overloaded,
            o.mean_backoff_ms,
            o.co_tenant_ok,
        )
    }
}

/// Responses per `SubmitBatch` frame.
const CHUNK: usize = 4096;
/// Unacked frames each client keeps in flight.
const WINDOW: usize = 16;

fn assert_bit_identical(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "estimate shapes differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "estimate bits differ over the wire"
        );
    }
}

/// Drive `part` through one connection and return the closed round's
/// frequency bits for the bit-identity check.
fn drive_client(
    addr: &str,
    tenant: &str,
    fo: FoKind,
    epsilon: f64,
    domain_size: usize,
    part: &[UserResponse],
    scope: &Scope,
) -> (u64, Vec<f64>) {
    let mut client = NetClient::connect_with(
        addr.to_string(),
        tenant,
        ClientOptions::default()
            .window(WINDOW)
            .metrics(scope.clone()),
    )
    .expect("connect");
    client
        .open_round_with(0, fo, epsilon, domain_size)
        .expect("open round");
    for delta in part.chunks(CHUNK) {
        client.submit_batch(delta.to_vec()).expect("submit batch");
    }
    let estimate = client.close_round().expect("close round");
    (estimate.reporters, estimate.frequencies)
}

/// Sequential in-process estimate over the same responses — the
/// bit-identity reference.
fn sequential_reference(
    oracle: &OracleHandle,
    fo: FoKind,
    epsilon: f64,
    responses: &[UserResponse],
) -> Vec<f64> {
    let mut server = AggregationServer::new();
    server.open_round(0, fo, epsilon, oracle.clone());
    for response in responses {
        server.submit(response).expect("reference submit");
    }
    server.close_round().expect("reference close").frequencies
}

/// Run the loopback sweep at `scale`, stamping the artifact with `host`.
pub fn run(scale: RunScale, host: HostMeta) -> NetBenchReport {
    let epsilon = 1.0;
    let domain_size = 128;
    let fo = FoKind::Oue;
    let reports = reports_per_round(scale);
    let oracle = build_oracle(fo, epsilon, domain_size).expect("valid oracle");

    // Same seed as the in-process throughput sweep: identical report
    // set, so the two artifacts differ only by the wire.
    let mut rng = StdRng::seed_from_u64(0x1d9_5eed);
    let template: Vec<UserResponse> = (0..reports)
        .map(|i| UserResponse::Report {
            round: 0,
            report: oracle.perturb(i as usize % domain_size, &mut rng),
        })
        .collect();

    let mut runs = Vec::with_capacity(CLIENT_SWEEP.len());
    for clients in CLIENT_SWEEP {
        let share = template.len().div_ceil(clients);
        let parts: Vec<&[UserResponse]> = template.chunks(share).collect();
        // Per-part sequential references, computed outside the timed
        // region.
        let references: Vec<Vec<f64>> = parts
            .iter()
            .map(|part| sequential_reference(&oracle, fo, epsilon, part))
            .collect();

        let mut best_elapsed = f64::INFINITY;
        let mut best_latency = LatencyBlock::default();
        for _ in 0..2 {
            let registry = TenantRegistry::new();
            for i in 0..parts.len() {
                registry
                    .register(TenantSpec::in_memory(
                        format!("bench-{i}"),
                        ServiceConfig::with_threads(1).with_batch_size(4096),
                    ))
                    .expect("register tenant");
            }
            let server = NetServer::start("127.0.0.1:0", &registry, ServerConfig::default())
                .expect("start server");
            let addr = server.addr().to_string();
            // One fresh client-side registry per repetition: every
            // client records into the same `ldp_client_rpc_ns` series,
            // so the artifact's quantiles are merged across clients.
            let obs = Arc::new(MetricsRegistry::new());
            let client_scope = Scope::new(Arc::clone(&obs), &[]);

            let start = Instant::now();
            let results: Vec<(u64, Vec<f64>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = parts
                    .iter()
                    .enumerate()
                    .map(|(i, part)| {
                        let addr = addr.clone();
                        let client_scope = client_scope.clone();
                        scope.spawn(move || {
                            drive_client(
                                &addr,
                                &format!("bench-{i}"),
                                fo,
                                epsilon,
                                domain_size,
                                part,
                                &client_scope,
                            )
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let elapsed = start.elapsed().as_secs_f64();
            server.shutdown();

            let carried: u64 = results.iter().map(|(reporters, _)| reporters).sum();
            assert_eq!(carried, reports, "round lost reports over the wire");
            for ((_, frequencies), reference) in results.iter().zip(&references) {
                assert_bit_identical(frequencies, reference);
            }
            if elapsed < best_elapsed {
                best_elapsed = elapsed;
                best_latency = client_rpc_latency(&obs);
            }
        }
        runs.push(NetRun {
            clients,
            elapsed_secs: best_elapsed,
            reports_per_sec: reports as f64 / best_elapsed,
            latency_ns: best_latency,
        });
    }

    NetBenchReport {
        id: "net".into(),
        fo: fo.name().into(),
        epsilon,
        domain_size,
        reports_per_round: reports,
        chunk_size: CHUNK,
        window: WINDOW,
        host,
        runs,
        chaos: None,
    }
}

/// Reports driven through the fault-injecting proxy per chaos cell.
pub fn chaos_reports(scale: RunScale) -> u64 {
    match scale {
        RunScale::Quick => 2_000,
        RunScale::Paper => 10_000,
    }
}

/// Run the chaos matrix + overload scenario and return the counter
/// block for `BENCH_net.json`. Compiled only with the `chaos` feature
/// (`repro chaos`); every cell is asserted bit-identical to the
/// sequential in-process estimate before the artifact is written.
#[cfg(feature = "chaos")]
pub fn run_chaos(scale: RunScale) -> ChaosReport {
    use ldp_net::{ChaosConfig, ClientStats, FaultKind, FlakyTransport, RetryPolicy};
    use ldp_service::{RateLimit, TenantLimits};
    use std::time::Duration;

    let (fo, epsilon, domain_size) = (FoKind::Oue, 1.0, 64);
    let reports = chaos_reports(scale) as usize;
    let oracle = build_oracle(fo, epsilon, domain_size).expect("valid oracle");
    let mut rng = StdRng::seed_from_u64(0xc4a0_5eed);
    let template: Vec<UserResponse> = (0..reports)
        .map(|i| UserResponse::Report {
            round: 0,
            report: oracle.perturb(i % domain_size, &mut rng),
        })
        .collect();
    let reference = sequential_reference(&oracle, fo, epsilon, &template);

    let retry = |seed: u64| RetryPolicy {
        max_retries: 80,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(50),
        rpc_timeout: Duration::from_secs(2),
        seed,
    };
    let chunk = 128usize;
    let window = 4usize;

    let drive = |addr: String,
                 tenant: &str,
                 part: &[UserResponse],
                 seed: u64,
                 scope: &Scope|
     -> (u64, Vec<f64>, ClientStats) {
        let mut client = NetClient::connect_with(
            addr,
            tenant,
            ClientOptions::default()
                .window(window)
                .retry(retry(seed))
                .metrics(scope.clone()),
        )
        .expect("connect through proxy");
        client
            .open_round_with(0, fo, epsilon, domain_size)
            .expect("open round");
        for delta in part.chunks(chunk) {
            client.submit_batch(delta.to_vec()).expect("submit batch");
        }
        let estimate = client.close_round().expect("close round");
        (estimate.reporters, estimate.frequencies, client.stats())
    };

    let mut cells = Vec::with_capacity(FaultKind::ALL.len());
    for (i, kind) in FaultKind::ALL.into_iter().enumerate() {
        let registry = TenantRegistry::new();
        registry
            .register(TenantSpec::in_memory(
                "chaos",
                ServiceConfig::with_threads(2),
            ))
            .expect("register tenant");
        let server =
            NetServer::start("127.0.0.1:0", &registry, ServerConfig::default()).expect("server");
        // Lethal kinds sever the connection per fault; give recovery's
        // replay burst room between them.
        let gap = match kind {
            FaultKind::Kill | FaultKind::Truncate | FaultKind::Corrupt => 32 * 1024,
            FaultKind::PartialWrite | FaultKind::Latency => 8 * 1024,
        };
        let proxy = FlakyTransport::start(
            server.addr(),
            ChaosConfig {
                kind,
                seed: 9000 + i as u64,
                mean_fault_gap: gap,
                spike: Duration::from_millis(10),
            },
        )
        .expect("proxy");

        let obs = Arc::new(MetricsRegistry::new());
        let scope = Scope::new(Arc::clone(&obs), &[]);
        let start = Instant::now();
        let (reporters, frequencies, stats) = drive(
            proxy.addr().to_string(),
            "chaos",
            &template,
            77 + i as u64,
            &scope,
        );
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(
            reporters,
            reports as u64,
            "{}: lost/dup reports",
            kind.name()
        );
        assert_bit_identical(&frequencies, &reference);
        let snapshot = proxy.shutdown();
        server.shutdown();
        cells.push(ChaosCell {
            fault: kind.name().into(),
            elapsed_secs: elapsed,
            reports: reporters,
            faults_injected: snapshot.faults(),
            proxy_connections: snapshot.connections,
            client_retries: stats.retries,
            client_reconnects: stats.reconnects,
            client_overloaded: stats.overloaded,
            client_timeouts: stats.timeouts,
            mean_backoff_ms: stats.mean_backoff_ms(),
            latency_ns: client_rpc_latency(&obs),
            bit_identical: true,
        });
    }

    // Overload scenario: a rate-limited tenant floods (and is shed with
    // typed Overloaded frames) while an open co-tenant closes a round.
    let registry = TenantRegistry::new();
    registry
        .register(
            TenantSpec::in_memory("flood", ServiceConfig::with_threads(2)).with_limits(
                TenantLimits {
                    rate: Some(RateLimit {
                        reports_per_sec: chaos_reports(scale) as f64,
                        burst: chunk as u64 * 2,
                    }),
                    ..TenantLimits::open()
                },
            ),
        )
        .expect("register flood tenant");
    registry
        .register(TenantSpec::in_memory(
            "calm",
            ServiceConfig::with_threads(2),
        ))
        .expect("register calm tenant");
    let server =
        NetServer::start("127.0.0.1:0", &registry, ServerConfig::default()).expect("server");
    let addr = server.addr().to_string();

    let calm_part: Vec<UserResponse> = template[..reports / 2].to_vec();
    let calm_reference = sequential_reference(&oracle, fo, epsilon, &calm_part);
    let overload_obs = Arc::new(MetricsRegistry::new());
    let (flood_stats, co_tenant_ok) = std::thread::scope(|scope| {
        let flood_addr = addr.clone();
        let flood_scope = Scope::new(Arc::clone(&overload_obs), &[("client", "flood")]);
        let calm_scope = Scope::new(Arc::clone(&overload_obs), &[("client", "calm")]);
        let (drive, reference, flood_part) = (&drive, &reference, &template);
        let flood = scope.spawn(move || {
            let (reporters, frequencies, stats) =
                drive(flood_addr, "flood", flood_part, 501, &flood_scope);
            assert_eq!(reporters, reports as u64, "flood lost/dup reports");
            assert_bit_identical(&frequencies, reference);
            stats
        });
        let (calm_reporters, calm_frequencies, _) =
            drive(addr.clone(), "calm", &calm_part, 502, &calm_scope);
        assert_eq!(calm_reporters, calm_part.len() as u64);
        assert_bit_identical(&calm_frequencies, &calm_reference);
        (flood.join().expect("flood thread"), true)
    });
    let snap = server
        .admission_snapshot("flood")
        .expect("flood admission counters");
    let calm_snap = server
        .admission_snapshot("calm")
        .expect("calm admission counters");
    server.shutdown();

    ChaosReport {
        reports_per_cell: reports as u64,
        cells,
        overload: OverloadCell {
            admitted: snap.admitted,
            shed_rate: snap.shed_rate,
            shed_inflight: snap.shed_inflight,
            client_retries: flood_stats.retries,
            client_overloaded: flood_stats.overloaded,
            mean_backoff_ms: flood_stats.mean_backoff_ms(),
            co_tenant_ok: co_tenant_ok && calm_snap.shed_rate == 0 && calm_snap.shed_inflight == 0,
            bit_identical: true,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_measures_every_client_count() {
        let report = run(RunScale::Quick, HostMeta::capture(None));
        assert_eq!(report.runs.len(), CLIENT_SWEEP.len());
        assert_eq!(report.reports_per_round, 100_000);
        for run in &report.runs {
            assert!(run.reports_per_sec > 0.0, "{run:?}");
            // The latency block is scraped from the live registry, so a
            // measured run always has a populated histogram.
            assert!(run.latency_ns.max > 0, "{run:?}");
            assert!(run.latency_ns.p50 <= run.latency_ns.p95, "{run:?}");
            assert!(run.latency_ns.p95 <= run.latency_ns.p99, "{run:?}");
        }
        // Round-trips through serde.
        let json = serde_json::to_string(&report).unwrap();
        let back: NetBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
