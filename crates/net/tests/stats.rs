//! Stats-scrape integration tests: the wire-level `StatsRequest` and the
//! Prometheus text endpoint, exercised against a live loopback server.
//!
//! The acceptance bar is double-sided: the scrape must cover service,
//! WAL, and admission series with sane values, *and* the round's
//! estimate must stay f64-bit-identical to the in-process sequential
//! [`AggregationServer`] — observability must never perturb the math.

use ldp_fo::{build_oracle, FoKind, OracleHandle};
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::{AggregationServer, UserResponse};
use ldp_net::{scrape_stats, NetClient, NetServer, ServerConfig, STATS_VERSION};
use ldp_obs::{MetricSample, MetricValue, MetricsExporter};
use ldp_service::{ServiceConfig, TenantRegistry, TenantSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn tempdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ldp_stats_it_{}_{name}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn seeded_responses(oracle: &OracleHandle, round: u64, n: usize, seed: u64) -> Vec<UserResponse> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| UserResponse::Report {
            round,
            report: oracle.perturb(i % oracle.domain_size(), &mut rng),
        })
        .collect()
}

fn sequential_estimate(
    oracle: &OracleHandle,
    fo: FoKind,
    epsilon: f64,
    responses: &[UserResponse],
) -> RoundEstimate {
    let mut server = AggregationServer::new();
    server.open_round(0, fo, epsilon, oracle.clone());
    for response in responses {
        server.submit(response).unwrap();
    }
    server.close_round().unwrap()
}

fn assert_bit_identical(a: &RoundEstimate, b: &RoundEstimate, what: &str) {
    assert_eq!(a.reporters, b.reporters, "{what}: reporters differ");
    let a_bits: Vec<u64> = a.frequencies.iter().map(|f| f.to_bits()).collect();
    let b_bits: Vec<u64> = b.frequencies.iter().map(|f| f.to_bits()).collect();
    assert_eq!(a_bits, b_bits, "{what}: frequency bits differ");
}

fn counter(samples: &[MetricSample], name: &str, tenant: Option<&str>) -> Option<u64> {
    samples
        .iter()
        .find(|s| s.name == name && tenant.is_none_or(|t| s.label("tenant") == Some(t)))
        .and_then(|s| match s.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        })
}

fn histogram_count(samples: &[MetricSample], name: &str, tenant: Option<&str>) -> Option<u64> {
    samples
        .iter()
        .find(|s| s.name == name && tenant.is_none_or(|t| s.label("tenant") == Some(t)))
        .and_then(|s| match &s.value {
            MetricValue::Histogram(h) => Some(h.count),
            _ => None,
        })
}

/// One durable round over the wire; a stats scrape mid-flight covers
/// service, WAL, admission, and frame series, and the estimate stays
/// bit-identical to the sequential baseline.
#[test]
fn live_scrape_covers_every_layer_without_perturbing_the_estimate() {
    let (fo, epsilon, domain) = (FoKind::Grr, 1.0, 8);
    let oracle = build_oracle(fo, epsilon, domain).unwrap();
    let responses = seeded_responses(&oracle, 0, 600, 17);
    let expected = sequential_estimate(&oracle, fo, epsilon, &responses);

    let dir = tempdir("scrape");
    let registry = TenantRegistry::new();
    registry
        .register(TenantSpec::durable(
            "acme",
            ServiceConfig::with_threads(2),
            &dir,
        ))
        .unwrap();
    let server = NetServer::start("127.0.0.1:0", &registry, ServerConfig::default()).unwrap();

    let mut client = NetClient::connect(server.addr().to_string(), "acme").unwrap();
    client.open_round_with(0, fo, epsilon, domain).unwrap();
    for delta in responses.chunks(50) {
        client.submit_batch(delta.to_vec()).unwrap();
    }
    // Drain the pipeline so every submit is applied before we scrape.
    client.flush().unwrap();

    let (version, samples) = client.server_stats(None).unwrap();
    assert_eq!(version, STATS_VERSION);

    // Service layer: every accepted response is counted, WAL appends
    // and fsyncs were timed.
    assert_eq!(
        counter(&samples, "ldp_reports_accumulated_total", Some("acme")),
        Some(600),
        "accumulated counter"
    );
    assert_eq!(
        counter(&samples, "ldp_rounds_opened_total", Some("acme")),
        Some(1)
    );
    assert!(histogram_count(&samples, "ldp_wal_append_ns", Some("acme")).unwrap() > 0);
    assert!(histogram_count(&samples, "ldp_wal_fsync_ns", Some("acme")).unwrap() > 0);

    // Admission layer: the submits were admitted, and with no rate or
    // in-flight limits configured nothing was shed.
    let admitted = counter(&samples, "ldp_admission_admitted_total", Some("acme")).unwrap();
    assert!(admitted >= 12, "admitted {admitted} < submit count");
    for s in samples
        .iter()
        .filter(|s| s.name == "ldp_admission_shed_total")
    {
        assert_eq!(s.value, MetricValue::Counter(0), "unexpected shed: {s:?}");
    }

    // Wire layer: frames counted by kind, RPC latencies timed.
    for s in samples
        .iter()
        .filter(|s| s.name == "ldp_net_frames_in_total")
    {
        assert!(s.label("tag").is_some(), "frames_in without tag: {s:?}");
    }
    let submits_in = samples
        .iter()
        .find(|s| s.name == "ldp_net_frames_in_total" && s.label("tag") == Some("submit_batch"))
        .unwrap();
    assert!(matches!(submits_in.value, MetricValue::Counter(n) if n >= 12));
    let rpc = samples
        .iter()
        .find(|s| s.name == "ldp_net_rpc_ns" && s.label("op") == Some("submit_batch"))
        .unwrap();
    assert!(matches!(&rpc.value, MetricValue::Histogram(h) if h.count >= 12));

    let estimate = client.close_round().unwrap();
    assert_bit_identical(&estimate, &expected, "scraped round vs in-process");

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `scope` filters the reply to one tenant's series; an unknown scope
/// yields an empty (not erroneous) reply.
#[test]
fn scoped_scrape_filters_to_one_tenant() {
    let registry = TenantRegistry::new();
    for id in ["acme", "globex"] {
        registry
            .register(TenantSpec::in_memory(id, ServiceConfig::with_threads(1)))
            .unwrap();
    }
    let server = NetServer::start("127.0.0.1:0", &registry, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();

    let (fo, epsilon, domain) = (FoKind::Grr, 1.0, 4);
    let oracle = build_oracle(fo, epsilon, domain).unwrap();
    for id in ["acme", "globex"] {
        let mut client = NetClient::connect(addr.clone(), id).unwrap();
        client.open_round_with(0, fo, epsilon, domain).unwrap();
        client
            .submit_batch(seeded_responses(&oracle, 0, 40, 3))
            .unwrap();
        client.close_round().unwrap();
    }

    let mut client = NetClient::connect(addr, "acme").unwrap();
    let (_, scoped) = client.server_stats(Some("globex")).unwrap();
    assert!(!scoped.is_empty());
    for s in &scoped {
        assert_eq!(
            s.label("tenant"),
            Some("globex"),
            "leaked foreign sample {s:?}"
        );
    }
    assert_eq!(
        counter(&scoped, "ldp_reports_accumulated_total", Some("globex")),
        Some(40)
    );

    let (_, ghost) = client.server_stats(Some("ghost")).unwrap();
    assert!(ghost.is_empty(), "unknown scope must filter to nothing");
    server.shutdown();
}

/// `StatsRequest` is served before `Hello`: a bare connection can
/// scrape without binding to any tenant (what `ldp-client --stats`
/// does).
#[test]
fn stats_scrape_needs_no_hello() {
    let registry = TenantRegistry::new();
    registry
        .register(TenantSpec::in_memory(
            "acme",
            ServiceConfig::with_threads(1),
        ))
        .unwrap();
    let server = NetServer::start("127.0.0.1:0", &registry, ServerConfig::default()).unwrap();

    let (version, samples) =
        scrape_stats(&server.addr().to_string(), None, Duration::from_secs(5)).unwrap();
    assert_eq!(version, STATS_VERSION);
    // The tenant's gauges/counters exist from registration even before
    // any traffic.
    assert_eq!(
        counter(&samples, "ldp_reports_accumulated_total", Some("acme")),
        Some(0)
    );
    server.shutdown();
}

/// The plaintext `--metrics-addr` endpoint serves valid text exposition
/// covering service, WAL, and admission metrics from the same registry
/// the wire scrape reads.
#[test]
fn prometheus_endpoint_covers_service_wal_and_admission() {
    let dir = tempdir("prom");
    let registry = TenantRegistry::new();
    registry
        .register(TenantSpec::durable(
            "acme",
            ServiceConfig::with_threads(1),
            &dir,
        ))
        .unwrap();
    let server = NetServer::start("127.0.0.1:0", &registry, ServerConfig::default()).unwrap();
    let exporter = MetricsExporter::start("127.0.0.1:0", registry.metrics()).unwrap();

    let (fo, epsilon, domain) = (FoKind::Oue, 1.0, 5);
    let oracle = build_oracle(fo, epsilon, domain).unwrap();
    let mut client = NetClient::connect(server.addr().to_string(), "acme").unwrap();
    client.open_round_with(0, fo, epsilon, domain).unwrap();
    client
        .submit_batch(seeded_responses(&oracle, 0, 80, 9))
        .unwrap();
    client.flush().unwrap();

    let mut stream = TcpStream::connect(exporter.addr()).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    stream.read_to_string(&mut body).unwrap();

    assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
    // Service + WAL + admission series, all tenant-labelled.
    assert!(body.contains("ldp_reports_accumulated_total{tenant=\"acme\"} 80"));
    assert!(body.contains("# TYPE ldp_wal_append_ns summary"));
    assert!(body.contains("ldp_wal_append_ns_count{tenant=\"acme\"}"));
    assert!(body.contains("ldp_admission_admitted_total{tenant=\"acme\"}"));
    assert!(body.contains("ldp_net_frames_in_total{tag=\"submit_batch\"}"));
    // Every non-comment line parses as `name{labels} value` with a
    // numeric value — the contract a Prometheus scraper needs.
    for line in body.lines().skip_while(|l| !l.is_empty()).skip(1) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect(line);
        value.parse::<f64>().unwrap_or_else(|_| panic!("{line}"));
    }

    client.close_round().unwrap();
    server.shutdown();
    drop(exporter);
    std::fs::remove_dir_all(&dir).unwrap();
}
