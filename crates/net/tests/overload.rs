//! Overload-protection integration tests: per-tenant admission control
//! enforced by a real `NetServer`, observed through `NetClient`.
//!
//! The acceptance scenario from the issue: a flooding tenant receives
//! typed `Overloaded { retry_after_ms }` frames (never a stalled
//! reader), while a well-behaved co-tenant's round opens, fills, and
//! closes bit-identically *during* the flood — and the flooding
//! tenant's own round still converges once its client backs off and
//! replays, so shedding never loses or double-counts a report.

use ldp_fo::{build_oracle, FoKind, OracleHandle};
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::{AggregationServer, UserResponse};
use ldp_net::{
    ClientOptions, NetClient, NetError, NetServer, RetryPolicy, ServerConfig, WireError,
};
use ldp_service::{RateLimit, ServiceConfig, TenantLimits, TenantRegistry, TenantSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn start_server(tenants: &[(&str, TenantLimits)]) -> NetServer {
    let registry = TenantRegistry::new();
    for (id, limits) in tenants {
        registry
            .register(
                TenantSpec::in_memory(*id, ServiceConfig::with_threads(2))
                    .with_limits(limits.clone()),
            )
            .unwrap();
    }
    NetServer::start("127.0.0.1:0", &registry, ServerConfig::default()).unwrap()
}

fn seeded_responses(oracle: &OracleHandle, round: u64, n: usize, seed: u64) -> Vec<UserResponse> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if i % 13 == 12 {
                UserResponse::Refused {
                    round,
                    requested: 1.0,
                    available: 0.25,
                }
            } else {
                UserResponse::Report {
                    round,
                    report: oracle.perturb(i % oracle.domain_size(), &mut rng),
                }
            }
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

/// A client that surfaces raw server replies (no retries) sees a typed
/// `Overloaded` with a positive, actionable `retry_after_ms` once it
/// outruns its tenant's token bucket — classified retryable, with the
/// hint exposed through the uniform `NetError` accessors.
#[test]
fn flood_sees_typed_overloaded_with_retry_after() {
    let limits = TenantLimits {
        rate: Some(RateLimit {
            reports_per_sec: 1.0, // all but no refill within the test
            burst: 30,
        }),
        ..TenantLimits::open()
    };
    let server = start_server(&[("flood", limits)]);
    let oracle = build_oracle(FoKind::Grr, 1.0, 4).unwrap();
    let mut client = NetClient::connect_with(
        server.addr().to_string(),
        "flood",
        ClientOptions::default()
            .window(1)
            .retry(RetryPolicy::none()),
    )
    .unwrap();
    client.open_round_with(0, FoKind::Grr, 1.0, 4).unwrap();

    let mut observed = None;
    for chunk in 0..50 {
        let delta = seeded_responses(&oracle, 0, 10, chunk);
        match client.submit_batch(delta) {
            Ok(()) => {}
            Err(err) => {
                observed = Some(err);
                break;
            }
        }
    }
    let err = observed.expect("the bucket (burst 30) must shed within 500 submitted reports");
    match &err {
        NetError::Remote(WireError::Overloaded { retry_after_ms }) => {
            assert!(*retry_after_ms > 0, "hint must be actionable");
        }
        other => panic!("expected typed Overloaded, got {other:?}"),
    }
    assert!(err.retryable(), "Overloaded must be retryable");
    let hint = err.retry_after().expect("Overloaded carries a hint");
    assert!(hint >= Duration::from_millis(1));

    let snap = server.admission_snapshot("flood").unwrap();
    assert!(snap.shed_rate > 0, "server must have counted the shed");
    assert!(snap.admitted > 0, "within-burst submits were admitted");
    server.shutdown();
}

/// The acceptance scenario: while one tenant floods past its rate
/// limit (and is demonstrably being shed), a co-tenant behind the same
/// listener opens, fills, and closes a round bit-identical to the
/// in-process oracle — and the flooding tenant's round *also*
/// converges bit-identically once backoff + reconnect-replay drain it,
/// proving sheds never lose or double-count a report.
#[test]
fn co_tenant_round_closes_during_flood_and_flood_converges() {
    let (fo, epsilon, domain) = (FoKind::Grr, 1.0, 6);
    let oracle = build_oracle(fo, epsilon, domain).unwrap();
    let flood_responses = seeded_responses(&oracle, 0, 400, 101);
    let calm_responses = seeded_responses(&oracle, 0, 300, 202);
    let flood_expected = sequential_estimate(&oracle, fo, epsilon, &flood_responses);
    let calm_expected = sequential_estimate(&oracle, fo, epsilon, &calm_responses);

    let flood_limits = TenantLimits {
        rate: Some(RateLimit {
            reports_per_sec: 2_000.0,
            burst: 50,
        }),
        ..TenantLimits::open()
    };
    let server = start_server(&[("flood", flood_limits), ("calm", TenantLimits::open())]);
    let addr = server.addr().to_string();

    let flood_addr = addr.clone();
    let flood_oracle = flood_responses.clone();
    let flood = std::thread::spawn(move || {
        let retry = RetryPolicy {
            max_retries: 40,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(40),
            rpc_timeout: Duration::from_secs(5),
            seed: 7,
        };
        let mut client = NetClient::connect_with(
            flood_addr,
            "flood",
            ClientOptions::default().window(4).retry(retry),
        )
        .unwrap();
        client.open_round_with(0, fo, epsilon, domain).unwrap();
        for delta in flood_oracle.chunks(25) {
            client.submit_batch(delta.to_vec()).unwrap();
        }
        let estimate = client.close_round().unwrap();
        (estimate, client.stats())
    });

    // Wait until the flood is demonstrably being shed ...
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = server.admission_snapshot("flood").unwrap();
        if snap.shed_total() > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "flood was never shed");
        std::thread::sleep(Duration::from_millis(1));
    }

    // ... then run the co-tenant's entire round mid-flood. The
    // co-tenant has no limits of its own, so any shed here would be the
    // flood's fault — and there must be none.
    let mut calm =
        NetClient::connect_with(addr, "calm", ClientOptions::default().window(4)).unwrap();
    calm.open_round_with(0, fo, epsilon, domain).unwrap();
    for delta in calm_responses.chunks(20) {
        calm.submit_batch(delta.to_vec()).unwrap();
    }
    let calm_estimate = calm.close_round().unwrap();
    assert_bit_identical(&calm_estimate, &calm_expected, "calm co-tenant mid-flood");
    assert_eq!(
        server.admission_snapshot("calm").unwrap().shed_total(),
        0,
        "the co-tenant must never be shed"
    );

    let (flood_estimate, stats) = flood.join().unwrap();
    assert_bit_identical(&flood_estimate, &flood_expected, "flood after backoff");
    assert!(stats.retries > 0, "the flood must have retried: {stats:?}");
    assert!(
        stats.overloaded > 0,
        "retries must include typed Overloaded rejections: {stats:?}"
    );
    assert!(
        stats.reconnects > 0,
        "retries resync via reconnect: {stats:?}"
    );
    assert!(stats.mean_backoff_ms() > 0.0, "backoff must be non-trivial");
    let snap = server.admission_snapshot("flood").unwrap();
    assert!(snap.shed_rate > 0, "server-side shed counters: {snap:?}");
    server.shutdown();
}

/// Auth: a tenant with a shared secret rejects missing and wrong
/// tokens with a typed, non-retryable `AuthFailed`; the right token
/// admits a full round, and reconnect-recovery re-presents it.
#[test]
fn auth_token_gates_the_session_and_survives_recovery() {
    let limits = TenantLimits {
        auth_token: Some("open-sesame".into()),
        ..TenantLimits::open()
    };
    let server = start_server(&[("secured", limits)]);
    let addr = server.addr().to_string();

    let err = NetClient::connect(addr.clone(), "secured").unwrap_err();
    match &err {
        NetError::Remote(WireError::AuthFailed { tenant }) => assert_eq!(tenant, "secured"),
        other => panic!("expected AuthFailed without a token, got {other:?}"),
    }
    assert!(!err.retryable(), "AuthFailed must not be retried");
    assert!(err.retry_after().is_none());

    let err = NetClient::connect_with(
        addr.clone(),
        "secured",
        ClientOptions::default().token("guess"),
    )
    .unwrap_err();
    assert!(
        matches!(&err, NetError::Remote(WireError::AuthFailed { .. })),
        "{err:?}"
    );

    let (fo, epsilon, domain) = (FoKind::Oue, 1.0, 5);
    let oracle = build_oracle(fo, epsilon, domain).unwrap();
    let responses = seeded_responses(&oracle, 0, 120, 33);
    let expected = sequential_estimate(&oracle, fo, epsilon, &responses);

    let mut client = NetClient::connect_with(
        addr,
        "secured",
        ClientOptions::default().token("open-sesame"),
    )
    .unwrap();
    client.open_round_with(0, fo, epsilon, domain).unwrap();
    client.submit_batch(responses[..60].to_vec()).unwrap();
    // A mid-round reconnect must re-present the token with its resume.
    client.disconnect();
    client.recover().unwrap();
    client.submit_batch(responses[60..].to_vec()).unwrap();
    let estimate = client.close_round().unwrap();
    assert_bit_identical(&estimate, &expected, "authed round with recovery");

    let snap = server.admission_snapshot("secured").unwrap();
    assert_eq!(snap.auth_failures, 2, "one missing + one wrong token");
    server.shutdown();
}

/// An in-flight quota sheds with `Overloaded` when too many submit
/// frames are executing at once, and the round still closes
/// once the retrying client drains.
#[test]
fn inflight_quota_sheds_then_round_still_closes() {
    let limits = TenantLimits {
        max_inflight: Some(1),
        ..TenantLimits::open()
    };
    let server = start_server(&[("narrow", limits)]);
    let (fo, epsilon, domain) = (FoKind::Grr, 1.0, 4);
    let oracle = build_oracle(fo, epsilon, domain).unwrap();
    let responses = seeded_responses(&oracle, 0, 200, 55);
    let expected = sequential_estimate(&oracle, fo, epsilon, &responses);

    let retry = RetryPolicy {
        max_retries: 40,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(20),
        rpc_timeout: Duration::from_secs(5),
        seed: 3,
    };
    // A wide window pushes many unacknowledged submits at once, so the
    // single-slot quota must shed some of them.
    let mut client = NetClient::connect_with(
        server.addr().to_string(),
        "narrow",
        ClientOptions::default().window(16).retry(retry),
    )
    .unwrap();
    client.open_round_with(0, fo, epsilon, domain).unwrap();
    for delta in responses.chunks(10) {
        client.submit_batch(delta.to_vec()).unwrap();
    }
    let estimate = client.close_round().unwrap();
    assert_bit_identical(&estimate, &expected, "single-slot quota");
    server.shutdown();
}
