//! Loopback integration tests: a real `NetServer` on an ephemeral port,
//! driven through `NetClient` and through raw sockets.
//!
//! The invariant under test is the workspace's core one — estimates that
//! crossed the wire are **bit-identical** to the sequential in-process
//! [`AggregationServer`] — plus the transport behaviors around it:
//! torn-frame reassembly, typed rejection of protocol misuse, idle
//! reaping, isolation from a peer that never reads its replies,
//! disconnect/resume replay, and graceful shutdown.

use ldp_fo::{build_oracle, FoKind, OracleHandle};
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::{AggregationServer, UserResponse};
use ldp_net::{
    encode_frame, AckBody, ClientOptions, Frame, FrameBuffer, NetClient, NetError, NetServer,
    RetryPolicy, ServerConfig, WireError,
};
use ldp_service::{ServiceConfig, TenantRegistry, TenantSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn start_server(tenants: &[&str]) -> NetServer {
    let registry = TenantRegistry::new();
    for id in tenants {
        registry
            .register(TenantSpec::in_memory(*id, ServiceConfig::with_threads(2)))
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

#[test]
fn network_round_is_bit_identical_to_inprocess() {
    let (fo, epsilon, domain) = (FoKind::Grr, 1.0, 8);
    let oracle = build_oracle(fo, epsilon, domain).unwrap();
    let responses = seeded_responses(&oracle, 0, 500, 7);
    let expected = sequential_estimate(&oracle, fo, epsilon, &responses);

    let server = start_server(&["acme"]);
    let mut client = NetClient::connect(server.addr().to_string(), "acme").unwrap();
    client.open_round_with(0, fo, epsilon, domain).unwrap();
    for delta in responses.chunks(37) {
        client.submit_batch(delta.to_vec()).unwrap();
    }
    let estimate = client.close_round().unwrap();
    assert_bit_identical(&estimate, &expected, "loopback vs in-process");
    server.shutdown();
}

#[test]
fn tiny_pipelining_window_still_converges() {
    let (fo, epsilon, domain) = (FoKind::Oue, 1.0, 6);
    let oracle = build_oracle(fo, epsilon, domain).unwrap();
    let responses = seeded_responses(&oracle, 0, 300, 11);
    let expected = sequential_estimate(&oracle, fo, epsilon, &responses);

    let server = start_server(&["acme"]);
    let mut client = NetClient::connect(server.addr().to_string(), "acme")
        .unwrap()
        .with_window(1);
    client.open_round_with(0, fo, epsilon, domain).unwrap();
    for delta in responses.chunks(10) {
        client.submit_batch(delta.to_vec()).unwrap();
    }
    let estimate = client.close_round().unwrap();
    assert_bit_identical(&estimate, &expected, "window=1");
    server.shutdown();
}

#[test]
fn unknown_tenant_is_a_typed_remote_error() {
    let server = start_server(&["acme"]);
    let err = NetClient::connect(server.addr().to_string(), "ghost").unwrap_err();
    match err {
        NetError::Remote(WireError::UnknownTenant { tenant }) => assert_eq!(tenant, "ghost"),
        other => panic!("expected UnknownTenant, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn frames_before_hello_are_rejected() {
    let server = start_server(&["acme"]);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(&encode_frame(&Frame::CloseRound {
            corr: 5,
            session: 0,
            round: 0,
        }))
        .unwrap();
    let reply = read_one_frame(&mut stream);
    match reply {
        Frame::Err {
            corr: 5,
            error: WireError::Protocol { detail },
        } => assert!(detail.contains("Hello"), "{detail}"),
        other => panic!("expected protocol error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn torn_frames_across_writes_are_reassembled() {
    let server = start_server(&["acme"]);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let hello = encode_frame(&Frame::Hello {
        corr: 1,
        tenant: "acme".into(),
        resume: None,
        token: None,
    });
    // Dribble the frame one byte per write; the server's FrameBuffer
    // must reassemble it across arbitrarily torn reads.
    for byte in hello {
        stream.write_all(&[byte]).unwrap();
        stream.flush().unwrap();
    }
    let reply = read_one_frame(&mut stream);
    assert!(
        matches!(
            reply,
            Frame::Ack {
                corr: 1,
                body: AckBody::Session { .. }
            }
        ),
        "{reply:?}"
    );
    server.shutdown();
}

#[test]
fn corrupt_stream_gets_typed_reply_then_close() {
    let server = start_server(&["acme"]);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut bytes = encode_frame(&Frame::Hello {
        corr: 1,
        tenant: "acme".into(),
        resume: None,
        token: None,
    });
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff; // breaks the CRC
    stream.write_all(&bytes).unwrap();
    let reply = read_one_frame(&mut stream);
    // Stream corruption is a typed, *retryable* BadFrame — reconnecting
    // resynchronizes and the idempotent replay recovers.
    match &reply {
        Frame::Err {
            corr: 0,
            error: error @ WireError::BadFrame { .. },
        } => assert!(error.retryable(), "BadFrame must be retryable"),
        other => panic!("expected BadFrame error, got {other:?}"),
    }
    // The connection is unsynchronized after a framing defect: EOF next.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "expected EOF, got {} bytes", rest.len());
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped() {
    let registry = TenantRegistry::new();
    registry
        .register(TenantSpec::in_memory(
            "acme",
            ServiceConfig::with_threads(1),
        ))
        .unwrap();
    let config = ServerConfig {
        read_timeout: Duration::from_millis(100),
        poll_interval: Duration::from_millis(10),
    };
    let server = NetServer::start("127.0.0.1:0", &registry, config).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Say nothing; the server should hang up on us.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    server.shutdown();
}

/// A raw connection that binds a tenant, then writes `CloseRound`
/// frames from a background thread and never reads a reply.
struct Flood {
    stream: TcpStream,
    sent: Arc<AtomicU64>,
    writer: JoinHandle<()>,
}

impl Flood {
    fn start(addr: SocketAddr, tenant: &str) -> Flood {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(&encode_frame(&Frame::Hello {
                corr: 1,
                tenant: tenant.into(),
                resume: None,
                token: None,
            }))
            .unwrap();
        let Frame::Ack {
            body: AckBody::Session { session, .. },
            ..
        } = read_one_frame(&mut stream)
        else {
            panic!("hello was not acknowledged");
        };
        // Closing a round that was never opened: each frame costs the
        // server a service call and a typed error reply.
        let close = encode_frame(&Frame::CloseRound {
            corr: 2,
            session,
            round: 0,
        });
        let sent = Arc::new(AtomicU64::new(0));
        let writer = {
            let mut stream = stream.try_clone().unwrap();
            let sent = Arc::clone(&sent);
            std::thread::spawn(move || {
                while stream.write_all(&close).is_ok() {
                    sent.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        Flood {
            stream,
            sent,
            writer,
        }
    }

    /// Block until the flood's writes stop making progress: the server
    /// has stopped reading, so every buffer on the path is full.
    fn wait_until_stalled(&self) {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut last = 0;
        loop {
            std::thread::sleep(Duration::from_millis(500));
            let now = self.sent.load(Ordering::Relaxed);
            if now > 0 && now == last {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "flood never stalled ({now} frames)"
            );
            last = now;
        }
    }

    /// Unblock and join the writer, then close the socket.
    fn stop(self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        let _ = self.writer.join();
    }
}

#[test]
fn stalled_peer_does_not_stall_its_tenant() {
    let server = start_server(&["acme"]);
    let flood = Flood::start(server.addr(), "acme");
    flood.wait_until_stalled();

    // A second connection to the same tenant runs a whole round while
    // the flood's replies sit unread.
    let retry = RetryPolicy {
        max_retries: 0,
        rpc_timeout: Duration::from_secs(3),
        ..RetryPolicy::default()
    };
    let mut client = NetClient::connect_with(
        server.addr().to_string(),
        "acme",
        ClientOptions::default().retry(retry),
    )
    .unwrap();
    client.open_round_with(0, FoKind::Grr, 1.0, 2).unwrap();
    let estimate = client.close_round().unwrap();
    assert_eq!(estimate.reporters, 0);

    flood.stop();
    server.shutdown();
}

#[test]
fn shutdown_returns_with_a_stalled_peer() {
    let registry = TenantRegistry::new();
    registry
        .register(TenantSpec::in_memory(
            "acme",
            ServiceConfig::with_threads(1),
        ))
        .unwrap();
    let config = ServerConfig {
        read_timeout: Duration::from_secs(2),
        poll_interval: Duration::from_millis(10),
    };
    let server = NetServer::start("127.0.0.1:0", &registry, config).unwrap();
    let flood = Flood::start(server.addr(), "acme");
    flood.wait_until_stalled();

    // The connection is blocked writing a reply nobody reads; shutdown
    // must still return once that write times out.
    let (done_tx, done_rx) = mpsc::channel();
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    let returned = done_rx.recv_timeout(Duration::from_secs(15)).is_ok();
    flood.stop();
    assert!(returned, "shutdown hung on a peer that never reads");
    shutdown.join().unwrap();
}

#[test]
fn disconnect_and_recover_replays_unacked_deltas() {
    let (fo, epsilon, domain) = (FoKind::Olh, 1.0, 10);
    let oracle = build_oracle(fo, epsilon, domain).unwrap();
    let responses = seeded_responses(&oracle, 0, 400, 23);
    let expected = sequential_estimate(&oracle, fo, epsilon, &responses);

    let server = start_server(&["acme"]);
    // A wide window keeps deltas unacknowledged so the drop loses real
    // in-flight state.
    let mut client = NetClient::connect(server.addr().to_string(), "acme")
        .unwrap()
        .with_window(64);
    client.open_round_with(0, fo, epsilon, domain).unwrap();
    let mut chunks = responses.chunks(25);
    for delta in chunks.by_ref().take(8) {
        client.submit_batch(delta.to_vec()).unwrap();
    }
    client.disconnect();
    client.recover().unwrap();
    for delta in chunks {
        client.submit_batch(delta.to_vec()).unwrap();
    }
    let estimate = client.close_round().unwrap();
    assert_bit_identical(&estimate, &expected, "disconnect/recover");
    server.shutdown();
}

#[test]
fn fresh_resume_client_continues_the_session() {
    let (fo, epsilon, domain) = (FoKind::Grr, 1.0, 4);
    let oracle = build_oracle(fo, epsilon, domain).unwrap();
    let responses = seeded_responses(&oracle, 0, 120, 5);
    let expected = sequential_estimate(&oracle, fo, epsilon, &responses);

    let server = start_server(&["acme"]);
    let addr = server.addr().to_string();
    let mut first = NetClient::connect(addr.clone(), "acme").unwrap();
    first.open_round_with(0, fo, epsilon, domain).unwrap();
    first.submit_batch(responses[..60].to_vec()).unwrap();
    // Wait for the ack so the delta is fully applied, then vanish.
    first.flush().unwrap();
    let session = first.session();
    drop(first);

    let mut second = NetClient::resume(addr, "acme", session).unwrap();
    assert_eq!(second.session(), session);
    assert_eq!(second.open_round(), Some(0));
    second.submit_batch(responses[60..].to_vec()).unwrap();
    let estimate = second.close_round().unwrap();
    assert_bit_identical(&estimate, &expected, "fresh resume");
    server.shutdown();
}

#[test]
fn tenants_are_isolated_over_one_listener() {
    let (fo, epsilon, domain) = (FoKind::Grr, 1.0, 5);
    let oracle = build_oracle(fo, epsilon, domain).unwrap();
    let acme = seeded_responses(&oracle, 0, 200, 31);
    let globex = seeded_responses(&oracle, 0, 150, 77);
    let expected_acme = sequential_estimate(&oracle, fo, epsilon, &acme);
    let expected_globex = sequential_estimate(&oracle, fo, epsilon, &globex);

    let server = start_server(&["acme", "globex"]);
    let addr = server.addr().to_string();
    let mut ca = NetClient::connect(addr.clone(), "acme").unwrap();
    let mut cg = NetClient::connect(addr, "globex").unwrap();
    ca.open_round_with(0, fo, epsilon, domain).unwrap();
    cg.open_round_with(0, fo, epsilon, domain).unwrap();
    // Interleave the two tenants' traffic through the one listener.
    let mut ia = acme.chunks(17);
    let mut ig = globex.chunks(17);
    loop {
        let da = ia.next();
        let dg = ig.next();
        if da.is_none() && dg.is_none() {
            break;
        }
        if let Some(delta) = da {
            ca.submit_batch(delta.to_vec()).unwrap();
        }
        if let Some(delta) = dg {
            cg.submit_batch(delta.to_vec()).unwrap();
        }
    }
    assert_bit_identical(&ca.close_round().unwrap(), &expected_acme, "acme");
    assert_bit_identical(&cg.close_round().unwrap(), &expected_globex, "globex");
    server.shutdown();
}

#[test]
fn shutdown_closes_live_connections() {
    let server = start_server(&["acme"]);
    let mut client = NetClient::connect(server.addr().to_string(), "acme").unwrap();
    client.open_round_with(0, FoKind::Grr, 1.0, 2).unwrap();
    server.shutdown();
    // The next blocking call observes the closed socket as an error, not
    // a hang.
    let err = client.submit_batch(vec![]).and_then(|_| {
        // The submit may land in a kernel buffer; the close must fail.
        client.close_round().map(|_| ())
    });
    assert!(err.is_err(), "expected an error after shutdown");
}

/// Read exactly one frame off a raw socket (test helper).
fn read_one_frame(stream: &mut TcpStream) -> Frame {
    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = fb.next_frame().unwrap() {
            return frame;
        }
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "EOF while waiting for a frame");
        fb.feed(&buf[..n]);
    }
}
