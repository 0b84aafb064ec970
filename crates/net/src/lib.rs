//! # `ldp_net` — wire-protocol frontend for the LDP ingestion service
//!
//! LDP-IDS (SIGMOD 2022) collects perturbed reports from distributed
//! user populations; this crate makes the workspace's sharded,
//! crash-safe [`IngestService`](ldp_service::IngestService) reachable
//! over TCP, hosting many independent populations (*tenants*) behind
//! one listener. Three layers, separately testable:
//!
//! * [`frame`] + [`codec`] — the pure wire protocol: length-prefixed,
//!   CRC-32-checksummed, versioned frames carrying the sequenced
//!   idempotent session API (`Hello`/`OpenRound`/`SubmitBatch`/
//!   `CloseRound`/`Ack`/`Err`). Same binary primitives as the WAL, so
//!   floats travel as IEEE-754 bit patterns and a network round's
//!   estimate is **bit-identical** to an in-process one. Decoding is
//!   panic-free on arbitrary input (typed [`FrameError`]s).
//! * [`server`] + [`conn`] + [`tenant`] — the threaded frontend: an
//!   accept loop and one thread per connection, which runs each request
//!   against its tenant's service inline and writes the reply before
//!   reading on, with idle and write timeouts. Backpressure composes
//!   from a tenant's worker pool all the way to the client's TCP
//!   socket. Tenants come from the
//!   [`TenantRegistry`](ldp_service::TenantRegistry) — each tenant owns
//!   its service, config, budget bookkeeping, and WAL directory.
//! * [`client`] — [`NetClient`]: typed calls, pipelined submits, and
//!   reconnect-and-resume (replay the unacknowledged suffix; the
//!   server's sequence numbers make duplicates no-ops).
//!
//! Layered on top of those, the overload-protection seam:
//!
//! * [`admission`] — per-tenant admission control (shared-secret auth
//!   with constant-time compare, token-bucket rate limits, in-flight
//!   quotas) enforced by the connection thread, shedding `SubmitBatch`
//!   with typed [`WireError::Overloaded`] frames while control frames
//!   always pass — an open round can always close;
//! * [`backoff`] — [`RetryPolicy`]: per-RPC deadlines plus capped
//!   exponential backoff with deterministic jitter, honoring the
//!   server's `retry_after_ms`, layered on the idempotent replay so
//!   retries never double-count;
//! * [`chaos`] (feature `chaos`) — [`FlakyTransport`], a
//!   fault-injecting proxy (corruption, truncation, partial writes,
//!   kills/reorder-by-reconnect, latency spikes) the chaos matrix
//!   drives to prove estimates stay f64-bit-identical under sustained
//!   faults.
//!
//! The `ldp-server` / `ldp-client` binaries wrap the two ends for
//! loopback smoke tests and benchmarks (`repro net-throughput`,
//! `repro chaos`).
//!
//! ## Quick example
//!
//! ```
//! use ldp_net::{NetClient, NetServer, ServerConfig};
//! use ldp_service::{ServiceConfig, TenantRegistry, TenantSpec};
//! use ldp_fo::{FoKind, Report};
//! use ldp_ids::protocol::UserResponse;
//!
//! let registry = TenantRegistry::new();
//! registry.register(TenantSpec::in_memory("acme", ServiceConfig::with_threads(1))).unwrap();
//! let server = NetServer::start("127.0.0.1:0", &registry, ServerConfig::default()).unwrap();
//!
//! let mut client = NetClient::connect(server.addr().to_string(), "acme").unwrap();
//! let request = client.open_round_with(0, FoKind::Grr, 8.0, 4).unwrap();
//! client.submit_batch(vec![
//!     UserResponse::Report { round: request.round, report: Report::Grr(2) },
//! ]).unwrap();
//! let estimate = client.close_round().unwrap();
//! assert_eq!(estimate.reporters, 1);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod backoff;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod client;
pub mod codec;
pub mod conn;
pub mod error;
pub mod frame;
pub mod metrics;
pub mod server;
pub mod tenant;

pub use admission::{Admission, AdmissionSnapshot, InflightGuard, ShedReason};
pub use backoff::{ClientStats, RetryPolicy};
#[cfg(feature = "chaos")]
pub use chaos::{ChaosConfig, ChaosSnapshot, FaultKind, FlakyTransport};
pub use client::{scrape_stats, ClientOptions, NetClient, DEFAULT_WINDOW};
pub use codec::{decode_frame, encode_frame, FrameBuffer, MAX_FRAME_LEN};
pub use error::{FrameError, NetError};
pub use frame::{AckBody, Frame, WireError, STATS_VERSION, WIRE_VERSION};
pub use metrics::{ClientMetrics, ServerMetrics};
pub use server::{NetServer, ServerConfig};
pub use tenant::Tenants;
