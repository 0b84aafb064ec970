//! `ldp_obs` — dependency-light observability for the LDP-IDS repro.
//!
//! Metrics ([`metrics`], [`registry`], [`expose`]): lock-free atomic
//! [`Counter`]s and [`Gauge`]s plus log2-bucketed [`Histogram`]s with
//! p50/p95/p99/max readout, registered under static label sets in a
//! [`MetricsRegistry`]. Recording never takes a lock — the registry
//! mutex guards only metric *creation*; handles are `Arc`s over plain
//! atomics. A registry snapshots to typed [`MetricSample`]s (for wire
//! scraping) or renders Prometheus-style text exposition, optionally
//! served over TCP by a [`MetricsExporter`].
//!
//! The crate is deliberately free of dependencies so every layer of the
//! workspace (service, net, bench, bins) can link it without weight.
//!
//! ```
//! use ldp_obs::{MetricsRegistry, Scope};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(MetricsRegistry::new());
//! let scope = Scope::new(Arc::clone(&registry), &[("tenant", "acme")]);
//! let reports = scope.counter("ldp_reports_accumulated_total", "reports accepted");
//! let latency = scope.histogram("ldp_rpc_ns", "RPC service latency (ns)");
//! reports.add(128);
//! latency.record(42_000);
//! assert!(registry.render_prometheus().contains("ldp_reports_accumulated_total"));
//! ```

#![warn(missing_docs)]

pub mod expose;
pub mod metrics;
pub mod registry;

pub use expose::MetricsExporter;
pub use metrics::{bucket_index, bucket_upper, Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricKind, MetricSample, MetricValue, MetricsRegistry, Scope};
