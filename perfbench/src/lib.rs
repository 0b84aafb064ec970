//! End-to-end LDP-IDS benchmark: real w-event mechanisms with per-user
//! perturbation driving a loopback aggregator, measured end to end and
//! layer by layer.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! which layer each per-layer metric belongs to.

pub mod probe;
pub mod report;
pub mod run;
pub mod sink;
pub mod trace;
pub mod workload;

pub use run::{run, Metric, Options, Outcome};
pub use workload::Workload;
