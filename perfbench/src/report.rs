//! The metric catalogue and the result line.
//!
//! The catalogue is the contract with `BENCHMARK.json`: every untraced
//! run emits exactly [`END_TO_END`], every traced run exactly
//! [`PER_LAYER`], each with the unit listed here.

use crate::run::Outcome;
use crate::workload::Workload;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("reports_per_s", "reports/s"),
    ("release_ms_p50", "ms"),
    ("release_ms_p95", "ms"),
    ("mre", "ratio"),
    ("cfpu", "report/user/step"),
    ("setup_s", "s"),
    ("restart_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs): name and unit.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("stream.begin_step_ms_mean", "ms"),
    ("client.perturb_ns_per_report", "ns"),
    ("client.busy_share", "fraction"),
    ("mechanism.self_us_per_step", "us"),
    ("mechanism.rounds_per_step", "rounds/step"),
    ("mechanism.publish_ratio", "fraction"),
    ("net.open_round_us_p50", "us"),
    ("net.submit_batch_us_mean", "us"),
    ("net.submit_frames", "count"),
    ("net.close_round_ms_p50", "ms"),
    ("net.close_round_ms_p95", "ms"),
    ("net.retries", "count"),
    ("net.reconnects", "count"),
    ("net.timeouts", "count"),
    ("net.overloaded", "count"),
    ("net.close_wait_ms_mean", "ms"),
    ("server.open_service_us_mean", "us"),
    ("server.submit_service_us_mean", "us"),
    ("server.close_service_us_mean", "us"),
    ("server.dispatch_busy_share", "fraction"),
    ("admission.shed_total", "count"),
    ("service.reports_accumulated", "count"),
    ("service.ingest_ns_per_report", "ns"),
    ("wal.append_us_mean", "us"),
    ("wal.fsync_us_mean", "us"),
    ("wal.fsyncs_per_record", "fsyncs/record"),
    ("wal.bytes_per_report", "B/report"),
    ("recovery.records_replayed", "count"),
    ("recovery.replay_reports_per_s", "reports/s"),
    ("codec.encode_ns_per_report", "ns"),
    ("codec.decode_ns_per_report", "ns"),
    ("codec.bytes_per_report", "B/report"),
    ("fo.accumulate_ns_per_report", "ns"),
    ("trace.unattributed_share", "fraction"),
    ("trace.overhead_share", "fraction"),
];

/// The catalogue a run with `trace` must emit.
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float as JSON, with every digit Rust's shortest round-trip form
/// keeps (non-finite values, which the gate rejects, render as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Host and workload set-up, stamped next to every result.
#[derive(Debug, Clone)]
pub struct HostStamp {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// Commit of the benchmarked tree (`BENCH_COMMIT`, else git, else
    /// `unknown`).
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}

impl HostStamp {
    /// Capture the stamp of this host.
    pub fn capture() -> HostStamp {
        HostStamp {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: std::env::var("BENCH_COMMIT")
                .ok()
                .or_else(|| command_line("git", &["rev-parse", "--short=12", "HEAD"]))
                .unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The set-up line printed before the result line.
pub fn setup_line(
    host: &HostStamp,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    outcome: &Outcome,
) -> String {
    let mut fields = vec![
        format!("\"cores\": {}", host.cores),
        format!("\"rustc\": {}", json_str(&host.rustc)),
        format!("\"commit\": {}", json_str(&host.commit)),
        format!("\"workload\": {}", json_str(workload.name())),
        format!("\"why\": {}", json_str(workload.why())),
        format!("\"seed\": {seed}"),
        format!("\"seconds\": {}", json_num(seconds)),
        format!("\"trace\": {trace}"),
    ];
    for (k, v) in &outcome.notes {
        fields.push(format!("{}: {}", json_str(k), json_str(v)));
    }
    format!("{{\"setup\": {{{}}}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Metric;

    #[test]
    fn result_line_has_the_four_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
            }],
            mismatches: Vec::new(),
            notes: Vec::new(),
        };
        assert_eq!(
            result_line(&outcome),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
