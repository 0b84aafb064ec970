//! Offline layer probes over the rounds a traced run captured.
//!
//! The loopback run cannot time the codec, the kernels or the service
//! from outside the server process's threads, so these probes replay a
//! bounded sample of the exact batches the run sent through each layer's
//! public functions, outside the timed region:
//!
//! * `ldp_net::codec` — `encode_frame` / `decode_frame` on the
//!   `SubmitBatch` frames;
//! * `ldp_fo` kernels — `ReportColumns::try_push` then the timed
//!   `accumulate_columns`;
//! * `ldp_service` — an in-memory `IngestService` with the run's
//!   `ServiceConfig`, fed `open_round` / `submit_batch` / `close_round`.
//!
//! Every probe also checks its output: decoded frames equal the sent
//! ones, kernel counts equal the scalar fold, and replayed estimates are
//! f64-bit-identical to the ones the wire returned.

use crate::sink::CapturedRound;
use ldp_fo::{build_oracle, ReportColumns};
use ldp_ids::protocol::UserResponse;
use ldp_net::{decode_frame, encode_frame, Frame};
use ldp_service::{IngestService, ServiceConfig};
use ldp_util::stats::quantile;
use std::time::Instant;

/// Repetitions of each timed probe; the median is reported.
const REPS: usize = 5;

/// What the probes measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeResult {
    /// `encode_frame` ns per report.
    pub encode_ns_per_report: f64,
    /// `decode_frame` ns per report.
    pub decode_ns_per_report: f64,
    /// Encoded frame bytes per report.
    pub bytes_per_report: f64,
    /// `accumulate_columns` ns per report.
    pub accumulate_ns_per_report: f64,
    /// In-memory service ns per report (open + submit + close).
    pub ingest_ns_per_report: f64,
    /// Checks that failed, if any.
    pub mismatches: Vec<String>,
}

fn reports_in(rounds: &[CapturedRound]) -> u64 {
    rounds
        .iter()
        .flat_map(|r| &r.batches)
        .map(|b| b.len() as u64)
        .sum()
}

/// Run every probe over the captured rounds of each driver (one inner
/// vector per driver session, rounds in session order).
pub fn run(drivers: &[Vec<CapturedRound>], config: ServiceConfig) -> ProbeResult {
    let all: Vec<CapturedRound> = drivers.iter().flatten().cloned().collect();
    let reports = reports_in(&all);
    let mut out = ProbeResult::default();
    if reports == 0 {
        out.mismatches.push("no rounds captured".into());
        return out;
    }
    let per = |ns: f64| ns / reports as f64;
    let (encode, decode, bytes) = codec(&all, &mut out.mismatches);
    out.encode_ns_per_report = per(encode);
    out.decode_ns_per_report = per(decode);
    out.bytes_per_report = bytes as f64 / reports as f64;
    out.accumulate_ns_per_report = per(kernels(&all, &mut out.mismatches));
    out.ingest_ns_per_report = per(ingest(drivers, config, &mut out.mismatches));
    out
}

/// Median encode and decode nanoseconds over the sample, plus its size
/// in bytes.
fn codec(rounds: &[CapturedRound], mismatches: &mut Vec<String>) -> (f64, f64, u64) {
    let frames: Vec<Frame> = rounds
        .iter()
        .flat_map(|r| r.batches.iter().map(move |b| (r.request.round, b)))
        .enumerate()
        .map(|(seq, (round, batch))| Frame::SubmitBatch {
            corr: seq as u64 + 1,
            session: 0,
            round,
            seq: seq as u64,
            responses: batch.clone(),
        })
        .collect();
    let mut enc = Vec::with_capacity(REPS);
    let mut dec = Vec::with_capacity(REPS);
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        encoded = frames
            .iter()
            .map(|f| encode_frame(std::hint::black_box(f)))
            .collect();
        enc.push(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        let decoded: Vec<_> = encoded
            .iter()
            .map(|b| decode_frame(std::hint::black_box(b)))
            .collect();
        dec.push(start.elapsed().as_nanos() as f64);
        for (got, want) in decoded.iter().zip(&frames) {
            match got {
                Ok((frame, _)) if frame == want => {}
                _ => {
                    mismatches.push("codec: decoded frame differs from the sent one".into());
                    return (0.0, 0.0, 0);
                }
            }
        }
    }
    let bytes = encoded.iter().map(|b| b.len() as u64).sum();
    (quantile(&enc, 0.5), quantile(&dec, 0.5), bytes)
}

/// Median `accumulate_columns` nanoseconds over the sample.
fn kernels(rounds: &[CapturedRound], mismatches: &mut Vec<String>) -> f64 {
    struct Prepared {
        oracle: ldp_fo::OracleHandle,
        columns: ReportColumns,
        scalar: Vec<u64>,
    }
    let mut prepared = Vec::with_capacity(rounds.len());
    for r in rounds {
        let req = &r.request;
        let oracle = match build_oracle(req.fo, req.epsilon, req.domain_size) {
            Ok(o) => o,
            Err(e) => {
                mismatches.push(format!("kernels: oracle for round {}: {e}", req.round));
                return 0.0;
            }
        };
        let n = r.batches.iter().map(Vec::len).sum();
        let mut columns = ReportColumns::for_kind(req.fo, req.domain_size, n);
        let mut scalar = vec![0u64; req.domain_size];
        for response in r.batches.iter().flatten() {
            if let UserResponse::Report { report, .. } = response {
                oracle.accumulate(report, &mut scalar);
                if !columns.try_push(report, req.domain_size) {
                    mismatches.push(format!("kernels: irregular report in round {}", req.round));
                }
            }
        }
        prepared.push(Prepared {
            oracle,
            columns,
            scalar,
        });
    }
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut counts: Vec<Vec<u64>> = prepared
            .iter()
            .map(|p| vec![0u64; p.scalar.len()])
            .collect();
        let start = Instant::now();
        for (p, c) in prepared.iter().zip(counts.iter_mut()) {
            p.oracle
                .accumulate_columns(std::hint::black_box(&p.columns), c);
        }
        times.push(start.elapsed().as_nanos() as f64);
        if prepared.iter().zip(&counts).any(|(p, c)| &p.scalar != c) {
            mismatches.push("kernels: batched counts differ from the scalar fold".into());
            return 0.0;
        }
    }
    quantile(&times, 0.5)
}

/// Median nanoseconds to replay every driver's captured rounds through a
/// fresh in-memory service with `config`.
fn ingest(
    drivers: &[Vec<CapturedRound>],
    config: ServiceConfig,
    mismatches: &mut Vec<String>,
) -> f64 {
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let service = IngestService::new(config);
        // Build each round's payload before the clock starts: the wire
        // path hands the service owned batches too.
        let mut work = Vec::new();
        for rounds in drivers {
            let session = match service.create_session() {
                Ok(s) => s,
                Err(e) => {
                    mismatches.push(format!("ingest: create_session: {e}"));
                    return 0.0;
                }
            };
            for r in rounds {
                work.push((session, r, r.batches.clone()));
            }
        }
        let mut estimates = Vec::with_capacity(work.len());
        let start = Instant::now();
        for (session, r, batches) in work {
            let req = &r.request;
            let opened = service.open_round(session, req.t, req.fo, req.epsilon, req.domain_size);
            let result = opened.and_then(|opened| {
                if opened.round != req.round {
                    return Err(ldp_ids::CoreError::StaleRound {
                        expected: opened.round,
                        got: req.round,
                    });
                }
                for batch in batches {
                    service.submit_batch(session, batch)?;
                }
                service.close_round(session)
            });
            estimates.push((r, result));
        }
        times.push(start.elapsed().as_nanos() as f64);
        for (r, result) in estimates {
            match result {
                Ok(e) if same_estimate(&e, &r.estimate) => {}
                Ok(_) => {
                    mismatches.push(format!(
                        "ingest: replayed round {} estimate differs from the wire's",
                        r.request.round
                    ));
                    return 0.0;
                }
                Err(e) => {
                    mismatches.push(format!("ingest: round {}: {e}", r.request.round));
                    return 0.0;
                }
            }
        }
    }
    quantile(&times, 0.5)
}

/// Whether two estimates agree bit for bit.
pub fn same_estimate(a: &ldp_ids::RoundEstimate, b: &ldp_ids::RoundEstimate) -> bool {
    a.reporters == b.reporters
        && a.epsilon.to_bits() == b.epsilon.to_bits()
        && a.frequencies.len() == b.frequencies.len()
        && a.frequencies
            .iter()
            .zip(&b.frequencies)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
