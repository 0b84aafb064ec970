//! The benchmark-side [`ReportSink`] over [`NetClient`]: what turns
//! `GenericClientCollector`'s per-user responses into wire traffic.
//!
//! The collector hands responses over one at a time; the sink buffers
//! them into `SubmitBatch` frames of `batch_size` responses, flushes the
//! tail on close, and records what the layers below did: rounds attempted
//! and failed, frames sent, the last closed estimate, and (when asked) a
//! bounded sample of whole rounds for the offline layer probes.

use crate::trace::Trace;
use ldp_fo::{FoKind, OracleHandle};
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::{ReportRequest, ReportSink, UserResponse};
use ldp_ids::CoreError;
use ldp_net::{ClientStats, NetClient, NetError};

/// One fully captured round: its request, the batches exactly as sent,
/// and the estimate the server returned.
#[derive(Debug, Clone)]
pub struct CapturedRound {
    /// The round's request (oracle parameters).
    pub request: ReportRequest,
    /// The `SubmitBatch` payloads, in send order.
    pub batches: Vec<Vec<UserResponse>>,
    /// The estimate `close_round` returned.
    pub estimate: RoundEstimate,
}

/// Per-sink counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkCounters {
    /// Rounds opened (or attempted).
    pub rounds: u64,
    /// Rounds that met any RPC error, retry, reconnect, timeout,
    /// overload rejection or client refusal.
    pub failed_rounds: u64,
    /// `SubmitBatch` frames sent.
    pub submit_frames: u64,
}

/// A [`ReportSink`] that tallies through a loopback [`NetClient`].
pub struct NetSink {
    client: NetClient,
    batch_size: usize,
    batch: Vec<UserResponse>,
    round: Option<ReportRequest>,
    round_failed: bool,
    stats_at_open: ClientStats,
    refusals: u64,
    error: Option<String>,
    counters: SinkCounters,
    last_closed: Option<(u64, RoundEstimate)>,
    capture_budget: u64,
    capturing: Option<Vec<Vec<UserResponse>>>,
    captured: Vec<CapturedRound>,
    drop_nth: Option<u64>,
    seen: u64,
    trace: Trace,
}

impl NetSink {
    /// A sink sending frames of `batch_size` responses over `client`.
    pub fn new(client: NetClient, batch_size: usize, trace: Trace) -> NetSink {
        let stats_at_open = client.stats();
        NetSink {
            client,
            batch_size: batch_size.max(1),
            batch: Vec::new(),
            round: None,
            round_failed: false,
            stats_at_open,
            refusals: 0,
            error: None,
            counters: SinkCounters::default(),
            last_closed: None,
            capture_budget: 0,
            capturing: None,
            captured: Vec::new(),
            drop_nth: None,
            seen: 0,
            trace,
        }
    }

    /// Keep whole rounds (as sent) until about `reports` responses have
    /// been captured.
    pub fn capture_up_to(mut self, reports: u64) -> NetSink {
        self.capture_budget = reports;
        self
    }

    /// Fault injection for the benchmark's own gate test: silently drop
    /// the `n`-th response (0-based) instead of sending it.
    pub fn dropping_response(mut self, n: u64) -> NetSink {
        self.drop_nth = Some(n);
        self
    }

    /// Counters so far.
    pub fn counters(&self) -> SinkCounters {
        self.counters
    }

    /// The first transport error met, if any.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// The most recently closed round and its estimate.
    pub fn last_closed(&self) -> Option<&(u64, RoundEstimate)> {
        self.last_closed.as_ref()
    }

    /// The rounds captured for the offline layer probes.
    pub fn captured(&self) -> &[CapturedRound] {
        &self.captured
    }

    /// The session this sink's client is bound to.
    pub fn session(&self) -> u64 {
        self.client.session()
    }

    /// Retry/reconnect/timeout/overload counters of the client.
    pub fn client_stats(&self) -> ClientStats {
        self.client.stats()
    }

    /// Record a transport failure and turn it into the error the
    /// collector propagates. `CoreError` has no transport variant, so the
    /// failure travels as a `Wal` error whose detail names the cause.
    fn fail(&mut self, e: &NetError) -> CoreError {
        self.round_failed = true;
        let detail = format!("loopback transport: {e}");
        self.error.get_or_insert(detail.clone());
        CoreError::Wal { detail }
    }

    /// The first transport failure, re-raised: once the connection has
    /// failed, every later call fails the same way.
    fn healthy(&self) -> Result<(), CoreError> {
        match &self.error {
            Some(detail) => Err(CoreError::Wal {
                detail: detail.clone(),
            }),
            None => Ok(()),
        }
    }

    fn captured_reports(&self) -> u64 {
        self.captured
            .iter()
            .flat_map(|r| &r.batches)
            .map(|b| b.len() as u64)
            .sum()
    }

    fn close_inner(&mut self) -> Result<RoundEstimate, CoreError> {
        self.healthy()?;
        if !self.batch.is_empty() {
            self.flush()?;
        }
        let client = &mut self.client;
        let closed = self.trace.span("net.close_round", || client.close_round());
        let estimate = closed.map_err(|e| self.fail(&e))?;
        let request = self.round.clone().expect("close follows open");
        if let Some(batches) = self.capturing.take() {
            self.captured.push(CapturedRound {
                request: request.clone(),
                batches,
                estimate: estimate.clone(),
            });
        }
        self.last_closed = Some((request.round, estimate.clone()));
        Ok(estimate)
    }

    fn flush(&mut self) -> Result<(), CoreError> {
        let batch = std::mem::replace(&mut self.batch, Vec::with_capacity(self.batch_size));
        if let Some(rounds) = self.capturing.as_mut() {
            self.trace
                .span("bench.capture", || rounds.push(batch.clone()));
        }
        self.counters.submit_frames += 1;
        let client = &mut self.client;
        let sent = self
            .trace
            .span("net.submit_batch", || client.submit_batch(batch));
        sent.map_err(|e| self.fail(&e))
    }

    fn end_round(&mut self) {
        let now = self.client.stats();
        let before = self.stats_at_open;
        if now.retries != before.retries
            || now.reconnects != before.reconnects
            || now.timeouts != before.timeouts
            || now.overloaded != before.overloaded
        {
            self.round_failed = true;
        }
        if self.round_failed {
            self.counters.failed_rounds += 1;
        }
        self.round = None;
    }
}

impl ReportSink for NetSink {
    fn open_round(
        &mut self,
        t: u64,
        fo: FoKind,
        epsilon: f64,
        oracle: OracleHandle,
    ) -> ReportRequest {
        self.counters.rounds += 1;
        self.round_failed = self.error.is_some();
        self.stats_at_open = self.client.stats();
        self.batch.clear();
        let d = oracle.domain_size();
        if self.captured_reports() < self.capture_budget {
            self.capturing = Some(Vec::new());
        }
        let client = &mut self.client;
        let opened = self.trace.span("net.open_round", || {
            client.open_round_with(t, fo, epsilon, d)
        });
        let request = match opened {
            Ok(request) => request,
            Err(e) => {
                // The trait cannot fail here; the error surfaces from the
                // round's first submit (or its close).
                self.fail(&e);
                ReportRequest {
                    round: u64::MAX,
                    t,
                    fo,
                    epsilon,
                    domain_size: d,
                }
            }
        };
        self.round = Some(request.clone());
        request
    }

    fn submit(&mut self, response: &UserResponse) -> Result<(), CoreError> {
        self.healthy()?;
        let n = self.seen;
        self.seen += 1;
        if self.drop_nth == Some(n) {
            return Ok(());
        }
        if !response.is_report() {
            self.refusals += 1;
            self.round_failed = true;
        }
        self.batch.push(response.clone());
        if self.batch.len() >= self.batch_size {
            self.flush()?;
        }
        Ok(())
    }

    fn close_round(&mut self) -> Result<RoundEstimate, CoreError> {
        let result = self.close_inner();
        self.end_round();
        result
    }

    fn refusals(&self) -> u64 {
        self.refusals
    }
}
