//! The [`IngestService`]: multi-round, multi-session lifecycle over one
//! shared worker pool.
//!
//! A *session* is one logical stream/query: a strictly sequential
//! sequence of collection rounds, mirroring
//! [`AggregationServer`](ldp_ids::protocol::AggregationServer)'s
//! contract. Any number of sessions may have rounds open concurrently —
//! their accumulators live side by side in the workers, keyed by
//! [`RoundKey`] — so independent mechanisms/queries ingest in parallel
//! over the same threads.
//!
//! Round-id validation happens here, synchronously on the submitting
//! thread, exactly as the sequential server does it; workers only ever
//! see pre-validated traffic (their own stale counting is defensive).
//!
//! ## Durability
//!
//! [`IngestService::open`] runs the same service *crash-safe*: every
//! lifecycle event and report delta is appended to a checksummed
//! write-ahead log (see [`wal`](crate::wal)) **before** the call
//! returns, and periodic snapshots (see [`recovery`](crate::recovery))
//! bound replay cost. After a crash, `open` on the same directory
//! rebuilds sessions, open-round tallies, refusal counters, and budget
//! positions, and re-closing a recovered round yields estimates
//! **bit-identical** to an uninterrupted run.
//!
//! Two rules make that work:
//!
//! 1. **Log before ack.** A record is on disk (per the configured
//!    [`WalSync`](crate::wal::WalSync) discipline) before the mutation
//!    it describes is acknowledged to the caller. Under
//!    [`WalSync::Always`](crate::wal::WalSync::Always) the fsync is
//!    *group-committed*: the frame is appended under the state lock
//!    (fixing its WAL order), but the caller waits for durability
//!    **after** releasing the lock, so concurrent sessions coalesce
//!    into one `sync_data` per burst (see
//!    [`GroupCommit`](crate::wal::GroupCommit)).
//! 2. **Dispatch under the state lock** (durable mode only). Worker
//!    inbox FIFO order then guarantees a snapshot's
//!    [`checkpoint`](crate::pool::WorkerPool::checkpoint) barrier
//!    observes exactly the batches dispatched — hence logged — before
//!    the cut, so a snapshot plus its WAL tail is always a consistent
//!    image. (The non-durable service keeps dispatching outside the
//!    lock; it gives up nothing.)
//!
//! Clients that may retry after a crash use the sequence-numbered
//! variants ([`submit_batch_at`](IngestService::submit_batch_at),
//! [`open_round_at`](IngestService::open_round_at),
//! [`close_round_at`](IngestService::close_round_at)): replaying an
//! already-acknowledged step is an idempotent no-op (a re-closed round
//! returns the original estimate bit for bit), and skipping a step is a
//! typed [`CoreError::SequenceGap`].

use crate::batch::{Batch, RoundKey, ServiceConfig};
use crate::faults;
use crate::obs::ServiceMetrics;
use crate::pool::WorkerPool;
use crate::recovery::{self, OpenSnapshot, RecoveryReport, SessionSnapshot, SnapshotState};
use crate::wal::{Commit, Wal, WalRecord, WalStats};
use ldp_fo::{build_oracle, FoKind, OracleHandle};
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::{ReportRequest, UserResponse};
use ldp_ids::CoreError;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies one ingest session (one logical stream/query).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(u64);

impl SessionId {
    /// Construct from a raw id (test/interop helper; ids handed out by
    /// [`IngestService::create_session`] are the normal path).
    pub fn from_raw(raw: u64) -> Self {
        SessionId(raw)
    }

    /// The raw id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A point-in-time view of one session's sequencing state — everything a
/// reconnecting client needs to resume the idempotent `*_at` call
/// sequence exactly where the service left off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionStatus {
    /// The round id the next [`IngestService::open_round_at`] must name.
    pub next_round: u64,
    /// The sequence number the next
    /// [`IngestService::submit_batch_at`] must carry.
    pub next_seq: u64,
    /// The currently open round, if any.
    pub open_round: Option<u64>,
    /// Privacy budget consumed by closed rounds (Σ round ε).
    pub epsilon_spent: f64,
    /// Refusals observed across closed rounds.
    pub refusals: u64,
}

#[derive(Debug)]
struct OpenRound {
    request: ReportRequest,
    oracle: OracleHandle,
    pending: Vec<UserResponse>,
}

#[derive(Debug, Default)]
struct SessionState {
    next_round: u64,
    /// Write-ahead sequence number of the next report delta. Every
    /// logged `Reports` record carries one; recovery and retries use it
    /// to apply each delta exactly once.
    next_seq: u64,
    refusals: u64,
    /// Privacy budget consumed by closed rounds (Σ round ε).
    epsilon_spent: f64,
    /// The most recently closed round and its estimate — kept so a
    /// client retrying a close whose ack was lost in a crash gets the
    /// original estimate back bit for bit.
    last_closed: Option<(u64, RoundEstimate)>,
    open: Option<OpenRound>,
}

/// WAL + snapshot bookkeeping of a durable service.
#[derive(Debug)]
struct DurableState {
    dir: PathBuf,
    wal: Wal,
    generation: u64,
    records_since_snapshot: u64,
}

#[derive(Debug)]
struct ServiceState {
    sessions: HashMap<SessionId, SessionState>,
    next_session: u64,
    durable: Option<DurableState>,
}

/// The sharded, parallel report-ingestion service.
///
/// Internally synchronized: all methods take `&self`, so one service
/// behind an `Arc` serves any number of submitting threads and sessions.
#[derive(Debug)]
pub struct IngestService {
    pool: WorkerPool,
    config: ServiceConfig,
    state: Mutex<ServiceState>,
    recovery: Option<RecoveryReport>,
    metrics: ServiceMetrics,
}

fn unknown(session: SessionId) -> CoreError {
    CoreError::UnknownSession {
        session: session.raw(),
    }
}

fn io_err(op: &str, path: &Path, e: &std::io::Error) -> CoreError {
    CoreError::Wal {
        detail: format!("{op} {}: {e}", path.display()),
    }
}

impl IngestService {
    /// An in-memory service sized by `config` (no durability: state dies
    /// with the process). Metrics go to a private standalone registry;
    /// see [`IngestService::new_observed`].
    pub fn new(config: ServiceConfig) -> Self {
        IngestService::new_observed(config, ServiceMetrics::standalone())
    }

    /// [`IngestService::new`] recording into `metrics` (typically scoped
    /// to a shared registry with a `tenant` label).
    pub fn new_observed(config: ServiceConfig, metrics: ServiceMetrics) -> Self {
        IngestService {
            pool: WorkerPool::new(
                config.threads,
                config.queue_depth,
                metrics.shard_depth_gauges(config.threads.max(1)),
            ),
            config,
            state: Mutex::new(ServiceState {
                sessions: HashMap::new(),
                next_session: 0,
                durable: None,
            }),
            recovery: None,
            metrics,
        }
    }

    /// A *durable* service journaling to `dir` (created if absent).
    ///
    /// If `dir` holds state from a previous run — cleanly shut down or
    /// crashed — it is recovered first: sessions, open-round tallies,
    /// refusal counters and budget positions are rebuilt from the latest
    /// snapshot plus WAL replay, then the recovered state is immediately
    /// persisted as a fresh generation (retiring any torn WAL tail).
    /// What recovery found is available via
    /// [`recovery_report`](Self::recovery_report).
    pub fn open(config: ServiceConfig, dir: impl AsRef<Path>) -> Result<Self, CoreError> {
        IngestService::open_observed(config, dir, ServiceMetrics::standalone())
    }

    /// [`IngestService::open`] recording into `metrics` (typically
    /// scoped to a shared registry with a `tenant` label).
    pub fn open_observed(
        config: ServiceConfig,
        dir: impl AsRef<Path>,
        metrics: ServiceMetrics,
    ) -> Result<Self, CoreError> {
        let replay_start = Instant::now();
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, &e))?;
        let recovered = recovery::recover(&dir)?;
        metrics.replay_ns.record_duration(replay_start.elapsed());

        // Rotate immediately: write the recovered state as generation
        // g+1 and start its empty WAL, so the old generation (and any
        // corrupt tail) is retired before new traffic lands.
        let next_gen = recovered.generation + 1;
        let snapshot = SnapshotState {
            next_session: recovered.next_session,
            sessions: recovered
                .sessions
                .iter()
                .map(|rs| SessionSnapshot {
                    id: rs.id,
                    next_round: rs.next_round,
                    next_seq: rs.next_seq,
                    refusals: rs.refusals,
                    epsilon_spent: rs.epsilon_spent,
                    last_closed: rs.last_closed.clone(),
                    open: rs.open.as_ref().map(|o| OpenSnapshot {
                        request: o.request.clone(),
                        tally: o.tally.clone(),
                        pending: Vec::new(),
                    }),
                })
                .collect(),
        };
        recovery::write_snapshot(&dir, next_gen, &snapshot)?;
        let wal = Wal::create(
            &recovery::wal_path(&dir, next_gen),
            config.sync,
            metrics.wal.clone(),
        )?;
        recovery::remove_stale(&dir, next_gen);

        let pool = WorkerPool::new(
            config.threads,
            config.queue_depth,
            metrics.shard_depth_gauges(config.threads.max(1)),
        );
        let mut sessions = HashMap::new();
        for rs in recovered.sessions {
            let id = SessionId(rs.id);
            let mut state = SessionState {
                next_round: rs.next_round,
                next_seq: rs.next_seq,
                refusals: rs.refusals,
                epsilon_spent: rs.epsilon_spent,
                last_closed: rs.last_closed,
                open: None,
            };
            if let Some(open) = rs.open {
                // Re-inject the replayed tally: one worker carries it,
                // and commutative merging makes the eventual close exact.
                let key = RoundKey {
                    session: id,
                    round: open.request.round,
                };
                pool.seed(key, open.oracle.clone(), open.tally);
                state.open = Some(OpenRound {
                    request: open.request,
                    oracle: open.oracle,
                    pending: Vec::with_capacity(config.batch_size),
                });
            }
            sessions.insert(id, state);
        }

        Ok(IngestService {
            pool,
            config,
            state: Mutex::new(ServiceState {
                sessions,
                next_session: recovered.next_session,
                durable: Some(DurableState {
                    dir,
                    wal,
                    generation: next_gen,
                    records_since_snapshot: 0,
                }),
            }),
            recovery: Some(recovered.report),
            metrics,
        })
    }

    /// The metric handles this service records into.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The sizing this service runs with.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// What recovery found when this service was [`open`](Self::open)ed
    /// (`None` for an in-memory service).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Open a new session (an independent stream/query).
    pub fn create_session(&self) -> Result<SessionId, CoreError> {
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        let id = SessionId(st.next_session);
        let mut commit = Commit::Durable;
        if let Some(d) = st.durable.as_mut() {
            commit = d.wal.append(&WalRecord::CreateSession { session: id.0 })?;
            d.records_since_snapshot += 1;
        }
        st.next_session += 1;
        st.sessions.insert(id, SessionState::default());
        self.maybe_snapshot(st)?;
        drop(guard);
        commit.wait()?;
        Ok(id)
    }

    /// Open a collection round on `session` at timestamp `t`, with the
    /// frequency oracle built from `(fo, epsilon, domain_size)` — the
    /// same deterministic construction clients use, which is what lets a
    /// recovered round re-estimate bit-identically.
    pub fn open_round(
        &self,
        session: SessionId,
        t: u64,
        fo: FoKind,
        epsilon: f64,
        domain_size: usize,
    ) -> Result<ReportRequest, CoreError> {
        self.open_round_inner(session, None, t, fo, epsilon, domain_size)
    }

    /// [`open_round`](Self::open_round) for clients that may retry after
    /// a crash: `round` names the round being opened. Re-opening the
    /// round that is already open (a replayed step whose ack was lost)
    /// returns the original request; any other out-of-sequence round is
    /// a typed [`CoreError::StaleRound`].
    pub fn open_round_at(
        &self,
        session: SessionId,
        round: u64,
        t: u64,
        fo: FoKind,
        epsilon: f64,
        domain_size: usize,
    ) -> Result<ReportRequest, CoreError> {
        self.open_round_inner(session, Some(round), t, fo, epsilon, domain_size)
    }

    fn open_round_inner(
        &self,
        session: SessionId,
        expect: Option<u64>,
        t: u64,
        fo: FoKind,
        epsilon: f64,
        domain_size: usize,
    ) -> Result<ReportRequest, CoreError> {
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        let s = st
            .sessions
            .get_mut(&session)
            .ok_or_else(|| unknown(session))?;
        if let Some(open) = &s.open {
            // Idempotent retry: re-opening the open round hands back the
            // stored request. Anything else while a round is open is the
            // caller breaking the sequential-session contract.
            if expect == Some(open.request.round) {
                return Ok(open.request.clone());
            }
            return Err(CoreError::SessionBusy {
                session: session.raw(),
                round: open.request.round,
            });
        }
        if let Some(round) = expect {
            if round != s.next_round {
                return Err(CoreError::StaleRound {
                    expected: s.next_round,
                    got: round,
                });
            }
        }
        let oracle = build_oracle(fo, epsilon, domain_size)?;
        let request = ReportRequest {
            round: s.next_round,
            t,
            fo,
            epsilon,
            domain_size,
        };
        let mut commit = Commit::Durable;
        if let Some(d) = st.durable.as_mut() {
            commit = d.wal.append(&WalRecord::OpenRound {
                session: session.raw(),
                request: request.clone(),
            })?;
            d.records_since_snapshot += 1;
        }
        s.next_round += 1;
        s.open = Some(OpenRound {
            request: request.clone(),
            oracle,
            pending: Vec::with_capacity(self.config.batch_size),
        });
        self.metrics.rounds_opened.inc();
        self.maybe_snapshot(st)?;
        drop(guard);
        commit.wait()?;
        Ok(request)
    }

    /// Submit one response to `session`'s open round.
    ///
    /// Buffered into the current batch; every `batch_size` responses one
    /// batch is dispatched to the pool (blocking if the pool is
    /// saturated — backpressure). On a durable service the response is
    /// on the WAL before this returns.
    pub fn submit(&self, session: SessionId, response: UserResponse) -> Result<(), CoreError> {
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        let s = st
            .sessions
            .get_mut(&session)
            .ok_or_else(|| unknown(session))?;
        let open = s.open.as_mut().ok_or(CoreError::NoOpenRound)?;
        let (UserResponse::Report { round, .. } | UserResponse::Refused { round, .. }) = &response;
        if *round != open.request.round {
            return Err(CoreError::StaleRound {
                expected: open.request.round,
                got: *round,
            });
        }
        let commit = if let Some(d) = st.durable.as_mut() {
            let commit = d.wal.append(&WalRecord::Reports {
                session: session.raw(),
                round: open.request.round,
                seq: s.next_seq,
                responses: vec![response.clone()],
            })?;
            d.records_since_snapshot += 1;
            Some(commit)
        } else {
            None
        };
        s.next_seq += 1;
        self.metrics.reports.inc();
        open.pending.push(response);
        if open.pending.len() >= self.config.batch_size {
            let batch = Batch::encode(
                RoundKey {
                    session,
                    round: open.request.round,
                },
                &open.oracle,
                std::mem::replace(
                    &mut open.pending,
                    Vec::with_capacity(self.config.batch_size),
                ),
            );
            if let Some(commit) = commit {
                // Under the lock: the snapshot checkpoint barrier must
                // see every batch that made it to the WAL.
                faults::hit("service.mid_batch");
                self.pool.dispatch(batch);
                self.maybe_snapshot(st)?;
                drop(guard);
                return commit.wait();
            }
            // Outside the lock: a saturated pool back-pressures only
            // this submitter, not every session.
            drop(guard);
            self.pool.dispatch(batch);
            return Ok(());
        }
        if let Some(commit) = commit {
            self.maybe_snapshot(st)?;
            drop(guard);
            commit.wait()?;
        }
        Ok(())
    }

    /// Submit many responses at once (amortizes session locking and —
    /// durably — writes one WAL record for the whole delta).
    pub fn submit_batch(
        &self,
        session: SessionId,
        responses: Vec<UserResponse>,
    ) -> Result<(), CoreError> {
        self.submit_batch_inner(session, None, responses)
    }

    /// [`submit_batch`](Self::submit_batch) for clients that may retry
    /// after a crash: `seq` numbers this delta within the session
    /// (starting at 0, one per acknowledged submit). A delta the service
    /// already has is acknowledged again without being applied twice; a
    /// delta from the future is a typed [`CoreError::SequenceGap`]. The
    /// next expected number is [`next_seq`](Self::next_seq).
    pub fn submit_batch_at(
        &self,
        session: SessionId,
        seq: u64,
        responses: Vec<UserResponse>,
    ) -> Result<(), CoreError> {
        self.submit_batch_inner(session, Some(seq), responses)
    }

    fn submit_batch_inner(
        &self,
        session: SessionId,
        expect: Option<u64>,
        mut responses: Vec<UserResponse>,
    ) -> Result<(), CoreError> {
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        let s = st
            .sessions
            .get_mut(&session)
            .ok_or_else(|| unknown(session))?;
        if let Some(seq) = expect {
            if seq < s.next_seq {
                // Already logged and applied; the ack was lost. Idempotent.
                return Ok(());
            }
            if seq > s.next_seq {
                return Err(CoreError::SequenceGap {
                    expected: s.next_seq,
                    got: seq,
                });
            }
        }
        let open = s.open.as_mut().ok_or(CoreError::NoOpenRound)?;
        for response in &responses {
            let (UserResponse::Report { round, .. } | UserResponse::Refused { round, .. }) =
                response;
            if *round != open.request.round {
                return Err(CoreError::StaleRound {
                    expected: open.request.round,
                    got: *round,
                });
            }
        }
        self.metrics.reports.add(responses.len() as u64);
        let commit = if let Some(d) = st.durable.as_mut() {
            // Move the responses through the record and back: one WAL
            // frame for the whole delta, no clone of the payload.
            let record = WalRecord::Reports {
                session: session.raw(),
                round: open.request.round,
                seq: s.next_seq,
                responses,
            };
            let commit = d.wal.append(&record)?;
            d.records_since_snapshot += 1;
            let WalRecord::Reports { responses: r, .. } = record else {
                unreachable!()
            };
            responses = r;
            faults::hit("service.mid_batch");
            Some(commit)
        } else {
            None
        };
        s.next_seq += 1;
        let key = RoundKey {
            session,
            round: open.request.round,
        };
        let oracle = open.oracle.clone();
        if !open.pending.is_empty() {
            open.pending.append(&mut responses);
            responses = std::mem::take(&mut open.pending);
        }
        // Chunk by draining the iterator — one move per element (a
        // split_off loop would re-copy the remainder per batch).
        let batch_size = self.config.batch_size;
        let mut batches = Vec::with_capacity(responses.len() / batch_size + 1);
        let mut rest = responses.into_iter();
        loop {
            let chunk: Vec<UserResponse> = rest.by_ref().take(batch_size).collect();
            if chunk.len() < batch_size {
                open.pending = chunk;
                break;
            }
            batches.push(chunk);
        }
        if let Some(commit) = commit {
            for responses in batches {
                self.pool.dispatch(Batch::encode(key, &oracle, responses));
            }
            self.maybe_snapshot(st)?;
            drop(guard);
            commit.wait()?;
        } else {
            drop(guard);
            // Outside the lock: the columnar encode (the one copy pass
            // per batch) runs without serializing other sessions.
            for responses in batches {
                self.pool.dispatch(Batch::encode(key, &oracle, responses));
            }
        }
        Ok(())
    }

    /// The sequence number the session expects from its next
    /// [`submit_batch_at`](Self::submit_batch_at).
    pub fn next_seq(&self, session: SessionId) -> Result<u64, CoreError> {
        let guard = self.state.lock().unwrap();
        let s = guard
            .sessions
            .get(&session)
            .ok_or_else(|| unknown(session))?;
        Ok(s.next_seq)
    }

    /// Close `session`'s open round: flush the tail batch, gather every
    /// shard's tally, merge, and estimate. On a durable service the
    /// estimate itself is on the WAL before this returns, so a client
    /// that loses the ack can re-close and receive it bit-identically.
    pub fn close_round(&self, session: SessionId) -> Result<RoundEstimate, CoreError> {
        self.close_round_inner(session, None)
    }

    /// [`close_round`](Self::close_round) for clients that may retry
    /// after a crash: `round` names the round being closed. Re-closing
    /// the most recently closed round returns the original estimate bit
    /// for bit.
    pub fn close_round_at(
        &self,
        session: SessionId,
        round: u64,
    ) -> Result<RoundEstimate, CoreError> {
        self.close_round_inner(session, Some(round))
    }

    fn close_round_inner(
        &self,
        session: SessionId,
        expect: Option<u64>,
    ) -> Result<RoundEstimate, CoreError> {
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        let s = st
            .sessions
            .get_mut(&session)
            .ok_or_else(|| unknown(session))?;
        if let Some(round) = expect {
            let open_round = s.open.as_ref().map(|o| o.request.round);
            if open_round != Some(round) {
                if let Some((closed, estimate)) = &s.last_closed {
                    if *closed == round {
                        // Retry of an acknowledged (or logged-then-lost)
                        // close: hand the recorded estimate back.
                        return Ok(estimate.clone());
                    }
                }
                return Err(match open_round {
                    Some(expected) => CoreError::StaleRound {
                        expected,
                        got: round,
                    },
                    None => CoreError::NoOpenRound,
                });
            }
        }
        if st.durable.is_some() {
            // The whole close happens under the state lock: flush, then
            // gather (workers never take this lock, so no deadlock), then
            // log the outcome, then mutate. A crash anywhere in between
            // replays to the same estimate from the WAL.
            let open = s.open.take().ok_or(CoreError::NoOpenRound)?;
            let key = RoundKey {
                session,
                round: open.request.round,
            };
            if !open.pending.is_empty() {
                self.pool
                    .dispatch(Batch::encode(key, &open.oracle, open.pending));
            }
            faults::hit("service.before_close");
            let tally = self.pool.close_round(key, open.oracle.domain_size());
            debug_assert_eq!(tally.stale, 0, "stale traffic past session validation");
            let estimate = RoundEstimate {
                frequencies: open.oracle.estimate(&tally.support, tally.reporters),
                reporters: tally.reporters,
                epsilon: open.request.epsilon,
            };
            let d = st.durable.as_mut().expect("durable state checked above");
            let commit = d.wal.append(&WalRecord::CloseRound {
                session: session.raw(),
                round: key.round,
                refusals: tally.refusals,
                estimate: estimate.clone(),
            })?;
            d.records_since_snapshot += 1;
            let s = st
                .sessions
                .get_mut(&session)
                .expect("session present above");
            s.refusals += tally.refusals;
            s.epsilon_spent += open.request.epsilon;
            s.last_closed = Some((key.round, estimate.clone()));
            self.metrics.rounds_closed.inc();
            faults::hit("service.after_close");
            self.maybe_snapshot(st)?;
            drop(guard);
            commit.wait()?;
            return Ok(estimate);
        }
        // In-memory service: dispatch and gather outside the lock.
        let open = s.open.take().ok_or(CoreError::NoOpenRound)?;
        let key = RoundKey {
            session,
            round: open.request.round,
        };
        let (oracle, epsilon, tail) = (open.oracle, open.request.epsilon, open.pending);
        drop(guard);
        if !tail.is_empty() {
            self.pool.dispatch(Batch::encode(key, &oracle, tail));
        }
        let tally = self.pool.close_round(key, oracle.domain_size());
        debug_assert_eq!(tally.stale, 0, "stale traffic past session validation");
        let estimate = RoundEstimate {
            frequencies: oracle.estimate(&tally.support, tally.reporters),
            reporters: tally.reporters,
            epsilon,
        };
        let mut guard = self.state.lock().unwrap();
        if let Some(s) = guard.sessions.get_mut(&session) {
            s.refusals += tally.refusals;
            s.epsilon_spent += epsilon;
            s.last_closed = Some((key.round, estimate.clone()));
        }
        self.metrics.rounds_closed.inc();
        Ok(estimate)
    }

    /// The session's sequencing state, for clients resuming after a
    /// disconnect (see [`SessionStatus`]).
    pub fn status(&self, session: SessionId) -> Result<SessionStatus, CoreError> {
        let guard = self.state.lock().unwrap();
        let s = guard
            .sessions
            .get(&session)
            .ok_or_else(|| unknown(session))?;
        Ok(SessionStatus {
            next_round: s.next_round,
            next_seq: s.next_seq,
            open_round: s.open.as_ref().map(|o| o.request.round),
            epsilon_spent: s.epsilon_spent,
            refusals: s.refusals,
        })
    }

    /// Append/fsync counters of the current WAL generation (`None` for
    /// an in-memory service). Drives the group-commit rows of
    /// `BENCH_recovery.json`.
    pub fn wal_stats(&self) -> Option<WalStats> {
        let guard = self.state.lock().unwrap();
        guard.durable.as_ref().map(|d| d.wal.stats())
    }

    /// Refusals observed on `session` across closed rounds.
    pub fn refusals(&self, session: SessionId) -> Result<u64, CoreError> {
        let guard = self.state.lock().unwrap();
        let s = guard
            .sessions
            .get(&session)
            .ok_or_else(|| unknown(session))?;
        Ok(s.refusals)
    }

    /// Privacy budget consumed by `session`'s closed rounds (Σ round ε).
    pub fn epsilon_spent(&self, session: SessionId) -> Result<f64, CoreError> {
        let guard = self.state.lock().unwrap();
        let s = guard
            .sessions
            .get(&session)
            .ok_or_else(|| unknown(session))?;
        Ok(s.epsilon_spent)
    }

    /// Drop a finished session's bookkeeping. Ending a session whose
    /// round is still open is a typed [`CoreError::SessionBusy`].
    pub fn end_session(&self, session: SessionId) -> Result<(), CoreError> {
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        match st.sessions.get(&session) {
            None => return Err(unknown(session)),
            Some(s) => {
                if let Some(open) = &s.open {
                    return Err(CoreError::SessionBusy {
                        session: session.raw(),
                        round: open.request.round,
                    });
                }
            }
        }
        let mut commit = Commit::Durable;
        if let Some(d) = st.durable.as_mut() {
            commit = d.wal.append(&WalRecord::EndSession {
                session: session.raw(),
            })?;
            d.records_since_snapshot += 1;
        }
        st.sessions.remove(&session);
        self.maybe_snapshot(st)?;
        drop(guard);
        commit.wait()
    }

    /// Snapshot the full service state now and rotate the WAL (no-op on
    /// an in-memory service). Durable services also snapshot
    /// automatically every
    /// [`snapshot_every`](crate::ServiceConfig::snapshot_every) records.
    pub fn checkpoint(&self) -> Result<(), CoreError> {
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        if st.durable.is_none() {
            return Ok(());
        }
        self.snapshot_locked(st)
    }

    fn maybe_snapshot(&self, st: &mut ServiceState) -> Result<(), CoreError> {
        let every = self.config.snapshot_every;
        if every == 0 {
            return Ok(());
        }
        if st
            .durable
            .as_ref()
            .is_some_and(|d| d.records_since_snapshot >= every)
        {
            self.snapshot_locked(st)?;
        }
        Ok(())
    }

    /// Write generation g+1: checkpoint the workers (a barrier that —
    /// because durable dispatch happens under the state lock — observes
    /// exactly the WAL-covered batches), persist the snapshot atomically,
    /// start its empty WAL, and delete the old generation.
    fn snapshot_locked(&self, st: &mut ServiceState) -> Result<(), CoreError> {
        let snapshot_start = Instant::now();
        let mut ids: Vec<SessionId> = st.sessions.keys().copied().collect();
        ids.sort_by_key(|s| s.raw());
        let mut keys = Vec::new();
        let mut with_open = Vec::new();
        for id in &ids {
            if let Some(open) = &st.sessions[id].open {
                keys.push((
                    RoundKey {
                        session: *id,
                        round: open.request.round,
                    },
                    open.request.domain_size,
                ));
                with_open.push(*id);
            }
        }
        let tallies = self.pool.checkpoint(&keys);
        let mut tally_of: HashMap<SessionId, _> = with_open.into_iter().zip(tallies).collect();
        let snapshot = SnapshotState {
            next_session: st.next_session,
            sessions: ids
                .iter()
                .map(|id| {
                    let s = &st.sessions[id];
                    SessionSnapshot {
                        id: id.raw(),
                        next_round: s.next_round,
                        next_seq: s.next_seq,
                        refusals: s.refusals,
                        epsilon_spent: s.epsilon_spent,
                        last_closed: s.last_closed.clone(),
                        open: s.open.as_ref().map(|o| OpenSnapshot {
                            request: o.request.clone(),
                            tally: tally_of.remove(id).expect("checkpointed above"),
                            pending: o.pending.clone(),
                        }),
                    }
                })
                .collect(),
        };
        let d = st.durable.as_mut().expect("snapshot on a durable service");
        let next_gen = d.generation + 1;
        recovery::write_snapshot(&d.dir, next_gen, &snapshot)?;
        d.wal = Wal::create(
            &recovery::wal_path(&d.dir, next_gen),
            self.config.sync,
            self.metrics.wal.clone(),
        )?;
        d.generation = next_gen;
        d.records_since_snapshot = 0;
        recovery::remove_stale(&d.dir, next_gen);
        self.metrics
            .snapshot_ns
            .record_duration(snapshot_start.elapsed());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_fo::Report;

    fn service(threads: usize, batch: usize) -> IngestService {
        IngestService::new(ServiceConfig::with_threads(threads).with_batch_size(batch))
    }

    #[test]
    fn round_lifecycle_mirrors_sequential_server() {
        let svc = service(3, 16);
        let session = svc.create_session().unwrap();
        let req = svc.open_round(session, 0, FoKind::Grr, 8.0, 3).unwrap();
        assert_eq!(req.round, 0);
        for _ in 0..500 {
            svc.submit(
                session,
                UserResponse::Report {
                    round: 0,
                    report: Report::Grr(1),
                },
            )
            .unwrap();
        }
        let est = svc.close_round(session).unwrap();
        assert_eq!(est.reporters, 500);
        assert!(est.frequencies[1] > 0.9, "{est:?}");
    }

    #[test]
    fn stale_and_no_round_are_typed_errors() {
        let svc = service(2, 8);
        let session = svc.create_session().unwrap();
        let response = UserResponse::Report {
            round: 9,
            report: Report::Grr(0),
        };
        assert_eq!(
            svc.submit(session, response.clone()).unwrap_err(),
            CoreError::NoOpenRound
        );
        svc.open_round(session, 0, FoKind::Grr, 1.0, 2).unwrap();
        assert!(matches!(
            svc.submit(session, response).unwrap_err(),
            CoreError::StaleRound {
                expected: 0,
                got: 9
            }
        ));
        svc.close_round(session).unwrap();
        assert_eq!(
            svc.close_round(session).unwrap_err(),
            CoreError::NoOpenRound
        );
    }

    #[test]
    fn unknown_sessions_are_typed_errors_not_panics() {
        let svc = service(1, 4);
        let ghost = SessionId::from_raw(77);
        let response = UserResponse::Report {
            round: 0,
            report: Report::Grr(0),
        };
        assert_eq!(
            svc.submit(ghost, response.clone()).unwrap_err(),
            CoreError::UnknownSession { session: 77 }
        );
        assert_eq!(
            svc.submit_batch(ghost, vec![response]).unwrap_err(),
            CoreError::UnknownSession { session: 77 }
        );
        assert_eq!(
            svc.open_round(ghost, 0, FoKind::Grr, 1.0, 2).unwrap_err(),
            CoreError::UnknownSession { session: 77 }
        );
        assert_eq!(
            svc.close_round(ghost).unwrap_err(),
            CoreError::UnknownSession { session: 77 }
        );
        assert_eq!(
            svc.refusals(ghost).unwrap_err(),
            CoreError::UnknownSession { session: 77 }
        );
        assert_eq!(
            svc.end_session(ghost).unwrap_err(),
            CoreError::UnknownSession { session: 77 }
        );

        // An *ended* session is just as unknown as a never-created one.
        let session = svc.create_session().unwrap();
        svc.end_session(session).unwrap();
        assert_eq!(
            svc.close_round(session).unwrap_err(),
            CoreError::UnknownSession {
                session: session.raw()
            }
        );
    }

    #[test]
    fn double_open_and_busy_end_are_typed_errors() {
        let svc = service(1, 4);
        let session = svc.create_session().unwrap();
        svc.open_round(session, 0, FoKind::Grr, 1.0, 2).unwrap();
        assert_eq!(
            svc.open_round(session, 1, FoKind::Grr, 1.0, 2).unwrap_err(),
            CoreError::SessionBusy {
                session: session.raw(),
                round: 0
            }
        );
        assert_eq!(
            svc.end_session(session).unwrap_err(),
            CoreError::SessionBusy {
                session: session.raw(),
                round: 0
            }
        );
        svc.close_round(session).unwrap();
        svc.end_session(session).unwrap();
    }

    #[test]
    fn sessions_ingest_concurrently() {
        let svc = service(2, 4);
        let a = svc.create_session().unwrap();
        let b = svc.create_session().unwrap();
        svc.open_round(a, 0, FoKind::Grr, 8.0, 2).unwrap();
        svc.open_round(b, 5, FoKind::Grr, 8.0, 2).unwrap();
        for _ in 0..10 {
            svc.submit(
                a,
                UserResponse::Report {
                    round: 0,
                    report: Report::Grr(0),
                },
            )
            .unwrap();
            svc.submit(
                b,
                UserResponse::Report {
                    round: 0,
                    report: Report::Grr(1),
                },
            )
            .unwrap();
        }
        assert_eq!(svc.close_round(b).unwrap().reporters, 10);
        assert_eq!(svc.close_round(a).unwrap().reporters, 10);
        svc.end_session(a).unwrap();
        svc.end_session(b).unwrap();
    }

    #[test]
    fn refusals_and_budget_accumulate_per_session() {
        let svc = service(2, 4);
        let session = svc.create_session().unwrap();
        svc.open_round(session, 0, FoKind::Grr, 1.0, 2).unwrap();
        svc.submit(
            session,
            UserResponse::Refused {
                round: 0,
                requested: 1.0,
                available: 0.0,
            },
        )
        .unwrap();
        let est = svc.close_round(session).unwrap();
        assert_eq!(est.reporters, 0);
        assert_eq!(svc.refusals(session).unwrap(), 1);
        assert_eq!(svc.epsilon_spent(session).unwrap(), 1.0);
        svc.open_round(session, 1, FoKind::Grr, 0.5, 2).unwrap();
        svc.close_round(session).unwrap();
        assert_eq!(svc.epsilon_spent(session).unwrap(), 1.5);
    }

    #[test]
    fn submit_batch_splits_and_flushes() {
        let svc = service(2, 10);
        let session = svc.create_session().unwrap();
        svc.open_round(session, 0, FoKind::Grr, 8.0, 2).unwrap();
        let responses: Vec<UserResponse> = (0..37)
            .map(|_| UserResponse::Report {
                round: 0,
                report: Report::Grr(0),
            })
            .collect();
        svc.submit_batch(session, responses).unwrap();
        assert_eq!(svc.close_round(session).unwrap().reporters, 37);
    }

    #[test]
    fn sequenced_submits_are_idempotent() {
        let svc = service(1, 8);
        let session = svc.create_session().unwrap();
        svc.open_round(session, 0, FoKind::Grr, 8.0, 2).unwrap();
        let delta = |n: usize| -> Vec<UserResponse> {
            (0..n)
                .map(|_| UserResponse::Report {
                    round: 0,
                    report: Report::Grr(0),
                })
                .collect()
        };
        assert_eq!(svc.next_seq(session).unwrap(), 0);
        svc.submit_batch_at(session, 0, delta(5)).unwrap();
        // A retry of the acknowledged delta is a no-op...
        svc.submit_batch_at(session, 0, delta(5)).unwrap();
        // ...and a skipped sequence number is a typed gap.
        assert_eq!(
            svc.submit_batch_at(session, 2, delta(5)).unwrap_err(),
            CoreError::SequenceGap {
                expected: 1,
                got: 2
            }
        );
        svc.submit_batch_at(session, 1, delta(3)).unwrap();
        assert_eq!(svc.close_round(session).unwrap().reporters, 8);
    }

    #[test]
    fn close_round_at_replays_the_last_estimate() {
        let svc = service(2, 4);
        let session = svc.create_session().unwrap();
        svc.open_round(session, 0, FoKind::Grr, 1.0, 3).unwrap();
        for _ in 0..20 {
            svc.submit(
                session,
                UserResponse::Report {
                    round: 0,
                    report: Report::Grr(2),
                },
            )
            .unwrap();
        }
        let first = svc.close_round_at(session, 0).unwrap();
        let replay = svc.close_round_at(session, 0).unwrap();
        assert_eq!(first, replay);
        assert_eq!(
            svc.close_round_at(session, 5).unwrap_err(),
            CoreError::NoOpenRound
        );
    }

    #[test]
    fn open_round_at_replays_the_open_request() {
        let svc = service(1, 4);
        let session = svc.create_session().unwrap();
        let first = svc
            .open_round_at(session, 0, 7, FoKind::Grr, 1.0, 2)
            .unwrap();
        let replay = svc
            .open_round_at(session, 0, 7, FoKind::Grr, 1.0, 2)
            .unwrap();
        assert_eq!(first, replay);
        assert_eq!(
            svc.open_round_at(session, 1, 7, FoKind::Grr, 1.0, 2)
                .unwrap_err(),
            CoreError::SessionBusy {
                session: session.raw(),
                round: 0
            }
        );
        svc.close_round(session).unwrap();
        assert_eq!(
            svc.open_round_at(session, 5, 8, FoKind::Grr, 1.0, 2)
                .unwrap_err(),
            CoreError::StaleRound {
                expected: 1,
                got: 5
            }
        );
    }
}
