//! Crash recovery: snapshot files, generation rotation, and WAL replay.
//!
//! ## Generation scheme
//!
//! A durability directory holds at most one *generation* of state:
//!
//! ```text
//! snap-<gen>.bin   checksummed snapshot of the full logical state
//! wal-<gen>.log    every record accepted after that snapshot
//! ```
//!
//! Taking a snapshot writes `snap-<g+1>.bin` atomically (tmp file,
//! fsync, rename, directory fsync), then starts the empty
//! `wal-<g+1>.log` and deletes the old generation. A crash at any point
//! leaves either generation `g` fully intact or generation `g+1`
//! already valid — recovery picks the highest-generation readable
//! snapshot and replays its WAL on top:
//!
//! * records already covered by the snapshot are skipped via the
//!   session's write-ahead sequence numbers;
//! * replayed report deltas re-fold through the round oracle
//!   (reconstructed deterministically from the logged
//!   [`ReportRequest`]), so recovered support counts are bit-identical
//!   to an uninterrupted run;
//! * every replayed round close is *verified*: the estimate recomputed
//!   from the replayed tally must equal the logged estimate bit for
//!   bit, else [`CoreError::RecoveryMismatch`] is returned.
//!
//! A torn or corrupt WAL tail truncates replay at the last complete
//! record and is surfaced as a typed error in the [`RecoveryReport`] —
//! recovery itself still succeeds.

use crate::batch::RoundKey;
use crate::codec::{
    crc32, put_estimate, put_f64, put_request, put_response, put_u32, put_u64, take_estimate,
    take_request, take_response, Cursor,
};
use crate::session::SessionId;
use crate::shard::{ShardAccumulator, ShardTally};
use crate::wal::{self, WalRecord};
use ldp_fo::{build_oracle, OracleHandle};
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::{ReportRequest, UserResponse};
use ldp_ids::CoreError;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot file.
pub const SNAP_MAGIC: &[u8; 8] = b"LDPSNP01";

/// Path of generation `gen`'s WAL inside `dir`.
pub fn wal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen:016x}.log"))
}

/// Path of generation `gen`'s snapshot inside `dir`.
pub fn snap_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("snap-{gen:016x}.bin"))
}

/// What recovery found and rebuilt — attached to the reopened service
/// via [`IngestService::recovery_report`](crate::IngestService::recovery_report).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Generation of the snapshot recovery started from (`None`: no
    /// snapshot existed yet; replay started from the empty state).
    pub snapshot_generation: Option<u64>,
    /// Complete WAL records replayed on top of the snapshot.
    pub wal_records_replayed: u64,
    /// Sessions alive after recovery.
    pub sessions: usize,
    /// Rounds re-opened mid-flight after recovery.
    pub open_rounds: usize,
    /// Present when the WAL ended in a torn or corrupt frame: the typed
    /// error describing the tail that was discarded. The state up to the
    /// last complete record was recovered normally.
    pub corrupt_tail: Option<CoreError>,
}

/// One session's fully reconstructed state.
#[derive(Debug)]
pub(crate) struct RecoveredSession {
    pub id: u64,
    pub next_round: u64,
    pub next_seq: u64,
    pub refusals: u64,
    pub epsilon_spent: f64,
    pub last_closed: Option<(u64, RoundEstimate)>,
    pub open: Option<RecoveredOpen>,
}

/// A round that was open at the crash, rebuilt to its pre-crash tally.
#[derive(Debug)]
pub(crate) struct RecoveredOpen {
    pub request: ReportRequest,
    pub oracle: OracleHandle,
    pub tally: ShardTally,
}

/// Everything [`recover`] hands back to the service constructor.
#[derive(Debug)]
pub(crate) struct Recovered {
    pub generation: u64,
    pub next_session: u64,
    pub sessions: Vec<RecoveredSession>,
    pub report: RecoveryReport,
}

// ---------------------------------------------------------------------
// Snapshot state: the serializable image of the service's logical state.

/// The serializable image of one session inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SessionSnapshot {
    pub id: u64,
    pub next_round: u64,
    pub next_seq: u64,
    pub refusals: u64,
    pub epsilon_spent: f64,
    pub last_closed: Option<(u64, RoundEstimate)>,
    pub open: Option<OpenSnapshot>,
}

/// The serializable image of an open round: its request, the tally the
/// shards had folded by the snapshot cut, and the session-layer pending
/// buffer that had not been dispatched yet.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OpenSnapshot {
    pub request: ReportRequest,
    pub tally: ShardTally,
    pub pending: Vec<UserResponse>,
}

/// The full serializable service state.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct SnapshotState {
    pub next_session: u64,
    pub sessions: Vec<SessionSnapshot>,
}

impl SnapshotState {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        put_u64(&mut out, self.next_session);
        put_u32(&mut out, self.sessions.len() as u32);
        for s in &self.sessions {
            put_u64(&mut out, s.id);
            put_u64(&mut out, s.next_round);
            put_u64(&mut out, s.next_seq);
            put_u64(&mut out, s.refusals);
            put_f64(&mut out, s.epsilon_spent);
            let flags = u8::from(s.last_closed.is_some()) | (u8::from(s.open.is_some()) << 1);
            out.push(flags);
            if let Some((round, estimate)) = &s.last_closed {
                put_u64(&mut out, *round);
                put_estimate(&mut out, estimate);
            }
            if let Some(open) = &s.open {
                put_request(&mut out, &open.request);
                put_u32(&mut out, open.tally.support.len() as u32);
                for &c in &open.tally.support {
                    put_u64(&mut out, c);
                }
                put_u64(&mut out, open.tally.reporters);
                put_u64(&mut out, open.tally.refusals);
                put_u64(&mut out, open.tally.stale);
                put_u32(&mut out, open.pending.len() as u32);
                for response in &open.pending {
                    put_response(&mut out, response);
                }
            }
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<SnapshotState, String> {
        let mut cur = Cursor::new(payload);
        let next_session = cur.u64()?;
        let n = cur.u32()? as usize;
        if n > payload.len() {
            return Err(format!("session count {n} exceeds payload"));
        }
        let mut sessions = Vec::with_capacity(n);
        for _ in 0..n {
            let id = cur.u64()?;
            let next_round = cur.u64()?;
            let next_seq = cur.u64()?;
            let refusals = cur.u64()?;
            let epsilon_spent = cur.f64()?;
            let flags = cur.u8()?;
            let last_closed = if flags & 1 != 0 {
                Some((cur.u64()?, take_estimate(&mut cur)?))
            } else {
                None
            };
            let open = if flags & 2 != 0 {
                let request = take_request(&mut cur)?;
                let d = cur.u32()? as usize;
                if d > payload.len() {
                    return Err(format!("domain {d} exceeds payload"));
                }
                let mut support = Vec::with_capacity(d);
                for _ in 0..d {
                    support.push(cur.u64()?);
                }
                let tally = ShardTally {
                    support,
                    reporters: cur.u64()?,
                    refusals: cur.u64()?,
                    stale: cur.u64()?,
                };
                let pending_n = cur.u32()? as usize;
                if pending_n > payload.len() {
                    return Err(format!("pending count {pending_n} exceeds payload"));
                }
                let mut pending = Vec::with_capacity(pending_n);
                for _ in 0..pending_n {
                    pending.push(take_response(&mut cur)?);
                }
                Some(OpenSnapshot {
                    request,
                    tally,
                    pending,
                })
            } else {
                None
            };
            sessions.push(SessionSnapshot {
                id,
                next_round,
                next_seq,
                refusals,
                epsilon_spent,
                last_closed,
                open,
            });
        }
        cur.finish()?;
        Ok(SnapshotState {
            next_session,
            sessions,
        })
    }
}

fn snap_err(op: &str, path: &Path, e: &std::io::Error) -> CoreError {
    CoreError::Wal {
        detail: format!("{op} {}: {e}", path.display()),
    }
}

/// Write `state` as generation `gen`'s snapshot, atomically: tmp file,
/// fsync, rename into place, directory fsync.
pub(crate) fn write_snapshot(dir: &Path, gen: u64, state: &SnapshotState) -> Result<(), CoreError> {
    let payload = state.encode();
    let mut bytes = Vec::with_capacity(24 + payload.len());
    bytes.extend_from_slice(SNAP_MAGIC);
    put_u64(&mut bytes, gen);
    put_u32(&mut bytes, payload.len() as u32);
    put_u32(&mut bytes, crc32(&payload));
    bytes.extend_from_slice(&payload);

    let final_path = snap_path(dir, gen);
    let tmp_path = final_path.with_extension("bin.tmp");
    {
        let mut tmp = std::fs::File::create(&tmp_path)
            .map_err(|e| snap_err("create snapshot tmp", &tmp_path, &e))?;
        tmp.write_all(&bytes)
            .map_err(|e| snap_err("write snapshot", &tmp_path, &e))?;
        tmp.sync_data()
            .map_err(|e| snap_err("sync snapshot", &tmp_path, &e))?;
    }
    crate::faults::hit("snapshot.before_rename");
    std::fs::rename(&tmp_path, &final_path)
        .map_err(|e| snap_err("rename snapshot", &final_path, &e))?;
    sync_dir(dir);
    crate::faults::hit("snapshot.after_rename");
    Ok(())
}

/// fsync the directory so a renamed snapshot survives a host crash.
/// Best-effort: not every platform lets you open a directory.
fn sync_dir(dir: &Path) {
    #[cfg(unix)]
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    #[cfg(not(unix))]
    let _ = dir;
}

fn read_snapshot(path: &Path) -> Result<SnapshotState, CoreError> {
    let bytes = std::fs::read(path).map_err(|e| snap_err("read snapshot", path, &e))?;
    let file = path.display().to_string();
    let corrupt = |offset: u64, detail: String| CoreError::Corrupt {
        file: file.clone(),
        offset,
        detail,
    };
    if bytes.len() < 24 {
        return Err(corrupt(
            0,
            format!("short snapshot ({} bytes)", bytes.len()),
        ));
    }
    if &bytes[..8] != SNAP_MAGIC {
        return Err(corrupt(0, "bad magic; not an LDPSNP01 file".into()));
    }
    let mut cur = Cursor::new(&bytes[8..24]);
    let _gen = cur.u64().unwrap();
    let len = cur.u32().unwrap() as usize;
    let crc = cur.u32().unwrap();
    if bytes.len() - 24 != len {
        return Err(corrupt(
            24,
            format!("payload length {} != header length {len}", bytes.len() - 24),
        ));
    }
    let payload = &bytes[24..];
    if crc32(payload) != crc {
        return Err(corrupt(24, "snapshot checksum mismatch".into()));
    }
    SnapshotState::decode(payload).map_err(|detail| corrupt(24, detail))
}

/// Parse a generation number out of `snap-<hex>.bin` / `wal-<hex>.log`.
fn parse_gen(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    u64::from_str_radix(hex, 16).ok()
}

/// Highest snapshot generation present in `dir` (by filename).
fn latest_snapshot_gen(dir: &Path) -> Result<Option<u64>, CoreError> {
    let entries = std::fs::read_dir(dir).map_err(|e| snap_err("list", dir, &e))?;
    let mut latest = None;
    for entry in entries {
        let entry = entry.map_err(|e| snap_err("list", dir, &e))?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(gen) = parse_gen(name, "snap-", ".bin") {
                latest = latest.max(Some(gen));
            }
        }
    }
    Ok(latest)
}

/// Delete every snapshot/WAL generation other than `keep`, plus
/// leftover tmp files. Best-effort cleanup after a rotation.
pub(crate) fn remove_stale(dir: &Path, keep: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = name.ends_with(".tmp")
            || parse_gen(name, "snap-", ".bin").is_some_and(|g| g != keep)
            || parse_gen(name, "wal-", ".log").is_some_and(|g| g != keep);
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

// ---------------------------------------------------------------------
// Replay.

struct WorkingOpen {
    request: ReportRequest,
    acc: ShardAccumulator,
}

struct WorkingSession {
    next_round: u64,
    next_seq: u64,
    refusals: u64,
    epsilon_spent: f64,
    last_closed: Option<(u64, RoundEstimate)>,
    open: Option<WorkingOpen>,
}

fn mismatch(detail: String) -> CoreError {
    CoreError::RecoveryMismatch { detail }
}

fn rebuild_oracle(request: &ReportRequest) -> Result<OracleHandle, CoreError> {
    build_oracle(request.fo, request.epsilon, request.domain_size).map_err(|e| {
        mismatch(format!(
            "logged round parameters no longer build an oracle: {e}"
        ))
    })
}

fn open_from_snapshot(id: u64, open: &OpenSnapshot) -> Result<WorkingOpen, CoreError> {
    let oracle = rebuild_oracle(&open.request)?;
    let key = RoundKey {
        session: SessionId::from_raw(id),
        round: open.request.round,
    };
    let mut acc = ShardAccumulator::with_tally(key, oracle, open.tally.clone());
    // The pending buffer was logged before the snapshot cut but never
    // dispatched; fold it now so the recovered tally is complete.
    for response in &open.pending {
        acc.fold(response);
    }
    Ok(WorkingOpen {
        request: open.request.clone(),
        acc,
    })
}

fn apply_record(
    sessions: &mut HashMap<u64, WorkingSession>,
    next_session: &mut u64,
    record: WalRecord,
) -> Result<(), CoreError> {
    match record {
        WalRecord::CreateSession { session } => {
            if sessions
                .insert(
                    session,
                    WorkingSession {
                        next_round: 0,
                        next_seq: 0,
                        refusals: 0,
                        epsilon_spent: 0.0,
                        last_closed: None,
                        open: None,
                    },
                )
                .is_some()
            {
                return Err(mismatch(format!("session {session} created twice")));
            }
            *next_session = (*next_session).max(session + 1);
        }
        WalRecord::OpenRound { session, request } => {
            let s = sessions
                .get_mut(&session)
                .ok_or_else(|| mismatch(format!("open round on unknown session {session}")))?;
            if let Some(open) = &s.open {
                return Err(mismatch(format!(
                    "session {session} opens round {} with round {} still open",
                    request.round, open.request.round
                )));
            }
            if request.round != s.next_round {
                return Err(mismatch(format!(
                    "session {session} opens round {}; expected {}",
                    request.round, s.next_round
                )));
            }
            let oracle = rebuild_oracle(&request)?;
            let key = RoundKey {
                session: SessionId::from_raw(session),
                round: request.round,
            };
            s.open = Some(WorkingOpen {
                acc: ShardAccumulator::new(key, oracle),
                request,
            });
            s.next_round += 1;
        }
        WalRecord::Reports {
            session,
            round,
            seq,
            responses,
        } => {
            let s = sessions
                .get_mut(&session)
                .ok_or_else(|| mismatch(format!("reports for unknown session {session}")))?;
            if seq < s.next_seq {
                // Already folded into the snapshot this WAL follows.
                return Ok(());
            }
            if seq > s.next_seq {
                return Err(mismatch(format!(
                    "session {session} logs delta seq {seq}; expected {}",
                    s.next_seq
                )));
            }
            let open = s.open.as_mut().ok_or_else(|| {
                mismatch(format!("reports for session {session} with no open round"))
            })?;
            if round != open.request.round {
                return Err(mismatch(format!(
                    "session {session} logs reports for round {round}; round {} is open",
                    open.request.round
                )));
            }
            for response in &responses {
                open.acc.fold(response);
            }
            s.next_seq += 1;
        }
        WalRecord::CloseRound {
            session,
            round,
            refusals,
            estimate,
        } => {
            let s = sessions
                .get_mut(&session)
                .ok_or_else(|| mismatch(format!("close for unknown session {session}")))?;
            let open = match s.open.take() {
                Some(open) if open.request.round == round => open,
                Some(open) => {
                    return Err(mismatch(format!(
                        "session {session} closes round {round}; round {} is open",
                        open.request.round
                    )))
                }
                None => {
                    return Err(mismatch(format!(
                        "session {session} closes round {round} with no round open"
                    )))
                }
            };
            // End-to-end integrity check: the estimate recomputed from
            // the fully replayed tally must be bit-identical to the one
            // that was logged (and possibly already acknowledged).
            let oracle = &open.acc;
            let tally = oracle.tally();
            if tally.refusals != refusals || tally.reporters != estimate.reporters {
                return Err(mismatch(format!(
                    "session {session} round {round}: replayed tally ({} reports, {} refusals) \
                     contradicts the close record ({} reports, {} refusals)",
                    tally.reporters, tally.refusals, estimate.reporters, refusals
                )));
            }
            let oracle = rebuild_oracle(&open.request)?;
            let replayed = oracle.estimate(&tally.support, tally.reporters);
            let logged_bits: Vec<u64> = estimate.frequencies.iter().map(|f| f.to_bits()).collect();
            let replayed_bits: Vec<u64> = replayed.iter().map(|f| f.to_bits()).collect();
            if logged_bits != replayed_bits {
                return Err(mismatch(format!(
                    "session {session} round {round}: replayed estimate differs from the logged one"
                )));
            }
            s.refusals += refusals;
            s.epsilon_spent += estimate.epsilon;
            s.last_closed = Some((round, estimate));
        }
        WalRecord::EndSession { session } => {
            match sessions.remove(&session) {
                None => return Err(mismatch(format!("end of unknown session {session}"))),
                Some(s) if s.open.is_some() => {
                    return Err(mismatch(format!(
                        "session {session} ended with a round open"
                    )))
                }
                Some(_) => {}
            };
        }
    }
    Ok(())
}

/// Rebuild the full service state from `dir`: highest-generation valid
/// snapshot plus its WAL tail.
pub(crate) fn recover(dir: &Path) -> Result<Recovered, CoreError> {
    let snapshot_gen = latest_snapshot_gen(dir)?;
    let (generation, base) = match snapshot_gen {
        Some(gen) => (gen, read_snapshot(&snap_path(dir, gen))?),
        None => (0, SnapshotState::default()),
    };

    let mut next_session = base.next_session;
    let mut sessions: HashMap<u64, WorkingSession> = HashMap::new();
    for s in &base.sessions {
        let open = s
            .open
            .as_ref()
            .map(|o| open_from_snapshot(s.id, o))
            .transpose()?;
        sessions.insert(
            s.id,
            WorkingSession {
                next_round: s.next_round,
                next_seq: s.next_seq,
                refusals: s.refusals,
                epsilon_spent: s.epsilon_spent,
                last_closed: s.last_closed.clone(),
                open,
            },
        );
    }

    let scan = wal::scan(&wal_path(dir, generation))?;
    let wal_records_replayed = scan.records.len() as u64;
    for record in scan.records {
        apply_record(&mut sessions, &mut next_session, record)?;
    }

    let mut recovered: Vec<RecoveredSession> = sessions
        .into_iter()
        .map(|(id, s)| RecoveredSession {
            id,
            next_round: s.next_round,
            next_seq: s.next_seq,
            refusals: s.refusals,
            epsilon_spent: s.epsilon_spent,
            last_closed: s.last_closed,
            open: s.open.map(|o| {
                let oracle = o.acc.oracle().clone();
                RecoveredOpen {
                    request: o.request,
                    oracle,
                    tally: o.acc.into_tally(),
                }
            }),
        })
        .collect();
    recovered.sort_by_key(|s| s.id);

    let report = RecoveryReport {
        snapshot_generation: snapshot_gen,
        wal_records_replayed,
        sessions: recovered.len(),
        open_rounds: recovered.iter().filter(|s| s.open.is_some()).count(),
        corrupt_tail: scan.corrupt_tail,
    };
    Ok(Recovered {
        generation,
        next_session,
        sessions: recovered,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::WalObs;
    use ldp_fo::FoKind;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ldp_recovery_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_state() -> SnapshotState {
        SnapshotState {
            next_session: 3,
            sessions: vec![
                SessionSnapshot {
                    id: 0,
                    next_round: 2,
                    next_seq: 9,
                    refusals: 4,
                    epsilon_spent: 1.5,
                    last_closed: Some((
                        1,
                        RoundEstimate {
                            frequencies: vec![0.25, 0.75],
                            reporters: 100,
                            epsilon: 0.75,
                        },
                    )),
                    open: None,
                },
                SessionSnapshot {
                    id: 2,
                    next_round: 1,
                    next_seq: 3,
                    refusals: 0,
                    epsilon_spent: 0.0,
                    last_closed: None,
                    open: Some(OpenSnapshot {
                        request: ReportRequest {
                            round: 0,
                            t: 5,
                            fo: FoKind::Grr,
                            epsilon: 2.0,
                            domain_size: 3,
                        },
                        tally: ShardTally {
                            support: vec![5, 6, 7],
                            reporters: 18,
                            refusals: 0,
                            stale: 0,
                        },
                        pending: vec![UserResponse::Report {
                            round: 0,
                            report: ldp_fo::Report::Grr(1),
                        }],
                    }),
                },
            ],
        }
    }

    #[test]
    fn snapshot_state_roundtrips() {
        let state = sample_state();
        let decoded = SnapshotState::decode(&state.encode()).unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn snapshot_file_roundtrips() {
        let dir = tmp_dir("file_roundtrip");
        let state = sample_state();
        write_snapshot(&dir, 7, &state).unwrap();
        let read = read_snapshot(&snap_path(&dir, 7)).unwrap();
        assert_eq!(read, state);
        assert_eq!(latest_snapshot_gen(&dir).unwrap(), Some(7));
    }

    #[test]
    fn corrupt_snapshot_is_typed_not_a_panic() {
        let dir = tmp_dir("corrupt_snap");
        write_snapshot(&dir, 1, &sample_state()).unwrap();
        let path = snap_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(CoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn recover_from_snapshot_folds_pending_and_replays_tail() {
        let dir = tmp_dir("snap_plus_tail");
        write_snapshot(&dir, 4, &sample_state()).unwrap();
        let mut wal = wal::Wal::create(
            &wal_path(&dir, 4),
            wal::WalSync::None,
            WalObs::unregistered(),
        )
        .unwrap();
        // A duplicate of an already-snapshotted delta (seq 1 < the
        // snapshot's next_seq 3: skipped on replay) followed by a
        // genuinely new one (seq 3).
        wal.append(&WalRecord::Reports {
            session: 2,
            round: 0,
            seq: 1,
            responses: vec![UserResponse::Report {
                round: 0,
                report: ldp_fo::Report::Grr(2),
            }],
        })
        .unwrap()
        .wait()
        .unwrap();
        wal.append(&WalRecord::Reports {
            session: 2,
            round: 0,
            seq: 3,
            responses: vec![UserResponse::Report {
                round: 0,
                report: ldp_fo::Report::Grr(0),
            }],
        })
        .unwrap()
        .wait()
        .unwrap();
        drop(wal);

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.generation, 4);
        assert_eq!(rec.next_session, 3);
        assert_eq!(rec.report.snapshot_generation, Some(4));
        assert_eq!(rec.report.wal_records_replayed, 2);
        assert_eq!(rec.report.open_rounds, 1);
        assert!(rec.report.corrupt_tail.is_none());

        let s2 = rec.sessions.iter().find(|s| s.id == 2).unwrap();
        assert_eq!(s2.next_seq, 4);
        let open = s2.open.as_ref().unwrap();
        // Snapshot tally [5,6,7]/18 reporters, plus the snapshotted
        // pending Grr(1), plus the new Grr(0) delta. The duplicate Grr(2)
        // must not be folded twice.
        assert_eq!(open.tally.support, vec![6, 7, 7]);
        assert_eq!(open.tally.reporters, 20);

        let s0 = rec.sessions.iter().find(|s| s.id == 0).unwrap();
        assert!(s0.open.is_none());
        assert_eq!(s0.next_round, 2);
        assert_eq!(s0.refusals, 4);
    }

    /// Build the WAL prefix create→open→reports shared by the close
    /// verification tests, returning the exact tally those reports fold to.
    fn append_round_prefix(wal: &mut wal::Wal) -> (Vec<u64>, u64) {
        let request = ReportRequest {
            round: 0,
            t: 0,
            fo: FoKind::Grr,
            epsilon: 2.0,
            domain_size: 3,
        };
        let responses = vec![
            UserResponse::Report {
                round: 0,
                report: ldp_fo::Report::Grr(1),
            },
            UserResponse::Report {
                round: 0,
                report: ldp_fo::Report::Grr(1),
            },
            UserResponse::Refused {
                round: 0,
                requested: 1.0,
                available: 0.0,
            },
        ];
        let oracle = build_oracle(FoKind::Grr, 2.0, 3).unwrap();
        let mut support = vec![0u64; 3];
        for r in &responses {
            if let UserResponse::Report { report, .. } = r {
                oracle.accumulate(report, &mut support);
            }
        }
        wal.append(&WalRecord::CreateSession { session: 0 })
            .unwrap()
            .wait()
            .unwrap();
        wal.append(&WalRecord::OpenRound {
            session: 0,
            request,
        })
        .unwrap()
        .wait()
        .unwrap();
        wal.append(&WalRecord::Reports {
            session: 0,
            round: 0,
            seq: 0,
            responses,
        })
        .unwrap()
        .wait()
        .unwrap();
        (support, 2)
    }

    #[test]
    fn replay_verifies_close_records_bit_for_bit() {
        let dir = tmp_dir("replay_close_ok");
        let mut wal = wal::Wal::create(
            &wal_path(&dir, 0),
            wal::WalSync::None,
            WalObs::unregistered(),
        )
        .unwrap();
        let (support, reporters) = append_round_prefix(&mut wal);
        let oracle = build_oracle(FoKind::Grr, 2.0, 3).unwrap();
        let estimate = RoundEstimate {
            frequencies: oracle.estimate(&support, reporters),
            reporters,
            epsilon: 2.0,
        };
        wal.append(&WalRecord::CloseRound {
            session: 0,
            round: 0,
            refusals: 1,
            estimate: estimate.clone(),
        })
        .unwrap()
        .wait()
        .unwrap();
        drop(wal);

        let rec = recover(&dir).unwrap();
        let s = rec.sessions.iter().find(|s| s.id == 0).unwrap();
        assert!(s.open.is_none());
        assert_eq!(s.refusals, 1);
        assert_eq!(s.epsilon_spent, 2.0);
        assert_eq!(s.last_closed, Some((0, estimate)));
    }

    #[test]
    fn replay_rejects_close_record_contradicting_the_tally() {
        let dir = tmp_dir("replay_close_bad");
        let mut wal = wal::Wal::create(
            &wal_path(&dir, 0),
            wal::WalSync::None,
            WalObs::unregistered(),
        )
        .unwrap();
        let (support, reporters) = append_round_prefix(&mut wal);
        let oracle = build_oracle(FoKind::Grr, 2.0, 3).unwrap();
        let mut frequencies = oracle.estimate(&support, reporters);
        frequencies[0] += 0.5; // not what the replayed tally yields
        wal.append(&WalRecord::CloseRound {
            session: 0,
            round: 0,
            refusals: 1,
            estimate: RoundEstimate {
                frequencies,
                reporters,
                epsilon: 2.0,
            },
        })
        .unwrap()
        .wait()
        .unwrap();
        drop(wal);

        assert!(matches!(
            recover(&dir),
            Err(CoreError::RecoveryMismatch { .. })
        ));
    }

    #[test]
    fn remove_stale_keeps_only_current_generation() {
        let dir = tmp_dir("remove_stale");
        write_snapshot(&dir, 1, &sample_state()).unwrap();
        write_snapshot(&dir, 2, &sample_state()).unwrap();
        std::fs::write(wal_path(&dir, 1), b"x").unwrap();
        std::fs::write(wal_path(&dir, 2), b"x").unwrap();
        std::fs::write(dir.join("snap-junk.bin.tmp"), b"x").unwrap();
        remove_stale(&dir, 2);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names.len(), 2, "{names:?}");
        assert!(names.contains(&"snap-0000000000000002.bin".to_string()));
        assert!(names.contains(&"wal-0000000000000002.log".to_string()));
    }

    #[test]
    fn empty_dir_recovers_to_empty_state() {
        let dir = tmp_dir("empty");
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.generation, 0);
        assert_eq!(rec.next_session, 0);
        assert!(rec.sessions.is_empty());
        assert_eq!(rec.report.snapshot_generation, None);
        assert!(rec.report.corrupt_tail.is_none());
    }
}
