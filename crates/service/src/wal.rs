//! The write-ahead log: an append-only stream of length-prefixed,
//! CRC-checksummed frames recording every state transition of an
//! [`IngestService`](crate::IngestService) *before* it is acknowledged.
//!
//! ## File format
//!
//! ```text
//! [ magic "LDPWAL01" : 8 bytes ]
//! [ frame ]*
//!
//! frame := [ payload_len : u32 LE ][ crc32(payload) : u32 LE ][ payload ]
//! ```
//!
//! The payload is one [`WalRecord`] in a fixed little-endian binary
//! encoding (floats as IEEE-754 bit patterns, so replayed estimates are
//! bit-identical). A reader stops at the first incomplete or
//! checksum-failing frame — a torn tail from a crash mid-append loses at
//! most the record that was never acknowledged, and recovery resumes
//! from the last complete record with a typed
//! [`CoreError::Corrupt`] surfaced, never a panic.
//!
//! ## Sync levels
//!
//! [`WalSync`] picks the fsync discipline: `Always` makes every frame
//! durable before it is acknowledged, `Batch` syncs every
//! [`SYNC_BATCH_RECORDS`] report frames plus every control frame
//! (session lifecycle, round close), `None` leaves flushing to the OS.
//!
//! ## Group commit
//!
//! Under `Always`, [`Wal::append`] no longer issues one `fdatasync` per
//! frame inline. It writes the frame and hands back a pending
//! [`Commit`]; the caller acknowledges only after [`Commit::wait`]
//! returns. Waiters coordinate through a shared [`GroupCommit`]: the
//! first waiter becomes the *leader* and issues a single `sync_data`
//! covering **every frame written so far** — including frames appended
//! by other sessions while the leader was syncing — and all covered
//! waiters return from the one fsync. Concurrent sessions therefore
//! coalesce their fsyncs into one disk barrier per write burst instead
//! of queueing one `fdatasync` each. Crash-safety is unchanged: a frame
//! is on disk before the call that wrote it is acknowledged, and a
//! torn/unsynced tail only ever loses frames that were never
//! acknowledged (the scan stops at the first bad frame, so no
//! acknowledged record can survive *behind* a lost one).

use crate::codec::{
    crc32, put_estimate, put_request, put_response, put_u32, put_u64, take_estimate, take_request,
    take_response, Cursor,
};
use crate::faults;
use crate::obs::WalObs;
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::{ReportRequest, UserResponse};
use ldp_ids::CoreError;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"LDPWAL01";

/// Report frames between fsyncs under [`WalSync::Batch`].
pub const SYNC_BATCH_RECORDS: u64 = 32;

/// Fsync discipline of the write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalSync {
    /// Never fsync explicitly; durability is whatever the OS page cache
    /// gives. Fastest; a host crash can lose acknowledged reports.
    None,
    /// Fsync every [`SYNC_BATCH_RECORDS`] report frames and every
    /// control frame (session lifecycle, round close). Bounds loss to
    /// one sync batch of reports; round results are always durable.
    #[default]
    Batch,
    /// Fsync every frame before acknowledging it. Strongest; one
    /// `fdatasync` per append.
    Always,
}

impl WalSync {
    /// Stable lowercase name (used in bench artifacts).
    pub fn name(self) -> &'static str {
        match self {
            WalSync::None => "none",
            WalSync::Batch => "batch",
            WalSync::Always => "always",
        }
    }
}

/// One durable state transition.
///
/// Everything an [`IngestService`](crate::IngestService) acknowledges is
/// one of these, logged before the in-memory state mutates.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A session was created.
    CreateSession {
        /// The new session's raw id.
        session: u64,
    },
    /// A collection round was opened on `session`.
    OpenRound {
        /// The owning session's raw id.
        session: u64,
        /// The round's report request (oracle parameters included, so
        /// replay can reconstruct the round oracle deterministically).
        request: ReportRequest,
    },
    /// A batch of responses was accepted into `session`'s open round.
    Reports {
        /// The owning session's raw id.
        session: u64,
        /// The round the responses belong to.
        round: u64,
        /// The session's write-ahead sequence number of this delta —
        /// replay and client retries deduplicate on it.
        seq: u64,
        /// The accepted responses.
        responses: Vec<UserResponse>,
    },
    /// `session`'s open round was closed and estimated.
    CloseRound {
        /// The owning session's raw id.
        session: u64,
        /// The round that closed.
        round: u64,
        /// Refusals tallied in the round.
        refusals: u64,
        /// The round estimate (bit-exact: floats travel as IEEE-754
        /// bits), cached so a client retry of an acknowledged close
        /// returns the identical result.
        estimate: RoundEstimate,
    },
    /// A session ended.
    EndSession {
        /// The ended session's raw id.
        session: u64,
    },
}

impl WalRecord {
    /// Whether this is a control record (always fsynced under
    /// [`WalSync::Batch`]).
    pub fn is_control(&self) -> bool {
        !matches!(self, WalRecord::Reports { .. })
    }

    /// Encode into the WAL's binary payload format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            WalRecord::CreateSession { session } => {
                out.push(1);
                put_u64(&mut out, *session);
            }
            WalRecord::OpenRound { session, request } => {
                out.push(2);
                put_u64(&mut out, *session);
                put_request(&mut out, request);
            }
            WalRecord::Reports {
                session,
                round,
                seq,
                responses,
            } => {
                out.push(3);
                put_u64(&mut out, *session);
                put_u64(&mut out, *round);
                put_u64(&mut out, *seq);
                put_u32(&mut out, responses.len() as u32);
                for response in responses {
                    put_response(&mut out, response);
                }
            }
            WalRecord::CloseRound {
                session,
                round,
                refusals,
                estimate,
            } => {
                out.push(4);
                put_u64(&mut out, *session);
                put_u64(&mut out, *round);
                put_u64(&mut out, *refusals);
                put_estimate(&mut out, estimate);
            }
            WalRecord::EndSession { session } => {
                out.push(5);
                put_u64(&mut out, *session);
            }
        }
        out
    }

    /// Decode one payload produced by [`WalRecord::encode`].
    pub fn decode(payload: &[u8]) -> Result<WalRecord, String> {
        let mut cur = Cursor::new(payload);
        let record = match cur.u8()? {
            1 => WalRecord::CreateSession {
                session: cur.u64()?,
            },
            2 => WalRecord::OpenRound {
                session: cur.u64()?,
                request: take_request(&mut cur)?,
            },
            3 => {
                let session = cur.u64()?;
                let round = cur.u64()?;
                let seq = cur.u64()?;
                let n = cur.u32()? as usize;
                if n > payload.len() {
                    return Err(format!("response count {n} exceeds payload"));
                }
                let mut responses = Vec::with_capacity(n);
                for _ in 0..n {
                    responses.push(take_response(&mut cur)?);
                }
                WalRecord::Reports {
                    session,
                    round,
                    seq,
                    responses,
                }
            }
            4 => WalRecord::CloseRound {
                session: cur.u64()?,
                round: cur.u64()?,
                refusals: cur.u64()?,
                estimate: take_estimate(&mut cur)?,
            },
            5 => WalRecord::EndSession {
                session: cur.u64()?,
            },
            tag => return Err(format!("unknown record tag {tag}")),
        };
        cur.finish()?;
        Ok(record)
    }
}

/// WAL write/sync counters, exposed for durability benchmarks via
/// [`IngestService::wal_stats`](crate::IngestService::wal_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Records appended to the current WAL generation.
    pub records: u64,
    /// `fdatasync` calls issued for the current generation (inline
    /// batch/control syncs plus group-commit syncs). Under group commit
    /// with concurrent sessions this is *less* than `records` even at
    /// [`WalSync::Always`] — the coalescing win.
    pub syncs: u64,
}

/// The durability obligation returned by [`Wal::append`].
///
/// `Durable` means the configured sync discipline was already satisfied
/// inline. `Pending` means the frame is written but not yet fsynced;
/// the caller must [`wait`](Commit::wait) — *after releasing any locks
/// it shares with other appenders* — before acknowledging the operation
/// the record describes. Waiting off-lock is what lets the shared
/// [`GroupCommit`] coalesce concurrent sessions' fsyncs.
#[derive(Debug)]
#[must_use = "a pending commit must be waited on before the record is acknowledged"]
pub enum Commit {
    /// Already as durable as the sync level promises.
    Durable,
    /// Written but unsynced: wait on the group before acknowledging.
    Pending {
        /// The WAL's fsync coordinator.
        group: Arc<GroupCommit>,
        /// This record's position in the append order.
        ticket: u64,
    },
}

impl Commit {
    /// Block until the record is durable (a no-op for `Durable`).
    pub fn wait(self) -> Result<(), CoreError> {
        match self {
            Commit::Durable => Ok(()),
            Commit::Pending { group, ticket } => group.wait(ticket),
        }
    }
}

/// The group-commit coordinator: one per WAL generation, shared (via
/// `Arc`) between the WAL owner and every in-flight [`Commit`] waiter.
///
/// The leader/follower protocol in [`wait`](GroupCommit::wait) issues
/// one `sync_data` per *burst*: the first waiter syncs up to the highest
/// frame written at that moment; every waiter covered by that barrier
/// returns without touching the disk.
#[derive(Debug)]
pub struct GroupCommit {
    /// A clone of the WAL's file handle (same kernel file description,
    /// so `sync_data` here flushes frames written through the WAL).
    file: File,
    path: PathBuf,
    state: Mutex<CommitState>,
    cond: Condvar,
    syncs: AtomicU64,
    obs: WalObs,
}

#[derive(Debug, Default)]
struct CommitState {
    /// Highest ticket written to the file.
    written: u64,
    /// Highest ticket known durable.
    synced: u64,
    /// A leader is currently inside `sync_data`.
    syncing: bool,
    /// A failed fsync poisons the generation: durability can no longer
    /// be promised, so every subsequent wait fails too.
    failed: Option<String>,
}

impl GroupCommit {
    fn new(file: File, path: PathBuf, obs: WalObs) -> Arc<Self> {
        Arc::new(GroupCommit {
            file,
            path,
            state: Mutex::new(CommitState::default()),
            cond: Condvar::new(),
            syncs: AtomicU64::new(0),
            obs,
        })
    }

    fn note_written(&self, ticket: u64) {
        let mut st = self.state.lock().unwrap();
        st.written = st.written.max(ticket);
    }

    /// Group-commit fsyncs issued so far.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Block until ticket `ticket` is durable, becoming the sync leader
    /// if nobody else is.
    pub fn wait(&self, ticket: u64) -> Result<(), CoreError> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(detail) = &st.failed {
                return Err(CoreError::Wal {
                    detail: format!("group commit sync {}: {detail}", self.path.display()),
                });
            }
            if st.synced >= ticket {
                return Ok(());
            }
            if st.syncing {
                st = self.cond.wait(st).unwrap();
                continue;
            }
            st.syncing = true;
            let target = st.written;
            let batch = target.saturating_sub(st.synced);
            drop(st);
            let start = Instant::now();
            let result = self.file.sync_data();
            self.obs.fsync_ns.record_duration(start.elapsed());
            self.obs.batch.record(batch);
            self.syncs.fetch_add(1, Ordering::Relaxed);
            st = self.state.lock().unwrap();
            st.syncing = false;
            match result {
                Ok(()) => st.synced = st.synced.max(target),
                Err(e) => st.failed = Some(e.to_string()),
            }
            self.cond.notify_all();
        }
    }

    /// Release every waiter without another fsync — called when the WAL
    /// generation is retired by a snapshot rotation, which has already
    /// made all state durable through the snapshot itself.
    fn retire(&self) {
        let mut st = self.state.lock().unwrap();
        st.synced = u64::MAX;
        self.cond.notify_all();
    }
}

/// An open, appendable WAL file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    sync: WalSync,
    group: Arc<GroupCommit>,
    records: u64,
    inline_syncs: u64,
    unsynced_reports: u64,
    records_since_sync: u64,
    obs: WalObs,
}

impl Wal {
    /// Create a fresh WAL at `path` (truncating any existing file),
    /// write the magic header and sync it. Append/fsync latency and
    /// group-commit batch size are recorded into `obs`.
    pub fn create(path: &Path, sync: WalSync, obs: WalObs) -> Result<Wal, CoreError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| wal_err("create", path, &e))?;
        file.write_all(WAL_MAGIC)
            .map_err(|e| wal_err("write header", path, &e))?;
        file.sync_data()
            .map_err(|e| wal_err("sync header", path, &e))?;
        let clone = file
            .try_clone()
            .map_err(|e| wal_err("clone for group commit", path, &e))?;
        Ok(Wal {
            group: GroupCommit::new(clone, path.to_path_buf(), obs.clone()),
            file,
            path: path.to_path_buf(),
            sync,
            records: 0,
            inline_syncs: 0,
            unsynced_reports: 0,
            records_since_sync: 0,
            obs,
        })
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Append/sync counters for this generation.
    pub fn stats(&self) -> WalStats {
        WalStats {
            records: self.records,
            syncs: self.inline_syncs + self.group.syncs(),
        }
    }

    /// The file this WAL appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fsync coordinator shared with this WAL's pending commits.
    pub fn group(&self) -> Arc<GroupCommit> {
        Arc::clone(&self.group)
    }

    /// Append one record, honoring the sync level.
    ///
    /// Must happen before the state transition the record describes is
    /// applied. Under [`WalSync::Always`] the returned commit is
    /// `Pending`: the caller must [`Commit::wait`] on it before
    /// acknowledging (ideally after releasing shared locks, so
    /// concurrent appenders share one fsync).
    pub fn append(&mut self, record: &WalRecord) -> Result<Commit, CoreError> {
        faults::hit("wal.before_append");
        let start = Instant::now();
        let payload = record.encode();
        let mut frame = Vec::with_capacity(8 + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        if faults::check("wal.torn_append") {
            // Simulated crash mid-write: half the frame reaches the disk.
            let _ = self.file.write_all(&frame[..frame.len() / 2]);
            let _ = self.file.sync_data();
            faults::crash("wal.torn_append");
        }
        self.file
            .write_all(&frame)
            .map_err(|e| wal_err("append", &self.path, &e))?;
        self.records += 1;
        self.records_since_sync += 1;
        let commit = match self.sync {
            WalSync::Always => {
                self.group.note_written(self.records);
                Commit::Pending {
                    group: Arc::clone(&self.group),
                    ticket: self.records,
                }
            }
            WalSync::None => Commit::Durable,
            WalSync::Batch => {
                let sync_now = if record.is_control() {
                    true
                } else {
                    self.unsynced_reports += 1;
                    self.unsynced_reports >= SYNC_BATCH_RECORDS
                };
                if sync_now {
                    self.sync()?;
                }
                Commit::Durable
            }
        };
        self.obs.append_ns.record_duration(start.elapsed());
        faults::hit("wal.after_append");
        Ok(commit)
    }

    /// Force an fsync of everything appended so far.
    pub fn sync(&mut self) -> Result<(), CoreError> {
        self.unsynced_reports = 0;
        self.inline_syncs += 1;
        let batch = std::mem::take(&mut self.records_since_sync);
        let start = Instant::now();
        self.file
            .sync_data()
            .map_err(|e| wal_err("sync", &self.path, &e))?;
        self.obs.fsync_ns.record_duration(start.elapsed());
        self.obs.batch.record(batch);
        // Everything written is now durable; release any group waiters.
        let mut st = self.group.state.lock().unwrap();
        st.synced = st.synced.max(st.written);
        self.group.cond.notify_all();
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Rotation (or service teardown) retires this generation: any
        // still-parked waiter was made durable by the snapshot that
        // replaced the log, so release them rather than strand them.
        self.group.retire();
    }
}

fn wal_err(op: &str, path: &Path, e: &std::io::Error) -> CoreError {
    CoreError::Wal {
        detail: format!("{op} {}: {e}", path.display()),
    }
}

/// The outcome of scanning a WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// Every complete, checksum-valid record, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (magic + complete frames).
    pub valid_len: u64,
    /// Present when the file ends in a torn or corrupt frame: the typed
    /// error describing it. Everything before `valid_len` is still good.
    pub corrupt_tail: Option<CoreError>,
}

/// Scan a WAL file, tolerating a torn/corrupt tail.
///
/// A missing file scans as empty (a crash can land between snapshot
/// rotation and the creation of the next WAL). A present file with a
/// wrong magic is a hard [`CoreError::Corrupt`] — that is not our file,
/// and truncating it would destroy someone's data.
pub fn scan(path: &Path) -> Result<WalScan, CoreError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalScan {
                records: Vec::new(),
                valid_len: 0,
                corrupt_tail: None,
            })
        }
        Err(e) => return Err(wal_err("read", path, &e)),
    };
    let file = path.display().to_string();
    if bytes.len() < WAL_MAGIC.len() {
        // Crash while writing the header: nothing was ever logged.
        return Ok(WalScan {
            records: Vec::new(),
            valid_len: 0,
            corrupt_tail: Some(CoreError::Corrupt {
                file,
                offset: 0,
                detail: format!("short header ({} bytes)", bytes.len()),
            }),
        });
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(CoreError::Corrupt {
            file,
            offset: 0,
            detail: "bad magic; not an LDPWAL01 file".into(),
        });
    }
    let mut records = Vec::new();
    let mut offset = WAL_MAGIC.len();
    let corrupt_tail = loop {
        if offset == bytes.len() {
            break None;
        }
        let tail = |detail: String| CoreError::Corrupt {
            file: file.clone(),
            offset: offset as u64,
            detail,
        };
        if bytes.len() - offset < 8 {
            break Some(tail(format!(
                "torn frame header ({} trailing bytes)",
                bytes.len() - offset
            )));
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
        if bytes.len() - offset - 8 < len {
            break Some(tail(format!(
                "torn frame payload ({} of {len} bytes present)",
                bytes.len() - offset - 8
            )));
        }
        let payload = &bytes[offset + 8..offset + 8 + len];
        if crc32(payload) != crc {
            break Some(tail("frame checksum mismatch".into()));
        }
        match WalRecord::decode(payload) {
            Ok(record) => records.push(record),
            Err(detail) => break Some(tail(format!("undecodable payload: {detail}"))),
        }
        offset += 8 + len;
    };
    Ok(WalScan {
        records,
        valid_len: offset as u64,
        corrupt_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_fo::{FoKind, Report};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ldp_wal_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateSession { session: 0 },
            WalRecord::OpenRound {
                session: 0,
                request: ReportRequest {
                    round: 0,
                    t: 7,
                    fo: FoKind::Oue,
                    epsilon: 1.25,
                    domain_size: 70,
                },
            },
            WalRecord::Reports {
                session: 0,
                round: 0,
                seq: 0,
                responses: vec![
                    UserResponse::Report {
                        round: 0,
                        report: Report::Oue {
                            bits: vec![0xDEAD_BEEF, 0x1234],
                            len: 70,
                        },
                    },
                    UserResponse::Report {
                        round: 0,
                        report: Report::Olh {
                            seed: 99,
                            bucket: 3,
                        },
                    },
                    UserResponse::Refused {
                        round: 0,
                        requested: 0.5,
                        available: 0.25,
                    },
                ],
            },
            WalRecord::CloseRound {
                session: 0,
                round: 0,
                refusals: 1,
                estimate: RoundEstimate {
                    frequencies: vec![0.1, -0.000001, 0.9],
                    reporters: 2,
                    epsilon: 1.25,
                },
            },
            WalRecord::EndSession { session: 0 },
        ]
    }

    #[test]
    fn records_roundtrip_through_codec() {
        for record in sample_records() {
            let payload = record.encode();
            assert_eq!(WalRecord::decode(&payload).unwrap(), record);
        }
    }

    #[test]
    fn append_then_scan_roundtrips() {
        let path = tmp("roundtrip.log");
        let mut wal = Wal::create(&path, WalSync::Always, WalObs::unregistered()).unwrap();
        let records = sample_records();
        for record in &records {
            wal.append(record).unwrap().wait().unwrap();
        }
        assert_eq!(wal.records(), records.len() as u64);
        let stats = wal.stats();
        assert_eq!(stats.records, records.len() as u64);
        assert!(stats.syncs >= 1, "Always must fsync at least once");
        drop(wal);
        let scan = scan(&path).unwrap();
        assert_eq!(scan.records, records);
        assert!(scan.corrupt_tail.is_none());
        assert_eq!(scan.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn group_commit_coalesces_pending_waits_into_one_fsync() {
        let path = tmp("group.log");
        let mut wal = Wal::create(&path, WalSync::Always, WalObs::unregistered()).unwrap();
        let records = sample_records();
        let mut commits = Vec::new();
        for _ in 0..4 {
            for record in &records {
                commits.push(wal.append(record).unwrap());
            }
        }
        // Wait on the *last* ticket first: that waiter leads and its one
        // sync_data covers every frame written, so the earlier tickets
        // return without further fsyncs.
        while let Some(commit) = commits.pop() {
            commit.wait().unwrap();
        }
        assert_eq!(wal.stats().syncs, 1);
        assert_eq!(wal.stats().records, 4 * records.len() as u64);
        drop(wal);
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.records.len(), 4 * records.len());
        assert!(scanned.corrupt_tail.is_none());
    }

    #[test]
    fn retired_group_releases_waiters_without_fsync() {
        let path = tmp("retire.log");
        let mut wal = Wal::create(&path, WalSync::Always, WalObs::unregistered()).unwrap();
        let commit = wal
            .append(&WalRecord::CreateSession { session: 9 })
            .unwrap();
        drop(wal); // rotation/teardown retires the generation
        commit.wait().unwrap();
    }

    #[test]
    fn torn_tail_recovers_to_last_complete_record() {
        let path = tmp("torn.log");
        let mut wal = Wal::create(&path, WalSync::None, WalObs::unregistered()).unwrap();
        let records = sample_records();
        for record in &records {
            wal.append(record).unwrap().wait().unwrap();
        }
        drop(wal);
        // Tear the last frame: chop 3 bytes off the file.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);
        let scan = scan(&path).unwrap();
        assert_eq!(scan.records, records[..records.len() - 1]);
        assert!(
            matches!(scan.corrupt_tail, Some(CoreError::Corrupt { .. })),
            "{:?}",
            scan.corrupt_tail
        );
    }

    #[test]
    fn bitflip_recovers_with_checksum_error() {
        let path = tmp("bitflip.log");
        let mut wal = Wal::create(&path, WalSync::None, WalObs::unregistered()).unwrap();
        let records = sample_records();
        for record in &records {
            wal.append(record).unwrap().wait().unwrap();
        }
        drop(wal);
        // Flip one payload byte in the final frame.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        let scan = scan(&path).unwrap();
        assert_eq!(scan.records, records[..records.len() - 1]);
        match scan.corrupt_tail {
            Some(CoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains("checksum"), "{detail}")
            }
            other => panic!("expected checksum corrupt tail, got {other:?}"),
        }
    }

    #[test]
    fn missing_file_scans_empty() {
        let scan = scan(&tmp("never_created.log")).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.corrupt_tail.is_none());
    }

    #[test]
    fn foreign_file_is_a_hard_error() {
        let path = tmp("foreign.log");
        std::fs::write(&path, b"definitely not a wal file").unwrap();
        assert!(matches!(
            scan(&path),
            Err(CoreError::Corrupt { offset: 0, .. })
        ));
    }
}
