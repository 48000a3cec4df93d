//! Write-ahead log for the session profile store.
//!
//! The paper treats profiles as given inputs; a serving deployment must
//! make them *survive restarts*. This module is the durability half of
//! [`SessionStore`](crate::session::SessionStore): an append-only,
//! length-prefixed, checksummed log of profile upserts plus a snapshot
//! file for compaction, in the ARIES spirit of "log first, apply second,
//! replay on recovery" — reduced to the state-based records this store
//! needs (each record carries the *post-upsert* profile, so replay is
//! trivially idempotent: applying a record twice yields the same store).
//!
//! ## On-disk format
//!
//! Two files in the WAL directory, both sequences of identical records:
//!
//! * `snapshot.wal` — one record per user at the last compaction;
//! * `log.wal` — records appended since.
//!
//! Each record is a single line:
//!
//! ```text
//! W1 <payload_len> <fnv1a64_hex16> <payload>\n
//! ```
//!
//! where `<payload>` is exactly `payload_len` bytes of single-line JSON
//! (`{"op":"put","user":…,"version":…,"profile":…}` — the JSON renderer
//! escapes newlines, so a raw `\n` always terminates a record) and the
//! checksum is FNV-1a 64 over the payload bytes. The length prefix
//! detects torn tails cheaply; the checksum catches corruption within a
//! frame of plausible length.
//!
//! ## Crash model
//!
//! A crash can tear the *last* record (partial write). Recovery replays
//! each file and stops at the first record that fails framing, length,
//! checksum, or JSON validation — then **truncates the file at that
//! offset** so the next append starts from a clean boundary. Everything
//! before the torn tail is intact by construction (appends are a single
//! `write_all` + flush). By default the log is flushed to the OS on every
//! append but not fsync'd: the crash model is process death (SIGKILL),
//! not power loss; [`Wal::sync`] is available when the stronger guarantee
//! is worth the latency.
//!
//! Torn writes are *injectable* for tests via
//! [`FaultPlan`](cqp_storage::FaultPlan) in
//! [`FaultMode::TornWrite`](cqp_storage::FaultMode) mode: the nth append
//! writes only a prefix of its frame and returns an error, exactly what a
//! mid-write crash leaves behind.

use cqp_obs::Json;
use cqp_storage::{FaultPlan, WriteOutcome};
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Record magic: bump on incompatible format changes.
const MAGIC: &str = "W1";
/// Epoch-marker magic: a frame recording a replication-epoch advance
/// (`{"op":"epoch","epoch":N}` payload, same framing and checksum as
/// `W1`). Absent entirely from pre-epoch logs, which therefore recover
/// as epoch 0 — the backward-compatibility contract.
const EPOCH_MAGIC: &str = "E1";
/// Snapshot file name inside the WAL directory.
pub const SNAPSHOT_FILE: &str = "snapshot.wal";
/// Log file name inside the WAL directory.
pub const LOG_FILE: &str = "log.wal";

/// One replayed upsert.
#[derive(Debug, Clone, PartialEq)]
pub struct PutRecord {
    /// User id the profile belongs to.
    pub user: String,
    /// The user's version *after* this upsert.
    pub version: u64,
    /// The profile in `# cqp-profile v1` wire format.
    pub profile_text: String,
    /// Replication epoch the write was accepted under (0 for records
    /// written before the epoch protocol existed — the field is optional
    /// on the wire, so seed-format logs stay readable).
    pub epoch: u64,
}

/// One decoded WAL/replication frame: a profile upsert or an epoch
/// advance marker.
#[derive(Debug, Clone, PartialEq)]
pub enum WalFrame {
    /// A `W1` profile-upsert record.
    Put(PutRecord),
    /// An `E1` epoch marker: the log's epoch is `>= n` from here on.
    Epoch(u64),
}

/// What recovery found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Records replayed from `snapshot.wal`.
    pub snapshot_records: u64,
    /// Records replayed from `log.wal`.
    pub log_records: u64,
    /// Bytes truncated off torn/corrupt tails (both files).
    pub torn_tail_bytes: u64,
    /// Checksummed records whose profile text failed to parse later —
    /// skipped, never fatal (counted by the caller, not here).
    pub parse_skipped: u64,
    /// Highest replication epoch recovered (from `E1` markers and the
    /// optional per-record epoch stamp). Pre-epoch logs recover as 0.
    pub epoch: u64,
}

impl RecoveryReport {
    /// Total records replayed across snapshot and log.
    pub fn records_replayed(&self) -> u64 {
        self.snapshot_records + self.log_records
    }
}

/// A healed, appendable write-ahead log plus everything it replayed.
#[derive(Debug)]
pub struct OpenedWal {
    /// The log, positioned for appending.
    pub wal: Wal,
    /// Replayed records in apply order (snapshot first, then log).
    pub records: Vec<PutRecord>,
    /// Replay statistics.
    pub report: RecoveryReport,
}

/// Observer invoked with each successfully appended frame (full bytes,
/// including framing and trailing newline) *while the log lock is held*,
/// so observation order is exactly log order. This is the replication
/// shipping hook: the primary's sender writes the frame to the follower
/// socket and waits for its ack here, which is what makes an acked client
/// write provably present on the follower. Returning `Err` detaches the
/// listener (the follower is considered gone); the local append itself
/// has already succeeded and is unaffected.
pub type FrameListener = Arc<dyn Fn(&[u8]) -> io::Result<()> + Send + Sync>;

/// Holds the optional frame listener; manual `Debug` because closures
/// have none.
#[derive(Default)]
struct FrameListenerCell(Mutex<Option<FrameListener>>);

impl std::fmt::Debug for FrameListenerCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FrameListenerCell")
    }
}

/// Append handle over the WAL directory.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    log: Mutex<File>,
    fault: Option<Arc<FaultPlan>>,
    frame_listener: FrameListenerCell,
    appends: AtomicU64,
    append_errors: AtomicU64,
    bytes_appended: AtomicU64,
    bytes_since_compaction: AtomicU64,
    compactions: AtomicU64,
    /// Current replication epoch: max of every epoch recovered from disk
    /// and every epoch recorded/observed since. Monotone.
    epoch: AtomicU64,
}

impl Wal {
    /// Opens (creating if needed) the WAL in `dir`, heals torn tails, and
    /// returns the replayed records alongside the appendable log.
    pub fn open(dir: &Path) -> io::Result<OpenedWal> {
        std::fs::create_dir_all(dir)?;
        let mut report = RecoveryReport::default();
        let mut records = Vec::new();
        for (file, is_snapshot) in [(SNAPSHOT_FILE, true), (LOG_FILE, false)] {
            let path = dir.join(file);
            if !path.exists() {
                continue;
            }
            let (recs, epoch, valid_bytes, total_bytes) = replay_file(&path)?;
            report.epoch = report.epoch.max(epoch);
            if valid_bytes < total_bytes {
                // Torn or corrupt tail: truncate to the last clean record
                // boundary so future appends start from a healthy file.
                report.torn_tail_bytes += total_bytes - valid_bytes;
                OpenOptions::new()
                    .write(true)
                    .open(&path)?
                    .set_len(valid_bytes)?;
            }
            if is_snapshot {
                report.snapshot_records += recs.len() as u64;
            } else {
                report.log_records += recs.len() as u64;
            }
            records.extend(recs);
        }
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(LOG_FILE))?;
        // Log bytes surviving recovery still await the next compaction.
        let live_log_bytes = log.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(OpenedWal {
            wal: Wal {
                dir: dir.to_path_buf(),
                log: Mutex::new(log),
                fault: None,
                frame_listener: FrameListenerCell::default(),
                appends: AtomicU64::new(0),
                append_errors: AtomicU64::new(0),
                bytes_appended: AtomicU64::new(0),
                bytes_since_compaction: AtomicU64::new(live_log_bytes),
                compactions: AtomicU64::new(0),
                epoch: AtomicU64::new(report.epoch),
            },
            records,
            report,
        })
    }

    /// Injects write faults from `plan` (see [`cqp_storage::FaultMode::TornWrite`]).
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The directory this WAL lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one upsert record. On success the record is fully written
    /// and flushed to the OS. A torn write (injected, or a genuine short
    /// write) leaves a partial frame behind and returns an error — the
    /// same state a crash mid-append produces, which recovery heals.
    pub fn append_put(&self, user: &str, version: u64, profile_text: &str) -> io::Result<()> {
        let frame = encode_put(
            user,
            version,
            profile_text,
            self.epoch.load(Ordering::Acquire),
        );
        let r = self.append_frame(&frame);
        match &r {
            Ok(()) => {
                self.appends.fetch_add(1, Ordering::Relaxed);
                self.bytes_appended
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
                self.bytes_since_compaction
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
            }
            Err(_) => {
                self.append_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        r
    }

    fn append_frame(&self, frame: &[u8]) -> io::Result<()> {
        let mut log = self.lock_log();
        if let Some(plan) = &self.fault {
            if let WriteOutcome::Torn { keep_bytes } = plan.on_write(frame.len() as u64) {
                let keep = keep_bytes as usize;
                log.write_all(&frame[..keep])?;
                log.flush()?;
                return Err(io::Error::other(format!(
                    "injected torn write: {keep} of {} bytes landed",
                    frame.len()
                )));
            }
        }
        log.write_all(frame)?;
        log.flush()?;
        // Ship the frame while still holding the log lock: the follower
        // sees frames in exactly log order, and a write acked to the
        // client has — by the time the ack leaves this function — already
        // been acked by the follower too (synchronous replication).
        let listener = self
            .frame_listener
            .0
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        if let Some(listener) = listener {
            if listener(frame).is_err() {
                // The follower died mid-ship. Local durability holds;
                // detach so later appends stop paying the round-trip.
                *self
                    .frame_listener
                    .0
                    .lock()
                    .unwrap_or_else(|p| p.into_inner()) = None;
            }
        }
        Ok(())
    }

    /// Appends one already-encoded frame (a record received over the
    /// replication stream) verbatim. The caller has validated framing and
    /// checksum; counters advance exactly as for a local
    /// [`Wal::append_put`].
    pub fn append_raw_frame(&self, frame: &[u8]) -> io::Result<()> {
        let r = self.append_frame(frame);
        match &r {
            Ok(()) => {
                self.appends.fetch_add(1, Ordering::Relaxed);
                self.bytes_appended
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
                self.bytes_since_compaction
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
            }
            Err(_) => {
                self.append_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        r
    }

    /// Atomically snapshots the current WAL contents and installs `listener`
    /// as the frame observer: `send_history` receives every valid frame
    /// currently on disk (snapshot file first, then log) while the log lock
    /// blocks concurrent appends, so no frame is missed or duplicated
    /// between history and the live stream. If `send_history` fails the
    /// listener is *not* installed.
    pub fn attach_replica(
        &self,
        send_history: impl FnOnce(&[u8]) -> io::Result<()>,
        listener: FrameListener,
    ) -> io::Result<()> {
        let _log = self.lock_log();
        // Lead with an epoch header so the follower knows which epoch
        // this primary speaks *before* any record arrives — a follower
        // that already learned a higher epoch rejects the stream at
        // frame one instead of applying stale history.
        let mut history = encode_epoch(self.epoch.load(Ordering::Acquire));
        for file in [SNAPSHOT_FILE, LOG_FILE] {
            let path = self.dir.join(file);
            if !path.exists() {
                continue;
            }
            let mut buf = Vec::new();
            File::open(&path)?.read_to_end(&mut buf)?;
            // Ship only the valid prefix: a torn local tail (failed
            // append) must not stall the follower's frame decoder.
            let mut offset = 0usize;
            while let Some((_, next)) = decode_wal_frame(&buf, offset) {
                offset = next;
            }
            history.extend_from_slice(&buf[..offset]);
        }
        send_history(&history)?;
        *self
            .frame_listener
            .0
            .lock()
            .unwrap_or_else(|p| p.into_inner()) = Some(listener);
        Ok(())
    }

    /// The current replication epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Raises the epoch to whatever higher value was learned from an
    /// already-persisted source (a replicated `E1` frame appended via
    /// [`Wal::append_raw_frame`]). Never lowers it. Returns the epoch now
    /// in effect.
    pub fn observe_epoch(&self, epoch: u64) -> u64 {
        self.epoch.fetch_max(epoch, Ordering::AcqRel).max(epoch)
    }

    /// Durably records an epoch advance: appends an `E1` marker frame
    /// (fsync'd — epoch transitions are rare and must survive power
    /// loss), ships it to any attached follower through the ordinary
    /// frame listener, and raises the in-memory epoch. A no-op returning
    /// the current epoch if `epoch` is not an advance.
    pub fn record_epoch(&self, epoch: u64) -> io::Result<u64> {
        if epoch <= self.epoch.load(Ordering::Acquire) {
            return Ok(self.epoch.load(Ordering::Acquire));
        }
        let frame = encode_epoch(epoch);
        self.append_raw_frame(&frame)?;
        self.sync()?;
        Ok(self.observe_epoch(epoch))
    }

    /// Drops the frame listener (follower detached or promoted).
    pub fn detach_replica(&self) {
        *self
            .frame_listener
            .0
            .lock()
            .unwrap_or_else(|p| p.into_inner()) = None;
    }

    /// Fsyncs the log file — upgrade from "survives process death" to
    /// "survives power loss" when a caller needs it.
    pub fn sync(&self) -> io::Result<()> {
        self.lock_log().sync_data()
    }

    /// Replaces the snapshot with `entries` (user → (version, profile
    /// text)) and truncates the log. The snapshot is written to a temp
    /// file, synced, and atomically renamed, so a crash during compaction
    /// loses nothing: either the old snapshot+log or the new snapshot is
    /// on disk.
    pub fn compact<'a>(
        &self,
        entries: impl Iterator<Item = (&'a str, u64, &'a str)>,
    ) -> io::Result<()> {
        let mut log = self.lock_log();
        let tmp = self.dir.join("snapshot.tmp");
        let epoch = self.epoch.load(Ordering::Acquire);
        {
            let mut f = File::create(&tmp)?;
            if epoch > 0 {
                // Carry the epoch across compaction: the log's E1 markers
                // are about to be truncated away.
                f.write_all(&encode_epoch(epoch))?;
            }
            for (user, version, text) in entries {
                f.write_all(&encode_put(user, version, text, epoch))?;
            }
            f.sync_data()?;
        }
        std::fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        // Fsync the directory: the rename itself must survive power loss,
        // or recovery could see the *old* snapshot next to a log we are
        // about to truncate.
        File::open(&self.dir)?.sync_all()?;
        // The snapshot now covers everything: restart the log.
        log.set_len(0)?;
        log.seek(SeekFrom::Start(0))?;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.bytes_since_compaction.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Log bytes written since the last compaction (seeded with whatever
    /// recovery left in `log.wal`) — the WAL-size gauge `/metrics` exports
    /// and the signal a compaction policy would trigger on.
    pub fn bytes_since_compaction(&self) -> u64 {
        self.bytes_since_compaction.load(Ordering::Relaxed)
    }

    /// `(appends, append_errors, bytes_appended, compactions)` counters.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.appends.load(Ordering::Relaxed),
            self.append_errors.load(Ordering::Relaxed),
            self.bytes_appended.load(Ordering::Relaxed),
            self.compactions.load(Ordering::Relaxed),
        )
    }

    fn lock_log(&self) -> std::sync::MutexGuard<'_, File> {
        self.log.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// FNV-1a 64 — the shared workspace hash ([`cqp_core::answer_cache::fnv1a`]),
/// the same stable function the session store shards and the answer cache
/// key with.
fn fnv1a(bytes: &[u8]) -> u64 {
    cqp_core::answer_cache::fnv1a(cqp_core::answer_cache::FNV_OFFSET, bytes)
}

/// Encodes one put record as a full frame (including the trailing `\n`).
/// The epoch stamp is omitted at epoch 0 so pre-epoch readers (and
/// byte-for-byte comparisons against seed-format logs) see the original
/// frame shape.
fn encode_put(user: &str, version: u64, profile_text: &str, epoch: u64) -> Vec<u8> {
    let mut fields = vec![
        ("op", Json::Str("put".into())),
        ("user", Json::Str(user.into())),
        ("version", Json::Num(version as f64)),
        ("profile", Json::Str(profile_text.into())),
    ];
    if epoch > 0 {
        fields.push(("epoch", Json::Num(epoch as f64)));
    }
    let payload = Json::obj(fields).render();
    let mut frame = format!(
        "{MAGIC} {} {:016x} ",
        payload.len(),
        fnv1a(payload.as_bytes())
    )
    .into_bytes();
    frame.extend_from_slice(payload.as_bytes());
    frame.push(b'\n');
    frame
}

/// Encodes an `E1` epoch-marker frame (including the trailing `\n`).
pub fn encode_epoch(epoch: u64) -> Vec<u8> {
    let payload = Json::obj(vec![
        ("op", Json::Str("epoch".into())),
        ("epoch", Json::Num(epoch as f64)),
    ])
    .render();
    let mut frame = format!(
        "{EPOCH_MAGIC} {} {:016x} ",
        payload.len(),
        fnv1a(payload.as_bytes())
    )
    .into_bytes();
    frame.extend_from_slice(payload.as_bytes());
    frame.push(b'\n');
    frame
}

/// Parses one frame of either type starting at `buf[offset..]`. Returns
/// the frame and the offset just past its trailing newline, or `None` if
/// the bytes at `offset` are not a complete valid frame (torn tail /
/// corruption — or, on the replication stream, simply "not fully arrived
/// yet").
pub fn decode_wal_frame(buf: &[u8], offset: usize) -> Option<(WalFrame, usize)> {
    let rest = &buf[offset..];
    let nl = rest.iter().position(|b| *b == b'\n')?;
    let line = std::str::from_utf8(&rest[..nl]).ok()?;
    let mut parts = line.splitn(4, ' ');
    let magic = parts.next()?;
    if magic != MAGIC && magic != EPOCH_MAGIC {
        return None;
    }
    let len: usize = parts.next()?.parse().ok()?;
    let checksum = u64::from_str_radix(parts.next()?, 16).ok()?;
    let payload = parts.next()?;
    if payload.len() != len || fnv1a(payload.as_bytes()) != checksum {
        return None;
    }
    let json = crate::json::parse(payload).ok()?;
    let next = offset + nl + 1;
    if magic == EPOCH_MAGIC {
        if json.get("op")?.as_str()? != "epoch" {
            return None;
        }
        return Some((WalFrame::Epoch(json.get("epoch")?.as_u64()?), next));
    }
    if json.get("op")?.as_str()? != "put" {
        return None;
    }
    Some((
        WalFrame::Put(PutRecord {
            user: json.get("user")?.as_str()?.to_string(),
            version: json.get("version")?.as_u64()?,
            profile_text: json.get("profile")?.as_str()?.to_string(),
            epoch: json.get("epoch").and_then(Json::as_u64).unwrap_or(0),
        }),
        next,
    ))
}

/// Parses one `W1` put frame at `buf[offset..]` — `None` for anything
/// else, including valid `E1` markers. Kept for callers that only care
/// about records; stream decoders should use [`decode_wal_frame`].
pub fn decode_frame(buf: &[u8], offset: usize) -> Option<(PutRecord, usize)> {
    match decode_wal_frame(buf, offset)? {
        (WalFrame::Put(rec), next) => Some((rec, next)),
        _ => None,
    }
}

/// Replays `path`, returning `(records, epoch, valid_bytes, total_bytes)`
/// where `valid_bytes` is the clean prefix length (everything past it is
/// torn tail or corruption the caller should truncate) and `epoch` is the
/// highest epoch seen in the valid prefix.
fn replay_file(path: &Path) -> io::Result<(Vec<PutRecord>, u64, u64, u64)> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    let mut records = Vec::new();
    let mut epoch = 0u64;
    let mut offset = 0usize;
    while offset < buf.len() {
        match decode_wal_frame(&buf, offset) {
            Some((WalFrame::Put(rec), next)) => {
                epoch = epoch.max(rec.epoch);
                records.push(rec);
                offset = next;
            }
            Some((WalFrame::Epoch(e), next)) => {
                epoch = epoch.max(e);
                offset = next;
            }
            None => break,
        }
    }
    Ok((records, epoch, offset as u64, buf.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqp_storage::FaultMode;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cqp-wal-{tag}-{}-{}",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "-")
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    const PROFILE: &str = "# cqp-profile v1\nprofile al\nselect 0.7 GENRE.genre eq \"comedy\"\n";

    #[test]
    fn roundtrip_append_and_replay() {
        let dir = tmpdir("roundtrip");
        {
            let opened = Wal::open(&dir).unwrap();
            assert!(opened.records.is_empty());
            opened.wal.append_put("al", 1, PROFILE).unwrap();
            opened.wal.append_put("bo", 1, PROFILE).unwrap();
            opened.wal.append_put("al", 2, PROFILE).unwrap();
            assert_eq!(opened.wal.counters().0, 3);
        }
        let opened = Wal::open(&dir).unwrap();
        assert_eq!(opened.records.len(), 3);
        assert_eq!(opened.report.log_records, 3);
        assert_eq!(opened.report.torn_tail_bytes, 0);
        assert_eq!(opened.records[2].user, "al");
        assert_eq!(opened.records[2].version, 2);
        assert_eq!(opened.records[2].profile_text, PROFILE);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = tmpdir("torn");
        {
            let opened = Wal::open(&dir).unwrap();
            opened.wal.append_put("al", 1, PROFILE).unwrap();
            opened.wal.append_put("bo", 1, PROFILE).unwrap();
        }
        // Tear the tail at every byte boundary inside the last record.
        let log_path = dir.join(LOG_FILE);
        let full = std::fs::read(&log_path).unwrap();
        let first_len = decode_frame(&full, 0).unwrap().1;
        for cut in first_len..full.len() - 1 {
            std::fs::write(&log_path, &full[..cut]).unwrap();
            let opened = Wal::open(&dir).unwrap();
            assert_eq!(opened.records.len(), 1, "cut at {cut}");
            assert_eq!(opened.report.torn_tail_bytes, (cut - first_len) as u64);
            // The file was healed: appending after recovery yields a
            // clean two-record log again.
            opened.wal.append_put("cy", 1, PROFILE).unwrap();
            let reopened = Wal::open(&dir).unwrap();
            assert_eq!(reopened.records.len(), 2, "cut at {cut}");
            assert_eq!(reopened.records[1].user, "cy");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_torn_write_matches_crash_shape() {
        let dir = tmpdir("inject");
        let opened = Wal::open(&dir).unwrap();
        let plan = Arc::new(FaultPlan::new(
            1,
            FaultMode::TornWrite {
                nth: 1,
                keep_bytes: 7,
            },
        ));
        let wal = opened.wal.with_fault_plan(Arc::clone(&plan));
        wal.append_put("al", 1, PROFILE).unwrap();
        let err = wal.append_put("bo", 1, PROFILE);
        assert!(err.is_err());
        assert_eq!(plan.writes_torn(), 1);
        assert_eq!(wal.counters().1, 1); // one append error
        drop(wal);
        let opened = Wal::open(&dir).unwrap();
        assert_eq!(opened.records.len(), 1);
        assert_eq!(opened.report.torn_tail_bytes, 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_byte_mid_tail_truncates_from_there() {
        let dir = tmpdir("corrupt");
        {
            let opened = Wal::open(&dir).unwrap();
            opened.wal.append_put("al", 1, PROFILE).unwrap();
            opened.wal.append_put("bo", 1, PROFILE).unwrap();
        }
        let log_path = dir.join(LOG_FILE);
        let mut bytes = std::fs::read(&log_path).unwrap();
        let second_start = decode_frame(&bytes, 0).unwrap().1;
        // Flip a payload byte of the second record: its checksum fails.
        let n = bytes.len();
        bytes[second_start + 25] ^= 0xFF;
        std::fs::write(&log_path, &bytes).unwrap();
        let opened = Wal::open(&dir).unwrap();
        assert_eq!(opened.records.len(), 1);
        assert_eq!(opened.report.torn_tail_bytes, (n - second_start) as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_snapshots_and_truncates_log() {
        let dir = tmpdir("compact");
        let opened = Wal::open(&dir).unwrap();
        let wal = opened.wal;
        for v in 1..=5 {
            wal.append_put("al", v, PROFILE).unwrap();
        }
        wal.compact([("al", 5u64, PROFILE)].into_iter()).unwrap();
        // Log restarted; appends land after the snapshot.
        wal.append_put("bo", 1, PROFILE).unwrap();
        drop(wal);
        let opened = Wal::open(&dir).unwrap();
        assert_eq!(opened.report.snapshot_records, 1);
        assert_eq!(opened.report.log_records, 1);
        let users: Vec<_> = opened.records.iter().map(|r| r.user.as_str()).collect();
        assert_eq!(users, ["al", "bo"]);
        assert_eq!(opened.records[0].version, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bytes_since_compaction_tracks_log_growth_and_resets() {
        let dir = tmpdir("since-compact");
        {
            let opened = Wal::open(&dir).unwrap();
            let wal = opened.wal;
            assert_eq!(wal.bytes_since_compaction(), 0);
            wal.append_put("al", 1, PROFILE).unwrap();
            wal.append_put("al", 2, PROFILE).unwrap();
            let grown = wal.bytes_since_compaction();
            assert!(grown > 0);
            wal.compact([("al", 2u64, PROFILE)].into_iter()).unwrap();
            assert_eq!(wal.bytes_since_compaction(), 0);
            wal.append_put("bo", 1, PROFILE).unwrap();
            assert!(wal.bytes_since_compaction() > 0);
            assert!(wal.bytes_since_compaction() < grown);
        }
        // Reopen: the surviving log bytes seed the gauge.
        let opened = Wal::open(&dir).unwrap();
        let log_len = std::fs::metadata(dir.join(LOG_FILE)).unwrap().len();
        assert_eq!(opened.wal.bytes_since_compaction(), log_len);
        assert!(log_len > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_markers_are_durable_and_survive_compaction() {
        let dir = tmpdir("epoch");
        {
            let opened = Wal::open(&dir).unwrap();
            assert_eq!(opened.wal.epoch(), 0);
            opened.wal.append_put("al", 1, PROFILE).unwrap();
            assert_eq!(opened.wal.record_epoch(3).unwrap(), 3);
            // Not an advance: ignored.
            assert_eq!(opened.wal.record_epoch(2).unwrap(), 3);
            opened.wal.append_put("al", 2, PROFILE).unwrap();
        }
        let opened = Wal::open(&dir).unwrap();
        assert_eq!(opened.report.epoch, 3);
        assert_eq!(opened.wal.epoch(), 3);
        assert_eq!(opened.records.len(), 2);
        // Records carry the epoch they were accepted under.
        assert_eq!(opened.records[0].epoch, 0);
        assert_eq!(opened.records[1].epoch, 3);
        // Compaction truncates the log's E1 marker but re-seeds it in the
        // snapshot.
        opened
            .wal
            .compact([("al", 2u64, PROFILE)].into_iter())
            .unwrap();
        drop(opened);
        let opened = Wal::open(&dir).unwrap();
        assert_eq!(opened.report.epoch, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_epoch_seed_format_recovers_as_epoch_zero() {
        let dir = tmpdir("pre-epoch");
        std::fs::create_dir_all(&dir).unwrap();
        // A seed-format frame: no `epoch` field, no E1 markers.
        let payload = Json::obj(vec![
            ("op", Json::Str("put".into())),
            ("user", Json::Str("al".into())),
            ("version", Json::Num(1.0)),
            ("profile", Json::Str(PROFILE.into())),
        ])
        .render();
        let frame = format!(
            "{MAGIC} {} {:016x} {payload}\n",
            payload.len(),
            fnv1a(payload.as_bytes())
        );
        std::fs::write(dir.join(LOG_FILE), frame).unwrap();
        let opened = Wal::open(&dir).unwrap();
        assert_eq!(opened.records.len(), 1);
        assert_eq!(opened.records[0].epoch, 0);
        assert_eq!(opened.report.epoch, 0);
        assert_eq!(opened.report.torn_tail_bytes, 0);
        // And epoch-0 appends reproduce the seed frame shape exactly.
        let reencoded = encode_put("al", 1, PROFILE, 0);
        let on_disk = std::fs::read(dir.join(LOG_FILE)).unwrap();
        assert_eq!(reencoded, on_disk);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn frame_survives_newlines_and_quotes_in_profile_text() {
        let dir = tmpdir("escape");
        let tricky = "# cqp-profile v1\nprofile q\nselect 0.5 GENRE.genre eq \"a\\\"b\"\n";
        let opened = Wal::open(&dir).unwrap();
        opened.wal.append_put("q\"user\"", 1, tricky).unwrap();
        drop(opened);
        let opened = Wal::open(&dir).unwrap();
        assert_eq!(opened.records.len(), 1);
        assert_eq!(opened.records[0].user, "q\"user\"");
        assert_eq!(opened.records[0].profile_text, tricky);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
