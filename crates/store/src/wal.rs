//! Write-ahead log: the durability substrate of the persistent store.
//!
//! The paper claims "safe and up to date storage of information" across
//! replica crashes (§6, Fig. 17).  Anti-entropy gives *redundancy*; this
//! module gives each replica *local durability*, so a crashed daemon
//! restarted on the same host recovers every write it acknowledged instead
//! of depending entirely on its peers.
//!
//! Layout per replica (two logical "files" behind a pluggable
//! [`StorageBackend`]):
//!
//! * **log** — length-prefixed, CRC-32-framed records, one per applied
//!   write, appended and fsynced *before* the write is acknowledged;
//! * **snapshot** — the full state, written by compaction (and by a
//!   shipped-snapshot install).  A log is compacted once compacting would
//!   at least halve the disk, never below [`COMPACT_FLOOR`] and always at
//!   the configured cap ([`WalConfig::compact_threshold`]), so a disk holds
//!   at most about twice the state it logs.  A commit
//!   atomically replaces the snapshot, then empties the log.  A crash
//!   before the replace leaves the old snapshot and the whole log; a crash
//!   after it leaves the new snapshot and the whole log, whose replay over
//!   it changes nothing (invariant 3); a crash after the log reset leaves
//!   the new snapshot alone.  So one snapshot is enough: recovery never
//!   needs an older one.
//!
//! Recovery invariants (asserted by `tests/wal_recovery.rs` and the chaos
//! soak):
//!
//! 1. **Kill at any byte**: a crash at any byte offset of a log append
//!    loses no acknowledged write — replay truncates the torn tail and
//!    keeps everything before it.
//! 2. **No silent corruption**: a record whose CRC does not match is never
//!    replayed; recovery refuses with [`StoreError::Corrupt`] rather than
//!    reading past it (callers may then deliberately reset and rebuild via
//!    anti-entropy).
//! 3. Replay is idempotent: records re-apply through the same
//!    `(version, writer)` ordering as live writes.
//!
//! A [`Wal`] has one owner and one writer at a time: the replica's
//! `DiskImage` holds it under the lock it publishes under, and a replica's
//! only writers are its daemon task and its sync worker.  So an append is a
//! plain call: frame the caller's records, one backend append, one fsync.

use crate::client::StoreError;
use crate::version::{StoreKey, Versioned};
use ace_net::fault::{StorageFault, StorageFaultHub};
use ace_net::HostId;
use ace_security::hash::crc32;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hard upper bound on one record's payload; a length prefix beyond this is
/// corruption, not a large record.
pub const MAX_RECORD: u32 = 16 << 20;

/// Framing overhead per record: `len: u32 | crc32(payload): u32`.
pub const RECORD_HEADER: usize = 8;

// ---------------------------------------------------------------------------
// Storage backends
// ---------------------------------------------------------------------------

/// One logical file of replica storage.  `append` is the only operation a
/// fault may tear: everything else either fully happens or fully errors,
/// matching the single-sector atomicity real filesystems give renames and
/// truncates.
pub trait StorageBackend: Send {
    /// Full current contents.
    fn read_all(&mut self) -> Result<Vec<u8>, StoreError>;
    /// Append bytes at the end.  Under an armed fault this may persist only
    /// a prefix and return `Err` — the caller must treat `Err` as
    /// "not durable".
    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError>;
    /// Flush appended bytes to stable storage.
    fn sync(&mut self) -> Result<(), StoreError>;
    /// Atomically and durably replace the full contents (snapshot commit,
    /// log reset).  Takes the bytes by value, so a backend that keeps them
    /// in memory keeps them without a copy.
    fn replace(&mut self, bytes: Vec<u8>) -> Result<(), StoreError>;
    /// Cut the contents down to `len` bytes (torn-tail repair).
    fn truncate(&mut self, len: u64) -> Result<(), StoreError>;
}

const SEG_LOG: usize = 0;
const SEG_SNAP: usize = 1;

#[derive(Debug, Default)]
struct MemInner {
    segments: Mutex<[Vec<u8>; 2]>,
    /// Fencing token: bumped by every [`StorageHandle`] open, so backends
    /// from a superseded instance (a daemon the supervisor already
    /// replaced) can no longer write — the same role a fencing epoch plays
    /// in real shared-storage systems.
    epoch: AtomicU64,
    faults: Mutex<Option<(StorageFaultHub, HostId)>>,
    /// Segment writes left before an armed crash; `Some(0)` is a host that
    /// is down until the next open (also where a `CrashAtByte` leaves it).
    crash_after: Mutex<Option<u64>>,
}

/// Cloneable in-memory replica storage: the simulated disk.  Contents
/// survive daemon crash/restart (any clone reopens the same bytes), and an
/// attached [`StorageFaultHub`] injects byte-level damage into appends.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    inner: Arc<MemInner>,
}

impl MemStorage {
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    /// Attach a fault hub: the log backend consumes faults armed for
    /// `host` at its next append.
    pub fn with_faults(self, hub: StorageFaultHub, host: HostId) -> MemStorage {
        *self.inner.faults.lock() = Some((hub, host));
        self
    }

    /// Bump the fencing epoch, invalidating every backend handed out
    /// before.  Returns the new epoch.
    fn fence(&self) -> u64 {
        *self.inner.crash_after.lock() = None; // an open is the restart
        self.inner.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Arm a crash of the simulated host: `writes` more segment writes
    /// (appends, replaces and truncates, on any segment) land, then the
    /// host is down — the next write and every one after it fail without
    /// landing, until the storage is opened again.  How a test stops a
    /// multi-step commit between any two of its steps.
    pub fn crash_after_writes(&self, writes: u64) {
        *self.inner.crash_after.lock() = Some(writes);
    }

    /// Count one segment write against an armed crash.
    fn write_lands(&self) -> Result<(), StoreError> {
        match &mut *self.inner.crash_after.lock() {
            Some(0) => Err(StoreError::Io("simulated crash: host is down".into())),
            Some(left) => {
                *left -= 1;
                Ok(())
            }
            None => Ok(()),
        }
    }

    fn backend(&self, seg: usize, epoch: u64) -> MemBackend {
        MemBackend {
            storage: self.clone(),
            seg,
            epoch,
        }
    }

    /// Raw bytes of the log segment (tests and diagnostics).
    pub fn log_bytes(&self) -> Vec<u8> {
        self.inner.segments.lock()[SEG_LOG].clone()
    }

    /// Byte length of the snapshot (tests and diagnostics).
    pub fn snapshot_len(&self) -> usize {
        self.inner.segments.lock()[SEG_SNAP].len()
    }

    /// Overwrite the log segment wholesale — how tests model latent media
    /// damage that happened while the replica was down.
    pub fn set_log_bytes(&self, bytes: Vec<u8>) {
        self.inner.segments.lock()[SEG_LOG] = bytes;
    }
}

struct MemBackend {
    storage: MemStorage,
    seg: usize,
    epoch: u64,
}

impl MemBackend {
    fn check(&self) -> Result<(), StoreError> {
        if self.storage.inner.epoch.load(Ordering::SeqCst) != self.epoch {
            return Err(StoreError::Io("backend fenced by a newer open".into()));
        }
        Ok(())
    }
}

impl StorageBackend for MemBackend {
    fn read_all(&mut self) -> Result<Vec<u8>, StoreError> {
        self.check()?;
        Ok(self.storage.inner.segments.lock()[self.seg].clone())
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.check()?;
        self.storage.write_lands()?;
        // Only the log segment is fault-injectable: snapshots commit via
        // the atomic `replace`.
        let fault = if self.seg == SEG_LOG {
            let guard = self.storage.inner.faults.lock();
            guard.as_ref().and_then(|(hub, host)| hub.take(host))
        } else {
            None
        };
        let mut segments = self.storage.inner.segments.lock();
        match fault {
            Some(StorageFault::CrashAtByte(n)) => {
                let keep = (n as usize).min(bytes.len());
                segments[self.seg].extend_from_slice(&bytes[..keep]);
                self.storage.crash_after_writes(0);
                Err(StoreError::Io(format!(
                    "simulated crash after {keep} of {} append bytes",
                    bytes.len()
                )))
            }
            Some(StorageFault::TornWrite(n)) => {
                let keep = (n as usize).min(bytes.len().saturating_sub(1));
                segments[self.seg].extend_from_slice(&bytes[..keep]);
                Err(StoreError::Io(format!(
                    "simulated torn write: {keep} of {} append bytes",
                    bytes.len()
                )))
            }
            Some(StorageFault::BitFlip(bit)) => {
                // Latent damage to what is already on disk; the append
                // itself succeeds.
                let seg = &mut segments[self.seg];
                if !seg.is_empty() {
                    let bit = (bit as usize) % (seg.len() * 8);
                    seg[bit / 8] ^= 1 << (bit % 8);
                }
                seg.extend_from_slice(bytes);
                Ok(())
            }
            None => {
                segments[self.seg].extend_from_slice(bytes);
                Ok(())
            }
        }
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.check()
    }

    fn replace(&mut self, bytes: Vec<u8>) -> Result<(), StoreError> {
        self.check()?;
        self.storage.write_lands()?;
        self.storage.inner.segments.lock()[self.seg] = bytes;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        self.check()?;
        self.storage.write_lands()?;
        let mut segments = self.storage.inner.segments.lock();
        let seg = &mut segments[self.seg];
        if (len as usize) < seg.len() {
            seg.truncate(len as usize);
        }
        Ok(())
    }
}

/// Real-file backend: one file per segment.  Snapshot commits go through
/// write-to-temp + rename + directory sync, so `replace` is atomic and
/// durable on a crash.
struct FileBackend {
    path: PathBuf,
    file: Option<std::fs::File>,
}

impl FileBackend {
    fn new(path: PathBuf) -> FileBackend {
        FileBackend { path, file: None }
    }

    fn io(e: std::io::Error) -> StoreError {
        StoreError::Io(e.to_string())
    }

    fn open_append(&mut self) -> Result<&mut std::fs::File, StoreError> {
        if self.file.is_none() {
            // Sync the directory on every open, not only on a create that
            // this call saw: a create whose sync failed is made durable by
            // the retry.  Reopens follow only a replace or a truncate.
            let f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
                .map_err(Self::io)?;
            Self::sync_dir(&self.path)?;
            self.file = Some(f);
        }
        Ok(self.file.as_mut().expect("just opened"))
    }

    /// Sync the directory holding `path`.  A file's name lives in its
    /// directory, which the file's own fsync does not cover: until the
    /// directory is synced, a crash may lose a create or a rename.
    fn sync_dir(path: &Path) -> Result<(), StoreError> {
        let dir = path
            .parent()
            .filter(|dir| !dir.as_os_str().is_empty())
            .unwrap_or(Path::new("."));
        std::fs::File::open(dir)
            .and_then(|dir| dir.sync_all())
            .map_err(Self::io)
    }
}

impl StorageBackend for FileBackend {
    fn read_all(&mut self) -> Result<Vec<u8>, StoreError> {
        match std::fs::read(&self.path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(Self::io(e)),
        }
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.open_append()?.write_all(bytes).map_err(Self::io)
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        if let Some(f) = self.file.as_mut() {
            f.sync_data().map_err(Self::io)?;
        }
        Ok(())
    }

    fn replace(&mut self, bytes: Vec<u8>) -> Result<(), StoreError> {
        self.file = None; // reopen after the rename
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, bytes).map_err(Self::io)?;
        let f = std::fs::File::open(&tmp).map_err(Self::io)?;
        f.sync_data().map_err(Self::io)?;
        std::fs::rename(&tmp, &self.path).map_err(Self::io)?;
        // The rename is a snapshot's commit point: make it durable.
        Self::sync_dir(&self.path)
    }

    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        self.file = None;
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(Self::io)?;
        f.set_len(len).map_err(Self::io)?;
        f.sync_data().map_err(Self::io)
    }
}

/// Reopenable description of a replica's storage — what a respawn factory
/// holds to recover a crashed replica's data.
#[derive(Debug, Clone)]
pub enum StorageHandle {
    /// Simulated disk (chaos and unit tests).
    Memory(MemStorage),
    /// A directory of real files: `wal.log` and `snap.bin`.
    Dir(PathBuf),
}

impl StorageHandle {
    fn open_backends(&self) -> Result<[Box<dyn StorageBackend>; 2], StoreError> {
        match self {
            StorageHandle::Memory(mem) => {
                let epoch = mem.fence();
                Ok([
                    Box::new(mem.backend(SEG_LOG, epoch)),
                    Box::new(mem.backend(SEG_SNAP, epoch)),
                ])
            }
            StorageHandle::Dir(dir) => {
                std::fs::create_dir_all(dir).map_err(FileBackend::io)?;
                Ok([
                    Box::new(FileBackend::new(dir.join("wal.log"))),
                    Box::new(FileBackend::new(dir.join("snap.bin"))),
                ])
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.at < n {
            return Err(format!("payload short: need {n} at {}", self.at));
        }
        let out = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.u16()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|e| format!("bad utf8: {e}"))
    }
}

/// Bytes one write takes framed, header included: its share of a log
/// append and of a snapshot body.  [`encode_payload`] writes the payload
/// this counts.
pub(crate) fn record_len(key: &StoreKey, value: &Versioned) -> u64 {
    let strs = key.0.len() + key.1.len() + value.writer.len();
    // Three u16 string lengths, the u64 version, the tombstone flag and
    // the u32 data length.
    (RECORD_HEADER + strs + 3 * 2 + 8 + 1 + 4 + value.data.len()) as u64
}

/// Encode one write's record payload (no framing) onto `out`.
fn encode_payload(out: &mut Vec<u8>, key: &StoreKey, value: &Versioned) {
    put_str(out, &key.0);
    put_str(out, &key.1);
    out.extend_from_slice(&value.version.to_le_bytes());
    put_str(out, &value.writer);
    out.push(value.deleted as u8);
    out.extend_from_slice(&(value.data.len() as u32).to_le_bytes());
    out.extend_from_slice(&value.data);
}

/// Frame one write onto `out` in place — `len | crc32(payload) | payload`
/// — with no buffer of its own: the header is patched in once the payload
/// is written behind it.
fn put_record(out: &mut Vec<u8>, key: &StoreKey, value: &Versioned) {
    let start = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER]);
    encode_payload(out, key, value);
    let payload = &out[start + RECORD_HEADER..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + RECORD_HEADER].copy_from_slice(&crc.to_le_bytes());
}

fn decode_payload(payload: &[u8]) -> Result<(StoreKey, Versioned), String> {
    let mut c = Cursor {
        bytes: payload,
        at: 0,
    };
    let ns = c.str()?;
    let key = c.str()?;
    let version = c.u64()?;
    let writer = c.str()?;
    let deleted = match c.take(1)?[0] {
        0 => false,
        1 => true,
        other => return Err(format!("bad tombstone flag {other}")),
    };
    let data_len = c.u32()? as usize;
    let data = c.take(data_len)?.to_vec();
    if c.at != payload.len() {
        return Err(format!("{} trailing payload bytes", payload.len() - c.at));
    }
    Ok((
        (ns, key),
        Versioned {
            data,
            version,
            writer,
            deleted,
        },
    ))
}

/// Frame one write as a full log record: `len | crc32(payload) | payload`.
pub fn frame_record(key: &StoreKey, value: &Versioned) -> Vec<u8> {
    let mut out = Vec::with_capacity(record_len(key, value) as usize);
    put_record(&mut out, key, value);
    out
}

/// What replaying a log byte stream yielded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Decoded records in log order.
    pub entries: Vec<(StoreKey, Versioned)>,
    /// Byte length of the valid prefix (everything past it is a torn tail).
    pub good_len: u64,
    /// Torn-tail bytes discarded past `good_len`.
    pub torn_bytes: u64,
}

/// Replay a log byte stream.
///
/// * An incomplete record at the end of the stream is a **torn tail** —
///   the crash model's signature — and is discarded; everything before it
///   replays.
/// * A complete record whose CRC mismatches, whose length prefix is
///   absurd, or whose payload does not decode is **corruption**: the
///   replay refuses with [`StoreError::Corrupt`] rather than guessing.
pub fn replay_bytes(bytes: &[u8]) -> Result<Replay, StoreError> {
    let mut entries = Vec::new();
    let mut at = 0usize;
    loop {
        let rem = bytes.len() - at;
        if rem == 0 {
            break;
        }
        if rem < RECORD_HEADER {
            break; // torn inside the header
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        if len > MAX_RECORD {
            return Err(StoreError::Corrupt {
                offset: at as u64,
                detail: format!("record length {len} exceeds {MAX_RECORD}"),
            });
        }
        let len = len as usize;
        if rem - RECORD_HEADER < len {
            break; // torn inside the payload
        }
        let payload = &bytes[at + RECORD_HEADER..at + RECORD_HEADER + len];
        if crc32(payload) != crc {
            return Err(StoreError::Corrupt {
                offset: at as u64,
                detail: "record CRC mismatch".into(),
            });
        }
        match decode_payload(payload) {
            Ok(entry) => entries.push(entry),
            Err(detail) => {
                return Err(StoreError::Corrupt {
                    offset: at as u64,
                    detail,
                })
            }
        }
        at += RECORD_HEADER + len;
    }
    Ok(Replay {
        entries,
        good_len: at as u64,
        torn_bytes: (bytes.len() - at) as u64,
    })
}

// ---------------------------------------------------------------------------
// Snapshot codec
// ---------------------------------------------------------------------------

const SNAP_MAGIC: &[u8; 8] = b"ACSNAP01";

/// Snapshot bytes besides its records: magic, reserved word and count in
/// front, the body's CRC behind.
const SNAP_FRAME: usize = SNAP_MAGIC.len() + 8 + 4 + 4;

/// Encode a full-state snapshot body, for compaction and for snapshot
/// shipping alike.  `live` is the [`record_len`] sum of `map`, so the body
/// is one allocation of its final size and every record is framed in
/// place.  The 8 header bytes after the magic are a reserved word, always
/// 0, that the decoder skips: shipped snapshots keep their layout.
pub(crate) fn encode_snapshot(map: &HashMap<StoreKey, Versioned>, live: u64) -> Vec<u8> {
    let mut body = Vec::with_capacity(SNAP_FRAME + live as usize);
    body.extend_from_slice(SNAP_MAGIC);
    body.extend_from_slice(&0u64.to_le_bytes());
    body.extend_from_slice(&(map.len() as u32).to_le_bytes());
    // Deterministic order so identical states produce identical snapshots.
    let mut keys: Vec<&StoreKey> = map.keys().collect();
    keys.sort();
    for key in keys {
        put_record(&mut body, key, &map[key]);
    }
    debug_assert_eq!(body.len() + 4, SNAP_FRAME + live as usize, "live drifted");
    let total_crc = crc32(&body);
    body.extend_from_slice(&total_crc.to_le_bytes());
    body
}

/// The records of a snapshot body: `Ok(Some(..))` for a valid snapshot,
/// `Ok(None)` for an empty one, and `Err(detail)` for bytes which do not
/// validate.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<Option<Vec<(StoreKey, Versioned)>>, String> {
    if bytes.is_empty() {
        return Ok(None);
    }
    if bytes.len() < SNAP_MAGIC.len() + 12 + 4 {
        return Err("snapshot shorter than its header".into());
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != stored {
        return Err("snapshot CRC mismatch".into());
    }
    let mut c = Cursor { bytes: body, at: 0 };
    if c.take(8).map_err(|e| e.to_string())? != SNAP_MAGIC {
        return Err("bad snapshot magic".into());
    }
    c.u64()?; // the reserved header word
    let count = c.u32()? as usize;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let len = c.u32()? as usize;
        let rec_crc = c.u32()?;
        let payload = c.take(len)?;
        if crc32(payload) != rec_crc {
            return Err("snapshot record CRC mismatch".into());
        }
        entries.push(decode_payload(payload)?);
    }
    if c.at != body.len() {
        return Err("trailing snapshot bytes".into());
    }
    Ok(Some(entries))
}

// ---------------------------------------------------------------------------
// The WAL proper
// ---------------------------------------------------------------------------

/// No log shorter than this is compacted, however little the state it
/// logs: a snapshot of a small state is not worth its rewrite.
pub const COMPACT_FLOOR: u64 = 256 << 10;

/// Compaction policy.  Every append is synced before it is acknowledged.
///
/// The one rule ([`Wal::maybe_compact`]): snapshot + truncate once the log
/// exceeds `min(cap, max(COMPACT_FLOOR, 2·live − snapshot))`, where `live`
/// is what the state's records take in a snapshot.  That is as soon as
/// compacting would at least halve the disk (snapshot + log), so the disk
/// stays within about twice the state.  During a load of fresh keys the log
/// *is* the state and never reaches twice it, so a load does not compact.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// The cap: a log longer than this many bytes is always compacted.
    /// The default is [`COMPACT_FLOOR`], where the rule is this cap alone.
    pub compact_threshold: u64,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            compact_threshold: COMPACT_FLOOR,
        }
    }
}

/// Counters exposed through `aceStats` (`wal.<name>.*`) and the recovery
/// experiments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalStats {
    pub appends: u64,
    pub append_bytes: u64,
    pub compactions: u64,
    pub compaction_failures: u64,
    pub append_failures: u64,
    /// Backend appends: one per [`Wal::append_batch`] call that logged.
    pub batches: u64,
    /// Fsyncs issued (one per batch).
    pub fsyncs: u64,
}

/// What recovery found, surfaced in supervisor restart notes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records loaded from the snapshot.
    pub snapshot_records: u64,
    /// Records replayed from the log.
    pub replayed_records: u64,
    /// Torn-tail bytes truncated off the log.
    pub torn_bytes: u64,
    /// True when corruption forced a reset to empty state
    /// (anti-entropy must rebuild this replica).
    pub reset: bool,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.reset {
            return write!(f, "wal corrupt; reset for anti-entropy rebuild");
        }
        write!(
            f,
            "wal recovered: {} snapshot + {} log records, {}B torn tail dropped",
            self.snapshot_records, self.replayed_records, self.torn_bytes
        )
    }
}

/// An open write-ahead log plus its snapshot: a plain struct with one
/// owner.  A replica's [`DiskImage`](crate::DiskImage) keeps it under the
/// image's one lock, so a write is checked, logged, published and compacted
/// in one hold, and nothing here locks or waits.  Each
/// [`Wal::append_batch`] is one backend append plus one fsync, and returns
/// only after both: no write is acknowledged before its bytes are synced.
pub struct Wal {
    config: WalConfig,
    log: Box<dyn StorageBackend>,
    snapshot: Box<dyn StorageBackend>,
    /// Committed log length; appends past it that fail are truncated away.
    end: u64,
    /// Length of the snapshot on disk, read at open and set by each commit.
    snapshot_len: u64,
    /// Set when even torn-tail repair failed; all further appends refuse.
    broken: bool,
    stats: WalStats,
    /// Reusable append buffer: a call's records are concatenated here so
    /// each call is exactly one backend `append` (and one tear point under
    /// fault injection), with no allocation after warm-up.
    scratch: Vec<u8>,
}

impl Wal {
    /// Open (or create) the WAL behind `handle`, replaying snapshot + log
    /// into a state map.  Refuses with [`StoreError::Corrupt`] when a
    /// non-empty snapshot or a mid-log record fails validation.
    pub fn open(
        handle: &StorageHandle,
        config: WalConfig,
    ) -> Result<(Wal, HashMap<StoreKey, Versioned>, RecoveryReport), StoreError> {
        let [mut log, mut snapshot] = handle.open_backends()?;
        let mut report = RecoveryReport::default();

        // A snapshot that fails validation is corruption: `replace` is
        // atomic, so there is no benign way to observe a half-written one.
        let snapshot_body = snapshot.read_all()?;
        let snapshot_len = snapshot_body.len() as u64;
        let snap_entries = decode_snapshot(&snapshot_body)
            .map_err(|detail| StoreError::Corrupt {
                offset: 0,
                detail: format!("snapshot: {detail}"),
            })?
            .unwrap_or_default();
        drop(snapshot_body); // before the map is built: one copy of the state at a time
        report.snapshot_records = snap_entries.len() as u64;
        let mut map: HashMap<StoreKey, Versioned> = HashMap::with_capacity(snap_entries.len());
        for (key, value) in snap_entries {
            map.insert(key, value);
        }

        // Replay the log over the snapshot, truncating a torn tail.
        let bytes = log.read_all()?;
        let replay = replay_bytes(&bytes)?;
        report.replayed_records = replay.entries.len() as u64;
        report.torn_bytes = replay.torn_bytes;
        if replay.torn_bytes > 0 {
            log.truncate(replay.good_len)?;
        }
        for (key, value) in replay.entries {
            match map.get(&key) {
                Some(existing) if !value.beats(existing) => {}
                _ => {
                    map.insert(key, value);
                }
            }
        }

        Ok((
            Wal {
                config,
                log,
                snapshot,
                end: replay.good_len,
                snapshot_len,
                broken: false,
                stats: WalStats::default(),
                scratch: Vec::new(),
            },
            map,
            report,
        ))
    }

    /// Wipe every segment of `handle` — the deliberate response to
    /// detected corruption (anti-entropy then rebuilds from peers).
    pub fn reset(handle: &StorageHandle) -> Result<(), StoreError> {
        let backends = handle.open_backends()?;
        for mut backend in backends {
            backend.replace(Vec::new())?;
        }
        Ok(())
    }

    fn usable(&self) -> Result<(), StoreError> {
        if self.broken {
            return Err(StoreError::Io(
                "wal is broken; replica needs respawn".into(),
            ));
        }
        Ok(())
    }

    /// Log a run of writes durably.  Returns only after the records are
    /// appended and synced — the caller must not acknowledge any of them
    /// before this returns `Ok`, and an `Err` acknowledges none: the run is
    /// one backend append, and a tear leaves at most a clean record-aligned
    /// prefix of it for replay.
    pub fn append_batch(&mut self, entries: &[(StoreKey, Versioned)]) -> Result<(), StoreError> {
        if entries.is_empty() {
            return Ok(());
        }
        self.usable()?;
        self.scratch.clear();
        let len: u64 = entries
            .iter()
            .map(|(key, value)| record_len(key, value))
            .sum();
        self.scratch.reserve(len as usize);
        for (key, value) in entries {
            put_record(&mut self.scratch, key, value);
        }
        self.commit(entries.len() as u64)
    }

    /// Write the `records` framed in `scratch` as one append plus one sync,
    /// and count them.  A failure cuts the log back to the last committed
    /// byte, so later appends cannot interleave with torn bytes.
    fn commit(&mut self, records: u64) -> Result<(), StoreError> {
        let written = self
            .log
            .append(&self.scratch)
            .and_then(|()| self.log.sync());
        if let Err(e) = written {
            self.stats.append_failures += records;
            if self.log.truncate(self.end).is_err() {
                self.broken = true;
            }
            return Err(e);
        }
        let bytes = self.scratch.len() as u64;
        self.end += bytes;
        self.stats.appends += records;
        self.stats.append_bytes += bytes;
        self.stats.batches += 1;
        self.stats.fsyncs += 1;
        Ok(())
    }

    /// The one snapshot commit, in this order: `map` atomically replaces
    /// the snapshot, then the log is emptied.  Both replaces are durable
    /// when they return.  A crash between them leaves the new snapshot and
    /// the whole log, and replaying a log over a snapshot that already
    /// holds its records changes nothing.  `live` is `map`'s
    /// [`record_len`] sum.
    fn commit_snapshot(
        &mut self,
        map: &HashMap<StoreKey, Versioned>,
        live: u64,
    ) -> Result<(), StoreError> {
        let body = encode_snapshot(map, live);
        let len = body.len() as u64;
        self.snapshot.replace(body)?;
        self.snapshot_len = len;
        self.log.replace(Vec::new())?;
        self.end = 0;
        self.stats.compactions += 1;
        Ok(())
    }

    /// Snapshot + truncate by the one snapshot commit once the log exceeds
    /// `min(cap, max(COMPACT_FLOOR, 2·live − snapshot))` (see
    /// [`WalConfig`]): once compacting would at least halve the disk.
    /// `map` must hold every record the log does, and `live` is the sum of
    /// its records' framed lengths: the image publishes a write before it
    /// compacts, in the same hold of its lock.  Failures are counted, not
    /// fatal: the data is still in the log.
    pub fn maybe_compact(&mut self, map: &HashMap<StoreKey, Versioned>, live: u64) -> bool {
        let halving = (2 * live).saturating_sub(self.snapshot_len);
        let limit = halving
            .max(COMPACT_FLOOR)
            .min(self.config.compact_threshold);
        if self.broken || self.end <= limit {
            return false;
        }
        let committed = self.commit_snapshot(map, live).is_ok();
        self.stats.compaction_failures += !committed as u64;
        committed
    }

    /// Commit `map` as a full snapshot unconditionally, exactly like a
    /// compaction but without its gate.  Used when a rebuilding replica
    /// installs a shipped snapshot: one snapshot write instead of
    /// re-appending the whole keyspace record by record.
    pub fn install_snapshot(
        &mut self,
        map: &HashMap<StoreKey, Versioned>,
        live: u64,
    ) -> Result<(), StoreError> {
        self.usable()?;
        self.commit_snapshot(map, live)
    }

    /// Current committed log length in bytes.
    pub fn log_len(&self) -> u64 {
        self.end
    }

    /// Length of the snapshot on disk in bytes.
    pub fn snapshot_len(&self) -> u64 {
        self.snapshot_len
    }

    /// Counters since this open.
    pub fn stats(&self) -> &WalStats {
        &self.stats
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("end", &self.end)
            .field("snapshot_len", &self.snapshot_len)
            .field("broken", &self.broken)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(version: u64, data: &[u8]) -> Versioned {
        Versioned {
            data: data.to_vec(),
            version,
            writer: "w1".into(),
            deleted: false,
        }
    }

    fn key(k: &str) -> StoreKey {
        ("ns".to_string(), k.to_string())
    }

    fn append(wal: &mut Wal, key: &StoreKey, value: &Versioned) -> Result<(), StoreError> {
        wal.append_batch(&[(key.clone(), value.clone())])
    }

    #[test]
    fn record_roundtrips() {
        let value = Versioned {
            data: b"payload \xff\x00 bytes".to_vec(),
            version: 42,
            writer: "rsa:abc".into(),
            deleted: true,
        };
        let framed = frame_record(&key("k"), &value);
        let replay = replay_bytes(&framed).unwrap();
        assert_eq!(replay.entries, vec![(key("k"), value)]);
        assert_eq!(replay.good_len, framed.len() as u64);
        assert_eq!(replay.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_replays_strict_prefix() {
        let mut bytes = Vec::new();
        for i in 0..5u64 {
            bytes.extend_from_slice(&frame_record(&key(&format!("k{i}")), &v(i + 1, b"x")));
        }
        let full = replay_bytes(&bytes).unwrap();
        assert_eq!(full.entries.len(), 5);
        for cut in 0..bytes.len() {
            let replay = replay_bytes(&bytes[..cut]).unwrap();
            assert!(replay.entries.len() <= 5);
            assert_eq!(
                replay.entries.as_slice(),
                &full.entries[..replay.entries.len()],
                "cut at {cut} replayed a non-prefix"
            );
        }
    }

    #[test]
    fn mid_log_bit_flip_is_refused_not_skipped() {
        let mut bytes = Vec::new();
        for i in 0..3u64 {
            bytes.extend_from_slice(&frame_record(&key(&format!("k{i}")), &v(i + 1, b"data")));
        }
        // Flip a payload bit of the *first* record: replay must refuse,
        // not resynchronize past it.
        bytes[RECORD_HEADER + 2] ^= 0x10;
        match replay_bytes(&bytes) {
            Err(StoreError::Corrupt { offset, .. }) => assert_eq!(offset, 0),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn absurd_length_prefix_is_corrupt() {
        let mut bytes = frame_record(&key("k"), &v(1, b"x"));
        bytes[3] = 0xff; // len high byte → > MAX_RECORD
        assert!(matches!(
            replay_bytes(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn open_append_reopen_recovers_everything() {
        let storage = MemStorage::new();
        let handle = StorageHandle::Memory(storage);
        let (mut wal, map, report) = Wal::open(&handle, WalConfig::default()).unwrap();
        assert!(map.is_empty());
        assert_eq!(report, RecoveryReport::default());
        for i in 0..10u64 {
            append(&mut wal, &key(&format!("k{i}")), &v(i + 1, b"val")).unwrap();
        }
        let (_, map, report) = Wal::open(&handle, WalConfig::default()).unwrap();
        assert_eq!(map.len(), 10);
        assert_eq!(report.replayed_records, 10);
        assert!(!report.reset);
    }

    #[test]
    fn compaction_snapshots_and_truncates_then_recovers() {
        let storage = MemStorage::new();
        let handle = StorageHandle::Memory(storage.clone());
        let config = WalConfig {
            compact_threshold: 256,
        };
        let (mut wal, _, _) = Wal::open(&handle, config.clone()).unwrap();
        let mut map = HashMap::new();
        let mut compactions = 0;
        for i in 0..100u64 {
            let (k, value) = (key(&format!("k{}", i % 7)), v(i + 1, b"payload-bytes"));
            append(&mut wal, &k, &value).unwrap();
            map.insert(k, value);
            let live = map.iter().map(|(k, v)| record_len(k, v)).sum();
            if wal.maybe_compact(&map, live) {
                compactions += 1;
            }
        }
        assert!(compactions >= 2, "threshold never hit: {compactions}");
        assert!(wal.log_len() < 256 + 64);
        // Recovery sees snapshot + small tail, with full state intact.
        let (_, recovered, report) = Wal::open(&handle, config).unwrap();
        assert_eq!(recovered, map);
        assert!(report.snapshot_records > 0);
    }

    #[test]
    fn fencing_cuts_off_superseded_instances() {
        let storage = MemStorage::new();
        let handle = StorageHandle::Memory(storage);
        let (mut old, _, _) = Wal::open(&handle, WalConfig::default()).unwrap();
        append(&mut old, &key("a"), &v(1, b"x")).unwrap();
        let (mut new, map, _) = Wal::open(&handle, WalConfig::default()).unwrap();
        assert_eq!(map.len(), 1);
        assert!(matches!(
            append(&mut old, &key("b"), &v(2, b"y")),
            Err(StoreError::Io(_))
        ));
        append(&mut new, &key("c"), &v(3, b"z")).unwrap();
        let (_, map, _) = Wal::open(&handle, WalConfig::default()).unwrap();
        assert_eq!(map.len(), 2, "fenced append must not land");
    }

    #[test]
    fn torn_write_fault_is_repaired_and_later_appends_survive() {
        use ace_net::fault::{StorageFault, StorageFaultHub};
        let hub = StorageFaultHub::new();
        let host = HostId::from("s1");
        let storage = MemStorage::new().with_faults(hub.clone(), host.clone());
        let handle = StorageHandle::Memory(storage.clone());
        let (mut wal, _, _) = Wal::open(&handle, WalConfig::default()).unwrap();
        append(&mut wal, &key("a"), &v(1, b"first")).unwrap();
        hub.arm(&host, StorageFault::TornWrite(5));
        assert!(append(&mut wal, &key("b"), &v(2, b"torn")).is_err());
        // The torn bytes were cut; the next append starts on a record
        // boundary and the log replays cleanly.
        append(&mut wal, &key("c"), &v(3, b"after")).unwrap();
        let (_, map, report) = Wal::open(&handle, WalConfig::default()).unwrap();
        assert_eq!(map.len(), 2);
        assert!(map.contains_key(&key("a")) && map.contains_key(&key("c")));
        assert_eq!(report.torn_bytes, 0, "repair already removed the tear");
    }

    #[test]
    fn append_batch_commits_with_one_fsync() {
        let storage = MemStorage::new();
        let handle = StorageHandle::Memory(storage);
        let (mut wal, _, _) = Wal::open(&handle, WalConfig::default()).unwrap();
        let entries: Vec<(StoreKey, Versioned)> = (0..8u64)
            .map(|i| (key(&format!("k{i}")), v(i + 1, b"batched")))
            .collect();
        wal.append_batch(&entries).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.appends, 8);
        assert_eq!(stats.batches, 1, "one backend append for the run");
        assert_eq!(stats.fsyncs, 1, "one fsync for the run");
        let (_, map, report) = Wal::open(&handle, WalConfig::default()).unwrap();
        assert_eq!(map.len(), 8);
        assert_eq!(report.replayed_records, 8);
    }

    #[test]
    fn crash_mid_batch_fails_the_whole_batch_and_loses_nothing_acked() {
        use ace_net::fault::{StorageFault, StorageFaultHub};
        let hub = StorageFaultHub::new();
        let host = HostId::from("s1");
        let storage = MemStorage::new().with_faults(hub.clone(), host.clone());
        let handle = StorageHandle::Memory(storage.clone());
        let (mut wal, _, _) = Wal::open(&handle, WalConfig::default()).unwrap();
        append(&mut wal, &key("acked"), &v(1, b"before")).unwrap();
        // Tear the batch stream partway through the second record.
        let one = frame_record(&key("b0"), &v(2, b"batch")).len() as u64;
        hub.arm(&host, StorageFault::CrashAtByte(one + 3));
        let entries: Vec<(StoreKey, Versioned)> = (0..4u64)
            .map(|i| (key(&format!("b{i}")), v(i + 2, b"batch")))
            .collect();
        assert!(
            wal.append_batch(&entries).is_err(),
            "no record of a torn batch may ack"
        );
        // Recovery keeps the acked record plus at most a clean prefix of
        // the unacked batch — never a torn or corrupt record.
        let (_, map, report) = Wal::open(&handle, WalConfig::default()).unwrap();
        assert!(map.contains_key(&key("acked")));
        assert!(map.len() <= 2, "at most the first unacked record replays");
        assert!(!map.contains_key(&key("b1")));
        assert!(!report.reset);
    }
}
