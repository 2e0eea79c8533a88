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
//!   a configured cap ([`WalConfig::compact_threshold`]; the default has
//!   none), so a disk holds at most about twice the state it logs, and a
//!   load of fresh keys is never rewritten.  A commit
//!   atomically replaces the snapshot, then empties the log.  A crash
//!   before the replace leaves the old snapshot and the whole log; a crash
//!   after it leaves the new snapshot and the whole log, whose replay over
//!   it changes nothing (invariant 3); a crash after the log reset leaves
//!   the new snapshot alone.  So one snapshot is enough: recovery never
//!   needs an older one.
//!
//! The disk is where a value lives.  Its replica keeps in memory only a
//! key directory: per key, a [`Slot`] with the record's `(version, writer,
//! deleted)` and its [`Loc`] — which segment, at which offset, how long.
//! [`Wal::open`] rebuilds the directory by scanning both segments a record
//! at a time, keeping no value; [`Wal::append_batch`] says where each
//! record landed; [`Wal::read`] reads one back and checks it.  A snapshot
//! is written from records already framed on a disk ([`encode_snapshot`]):
//! compaction copies the live records, in key order, and no record is
//! encoded twice.
//!
//! Both segments, every append and every snapshot are held in [`Pages`] of
//! [`PAGE`] bytes: no write allocates, grows or frees a buffer larger than
//! a page, so a compaction's multi-megabyte snapshot never becomes a freed
//! buffer the allocator keeps for the next one.  Every page is taken from,
//! and given back to, one free list for the whole process, so a page freed
//! on any thread is the next page filled on any other.  No read allocates
//! more than a page either: a read is one record, and a scan reads a page
//! at a time and parses the records inside it.
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
//!    anti-entropy).  A live record damaged after it was written is found
//!    when it is read, and is refused, never served.
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
use ace_security::hash::{crc32, crc32_update};
use parking_lot::Mutex;
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
// Pages
// ---------------------------------------------------------------------------

/// The size of one page of [`Pages`].  A constant, not an option: it is
/// the largest buffer a store write allocates, grows or frees.
pub const PAGE: usize = 64 << 10;

/// The process's free pages, and how many pages [`Pages`] hold.  A page
/// is taken from here and given back here, whichever thread fills or
/// frees it.  The allocator would keep a freed page in the arena of the
/// thread that freed it, out of reach of an allocation made on another
/// thread, so each arena would hold its own peak of pages; the list holds
/// at most the process's peak of pages in use.
static PAGE_LIST: Mutex<PageList> = Mutex::new(PageList {
    free: Vec::new(),
    held: 0,
});

struct PageList {
    free: Vec<Vec<u8>>,
    held: usize,
}

/// An empty page: the one last given back, or a new one when none is.
fn take_page() -> Vec<u8> {
    let page = {
        let mut list = PAGE_LIST.lock();
        list.held += 1;
        list.free.pop()
    };
    page.unwrap_or_else(|| Vec::with_capacity(PAGE))
}

/// Give `pages` back to the list, emptied.
fn give_pages(pages: impl Iterator<Item = Vec<u8>>) {
    let mut list = PAGE_LIST.lock();
    for mut page in pages {
        page.clear();
        list.held -= 1;
        list.free.push(page);
    }
}

/// The process's page bytes: `held` in [`Pages`], `free` on the list for
/// the next fill.  Pulled into every store replica's `aceStats` as
/// `mem.pages.held` and `mem.pages.free`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageBytes {
    pub held: u64,
    pub free: u64,
}

/// The process's page bytes now.
pub fn page_bytes() -> PageBytes {
    let list = PAGE_LIST.lock();
    PageBytes {
        held: (list.held * PAGE) as u64,
        free: (list.free.len() * PAGE) as u64,
    }
}

/// Bytes held in fixed pages of [`PAGE`] bytes: a disk segment, a log
/// append, a snapshot and the cut a rebuild streams.  Every page but the
/// last is full, and no page is ever larger than [`PAGE`]: a byte string
/// of any length grows and shrinks a page at a time, so the allocator
/// never holds a freed multi-megabyte buffer for the next one.  Pages come
/// from the process's free list and go back to it.
#[derive(Debug, Default)]
pub struct Pages {
    pages: Vec<Vec<u8>>,
    len: usize,
}

impl Pages {
    pub fn new() -> Pages {
        Pages::default()
    }

    /// Bytes held.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append `bytes`, filling the last page before starting the next.
    pub fn extend(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let page = match self.pages.last_mut() {
                Some(page) if page.len() < PAGE => page,
                _ => {
                    self.pages.push(take_page());
                    self.pages.last_mut().expect("just pushed")
                }
            };
            let n = (PAGE - page.len()).min(bytes.len());
            page.extend_from_slice(&bytes[..n]);
            self.len += n;
            bytes = &bytes[n..];
        }
    }

    /// Append the first `limit` bytes of `other`.
    pub fn extend_from(&mut self, other: &Pages, limit: usize) {
        let mut left = limit;
        for page in other.pages() {
            let n = left.min(page.len());
            self.extend(&page[..n]);
            left -= n;
        }
    }

    /// Cut down to `len` bytes; pages past it go back to the list.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        let kept = len.div_ceil(PAGE);
        give_pages(self.pages.drain(kept..));
        if let Some(last) = self.pages.last_mut() {
            last.truncate(len - (kept - 1) * PAGE);
        }
        self.len = len;
    }

    /// Empty: every page goes back to the list, whose next fill takes one
    /// back, so a buffer reused for small writes allocates nothing after
    /// warm-up.
    pub fn clear(&mut self) {
        give_pages(self.pages.drain(..));
        self.len = 0;
    }

    /// The pages in order, as byte slices.
    pub fn pages(&self) -> impl Iterator<Item = &[u8]> {
        self.pages.iter().map(Vec::as_slice)
    }

    /// A copy of `start..end` in one buffer, cut short where the pages
    /// end.
    pub fn read(&self, start: usize, end: usize) -> Vec<u8> {
        let end = end.min(self.len);
        let start = start.min(end);
        let mut out = Vec::with_capacity(end - start);
        let mut at = start;
        while at < end {
            let page = &self.pages[at / PAGE];
            let from = at % PAGE;
            let n = (page.len() - from).min(end - at);
            out.extend_from_slice(&page[from..from + n]);
            at += n;
        }
        out
    }

    /// Every byte in one buffer (tests and diagnostics).
    pub fn to_vec(&self) -> Vec<u8> {
        self.read(0, self.len)
    }

    /// Flip bit `bit` (mod the bits held) — latent media damage.
    fn flip_bit(&mut self, bit: u64) {
        if self.len > 0 {
            let bit = (bit as usize) % (self.len * 8);
            self.pages[bit / 8 / PAGE][(bit / 8) % PAGE] ^= 1 << (bit % 8);
        }
    }
}

impl Drop for Pages {
    fn drop(&mut self) {
        give_pages(self.pages.drain(..));
    }
}

impl From<&[u8]> for Pages {
    fn from(bytes: &[u8]) -> Pages {
        let mut pages = Pages::new();
        pages.extend(bytes);
        pages
    }
}

// ---------------------------------------------------------------------------
// Storage backends
// ---------------------------------------------------------------------------

/// One logical file of replica storage.  `append` is the only operation a
/// fault may tear: everything else either fully happens or fully errors,
/// matching the single-sector atomicity real filesystems give renames and
/// truncates.  Writes take [`Pages`], so no write needs its bytes in one
/// buffer, and a read is of one record or one page, so no read does
/// either.
pub trait StorageBackend: Send {
    /// Up to `len` bytes from `offset`: fewer only where the contents end.
    /// How a value is read, and how recovery scans a segment, a page at a
    /// time.  A read is not fenced: only writes are.
    fn read_at(&mut self, offset: u64, len: usize) -> Result<Vec<u8>, StoreError>;
    /// Append bytes at the end.  Under an armed fault this may persist only
    /// a prefix and return `Err` — the caller must treat `Err` as
    /// "not durable".
    fn append(&mut self, pages: &Pages) -> Result<(), StoreError>;
    /// Flush appended bytes to stable storage.
    fn sync(&mut self) -> Result<(), StoreError>;
    /// Atomically and durably replace the full contents (snapshot commit,
    /// log reset).  Takes the pages by value, so a backend that keeps them
    /// in memory keeps them without a copy, and one that writes them to a
    /// file writes them page by page.
    fn replace(&mut self, pages: Pages) -> Result<(), StoreError>;
    /// Cut the contents down to `len` bytes (torn-tail repair).
    fn truncate(&mut self, len: u64) -> Result<(), StoreError>;
}

const SEG_LOG: usize = 0;
const SEG_SNAP: usize = 1;

#[derive(Debug, Default)]
struct MemInner {
    segments: Mutex<[Pages; 2]>,
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
        self.inner.segments.lock()[SEG_LOG].to_vec()
    }

    /// Raw bytes of the snapshot segment (tests and diagnostics).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.inner.segments.lock()[SEG_SNAP].to_vec()
    }

    /// Byte length of the snapshot (tests and diagnostics).
    pub fn snapshot_len(&self) -> usize {
        self.inner.segments.lock()[SEG_SNAP].len()
    }

    /// Overwrite the log segment wholesale — how tests model latent media
    /// damage that happened while the replica was down.
    pub fn set_log_bytes(&self, bytes: Vec<u8>) {
        self.inner.segments.lock()[SEG_LOG] = Pages::from(&bytes[..]);
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
    fn read_at(&mut self, offset: u64, len: usize) -> Result<Vec<u8>, StoreError> {
        let start = usize::try_from(offset).unwrap_or(usize::MAX);
        let segment = &self.storage.inner.segments.lock()[self.seg];
        Ok(segment.read(start, start.saturating_add(len)))
    }

    fn append(&mut self, pages: &Pages) -> Result<(), StoreError> {
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
        let seg = &mut segments[self.seg];
        match fault {
            Some(StorageFault::CrashAtByte(n)) => {
                let keep = (n as usize).min(pages.len());
                seg.extend_from(pages, keep);
                self.storage.crash_after_writes(0);
                Err(StoreError::Io(format!(
                    "simulated crash after {keep} of {} append bytes",
                    pages.len()
                )))
            }
            Some(StorageFault::TornWrite(n)) => {
                let keep = (n as usize).min(pages.len().saturating_sub(1));
                seg.extend_from(pages, keep);
                Err(StoreError::Io(format!(
                    "simulated torn write: {keep} of {} append bytes",
                    pages.len()
                )))
            }
            Some(StorageFault::BitFlip(bit)) => {
                // Latent damage to what is already on disk; the append
                // itself succeeds.
                seg.flip_bit(bit);
                seg.extend_from(pages, pages.len());
                Ok(())
            }
            None => {
                seg.extend_from(pages, pages.len());
                Ok(())
            }
        }
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.check()
    }

    fn replace(&mut self, pages: Pages) -> Result<(), StoreError> {
        self.check()?;
        self.storage.write_lands()?;
        self.storage.inner.segments.lock()[self.seg] = pages;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        self.check()?;
        self.storage.write_lands()?;
        self.storage.inner.segments.lock()[self.seg].truncate(len as usize);
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

    /// The file, opened to append and to read at a position.
    fn open_append(&mut self) -> Result<&mut std::fs::File, StoreError> {
        if self.file.is_none() {
            // Sync the directory on every open, not only on a create that
            // this call saw: a create whose sync failed is made durable by
            // the retry.  Reopens follow only a replace or a truncate.
            let f = std::fs::OpenOptions::new()
                .create(true)
                .read(true)
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
    fn read_at(&mut self, offset: u64, len: usize) -> Result<Vec<u8>, StoreError> {
        use std::os::unix::fs::FileExt;
        let file = self.open_append()?;
        // A length read from a damaged header is bounded by the file.
        let size = file.metadata().map_err(Self::io)?.len();
        let len = len.min(usize::try_from(size.saturating_sub(offset)).unwrap_or(usize::MAX));
        let mut out = vec![0; len];
        let mut filled = 0;
        while filled < len {
            match file.read_at(&mut out[filled..], offset + filled as u64) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(Self::io(e)),
            }
        }
        out.truncate(filled);
        Ok(out)
    }

    fn append(&mut self, pages: &Pages) -> Result<(), StoreError> {
        let file = self.open_append()?;
        for page in pages.pages() {
            file.write_all(page).map_err(Self::io)?;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        if let Some(f) = self.file.as_mut() {
            f.sync_data().map_err(Self::io)?;
        }
        Ok(())
    }

    fn replace(&mut self, pages: Pages) -> Result<(), StoreError> {
        self.file = None; // reopen after the rename
        let tmp = self.path.with_extension("tmp");
        let mut f = std::fs::File::create(&tmp).map_err(Self::io)?;
        for page in pages.pages() {
            f.write_all(page).map_err(Self::io)?;
        }
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

fn put_str(put: &mut impl FnMut(&[u8]), s: &str) {
    put(&(s.len() as u16).to_le_bytes());
    put(s.as_bytes());
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

/// Encode one write's record payload (no framing), piece by piece, into
/// `put`.
fn encode_payload(key: &StoreKey, value: &Versioned, put: &mut impl FnMut(&[u8])) {
    put_str(put, &key.0);
    put_str(put, &key.1);
    put(&value.version.to_le_bytes());
    put_str(put, &value.writer);
    put(&[value.deleted as u8]);
    put(&(value.data.len() as u32).to_le_bytes());
    put(&value.data);
}

/// Frame one write into `put` — `len | crc32(payload) | payload` — with
/// no buffer of its own: the length is [`record_len`]'s, and the CRC is
/// taken over the payload's pieces before they are written.
fn put_record(key: &StoreKey, value: &Versioned, put: &mut impl FnMut(&[u8])) {
    let len = record_len(key, value) as usize - RECORD_HEADER;
    let mut crc = 0;
    encode_payload(key, value, &mut |piece| crc = crc32_update(crc, piece));
    put(&(len as u32).to_le_bytes());
    put(&crc.to_le_bytes());
    encode_payload(key, value, put);
}

/// What a payload says: its key, version, writer and tombstone flag, and
/// its value as a slice of the payload.
type Parts<'p> = (StoreKey, u64, String, bool, &'p [u8]);

/// The one payload decoder: strict, with no trailing byte allowed.
fn decode_parts(payload: &[u8]) -> Result<Parts<'_>, String> {
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
    let data = c.take(data_len)?;
    if c.at != payload.len() {
        return Err(format!("{} trailing payload bytes", payload.len() - c.at));
    }
    Ok(((ns, key), version, writer, deleted, data))
}

fn decode_payload(payload: &[u8]) -> Result<(StoreKey, Versioned), String> {
    let (key, version, writer, deleted, data) = decode_parts(payload)?;
    let value = Versioned {
        data: data.to_vec(),
        version,
        writer,
        deleted,
    };
    Ok((key, value))
}

/// The payload of a framed record, once its length and CRC check out.
fn check_framed(framed: &[u8]) -> Result<&[u8], String> {
    let Some((header, payload)) = framed.split_at_checked(RECORD_HEADER) else {
        return Err("record shorter than its header".into());
    };
    let len = u32::from_le_bytes(header[..4].try_into().expect("four bytes"));
    let crc = u32::from_le_bytes(header[4..].try_into().expect("four bytes"));
    if len as usize != payload.len() {
        return Err(format!(
            "record length {len}, {} bytes there",
            payload.len()
        ));
    }
    if crc32(payload) != crc {
        return Err("record CRC mismatch".into());
    }
    Ok(payload)
}

/// Frame one write as a full log record: `len | crc32(payload) | payload`.
pub fn frame_record(key: &StoreKey, value: &Versioned) -> Vec<u8> {
    let mut out = Vec::with_capacity(record_len(key, value) as usize);
    put_record(key, value, &mut |piece| out.extend_from_slice(piece));
    out
}

// ---------------------------------------------------------------------------
// Where a record lies
// ---------------------------------------------------------------------------

/// Which of a disk's two segments a record lies in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    Log,
    Snapshot,
}

/// Where one framed record lies: its segment, the offset of its header
/// there and its framed length, header included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loc {
    pub segment: Segment,
    pub offset: u64,
    pub len: u32,
}

/// What a replica's key directory keeps of one key: its record's
/// `(version, writer, deleted)` and where the record lies — everything but
/// the value, which stays on the disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot {
    pub version: u64,
    pub writer: Box<str>,
    pub deleted: bool,
    pub at: Loc,
}

impl Slot {
    /// Whether a write named `(version, writer)` beats this one: the
    /// order of [`Versioned::beats`].
    pub fn beaten_by(&self, version: u64, writer: &str) -> bool {
        (version, writer) > (self.version, &*self.writer)
    }
}

/// The directory row of the record framed at `offset` of `segment`.
fn row(segment: Segment, offset: u64, payload: &[u8]) -> Result<(StoreKey, Slot), String> {
    let (key, version, writer, deleted, _) = decode_parts(payload)?;
    let len = (RECORD_HEADER + payload.len()) as u32;
    let at = Loc {
        segment,
        offset,
        len,
    };
    let slot = Slot {
        version,
        writer: writer.into_boxed_str(),
        deleted,
        at,
    };
    Ok((key, slot))
}

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

/// How a scan reads its bytes: up to `len` at `offset`, fewer only where
/// the bytes end — a segment through [`StorageBackend::read_at`], or
/// [`Pages`] a rebuild gathered.
type ReadAt<'r> = dyn FnMut(u64, usize) -> Result<Vec<u8>, StoreError> + 'r;

/// What a scan holds of its bytes: one window of a page, or of a record
/// larger than a page, read at a time.  The records inside a window are
/// parsed where they lie; only a record that crosses the window's end is
/// read again, from its own start.
struct Window<'a, 'r> {
    read: &'a mut ReadAt<'r>,
    start: u64,
    bytes: Vec<u8>,
}

impl<'a, 'r> Window<'a, 'r> {
    fn new(read: &'a mut ReadAt<'r>) -> Self {
        Window {
            read,
            start: 0,
            bytes: Vec::new(),
        }
    }

    /// Up to `len` bytes at `at`, fewer only where the bytes end: from the
    /// window when they lie inside it, else from a window read at `at`.
    fn get(&mut self, at: u64, len: usize) -> Result<&[u8], StoreError> {
        let inside = at >= self.start
            && at.saturating_add(len as u64) <= self.start + self.bytes.len() as u64;
        if !inside {
            self.bytes = (self.read)(at, len.max(PAGE))?;
            self.start = at;
        }
        let from = (at - self.start) as usize;
        Ok(&self.bytes[from..(from + len).min(self.bytes.len())])
    }
}

/// What a scan found at its position.
enum Next<'w> {
    /// A whole record whose CRC checks out.
    Record {
        header: [u8; RECORD_HEADER],
        payload: &'w [u8],
    },
    /// The bytes end here, `torn` of them into a record.
    End { torn: u64 },
}

fn corrupt(offset: u64, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        offset,
        detail: detail.into(),
    }
}

/// The record framed at `at`: its header, then its payload, each from the
/// window.  A record cut short by the end of the bytes is a torn tail; a
/// length over [`MAX_RECORD`] or a CRC mismatch is corruption.
fn next_record<'w>(window: &'w mut Window, at: u64) -> Result<Next<'w>, StoreError> {
    let head = window.get(at, RECORD_HEADER)?;
    let Ok(header) = <[u8; RECORD_HEADER]>::try_from(head) else {
        let torn = head.len() as u64;
        return Ok(Next::End { torn });
    };
    let len = u32::from_le_bytes(header[..4].try_into().expect("four bytes"));
    if len > MAX_RECORD {
        return Err(corrupt(
            at,
            format!("record length {len} exceeds {MAX_RECORD}"),
        ));
    }
    let payload = window.get(at + RECORD_HEADER as u64, len as usize)?;
    if payload.len() < len as usize {
        let torn = (RECORD_HEADER + payload.len()) as u64;
        return Ok(Next::End { torn });
    }
    let crc = u32::from_le_bytes(header[4..].try_into().expect("four bytes"));
    if crc32(payload) != crc {
        return Err(corrupt(at, "record CRC mismatch"));
    }
    Ok(Next::Record { header, payload })
}

/// Scan a log: hand each whole record's offset and payload to `visit`, in
/// order, up to a torn tail.  Returns the length of the whole records and
/// the torn bytes past them.
fn scan_log(
    read: &mut ReadAt,
    mut visit: impl FnMut(u64, &[u8]) -> Result<(), String>,
) -> Result<(u64, u64), StoreError> {
    let mut window = Window::new(read);
    let mut at = 0;
    loop {
        match next_record(&mut window, at)? {
            Next::End { torn } => return Ok((at, torn)),
            Next::Record { payload, .. } => {
                visit(at, payload).map_err(|detail| corrupt(at, detail))?;
                at += (RECORD_HEADER + payload.len()) as u64;
            }
        }
    }
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

/// Replay a log byte stream: the scan recovery makes, with each record's
/// value decoded.
///
/// * An incomplete record at the end of the stream is a **torn tail** —
///   the crash model's signature — and is discarded; everything before it
///   replays.
/// * A complete record whose CRC mismatches, whose length prefix is
///   absurd, or whose payload does not decode is **corruption**: the
///   replay refuses with [`StoreError::Corrupt`] rather than guessing.
pub fn replay_bytes(bytes: &[u8]) -> Result<Replay, StoreError> {
    let mut entries = Vec::new();
    let mut read = |at: u64, len: usize| {
        let start = (at as usize).min(bytes.len());
        Ok(bytes[start..start.saturating_add(len).min(bytes.len())].to_vec())
    };
    let (good_len, torn_bytes) = scan_log(&mut read, |_, payload| {
        entries.push(decode_payload(payload)?);
        Ok(())
    })?;
    Ok(Replay {
        entries,
        good_len,
        torn_bytes,
    })
}

// ---------------------------------------------------------------------------
// Snapshot codec
// ---------------------------------------------------------------------------

const SNAP_MAGIC: &[u8; 8] = b"ACSNAP01";

/// A snapshot's header: magic, a reserved word and the record count.
pub(crate) const SNAP_HEAD: usize = SNAP_MAGIC.len() + 8 + 4;

/// A snapshot body into [`Pages`]: the header for `count` records, each
/// framed record `records` yields, copied in order, and the body's CRC,
/// taken as the pages fill.  Compaction, a shipped-snapshot install and a
/// rebuild's cut all write one from records already framed on a disk, in
/// key order, so identical states give identical snapshots.  The 8 header
/// bytes after the magic are a reserved word, always 0, that the scan
/// skips: shipped snapshots keep their layout.
pub(crate) fn encode_snapshot(
    count: usize,
    records: impl Iterator<Item = impl AsRef<[u8]>>,
) -> Pages {
    let (mut body, mut crc) = (Pages::new(), 0);
    let mut put = |bytes: &[u8]| {
        crc = crc32_update(crc, bytes);
        body.extend(bytes);
    };
    put(SNAP_MAGIC);
    put(&0u64.to_le_bytes());
    put(&(count as u32).to_le_bytes());
    for record in records {
        put(record.as_ref());
    }
    body.extend(&crc.to_le_bytes());
    body
}

/// Scan a snapshot body a page at a time: hand each record's offset and
/// payload to `visit`, and check the body's CRC as the records go by.
/// `None` for an empty snapshot, else the body's length; `Corrupt` for
/// bytes that do not validate.
pub(crate) fn scan_snapshot(
    read: &mut ReadAt,
    mut visit: impl FnMut(u64, &[u8]) -> Result<(), String>,
) -> Result<Option<u64>, StoreError> {
    let bad = |at: u64, detail: &str| corrupt(at, format!("snapshot: {detail}"));
    let mut window = Window::new(read);
    let head = window.get(0, SNAP_HEAD)?;
    if head.is_empty() {
        return Ok(None);
    }
    if head.len() < SNAP_HEAD {
        return Err(bad(0, "shorter than its header"));
    }
    if head[..SNAP_MAGIC.len()] != SNAP_MAGIC[..] {
        return Err(bad(0, "bad magic"));
    }
    let count = u32::from_le_bytes(head[SNAP_HEAD - 4..].try_into().expect("four bytes"));
    let mut crc = crc32_update(0, head);
    let mut at = SNAP_HEAD as u64;
    for _ in 0..count {
        let Next::Record { header, payload } = next_record(&mut window, at)? else {
            return Err(bad(at, "truncated"));
        };
        crc = crc32_update(crc32_update(crc, &header), payload);
        visit(at, payload).map_err(|detail| bad(at, &detail))?;
        at += (RECORD_HEADER + payload.len()) as u64;
    }
    // The body's CRC, and nothing after it.
    let tail = window.get(at, 5)?;
    match tail.len() {
        4 if u32::from_le_bytes(tail.try_into().expect("four bytes")) == crc => Ok(Some(at + 4)),
        4 => Err(bad(at, "CRC mismatch")),
        0..4 => Err(bad(at, "truncated")),
        _ => Err(bad(at, "trailing bytes")),
    }
}

/// Scan a shipped snapshot: each record's directory row, its [`Loc`] an
/// offset into `shipped`.  Nothing is decoded but the rows.
pub(crate) fn shipped_rows(shipped: &Pages) -> Result<Vec<(StoreKey, Slot)>, StoreError> {
    let mut rows = Vec::new();
    let mut read = |at: u64, len: usize| {
        let start = at as usize;
        Ok(shipped.read(start, start.saturating_add(len)))
    };
    scan_snapshot(&mut read, |at, payload| {
        rows.push(row(Segment::Snapshot, at, payload)?);
        Ok(())
    })?;
    Ok(rows)
}

// ---------------------------------------------------------------------------
// The WAL proper
// ---------------------------------------------------------------------------

/// No log shorter than this is compacted, however little the state it
/// logs: a snapshot of a small state is not worth its rewrite.
pub const COMPACT_FLOOR: u64 = 256 << 10;

/// Compaction policy.  Every append is synced before it is acknowledged.
///
/// The one rule ([`Wal::needs_compaction`]): snapshot + truncate once the
/// log exceeds `min(cap, max(COMPACT_FLOOR, 2·live − snapshot))`, where
/// `live` is what the state's records take in a snapshot.  That is as soon
/// as compacting would at least halve the disk (snapshot + log), so the
/// disk stays within about twice the state.  During a load of fresh keys
/// the log *is* the state and never reaches twice it, so a load does not
/// compact.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// The cap: a log longer than this many bytes is always compacted.
    /// The default is no cap (`u64::MAX`), so a default store compacts by
    /// the halving rule alone; a cap bounds the log of a store whose state
    /// it would otherwise let grow (acebench's shards use 4 MiB).
    pub compact_threshold: u64,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            compact_threshold: u64::MAX,
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
    /// Snapshot bytes written by compactions and installs: the rewrite
    /// volume, against `append_bytes`.
    pub compacted_bytes: u64,
    /// Live records that failed their check when read: refused, never
    /// served, and dropped from the key directory.
    pub damaged: u64,
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
/// image's one lock, beside the key directory that says where each live
/// record lies, so a write is checked, logged, published and compacted in
/// one hold, and nothing here locks or waits.  Each [`Wal::append_batch`]
/// is one backend append plus one fsync, and returns only after both: no
/// write is acknowledged before its bytes are synced.
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
    /// fault injection).  In pages, so a large batch takes pages, and each
    /// call gives them back to the list for the next.
    scratch: Pages,
}

impl Wal {
    /// Open (or create) the WAL behind `handle`: scan the snapshot, then
    /// the log, a page at a time, handing every record's directory row to
    /// `visit` in that order — what the key directory is rebuilt from,
    /// newest-wins — with no value kept.  Refuses with
    /// [`StoreError::Corrupt`] when a non-empty snapshot or a mid-log
    /// record fails validation; rows already visited are then void.
    pub fn open(
        handle: &StorageHandle,
        config: WalConfig,
        mut visit: impl FnMut(StoreKey, Slot),
    ) -> Result<(Wal, RecoveryReport), StoreError> {
        let [mut log, mut snapshot] = handle.open_backends()?;
        let mut report = RecoveryReport::default();
        let mut visit = |segment, at, payload: &[u8]| {
            let (key, slot) = row(segment, at, payload)?;
            visit(key, slot);
            Ok(())
        };

        // A snapshot that fails validation is corruption: `replace` is
        // atomic, so there is no benign way to observe a half-written one.
        let mut read = |at, len| snapshot.read_at(at, len);
        let snapshot_len = scan_snapshot(&mut read, |at, payload| {
            report.snapshot_records += 1;
            visit(Segment::Snapshot, at, payload)
        })?
        .unwrap_or(0);

        // The log after it, truncating a torn tail.
        let mut read = |at, len| log.read_at(at, len);
        let (good_len, torn_bytes) = scan_log(&mut read, |at, payload| {
            report.replayed_records += 1;
            visit(Segment::Log, at, payload)
        })?;
        report.torn_bytes = torn_bytes;
        if torn_bytes > 0 {
            log.truncate(good_len)?;
        }

        Ok((
            Wal {
                config,
                log,
                snapshot,
                end: good_len,
                snapshot_len,
                broken: false,
                stats: WalStats::default(),
                scratch: Pages::new(),
            },
            report,
        ))
    }

    /// Wipe every segment of `handle` — the deliberate response to
    /// detected corruption (anti-entropy then rebuilds from peers).
    pub fn reset(handle: &StorageHandle) -> Result<(), StoreError> {
        let backends = handle.open_backends()?;
        for mut backend in backends {
            backend.replace(Pages::new())?;
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

    /// Log a run of writes durably, and say where each record landed.
    /// Returns only after the records are appended and synced — the caller
    /// must not acknowledge any of them before this returns `Ok`, and an
    /// `Err` acknowledges none: the run is one backend append, and a tear
    /// leaves at most a clean record-aligned prefix of it for replay.  A
    /// record over [`MAX_RECORD`], which recovery would refuse, is refused
    /// here.
    pub fn append_batch(
        &mut self,
        entries: &[(StoreKey, Versioned)],
    ) -> Result<Vec<Loc>, StoreError> {
        if entries.is_empty() {
            return Ok(Vec::new());
        }
        self.usable()?;
        let mut locs = Vec::with_capacity(entries.len());
        let mut offset = self.end;
        for (key, value) in entries {
            let len = record_len(key, value);
            if len - RECORD_HEADER as u64 > MAX_RECORD as u64 {
                return Err(StoreError::Io(format!(
                    "a {len} B record exceeds {MAX_RECORD} B"
                )));
            }
            let len = len as u32;
            let segment = Segment::Log;
            locs.push(Loc {
                segment,
                offset,
                len,
            });
            offset += len as u64;
        }
        self.scratch.clear();
        let scratch = &mut self.scratch;
        for (key, value) in entries {
            put_record(key, value, &mut |piece| scratch.extend(piece));
        }
        self.commit(entries.len() as u64)?;
        Ok(locs)
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

    /// The framed record `slot` locates for `(ns, key)`, checked: its
    /// length and CRC, and that it is that key's record at the slot's
    /// `(version, writer, deleted)`.  A record that fails is damage — the
    /// bytes changed after they were written, or the slot is stale — and
    /// is counted and refused with `Corrupt`, never handed out.
    pub(crate) fn framed(
        &mut self,
        ns: &str,
        key: &str,
        slot: &Slot,
    ) -> Result<Vec<u8>, StoreError> {
        let backend = match slot.at.segment {
            Segment::Log => &mut self.log,
            Segment::Snapshot => &mut self.snapshot,
        };
        let framed = backend.read_at(slot.at.offset, slot.at.len as usize)?;
        let checked = check_framed(&framed).and_then(|payload| {
            let ((n, k), version, writer, deleted, _) = decode_parts(payload)?;
            let same = (n.as_str(), k.as_str(), version, writer.as_str(), deleted)
                == (ns, key, slot.version, &*slot.writer, slot.deleted);
            same.then_some(())
                .ok_or_else(|| "not the record its slot names".to_string())
        });
        if let Err(detail) = checked {
            self.stats.damaged += 1;
            return Err(corrupt(slot.at.offset, detail));
        }
        Ok(framed)
    }

    /// The value `slot` locates for `(ns, key)`: [`Wal::framed`], decoded.
    pub(crate) fn read(
        &mut self,
        ns: &str,
        key: &str,
        slot: &Slot,
    ) -> Result<Versioned, StoreError> {
        let framed = self.framed(ns, key, slot)?;
        decode_payload(&framed[RECORD_HEADER..])
            .map(|(_, value)| value)
            .map_err(|detail| corrupt(slot.at.offset, detail))
    }

    /// Whether the log is past `min(cap, max(COMPACT_FLOOR, 2·live −
    /// snapshot))` (see [`WalConfig`]): whether compacting would at least
    /// halve the disk.  `live` is the framed length of every live record.
    pub(crate) fn needs_compaction(&self, live: u64) -> bool {
        let halving = (2 * live).saturating_sub(self.snapshot_len);
        let limit = halving
            .max(COMPACT_FLOOR)
            .min(self.config.compact_threshold);
        !self.broken && self.end > limit
    }

    /// The one snapshot commit, in this order: `body` atomically replaces
    /// the snapshot, then the log is emptied.  Both replaces are durable
    /// when they return.  `Ok` once the first has landed: the snapshot then
    /// holds every live record, and the caller moves its key directory
    /// there.  A log that could not be emptied stays as it was — replaying
    /// it over a snapshot that already holds its records changes nothing —
    /// and the next compaction empties it.  A failed first replace changes
    /// nothing and is counted.
    pub(crate) fn commit_snapshot(&mut self, body: Pages) -> Result<(), StoreError> {
        let committed = self.usable().and_then(|()| {
            let len = body.len() as u64;
            self.snapshot.replace(body)?;
            Ok(len)
        });
        let len = committed.inspect_err(|_| self.stats.compaction_failures += 1)?;
        self.snapshot_len = len;
        self.stats.compactions += 1;
        self.stats.compacted_bytes += len;
        if self.log.replace(Pages::new()).is_ok() {
            self.end = 0;
        }
        Ok(())
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
        wal.append_batch(&[(key.clone(), value.clone())]).map(drop)
    }

    fn open(handle: &StorageHandle) -> Wal {
        Wal::open(handle, WalConfig::default(), |_, _| {})
            .unwrap()
            .0
    }

    /// The keys a reopen of `handle` recovers, sorted.
    fn recovered_keys(handle: &StorageHandle) -> (Vec<String>, RecoveryReport) {
        let mut keys = Vec::new();
        let (_, report) =
            Wal::open(handle, WalConfig::default(), |(_, k), _| keys.push(k)).unwrap();
        keys.sort();
        keys.dedup();
        (keys, report)
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

    /// A scan reads a page at a time: records that cross a page's end,
    /// and one larger than a page, replay whole and in order, and a cut
    /// on either side of a page's end replays a strict prefix.
    #[test]
    fn records_across_pages_replay_whole() {
        let mut bytes = Vec::new();
        for i in 0..40u64 {
            let data = vec![i as u8; if i == 20 { PAGE + 5000 } else { 5000 }];
            bytes.extend_from_slice(&frame_record(&key(&format!("k{i}")), &v(i + 1, &data)));
        }
        let full = replay_bytes(&bytes).unwrap();
        assert_eq!(full.entries.len(), 40);
        assert_eq!(full.good_len, bytes.len() as u64);
        for (i, (k, value)) in full.entries.iter().enumerate() {
            assert_eq!(
                (k.1.as_str(), value.version),
                (&*format!("k{i}"), i as u64 + 1)
            );
        }
        for end in [PAGE, 2 * PAGE, 3 * PAGE] {
            for cut in end - 9..end + 9 {
                let replay = replay_bytes(&bytes[..cut]).unwrap();
                assert_eq!(
                    replay.entries.as_slice(),
                    &full.entries[..replay.entries.len()],
                    "cut at {cut}"
                );
                assert_eq!(replay.good_len + replay.torn_bytes, cut as u64);
            }
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
        let (mut wal, report) = Wal::open(&handle, WalConfig::default(), |_, _| {
            panic!("a fresh disk holds no record")
        })
        .unwrap();
        assert_eq!(report, RecoveryReport::default());
        for i in 0..10u64 {
            append(&mut wal, &key(&format!("k{i}")), &v(i + 1, b"val")).unwrap();
        }
        let (keys, report) = recovered_keys(&handle);
        assert_eq!(keys.len(), 10);
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
        let (disk, _) = crate::DiskImage::open(&handle, config.clone()).unwrap();
        let mut map = std::collections::HashMap::new();
        for i in 0..100u64 {
            let (k, value) = (key(&format!("k{}", i % 7)), v(i + 1, b"payload-bytes"));
            disk.apply(k.clone(), value.clone()).unwrap();
            map.insert(k, value);
        }
        let compactions = disk.wal_stats().unwrap().compactions;
        assert!(compactions >= 2, "threshold never hit: {compactions}");
        assert!(disk.bytes().log < 256 + 64);
        // Recovery sees snapshot + small tail, with full state intact.
        let (recovered, report) = crate::DiskImage::open(&handle, config).unwrap();
        assert_eq!(recovered.len(), map.len());
        for (k, value) in &map {
            assert_eq!(recovered.get(k).as_ref(), Some(value));
        }
        assert!(report.snapshot_records > 0);
    }

    #[test]
    fn fencing_cuts_off_superseded_instances() {
        let storage = MemStorage::new();
        let handle = StorageHandle::Memory(storage);
        let mut old = open(&handle);
        append(&mut old, &key("a"), &v(1, b"x")).unwrap();
        assert_eq!(recovered_keys(&handle).0, ["a"]);
        let mut new = open(&handle);
        assert!(matches!(
            append(&mut old, &key("b"), &v(2, b"y")),
            Err(StoreError::Io(_))
        ));
        append(&mut new, &key("c"), &v(3, b"z")).unwrap();
        let (keys, _) = recovered_keys(&handle);
        assert_eq!(keys, ["a", "c"], "fenced append must not land");
    }

    #[test]
    fn torn_write_fault_is_repaired_and_later_appends_survive() {
        use ace_net::fault::{StorageFault, StorageFaultHub};
        let hub = StorageFaultHub::new();
        let host = HostId::from("s1");
        let storage = MemStorage::new().with_faults(hub.clone(), host.clone());
        let handle = StorageHandle::Memory(storage.clone());
        let mut wal = open(&handle);
        append(&mut wal, &key("a"), &v(1, b"first")).unwrap();
        hub.arm(&host, StorageFault::TornWrite(5));
        assert!(append(&mut wal, &key("b"), &v(2, b"torn")).is_err());
        // The torn bytes were cut; the next append starts on a record
        // boundary and the log replays cleanly.
        append(&mut wal, &key("c"), &v(3, b"after")).unwrap();
        let (keys, report) = recovered_keys(&handle);
        assert_eq!(keys, ["a", "c"]);
        assert_eq!(report.torn_bytes, 0, "repair already removed the tear");
    }

    #[test]
    fn append_batch_commits_with_one_fsync() {
        let storage = MemStorage::new();
        let handle = StorageHandle::Memory(storage);
        let mut wal = open(&handle);
        let entries: Vec<(StoreKey, Versioned)> = (0..8u64)
            .map(|i| (key(&format!("k{i}")), v(i + 1, b"batched")))
            .collect();
        wal.append_batch(&entries).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.appends, 8);
        assert_eq!(stats.batches, 1, "one backend append for the run");
        assert_eq!(stats.fsyncs, 1, "one fsync for the run");
        let (keys, report) = recovered_keys(&handle);
        assert_eq!(keys.len(), 8);
        assert_eq!(report.replayed_records, 8);
    }

    #[test]
    fn crash_mid_batch_fails_the_whole_batch_and_loses_nothing_acked() {
        use ace_net::fault::{StorageFault, StorageFaultHub};
        let hub = StorageFaultHub::new();
        let host = HostId::from("s1");
        let storage = MemStorage::new().with_faults(hub.clone(), host.clone());
        let handle = StorageHandle::Memory(storage.clone());
        let mut wal = open(&handle);
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
        let (keys, report) = recovered_keys(&handle);
        assert!(keys.contains(&"acked".to_string()));
        assert!(keys.len() <= 2, "at most the first unacked record replays");
        assert!(!keys.contains(&"b1".to_string()));
        assert!(!report.reset);
    }
}
