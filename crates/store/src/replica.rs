//! One persistent-store replica (§6, Fig. 17).
//!
//! "Three completely redundant storage systems guarantee safe and up to
//! date storage of information … the three storage systems perform constant
//! data synchronization."
//!
//! Each replica daemon owns a [`DiskImage`] — shared state standing in for
//! the machine's disk, so a crashed replica that restarts on the same host
//! finds its data again.  Anti-entropy runs on a dedicated *sync worker
//! thread*, not inside the daemon's task: replicas synchronously query each
//! other (digest pulls), and two daemon tasks blocked calling each other
//! would deadlock — the worker keeps command service and synchronization
//! independent, mirroring the paper's separation of command and data paths.
//!
//! A round costs what has *diverged*, not what is stored.  Every image
//! keeps, under the lock of its map, a hash tree over its digest rows
//! `(ns, key, version, writer)`: [`SYNC_BUCKETS`] leaves, each the XOR of
//! the hashes of the rows whose key falls in that bucket, and a root over
//! the leaves.  Per peer the worker sends its root (`psDigest root=…`); a
//! peer holding the same rows answers `same=true` — about 100 B both ways —
//! and otherwise returns its 64 leaves, of which the worker fetches the rows
//! of the differing buckets only (`psDigest buckets={…}`) and pulls what is
//! newer, key by key, as it always did.  Nothing survives a round: no
//! per-peer cursor to invalidate when a replica is rebuilt, reopened or has
//! a snapshot installed under it — and a rebuild tops up its shipped
//! snapshot with this same round, once, against the shipper.  DESIGN.md
//! § "Anti-entropy by hash tree" has the argument.

use crate::client::{unpack_values, StoreError};
use crate::placement::StorePlacement;
use crate::version::{StoreKey, Versioned};
use crate::wal::{
    encode_snapshot, page_bytes, Loc, MemStorage, Pages, RecoveryReport, Segment, Slot,
    StorageHandle, Wal, WalConfig, WalStats, SNAP_HEAD,
};
use ace_core::prelude::*;
use ace_lang::ScalarType;
use ace_security::hash::Fnv64Stream;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Buckets in the anti-entropy hash tree.  A constant, not an option: every
/// replica of a group must cut the keyspace the same way, and 64 keeps the
/// whole tree one ~1.2 KB reply while a differing bucket names 1/64th of
/// the keyspace.
pub const SYNC_BUCKETS: usize = 64;

/// The hash tree's leaves: per bucket, the XOR of the hashes of the digest
/// rows whose key falls in it (so a row is added and removed by the same
/// operation, in any order).
pub type SyncTree = [u64; SYNC_BUCKETS];

/// One row of a digest: `(ns, key, version, writer)` — everything about an
/// entry but its bytes.
pub type DigestRow = (String, String, u64, String);

/// Hash state after absorbing `ns\0key`: finished, it picks the key's
/// bucket; continued over version and writer, it is the row's hash.
fn key_hash(ns: &str, key: &str) -> Fnv64Stream {
    let mut h = Fnv64Stream::keyed(0);
    h.update(ns.as_bytes());
    h.update(&[0]);
    h.update(key.as_bytes());
    h
}

fn bucket_of(key: Fnv64Stream) -> usize {
    (key.finish() % SYNC_BUCKETS as u64) as usize
}

/// Hash of exactly one digest row — what `psDigest` would say about the
/// key whose [`key_hash`] is `key`.
fn row_hash(key: Fnv64Stream, version: u64, writer: &str) -> u64 {
    let mut h = key;
    h.update(&[0]);
    h.update(&version.to_le_bytes());
    h.update(writer.as_bytes());
    h.finish()
}

/// The tree of a set of digest rows, from scratch: the reference the
/// incremental tree of a [`DiskImage`] must always equal for its
/// [`DiskImage::digest`].
pub fn sync_tree<'r>(rows: impl IntoIterator<Item = (&'r str, &'r str, u64, &'r str)>) -> SyncTree {
    let mut tree = [0; SYNC_BUCKETS];
    for (ns, key, version, writer) in rows {
        let key = key_hash(ns, key);
        tree[bucket_of(key)] ^= row_hash(key, version, writer);
    }
    tree
}

/// The tree's root: equal roots mean equal digests (up to a 2⁻⁶⁴ collision).
fn tree_root(tree: &SyncTree) -> u64 {
    let mut h = Fnv64Stream::keyed(0);
    for bucket in tree {
        h.update(&bucket.to_le_bytes());
    }
    h.finish()
}

/// How a tree hash travels in a command: a word, `x` + 16 hex digits.
fn hash_word(hash: u64) -> String {
    format!("x{hash:016x}")
}

fn parse_hash_word(word: &str) -> Option<u64> {
    u64::from_str_radix(word.strip_prefix('x')?, 16).ok()
}

/// The key directory: per namespace, per key, the key's [`Slot`] — its
/// record's `(version, writer, deleted)` and where the record lies on the
/// disk — with the hash tree over its digest rows and the live size.  No
/// value is held here: a value is read from its record.  Keyed by
/// namespace, then key, so a key costs one boxed string and a lookup by
/// `&str` allocates nothing.
#[derive(Debug)]
struct KeyDir {
    map: HashMap<Box<str>, HashMap<Box<str>, Slot>>,
    tree: SyncTree,
    /// What the live records take on the disk: the sum of their slots'
    /// framed lengths, kept exact by every [`KeyDir::put`].  The log's
    /// compaction rule weighs it.
    live: u64,
}

impl Default for KeyDir {
    fn default() -> KeyDir {
        KeyDir {
            map: HashMap::new(),
            tree: [0; SYNC_BUCKETS],
            live: 0,
        }
    }
}

impl KeyDir {
    fn get(&self, ns: &str, key: &str) -> Option<&Slot> {
        self.map.get(ns)?.get(key)
    }

    /// The one place a key's slot is set: XOR the old digest row out of
    /// the tree and the new one in, and the old record's length out of
    /// `live` and the new one's in.
    fn put(&mut self, ns: &str, key: &str, slot: Slot) {
        let hashed = key_hash(ns, key);
        let (row, len) = (row_hash(hashed, slot.version, &slot.writer), slot.at.len);
        if !self.map.contains_key(ns) {
            self.map.insert(ns.into(), HashMap::new());
        }
        let keys = self.map.get_mut(ns).expect("inserted above");
        let old = match keys.get_mut(key) {
            Some(held) => Some(std::mem::replace(held, slot)),
            None => keys.insert(key.into(), slot),
        };
        let (old_row, old_len) = old.map_or((0, 0), |old| {
            (row_hash(hashed, old.version, &old.writer), old.at.len)
        });
        self.tree[bucket_of(hashed)] ^= old_row ^ row;
        self.live = self.live + len as u64 - old_len as u64;
    }

    /// [`KeyDir::put`] `slot` if it beats what is held.  Whether it won.
    fn publish(&mut self, ns: &str, key: &str, slot: Slot) -> bool {
        let held = self.get(ns, key);
        if held.is_some_and(|held| !held.beaten_by(slot.version, &slot.writer)) {
            return false;
        }
        self.put(ns, key, slot);
        true
    }

    /// Forget a key whose record failed its check: out of the map, its row
    /// out of the tree and its length out of `live`.  The tree now differs
    /// from the peers' in its bucket, so the next anti-entropy round pulls
    /// the key back.
    fn drop_damaged(&mut self, ns: &str, key: &str) {
        let Some(keys) = self.map.get_mut(ns) else {
            return;
        };
        if let Some(old) = keys.remove(key) {
            let hashed = key_hash(ns, key);
            self.tree[bucket_of(hashed)] ^= row_hash(hashed, old.version, &old.writer);
            self.live -= old.at.len as u64;
        }
        if keys.is_empty() {
            self.map.remove(ns);
        }
    }

    /// Every `(ns, key, slot)`, in no order.
    fn iter(&self) -> impl Iterator<Item = (&str, &str, &Slot)> {
        (self.map.iter())
            .flat_map(|(ns, keys)| keys.iter().map(move |(key, slot)| (&**ns, &**key, slot)))
    }

    fn len(&self) -> usize {
        self.map.values().map(HashMap::len).sum()
    }

    /// What the directory holds in memory: each table's buckets (its
    /// capacity at the 7/8 load factor, each an entry and a control byte)
    /// and the bytes of each boxed string.
    fn bytes(&self) -> u64 {
        fn table<K, V>(map: &HashMap<K, V>) -> usize {
            map.capacity() * 8 / 7 * (std::mem::size_of::<(K, V)>() + 1)
        }
        let keys = (self.map.iter()).map(|(ns, keys)| {
            let strings: usize = keys.iter().map(|(k, s)| k.len() + s.writer.len()).sum();
            ns.len() + table(keys) + strings
        });
        (table(&self.map) + keys.sum::<usize>()) as u64
    }
}

/// What an image holds — the key directory and the log its values live
/// in — behind one lock, so nobody reads one without the other and a write
/// is checked, logged, published and compacted in one hold.  Each value is
/// held once, on the disk.
#[derive(Debug)]
struct Held {
    keys: KeyDir,
    /// Every applied write is logged here *before* it becomes visible, and
    /// every value is read back from here.
    wal: Wal,
}

/// A cut of an image: the snapshot body, each key's slot in it, and how
/// many of those came from a shipped snapshot.
type Cut = (Pages, Vec<(StoreKey, Slot)>, usize);

impl Held {
    /// Recovery: the directory, its tree and the live size are not
    /// persisted; each record the log's scan finds is published in turn.
    fn open(
        handle: &StorageHandle,
        config: WalConfig,
    ) -> Result<(Held, RecoveryReport), StoreError> {
        let mut keys = KeyDir::default();
        let (wal, report) = Wal::open(handle, config, |(ns, key), slot| {
            keys.publish(&ns, &key, slot);
        })?;
        Ok((Held { keys, wal }, report))
    }

    /// The one write, in this order: keep the entries that beat what is
    /// held; log them, as one append and one fsync; publish where each
    /// landed; compact the log if compacting would halve the disk.  How
    /// many applied.  An `Err` means none did and none may be acknowledged.
    fn apply(&mut self, entries: Vec<(StoreKey, Versioned)>) -> Result<usize, StoreError> {
        let fresh: Vec<(StoreKey, Versioned)> = entries
            .into_iter()
            .filter(|((ns, key), value)| {
                let held = self.keys.get(ns, key);
                held.is_none_or(|held| held.beaten_by(value.version, &value.writer))
            })
            .collect();
        let locs = self.wal.append_batch(&fresh)?;
        let mut applied = 0;
        for (((ns, key), value), at) in fresh.into_iter().zip(locs) {
            let slot = Slot {
                version: value.version,
                writer: value.writer.into_boxed_str(),
                deleted: value.deleted,
                at,
            };
            applied += self.keys.publish(&ns, &key, slot) as usize;
        }
        self.maybe_compact();
        Ok(applied)
    }

    /// Read a key's value from its record.  A record that fails its check
    /// is refused and its key dropped ([`KeyDir::drop_damaged`]).
    fn get(&mut self, ns: &str, key: &str) -> Option<Versioned> {
        let slot = self.keys.get(ns, key)?;
        match self.wal.read(ns, key, slot) {
            Ok(value) => Some(value),
            Err(StoreError::Corrupt { .. }) => {
                self.keys.drop_damaged(ns, key);
                None
            }
            Err(_) => None,
        }
    }

    /// The snapshot of what is held — merged, if `shipped` is given, with
    /// the records of a shipped snapshot and their rows: per key the newest
    /// of the held slot and the shipped row (the held one on a tie), its
    /// framed record copied from this disk or from `shipped`, in key order.
    /// A held record that fails its check is dropped and the cut taken
    /// again, so no damaged record is ever copied.
    fn cut(&mut self, shipped: Option<(&Pages, &[(StoreKey, Slot)])>) -> Result<Cut, StoreError> {
        let empty = Pages::new();
        let (pages, rows) = shipped.unwrap_or((&empty, &[]));
        loop {
            let held = self
                .keys
                .iter()
                .map(|(ns, key, slot)| (ns, key, slot, false));
            let rows = rows
                .iter()
                .map(|((ns, key), slot)| (&**ns, &**key, slot, true));
            let mut candidates: Vec<_> = held.chain(rows).collect();
            // Newest first within a key, a held slot before a shipped row.
            candidates.sort_by(|a, b| {
                let newest = (b.2.version, &b.2.writer).cmp(&(a.2.version, &a.2.writer));
                (a.0, a.1).cmp(&(b.0, b.1)).then(newest).then(a.3.cmp(&b.3))
            });
            candidates.dedup_by(|later, first| (later.0, later.1) == (first.0, first.1));

            let (mut failed, mut damaged) = (None, Vec::new());
            let mut placed = Vec::with_capacity(candidates.len());
            let mut offset = SNAP_HEAD as u64;
            let wal = &mut self.wal;
            let records = candidates
                .iter()
                .filter_map(|&(ns, key, slot, from_shipped)| {
                    let framed = if from_shipped {
                        let start = slot.at.offset as usize;
                        Ok(pages.read(start, start + slot.at.len as usize))
                    } else {
                        wal.framed(ns, key, slot)
                    };
                    match framed {
                        Ok(framed) => {
                            let at = Loc {
                                segment: Segment::Snapshot,
                                offset,
                                len: slot.at.len,
                            };
                            offset += at.len as u64;
                            placed.push((
                                (ns.to_string(), key.to_string()),
                                Slot { at, ..slot.clone() },
                            ));
                            Some(framed)
                        }
                        Err(StoreError::Corrupt { .. }) => {
                            damaged.push((ns.to_string(), key.to_string()));
                            None
                        }
                        Err(e) => {
                            failed.get_or_insert(e);
                            None
                        }
                    }
                });
            let body = encode_snapshot(candidates.len(), records);
            let won = candidates.iter().filter(|c| c.3).count();
            if let Some(e) = failed {
                return Err(e);
            }
            if damaged.is_empty() {
                return Ok((body, placed, won));
            }
            for (ns, key) in damaged {
                self.keys.drop_damaged(&ns, &key);
            }
        }
    }

    /// Move each key to its record in a snapshot just committed.
    fn adopt(&mut self, placed: Vec<(StoreKey, Slot)>) {
        for ((ns, key), slot) in placed {
            self.keys.put(&ns, &key, slot);
        }
    }

    /// Compact once the log's rule says compacting would halve the disk:
    /// cut the live records into a new snapshot, commit it, and move every
    /// key there.  A failure is counted, not fatal: the data is still in
    /// the log.
    fn maybe_compact(&mut self) {
        if !self.wal.needs_compaction(self.keys.live) {
            return;
        }
        let Ok((body, placed, _)) = self.cut(None) else {
            return;
        };
        if self.wal.commit_snapshot(body).is_ok() {
            self.adopt(placed);
        }
    }
}

/// What a [`DiskImage`] holds, in bytes.  The log's compaction rule keeps
/// `snapshot + log` within about twice `live`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskBytes {
    /// What the held records would take in a snapshot written now.
    pub live: u64,
    /// The snapshot on disk.
    pub snapshot: u64,
    /// The log past the snapshot.
    pub log: u64,
}

/// The disk of one replica: survives daemon crash/restart.  It recovers
/// from its write-ahead log + snapshot ([`DiskImage::open`]), so it
/// survives the *process* dying with the image unreferenced.  In memory it
/// keeps a key directory and the hash tree over it; every value stays on
/// the disk and is read from its record.
///
/// One lock guards the directory, its hash tree and the log.  A replica's
/// writers are its daemon task and its sync worker, so nothing is gained
/// by logging outside it, and a write holds it from its staleness check to
/// its compaction: no record is ever in the log but not yet in the
/// directory.
#[derive(Debug, Clone)]
pub struct DiskImage {
    held: Arc<Mutex<Held>>,
}

impl Default for DiskImage {
    fn default() -> DiskImage {
        DiskImage::new()
    }
}

impl DiskImage {
    /// An empty image over a simulated disk of its own, which nothing else
    /// can reopen (unit tests, probes).
    pub fn new() -> DiskImage {
        let private = StorageHandle::Memory(MemStorage::new());
        let (disk, _) =
            DiskImage::open(&private, WalConfig::default()).expect("an empty disk opens");
        disk
    }

    /// Open a durable image: rebuild the key directory from the snapshot +
    /// log behind `handle`, then log every further applied write.  Refuses
    /// with [`StoreError::Corrupt`] when validation fails mid-log or in the
    /// snapshot.
    pub fn open(
        handle: &StorageHandle,
        config: WalConfig,
    ) -> Result<(DiskImage, RecoveryReport), StoreError> {
        let (held, report) = Held::open(handle, config)?;
        let held = Arc::new(Mutex::new(held));
        Ok((DiskImage { held }, report))
    }

    /// [`DiskImage::open`], but detected corruption resets the storage to
    /// empty (reported via `reset = true`) instead of failing — the
    /// controlled response for a replica with peers: never serve
    /// corrupt data, rebuild from anti-entropy instead.
    pub fn open_or_reset(
        handle: &StorageHandle,
        config: WalConfig,
    ) -> Result<(DiskImage, RecoveryReport), StoreError> {
        match DiskImage::open(handle, config.clone()) {
            Err(StoreError::Corrupt { .. }) => {
                Wal::reset(handle)?;
                let (disk, mut report) = DiskImage::open(handle, config)?;
                report.reset = true;
                Ok((disk, report))
            }
            other => other,
        }
    }

    /// Apply a versioned write if it beats the current entry.  Returns
    /// `Ok(true)` if applied — only after the write is in the log and
    /// synced.  An `Err` means the write is *not* durable and must not be
    /// acknowledged.
    pub fn apply(&self, key: StoreKey, value: Versioned) -> Result<bool, StoreError> {
        Ok(self.held.lock().apply(vec![(key, value)])? == 1)
    }

    /// Apply a run of versioned writes as one WAL append (one fsync).
    /// Stale entries are filtered; the survivors are logged together and
    /// then published.  Returns how many entries were applied.  An `Err`
    /// means *none* of the writes may be acknowledged.
    pub fn apply_batch(&self, entries: Vec<(StoreKey, Versioned)>) -> Result<usize, StoreError> {
        self.held.lock().apply(entries)
    }

    /// [`DiskImage::apply`] as a client's proposal sees it: `None` if the
    /// write applied, otherwise the `(version, writer)` held instead, read
    /// in the same hold.  A refusal means the proposal did not beat that
    /// pair, so it is what the client's read round would have fetched — the
    /// refusal *is* the read.
    pub fn propose(
        &self,
        key: StoreKey,
        value: Versioned,
    ) -> Result<Option<(u64, String)>, StoreError> {
        let mut held = self.held.lock();
        if held.apply(vec![(key.clone(), value)])? == 1 {
            return Ok(None);
        }
        let refused_by = held.keys.get(&key.0, &key.1);
        Ok(Some(
            refused_by
                .map(|s| (s.version, s.writer.to_string()))
                .unwrap_or_default(),
        ))
    }

    /// [`DiskImage::apply_batch`] as a client's proposal sees it: how many
    /// entries applied, and the [`DiskImage::digest`] rows held *instead of*
    /// the others — empty when every entry applied or is held exactly as
    /// proposed (a re-send).
    pub fn propose_batch(
        &self,
        entries: Vec<(StoreKey, Versioned)>,
    ) -> Result<(usize, Vec<DigestRow>), StoreError> {
        let proposed: Vec<(StoreKey, u64, String)> = entries
            .iter()
            .map(|(key, value)| (key.clone(), value.version, value.writer.clone()))
            .collect();
        let mut held = self.held.lock();
        let applied = held.apply(entries)?;
        if applied == proposed.len() {
            return Ok((applied, Vec::new()));
        }
        let lost = proposed
            .into_iter()
            .filter_map(|((ns, key), version, writer)| {
                let s = held.keys.get(&ns, &key)?;
                ((s.version, &*s.writer) != (version, writer.as_str()))
                    .then(|| (ns, key, s.version, s.writer.to_string()))
            })
            .collect();
        Ok((applied, lost))
    }

    /// Read a key (tombstones included), its value from its record on the
    /// disk.  A record that fails its check is refused — `None`, never its
    /// bytes — and its key dropped, so anti-entropy pulls it back.
    pub fn get(&self, key: &StoreKey) -> Option<Versioned> {
        self.held.lock().get(&key.0, &key.1)
    }

    /// What is held of a key but its value — `(version, writer, deleted)`
    /// from the key directory, without reading the disk.
    pub fn head(&self, key: &StoreKey) -> Option<(u64, String, bool)> {
        let held = self.held.lock();
        let slot = held.keys.get(&key.0, &key.1)?;
        Some((slot.version, slot.writer.to_string(), slot.deleted))
    }

    /// Live (non-tombstone) keys in a namespace, sorted.
    pub fn list(&self, ns: &str) -> Vec<String> {
        let held = self.held.lock();
        let mut keys: Vec<String> = (held.keys.map.get(ns).into_iter())
            .flatten()
            .filter(|(_, slot)| !slot.deleted)
            .map(|(key, _)| key.to_string())
            .collect();
        keys.sort();
        keys
    }

    /// Digest of everything held: `(ns, key, version, writer)`.
    pub fn digest(&self) -> Vec<DigestRow> {
        self.digest_where(|_, _| true)
    }

    /// The [`DiskImage::digest`] rows of the keys in the given hash-tree
    /// buckets.  A filtered scan: it runs only when a peer's tree differs,
    /// so it needs no per-bucket index.
    pub fn digest_buckets(&self, buckets: &[usize]) -> Vec<DigestRow> {
        self.digest_where(|ns, key| buckets.contains(&bucket_of(key_hash(ns, key))))
    }

    fn digest_where(&self, keep: impl Fn(&str, &str) -> bool) -> Vec<DigestRow> {
        let held = self.held.lock();
        let mut out: Vec<_> = (held.keys.iter())
            .filter(|(ns, key, _)| keep(ns, key))
            .map(|(ns, key, s)| {
                (
                    ns.to_string(),
                    key.to_string(),
                    s.version,
                    s.writer.to_string(),
                )
            })
            .collect();
        out.sort();
        out
    }

    /// The hash tree over [`DiskImage::digest`], kept current by every
    /// write: two images hold the same rows exactly when their trees are
    /// equal.
    pub fn tree(&self) -> SyncTree {
        self.held.lock().keys.tree
    }

    /// The buckets in which this image's tree — read now — differs from a
    /// peer's: where anti-entropy has to look.
    pub fn differing_buckets(&self, remote: &SyncTree) -> Vec<usize> {
        let local = self.tree();
        (0..SYNC_BUCKETS)
            .filter(|&b| local[b] != remote[b])
            .collect()
    }

    /// The [`DiskImage::digest`] rows of just `keys` in `ns` (absent keys
    /// have no row): what a batch writer needs to version its own keys,
    /// at a cost in the batch's size rather than the keyspace's.
    pub fn digest_of<'k>(
        &self,
        ns: &str,
        keys: impl IntoIterator<Item = &'k str>,
    ) -> Vec<DigestRow> {
        let held = self.held.lock();
        keys.into_iter()
            .filter_map(|key| {
                let s = held.keys.get(ns, key)?;
                Some((
                    ns.to_string(),
                    key.to_string(),
                    s.version,
                    s.writer.to_string(),
                ))
            })
            .collect()
    }

    /// Number of entries (including tombstones).
    pub fn len(&self) -> usize {
        self.held.lock().keys.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.held.lock().keys.map.is_empty()
    }

    /// WAL counters.  Always `Some`: every image logs.
    pub fn wal_stats(&self) -> Option<WalStats> {
        Some(self.held.lock().wal.stats().clone())
    }

    /// The held state's size against the snapshot and log it is kept in.
    pub fn bytes(&self) -> DiskBytes {
        let held = self.held.lock();
        DiskBytes {
            live: held.keys.live,
            snapshot: held.wal.snapshot_len(),
            log: held.wal.log_len(),
        }
    }

    /// What the key directory holds in memory, in bytes: all the image
    /// keeps of its state besides the 64-bucket tree, since the values are
    /// on the disk.
    pub fn directory_bytes(&self) -> u64 {
        self.held.lock().keys.bytes()
    }

    /// Cut a consistent shippable snapshot under one hold of the image's
    /// lock: the live records, copied framed from the disk in key order,
    /// in pages.
    pub fn snapshot_cut(&self) -> Result<Pages, StoreError> {
        Ok(self.held.lock().cut(None)?.0)
    }

    /// Install a shipped snapshot: check it a record at a time, merge its
    /// records newest-wins with what is held, and commit the merged state as
    /// one snapshot write — the whole keyspace costs one snapshot replace
    /// instead of re-appending every record through the log.  Returns how
    /// many of the shipped records won.  Bytes that do not validate are
    /// refused with [`StoreError::Corrupt`], and nothing is installed.
    pub fn install_snapshot(&self, shipped: &Pages) -> Result<usize, StoreError> {
        let rows = crate::wal::shipped_rows(shipped)?;
        let mut held = self.held.lock();
        let (body, placed, won) = held.cut(Some((shipped, &rows)))?;
        held.wal.commit_snapshot(body)?;
        held.adopt(placed);
        Ok(won)
    }

    /// The hash tree's root — equal checksums mean the replicas hold the
    /// same digest rows, i.e. have converged.  O([`SYNC_BUCKETS`]), not
    /// O(keyspace).
    pub fn checksum(&self) -> u64 {
        tree_root(&self.held.lock().keys.tree)
    }
}

/// Counters shared between the daemon and its sync worker (a rebuild's
/// top-up keeps its own).
#[derive(Debug, Default)]
struct SyncStats {
    syncs: AtomicU64,
    /// Peer-rounds the peer answered `same=true`: nothing else was sent.
    sync_equal: AtomicU64,
    /// Differing buckets whose rows were fetched.
    sync_buckets: AtomicU64,
    /// Digest rows those buckets held, each compared with the local entry.
    sync_rows: AtomicU64,
    pulled: AtomicU64,
    /// Pulled values the local disk refused (WAL append failed): the
    /// entry stays missing locally and a later round retries it.
    pull_errors: AtomicU64,
}

/// The shard read lease one replica may hold: clients grant it through
/// the quorum path, and only the live holder serves `psGetLeased`.
#[derive(Debug, Clone)]
struct ReadLease {
    /// Holder address as `host:port` — compared against the replica's own
    /// bound address when serving leased reads.
    holder: String,
    /// Grant epoch: a newer grant supersedes, an older one is fenced.
    epoch: u64,
    until: Instant,
}

/// The replica daemon behavior.
pub struct StoreReplica {
    disk: DiskImage,
    sync_interval: Duration,
    stats: Arc<SyncStats>,
    stop: Arc<AtomicBool>,
    worker: Option<std::thread::JoinHandle<()>>,
    /// Nudges the worker to sync immediately (`psSync`).
    nudge: Option<crossbeam_channel::Sender<()>>,
    /// The rest of this replica's group, fixed at spawn: whom anti-entropy
    /// syncs with.  Empty is a standalone replica with no sync worker.
    peers: Vec<Addr>,
    /// The group's placement map, served via `psPlacement`.
    placement: Option<StorePlacement>,
    /// Cached encoded snapshot for chunked `psSnapFetch`.  Cut fresh on
    /// every offset-0 fetch; later offsets read the cache so one rebuild
    /// streams one consistent snapshot, and serving the final chunk lets it
    /// go.  Each chunk is copied out of the pages it spans.
    snap_cache: Option<Pages>,
    /// The shard read lease, if any client granted one.
    lease: Option<ReadLease>,
    /// `psGetLeased` requests served as the holder.
    leased_gets: u64,
    /// `psGetLeased` requests refused (not holder / lease expired).
    leased_refusals: u64,
}

impl StoreReplica {
    pub fn new(disk: DiskImage, sync_interval: Duration) -> StoreReplica {
        StoreReplica {
            disk,
            sync_interval,
            stats: Arc::new(SyncStats::default()),
            stop: Arc::new(AtomicBool::new(false)),
            worker: None,
            nudge: None,
            peers: Vec::new(),
            placement: None,
            snap_cache: None,
            lease: None,
            leased_gets: 0,
            leased_refusals: 0,
        }
    }

    /// Sync with `peers`, the rest of this replica's group, and serve the
    /// group's `placement` under `psPlacement`.  A replica pulls from nobody
    /// else: a shard replica must never pull another shard's keys, and no
    /// replica waits on the directory to find its group.
    pub fn with_group(mut self, peers: Vec<Addr>, placement: StorePlacement) -> StoreReplica {
        self.peers = peers;
        self.placement = Some(placement);
        self
    }
}

/// One anti-entropy round from the worker thread: a [`tree_round`] against
/// every peer of the replica's group.  Sends over the daemon's pool.
fn sync_round(pool: &Arc<LinkPool>, peers: &[Addr], disk: &DiskImage, stats: &SyncStats) {
    for peer in peers {
        // A peer that is down or answers nonsense is caught up with later.
        let call = |cmd: &CmdLine| {
            pool.call(peer, cmd, ace_core::client::DEFAULT_CALL_TIMEOUT)
                .ok()
        };
        let _ = tree_round(call, disk, stats);
    }
    stats.syncs.fetch_add(1, Ordering::Relaxed);
}

/// One hash-tree round against one peer, sending over `call`.  It costs
/// what has diverged, not what is stored: it sends the root of its own
/// tree, and a peer holding the same rows answers `same=true` and is done.
/// Otherwise the peer's 64 bucket hashes come back, and only the rows of
/// the buckets that differ from the local tree — read afresh, nothing is
/// kept between rounds — are fetched and run through the newer-wins pull.
///
/// `None` if the peer could not be asked, or answered what is not a tree or
/// a digest.  Otherwise the number of newer keys it left behind: the peer
/// failed to serve them or the local disk refused them, and a later round
/// retries them.  The sync worker runs this against each peer, a rebuild
/// once against the peer that shipped its snapshot ([`top_up`]).
fn tree_round(
    mut call: impl FnMut(&CmdLine) -> Option<CmdLine>,
    disk: &DiskImage,
    stats: &SyncStats,
) -> Option<usize> {
    let reply = call(&CmdLine::new("psDigest").arg("root", hash_word(disk.checksum())))?;
    if reply.get_bool("same") == Some(true) {
        stats.sync_equal.fetch_add(1, Ordering::Relaxed);
        return Some(0);
    }
    let differing = disk.differing_buckets(&tree_from_reply(&reply)?);
    if differing.is_empty() {
        return Some(0); // caught up between the two reads
    }
    stats
        .sync_buckets
        .fetch_add(differing.len() as u64, Ordering::Relaxed);
    let buckets = differing.iter().map(|&b| Scalar::Int(b as i64)).collect();
    let ask = CmdLine::new("psDigest").arg("buckets", Value::Vector(buckets));
    let rows = digest_from_reply(&call(&ask)?)?;
    stats
        .sync_rows
        .fetch_add(rows.len() as u64, Ordering::Relaxed);
    let mut missed = 0;
    for (ns, key, version, writer) in rows {
        let key_pair = (ns.clone(), key.clone());
        let newer_remote = match disk.head(&key_pair) {
            None => true,
            Some((local, local_writer, _)) => (version, writer.as_str()) > (local, &*local_writer),
        };
        if !newer_remote {
            continue;
        }
        let get = CmdLine::new("psGet")
            .arg("ns", ns.as_str())
            .arg("key", Value::Str(key));
        match call(&get)
            .and_then(|got| versioned_from_reply(&got))
            .map(|value| disk.apply(key_pair, value))
        {
            Some(Ok(true)) => {
                stats.pulled.fetch_add(1, Ordering::Relaxed);
            }
            Some(Ok(false)) => {}
            Some(Err(_)) => {
                stats.pull_errors.fetch_add(1, Ordering::Relaxed);
                missed += 1;
            }
            None => missed += 1,
        }
    }
    Some(missed)
}

/// A rebuild's top-up: one [`tree_round`] against the peer that shipped the
/// snapshot.  `Ok` with the values pulled only when every key the peer held
/// newer at its root is now on `disk`; a failed call leaves the round
/// unanswered or a key behind, and the caller tries another peer.  (A late
/// reply cannot be stored under the next key: the client a call fails on
/// closes itself.)
pub(crate) fn top_up(
    mut call: impl FnMut(&CmdLine) -> Result<CmdLine, ClientError>,
    disk: &DiskImage,
) -> Result<usize, ClientError> {
    let stats = SyncStats::default();
    match tree_round(|cmd| call(cmd).ok(), disk, &stats) {
        Some(0) => Ok(stats.pulled.into_inner() as usize),
        _ => Err(ClientError::Service {
            code: ErrorCode::Internal,
            msg: "snapshot peer's top-up failed or left newer keys behind".into(),
        }),
    }
}

/// The 64 bucket hashes of a `psDigest root=…` reply that said
/// `same=false`; `None` when the reply is anything else.
fn tree_from_reply(reply: &CmdLine) -> Option<SyncTree> {
    let words = reply.get_vector("hashes")?;
    if words.len() != SYNC_BUCKETS {
        return None;
    }
    let mut tree = [0; SYNC_BUCKETS];
    for (bucket, word) in tree.iter_mut().zip(words) {
        *bucket = parse_hash_word(word.as_text()?)?;
    }
    Some(tree)
}

/// Strictly parse a `psGet`-style reply; `None` when any field is missing
/// or malformed (callers treat that as a corrupt reply, never as defaults).
pub(crate) fn versioned_from_reply(reply: &CmdLine) -> Option<Versioned> {
    Some(Versioned {
        data: reply.get_blob("data")?.into_owned(),
        version: reply.get_int("version")? as u64,
        writer: reply.get_text("writer")?.to_string(),
        deleted: reply.get_bool("deleted")?,
    })
}

/// Whether a leased read's asker already holds the held `(version, writer,
/// deleted)`: it offered exactly its `(version, writer)` — the whole name,
/// not a hash of it, and not the version alone, which two writers can
/// share — and what is held is a value, not a tombstone.
pub(crate) fn already_held(held: (u64, &str, bool), offered: Option<(u64, &str)>) -> bool {
    let (version, writer, deleted) = held;
    !deleted && offered == Some((version, writer))
}

/// Digest rows as they travel (`psDigest` entries, the rows a `psPutBatch`
/// refused): all-`Str` cells, the version as its decimal rendering.
fn digest_to_value(rows: Vec<DigestRow>) -> Value {
    let row = |(ns, key, version, writer): DigestRow| {
        vec![
            Scalar::Str(ns),
            Scalar::Str(key),
            Scalar::Str(version.to_string()),
            Scalar::Str(writer),
        ]
    };
    Value::Array(rows.into_iter().map(row).collect())
}

pub(crate) fn digest_from_reply(reply: &CmdLine) -> Option<Vec<DigestRow>> {
    let rows = match reply.get("entries")? {
        v if v.as_vector().is_some_and(|s| s.is_empty()) => return Some(Vec::new()),
        v => v.as_array()?,
    };
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        if row.len() != 4 {
            return None;
        }
        let cell = |i: usize| row[i].as_text();
        out.push((
            cell(0)?.to_string(),
            cell(1)?.to_string(),
            cell(2)?.parse().ok()?,
            cell(3)?.to_string(),
        ));
    }
    Some(out)
}

impl ServiceBehavior for StoreReplica {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .inheriting(&ace_core::protocol::store_scaleout_semantics())
            .with(
                CmdSpec::new("psPut", "store a versioned value")
                    .required("ns", ArgType::Word, "namespace")
                    .required("key", ArgType::Str, "key within the namespace")
                    .required("data", ArgType::Blob, "value bytes")
                    .required("version", ArgType::Int, "client-assigned version")
                    .required("writer", ArgType::Str, "writer id (tie-break)"),
            )
            .with(
                CmdSpec::new("psPutBatch", "store many versioned values in one commit")
                    .required("ns", ArgType::Word, "namespace")
                    .required(
                        "items",
                        ArgType::Array(ScalarType::Str),
                        "rows of {key, version, writer, value length}",
                    )
                    .required("data", ArgType::Blob, "the rows' values, concatenated"),
            )
            .with(
                CmdSpec::new("psGet", "read a key")
                    .required("ns", ArgType::Word, "namespace")
                    .required("key", ArgType::Str, "key")
                    .optional(
                        "digest",
                        ArgType::Word,
                        "true for version/writer/deleted only, no value bytes",
                    ),
            )
            .with(
                CmdSpec::new("psDelete", "tombstone a key")
                    .required("ns", ArgType::Word, "namespace")
                    .required("key", ArgType::Str, "key")
                    .required("version", ArgType::Int, "client-assigned version")
                    .required("writer", ArgType::Str, "writer id"),
            )
            .with(CmdSpec::new("psList", "live keys in a namespace").required(
                "ns",
                ArgType::Word,
                "namespace",
            ))
            .with(
                CmdSpec::new(
                    "psDigest",
                    "(ns,key,version,writer) digest: everything held, just `keys` of `ns`, \
                     just the hash-tree `buckets`, or — given `root` — whether the trees match",
                )
                .optional("ns", ArgType::Word, "namespace of `keys`")
                .optional("keys", ArgType::Vector(ScalarType::Str), "keys to report")
                .optional(
                    "root",
                    ArgType::Word,
                    "the asker's tree root: answers `same=true`, or `same=false` and the \
                     64 bucket `hashes`",
                )
                .optional(
                    "buckets",
                    ArgType::Vector(ScalarType::Int),
                    "hash-tree buckets to report the rows of",
                ),
            )
            .with(CmdSpec::new("psSync", "nudge the sync worker to run now"))
    }

    fn on_start(&mut self, ctx: &mut ServiceCtx) {
        if self.peers.is_empty() {
            return; // standalone: nobody to sync with
        }
        let peers = self.peers.clone();
        let (nudge_tx, nudge_rx) = crossbeam_channel::unbounded::<()>();
        self.nudge = Some(nudge_tx);
        let pool = ctx.pool();
        let disk = self.disk.clone();
        let stats = Arc::clone(&self.stats);
        let stop = Arc::clone(&self.stop);
        let interval = self.sync_interval;
        self.worker = Some(
            std::thread::Builder::new()
                .name(format!("{}-sync", ctx.name()))
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        // Wait one interval or until nudged.
                        let _ = nudge_rx.recv_timeout(interval);
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        sync_round(&pool, &peers, &disk, &stats);
                    }
                })
                .expect("spawn sync worker"),
        );
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        // The data itself lives in the [`DiskImage`], which the upgrade
        // factory hands to the replacement (it is `Arc`-shared, and the
        // WAL epoch fences the superseded instance).  The snapshot carries
        // the replica *configuration* plus the key count at quiesce time
        // so the replacement can sanity-log what it inherited.
        let state = CmdLine::new("replicaState")
            .arg("syncIntervalMs", self.sync_interval.as_millis() as i64)
            .arg("keys", self.disk.len() as i64);
        Some(ace_core::protocol::seal_snapshot("storeReplica", state))
    }

    fn restore_state(&mut self, snapshot: &[u8]) -> Result<(), String> {
        let state = ace_core::protocol::open_snapshot("storeReplica", snapshot)?;
        let interval_ms = state
            .get_int("syncIntervalMs")
            .filter(|&ms| ms > 0)
            .ok_or_else(|| "replica snapshot: malformed syncIntervalMs".to_string())?;
        state
            .get_int("keys")
            .filter(|&k| k >= 0)
            .ok_or_else(|| "replica snapshot: malformed keys".to_string())?;
        self.sync_interval = Duration::from_millis(interval_ms as u64);
        Ok(())
    }

    fn on_stop(&mut self, _ctx: &mut ServiceCtx) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(nudge) = &self.nudge {
            let _ = nudge.send(());
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "psPut" | "psDelete" => {
                // Arguments passed semantics validation, but a malformed
                // payload must degrade to an error reply, never a panic
                // that takes the whole replica down.
                let parts = (
                    cmd.get_text("ns"),
                    cmd.get_text("key"),
                    cmd.get_int("version"),
                    cmd.get_text("writer"),
                );
                let (Some(ns), Some(key), Some(version), Some(writer)) = parts else {
                    return Reply::err(ErrorCode::Semantics, "malformed put/delete arguments");
                };
                let Some(data) = (if cmd.name() == "psPut" {
                    cmd.get_blob("data").map(|d| d.into_owned())
                } else {
                    Some(Vec::new())
                }) else {
                    return Reply::err(ErrorCode::Semantics, "data is not a blob");
                };
                let value = Versioned {
                    data,
                    version: version.max(0) as u64,
                    writer: writer.to_string(),
                    deleted: cmd.name() == "psDelete",
                };
                match self.disk.propose((ns.to_string(), key.to_string()), value) {
                    Ok(None) => Reply::ok_with(|c| c.arg("applied", true)),
                    // The refusal carries what the writer's read round would
                    // have fetched, so a stale proposal costs it one round.
                    Ok(Some((version, writer))) => Reply::ok_with(|c| {
                        c.arg("applied", false)
                            .arg("version", version as i64)
                            .arg("writer", Value::Str(writer))
                    }),
                    // Log-before-ack: a write the WAL refused is not
                    // durable, so the client must not count this ack.
                    Err(e) => Reply::err(ErrorCode::Internal, format!("write not durable: {e}")),
                }
            }
            "psPutBatch" => {
                let (Some(ns), Some(rows), Some(data)) = (
                    cmd.get_text("ns"),
                    cmd.get("items").and_then(Value::as_array),
                    cmd.get_blob("data"),
                ) else {
                    return Reply::err(ErrorCode::Semantics, "malformed batch arguments");
                };
                // Homogeneous-array wire format: every cell is a Str,
                // version travels as its decimal rendering (psDigest does
                // the same).
                let entries: Option<Vec<(StoreKey, Versioned)>> = unpack_values(rows, &data, 3)
                    .and_then(|rows| {
                        rows.into_iter()
                            .map(|(row, value)| {
                                Some((
                                    (ns.to_string(), row[0].as_text()?.to_string()),
                                    Versioned {
                                        data: value.to_vec(),
                                        version: row[1].as_text()?.parse().ok()?,
                                        writer: row[2].as_text()?.to_string(),
                                        deleted: false,
                                    },
                                ))
                            })
                            .collect()
                    });
                let Some(entries) = entries else {
                    return Reply::err(
                        ErrorCode::Semantics,
                        "batch rows must be {key, version, writer, length}, lengths adding up to data",
                    );
                };
                match self.disk.propose_batch(entries) {
                    Ok((applied, lost)) => Reply::ok_with(|c| {
                        let c = c.arg("applied", applied as i64);
                        if lost.is_empty() {
                            return c;
                        }
                        // The rows that lost, as `psDigest` would report them.
                        c.arg("entries", digest_to_value(lost))
                    }),
                    Err(e) => Reply::err(ErrorCode::Internal, format!("batch not durable: {e}")),
                }
            }
            "psGet" => {
                let (Some(ns), Some(k)) = (cmd.get_text("ns"), cmd.get_text("key")) else {
                    return Reply::err(ErrorCode::Semantics, "malformed get arguments");
                };
                let key = (ns.to_string(), k.to_string());
                // Digest mode answers the version question from the key
                // directory, without reading or shipping the value: the
                // read fan-out pays full-value transfer at exactly one
                // replica.
                if cmd.get_bool("digest").unwrap_or(false) {
                    return match self.disk.head(&key) {
                        Some((version, writer, deleted)) => Reply::ok_with(|c| {
                            c.arg("version", version as i64)
                                .arg("writer", Value::Str(writer))
                                .arg("deleted", deleted)
                        }),
                        None => Reply::err(ErrorCode::NotFound, "no such key"),
                    };
                }
                match self.disk.get(&key) {
                    Some(v) => Reply::ok_with(|c| {
                        c.arg("data", v.data)
                            .arg("version", v.version as i64)
                            .arg("writer", Value::Str(v.writer.clone()))
                            .arg("deleted", v.deleted)
                    }),
                    None => Reply::err(ErrorCode::NotFound, "no such key"),
                }
            }
            "psGetLeased" => {
                let (Some(ns), Some(k)) = (cmd.get_text("ns"), cmd.get_text("key")) else {
                    return Reply::err(ErrorCode::Semantics, "malformed get arguments");
                };
                let offered = match (cmd.get_int("version"), cmd.get_text("writer")) {
                    (None, None) => None,
                    (Some(version), Some(writer)) => Some((version.max(0) as u64, writer)),
                    _ => {
                        return Reply::err(
                            ErrorCode::Semantics,
                            "`version` and `writer` go together",
                        )
                    }
                };
                let own = format!("{}:{}", ctx.addr().host, ctx.addr().port);
                let now = ctx.net().clock().now();
                let holds = self
                    .lease
                    .as_ref()
                    .is_some_and(|l| l.holder == own && now < l.until);
                if !holds {
                    self.leased_refusals += 1;
                    return Reply::err(
                        ErrorCode::BadState,
                        "not the live leaseholder; read via quorum",
                    );
                }
                self.leased_gets += 1;
                let key = (ns.to_string(), k.to_string());
                // The same decision as below, from the key directory; only
                // the payload is left out, because the asker holds it.
                let held = self.disk.head(&key);
                if held.is_some_and(|(v, w, d)| already_held((v, &w, d), offered)) {
                    return Reply::ok_with(|c| c.arg("same", true));
                }
                match self.disk.get(&key) {
                    Some(v) => Reply::ok_with(|c| {
                        c.arg("data", v.data)
                            .arg("version", v.version as i64)
                            .arg("writer", Value::Str(v.writer.clone()))
                            .arg("deleted", v.deleted)
                    }),
                    None => Reply::err(ErrorCode::NotFound, "no such key"),
                }
            }
            "psLeaseGrant" => {
                let parts = (
                    cmd.get_text("holder"),
                    cmd.get_int("epoch"),
                    cmd.get_int("ttlMs"),
                );
                let (Some(holder), Some(epoch), Some(ttl_ms)) = parts else {
                    return Reply::err(ErrorCode::Semantics, "malformed lease grant");
                };
                let epoch = epoch.max(0) as u64;
                let now = ctx.net().clock().now();
                // A live lease held by someone else at an equal-or-newer
                // epoch fences this grant: the granter must adopt or
                // outbid, never split the shard between two holders.
                if let Some(cur) = &self.lease {
                    if cur.holder != holder && now < cur.until && cur.epoch >= epoch {
                        let (h, e) = (cur.holder.clone(), cur.epoch as i64);
                        return Reply::err(
                            ErrorCode::BadState,
                            format!("lease held by {h} at epoch {e}"),
                        );
                    }
                }
                self.lease = Some(ReadLease {
                    holder: holder.to_string(),
                    epoch,
                    until: now + Duration::from_millis(ttl_ms.max(0) as u64),
                });
                Reply::ok_with(|c| c.arg("epoch", epoch as i64))
            }
            "psLeaseRevoke" => {
                let (Some(holder), Some(epoch)) = (cmd.get_text("holder"), cmd.get_int("epoch"))
                else {
                    return Reply::err(ErrorCode::Semantics, "malformed lease revoke");
                };
                // Idempotent: revoking a lease we do not hold is success —
                // the desired end state (no such lease) already holds.
                if self
                    .lease
                    .as_ref()
                    .is_some_and(|l| l.holder == holder && l.epoch <= epoch.max(0) as u64)
                {
                    self.lease = None;
                }
                Reply::ok()
            }
            "psSnapFetch" => {
                let Some(offset) = cmd.get_int("offset").filter(|&o| o >= 0) else {
                    return Reply::err(ErrorCode::Semantics, "malformed snapshot offset");
                };
                let chunk = cmd
                    .get_int("chunk")
                    .filter(|&c| c > 0)
                    .unwrap_or(32 * 1024)
                    .min(256 * 1024) as usize;
                if offset == 0 {
                    // Offset 0 cuts a fresh consistent snapshot and caches
                    // it, so one rebuild streams one immutable byte image
                    // while writes keep landing.
                    match self.disk.snapshot_cut() {
                        Ok(cut) => self.snap_cache = Some(cut),
                        Err(e) => return Reply::err(ErrorCode::Internal, format!("no cut: {e}")),
                    }
                }
                let Some(bytes) = &self.snap_cache else {
                    return Reply::err(
                        ErrorCode::BadState,
                        "no snapshot cut; fetch offset 0 first",
                    );
                };
                let offset = offset as usize;
                if offset > bytes.len() {
                    return Reply::err(ErrorCode::Semantics, "offset past end of snapshot");
                }
                let end = (offset + chunk).min(bytes.len());
                let last = end == bytes.len();
                let reply = Reply::ok_with(|c| {
                    c.arg("total", bytes.len() as i64)
                        .arg("offset", offset as i64)
                        .arg("data", bytes.read(offset, end))
                });
                if last {
                    // The final chunk is served: the cut has no reader left.
                    self.snap_cache = None;
                }
                reply
            }
            "psPlacement" => match &self.placement {
                Some(placement) => placement.to_reply(),
                None => Reply::err(ErrorCode::NotFound, "replica carries no placement map"),
            },
            "psList" => {
                let Some(ns) = cmd.get_text("ns") else {
                    return Reply::err(ErrorCode::Semantics, "malformed list arguments");
                };
                let keys: Vec<Scalar> = self.disk.list(ns).into_iter().map(Scalar::Str).collect();
                Reply::ok_with(|c| {
                    c.arg("count", keys.len() as i64)
                        .arg("keys", Value::Vector(keys))
                })
            }
            "psDigest" => {
                let digest = match (
                    cmd.get_text("ns"),
                    cmd.get_vector("keys"),
                    cmd.get_text("root"),
                    cmd.get_vector("buckets"),
                ) {
                    (None, None, Some(root), None) => {
                        let tree = self.disk.tree();
                        if parse_hash_word(root) == Some(tree_root(&tree)) {
                            return Reply::ok_with(|c| c.arg("same", true));
                        }
                        let hashes = tree.iter().map(|&h| Scalar::Word(hash_word(h))).collect();
                        return Reply::ok_with(|c| {
                            c.arg("same", false).arg("hashes", Value::Vector(hashes))
                        });
                    }
                    (None, None, None, Some(buckets)) => {
                        let wanted: Option<Vec<usize>> = buckets
                            .iter()
                            .map(|b| match b {
                                Scalar::Int(b) => {
                                    usize::try_from(*b).ok().filter(|&b| b < SYNC_BUCKETS)
                                }
                                _ => None,
                            })
                            .collect();
                        let Some(wanted) = wanted else {
                            return Reply::err(ErrorCode::Semantics, "no such hash-tree bucket");
                        };
                        self.disk.digest_buckets(&wanted)
                    }
                    (Some(ns), Some(keys), None, None) => self
                        .disk
                        .digest_of(ns, keys.iter().filter_map(Scalar::as_text)),
                    (None, None, None, None) => self.disk.digest(),
                    _ => {
                        return Reply::err(
                            ErrorCode::Semantics,
                            "`ns` and `keys` go together; `root` and `buckets` each go alone",
                        )
                    }
                };
                Reply::ok_with(|c| {
                    c.arg("count", digest.len() as i64)
                        .arg("entries", digest_to_value(digest))
                })
            }
            "psSync" => {
                if let Some(nudge) = &self.nudge {
                    let _ = nudge.send(());
                }
                Reply::ok()
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }

    /// Re-export WAL and sync state into the daemon's unified metrics
    /// registry, so `aceStats` carries them alongside the framework's own
    /// counters — among them the disk's footprint (`liveBytes`,
    /// `snapshotBytes`, `logBytes`), its rewrite volume (`compactedBytes`),
    /// the damaged records it refused (`damaged`) and what the key
    /// directory holds in memory (`mem.store.<name>.bytes`), the cut a
    /// rebuild is streaming (`mem.store.<name>.cutBytes`) and the
    /// process's pages in use and free (`mem.pages.held`,
    /// `mem.pages.free`), read only here, when pulled.  Series are keyed by
    /// the daemon name
    /// (`store.<name>.entries`): co-located replicas whose stats land in
    /// one registry (or one downstream aggregation) must stay distinct
    /// series, not overwrite each other.
    fn on_stats(&mut self, ctx: &mut ServiceCtx) {
        let name = ctx.name().to_string();
        let m = ctx.metrics();
        let gauge = |suffix: &str| m.gauge(&format!("store.{name}.{suffix}"));
        gauge("entries").set(self.disk.len() as i64);
        let sync = [
            ("syncs", &self.stats.syncs),
            ("syncEqual", &self.stats.sync_equal),
            ("syncBuckets", &self.stats.sync_buckets),
            ("syncRows", &self.stats.sync_rows),
            ("pulled", &self.stats.pulled),
            ("pullErrors", &self.stats.pull_errors),
        ];
        for (suffix, count) in sync {
            gauge(suffix).set(count.load(Ordering::Relaxed) as i64);
        }
        gauge("leasedGets").set(self.leased_gets as i64);
        gauge("leasedRefusals").set(self.leased_refusals as i64);
        let bytes = self.disk.bytes();
        gauge("liveBytes").set(bytes.live as i64);
        m.gauge(&format!("mem.store.{name}.bytes"))
            .set(self.disk.directory_bytes() as i64);
        let cut = self.snap_cache.as_ref().map_or(0, Pages::len);
        m.gauge(&format!("mem.store.{name}.cutBytes"))
            .set(cut as i64);
        let pages = page_bytes();
        m.gauge("mem.pages.held").set(pages.held as i64);
        m.gauge("mem.pages.free").set(pages.free as i64);
        let wal = self.disk.wal_stats().unwrap_or_default();
        let gauge = |suffix: &str| m.gauge(&format!("wal.{name}.{suffix}"));
        gauge("appends").set(wal.appends as i64);
        gauge("compactions").set(wal.compactions as i64);
        gauge("appendFailures").set(wal.append_failures as i64);
        gauge("batches").set(wal.batches as i64);
        gauge("fsyncs").set(wal.fsyncs as i64);
        gauge("snapshotBytes").set(bytes.snapshot as i64);
        gauge("logBytes").set(bytes.log as i64);
        gauge("compactedBytes").set(wal.compacted_bytes as i64);
        gauge("damaged").set(wal.damaged as i64);
    }
}

impl Drop for StoreReplica {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(nudge) = &self.nudge {
            let _ = nudge.send(());
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_applies_only_newer() {
        let disk = DiskImage::new();
        let key = ("ns".to_string(), "k".to_string());
        let v1 = Versioned {
            data: b"one".to_vec(),
            version: 1,
            writer: "a".into(),
            deleted: false,
        };
        let v2 = Versioned {
            data: b"two".to_vec(),
            version: 2,
            writer: "a".into(),
            deleted: false,
        };
        assert!(disk.apply(key.clone(), v1.clone()).unwrap());
        assert!(disk.apply(key.clone(), v2.clone()).unwrap());
        assert!(
            !disk.apply(key.clone(), v1).unwrap(),
            "stale write rejected"
        );
        assert_eq!(disk.get(&key).unwrap().data, b"two");
    }

    #[test]
    fn tombstones_hide_from_list_but_stay_in_digest() {
        let disk = DiskImage::new();
        disk.apply(
            ("ns".into(), "k".into()),
            Versioned {
                data: b"x".to_vec(),
                version: 1,
                writer: "a".into(),
                deleted: false,
            },
        )
        .unwrap();
        assert_eq!(disk.list("ns"), vec!["k".to_string()]);
        disk.apply(
            ("ns".into(), "k".into()),
            Versioned {
                data: vec![],
                version: 2,
                writer: "a".into(),
                deleted: true,
            },
        )
        .unwrap();
        assert!(disk.list("ns").is_empty());
        assert_eq!(disk.digest().len(), 1);
    }

    #[test]
    fn checksum_tracks_convergence() {
        let a = DiskImage::new();
        let b = DiskImage::new();
        assert_eq!(a.checksum(), b.checksum());
        let value = Versioned {
            data: b"v".to_vec(),
            version: 1,
            writer: "w".into(),
            deleted: false,
        };
        a.apply(("n".into(), "k".into()), value.clone()).unwrap();
        assert_ne!(a.checksum(), b.checksum());
        b.apply(("n".into(), "k".into()), value).unwrap();
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn a_malformed_tree_reply_is_refused_not_guessed_at() {
        let words = |n: usize| Value::Vector(vec![Scalar::Word(hash_word(7)); n]);
        let reply = |hashes: Value| CmdLine::new("ok").arg("same", false).arg("hashes", hashes);
        assert_eq!(
            tree_from_reply(&reply(words(SYNC_BUCKETS))),
            Some([7; SYNC_BUCKETS])
        );
        assert_eq!(tree_from_reply(&reply(words(SYNC_BUCKETS - 1))), None);
        let mut bad = vec![Scalar::Word(hash_word(7)); SYNC_BUCKETS];
        bad[9] = Scalar::Word("x12g4".into());
        assert_eq!(tree_from_reply(&reply(Value::Vector(bad))), None);
        assert_eq!(
            tree_from_reply(&CmdLine::new("ok").arg("same", false)),
            None
        );
        assert_eq!(parse_hash_word(&hash_word(u64::MAX)), Some(u64::MAX));
    }

    /// What a snapshot peer holding `disk` answers a rebuild's `cmd`.
    fn snapshot_peer(disk: &DiskImage, cmd: &CmdLine) -> CmdLine {
        let reply = CmdLine::new("ok");
        if cmd.get_text("root").is_some() {
            let hashes = disk.tree().map(|h| Scalar::Word(hash_word(h)));
            reply
                .arg("same", false)
                .arg("hashes", Value::Vector(hashes.to_vec()))
        } else if cmd.get_vector("buckets").is_some() {
            let rows = disk.digest_buckets(&(0..SYNC_BUCKETS).collect::<Vec<_>>());
            reply.arg("entries", digest_to_value(rows))
        } else {
            let key = (cmd.get_text("ns").unwrap(), cmd.get_text("key").unwrap());
            let v = disk.get(&(key.0.into(), key.1.into())).unwrap();
            reply
                .arg("data", v.data)
                .arg("version", v.version as i64)
                .arg("writer", Value::Str(v.writer))
                .arg("deleted", v.deleted)
        }
    }

    /// A top-up whose one `psGet` fails leaves that key behind and fails
    /// the ship; with every call answered it pulls all three keys.  (That a
    /// late reply answers no later call is the client's: `shell.rs`.)
    #[test]
    fn a_top_up_fails_unless_it_pulls_every_newer_key() {
        let peer = DiskImage::new();
        for (key, version) in [("a", 1), ("b", 2), ("c", 3)] {
            let value = Versioned {
                data: format!("value of {key}").into_bytes(),
                version,
                writer: "w".into(),
                deleted: false,
            };
            peer.apply(("ns".into(), key.into()), value).unwrap();
        }
        let mut fail_first_get = true;
        let rebuilt = DiskImage::new();
        let outcome = top_up(
            |cmd| {
                if cmd.name() == "psGet" && std::mem::take(&mut fail_first_get) {
                    return Err(ace_net::NetError::Timeout.into());
                }
                Ok(snapshot_peer(&peer, cmd))
            },
            &rebuilt,
        );
        assert!(outcome.is_err(), "a key was left behind: {outcome:?}");

        let rebuilt = DiskImage::new();
        let pulled = top_up(|cmd| Ok(snapshot_peer(&peer, cmd)), &rebuilt);
        assert_eq!(pulled.unwrap(), 3);
        assert_eq!(rebuilt.checksum(), peer.checksum());
    }

    /// The offset-0 `psSnapFetch` cut of a fixed three-key map (a tombstone
    /// included), byte for byte: magic, a zero header word, the count, then
    /// each CRC-framed record in key order and the body's CRC.  Compaction
    /// and shipping share this encoder, so what a replica keeps on disk can
    /// change only together with what it ships.
    #[test]
    fn a_shipped_snapshot_keeps_its_bytes() {
        let disk = DiskImage::new();
        for (key, version, writer, data) in [
            ("a", 1, "w1", "one"),
            ("b", 7, "w2", "seven"),
            ("c", 3, "w1", ""),
        ] {
            let value = Versioned {
                data: data.as_bytes().to_vec(),
                version,
                writer: writer.into(),
                deleted: key == "c",
            };
            disk.apply(("ns".into(), key.into()), value).unwrap();
        }
        let hex: String = disk
            .snapshot_cut()
            .unwrap()
            .to_vec()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "4143534e415030310000000000000000030000001b0000006b37080302006e73\
             01006101000000000000000200773100030000006f6e651d000000b449704f02\
             006e730100620700000000000000020077320005000000736576656e18000000\
             e67d856e02006e7301006303000000000000000200773101000000001cbae2d1"
        );
    }

    #[test]
    fn durable_image_recovers_and_resets_on_corruption() {
        use crate::wal::MemStorage;
        let storage = MemStorage::new();
        let handle = StorageHandle::Memory(storage.clone());
        let (disk, report) = DiskImage::open(&handle, WalConfig::default()).unwrap();
        assert!(!report.reset);
        disk.apply(
            ("ns".into(), "k".into()),
            Versioned {
                data: b"v".to_vec(),
                version: 1,
                writer: "w".into(),
                deleted: false,
            },
        )
        .unwrap();
        // Reopen (crash + respawn): the write is still there.
        let (disk2, report) = DiskImage::open_or_reset(&handle, WalConfig::default()).unwrap();
        assert_eq!(report.replayed_records, 1);
        assert_eq!(disk2.get(&("ns".into(), "k".into())).unwrap().data, b"v");
        // Corrupt the log in place: open refuses, open_or_reset resets.
        let mut bytes = storage.log_bytes();
        bytes[10] ^= 0x40;
        storage.set_log_bytes(bytes);
        assert!(matches!(
            DiskImage::open(&handle, WalConfig::default()),
            Err(StoreError::Corrupt { .. })
        ));
        let (disk3, report) = DiskImage::open_or_reset(&handle, WalConfig::default()).unwrap();
        assert!(report.reset);
        assert!(
            disk3.is_empty(),
            "reset image starts empty for anti-entropy"
        );
    }
}
