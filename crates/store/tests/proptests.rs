//! Property tests on the store's convergence model: for any interleaving of
//! writes across replicas, pairwise anti-entropy converges every disk to
//! the same contents, and the winner of each key is the globally maximal
//! `(version, writer)` pair.

use ace_store::{
    sync_tree, DiskImage, MemStorage, StorageHandle, StoreKey, SyncTree, Versioned, WalConfig,
};
use proptest::prelude::*;

/// One generated write.
#[derive(Debug, Clone)]
struct Op {
    replica: usize,
    key: u8,
    version: u64,
    writer: u8,
    delete: bool,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The real system guarantees that a (version, writer) pair uniquely
    // determines a write (writers are distinct principals and bump their
    // own versions), so content derives deterministically from the pair.
    (0usize..3, any::<u8>(), 1u64..16, 0u8..4).prop_map(|(replica, key, version, writer)| Op {
        replica,
        key: key % 8,
        version,
        writer,
        delete: (version + writer as u64).is_multiple_of(3),
    })
}

impl Op {
    fn entry(&self) -> (StoreKey, Versioned) {
        (
            ("ns".into(), format!("k{}", self.key)),
            Versioned {
                data: format!("v{}w{}", self.version, self.writer).into_bytes(),
                version: self.version,
                writer: format!("w{}", self.writer),
                deleted: self.delete,
            },
        )
    }
}

/// Pull-based pairwise sync, `a` from `b`, by the sync worker's three steps
/// on bare images: compare roots (`psDigest root=`), find the buckets where
/// `b`'s tree differs from `a`'s (`same=false hashes=`), and pull what is
/// newer among those buckets' rows (`psDigest buckets=`).
fn pull(a: &DiskImage, b: &DiskImage) {
    if a.checksum() == b.checksum() {
        return;
    }
    for (ns, key, _, _) in b.digest_buckets(&a.differing_buckets(&b.tree())) {
        let k = (ns, key);
        let remote = b.get(&k).expect("digested");
        a.apply(k, remote).unwrap();
    }
}

/// The reference the tree replaced: `a` pulls from `b`'s full digest.
fn pull_full_digest(a: &DiskImage, b: &DiskImage) {
    for (ns, key, _, _) in b.digest() {
        let k = (ns, key);
        let remote = b.get(&k).expect("digested");
        a.apply(k, remote).unwrap();
    }
}

/// Everything an image holds, values included, in digest order.
fn contents(disk: &DiskImage) -> Vec<(StoreKey, Versioned)> {
    disk.digest()
        .into_iter()
        .map(|(ns, key, _, _)| {
            let k = (ns, key);
            let v = disk.get(&k).expect("digested");
            (k, v)
        })
        .collect()
}

/// The tree of what the image holds now, from scratch.
fn recomputed_tree(disk: &DiskImage) -> SyncTree {
    let rows = disk.digest();
    sync_tree(
        rows.iter().map(|(ns, key, version, writer)| {
            (ns.as_str(), key.as_str(), *version, writer.as_str())
        }),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any write sequence + enough sync rounds ⇒ all replicas identical,
    /// and each key holds the maximal (version, writer) value.
    #[test]
    fn anti_entropy_converges(ops in prop::collection::vec(op_strategy(), 1..64)) {
        let disks = [DiskImage::new(), DiskImage::new(), DiskImage::new()];
        for op in &ops {
            let (key, value) = op.entry();
            disks[op.replica].apply(key, value).unwrap();
        }
        // Two full rounds of pairwise pulls guarantee propagation through
        // any 3-node topology.
        for _ in 0..2 {
            for i in 0..3 {
                for j in 0..3 {
                    if i != j {
                        pull(&disks[i], &disks[j]);
                    }
                }
            }
        }
        prop_assert_eq!(disks[0].checksum(), disks[1].checksum());
        prop_assert_eq!(disks[1].checksum(), disks[2].checksum());

        // Winner per key = maximal (version, writer) among all ops on it.
        for key in 0u8..8 {
            let expected = ops
                .iter()
                .filter(|o| o.key == key)
                .max_by_key(|o| (o.version, format!("w{}", o.writer)));
            let stored = disks[0].get(&("ns".into(), format!("k{key}")));
            match (expected, stored) {
                (None, None) => {}
                (Some(op), Some(v)) => {
                    prop_assert_eq!(v.version, op.version);
                    prop_assert_eq!(v.writer, format!("w{}", op.writer));
                    prop_assert_eq!(v.deleted, op.delete);
                }
                (e, s) => prop_assert!(false, "mismatch: {e:?} vs {s:?}"),
            }
        }
    }

    /// Invariant: pulling through the hash tree leaves every image in
    /// exactly the state pulling from the full digest leaves it — after
    /// each single pull, not just at convergence — including when most of
    /// what the differing buckets hold is the same on both sides.
    #[test]
    fn tree_pull_equals_full_digest_pull(ops in prop::collection::vec(op_strategy(), 1..64)) {
        let build = || {
            let disks = [DiskImage::new(), DiskImage::new(), DiskImage::new()];
            for disk in &disks {
                for i in 0..96u64 {
                    let shared = Op { replica: 0, key: 0, version: 1 + i % 3, writer: 0, delete: false };
                    disk.apply(("base".into(), format!("b{i}")), shared.entry().1).unwrap();
                }
            }
            for op in &ops {
                let (key, value) = op.entry();
                disks[op.replica].apply(key, value).unwrap();
            }
            disks
        };
        let (by_tree, by_digest) = (build(), build());
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    pull(&by_tree[i], &by_tree[j]);
                    pull_full_digest(&by_digest[i], &by_digest[j]);
                    prop_assert_eq!(contents(&by_tree[i]), contents(&by_digest[i]));
                }
            }
        }
    }

    /// Invariant: the tree an image maintains incrementally is the tree of
    /// its digest, whatever mix of single writes, batches, snapshot
    /// installs, compactions and crash-reopens produced it.  (Fails if a
    /// write compacts before it is published.)
    #[test]
    fn tree_tracks_the_digest_through_every_mutation(
        steps in prop::collection::vec(
            (0u8..4, prop::collection::vec(op_strategy(), 0..6)),
            1..24,
        ),
    ) {
        let handle = StorageHandle::Memory(MemStorage::new());
        // A threshold small enough that some runs compact, so reopening
        // recovers from a snapshot plus a log tail, not the log alone.
        let config = WalConfig { compact_threshold: 512 };
        let (mut disk, _) = DiskImage::open(&handle, config.clone()).unwrap();
        for (kind, ops) in &steps {
            let entries: Vec<(StoreKey, Versioned)> = ops.iter().map(Op::entry).collect();
            match kind {
                0 => {
                    for (key, value) in entries {
                        disk.apply(key, value).unwrap();
                    }
                }
                1 => {
                    disk.apply_batch(entries).unwrap();
                }
                2 => {
                    disk.install_snapshot(entries).unwrap();
                }
                _ => {
                    let before = disk.tree();
                    disk = DiskImage::open(&handle, config.clone()).unwrap().0;
                    prop_assert_eq!(disk.tree(), before, "recovery rebuilt a different tree");
                }
            }
            prop_assert_eq!(disk.tree(), recomputed_tree(&disk));
        }
    }

    /// Applying the same set of writes in any order yields the same disk.
    #[test]
    fn apply_order_irrelevant(
        ops in prop::collection::vec(op_strategy(), 1..32),
        seed in any::<u64>(),
    ) {
        let value = |op: &Op| Versioned {
            data: vec![op.version as u8],
            version: op.version,
            writer: format!("w{}", op.writer),
            deleted: op.delete,
        };
        let a = DiskImage::new();
        for op in &ops {
            a.apply(("ns".into(), format!("k{}", op.key)), value(op)).unwrap();
        }
        // A deterministic shuffle of the same ops.
        let mut shuffled = ops.clone();
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state as usize) % (i + 1));
        }
        let b = DiskImage::new();
        for op in &shuffled {
            b.apply(("ns".into(), format!("k{}", op.key)), value(op)).unwrap();
        }
        prop_assert_eq!(a.checksum(), b.checksum());
    }

    /// `beats` is a strict total order on distinct (version, writer) pairs.
    #[test]
    fn beats_total_order(v1 in 0u64..8, w1 in 0u8..4, v2 in 0u64..8, w2 in 0u8..4) {
        let a = Versioned { data: vec![], version: v1, writer: format!("w{w1}"), deleted: false };
        let b = Versioned { data: vec![], version: v2, writer: format!("w{w2}"), deleted: false };
        if (v1, w1) == (v2, w2) {
            prop_assert!(!a.beats(&b) && !b.beats(&a));
        } else {
            prop_assert!(a.beats(&b) ^ b.beats(&a));
        }
    }

    /// Antisymmetry: `beats` never holds in both directions — the payload
    /// (data, tombstone flag) must not influence the order.
    #[test]
    fn beats_antisymmetric(
        v1 in 0u64..8, w1 in 0u8..4, d1 in any::<bool>(),
        v2 in 0u64..8, w2 in 0u8..4, d2 in any::<bool>(),
        data in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        let a = Versioned { data, version: v1, writer: format!("w{w1}"), deleted: d1 };
        let b = Versioned { data: vec![0xFF], version: v2, writer: format!("w{w2}"), deleted: d2 };
        prop_assert!(!(a.beats(&b) && b.beats(&a)));
    }

    /// Read-max-plus-one monotonicity: the client's versioning rule (read
    /// the maximal version visible anywhere, write max+1) always produces
    /// a value that beats every value it read past — regardless of the
    /// writer id — and successive rounds are strictly increasing.
    #[test]
    fn read_max_plus_one_is_monotone(
        existing in prop::collection::vec((0u64..32, 0u8..4, any::<bool>()), 1..16),
        writer in 0u8..4,
        rounds in 1usize..5,
    ) {
        let mut seen: Vec<Versioned> = existing
            .into_iter()
            .map(|(version, w, deleted)| Versioned {
                data: vec![],
                version,
                writer: format!("w{w}"),
                deleted,
            })
            .collect();
        let mut last: Option<Versioned> = None;
        for _ in 0..rounds {
            let max = seen.iter().map(|v| v.version).max().unwrap_or(0);
            let new = Versioned {
                data: vec![],
                version: max + 1,
                writer: format!("w{writer}"),
                deleted: false,
            };
            for old in &seen {
                prop_assert!(new.beats(old), "{new:?} must beat visible {old:?}");
            }
            if let Some(prev) = &last {
                prop_assert!(new.beats(prev), "successive writes must be monotone");
            }
            last = Some(new.clone());
            seen.push(new);
        }
    }
}

// ---------------------------------------------------------------------------
// WAL record codec properties
// ---------------------------------------------------------------------------

mod wal_props {
    use super::*;
    use ace_store::wal::{frame_record, replay_bytes};
    use ace_store::{StoreError, StoreKey};

    fn entry_strategy() -> impl Strategy<Value = (StoreKey, Versioned)> {
        (
            0u8..4,
            any::<u8>(),
            1u64..1000,
            0u8..4,
            any::<bool>(),
            prop::collection::vec(any::<u8>(), 0..32),
        )
            .prop_map(|(ns, key, version, writer, deleted, data)| {
                (
                    (format!("ns{ns}"), format!("k{key}")),
                    Versioned {
                        data,
                        version,
                        writer: format!("w{writer}"),
                        deleted,
                    },
                )
            })
    }

    fn concat(entries: &[(StoreKey, Versioned)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (k, v) in entries {
            bytes.extend_from_slice(&frame_record(k, v));
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Encode → replay is the identity on any record sequence.
        #[test]
        fn records_roundtrip(entries in prop::collection::vec(entry_strategy(), 0..16)) {
            let bytes = concat(&entries);
            let replay = replay_bytes(&bytes).unwrap();
            prop_assert_eq!(replay.entries, entries);
            prop_assert_eq!(replay.good_len, bytes.len() as u64);
            prop_assert_eq!(replay.torn_bytes, 0);
        }

        /// Cutting the log at ANY byte never panics and always replays a
        /// strict prefix of the original records (the crash-tear model).
        #[test]
        fn truncation_replays_a_strict_prefix(
            entries in prop::collection::vec(entry_strategy(), 1..12),
            cut in any::<u16>(),
        ) {
            let bytes = concat(&entries);
            let full = replay_bytes(&bytes).unwrap();
            let cut = (cut as usize) % (bytes.len() + 1);
            let replay = replay_bytes(&bytes[..cut]).unwrap();
            prop_assert!(replay.entries.len() <= full.entries.len());
            prop_assert_eq!(
                replay.entries.as_slice(),
                &full.entries[..replay.entries.len()]
            );
            prop_assert_eq!(replay.good_len + replay.torn_bytes, cut as u64);
        }

        /// Flipping ANY single bit never panics and never fabricates data:
        /// replay either refuses with `Corrupt`, or (when the flip turned
        /// the tail into an apparent tear) yields a strict prefix of the
        /// original records, byte-identical to what was written.
        #[test]
        fn bit_flip_never_panics_and_never_fabricates(
            entries in prop::collection::vec(entry_strategy(), 1..12),
            flip in any::<u32>(),
        ) {
            let mut bytes = concat(&entries);
            let full = replay_bytes(&bytes).unwrap();
            let bit = (flip as usize) % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            match replay_bytes(&bytes) {
                Err(StoreError::Corrupt { offset, .. }) => {
                    prop_assert!(offset <= bytes.len() as u64);
                }
                Err(e) => prop_assert!(false, "unexpected error class: {e}"),
                Ok(replay) => {
                    prop_assert!(replay.entries.len() <= full.entries.len());
                    prop_assert_eq!(
                        replay.entries.as_slice(),
                        &full.entries[..replay.entries.len()]
                    );
                }
            }
        }
    }
}
