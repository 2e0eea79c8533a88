//! Crash-consistency tests for the store's write-ahead log.
//!
//! The headline property: a replica killed at **any byte offset** of a WAL
//! append recovers with no acknowledged write lost and no undetected
//! corruption.  These tests iterate every crash offset deterministically —
//! no randomness, no timing — so a failure pinpoints the exact torn byte.

use ace_net::fault::{StorageFault, StorageFaultHub};
use ace_net::HostId;
use ace_store::wal::{frame_record, COMPACT_FLOOR};
use ace_store::{
    DiskBytes, DiskImage, MemStorage, StorageHandle, StoreError, Versioned, WalConfig,
};
use std::collections::HashMap;

fn value(version: u64, data: &[u8]) -> Versioned {
    Versioned {
        data: data.to_vec(),
        version,
        writer: "rsa:test:10001".into(),
        deleted: false,
    }
}

fn key(k: &str) -> (String, String) {
    ("chaos".to_string(), k.to_string())
}

/// Kill-at-any-byte: for every crash offset within (and one past) the next
/// record's framing, tear the append there, then recover and check that
/// every *acknowledged* write survives byte-for-byte and the unacked one
/// either vanished cleanly or applied completely — never half.
#[test]
fn kill_at_any_byte_offset_loses_no_acked_write() {
    let probe = frame_record(&key("k-next"), &value(100, b"the write under test"));
    for crash_at in 0..=probe.len() as u64 {
        let hub = StorageFaultHub::new();
        let host = HostId::from("s1");
        let storage = MemStorage::new().with_faults(hub.clone(), host.clone());
        let handle = StorageHandle::Memory(storage);

        // A replica acknowledges some writes...
        let (disk, _) = DiskImage::open(&handle, WalConfig::default()).unwrap();
        let mut acked = Vec::new();
        for i in 0..5u64 {
            let (k, v) = (key(&format!("k{i}")), value(i + 1, &[i as u8; 9]));
            assert!(disk.apply(k.clone(), v.clone()).unwrap());
            acked.push((k, v));
        }

        // ...then the host dies `crash_at` bytes into the next append.
        hub.arm(&host, StorageFault::CrashAtByte(crash_at));
        let attempt = disk.apply(key("k-next"), value(100, b"the write under test"));

        // Recovery on the respawn path.
        let (recovered, report) = DiskImage::open_or_reset(&handle, WalConfig::default())
            .unwrap_or_else(|e| panic!("crash at byte {crash_at}: recovery failed: {e}"));
        assert!(
            !report.reset,
            "crash at byte {crash_at}: a clean tear must never read as corruption"
        );
        for (k, v) in &acked {
            assert_eq!(
                recovered.get(k).as_ref(),
                Some(v),
                "crash at byte {crash_at}: acked write {k:?} lost or mangled"
            );
        }
        // The torn write is all-or-nothing, and "all" only when the full
        // record reached the disk (in which case it was merely unacked).
        match recovered.get(&key("k-next")) {
            None => assert!(
                attempt.is_err(),
                "crash at byte {crash_at}: acked write vanished"
            ),
            Some(v) => assert_eq!(
                v,
                value(100, b"the write under test"),
                "crash at byte {crash_at}: partial write became visible"
            ),
        }
    }
}

/// Group commit under kill-at-any-byte: tear a *batch* commit at every
/// offset of its concatenated record stream.  The batch must fail as a
/// unit (no ticket acks), earlier acked writes survive, and unacked batch
/// records may reappear after recovery only as a clean record-aligned
/// prefix of the batch — never a hole, never a torn record.
#[test]
fn crash_at_any_byte_of_a_batch_commit_is_prefix_atomic() {
    let entries: Vec<((String, String), Versioned)> = (0..3u64)
        .map(|i| (key(&format!("b{i}")), value(10 + i, &[0xc3 ^ i as u8; 11])))
        .collect();
    let total: usize = entries.iter().map(|(k, v)| frame_record(k, v).len()).sum();
    for crash_at in 0..=total as u64 {
        let hub = StorageFaultHub::new();
        let host = HostId::from("s1");
        let storage = MemStorage::new().with_faults(hub.clone(), host.clone());
        let handle = StorageHandle::Memory(storage);
        let (disk, _) = DiskImage::open(&handle, WalConfig::default()).unwrap();
        assert!(disk.apply(key("acked"), value(1, b"safe")).unwrap());

        hub.arm(&host, StorageFault::CrashAtByte(crash_at));
        assert!(
            disk.apply_batch(entries.clone()).is_err(),
            "crash at byte {crash_at}: batch acked through a crash"
        );

        let (recovered, report) = DiskImage::open_or_reset(&handle, WalConfig::default())
            .unwrap_or_else(|e| panic!("crash at byte {crash_at}: recovery failed: {e}"));
        assert!(
            !report.reset,
            "crash at byte {crash_at}: a clean tear must never read as corruption"
        );
        assert_eq!(
            recovered.get(&key("acked")).unwrap().data,
            b"safe",
            "crash at byte {crash_at}: acked write lost"
        );
        let visible: Vec<bool> = (0..3)
            .map(|i| recovered.get(&key(&format!("b{i}"))).is_some())
            .collect();
        let survivors = visible.iter().position(|v| !v).unwrap_or(visible.len());
        assert!(
            visible[survivors..].iter().all(|v| !v),
            "crash at byte {crash_at}: non-prefix batch survival {visible:?}"
        );
        for (i, (k, v)) in entries.iter().take(survivors).enumerate() {
            assert_eq!(
                recovered.get(k).as_ref(),
                Some(v),
                "crash at byte {crash_at}: surviving batch record {i} mangled"
            );
        }
    }
}

/// Concurrent writers on one image, the disk killed under them: no writer
/// that saw `Ok` may lose its record, whichever append the crash tore.
#[test]
fn concurrent_writers_crash_mid_append_lose_nothing_acked() {
    const WRITERS: u64 = 8;
    for crash_at in [0u64, 1, 9, 25, 47, 80, 133, 190] {
        let hub = StorageFaultHub::new();
        let host = HostId::from("s1");
        let storage = MemStorage::new().with_faults(hub.clone(), host.clone());
        let handle = StorageHandle::Memory(storage);
        let config = WalConfig::default();
        let (disk, _) = DiskImage::open(&handle, config.clone()).unwrap();
        let mut acked = Vec::new();
        for i in 0..3u64 {
            let (k, v) = (key(&format!("pre{i}")), value(i + 1, &[i as u8; 7]));
            assert!(disk.apply(k.clone(), v.clone()).unwrap());
            acked.push((k, v));
        }

        hub.arm(&host, StorageFault::CrashAtByte(crash_at));
        let barrier = std::sync::Barrier::new(WRITERS as usize);
        let results: Vec<((String, String), Versioned, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..WRITERS)
                .map(|i| {
                    let (disk, barrier) = (disk.clone(), &barrier);
                    s.spawn(move || {
                        let (k, v) = (key(&format!("w{i}")), value(100 + i, &[0x40 | i as u8; 13]));
                        barrier.wait();
                        let ok = disk.apply(k.clone(), v.clone()).is_ok();
                        (k, v, ok)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let (recovered, report) = DiskImage::open_or_reset(&handle, config)
            .unwrap_or_else(|e| panic!("crash at byte {crash_at}: recovery failed: {e}"));
        assert!(
            !report.reset,
            "crash at byte {crash_at}: a clean tear must never read as corruption"
        );
        for (k, v) in &acked {
            assert_eq!(
                recovered.get(k).as_ref(),
                Some(v),
                "crash at byte {crash_at}: pre-crash acked write {k:?} lost"
            );
        }
        for (k, v, ok) in &results {
            match recovered.get(k) {
                Some(got) => assert_eq!(
                    &got, v,
                    "crash at byte {crash_at}: surviving write {k:?} mangled"
                ),
                None => assert!(
                    !ok,
                    "crash at byte {crash_at}: acked concurrent write {k:?} lost"
                ),
            }
        }
    }
}

/// A replica's two writers — its daemon task applying client writes, its
/// sync worker applying pulled newer versions of half of those keys — race
/// on one durable image that compacts every few writes, and the host dies
/// partway through each round.  After every reopen, each key is at the
/// newest version either writer saw acknowledged.  It fails if a write is
/// logged outside the lock it is published under: a compaction in between
/// snapshots a map without the record and truncates the log that held it,
/// and only the next compaction would put it back.
#[test]
fn writes_racing_pulls_through_compactions_lose_no_acked_write() {
    const ROUNDS: u64 = 40;
    const WRITES: u64 = 100;
    let storage = MemStorage::new();
    let handle = StorageHandle::Memory(storage.clone());
    let config = WalConfig {
        compact_threshold: 256,
    };
    let write = |round: u64, i: u64, version: u64, writer: &str| {
        let v = Versioned {
            writer: writer.into(),
            ..value(version, &i.to_le_bytes())
        };
        (key(&format!("race{round}-{i}")), v)
    };
    let mut newest = std::collections::HashMap::new();
    let mut compactions = 0;
    for round in 0..=ROUNDS {
        let (disk, report) = DiskImage::open(&handle, config.clone()).unwrap();
        assert!(!report.reset);
        for (k, v) in &newest {
            assert_eq!(
                disk.get(k).as_ref(),
                Some(v),
                "before round {round}: the newest acked version of {k:?} is lost"
            );
        }
        if round == ROUNDS {
            break;
        }
        // Crash the host after this many more segment writes (appends and
        // the three writes of each compaction).
        storage.crash_after_writes(40 + round * 7 % 60);
        let barrier = std::sync::Barrier::new(2);
        let (client_acks, pulled_acks) = std::thread::scope(|s| {
            let client = s.spawn(|| {
                barrier.wait();
                let mut acked = Vec::new();
                for i in 0..WRITES {
                    let (k, v) = write(round, i, 1, "client");
                    match disk.propose(k, v) {
                        Ok(None) => acked.push(i),
                        Ok(Some(_)) => {}
                        Err(_) => break,
                    }
                }
                acked
            });
            let puller = s.spawn(|| {
                barrier.wait();
                let mut acked = Vec::new();
                for i in (0..WRITES).step_by(2) {
                    let (k, v) = write(round, i, 2, "peer");
                    match disk.apply(k, v) {
                        Ok(true) => acked.push(i),
                        Ok(false) => {}
                        Err(_) => break,
                    }
                }
                acked
            });
            (client.join().unwrap(), puller.join().unwrap())
        });
        compactions += disk.wal_stats().unwrap().compactions;
        // A pull is newer than the client's write of its key, so it wins.
        for i in client_acks {
            let (k, v) = write(round, i, 1, "client");
            newest.insert(k, v);
        }
        for i in pulled_acks {
            let (k, v) = write(round, i, 2, "peer");
            newest.insert(k, v);
        }
    }
    assert!(
        newest.len() > 1000,
        "rounds crashed too early: {}",
        newest.len()
    );
    assert!(
        compactions > 4 * ROUNDS,
        "too few compactions: {compactions}"
    );
}

/// A torn write (transient media failure, replica survives) repairs the
/// log in place: later writes land on a clean record boundary.
#[test]
fn torn_write_then_more_writes_then_crash_recovers_all_acked() {
    let hub = StorageFaultHub::new();
    let host = HostId::from("s1");
    let storage = MemStorage::new().with_faults(hub.clone(), host.clone());
    let handle = StorageHandle::Memory(storage);
    let (disk, _) = DiskImage::open(&handle, WalConfig::default()).unwrap();

    assert!(disk.apply(key("a"), value(1, b"first")).unwrap());
    hub.arm(&host, StorageFault::TornWrite(3));
    assert!(matches!(
        disk.apply(key("b"), value(2, b"torn")),
        Err(StoreError::Io(_))
    ));
    assert!(disk.apply(key("c"), value(3, b"after")).unwrap());

    let (recovered, report) = DiskImage::open_or_reset(&handle, WalConfig::default()).unwrap();
    assert!(!report.reset);
    assert_eq!(recovered.get(&key("a")).unwrap().data, b"first");
    assert_eq!(recovered.get(&key("c")).unwrap().data, b"after");
    assert!(recovered.get(&key("b")).is_none(), "unacked write replayed");
}

/// A latent bit flip is *detected* at recovery: `open` refuses, and the
/// controlled path resets for an anti-entropy rebuild — corrupt data is
/// never served as valid.
#[test]
fn bit_flip_is_detected_and_leads_to_controlled_reset() {
    let hub = StorageFaultHub::new();
    let host = HostId::from("s1");
    let storage = MemStorage::new().with_faults(hub.clone(), host.clone());
    let handle = StorageHandle::Memory(storage);
    let (disk, _) = DiskImage::open(&handle, WalConfig::default()).unwrap();

    assert!(disk.apply(key("a"), value(1, b"victim bytes")).unwrap());
    // The flip lands in the already-persisted record; the append carrying
    // it succeeds (latent damage).
    hub.arm(&host, StorageFault::BitFlip(40));
    assert!(disk.apply(key("b"), value(2, b"carrier")).unwrap());

    match DiskImage::open(&handle, WalConfig::default()) {
        Err(StoreError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let (recovered, report) = DiskImage::open_or_reset(&handle, WalConfig::default()).unwrap();
    assert!(report.reset, "corruption must be reported as a reset");
    assert!(recovered.is_empty(), "reset replica must start empty");
}

/// Compaction under a crash: killing the replica right after the log has
/// been compacted into a snapshot still recovers the full state.  (Fails if
/// a write compacts before it is published.)
#[test]
fn recovery_after_compaction_sees_snapshot_plus_tail() {
    let handle = StorageHandle::Memory(MemStorage::new());
    let config = WalConfig {
        compact_threshold: 512,
    };
    let (disk, _) = DiskImage::open(&handle, config.clone()).unwrap();
    for i in 0..200u64 {
        disk.apply(key(&format!("k{}", i % 17)), value(i + 1, &[0x5a; 21]))
            .unwrap();
    }
    let wal = disk.wal_stats().unwrap();
    assert!(wal.compactions >= 1, "threshold never triggered compaction");

    let (recovered, report) = DiskImage::open_or_reset(&handle, config).unwrap();
    assert!(report.snapshot_records > 0, "snapshot not used in recovery");
    assert_eq!(recovered.len(), 17);
    for i in 0..17u64 {
        let got = recovered.get(&key(&format!("k{i}"))).unwrap();
        let expected_version = (0..200u64)
            .filter(|n| n % 17 == i)
            .map(|n| n + 1)
            .max()
            .unwrap();
        assert_eq!(got.version, expected_version, "key k{i} regressed");
    }
}

/// One compaction stopped between any two of its writes.  A compaction is
/// three writes: the log append whose record pushes the log over the
/// threshold, the snapshot replace, and the log reset.  Invariants: a crash
/// armed at any step reopens with every acked write; and a compaction that
/// ran to the end leaves nothing in the log to replay.  Fails if the log is
/// emptied before the snapshot lands, or if a write compacts before it is
/// published.
#[test]
fn a_compaction_keeps_one_slot_and_a_crash_at_any_step_loses_no_acked_write() {
    const THRESHOLD: u64 = 512;
    let config = WalConfig {
        compact_threshold: THRESHOLD,
    };
    for crash_after in 0..=3u64 {
        let storage = MemStorage::new();
        let handle = StorageHandle::Memory(storage.clone());
        let (disk, _) = DiskImage::open(&handle, config.clone()).unwrap();
        let mut acked = std::collections::HashMap::new();
        // Write through one compaction, up to the record that starts the
        // second: that write is the one the crash is armed under.
        let mut i = 0u64;
        let (trigger_key, trigger) = loop {
            let (k, v) = (key(&format!("k{}", i % 13)), value(i + 1, &[i as u8; 40]));
            i += 1;
            let log = storage.log_bytes().len() + frame_record(&k, &v).len();
            if disk.wal_stats().unwrap().compactions == 1 && log as u64 > THRESHOLD {
                break (k, v);
            }
            assert!(disk.apply(k.clone(), v.clone()).unwrap());
            acked.insert(k, v);
        };
        assert!(
            storage.snapshot_len() > 0,
            "the first compaction wrote none"
        );

        storage.crash_after_writes(crash_after);
        let attempt = disk.apply(trigger_key.clone(), trigger.clone());
        if crash_after == 3 {
            assert_eq!(disk.wal_stats().unwrap().compactions, 2);
        }

        let (recovered, report) = DiskImage::open_or_reset(&handle, config.clone())
            .unwrap_or_else(|e| panic!("crash after {crash_after} writes: recovery failed: {e}"));
        assert!(
            !report.reset,
            "crash after {crash_after} writes: read as corruption"
        );
        for (k, v) in &acked {
            assert_eq!(
                recovered.get(k).as_ref(),
                Some(v),
                "crash after {crash_after} writes: acked write {k:?} lost"
            );
        }
        assert!(report.snapshot_records > 0);
        match attempt {
            Ok(_) => assert_eq!(recovered.get(&trigger_key), Some(trigger)),
            Err(_) => assert!(crash_after == 0, "only the append can refuse the write"),
        }
        if crash_after == 3 {
            assert_eq!(
                report.replayed_records, 0,
                "crash after {crash_after} writes: the log was not reset"
            );
        }
    }
}

/// The same recovery contract holds on real files (temp dir kept inside
/// the workspace `target/` tree).
#[test]
fn file_backend_roundtrips_and_truncates_torn_tail() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "wal-file-{}-{}",
        std::process::id(),
        line!()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = StorageHandle::Dir(dir.clone());

    let (disk, _) = DiskImage::open(&handle, WalConfig::default()).unwrap();
    for i in 0..20u64 {
        disk.apply(key(&format!("k{i}")), value(i + 1, b"file-backed"))
            .unwrap();
    }
    drop(disk);

    // Tear the log file mid-record, as a power cut would.
    let log = dir.join("wal.log");
    let bytes = std::fs::read(&log).unwrap();
    std::fs::write(&log, &bytes[..bytes.len() - 7]).unwrap();

    let (recovered, report) = DiskImage::open_or_reset(&handle, WalConfig::default()).unwrap();
    assert!(!report.reset);
    assert!(
        report.torn_bytes > 0,
        "the partial record is reported as a torn tail"
    );
    assert_eq!(recovered.len(), 19, "all but the torn record recovered");
    for i in 0..19u64 {
        assert!(recovered.get(&key(&format!("k{i}"))).is_some());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// File-backend compaction commits snapshots atomically (tmp + rename) and
/// survives reopen.
#[test]
fn file_backend_compaction_survives_reopen() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "wal-file-{}-{}",
        std::process::id(),
        line!()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = StorageHandle::Dir(dir.clone());
    let config = WalConfig {
        compact_threshold: 1024,
    };

    let (disk, _) = DiskImage::open(&handle, config.clone()).unwrap();
    for i in 0..300u64 {
        disk.apply(key(&format!("k{}", i % 11)), value(i + 1, &[0xb7; 33]))
            .unwrap();
    }
    assert!(disk.wal_stats().unwrap().compactions >= 1);
    drop(disk);
    let snapshot = std::fs::metadata(dir.join("snap.bin")).map_or(0, |m| m.len());
    assert!(snapshot > 0, "the compaction's snapshot is on disk");

    let (recovered, report) = DiskImage::open_or_reset(&handle, config).unwrap();
    assert!(report.snapshot_records > 0);
    assert_eq!(recovered.len(), 11);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reopening storage fences the previous instance: a zombie replica that
/// survived its own "crash" can no longer write behind the successor.
#[test]
fn reopen_fences_zombie_replica() {
    let handle = StorageHandle::Memory(MemStorage::new());
    let (zombie, _) = DiskImage::open(&handle, WalConfig::default()).unwrap();
    zombie.apply(key("a"), value(1, b"before")).unwrap();

    let (successor, _) = DiskImage::open_or_reset(&handle, WalConfig::default()).unwrap();
    assert!(matches!(
        zombie.apply(key("b"), value(2, b"zombie write")),
        Err(StoreError::Io(_))
    ));
    successor.apply(key("c"), value(3, b"real write")).unwrap();

    let (final_state, _) = DiskImage::open_or_reset(&handle, WalConfig::default()).unwrap();
    assert!(final_state.get(&key("a")).is_some());
    assert!(final_state.get(&key("b")).is_none(), "zombie write landed");
    assert!(final_state.get(&key("c")).is_some());
}

/// acebench's cap: far above the state its shard replicas hold, so the
/// cap alone never compacts them.
const BENCH_CAP: u64 = 4 << 20;

/// The compaction rule's bound.  At a 4 MiB cap, 1,000 fresh 1 KiB keys and
/// then 5,000 overwrites never leave more than `max(2·live, floor)` plus
/// one record on disk (snapshot + log), where the cap alone would let the
/// log grow to 4 MiB over a ~1 MiB state.  The image's own account of its
/// bytes is exact after every write.  Each compaction is followed by a
/// reopen, which must equal the map; the reopened image, whose live size
/// recovery computed, carries on.  Fails under the cap-only gate, and with
/// `live` not decremented on an overwrite.
#[test]
fn a_disk_never_holds_more_than_twice_its_live_state() {
    let storage = MemStorage::new();
    let handle = StorageHandle::Memory(storage.clone());
    let config = WalConfig {
        compact_threshold: BENCH_CAP,
    };
    let (mut disk, _) = DiskImage::open(&handle, config.clone()).unwrap();
    let reopen_equals = |map: &HashMap<(String, String), Versioned>| {
        let (reopened, _) = DiskImage::open(&handle, config.clone()).unwrap();
        assert_eq!(reopened.len(), map.len());
        for (k, v) in map {
            assert_eq!(reopened.get(k).as_ref(), Some(v), "{k:?} after a reopen");
        }
        reopened
    };
    let mut map = HashMap::new();
    let (mut live, mut compactions) = (0u64, 0);
    for i in 0..6_000u64 {
        let (k, v) = (
            key(&format!("k{:04}", i % 1_000)),
            value(i + 1, &[(i % 251) as u8; 1024]),
        );
        let record = frame_record(&k, &v).len() as u64;
        assert!(disk.apply(k.clone(), v.clone()).unwrap());
        live += record;
        if let Some(old) = map.insert(k.clone(), v) {
            live -= frame_record(&k, &old).len() as u64;
        }
        let (snapshot, log) = (
            storage.snapshot_len() as u64,
            storage.log_bytes().len() as u64,
        );
        assert_eq!(
            disk.bytes(),
            DiskBytes {
                live,
                snapshot,
                log
            },
            "write {i}"
        );
        assert!(
            snapshot + log <= (2 * live).max(COMPACT_FLOOR) + record,
            "write {i}: {snapshot} B snapshot + {log} B log for {live} B live"
        );
        if log == 0 {
            compactions += 1;
            disk = reopen_equals(&map);
        }
    }
    assert!(compactions >= 3, "only {compactions} compactions");
    reopen_equals(&map);
}

/// A load of fresh keys never compacts: its log *is* the state it logs,
/// so compacting would reclaim nothing.  This is acebench's `store
/// preload` stage, which `setup_s` times: 1,000 fresh 1 KiB keys in
/// batches of 256 at a 4 MiB cap.  The first batch of overwrites after it
/// does not compact either: the log is then not yet twice the state.
/// Fails under "compact once the log exceeds the snapshot" and under
/// "compact once the log exceeds the live state".
#[test]
fn fresh_keys_never_compact() {
    let (disk, _) = DiskImage::open(
        &StorageHandle::Memory(MemStorage::new()),
        WalConfig {
            compact_threshold: BENCH_CAP,
        },
    )
    .unwrap();
    let batch = |keys: std::ops::Range<u64>, version: u64| -> Vec<_> {
        keys.map(|i| (key(&format!("k{i:04}")), value(version, &[i as u8; 1024])))
            .collect()
    };
    for start in (0..1_000).step_by(256) {
        let fresh = batch(start..(start + 256).min(1_000), 1);
        let len = fresh.len();
        assert_eq!(disk.apply_batch(fresh).unwrap(), len);
    }
    assert_eq!(
        disk.wal_stats().unwrap().compactions,
        0,
        "the load compacted"
    );
    assert_eq!(disk.apply_batch(batch(0..256, 2)).unwrap(), 256);
    assert_eq!(
        disk.wal_stats().unwrap().compactions,
        0,
        "the first overwrites compacted"
    );
}
