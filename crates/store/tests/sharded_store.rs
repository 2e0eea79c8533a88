//! Integration tests of the sharded store plane: rendezvous routing,
//! placement bootstrap over the wire, parallel batch splitting, read
//! leases with quorum fallback, and snapshot-ship rebuild.

use ace_core::prelude::*;
use ace_security::keys::KeyPair;
use ace_store::{
    spawn_sharded_store, DiskImage, ShardedStoreClient, ShardedStoreCluster, StorePlacement,
    StoreReplica, Versioned, WalConfig, SYNC_BUCKETS,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn keypair() -> KeyPair {
    KeyPair::generate(&mut rand::thread_rng())
}

const SYNC: Duration = Duration::from_millis(100);

struct World {
    net: SimNet,
    cluster: ShardedStoreCluster,
}

/// `groups × replication` replicas, one host each, plus a `core` host the
/// clients dial from.
fn world(groups: usize, replication: usize) -> World {
    world_syncing(groups, replication, SYNC)
}

fn world_syncing(groups: usize, replication: usize, sync: Duration) -> World {
    let net = SimNet::new();
    net.add_host("core");
    let hosts: Vec<HostId> = (0..groups * replication)
        .map(|i| {
            let h = format!("sh{i}");
            net.add_host(h.as_str());
            HostId::from(h.as_str())
        })
        .collect();
    let cluster = spawn_sharded_store(
        &net,
        &hosts,
        groups,
        replication,
        sync,
        WalConfig::default(),
    )
    .unwrap();
    World { net, cluster }
}

fn client(w: &World) -> ShardedStoreClient {
    let identity = keypair();
    let pool = Arc::new(LinkPool::new(&w.net, "core", identity));
    w.cluster.client(&w.net, "core", identity, pool)
}

#[test]
fn routing_roundtrip_across_groups() {
    let w = world(4, 3);
    let mut c = client(&w);
    for i in 0..40 {
        let key = format!("k{i}");
        c.put("app", &key, format!("v{i}").as_bytes()).unwrap();
    }
    for i in 0..40 {
        let key = format!("k{i}");
        assert_eq!(c.get("app", &key).unwrap(), format!("v{i}").as_bytes());
    }
    // Keys really spread: every group owns at least one of the 40.
    let owners: std::collections::BTreeSet<usize> = (0..40)
        .map(|i| c.group_for("app", &format!("k{i}")))
        .collect();
    assert_eq!(owners.len(), 4, "rendezvous left a group empty on 40 keys");
    w.cluster.shutdown();
}

#[test]
fn writes_land_only_on_the_owning_group() {
    let w = world(2, 3);
    let mut c = client(&w);
    for i in 0..30 {
        c.put("app", &format!("k{i}"), b"x").unwrap();
    }
    // Give anti-entropy a moment, then check isolation: a replica of
    // group g holds only keys g owns (shard-local blast radius starts
    // with shard-local data).
    std::thread::sleep(Duration::from_millis(300));
    for g in 0..2 {
        for (_, disk) in &w.cluster.groups[g] {
            for (_, key, _, _) in disk.digest() {
                assert_eq!(
                    c.group_for("app", &key),
                    g,
                    "replica of group {g} holds foreign key {key}"
                );
            }
        }
    }
    w.cluster.shutdown();
}

#[test]
fn placement_bootstraps_from_any_replica() {
    let w = world(3, 2);
    let identity = keypair();
    let pool = Arc::new(LinkPool::new(&w.net, "core", identity));
    for addr in w.cluster.placement.all_replicas() {
        let fetched = StorePlacement::fetch(&pool, addr).unwrap();
        assert_eq!(fetched, w.cluster.placement);
    }
    w.cluster.shutdown();
}

#[test]
fn batches_split_per_shard_and_commit_in_parallel() {
    let w = world(4, 3);
    let mut c = client(&w);
    let items: Vec<(String, Vec<u8>)> = (0..60)
        .map(|i| (format!("batch{i}"), format!("payload{i}").into_bytes()))
        .collect();
    // One replica of one group already holds a newer version of one batch
    // key than its peers (a write the others missed): the batch must still
    // version that key past it, from the key-scoped digest alone.
    let g = c.group_for("app", "batch7");
    c.put("app", "batch7", b"old").unwrap();
    let planted = Versioned {
        data: b"newer".to_vec(),
        version: 6,
        writer: "someone".into(),
        deleted: false,
    };
    assert!(w.cluster.groups[g][2]
        .1
        .apply(("app".into(), "batch7".into()), planted)
        .unwrap());
    let versions = c.put_many("app", &items).unwrap();
    assert_eq!(versions.len(), 60);
    for (i, &v) in versions.iter().enumerate() {
        let want = if i == 7 { 7 } else { 1 };
        assert_eq!(v, want, "batch{i}: read-max-plus-one over every replica");
    }
    assert_eq!(c.stats().split_batches, 1);
    for (key, data) in &items {
        assert_eq!(&c.get("app", key).unwrap(), data);
    }
    // Each group committed its slice as batch writes on its own client.
    for g in 0..4 {
        let gs = c.group_client(g).stats();
        assert_eq!(gs.batch_writes, 1, "group {g} saw exactly one batch");
        assert!(gs.batched_records > 0, "group {g} committed records");
    }
    w.cluster.shutdown();
}

#[test]
fn healthy_shard_reads_are_leased_single_replica() {
    let w = world(2, 3);
    let mut c = client(&w);
    c.put("app", "hot", b"value").unwrap();
    for _ in 0..20 {
        assert_eq!(c.get("app", "hot").unwrap(), b"value");
    }
    let s = c.stats();
    assert!(s.lease_grants >= 1, "no lease was ever granted: {s:?}");
    assert!(
        s.leased_reads >= 19,
        "healthy-shard reads should ride the lease: {s:?}"
    );
    w.cluster.shutdown();
}

#[test]
fn leased_read_of_missing_key_is_not_found() {
    let w = world(2, 3);
    let mut c = client(&w);
    // Warm a lease on the owning group, then read a key that group never
    // stored: the live holder's NotFound is authoritative.
    c.put("app", "warm", b"x").unwrap();
    let g = c.group_for("app", "warm");
    let _ = c.get("app", "warm");
    let mut probe = None;
    for i in 0..200 {
        let key = format!("ghost{i}");
        if c.group_for("app", &key) == g {
            probe = Some(key);
            break;
        }
    }
    let probe = probe.expect("some key lands on the warmed group");
    assert!(matches!(
        c.get("app", &probe),
        Err(ace_store::StoreError::NotFound)
    ));
    w.cluster.shutdown();
}

#[test]
fn dead_leaseholder_falls_back_to_quorum() {
    let w = world(1, 3);
    let mut c = client(&w);
    c.put("app", "k", b"v").unwrap();
    assert_eq!(c.get("app", "k").unwrap(), b"v");
    let holder = c.lease_holder(0).expect("lease granted");
    let holder_host = w.cluster.placement.replicas(0)[holder].host.clone();
    w.net.kill_host(&holder_host);
    // The leased path dies with the holder; reads must keep answering.
    assert_eq!(c.get("app", "k").unwrap(), b"v");
    assert!(c.stats().quorum_fallbacks >= 1, "{:?}", c.stats());
    for (handle, _) in &w.cluster.groups[0] {
        if handle.addr().host == holder_host {
            handle.crash();
        } else {
            handle.shutdown();
        }
    }
}

#[test]
fn write_missed_by_holder_drops_the_lease() {
    let w = world(1, 3);
    let mut c = client(&w);
    c.put("app", "k", b"v1").unwrap();
    assert_eq!(c.get("app", "k").unwrap(), b"v1");
    let holder = c.lease_holder(0).expect("lease granted");
    let holder_host = w.cluster.placement.replicas(0)[holder].host.clone();
    // Partition the holder from the writer: the next put quorums 2/3
    // without the holder's ack, so serving leased reads from it could
    // return v1 — the client must drop the lease instead.
    w.net.partition(&"core".into(), &holder_host);
    c.put("app", "k", b"v2").unwrap();
    assert_eq!(c.stats().lease_losses, 1, "{:?}", c.stats());
    assert_eq!(c.lease_holder(0), None);
    // Reads stay correct (quorum scan or a re-granted reachable holder).
    assert_eq!(c.get("app", "k").unwrap(), b"v2");
    w.net.heal_all();

    // A holder that misses a write while reachable — it holds a newer
    // version and refuses it — is told: the revoke is a cast, so it runs
    // once and nothing comes back.  Fails with the revoke sent as a call.
    assert_eq!(c.get("app", "k").unwrap(), b"v2");
    let holder = c.lease_holder(0).expect("lease granted again");
    let holder_addr = &w.cluster.placement.replicas(0)[holder];
    let (daemon, disk) = w.cluster.groups[0]
        .iter()
        .find(|(handle, _)| handle.addr() == holder_addr)
        .expect("the holder is a replica of group 0");
    let newer = Versioned {
        data: b"newer".to_vec(),
        version: 99,
        writer: "someone".into(),
        deleted: false,
    };
    assert!(disk.apply(("app".into(), "k".into()), newer).unwrap());
    c.put("app", "k", b"v3").unwrap();
    assert_eq!(c.stats().lease_losses, 2, "{:?}", c.stats());
    let served = daemon.metrics().histogram("cmd.psLeaseRevoke");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while served.count() == 0 {
        assert!(std::time::Instant::now() < deadline, "revoke never served");
        std::thread::yield_now();
    }
    // Asked after the revoke ran, so an answer to it would be counted by now.
    let mut to_holder =
        ServiceClient::connect(&w.net, &"core".into(), holder_addr.clone(), &keypair()).unwrap();
    let asked = CmdLine::new("aceStats").arg("prefix", "wire.reply.psLeaseRevoke");
    let report = StatsReport::from_cmdline(&to_holder.call(&asked).unwrap());
    assert_eq!(served.count(), 1);
    assert_eq!(
        report.counters.get("wire.reply.psLeaseRevoke.frames"),
        None,
        "a revoke that ran is not answered"
    );
    w.cluster.shutdown();
}

#[test]
fn snapshot_ship_rebuild_restores_a_dead_replica() {
    let mut w = world(2, 3);
    let mut c = client(&w);
    for i in 0..50 {
        c.put("app", &format!("pre{i}"), format!("v{i}").as_bytes())
            .unwrap();
    }
    // Kill replica 0 of group 0, then keep writing while it is down.
    let victim_addr = w.cluster.placement.replicas(0)[0].clone();
    let old_incarnation = w.cluster.groups[0][0].0.incarnation();
    w.cluster.groups[0][0].0.crash();
    for i in 0..30 {
        c.put("app", &format!("during{i}"), b"while down").unwrap();
    }

    let report = w.cluster.rebuild_replica(&w.net, 0, 0).unwrap();
    assert!(
        report.snapshot_records > 0,
        "rebuild shipped an empty snapshot: {report:?}"
    );
    assert!(report.snapshot_chunks >= 1);
    assert_ne!(report.peer, victim_addr, "shipped from a live peer");
    assert!(
        w.cluster.groups[0][0].0.incarnation() > old_incarnation,
        "incarnation must be monotone across rebuild"
    );

    // The rebuilt disk holds every group-0 key, including writes it
    // missed (snapshot + the top-up's tree round + anti-entropy).
    let rebuilt = w.cluster.groups[0][0].1.clone();
    let owned: Vec<String> = (0..50)
        .map(|i| format!("pre{i}"))
        .chain((0..30).map(|i| format!("during{i}")))
        .filter(|k| c.group_for("app", k) == 0)
        .collect();
    assert!(!owned.is_empty());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let missing: Vec<&String> = owned
            .iter()
            .filter(|k| rebuilt.get(&("app".to_string(), (*k).clone())).is_none())
            .collect();
        if missing.is_empty() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "rebuilt replica still missing {missing:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The plane still serves everything.
    for i in 0..30 {
        assert_eq!(c.get("app", &format!("during{i}")).unwrap(), b"while down");
    }
    w.cluster.shutdown();
}

#[test]
fn rebuild_catches_up_under_load() {
    let mut w = world(1, 3);
    let mut c = client(&w);
    for i in 0..20 {
        c.put("app", &format!("seed{i}"), b"s").unwrap();
    }
    w.cluster.groups[0][2].0.crash();
    // Writes that land *after* the rebuild's snapshot cut arrive through
    // the top-up or anti-entropy: race a writer thread against the rebuild.
    let report = std::thread::scope(|scope| {
        let net = w.net.clone();
        let placement = w.cluster.placement.clone();
        let writer = scope.spawn(move || {
            let identity = keypair();
            let pool = Arc::new(LinkPool::new(&net, "core", identity));
            let mut wc = ShardedStoreClient::new(net.clone(), "core", identity, pool, placement);
            for i in 0..40 {
                wc.put("app", &format!("live{i}"), b"l").unwrap();
            }
        });
        let report = w.cluster.rebuild_replica(&w.net, 0, 2).unwrap();
        writer.join().unwrap();
        report
    });
    assert!(report.snapshot_records >= 20);
    // Everything is readable and the rebuilt disk converges fully.
    for i in 0..40 {
        assert_eq!(c.get("app", &format!("live{i}")).unwrap(), b"l");
    }
    let rebuilt = w.cluster.groups[0][2].1.clone();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while rebuilt.len() < 60 {
        assert!(
            std::time::Instant::now() < deadline,
            "rebuilt replica converged to {} of 60 keys",
            rebuilt.len()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    w.cluster.shutdown();
}

/// With anti-entropy parked, the only `psDigest` a live replica serves is a
/// rebuild's top-up round.  Every write acked while the replica that
/// shipped the snapshot had served none is on the rebuilt disk when
/// `rebuild_replica` returns: the top-up pulled what landed after the cut.
/// Fails if the rebuild installs the snapshot alone.
#[test]
fn a_rebuild_holds_every_write_its_shipper_acked_before_the_top_up() {
    let mut w = world_syncing(1, 3, QUIET);
    // A keyspace big enough that the snapshot streams in several chunks,
    // written straight to the disks so no replica serves a command.
    let preload: Vec<_> = (0..2000)
        .map(|i| {
            let value = Versioned {
                data: vec![i as u8; 64],
                version: 1,
                writer: "preload".into(),
                deleted: false,
            };
            (("app".to_string(), format!("held{i:04}")), value)
        })
        .collect();
    for (_, disk) in &w.cluster.groups[0] {
        disk.apply_batch(preload.clone()).unwrap();
    }
    w.cluster.groups[0][2].0.crash();
    let digests: Vec<_> = w.cluster.groups[0][..2]
        .iter()
        .map(|(handle, _)| handle.metrics().histogram("cmd.psDigest"))
        .collect();
    let (done, progress) = (AtomicBool::new(false), AtomicUsize::new(0));
    let (report, acked) = std::thread::scope(|scope| {
        let (net, placement) = (w.net.clone(), w.cluster.placement.clone());
        let (digests, done, progress) = (&digests, &done, &progress);
        let writer = scope.spawn(move || {
            let identity = keypair();
            let pool = Arc::new(LinkPool::new(&net, "core", identity));
            let mut wc = ShardedStoreClient::new(net.clone(), "core", identity, pool, placement);
            let mut acked = Vec::new();
            while !done.load(Ordering::SeqCst) {
                let key = format!("live{}", acked.len());
                wc.put("app", &key, b"l").unwrap();
                // Read after the ack: what the live replicas had served then.
                let served: Vec<u64> = digests.iter().map(|h| h.count()).collect();
                acked.push((key, served));
                progress.fetch_add(1, Ordering::SeqCst);
            }
            acked
        });
        // Writes are flowing when the snapshot is cut.
        while progress.load(Ordering::SeqCst) < 5 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = w.cluster.rebuild_replica(&w.net, 0, 2).unwrap();
        done.store(true, Ordering::SeqCst);
        (report, writer.join().unwrap())
    });
    let shipper = w.cluster.placement.replicas(0)[..2]
        .iter()
        .position(|addr| *addr == report.peer)
        .expect("a live peer shipped");
    let rebuilt = w.cluster.groups[0][2].1.clone();
    let before_top_up: Vec<&String> = acked
        .iter()
        .filter(|(_, served)| served[shipper] == 0)
        .map(|(key, _)| key)
        .collect();
    assert!(!before_top_up.is_empty(), "{report:?}");
    let missing: Vec<&&String> = before_top_up
        .iter()
        .filter(|key| rebuilt.get(&("app".to_string(), (**key).clone())).is_none())
        .collect();
    assert!(
        missing.is_empty(),
        "rebuilt disk lacks {} of {} writes acked before the top-up, first {:?} ({report:?})",
        missing.len(),
        before_top_up.len(),
        missing.first()
    );
    w.cluster.shutdown();
}

/// The shipper lets its snapshot cut go once the last chunk is served: a
/// fetch past offset 0 after the rebuild finds nothing to read.
#[test]
fn a_shipper_keeps_no_snapshot_after_the_last_chunk() {
    let mut w = world_syncing(1, 3, QUIET);
    let mut c = client(&w);
    for i in 0..20 {
        c.put("app", &format!("k{i}"), &[i as u8; 512]).unwrap();
    }
    w.cluster.groups[0][1].0.crash();
    let report = w.cluster.rebuild_replica(&w.net, 0, 1).unwrap();
    assert!(report.snapshot_bytes > 1, "{report:?}");
    let mut to_shipper =
        ServiceClient::connect(&w.net, &"core".into(), report.peer.clone(), &keypair()).unwrap();
    for offset in [
        1,
        report.snapshot_bytes as i64 / 2,
        report.snapshot_bytes as i64,
    ] {
        let fetch = CmdLine::new("psSnapFetch").arg("offset", offset);
        assert_eq!(
            to_shipper.call(&fetch).unwrap_err().code(),
            Some(ErrorCode::BadState),
            "offset {offset}"
        );
    }
    w.cluster.shutdown();
}

// -- bytes on the wire --------------------------------------------------------

/// Frame bytes the whole network moved while `op` ran.  Anti-entropy is
/// parked (hour-long interval) so only `op`'s own traffic is counted.
fn wire_bytes(w: &World, op: impl FnOnce()) -> u64 {
    let before = w.net.metrics().snapshot();
    op();
    w.net.metrics().snapshot().since(&before).frame_bytes
}

const QUIET: Duration = Duration::from_secs(3600);

#[test]
fn a_value_crosses_the_wire_once_per_replica_it_visits() {
    let w = world_syncing(1, 3, QUIET);
    let mut c = client(&w);
    let value: Vec<u8> = (0..1024).map(|i| (i * 7 % 256) as u8).collect();
    // Warm the pooled links and the read lease.
    c.put("app", "k", &value).unwrap();
    assert_eq!(c.get("app", "k").unwrap(), value);
    let leased = c.stats().leased_reads;
    let moved = wire_bytes(&w, || {
        c.put("app", "k", &value).unwrap();
        assert_eq!(c.get("app", "k").unwrap(), value);
    });
    assert_eq!(c.stats().leased_reads, leased + 1, "the read was leased");
    // Three writes and one read of 1 KiB: 4 KiB of value.  The other 14
    // frames' text and seals, the put's three-replica version round
    // included, come to just under 1,000 B (every field is fixed-width, so
    // this repeats exactly).  Hex-encoded, the values alone were 8 KiB.
    let budget = 4 * 1024 * 125 / 100;
    assert!(
        moved < budget,
        "put + leased get moved {moved} B (budget {budget})"
    );
    w.cluster.shutdown();
}

#[test]
fn a_batch_write_costs_its_keys_not_the_keyspace() {
    let w = world_syncing(1, 3, QUIET);
    let mut c = client(&w);
    let preload: Vec<(String, Vec<u8>)> = (0..2000)
        .map(|i| (format!("held{i:04}"), vec![i as u8; 64]))
        .collect();
    for chunk in preload.chunks(250) {
        c.put_many("app", chunk).unwrap();
    }
    let batch: Vec<(String, Vec<u8>)> = (0..16)
        .map(|i| (format!("batch{i:02}"), vec![i as u8; 256]))
        .collect();
    let moved = wire_bytes(&w, || {
        c.put_many("app", &batch).unwrap();
    });
    // 3 × 16 × 256 B = 12 KiB of values.  A full digest of 2,000 keys from
    // each of three replicas was several hundred KiB on top.
    assert!(
        moved < 64 * 1024,
        "16-key batch moved {moved} B over 2,000 held keys"
    );
    for (key, data) in &batch {
        assert_eq!(&c.get("app", key).unwrap(), data);
    }
    w.cluster.shutdown();
}

/// A client that holds a 1 KiB value offers its name, and an unchanged key
/// costs its ten reads the value's name and `same=true`, not ten copies of
/// it (at the parent: 10 × 1 KiB of replies and more).
#[test]
fn a_held_value_crosses_the_wire_once() {
    let w = world_syncing(1, 3, QUIET);
    let mut c = client(&w);
    let value: Vec<u8> = (0..1024).map(|i| (i * 7 % 256) as u8).collect();
    c.put("app", "k", &value).unwrap();
    // Warm the pooled link and the read lease.
    assert_eq!(c.get("app", "k").unwrap(), value);
    let before = c.stats();
    let moved = wire_bytes(&w, || {
        for _ in 0..10 {
            assert_eq!(c.get("app", "k").unwrap(), value);
        }
    });
    let after = c.stats();
    assert_eq!(after.leased_reads, before.leased_reads + 10, "{after:?}");
    assert_eq!(after.held_reads, before.held_reads + 10, "{after:?}");
    assert!(
        moved < 2 * 1024,
        "ten reads of a held 1 KiB value moved {moved} B"
    );
    w.cluster.shutdown();
}

/// What another client wrote between two reads is what the second read
/// returns: the holder holds a different name than the one offered, so it
/// sends the bytes — and the read after that is answered from them.
#[test]
fn a_second_clients_write_between_two_gets_returns_the_new_bytes() {
    let w = world_syncing(1, 3, QUIET);
    let (mut a, mut b) = (client(&w), client(&w));
    a.put("app", "k", &[1u8; 1024]).unwrap();
    assert_eq!(a.get("app", "k").unwrap(), [1u8; 1024]);
    assert_eq!(a.stats().held_reads, 1);
    b.put("app", "k", &[2u8; 1024]).unwrap();
    assert_eq!(a.get("app", "k").unwrap(), [2u8; 1024]);
    assert_eq!(
        a.stats().held_reads,
        1,
        "the new bytes came from the holder"
    );
    assert_eq!(a.get("app", "k").unwrap(), [2u8; 1024]);
    assert_eq!(a.stats().held_reads, 2, "and are held from then on");
    b.delete("app", "k").unwrap();
    assert_eq!(a.get("app", "k"), Err(ace_store::StoreError::NotFound));
    // The quorum read skips its fetch for a held winner, and never serves a
    // held value over a tombstone.
    b.put("app", "j", &[3u8; 1024]).unwrap();
    assert_eq!(a.group_client(0).get("app", "j").unwrap(), [3u8; 1024]);
    let fetches = |links: &mut [ServiceClient]| served(links, "psGet");
    let mut links = group0_links(&w);
    let (gets, moved) = (
        fetches(&mut links),
        wire_bytes(&w, || {
            assert_eq!(a.group_client(0).get("app", "j").unwrap(), [3u8; 1024]);
        }),
    );
    assert_eq!(
        fetches(&mut links),
        gets + 3,
        "three digests, no value fetch"
    );
    assert!(
        moved < 1024,
        "a quorum read of a held value moved {moved} B"
    );
    b.delete("app", "j").unwrap();
    assert_eq!(
        a.group_client(0).get("app", "j"),
        Err(ace_store::StoreError::NotFound)
    );
    w.cluster.shutdown();
}

/// Held bytes stay under [`StoreClient::HELD_BYTES`]: past it, every value
/// goes and the versions stay, and what is read after is still right.
#[test]
fn held_values_are_bounded_and_letting_go_is_safe() {
    let bound = ace_store::StoreClient::HELD_BYTES;
    let w = world_syncing(1, 3, QUIET);
    let mut c = client(&w);
    let items: Vec<(String, Vec<u8>)> = (0..bound / 1024 + 256)
        .map(|i| (format!("big{i:05}"), vec![i as u8; 1024]))
        .collect();
    for chunk in items.chunks(128) {
        c.put_many("app", chunk).unwrap();
        let held = c.group_client(0).held_bytes();
        assert!(held <= bound, "{held} B held, bound {bound}");
    }
    let remembered = c.group_client(0).remembered_keys();
    assert_eq!(remembered, items.len(), "the versions stayed");
    for (key, data) in items.iter().step_by(97) {
        assert_eq!(&c.get("app", key).unwrap(), data);
    }
    w.cluster.shutdown();
}

// -- the write path -----------------------------------------------------------

/// How many `verb` commands the replicas behind `links` have served, summed.
fn served(links: &mut [ServiceClient], verb: &str) -> u64 {
    let name = format!("cmd.{verb}");
    links
        .iter_mut()
        .map(|link| {
            let stats = link.call(&CmdLine::new("aceStats").arg("prefix", name.as_str()));
            StatsReport::from_cmdline(&stats.unwrap())
                .histograms
                .get(&name)
                .map_or(0, |row| row.count)
        })
        .sum()
}

/// A client that wrote a key last, or was just told its version by a leased
/// read, proposes the next version without asking: the put is its three
/// `psPut`s and nothing else.  (Before the client had a memory every put
/// asked all three replicas `psGet digest=true` first.)
#[test]
fn a_put_of_a_key_just_read_or_written_is_one_round() {
    let w = world_syncing(1, 3, QUIET);
    let mut links = group0_links(&w);
    let mut writer = client(&w);
    writer.put("app", "k", b"v1").unwrap();
    let (gets, puts) = (served(&mut links, "psGet"), served(&mut links, "psPut"));
    assert_eq!(writer.put("app", "k", b"v2").unwrap(), 2);
    assert_eq!(
        served(&mut links, "psGet"),
        gets,
        "a put of a key just written asked"
    );
    assert_eq!(served(&mut links, "psPut"), puts + 3);

    let mut reader = client(&w);
    assert_eq!(reader.get("app", "k").unwrap(), b"v2");
    assert_eq!(reader.stats().leased_reads, 1, "the read was leased");
    let (gets, puts) = (served(&mut links, "psGet"), served(&mut links, "psPut"));
    assert_eq!(reader.put("app", "k", b"v3").unwrap(), 3);
    assert_eq!(
        served(&mut links, "psGet"),
        gets,
        "a put of a key just read asked"
    );
    assert_eq!(served(&mut links, "psPut"), puts + 3);
    assert_eq!(writer.group_client(0).get("app", "k").unwrap(), b"v3");
    w.cluster.shutdown();
}

/// A proposal made from a memory another writer has overtaken is refused,
/// the refusal names what is held, and the second round lands above it: two
/// rounds of `psPut`, no `psGet`, nothing lost.
#[test]
fn a_stale_memory_costs_one_refused_round_and_loses_nothing() {
    let w = world_syncing(1, 3, QUIET);
    let mut links = group0_links(&w);
    let (mut a, mut b) = (client(&w), client(&w));
    assert_eq!(a.put("app", "k", b"a1").unwrap(), 1);
    let mut theirs = 0;
    for value in [b"b1", b"b2", b"b3"] {
        theirs = b.put("app", "k", value).unwrap();
    }
    assert_eq!(theirs, 4);
    let (gets, puts) = (served(&mut links, "psGet"), served(&mut links, "psPut"));
    let ours = a.put("app", "k", b"a2").unwrap();
    assert!(ours > theirs, "{ours} does not beat {theirs}");
    assert_eq!(
        served(&mut links, "psGet"),
        gets,
        "the refusal was the read"
    );
    assert_eq!(
        served(&mut links, "psPut"),
        puts + 6,
        "one refused round, one applied"
    );
    assert_eq!(a.group_client(0).stats().refused_rounds, 1);
    assert_eq!(b.group_client(0).get("app", "k").unwrap(), b"a2");
    for (_, disk) in &w.cluster.groups[0] {
        let held = disk.get(&("app".into(), "k".into())).unwrap();
        assert_eq!((held.version, held.data.as_slice()), (ours, &b"a2"[..]));
    }
    w.cluster.shutdown();
}

/// A version that went out in a round that missed quorum is never proposed
/// again: the one replica that took it would count the re-proposal as a
/// re-send of what it holds and keep the old bytes under the new write's
/// `(version, writer)`.
#[test]
fn a_failed_round_burns_its_version() {
    let w = world_syncing(1, 3, QUIET);
    let mut c = client(&w);
    assert_eq!(c.put("app", "k", b"v1").unwrap(), 1);
    let away: Vec<HostId> = w.cluster.placement.replicas(0)[1..]
        .iter()
        .map(|addr| addr.host.clone())
        .collect();
    for host in &away {
        w.net.partition(&"core".into(), host);
    }
    let failed = c.put("app", "k", b"lost");
    assert!(
        matches!(
            failed,
            Err(ace_store::StoreError::QuorumFailed { acked: 1, .. })
        ),
        "{failed:?}"
    );
    w.net.heal_all();
    let version = c.put("app", "k", b"v3").unwrap();
    assert!(version > 2, "version {version} was proposed before");
    for (_, disk) in &w.cluster.groups[0] {
        let held = disk.get(&("app".into(), "k".into())).unwrap();
        assert_eq!((held.version, held.data.as_slice()), (version, &b"v3"[..]));
    }
    w.cluster.shutdown();
}

/// `put_many` skips its key-scoped digest exactly when every key of the
/// batch is remembered.
#[test]
fn a_batch_of_remembered_keys_sends_no_digest() {
    let w = world_syncing(1, 3, QUIET);
    let mut links = group0_links(&w);
    let mut c = client(&w);
    let batch = |keys: &[&str], value: &[u8]| -> Vec<(String, Vec<u8>)> {
        keys.iter()
            .map(|k| (k.to_string(), value.to_vec()))
            .collect()
    };
    assert_eq!(
        c.put_many("app", &batch(&["a", "b", "c"], b"1")).unwrap(),
        [1, 1, 1]
    );
    assert_eq!(
        served(&mut links, "psDigest"),
        3,
        "keys never seen are asked about"
    );
    assert_eq!(
        c.put_many("app", &batch(&["a", "b", "c"], b"2")).unwrap(),
        [2, 2, 2]
    );
    assert_eq!(
        served(&mut links, "psDigest"),
        3,
        "remembered keys were asked about"
    );
    assert_eq!(
        c.put_many("app", &batch(&["a", "new", "c"], b"3")).unwrap(),
        [3, 1, 3]
    );
    assert_eq!(
        served(&mut links, "psDigest"),
        6,
        "one unseen key is today's digest"
    );
    assert_eq!(served(&mut links, "psPutBatch"), 9);
    for (key, value) in [("a", b"3"), ("b", b"2"), ("c", b"3"), ("new", b"3")] {
        assert_eq!(c.group_client(0).get("app", key).unwrap(), value);
    }
    w.cluster.shutdown();
}

/// The memory is bounded, and what falls out of it is written as a key
/// never seen is: through the read round, above what is held.
#[test]
fn the_version_memory_is_bounded_and_forgetting_is_safe() {
    let bound = ace_store::StoreClient::REMEMBERED_KEYS;
    let w = world_syncing(1, 3, QUIET);
    let mut links = group0_links(&w);
    let mut c = client(&w);
    assert_eq!(c.put("app", "first", b"v1").unwrap(), 1);
    assert_eq!(c.put("app", "first", b"v2").unwrap(), 2);
    let filler: Vec<(String, Vec<u8>)> = (0..3 * bound)
        .map(|i| (format!("filler{i:05}"), vec![0u8; 8]))
        .collect();
    for chunk in filler.chunks(512) {
        c.put_many("app", chunk).unwrap();
        let held = c.group_client(0).remembered_keys();
        assert!(held <= bound, "{held} keys remembered, bound {bound}");
    }
    let gets = served(&mut links, "psGet");
    let version = c.put("app", "first", b"v3").unwrap();
    assert!(version > 2, "a forgotten key was proposed at {version}");
    assert_eq!(
        served(&mut links, "psGet"),
        gets + 3,
        "a forgotten key asks first"
    );
    assert_eq!(c.group_client(0).get("app", "first").unwrap(), b"v3");
    w.cluster.shutdown();
}

// -- anti-entropy on the wire -------------------------------------------------

/// One link from `core` to each replica of group 0.
fn group0_links(w: &World) -> Vec<ServiceClient> {
    let identity = keypair();
    w.cluster
        .placement
        .replicas(0)
        .iter()
        .map(|addr| ServiceClient::connect(&w.net, &"core".into(), addr.clone(), &identity))
        .collect::<Result<_, _>>()
        .unwrap()
}

fn stat(link: &mut ServiceClient, field: &str) -> i64 {
    let stats = link.call(&CmdLine::new("psStats")).unwrap();
    stats.get_int(field).unwrap()
}

/// Nudge the replicas behind `links` (members of a group of three) with
/// `psSync` and wait until each has run that one round.  Returns the frame
/// bytes the nudges and the rounds moved; the network is quiet again when
/// this returns.
fn sync_now(w: &World, links: &mut [ServiceClient]) -> u64 {
    let rounds_before: Vec<i64> = links.iter_mut().map(|l| stat(l, "syncs")).collect();
    let before = w.net.metrics().snapshot();
    for link in links.iter_mut() {
        link.call(&CmdLine::new("psSync")).unwrap();
    }
    // A round is at least a request and a reply per peer; wait for those
    // frames and then for the wire to fall silent, without touching it.
    let least = before.frames + links.len() as u64 * (2 + 2 * 2);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut last = w.net.metrics().snapshot();
    loop {
        std::thread::sleep(Duration::from_millis(150));
        let now = w.net.metrics().snapshot();
        if now.frames >= least && now.frames == last.frames {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sync round never finished"
        );
        last = now;
    }
    let moved = last.since(&before).frame_bytes;
    for (link, before) in links.iter_mut().zip(rounds_before) {
        assert_eq!(stat(link, "syncs"), before + 1, "one round per nudge");
    }
    moved
}

#[test]
fn a_sync_round_costs_what_diverged_not_what_is_stored() {
    let w = world_syncing(1, 3, QUIET);
    let mut c = client(&w);
    let preload: Vec<(String, Vec<u8>)> = (0..2000)
        .map(|i| (format!("held{i:04}"), vec![i as u8; 64]))
        .collect();
    for chunk in preload.chunks(250) {
        c.put_many("app", chunk).unwrap();
    }
    let mut links = group0_links(&w);
    // The first round opens the replicas' links to each other; handshakes
    // are not what is measured.
    sync_now(&w, &mut links);

    // Three replicas holding the same 2,000 keys: six peer-rounds, each one
    // root out and `same=true` back.  Six full digests were ~300 KB.
    let idle = sync_now(&w, &mut links);
    assert!(
        idle < 2048,
        "an idle round moved {idle} B over 2,000 held keys"
    );
    for link in links.iter_mut() {
        assert_eq!(stat(link, "syncEqual"), 4, "two rounds, two peers each");
        assert_eq!(stat(link, "syncBuckets"), 0);
        assert_eq!(stat(link, "syncRows"), 0);
    }

    // One key on one disk only, then one round on each replica lacking it.
    // A peer-round that finds a difference costs the 64 hashes plus the rows
    // of the one bucket the key falls in — 1/64th of the keyspace.
    let full = wire_bytes(&w, || {
        let digest = links[1].call(&CmdLine::new("psDigest")).unwrap();
        assert_eq!(digest.get_int("count"), Some(2000));
    });
    let lonely = ("app".to_string(), "lonely".to_string());
    let value = Versioned {
        data: b"only here".to_vec(),
        version: 1,
        writer: "someone".into(),
        deleted: false,
    };
    assert!(w.cluster.groups[0][0]
        .1
        .apply(lonely.clone(), value.clone())
        .unwrap());
    let moved = sync_now(&w, &mut links[1..2]) + sync_now(&w, &mut links[2..3]);
    for (_, disk) in &w.cluster.groups[0] {
        assert_eq!(disk.get(&lonely).as_ref(), Some(&value));
        assert_eq!(disk.checksum(), w.cluster.groups[0][0].1.checksum());
    }
    assert!(
        moved < full / 8,
        "spreading one key moved {moved} B; one full digest is {full} B"
    );
    let pulled: i64 = links.iter_mut().map(|l| stat(l, "pulled")).sum();
    assert_eq!(pulled, 2, "each of the two replicas without it pulled it");
    w.cluster.shutdown();
}

/// A standalone replica (no ASD, no peers: it serves commands only) over a
/// fixed five-row image, and a link to it.
fn fixed_replica() -> (DaemonHandle, DiskImage, ServiceClient) {
    let net = SimNet::new();
    net.add_host("core");
    let disk = DiskImage::new();
    let rows: [(&str, &str, u64, &str, bool); 5] = [
        ("app", "alpha", 3, "rsa:00ff:10001", false),
        ("app", "beta key", 1, "w1", false),
        ("app", "gone", 7, "w2", true),
        ("media", "alpha", 12, "w1", false),
        ("media", "frame/0001", 2, "w3", false),
    ];
    for (ns, key, version, writer, deleted) in rows {
        let value = Versioned {
            data: if deleted { vec![] } else { b"v".to_vec() },
            version,
            writer: writer.into(),
            deleted,
        };
        disk.apply((ns.into(), key.into()), value).unwrap();
    }
    let replica = Daemon::spawn(
        &net,
        DaemonConfig::new("fixed", "Service.Test", "machineroom", "core", 6100),
        Box::new(StoreReplica::new(disk.clone(), QUIET)),
    )
    .unwrap();
    let link =
        ServiceClient::connect(&net, &"core".into(), replica.addr().clone(), &keypair()).unwrap();
    (replica, disk, link)
}

/// The two `psDigest` forms that existed before the hash tree answer exactly
/// what they always did — `put_many` and operators' tooling read them.  The
/// expected strings were produced by the commit before the tree.
#[test]
fn the_old_digest_forms_answer_byte_for_byte_as_before() {
    let (replica, _, mut link) = fixed_replica();
    let whole = link.call(&CmdLine::new("psDigest")).unwrap();
    assert_eq!(whole.to_wire(), GOLDEN_WHOLE);
    let keys = ["gone", "alpha", "absent"].map(|k| Scalar::Str(k.into()));
    let scoped = CmdLine::new("psDigest")
        .arg("ns", "app")
        .arg("keys", Value::Vector(keys.to_vec()));
    assert_eq!(link.call(&scoped).unwrap().to_wire(), GOLDEN_SCOPED);
    let lopsided = CmdLine::new("psDigest").arg("ns", "app");
    assert_eq!(
        link.call(&lopsided).unwrap_err().code(),
        Some(ErrorCode::Semantics)
    );
    replica.shutdown();
}

const GOLDEN_WHOLE: &str = r#"ok count=5 entries={{"app","alpha","3","rsa:00ff:10001"},{"app","beta key","1","w1"},{"app","gone","7","w2"},{"media","alpha","12","w1"},{"media","frame/0001","2","w3"}};"#;
const GOLDEN_SCOPED: &str =
    r#"ok count=2 entries={{"app","gone","7","w2"},{"app","alpha","3","rsa:00ff:10001"}};"#;

/// The two forms the sync worker speaks: `root=` says whether the trees
/// match and, if not, ships the 64 hashes; `buckets=` lists the rows of
/// those buckets only.  Between them they reproduce the whole digest.
#[test]
fn the_tree_forms_name_exactly_the_rows_that_differ() {
    let (replica, disk, mut link) = fixed_replica();
    let root = |sum: u64| CmdLine::new("psDigest").arg("root", format!("x{sum:016x}"));
    let same = link.call(&root(disk.checksum())).unwrap();
    assert_eq!(same.to_wire(), "ok same=true;");

    let differs = link.call(&root(DiskImage::new().checksum())).unwrap();
    assert_eq!(differs.get_bool("same"), Some(false));
    let hashes: Vec<u64> = differs
        .get_vector("hashes")
        .unwrap()
        .iter()
        .map(|w| u64::from_str_radix(w.as_text().unwrap().strip_prefix('x').unwrap(), 16).unwrap())
        .collect();
    assert_eq!(hashes, disk.tree());

    // An empty image differs in exactly the buckets that hold something,
    // and those buckets' rows are everything held.
    let occupied = DiskImage::new().differing_buckets(&disk.tree());
    assert!(!occupied.is_empty() && occupied.len() <= 5);
    let ask = |buckets: &[usize]| {
        let buckets = buckets.iter().map(|&b| Scalar::Int(b as i64)).collect();
        CmdLine::new("psDigest").arg("buckets", Value::Vector(buckets))
    };
    assert_eq!(link.call(&ask(&occupied)).unwrap().to_wire(), GOLDEN_WHOLE);
    let one = link.call(&ask(&occupied[..1])).unwrap();
    assert!((1..5).contains(&one.get_int("count").unwrap()));

    for refused in [
        ask(&[SYNC_BUCKETS]),
        ask(&[0]).arg("root", "x0"),
        root(0).arg("ns", "app"),
    ] {
        assert_eq!(
            link.call(&refused).unwrap_err().code(),
            Some(ErrorCode::Semantics),
            "{refused}"
        );
    }
    replica.shutdown();
}

// -- conditional leased reads ---------------------------------------------------

/// A one-replica "group" that grants every lease and records each
/// `psGetLeased` it is sent, as the holder receives it.
struct Spy {
    seen: Arc<std::sync::Mutex<Vec<String>>>,
}

impl ServiceBehavior for Spy {
    fn semantics(&self) -> Semantics {
        Semantics::new().inheriting(&ace_core::protocol::store_scaleout_semantics())
    }

    fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "psLeaseGrant" => {
                let epoch = cmd.get_int("epoch").unwrap();
                Reply::ok_with(|c| c.arg("epoch", epoch))
            }
            "psGetLeased" => {
                self.seen.lock().unwrap().push(cmd.to_wire());
                Reply::ok_with(|c| {
                    c.arg("data", b"v".to_vec())
                        .arg("version", 1)
                        .arg("writer", Value::Str("w".into()))
                        .arg("deleted", false)
                })
            }
            other => Reply::err(ErrorCode::Internal, format!("spy: {other}")),
        }
    }
}

/// A client holding nothing sends the leased read it always sent, and the
/// holder's answer to it is the one it always gave; both strings were
/// produced by the commit before conditional reads.  A client holding a
/// value adds its name, and the holder answers `same=true` only to that
/// exact name, of a value that is not a tombstone.
#[test]
fn a_leased_read_holding_nothing_is_byte_for_byte_as_before() {
    let net = SimNet::new();
    net.add_host("core");
    net.add_host("spy");
    let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
    let spy = Daemon::spawn(
        &net,
        DaemonConfig::new("spy", "Service.Test", "machineroom", "spy", 6100),
        Box::new(Spy {
            seen: Arc::clone(&seen),
        }),
    )
    .unwrap();
    let identity = keypair();
    let pool = Arc::new(LinkPool::new(&net, "core", identity));
    let placement = StorePlacement::new(1, vec![vec![spy.addr().clone()]]);
    let mut c = ShardedStoreClient::new(net.clone(), "core", identity, pool, placement);
    assert_eq!(c.get("app", "beta key").unwrap(), b"v");
    assert_eq!(c.get("app", "beta key").unwrap(), b"v");
    let seen = seen.lock().unwrap().clone();
    assert_eq!(seen[0], GOLDEN_LEASED_REQUEST);
    assert_eq!(
        seen[1],
        r#"psGetLeased ns=app key="beta key" version=1 writer="w" deadline=5000;"#
    );
    spy.shutdown();

    let (replica, _, mut link) = fixed_replica();
    let grant = CmdLine::new("psLeaseGrant")
        .arg("holder", Value::Str("core:6100".into()))
        .arg("epoch", 1)
        .arg("ttlMs", 600_000);
    link.call(&grant).unwrap();
    let ask = |key: &str, name: Option<(i64, &str)>| {
        let mut cmd = CmdLine::new("psGetLeased")
            .arg("ns", "app")
            .arg("key", Value::Str(key.into()));
        if let Some((version, writer)) = name {
            cmd.push_arg("version", version);
            cmd.push_arg("writer", Value::Str(writer.into()));
        }
        cmd
    };
    for (key, golden, frame) in [
        ("alpha", GOLDEN_LEASED_ALPHA, 61),
        ("gone", GOLDEN_LEASED_GONE, 47),
    ] {
        let reply = link.call(&ask(key, None)).unwrap();
        assert_eq!(
            (reply.to_wire().as_str(), reply.to_frame().len()),
            (golden, frame)
        );
    }
    let same = link
        .call(&ask("alpha", Some((3, "rsa:00ff:10001"))))
        .unwrap();
    assert_eq!(same.to_wire(), "ok same=true;");
    // Not exactly what is held — another writer, another version, a
    // tombstone's own name — is today's full reply.
    for (key, name, golden) in [
        ("alpha", (3, "rsa:00ff:10002"), GOLDEN_LEASED_ALPHA),
        ("alpha", (2, "rsa:00ff:10001"), GOLDEN_LEASED_ALPHA),
        ("gone", (7, "w2"), GOLDEN_LEASED_GONE),
    ] {
        let reply = link.call(&ask(key, Some(name))).unwrap();
        assert_eq!(reply.to_wire(), golden, "{key} offered as {name:?}");
    }
    let absent = link.call(&ask("absent", Some((1, "w1")))).unwrap_err();
    assert_eq!(absent.code(), Some(ErrorCode::NotFound));
    let half = ask("alpha", None).arg("version", 3);
    assert_eq!(
        link.call(&half).unwrap_err().code(),
        Some(ErrorCode::Semantics)
    );
    replica.shutdown();
}

const GOLDEN_LEASED_REQUEST: &str = r#"psGetLeased ns=app key="beta key" deadline=5000;"#;
const GOLDEN_LEASED_ALPHA: &str = r#"ok data=x76 version=3 writer="rsa:00ff:10001" deleted=false;"#;
const GOLDEN_LEASED_GONE: &str = r#"ok data=x version=7 writer="w2" deleted=true;"#;
