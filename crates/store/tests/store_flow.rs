//! Integration tests of the persistent store (§6, Fig. 17): replication,
//! quorum behaviour under failures, anti-entropy convergence, crash
//! recovery with intact disks, and conflict resolution.

use ace_core::prelude::*;
use ace_directory::{bootstrap, Framework};
use ace_security::keys::KeyPair;
use ace_store::wal::COMPACT_FLOOR;
use ace_store::{
    spawn_sharded_store, spawn_store_cluster, StoreClient, StoreCluster, StoreError, WalConfig,
};
use std::sync::Arc;
use std::time::Duration;

fn keypair() -> KeyPair {
    KeyPair::generate(&mut rand::thread_rng())
}

const SYNC: Duration = Duration::from_millis(100);

struct World {
    net: SimNet,
    fw: Framework,
    cluster: StoreCluster,
}

fn world() -> World {
    let net = SimNet::new();
    net.add_host("core");
    for h in ["s1", "s2", "s3"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    let cluster = spawn_store_cluster(&net, &fw, &["s1", "s2", "s3"], SYNC).unwrap();
    World { net, fw, cluster }
}

fn client(w: &World) -> StoreClient {
    StoreClient::new(w.net.clone(), "core", keypair(), w.cluster.addrs.clone())
}

fn wait_converged(w: &World, deadline: Duration) -> bool {
    let end = std::time::Instant::now() + deadline;
    while std::time::Instant::now() < end {
        let sums: Vec<u64> = w
            .cluster
            .replicas
            .iter()
            .map(|(_, disk)| disk.checksum())
            .collect();
        if sums.windows(2).all(|p| p[0] == p[1]) && !w.cluster.replicas[0].1.is_empty() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    false
}

#[test]
fn put_get_roundtrip_and_replication() {
    let w = world();
    let mut c = client(&w);

    c.put("appstate", "counter_1", b"count=42").unwrap();
    assert_eq!(c.get("appstate", "counter_1").unwrap(), b"count=42");

    // The write reached a quorum immediately and all three eventually.
    assert!(
        wait_converged(&w, Duration::from_secs(5)),
        "replicas converged"
    );
    for (_, disk) in &w.cluster.replicas {
        let v = disk.get(&("appstate".into(), "counter_1".into())).unwrap();
        assert_eq!(v.data, b"count=42");
    }

    w.cluster.shutdown();
    w.fw.shutdown();
}

#[test]
fn versions_increment_and_overwrite() {
    let w = world();
    let mut c = client(&w);
    let v1 = c.put("ns", "k", b"one").unwrap();
    let v2 = c.put("ns", "k", b"two").unwrap();
    assert!(v2 > v1);
    assert_eq!(c.get("ns", "k").unwrap(), b"two");
    w.cluster.shutdown();
    w.fw.shutdown();
}

#[test]
fn missing_key_is_not_found() {
    let w = world();
    let mut c = client(&w);
    assert!(matches!(c.get("ns", "ghost"), Err(StoreError::NotFound)));
    w.cluster.shutdown();
    w.fw.shutdown();
}

#[test]
fn delete_tombstones_propagate() {
    let w = world();
    let mut c = client(&w);
    c.put("ns", "k", b"data").unwrap();
    assert_eq!(c.list("ns").unwrap(), vec!["k".to_string()]);
    c.delete("ns", "k").unwrap();
    assert!(matches!(c.get("ns", "k"), Err(StoreError::NotFound)));
    assert!(c.list("ns").unwrap().is_empty());
    w.cluster.shutdown();
    w.fw.shutdown();
}

/// "If one or two of the servers fail or crash, ACE services may still
/// access the stored information."
#[test]
fn one_replica_down_reads_and_writes_continue() {
    let w = world();
    let mut c = client(&w);
    c.put("ns", "before", b"x").unwrap();

    // Crash replica 1 abruptly.
    w.net.kill_host(&"s1".into());

    // Reads and quorum (2/3) writes still work.
    assert_eq!(c.get("ns", "before").unwrap(), b"x");
    c.put("ns", "during", b"y").unwrap();
    assert_eq!(c.get("ns", "during").unwrap(), b"y");

    // Cleanup: the s1 daemon is dead; crash its handle.
    for (handle, _) in w.cluster.replicas {
        if handle.addr().host.as_str() == "s1" {
            handle.crash();
        } else {
            handle.shutdown();
        }
    }
    w.fw.shutdown();
}

/// Invariant: with one replica down, a write whose memory is stale is one
/// refused round, not a failure.  Once a call has found the replica gone,
/// the next proposal is not sent to it, so it cannot have taken one, and a
/// round the two live replicas refused is proposed again above what they
/// hold.  Two writers share one key, `b` writing twice for each of `a`'s
/// puts, so every put of `a`'s starts below the newest version.  Fails with
/// an unsent replica counted as one that may have taken the proposal
/// (`WriteRound::lost` where the write path skips it): `a`'s puts end
/// `QuorumFailed`.
#[test]
fn a_stale_write_with_one_replica_down_is_proposed_again() {
    let w = world();
    let (mut a, mut b) = (client(&w), client(&w));
    a.put("ns", "k", b"a0").unwrap();
    w.net.kill_host(&"s1".into());
    // A read finds s1 gone for each client: the call that does so cannot
    // tell whether a command left, so a proposal is not what finds it.
    for c in [&mut a, &mut b] {
        assert_eq!(c.get("ns", "k").unwrap(), b"a0");
    }
    for i in 1..=5 {
        for j in 0..2 {
            b.put("ns", "k", format!("b{i}.{j}").as_bytes()).unwrap();
        }
        let value = format!("a{i}");
        a.put("ns", "k", value.as_bytes())
            .unwrap_or_else(|e| panic!("a's put {i} failed: {e}"));
        assert_eq!(b.get("ns", "k").unwrap(), value.as_bytes());
    }
    assert!(a.stats().refused_rounds >= 5, "{:?}", a.stats());

    for (handle, _) in w.cluster.replicas {
        if handle.addr().host.as_str() == "s1" {
            handle.crash();
        } else {
            handle.shutdown();
        }
    }
    w.fw.shutdown();
}

#[test]
fn two_replicas_down_reads_work_writes_fail() {
    let w = world();
    let mut c = client(&w);
    c.put("ns", "k", b"v").unwrap();

    w.net.kill_host(&"s1".into());
    w.net.kill_host(&"s2".into());

    assert_eq!(
        c.get("ns", "k").unwrap(),
        b"v",
        "one survivor still serves reads"
    );
    assert!(matches!(
        c.put("ns", "k", b"new"),
        Err(StoreError::QuorumFailed {
            acked: 1,
            quorum: 2
        })
    ));

    for (handle, _) in w.cluster.replicas {
        if handle.addr().host.as_str() == "s3" {
            handle.shutdown();
        } else {
            handle.crash();
        }
    }
    w.fw.shutdown();
}

#[test]
fn all_replicas_down_is_distinguished() {
    let w = world();
    let mut c = client(&w);
    c.put("ns", "k", b"v").unwrap();
    for h in ["s1", "s2", "s3"] {
        w.net.kill_host(&h.into());
    }
    assert!(matches!(c.get("ns", "k"), Err(StoreError::AllReplicasDown)));
    for (handle, _) in w.cluster.replicas {
        handle.crash();
    }
    w.fw.shutdown();
}

/// The E15/E19 recovery path: a replica crashes, misses writes, restarts on
/// its surviving disk, and anti-entropy brings it back up to date.
#[test]
fn crashed_replica_recovers_via_anti_entropy() {
    let mut w = world();
    let mut c = client(&w);
    c.put("ns", "old", b"before crash").unwrap();
    assert!(wait_converged(&w, Duration::from_secs(5)));

    // Crash s1, write while it is down.
    w.cluster[0].0.crash();
    let crashed_disk = w.cluster[0].1.clone();
    for i in 0..10 {
        c.put("ns", &format!("missed_{i}"), b"written while down")
            .unwrap();
    }
    // s1's disk does not have the new keys yet.
    assert!(crashed_disk
        .get(&("ns".into(), "missed_0".into()))
        .is_none());

    // Revive the host and respawn the replica over its old storage.
    w.net.revive_host(&"s1".into());
    w.cluster.respawn(&w.net, 0).unwrap();
    let crashed_disk = w.cluster[0].1.clone();

    // Anti-entropy catches it up.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let ok = (0..10).all(|i| {
            crashed_disk
                .get(&("ns".into(), format!("missed_{i}")))
                .is_some()
        });
        if ok {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "replica never caught up"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    w.cluster.shutdown();
    w.fw.shutdown();
}

/// A respawn reopens the replica's storage instead of reusing the image in
/// memory: the image it replaces is fenced, the successor recovers the
/// acknowledged writes from the log, and it registers one incarnation up.
/// Fails if a respawn reuses the live image.
#[test]
fn a_respawned_replica_fences_the_instance_it_replaces() {
    let mut w = world();
    let mut c = client(&w);
    c.put("ns", "acked", b"before respawn").unwrap();
    assert!(wait_converged(&w, Duration::from_secs(5)));
    let replaced = w.cluster[0].1.clone();
    let incarnation = w.cluster[0].0.incarnation();

    w.cluster.respawn(&w.net, 0).unwrap();

    let late = ace_store::Versioned {
        data: b"from the replaced instance".to_vec(),
        version: 99,
        writer: "zombie".into(),
        deleted: false,
    };
    let refused = replaced.apply(("ns".into(), "late".into()), late);
    assert!(
        matches!(&refused, Err(StoreError::Io(msg)) if msg.contains("fenced by a newer open")),
        "the replaced image still writes: {refused:?}"
    );
    let successor = &w.cluster[0];
    assert_eq!(
        successor
            .1
            .get(&("ns".into(), "acked".into()))
            .unwrap()
            .data,
        b"before respawn"
    );
    assert_eq!(successor.0.incarnation(), incarnation + 1);

    // The directory holds `store_1` at the new incarnation: a renewal at
    // the old one is fenced, one at the new one is granted.
    let asd = w.fw.directory().replicas(0)[0].clone();
    let mut link = ServiceClient::connect(&w.net, &"core".into(), asd, &keypair()).unwrap();
    let renew = |at: u64| {
        CmdLine::new("renewLease")
            .arg("name", "store_1")
            .arg("incarnation", at as i64)
    };
    match link.call(&renew(incarnation)) {
        Err(ClientError::Service { code, msg }) => {
            assert_eq!(code, ErrorCode::BadState);
            let registered = format!("(registered: {})", incarnation + 1);
            assert!(msg.contains(&registered), "{msg}");
        }
        other => panic!("a renewal at the replaced incarnation was not fenced: {other:?}"),
    }
    link.call(&renew(incarnation + 1)).unwrap();

    w.cluster.shutdown();
    w.fw.shutdown();
}

/// Anti-entropy needs no directory: a replica syncs with the rest of its
/// group, named at spawn, so with the ASD down a write that reached one
/// replica still reaches all three.  Fails if a replica asks the directory
/// for its peers.
#[test]
fn anti_entropy_runs_with_the_directory_down() {
    let w = world();
    w.fw.asd.crash();
    let only_first = vec![w.cluster.addrs[0].clone()];
    let mut c = StoreClient::new(w.net.clone(), "core", keypair(), only_first).with_quorum(1);
    c.put("ns", "lonely", b"written to one replica").unwrap();

    let key = ("ns".to_string(), "lonely".to_string());
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    while !w
        .cluster
        .replicas
        .iter()
        .all(|(_, disk)| disk.get(&key).is_some())
    {
        assert!(
            std::time::Instant::now() < deadline,
            "a replica never pulled the key with the directory down"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    w.cluster.shutdown();
    w.fw.shutdown();
}

/// Two writers racing on the same key converge to one deterministic winner
/// on every replica.
#[test]
fn concurrent_writers_converge() {
    let w = world();
    let mut a = client(&w);
    let mut b = client(&w);
    a.put("ns", "seed", b"seed").unwrap();

    // Both clients read version v and write v+1 concurrently (the writer id
    // breaks the tie).
    let aj = {
        let mut a2 = client(&w);
        std::thread::spawn(move || a2.put("ns", "contested", b"from A"))
    };
    let bj = std::thread::spawn(move || b.put("ns", "contested", b"from B"));
    aj.join().unwrap().unwrap();
    bj.join().unwrap().unwrap();

    assert!(
        wait_converged(&w, Duration::from_secs(5)),
        "replicas converged"
    );
    let winner = a.get("ns", "contested").unwrap();
    assert!(winner == b"from A" || winner == b"from B");
    // Every replica holds exactly the winner.
    for (_, disk) in &w.cluster.replicas {
        assert_eq!(
            disk.get(&("ns".into(), "contested".into())).unwrap().data,
            winner
        );
    }

    w.cluster.shutdown();
    w.fw.shutdown();
}

#[test]
fn read_repair_fixes_stale_replica() {
    let w = world();
    let mut c = client(&w);
    c.put("ns", "k", b"v1").unwrap();
    assert!(wait_converged(&w, Duration::from_secs(5)));

    // Manually regress replica 3's disk to simulate staleness.
    let disk3 = &w.cluster.replicas[2].1;
    disk3
        .apply(
            ("ns".into(), "k".into()),
            ace_store::Versioned {
                data: b"v1".to_vec(),
                version: 0,
                writer: "old".into(),
                deleted: false,
            },
        )
        .unwrap();
    // (apply refuses to regress — so instead verify repair via a fresh key
    // missing from one replica: partition s3, write, heal, read.)
    w.net.partition(&"core".into(), &"s3".into());
    c.put("ns", "repaired", b"value").unwrap();
    w.net.heal_all();
    // Also cut s3 off from its peers' sync briefly?  Not needed: the read
    // itself must repair.  Read through the client (which reaches s3 now).
    assert_eq!(c.get("ns", "repaired").unwrap(), b"value");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if disk3.get(&("ns".into(), "repaired".into())).is_some() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "read repair never landed"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    w.cluster.shutdown();
    w.fw.shutdown();
}

#[test]
fn degraded_writes_are_counted_and_logged() {
    let w = world();
    let mut c = client(&w).with_logger(w.fw.logger_addr.clone());

    // Full-strength write: counted, not degraded.
    c.put("ns", "k0", b"all-up").unwrap();
    let s = c.stats();
    assert_eq!((s.writes, s.degraded_writes, s.quorum_failures), (1, 0, 0));

    // One replica down: the write still reaches quorum but is degraded.
    w.cluster.replicas[2].0.crash();
    c.put("ns", "k1", b"degraded").unwrap();
    let s = c.stats();
    assert_eq!((s.writes, s.degraded_writes), (2, 1));
    assert_eq!(s.quorum_failures, 0);

    // The warning reached the Net Logger.
    let me = keypair();
    let mut logger =
        ace_directory::LoggerClient::connect(&w.net, &"core".into(), w.fw.logger_addr.clone(), &me)
            .unwrap();
    let warnings = logger.tail(50, Some("warn")).unwrap();
    assert!(
        warnings
            .iter()
            .any(|(_, _, _, _, msg)| msg.contains("degraded psPut ns/k1") && msg.contains("2/3")),
        "degraded-write warning missing from logger tail: {warnings:?}"
    );

    // Two replicas down: below quorum — failure counted, no ack.
    w.cluster.replicas[1].0.crash();
    assert!(matches!(
        c.put("ns", "k2", b"no quorum"),
        Err(StoreError::QuorumFailed { .. })
    ));
    let s = c.stats();
    assert_eq!((s.writes, s.degraded_writes, s.quorum_failures), (2, 1, 1));

    w.cluster.shutdown();
    w.fw.shutdown();
}

/// A degraded write's warning is a cast: the client's pool sends the
/// logger one `log` frame, the line lands, and the logger sends nothing
/// back — nobody reads an answer to it.
#[test]
fn a_degraded_write_casts_one_frame_to_the_logger() {
    let w = world();
    let sent = MetricsRegistry::new();
    let pool = LinkPool::with_metrics(&w.net, "core", keypair(), &sent);
    let mut c = client(&w)
        .with_pool(std::sync::Arc::new(pool))
        .with_logger(w.fw.logger_addr.clone());
    let wire = |registry: &MetricsRegistry, name: &str| {
        registry.snapshot().counters.get(name).copied().unwrap_or(0)
    };
    let answered = || wire(w.fw.logger.metrics(), "wire.reply.log.frames");
    let casts = || wire(&sent, "wire.log.frames");
    c.put("ns", "warm", b"all-up").unwrap();
    let answered_before = answered();

    w.cluster.replicas[2].0.crash();
    c.put("ns", "k1", b"degraded").unwrap();
    assert_eq!(c.stats().degraded_writes, 1);
    assert_eq!(casts(), 1, "frames the client sent the logger");

    // The line is in the logger's tail only once the logger has run it, and
    // a reply to it would have left in the same dispatch.
    let me = keypair();
    let mut logger =
        ace_directory::LoggerClient::connect(&w.net, &"core".into(), w.fw.logger_addr.clone(), &me)
            .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !logger
        .tail(50, Some("warn"))
        .unwrap()
        .iter()
        .any(|(_, _, _, _, msg)| msg.contains("degraded psPut ns/k1"))
    {
        assert!(std::time::Instant::now() < deadline, "warning never landed");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        answered() - answered_before,
        0,
        "the logger answered the line"
    );

    w.cluster.shutdown();
    w.fw.shutdown();
}

#[test]
fn replica_durability_is_on_by_default() {
    let w = world();
    let mut c = client(&w);
    c.put("ns", "k", b"logged").unwrap();
    // Every replica that acked has the write in its WAL, not just in RAM.
    let logged = w
        .cluster
        .replicas
        .iter()
        .filter(|(_, disk)| disk.wal_stats().is_some_and(|s| s.appends >= 1))
        .count();
    assert!(logged >= 2, "quorum of replicas must have WAL appends");

    w.cluster.shutdown();
    w.fw.shutdown();
}

/// A replica's disk footprint is pulled over the wire: `aceStats` carries
/// `store.<name>.liveBytes`, `wal.<name>.snapshotBytes`,
/// `wal.<name>.logBytes` and the rewrite volume `wal.<name>.compactedBytes`,
/// and beside them what the replica holds in memory of that state, its key
/// directory, `mem.store.<name>.bytes`: under a sixth of the live bytes for
/// 1 KiB values, since no value is held in memory.
/// After an overwrite storm at acebench's 4 MiB cap every replica of the
/// group holds the compaction rule's bound: snapshot plus log within
/// `max(2·live, floor)`, where under the cap alone the log would still hold
/// all six rounds.  Every compaction rewrote at least the state it held
/// then, which is never less than the first round's keys.
#[test]
fn a_replicas_disk_footprint_is_read_over_the_wire() {
    const KEYS: usize = 300;
    let net = SimNet::new();
    net.add_host("core");
    let hosts: Vec<HostId> = ["s1", "s2", "s3"]
        .into_iter()
        .map(|h| {
            net.add_host(h);
            HostId::from(h)
        })
        .collect();
    let config = WalConfig {
        compact_threshold: 4 << 20,
    };
    let plane = spawn_sharded_store(&net, &hosts, 1, 3, SYNC, config).unwrap();
    let identity = keypair();
    let pool = Arc::new(LinkPool::new(&net, "core", identity));
    let mut c = plane.client(&net, "core", identity, pool);
    // 300 fresh 1 KiB keys, then five overwrites of each, 60 to a batch.
    for round in 0..6u8 {
        for start in (0..KEYS).step_by(60) {
            let items: Vec<(String, Vec<u8>)> = (start..start + 60)
                .map(|i| (format!("k{i:03}"), vec![round; 1024]))
                .collect();
            c.put_many("storm", &items).unwrap();
        }
    }

    for (r, addr) in plane.placement.replicas(0).iter().enumerate() {
        let mut link =
            ServiceClient::connect(&net, &"core".into(), addr.clone(), &identity).unwrap();
        let reply = link.call(&CmdLine::new("aceStats")).unwrap();
        let gauges = StatsReport::from_cmdline(&reply).gauges;
        let gauge =
            |plane: &str, suffix: &str| gauges[&format!("{plane}.store-s0r{r}.{suffix}")] as u64;
        let live = gauge("store", "liveBytes");
        let (snapshot, log) = (gauge("wal", "snapshotBytes"), gauge("wal", "logBytes"));
        assert!(live >= KEYS as u64 * 1024, "replica {r}: {live} B live");
        let held = gauges[&format!("mem.store.store-s0r{r}.bytes")] as u64;
        assert!(
            held > 0 && held * 100 <= live * 15,
            "replica {r}: {held} B in memory for {live} B live"
        );
        let compactions = gauge("wal", "compactions");
        assert!(compactions >= 1, "replica {r} never compacted");
        assert!(
            gauge("wal", "compactedBytes") >= compactions * KEYS as u64 * 1024,
            "replica {r}: {} B rewritten by {compactions} compactions",
            gauge("wal", "compactedBytes")
        );
        assert!(
            snapshot + log <= (2 * live).max(COMPACT_FLOOR),
            "replica {r}: {snapshot} B snapshot + {log} B log for {live} B live"
        );
    }
    plane.shutdown();
}

/// A bit flipped in a live record's value, after the record was written,
/// is found when the record is read.  The read is refused: the damaged
/// bytes are never served.  The drop is counted (`damaged`), and the key
/// leaves the replica's directory and hash tree.  A quorum read whose
/// value fetch asks the damaged replica first returns the peers' value.
/// One anti-entropy round then pulls the key back, and the replica's
/// checksum equals its peers'.  Fails under "skip the CRC check in `get`":
/// the damaged replica serves the flipped bytes and the quorum read returns
/// them.
#[test]
fn a_damaged_record_is_refused_and_pulled_back() {
    let net = SimNet::new();
    for h in ["core", "s1", "s2", "s3"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    // No round runs but the one this test asks for.
    let idle = Duration::from_secs(3600);
    let cluster = spawn_store_cluster(&net, &fw, &["s1", "s2", "s3"], idle).unwrap();
    let addrs = &cluster.addrs;
    let value: Vec<u8> = (0..4096u32).map(|i| (i * 7) as u8).collect();
    let s3 = &cluster.replicas[2].1;
    let before = s3.bytes().log;
    StoreClient::new(net.clone(), "core", keypair(), addrs.clone())
        .put("app", "k", &value)
        .unwrap();
    let end = s3.bytes().log;
    assert!(end > before + 4096, "the put's record is on s3's log");

    // Latent damage 100 bytes before the record's end, inside its value:
    // the next append on s3 flips the bit, then lands.
    let bit = (end - 100) * 8;
    net.storage_faults()
        .arm(&"s3".into(), ace_net::fault::StorageFault::BitFlip(bit));
    let other = ace_store::Versioned {
        data: b"trigger".to_vec(),
        version: 1,
        writer: "w".into(),
        deleted: false,
    };
    s3.apply(("app".into(), "other".into()), other.clone())
        .unwrap();
    for (_, disk) in &cluster.replicas[..2] {
        disk.apply(("app".into(), "other".into()), other.clone())
            .unwrap();
    }

    // A reader that does not hold the value, asking s3 first: the quorum
    // read fetches the value from the damaged replica.
    let order = vec![addrs[2].clone(), addrs[0].clone(), addrs[1].clone()];
    let mut reader = StoreClient::new(net.clone(), "core", keypair(), order);
    assert_eq!(reader.get("app", "k").unwrap(), value, "the peers' value");
    assert_eq!(s3.wal_stats().unwrap().damaged, 1, "the refusal is counted");
    assert!(s3.get(&("app".into(), "k".into())).is_none(), "dropped");
    assert_ne!(s3.checksum(), cluster.replicas[0].1.checksum());

    let mut link =
        ServiceClient::connect(&net, &"core".into(), addrs[2].clone(), &keypair()).unwrap();
    link.call(&CmdLine::new("psSync")).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while s3.checksum() != cluster.replicas[0].1.checksum() {
        assert!(
            std::time::Instant::now() < deadline,
            "s3 never pulled k back"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let pulled = s3.get(&("app".into(), "k".into())).unwrap();
    assert_eq!(pulled.data, value);
    cluster.shutdown();
    fw.shutdown();
}
