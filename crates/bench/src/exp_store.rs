//! E15 + E19 + E23 — the persistent store (Fig. 17): latency by replica
//! health, recovery/resync time, replication-factor ablation, robust-service
//! MTTR, and what "constant data synchronization" costs at the keyspace and
//! interval `acebench` is steered away from.

use crate::util::*;
use ace_apps::RobustCounter;
use ace_core::directory::subscribe_expiry;
use ace_core::prelude::*;
use ace_directory::bootstrap;
use ace_security::keys::KeyPair;
use ace_store::{
    spawn_sharded_store, spawn_store_cluster, DiskImage, MemStorage, StorageHandle, StoreClient,
    StoreKey, Versioned, Wal, WalConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn keypair() -> KeyPair {
    KeyPair::generate(&mut rand::thread_rng())
}

/// E15: put/get latency with 3, 2, and 1 replicas alive; replication-factor
/// ablation; and crash-recovery resync time.
pub fn e15() {
    header("E15", "Fig. 17", "persistent store under replica failures");
    row(
        "cluster state",
        &["put".into(), "get".into(), "writes OK?".into()],
    );

    // Replication-factor ablation: 1 vs 2 vs 3 replicas (Fig. 17 argues for
    // three).
    for replicas in [1usize, 2, 3] {
        let net = SimNet::new();
        net.add_host("core");
        let hosts: Vec<String> = (0..replicas).map(|i| format!("s{}", i + 1)).collect();
        for h in &hosts {
            net.add_host(h.as_str());
        }
        let fw = bootstrap(&net, "core", Duration::from_secs(120)).unwrap();
        let host_refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
        let cluster =
            spawn_store_cluster(&net, &fw, &host_refs, Duration::from_millis(200)).unwrap();
        let mut client = StoreClient::new(net.clone(), "core", keypair(), cluster.addrs.clone());
        let mut i = 0u64;
        let put = time_median(50, || {
            client
                .put("bench", &format!("k{i}"), b"value bytes")
                .unwrap();
            i += 1;
        });
        client.put("bench", "fixed", b"v").unwrap();
        let get = time_median(50, || {
            client.get("bench", "fixed").unwrap();
        });
        row(
            &format!("replication factor {replicas}, all up"),
            &[fmt_dur(put), fmt_dur(get), "yes".into()],
        );
        cluster.shutdown();
        fw.shutdown();
    }

    // Degraded modes on the canonical 3-replica cluster.
    let net = SimNet::new();
    net.add_host("core");
    for h in ["s1", "s2", "s3"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(120)).unwrap();
    let mut cluster =
        spawn_store_cluster(&net, &fw, &["s1", "s2", "s3"], Duration::from_millis(100)).unwrap();
    let mut client = StoreClient::new(net.clone(), "core", keypair(), cluster.addrs.clone());
    client.put("bench", "fixed", b"v").unwrap();

    net.kill_host(&"s1".into());
    let mut i = 0u64;
    let put = time_median(30, || {
        client.put("bench", &format!("d{i}"), b"v").unwrap();
        i += 1;
    });
    let get = time_median(30, || {
        client.get("bench", "fixed").unwrap();
    });
    row(
        "3 replicas, 1 down",
        &[fmt_dur(put), fmt_dur(get), "yes (quorum 2)".into()],
    );

    net.kill_host(&"s2".into());
    let get = time_median(30, || {
        client.get("bench", "fixed").unwrap();
    });
    let write_fails = client.put("bench", "x", b"v").is_err();
    row(
        "3 replicas, 2 down",
        &[
            "-".into(),
            fmt_dur(get),
            if write_fails {
                "no (reads only)".into()
            } else {
                "BUG".into()
            },
        ],
    );

    // Recovery: revive s1 (s2 stays dead), see how long anti-entropy takes
    // to resync the missed writes.
    const MISSED: usize = 200;
    // s1 and s2 are down; the surviving quorum is 1 — relax quorum for the
    // backfill writes so the experiment can create divergence.
    let mut loose =
        StoreClient::new(net.clone(), "core", keypair(), cluster.addrs.clone()).with_quorum(1);
    for i in 0..MISSED {
        loose
            .put("recovery", &format!("m{i}"), b"written while down")
            .unwrap();
    }
    net.revive_host(&"s1".into());
    cluster.respawn(&net, 0).unwrap();
    let s1_disk = cluster[0].1.clone();
    let resync = time_once(|| {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let caught_up =
                (0..MISSED).all(|i| s1_disk.get(&("recovery".into(), format!("m{i}"))).is_some());
            if caught_up {
                break;
            }
            assert!(Instant::now() < deadline, "resync never completed");
            std::thread::sleep(Duration::from_millis(10));
        }
    });
    row(
        &format!("resync {MISSED} missed writes"),
        &[fmt_dur(resync), String::new(), String::new()],
    );

    for (handle, _) in cluster.replicas {
        if handle.addr().host.as_str() == "s3" {
            handle.shutdown();
        } else {
            handle.crash();
        }
    }
    fw.shutdown();

    // WAL recovery time: what a respawned replica pays before serving,
    // replaying an N-update history over 64 keys from (a) the raw log,
    // appended through the `Wal` alone so nothing compacts it, and (b) a
    // compacted snapshot + log tail.
    row(
        "WAL recovery (N updates / 64 keys)",
        &["log only".into(), "snapshot+tail".into(), String::new()],
    );
    let config = WalConfig {
        compact_threshold: 64 << 10,
    };
    let update = |i: u64| {
        let value = Versioned {
            data: vec![0xab; 64],
            version: i + 1,
            writer: "w".into(),
            deleted: false,
        };
        (("bench".to_string(), format!("k{}", i % 64)), value)
    };
    for n in [1_000u64, 10_000] {
        let log_only = StorageHandle::Memory(MemStorage::new());
        let (mut wal, _, _) = Wal::open(&log_only, config.clone()).unwrap();
        for i in 0..n {
            wal.append_batch(&[update(i)]).unwrap();
        }
        let compacted = StorageHandle::Memory(MemStorage::new());
        let (disk, _) = DiskImage::open(&compacted, config.clone()).unwrap();
        for i in 0..n {
            let (key, value) = update(i);
            disk.apply(key, value).unwrap();
        }
        let timings: Vec<Duration> = [log_only, compacted]
            .iter()
            .map(|handle| {
                time_median(10, || {
                    let (recovered, _) = DiskImage::open(handle, config.clone()).unwrap();
                    assert_eq!(recovered.len(), 64);
                })
            })
            .collect();
        row(
            &format!("recover from {n} updates"),
            &[fmt_dur(timings[0]), fmt_dur(timings[1]), String::new()],
        );
    }

    // What a disk holds against the state it logs, at acebench's 4 MiB
    // cap: 1,000 fresh 1 KiB keys, then 5,000 overwrites.
    let (disk, _) = DiskImage::open(
        &StorageHandle::Memory(MemStorage::new()),
        WalConfig {
            compact_threshold: 4 << 20,
        },
    )
    .unwrap();
    for i in 0..6_000u64 {
        let value = Versioned {
            data: vec![0xab; 1024],
            version: i + 1,
            writer: "w".into(),
            deleted: false,
        };
        disk.apply(("bench".into(), format!("k{}", i % 1_000)), value)
            .unwrap();
    }
    let bytes = disk.bytes();
    row(
        "disk / live, 1k keys + 5k overwrites",
        &[
            format!(
                "{:.2}",
                (bytes.snapshot + bytes.log) as f64 / bytes.live as f64
            ),
            String::new(),
            String::new(),
        ],
    );
}

/// E19 (§9): robust-service mean time to recovery across lease durations —
/// crash → lease expiry → `serviceExpired` → Supervisor relaunch → state
/// restore from the store.
pub fn e19() {
    header("E19", "§9", "robust application recovery (MTTR vs lease)");
    row("ASD lease", &["MTTR".into(), "state intact?".into()]);
    for lease_ms in [200u64, 400, 800] {
        let net = SimNet::new();
        for h in ["core", "app", "s1", "s2", "s3"] {
            net.add_host(h);
        }
        let fw = bootstrap(&net, "core", Duration::from_millis(lease_ms)).unwrap();
        let cluster =
            spawn_store_cluster(&net, &fw, &["s1", "s2", "s3"], Duration::from_millis(100))
                .unwrap();
        let me = keypair();
        let replicas = cluster.addrs.clone();
        let cfg = fw
            .service_config("robust", "Service.Counter", "hawk", "app", 5900)
            .with_lease_renew(Duration::from_millis(lease_ms / 4));
        let spawner = {
            let cfg = cfg.clone();
            let replicas = replicas.clone();
            move |net: &SimNet| {
                Daemon::spawn(
                    net,
                    cfg.clone(),
                    Box::new(RobustCounter::new(replicas.clone())),
                )
            }
        };
        let first = spawner(&net).unwrap();
        let addr = first.addr().clone();
        // Probes off: the lease lapse is the only detector, so MTTR tracks
        // the lease.
        let spec = SupervisedSpec::new(
            "robust",
            Box::new(move |net: &SimNet| spawner(net).map(Respawn::from)),
        );
        let watchdog = Supervisor::new(vec![spec], RestartPolicy::default())
            .with_probe_interval(Duration::from_secs(3600));
        let supervisor = Daemon::spawn(
            &net,
            fw.service_config(
                "supervisor",
                "Service.Supervisor",
                "machineroom",
                "core",
                5901,
            ),
            Box::new(watchdog),
        )
        .unwrap();
        let (host, directory) = (&supervisor.addr().host, fw.directory());
        subscribe_expiry(&net, host, &me, &directory, "supervisor", supervisor.addr()).unwrap();

        let mut client = ServiceClient::connect(&net, &"core".into(), addr.clone(), &me).unwrap();
        for _ in 0..10 {
            client.call_ok(&CmdLine::new("increment")).unwrap();
        }
        drop(client);

        let crash_at = Instant::now();
        first.crash();
        let reply = loop {
            if let Ok(mut c) = ServiceClient::connect(&net, &"core".into(), addr.clone(), &me) {
                if let Ok(r) = c.call(&CmdLine::new("read")) {
                    break r;
                }
            }
            assert!(
                crash_at.elapsed() < Duration::from_secs(30),
                "never recovered"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        let mttr = crash_at.elapsed();
        let intact =
            reply.get_int("value") == Some(10) && reply.get_bool("recovered") == Some(true);
        row(
            &format!("{lease_ms} ms"),
            &[
                fmt_dur(mttr),
                if intact { "yes".into() } else { "NO".into() },
            ],
        );

        supervisor.shutdown();
        cluster.shutdown();
        fw.shutdown();
    }
}

/// CPU time (user + system) this process has used, from `/proc/self/stat`
/// in USER_HZ = 100 ticks.  Zero off Linux.
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit(')').next().unwrap_or("");
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse::<u64>().ok())
        .sum();
    Duration::from_millis(ticks * 10)
}

/// What the store plane did over one E23 phase.
struct SyncPhase {
    wire_bytes_per_s: f64,
    cpu_cores: f64,
    /// Peer-rounds: one replica asking one peer, once.
    peer_rounds: u64,
    bytes_per_peer_round: f64,
    /// `syncEqual`, `syncBuckets`, `syncRows`, summed over the replicas.
    tree: [i64; 3],
}

/// `syncs`, `syncEqual`, `syncBuckets`, `syncRows` of `psStats`, summed
/// over every replica (a counter a replica does not report counts as 0).
fn sync_counters(links: &mut [ServiceClient]) -> [i64; 4] {
    let mut sums = [0; 4];
    for link in links {
        let stats = link.call(&CmdLine::new("psStats")).unwrap();
        for (sum, field) in sums
            .iter_mut()
            .zip(["syncs", "syncEqual", "syncBuckets", "syncRows"])
        {
            *sum += stats.get_int(field).unwrap_or(0);
        }
    }
    sums
}

/// Run `work` for about `length` and report what the whole network and the
/// whole process spent meanwhile.  The counters are read over the wire, so
/// they are read outside the measured window.
fn sync_phase(
    net: &SimNet,
    links: &mut [ServiceClient],
    peers: u64,
    length: Duration,
    work: impl FnOnce(Instant),
) -> SyncPhase {
    let before = sync_counters(links);
    let (wire_before, cpu_before, started) =
        (net.metrics().snapshot(), process_cpu(), Instant::now());
    work(started + length);
    std::thread::sleep((started + length).saturating_duration_since(Instant::now()));
    let wall = started.elapsed().as_secs_f64();
    let cpu = (process_cpu() - cpu_before).as_secs_f64();
    let wire = net.metrics().snapshot().since(&wire_before).frame_bytes;
    let after = sync_counters(links);
    let peer_rounds = (after[0] - before[0]) as u64 * peers;
    SyncPhase {
        wire_bytes_per_s: wire as f64 / wall,
        cpu_cores: cpu / wall,
        peer_rounds,
        bytes_per_peer_round: wire as f64 / peer_rounds.max(1) as f64,
        tree: [1, 2, 3].map(|i| after[i] - before[i]),
    }
}

/// E23: the store's anti-entropy at the constants `acebench` had to move —
/// 20,000 keys on the 4×3 sharded plane, every replica syncing with both
/// group peers every 200 ms — first idle, then under 500 puts/s.  On an
/// idle, converged group a peer-round is one root out and `same=true` back;
/// the run **fails** if it moves more than 256 B, which is what keeps an
/// O(keyspace) round from growing back unnoticed.
pub fn e23() {
    const KEYS: usize = 20_000;
    const SYNC: Duration = Duration::from_millis(200);
    const PHASE: Duration = Duration::from_secs(5);
    const PUTS_PER_S: u64 = 500;
    const GROUPS: usize = 4;
    const REPLICATION: usize = 3;
    const IDLE_PEER_ROUND_BOUND: f64 = 256.0;

    header(
        "E23",
        "§6 / Fig. 17",
        "anti-entropy at 20,000 keys / 200 ms (un-steered constants)",
    );
    let net = SimNet::new();
    net.add_host("core");
    let hosts: Vec<HostId> = (0..GROUPS * REPLICATION)
        .map(|i| {
            let h = format!("sh{i}");
            net.add_host(h.as_str());
            HostId::from(h.as_str())
        })
        .collect();
    let cluster = spawn_sharded_store(
        &net,
        &hosts,
        GROUPS,
        REPLICATION,
        SYNC,
        WalConfig::default(),
    )
    .unwrap();

    // Preload straight into the disk images, identically on every replica
    // of the owning group (the way `acebench` does: loading 20,000 keys
    // over the wire is not what is being measured).
    let key = |k: usize| format!("key{k:05}");
    let mut per_group: Vec<Vec<(StoreKey, Versioned)>> = vec![Vec::new(); GROUPS];
    for k in 0..KEYS {
        let g = cluster.placement.group_for("bench", &key(k));
        per_group[g].push((
            ("bench".into(), key(k)),
            Versioned {
                data: vec![k as u8; 256],
                version: 1,
                writer: "preload".into(),
                deleted: false,
            },
        ));
    }
    for (g, entries) in per_group.iter().enumerate() {
        for (_, disk) in &cluster.groups[g] {
            for chunk in entries.chunks(256) {
                disk.apply_batch(chunk.to_vec()).unwrap();
            }
        }
    }

    let identity = keypair();
    let mut links: Vec<ServiceClient> = cluster
        .placement
        .all_replicas()
        .map(|addr| ServiceClient::connect(&net, &"core".into(), addr.clone(), &identity).unwrap())
        .collect();
    let pool = Arc::new(LinkPool::new(&net, "core", identity));
    let mut client = cluster.client(&net, "core", identity, pool);
    // Let every replica open its links to its peers before measuring.
    std::thread::sleep(2 * SYNC);

    let peers = REPLICATION as u64 - 1;
    let idle = sync_phase(&net, &mut links, peers, PHASE, |_| {});
    let mut puts = 0u64;
    let loaded = sync_phase(&net, &mut links, peers, PHASE, |until| {
        // Open loop, sleep-paced: put `n` is due at `n / PUTS_PER_S`.
        let started = Instant::now();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        while Instant::now() < until {
            let due = started + Duration::from_micros(puts * 1_000_000 / PUTS_PER_S);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let k = (state % KEYS as u64) as usize;
            client.put("bench", &key(k), &[puts as u8; 256]).unwrap();
            puts += 1;
        }
    });

    row(
        &format!("{KEYS} keys, {GROUPS}x{REPLICATION}, sync every {SYNC:?}"),
        &["idle 5 s".into(), format!("{PUTS_PER_S} puts/s 5 s")],
    );
    let cells = |p: &SyncPhase| {
        [
            format!("{:.0}", p.wire_bytes_per_s),
            format!("{:.2}", p.cpu_cores),
            p.peer_rounds.to_string(),
            p.tree[0].to_string(),
            p.tree[1].to_string(),
            p.tree[2].to_string(),
        ]
    };
    let labels = [
        "wire bytes/s (whole network)",
        "process CPU (cores busy)",
        "peer-rounds run",
        "syncEqual",
        "syncBuckets",
        "syncRows",
    ];
    for ((label, idle), loaded) in labels.iter().zip(cells(&idle)).zip(cells(&loaded)) {
        row(label, &[idle, loaded]);
    }
    row(
        "wire bytes per peer-round",
        &[
            format!("{:.0}", idle.bytes_per_peer_round),
            "(puts included)".into(),
        ],
    );
    row("puts completed", &["-".into(), puts.to_string()]);

    cluster.shutdown();
    assert!(
        idle.peer_rounds > 0,
        "no anti-entropy round ran in the idle phase"
    );
    assert!(
        idle.bytes_per_peer_round <= IDLE_PEER_ROUND_BOUND,
        "an idle peer-round moved {:.0} B (bound {IDLE_PEER_ROUND_BOUND} B): \
         anti-entropy costs what is stored again, not what diverged",
        idle.bytes_per_peer_round
    );
}
