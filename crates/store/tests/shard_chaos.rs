//! The sharded store under fire: kill one replica in the middle of a
//! write storm and hold three properties:
//!
//! 1. **Zero lost acked writes** — every `put` that returned `Ok` is
//!    readable after the fault plan resolves, including through the
//!    snapshot-ship + tree top-up rebuild of the victim replica.
//! 2. **Monotone incarnations** — the rebuilt replica comes back with a
//!    strictly higher incarnation than the one that died.
//! 3. **Shard-local blast radius** — groups that do not contain the
//!    victim serve reads and writes uninterrupted (zero errors) for the
//!    whole plan.

use ace_core::prelude::*;
use ace_net::fault::{FaultPlan, FaultPlanConfig};
use ace_security::keys::KeyPair;
use ace_store::{spawn_sharded_store, ShardedStoreClient, WalConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const GROUPS: usize = 3;
const REPLICATION: usize = 3;
const WRITERS: usize = 4;
const SYNC: Duration = Duration::from_millis(100);
const PLAN_LEN: Duration = Duration::from_millis(1500);
const RECOVERY_DEADLINE: Duration = Duration::from_secs(15);

fn keypair() -> KeyPair {
    KeyPair::generate(&mut rand::thread_rng())
}

fn await_true(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + RECOVERY_DEADLINE;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// One full chaos run for `seed`: the victim replica is a pure function
/// of the seed, the fault schedule is `FaultPlan::generate` over its host.
fn run_shard_chaos(seed: u64) {
    let net = SimNet::new();
    net.add_host("client");
    let hosts: Vec<HostId> = (0..GROUPS * REPLICATION)
        .map(|i| {
            let h = format!("s{i}");
            net.add_host(h.as_str());
            HostId::from(h.as_str())
        })
        .collect();
    let mut cluster = spawn_sharded_store(
        &net,
        &hosts,
        GROUPS,
        REPLICATION,
        SYNC,
        WalConfig::default(),
    )
    .unwrap();
    let placement = cluster.placement.clone();

    let client = |name: &str| {
        let identity = keypair();
        let pool = Arc::new(LinkPool::new(&net, "client", identity));
        let _ = name;
        ShardedStoreClient::new(net.clone(), "client", identity, pool, placement.clone())
    };

    // Pre-seed keys on every group so readers have stable targets.
    let mut seeder = client("seeder");
    for i in 0..30 {
        seeder.put("app", &format!("seed{i}"), b"steady").unwrap();
    }

    // The victim is derived from the seed.
    let victim_idx = (seed as usize) % (GROUPS * REPLICATION);
    let victim_group = victim_idx / REPLICATION;
    let victim_replica = victim_idx % REPLICATION;
    let victim_addr = placement.replicas(victim_group)[victim_replica].clone();
    let victim_host = victim_addr.host.clone();
    let old_incarnation = cluster.groups[victim_group][victim_replica].0.incarnation();

    let mut fault_config = FaultPlanConfig::new(PLAN_LEN, vec![victim_host.clone()]);
    fault_config.crash_windows = 2;
    fault_config.max_latency = Duration::from_millis(1);
    let plan = FaultPlan::generate(seed, &fault_config);
    assert_eq!(
        plan,
        FaultPlan::generate(seed, &fault_config),
        "fault schedule must be a pure function of the seed"
    );

    let foreign_write_errors = AtomicU64::new(0);
    let foreign_read_errors = AtomicU64::new(0);
    let victim_group_failures = AtomicU64::new(0);
    let reads_ok = AtomicU64::new(0);

    // Write storm: each writer records exactly the puts that were ACKED.
    // A quorum failure is a clean refusal, not a loss — losses are acked
    // writes that later read back wrong or missing.
    let acked: Vec<Vec<String>> = std::thread::scope(|scope| {
        let storm_deadline = Instant::now() + PLAN_LEN;
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let mut c = client("writer");
                let foreign_errors = &foreign_write_errors;
                let victim_failures = &victim_group_failures;
                scope.spawn(move || {
                    let mut acked = Vec::new();
                    let mut i = 0usize;
                    while Instant::now() < storm_deadline {
                        let key = format!("w{w}k{i}");
                        let on_victim_group = c.group_for("app", &key) == victim_group;
                        match c.put("app", &key, key.as_bytes()) {
                            Ok(_) => acked.push(key),
                            Err(_) if on_victim_group => {
                                victim_failures.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                foreign_errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        i += 1;
                    }
                    acked
                })
            })
            .collect();

        // Read storm over the pre-seeded keys of non-victim groups: their
        // shards must serve uninterrupted while the victim's host flaps.
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let mut c = client("reader");
                let errors = &foreign_read_errors;
                let ok = &reads_ok;
                scope.spawn(move || {
                    let mut i = r;
                    while Instant::now() < storm_deadline {
                        let key = format!("seed{}", i % 30);
                        if c.group_for("app", &key) != victim_group {
                            match c.get("app", &key) {
                                Ok(v) if v == b"steady" => {
                                    ok.fetch_add(1, Ordering::Relaxed);
                                }
                                _ => {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        i += 1;
                    }
                })
            })
            .collect();

        let runner = plan.spawn(&net);
        let acked: Vec<Vec<String>> = writers
            .into_iter()
            .map(|h| h.join().expect("writer panicked"))
            .collect();
        for h in readers {
            h.join().expect("reader panicked");
        }
        runner.join(); // network fully healed
        acked
    });

    // Property 3: shard-local blast radius.
    assert_eq!(
        foreign_write_errors.load(Ordering::Relaxed),
        0,
        "seed {seed}: writes to non-victim groups failed"
    );
    assert_eq!(
        foreign_read_errors.load(Ordering::Relaxed),
        0,
        "seed {seed}: reads on non-victim groups failed"
    );
    assert!(reads_ok.load(Ordering::Relaxed) > 0, "read storm never ran");

    // Rebuild the victim via snapshot shipping + one tree round.
    let report = cluster
        .rebuild_replica(&net, victim_group, victim_replica)
        .unwrap();
    assert!(
        report.snapshot_records > 0,
        "seed {seed}: rebuild shipped an empty snapshot: {report:?}"
    );
    assert_ne!(report.peer, victim_addr);

    // Property 2: monotone incarnations.
    let new_incarnation = cluster.groups[victim_group][victim_replica].0.incarnation();
    assert!(
        new_incarnation > old_incarnation,
        "seed {seed}: incarnation went {old_incarnation} -> {new_incarnation}"
    );

    // Property 1: zero lost acked writes — through the client...
    let total_acked: usize = acked.iter().map(Vec::len).sum();
    assert!(total_acked > 0, "seed {seed}: storm never acked a write");
    let mut auditor = client("auditor");
    for key in acked.iter().flatten() {
        assert_eq!(
            auditor.get("app", key).unwrap(),
            key.as_bytes(),
            "seed {seed}: acked write {key} lost after the fault plan"
        );
    }
    // ...and on the rebuilt disk itself, once top-up + anti-entropy settle:
    // every acked key the victim's group owns must land there.
    let rebuilt = cluster.groups[victim_group][victim_replica].1.clone();
    let victim_keys: Vec<&String> = acked
        .iter()
        .flatten()
        .filter(|k| placement.group_for("app", k) == victim_group)
        .collect();
    assert!(
        !victim_keys.is_empty(),
        "seed {seed}: victim group owns no storm keys — rebalance the fixture"
    );
    await_true(
        "rebuilt replica to hold every acked victim-group key",
        || {
            victim_keys
                .iter()
                .all(|k| rebuilt.get(&("app".to_string(), (*k).clone())).is_some())
        },
    );

    eprintln!(
        "shard_chaos seed {seed:#x}: victim s{victim_group}r{victim_replica} ({victim_host}), \
         {total_acked} acked writes ({} on victim group), {} clean refusals, \
         snapshot {} records + {} pulled via {}",
        victim_keys.len(),
        victim_group_failures.load(Ordering::Relaxed),
        report.snapshot_records,
        report.pulled,
        report.peer,
    );

    cluster.shutdown();
}

#[test]
fn shard_chaos_seed_a() {
    run_shard_chaos(0xACE5);
}

#[test]
fn shard_chaos_seed_b() {
    run_shard_chaos(17);
}

/// Seed expansion hook for the CI soak job, mirroring `shard_failover`:
/// `CHAOS_SEEDS="0xACE3,42,7"` runs each listed seed.
#[test]
fn shard_chaos_env_seeds() {
    let Ok(spec) = std::env::var("CHAOS_SEEDS") else {
        return;
    };
    for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let seed = match token.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => token.parse(),
        }
        .unwrap_or_else(|_| panic!("CHAOS_SEEDS: unparsable seed `{token}`"));
        eprintln!("shard_chaos: running env seed {seed:#x}");
        run_shard_chaos(seed);
    }
}
