//! The sharded store under fire: kill one replica in the middle of a storm
//! in which two writers share every key, and check what the clients saw.
//!
//! 1. **Every key is a register** — each put, delete and get any client
//!    made, before, during and after the fault plan, is recorded in one
//!    [`History`], and `check_registers` holds them linearizable under the
//!    store's contract (a failed write is ambiguous; a leased read may trail
//!    another client's write by at most [`LEASE_TTL`], never its own).  A
//!    lost acked write is one way to fail it; a stale read, a read of a
//!    value nobody wrote and a leased read past its bound are the others.
//!    Every value names its write, `w<writer>.<seq>`, so every read says
//!    which write it returned.
//! 2. **Monotone incarnations** — the rebuilt replica answers at a higher
//!    incarnation than the one that died (`check_incarnations` across the
//!    rebuild).
//! 3. **Shard-local blast radius** — groups that do not contain the victim
//!    serve the reads and writes of clients nobody contends with
//!    uninterrupted (zero errors) for the whole plan.
//! 4. **Convergence** — the snapshot-ship + tree top-up rebuild, then
//!    anti-entropy, leave every key of the victim's group on the rebuilt
//!    disk at the value a quorum read returns: the seed keys, the contended
//!    keys and the hundreds of keys the unique-key writers put while the
//!    victim was down.
//!
//! After the storm a quorum read of every key any client touched goes into
//! the history, so an acked write lost anywhere — a contended key, a
//! unique one, a steady client's own, a seed — fails the register check.

use ace_core::prelude::*;
use ace_net::fault::{FaultPlan, FaultPlanConfig};
use ace_net::history::{await_true, env_seeds, Act, History, Outcome};
use ace_security::keys::KeyPair;
use ace_store::placement::LEASE_TTL;
use ace_store::{spawn_sharded_store, ShardedStoreClient, StoreError, WalConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const GROUPS: usize = 3;
const REPLICATION: usize = 3;
/// Writers that put each key once, `u<writer>k<i>`, across every group.
const WRITERS: usize = 4;
/// Writers come in pairs; both writers of a pair write and read the same
/// keys.
const PAIRS: usize = 2;
/// Keys each pair contends on, per group (the victim's included).
const KEYS_PER_GROUP: usize = 2;
const SYNC: Duration = Duration::from_millis(100);
const PLAN_LEN: Duration = Duration::from_millis(1500);
const RECOVERY_DEADLINE: Duration = Duration::from_secs(15);
const NS: &str = "app";

fn keypair() -> KeyPair {
    KeyPair::generate(&mut rand::thread_rng())
}

/// Record a get invoked at `t`: the name of the value it returned, absent,
/// or a failure.  Whether the read lease served it is the client's
/// `leased_reads` moving across the call.
fn record_get(
    history: &History,
    t: Instant,
    client: usize,
    key: &str,
    leased: bool,
    got: &Result<Vec<u8>, StoreError>,
) -> Option<Option<String>> {
    let read = match got {
        Ok(bytes) => Some(Some(String::from_utf8_lossy(bytes).into_owned())),
        Err(StoreError::NotFound) => Some(None),
        Err(_) => None,
    };
    let outcome = if read.is_some() {
        Outcome::Ok
    } else {
        Outcome::Failed
    };
    let act = Act::Get {
        read: read.clone().flatten(),
        leased,
    };
    history.record(t, client, key, act, outcome);
    read
}

/// A get through the client's read path (the lease where it has one).
fn get(
    history: &History,
    c: &mut ShardedStoreClient,
    client: usize,
    key: &str,
) -> Option<Option<String>> {
    let leased = c.stats().leased_reads;
    let t = history.invoke();
    let got = c.get(NS, key);
    let leased = c.stats().leased_reads > leased;
    record_get(history, t, client, key, leased, &got)
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
    let history = History::new(net.clock().clone());

    let client = || {
        let identity = keypair();
        let pool = Arc::new(LinkPool::new(&net, "client", identity));
        ShardedStoreClient::new(net.clone(), "client", identity, pool, placement.clone())
    };

    // Pre-seed keys on every group so readers have stable targets.
    let mut seeder = client();
    for i in 0..30 {
        let (key, steady) = (format!("seed{i}"), Act::Put("steady".into()));
        assert!(history.write(0, &key, steady, || seeder.put(NS, &key, b"steady").is_ok()));
    }

    // Each pair's keys: the first KEYS_PER_GROUP of its names on each group.
    let pair_keys: Vec<Vec<String>> = (0..PAIRS)
        .map(|p| {
            let mut keys = Vec::new();
            for g in 0..GROUPS {
                let on_g = (0..)
                    .map(|i| format!("p{p}k{i}"))
                    .filter(|k| placement.group_for(NS, k) == g);
                keys.extend(on_g.take(KEYS_PER_GROUP));
            }
            keys
        })
        .collect();

    // The victim is derived from the seed.
    let victim_idx = (seed as usize) % (GROUPS * REPLICATION);
    let victim_group = victim_idx / REPLICATION;
    let victim_replica = victim_idx % REPLICATION;
    let victim_addr = placement.replicas(victim_group)[victim_replica].clone();
    let victim_host = victim_addr.host.clone();
    let victim_name = format!("s{victim_group}r{victim_replica}");
    let t = history.invoke();
    let old_incarnation = cluster.groups[victim_group][victim_replica].0.incarnation();
    history.record(
        t,
        0,
        &victim_name,
        Act::Incarnation(old_incarnation),
        Outcome::Ok,
    );

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
    let contended_failures = AtomicU64::new(0);
    let reads_ok = AtomicU64::new(0);

    // Storm: two writers per key, each putting (one op in eight a
    // delete) and reading its pair's keys in turn.  A failed write is an
    // ambiguous one, not a loss: the checker decides what it may explain.
    // Contention alone fails some, so the blast radius is measured by the
    // steady clients below, whose keys nobody else writes.
    let storm_deadline = Instant::now() + PLAN_LEN;
    let mut writers: Vec<ShardedStoreClient> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PAIRS * 2)
            .map(|w| {
                let mut c = client();
                let keys = &pair_keys[w / 2];
                let (history, failures) = (&history, &contended_failures);
                scope.spawn(move || {
                    let me = w + 1;
                    let mut i = 0usize;
                    while Instant::now() < storm_deadline {
                        let key = &keys[(i / 2) % keys.len()];
                        let ok = match i % 8 {
                            7 => history.write(me, key, Act::Delete, || c.delete(NS, key).is_ok()),
                            n if n.is_multiple_of(2) => {
                                let name = format!("w{me}.{i}");
                                let put = || c.put(NS, key, name.as_bytes()).is_ok();
                                history.write(me, key, Act::Put(name.clone()), put)
                            }
                            _ => get(history, &mut c, me, key).is_some(),
                        };
                        if !ok {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                        i += 1;
                    }
                    c
                })
            })
            .collect();

        // Unique-key writers: each key is put once, its value its name.  A
        // failure on the victim's group is a clean refusal (an ambiguous
        // write to the checker); anywhere else it is blast radius.
        let unique: Vec<_> = (0..WRITERS)
            .map(|w| {
                let mut c = client();
                let history = &history;
                let foreign_errors = &foreign_write_errors;
                let victim_failures = &victim_group_failures;
                scope.spawn(move || {
                    let me = 8 + w;
                    let mut i = 0usize;
                    while Instant::now() < storm_deadline {
                        let key = format!("u{w}k{i}");
                        let put = || c.put(NS, &key, key.as_bytes()).is_ok();
                        if !history.write(me, &key, Act::Put(key.clone()), put) {
                            match c.group_for(NS, &key) == victim_group {
                                true => victim_failures.fetch_add(1, Ordering::Relaxed),
                                false => foreign_errors.fetch_add(1, Ordering::Relaxed),
                            };
                        }
                        i += 1;
                    }
                })
            })
            .collect();

        // Steady clients on non-victim groups: each reads the pre-seeded
        // keys and writes keys of its own, and their shards must serve
        // every call while the victim's host flaps.
        let steady: Vec<_> = (0..2)
            .map(|r| {
                let mut c = client();
                let own: Vec<String> = (0..)
                    .map(|i| format!("r{r}k{i}"))
                    .filter(|k| placement.group_for(NS, k) != victim_group)
                    .take(10)
                    .collect();
                let history = &history;
                let (read_errors, write_errors) = (&foreign_read_errors, &foreign_write_errors);
                let ok = &reads_ok;
                scope.spawn(move || {
                    let (me, mut i) = (5 + r, r);
                    while Instant::now() < storm_deadline {
                        let key = format!("seed{}", i % 30);
                        if c.group_for(NS, &key) != victim_group {
                            match get(history, &mut c, me, &key) {
                                Some(_) => ok.fetch_add(1, Ordering::Relaxed),
                                None => read_errors.fetch_add(1, Ordering::Relaxed),
                            };
                        }
                        let (key, name) = (&own[i % own.len()], format!("r{r}.{i}"));
                        let put = || c.put(NS, key, name.as_bytes()).is_ok();
                        if !history.write(me, key, Act::Put(name.clone()), put) {
                            write_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        i += 1;
                    }
                })
            })
            .collect();

        let runner = plan.spawn(&net);
        let writers = handles
            .into_iter()
            .map(|h| h.join().expect("writer panicked"))
            .collect();
        for h in unique {
            h.join().expect("unique-key writer panicked");
        }
        for h in steady {
            h.join().expect("steady client panicked");
        }
        runner.join(); // network fully healed
        writers
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
    let t = history.invoke();
    let report = cluster
        .rebuild_replica(&net, victim_group, victim_replica)
        .unwrap();
    history.record(t, 0, &victim_name, Act::Restart, Outcome::Ok);
    assert!(
        report.snapshot_records > 0,
        "seed {seed}: rebuild shipped an empty snapshot: {report:?}"
    );
    assert_ne!(report.peer, victim_addr);
    let t = history.invoke();
    let new_incarnation = cluster.groups[victim_group][victim_replica].0.incarnation();
    history.record(
        t,
        0,
        &victim_name,
        Act::Incarnation(new_incarnation),
        Outcome::Ok,
    );

    // Every writer reads its pair's keys back once a lease's bound has
    // passed since the storm: a leased read still serving a value the
    // storm overwrote is now out of bounds.
    let bound_passed = storm_deadline + LEASE_TTL;
    std::thread::sleep(bound_passed.saturating_duration_since(Instant::now()));
    for (w, c) in writers.iter_mut().enumerate() {
        for key in &pair_keys[w / 2] {
            get(&history, c, w + 1, key);
        }
    }
    // A quorum read of every key any client touched: the value each
    // settled at.
    let mut keys: Vec<String> = (history.ops().into_iter())
        .filter(|op| matches!(op.act, Act::Put(_) | Act::Delete | Act::Get { .. }))
        .map(|op| op.key)
        .collect();
    keys.sort();
    keys.dedup();
    let mut auditor = client();
    let mut settled: Vec<(String, Option<String>)> = Vec::new();
    for key in &keys {
        let g = auditor.group_for(NS, key);
        let t = history.invoke();
        let got = auditor.group_client(g).get(NS, key);
        let read = record_get(&history, t, 7, key, false, &got)
            .unwrap_or_else(|| panic!("seed {seed}: quorum read of {key} failed: {got:?}"));
        if g == victim_group {
            settled.push((key.clone(), read));
        }
    }

    // Properties 1 and 2: the checkers.
    let checking = Instant::now();
    let checked = history
        .check_registers(LEASE_TTL)
        .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    let check_time = checking.elapsed();
    history
        .check_incarnations()
        .unwrap_or_else(|v| panic!("seed {seed}: {v}"));

    let ops = history.ops();
    let acked = |on_victim: bool| {
        let write = |op: &&ace_net::history::Op| matches!(op.act, Act::Put(_) | Act::Delete);
        (ops.iter().filter(write))
            .filter(|op| op.outcome == Outcome::Ok && op.client != 0)
            .filter(|op| !on_victim || placement.group_for(NS, &op.key) == victim_group)
            .count()
    };
    assert!(acked(false) > 0, "seed {seed}: storm never acked a write");
    assert!(
        acked(true) > 0,
        "seed {seed}: no write acked on the victim group — rebalance the fixture"
    );
    let unique_on_victim = (settled.iter())
        .filter(|(key, read)| key.starts_with('u') && read.is_some())
        .count();
    assert!(
        unique_on_victim > 0,
        "seed {seed}: no unique key on the victim group to rebuild"
    );

    // Property 4: the rebuilt disk converges on what the quorum read.
    let rebuilt = cluster.groups[victim_group][victim_replica].1.clone();
    await_true(
        net.clock(),
        "the rebuilt replica to hold every victim-group key's settled value",
        RECOVERY_DEADLINE,
        || {
            settled.iter().all(|(key, read)| {
                let held = rebuilt.get(&(NS.to_string(), key.clone()));
                let held = held.filter(|v| !v.deleted).map(|v| v.data);
                held.as_deref() == read.as_ref().map(String::as_bytes)
            })
        },
    );

    eprintln!(
        "shard_chaos seed {seed:#x}: victim {victim_name} ({victim_host}), \
         {} acked writes ({} on victim group), {} clean refusals, \
         {} contended calls failed, snapshot {} records + {} pulled via {}; \
         {} victim-group keys converged; checked {} ops over {} keys \
         ({} leased reads, staleness {:?}) in {check_time:?}",
        acked(false),
        acked(true),
        victim_group_failures.load(Ordering::Relaxed),
        contended_failures.load(Ordering::Relaxed),
        report.snapshot_records,
        report.pulled,
        report.peer,
        settled.len(),
        checked.ops,
        checked.keys,
        checked.leased_reads,
        checked.staleness,
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

/// Every seed `CHAOS_SEEDS` lists.
#[test]
fn shard_chaos_env_seeds() {
    env_seeds("shard_chaos", run_shard_chaos);
}
