//! The sharded directory plane under fire: kill one ASD shard replica in
//! the middle of a lookup storm and hold three properties:
//!
//! 1. **Zero lost registrations** — with majority-quorum writes and
//!    renewal-driven repair, every name registered before the fault plan
//!    resolves after it to its registered address (each registration and
//!    each find recorded in a `History`, judged by `check_registers`), and
//!    a full `list()` still returns the complete directory.
//! 2. **Monotone incarnations** — the per-name incarnation fence survives
//!    the crash: a register carrying a stale incarnation is rejected with
//!    `E_BADSTATE` by the replicas that outlived the fault (were it
//!    accepted, `check_incarnations` would see the name go down), and a
//!    newer incarnation is accepted.
//! 3. **Selective invalidation** — when one shard's leases expire, the
//!    `ResolutionInvalidator` evicts exactly that shard's names from the
//!    shared [`ResolutionCache`]; every other shard's cached resolutions
//!    stay warm.

use ace_core::prelude::*;
use ace_core::protocol::ServiceEntry;
use ace_directory::{spawn_sharded_asd, subscribe_invalidation_all, ShardedAsdClient};
use ace_net::fault::{FaultPlan, FaultPlanConfig};
use ace_net::history::{await_true, env_seeds, Act, History, Outcome};
use ace_security::keys::KeyPair;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 3;
const REPLICATION: usize = 3;
const SERVICES: usize = 45;
const LEASE: Duration = Duration::from_secs(2);
const RENEW_EVERY: Duration = Duration::from_millis(200);
const PLAN_LEN: Duration = Duration::from_millis(1500);
const RECOVERY_DEADLINE: Duration = Duration::from_secs(15);

/// Renewal phases, flipped by the harness while the renewal thread runs.
const PHASE_RENEW_ALL: usize = 0;
const PHASE_DROP_VICTIM_SHARD: usize = 1;
const PHASE_STOP: usize = 2;

fn entry(i: usize) -> ServiceEntry {
    ServiceEntry {
        name: format!("svc{i}"),
        addr: Addr::new("client", 4000 + i as u16),
        class: format!("Service.App.Chaos.Kind{}", i % 4),
        room: format!("room{}", i % 5),
    }
}

/// One full chaos run for `seed`: the victim replica is a pure function of
/// the seed, the fault schedule is `FaultPlan::generate` over its host.
fn run_shard_failover(seed: u64) {
    let net = SimNet::new();
    net.add_host("client");
    let hosts: Vec<HostId> = (0..SHARDS * REPLICATION)
        .map(|i| {
            let h = format!("d{i}");
            net.add_host(h.as_str());
            HostId::from(h.as_str())
        })
        .collect();
    let mut dir = spawn_sharded_asd(&net, &hosts, SHARDS, REPLICATION, LEASE, 5900).unwrap();

    let me = KeyPair::generate(&mut rand::thread_rng());
    let metrics = MetricsRegistry::new();
    let pool = Arc::new(LinkPool::with_metrics(&net, "client", me, &metrics));
    let cache = Arc::new(ResolutionCache::with_metrics(&metrics));
    let invalidator = Daemon::spawn(
        &net,
        DaemonConfig::new(
            "invalidator",
            "Service.CacheInvalidator",
            "machineroom",
            "client",
            5850,
        ),
        Box::new(ResolutionInvalidator::new(Arc::clone(&cache))),
    )
    .unwrap();
    let subscribed = subscribe_invalidation_all(
        &net,
        &"client".into(),
        &me,
        &dir.map,
        "invalidator",
        invalidator.addr(),
    )
    .unwrap();
    assert_eq!(
        subscribed,
        SHARDS * REPLICATION,
        "every replica must accept the expiry subscription"
    );

    // Register the fleet (incarnation 1) and prime the shared resolution
    // cache with a long TTL, so the *only* thing that may evict an entry
    // during the run is the invalidator reacting to a lease expiry.
    let history = History::new(net.clock().clone());
    let mut client = dir.client(Arc::clone(&pool));
    for i in 0..SERVICES {
        let t = history.invoke();
        let lease = client.register(&entry(i), 1).unwrap();
        let (name, addr) = (entry(i).name, entry(i).addr.to_string());
        history.record(t, 0, &name, Act::Incarnation(1), Outcome::Ok);
        history.record(t, 0, &name, Act::Put(addr), Outcome::Ok);
        assert!(lease > Duration::ZERO, "svc{i}: lease must be granted");
        let ttl = Duration::from_secs(3600);
        let now = net.clock().now();
        cache.store(Some(&entry(i).name), None, None, vec![entry(i)], ttl, now);
    }
    assert_eq!(cache.len(), SERVICES);

    // The victim replica is derived from the seed; its shard is the one
    // whose cache entries must (later) be evicted — and no others.
    let victim_idx = (seed as usize) % (SHARDS * REPLICATION);
    let victim_shard = victim_idx / REPLICATION;
    let victim_replica = victim_idx % REPLICATION;
    let victim_host = dir.replica_host(victim_shard, victim_replica);
    let victim_addr = dir.map.replicas(victim_shard)[victim_replica].clone();
    let map = dir.map.clone();
    let shard_of = move |name: &str| map.shard_for(name);
    let victim_names: Vec<String> = (0..SERVICES)
        .map(|i| entry(i).name)
        .filter(|n| shard_of(n) == victim_shard)
        .collect();
    assert!(
        !victim_names.is_empty(),
        "seed {seed}: victim shard {victim_shard} owns no names — rebalance the fixture"
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

    let phase = AtomicUsize::new(PHASE_RENEW_ALL);
    let storm_errors = AtomicU64::new(0);
    let storm_ok = AtomicU64::new(0);

    let (mut client, repairs) = std::thread::scope(|scope| {
        // Renewal thread: the writer that owns the registrations keeps
        // every lease alive (phase 0), then deliberately lets the victim
        // shard's leases lapse (phase 1) so expiry-driven invalidation can
        // be observed, then stops (phase 2).
        let phase_ref = &phase;
        let victim_ref = &victim_names;
        let renewer = scope.spawn(move || loop {
            match phase_ref.load(Ordering::SeqCst) {
                PHASE_STOP => break client,
                p => {
                    for i in 0..SERVICES {
                        let name = entry(i).name;
                        if p == PHASE_DROP_VICTIM_SHARD && victim_ref.contains(&name) {
                            continue;
                        }
                        if let Err(err) = client.renew(&name) {
                            panic!("renew {name} failed mid-chaos: {err}");
                        }
                    }
                    std::thread::sleep(RENEW_EVERY);
                }
            }
        });

        // Lookup storm: four readers hammer name lookups across every
        // shard while the fault plan kills and revives the victim host.
        // With per-call replica failover, not a single lookup may fail or
        // come back empty.
        let storm_deadline = Instant::now() + PLAN_LEN;
        let storm: Vec<_> = (0..4)
            .map(|w| {
                let mut reader = dir.client(Arc::clone(&pool));
                let ok = &storm_ok;
                let errors = &storm_errors;
                scope.spawn(move || {
                    let mut i = w;
                    while Instant::now() < storm_deadline {
                        let name = entry(i % SERVICES).name;
                        match reader.lookup(Some(&name), None, None) {
                            Ok(entries) if !entries.is_empty() => {
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        i += 1;
                    }
                })
            })
            .collect();

        let runner = plan.spawn(&net);
        for h in storm {
            h.join().expect("storm worker panicked");
        }
        runner.join(); // network fully healed

        // Post-plan recovery: a fresh, empty replica comes back at the
        // victim's address and is repaired purely by renewal traffic.
        dir.respawn_replica(&net, victim_shard, victim_replica)
            .unwrap();
        let clock = net.clock();
        await_true(
            clock,
            "renewal repair of the respawned replica",
            RECOVERY_DEADLINE,
            || {
                pool.checkout(&victim_addr)
                    .and_then(|mut link| link.call(&CmdLine::new("listServices")))
                    .ok()
                    .and_then(|reply| {
                        reply.get_vector("names").map(|names| {
                            let have: Vec<&str> =
                                names.iter().filter_map(|s| s.as_text()).collect();
                            victim_names.iter().all(|n| have.contains(&n.as_str()))
                        })
                    })
                    .unwrap_or(false)
            },
        );

        // Property 1: zero lost registrations.
        let mut auditor = dir.client(Arc::clone(&pool));
        let listed = auditor.list().unwrap();
        let expected: Vec<String> = {
            let mut v: Vec<String> = (0..SERVICES).map(|i| entry(i).name).collect();
            v.sort();
            v
        };
        assert_eq!(
            listed, expected,
            "seed {seed}: directory lost registrations across the fault plan"
        );
        // Each name resolves to its registered address: the register
        // checker reads every find against the registration.
        for i in 0..SERVICES {
            let t = history.invoke();
            let found = auditor.find(&entry(i).name).unwrap();
            let read = found.map(|e| e.addr.to_string());
            let act = Act::Get {
                read,
                leased: false,
            };
            history.record(t, 1, &entry(i).name, act, Outcome::Ok);
        }
        history
            .check_registers(Duration::ZERO)
            .unwrap_or_else(|v| panic!("seed {seed}: a registration was lost: {v}"));
        assert_eq!(
            storm_errors.load(Ordering::Relaxed),
            0,
            "seed {seed}: lookups failed mid-storm despite replica failover"
        );
        assert!(storm_ok.load(Ordering::Relaxed) > 0, "storm never ran");

        // Property 3 (first half): nothing has been evicted yet — every
        // lease was renewed throughout the plan, so the primed cache is
        // still complete.
        assert_eq!(
            cache.len(),
            SERVICES,
            "seed {seed}: cache entries evicted while every lease was live"
        );

        // Let the victim shard's leases lapse.
        phase.store(PHASE_DROP_VICTIM_SHARD, Ordering::SeqCst);
        let waiting = "victim shard's cache entries to be evicted";
        await_true(clock, waiting, RECOVERY_DEADLINE, || {
            victim_names
                .iter()
                .all(|n| cache.get(Some(n), None, None, net.clock().now()).is_none())
        });
        for i in 0..SERVICES {
            let name = entry(i).name;
            if !victim_names.contains(&name) {
                assert!(
                    cache
                        .get(Some(&name), None, None, net.clock().now())
                        .is_some(),
                    "seed {seed}: {name} evicted but its shard never expired anything"
                );
            }
        }

        phase.store(PHASE_STOP, Ordering::SeqCst);
        let client = renewer.join().expect("renewal thread panicked");
        let repairs = client.repairs();
        (client, repairs)
    });

    // The respawned replica really was repaired by renewals, not by luck.
    assert!(
        repairs > 0,
        "seed {seed}: no renew-driven repair happened — the respawned replica \
         should have answered E_NOTFOUND at least once"
    );

    // Property 2: monotone incarnations.  The surviving replicas remember
    // incarnation 1 for a still-live (non-victim) name: a stale register
    // is fenced, a newer one wins.  Do this immediately after the renewal
    // thread stops, while those leases are still live.
    let live = (0..SERVICES)
        .map(entry)
        .find(|e| shard_of(&e.name) != victim_shard)
        .expect("some shard other than the victim owns a name");
    let t = history.invoke();
    match client.register(&live, 0) {
        Ok(_) => history.record(t, 0, &live.name, Act::Incarnation(0), Outcome::Ok),
        Err(e) => assert_eq!(
            e.code(),
            Some(ErrorCode::BadState),
            "seed {seed}: a stale incarnation must be fenced with E_BADSTATE, got {e:?}"
        ),
    }
    let t = history.invoke();
    client
        .register(&live, 2)
        .expect("a newer incarnation must be accepted");
    history.record(t, 0, &live.name, Act::Incarnation(2), Outcome::Ok);
    history
        .check_incarnations()
        .unwrap_or_else(|v| panic!("seed {seed}: a stale incarnation was not fenced: {v}"));

    eprintln!(
        "shard_failover seed {seed:#x}: victim s{victim_shard}r{victim_replica} ({}), \
         {} victim names, {} storm lookups, {repairs} repairs, fanouts={}",
        victim_host,
        victim_names.len(),
        storm_ok.load(Ordering::Relaxed),
        client.fanouts(),
    );

    invalidator.shutdown();
    dir.shutdown();
}

#[test]
fn shard_failover_seed_a() {
    run_shard_failover(0xACE9);
}

#[test]
fn shard_failover_seed_b() {
    run_shard_failover(13);
}

/// Every seed `CHAOS_SEEDS` lists.
#[test]
fn shard_failover_env_seeds() {
    env_seeds("shard_failover", run_shard_failover);
}

/// Cross-shard queries keep working while a replica is down: class and
/// room fan-outs merge partial answers from every shard, with per-shard
/// replica failover underneath.
#[test]
fn fanout_queries_survive_a_dead_replica() {
    let net = SimNet::new();
    net.add_host("client");
    let hosts: Vec<HostId> = (0..6)
        .map(|i| {
            let h = format!("d{i}");
            net.add_host(h.as_str());
            HostId::from(h.as_str())
        })
        .collect();
    let dir = spawn_sharded_asd(&net, &hosts, 3, 2, Duration::from_secs(30), 5900).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let pool = Arc::new(LinkPool::new(&net, "client", me));
    let mut client = ShardedAsdClient::new(Arc::clone(&pool), dir.map.clone());
    for i in 0..30 {
        client.register(&entry(i), 1).unwrap();
    }

    net.kill_host(&dir.replica_host(1, 0));

    // Name lookups on every shard still resolve (shard 1 through its
    // surviving replica), and a class fan-out still returns the complete
    // answer across all three shards.
    for i in 0..30 {
        assert!(client.find(&entry(i).name).unwrap().is_some());
    }
    let kind0 = client
        .lookup(None, Some("Service.App.Chaos.Kind0"), None)
        .unwrap();
    assert_eq!(kind0.len(), 8); // i % 4 == 0 for 8 of 0..30
    let room3 = client.lookup(None, None, Some("room3")).unwrap();
    assert_eq!(room3.len(), 6); // i % 5 == 3 for 6 of 0..30
    assert!(client.fanouts() >= 2);

    net.revive_host(&dir.replica_host(1, 0));
    dir.shutdown();
}

/// Invariant: a name is unregistered only when every reachable replica of
/// its shard says so.  A replica that crashed and came back empty is not
/// repaired until the next renewal; until then its empty answer must fall
/// through to the rest of the group — for a [`FailoverClient`] hunting the
/// replica set in map order exactly as for the sharded client's own
/// lookups (both go through `directory::lookup_any_replica`).  Before the
/// rule was shared, the failover client took the first replica that
/// *answered* and spent its whole retry window on `NotFound: echo not
/// registered` while two of three replicas held the lease.
#[test]
fn an_unrepaired_replica_does_not_unregister_a_name() {
    struct Echo;
    impl ServiceBehavior for Echo {
        fn semantics(&self) -> Semantics {
            Semantics::new().with(CmdSpec::new("echo", "answer ok"))
        }
        fn handle(&mut self, _ctx: &mut ServiceCtx, _cmd: &CmdLine, _from: &ClientInfo) -> Reply {
            Reply::ok()
        }
    }

    let net = SimNet::new();
    net.add_host("client");
    let hosts: Vec<HostId> = (0..3)
        .map(|i| {
            let h = format!("d{i}");
            net.add_host(h.as_str());
            HostId::from(h.as_str())
        })
        .collect();
    let mut dir = spawn_sharded_asd(&net, &hosts, 1, 3, Duration::from_secs(30), 5900).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let pool = Arc::new(LinkPool::new(&net, "client", me));

    let echo = Daemon::spawn(
        &net,
        DaemonConfig::new("echo", "Service.Echo", "hawk", "client", 4100),
        Box::new(Echo),
    )
    .unwrap();
    let mut registrar = dir.client(Arc::clone(&pool));
    let entry = ServiceEntry {
        name: "echo".into(),
        addr: echo.addr().clone(),
        class: "Service.Echo".into(),
        room: "hawk".into(),
    };
    registrar.register(&entry, 1).unwrap();

    // Replica 0 — the first a map-order hunt meets — loses everything.
    dir.handles[0][0].crash();
    dir.respawn_replica(&net, 0, 0).unwrap();

    let mut bound = FailoverClient::bind(
        net.clone(),
        "client",
        me,
        dir.map.replicas(0)[0].clone(),
        "echo",
    )
    .with_directory_replicas(dir.map.replicas_for("echo").to_vec())
    .with_pool(Arc::clone(&pool))
    .with_retry_window(Duration::from_millis(500));
    bound
        .call(&CmdLine::new("echo"))
        .expect("two of three replicas still hold the lease");
    assert_eq!(bound.resolutions(), 1, "resolved on the first attempt");

    // A name no replica holds is still reported as such.
    let mut unbound = FailoverClient::bind(
        net.clone(),
        "client",
        me,
        dir.map.replicas(0)[0].clone(),
        "nobody",
    )
    .with_directory_replicas(dir.map.replicas_for("nobody").to_vec())
    .with_retry_window(Duration::from_millis(100));
    let err = unbound.call(&CmdLine::new("echo")).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::NotFound), "got {err:?}");

    echo.shutdown();
    dir.shutdown();
}

/// Invariant: a listing (class / room / unfiltered `lookup`, `listServices`)
/// is whole or it is an error.  A replica respawned empty is repaired one
/// renewal at a time; until one lease has passed since it came up a listing
/// cut from what it holds would look whole and list fewer, so it refuses
/// listings and the asker's rotation moves on to a peer.  Name lookups are
/// untouched: an empty answer to those already falls through.  (Before the
/// rule, every lookup of the thirty that started at the respawned replica
/// listed the three repaired devices of six.)
#[test]
fn a_respawned_replica_lists_nothing_until_it_can_list_everything() {
    const SHORT_LEASE: Duration = Duration::from_millis(1200);
    let net = SimNet::new();
    net.add_host("client");
    let hosts: Vec<HostId> = (0..3)
        .map(|i| {
            let h = format!("d{i}");
            net.add_host(h.as_str());
            HostId::from(h.as_str())
        })
        .collect();
    let mut dir = spawn_sharded_asd(&net, &hosts, 1, 3, SHORT_LEASE, 5900).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let pool = Arc::new(LinkPool::new(&net, "client", me));
    let mut client = dir.client(Arc::clone(&pool));
    let device = |i: usize| ServiceEntry {
        name: format!("device{i}"),
        addr: Addr::new("client", 4200 + i as u16),
        class: "Service.Device.Lamp".into(),
        room: "hawk".into(),
    };
    for i in 0..6 {
        client.register(&device(i), 1).unwrap();
    }

    dir.handles[0][0].crash();
    dir.respawn_replica(&net, 0, 0).unwrap();
    let respawned = Instant::now();
    // Half the room renews — and so repairs the respawned replica — before
    // anybody asks: what it holds now is a plausible, wrong, listing.
    for i in 0..3 {
        client.renew(&device(i).name).unwrap();
    }
    assert_eq!(client.repairs(), 3);

    for ask in 0..30 {
        let listed = client.lookup(None, Some("Device"), Some("hawk")).unwrap();
        assert_eq!(listed.len(), 6, "lookup {ask} listed {listed:?}");
    }
    assert_eq!(client.list().unwrap().len(), 6);
    let mut direct =
        ServiceClient::connect(&net, &"client".into(), dir.map.replicas(0)[0].clone(), &me)
            .unwrap();
    let room = CmdLine::new("lookup")
        .arg("class", "Device")
        .arg("room", "hawk");
    let refused = direct.call(&room).unwrap_err();
    assert_eq!(refused.code(), Some(ErrorCode::Unavailable), "{refused:?}");
    let named = direct
        .call(&CmdLine::new("lookup").arg("name", "device0"))
        .unwrap();
    assert_eq!(
        named.get_int("count"),
        Some(1),
        "name lookups are untouched"
    );

    // One lease on, everything alive has renewed through the respawned
    // replica: it answers for itself, and in full.
    while respawned.elapsed() < SHORT_LEASE {
        for i in 0..6 {
            client.renew(&device(i).name).unwrap();
        }
        std::thread::sleep(SHORT_LEASE / 4);
    }
    let listed = direct.call(&room).unwrap();
    assert_eq!(listed.get_int("count"), Some(6), "{}", listed.to_wire());
    dir.shutdown();
}

/// Invariant: a daemon configured with a sharded plane's map lives on that
/// plane by itself, under the same rules as the sharded client — no
/// registrar acts for it.  Six daemons on a 2×3 plane register with their
/// shards at spawn, so a class fan-out lists all six; when one replica of
/// `lamp0`'s shard is crashed and respawned empty, the daemons' own
/// renewals repair it — it holds every name of its shard again, one
/// `lease.reregisters` per name — and `lamp0`'s graceful stop removes it
/// from every replica of its shard.  Fails if a renewal answered
/// `E_NOTFOUND` does not re-register (step 2 times out), or if the goodbye
/// reaches one replica only (step 3).
#[test]
fn a_daemon_lives_on_the_sharded_plane_by_itself() {
    struct Lamp;
    impl ServiceBehavior for Lamp {
        fn semantics(&self) -> Semantics {
            Semantics::new()
        }
        fn handle(&mut self, _ctx: &mut ServiceCtx, _cmd: &CmdLine, _from: &ClientInfo) -> Reply {
            Reply::ok()
        }
    }

    let net = SimNet::new();
    net.add_host("client");
    let hosts: Vec<HostId> = (0..6)
        .map(|i| {
            let h = format!("d{i}");
            net.add_host(h.as_str());
            HostId::from(h.as_str())
        })
        .collect();
    let lease = Duration::from_millis(900);
    let mut dir = spawn_sharded_asd(&net, &hosts, 2, 3, lease, 5900).unwrap();
    let lamps: Vec<DaemonHandle> = (0..6)
        .map(|i| {
            let config = DaemonConfig::new(
                format!("lamp{i}"),
                "Service.Device.Lamp",
                "hawk",
                "client",
                4300 + i,
            )
            .with_directory(GroupMap::clone(&dir.map));
            Daemon::spawn(&net, config, Box::new(Lamp)).unwrap()
        })
        .collect();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let mut client = dir.client(Arc::new(LinkPool::new(&net, "client", me)));
    let listed = client.lookup(None, Some("Lamp"), None).unwrap();
    assert_eq!(listed.len(), 6, "{listed:?}");

    // Step 2: one replica of lamp0's shard comes back empty.
    let shard = dir.map.shard_for("lamp0");
    let shard_names: Vec<&str> = lamps
        .iter()
        .map(DaemonHandle::name)
        .filter(|name| dir.map.shard_for(name) == shard)
        .collect();
    dir.handles[shard][0].crash();
    dir.respawn_replica(&net, shard, 0).unwrap();
    let holds = |replica: &Addr, name: &str| {
        let mut direct = ServiceClient::connect(&net, &"client".into(), replica.clone(), &me)
            .expect("replica reachable");
        let reply = direct
            .call(&CmdLine::new("lookup").arg("name", name))
            .unwrap();
        reply.get_int("count") == Some(1)
    };
    let respawned = dir.map.replicas(shard)[0].clone();
    let clock = net.clock();
    await_true(
        clock,
        "the respawned replica to be repaired",
        RECOVERY_DEADLINE,
        || shard_names.iter().all(|name| holds(&respawned, name)),
    );
    let reregisters = || -> u64 {
        let counter = |lamp: &DaemonHandle| lamp.metrics().counter("lease.reregisters").get();
        lamps.iter().map(counter).sum()
    };
    await_true(
        clock,
        "every repair to be counted",
        RECOVERY_DEADLINE,
        || reregisters() >= shard_names.len() as u64,
    );
    assert_eq!(
        reregisters(),
        shard_names.len() as u64,
        "one repair per name"
    );

    // Step 3: a graceful stop leaves no replica listing the name.
    lamps[0].shutdown();
    for replica in dir.map.replicas(shard) {
        assert!(!holds(replica, "lamp0"), "{replica} still lists lamp0");
    }
    drop(lamps);
    dir.shutdown();
}

/// Invariant: a directory replica restarts by the one discipline a store
/// replica does (`ace_core::ReplicaGroup`): what still runs of it is crashed
/// first, and it comes back at the next incarnation, rejoining its shard.
/// The Supervisor's factory for it does the same, one incarnation above the
/// last on each call, and what it starts is repaired by one renewal and
/// refuses listings for its first lease (`Asd::rejoining`).  Before the
/// group, a respawn spawned at incarnation 0 beside a live predecessor
/// (`bind: address d0:5900 already in use`), a crashed replica came back at
/// incarnation 0 every time, and no directory replica had a factory.
#[test]
fn a_directory_replica_restarts_fenced_as_a_store_replica_does() {
    const LONG_LEASE: Duration = Duration::from_secs(30);
    let net = SimNet::new();
    net.add_host("client");
    let hosts: Vec<HostId> = (0..3)
        .map(|i| {
            let h = format!("d{i}");
            net.add_host(h.as_str());
            HostId::from(h.as_str())
        })
        .collect();
    let mut dir = spawn_sharded_asd(&net, &hosts, 1, 3, LONG_LEASE, 5900).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let mut client = dir.client(Arc::new(LinkPool::new(&net, "client", me)));
    let device = ServiceEntry {
        name: "lamp".into(),
        addr: Addr::new("client", 4400),
        class: "Service.Device.Lamp".into(),
        room: "hawk".into(),
    };
    client.register(&device, 1).unwrap();

    // A live replica is crashed, then started one above.
    assert_eq!(dir.handles[0][0].incarnation(), 0);
    dir.respawn_replica(&net, 0, 0)
        .expect("a respawn crashes its live predecessor first");
    assert_eq!(dir.handles[0][0].incarnation(), 1);
    // A crashed one comes back one above, too.
    dir.handles[0][0].crash();
    dir.respawn_replica(&net, 0, 0).unwrap();
    assert_eq!(dir.handles[0][0].incarnation(), 2);

    // The Supervisor's factory counts on from the group's replica.
    let mut factory = dir.handles[0].respawn_fn(0);
    dir.handles[0][0].crash();
    let first = factory(&net).unwrap().handle;
    assert_eq!(first.incarnation(), 3);
    first.crash();
    let second = factory(&net).unwrap().handle;
    assert_eq!(second.incarnation(), 4);

    // What it started rejoins: one renewal repairs it, it serves the name,
    // and it refuses a listing within its first lease.
    client.renew(&device.name).unwrap();
    assert_eq!(client.repairs(), 1);
    let mut direct =
        ServiceClient::connect(&net, &"client".into(), dir.map.replicas(0)[0].clone(), &me)
            .unwrap();
    let named = direct
        .call(&CmdLine::new("lookup").arg("name", "lamp"))
        .unwrap();
    assert_eq!(named.get_int("count"), Some(1), "{}", named.to_wire());
    let listing = direct
        .call(&CmdLine::new("lookup").arg("class", "Lamp"))
        .unwrap_err();
    assert_eq!(listing.code(), Some(ErrorCode::Unavailable), "{listing:?}");

    second.shutdown();
    dir.shutdown();
}

/// A replica a Supervisor's factory restarted is the group's replica: a
/// later `respawn_replica` crashes it and starts one incarnation above it,
/// and that one answers.  Fails at the parent commit, whose factory kept
/// what it started to itself: the respawn crashed the dead predecessor,
/// started at the factory's incarnation beside the factory's live replica,
/// and failed with `Bind(AddrInUse)`.
#[test]
fn a_factory_restart_is_written_back_into_the_group() {
    let net = SimNet::new();
    net.add_host("client");
    let hosts: Vec<HostId> = (0..3)
        .map(|i| {
            let h = format!("f{i}");
            net.add_host(h.as_str());
            HostId::from(h.as_str())
        })
        .collect();
    let mut dir = spawn_sharded_asd(&net, &hosts, 1, 3, Duration::from_secs(30), 5900).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let mut client = dir.client(Arc::new(LinkPool::new(&net, "client", me)));
    let device = entry(0);
    client.register(&device, 1).unwrap();

    let mut factory = dir.handles[0].respawn_fn(0);
    dir.handles[0][0].crash();
    let restarted = factory(&net).unwrap().handle;
    assert_eq!(restarted.incarnation(), 1);

    dir.respawn_replica(&net, 0, 0)
        .expect("the respawn crashes the factory's replica, then starts above it");
    assert!(!restarted.is_running(), "the factory's replica was crashed");
    assert_eq!(dir.handles[0][0].incarnation(), 2);

    // What the respawn started rejoins and serves the name.
    client.renew(&device.name).unwrap();
    let mut direct =
        ServiceClient::connect(&net, &"client".into(), dir.map.replicas(0)[0].clone(), &me)
            .unwrap();
    let named = direct
        .call(&CmdLine::new("lookup").arg("name", device.name.as_str()))
        .unwrap();
    assert_eq!(named.get_int("count"), Some(1), "{}", named.to_wire());
    dir.shutdown();
}
