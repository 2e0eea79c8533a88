//! Chaos test: the §9 robustness goal — "a robust and reliable system of
//! services that can detect and recover from failures" — under injected
//! host crashes, revivals, and partitions while clients keep operating.

use ace_apps::OPhone;
use ace_core::prelude::*;
use ace_directory::{bootstrap, AsdClient};
use ace_env::{AceEnvironment, CameraModel, EnvConfig, Projector, PtzCamera};
use ace_identity::{AuthDb, Fiu, IButtonReader, IdMonitor, ScannerDevice, UserDb};
use ace_net::history::{env_seeds, poll_until, Act, History, Outcome};
use ace_security::keys::KeyPair;
use ace_store::{spawn_store_cluster, StoreClient, StoreError};
use ace_workspace::{VncHost, Wss};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How often a wait below asks again.
const POLL: Duration = Duration::from_millis(25);

/// A phone's `phone.*` gauges, as `aceStats` answers them.
fn phone_gauges(client: &mut ServiceClient) -> std::collections::BTreeMap<String, i64> {
    let stats = CmdLine::new("aceStats").arg("prefix", "phone.");
    StatsReport::from_cmdline(&client.call(&stats).unwrap()).gauges
}

struct Echo;
impl ServiceBehavior for Echo {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(CmdSpec::new("touch", "no-op"))
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, _cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        Reply::ok()
    }
}

/// A service host crash-loops three times; the directory always converges
/// to the truth (registered while up, purged after death), and an
/// unaffected service keeps serving throughout.
#[test]
fn directory_tracks_crash_loops() {
    let net = SimNet::new();
    for h in ["core", "flaky", "stable"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_millis(300)).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());

    let stable = Daemon::spawn(
        &net,
        fw.service_config("steady", "Service.Echo", "hawk", "stable", 6000)
            .with_lease_renew(Duration::from_millis(100)),
        Box::new(Echo),
    )
    .unwrap();
    let mut stable_client =
        ServiceClient::connect(&net, &"core".into(), stable.addr().clone(), &me).unwrap();
    let mut asd = AsdClient::connect(&net, &"core".into(), fw.asd_addr.clone(), &me).unwrap();

    for round in 0..3 {
        // Bring the flaky service up.
        let flaky = Daemon::spawn(
            &net,
            fw.service_config("flaky", "Service.Echo", "hawk", "flaky", 6000)
                .with_lease_renew(Duration::from_millis(100)),
            Box::new(Echo),
        )
        .unwrap();
        assert!(
            asd.find("flaky").unwrap().is_some(),
            "round {round}: registered"
        );

        // Kill its host abruptly.
        net.kill_host(&"flaky".into());
        flaky.crash();

        // The lease purges it.
        let purged = poll_until(net.clock(), Duration::from_secs(10), POLL, || {
            asd.find("flaky").unwrap().is_none()
        });
        assert!(purged, "round {round}: never purged");

        // The unaffected service answered the whole time.
        stable_client.call_ok(&CmdLine::new("touch")).unwrap();

        net.revive_host(&"flaky".into());
    }

    stable.shutdown();
    fw.shutdown();
}

/// Partition the client from one store replica mid-run: quorum writes and
/// reads keep succeeding, and after healing the isolated replica converges.
#[test]
fn store_survives_partition_and_heals() {
    let net = SimNet::new();
    for h in ["core", "s1", "s2", "s3"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    let cluster =
        spawn_store_cluster(&net, &fw, &["s1", "s2", "s3"], Duration::from_millis(100)).unwrap();
    let mut client = StoreClient::new(
        net.clone(),
        "core",
        KeyPair::generate(&mut rand::thread_rng()),
        cluster.addrs.clone(),
    );

    // Isolate s3 from everyone (client and peers).
    for other in ["core", "s1", "s2"] {
        net.partition(&"s3".into(), &other.into());
    }
    for i in 0..20 {
        client
            .put("chaos", &format!("k{i}"), b"during partition")
            .unwrap();
    }
    for i in 0..20 {
        assert_eq!(
            client.get("chaos", &format!("k{i}")).unwrap(),
            b"during partition"
        );
    }
    let s3_disk = &cluster.replicas[2].1;
    assert!(
        s3_disk.get(&("chaos".into(), "k0".into())).is_none(),
        "isolated replica missed the writes"
    );

    // Heal: anti-entropy converges s3.
    net.heal_all();
    let caught_up = poll_until(net.clock(), Duration::from_secs(10), POLL, || {
        (0..20).all(|i| s3_disk.get(&("chaos".into(), format!("k{i}"))).is_some())
    });
    assert!(caught_up, "s3 never converged");

    cluster.shutdown();
    fw.shutdown();
}

/// Flapping partitions between client and service: calls fail during the
/// cut and succeed after healing — no wedged state, no double execution
/// beyond the documented at-most-once rule.
#[test]
fn links_recover_after_flapping_partitions() {
    let net = SimNet::new();
    for h in ["core", "svc"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let service = Daemon::spawn(
        &net,
        fw.service_config("svc", "Service.Echo", "hawk", "svc", 6000),
        Box::new(Echo),
    )
    .unwrap();

    for _ in 0..5 {
        // Healthy: a fresh client works.
        let mut client =
            ServiceClient::connect(&net, &"core".into(), service.addr().clone(), &me).unwrap();
        client.call_ok(&CmdLine::new("touch")).unwrap();

        // Cut: calls on the existing link fail.
        net.partition(&"core".into(), &"svc".into());
        assert!(client.call(&CmdLine::new("touch")).is_err());
        // New connections also fail.
        assert!(ServiceClient::connect(&net, &"core".into(), service.addr().clone(), &me).is_err());
        net.heal_all();
    }

    // After all the flapping, the daemon still serves.
    let mut client =
        ServiceClient::connect(&net, &"core".into(), service.addr().clone(), &me).unwrap();
    client.call_ok(&CmdLine::new("touch")).unwrap();

    service.shutdown();
    fw.shutdown();
}

/// Killing every store replica and reviving them all over their old
/// storage restores the full dataset.
#[test]
fn full_cluster_restart_preserves_data() {
    let net = SimNet::new();
    for h in ["core", "s1", "s2", "s3"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    let mut cluster =
        spawn_store_cluster(&net, &fw, &["s1", "s2", "s3"], Duration::from_millis(100)).unwrap();
    let identity = KeyPair::generate(&mut rand::thread_rng());
    let mut client = StoreClient::new(net.clone(), "core", identity, cluster.addrs.clone());
    for i in 0..10 {
        client
            .put("blackout", &format!("k{i}"), b"precious")
            .unwrap();
    }

    // Total blackout.
    for (i, (handle, _)) in cluster.iter().enumerate() {
        net.kill_host(&format!("s{}", i + 1).as_str().into());
        handle.crash();
    }
    assert!(matches!(
        client.get("blackout", "k0"),
        Err(StoreError::AllReplicasDown)
    ));

    // Power back on: every replica restarts over its surviving storage.
    for i in 0..cluster.len() {
        net.revive_host(&format!("s{}", i + 1).as_str().into());
        cluster.respawn(&net, i).unwrap();
    }
    let mut client2 = StoreClient::new(
        net.clone(),
        "core",
        KeyPair::generate(&mut rand::thread_rng()),
        cluster.addrs.clone(),
    );
    for i in 0..10 {
        assert_eq!(
            client2.get("blackout", &format!("k{i}")).unwrap(),
            b"precious"
        );
    }

    cluster.shutdown();
    fw.shutdown();
}

/// Deterministic per-seed jitter for the traffic threads.
struct Jitter(u64);
impl Jitter {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// The live-upgrade chaos scenario: roll an upgrade across **every** daemon
/// in the Fig. 18 building — resource tier, identity tier, workspace tier,
/// devices, store replicas, and finally the framework itself — one at a
/// time, while an O-Phone call and a store read/write stream keep running.
/// Then hot-swap both phones mid-call.
///
/// Invariants held throughout:
/// * **zero dropped calls** — every `speak` and every store round-trip
///   succeeds (quiesce bounces are retryable, never failures);
/// * **monotone incarnations** — no service is ever observed answering
///   under a lower incarnation than previously seen (no stale replies
///   from a superseded instance): `check_incarnations` over every `ping`;
/// * **no stale data** — every store write and read is recorded, and
///   `check_registers` holds each key a linearizable register;
/// * the call survives the phones' own swap: sequence numbers stay
///   monotone (`check_incarnations` again, over `speak`'s `seq`) and
///   frames keep arriving.
fn run_rolling_upgrade_chaos(seed: u64) {
    let mut env = AceEnvironment::build(EnvConfig::default()).unwrap();
    let admin = env.admin;

    // Two O-Phones in a call across compute hosts.
    let oph_a = Daemon::spawn(
        &env.net,
        env.fw
            .service_config("oph_a", "Service.App.OPhone", "hawk", "bar", 5900)
            .with_lease_renew(Duration::from_millis(250)),
        Box::new(OPhone::new(440.0)),
    )
    .unwrap();
    let oph_b = Daemon::spawn(
        &env.net,
        env.fw
            .service_config("oph_b", "Service.App.OPhone", "nichols", "tube", 5900)
            .with_lease_renew(Duration::from_millis(250)),
        Box::new(OPhone::new(880.0)),
    )
    .unwrap();
    let mut dialer =
        ServiceClient::connect(&env.net, &"core".into(), oph_a.addr().clone(), &admin).unwrap();
    dialer
        .call_ok(&CmdLine::new("dial").arg("peer", "oph_b"))
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let dropped: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let speak_ok = Arc::new(AtomicU64::new(0));
    let history = Arc::new(History::new(env.net.clock().clone()));

    // Stream 1: sustained O-Phone traffic. The failover client retries
    // through quiesce bounces (E_UPGRADING evicts its pooled link and
    // cached resolution) — a drop is a hard failure.
    let speak_thread = {
        let net = env.net.clone();
        let asd_addr = env.fw.asd_addr.clone();
        let stop = Arc::clone(&stop);
        let dropped = Arc::clone(&dropped);
        let speak_ok = Arc::clone(&speak_ok);
        let history = Arc::clone(&history);
        let metrics = MetricsRegistry::new();
        let pool = Arc::new(LinkPool::with_metrics(&net, "core", admin, &metrics));
        let cache = Arc::new(ResolutionCache::with_metrics(&metrics));
        let mut rng = Jitter(seed | 1);
        std::thread::spawn(move || {
            let mut phone = FailoverClient::bind(net, "core", admin, asd_addr, "oph_a")
                .with_retry_window(Duration::from_secs(10))
                .with_pool(pool)
                .with_resolution_cache(cache);
            while !stop.load(Ordering::SeqCst) {
                let len = 40 + (rng.next() % 4) * 40;
                let t = history.invoke();
                match phone.call(&CmdLine::new("speak").arg("len", len as i64)) {
                    Ok(reply) => {
                        speak_ok.fetch_add(1, Ordering::SeqCst);
                        match reply.get_int("seq") {
                            Some(seq) if seq >= 0 => {
                                let at = Act::Incarnation(seq as u64);
                                history.record(t, 0, "oph_a.seq", at, Outcome::Ok);
                            }
                            _ => dropped
                                .lock()
                                .unwrap()
                                .push(format!("speak without a seq: {reply:?}")),
                        }
                    }
                    Err(e) => dropped.lock().unwrap().push(format!("speak dropped: {e}")),
                }
                std::thread::sleep(Duration::from_millis(1 + rng.next() % 3));
            }
        })
    };

    // Stream 2: store writes and read-back (quorum rides out each
    // replica's quiesce window and retire/respawn gap), every put and get
    // recorded for the register check.
    let store_thread = {
        let mut store = env.store_client(admin).expect("store cluster exists");
        let stop = Arc::clone(&stop);
        let dropped = Arc::clone(&dropped);
        let history = Arc::clone(&history);
        let mut rng = Jitter(seed | 2);
        std::thread::spawn(move || {
            let mut i: u64 = 0;
            while !stop.load(Ordering::SeqCst) {
                let key = format!("k{}", i % 32);
                let val = format!("v{i}");
                let mut put = Ok(0);
                history.write(0, &key, Act::Put(val.clone()), || {
                    put = store.put("rolling", &key, val.as_bytes());
                    put.is_ok()
                });
                let t = history.invoke();
                let got = put
                    .map_err(|e| format!("put {key} dropped: {e}"))
                    .and_then(|_| {
                        store
                            .get("rolling", &key)
                            .map_err(|e| format!("get {key} dropped: {e}"))
                    });
                match got {
                    Ok(read) => {
                        let read = Some(String::from_utf8_lossy(&read).into_owned());
                        let act = Act::Get {
                            read,
                            leased: false,
                        };
                        history.record(t, 0, &key, act, Outcome::Ok);
                    }
                    Err(msg) => dropped.lock().unwrap().push(msg),
                }
                i += 1;
                std::thread::sleep(Duration::from_millis(1 + rng.next() % 4));
            }
            i
        })
    };

    // Stream 3: incarnation monitor. `ping` passes the quiesce gate, so a
    // superseded instance still answering would be caught red-handed.
    let monitor_thread = {
        let net = env.net.clone();
        let targets: Vec<(String, Addr)> = [
            ("srm", env.addr_of("srm").unwrap()),
            ("hrm_bar", env.addr_of("hrm_bar").unwrap()),
            ("wss", env.addr_of("wss").unwrap()),
            ("asd", env.fw.asd_addr.clone()),
            ("roomdb", env.fw.roomdb_addr.clone()),
            ("oph_a", oph_a.addr().clone()),
        ]
        .into_iter()
        .map(|(n, a)| (n.to_string(), a))
        .collect();
        let stop = Arc::clone(&stop);
        let history = Arc::clone(&history);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                for (name, addr) in &targets {
                    // A connect failure is just the retire/respawn gap;
                    // only a *successful* ping can violate monotonicity.
                    let t = history.invoke();
                    let Ok(mut c) =
                        ServiceClient::connect(&net, &"core".into(), addr.clone(), &admin)
                    else {
                        continue;
                    };
                    if let Ok(reply) = c.call(&CmdLine::new("ping")) {
                        let inc = reply.get_int("incarnation").unwrap_or(0).max(0) as u64;
                        history.record(t, 1, name, Act::Incarnation(inc), Outcome::Ok);
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    // Let traffic flow, then roll the whole building, one daemon at a time.
    std::thread::sleep(Duration::from_millis(100));
    let rolled = env
        .rolling_upgrade(&mut |env, handle| {
            env.default_replacement(handle)
                .or_else(|| custom_replacement(handle))
        })
        .expect("rolling upgrade failed");
    let swept: usize = env.daemons.len() + 3 /* store */ + 3 /* framework */;
    assert_eq!(
        rolled.len(),
        swept,
        "every daemon in the building must be swept: {rolled:?}"
    );
    for entry in &rolled {
        assert_eq!(
            entry.incarnation, 1,
            "{}: expected incarnation 1 after one sweep",
            entry.name
        );
    }

    // The upgraded ASD still resolves everything (registrations rode its
    // snapshot through its own swap).
    let mut asd =
        AsdClient::connect(&env.net, &"core".into(), env.fw.asd_addr.clone(), &admin).unwrap();
    for name in ["oph_a", "oph_b", "srm", "wss", "store_1"] {
        assert!(
            asd.find(name).unwrap().is_some(),
            "{name} lost its registration in the ASD swap"
        );
    }

    // Now hot-swap both phones mid-call, under the live speak stream.
    let received_before = {
        let mut b =
            ServiceClient::connect(&env.net, &"core".into(), oph_b.addr().clone(), &admin).unwrap();
        let stats = phone_gauges(&mut b);
        assert_eq!(stats["phone.inCall"], 1);
        stats["phone.received"]
    };
    let (oph_a, a_stats) = ace_core::live_upgrade(
        &env.net,
        &"core".into(),
        &admin,
        &oph_a,
        oph_a.config().clone(),
        Box::new(OPhone::new(440.0)),
    )
    .unwrap();
    let (oph_b, _) = ace_core::live_upgrade(
        &env.net,
        &"core".into(),
        &admin,
        &oph_b,
        oph_b.config().clone(),
        Box::new(OPhone::new(880.0)),
    )
    .unwrap();
    assert_eq!(oph_a.incarnation(), 1);
    assert_eq!(oph_b.incarnation(), 1);

    // The restored call keeps flowing: frames arrive at the upgraded
    // callee beyond its pre-swap count.
    let mut stats = Default::default();
    let survived = poll_until(env.net.clock(), Duration::from_secs(10), POLL, || {
        let mut b =
            ServiceClient::connect(&env.net, &"core".into(), oph_b.addr().clone(), &admin).unwrap();
        stats = phone_gauges(&mut b);
        stats["phone.inCall"] == 1 && stats["phone.received"] > received_before
    });
    assert!(
        survived,
        "call did not survive the phones' hot swap: {stats:?}"
    );

    stop.store(true, Ordering::SeqCst);
    speak_thread.join().unwrap();
    let store_rounds = store_thread.join().unwrap();
    monitor_thread.join().unwrap();

    let drops = dropped.lock().unwrap().clone();
    assert!(drops.is_empty(), "seed {seed:#x}: dropped calls: {drops:?}");
    let speaks = speak_ok.load(Ordering::SeqCst);
    assert!(speaks > 0, "no speak traffic flowed");
    assert!(store_rounds > 0, "no store traffic flowed");
    history
        .check_registers(Duration::ZERO)
        .unwrap_or_else(|v| panic!("seed {seed:#x}: stale store data: {v}"));
    history
        .check_incarnations()
        .unwrap_or_else(|v| panic!("seed {seed:#x}: stale reply: {v}"));
    let upgraded = |op: &ace_net::history::Op| {
        op.client == 1 && matches!(op.act, Act::Incarnation(at) if at >= 1)
    };
    assert!(
        history.ops().iter().any(upgraded),
        "monitor never observed an upgraded incarnation"
    );
    eprintln!(
        "rolling_upgrade seed {seed:#x}: {} daemons swept, {speaks} speaks, \
         {store_rounds} store rounds, phone pause {:?}, 0 drops",
        rolled.len(),
        a_stats.pause,
    );

    oph_a.shutdown();
    oph_b.shutdown();
    env.shutdown();
}

/// Replacements for the classes `default_replacement` leaves to the
/// caller (their state is either carried by the behavior snapshot or
/// reconstructible by re-enrolment in this scenario).
fn custom_replacement(handle: &DaemonHandle) -> Option<Box<dyn ServiceBehavior>> {
    let class = handle.config().class.as_str();
    Some(match class {
        "Service.Database.User" => Box::new(UserDb::new()),
        "Service.Database.Authorization" => Box::new(AuthDb::new()),
        "Service.IDMonitor" => Box::new(IdMonitor::new()),
        "Service.VNCHost" => Box::new(VncHost::new()),
        "Service.WorkspaceServer" => Box::new(Wss::new()),
        "Service.Device.FIU" => Box::new(Fiu::new(ScannerDevice::default())),
        "Service.Device.IButton" => Box::new(IButtonReader::new()),
        _ if class == Projector::CLASS => Box::new(Projector::new()),
        _ if class.contains("Camera") => Box::new(PtzCamera::new(CameraModel::Vcc4)),
        _ => return None,
    })
}

#[test]
fn rolling_upgrade_whole_building_zero_drops() {
    run_rolling_upgrade_chaos(0xACE6);
}

/// A service whose bulk verb burns real control-thread time, so a flood of
/// `work` calls saturates the daemon the way a login storm saturates a real
/// one.
struct SlowWork;
impl ServiceBehavior for SlowWork {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(CmdSpec::new("work", "burn control-thread time").optional(
            "ms",
            ArgType::Int,
            "milliseconds of simulated work",
        ))
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        let ms = cmd.get_int("ms").unwrap_or(2).clamp(0, 50) as u64;
        std::thread::sleep(Duration::from_millis(ms));
        Reply::ok()
    }
}

/// The overload-storm chaos scenario: a service with a deliberately small
/// bulk lane is offered several times its capacity by closed-loop flooders
/// (every shed is retried immediately, so offered load stays far above the
/// ~2ms-per-call service rate), while a seeded [`FaultPlan`] crash-loops the
/// flooders' own host under them.
///
/// Invariants held throughout:
/// * **the control plane stays alive** — every `ping` and `aceStats` probe
///   from an unfaulted host succeeds; the victim's lease keeps renewing, so
///   it is still registered when the storm ends;
/// * **overload degrades, never collapses** — bulk calls either succeed or
///   come back as *retryable* sheds (`E_BUSY`/`E_DEADLINE`/`E_UPGRADING`);
///   no other service error class, no handler panics;
/// * **clients with breakers ride it out** — the failover stream (circuit
///   breaker + retry budget) keeps extracting goodput without livelock.
fn run_overload_storm_chaos(seed: u64) {
    use ace_net::{FaultPlan, FaultPlanConfig};

    let net = SimNet::new();
    for h in ["core", "svc", "load"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_millis(600)).unwrap();
    let admin = KeyPair::generate(&mut rand::thread_rng());

    let victim = Daemon::spawn(
        &net,
        fw.service_config("victim", "Service.SlowWork", "hawk", "svc", 6100)
            .with_lease_renew(Duration::from_millis(100))
            .with_admission(ace_core::AdmissionConfig {
                // Ten closed-loop flooders against four slots: in-flight
                // demand sits well past lane capacity, so overflow shedding
                // is structural, not a timing accident.
                bulk_capacity: 4,
                ..ace_core::AdmissionConfig::default()
            }),
        Box::new(SlowWork),
    )
    .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let violations: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let ok_calls = Arc::new(AtomicU64::new(0));
    let shed_calls = Arc::new(AtomicU64::new(0));

    // Stream 1: six direct flooders hammer the bulk lane from the host the
    // fault plan crash-loops.  Link errors are expected (their own host
    // dies under them); any non-retryable service error is a violation.
    let flooders: Vec<_> = (0..10)
        .map(|w| {
            let net = net.clone();
            let addr = victim.addr().clone();
            let stop = Arc::clone(&stop);
            let violations = Arc::clone(&violations);
            let ok_calls = Arc::clone(&ok_calls);
            let shed_calls = Arc::clone(&shed_calls);
            let mut rng = Jitter(seed | (w as u64) << 8 | 1);
            std::thread::spawn(move || {
                let me = KeyPair::generate(&mut rand::thread_rng());
                let mut client: Option<ServiceClient> = None;
                while !stop.load(Ordering::SeqCst) {
                    if client.is_none() {
                        match ServiceClient::connect(&net, &"load".into(), addr.clone(), &me) {
                            Ok(c) => client = Some(c),
                            Err(_) => {
                                // Host down or reviving; back off briefly.
                                std::thread::sleep(Duration::from_millis(5 + rng.next() % 10));
                                continue;
                            }
                        }
                    }
                    let cmd = CmdLine::new("work").arg("ms", 3);
                    match client.as_mut().expect("just connected").call(&cmd) {
                        Ok(_) => {
                            ok_calls.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(ClientError::Service { code, msg }) => {
                            if code.is_retryable() {
                                shed_calls.fetch_add(1, Ordering::SeqCst);
                                // Immediate re-offer keeps the storm at
                                // several times capacity without spinning.
                                std::thread::sleep(Duration::from_millis(1 + rng.next() % 2));
                            } else {
                                violations
                                    .lock()
                                    .unwrap()
                                    .push(format!("flooder {w}: non-retryable {code}: {msg}"));
                            }
                        }
                        Err(ClientError::Link(_)) => {
                            client = None; // crash window: reconnect
                        }
                    }
                }
            })
        })
        .collect();

    // Stream 2: a breaker-and-budget failover client on the same doomed
    // host — the full client-side overload stack must extract goodput
    // without livelocking or surfacing non-retryable errors.
    let breaker_stream = {
        let net = net.clone();
        let asd_addr = fw.asd_addr.clone();
        let stop = Arc::clone(&stop);
        let violations = Arc::clone(&violations);
        let ok_calls = Arc::clone(&ok_calls);
        let shed_calls = Arc::clone(&shed_calls);
        let mut rng = Jitter(seed | 2);
        std::thread::spawn(move || {
            let me = KeyPair::generate(&mut rand::thread_rng());
            let breaker = Arc::new(ace_core::BreakerRegistry::new(
                ace_core::BreakerConfig::default(),
            ));
            let budget = Arc::new(ace_core::RetryBudget::new(10, 0.5));
            let mut client = FailoverClient::bind(net, "load", me, asd_addr, "victim")
                .with_retry_window(Duration::from_secs(2))
                .with_breaker(breaker)
                .with_retry_budget(budget);
            let mut fast_fails = 0u64;
            while !stop.load(Ordering::SeqCst) {
                match client.call_idempotent(&CmdLine::new("work").arg("ms", 2)) {
                    Ok(_) => {
                        ok_calls.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(ClientError::Service { code, msg }) => {
                        if code.is_retryable() {
                            shed_calls.fetch_add(1, Ordering::SeqCst);
                        } else {
                            violations
                                .lock()
                                .unwrap()
                                .push(format!("breaker stream: non-retryable {code}: {msg}"));
                        }
                    }
                    Err(ClientError::Link(_)) => {} // own host crashed
                }
                fast_fails = client.breaker_fast_fails();
                std::thread::sleep(Duration::from_millis(rng.next() % 3));
            }
            fast_fails
        })
    };

    // Stream 3: priority probes from an unfaulted host.  The whole point of
    // the two-lane queue is that these never fail while bulk is drowning.
    let probe_thread = {
        let net = net.clone();
        let addr = victim.addr().clone();
        let stop = Arc::clone(&stop);
        let violations = Arc::clone(&violations);
        std::thread::spawn(move || {
            let me = KeyPair::generate(&mut rand::thread_rng());
            let mut probe = ServiceClient::connect(&net, &"core".into(), addr, &me)
                .expect("probe connect to unfaulted victim");
            let mut pings = 0u64;
            while !stop.load(Ordering::SeqCst) {
                for verb in ["ping", "aceStats"] {
                    if let Err(e) = probe.call(&CmdLine::new(verb)) {
                        violations
                            .lock()
                            .unwrap()
                            .push(format!("priority `{verb}` failed under storm: {e}"));
                        return pings;
                    }
                }
                pings += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            pings
        })
    };

    // Let the storm establish, then crash-loop the flooder host on a
    // deterministic schedule.
    std::thread::sleep(Duration::from_millis(100));
    let plan = FaultPlan::generate(
        seed,
        &FaultPlanConfig::new(Duration::from_secs(2), vec!["load".into()]),
    );
    plan.spawn(&net).join();
    std::thread::sleep(Duration::from_millis(200));

    stop.store(true, Ordering::SeqCst);
    for f in flooders {
        f.join().unwrap();
    }
    let breaker_fast_fails = breaker_stream.join().unwrap();
    let pings = probe_thread.join().unwrap();

    let found = violations.lock().unwrap().clone();
    assert!(found.is_empty(), "seed {seed:#x}: violations: {found:?}");
    let ok = ok_calls.load(Ordering::SeqCst);
    let shed = shed_calls.load(Ordering::SeqCst);
    assert!(ok > 0, "seed {seed:#x}: no goodput at all under the storm");
    assert!(
        shed > 0,
        "seed {seed:#x}: overload never shed (lane not saturated?)"
    );
    assert!(
        pings > 20,
        "seed {seed:#x}: priority probes barely ran ({pings})"
    );

    // The victim's lease kept renewing through the storm (renewLease rides
    // the ASD's priority lane), so it is still resolvable.
    let mut asd = AsdClient::connect(&net, &"core".into(), fw.asd_addr.clone(), &admin).unwrap();
    assert!(
        asd.find("victim").unwrap().is_some(),
        "seed {seed:#x}: victim lost its registration during the storm"
    );

    // And it shed at the admission queue, without a single handler panic.
    let mut probe =
        ServiceClient::connect(&net, &"core".into(), victim.addr().clone(), &admin).unwrap();
    let report = StatsReport::from_cmdline(&probe.call(&CmdLine::new("aceStats")).unwrap());
    assert_eq!(
        report.counters.get("control.panics").copied().unwrap_or(0),
        0,
        "seed {seed:#x}: victim panicked under overload"
    );
    let shed_at_queue = report.counters.get("shed.bulkFull").copied().unwrap_or(0)
        + report.counters.get("shed.queueWait").copied().unwrap_or(0)
        + report.counters.get("shed.deadline").copied().unwrap_or(0);
    assert!(
        shed_at_queue > 0,
        "seed {seed:#x}: admission queue never shed"
    );
    eprintln!(
        "overload_storm seed {seed:#x}: {ok} served, {shed} shed at clients, \
         {shed_at_queue} shed at queue, {breaker_fast_fails} breaker fast-fails, {pings} probes"
    );

    victim.shutdown();
    fw.shutdown();
}

#[test]
fn overload_storm_sheds_but_never_collapses() {
    run_overload_storm_chaos(0xACE7);
}

/// Every seed `CHAOS_SEEDS` lists.
#[test]
fn overload_storm_env_seeds() {
    env_seeds("overload_storm", run_overload_storm_chaos);
}

/// Every seed `CHAOS_SEEDS` lists.
#[test]
fn rolling_upgrade_env_seeds() {
    env_seeds("rolling_upgrade", run_rolling_upgrade_chaos);
}
