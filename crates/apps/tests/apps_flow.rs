//! Integration tests of the application layer: the Supervisor as the §9
//! watcher (crash → lease expiry → relaunch), robust state recovery through
//! the persistent store (E19), and the O-Phone call path over lossy
//! datagrams.

use ace_apps::{OPhone, RobustCounter, APPSTATE_NS};
use ace_core::directory::subscribe_expiry;
use ace_core::prelude::*;
use ace_directory::{bootstrap, AsdClient, Framework};
use ace_security::keys::KeyPair;
use ace_store::{spawn_store_cluster, StoreClient};
use std::collections::BTreeMap;
use std::time::Duration;

fn keypair() -> KeyPair {
    KeyPair::generate(&mut rand::thread_rng())
}

/// A phone's `phone.*` gauges, as `aceStats` answers them.
fn phone(client: &mut ServiceClient) -> BTreeMap<String, i64> {
    let stats = CmdLine::new("aceStats").arg("prefix", "phone.");
    StatsReport::from_cmdline(&client.call(&stats).unwrap()).gauges
}

/// A Supervisor watching `specs` with probes off, so a lease lapse is the
/// only thing that relaunches, subscribed to the ASD's `serviceExpired`.
fn spawn_supervisor(
    net: &SimNet,
    fw: &Framework,
    me: &KeyPair,
    specs: Vec<SupervisedSpec>,
) -> DaemonHandle {
    let watchdog = Supervisor::new(specs, RestartPolicy::default())
        .with_probe_interval(Duration::from_secs(3600));
    let supervisor = Daemon::spawn(
        net,
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
    subscribe_expiry(net, host, me, &directory, "supervisor", supervisor.addr()).unwrap();
    supervisor
}

/// Crash → lease expiry → `serviceExpired` → Supervisor relaunch, with the
/// robust service recovering its state from the store.
#[test]
fn supervisor_restarts_robust_service_with_state() {
    let net = SimNet::new();
    for h in ["core", "app", "s1", "s2", "s3"] {
        net.add_host(h);
    }
    // Short leases so expiry is quick.
    let fw = bootstrap(&net, "core", Duration::from_millis(400)).unwrap();
    let cluster =
        spawn_store_cluster(&net, &fw, &["s1", "s2", "s3"], Duration::from_millis(100)).unwrap();
    let me = keypair();

    let replicas = cluster.addrs.clone();
    let spawn_counter = {
        let fw_cfg = fw
            .service_config("robustcounter", "Service.Counter", "hawk", "app", 5900)
            .with_lease_renew(Duration::from_millis(100));
        let replicas = replicas.clone();
        move |net: &SimNet| {
            Daemon::spawn(
                net,
                fw_cfg.clone(),
                Box::new(RobustCounter::new(replicas.clone())),
            )
        }
    };

    // First incarnation.
    let first = spawn_counter(&net).unwrap();

    let spec = SupervisedSpec::new(
        "robustcounter",
        Box::new(move |net: &SimNet| spawn_counter(net).map(Respawn::from)),
    );
    let supervisor = spawn_supervisor(&net, &fw, &me, vec![spec]);

    // Drive some state into the counter.
    let addr = first.addr().clone();
    let mut client = ServiceClient::connect(&net, &"core".into(), addr.clone(), &me).unwrap();
    for _ in 0..7 {
        client.call_ok(&CmdLine::new("increment")).unwrap();
    }
    let r = client.call(&CmdLine::new("read")).unwrap();
    assert_eq!(r.get_int("value"), Some(7));
    assert_eq!(r.get_bool("recovered"), Some(false));
    drop(client);

    // Crash it (no deregistration) and wait for the Supervisor to bring it
    // back — lease expiry fires `serviceExpired` at the ASD.
    first.crash();
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    let mut reply = None;
    while std::time::Instant::now() < deadline {
        if let Ok(mut c) = ServiceClient::connect(&net, &"core".into(), addr.clone(), &me) {
            if let Ok(r) = c.call(&CmdLine::new("read")) {
                reply = Some(r);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let reply = reply.expect("relaunched service never answered");
    assert_eq!(
        reply.get_int("value"),
        Some(7),
        "state recovered from the store"
    );
    assert_eq!(reply.get_bool("recovered"), Some(true));

    let mut s =
        ServiceClient::connect(&net, &"core".into(), supervisor.addr().clone(), &me).unwrap();
    let stats = s.call(&CmdLine::new("superviseStats")).unwrap();
    assert_eq!(stats.get_int("restarts"), Some(1));

    supervisor.shutdown();
    cluster.shutdown();
    fw.shutdown();
}

/// A temporary application is one the Supervisor has no spec for: after
/// a crash its lease lapses and it stays down.
#[test]
fn temporary_apps_are_not_relaunched() {
    let net = SimNet::new();
    for h in ["core", "app"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_millis(300)).unwrap();
    let me = keypair();

    struct Noop;
    impl ServiceBehavior for Noop {
        fn semantics(&self) -> Semantics {
            Semantics::new()
        }
        fn handle(&mut self, _ctx: &mut ServiceCtx, _cmd: &CmdLine, _from: &ClientInfo) -> Reply {
            Reply::ok()
        }
    }
    let cfg = fw
        .service_config("scratchpad", "Service.Temporary", "hawk", "app", 5910)
        .with_lease_renew(Duration::from_millis(100));
    let temp = Daemon::spawn(&net, cfg, Box::new(Noop)).unwrap();
    let addr = temp.addr().clone();

    let supervisor = spawn_supervisor(&net, &fw, &me, Vec::new());

    temp.crash();
    // Give expiry + notification time to happen.
    std::thread::sleep(Duration::from_millis(900));
    let mut s =
        ServiceClient::connect(&net, &"core".into(), supervisor.addr().clone(), &me).unwrap();
    let stats = s.call(&CmdLine::new("superviseStats")).unwrap();
    assert_eq!(stats.get_int("restarts"), Some(0));
    let mut asd = AsdClient::connect(&net, &"core".into(), fw.asd_addr.clone(), &me).unwrap();
    assert_eq!(
        asd.find("scratchpad").unwrap(),
        None,
        "the lease lapsed from the ASD"
    );
    let answered = ServiceClient::connect(&net, &"core".into(), addr, &me)
        .and_then(|mut c| c.call(&CmdLine::new("ping")));
    assert!(answered.is_err(), "nothing answers at its address");

    supervisor.shutdown();
    fw.shutdown();
}

/// A robust app's checkpoints leave through its daemon's own pool, so its
/// `aceStats` counts them: every increment is a quorum write to the three
/// replicas.  (None are counted if the store client leaves the pool.)
#[test]
fn a_robust_apps_checkpoints_leave_through_its_daemons_pool() {
    let net = SimNet::new();
    for h in ["core", "app", "s1", "s2", "s3"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    let cluster =
        spawn_store_cluster(&net, &fw, &["s1", "s2", "s3"], Duration::from_millis(100)).unwrap();
    let me = keypair();
    let counter = Daemon::spawn(
        &net,
        fw.service_config("robustcounter", "Service.Counter", "hawk", "app", 5900),
        Box::new(RobustCounter::new(cluster.addrs.clone())),
    )
    .unwrap();

    let mut client =
        ServiceClient::connect(&net, &"core".into(), counter.addr().clone(), &me).unwrap();
    const INCREMENTS: u64 = 4;
    for _ in 0..INCREMENTS {
        client.call_ok(&CmdLine::new("increment")).unwrap();
    }
    let stats = client
        .call(&CmdLine::new("aceStats").arg("prefix", "wire."))
        .unwrap();
    let puts = StatsReport::from_cmdline(&stats)
        .counters
        .get("wire.psPut.frames")
        .copied()
        .unwrap_or(0);
    assert!(
        puts >= 2 * INCREMENTS,
        "{puts} psPut frames for {INCREMENTS} increments"
    );

    counter.shutdown();
    cluster.shutdown();
    fw.shutdown();
}

/// A robust app that could not read its checkpoint at start refuses its
/// verbs until it can, rather than serving from 0 and then writing its
/// fresh count over the saved state.  Fails if a load error other than
/// `NotFound` counts as "no checkpoint".
#[test]
fn a_robust_app_that_cannot_load_its_checkpoint_never_overwrites_it() {
    let net = SimNet::new();
    for h in ["core", "app", "s1", "s2", "s3"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    let cluster =
        spawn_store_cluster(&net, &fw, &["s1", "s2", "s3"], Duration::from_millis(100)).unwrap();
    let me = keypair();
    let cfg = fw.service_config("robustcounter", "Service.Counter", "hawk", "app", 5900);
    let spawn = || {
        Daemon::spawn(
            &net,
            cfg.clone(),
            Box::new(RobustCounter::new(cluster.addrs.clone())),
        )
        .unwrap()
    };
    let connect = |addr: &Addr| ServiceClient::connect(&net, &"core".into(), addr.clone(), &me);

    // Save 7, then crash.
    let first = spawn();
    let addr = first.addr().clone();
    let mut client = connect(&addr).unwrap();
    for _ in 0..7 {
        client.call_ok(&CmdLine::new("increment")).unwrap();
    }
    drop(client);
    first.crash();

    // Respawn it cut off from every replica: its start-up load fails.
    let app: HostId = "app".into();
    for s in ["s1", "s2", "s3"] {
        net.partition(&app, &s.into());
    }
    let second = spawn();
    let mut client = connect(&addr).unwrap();
    let refused = client.call(&CmdLine::new("read")).unwrap_err();
    assert_eq!(refused.code(), Some(ErrorCode::Unavailable));
    client.call_ok(&CmdLine::new("ping")).unwrap();

    // Healed, the next verb loads the checkpoint before it counts.
    net.heal_all();
    let r = client.call(&CmdLine::new("increment")).unwrap();
    assert_eq!(r.get_int("value"), Some(8));
    let mut store = StoreClient::new(net.clone(), "core", me, cluster.addrs.clone());
    assert_eq!(store.get(APPSTATE_NS, "robustcounter").unwrap(), b"8");

    drop(client);
    second.shutdown();
    cluster.shutdown();
    fw.shutdown();
}

#[test]
fn ophone_full_duplex_call() {
    let net = SimNet::new();
    for h in ["core", "office_a", "office_b"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    let me = keypair();

    let phone_a = Daemon::spawn(
        &net,
        fw.service_config(
            "phone_a",
            "Service.OPhone",
            "office_a_room",
            "office_a",
            5920,
        ),
        Box::new(OPhone::new(700.0)),
    )
    .unwrap();
    let phone_b = Daemon::spawn(
        &net,
        fw.service_config(
            "phone_b",
            "Service.OPhone",
            "office_b_room",
            "office_b",
            5920,
        ),
        Box::new(OPhone::new(1100.0)),
    )
    .unwrap();

    let mut a = ServiceClient::connect(&net, &"core".into(), phone_a.addr().clone(), &me).unwrap();
    let mut b = ServiceClient::connect(&net, &"core".into(), phone_b.addr().clone(), &me).unwrap();

    // Dial B from A (resolved through the ASD).
    let reply = a
        .call(&CmdLine::new("dial").arg("peer", "phone_b"))
        .unwrap();
    assert!(reply.get_text("session").unwrap().starts_with("call_"));

    // Both sides speak.
    for _ in 0..20 {
        a.call(&CmdLine::new("speak")).unwrap();
        b.call(&CmdLine::new("speak")).unwrap();
    }

    // Voice arrived both ways (datagrams are async; poll).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (sa, sb) = (phone(&mut a), phone(&mut b));
        if sa["phone.received"] == 20 && sb["phone.received"] == 20 {
            assert!(sa["phone.playedRmsMilli"] > 200, "audible audio at A");
            assert!(sb["phone.playedRmsMilli"] > 200, "audible audio at B");
            assert_eq!(sa["phone.playedSamples"], 20 * 160);
            break;
        }
        assert!(std::time::Instant::now() < deadline, "voice never arrived");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Busy phone rejects a second call.
    let phone_c = Daemon::spawn(
        &net,
        fw.service_config("phone_c", "Service.OPhone", "office_b_room", "core", 5921),
        Box::new(OPhone::new(900.0)),
    )
    .unwrap();
    let mut c = ServiceClient::connect(&net, &"core".into(), phone_c.addr().clone(), &me).unwrap();
    let err = c
        .call(&CmdLine::new("dial").arg("peer", "phone_b"))
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Unavailable));

    // Hang up; both become idle (async notify).
    a.call_ok(&CmdLine::new("hangup")).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if phone(&mut b)["phone.inCall"] == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "peer never saw hangup"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    phone_c.shutdown();
    phone_b.shutdown();
    phone_a.shutdown();
    fw.shutdown();
}

#[test]
fn ophone_tolerates_datagram_loss() {
    let net = SimNet::new();
    for h in ["core", "a", "b"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    let me = keypair();

    let phone_a = Daemon::spawn(
        &net,
        fw.service_config("phone_a", "Service.OPhone", "ra", "a", 5920),
        Box::new(OPhone::new(700.0)),
    )
    .unwrap();
    let phone_b = Daemon::spawn(
        &net,
        fw.service_config("phone_b", "Service.OPhone", "rb", "b", 5920),
        Box::new(OPhone::new(1100.0)),
    )
    .unwrap();

    let mut a = ServiceClient::connect(&net, &"core".into(), phone_a.addr().clone(), &me).unwrap();
    a.call(&CmdLine::new("dial").arg("peer", "phone_b"))
        .unwrap();

    // Voice plane becomes lossy AFTER call setup (commands ride reliable
    // streams and are unaffected).
    net.set_config(ace_net::NetConfig {
        latency: Duration::ZERO,
        datagram_loss: 0.3,
    });

    const SENT: i64 = 100;
    for _ in 0..SENT {
        a.call(&CmdLine::new("speak")).unwrap();
    }
    std::thread::sleep(Duration::from_millis(300));

    let mut b = ServiceClient::connect(&net, &"core".into(), phone_b.addr().clone(), &me).unwrap();
    let sb = phone(&mut b);
    let received = sb["phone.received"];
    // With 30% loss, some frames disappear (overwhelmingly likely for 100)
    // yet most arrive, and playback continued past the gaps.
    assert!(received < SENT, "some loss expected, got {received}/{SENT}");
    assert!(
        received > SENT / 3,
        "most frames arrive, got {received}/{SENT}"
    );
    assert!(sb["phone.playedSamples"] > 0);

    phone_b.shutdown();
    phone_a.shutdown();
    fw.shutdown();
}
