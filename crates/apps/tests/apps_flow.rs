//! Integration tests of the application layer: the restart watcher
//! (crash → lease expiry → relaunch), robust state recovery through the
//! persistent store (E19), and the O-Phone call path over lossy datagrams.

use ace_apps::{AppClass, OPhone, RobustCounter, WatchSpec, Watcher};
use ace_core::directory::subscribe_expiry;
use ace_core::prelude::*;
use ace_directory::bootstrap;
use ace_security::keys::KeyPair;
use ace_store::spawn_store_cluster;
use std::time::Duration;

fn keypair() -> KeyPair {
    KeyPair::generate(&mut rand::thread_rng())
}

/// Crash → lease expiry → `serviceExpired` → watcher relaunch, with the
/// robust service recovering its state from the store.
#[test]
fn watcher_restarts_robust_service_with_state() {
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

    // The watcher.
    let watcher = Daemon::spawn(
        &net,
        fw.service_config("watcher", "Service.Watcher", "machineroom", "core", 5901),
        Box::new(Watcher::new(vec![WatchSpec::new(
            "robustcounter",
            AppClass::Robust,
            Box::new(spawn_counter),
        )])),
    )
    .unwrap();
    let (host, directory) = (&watcher.addr().host, fw.directory());
    subscribe_expiry(&net, host, &me, &directory, "watcher", watcher.addr()).unwrap();

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

    // Crash it (no deregistration) and wait for the watcher to bring it
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

    let mut w = ServiceClient::connect(&net, &"core".into(), watcher.addr().clone(), &me).unwrap();
    let stats = w.call(&CmdLine::new("watcherStats")).unwrap();
    assert_eq!(stats.get_int("restarts"), Some(1));

    watcher.shutdown();
    cluster.shutdown();
    fw.shutdown();
}

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
    let temp = Daemon::spawn(&net, cfg.clone(), Box::new(Noop)).unwrap();

    let watcher = Daemon::spawn(
        &net,
        fw.service_config("watcher", "Service.Watcher", "machineroom", "core", 5901),
        Box::new(Watcher::new(vec![WatchSpec::new(
            "scratchpad",
            AppClass::Temporary,
            Box::new(move |net: &SimNet| Daemon::spawn(net, cfg.clone(), Box::new(Noop))),
        )])),
    )
    .unwrap();
    let (host, directory) = (&watcher.addr().host, fw.directory());
    subscribe_expiry(&net, host, &me, &directory, "watcher", watcher.addr()).unwrap();

    temp.crash();
    // Give expiry + notification time to happen.
    std::thread::sleep(Duration::from_millis(900));
    let mut w = ServiceClient::connect(&net, &"core".into(), watcher.addr().clone(), &me).unwrap();
    let stats = w.call(&CmdLine::new("watcherStats")).unwrap();
    assert_eq!(stats.get_int("restarts"), Some(0));
    assert!(stats.get_int("ignored").unwrap() >= 1);

    watcher.shutdown();
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
        let sa = a.call(&CmdLine::new("phoneStats")).unwrap();
        let sb = b.call(&CmdLine::new("phoneStats")).unwrap();
        if sa.get_int("received") == Some(20) && sb.get_int("received") == Some(20) {
            assert!(sa.get_f64("rms").unwrap() > 0.2, "audible audio at A");
            assert!(sb.get_f64("rms").unwrap() > 0.2, "audible audio at B");
            assert_eq!(sa.get_int("playedSamples"), Some(20 * 160));
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
        let sb = b.call(&CmdLine::new("phoneStats")).unwrap();
        if sb.get_bool("inCall") == Some(false) {
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
    let sb = b.call(&CmdLine::new("phoneStats")).unwrap();
    let received = sb.get_int("received").unwrap();
    // With 30% loss, some frames disappear (overwhelmingly likely for 100)
    // yet most arrive, and playback continued past the gaps.
    assert!(received < SENT, "some loss expected, got {received}/{SENT}");
    assert!(
        received > SENT / 3,
        "most frames arrive, got {received}/{SENT}"
    );
    assert!(sb.get_int("playedSamples").unwrap() > 0);

    phone_b.shutdown();
    phone_a.shutdown();
    fw.shutdown();
}
