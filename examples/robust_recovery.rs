//! Robust applications end-to-end: a stateful service checkpoints into the
//! three-replica persistent store, crashes, is detected via ASD lease
//! expiry, relaunched by the watcher, and resumes with its exact pre-crash
//! state — the §5.3/§6/§9 story (experiment E19's subject).
//!
//! ```sh
//! cargo run --example robust_recovery
//! ```

use ace_apps::{AppClass, RobustCounter, WatchSpec, Watcher};
use ace_core::directory::subscribe_expiry;
use ace_core::prelude::*;
use ace_directory::bootstrap;
use ace_security::keys::KeyPair;
use ace_store::spawn_store_cluster;
use std::time::{Duration, Instant};

fn main() {
    let net = SimNet::new();
    for h in ["core", "app", "s1", "s2", "s3"] {
        net.add_host(h);
    }
    // Short leases so failure detection is fast (the paper's knob for how
    // quickly "daemons that become inactive … are automatically removed").
    let lease = Duration::from_millis(400);
    let fw = bootstrap(&net, "core", lease).expect("framework");
    let cluster = spawn_store_cluster(&net, &fw, &["s1", "s2", "s3"], Duration::from_millis(100))
        .expect("store cluster");
    let me = KeyPair::generate(&mut rand::thread_rng());
    println!("store cluster up: {:?}", cluster.addrs);

    // The robust service and its relaunch recipe.
    let replicas = cluster.addrs.clone();
    let cfg = fw
        .service_config("meeting_notes", "Service.Counter", "hawk", "app", 5900)
        .with_lease_renew(Duration::from_millis(100));
    let spawn_notes = {
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
    let first = spawn_notes(&net).expect("robust service");
    let addr = first.addr().clone();

    let watcher = Daemon::spawn(
        &net,
        fw.service_config("watcher", "Service.Watcher", "machineroom", "core", 5901),
        Box::new(Watcher::new(vec![WatchSpec::new(
            "meeting_notes",
            AppClass::Robust,
            Box::new(spawn_notes),
        )])),
    )
    .expect("watcher");
    let (host, directory) = (&watcher.addr().host, fw.directory());
    subscribe_expiry(&net, host, &me, &directory, "watcher", watcher.addr())
        .expect("watcher wiring");
    println!("watcher armed on ASD `serviceExpired` events");

    // Accumulate state (each increment checkpoints to the store).
    let mut client = ServiceClient::connect(&net, &"core".into(), addr.clone(), &me).unwrap();
    for _ in 0..42 {
        client.call_ok(&CmdLine::new("increment")).unwrap();
    }
    let value = client
        .call(&CmdLine::new("read"))
        .unwrap()
        .get_int("value")
        .unwrap();
    println!("state built up: count = {value} (checkpointed per write)");
    drop(client);

    // Crash without deregistering.
    println!("\n*** crashing the service (no deregistration) ***");
    let crash_at = Instant::now();
    first.crash();

    // Wait for detection + relaunch + recovery.
    let recovered = loop {
        if let Ok(mut c) = ServiceClient::connect(&net, &"core".into(), addr.clone(), &me) {
            if let Ok(r) = c.call(&CmdLine::new("read")) {
                break r;
            }
        }
        assert!(
            crash_at.elapsed() < Duration::from_secs(30),
            "service never came back"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    let mttr = crash_at.elapsed();
    println!("service back after {mttr:?} (lease {lease:?} + relaunch)");
    println!(
        "recovered state: count = {} (recovered flag = {})",
        recovered.get_int("value").unwrap(),
        recovered.get_bool("recovered").unwrap()
    );
    assert_eq!(recovered.get_int("value"), Some(42));

    let mut w = ServiceClient::connect(&net, &"core".into(), watcher.addr().clone(), &me).unwrap();
    let stats = w.call(&CmdLine::new("watcherStats")).unwrap();
    println!(
        "watcher: {} restart(s), {} ignored expiries",
        stats.get_int("restarts").unwrap(),
        stats.get_int("ignored").unwrap()
    );

    watcher.shutdown();
    cluster.shutdown();
    fw.shutdown();
}
