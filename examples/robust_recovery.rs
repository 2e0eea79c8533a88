//! Robust applications end-to-end: a stateful service checkpoints into the
//! three-replica persistent store, crashes, is detected via ASD lease
//! expiry, relaunched by the Supervisor, and resumes with its exact
//! pre-crash state — the §5.3/§6/§9 story (experiment E19's subject).
//!
//! ```sh
//! cargo run --example robust_recovery
//! ```

use ace_apps::RobustCounter;
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

    // Probes off: the lease lapse is the only detector.
    let spec = SupervisedSpec::new(
        "meeting_notes",
        Box::new(move |net: &SimNet| spawn_notes(net).map(Respawn::from)),
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
    .expect("supervisor");
    let (host, directory) = (&supervisor.addr().host, fw.directory());
    subscribe_expiry(&net, host, &me, &directory, "supervisor", supervisor.addr())
        .expect("supervisor wiring");
    println!("supervisor armed on ASD `serviceExpired` events");

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

    let mut s =
        ServiceClient::connect(&net, &"core".into(), supervisor.addr().clone(), &me).unwrap();
    let stats = s.call(&CmdLine::new("superviseStats")).unwrap();
    println!(
        "supervisor: {} restart(s), {} escalation(s)",
        stats.get_int("restarts").unwrap(),
        stats.get_int("escalations").unwrap()
    );

    supervisor.shutdown();
    cluster.shutdown();
    fw.shutdown();
}
