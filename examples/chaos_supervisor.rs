//! The PR's supervision + chaos stack end-to-end: a seeded [`FaultPlan`]
//! crashes store replicas and an app host while a [`Supervisor`] daemon
//! watches ASD `serviceExpired` events and health probes, restarting every
//! casualty — and a client's acknowledged quorum writes all survive.
//!
//! ```sh
//! cargo run --release --example chaos_supervisor [seed]
//! ```
//!
//! Same seed, same fault schedule — rerun with the printed seed to replay
//! the exact run.

use ace_core::directory::subscribe_expiry;
use ace_core::prelude::*;
use ace_directory::{bootstrap, AsdClient};
use ace_net::fault::{FaultPlan, FaultPlanConfig};
use ace_security::keys::KeyPair;
use ace_store::{spawn_store_cluster, StoreClient};
use std::time::{Duration, Instant};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xACE);
    let net = SimNet::new();
    let store_hosts = ["s1", "s2", "s3"];
    for h in ["ctrl", "s1", "s2", "s3"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "ctrl", Duration::from_millis(500)).expect("framework");
    let cluster =
        spawn_store_cluster(&net, &fw, &store_hosts, Duration::from_millis(50)).expect("cluster");
    println!("framework + 3-replica store up on {store_hosts:?}");

    // One supervised spec per replica: respawn on the same host after
    // recovering the disk image from its write-ahead log + snapshot; the
    // recovery report rides into the supervisor's restart log line.
    let specs: Vec<SupervisedSpec> = (cluster.iter().enumerate())
        .map(|(i, (handle, _))| SupervisedSpec::new(handle.name(), cluster.respawn_fn(i)))
        .collect();
    let supervisor = Daemon::spawn(
        &net,
        fw.service_config(
            "supervisor",
            "Service.Supervisor",
            "machineroom",
            "ctrl",
            5900,
        ),
        Box::new(
            Supervisor::new(specs, RestartPolicy::default())
                .with_probe_interval(Duration::from_millis(150)),
        ),
    )
    .expect("supervisor");
    let me = KeyPair::generate(&mut rand::thread_rng());
    let (host, directory) = (&supervisor.addr().host, fw.directory());
    subscribe_expiry(&net, host, &me, &directory, "supervisor", supervisor.addr())
        .expect("wire supervisor");
    println!("supervisor armed on `serviceExpired` + 150ms health probes");

    // A seeded, self-healing fault plan over the store hosts.
    let plan_len = Duration::from_millis(1500);
    let config = FaultPlanConfig::new(plan_len, store_hosts.map(HostId::from).to_vec());
    let plan = FaultPlan::generate(seed, &config);
    println!("\nfault plan (seed {seed}, replayable):");
    for ev in plan.events() {
        println!("  t+{:>6.0?}  {:?}", ev.at, ev.kind);
    }

    // Writes ride through the chaos; only acknowledged ones are promised.
    let runner = plan.spawn(&net);
    let mut store = StoreClient::new(net.clone(), "ctrl", me, cluster.addrs.clone());
    let mut acked = Vec::new();
    let start = Instant::now();
    let mut n = 0u32;
    while start.elapsed() < plan_len {
        let key = format!("k{n}");
        if store.put("demo", &key, format!("v{n}").as_bytes()).is_ok() {
            acked.push(key);
        }
        n += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    runner.join();
    println!(
        "\nplan done: {}/{} writes acknowledged mid-chaos",
        acked.len(),
        n
    );

    // Every replica back in the ASD, every acked write still readable.
    let mut asd = AsdClient::connect(&net, &"ctrl".into(), fw.asd_addr.clone(), &me).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let all_back = (1..=3).all(|i| asd.find(&format!("store_{i}")).ok().flatten().is_some());
        let all_readable = acked.iter().all(|k| store.get("demo", k).is_ok());
        if all_back && all_readable {
            break;
        }
        assert!(Instant::now() < deadline, "recovery deadline blown");
        std::thread::sleep(Duration::from_millis(100));
    }
    let recovered_in = start.elapsed() - plan_len;
    println!("recovered {recovered_in:.0?} after heal: all replicas re-registered, all acked writes intact");

    let mut sup =
        ServiceClient::connect(&net, &"ctrl".into(), supervisor.addr().clone(), &me).unwrap();
    let stats = sup.call(&CmdLine::new("superviseStats")).unwrap();
    println!(
        "supervisor: {} restart(s), {} escalation(s)",
        stats.get_int("restarts").unwrap_or(0),
        stats.get_int("escalations").unwrap_or(0)
    );

    supervisor.shutdown();
    for (handle, _) in cluster.replicas {
        handle.crash();
    }
    fw.shutdown();
}
