//! Chaos soak: the full stack under a seeded fault plan.
//!
//! ASD + Room DB + Net Logger on a protected host, a three-replica store
//! cluster, an app service, a supervisor watching all of them, and a
//! client hammering quorum writes — while a deterministic [`FaultPlan`]
//! crashes hosts, opens partitions, and injects latency/datagram loss.
//!
//! Invariants asserted per seed:
//!
//! 1. the fault schedule is a pure function of the seed (replayable);
//! 2. no acknowledged write is lost — every `put` that reported quorum is
//!    readable with the same bytes after the network heals;
//! 3. every supervised service is re-registered and answering `ping` by
//!    the end of the run, within the supervisor's restart budget (no
//!    escalations);
//! 4. a name-bound failover client converges once the plan ends.

use ace_core::directory::subscribe_expiry;
use ace_core::prelude::*;
use ace_core::supervise::{Respawn, RestartPolicy, SupervisedSpec, Supervisor};
use ace_core::{FailoverClient, RetryPolicy, ServiceClient};
use ace_directory::{bootstrap, AsdClient};
use ace_net::fault::{FaultPlan, FaultPlanConfig};
use ace_security::keys::KeyPair;
use ace_store::{spawn_store_cluster, StoreClient};
use std::time::{Duration, Instant};

const STORE_SYNC: Duration = Duration::from_millis(50);
const PLAN_LEN: Duration = Duration::from_millis(2500);
const RECOVERY_DEADLINE: Duration = Duration::from_secs(15);

/// Minimal app service for the failover client to chase.
struct Echo(u64);
impl ServiceBehavior for Echo {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(CmdSpec::new("bump", "count a visit"))
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "bump" => {
                self.0 += 1;
                Reply::ok_with(|c| c.arg("count", self.0 as i64))
            }
            _ => Reply::err(ErrorCode::Internal, "unrouted"),
        }
    }
}

fn run_chaos(seed: u64) {
    let net = SimNet::new();
    let store_hosts = ["s1", "s2", "s3"];
    for h in ["ctrl", "s1", "s2", "s3", "app1"] {
        net.add_host(h);
    }

    // Framework tier on the protected host; 500ms leases so a crashed
    // service expires (and notifies the supervisor) well within the plan.
    let fw = bootstrap(&net, "ctrl", Duration::from_millis(500)).unwrap();
    let cluster = spawn_store_cluster(&net, &fw, &store_hosts, STORE_SYNC).unwrap();
    let app = Daemon::spawn(
        &net,
        fw.service_config("echo1", "Service.App.Echo", "office", "app1", 4700),
        Box::new(Echo(0)),
    )
    .unwrap();

    // Supervisor: store replicas respawn by *recovering* their disk image
    // from the write-ahead log + snapshot (reopening also fences any
    // zombie instance's storage handles); anti-entropy then converges
    // them.  The app respawns fresh.
    let mut specs: Vec<SupervisedSpec> = (cluster.iter().enumerate())
        .map(|(i, (handle, _))| SupervisedSpec::new(handle.name(), cluster.respawn_fn(i)))
        .collect();
    {
        let fw_ref = (
            fw.directory(),
            fw.roomdb_addr.clone(),
            fw.logger_addr.clone(),
        );
        specs.push(SupervisedSpec::new(
            "echo1",
            Box::new(move |net: &SimNet| {
                Daemon::spawn(
                    net,
                    DaemonConfig::new("echo1", "Service.App.Echo", "office", "app1", 4700)
                        .with_directory(fw_ref.0.clone())
                        .with_roomdb(fw_ref.1.clone())
                        .with_logger(fw_ref.2.clone()),
                    Box::new(Echo(0)),
                )
                .map(Respawn::from)
            }),
        ));
    }
    let policy = RestartPolicy::default()
        .with_max_restarts(10)
        .with_window(Duration::from_secs(30))
        .with_backoff(
            RetryPolicy::new(Duration::from_millis(50)).with_cap(Duration::from_millis(500)),
        )
        .with_max_spawn_attempts(30)
        .with_probe_failures(2);
    let supervisor = Daemon::spawn(
        &net,
        fw.service_config(
            "supervisor",
            "Service.Supervisor",
            "machineroom",
            "ctrl",
            5900,
        ),
        Box::new(Supervisor::new(specs, policy).with_probe_interval(Duration::from_millis(150))),
    )
    .unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let (host, directory) = (&supervisor.addr().host, fw.directory());
    subscribe_expiry(&net, host, &me, &directory, "supervisor", supervisor.addr()).unwrap();

    // Deterministic fault schedule (replayable from the seed alone).
    let chaos_hosts: Vec<HostId> = ["s1", "s2", "s3", "app1"].map(HostId::from).to_vec();
    let mut fault_config = FaultPlanConfig::new(PLAN_LEN, chaos_hosts);
    fault_config.partitionable = store_hosts.map(HostId::from).to_vec();
    fault_config.crash_windows = 4;
    fault_config.max_latency = Duration::from_millis(1);
    // Storage faults on the replicas' disks: crashes tear the WAL append
    // in flight, standalone windows inject torn writes and (at most one)
    // bit flip.  Log-before-ack + recovery keep the invariants below.
    fault_config.storage_hosts = store_hosts.map(HostId::from).to_vec();
    fault_config.storage_fault_windows = 2;
    let plan = FaultPlan::generate(seed, &fault_config);
    assert_eq!(
        plan,
        FaultPlan::generate(seed, &fault_config),
        "fault schedule must be a pure function of the seed"
    );

    // Workload: quorum writes of unique keys; remember only acknowledged
    // ones.  Echo calls ride along with a short window — failures during
    // chaos are expected and tolerated.
    let runner = plan.spawn(&net);
    let mut store = StoreClient::new(net.clone(), "ctrl", me, cluster.addrs.clone());
    let mut echo = FailoverClient::bind(net.clone(), "ctrl", me, fw.asd_addr.clone(), "echo1")
        .with_retry_window(Duration::from_millis(200));
    let mut acked: Vec<(String, Vec<u8>)> = Vec::new();
    let mut echo_ok = 0u32;
    let start = Instant::now();
    let mut n = 0u32;
    while start.elapsed() < PLAN_LEN {
        let key = format!("k{n}");
        let data = format!("v{n}-seed{seed}").into_bytes();
        if store.put("chaos", &key, &data).is_ok() {
            acked.push((key, data));
        }
        if n.is_multiple_of(4) && echo.call_idempotent(&CmdLine::new("bump")).is_ok() {
            echo_ok += 1;
        }
        n += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    runner.join(); // network fully healed from here on

    assert!(
        !acked.is_empty(),
        "seed {seed}: no write was ever acknowledged — harness misconfigured"
    );

    // Recovery: every supervised service re-registered and answering, and
    // every acknowledged write readable with the exact bytes written.
    let supervised = ["store_1", "store_2", "store_3", "echo1"];
    let deadline = Instant::now() + RECOVERY_DEADLINE;
    let mut verifier = StoreClient::new(net.clone(), "ctrl", me, cluster.addrs.clone());
    loop {
        let mut missing: Vec<String> = Vec::new();
        match AsdClient::connect(&net, &"ctrl".into(), fw.asd_addr.clone(), &me) {
            Ok(mut asd) => {
                for name in supervised {
                    let entry = asd.find(name).ok().flatten();
                    let alive = entry.is_some_and(|e| {
                        ServiceClient::connect(&net, &"ctrl".into(), e.addr, &me)
                            .and_then(|mut c| c.call(&CmdLine::new("ping")))
                            .is_ok()
                    });
                    if !alive {
                        missing.push(format!("service {name}"));
                    }
                }
            }
            Err(e) => missing.push(format!("asd unreachable: {e}")),
        }
        for (key, data) in &acked {
            if verifier.get("chaos", key).as_deref().ok() != Some(data.as_slice()) {
                missing.push(format!("write {key}"));
            }
        }
        if missing.is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "seed {seed}: not recovered after {RECOVERY_DEADLINE:?}: {missing:?} \
             ({} acked writes, {echo_ok} echo calls succeeded mid-chaos)",
            acked.len()
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // The failover client converges after the plan ends.
    let mut converged = FailoverClient::bind(net.clone(), "ctrl", me, fw.asd_addr.clone(), "echo1")
        .with_retry_window(Duration::from_secs(5));
    converged
        .call_idempotent(&CmdLine::new("bump"))
        .unwrap_or_else(|e| panic!("seed {seed}: echo1 client never converged: {e}"));

    // The restart budget held: nothing escalated to permanent failure.
    let mut sup =
        ServiceClient::connect(&net, &"ctrl".into(), supervisor.addr().clone(), &me).unwrap();
    let stats = sup.call(&CmdLine::new("superviseStats")).unwrap();
    assert_eq!(
        stats.get_int("escalations"),
        Some(0),
        "seed {seed}: supervisor escalated: {stats:?}"
    );
    assert!(stats.get_int("restarts").unwrap_or(0) >= 0);

    // Teardown: supervisor first (it owns respawned handles); original
    // instances crash-stop so they don't deregister their replacements.
    supervisor.shutdown();
    app.crash();
    for (handle, _) in cluster.replicas {
        handle.crash();
    }
    fw.shutdown();
}

#[test]
fn chaos_soak_seed_a() {
    run_chaos(0xACE1);
}

#[test]
fn chaos_soak_seed_b() {
    run_chaos(0xACE2);
}

#[test]
fn chaos_soak_seed_c() {
    run_chaos(7);
}

/// Seed expansion hook for the CI soak job: `CHAOS_SEEDS="0xACE3,42,7"`
/// runs each listed seed (decimal or 0x-hex).  Without the variable this
/// test is a no-op, so ordinary `cargo test` stays fast.
#[test]
fn chaos_soak_env_seeds() {
    let Ok(spec) = std::env::var("CHAOS_SEEDS") else {
        return;
    };
    for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let seed = match token.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => token.parse(),
        }
        .unwrap_or_else(|_| panic!("CHAOS_SEEDS: unparsable seed `{token}`"));
        eprintln!("chaos_soak: running env seed {seed:#x}");
        run_chaos(seed);
    }
}
