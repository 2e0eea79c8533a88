//! Fig. 9 step 4: "this registration may trigger notifications to other ACE
//! services (if any are awaiting notifications on it) that this new service
//! is now running and available."
//!
//! The ASD executes `register` like any other command, so the framework's
//! notification machinery covers it: listeners on `register` hear about
//! every arrival, and listeners on `serviceExpired` (an ASD event) hear
//! about every lease death.

use ace_core::directory::subscribe_expiry;
use ace_core::prelude::*;
use ace_core::supervise::{Respawn, RestartPolicy, SupervisedSpec, Supervisor};
use ace_directory::{bootstrap, AsdClient};
use ace_net::history::await_true;
use ace_security::keys::KeyPair;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long a wait below may take.
const WAIT: Duration = Duration::from_secs(10);

#[derive(Default)]
struct Recorder {
    arrivals: Arc<Mutex<Vec<String>>>,
    expiries: Arc<Mutex<Vec<String>>>,
}

impl ServiceBehavior for Recorder {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(
                CmdSpec::new("onRegistered", "a service registered")
                    .optional("service", ArgType::Str, "")
                    .optional("cmd", ArgType::Str, "")
                    .optional("name", ArgType::Word, "")
                    .optional("host", ArgType::Word, "")
                    .optional("port", ArgType::Int, "")
                    .optional("room", ArgType::Word, "")
                    .optional("class", ArgType::Str, "")
                    .optional("incarnation", ArgType::Int, ""),
            )
            .with(
                CmdSpec::new("onExpired", "a lease lapsed")
                    .optional("service", ArgType::Str, "")
                    .optional("cmd", ArgType::Str, "")
                    .optional("name", ArgType::Word, ""),
            )
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        let name = cmd.get_text("name").unwrap_or("?").to_string();
        match cmd.name() {
            "onRegistered" => self.arrivals.lock().unwrap().push(name),
            "onExpired" => self.expiries.lock().unwrap().push(name),
            _ => {}
        }
        Reply::ok()
    }
}

struct Echo;
impl ServiceBehavior for Echo {
    fn semantics(&self) -> Semantics {
        Semantics::new()
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, _cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        Reply::ok()
    }
}

#[test]
fn asd_registration_and_expiry_notify_listeners() {
    let net = SimNet::new();
    for h in ["core", "bar"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_millis(300)).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());

    let recorder = Recorder::default();
    let arrivals = Arc::clone(&recorder.arrivals);
    let expiries = Arc::clone(&recorder.expiries);
    let rec = Daemon::spawn(
        &net,
        fw.service_config("recorder", "Service.Test", "machineroom", "core", 6100),
        Box::new(recorder),
    )
    .unwrap();

    // Listen on the ASD for both the command and the event.
    let mut asd_client =
        ServiceClient::connect(&net, &"core".into(), fw.asd_addr.clone(), &me).unwrap();
    for (what, sink) in [
        ("register", "onRegistered"),
        ("serviceExpired", "onExpired"),
    ] {
        asd_client
            .call_ok(
                &CmdLine::new("addNotification")
                    .arg("cmd", what)
                    .arg("service", "recorder")
                    .arg("host", "core")
                    .arg("port", 6100)
                    .arg("notifyCmd", sink),
            )
            .unwrap();
    }

    // A new service arrives (its spawn registers with the ASD)…
    let newcomer = Daemon::spawn(
        &net,
        fw.service_config("newcomer", "Service.Echo", "hawk", "bar", 6000)
            .with_lease_renew(Duration::from_millis(100)),
        Box::new(Echo),
    )
    .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !arrivals.lock().unwrap().contains(&"newcomer".to_string()) {
        assert!(
            std::time::Instant::now() < deadline,
            "arrival never notified"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // …then crashes; the expiry event follows.
    newcomer.crash();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !expiries.lock().unwrap().contains(&"newcomer".to_string()) {
        assert!(
            std::time::Instant::now() < deadline,
            "expiry never notified"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    rec.shutdown();
    fw.shutdown();
}

/// A lapsed lease fires exactly one `serviceExpired` per service — the
/// reaper must not re-notify on later sweeps — and the dead entry is
/// purged from lookups.
#[test]
fn lease_expiry_fires_once_per_service_and_purges_entry() {
    let net = SimNet::new();
    for h in ["core", "bar", "tube"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_millis(300)).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());

    let recorder = Recorder::default();
    let expiries = Arc::clone(&recorder.expiries);
    let rec = Daemon::spawn(
        &net,
        fw.service_config("recorder", "Service.Test", "machineroom", "core", 6100),
        Box::new(recorder),
    )
    .unwrap();
    let mut asd_client =
        ServiceClient::connect(&net, &"core".into(), fw.asd_addr.clone(), &me).unwrap();
    asd_client
        .call_ok(
            &CmdLine::new("addNotification")
                .arg("cmd", "serviceExpired")
                .arg("service", "recorder")
                .arg("host", "core")
                .arg("port", 6100)
                .arg("notifyCmd", "onExpired"),
        )
        .unwrap();

    // Two victims on different hosts; both crash (no deregistration), so
    // only the lease reaper can remove them.
    let victims = ["victim_a", "victim_b"];
    let mut handles = Vec::new();
    for (name, host) in victims.iter().zip(["bar", "tube"]) {
        handles.push(
            Daemon::spawn(
                &net,
                fw.service_config(name, "Service.Echo", "hawk", host, 6000)
                    .with_lease_renew(Duration::from_millis(100)),
                Box::new(Echo),
            )
            .unwrap(),
        );
    }
    let mut asd = AsdClient::connect(&net, &"core".into(), fw.asd_addr.clone(), &me).unwrap();
    for name in victims {
        assert!(asd.find(name).unwrap().is_some(), "{name} never registered");
    }
    for h in handles {
        h.crash();
    }

    // Wait for both expiries, then several extra reaper sweeps to catch
    // any duplicate notification.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let seen = expiries.lock().unwrap().clone();
        if victims.iter().all(|v| seen.iter().any(|s| s == v)) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "expiries never fired: {seen:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(900)); // ≥ 2 full lease periods
    let seen = expiries.lock().unwrap().clone();
    for name in victims {
        assert_eq!(
            seen.iter().filter(|s| s.as_str() == name).count(),
            1,
            "expected exactly one serviceExpired for {name}, saw {seen:?}"
        );
        assert!(
            asd.find(name).unwrap().is_none(),
            "{name} still resolvable after expiry"
        );
    }

    rec.shutdown();
    fw.shutdown();
}

/// The Supervisor acts on what the directory says *now*, not on what it
/// was told a moment ago: a daemon it has just probed healthy crashes, the
/// lease lapses, and the ASD's `serviceExpired` alone — the next probe is
/// a minute away — brings the replacement up.  Were `onServiceExpired` to
/// double-check through the answers `ctx.lookup` holds for a lease, the
/// healthy probe's "registered" would still be held when the notification
/// arrives, it would answer `restarted=false`, and the daemon would stay
/// down until probing noticed.
#[test]
fn a_lapsed_lease_restarts_a_daemon_the_supervisor_last_saw_healthy() {
    const LEASE: Duration = Duration::from_secs(1);
    let net = SimNet::new();
    for h in ["core", "bar"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", LEASE).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let connect = |addr: &Addr| ServiceClient::connect(&net, &"core".into(), addr.clone(), &me);

    // The victim registers and never renews, so its lease lapses one LEASE
    // after its spawn; the probe below is younger than that registration
    // by longer than the expiry notification takes to arrive.
    let config = fw.service_config("victim", "Service.Echo", "hawk", "bar", 6000);
    let victim = Daemon::spawn(
        &net,
        config.clone().with_lease_renew(Duration::from_secs(60)),
        Box::new(Echo),
    )
    .unwrap();
    std::thread::sleep(LEASE / 4);

    let spec = SupervisedSpec::new(
        "victim",
        Box::new(move |net: &SimNet| {
            let config = config.clone().with_incarnation(1);
            Daemon::spawn(net, config, Box::new(Echo)).map(Respawn::from)
        }),
    );
    let watchdog =
        Supervisor::new(vec![spec], RestartPolicy::default()).with_probe_interval(LEASE * 60);
    let supervisor = Daemon::spawn(
        &net,
        fw.service_config(
            "supervisor",
            "Service.Supervisor",
            "machineroom",
            "core",
            6100,
        ),
        Box::new(watchdog),
    )
    .unwrap();
    let (host, directory) = (&supervisor.addr().host, fw.directory());
    subscribe_expiry(&net, host, &me, &directory, "supervisor", supervisor.addr()).unwrap();

    let mut to_victim = connect(victim.addr()).unwrap();
    await_true(
        net.clock(),
        "the start-up probe to ping the victim",
        WAIT,
        || {
            let stats = to_victim.call(&CmdLine::new("aceStats").arg("prefix", "cmd.ping"));
            StatsReport::from_cmdline(&stats.unwrap())
                .histograms
                .contains_key("cmd.ping")
        },
    );
    victim.crash();

    let mut to_supervisor = connect(supervisor.addr()).unwrap();
    await_true(
        net.clock(),
        "serviceExpired to restart the victim",
        WAIT,
        || {
            let stats = to_supervisor.call(&CmdLine::new("superviseStats")).unwrap();
            stats.get_int("restarts") == Some(1)
        },
    );
    let mut replacement = connect(victim.addr()).unwrap();
    let pong = replacement.call(&CmdLine::new("ping")).unwrap();
    assert_eq!(pong.get_int("incarnation"), Some(1));

    supervisor.shutdown();
    fw.shutdown();
}

/// A lapse the directory cannot confirm restarts nothing.  The Supervisor's
/// probe reads an unreachable directory as no verdict, and so does its
/// `onServiceExpired` arm: with the directory's host down, a bare lapse
/// notification for a service it watches answers `restarted=false`, calls
/// no respawn and leaves nothing pending.  Before, the failed lookup read as
/// "not registered", and the healthy service was respawned.
#[test]
fn a_lapse_the_directory_cannot_confirm_restarts_nothing() {
    const LEASE: Duration = Duration::from_secs(10);
    let net = SimNet::new();
    for h in ["core", "bar", "sup", "ops"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", LEASE).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let victim = Daemon::spawn(
        &net,
        fw.service_config("victim", "Service.Echo", "hawk", "bar", 6000),
        Box::new(Echo),
    )
    .unwrap();
    let respawns = Arc::new(Mutex::new(0));
    let counted = Arc::clone(&respawns);
    let spec = SupervisedSpec::new(
        "victim",
        Box::new(move |_: &SimNet| {
            *counted.lock().unwrap() += 1;
            Err(ace_core::daemon::SpawnError::Restore("only counted".into()))
        }),
    );
    let watchdog =
        Supervisor::new(vec![spec], RestartPolicy::default()).with_probe_interval(LEASE * 60);
    let supervisor = Daemon::spawn(
        &net,
        fw.service_config(
            "supervisor",
            "Service.Supervisor",
            "machineroom",
            "sup",
            6100,
        ),
        Box::new(watchdog),
    )
    .unwrap();

    net.kill_host(&"core".into());
    let mut to_supervisor =
        ServiceClient::connect(&net, &"ops".into(), supervisor.addr().clone(), &me).unwrap();
    let lapse = CmdLine::new("onServiceExpired").arg("name", "victim");
    let reply = to_supervisor.call(&lapse).unwrap();
    assert_eq!(reply.get_bool("restarted"), Some(false));
    assert_eq!(
        *respawns.lock().unwrap(),
        0,
        "a lapse nobody confirmed respawned"
    );
    let stats = to_supervisor.call(&CmdLine::new("superviseStats")).unwrap();
    assert_eq!(stats.get_vector("pending").map(<[_]>::len), Some(0));

    supervisor.crash();
    victim.shutdown();
}
