//! Scale tests for the §9 goal: "significant amount of testing must be done
//! to ensure the scalability of the system … central services such as the
//! ASD, AUD, WSS, etc must be fully tested for large communication loads."
//!
//! Sizes here are chosen to finish in seconds on one CPU while still
//! exercising the load paths: many daemons against one ASD, sustained
//! command streams, and many concurrent links to one daemon.

use ace_core::prelude::*;
use ace_directory::{bootstrap, AsdClient};
use ace_identity::{UserDb, UserDbClient};
use ace_security::keys::KeyPair;
use std::time::Duration;

struct Echo;
impl ServiceBehavior for Echo {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(CmdSpec::new("touch", "no-op"))
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, _cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        Reply::ok()
    }
}

/// Forty daemons register, renew, answer lookups, and deregister cleanly.
#[test]
fn forty_daemons_one_asd() {
    let net = SimNet::new();
    net.add_host("core");
    for i in 0..8 {
        net.add_host(format!("h{i}"));
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(5)).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());

    let daemons: Vec<DaemonHandle> = (0..40)
        .map(|i| {
            Daemon::spawn(
                &net,
                fw.service_config(
                    &format!("svc{i}"),
                    "Service.Echo",
                    "hawk",
                    format!("h{}", i % 8).as_str(),
                    6000 + (i / 8) as u16,
                )
                .with_lease_renew(Duration::from_millis(500)),
                Box::new(Echo),
            )
            .unwrap()
        })
        .collect();

    let mut asd = AsdClient::connect(&net, &"core".into(), fw.asd_addr.clone(), &me).unwrap();
    // +3 framework services (asd itself does not self-register; roomdb and
    // netlogger do).
    assert_eq!(asd.list().unwrap().len(), 42);
    assert_eq!(asd.lookup(None, Some("Echo"), None).unwrap().len(), 40);

    // Everything stays registered across a full lease period (renewals
    // under load).  Polled with a bounded retry rather than a single
    // fixed-length sleep: a renewal landing late under scheduler load is
    // indistinguishable from a hard expiry at one instant, but not over
    // forty consecutive observations.
    let lease_start = std::time::Instant::now();
    let mut attempts = 0;
    loop {
        std::thread::sleep(Duration::from_millis(25));
        let live = asd.lookup(None, Some("Echo"), None).unwrap().len();
        if lease_start.elapsed() >= Duration::from_millis(600) && live == 40 {
            break;
        }
        attempts += 1;
        assert!(
            attempts < 40,
            "registrations did not survive lease renewal: {live}/40 after {:?}",
            lease_start.elapsed()
        );
    }

    for d in daemons {
        d.shutdown();
    }
    assert_eq!(asd.lookup(None, Some("Echo"), None).unwrap().len(), 0);
    fw.shutdown();
}

/// Sixteen concurrent links hammer one daemon; every command answers and
/// the daemon stays healthy.
#[test]
fn sixteen_links_one_daemon() {
    let net = SimNet::new();
    net.add_host("core");
    net.add_host("svc");
    let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    let target = Daemon::spawn(
        &net,
        fw.service_config("target", "Service.Echo", "hawk", "svc", 6000),
        Box::new(Echo),
    )
    .unwrap();

    let mut joins = Vec::new();
    for _ in 0..16 {
        let net = net.clone();
        let addr = target.addr().clone();
        joins.push(std::thread::spawn(move || {
            let me = KeyPair::generate(&mut rand::thread_rng());
            let mut client = ServiceClient::connect(&net, &"core".into(), addr, &me).unwrap();
            for _ in 0..50 {
                client.call_ok(&CmdLine::new("touch")).unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    // Still alive and responsive.
    let me = KeyPair::generate(&mut rand::thread_rng());
    let mut probe =
        ServiceClient::connect(&net, &"core".into(), target.addr().clone(), &me).unwrap();
    probe.call_ok(&CmdLine::new("ping")).unwrap();

    target.shutdown();
    fw.shutdown();
}

/// A poll that never yields: holds its worker for whole watchdog periods
/// at a time until released.  The runtime must count it (`runtime.longPolls`)
/// and inject spare workers so co-scheduled daemons keep answering.
struct Staller {
    release: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl ace_core::RuntimeTask for Staller {
    fn poll(&mut self, _cx: &mut ace_core::TaskContext<'_>) -> ace_core::TaskPoll {
        use std::sync::atomic::Ordering;
        while !self.release.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(10));
        }
        ace_core::TaskPoll::Complete
    }
}

/// The PR 8 tentpole at test scale: two thousand daemons multiplexed onto
/// one small shared worker pool — not two thousand × 4 OS threads — all
/// register with the ASD and all answer `ping`.  A hostile never-yielding
/// task on the same pool is detected by the starvation watchdog without
/// taking its sibling daemons down.
#[test]
fn runtime_scale() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const DAEMONS: usize = 2000;
    const HOSTS: usize = 16;

    let net = SimNet::new();
    net.add_host("core");
    for i in 0..HOSTS {
        net.add_host(format!("rs{i}"));
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(60)).unwrap();
    // A deliberately small dedicated pool: the point is multiplexing, and
    // a private pool keeps the staller's metrics attributable.
    let pool = ace_core::Runtime::new(4);

    let daemons: Vec<DaemonHandle> = (0..DAEMONS)
        .map(|i| {
            Daemon::spawn(
                &net,
                fw.service_config(
                    &format!("rt{i}"),
                    "Service.Echo",
                    "hawk",
                    format!("rs{}", i % HOSTS).as_str(),
                    7000 + (i / HOSTS) as u16,
                )
                // Long periods: 2k daemons renewing every 500ms would be a
                // renewal storm benchmark, not a multiplexing test.
                .with_lease_renew(Duration::from_secs(10))
                .with_tick(Duration::from_secs(1))
                .with_runtime_pool(pool.clone()),
                Box::new(Echo),
            )
            .unwrap()
        })
        .collect();

    // All registered.
    let me = KeyPair::generate(&mut rand::thread_rng());
    let mut asd = AsdClient::connect(&net, &"core".into(), fw.asd_addr.clone(), &me).unwrap();
    assert_eq!(asd.lookup(None, Some("Echo"), None).unwrap().len(), DAEMONS);

    // Wedge one worker with a task that refuses to yield…
    let release = Arc::new(AtomicBool::new(false));
    let staller = pool.spawn(Box::new(Staller {
        release: Arc::clone(&release),
    }));

    // …and every daemon still answers `ping` while it is stuck.
    for d in &daemons {
        let mut client =
            ServiceClient::connect(&net, &"core".into(), d.addr().clone(), &me).unwrap();
        client.call_ok(&CmdLine::new("ping")).unwrap();
    }

    // The watchdog saw the wedged worker.
    assert!(
        pool.long_polls() > 0,
        "a {}ms+ poll must be counted as a long poll",
        ace_core::runtime::LONG_POLL.as_millis()
    );

    release.store(true, Ordering::SeqCst);
    staller.wake();
    assert!(
        staller.wait(Duration::from_secs(10)),
        "released staller must complete"
    );

    for d in daemons {
        d.shutdown();
    }
    assert_eq!(asd.lookup(None, Some("Echo"), None).unwrap().len(), 0);
    fw.shutdown();
    pool.shutdown();
}

/// The AUD under a sustained mixed read/write load keeps its indexes
/// consistent.
#[test]
fn aud_sustained_mixed_load() {
    let net = SimNet::new();
    net.add_host("core");
    let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    let aud = Daemon::spawn(
        &net,
        fw.service_config("aud", "Service.Database.User", "machineroom", "core", 5200),
        Box::new(UserDb::new()),
    )
    .unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let mut client = UserDbClient::connect(&net, &"core".into(), aud.addr().clone(), &me).unwrap();

    const USERS: usize = 300;
    for i in 0..USERS {
        client
            .add_user(
                &format!("u{i}"),
                &format!("User {i}"),
                "pw",
                "rsa:0:0",
                Some(&format!("fp{i}")),
                Some(&format!("ib{i}")),
            )
            .unwrap();
    }
    // Mixed reads across all three indexes.
    for i in (0..USERS).step_by(7) {
        assert_eq!(
            client
                .find_by_fingerprint(&format!("fp{i}"))
                .unwrap()
                .as_deref(),
            Some(format!("u{i}").as_str())
        );
        assert_eq!(
            client
                .find_by_ibutton(&format!("ib{i}"))
                .unwrap()
                .as_deref(),
            Some(format!("u{i}").as_str())
        );
        client
            .set_location(&format!("u{i}"), "hawk", "core")
            .unwrap();
    }
    // Remove a third; indexes must drop the entries.
    for i in (0..USERS).step_by(3) {
        client
            .raw()
            .call_ok(&CmdLine::new("removeUser").arg("username", format!("u{i}").as_str()))
            .unwrap();
        assert_eq!(client.find_by_fingerprint(&format!("fp{i}")).unwrap(), None);
    }
    assert_eq!(
        client.list_users().unwrap().len(),
        USERS - USERS.div_ceil(3)
    );

    aud.shutdown();
    fw.shutdown();
}
