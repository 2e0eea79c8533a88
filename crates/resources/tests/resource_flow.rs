//! Integration tests of the resource tier: HRM accounting, SRM aggregation
//! (Fig. 11), HAL app lifecycle, and SAL placement policies (E9's knob).

use ace_core::prelude::*;
use ace_directory::{bootstrap, Framework};
use ace_resources::{
    spawn_host_services, spawn_system_services, system_rows_from_value, HostProfile,
};
use ace_security::keys::KeyPair;
use std::collections::HashMap;
use std::time::Duration;

fn keypair() -> KeyPair {
    KeyPair::generate(&mut rand::thread_rng())
}

struct World {
    net: SimNet,
    fw: Framework,
    host_daemons: Vec<(DaemonHandle, DaemonHandle)>,
    srm: DaemonHandle,
    sal: DaemonHandle,
}

fn world(hosts: &[&str]) -> World {
    let net = SimNet::new();
    net.add_host("core");
    for h in hosts {
        net.add_host(*h);
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    let mut host_daemons = Vec::new();
    for h in hosts {
        host_daemons.push(spawn_host_services(&net, &fw, h, HostProfile::default()).unwrap());
    }
    let (srm, sal) = spawn_system_services(&net, &fw, "core").unwrap();
    World {
        net,
        fw,
        host_daemons,
        srm,
        sal,
    }
}

impl World {
    fn teardown(self) {
        self.sal.shutdown();
        self.srm.shutdown();
        for (hrm, hal) in self.host_daemons {
            hal.shutdown();
            hrm.shutdown();
        }
        self.fw.shutdown();
    }
}

#[test]
fn hal_launch_updates_hrm_load() {
    let w = world(&["bar"]);
    let me = keypair();

    let hal_addr = Addr::new("bar", ace_resources::HAL_PORT);
    let hrm_addr = Addr::new("bar", ace_resources::HRM_PORT);
    let mut hal = ServiceClient::connect(&w.net, &"core".into(), hal_addr, &me).unwrap();
    let mut hrm = ServiceClient::connect(&w.net, &"core".into(), hrm_addr, &me).unwrap();

    let r = hal
        .call(
            &CmdLine::new("launchApp")
                .arg("app", Value::Str("netscape".into()))
                .arg("user", "jdoe")
                .arg("load", 2.0)
                .arg("mem", 64),
        )
        .unwrap();
    let app_id = r.get_int("appId").unwrap();

    let res = hrm.call(&CmdLine::new("getResources")).unwrap();
    assert_eq!(res.get_f64("load"), Some(2.0));
    assert_eq!(res.get_int("memUsed"), Some(64));
    assert_eq!(res.get_int("apps"), Some(1));

    hal.call_ok(&CmdLine::new("killApp").arg("appId", app_id))
        .unwrap();
    let res = hrm.call(&CmdLine::new("getResources")).unwrap();
    assert_eq!(res.get_f64("load"), Some(0.0));
    assert_eq!(res.get_int("apps"), Some(0));

    w.teardown();
}

#[test]
fn timed_apps_expire_and_release_load() {
    let w = world(&["bar"]);
    let me = keypair();
    let hal_addr = Addr::new("bar", ace_resources::HAL_PORT);
    let hrm_addr = Addr::new("bar", ace_resources::HRM_PORT);
    let mut hal = ServiceClient::connect(&w.net, &"core".into(), hal_addr, &me).unwrap();
    let mut hrm = ServiceClient::connect(&w.net, &"core".into(), hrm_addr, &me).unwrap();

    hal.call(
        &CmdLine::new("launchApp")
            .arg("app", Value::Str("sleep".into()))
            .arg("durationMs", 100),
    )
    .unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let res = hrm.call(&CmdLine::new("getResources")).unwrap();
        if res.get_int("apps") == Some(0) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "app never expired");
        std::thread::sleep(Duration::from_millis(20));
    }

    w.teardown();
}

#[test]
fn srm_aggregates_all_hosts() {
    let w = world(&["bar", "tube", "rod"]);
    let me = keypair();
    let mut srm =
        ServiceClient::connect(&w.net, &"core".into(), w.srm.addr().clone(), &me).unwrap();

    srm.call_ok(&CmdLine::new("refresh")).unwrap();
    let reply = srm.call(&CmdLine::new("systemResources")).unwrap();
    let rows = system_rows_from_value(reply.get("hosts").unwrap()).unwrap();
    let hosts: Vec<&str> = rows.iter().map(|r| r.0.as_str()).collect();
    assert_eq!(hosts, vec!["bar", "rod", "tube"]);

    w.teardown();
}

#[test]
fn sal_resource_policy_balances_load() {
    let w = world(&["bar", "tube", "rod", "pipe"]);
    let me = keypair();
    let mut sal =
        ServiceClient::connect(&w.net, &"core".into(), w.sal.addr().clone(), &me).unwrap();

    let mut per_host: HashMap<String, usize> = HashMap::new();
    for i in 0..40 {
        let r = sal
            .call(
                &CmdLine::new("launch")
                    .arg("app", Value::Str(format!("job{i}")))
                    .arg("policy", "resource")
                    .arg("load", 1.0),
            )
            .unwrap();
        *per_host
            .entry(r.get_text("host").unwrap().to_string())
            .or_default() += 1;
    }
    // Resource-aware placement with optimistic charging spreads 40 equal
    // jobs over 4 equal hosts exactly or nearly evenly.
    assert_eq!(per_host.values().sum::<usize>(), 40);
    let max = *per_host.values().max().unwrap();
    let min = per_host.values().min().copied().unwrap_or(0);
    assert!(per_host.len() == 4, "all hosts used: {per_host:?}");
    assert!(
        max - min <= 2,
        "resource policy should balance within ±2: {per_host:?}"
    );

    w.teardown();
}

#[test]
fn sal_pinned_host_and_unknown_policy() {
    let w = world(&["bar", "tube"]);
    let me = keypair();
    let mut sal =
        ServiceClient::connect(&w.net, &"core".into(), w.sal.addr().clone(), &me).unwrap();

    let r = sal
        .call(
            &CmdLine::new("launch")
                .arg("app", Value::Str("x".into()))
                .arg("host", "tube"),
        )
        .unwrap();
    assert_eq!(r.get_text("host"), Some("tube"));

    let err = sal
        .call(
            &CmdLine::new("launch")
                .arg("app", Value::Str("x".into()))
                .arg("policy", "psychic"),
        )
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Semantics));

    let err = sal
        .call(
            &CmdLine::new("launch")
                .arg("app", Value::Str("x".into()))
                .arg("host", "ghost"),
        )
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::NotFound));

    w.teardown();
}

/// Where the HALs are is asked of the directory once a lease, not once a
/// launch.  After one launch per host — the SAL then holds the
/// `class=HAL` answer and each HAL its HRM's address — fifty more move the
/// ASD's `lookup` count by at most the two answers whose lease may lapse
/// meanwhile (the SAL's, and the SRM's `class=HRM` it polls with); asking
/// per launch moves it by fifty.
#[test]
fn a_second_launch_asks_the_directory_nothing() {
    let hosts = ["bar", "tube"];
    let w = world(&hosts);
    let me = keypair();
    let connect = |addr: &Addr| ServiceClient::connect(&w.net, &"core".into(), addr.clone(), &me);
    let mut asd = connect(&w.fw.asd_addr).unwrap();
    let mut lookups_served = || {
        let stats = asd.call(&CmdLine::new("aceStats").arg("prefix", "cmd.lookup"));
        StatsReport::from_cmdline(&stats.unwrap()).histograms["cmd.lookup"].count
    };
    let mut sal = connect(w.sal.addr()).unwrap();
    let launch = CmdLine::new("launch").arg("app", Value::Str("job".into()));
    for host in hosts {
        sal.call(&launch.clone().arg("host", host)).unwrap();
    }

    let before = lookups_served();
    for _ in 0..50 {
        let placed = sal.call(&launch.clone().arg("policy", "random")).unwrap();
        let host = placed.get_text("host").unwrap();
        assert!(hosts.contains(&host), "launched on {host}");
        assert_eq!(placed.get_text("hal"), Some(format!("hal_{host}").as_str()));
    }
    let asked = lookups_served() - before;
    assert!(asked <= 2, "50 launches asked the ASD {asked} times");

    w.teardown();
}

#[test]
fn sal_survives_dead_hal_host() {
    let w = world(&["bar", "tube"]);
    let me = keypair();

    // Kill one host abruptly; its HAL/HRM leases will lapse, but right now
    // the ASD may still list them.  Each random pick lands on the dead HAL
    // half the time: the SAL passes it over for the survivor, so every
    // launch is placed (not "at least one of six", which failed whenever
    // all six picks came up dead — 1 run in 64).
    w.net.kill_host(&"tube".into());
    let mut sal =
        ServiceClient::connect(&w.net, &"core".into(), w.sal.addr().clone(), &me).unwrap();
    for _ in 0..6 {
        let placed = sal
            .call(
                &CmdLine::new("launch")
                    .arg("app", Value::Str("survivor".into()))
                    .arg("policy", "random"),
            )
            .expect("the survivor is tried when the dead HAL is picked");
        assert_eq!(placed.get_text("host"), Some("bar"));
    }
    // A caller that pinned the dead host is told so, not moved elsewhere.
    let pinned = sal.call(
        &CmdLine::new("launch")
            .arg("app", Value::Str("survivor".into()))
            .arg("host", "tube"),
    );
    assert!(pinned.is_err(), "a pinned launch stays pinned: {pinned:?}");

    // Teardown: the tube daemons are dead; shut down the rest.
    w.sal.shutdown();
    w.srm.shutdown();
    for (hrm, hal) in w.host_daemons {
        if hal.addr().host.as_str() == "tube" {
            hal.crash();
            hrm.crash();
        } else {
            hal.shutdown();
            hrm.shutdown();
        }
    }
    w.fw.shutdown();
}

/// The HAL's count of load reports that failed, if it has counted any.
fn report_failures(hal: &mut ServiceClient) -> Option<u64> {
    let stats = hal
        .call(&CmdLine::new("aceStats").arg("prefix", "load."))
        .unwrap();
    StatsReport::from_cmdline(&stats)
        .counters
        .get("load.reportFailures")
        .copied()
}

/// A load report that fails is counted in the HAL's registry and logged,
/// not dropped: with its HRM crashed (still listed until its lease lapses)
/// a launch still answers, and the HAL's `aceStats` reads one
/// `load.reportFailures`.
#[test]
fn a_failed_load_report_is_counted() {
    let w = world(&["bar"]);
    let me = keypair();
    let hal_addr = Addr::new("bar", ace_resources::HAL_PORT);
    let mut hal = ServiceClient::connect(&w.net, &"core".into(), hal_addr, &me).unwrap();
    let launch = CmdLine::new("launchApp").arg("app", Value::Str("netscape".into()));

    hal.call(&launch).unwrap();
    assert_eq!(report_failures(&mut hal), None);
    w.host_daemons[0].0.crash();
    hal.call(&launch).unwrap();
    assert_eq!(report_failures(&mut hal), Some(1));
    w.teardown();
}
