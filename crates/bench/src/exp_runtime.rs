//! E22 — daemon density: what one process pays for N daemons on the shared
//! cooperative runtime, against the same daemons each isolated on a pool of
//! their own.  `acebench`'s building is ~370 tasks; 10,000 daemons in one
//! process is a stress arm it has no workload for, which is why this stays
//! an experiment.
//!
//! Each arm spawns N Echo daemons through the full Fig. 9 startup (Room DB +
//! ASD + Net Logger registration) and records:
//!
//! * **OS threads added** for the N daemons.  A dedicated pool pays a
//!   worker, a timer and a watchdog per daemon; the shared pool pays one
//!   fixed set for all of them, created before the measurement window.
//! * **bytes/daemon** — RSS growth across the spawns, per daemon.
//! * **spawn p50/p99** — per-daemon spawn latency, registration included.
//! * **ping p50/p99** — command round trip against a sample of the fleet,
//!   measured while all N daemons are live.

use crate::util::*;
use ace_core::prelude::*;
use ace_core::Runtime;
use ace_security::keys::KeyPair;
use std::time::{Duration, Instant};

struct Echo;
impl ServiceBehavior for Echo {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(CmdSpec::new("touch", "no-op"))
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, _cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        Reply::ok()
    }
}

/// One numeric field from `/proc/self/status` (`Threads` count, `VmRSS` in
/// kB).  Zero off Linux.
fn proc_status(key: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// How many daemons to ping for the latency quantiles.
const PING_SAMPLE: usize = 500;
const HOSTS: usize = 64;

/// What one process paid for a fleet of daemons.
struct Fleet {
    os_threads_delta: u64,
    bytes_per_daemon: f64,
    spawn_us: Vec<f64>,
    ping_us: Vec<f64>,
}

fn fleet(dedicated: bool, daemons: usize) -> Fleet {
    let net = SimNet::new();
    net.add_host("core");
    for i in 0..HOSTS {
        net.add_host(format!("b{i}"));
    }
    let fw = ace_directory::bootstrap(&net, "core", Duration::from_secs(300)).expect("framework");
    // The shared arm gets one pool of its own (sized like the global
    // default: available parallelism), created before the measurement
    // window; the dedicated arm creates one single-worker pool per daemon
    // *inside* the window — those threads are what isolation costs.
    let mut pools: Vec<Runtime> = Vec::new();
    if !dedicated {
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
        pools.push(Runtime::new(workers));
    }

    let threads_before = proc_status("Threads");
    let rss_before_kb = proc_status("VmRSS");
    let mut spawn_us: Vec<f64> = Vec::with_capacity(daemons);
    let handles: Vec<DaemonHandle> = (0..daemons)
        .map(|i| {
            if dedicated {
                pools.push(Runtime::new(1));
            }
            let config = fw
                .service_config(
                    &format!("rt{i}"),
                    "Service.Echo",
                    "hawk",
                    format!("b{}", i % HOSTS).as_str(),
                    7000 + (i / HOSTS) as u16,
                )
                // Long periods: the arm measures multiplexing density, not
                // a renewal storm.
                .with_lease_renew(Duration::from_secs(60))
                .with_tick(Duration::from_secs(5))
                .with_runtime_pool(pools.last().expect("a pool").clone());
            let t = Instant::now();
            let handle = Daemon::spawn(&net, config, Box::new(Echo)).expect("spawn");
            spawn_us.push(t.elapsed().as_secs_f64() * 1e6);
            handle
        })
        .collect();
    let os_threads_delta = proc_status("Threads").saturating_sub(threads_before);
    let rss_delta_kb = proc_status("VmRSS").saturating_sub(rss_before_kb);

    // Ping a spread of the fleet while everything is live.
    let me = KeyPair::generate(&mut rand::thread_rng());
    let samples = PING_SAMPLE.min(daemons);
    let ping_us: Vec<f64> = (0..samples)
        .map(|s| {
            let addr = handles[s * daemons / samples].addr().clone();
            let mut client =
                ServiceClient::connect(&net, &"core".into(), addr, &me).expect("connect");
            let t = Instant::now();
            client.call_ok(&CmdLine::new("ping")).expect("ping");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();

    // Teardown, in dependency order: daemons first (their tasks must
    // complete while the pool still runs — a handle dropped against a
    // stopped pool waits out its full join timeout), then the pools, then
    // the framework.  This also keeps the dedicated arm's threads out of
    // the next arm's thread accounting.
    for h in &handles {
        h.shutdown();
    }
    drop(handles);
    for pool in &pools {
        pool.shutdown();
    }
    fw.shutdown();
    Fleet {
        os_threads_delta,
        bytes_per_daemon: (rss_delta_kb * 1024) as f64 / daemons as f64,
        spawn_us,
        ping_us,
    }
}

/// E22: a 500-daemon dedicated baseline (three threads per daemon: thread
/// exhaustion is exactly the ceiling sharing removes) against 10,000
/// daemons on one shared pool.
pub fn e22() {
    header("E22", "§9, PR 8", "daemon density on the shared runtime");
    row(
        "runtime × daemons",
        &[
            "OS threads +".into(),
            "bytes/daemon".into(),
            "spawn p50/p99".into(),
            "ping p50/p99".into(),
        ],
    );
    let mut bytes_per_daemon = Vec::new();
    // Two arms only, the small one first: RSS growth under-reads by whatever
    // heap the process has already freed, so an intermediate shared arm
    // would pay for part of the next one's memory.
    for (dedicated, daemons) in [(true, 500), (false, 10_000)] {
        let f = fleet(dedicated, daemons);
        let us = |samples: &[f64]| {
            let at = |q| percentile(samples, q).unwrap_or(0.0);
            format!("{:.0}/{:.0}µs", at(0.5), at(0.99))
        };
        row(
            &format!(
                "{} × {daemons}",
                if dedicated { "dedicated" } else { "shared" }
            ),
            &[
                f.os_threads_delta.to_string(),
                format!("{:.0}", f.bytes_per_daemon),
                us(&f.spawn_us),
                us(&f.ping_us),
            ],
        );
        bytes_per_daemon.push(f.bytes_per_daemon);
    }
    println!(
        "  shared pool: {:.1}× less memory per daemon",
        bytes_per_daemon[0] / bytes_per_daemon[1].max(1.0)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small fleet on each backing: every daemon spawns, registers and
    /// answers `ping`, and only the dedicated arm pays threads per daemon.
    #[test]
    fn small_fleets_spawn_and_answer() {
        let shared = fleet(false, 200);
        assert_eq!(shared.spawn_us.len(), 200);
        assert_eq!(shared.ping_us.len(), 200);
        let dedicated = fleet(true, 50);
        assert_eq!(dedicated.ping_us.len(), 50);
        if cfg!(target_os = "linux") {
            assert!(
                dedicated.os_threads_delta >= 50,
                "a pool per daemon is at least a thread per daemon: {}",
                dedicated.os_threads_delta
            );
        }
    }
}
