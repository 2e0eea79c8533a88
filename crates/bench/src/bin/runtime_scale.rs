//! Daemon-density benchmark for the shared cooperative runtime.
//!
//! ```sh
//! cargo run --release -p ace-bench --bin runtime_scale -- -o runtime_scale.json
//! cargo run --release -p ace-bench --bin runtime_scale -- --dedicated   # isolated arm only
//! cargo run --release -p ace-bench --bin runtime_scale -- --sizes 1000,2000
//! ```
//!
//! Each arm spawns N Echo daemons (full Fig. 9 startup: Room DB + ASD +
//! Net Logger registration) and records what one process pays for them:
//!
//! * **os_threads_delta** — OS threads created for the N daemons.  A
//!   dedicated pool pays a worker, a timer and a watchdog per daemon; the
//!   shared pool pays one fixed set for all of them.
//! * **bytes_per_daemon** — RSS growth across the spawns, per daemon.
//! * **spawn p50/p99** — per-daemon spawn latency, registration included.
//! * **ping p50/p99** — command round-trip against a sample of the fleet,
//!   measured while all N daemons are live.
//!
//! The default run takes a 500-daemon **dedicated** baseline — every
//! daemon isolated on its own `Runtime::new(1)` — plus shared-pool arms at
//! 1k/5k/10k and derives the density ratios.  `--dedicated` runs only the
//! isolated arm (capped at 500 daemons: thread exhaustion is exactly the
//! ceiling sharing removes).  The committed `BENCH_pr8.json` is the
//! historical record of this comparison against the paper's four-thread
//! shell, which no longer exists; this bin does not rewrite it.

use ace_core::prelude::*;
use ace_security::keys::KeyPair;
use std::fmt::Write as _;
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

/// One numeric field from `/proc/self/status` (`Threads` count, `VmRSS`
/// in kB).  Zero off Linux — the artifact is produced on CI runners.
fn proc_status(key: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            if let Some(num) = rest.trim_start_matches(':').split_whitespace().next() {
                return num.parse().unwrap_or(0);
            }
        }
    }
    0
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0) * (sorted_us.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted_us[lo] + (sorted_us[hi] - sorted_us[lo]) * frac
}

struct Row {
    mode: &'static str,
    daemons: usize,
    os_threads_delta: u64,
    daemons_per_os_thread: f64,
    bytes_per_daemon: f64,
    spawn_p50_us: f64,
    spawn_p99_us: f64,
    spawn_total_s: f64,
    ping_p50_us: f64,
    ping_p99_us: f64,
    ping_samples: usize,
}

/// How many daemons to ping for the latency quantiles.
const PING_SAMPLE: usize = 500;
const HOSTS: usize = 64;

/// Isolated-arm cap: three threads per daemon.
const DEDICATED_MAX: usize = 500;

fn run_arm(dedicated: bool, daemons: usize) -> Row {
    let net = SimNet::new();
    net.add_host("core");
    for i in 0..HOSTS {
        net.add_host(format!("b{i}"));
    }
    let fw = ace_directory::bootstrap(&net, "core", Duration::from_secs(300)).unwrap();
    // The shared arms get one pool of their own (sized like the global
    // default: available parallelism), created before the measurement
    // window so each arm starts from a clean worker set; the dedicated arm
    // creates one single-worker pool per daemon *inside* the window — those
    // threads are what isolation costs.
    let mut pools: Vec<ace_core::Runtime> = Vec::new();
    if !dedicated {
        pools.push(ace_core::Runtime::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        ));
    }

    let threads_before = proc_status("Threads");
    let rss_before_kb = proc_status("VmRSS");
    let mut spawn_us: Vec<f64> = Vec::with_capacity(daemons);
    let spawn_started = Instant::now();
    let handles: Vec<DaemonHandle> = (0..daemons)
        .map(|i| {
            if dedicated {
                pools.push(ace_core::Runtime::new(1));
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
                .with_stats_interval(Duration::ZERO)
                .with_runtime_pool(pools.last().expect("a pool").clone());
            let t = Instant::now();
            let handle = Daemon::spawn(&net, config, Box::new(Echo)).unwrap();
            spawn_us.push(t.elapsed().as_secs_f64() * 1e6);
            handle
        })
        .collect();
    let spawn_total_s = spawn_started.elapsed().as_secs_f64();
    let threads_after = proc_status("Threads");
    let rss_after_kb = proc_status("VmRSS");

    // Ping a spread of the fleet while everything is live.
    let me = KeyPair::generate(&mut rand::thread_rng());
    let samples = PING_SAMPLE.min(daemons);
    let mut ping_us: Vec<f64> = Vec::with_capacity(samples);
    for s in 0..samples {
        let handle = &handles[s * daemons / samples];
        let mut client =
            ServiceClient::connect(&net, &"core".into(), handle.addr().clone(), &me).unwrap();
        let t = Instant::now();
        client.call_ok(&CmdLine::new("ping")).unwrap();
        ping_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    let os_threads_delta = threads_after.saturating_sub(threads_before);
    let bytes_per_daemon =
        (rss_after_kb.saturating_sub(rss_before_kb) * 1024) as f64 / daemons as f64;
    spawn_us.sort_by(|a, b| a.total_cmp(b));
    ping_us.sort_by(|a, b| a.total_cmp(b));
    let row = Row {
        mode: if dedicated { "dedicated" } else { "shared" },
        daemons,
        os_threads_delta,
        daemons_per_os_thread: daemons as f64 / os_threads_delta.max(1) as f64,
        bytes_per_daemon,
        spawn_p50_us: percentile(&spawn_us, 50.0),
        spawn_p99_us: percentile(&spawn_us, 99.0),
        spawn_total_s,
        ping_p50_us: percentile(&ping_us, 50.0),
        ping_p99_us: percentile(&ping_us, 99.0),
        ping_samples: samples,
    };

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
    row
}

fn main() {
    let mut out_path = String::from("runtime_scale.json");
    let mut dedicated_only = false;
    let mut sizes: Vec<usize> = vec![1000, 5000, 10000];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-o" => out_path = args.next().expect("-o needs a path"),
            "--dedicated" => dedicated_only = true,
            "--sizes" => {
                sizes = args
                    .next()
                    .expect("--sizes needs a comma-separated list")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes takes integers"))
                    .collect();
            }
            other => panic!("unknown argument {other}"),
        }
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows: Vec<Row> = Vec::new();
    if dedicated_only {
        for &n in &sizes {
            let n = n.min(DEDICATED_MAX);
            eprintln!("arm: dedicated × {n} daemons");
            rows.push(run_arm(true, n));
        }
    } else {
        eprintln!("arm: dedicated × {DEDICATED_MAX} daemons (baseline)");
        rows.push(run_arm(true, DEDICATED_MAX));
        for &n in &sizes {
            eprintln!("arm: shared × {n} daemons");
            rows.push(run_arm(false, n));
        }
    }

    let mut json = String::from("{\n  \"runtime_scale\": {\n");
    let _ = writeln!(json, "    \"cores\": {cores},");
    let _ = writeln!(json, "    \"ping_sample\": {PING_SAMPLE},");
    json.push_str("    \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"mode\": \"{}\", \"daemons\": {}, \"os_threads_delta\": {}, \
             \"daemons_per_os_thread\": {:.2}, \"daemons_per_core\": {:.1}, \
             \"bytes_per_daemon\": {:.0}, \"spawn_p50_us\": {:.1}, \"spawn_p99_us\": {:.1}, \
             \"spawn_total_s\": {:.2}, \"ping_p50_us\": {:.1}, \"ping_p99_us\": {:.1}, \
             \"ping_samples\": {}}}{}",
            r.mode,
            r.daemons,
            r.os_threads_delta,
            r.daemons_per_os_thread,
            r.daemons as f64 / cores as f64,
            r.bytes_per_daemon,
            r.spawn_p50_us,
            r.spawn_p99_us,
            r.spawn_total_s,
            r.ping_p50_us,
            r.ping_p99_us,
            r.ping_samples,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("    ]");

    let baseline = rows.iter().find(|r| r.mode == "dedicated");
    let best_shared = rows
        .iter()
        .filter(|r| r.mode == "shared")
        .max_by_key(|r| r.daemons);
    if let (Some(base), Some(shared)) = (baseline, best_shared) {
        json.push_str(",\n    \"summary\": {\n");
        let _ = writeln!(
            json,
            "      \"dedicated_baseline_daemons\": {},",
            base.daemons
        );
        let _ = writeln!(
            json,
            "      \"dedicated_baseline_bytes_per_daemon\": {:.0},",
            base.bytes_per_daemon
        );
        let _ = writeln!(
            json,
            "      \"dedicated_baseline_daemons_per_os_thread\": {:.2},",
            base.daemons_per_os_thread
        );
        let _ = writeln!(json, "      \"shared_max_daemons\": {},", shared.daemons);
        let _ = writeln!(
            json,
            "      \"shared_bytes_per_daemon\": {:.0},",
            shared.bytes_per_daemon
        );
        let _ = writeln!(
            json,
            "      \"shared_daemons_per_os_thread\": {:.2},",
            shared.daemons_per_os_thread
        );
        let _ = writeln!(
            json,
            "      \"shared_ping_p99_us\": {:.1},",
            shared.ping_p99_us
        );
        let _ = writeln!(
            json,
            "      \"bytes_per_daemon_improvement\": {:.1},",
            base.bytes_per_daemon / shared.bytes_per_daemon.max(1.0)
        );
        let _ = writeln!(
            json,
            "      \"daemons_per_os_thread_improvement\": {:.1}",
            shared.daemons_per_os_thread / base.daemons_per_os_thread.max(0.01)
        );
        json.push_str("    }\n");
    } else {
        json.push('\n');
    }
    json.push_str("  }\n}\n");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("{json}");
    eprintln!("wrote {out_path}");
}
