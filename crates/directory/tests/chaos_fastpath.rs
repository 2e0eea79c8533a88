//! Connection fast path under fire: pooled links, session resumption, and
//! lease-aware resolution caching must never trade correctness for speed.
//!
//! Three properties are pinned here:
//!
//! 1. **Discard, never repair** — a pooled link to a restarted daemon is
//!    detected stale at checkout and discarded; replies always come from
//!    the *current* incarnation of a service (the incarnation token a
//!    restarted service stamps into every reply is monotone across an
//!    entire chaos run).
//! 2. **At-most-once survives pooling** — a command that was sent on an
//!    established (held-over or reused) pooled link and lost its reply is
//!    *not* retried by `call`, and *is* retried by `call_idempotent`,
//!    observable in an execution counter that lives outside the daemon.
//! 3. **The fast path re-primes after failure** — once a restarted target
//!    answers a full handshake again, subsequent pool misses ride the
//!    freshly harvested resumption ticket.

use ace_core::directory::subscribe_expiry;
use ace_core::prelude::*;
use ace_core::supervise::{Respawn, RestartPolicy, SupervisedSpec, Supervisor};
use ace_core::RetryPolicy;
use ace_net::fault::{FaultPlan, FaultPlanConfig};
use ace_security::keys::KeyPair;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PLAN_LEN: Duration = Duration::from_millis(2000);
const RECOVERY_DEADLINE: Duration = Duration::from_secs(15);

/// Echo service stamping every reply with its spawn incarnation.  A stale
/// reply from a pre-restart link would carry an older incarnation than one
/// already observed — the monotonicity the chaos run asserts.
struct TokenEcho {
    incarnation: u64,
    exec: Arc<AtomicU64>,
}

impl ServiceBehavior for TokenEcho {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(CmdSpec::new("token", "who is answering"))
            .with(CmdSpec::new("bump", "count an execution"))
            .with(CmdSpec::new(
                "slowBump",
                "count an execution, then stall before replying",
            ))
    }

    fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "token" => {
                let inc = self.incarnation;
                Reply::ok_with(|c| c.arg("incarnation", inc as i64))
            }
            "bump" => {
                let n = self.exec.fetch_add(1, Ordering::SeqCst) + 1;
                Reply::ok_with(|c| c.arg("count", n as i64))
            }
            "slowBump" => {
                let n = self.exec.fetch_add(1, Ordering::SeqCst) + 1;
                // Window for the harness to kill this host after the
                // command has executed but before the reply is sent.
                std::thread::sleep(Duration::from_millis(400));
                Reply::ok_with(|c| c.arg("count", n as i64))
            }
            _ => Reply::err(ErrorCode::Internal, "unrouted"),
        }
    }
}

/// Spawn the framework tier plus a supervised `TokenEcho` on `app_host`,
/// returning what the scenarios need to drive and tear it down.
struct Scenario {
    net: SimNet,
    fw: ace_directory::Framework,
    supervisor: DaemonHandle,
    app: DaemonHandle,
    invalidator: DaemonHandle,
    exec: Arc<AtomicU64>,
    incarnations: Arc<AtomicU64>,
    me: KeyPair,
    pool: Arc<LinkPool>,
    cache: Arc<ResolutionCache>,
    metrics: MetricsRegistry,
}

fn scenario(lease: Duration) -> Scenario {
    let net = SimNet::new();
    for h in ["ctrl", "app1"] {
        net.add_host(h);
    }
    let fw = ace_directory::bootstrap(&net, "ctrl", lease).unwrap();
    let exec = Arc::new(AtomicU64::new(0));
    let incarnations = Arc::new(AtomicU64::new(1));
    let app = Daemon::spawn(
        &net,
        fw.service_config("token1", "Service.App.Token", "office", "app1", 4800),
        Box::new(TokenEcho {
            incarnation: 1,
            exec: Arc::clone(&exec),
        }),
    )
    .unwrap();

    // Supervisor: every respawn gets the next incarnation number.
    let fw_ref = (
        fw.directory(),
        fw.roomdb_addr.clone(),
        fw.logger_addr.clone(),
    );
    let spawn_exec = Arc::clone(&exec);
    let spawn_inc = Arc::clone(&incarnations);
    let specs = vec![SupervisedSpec::new(
        "token1",
        Box::new(move |net: &SimNet| {
            let incarnation = spawn_inc.fetch_add(1, Ordering::SeqCst) + 1;
            Daemon::spawn(
                net,
                DaemonConfig::new("token1", "Service.App.Token", "office", "app1", 4800)
                    .with_directory(fw_ref.0.clone())
                    .with_roomdb(fw_ref.1.clone())
                    .with_logger(fw_ref.2.clone()),
                Box::new(TokenEcho {
                    incarnation,
                    exec: Arc::clone(&spawn_exec),
                }),
            )
            .map(Respawn::from)
        }),
    )];
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

    // Shared fast-path state: one pool, one resolution cache, one metrics
    // registry observing both, and an invalidator daemon fed by the ASD's
    // `serviceExpired` notifications.
    let metrics = MetricsRegistry::new();
    let pool = Arc::new(LinkPool::with_metrics(&net, "ctrl", me, &metrics));
    let cache = Arc::new(ResolutionCache::with_metrics(&metrics));
    let invalidator = Daemon::spawn(
        &net,
        fw.service_config(
            "invalidator",
            "Service.CacheInvalidator",
            "machineroom",
            "ctrl",
            5950,
        ),
        Box::new(ResolutionInvalidator::new(Arc::clone(&cache))),
    )
    .unwrap();
    subscribe_expiry(
        &net,
        host,
        &me,
        &directory,
        "invalidator",
        invalidator.addr(),
    )
    .unwrap();

    Scenario {
        net,
        fw,
        supervisor,
        app,
        invalidator,
        exec,
        incarnations,
        me,
        pool,
        cache,
        metrics,
    }
}

impl Scenario {
    fn bound_client(&self) -> FailoverClient {
        FailoverClient::bind(
            self.net.clone(),
            "ctrl",
            self.me,
            self.fw.asd_addr.clone(),
            "token1",
        )
        .with_retry_window(Duration::from_secs(5))
        .with_pool(Arc::clone(&self.pool))
        .with_resolution_cache(Arc::clone(&self.cache))
    }

    fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name).get()
    }

    fn teardown(self) {
        self.supervisor.shutdown();
        self.invalidator.shutdown();
        self.app.crash();
        self.fw.shutdown();
    }
}

/// Wait until the supervised app answers `token` again, returning the
/// incarnation that answered.
fn await_recovery(client: &mut FailoverClient) -> u64 {
    let deadline = Instant::now() + RECOVERY_DEADLINE;
    loop {
        match client.call_idempotent(&CmdLine::new("token")) {
            Ok(reply) => return reply.get_int("incarnation").unwrap_or(0) as u64,
            Err(e) => assert!(Instant::now() < deadline, "token1 never recovered: {e}"),
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Deterministic restart: the parked pool link is found stale, the cache
/// entry dies with the lease, and the fast path re-primes — the first
/// post-restart dial full-handshakes, later misses resume again.
#[test]
fn restart_discards_stale_links_and_reprimes_resumption() {
    let s = scenario(Duration::from_millis(500));
    let mut client = s.bound_client();

    client.call(&CmdLine::new("bump")).unwrap();
    drop(client); // parks the pooled link
    let target = Addr::new("app1", 4800);
    assert_eq!(s.pool.idle_count(&target), 1);

    // Prime resumption: empty the pool (first checkout reuses the parked
    // link), then force a dial — it must ride the harvested ticket.
    s.pool.checkout(&target).unwrap().discard();
    s.pool.checkout(&target).unwrap().discard();
    let resume_before = s.counter("link.resume_hits");
    assert!(resume_before >= 1, "fast path not primed");
    // Park one more live link so the restart has something to invalidate.
    drop(s.pool.checkout(&target).unwrap());
    assert_eq!(s.pool.idle_count(&target), 1);

    // Kill the host: the parked link must be found stale at checkout and
    // discarded, never handed out.
    s.net.kill_host(&"app1".into());
    assert!(
        s.pool.checkout(&target).is_err(),
        "checkout against a dead host must fail fast"
    );
    assert!(
        s.counter("pool.stale") >= 1,
        "the pre-restart parked link must be discarded as stale, not reused"
    );
    assert_eq!(s.pool.idle_count(&target), 0);

    // Revive and let the supervisor bring a new incarnation up.
    s.net.revive_host(&"app1".into());
    let mut client = s.bound_client();
    let incarnation = await_recovery(&mut client);
    assert!(incarnation >= 2, "expected a respawned incarnation");

    // Re-priming: the recovery dial fell back to a full handshake against
    // the fresh vault (the old ticket died with the server) and harvested
    // a new ticket; a pool-missing checkout now must resume again.
    let resumed = s.pool.checkout(&target).unwrap();
    assert!(resumed.resumed(), "fast path must re-prime after restart");
    assert!(
        s.counter("link.resume_hits") > resume_before,
        "resume counter must grow after re-priming"
    );
    s.teardown();
}

/// A reply lost after execution on an established pooled link: `call`
/// surfaces the error without re-sending (at-most-once), `call_idempotent`
/// retries to completion (at-least-once).  The execution counter lives
/// outside the daemon, so it survives the crash and counts exactly.
#[test]
fn at_most_once_is_preserved_on_pooled_links() {
    let s = scenario(Duration::from_millis(500));
    let mut client = s.bound_client();

    client.call(&CmdLine::new("bump")).unwrap();
    assert_eq!(s.exec.load(Ordering::SeqCst), 1);

    // Kill the host while `slowBump` stalls between execute and reply.
    let net = s.net.clone();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        net.kill_host(&"app1".into());
    });
    let err = client.call(&CmdLine::new("slowBump"));
    killer.join().unwrap();
    assert!(err.is_err(), "a lost reply must surface as an error");
    assert_eq!(
        s.exec.load(Ordering::SeqCst),
        2,
        "at-most-once: the stalled command executed exactly once, no retry"
    );

    // Same scenario through the idempotent path: the retry executes the
    // command again on the respawned incarnation.
    s.net.revive_host(&"app1".into());
    let mut client = s.bound_client();
    await_recovery(&mut client);
    let before = s.exec.load(Ordering::SeqCst);
    let net = s.net.clone();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        net.kill_host(&"app1".into());
        // Stay down past the handler's stall so the in-flight reply is
        // genuinely lost before the host returns.
        std::thread::sleep(Duration::from_millis(550));
        net.revive_host(&"app1".into());
    });
    let reply = client.call_idempotent(&CmdLine::new("slowBump"));
    killer.join().unwrap();
    assert!(reply.is_ok(), "idempotent retry must eventually succeed");
    assert!(
        s.exec.load(Ordering::SeqCst) >= before + 2,
        "at-least-once: the lost execution plus the successful retry"
    );
    s.teardown();
}

/// The full fast path under a seeded fault plan: crash windows restart the
/// app while a pooled, cache-backed client hammers it.  Replies must carry
/// monotonically non-decreasing incarnations (a decrease would be a stale
/// reply from a dead instance), and the stack must converge after the plan.
fn run_chaos_fastpath(seed: u64) {
    let s = scenario(Duration::from_millis(500));

    let mut fault_config = FaultPlanConfig::new(PLAN_LEN, vec![HostId::from("app1")]);
    fault_config.crash_windows = 3;
    fault_config.max_latency = Duration::from_millis(1);
    let plan = FaultPlan::generate(seed, &fault_config);
    assert_eq!(
        plan,
        FaultPlan::generate(seed, &fault_config),
        "fault schedule must be a pure function of the seed"
    );

    let runner = plan.spawn(&s.net);
    let mut client = s
        .bound_client()
        .with_retry_window(Duration::from_millis(300));
    let mut max_incarnation = 0u64;
    let mut ok_calls = 0u32;
    let start = Instant::now();
    while start.elapsed() < PLAN_LEN {
        if let Ok(reply) = client.call_idempotent(&CmdLine::new("token")) {
            let inc = reply.get_int("incarnation").unwrap_or(0) as u64;
            assert!(
                inc >= max_incarnation,
                "seed {seed}: stale reply — incarnation {inc} after {max_incarnation}"
            );
            max_incarnation = inc;
            ok_calls += 1;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    runner.join(); // network fully healed

    // Convergence: the supervised app answers again within the deadline.
    let mut converged = s.bound_client();
    let final_inc = await_recovery(&mut converged);
    assert!(
        final_inc >= max_incarnation,
        "seed {seed}: post-heal incarnation went backwards"
    );
    assert!(
        ok_calls > 0,
        "seed {seed}: no call ever succeeded mid-chaos — harness misconfigured"
    );

    // Steady state: with a live link and warm cache, repeated calls stop
    // resolving through the ASD entirely.
    let resolutions_before = converged.resolutions();
    for _ in 0..5 {
        converged.call_idempotent(&CmdLine::new("token")).unwrap();
    }
    assert!(
        converged.resolutions() <= resolutions_before + 1,
        "seed {seed}: steady-state calls must not re-resolve per call"
    );

    // The pool really carried traffic, and any post-restart misses that
    // found a live vault resumed rather than re-handshaking.
    assert!(s.counter("pool.checkouts") > 0);
    assert!(
        s.counter("link.full_handshakes") >= 1,
        "seed {seed}: at least the initial dial full-handshakes"
    );
    let restarts = s.incarnations.load(Ordering::SeqCst).saturating_sub(1);
    eprintln!(
        "chaos_fastpath seed {seed:#x}: {ok_calls} ok calls, {restarts} restarts, \
         checkouts={} reused={} stale={} resumes={} full={}",
        s.counter("pool.checkouts"),
        s.counter("pool.reused"),
        s.counter("pool.stale"),
        s.counter("link.resume_hits"),
        s.counter("link.full_handshakes"),
    );
    s.teardown();
}

#[test]
fn chaos_fastpath_seed_a() {
    run_chaos_fastpath(0xACE5);
}

#[test]
fn chaos_fastpath_seed_b() {
    run_chaos_fastpath(11);
}

/// Seed expansion hook for the CI soak job, mirroring `chaos_soak`:
/// `CHAOS_SEEDS="0xACE3,42,7"` runs each listed seed.
#[test]
fn chaos_fastpath_env_seeds() {
    let Ok(spec) = std::env::var("CHAOS_SEEDS") else {
        return;
    };
    for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let seed = match token.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => token.parse(),
        }
        .unwrap_or_else(|_| panic!("CHAOS_SEEDS: unparsable seed `{token}`"));
        eprintln!("chaos_fastpath: running env seed {seed:#x}");
        run_chaos_fastpath(seed);
    }
}
