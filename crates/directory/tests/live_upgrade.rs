//! Live upgrade: supervisor-driven rolling restarts with zero dropped
//! sessions.
//!
//! Pinned properties:
//!
//! 1. **State, tickets, and listeners survive the swap** — behavior state
//!    rides the sealed snapshot, resumption tickets stay valid (the vault
//!    and identity carry over), and notification registrations keep firing
//!    from the replacement incarnation.
//! 2. **`E_UPGRADING` is retryable and evicts the fast path** — a client
//!    that hits the quiesce gate discards its pooled link, evicts parked
//!    idle links, drops the cached resolution, and retries to success;
//!    the verb executes exactly once.
//! 3. **Incarnation fencing wins the lease race** — the replacement
//!    re-registers before the old lease expires, and any straggler
//!    `register`/`renewLease` from the superseded generation is refused
//!    with `E_BADSTATE` without clobbering the live registration.
//! 4. **A refused restore aborts the swap** — the old incarnation keeps
//!    serving with its gate re-opened.
//! 5. **So does a failed quiesce** — a quiesce whose reply was lost may
//!    still have shut the gate, and the driver re-opens it.

use ace_core::client::DEFAULT_CALL_TIMEOUT;
use ace_core::prelude::*;
use ace_core::protocol::{open_snapshot, seal_snapshot};
use ace_core::supervise::live_upgrade;
use ace_core::UpgradeError;
use ace_security::keys::KeyPair;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A counter whose value must survive upgrades via the snapshot protocol.
/// Executions are also counted outside the daemon so exactly-once claims
/// survive the swap.
struct Counter {
    count: i64,
    exec: Arc<AtomicU64>,
}

impl Counter {
    fn fresh(exec: &Arc<AtomicU64>) -> Box<Counter> {
        Box::new(Counter {
            count: 0,
            exec: Arc::clone(exec),
        })
    }
}

impl ServiceBehavior for Counter {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(CmdSpec::new("bump", "increment the counter"))
            .with(CmdSpec::new("value", "read the counter"))
    }

    fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "bump" => {
                self.count += 1;
                self.exec.fetch_add(1, Ordering::SeqCst);
                let count = self.count;
                Reply::ok_with(|c| c.arg("count", count))
            }
            "value" => {
                let count = self.count;
                Reply::ok_with(|c| c.arg("count", count))
            }
            _ => Reply::err(ErrorCode::Internal, "unrouted"),
        }
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(seal_snapshot(
            "counter",
            CmdLine::new("counterState").arg("count", self.count),
        ))
    }

    fn restore_state(&mut self, snapshot: &[u8]) -> Result<(), String> {
        let state = open_snapshot("counter", snapshot)?;
        self.count = state
            .get_int("count")
            .ok_or_else(|| "counter snapshot: missing count".to_string())?;
        Ok(())
    }
}

/// A replacement that expects a different snapshot kind — every restore is
/// refused, which must abort the swap.
struct Refusenik;
impl ServiceBehavior for Refusenik {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(CmdSpec::new("bump", "increment"))
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, _cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        Reply::ok()
    }
    fn restore_state(&mut self, snapshot: &[u8]) -> Result<(), String> {
        open_snapshot("somethingElse", snapshot).map(|_| ())
    }
}

/// A daemon whose snapshot outlasts the driver's wait for the quiesce
/// reply.
struct SlowSnapshot;
impl ServiceBehavior for SlowSnapshot {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(CmdSpec::new("bump", "increment"))
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, _cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        Reply::ok()
    }
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        std::thread::sleep(DEFAULT_CALL_TIMEOUT + Duration::from_secs(1));
        None
    }
}

/// Records notifications it receives.
#[derive(Default)]
struct Recorder {
    heard: Arc<Mutex<Vec<String>>>,
}

impl ServiceBehavior for Recorder {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(
            CmdSpec::new("onBump", "the counter bumped")
                .optional("service", ArgType::Str, "")
                .optional("cmd", ArgType::Str, ""),
        )
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        self.heard
            .lock()
            .unwrap()
            .push(cmd.get_text("cmd").unwrap_or("?").to_string());
        Reply::ok()
    }
}

struct Rig {
    net: SimNet,
    fw: ace_directory::Framework,
    me: KeyPair,
    exec: Arc<AtomicU64>,
}

fn rig(lease: Duration) -> Rig {
    let net = SimNet::new();
    for h in ["ctrl", "app"] {
        net.add_host(h);
    }
    let fw = ace_directory::bootstrap(&net, "ctrl", lease).unwrap();
    Rig {
        net,
        fw,
        me: KeyPair::generate(&mut rand::thread_rng()),
        exec: Arc::new(AtomicU64::new(0)),
    }
}

impl Rig {
    fn spawn_counter(&self) -> DaemonHandle {
        Daemon::spawn(
            &self.net,
            self.fw
                .service_config("counter1", "Service.App.Counter", "office", "app", 4700)
                .with_lease_renew(Duration::from_millis(100)),
            Counter::fresh(&self.exec),
        )
        .unwrap()
    }

    fn client_to(&self, addr: &Addr) -> ServiceClient {
        ServiceClient::connect(&self.net, &"ctrl".into(), addr.clone(), &self.me).unwrap()
    }
}

fn ping_incarnation(client: &mut ServiceClient) -> u64 {
    let reply = client.call(&CmdLine::new("ping")).unwrap();
    reply.get_int("incarnation").unwrap_or(-1) as u64
}

/// Tentpole end-to-end: counter state, resumption tickets, and the
/// notification registry all survive the hot swap, and the address keeps
/// serving under the next incarnation.
#[test]
fn upgrade_carries_state_tickets_and_listeners() {
    let r = rig(Duration::from_secs(5));
    let old = r.spawn_counter();
    let target = old.addr().clone();

    // Seed state and a notification listener.
    let recorder = Recorder::default();
    let heard = Arc::clone(&recorder.heard);
    let rec = Daemon::spawn(
        &r.net,
        r.fw.service_config("recorder", "Service.Test", "office", "ctrl", 4710),
        Box::new(recorder),
    )
    .unwrap();
    let mut client = r.client_to(&target);
    client.call_ok(&CmdLine::new("bump")).unwrap();
    client.call_ok(&CmdLine::new("bump")).unwrap();
    client
        .call_ok(
            &CmdLine::new("addNotification")
                .arg("cmd", "bump")
                .arg("service", "recorder")
                .arg("host", "ctrl")
                .arg("port", 4710)
                .arg("notifyCmd", "onBump"),
        )
        .unwrap();
    assert_eq!(ping_incarnation(&mut client), 0);

    // Prime the resumption fast path: a pooled full handshake harvests a
    // ticket for this target.
    let metrics = MetricsRegistry::new();
    let pool = Arc::new(LinkPool::with_metrics(&r.net, "ctrl", r.me, &metrics));
    pool.checkout(&target).unwrap().discard();

    // Hot swap.
    let (fresh, stats) = live_upgrade(
        &r.net,
        &"ctrl".into(),
        &r.me,
        &old,
        old.config().clone(),
        Counter::fresh(&r.exec),
    )
    .unwrap();
    assert_eq!(fresh.incarnation(), 1);
    assert!(stats.pause >= stats.quiesce);

    // State survived; the replacement answers on the same address.
    let mut client = r.client_to(&target);
    assert_eq!(ping_incarnation(&mut client), 1);
    let reply = client.call(&CmdLine::new("value")).unwrap();
    assert_eq!(reply.get_int("count"), Some(2), "count lost in the swap");

    // Sessions resume: the old parked link is stale, but the dial rides
    // the pre-upgrade ticket against the carried-over vault.
    let resumed = pool.checkout(&target).unwrap();
    assert!(
        resumed.resumed(),
        "post-upgrade dial must resume, not re-handshake"
    );
    assert!(metrics.counter("link.resume_hits").get() >= 1);

    // Listeners carried: a post-upgrade bump still notifies the recorder.
    client.call_ok(&CmdLine::new("bump")).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !heard.lock().unwrap().iter().any(|c| c == "bump") {
        assert!(
            Instant::now() < deadline,
            "notification registry lost in the swap"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    drop(resumed);
    fresh.shutdown();
    rec.shutdown();
    r.fw.shutdown();
}

/// Satellite 2: a quiesced daemon bounces a verb with `E_UPGRADING`; the
/// failover client evicts its pooled link, the parked idles, and the
/// cached resolution, then retries to success once the gate re-opens.
/// The verb executes exactly once.
#[test]
fn upgrading_rejection_evicts_fast_path_and_retries() {
    let r = rig(Duration::from_secs(5));
    let daemon = r.spawn_counter();
    let target = daemon.addr().clone();

    let metrics = MetricsRegistry::new();
    let pool = Arc::new(LinkPool::with_metrics(&r.net, "ctrl", r.me, &metrics));
    let cache = Arc::new(ResolutionCache::with_metrics(&metrics));
    let mut failover = FailoverClient::bind(
        r.net.clone(),
        "ctrl",
        r.me,
        r.fw.asd_addr.clone(),
        "counter1",
    )
    .with_retry_window(Duration::from_secs(5))
    .with_pool(Arc::clone(&pool))
    .with_resolution_cache(Arc::clone(&cache));

    failover.call(&CmdLine::new("bump")).unwrap();
    assert_eq!(r.exec.load(Ordering::SeqCst), 1);
    // Park one extra idle link so the eviction has something to clear.
    drop(pool.checkout(&target).unwrap());
    assert_eq!(pool.idle_count(&target), 1);

    // Close the gate, and re-open it shortly from another thread.
    let mut admin = r.client_to(&target);
    let status = admin
        .call(&CmdLine::new("aceUpgrade").arg("phase", "quiesce"))
        .unwrap();
    assert!(status.get_int("incarnation").is_some());
    let net = r.net.clone();
    let me = r.me;
    let addr = target.clone();
    let opener = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let mut c = ServiceClient::connect(&net, &"ctrl".into(), addr, &me).unwrap();
        c.call_ok(&CmdLine::new("aceUpgrade").arg("phase", "abort"))
            .unwrap();
    });

    // The held-over link and the parked idle both point at the quiescing
    // instance; the call must ride out the gate and execute exactly once.
    let reply = failover.call(&CmdLine::new("bump")).unwrap();
    opener.join().unwrap();
    assert_eq!(reply.get_int("count"), Some(2));
    assert_eq!(
        r.exec.load(Ordering::SeqCst),
        2,
        "E_UPGRADING retries must not double-execute"
    );
    assert!(
        failover.resolutions() >= 2,
        "the cached resolution must be dropped on E_UPGRADING"
    );

    daemon.shutdown();
    r.fw.shutdown();
}

/// A client that never met the quiesce gate — it was between calls for the
/// whole swap — still holds a link to the retired instance.  Its next call
/// must find that out *before* sending, let the link go, and execute
/// exactly once on the replacement; a send into the closed link would
/// surface as an ambiguous "may have executed" failure.
#[test]
fn held_over_link_across_a_swap_is_not_a_dropped_call() {
    let r = rig(Duration::from_secs(5));
    let old = r.spawn_counter();
    let pool = Arc::new(LinkPool::new(&r.net, "ctrl", r.me));
    let mut failover = FailoverClient::bind(
        r.net.clone(),
        "ctrl",
        r.me,
        r.fw.asd_addr.clone(),
        "counter1",
    )
    .with_retry_window(Duration::from_secs(5))
    .with_pool(pool)
    .with_resolution_cache(Arc::new(ResolutionCache::new()));
    failover.call(&CmdLine::new("bump")).unwrap();

    let (fresh, _) = live_upgrade(
        &r.net,
        &"ctrl".into(),
        &r.me,
        &old,
        old.config().clone(),
        Counter::fresh(&r.exec),
    )
    .unwrap();

    let reply = failover.call(&CmdLine::new("bump")).unwrap();
    assert_eq!(reply.get_int("count"), Some(2), "state rode the snapshot");
    assert_eq!(r.exec.load(Ordering::SeqCst), 2, "executed exactly once");

    fresh.shutdown();
    r.fw.shutdown();
}

/// Satellite 1 (lease-race regression): the replacement registers under
/// the bumped incarnation before the old lease lapses, and stragglers of
/// the superseded generation are fenced out with `E_BADSTATE` — they can
/// neither renew nor re-register over the live instance.
#[test]
fn stale_incarnation_stragglers_are_fenced_out() {
    // Short lease: the upgrade must beat it.
    let r = rig(Duration::from_millis(600));
    let old = r.spawn_counter();
    let target = old.addr().clone();

    let (fresh, _) = live_upgrade(
        &r.net,
        &"ctrl".into(),
        &r.me,
        &old,
        old.config().clone(),
        Counter::fresh(&r.exec),
    )
    .unwrap();

    let mut asd = r.client_to(&r.fw.asd_addr);
    let fenced = |err: ClientError| match err {
        ClientError::Service { code, .. } => code == ErrorCode::BadState,
        _ => false,
    };

    // A straggler renewal from the retired generation (incarnation 0).
    let stale_renew = asd.call(
        &CmdLine::new("renewLease")
            .arg("name", "counter1")
            .arg("incarnation", 0),
    );
    assert!(
        stale_renew.is_err_and(fenced),
        "stale renewal must be refused with BadState"
    );
    // A straggler re-registration pointing somewhere else entirely.
    let stale_register = asd.call(
        &CmdLine::new("register")
            .arg("name", "counter1")
            .arg("host", "ctrl")
            .arg("port", 9999)
            .arg("room", "office")
            .arg("class", "Service.App.Counter")
            .arg("incarnation", 0),
    );
    assert!(
        stale_register.is_err_and(fenced),
        "stale re-registration must be refused with BadState"
    );

    // The live registration is untouched and outlives the *old* lease:
    // the replacement's renewals (at incarnation 1) keep it alive.
    std::thread::sleep(Duration::from_millis(900));
    let mut finder =
        ace_directory::AsdClient::connect(&r.net, &"ctrl".into(), r.fw.asd_addr.clone(), &r.me)
            .unwrap();
    let found = finder.find("counter1").unwrap();
    assert_eq!(
        found.map(|e| e.addr.port),
        Some(target.port),
        "replacement registration clobbered or expired"
    );

    fresh.shutdown();
    r.fw.shutdown();
}

/// A lease the ASD restored from its snapshot lapses like any other once
/// nothing renews it: the replacement gives every restored lease its
/// deadline when it starts.  (Fails if the restored leases get none.)
#[test]
fn a_restored_lease_still_lapses() {
    let lease = Duration::from_millis(300);
    let r = rig(lease);
    let connect = || {
        ace_directory::AsdClient::connect(&r.net, &"ctrl".into(), r.fw.asd_addr.clone(), &r.me)
            .unwrap()
    };
    let ghost = ace_core::protocol::ServiceEntry {
        name: "ghost".into(),
        addr: Addr::new("app", 4799),
        class: "Service.Test".into(),
        room: "office".into(),
    };
    let mut registrar =
        ServiceClient::connect(&r.net, &"ctrl".into(), r.fw.asd_addr.clone(), &r.me).unwrap();
    let mut ask = |_: &Addr, cmd: &CmdLine| registrar.call(cmd);
    ace_core::directory::register(&mut ask, &r.fw.directory(), &ghost, 0).unwrap();

    let (asd, _) = live_upgrade(
        &r.net,
        &"ctrl".into(),
        &r.me,
        &r.fw.asd,
        r.fw.asd.config().clone(),
        Box::new(ace_directory::Asd::new(lease)),
    )
    .unwrap();
    let mut finder = connect();
    assert!(
        finder.find("ghost").unwrap().is_some(),
        "the registration rides the snapshot"
    );
    let clock = r.net.clock();
    let give_up = clock.now() + Duration::from_secs(5);
    while finder.find("ghost").unwrap().is_some() {
        assert!(clock.now() < give_up, "a restored lease never lapsed");
        clock.sleep(Duration::from_millis(20));
    }

    asd.shutdown();
    r.fw.shutdown();
}

/// A fenced registration is an answer, not a shed: the spawn of a stale
/// incarnation fails on the directory's first `E_BADSTATE`, having sent one
/// `register`.  Fails if the start-up loop retries every error (four
/// `register`s, ~140 ms of backoff).
#[test]
fn a_fenced_registration_fails_the_spawn_on_its_first_answer() {
    let r = rig(Duration::from_secs(5));
    let spawn = |port, incarnation| {
        Daemon::spawn(
            &r.net,
            r.fw.service_config("x", "Service.App.Counter", "office", "app", port)
                .with_incarnation(incarnation),
            Counter::fresh(&r.exec),
        )
    };
    let live = spawn(4700, 2).unwrap();
    let registers = r.fw.asd.metrics().histogram("cmd.register");
    let before = registers.count();

    match spawn(4701, 1) {
        Err(ace_core::SpawnError::Register { step: "asd", error }) => {
            assert_eq!(error.code(), Some(ErrorCode::BadState), "{error}")
        }
        other => panic!("expected a fenced registration, got {other:?}"),
    }
    assert_eq!(registers.count() - before, 1, "one `register` sent");

    live.shutdown();
    r.fw.shutdown();
}

/// A refused restore aborts the swap before anything is torn down: the old
/// incarnation keeps serving with its quiesce gate re-opened.
#[test]
fn refused_restore_aborts_and_old_keeps_serving() {
    let r = rig(Duration::from_secs(5));
    let old = r.spawn_counter();
    let target = old.addr().clone();
    let mut client = r.client_to(&target);
    client.call_ok(&CmdLine::new("bump")).unwrap();

    let err = live_upgrade(
        &r.net,
        &"ctrl".into(),
        &r.me,
        &old,
        old.config().clone(),
        Box::new(Refusenik),
    )
    .unwrap_err();
    assert!(
        matches!(err, UpgradeError::Restore(_)),
        "expected a restore refusal, got {err}"
    );

    // Old incarnation still serving, gate open, state intact.
    assert_eq!(ping_incarnation(&mut client), 0);
    let reply = client.call(&CmdLine::new("value")).unwrap();
    assert_eq!(reply.get_int("count"), Some(1));
    client.call_ok(&CmdLine::new("bump")).unwrap();

    old.shutdown();
    r.fw.shutdown();
}

/// A quiesce that times out during a long snapshot has shut the gate and
/// lost only its reply.  `live_upgrade` fails with `Quiesce`, and the old
/// daemon then answers a non-probe verb `ok`: the driver re-opened the gate.
/// (Fails without the abort after a failed quiesce: the verb is answered
/// `E_UPGRADING`, and so is every later one.)
#[test]
fn a_failed_quiesce_reopens_the_gate() {
    let r = rig(Duration::from_secs(30));
    let old = Daemon::spawn(
        &r.net,
        r.fw.service_config("slow", "Service.App.Slow", "office", "app", 4730),
        Box::new(SlowSnapshot),
    )
    .unwrap();

    let err = live_upgrade(
        &r.net,
        &"ctrl".into(),
        &r.me,
        &old,
        old.config().clone(),
        Box::new(SlowSnapshot),
    )
    .unwrap_err();
    assert!(
        matches!(err, UpgradeError::Quiesce(_)),
        "expected a failed quiesce, got {err}"
    );

    let mut client = r.client_to(old.addr());
    let answer = client.call_ok(&CmdLine::new("bump"));
    assert!(answer.is_ok(), "the gate stayed shut: {answer:?}");

    old.shutdown();
    r.fw.shutdown();
}
