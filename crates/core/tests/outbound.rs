//! The daemon's outbound path: everything a daemon sends — start-up
//! registrations, lease renewals, `ctx.call`, `ctx.lookup`, `ctx.log`,
//! notifications — leaves through its one [`LinkPool`].
//!
//! Raw daemons only (this crate cannot see the directory crate): the ASD,
//! the Net Logger and every peer are stand-in behaviors that report each
//! verb they serve on a channel, so the test waits for *events* — the third
//! renewal, the fourth log record — never for time to pass.  What is
//! asserted is read from the peers' own registries (`link.accepted`,
//! `link.resume_hits`) and execution counters.
//!
//! Notifications leave as casts: nothing comes back for one that ran, so
//! the tests below read what the listener did (its `served` channel, its
//! counters) and what the sender counted (`notify.*`), and hold a listener
//! still with a latch (`park`), never a sleep.

use ace_core::client::DEFAULT_CALL_TIMEOUT;
use ace_core::prelude::*;
use ace_core::protocol;
use ace_core::{RespawnFn, SpawnError};
use ace_security::keys::KeyPair;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(10);

/// A stand-in peer.  Reports every command it serves on `served`, as its
/// wire text without the `deadline=` the sender stamped (see [`bare`]);
/// `work`, `onTouch` and `renewLease` first answer with the error codes left
/// in `script`,
/// one per call and without counting an execution, then execute — leaving
/// the `seq` they carried, if any, in `order`.  `park` holds the handler
/// (and with it the whole daemon) until the test lets go of `release`;
/// `heal` heals every partition of the net.
struct Peer {
    semantics: Semantics,
    served: Sender<String>,
    script: VecDeque<ErrorCode>,
    executions: Arc<AtomicU64>,
    order: Arc<Mutex<Vec<i64>>>,
    release: Option<Receiver<()>>,
}

impl ServiceBehavior for Peer {
    fn semantics(&self) -> Semantics {
        self.semantics
            .clone()
            .with(CmdSpec::new("work", "count one execution"))
            .with(CmdSpec::new("park", "hold the handler until released"))
            .with(CmdSpec::new("heal", "heal every partition"))
            .with(notification("onTouch"))
            .with(notification("onFlush"))
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        let served = |peer: &Peer| {
            let _ = peer.served.send(bare(cmd));
        };
        let reply = match cmd.name() {
            "work" | "onTouch" | "renewLease" => match self.script.pop_front() {
                Some(code) => Reply::err(code, "scripted"),
                None => {
                    self.executions.fetch_add(1, Ordering::SeqCst);
                    self.order.lock().unwrap().extend(cmd.get_int("seq"));
                    Reply::ok()
                }
            },
            "park" => {
                served(self); // parked is what the test waits to hear
                if let Some(release) = &self.release {
                    let _ = release.recv_timeout(WAIT);
                }
                return Reply::ok();
            }
            "heal" => {
                ctx.net().heal_all();
                Reply::ok()
            }
            "lookup" => Reply::ok_with(|c| c.arg("services", protocol::entries_to_value(&[]))),
            _ => Reply::ok(),
        };
        // Reported once its effects are in place: whoever hears of the
        // verb may read them.
        served(self);
        reply
    }
}

/// `cmd`'s wire text without its `deadline=`, which counts down with the
/// time the sender has left.
fn bare(cmd: &CmdLine) -> String {
    let mut text = CmdLine::new(cmd.name());
    for (name, value) in cmd.args().iter().filter(|(name, _)| name != "deadline") {
        text.push_arg(name.as_str(), value.clone());
    }
    text.to_wire()
}

fn notification(name: &str) -> CmdSpec {
    CmdSpec::new(name, "a notification")
        .optional("service", ArgType::Str, "origin service")
        .optional("cmd", ArgType::Str, "origin command")
        .optional("seq", ArgType::Int, "which one")
}

struct PeerHandle {
    daemon: DaemonHandle,
    served: Receiver<String>,
    executions: Arc<AtomicU64>,
    order: Arc<Mutex<Vec<i64>>>,
}

impl PeerHandle {
    /// Block until this peer has served `n` more `verb`s.
    fn await_served(&self, verb: &str, n: usize) {
        let mut seen = 0;
        while seen < n {
            let text = self
                .served
                .recv_timeout(WAIT)
                .unwrap_or_else(|_| panic!("peer served {seen} of {n} `{verb}`"));
            if text.split([' ', ';']).next() == Some(verb) {
                seen += 1;
            }
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.daemon.metrics().counter(name).get()
    }

    fn executions(&self) -> u64 {
        self.executions.load(Ordering::SeqCst)
    }
}

fn peer_behavior(
    semantics: Semantics,
    script: &[ErrorCode],
) -> (Box<Peer>, Receiver<String>, Arc<AtomicU64>) {
    let (served_tx, served) = channel();
    let executions = Arc::new(AtomicU64::new(0));
    let behavior = Box::new(Peer {
        semantics,
        served: served_tx,
        script: script.iter().copied().collect(),
        executions: Arc::clone(&executions),
        order: Arc::default(),
        release: None,
    });
    (behavior, served, executions)
}

fn spawn_peer(
    net: &SimNet,
    name: &str,
    port: u16,
    semantics: Semantics,
    script: &[ErrorCode],
) -> PeerHandle {
    spawn_peer_released_by(net, name, port, semantics, script, None)
}

fn spawn_peer_released_by(
    net: &SimNet,
    name: &str,
    port: u16,
    semantics: Semantics,
    script: &[ErrorCode],
    release: Option<Receiver<()>>,
) -> PeerHandle {
    let (mut behavior, served, executions) = peer_behavior(semantics, script);
    behavior.release = release;
    let order = Arc::clone(&behavior.order);
    let daemon = Daemon::spawn(
        net,
        DaemonConfig::new(name, "Service.Peer", "lab", "srv", port),
        behavior,
    )
    .unwrap();
    PeerHandle {
        daemon,
        served,
        executions,
        order,
    }
}

/// Block until `daemon`'s counter `name` has reached `at_least`.
fn await_counter(daemon: &DaemonHandle, name: &str, at_least: u64) {
    let counter = daemon.metrics().counter(name);
    let give_up = Instant::now() + WAIT;
    while counter.get() < at_least {
        assert!(
            Instant::now() < give_up,
            "`{name}` stayed at {} of {at_least}",
            counter.get()
        );
        std::thread::yield_now();
    }
}

/// The daemon under test: each verb makes one kind of outbound send.
struct Relay {
    peer: Addr,
}

impl ServiceBehavior for Relay {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(
                CmdSpec::new("relay", "ctx.call `work` on the peer").optional(
                    "verb",
                    ArgType::Word,
                    "call this verb instead",
                ),
            )
            .with(CmdSpec::new(
                "relayLate",
                "the same, once this command's deadline has lapsed",
            ))
            .with(CmdSpec::new("find", "ctx.lookup"))
            .with(CmdSpec::new("findClass", "ctx.lookup by class"))
            .with(CmdSpec::new("say", "ctx.log"))
            .with(
                CmdSpec::new("touch", "an event others subscribe to").optional(
                    "seq",
                    ArgType::Int,
                    "which one",
                ),
            )
            .with(CmdSpec::new("flush", "another, sent last"))
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "relay" | "relayLate" => {
                while cmd.name() == "relayLate" && !ctx.deadline_expired() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let verb = cmd.get_text("verb").unwrap_or("work");
                match ctx.call(&self.peer.clone(), &CmdLine::new(verb)) {
                    Ok(_) => Reply::ok(),
                    Err(ClientError::Service { code, msg }) => Reply::err(code, msg),
                    Err(e) => Reply::err(ErrorCode::Unavailable, e.to_string()),
                }
            }
            "find" | "findClass" => {
                let found = match cmd.name() {
                    "find" => ctx.lookup(Some("nobody"), None, None),
                    _ => ctx.lookup(None, Some("Service.Peer"), None),
                };
                match found {
                    Ok(found) => Reply::ok_with(|c| c.arg("found", found.len() as i64)),
                    Err(e) => Reply::err(ErrorCode::Unavailable, e.to_string()),
                }
            }
            "say" => {
                ctx.log("info", "said");
                Reply::ok()
            }
            _ => Reply::ok(),
        }
    }
}

fn net() -> SimNet {
    let net = SimNet::new();
    net.add_host("srv");
    net.add_host("cli");
    net
}

fn spawn_relay(net: &SimNet, config: DaemonConfig, peer: &Addr) -> DaemonHandle {
    Daemon::spawn(net, config, Box::new(Relay { peer: peer.clone() })).unwrap()
}

fn relay_config() -> DaemonConfig {
    DaemonConfig::new("relay", "Service.Relay", "lab", "srv", 7200)
}

fn client(net: &SimNet, daemon: &DaemonHandle) -> ServiceClient {
    let me = KeyPair::generate(&mut rand::thread_rng());
    ServiceClient::connect(net, &"cli".into(), daemon.addr().clone(), &me).unwrap()
}

#[test]
fn renewals_lookups_and_logs_share_one_link_per_framework_service() {
    let net = net();
    let asd = spawn_peer(&net, "asd", 7201, protocol::asd_semantics(), &[]);
    let logger = spawn_peer(&net, "logger", 7202, protocol::logger_semantics(), &[]);
    let relay = spawn_relay(
        &net,
        relay_config()
            .with_directory(one_by_one(&asd))
            .with_logger(logger.daemon.addr().clone())
            .with_lease_renew(Duration::from_millis(20)),
        asd.daemon.addr(),
    );
    let mut to_relay = client(&net, &relay);

    asd.await_served("register", 1);
    asd.await_served("renewLease", 3);
    for _ in 0..3 {
        let reply = to_relay.call(&CmdLine::new("find")).unwrap();
        assert_eq!(reply.get_int("found"), Some(0));
        to_relay.call_ok(&CmdLine::new("say")).unwrap();
    }
    logger.await_served("log", 1 + 3); // "started" + three records

    assert_eq!(
        asd.counter("link.accepted"),
        1,
        "registration, renewals and lookups ride one session"
    );
    assert_eq!(
        logger.counter("link.accepted"),
        1,
        "the start-up record and the notifier ride one session"
    );
}

/// The stand-in ASD as a directory: one group of one replica.
fn one_by_one(asd: &PeerHandle) -> GroupMap {
    GroupMap::new(0, vec![vec![asd.daemon.addr().clone()]])
}

/// Invariant: a daemon on a 1×1 map sends its directory the frames it sent
/// when it was configured with the ASD's address — the start-up `register`;
/// a `renewLease`; the `register` that repairs a lease the ASD lost; a
/// `ctx.lookup` by name and by class; a Supervisor's probe (after that
/// daemon's own `register`); each one's goodbye `removeService` — byte for
/// byte but for `deadline=`.  The goldens were taken on the commit before
/// the directory's rules moved into `ace_core::directory`.
#[test]
fn a_daemon_on_a_one_by_one_map_sends_its_directory_the_parents_frames() {
    let net = net();
    let asd = spawn_peer(
        &net,
        "asd",
        7201,
        protocol::asd_semantics(),
        &[ErrorCode::NotFound],
    );
    let relay = spawn_relay(
        &net,
        relay_config()
            .with_directory(one_by_one(&asd))
            .with_lease_renew(Duration::from_millis(20)),
        asd.daemon.addr(),
    );
    let mut to_relay = client(&net, &relay);
    // The relay renews every 20 ms throughout: each renewal is heard once.
    let mut frames: Vec<String> = Vec::new();
    let mut hear = |n: usize| {
        let mut heard = 0;
        while heard < n {
            let frame = asd
                .served
                .recv_timeout(WAIT)
                .expect("the ASD heard nothing");
            if !(frame.starts_with("renewLease") && frames.contains(&frame)) {
                frames.push(frame);
                heard += 1;
            }
        }
    };
    hear(3);
    for verb in ["find", "findClass"] {
        to_relay.call(&CmdLine::new(verb)).unwrap();
    }
    hear(2);
    let respawn: RespawnFn = Box::new(|_| Err(SpawnError::Restore("not in this test".into())));
    let supervisor = Daemon::spawn(
        &net,
        DaemonConfig::new("supervisor", "Service.Supervisor", "lab", "srv", 7203)
            .with_directory(one_by_one(&asd)),
        Box::new(
            Supervisor::new(
                vec![SupervisedSpec::new("relay", respawn)],
                RestartPolicy::default(),
            )
            .with_probe_interval(Duration::from_secs(3600)),
        ),
    )
    .unwrap();
    hear(2);
    supervisor.shutdown();
    relay.shutdown();
    hear(2);
    assert_eq!(frames, GOLDEN_ONE_BY_ONE);
}

const GOLDEN_ONE_BY_ONE: [&str; 9] = [
    r#"register name=relay host=srv port=7200 room=lab class="Service.Relay" incarnation=0;"#,
    "renewLease name=relay incarnation=0;",
    r#"register name=relay host=srv port=7200 room=lab class="Service.Relay" incarnation=0;"#,
    "lookup name=nobody;",
    r#"lookup class="Service.Peer";"#,
    r#"register name=supervisor host=srv port=7203 room=lab class="Service.Supervisor" incarnation=0;"#,
    "lookup name=relay;",
    "removeService name=supervisor;",
    "removeService name=relay;",
];

#[test]
fn a_peer_swapped_between_two_calls_is_found_before_the_send_and_resumed() {
    let net = net();
    let (behavior, _served, executions) = peer_behavior(Semantics::new(), &[]);
    let config = DaemonConfig::new("peer", "Service.Peer", "lab", "srv", 7201);
    let old = Daemon::spawn(&net, config.clone(), behavior).unwrap();
    let relay = spawn_relay(&net, relay_config(), old.addr());
    let mut to_relay = client(&net, &relay);

    to_relay.call_ok(&CmdLine::new("relay")).unwrap();

    let driver = KeyPair::generate(&mut rand::thread_rng());
    let replacement = Box::new(Peer {
        semantics: Semantics::new(),
        served: channel().0,
        script: VecDeque::new(),
        executions: Arc::clone(&executions),
        order: Arc::default(),
        release: None,
    });
    let (new, _stats) =
        ace_core::live_upgrade(&net, &"cli".into(), &driver, &old, config, replacement).unwrap();

    to_relay
        .call_ok(&CmdLine::new("relay"))
        .expect("the call after the swap succeeds");
    assert_eq!(
        executions.load(Ordering::SeqCst),
        2,
        "one execution per call"
    );
    assert!(
        new.metrics().counter("link.resume_hits").get() >= 1,
        "the redial rode the ticket of the first dial"
    );
}

#[test]
fn a_restarted_listener_receives_the_next_notification_once() {
    let net = net();
    let relay = spawn_relay(&net, relay_config(), &Addr::new("srv", 1));
    let mut to_relay = client(&net, &relay);
    let listener = spawn_peer(&net, "listener", 7201, Semantics::new(), &[]);
    for (event, notify_cmd) in [("touch", "onTouch"), ("flush", "onFlush")] {
        let to = listener.daemon.addr();
        to_relay
            .call_ok(&protocol::subscribe_cmd(event, "listener", to, notify_cmd))
            .unwrap();
    }
    to_relay.call_ok(&CmdLine::new("touch")).unwrap();
    listener.await_served("onTouch", 1);

    listener.daemon.shutdown();
    drop(listener);
    let listener = spawn_peer(&net, "listener", 7201, Semantics::new(), &[]);
    to_relay.call_ok(&CmdLine::new("touch")).unwrap();
    // The notifier delivers in order: once `onFlush` has arrived, every
    // copy of the `onTouch` before it has.
    to_relay.call_ok(&CmdLine::new("flush")).unwrap();
    listener.await_served("onFlush", 1);
    assert_eq!(
        listener.daemon.metrics().histogram("cmd.onTouch").count(),
        1,
        "the notification after the restart arrived exactly once"
    );
    assert_eq!(relay.metrics().counter("notify.drops").get(), 0);
}

// -- one call loop: one table, four callers ------------------------------------

/// The callers that send through the pool's one call loop, each with its
/// own policy (DESIGN.md § "Retry policy").
#[derive(Clone, Copy, Debug, PartialEq)]
enum Caller {
    /// A daemon's `ctx.call` — the relay's `relay`: 5 ms × 2, at least once.
    Ctx,
    /// `FailoverClient::call`: inside its window, at most once.
    Call,
    /// `FailoverClient::call_idempotent`: inside its window, at least once.
    Idempotent,
    /// `LinkPool::call`: one immediate second attempt, at least once.
    Pool,
}

impl Caller {
    /// The host the caller sends from.
    fn host(self) -> HostId {
        match self {
            Caller::Ctx => "srv".into(),
            _ => "cli".into(),
        }
    }
}

/// One row's world: the scripted peer alone on host `peer`, on a runtime of
/// its own; on `srv` the relay calling it and a directory listing it; on
/// `cli` a pool and a failover client bound to the peer's name through that
/// directory.
struct Callers {
    net: SimNet,
    runtime: Runtime,
    peer: Addr,
    relay: DaemonHandle,
    to_relay: ServiceClient,
    pool: Arc<LinkPool>,
    failover: FailoverClient,
    directory: DaemonHandle,
}

/// A directory stand-in: answers every `lookup` with the one entry it holds.
struct Listing(ServiceEntry);

impl ServiceBehavior for Listing {
    fn semantics(&self) -> Semantics {
        protocol::asd_semantics()
    }

    fn handle(&mut self, _ctx: &mut ServiceCtx, _cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        let listing = protocol::entries_to_value(std::slice::from_ref(&self.0));
        Reply::ok_with(|c| c.arg("services", listing))
    }
}

/// The world of one row: a peer answering `script` first, whose `park` the
/// returned sender releases, and a failover client whose window is `window`.
fn callers(script: &[ErrorCode], window: Duration) -> (Callers, PeerHandle, Sender<()>) {
    let net = net();
    for host in ["peer", "ops"] {
        net.add_host(host);
    }
    let (release, released) = channel();
    let (mut behavior, served, executions) = peer_behavior(Semantics::new(), script);
    behavior.release = Some(released);
    let order = Arc::clone(&behavior.order);
    let runtime = Runtime::new(1);
    let config = DaemonConfig::new("peer", "Service.Peer", "lab", "peer", 7300)
        .with_runtime_pool(runtime.clone());
    let daemon = Daemon::spawn(&net, config, behavior).unwrap();
    let peer = daemon.addr().clone();
    let entry = ServiceEntry {
        name: "peer".into(),
        addr: peer.clone(),
        class: "Service.Peer".into(),
        room: "lab".into(),
    };
    let directory = Daemon::spawn(
        &net,
        DaemonConfig::new("asd", "Service.ASD", "lab", "srv", 7201),
        Box::new(Listing(entry)),
    )
    .unwrap();
    let relay = spawn_relay(&net, relay_config(), &peer);
    let to_relay = client(&net, &relay);
    let me = KeyPair::generate(&mut rand::thread_rng());
    let pool = Arc::new(LinkPool::new(&net, "cli", me));
    let failover = FailoverClient::bind(net.clone(), "cli", me, directory.addr().clone(), "peer")
        .with_retry_window(window)
        .with_pool(Arc::clone(&pool))
        .with_resolution_cache(Arc::new(ResolutionCache::new()));
    let world = Callers {
        net,
        runtime,
        peer,
        relay,
        to_relay,
        pool,
        failover,
        directory,
    };
    let peer = PeerHandle {
        daemon,
        served,
        executions,
        order,
    };
    (world, peer, release)
}

impl Callers {
    /// Send the peer a `work` as `caller` does.
    fn work(&mut self, caller: Caller) -> Result<CmdLine, ClientError> {
        self.send(caller, "work")
    }

    /// Send the peer `verb` as `caller` does.
    fn send(&mut self, caller: Caller, verb: &str) -> Result<CmdLine, ClientError> {
        let cmd = CmdLine::new(verb);
        match caller {
            Caller::Ctx => self
                .to_relay
                .call(&CmdLine::new("relay").arg("verb", Value::Word(verb.into()))),
            Caller::Call => self.failover.call(&cmd),
            Caller::Idempotent => self.failover.call_idempotent(&cmd),
            Caller::Pool => self.pool.call(&self.peer, &cmd, DEFAULT_CALL_TIMEOUT),
        }
    }

    fn shutdown(self, peer: PeerHandle) {
        peer.daemon.shutdown();
        self.relay.shutdown();
        self.directory.shutdown();
        self.runtime.shutdown();
    }
}

const EVERY_CALLER: [Caller; 4] = [Caller::Ctx, Caller::Call, Caller::Idempotent, Caller::Pool];

/// Invariant: `E_BUSY` and `E_UPGRADING` are verbs that did not run — each
/// caller sends again on its schedule, and after `E_UPGRADING` on a session
/// it did not hold before: the held link and every link parked for the
/// peer are let go.  The pool's second attempt is its only retry, so it
/// rides out one shed, the others two.  Fails with the eviction skipped on
/// `E_UPGRADING` (one session for `ctx.call`, the second parked link reused
/// by the others).
#[test]
fn a_shed_command_runs_once_on_a_fresh_session() {
    for caller in EVERY_CALLER {
        let sheds: &[ErrorCode] = match caller {
            Caller::Pool => &[ErrorCode::Upgrading],
            _ => &[ErrorCode::Busy, ErrorCode::Upgrading],
        };
        let (mut world, peer, _release) = callers(sheds, WAIT);
        if caller != Caller::Ctx {
            // Two links parked, so a retry that is not evicted finds one.
            let (a, b) = (
                world.pool.checkout(&world.peer),
                world.pool.checkout(&world.peer),
            );
            drop((a.unwrap(), b.unwrap()));
        }
        let accepted = peer.counter("link.accepted");
        world
            .work(caller)
            .unwrap_or_else(|e| panic!("{caller:?}: the sheds are ridden out: {e}"));
        peer.await_served("work", sheds.len() + 1);
        assert_eq!(peer.executions(), 1, "{caller:?}: ran once");
        assert_eq!(
            peer.counter("link.accepted") - accepted,
            if caller == Caller::Ctx { 2 } else { 1 },
            "{caller:?}: ran on a session dialed after E_UPGRADING"
        );
        if matches!(caller, Caller::Call | Caller::Idempotent) {
            assert_eq!(
                world.failover.resolutions(),
                2,
                "E_UPGRADING forgot the answer naming the peer"
            );
        }
        world.shutdown(peer);
    }
}

/// Invariant: an error that is not retryable is an answer — one send, no
/// retry, the verb not run.  Fails with `E_NOTFOUND` retried.
#[test]
fn an_answer_is_one_send() {
    for caller in EVERY_CALLER {
        let (mut world, peer, _release) = callers(&[ErrorCode::NotFound], WAIT);
        let err = world.work(caller).unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::NotFound), "{caller:?}");
        peer.await_served("work", 1);
        let sends = peer.daemon.metrics().histogram("cmd.work").count();
        assert_eq!(sends, 1, "{caller:?}");
        assert_eq!(peer.executions(), 0, "{caller:?}");
        world.shutdown(peer);
    }
}

/// Invariant: a spent window buys no retry.  The attempt carries what is
/// left of it, `deadline=0`, the peer refuses it at its door and never
/// hears of the command again.  `ctx.call`'s window is the deadline of the
/// command it serves (`relayLate` waits it out); a failover client's is its
/// retry window, here none.  `LinkPool::call` has no window: its one
/// re-send is its whole schedule.
#[test]
fn a_spent_deadline_is_refused_at_the_door_once() {
    for caller in [Caller::Ctx, Caller::Call, Caller::Idempotent] {
        let (mut world, peer, _release) = callers(&[], Duration::ZERO);
        let err = match caller {
            Caller::Ctx => {
                let mut late = CmdLine::new("relayLate");
                late.set_deadline_ms(100);
                world.to_relay.call(&late)
            }
            _ => world.work(caller),
        }
        .unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::Deadline), "{caller:?}");
        assert_eq!(peer.counter("shed.deadline"), 1, "{caller:?}");
        assert_eq!(peer.executions(), 0, "{caller:?}");
        assert!(
            peer.served.try_recv().is_err(),
            "{caller:?}: nothing reached the handler"
        );
        world.shutdown(peer);
    }
}

/// Invariant: a link that fails after the send on an established session
/// leaves a verb that may have run, and only an at-least-once caller sends
/// it again.  Staged without a clock: the second call is a `park`, and
/// while the peer holds it the caller's host is cut off from the peer's and
/// a `heal` is queued on another session.  Released, the peer runs the
/// `park`, its reply is lost and the session closed, and the `heal` runs on
/// the peer's next turn — on a runtime of its own, so at once, well inside
/// the 5 ms before `ctx.call`'s first retry.  `call` surfaces the failure,
/// the verb run once; `call_idempotent` and `ctx.call` send it again, the
/// verb run twice.  (`LinkPool::call` re-sends at once, before the heal.)
/// Fails with the at-most-once re-send allowed on a reused link.
#[test]
fn a_lost_reply_on_a_reused_link_is_sent_again_only_at_least_once() {
    for caller in [Caller::Ctx, Caller::Call, Caller::Idempotent] {
        let (mut world, peer, release) = callers(&[], WAIT);
        world.work(caller).expect("the first call runs");
        let me = KeyPair::generate(&mut rand::thread_rng());
        let mut ops =
            ServiceClient::connect(&world.net, &"ops".into(), world.peer.clone(), &me).unwrap();
        let net = world.net.clone();
        let outcome = std::thread::scope(|scope| {
            let call = scope.spawn(|| world.send(caller, "park"));
            peer.await_served("park", 1);
            net.partition(&caller.host(), &"peer".into());
            ops.send(&CmdLine::new("heal")).unwrap();
            // One release for the park whose reply is lost, one for a re-send.
            release.send(()).unwrap();
            release.send(()).unwrap();
            call.join().unwrap()
        });
        let runs = peer.daemon.metrics().histogram("cmd.park").count();
        if caller == Caller::Call {
            let err = outcome.unwrap_err();
            assert!(matches!(err, ClientError::Link(_)), "surfaced: {err}");
            assert_eq!(runs, 1, "the lost call ran once and was not sent again");
        } else {
            outcome.unwrap_or_else(|e| panic!("{caller:?}: sent again: {e}"));
            assert_eq!(runs, 2, "{caller:?}: the lost call ran, then its re-send");
        }
        world.shutdown(peer);
    }
}

// -- notifications are casts ---------------------------------------------------

/// A relay with `listener` subscribed to its `touch` (→ `onTouch`) and
/// `flush` (→ `onFlush`), and a client of the relay.
fn relay_notifying(net: &SimNet, listener: &PeerHandle) -> (DaemonHandle, ServiceClient) {
    let relay = spawn_relay(net, relay_config(), &Addr::new("srv", 1));
    let mut to_relay = client(net, &relay);
    for (event, notify_cmd) in [("touch", "onTouch"), ("flush", "onFlush")] {
        let to = listener.daemon.addr();
        to_relay
            .call_ok(&protocol::subscribe_cmd(event, "listener", to, notify_cmd))
            .unwrap();
    }
    (relay, to_relay)
}

fn upgrade_phase(phase: &str) -> CmdLine {
    CmdLine::new("aceUpgrade").arg("phase", Value::Word(phase.into()))
}

/// Invariant: a notification refused because its listener is quiescing is
/// not lost — the refusal names it, and it is sent again once the gate is
/// open.  Fails at the parent: there `E_UPGRADING` came back as the reply
/// to a call, was filed under "delivered", and the listener served 0 of 1.
#[test]
fn a_notification_refused_by_a_quiescing_listener_is_sent_again() {
    let net = net();
    let listener = spawn_peer(&net, "listener", 7201, Semantics::new(), &[]);
    let (relay, mut to_relay) = relay_notifying(&net, &listener);
    let mut driver = client(&net, &listener.daemon);

    driver.call(&upgrade_phase("quiesce")).expect("quiesce");
    to_relay.call_ok(&CmdLine::new("touch")).unwrap();
    await_counter(&listener.daemon, "upgrade.rejected", 1);
    driver.call(&upgrade_phase("abort")).expect("abort");

    listener.await_served("onTouch", 1);
    // The notifier delivers in order: once `onFlush` has arrived, every
    // copy of the `onTouch` before it has.
    to_relay.call_ok(&CmdLine::new("flush")).unwrap();
    listener.await_served("onFlush", 1);
    assert_eq!(listener.executions(), 1, "refused, sent again, ran once");
    assert!(relay.metrics().counter("notify.resent").get() >= 1);
    assert_eq!(relay.metrics().counter("notify.drops").get(), 0);
}

/// Invariant: what decides a re-send is whether the verb ran.  A listener
/// that sheds the first copy (`E_BUSY`: it did not) runs the notification
/// exactly once and nothing is dropped; a refusal that no second copy
/// could survive (the listener has no such verb) is one drop, sent once.
#[test]
fn a_shed_notification_runs_once_and_an_unknown_one_is_one_drop() {
    let net = net();
    let listener = spawn_peer(&net, "listener", 7201, Semantics::new(), &[ErrorCode::Busy]);
    let (relay, mut to_relay) = relay_notifying(&net, &listener);

    to_relay.call_ok(&CmdLine::new("touch")).unwrap();
    listener.await_served("onTouch", 2); // shed, then run
    to_relay.call_ok(&CmdLine::new("flush")).unwrap();
    listener.await_served("onFlush", 1);
    assert_eq!(listener.executions(), 1);
    assert_eq!(relay.metrics().counter("notify.resent").get(), 1);
    assert_eq!(relay.metrics().counter("notify.drops").get(), 0);

    let to = listener.daemon.addr();
    to_relay
        .call_ok(&protocol::subscribe_cmd("say", "listener", to, "onNothing"))
        .unwrap();
    to_relay.call_ok(&CmdLine::new("say")).unwrap();
    await_counter(&relay, "notify.drops", 1);
    to_relay.call_ok(&CmdLine::new("flush")).unwrap();
    listener.await_served("onFlush", 1);
    assert_eq!(listener.counter("cmd.rejected"), 1, "one copy was sent");
    assert_eq!(relay.metrics().counter("notify.resent").get(), 1);
    assert_eq!(relay.metrics().counter("notify.drops").get(), 1);
}

/// Invariant: the notifier is bounded by waiting, not by shedding.  A
/// listener that reads nothing is written one window (64) of messages and
/// no more; the rest wait in the queue, whose depth is the one place that
/// sheds; released, the listener runs all 300 in the order fired.  Fails
/// under "a full window sheds" (`deliver` counting a drop where it hands
/// the message back): `notify.drops` reads 236.
#[test]
fn a_listener_a_window_behind_makes_the_queue_wait_and_nothing_is_shed() {
    const FIRED: i64 = 300;
    let net = net();
    let (release, released) = channel();
    let listener = spawn_peer_released_by(
        &net,
        "listener",
        7201,
        Semantics::new(),
        &[],
        Some(released),
    );
    let (relay, mut to_relay) = relay_notifying(&net, &listener);
    // One notification first, so the link it rides is up before the park.
    to_relay.call_ok(&CmdLine::new("flush")).unwrap();
    listener.await_served("onFlush", 1);
    let written_before = relay.metrics().counter("notify.delivered").get();

    let mut to_listener = client(&net, &listener.daemon);
    to_listener.send(&CmdLine::new("park")).unwrap();
    listener.await_served("park", 1);
    for seq in 0..FIRED {
        to_relay
            .call_ok(&CmdLine::new("touch").arg("seq", seq))
            .unwrap();
    }
    await_counter(&relay, "notify.delivered", written_before + 63);
    let written = relay.metrics().counter("notify.delivered").get() - written_before;
    assert!(
        written <= 64,
        "{written} written to a listener that has read nothing"
    );
    assert_eq!(relay.metrics().counter("notify.shed").get(), 0);
    assert_eq!(relay.metrics().counter("notify.drops").get(), 0);

    release.send(()).unwrap();
    listener.await_served("onTouch", FIRED as usize);
    assert_eq!(
        *listener.order.lock().unwrap(),
        (0..FIRED).collect::<Vec<_>>(),
        "every notification ran once, in the order fired"
    );
    assert_eq!(relay.metrics().counter("notify.shed").get(), 0);
    assert_eq!(relay.metrics().counter("notify.drops").get(), 0);
}

/// Invariant: a notification is one frame.  Fails at the parent, where it
/// is two: the listener's `ok`, which nobody reads.
#[test]
fn a_notification_costs_one_frame() {
    let net = net();
    let listener = spawn_peer(&net, "listener", 7201, Semantics::new(), &[]);
    let (_relay, mut to_relay) = relay_notifying(&net, &listener);
    let mut to_listener = client(&net, &listener.daemon);
    // Both links are up and have carried a frame before the count starts.
    to_relay.call_ok(&CmdLine::new("touch")).unwrap();
    listener.await_served("onTouch", 1);
    to_listener.call_ok(&CmdLine::new("ping")).unwrap();

    let before = net.metrics().snapshot();
    to_relay.call_ok(&CmdLine::new("touch")).unwrap();
    listener.await_served("onTouch", 1);
    // Whatever the listener sent about the notification it sent before it
    // read this ping; once the ping is answered it is all on the wire.
    to_listener.call_ok(&CmdLine::new("ping")).unwrap();
    let frames = net.metrics().snapshot().since(&before).frames;
    assert_eq!(
        frames - 4, // `touch`, `ping`, and their replies
        1,
        "frames one notification put on the wire"
    );
}

/// Sum a registry's `wire.*` counters ending in `.<what>` (`frames`/`bytes`).
fn wire_total(registry: &MetricsRegistry, what: &str) -> u64 {
    let counters = registry.snapshot().counters;
    let suffix = format!(".{what}");
    counters
        .iter()
        .filter(|(name, _)| name.starts_with("wire.") && name.ends_with(&suffix))
        .map(|(_, n)| n)
        .sum()
}

/// Invariant: the per-verb counters add up.  Every frame two daemons put on
/// warm links — a call and its reply (`wire.work`, `wire.reply.work`), a
/// notification cast and a log cast from the notifier (`wire.onTouch`,
/// `wire.log`), the answers to the driving client (`wire.reply.<verb>`) and
/// the client's own calls, through a pool of its own — is counted once, in
/// sealed bytes, the unit of `SimNet::metrics()`: the three registries are
/// exactly the net's delta.
#[test]
fn wire_counters_add_up_to_the_frames_on_the_net() {
    let net = net();
    let peer = spawn_peer(&net, "peer", 7201, protocol::logger_semantics(), &[]);
    let relay = spawn_relay(
        &net,
        relay_config().with_logger(peer.daemon.addr().clone()),
        peer.daemon.addr(),
    );
    let subscribe = protocol::subscribe_cmd("touch", "peer", peer.daemon.addr(), "onTouch");
    client(&net, &relay).call_ok(&subscribe).unwrap();

    // The driving client counts what it sends as a daemon does.
    let sent = MetricsRegistry::new();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let pool = Arc::new(LinkPool::with_metrics(&net, "cli", me, &sent));
    let mut to_relay = pool.checkout(relay.addr()).unwrap();
    let mut to_peer = pool.checkout(peer.daemon.addr()).unwrap();
    let mut exchange = |verbs: &[&str]| {
        for verb in verbs {
            let reply = to_relay.call(&CmdLine::new(*verb)).unwrap();
            assert_eq!(reply.name(), "ok", "{verb}: {reply}");
        }
        peer.await_served("onTouch", 1);
        peer.await_served("log", 1);
        // Whatever the peer sent about the casts it sent before it read
        // this ping; once the ping is answered it is all on the wire.
        assert_eq!(to_peer.call(&CmdLine::new("ping")).unwrap().name(), "ok");
    };
    // Every link is up and has carried a frame before the count starts: the
    // notifier's, held while a cast is kept, and beside it the one
    // `ctx.call` checks out, so nothing in the window dials.
    peer.await_served("log", 1); // "started"
    exchange(&["touch", "say", "relay"]);

    let registries = [relay.metrics(), peer.daemon.metrics(), &sent];
    let total = |what| registries.iter().map(|r| wire_total(r, what)).sum::<u64>();
    let (bytes_before, frames_before) = (total("bytes"), total("frames"));
    let client_frames = wire_total(&sent, "frames");
    let before = net.metrics().snapshot();
    exchange(&["relay", "touch", "say", "relay"]);
    let on_net = net.metrics().snapshot().since(&before);

    assert_eq!(
        total("bytes") - bytes_before,
        on_net.frame_bytes,
        "sealed bytes on the net"
    );
    assert_eq!(
        total("frames") - frames_before,
        on_net.frames,
        "frames on the net"
    );
    assert_eq!(
        wire_total(&sent, "frames") - client_frames,
        5,
        "the client's four calls and a ping"
    );
    // Read back as every operator reads them: `aceStats prefix=wire.`.
    let mut asked = client(&net, &relay);
    let report = StatsReport::from_cmdline(
        &asked
            .call(&CmdLine::new("aceStats").arg("prefix", "wire."))
            .unwrap(),
    );
    for (name, at_least) in [
        ("wire.work.frames", 3),
        ("wire.onTouch.frames", 2),
        ("wire.log.frames", 3),
        ("wire.reply.relay.frames", 3),
        ("wire.reply.touch.frames", 2),
    ] {
        assert!(
            report.counters.get(name).copied().unwrap_or(0) >= at_least,
            "{name} below {at_least}: {:?}",
            report.counters
        );
    }
    let peer_sent = peer.daemon.metrics().snapshot().counters;
    assert_eq!(peer_sent.get("wire.reply.work.frames"), Some(&3));
    assert!(report.counters.keys().all(|k| k.starts_with("wire.")));
}
