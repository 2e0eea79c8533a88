//! Integration tests of the daemon framework against the directory tier:
//! the Fig. 9 startup sequence, Fig. 7 lookup, §2.4 leases, Fig. 8
//! notifications, and the Fig. 10 authorization flow.

use ace_core::prelude::*;
use ace_directory::{bootstrap, AsdClient, Framework, LoggerClient, RoomDbClient};
use ace_security::keynote::{Assertion, KeyNoteEngine, Licensees, POLICY};
use ace_security::keys::KeyPair;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn keypair() -> KeyPair {
    KeyPair::generate(&mut rand::thread_rng())
}

fn net_with(hosts: &[&str]) -> SimNet {
    let net = SimNet::new();
    for h in hosts {
        net.add_host(*h);
    }
    net
}

/// A trivial counting service used as the subject of directory tests.
struct Counter {
    count: i64,
    events: Arc<AtomicU64>,
}

impl Counter {
    fn new() -> Counter {
        Counter {
            count: 0,
            events: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl ServiceBehavior for Counter {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(CmdSpec::new("increment", "add to the counter").optional(
                "by",
                ArgType::Int,
                "amount (default 1)",
            ))
            .with(CmdSpec::new("read", "current value"))
            .with(
                CmdSpec::new("onPeerEvent", "notification sink")
                    .optional("service", ArgType::Str, "origin")
                    .optional("cmd", ArgType::Str, "what ran")
                    .optional("by", ArgType::Int, "amount"),
            )
    }

    fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "increment" => {
                self.count += cmd.get_int("by").unwrap_or(1);
                Reply::ok_with(|c| c.arg("value", self.count))
            }
            "read" => Reply::ok_with(|c| c.arg("value", self.count)),
            "onPeerEvent" => {
                self.events.fetch_add(1, Ordering::SeqCst);
                Reply::ok()
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted `{other}`")),
        }
    }
}

fn start_counter(net: &SimNet, fw: &Framework, name: &str, host: &str, port: u16) -> DaemonHandle {
    Daemon::spawn(
        net,
        fw.service_config(name, "Service.Counter", "hawk", host, port),
        Box::new(Counter::new()),
    )
    .unwrap()
}

#[test]
fn startup_sequence_registers_everywhere() {
    let net = net_with(&["core", "bar"]);
    let fw = bootstrap(&net, "core", Duration::from_secs(5)).unwrap();
    let me = keypair();

    let counter = start_counter(&net, &fw, "counter1", "bar", 4000);

    // Fig. 9 step 3: visible in the ASD.
    let mut asd = AsdClient::connect(&net, &"bar".into(), fw.asd_addr.clone(), &me).unwrap();
    let entry = asd.find("counter1").unwrap().expect("registered");
    assert_eq!(entry.addr, Addr::new("bar", 4000));
    assert_eq!(entry.class, "Service.Counter");
    assert_eq!(entry.room, "hawk");

    // Step 2: placed in the room database.
    let mut roomdb =
        RoomDbClient::connect(&net, &"bar".into(), fw.roomdb_addr.clone(), &me).unwrap();
    let placements = roomdb.room_services("hawk").unwrap();
    assert!(placements.iter().any(|p| p.service == "counter1"));

    // Step 5: start recorded in the logger.
    let mut logger =
        LoggerClient::connect(&net, &"bar".into(), fw.logger_addr.clone(), &me).unwrap();
    let records = logger.tail(50, None).unwrap();
    assert!(records
        .iter()
        .any(|(_, _, _, _, msg)| msg.contains("counter1 started on host bar")));

    counter.shutdown();
    fw.shutdown();
}

#[test]
fn lookup_by_class_and_room() {
    let net = net_with(&["core", "bar", "tube"]);
    let fw = bootstrap(&net, "core", Duration::from_secs(5)).unwrap();
    let me = keypair();

    let c1 = start_counter(&net, &fw, "c1", "bar", 4000);
    let c2 = Daemon::spawn(
        &net,
        fw.service_config("c2", "Service.Counter", "dove", "tube", 4001),
        Box::new(Counter::new()),
    )
    .unwrap();

    let mut asd = AsdClient::connect(&net, &"bar".into(), fw.asd_addr.clone(), &me).unwrap();
    let by_class = asd.lookup(None, Some("Counter"), None).unwrap();
    assert_eq!(by_class.len(), 2);
    let in_dove = asd.lookup(None, Some("Counter"), Some("dove")).unwrap();
    assert_eq!(in_dove.len(), 1);
    assert_eq!(in_dove[0].name, "c2");

    // Full Fig. 7 flow: look up, connect to the returned address, command.
    let mut client =
        ServiceClient::connect(&net, &"bar".into(), in_dove[0].addr.clone(), &me).unwrap();
    let reply = client
        .call(&CmdLine::new("increment").arg("by", 5))
        .unwrap();
    assert_eq!(reply.get_int("value"), Some(5));

    c1.shutdown();
    c2.shutdown();
    fw.shutdown();
}

/// A daemon that asks the directory on a client's behalf.
struct Asker;

impl ServiceBehavior for Asker {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(CmdSpec::new("whereIs", "ctx.lookup_one").required(
            "name",
            ArgType::Word,
            "a service",
        ))
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match ctx.lookup_one(cmd.get_text("name").expect("validated")) {
            Ok(found) => Reply::ok_with(|c| c.arg("found", found.is_some())),
            Err(e) => Reply::err(ErrorCode::Unavailable, e.to_string()),
        }
    }
}

/// A daemon holds what the directory told it for a lease, but never an
/// empty answer: a service that registers after it was first asked for is
/// found by the very next question, with no lease to wait out.
#[test]
fn a_name_that_is_not_registered_yet_is_asked_for_again() {
    let net = net_with(&["core", "bar"]);
    let fw = bootstrap(&net, "core", Duration::from_secs(60)).unwrap();
    let asker = Daemon::spawn(
        &net,
        fw.service_config("asker", "Service.Asker", "hawk", "bar", 4000),
        Box::new(Asker),
    )
    .unwrap();
    let mut client =
        ServiceClient::connect(&net, &"bar".into(), asker.addr().clone(), &keypair()).unwrap();
    let mut found = || {
        let reply = client.call(&CmdLine::new("whereIs").arg("name", "late"));
        reply.unwrap().get_bool("found")
    };

    assert_eq!(found(), Some(false));
    let late = start_counter(&net, &fw, "late", "bar", 4001);
    assert_eq!(found(), Some(true), "the empty answer was held");

    late.shutdown();
    asker.shutdown();
    fw.shutdown();
}

#[test]
fn graceful_shutdown_deregisters() {
    let net = net_with(&["core", "bar"]);
    let fw = bootstrap(&net, "core", Duration::from_secs(5)).unwrap();
    let me = keypair();

    let counter = start_counter(&net, &fw, "gone", "bar", 4000);
    let mut asd = AsdClient::connect(&net, &"bar".into(), fw.asd_addr.clone(), &me).unwrap();
    assert!(asd.find("gone").unwrap().is_some());

    counter.shutdown();
    assert!(asd.find("gone").unwrap().is_none(), "removed on shutdown");

    fw.shutdown();
}

#[test]
fn crashed_daemon_is_purged_by_lease_expiry() {
    let net = net_with(&["core", "bar"]);
    // Short lease so the test runs quickly.
    let fw = bootstrap(&net, "core", Duration::from_millis(300)).unwrap();
    let me = keypair();

    let counter = Daemon::spawn(
        &net,
        fw.service_config("flaky", "Service.Counter", "hawk", "bar", 4000)
            .with_lease_renew(Duration::from_millis(100)),
        Box::new(Counter::new()),
    )
    .unwrap();

    let mut asd = AsdClient::connect(&net, &"bar".into(), fw.asd_addr.clone(), &me).unwrap();
    // Renewal keeps it alive well past one lease duration.
    std::thread::sleep(Duration::from_millis(700));
    assert!(
        asd.find("flaky").unwrap().is_some(),
        "renewal keeps the lease"
    );

    // Crash without deregistering: the lease mechanism must clean up.
    counter.crash();
    std::thread::sleep(Duration::from_millis(600));
    assert!(
        asd.find("flaky").unwrap().is_none(),
        "expired lease purged after crash"
    );

    fw.shutdown();
}

#[test]
fn notifications_fire_on_command_execution() {
    let net = net_with(&["core", "bar", "tube"]);
    let fw = bootstrap(&net, "core", Duration::from_secs(5)).unwrap();
    let me = keypair();

    let watched = start_counter(&net, &fw, "watched", "bar", 4000);
    let listener_behavior = Counter::new();
    let events = Arc::clone(&listener_behavior.events);
    let listener = Daemon::spawn(
        &net,
        fw.service_config("listener", "Service.Counter", "hawk", "tube", 4001),
        Box::new(listener_behavior),
    )
    .unwrap();

    // Fig. 8: register interest in `increment` on the watched service.
    let mut client =
        ServiceClient::connect(&net, &"tube".into(), watched.addr().clone(), &me).unwrap();
    client
        .call_ok(
            &CmdLine::new("addNotification")
                .arg("cmd", "increment")
                .arg("service", "listener")
                .arg("host", "tube")
                .arg("port", 4001)
                .arg("notifyCmd", "onPeerEvent"),
        )
        .unwrap();

    for _ in 0..3 {
        client.call_ok(&CmdLine::new("increment")).unwrap();
    }
    // Failed commands must not notify.
    let _ = client.call(&CmdLine::new("increment").arg("by", Value::Str("x".into())));

    // Delivery is asynchronous.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while events.load(Ordering::SeqCst) < 3 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(events.load(Ordering::SeqCst), 3);

    // Deregister; further executions are silent.
    client
        .call_ok(
            &CmdLine::new("removeNotification")
                .arg("cmd", "increment")
                .arg("service", "listener"),
        )
        .unwrap();
    client.call_ok(&CmdLine::new("increment")).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(events.load(Ordering::SeqCst), 3);

    listener.shutdown();
    watched.shutdown();
    fw.shutdown();
}

#[test]
fn semantic_errors_rejected_before_execution() {
    let net = net_with(&["core", "bar"]);
    let fw = bootstrap(&net, "core", Duration::from_secs(5)).unwrap();
    let me = keypair();
    let counter = start_counter(&net, &fw, "strict", "bar", 4000);
    let mut client =
        ServiceClient::connect(&net, &"bar".into(), counter.addr().clone(), &me).unwrap();

    // Unknown command.
    let err = client.call(&CmdLine::new("explode")).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Semantics));
    // Wrong argument type.
    let err = client
        .call(&CmdLine::new("increment").arg("by", Value::Str("many".into())))
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Semantics));
    // State unchanged.
    let reply = client.call(&CmdLine::new("read")).unwrap();
    assert_eq!(reply.get_int("value"), Some(0));

    counter.shutdown();
    fw.shutdown();
}

#[test]
fn keynote_guards_commands() {
    let net = net_with(&["core", "bar"]);
    let fw = bootstrap(&net, "core", Duration::from_secs(5)).unwrap();

    let admin = keypair();
    let user = keypair();
    let mut engine = KeyNoteEngine::new();
    // Admin may do anything; user may only read.
    engine
        .add_policy(
            Assertion::new(POLICY, Licensees::Principal(admin.principal()), "true").unwrap(),
        )
        .unwrap();
    engine
        .add_policy(
            Assertion::new(
                POLICY,
                Licensees::Principal(user.principal()),
                "cmd == \"read\"",
            )
            .unwrap(),
        )
        .unwrap();
    // Daemons themselves need authority for their framework traffic — grant
    // the service's own key full authority below via its fixed identity.
    let service_key = keypair();
    engine
        .add_policy(
            Assertion::new(
                POLICY,
                Licensees::Principal(service_key.principal()),
                "true",
            )
            .unwrap(),
        )
        .unwrap();

    let auth = AuthMode::Local(Arc::new(Authorizer::local(engine)));
    let guarded = Daemon::spawn(
        &net,
        fw.service_config("guarded", "Service.Counter", "hawk", "bar", 4000)
            .with_auth(auth)
            .with_identity(service_key),
        Box::new(Counter::new()),
    )
    .unwrap();

    // Admin can increment.
    let mut as_admin =
        ServiceClient::connect(&net, &"bar".into(), guarded.addr().clone(), &admin).unwrap();
    as_admin.call_ok(&CmdLine::new("increment")).unwrap();

    // User can read but not increment.
    let mut as_user =
        ServiceClient::connect(&net, &"bar".into(), guarded.addr().clone(), &user).unwrap();
    let reply = as_user.call(&CmdLine::new("read")).unwrap();
    assert_eq!(reply.get_int("value"), Some(1));
    let err = as_user.call(&CmdLine::new("increment")).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Denied));

    // A stranger can do neither (but ping stays open for liveness).
    let stranger = keypair();
    let mut as_stranger =
        ServiceClient::connect(&net, &"bar".into(), guarded.addr().clone(), &stranger).unwrap();
    assert!(as_stranger.call(&CmdLine::new("ping")).is_ok());
    let err = as_stranger.call(&CmdLine::new("read")).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Denied));

    guarded.shutdown();
    fw.shutdown();
}

#[test]
fn describe_lists_inherited_and_own_commands() {
    let net = net_with(&["core", "bar"]);
    let fw = bootstrap(&net, "core", Duration::from_secs(5)).unwrap();
    let me = keypair();
    let counter = start_counter(&net, &fw, "desc", "bar", 4000);
    let mut client =
        ServiceClient::connect(&net, &"bar".into(), counter.addr().clone(), &me).unwrap();

    let reply = client.call(&CmdLine::new("describe")).unwrap();
    let cmds: Vec<&str> = reply
        .get_vector("cmds")
        .unwrap()
        .iter()
        .filter_map(|s| s.as_text())
        .collect();
    // Own commands plus the inherited base of the Fig. 6 hierarchy.
    for expected in ["increment", "read", "ping", "shutdown", "addNotification"] {
        assert!(cmds.contains(&expected), "missing {expected}");
    }

    counter.shutdown();
    fw.shutdown();
}

#[test]
fn shutdown_command_stops_daemon() {
    let net = net_with(&["core", "bar"]);
    let fw = bootstrap(&net, "core", Duration::from_secs(5)).unwrap();
    let me = keypair();
    let counter = start_counter(&net, &fw, "stopme", "bar", 4000);
    let mut client =
        ServiceClient::connect(&net, &"bar".into(), counter.addr().clone(), &me).unwrap();
    client.call_ok(&CmdLine::new("shutdown")).unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while counter.is_running() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(!counter.is_running());
    counter.shutdown(); // join
    fw.shutdown();
}

#[test]
fn logger_stats_and_filtering() {
    let net = net_with(&["core"]);
    let fw = bootstrap(&net, "core", Duration::from_secs(5)).unwrap();
    let me = keypair();
    let mut logger =
        LoggerClient::connect(&net, &"core".into(), fw.logger_addr.clone(), &me).unwrap();

    logger.log("warn", "disk nearly full").unwrap();
    logger.log("security", "invalid login for mallory").unwrap();
    logger
        .log("security", "invalid login for mallory again")
        .unwrap();

    let security = logger.tail(10, Some("security")).unwrap();
    assert_eq!(security.len(), 2);
    assert!(security[0].4.contains("mallory"));

    let mut raw =
        ServiceClient::connect(&net, &"core".into(), fw.logger_addr.clone(), &me).unwrap();
    let stats = raw
        .call(&CmdLine::new("aceStats").arg("prefix", "log."))
        .unwrap();
    let gauges = StatsReport::from_cmdline(&stats).gauges;
    assert_eq!(gauges["log.warn"], 1);
    assert_eq!(gauges["log.security"], 2);

    fw.shutdown();
}

#[test]
fn room_database_info_and_dimensions() {
    let net = net_with(&["core"]);
    let fw = bootstrap(&net, "core", Duration::from_secs(5)).unwrap();
    let me = keypair();
    let mut roomdb =
        RoomDbClient::connect(&net, &"core".into(), fw.roomdb_addr.clone(), &me).unwrap();

    roomdb
        .define_room("hawk", "nichols", (8.0, 6.0, 3.0))
        .unwrap();
    let info = roomdb.room_info("hawk").unwrap();
    assert_eq!(info.building, "nichols");
    assert_eq!(info.dimensions, (8.0, 6.0, 3.0));

    let rooms = roomdb.list_rooms().unwrap();
    assert!(rooms.contains(&"hawk".to_string()));
    assert!(
        rooms.contains(&"machineroom".to_string()),
        "auto-created by bootstrap"
    );

    fw.shutdown();
}
