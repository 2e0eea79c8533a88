//! Integration tests of the identity tier: user registration, fingerprint
//! and iButton identification, ID-monitor location tracking (Scenario 2),
//! and the Fig. 10 remote-credential authorization flow.

use ace_core::prelude::*;
use ace_directory::{bootstrap, Framework, LoggerClient};
use ace_identity::{
    AuthDb, AuthDbClient, Fiu, IButtonReader, IdMonitor, RemoteCredentials, ScannerDevice, UserDb,
    UserDbClient,
};
use ace_security::keynote::{Assertion, KeyNoteEngine, Licensees, POLICY};
use ace_security::keys::KeyPair;
use std::sync::Arc;
use std::time::Duration;

fn keypair() -> KeyPair {
    KeyPair::generate(&mut rand::thread_rng())
}

struct World {
    net: SimNet,
    fw: Framework,
    aud: DaemonHandle,
}

fn world() -> World {
    let net = SimNet::new();
    for h in ["core", "bar", "tube"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    let aud = Daemon::spawn(
        &net,
        fw.service_config("aud", "Service.Database.User", "machineroom", "core", 5200),
        Box::new(UserDb::new()),
    )
    .unwrap();
    World { net, fw, aud }
}

#[test]
fn user_lifecycle() {
    let w = world();
    let me = keypair();
    let john = keypair();
    let mut aud = UserDbClient::connect(&w.net, &"bar".into(), w.aud.addr().clone(), &me).unwrap();

    aud.add_user(
        "jdoe",
        "John Doe",
        "hunter2",
        &john.principal(),
        Some("fp_jdoe"),
        Some("ib_4242"),
    )
    .unwrap();

    let info = aud.get_user("jdoe").unwrap();
    assert_eq!(info.fullname, "John Doe");
    assert_eq!(info.public_key, john.principal());
    assert_eq!(info.fingerprint.as_deref(), Some("fp_jdoe"));
    assert_eq!(info.location, None);

    assert!(aud.check_password("jdoe", "hunter2").unwrap());
    assert!(!aud.check_password("jdoe", "wrong").unwrap());

    assert_eq!(
        aud.find_by_fingerprint("fp_jdoe").unwrap().as_deref(),
        Some("jdoe")
    );
    assert_eq!(
        aud.find_by_ibutton("ib_4242").unwrap().as_deref(),
        Some("jdoe")
    );
    assert_eq!(aud.find_by_fingerprint("fp_ghost").unwrap(), None);

    aud.set_location("jdoe", "hawk", "bar").unwrap();
    assert_eq!(
        aud.get_location("jdoe").unwrap(),
        Some(("hawk".into(), "bar".into()))
    );

    // Duplicate registration rejected.
    let err = aud
        .add_user("jdoe", "John Doe II", "x", "k", None, None)
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::BadState));

    assert_eq!(aud.list_users().unwrap(), vec!["jdoe".to_string()]);

    w.aud.shutdown();
    w.fw.shutdown();
}

/// The full Scenario 2 chain: press → FIU match → AUD lookup → notification
/// → ID Monitor → AUD location update.
#[test]
fn scenario2_fingerprint_identification_updates_location() {
    let w = world();
    let me = keypair();
    let john = keypair();

    // FIU scanner in the conference room "hawk" on host "bar".
    let mut device = ScannerDevice::default();
    device.enroll("fp_jdoe", 0.95);
    let fiu = Daemon::spawn(
        &w.net,
        w.fw.service_config("fiu_hawk", "Service.Device.FIU", "hawk", "bar", 5300),
        Box::new(Fiu::new(device)),
    )
    .unwrap();

    let monitor = Daemon::spawn(
        &w.net,
        w.fw.service_config(
            "idmonitor",
            "Service.IDMonitor",
            "machineroom",
            "core",
            5301,
        ),
        Box::new(IdMonitor::new()),
    )
    .unwrap();
    IdMonitor::subscribe_to_devices(&w.net, &monitor, &[&fiu], &me).unwrap();

    let mut aud = UserDbClient::connect(&w.net, &"bar".into(), w.aud.addr().clone(), &me).unwrap();
    aud.add_user(
        "jdoe",
        "John Doe",
        "pw",
        &john.principal(),
        Some("fp_jdoe"),
        None,
    )
    .unwrap();

    // John presses his thumb to the scanner at the podium.
    let mut scanner =
        ServiceClient::connect(&w.net, &"bar".into(), fiu.addr().clone(), &john).unwrap();
    let reply = scanner
        .call(&CmdLine::new("press").arg("template", Value::Str("fp_jdoe".into())))
        .unwrap();
    assert_eq!(reply.get_bool("identified"), Some(true));
    assert_eq!(reply.get_text("username"), Some("jdoe"));

    // The notification chain is asynchronous; wait for the location update.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if let Some((room, host)) = aud.get_location("jdoe").unwrap() {
            assert_eq!(room, "hawk");
            assert_eq!(host, "bar");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "location never updated"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The monitor remembers the sighting too.
    let mut mon =
        ServiceClient::connect(&w.net, &"bar".into(), monitor.addr().clone(), &me).unwrap();
    let seen = mon
        .call(&CmdLine::new("lastSeen").arg("username", "jdoe"))
        .unwrap();
    assert_eq!(seen.get_text("room"), Some("hawk"));

    monitor.shutdown();
    fiu.shutdown();
    w.aud.shutdown();
    w.fw.shutdown();
}

/// An AUD that crashes and comes back on another host (incarnation + 1, as
/// a Supervisor on a second machine would bring it back) costs its callers
/// at most one call: the FIU's press after the move fails at the link,
/// which forgets the held answer, and the next press asks the ASD where
/// the AUD is now.  While the FIU kept the address it was first told for
/// the life of the process, every press after the move read
/// `identified=false`.
#[test]
fn a_moved_aud_is_found_again() {
    let w = world();
    let me = keypair();
    let mut device = ScannerDevice::default();
    device.enroll("fp_jdoe", 0.95);
    let fiu = Daemon::spawn(
        &w.net,
        w.fw.service_config("fiu_hawk", "Service.Device.FIU", "hawk", "bar", 5300),
        Box::new(Fiu::new(device)),
    )
    .unwrap();
    let enroll = |aud: &DaemonHandle| {
        UserDbClient::connect(&w.net, &"bar".into(), aud.addr().clone(), &me)
            .unwrap()
            .add_user("jdoe", "John Doe", "pw", "key", Some("fp_jdoe"), None)
            .unwrap();
    };
    enroll(&w.aud);

    let mut scanner =
        ServiceClient::connect(&w.net, &"bar".into(), fiu.addr().clone(), &me).unwrap();
    // An `E_UNAVAILABLE` press (the AUD could not be asked) reads as a miss.
    let mut press = || {
        scanner
            .call(&CmdLine::new("press").arg("template", Value::Str("fp_jdoe".into())))
            .map_or(Some(false), |reply| reply.get_bool("identified"))
    };
    assert_eq!(press(), Some(true), "the FIU now holds the AUD's address");

    w.aud.crash();
    let config =
        w.fw.service_config("aud", "Service.Database.User", "machineroom", "tube", 5201);
    let moved = Daemon::spawn(
        &w.net,
        config.with_incarnation(w.aud.incarnation() + 1),
        Box::new(UserDb::new()),
    )
    .unwrap();
    enroll(&moved);

    let after: Vec<Option<bool>> = (0..3).map(|_| press()).collect();
    assert_eq!(
        after[1..],
        [Some(true), Some(true)],
        "only the first press after the move may miss: {after:?}"
    );

    fiu.shutdown();
    moved.shutdown();
    w.fw.shutdown();
}

/// Invariant: "no such user" is the AUD's answer and nobody else's.  With the
/// AUD down, the press of an enrolled finger is `E_UNAVAILABLE` — not
/// `identified=false`, which would send a legitimate user away as a stranger
/// — and it leaves no `security` record and fires no `identificationFailed`.
#[test]
fn a_dead_aud_is_unavailable_not_an_unknown_user() {
    let w = world();
    let me = keypair();
    let mut device = ScannerDevice::default();
    device.enroll("fp_jdoe", 0.95);
    let fiu = Daemon::spawn(
        &w.net,
        w.fw.service_config("fiu_hawk", "Service.Device.FIU", "hawk", "bar", 5300),
        Box::new(Fiu::new(device)),
    )
    .unwrap();
    let reader = Daemon::spawn(
        &w.net,
        w.fw.service_config(
            "ibutton_hawk",
            "Service.Device.IButton",
            "hawk",
            "bar",
            5310,
        ),
        Box::new(IButtonReader::new()),
    )
    .unwrap();
    UserDbClient::connect(&w.net, &"bar".into(), w.aud.addr().clone(), &me)
        .unwrap()
        .add_user(
            "jdoe",
            "John Doe",
            "pw",
            "key",
            Some("fp_jdoe"),
            Some("ib_1"),
        )
        .unwrap();
    w.aud.crash();

    let failed = |daemon: &DaemonHandle, cmd: CmdLine| {
        let mut client =
            ServiceClient::connect(&w.net, &"bar".into(), daemon.addr().clone(), &me).unwrap();
        match client.call(&cmd) {
            Err(ClientError::Service { code, .. }) => code,
            other => panic!("`{cmd}` with the AUD down answered {other:?}"),
        }
    };
    let press = CmdLine::new("press").arg("template", Value::Str("fp_jdoe".into()));
    let touch = CmdLine::new("touch").arg("serial", Value::Str("ib_1".into()));
    assert_eq!(failed(&fiu, press), ErrorCode::Unavailable);
    assert_eq!(failed(&reader, touch), ErrorCode::Unavailable);

    // Both daemons' log casts are in the logger once a later record of each
    // is: nothing of the two attempts reads as an intrusion.
    fiu.shutdown();
    reader.shutdown();
    let mut logger =
        LoggerClient::connect(&w.net, &"core".into(), w.fw.logger_addr.clone(), &me).unwrap();
    let security = logger.tail(20, Some("security")).unwrap();
    assert!(security.is_empty(), "logged as an intrusion: {security:?}");
    w.fw.shutdown();
}

#[test]
fn failed_identification_reaches_security_log() {
    let w = world();
    let me = keypair();

    let fiu = Daemon::spawn(
        &w.net,
        w.fw.service_config("fiu_hawk", "Service.Device.FIU", "hawk", "bar", 5300),
        Box::new(Fiu::new(ScannerDevice::default())),
    )
    .unwrap();
    let monitor = Daemon::spawn(
        &w.net,
        w.fw.service_config(
            "idmonitor",
            "Service.IDMonitor",
            "machineroom",
            "core",
            5301,
        ),
        Box::new(IdMonitor::new()),
    )
    .unwrap();
    IdMonitor::subscribe_to_devices(&w.net, &monitor, &[&fiu], &me).unwrap();

    // An intruder presses an unenrolled finger.
    let mut scanner =
        ServiceClient::connect(&w.net, &"bar".into(), fiu.addr().clone(), &me).unwrap();
    let reply = scanner
        .call(&CmdLine::new("press").arg("template", Value::Str("fp_mallory".into())))
        .unwrap();
    assert_eq!(reply.get_bool("identified"), Some(false));

    // The attempt lands in the security log (via FIU directly and the
    // monitor's onIdentFailed).
    let mut logger =
        LoggerClient::connect(&w.net, &"core".into(), w.fw.logger_addr.clone(), &me).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let security = logger.tail(20, Some("security")).unwrap();
        if !security.is_empty() {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "no security record");
        std::thread::sleep(Duration::from_millis(20));
    }

    monitor.shutdown();
    fiu.shutdown();
    w.aud.shutdown();
    w.fw.shutdown();
}

#[test]
fn ibutton_identification() {
    let w = world();
    let me = keypair();
    let jane = keypair();

    let reader = Daemon::spawn(
        &w.net,
        w.fw.service_config(
            "ibutton_dove",
            "Service.Device.IButton",
            "dove",
            "tube",
            5310,
        ),
        Box::new(IButtonReader::new()),
    )
    .unwrap();

    let mut aud = UserDbClient::connect(&w.net, &"bar".into(), w.aud.addr().clone(), &me).unwrap();
    aud.add_user(
        "jane",
        "Jane Roe",
        "pw",
        &jane.principal(),
        None,
        Some("ib_777"),
    )
    .unwrap();

    let mut r =
        ServiceClient::connect(&w.net, &"tube".into(), reader.addr().clone(), &jane).unwrap();
    let reply = r
        .call(&CmdLine::new("touch").arg("serial", Value::Str("ib_777".into())))
        .unwrap();
    assert_eq!(reply.get_bool("identified"), Some(true));
    assert_eq!(reply.get_text("username"), Some("jane"));

    let reply = r
        .call(&CmdLine::new("touch").arg("serial", Value::Str("ib_000".into())))
        .unwrap();
    assert_eq!(reply.get_bool("identified"), Some(false));

    reader.shutdown();
    w.aud.shutdown();
    w.fw.shutdown();
}

/// Fig. 10 end-to-end: a guarded service fetches the requester's credentials
/// from the Authorization Database per command.
#[test]
fn remote_credentials_authorize_via_authdb() {
    let w = world();
    let admin = keypair();
    let user = keypair();

    let authdb = Daemon::spawn(
        &w.net,
        w.fw.service_config(
            "authdb",
            "Service.Database.Authorization",
            "machineroom",
            "core",
            5400,
        ),
        Box::new(AuthDb::new()),
    )
    .unwrap();

    // Policy root: admin is fully trusted; the guarded service's own key too.
    let service_key = keypair();
    let mut engine = KeyNoteEngine::new();
    for trusted in [&admin, &service_key] {
        engine
            .add_policy(
                Assertion::new(POLICY, Licensees::Principal(trusted.principal()), "true").unwrap(),
            )
            .unwrap();
    }
    let source = RemoteCredentials::new(
        w.net.clone(),
        "bar".into(),
        authdb.addr().clone(),
        keypair(),
    );
    let auth = AuthMode::Local(Arc::new(Authorizer::with_source(engine, Arc::new(source))));

    // A counter-like guarded echo service.
    struct Echo;
    impl ServiceBehavior for Echo {
        fn semantics(&self) -> Semantics {
            Semantics::new().with(CmdSpec::new("touchIt", "guarded command"))
        }
        fn handle(&mut self, _ctx: &mut ServiceCtx, _cmd: &CmdLine, _from: &ClientInfo) -> Reply {
            Reply::ok()
        }
    }
    let guarded = Daemon::spawn(
        &w.net,
        w.fw.service_config("guarded", "Service.Echo", "hawk", "bar", 5401)
            .with_auth(auth)
            .with_identity(service_key),
        Box::new(Echo),
    )
    .unwrap();

    // Before any credential exists, the user is denied.
    let mut as_user =
        ServiceClient::connect(&w.net, &"bar".into(), guarded.addr().clone(), &user).unwrap();
    let err = as_user.call(&CmdLine::new("touchIt")).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Denied));

    // The admin stores a delegation credential in the AuthDB.
    let cred = Assertion::new(
        admin.principal(),
        Licensees::Principal(user.principal()),
        "cmd == \"touchIt\"",
    )
    .unwrap()
    .sign(&admin)
    .unwrap();
    let mut db =
        AuthDbClient::connect(&w.net, &"core".into(), authdb.addr().clone(), &admin).unwrap();
    db.store("grant_user_touch", &cred).unwrap();

    // Now the same command succeeds — the guarded daemon fetched the new
    // credential from the AuthDB (cache was per-decision-key; a *newly
    // allowed* decision key is a cache miss, so no staleness here).
    as_user.call_ok(&CmdLine::new("touchIt")).unwrap();
    // But only that command.
    let err = as_user.call(&CmdLine::new("shutdown")).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Denied));

    guarded.shutdown();
    authdb.shutdown();
    w.aud.shutdown();
    w.fw.shutdown();
}

#[test]
fn authdb_rejects_forged_credentials() {
    let w = world();
    let admin = keypair();
    let user = keypair();

    let authdb = Daemon::spawn(
        &w.net,
        w.fw.service_config(
            "authdb",
            "Service.Database.Authorization",
            "machineroom",
            "core",
            5400,
        ),
        Box::new(AuthDb::new()),
    )
    .unwrap();
    let mut db =
        AuthDbClient::connect(&w.net, &"core".into(), authdb.addr().clone(), &admin).unwrap();

    // Unsigned assertion: rejected at the door.
    let unsigned = Assertion::new(
        admin.principal(),
        Licensees::Principal(user.principal()),
        "true",
    )
    .unwrap();
    let err = db.store("forged", &unsigned).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Denied));
    assert!(db.list().unwrap().is_empty());

    // Valid credential: stored and fetchable by licensee.
    let signed = Assertion::new(
        admin.principal(),
        Licensees::Principal(user.principal()),
        "true",
    )
    .unwrap()
    .sign(&admin)
    .unwrap();
    db.store("good", &signed).unwrap();
    let fetched = db.fetch_for(&user.principal()).unwrap();
    assert_eq!(fetched.len(), 1);
    assert_eq!(fetched[0], signed);
    assert!(db.fetch_for("rsa:nobody:5").unwrap().is_empty());

    // Removal works.
    db.remove("good").unwrap();
    assert!(db.fetch_for(&user.principal()).unwrap().is_empty());

    authdb.shutdown();
    w.aud.shutdown();
    w.fw.shutdown();
}

/// An empty Authorization Database at `core:5400`.
fn spawn_authdb(net: &SimNet) -> DaemonHandle {
    Daemon::spawn(
        net,
        DaemonConfig::new(
            "authdb",
            "Service.Database.Authorization",
            "machineroom",
            "core",
            5400,
        ),
        Box::new(AuthDb::new()),
    )
    .unwrap()
}

/// A stand-alone Authorization Database and, on another host, a camera-like
/// daemon guarded by it (policy root: `admin`).  No framework beside them,
/// so every frame on the net belongs to the test.
struct Guarded {
    net: SimNet,
    admin: KeyPair,
    authdb: DaemonHandle,
    camera: DaemonHandle,
    db: AuthDbClient,
}

impl Guarded {
    fn new() -> Guarded {
        struct Camera;
        impl ServiceBehavior for Camera {
            fn semantics(&self) -> Semantics {
                Semantics::new().with(
                    CmdSpec::new("ptzMove", "guarded command")
                        .required("x", ArgType::Int, "pan")
                        .required("y", ArgType::Int, "tilt")
                        .required("zoom", ArgType::Int, "zoom"),
                )
            }
            fn handle(&mut self, _: &mut ServiceCtx, _: &CmdLine, _: &ClientInfo) -> Reply {
                Reply::ok()
            }
        }

        let net = SimNet::new();
        net.add_host("core");
        net.add_host("bar");
        let admin = keypair();
        let authdb = spawn_authdb(&net);
        let mut engine = KeyNoteEngine::new();
        engine
            .add_policy(
                Assertion::new(POLICY, Licensees::Principal(admin.principal()), "true").unwrap(),
            )
            .unwrap();
        let source =
            RemoteCredentials::new(net.clone(), "bar".into(), authdb.addr().clone(), keypair());
        let auth = AuthMode::Local(Arc::new(Authorizer::with_source(engine, Arc::new(source))));
        let camera = Daemon::spawn(
            &net,
            DaemonConfig::new("camera", "Service.Device.PTZCamera", "hawk", "bar", 5401)
                .with_auth(auth),
            Box::new(Camera),
        )
        .unwrap();
        let db =
            AuthDbClient::connect(&net, &"core".into(), authdb.addr().clone(), &admin).unwrap();
        Guarded {
            net,
            admin,
            authdb,
            camera,
            db,
        }
    }

    /// Store a credential from the admin to `user` under `id`.
    fn grant(&mut self, id: &str, user: &KeyPair, conditions: &str) -> Assertion {
        let credential = Assertion::new(
            self.admin.principal(),
            Licensees::Principal(user.principal()),
            conditions,
        )
        .unwrap()
        .sign(&self.admin)
        .unwrap();
        self.db.store(id, &credential).unwrap();
        credential
    }

    fn client(&self, user: &KeyPair) -> ServiceClient {
        ServiceClient::connect(&self.net, &"bar".into(), self.camera.addr().clone(), user).unwrap()
    }

    /// Shut the AuthDB down and spawn an empty one at the same address; the
    /// admin's client dials the new one.
    fn restart_authdb(&mut self) {
        self.authdb.shutdown();
        self.authdb = spawn_authdb(&self.net);
        self.db = AuthDbClient::connect(
            &self.net,
            &"core".into(),
            self.authdb.addr().clone(),
            &self.admin,
        )
        .unwrap();
    }

    /// `fetchCredentials` commands the AuthDB has served so far.
    fn fetches(&self) -> u64 {
        let served = self.authdb.metrics().histogram("cmd.fetchCredentials");
        served.snapshot().count
    }

    fn shutdown(self) {
        self.camera.shutdown();
        self.authdb.shutdown();
    }
}

fn ptz_move(x: i64, y: i64, zoom: i64) -> CmdLine {
    CmdLine::new("ptzMove")
        .arg("x", x)
        .arg("y", y)
        .arg("zoom", zoom)
}

/// The authorization fast path end to end: the guarded daemon asks the
/// AuthDB once per (user, what the user's credentials read), not once per
/// argument tuple — and still every time for a user it has to deny.
#[test]
fn argument_tuples_share_one_credential_fetch() {
    let mut g = Guarded::new();
    let (roamer, zoomer, stranger) = (keypair(), keypair(), keypair());
    g.grant("roamer_hawk", &roamer, "room == \"hawk\"");
    g.grant("zoomer_near", &zoomer, "arg_zoom <= 10");

    // 50 distinct (x, y, zoom): one fetch, one KeyNote evaluation.
    let mut as_roamer = g.client(&roamer);
    for i in 0..50 {
        as_roamer.call_ok(&ptz_move(i, 100 - i, 1 + i % 7)).unwrap();
    }
    assert_eq!(g.fetches(), 1);
    let decisions = g.camera.metrics();
    assert_eq!(decisions.counter("auth.cache_hits").get(), 49);
    assert_eq!(decisions.counter("auth.cache_misses").get(), 1);

    // An argument a credential does read still decides, and still keys.
    let mut as_zoomer = g.client(&zoomer);
    as_zoomer.call_ok(&ptz_move(0, 0, 5)).unwrap();
    let err = as_zoomer.call(&ptz_move(0, 0, 50)).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Denied));
    let before = (g.fetches(), decisions.counter("auth.cache_hits").get());
    for i in 1..=10 {
        as_zoomer.call_ok(&ptz_move(i, -i, 5)).unwrap();
    }
    let after = (g.fetches(), decisions.counter("auth.cache_hits").get());
    assert_eq!(
        after,
        (before.0, before.1 + 10),
        "x and y vary, zoom=5 hits"
    );
    let err = as_zoomer.call(&ptz_move(3, 3, 50)).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Denied));

    // No credential: denied every time, and asked about every time — a
    // denial is never remembered against a credential stored later.
    let mut as_stranger = g.client(&stranger);
    let before = g.fetches();
    for i in 0..5 {
        let err = as_stranger.call(&ptz_move(i, i, 1)).unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::Denied));
    }
    assert_eq!(g.fetches(), before + 5);
    g.grant("stranger_hawk", &stranger, "room == \"hawk\"");
    as_stranger.call_ok(&ptz_move(0, 0, 1)).unwrap();

    g.shutdown();
}

/// Nobody named: the reply is `ok count=0;` alone — no empty `sizes={}`, no
/// empty attachment — and it reads as no credentials.  The exchange moves
/// 112 B (137 B from PR 15 to PR 24, the reply carrying both).
#[test]
fn an_empty_fetch_is_count_zero_alone() {
    let mut g = Guarded::new();
    let nobody = keypair();
    let mut raw =
        ServiceClient::connect(&g.net, &"core".into(), g.authdb.addr().clone(), &g.admin).unwrap();
    let ask = CmdLine::new("fetchCredentials").arg("licensee", Value::Str(nobody.principal()));
    raw.call(&ask).unwrap();
    let before = g.net.metrics().snapshot();
    let reply = raw.call(&ask).unwrap();
    let moved = g.net.metrics().snapshot().since(&before);
    assert_eq!(reply.to_wire(), "ok count=0;");
    assert!(moved.frame_bytes <= 112, "{} B", moved.frame_bytes);
    assert!(g.db.fetch_for(&nobody.principal()).unwrap().is_empty());
    g.shutdown();
}

/// Credentials cross the wire once, as blobs: six 164-byte credentials are
/// fetched in under 1,250 bytes of frames (2,106 when they travelled as hex
/// words), and a text client's hex word is still a `storeCredential text=`.
#[test]
fn credentials_travel_as_blobs() {
    let mut g = Guarded::new();
    let user = keypair();
    let mut stored = Vec::new();
    for room in ["r00", "r01", "r02", "r03", "r04"] {
        stored.push(g.grant(&format!("c_{room}"), &user, &format!("room == \"{room}\"")));
    }
    // The sixth the way a text-only client writes it.
    let by_hand = Assertion::new(
        g.admin.principal(),
        Licensees::Principal(user.principal()),
        "room == \"r05\"",
    )
    .unwrap()
    .sign(&g.admin)
    .unwrap();
    let hex_word = ace_core::protocol::hex_encode(by_hand.to_text().as_bytes());
    let line = format!("storeCredential id=c_r05 text={hex_word};");
    let mut text_client =
        ServiceClient::connect(&g.net, &"core".into(), g.authdb.addr().clone(), &g.admin).unwrap();
    text_client
        .call_ok(&CmdLine::parse(&line).unwrap())
        .unwrap();
    stored.push(by_hand);

    let before = g.net.metrics().snapshot();
    let fetched = g.db.fetch_for(&user.principal()).unwrap();
    let moved = g.net.metrics().snapshot().since(&before);
    assert_eq!(fetched, stored);
    assert_eq!(moved.frames, 2, "one command, one reply");
    let text_bytes: usize = stored.iter().map(|c| c.to_text().len()).sum();
    assert!(
        (text_bytes as u64..=1250).contains(&moved.frame_bytes),
        "{} B of frames for {text_bytes} B of credentials",
        moved.frame_bytes
    );

    g.shutdown();
}

/// A guarded daemon's fetches ride a pooled link to the AuthDB: after the
/// AuthDB restarts at the same address, the next guarded command is still
/// authorized, over one redial.
#[test]
fn a_restarted_authdb_is_redialed_once() {
    let mut g = Guarded::new();
    let (early, late) = (keypair(), keypair());
    g.grant("early_hawk", &early, "room == \"hawk\"");
    g.client(&early).call_ok(&ptz_move(0, 0, 1)).unwrap();

    g.restart_authdb();
    g.grant("late_hawk", &late, "room == \"hawk\"");
    let mut as_late = g.client(&late);
    let before = g.net.metrics().snapshot();
    as_late.call_ok(&ptz_move(0, 0, 1)).unwrap();
    let dialed = g.net.metrics().snapshot().since(&before).connections;
    assert_eq!(dialed, 1, "one redial to the new AuthDB");
    assert_eq!(g.fetches(), 1, "asked the new AuthDB once");
    g.shutdown();
}

/// What a guarded daemon asks the AuthDB is the parent's frame, byte for
/// byte (taken before fetches rode the pool): the licensee, and the default
/// call timeout as its `deadline=`.
#[test]
fn a_credential_fetch_is_the_parents_frame() {
    use ace_core::{CredentialSource, SecureLink};
    let net = SimNet::new();
    net.add_host("core");
    net.add_host("bar");
    let at = Addr::new("core", 5400);
    let listener = net.listen(at.clone()).unwrap();
    let source = RemoteCredentials::new(net.clone(), "bar".into(), at, keypair());
    std::thread::scope(|scope| {
        let fetched = scope.spawn(|| source.credentials_for("rsa:golden:7", &Default::default()));
        let mut authdb = SecureLink::accept(listener.accept().unwrap(), &keypair()).unwrap();
        let opened = Arc::new(ace_core::Counter::default());
        authdb.attach_metrics(Arc::clone(&opened));
        let ask = authdb.recv_cmd(Duration::from_secs(5)).unwrap();
        assert_eq!(
            ask.to_frame(),
            b"fetchCredentials licensee=\"rsa:golden:7\" deadline=5000;"
        );
        assert_eq!(opened.get(), 71, "sealed bytes");
        authdb
            .send_cmd(&CmdLine::parse("ok count=0;").unwrap())
            .unwrap();
        assert!(fetched.join().unwrap().is_empty());
    });
}
