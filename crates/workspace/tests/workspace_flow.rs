//! Integration tests of the workspace tier: session hosting, viewer
//! replication (Fig. 16), password gating, and the WSS event wiring of
//! Scenarios 1, 3, and 4.

use ace_core::prelude::*;
use ace_core::protocol::hex_encode;
use ace_directory::{bootstrap, Framework};
use ace_identity::{IdMonitor, UserDb, UserDbClient};
use ace_resources::{spawn_host_services, spawn_system_services, HostProfile};
use ace_security::keys::KeyPair;
use ace_workspace::{wire_wss, VncHost, VncViewer, Wss};
use std::time::Duration;

fn keypair() -> KeyPair {
    KeyPair::generate(&mut rand::thread_rng())
}

struct World {
    net: SimNet,
    fw: Framework,
    extra: Vec<DaemonHandle>,
}

fn world(hosts: &[&str]) -> World {
    let net = SimNet::new();
    net.add_host("core");
    for h in hosts {
        net.add_host(*h);
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    World {
        net,
        fw,
        extra: Vec::new(),
    }
}

impl World {
    fn teardown(self) {
        for d in self.extra.into_iter().rev() {
            d.shutdown();
        }
        self.fw.shutdown();
    }
}

#[test]
fn viewer_replicates_session_framebuffer() {
    let mut w = world(&["vhost", "podium"]);
    let me = keypair();
    let vnc = Daemon::spawn(
        &w.net,
        w.fw.service_config("vnc_vhost", "Service.VNCHost", "machineroom", "vhost", 5500),
        Box::new(VncHost::new()),
    )
    .unwrap();

    let mut client =
        ServiceClient::connect(&w.net, &"podium".into(), vnc.addr().clone(), &me).unwrap();
    let created = client
        .call(
            &CmdLine::new("vncCreate")
                .arg("user", "jdoe")
                .arg("password", Value::Str("s3cret".into()))
                .arg("width", 320)
                .arg("height", 240),
        )
        .unwrap();
    let session = created.get_text("session").unwrap().to_string();

    // Draw before the viewer attaches — the attach-time full transfer must
    // cover it.
    client
        .call(
            &CmdLine::new("vncDraw")
                .arg("session", session.as_str())
                .arg("x", 0)
                .arg("y", 0)
                .arg("w", 100)
                .arg("h", 80)
                .arg("data", hex_encode(b"xterm")),
        )
        .unwrap();

    let mut viewer = VncViewer::attach(
        &w.net,
        &"podium".into(),
        6000,
        vnc.addr(),
        &session,
        "s3cret",
        &me,
    )
    .unwrap();
    // Drain the full-frame transfer.
    while viewer.pump_wait(Duration::from_millis(300)) > 0 {}

    // Draw after attach — incremental updates flow.
    client
        .call(
            &CmdLine::new("vncDraw")
                .arg("session", session.as_str())
                .arg("x", 120)
                .arg("y", 60)
                .arg("w", 64)
                .arg("h", 64)
                .arg("data", hex_encode(b"presentation.ppt")),
        )
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        viewer.pump_wait(Duration::from_millis(100));
        let state = client
            .call(&CmdLine::new("vncState").arg("session", session.as_str()))
            .unwrap();
        let server_sum = state.get_text("checksum").unwrap().to_string();
        if format!("x{:016x}", viewer.checksum()) == server_sum {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "viewer never converged"
        );
    }

    w.extra.push(vnc);
    w.teardown();
}

/// `vncDraw`'s `data` is a blob: drawn as raw bytes or as their hex word —
/// what every sender wrote before, byte for byte — the same rectangle paints
/// the same tiles, and a word that is not hex is refused before it runs.
#[test]
fn vnc_draw_takes_hex_or_blob_data_alike() {
    let mut w = world(&["vhost"]);
    let me = keypair();
    let vnc = Daemon::spawn(
        &w.net,
        w.fw.service_config("vnc_vhost", "Service.VNCHost", "machineroom", "vhost", 5500),
        Box::new(VncHost::new()),
    )
    .unwrap();
    let mut client =
        ServiceClient::connect(&w.net, &"core".into(), vnc.addr().clone(), &me).unwrap();
    let draw = |session: &str, data: Value| {
        CmdLine::new("vncDraw")
            .arg("session", session)
            .arg("x", 10)
            .arg("y", 20)
            .arg("w", 100)
            .arg("h", 50)
            .arg("data", data)
    };
    let content = b"presentation.ppt";
    let hex = Value::from(hex_encode(content));
    assert!(matches!(hex, Value::Word(_)), "{hex:?}");
    assert_eq!(
        draw("ws_1", hex.clone()).to_wire(),
        "vncDraw session=ws_1 x=10 y=20 w=100 h=50 data=x70726573656e746174696f6e2e707074;"
    );

    let mut painted = Vec::new();
    for data in [hex, Value::from(&content[..])] {
        let created = client
            .call(
                &CmdLine::new("vncCreate")
                    .arg("user", "jdoe")
                    .arg("password", Value::Str("pw".into())),
            )
            .unwrap();
        let session = created.get_text("session").unwrap().to_string();
        let drawn = client.call(&draw(&session, data)).unwrap();
        let state = client
            .call(&CmdLine::new("vncState").arg("session", session.as_str()))
            .unwrap();
        painted.push((
            drawn.get_int("tiles"),
            drawn.get_int("seq"),
            state.get_text("checksum").unwrap().to_string(),
        ));
    }
    assert!(painted[0].0 > Some(0), "{painted:?}");
    assert_eq!(painted[0], painted[1]);

    let err = client
        .call(&draw("ws_1", Value::Word("xnothex".into())))
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Semantics));

    w.extra.push(vnc);
    w.teardown();
}

/// A blank session holds no tile grid, and `vncAttach` and `vncState` still
/// answer it — and a drawn one — byte for byte as when every session
/// allocated its grid at creation.  The strings were produced by that commit.
#[test]
fn attach_and_state_answer_blank_and_drawn_sessions_as_before() {
    let mut w = world(&["vhost", "podium"]);
    let me = keypair();
    let vnc = Daemon::spawn(
        &w.net,
        w.fw.service_config("vnc_vhost", "Service.VNCHost", "machineroom", "vhost", 5500),
        Box::new(VncHost::new()),
    )
    .unwrap();
    let mut client =
        ServiceClient::connect(&w.net, &"podium".into(), vnc.addr().clone(), &me).unwrap();
    let mut replies = Vec::new();
    for drawn in [false, true] {
        let created = client
            .call(
                &CmdLine::new("vncCreate")
                    .arg("user", "jdoe")
                    .arg("password", Value::Str("pw".into())),
            )
            .unwrap();
        let session = created.get_text("session").unwrap().to_string();
        if drawn {
            let draw = CmdLine::new("vncDraw")
                .arg("session", session.as_str())
                .arg("x", 10)
                .arg("y", 20)
                .arg("w", 100)
                .arg("h", 50)
                .arg("data", &b"presentation.ppt"[..]);
            client.call(&draw).unwrap();
        }
        let attach = CmdLine::new("vncAttach")
            .arg("session", session.as_str())
            .arg("password", Value::Str("pw".into()))
            .arg("host", "podium")
            .arg("port", 6000);
        replies.push(client.call(&attach).unwrap().to_wire());
        let state = CmdLine::new("vncState").arg("session", session.as_str());
        replies.push(client.call(&state).unwrap().to_wire());
    }
    assert_eq!(replies, GOLDEN_ATTACH_AND_STATE);
    w.extra.push(vnc);
    w.teardown();
}

const GOLDEN_ATTACH_AND_STATE: [&str; 4] = [
    "ok width=1024 height=768 checksum=x332fc06af0b9a325;",
    "ok user=jdoe viewers=1 inputs=0 seq=0 checksum=x332fc06af0b9a325;",
    "ok width=1024 height=768 checksum=xed14df16052dc2e0;",
    "ok user=jdoe viewers=1 inputs=0 seq=28 checksum=xed14df16052dc2e0;",
];

#[test]
fn attach_requires_password() {
    let mut w = world(&["vhost", "podium"]);
    let me = keypair();
    let vnc = Daemon::spawn(
        &w.net,
        w.fw.service_config("vnc_vhost", "Service.VNCHost", "machineroom", "vhost", 5500),
        Box::new(VncHost::new()),
    )
    .unwrap();
    let mut client =
        ServiceClient::connect(&w.net, &"podium".into(), vnc.addr().clone(), &me).unwrap();
    let created = client
        .call(
            &CmdLine::new("vncCreate")
                .arg("user", "jdoe")
                .arg("password", Value::Str("right".into())),
        )
        .unwrap();
    let session = created.get_text("session").unwrap().to_string();

    let err = VncViewer::attach(
        &w.net,
        &"podium".into(),
        6000,
        vnc.addr(),
        &session,
        "wrong",
        &me,
    )
    .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Denied));

    // Input events reach the session; state reflects them.
    client
        .call_ok(
            &CmdLine::new("vncInput")
                .arg("session", session.as_str())
                .arg("event", Value::Str("key:Enter".into())),
        )
        .unwrap();
    let state = client
        .call(&CmdLine::new("vncState").arg("session", session.as_str()))
        .unwrap();
    assert_eq!(state.get_int("inputs"), Some(1));

    w.extra.push(vnc);
    w.teardown();
}

/// Scenario 1 end-to-end: adding a user provisions a default workspace
/// through AUD → WSS → SAL → SRM → HAL → VNC host.
#[test]
fn scenario1_new_user_gets_default_workspace() {
    let mut w = world(&["bar", "tube"]);
    let me = keypair();
    let john = keypair();

    // Resource tier on both hosts, VNC hosts on both, system services.
    for h in ["bar", "tube"] {
        let (hrm, hal) = spawn_host_services(&w.net, &w.fw, h, HostProfile::default()).unwrap();
        w.extra.push(hrm);
        w.extra.push(hal);
        let vnc = Daemon::spawn(
            &w.net,
            w.fw.service_config(
                &format!("vnc_{h}"),
                "Service.VNCHost",
                "machineroom",
                h,
                5500,
            ),
            Box::new(VncHost::new()),
        )
        .unwrap();
        w.extra.push(vnc);
    }
    let (srm, sal) = spawn_system_services(&w.net, &w.fw, "core").unwrap();
    w.extra.push(srm);
    w.extra.push(sal);

    let aud = Daemon::spawn(
        &w.net,
        w.fw.service_config("aud", "Service.Database.User", "machineroom", "core", 5200),
        Box::new(UserDb::new()),
    )
    .unwrap();
    let wss = Daemon::spawn(
        &w.net,
        w.fw.service_config(
            "wss",
            "Service.WorkspaceServer",
            "machineroom",
            "core",
            5600,
        ),
        Box::new(Wss::new()),
    )
    .unwrap();
    wire_wss(&w.net, &wss, &aud, None, &me).unwrap();

    // The administrator registers John (Scenario 1).
    let mut aud_client =
        UserDbClient::connect(&w.net, &"core".into(), aud.addr().clone(), &me).unwrap();
    aud_client
        .add_user(
            "jdoe",
            "John Doe",
            "pw",
            &john.principal(),
            Some("fp_jdoe"),
            None,
        )
        .unwrap();

    // The default workspace appears (async notification chain).
    let mut wss_client =
        ServiceClient::connect(&w.net, &"core".into(), wss.addr().clone(), &me).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let list = loop {
        let reply = wss_client
            .call(&CmdLine::new("wssList").arg("user", "jdoe"))
            .unwrap();
        if reply.get_int("count") == Some(1) {
            break reply;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "default workspace never appeared"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let rows = list.get_array("workspaces").unwrap();
    assert_eq!(rows[0][0].as_text(), Some("default"));

    w.extra.push(aud);
    w.extra.push(wss);
    w.teardown();
}

/// Scenarios 2+3+4 end-to-end: identification at the podium brings up the
/// single workspace; with two workspaces the selector event fires instead.
#[test]
fn scenario3_and_4_show_and_selector() {
    let w = world(&["bar", "podium"]);
    let me = keypair();
    let john = keypair();

    let vnc = Daemon::spawn(
        &w.net,
        w.fw.service_config("vnc_bar", "Service.VNCHost", "machineroom", "bar", 5500),
        Box::new(VncHost::new()),
    )
    .unwrap();
    let aud = Daemon::spawn(
        &w.net,
        w.fw.service_config("aud", "Service.Database.User", "machineroom", "core", 5200),
        Box::new(UserDb::new()),
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
    let fiu = Daemon::spawn(
        &w.net,
        w.fw.service_config("fiu_hawk", "Service.Device.FIU", "hawk", "podium", 5300),
        Box::new(ace_identity::Fiu::new({
            let mut d = ace_identity::ScannerDevice::default();
            d.enroll("fp_jdoe", 0.95);
            d
        })),
    )
    .unwrap();
    ace_identity::IdMonitor::subscribe_to_devices(&w.net, &monitor, &[&fiu], &me).unwrap();
    let wss = Daemon::spawn(
        &w.net,
        w.fw.service_config(
            "wss",
            "Service.WorkspaceServer",
            "machineroom",
            "core",
            5600,
        ),
        Box::new(Wss::new()),
    )
    .unwrap();
    wire_wss(&w.net, &wss, &aud, Some(&monitor), &me).unwrap();

    // A listener service records workspaceReady / workspaceSelector events.
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};
    #[derive(Default)]
    struct Recorder {
        ready: Arc<AtomicU64>,
        selector: Arc<AtomicU64>,
        last_ready: Arc<Mutex<Option<CmdLine>>>,
    }
    impl ServiceBehavior for Recorder {
        fn semantics(&self) -> Semantics {
            Semantics::new()
                .with(
                    CmdSpec::new("onReady", "sink")
                        .optional("service", ArgType::Str, "")
                        .optional("cmd", ArgType::Str, "")
                        .optional("username", ArgType::Word, "")
                        .optional("workspace", ArgType::Word, "")
                        .optional("session", ArgType::Word, "")
                        .optional("vncHost", ArgType::Word, "")
                        .optional("vncPort", ArgType::Int, "")
                        .optional("password", ArgType::Str, "")
                        .optional("accessHost", ArgType::Word, ""),
                )
                .with(
                    CmdSpec::new("onSelector", "sink")
                        .optional("service", ArgType::Str, "")
                        .optional("cmd", ArgType::Str, "")
                        .optional("username", ArgType::Word, "")
                        .optional("accessHost", ArgType::Word, "")
                        .optional("workspaces", ArgType::Vector(ace_lang::ScalarType::Str), ""),
                )
        }
        fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
            match cmd.name() {
                "onReady" => {
                    self.ready.fetch_add(1, Ordering::SeqCst);
                    *self.last_ready.lock().unwrap() = Some(cmd.clone());
                }
                "onSelector" => {
                    self.selector.fetch_add(1, Ordering::SeqCst);
                }
                _ => {}
            }
            Reply::ok()
        }
    }
    let recorder = Recorder::default();
    let ready = Arc::clone(&recorder.ready);
    let selector = Arc::clone(&recorder.selector);
    let last_ready = Arc::clone(&recorder.last_ready);
    let rec = Daemon::spawn(
        &w.net,
        w.fw.service_config("recorder", "Service.Test", "machineroom", "core", 5700),
        Box::new(recorder),
    )
    .unwrap();
    let mut to_wss =
        ServiceClient::connect(&w.net, &"core".into(), wss.addr().clone(), &me).unwrap();
    for (event, sink) in [
        ("workspaceReady", "onReady"),
        ("workspaceSelector", "onSelector"),
    ] {
        to_wss
            .call_ok(
                &CmdLine::new("addNotification")
                    .arg("cmd", event)
                    .arg("service", "recorder")
                    .arg("host", "core")
                    .arg("port", 5700)
                    .arg("notifyCmd", sink),
            )
            .unwrap();
    }

    // Register John (auto-creates the default workspace).
    let mut aud_client =
        UserDbClient::connect(&w.net, &"core".into(), aud.addr().clone(), &me).unwrap();
    aud_client
        .add_user(
            "jdoe",
            "John Doe",
            "pw",
            &john.principal(),
            Some("fp_jdoe"),
            None,
        )
        .unwrap();
    // Wait for the workspace to exist.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while to_wss
        .call(&CmdLine::new("wssList").arg("user", "jdoe"))
        .unwrap()
        .get_int("count")
        != Some(1)
    {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(20));
    }

    // Scenario 3: John identifies at the podium → workspaceReady.
    let mut scanner =
        ServiceClient::connect(&w.net, &"podium".into(), fiu.addr().clone(), &john).unwrap();
    scanner
        .call(&CmdLine::new("press").arg("template", Value::Str("fp_jdoe".into())))
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while ready.load(Ordering::SeqCst) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "workspaceReady never fired"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The event carries everything the access point needs to attach.
    let event = last_ready.lock().unwrap().clone().unwrap();
    assert_eq!(event.get_text("accessHost"), Some("podium"));
    let session = event.get_text("session").unwrap().to_string();
    let password = event.get_text("password").unwrap().to_string();
    let vnc_addr = Addr::new(
        event.get_text("vncHost").unwrap(),
        event.get_int("vncPort").unwrap() as u16,
    );
    let viewer = VncViewer::attach(
        &w.net,
        &"podium".into(),
        6100,
        &vnc_addr,
        &session,
        &password,
        &me,
    );
    assert!(
        viewer.is_ok(),
        "access point can attach with the event's coordinates"
    );

    // Scenario 4: a second workspace → the selector fires on the next
    // identification.
    to_wss
        .call(
            &CmdLine::new("wssCreate")
                .arg("user", "jdoe")
                .arg("name", "slides"),
        )
        .unwrap();
    scanner
        .call(&CmdLine::new("press").arg("template", Value::Str("fp_jdoe".into())))
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while selector.load(Ordering::SeqCst) == 0 {
        assert!(std::time::Instant::now() < deadline, "selector never fired");
        std::thread::sleep(Duration::from_millis(20));
    }
    // And the confirm path: explicit show of the chosen workspace.
    let shown = to_wss
        .call(
            &CmdLine::new("wssShow")
                .arg("user", "jdoe")
                .arg("name", "slides")
                .arg("accessHost", "podium"),
        )
        .unwrap();
    assert!(shown.get_text("session").is_some());

    for d in [rec, wss, fiu, monitor, aud, vnc] {
        d.shutdown();
    }
    w.teardown();
}

#[test]
fn wss_remove_closes_session() {
    let mut w = world(&["bar"]);
    let me = keypair();
    let vnc = Daemon::spawn(
        &w.net,
        w.fw.service_config("vnc_bar", "Service.VNCHost", "machineroom", "bar", 5500),
        Box::new(VncHost::new()),
    )
    .unwrap();
    let wss = Daemon::spawn(
        &w.net,
        w.fw.service_config(
            "wss",
            "Service.WorkspaceServer",
            "machineroom",
            "core",
            5600,
        ),
        Box::new(Wss::new()),
    )
    .unwrap();

    let mut client =
        ServiceClient::connect(&w.net, &"core".into(), wss.addr().clone(), &me).unwrap();
    let created = client
        .call(&CmdLine::new("wssCreate").arg("user", "jdoe"))
        .unwrap();
    let session = created.get_text("session").unwrap().to_string();

    client
        .call_ok(
            &CmdLine::new("wssRemove")
                .arg("user", "jdoe")
                .arg("name", "default"),
        )
        .unwrap();

    // The session is gone from the VNC host's list soon after: the close is
    // a cast the WSS does not wait for.
    let mut vnc_client =
        ServiceClient::connect(&w.net, &"core".into(), vnc.addr().clone(), &me).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let listed = vnc_client.call(&CmdLine::new("vncList")).unwrap();
        if listed.get_int("count") == Some(0) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "`vncList` still holds the removed session: {listed}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let err = vnc_client
        .call(&CmdLine::new("vncState").arg("session", session.as_str()))
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::NotFound));

    // Duplicate create rejected; unknown remove rejected.
    client
        .call(&CmdLine::new("wssCreate").arg("user", "jdoe"))
        .unwrap();
    let err = client
        .call(&CmdLine::new("wssCreate").arg("user", "jdoe"))
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::BadState));

    w.extra.push(vnc);
    w.extra.push(wss);
    w.teardown();
}

/// `onUserAt` is a notification: the ID Monitor's notifier asked for
/// nothing, so the reply must not hand it the attach coordinates and VNC
/// password that `workspaceReady` (and an explicit `wssShow`) carry.
#[test]
fn user_at_notification_reply_carries_no_password() {
    let mut w = world(&["bar", "podium"]);
    let me = keypair();
    let vnc = Daemon::spawn(
        &w.net,
        w.fw.service_config("vnc_bar", "Service.VNCHost", "machineroom", "bar", 5500),
        Box::new(VncHost::new()),
    )
    .unwrap();
    let wss = Daemon::spawn(
        &w.net,
        w.fw.service_config(
            "wss",
            "Service.WorkspaceServer",
            "machineroom",
            "core",
            5600,
        ),
        Box::new(Wss::new()),
    )
    .unwrap();
    let mut client =
        ServiceClient::connect(&w.net, &"core".into(), wss.addr().clone(), &me).unwrap();
    client
        .call(&CmdLine::new("wssCreate").arg("user", "jdoe"))
        .unwrap();

    let notified = client
        .call(
            &CmdLine::new("onUserAt")
                .arg("username", "jdoe")
                .arg("accessHost", "podium"),
        )
        .unwrap();
    for secret in ["password", "session", "vncHost", "vncPort"] {
        assert!(
            notified.get(secret).is_none(),
            "onUserAt reply leaks `{secret}`: {notified}"
        );
    }
    let stats = client.call(&CmdLine::new("wssStats")).unwrap();
    assert_eq!(stats.get_int("shows"), Some(1), "the show still happened");

    let shown = client
        .call(
            &CmdLine::new("wssShow")
                .arg("user", "jdoe")
                .arg("accessHost", "podium"),
        )
        .unwrap();
    assert!(shown.get_text("password").is_some_and(|p| !p.is_empty()));
    assert!(shown.get_text("session").is_some());

    w.extra.push(vnc);
    w.extra.push(wss);
    w.teardown();
}
