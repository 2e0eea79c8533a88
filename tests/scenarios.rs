//! The paper's §7 scenarios, end-to-end against the full environment.
//!
//! "All of these scenarios have already been attempted and have
//! successfully run in the current version of ACE" — these tests are the
//! reproduction's equivalent statement.

use ace_core::prelude::*;
use ace_env::{AceEnvironment, EnvConfig};
use ace_security::keys::KeyPair;
use ace_store::StoreClient;
use ace_workspace::VncViewer;
use std::time::Duration;

fn keypair() -> KeyPair {
    KeyPair::generate(&mut rand::thread_rng())
}

fn env() -> AceEnvironment {
    AceEnvironment::build(EnvConfig::default()).expect("environment builds")
}

fn wait_until(deadline: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let end = std::time::Instant::now() + deadline;
    while std::time::Instant::now() < end {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    false
}

/// Scenario 1: a new employee gets an ACE account and a default workspace
/// appears, placed through SAL → SRM → HAL.
#[test]
fn scenario1_new_user_and_workspace() {
    let ace = env();
    let john = keypair();

    ace.register_user("jdoe", "John Doe", "hunter2", &john, Some("fp_jdoe"), None)
        .unwrap();

    let mut wss = ace.client("wss").unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            wss.call(&CmdLine::new("wssList").arg("user", "jdoe"))
                .map(|r| r.get_int("count") == Some(1))
                .unwrap_or(false)
        }),
        "default workspace provisioned"
    );

    // The VNC server process was accounted on some host through the SAL.
    // The SRM answers from its last poll of the HRMs (every 200 ms), and a
    // poll that lands between its own `bestHost` charge and the HAL's
    // `addLoad` shows zero until the next one — so look again, not once.
    let mut srm = ace.client("srm").unwrap();
    let mut rows = Vec::new();
    assert!(
        wait_until(Duration::from_secs(2), || {
            let reply = srm.call(&CmdLine::new("systemResources")).unwrap();
            rows = ace_resources::system_rows_from_value(reply.get("hosts").unwrap()).unwrap();
            rows.iter().map(|r| r.5).sum::<i64>() >= 1
        }),
        "vncserver accounted: {rows:?}"
    );

    ace.shutdown();
}

/// Scenarios 2 + 3: identification at the podium updates the user's
/// location and brings the workspace to the access point (the Fig. 19
/// step sequence); every command refused along the way is read by verb and
/// code.
#[test]
fn scenario2_and_3_identify_and_show_workspace() {
    let ace = env();
    let john = keypair();
    ace.register_user("jdoe", "John Doe", "hunter2", &john, Some("fp_jdoe"), None)
        .unwrap();

    // Wait for the default workspace first.
    let mut wss = ace.client("wss").unwrap();
    assert!(wait_until(Duration::from_secs(10), || {
        wss.call(&CmdLine::new("wssList").arg("user", "jdoe"))
            .map(|r| r.get_int("count") == Some(1))
            .unwrap_or(false)
    }));

    // John presses his thumb to the podium scanner.
    let reply = ace.press_finger("fp_jdoe").unwrap();
    assert_eq!(reply.get_bool("identified"), Some(true));

    // Step 3 of Fig. 19: the AUD knows where John is.
    let mut aud = ace.client("aud").unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            aud.call(&CmdLine::new("getLocation").arg("username", "jdoe"))
                .map(|r| r.get_text("room") == Some("hawk") && r.get_text("host") == Some("podium"))
                .unwrap_or(false)
        }),
        "location updated"
    );

    // Steps 4-7: the workspace was shown at the podium.
    assert!(
        wait_until(Duration::from_secs(10), || {
            wss.call(&CmdLine::new("wssStats"))
                .map(|r| r.get_int("shows").unwrap_or(0) >= 1)
                .unwrap_or(false)
        }),
        "workspace shown at the access point"
    );

    // An intruder is rejected and logged.
    let reply = ace.press_finger("fp_mallory").unwrap();
    assert_eq!(reply.get_bool("identified"), Some(false));

    assert_every_refusal_is_read_by_verb_and_code(&ace);
    ace.shutdown();
}

/// Every command a daemon refused is accounted by verb and code: each
/// daemon's `aceStats` reads a `cmd.errors` equal to the sum of its
/// `cmd.errors.<verb>.<code>` lines, so a cast that failed where its sender
/// cannot hear it is still read, and by what.
fn assert_every_refusal_is_read_by_verb_and_code(ace: &AceEnvironment) {
    // The viewer's launch is a cast: wait until the SAL has served both
    // launches (the default workspace's server and the viewer).
    let mut sal = ace.client("sal").unwrap();
    assert!(wait_until(Duration::from_secs(10), || {
        sal.call(&CmdLine::new("aceStats").arg("prefix", "cmd.launch"))
            .map(|r| {
                StatsReport::from_cmdline(&r)
                    .histograms
                    .get("cmd.launch")
                    .is_some_and(|h| h.count >= 2)
            })
            .unwrap_or(false)
    }));

    let framework = [&ace.fw.asd, &ace.fw.roomdb, &ace.fw.logger];
    let store = ace.store.iter().flatten().map(|(handle, _)| handle);
    let daemons: Vec<&DaemonHandle> = ace.daemons.values().chain(framework).chain(store).collect();
    assert!(daemons.len() > 10, "{} daemons", daemons.len());
    for daemon in daemons {
        let mut client =
            ServiceClient::connect(&ace.net, &"core".into(), daemon.addr().clone(), &ace.admin)
                .unwrap();
        let stats = StatsReport::from_cmdline(
            &client
                .call(&CmdLine::new("aceStats").arg("prefix", "cmd.errors"))
                .unwrap(),
        );
        let by_verb: u64 = stats
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("cmd.errors."))
            .map(|(_, n)| n)
            .sum();
        assert_eq!(
            stats.counters["cmd.errors"],
            by_verb,
            "{}: {:?}",
            daemon.name(),
            stats.counters
        );
    }
}

/// Scenario 4: with two workspaces the selector is raised instead of an
/// automatic show, and an explicit `wssShow` confirms the choice — the
/// access point attaches a viewer with the returned coordinates.
#[test]
fn scenario4_multiple_workspaces() {
    let ace = env();
    let john = keypair();
    ace.register_user("jdoe", "John Doe", "hunter2", &john, Some("fp_jdoe"), None)
        .unwrap();

    let mut wss = ace.client("wss").unwrap();
    assert!(wait_until(Duration::from_secs(10), || {
        wss.call(&CmdLine::new("wssList").arg("user", "jdoe"))
            .map(|r| r.get_int("count") == Some(1))
            .unwrap_or(false)
    }));
    // A second workspace for the presentation.
    wss.call(
        &CmdLine::new("wssCreate")
            .arg("user", "jdoe")
            .arg("name", "slides"),
    )
    .unwrap();

    let shows_before = wss
        .call(&CmdLine::new("wssStats"))
        .unwrap()
        .get_int("shows")
        .unwrap();

    // Identification now must NOT auto-show (selector instead).
    ace.press_finger("fp_jdoe").unwrap();
    std::thread::sleep(Duration::from_millis(400));
    let shows_after = wss
        .call(&CmdLine::new("wssStats"))
        .unwrap()
        .get_int("shows")
        .unwrap();
    assert_eq!(shows_before, shows_after, "selector, not auto-show");

    // John picks `slides` on the selector GUI.
    let shown = wss
        .call(
            &CmdLine::new("wssShow")
                .arg("user", "jdoe")
                .arg("name", "slides")
                .arg("accessHost", "podium"),
        )
        .unwrap();
    let session = shown.get_text("session").unwrap().to_string();
    let password = shown.get_text("password").unwrap().to_string();
    let vnc_addr = Addr::new(
        shown.get_text("vncHost").unwrap(),
        shown.get_int("vncPort").unwrap() as u16,
    );
    let viewer = VncViewer::attach(
        &ace.net,
        &"podium".into(),
        6200,
        &vnc_addr,
        &session,
        &password,
        &ace.admin,
    );
    assert!(viewer.is_ok(), "viewer attaches at the podium");

    ace.shutdown();
}

/// Scenario 5: device control through ASD-discovered daemons — the Room DB
/// lists the room's devices, the projector and camera obey, and the camera
/// points at the podium.
#[test]
fn scenario5_services_and_devices() {
    let ace = env();

    // The device GUI asks the Room Database what is in `hawk`.
    let mut roomdb = ace_directory::RoomDbClient::connect(
        &ace.net,
        &"core".into(),
        ace.fw.roomdb_addr.clone(),
        &ace.admin,
    )
    .unwrap();
    let placements = roomdb.room_services("hawk").unwrap();
    let names: Vec<&str> = placements.iter().map(|p| p.service.as_str()).collect();
    for expected in ["camera_hawk", "projector_hawk", "fiu_hawk"] {
        assert!(
            names.contains(&expected),
            "{expected} placed in hawk: {names:?}"
        );
    }

    // Discovery via the ASD by class (Fig. 7), then command the devices.
    let mut asd = ace_directory::AsdClient::connect(
        &ace.net,
        &"core".into(),
        ace.fw.asd_addr.clone(),
        &ace.admin,
    )
    .unwrap();
    let projectors = asd.lookup(None, Some("Projector"), Some("hawk")).unwrap();
    assert_eq!(projectors.len(), 1);
    let cameras = asd.lookup(None, Some("PTZCamera"), Some("hawk")).unwrap();
    assert_eq!(cameras.len(), 1);

    let mut projector = ServiceClient::connect(
        &ace.net,
        &"podium".into(),
        projectors[0].addr.clone(),
        &ace.admin,
    )
    .unwrap();
    // Powered-off rejection first.
    let err = projector
        .call(&CmdLine::new("projInput").arg("source", "workspace"))
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::BadState));
    projector.call_ok(&CmdLine::new("projOn")).unwrap();
    projector
        .call_ok(&CmdLine::new("projInput").arg("source", "workspace"))
        .unwrap();
    // Camera output as picture-in-picture.
    projector
        .call_ok(&CmdLine::new("projPip").arg("source", "camera"))
        .unwrap();

    let mut camera = ServiceClient::connect(
        &ace.net,
        &"podium".into(),
        cameras[0].addr.clone(),
        &ace.admin,
    )
    .unwrap();
    camera.call_ok(&CmdLine::new("ptzOn")).unwrap();
    let moved = camera
        .call(
            &CmdLine::new("ptzMove")
                .arg("x", 35.0)
                .arg("y", -10.0)
                .arg("zoom", 2.0),
        )
        .unwrap();
    assert_eq!(moved.get_f64("x"), Some(35.0));
    // VCC4 extension: store/recall the podium preset (hierarchy in action).
    camera
        .call_ok(&CmdLine::new("ptzPresetStore").arg("name", "podium"))
        .unwrap();
    camera
        .call_ok(&CmdLine::new("ptzMove").arg("x", 0.0).arg("y", 0.0))
        .unwrap();
    let recalled = camera
        .call(&CmdLine::new("ptzPresetRecall").arg("name", "podium"))
        .unwrap();
    assert_eq!(recalled.get_f64("x"), Some(35.0));
    assert_eq!(recalled.get_f64("y"), Some(-10.0));

    let status = projector.call(&CmdLine::new("projStatus")).unwrap();
    assert_eq!(status.get_text("input"), Some("workspace"));
    assert_eq!(status.get_text("pip"), Some("camera"));

    ace.shutdown();
}

/// Limits are enforced per camera model (the Fig. 6 hierarchy's point: same
/// command set, different device behavior).
#[test]
fn camera_limits_clamp() {
    let ace = env();
    let mut camera = ace.client("camera_hawk").unwrap();
    camera.call_ok(&CmdLine::new("ptzOn")).unwrap();
    let moved = camera
        .call(
            &CmdLine::new("ptzMove")
                .arg("x", 500.0)
                .arg("y", -500.0)
                .arg("zoom", 99.0),
        )
        .unwrap();
    // VCC4 limits: ±100 pan, ±30 tilt, 16x zoom.
    assert_eq!(moved.get_f64("x"), Some(100.0));
    assert_eq!(moved.get_f64("y"), Some(-30.0));
    assert_eq!(moved.get_f64("zoom"), Some(16.0));
    ace.shutdown();
}

/// The environment's own persistent store works through the public API.
#[test]
fn environment_store_roundtrip() {
    let ace = env();
    let mut store = ace.store_client(keypair()).expect("cluster present");
    store
        .put("workspace", "jdoe_default", b"state blob")
        .unwrap();
    assert_eq!(
        store.get("workspace", "jdoe_default").unwrap(),
        b"state blob"
    );
    ace.shutdown();
}

/// A store replica upgraded in place keeps syncing with its group: a write
/// that reached `store_2` alone lands on `store_1`'s disk.  Fails if
/// `default_replacement` drops the replica's peers.
#[test]
fn an_upgraded_store_replica_keeps_syncing() {
    let mut ace = env();
    let cluster = ace.store.as_ref().expect("cluster present");
    let (old, disk) = &cluster.replicas[0];
    let (disk, store_2) = (disk.clone(), cluster.addrs[1].clone());
    let replacement = ace
        .default_replacement(old)
        .expect("stock store replacement");
    ace.upgrade_daemon("store_1", replacement).unwrap();

    let mut store =
        StoreClient::new(ace.net.clone(), "core", keypair(), vec![store_2]).with_quorum(1);
    store.put("upgraded", "k", b"after the swap").unwrap();
    let key = ("upgraded".to_string(), "k".to_string());
    assert!(
        wait_until(Duration::from_secs(5), || disk.get(&key).is_some()),
        "the upgraded replica stopped pulling from its group"
    );
    ace.shutdown();
}
