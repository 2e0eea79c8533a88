//! Command-plane conformance: every registered verb of every daemon type is
//! fired with malformed variants — missing arguments, wrong-typed arguments,
//! empty strings — and must answer with an error `Reply`, never a panic and
//! never a dead link.  §2.2's promise is that semantic validation happens
//! *before* dispatch; this test pins the complementary handler-side promise
//! that nothing a validated-or-rejected command can carry crashes a daemon.

use ace_core::prelude::*;
use ace_core::protocol;
use ace_core::AdmissionConfig;
use ace_lang::{CmdSpec, ScalarType};
use ace_security::keys::KeyPair;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A value that satisfies `ty`.
fn valid_value(ty: &ArgType) -> Value {
    match ty {
        ArgType::Int => Value::Int(1),
        ArgType::Float => Value::Float(1.5),
        ArgType::Word => Value::Word("w".into()),
        ArgType::Str => Value::Str("text".into()),
        ArgType::Vector(t) => Value::Vector(vec![valid_scalar(*t)]),
        ArgType::Array(t) => Value::Array(vec![vec![valid_scalar(*t)]]),
        ArgType::Blob => Value::Blob(b"\0;\"@".to_vec()),
        ArgType::Any => Value::Int(1),
    }
}

fn valid_scalar(t: ScalarType) -> Scalar {
    match t {
        ScalarType::Int => Scalar::Int(1),
        ScalarType::Float => Scalar::Float(1.5),
        ScalarType::Word => Scalar::Word("w".into()),
        ScalarType::Str => Scalar::Str("text".into()),
    }
}

/// A value that violates `ty` (`None` for `Any`, which accepts everything).
fn wrong_value(ty: &ArgType) -> Option<Value> {
    match ty {
        ArgType::Int => Some(Value::Word("notanint".into())),
        ArgType::Float => Some(Value::Word("notafloat".into())),
        // A multi-word string cannot narrow to a word.
        ArgType::Word => Some(Value::Str("two words".into())),
        ArgType::Str | ArgType::Vector(_) | ArgType::Array(_) | ArgType::Blob => {
            Some(Value::Int(7))
        }
        ArgType::Any => None,
    }
}

/// All required args of `spec`, valid values, optionally skipping one.
fn required_args(spec: &CmdSpec, skip: Option<&str>) -> CmdLine {
    let mut c = CmdLine::new(spec.name.as_str());
    for a in spec.args.iter().filter(|a| a.required) {
        if Some(a.name.as_str()) != skip {
            c.push_arg(a.name.as_str(), valid_value(&a.ty));
        }
    }
    c
}

/// Every fuzz variant for one command spec.
fn variants(spec: &CmdSpec) -> Vec<CmdLine> {
    let base = |skip| required_args(spec, skip);
    let mut out = vec![CmdLine::new(spec.name.as_str()), base(None)];
    // Everything including optionals.
    let mut all = CmdLine::new(spec.name.as_str());
    for a in &spec.args {
        all.push_arg(a.name.as_str(), valid_value(&a.ty));
    }
    out.push(all);
    for a in &spec.args {
        if a.required {
            // Just this one missing.
            out.push(base(Some(a.name.as_str())));
        }
        if let Some(w) = wrong_value(&a.ty) {
            let mut c = base(Some(a.name.as_str()));
            c.push_arg(a.name.as_str(), w);
            out.push(c);
        }
        if matches!(a.ty, ArgType::Str) {
            // Empty text passes validation and reaches the handler.
            let mut c = base(Some(a.name.as_str()));
            c.push_arg(a.name.as_str(), Value::Str(String::new()));
            out.push(c);
        }
        if matches!(a.ty, ArgType::Blob) {
            // The text form (a hex word) and an empty blob both pass
            // validation and reach the handler.
            for value in [Value::Word("x003b2240".into()), Value::Blob(Vec::new())] {
                let mut c = base(Some(a.name.as_str()));
                c.push_arg(a.name.as_str(), value);
                out.push(c);
            }
        }
    }
    out
}

type Factory = fn() -> Box<dyn ServiceBehavior>;

/// Every daemon type with a self-contained constructor, across all crates.
fn factories() -> Vec<(&'static str, Factory)> {
    vec![
        ("asd", || {
            Box::new(ace_directory::Asd::new(Duration::from_secs(60)))
        }),
        ("roomdb", || Box::new(ace_directory::RoomDb::new())),
        ("netlogger", || Box::new(ace_directory::NetLogger::new(64))),
        ("aud", || Box::new(ace_identity::UserDb::new())),
        ("authdb", || Box::new(ace_identity::AuthDb::new())),
        ("fiu", || {
            Box::new(ace_identity::Fiu::new(
                ace_identity::ScannerDevice::default(),
            ))
        }),
        ("ibutton", || Box::new(ace_identity::IButtonReader::new())),
        ("idmonitor", || Box::new(ace_identity::IdMonitor::new())),
        ("converter", || {
            Box::new(ace_media::services::Converter::new(
                ace_media::Format::Pcm16,
                ace_media::Format::Ulaw,
            ))
        }),
        ("distribution", || {
            Box::new(ace_media::services::Distribution::new())
        }),
        ("audiocapture", || {
            Box::new(ace_media::services::AudioCapture::new(440.0, 0.8))
        }),
        ("audiomixer", || {
            Box::new(ace_media::services::AudioMixer::new("out"))
        }),
        ("echocancel", || {
            Box::new(ace_media::services::EchoCancel::new(8))
        }),
        ("audiosink", || {
            Box::new(ace_media::services::AudioSink::new())
        }),
        ("tts", || Box::new(ace_media::services::TextToSpeech::new())),
        ("stc", || {
            Box::new(ace_media::services::SpeechToCommand::new())
        }),
        ("videocapture", || {
            Box::new(ace_media::VideoCapture::new(64, 48))
        }),
        ("voice", || Box::new(ace_media::VoiceControl::new())),
        ("vnchost", || Box::new(ace_workspace::VncHost::new())),
        ("wss", || Box::new(ace_workspace::Wss::new())),
        ("camera", || {
            Box::new(ace_env::PtzCamera::new(ace_env::CameraModel::Vcc4))
        }),
        ("projector", || Box::new(ace_env::Projector::new())),
        ("store", || {
            Box::new(ace_store::StoreReplica::new(
                ace_store::DiskImage::new(),
                Duration::from_secs(3600),
            ))
        }),
        ("srm", || {
            Box::new(ace_resources::Srm::new(Duration::from_secs(3600)))
        }),
        ("hrm", || {
            Box::new(ace_resources::Hrm::new(
                ace_resources::HostProfile::default(),
            ))
        }),
        ("sal", || Box::new(ace_resources::Sal::new())),
        ("hal", || Box::new(ace_resources::Hal::new())),
        ("filestorage", || {
            Box::new(ace_apps::FileStorage::new(Vec::new()))
        }),
        ("robustcounter", || {
            Box::new(ace_apps::RobustCounter::new(Vec::new()))
        }),
        ("ophone", || Box::new(ace_apps::OPhone::new(440.0))),
    ]
}

/// Fire every variant of every verb at every daemon type; the daemon must
/// stay alive (no link death), and its `control.panics` counter must stay
/// zero — `catch_unwind` turning a panic into an `Internal` reply still
/// counts as a defect here.
#[test]
fn every_daemon_survives_malformed_commands() {
    for (i, (name, factory)) in factories().into_iter().enumerate() {
        let net = SimNet::new();
        net.add_host("h");
        let behavior = factory();
        let semantics = behavior.semantics().inheriting(&protocol::base_semantics());
        let daemon = Daemon::spawn(
            &net,
            DaemonConfig::new(
                format!("{name}1"),
                "Service.Conformance",
                "room",
                "h",
                4200 + i as u16,
            ),
            behavior,
        )
        .unwrap_or_else(|e| panic!("{name}: spawn failed: {e:?}"));

        let me = KeyPair::generate(&mut rand::thread_rng());
        let mut client =
            ServiceClient::connect(&net, &"h".into(), daemon.addr().clone(), &me).unwrap();

        // Directory handlers have been swept of `expect("validated")`
        // panics: every malformed command they see must come back as a
        // typed rejection, never an `Internal` error (the code a
        // `catch_unwind`-converted panic or unrouted command would carry).
        let no_internal = matches!(name, "asd" | "roomdb" | "netlogger");

        for spec in semantics.specs() {
            if spec.name == "shutdown" {
                continue;
            }
            for cmd in variants(spec) {
                match client.call(&cmd) {
                    Ok(_) => {}
                    Err(ClientError::Service { code, msg }) => {
                        if no_internal {
                            assert_ne!(
                                code,
                                ErrorCode::Internal,
                                "{name}: `{}` answered Internal: {msg}",
                                cmd.to_wire()
                            );
                        }
                    }
                    Err(e) => panic!("{name}: `{}` killed the link: {e}", cmd.to_wire()),
                }
            }
            // A word that is not hex is not the text form of a blob, and
            // validation says so before the handler runs.
            for a in spec.args.iter().filter(|a| a.ty == ArgType::Blob) {
                for word in ["x003", "xnothex"] {
                    let mut cmd = required_args(spec, Some(a.name.as_str()));
                    cmd.push_arg(a.name.as_str(), Value::Word(word.into()));
                    match client.call(&cmd) {
                        Err(ClientError::Service { code, .. }) => assert_eq!(
                            code,
                            ErrorCode::Semantics,
                            "{name}: `{}` must fail semantic validation",
                            cmd.to_wire()
                        ),
                        other => panic!("{name}: `{}` gave {other:?}", cmd.to_wire()),
                    }
                }
            }
            // Missing required arguments must be rejected, not absorbed —
            // and rejected by *validation* (ErrorCode::Semantics), before
            // the handler ever runs (§2.2).
            if spec.args.iter().any(|a| a.required) {
                let bare = CmdLine::new(spec.name.as_str());
                match client.call(&bare) {
                    Err(ClientError::Service { code, .. }) => assert_eq!(
                        code,
                        ErrorCode::Semantics,
                        "{name}: bare `{}` must fail semantic validation",
                        spec.name
                    ),
                    Ok(_) => panic!("{name}: `{}` accepted a call with no arguments", spec.name),
                    Err(e) => panic!("{name}: bare `{}` killed the link: {e}", spec.name),
                }
            }
        }

        // Still alive, and no handler panicked along the way.
        client.call(&CmdLine::new("ping")).unwrap();
        let stats = client.call(&CmdLine::new("aceStats")).unwrap();
        let report = StatsReport::from_cmdline(&stats);
        assert_eq!(
            report.counters.get("control.panics").copied().unwrap_or(0),
            0,
            "{name}: a handler panicked during fuzzing"
        );
        daemon.shutdown();
    }
}

/// Overload conformance: every daemon type, spawned with a single-slot bulk
/// lane, must degrade the same way when saturated — well-formed *retryable*
/// `E_BUSY` for overflow, deterministic `E_DEADLINE` for an already-expired
/// budget, a priority lane (`ping`) that stays answerable throughout, and
/// zero panics.  No daemon class gets to invent its own collapse mode.
#[test]
fn every_daemon_sheds_cleanly_when_saturated() {
    for (i, (name, factory)) in factories().into_iter().enumerate() {
        let net = SimNet::new();
        net.add_host("h");
        let behavior = factory();
        let daemon = Daemon::spawn(
            &net,
            DaemonConfig::new(
                format!("{name}1"),
                "Service.Conformance",
                "room",
                "h",
                4600 + i as u16,
            )
            .with_admission(AdmissionConfig {
                bulk_capacity: 1,
                // Capacity overflow only: wait-based shedding would make the
                // expected error mix timing-dependent.
                queue_target: None,
                ..AdmissionConfig::default()
            }),
            behavior,
        )
        .unwrap_or_else(|e| panic!("{name}: spawn failed: {e:?}"));

        let me = KeyPair::generate(&mut rand::thread_rng());
        let mut probe =
            ServiceClient::connect(&net, &"h".into(), daemon.addr().clone(), &me).unwrap();

        // An already-spent budget is shed before the handler runs —
        // deterministically, on every class.
        let mut expired = CmdLine::new("removeNotification")
            .arg("cmd", "x")
            .arg("service", "y");
        expired.set_deadline_ms(0);
        match probe.call(&expired) {
            Err(ClientError::Service { code, msg }) => {
                assert_eq!(
                    code,
                    ErrorCode::Deadline,
                    "{name}: expired budget answered {code}: {msg}"
                );
                assert!(code.is_retryable(), "{name}: E_DEADLINE must be retryable");
                assert!(!msg.is_empty(), "{name}: E_DEADLINE carried no message");
            }
            other => panic!("{name}: expired budget was not shed: {other:?}"),
        }

        // Flood the one-slot bulk lane from several links until overflow is
        // observed.  Every reply must be ok, the expected E_NOTFOUND, or a
        // well-formed retryable shed — never a dead link, never another
        // error class.
        let stop = Arc::new(AtomicBool::new(false));
        let busy = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let net = net.clone();
                let addr = daemon.addr().clone();
                let stop = Arc::clone(&stop);
                let busy = Arc::clone(&busy);
                let name = name.to_string();
                std::thread::spawn(move || {
                    let me = KeyPair::generate(&mut rand::thread_rng());
                    let mut client = ServiceClient::connect(&net, &"h".into(), addr, &me).unwrap();
                    let cmd = CmdLine::new("removeNotification")
                        .arg("cmd", format!("c{w}"))
                        .arg("service", "nobody");
                    while !stop.load(Ordering::SeqCst) {
                        match client.call(&cmd) {
                            Ok(_) => {}
                            Err(ClientError::Service { code, msg }) => match code {
                                ErrorCode::NotFound => {}
                                ErrorCode::Busy => {
                                    assert!(code.is_retryable());
                                    assert!(!msg.is_empty(), "{name}: E_BUSY carried no message");
                                    busy.fetch_add(1, Ordering::SeqCst);
                                }
                                ErrorCode::Deadline => {
                                    assert!(code.is_retryable());
                                }
                                other => panic!("{name}: flood answered {other}: {msg}"),
                            },
                            Err(e) => panic!("{name}: flood killed the link: {e}"),
                        }
                    }
                })
            })
            .collect();

        // The priority lane stays answerable while bulk is saturated.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while busy.load(Ordering::SeqCst) == 0 {
            probe
                .call(&CmdLine::new("ping"))
                .unwrap_or_else(|e| panic!("{name}: ping failed under bulk saturation: {e}"));
            assert!(
                std::time::Instant::now() < deadline,
                "{name}: flood never tripped E_BUSY (bulk lane not bounded?)"
            );
        }
        stop.store(true, Ordering::SeqCst);
        for w in workers {
            w.join().unwrap();
        }

        let stats = probe.call(&CmdLine::new("aceStats")).unwrap();
        let report = StatsReport::from_cmdline(&stats);
        assert_eq!(
            report.counters.get("control.panics").copied().unwrap_or(0),
            0,
            "{name}: a handler panicked during saturation"
        );
        assert!(
            report.counters.get("shed.bulkFull").copied().unwrap_or(0) > 0,
            "{name}: shed.bulkFull never moved despite observed E_BUSY"
        );
        daemon.shutdown();
    }
}

// ── One stats surface ───────────────────────────────────────────────────

/// A daemon's counters leave it one way, `aceStats`: each service `*Stats`
/// verb that became `aceStats` rows is listed by no `describe` and refused
/// as an unknown command.
#[test]
fn the_retired_stats_verbs_are_unknown() {
    let retired = [
        ("store", "psStats"),
        ("filestorage", "storageStats"),
        ("ophone", "phoneStats"),
        ("netlogger", "logStats"),
        ("idmonitor", "monitorStats"),
        ("converter", "convertStats"),
        ("distribution", "distStats"),
        ("audiomixer", "mixerStats"),
        ("audiosink", "sinkStats"),
        ("stc", "stcStats"),
        ("voice", "voiceStats"),
    ];
    let factories = factories();
    let net = SimNet::new();
    net.add_host("h");
    let me = KeyPair::generate(&mut rand::thread_rng());
    for (i, (name, verb)) in retired.into_iter().enumerate() {
        let (_, factory) = factories.iter().find(|(n, _)| *n == name).unwrap();
        let config = DaemonConfig::new(name, "Service.Conformance", "room", "h", 4600 + i as u16);
        let daemon = Daemon::spawn(&net, config, factory()).unwrap();
        let mut client =
            ServiceClient::connect(&net, &"h".into(), daemon.addr().clone(), &me).unwrap();
        let described = client.call(&CmdLine::new("describe")).unwrap();
        let cmds = described.get("cmds").and_then(Value::as_vector).unwrap();
        assert!(
            cmds.iter().all(|c| c.as_text() != Some(verb)),
            "{name}: `describe` lists `{verb}`"
        );
        match client.call(&CmdLine::new(verb)) {
            Err(ClientError::Service { code, msg }) => {
                assert_eq!(code, ErrorCode::Semantics, "{name}: `{verb}`");
                assert_eq!(msg, format!("unknown command `{verb}`"));
            }
            other => panic!("{name}: `{verb}` answered {other:?}"),
        }
        daemon.shutdown();
    }
}

// ── The two `*Stats` verbs `acebench` reads ─────────────────────────────

/// A behaviour with no verbs of its own: what a supervised service is here.
struct Idle;

impl ServiceBehavior for Idle {
    fn semantics(&self) -> Semantics {
        Semantics::new()
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, _cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        Reply::ok()
    }
}

/// The gauges under `prefix`, as `aceStats` answers them, in name order.
fn gauges(client: &mut ServiceClient, prefix: &str) -> Vec<(String, i64)> {
    let stats = client
        .call(&CmdLine::new("aceStats").arg("prefix", prefix))
        .unwrap();
    StatsReport::from_cmdline(&stats)
        .gauges
        .into_iter()
        .collect()
}

fn rows(expected: &[(&str, i64)]) -> Vec<(String, i64)> {
    expected.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

/// `wssStats` is read by `acebench` during set-up and after a run, so its
/// reply is pinned byte for byte, as it answered before the `wss.*` rows
/// came: two users, three workspaces, one show.  The `wss.*` rows read the
/// same numbers.
#[test]
fn wss_stats_reply_is_pinned() {
    let net = SimNet::new();
    for h in ["core", "bar"] {
        net.add_host(h);
    }
    let fw = ace_directory::bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    let vnc = Daemon::spawn(
        &net,
        fw.service_config("vnc_bar", "Service.VNCHost", "machineroom", "bar", 5500),
        Box::new(ace_workspace::VncHost::new()),
    )
    .unwrap();
    let wss = Daemon::spawn(
        &net,
        fw.service_config(
            "wss",
            "Service.WorkspaceServer",
            "machineroom",
            "core",
            5600,
        ),
        Box::new(ace_workspace::Wss::new()),
    )
    .unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let mut client = ServiceClient::connect(&net, &"core".into(), wss.addr().clone(), &me).unwrap();
    for create in [
        CmdLine::new("wssCreate").arg("user", "jdoe"),
        CmdLine::new("wssCreate")
            .arg("user", "jdoe")
            .arg("name", "lab"),
        CmdLine::new("wssCreate").arg("user", "ann"),
    ] {
        client.call(&create).unwrap();
    }
    client
        .call(
            &CmdLine::new("wssShow")
                .arg("user", "jdoe")
                .arg("accessHost", "podium"),
        )
        .unwrap();
    let reply = client.call(&CmdLine::new("wssStats")).unwrap();
    assert_eq!(reply.to_wire(), "ok users=2 workspaces=3 shows=1;");
    assert_eq!(
        gauges(&mut client, "wss."),
        rows(&[("wss.shows", 1), ("wss.users", 2), ("wss.workspaces", 3)])
    );
    wss.shutdown();
    vnc.shutdown();
    fw.shutdown();
}

/// `superviseStats` is read by `acebench` after its supervised crash, so
/// its reply is pinned byte for byte, as it answered before the
/// `supervise.*` rows came, with one service in each state: `a` pending
/// (its respawn failed and the next try is an hour off), `b` restarted
/// once, `c` failed (its second lapse exceeded the one-restart budget).  Lapses are told by `onServiceExpired`; the supervisor has no
/// directory, so no probe gives a verdict of its own.  The `supervise.*`
/// rows read the same numbers, the two lists as their lengths.
#[test]
fn supervise_stats_reply_is_pinned() {
    let net = SimNet::new();
    net.add_host("h");
    let spawn_idle = |name: &'static str, port: u16| -> ace_core::RespawnFn {
        Box::new(move |net: &SimNet| {
            let config = DaemonConfig::new(name, "Service.Idle", "room", "h", port);
            Daemon::spawn(net, config, Box::new(Idle)).map(Respawn::from)
        })
    };
    // `a`'s port is the supervisor's own: every respawn fails to bind.
    let specs = vec![
        SupervisedSpec::new("a", spawn_idle("a", 4900)),
        SupervisedSpec::new("b", spawn_idle("b", 4901)),
        SupervisedSpec::new("c", spawn_idle("c", 4902)),
    ];
    let policy = RestartPolicy::default()
        .with_max_restarts(1)
        .with_max_spawn_attempts(2)
        .with_backoff(RetryPolicy::fixed(Duration::from_secs(3600)));
    let supervisor = Daemon::spawn(
        &net,
        DaemonConfig::new("supervisor", "Service.Supervisor", "room", "h", 4900),
        Box::new(Supervisor::new(specs, policy)),
    )
    .unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());
    let mut client =
        ServiceClient::connect(&net, &"h".into(), supervisor.addr().clone(), &me).unwrap();
    for name in ["a", "b", "c", "c"] {
        client
            .call(&CmdLine::new("onServiceExpired").arg("name", name))
            .unwrap();
    }
    let reply = client.call(&CmdLine::new("superviseStats")).unwrap();
    assert_eq!(
        reply.to_wire(),
        "ok supervised=3 restarts=2 escalations=1 pending={a} failed={c};"
    );
    assert_eq!(
        gauges(&mut client, "supervise."),
        rows(&[
            ("supervise.escalations", 1),
            ("supervise.failed", 1),
            ("supervise.pending", 1),
            ("supervise.restarts", 2),
            ("supervise.supervised", 3),
        ])
    );
    supervisor.shutdown();
}
