//! E1, E4, E6, E7, E18 — daemon composition, hierarchy dispatch,
//! notification fan-out, startup sequence, and device command latency.

use crate::util::*;
use ace_core::prelude::*;
use ace_core::protocol::hex_encode;
use ace_directory::bootstrap;
use ace_media::{Converter, Format};
use ace_security::keys::KeyPair;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn keypair() -> KeyPair {
    KeyPair::generate(&mut rand::thread_rng())
}

/// E1 (Fig. 4): frames through a chain of converter daemons, depth 1–4.
pub fn e01() {
    header(
        "E1",
        "Fig. 4",
        "daemon composition: pipeline throughput vs depth",
    );
    row("pipeline depth", &["frames/s".into(), "per-frame".into()]);
    const FRAMES: usize = 50;
    let payload = vec![0x5au8; 1024];
    for depth in 1..=4usize {
        let net = SimNet::new();
        net.add_host("core");
        net.add_host("media");
        let fw = bootstrap(&net, "core", Duration::from_secs(60)).unwrap();
        let me = keypair();

        // depth converters; the last one has no sink (terminal).
        let mut stages = Vec::new();
        for i in 0..depth {
            stages.push(
                Daemon::spawn(
                    &net,
                    fw.service_config(
                        &format!("conv{i}"),
                        "Service.Converter",
                        "hawk",
                        "media",
                        6000 + i as u16,
                    ),
                    // Identity conversion: pure plumbing cost.
                    Box::new(Converter::new(Format::Raw, Format::Raw)),
                )
                .unwrap(),
            );
        }
        // Wire stage i → stage i+1.
        for (i, stage) in stages.iter().enumerate().take(depth - 1) {
            let mut c =
                ServiceClient::connect(&net, &"core".into(), stage.addr().clone(), &me).unwrap();
            c.call_ok(
                &CmdLine::new("addSink")
                    .arg("host", "media")
                    .arg("port", 6001 + i as u16),
            )
            .unwrap();
        }

        let mut head =
            ServiceClient::connect(&net, &"core".into(), stages[0].addr().clone(), &me).unwrap();
        let push = CmdLine::new("push")
            .arg("stream", "s")
            .arg("seq", 0)
            .arg("data", hex_encode(&payload));
        let total = time_once(|| {
            for _ in 0..FRAMES {
                head.call(&push).unwrap();
            }
        });
        row(
            &format!("{depth} stage(s)"),
            &[
                format!("{:.0}", ops_per_sec(FRAMES, total)),
                fmt_dur(total / FRAMES as u32),
            ],
        );
        for s in stages {
            s.shutdown();
        }
        fw.shutdown();
    }
}

struct DepthService {
    depth: usize,
}

impl ServiceBehavior for DepthService {
    fn semantics(&self) -> Semantics {
        // Build a hierarchy `depth` levels deep, each level adding commands
        // (Fig. 6's inheritance chain).
        let mut sem = Semantics::new().with(CmdSpec::new("level0", "root command"));
        for level in 1..=self.depth {
            sem = Semantics::new()
                .with(CmdSpec::new(
                    format!("level{level}"),
                    format!("command added at level {level}"),
                ))
                .inheriting(&sem);
        }
        sem
    }

    fn handle(&mut self, _ctx: &mut ServiceCtx, _cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        Reply::ok()
    }
}

/// E4 (Fig. 6): command latency through services whose vocabularies come
/// from deeper and deeper inheritance chains.
pub fn e04() {
    header("E4", "Fig. 6", "dispatch through the service hierarchy");
    row(
        "hierarchy depth",
        &["call latency".into(), "cmds in vocab".into()],
    );
    for depth in [1usize, 2, 4, 8] {
        let net = SimNet::new();
        net.add_host("core");
        let fw = bootstrap(&net, "core", Duration::from_secs(60)).unwrap();
        let me = keypair();
        let svc = Daemon::spawn(
            &net,
            fw.service_config("deep", "Service.Deep", "hawk", "core", 6000),
            Box::new(DepthService { depth }),
        )
        .unwrap();
        let mut client =
            ServiceClient::connect(&net, &"core".into(), svc.addr().clone(), &me).unwrap();
        // Call the deepest (most recently added) command.
        let cmd = CmdLine::new(format!("level{depth}"));
        let latency = time_median(100, || {
            client.call(&cmd).unwrap();
        });
        let vocab = DepthService { depth }.semantics().len() + 5; // + built-ins
        row(
            &format!("depth {depth}"),
            &[fmt_dur(latency), vocab.to_string()],
        );
        svc.shutdown();
        fw.shutdown();
    }
}

struct CountingSink {
    hits: Arc<AtomicU64>,
}

impl ServiceBehavior for CountingSink {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(
            CmdSpec::new("onEvent", "notification sink")
                .optional("service", ArgType::Str, "")
                .optional("cmd", ArgType::Str, ""),
        )
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, _cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        self.hits.fetch_add(1, Ordering::SeqCst);
        Reply::ok()
    }
}

struct Emitter;
impl ServiceBehavior for Emitter {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(CmdSpec::new("touch", "watched command"))
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, _cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        Reply::ok()
    }
}

/// E6 (Fig. 8): time from executing a watched command until every
/// registered listener has been notified, vs the number of listeners.
pub fn e06() {
    header("E6", "Fig. 8", "notification fan-out latency");
    row("subscribers", &["fan-out latency".into()]);
    for subs in [1usize, 8, 32, 64] {
        let net = SimNet::new();
        net.add_host("core");
        net.add_host("emit");
        let fw = bootstrap(&net, "core", Duration::from_secs(60)).unwrap();
        let me = keypair();
        let emitter = Daemon::spawn(
            &net,
            fw.service_config("emitter", "Service.Emitter", "hawk", "emit", 6000),
            Box::new(Emitter),
        )
        .unwrap();
        let hits = Arc::new(AtomicU64::new(0));
        let mut sinks = Vec::new();
        let mut to_emitter =
            ServiceClient::connect(&net, &"core".into(), emitter.addr().clone(), &me).unwrap();
        for i in 0..subs {
            let sink = Daemon::spawn(
                &net,
                fw.service_config(
                    &format!("sink{i}"),
                    "Service.Sink",
                    "hawk",
                    "core",
                    6100 + i as u16,
                ),
                Box::new(CountingSink {
                    hits: Arc::clone(&hits),
                }),
            )
            .unwrap();
            to_emitter
                .call_ok(&ace_core::protocol::subscribe_cmd(
                    "touch",
                    sink.name(),
                    sink.addr(),
                    "onEvent",
                ))
                .unwrap();
            sinks.push(sink);
        }

        // Warm the notifier's connections with one round first.
        to_emitter.call_ok(&CmdLine::new("touch")).unwrap();
        while hits.load(Ordering::SeqCst) < subs as u64 {
            std::thread::sleep(Duration::from_micros(200));
        }
        hits.store(0, Ordering::SeqCst);

        let latency = time_once(|| {
            to_emitter.call_ok(&CmdLine::new("touch")).unwrap();
            while hits.load(Ordering::SeqCst) < subs as u64 {
                std::thread::sleep(Duration::from_micros(100));
            }
        });
        row(&format!("{subs}"), &[fmt_dur(latency)]);

        for s in sinks {
            s.shutdown();
        }
        emitter.shutdown();
        fw.shutdown();
    }
}

/// E7 (Fig. 9): the full startup sequence vs a standalone bind, and vs the
/// number of services already registered.
pub fn e07() {
    header("E7", "Fig. 9", "daemon startup sequence latency");
    row("configuration", &["spawn time".into()]);

    // Standalone: no registrations at all.
    {
        let net = SimNet::new();
        net.add_host("core");
        let mut port = 7000u16;
        let spawn = time_median(20, || {
            let d = Daemon::spawn(
                &net,
                DaemonConfig::new(format!("s{port}"), "Service.X", "hawk", "core", port),
                Box::new(Emitter),
            )
            .unwrap();
            port += 1;
            d.shutdown();
        });
        row("standalone (no registrations)", &[fmt_dur(spawn)]);
    }

    // Full Fig. 9 sequence with increasingly full directories.
    for preregistered in [0usize, 100, 1000] {
        let net = SimNet::new();
        net.add_host("core");
        let fw = bootstrap(&net, "core", Duration::from_secs(120)).unwrap();
        let me = keypair();
        let mut registrar =
            ServiceClient::connect(&net, &"core".into(), fw.asd_addr.clone(), &me).unwrap();
        let directory = fw.directory();
        for i in 0..preregistered {
            let filler = ace_core::protocol::ServiceEntry {
                name: format!("filler{i}"),
                addr: Addr::new("core", 40000 + (i % 10000) as u16),
                class: "Service.Filler".into(),
                room: "warehouse".into(),
            };
            let mut ask = |_: &Addr, cmd: &CmdLine| registrar.call(cmd);
            ace_core::directory::register(&mut ask, &directory, &filler, 0).unwrap();
        }
        let mut port = 7000u16;
        let spawn = time_median(20, || {
            let d = Daemon::spawn(
                &net,
                fw.service_config(&format!("s{port}"), "Service.X", "hawk", "core", port),
                Box::new(Emitter),
            )
            .unwrap();
            port += 1;
            d.shutdown();
        });
        row(
            &format!("full sequence, {preregistered} services registered"),
            &[fmt_dur(spawn)],
        );
        fw.shutdown();
    }
}

/// E18 (Scenario 5): end-to-end device command latency through ASD
/// discovery plus the secure link.
pub fn e18() {
    header(
        "E18",
        "Scenario 5",
        "device control through discovered daemons",
    );
    let ace = ace_env::AceEnvironment::build(ace_env::EnvConfig::default()).unwrap();
    let me = keypair();

    // Discovery cost.
    let mut asd =
        ace_directory::AsdClient::connect(&ace.net, &"core".into(), ace.fw.asd_addr.clone(), &me)
            .unwrap();
    let discovery = time_median(50, || {
        std::hint::black_box(asd.lookup(None, Some("PTZCamera"), Some("hawk")).unwrap());
    });

    // Connection setup (handshake) cost.
    let cam_addr = ace.addr_of("camera_hawk").unwrap();
    let connect = time_median(20, || {
        let c = ServiceClient::connect(&ace.net, &"podium".into(), cam_addr.clone(), &me).unwrap();
        std::hint::black_box(c);
    });

    // Steady-state command cost.
    let mut camera = ace.client("camera_hawk").unwrap();
    camera.call_ok(&CmdLine::new("ptzOn")).unwrap();
    let cmd = CmdLine::new("ptzMove").arg("x", 10.0).arg("y", 5.0);
    let command = time_median(100, || {
        camera.call(&cmd).unwrap();
    });

    row("ASD lookup (class+room)", &[fmt_dur(discovery)]);
    row("secure connect (DH + identity)", &[fmt_dur(connect)]);
    row("ptzMove command round-trip", &[fmt_dur(command)]);
    ace.shutdown();
}
