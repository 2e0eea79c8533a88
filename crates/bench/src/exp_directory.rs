//! E5 + E20 — service discovery (Fig. 7) vs the Jini baseline, and the
//! three-architecture comparison (§8).

use crate::util::*;
use ace_baselines::{CentralClient, CentralServer, JiniClient, JiniLookup, JiniProxy};
use ace_core::prelude::*;
use ace_core::protocol::ServiceEntry;
use ace_directory::{bootstrap, AsdClient};
use ace_env::{CameraModel, PtzCamera};
use ace_security::keys::KeyPair;
use std::time::Duration;

fn keypair() -> KeyPair {
    KeyPair::generate(&mut rand::thread_rng())
}

/// E5 (Fig. 7): ASD lookup latency vs registry size, against Jini-style
/// multicast discovery + proxy lookup.
pub fn e05() {
    header(
        "E5",
        "Fig. 7",
        "service discovery: ASD vs Jini-style baseline",
    );
    row("registry size", &["ASD lookup".into(), "ASD bytes".into()]);
    let me = keypair();
    for size in [10usize, 100, 1000, 10000] {
        let net = SimNet::new();
        net.add_host("core");
        let fw = bootstrap(&net, "core", Duration::from_secs(600)).unwrap();
        let mut asd = AsdClient::connect(&net, &"core".into(), fw.asd_addr.clone(), &me).unwrap();
        let mut registrar =
            ServiceClient::connect(&net, &"core".into(), fw.asd_addr.clone(), &me).unwrap();
        let directory = fw.directory();
        for i in 0..size {
            let filler = ServiceEntry {
                name: format!("svc{i}"),
                addr: Addr::new("core", 30000 + (i % 30000) as u16),
                class: if i == size / 2 {
                    "Service.Device.PTZCamera.VCC4".into()
                } else {
                    "Service.Filler".into()
                },
                room: "warehouse".into(),
            };
            let mut ask = |_: &Addr, cmd: &CmdLine| registrar.call(cmd);
            ace_core::directory::register(&mut ask, &directory, &filler, 0).unwrap();
        }
        let before = net.metrics().snapshot();
        let latency = time_median(50, || {
            let found = asd.lookup(None, Some("PTZCamera"), None).unwrap();
            assert_eq!(found.len(), 1);
        });
        let delta = net.metrics().snapshot().since(&before);
        row(
            &format!("{size} services"),
            &[
                fmt_dur(latency),
                format!("{}", delta.frame_bytes / (delta.frames / 2).max(1)),
            ],
        );
        fw.shutdown();
    }

    // The Jini baseline: discovery (multicast rounds) + lookup via RMI.
    println!("  -- Jini-style baseline --");
    let net = SimNet::new();
    net.add_host("registrar");
    net.add_host("client");
    let lookup_svc = JiniLookup::start(&net, "registrar", 4500).unwrap();
    // One registered proxy.
    let mut reg_client =
        JiniClient::connect(&net, &"client".into(), lookup_svc.addr().clone()).unwrap();
    reg_client
        .register(&JiniProxy {
            name: "cam1".into(),
            interface: "edu.ku.ittc.ace.PTZCamera".into(),
            host: "bar".into(),
            port: 1234,
        })
        .unwrap();

    let mut port = 4600u16;
    let discovery = time_median(10, || {
        let (_, rounds) =
            ace_baselines::discover(&net, &"client".into(), port, Duration::from_millis(20), 10)
                .unwrap();
        assert!(rounds >= 1);
        port += 1;
    });
    let before = net.metrics().snapshot();
    let lookup_latency = time_median(50, || {
        std::hint::black_box(reg_client.lookup("cam1").unwrap());
    });
    let delta = net.metrics().snapshot().since(&before);
    row(
        "Jini multicast discovery (registrar up)",
        &[fmt_dur(discovery), String::new()],
    );
    row(
        "Jini proxy lookup (RMI, plaintext)",
        &[
            fmt_dur(lookup_latency),
            format!("{}", delta.frame_bytes / (delta.frames / 2).max(1)),
        ],
    );
    lookup_svc.shutdown();

    // The multicast cost the ASD's known socket avoids: when the registrar
    // is not up yet, discovery burns announcement rounds (real Jini
    // announces every few seconds; 50 ms here).
    {
        let net = SimNet::new();
        net.add_host("registrar");
        net.add_host("client");
        let net2 = net.clone();
        let starter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            JiniLookup::start(&net2, "registrar", 4500).unwrap()
        });
        let t = std::time::Instant::now();
        let (_, rounds) =
            ace_baselines::discover(&net, &"client".into(), 4600, Duration::from_millis(50), 100)
                .unwrap();
        row(
            "Jini discovery, registrar 150ms late",
            &[fmt_dur(t.elapsed()), format!("{rounds} rounds")],
        );
        starter.join().unwrap().shutdown();
    }
    println!("  note: ACE lookups run over encrypted, identity-proven links;");
    println!("        the Jini baseline's RMI frames are plaintext — compare bytes,");
    println!("        and the discovery rows, not raw lookup latency.");
}

/// E20 (§8): the same device-control workload against the three
/// architectures — ACE distributed daemons, a WebSphere-style central
/// server, and Jini-style lookup (setup cost) — under increasing client
/// concurrency.
pub fn e20() {
    header(
        "E20",
        "§8",
        "architecture comparison under concurrent clients",
    );
    row(
        "clients",
        &["ACE daemons ops/s".into(), "central server ops/s".into()],
    );
    const OPS: usize = 100;
    for clients in [1usize, 2, 4, 8] {
        // ── ACE: one camera daemon per client host (distributed state) ──
        let ace_ops = {
            let net = SimNet::new();
            net.add_host("core");
            let fw = bootstrap(&net, "core", Duration::from_secs(120)).unwrap();
            let mut daemons = Vec::new();
            for i in 0..clients {
                let host = format!("h{i}");
                net.add_host(host.as_str());
                daemons.push(
                    Daemon::spawn(
                        &net,
                        fw.service_config(
                            &format!("cam{i}"),
                            CameraModel::Vcc3.class_path(),
                            "hawk",
                            host.as_str(),
                            6000,
                        ),
                        Box::new(PtzCamera::new(CameraModel::Vcc3)),
                    )
                    .unwrap(),
                );
            }
            let addrs: Vec<Addr> = daemons.iter().map(|d| d.addr().clone()).collect();
            let total = time_once(|| {
                let mut joins = Vec::new();
                for (i, addr) in addrs.iter().enumerate() {
                    let net = net.clone();
                    let addr = addr.clone();
                    joins.push(std::thread::spawn(move || {
                        let me = keypair();
                        let host: HostId = format!("h{i}").into();
                        let mut client = ServiceClient::connect(&net, &host, addr, &me).unwrap();
                        client.call_ok(&CmdLine::new("ptzOn")).unwrap();
                        for j in 0..OPS {
                            client
                                .call(&CmdLine::new("ptzMove").arg("x", (j % 90) as i64))
                                .unwrap();
                        }
                    }));
                }
                for j in joins {
                    j.join().unwrap();
                }
            });
            let ops = ops_per_sec(clients * OPS, total);
            for d in daemons {
                d.shutdown();
            }
            fw.shutdown();
            ops
        };

        // ── Central server: all device state behind one dispatcher ──
        let central_ops = {
            let net = SimNet::new();
            net.add_host("server");
            for i in 0..clients {
                net.add_host(format!("h{i}"));
            }
            let server = CentralServer::start(&net, "server", 8080).unwrap();
            let total = time_once(|| {
                let mut joins = Vec::new();
                for i in 0..clients {
                    let net = net.clone();
                    let addr = server.addr().clone();
                    joins.push(std::thread::spawn(move || {
                        let host: HostId = format!("h{i}").into();
                        let mut client = CentralClient::connect(&net, &host, addr).unwrap();
                        for j in 0..OPS {
                            assert!(client.put(&format!("cam{i}"), "pan", &j.to_string()));
                        }
                    }));
                }
                for j in joins {
                    j.join().unwrap();
                }
            });
            let ops = ops_per_sec(clients * OPS, total);
            server.shutdown();
            ops
        };

        row(
            &format!("{clients}"),
            &[format!("{ace_ops:.0}"), format!("{central_ops:.0}")],
        );
    }
}
