//! E11, E12, E13 — conversion throughput (Fig. 13), distribution fan-out
//! (Fig. 14), and the audio-conferencing graph (Fig. 15).

use crate::util::*;
use ace_core::prelude::*;
use ace_core::protocol::hex_encode;
use ace_directory::bootstrap;
use ace_media::dsp;
use ace_media::{AudioMixer, AudioSink, Converter, Distribution, EchoCancel, Format};
use ace_security::keys::KeyPair;
use std::time::Duration;

fn keypair() -> KeyPair {
    KeyPair::generate(&mut rand::thread_rng())
}

struct MediaWorld {
    net: SimNet,
    fw: ace_directory::Framework,
    daemons: Vec<DaemonHandle>,
    me: KeyPair,
}

impl MediaWorld {
    fn new() -> MediaWorld {
        let net = SimNet::new();
        net.add_host("core");
        net.add_host("media");
        let fw = bootstrap(&net, "core", Duration::from_secs(120)).unwrap();
        MediaWorld {
            net,
            fw,
            daemons: Vec::new(),
            me: keypair(),
        }
    }

    fn spawn(&mut self, name: &str, b: Box<dyn ace_core::ServiceBehavior>, port: u16) -> Addr {
        let d = Daemon::spawn(
            &self.net,
            self.fw
                .service_config(name, "Service.Media", "hawk", "media", port),
            b,
        )
        .unwrap();
        let addr = d.addr().clone();
        self.daemons.push(d);
        addr
    }

    fn client(&self, addr: &Addr) -> ServiceClient {
        ServiceClient::connect(&self.net, &"core".into(), addr.clone(), &self.me).unwrap()
    }

    fn teardown(self) {
        for d in self.daemons.into_iter().rev() {
            d.shutdown();
        }
        self.fw.shutdown();
    }
}

fn add_sink(c: &mut ServiceClient, sink: &Addr) {
    c.call_ok(
        &CmdLine::new("addSink")
            .arg("host", sink.host.as_str())
            .arg("port", sink.port),
    )
    .unwrap();
}

/// E11 (Fig. 13): conversion throughput and compression ratios through a
/// converter daemon, for flat and noisy "video" frames and µ-law audio.
pub fn e11() {
    header("E11", "Fig. 13", "converter throughput and compression");
    row(
        "workload",
        &[
            "frames/s".into(),
            "in bytes".into(),
            "out bytes".into(),
            "ratio".into(),
        ],
    );
    const FRAMES: usize = 40;

    let flat_frame = vec![0x20u8; 4096];
    let noisy_frame: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    let audio_frame = dsp::samples_to_bytes(&dsp::sine(800.0, 0.5, 2048, 0.0));

    for (label, from, to, frame) in [
        ("flat video raw→rle", Format::Raw, Format::Rle, &flat_frame),
        (
            "noisy video raw→rle",
            Format::Raw,
            Format::Rle,
            &noisy_frame,
        ),
        (
            "audio pcm16→ulaw",
            Format::Pcm16,
            Format::Ulaw,
            &audio_frame,
        ),
    ] {
        let mut w = MediaWorld::new();
        let sink = w.spawn("sink", Box::new(AudioSink::new()), 6000);
        let conv = w.spawn("conv", Box::new(Converter::new(from, to)), 6001);
        let mut c = w.client(&conv);
        // µ-law output is not PCM16; skip the sink for that case to keep
        // frames/s comparable (terminal converter).
        if to != Format::Ulaw {
            let _ = &sink;
        } else {
            add_sink(&mut c, &sink); // AudioSink rejects odd lengths only
        }
        let push = CmdLine::new("push")
            .arg("stream", "s")
            .arg("seq", 0)
            .arg("data", hex_encode(frame));
        let total = time_once(|| {
            for _ in 0..FRAMES {
                c.call(&push).unwrap();
            }
        });
        let stats = c
            .call(&CmdLine::new("aceStats").arg("prefix", "convert."))
            .unwrap();
        let gauges = StatsReport::from_cmdline(&stats).gauges;
        let bytes_in = gauges["convert.bytesIn"] as f64;
        let bytes_out = gauges["convert.bytesOut"] as f64;
        row(
            label,
            &[
                format!("{:.0}", ops_per_sec(FRAMES, total)),
                format!("{}", frame.len()),
                format!("{:.0}", bytes_out / FRAMES as f64),
                format!("{:.1}x", bytes_in / bytes_out.max(1.0)),
            ],
        );
        w.teardown();
    }
}

/// E12 (Fig. 14): distribution fan-out throughput vs sink count.
pub fn e12() {
    header("E12", "Fig. 14", "distribution fan-out");
    row("sinks", &["frames/s".into(), "deliveries/s".into()]);
    const FRAMES: usize = 30;
    let frame = dsp::samples_to_bytes(&dsp::sine(440.0, 0.4, 512, 0.0));
    for sinks in [1usize, 4, 16, 64] {
        let mut w = MediaWorld::new();
        let sink_addrs: Vec<Addr> = (0..sinks)
            .map(|i| {
                w.spawn(
                    &format!("sink{i}"),
                    Box::new(AudioSink::new()),
                    6100 + i as u16,
                )
            })
            .collect();
        let dist = w.spawn("dist", Box::new(Distribution::new()), 6000);
        let mut d = w.client(&dist);
        for s in &sink_addrs {
            add_sink(&mut d, s);
        }
        let push = CmdLine::new("push")
            .arg("stream", "s")
            .arg("seq", 0)
            .arg("data", hex_encode(&frame));
        let total = time_once(|| {
            for _ in 0..FRAMES {
                d.call(&push).unwrap();
            }
        });
        row(
            &format!("{sinks}"),
            &[
                format!("{:.0}", ops_per_sec(FRAMES, total)),
                format!("{:.0}", ops_per_sec(FRAMES * sinks, total)),
            ],
        );
        w.teardown();
    }
}

/// E13 (Fig. 15): the conferencing graph — per-frame latency through the
/// mixer→echo→distribution chain and the achieved echo suppression.
pub fn e13() {
    header("E13", "Fig. 15", "audio conferencing graph");
    const FRAME: usize = 160;
    const FRAMES: usize = 32;
    const DELAY: usize = 40;

    let mut w = MediaWorld::new();
    let recorder = w.spawn("recorder", Box::new(AudioSink::new()), 6000);
    let echo = w.spawn("echo", Box::new(EchoCancel::new(DELAY)), 6001);
    let mixer_addr = w.spawn("micmix", Box::new(AudioMixer::new("mic")), 6002);
    let dist = w.spawn("dist", Box::new(Distribution::new()), 6003);

    let mut mixer = w.client(&mixer_addr);
    mixer
        .call_ok(&CmdLine::new("addInput").arg("stream", "voice"))
        .unwrap();
    mixer
        .call_ok(&CmdLine::new("addInput").arg("stream", "echopath"))
        .unwrap();
    add_sink(&mut mixer, &echo);
    let mut echo_c = w.client(&echo);
    add_sink(&mut echo_c, &dist);
    let mut dist_c = w.client(&dist);
    add_sink(&mut dist_c, &recorder);

    let voice = dsp::sine(700.0, 0.3, FRAME * FRAMES, 0.0);
    let far_end = dsp::sine(1900.0, 0.4, FRAME * FRAMES, 1.0);
    let echoed = dsp::delay(&far_end, DELAY);

    let push = |c: &mut ServiceClient, cmd: &str, stream: &str, seq: usize, s: &[i16]| {
        c.call(
            &CmdLine::new(cmd)
                .arg("stream", stream)
                .arg("seq", seq as i64)
                .arg("data", hex_encode(&dsp::samples_to_bytes(s))),
        )
        .unwrap();
    };

    let total = time_once(|| {
        for seq in 0..FRAMES {
            let range = seq * FRAME..(seq + 1) * FRAME;
            push(&mut echo_c, "pushRef", "ref", seq, &far_end[range.clone()]);
            push(&mut mixer, "push", "voice", seq, &voice[range.clone()]);
            push(&mut mixer, "push", "echopath", seq, &echoed[range]);
        }
    });

    let mut rec = w.client(&recorder);
    let power = |c: &mut ServiceClient, freq: f64| -> f64 {
        c.call(&CmdLine::new("sinkPower").arg("freq", freq))
            .unwrap()
            .get_f64("power")
            .unwrap()
    };
    let p_voice = power(&mut rec, 700.0);
    let p_residual = power(&mut rec, 1900.0);
    let suppression_db = 10.0 * (0.16 / p_residual.max(1e-12)).log10();

    row(
        "per mic frame (3 hops)",
        &[fmt_dur(total / (FRAMES as u32 * 3))],
    );
    row(
        "frames/s (20ms frames)",
        &[format!("{:.0}", ops_per_sec(FRAMES, total))],
    );
    row("voice power at recorder", &[format!("{p_voice:.4}")]);
    row("echo residual power", &[format!("{p_residual:.6}")]);
    row("echo suppression", &[format!("{suppression_db:.0} dB")]);
    w.teardown();
}
