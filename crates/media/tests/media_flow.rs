//! Integration tests of the media tier: the Fig. 13 conversion pipeline,
//! Fig. 14 distribution fan-out, and the Fig. 15 audio-conferencing graph
//! with echo cancellation and voice commanding (experiment E13's substrate).

use ace_core::prelude::*;
use ace_core::protocol::hex_encode;
use ace_directory::{bootstrap, Framework};
use ace_media::dsp::{self, SYMBOL_SAMPLES};
use ace_media::{
    AudioMixer, AudioSink, Converter, Distribution, EchoCancel, Format, SpeechToCommand,
    TextToSpeech,
};
use ace_security::keys::KeyPair;
use std::collections::BTreeMap;
use std::time::Duration;

fn keypair() -> KeyPair {
    KeyPair::generate(&mut rand::thread_rng())
}

/// The daemon's gauges under `prefix`, as `aceStats` answers them.
fn gauges(client: &mut ServiceClient, prefix: &str) -> BTreeMap<String, i64> {
    let stats = CmdLine::new("aceStats").arg("prefix", prefix);
    StatsReport::from_cmdline(&client.call(&stats).unwrap()).gauges
}

struct World {
    net: SimNet,
    fw: Framework,
    daemons: Vec<DaemonHandle>,
}

fn world() -> World {
    let net = SimNet::new();
    net.add_host("core");
    net.add_host("media");
    let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    World {
        net,
        fw,
        daemons: Vec::new(),
    }
}

impl World {
    fn spawn(
        &mut self,
        name: &str,
        behavior: Box<dyn ace_core::ServiceBehavior>,
        port: u16,
    ) -> Addr {
        let d = Daemon::spawn(
            &self.net,
            self.fw
                .service_config(name, "Service.Media", "hawk", "media", port),
            behavior,
        )
        .unwrap();
        let addr = d.addr().clone();
        self.daemons.push(d);
        addr
    }

    fn client(&self, addr: &Addr, id: &KeyPair) -> ServiceClient {
        ServiceClient::connect(&self.net, &"core".into(), addr.clone(), id).unwrap()
    }

    fn teardown(self) {
        for d in self.daemons.into_iter().rev() {
            d.shutdown();
        }
        self.fw.shutdown();
    }
}

fn add_sink(client: &mut ServiceClient, sink: &Addr) {
    client
        .call_ok(
            &CmdLine::new("addSink")
                .arg("host", sink.host.as_str())
                .arg("port", sink.port),
        )
        .unwrap();
}

fn push(client: &mut ServiceClient, stream: &str, seq: i64, samples: &[i16]) {
    client
        .call(
            &CmdLine::new("push")
                .arg("stream", stream)
                .arg("seq", seq)
                .arg("data", hex_encode(&dsp::samples_to_bytes(samples))),
        )
        .unwrap();
}

/// Fig. 13: video capture → converter → file storage, with real
/// compression on the way.
#[test]
fn converter_pipeline_compresses_video() {
    let mut w = world();
    let me = keypair();
    let storage = w.spawn("storage", Box::new(AudioSink::new()), 6000);
    let converter = w.spawn(
        "converter",
        Box::new(Converter::new(Format::Raw, Format::Rle)),
        6001,
    );

    let mut conv = w.client(&converter, &me);
    add_sink(&mut conv, &storage);

    // A flat camera frame compresses massively under RLE.
    let frame = vec![0x55u8; 320 * 240 / 64]; // scaled down for wire practicality
    let reply = conv
        .call(
            &CmdLine::new("push")
                .arg("stream", "cam")
                .arg("seq", 0)
                .arg("data", hex_encode(&frame)),
        )
        .unwrap();
    assert_eq!(reply.get_int("delivered"), Some(1));
    let out_bytes = reply.get_int("bytes").unwrap();
    assert!(
        out_bytes < frame.len() as i64 / 10,
        "compressed to {out_bytes}"
    );

    let stats = gauges(&mut conv, "convert.");
    assert_eq!(stats["convert.bytesIn"], frame.len() as i64);
    assert_eq!(stats["convert.bytesOut"], out_bytes);

    w.teardown();
}

#[test]
fn converter_ulaw_halves_audio_bytes() {
    let mut w = world();
    let me = keypair();
    let sink = w.spawn("sink", Box::new(AudioSink::new()), 6000);
    let converter = w.spawn(
        "a_conv",
        Box::new(Converter::new(Format::Pcm16, Format::Ulaw)),
        6001,
    );
    let mut conv = w.client(&converter, &me);
    add_sink(&mut conv, &sink);

    let signal = dsp::sine(800.0, 0.5, 320, 0.0);
    let pcm = dsp::samples_to_bytes(&signal);
    let reply = conv
        .call(
            &CmdLine::new("push")
                .arg("stream", "audio")
                .arg("seq", 0)
                .arg("data", hex_encode(&pcm)),
        )
        .unwrap();
    assert_eq!(reply.get_int("bytes"), Some(pcm.len() as i64 / 2));
    w.teardown();
}

/// Fig. 14: one source fanned out to several receiving services.
#[test]
fn distribution_fans_out() {
    let mut w = world();
    let me = keypair();
    let sinks: Vec<Addr> = (0..3)
        .map(|i| w.spawn(&format!("recv{i}"), Box::new(AudioSink::new()), 6000 + i))
        .collect();
    let dist = w.spawn("dist", Box::new(Distribution::new()), 6100);
    let mut d = w.client(&dist, &me);
    for s in &sinks {
        add_sink(&mut d, s);
    }

    let signal = dsp::sine(440.0, 0.4, 160, 0.0);
    for seq in 0..5 {
        push(&mut d, "video", seq, &signal);
    }

    let stats = gauges(&mut d, "dist.");
    assert_eq!(stats["dist.frames"], 5);
    assert_eq!(stats["dist.deliveries"], 15);

    for s in &sinks {
        let mut c = w.client(s, &me);
        let st = gauges(&mut c, "sink.");
        assert_eq!(st["sink.frames"], 5);
        assert_eq!(st["sink.samples"], 800);
    }
    w.teardown();
}

#[test]
fn distribution_survives_dead_sink() {
    let mut w = world();
    let me = keypair();
    let alive = w.spawn("alive", Box::new(AudioSink::new()), 6000);
    let dist = w.spawn("dist", Box::new(Distribution::new()), 6100);
    let mut d = w.client(&dist, &me);
    add_sink(&mut d, &alive);
    // A sink that never existed.
    d.call_ok(
        &CmdLine::new("addSink")
            .arg("host", "media")
            .arg("port", 9999),
    )
    .unwrap();

    let signal = dsp::sine(440.0, 0.4, 80, 0.0);
    let reply = d
        .call(
            &CmdLine::new("push")
                .arg("stream", "s")
                .arg("seq", 0)
                .arg("data", hex_encode(&dsp::samples_to_bytes(&signal))),
        )
        .unwrap();
    assert_eq!(
        reply.get_int("delivered"),
        Some(1),
        "healthy sink still served"
    );
    w.teardown();
}

/// The heart of Fig. 15: remote audio plays in the room; the microphone
/// picks up local voice + the speaker's echo; the mixer+echo-cancel chain
/// delivers clean local voice to the recorder.
#[test]
fn fig15_conference_echo_cancellation() {
    let mut w = world();
    let me = keypair();

    const FRAME: usize = 160;
    const DELAY: usize = 40; // acoustic path, in samples
    const FRAMES: usize = 8;

    let recorder = w.spawn("recorder", Box::new(AudioSink::new()), 6000);
    let speaker = w.spawn("speaker", Box::new(AudioSink::new()), 6001);
    let echo = w.spawn("echo", Box::new(EchoCancel::new(DELAY)), 6002);
    let mic_mixer = w.spawn("micmix", Box::new(AudioMixer::new("mic")), 6003);
    let dist = w.spawn("dist", Box::new(Distribution::new()), 6004);

    // Wiring: mic mixer → echo canceller → distribution → recorder.
    let mut mixer = w.client(&mic_mixer, &me);
    mixer
        .call_ok(&CmdLine::new("addInput").arg("stream", "voice"))
        .unwrap();
    mixer
        .call_ok(&CmdLine::new("addInput").arg("stream", "echopath"))
        .unwrap();
    add_sink(&mut mixer, &echo);
    let mut echo_client = w.client(&echo, &me);
    add_sink(&mut echo_client, &dist);
    let mut dist_client = w.client(&dist, &me);
    add_sink(&mut dist_client, &recorder);

    // Signals: local voice at 700 Hz, far-end audio at 1900 Hz.
    let voice = dsp::sine(700.0, 0.3, FRAME * FRAMES, 0.0);
    let far_end = dsp::sine(1900.0, 0.4, FRAME * FRAMES, 1.0);
    let echoed = dsp::delay(&far_end, DELAY);

    let mut speaker_client = w.client(&speaker, &me);
    for seq in 0..FRAMES {
        let range = seq * FRAME..(seq + 1) * FRAME;
        // Far-end audio reaches the speaker and the canceller's reference.
        push(
            &mut speaker_client,
            "fromRemote",
            seq as i64,
            &far_end[range.clone()],
        );
        echo_client
            .call(
                &CmdLine::new("pushRef")
                    .arg("stream", "fromRemote")
                    .arg("seq", seq as i64)
                    .arg(
                        "data",
                        hex_encode(&dsp::samples_to_bytes(&far_end[range.clone()])),
                    ),
            )
            .unwrap();
        // The microphone's two acoustic components.
        push(&mut mixer, "voice", seq as i64, &voice[range.clone()]);
        push(&mut mixer, "echopath", seq as i64, &echoed[range]);
    }

    // The recorder must hear the voice loudly and the far-end barely.
    let mut rec = w.client(&recorder, &me);
    let stats = gauges(&mut rec, "sink.");
    assert_eq!(stats["sink.samples"], (FRAME * FRAMES) as i64);
    let p_voice = rec
        .call(&CmdLine::new("sinkPower").arg("freq", 700.0))
        .unwrap()
        .get_f64("power")
        .unwrap();
    let p_far = rec
        .call(&CmdLine::new("sinkPower").arg("freq", 1900.0))
        .unwrap()
        .get_f64("power")
        .unwrap();
    assert!(
        p_voice > 100.0 * p_far,
        "voice power {p_voice} vs residual far-end {p_far}"
    );

    // Control: the speaker heard the raw far-end loudly.
    let p_speaker = speaker_client
        .call(&CmdLine::new("sinkPower").arg("freq", 1900.0))
        .unwrap()
        .get_f64("power")
        .unwrap();
    assert!(p_speaker > 100.0 * p_far);

    w.teardown();
}

/// Fig. 15's command path: text-to-speech output travels the audio plane and
/// is recognized back into an ACE command by speech-to-command.
#[test]
fn tts_to_speech_command_roundtrip() {
    let mut w = world();
    let me = keypair();
    let stc = w.spawn("stc", Box::new(SpeechToCommand::new()), 6000);
    let tts = w.spawn("tts", Box::new(TextToSpeech::new()), 6001);

    let mut tts_client = w.client(&tts, &me);
    add_sink(&mut tts_client, &stc);

    let reply = tts_client
        .call(&CmdLine::new("say").arg("text", Value::Str("ptzMove x=10 y=-3;".into())))
        .unwrap();
    assert_eq!(
        reply.get_int("samples"),
        Some(("ptzMove x=10 y=-3;".len() * 2 * SYMBOL_SAMPLES) as i64)
    );
    assert_eq!(reply.get_int("delivered"), Some(1));

    let mut stc_client = w.client(&stc, &me);
    let stats = gauges(&mut stc_client, "stc.");
    assert_eq!(stats["stc.recognized"], 1);
    assert_eq!(stats["stc.rejected"], 0);

    // Non-command speech is rejected, not crashed on.
    tts_client
        .call(&CmdLine::new("say").arg("text", Value::Str("just chatting".into())))
        .unwrap();
    let stats = gauges(&mut stc_client, "stc.");
    assert_eq!(stats["stc.rejected"], 1);

    w.teardown();
}

#[test]
fn mixer_requires_registered_inputs_and_aligns_seqs() {
    let mut w = world();
    let me = keypair();
    let sink = w.spawn("sink", Box::new(AudioSink::new()), 6000);
    let mixer_addr = w.spawn("mix", Box::new(AudioMixer::new("out")), 6001);
    let mut mixer = w.client(&mixer_addr, &me);
    add_sink(&mut mixer, &sink);

    // Unregistered stream rejected.
    let err = mixer
        .call(
            &CmdLine::new("push")
                .arg("stream", "ghost")
                .arg("seq", 0)
                .arg("data", hex_encode(&dsp::samples_to_bytes(&[1, 2]))),
        )
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::BadState));

    mixer
        .call_ok(&CmdLine::new("addInput").arg("stream", "a"))
        .unwrap();
    mixer
        .call_ok(&CmdLine::new("addInput").arg("stream", "b"))
        .unwrap();

    // One input alone does not emit.
    push(&mut mixer, "a", 0, &[100i16; 4]);
    let mut sink_client = w.client(&sink, &me);
    assert_eq!(gauges(&mut sink_client, "sink.")["sink.frames"], 0);
    // The matching frame completes the set.
    push(&mut mixer, "b", 0, &[23i16; 4]);
    let stats = gauges(&mut sink_client, "sink.");
    assert_eq!(stats["sink.frames"], 1);
    assert_eq!(stats["sink.samples"], 4);

    w.teardown();
}
