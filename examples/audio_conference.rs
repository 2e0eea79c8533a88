//! The Fig. 15 audio-conferencing graph: capture → mixing → echo
//! cancellation → distribution → recording, plus the text-to-speech /
//! speech-to-command loop — assembled purely by wiring ACE media daemons
//! together with `addSink`, the paper's building-block composition.
//!
//! ```sh
//! cargo run --example audio_conference
//! ```

use ace_core::prelude::*;
use ace_core::protocol::hex_encode;
use ace_directory::bootstrap;
use ace_media::dsp;
use ace_media::{AudioMixer, AudioSink, Distribution, EchoCancel, SpeechToCommand, TextToSpeech};
use ace_security::keys::KeyPair;
use std::time::Duration;

const FRAME: usize = 160;
const FRAMES: usize = 16;
const DELAY: usize = 40;

fn main() {
    let net = SimNet::new();
    net.add_host("core");
    net.add_host("hawk_av");
    let fw = bootstrap(&net, "core", Duration::from_secs(30)).expect("framework");
    let me = KeyPair::generate(&mut rand::thread_rng());

    let mut daemons = Vec::new();
    let mut spawn = |name: &str, b: Box<dyn ace_core::ServiceBehavior>, port: u16| -> Addr {
        let d = Daemon::spawn(
            &net,
            fw.service_config(name, "Service.Media", "hawk", "hawk_av", port),
            b,
        )
        .expect("spawn media daemon");
        let addr = d.addr().clone();
        daemons.push(d);
        addr
    };

    // The Fig. 15 nodes for the local room.
    let recorder = spawn("recorder", Box::new(AudioSink::new()), 6000);
    let speaker = spawn("speaker", Box::new(AudioSink::new()), 6001);
    let echo = spawn("echo_cancel", Box::new(EchoCancel::new(DELAY)), 6002);
    let mic_mixer = spawn("mic_mixer", Box::new(AudioMixer::new("mic")), 6003);
    let dist = spawn("distribution", Box::new(Distribution::new()), 6004);
    let stc = spawn("speech_to_command", Box::new(SpeechToCommand::new()), 6005);
    let tts = spawn("text_to_speech", Box::new(TextToSpeech::new()), 6006);

    let client =
        |addr: &Addr| ServiceClient::connect(&net, &"core".into(), addr.clone(), &me).unwrap();
    let add_sink = |c: &mut ServiceClient, sink: &Addr| {
        c.call_ok(
            &CmdLine::new("addSink")
                .arg("host", sink.host.as_str())
                .arg("port", sink.port),
        )
        .unwrap()
    };

    // Wire: mic mixer → echo canceller → distribution → recorder.
    let mut mixer = client(&mic_mixer);
    mixer
        .call_ok(&CmdLine::new("addInput").arg("stream", "voice"))
        .unwrap();
    mixer
        .call_ok(&CmdLine::new("addInput").arg("stream", "echopath"))
        .unwrap();
    add_sink(&mut mixer, &echo);
    let mut echo_c = client(&echo);
    add_sink(&mut echo_c, &dist);
    let mut dist_c = client(&dist);
    add_sink(&mut dist_c, &recorder);
    // TTS feeds the speech-to-command interpreter.
    let mut tts_c = client(&tts);
    add_sink(&mut tts_c, &stc);
    println!("audio graph wired: mic_mixer → echo_cancel → distribution → recorder");

    // Signals: the local speaker (700 Hz) and a far-end site (1900 Hz)
    // whose audio plays in the room and leaks into the microphone.
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

    let mut speaker_c = client(&speaker);
    for seq in 0..FRAMES {
        let range = seq * FRAME..(seq + 1) * FRAME;
        push(
            &mut speaker_c,
            "push",
            "fromRemote",
            seq,
            &far_end[range.clone()],
        );
        push(
            &mut echo_c,
            "pushRef",
            "fromRemote",
            seq,
            &far_end[range.clone()],
        );
        push(&mut mixer, "push", "voice", seq, &voice[range.clone()]);
        push(&mut mixer, "push", "echopath", seq, &echoed[range]);
    }

    // Measure the cancellation at the recorder.
    let mut rec = client(&recorder);
    let p = |c: &mut ServiceClient, freq: f64| {
        c.call(&CmdLine::new("sinkPower").arg("freq", freq))
            .unwrap()
            .get_f64("power")
            .unwrap()
    };
    let voice_power = p(&mut rec, 700.0);
    let residual = p(&mut rec, 1900.0);
    let speaker_power = p(&mut speaker_c, 1900.0);
    println!("\necho cancellation (what the far side would hear):");
    println!("  local voice power   (700 Hz): {voice_power:>10.4}");
    println!("  far-end residual   (1900 Hz): {residual:>10.6}");
    println!("  speaker level      (1900 Hz): {speaker_power:>10.4}");
    println!(
        "  suppression: {:.0}× (paper: echo cancellation keeps the stream free of feedback)",
        speaker_power / residual.max(1e-12)
    );

    // Voice commanding: TTS modulates a command, STC demodulates and
    // recognizes it.
    println!("\nvoice command loop:");
    for text in ["ptzMove x=10 y=-3;", "projOn;", "not a command at all"] {
        tts_c
            .call(&CmdLine::new("say").arg("text", Value::Str(text.into())))
            .unwrap();
        let stats = CmdLine::new("aceStats").arg("prefix", "stc.");
        let gauges = StatsReport::from_cmdline(&client(&stc).call(&stats).unwrap()).gauges;
        println!(
            "  said {text:?} → recognized={} rejected={}",
            gauges["stc.recognized"], gauges["stc.rejected"]
        );
    }

    for d in daemons.into_iter().rev() {
        d.shutdown();
    }
    fw.shutdown();
}
