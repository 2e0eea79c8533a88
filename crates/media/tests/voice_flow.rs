//! End-to-end voice control: a spoken sentence travels the audio plane
//! (TTS → speech-to-command), is recognized, and actually moves a device —
//! §7.5's "next stage" closed.

use ace_core::prelude::*;
use ace_directory::bootstrap;
use ace_media::{wire_voice_control, SpeechToCommand, TextToSpeech, VoiceControl};
use ace_security::keys::KeyPair;
use std::time::Duration;

/// A minimal camera standing in for `ace-env`'s (no cyclic dev-deps).
struct MiniCamera {
    pan: f64,
}
impl ServiceBehavior for MiniCamera {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(CmdSpec::new("ptzMove", "move").optional("x", ArgType::Float, "pan"))
            .with(CmdSpec::new("ptzStatus", "state"))
    }
    fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "ptzMove" => {
                if let Some(x) = cmd.get_f64("x") {
                    self.pan = x;
                }
                Reply::ok()
            }
            "ptzStatus" => Reply::ok_with(|c| c.arg("x", self.pan)),
            _ => Reply::err(ErrorCode::Internal, "unrouted"),
        }
    }
}

#[test]
fn spoken_command_moves_the_camera() {
    let net = SimNet::new();
    for h in ["core", "av", "cam"] {
        net.add_host(h);
    }
    let fw = bootstrap(&net, "core", Duration::from_secs(10)).unwrap();
    let me = KeyPair::generate(&mut rand::thread_rng());

    let camera = Daemon::spawn(
        &net,
        fw.service_config(
            "camera_hawk",
            "Service.Device.PTZCamera",
            "hawk",
            "cam",
            6000,
        ),
        Box::new(MiniCamera { pan: 0.0 }),
    )
    .unwrap();
    let stc = Daemon::spawn(
        &net,
        fw.service_config("stc", "Service.SpeechToCommand", "hawk", "av", 6001),
        Box::new(SpeechToCommand::new()),
    )
    .unwrap();
    let tts = Daemon::spawn(
        &net,
        fw.service_config("tts", "Service.TextToSpeech", "hawk", "av", 6002),
        Box::new(TextToSpeech::new()),
    )
    .unwrap();
    let voice = Daemon::spawn(
        &net,
        fw.service_config("voice", "Service.VoiceControl", "hawk", "core", 6003),
        Box::new(VoiceControl::new()),
    )
    .unwrap();

    // Wiring: TTS → STC (audio), STC → voice control (events).
    let mut tts_client =
        ServiceClient::connect(&net, &"core".into(), tts.addr().clone(), &me).unwrap();
    tts_client
        .call_ok(
            &CmdLine::new("addSink")
                .arg("host", stc.addr().host.as_str())
                .arg("port", stc.addr().port),
        )
        .unwrap();
    wire_voice_control(&net, &voice, &stc, &me).unwrap();

    // Say it.  The text is modulated to tones, demodulated by STC,
    // recognized as a command, routed through the ASD, and executed.
    tts_client
        .call(&CmdLine::new("say").arg(
            "text",
            Value::Str("ptzMove target=camera_hawk x=42;".into()),
        ))
        .unwrap();

    // The camera moved (async notification chain).
    let mut cam = ServiceClient::connect(&net, &"core".into(), camera.addr().clone(), &me).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let status = cam.call(&CmdLine::new("ptzStatus")).unwrap();
        if status.get_f64("x") == Some(42.0) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "camera never moved");
        std::thread::sleep(Duration::from_millis(20));
    }

    // An utterance naming an unknown service fails gracefully.
    tts_client
        .call(&CmdLine::new("say").arg("text", Value::Str("ptzMove target=ghost x=1;".into())))
        .unwrap();
    let mut v = ServiceClient::connect(&net, &"core".into(), voice.addr().clone(), &me).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = CmdLine::new("aceStats").arg("prefix", "voice.");
        let gauges = StatsReport::from_cmdline(&v.call(&stats).unwrap()).gauges;
        if gauges["voice.failed"] == 1 {
            assert_eq!(gauges["voice.executed"], 1);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "failure never counted"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    for d in [voice, tts, stc, camera] {
        d.shutdown();
    }
    fw.shutdown();
}
