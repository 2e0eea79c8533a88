//! The media service daemons: Converter (§4.12), Distribution (§4.13), and
//! the Fig. 15 audio-conferencing nodes (§4.15).

use crate::codec::{convert, Format};
use crate::dsp::{
    bytes_to_samples, decode_tones, encode_tones, mix, samples_to_bytes, sine, EchoCanceller,
};
use crate::stream::{push_spec, sink_specs, Downstream, Frame};
use ace_core::prelude::*;
use std::collections::{BTreeMap, HashMap};

fn with_sink_specs(mut sem: Semantics) -> Semantics {
    for spec in sink_specs() {
        sem.define(spec);
    }
    sem
}

// ---------------------------------------------------------------------------
// Converter (Fig. 13)
// ---------------------------------------------------------------------------

/// The ACE Converter service: re-encodes frames between formats on their way
/// downstream.
pub struct Converter {
    from: Format,
    to: Format,
    downstream: Downstream,
    bytes_in: u64,
    bytes_out: u64,
}

impl Converter {
    pub fn new(from: Format, to: Format) -> Converter {
        Converter {
            from,
            to,
            downstream: Downstream::new(),
            bytes_in: 0,
            bytes_out: 0,
        }
    }
}

impl ServiceBehavior for Converter {
    fn semantics(&self) -> Semantics {
        with_sink_specs(
            Semantics::new().with(push_spec()).with(
                CmdSpec::new("convertConfig", "set the conversion direction")
                    .required("from", ArgType::Word, "source format")
                    .required("to", ArgType::Word, "target format"),
            ),
        )
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        if let Some(reply) = self.downstream.handle(cmd) {
            return reply;
        }
        match cmd.name() {
            "convertConfig" => {
                let Some(from) = Format::from_word(req_text!(cmd, "from")) else {
                    return Reply::err(ErrorCode::Semantics, "unknown source format");
                };
                let Some(to) = Format::from_word(req_text!(cmd, "to")) else {
                    return Reply::err(ErrorCode::Semantics, "unknown target format");
                };
                self.from = from;
                self.to = to;
                Reply::ok()
            }
            "push" => {
                let frame = match Frame::from_cmd(cmd) {
                    Ok(f) => f,
                    Err(reply) => return reply,
                };
                self.bytes_in += frame.data.len() as u64;
                let converted = match convert(self.from, self.to, &frame.data) {
                    Ok(c) => c,
                    Err(e) => return Reply::err(ErrorCode::BadState, e.to_string()),
                };
                self.bytes_out += converted.len() as u64;
                let out = Frame {
                    stream: frame.stream,
                    seq: frame.seq,
                    data: converted,
                };
                let delivered = self.downstream.forward(ctx, &out);
                Reply::ok_with(|c| {
                    c.arg("bytes", out.data.len() as i64)
                        .arg("delivered", delivered as i64)
                })
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }

    fn on_stats(&mut self, ctx: &mut ServiceCtx) {
        let m = ctx.metrics();
        m.gauge("convert.bytesIn").set(self.bytes_in as i64);
        m.gauge("convert.bytesOut").set(self.bytes_out as i64);
    }
}

// ---------------------------------------------------------------------------
// Distribution (Fig. 14)
// ---------------------------------------------------------------------------

/// The ACE Distribution service: forwards one input stream to a set of
/// receiving services.
#[derive(Default)]
pub struct Distribution {
    downstream: Downstream,
    frames: u64,
    deliveries: u64,
}

impl Distribution {
    pub fn new() -> Distribution {
        Distribution::default()
    }
}

impl ServiceBehavior for Distribution {
    fn semantics(&self) -> Semantics {
        with_sink_specs(Semantics::new().with(push_spec()))
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        if let Some(reply) = self.downstream.handle(cmd) {
            return reply;
        }
        match cmd.name() {
            "push" => {
                let frame = match Frame::from_cmd(cmd) {
                    Ok(f) => f,
                    Err(reply) => return reply,
                };
                self.frames += 1;
                let delivered = self.downstream.forward(ctx, &frame);
                self.deliveries += delivered as u64;
                Reply::ok_with(|c| c.arg("delivered", delivered as i64))
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }

    fn on_stats(&mut self, ctx: &mut ServiceCtx) {
        let m = ctx.metrics();
        m.gauge("dist.frames").set(self.frames as i64);
        m.gauge("dist.deliveries").set(self.deliveries as i64);
    }
}

// ---------------------------------------------------------------------------
// Audio nodes (Fig. 15)
// ---------------------------------------------------------------------------

/// Audio Capture: "captures an audio signal from a microphone and digitizes
/// it".  The microphone is a configurable sine source; `generate` produces
/// the next frame and pushes it downstream.
pub struct AudioCapture {
    freq: f64,
    amplitude: f64,
    phase_samples: u64,
    seq: i64,
    downstream: Downstream,
}

impl AudioCapture {
    pub fn new(freq: f64, amplitude: f64) -> AudioCapture {
        AudioCapture {
            freq,
            amplitude,
            phase_samples: 0,
            seq: 0,
            downstream: Downstream::new(),
        }
    }
}

impl ServiceBehavior for AudioCapture {
    fn semantics(&self) -> Semantics {
        with_sink_specs(
            Semantics::new()
                .with(
                    CmdSpec::new("generate", "capture the next audio frame")
                        .required("len", ArgType::Int, "samples in the frame")
                        .optional("stream", ArgType::Word, "stream name (default mic)"),
                )
                .with(
                    CmdSpec::new("captureConfig", "set the simulated source")
                        .required("freq", ArgType::Float, "tone frequency")
                        .required("amp", ArgType::Float, "amplitude 0..1"),
                ),
        )
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        if let Some(reply) = self.downstream.handle(cmd) {
            return reply;
        }
        match cmd.name() {
            "captureConfig" => {
                self.freq = req_f64!(cmd, "freq");
                self.amplitude = req_f64!(cmd, "amp").clamp(0.0, 1.0);
                Reply::ok()
            }
            "generate" => {
                let len = req_int!(cmd, "len").max(0) as usize;
                let stream = cmd.get_text("stream").unwrap_or("mic").to_string();
                // Keep phase continuous across frames.
                let w = 2.0 * std::f64::consts::PI * self.freq / crate::dsp::SAMPLE_RATE as f64;
                let samples = sine(
                    self.freq,
                    self.amplitude,
                    len,
                    w * self.phase_samples as f64,
                );
                self.phase_samples += len as u64;
                let frame = Frame {
                    stream,
                    seq: self.seq,
                    data: samples_to_bytes(&samples),
                };
                self.seq += 1;
                let delivered = self.downstream.forward(ctx, &frame);
                Reply::ok_with(|c| c.arg("seq", frame.seq).arg("delivered", delivered as i64))
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }
}

/// Upper bound on buffered partial slots.  A silent input otherwise grows
/// `pending` without limit, one slot per frame the live inputs push.
const MAX_PENDING_SLOTS: usize = 64;

/// Audio Mixer: "combines multiple audio signals into one audio
/// signal/stream".  It waits until every registered input has delivered the
/// frame for a sequence number, then mixes and forwards.
pub struct AudioMixer {
    inputs: Vec<String>,
    pending: BTreeMap<i64, HashMap<String, Vec<i16>>>,
    out_stream: String,
    downstream: Downstream,
    mixed: u64,
    dropped_slots: u64,
}

impl AudioMixer {
    pub fn new(out_stream: &str) -> AudioMixer {
        AudioMixer {
            inputs: Vec::new(),
            pending: BTreeMap::new(),
            out_stream: out_stream.to_string(),
            downstream: Downstream::new(),
            mixed: 0,
            dropped_slots: 0,
        }
    }

    /// Mix and forward the completed slot at `seq`, dropping (and counting)
    /// any stale partial slots older than the emission point.
    fn emit(&mut self, ctx: &mut ServiceCtx, seq: i64) -> usize {
        let Some(parts) = self.pending.remove(&seq) else {
            return 0;
        };
        let refs: Vec<&[i16]> = parts.values().map(Vec::as_slice).collect();
        let mixed = mix(&refs);
        self.mixed += 1;
        let out = Frame {
            stream: self.out_stream.clone(),
            seq,
            data: samples_to_bytes(&mixed),
        };
        let forwarded = self.downstream.forward(ctx, &out);
        // Drop stale partial frames older than what we emitted.
        let stale: Vec<i64> = self.pending.range(..seq).map(|(&s, _)| s).collect();
        self.dropped_slots += stale.len() as u64;
        for s in stale {
            self.pending.remove(&s);
        }
        forwarded
    }

    /// Emit every slot the current input set makes complete (oldest first).
    /// Called after the input set changes: a slot buffered while a departed
    /// input was registered may suddenly have every remaining contribution.
    fn emit_ready(&mut self, ctx: &mut ServiceCtx) -> usize {
        let mut forwarded = 0;
        loop {
            let need = self.inputs.len();
            if need == 0 {
                break;
            }
            let Some(seq) = self
                .pending
                .iter()
                .find(|(_, slot)| slot.len() == need)
                .map(|(&s, _)| s)
            else {
                break;
            };
            forwarded += self.emit(ctx, seq);
        }
        forwarded
    }
}

impl ServiceBehavior for AudioMixer {
    fn semantics(&self) -> Semantics {
        with_sink_specs(
            Semantics::new()
                .with(push_spec())
                .with(
                    CmdSpec::new("addInput", "declare an input stream to mix").required(
                        "stream",
                        ArgType::Word,
                        "input stream name",
                    ),
                )
                .with(
                    CmdSpec::new("removeInput", "deregister an input stream").required(
                        "stream",
                        ArgType::Word,
                        "input stream name",
                    ),
                ),
        )
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        if let Some(reply) = self.downstream.handle(cmd) {
            return reply;
        }
        match cmd.name() {
            "addInput" => {
                let stream = req_text!(cmd, "stream").to_string();
                if !self.inputs.contains(&stream) {
                    self.inputs.push(stream);
                }
                Reply::ok()
            }
            "removeInput" => {
                let stream = req_text!(cmd, "stream").to_string();
                let before = self.inputs.len();
                self.inputs.retain(|s| s != &stream);
                if self.inputs.len() == before {
                    return Reply::err(ErrorCode::NotFound, "no such input");
                }
                // Reconcile `pending` with the shrunk input set: strip the
                // departed stream's buffered contributions (a slot holding
                // only them would never complete and leak forever), then
                // emit any slots the removal just completed.
                for slot in self.pending.values_mut() {
                    slot.remove(&stream);
                }
                self.pending.retain(|_, slot| !slot.is_empty());
                let forwarded = self.emit_ready(ctx);
                Reply::ok_with(|c| c.arg("delivered", forwarded as i64))
            }
            "push" => {
                let frame = match Frame::from_cmd(cmd) {
                    Ok(f) => f,
                    Err(reply) => return reply,
                };
                if !self.inputs.contains(&frame.stream) {
                    return Reply::err(
                        ErrorCode::BadState,
                        format!("stream {} is not a registered input", frame.stream),
                    );
                }
                let Some(samples) = bytes_to_samples(&frame.data) else {
                    return Reply::err(ErrorCode::Semantics, "odd-length PCM frame");
                };
                // Keep `pending` bounded even when an input goes silent:
                // evict the oldest slot (or refuse a frame older than all
                // buffered work) rather than buffering without limit.
                if !self.pending.contains_key(&frame.seq) && self.pending.len() >= MAX_PENDING_SLOTS
                {
                    match self.pending.iter().next().map(|(&s, _)| s) {
                        Some(oldest) if oldest < frame.seq => {
                            self.pending.remove(&oldest);
                            self.dropped_slots += 1;
                        }
                        _ => {
                            self.dropped_slots += 1;
                            return Reply::ok_with(|c| c.arg("delivered", 0i64));
                        }
                    }
                }
                let slot = self.pending.entry(frame.seq).or_default();
                slot.insert(frame.stream, samples);
                let mut forwarded = 0;
                if slot.len() == self.inputs.len() {
                    forwarded = self.emit(ctx, frame.seq);
                }
                Reply::ok_with(|c| c.arg("delivered", forwarded as i64))
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }

    fn on_stats(&mut self, ctx: &mut ServiceCtx) {
        let m = ctx.metrics();
        m.gauge("mixer.inputs").set(self.inputs.len() as i64);
        m.gauge("mixer.pending").set(self.pending.len() as i64);
        m.gauge("mixer.mixed").set(self.mixed as i64);
        m.gauge("mixer.droppedSlots").set(self.dropped_slots as i64);
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        // Routing only: registered inputs, the output stream name, and the
        // downstream sink set.  Partial `pending` slots are deliberately
        // dropped — producers retry the quiesce-window frames and the slot
        // refills on the replacement.
        let inputs: Vec<Scalar> = self.inputs.iter().map(|s| Scalar::Str(s.clone())).collect();
        // Port as a quoted string: array rows must be homogeneous per the
        // wire grammar (a Str/Int mix would be refused on re-parse).
        let sinks: Vec<Vec<Scalar>> = self
            .downstream
            .sinks()
            .iter()
            .map(|a| {
                vec![
                    Scalar::Str(a.host.to_string()),
                    Scalar::Str(a.port.to_string()),
                ]
            })
            .collect();
        let state = CmdLine::new("mixerState")
            .arg("outStream", self.out_stream.as_str())
            .arg("inputs", Value::Vector(inputs))
            .arg("sinks", Value::Array(sinks));
        Some(ace_core::protocol::seal_snapshot("audioMixer", state))
    }

    fn restore_state(&mut self, snapshot: &[u8]) -> Result<(), String> {
        let state = ace_core::protocol::open_snapshot("audioMixer", snapshot)?;
        let out_stream = state
            .get_text("outStream")
            .ok_or_else(|| "mixer snapshot: missing outStream".to_string())?
            .to_string();
        let inputs_val = state
            .get("inputs")
            .ok_or_else(|| "mixer snapshot: missing inputs".to_string())?;
        let inputs: Vec<String> = inputs_val
            .as_vector()
            .ok_or_else(|| "mixer snapshot: malformed inputs".to_string())?
            .iter()
            .map(|s| match s {
                Scalar::Str(text) => Ok(text.clone()),
                _ => Err("mixer snapshot: malformed inputs".to_string()),
            })
            .collect::<Result<_, _>>()?;
        let sinks_val = state
            .get("sinks")
            .ok_or_else(|| "mixer snapshot: missing sinks".to_string())?;
        // An empty sink set round-trips through the wire form as an empty
        // vector, not an empty array.
        let sinks: Vec<Addr> = if sinks_val.as_vector().is_some_and(|s| s.is_empty()) {
            Vec::new()
        } else {
            sinks_val
                .as_array()
                .ok_or_else(|| "mixer snapshot: malformed sinks".to_string())?
                .iter()
                .map(|row| match row.as_slice() {
                    [Scalar::Str(host), Scalar::Str(port)] => port
                        .parse::<u16>()
                        .map(|p| Addr::new(host.as_str(), p))
                        .map_err(|_| "mixer snapshot: malformed sinks".to_string()),
                    _ => Err("mixer snapshot: malformed sinks".to_string()),
                })
                .collect::<Result<_, _>>()?
        };
        self.out_stream = out_stream;
        self.inputs = inputs;
        self.downstream.set_sinks(sinks);
        self.pending.clear();
        Ok(())
    }
}

/// Echo Cancellation: subtracts the delayed reference (fed with `pushRef`)
/// from the microphone stream (fed with `push`), forwarding the cleaned
/// signal.
pub struct EchoCancel {
    canceller: EchoCanceller,
    mic_samples_seen: usize,
    downstream: Downstream,
}

impl EchoCancel {
    /// `delay_samples` models the acoustic path speaker→microphone.
    pub fn new(delay_samples: usize) -> EchoCancel {
        EchoCancel {
            canceller: EchoCanceller::new(delay_samples),
            mic_samples_seen: 0,
            downstream: Downstream::new(),
        }
    }
}

impl ServiceBehavior for EchoCancel {
    fn semantics(&self) -> Semantics {
        with_sink_specs(
            Semantics::new().with(push_spec()).with(
                CmdSpec::new("pushRef", "deliver a reference (speaker) frame")
                    .required("stream", ArgType::Word, "reference stream name")
                    .required("seq", ArgType::Int, "frame sequence number")
                    .required("data", ArgType::Word, "hex frame payload"),
            ),
        )
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        if let Some(reply) = self.downstream.handle(cmd) {
            return reply;
        }
        match cmd.name() {
            "pushRef" => {
                let frame = match Frame::from_cmd(cmd) {
                    Ok(f) => f,
                    Err(reply) => return reply,
                };
                let Some(samples) = bytes_to_samples(&frame.data) else {
                    return Reply::err(ErrorCode::Semantics, "odd-length PCM frame");
                };
                self.canceller.feed_reference(&samples);
                Reply::ok()
            }
            "push" => {
                let frame = match Frame::from_cmd(cmd) {
                    Ok(f) => f,
                    Err(reply) => return reply,
                };
                let Some(mic) = bytes_to_samples(&frame.data) else {
                    return Reply::err(ErrorCode::Semantics, "odd-length PCM frame");
                };
                let cleaned = self.canceller.cancel(&mic, self.mic_samples_seen);
                self.mic_samples_seen += mic.len();
                let out = Frame {
                    stream: frame.stream,
                    seq: frame.seq,
                    data: samples_to_bytes(&cleaned),
                };
                let delivered = self.downstream.forward(ctx, &out);
                Reply::ok_with(|c| c.arg("delivered", delivered as i64))
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }
}

/// Audio sink shared by Audio Play (speaker) and Audio Recorder ("records
/// on hard media a given input audio stream"): accumulates received frames
/// and reports length, tone power and decodes.
#[derive(Default)]
pub struct AudioSink {
    samples: Vec<i16>,
    frames: u64,
}

impl AudioSink {
    pub fn new() -> AudioSink {
        AudioSink::default()
    }
}

impl ServiceBehavior for AudioSink {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(push_spec())
            .with(
                CmdSpec::new("sinkPower", "Goertzel power of a frequency in the sink").required(
                    "freq",
                    ArgType::Float,
                    "frequency in Hz",
                ),
            )
            .with(CmdSpec::new(
                "sinkDecode",
                "attempt tone-demodulation of the whole recording",
            ))
    }

    fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "push" => {
                let frame = match Frame::from_cmd(cmd) {
                    Ok(f) => f,
                    Err(reply) => return reply,
                };
                let Some(samples) = bytes_to_samples(&frame.data) else {
                    return Reply::err(ErrorCode::Semantics, "odd-length PCM frame");
                };
                self.samples.extend_from_slice(&samples);
                self.frames += 1;
                Reply::ok()
            }
            "sinkPower" => {
                let freq = req_f64!(cmd, "freq");
                Reply::ok_with(|c| c.arg("power", crate::dsp::goertzel(&self.samples, freq)))
            }
            "sinkDecode" => match decode_tones(&self.samples) {
                Some(bytes) => match String::from_utf8(bytes) {
                    Ok(text) => {
                        Reply::ok_with(|c| c.arg("decoded", true).arg("text", Value::Str(text)))
                    }
                    Err(_) => Reply::ok_with(|c| c.arg("decoded", false)),
                },
                None => Reply::ok_with(|c| c.arg("decoded", false)),
            },
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }

    fn on_stats(&mut self, ctx: &mut ServiceCtx) {
        let m = ctx.metrics();
        m.gauge("sink.samples").set(self.samples.len() as i64);
        m.gauge("sink.frames").set(self.frames as i64);
    }
}

/// Text-to-Speech: "converts text messages into an audible voice signal" —
/// tone-modulates the text and pushes it downstream as one frame.
#[derive(Default)]
pub struct TextToSpeech {
    seq: i64,
    downstream: Downstream,
}

impl TextToSpeech {
    pub fn new() -> TextToSpeech {
        TextToSpeech::default()
    }
}

impl ServiceBehavior for TextToSpeech {
    fn semantics(&self) -> Semantics {
        with_sink_specs(
            Semantics::new().with(
                CmdSpec::new("say", "synthesize text into the output stream")
                    .required("text", ArgType::Str, "the text to speak")
                    .optional("stream", ArgType::Word, "stream name (default tts)"),
            ),
        )
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        if let Some(reply) = self.downstream.handle(cmd) {
            return reply;
        }
        match cmd.name() {
            "say" => {
                let text = req_text!(cmd, "text");
                let signal = encode_tones(text.as_bytes());
                let frame = Frame {
                    stream: cmd.get_text("stream").unwrap_or("tts").to_string(),
                    seq: self.seq,
                    data: samples_to_bytes(&signal),
                };
                self.seq += 1;
                let delivered = self.downstream.forward(ctx, &frame);
                Reply::ok_with(|c| {
                    c.arg("samples", (signal.len()) as i64)
                        .arg("delivered", delivered as i64)
                })
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }
}

/// Speech-to-Command: "analyses an input audio signal for specific voice
/// commands and converts them, if any, to a specific and well-known ACE
/// service command message."  Each received frame is demodulated; frames
/// that decode to a parseable ACE command fire the `voiceCommand` event.
#[derive(Default)]
pub struct SpeechToCommand {
    recognized: u64,
    rejected: u64,
}

impl SpeechToCommand {
    pub fn new() -> SpeechToCommand {
        SpeechToCommand::default()
    }
}

impl ServiceBehavior for SpeechToCommand {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(push_spec())
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "push" => {
                let frame = match Frame::from_cmd(cmd) {
                    Ok(f) => f,
                    Err(reply) => return reply,
                };
                let decoded = bytes_to_samples(&frame.data)
                    .as_deref()
                    .and_then(decode_tones)
                    .and_then(|bytes| String::from_utf8(bytes).ok())
                    .filter(|text| ace_lang::parse(text).is_ok());
                match decoded {
                    Some(text) => {
                        self.recognized += 1;
                        ctx.log("info", format!("voice command: {text}"));
                        ctx.fire_event(CmdLine::new("voiceCommand").arg("text", Value::Str(text)));
                        Reply::ok_with(|c| c.arg("recognized", true))
                    }
                    None => {
                        self.rejected += 1;
                        Reply::ok_with(|c| c.arg("recognized", false))
                    }
                }
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }

    fn on_stats(&mut self, ctx: &mut ServiceCtx) {
        let m = ctx.metrics();
        m.gauge("stc.recognized").set(self.recognized as i64);
        m.gauge("stc.rejected").set(self.rejected as i64);
    }
}
