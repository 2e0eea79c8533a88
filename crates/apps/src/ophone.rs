//! The O-Phone: full-duplex telephone over IP (§5.5).
//!
//! "This application enables full-duplex telephone communication over IP,
//! thus allowing users to call each other … from their workspaces."
//!
//! Each phone is a daemon.  Dialing resolves the callee through the ASD and
//! performs a command-plane call setup; voice then flows as datagrams
//! (`oph <session> <seq> ` and then the samples, raw little-endian PCM)
//! directly between the phones' data threads — the UDP path of §2.1.1 — through a reordering jitter
//! buffer on the receiving side.  Datagram loss is tolerated: playback
//! skips gaps.

use ace_core::prelude::*;
use ace_core::protocol::{open_snapshot, seal_snapshot};
use ace_media::dsp::{bytes_to_samples, samples_to_bytes, sine};
use ace_net::Datagram;
use std::collections::BTreeMap;

/// Call state of one phone.
#[derive(Debug, Clone, PartialEq)]
enum CallState {
    Idle,
    /// In a call with the peer phone at this address, session id agreed.
    Connected {
        peer: Addr,
        session: String,
    },
}

/// The O-Phone behavior.
pub struct OPhone {
    state: CallState,
    /// Simulated voice source (tone frequency).
    voice_freq: f64,
    tx_seq: u64,
    phase_samples: u64,
    /// Jitter buffer: seq → samples.
    jitter: BTreeMap<u64, Vec<i16>>,
    /// Frames played out (drained in order).
    played: Vec<i16>,
    received_frames: u64,
    next_play_seq: u64,
}

impl OPhone {
    pub fn new(voice_freq: f64) -> OPhone {
        OPhone {
            state: CallState::Idle,
            voice_freq,
            tx_seq: 0,
            phase_samples: 0,
            jitter: BTreeMap::new(),
            played: Vec::new(),
            received_frames: 0,
            next_play_seq: 0,
        }
    }

    /// One voice datagram: the `oph <session> <seq> ` header, then the
    /// samples as they are, two bytes each.
    fn voice_frame(session: &str, seq: u64, samples: &[i16]) -> Vec<u8> {
        let mut frame = format!("oph {session} {seq} ").into_bytes();
        frame.extend_from_slice(&samples_to_bytes(samples));
        frame
    }

    /// The session, sequence number and samples of a voice datagram; `None`
    /// for anything else.
    fn parse_voice_frame(payload: &[u8]) -> Option<(&str, u64, Vec<i16>)> {
        let mut parts = payload.splitn(4, |&b| b == b' ');
        if parts.next()? != b"oph" {
            return None;
        }
        let session = std::str::from_utf8(parts.next()?).ok()?;
        let seq = std::str::from_utf8(parts.next()?).ok()?.parse().ok()?;
        Some((session, seq, bytes_to_samples(parts.next()?)?))
    }

    /// A voice datagram arrives: a frame of this call goes through the
    /// jitter buffer, anything else is dropped.
    fn receive(&mut self, payload: &[u8]) {
        let Some((session, seq, samples)) = Self::parse_voice_frame(payload) else {
            return;
        };
        let CallState::Connected {
            session: ref ours, ..
        } = self.state
        else {
            return;
        };
        if session != ours {
            return;
        }
        self.received_frames += 1;
        self.jitter.insert(seq, samples);
        self.drain_jitter();
    }

    fn session_id(a: &str, b: &str) -> String {
        if a <= b {
            format!("call_{a}_{b}")
        } else {
            format!("call_{b}_{a}")
        }
    }

    /// Drain in-order frames from the jitter buffer into the played stream,
    /// skipping over gaps older than the buffer horizon.
    fn drain_jitter(&mut self) {
        const HORIZON: usize = 4;
        loop {
            if let Some(samples) = self.jitter.remove(&self.next_play_seq) {
                self.played.extend_from_slice(&samples);
                self.next_play_seq += 1;
            } else if self.jitter.len() > HORIZON {
                // The expected frame is lost; skip to the next available.
                match self.jitter.keys().next().copied() {
                    Some(next) => self.next_play_seq = next,
                    None => break,
                }
            } else {
                break;
            }
        }
    }
}

impl ServiceBehavior for OPhone {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(
                CmdSpec::new("dial", "call another phone by service name").required(
                    "peer",
                    ArgType::Word,
                    "callee phone service name",
                ),
            )
            .with(
                CmdSpec::new("ring", "incoming call setup (phone-to-phone)")
                    .required("caller", ArgType::Word, "caller service name")
                    .required("host", ArgType::Word, "caller host")
                    .required("port", ArgType::Int, "caller port")
                    .required("session", ArgType::Word, "session id"),
            )
            .with(
                CmdSpec::new("speak", "transmit the next voice frame").optional(
                    "len",
                    ArgType::Int,
                    "samples (default 160)",
                ),
            )
            .with(CmdSpec::new("hangup", "end the call"))
            .with(CmdSpec::new("onHangup", "peer ended the call").optional(
                "session",
                ArgType::Word,
                "session id",
            ))
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "dial" => {
                if !matches!(self.state, CallState::Idle) {
                    return Reply::err(ErrorCode::BadState, "already in a call");
                }
                let peer_name = cmd.get_text("peer").expect("validated").to_string();
                let Ok(Some(entry)) = ctx.lookup_one(&peer_name) else {
                    return Reply::err(ErrorCode::NotFound, format!("no phone {peer_name}"));
                };
                let session = Self::session_id(ctx.name(), &peer_name);
                let ring = CmdLine::new("ring")
                    .arg("caller", ctx.name())
                    .arg("host", ctx.host().as_str())
                    .arg("port", ctx.addr().port)
                    .arg("session", session.as_str());
                match ctx.call(&entry.addr, &ring) {
                    Ok(_) => {
                        ctx.log("info", format!("call established with {peer_name}"));
                        self.state = CallState::Connected {
                            peer: entry.addr,
                            session: session.clone(),
                        };
                        Reply::ok_with(|c| c.arg("session", session))
                    }
                    Err(e) => Reply::err(ErrorCode::Unavailable, format!("callee: {e}")),
                }
            }
            "ring" => {
                if !matches!(self.state, CallState::Idle) {
                    return Reply::err(ErrorCode::BadState, "busy");
                }
                // Auto-answer (the paper's phone rings on the workspace).
                let peer = Addr::new(
                    cmd.get_text("host").expect("validated"),
                    cmd.get_int("port").expect("validated") as u16,
                );
                let session = cmd.get_text("session").expect("validated").to_string();
                self.state = CallState::Connected {
                    peer,
                    session: session.clone(),
                };
                ctx.log("info", format!("answered call {session}"));
                Reply::ok()
            }
            "speak" => {
                let CallState::Connected { peer, session } = self.state.clone() else {
                    return Reply::err(ErrorCode::BadState, "not in a call");
                };
                let len = cmd.get_int("len").unwrap_or(160).max(0) as usize;
                let w = 2.0 * std::f64::consts::PI * self.voice_freq
                    / ace_media::dsp::SAMPLE_RATE as f64;
                let samples = sine(self.voice_freq, 0.4, len, w * self.phase_samples as f64);
                self.phase_samples += len as u64;
                let payload = Self::voice_frame(&session, self.tx_seq, &samples);
                let seq = self.tx_seq;
                self.tx_seq += 1;
                // Voice rides the unreliable datagram plane.
                let _ = ctx.net().send_datagram(&ctx.addr(), &peer, payload);
                Reply::ok_with(|c| c.arg("seq", seq as i64))
            }
            "hangup" => {
                let CallState::Connected { peer, session } = self.state.clone() else {
                    return Reply::err(ErrorCode::BadState, "not in a call");
                };
                self.state = CallState::Idle;
                // The peer counts a failure: `cmd.errors.onHangup.<code>`.
                ctx.send_async(
                    peer,
                    CmdLine::new("onHangup").arg("session", session.as_str()),
                );
                Reply::ok()
            }
            "onHangup" => {
                self.state = CallState::Idle;
                Reply::ok()
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }

    fn on_data(&mut self, _ctx: &mut ServiceCtx, datagram: Datagram) {
        self.receive(&datagram.payload);
    }

    /// The call and its audio as `phone.*` gauges; the played level is the
    /// RMS in thousandths of full scale.
    fn on_stats(&mut self, ctx: &mut ServiceCtx) {
        let m = ctx.metrics();
        let in_call = matches!(self.state, CallState::Connected { .. });
        m.gauge("phone.inCall").set(in_call as i64);
        m.gauge("phone.received").set(self.received_frames as i64);
        m.gauge("phone.playedSamples").set(self.played.len() as i64);
        let rms = ace_media::dsp::rms(&self.played);
        m.gauge("phone.playedRmsMilli").set((rms * 1000.0) as i64);
    }

    // Live upgrade: the call itself (peer, session) and the transmit/play
    // cursors ride the snapshot so a hot-swapped phone stays in the call
    // with monotone sequence numbers.  The jitter buffer and played-out
    // audio are transient: frames in flight during the pause are treated
    // as datagram loss, which playback already skips over.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut state = CmdLine::new("ophoneState")
            .arg("voiceFreq", self.voice_freq)
            .arg("txSeq", self.tx_seq as i64)
            .arg("phase", self.phase_samples as i64)
            .arg("nextPlay", self.next_play_seq as i64)
            .arg("received", self.received_frames as i64);
        if let CallState::Connected { peer, session } = &self.state {
            state = state
                .arg("peerHost", peer.host.as_str())
                .arg("peerPort", peer.port as i64)
                .arg("session", session.as_str());
        }
        Some(seal_snapshot("ophone", state))
    }

    fn restore_state(&mut self, snapshot: &[u8]) -> Result<(), String> {
        let state = open_snapshot("ophone", snapshot)?;
        let voice_freq = state
            .get_f64("voiceFreq")
            .filter(|f| f.is_finite() && *f > 0.0)
            .ok_or_else(|| "ophone snapshot: malformed voiceFreq".to_string())?;
        let counter = |name: &str| {
            state
                .get_int(name)
                .filter(|v| *v >= 0)
                .map(|v| v as u64)
                .ok_or_else(|| format!("ophone snapshot: malformed {name}"))
        };
        let tx_seq = counter("txSeq")?;
        let phase_samples = counter("phase")?;
        let next_play_seq = counter("nextPlay")?;
        let received_frames = counter("received")?;
        self.state = match (
            state.get_text("peerHost"),
            state.get_int("peerPort"),
            state.get_text("session"),
        ) {
            (Some(host), Some(port), Some(session)) if (0..=65535).contains(&port) => {
                CallState::Connected {
                    peer: Addr::new(host, port as u16),
                    session: session.to_string(),
                }
            }
            (None, None, None) => CallState::Idle,
            _ => return Err("ophone snapshot: inconsistent call state".to_string()),
        };
        self.voice_freq = voice_freq;
        self.tx_seq = tx_seq;
        self.phase_samples = phase_samples;
        self.next_play_seq = next_play_seq;
        self.received_frames = received_frames;
        self.jitter.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Voice frames round-trip through the jitter buffer as raw samples:
    /// sent out of order, with one lost and one from another call, what
    /// plays is every frame of this call in sequence, and a frame of 160
    /// samples is its header plus 320 bytes, half its hex form.
    #[test]
    fn raw_voice_frames_play_back_in_order_through_the_jitter_buffer() {
        let session = "call_a_b";
        let mut phone = OPhone::new(700.0);
        phone.state = CallState::Connected {
            peer: Addr::new("h", 1),
            session: session.into(),
        };
        let frames: Vec<Vec<i16>> = (0..4)
            .map(|f| (0..160).map(|i| (f * 1000 + i * 7 - 800) as i16).collect())
            .collect();
        let header = format!("oph {session} 0 ").len();
        let first = OPhone::voice_frame(session, 0, &frames[0]);
        assert_eq!(first.len(), header + 2 * 160);
        for seq in [1, 0, 3, 2] {
            phone.receive(&OPhone::voice_frame(session, seq, &frames[seq as usize]));
        }
        phone.receive(&OPhone::voice_frame("call_x_y", 4, &frames[0]));
        phone.receive(b"oph call_a_b 5 \x01"); // an odd byte is no sample
        assert_eq!(phone.received_frames, 4);
        assert_eq!(phone.played, frames.concat());
    }
}
