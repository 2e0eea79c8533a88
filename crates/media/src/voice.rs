//! Voice control: executing spoken commands (§7.5).
//!
//! "The next stage in development for ACE is to have all the above
//! described commands be given by voice and gestures."  This service closes
//! that loop: it listens for the Speech-to-Command service's `voiceCommand`
//! events, resolves the target service through the ASD, and executes the
//! command — so a sentence spoken into the Fig. 15 audio graph ends up
//! moving the camera.
//!
//! Spoken command form: a regular ACE command carrying the target service
//! as a `target=` argument — e.g. the utterance decoded as
//! `ptzMove target=camera_hawk x=10;` executes `ptzMove x=10;` on the
//! service registered as `camera_hawk`.  (Keeping the utterance a single
//! well-formed command lets the speech-to-command stage validate it in the
//! audio plane before any routing happens.)

use ace_core::prelude::*;

/// The voice-control behavior.
#[derive(Default)]
pub struct VoiceControl {
    executed: u64,
    failed: u64,
    last_result: Option<String>,
}

impl VoiceControl {
    pub fn new() -> VoiceControl {
        VoiceControl::default()
    }

    /// Split a decoded utterance into `(target service, command)`: parse it
    /// as an ACE command, pull the `target=` argument out, and rebuild the
    /// command without it.
    fn split_utterance(text: &str) -> Option<(String, CmdLine)> {
        let spoken = ace_lang::parse(text).ok()?;
        let target = spoken.get_text("target")?.to_string();
        if !ace_lang::value::is_word(&target) {
            return None;
        }
        let mut cmd = CmdLine::new(spoken.name());
        for (name, value) in spoken.args() {
            if name != "target" {
                cmd.push_arg(name.clone(), value.clone());
            }
        }
        Some((target, cmd))
    }
}

impl ServiceBehavior for VoiceControl {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(
                CmdSpec::new("onVoiceCommand", "notification from speech-to-command")
                    .optional("service", ArgType::Str, "origin")
                    .optional("cmd", ArgType::Str, "origin event")
                    .optional("text", ArgType::Str, "the decoded utterance"),
            )
            .with(CmdSpec::new("voiceStats", "execution counters"))
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "onVoiceCommand" => {
                let Some(text) = cmd.get_text("text").map(str::to_string) else {
                    return Reply::err(ErrorCode::Semantics, "notification without text");
                };
                let Some((target, spoken)) = Self::split_utterance(&text) else {
                    self.failed += 1;
                    ctx.log("warn", format!("unintelligible voice command: {text}"));
                    return Reply::ok_with(|c| c.arg("executed", false));
                };
                // Fig. 7: find the target through the ASD, then command it.
                let resolved = ctx.lookup_one(&target).ok().flatten();
                let Some(entry) = resolved else {
                    self.failed += 1;
                    ctx.log("warn", format!("voice target `{target}` not registered"));
                    return Reply::ok_with(|c| c.arg("executed", false));
                };
                match ctx.call(&entry.addr, &spoken) {
                    Ok(result) => {
                        self.executed += 1;
                        self.last_result = Some(result.to_wire());
                        ctx.log(
                            "info",
                            format!("voice: executed `{}` on {target}", spoken.name()),
                        );
                        Reply::ok_with(|c| c.arg("executed", true))
                    }
                    Err(e) => {
                        self.failed += 1;
                        ctx.log("warn", format!("voice command failed on {target}: {e}"));
                        Reply::ok_with(|c| c.arg("executed", false))
                    }
                }
            }
            "voiceStats" => {
                let last = self.last_result.clone().unwrap_or_default();
                Reply::ok_with(|c| {
                    c.arg("executed", self.executed as i64)
                        .arg("failed", self.failed as i64)
                        .arg("lastResult", Value::Str(last))
                })
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }
}

/// Subscribe a voice-control daemon to a speech-to-command daemon's
/// `voiceCommand` events.
pub fn wire_voice_control(
    net: &SimNet,
    voice: &DaemonHandle,
    stc: &DaemonHandle,
    identity: &ace_security::keys::KeyPair,
) -> Result<(), ClientError> {
    let mut client = ServiceClient::connect(net, &voice.addr().host, stc.addr().clone(), identity)?;
    client.call_ok(&ace_core::protocol::subscribe_cmd(
        "voiceCommand",
        voice.name(),
        voice.addr(),
        "onVoiceCommand",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utterance_splitting() {
        let (target, cmd) =
            VoiceControl::split_utterance("ptzMove target=camera_hawk x=10;").unwrap();
        assert_eq!(target, "camera_hawk");
        assert_eq!(cmd.name(), "ptzMove");
        assert_eq!(cmd.get_int("x"), Some(10));
        assert_eq!(cmd.get("target"), None, "target stripped before forwarding");

        // No target argument.
        assert!(VoiceControl::split_utterance("ptzOn;").is_none());
        // Target must be a service name (word).
        assert!(VoiceControl::split_utterance("ptzOn target=\"two words\";").is_none());
        // Not a parseable command at all.
        assert!(VoiceControl::split_utterance("mumble mumble").is_none());
    }
}
