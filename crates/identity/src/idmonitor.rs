//! The ACE ID Monitor service (§4.6).
//!
//! "This service has the unique job of receiving user identification
//! notifications from ACE identification devices and initiating the
//! appropriate actions to account for a positive or negative identification
//! notification."
//!
//! On a positive identification it updates the user's location in the AUD
//! (Scenario 2) and re-fires the event as `userAt` for workspace machinery
//! (the WSS listens, Scenario 3).  On a negative one it records a security
//! log entry — repeated failures are the Network Logger's intrusion trail
//! (§4.14).

use crate::aud::aud_addr;
use ace_core::prelude::*;
use std::collections::HashMap;

/// The ID Monitor behavior.
#[derive(Default)]
pub struct IdMonitor {
    /// username → (room, host) as last seen by this monitor.
    last_seen: HashMap<String, (String, String)>,
}

impl IdMonitor {
    pub fn new() -> IdMonitor {
        IdMonitor::default()
    }

    /// Subscribe this monitor to every identification device currently in
    /// the ASD (call after devices spawn; idempotent).
    pub fn subscribe_to_devices(
        net: &SimNet,
        monitor: &DaemonHandle,
        devices: &[&DaemonHandle],
        identity: &ace_security::keys::KeyPair,
    ) -> Result<(), ClientError> {
        for device in devices {
            let mut client =
                ServiceClient::connect(net, &monitor.addr().host, device.addr().clone(), identity)?;
            for (event, notify_cmd) in [
                ("userIdentified", "onIdentified"),
                ("identificationFailed", "onIdentFailed"),
            ] {
                client.call_ok(&ace_core::protocol::subscribe_cmd(
                    event,
                    monitor.name(),
                    monitor.addr(),
                    notify_cmd,
                ))?;
            }
        }
        Ok(())
    }
}

impl ServiceBehavior for IdMonitor {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(
                CmdSpec::new("onIdentified", "notification: a device identified a user")
                    .optional("service", ArgType::Str, "origin device service")
                    .optional("cmd", ArgType::Str, "origin event")
                    .optional("username", ArgType::Word, "identified user")
                    .optional("room", ArgType::Word, "room of the device")
                    .optional("accessHost", ArgType::Word, "access point host")
                    .optional("device", ArgType::Str, "device name")
                    .optional("score", ArgType::Float, "match score"),
            )
            .with(
                CmdSpec::new("onIdentFailed", "notification: an identification failed")
                    .optional("service", ArgType::Str, "origin device service")
                    .optional("cmd", ArgType::Str, "origin event")
                    .optional("device", ArgType::Str, "device name")
                    .optional("reason", ArgType::Str, "failure reason"),
            )
            .with(
                CmdSpec::new("lastSeen", "where did this user last identify?").required(
                    "username",
                    ArgType::Word,
                    "user to query",
                ),
            )
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "onIdentified" => {
                let Some(username) = cmd.get_text("username").map(str::to_string) else {
                    return Reply::err(ErrorCode::Semantics, "notification without username");
                };
                let room = cmd.get_text("room").unwrap_or("unknown").to_string();
                let host = cmd.get_text("accessHost").unwrap_or("unknown").to_string();
                // Scenario 2: "the ID Monitor service then updates John's
                // current location with the AUD."
                // Nothing here reads the AUD's answer: a cast, queued ahead
                // of the `userAt` fired below.  The AUD counts a failure:
                // `cmd.errors.setLocation.<code>`.
                if let Some(aud) = aud_addr(ctx) {
                    ctx.send_async(
                        aud,
                        CmdLine::new("setLocation")
                            .arg("username", username.as_str())
                            .arg("room", room.as_str())
                            .arg("host", host.as_str()),
                    );
                }
                self.last_seen
                    .insert(username.clone(), (room.clone(), host.clone()));
                // Scenario 3 hand-off: workspace machinery listens on
                // `userAt`.
                ctx.fire_event(
                    CmdLine::new("userAt")
                        .arg("username", username.as_str())
                        .arg("room", room.as_str())
                        .arg("accessHost", host.as_str()),
                );
                Reply::ok()
            }
            "onIdentFailed" => {
                let device = cmd.get_text("device").unwrap_or("?");
                let reason = cmd.get_text("reason").unwrap_or("?");
                ctx.log(
                    "security",
                    format!("identification failure at {device}: {reason}"),
                );
                Reply::ok()
            }
            "lastSeen" => {
                let username = req_text!(cmd, "username");
                match self.last_seen.get(username) {
                    Some((room, host)) => {
                        Reply::ok_with(|c| c.arg("room", room.as_str()).arg("host", host.as_str()))
                    }
                    None => Reply::err(ErrorCode::NotFound, "user not seen"),
                }
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }
}
