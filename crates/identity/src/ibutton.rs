//! The ACE iButton Reader service (§4.9).
//!
//! "The iButton is a simple solid-state memory device that stores a unique
//! serial number … this ACE service serves to read these numbers from the
//! iButton reader, identify users based on known users and their serial
//! numbers stored in the AUD, and interface to other ACE services wishing
//! to identify someone and/or receive identification notifications."
//!
//! Unlike the FIU there is no matching: the serial either belongs to a
//! registered user or it does not.  A physical touch arrives as the `touch`
//! command.

use crate::aud::find_user;
use ace_core::prelude::*;

/// The iButton reader service behavior.
#[derive(Default)]
pub struct IButtonReader {
    touches: u64,
}

impl IButtonReader {
    pub fn new() -> IButtonReader {
        IButtonReader::default()
    }
}

impl ServiceBehavior for IButtonReader {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(
                CmdSpec::new("touch", "an iButton touched the reader (device event)").required(
                    "serial",
                    ArgType::Str,
                    "the button's serial number",
                ),
            )
            .with(CmdSpec::new("readerStatus", "reader status"))
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "touch" => {
                self.touches += 1;
                let serial = req_text!(cmd, "serial").to_string();
                let query = CmdLine::new("findByIButton").arg("serial", Value::Str(serial.clone()));
                match find_user(ctx, &query) {
                    Err(unavailable) => unavailable,
                    Ok(Some(username)) => {
                        ctx.log("info", format!("iButton identified {username}"));
                        let room = ctx.room().to_string();
                        let host = ctx.host().to_string();
                        ctx.fire_event(
                            CmdLine::new("userIdentified")
                                .arg("username", username.as_str())
                                .arg("room", room.as_str())
                                .arg("accessHost", host.as_str())
                                .arg("device", ctx.name())
                                .arg("score", 1.0),
                        );
                        Reply::ok_with(|c| c.arg("identified", true).arg("username", username))
                    }
                    Ok(None) => {
                        ctx.log("security", format!("unknown iButton serial {serial}"));
                        ctx.fire_event(
                            CmdLine::new("identificationFailed")
                                .arg("device", ctx.name())
                                .arg("reason", "unknown_serial"),
                        );
                        Reply::ok_with(|c| c.arg("identified", false))
                    }
                }
            }
            "readerStatus" => Reply::ok_with(|c| c.arg("touches", self.touches as i64)),
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }
}
