//! The System Application Launcher — SAL (§4.4).
//!
//! "If an ACE client wishes to run a specific application, it requests that
//! … to the SAL.  The SAL then finds an appropriate HAL to launch the
//! application (randomly or by resource allocation by communicating with
//! the SRM) and delegates that responsibility to that chosen HAL."
//!
//! The `policy` argument selects between the two placement strategies the
//! paper allows — the knob of experiment E9.

use ace_core::prelude::*;
use rand::seq::SliceRandom;

/// Placement policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Pick a HAL uniformly at random.
    Random,
    /// Ask the SRM for the host with the most free capacity.
    Resource,
}

impl Policy {
    pub fn from_word(w: &str) -> Option<Policy> {
        match w {
            "random" => Some(Policy::Random),
            "resource" => Some(Policy::Resource),
            _ => None,
        }
    }
}

/// The SAL behavior.
#[derive(Default)]
pub struct Sal {
    launches: u64,
}

impl Sal {
    pub fn new() -> Sal {
        Sal::default()
    }
}

impl ServiceBehavior for Sal {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(
            CmdSpec::new("launch", "launch an application somewhere in the ACE")
                .required("app", ArgType::Str, "application name")
                .optional("user", ArgType::Word, "owning user")
                .optional("load", ArgType::Float, "CPU load units (default 1)")
                .optional("mem", ArgType::Int, "memory MB (default 32)")
                .optional("durationMs", ArgType::Int, "auto-exit after this long")
                .optional(
                    "policy",
                    ArgType::Word,
                    "random | resource (default resource)",
                )
                .optional("host", ArgType::Word, "pin to a specific host"),
        )
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "launch" => {
                let Ok(hals) = ctx.lookup(None, Some("HAL"), None) else {
                    return Reply::err(ErrorCode::Unavailable, "cannot reach the ASD");
                };
                if hals.is_empty() {
                    return Reply::err(ErrorCode::Unavailable, "no HALs registered");
                }
                let policy = match cmd.get_text("policy") {
                    None => Policy::Resource,
                    Some(w) => match Policy::from_word(w) {
                        Some(p) => p,
                        None => {
                            return Reply::err(
                                ErrorCode::Semantics,
                                format!("unknown policy `{w}`"),
                            )
                        }
                    },
                };
                let load = cmd.get_f64("load").unwrap_or(1.0);
                let mem = cmd.get_int("mem").unwrap_or(32);

                // Choose the target HAL.
                let chosen = if let Some(pin) = cmd.get_text("host") {
                    hals.iter().find(|h| h.addr.host.as_str() == pin).cloned()
                } else {
                    match policy {
                        Policy::Random => hals.choose(&mut rand::thread_rng()).cloned(),
                        Policy::Resource => {
                            let srm = ctx.lookup_one("srm").ok().flatten();
                            let best = srm.and_then(|srm| {
                                ctx.call(
                                    &srm.addr,
                                    &CmdLine::new("bestHost")
                                        .arg("expectedLoad", load)
                                        .arg("expectedMem", mem),
                                )
                                .ok()
                                .and_then(|r| r.get_text("host").map(str::to_string))
                            });
                            match best {
                                Some(host) => hals
                                    .iter()
                                    .find(|h| h.addr.host.as_str() == host)
                                    .cloned()
                                    .or_else(|| hals.choose(&mut rand::thread_rng()).cloned()),
                                // SRM down: degrade to random placement.
                                None => hals.choose(&mut rand::thread_rng()).cloned(),
                            }
                        }
                    }
                };
                let Some(target) = chosen else {
                    return Reply::err(ErrorCode::NotFound, "no HAL on the requested host");
                };

                // Delegate to the chosen HAL, forwarding the launch spec.
                let mut launch = CmdLine::new("launchApp")
                    .arg(
                        "app",
                        Value::Str(cmd.get_text("app").expect("validated").into()),
                    )
                    .arg("load", load)
                    .arg("mem", mem);
                if let Some(user) = cmd.get_text("user") {
                    launch.push_arg("user", user);
                }
                if let Some(d) = cmd.get_int("durationMs") {
                    launch.push_arg("durationMs", d);
                }
                // A HAL that fails at the link — its host died, and the ASD
                // lists it for up to one more lease — is passed over for the
                // other listed HALs, once each.  A caller that pinned the
                // host asked for that HAL and no other.
                let pinned = cmd.get_text("host").is_some();
                let others = hals.iter().filter(|h| !pinned && h.name != target.name);
                let mut failure = String::new();
                for target in std::iter::once(&target).chain(others) {
                    match ctx.call(&target.addr, &launch) {
                        Ok(reply) => {
                            self.launches += 1;
                            let app_id = reply.get_int("appId").unwrap_or(-1);
                            let host = target.addr.host.to_string();
                            return Reply::ok_with(|c| {
                                c.arg("appId", app_id)
                                    .arg("host", host)
                                    .arg("hal", target.name.as_str())
                            });
                        }
                        Err(e) => {
                            failure = format!("HAL {} failed: {e}", target.name);
                            if !matches!(e, ClientError::Link(_)) {
                                break;
                            }
                        }
                    }
                }
                Reply::err(ErrorCode::Unavailable, failure)
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }
}
