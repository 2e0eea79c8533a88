//! Application lifecycle classes and the restart watcher (§5.1–§5.3, §9).
//!
//! The paper classifies everything running in an ACE:
//!
//! * **temporary** — "allowed to crash and it is irrelevant … whether or
//!   not these applications are executed again" (word processors, browsers);
//! * **restart** — "must be closely watched by other ACE services in order
//!   to make sure they are up and running and be restarted in case of a
//!   crash" (camera controls, the logger);
//! * **robust** — "must not be allowed to crash … or have a backup
//!   redundant instance ready to take over", recovering state from the
//!   persistent store (the ASD, AUD, WSS).
//!
//! §9 lists the watcher as "the next step in our current development":
//! "notifications can be utilized to alert such watcher services of closed
//! applications and can also work in conjunction with the ASD".  That is
//! exactly [`Watcher`]: it listens for the ASD's `serviceExpired` event and
//! relaunches watched services from registered spawn functions.

use ace_core::prelude::*;
use ace_core::SpawnError;
use std::collections::HashMap;

/// The §5 application classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppClass {
    /// Nobody relaunches it.
    Temporary,
    /// Relaunched after a crash; state starts fresh.
    Restart,
    /// Relaunched after a crash; recovers state from the persistent store.
    Robust,
}

impl AppClass {
    /// Should the watcher relaunch this class?
    pub fn relaunches(&self) -> bool {
        !matches!(self, AppClass::Temporary)
    }
}

/// How to relaunch a watched service.
pub type SpawnFn = Box<dyn Fn(&SimNet) -> Result<DaemonHandle, SpawnError> + Send>;

/// One watched service.
pub struct WatchSpec {
    pub name: String,
    pub class: AppClass,
    pub spawn: SpawnFn,
}

impl WatchSpec {
    pub fn new(name: impl Into<String>, class: AppClass, spawn: SpawnFn) -> WatchSpec {
        WatchSpec {
            name: name.into(),
            class,
            spawn,
        }
    }
}

/// The watcher service: reacts to `serviceExpired` by relaunching.
pub struct Watcher {
    specs: HashMap<String, WatchSpec>,
    /// Handles of services this watcher relaunched (kept alive; shut down
    /// with the watcher).
    relaunched: Vec<DaemonHandle>,
    restarts: u64,
    ignored: u64,
}

impl Watcher {
    pub fn new(specs: Vec<WatchSpec>) -> Watcher {
        Watcher {
            specs: specs.into_iter().map(|s| (s.name.clone(), s)).collect(),
            relaunched: Vec::new(),
            restarts: 0,
            ignored: 0,
        }
    }
}

impl ServiceBehavior for Watcher {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(
                CmdSpec::new("onServiceExpired", "notification from the ASD")
                    .optional("service", ArgType::Str, "origin (the ASD)")
                    .optional("cmd", ArgType::Str, "origin event")
                    .optional("name", ArgType::Word, "the expired service"),
            )
            .with(CmdSpec::new("watcherStats", "restart counters"))
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "onServiceExpired" => {
                let Some(name) = cmd.get_text("name").map(str::to_string) else {
                    return Reply::err(ErrorCode::Semantics, "notification without name");
                };
                match self.specs.get(&name) {
                    Some(spec) if spec.class.relaunches() => {
                        ctx.log("warn", format!("{name} expired; relaunching"));
                        match (spec.spawn)(ctx.net()) {
                            Ok(handle) => {
                                self.restarts += 1;
                                self.relaunched.push(handle);
                                ctx.fire_event(
                                    CmdLine::new("serviceRestarted").arg("name", name.as_str()),
                                );
                                Reply::ok_with(|c| c.arg("restarted", true))
                            }
                            Err(e) => {
                                ctx.log("error", format!("relaunch of {name} failed: {e}"));
                                Reply::err(ErrorCode::Internal, e.to_string())
                            }
                        }
                    }
                    _ => {
                        // Temporary or unwatched: let it rest.
                        self.ignored += 1;
                        Reply::ok_with(|c| c.arg("restarted", false))
                    }
                }
            }
            "watcherStats" => Reply::ok_with(|c| {
                c.arg("watched", self.specs.len() as i64)
                    .arg("restarts", self.restarts as i64)
                    .arg("ignored", self.ignored as i64)
            }),
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }

    fn on_stop(&mut self, _ctx: &mut ServiceCtx) {
        for handle in self.relaunched.drain(..) {
            handle.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_class_relaunch_policy() {
        assert!(!AppClass::Temporary.relaunches());
        assert!(AppClass::Restart.relaunches());
        assert!(AppClass::Robust.relaunches());
    }
}
