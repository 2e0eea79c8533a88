//! The Host Application Launcher — HAL (§4.3).
//!
//! "Responsible for running/launching any type of application on specific
//! hosts … the HAL then simply runs the requested program on a selected
//! host utilizing the host's local resources."
//!
//! Launched applications are simulated processes: they occupy CPU load and
//! memory (reported to the local HRM), optionally run for a fixed duration,
//! and fire `appExited` when they end.  The Workspace Server launches VNC
//! servers and viewers through exactly this path (Scenario 1/3).

use ace_core::prelude::*;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One simulated running application.
#[derive(Debug, Clone)]
pub struct RunningApp {
    pub id: i64,
    pub app: String,
    pub user: String,
    pub load: f64,
    pub mem_mb: i64,
    pub started: Instant,
    /// `None` = runs until killed.
    pub duration: Option<Duration>,
}

/// The HAL behavior.
pub struct Hal {
    apps: HashMap<i64, RunningApp>,
    next_id: i64,
    launched_total: u64,
}

impl Hal {
    pub fn new() -> Hal {
        Hal {
            apps: HashMap::new(),
            next_id: 1,
            launched_total: 0,
        }
    }

    /// The conventional name of the HRM/HAL pair on a host.
    pub fn hrm_name(host: &str) -> String {
        format!("hrm_{host}")
    }

    /// Tell the local HRM about a load change.  A report that fails is
    /// counted (`load.reportFailures`) and logged, never dropped unseen.
    fn report_load(&mut self, ctx: &mut ServiceCtx, cmd_name: &str, load: f64, mem: i64) {
        let name = Self::hrm_name(ctx.host().as_str());
        if let Ok(Some(hrm)) = ctx.lookup_one(&name) {
            let report = CmdLine::new(cmd_name).arg("load", load).arg("mem", mem);
            if let Err(e) = ctx.call(&hrm.addr, &report) {
                ctx.metrics().counter("load.reportFailures").incr();
                ctx.log("warn", format!("`{cmd_name}` to {name} failed: {e}"));
            }
        }
    }
}

impl Default for Hal {
    fn default() -> Self {
        Hal::new()
    }
}

impl ServiceBehavior for Hal {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(
                CmdSpec::new("launchApp", "launch an application on this host")
                    .required("app", ArgType::Str, "application name")
                    .optional("user", ArgType::Word, "owning user")
                    .optional("load", ArgType::Float, "CPU load units (default 1)")
                    .optional("mem", ArgType::Int, "memory MB (default 32)")
                    .optional("durationMs", ArgType::Int, "auto-exit after this long"),
            )
            .with(
                CmdSpec::new("killApp", "terminate a launched application").required(
                    "appId",
                    ArgType::Int,
                    "id returned by launchApp",
                ),
            )
            .with(CmdSpec::new("listApps", "running applications"))
            .with(
                CmdSpec::new("appInfo", "details of one application").required(
                    "appId",
                    ArgType::Int,
                    "application id",
                ),
            )
    }

    fn on_tick(&mut self, ctx: &mut ServiceCtx) {
        // Expire finished applications.
        let now = ctx.net().clock().now();
        let finished: Vec<i64> = self
            .apps
            .values()
            .filter(|a| a.duration.is_some_and(|d| now >= a.started + d))
            .map(|a| a.id)
            .collect();
        for id in finished {
            if let Some(app) = self.apps.remove(&id) {
                self.report_load(ctx, "removeLoad", app.load, app.mem_mb);
                ctx.fire_event(
                    CmdLine::new("appExited")
                        .arg("appId", app.id)
                        .arg("app", Value::Str(app.app.clone()))
                        .arg("user", app.user.as_str())
                        .arg("reason", "finished"),
                );
            }
        }
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "launchApp" => {
                let id = self.next_id;
                self.next_id += 1;
                let app = RunningApp {
                    id,
                    app: cmd.get_text("app").expect("validated").to_string(),
                    user: cmd.get_text("user").unwrap_or("system").to_string(),
                    load: cmd.get_f64("load").unwrap_or(1.0),
                    mem_mb: cmd.get_int("mem").unwrap_or(32),
                    started: ctx.net().clock().now(),
                    duration: cmd
                        .get_int("durationMs")
                        .map(|ms| Duration::from_millis(ms.max(0) as u64)),
                };
                self.report_load(ctx, "addLoad", app.load, app.mem_mb);
                ctx.log(
                    "info",
                    format!("launched {} (id {id}) for {}", app.app, app.user),
                );
                self.launched_total += 1;
                let host = ctx.host().to_string();
                self.apps.insert(id, app);
                Reply::ok_with(|c| c.arg("appId", id).arg("host", host))
            }
            "killApp" => {
                let id = cmd.get_int("appId").expect("validated");
                match self.apps.remove(&id) {
                    Some(app) => {
                        self.report_load(ctx, "removeLoad", app.load, app.mem_mb);
                        ctx.fire_event(
                            CmdLine::new("appExited")
                                .arg("appId", id)
                                .arg("app", Value::Str(app.app.clone()))
                                .arg("user", app.user.as_str())
                                .arg("reason", "killed"),
                        );
                        Reply::ok()
                    }
                    None => Reply::err(ErrorCode::NotFound, format!("no app {id}")),
                }
            }
            "listApps" => {
                let mut ids: Vec<&RunningApp> = self.apps.values().collect();
                ids.sort_by_key(|a| a.id);
                let rows: Vec<Vec<Scalar>> = ids
                    .iter()
                    .map(|a| {
                        vec![
                            Scalar::Str(a.id.to_string()),
                            Scalar::Str(a.app.clone()),
                            Scalar::Str(a.user.clone()),
                        ]
                    })
                    .collect();
                Reply::ok_with(|c| {
                    c.arg("count", rows.len() as i64)
                        .arg("apps", Value::Array(rows))
                })
            }
            "appInfo" => {
                let id = cmd.get_int("appId").expect("validated");
                let now = ctx.net().clock().now();
                match self.apps.get(&id) {
                    Some(a) => Reply::ok_with(|c| {
                        c.arg("appId", a.id)
                            .arg("app", Value::Str(a.app.clone()))
                            .arg("user", a.user.as_str())
                            .arg("load", a.load)
                            .arg("mem", a.mem_mb)
                            .arg(
                                "uptimeMs",
                                now.saturating_duration_since(a.started).as_millis() as i64,
                            )
                    }),
                    None => Reply::err(ErrorCode::NotFound, format!("no app {id}")),
                }
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }
}
