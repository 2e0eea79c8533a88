//! The Workspace Server — WSS (§4.5, §5.4).
//!
//! "Responsible for creating and removing user workspaces … naming and
//! keeping track of instances of these workspaces that are created for
//! specific users" and for driving the VNC password files "so that the
//! password verification by VNC was made invisible to the normal ACE user".
//!
//! Wiring (Scenarios 1, 3, 4):
//! * listens on the AUD's `userAdded` event → provisions a default
//!   workspace for every new user through the SAL (resource-aware host
//!   choice) and a VNC host;
//! * listens on the ID Monitor's `userAt` event → brings the user's
//!   workspace to their access point: one workspace shows immediately
//!   (`workspaceReady`), several raise the selector (`workspaceSelector`);
//! * `wssShow` performs the actual show (also the selector's confirm path).

use ace_core::prelude::*;
use std::collections::HashMap;

/// One workspace of one user.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkspaceRecord {
    pub user: String,
    pub name: String,
    pub session: String,
    /// The VNC host service holding the session.
    pub vnc_addr: Addr,
    pub vnc_service: String,
    /// Managed invisibly; handed only to the access point at show time.
    pub password: String,
}

/// The WSS behavior.
#[derive(Default)]
pub struct Wss {
    /// user → workspaces.
    workspaces: HashMap<String, Vec<WorkspaceRecord>>,
    shows: u64,
}

impl Wss {
    pub fn new() -> Wss {
        Wss::default()
    }

    fn sal_addr(ctx: &mut ServiceCtx) -> Option<Addr> {
        ctx.lookup_one("sal").ok().flatten().map(|e| e.addr)
    }

    fn generate_password() -> String {
        format!("vnc-{:08x}", rand::random::<u32>())
    }

    /// Create a workspace: pick a VNC host, account the VNC server process
    /// through the SAL, and create the session (Scenario 1's
    /// AUD→WSS→SAL→SRM→HAL chain).
    fn create_workspace(
        &mut self,
        ctx: &mut ServiceCtx,
        user: &str,
        name: &str,
    ) -> Result<WorkspaceRecord, Reply> {
        if self
            .workspaces
            .get(user)
            .is_some_and(|list| list.iter().any(|w| w.name == name))
        {
            return Err(Reply::err(
                ErrorCode::BadState,
                format!("user {user} already has workspace {name}"),
            ));
        }
        let hosts = ctx
            .lookup(None, Some("VNCHost"), None)
            .map_err(|e| Reply::err(ErrorCode::Unavailable, format!("ASD: {e}")))?;
        if hosts.is_empty() {
            return Err(Reply::err(
                ErrorCode::Unavailable,
                "no VNC hosts registered",
            ));
        }

        // Ask the SAL (→SRM→HRM) where the VNC server process should run;
        // fall back to the first VNC host when the launcher tier is absent.
        let chosen = Self::sal_addr(ctx)
            .and_then(|sal| {
                ctx.call(
                    &sal,
                    &CmdLine::new("launch")
                        .arg("app", Value::Str("vncserver".into()))
                        .arg("user", user)
                        .arg("load", 0.5)
                        .arg("mem", 48)
                        .arg("policy", "resource"),
                )
                .ok()
            })
            .and_then(|r| r.get_text("host").map(str::to_string))
            .and_then(|host| hosts.iter().find(|e| e.addr.host.as_str() == host).cloned())
            .unwrap_or_else(|| hosts[0].clone());

        let password = Self::generate_password();
        let reply = ctx
            .call(
                &chosen.addr,
                &CmdLine::new("vncCreate")
                    .arg("user", user)
                    .arg("password", Value::Str(password.clone())),
            )
            .map_err(|e| Reply::err(ErrorCode::Unavailable, format!("VNC host failed: {e}")))?;
        let session = reply.get_text("session").unwrap_or_default().to_string();
        let record = WorkspaceRecord {
            user: user.to_string(),
            name: name.to_string(),
            session,
            vnc_addr: chosen.addr.clone(),
            vnc_service: chosen.name.clone(),
            password,
        };
        ctx.log(
            "info",
            format!("workspace {name} for {user} on {}", chosen.name),
        );
        self.workspaces
            .entry(user.to_string())
            .or_default()
            .push(record.clone());
        Ok(record)
    }

    /// Show a workspace at an access point: account the viewer process via
    /// the SAL on the access host, then publish `workspaceReady` with the
    /// attach coordinates (the access point performs the actual attach).
    fn show_workspace(
        &mut self,
        ctx: &mut ServiceCtx,
        record: &WorkspaceRecord,
        access_host: &str,
    ) -> Reply {
        // The viewer's placement is the SAL's business, not this reply's: a
        // cast, queued ahead of the `workspaceReady` fired below.  The SAL
        // counts a failure: `cmd.errors.launch.<code>`.
        if let Some(sal) = Self::sal_addr(ctx) {
            ctx.send_async(
                sal,
                CmdLine::new("launch")
                    .arg("app", Value::Str("vncviewer".into()))
                    .arg("user", record.user.as_str())
                    .arg("load", 0.2)
                    .arg("mem", 16)
                    .arg("host", access_host),
            );
        }
        self.shows += 1;
        ctx.fire_event(
            CmdLine::new("workspaceReady")
                .arg("username", record.user.as_str())
                .arg("workspace", record.name.as_str())
                .arg("session", record.session.as_str())
                .arg("vncHost", record.vnc_addr.host.as_str())
                .arg("vncPort", record.vnc_addr.port)
                .arg("password", Value::Str(record.password.clone()))
                .arg("accessHost", access_host),
        );
        let record = record.clone();
        Reply::ok_with(move |c| {
            c.arg("session", record.session)
                .arg("vncHost", record.vnc_addr.host.as_str())
                .arg("vncPort", record.vnc_addr.port)
                .arg("password", Value::Str(record.password))
        })
    }
}

impl ServiceBehavior for Wss {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(
                CmdSpec::new("wssCreate", "create a workspace for a user")
                    .required("user", ArgType::Word, "owning user")
                    .optional("name", ArgType::Word, "workspace name (default `default`)"),
            )
            .with(CmdSpec::new("wssList", "a user's workspaces").required(
                "user",
                ArgType::Word,
                "user to list",
            ))
            .with(
                CmdSpec::new("wssShow", "bring a workspace to an access point")
                    .required("user", ArgType::Word, "owning user")
                    .required("accessHost", ArgType::Word, "where the user stands")
                    .optional("name", ArgType::Word, "workspace (default `default`)"),
            )
            .with(
                CmdSpec::new("wssRemove", "destroy a workspace")
                    .required("user", ArgType::Word, "owning user")
                    .required("name", ArgType::Word, "workspace name"),
            )
            .with(
                CmdSpec::new("onUserAdded", "notification from the AUD")
                    .optional("service", ArgType::Str, "origin")
                    .optional("cmd", ArgType::Str, "origin command")
                    .optional("username", ArgType::Word, "the new user"),
            )
            .with(
                CmdSpec::new("onUserAt", "notification from the ID Monitor")
                    .optional("service", ArgType::Str, "origin")
                    .optional("cmd", ArgType::Str, "origin command")
                    .optional("username", ArgType::Word, "identified user")
                    .optional("room", ArgType::Word, "where")
                    .optional("accessHost", ArgType::Word, "access point host"),
            )
            .with(CmdSpec::new("wssStats", "workspace counters"))
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "wssCreate" => {
                let user = cmd.get_text("user").expect("validated").to_string();
                let name = cmd.get_text("name").unwrap_or("default").to_string();
                match self.create_workspace(ctx, &user, &name) {
                    Ok(record) => Reply::ok_with(|c| {
                        c.arg("session", record.session)
                            .arg("vncHost", record.vnc_addr.host.as_str())
                            .arg("vncPort", record.vnc_addr.port)
                    }),
                    Err(reply) => reply,
                }
            }
            "wssList" => {
                let user = cmd.get_text("user").expect("validated");
                let list = self.workspaces.get(user).cloned().unwrap_or_default();
                let rows: Vec<Vec<Scalar>> = list
                    .iter()
                    .map(|w| {
                        vec![
                            Scalar::Str(w.name.clone()),
                            Scalar::Str(w.session.clone()),
                            Scalar::Str(w.vnc_service.clone()),
                        ]
                    })
                    .collect();
                Reply::ok_with(|c| {
                    c.arg("count", rows.len() as i64)
                        .arg("workspaces", Value::Array(rows))
                })
            }
            "wssShow" => {
                let user = cmd.get_text("user").expect("validated").to_string();
                let name = cmd.get_text("name").unwrap_or("default").to_string();
                let access_host = cmd.get_text("accessHost").expect("validated").to_string();
                let record = self
                    .workspaces
                    .get(&user)
                    .and_then(|list| list.iter().find(|w| w.name == name))
                    .cloned();
                match record {
                    Some(record) => self.show_workspace(ctx, &record, &access_host),
                    None => Reply::err(
                        ErrorCode::NotFound,
                        format!("user {user} has no workspace {name}"),
                    ),
                }
            }
            "wssRemove" => {
                let user = cmd.get_text("user").expect("validated");
                let name = cmd.get_text("name").expect("validated");
                let Some(list) = self.workspaces.get_mut(user) else {
                    return Reply::err(ErrorCode::NotFound, format!("no workspaces for {user}"));
                };
                let Some(pos) = list.iter().position(|w| w.name == name) else {
                    return Reply::err(ErrorCode::NotFound, format!("no workspace {name}"));
                };
                let record = list.remove(pos);
                // Nobody reads the VNC host's answer: a cast.  The VNC host
                // counts a failure: `cmd.errors.vncClose.<code>`.
                ctx.send_async(
                    record.vnc_addr,
                    CmdLine::new("vncClose").arg("session", record.session.as_str()),
                );
                Reply::ok()
            }
            "onUserAdded" => {
                // Scenario 1: a brand-new user gets a default workspace.
                let Some(user) = cmd.get_text("username").map(str::to_string) else {
                    return Reply::err(ErrorCode::Semantics, "notification without username");
                };
                match self.create_workspace(ctx, &user, "default") {
                    Ok(_) => Reply::ok(),
                    Err(reply) => reply,
                }
            }
            "onUserAt" => {
                // Scenarios 3 & 4.
                let Some(user) = cmd.get_text("username").map(str::to_string) else {
                    return Reply::err(ErrorCode::Semantics, "notification without username");
                };
                let access_host = cmd.get_text("accessHost").unwrap_or("unknown").to_string();
                let list = self.workspaces.get(&user).cloned().unwrap_or_default();
                match list.len() {
                    0 => {
                        ctx.log("warn", format!("{user} identified but has no workspace"));
                        Reply::ok()
                    }
                    1 => {
                        // The attach coordinates travel in `workspaceReady`;
                        // the notifier that delivered this asked for nothing.
                        self.show_workspace(ctx, &list[0], &access_host);
                        Reply::ok()
                    }
                    _ => {
                        // Several workspaces: raise the selector (Fig. 19's
                        // "Workspace Selector"); the user confirms via
                        // `wssShow`.
                        let names: Vec<Scalar> =
                            list.iter().map(|w| Scalar::Str(w.name.clone())).collect();
                        ctx.fire_event(
                            CmdLine::new("workspaceSelector")
                                .arg("username", user.as_str())
                                .arg("accessHost", access_host.as_str())
                                .arg("workspaces", Value::Vector(names)),
                        );
                        Reply::ok()
                    }
                }
            }
            "wssStats" => {
                let users = self.workspaces.len() as i64;
                let total: i64 = self.workspaces.values().map(|l| l.len() as i64).sum();
                Reply::ok_with(|c| {
                    c.arg("users", users)
                        .arg("workspaces", total)
                        .arg("shows", self.shows as i64)
                })
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }
}

/// Subscribe the WSS to the events it drives on: the AUD's `userAdded` and
/// the ID Monitor's `userAt`.
pub fn wire_wss(
    net: &SimNet,
    wss: &DaemonHandle,
    aud: &DaemonHandle,
    id_monitor: Option<&DaemonHandle>,
    identity: &ace_security::keys::KeyPair,
) -> Result<(), ClientError> {
    let mut to_aud = ServiceClient::connect(net, &wss.addr().host, aud.addr().clone(), identity)?;
    to_aud.call_ok(&ace_core::protocol::subscribe_cmd(
        "userAdded",
        wss.name(),
        wss.addr(),
        "onUserAdded",
    ))?;
    if let Some(monitor) = id_monitor {
        let mut to_monitor =
            ServiceClient::connect(net, &wss.addr().host, monitor.addr().clone(), identity)?;
        to_monitor.call_ok(&ace_core::protocol::subscribe_cmd(
            "userAt",
            wss.name(),
            wss.addr(),
            "onUserAt",
        ))?;
    }
    Ok(())
}
