//! The VNC substitution: workspace session hosting and remote viewers
//! (§5.4, Fig. 16).
//!
//! "The VNC server is responsible for actually housing or running the
//! user's workspace, maintaining all state information, and accepting input
//! and output to the workspace … the VNC viewer is simply a client program
//! that runs remotely on a simple network access point."
//!
//! A [`VncHost`] daemon hosts many workspace sessions (like an Xvnc server
//! hosting displays).  Applications draw into sessions with `vncDraw`;
//! attached viewers receive tile updates as datagrams and replicate the
//! framebuffer.  Session passwords gate attachment — managed invisibly by
//! the WSS exactly as the paper describes.

use crate::framebuffer::{Framebuffer, TileUpdate};
use ace_core::prelude::*;
use ace_net::DatagramSocket;
use std::collections::HashMap;
use std::time::Duration;

/// One hosted workspace session.
#[derive(Debug)]
struct Session {
    user: String,
    password: String,
    fb: Framebuffer,
    viewers: Vec<Addr>,
    /// Keyboard/pointer events delivered to the workspace.
    input_log: Vec<String>,
}

/// The VNC host behavior.
pub struct VncHost {
    sessions: HashMap<String, Session>,
    next_id: u64,
}

impl VncHost {
    pub fn new() -> VncHost {
        VncHost {
            sessions: HashMap::new(),
            next_id: 1,
        }
    }
}

impl Default for VncHost {
    fn default() -> Self {
        VncHost::new()
    }
}

impl VncHost {
    fn push_updates(ctx: &ServiceCtx, session_id: &str, viewers: &[Addr], updates: &[TileUpdate]) {
        let from = ctx.addr();
        for update in updates {
            let wire = update.to_wire(session_id);
            for viewer in viewers {
                let _ = ctx.net().send_datagram(&from, viewer, wire.clone());
            }
        }
    }
}

impl ServiceBehavior for VncHost {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(
                CmdSpec::new("vncCreate", "create a workspace session")
                    .required("user", ArgType::Word, "owning user")
                    .required("password", ArgType::Str, "session password")
                    .optional("width", ArgType::Int, "pixels (default 1024)")
                    .optional("height", ArgType::Int, "pixels (default 768)"),
            )
            .with(
                CmdSpec::new("vncDraw", "an application drew into the session")
                    .required("session", ArgType::Word, "session id")
                    .required("x", ArgType::Int, "rect x")
                    .required("y", ArgType::Int, "rect y")
                    .required("w", ArgType::Int, "rect width")
                    .required("h", ArgType::Int, "rect height")
                    .required("data", ArgType::Blob, "content payload"),
            )
            .with(
                CmdSpec::new("vncAttach", "attach a viewer (password-gated)")
                    .required("session", ArgType::Word, "session id")
                    .required("password", ArgType::Str, "session password")
                    .required("host", ArgType::Word, "viewer datagram host")
                    .required("port", ArgType::Int, "viewer datagram port"),
            )
            .with(
                CmdSpec::new("vncDetach", "detach a viewer")
                    .required("session", ArgType::Word, "session id")
                    .required("host", ArgType::Word, "viewer host")
                    .required("port", ArgType::Int, "viewer port"),
            )
            .with(
                CmdSpec::new("vncInput", "deliver an input event to the workspace")
                    .required("session", ArgType::Word, "session id")
                    .required("event", ArgType::Str, "the event"),
            )
            .with(CmdSpec::new("vncState", "session state summary").required(
                "session",
                ArgType::Word,
                "session id",
            ))
            .with(
                CmdSpec::new("vncSetPassword", "rotate the session password (WSS only)")
                    .required("session", ArgType::Word, "session id")
                    .required("password", ArgType::Str, "new password"),
            )
            .with(CmdSpec::new("vncClose", "destroy a session").required(
                "session",
                ArgType::Word,
                "session id",
            ))
            .with(CmdSpec::new("vncList", "all hosted sessions"))
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "vncCreate" => {
                let id = format!("ws_{}", self.next_id);
                self.next_id += 1;
                let session = Session {
                    user: cmd.get_text("user").expect("validated").to_string(),
                    password: cmd.get_text("password").expect("validated").to_string(),
                    fb: Framebuffer::new(
                        cmd.get_int("width").unwrap_or(1024).max(16) as u32,
                        cmd.get_int("height").unwrap_or(768).max(16) as u32,
                    ),
                    viewers: Vec::new(),
                    input_log: Vec::new(),
                };
                ctx.log(
                    "info",
                    format!("created workspace session {id} for {}", session.user),
                );
                self.sessions.insert(id.clone(), session);
                Reply::ok_with(|c| c.arg("session", id))
            }
            "vncDraw" => {
                let id = cmd.get_text("session").expect("validated");
                let Some(session) = self.sessions.get_mut(id) else {
                    return Reply::err(ErrorCode::NotFound, format!("no session {id}"));
                };
                let data = cmd.get_blob("data").expect("validated");
                let updates = session.fb.draw_rect(
                    cmd.get_int("x").expect("validated").max(0) as u32,
                    cmd.get_int("y").expect("validated").max(0) as u32,
                    cmd.get_int("w").expect("validated").max(0) as u32,
                    cmd.get_int("h").expect("validated").max(0) as u32,
                    &data,
                );
                Self::push_updates(ctx, id, &session.viewers, &updates);
                Reply::ok_with(|c| {
                    c.arg("tiles", updates.len() as i64)
                        .arg("seq", session.fb.seq() as i64)
                })
            }
            "vncAttach" => {
                let id = cmd.get_text("session").expect("validated");
                let Some(session) = self.sessions.get_mut(id) else {
                    return Reply::err(ErrorCode::NotFound, format!("no session {id}"));
                };
                if session.password != cmd.get_text("password").expect("validated") {
                    ctx.log("security", format!("bad VNC password for session {id}"));
                    return Reply::err(ErrorCode::Denied, "bad password");
                }
                let viewer = Addr::new(
                    cmd.get_text("host").expect("validated"),
                    cmd.get_int("port").expect("validated") as u16,
                );
                if !session.viewers.contains(&viewer) {
                    session.viewers.push(viewer.clone());
                }
                // Attach-time full transfer.
                let full = session.fb.full_frame();
                Self::push_updates(ctx, id, std::slice::from_ref(&viewer), &full);
                let (w, h) = session.fb.size();
                Reply::ok_with(|c| {
                    c.arg("width", w as i64).arg("height", h as i64).arg(
                        "checksum",
                        Value::Word(format!("x{:016x}", session.fb.checksum())),
                    )
                })
            }
            "vncDetach" => {
                let id = cmd.get_text("session").expect("validated");
                let Some(session) = self.sessions.get_mut(id) else {
                    return Reply::err(ErrorCode::NotFound, format!("no session {id}"));
                };
                let viewer = Addr::new(
                    cmd.get_text("host").expect("validated"),
                    cmd.get_int("port").expect("validated") as u16,
                );
                session.viewers.retain(|v| v != &viewer);
                Reply::ok()
            }
            "vncInput" => {
                let id = cmd.get_text("session").expect("validated");
                let Some(session) = self.sessions.get_mut(id) else {
                    return Reply::err(ErrorCode::NotFound, format!("no session {id}"));
                };
                session
                    .input_log
                    .push(cmd.get_text("event").expect("validated").to_string());
                Reply::ok()
            }
            "vncState" => {
                let id = cmd.get_text("session").expect("validated");
                match self.sessions.get(id) {
                    Some(s) => Reply::ok_with(|c| {
                        c.arg("user", s.user.as_str())
                            .arg("viewers", s.viewers.len() as i64)
                            .arg("inputs", s.input_log.len() as i64)
                            .arg("seq", s.fb.seq() as i64)
                            .arg(
                                "checksum",
                                Value::Word(format!("x{:016x}", s.fb.checksum())),
                            )
                    }),
                    None => Reply::err(ErrorCode::NotFound, format!("no session {id}")),
                }
            }
            "vncSetPassword" => {
                let id = cmd.get_text("session").expect("validated");
                match self.sessions.get_mut(id) {
                    Some(s) => {
                        s.password = cmd.get_text("password").expect("validated").to_string();
                        Reply::ok()
                    }
                    None => Reply::err(ErrorCode::NotFound, format!("no session {id}")),
                }
            }
            "vncClose" => {
                let id = cmd.get_text("session").expect("validated");
                if self.sessions.remove(id).is_some() {
                    Reply::ok()
                } else {
                    Reply::err(ErrorCode::NotFound, format!("no session {id}"))
                }
            }
            "vncList" => {
                let mut ids: Vec<&String> = self.sessions.keys().collect();
                ids.sort();
                let rows: Vec<Vec<Scalar>> = ids
                    .iter()
                    .map(|id| {
                        vec![
                            Scalar::Str((*id).clone()),
                            Scalar::Str(self.sessions[*id].user.clone()),
                        ]
                    })
                    .collect();
                Reply::ok_with(|c| {
                    c.arg("count", rows.len() as i64)
                        .arg("sessions", Value::Array(rows))
                })
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }
}

/// A viewer: binds a datagram socket on the access point and replicates the
/// session framebuffer from tile updates.
pub struct VncViewer {
    session: String,
    socket: DatagramSocket,
    fb: Framebuffer,
}

impl std::fmt::Debug for VncViewer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VncViewer(session {} at {})",
            self.session,
            self.socket.addr()
        )
    }
}

impl VncViewer {
    /// Bind the viewer's datagram socket and attach to `session` on the VNC
    /// host, authenticating with `password`.
    pub fn attach(
        net: &SimNet,
        access_host: &HostId,
        viewer_port: u16,
        vnc_host: &Addr,
        session: &str,
        password: &str,
        identity: &ace_security::keys::KeyPair,
    ) -> Result<VncViewer, ClientError> {
        let socket = net
            .bind_datagram(Addr::new(access_host.clone(), viewer_port))
            .map_err(|e| ClientError::Link(ace_core::LinkError::Net(e)))?;
        let mut client = ServiceClient::connect(net, access_host, vnc_host.clone(), identity)?;
        let reply = client.call(
            &CmdLine::new("vncAttach")
                .arg("session", session)
                .arg("password", Value::Str(password.into()))
                .arg("host", access_host.as_str())
                .arg("port", viewer_port),
        )?;
        let width = reply.get_int("width").unwrap_or(1024) as u32;
        let height = reply.get_int("height").unwrap_or(768) as u32;
        Ok(VncViewer {
            session: session.to_string(),
            socket,
            fb: Framebuffer::new(width, height),
        })
    }

    /// Drain pending updates into the local framebuffer; returns how many
    /// were applied.
    pub fn pump(&mut self) -> usize {
        let mut applied = 0;
        while let Some(datagram) = self.socket.try_recv() {
            if let Some((session, update)) = TileUpdate::from_wire(&datagram.payload) {
                if session == self.session {
                    self.fb.apply(update);
                    applied += 1;
                }
            }
        }
        applied
    }

    /// Block until at least one update arrives (or timeout), then drain.
    pub fn pump_wait(&mut self, timeout: Duration) -> usize {
        match self.socket.recv_timeout(timeout) {
            Ok(datagram) => {
                let mut applied = 0;
                if let Some((session, update)) = TileUpdate::from_wire(&datagram.payload) {
                    if session == self.session {
                        self.fb.apply(update);
                        applied += 1;
                    }
                }
                applied + self.pump()
            }
            Err(_) => 0,
        }
    }

    /// The replicated framebuffer.
    pub fn framebuffer(&self) -> &Framebuffer {
        &self.fb
    }

    /// Local checksum (compare against `vncState`'s).
    pub fn checksum(&self) -> u64 {
        self.fb.checksum()
    }
}
