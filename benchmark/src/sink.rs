//! The benchmark's access-point sink: the far end of the login cascade.
//!
//! A login is complete for its user when the workspace appears at the
//! access point they stand at.  The WSS announces that with the
//! `workspaceReady` event; this daemon subscribes to it (`addNotification`)
//! and hands each event to the generator lane that owns the user, which is
//! what the open-loop clock stops on.

use ace_core::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

pub const LANES: usize = 2;

/// One `workspaceReady` as the access point saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadyEvent {
    pub user: u32,
    pub access_host: String,
}

#[derive(Default)]
struct LaneInbox {
    queue: Mutex<VecDeque<ReadyEvent>>,
    arrived: Condvar,
}

/// Shared between the sink daemon and the generator lanes.
pub struct SinkState {
    inboxes: [LaneInbox; LANES],
    total: AtomicU64,
    malformed: AtomicU64,
}

impl SinkState {
    pub fn new() -> SinkState {
        SinkState {
            inboxes: Default::default(),
            total: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
        }
    }

    /// Events received since the building came up.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::SeqCst)
    }

    /// Events whose user or access host could not be read.
    pub fn malformed(&self) -> u64 {
        self.malformed.load(Ordering::SeqCst)
    }

    fn deliver(&self, event: ReadyEvent) {
        self.total.fetch_add(1, Ordering::SeqCst);
        let inbox = &self.inboxes[event.user as usize % LANES];
        inbox.queue.lock().expect("sink inbox").push_back(event);
        inbox.arrived.notify_all();
    }

    /// Wait until `lane` has an event, or `timeout` passes.  Events come
    /// out in arrival order; the lane decides whether one is the event it
    /// is waiting for or a late duplicate of an earlier re-press.
    pub fn next(&self, lane: usize, timeout: Duration) -> Option<ReadyEvent> {
        let inbox = &self.inboxes[lane];
        let deadline = Instant::now() + timeout;
        let mut queue = inbox.queue.lock().expect("sink inbox");
        loop {
            if let Some(event) = queue.pop_front() {
                return Some(event);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            queue = inbox
                .arrived
                .wait_timeout(queue, left)
                .expect("sink inbox")
                .0;
        }
    }

    /// Take whatever `lane` has queued without waiting.
    pub fn drain(&self, lane: usize) -> Vec<ReadyEvent> {
        self.inboxes[lane]
            .queue
            .lock()
            .expect("sink inbox")
            .drain(..)
            .collect()
    }
}

impl Default for SinkState {
    fn default() -> Self {
        SinkState::new()
    }
}

/// The sink daemon's behavior.
pub struct AccessSink {
    state: std::sync::Arc<SinkState>,
}

impl AccessSink {
    pub fn new(state: std::sync::Arc<SinkState>) -> AccessSink {
        AccessSink { state }
    }
}

impl ServiceBehavior for AccessSink {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(
            CmdSpec::new("onWorkspaceReady", "notification from the WSS")
                .optional("service", ArgType::Str, "origin")
                .optional("cmd", ArgType::Str, "origin event")
                .optional("username", ArgType::Word, "whose workspace")
                .optional("workspace", ArgType::Word, "workspace name")
                .optional("session", ArgType::Word, "VNC session")
                .optional("vncHost", ArgType::Word, "VNC host")
                .optional("vncPort", ArgType::Int, "VNC port")
                .optional("password", ArgType::Str, "session password")
                .optional("accessHost", ArgType::Word, "where to show it"),
        )
    }

    fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        let user = cmd
            .get_text("username")
            .and_then(|name| name.strip_prefix('u'))
            .and_then(|digits| digits.parse::<u32>().ok());
        match (user, cmd.get_text("accessHost")) {
            (Some(user), Some(host)) => self.state.deliver(ReadyEvent {
                user,
                access_host: host.to_string(),
            }),
            _ => {
                self.state.malformed.fetch_add(1, Ordering::SeqCst);
            }
        }
        Reply::ok()
    }
}
