//! The service behavior trait and its execution context.
//!
//! A daemon is "an independent and highly efficient shell that serves as the
//! basis for ACE services" (§2.1.1).  The shell (threads, sockets, security,
//! registration, notifications) lives in [`crate::daemon`]; what a specific
//! service *does* is a [`ServiceBehavior`].  Implementing a new ACE service
//! is exactly what §2.3 promises: define the command semantics, implement
//! `handle`, and the framework does the rest.
//!
//! What a behavior *sends* goes through its [`ServiceCtx`]: `call`,
//! `lookup`, `log`, `send_async` and fired events all leave through the
//! daemon's one [`LinkPool`] — probed before the send, resumed on redial.
//! [`ServiceCtx::call`] is the pool's one call loop, the loop
//! [`crate::FailoverClient`] rides too, given the daemon's policy as data:
//! two short retries inside the caller's deadline, at least once, paid from
//! the daemon's retry budget, no breaker.  [`ServiceCtx::pool`] lends the
//! pool to clients and workers the behavior owns.
//!
//! What a behavior *asks the directory* is remembered: [`ServiceCtx::lookup`]
//! answers from the daemon's lease-bounded [`ResolutionCache`], so a held
//! answer is at most one lease old — no staler than the ASD's own listing of
//! a dead daemon (§2.4) — and an empty one is never held.  A behavior keeps
//! no peer address of its own: it asks each time, and a call that fails at
//! the link forgets every answer naming that address, so a peer that moved
//! is found again by the next question.

use crate::client::{ClientError, DEFAULT_CALL_TIMEOUT};
use crate::daemon::DaemonConfig;
use crate::directory;
use crate::failover::{resolution_ttl, ResolutionCache};
use crate::metrics::MetricsRegistry;
use crate::notify::Notifier;
use crate::pool::{LinkPool, Retrying};
use crate::protocol::{self, ServiceEntry};
use crate::retry::{RetryBudget, RetryPolicy};
use ace_lang::{CmdLine, ErrorCode, Reply, Semantics};
use ace_net::{Addr, Datagram, HostId, SimNet};
use ace_security::hash::fnv64;
use ace_security::keys::KeyPair;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Who issued the command being handled.
#[derive(Debug, Clone)]
pub struct ClientInfo {
    /// Authenticated principal (public-key string) from the link handshake.
    pub principal: String,
    /// Network address of the caller.
    pub addr: Addr,
}

/// What a specific ACE service does.  One instance runs per daemon, driven
/// exclusively by the daemon's control role — so `&mut self` methods need
/// no internal locking.
pub trait ServiceBehavior: Send + 'static {
    /// The service's command vocabulary.  The framework automatically adds
    /// the built-in commands (`ping`, `describe`, notifications, …), i.e.
    /// every service inherits from the base of the Fig. 6 hierarchy.
    fn semantics(&self) -> Semantics;

    /// Execute one validated, authorized command.
    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, from: &ClientInfo) -> Reply;

    /// Called once after registration completes, before any command.
    fn on_start(&mut self, _ctx: &mut ServiceCtx) {}

    /// A datagram arrived on the daemon's UDP data channel (§2.1.1).
    fn on_data(&mut self, _ctx: &mut ServiceCtx, _datagram: Datagram) {}

    /// Periodic tick (device polling, timers).  Cadence is
    /// `DaemonConfig::tick`.
    fn on_tick(&mut self, _ctx: &mut ServiceCtx) {}

    /// Called once when the daemon stops (graceful shutdown only).
    fn on_stop(&mut self, _ctx: &mut ServiceCtx) {}

    /// Called just before a metrics snapshot is taken — on every `aceStats`
    /// command.  Behaviors export service-internal state here (e.g. the
    /// store replica publishes WAL batch counters as gauges) via
    /// `ctx.metrics()`.
    fn on_stats(&mut self, _ctx: &mut ServiceCtx) {}

    /// Serialize this behavior's state for a live upgrade.  Called on the
    /// control role after the daemon has quiesced (no command is in
    /// flight, new work is being refused with `E_UPGRADING`).  Stateless
    /// services return `None` (the default): the replacement incarnation
    /// starts fresh.  Stateful services seal their state with
    /// [`crate::protocol::seal_snapshot`] so corruption is detected at
    /// restore time.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Rebuild state from a [`ServiceBehavior::snapshot_state`] blob on
    /// the *replacement* behavior, before its daemon registers with the
    /// ASD or admits any traffic.  An `Err` refuses the snapshot — the
    /// upgrade driver must then abort the swap and leave the old
    /// incarnation serving.
    fn restore_state(&mut self, _snapshot: &[u8]) -> Result<(), String> {
        Ok(())
    }
}

/// The daemon-provided capabilities a behavior can use while executing:
/// identity, outbound calls, ASD lookup, event emission, logging.
pub struct ServiceCtx {
    /// The daemon's one outbound path; also where its host, identity and
    /// network handle live.
    pool: Arc<LinkPool>,
    /// The daemon's configuration — the copy its handle and its lease
    /// client read too: name, class, room, port, directory and logger.
    pub(crate) config: Arc<DaemonConfig>,
    /// What the ASD told this daemon, each answer held for at most one
    /// lease.  Made by the first [`ServiceCtx::lookup`], counters and all:
    /// a daemon that never asks pays one pointer (E22 packs 10,000 of
    /// those into a process) and reports no `resolve.*` row.
    resolutions: Option<Box<ResolutionCache>>,
    notifier: Notifier,
    metrics: Arc<MetricsRegistry>,
    /// The daemon's storm-prevention budget, shared with its lease client:
    /// [`ServiceCtx::call`] pays for each retry out of it.
    retry_budget: Arc<RetryBudget>,
    /// Events fired by the behavior during this dispatch, drained by the
    /// control role into the notification registry.
    pub(crate) pending_events: Vec<CmdLine>,
    /// Set by the behavior to request daemon shutdown.
    pub(crate) stop_requested: bool,
    /// Absolute expiry of the command currently being dispatched, derived
    /// from its `deadline=` header; set by the control role around each
    /// dispatch.
    deadline: Option<Instant>,
    /// The runtime this daemon runs on — lets stats paths publish
    /// `runtime.*` gauges into this daemon's registry.
    pub(crate) runtime: crate::runtime::Runtime,
}

impl ServiceCtx {
    pub(crate) fn new(
        pool: Arc<LinkPool>,
        config: Arc<DaemonConfig>,
        notifier: Notifier,
        metrics: Arc<MetricsRegistry>,
        retry_budget: Arc<RetryBudget>,
        runtime: crate::runtime::Runtime,
    ) -> ServiceCtx {
        ServiceCtx {
            pool,
            config,
            resolutions: None,
            notifier,
            metrics,
            retry_budget,
            pending_events: Vec::new(),
            stop_requested: false,
            deadline: None,
            runtime,
        }
    }

    /// Install (or clear) the deadline of the command being dispatched.
    pub(crate) fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Wall-clock budget left before the current command's client gives
    /// up, if the caller stamped a `deadline=`.  Long-running handlers can
    /// check this and bail out early instead of computing a reply nobody
    /// will read.
    pub fn time_remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(self.pool.clock().now()))
    }

    /// Has the current command's deadline already lapsed?
    pub fn deadline_expired(&self) -> bool {
        matches!(self.time_remaining(), Some(r) if r.is_zero())
    }

    /// This service's name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// This service's class (hierarchy path).
    pub fn class(&self) -> &str {
        &self.config.class
    }

    /// The room this service lives in.
    pub fn room(&self) -> &str {
        &self.config.room
    }

    /// The host this daemon runs on.
    pub fn host(&self) -> &HostId {
        self.pool.host()
    }

    /// This daemon's service address.
    pub fn addr(&self) -> Addr {
        Addr::new(self.host().clone(), self.config.port)
    }

    /// This daemon's principal.
    pub fn principal(&self) -> String {
        self.identity().principal()
    }

    /// This daemon's key pair (for signing credentials it issues).
    pub fn identity(&self) -> &KeyPair {
        self.pool.identity()
    }

    /// The shared network handle.
    pub fn net(&self) -> &SimNet {
        self.pool.net()
    }

    /// This daemon's link pool — the one path everything it sends takes.
    /// Behaviors hand it to the composite clients and workers they own
    /// (a store client, an anti-entropy thread) so those share the
    /// daemon's links and tickets instead of dialing their own.
    pub fn pool(&self) -> Arc<LinkPool> {
        Arc::clone(&self.pool)
    }

    /// Call another ACE service over this daemon's [`LinkPool`], through
    /// the pool's one call loop (see [`crate::pool`]) with this policy:
    ///
    /// * a command that did not run — a refused dial, `E_BUSY`,
    ///   `E_DEADLINE`, `E_UPGRADING` — and, at least once, one whose link
    ///   failed under it are tried again at most twice, after 5 ms and then
    ///   10 ms, never past [`ServiceCtx::time_remaining`], each retry paid
    ///   for out of the daemon's retry budget.  On `E_UPGRADING` the pool's
    ///   links to `addr` are evicted first, so the retry dials the
    ///   replacement;
    /// * every other service error is an answer and returns at once;
    /// * a link failure or `E_UPGRADING` forgets every directory answer
    ///   held for [`ServiceCtx::lookup`] that names `addr`: whatever lived
    ///   there may have moved, and the next lookup asks the ASD where to.
    ///
    /// When the command being dispatched carried a `deadline=`, the
    /// remaining budget is stamped onto each outbound attempt so downstream
    /// hops inherit (and decrement) the caller's deadline.
    pub fn call(&mut self, addr: &Addr, cmd: &CmdLine) -> Result<CmdLine, ClientError> {
        let mut policy = RetryPolicy::new(Duration::from_millis(5))
            .with_jitter(0.0)
            .with_max_attempts(2)
            .with_retry_budget(Arc::clone(&self.retry_budget));
        if let Some(remaining) = self.time_remaining() {
            policy = policy.with_budget(remaining);
        }
        let how = Retrying {
            policy,
            at_least_once: true,
            answers: self.resolutions.as_deref(),
            breaker: None,
        };
        let route = || Ok(addr.clone());
        self.pool
            .call_with(&mut None, route, cmd, DEFAULT_CALL_TIMEOUT, &how)
    }

    /// Look up services in the directory (Fig. 7).  Any combination of
    /// filters.
    ///
    /// A non-empty answer is held for the `lease=` its reply carried and
    /// served from this daemon's [`ResolutionCache`] until then, so it can
    /// list a daemon that died up to one lease ago (as the ASD itself can)
    /// and miss one that registered since; an empty answer is never held.
    /// A [`ServiceCtx::call`] that fails at the link drops the answers
    /// naming that address, so a dead entry is used at most once.
    pub fn lookup(
        &mut self,
        name: Option<&str>,
        class: Option<&str>,
        room: Option<&str>,
    ) -> Result<Vec<ServiceEntry>, ClientError> {
        let metrics = &self.metrics;
        let held = self
            .resolutions
            .get_or_insert_with(|| Box::new(ResolutionCache::with_metrics(metrics)));
        if let Some(entries) = held.get(name, class, room, self.pool.clock().now()) {
            return Ok(entries);
        }
        let (entries, lease) = self.lookup_now(name, class, room)?;
        if let Some(held) = &self.resolutions {
            let (ttl, now) = (resolution_ttl(lease), self.pool.clock().now());
            held.store(name, class, room, entries.clone(), ttl, now);
        }
        Ok(entries)
    }

    /// What the directory answers now, past the held answers (the
    /// Supervisor asks "is it still registered", not "where do I send
    /// this"), and the lease it stamped: [`directory::lookup`], each replica
    /// asked with [`ServiceCtx::call`].  Reads start at a replica fixed by
    /// this daemon's name, so a plane's daemons spread over each group.
    pub(crate) fn lookup_now(
        &mut self,
        name: Option<&str>,
        class: Option<&str>,
        room: Option<&str>,
    ) -> Result<(Vec<ServiceEntry>, Option<i64>), ClientError> {
        let config = Arc::clone(&self.config);
        let map = config.directory.as_ref().ok_or(ClientError::Service {
            code: ErrorCode::Unavailable,
            msg: "daemon configured without a directory".into(),
        })?;
        let start = fnv64(config.name.as_bytes()) as usize;
        let mut ask = |addr: &Addr, cmd: &CmdLine| self.call(addr, cmd);
        directory::lookup(&mut ask, map, start, name, class, room)
    }

    /// Find exactly one service by name; `None` if absent.
    pub fn lookup_one(&mut self, name: &str) -> Result<Option<ServiceEntry>, ClientError> {
        Ok(self.lookup(Some(name), None, None)?.into_iter().next())
    }

    /// Fire an event through this daemon's notification registry (§2.5) —
    /// e.g. the FIU daemon fires `userIdentified` when a fingerprint
    /// matches.  Listeners registered with `addNotification cmd=<event>`
    /// are invoked asynchronously.
    pub fn fire_event(&mut self, event: CmdLine) {
        self.pending_events.push(event);
    }

    /// Queue a fire-and-forget command to another service (delivered by the
    /// notifier worker; never blocks).
    pub fn send_async(&self, addr: Addr, cmd: CmdLine) {
        self.notifier.send(addr, cmd);
    }

    /// Append a record to the Network Logger, if configured.  Asynchronous
    /// and best-effort.
    pub fn log(&self, level: &str, msg: impl Into<String>) {
        if let Some(logger) = &self.config.logger {
            let origin = Some((self.name(), self.host().as_str()));
            self.notifier
                .send(logger.clone(), protocol::log_cmd(level, msg, origin));
        }
    }

    /// This daemon's metrics registry.  Handles are cheap `Arc`s over
    /// atomics — grab one once and keep it if the call site is hot.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Request a graceful daemon shutdown once this dispatch completes.
    pub fn request_stop(&mut self) {
        self.stop_requested = true;
    }
}

impl std::fmt::Debug for ServiceCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ServiceCtx({} @ {}:{})",
            self.name(),
            self.host(),
            self.config.port
        )
    }
}
