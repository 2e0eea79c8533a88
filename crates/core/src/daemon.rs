//! The ACE service daemon shell (§2.1).
//!
//! "Each daemon consists of four threads … the main thread, the command
//! thread, the data thread, and the control thread.  The command thread is
//! the only one created on a per connection basis. … All communications
//! between these threads are carried out over message queues."
//!
//! Here a daemon is **one cooperative task** ([`DaemonTask`]) on the shared
//! [`Runtime`] — a deliberate deviation from the paper's threads (four OS
//! threads per service cap a process at a few hundred daemons; see
//! EXPERIMENTS.md § "Daemon runtime (PR 8)").  The four *roles* survive as
//! the stages of one poll, and the message queue between them as a field of
//! the task — nothing but this task ever touches it:
//!
//! * **main** — the Fig. 9 startup sequence (Room DB → ASD → Net Logger)
//!   runs synchronously in [`Daemon::spawn`]; lease renewal and the
//!   graceful-stop deregistration are [`LeaseState`], ticked by the poll.
//!   Both send over the daemon's one [`LinkPool`], created in `spawn` and
//!   shared with the behavior's context and the notifier;
//! * **accept + command** — the intake stages: accept connections, run the
//!   secure handshake once the client's hello is in hand, then parse,
//!   semantically validate, gate and *admit* incoming commands into the
//!   bounded admission queue (refusals are answered inline);
//! * **data** — datagrams on the daemon's UDP channel enter the same queue;
//! * **control** — [`Control`] owns the [`ServiceBehavior`], the
//!   notification registry and the queue: it executes
//!   commands (after the KeyNote check), fires notifications, and drives
//!   `on_tick`/`on_data`.  Each reply goes straight back onto the session
//!   that sent the command.
//!
//! # Calls and casts
//!
//! A session's frame is a call or a cast ([`crate::link`]), and both take
//! the one path above: parsed, validated, gated, admitted — one in flight
//! per session — authorized, dispatched.  They differ only in
//! [`send_reply`]: a call is owed exactly one reply; **a cast is answered
//! if and only if it did not run**.  Every refusal the shell makes (parse,
//! semantics, the quiesce gate, a spent deadline, a full lane, a shed at
//! dequeue) and a handler's own retryable error — by
//! [`ErrorCode::is_retryable`]'s contract a verb that did not run — goes
//! back as the usual `error …;` plus `cast=<n>`, `n` counting the casts
//! read on that session, so the sender knows which one to send again.  A
//! cast that ran is never answered, `ok` or not.

use crate::admission::{AdmissionConfig, AdmissionQueue, Lane};
use crate::auth::{action_env_for, AuthMode};
use crate::behavior::{ClientInfo, ServiceBehavior, ServiceCtx};
use crate::client::{ClientError, DEFAULT_CALL_TIMEOUT};
use crate::directory;
use crate::link::{LinkError, SecureLink, TicketVault};
use crate::metrics::{Counter, Histogram, MetricsRegistry};
use crate::notify::{NotificationRegistry, Notifier, Registration};
use crate::placement::GroupMap;
use crate::pool::{LinkPool, Retrying};
use crate::protocol::{self, ServiceEntry};
use crate::retry::{RetryBudget, RetryPolicy};
use crate::runtime::{Runtime, RuntimeTask, TaskContext, TaskHandle, TaskPoll};
use ace_lang::{CmdLine, ErrorCode, Reply, Scalar, Semantics, Value};
use ace_net::{Addr, Clock, Datagram, HostId, NetError, SimNet, WakeCell};
use ace_security::hash::fnv64;
use ace_security::keys::KeyPair;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::time::{Duration, Instant};

/// Configuration of one daemon.
#[derive(Clone)]
pub struct DaemonConfig {
    /// Unique service name ("foo" in Fig. 9).
    pub name: String,
    /// Service class — a dot path in the Fig. 6 hierarchy, e.g.
    /// `Service.Device.PTZCamera.VCC3`.
    pub class: String,
    /// Room this service lives in.
    pub room: String,
    /// Host to run on.
    pub host: HostId,
    /// Port to listen on (stream and datagram).
    pub port: u16,
    /// The directory to register with (Fig. 9 step 3), keep a lease on and
    /// look services up in: the bootstrap ASD as a 1×1 map, or a sharded
    /// plane's map.
    pub directory: Option<GroupMap>,
    /// Room Database to register with (step 2).
    pub roomdb: Option<Addr>,
    /// Network Logger to report to (step 5).
    pub logger: Option<Addr>,
    /// Authorization mode for incoming commands (§3.2).
    pub auth: AuthMode,
    /// Key pair; generated if not provided.  Provide one when KeyNote
    /// policies must name this service.
    pub identity: Option<KeyPair>,
    /// Cadence of `on_tick`.
    pub tick: Duration,
    /// Lease renewal interval, when something other than a third of the
    /// lease the ASD granted at registration (must be below that lease).
    pub lease_renew: Option<Duration>,
    /// Monotone spawn generation of this service name.  Every live
    /// upgrade (and supervised restart that opts in) increments it; the
    /// daemon stamps it into `ping` replies so clients and chaos tests
    /// can detect stale incarnations answering.
    pub incarnation: u64,
    /// Resumption-ticket vault to serve `resume` handshakes from.  A live
    /// upgrade hands the old incarnation's vault (and identity) to the
    /// replacement so established clients resume in one round trip; when
    /// absent a fresh vault is created and dies with the daemon, which is
    /// what forces clients back onto the full handshake after a crash.
    pub ticket_vault: Option<Arc<TicketVault>>,
    /// Notification registrations carried over from a previous
    /// incarnation, seeded before the first command executes.
    pub notifications: Vec<(String, Registration)>,
    /// Admission-control sizing and shedding policy of the command plane.
    pub admission: AdmissionConfig,
    /// Runtime pool to run on; defaults to the process-wide
    /// [`Runtime::global`].  Tests and benches pass a private pool for
    /// isolation and worker-count ablation.
    pub runtime_pool: Option<Runtime>,
}

impl DaemonConfig {
    /// Minimal standalone configuration (no framework registrations, open
    /// authorization) — what the bootstrap services themselves use.
    pub fn new(
        name: impl Into<String>,
        class: impl Into<String>,
        room: impl Into<String>,
        host: impl Into<HostId>,
        port: u16,
    ) -> DaemonConfig {
        DaemonConfig {
            name: name.into(),
            class: class.into(),
            room: room.into(),
            host: host.into(),
            port,
            directory: None,
            roomdb: None,
            logger: None,
            auth: AuthMode::Open,
            identity: None,
            tick: Duration::from_millis(50),
            lease_renew: None,
            incarnation: 0,
            ticket_vault: None,
            notifications: Vec::new(),
            admission: AdmissionConfig::default(),
            runtime_pool: None,
        }
    }

    /// Register with this directory at startup and keep a lease on it.
    pub fn with_directory(mut self, directory: GroupMap) -> Self {
        self.directory = Some(directory);
        self
    }

    /// Register with this Room Database at startup.
    pub fn with_roomdb(mut self, roomdb: Addr) -> Self {
        self.roomdb = Some(roomdb);
        self
    }

    /// Report lifecycle events to this Network Logger.
    pub fn with_logger(mut self, logger: Addr) -> Self {
        self.logger = Some(logger);
        self
    }

    /// Enforce this authorization mode.
    pub fn with_auth(mut self, auth: AuthMode) -> Self {
        self.auth = auth;
        self
    }

    /// Use a fixed identity.
    pub fn with_identity(mut self, identity: KeyPair) -> Self {
        self.identity = Some(identity);
        self
    }

    /// Override the tick cadence.
    pub fn with_tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    /// Renew the lease every `interval` instead of at a third of the lease
    /// the ASD granted.
    pub fn with_lease_renew(mut self, interval: Duration) -> Self {
        self.lease_renew = Some(interval);
        self
    }

    // Kept only for its one caller, `benchmark/src/building.rs:650`; stats are pulled.
    #[doc(hidden)]
    pub fn with_stats_interval(self, _interval: Duration) -> Self {
        self
    }

    /// Stamp this spawn generation (monotone across restarts of one name).
    pub fn with_incarnation(mut self, incarnation: u64) -> Self {
        self.incarnation = incarnation;
        self
    }

    /// Serve session resumption from an existing ticket vault (live
    /// upgrades pass the previous incarnation's vault here).
    pub fn with_ticket_vault(mut self, vault: Arc<TicketVault>) -> Self {
        self.ticket_vault = Some(vault);
        self
    }

    /// Seed notification registrations carried over from a previous
    /// incarnation.
    pub fn with_notifications(mut self, notifications: Vec<(String, Registration)>) -> Self {
        self.notifications = notifications;
        self
    }

    /// Override the admission-control policy (lane sizes, CoDel target,
    /// deadline enforcement).
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// Run on this specific runtime pool instead of [`Runtime::global`].
    pub fn with_runtime_pool(mut self, pool: Runtime) -> Self {
        self.runtime_pool = Some(pool);
        self
    }
}

/// Startup failures (Fig. 9 steps).
#[derive(Debug)]
pub enum SpawnError {
    /// Could not bind the daemon's sockets.
    Bind(NetError),
    /// A framework registration failed.
    Register {
        step: &'static str,
        error: ClientError,
    },
    /// The behavior refused a live-upgrade state snapshot (torn,
    /// corrupted, or of the wrong kind) — the old incarnation must keep
    /// serving.
    Restore(String),
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnError::Bind(e) => write!(f, "bind: {e}"),
            SpawnError::Register { step, error } => write!(f, "register ({step}): {error}"),
            SpawnError::Restore(msg) => write!(f, "restore: {msg}"),
        }
    }
}
impl std::error::Error for SpawnError {}

/// What travels the admission queue from the intake stages to [`Control`].
enum ControlMsg {
    Execute {
        cmd: CmdLine,
        from: ClientInfo,
        /// The session that sent the command; its reply goes back there.
        session: u64,
        /// When intake queued this — measures control-queue wait.
        enqueued: Instant,
        /// Absolute expiry derived from the command's `deadline=` header;
        /// expired work is shed before executing it.
        deadline: Option<Instant>,
    },
    Data(Datagram),
}

/// A running daemon.
pub struct Daemon;

impl Daemon {
    /// Run the Fig. 9 startup sequence and launch the daemon task.
    pub fn spawn(
        net: &SimNet,
        config: DaemonConfig,
        behavior: Box<dyn ServiceBehavior>,
    ) -> Result<DaemonHandle, SpawnError> {
        let identity = Arc::new(
            config
                .identity
                .unwrap_or_else(|| KeyPair::generate(&mut rand::thread_rng())),
        );
        // The daemon's one copy of its configuration: the handle, the lease
        // client and the behavior's context all read this.
        let config = Arc::new(config);
        let addr = Addr::new(config.host.clone(), config.port);
        let metrics = Arc::new(MetricsRegistry::new());
        // Surface the authorizer's cache counters through this daemon's
        // `aceStats` (they keep whatever counts accrued before spawn).
        if let AuthMode::Local(auth) = &config.auth {
            auth.bind_metrics(&metrics);
        }

        // Step 1: the host "launches" the service — bind its sockets.
        let listener = net.listen(addr.clone()).map_err(SpawnError::Bind)?;
        let dsocket = net.bind_datagram(addr.clone()).map_err(SpawnError::Bind)?;

        // Everything this daemon ever sends — the three registrations below,
        // lease renewals, the behavior's calls, notifications — leaves
        // through this one pool.
        let pool = Arc::new(
            LinkPool::new(net, config.host.clone(), *identity).with_wire_metrics(&metrics),
        );

        // Step 2: establish location with the Room Database.
        if let Some(roomdb) = &config.roomdb {
            let failed = |error| SpawnError::Register {
                step: "roomdb",
                error,
            };
            let mut link = pool.checkout(roomdb).map_err(failed)?;
            link.call_ok(
                &CmdLine::new("roomRegister")
                    .arg("service", config.name.as_str())
                    .arg("host", config.host.as_str())
                    .arg("port", config.port)
                    .arg("room", config.room.as_str()),
            )
            .map_err(failed)?;
            // The Room DB hears from a daemon here and at goodbye only: not
            // worth a standing session.
            link.discard();
        }

        // Shared storm-prevention budget for this daemon's own retry loops
        // (ASD registration below, lease renewal, `ServiceCtx::call`): even
        // framework-plane retries must not amplify an overload.
        let retry_budget = Arc::new(RetryBudget::new(5, 0.1));

        // Steps 3 and 5 ride out brief unavailability of the plane they talk
        // to (an ASD restart mid-recovery, a Network Logger shedding under
        // load) with a short bounded backoff before the spawn is declared
        // failed; an answer — a fenced incarnation's `E_BADSTATE` — fails
        // it at once.
        let mut call = |addr: &Addr, cmd: &CmdLine| {
            let how = Retrying {
                policy: RetryPolicy::new(Duration::from_millis(20))
                    .with_max_attempts(3)
                    .with_counter(metrics.counter("retry.backoffs"))
                    .with_retry_budget(Arc::clone(&retry_budget)),
                at_least_once: true,
                answers: None,
                breaker: None,
            };
            pool.call_with(
                &mut None,
                || Ok(addr.clone()),
                cmd,
                DEFAULT_CALL_TIMEOUT,
                &how,
            )
        };
        let failed = |step| move |error| SpawnError::Register { step, error };

        // Step 3: register with the directory.  The reply names the lease it
        // granted; renewals run at a third of it unless the configuration
        // says otherwise (a directory that grants none has none to renew).
        let mut renew_every = config.lease_renew;
        if let Some(map) = &config.directory {
            let entry = service_entry(&config);
            let granted = directory::register(&mut call, map, &entry, config.incarnation)
                .map_err(failed("asd"))?;
            renew_every = renew_every.or(granted.map(|lease| lease / 3));
        }

        // Step 5: record the start with the Network Logger.  (Step 4 —
        // notifications on the registration — happens inside the ASD.)
        if let Some(logger) = &config.logger {
            let started = format!("service {} started on host {}", config.name, config.host);
            call(logger, &log_cmd(&config, started)).map_err(failed("logger"))?;
        }

        // Full vocabulary: service commands inheriting the built-ins.
        let semantics = behavior.semantics().inheriting(&protocol::base_semantics());

        let stop = Arc::new(AtomicBool::new(false));
        let crashed = Arc::new(AtomicBool::new(false));
        // Quiesce gate: while set, intake refuses every verb except
        // liveness probes with a retryable `E_UPGRADING` error.
        let upgrading = Arc::new(AtomicBool::new(false));
        // Graceful stops deregister by default; `retire()` clears this so a
        // live upgrade's replacement registration is never clobbered by the
        // old incarnation's goodbye.
        let deregister = Arc::new(AtomicBool::new(true));
        metrics
            .gauge("daemon.incarnation")
            .set(config.incarnation as i64);
        // The shared ticket vault lets returning clients skip the full
        // handshake; by default it dies with the daemon, which is what
        // forces clients back onto the full handshake after a crash — a
        // live upgrade instead injects the old incarnation's vault so
        // sessions resume across the swap.
        let vault = config
            .ticket_vault
            .clone()
            .unwrap_or_else(|| Arc::new(TicketVault::with_default_ttl()));

        // One cooperative task carries all four roles; the notifier is a
        // second, smaller task on the same pool.
        let runtime = config
            .runtime_pool
            .clone()
            .unwrap_or_else(|| Runtime::global().clone());
        let (notifier, notifier_task) =
            Notifier::new(Arc::clone(&pool), &metrics, Arc::clone(&retry_budget));
        let ctx = ServiceCtx::new(
            Arc::clone(&pool),
            Arc::clone(&config),
            notifier,
            Arc::clone(&metrics),
            Arc::clone(&retry_budget),
            runtime.clone(),
        );
        // Listeners carried over from the previous incarnation (live
        // upgrade) are live before the first command executes.
        let mut registry = NotificationRegistry::new();
        for (watched, registration) in &config.notifications {
            registry.add(watched, registration.clone());
        }
        let control = Control {
            // Bounded two-lane admission queue: the command plane sheds
            // instead of buffering without limit (see `crate::admission`).
            queue: AdmissionQueue::new(&config.admission, &metrics),
            behavior,
            ctx,
            registry,
            semantics,
            stop: Arc::clone(&stop),
            upgrading: Arc::clone(&upgrading),
            queue_wait: metrics.histogram("control.queueWait"),
            shed_deadline: metrics.counter("shed.deadline"),
            // Eagerly created so `aceStats` always reports them, even at
            // zero.
            panics: metrics.counter("control.panics"),
            errors: metrics.counter("cmd.errors"),
            verb_hists: HashMap::new(),
            verb_errors: HashMap::new(),
        };
        let lease = LeaseState::new(
            pool,
            Arc::clone(&config),
            renew_every,
            &metrics,
            retry_budget,
        );
        let task = DaemonTask {
            listener,
            listener_dead: false,
            dsocket,
            dsocket_dead: false,
            identity: Arc::clone(&identity),
            vault: Arc::clone(&vault),
            tick: config.tick,
            crashed: Arc::clone(&crashed),
            deregister: Arc::clone(&deregister),
            control,
            accepted: metrics.counter("link.accepted"),
            resume_hits: metrics.counter("link.resume_hits"),
            full_handshakes: metrics.counter("link.full_handshakes"),
            rejected: metrics.counter("cmd.rejected"),
            upgrade_rejected: metrics.counter("upgrade.rejected"),
            opened_bytes: metrics.counter("link.openedBytes"),
            sessions: HashMap::new(),
            next_session: 0,
            ready: Arc::new(Mutex::new(Vec::new())),
            wake_cell: Arc::new(WakeCell::new()),
            lease,
            started: false,
            last_tick: net.clock().now(),
        };
        let main = runtime.spawn(Box::new(task));
        let notifier = runtime.spawn(Box::new(notifier_task));

        Ok(DaemonHandle(Arc::new(Running {
            addr,
            principal: identity.principal(),
            identity,
            config,
            stop,
            crashed,
            upgrading,
            deregister,
            ticket_vault: vault,
            metrics,
            main,
            notifier,
        })))
    }
}

/// Handle to a running daemon.  Clones share the daemon — a replica group
/// holds the replica its Supervisor's factory restarted — and dropping the
/// last clone stops it.
#[derive(Clone)]
pub struct DaemonHandle(Arc<Running>);

/// What a [`DaemonHandle`] holds of its daemon.
struct Running {
    addr: Addr,
    principal: String,
    identity: Arc<KeyPair>,
    config: Arc<DaemonConfig>,
    stop: Arc<AtomicBool>,
    crashed: Arc<AtomicBool>,
    upgrading: Arc<AtomicBool>,
    deregister: Arc<AtomicBool>,
    ticket_vault: Arc<TicketVault>,
    metrics: Arc<MetricsRegistry>,
    main: TaskHandle,
    notifier: TaskHandle,
}

impl DaemonHandle {
    /// The daemon's service name.
    pub fn name(&self) -> &str {
        &self.0.config.name
    }

    /// The daemon's service address.
    pub fn addr(&self) -> &Addr {
        &self.0.addr
    }

    /// The daemon's authenticated principal.
    pub fn principal(&self) -> &str {
        &self.0.principal
    }

    /// The daemon's key pair — a live upgrade reuses it so resumption
    /// tickets minted by the old incarnation stay valid for the new one.
    pub fn identity(&self) -> &KeyPair {
        &self.0.identity
    }

    /// The spawn generation this daemon was started under.
    pub fn incarnation(&self) -> u64 {
        self.0.config.incarnation
    }

    /// The configuration this daemon was spawned with.  A live upgrade
    /// clones it as the replacement's base config, so drivers don't have
    /// to reconstruct name/class/room/port wiring by hand.
    pub fn config(&self) -> &DaemonConfig {
        &self.0.config
    }

    /// The resumption-ticket vault this daemon serves from — handed to
    /// the replacement incarnation across a live upgrade.
    pub fn ticket_vault(&self) -> Arc<TicketVault> {
        Arc::clone(&self.0.ticket_vault)
    }

    /// Is the daemon currently quiesced for an upgrade?
    pub fn is_upgrading(&self) -> bool {
        self.0.upgrading.load(Ordering::SeqCst)
    }

    /// This daemon's metrics registry (`link.resume_hits`, `upgrade.*`, …).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.0.metrics
    }

    /// Is the daemon still running (not stopped or crashed)?
    pub fn is_running(&self) -> bool {
        !self.0.stop.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: deregisters from the ASD/Room DB, logs the stop,
    /// then waits for the daemon task to finish.
    pub fn shutdown(&self) {
        self.0.stop(false);
        self.0.join();
    }

    /// Graceful stop *without* deregistration: `on_stop` runs (workers
    /// join, state flushes) but the ASD/Room DB registrations are left in
    /// place for the replacement incarnation that has already (or is about
    /// to) register under the same name.  Used by live upgrades, where a
    /// late `removeService` from the old instance would clobber the new
    /// instance's registration — the lease cleans up if no replacement
    /// ever arrives.  Returns once the address is free: what the notifier
    /// still has to deliver (the `stopped` record) it delivers outside the
    /// upgrade's pause, and dropping the handle waits for it.
    pub fn retire(&self) {
        self.0.deregister.store(false, Ordering::SeqCst);
        self.0.stop(false);
        self.0.join_main();
    }

    /// Abrupt crash: the task stops immediately and *no* deregistration
    /// happens — exactly the failure the ASD's lease mechanism exists to
    /// clean up (§2.4).
    pub fn crash(&self) {
        self.0.stop(true);
        self.0.join();
    }
}

impl Running {
    /// A stop is this flag and nothing else: the task reads it before every
    /// message it dequeues, so it lands however full the lanes are, and
    /// `join_main` wakes a task that is parked.
    fn stop(&self, crashed: bool) {
        if crashed {
            self.crashed.store(true, Ordering::SeqCst);
        }
        self.stop.store(true, Ordering::SeqCst);
    }

    /// The task observes the stop flag on its next poll; waiting on the
    /// handle guarantees the task object (listener bind, datagram socket)
    /// is dropped before we return — the live-upgrade respawn path rebinds
    /// the same address.
    fn join_main(&self) {
        self.main.wake();
        self.main.wait(Duration::from_secs(60));
    }

    fn join(&self) {
        self.join_main();
        // Dropping the daemon task dropped the last `Notifier`, which lets
        // the delivery task drain and complete.
        self.notifier.wake();
        self.notifier.wait(Duration::from_secs(60));
    }
}

impl Drop for Running {
    /// The last handle is gone: a daemon still running shuts down (with
    /// its goodbye), and one already stopped is waited for.
    fn drop(&mut self) {
        if !self.stop.load(Ordering::SeqCst) {
            self.stop(false);
        }
        self.join();
    }
}

impl std::fmt::Debug for DaemonHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DaemonHandle({} @ {})", self.name(), self.0.addr)
    }
}

// ---------------------------------------------------------------------------
// The daemon task
// ---------------------------------------------------------------------------

// Per-poll work caps — fairness bounds so one busy daemon yields the worker
// back to its co-scheduled siblings instead of monopolizing it.
const ACCEPTS_PER_POLL: usize = 64;
const FRAMES_PER_SESSION: usize = 32;
const DGRAMS_PER_POLL: usize = 256;
const CONTROL_PER_POLL: usize = 256;
/// Rounds of the final sweep: a stopping daemon answers up to this many ×
/// [`FRAMES_PER_SESSION`] buffered frames a session — twice the notifier's
/// 64-cast window — and a peer that never stops writing cannot hold the
/// teardown.
const SWEEP_PASSES: usize = 4;
/// A connection whose client never starts the handshake is dropped after
/// this (swept on the tick cadence).
const PRE_HANDSHAKE_TTL: Duration = Duration::from_secs(5);

/// Granular readiness: one signal per session, so a frame arriving on one
/// link marks only that session ready instead of forcing the task to scan
/// every session it owns.
struct SessionSignal {
    id: u64,
    /// Dedup: set while the id sits in `ready`.
    queued: AtomicBool,
    ready: Arc<Mutex<Vec<u64>>>,
    /// The daemon task's wake cell (holds the task waker).
    cell: Arc<WakeCell>,
}

impl SessionSignal {
    /// Queue this session for the next poll (idempotent while queued).
    fn mark(&self) {
        if !self.queued.swap(true, Ordering::AcqRel) {
            self.ready.lock().push(self.id);
        }
    }
}

impl Wake for SessionSignal {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.mark();
        self.cell.wake();
    }
}

/// One client connection owned by the daemon task.
enum Session {
    /// Accepted but not yet handshaken.  The handshake is deferred until
    /// the client's hello arrives, so `accept_with_tickets` (a blocking
    /// exchange) runs with data already in hand and finishes promptly.
    Handshaking {
        conn: Option<ace_net::Connection>,
        since: Instant,
    },
    /// Secure link up.
    Established {
        link: SecureLink,
        from: ClientInfo,
        /// Casts read on this session so far: the `n` of `cast=<n>`.
        casts: u64,
        /// How the command this session has admitted and not yet settled
        /// was sent.  At most one is in flight per session — the ordering
        /// the paper's per-connection command thread enforced — so the
        /// session is not read again until [`conclude`] clears this.
        in_flight: Option<Sent>,
    },
}

struct SessionSlot {
    session: Session,
    signal: Arc<SessionSignal>,
}

type Sessions = HashMap<u64, SessionSlot>;

/// The quiesce gate's refusal: the verb did not run, retry (elsewhere).
fn upgrading_refusal() -> Reply {
    Reply::err(ErrorCode::Upgrading, "service is upgrading; retry")
}

/// The verb a reply is counted under (`wire.reply.-.*`) when it answers no
/// verb of this daemon's: a frame that did not parse, a name the daemon does
/// not know — a peer's made-up names must not grow the registry — or the
/// retiring daemon's answer in advance.
const UNNAMED: &str = "-";

/// What a stopping daemon answers a frame it will never run.
fn abandoned() -> Reply {
    Reply::err(ErrorCode::Internal, "control plane did not reply")
}

/// How a frame was sent: as a call, or as the session's n-th cast.
#[derive(Clone, Copy)]
enum Sent {
    Call,
    Cast(u64),
}

/// Did the command behind `reply` run?  A retryable error is, by
/// [`ErrorCode::is_retryable`]'s contract, a verb that did not.
fn ran(reply: &Reply) -> bool {
    !matches!(reply, Reply::Err { code, .. } if code.is_retryable())
}

/// The one place the shell answers a frame: a call always, a cast if and
/// only if it did not run — then with the ordinal that tells its sender
/// which one.  The link meters the answer as `wire.reply.<verb>`.
fn send_reply(
    link: &mut SecureLink,
    verb: &str,
    reply: &Reply,
    sent: Sent,
    ran: bool,
) -> Result<(), LinkError> {
    let frame = match sent {
        Sent::Call => reply.to_cmdline(),
        Sent::Cast(_) if ran => return Ok(()),
        Sent::Cast(n) => reply.to_cmdline().arg(protocol::CAST_ARG, n),
    };
    link.send_frame(verb, frame.to_frame())
}

/// Conclude the `verb` session `id` has in flight — answer it, unless it was
/// a cast that ran — then mark the session ready: more frames may be
/// buffered behind it.  A session that died while its command was queued
/// has its reply discarded (the command was admitted, so it still ran).
fn conclude(sessions: &mut Sessions, id: u64, verb: &str, reply: &Reply, ran: bool) {
    let Some(slot) = sessions.get_mut(&id) else {
        return;
    };
    let Session::Established {
        link, in_flight, ..
    } = &mut slot.session
    else {
        return;
    };
    let sent = in_flight.take().unwrap_or(Sent::Call);
    if send_reply(link, verb, reply, sent, ran).is_ok() {
        slot.signal.mark();
    } else {
        sessions.remove(&id);
    }
}

/// A whole daemon as one cooperative task: accept, handshake, command
/// parsing/gating, admission, dispatch, replies, datagrams, ticks and lease
/// renewal, multiplexed onto the runtime's worker pool.
struct DaemonTask {
    listener: ace_net::Listener,
    listener_dead: bool,
    dsocket: ace_net::DatagramSocket,
    dsocket_dead: bool,
    identity: Arc<KeyPair>,
    vault: Arc<TicketVault>,
    tick: Duration,
    crashed: Arc<AtomicBool>,
    deregister: Arc<AtomicBool>,
    control: Control,
    accepted: Arc<Counter>,
    resume_hits: Arc<Counter>,
    full_handshakes: Arc<Counter>,
    rejected: Arc<Counter>,
    upgrade_rejected: Arc<Counter>,
    opened_bytes: Arc<Counter>,
    sessions: Sessions,
    next_session: u64,
    ready: Arc<Mutex<Vec<u64>>>,
    wake_cell: Arc<WakeCell>,
    lease: LeaseState,
    started: bool,
    last_tick: Instant,
}

impl RuntimeTask for DaemonTask {
    fn poll(&mut self, cx: &mut TaskContext<'_>) -> TaskPoll {
        // Register wakers BEFORE checking for work: an event landing
        // between the check and the park must still wake us (spurious
        // wakes are safe; lost wakes are not).
        self.wake_cell.register(cx.waker());
        if !self.listener_dead {
            self.listener.register_waker(cx.waker());
        }
        if !self.dsocket_dead {
            self.dsocket.register_waker(cx.waker());
        }

        if !self.started {
            self.started = true;
            self.control.with_behavior(|b, ctx| b.on_start(ctx));
        }

        // An external stop (shutdown/crash/retire) skips new intake
        // entirely; frames already buffered are still answered first.
        if self.control.stopping() {
            return self.stop_poll();
        }

        let mut more = false;
        self.poll_accepts(&mut more);
        self.poll_datagrams(&mut more);
        self.poll_sessions();
        // Dispatch answers each command on its session as it returns, so
        // the client that sent `shutdown` has its acknowledgement before
        // the stop check below tears the daemon down.
        self.control.drain(&mut self.sessions, &mut more);

        if self.control.stopping() {
            return self.stop_poll();
        }

        let now = self.control.clock().now();
        if now.duration_since(self.last_tick) >= self.tick {
            self.last_tick = now;
            self.control.with_behavior(|b, ctx| b.on_tick(ctx));
            self.sweep_stale_handshakes(now);
        }
        if self.control.stopping() {
            return self.stop_poll();
        }
        self.lease.tick(self.control.clock().now());

        // A session still marked ready (just answered, or cut off at the
        // frame cap) may have input buffered: go round again.
        if more || !self.ready.lock().is_empty() {
            return TaskPoll::Again;
        }
        // Park until an endpoint wakes us or the earliest periodic
        // deadline (tick, lease renewal) arrives.
        let mut at = self.last_tick + self.tick;
        if let Some(renew) = self.lease.next_deadline() {
            at = at.min(renew);
        }
        cx.set_timer(at);
        TaskPoll::Pending
    }
}

impl DaemonTask {
    /// The task's last act.  A client whose frame raced the teardown still
    /// gets an answer (E_UPGRADING during a quiesce, E_INTERNAL for work
    /// the dying daemon abandons) before its link closes: what was admitted
    /// is settled as abandoned, then every session is read until it has no
    /// input left — with the stop up intake admits nothing, it refuses each
    /// frame in line, so one round answers [`FRAMES_PER_SESSION`] of them.
    /// `finish` (on_stop + the goodbye sequence — slow, networked) runs
    /// *before* the sweep so the unread-frame window between the sweep and
    /// the link drop is microseconds, not the whole teardown.
    fn stop_poll(&mut self) -> TaskPoll {
        self.finish();
        let (control, sessions) = (&mut self.control, &mut self.sessions);
        while control.settle_next(sessions, false).is_some() {}
        for _ in 0..SWEEP_PASSES {
            self.poll_sessions();
        }
        if self.control.upgrading.load(Ordering::SeqCst) && !self.crashed.load(Ordering::SeqCst) {
            self.answer_in_advance();
        }
        TaskPoll::Complete
    }

    /// Close the window the sweep leaves, for the case that promises zero
    /// drops: a quiesced daemon retiring for its replacement leaves one
    /// `E_UPGRADING` on every session before the links drop.  A frame that
    /// arrives after the sweep is never read, so it never runs — and its
    /// sender reads this as the reply (retry, against the replacement)
    /// instead of a closed link that cannot say whether the verb ran.  A
    /// peer that sends nothing finds the frame queued at its next health
    /// check and discards the link.
    fn answer_in_advance(&mut self) {
        let moved = upgrading_refusal();
        for slot in self.sessions.values_mut() {
            if let Session::Established { link, .. } = &mut slot.session {
                let _ = send_reply(link, UNNAMED, &moved, Sent::Call, false);
            }
        }
    }

    fn poll_accepts(&mut self, more: &mut bool) {
        if self.listener_dead {
            return;
        }
        let mut n = 0;
        while n < ACCEPTS_PER_POLL {
            match self.listener.try_accept() {
                Ok(Some(conn)) => {
                    n += 1;
                    self.accepted.incr();
                    let id = self.next_session;
                    self.next_session += 1;
                    let signal = Arc::new(SessionSignal {
                        id,
                        queued: AtomicBool::new(false),
                        ready: Arc::clone(&self.ready),
                        cell: Arc::clone(&self.wake_cell),
                    });
                    let waker = Waker::from(Arc::clone(&signal));
                    conn.register_waker(&waker);
                    // The hello may have raced the registration.
                    if conn.has_pending() {
                        signal.mark();
                    }
                    self.sessions.insert(
                        id,
                        SessionSlot {
                            session: Session::Handshaking {
                                conn: Some(conn),
                                since: self.control.clock().now(),
                            },
                            signal,
                        },
                    );
                }
                Ok(None) => return,
                Err(_) => {
                    // Listener gone: on the simulated net that only happens
                    // when this host was killed, and a revived host never
                    // restores the bind — only a respawned daemon can listen
                    // again.  Surviving here would leave a zombie: still
                    // renewing its lease and answering pings over sessions
                    // that outlived the crash, yet refusing every new
                    // connection — which pins the supervisor's health probes
                    // green and blocks the respawn forever.  Die as crashed
                    // so the lease lapses and recovery proceeds.
                    self.listener_dead = true;
                    self.crashed.store(true, Ordering::SeqCst);
                    self.control.stop.store(true, Ordering::SeqCst);
                    return;
                }
            }
        }
        *more = true;
    }

    fn poll_datagrams(&mut self, more: &mut bool) {
        if self.dsocket_dead {
            return;
        }
        let mut n = 0;
        while n < DGRAMS_PER_POLL {
            match self.dsocket.poll_recv() {
                Ok(Some(datagram)) => {
                    n += 1;
                    // Datagrams are lossy by contract: a saturated bulk
                    // lane drops them (counted by the admission shed
                    // counters) rather than buffering without bound.
                    let _ = self
                        .control
                        .queue
                        .offer(Lane::Bulk, ControlMsg::Data(datagram));
                }
                Ok(None) => return,
                Err(_) => {
                    // Same as a dead listener: the bind is gone for good
                    // (host killed), so the daemon dies as crashed rather
                    // than linger half-reachable.
                    self.dsocket_dead = true;
                    self.crashed.store(true, Ordering::SeqCst);
                    self.control.stop.store(true, Ordering::SeqCst);
                    return;
                }
            }
        }
        *more = true;
    }

    fn poll_sessions(&mut self) {
        let ready: Vec<u64> = std::mem::take(&mut *self.ready.lock());
        for id in ready {
            if self.progress_handshake(id) {
                self.read_session_frames(id);
            }
        }
    }

    /// Advance a handshaking session; `true` when the session is (now)
    /// established and should be read from.
    fn progress_handshake(&mut self, id: u64) -> bool {
        let Some(slot) = self.sessions.get_mut(&id) else {
            return false;
        };
        // Clear BEFORE processing: a wake during processing re-queues the
        // session (and re-wakes the task) instead of being lost.
        slot.signal.queued.store(false, Ordering::Release);
        let Session::Handshaking { conn, .. } = &mut slot.session else {
            return true;
        };
        if !conn.as_ref().map(|c| c.has_pending()).unwrap_or(false) {
            return false; // spurious wake; TTL sweep reaps abandoned peers
        }
        let c = conn.take().expect("handshaking session holds its conn");
        // The client's hello is already here, so this bounded blocking
        // exchange completes promptly (the watchdog covers the slow case).
        match SecureLink::accept_with_tickets(c, &self.identity, &self.vault) {
            Ok(mut link) => {
                if link.resumed() {
                    self.resume_hits.incr();
                } else {
                    self.full_handshakes.incr();
                }
                link.attach_metrics(Arc::clone(&self.opened_bytes));
                link.meter_wire(self.control.ctx.metrics().wire_replies());
                let waker = Waker::from(Arc::clone(&slot.signal));
                link.register_waker(&waker);
                let from = ClientInfo {
                    principal: link.peer_principal().to_string(),
                    addr: link.peer_addr().clone(),
                };
                slot.session = Session::Established {
                    link,
                    from,
                    casts: 0,
                    in_flight: None,
                };
                true
            }
            Err(_) => {
                // Failed handshake: drop the connection.
                self.sessions.remove(&id);
                false
            }
        }
    }

    /// Parse, validate, gate, and admit frames from one established
    /// session — the command role's per-message pipeline, for calls and
    /// casts alike.  Every refusal is answered inline and never enters the
    /// queue; the first admitted command ends the read until [`conclude`]
    /// has settled it.
    fn read_session_frames(&mut self, id: u64) {
        let Some(slot) = self.sessions.get_mut(&id) else {
            return;
        };
        let Session::Established {
            link,
            from,
            casts,
            in_flight,
        } = &mut slot.session
        else {
            return;
        };
        if in_flight.is_some() {
            return; // one in flight; `conclude` re-marks the session
        }
        let mut dead = false;
        let mut frames = 0;
        while frames < FRAMES_PER_SESSION {
            let received = match link.try_recv_cmd() {
                Ok(Some(cmd)) => Ok(cmd),
                Ok(None) => break,
                Err(LinkError::Malformed(msg)) => Err(Reply::err(ErrorCode::Parse, msg)),
                // Closed peer, dead host, or a tampered frame: end the
                // session.
                Err(_) => {
                    dead = true;
                    break;
                }
            };
            frames += 1;
            let sent = if link.last_frame_was_cast() {
                *casts += 1;
                Sent::Cast(*casts)
            } else {
                Sent::Call
            };
            let (verb, refusal) = match received {
                Err(unparsed) => (UNNAMED, unparsed),
                Ok(cmd) => {
                    let verb = self
                        .control
                        .semantics
                        .spec(cmd.name())
                        .map_or(UNNAMED, |spec| spec.name.as_str());
                    let refusal = if let Err(e) = self.control.semantics.validate(&cmd) {
                        // Semantic validation happens before admission,
                        // exactly as §2.2 describes the receiving side's
                        // parser doing.
                        self.rejected.incr();
                        Reply::err(ErrorCode::Semantics, e.to_string())
                    } else if self.control.upgrading.load(Ordering::SeqCst)
                        && !matches!(cmd.name(), "ping" | "describe" | "aceUpgrade")
                    {
                        // Quiesce gate: once an upgrade begins, refuse new
                        // work before it reaches the draining control
                        // queue.  Probes and the upgrade plane itself stay
                        // open.
                        self.upgrade_rejected.incr();
                        upgrading_refusal()
                    } else if self.control.queue.enforce_deadlines()
                        && matches!(cmd.deadline_ms(), Some(ms) if ms <= 0)
                    {
                        // Overload control before the control queue:
                        // expired deadlines and saturated lanes are refused
                        // with retryable errors instead of buffered.
                        self.control.shed_deadline.incr();
                        Reply::err(ErrorCode::Deadline, "deadline already expired")
                    } else if self.control.stopping() {
                        // The final sweep: nothing is admitted any more, so
                        // the read goes on to the frame behind this one.
                        abandoned()
                    } else {
                        let now = self.control.clock().now();
                        let deadline = cmd
                            .deadline_ms()
                            .map(|ms| now + Duration::from_millis(ms.max(0) as u64));
                        let lane = if protocol::is_priority_verb(cmd.name()) {
                            Lane::Priority
                        } else {
                            Lane::Bulk
                        };
                        let msg = ControlMsg::Execute {
                            cmd,
                            from: from.clone(),
                            session: id,
                            enqueued: now,
                            deadline,
                        };
                        if self.control.queue.offer(lane, msg).is_ok() {
                            *in_flight = Some(sent);
                            break;
                        }
                        Reply::err(ErrorCode::Busy, "admission queue saturated; retry later")
                    };
                    (verb, refusal)
                }
            };
            if send_reply(link, verb, &refusal, sent, false).is_err() {
                dead = true;
                break;
            }
        }
        if dead {
            self.sessions.remove(&id);
        } else if frames >= FRAMES_PER_SESSION {
            // Cap hit with input possibly still buffered: re-queue the
            // session so the poll goes round again instead of starving
            // siblings.
            slot.signal.mark();
        }
    }

    fn sweep_stale_handshakes(&mut self, now: Instant) {
        self.sessions.retain(|_, slot| match &slot.session {
            Session::Handshaking { since, .. } => now.duration_since(*since) < PRE_HANDSHAKE_TTL,
            Session::Established { .. } => true,
        });
    }

    /// Graceful teardown: `on_stop` (unless crashed) and the Fig. 9
    /// goodbye sequence.  The listener/datagram binds release when the
    /// runtime drops this task — before `TaskHandle::wait` returns.
    fn finish(&mut self) {
        let crashed = self.crashed.load(Ordering::SeqCst);
        if !crashed {
            self.control.behavior.on_stop(&mut self.control.ctx);
        }
        let deregister = self.deregister.load(Ordering::SeqCst);
        self.lease.goodbye(&self.control.ctx, crashed, deregister);
    }
}

// ---------------------------------------------------------------------------
// The control role
// ---------------------------------------------------------------------------

/// Everything the control role owns: the behavior with its context and
/// notification registry, and the admission queue — intake offers into it,
/// [`Control::settle_next`] is the one place it is dequeued.  One owner, so
/// dispatch, the upgrade plane and the built-in verbs are methods instead
/// of functions threading a dozen borrowed fields.
struct Control {
    queue: AdmissionQueue<ControlMsg>,
    behavior: Box<dyn ServiceBehavior>,
    ctx: ServiceCtx,
    registry: NotificationRegistry,
    semantics: Semantics,
    /// Set by the handle (`shutdown`/`retire`/`crash`), by a behavior's
    /// `request_stop`, or by a dead listener: the whole stop signal.
    stop: Arc<AtomicBool>,
    upgrading: Arc<AtomicBool>,
    queue_wait: Arc<Histogram>,
    shed_deadline: Arc<Counter>,
    panics: Arc<Counter>,
    errors: Arc<Counter>,
    /// Per-verb service-time histograms, cached so the hot path never takes
    /// the registry lock after a verb's first execution.
    verb_hists: HashMap<String, Arc<Histogram>>,
    /// `cmd.errors` by verb and code (`cmd.errors.<verb>.<code>`), cached
    /// like `verb_hists`: what a cast's sender never hears is read here.
    verb_errors: HashMap<(String, ErrorCode), Arc<Counter>>,
}

impl Control {
    /// The daemon's clock: its net's.
    fn clock(&self) -> &Clock {
        self.ctx.net().clock()
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The dequeue half of a poll.
    fn drain(&mut self, sessions: &mut Sessions, more: &mut bool) {
        for _ in 0..CONTROL_PER_POLL {
            if self.settle_next(sessions, false).is_none() {
                return;
            }
        }
        *more = true;
    }

    /// Pop the next admitted message and settle it — the one place the queue
    /// is dequeued: CoDel accounting, queue-lapsed deadline shedding, the
    /// upgrade plane, dispatch, and the reply, concluded on the session
    /// that asked as soon as dispatch returns.  The stop is read here, before
    /// every message and not only when the queue runs dry: however full the
    /// lanes, a stopping daemon runs nothing more and answers what it has
    /// queued as abandoned.  `quiescing` says the caller is the quiesce
    /// drain.  `None`: the queue is empty; `Some(true)`: a verb was
    /// dispatched.
    fn settle_next(&mut self, sessions: &mut Sessions, quiescing: bool) -> Option<bool> {
        let (cmd, from, session, enqueued, deadline) = match self.queue.pop()? {
            ControlMsg::Execute {
                cmd,
                from,
                session,
                enqueued,
                deadline,
            } => (cmd, from, session, enqueued, deadline),
            ControlMsg::Data(datagram) => {
                if !self.stopping() {
                    self.with_behavior(|b, ctx| b.on_data(ctx, datagram));
                }
                return Some(false);
            }
        };
        if self.stopping() {
            conclude(sessions, session, cmd.name(), &abandoned(), false);
            return Some(false);
        }
        // Feed the CoDel estimator (the queue-depth gauge is kept current
        // by the admission queue itself, on enqueue *and* dequeue).
        let waited = self.clock().now().saturating_duration_since(enqueued);
        self.queue.note_wait(waited);
        self.queue_wait.record(waited);
        let lapsed = self.queue.enforce_deadlines()
            && matches!(deadline, Some(d) if self.clock().now() >= d);
        let mut dispatched = false;
        let reply = if lapsed {
            // Shed work whose client-side budget lapsed in queue: the
            // caller is gone, executing would burn capacity for nobody.
            self.shed_deadline.incr();
            Reply::err(
                ErrorCode::Deadline,
                "deadline expired in queue; shed before execution",
            )
        } else if cmd.name() != "aceUpgrade" {
            dispatched = true;
            self.dispatch(&cmd, &from, deadline)
        } else if quiescing {
            // A second driver racing the first observes the quiesce already
            // in progress instead of recursing.
            let incarnation = self.ctx.config.incarnation;
            Reply::ok_with(|c| c.arg("upgrading", true).arg("incarnation", incarnation))
        } else {
            self.upgrade(sessions, &cmd, &from)
        };
        conclude(sessions, session, cmd.name(), &reply, ran(&reply));
        Some(dispatched)
    }

    /// Run one behavior callback, then [`Self::settle`].
    fn with_behavior(&mut self, call: impl FnOnce(&mut dyn ServiceBehavior, &mut ServiceCtx)) {
        call(&mut *self.behavior, &mut self.ctx);
        self.settle();
    }

    /// After the behavior ran: notify the listeners of every event it
    /// emitted, and pass on a stop it requested.
    fn settle(&mut self) {
        for event in std::mem::take(&mut self.ctx.pending_events) {
            self.fire_notifications(&event);
        }
        if self.ctx.stop_requested {
            self.stop.store(true, Ordering::SeqCst);
        }
    }

    /// Bring this daemon's registry up to date before it is read: the
    /// runtime's gauges (tasks live, worker count, long polls), then
    /// whatever internal state the service exports (e.g. WAL batch
    /// counters from the store).
    fn refresh_stats(&mut self) {
        self.ctx.runtime.publish_into(self.ctx.metrics());
        self.behavior.on_stats(&mut self.ctx);
    }

    /// Execute one queued command end-to-end: authorize + run
    /// (panic-proofed), record service time, fire notifications, drain
    /// events.  The caller sends the returned reply.
    fn dispatch(&mut self, cmd: &CmdLine, from: &ClientInfo, deadline: Option<Instant>) -> Reply {
        let started = self.clock().now();
        // Handlers (and any downstream call they make) see the remaining
        // client budget through `ctx.time_remaining()`.
        self.ctx.set_deadline(deadline);
        // A panicking handler must not take down the daemon task — the
        // caller gets an Internal error and the daemon keeps serving
        // everyone else.
        let response = std::panic::catch_unwind(AssertUnwindSafe(|| self.execute(cmd, from)))
            .unwrap_or_else(|_| {
                self.panics.incr();
                self.ctx
                    .log("error", format!("handler for `{}` panicked", cmd.name()));
                Reply::err(
                    ErrorCode::Internal,
                    format!("handler for `{}` panicked", cmd.name()),
                )
            });
        self.ctx.set_deadline(None);
        let hist = self
            .verb_hists
            .entry(cmd.name().to_string())
            .or_insert_with(|| self.ctx.metrics().histogram(&format!("cmd.{}", cmd.name())));
        let now = self.ctx.net().clock().now();
        hist.record(now.saturating_duration_since(started));
        // §2.5: notifications fire after the command has executed.
        match &response {
            Reply::Ok(_) => self.fire_notifications(cmd),
            Reply::Err { code, .. } => {
                self.errors.incr();
                self.verb_errors
                    .entry((cmd.name().to_string(), *code))
                    .or_insert_with(|| {
                        let name = format!("cmd.errors.{}.{}", cmd.name(), code.as_word());
                        self.ctx.metrics().counter(&name)
                    })
                    .incr();
            }
        }
        self.settle();
        response
    }

    /// Does `from` hold credentials for `cmd`?  A refusal is logged.
    fn authorized(&self, cmd: &CmdLine, from: &ClientInfo) -> bool {
        let env = action_env_for(self.ctx.name(), self.ctx.class(), self.ctx.room(), cmd);
        let permitted = self.ctx.config.auth.check(&from.principal, &env);
        if !permitted {
            self.ctx.log(
                "security",
                format!(
                    "denied `{}` from {} at {}",
                    cmd.name(),
                    from.principal,
                    from.addr
                ),
            );
        }
        permitted
    }

    /// The `aceUpgrade` control plane, run between dispatches so the drain
    /// and snapshot observe a fully quiesced behavior.
    fn upgrade(&mut self, sessions: &mut Sessions, cmd: &CmdLine, from: &ClientInfo) -> Reply {
        // The upgrade plane is never authorization-exempt: quiescing a
        // daemon is as invasive as `shutdown`.
        if !self.authorized(cmd, from) {
            return Reply::err(ErrorCode::Denied, "no credentials permit `aceUpgrade`");
        }
        let incarnation = self.ctx.config.incarnation;
        match cmd.get_text("phase") {
            Some("abort") => {
                self.upgrading.store(false, Ordering::SeqCst);
                self.ctx
                    .log("info", "upgrade aborted; re-admitting traffic");
                Reply::ok_with(|c| c.arg("incarnation", incarnation))
            }
            Some("quiesce") => {
                let started = self.clock().now();
                self.upgrading.store(true, Ordering::SeqCst);
                // Drain in-flight verbs: everything already admitted
                // executes and replies normally before the state is frozen.
                // Intake and this drain are stages of the same poll, so
                // nothing is enqueued while it runs; a frame still unread
                // in a link buffer meets the closed gate on the next poll.
                let mut drained: u64 = 0;
                while let Some(dispatched) = self.settle_next(sessions, true) {
                    drained += u64::from(dispatched);
                }
                let metrics = Arc::clone(self.ctx.metrics());
                metrics.counter("upgrade.drainedVerbs").add(drained);
                let quiesce = self.clock().now().saturating_duration_since(started);
                metrics.histogram("upgrade.quiesceTime").record(quiesce);
                let snapshot = self.behavior.snapshot_state();
                let notifications = self.registry.export();
                self.ctx.log(
                    "info",
                    format!("quiesced for upgrade ({drained} verbs drained)"),
                );
                Reply::ok_with(|c| {
                    let mut c = c.arg("incarnation", incarnation).arg("drained", drained);
                    if let Some(bytes) = snapshot {
                        c = c.arg("snapshot", bytes);
                    }
                    if !notifications.is_empty() {
                        c = c.arg(
                            "notifications",
                            protocol::registrations_to_value(&notifications),
                        );
                    }
                    c
                })
            }
            _ => Reply::err(ErrorCode::Semantics, "phase must be quiesce | abort"),
        }
    }

    /// The KeyNote check, then the built-in verbs or the behavior's own.
    fn execute(&mut self, cmd: &CmdLine, from: &ClientInfo) -> Reply {
        // Liveness probes are exempt from authorization — the framework itself
        // pings services whose principals it cannot know in advance.
        let exempt = matches!(cmd.name(), "ping" | "describe");
        if !exempt && !self.authorized(cmd, from) {
            return Reply::err(
                ErrorCode::Denied,
                format!("no credentials permit `{}`", cmd.name()),
            );
        }

        match cmd.name() {
            "ping" => Reply::ok_with(|c| {
                c.arg("service", self.ctx.name())
                    .arg("incarnation", self.ctx.config.incarnation)
            }),
            "describe" => {
                let mut names: Vec<Scalar> = self
                    .semantics
                    .specs()
                    .map(|s| Scalar::Word(s.name.clone()))
                    .collect();
                names.sort_by(|a, b| match (a, b) {
                    (Scalar::Word(x), Scalar::Word(y)) => x.cmp(y),
                    _ => std::cmp::Ordering::Equal,
                });
                Reply::ok_with(|c| {
                    c.arg("cmds", Value::Vector(names))
                        .arg("class", self.ctx.class())
                })
            }
            "shutdown" => {
                self.ctx.request_stop();
                Reply::ok()
            }
            "aceStats" => {
                // Refresh what is exported on demand, then freeze the
                // registry.
                self.refresh_stats();
                let mut snap = self.ctx.metrics().snapshot();
                if let Some(prefix) = cmd.get_text("prefix") {
                    snap.retain_prefix(prefix);
                }
                snap.to_reply()
            }
            "addNotification" => {
                // Validation against `base_semantics` should guarantee these,
                // but a graceful reply beats trusting that forever.
                let (Some(watched), Some(service), Some(host), Some(port), Some(notify_cmd)) = (
                    cmd.get_text("cmd"),
                    cmd.get_text("service"),
                    cmd.get_text("host"),
                    cmd.get_int("port"),
                    cmd.get_text("notifyCmd"),
                ) else {
                    return Reply::err(ErrorCode::Semantics, "missing or mistyped argument");
                };
                let registration = Registration {
                    service: service.to_string(),
                    addr: Addr::new(host, port as u16),
                    notify_cmd: notify_cmd.to_string(),
                };
                self.registry.add(watched, registration);
                Reply::ok()
            }
            "removeNotification" => {
                let (Some(watched), Some(service)) = (cmd.get_text("cmd"), cmd.get_text("service"))
                else {
                    return Reply::err(ErrorCode::Semantics, "missing or mistyped argument");
                };
                if self.registry.remove(watched, service) {
                    Reply::ok()
                } else {
                    Reply::err(ErrorCode::NotFound, "no such notification")
                }
            }
            _ => self.behavior.handle(&mut self.ctx, cmd, from),
        }
    }

    fn fire_notifications(&self, executed: &CmdLine) {
        for registration in self.registry.listeners(executed.name()) {
            let n = NotificationRegistry::notification_cmd(registration, self.ctx.name(), executed);
            // The listener counts a failure: `cmd.errors.<notifyCmd>.<code>`.
            self.ctx.send_async(registration.addr.clone(), n);
        }
    }
}

/// What `config` registers in the directory (Fig. 9 step 3).
fn service_entry(config: &DaemonConfig) -> ServiceEntry {
    ServiceEntry {
        name: config.name.clone(),
        addr: Addr::new(config.host.clone(), config.port),
        class: config.class.clone(),
        room: config.room.clone(),
    }
}

/// A lifecycle record ("started", "stopped") signed with `config`'s origin.
fn log_cmd(config: &DaemonConfig, msg: String) -> CmdLine {
    let origin = (config.name.as_str(), config.host.as_str());
    protocol::log_cmd("info", msg, Some(origin))
}

/// How long after spawn a daemon first renews its lease: somewhere in
/// `[period/2, period)`, fixed by `seed` (the daemon's name hash).  Daemons
/// spawned in the same millisecond would otherwise all renew in the same
/// millisecond, every period, for as long as they live; later renewals stay
/// a full period apart, so the offset persists.  Earlier than a full period
/// only — a lease is never left unrenewed longer than before.
fn first_renewal_delay(seed: u64, period: Duration) -> Duration {
    let half = period / 2;
    let window = u64::try_from(half.as_nanos()).unwrap_or(u64::MAX).max(1);
    half + Duration::from_nanos(seed % window)
}

/// The directory lease client (§2.4): when to renew, how to back off, and
/// the graceful-stop deregistration sequence — the main role's afterlife,
/// ticked by [`DaemonTask::poll`].  The renewal, its repair of a replica
/// that lost the lease and the goodbye are [`directory`]'s, each replica
/// asked over a checkout from the daemon's pool.
struct LeaseState {
    pool: Arc<LinkPool>,
    config: Arc<DaemonConfig>,
    renewals: Arc<Counter>,
    failures: Arc<Counter>,
    reregisters: Arc<Counter>,
    budget_denied: Arc<Counter>,
    retry_budget: Arc<RetryBudget>,
    /// Link failures back off exponentially from a quarter-period up to
    /// one full renewal period, jittered per daemon so a room of restarted
    /// services doesn't reconnect to the ASD in lockstep.
    reconnect: RetryPolicy,
    link_failures: u32,
    /// The renewal period: [`DaemonConfig::lease_renew`], or a third of the
    /// lease the ASD granted at registration.  `None`: no lease is held.
    renew_every: Option<Duration>,
    next_renew: Instant,
}

impl LeaseState {
    fn new(
        pool: Arc<LinkPool>,
        config: Arc<DaemonConfig>,
        renew_every: Option<Duration>,
        metrics: &MetricsRegistry,
        retry_budget: Arc<RetryBudget>,
    ) -> LeaseState {
        let seed = fnv64(config.name.as_bytes());
        let period = renew_every.unwrap_or_default();
        let reconnect = RetryPolicy::new(period / 4)
            .with_cap(period)
            .with_seed(seed);
        LeaseState {
            renewals: metrics.counter("lease.renewals"),
            failures: metrics.counter("lease.failures"),
            reregisters: metrics.counter("lease.reregisters"),
            budget_denied: metrics.counter("retry.budgetDenied"),
            next_renew: pool.clock().now() + first_renewal_delay(seed, period),
            renew_every,
            reconnect,
            link_failures: 0,
            pool,
            config,
            retry_budget,
        }
    }

    /// When `tick` next has renewal work, if this daemon holds a lease.
    fn next_deadline(&self) -> Option<Instant> {
        let held = self.config.directory.as_ref().and(self.renew_every);
        held.map(|_| self.next_renew)
    }

    /// Renew the lease if due at `now`.  Bounded work: one round over the
    /// owning group, plus one re-register per replica that lost the lease
    /// (`lease.reregisters`; `lease.renewals` counts the rounds that needed
    /// none).  A round that fails — a dial, a renewal or a repair — counts
    /// `lease.failures` and takes the budgeted early retry.
    fn tick(&mut self, now: Instant) {
        let config = Arc::clone(&self.config);
        let (Some(map), Some(period)) = (&config.directory, self.renew_every) else {
            return;
        };
        if now < self.next_renew {
            return;
        }
        self.next_renew = now + period;
        // Each renewal period is fresh (non-retry) work: it earns back a
        // slice of the shared retry budget.
        self.retry_budget.note_call();
        let pool = &self.pool;
        let renewed = directory::renew(
            &mut |addr, cmd| pool.checkout(addr)?.call(cmd),
            map,
            &service_entry(&config),
            config.incarnation,
        );
        match renewed {
            Ok(repaired) => {
                if repaired == 0 {
                    self.renewals.incr();
                } else {
                    self.reregisters.add(repaired as u64);
                }
                self.link_failures = 0;
            }
            Err(_) => {
                self.failures.incr();
                self.schedule_retry(period);
            }
        }
    }

    /// An early (before the next full period) retry must be paid for out
    /// of the shared budget — when the bucket is dry we fall back to the
    /// regular renewal cadence instead of adding retry pressure to an ASD
    /// that is already struggling.
    fn schedule_retry(&mut self, period: Duration) {
        let now = self.pool.clock().now();
        self.next_renew = if self.retry_budget.try_withdraw() {
            now + self.reconnect.delay_for(self.link_failures)
        } else {
            self.budget_denied.incr();
            now + period
        };
        self.link_failures = self.link_failures.saturating_add(1);
    }

    /// Graceful stop: remove our registrations (crashed daemons can't —
    /// that's what leases are for).  A retiring daemon skips
    /// deregistration: its live-upgrade replacement owns the registrations
    /// now, and a late `removeService` here would clobber them.
    fn goodbye(&mut self, ctx: &ServiceCtx, crashed: bool, deregister: bool) {
        let Some(map) = &self.config.directory else {
            return;
        };
        if crashed {
            return;
        }
        // Best effort, one attempt each: the lease cleans up what is missed.
        let name = self.config.name.as_str();
        if deregister {
            let pool = &self.pool;
            let _ =
                directory::deregister(&mut |addr, cmd| pool.checkout(addr)?.call(cmd), map, name);
            if let Some(roomdb) = &self.config.roomdb {
                if let Ok(mut roomdb) = self.pool.checkout(roomdb) {
                    let _ = roomdb.call_ok(&CmdLine::new("roomRemove").arg("service", name));
                }
            }
        }
        // Nobody reads the Net Logger's answer to this: a cast, delivered by
        // the notifier after the daemon task is gone, not a call waited for
        // inside an upgrade's pause.
        ctx.log("info", format!("service {name} stopped"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_renewal_is_spread_per_daemon_inside_the_second_half_period() {
        let period = Duration::from_secs(5);
        let delay = |name: &str| first_renewal_delay(fnv64(name.as_bytes()), period);
        let (a, b) = (delay("camera_hawk"), delay("projector_hawk"));
        assert_ne!(a, b, "two daemons spawned together renew apart");
        assert_eq!(
            a,
            delay("camera_hawk"),
            "the same daemon always lands in the same place"
        );
        for d in [a, b, delay(""), first_renewal_delay(u64::MAX, period)] {
            assert!(d >= period / 2 && d < period, "{d:?} outside the window");
        }
        assert_eq!(first_renewal_delay(7, Duration::ZERO), Duration::ZERO);
    }
}
