//! Supervised recovery: the watchdog service daemon (§5.2, §9).
//!
//! §9 calls for watcher services that "can be utilized to alert … of closed
//! applications and can also work in conjunction with the ASD".  The
//! [`Supervisor`] is that watcher, grown into a full recovery subsystem.
//! It is itself an ordinary ACE service daemon that:
//!
//! * subscribes to the ASD's `serviceExpired` event (lease lapses reach it
//!   as `onServiceExpired` notifications);
//! * periodically *health-probes* every supervised service — an ASD lookup
//!   followed by a `ping` — catching instances that are wedged or whose
//!   host died even before their lease runs out;
//! * restarts failed services from caller-provided respawn factories,
//!   under a [`RestartPolicy`]: backoff between attempts, a bounded number
//!   of restarts per sliding window, and escalation to the Net Logger when
//!   the budget is exhausted.
//!
//! Respawn factories decide what state a restarted instance recovers —
//! a store replica's factory re-attaches the surviving `DiskImage`, so
//! anti-entropy pulls the replica back to convergence, and a robust
//! application's spawns a behaviour that loads its checkpoint from the store
//! (`ace_apps::RobustCounter`) (§5.3 "robust" class); a stateless service's
//! factory just rebuilds it (§5.2 "restart" class).  A §5.1 "temporary"
//! application is one with no spec: its lapse is heard and nothing follows.

use crate::behavior::{ClientInfo, ServiceBehavior, ServiceCtx};
use crate::client::{ClientError, ServiceClient};
use crate::daemon::{Daemon, DaemonConfig, DaemonHandle, SpawnError};
use crate::protocol::{self, ServiceEntry};
use crate::retry::RetryPolicy;
use ace_lang::{ArgType, CmdLine, CmdSpec, ErrorCode, Reply, Scalar, Semantics, Value};
use ace_net::{HostId, SimNet};
use ace_security::keys::KeyPair;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// A successful respawn: the new instance plus an optional recovery note
/// (e.g. what the store replica's WAL replay found), surfaced in the
/// supervisor's restart log line.
pub struct Respawn {
    pub handle: DaemonHandle,
    pub note: Option<String>,
}

impl Respawn {
    pub fn with_note(handle: DaemonHandle, note: impl Into<String>) -> Respawn {
        Respawn {
            handle,
            note: Some(note.into()),
        }
    }
}

impl From<DaemonHandle> for Respawn {
    fn from(handle: DaemonHandle) -> Respawn {
        Respawn { handle, note: None }
    }
}

/// How a respawned instance is created.  The factory owns whatever state
/// the new instance must recover (disk images, checkpoints, ports).
pub type RespawnFn = Box<dyn FnMut(&SimNet) -> Result<Respawn, SpawnError> + Send>;

/// One service under supervision.
pub struct SupervisedSpec {
    /// The ASD registration name to watch.
    pub name: String,
    /// Factory invoked to bring a failed instance back.
    pub respawn: RespawnFn,
}

impl SupervisedSpec {
    pub fn new(name: impl Into<String>, respawn: RespawnFn) -> SupervisedSpec {
        SupervisedSpec {
            name: name.into(),
            respawn,
        }
    }
}

/// Limits on how hard the supervisor tries to keep a service alive.
#[derive(Debug, Clone)]
pub struct RestartPolicy {
    /// Successful restarts allowed within [`RestartPolicy::window`] before
    /// the service is declared permanently failed.
    pub max_restarts: u32,
    /// Sliding window over which restarts are counted.
    pub window: Duration,
    /// Backoff between consecutive respawn *attempts* for one incident.
    pub backoff: RetryPolicy,
    /// Failed respawn attempts in a row before escalation.
    pub max_spawn_attempts: u32,
    /// Consecutive failed health probes before a restart is triggered.
    pub probe_failures: u32,
}

impl Default for RestartPolicy {
    fn default() -> RestartPolicy {
        RestartPolicy {
            max_restarts: 5,
            window: Duration::from_secs(10),
            backoff: RetryPolicy::new(Duration::from_millis(50)).with_cap(Duration::from_secs(1)),
            max_spawn_attempts: 8,
            probe_failures: 2,
        }
    }
}

impl RestartPolicy {
    pub fn with_max_restarts(mut self, max: u32) -> RestartPolicy {
        self.max_restarts = max;
        self
    }

    pub fn with_window(mut self, window: Duration) -> RestartPolicy {
        self.window = window;
        self
    }

    pub fn with_backoff(mut self, backoff: RetryPolicy) -> RestartPolicy {
        self.backoff = backoff;
        self
    }

    pub fn with_max_spawn_attempts(mut self, attempts: u32) -> RestartPolicy {
        self.max_spawn_attempts = attempts.max(1);
        self
    }

    pub fn with_probe_failures(mut self, failures: u32) -> RestartPolicy {
        self.probe_failures = failures.max(1);
        self
    }
}

/// Where one supervised service currently stands.
enum ServiceState {
    /// Believed alive; `failures` consecutive probes have gone unanswered.
    Watching { failures: u32 },
    /// Down; a respawn attempt is scheduled.
    Pending { attempt: u32, next_try: Instant },
    /// Restart budget exhausted; escalated, no further attempts.
    Failed,
}

struct Supervised {
    spec: SupervisedSpec,
    state: ServiceState,
    /// The most recent instance this supervisor spawned (kept alive; shut
    /// down with the supervisor).
    handle: Option<DaemonHandle>,
    /// Instants of successful restarts, pruned to the policy window.
    restarts: VecDeque<Instant>,
    total_restarts: u64,
}

/// A point-in-time view of the supervisor's bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorReport {
    pub supervised: usize,
    pub restarts: u64,
    pub escalations: u64,
    pub pending: Vec<String>,
    pub failed: Vec<String>,
}

/// The watchdog behavior.  Run it under a [`crate::Daemon`] configured with
/// the directory and Net Logger, then subscribe it to every replica's
/// `serviceExpired` with [`crate::directory::subscribe_expiry`].
pub struct Supervisor {
    services: BTreeMap<String, Supervised>,
    policy: RestartPolicy,
    probe_interval: Duration,
    last_probe: Option<Instant>,
    escalations: u64,
}

impl Supervisor {
    pub fn new(specs: Vec<SupervisedSpec>, policy: RestartPolicy) -> Supervisor {
        Supervisor {
            services: specs
                .into_iter()
                .map(|spec| {
                    (
                        spec.name.clone(),
                        Supervised {
                            spec,
                            state: ServiceState::Watching { failures: 0 },
                            handle: None,
                            restarts: VecDeque::new(),
                            total_restarts: 0,
                        },
                    )
                })
                .collect(),
            policy,
            probe_interval: Duration::from_millis(200),
            last_probe: None,
            escalations: 0,
        }
    }

    /// Override the health-probe cadence (per `on_tick`, so the effective
    /// cadence is also bounded below by `DaemonConfig::tick`).
    pub fn with_probe_interval(mut self, interval: Duration) -> Supervisor {
        self.probe_interval = interval;
        self
    }

    fn report(&self) -> SupervisorReport {
        let mut pending = Vec::new();
        let mut failed = Vec::new();
        for (name, s) in &self.services {
            match s.state {
                ServiceState::Pending { .. } => pending.push(name.clone()),
                ServiceState::Failed => failed.push(name.clone()),
                ServiceState::Watching { .. } => {}
            }
        }
        SupervisorReport {
            supervised: self.services.len(),
            restarts: self.services.values().map(|s| s.total_restarts).sum(),
            escalations: self.escalations,
            pending,
            failed,
        }
    }

    /// Mark a service down and schedule its first respawn attempt at
    /// `now`.
    fn mark_down(&mut self, name: &str, now: Instant) {
        if let Some(s) = self.services.get_mut(name) {
            if matches!(s.state, ServiceState::Watching { .. }) {
                s.state = ServiceState::Pending {
                    attempt: 0,
                    next_try: now,
                };
            }
        }
    }

    /// Drive every due respawn attempt.
    fn run_pending(&mut self, ctx: &mut ServiceCtx) {
        let now = ctx.net().clock().now();
        let due: Vec<String> = self
            .services
            .iter()
            .filter(|(_, s)| matches!(s.state, ServiceState::Pending { next_try, .. } if next_try <= now))
            .map(|(name, _)| name.clone())
            .collect();
        for name in due {
            self.attempt_respawn(ctx, &name);
        }
    }

    fn attempt_respawn(&mut self, ctx: &mut ServiceCtx, name: &str) {
        let policy = self.policy.clone();
        let Some(s) = self.services.get_mut(name) else {
            return;
        };
        let ServiceState::Pending { attempt, .. } = s.state else {
            return;
        };

        // Budget check: prune restarts that have aged out of the window.
        let now = ctx.net().clock().now();
        while let Some(&oldest) = s.restarts.front() {
            if now.duration_since(oldest) > policy.window {
                s.restarts.pop_front();
            } else {
                break;
            }
        }
        if s.restarts.len() as u32 >= policy.max_restarts {
            s.state = ServiceState::Failed;
            self.escalations += 1;
            ctx.log(
                "error",
                format!(
                    "supervised service {name} exceeded {} restarts in {:?}; giving up",
                    policy.max_restarts, policy.window
                ),
            );
            ctx.fire_event(CmdLine::new("servicePermanentlyFailed").arg("name", name));
            return;
        }

        match (s.spec.respawn)(ctx.net()) {
            Ok(Respawn { handle, note }) => {
                // The old instance (if we held one) is dead; reap it.
                if let Some(old) = s.handle.take() {
                    old.crash();
                }
                s.handle = Some(handle);
                s.restarts.push_back(now);
                s.total_restarts += 1;
                s.state = ServiceState::Watching { failures: 0 };
                match note {
                    Some(note) => ctx.log(
                        "warn",
                        format!("restarted supervised service {name} ({note})"),
                    ),
                    None => ctx.log("warn", format!("restarted supervised service {name}")),
                }
                ctx.fire_event(CmdLine::new("serviceRestarted").arg("name", name));
            }
            Err(e) => {
                let next_attempt = attempt + 1;
                if next_attempt >= policy.max_spawn_attempts {
                    s.state = ServiceState::Failed;
                    self.escalations += 1;
                    ctx.log(
                        "error",
                        format!(
                            "respawn of {name} failed {next_attempt} times (last: {e}); giving up"
                        ),
                    );
                    ctx.fire_event(CmdLine::new("servicePermanentlyFailed").arg("name", name));
                } else {
                    s.state = ServiceState::Pending {
                        attempt: next_attempt,
                        next_try: now + policy.backoff.delay_for(attempt),
                    };
                    ctx.log(
                        "warn",
                        format!("respawn of {name} failed: {e}; backing off"),
                    );
                }
            }
        }
    }

    /// Probe one service: is it registered, and does it answer `ping`?
    fn probe(&mut self, ctx: &mut ServiceCtx, name: &str) {
        let threshold = self.policy.probe_failures;
        let Some(s) = self.services.get_mut(name) else {
            return;
        };
        let ServiceState::Watching { failures } = s.state else {
            return;
        };
        let alive = match registered_now(ctx, name) {
            // ASD unreachable: no verdict either way — don't count it.
            Err(_) => return,
            Ok(None) => false,
            Ok(Some(entry)) => ctx.call(&entry.addr, &CmdLine::new("ping")).is_ok(),
        };
        if alive {
            s.state = ServiceState::Watching { failures: 0 };
        } else {
            let failures = failures + 1;
            if failures >= threshold {
                ctx.log("warn", format!("{name} failed {failures} health probes"));
                s.state = ServiceState::Pending {
                    attempt: 0,
                    next_try: ctx.net().clock().now(),
                };
            } else {
                s.state = ServiceState::Watching { failures };
            }
        }
    }

    fn run_probes(&mut self, ctx: &mut ServiceCtx) {
        let now = ctx.net().clock().now();
        if self
            .last_probe
            .is_some_and(|last| now.duration_since(last) < self.probe_interval)
        {
            return;
        }
        self.last_probe = Some(now);
        let names: Vec<String> = self.services.keys().cloned().collect();
        for name in names {
            self.probe(ctx, &name);
        }
    }
}

/// What the directory says about `name` *now*.  The Supervisor asks "is it
/// still registered", not "where do I send this", so it reads through the
/// answers [`ServiceCtx::lookup`] holds: a held "registered" would keep a
/// lapsed daemon down until `probe_failures` pings had failed, when the
/// ASD had already said so.
fn registered_now(ctx: &mut ServiceCtx, name: &str) -> Result<Option<ServiceEntry>, ClientError> {
    Ok(ctx.lookup_now(Some(name), None, None)?.0.into_iter().next())
}

impl ServiceBehavior for Supervisor {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(
                CmdSpec::new("onServiceExpired", "notification from the ASD")
                    .optional("service", ArgType::Str, "origin (the ASD)")
                    .optional("cmd", ArgType::Str, "origin event")
                    .optional("name", ArgType::Word, "the expired service"),
            )
            .with(CmdSpec::new(
                "superviseStats",
                "supervision counters and state",
            ))
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "onServiceExpired" => {
                let Some(name) = cmd.get_text("name").map(str::to_string) else {
                    return Reply::err(ErrorCode::Semantics, "notification without name");
                };
                if !self.services.contains_key(&name) {
                    return Reply::ok_with(|c| c.arg("restarted", false));
                }
                // A lapse notification can trail our own probe-triggered
                // restart; only act if the service is genuinely absent.
                let still_registered = matches!(registered_now(ctx, &name), Ok(Some(_)));
                if still_registered {
                    return Reply::ok_with(|c| c.arg("restarted", false));
                }
                ctx.log("warn", format!("{name} lease expired; restarting"));
                self.mark_down(&name, ctx.net().clock().now());
                self.run_pending(ctx);
                let restarted = matches!(
                    self.services.get(&name).map(|s| &s.state),
                    Some(ServiceState::Watching { .. })
                );
                Reply::ok_with(|c| c.arg("restarted", restarted))
            }
            "superviseStats" => {
                let report = self.report();
                Reply::ok_with(|c| {
                    c.arg("supervised", report.supervised as i64)
                        .arg("restarts", report.restarts as i64)
                        .arg("escalations", report.escalations as i64)
                        .arg(
                            "pending",
                            Value::Vector(
                                report
                                    .pending
                                    .iter()
                                    .map(|n| Scalar::Word(n.clone()))
                                    .collect(),
                            ),
                        )
                        .arg(
                            "failed",
                            Value::Vector(
                                report
                                    .failed
                                    .iter()
                                    .map(|n| Scalar::Word(n.clone()))
                                    .collect(),
                            ),
                        )
                })
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }

    fn on_tick(&mut self, ctx: &mut ServiceCtx) {
        self.run_pending(ctx);
        self.run_probes(ctx);
        self.run_pending(ctx);
    }

    /// `superviseStats`'s numbers as `supervise.*` gauges, the two name
    /// lists as their lengths.
    fn on_stats(&mut self, ctx: &mut ServiceCtx) {
        let report = self.report();
        let m = ctx.metrics();
        m.gauge("supervise.supervised")
            .set(report.supervised as i64);
        m.gauge("supervise.restarts").set(report.restarts as i64);
        m.gauge("supervise.escalations")
            .set(report.escalations as i64);
        m.gauge("supervise.pending")
            .set(report.pending.len() as i64);
        m.gauge("supervise.failed").set(report.failed.len() as i64);
    }

    fn on_stop(&mut self, _ctx: &mut ServiceCtx) {
        for s in self.services.values_mut() {
            if let Some(handle) = s.handle.take() {
                handle.shutdown();
            }
        }
    }
}

/// What one live upgrade cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpgradeStats {
    /// Verbs that were already queued (or in flight past the gate) when the
    /// quiesce began, all executed to completion before the snapshot.
    pub drained: u64,
    /// Quiesce call round-trip: gate close → drain → snapshot → reply.
    pub quiesce: Duration,
    /// Time the replacement spent rebuilding state from the snapshot.
    pub restore: Duration,
    /// Total client-visible pause: quiesce begin → replacement registered
    /// and admitting traffic.
    pub pause: Duration,
}

/// Why a live upgrade did not complete.  Every variant except [`Spawn`]
/// leaves the old incarnation serving (the swap is aborted before it
/// retires); `Spawn` means the old instance already retired, and a
/// supervised service is then found down by its probe and its lease lapse
/// like any dead instance.
///
/// [`Spawn`]: UpgradeError::Spawn
#[derive(Debug)]
pub enum UpgradeError {
    /// The quiesce call failed (daemon unreachable or refused).
    Quiesce(crate::client::ClientError),
    /// The quiesce reply was malformed, or the target is unknown.
    Protocol(String),
    /// The replacement behavior refused the snapshot (torn, corrupted, or
    /// of the wrong kind); aborted, old incarnation keeps serving.
    Restore(String),
    /// The replacement failed to spawn *after* the old instance retired.
    Spawn(SpawnError),
}

impl std::fmt::Display for UpgradeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpgradeError::Quiesce(e) => write!(f, "quiesce: {e}"),
            UpgradeError::Protocol(msg) => write!(f, "protocol: {msg}"),
            UpgradeError::Restore(msg) => write!(f, "restore refused: {msg}"),
            UpgradeError::Spawn(e) => write!(f, "replacement spawn failed: {e}"),
        }
    }
}
impl std::error::Error for UpgradeError {}

/// Hot-swap a running daemon with zero dropped sessions (ROADMAP item 3).
///
/// The protocol, in order:
///
/// 1. **Quiesce** — `aceUpgrade phase=quiesce` closes the daemon's command
///    gate (new verbs bounce with retryable `E_UPGRADING`), drains every
///    in-flight verb to completion, snapshots behavior state, and exports
///    the notification registry.  A quiesce that fails is followed by an
///    `aceUpgrade phase=abort`, best effort: its reply may be what was lost
///    while the gate did shut.
/// 2. **Restore** — the replacement behavior rebuilds from the snapshot
///    *before* anything is torn down; a refusal (checksum mismatch, wrong
///    kind) aborts the swap and re-opens the old daemon's gate.
/// 3. **Swap** — the old instance retires (graceful stop, *no*
///    deregistration: its ASD/RoomDB entries now belong to the
///    replacement), then the replacement spawns on the same address under
///    `incarnation + 1`, with the old identity and ticket vault so pooled
///    links and resumable sessions reconnect in one round trip, and
///    re-registers with the ASD — fencing out any straggler of the old
///    generation — before admitting traffic.
pub fn live_upgrade(
    net: &SimNet,
    from_host: &HostId,
    driver: &KeyPair,
    old: &DaemonHandle,
    config: DaemonConfig,
    mut replacement: Box<dyn ServiceBehavior>,
) -> Result<(DaemonHandle, UpgradeStats), UpgradeError> {
    let clock = net.clock();
    let swap_started = clock.now();
    let connect = || ServiceClient::connect(net, from_host, old.addr().clone(), driver);
    let abort = |client: &mut ServiceClient| {
        let _ = client.call(&CmdLine::new("aceUpgrade").arg("phase", "abort"));
    };
    let quiesced = connect().and_then(|mut client| {
        let reply = client.call(&CmdLine::new("aceUpgrade").arg("phase", "quiesce"))?;
        Ok((client, reply))
    });
    let (mut client, reply) = match quiesced {
        Ok(quiesced) => quiesced,
        Err(e) => {
            // The quiesce may have shut the gate and lost only its reply (a
            // time-out during a long drain or snapshot, a dropped link):
            // re-open it over a link of its own, which the first one's
            // failure has closed.
            if let Ok(mut fresh) = connect() {
                abort(&mut fresh);
            }
            return Err(UpgradeError::Quiesce(e));
        }
    };
    let quiesce = clock.now().saturating_duration_since(swap_started);

    let drained = reply.get_int("drained").unwrap_or(0).max(0) as u64;
    let snapshot = match reply.get("snapshot") {
        Some(value) => match value.as_blob() {
            Some(bytes) => Some(bytes.into_owned()),
            None => {
                abort(&mut client);
                return Err(UpgradeError::Protocol("snapshot is not a blob".into()));
            }
        },
        None => None,
    };
    let notifications = match reply.get("notifications") {
        Some(value) => match protocol::registrations_from_value(value) {
            Some(rows) => rows,
            None => {
                abort(&mut client);
                return Err(UpgradeError::Protocol("malformed notifications".into()));
            }
        },
        None => Vec::new(),
    };

    // Validate the snapshot against the replacement *before* tearing
    // anything down — a refused restore must leave the old incarnation
    // serving untouched.
    let restore_started = clock.now();
    if let Some(bytes) = &snapshot {
        if let Err(msg) = replacement.restore_state(bytes) {
            abort(&mut client);
            return Err(UpgradeError::Restore(msg));
        }
    }
    let restore = clock.now().saturating_duration_since(restore_started);

    // Point of no return: the old instance retires (releasing its address,
    // keeping its registrations) and the replacement takes over its
    // identity, ticket vault, listeners, and — incremented — incarnation.
    let config = config
        .with_identity(*old.identity())
        .with_ticket_vault(old.ticket_vault())
        .with_incarnation(old.incarnation() + 1)
        .with_notifications(notifications);
    old.retire();
    let handle = Daemon::spawn(net, config, replacement).map_err(UpgradeError::Spawn)?;
    let pause = clock.now().saturating_duration_since(swap_started);
    handle
        .metrics()
        .histogram("upgrade.restoreTime")
        .record(restore);
    handle.metrics().histogram("upgrade.pause").record(pause);
    Ok((
        handle,
        UpgradeStats {
            drained,
            quiesce,
            restore,
            pause,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_sane() {
        let p = RestartPolicy::default();
        assert!(p.max_restarts > 0);
        assert!(p.max_spawn_attempts > 0);
        assert!(p.probe_failures > 0);
        assert!(p.window > Duration::ZERO);
    }

    #[test]
    fn report_starts_clean() {
        let sup = Supervisor::new(Vec::new(), RestartPolicy::default());
        let report = sup.report();
        assert_eq!(report.supervised, 0);
        assert_eq!(report.restarts, 0);
        assert_eq!(report.escalations, 0);
        assert!(report.pending.is_empty());
        assert!(report.failed.is_empty());
    }
}
