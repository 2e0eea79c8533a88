//! ACE daemon notifications (§2.5, Fig. 8).
//!
//! "All ACE daemons have notification commands semantically and syntactically
//! defined for them … services keep a running list of all other ACE commands
//! that are being 'listened' for and all the ACE services that are to be
//! notified when such commands are executed."
//!
//! [`NotificationRegistry`] is that running list; [`Notifier`] is the
//! delivery worker that invokes the registered command interface on the
//! notified services without blocking the daemon's control role.  It sends
//! through the daemon's [`LinkPool`] like everything else the daemon sends;
//! what is its own is the 1 s call timeout, the bounded queue and the
//! dead-listener negative cache.

use crate::client::ClientError;
use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use crate::pool::LinkPool;
use crate::runtime::{RuntimeTask, TaskContext, TaskPoll};
use ace_lang::{CmdLine, DEADLINE_ARG};
use ace_net::{Addr, WakeCell};
use crossbeam_channel::{Receiver, Sender, TryRecvError, TrySendError};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-call reply timeout for notification delivery.  Deliberately far
/// below a client's 5 s default call timeout: a slow listener delays the
/// rest of the queue by at most this much.
const NOTIFY_CALL_TIMEOUT: Duration = Duration::from_secs(1);

/// Outbound queue bound.  A producer that outruns delivery (an event storm,
/// a partition stalling the worker on call timeouts) sheds the newest
/// messages — counted in `notify.shed` — instead of growing the queue, and
/// the daemon's memory, without limit.
const NOTIFY_QUEUE_CAPACITY: usize = 1024;

/// After a failed delivery the address sits in a negative cache this long;
/// messages to it are counted as drops instead of re-paying the connect or
/// call timeout for every queued message behind a dead subscriber.
const DEAD_BACKOFF: Duration = Duration::from_millis(250);

/// One registered listener: notify `service` at `addr` by invoking
/// `notify_cmd` when the watched command/event executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registration {
    pub service: String,
    pub addr: Addr,
    pub notify_cmd: String,
}

/// The per-daemon table of watched commands → listeners.
#[derive(Debug, Default)]
pub struct NotificationRegistry {
    by_cmd: HashMap<String, Vec<Registration>>,
}

impl NotificationRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a listener (idempotent per `(cmd, service)`; the newest
    /// address/notify command wins).
    pub fn add(&mut self, cmd: &str, registration: Registration) {
        let slot = self.by_cmd.entry(cmd.to_string()).or_default();
        if let Some(existing) = slot.iter_mut().find(|r| r.service == registration.service) {
            *existing = registration;
        } else {
            slot.push(registration);
        }
    }

    /// Remove a listener; `true` if something was removed.
    pub fn remove(&mut self, cmd: &str, service: &str) -> bool {
        if let Some(slot) = self.by_cmd.get_mut(cmd) {
            let before = slot.len();
            slot.retain(|r| r.service != service);
            let removed = slot.len() != before;
            if slot.is_empty() {
                self.by_cmd.remove(cmd);
            }
            removed
        } else {
            false
        }
    }

    /// Listeners for one command/event.
    pub fn listeners(&self, cmd: &str) -> &[Registration] {
        self.by_cmd.get(cmd).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of registrations.
    pub fn len(&self) -> usize {
        self.by_cmd.values().map(Vec::len).sum()
    }

    /// `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.by_cmd.is_empty()
    }

    /// Every registration as `(watched_cmd, registration)` rows, sorted for
    /// determinism — a live upgrade exports these so the replacement
    /// incarnation keeps notifying the same listeners.
    pub fn export(&self) -> Vec<(String, Registration)> {
        let mut out: Vec<(String, Registration)> = self
            .by_cmd
            .iter()
            .flat_map(|(cmd, regs)| regs.iter().map(move |r| (cmd.clone(), r.clone())))
            .collect();
        out.sort_by(|a, b| (&a.0, &a.1.service).cmp(&(&b.0, &b.1.service)));
        out
    }

    /// Build the notification command sent to a listener: the registered
    /// `notifyCmd` carrying provenance (`service`, `cmd`) plus the executed
    /// command's own arguments (skipping any that would collide).
    pub fn notification_cmd(
        registration: &Registration,
        origin_service: &str,
        executed: &CmdLine,
    ) -> CmdLine {
        let mut out = CmdLine::new(registration.notify_cmd.clone())
            .arg("service", origin_service)
            .arg("cmd", executed.name());
        for (name, value) in executed.args() {
            // The executed command's `deadline=` was the *caller's* budget;
            // propagating it would expire notifications that are delivered
            // after the original call returned.
            if name != "service" && name != "cmd" && name != DEADLINE_ARG {
                out.push_arg(name.clone(), value.clone());
            }
        }
        out
    }
}

/// One queued outbound message.
#[derive(Debug)]
pub struct Outbound {
    pub addr: Addr,
    pub cmd: CmdLine,
}

/// Asynchronous outbound delivery: a worker (a cooperative task on the
/// daemon's runtime, [`NotifierTask`]) sending over the daemon's pool.
///
/// Used for notifications and fire-and-forget logging so the control plane
/// never blocks on a slow or dead listener.
pub struct Notifier {
    /// `Option` so `Drop` can release the sender *before* waking the
    /// delivery task — otherwise the task would observe a still-connected
    /// channel and miss the disconnect.
    tx: Option<Sender<Outbound>>,
    shed: Arc<Counter>,
    wake: Arc<WakeCell>,
}

impl Notifier {
    /// Build the delivery worker: the returned [`NotifierTask`] must be
    /// spawned on a [`crate::runtime::Runtime`] and sends over `pool`.
    /// Delivery outcomes are recorded in `metrics` (`notify.delivered`,
    /// `notify.drops`, `notify.shed`, `notify.latency`,
    /// `notify.queueDepth`).
    pub fn new(pool: Arc<LinkPool>, metrics: &MetricsRegistry) -> (Notifier, NotifierTask) {
        let (tx, rx) = crossbeam_channel::bounded::<Outbound>(NOTIFY_QUEUE_CAPACITY);
        let shed = metrics.counter("notify.shed");
        let wake = Arc::new(WakeCell::new());
        let task = NotifierTask {
            rx,
            wake: Arc::clone(&wake),
            state: DeliveryState::new(pool, metrics),
        };
        (
            Notifier {
                tx: Some(tx),
                shed,
                wake,
            },
            task,
        )
    }

    /// Queue one message for delivery.  Returns `false` if the worker has
    /// stopped or the queue is full (the message is shed, never blocking
    /// the caller — typically the daemon's control role).
    pub fn send(&self, addr: Addr, cmd: CmdLine) -> bool {
        let Some(tx) = &self.tx else { return false };
        match tx.try_send(Outbound { addr, cmd }) {
            Ok(()) => {
                self.wake.wake();
                true
            }
            Err(TrySendError::Full(_)) => {
                self.shed.incr();
                false
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    }
}

impl Clone for Notifier {
    fn clone(&self) -> Self {
        Notifier {
            tx: self.tx.clone(),
            shed: Arc::clone(&self.shed),
            wake: Arc::clone(&self.wake),
        }
    }
}

impl Drop for Notifier {
    fn drop(&mut self) {
        // Release our sender first, then wake: when this was the last
        // clone, the delivery task's next poll observes the disconnect and
        // completes.
        self.tx.take();
        self.wake.wake();
    }
}

/// Per-poll delivery cap: after this many messages the task yields
/// (`TaskPoll::Again`) so one storming daemon's notifications cannot
/// monopolize a runtime worker.
const NOTIFY_BATCH: usize = 64;

/// The delivery machinery of [`NotifierTask`]: the daemon's pool, the
/// dead-listener negative cache and delivery metrics.
struct DeliveryState {
    pool: Arc<LinkPool>,
    delivered: Arc<Counter>,
    drops: Arc<Counter>,
    latency: Arc<Histogram>,
    depth: Arc<Gauge>,
    // Negative cache of recently unreachable listeners.  Without it, a dead
    // subscriber makes every queued message behind it re-pay the failed
    // connect (and under partitions, the full call timeout) — head-of-line
    // blocking that stalls fan-out to the healthy subscribers.
    dead: HashMap<Addr, Instant>,
}

impl DeliveryState {
    fn new(pool: Arc<LinkPool>, metrics: &MetricsRegistry) -> Self {
        DeliveryState {
            pool,
            delivered: metrics.counter("notify.delivered"),
            drops: metrics.counter("notify.drops"),
            latency: metrics.histogram("notify.latency"),
            depth: metrics.gauge("notify.queueDepth"),
            dead: HashMap::new(),
        }
    }

    fn handle(&mut self, out: Outbound) {
        if let Some(since) = self.dead.get(&out.addr) {
            if since.elapsed() < DEAD_BACKOFF {
                self.drops.incr();
                return;
            }
            self.dead.remove(&out.addr);
        }
        let started = Instant::now();
        // Delivery is best-effort: a dead listener loses its notification
        // (the paper's registry similarly cannot promise delivery to
        // crashed services).  A listener that answers with an error was
        // reached: delivered, and declined.
        match self.pool.call(&out.addr, &out.cmd, NOTIFY_CALL_TIMEOUT) {
            Ok(_) | Err(ClientError::Service { .. }) => {
                self.delivered.incr();
                self.latency.record(started.elapsed());
            }
            Err(ClientError::Link(_)) => {
                // The drop is counted, never silent: `aceStats` and the
                // periodic stats events expose `notify.drops` on the
                // originating daemon.
                self.drops.incr();
                self.dead.insert(out.addr, Instant::now());
            }
        }
    }
}

/// The delivery worker; see [`Notifier::new`].
pub struct NotifierTask {
    rx: Receiver<Outbound>,
    wake: Arc<WakeCell>,
    state: DeliveryState,
}

impl RuntimeTask for NotifierTask {
    fn poll(&mut self, cx: &mut TaskContext<'_>) -> TaskPoll {
        // Register before draining: a send that lands between the last
        // `try_recv` and the return would otherwise be a lost wakeup.
        self.wake.register(cx.waker());
        let mut handled = 0usize;
        loop {
            match self.rx.try_recv() {
                Ok(out) => {
                    self.state.depth.set(self.rx.len() as i64);
                    self.state.handle(out);
                    handled += 1;
                    if handled >= NOTIFY_BATCH {
                        return TaskPoll::Again;
                    }
                }
                Err(TryRecvError::Empty) => return TaskPoll::Pending,
                Err(TryRecvError::Disconnected) => return TaskPoll::Complete,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(service: &str, port: u16) -> Registration {
        Registration {
            service: service.into(),
            addr: Addr::new("h", port),
            notify_cmd: format!("on_{service}"),
        }
    }

    #[test]
    fn add_and_match() {
        let mut r = NotificationRegistry::new();
        r.add("ptzMove", reg("recorder", 1));
        r.add("ptzMove", reg("tracker", 2));
        r.add("ptzOn", reg("recorder", 1));
        assert_eq!(r.listeners("ptzMove").len(), 2);
        assert_eq!(r.listeners("ptzOn").len(), 1);
        assert_eq!(r.listeners("other").len(), 0);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn re_add_replaces() {
        let mut r = NotificationRegistry::new();
        r.add("c", reg("s", 1));
        r.add("c", reg("s", 9));
        assert_eq!(r.listeners("c").len(), 1);
        assert_eq!(r.listeners("c")[0].addr.port, 9);
    }

    #[test]
    fn remove_works() {
        let mut r = NotificationRegistry::new();
        r.add("c", reg("s1", 1));
        r.add("c", reg("s2", 2));
        assert!(r.remove("c", "s1"));
        assert!(!r.remove("c", "s1"));
        assert_eq!(r.listeners("c").len(), 1);
        assert!(r.remove("c", "s2"));
        assert!(r.is_empty());
    }

    #[test]
    fn notification_cmd_carries_provenance_and_args() {
        let registration = reg("recorder", 1);
        let executed = CmdLine::new("ptzMove").arg("x", 3).arg("service", "spoof");
        let n = NotificationRegistry::notification_cmd(&registration, "cam1", &executed);
        assert_eq!(n.name(), "on_recorder");
        assert_eq!(n.get_text("service"), Some("cam1")); // provenance wins
        assert_eq!(n.get_text("cmd"), Some("ptzMove"));
        assert_eq!(n.get_int("x"), Some(3));
    }

    #[test]
    fn notification_cmd_strips_caller_deadline() {
        let registration = reg("recorder", 1);
        let mut executed = CmdLine::new("ptzMove").arg("x", 3);
        executed.set_deadline_ms(25);
        let n = NotificationRegistry::notification_cmd(&registration, "cam1", &executed);
        assert_eq!(n.deadline_ms(), None, "caller budget must not propagate");
        assert_eq!(n.get_int("x"), Some(3));
    }
}
