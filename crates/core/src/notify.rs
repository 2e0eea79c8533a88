//! ACE daemon notifications (§2.5, Fig. 8).
//!
//! "All ACE daemons have notification commands semantically and syntactically
//! defined for them … services keep a running list of all other ACE commands
//! that are being 'listened' for and all the ACE services that are to be
//! notified when such commands are executed."
//!
//! [`NotificationRegistry`] is that running list; [`Notifier`] is the
//! delivery worker that invokes the registered command interface on the
//! notified services without blocking the daemon's control role.
//!
//! # Delivery: casts, never calls
//!
//! Everything a daemon sends without wanting an answer — fired
//! notifications, `ctx.log`, `ctx.send_async` — is an event, and goes out
//! as a *cast* ([`crate::link`]): one frame, no `deadline=`, nothing waited
//! for.  A listener answers a cast only when it did not run it (`error …
//! cast=<n>;`, the daemon shell's rule), and the [`NotifierTask`] reads
//! that whenever it arrives — its waker sits on every link it holds, so no
//! runtime worker ever waits on a listener.
//!
//! * **One held link per listener.**  The link comes from the daemon's
//!   [`LinkPool`] and stays checked out while casts on it may still be
//!   refused: parked, a link with a refusal queued would fail the next
//!   checkout's probe and the pool would discard the refusal unread.
//! * **Bounded.**  Every [`NOTIFY_SYNC_EVERY`]-th message to a listener is
//!   an ordinary call frame; its reply, read when it arrives, says that
//!   everything written before it was read.  A listener with
//!   [`NOTIFY_WINDOW`] messages unaccounted for makes the head of the queue
//!   *wait*; the [`NOTIFY_QUEUE_CAPACITY`]-deep queue stays the one place
//!   that sheds.  A message is kept until it is acknowledged, refused or
//!   [`NOTIFY_KEEP`] old, whichever is first — so a slow listener delays
//!   the rest of the queue by at most that much, and an idle daemon keeps
//!   nothing.
//! * **A refused cast is sent again** when the refusal is retryable (the
//!   verb did not run): at most [`NOTIFY_RESENDS`] more copies, after 5 and
//!   10 ms, each paid from the daemon's [`RetryBudget`]; an `E_UPGRADING`
//!   listener is being replaced, so the next copy evicts the pool's links
//!   to it and dials afresh — [`crate::ServiceCtx::call`]'s policy — while
//!   the link that said so is written on no more and heard out.  Anything
//!   else refused is a `notify.drops`.
//! * A link that fails under a write is replaced by one fresh dial; a
//!   listener that cannot be dialed sits in the negative cache.
//!
//! Promised: a refused cast is delivered at least once or counted dropped,
//! no message is written more than three times, and what one listener is
//! sent it reads in order.  Not promised: a cast still unread when its
//! listener's link drops is lost, and nobody is told.
//!
//! Counters: `notify.delivered` counts messages written to a live link and
//! `notify.latency` the time to write one; `notify.drops`, `notify.shed`,
//! `notify.queueDepth` as before; `notify.resent` is made by the first
//! re-send, so a daemon that was never refused reports no such row.
//! (`notify.delivered` counts *more* than it did when the ID Monitor's
//! `setLocation` and the WSS's `launch` were calls — the benchmark's
//! `notify.delivered_per_op` on `login_rush` reads ≈ 6.0 where it read
//! 4.04 — while `net.frames_per_op` falls: two calls became casts.)

use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use crate::pool::{LinkPool, PooledLink};
use crate::protocol::CAST_ARG;
use crate::retry::RetryBudget;
use crate::runtime::{RuntimeTask, TaskContext, TaskPoll};
use ace_lang::{CmdLine, ErrorCode, Reply, DEADLINE_ARG};
use ace_net::{Addr, WakeCell};
use crossbeam_channel::{Receiver, Sender, TryRecvError, TrySendError};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::task::Waker;
use std::time::{Duration, Instant};

/// How long a written message is kept waiting for word from its listener.
/// Deliberately far below a client's 5 s default call timeout: a listener
/// that says nothing delays the rest of the queue by at most this much.
/// Also the `deadline=` a sync frame carries.
const NOTIFY_KEEP: Duration = Duration::from_secs(1);

/// Messages to one listener that may be unaccounted for — neither
/// acknowledged, refused nor aged out — before the queue's head waits.
const NOTIFY_WINDOW: usize = 64;

/// Every this-many-th message to a listener goes as a call, not a cast.
const NOTIFY_SYNC_EVERY: u32 = 32;

/// Copies of a message written after a retryable refusal of the first.
const NOTIFY_RESENDS: u32 = 2;

/// Wait before the first re-send; doubled for the second.
const RESEND_AFTER: Duration = Duration::from_millis(5);

/// Outbound queue bound.  A producer that outruns delivery (an event storm,
/// a listener a whole window behind) sheds the newest messages — counted in
/// `notify.shed` — instead of growing the queue, and the daemon's memory,
/// without limit.
const NOTIFY_QUEUE_CAPACITY: usize = 1024;

/// After a failed delivery the address sits in a negative cache this long;
/// messages to it are counted as drops instead of re-paying the connect
/// for every queued message behind a dead subscriber.
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
struct Outbound {
    addr: Addr,
    cmd: CmdLine,
}

/// Asynchronous outbound delivery: a worker (a cooperative task on the
/// daemon's runtime, [`NotifierTask`]) sending over the daemon's pool.
///
/// Used for notifications and fire-and-forget logging so the control plane
/// never blocks on a slow or dead listener.
pub(crate) struct Notifier {
    /// `Option` so `Drop` can release the sender *before* waking the
    /// delivery task — otherwise the task would observe a still-connected
    /// channel and miss the disconnect.
    tx: Option<Sender<Outbound>>,
    shed: Arc<Counter>,
    wake: Arc<WakeCell>,
}

impl Notifier {
    /// Build the delivery worker: the returned [`NotifierTask`] must be
    /// spawned on a [`crate::runtime::Runtime`] and sends over `pool`,
    /// paying for re-sends out of `retry_budget`.  Delivery outcomes are
    /// recorded in `metrics` (see the module docs).
    pub(crate) fn new(
        pool: Arc<LinkPool>,
        metrics: &Arc<MetricsRegistry>,
        retry_budget: Arc<RetryBudget>,
    ) -> (Notifier, NotifierTask) {
        let (tx, rx) = crossbeam_channel::bounded::<Outbound>(NOTIFY_QUEUE_CAPACITY);
        let shed = metrics.counter("notify.shed");
        let wake = Arc::new(WakeCell::new());
        let task = NotifierTask {
            rx,
            head: None,
            wake: Arc::clone(&wake),
            state: DeliveryState::new(pool, metrics, retry_budget),
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
    pub(crate) fn send(&self, addr: Addr, cmd: CmdLine) -> bool {
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

/// A message on its way to a listener, and how many copies went before.
struct Message {
    addr: Addr,
    cmd: CmdLine,
    resends: u32,
}

/// A message written to a listener that has not been heard about yet.
struct Kept {
    /// Its ordinal among the casts written on the link — what a refusal's
    /// `cast=<n>` names; `None` for a sync, whose reply carries none.
    cast: Option<u64>,
    cmd: CmdLine,
    written: Instant,
    resends: u32,
}

/// What a frame from a listener said ([`Window::hear`]).
enum Heard {
    /// Everything up to some message ran, or was answered.
    Settled,
    /// This message did not run, for this reason.
    Refused(Kept, ErrorCode),
    /// A message did not run, and is no longer kept to be sent again.
    Forgotten,
}

/// What one link to a listener has been sent and not yet accounted for.
/// Frames on a session are answered in the order they were read, so word
/// about one message settles every message written before it: a cast not
/// refused by then ran.
#[derive(Default)]
struct Window {
    /// Casts written on this link so far: the ordinal of the latest.
    casts: u64,
    /// Messages written since the last sync.
    since_sync: u32,
    /// Oldest first.
    kept: VecDeque<Kept>,
    /// Syncs that aged out of `kept` with their reply still to come.
    owed: u32,
}

impl Window {
    fn is_full(&self) -> bool {
        self.kept.len() >= NOTIFY_WINDOW
    }

    /// Is the next message due as a call?
    fn wants_sync(&self) -> bool {
        self.since_sync + 1 >= NOTIFY_SYNC_EVERY
    }

    /// Record `cmd` as just written — as a sync, or as the next cast.
    fn wrote(&mut self, cmd: CmdLine, resends: u32, sync: bool, now: Instant) {
        let cast = if sync {
            self.since_sync = 0;
            None
        } else {
            self.since_sync += 1;
            self.casts += 1;
            Some(self.casts)
        };
        self.kept.push_back(Kept {
            cast,
            cmd,
            written: now,
            resends,
        });
    }

    /// Read one frame from the listener: the refusal of a cast, or the
    /// reply to the oldest sync still owed one.
    fn hear(&mut self, frame: &CmdLine) -> Heard {
        let cast = frame.get_int(CAST_ARG).map(|n| n as u64);
        let refused = match Reply::from_cmdline(frame) {
            // A cast's refusal, whatever the code, is a verb that did not
            // run; a sync's reply is one only when it says so.  Any other
            // reply is from a listener that was reached: delivered, and at
            // worst declined.
            Reply::Err { code, .. } if cast.is_some() || code.is_retryable() => Some(code),
            _ => None,
        };
        match (refused, self.take(cast)) {
            (Some(code), Some(Some(kept))) => Heard::Refused(kept, code),
            (Some(_), Some(None)) => Heard::Forgotten,
            _ => Heard::Settled,
        }
    }

    /// The listener has spoken of its `cast`-th cast, or (`None`) answered
    /// the oldest sync it owed.  Everything written before that message is
    /// settled, and the message itself taken out: `Some(None)` when it is
    /// no longer kept, `None` when nothing we wrote is spoken of (a reply
    /// sent in advance by a listener that is retiring).
    fn take(&mut self, cast: Option<u64>) -> Option<Option<Kept>> {
        if cast.is_none() && self.owed > 0 {
            self.owed -= 1; // the late reply to a sync that aged out
            return Some(None);
        }
        // The first message kept that was not written before the one
        // spoken of.  A sync still kept when a cast is refused was written
        // after it: an earlier one was answered, and forgotten, first.
        let at = self.kept.iter().position(|kept| match (cast, kept.cast) {
            (Some(refused), Some(n)) => n >= refused,
            (Some(_), None) => true,
            (None, written_as) => written_as.is_none(),
        });
        let Some(at) = at else {
            return cast.map(|_| None);
        };
        self.kept.drain(..at);
        Some(match self.kept.front() {
            Some(kept) if kept.cast == cast => self.kept.pop_front(),
            _ => None, // it aged out; what is kept was written after it
        })
    }

    /// Forget what was written more than [`NOTIFY_KEEP`] before `now`.
    fn expire(&mut self, now: Instant) {
        while let Some(oldest) = self.kept.front() {
            if now.saturating_duration_since(oldest.written) < NOTIFY_KEEP {
                break;
            }
            if oldest.cast.is_none() {
                self.owed += 1;
            }
            self.kept.pop_front();
        }
    }

    /// When [`Self::expire`] next has something to forget.
    fn next_expiry(&self) -> Option<Instant> {
        self.kept.front().map(|oldest| oldest.written + NOTIFY_KEEP)
    }
}

/// The wait before copy number `resends + 1` of a message refused with
/// `code`, or `None` when it is not to be sent again: the refusal was not
/// a retryable one (the verb may have run, or never will), or it has been
/// sent [`NOTIFY_RESENDS`] times over already.
fn resend_after(code: ErrorCode, resends: u32) -> Option<Duration> {
    (code.is_retryable() && resends < NOTIFY_RESENDS).then(|| RESEND_AFTER * (1 << resends))
}

/// The link the notifier holds to one listener.
struct ListenerLink {
    /// Which of the links ever held this is — a re-send remembers the one
    /// that refused it.
    id: u64,
    link: PooledLink,
    window: Window,
}

/// A refused message waiting to be sent again.
struct Resend {
    due: Instant,
    message: Message,
    /// `E_UPGRADING` on this link: the next copy needs a fresh dial.
    moved_from: Option<u64>,
}

/// The links the notifier holds, and what waits on them.
#[derive(Default)]
struct Held {
    links: HashMap<Addr, ListenerLink>,
    links_made: u64,
    /// Links to listeners that said they are being replaced: written on no
    /// more, heard until what they were sent is accounted for.
    retiring: Vec<(Addr, ListenerLink)>,
    resends: Vec<Resend>,
}

/// The delivery machinery of [`NotifierTask`]: the daemon's pool, the held
/// links, the dead-listener negative cache and delivery metrics.
struct DeliveryState {
    pool: Arc<LinkPool>,
    retry_budget: Arc<RetryBudget>,
    metrics: Arc<MetricsRegistry>,
    delivered: Arc<Counter>,
    drops: Arc<Counter>,
    resent: Option<Arc<Counter>>,
    latency: Arc<Histogram>,
    depth: Arc<Gauge>,
    /// Made by the first delivery: a daemon that never sends anything pays
    /// one pointer (E22 packs 10,000 of those into a process).
    held: Option<Box<Held>>,
    // Negative cache of recently unreachable listeners.  Without it, a dead
    // subscriber makes every queued message behind it re-pay the failed
    // connect — head-of-line blocking that stalls fan-out to the healthy
    // subscribers.
    dead: HashMap<Addr, Instant>,
}

impl DeliveryState {
    fn new(
        pool: Arc<LinkPool>,
        metrics: &Arc<MetricsRegistry>,
        retry_budget: Arc<RetryBudget>,
    ) -> Self {
        DeliveryState {
            pool,
            retry_budget,
            metrics: Arc::clone(metrics),
            delivered: metrics.counter("notify.delivered"),
            drops: metrics.counter("notify.drops"),
            resent: None,
            latency: metrics.histogram("notify.latency"),
            depth: metrics.gauge("notify.queueDepth"),
            held: None,
            dead: HashMap::new(),
        }
    }

    /// Read what the listeners have said, forget what is too old to hear
    /// about, and let go of the links that closed.
    fn hear(&mut self, now: Instant) {
        let Some(held) = &mut self.held else {
            return;
        };
        let Held {
            links,
            retiring,
            resends,
            ..
        } = &mut **held;
        let mut refused = Vec::new();
        let drops = &self.drops;
        let mut hear = |addr: &Addr, held: &mut ListenerLink| {
            held.window.expire(now);
            loop {
                match held.link.try_recv() {
                    Ok(Some(frame)) => match held.window.hear(&frame) {
                        Heard::Refused(kept, code) => {
                            refused.push((addr.clone(), held.id, kept, code))
                        }
                        Heard::Forgotten => drops.incr(),
                        Heard::Settled => {}
                    },
                    Ok(None) => return true,
                    // Closed under us.  What it was sent and said nothing
                    // about is taken as read.
                    Err(_) => return false,
                }
            }
        };
        links.retain(|addr, held| hear(addr, held));
        let mut i = 0;
        while let Some((addr, held)) = retiring.get_mut(i) {
            if hear(addr, held) && !held.window.kept.is_empty() {
                i += 1;
            } else {
                // Heard out.  Dropped, it would park in the pool.
                retiring.swap_remove(i).1.link.discard();
            }
        }
        for (addr, link, kept, code) in refused {
            let wait = resend_after(code, kept.resends);
            match wait.filter(|_| self.retry_budget.try_withdraw()) {
                Some(wait) => resends.push(Resend {
                    due: now + wait,
                    message: Message {
                        addr,
                        cmd: kept.cmd,
                        resends: kept.resends + 1,
                    },
                    moved_from: (code == ErrorCode::Upgrading).then_some(link),
                }),
                // The drop is counted, never silent: `aceStats` on the
                // originating daemon exposes `notify.drops`.
                None => drops.incr(),
            }
        }
    }

    /// Write again what was refused and has waited its time.
    fn resend_due(&mut self, now: Instant, waker: &Waker) {
        let Some(held) = &mut self.held else {
            return;
        };
        let (due, waiting) = std::mem::take(&mut held.resends)
            .into_iter()
            .partition(|resend| resend.due <= now);
        held.resends = waiting;
        for Resend {
            due,
            message,
            moved_from,
        } in due
        {
            let addr = &message.addr;
            if let (Some(old), Some(held)) = (moved_from, &mut self.held) {
                // The listener is being replaced: neither a parked link
                // nor the one it refused us on leads to its replacement.
                // That one is written on no more, but what it was sent may
                // yet be refused: it is heard out.
                self.pool.evict(addr);
                if held.links.get(addr).is_some_and(|link| link.id == old) {
                    let link = held.links.remove(addr).expect("just seen");
                    held.retiring.push((addr.clone(), link));
                }
            }
            let metrics = &self.metrics;
            self.resent
                .get_or_insert_with(|| metrics.counter("notify.resent"))
                .incr();
            if let Err(message) = self.deliver(message, waker) {
                // A whole window behind: it waits its turn here.
                self.held
                    .get_or_insert_with(Box::default)
                    .resends
                    .push(Resend {
                        due,
                        message,
                        moved_from: None,
                    });
            }
        }
    }

    /// Write `message` to its listener, or count it dropped.  `Err` hands
    /// it back unwritten: the listener is a whole window behind.
    fn deliver(&mut self, message: Message, waker: &Waker) -> Result<(), Message> {
        let Message { addr, cmd, resends } = message;
        let clock = self.pool.clock();
        if let Some(since) = self.dead.get(&addr) {
            if clock.now().saturating_duration_since(*since) < DEAD_BACKOFF {
                self.drops.incr();
                return Ok(());
            }
            self.dead.remove(&addr);
        }
        let started = clock.now();
        let held = self.held.get_or_insert_with(Box::default);
        // Delivery is best-effort: a dead listener loses its notification
        // (the paper's registry similarly cannot promise delivery to
        // crashed services).  A held link that fails under the write is
        // replaced by one fresh dial; a failed dial is final.
        for _ in 0..2 {
            if !held.links.contains_key(&addr) {
                let Ok(mut link) = self.pool.checkout(&addr) else {
                    break;
                };
                link.set_timeout(NOTIFY_KEEP);
                // A refusal or a close wakes the task; nothing waits.
                link.register_waker(waker);
                held.links_made += 1;
                let taken = ListenerLink {
                    id: held.links_made,
                    link,
                    window: Window::default(),
                };
                held.links.insert(addr.clone(), taken);
            }
            let to = held.links.get_mut(&addr).expect("held or just taken");
            if to.window.is_full() {
                return Err(Message { addr, cmd, resends });
            }
            let sync = to.window.wants_sync();
            let written = if sync {
                to.link.send(&cmd)
            } else {
                to.link.cast(&cmd)
            };
            match written {
                Ok(()) => {
                    to.window.wrote(cmd, resends, sync, started);
                    self.delivered.incr();
                    self.latency
                        .record(clock.now().saturating_duration_since(started));
                    return Ok(());
                }
                Err(_) => {
                    held.links.remove(&addr);
                }
            }
        }
        self.drops.incr();
        self.dead.insert(addr, clock.now());
        Ok(())
    }

    /// When there is next something to do that no frame will wake us for:
    /// a re-send falling due, a kept message growing too old.
    fn next_deadline(&self) -> Option<Instant> {
        let held = self.held.as_ref()?;
        let resends = held.resends.iter().map(|resend| resend.due);
        let retiring = held.retiring.iter().map(|(_, link)| link);
        let links = held.links.values().chain(retiring);
        let expiries = links.filter_map(|link| link.window.next_expiry());
        resends.chain(expiries).min()
    }
}

/// The delivery worker; see [`Notifier::new`].
pub(crate) struct NotifierTask {
    rx: Receiver<Outbound>,
    /// The head of the queue, taken off it and waiting: its listener is a
    /// whole window behind.
    head: Option<Box<Message>>,
    wake: Arc<WakeCell>,
    state: DeliveryState,
}

impl RuntimeTask for NotifierTask {
    fn poll(&mut self, cx: &mut TaskContext<'_>) -> TaskPoll {
        // Register before draining: a send that lands between the last
        // `try_recv` and the return would otherwise be a lost wakeup.
        self.wake.register(cx.waker());
        let state = &mut self.state;
        let now = state.pool.clock().now();
        state.hear(now);
        state.resend_due(now, cx.waker());
        let mut handled = 0usize;
        loop {
            let message = match self.head.take() {
                Some(waiting) => *waiting,
                None => match self.rx.try_recv() {
                    Ok(out) => {
                        state.depth.set(self.rx.len() as i64);
                        // Fresh work earns the budget its re-sends spend.
                        state.retry_budget.note_call();
                        Message {
                            addr: out.addr,
                            cmd: out.cmd,
                            resends: 0,
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return TaskPoll::Complete,
                },
            };
            if let Err(waiting) = state.deliver(message, cx.waker()) {
                self.head = Some(Box::new(waiting));
                break;
            }
            handled += 1;
            if handled >= NOTIFY_BATCH {
                return TaskPoll::Again;
            }
        }
        if let Some(at) = state.next_deadline() {
            cx.set_timer(at);
        }
        TaskPoll::Pending
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

/// A seeded model of one sender and one listener, in the shape of the store
/// client's `race_model`: the sender's real bookkeeping ([`Window`],
/// [`resend_after`], a [`RetryBudget`]) against a listener that is a few
/// lines of queue, under thousands of seeded interleavings of sends, reads,
/// truthful refusals, a quiesce and its abort, an abrupt link close and the
/// age-out — on a clock the model owns, so a second costs nothing.
///
/// Checked after every step: no link ever has more than a window kept.
/// Checked once the world has settled: a message ran at most once (a copy
/// is only ever made of one that was refused, and a refused copy did not
/// run); it ran, or was counted dropped, or lay unread on a link that
/// closed; it was written at most three times; and a refusal found nothing
/// kept only when what it refused was written a whole [`NOTIFY_KEEP`] ago.
///
/// It fails — with the story of the run — under each of: the first cast of
/// a link numbered 0 (`wrote` taking the ordinal before the increment:
/// "refusal names the wrong ordinal"); a sync's reply settling all that is
/// kept rather than what was written before it; a re-send kept under the
/// ordinal it was first written as.
#[cfg(test)]
mod cast_model {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::collections::HashSet;

    /// One link, both ends of it.
    struct Link {
        window: Window,
        /// Written, not yet read by the listener: `(sync, message)`.
        wire: VecDeque<(bool, u32)>,
        /// Answered, not yet heard by the sender; with the message meant.
        back: VecDeque<(CmdLine, u32)>,
        /// Casts the listener has read on this session.
        read: u64,
        /// Still written on — until it says the listener is being replaced.
        current: bool,
    }

    struct Due {
        at: Instant,
        message: u32,
        resends: u32,
        moved_from: Option<usize>,
    }

    struct World {
        rng: SmallRng,
        now: Instant,
        links: Vec<Link>,
        budget: RetryBudget,
        fired: u32,
        /// Fired and waiting behind a full window.
        queue: VecDeque<u32>,
        due: Vec<Due>,
        quiesced: bool,
        written: HashMap<u32, (u32, Instant)>,
        runs: HashMap<u32, u32>,
        dropped: HashSet<u32>,
        unread_at_close: HashSet<u32>,
        story: Vec<String>,
    }

    fn cmd_of(message: u32) -> CmdLine {
        CmdLine::new("onEvent").arg("id", message)
    }

    fn message_of(cmd: &CmdLine) -> u32 {
        cmd.get_int("id").expect("the model's commands carry ids") as u32
    }

    impl World {
        fn new(seed: u64) -> World {
            World {
                rng: SmallRng::seed_from_u64(seed),
                now: ace_net::Clock::real().now(),
                links: Vec::new(),
                budget: RetryBudget::new(5, 0.1),
                fired: 0,
                queue: VecDeque::new(),
                due: Vec::new(),
                quiesced: false,
                written: HashMap::new(),
                runs: HashMap::new(),
                dropped: HashSet::new(),
                unread_at_close: HashSet::new(),
                story: vec![format!("seed {seed}")],
            }
        }

        fn require(&self, holds: bool, what: impl FnOnce() -> String) {
            assert!(holds, "{}\n  {}", what(), self.story.join("\n  "));
        }

        /// `DeliveryState::deliver`, without the network.
        fn deliver(&mut self, message: u32, resends: u32) -> bool {
            let at = match self.links.iter().position(|link| link.current) {
                Some(at) => at,
                None => {
                    self.links.push(Link {
                        window: Window::default(),
                        wire: VecDeque::new(),
                        back: VecDeque::new(),
                        read: 0,
                        current: true,
                    });
                    self.links.len() - 1
                }
            };
            let link = &mut self.links[at];
            if link.window.is_full() {
                return false;
            }
            let sync = link.window.wants_sync();
            link.wire.push_back((sync, message));
            link.window.wrote(cmd_of(message), resends, sync, self.now);
            let copies = self.written.entry(message).or_insert((0, self.now));
            *copies = (copies.0 + 1, self.now);
            let how = if sync { "sync" } else { "cast" };
            self.story.push(format!(
                "write {message} (copy {}) on {at} as a {how}",
                copies.0
            ));
            true
        }

        /// The notifier's poll: age out, re-send what is due, drain the queue.
        fn pump(&mut self) {
            let now = self.now;
            for link in &mut self.links {
                link.window.expire(now);
            }
            let (due, waiting) = std::mem::take(&mut self.due)
                .into_iter()
                .partition(|due| due.at <= now);
            self.due = waiting;
            for mut due in due {
                if let Some(old) = due.moved_from.take() {
                    self.links[old].current = false;
                }
                if !self.deliver(due.message, due.resends) {
                    self.due.push(due);
                }
            }
            while let Some(&head) = self.queue.front() {
                if !self.deliver(head, 0) {
                    break;
                }
                self.queue.pop_front();
            }
            for (at, link) in self.links.iter().enumerate() {
                self.require(link.window.kept.len() <= NOTIFY_WINDOW, || {
                    format!("link {at} keeps {}", link.window.kept.len())
                });
            }
        }

        fn fire(&mut self) {
            self.fired += 1;
            self.budget.note_call();
            self.queue.push_back(self.fired);
        }

        /// The listener reads one frame of link `at` and runs or refuses it.
        fn read(&mut self, at: usize) {
            let Some((sync, message)) = self.links[at].wire.pop_front() else {
                return;
            };
            let roll = self.rng.gen_range(0..100);
            let refusal = if self.quiesced {
                Some(ErrorCode::Upgrading)
            } else if roll < 12 {
                Some(ErrorCode::Busy)
            } else if roll < 16 && !sync {
                Some(ErrorCode::Semantics)
            } else {
                None
            };
            let link = &mut self.links[at];
            if !sync {
                link.read += 1;
            }
            match refusal {
                None => {
                    *self.runs.entry(message).or_default() += 1;
                    if sync {
                        link.back.push_back((Reply::ok().to_cmdline(), message));
                    }
                    self.story.push(format!("{message} runs"));
                }
                Some(code) => {
                    let mut frame = Reply::err(code, "refused").to_cmdline();
                    if !sync {
                        frame.push_arg(CAST_ARG, link.read);
                    }
                    self.story.push(format!("{message} refused: {frame}"));
                    link.back.push_back((frame, message));
                }
            }
        }

        /// The sender hears one frame of link `at`.
        fn hear(&mut self, at: usize) {
            let Some((frame, meant)) = self.links[at].back.pop_front() else {
                return;
            };
            match self.links[at].window.hear(&frame) {
                Heard::Settled => {}
                Heard::Forgotten => {
                    let age = self.now - self.written[&meant].1;
                    self.require(age >= NOTIFY_KEEP, || {
                        format!("{meant} refused {age:?} after it was written, and not kept")
                    });
                    self.dropped.insert(meant);
                }
                Heard::Refused(kept, code) => {
                    let message = message_of(&kept.cmd);
                    self.require(message == meant, || {
                        format!("`{frame}` refused {meant} and was taken to refuse {message}")
                    });
                    let wait = resend_after(code, kept.resends);
                    match wait.filter(|_| self.budget.try_withdraw()) {
                        Some(wait) => self.due.push(Due {
                            at: self.now + wait,
                            message,
                            resends: kept.resends + 1,
                            moved_from: (code == ErrorCode::Upgrading).then_some(at),
                        }),
                        None => {
                            self.story.push(format!("{message} dropped"));
                            self.dropped.insert(message);
                        }
                    }
                }
            }
        }

        /// Every link drops: what the listener had not read it never will;
        /// what it had answered the sender still hears.
        fn close(&mut self) {
            self.story.push("close".into());
            for at in 0..self.links.len() {
                let unread = std::mem::take(&mut self.links[at].wire);
                self.unread_at_close.extend(unread.iter().map(|(_, m)| *m));
                while !self.links[at].back.is_empty() {
                    self.hear(at);
                }
            }
            self.links.clear();
            for due in &mut self.due {
                due.moved_from = None;
            }
        }

        fn step(&mut self) {
            let links = self.links.len();
            let at = self.rng.gen_range(0..links.max(1));
            match self.rng.gen_range(0..100) {
                0..=39 => self.fire(),
                40..=64 if links > 0 => self.read(at),
                65..=84 if links > 0 => self.hear(at),
                85..=92 => {
                    let ms = [1, 3, 6, 40, 400][self.rng.gen_range(0..5usize)];
                    self.now += Duration::from_millis(ms);
                }
                93..=95 => self.quiesced = !self.quiesced,
                96 => self.close(),
                _ => {}
            }
            self.pump();
        }

        /// Let everything in flight land, then check the ledger.
        fn settle(&mut self) {
            self.quiesced = false;
            for _ in 0..10_000 {
                for at in 0..self.links.len() {
                    self.read(at);
                    self.hear(at);
                }
                self.now += Duration::from_millis(7);
                self.pump();
                let links_quiet = self
                    .links
                    .iter()
                    .all(|link| link.wire.is_empty() && link.back.is_empty());
                if links_quiet && self.queue.is_empty() && self.due.is_empty() {
                    break;
                }
            }
            for message in 1..=self.fired {
                let runs = self.runs.get(&message).copied().unwrap_or(0);
                let copies = self.written.get(&message).map_or(0, |w| w.0);
                self.require(runs <= 1, || format!("{message} ran {runs} times"));
                self.require(copies <= 1 + NOTIFY_RESENDS, || {
                    format!("{message} was written {copies} times")
                });
                let accounted = runs == 1
                    || self.dropped.contains(&message)
                    || self.unread_at_close.contains(&message);
                self.require(accounted, || {
                    format!("{message} neither ran nor was counted dropped")
                });
            }
        }
    }

    #[test]
    fn every_cast_runs_once_or_is_counted_and_no_window_overflows() {
        for seed in 0..2_000 {
            let mut world = World::new(seed);
            for _ in 0..400 {
                world.step();
            }
            world.settle();
        }
    }
}
