//! Shared cooperative daemon runtime.
//!
//! The paper's §2.1 shell gives every daemon four OS threads (main, accept,
//! control, data).  That caps a process at tens of daemons — far short of a
//! building's worth of ambient services.  This module multiplexes *all*
//! daemons over one small fixed worker pool: each daemon is a single
//! cooperatively scheduled [`RuntimeTask`] (`daemon::DaemonTask`, whose
//! poll stages are the four roles) that is polled only when one of its
//! endpoints signals readiness (see `ace_net::wake::WakeCell`) or a timer
//! it armed fires.
//!
//! ## Task model
//!
//! A task is a hand-rolled state machine, not a Rust `Future`: `poll` takes
//! `&mut self` and a [`TaskContext`] carrying the task's stable
//! [`std::task::Waker`].  The runtime guarantees `poll` is never run
//! concurrently with itself.  Return values:
//!
//! * [`TaskPoll::Pending`] — park until a registered waker fires or the
//!   timer armed via [`TaskContext::set_timer`] expires;
//! * [`TaskPoll::Again`] — reschedule immediately (used to cap work per
//!   poll for fairness without losing the rest of a burst);
//! * [`TaskPoll::Complete`] — destroy the task.  The task object is dropped
//!   *before* the completion flag is signalled, so resources it holds
//!   (listener binds, datagram sockets) are provably released once
//!   [`TaskHandle::wait`] returns — the live-upgrade respawn path depends
//!   on this ordering to rebind the same address.
//!
//! ## Lost-wakeup freedom
//!
//! Each task carries an atomic scheduling state (`IDLE / SCHEDULED /
//! RUNNING / NOTIFIED / COMPLETE`).  A wake on an `IDLE` task enqueues it;
//! a wake *during* a poll moves `RUNNING → NOTIFIED`, and the worker
//! re-enqueues after the poll instead of parking it — so a readiness event
//! that races with the empty-check inside a poll is never dropped.  Wakers
//! are registered before checking for data, and spurious wakes are safe.
//!
//! ## Blocking tolerance (the starvation watchdog)
//!
//! Daemon code still contains *bounded* blocking sections —
//! `ServiceCtx::call` to a peer daemon, handshake receives, a store
//! replica's WAL fsync.  Rather than rewrite every client call site in
//! continuation style, the runtime tolerates them: a watchdog thread
//! samples worker state every few milliseconds; any poll exceeding
//! [`LONG_POLL`] increments `runtime.longPolls` (how misbehaving tasks are
//! detected), and when **all** workers are simultaneously stuck while work
//! is queued, the watchdog injects an extra worker thread (up to
//! [`MAX_WORKERS`]) so blocked call chains between co-scheduled daemons
//! cannot deadlock the pool.  Injected workers retire after ~1s idle.
//!
//! A daemon that must not share workers gets a pool of its own
//! (`DaemonConfig::with_runtime_pool(Runtime::new(1))`); the measurement
//! that retired the paper's thread-per-daemon shell is EXPERIMENTS.md
//! § "Daemon runtime (PR 8)", re-run against a pool per daemon as E22.

use crate::metrics::MetricsRegistry;
use ace_net::Clock;
use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::task::{Wake, Waker};
use std::time::{Duration, Instant};

/// A poll longer than this counts as a long poll (starvation suspect).
pub const LONG_POLL: Duration = Duration::from_millis(20);
/// Watchdog sampling period.
const WATCHDOG_TICK: Duration = Duration::from_millis(5);
/// Hard cap on pool size including injected workers.
pub const MAX_WORKERS: usize = 512;
/// Park timeout for workers (also the injected-worker idle quantum).
const PARK_TIMEOUT: Duration = Duration::from_millis(50);
/// Injected workers retire after this many consecutive idle parks.
const INJECTED_IDLE_STRIKES: u32 = 20;

/// Result of one cooperative poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskPoll {
    /// Nothing to do; park until woken (or the armed timer fires).
    Pending,
    /// More work immediately available; reschedule at the back of the
    /// ready queue (fairness yield).
    Again,
    /// Task finished; drop it.
    Complete,
}

/// Per-poll context: the task's stable waker plus timer arming.
pub struct TaskContext<'a> {
    waker: &'a Waker,
    timer: Option<Instant>,
}

impl TaskContext<'_> {
    /// The waker that reschedules this task.  Stable across polls, so
    /// endpoint registration is a cheap `will_wake` no-op after the first.
    pub fn waker(&self) -> &Waker {
        self.waker
    }

    /// Arm a wake-up at `at` (the earliest of all calls this poll wins).
    /// Only honoured when the poll returns [`TaskPoll::Pending`].
    pub fn set_timer(&mut self, at: Instant) {
        self.timer = Some(match self.timer {
            Some(t) if t <= at => t,
            _ => at,
        });
    }
}

/// One cooperatively scheduled unit (a whole daemon, a notifier, …).
pub trait RuntimeTask: Send {
    /// Make progress.  Must not block unboundedly; bounded blocking is
    /// tolerated (watchdog injects capacity) but counted against
    /// `runtime.longPolls` beyond [`LONG_POLL`].
    fn poll(&mut self, cx: &mut TaskContext<'_>) -> TaskPoll;
}

// Task scheduling states.
const IDLE: u8 = 0; // parked, waiting for a wake
const SCHEDULED: u8 = 1; // in the ready queue
const RUNNING: u8 = 2; // being polled
const NOTIFIED: u8 = 3; // being polled, wake arrived mid-poll
const COMPLETE: u8 = 4; // finished

#[derive(Default)]
struct DoneFlag {
    done: Mutex<bool>,
    cv: Condvar,
}

impl DoneFlag {
    fn signal(&self) {
        *self.done.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }

    fn is_done(&self) -> bool {
        *self.done.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait_timeout(&self, timeout: Duration) -> bool {
        let g = self.done.lock().unwrap_or_else(|e| e.into_inner());
        let (g, _) = self
            .cv
            .wait_timeout_while(g, timeout, |done| !*done)
            .unwrap_or_else(|e| e.into_inner());
        *g
    }
}

struct TaskCore {
    state: AtomicU8,
    task: parking_lot::Mutex<Option<Box<dyn RuntimeTask>>>,
    rt: Weak<RuntimeInner>,
    /// Earliest pending timer deadline (dedups heap entries per task).
    timer_armed: Mutex<Option<Instant>>,
    done: DoneFlag,
}

impl TaskCore {
    /// Schedule the task if it is parked; mark it notified if mid-poll.
    fn notify(self: &Arc<Self>) {
        loop {
            match self.state.load(Ordering::Acquire) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, SCHEDULED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        if let Some(rt) = self.rt.upgrade() {
                            rt.enqueue(Arc::clone(self));
                        }
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued, already notified, or gone: nothing to do.
                _ => return,
            }
        }
    }
}

impl Wake for TaskCore {
    fn wake(self: Arc<Self>) {
        self.notify();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.notify();
    }
}

/// Handle to a spawned task (held by `DaemonHandle`).
pub struct TaskHandle {
    core: Arc<TaskCore>,
}

impl TaskHandle {
    /// Kick the task (e.g. after flipping a stop flag it checks on poll).
    pub fn wake(&self) {
        self.core.notify();
    }

    /// Has the task returned [`TaskPoll::Complete`]?
    pub fn is_complete(&self) -> bool {
        self.core.done.is_done()
    }

    /// Block until the task completes (its object already dropped) or the
    /// timeout passes; returns whether it completed.
    pub fn wait(&self, timeout: Duration) -> bool {
        self.core.done.wait_timeout(timeout)
    }
}

impl std::fmt::Debug for TaskHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TaskHandle(complete: {})", self.is_complete())
    }
}

struct TimerEntry {
    at: Instant,
    seq: u64,
    core: Arc<TaskCore>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    // Reversed: BinaryHeap is a max-heap, we want the earliest deadline on top.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// Per-worker observability slot sampled by the watchdog.
struct WorkerSlot {
    /// Nanoseconds since runtime epoch when the current poll began;
    /// 0 when the worker is not inside a poll.
    poll_start_ns: AtomicU64,
    /// Monotonic poll counter (so a long poll is counted once, not once
    /// per watchdog tick).
    poll_seq: AtomicU64,
    /// Last poll_seq the watchdog counted as long (watchdog-private).
    counted_seq: AtomicU64,
    injected: bool,
}

#[derive(Default)]
struct RtStats {
    polls: AtomicU64,
    timer_fires: AtomicU64,
    worker_parks: AtomicU64,
    long_polls: AtomicU64,
    workers_injected: AtomicU64,
}

struct RuntimeInner {
    ready_tx: Sender<Arc<TaskCore>>,
    ready_rx: Receiver<Arc<TaskCore>>,
    clock: Clock,
    epoch: Instant,
    base_workers: usize,
    workers_live: AtomicUsize,
    slots: Mutex<Vec<Arc<WorkerSlot>>>,
    timers: Mutex<BinaryHeap<TimerEntry>>,
    timer_cv: Condvar,
    timer_seq: AtomicU64,
    tasks_live: AtomicU64,
    shutdown: AtomicBool,
    stats: RtStats,
}

impl RuntimeInner {
    fn elapsed_ns(&self) -> u64 {
        let elapsed = self.clock.now().saturating_duration_since(self.epoch);
        elapsed.as_nanos().min(u128::from(u64::MAX)) as u64
    }

    fn enqueue(&self, core: Arc<TaskCore>) {
        let _ = self.ready_tx.send(core);
    }

    fn register_timer(&self, core: &Arc<TaskCore>, at: Instant) {
        {
            let mut armed = core.timer_armed.lock().unwrap_or_else(|e| e.into_inner());
            // An earlier-or-equal fire is already scheduled; it will wake
            // the task, which re-arms as needed.
            if matches!(*armed, Some(t) if t <= at) {
                return;
            }
            *armed = Some(at);
        }
        let mut heap = self.timers.lock().unwrap_or_else(|e| e.into_inner());
        heap.push(TimerEntry {
            at,
            seq: self.timer_seq.fetch_add(1, Ordering::Relaxed),
            core: Arc::clone(core),
        });
        self.timer_cv.notify_one();
    }

    fn run_task(self: &Arc<Self>, core: Arc<TaskCore>, slot: &WorkerSlot) {
        core.state.store(RUNNING, Ordering::Release);
        let waker = Waker::from(Arc::clone(&core));
        slot.poll_seq.fetch_add(1, Ordering::Relaxed);
        slot.poll_start_ns
            .store(self.elapsed_ns().max(1), Ordering::Relaxed);
        let mut cx = TaskContext {
            waker: &waker,
            timer: None,
        };
        let result = {
            let mut guard = core.task.lock();
            match guard.as_mut() {
                Some(task) => task.poll(&mut cx),
                None => TaskPoll::Complete,
            }
        };
        slot.poll_start_ns.store(0, Ordering::Relaxed);
        self.stats.polls.fetch_add(1, Ordering::Relaxed);
        match result {
            TaskPoll::Complete => {
                core.state.store(COMPLETE, Ordering::Release);
                // Drop the task object BEFORE signalling completion:
                // whoever waits must observe its resources released.
                let boxed = core.task.lock().take();
                drop(boxed);
                self.tasks_live.fetch_sub(1, Ordering::Relaxed);
                core.done.signal();
            }
            TaskPoll::Again => {
                core.state.store(SCHEDULED, Ordering::Release);
                self.enqueue(core);
            }
            TaskPoll::Pending => {
                if let Some(at) = cx.timer {
                    self.register_timer(&core, at);
                }
                if core
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // A wake arrived mid-poll (NOTIFIED): requeue so the
                    // readiness event is not lost.
                    core.state.store(SCHEDULED, Ordering::Release);
                    self.enqueue(core);
                }
            }
        }
    }

    fn worker_loop(self: Arc<Self>, slot: Arc<WorkerSlot>) {
        let mut idle_strikes = 0u32;
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                break;
            }
            match self.ready_rx.recv_timeout(PARK_TIMEOUT) {
                Ok(core) => {
                    idle_strikes = 0;
                    self.run_task(core, &slot);
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.stats.worker_parks.fetch_add(1, Ordering::Relaxed);
                    if slot.injected {
                        idle_strikes += 1;
                        if idle_strikes >= INJECTED_IDLE_STRIKES {
                            break;
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.workers_live.fetch_sub(1, Ordering::Relaxed);
        self.slots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|s| !Arc::ptr_eq(s, &slot));
    }

    fn spawn_worker(self: &Arc<Self>, injected: bool) {
        let slot = Arc::new(WorkerSlot {
            poll_start_ns: AtomicU64::new(0),
            poll_seq: AtomicU64::new(0),
            counted_seq: AtomicU64::new(0),
            injected,
        });
        self.slots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&slot));
        self.workers_live.fetch_add(1, Ordering::Relaxed);
        let inner = Arc::clone(self);
        let name = if injected {
            "ace-rt-injected"
        } else {
            "ace-rt-worker"
        };
        std::thread::Builder::new()
            .name(name.into())
            .spawn(move || inner.worker_loop(slot))
            .expect("spawn runtime worker");
    }

    fn timer_loop(self: Arc<Self>) {
        let mut heap = self.timers.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            let now = self.clock.now();
            let mut due = Vec::new();
            while matches!(heap.peek(), Some(top) if top.at <= now) {
                due.push(heap.pop().expect("peeked entry"));
            }
            if !due.is_empty() {
                drop(heap);
                for entry in due {
                    {
                        let mut armed = entry
                            .core
                            .timer_armed
                            .lock()
                            .unwrap_or_else(|e| e.into_inner());
                        if *armed == Some(entry.at) {
                            *armed = None;
                        }
                        // A stale entry (task re-armed earlier) still wakes:
                        // spurious wakes are part of the contract.
                    }
                    self.stats.timer_fires.fetch_add(1, Ordering::Relaxed);
                    entry.core.notify();
                }
                heap = self.timers.lock().unwrap_or_else(|e| e.into_inner());
                continue;
            }
            let wait = match heap.peek() {
                Some(top) => top.at.saturating_duration_since(now),
                None => Duration::from_secs(1),
            };
            let (g, _) = self
                .timer_cv
                .wait_timeout(heap, wait)
                .unwrap_or_else(|e| e.into_inner());
            heap = g;
        }
    }

    fn watchdog_loop(self: Arc<Self>) {
        let long_poll_ns = LONG_POLL.as_nanos() as u64;
        loop {
            self.clock.sleep(WATCHDOG_TICK);
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            let slots: Vec<Arc<WorkerSlot>> =
                self.slots.lock().unwrap_or_else(|e| e.into_inner()).clone();
            if slots.is_empty() {
                continue;
            }
            let now_ns = self.elapsed_ns();
            let mut all_stuck = true;
            for slot in &slots {
                let start = slot.poll_start_ns.load(Ordering::Relaxed);
                let stuck = start != 0 && now_ns.saturating_sub(start) > long_poll_ns;
                if stuck {
                    let seq = slot.poll_seq.load(Ordering::Relaxed);
                    if slot.counted_seq.load(Ordering::Relaxed) != seq {
                        slot.counted_seq.store(seq, Ordering::Relaxed);
                        self.stats.long_polls.fetch_add(1, Ordering::Relaxed);
                    }
                } else {
                    all_stuck = false;
                }
            }
            // Every worker is wedged in a long poll while runnable tasks
            // wait: inject capacity so blocked daemon-to-daemon call
            // chains cannot deadlock the pool.
            if all_stuck
                && !self.ready_rx.is_empty()
                && self.workers_live.load(Ordering::Relaxed) < MAX_WORKERS
            {
                self.stats.workers_injected.fetch_add(1, Ordering::Relaxed);
                self.spawn_worker(true);
            }
        }
    }
}

/// The shared cooperative runtime: a clonable handle over the worker pool,
/// timer thread, and starvation watchdog.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RuntimeInner>,
}

impl Runtime {
    /// Build a runtime with `workers` base pool threads (min 1).
    pub fn new(workers: usize) -> Runtime {
        let workers = workers.clamp(1, MAX_WORKERS);
        let (ready_tx, ready_rx) = crossbeam_channel::unbounded();
        let clock = Clock::real();
        let inner = Arc::new(RuntimeInner {
            ready_tx,
            ready_rx,
            epoch: clock.now(),
            clock,
            base_workers: workers,
            workers_live: AtomicUsize::new(0),
            slots: Mutex::new(Vec::new()),
            timers: Mutex::new(BinaryHeap::new()),
            timer_cv: Condvar::new(),
            timer_seq: AtomicU64::new(0),
            tasks_live: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            stats: RtStats::default(),
        });
        for _ in 0..workers {
            inner.spawn_worker(false);
        }
        {
            let timer = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("ace-rt-timer".into())
                .spawn(move || timer.timer_loop())
                .expect("spawn runtime timer");
        }
        {
            let dog = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("ace-rt-watchdog".into())
                .spawn(move || dog.watchdog_loop())
                .expect("spawn runtime watchdog");
        }
        Runtime { inner }
    }

    /// The process-wide runtime every `Daemon::spawn` uses by default.
    /// Sized by `ACE_RUNTIME_WORKERS`, defaulting to the machine's
    /// available parallelism.
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let workers = std::env::var("ACE_RUNTIME_WORKERS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(4)
                });
            Runtime::new(workers)
        })
    }

    /// Spawn a task; it is immediately schedulable.
    pub fn spawn(&self, task: Box<dyn RuntimeTask>) -> TaskHandle {
        let core = Arc::new(TaskCore {
            state: AtomicU8::new(SCHEDULED),
            task: parking_lot::Mutex::new(Some(task)),
            rt: Arc::downgrade(&self.inner),
            timer_armed: Mutex::new(None),
            done: DoneFlag::default(),
        });
        self.inner.tasks_live.fetch_add(1, Ordering::Relaxed);
        self.inner.enqueue(Arc::clone(&core));
        TaskHandle { core }
    }

    /// Number of tasks spawned and not yet complete.
    pub fn tasks_live(&self) -> u64 {
        self.inner.tasks_live.load(Ordering::Relaxed)
    }

    /// Current worker-thread count (base + injected − retired).
    pub fn workers_live(&self) -> usize {
        self.inner.workers_live.load(Ordering::Relaxed)
    }

    /// Base pool size this runtime was built with.
    pub fn base_workers(&self) -> usize {
        self.inner.base_workers
    }

    /// Total long polls detected by the watchdog.
    pub fn long_polls(&self) -> u64 {
        self.inner.stats.long_polls.load(Ordering::Relaxed)
    }

    /// Total task polls executed.
    pub fn polls(&self) -> u64 {
        self.inner.stats.polls.load(Ordering::Relaxed)
    }

    /// Publish the `runtime.*` gauge family into `registry` (surfaced by
    /// every daemon's `aceStats`).
    pub fn publish_into(&self, registry: &MetricsRegistry) {
        let s = &self.inner.stats;
        registry
            .gauge("runtime.tasksLive")
            .set(self.inner.tasks_live.load(Ordering::Relaxed) as i64);
        registry
            .gauge("runtime.readyQueue")
            .set(self.inner.ready_rx.len() as i64);
        registry
            .gauge("runtime.workers")
            .set(self.inner.workers_live.load(Ordering::Relaxed) as i64);
        registry
            .gauge("runtime.polls")
            .set(s.polls.load(Ordering::Relaxed) as i64);
        registry
            .gauge("runtime.timerFires")
            .set(s.timer_fires.load(Ordering::Relaxed) as i64);
        registry
            .gauge("runtime.workerParks")
            .set(s.worker_parks.load(Ordering::Relaxed) as i64);
        registry
            .gauge("runtime.longPolls")
            .set(s.long_polls.load(Ordering::Relaxed) as i64);
        registry
            .gauge("runtime.workersInjected")
            .set(s.workers_injected.load(Ordering::Relaxed) as i64);
    }
}

impl Drop for RuntimeInner {
    fn drop(&mut self) {
        // Only reached when every worker/timer/watchdog Arc is gone, i.e.
        // after shutdown; nothing to do, but keep the hook explicit.
    }
}

impl Runtime {
    /// Stop workers and service threads (test-local runtimes only; the
    /// global runtime lives for the process).  Parked tasks are abandoned.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.inner.timer_cv.notify_all();
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Runtime(workers: {}, tasks: {})",
            self.workers_live(),
            self.tasks_live()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountTo {
        n: u32,
        target: u32,
    }

    impl RuntimeTask for CountTo {
        fn poll(&mut self, _cx: &mut TaskContext<'_>) -> TaskPoll {
            self.n += 1;
            if self.n >= self.target {
                TaskPoll::Complete
            } else {
                TaskPoll::Again
            }
        }
    }

    #[test]
    fn again_reschedules_until_complete() {
        let rt = Runtime::new(2);
        let h = rt.spawn(Box::new(CountTo { n: 0, target: 5 }));
        assert!(h.wait(Duration::from_secs(5)));
        assert_eq!(rt.tasks_live(), 0);
        assert!(rt.polls() >= 5);
        rt.shutdown();
    }

    struct TimerTask {
        fired: Arc<AtomicBool>,
        clock: Clock,
        at: Instant,
        armed: bool,
    }

    impl RuntimeTask for TimerTask {
        fn poll(&mut self, cx: &mut TaskContext<'_>) -> TaskPoll {
            if !self.armed {
                self.armed = true;
                cx.set_timer(self.at);
                return TaskPoll::Pending;
            }
            if self.clock.now() >= self.at {
                self.fired.store(true, Ordering::SeqCst);
                TaskPoll::Complete
            } else {
                cx.set_timer(self.at);
                TaskPoll::Pending
            }
        }
    }

    #[test]
    fn timer_wakes_parked_task() {
        let rt = Runtime::new(1);
        let fired = Arc::new(AtomicBool::new(false));
        let clock = Clock::real();
        let h = rt.spawn(Box::new(TimerTask {
            fired: Arc::clone(&fired),
            at: clock.now() + Duration::from_millis(30),
            clock,
            armed: false,
        }));
        assert!(h.wait(Duration::from_secs(5)));
        assert!(fired.load(Ordering::SeqCst));
        rt.shutdown();
    }

    struct ParkUntilWoken {
        polls: Arc<AtomicU64>,
    }

    impl RuntimeTask for ParkUntilWoken {
        fn poll(&mut self, _cx: &mut TaskContext<'_>) -> TaskPoll {
            if self.polls.fetch_add(1, Ordering::SeqCst) == 0 {
                TaskPoll::Pending
            } else {
                TaskPoll::Complete
            }
        }
    }

    #[test]
    fn external_wake_unparks() {
        let rt = Runtime::new(1);
        let polls = Arc::new(AtomicU64::new(0));
        let h = rt.spawn(Box::new(ParkUntilWoken {
            polls: Arc::clone(&polls),
        }));
        // Let the first poll park it, then kick it.
        let clock = Clock::real();
        let deadline = clock.now() + Duration::from_secs(5);
        while polls.load(Ordering::SeqCst) == 0 && clock.now() < deadline {
            clock.sleep(Duration::from_millis(1));
        }
        h.wake();
        assert!(h.wait(Duration::from_secs(5)));
        assert_eq!(polls.load(Ordering::SeqCst), 2);
        rt.shutdown();
    }

    struct Staller;

    impl RuntimeTask for Staller {
        fn poll(&mut self, _cx: &mut TaskContext<'_>) -> TaskPoll {
            Clock::real().sleep(LONG_POLL * 4);
            TaskPoll::Complete
        }
    }

    #[test]
    fn watchdog_counts_long_polls_and_injects() {
        let rt = Runtime::new(1);
        // One staller wedges the single worker; a second task must still
        // complete via an injected worker.
        let _s = rt.spawn(Box::new(Staller));
        let h = rt.spawn(Box::new(CountTo { n: 0, target: 1 }));
        assert!(h.wait(Duration::from_secs(10)));
        assert!(rt.long_polls() > 0, "long poll not detected");
        rt.shutdown();
    }

    #[test]
    fn publish_into_exposes_gauges() {
        let rt = Runtime::new(1);
        let h = rt.spawn(Box::new(CountTo { n: 0, target: 3 }));
        assert!(h.wait(Duration::from_secs(5)));
        let reg = MetricsRegistry::new();
        rt.publish_into(&reg);
        let snap = reg.snapshot();
        assert!(snap.gauges.contains_key("runtime.polls"));
        assert!(snap.gauges.contains_key("runtime.tasksLive"));
        assert!(snap.gauges.contains_key("runtime.readyQueue"));
        assert!(snap.gauges.contains_key("runtime.timerFires"));
        assert!(snap.gauges.contains_key("runtime.workerParks"));
        assert!(snap.gauges["runtime.polls"] >= 3);
        rt.shutdown();
    }
}
