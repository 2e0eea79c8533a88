//! Bounded two-lane admission control for the daemon command plane.
//!
//! The paper's daemon buffered every incoming verb on an unbounded queue —
//! under a login storm that is congestion *collapse*, not degradation: the
//! queue grows without limit and the daemon spends its time executing
//! commands whose clients gave up long ago.  [`AdmissionQueue`] replaces it
//! with two bounded lanes:
//!
//! * a **priority lane** for the verbs that keep the building alive —
//!   liveness probes, lease renewals, registrations, upgrades, shutdown —
//!   sized so control traffic still flows when bulk traffic is drowning;
//! * a **bulk lane** for everything else, shed **newest-first** with a
//!   retryable `E_BUSY` when it fills *or* when the recent queue wait sits
//!   above a CoDel-style target — a standing queue longer than the target
//!   means the daemon is already past capacity, so admitting more work only
//!   grows latency without growing goodput.
//!
//! Every admission and shed is counted (`admit.*` / `shed.*`), and the
//! `control.queueDepth` gauge is sampled on *both* enqueue and dequeue so a
//! stalled handler can no longer hide a deep queue behind a stale gauge.

use crate::metrics::{Counter, Gauge, MetricsRegistry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default priority-lane capacity: control traffic is small and cheap, so
/// a short lane is plenty — it exists to be *separate*, not deep.
pub const DEFAULT_PRIORITY_CAPACITY: usize = 64;
/// Default bulk-lane capacity.
pub const DEFAULT_BULK_CAPACITY: usize = 256;
/// Default CoDel-style queue-wait target.  Deliberately a small multiple of
/// a typical verb's service time: a standing queue above this adds latency
/// that eats straight into callers' deadline budgets without adding goodput.
pub const DEFAULT_QUEUE_TARGET: Duration = Duration::from_millis(25);

/// Sizing and policy of one daemon's admission queue.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Capacity of the priority lane.
    pub priority_capacity: usize,
    /// Capacity of the bulk lane.
    pub bulk_capacity: usize,
    /// CoDel-style target: while a standing bulk queue's recent wait
    /// exceeds this, new bulk arrivals are shed even though slots remain.
    /// `None` disables wait-based shedding (lanes still bound depth).
    pub queue_target: Option<Duration>,
    /// Shed queued commands whose `deadline=` budget lapsed before
    /// execution (`E_DEADLINE`).  Disabled only by the uncontrolled
    /// baseline used for overload experiments.
    pub enforce_deadlines: bool,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            priority_capacity: DEFAULT_PRIORITY_CAPACITY,
            bulk_capacity: DEFAULT_BULK_CAPACITY,
            queue_target: Some(DEFAULT_QUEUE_TARGET),
            enforce_deadlines: true,
        }
    }
}

impl AdmissionConfig {
    /// The pre-overload-control behavior, kept for baseline experiments:
    /// effectively unbounded lanes, no wait target, no deadline shedding.
    pub fn uncontrolled() -> AdmissionConfig {
        AdmissionConfig {
            priority_capacity: 1 << 20,
            bulk_capacity: 1 << 20,
            queue_target: None,
            enforce_deadlines: false,
        }
    }
}

/// Which lane a message is admitted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    Priority,
    Bulk,
}

/// Why an offer was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// Lane full or queue wait over target: shed newest-first, retryable.
    Busy,
    /// The receiver is gone (daemon stopping).
    Closed,
}

struct LaneState<T> {
    queue: VecDeque<T>,
    capacity: usize,
}

struct QueueState<T> {
    priority: LaneState<T>,
    bulk: LaneState<T>,
    closed: bool,
}

struct Shared<T> {
    state: Mutex<QueueState<T>>,
    /// The consumer's waker: the daemon task polls `try_recv` and parks
    /// between admissions.
    wake: ace_net::WakeCell,
    /// EWMA of recent bulk queue waits, µs.  Written by the consumer,
    /// read at admission for the CoDel-style test.
    wait_ewma_us: AtomicU64,
    target_us: Option<u64>,
    enforce_deadlines: bool,
    admit_priority: Arc<Counter>,
    admit_bulk: Arc<Counter>,
    shed_priority_full: Arc<Counter>,
    shed_bulk_full: Arc<Counter>,
    shed_queue_wait: Arc<Counter>,
    depth: Arc<Gauge>,
}

impl<T> Shared<T> {
    fn set_depth(&self, state: &QueueState<T>) {
        self.depth
            .set((state.priority.queue.len() + state.bulk.queue.len()) as i64);
    }
}

/// Create one daemon's admission queue: a cloneable producer handle for
/// the intake stages (and the handle's `Stop`) and the single consumer for
/// the control role.
pub fn admission_queue<T>(
    config: &AdmissionConfig,
    metrics: &MetricsRegistry,
) -> (AdmissionQueue<T>, AdmissionReceiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(QueueState {
            priority: LaneState {
                queue: VecDeque::new(),
                capacity: config.priority_capacity.max(1),
            },
            bulk: LaneState {
                queue: VecDeque::new(),
                capacity: config.bulk_capacity.max(1),
            },
            closed: false,
        }),
        wake: ace_net::WakeCell::new(),
        wait_ewma_us: AtomicU64::new(0),
        target_us: config.queue_target.map(|t| t.as_micros() as u64),
        enforce_deadlines: config.enforce_deadlines,
        admit_priority: metrics.counter("admit.priority"),
        admit_bulk: metrics.counter("admit.bulk"),
        shed_priority_full: metrics.counter("shed.priorityFull"),
        shed_bulk_full: metrics.counter("shed.bulkFull"),
        shed_queue_wait: metrics.counter("shed.queueWait"),
        depth: metrics.gauge("control.queueDepth"),
    });
    (
        AdmissionQueue {
            shared: Arc::clone(&shared),
        },
        AdmissionReceiver { shared },
    )
}

/// Producer handle: bounded, shedding offers into either lane.
pub struct AdmissionQueue<T> {
    shared: Arc<Shared<T>>,
}

impl<T> AdmissionQueue<T> {
    /// Offer a message to `lane`.  Never blocks: a full lane (or a bulk
    /// queue whose recent wait exceeds the target) refuses newest-first.
    pub fn offer(&self, lane: Lane, msg: T) -> Result<(), AdmitError> {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return Err(AdmitError::Closed);
        }
        match lane {
            Lane::Priority => {
                if state.priority.queue.len() >= state.priority.capacity {
                    self.shared.shed_priority_full.incr();
                    return Err(AdmitError::Busy);
                }
                state.priority.queue.push_back(msg);
                self.shared.admit_priority.incr();
            }
            Lane::Bulk => {
                if state.bulk.queue.len() >= state.bulk.capacity {
                    self.shared.shed_bulk_full.incr();
                    return Err(AdmitError::Busy);
                }
                // CoDel-style: only shed on wait when a standing queue
                // exists — an idle daemon with a stale EWMA admits freely.
                if let Some(target) = self.shared.target_us {
                    if !state.bulk.queue.is_empty()
                        && self.shared.wait_ewma_us.load(Ordering::Relaxed) > target
                    {
                        self.shared.shed_queue_wait.incr();
                        return Err(AdmitError::Busy);
                    }
                }
                state.bulk.queue.push_back(msg);
                self.shared.admit_bulk.incr();
            }
        }
        self.shared.set_depth(&state);
        drop(state);
        self.shared.wake.wake();
        Ok(())
    }

    /// Enqueue unconditionally on the priority lane, ignoring capacity.
    /// Reserved for the daemon's own `Stop` message — shutdown must never
    /// be shed.
    pub fn force_priority(&self, msg: T) {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return;
        }
        state.priority.queue.push_front(msg);
        self.shared.set_depth(&state);
        drop(state);
        self.shared.wake.wake();
    }

    /// Is server-side deadline shedding enabled for this daemon?
    pub fn enforce_deadlines(&self) -> bool {
        self.shared.enforce_deadlines
    }

    /// Messages currently queued across both lanes.
    pub fn depth(&self) -> usize {
        let state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.priority.queue.len() + state.bulk.queue.len()
    }
}

impl<T> Clone for AdmissionQueue<T> {
    fn clone(&self) -> AdmissionQueue<T> {
        AdmissionQueue {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Consumer handle, owned by the control role.  Dropping it closes the
/// queue: subsequent offers fail with [`AdmitError::Closed`].
pub struct AdmissionReceiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> AdmissionReceiver<T> {
    fn pop(state: &mut QueueState<T>) -> Option<T> {
        state
            .priority
            .queue
            .pop_front()
            .or_else(|| state.bulk.queue.pop_front())
    }

    /// Register the waker notified on every admission.  Register before
    /// polling [`Self::try_recv`].
    pub fn register_waker(&self, waker: &std::task::Waker) {
        self.shared.wake.register(waker);
    }

    /// Non-blocking dequeue, priority lane first.
    pub fn try_recv(&self) -> Option<T> {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        let msg = Self::pop(&mut state);
        if msg.is_some() {
            self.shared.set_depth(&state);
        }
        msg
    }

    /// Record one dequeued message's queue wait, feeding the CoDel EWMA.
    pub fn note_wait(&self, wait: Duration) {
        let sample = wait.as_micros() as u64;
        let old = self.shared.wait_ewma_us.load(Ordering::Relaxed);
        // Asymmetric: a wait above the estimate raises it *immediately* —
        // the admission gate must slam shut as soon as one message reports
        // a standing queue, or a burst admitted during the EWMA's ramp-up
        // grows the queue far past the target.  Decay (3/4 history) stays
        // smooth so the gate does not flap open on one fast verb.
        let next = sample.max((old * 3 + sample) / 4);
        self.shared.wait_ewma_us.store(next, Ordering::Relaxed);
    }

    /// Messages currently queued across both lanes.
    pub fn depth(&self) -> usize {
        let state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.priority.queue.len() + state.bulk.queue.len()
    }

    /// Is server-side deadline shedding enabled for this daemon?
    pub fn enforce_deadlines(&self) -> bool {
        self.shared.enforce_deadlines
    }
}

impl<T> Drop for AdmissionReceiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        // Nobody will dequeue again: release what is still queued now
        // rather than when the last producer handle goes.
        state.priority.queue.clear();
        state.bulk.queue.clear();
        self.shared.set_depth(&state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(config: AdmissionConfig) -> (AdmissionQueue<u32>, AdmissionReceiver<u32>) {
        let metrics = MetricsRegistry::new();
        admission_queue(&config, &metrics)
    }

    #[test]
    fn priority_dequeues_before_bulk() {
        let (tx, rx) = queue(AdmissionConfig::default());
        tx.offer(Lane::Bulk, 1).unwrap();
        tx.offer(Lane::Bulk, 2).unwrap();
        tx.offer(Lane::Priority, 3).unwrap();
        assert_eq!(rx.try_recv(), Some(3));
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.try_recv(), Some(2));
    }

    #[test]
    fn full_bulk_lane_sheds_newest_first() {
        let (tx, rx) = queue(AdmissionConfig {
            bulk_capacity: 2,
            ..AdmissionConfig::default()
        });
        tx.offer(Lane::Bulk, 1).unwrap();
        tx.offer(Lane::Bulk, 2).unwrap();
        assert_eq!(tx.offer(Lane::Bulk, 3), Err(AdmitError::Busy));
        // The earlier arrivals are still served in order.
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.try_recv(), Some(2));
    }

    #[test]
    fn full_bulk_lane_never_blocks_priority() {
        let (tx, rx) = queue(AdmissionConfig {
            bulk_capacity: 1,
            ..AdmissionConfig::default()
        });
        tx.offer(Lane::Bulk, 1).unwrap();
        assert_eq!(tx.offer(Lane::Bulk, 2), Err(AdmitError::Busy));
        tx.offer(Lane::Priority, 9).unwrap();
        assert_eq!(rx.try_recv(), Some(9));
    }

    #[test]
    fn wait_over_target_sheds_standing_queue_only() {
        let (tx, rx) = queue(AdmissionConfig {
            queue_target: Some(Duration::from_millis(5)),
            ..AdmissionConfig::default()
        });
        // Simulate the control role observing long waits.
        for _ in 0..8 {
            rx.note_wait(Duration::from_millis(100));
        }
        // With a standing queue, new bulk arrivals shed...
        tx.offer(Lane::Bulk, 1).unwrap();
        assert_eq!(tx.offer(Lane::Bulk, 2), Err(AdmitError::Busy));
        // ...but priority still flows.
        tx.offer(Lane::Priority, 3).unwrap();
        // Draining the queue exits the shed state.
        assert_eq!(rx.try_recv(), Some(3));
        assert_eq!(rx.try_recv(), Some(1));
        tx.offer(Lane::Bulk, 4).unwrap();
        assert_eq!(rx.try_recv(), Some(4));
    }

    #[test]
    fn uncontrolled_config_never_sheds() {
        let (tx, rx) = queue(AdmissionConfig::uncontrolled());
        for _ in 0..8 {
            rx.note_wait(Duration::from_secs(1));
        }
        for i in 0..10_000 {
            tx.offer(Lane::Bulk, i).unwrap();
        }
        assert_eq!(rx.depth(), 10_000);
        assert!(!tx.enforce_deadlines());
    }

    #[test]
    fn closed_receiver_refuses_offers() {
        let (tx, rx) = queue(AdmissionConfig::default());
        drop(rx);
        assert_eq!(tx.offer(Lane::Bulk, 1), Err(AdmitError::Closed));
        assert_eq!(tx.offer(Lane::Priority, 1), Err(AdmitError::Closed));
    }

    #[test]
    fn messages_outlive_their_senders() {
        let (tx, rx) = queue(AdmissionConfig::default());
        let tx2 = tx.clone();
        drop(tx);
        tx2.offer(Lane::Bulk, 7).unwrap();
        drop(tx2);
        assert_eq!(rx.try_recv(), Some(7));
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn force_priority_ignores_capacity() {
        let (tx, rx) = queue(AdmissionConfig {
            priority_capacity: 1,
            ..AdmissionConfig::default()
        });
        tx.offer(Lane::Priority, 1).unwrap();
        assert_eq!(tx.offer(Lane::Priority, 2), Err(AdmitError::Busy));
        tx.force_priority(99);
        assert_eq!(rx.try_recv(), Some(99));
    }

    #[test]
    fn depth_tracks_both_lanes() {
        let (tx, rx) = queue(AdmissionConfig::default());
        tx.offer(Lane::Bulk, 1).unwrap();
        tx.offer(Lane::Priority, 2).unwrap();
        assert_eq!(tx.depth(), 2);
        let _ = rx.try_recv();
        assert_eq!(rx.depth(), 1);
    }
}
