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
use std::sync::Arc;
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

/// One daemon's admission queue: two bounded lanes, owned by the daemon
/// task.  Intake offers and dispatch pops on the same task, so nothing here
/// is shared or synchronised — the counters and the depth gauge, atomics in
/// the daemon's registry, are the only part another thread ever sees.
pub struct AdmissionQueue<T> {
    priority: VecDeque<T>,
    bulk: VecDeque<T>,
    priority_capacity: usize,
    bulk_capacity: usize,
    /// EWMA of recent bulk queue waits, µs: written at dequeue, read at
    /// admission for the CoDel-style test.
    wait_ewma_us: u64,
    target_us: Option<u64>,
    enforce_deadlines: bool,
    admit_priority: Arc<Counter>,
    admit_bulk: Arc<Counter>,
    shed_priority_full: Arc<Counter>,
    shed_bulk_full: Arc<Counter>,
    shed_queue_wait: Arc<Counter>,
    depth: Arc<Gauge>,
}

impl<T> AdmissionQueue<T> {
    /// An empty queue sized by `config`, counting into `metrics`.
    pub fn new(config: &AdmissionConfig, metrics: &MetricsRegistry) -> AdmissionQueue<T> {
        AdmissionQueue {
            priority: VecDeque::new(),
            bulk: VecDeque::new(),
            priority_capacity: config.priority_capacity.max(1),
            bulk_capacity: config.bulk_capacity.max(1),
            wait_ewma_us: 0,
            target_us: config.queue_target.map(|t| t.as_micros() as u64),
            enforce_deadlines: config.enforce_deadlines,
            admit_priority: metrics.counter("admit.priority"),
            admit_bulk: metrics.counter("admit.bulk"),
            shed_priority_full: metrics.counter("shed.priorityFull"),
            shed_bulk_full: metrics.counter("shed.bulkFull"),
            shed_queue_wait: metrics.counter("shed.queueWait"),
            depth: metrics.gauge("control.queueDepth"),
        }
    }

    /// Offer a message to `lane`.  A full lane (or a bulk queue whose recent
    /// wait exceeds the target) refuses newest-first and hands the message
    /// back: shed, retryable.
    pub fn offer(&mut self, lane: Lane, msg: T) -> Result<(), T> {
        match lane {
            Lane::Priority => {
                if self.priority.len() >= self.priority_capacity {
                    self.shed_priority_full.incr();
                    return Err(msg);
                }
                self.priority.push_back(msg);
                self.admit_priority.incr();
            }
            Lane::Bulk => {
                if self.bulk.len() >= self.bulk_capacity {
                    self.shed_bulk_full.incr();
                    return Err(msg);
                }
                // CoDel-style: only shed on wait when a standing queue
                // exists — an idle daemon with a stale EWMA admits freely.
                if !self.bulk.is_empty() && self.target_us.is_some_and(|t| self.wait_ewma_us > t) {
                    self.shed_queue_wait.incr();
                    return Err(msg);
                }
                self.bulk.push_back(msg);
                self.admit_bulk.incr();
            }
        }
        self.depth.set(self.len() as i64);
        Ok(())
    }

    /// Dequeue, priority lane first.
    pub fn pop(&mut self) -> Option<T> {
        let msg = self.priority.pop_front().or_else(|| self.bulk.pop_front());
        if msg.is_some() {
            self.depth.set(self.len() as i64);
        }
        msg
    }

    /// Record one dequeued message's queue wait, feeding the CoDel EWMA.
    pub fn note_wait(&mut self, wait: Duration) {
        let sample = wait.as_micros() as u64;
        // Asymmetric: a wait above the estimate raises it *immediately* —
        // the admission gate must slam shut as soon as one message reports
        // a standing queue, or a burst admitted during the EWMA's ramp-up
        // grows the queue far past the target.  Decay (3/4 history) stays
        // smooth so the gate does not flap open on one fast verb.
        self.wait_ewma_us = sample.max((self.wait_ewma_us * 3 + sample) / 4);
    }

    /// Messages currently queued across both lanes.
    pub(crate) fn len(&self) -> usize {
        self.priority.len() + self.bulk.len()
    }

    /// Is server-side deadline shedding enabled for this daemon?
    pub fn enforce_deadlines(&self) -> bool {
        self.enforce_deadlines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(config: AdmissionConfig) -> (AdmissionQueue<u32>, MetricsRegistry) {
        let metrics = MetricsRegistry::new();
        (AdmissionQueue::new(&config, &metrics), metrics)
    }

    #[test]
    fn priority_dequeues_before_bulk() {
        let (mut q, _) = queue(AdmissionConfig::default());
        q.offer(Lane::Bulk, 1).unwrap();
        q.offer(Lane::Bulk, 2).unwrap();
        q.offer(Lane::Priority, 3).unwrap();
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn full_bulk_lane_sheds_newest_first() {
        let (mut q, metrics) = queue(AdmissionConfig {
            bulk_capacity: 2,
            ..AdmissionConfig::default()
        });
        q.offer(Lane::Bulk, 1).unwrap();
        q.offer(Lane::Bulk, 2).unwrap();
        assert_eq!(
            q.offer(Lane::Bulk, 3),
            Err(3),
            "the refused message comes back"
        );
        assert_eq!(metrics.counter("shed.bulkFull").get(), 1);
        assert_eq!(metrics.counter("admit.bulk").get(), 2);
        // The earlier arrivals are still served in order.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn full_bulk_lane_never_blocks_priority() {
        let (mut q, metrics) = queue(AdmissionConfig {
            bulk_capacity: 1,
            priority_capacity: 1,
            ..AdmissionConfig::default()
        });
        q.offer(Lane::Bulk, 1).unwrap();
        assert_eq!(q.offer(Lane::Bulk, 2), Err(2));
        q.offer(Lane::Priority, 9).unwrap();
        assert_eq!(q.offer(Lane::Priority, 10), Err(10));
        assert_eq!(metrics.counter("shed.priorityFull").get(), 1);
        assert_eq!(q.pop(), Some(9));
    }

    #[test]
    fn wait_over_target_sheds_standing_queue_only() {
        let (mut q, metrics) = queue(AdmissionConfig {
            queue_target: Some(Duration::from_millis(5)),
            ..AdmissionConfig::default()
        });
        // Simulate dispatch observing long waits.
        for _ in 0..8 {
            q.note_wait(Duration::from_millis(100));
        }
        // With a standing queue, new bulk arrivals shed...
        q.offer(Lane::Bulk, 1).unwrap();
        assert_eq!(q.offer(Lane::Bulk, 2), Err(2));
        assert_eq!(metrics.counter("shed.queueWait").get(), 1);
        // ...but priority still flows.
        q.offer(Lane::Priority, 3).unwrap();
        // Draining the queue exits the shed state.
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(1));
        q.offer(Lane::Bulk, 4).unwrap();
        assert_eq!(q.pop(), Some(4));
        // One wait above the estimate raises it at once; it decays by a
        // quarter of the difference per sample.
        q.note_wait(Duration::ZERO);
        q.offer(Lane::Bulk, 5).unwrap();
        assert_eq!(q.offer(Lane::Bulk, 6), Err(6), "75 ms is still over 5 ms");
    }

    #[test]
    fn uncontrolled_config_never_sheds() {
        let (mut q, _) = queue(AdmissionConfig::uncontrolled());
        for _ in 0..8 {
            q.note_wait(Duration::from_secs(1));
        }
        for i in 0..10_000 {
            q.offer(Lane::Bulk, i).unwrap();
        }
        assert_eq!(q.len(), 10_000);
        assert!(!q.enforce_deadlines());
    }

    #[test]
    fn depth_tracks_both_lanes() {
        let (mut q, metrics) = queue(AdmissionConfig::default());
        let gauge = metrics.gauge("control.queueDepth");
        q.offer(Lane::Bulk, 1).unwrap();
        q.offer(Lane::Priority, 2).unwrap();
        assert_eq!((q.len(), gauge.get()), (2, 2));
        let _ = q.pop();
        assert_eq!((q.len(), gauge.get()), (1, 1));
        let _ = q.pop();
        assert_eq!((q.len(), gauge.get()), (0, 0));
    }
}
