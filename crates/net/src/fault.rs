//! Deterministic fault injection: seeded chaos plans for [`SimNet`].
//!
//! The robustness experiments (E15, E19) need repeatable failure
//! scenarios: the same seed must produce the same crashes, partitions,
//! and loss windows every run, so a failing chaos run can be replayed.
//! A [`FaultPlan`] is that scenario — a time-ordered list of
//! [`FaultEvent`]s, either hand-built or generated pseudo-randomly from a
//! seed via [`FaultPlan::generate`].  Generation is a pure function of the
//! seed and the [`FaultPlanConfig`]; only the *execution* timing depends
//! on the wall clock.
//!
//! Every generated plan is self-healing: crashed hosts are revived,
//! partitions healed, and latency/loss restored to zero before the plan
//! ends, so the system under test can be asserted to re-converge.

use crate::addr::HostId;
use crate::net::SimNet;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// One thing a fault plan does to a host's simulated disk.  Storage faults
/// are *armed* on a per-host hub ([`StorageFaultHub`]) and consumed by the
/// host's storage backend at its next append, so the byte-level damage
/// lands exactly where a real power cut or media error would: inside a
/// write that the store has not yet acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The process dies mid-append: only the first `n` bytes of the next
    /// append reach the disk, and the backend is dead until reopened.
    CrashAtByte(u64),
    /// The next append is torn after `n` bytes and reports an I/O error,
    /// but the backend stays usable (a transient write failure).
    TornWrite(u64),
    /// Flip bit `i` (mod the log size in bits) of the already-persisted
    /// log — latent media corruption discovered only on recovery.
    BitFlip(u64),
}

impl std::fmt::Display for StorageFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageFault::CrashAtByte(n) => write!(f, "crash at byte {n} of next append"),
            StorageFault::TornWrite(n) => write!(f, "torn write after {n} bytes"),
            StorageFault::BitFlip(i) => write!(f, "bit flip at bit {i}"),
        }
    }
}

/// Per-host queue of armed storage faults.  Cloneable shared handle; the
/// [`SimNet`] owns one (see `SimNet::storage_faults`) so fault plans and
/// storage backends meet without the net crate knowing about the store.
#[derive(Debug, Clone, Default)]
pub struct StorageFaultHub {
    inner: Arc<Mutex<HashMap<HostId, VecDeque<StorageFault>>>>,
}

impl StorageFaultHub {
    pub fn new() -> StorageFaultHub {
        StorageFaultHub::default()
    }

    /// Arm a fault for `host`; its backend consumes it on the next append.
    pub fn arm(&self, host: &HostId, fault: StorageFault) {
        self.inner
            .lock()
            .entry(host.clone())
            .or_default()
            .push_back(fault);
    }

    /// Consume the oldest armed fault for `host`, if any.
    pub fn take(&self, host: &HostId) -> Option<StorageFault> {
        self.inner.lock().get_mut(host)?.pop_front()
    }

    /// Drop every armed fault for `host` (the incident is over).
    pub fn clear(&self, host: &HostId) {
        self.inner.lock().remove(host);
    }

    /// How many faults are currently armed for `host`.
    pub fn armed(&self, host: &HostId) -> usize {
        self.inner.lock().get(host).map_or(0, VecDeque::len)
    }
}

/// One thing a fault plan does to the network.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Kill a host (listeners and sockets die; connections sever).
    Crash(HostId),
    /// Bring a killed host back (services must re-bind to return).
    Revive(HostId),
    /// Sever the link between two hosts.
    Partition(HostId, HostId),
    /// Restore the link between two hosts.
    Heal(HostId, HostId),
    /// Remove every partition.
    HealAll,
    /// Set the per-frame wire latency.
    Latency(Duration),
    /// Set the datagram loss probability.
    DatagramLoss(f64),
    /// Arm a storage fault on a host's disk (see [`StorageFault`]).
    Storage(HostId, StorageFault),
}

/// A [`FaultKind`] scheduled at an offset from plan start.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    pub at: Duration,
    pub kind: FaultKind,
}

/// Shape of a generated chaos scenario.
#[derive(Debug, Clone)]
pub struct FaultPlanConfig {
    /// Total plan length; all recovery events land at or before this.
    pub duration: Duration,
    /// Hosts eligible for crash/revive windows.
    pub crashable: Vec<HostId>,
    /// Hosts among which partition windows are drawn.
    pub partitionable: Vec<HostId>,
    /// How many crash windows to attempt.
    pub crash_windows: usize,
    /// How many partition windows to attempt.
    pub partition_windows: usize,
    /// How many datagram-loss windows to attempt.
    pub loss_windows: usize,
    /// How many latency windows to attempt.
    pub latency_windows: usize,
    /// Most hosts allowed down at the same instant.
    pub max_concurrent_crashes: usize,
    /// Upper bound for generated loss probabilities.
    pub max_loss: f64,
    /// Upper bound for generated latency.
    pub max_latency: Duration,
    /// Hosts whose simulated disks are eligible for storage faults.  A
    /// crash window on one of these also arms a crash-at-byte fault, so the
    /// kill tears any in-flight log append.  Empty (the default) disables
    /// storage-fault generation entirely.
    pub storage_hosts: Vec<HostId>,
    /// How many standalone torn-write / bit-flip windows to attempt.
    pub storage_fault_windows: usize,
}

impl FaultPlanConfig {
    /// A scenario over `hosts` lasting `duration`, with one crash window
    /// per host (at most one host down at a time), one partition window,
    /// and one loss window — a gentle default the tests then tighten.
    pub fn new(duration: Duration, hosts: Vec<HostId>) -> FaultPlanConfig {
        let n = hosts.len();
        FaultPlanConfig {
            duration,
            crashable: hosts.clone(),
            partitionable: hosts,
            crash_windows: n,
            partition_windows: 1,
            loss_windows: 1,
            latency_windows: 1,
            max_concurrent_crashes: 1,
            max_loss: 0.3,
            max_latency: Duration::from_millis(2),
            storage_hosts: Vec::new(),
            storage_fault_windows: 0,
        }
    }
}

/// A deterministic, time-ordered fault scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    duration: Duration,
}

impl FaultPlan {
    /// An empty plan to fill via [`FaultPlan::at`].
    pub fn new(duration: Duration) -> FaultPlan {
        FaultPlan {
            events: Vec::new(),
            duration,
        }
    }

    /// Schedule one event (kept sorted by time, stable for equal times).
    pub fn at(mut self, at: Duration, kind: FaultKind) -> FaultPlan {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, FaultEvent { at, kind });
        self
    }

    /// Generate a scenario from `seed`.  Pure: the same seed and config
    /// always produce an identical schedule.
    pub fn generate(seed: u64, config: &FaultPlanConfig) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new(config.duration);
        let total = config.duration.as_millis() as u64;

        // Crash windows.  Tracked as (start, end) per host so one host is
        // never double-crashed, and global overlap stays within the
        // concurrency budget.
        let mut windows: Vec<(u64, u64, usize)> = Vec::new(); // (start, end, host idx)
        if !config.crashable.is_empty() && total >= 20 {
            for _ in 0..config.crash_windows {
                // A bounded number of placement attempts keeps generation
                // deterministic and total.
                for _attempt in 0..16 {
                    let host = rng.gen_range(0..config.crashable.len());
                    let len = rng.gen_range(total / 10..=total / 4);
                    let start = rng.gen_range(0..total.saturating_sub(len).max(1));
                    let end = start + len;
                    let same_host_overlap = windows
                        .iter()
                        .any(|&(s, e, h)| h == host && start < e && s < end);
                    let concurrent = windows
                        .iter()
                        .filter(|&&(s, e, _)| start < e && s < end)
                        .count();
                    if !same_host_overlap && concurrent < config.max_concurrent_crashes {
                        windows.push((start, end, host));
                        plan = plan
                            .at(
                                Duration::from_millis(start),
                                FaultKind::Crash(config.crashable[host].clone()),
                            )
                            .at(
                                Duration::from_millis(end),
                                FaultKind::Revive(config.crashable[host].clone()),
                            );
                        // A kill on a durable-store host tears whatever log
                        // append is in flight at the moment of the crash.
                        if config.storage_hosts.contains(&config.crashable[host]) {
                            let offset = rng.gen_range(0..64u64);
                            plan = plan.at(
                                Duration::from_millis(start),
                                FaultKind::Storage(
                                    config.crashable[host].clone(),
                                    StorageFault::CrashAtByte(offset),
                                ),
                            );
                        }
                        break;
                    }
                }
            }
        }

        // Partition windows between two distinct hosts.
        if config.partitionable.len() >= 2 && total >= 20 {
            for _ in 0..config.partition_windows {
                let a = rng.gen_range(0..config.partitionable.len());
                let mut b = rng.gen_range(0..config.partitionable.len() - 1);
                if b >= a {
                    b += 1;
                }
                let len = rng.gen_range(total / 10..=total / 4);
                let start = rng.gen_range(0..total.saturating_sub(len).max(1));
                plan = plan
                    .at(
                        Duration::from_millis(start),
                        FaultKind::Partition(
                            config.partitionable[a].clone(),
                            config.partitionable[b].clone(),
                        ),
                    )
                    .at(
                        Duration::from_millis(start + len),
                        FaultKind::Heal(
                            config.partitionable[a].clone(),
                            config.partitionable[b].clone(),
                        ),
                    );
            }
        }

        // Datagram-loss and latency windows (each ends with a reset).
        if total >= 20 {
            for _ in 0..config.loss_windows {
                let len = rng.gen_range(total / 10..=total / 4);
                let start = rng.gen_range(0..total.saturating_sub(len).max(1));
                let p = rng.gen_range(0.0..config.max_loss.max(f64::MIN_POSITIVE));
                plan = plan
                    .at(Duration::from_millis(start), FaultKind::DatagramLoss(p))
                    .at(
                        Duration::from_millis(start + len),
                        FaultKind::DatagramLoss(0.0),
                    );
            }
            for _ in 0..config.latency_windows {
                let len = rng.gen_range(total / 10..=total / 4);
                let start = rng.gen_range(0..total.saturating_sub(len).max(1));
                let lat_us = rng.gen_range(0..config.max_latency.as_micros().max(1) as u64);
                plan = plan
                    .at(
                        Duration::from_millis(start),
                        FaultKind::Latency(Duration::from_micros(lat_us)),
                    )
                    .at(
                        Duration::from_millis(start + len),
                        FaultKind::Latency(Duration::ZERO),
                    );
            }
        }

        // Standalone storage-fault windows: transient torn writes, plus at
        // most one latent bit flip per plan.  (Two bit flips could corrupt
        // two replicas holding the only copies of a quorum write; one keeps
        // the acked-writes-survive invariant checkable.)
        if !config.storage_hosts.is_empty() && total >= 20 {
            let mut flipped = false;
            for _ in 0..config.storage_fault_windows {
                let host =
                    config.storage_hosts[rng.gen_range(0..config.storage_hosts.len())].clone();
                let at = rng.gen_range(0..total);
                let fault = if !flipped && rng.gen_range(0..3u32) == 0 {
                    flipped = true;
                    StorageFault::BitFlip(rng.gen_range(0..1u64 << 16))
                } else {
                    StorageFault::TornWrite(rng.gen_range(0..32u64))
                };
                plan = plan.at(Duration::from_millis(at), FaultKind::Storage(host, fault));
            }
        }

        // Safety net: whatever happened above, the plan ends fully healed.
        plan = plan
            .at(config.duration, FaultKind::HealAll)
            .at(config.duration, FaultKind::Latency(Duration::ZERO))
            .at(config.duration, FaultKind::DatagramLoss(0.0));
        for host in &config.crashable {
            plan = plan.at(config.duration, FaultKind::Revive(host.clone()));
        }
        plan
    }

    /// The schedule, time-ordered.  Two plans from the same seed and
    /// config compare equal.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Total plan length.
    pub fn duration(&self) -> Duration {
        self.duration
    }

    /// Apply one event to the network right now.
    fn apply(net: &SimNet, kind: &FaultKind) {
        match kind {
            FaultKind::Crash(h) => net.kill_host(h),
            FaultKind::Revive(h) => {
                net.revive_host(h);
                // The incident is over: faults armed for the crash window
                // but never consumed must not ambush post-recovery writes.
                net.storage_faults().clear(h);
            }
            FaultKind::Partition(a, b) => net.partition(a, b),
            FaultKind::Heal(a, b) => net.heal(a, b),
            FaultKind::HealAll => net.heal_all(),
            FaultKind::Latency(latency) => {
                let mut config = net.config();
                config.latency = *latency;
                net.set_config(config);
            }
            FaultKind::DatagramLoss(p) => {
                let mut config = net.config();
                config.datagram_loss = *p;
                net.set_config(config);
            }
            FaultKind::Storage(h, fault) => net.storage_faults().arm(h, *fault),
        }
    }

    /// Run the plan on the calling thread: sleep to each event's offset,
    /// apply it, and return once the full duration has elapsed.
    pub fn run_blocking(&self, net: &SimNet) {
        let clock = net.clock();
        let start = clock.now();
        for event in &self.events {
            clock.sleep_until(start + event.at);
            Self::apply(net, &event.kind);
        }
        clock.sleep_until(start + self.duration);
    }

    /// Run the plan on a background thread; join through the returned
    /// handle.
    pub fn spawn(&self, net: &SimNet) -> FaultRunner {
        let plan = self.clone();
        let net = net.clone();
        let join = std::thread::Builder::new()
            .name("fault-plan".into())
            .spawn(move || plan.run_blocking(&net))
            .expect("spawn fault-plan thread");
        FaultRunner { join }
    }
}

/// Handle to a running background fault plan.
pub struct FaultRunner {
    join: std::thread::JoinHandle<()>,
}

impl FaultRunner {
    /// Block until the plan has fully executed (network healed).
    pub fn join(self) {
        let _ = self.join.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(names: &[&str]) -> Vec<HostId> {
        names.iter().map(|n| HostId::from(*n)).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let config = FaultPlanConfig::new(Duration::from_secs(2), hosts(&["a", "b", "c"]));
        for seed in [0u64, 1, 42, u64::MAX] {
            let x = FaultPlan::generate(seed, &config);
            let y = FaultPlan::generate(seed, &config);
            assert_eq!(x, y, "seed {seed} produced diverging schedules");
            assert!(!x.events().is_empty());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let config = FaultPlanConfig::new(Duration::from_secs(2), hosts(&["a", "b", "c"]));
        let x = FaultPlan::generate(1, &config);
        let y = FaultPlan::generate(2, &config);
        assert_ne!(x, y);
    }

    #[test]
    fn events_are_time_ordered_and_plan_self_heals() {
        let config = FaultPlanConfig::new(Duration::from_secs(2), hosts(&["a", "b", "c"]));
        let plan = FaultPlan::generate(7, &config);
        let events = plan.events();
        for pair in events.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        // Every crash has a revive at or after it.
        for (i, e) in events.iter().enumerate() {
            if let FaultKind::Crash(h) = &e.kind {
                assert!(
                    events[i..]
                        .iter()
                        .any(|later| later.kind == FaultKind::Revive(h.clone())),
                    "crash of {h} never revived"
                );
            }
        }
        // The final state of the plan is fully healed.
        assert!(events
            .iter()
            .rev()
            .take_while(|e| e.at == plan.duration())
            .any(|e| e.kind == FaultKind::HealAll));
    }

    #[test]
    fn crash_concurrency_budget_holds() {
        let names = hosts(&["a", "b", "c", "d"]);
        let mut config = FaultPlanConfig::new(Duration::from_secs(4), names);
        config.crash_windows = 8;
        config.max_concurrent_crashes = 2;
        for seed in 0..20u64 {
            let plan = FaultPlan::generate(seed, &config);
            let mut down = 0usize;
            let mut max_down = 0usize;
            for e in plan.events() {
                match &e.kind {
                    FaultKind::Crash(_) => {
                        down += 1;
                        max_down = max_down.max(down);
                    }
                    FaultKind::Revive(_) if e.at < plan.duration() => {
                        down = down.saturating_sub(1);
                    }
                    _ => {}
                }
            }
            assert!(max_down <= 2, "seed {seed}: {max_down} hosts down at once");
        }
    }

    #[test]
    fn storage_faults_generate_deterministically_and_arm_on_apply() {
        let mut config = FaultPlanConfig::new(Duration::from_secs(2), hosts(&["a", "b", "c"]));
        config.storage_hosts = hosts(&["a", "b"]);
        config.storage_fault_windows = 4;
        let plan = FaultPlan::generate(11, &config);
        assert_eq!(plan, FaultPlan::generate(11, &config));
        let storage_events: Vec<_> = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Storage(..)))
            .collect();
        assert!(!storage_events.is_empty(), "no storage faults generated");
        // At most one bit flip per plan, and only on storage hosts.
        let flips = storage_events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Storage(_, StorageFault::BitFlip(_))))
            .count();
        assert!(flips <= 1, "{flips} bit flips in one plan");
        for e in &storage_events {
            let FaultKind::Storage(h, _) = &e.kind else {
                unreachable!()
            };
            assert!(config.storage_hosts.contains(h));
        }
    }

    #[test]
    fn revive_clears_armed_storage_faults() {
        let net = SimNet::new();
        let a = net.add_host("a");
        net.storage_faults().arm(&a, StorageFault::CrashAtByte(3));
        assert_eq!(net.storage_faults().armed(&a), 1);
        FaultPlan::apply(&net, &FaultKind::Revive(a.clone()));
        assert_eq!(net.storage_faults().armed(&a), 0);
    }

    #[test]
    fn hub_is_a_fifo_per_host() {
        let hub = StorageFaultHub::new();
        let h = HostId::from("x");
        hub.arm(&h, StorageFault::TornWrite(1));
        hub.arm(&h, StorageFault::BitFlip(2));
        assert_eq!(hub.take(&h), Some(StorageFault::TornWrite(1)));
        assert_eq!(hub.take(&h), Some(StorageFault::BitFlip(2)));
        assert_eq!(hub.take(&h), None);
    }

    #[test]
    fn manual_plan_applies_to_net() {
        let net = SimNet::new();
        let a = net.add_host("a");
        let b = net.add_host("b");
        let plan = FaultPlan::new(Duration::from_millis(30))
            .at(Duration::ZERO, FaultKind::Crash(a.clone()))
            .at(Duration::from_millis(10), FaultKind::Revive(a.clone()))
            .at(
                Duration::from_millis(10),
                FaultKind::Partition(a.clone(), b.clone()),
            )
            .at(Duration::from_millis(20), FaultKind::HealAll)
            .at(Duration::from_millis(20), FaultKind::DatagramLoss(0.5));
        let runner = plan.spawn(&net);
        net.clock().sleep(Duration::from_millis(5));
        assert!(!net.is_up(&a), "crash not applied");
        runner.join();
        assert!(net.is_up(&a));
        assert!(net.reachable(&a, &b));
        assert!((net.config().datagram_loss - 0.5).abs() < 1e-12);
    }
}
