//! Per-target circuit breakers for ACE clients.
//!
//! A client hammering a melting daemon makes the melt worse: every retry
//! is another admission attempt, every reconnect another handshake.  A
//! breaker watches each target's recent outcomes and, once failures (link
//! errors and `E_BUSY` sheds) cross a threshold inside a rolling window,
//! **opens**: calls fail fast locally without touching the network.  After
//! a cool-down the breaker goes **half-open** and lets a bounded number of
//! probe calls through; one success closes it, one failure re-opens it.
//!
//! The state machine:
//!
//! ```text
//!           failures ≥ threshold in window
//! Closed ─────────────────────────────────▶ Open
//!   ▲                                        │ cool-down elapsed
//!   │ probe succeeds                         ▼
//!   └──────────────────────────────────── HalfOpen ──▶ Open (probe fails)
//! ```

use crate::metrics::{Counter, MetricsRegistry};
use ace_net::Addr;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning of one [`BreakerRegistry`].
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Rolling window over which failures are counted.
    pub window: Duration,
    /// Failures inside the window that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker rejects before going half-open.
    pub open_for: Duration,
    /// Concurrent probes allowed while half-open.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            window: Duration::from_secs(2),
            failure_threshold: 5,
            open_for: Duration::from_millis(250),
            half_open_probes: 1,
        }
    }
}

/// What [`BreakerRegistry::check`] decided about a prospective call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerVerdict {
    /// Call away (breaker closed, or a half-open probe slot was granted).
    Admit,
    /// The breaker is open: fail fast without touching the network.
    Rejected,
}

#[derive(Debug)]
enum State {
    Closed {
        /// Failure timestamps inside the rolling window (bounded by the
        /// threshold: older entries are evicted as they expire).
        failures: Vec<Instant>,
    },
    Open {
        until: Instant,
    },
    HalfOpen {
        probes_in_flight: u32,
    },
}

/// Per-target circuit breakers, shared by every client of one process.
pub struct BreakerRegistry {
    config: BreakerConfig,
    targets: Mutex<HashMap<Addr, State>>,
    opened: Option<Arc<Counter>>,
    rejected: Option<Arc<Counter>>,
}

impl BreakerRegistry {
    /// A registry with the given tuning and no metrics.
    pub fn new(config: BreakerConfig) -> BreakerRegistry {
        BreakerRegistry {
            config,
            targets: Mutex::new(HashMap::new()),
            opened: None,
            rejected: None,
        }
    }

    /// Count breaker transitions (`breaker.opened`) and fast-fail
    /// rejections (`breaker.rejected`) on `metrics`.
    pub fn with_metrics(mut self, metrics: &MetricsRegistry) -> BreakerRegistry {
        self.opened = Some(metrics.counter("breaker.opened"));
        self.rejected = Some(metrics.counter("breaker.rejected"));
        self
    }

    /// Should a call to `target` proceed?  Half-open probe slots are
    /// claimed here and released by `record_success`/`record_failure`, so
    /// every `Admit` must be followed by exactly one outcome report.
    pub fn check(&self, target: &Addr) -> BreakerVerdict {
        let mut targets = self.targets.lock();
        let Some(state) = targets.get_mut(target) else {
            return BreakerVerdict::Admit; // no history: closed
        };
        match state {
            State::Closed { .. } => BreakerVerdict::Admit,
            State::Open { until } => {
                if Instant::now() >= *until {
                    *state = State::HalfOpen {
                        probes_in_flight: 1,
                    };
                    BreakerVerdict::Admit
                } else {
                    if let Some(c) = &self.rejected {
                        c.incr();
                    }
                    BreakerVerdict::Rejected
                }
            }
            State::HalfOpen { probes_in_flight } => {
                if *probes_in_flight < self.config.half_open_probes {
                    *probes_in_flight += 1;
                    BreakerVerdict::Admit
                } else {
                    if let Some(c) = &self.rejected {
                        c.incr();
                    }
                    BreakerVerdict::Rejected
                }
            }
        }
    }

    /// Report a successful call to `target`.  A half-open breaker closes;
    /// a closed breaker forgets its failure history.
    pub fn record_success(&self, target: &Addr) {
        let mut targets = self.targets.lock();
        if let Some(state) = targets.get_mut(target) {
            *state = State::Closed {
                failures: Vec::new(),
            };
        }
    }

    /// Report a failed call (link error or `E_BUSY` shed).  Returns `true`
    /// when this failure *opened* the breaker — the caller should then
    /// let go of the target's links and cached resolutions, exactly as on
    /// `E_UPGRADING` (the call loop in [`crate::pool`] does).
    pub fn record_failure(&self, target: &Addr) -> bool {
        let now = Instant::now();
        let mut targets = self.targets.lock();
        let state = targets.entry(target.clone()).or_insert(State::Closed {
            failures: Vec::new(),
        });
        match state {
            State::Closed { failures } => {
                failures.retain(|t| now.duration_since(*t) < self.config.window);
                failures.push(now);
                if failures.len() as u32 >= self.config.failure_threshold {
                    *state = State::Open {
                        until: now + self.config.open_for,
                    };
                    if let Some(c) = &self.opened {
                        c.incr();
                    }
                    return true;
                }
                false
            }
            State::HalfOpen { .. } => {
                // The probe failed: straight back to open.
                *state = State::Open {
                    until: now + self.config.open_for,
                };
                if let Some(c) = &self.opened {
                    c.incr();
                }
                true
            }
            State::Open { .. } => false,
        }
    }

    /// Is the breaker for `target` currently open (rejecting)?
    pub fn is_open(&self, target: &Addr) -> bool {
        let targets = self.targets.lock();
        matches!(
            targets.get(target),
            Some(State::Open { until }) if Instant::now() < *until
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr() -> Addr {
        Addr::new("host-a", 1234)
    }

    fn registry(open_for: Duration) -> BreakerRegistry {
        BreakerRegistry::new(BreakerConfig {
            window: Duration::from_secs(10),
            failure_threshold: 3,
            open_for,
            half_open_probes: 1,
        })
    }

    #[test]
    fn opens_after_threshold_failures() {
        let b = registry(Duration::from_secs(60));
        assert_eq!(b.check(&addr()), BreakerVerdict::Admit);
        assert!(!b.record_failure(&addr()));
        assert!(!b.record_failure(&addr()));
        assert!(b.record_failure(&addr()), "third failure opens");
        assert_eq!(b.check(&addr()), BreakerVerdict::Rejected);
        assert!(b.is_open(&addr()));
    }

    #[test]
    fn success_resets_failure_history() {
        let b = registry(Duration::from_secs(60));
        b.record_failure(&addr());
        b.record_failure(&addr());
        b.record_success(&addr());
        assert!(!b.record_failure(&addr()));
        assert!(!b.record_failure(&addr()));
        assert_eq!(b.check(&addr()), BreakerVerdict::Admit);
    }

    #[test]
    fn half_open_admits_one_probe_then_closes_on_success() {
        let b = registry(Duration::from_millis(10));
        for _ in 0..3 {
            b.record_failure(&addr());
        }
        assert_eq!(b.check(&addr()), BreakerVerdict::Rejected);
        std::thread::sleep(Duration::from_millis(15));
        // Cool-down over: one probe is admitted, a second is rejected.
        assert_eq!(b.check(&addr()), BreakerVerdict::Admit);
        assert_eq!(b.check(&addr()), BreakerVerdict::Rejected);
        b.record_success(&addr());
        assert_eq!(b.check(&addr()), BreakerVerdict::Admit);
        assert!(!b.is_open(&addr()));
    }

    #[test]
    fn failed_probe_reopens() {
        let b = registry(Duration::from_millis(10));
        for _ in 0..3 {
            b.record_failure(&addr());
        }
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(b.check(&addr()), BreakerVerdict::Admit);
        assert!(b.record_failure(&addr()), "failed probe re-opens");
        assert_eq!(b.check(&addr()), BreakerVerdict::Rejected);
    }

    #[test]
    fn targets_are_independent() {
        let b = registry(Duration::from_secs(60));
        let other = Addr::new("host-b", 99);
        for _ in 0..3 {
            b.record_failure(&addr());
        }
        assert_eq!(b.check(&addr()), BreakerVerdict::Rejected);
        assert_eq!(b.check(&other), BreakerVerdict::Admit);
    }

    #[test]
    fn old_failures_age_out_of_window() {
        let b = BreakerRegistry::new(BreakerConfig {
            window: Duration::from_millis(20),
            failure_threshold: 3,
            open_for: Duration::from_secs(60),
            half_open_probes: 1,
        });
        b.record_failure(&addr());
        b.record_failure(&addr());
        std::thread::sleep(Duration::from_millis(25));
        // The first two fell out of the window: not enough to open.
        assert!(!b.record_failure(&addr()));
        assert_eq!(b.check(&addr()), BreakerVerdict::Admit);
    }
}
