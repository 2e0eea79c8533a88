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

    /// Should a call to `target` proceed at `now`?  Half-open probe slots
    /// are claimed here and released by `record_success`/`record_failure`,
    /// so every `Admit` must be followed by exactly one outcome report.
    pub fn check(&self, target: &Addr, now: Instant) -> BreakerVerdict {
        let mut targets = self.targets.lock();
        let Some(state) = targets.get_mut(target) else {
            return BreakerVerdict::Admit; // no history: closed
        };
        match state {
            State::Closed { .. } => BreakerVerdict::Admit,
            State::Open { until } => {
                if now >= *until {
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

    /// Report a call that failed at `now` (link error or `E_BUSY` shed).
    /// Returns `true` when this failure *opened* the breaker — the caller
    /// should then let go of the target's links and cached resolutions,
    /// exactly as on `E_UPGRADING` (the call loop in [`crate::pool`] does).
    pub fn record_failure(&self, target: &Addr, now: Instant) -> bool {
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

    /// Is the breaker for `target` open (rejecting) at `now`?
    pub fn is_open(&self, target: &Addr, now: Instant) -> bool {
        let targets = self.targets.lock();
        matches!(
            targets.get(target),
            Some(State::Open { until }) if now < *until
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_net::Clock;

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

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn opens_after_threshold_failures() {
        let b = registry(Duration::from_secs(60));
        let t = Clock::real().now();
        assert_eq!(b.check(&addr(), t), BreakerVerdict::Admit);
        assert!(!b.record_failure(&addr(), t));
        assert!(!b.record_failure(&addr(), t));
        assert!(b.record_failure(&addr(), t), "third failure opens");
        assert_eq!(b.check(&addr(), t), BreakerVerdict::Rejected);
        assert!(b.is_open(&addr(), t));
    }

    #[test]
    fn success_resets_failure_history() {
        let b = registry(Duration::from_secs(60));
        let t = Clock::real().now();
        b.record_failure(&addr(), t);
        b.record_failure(&addr(), t);
        b.record_success(&addr());
        assert!(!b.record_failure(&addr(), t));
        assert!(!b.record_failure(&addr(), t));
        assert_eq!(b.check(&addr(), t), BreakerVerdict::Admit);
    }

    #[test]
    fn half_open_admits_one_probe_then_closes_on_success() {
        let b = registry(ms(10));
        let t = Clock::real().now();
        for _ in 0..3 {
            b.record_failure(&addr(), t);
        }
        assert_eq!(b.check(&addr(), t), BreakerVerdict::Rejected);
        // Cool-down over: one probe is admitted, a second is rejected.
        let later = t + ms(15);
        assert_eq!(b.check(&addr(), later), BreakerVerdict::Admit);
        assert_eq!(b.check(&addr(), later), BreakerVerdict::Rejected);
        b.record_success(&addr());
        assert_eq!(b.check(&addr(), later), BreakerVerdict::Admit);
        assert!(!b.is_open(&addr(), later));
    }

    #[test]
    fn failed_probe_reopens() {
        let b = registry(ms(10));
        let t = Clock::real().now();
        for _ in 0..3 {
            b.record_failure(&addr(), t);
        }
        let later = t + ms(15);
        assert_eq!(b.check(&addr(), later), BreakerVerdict::Admit);
        assert!(b.record_failure(&addr(), later), "failed probe re-opens");
        assert_eq!(b.check(&addr(), later), BreakerVerdict::Rejected);
    }

    /// The cool-down ends at exactly `until`: one instant before it the
    /// breaker rejects, at it the probe goes.  (Fails if `check` compares
    /// `now > until`.)
    #[test]
    fn the_cool_down_ends_at_exactly_until() {
        let b = registry(ms(10));
        let t = Clock::real().now();
        for _ in 0..3 {
            b.record_failure(&addr(), t);
        }
        let until = t + ms(10);
        assert_eq!(
            b.check(&addr(), until - Duration::from_nanos(1)),
            BreakerVerdict::Rejected
        );
        assert!(b.is_open(&addr(), until - Duration::from_nanos(1)));
        assert!(!b.is_open(&addr(), until));
        assert_eq!(b.check(&addr(), until), BreakerVerdict::Admit);
    }

    #[test]
    fn targets_are_independent() {
        let b = registry(Duration::from_secs(60));
        let other = Addr::new("host-b", 99);
        let t = Clock::real().now();
        for _ in 0..3 {
            b.record_failure(&addr(), t);
        }
        assert_eq!(b.check(&addr(), t), BreakerVerdict::Rejected);
        assert_eq!(b.check(&other, t), BreakerVerdict::Admit);
    }

    fn windowed() -> BreakerRegistry {
        BreakerRegistry::new(BreakerConfig {
            window: ms(20),
            failure_threshold: 3,
            open_for: Duration::from_secs(60),
            half_open_probes: 1,
        })
    }

    #[test]
    fn old_failures_age_out_of_window() {
        let b = windowed();
        let t = Clock::real().now();
        b.record_failure(&addr(), t);
        b.record_failure(&addr(), t);
        // The first two fell out of the window: not enough to open.
        assert!(!b.record_failure(&addr(), t + ms(25)));
        assert_eq!(b.check(&addr(), t + ms(25)), BreakerVerdict::Admit);
    }

    /// A failure exactly `window` old has left the window; one a
    /// nanosecond younger still counts.  (Fails if the window's `retain`
    /// keeps `age <= window`.)
    #[test]
    fn a_failure_exactly_window_old_no_longer_counts() {
        let b = windowed();
        let t = Clock::real().now();
        b.record_failure(&addr(), t);
        b.record_failure(&addr(), t);
        assert!(!b.record_failure(&addr(), t + ms(20)), "two aged out");

        let b = windowed();
        b.record_failure(&addr(), t);
        b.record_failure(&addr(), t);
        let inside = t + ms(20) - Duration::from_nanos(1);
        assert!(b.record_failure(&addr(), inside), "three inside opens");
    }
}
