//! Unified retry/backoff policy (§9 robustness).
//!
//! Every recovery path in the stack — failover clients hunting for a moved
//! service, store clients reconnecting to a replica, daemons renewing
//! leases or registering with the ASD — used to carry its own ad-hoc
//! fixed-interval sleep loop.  [`RetryPolicy`] replaces those with one
//! shared vocabulary: exponential backoff with a cap, *deterministic*
//! jitter (a pure function of the policy seed and the attempt number, so
//! simulation runs replay identically), an optional attempt limit, and an
//! optional wall-clock budget.  Every outbound call that waits for a reply
//! rides one loop over it, `LinkPool::call_with` ([`crate::pool`]).
//!
//! A policy is an immutable recipe; [`RetryPolicy::start`] stamps it with
//! a clock's current instant to produce a [`Retry`] schedule whose
//! [`Retry::backoff`] is called between attempts, and sleeps on that
//! clock:
//!
//! ```
//! use ace_core::retry::RetryPolicy;
//! use ace_net::SimNet;
//! use std::time::Duration;
//!
//! let net = SimNet::new();
//! let policy = RetryPolicy::new(Duration::from_millis(1))
//!     .with_budget(Duration::from_millis(20));
//! let mut retry = policy.start(net.clock());
//! let mut attempts = 1;
//! loop {
//!     // ... try the operation ...
//!     if !retry.backoff() {
//!         break; // budget exhausted
//!     }
//!     attempts += 1;
//! }
//! assert!(attempts > 1);
//! ```

use crate::metrics::Counter;
use ace_net::Clock;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A storm-prevention retry budget (token bucket), shared by every retry
/// loop of one client or daemon.
///
/// Backoff alone does not stop a synchronized fleet from amplifying an
/// overload: when a daemon sheds with `E_BUSY`, each caller that retries
/// multiplies the offered load.  A budget caps the *ratio* of retries to
/// fresh work: every logical request deposits a fraction of a token
/// ([`RetryBudget::note_call`]), every retry withdraws a whole one
/// ([`RetryBudget::try_withdraw`]), and when the bucket is empty the retry
/// is skipped — the failure surfaces immediately instead of adding fuel.
/// The bucket starts full (`max` tokens) so cold-start blips can still be
/// ridden out.
///
/// Token arithmetic is done in integer milli-tokens on one atomic, so the
/// budget can be shared across threads without locks.
#[derive(Debug)]
pub struct RetryBudget {
    /// Current balance in milli-tokens.
    mtokens: AtomicI64,
    /// Bucket capacity in milli-tokens.
    max_mtokens: i64,
    /// Deposit per logical request, in milli-tokens.
    deposit_mtokens: i64,
    /// Retries refused because the bucket was empty.
    denied: AtomicU64,
}

impl RetryBudget {
    /// A bucket holding at most `max` retry tokens, refilled by
    /// `deposit_per_call` tokens per logical request (clamped to `[0, 1]`).
    pub fn new(max: u32, deposit_per_call: f64) -> RetryBudget {
        let max_mtokens = i64::from(max) * 1000;
        RetryBudget {
            mtokens: AtomicI64::new(max_mtokens),
            max_mtokens,
            deposit_mtokens: (deposit_per_call.clamp(0.0, 1.0) * 1000.0) as i64,
            denied: AtomicU64::new(0),
        }
    }

    /// Record one logical (non-retry) request, depositing its fraction of
    /// a retry token.
    pub fn note_call(&self) {
        let prev = self
            .mtokens
            .fetch_add(self.deposit_mtokens, Ordering::Relaxed);
        if prev + self.deposit_mtokens > self.max_mtokens {
            self.mtokens.store(self.max_mtokens, Ordering::Relaxed);
        }
    }

    /// Try to pay for one retry.  Returns `false` — and counts the denial —
    /// when the bucket is empty, in which case the caller must *not* retry.
    pub fn try_withdraw(&self) -> bool {
        let mut cur = self.mtokens.load(Ordering::Relaxed);
        loop {
            if cur < 1000 {
                self.denied.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            match self.mtokens.compare_exchange_weak(
                cur,
                cur - 1000,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Whole tokens currently in the bucket.
    pub fn balance(&self) -> u32 {
        (self.mtokens.load(Ordering::Relaxed).max(0) / 1000) as u32
    }

    /// How many retries the budget has refused so far.
    pub fn denied(&self) -> u64 {
        self.denied.load(Ordering::Relaxed)
    }
}

/// An immutable retry recipe: exponential backoff, cap, deterministic
/// jitter, and optional attempt/wall-clock limits.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    initial: Duration,
    multiplier: f64,
    cap: Duration,
    /// Fraction of each delay randomized away, in `[0, 1]`.  Jitter only
    /// ever *shortens* a delay, so `cap` stays an upper bound.
    jitter: f64,
    max_attempts: Option<u32>,
    budget: Option<Duration>,
    retry_budget: Option<Arc<RetryBudget>>,
    seed: u64,
    counter: Option<Arc<Counter>>,
}

impl RetryPolicy {
    /// Exponential backoff starting at `initial`, doubling per attempt,
    /// capped at 1s, with 10% deterministic jitter and no attempt or
    /// wall-clock limit.
    pub fn new(initial: Duration) -> RetryPolicy {
        RetryPolicy {
            initial,
            multiplier: 2.0,
            cap: Duration::from_secs(1),
            jitter: 0.1,
            max_attempts: None,
            budget: None,
            retry_budget: None,
            seed: 0x9E37_79B9_7F4A_7C15,
            counter: None,
        }
    }

    /// A flat schedule: every delay exactly `interval`, no jitter.  This is
    /// the legacy behavior of the pre-policy retry loops.
    pub fn fixed(interval: Duration) -> RetryPolicy {
        RetryPolicy {
            initial: interval,
            multiplier: 1.0,
            cap: interval,
            jitter: 0.0,
            max_attempts: None,
            budget: None,
            retry_budget: None,
            seed: 0,
            counter: None,
        }
    }

    /// Upper bound on any single delay.
    pub fn with_cap(mut self, cap: Duration) -> RetryPolicy {
        self.cap = cap;
        self
    }

    /// Fraction of each delay randomized away (clamped to `[0, 1]`).
    pub fn with_jitter(mut self, jitter: f64) -> RetryPolicy {
        self.jitter = jitter.clamp(0.0, 1.0);
        self
    }

    /// Give up after this many *retries* (calls to [`Retry::backoff`]).
    pub fn with_max_attempts(mut self, attempts: u32) -> RetryPolicy {
        self.max_attempts = Some(attempts);
        self
    }

    /// Give up once this much wall-clock time has elapsed since
    /// [`RetryPolicy::start`].
    pub fn with_budget(mut self, budget: Duration) -> RetryPolicy {
        self.budget = Some(budget);
        self
    }

    /// Charge every backoff against a shared storm-prevention
    /// [`RetryBudget`]: when the bucket is empty, [`Retry::backoff`] gives
    /// up immediately instead of amplifying an overload.  Each
    /// [`RetryPolicy::start`] is one logical request and deposits its share
    /// ([`RetryBudget::note_call`]).
    pub fn with_retry_budget(mut self, budget: Arc<RetryBudget>) -> RetryPolicy {
        self.retry_budget = Some(budget);
        self
    }

    /// Seed for the jitter stream.  Two schedules with the same policy and
    /// seed produce identical delays — simulation runs replay exactly.
    pub fn with_seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }

    /// Count every backoff actually taken on `counter` (typically the
    /// owning daemon's `retry.backoffs` metric).
    pub fn with_counter(mut self, counter: Arc<Counter>) -> RetryPolicy {
        self.counter = Some(counter);
        self
    }

    /// The delay before retry number `attempt` (0-based), as a pure
    /// function of the policy — no clock, no shared RNG.
    pub fn delay_for(&self, attempt: u32) -> Duration {
        let base = self.initial.as_secs_f64() * self.multiplier.powi(attempt as i32);
        let capped = base.min(self.cap.as_secs_f64());
        let scaled = if self.jitter > 0.0 {
            // splitmix64 of (seed, attempt) → fraction in [0, 1); jitter
            // shortens the delay by up to `jitter * capped`.
            let mut z = self
                .seed
                .wrapping_add((attempt as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let frac = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            capped * (1.0 - self.jitter * frac)
        } else {
            capped
        };
        Duration::from_secs_f64(scaled.max(0.0))
    }

    /// Stamp the policy with `clock`'s current instant, producing a live
    /// schedule that waits on `clock`, and deposit one request's share in
    /// the retry budget.
    pub fn start(&self, clock: &Clock) -> Retry {
        if let Some(budget) = &self.retry_budget {
            budget.note_call();
        }
        Retry {
            policy: self.clone(),
            attempt: 0,
            deadline: self.budget.map(|b| clock.now() + b),
            clock: clock.clone(),
        }
    }
}

/// A live retry schedule produced by [`RetryPolicy::start`].
#[derive(Debug)]
pub struct Retry {
    policy: RetryPolicy,
    attempt: u32,
    deadline: Option<Instant>,
    clock: Clock,
}

impl Retry {
    /// Time left in the wall-clock budget, if one was set.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(self.clock.now()))
    }

    /// Whether the schedule still permits another attempt *right now*.
    pub fn exhausted(&self) -> bool {
        if let Some(max) = self.policy.max_attempts {
            if self.attempt >= max {
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if self.clock.now() >= deadline {
                return true;
            }
        }
        false
    }

    /// Sleep before the next attempt.  Returns `false` — without sleeping —
    /// once the attempt limit or wall-clock budget is exhausted; sleeps are
    /// clamped so the schedule never overshoots its deadline.
    pub fn backoff(&mut self) -> bool {
        if self.exhausted() {
            return false;
        }
        if let Some(budget) = &self.policy.retry_budget {
            if !budget.try_withdraw() {
                return false;
            }
        }
        let mut delay = self.policy.delay_for(self.attempt);
        if let Some(deadline) = self.deadline {
            delay = delay.min(deadline.saturating_duration_since(self.clock.now()));
        }
        self.attempt += 1;
        if let Some(counter) = &self.policy.counter {
            counter.incr();
        }
        if !delay.is_zero() {
            self.clock.sleep(delay);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_exponentially_up_to_cap() {
        let p = RetryPolicy::new(Duration::from_millis(10))
            .with_jitter(0.0)
            .with_cap(Duration::from_millis(50));
        assert_eq!(p.delay_for(0), Duration::from_millis(10));
        assert_eq!(p.delay_for(1), Duration::from_millis(20));
        assert_eq!(p.delay_for(2), Duration::from_millis(40));
        assert_eq!(p.delay_for(3), Duration::from_millis(50));
        assert_eq!(p.delay_for(10), Duration::from_millis(50));
    }

    #[test]
    fn fixed_policy_is_flat() {
        let p = RetryPolicy::fixed(Duration::from_millis(25));
        for attempt in 0..8 {
            assert_eq!(p.delay_for(attempt), Duration::from_millis(25));
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_bounded() {
        let a = RetryPolicy::new(Duration::from_millis(100)).with_seed(7);
        let b = RetryPolicy::new(Duration::from_millis(100)).with_seed(7);
        let c = RetryPolicy::new(Duration::from_millis(100)).with_seed(8);
        let mut differs = false;
        for attempt in 0..16 {
            assert_eq!(a.delay_for(attempt), b.delay_for(attempt));
            assert!(a.delay_for(attempt) <= Duration::from_secs(1));
            // Jitter shortens by at most the jitter fraction.
            let base = Duration::from_millis(100).as_secs_f64() * 2f64.powi(attempt as i32);
            let floor = base.min(1.0) * 0.9;
            assert!(a.delay_for(attempt).as_secs_f64() >= floor - 1e-9);
            differs |= a.delay_for(attempt) != c.delay_for(attempt);
        }
        assert!(differs, "different seeds should jitter differently");
    }

    #[test]
    fn max_attempts_limits_backoffs() {
        let mut retry = RetryPolicy::fixed(Duration::from_millis(1))
            .with_max_attempts(3)
            .start(&Clock::real());
        let mut taken = 0;
        while retry.backoff() {
            taken += 1;
        }
        assert_eq!(taken, 3);
        assert!(retry.exhausted());
    }

    #[test]
    fn counter_tracks_backoffs_taken() {
        let c = Arc::new(Counter::new());
        let mut retry = RetryPolicy::fixed(Duration::from_millis(1))
            .with_max_attempts(2)
            .with_counter(Arc::clone(&c))
            .start(&Clock::real());
        while retry.backoff() {}
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn retry_budget_starts_full_and_refuses_when_empty() {
        let budget = RetryBudget::new(2, 0.1);
        assert!(budget.try_withdraw());
        assert!(budget.try_withdraw());
        assert!(!budget.try_withdraw(), "bucket exhausted");
        assert_eq!(budget.denied(), 1);
        // 10 fresh calls buy back one retry token.
        for _ in 0..10 {
            budget.note_call();
        }
        assert!(budget.try_withdraw());
        assert!(!budget.try_withdraw());
    }

    #[test]
    fn retry_budget_deposits_cap_at_max() {
        let budget = RetryBudget::new(1, 1.0);
        for _ in 0..100 {
            budget.note_call();
        }
        assert_eq!(budget.balance(), 1);
        assert!(budget.try_withdraw());
        assert!(!budget.try_withdraw());
    }

    #[test]
    fn backoff_respects_retry_budget() {
        let budget = Arc::new(RetryBudget::new(3, 0.0));
        let mut retry = RetryPolicy::fixed(Duration::from_millis(1))
            .with_retry_budget(Arc::clone(&budget))
            .start(&Clock::real());
        let mut taken = 0;
        while retry.backoff() {
            taken += 1;
        }
        assert_eq!(taken, 3, "only the budgeted retries run");
        assert_eq!(budget.denied(), 1);
    }

    /// Invariant: a schedule is one logical request, so starting it pays in
    /// one call's share — the deposit no caller has to remember.  (Fails if
    /// `start` makes no deposit.)
    #[test]
    fn starting_a_schedule_deposits_one_calls_share() {
        let budget = Arc::new(RetryBudget::new(1, 0.5));
        assert!(budget.try_withdraw());
        let policy = RetryPolicy::fixed(Duration::ZERO).with_retry_budget(Arc::clone(&budget));
        policy.start(&Clock::real());
        assert!(!budget.try_withdraw(), "half a token is not a retry");
        policy.start(&Clock::real());
        assert!(budget.try_withdraw(), "two starts bought one retry");
    }

    #[test]
    fn budget_bounds_total_sleep() {
        let mut retry = RetryPolicy::fixed(Duration::from_millis(5))
            .with_budget(Duration::from_millis(40))
            .start(&Clock::real());
        let clock = Clock::real();
        let start = clock.now();
        while retry.backoff() {}
        let elapsed = clock.now() - start;
        assert!(elapsed >= Duration::from_millis(40), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(400), "{elapsed:?}");
    }
}
