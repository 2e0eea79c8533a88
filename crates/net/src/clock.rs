//! The one clock: every "what time is it" and every "wait until then"
//! under `crates/*/src` goes through a [`Clock`].
//!
//! A [`crate::SimNet`] builds one at [`crate::SimNet::new`] and hands it
//! out through [`crate::SimNet::clock`]; everything that dials through the
//! net (pools, clients, daemons, behaviours, fault plans) reads that one.
//! The shared runtime builds its own for its timer heap and watchdog.
//!
//! The clock reads real time.  Decisions that depend on time — leases,
//! breakers, caches, tickets — take `now: Instant` as an input from their
//! caller and do not read a clock themselves, so a test hands them any
//! instant it likes.
//!
//! ```
//! use ace_net::SimNet;
//! use std::time::Duration;
//!
//! let net = SimNet::new();
//! let clock = net.clock();
//! let start = clock.now();
//! clock.sleep(Duration::from_millis(1));
//! assert!(clock.now() > start);
//! ```

use std::time::{Duration, Instant};

/// A handle on the time source: reads the time and waits for it.  Cheap
/// to clone.
#[derive(Debug, Clone)]
pub struct Clock {
    _real: (),
}

impl Clock {
    /// The real clock.
    pub fn real() -> Clock {
        Clock { _real: () }
    }

    /// The current instant.
    pub fn now(&self) -> Instant {
        Instant::now()
    }

    /// Block the calling thread for `duration`.
    pub fn sleep(&self, duration: Duration) {
        std::thread::sleep(duration);
    }

    /// Block the calling thread until `deadline` (at once if it has
    /// passed).
    pub fn sleep_until(&self, deadline: Instant) {
        let left = deadline.saturating_duration_since(self.now());
        if !left.is_zero() {
            self.sleep(left);
        }
    }
}
