//! A shared closed-loop lookup-storm harness.
//!
//! The §8 comparisons need the same load shape applied to very different
//! directory planes — the ACE ASD (single or sharded), the Jini-style
//! lookup service, and the WebSphere-style central server.  This harness
//! owns the common part: N worker threads, each with its own client,
//! hammering lookups until a deadline and reporting aggregate throughput.
//! Latency recording is delegated to the caller (the ACE arms feed a
//! `MetricsRegistry` histogram; this crate stays free of that dependency).

use std::time::{Duration, Instant};

/// Aggregate result of one storm.
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Successful operations across all workers.
    pub ops: u64,
    /// Failed operations (a healthy arm reports zero).
    pub errors: u64,
    /// Wall-clock from first to last worker.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Successful operations per second.
    pub fn per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Successful operations per minute (the ROADMAP's lookup target is
    /// quoted per minute).
    pub fn per_min(&self) -> f64 {
        self.per_sec() * 60.0
    }
}

/// Run `threads` workers for `duration`.  `make_op(worker_index)` is
/// called once *inside* each worker thread to build its operation (own
/// client, own RNG); the operation returns `true` on success.  `record`
/// sees every operation's latency and must be cheap and thread-safe.
pub fn lookup_storm<F>(
    threads: usize,
    duration: Duration,
    make_op: impl Fn(usize) -> F + Sync,
    record: impl Fn(Duration) + Sync,
) -> LoadReport
where
    F: FnMut() -> bool,
{
    let started = Instant::now();
    let deadline = started + duration;
    let mut totals: Vec<(u64, u64)> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|idx| {
                let make_op = &make_op;
                let record = &record;
                scope.spawn(move || {
                    let mut op = make_op(idx);
                    let mut ops = 0u64;
                    let mut errors = 0u64;
                    while Instant::now() < deadline {
                        let t = Instant::now();
                        let ok = op();
                        record(t.elapsed());
                        if ok {
                            ops += 1;
                        } else {
                            errors += 1;
                        }
                    }
                    (ops, errors)
                })
            })
            .collect();
        for handle in handles {
            totals.push(handle.join().expect("storm worker panicked"));
        }
    });
    LoadReport {
        ops: totals.iter().map(|(o, _)| o).sum(),
        errors: totals.iter().map(|(_, e)| e).sum(),
        elapsed: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn storm_aggregates_across_workers() {
        let recorded = AtomicU64::new(0);
        let report = lookup_storm(
            4,
            Duration::from_millis(50),
            |idx| {
                let mut i = 0u64;
                move || {
                    i += 1;
                    std::thread::sleep(Duration::from_micros(200));
                    // Worker 0 fails every 3rd op so the error path is
                    // exercised too.
                    !(idx == 0 && i.is_multiple_of(3))
                }
            },
            |_| {
                recorded.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(report.ops > 0);
        assert!(report.errors > 0);
        assert_eq!(report.ops + report.errors, recorded.load(Ordering::Relaxed));
        assert!(report.per_sec() > 0.0);
        assert!((report.per_min() - report.per_sec() * 60.0).abs() < 1e-6);
    }
}
