//! Shared helpers for the experiment harness: timing and table printing.

use std::time::{Duration, Instant};

/// Median of timing `runs` executions of `f` (after one warmup).
pub fn time_median(runs: usize, mut f: impl FnMut()) -> Duration {
    f(); // warmup
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Wall time of one execution.
pub fn time_once(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

/// Operations per second over `total` elapsed.
pub fn ops_per_sec(ops: usize, total: Duration) -> f64 {
    ops as f64 / total.as_secs_f64().max(1e-9)
}

/// Print an experiment header.
pub fn header(id: &str, figure: &str, title: &str) {
    println!();
    println!("== {id} ({figure}) — {title}");
}

/// Print one row of a table: label + cells.
pub fn row(label: &str, cells: &[String]) {
    print!("  {label:<34}");
    for c in cells {
        print!(" {c:>14}");
    }
    println!();
}

/// Format a duration in adaptive units.
pub fn fmt_dur(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1000.0 {
        format!("{us:.1}µs")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1000.0)
    } else {
        format!("{:.2}s", us / 1e6)
    }
}

/// Mean and standard deviation.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

/// Exact nearest-rank percentile (`q` in `[0, 1]`): the smallest sample
/// with at least `q` of the samples at or below it, so the result is always
/// a value that was measured.  Same definition as `acebench`'s
/// (`benchmark/src/stats.rs`).  `None` on an empty set.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-9);
        assert!((s - 2.0).abs() < 1e-9);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn nearest_rank_percentile_is_order_free() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 0.5), Some(5.0));
        assert_eq!(percentile(&s, 0.9), Some(9.0));
        assert_eq!(percentile(&s, 0.91), Some(10.0));
        assert_eq!(percentile(&s, 1.0), Some(10.0));
        // Always a measured sample, never an interpolation between two.
        assert_eq!(percentile(&[30.0, 10.0, 20.0, 40.0], 0.5), Some(20.0));
        assert_eq!(percentile(&[40.0, 20.0, 10.0, 30.0], 0.75), Some(30.0));
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[7.0], q), Some(7.0));
        }
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn fmt_dur_units() {
        assert!(fmt_dur(Duration::from_micros(5)).ends_with("µs"));
        assert!(fmt_dur(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_dur(Duration::from_secs(5)).ends_with('s'));
    }
}
