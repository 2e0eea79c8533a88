//! The only percentile in the benchmark.
//!
//! End-to-end numbers are exact order statistics of the generator's own
//! samples — never quantiles read back from a `MetricsRegistry`, whose
//! histograms have power-of-two buckets.

/// Exact nearest-rank percentile of `sorted` (ascending): the smallest
/// sample with at least `q` of the samples at or below it.  `None` on an
/// empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// [`percentile_sorted`] of an unsorted sample set.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// Median by nearest rank (the lower of the two middle samples when the
/// count is even, so the result is always a value that was measured).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Split `(at, value)` samples into `windows` equal spans of `[0, span)`
/// by `at`, take percentile `q` inside each non-empty window, and return
/// the median of those.  One slow stretch (a compaction, a neighbour on
/// the box) then moves one window, not the reported number.
pub fn windowed_percentile(
    samples: &[(f64, f64)],
    span: f64,
    windows: usize,
    q: f64,
) -> Option<f64> {
    let per_window = window_values(samples, span, windows);
    let quantiles: Vec<f64> = per_window.iter().filter_map(|w| percentile(w, q)).collect();
    median(&quantiles)
}

/// The values of `(at, value)` samples grouped into `windows` equal spans
/// of `[0, span)`; samples outside are dropped.
pub fn window_values(samples: &[(f64, f64)], span: f64, windows: usize) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); windows];
    if windows == 0 || span <= 0.0 {
        return out;
    }
    for &(at, value) in samples {
        if at >= 0.0 && at < span {
            let w = ((at / span) * windows as f64) as usize;
            out[w.min(windows - 1)].push(value);
        }
    }
    out
}

/// Spread of a set of repeated measurements the way the acceptance check
/// takes it: inter-quartile range over median (`None` below two values or
/// on a zero median).
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (q1, q2, q3) = quartiles(&sorted);
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Quartiles by the exclusive method Python's `statistics.quantiles(n=4)`
/// defaults to, on an ascending slice of at least two values.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_sets() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.5), Some(5.0));
        assert_eq!(percentile_sorted(&s, 0.9), Some(9.0));
        assert_eq!(percentile_sorted(&s, 0.91), Some(10.0));
        assert_eq!(percentile_sorted(&s, 1.0), Some(10.0));
        assert_eq!(percentile_sorted(&s, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn percentile_is_a_measured_value_and_order_free() {
        let samples = [30.0, 10.0, 20.0, 40.0];
        assert_eq!(median(&samples), Some(20.0));
        assert_eq!(percentile(&samples, 0.75), Some(30.0));
        assert_eq!(mean(&samples), Some(25.0));
    }

    #[test]
    fn one_bad_window_does_not_move_the_windowed_median() {
        // Four windows of 10 samples; window 2 is 100x slower.
        let mut samples = Vec::new();
        for w in 0..4 {
            for i in 0..10 {
                let slow = if w == 2 { 100.0 } else { 1.0 };
                samples.push((w as f64 + i as f64 / 10.0, (i + 1) as f64 * slow));
            }
        }
        // Window medians are 5, 5, 500, 5; their nearest-rank median is 5.
        assert_eq!(windowed_percentile(&samples, 4.0, 4, 0.5), Some(5.0));
        // Samples outside [0, span) are ignored, empty windows skipped.
        assert_eq!(
            windowed_percentile(&[(9.0, 1.0), (0.5, 3.0)], 4.0, 4, 0.5),
            Some(3.0)
        );
        assert_eq!(windowed_percentile(&[], 4.0, 4, 0.5), None);
    }

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = iqr_over_median(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
        let spread = iqr_over_median(&[10.0, 12.0, 11.0]).unwrap();
        assert!((spread - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[1.0]), None);
    }
}
