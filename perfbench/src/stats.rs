//! Order statistics for latency samples.

/// A tail percentile is only reported where at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// Median of ascending `sorted` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values))
}

/// An ascending copy of `values` (NaN-safe total order).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The nearest-rank percentile `p` of ascending `sorted` as a tail
/// figure: `None` unless at least [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(sorted: &[f64], p: f64) -> Option<f64> {
    (beyond(sorted.len(), p) >= MIN_BEYOND).then(|| percentile(sorted, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond, p99.9 only 1.
        assert_eq!(tail(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail(&ramp(1000), 99.9), None);
        // 999 samples leave only 9 beyond p99.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail(&ramp(999), 99.0), None);
        // 200 samples: p95 has exactly 10 beyond.
        assert_eq!(tail(&ramp(200), 95.0), Some(190.0));
        // 12 samples: p10 is the 2nd, with 10 beyond; 11 are too few.
        assert_eq!(tail(&ramp(12), 10.0), Some(2.0));
        assert_eq!(tail(&ramp(11), 10.0), None);
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn a_tail_exists_exactly_when_ten_samples_lie_beyond() {
        for p in [10.0, 50.0, 95.0, 99.0] {
            for n in 1..1500 {
                let v = ramp(n);
                let above = |value: f64| v.iter().filter(|&&x| x > value).count();
                match tail(&v, p) {
                    Some(value) => assert!(above(value) >= MIN_BEYOND, "p{p} n={n}: {value}"),
                    None => assert!(above(percentile(&v, p)) < MIN_BEYOND, "p{p} n={n}"),
                }
            }
        }
    }
}
