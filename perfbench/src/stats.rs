//! Order statistics over raw samples.
//!
//! Percentiles are exact nearest-rank order statistics of the samples
//! as measured, never read back from bucketed histograms (whose steps
//! are up to 6.25% wide). A percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it, so a tail figure always rests
//! on more than a handful of observations.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` in `n` samples: the smallest
/// rank `r` with `r / n >= q`.
pub fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "rank of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile must lie in (0, 1]");
    // Round away float noise such as 0.99 * 100 = 98.99999999999999.
    let exact = (q * n as f64 * 1e9).round() / 1e9;
    (exact.ceil() as usize).clamp(1, n)
}

/// The exact `q` percentile of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie above its rank.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(sorted.len(), q);
    (sorted.len() - r >= MIN_BEYOND).then(|| sorted[r - 1])
}

/// Median of a small set of values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_arithmetic() {
        assert_eq!(rank(1000, 0.50), 500);
        assert_eq!(rank(1000, 0.99), 990);
        assert_eq!(rank(100, 0.99), 99);
        assert_eq!(rank(1001, 0.99), 991);
        assert_eq!(rank(7, 0.5), 4);
        assert_eq!(rank(1, 0.5), 1);
        assert_eq!(rank(10, 1.0), 10);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.99), Some(990.0));
        assert_eq!(percentile(&sorted, 0.5), Some(500.0));
        // 999 samples: rank 990 leaves only 9 above it.
        assert_eq!(percentile(&sorted[..999], 0.99), None);
        assert_eq!(percentile(&sorted[..19], 0.5), None);
        assert_eq!(percentile(&sorted[..20], 0.5), Some(10.0));
        assert_eq!(percentile::<f64>(&[], 0.5), None);
    }

    #[test]
    fn p99_never_below_p50() {
        let mut sorted: Vec<f64> = (0..5000).map(|i| ((i * 7919) % 5000) as f64).collect();
        sorted.sort_by(f64::total_cmp);
        assert!(percentile(&sorted, 0.99) >= percentile(&sorted, 0.5));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
