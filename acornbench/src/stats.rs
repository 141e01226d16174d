//! Order statistics for timing samples.
//!
//! Percentiles use the nearest-rank rule: the `q`-quantile of `n` sorted
//! samples is the sample at rank `ceil(q·n)`, so every reported value is
//! a value that was actually measured. A percentile is only reported
//! when at least [`MIN_TAIL`] samples lie beyond it; below that the tail
//! is a handful of outliers, not a distribution.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples beyond the `q`-quantile among `n` samples.
pub fn tail_count(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The nearest-rank `q`-quantile of `samples` (any order), or `None`
/// for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), q) - 1])
}

/// The `q`-quantile, but only if at least [`MIN_TAIL`] samples lie
/// beyond it; otherwise an error naming the shortfall.
pub fn reportable_percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let tail = tail_count(samples.len(), q);
    if tail < MIN_TAIL {
        return Err(format!(
            "p{} needs {MIN_TAIL} samples beyond it, {} samples leave {tail}",
            q * 100.0,
            samples.len()
        ));
    }
    percentile(samples, q).ok_or_else(|| "no samples".to_string())
}

/// The median (lower median for an even count), `None` if empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_values() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.91), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v = [3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(median(&[2.0, 1.0]), Some(1.0), "lower median");
    }

    #[test]
    fn tail_counts_what_lies_beyond_the_rank() {
        assert_eq!(tail_count(100, 0.9), 10);
        assert_eq!(tail_count(99, 0.9), 9);
        assert_eq!(tail_count(1000, 0.99), 10);
        assert_eq!(tail_count(0, 0.9), 0);
        assert_eq!(tail_count(1, 0.5), 0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let enough: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(reportable_percentile(&enough, 0.9), Ok(89.0));
        let short: Vec<f64> = (0..99).map(f64::from).collect();
        let err = reportable_percentile(&short, 0.9).unwrap_err();
        assert!(err.contains("leave 9"), "{err}");
        assert!(reportable_percentile(&short, 0.5).is_ok());
    }
}
