//! Exact statistics over raw samples: nearest-rank percentiles, the
//! ten-beyond rule for tail percentiles, and medians of repeated timings.

/// Samples a tail percentile must leave beyond it before it is reported.
pub const TAIL_BEYOND: usize = 10;

/// Sort a sample set ascending (total order, so NaN cannot panic).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// 1-based nearest rank of percentile `q` (0 < q ≤ 100) in `n` samples.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending sample set. Always one of the
/// samples, so it never exceeds the recorded maximum.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let value = sorted[nearest_rank(sorted.len(), q) - 1];
    Some(value.min(sorted[sorted.len() - 1]))
}

/// A tail percentile, reported only when at least [`TAIL_BEYOND`] samples
/// lie beyond its rank.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || n - nearest_rank(n, q) < TAIL_BEYOND {
        return None;
    }
    percentile(sorted, q)
}

/// Smallest sample count for which `q` is a reportable tail percentile.
pub fn samples_for_tail(q: f64) -> usize {
    (1..)
        .find(|&n| n - nearest_rank(n, q) >= TAIL_BEYOND)
        .expect("q < 100")
}

/// Median of unsorted values (nearest rank, so always a sample).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Ranks round up: the 95th of 10 samples is the 10th sample.
        assert_eq!(percentile(&ramp(10), 95.0), Some(10.0));
    }

    #[test]
    fn percentiles_are_monotone_and_clamped_to_max() {
        let s = sorted(vec![5.0, 1.0, 9.0, 3.0, 3.0, 8.0, 2.0]);
        let max = *s.last().unwrap();
        let mut last = f64::NEG_INFINITY;
        for q in [1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
            let p = percentile(&s, q).unwrap();
            assert!(p >= last && p <= max, "q={q} p={p}");
            last = p;
        }
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond.
        assert_eq!(tail_percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(tail_percentile(&ramp(999), 99.0), None);
        assert_eq!(samples_for_tail(99.0), 1000);
        assert_eq!(samples_for_tail(90.0), 100);
        assert_eq!(tail_percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(tail_percentile(&ramp(99), 90.0), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
