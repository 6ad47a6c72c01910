//! Order statistics over timing samples.

/// A reported percentile needs at least this many samples above it;
/// with fewer, one outlier decides the figure.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the summaries try, highest first.
pub const TAILS: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The nearest-rank `p`-th percentile of `samples`: the smallest sample
/// with at least `p`% of all samples at or below it. Refuses when fewer
/// than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || rank > n || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples would have {} beyond it; at least {MIN_BEYOND} are needed",
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The highest of [`TAILS`] that `samples` can support, with its value.
pub fn highest_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    TAILS.iter().find_map(|&p| percentile(samples, p).ok().map(|v| (p, v)))
}

/// The median of a handful of repetitions (mean of the middle two when
/// the count is even). For repeated whole runs, not latency tails.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        // p99 of 1000: rank 990, ten beyond.
        assert_eq!(percentile(&ramp(1000), 99.0), Ok(990.0));
        assert!(percentile(&ramp(999), 99.0).is_err());
        // p90 needs 100 samples, the median 20.
        assert_eq!(percentile(&ramp(100), 90.0), Ok(90.0));
        assert!(percentile(&ramp(99), 90.0).is_err());
        assert_eq!(percentile(&ramp(20), 50.0), Ok(10.0));
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn percentile_ignores_sample_order() {
        let mut shuffled = ramp(40);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 50.0), Ok(20.0));
        assert_eq!(percentile(&shuffled, 75.0), Ok(30.0));
    }

    #[test]
    fn highest_percentile_steps_down_with_sample_count() {
        assert_eq!(highest_percentile(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(highest_percentile(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(highest_percentile(&ramp(45)), Some((75.0, 34.0)));
        assert_eq!(highest_percentile(&ramp(12)), None);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
