//! Order statistics for latency samples and repeated timings.

/// The `p`-th percentile (0 < p < 100) of `sorted`, nearest-rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `samples` supports reporting percentile `p`: at least ten
/// samples must lie beyond it, or the figure is one outlier's latency.
pub fn supports_percentile(samples: usize, p: f64) -> bool {
    (samples as f64) * (1.0 - p / 100.0) >= 10.0
}

/// The highest of p99/p95/p50 that `samples` supports (0 if none).
pub fn highest_supported(samples: usize) -> f64 {
    [99.0, 95.0, 50.0]
        .into_iter()
        .find(|&p| supports_percentile(samples, p))
        .unwrap_or(0.0)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!supports_percentile(999, 99.0));
        assert!(supports_percentile(1000, 99.0));
        assert!(!supports_percentile(199, 95.0));
        assert!(supports_percentile(200, 95.0));
        assert!(supports_percentile(20, 50.0));
        assert!(!supports_percentile(19, 50.0));
        assert_eq!(highest_supported(5000), 99.0);
        assert_eq!(highest_supported(999), 95.0);
        assert_eq!(highest_supported(150), 50.0);
        assert_eq!(highest_supported(3), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
