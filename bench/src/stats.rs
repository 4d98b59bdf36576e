//! Summary statistics over latency samples. All functions take samples in
//! any order and leave them untouched.

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank rule: the smallest
/// sample with at least `q · n` samples at or below it. Nearest rank, not
/// interpolation, because a reported latency should be one a client saw.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q)]
}

fn rank(n: usize, q: f64) -> usize {
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Samples strictly beyond the nearest-rank `q`-quantile position.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - 1 - rank(n, q)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, or `None` when even p75 does not. Used to check the
/// percentile a workload fixes in advance, and to pick it the first time.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.98, 0.95, 0.90, 0.85, 0.75]
        .into_iter()
        .find(|&q| n > 0 && samples_beyond(n, q) >= 10)
}

/// Geometric mean; every value must be positive.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    let log_sum: f64 = values
        .iter()
        .map(|v| {
            assert!(*v > 0.0, "geomean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Distance between the first and third quartile as a share of the median,
/// computed the way Python's `statistics.quantiles(values, n=4)` does
/// (exclusive method), which is what the benchmark's acceptance rule uses.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    let med = median(&sorted);
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Order of the input does not matter.
        let mut shuffled = v.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.75), 75.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_selection_needs_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990, ten samples lie beyond it.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(highest_supported_tail(1000), Some(0.99));
        assert_eq!(highest_supported_tail(999), Some(0.98));
        // 66 samples (three TPC-H passes): p75 leaves 16, p90 only 6.
        assert_eq!(samples_beyond(66, 0.75), 16);
        assert_eq!(highest_supported_tail(66), Some(0.75));
        assert_eq!(highest_supported_tail(80), Some(0.85));
        assert_eq!(highest_supported_tail(100), Some(0.90));
        assert_eq!(highest_supported_tail(30), None);
        assert_eq!(highest_supported_tail(0), None);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        // One slow template moves the geomean far less than the mean.
        let g = geomean(&[10.0, 10.0, 10.0, 10_000.0]);
        assert!(g > 56.0 && g < 57.0, "{g}");
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = quartile_spread(&[4.0, 1.0, 2.0]).unwrap();
        assert!((s - 1.5).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[5.0]), None);
        assert_eq!(quartile_spread(&[3.0, 3.0, 3.0]), Some(0.0));
    }
}
