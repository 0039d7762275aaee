//! Order statistics: the median, the quartiles the driver computes
//! (`statistics.quantiles(values, n=4)`), and the percentile rule of the
//! choosing-metrics guide — a timing is reported as its median plus the
//! highest percentile that still has at least ten samples beyond it.

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Percentiles the tail rule chooses among, lowest first.
pub const LADDER: [(&str, f64); 5] = [
    ("p50", 0.50),
    ("p90", 0.90),
    ("p99", 0.99),
    ("p99.9", 0.999),
    ("p99.99", 0.9999),
];

/// Sort ascending (total order; the harness never produces NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending slice (mean of the middle pair when even).
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of unsorted samples.
pub fn median_of(v: &[f64]) -> f64 {
    median(&sorted(v.to_vec()))
}

/// The highest percentile of [`LADDER`] with at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it, for `n` samples; `None`
/// below 20 samples, where not even the median qualifies.
pub fn highest_supported(n: usize) -> Option<(&'static str, f64)> {
    LADDER
        .iter()
        .rev()
        .find(|&&(_, q)| n as f64 * (1.0 - q) >= MIN_TAIL_SAMPLES as f64 - 1e-9)
        .copied()
}

/// `q` capped at the highest percentile `n` samples support (the median
/// when none qualifies), so a short run never reports a tail it cannot
/// resolve.
pub fn supported_q(n: usize, q: f64) -> f64 {
    q.min(highest_supported(n).map_or(0.5, |(_, top)| top))
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), so `check` sees the spread the driver will see.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values.to_vec());
    let n = data.len();
    if n < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median (0 when the median
/// is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(("p50", 0.50)));
        assert_eq!(highest_supported(99), Some(("p50", 0.50)));
        assert_eq!(highest_supported(100), Some(("p90", 0.90)));
        assert_eq!(highest_supported(999), Some(("p90", 0.90)));
        assert_eq!(highest_supported(1_000), Some(("p99", 0.99)));
        assert_eq!(highest_supported(10_000), Some(("p99.9", 0.999)));
        assert_eq!(highest_supported(5_000_000), Some(("p99.99", 0.9999)));
        // A fixed-name tail metric falls back to what the run supports.
        assert_eq!(supported_q(5_000, 0.999), 0.99);
        assert_eq!(supported_q(50_000, 0.999), 0.999);
        assert_eq!(supported_q(5, 0.99), 0.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
