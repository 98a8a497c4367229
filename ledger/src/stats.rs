//! Order statistics: the percentile rule for timings and the quartile
//! definition the acceptance procedure uses.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of `v`.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the middle pair for even counts).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// The percentile rule every reported timing follows: percentile `p` of
/// `samples` only when at least ten samples lie beyond it (p90 needs 100
/// samples, p95 200, p99 1000); otherwise `None`, and the metric reads 0.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    (samples.len() * (100 - p as usize) >= 10 * 100)
        .then(|| quantile_sorted(&sorted(samples), f64::from(p) / 100.0))
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the definition the acceptance run uses
/// for a metric's spread.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    assert!(s.len() >= 2, "quartiles need two values");
    let ld = s.len();
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|k| k as f64).collect::<Vec<_>>();
        assert_eq!(percentile(&ramp(99), 90), None);
        assert_eq!(percentile(&ramp(100), 90), Some(90.0));
        assert_eq!(percentile(&ramp(199), 95), None);
        assert_eq!(percentile(&ramp(200), 95), Some(190.0));
        assert_eq!(percentile(&ramp(999), 99), None);
        assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        //   == [3.5, 13.5, 31.0]
        let v = [46.0, 1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0];
        assert_eq!(quartiles(&v), (3.5, 13.5, 31.0));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
