//! Order statistics for reporting timings.

/// Tail percentiles the benchmark may report, highest first.
pub const TAILS: [f64; 3] = [99.9, 99.0, 90.0];

/// Samples required beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in `n` samples. The small
/// offset keeps binary rounding of `p / 100 × n` (as in 99.9 % of
/// 10 000) from bumping an exact rank up by one.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly above the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether `n` samples support reporting percentile `p`: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The highest of [`TAILS`] that `n` samples support.
pub fn highest_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| supports(n, p))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Median (the 50th nearest-rank percentile), or 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert!(!supports(99, 90.0));
        assert!(supports(100, 90.0));
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
    }

    #[test]
    fn highest_tail_follows_the_ten_beyond_rule() {
        assert_eq!(highest_tail(0), None);
        assert_eq!(highest_tail(99), None);
        assert_eq!(highest_tail(100), Some(90.0));
        assert_eq!(highest_tail(999), Some(90.0));
        assert_eq!(highest_tail(1_000), Some(99.0));
        assert_eq!(highest_tail(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
