//! Order statistics for the reported figures.
//!
//! Every percentile here is nearest-rank: the `p`-th percentile of `n`
//! sorted samples is the sample at 1-based rank `ceil(p/100 * n)`, so a
//! reported value is always one that was measured. A tail percentile is only
//! meaningful when at least [`TAIL_MIN_BEYOND`] samples lie beyond it;
//! [`tail_supported`] states that rule and the report flags a tail that
//! breaks it.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    // The epsilon keeps p*n that is integral in exact arithmetic (e.g. 99% of
    // 1000) from rounding up a rank through float error.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile of `samples` (any order).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// Median as the nearest-rank 50th percentile.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Whether `n` samples leave at least [`TAIL_MIN_BEYOND`] beyond percentile
/// `p`.
pub fn tail_supported(p: f64, n: usize) -> bool {
    n > 0 && n - nearest_rank(p, n) >= TAIL_MIN_BEYOND
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_measured_sample() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 91.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
        // Order of the input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 50.0), 5.0);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn exact_products_do_not_round_up() {
        // 99% of 1000 is rank 990 exactly, not 991.
        assert_eq!(nearest_rank(99.0, 1000), 990);
        assert_eq!(nearest_rank(90.0, 100), 90);
        assert_eq!(nearest_rank(50.0, 7), 4);
    }

    #[test]
    fn a_tail_keeps_ten_samples_beyond_it() {
        assert!(tail_supported(99.0, 1000));
        assert!(!tail_supported(99.0, 999));
        assert!(tail_supported(90.0, 100));
        assert!(!tail_supported(90.0, 99));
        assert!(!tail_supported(50.0, 0));
        // The smallest samples that support p99, p90 and the median.
        for (p, n) in [(99.0, 1000), (90.0, 100), (50.0, 20)] {
            assert!(tail_supported(p, n) && !tail_supported(p, n - 1), "p{p} at {n}");
        }
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
