//! Exact order statistics over raw samples.
//!
//! Every timing the benchmark reports is a quantile of the *sorted raw
//! samples* — never a histogram bucket — and is stated together with
//! its sample count.

/// Sorts `samples` ascending (total order; NaN cannot occur in a
/// duration, and would sort last if it did).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of an ascending slice: the middle sample, or the mean of the
/// two middle samples. 0.0 for an empty slice.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    median_sorted(&sorted(samples.to_vec()))
}

/// Nearest-rank quantile of an ascending slice: the smallest sample
/// such that at least `q · n` samples are ≤ it — always one of the
/// samples, never an interpolation. 0.0 for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Number of samples strictly beyond the nearest-rank `q` quantile of
/// `n` samples — a tail quantile is only reported with enough of them.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// 1-based nearest rank of quantile `q` among `n ≥ 1` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_exact_for_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_is_a_raw_sample_not_a_bucket_ceiling() {
        // 16.4 would report as 33.5 under log2 buckets (ROADMAP item 1).
        let s = sorted(vec![16.4; 99].into_iter().chain([90.0]).collect());
        assert_eq!(quantile_sorted(&s, 0.5), 16.4);
        assert_eq!(quantile_sorted(&s, 0.99), 16.4);
        assert_eq!(quantile_sorted(&s, 1.0), 90.0);
    }

    #[test]
    fn nearest_rank_matches_hand_computed_positions() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 0.1), 1.0);
        assert_eq!(quantile_sorted(&s, 0.11), 2.0);
        assert_eq!(quantile_sorted(&s, 0.9), 9.0);
        assert_eq!(quantile_sorted(&s, 0.91), 10.0);
    }

    #[test]
    fn tail_population_counts_samples_past_the_rank() {
        assert_eq!(samples_beyond(3000, 0.99), 30);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(7, 0.99), 0);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }
}
