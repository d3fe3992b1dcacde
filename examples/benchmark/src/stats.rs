//! Order statistics over measured samples.

/// The nearest-rank `q`-quantile of an ascending slice: the smallest
/// sample with at least `q·n` samples at or below it. `q` is clamped to
/// `[0, 1]`; an empty slice yields 0.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = rank_of(n, q);
    sorted[rank.clamp(1, n) - 1]
}

/// Samples strictly above the nearest-rank `q`-quantile position.
#[must_use]
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank_of(n, q).min(n)
}

/// `⌈q·n⌉`, with a tolerance so binary rounding of `q` (0.9·100 =
/// 90.000…01) cannot push an exact rank up by one.
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
fn rank_of(n: usize, q: f64) -> usize {
    (q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize
}

/// The highest of p50, p90, p99 and p99.9 that still has at least ten
/// samples beyond it, or `None` when even the median has fewer.
#[must_use]
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// Sorts samples ascending (total order, so NaN cannot panic the sort).
#[must_use]
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of unsorted samples.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_a_sorted_reference() {
        // 1..=100: the nearest-rank q-quantile is exactly 100·q.
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        for (q, want) in [
            (0.0, 1.0),
            (0.01, 1.0),
            (0.5, 50.0),
            (0.9, 90.0),
            (0.99, 99.0),
        ] {
            assert_eq!(percentile(&values, q), want, "q={q}");
        }
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Shuffled input sorts to the same reference.
        let shuffled: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100 + 1)).collect();
        assert_eq!(percentile(&sorted(shuffled), 0.9), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(99), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        for n in [20, 100, 1000, 2500, 50_000] {
            let q = tail_quantile(n).unwrap();
            assert!(samples_beyond(n, q) >= 10, "n={n} q={q}");
        }
    }
}
