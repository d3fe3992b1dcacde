//! Fixed-memory latency percentiles: an HDR-style log-linear histogram.
//!
//! Tail-latency reporting cannot afford to keep every sample at serving
//! scale, so the simulator records latencies (integer nanoseconds) into
//! logarithmic buckets with `2^sub_bits` linear sub-buckets per octave.
//! That bounds the relative quantization error of any reported
//! percentile by `2^-sub_bits` (0.78 % at the default 7 sub-bucket
//! bits) while using a few kilobytes regardless of sample count. All
//! bucket math is integer (shifts and leading-zero counts), so recorded
//! histograms — and therefore every percentile the serving artifact
//! prints — are bitwise reproducible across platforms and worker
//! counts.
//!
//! [`LatencyHistogram::percentiles`] answers a whole ascending set of
//! quantiles (a report's p50/p95/p99/p99.9) in one forward scan from the
//! minimum's bucket, each rank resuming where the previous one stopped
//! and passing blocks of buckets that stay short of it in one sum;
//! [`LatencyHistogram::percentile`] is its one-quantile case.
//!
//! [`exact_percentile`] is the sorted-reference implementation (same
//! nearest-rank convention); the property tests pin the estimator
//! against it.

/// Buckets the percentile scan passes in one sum when they stay short
/// of the rank it looks for.
const SKIP: usize = 16;

/// Default linear resolution: 7 bits → ≤ 0.78 % relative error.
pub const DEFAULT_SUB_BITS: u32 = 7;

/// Log-linear histogram over `u64` values (nanoseconds, by convention).
///
/// Equality is structural (same `sub_bits`, same bucket counts, same
/// min/max/sum), which makes "merge of parts == histogram of the whole"
/// a directly testable invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    sub_bits: u32,
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

/// Bucket index of `value`: unit buckets below `2^sub_bits`, then
/// `2^sub_bits` linear sub-buckets per power of two.
fn index_of(value: u64, sub_bits: u32) -> usize {
    let m = 1u64 << sub_bits;
    if value < m {
        #[allow(clippy::cast_possible_truncation)]
        {
            value as usize
        }
    } else {
        let msb = 63 - value.leading_zeros();
        let shift = msb - sub_bits;
        #[allow(clippy::cast_possible_truncation)]
        {
            (u64::from(shift) * m + (value >> shift)) as usize
        }
    }
}

/// Lowest value mapping to bucket `index`.
fn lower_bound(index: usize, sub_bits: u32) -> u64 {
    let m = 1usize << sub_bits;
    if index < 2 * m {
        index as u64
    } else {
        let shift = (index - m) / m;
        ((index - shift * m) as u64) << shift
    }
}

/// Width of bucket `index` (1 below two octaves, doubling per octave).
fn bucket_width(index: usize, sub_bits: u32) -> u64 {
    let m = 1usize << sub_bits;
    if index < 2 * m {
        1
    } else {
        1u64 << ((index - m) / m)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new(DEFAULT_SUB_BITS)
    }
}

impl LatencyHistogram {
    /// A histogram with `2^sub_bits` sub-buckets per octave.
    ///
    /// # Panics
    ///
    /// Panics if `sub_bits` is outside `1..=16`.
    #[must_use]
    pub fn new(sub_bits: u32) -> Self {
        assert!((1..=16).contains(&sub_bits), "sub_bits must be 1..=16");
        Self {
            sub_bits,
            counts: Vec::new(),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let index = index_of(value, self.sub_bits);
        if index >= self.counts.len() {
            self.counts.resize(index + 1, 0);
        }
        self.counts[index] += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += u128::from(value);
    }

    /// Folds `other` into `self`, bucket by bucket. The result is
    /// bitwise identical to a histogram that recorded both value
    /// sequences directly (the property tests pin merge-of-two against
    /// histogram-of-concatenation for count, sum, and every rank query),
    /// which is what lets per-tenant latency decompositions reconstruct
    /// the aggregate histogram exactly.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms use different `sub_bits` (their
    /// buckets would not line up).
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.sub_bits, other.sub_bits,
            "cannot merge histograms with different sub_bits"
        );
        if other.total == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact sum of all recorded values.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values (exact, from the running sum).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]` by the nearest-rank rule,
    /// reported as the midpoint of the containing bucket (clamped to the
    /// recorded min/max so degenerate distributions answer exactly).
    ///
    /// Returns 0 on an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        let [value] = self.percentiles([q]);
        value
    }

    /// Values at an ascending set of quantiles, each exactly what
    /// [`Self::percentile`] answers, read in one forward scan: it starts
    /// at the bucket of the recorded minimum and each rank resumes where
    /// the previous one stopped.
    ///
    /// Returns zeros on an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if any quantile is outside `[0, 1]` or the set is not
    /// ascending.
    #[must_use]
    pub fn percentiles<const N: usize>(&self, quantiles: [f64; N]) -> [u64; N] {
        for (i, &q) in quantiles.iter().enumerate() {
            assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
            assert!(
                i == 0 || quantiles[i - 1] <= q,
                "quantiles must be ascending"
            );
        }
        if self.total == 0 {
            return [0; N];
        }
        // Buckets below the minimum's are empty; `seen` counts every
        // value up to and including bucket `index`.
        let mut index = index_of(self.min, self.sub_bits);
        let mut seen = self.counts[index];
        quantiles.map(|q| {
            #[allow(clippy::cast_precision_loss)]
            let target = (q * self.total as f64).ceil();
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let rank = (target as u64).max(1);
            while seen < rank {
                // A block of buckets that stays short of the rank is
                // passed in one sum.
                if let Some(block) = self.counts.get(index + 1..index + 1 + SKIP) {
                    let sum: u64 = block.iter().sum();
                    if seen + sum < rank {
                        seen += sum;
                        index += SKIP;
                        continue;
                    }
                }
                index += 1;
                match self.counts.get(index) {
                    Some(&count) => seen += count,
                    None => return self.max,
                }
            }
            let lower = lower_bound(index, self.sub_bits);
            let mid = lower + (bucket_width(index, self.sub_bits) - 1) / 2;
            mid.clamp(self.min, self.max)
        })
    }
}

/// Sorted-reference percentile (nearest-rank) for validation: `values`
/// must be sorted ascending.
///
/// # Panics
///
/// Panics if `values` is empty or `q` is outside `[0, 1]`.
#[must_use]
pub fn exact_percentile(values: &[u64], q: f64) -> u64 {
    assert!(!values.is_empty(), "need at least one value");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    #[allow(clippy::cast_precision_loss)]
    let target = (q * values.len() as f64).ceil();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (target as usize).max(1);
    values[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_round_trip_brackets_every_value() {
        for sub_bits in [1u32, 4, 7] {
            for value in (0u64..2000).chain([1 << 20, u64::MAX / 2, u64::MAX]) {
                let index = index_of(value, sub_bits);
                let lower = lower_bound(index, sub_bits);
                let width = bucket_width(index, sub_bits);
                assert!(
                    lower <= value && value - lower < width,
                    "v={value} sub={sub_bits}: [{lower}, +{width})"
                );
            }
        }
    }

    #[test]
    fn bucket_indices_are_monotone() {
        let mut last = 0;
        for value in 0u64..100_000 {
            let index = index_of(value, 7);
            assert!(index >= last, "index regressed at {value}");
            last = index;
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new(7);
        for v in [3u64, 9, 9, 100, 127] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 3);
        assert_eq!(h.percentile(0.5), 9);
        assert_eq!(h.percentile(1.0), 127);
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 127);
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert!((h.mean() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn exact_percentile_nearest_rank() {
        let values = [10u64, 20, 30, 40];
        assert_eq!(exact_percentile(&values, 0.0), 10);
        assert_eq!(exact_percentile(&values, 0.25), 10);
        assert_eq!(exact_percentile(&values, 0.26), 20);
        assert_eq!(exact_percentile(&values, 0.5), 20);
        assert_eq!(exact_percentile(&values, 0.99), 40);
        assert_eq!(exact_percentile(&values, 1.0), 40);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn rejects_out_of_range_quantile() {
        let _ = LatencyHistogram::default().percentile(1.5);
    }
}
