//! Minimal std-only timer behind `reproduce bench` ([`crate::perf`]).
//!
//! The measurement loop: a short warm-up, then timed batches until a
//! wall-clock budget is spent, reporting both the mean per-iteration
//! time across every repetition and the true median of the per-rep
//! means.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Result of one measurement (one rep, or an aggregate over reps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Iterations executed across every timed repetition.
    pub iterations: u64,
    /// Mean wall-clock time per iteration across all reps, in
    /// nanoseconds. Always finite and strictly positive: the timed loop
    /// runs at least one iteration and the elapsed time is clamped to
    /// ≥ 1 ns, so `ops_per_sec = 1e9 / mean_ns` can never be NaN,
    /// infinite, or zero.
    pub mean_ns: f64,
    /// Median of the per-repetition mean iteration times, in
    /// nanoseconds (for an even rep count, the average of the two
    /// middle reps). For a single [`measure`] this equals [`Self::mean_ns`].
    pub median_ns: f64,
}

/// Elapsed nanoseconds since `start`, clamped so a sub-tick timer (or a
/// closure faster than the clock resolution) can never report zero.
fn elapsed_ns_since(start: Instant) -> f64 {
    (start.elapsed().as_secs_f64() * 1e9).max(1.0)
}

/// Times `f` for roughly `budget`, after a tenth of it as warm-up.
/// Returns the mean per-iteration time over the timed phase. The timed
/// loop always executes at least one iteration — a zero (or tiny)
/// budget degrades to timing a single call, never to a zero-sample
/// measurement.
pub fn measure<T>(budget: Duration, mut f: impl FnMut() -> T) -> Measurement {
    let warmup_deadline = Instant::now() + budget / 10;
    while Instant::now() < warmup_deadline {
        black_box(f());
    }
    let start = Instant::now();
    let deadline = start + budget;
    let mut iterations = 0u64;
    loop {
        black_box(f());
        iterations += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let mean_ns = elapsed_ns_since(start) / iterations as f64;
    Measurement {
        iterations,
        mean_ns,
        median_ns: mean_ns,
    }
}

/// Times a single call of `f` — for workloads whose one execution
/// already costs seconds (full-CNN forwards), where an iteration loop
/// would waste minutes re-measuring the measurable.
pub fn measure_single<T>(mut f: impl FnMut() -> T) -> Measurement {
    let start = Instant::now();
    black_box(f());
    let ns = elapsed_ns_since(start);
    Measurement {
        iterations: 1,
        mean_ns: ns,
        median_ns: ns,
    }
}

/// Median of per-rep means: the middle value, or for an even count the
/// average of the two middle values.
fn median_of(mut means: Vec<f64>) -> f64 {
    means.sort_by(f64::total_cmp);
    let n = means.len();
    if n.is_multiple_of(2) {
        // lint:allow(P104) the even-count branch implies n >= 2, so n/2 - 1 is in range
        f64::midpoint(means[n / 2 - 1], means[n / 2])
    } else {
        means[n / 2]
    }
}

/// Runs [`measure`] `reps` times and aggregates: `median_ns` is the
/// true median of the per-rep means (robust against scheduler noise on
/// loaded machines — what the `reproduce bench` regression harness
/// records), `mean_ns` the iteration-weighted mean across all reps, and
/// `iterations` the total.
///
/// # Panics
///
/// Panics if `reps` is zero.
pub fn measure_median<T>(budget: Duration, reps: usize, mut f: impl FnMut() -> T) -> Measurement {
    assert!(reps > 0, "at least one repetition");
    let runs: Vec<Measurement> = (0..reps).map(|_| measure(budget, &mut f)).collect();
    let iterations: u64 = runs.iter().map(|m| m.iterations).sum();
    #[allow(clippy::cast_precision_loss)]
    let total_ns: f64 = runs.iter().map(|m| m.mean_ns * m.iterations as f64).sum();
    #[allow(clippy::cast_precision_loss)]
    let mean_ns = total_ns / iterations as f64;
    Measurement {
        iterations,
        mean_ns,
        median_ns: median_of(runs.iter().map(|m| m.mean_ns).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_at_least_one_iteration() {
        let m = measure(Duration::from_millis(5), || 2 + 2);
        assert!(m.iterations >= 1);
        assert!(m.mean_ns > 0.0);
    }

    #[test]
    fn zero_budget_still_yields_a_usable_sample() {
        // Calibration can hand the loop a degenerate budget; a no-op
        // closure can finish under the clock tick. Neither may produce a
        // zero-iteration or zero-duration sample: the derived ops/s must
        // stay finite and nonzero.
        for budget in [Duration::ZERO, Duration::from_nanos(1)] {
            let m = measure(budget, || ());
            assert!(m.iterations >= 1, "budget {budget:?}");
            let ops_per_sec = 1e9 / m.median_ns;
            assert!(
                ops_per_sec.is_finite() && ops_per_sec > 0.0,
                "budget {budget:?}: ops/s {ops_per_sec}"
            );
        }
        let single = measure_single(|| ());
        assert_eq!(single.iterations, 1);
        assert!(single.median_ns >= 1.0);
    }

    #[test]
    fn mean_tracks_sleep_scale() {
        let m = measure(Duration::from_millis(30), || {
            std::thread::sleep(Duration::from_millis(2));
        });
        assert!(m.mean_ns >= 1e6, "mean {} ns", m.mean_ns);
    }

    #[test]
    fn median_of_reps_is_between_extremes() {
        let mut delay = [4u64, 1, 2].into_iter().cycle();
        let m = measure_median(Duration::from_millis(10), 3, || {
            std::thread::sleep(Duration::from_millis(delay.next().unwrap()));
        });
        assert!(m.iterations >= 3);
        assert!(m.median_ns >= 1e6, "median {} ns", m.median_ns);
        assert!(m.mean_ns > 0.0);
    }

    #[test]
    fn median_interpolates_even_rep_counts() {
        assert_eq!(median_of(vec![3.0, 1.0, 2.0]), 2.0);
        // Even count: average of the two middle reps, not either one.
        assert_eq!(median_of(vec![4.0, 1.0, 2.0, 100.0]), 3.0);
        assert_eq!(median_of(vec![5.0]), 5.0);
    }
}
