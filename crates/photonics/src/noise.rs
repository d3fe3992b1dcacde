//! Receiver noise and bit-error-rate modeling.
//!
//! The analytic evaluation assumes clean detection; this module models
//! what the comparator-ladder o/e converter actually faces: Gaussian
//! amplitude noise on each pulse slot (lumping RIN, shot and thermal
//! receiver noise into one per-level sigma) and the resulting
//! level-decision error probability — the failure-injection substrate for
//! the OO robustness studies.

use crate::signal::PulseTrain;

/// Gaussian amplitude noise applied per slot, in units of one pulse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmplitudeNoise {
    sigma: f64,
}

impl AmplitudeNoise {
    /// Creates a noise source with standard deviation `sigma` (pulse
    /// units).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    #[must_use]
    pub fn new(sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Self { sigma }
    }

    /// The standard deviation.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Perturbs a train's slot amplitudes with zero-mean Gaussian noise
    /// (Box-Muller from the supplied uniform source). Clamped at zero —
    /// optical power cannot be negative.
    pub fn perturb(&self, train: &PulseTrain, mut uniform: impl FnMut() -> f64) -> PulseTrain {
        // lint:allow(D003) sigma exactly zero is the noiseless sentinel
        if self.sigma == 0.0 {
            return train.clone();
        }
        train
            .iter()
            .map(|amp| {
                let u1: f64 = uniform().clamp(1e-12, 1.0);
                let u2: f64 = uniform();
                let gaussian = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (amp + self.sigma * gaussian).max(0.0)
            })
            .collect()
    }

    /// Probability that one slot at an interior level is mis-decided by a
    /// mid-point comparator ladder: `P = 2·Q(1/(2σ))` where `Q` is the
    /// Gaussian tail function (edge levels have one-sided errors, so this
    /// is an upper bound).
    #[must_use]
    pub fn level_error_probability(&self) -> f64 {
        // lint:allow(D003) sigma exactly zero is the noiseless sentinel
        if self.sigma == 0.0 {
            return 0.0;
        }
        2.0 * q_function(0.5 / self.sigma)
    }
}

/// The Gaussian tail function `Q(x) = ½·erfc(x/√2)`, via the
/// Abramowitz-Stegun erfc approximation (|ε| < 1.5e-7).
#[must_use]
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Complementary error function (Abramowitz & Stegun 7.1.26).
#[must_use]
pub fn erfc(x: f64) -> f64 {
    let sign_negative = x < 0.0;
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erfc = poly * (-x * x).exp();
    if sign_negative {
        2.0 - erfc
    } else {
        erfc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixel_units::rng::SplitMix64;

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(2.0) - 0.004_677_7).abs() < 1e-6);
        assert!((erfc(-1.0) - (2.0 - 0.157_299_2)).abs() < 1e-6);
    }

    #[test]
    fn q_function_is_half_at_zero_and_decreasing() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-9);
        assert!(q_function(1.0) > q_function(2.0));
        assert!(q_function(7.0) < 2e-12);
    }

    #[test]
    fn zero_sigma_is_transparent() {
        let noise = AmplitudeNoise::new(0.0);
        let train = PulseTrain::from_bits(0b1011, 4);
        let out = noise.perturb(&train, || 0.5);
        assert_eq!(out, train);
        assert_eq!(noise.level_error_probability(), 0.0);
    }

    #[test]
    fn small_noise_rounds_away() {
        let noise = AmplitudeNoise::new(0.05);
        let mut rng = SplitMix64::seed_from_u64(1);
        let train = PulseTrain::from_bits(0b1011, 4);
        let out = noise.perturb(&train, move || rng.next_f64());
        assert_eq!(out.to_bits(), Some(0b1011), "σ=0.05 never flips a level");
    }

    #[test]
    fn error_probability_grows_with_sigma() {
        let small = AmplitudeNoise::new(0.1).level_error_probability();
        let large = AmplitudeNoise::new(0.3).level_error_probability();
        assert!(large > small);
        // σ = 0.1 → 2·Q(5) ≈ 5.7e-7.
        assert!(small < 1e-6, "σ=0.1 error {small}");
        // σ = 0.3 → 2·Q(1.67) ≈ 9.5e-2.
        assert!((large - 0.095).abs() < 0.01, "σ=0.3 error {large}");
    }

    #[test]
    fn empirical_error_rate_matches_model() {
        // Monte-Carlo the comparator decision at σ = 0.25 and compare
        // against 2·Q(2) ≈ 4.55e-2.
        let noise = AmplitudeNoise::new(0.25);
        let mut rng = SplitMix64::seed_from_u64(7);
        let trials = 40_000;
        let mut errors = 0u32;
        for _ in 0..trials {
            let train = PulseTrain::from_amplitudes(vec![2.0]); // interior level
            let out = noise.perturb(&train, || rng.next_f64());
            if out.quantized_levels()[0] != 2 {
                errors += 1;
            }
        }
        let empirical = f64::from(errors) / f64::from(trials);
        let model = noise.level_error_probability();
        assert!(
            (empirical - model).abs() < 0.006,
            "empirical {empirical} vs model {model}"
        );
    }

    #[test]
    fn negative_power_is_clamped() {
        let noise = AmplitudeNoise::new(5.0);
        let mut rng = SplitMix64::seed_from_u64(3);
        let train = PulseTrain::from_amplitudes(vec![0.1; 64]);
        let out = noise.perturb(&train, move || rng.next_f64());
        assert!(out.iter().all(|a| a >= 0.0));
    }
}
