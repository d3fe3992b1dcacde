//! Spectral (wavelength-domain) microring model.
//!
//! The logic-level [`crate::mrr`] model treats the double-MRR filter as an
//! ideal switch; this module supplies the underlying physics the paper's
//! device citations describe: the Lorentzian drop response around
//! resonance and its thermal drift, which the heater loop in
//! [`crate::thermal`] cancels.

use crate::constants;

/// A single microring resonator's spectral response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingSpectrum {
    resonance_m: f64,
    q_factor: f64,
}

impl RingSpectrum {
    /// Creates a ring resonant at `resonance_m` (metres) with loaded
    /// quality factor `q_factor`.
    ///
    /// # Panics
    ///
    /// Panics if the resonance wavelength or Q is not positive.
    #[must_use]
    pub fn new(resonance_m: f64, q_factor: f64) -> Self {
        assert!(resonance_m > 0.0, "resonance must be positive");
        assert!(q_factor > 0.0, "Q must be positive");
        Self {
            resonance_m,
            q_factor,
        }
    }

    /// The paper's ring (7.5 µm radius) at 1550 nm with a loaded Q of
    /// 10 000 — representative of the cited 25 Gb/s modulators.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(constants::OPERATING_WAVELENGTH, 10_000.0)
    }

    /// Resonance wavelength \[m\].
    #[must_use]
    pub fn resonance(&self) -> f64 {
        self.resonance_m
    }

    /// Loaded quality factor.
    #[must_use]
    pub fn q_factor(&self) -> f64 {
        self.q_factor
    }

    /// Full-width-half-maximum linewidth `λ/Q` \[m\].
    #[must_use]
    pub fn linewidth(&self) -> f64 {
        self.resonance_m / self.q_factor
    }

    /// Drop-port power transmission at wavelength `lambda_m`: a Lorentzian
    /// of unit peak at resonance,
    /// `T_drop(δ) = 1 / (1 + (2δ/FWHM)²)` with `δ = λ − λ₀`.
    #[must_use]
    pub fn drop_transmission(&self, lambda_m: f64) -> f64 {
        let delta = lambda_m - self.resonance_m;
        let x = 2.0 * delta / self.linewidth();
        1.0 / (1.0 + x * x)
    }

    /// Returns a copy red-shifted by a temperature change \[K\], using the
    /// silicon thermo-optic drift of ≈0.08 nm/K at 1550 nm — the thermal
    /// sensitivity §II-A1's ring heaters exist to cancel.
    #[must_use]
    pub fn thermally_shifted(&self, delta_kelvin: f64) -> Self {
        let shift = 0.08e-9 * delta_kelvin;
        Self {
            resonance_m: self.resonance_m + shift,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> RingSpectrum {
        RingSpectrum::paper_default()
    }

    #[test]
    fn unit_drop_on_resonance() {
        let r = ring();
        assert!((r.drop_transmission(r.resonance()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn half_power_at_half_linewidth() {
        let r = ring();
        let t = r.drop_transmission(r.resonance() + r.linewidth() / 2.0);
        assert!((t - 0.5).abs() < 1e-9);
    }

    #[test]
    fn linewidth_is_lambda_over_q() {
        assert!((ring().linewidth() * 1e9 - 0.155).abs() < 1e-3); // λ/Q = 0.155 nm
    }

    #[test]
    fn thermal_drift_detunes_the_ring() {
        let r = ring();
        let hot = r.thermally_shifted(5.0); // +0.4 nm
        let t = hot.drop_transmission(r.resonance());
        assert!(t < 0.05, "5 K of drift kills the drop efficiency: {t}");
        // The heater-corrected ring (shift back) recovers.
        let corrected = hot.thermally_shifted(-5.0);
        assert!((corrected.drop_transmission(r.resonance()) - 1.0).abs() < 1e-9);
    }
}
