//! Silicon waveguide model.
//!
//! Paper §II-A3: pitch 5.5 µm, propagation delay 10.45 ps/mm, attenuation
//! 1.3 dB/cm.

use crate::constants;
use crate::signal::PulseTrain;
use crate::units::{Length, Time};

/// A straight on-chip silicon waveguide segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waveguide {
    length: Length,
    delay_ps_per_mm: f64,
    loss_db_per_cm: f64,
}

impl Waveguide {
    /// Creates a waveguide of the given length with the paper's delay and
    /// loss coefficients.
    #[must_use]
    pub fn new(length: Length) -> Self {
        Self {
            length,
            delay_ps_per_mm: constants::WAVEGUIDE_DELAY_PS_PER_MM,
            loss_db_per_cm: constants::WAVEGUIDE_LOSS_DB_PER_CM,
        }
    }

    /// Physical length.
    #[must_use]
    pub fn length(&self) -> Length {
        self.length
    }

    /// Propagation delay over the full length.
    #[must_use]
    pub fn propagation_delay(&self) -> Time {
        Time::from_picos(self.delay_ps_per_mm * self.length.as_millimetres())
    }

    /// Total insertion loss in dB.
    #[must_use]
    pub fn loss_db(&self) -> f64 {
        self.loss_db_per_cm * self.length.as_centimetres()
    }

    /// Linear power transmission factor `10^(-loss_dB/10)`.
    #[must_use]
    pub fn transmission(&self) -> f64 {
        10f64.powf(-self.loss_db() / 10.0)
    }

    /// Propagates a pulse train through the waveguide, applying loss. The
    /// (sub-slot) propagation delay is reported separately by
    /// [`Self::propagation_delay`]; slot alignment is preserved because the
    /// architecture delay-matches paths.
    #[must_use]
    pub fn propagate(&self, input: &PulseTrain) -> PulseTrain {
        input.attenuated(self.transmission())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_delay_coefficient() {
        let wg = Waveguide::new(Length::from_millimetres(1.0));
        assert!((wg.propagation_delay().as_picos() - 10.45).abs() < 1e-9);
    }

    #[test]
    fn paper_loss_coefficient() {
        let wg = Waveguide::new(Length::from_centimetres(1.0));
        assert!((wg.loss_db() - 1.3).abs() < 1e-12);
        // 1.3 dB ≈ 74.1% transmission.
        assert!((wg.transmission() - 0.7413).abs() < 1e-3);
    }

    #[test]
    fn zero_length_is_lossless() {
        let wg = Waveguide::new(Length::ZERO);
        assert!((wg.transmission() - 1.0).abs() < 1e-12);
        assert!(wg.propagation_delay().as_picos().abs() < 1e-12);
    }

    #[test]
    fn propagate_attenuates_amplitudes() {
        let wg = Waveguide::new(Length::from_centimetres(1.0));
        let out = wg.propagate(&PulseTrain::from_bits(0b11, 2));
        assert!((out.total_amplitude() - 2.0 * wg.transmission()).abs() < 1e-12);
    }

    #[test]
    fn loss_composes_linearly_in_db() {
        let a = Waveguide::new(Length::from_centimetres(1.0));
        let b = Waveguide::new(Length::from_centimetres(2.0));
        assert!((b.loss_db() - 2.0 * a.loss_db()).abs() < 1e-12);
        assert!((b.transmission() - a.transmission().powi(2)).abs() < 1e-12);
    }
}
