//! End-to-end photonic link budget.
//!
//! Combines laser, modulator, waveguide and detector models into the
//! per-bit energy and loss budget of one WDM home channel: the laser must
//! deliver enough power that, after modulator insertion loss and waveguide
//! attenuation, each pulse still clears the detector's sensitivity.

use crate::laser::FabryPerotLaser;
use crate::photodetector::Photodetector;
use crate::units::{Energy, Length, Power, Time};
use crate::waveguide::Waveguide;

/// A point-to-point photonic link on one wavelength.
#[derive(Debug, Clone, PartialEq)]
pub struct PhotonicLink {
    laser: FabryPerotLaser,
    waveguide: Waveguide,
    detector: Photodetector,
    modulator_loss_db: f64,
    modulation_energy_per_bit: Energy,
    bit_period: Time,
}

impl PhotonicLink {
    /// Creates a link with the given components.
    #[must_use]
    pub fn new(
        laser: FabryPerotLaser,
        waveguide: Waveguide,
        detector: Photodetector,
        modulator_loss_db: f64,
        modulation_energy_per_bit: Energy,
        bit_period: Time,
    ) -> Self {
        Self {
            laser,
            waveguide,
            detector,
            modulator_loss_db,
            modulation_energy_per_bit,
            bit_period,
        }
    }

    /// A link with the paper's defaults: 10 GHz bit period, MRR modulator
    /// (500 fJ/bit, ~1 dB insertion loss), default laser and detector.
    #[must_use]
    pub fn paper_default(length: Length) -> Self {
        Self::new(
            FabryPerotLaser::default(),
            Waveguide::new(length),
            Photodetector::default(),
            1.0,
            crate::constants::mrr_energy_per_bit(),
            Time::new(1.0 / crate::constants::OPTICAL_CLOCK_HZ),
        )
    }

    /// The waveguide span.
    #[must_use]
    pub fn waveguide(&self) -> &Waveguide {
        &self.waveguide
    }

    /// The receiving detector.
    #[must_use]
    pub fn detector(&self) -> &Photodetector {
        &self.detector
    }

    /// Total link loss in dB (modulator + waveguide).
    #[must_use]
    pub fn total_loss_db(&self) -> f64 {
        self.modulator_loss_db + self.waveguide.loss_db()
    }

    /// Minimum laser power per wavelength for the budget to close.
    #[must_use]
    pub fn required_laser_power(&self) -> Power {
        let linear = 10f64.powf(-self.total_loss_db() / 10.0);
        Power::new(self.detector.sensitivity().value() / linear)
    }

    /// One-way propagation latency.
    #[must_use]
    pub fn latency(&self) -> Time {
        self.waveguide.propagation_delay()
    }

    /// Energy to move `bits` bits across the link: modulation + detection +
    /// the laser's share of wall-plug power over the transmission time.
    #[must_use]
    pub fn transfer_energy(&self, bits: usize) -> Energy {
        #[allow(clippy::cast_precision_loss)]
        let n = bits as f64;
        let duration = Time::new(self.bit_period.value() * n);
        let laser_share = Energy::new(
            self.laser.electrical_power().value() / self.laser.wavelengths().max(1) as f64
                * duration.value(),
        );
        self.modulation_energy_per_bit * n + self.detector.energy_per_bit() * n + laser_share
    }

    /// Energy per bit at a given transfer size.
    #[must_use]
    pub fn energy_per_bit(&self, bits: usize) -> Energy {
        #[allow(clippy::cast_precision_loss)]
        let n = (bits.max(1)) as f64;
        Energy::new(self.transfer_energy(bits).value() / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_comes_from_waveguide() {
        let link = PhotonicLink::paper_default(Length::from_millimetres(2.0));
        assert!((link.latency().as_picos() - 20.9).abs() < 1e-9);
    }

    #[test]
    fn transfer_energy_scales_superlinearly_never_sublinearly() {
        let link = PhotonicLink::paper_default(Length::from_millimetres(2.0));
        let e1 = link.transfer_energy(8);
        let e2 = link.transfer_energy(16);
        assert!((e2.value() - 2.0 * e1.value()).abs() < 1e-18);
        assert!(link.energy_per_bit(8).value() > 0.0);
    }
}
