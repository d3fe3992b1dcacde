//! Ring-heater thermal tuning model.
//!
//! Paper §II-A1: MRRs are thermally sensitive; ring heaters hold each ring
//! on resonance. This module models the static tuning power as a function
//! of temperature offset, used as an optional overhead term in the energy
//! model (the paper folds it into laser/communication overhead).

use crate::spectral::RingSpectrum;
use crate::units::{Energy, Power, Time};

/// Thermal tuning model for a bank of microrings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingHeaterBank {
    rings: usize,
    tuning_power_per_ring: Power,
    duty_cycle: f64,
}

impl RingHeaterBank {
    /// Creates a heater bank for `rings` rings at `tuning_power_per_ring`
    /// average heater power, active `duty_cycle` of the time (0..=1).
    #[must_use]
    pub fn new(rings: usize, tuning_power_per_ring: Power, duty_cycle: f64) -> Self {
        Self {
            rings,
            tuning_power_per_ring,
            duty_cycle: duty_cycle.clamp(0.0, 1.0),
        }
    }

    /// Average total heater power.
    #[must_use]
    pub fn total_power(&self) -> Power {
        #[allow(clippy::cast_precision_loss)]
        let n = self.rings as f64;
        self.tuning_power_per_ring * n * self.duty_cycle
    }

    /// Heater energy over `duration`.
    #[must_use]
    pub fn energy_over(&self, duration: Time) -> Energy {
        self.total_power() * duration
    }
}

impl Default for RingHeaterBank {
    /// 32 rings at a representative 0.1 mW/ring, always on.
    fn default() -> Self {
        Self::new(32, Power::from_milliwatts(0.1), 1.0)
    }
}

/// A proportional heater control loop holding one ring on resonance.
///
/// §II-A1: "ring heaters are used to ensure that the wavelength drift is
/// avoided". The controller observes the drop-port power of a probe at
/// the target wavelength and adjusts its heater drive; heating red-shifts
/// the resonance at the silicon thermo-optic rate, so the loop must
/// *pre-bias* the ring blue of target and heat into lock, then track
/// ambient changes.
#[derive(Debug, Clone, PartialEq)]
pub struct HeaterController {
    ring: RingSpectrum,
    target_m: f64,
    heater_kelvin: f64,
    gain: f64,
    max_heater_kelvin: f64,
}

/// Silicon thermo-optic drift used by the loop [m/K] (0.08 nm/K).
const DRIFT_M_PER_KELVIN: f64 = 0.08e-9;

impl HeaterController {
    /// Creates a controller locking `ring` to the probe wavelength
    /// `target_m`, with proportional `gain` (fraction of the observed
    /// kelvin-equivalent error corrected per step) and a heater able to
    /// add up to `max_heater_kelvin`.
    #[must_use]
    pub fn new(ring: RingSpectrum, target_m: f64, gain: f64, max_heater_kelvin: f64) -> Self {
        Self {
            ring,
            target_m,
            heater_kelvin: 0.0,
            gain: gain.clamp(0.0, 1.0),
            max_heater_kelvin,
        }
    }

    /// The ring as currently tuned, under `ambient_kelvin` of external
    /// drift plus the heater's contribution.
    #[must_use]
    pub fn tuned_ring(&self, ambient_kelvin: f64) -> RingSpectrum {
        self.ring
            .thermally_shifted(ambient_kelvin + self.heater_kelvin)
    }

    /// Runs one control step against an ambient offset: observes the
    /// tuned resonance's offset from the target (in kelvin-equivalents)
    /// and applies a proportional correction, clamped to the heater range
    /// (a heater can only add heat).
    pub fn step(&mut self, ambient_kelvin: f64) {
        let tuned = self.tuned_ring(ambient_kelvin);
        let error_kelvin = (tuned.resonance() - self.target_m) / DRIFT_M_PER_KELVIN;
        self.heater_kelvin =
            (self.heater_kelvin - self.gain * error_kelvin).clamp(0.0, self.max_heater_kelvin);
    }

    /// Drop-port transmission at the target wavelength after `steps`
    /// control iterations at a fixed ambient offset.
    #[must_use]
    pub fn settle(&mut self, ambient_kelvin: f64, steps: usize) -> f64 {
        for _ in 0..steps {
            self.step(ambient_kelvin);
        }
        self.tuned_ring(ambient_kelvin)
            .drop_transmission(self.target_m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_power_scales_with_rings_and_duty() {
        let bank = RingHeaterBank::new(10, Power::from_milliwatts(0.1), 0.5);
        assert!((bank.total_power().as_milliwatts() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn energy_over_duration() {
        let bank = RingHeaterBank::new(1, Power::from_milliwatts(1.0), 1.0);
        let e = bank.energy_over(Time::from_micros(1.0));
        assert!((e.as_nanojoules() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn duty_cycle_clamped() {
        let bank = RingHeaterBank::new(1, Power::from_milliwatts(1.0), 2.0);
        assert!((bank.total_power().as_milliwatts() - 1.0).abs() < 1e-12);
    }

    fn target() -> f64 {
        RingSpectrum::paper_default().resonance()
    }

    #[test]
    fn controller_locks_against_cooling_drift() {
        // Ambient cooling blue-shifts the ring (negative offset); the
        // heater compensates by heating it back on resonance.
        let mut ctl = HeaterController::new(RingSpectrum::paper_default(), target(), 0.5, 20.0);
        let transmission = ctl.settle(-4.0, 50);
        assert!(transmission > 0.999, "locked: {transmission}");
        assert!((ctl.heater_kelvin - 4.0).abs() < 0.01, "heater ≈ +4 K");
    }

    #[test]
    fn controller_cannot_fight_heating_without_prebias() {
        // A heater can only add heat: positive ambient drift with no
        // pre-bias stays detuned (the reason real systems bias the ring
        // blue of target).
        let mut ctl = HeaterController::new(RingSpectrum::paper_default(), target(), 0.5, 20.0);
        let transmission = ctl.settle(4.0, 50);
        assert!(transmission < 0.1, "unlocked: {transmission}");
        assert_eq!(ctl.heater_kelvin, 0.0);
    }

    #[test]
    fn prebias_gives_bidirectional_margin() {
        // Pre-biasing: fabricate the ring 5 K-equivalents blue of the
        // probe; the controller heats into lock and can then track
        // ambient swings of either sign within the bias.
        let prebiased = RingSpectrum::paper_default().thermally_shifted(-5.0);
        for ambient in [-3.0, 0.0, 3.0] {
            let mut ctl = HeaterController::new(prebiased, target(), 0.5, 20.0);
            let locked = ctl.settle(ambient, 60);
            assert!(locked > 0.99, "ambient {ambient}: {locked}");
            assert!((ctl.heater_kelvin - (5.0 - ambient)).abs() < 0.05);
        }
    }
}
