//! On-chip InP Fabry-Pérot laser model.
//!
//! Paper §II-A3: 50 µm × 300 µm × 5 µm lasers with short turn-on delay,
//! each channel operating up to 128 wavelengths.

use crate::constants::MAX_WAVELENGTHS_PER_CHANNEL;
use crate::units::{Area, Energy, Length, Power, Time};

/// Error returned when a laser is asked for more wavelengths than one
/// channel supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExceedsChannelCapacityError {
    /// Wavelengths requested.
    pub requested: usize,
    /// Channel capacity.
    pub capacity: usize,
}

impl std::fmt::Display for ExceedsChannelCapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "requested {} wavelengths but one laser channel supports {}",
            self.requested, self.capacity
        )
    }
}

impl std::error::Error for ExceedsChannelCapacityError {}

/// An on-chip InP-based Fabry-Pérot comb laser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabryPerotLaser {
    power_per_wavelength: Power,
    wall_plug_efficiency: f64,
    wavelengths: usize,
}

impl FabryPerotLaser {
    /// Creates a laser driving `wavelengths` WDM channels at
    /// `power_per_wavelength` optical output each.
    ///
    /// # Errors
    ///
    /// Returns [`ExceedsChannelCapacityError`] if `wavelengths` exceeds the
    /// 128-wavelength channel capacity the paper cites.
    pub fn new(
        wavelengths: usize,
        power_per_wavelength: Power,
        wall_plug_efficiency: f64,
    ) -> Result<Self, ExceedsChannelCapacityError> {
        if wavelengths > MAX_WAVELENGTHS_PER_CHANNEL {
            return Err(ExceedsChannelCapacityError {
                requested: wavelengths,
                capacity: MAX_WAVELENGTHS_PER_CHANNEL,
            });
        }
        Ok(Self {
            power_per_wavelength,
            wall_plug_efficiency: wall_plug_efficiency.clamp(1e-6, 1.0),
            wavelengths,
        })
    }

    /// Number of wavelengths generated.
    #[must_use]
    pub fn wavelengths(&self) -> usize {
        self.wavelengths
    }

    /// Total optical output power.
    #[must_use]
    pub fn optical_power(&self) -> Power {
        #[allow(clippy::cast_precision_loss)]
        let n = self.wavelengths as f64;
        self.power_per_wavelength * n
    }

    /// Electrical power drawn from the supply.
    #[must_use]
    pub fn electrical_power(&self) -> Power {
        Power::new(self.optical_power().value() / self.wall_plug_efficiency)
    }

    /// Electrical energy consumed while lasing for `duration`.
    #[must_use]
    pub fn energy_over(&self, duration: Time) -> Energy {
        self.electrical_power() * duration
    }

    /// Die footprint (50 µm × 300 µm; height ignored for area).
    #[must_use]
    pub fn area(&self) -> Area {
        Length::from_micrometres(50.0) * Length::from_micrometres(300.0)
    }
}

impl Default for FabryPerotLaser {
    /// A 4-wavelength comb at 1 mW/λ and 10% wall-plug efficiency —
    /// representative values for on-chip FP combs.
    fn default() -> Self {
        // lint:allow(P002) constant 4 channels is within the 128-channel capacity
        Self::new(4, Power::from_milliwatts(1.0), 0.1).expect("4 <= 128")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_excess_wavelengths() {
        let err = FabryPerotLaser::new(129, Power::from_milliwatts(1.0), 0.1).unwrap_err();
        assert_eq!(err.requested, 129);
        assert_eq!(err.capacity, 128);
        assert!(err.to_string().contains("129"));
    }

    #[test]
    fn accepts_full_channel() {
        let laser = FabryPerotLaser::new(128, Power::from_milliwatts(1.0), 0.1).unwrap();
        assert_eq!(laser.wavelengths(), 128);
        assert!((laser.optical_power().as_milliwatts() - 128.0).abs() < 1e-9);
    }

    #[test]
    fn wall_plug_scales_electrical_power() {
        let laser = FabryPerotLaser::new(1, Power::from_milliwatts(1.0), 0.25).unwrap();
        assert!((laser.electrical_power().as_milliwatts() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn energy_over_duration() {
        let laser = FabryPerotLaser::new(1, Power::from_milliwatts(1.0), 0.5).unwrap();
        let e = laser.energy_over(Time::from_nanos(10.0));
        // 2 mW × 10 ns = 20 pJ.
        assert!((e.as_picojoules() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn footprint_matches_paper_dimensions() {
        let laser = FabryPerotLaser::default();
        assert!((laser.area().as_square_micrometres() - 15_000.0).abs() < 1e-6);
    }

    #[test]
    fn efficiency_is_clamped() {
        let laser = FabryPerotLaser::new(1, Power::from_milliwatts(1.0), 3.0).unwrap();
        assert!((laser.wall_plug_efficiency - 1.0).abs() < 1e-12);
    }
}
