//! Physical constants and paper-quoted device parameters.

use crate::units::{Energy, Length, Time};

/// Speed of light in vacuum \[m/s\].
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Refractive index of silicon at 1550 nm (paper §IV-A2).
pub const N_SILICON: f64 = 3.48;

/// Operating wavelength of the photonic layer \[m\] (C-band, 1550 nm).
pub const OPERATING_WAVELENGTH: f64 = 1550e-9;

/// Propagation delay through `length` of silicon (Eq. 7 form: `d · n_Si/c`).
#[must_use]
pub fn silicon_propagation_delay(length: Length) -> Time {
    Time::new(length.value() * N_SILICON / SPEED_OF_LIGHT)
}

/// MRR radius quoted by the paper [µm → m] (§II-A1, 7.5 µm).
#[must_use]
pub fn mrr_radius() -> Length {
    Length::from_micrometres(7.5)
}

/// MRR modulation energy per bit-slot. The paper's device citation (§II-A1,
/// Zheng et al.) quotes ≤100 fJ/bit, which is also the value that makes the
/// Table II optical-multiply energies consistent; the §IV-C worked example
/// instead uses [`mrr_worked_example_energy`] (see DESIGN.md §6).
#[must_use]
pub fn mrr_energy_per_bit() -> Energy {
    Energy::from_femtojoules(100.0)
}

/// The 500 fJ per MRR per bit-slot figure used by the paper's §IV-C worked
/// example ("128 × 500 fJ × 4 bits × 4 cycles = 1.024 nJ").
#[must_use]
pub fn mrr_worked_example_energy() -> Energy {
    Energy::from_femtojoules(500.0)
}

/// MZI modulation energy per bit (§IV-A2, 32.4 fJ/bit from Ding et al.).
#[must_use]
pub fn mzi_energy_per_bit() -> Energy {
    Energy::from_femtojoules(32.4)
}

/// MZI phase-shifter arm length (§IV-A2, 2 mm).
#[must_use]
pub fn mzi_arm_length() -> Length {
    Length::from_millimetres(2.0)
}

/// Silicon waveguide pitch (§II-A3, 5.5 µm).
#[must_use]
pub fn waveguide_pitch() -> Length {
    Length::from_micrometres(5.5)
}

/// Waveguide propagation delay per unit length (§II-A3, 10.45 ps/mm).
pub const WAVEGUIDE_DELAY_PS_PER_MM: f64 = 10.45;

/// Waveguide attenuation (§II-A3, 1.3 dB/cm).
pub const WAVEGUIDE_LOSS_DB_PER_CM: f64 = 1.3;

/// Optical clock frequency used throughout the evaluation \[Hz\] (10 GHz).
pub const OPTICAL_CLOCK_HZ: f64 = 10.0e9;

/// Electrical clock frequency used throughout the evaluation \[Hz\] (1 GHz).
pub const ELECTRICAL_CLOCK_HZ: f64 = 1.0e9;

/// Maximum wavelengths per on-chip laser channel (§II-A3, 128).
pub const MAX_WAVELENGTHS_PER_CHANNEL: usize = 128;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq7_mrr_s_path_delay() {
        // Paper Eq. 7: d = 2π·7.5 µm ≈ 47.1 µm ⇒ t ≈ 0.547 ps.
        let d = Length::from_micrometres(2.0 * std::f64::consts::PI * 7.5);
        let t = silicon_propagation_delay(d);
        assert!((t.as_picos() - 0.547).abs() < 0.005, "got {}", t.as_picos());
    }

    #[test]
    fn paper_quoted_defaults() {
        assert!((mrr_radius().as_micrometres() - 7.5).abs() < 1e-12);
        assert!((mrr_energy_per_bit().as_femtojoules() - 100.0).abs() < 1e-9);
        assert!((mrr_worked_example_energy().as_femtojoules() - 500.0).abs() < 1e-9);
        assert!((mzi_energy_per_bit().as_femtojoules() - 32.4).abs() < 1e-9);
        assert!((mzi_arm_length().as_millimetres() - 2.0).abs() < 1e-12);
    }
}
