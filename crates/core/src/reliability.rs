//! Thermal-drift reliability: what happens when a ring heater fails.
//!
//! §II-A1 motivates the ring heaters: MRRs are thermally sensitive. Here
//! we close the loop functionally — a detuned ring's drop-port
//! transmission (from the Lorentzian spectral model) attenuates the
//! neuron pulse train before the receiver, and we measure at what
//! temperature offset the bit-true OE multiply starts failing. The result
//! is the thermal margin the heater control loop must hold.

use pixel_electronics::converter::SerialConverter;
use pixel_photonics::mrr::DoubleMrrFilter;
use pixel_photonics::signal::PulseTrain;
use pixel_photonics::spectral::RingSpectrum;

/// Receiver decision threshold (fraction of a unit pulse).
pub const RECEIVER_THRESHOLD: f64 = 0.5;

/// An OE-style optical AND whose rings sit `delta_kelvin` away from
/// their heater setpoint.
#[derive(Debug, Clone)]
pub struct DetunedAnd {
    filter: DoubleMrrFilter,
    transmission: f64,
    bits: u32,
}

impl DetunedAnd {
    /// Creates the unit at `bits` precision with a thermal offset.
    #[must_use]
    pub fn new(bits: u32, delta_kelvin: f64) -> Self {
        let nominal = RingSpectrum::paper_default();
        let drifted = nominal.thermally_shifted(delta_kelvin);
        // The drive targets the nominal resonance; the drifted ring only
        // couples this fraction of the pulse power (squared: two rings).
        let single = drifted.drop_transmission(nominal.resonance());
        Self {
            filter: DoubleMrrFilter::default(),
            transmission: single * single,
            bits,
        }
    }

    /// Power transmission of the detuned double filter.
    #[must_use]
    pub fn transmission(&self) -> f64 {
        self.transmission
    }

    /// Performs the optical AND and receiver decision; returns the decoded
    /// word, or `None` if decoding failed outright.
    #[must_use]
    pub fn and_decode(&self, neuron: u64, synapse_bit: bool) -> Option<u64> {
        let train = PulseTrain::from_bits(neuron, self.bits as usize);
        let dropped = self.filter.and(&train, synapse_bit);
        let attenuated = dropped.attenuated(self.transmission);
        // Threshold receiver: a slot counts as 1 above half a pulse.
        let levels: Vec<u32> = attenuated
            .iter()
            .map(|a| u32::from(a > RECEIVER_THRESHOLD))
            .collect();
        SerialConverter::new(self.bits).decode(&levels).ok()
    }

    /// Whether the unit still computes the AND correctly for `neuron`.
    #[must_use]
    pub fn is_correct(&self, neuron: u64, synapse_bit: bool) -> bool {
        let expected = if synapse_bit { neuron } else { 0 };
        self.and_decode(neuron, synapse_bit) == Some(expected)
    }
}

/// The largest thermal offset (in steps of `step_kelvin`) at which the
/// optical AND still decodes every `bits`-bit word correctly.
#[must_use]
pub fn thermal_margin_kelvin(bits: u32, step_kelvin: f64, max_kelvin: f64) -> f64 {
    let mut last_good = 0.0;
    let mut dt = 0.0;
    let limit = (1u64 << bits) - 1;
    while dt <= max_kelvin {
        let unit = DetunedAnd::new(bits, dt);
        // All-ones is the worst case (every slot must clear threshold).
        if unit.is_correct(limit, true) && unit.is_correct(limit, false) {
            last_good = dt;
        } else {
            break;
        }
        dt += step_kelvin;
    }
    last_good
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_setpoint_is_transparent() {
        let unit = DetunedAnd::new(8, 0.0);
        assert!((unit.transmission() - 1.0).abs() < 1e-9);
        assert_eq!(unit.and_decode(0xA5, true), Some(0xA5));
        assert_eq!(unit.and_decode(0xA5, false), Some(0));
    }

    #[test]
    fn transmission_falls_with_drift() {
        let t = |dt: f64| DetunedAnd::new(8, dt).transmission();
        assert!(t(0.5) > t(1.0));
        assert!(t(1.0) > t(2.0));
        assert!(t(5.0) < 0.01, "5 K kills the double filter: {}", t(5.0));
    }

    #[test]
    fn failure_is_graceful_ones_drop_to_zeros() {
        // A badly detuned ring reads all-dark: the AND collapses to 0
        // rather than producing garbage.
        let unit = DetunedAnd::new(8, 10.0);
        assert_eq!(unit.and_decode(0xFF, true), Some(0));
        assert!(!unit.is_correct(0xFF, true));
        assert!(unit.is_correct(0x00, true), "zero words unaffected");
    }

    #[test]
    fn margin_is_precision_independent() {
        // The threshold decision is per-slot, so word width doesn't move it.
        let m4 = thermal_margin_kelvin(4, 0.05, 5.0);
        let m16 = thermal_margin_kelvin(16, 0.05, 5.0);
        assert!((m4 - m16).abs() < 1e-9);
    }
}
