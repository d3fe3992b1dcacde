//! Germanium-doped photodetector and back-end receiver model.
//!
//! Paper §II-A3: Ge photodiodes with transimpedance amplifiers recover
//! transmitted bits. (The all-optical design's current-comparator ladder,
//! o/e converter design 2, is `pixel_electronics::converter`.)

use crate::signal::PulseTrain;
use crate::units::{Energy, Power};

/// A germanium photodiode with receiver back end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Photodetector {
    sensitivity: Power,
    energy_per_bit: Energy,
}

impl Photodetector {
    /// Creates a detector with the given sensitivity (minimum detectable
    /// power per pulse) and receiver energy per bit.
    #[must_use]
    pub fn new(sensitivity: Power, energy_per_bit: Energy) -> Self {
        Self {
            sensitivity,
            energy_per_bit,
        }
    }

    /// Minimum detectable optical power for one pulse level.
    #[must_use]
    pub fn sensitivity(&self) -> Power {
        self.sensitivity
    }

    /// Receiver energy per detected bit slot (TIA + amplifier + CDR).
    #[must_use]
    pub fn energy_per_bit(&self) -> Energy {
        self.energy_per_bit
    }

    /// Detects a binary train: each slot above half the unit-pulse power
    /// (with `unit_pulse` being the power of one launched pulse at the
    /// detector) is a 1. Returns the decoded word, LSB in slot 0, or `None`
    /// if a slot holds more than one pulse (binary receivers saturate).
    /// A packed on-off-keyed train holds only 0/1 slots, so its mask is
    /// the word.
    #[must_use]
    #[inline]
    pub fn detect_binary(&self, train: &PulseTrain, unit_pulse: Power) -> Option<u64> {
        if unit_pulse < self.sensitivity {
            return None;
        }
        if let Some(word) = train.packed_word() {
            return Some(word);
        }
        let mut word = 0u64;
        for (i, amp) in train.iter().enumerate() {
            let level = amp; // amplitudes are in unit-pulse counts
            if level > 1.5 {
                return None;
            }
            if level > 0.5 {
                if i >= 64 {
                    return None;
                }
                word |= 1 << i;
            }
        }
        Some(word)
    }

    /// Receiver energy to process a train of `slots` bit slots.
    #[must_use]
    pub fn detection_energy(&self, slots: usize) -> Energy {
        #[allow(clippy::cast_precision_loss)]
        let n = slots as f64;
        self.energy_per_bit * n
    }
}

impl Default for Photodetector {
    /// −20 dBm (10 µW) sensitivity and a 50 fJ/bit receiver —
    /// representative Ge detector values.
    fn default() -> Self {
        Self::new(Power::from_microwatts(10.0), Energy::from_femtojoules(50.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_detection_round_trip() {
        let pd = Photodetector::default();
        let train = PulseTrain::from_bits(0b1011, 4);
        let word = pd.detect_binary(&train, Power::from_microwatts(100.0));
        assert_eq!(word, Some(0b1011));
    }

    #[test]
    fn binary_detection_rejects_multilevel() {
        let pd = Photodetector::default();
        let t = PulseTrain::from_bits(0b1, 1).superpose(&PulseTrain::from_bits(0b1, 1));
        assert_eq!(pd.detect_binary(&t, Power::from_microwatts(100.0)), None);
    }

    #[test]
    fn detection_fails_below_sensitivity() {
        let pd = Photodetector::default();
        let t = PulseTrain::from_bits(0b1, 1);
        assert_eq!(pd.detect_binary(&t, Power::from_microwatts(1.0)), None);
    }

    #[test]
    fn binary_detection_agrees_on_packed_and_slot_trains() {
        use crate::signal::{WavelengthId, WdmSignal};
        use pixel_units::rng::SplitMix64;
        let pd = Photodetector::default();
        let (bright, dim) = (Power::from_microwatts(100.0), Power::from_microwatts(1.0));
        let mut rng = SplitMix64::seed_from_u64(0xDE7);
        for len in 0..=64 {
            for _ in 0..8 {
                let word = if len == 0 {
                    0
                } else {
                    rng.next_u64() >> (64 - len)
                };
                let packed = PulseTrain::from_bits(word, len);
                let slots: PulseTrain = packed.iter().collect();
                assert_eq!(pd.detect_binary(&packed, bright), Some(word), "len={len}");
                assert_eq!(pd.detect_binary(&slots, bright), Some(word), "len={len}");
                assert_eq!(pd.detect_binary(&packed, dim), None, "len={len}");
                assert_eq!(pd.detect_binary(&slots, dim), None, "len={len}");
                // Two packed trains muxed onto one wavelength collide at
                // level 2 wherever both are lit.
                if word != 0 {
                    let mut signal = WdmSignal::new();
                    signal.mux(WavelengthId(1), packed.clone());
                    signal.mux(WavelengthId(1), PulseTrain::from_bits(word, len));
                    let arrived = signal.demux(WavelengthId(1));
                    assert_eq!(pd.detect_binary(&arrived, bright), None, "len={len}");
                }
            }
        }
    }

    #[test]
    fn detection_energy_scales_with_slots() {
        let pd = Photodetector::default();
        assert!((pd.detection_energy(10).as_femtojoules() - 500.0).abs() < 1e-9);
    }
}
