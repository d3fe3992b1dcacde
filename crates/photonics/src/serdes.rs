//! Modulation formats and serialization: OOK vs PAM-4 line coding.
//!
//! The paper's designs modulate on-off-keyed (OOK) pulses — one bit per
//! optical slot. Multi-level pulse-amplitude modulation (PAM-4: two bits
//! per slot on four amplitude levels) is the standard way photonic links
//! double their bit rate at the same symbol rate, and the OO design
//! already pays for a comparator-ladder receiver that can resolve levels.
//! This module provides the serializer onto [`PulseTrain`] plus the
//! formats' drive-energy trade, so the format becomes an architecture
//! knob.

use crate::signal::PulseTrain;
use crate::units::Energy;

/// A line-coding format for one wavelength.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// On-off keying: 1 bit per slot, levels {0, 1}.
    Ook,
    /// 4-level pulse-amplitude modulation: 2 bits per slot,
    /// levels {0, 1, 2, 3}.
    Pam4,
}

impl Format {
    /// Bits carried per optical slot.
    #[must_use]
    pub fn bits_per_slot(self) -> u32 {
        match self {
            Self::Ook => 1,
            Self::Pam4 => 2,
        }
    }

    /// Slots needed to carry `bits` bits.
    #[must_use]
    pub fn slots_for(self, bits: u32) -> u32 {
        bits.div_ceil(self.bits_per_slot())
    }
}

/// Serializes a word onto a pulse train in the given format, LSB-first.
///
/// # Examples
///
/// ```
/// use pixel_photonics::serdes::{serialize, Format};
///
/// let t = serialize(Format::Pam4, 0b1101_0010, 8);
/// assert_eq!(t.len(), 4); // two bits per slot
/// assert_eq!(t.quantized_levels(), vec![2, 0, 1, 3]);
/// ```
///
/// # Panics
///
/// Panics if `bits` is zero or exceeds 64.
#[must_use]
pub fn serialize(format: Format, word: u64, bits: u32) -> PulseTrain {
    assert!((1..=64).contains(&bits), "word width 1..=64");
    match format {
        Format::Ook => PulseTrain::from_bits(word, bits as usize),
        Format::Pam4 => {
            let slots = format.slots_for(bits);
            (0..slots)
                .map(|s| {
                    let symbol = (word >> (2 * s)) & 0b11;
                    #[allow(clippy::cast_precision_loss)]
                    {
                        symbol as f64
                    }
                })
                .collect()
        }
    }
}

/// Modulator drive energy per word: every slot is driven; PAM levels are
/// synthesized with proportionally higher drive swing (level-weighted).
#[must_use]
pub fn modulation_energy(format: Format, bits: u32, energy_per_slot: Energy) -> Energy {
    let slots = f64::from(format.slots_for(bits));
    let swing = match format {
        Format::Ook => 1.0,
        // Mean drive of uniformly distributed 4-level symbols: (0+1+2+3)/4
        // normalized to OOK's 0.5 mean → 3×.
        Format::Pam4 => 3.0,
    };
    energy_per_slot * (slots * swing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_arithmetic() {
        assert_eq!(Format::Ook.slots_for(8), 8);
        assert_eq!(Format::Pam4.slots_for(8), 4);
        assert_eq!(Format::Pam4.slots_for(7), 4);
    }

    #[test]
    fn ook_round_trip_is_from_bits() {
        let t = serialize(Format::Ook, 0b1011, 4);
        assert_eq!(t, PulseTrain::from_bits(0b1011, 4));
    }

    #[test]
    fn pam4_packs_two_bits_per_slot() {
        // 0b11_01_00_10 → symbols (LSB pair first): 2, 0, 1, 3.
        let t = serialize(Format::Pam4, 0b1101_0010, 8);
        assert_eq!(t.len(), 4);
        assert_eq!(t.quantized_levels(), vec![2, 0, 1, 3]);
    }

    #[test]
    fn pam4_costs_more_drive_energy() {
        let per_slot = Energy::from_femtojoules(100.0);
        let ook = modulation_energy(Format::Ook, 16, per_slot);
        let pam = modulation_energy(Format::Pam4, 16, per_slot);
        // Half the slots × 3× the swing = 1.5× the energy.
        assert!((pam.value() / ook.value() - 1.5).abs() < 1e-12);
    }
}
