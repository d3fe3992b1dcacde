//! Optical-to-electrical converter back-end logic.
//!
//! Paper §II-A3 describes two o/e converter designs:
//!
//! * **Design 1** (used by OE): a photodiode feeds shift registers that
//!   deserialize binary optical pulses into a parallel electrical word.
//! * **Design 2** (used by OO): pulses arrive with multi-pulse amplitudes,
//!   so the photocurrent passes through a current-comparator ladder; the
//!   resolved per-slot levels are combined positionally (`Σ level·2^slot`)
//!   by back-end logic.
//!
//! The photodiode itself lives in `pixel-photonics`; this module is the
//! digital/analog back end that the electrical energy model charges for.

use crate::comparator::ComparatorLadder;
use crate::gates::{GateCount, LogicDepth};
use crate::register::GATES_PER_FLIPFLOP;

/// Error returned when a converter cannot decode its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// A slot carried an amplitude the converter cannot represent.
    LevelOutOfRange {
        /// Slot index.
        slot: usize,
        /// Level observed.
        level: u32,
        /// Maximum level supported.
        max: u32,
    },
    /// The decoded word exceeds 64 bits.
    WordOverflow,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LevelOutOfRange { slot, level, max } => {
                write!(f, "slot {slot} level {level} exceeds converter range {max}")
            }
            Self::WordOverflow => write!(f, "decoded word exceeds 64 bits"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Design 1: serial binary pulses → parallel word via shift register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SerialConverter {
    bits: u32,
}

impl SerialConverter {
    /// Creates a converter deserializing words of `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or exceeds 64.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        assert!((1..=64).contains(&bits), "word width must be 1..=64");
        Self { bits }
    }

    /// Word width.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Decodes per-slot binary levels (LSB in slot 0) into a word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::LevelOutOfRange`] if any slot level exceeds 1
    /// (binary receivers saturate) or [`DecodeError::WordOverflow`] if more
    /// than `bits` slots are supplied with data past the width.
    pub fn decode(&self, levels: &[u32]) -> Result<u64, DecodeError> {
        let mut word = 0u64;
        for (slot, &level) in levels.iter().enumerate() {
            if level > 1 {
                return Err(DecodeError::LevelOutOfRange {
                    slot,
                    level,
                    max: 1,
                });
            }
            if level == 1 {
                if slot >= self.bits as usize {
                    return Err(DecodeError::WordOverflow);
                }
                word |= 1 << slot;
            }
        }
        Ok(word)
    }

    /// Gate count: one flip-flop per bit of shift register plus load logic.
    #[must_use]
    pub fn gate_count(&self) -> GateCount {
        GateCount::new(u64::from(self.bits) * (GATES_PER_FLIPFLOP + 2))
    }

    /// Logic depth per slot: shift (1 level).
    #[must_use]
    pub fn logic_depth(&self) -> LogicDepth {
        LogicDepth::new(1)
    }
}

/// Design 2: multi-level amplitudes → accumulated value via comparator
/// ladder and positional combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AmplitudeConverter {
    ladder: ComparatorLadder,
}

impl AmplitudeConverter {
    /// Creates a converter resolving up to `max_level` pulses per slot
    /// (`max_level` = number of signals summed optically).
    ///
    /// # Panics
    ///
    /// Panics if `max_level` is zero.
    #[must_use]
    pub fn new(max_level: u32) -> Self {
        Self {
            ladder: ComparatorLadder::new(max_level),
        }
    }

    /// Maximum per-slot pulse level.
    #[must_use]
    pub fn max_level(&self) -> u32 {
        self.ladder.levels()
    }

    /// Decodes per-slot amplitudes into the accumulated value
    /// `Σ level(slot)·2^slot`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::LevelOutOfRange`] on over-range slots and
    /// [`DecodeError::WordOverflow`] if the positional sum exceeds `u64`.
    pub fn decode(&self, amplitudes: &[f64]) -> Result<u64, DecodeError> {
        let mut total: u64 = 0;
        for (slot, &amp) in amplitudes.iter().enumerate() {
            let level = self.ladder.resolve(amp).ok_or_else(|| {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let level = amp.round().max(0.0) as u32;
                DecodeError::LevelOutOfRange {
                    slot,
                    level,
                    max: self.ladder.levels(),
                }
            })?;
            if level > 0 {
                if slot >= 64 {
                    return Err(DecodeError::WordOverflow);
                }
                let term = u64::from(level)
                    .checked_shl(u32::try_from(slot).map_err(|_| DecodeError::WordOverflow)?)
                    .ok_or(DecodeError::WordOverflow)?;
                total = total.checked_add(term).ok_or(DecodeError::WordOverflow)?;
            }
        }
        Ok(total)
    }

    /// Gate count: the ladder plus a positional adder (~`4` gates/bit over
    /// a 32-bit combine path).
    #[must_use]
    pub fn gate_count(&self) -> GateCount {
        self.ladder.gate_count() + GateCount::new(32 * 4)
    }

    /// Depth: ladder then combine adder.
    #[must_use]
    pub fn logic_depth(&self) -> LogicDepth {
        self.ladder.logic_depth().then(LogicDepth::new(6))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_decode_round_trip() {
        let c = SerialConverter::new(8);
        assert_eq!(c.decode(&[1, 0, 1, 1, 0, 0, 0, 0]).unwrap(), 0b1101);
        assert_eq!(c.decode(&[]).unwrap(), 0);
    }

    #[test]
    fn serial_rejects_multilevel() {
        let c = SerialConverter::new(8);
        let err = c.decode(&[0, 2]).unwrap_err();
        assert!(matches!(err, DecodeError::LevelOutOfRange { slot: 1, .. }));
        assert!(err.to_string().contains("slot 1"));
    }

    #[test]
    fn serial_rejects_overflow_past_width() {
        let c = SerialConverter::new(2);
        assert!(c.decode(&[0, 0, 1]).is_err());
        // Dark slots past the width are harmless.
        assert_eq!(c.decode(&[1, 1, 0, 0]).unwrap(), 3);
    }

    #[test]
    fn amplitude_decode_positional() {
        let c = AmplitudeConverter::new(4);
        // levels [3, 0, 2, 1] → 3 + 2·4 + 1·8 = 19.
        assert_eq!(c.decode(&[3.0, 0.0, 2.0, 1.0]).unwrap(), 19);
    }

    #[test]
    fn amplitude_decode_tolerates_analog_noise() {
        let c = AmplitudeConverter::new(4);
        assert_eq!(c.decode(&[2.96, 0.04, 1.98]).unwrap(), 3 + 2 * 4);
    }

    #[test]
    fn amplitude_rejects_over_range() {
        let c = AmplitudeConverter::new(2);
        let err = c.decode(&[3.0]).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::LevelOutOfRange {
                slot: 0,
                level: 3,
                max: 2
            }
        ));
    }

    #[test]
    fn gate_models_scale_with_capability() {
        assert!(AmplitudeConverter::new(8).gate_count() > AmplitudeConverter::new(2).gate_count());
        assert!(SerialConverter::new(32).gate_count() > SerialConverter::new(8).gate_count());
    }
}
