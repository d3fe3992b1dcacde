//! SRAM weight buffer model.
//!
//! Per-tile register files hold the active filter, but full layers live
//! in on-chip SRAM (as in every accelerator the paper compares against).
//! This module provides the 6T-cell SRAM macro model — capacity, area,
//! read/write energy — that the weight-streaming path prices.

use crate::technology::Technology;
use pixel_units::{Area, Energy};

/// A single-port SRAM macro of `words × word_bits`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramMacro {
    words: usize,
    word_bits: u32,
}

impl SramMacro {
    /// 6T cell area in gate-equivalents (a 6T bitcell is much denser than
    /// random logic; ≈0.25 gate-equivalents each at iso-node).
    pub const CELL_GATE_EQUIVALENT: f64 = 0.25;

    /// Dynamic energy per accessed bit relative to one gate switch
    /// (bitline + sense amplifier share).
    pub const ACCESS_ENERGY_PER_BIT_GATES: f64 = 2.0;

    /// Creates a macro.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `word_bits > 64`.
    #[must_use]
    pub fn new(words: usize, word_bits: u32) -> Self {
        assert!(words > 0, "at least one word");
        assert!((1..=64).contains(&word_bits), "word width 1..=64");
        Self { words, word_bits }
    }

    /// Capacity in bits.
    #[must_use]
    pub fn capacity_bits(&self) -> u64 {
        self.words as u64 * u64::from(self.word_bits)
    }

    /// Macro area under `tech`.
    #[must_use]
    pub fn area(&self, tech: &Technology) -> Area {
        #[allow(clippy::cast_precision_loss)]
        let cells = self.capacity_bits() as f64;
        tech.area_per_gate * (cells * Self::CELL_GATE_EQUIVALENT)
    }

    /// Energy of one word read or write under `tech`.
    #[must_use]
    pub fn access_energy(&self, tech: &Technology) -> Energy {
        tech.energy_per_gate_switch
            * (f64::from(self.word_bits) * Self::ACCESS_ENERGY_PER_BIT_GATES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::bulk22lvt()
    }

    #[test]
    fn capacity_and_area() {
        let m = SramMacro::new(1024, 16);
        assert_eq!(m.capacity_bits(), 16384);
        // 16384 cells × 0.25 GE × 0.5 µm² = 2048 µm².
        assert!((m.area(&tech()).as_square_micrometres() - 2048.0).abs() < 1e-6);
    }

    #[test]
    fn sram_is_denser_than_flipflops() {
        use crate::register::GATES_PER_FLIPFLOP;
        let m = SramMacro::new(1024, 16);
        let ff_area = tech().area_per_gate * (m.capacity_bits() as f64 * GATES_PER_FLIPFLOP as f64);
        assert!(m.area(&tech()).value() < ff_area.value() / 10.0);
    }

    #[test]
    fn access_energy_scales_with_word_width() {
        let narrow = SramMacro::new(64, 8).access_energy(&tech());
        let wide = SramMacro::new(64, 32).access_energy(&tech());
        assert!((wide / narrow - 4.0).abs() < 1e-9);
    }
}
