//! Accelerator configuration: design flavor and the two swept parameters.

use std::fmt;

/// Which of the paper's three accelerator designs to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// All-electrical Stripes baseline.
    Ee,
    /// Hybrid: optical multiply (MRR AND), electrical shift-accumulate.
    Oe,
    /// All-optical: MRR AND plus MZI-chain accumulation.
    Oo,
}

impl Design {
    /// All three designs, in the paper's EE/OE/OO presentation order.
    pub const ALL: [Self; 3] = [Self::Ee, Self::Oe, Self::Oo];

    /// True for the designs with a photonic front end.
    #[must_use]
    pub fn is_optical(self) -> bool {
        !matches!(self, Self::Ee)
    }

    /// The paper's short label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Ee => "EE",
            Self::Oe => "OE",
            Self::Oo => "OO",
        }
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Clock domains of the evaluation (§IV: 1 GHz electrical, 10 GHz optical).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clocks {
    /// Electrical clock frequency \[Hz\].
    pub electrical_hz: f64,
    /// Optical pulse clock frequency \[Hz\].
    pub optical_hz: f64,
}

impl Clocks {
    /// The paper's clocks: 1 GHz electrical, 10 GHz optical.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            electrical_hz: 1.0e9,
            optical_hz: 10.0e9,
        }
    }

    /// One electrical cycle period \[s\].
    #[must_use]
    pub fn electrical_period(&self) -> f64 {
        1.0 / self.electrical_hz
    }

    /// Optical pulses per electrical cycle (the "clumping" limit of §V-B2).
    #[must_use]
    pub fn pulses_per_electrical_cycle(&self) -> f64 {
        self.optical_hz / self.electrical_hz
    }
}

impl Default for Clocks {
    fn default() -> Self {
        Self::paper()
    }
}

/// Full configuration of one accelerator instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorConfig {
    /// Design flavor.
    pub design: Design,
    /// Lanes = wavelengths per OMAC (the paper equates the two, §III-A).
    pub lanes: usize,
    /// Bits per lane (= operand precision; swept 1–32 in the evaluation).
    pub bits_per_lane: u32,
    /// Number of OMAC tiles in the fabric.
    pub tiles: usize,
    /// Native word width of the CNN data stream; firings are packed into
    /// `bits_per_lane`-bit chunks of this (used by the latency model).
    pub native_bits: u32,
    /// Clock domains.
    pub clocks: Clocks,
}

impl AcceleratorConfig {
    /// Default tile count of the modelled fabric.
    pub const DEFAULT_TILES: usize = 16;
    /// Default native word width.
    pub const DEFAULT_NATIVE_BITS: u32 = 16;

    /// Creates a configuration with the default fabric (16 tiles, 16-bit
    /// native words, paper clocks).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or `bits_per_lane` is outside 1..=32.
    #[must_use]
    pub fn new(design: Design, lanes: usize, bits_per_lane: u32) -> Self {
        assert!(lanes > 0, "at least one lane");
        assert!(
            (1..=32).contains(&bits_per_lane),
            "bits/lane must be 1..=32"
        );
        Self {
            design,
            lanes,
            bits_per_lane,
            tiles: Self::DEFAULT_TILES,
            native_bits: Self::DEFAULT_NATIVE_BITS,
            clocks: Clocks::paper(),
        }
    }

    /// Returns a copy with a different tile count.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is zero.
    #[must_use]
    pub fn with_tiles(mut self, tiles: usize) -> Self {
        assert!(tiles > 0, "at least one tile");
        self.tiles = tiles;
        self
    }

    /// Parallel scalar multiplies in flight per firing round: every tile
    /// drives its `lanes` wavelengths.
    #[must_use]
    pub fn macs_per_firing(&self) -> u64 {
        (self.tiles * self.lanes) as u64
    }

    /// Bits per lane as `f64` for model arithmetic.
    #[must_use]
    pub fn b(&self) -> f64 {
        f64::from(self.bits_per_lane)
    }
}

impl fmt::Display for AcceleratorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} lanes, {} bits/lane, {} tiles)",
            self.design, self.lanes, self.bits_per_lane, self.tiles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_labels_and_order() {
        let labels: Vec<_> = Design::ALL.iter().map(|d| d.label()).collect();
        assert_eq!(labels, ["EE", "OE", "OO"]);
        assert!(!Design::Ee.is_optical());
        assert!(Design::Oe.is_optical());
        assert!(Design::Oo.is_optical());
    }

    #[test]
    fn paper_clocks() {
        let c = Clocks::paper();
        assert!((c.pulses_per_electrical_cycle() - 10.0).abs() < 1e-12);
        assert!((c.electrical_period() - 1e-9).abs() < 1e-21);
    }

    #[test]
    fn config_construction() {
        let cfg = AcceleratorConfig::new(Design::Oe, 4, 16);
        assert_eq!(cfg.macs_per_firing(), 64);
        assert_eq!(cfg.with_tiles(4).macs_per_firing(), 16);
        assert_eq!(cfg.to_string(), "OE (4 lanes, 16 bits/lane, 16 tiles)");
    }

    #[test]
    #[should_panic(expected = "bits/lane")]
    fn rejects_excess_bits() {
        let _ = AcceleratorConfig::new(Design::Ee, 4, 33);
    }

    #[test]
    #[should_panic(expected = "lane")]
    fn rejects_zero_lanes() {
        let _ = AcceleratorConfig::new(Design::Ee, 0, 8);
    }
}
