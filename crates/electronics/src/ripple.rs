//! Ripple-carry adder: the ablation baseline against the CLA.
//!
//! The paper adopts carry-lookahead adders; the ripple-carry design is
//! the classic lower-area / higher-latency alternative (one full adder
//! per bit: ~5 gates, 2 levels each), kept here so the CLA choice can be
//! quantified (see `reproduce ablation`).

use crate::gates::{GateCount, LogicDepth};

/// Gates per full-adder cell (two XOR, two AND, one OR).
pub const GATES_PER_FULL_ADDER: u64 = 5;

/// A ripple-carry adder of a given width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RippleCarryAdder {
    width: u32,
}

impl RippleCarryAdder {
    /// Creates a `width`-bit ripple-carry adder.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds 64.
    #[must_use]
    pub fn new(width: u32) -> Self {
        assert!((1..=64).contains(&width), "RCA width must be 1..=64");
        Self { width }
    }

    /// Adder width.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Gate count: `5n` — linear, unlike the CLA's cubic Eq. 5.
    #[must_use]
    pub fn gate_count(&self) -> GateCount {
        GateCount::new(u64::from(self.width) * GATES_PER_FULL_ADDER)
    }

    /// Logic depth: the carry ripples through all `n` cells, 2 levels
    /// each — linear, unlike the CLA's logarithmic Eq. 6.
    #[must_use]
    pub fn logic_depth(&self) -> LogicDepth {
        LogicDepth::new(self.width * 2)
    }

    /// Bit-true addition, rippled cell by cell.
    #[must_use]
    pub fn add(&self, a: u64, b: u64, carry_in: bool) -> (u64, bool) {
        let mask = self.mask();
        let (a, b) = (a & mask, b & mask);
        let mut sum = 0u64;
        let mut carry = carry_in;
        for i in 0..self.width {
            let ai = (a >> i) & 1 == 1;
            let bi = (b >> i) & 1 == 1;
            let s = ai ^ bi ^ carry;
            carry = (ai && bi) || (carry && (ai ^ bi));
            if s {
                sum |= 1 << i;
            }
        }
        (sum, carry)
    }

    /// Width mask.
    #[must_use]
    pub fn mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cla::Cla;
    use pixel_units::rng::SplitMix64;

    #[test]
    fn gate_and_depth_scaling() {
        let rca = RippleCarryAdder::new(8);
        assert_eq!(rca.gate_count().get(), 40);
        assert_eq!(rca.logic_depth().get(), 16);
    }

    #[test]
    fn rca_beats_cla_on_area_loses_on_depth() {
        // The trade the paper makes by choosing CLAs.
        for width in [4u32, 8, 16, 32] {
            let rca = RippleCarryAdder::new(width);
            let cla = Cla::new(width);
            assert!(rca.gate_count() < cla.gate_count(), "area at {width}b");
            if width >= 8 {
                assert!(rca.logic_depth() > cla.logic_depth(), "depth at {width}b");
            }
        }
    }

    #[test]
    fn small_sums() {
        let rca = RippleCarryAdder::new(4);
        assert_eq!(rca.add(7, 8, false), (15, false));
        assert_eq!(rca.add(15, 1, false), (0, true));
        assert_eq!(rca.add(0, 0, true), (1, false));
    }

    #[test]
    fn rca_equals_cla() {
        let mut rng = SplitMix64::seed_from_u64(0xADD3);
        for _ in 0..256 {
            let a = rng.next_u64();
            let b = rng.next_u64();
            let cin = rng.next_bool();
            let width = rng.range_u32(1, 64);
            let rca = RippleCarryAdder::new(width);
            let cla = Cla::new(width);
            assert_eq!(rca.add(a, b, cin), cla.add(a, b, cin), "width={width}");
        }
    }
}
