//! Parallel array multiplier: the non-bit-serial electrical baseline.
//!
//! Stripes trades a big combinational multiplier for `p` cheap serial
//! cycles. This module supplies the multiplier Stripes replaces — an
//! `n × n` carry-save array — so that trade can be quantified
//! (`reproduce ablation` compares both on gates and depth).

use crate::gates::{GateCount, LogicDepth};
use crate::ripple::GATES_PER_FULL_ADDER;

/// An `n × n` carry-save array multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayMultiplier {
    width: u32,
}

impl ArrayMultiplier {
    /// Creates an `width × width` multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds 32 (the product must fit u64).
    #[must_use]
    pub fn new(width: u32) -> Self {
        assert!((1..=32).contains(&width), "multiplier width must be 1..=32");
        Self { width }
    }

    /// Operand width.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Gate count: `n²` AND gates for partial products plus `n·(n−1)`
    /// full adders in the reduction array.
    #[must_use]
    pub fn gate_count(&self) -> GateCount {
        let n = u64::from(self.width);
        GateCount::new(n * n + n * (n - 1) * GATES_PER_FULL_ADDER)
    }

    /// Logic depth: one AND level plus `2(n−1)` carry-save levels plus a
    /// final `2n`-deep ripple merge (2 levels per cell).
    #[must_use]
    pub fn logic_depth(&self) -> LogicDepth {
        let n = self.width;
        LogicDepth::new(1 + 2 * (n - 1) + 2 * n)
    }

    /// Bit-true multiplication through the partial-product array: AND
    /// rows, shifted and accumulated exactly as the hardware reduces them.
    #[must_use]
    pub fn multiply(&self, a: u64, b: u64) -> u64 {
        let mask = if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        };
        let (a, b) = (a & mask, b & mask);
        let mut acc: u64 = 0;
        for i in 0..self.width {
            if (b >> i) & 1 == 1 {
                acc += a << i; // row i of the partial-product array
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stripes::StripesMac;
    use pixel_units::rng::SplitMix64;

    #[test]
    fn gate_model() {
        // 8×8: 64 ANDs + 56 FAs·5 = 344 gates.
        let m = ArrayMultiplier::new(8);
        assert_eq!(m.gate_count().get(), 64 + 56 * 5);
        assert_eq!(m.logic_depth().get(), 1 + 14 + 16);
    }

    #[test]
    fn area_grows_quadratically() {
        let small = ArrayMultiplier::new(8).gate_count().get();
        let big = ArrayMultiplier::new(16).gate_count().get();
        assert!(big > 3 * small && big < 5 * small);
    }

    #[test]
    fn stripes_lane_is_cheaper_than_the_array_multiplier() {
        // The premise of STR-based designs: the multiply path of a
        // bit-serial lane (AND array + barrel shifter) needs far fewer
        // gates than the combinational multiplier it replaces; the
        // accumulator CLA is shared with the accumulate path either way.
        use crate::shifter::BarrelShifter;
        let array = ArrayMultiplier::new(16).gate_count();
        let acc_width = StripesMac::accumulator_width(1, 16);
        let and_plus_shift = GateCount::new(16) + BarrelShifter::new(acc_width).gate_count();
        assert!(
            and_plus_shift < array,
            "{and_plus_shift} should undercut {array}"
        );
    }

    #[test]
    fn small_products() {
        let m = ArrayMultiplier::new(4);
        assert_eq!(m.multiply(15, 15), 225);
        assert_eq!(m.multiply(0, 9), 0);
        assert_eq!(m.multiply(1, 9), 9);
    }

    #[test]
    fn matches_native_multiply() {
        let mut rng = SplitMix64::seed_from_u64(0x320C);
        for _ in 0..256 {
            let a = rng.next_u64();
            let b = rng.next_u64();
            let width = rng.range_u32(1, 32);
            let m = ArrayMultiplier::new(width);
            let mask = (1u64 << width) - 1;
            assert_eq!(m.multiply(a, b), (a & mask) * (b & mask), "width={width}");
        }
    }
}
