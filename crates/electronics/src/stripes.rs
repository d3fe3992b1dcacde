//! Bit-true Stripes (STR) bit-serial MAC engine.
//!
//! Paper §II-B: Stripes processes a `p`-bit synapse serially over `p`
//! cycles. Each cycle, one synapse bit gates (ANDs) the whole input
//! neuron, the partial product is left-shifted by the bit position and
//! accumulated. All three accelerator designs (EE, OE, OO) follow this
//! dataflow; this module is the electrical reference implementation, built
//! structurally from the [`Cla`] and [`BarrelShifter`] models so the same
//! units that are costed are the units that compute.

use crate::cla::Cla;
use crate::gates::{GateCount, LogicDepth};
use crate::shifter::BarrelShifter;

/// Error returned when operands do not fit the configured precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandRangeError {
    /// Lane holding the offending value.
    pub lane: usize,
    /// The offending value.
    pub value: u64,
    /// The configured precision in bits.
    pub bits: u32,
}

impl std::fmt::Display for OperandRangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "operand {} on lane {} does not fit in {} bits",
            self.value, self.lane, self.bits
        )
    }
}

impl std::error::Error for OperandRangeError {}

/// Result of one STR multiply-accumulate window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StripesResult {
    /// The inner product Σᵢ neuronᵢ·synapseᵢ.
    pub value: u64,
    /// Serial cycles consumed (= synapse precision).
    pub cycles: u32,
    /// Bitwise AND operations performed.
    pub and_ops: u64,
    /// CLA additions performed.
    pub add_ops: u64,
    /// Barrel-shift operations performed.
    pub shift_ops: u64,
}

/// A bit-serial STR MAC over a fixed number of parallel lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripesMac {
    lanes: usize,
    bits: u32,
    accumulator: Cla,
    shifter: BarrelShifter,
}

impl StripesMac {
    /// Creates an STR MAC with `lanes` parallel input-neuron lanes at
    /// `bits` bits of precision for both neurons and synapses.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or if the accumulator for the requested
    /// configuration would exceed 64 bits.
    #[must_use]
    pub fn new(lanes: usize, bits: u32) -> Self {
        assert!(lanes > 0, "at least one lane");
        let acc_width = Self::accumulator_width(lanes, bits);
        assert!(
            acc_width <= 64,
            "accumulator would need {acc_width} bits (>64); reduce lanes or precision"
        );
        Self {
            lanes,
            bits,
            accumulator: Cla::new(acc_width),
            shifter: BarrelShifter::new(acc_width),
        }
    }

    /// Accumulator width needed for `lanes` products of two `bits`-bit
    /// operands: `2·bits + ⌈log₂ lanes⌉`.
    #[must_use]
    pub fn accumulator_width(lanes: usize, bits: u32) -> u32 {
        #[allow(clippy::cast_possible_truncation)]
        let lane_bits = usize::BITS - (lanes.max(1) - 1).leading_zeros();
        2 * bits + lane_bits
    }

    /// Number of parallel lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Operand precision in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Validates that every operand fits the configured precision.
    fn check_operands(&self, values: &[u64]) -> Result<(), OperandRangeError> {
        let limit = if self.bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        };
        for (lane, &value) in values.iter().enumerate() {
            if value > limit {
                return Err(OperandRangeError {
                    lane,
                    value,
                    bits: self.bits,
                });
            }
        }
        Ok(())
    }

    /// Executes one MAC window: the inner product of `neurons` and
    /// `synapses` across all lanes, computed bit-serially exactly as the
    /// STR hardware does.
    ///
    /// # Examples
    ///
    /// The paper's §II-B worked example — cycle 1's partial sum is 42:
    ///
    /// ```
    /// # fn main() -> Result<(), pixel_electronics::stripes::OperandRangeError> {
    /// use pixel_electronics::stripes::StripesMac;
    ///
    /// let mac = StripesMac::new(4, 4);
    /// let result = mac.mac(&[2, 0, 3, 8], &[6, 1, 2, 3])?;
    /// assert_eq!(result.value, 42);
    /// assert_eq!(result.cycles, 4); // p cycles for a p-bit synapse
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`OperandRangeError`] if any operand exceeds the precision.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not `lanes` long.
    pub fn mac(
        &self,
        neurons: &[u64],
        synapses: &[u64],
    ) -> Result<StripesResult, OperandRangeError> {
        assert_eq!(neurons.len(), self.lanes, "one neuron per lane");
        assert_eq!(synapses.len(), self.lanes, "one synapse per lane");
        self.check_operands(neurons)?;
        self.check_operands(synapses)?;

        let mut acc = 0u64;
        let mut and_ops = 0u64;
        let mut add_ops = 0u64;
        let mut shift_ops = 0u64;

        for bit in 0..self.bits {
            // Cycle `bit`: gate every neuron with its synapse's bit `bit`,
            // sum across lanes, shift into place, accumulate.
            let mut cycle_sum = 0u64;
            for lane in 0..self.lanes {
                let gate = (synapses[lane] >> bit) & 1 == 1;
                let partial = if gate { neurons[lane] } else { 0 };
                and_ops += u64::from(self.bits);
                let (sum, carry) = self.accumulator.add(cycle_sum, partial, false);
                debug_assert!(!carry, "lane sum overflowed accumulator");
                cycle_sum = sum;
                add_ops += 1;
            }
            let shifted = self.shifter.shift_left(cycle_sum, bit);
            shift_ops += 1;
            let (sum, carry) = self.accumulator.add(acc, shifted, false);
            debug_assert!(!carry, "accumulator overflow");
            acc = sum;
            add_ops += 1;
        }

        Ok(StripesResult {
            value: acc,
            cycles: self.bits,
            and_ops,
            add_ops,
            shift_ops,
        })
    }

    /// Total gate count of the datapath: per-lane AND arrays, the lane
    /// adder tree (modelled as `lanes` accumulator-width CLAs), the barrel
    /// shifter and the accumulator.
    #[must_use]
    pub fn gate_count(&self) -> GateCount {
        let and_gates = GateCount::new(u64::from(self.bits) * self.lanes as u64);
        let adders = GateCount::new(self.accumulator.gate_count().get() * self.lanes as u64);
        and_gates + adders + self.shifter.gate_count() + self.accumulator.gate_count()
    }

    /// Critical-path depth of one cycle: AND (1) → lane adder tree →
    /// shifter → accumulator.
    #[must_use]
    pub fn logic_depth(&self) -> LogicDepth {
        LogicDepth::new(1)
            .then(self.accumulator.logic_depth())
            .then(self.shifter.logic_depth())
            .then(self.accumulator.logic_depth())
    }

    /// Reference inner product in plain integer arithmetic.
    #[must_use]
    pub fn reference(neurons: &[u64], synapses: &[u64]) -> u64 {
        neurons.iter().zip(synapses).map(|(&n, &s)| n * s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixel_units::rng::SplitMix64;

    #[test]
    fn paper_worked_example() {
        // §II-B: INL (2,0,3,8) · SL (6,1,2,3) + 0 = 42.
        let mac = StripesMac::new(4, 4);
        let r = mac.mac(&[2, 0, 3, 8], &[6, 1, 2, 3]).unwrap();
        assert_eq!(r.value, 42);
        assert_eq!(r.cycles, 4);
    }

    #[test]
    fn single_lane_multiply() {
        let mac = StripesMac::new(1, 8);
        let r = mac.mac(&[200], &[131]).unwrap();
        assert_eq!(r.value, 200 * 131);
        assert_eq!(r.cycles, 8);
    }

    #[test]
    fn rejects_out_of_range_operand() {
        let mac = StripesMac::new(2, 4);
        let err = mac.mac(&[16, 0], &[1, 1]).unwrap_err();
        assert_eq!(err.lane, 0);
        assert_eq!(err.value, 16);
        assert!(err.to_string().contains("4 bits"));
    }

    #[test]
    fn accumulator_width_formula() {
        assert_eq!(StripesMac::accumulator_width(1, 4), 8);
        assert_eq!(StripesMac::accumulator_width(4, 4), 10);
        assert_eq!(StripesMac::accumulator_width(5, 4), 11);
        assert_eq!(StripesMac::accumulator_width(16, 8), 20);
    }

    #[test]
    fn op_counters_match_structure() {
        let mac = StripesMac::new(4, 4);
        let r = mac.mac(&[1, 2, 3, 4], &[5, 6, 7, 8]).unwrap();
        // p cycles × lanes AND-gatings of p bits each.
        assert_eq!(r.and_ops, 4 * 4 * 4);
        // Per cycle: `lanes` tree adds + 1 accumulate.
        assert_eq!(r.add_ops, 4 * (4 + 1));
        assert_eq!(r.shift_ops, 4);
    }

    #[test]
    fn zero_synapses_produce_zero() {
        let mac = StripesMac::new(3, 8);
        let r = mac.mac(&[255, 255, 255], &[0, 0, 0]).unwrap();
        assert_eq!(r.value, 0);
    }

    #[test]
    fn gate_count_and_depth_are_positive_and_monotone() {
        let small = StripesMac::new(2, 4);
        let big = StripesMac::new(8, 8);
        assert!(big.gate_count() > small.gate_count());
        assert!(big.logic_depth() >= small.logic_depth());
    }

    #[test]
    fn matches_integer_reference() {
        let mut rng = SplitMix64::seed_from_u64(0x0571_29E5);
        for _ in 0..96 {
            let lanes = rng.range_usize(1, 8);
            let bits = rng.range_u32(1, 12);
            let limit = (1u64 << bits) - 1;
            let neurons: Vec<u64> = (0..lanes).map(|_| rng.range_u64(0, limit)).collect();
            let synapses: Vec<u64> = (0..lanes).map(|_| rng.range_u64(0, limit)).collect();
            let mac = StripesMac::new(lanes, bits);
            let r = mac.mac(&neurons, &synapses).unwrap();
            assert_eq!(
                r.value,
                StripesMac::reference(&neurons, &synapses),
                "lanes={lanes} bits={bits}"
            );
        }
    }
}
