//! Activation-function circuitry.
//!
//! Paper §II-B: PIXEL uses a hybrid hyperbolic-tangent design combining
//! piecewise-linear (PL) approximation with bit-level mapping (after
//! Zamanlooy & Mirhassani, TVLSI 2014) for ultra-low gate count. This
//! module implements that approximation in fixed-point integer arithmetic
//! (so it can run inside the bit-true pipelines) along with its gate model.

use crate::gates::{GateCount, LogicDepth};

/// Fixed-point format used by the activation datapath: Q4.12 (16-bit
/// signed, 12 fractional bits).
pub const FRACTION_BITS: u32 = 12;

/// Fixed-point scale factor (2^12).
pub const SCALE: i64 = 1 << FRACTION_BITS;

/// Converts an `f64` to Q4.12.
#[must_use]
pub fn to_fixed(x: f64) -> i64 {
    #[allow(clippy::cast_possible_truncation)]
    {
        (x * SCALE as f64).round() as i64
    }
}

/// Converts Q4.12 to `f64`.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn to_float(x: i64) -> f64 {
    x as f64 / SCALE as f64
}

/// Breakpoints of the PL region in Q4.12 (0.0, 0.5, 1.0, 1.5, 2.0).
const BREAKPOINTS: [i64; 5] = [0, SCALE / 2, SCALE, 3 * SCALE / 2, 2 * SCALE];

/// tanh at the breakpoints in Q4.12 (pre-computed table — the "bit-level
/// mapping" part of the hybrid design).
const TANH_TABLE: [i64; 5] = [
    0,    // tanh(0.0)
    1893, // tanh(0.5) ≈ 0.46212 · 4096
    3120, // tanh(1.0) ≈ 0.76159 · 4096
    3708, // tanh(1.5) ≈ 0.90515 · 4096
    3949, // tanh(2.0) ≈ 0.96403 · 4096
];

/// The hybrid PL + bit-mapping hyperbolic tangent unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TanhUnit;

impl TanhUnit {
    /// Creates the unit.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Evaluates tanh on a Q4.12 fixed-point input, returning Q4.12.
    ///
    /// Piecewise-linear interpolation between table breakpoints on
    /// `|x| < 2.0`, saturating bit-mapped output (±1.0) beyond.
    #[must_use]
    pub fn eval_fixed(&self, x: i64) -> i64 {
        let negative = x < 0;
        let mag = x.abs();
        let y = if mag >= BREAKPOINTS[4] {
            SCALE // saturation region: output 1.0
        } else {
            // Segment index = mag / 0.5 in fixed point.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let seg = (mag / (SCALE / 2)) as usize;
            let x0 = BREAKPOINTS[seg];
            let y0 = TANH_TABLE[seg];
            let y1 = TANH_TABLE[seg + 1];
            // Linear interpolation with a power-of-two segment width:
            // y = y0 + (y1-y0) · (mag-x0) / (SCALE/2), shift-implemented.
            y0 + ((y1 - y0) * (mag - x0)) / (SCALE / 2)
        };
        if negative {
            -y
        } else {
            y
        }
    }

    /// Evaluates tanh on an `f64` through the fixed-point datapath.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        to_float(self.eval_fixed(to_fixed(x)))
    }

    /// Gate count: the paper cites an ultra-low gate-count hybrid design;
    /// Zamanlooy-class implementations land near 129 NAND-equivalents.
    #[must_use]
    pub fn gate_count(&self) -> GateCount {
        GateCount::new(129)
    }

    /// Critical-path depth of the hybrid design.
    #[must_use]
    pub fn logic_depth(&self) -> LogicDepth {
        LogicDepth::new(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixel_units::rng::SplitMix64;

    #[test]
    fn fixed_point_round_trip() {
        for x in [-2.0, -0.75, 0.0, 0.33, 1.9] {
            assert!((to_float(to_fixed(x)) - x).abs() < 1.0 / SCALE as f64);
        }
    }

    #[test]
    fn tanh_exact_at_breakpoints() {
        let t = TanhUnit::new();
        // Interior breakpoints hit the table exactly; at x = 2.0 the
        // bit-mapped saturation region takes over and outputs 1.0.
        for (i, &bp) in BREAKPOINTS.iter().enumerate().take(4) {
            let y = t.eval_fixed(bp);
            assert_eq!(y, TANH_TABLE[i], "breakpoint {i}");
        }
        assert_eq!(t.eval_fixed(BREAKPOINTS[4]), SCALE);
    }

    #[test]
    fn tanh_saturates() {
        let t = TanhUnit::new();
        assert_eq!(t.eval_fixed(to_fixed(3.0)), SCALE);
        assert_eq!(t.eval_fixed(to_fixed(-5.0)), -SCALE);
    }

    #[test]
    fn tanh_error_bound() {
        let t = TanhUnit::new();
        let mut worst: f64 = 0.0;
        let mut x = -4.0;
        while x <= 4.0 {
            let err = (t.eval(x) - x.tanh()).abs();
            worst = worst.max(err);
            x += 0.01;
        }
        assert!(worst < 0.04, "worst-case error {worst}");
    }

    #[test]
    fn gate_model() {
        let t = TanhUnit::new();
        assert_eq!(t.gate_count().get(), 129);
        assert_eq!(t.logic_depth().get(), 8);
    }

    #[test]
    fn tanh_is_odd_and_bounded() {
        let t = TanhUnit::new();
        let mut rng = SplitMix64::seed_from_u64(0x7A17);
        for _ in 0..512 {
            let x = rng.range_f64(-8.0, 8.0);
            let y = t.eval_fixed(to_fixed(x));
            let ny = t.eval_fixed(to_fixed(-x));
            // Odd within rounding of input conversion.
            assert!((y + ny).abs() <= 2, "x={x}");
            assert!(y.abs() <= SCALE, "x={x}");
        }
    }

    #[test]
    fn tanh_is_monotone() {
        let t = TanhUnit::new();
        let mut rng = SplitMix64::seed_from_u64(0x7A18);
        for _ in 0..512 {
            let a = rng.range_f64(-4.0, 4.0);
            let b = rng.range_f64(-4.0, 4.0);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(
                t.eval_fixed(to_fixed(lo)) <= t.eval_fixed(to_fixed(hi)),
                "lo={lo} hi={hi}"
            );
        }
    }
}
