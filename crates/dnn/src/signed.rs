//! Signed inference on unsigned hardware: asymmetric (zero-point)
//! quantization.
//!
//! The optical MAC units operate on unsigned pulse counts, but real CNN
//! weights are signed. The standard resolution — used by every integer
//! accelerator — is affine quantization: a signed value `x` is stored as
//! `q = x + z` with zero-point `z`, and the signed inner product is
//! recovered from four unsigned quantities:
//!
//! ```text
//! Σ (a−z_a)(b−z_b) = Σ a·b − z_b·Σ a − z_a·Σ b + n·z_a·z_b
//! ```
//!
//! so the unsigned engines (including the bit-true optical ones) compute
//! `Σ a·b`, `Σ a` and `Σ b`, and cheap electrical logic applies the
//! correction. This module implements that path and verifies it against
//! plain signed arithmetic.

use crate::inference::MacEngine;
use crate::quant::Precision;

/// An asymmetric quantization scheme: signed values in
/// `[-zero_point, max − zero_point]` stored as unsigned codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignedQuant {
    precision: Precision,
    zero_point: u64,
}

impl SignedQuant {
    /// Creates a scheme with the given precision and zero-point.
    ///
    /// # Panics
    ///
    /// Panics if the zero-point is not representable at the precision.
    #[must_use]
    pub fn new(precision: Precision, zero_point: u64) -> Self {
        assert!(
            zero_point <= precision.max_value(),
            "zero-point must be representable"
        );
        Self {
            precision,
            zero_point,
        }
    }

    /// Symmetric-range scheme: zero-point at mid-scale.
    #[must_use]
    pub fn centered(precision: Precision) -> Self {
        Self::new(precision, (precision.max_value() + 1).div_ceil(2))
    }

    /// The precision.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The zero-point.
    #[must_use]
    pub fn zero_point(&self) -> u64 {
        self.zero_point
    }

    /// Smallest representable signed value.
    #[must_use]
    pub fn min_signed(&self) -> i64 {
        -(self.zero_point as i64)
    }

    /// Largest representable signed value.
    #[must_use]
    pub fn max_signed(&self) -> i64 {
        (self.precision.max_value() - self.zero_point) as i64
    }

    /// Encodes a signed value (saturating into range).
    #[must_use]
    pub fn encode(&self, x: i64) -> u64 {
        let clamped = x.clamp(self.min_signed(), self.max_signed());
        (clamped + self.zero_point as i64) as u64
    }

    /// Decodes an unsigned code back to its signed value.
    #[must_use]
    pub fn decode(&self, q: u64) -> i64 {
        q as i64 - self.zero_point as i64
    }
}

/// Computes the signed inner product `Σ decode(a)·decode(b)` using only
/// unsigned engine operations plus the zero-point correction.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn signed_inner_product(
    engine: &dyn MacEngine,
    a_codes: &[u64],
    a_quant: &SignedQuant,
    b_codes: &[u64],
    b_quant: &SignedQuant,
) -> i64 {
    assert_eq!(a_codes.len(), b_codes.len(), "operand length mismatch");
    let n = a_codes.len() as i64;
    // The unsigned engine computes Σ a·b. The row/column sums are the
    // engine's inner product against all-ones (how accumulators obtain
    // them in hardware: a summation pass on the same datapath).
    let ones: Vec<u64> = vec![1; a_codes.len()];
    let sum_ab = engine.inner_product(a_codes, b_codes) as i64;
    let sum_a = engine.inner_product(a_codes, &ones) as i64;
    let sum_b = engine.inner_product(&ones, b_codes) as i64;
    let za = a_quant.zero_point() as i64;
    let zb = b_quant.zero_point() as i64;
    sum_ab - zb * sum_a - za * sum_b + n * za * zb
}

/// A signed fully-connected layer evaluated entirely through an unsigned
/// engine: codes in, signed pre-activations out.
///
/// This is the end-to-end form of the zero-point identity: given input
/// codes (activations), a signed weight matrix stored as codes, and both
/// quantization schemes, every output neuron is one
/// [`signed_inner_product`] call.
///
/// # Panics
///
/// Panics if `weight_codes.len()` is not a multiple of the input length.
#[must_use]
pub fn signed_fully_connected(
    engine: &dyn MacEngine,
    input_codes: &[u64],
    input_quant: &SignedQuant,
    weight_codes: &[u64],
    weight_quant: &SignedQuant,
) -> Vec<i64> {
    assert!(
        !input_codes.is_empty() && weight_codes.len().is_multiple_of(input_codes.len()),
        "weight matrix must be outputs × inputs"
    );
    weight_codes
        .chunks(input_codes.len())
        .map(|row| signed_inner_product(engine, input_codes, input_quant, row, weight_quant))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::DirectMac;
    use pixel_units::rng::SplitMix64;

    #[test]
    fn encode_decode_round_trip() {
        let q = SignedQuant::centered(Precision::new(4)); // z = 8, range −8..=7
        assert_eq!(q.min_signed(), -8);
        assert_eq!(q.max_signed(), 7);
        for x in -8..=7 {
            assert_eq!(q.decode(q.encode(x)), x, "x={x}");
        }
    }

    #[test]
    fn encode_saturates() {
        let q = SignedQuant::centered(Precision::new(4));
        assert_eq!(q.decode(q.encode(100)), 7);
        assert_eq!(q.decode(q.encode(-100)), -8);
    }

    #[test]
    fn asymmetric_zero_point() {
        let q = SignedQuant::new(Precision::new(8), 10);
        assert_eq!(q.min_signed(), -10);
        assert_eq!(q.max_signed(), 245);
        assert_eq!(q.encode(0), 10);
        assert_eq!(q.decode(0), -10);
    }

    #[test]
    fn signed_product_small_example() {
        let qa = SignedQuant::centered(Precision::new(4));
        let qb = SignedQuant::centered(Precision::new(4));
        // (−2)·3 + 5·(−1) = −11.
        let a: Vec<u64> = [-2i64, 5].iter().map(|&x| qa.encode(x)).collect();
        let b: Vec<u64> = [3i64, -1].iter().map(|&x| qb.encode(x)).collect();
        assert_eq!(signed_inner_product(&DirectMac, &a, &qa, &b, &qb), -11);
    }

    #[test]
    #[should_panic(expected = "representable")]
    fn zero_point_must_fit() {
        let _ = SignedQuant::new(Precision::new(4), 16);
    }

    #[test]
    fn fully_connected_layer_matches_reference() {
        let qi = SignedQuant::centered(Precision::new(4));
        let qw = SignedQuant::centered(Precision::new(4));
        // 2 outputs × 3 inputs, signed.
        let x = [3i64, -2, 5];
        let w = [[1i64, -1, 2], [-3, 0, 1]];
        let expected: Vec<i64> = w
            .iter()
            .map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum())
            .collect();
        let x_codes: Vec<u64> = x.iter().map(|&v| qi.encode(v)).collect();
        let w_codes: Vec<u64> = w.iter().flatten().map(|&v| qw.encode(v)).collect();
        let out = signed_fully_connected(&DirectMac, &x_codes, &qi, &w_codes, &qw);
        assert_eq!(out, expected);
    }

    #[test]
    #[should_panic(expected = "outputs × inputs")]
    fn fc_shape_checked() {
        let q = SignedQuant::centered(Precision::new(4));
        let _ = signed_fully_connected(&DirectMac, &[1, 2], &q, &[1, 2, 3], &q);
    }

    #[test]
    fn matches_signed_reference() {
        let mut rng = SplitMix64::seed_from_u64(0x51_63ED);
        for _ in 0..128 {
            let len = rng.range_usize(1, 39);
            let values: Vec<(i64, i64)> = (0..len)
                .map(|_| (rng.range_i64(-8, 7), rng.range_i64(-8, 7)))
                .collect();
            let za = rng.range_u64(0, 15);
            let zb = rng.range_u64(0, 15);
            let qa = SignedQuant::new(Precision::new(4), za);
            let qb = SignedQuant::new(Precision::new(4), zb);
            // Clamp inputs into each scheme's representable range first.
            let signed: Vec<(i64, i64)> = values
                .iter()
                .map(|&(x, y)| {
                    (
                        x.clamp(qa.min_signed(), qa.max_signed()),
                        y.clamp(qb.min_signed(), qb.max_signed()),
                    )
                })
                .collect();
            let expected: i64 = signed.iter().map(|&(x, y)| x * y).sum();
            let a: Vec<u64> = signed.iter().map(|&(x, _)| qa.encode(x)).collect();
            let b: Vec<u64> = signed.iter().map(|&(_, y)| qb.encode(y)).collect();
            assert_eq!(
                signed_inner_product(&DirectMac, &a, &qa, &b, &qb),
                expected,
                "za={za} zb={zb}"
            );
        }
    }
}
