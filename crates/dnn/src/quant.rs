//! Quantization helpers for fixed-precision unsigned inference.

use crate::tensor::Tensor;

/// An unsigned fixed-point precision of `bits` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Precision(u32);

impl Precision {
    /// Creates a precision.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or exceeds 32 (products must fit in u64).
    #[must_use]
    pub fn new(bits: u32) -> Self {
        assert!((1..=32).contains(&bits), "precision must be 1..=32 bits");
        Self(bits)
    }

    /// Bits of precision.
    #[must_use]
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Largest representable value.
    #[must_use]
    pub const fn max_value(self) -> u64 {
        (1u64 << self.0) - 1
    }

    /// Saturating clamp into range.
    #[must_use]
    pub fn clamp(self, value: u64) -> u64 {
        value.min(self.max_value())
    }

    /// Rescales a tensor so its maximum fits this precision, by a uniform
    /// right shift (power-of-two requantization, as fixed-point inference
    /// hardware does between layers). Returns the shift used.
    ///
    /// # Examples
    ///
    /// ```
    /// use pixel_dnn::quant::Precision;
    /// use pixel_dnn::tensor::Tensor;
    ///
    /// let p = Precision::new(4);
    /// let mut t = Tensor::from_flat(&[150, 30, 7]);
    /// assert_eq!(p.requantize(&mut t), 4); // 150 >> 4 = 9 ≤ 15
    /// assert_eq!(t.to_flat(), vec![9, 1, 0]);
    /// ```
    pub fn requantize(self, t: &mut Tensor) -> u32 {
        let max = t.max_value();
        let mut shift = 0;
        while (max >> shift) > self.max_value() {
            shift += 1;
        }
        if shift > 0 {
            t.map_in_place(|v| v >> shift);
        }
        shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Shape;

    #[test]
    fn range_arithmetic() {
        let p = Precision::new(4);
        assert_eq!(p.max_value(), 15);
        assert_eq!(p.clamp(20), 15);
        assert_eq!(p.clamp(7), 7);
    }

    #[test]
    fn requantize_shifts_to_fit() {
        let p = Precision::new(4);
        let mut t = Tensor::from_flat(&[150, 30, 7]);
        let shift = p.requantize(&mut t);
        assert_eq!(shift, 4); // 150 >> 4 = 9 ≤ 15
        assert_eq!(t.to_flat(), vec![9, 1, 0]);
    }

    #[test]
    fn requantize_noop_when_in_range() {
        let p = Precision::new(8);
        let mut t = Tensor::from_flat(&[255, 3]);
        assert_eq!(p.requantize(&mut t), 0);
        assert_eq!(t.to_flat(), vec![255, 3]);
    }

    #[test]
    #[should_panic(expected = "precision")]
    fn rejects_zero_bits() {
        let _ = Precision::new(0);
    }

    #[test]
    fn requantize_empty_shape() {
        let p = Precision::new(4);
        let mut t = Tensor::zeros(Shape::flat(0));
        assert_eq!(p.requantize(&mut t), 0);
    }
}
