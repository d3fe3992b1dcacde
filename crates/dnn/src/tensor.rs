//! A minimal integer feature-map tensor in HWC layout.
//!
//! The functional inference path runs on unsigned integers because the
//! optical MAC units operate on unsigned pulse counts; quantization to a
//! given precision is handled by [`crate::quant`].

use crate::layer::Shape;

/// An `H × W × C` tensor of unsigned integer activations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<u64>,
}

impl Tensor {
    /// Creates a zero tensor of the given shape.
    #[must_use]
    pub fn zeros(shape: Shape) -> Self {
        Self {
            shape,
            data: vec![0; shape.elements()],
        }
    }

    /// Creates a tensor by evaluating `f(h, w, c)` at every element.
    #[must_use]
    pub fn from_fn(shape: Shape, mut f: impl FnMut(usize, usize, usize) -> u64) -> Self {
        let mut t = Self::zeros(shape);
        for h in 0..shape.h {
            for w in 0..shape.w {
                for c in 0..shape.c {
                    let v = f(h, w, c);
                    t.set(h, w, c, v);
                }
            }
        }
        t
    }

    /// Creates a flat tensor `[1, 1, n]` from a slice.
    #[must_use]
    pub fn from_flat(values: &[u64]) -> Self {
        Self::from_flat_vec(values.to_vec())
    }

    /// Creates a flat tensor `[1, 1, n]` taking ownership of the values
    /// (no copy).
    #[must_use]
    pub fn from_flat_vec(values: Vec<u64>) -> Self {
        Self {
            shape: Shape::flat(values.len()),
            data: values,
        }
    }

    /// Splits `data`, `count` images of `shape` back to back, into one
    /// tensor per image.
    ///
    /// # Panics
    ///
    /// Panics if `data` holds fewer than `count` images.
    #[must_use]
    pub fn unbatch(shape: Shape, count: usize, data: &[u64]) -> Vec<Self> {
        let mut rest = data;
        (0..count)
            .map(|_| {
                let (image, tail) = rest.split_at(shape.elements());
                rest = tail;
                Self {
                    shape,
                    data: image.to_vec(),
                }
            })
            .collect()
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Raw data in HWC order.
    #[must_use]
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Mutable raw data in HWC order. Rows are contiguous (`w·c` elements
    /// per row), so row-parallel writers can split this with
    /// `chunks_mut` without overlapping.
    #[must_use]
    pub fn data_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    fn index(&self, h: usize, w: usize, c: usize) -> usize {
        debug_assert!(h < self.shape.h && w < self.shape.w && c < self.shape.c);
        (h * self.shape.w + w) * self.shape.c + c
    }

    /// Element at `(h, w, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[must_use]
    pub fn get(&self, h: usize, w: usize, c: usize) -> u64 {
        self.data[self.index(h, w, c)]
    }

    /// Element at `(h, w, c)` treating out-of-bounds reads as zero padding.
    #[must_use]
    pub fn get_padded(&self, h: isize, w: isize, c: usize) -> u64 {
        if h < 0 || w < 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss)]
        let (h, w) = (h as usize, w as usize);
        if h >= self.shape.h || w >= self.shape.w || c >= self.shape.c {
            0
        } else {
            self.data[self.index(h, w, c)]
        }
    }

    /// Sets the element at `(h, w, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn set(&mut self, h: usize, w: usize, c: usize, value: u64) {
        let i = self.index(h, w, c);
        self.data[i] = value;
    }

    /// Largest element (0 for an empty tensor).
    #[must_use]
    pub fn max_value(&self) -> u64 {
        self.data.iter().copied().max().unwrap_or(0)
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(u64) -> u64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Flattens to a vector in HWC order.
    #[must_use]
    pub fn to_flat(&self) -> Vec<u64> {
        self.data.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut t = Tensor::zeros(Shape::new(2, 3, 4));
        assert_eq!(t.data().len(), 24);
        t.set(1, 2, 3, 42);
        assert_eq!(t.get(1, 2, 3), 42);
        assert_eq!(t.get(0, 0, 0), 0);
        assert_eq!(t.max_value(), 42);
    }

    #[test]
    fn from_fn_layout() {
        let t = Tensor::from_fn(Shape::new(2, 2, 2), |h, w, c| (h * 100 + w * 10 + c) as u64);
        assert_eq!(t.get(1, 0, 1), 101);
        assert_eq!(t.get(0, 1, 0), 10);
    }

    #[test]
    fn padded_reads() {
        let t = Tensor::from_fn(Shape::new(2, 2, 1), |h, w, _| (h * 2 + w + 1) as u64);
        assert_eq!(t.get_padded(-1, 0, 0), 0);
        assert_eq!(t.get_padded(0, 5, 0), 0);
        assert_eq!(t.get_padded(1, 1, 0), 4);
        assert_eq!(t.get_padded(0, 0, 9), 0);
    }

    #[test]
    fn unbatch_splits_images_in_order() {
        let shape = Shape::new(1, 2, 1);
        let images = Tensor::unbatch(shape, 2, &[1, 2, 3, 4]);
        assert_eq!(images.len(), 2);
        assert_eq!(images[1].shape(), shape);
        assert_eq!(images[1].to_flat(), vec![3, 4]);
        let empty = Tensor::unbatch(Shape::new(1, 1, 0), 3, &[]);
        assert_eq!(empty, vec![Tensor::zeros(Shape::new(1, 1, 0)); 3]);
    }

    #[test]
    fn flat_round_trip() {
        let t = Tensor::from_flat(&[1, 2, 3]);
        assert_eq!(t.shape(), Shape::flat(3));
        assert_eq!(t.to_flat(), vec![1, 2, 3]);
    }

    #[test]
    fn map_in_place() {
        let mut t = Tensor::from_flat(&[1, 2, 3]);
        t.map_in_place(|v| v * 2);
        assert_eq!(t.to_flat(), vec![2, 4, 6]);
    }
}
