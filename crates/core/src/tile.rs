//! One PIXEL tile: the weight register file and its resident kernel.
//!
//! Fig. 3: each OMAC tile holds an RF for filter weight storage next to
//! the MAC unit; synapses are pre-loaded and neurons arrive as timed
//! optical firings. The tile here keeps what is physical: loading a
//! filter writes it to the electrical register file, whose registers
//! mask each weight to their width, and prepares what the file reads
//! back for the plane kernel ([`PreparedKernel`]), once, so every group
//! fired on the tile streams neurons past the same prepared synapses.
//! The design's engine, which fires and charges those groups, belongs to
//! the load (`omac::bitplane::load_planes`), one per load.

use crate::omac::PreparedKernel;
use pixel_electronics::register::RegisterFile;

/// A functional PIXEL tile.
#[derive(Debug)]
pub struct Tile {
    bits: u32,
    weights: RegisterFile,
    /// The register file's contents prepared for the plane kernel.
    kernel: PreparedKernel,
}

impl Tile {
    /// Creates a tile with storage for `filter_size` synapse words of
    /// `bits` bits each.
    #[must_use]
    pub fn new(bits: u32, filter_size: usize) -> Self {
        Self {
            bits,
            weights: RegisterFile::new(filter_size, bits),
            kernel: PreparedKernel::default(),
        }
    }

    /// Pre-loads filter weights into the register file (paper: "the
    /// synapses are pre-loaded into the OMAC") and prepares them for the
    /// plane kernel.
    ///
    /// # Panics
    ///
    /// Panics if more weights than the RF holds are supplied, or `bits`
    /// is outside `1..=16`.
    pub fn load_weights(&mut self, weights: &[u64]) {
        self.weights.load(weights);
        // Prepare what the RF actually stores (its registers mask to the
        // configured width), not what the caller supplied.
        let stored: Vec<u64> = (0..self.weights.len())
            .map(|i| self.weights.read(i))
            .collect();
        self.kernel.prepare(&stored, self.bits);
    }

    /// The resident filter, prepared for the plane kernel.
    #[must_use]
    pub fn kernel(&self) -> &PreparedKernel {
        &self.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omac::bitplane::plane_inner_product;
    use crate::omac::{PlaneAccumulator, WindowGroup};

    /// Fires one window, packed as a single-window group, against the
    /// resident filter.
    fn fire_window(tile: &Tile, neurons: &[u64]) -> u64 {
        let group = WindowGroup::pack(neurons, neurons.len(), 1, tile.bits);
        let mut out = Vec::new();
        plane_inner_product(
            &group,
            tile.kernel(),
            &mut PlaneAccumulator::new(),
            &mut out,
        );
        out[0]
    }

    #[test]
    fn tile_computes_a_window_against_its_resident_filter() {
        let mut tile = Tile::new(8, 8);
        tile.load_weights(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let out = fire_window(&tile, &[10, 20, 30, 40, 50, 60, 70, 80]);
        let expected: u64 = (1..=8u64).map(|i| i * i * 10).sum();
        assert_eq!(out, expected);
    }

    #[test]
    fn mirror_reflects_register_width_masking() {
        // 8-bit registers: a 9-bit weight is masked on load, and firing
        // must see the masked value the RF stores.
        let mut tile = Tile::new(8, 2);
        tile.load_weights(&[0x1FF, 1]);
        assert_eq!(fire_window(&tile, &[1, 0]), 0xFF);
    }

    #[test]
    fn reloading_replaces_the_prepared_filter() {
        let mut tile = Tile::new(8, 3);
        tile.load_weights(&[3, 5, 7]);
        assert_eq!(fire_window(&tile, &[1, 2, 3]), 34);
        // 0x2FF is wider than the 8-bit registers: B fires masked to
        // 0xFF, and nothing of A's preparation survives the reload.
        tile.load_weights(&[0x2FF, 0, 2]);
        assert_eq!(fire_window(&tile, &[1, 2, 3]), 0xFF + 6);
    }

    #[test]
    #[should_panic(expected = "one synapse word per window position")]
    fn a_window_wider_than_the_filter_panics() {
        let mut tile = Tile::new(8, 2);
        tile.load_weights(&[1, 2]);
        let _ = fire_window(&tile, &[1, 2, 3]);
    }
}
