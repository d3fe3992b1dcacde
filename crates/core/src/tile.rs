//! One PIXEL tile: weight register file + functional OMAC + fire path.
//!
//! Fig. 3: each OMAC tile holds an RF for filter weight storage and the
//! MAC unit; synapses are pre-loaded and neurons arrive as timed optical
//! firings. The tile here is the *functional* composition — it stores
//! weights in the electrical register file and computes windows through
//! the design's bit-true MAC engine. Loading a filter also prepares it
//! for the plane kernel ([`PreparedKernel`]), once: every group fired on
//! the tile streams neurons past the same prepared synapses.

use crate::config::AcceleratorConfig;
use crate::omac::{ActivityMac, PlaneAccumulator, PreparedKernel, WindowGroup};
use pixel_electronics::register::RegisterFile;

/// A functional PIXEL tile.
pub struct Tile {
    config: AcceleratorConfig,
    weights: RegisterFile,
    /// Register-file contents read back after the last load.
    mirror: Vec<u64>,
    /// The register file's contents prepared for the plane kernel.
    kernel: PreparedKernel,
    engine: Box<dyn ActivityMac>,
}

impl std::fmt::Debug for Tile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tile")
            .field("config", &self.config)
            .field("weights", &self.weights.len())
            .field("engine", &self.engine.name())
            .finish()
    }
}

impl Tile {
    /// Creates a tile with storage for `filter_size` synapse words.
    #[must_use]
    pub fn new(config: AcceleratorConfig, filter_size: usize) -> Self {
        let width = config.bits_per_lane.min(32);
        Self {
            config,
            weights: RegisterFile::new(filter_size, width),
            mirror: vec![0; filter_size],
            kernel: PreparedKernel::default(),
            engine: config.design.model().functional_engine(&config),
        }
    }

    /// The tile's configuration.
    #[must_use]
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Pre-loads filter weights into the register file (paper: "the
    /// synapses are pre-loaded into the OMAC") and prepares them for the
    /// plane kernel.
    ///
    /// # Panics
    ///
    /// Panics if more weights than the RF holds are supplied.
    pub fn load_weights(&mut self, weights: &[u64]) {
        self.weights.load(weights);
        // Prepare what the RF actually stores (its registers mask to the
        // configured width), not what the caller supplied.
        for (i, slot) in self.mirror.iter_mut().enumerate() {
            *slot = self.weights.read(i);
        }
        self.kernel.prepare(&self.mirror, self.config.bits_per_lane);
    }

    /// Number of weights stored.
    #[must_use]
    pub fn filter_size(&self) -> usize {
        self.weights.len()
    }

    /// Computes a whole bit-plane window group against the pre-loaded
    /// weights: `group.len()` windows advance together, up to 64 MACs per
    /// word-level engine operation. A group narrower than the filter
    /// uses the filter's prefix weights, prepared for that one firing.
    /// Results land in `out`, one sum per packed window, bitwise
    /// identical to the design's per-window engine
    /// ([`crate::omac::engine_for`]). `acc` is the kernel's working
    /// state, reusable across tiles and groups.
    ///
    /// # Panics
    ///
    /// Panics if the group's window size exceeds the stored filter size
    /// or its precision differs from the tile's.
    pub fn fire_planes(&self, group: &WindowGroup, acc: &mut PlaneAccumulator, out: &mut Vec<u64>) {
        assert!(
            group.window() <= self.weights.len(),
            "firing {} neuron positions into a {}-weight filter",
            group.window(),
            self.weights.len()
        );
        if group.window() == self.kernel.window() {
            self.engine
                .inner_product_planes_with(group, &self.kernel, acc, out);
        } else {
            let prefix = PreparedKernel::new(&self.mirror[..group.window()], group.bits());
            self.engine
                .inner_product_planes_with(group, &prefix, acc, out);
        }
    }

    /// [`Self::fire_planes`] against *streamed* weights instead of the
    /// resident filter — the time-multiplexing path when a fabric maps
    /// more filters than physical tiles onto the same datapath. The
    /// caller prepares the streamed kernel as it streams.
    ///
    /// # Panics
    ///
    /// Panics if the kernel's window differs from the group's window
    /// size or its or the group's precision differs from the tile's.
    pub fn fire_planes_streamed(
        &self,
        group: &WindowGroup,
        kernel: &PreparedKernel,
        acc: &mut PlaneAccumulator,
        out: &mut Vec<u64>,
    ) {
        assert_eq!(
            group.window(),
            kernel.window(),
            "streamed weights must match the fired window"
        );
        self.engine
            .inner_product_planes_with(group, kernel, acc, out);
    }

    /// The MAC engine's name (design identification).
    #[must_use]
    pub fn engine_name(&self) -> &str {
        self.engine.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;

    /// Fires one window, packed as a single-window group, against the
    /// resident filter or, given `streamed`, against streamed weights.
    fn fire_window(tile: &Tile, neurons: &[u64], streamed: Option<&[u64]>) -> u64 {
        let bits = tile.config().bits_per_lane;
        let group = WindowGroup::pack(neurons, neurons.len(), 1, bits);
        let (mut acc, mut out) = (PlaneAccumulator::new(), Vec::new());
        match streamed {
            None => tile.fire_planes(&group, &mut acc, &mut out),
            Some(weights) => {
                let kernel = PreparedKernel::new(weights, bits);
                tile.fire_planes_streamed(&group, &kernel, &mut acc, &mut out);
            }
        }
        out[0]
    }

    #[test]
    fn tile_computes_window_through_each_design() {
        for design in Design::ALL {
            let cfg = AcceleratorConfig::new(design, 4, 8);
            let mut tile = Tile::new(cfg, 8);
            tile.load_weights(&[1, 2, 3, 4, 5, 6, 7, 8]);
            let out = fire_window(&tile, &[10, 20, 30, 40, 50, 60, 70, 80], None);
            let expected: u64 = (1..=8u64).map(|i| i * i * 10).sum();
            assert_eq!(out, expected, "{design}");
        }
    }

    #[test]
    fn partial_window_uses_prefix_weights() {
        let mut tile = Tile::new(AcceleratorConfig::new(Design::Oe, 4, 8), 4);
        tile.load_weights(&[9, 9, 9, 9]);
        assert_eq!(fire_window(&tile, &[1, 1], None), 18);
    }

    #[test]
    fn streamed_weights_bypass_the_register_file() {
        let mut tile = Tile::new(AcceleratorConfig::new(Design::Oo, 4, 8), 4);
        tile.load_weights(&[9, 9, 9, 9]);
        assert_eq!(fire_window(&tile, &[1, 2, 3, 4], Some(&[5, 6, 7, 8])), 70);
        // The resident filter is untouched.
        assert_eq!(fire_window(&tile, &[1, 1, 1, 1], None), 36);
    }

    #[test]
    fn mirror_reflects_register_width_masking() {
        // 8-bit lanes → 8-bit registers: a 9-bit weight is masked on load,
        // and firing must see the masked value the RF stores.
        let mut tile = Tile::new(AcceleratorConfig::new(Design::Ee, 4, 8), 2);
        tile.load_weights(&[0x1FF, 1]);
        assert_eq!(fire_window(&tile, &[1, 0], None), 0xFF);
    }

    #[test]
    fn reloading_replaces_the_prepared_filter() {
        for design in Design::ALL {
            let mut tile = Tile::new(AcceleratorConfig::new(design, 4, 8), 3);
            tile.load_weights(&[3, 5, 7]);
            assert_eq!(fire_window(&tile, &[1, 2, 3], None), 34, "{design}");
            // 0x2FF is wider than the 8-bit registers: B fires masked to
            // 0xFF, and nothing of A's preparation survives the reload.
            tile.load_weights(&[0x2FF, 0, 2]);
            assert_eq!(fire_window(&tile, &[1, 2, 3], None), 0xFF + 6, "{design}");
        }
    }

    #[test]
    #[should_panic(expected = "firing")]
    fn overfiring_panics() {
        let tile = Tile::new(AcceleratorConfig::new(Design::Ee, 4, 8), 2);
        let _ = fire_window(&tile, &[1, 2, 3], None);
    }

    #[test]
    fn debug_shows_engine() {
        let tile = Tile::new(AcceleratorConfig::new(Design::Oo, 4, 8), 2);
        let dbg = format!("{tile:?}");
        assert!(dbg.contains("OO"));
        assert_eq!(tile.filter_size(), 2);
        assert!(tile.engine_name().contains("MZI"));
    }
}
