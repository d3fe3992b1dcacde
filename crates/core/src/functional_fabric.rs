//! Bit-true execution of CNN layers, convolution and fully-connected, on
//! the photonic fabric.
//!
//! Ties every functional piece together the way Fig. 2(b)/Fig. 3 describe.
//! The fabric is a [`MacEngine`]: [`pixel_dnn::inference`] lowers each
//! layer to rows (convolution windows or fully-connected inputs), loads
//! the layer's kernels once ([`MacEngine::load`]) and fires every block
//! of rows past them ([`Loaded::fire`]). The load is the one plane loader
//! the scalar OMACs use too, with the *rows* on the 64 plane lanes: it
//! builds one design engine for the load and one [`crate::tile::Tile`]
//! per kernel up to the physical tile count (§III-A), each holding its
//! kernel in the register file, prepared once; kernels past the tiles
//! stream. The dataflow is weight-stationary, as in Fig. 3. Each fired
//! block is packed into one bit-plane group whose neuron words are
//! serialized to pulse trains, multiplexed onto the MWSR waveguide on the
//! firing tile's wavelength block and recovered at the compute tiles
//! (the loader's transport hook, `FunctionalFabric::transport_planes`),
//! then fired on every kernel through the shared plane kernel and charged
//! to the design. The result must equal plain integer inference — the
//! strongest "the architecture actually computes the CNN" statement in
//! the repository.

use crate::config::AcceleratorConfig;
use crate::omac::{load_rows, WindowGroup, PLANE_WINDOWS};
use pixel_dnn::inference::{conv_windows, LayerWeights, Loaded, MacEngine, ShapeError};
use pixel_dnn::layer::Layer;
use pixel_dnn::tensor::Tensor;
use pixel_photonics::photodetector::Photodetector;
use pixel_photonics::signal::{PulseTrain, WavelengthId, WdmSignal};
use pixel_photonics::wdm::BandPlan;
use pixel_units::Power;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fabric of functional tiles executing layers kernel-per-tile.
pub struct FunctionalFabric {
    config: AcceleratorConfig,
    detector: Photodetector,
    /// Words recovered by the receive-side photodetector across this
    /// fabric's lifetime — the transport-fidelity witness: it must equal
    /// the rows × row length of every GEMM the fabric ran, proving every
    /// neuron word crossed the optical medium.
    detected_words: AtomicU64,
}

impl std::fmt::Debug for FunctionalFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionalFabric")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl FunctionalFabric {
    /// Creates the fabric.
    #[must_use]
    pub fn new(config: AcceleratorConfig) -> Self {
        Self {
            config,
            detector: Photodetector::default(),
            detected_words: AtomicU64::new(0),
        }
    }

    /// Total neuron words recovered by the receive-side detector so far.
    ///
    /// Every word of every row must cross serialize → mux → demux →
    /// detect, so [`Self::conv2d_batch`] advances this by exactly
    /// `images × output positions × window size`, and a fully-connected
    /// layer by `images × inputs`.
    #[must_use]
    pub fn detected_words(&self) -> u64 {
        self.detected_words.load(Ordering::Relaxed)
    }

    /// Executes one convolution layer over a batch of independent images
    /// end to end through the photonic transport and the bit-true OMACs.
    ///
    /// Windows are enumerated image-major (window index = image·e² +
    /// oh·e + ow) and lowered by [`conv_windows`] with this fabric as the
    /// engine, so they pack [`PLANE_WINDOWS`] at a time into bit-plane
    /// groups *across* image boundaries; the batch's last group carries
    /// whatever windows remain. The window list is split into contiguous
    /// runs of whole groups over `std::thread::scope` workers (the
    /// [`crate::sweep::SweepEngine`] discipline), each loading the kernels
    /// once, so which windows share a group never changes with `jobs`.
    /// The arithmetic is exact, so each output equals a plain integer
    /// convolution of the matching input, bitwise, for every `jobs`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if any input tensor mismatches the layer.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-convolution layer or if `bits_per_lane`
    /// exceeds the 16 bits the functional units support.
    pub fn conv2d_batch(
        &self,
        layer: &Layer,
        inputs: &[Tensor],
        weights: &LayerWeights,
        jobs: usize,
    ) -> Result<Vec<Tensor>, ShapeError> {
        let _span = pixel_obs::span("fabric_conv2d");
        let plan_span = pixel_obs::span("plan");
        let shape = layer.output_shape();
        let filters = shape.c.max(1);
        let mut out = vec![0u64; inputs.len() * shape.elements()];
        // Worker chunks stay aligned to whole plane groups, so only the
        // batch's last group is ever partial.
        let groups = (out.len() / filters).div_ceil(PLANE_WINDOWS);
        let jobs = jobs.clamp(1, groups.max(1));
        let windows_per_worker = groups.div_ceil(jobs) * PLANE_WINDOWS;
        drop(plan_span);

        // Phase-level child span: under the parent this aggregates as
        // `fabric_conv2d/rows`, so the profile tree separates window
        // compute from planning. Worker threads carry fresh scope stacks,
        // so their spans name the full path explicitly (the
        // `sweep/worker` idiom).
        let rows_span = pixel_obs::span("rows");
        if jobs == 1 {
            conv_windows(layer, inputs, weights, self, 0, &mut out)?;
        } else {
            // Contiguous window chunks, one worker each: concatenation of
            // the chunk outputs restores window order deterministically,
            // exactly as SweepEngine::map does for sweep points.
            std::thread::scope(|scope| {
                let handles: Vec<_> = out
                    .chunks_mut(windows_per_worker * filters)
                    .enumerate()
                    .map(|(w, chunk)| {
                        scope.spawn(move || {
                            let _worker = pixel_obs::span("fabric_conv2d/rows/worker");
                            let first = w * windows_per_worker;
                            conv_windows(layer, inputs, weights, self, first, chunk)
                        })
                    })
                    .collect();
                handles.into_iter().try_for_each(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
            })?;
        }
        drop(rows_span);
        Ok(Tensor::unbatch(shape, inputs.len(), &out))
    }

    /// Ships a bit-plane window group across the MWSR medium and recovers
    /// it at the compute tile. Each word position transmits its `bits`
    /// planes as on-off-keyed pulse trains of one slot per packed window
    /// (packed trains, so each plane travels as one word), muxed on the
    /// position's wavelength, then demuxed, detected and written back
    /// into the group. Positions beyond the plan's wavelength capacity
    /// ride later firing rounds on the same bands (time multiplexing):
    /// position `i` of a round fires on wavelength `i`, i.e. lane
    /// `i % lanes` of firing tile `i / lanes`, every round. `bits` planes
    /// of `len` slots carry the payload of `len` words, so
    /// `detected_words` advances by `window × len` — every word of every
    /// packed window counts.
    fn transport_planes(&self, plan: &BandPlan, group: &mut WindowGroup) {
        let len = group.len();
        let bits = group.bits() as usize;
        let window = group.window();
        let words = (window * len) as u64;
        pixel_obs::add("fabric.transport_words", words);
        let capacity = plan.total_wavelengths();
        let (mut train, mut signal) = (PulseTrain::default(), WdmSignal::default());
        let mut start = 0;
        while start < window {
            let round = (window - start).min(capacity);
            for a in 0..bits {
                for i in 0..round {
                    train.write_bits(group.position(start + i)[a], len);
                    #[allow(clippy::cast_possible_truncation)]
                    signal.set_channel(WavelengthId(i as u16), &train);
                }
                for i in 0..round {
                    #[allow(clippy::cast_possible_truncation)]
                    let id = WavelengthId(i as u16);
                    // lint:allow(P002) every id in the round was just written
                    let arrived = signal.channel(id).expect("channel written this round");
                    let plane = self
                        .detector
                        .detect_binary(arrived, Power::from_microwatts(100.0))
                        // lint:allow(P002) noiseless binary channel decodes losslessly
                        .expect("clean binary channel");
                    group.position_mut(start + i)[a] = plane;
                }
            }
            start += round;
        }
        self.detected_words.fetch_add(words, Ordering::Relaxed);
        if pixel_obs::enabled() {
            pixel_obs::add("fabric.detected_words", words);
        }
    }
}

impl MacEngine for FunctionalFabric {
    /// One row fired on its own load.
    fn inner_product(&self, neurons: &[u64], synapses: &[u64]) -> u64 {
        let mut out = [0];
        if !neurons.is_empty() {
            self.load(synapses, neurons.len()).fire(neurons, &mut out);
        }
        out[0]
    }

    /// Loads `kernels` onto the tiles once, under one `load` stage span,
    /// with the rows on the plane lanes (`omac::load_rows`): one design
    /// engine for the load, one resident kernel per tile up to the
    /// physical tile count and streamed kernels past it. Every fired
    /// block of rows packs into one bit-plane group that crosses the MWSR
    /// medium once (`Self::transport_planes`) before it fires on every
    /// kernel. Operand words wider than `bits_per_lane` are truncated to
    /// it: the bit planes and the register file carry no more bits.
    fn load<'a>(&'a self, kernels: &'a [u64], len: usize) -> Box<dyn Loaded + 'a> {
        let _load_span = pixel_obs::span("load");
        let config = self.config;
        // The firing side groups row words into per-wavelength lanes:
        // `lanes` words per firing round per firing tile.
        let plan = BandPlan::new(
            config.tiles.min(len.div_ceil(config.lanes)).max(1),
            config.lanes,
        );
        let filters = (kernels.len() / len) as u64;
        load_rows(&config, kernels, len, move |group: &mut WindowGroup| {
            self.transport_planes(&plan, group);
            pixel_obs::add("fabric.windows", group.len() as u64);
            pixel_obs::add("fabric.mac_ops", group.len() as u64 * filters);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use crate::omac::engine_for;
    use pixel_dnn::inference::{conv2d, DirectMac, PerWindow};
    use pixel_dnn::layer::Shape;
    use pixel_units::rng::SplitMix64;

    fn random_case(seed: u64) -> (Layer, Tensor, LayerWeights) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let layer = Layer::conv_padded("Conv", Shape::square(6, 2), 3, 3, 1, 1);
        let input = Tensor::from_fn(Shape::square(6, 2), |_, _, _| rng.range_u64(0, 15));
        let weights = LayerWeights::generate(&layer, || rng.range_u64(0, 15));
        (layer, input, weights)
    }

    /// One image through [`FunctionalFabric::conv2d_batch`].
    fn conv_one(
        fabric: &FunctionalFabric,
        layer: &Layer,
        input: &Tensor,
        weights: &LayerWeights,
        jobs: usize,
    ) -> Tensor {
        fabric
            .conv2d_batch(layer, std::slice::from_ref(input), weights, jobs)
            .unwrap()
            .remove(0)
    }

    #[test]
    fn fabric_conv_equals_direct_conv_for_every_design() {
        for design in Design::ALL {
            let (layer, input, weights) = random_case(7);
            let fabric = FunctionalFabric::new(AcceleratorConfig::new(design, 4, 4));
            let via_fabric = conv_one(&fabric, &layer, &input, &weights, 1);
            let direct = conv2d(&layer, &input, &weights, &DirectMac).unwrap();
            assert_eq!(via_fabric, direct, "{design}");
        }
    }

    #[test]
    fn more_filters_than_tiles_time_multiplexes() {
        let mut rng = SplitMix64::seed_from_u64(3);
        let layer = Layer::conv("Conv", Shape::square(5, 1), 6, 3, 1);
        let input = Tensor::from_fn(Shape::square(5, 1), |_, _, _| rng.range_u64(0, 7));
        let weights = LayerWeights::generate(&layer, || rng.range_u64(0, 7));
        // Only 2 physical tiles for 6 filters.
        let config = AcceleratorConfig::new(Design::Oo, 4, 4).with_tiles(2);
        let fabric = FunctionalFabric::new(config);
        let via_fabric = conv_one(&fabric, &layer, &input, &weights, 1);
        let direct = conv2d(&layer, &input, &weights, &DirectMac).unwrap();
        assert_eq!(via_fabric, direct);
    }

    #[test]
    fn transport_carries_every_word_when_window_exceeds_capacity() {
        // 2 tiles × 4 lanes = 8 wavelengths, but a 3×3×2 window is 18
        // words: transport must loop firing rounds, not bypass the medium.
        let mut rng = SplitMix64::seed_from_u64(11);
        let layer = Layer::conv("Conv", Shape::square(6, 2), 3, 3, 1);
        let input = Tensor::from_fn(Shape::square(6, 2), |_, _, _| rng.range_u64(0, 15));
        let weights = LayerWeights::generate(&layer, || rng.range_u64(0, 15));
        for design in Design::ALL {
            let config = AcceleratorConfig::new(design, 4, 4).with_tiles(2);
            let window = 3 * 3 * 2;
            assert!(
                window > config.tiles * config.lanes,
                "test must exercise multi-round transport"
            );
            let fabric = FunctionalFabric::new(config);
            let via_fabric = conv_one(&fabric, &layer, &input, &weights, 1);
            let direct = conv2d(&layer, &input, &weights, &DirectMac).unwrap();
            assert_eq!(via_fabric, direct, "{design}");
            // Fidelity witness: every word of every window crossed
            // serialize → mux → demux → detect.
            let e = layer.output_feature_size();
            assert_eq!(
                fabric.detected_words(),
                (e * e * window) as u64,
                "{design}: words must not bypass the optical medium"
            );
        }
    }

    /// The one-dataflow theorem: partial plane groups included, the
    /// fabric equals both the integer reference and the design's
    /// per-window OMAC engine on every design and worker count, and
    /// every window word crosses the medium.
    #[test]
    fn partial_plane_groups_match_the_per_window_engines() {
        let mut rng = SplitMix64::seed_from_u64(0xB17);
        // (input side, filters, tiles), 3×3 kernels at stride 1 over 2
        // channels: 8×8 → 36 windows, one partial group; 12×12 → 100
        // windows, one full group + 36; 9×9 → 49 windows with 6 filters
        // on 2 tiles, so 4 filters stream their weights.
        for (side, filters, tiles) in [(8, 5, 16), (12, 5, 16), (9, 6, 2)] {
            let layer = Layer::conv("Conv", Shape::square(side, 2), filters, 3, 1);
            let input = Tensor::from_fn(layer.input, |_, _, _| rng.range_u64(0, 15));
            let weights = LayerWeights::generate(&layer, || rng.range_u64(0, 15));
            let windows = layer.output_feature_size().pow(2);
            assert!(
                !windows.is_multiple_of(PLANE_WINDOWS),
                "every case must end in a partial group"
            );
            let direct = conv2d(&layer, &input, &weights, &DirectMac).unwrap();
            for design in Design::ALL {
                let config = AcceleratorConfig::new(design, 4, 4).with_tiles(tiles);
                let engine = engine_for(&config);
                let per_window = conv2d(&layer, &input, &weights, &PerWindow(engine.as_ref()));
                assert_eq!(per_window.unwrap(), direct, "{design} side={side}");
                for jobs in [1, 4, 64] {
                    let fabric = FunctionalFabric::new(config);
                    let label = format!("{design} side={side} jobs={jobs}");
                    let got = conv_one(&fabric, &layer, &input, &weights, jobs);
                    assert_eq!(got, direct, "{label}");
                    assert_eq!(
                        fabric.detected_words(),
                        (windows * 3 * 3 * 2) as u64,
                        "{label}"
                    );
                }
            }
        }
    }

    /// Multi-image batching packs windows across image boundaries; each
    /// output must still equal the single-image convolution exactly.
    #[test]
    fn conv2d_batch_matches_per_image_results() {
        let mut rng = SplitMix64::seed_from_u64(0xBA7C);
        let layer = Layer::conv("Conv", Shape::square(7, 2), 4, 3, 1);
        let weights = LayerWeights::generate(&layer, || rng.range_u64(0, 15));
        let inputs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::from_fn(Shape::square(7, 2), |_, _, _| rng.range_u64(0, 15)))
            .collect();
        // 25 windows/image: every bit-plane group spans image boundaries.
        for design in Design::ALL {
            let fabric = FunctionalFabric::new(AcceleratorConfig::new(design, 4, 4));
            let batch = fabric.conv2d_batch(&layer, &inputs, &weights, 2).unwrap();
            assert_eq!(batch.len(), inputs.len(), "{design}");
            for (input, got) in inputs.iter().zip(&batch) {
                let solo = conv_one(&fabric, &layer, input, &weights, 1);
                assert_eq!(got, &solo, "{design}");
            }
        }
        let fabric = FunctionalFabric::new(AcceleratorConfig::new(Design::Ee, 4, 4));
        assert!(fabric
            .conv2d_batch(&layer, &[], &weights, 1)
            .unwrap()
            .is_empty());
    }

    /// Seeded property test: the fabric equals the integer reference over
    /// precision (1–16 bits/lane), lane count (1–64), tile count (2 or 16,
    /// so kernels past the tiles stream), padding, stride, 1×1 kernels and
    /// fully-connected GEMMs, with batches that mostly end in a partial
    /// plane group; every row word crosses the medium.
    #[test]
    fn fabric_matches_direct_mac_over_seeded_layers() {
        let mut rng = SplitMix64::seed_from_u64(0xFAB);
        let mut partial = 0;
        for case in 0..48 {
            let bits = rng.range_u64(1, 16) as u32;
            let lanes = rng.range_usize(1, 64);
            let tiles = [2, 16][rng.range_usize(0, 1)];
            let config =
                AcceleratorConfig::new(Design::ALL[case % 3], lanes, bits).with_tiles(tiles);
            let limit = (1 << bits) - 1;
            let fabric = FunctionalFabric::new(config);
            let label = format!("case {case}: bits={bits} lanes={lanes} tiles={tiles}");
            let (rows, words) = if case % 4 == 3 {
                // A fully-connected layer: one GEMM, images as rows.
                let layer = Layer::fc("FC", rng.range_usize(1, 48), rng.range_usize(1, 24));
                let images = rng.range_usize(1, 80);
                let len = layer.input.elements();
                let inputs: Vec<u64> = (0..images * len).map(|_| rng.range_u64(0, limit)).collect();
                let LayerWeights::Fc { data, outputs, .. } =
                    LayerWeights::generate(&layer, || rng.range_u64(0, limit))
                else {
                    unreachable!("FC layers carry FC weights")
                };
                let mut want = vec![0; images * outputs];
                DirectMac.load(&data, len).fire(&inputs, &mut want);
                let mut got = vec![u64::MAX; images * outputs];
                fabric.load(&data, len).fire(&inputs, &mut got);
                assert_eq!(got, want, "{label} FC {len}→{outputs} × {images}");
                (images, images * len)
            } else {
                let h = rng.range_usize(1, 10);
                let r = rng.range_usize(1, 4.min(h + 2));
                let p = rng.range_usize(0, (r - 1).min(2));
                let (c, u, m) = (
                    rng.range_usize(1, 3),
                    rng.range_usize(1, 3),
                    rng.range_usize(1, 20),
                );
                let layer = Layer::conv_padded("Conv", Shape::square(h, c), m, r, u, p);
                let images = rng.range_usize(1, 3);
                let inputs: Vec<Tensor> = (0..images)
                    .map(|_| Tensor::from_fn(layer.input, |_, _, _| rng.range_u64(0, limit)))
                    .collect();
                let weights = LayerWeights::generate(&layer, || rng.range_u64(0, limit));
                let jobs = rng.range_usize(1, 4);
                let got = fabric
                    .conv2d_batch(&layer, &inputs, &weights, jobs)
                    .unwrap();
                for (input, got) in inputs.iter().zip(&got) {
                    let want = conv2d(&layer, input, &weights, &DirectMac).unwrap();
                    assert_eq!(
                        got, &want,
                        "{label} h={h} c={c} m={m} r={r} u={u} p={p} jobs={jobs}"
                    );
                }
                let windows = images * layer.output_feature_size().pow(2);
                (windows, windows * r * r * c)
            };
            assert_eq!(fabric.detected_words(), words as u64, "{label}");
            partial += usize::from(!rows.is_multiple_of(PLANE_WINDOWS));
        }
        assert!(
            partial >= 40,
            "only {partial} batches end in a partial group"
        );
    }

    /// Empty sums load no kernel words: a zero-channel layer (zero-word
    /// windows) and a zero-filter layer convolve to all zeros, as on
    /// the integer reference, at every worker count.
    #[test]
    fn empty_kernel_sets_convolve_to_zeros() {
        for layer in [
            Layer::conv("C", Shape::square(5, 0), 3, 3, 1),
            Layer::conv("C", Shape::square(5, 2), 0, 3, 1),
        ] {
            let input = Tensor::from_fn(layer.input, |_, _, _| 7);
            let weights = LayerWeights::generate(&layer, || 7);
            let direct = conv2d(&layer, &input, &weights, &DirectMac).unwrap();
            for design in Design::ALL {
                let fabric = FunctionalFabric::new(AcceleratorConfig::new(design, 4, 4));
                for jobs in [1, 4] {
                    let got = conv_one(&fabric, &layer, &input, &weights, jobs);
                    assert_eq!(got, direct, "{design} {:?} jobs={jobs}", layer.input);
                }
                assert_eq!(fabric.detected_words(), 0, "{design}");
            }
        }
    }

    #[test]
    fn shape_mismatch_reported() {
        let (layer, _, weights) = random_case(1);
        let wrong = Tensor::zeros(Shape::square(5, 2));
        let fabric = FunctionalFabric::new(AcceleratorConfig::new(Design::Oe, 4, 4));
        assert!(fabric.conv2d_batch(&layer, &[wrong], &weights, 1).is_err());
    }
}
