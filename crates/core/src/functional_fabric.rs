//! End-to-end functional execution of a convolution layer on the fabric.
//!
//! Ties every functional piece together the way Fig. 2(b)/Fig. 3 describe:
//! the layer's windows are scheduled onto tiles (one filter per tile,
//! §III-A), each tile's weights sit in its register file, neuron words are
//! serialized to pulse trains, multiplexed onto the MWSR waveguide on the
//! firing tile's wavelength block, recovered at the compute tile, and
//! pushed through the design's bit-true OMAC. The result must equal a
//! plain integer convolution — the strongest "the architecture actually
//! computes the CNN" statement in the repository.

use crate::config::AcceleratorConfig;
use crate::omac::{WindowGroup, PLANE_WINDOWS};
use crate::tile::Tile;
use pixel_dnn::inference::{gather_window, LayerWeights, ShapeError};
use pixel_dnn::layer::{Layer, LayerKind, Shape};
use pixel_dnn::tensor::Tensor;
use pixel_photonics::photodetector::Photodetector;
use pixel_photonics::signal::{PulseTrain, WavelengthId, WdmSignal};
use pixel_photonics::wdm::BandPlan;
use pixel_units::Power;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fabric of functional tiles executing convolutions filter-per-tile.
pub struct FunctionalFabric {
    config: AcceleratorConfig,
    detector: Photodetector,
    /// Words recovered by the receive-side photodetector across this
    /// fabric's lifetime — the transport-fidelity witness: after a
    /// convolution it must equal windows × window size, proving every
    /// neuron word crossed the optical medium.
    detected_words: AtomicU64,
}

/// Per-worker transport buffers, reused across every plane group of a
/// convolution instead of allocating trains per group.
#[derive(Default)]
struct TransportScratch {
    train: PulseTrain,
    signal: WdmSignal,
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
    /// Every word of every window must cross serialize → mux → demux →
    /// detect, so after [`Self::conv2d_batch`] this advances by exactly
    /// `images × output positions × window size`.
    #[must_use]
    pub fn detected_words(&self) -> u64 {
        self.detected_words.load(Ordering::Relaxed)
    }

    /// Executes one convolution layer over a batch of independent images
    /// end to end through the photonic transport and the bit-true OMACs.
    ///
    /// Windows are enumerated image-major (window index = image·e² +
    /// oh·e + ow) and packed [`PLANE_WINDOWS`] at a time into bit-plane
    /// groups *across* image boundaries; the batch's last group carries
    /// whatever windows remain. Each group crosses the MWSR medium once
    /// and every word-level engine operation advances all of its
    /// windows. The window list is split into contiguous runs of whole
    /// groups over `std::thread::scope` workers (the
    /// [`crate::sweep::SweepEngine`] discipline), each with its own tiles
    /// and transport scratch. The arithmetic is exact, so each output
    /// equals a plain integer convolution of the matching input, bitwise,
    /// for every `jobs`. Operand words wider than `bits_per_lane` are
    /// truncated to it: the bit planes and the register file carry no
    /// more bits.
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
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let LayerKind::Conv {
            filters,
            kernel,
            stride,
            padding,
        } = layer.kind
        else {
            // lint:allow(P003) caller contract: the fabric executes convolution layers only
            panic!("functional fabric executes convolution layers");
        };
        for input in inputs {
            if input.shape() != layer.input {
                return Err(ShapeError {
                    layer: layer.name.clone(),
                    got: input.shape(),
                    want: layer.input,
                });
            }
        }

        let _span = pixel_obs::span("fabric_conv2d");
        let setup_span = pixel_obs::span("plan");
        let bits = self.config.bits_per_lane;
        let e = layer.output_feature_size();
        let channels = layer.input.c;
        let window = kernel * kernel * channels;
        let per_image = e * e;
        let total_windows = inputs.len() * per_image;

        // The firing side groups window elements into per-wavelength
        // lanes: `lanes` words per firing round per firing tile.
        let plan = BandPlan::new(
            self.config
                .tiles
                .min(window.div_ceil(self.config.lanes))
                .max(1),
            self.config.lanes,
        );

        // Kernel slices resolved once, outside the window loops.
        let kernels: Vec<&[u64]> = (0..filters)
            .map(|m| kernel_of(weights, m, window))
            .collect();
        drop(setup_span);

        // Every output element of every image, flat in
        // `[image][oh][ow][filter]` order.
        let mut out = vec![0u64; total_windows * filters];

        // Fills `chunk` with the outputs of the contiguous window range
        // starting at `start`. Tiles and transport scratch are
        // per-worker: the OMAC engines carry interior activity tallies
        // and must not be shared across threads.
        let run_windows = |start: usize, chunk: &mut [u64]| {
            // One tile per filter (round-robin beyond the physical count —
            // time multiplexing, identical hardware), built once per call
            // rather than per group.
            let tiles: Vec<Tile> = (0..filters.min(self.config.tiles))
                .map(|m| {
                    let mut tile = Tile::new(self.config, window);
                    tile.load_weights(kernels[m]);
                    tile
                })
                .collect();
            let count = chunk.len() / filters;
            let mut scratch = TransportScratch::default();
            let mut rows = vec![0u64; PLANE_WINDOWS * window];
            let mut group = WindowGroup::default();
            let mut values = Vec::with_capacity(PLANE_WINDOWS);
            let mut done = 0;
            while done < count {
                let len = (count - done).min(PLANE_WINDOWS);
                let packed = &mut rows[..len * window];
                // Stage spans open per group under the enclosing `rows`
                // (or worker) span, so the profile splits a group's time
                // into gather, pack, transport and fire.
                let gather_span = pixel_obs::span("gather");
                for (g, row) in packed.chunks_exact_mut(window).enumerate() {
                    let index = start + done + g;
                    let (image, position) = (index / per_image, index % per_image);
                    gather_window(
                        &inputs[image],
                        kernel,
                        stride,
                        padding,
                        position / e,
                        position % e,
                        row,
                    );
                }
                drop(gather_span);
                let pack_span = pixel_obs::span("pack");
                group.repack(packed, window, len, bits);
                drop(pack_span);
                let transport_span = pixel_obs::span("transport");
                self.transport_planes(&plan, &mut group, &mut scratch);
                drop(transport_span);
                let _fire_span = pixel_obs::span("fire");
                for (m, &streamed) in kernels.iter().enumerate() {
                    let tile = &tiles[m % tiles.len()];
                    // The tile holding filter m%T time-multiplexes:
                    // resident weights for its own filter, the same
                    // datapath with streamed weights for the rest.
                    if m < tiles.len() {
                        tile.fire_planes(&group, &mut values);
                    } else {
                        tile.fire_planes_streamed(&group, streamed, &mut values);
                    }
                    for (g, &value) in values.iter().enumerate() {
                        // lint:allow(P104) chunk holds count·filters outputs; done+g < count and m < filters by the loop bounds
                        chunk[(done + g) * filters + m] = value;
                    }
                }
                done += len;
            }
        };

        // Phase-level child span: under the parent this aggregates as
        // `fabric_conv2d/rows`, so the profile tree separates window
        // compute from band planning. Worker threads carry fresh scope
        // stacks, so their spans name the full path explicitly (the
        // `sweep/worker` idiom).
        let rows_span = pixel_obs::span("rows");
        // Worker chunks stay aligned to whole plane groups, so only the
        // batch's last group is ever partial and which windows share a
        // group never changes with `jobs`.
        let groups = total_windows.div_ceil(PLANE_WINDOWS);
        let jobs = jobs.clamp(1, groups);
        let windows_per_worker = groups.div_ceil(jobs) * PLANE_WINDOWS;
        if jobs == 1 {
            run_windows(0, &mut out);
        } else {
            // Contiguous window chunks, one worker each: concatenation of
            // the chunk outputs restores window order deterministically,
            // exactly as SweepEngine::map does for sweep points.
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for (w, chunk) in out.chunks_mut(windows_per_worker * filters).enumerate() {
                    let run = &run_windows;
                    handles.push(scope.spawn(move || {
                        let _worker = pixel_obs::span("fabric_conv2d/rows/worker");
                        run(w * windows_per_worker, chunk);
                    }));
                }
                for handle in handles {
                    handle
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                }
            });
        }
        drop(rows_span);

        if pixel_obs::enabled() {
            pixel_obs::add("fabric.windows", total_windows as u64);
            pixel_obs::add("fabric.mac_ops", (total_windows * filters) as u64);
        }
        Ok(out
            .chunks(per_image * filters)
            .map(|chunk| {
                let mut t = Tensor::zeros(Shape::square(e, filters));
                t.data_mut().copy_from_slice(chunk);
                t
            })
            .collect())
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
    fn transport_planes(
        &self,
        plan: &BandPlan,
        group: &mut WindowGroup,
        scratch: &mut TransportScratch,
    ) {
        let len = group.len();
        let bits = group.bits() as usize;
        let window = group.window();
        let words = (window * len) as u64;
        pixel_obs::add("fabric.transport_words", words);
        let capacity = plan.total_wavelengths();
        let TransportScratch { train, signal } = scratch;
        let mut start = 0;
        while start < window {
            let round = (window - start).min(capacity);
            for a in 0..bits {
                for i in 0..round {
                    train.write_bits(group.position(start + i)[a], len);
                    #[allow(clippy::cast_possible_truncation)]
                    signal.set_channel(WavelengthId(i as u16), train);
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

fn kernel_of(weights: &LayerWeights, filter: usize, window: usize) -> &[u64] {
    match weights {
        LayerWeights::Conv { data, .. } => &data[filter * window..(filter + 1) * window],
        // lint:allow(P003) caller contract: convolution weights accompany conv layers
        _ => panic!("convolution weights required"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use crate::omac::engine_for;
    use pixel_dnn::inference::{conv2d, DirectMac};
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
                let per_window = conv2d(&layer, &input, &weights, engine_for(&config).as_ref());
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

    #[test]
    fn shape_mismatch_reported() {
        let (layer, _, weights) = random_case(1);
        let wrong = Tensor::zeros(Shape::square(5, 2));
        let fabric = FunctionalFabric::new(AcceleratorConfig::new(Design::Oe, 4, 4));
        assert!(fabric.conv2d_batch(&layer, &[wrong], &weights, 1).is_err());
    }
}
