//! Quantized forward-pass execution with a pluggable MAC engine.
//!
//! Every inner product of the forward pass is routed through a
//! [`MacEngine`], so the same network can be executed with plain integer
//! arithmetic ([`DirectMac`]) or bit-true through the EE/OE/OO functional
//! MAC units in `pixel-core` — and the outputs compared element-for-element.

use crate::layer::{Layer, LayerKind, PoolKind, Shape};
use crate::network::Network;
use crate::quant::Precision;
use crate::tensor::Tensor;
use pixel_units::rng::SplitMix64;

/// Computes inner products on behalf of the forward pass.
pub trait MacEngine {
    /// The inner product `Σᵢ neurons[i]·synapses[i]`.
    ///
    /// Both slices have equal length; values fit the precision the engine
    /// was constructed for.
    fn inner_product(&self, neurons: &[u64], synapses: &[u64]) -> u64;

    /// Engine name for reports.
    fn name(&self) -> &str {
        "mac-engine"
    }
}

/// Plain integer reference engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectMac;

impl MacEngine for DirectMac {
    fn inner_product(&self, neurons: &[u64], synapses: &[u64]) -> u64 {
        neurons.iter().zip(synapses).map(|(&n, &s)| n * s).sum()
    }

    fn name(&self) -> &str {
        "direct"
    }
}

/// Weights for one compute layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerWeights {
    /// Convolution kernels, indexed `[filter][kh][kw][channel]`, flattened.
    Conv {
        /// Number of filters.
        filters: usize,
        /// Kernel size.
        kernel: usize,
        /// Input channels.
        channels: usize,
        /// Flat kernel data.
        data: Vec<u64>,
    },
    /// Fully-connected matrix, indexed `[output][input]`, flattened.
    Fc {
        /// Outputs.
        outputs: usize,
        /// Inputs.
        inputs: usize,
        /// Flat matrix data.
        data: Vec<u64>,
    },
    /// Pooling layers carry no weights.
    None,
}

impl LayerWeights {
    /// Generates weights for `layer` with the supplied per-index function
    /// (used with an RNG for random networks or a constant for tests).
    #[must_use]
    pub fn generate(layer: &Layer, mut next: impl FnMut() -> u64) -> Self {
        match layer.kind {
            LayerKind::Conv {
                filters, kernel, ..
            } => {
                let channels = layer.input.c;
                let n = filters * kernel * kernel * channels;
                Self::Conv {
                    filters,
                    kernel,
                    channels,
                    data: (0..n).map(|_| next()).collect(),
                }
            }
            LayerKind::Fc { outputs } => {
                let inputs = layer.input.elements();
                Self::Fc {
                    outputs,
                    inputs,
                    data: (0..outputs * inputs).map(|_| next()).collect(),
                }
            }
            LayerKind::Pool { .. } => Self::None,
        }
    }

    fn conv_kernel(&self, filter: usize) -> &[u64] {
        match self {
            Self::Conv {
                kernel,
                channels,
                data,
                ..
            } => {
                let len = kernel * kernel * channels;
                &data[filter * len..(filter + 1) * len]
            }
            // lint:allow(P003) programmer-error contract: wrong weight variant for layer kind
            _ => panic!("not convolution weights"),
        }
    }

    fn fc_row(&self, output: usize) -> &[u64] {
        match self {
            Self::Fc { inputs, data, .. } => &data[output * inputs..(output + 1) * inputs],
            // lint:allow(P003) programmer-error contract: wrong weight variant for layer kind
            _ => panic!("not fully-connected weights"),
        }
    }
}

/// Error raised when the input tensor does not match a layer's declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Layer name.
    pub layer: String,
    /// Shape supplied.
    pub got: Shape,
    /// Shape required.
    pub want: Shape,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "layer {} expected input {} but received {}",
            self.layer, self.want, self.got
        )
    }
}

impl std::error::Error for ShapeError {}

/// Executes one convolution layer.
///
/// # Errors
///
/// Returns [`ShapeError`] if the input tensor does not match the layer.
pub fn conv2d(
    layer: &Layer,
    input: &Tensor,
    weights: &LayerWeights,
    engine: &dyn MacEngine,
) -> Result<Tensor, ShapeError> {
    let LayerKind::Conv {
        filters,
        kernel,
        stride,
        padding,
    } = layer.kind
    else {
        // lint:allow(P003) caller contract: conv2d dispatches on LayerKind::Conv
        panic!("conv2d called on a non-conv layer");
    };
    if input.shape() != layer.input {
        return Err(ShapeError {
            layer: layer.name.clone(),
            got: input.shape(),
            want: layer.input,
        });
    }
    let e = layer.output_feature_size();
    let channels = layer.input.c;
    let mut out = Tensor::zeros(Shape::square(e, filters));
    let window = kernel * kernel * channels;
    let mut neurons = vec![0u64; window];

    for oh in 0..e {
        for ow in 0..e {
            // Gather the receptive field once per spatial position.
            let mut idx = 0;
            for kh in 0..kernel {
                for kw in 0..kernel {
                    #[allow(clippy::cast_possible_wrap)]
                    let ih = (oh * stride + kh) as isize - padding as isize;
                    #[allow(clippy::cast_possible_wrap)]
                    let iw = (ow * stride + kw) as isize - padding as isize;
                    for c in 0..channels {
                        neurons[idx] = input.get_padded(ih, iw, c);
                        idx += 1;
                    }
                }
            }
            for m in 0..filters {
                let v = engine.inner_product(&neurons, weights.conv_kernel(m));
                out.set(oh, ow, m, v);
            }
        }
    }
    Ok(out)
}

/// Executes one fully-connected layer.
///
/// # Errors
///
/// Returns [`ShapeError`] if the flattened input length mismatches.
pub fn fully_connected(
    layer: &Layer,
    input: &Tensor,
    weights: &LayerWeights,
    engine: &dyn MacEngine,
) -> Result<Tensor, ShapeError> {
    let LayerKind::Fc { outputs } = layer.kind else {
        // lint:allow(P003) caller contract: fully_connected dispatches on LayerKind::Fc
        panic!("fully_connected called on a non-FC layer");
    };
    // FC consumes the activations in flat HWC order whatever the input
    // shape — borrow the backing data rather than flattening a copy.
    let flat = input.data();
    if flat.len() != layer.input.elements() {
        return Err(ShapeError {
            layer: layer.name.clone(),
            got: input.shape(),
            want: layer.input,
        });
    }
    let values: Vec<u64> = (0..outputs)
        .map(|o| engine.inner_product(flat, weights.fc_row(o)))
        .collect();
    Ok(Tensor::from_flat_vec(values))
}

/// Executes one pooling layer.
///
/// # Errors
///
/// Returns [`ShapeError`] on input mismatch.
pub fn pool(layer: &Layer, input: &Tensor) -> Result<Tensor, ShapeError> {
    let LayerKind::Pool {
        kernel,
        stride,
        kind,
    } = layer.kind
    else {
        // lint:allow(P003) caller contract: pool dispatches on LayerKind::Pool
        panic!("pool called on a non-pool layer");
    };
    if input.shape() != layer.input {
        return Err(ShapeError {
            layer: layer.name.clone(),
            got: input.shape(),
            want: layer.input,
        });
    }
    let e = layer.output_feature_size();
    let c_count = layer.input.c;
    // A kernel/stride that overhangs the input would index out of bounds
    // below (pooling has no zero padding): the last window must fit.
    let needed = (e - 1) * stride + kernel;
    if needed > layer.input.h || needed > layer.input.w {
        return Err(ShapeError {
            layer: layer.name.clone(),
            got: layer.input,
            want: Shape::new(needed, needed, c_count),
        });
    }
    let mut out = Tensor::zeros(Shape::square(e, c_count));
    for oh in 0..e {
        for ow in 0..e {
            for c in 0..c_count {
                let mut acc: u64 = match kind {
                    PoolKind::Max => 0,
                    PoolKind::Average => 0,
                };
                for kh in 0..kernel {
                    for kw in 0..kernel {
                        let v = input.get(oh * stride + kh, ow * stride + kw, c);
                        acc = match kind {
                            PoolKind::Max => acc.max(v),
                            PoolKind::Average => acc + v,
                        };
                    }
                }
                let v = match kind {
                    PoolKind::Max => acc,
                    PoolKind::Average => acc / (kernel * kernel) as u64,
                };
                out.set(oh, ow, c, v);
            }
        }
    }
    Ok(out)
}

/// Runs a full quantized forward pass. After every compute layer the
/// activations are requantized back to `precision` (uniform right shift),
/// emulating fixed-point inference.
///
/// `weights` must supply one entry per layer (pool layers use
/// [`LayerWeights::None`]).
///
/// # Errors
///
/// Returns [`ShapeError`] if any tensor/layer mismatch occurs.
///
/// # Panics
///
/// Panics if `weights.len()` differs from the layer count.
pub fn forward(
    network: &Network,
    input: &Tensor,
    weights: &[LayerWeights],
    engine: &dyn MacEngine,
    precision: Precision,
) -> Result<Tensor, ShapeError> {
    assert_eq!(
        weights.len(),
        network.len(),
        "one weight set per layer (use LayerWeights::None for pools)"
    );
    let _forward_span = pixel_obs::span("forward");
    let mut current = input.clone();
    for (layer, w) in network.layers().iter().zip(weights) {
        let _layer_span = pixel_obs::span(&layer.name);
        pixel_obs::add("dnn.forward.layers", 1);
        current = match layer.kind {
            LayerKind::Conv { .. } => {
                let mut t = conv2d(layer, &current, w, engine)?;
                precision.requantize(&mut t);
                t
            }
            LayerKind::Fc { .. } => {
                // FC layers accept any shape with the right element count.
                let mut t = fully_connected(layer, &current, w, engine)?;
                precision.requantize(&mut t);
                t
            }
            LayerKind::Pool { .. } => pool(layer, &current)?,
        };
    }
    Ok(current)
}

/// Runs [`forward`] over a batch of input images, in order.
///
/// The images are independent inferences sharing one weight set — the
/// serving-scale traffic shape. Each image runs through [`forward`] on
/// its own, one window at a time through `engine`; nothing is batched
/// across images, and each output equals `forward` of the matching
/// input.
///
/// # Errors
///
/// Returns the first [`ShapeError`] any image produces.
///
/// # Panics
///
/// Panics if `weights.len()` differs from the layer count.
pub fn forward_batch(
    network: &Network,
    inputs: &[Tensor],
    weights: &[LayerWeights],
    engine: &dyn MacEngine,
    precision: Precision,
) -> Result<Vec<Tensor>, ShapeError> {
    inputs
        .iter()
        .map(|input| forward(network, input, weights, engine, precision))
        .collect()
}

/// Executes every layer of `network` once on deterministic operands of
/// the layer's *declared* input shape and returns a fold of all outputs.
///
/// The zoo tables follow the paper's Table I conventions: padding is
/// baked into some tabulated input shapes and branching topologies
/// (ResNet-34 shortcuts, GoogLeNet inception modules) are stored
/// flattened, so the layer sequence of most networks is not chainable
/// end to end the way [`forward`] requires. A *replay* sidesteps that:
/// each layer runs on synthetic activations and weights of its true
/// shape, which performs exactly the network's tabulated MAC work —
/// what a timed "forward of the paper CNN" needs — without inventing
/// cross-layer dataflow the table does not specify. Fully-connected
/// rows are generated on the fly (never materializing the `[output ×
/// input]` matrix), so even VGG16's 103M-weight FC1 replays in O(row)
/// memory.
///
/// The returned checksum folds every output element, making the work
/// observable (nothing can be optimized away) and the replay's
/// determinism testable.
///
/// # Errors
///
/// Returns [`ShapeError`] if a layer rejects its own declared input
/// shape (a malformed network table).
pub fn replay_layers(
    network: &Network,
    engine: &dyn MacEngine,
    precision: Precision,
    seed: u64,
) -> Result<u64, ShapeError> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let limit = precision.max_value();
    let mut checksum = 0u64;
    for layer in network.layers() {
        let input = Tensor::from_fn(layer.input, |_, _, _| rng.range_u64(0, limit));
        let out = match layer.kind {
            LayerKind::Conv { .. } => {
                let w = LayerWeights::generate(layer, || rng.range_u64(0, limit));
                let mut t = conv2d(layer, &input, &w, engine)?;
                precision.requantize(&mut t);
                t
            }
            LayerKind::Fc { outputs } => {
                let flat = input.data();
                let mut row = vec![0u64; flat.len()];
                let values = (0..outputs)
                    .map(|_| {
                        for slot in &mut row {
                            *slot = rng.range_u64(0, limit);
                        }
                        engine.inner_product(flat, &row)
                    })
                    .collect();
                let mut t = Tensor::from_flat_vec(values);
                precision.requantize(&mut t);
                t
            }
            LayerKind::Pool { .. } => pool(layer, &input)?,
        };
        for &v in out.data() {
            checksum = checksum.rotate_left(7) ^ v;
        }
    }
    Ok(checksum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::PoolKind;
    use crate::zoo;

    #[test]
    fn conv_identity_kernel() {
        // A 1×1 kernel with weight 1 copies the input channel.
        let layer = Layer::conv("c", Shape::square(3, 1), 1, 1, 1);
        let input = Tensor::from_fn(Shape::square(3, 1), |h, w, _| (h * 3 + w) as u64);
        let weights = LayerWeights::generate(&layer, || 1);
        let out = conv2d(&layer, &input, &weights, &DirectMac).unwrap();
        assert_eq!(out.shape(), Shape::square(3, 1));
        assert_eq!(out.get(2, 1, 0), 7);
    }

    #[test]
    fn conv_sums_receptive_field() {
        // 2×2 all-ones kernel on all-ones input = 4 everywhere.
        let layer = Layer::conv("c", Shape::square(3, 1), 1, 2, 1);
        let input = Tensor::from_fn(Shape::square(3, 1), |_, _, _| 1);
        let weights = LayerWeights::generate(&layer, || 1);
        let out = conv2d(&layer, &input, &weights, &DirectMac).unwrap();
        assert_eq!(out.shape(), Shape::square(2, 1));
        for h in 0..2 {
            for w in 0..2 {
                assert_eq!(out.get(h, w, 0), 4);
            }
        }
    }

    #[test]
    fn conv_with_padding_touches_border_zeros() {
        let layer = Layer::conv_padded("c", Shape::square(2, 1), 1, 3, 1, 1);
        let input = Tensor::from_fn(Shape::square(2, 1), |_, _, _| 1);
        let weights = LayerWeights::generate(&layer, || 1);
        let out = conv2d(&layer, &input, &weights, &DirectMac).unwrap();
        assert_eq!(out.shape(), Shape::square(2, 1));
        // Every 3×3 window sees the full 2×2 ones block.
        assert_eq!(out.get(0, 0, 0), 4);
    }

    #[test]
    fn fc_matrix_vector() {
        let layer = Layer::fc("f", 3, 2);
        let mut vals = [1u64, 0, 2, /* row2 */ 3, 1, 1].iter().copied();
        let weights = LayerWeights::generate(&layer, || vals.next().unwrap());
        let input = Tensor::from_flat(&[5, 7, 9]);
        let out = fully_connected(&layer, &input, &weights, &DirectMac).unwrap();
        assert_eq!(out.to_flat(), vec![5 + 18, 15 + 7 + 9]);
    }

    #[test]
    fn pooling_max_and_average() {
        let input = Tensor::from_fn(Shape::square(2, 1), |h, w, _| (h * 2 + w) as u64);
        let max_layer = Layer::pool("p", Shape::square(2, 1), 2, 2, PoolKind::Max);
        let avg_layer = Layer::pool("p", Shape::square(2, 1), 2, 2, PoolKind::Average);
        assert_eq!(pool(&max_layer, &input).unwrap().get(0, 0, 0), 3);
        assert_eq!(pool(&avg_layer, &input).unwrap().get(0, 0, 0), 1); // (0+1+2+3)/4
    }

    #[test]
    fn pool_overhang_is_an_error_not_a_panic() {
        // Kernel larger than the input: output_feature_size saturates to 1
        // and the window would read past the edge.
        let input = Tensor::from_fn(Shape::square(2, 1), |_, _, _| 1);
        let layer = Layer::pool("p", Shape::square(2, 1), 3, 1, PoolKind::Max);
        let err = pool(&layer, &input).unwrap_err();
        assert_eq!(err.layer, "p");
        assert_eq!(err.want, Shape::new(3, 3, 1));

        // Stride overhang: e=2 windows of 2 need 3 rows, input has... 4 — ok;
        // kernel 3 stride 2 on 4: e=(4-3+2)/2=1, needs 3 ≤ 4 — ok. Kernel 2
        // stride 3 on 4: e=(4-2+3)/3=1, needs 2 ≤ 4 — ok. Kernel 4 stride 3
        // on 5: e=(5-4+3)/3=1 fits; on 3: e=1, needs 4 > 3 — error.
        let small = Tensor::zeros(Shape::square(3, 1));
        let overhang = Layer::pool("q", Shape::square(3, 1), 4, 3, PoolKind::Average);
        assert!(pool(&overhang, &small).is_err());

        // A fitting pool still works.
        let fit = Layer::pool("r", Shape::square(2, 1), 2, 2, PoolKind::Max);
        assert_eq!(pool(&fit, &input).unwrap().get(0, 0, 0), 1);
    }

    #[test]
    fn shape_errors_are_reported() {
        let layer = Layer::conv("c", Shape::square(4, 1), 1, 3, 1);
        let input = Tensor::zeros(Shape::square(3, 1));
        let err = conv2d(
            &layer,
            &input,
            &LayerWeights::generate(&layer, || 1),
            &DirectMac,
        )
        .unwrap_err();
        assert_eq!(err.layer, "c");
        assert!(err.to_string().contains("expected input"));
    }

    #[test]
    fn lenet_forward_pass_runs() {
        let net = zoo::lenet();
        let precision = Precision::new(4);
        let mut rng = SplitMix64::seed_from_u64(7);
        let weights: Vec<_> = net
            .layers()
            .iter()
            .map(|l| LayerWeights::generate(l, || rng.range_u64(0, precision.max_value())))
            .collect();
        let mut rng2 = SplitMix64::seed_from_u64(8);
        let input = Tensor::from_fn(Shape::square(32, 1), |_, _, _| {
            rng2.range_u64(0, precision.max_value())
        });
        let out = forward(&net, &input, &weights, &DirectMac, precision).unwrap();
        assert_eq!(out.shape(), Shape::flat(10));
        assert!(out.max_value() <= precision.max_value());
        // Should be deterministic.
        let out2 = forward(&net, &input, &weights, &DirectMac, precision).unwrap();
        assert_eq!(out, out2);
    }

    #[test]
    fn forward_batch_matches_individual_forwards() {
        let net = zoo::lenet();
        let precision = Precision::new(4);
        let mut rng = SplitMix64::seed_from_u64(17);
        let weights: Vec<_> = net
            .layers()
            .iter()
            .map(|l| LayerWeights::generate(l, || rng.range_u64(0, precision.max_value())))
            .collect();
        let inputs: Vec<Tensor> = (0..3)
            .map(|_| {
                Tensor::from_fn(Shape::square(32, 1), |_, _, _| {
                    rng.range_u64(0, precision.max_value())
                })
            })
            .collect();
        let batch = forward_batch(&net, &inputs, &weights, &DirectMac, precision).unwrap();
        assert_eq!(batch.len(), 3);
        for (input, got) in inputs.iter().zip(&batch) {
            let solo = forward(&net, input, &weights, &DirectMac, precision).unwrap();
            assert_eq!(got, &solo);
        }
        assert!(forward_batch(&net, &[], &weights, &DirectMac, precision)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn layer_replay_is_deterministic_and_seed_sensitive() {
        let net = zoo::lenet();
        let precision = Precision::new(4);
        let a = replay_layers(&net, &DirectMac, precision, 2026).unwrap();
        let b = replay_layers(&net, &DirectMac, precision, 2026).unwrap();
        assert_eq!(a, b, "same seed must replay identically");
        let c = replay_layers(&net, &DirectMac, precision, 2027).unwrap();
        assert_ne!(a, c, "the checksum must actually observe the outputs");
    }
}
