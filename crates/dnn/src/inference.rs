//! Quantized forward-pass execution with a pluggable MAC engine.
//!
//! Every inner product of the forward pass is routed through a
//! [`MacEngine`], so the same network can be executed with plain integer
//! arithmetic ([`DirectMac`]), bit-true through the EE/OE/OO functional
//! MAC units, or through the whole photonic fabric in `pixel-core` — and
//! the outputs compared element-for-element.
//!
//! This module is the one place a layer is lowered to GEMM rows, for one
//! image or a batch. The dataflow is weight-stationary: each call loads
//! the layer's kernels onto the engine once ([`MacEngine::load`]) and
//! fires blocks of rows past them ([`Loaded::fire`]). A convolution
//! becomes unrolled windows × unrolled kernels (the paper's
//! `N_MVM = E²·M·C` view): [`conv_windows`] gathers [`CONV_BLOCK`]
//! receptive fields at a time with [`gather_window`], image-major across
//! the batch, and fires each block. A fully-connected layer is one fire
//! with the batch's images as rows and the weight rows as kernels.
//!
//! Counted device activity is a value, not engine state: a load counts
//! what its fires do and hands the [`ActivityTally`] back when it is
//! finished ([`Loaded::finish`]), and [`run_layer`] returns each layer's.
//! Engines that count nothing (such as [`DirectMac`]) finish with zero.

use crate::layer::{Layer, LayerKind, PoolKind, Shape};
use crate::network::Network;
use crate::quant::Precision;
use crate::tensor::Tensor;
use pixel_units::rng::SplitMix64;
use std::ops::AddAssign;
use std::slice::from_ref;

/// Convolution windows gathered per [`Loaded::fire`] call.
pub const CONV_BLOCK: usize = 64;

/// Computes inner products on behalf of the forward pass.
pub trait MacEngine {
    /// The inner product `Σᵢ neurons[i]·synapses[i]`.
    ///
    /// Both slices have equal length; values fit the precision the engine
    /// was constructed for.
    fn inner_product(&self, neurons: &[u64], synapses: &[u64]) -> u64;

    /// [`Self::inner_product`], adding the device events it performs to
    /// `tally`. The default counts nothing.
    fn count_product(&self, neurons: &[u64], synapses: &[u64], _tally: &mut ActivityTally) -> u64 {
        self.inner_product(neurons, synapses)
    }

    /// Loads a kernel set — kernels of `len` values back to back, `len`
    /// positive — for [`Loaded::fire`] to run blocks of rows against.
    ///
    /// The default fires by calling [`Self::count_product`] row-major,
    /// kernel-minor — (row 0, kernel 0), (row 0, kernel 1), …, (row 1,
    /// kernel 0), … — the order a window-at-a-time convolution visits
    /// them, so engines with per-call state (noise draws) see the same
    /// call sequence either way — and counts every product into the
    /// load's tally, which [`Loaded::finish`] returns. An override must
    /// produce the same values, and an engine that counts device activity
    /// (the functional OMACs) must finish with the tally the per-call
    /// loop would, so counted activity does not depend on the path.
    /// [`PerWindow`] runs the default over any engine.
    fn load<'a>(&'a self, kernels: &'a [u64], len: usize) -> Box<dyn Loaded + 'a> {
        Box::new(Tallied::new(
            move |rows: &[u64], out: &mut [u64], tally: &mut ActivityTally| {
                each_pair(rows, kernels, len, out, |row, kernel| {
                    self.count_product(row, kernel, tally)
                });
            },
        ))
    }

    /// Engine name for reports.
    fn name(&self) -> &str {
        "mac-engine"
    }
}

/// A kernel set loaded onto a [`MacEngine`]. Any
/// `FnMut(rows, out)` closure is one that counts nothing.
pub trait Loaded {
    /// Every inner product of a block of rows against the loaded
    /// kernels: `rows` holds rows of the loaded `len` values back to
    /// back, and with `filters` kernels loaded, `out[r·filters + m]`
    /// receives row `r` · kernel `m`.
    fn fire(&mut self, rows: &[u64], out: &mut [u64]);

    /// Ends the load and returns the device activity its fires counted.
    /// The default counts nothing.
    fn finish(self: Box<Self>) -> ActivityTally {
        ActivityTally::default()
    }
}

impl<F: FnMut(&[u64], &mut [u64])> Loaded for F {
    fn fire(&mut self, rows: &[u64], out: &mut [u64]) {
        self(rows, out);
    }
}

/// A [`Loaded`] that counts: each fire runs `fire(rows, out, tally)`
/// against the load's own tally, which [`Loaded::finish`] returns.
pub struct Tallied<F> {
    fire: F,
    tally: ActivityTally,
}

impl<F: FnMut(&[u64], &mut [u64], &mut ActivityTally)> Tallied<F> {
    /// A load whose fires run `fire`, with a zero tally.
    pub fn new(fire: F) -> Self {
        Self {
            fire,
            tally: ActivityTally::default(),
        }
    }
}

impl<F: FnMut(&[u64], &mut [u64], &mut ActivityTally)> Loaded for Tallied<F> {
    fn fire(&mut self, rows: &[u64], out: &mut [u64]) {
        let Self { fire, tally } = self;
        fire(rows, out, tally);
    }

    fn finish(self: Box<Self>) -> ActivityTally {
        self.tally
    }
}

/// Device events a bit-true execution counted: the slots, conversions
/// and additions the energy model charges for, and the lit slots and
/// toggles of the serialized slot streams its activity factors describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActivityTally {
    /// Bit-slots streamed through double-MRR filters.
    pub mrr_slots: u64,
    /// Bit-slots routed through MZI accumulator stages.
    pub mzi_slots: u64,
    /// Carry-lookahead additions.
    pub cla_ops: u64,
    /// Comparator-ladder slot decisions.
    pub comparator_decisions: u64,
    /// Optical-to-electrical word conversions.
    pub oe_conversions: u64,
    /// Slots of the measured serialized streams.
    pub gated_slots: u64,
    /// Measured slots carrying a one (light on / bit set).
    pub lit_slots: u64,
    /// Transitions between adjacent measured slots.
    pub bit_toggles: u64,
    /// Adjacent-slot pairs of the measured streams.
    pub toggle_pairs: u64,
}

impl ActivityTally {
    /// Fraction of measured slots that were lit (0 when none measured).
    #[must_use]
    pub fn lit_rate(&self) -> f64 {
        ratio(self.lit_slots, self.gated_slots)
    }

    /// Fraction of adjacent-slot pairs that toggled (0 when none).
    #[must_use]
    pub fn toggle_rate(&self) -> f64 {
        ratio(self.bit_toggles, self.toggle_pairs)
    }
}

impl AddAssign for ActivityTally {
    fn add_assign(&mut self, other: Self) {
        self.mrr_slots += other.mrr_slots;
        self.mzi_slots += other.mzi_slots;
        self.cla_ops += other.cla_ops;
        self.comparator_decisions += other.comparator_decisions;
        self.oe_conversions += other.oe_conversions;
        self.gated_slots += other.gated_slots;
        self.lit_slots += other.lit_slots;
        self.bit_toggles += other.bit_toggles;
        self.toggle_pairs += other.toggle_pairs;
    }
}

#[allow(clippy::cast_precision_loss)]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Fills `out[r·filters + m]` with `dot(row r, kernel m)`, row-major,
/// kernel-minor.
fn each_pair(
    rows: &[u64],
    kernels: &[u64],
    len: usize,
    out: &mut [u64],
    mut dot: impl FnMut(&[u64], &[u64]) -> u64,
) {
    let filters = kernels.len() / len;
    for (row, outputs) in rows.chunks_exact(len).zip(out.chunks_exact_mut(filters)) {
        for (kernel, slot) in kernels.chunks_exact(len).zip(outputs) {
            *slot = dot(row, kernel);
        }
    }
}

/// Plain integer reference engine.
///
/// Its loaded kernels pick the arithmetic per fired block: when the block
/// has at least two rows, every value is below 2^15 and
/// `len·max(rows)·max(kernels) < 2^31`, an i16×i16→i32 kernel computes
/// the block exactly (no partial sum of non-negative terms can exceed the
/// full sum); otherwise the u64 loop of [`MacEngine::inner_product`]
/// does. A load finds the kernels' maximum on its first block of two or
/// more rows and narrows the kernels on its first narrow block, once
/// each, so a load that fires only one row, such as a single-image FC
/// layer, never scans or narrows its kernels: that would cost more than
/// the narrow kernel saves.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectMac;

impl MacEngine for DirectMac {
    fn inner_product(&self, neurons: &[u64], synapses: &[u64]) -> u64 {
        neurons.iter().zip(synapses).map(|(&n, &s)| n * s).sum()
    }

    fn load<'a>(&'a self, kernels: &'a [u64], len: usize) -> Box<dyn Loaded + 'a> {
        let (mut max_kernel, mut narrow) = (None, None);
        Box::new(move |rows: &[u64], out: &mut [u64]| {
            let kernel_max = || *max_kernel.get_or_insert_with(|| max(kernels));
            if narrows(rows, len, kernel_max) {
                let kernels = narrow.get_or_insert_with(|| to_i16(kernels));
                narrow_gemm(&to_i16(rows), kernels, len, out);
            } else {
                each_pair(rows, kernels, len, out, |row, kernel| {
                    self.inner_product(row, kernel)
                });
            }
        })
    }

    fn name(&self) -> &str {
        "direct"
    }
}

/// The window-at-a-time reference over any engine: it forwards only
/// [`MacEngine::inner_product`] and [`MacEngine::count_product`], so the
/// trait's default row-major, kernel-minor [`MacEngine::load`] runs in
/// place of the engine's own. Loaded engines are checked and timed
/// against it, tallies included.
#[derive(Clone, Copy)]
pub struct PerWindow<'a>(pub &'a dyn MacEngine);

impl MacEngine for PerWindow<'_> {
    fn inner_product(&self, neurons: &[u64], synapses: &[u64]) -> u64 {
        self.0.inner_product(neurons, synapses)
    }

    fn count_product(&self, neurons: &[u64], synapses: &[u64], tally: &mut ActivityTally) -> u64 {
        self.0.count_product(neurons, synapses, tally)
    }
}

/// The largest value, or 0 for none.
fn max(values: &[u64]) -> u64 {
    values.iter().copied().max().unwrap_or(0)
}

/// Whether [`DirectMac`] computes a block in narrow arithmetic: it has at
/// least two rows and its operands pass [`narrow_fits`]. Only then is
/// `max_kernel` asked for, so a one-row block never scans the kernels.
fn narrows(rows: &[u64], len: usize, max_kernel: impl FnOnce() -> u64) -> bool {
    rows.len() >= 2 * len && narrow_fits(len, max(rows), max_kernel())
}

/// Whether `len`-term inner products of operands at most `max_a` and
/// `max_w` are exact in i16×i16→i32 arithmetic: both fit an i16 and the
/// largest possible sum stays below 2^31.
fn narrow_fits(len: usize, max_a: u64, max_w: u64) -> bool {
    const I16_LIMIT: u64 = 1 << 15;
    max_a < I16_LIMIT
        && max_w < I16_LIMIT
        && len as u128 * u128::from(max_a) * u128::from(max_w) < 1 << 31
}

/// Narrows values already checked by [`narrow_fits`].
fn to_i16(values: &[u64]) -> Vec<i16> {
    #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
    values.iter().map(|&v| v as i16).collect()
}

/// Every row · kernel product of narrow operands, laid out as
/// [`Loaded::fire`] lays them out. Kernel-outer keeps one kernel in L1
/// while the block's rows stream from L2; rows go two at a time so each
/// kernel load feeds two multiply-adds.
fn narrow_gemm(rows: &[i16], kernels: &[i16], len: usize, out: &mut [u64]) {
    let filters = kernels.len() / len;
    for (m, kernel) in kernels.chunks_exact(len).enumerate() {
        let mut pairs = rows.chunks_exact(2 * len);
        let mut outputs = out.chunks_exact_mut(2 * filters);
        for (pair, slots) in (&mut pairs).zip(&mut outputs) {
            let (a, b) = pair.split_at(len);
            let (x, y) = dot2(a, b, kernel);
            let (first, second) = slots.split_at_mut(filters);
            first[m] = widen(x);
            second[m] = widen(y);
        }
        let last = pairs.remainder();
        if !last.is_empty() {
            let (x, _) = dot2(last, last, kernel);
            outputs.into_remainder()[m] = widen(x);
        }
    }
}

/// Two narrow inner products sharing one kernel.
fn dot2(a: &[i16], b: &[i16], kernel: &[i16]) -> (i32, i32) {
    let n = kernel.len();
    let (a, b) = (&a[..n], &b[..n]);
    let (mut x, mut y) = (0i32, 0i32);
    for i in 0..n {
        let w = i32::from(kernel[i]);
        x += i32::from(a[i]) * w;
        y += i32::from(b[i]) * w;
    }
    (x, y)
}

/// A narrow sum, non-negative by construction, as the engine's u64.
#[allow(clippy::cast_sign_loss)]
fn widen(sum: i32) -> u64 {
    sum as u64
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

    /// The first `count` weights: unrolled kernels (convolution) or
    /// matrix rows (fully-connected) back to back, kernel-major — the
    /// slice the lowerings hand their engine as `kernels`.
    ///
    /// # Panics
    ///
    /// Panics on a pooling layer's weights or if `count` exceeds the
    /// weights held.
    #[must_use]
    pub fn kernels(&self, count: usize) -> &[u64] {
        match self {
            Self::Conv { data, .. } | Self::Fc { data, .. } => &data[..count],
            // lint:allow(P003) programmer-error contract: compute layers come with their weights
            Self::None => panic!("compute layers need weights"),
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

impl ShapeError {
    /// Checks `input` against `layer`'s declared input shape. A
    /// fully-connected layer reads its input flat, so any shape with the
    /// right element count fits it.
    fn check(layer: &Layer, input: &Tensor) -> Result<(), Self> {
        let fits = if matches!(layer.kind, LayerKind::Fc { .. }) {
            input.data().len() == layer.input.elements()
        } else {
            input.shape() == layer.input
        };
        if fits {
            return Ok(());
        }
        Err(Self {
            layer: layer.name.clone(),
            got: input.shape(),
            want: layer.input,
        })
    }
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

/// Copies the receptive field of output position `(oh, ow)` into `out`
/// in `[kh][kw][channel]` order, the layout of an unrolled kernel.
/// Positions outside `input` read as zero padding. A window lying wholly
/// inside the input copies `kernel·channels` contiguous values per kernel
/// row; only border windows go element by element.
///
/// # Panics
///
/// Panics if `out` is not `kernel²·channels` long.
pub fn gather_window(
    input: &Tensor,
    kernel: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
    out: &mut [u64],
) {
    let Shape { h, w, c } = input.shape();
    let run = kernel * c;
    assert_eq!(out.len(), kernel * run, "window buffer length");
    // Top-left corner in padded coordinates.
    let (top, left) = (oh * stride, ow * stride);
    if top >= padding
        && left >= padding
        && top + kernel <= h + padding
        && left + kernel <= w + padding
    {
        let (ih, iw) = (top - padding, left - padding);
        let data = input.data();
        for (kh, dst) in out.chunks_exact_mut(run).enumerate() {
            let start = ((ih + kh) * w + iw) * c;
            dst.copy_from_slice(&data[start..start + run]);
        }
        return;
    }
    let mut slots = out.iter_mut();
    for kh in 0..kernel {
        for kw in 0..kernel {
            #[allow(clippy::cast_possible_wrap)]
            let ih = (top + kh) as isize - padding as isize;
            #[allow(clippy::cast_possible_wrap)]
            let iw = (left + kw) as isize - padding as isize;
            for (ch, slot) in (0..c).zip(&mut slots) {
                *slot = input.get_padded(ih, iw, ch);
            }
        }
    }
}

/// The convolution lowering every engine shares: fills `out` with the
/// outputs of windows `first..` of the batch's image-major window list
/// (window `image·E² + oh·E + ow`), `filters` values per window in HWC
/// order.
///
/// The layer's kernels load onto `engine` once per call. Windows are
/// taken [`CONV_BLOCK`] at a time — a block may span images — and each
/// block's receptive fields are gathered into one reused patch buffer and
/// fired in one [`Loaded::fire`] call, which writes the block's outputs
/// in place. With the default [`MacEngine::load`] the engine sees exactly
/// the per-window call sequence — window by window, filter by filter.
/// Returns the load's [`ActivityTally`].
///
/// # Errors
///
/// Returns [`ShapeError`] if any input tensor does not match the layer.
///
/// # Panics
///
/// Panics if `layer` is not a convolution or `out` reaches past the last
/// window.
pub fn conv_windows(
    layer: &Layer,
    inputs: &[Tensor],
    weights: &LayerWeights,
    engine: &dyn MacEngine,
    first: usize,
    out: &mut [u64],
) -> Result<ActivityTally, ShapeError> {
    let LayerKind::Conv {
        filters,
        kernel,
        stride,
        padding,
    } = layer.kind
    else {
        // lint:allow(P003) caller contract: conv_windows lowers LayerKind::Conv
        panic!("conv_windows called on a non-conv layer");
    };
    for input in inputs {
        ShapeError::check(layer, input)?;
    }
    let window = kernel * kernel * layer.input.c;
    if window == 0 || filters == 0 {
        // Empty sums: every output is already zero.
        return Ok(ActivityTally::default());
    }
    let e = layer.output_feature_size();
    let count = out.len() / filters;
    assert!(first + count <= e * e * inputs.len(), "no such window");
    let mut windows = inputs
        .iter()
        .flat_map(|input| (0..e).flat_map(move |oh| (0..e).map(move |ow| (input, oh, ow))))
        .skip(first);
    let mut loaded = engine.load(weights.kernels(layer.weight_count()), window);
    let mut patches = vec![0u64; CONV_BLOCK.min(count) * window];
    for outputs in out.chunks_mut(CONV_BLOCK * filters) {
        let rows = &mut patches[..outputs.len() / filters * window];
        let gather_span = pixel_obs::span("gather");
        for (row, (input, oh, ow)) in rows.chunks_exact_mut(window).zip(&mut windows) {
            gather_window(input, kernel, stride, padding, oh, ow, row);
        }
        drop(gather_span);
        loaded.fire(rows, outputs);
    }
    Ok(loaded.finish())
}

/// Executes one convolution layer through [`conv_windows`].
///
/// # Errors
///
/// Returns [`ShapeError`] if the input tensor does not match the layer.
///
/// # Panics
///
/// Panics if `layer` is not a convolution.
pub fn conv2d(
    layer: &Layer,
    input: &Tensor,
    weights: &LayerWeights,
    engine: &dyn MacEngine,
) -> Result<Tensor, ShapeError> {
    let mut out = Tensor::zeros(layer.output_shape());
    conv_windows(layer, from_ref(input), weights, engine, 0, out.data_mut())?;
    Ok(out)
}

/// The fully-connected lowering: the weight rows load as kernels and fire
/// once, with each input, read flat in HWC order, as a row, so `out`
/// receives the outputs image by image. Returns the load's tally.
fn fc_rows(
    layer: &Layer,
    inputs: &[Tensor],
    weights: &LayerWeights,
    engine: &dyn MacEngine,
    out: &mut [u64],
) -> Result<ActivityTally, ShapeError> {
    for input in inputs {
        ShapeError::check(layer, input)?;
    }
    let len = layer.input.elements();
    if len == 0 || out.is_empty() {
        return Ok(ActivityTally::default());
    }
    let rows: Vec<u64> = inputs.iter().flat_map(Tensor::data).copied().collect();
    let mut loaded = engine.load(weights.kernels(layer.weight_count()), len);
    loaded.fire(&rows, out);
    Ok(loaded.finish())
}

/// Executes one fully-connected layer as a one-row GEMM; the input may
/// have any shape with the layer's element count.
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
    let mut out = Tensor::zeros(layer.output_shape());
    fc_rows(layer, from_ref(input), weights, engine, out.data_mut())?;
    Ok(out)
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
    ShapeError::check(layer, input)?;
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

/// Runs a full quantized forward pass: [`forward_batch`] of one image.
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
    Ok(forward_batch(network, from_ref(input), weights, engine, precision)?.remove(0))
}

/// Runs a quantized forward pass over a batch of independent input
/// images sharing one weight set — the serving-scale traffic shape.
///
/// The batch advances layer by layer, and each layer runs once over every
/// image: a convolution's windows are lowered image-major, so a
/// [`CONV_BLOCK`] may span images, and a fully-connected layer is one GEMM
/// with the images as rows. After every compute layer each image's
/// activations are requantized back to `precision` (uniform right shift),
/// emulating fixed-point inference. Each output equals the forward pass
/// of the matching input on its own.
///
/// `weights` must supply one entry per layer (pool layers use
/// [`LayerWeights::None`]).
///
/// # Errors
///
/// Returns the first [`ShapeError`] a layer produces.
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
    assert_eq!(
        weights.len(),
        network.len(),
        "one weight set per layer (use LayerWeights::None for pools)"
    );
    let _forward_span = pixel_obs::span("forward");
    let mut current = inputs.to_vec();
    for (layer, w) in network.layers().iter().zip(weights) {
        let _layer_span = pixel_obs::span(&layer.name);
        pixel_obs::add("dnn.forward.layers", 1);
        let (flat, _) = run_layer(layer, &current, w, engine)?;
        current = Tensor::unbatch(layer.output_shape(), current.len(), &flat);
        if layer.is_compute() {
            for t in &mut current {
                precision.requantize(t);
            }
        }
    }
    Ok(current)
}

/// The per-layer step [`forward_batch`] and [`replay_layers`] share: runs
/// `layer` over every input through `engine` and returns the raw outputs
/// image by image, back to back, with the [`ActivityTally`] the layer's
/// load counted (zero for a pool).
///
/// # Errors
///
/// Returns [`ShapeError`] if an input tensor does not match the layer.
pub fn run_layer(
    layer: &Layer,
    inputs: &[Tensor],
    weights: &LayerWeights,
    engine: &dyn MacEngine,
) -> Result<(Vec<u64>, ActivityTally), ShapeError> {
    let mut out = vec![0u64; inputs.len() * layer.output_shape().elements()];
    let tally = match layer.kind {
        LayerKind::Conv { .. } => conv_windows(layer, inputs, weights, engine, 0, &mut out)?,
        LayerKind::Fc { .. } => fc_rows(layer, inputs, weights, engine, &mut out)?,
        LayerKind::Pool { .. } => {
            out.clear();
            for input in inputs {
                out.extend_from_slice(pool(layer, input)?.data());
            }
            ActivityTally::default()
        }
    };
    Ok((out, tally))
}

/// Fully-connected weights a replay generates at once (8 MiB of `u64`s).
const REPLAY_SLICE_WEIGHTS: usize = 1 << 20;

/// `layer` as [`replay_layers`] runs it: a fully-connected layer whose
/// matrix exceeds [`REPLAY_SLICE_WEIGHTS`] becomes consecutive slices of
/// its outputs, each a layer of its own; any other layer runs whole.
fn replay_slices(layer: &Layer) -> Vec<Layer> {
    let LayerKind::Fc { outputs } = layer.kind else {
        return vec![layer.clone()];
    };
    let inputs = layer.input.elements();
    let per_slice = (REPLAY_SLICE_WEIGHTS / inputs.max(1)).max(1);
    (0..outputs)
        .step_by(per_slice)
        .map(|start| Layer::fc(&layer.name, inputs, per_slice.min(outputs - start)))
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
/// shape, through the same per-layer step as [`forward_batch`], which
/// performs exactly the network's tabulated MAC work — what a timed
/// "forward of the paper CNN" needs — without inventing cross-layer
/// dataflow the table does not specify. Fully-connected weights are
/// generated slice by slice of outputs (never materializing the whole
/// `[output × input]` matrix), so even VGG16's 103M-weight FC1 replays
/// in bounded memory; the slices' outputs are requantized together.
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
        let input = [Tensor::from_fn(layer.input, |_, _, _| {
            rng.range_u64(0, limit)
        })];
        let mut values = Vec::new();
        for slice in replay_slices(layer) {
            let w = LayerWeights::generate(&slice, || rng.range_u64(0, limit));
            values.extend(run_layer(&slice, &input, &w, engine)?.0);
        }
        let mut out = Tensor::from_flat_vec(values);
        if layer.is_compute() {
            precision.requantize(&mut out);
        }
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

    /// Records every `inner_product` call and answers with its index.
    #[derive(Default)]
    struct Recorder {
        calls: std::cell::RefCell<Vec<(Vec<u64>, Vec<u64>)>>,
    }

    impl MacEngine for Recorder {
        fn inner_product(&self, neurons: &[u64], synapses: &[u64]) -> u64 {
            let mut calls = self.calls.borrow_mut();
            calls.push((neurons.to_vec(), synapses.to_vec()));
            calls.len() as u64 - 1
        }
    }

    /// The receptive field of `(oh, ow)` read element by element.
    fn padded_window(layer: &Layer, input: &Tensor, oh: usize, ow: usize) -> Vec<u64> {
        let LayerKind::Conv {
            kernel,
            stride,
            padding,
            ..
        } = layer.kind
        else {
            unreachable!("conv layers only")
        };
        let mut values = Vec::new();
        for kh in 0..kernel {
            for kw in 0..kernel {
                let ih = (oh * stride + kh) as isize - padding as isize;
                let iw = (ow * stride + kw) as isize - padding as isize;
                for c in 0..layer.input.c {
                    values.push(input.get_padded(ih, iw, c));
                }
            }
        }
        values
    }

    #[test]
    fn default_load_fires_row_major_kernel_minor() {
        let rows = [1, 2, 3, 4, 5, 6];
        let kernels = [7, 8, 9, 10];
        let recorder = Recorder::default();
        let mut out = [u64::MAX; 6];
        recorder.load(&kernels, 2).fire(&rows, &mut out);
        assert_eq!(
            out,
            [0, 1, 2, 3, 4, 5],
            "out[r·filters + m] is call r·filters + m"
        );
        let calls = recorder.calls.into_inner();
        let expected: Vec<(Vec<u64>, Vec<u64>)> = rows
            .chunks(2)
            .flat_map(|r| kernels.chunks(2).map(move |k| (r.to_vec(), k.to_vec())))
            .collect();
        assert_eq!(calls, expected);
    }

    /// Counts one CLA add per product.
    struct Counter;

    impl MacEngine for Counter {
        fn inner_product(&self, neurons: &[u64], synapses: &[u64]) -> u64 {
            DirectMac.inner_product(neurons, synapses)
        }

        fn count_product(&self, n: &[u64], s: &[u64], tally: &mut ActivityTally) -> u64 {
            tally.cla_ops += 1;
            self.inner_product(n, s)
        }
    }

    #[test]
    fn a_load_finishes_with_what_its_fires_counted() {
        let kernels = [1, 2, 3, 4, 5, 6];
        for engine in [&Counter as &dyn MacEngine, &PerWindow(&Counter)] {
            let mut loaded = engine.load(&kernels, 2);
            let mut out = [0; 6];
            loaded.fire(&[1, 1, 2, 2], &mut out);
            assert_eq!(out, [3, 7, 11, 6, 14, 22]);
            loaded.fire(&[3, 3], &mut out[..3]);
            assert_eq!(loaded.finish().cla_ops, 9, "one count per product");
        }
        let mut loaded = DirectMac.load(&kernels, 2);
        loaded.fire(&[1, 1], &mut [0; 3]);
        assert_eq!(loaded.finish(), ActivityTally::default());
    }

    #[test]
    fn conv_calls_the_engine_window_by_window_filter_by_filter() {
        // 9×9 windows = 81: one full block of 64 and a partial one.
        let layer = Layer::conv_padded("c", Shape::square(9, 2), 3, 3, 1, 1);
        let mut rng = SplitMix64::seed_from_u64(5);
        let input = Tensor::from_fn(layer.input, |_, _, _| rng.range_u64(0, 15));
        let weights = LayerWeights::generate(&layer, || rng.range_u64(0, 15));
        let recorder = Recorder::default();
        let out = conv2d(&layer, &input, &weights, &recorder).unwrap();
        let e = layer.output_feature_size();
        let mut expected = Vec::new();
        for oh in 0..e {
            for ow in 0..e {
                let window = padded_window(&layer, &input, oh, ow);
                for kernel in weights.kernels(3 * 18).chunks(18) {
                    expected.push((window.clone(), kernel.to_vec()));
                }
            }
        }
        assert_eq!(recorder.calls.into_inner(), expected);
        let order: Vec<u64> = (0..expected.len() as u64).collect();
        assert_eq!(out.data(), order.as_slice(), "outputs land in HWC order");
    }

    #[test]
    fn gather_window_copies_interiors_and_pads_borders() {
        let layer = Layer::conv("c", Shape::square(4, 1), 1, 2, 1);
        let input = Tensor::from_fn(layer.input, |h, w, _| (h * 4 + w) as u64);
        let mut row = [0; 4];
        gather_window(&input, 2, 1, 0, 0, 0, &mut row);
        assert_eq!(row, [0, 1, 4, 5], "top-left window");

        let mut rng = SplitMix64::seed_from_u64(21);
        for (h, c, r, u, p) in [
            (7, 3, 3, 1, 1),
            (8, 2, 5, 2, 2),
            (5, 4, 1, 2, 0),
            (3, 1, 5, 1, 0),
        ] {
            let layer = Layer::conv_padded("c", Shape::square(h, c), 1, r, u, p);
            let input = Tensor::from_fn(layer.input, |_, _, _| rng.range_u64(1, 99));
            let e = layer.output_feature_size();
            let mut row = vec![0; r * r * c];
            for oh in 0..e {
                for ow in 0..e {
                    gather_window(&input, r, u, p, oh, ow, &mut row);
                    assert_eq!(
                        row,
                        padded_window(&layer, &input, oh, ow),
                        "h={h} r={r} p={p}"
                    );
                }
            }
        }
    }

    /// Seeded property test: the blocked `DirectMac` convolution equals the
    /// window-at-a-time reference over padding, stride, 1×1 kernels, block
    /// tails, batches of 1–3 images whose blocks span image boundaries,
    /// and operands on both sides of the narrow kernel's bounds.
    #[test]
    fn direct_mac_blocks_match_the_per_window_reference() {
        let mut rng = SplitMix64::seed_from_u64(0xD1EC7);
        // Operand maxima: typical precisions, the i16 edge and past it.
        let limits = [1, 15, 255, 4095, (1 << 15) - 1, 1 << 15, 1 << 20];
        for case in 0..120 {
            let h = rng.range_usize(1, 14);
            let c = rng.range_usize(1, 5);
            let r = rng.range_usize(1, 5.min(h + 2));
            let u = rng.range_usize(1, 3);
            let p = rng.range_usize(0, (r - 1).min(2));
            let m = rng.range_usize(1, 6);
            let layer = Layer::conv_padded("c", Shape::square(h, c), m, r, u, p);
            let max_a = limits[rng.range_usize(0, limits.len() - 1)];
            let max_w = limits[rng.range_usize(0, limits.len() - 1)];
            let images: Vec<Tensor> = (0..rng.range_usize(1, 3))
                .map(|_| Tensor::from_fn(layer.input, |_, _, _| rng.range_u64(0, max_a)))
                .collect();
            let weights = LayerWeights::generate(&layer, || rng.range_u64(0, max_w));
            let want: Vec<u64> = images
                .iter()
                .flat_map(|x| {
                    conv2d(&layer, x, &weights, &PerWindow(&DirectMac))
                        .unwrap()
                        .to_flat()
                })
                .collect();
            let mut got = vec![u64::MAX; want.len()];
            conv_windows(&layer, &images, &weights, &DirectMac, 0, &mut got).unwrap();
            assert_eq!(
                got,
                want,
                "case {case}: images={} h={h} c={c} m={m} r={r} u={u} p={p} max_a={max_a} max_w={max_w}",
                images.len()
            );
        }
        // E² of 1, 64 (one exact block), 81 and 4225 (a one-window tail).
        for (h, r) in [(1, 1), (9, 2), (10, 2), (65, 1)] {
            let layer = Layer::conv("c", Shape::square(h, 3), 2, r, 1);
            let input = Tensor::from_fn(layer.input, |_, _, _| rng.range_u64(0, 15));
            let weights = LayerWeights::generate(&layer, || rng.range_u64(0, 15));
            assert_eq!(
                conv2d(&layer, &input, &weights, &DirectMac).unwrap(),
                conv2d(&layer, &input, &weights, &PerWindow(&DirectMac)).unwrap(),
                "h={h} r={r}"
            );
        }
    }

    #[test]
    fn narrow_bound_is_exact_at_the_edge_and_falls_back_past_it() {
        const TOP: u64 = (1 << 15) - 1;
        assert!(narrow_fits(2, TOP, TOP), "2·(2^15−1)² < 2^31");
        assert!(
            !narrow_fits(1, 1 << 15, 1),
            "an operand of 2^15 is not an i16"
        );
        assert!(!narrow_fits(1, 1, 1 << 15));
        assert!(narrow_fits(8, 1 << 14, (1 << 14) - 1), "2^31 − 2^17");
        assert!(!narrow_fits(8, 1 << 14, 1 << 14), "len·max·max = 2^31");
        assert!(!narrow_fits(3, TOP, TOP));

        // Constant operands make every window's sum the bound itself.
        // (shape, operand, weight, narrow?): a 1×1 kernel over 2 channels
        // has len 2, a 2×2 kernel over 2 channels len 8.
        for (kernel, channels, a, w, narrow) in [
            (1, 2, TOP, TOP, true),
            (1, 2, TOP + 1, TOP, false),
            (2, 2, 1 << 14, (1 << 14) - 1, true),
            (2, 2, 1 << 14, 1 << 14, false),
            (3, 1, 1 << 14, 1 << 14, false),
        ] {
            let len = kernel * kernel * channels;
            assert_eq!(narrow_fits(len, a, w), narrow, "len={len} a={a} w={w}");
            let layer = Layer::conv("c", Shape::square(9, channels), 3, kernel, 1);
            let input = Tensor::from_fn(layer.input, |_, _, _| a);
            let weights = LayerWeights::generate(&layer, || w);
            let got = conv2d(&layer, &input, &weights, &DirectMac).unwrap();
            assert!(
                got.data().iter().all(|&v| v == len as u64 * a * w),
                "len={len} a={a} w={w}"
            );
            assert_eq!(
                got,
                conv2d(&layer, &input, &weights, &PerWindow(&DirectMac)).unwrap()
            );
        }

        // The row edge: two rows narrow, a row operand of 2^15 and a
        // single row take the u64 loop. One load fires the three blocks in
        // turn, the narrow one first, so each later block must re-check
        // the bound against its own rows; every block gives the
        // reference's values.
        let kernels = [TOP, 1, 2, TOP];
        let mut loaded = DirectMac.load(&kernels, 2);
        for (rows, narrow) in [
            (&[TOP, TOP, 3, TOP][..], true),
            (&[1 << 15, 1, 2, 3][..], false),
            (&[TOP, TOP][..], false),
        ] {
            assert_eq!(narrows(rows, 2, || max(&kernels)), narrow, "{rows:?}");
            let mut got = vec![0; rows.len()];
            loaded.fire(rows, &mut got);
            let mut want = vec![0; rows.len()];
            PerWindow(&DirectMac)
                .load(&kernels, 2)
                .fire(rows, &mut want);
            assert_eq!(got, want, "{rows:?}");
        }
    }

    #[test]
    fn patch_count_equals_paper_mvm_per_filter_channel() {
        // N_MVM = E²·M·C: the block lowering makes one inner product per
        // (window, filter), each covering all C channels.
        use crate::analysis::analyze_layer;
        let layer = Layer::conv("c", Shape::square(10, 8), 4, 3, 1);
        let input = Tensor::from_fn(layer.input, |_, _, _| 1);
        let weights = LayerWeights::generate(&layer, || 1);
        let recorder = Recorder::default();
        conv2d(&layer, &input, &weights, &recorder).unwrap();
        let counts = analyze_layer(&layer);
        assert_eq!(
            counts.mvm,
            (recorder.calls.into_inner().len() * 8) as u64,
            "E²·M calls × C"
        );
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

    /// An FC layer too large to generate at once replays in slices of
    /// outputs to the checksum of the whole layer run at once.
    #[test]
    fn sliced_fc_replay_equals_the_whole_layer() {
        let layer = Layer::fc("f", 1 << 12, 300);
        assert_eq!(replay_slices(&layer).len(), 2, "256 + 44 outputs");
        let precision = Precision::new(4);
        let limit = precision.max_value();
        let mut rng = SplitMix64::seed_from_u64(5);
        let input = Tensor::from_fn(layer.input, |_, _, _| rng.range_u64(0, limit));
        let weights = LayerWeights::generate(&layer, || rng.range_u64(0, limit));
        let mut out = fully_connected(&layer, &input, &weights, &DirectMac).unwrap();
        precision.requantize(&mut out);
        let want = out.data().iter().fold(0u64, |c, &v| c.rotate_left(7) ^ v);
        let net = Network::new("n", vec![layer]);
        assert_eq!(replay_layers(&net, &DirectMac, precision, 5).unwrap(), want);
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
