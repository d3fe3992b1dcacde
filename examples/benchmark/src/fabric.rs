//! `fabric_ee`, `fabric_oe`, `fabric_oo`: bit-true inference through the
//! functional fabric on one design.
//!
//! One operation is a LeNet forward over a batch of [`BATCH`] images
//! (convolutions through `FunctionalFabric::conv2d_batch`, FC layers
//! through `fully_connected` on the design's scalar OMAC engine, pools and
//! requantization through `pixel-dnn`), then three single-image fabric
//! convolutions sampled from the zoo. In the batch every bit-plane group
//! is full (784, 100 and 1 windows per image × 64), and FC on the scalar
//! OMACs takes more of it than the convolutions on OE and OO; the
//! single-image sample has a layer with
//! only full groups and two whose last group is partial (16 and 4
//! windows), which the fabric runs window by window. Each sampled layer
//! keeps its zoo input shape and kernel but only [`SAMPLE_FILTERS`]
//! filters, which keeps an operation under half a second on the slowest
//! design. Outputs must equal `DirectMac` bit for bit and the fabric's
//! detected-word count must advance by exactly windows × window size.

use crate::trace::Tracer;
use crate::{
    macs, mmac_per_s, ms_since, plane_groups, plane_occupancy, repeat_setup, report_layer, run_ops,
    stats, windows, zoo_layer, Ctx, LayerCase, Outcome, BITS, JOBS,
};
use pixel_core::config::{AcceleratorConfig, Design};
use pixel_core::functional_fabric::FunctionalFabric;
use pixel_core::omac::engine_for;
use pixel_dnn::inference::{
    conv2d, forward_batch, fully_connected, pool, DirectMac, LayerWeights, MacEngine,
};
use pixel_dnn::layer::{Layer, LayerKind};
use pixel_dnn::quant::Precision;
use pixel_dnn::tensor::Tensor;
use pixel_dnn::zoo;
use pixel_units::rng::SplitMix64;
use std::time::Instant;

/// Images per LeNet batch.
pub const BATCH: usize = 64;

/// Filters kept in each sampled layer.
pub const SAMPLE_FILTERS: usize = 8;

/// Sampled single-image convolutions: `(network, layer)`.
pub const SAMPLE: [(&str, &str); 3] = [
    ("ResNet-34", "Conv2_1_1"),
    ("GoogLeNet", "Inc3b_3x3"),
    ("GoogLeNet", "Inc4e_3x3"),
];

/// FC lanes of every design's engine.
const LANES: usize = 4;

/// Every input of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// LeNet weights, one entry per layer.
    pub weights: Vec<LayerWeights>,
    /// The LeNet batch.
    pub images: Vec<Tensor>,
    /// The single-image sample, each layer cut to [`SAMPLE_FILTERS`].
    pub sample: Vec<LayerCase>,
}

/// The inputs for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let limit = Precision::new(BITS).max_value();
    let net = zoo::lenet();
    let weights = net
        .layers()
        .iter()
        .map(|l| LayerWeights::generate(l, || rng.range_u64(0, limit)))
        .collect();
    let shape = net.layers()[0].input;
    let images = (0..BATCH)
        .map(|_| Tensor::from_fn(shape, |_, _, _| rng.range_u64(0, limit)))
        .collect();
    let sample = SAMPLE
        .iter()
        .map(|&(network, name)| {
            let mut layer = zoo_layer(network, name);
            if let LayerKind::Conv { filters, .. } = &mut layer.kind {
                *filters = SAMPLE_FILTERS;
            }
            LayerCase::generate(network, layer, &mut rng)
        })
        .collect();
    Inputs {
        weights,
        images,
        sample,
    }
}

/// Words the detector must recover for one convolution over `images`.
fn conv_words(layer: &Layer, images: usize) -> u64 {
    let LayerKind::Conv { kernel, .. } = layer.kind else {
        return 0;
    };
    (images * windows(layer) * kernel * kernel * layer.input.c) as u64
}

struct Prepared {
    inputs: Inputs,
    fabric: FunctionalFabric,
    engine: Box<dyn MacEngine>,
}

/// Outputs of one operation, with its two halves' times.
struct PassOutput {
    lenet: Vec<Tensor>,
    sample: Vec<Tensor>,
    lenet_ms: f64,
    sample_ms: f64,
}

fn pass(p: &Prepared, tracer: &Tracer, parent: u64) -> PassOutput {
    let precision = Precision::new(BITS);
    let net = zoo::lenet();
    let start = Instant::now();
    let mut current: Option<Vec<Tensor>> = None;
    for (layer, weights) in net.layers().iter().zip(&p.inputs.weights) {
        let span = tracer.open();
        let input = current.as_deref().unwrap_or(&p.inputs.images);
        let requantize = |t: &mut Tensor| {
            tracer.time("dnn.quant.requantize", span.id(), || {
                precision.requantize(t)
            });
        };
        let next: Vec<Tensor> = match layer.kind {
            LayerKind::Conv { .. } => {
                let mut outs = tracer
                    .time("functional_fabric.conv", span.id(), || {
                        p.fabric.conv2d_batch(layer, input, weights, JOBS)
                    })
                    .expect("LeNet activations have their layer's shape");
                outs.iter_mut().for_each(requantize);
                outs
            }
            LayerKind::Fc { .. } => input
                .iter()
                .map(|x| {
                    let mut t = tracer
                        .time("omac.fc", span.id(), || {
                            fully_connected(layer, x, weights, p.engine.as_ref())
                        })
                        .expect("LeNet activations have their layer's shape");
                    requantize(&mut t);
                    t
                })
                .collect(),
            LayerKind::Pool { .. } => input
                .iter()
                .map(|x| {
                    tracer
                        .time("dnn.inference.pool", span.id(), || pool(layer, x))
                        .expect("LeNet activations have their layer's shape")
                })
                .collect(),
        };
        tracer.close(span, &format!("lenet.{}", layer.name), parent, None);
        current = Some(next);
    }
    let lenet = current.expect("LeNet has layers");
    let lenet_ms = ms_since(start);

    let start = Instant::now();
    let sample = p
        .inputs
        .sample
        .iter()
        .map(|s| {
            let name = format!("functional_fabric.sample.{}", s.layer.name);
            tracer
                .time(&name, parent, || {
                    p.fabric.conv2d_batch(
                        &s.layer,
                        std::slice::from_ref(&s.input),
                        &s.weights,
                        JOBS,
                    )
                })
                .expect("sampled operands have their layer's shape")
                .remove(0)
        })
        .collect();
    PassOutput {
        lenet,
        sample,
        lenet_ms,
        sample_ms: ms_since(start),
    }
}

/// Runs the workload on `design`.
pub fn run(ctx: &Ctx, design: Design) -> Outcome {
    let mut out = Outcome::default();
    let config = AcceleratorConfig::new(design, LANES, BITS);
    let (prepared, setup_s) = repeat_setup(
        || Prepared {
            inputs: inputs(ctx.seed),
            fabric: FunctionalFabric::new(config),
            engine: engine_for(&config),
        },
        drop,
    );
    let net = zoo::lenet();
    let precision = Precision::new(BITS);
    let want_lenet = forward_batch(
        &net,
        &prepared.inputs.images,
        &prepared.inputs.weights,
        &DirectMac,
        precision,
    )
    .expect("LeNet chains end to end");
    let want_sample: Vec<Tensor> = prepared
        .inputs
        .sample
        .iter()
        .map(|s| conv2d(&s.layer, &s.input, &s.weights, &DirectMac).expect("sample shapes match"))
        .collect();
    let pass_words: u64 = net
        .layers()
        .iter()
        .map(|l| conv_words(l, BATCH))
        .sum::<u64>()
        + prepared
            .inputs
            .sample
            .iter()
            .map(|s| conv_words(&s.layer, 1))
            .sum::<u64>();

    let (mut lenet_ms, mut sample_ms) = (Vec::new(), Vec::new());
    let words_start = prepared.fabric.detected_words();
    let samples = run_ops(ctx, &mut out, |tracer| {
        let words_before = prepared.fabric.detected_words();
        let op = tracer.open();
        let start = Instant::now();
        let got = pass(&prepared, tracer, op.id());
        let ms = ms_since(start);
        tracer.close(op, "fabric.pass", 0, None);
        if !tracer.enabled() {
            lenet_ms.push(got.lenet_ms);
            sample_ms.push(got.sample_ms);
        }
        let words = prepared.fabric.detected_words() - words_before;
        if got.lenet != want_lenet {
            Err("LeNet batch differs from DirectMac".to_owned())
        } else if let Some(i) = (0..want_sample.len()).find(|&i| got.sample[i] != want_sample[i]) {
            Err(format!(
                "{} differs from DirectMac",
                prepared.inputs.sample[i].layer.name
            ))
        } else if words != pass_words {
            Err(format!(
                "detector recovered {words} words, want {pass_words}"
            ))
        } else {
            Ok(ms)
        }
    });

    samples.report(&mut out);
    out.metric("setup_s", setup_s, "s");
    #[allow(clippy::cast_precision_loss)]
    {
        let passes = out.attempted + 1;
        let words = prepared.fabric.detected_words() - words_start;
        out.metric(
            "functional_fabric.detected_words_ratio",
            words as f64 / (pass_words * passes) as f64,
            "ratio",
        );
        out.metric(
            "lenet_img_per_s",
            BATCH as f64 * 1e3 / stats::median(&lenet_ms),
            "1/s",
        );
        let sample_macs: u64 = prepared.inputs.sample.iter().map(|s| macs(&s.layer)).sum();
        out.metric(
            "conv_gmac_per_s",
            sample_macs as f64 / 1e6 / stats::median(&sample_ms),
            "GMAC/s",
        );
    }
    for s in &prepared.inputs.sample {
        let w = windows(&s.layer);
        let key = format!("functional_fabric.{}.{}", s.network, s.layer.name);
        #[allow(clippy::cast_precision_loss)]
        {
            out.metric(format!("{key}.windows"), w as f64, "count");
            out.metric(
                format!("{key}.tail_windows"),
                plane_groups(w).1 as f64,
                "count",
            );
        }
        out.metric(
            format!("{key}.plane_occupancy"),
            plane_occupancy(w),
            "ratio",
        );
    }
    if ctx.tracer.enabled() {
        layer_metrics(&ctx.tracer, &prepared.inputs, &mut out);
    }
    out
}

fn layer_metrics(tracer: &Tracer, inputs: &Inputs, out: &mut Outcome) {
    let times = crate::trace::layer_times(&tracer.spans());
    let get = |name: &str| times.get(name).copied().unwrap_or_default();
    let pass = get("fabric.pass");
    let net = zoo::lenet();
    let batch_macs = |fc: bool| -> u64 {
        net.layers()
            .iter()
            .filter(|l| l.is_compute() && matches!(l.kind, LayerKind::Fc { .. }) == fc)
            .map(macs)
            .sum::<u64>()
            * BATCH as u64
            * pass.calls
    };
    for (name, macs) in [
        ("functional_fabric.conv", Some(batch_macs(false))),
        ("omac.fc", Some(batch_macs(true))),
        ("dnn.inference.pool", None),
        ("dnn.quant.requantize", None),
    ] {
        report_layer(out, name, get(name).self_ns, pass.total_ns, macs);
    }
    let (mut sample_ns, mut sample_macs) = (0, 0);
    for s in &inputs.sample {
        let name = format!("functional_fabric.sample.{}", s.layer.name);
        let t = get(&name);
        let layer_macs = macs(&s.layer) * t.calls;
        out.metric(
            format!("{name}.mmac_per_s"),
            mmac_per_s(layer_macs, t.self_ns),
            "MMAC/s",
        );
        sample_ns += t.self_ns;
        sample_macs += layer_macs;
    }
    report_layer(
        out,
        "functional_fabric.sample_conv",
        sample_ns,
        pass.total_ns,
        Some(sample_macs),
    );
    for layer in net.layers() {
        let t = get(&format!("lenet.{}", layer.name));
        #[allow(clippy::cast_precision_loss)]
        let ms = t.total_ns as f64 / 1e6 / t.calls.max(1) as f64;
        out.metric(format!("lenet.{}.ms", layer.name), ms, "ms");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_and_seeded() {
        let a = inputs(5);
        assert_eq!(a, inputs(5));
        assert_ne!(a, inputs(6));
        assert_eq!(a.images.len(), BATCH);
        let tails: Vec<usize> = a
            .sample
            .iter()
            .map(|s| plane_groups(windows(&s.layer)).1)
            .collect();
        assert_eq!(
            tails,
            [0, 16, 4],
            "one full-group layer and two partial tails"
        );
    }

    #[test]
    fn every_lenet_group_is_full_at_the_batch_size() {
        for layer in zoo::lenet()
            .layers()
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::Conv { .. }))
        {
            assert_eq!(plane_groups(windows(layer) * BATCH).1, 0, "{}", layer.name);
        }
    }
}
