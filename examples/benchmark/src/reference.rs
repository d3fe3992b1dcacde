//! `reference`: the integer reference engine (`DirectMac`) on a fixed
//! sample of zoo layers, single-threaded.
//!
//! The reference bounds every bit-true equivalence check and is the first
//! optimisation target, and it never touches the fabric. One operation
//! runs every LeNet layer plus one or more layers of each other zoo CNN,
//! chosen for the shapes that cost differently: a large-stride kernel over
//! three channels, a deep 3×3, two 1×1s, two FC layers and two max pools
//! (about 217 M MACs). Each layer runs on operands of its tabulated shape
//! made in set-up, then its outputs are requantized.

use crate::trace::Tracer;
use crate::{
    macs, ms_since, repeat_setup, report_layer, run_ops, stats, zoo_layer, Ctx, LayerCase, Outcome,
    BITS,
};
use pixel_dnn::inference::{conv2d, fully_connected, pool, replay_layers, DirectMac, MacEngine};
use pixel_dnn::layer::{Layer, LayerKind};
use pixel_dnn::network::Network;
use pixel_dnn::quant::Precision;
use pixel_dnn::tensor::Tensor;
use pixel_dnn::zoo;
use pixel_units::rng::SplitMix64;
use std::time::Instant;

/// The sampled layers beyond LeNet's: `(network, layer)`.
const SAMPLE: [(&str, &str); 8] = [
    ("AlexNet", "Conv1"),
    ("AlexNet", "Pool1"),
    ("GoogLeNet", "Inc4e_3x3"),
    ("GoogLeNet", "Inc3a_1x1"),
    ("GoogLeNet", "FC1"),
    ("ResNet-34", "Proj3"),
    ("VGG16", "Pool5"),
    ("ZFNet", "FC3"),
];

/// Largest layer (MACs) the untimed per-network replay check may pick.
const REPLAY_CHECK_MACS: u64 = 120_000_000;

/// The benchmark's own inner product: a plain indexed loop, independent
/// of `DirectMac`'s iterator form.
struct NaiveMac;

impl MacEngine for NaiveMac {
    fn inner_product(&self, neurons: &[u64], synapses: &[u64]) -> u64 {
        let mut acc = 0u64;
        for i in 0..neurons.len() {
            acc += neurons[i] * synapses[i];
        }
        acc
    }
}

/// The sampled layers and their operands for `seed`.
pub fn cases(seed: u64) -> Vec<LayerCase> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    zoo::lenet()
        .layers()
        .iter()
        .map(|l| ("LeNet", l.clone()))
        .chain(
            SAMPLE
                .iter()
                .map(|&(net, layer)| (net, zoo_layer(net, layer))),
        )
        .map(|(net, layer)| LayerCase::generate(net, layer, &mut rng))
        .collect()
}

/// Runs one sampled layer, requantizing compute-layer outputs.
fn execute(case: &LayerCase, engine: &dyn MacEngine, tracer: &Tracer, parent: u64) -> Tensor {
    let precision = Precision::new(BITS);
    let (layer, input, weights) = (&case.layer, &case.input, &case.weights);
    let result = match layer.kind {
        LayerKind::Conv { .. } => tracer.time("dnn.inference.conv", parent, || {
            conv2d(layer, input, weights, engine)
        }),
        LayerKind::Fc { .. } => tracer.time("dnn.inference.fc", parent, || {
            fully_connected(layer, input, weights, engine)
        }),
        LayerKind::Pool { .. } => tracer.time("dnn.inference.pool", parent, || pool(layer, input)),
    };
    let mut out = result.expect("sampled operands have their layer's shape");
    if layer.is_compute() {
        tracer.time("dnn.quant.requantize", parent, || {
            precision.requantize(&mut out)
        });
    }
    out
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (cases, setup_s) = repeat_setup(|| cases(ctx.seed), drop);
    let expected: Vec<Tensor> = cases
        .iter()
        .map(|case| execute(case, &NaiveMac, ctx.untraced(), 0))
        .collect();

    let samples = run_ops(ctx, &mut out, |tracer| {
        let pass = tracer.open();
        let start = Instant::now();
        let outputs: Vec<Tensor> = cases
            .iter()
            .map(|case| execute(case, &DirectMac, tracer, pass.id()))
            .collect();
        let ms = ms_since(start);
        tracer.close(pass, "reference.pass", 0, None);
        match outputs
            .iter()
            .zip(&cases)
            .zip(&expected)
            .find(|((got, _), want)| got != want)
        {
            Some(((_, case), _)) => {
                Err(format!("{} differs from the naive engine", case.layer.name))
            }
            None => Ok(ms),
        }
    });

    replay_check(ctx.seed, &mut out);
    samples.report(&mut out);
    out.metric("setup_s", setup_s, "s");
    let pass_macs: u64 = cases.iter().map(|c| macs(&c.layer)).sum();
    #[allow(clippy::cast_precision_loss)]
    let gmac = pass_macs as f64 / 1e9;
    out.metric(
        "reference_gmac_per_s",
        gmac * 1e3 / stats::median(&samples.untraced),
        "GMAC/s",
    );
    if ctx.tracer.enabled() {
        layer_metrics(&ctx.tracer, &cases, &mut out);
    }
    out
}

/// Replays one seed-chosen layer of every zoo CNN, untimed, through
/// `replay_layers` with `DirectMac` and with the naive engine; the
/// checksums must match.
fn replay_check(seed: u64, out: &mut Outcome) {
    let precision = Precision::new(BITS);
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x9E9A_11CE);
    for net in zoo::all_networks() {
        let eligible: Vec<&Layer> = net
            .layers()
            .iter()
            .filter(|l| macs(l) <= REPLAY_CHECK_MACS)
            .collect();
        let layer = eligible[rng.range_usize(0, eligible.len() - 1)];
        let one = Network::new(net.name(), vec![layer.clone()]);
        let direct = replay_layers(&one, &DirectMac, precision, seed);
        let naive = replay_layers(&one, &NaiveMac, precision, seed);
        match (direct, naive) {
            (Ok(a), Ok(b)) if a == b => {}
            (a, b) => out.error(format!(
                "replay of {}/{} disagrees: {a:?} vs {b:?}",
                net.name(),
                layer.name
            )),
        }
    }
}

fn layer_metrics(tracer: &Tracer, cases: &[LayerCase], out: &mut Outcome) {
    let times = crate::trace::layer_times(&tracer.spans());
    let get = |name: &str| times.get(name).copied().unwrap_or_default();
    let pass = get("reference.pass");
    let kind_macs = |fc: bool| -> u64 {
        cases
            .iter()
            .filter(|c| matches!(c.layer.kind, LayerKind::Fc { .. }) == fc)
            .map(|c| macs(&c.layer))
            .sum::<u64>()
            * pass.calls
    };
    for (name, macs) in [
        ("dnn.inference.conv", Some(kind_macs(false))),
        ("dnn.inference.fc", Some(kind_macs(true))),
        ("dnn.inference.pool", None),
        ("dnn.quant.requantize", None),
    ] {
        report_layer(out, name, get(name).self_ns, pass.total_ns, macs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_and_seeded() {
        let a = cases(11);
        assert_eq!(a, cases(11));
        assert_ne!(a, cases(12));
        assert_eq!(a.len(), zoo::lenet().len() + SAMPLE.len());
    }

    #[test]
    fn naive_engine_agrees_with_direct() {
        let n = [3, 0, 15, 7];
        let s = [2, 9, 1, 4];
        assert_eq!(
            NaiveMac.inner_product(&n, &s),
            DirectMac.inner_product(&n, &s)
        );
    }
}
