//! End-to-end observability: the global registry picks up counters and
//! spans from the instrumented crates, and stays a no-op while disabled.
//!
//! Everything lives in one test function because the global registry is
//! process-wide state; this file is its own test binary, so no other
//! test races it.

use pixel::core::config::{AcceleratorConfig, Design};
use pixel::core::functional_fabric::FunctionalFabric;
use pixel::core::omac::engine_for;
use pixel::dnn::inference::{conv2d, forward_batch, DirectMac, LayerWeights, MacEngine, PerWindow};
use pixel::dnn::layer::{Layer, Shape};
use pixel::dnn::network::Network;
use pixel::dnn::quant::Precision;
use pixel::dnn::tensor::Tensor;
use pixel::units::rng::SplitMix64;

/// The per-group stages of the fabric's conv loop, in execution order.
const STAGES: [&str; 4] = ["gather", "pack", "transport", "fire"];

/// Plane groups in [`run_fabric_conv`]'s convolution: 100 windows, one
/// full group and a partial one.
const GROUPS: u64 = 2;

/// One single-threaded fabric conv per design, each loading its kernels
/// once and firing [`GROUPS`] groups through them.
fn run_fabric_conv() {
    let mut rng = SplitMix64::seed_from_u64(11);
    let layer = Layer::conv_padded("Conv", Shape::square(10, 2), 3, 3, 1, 1);
    let input = Tensor::from_fn(Shape::square(10, 2), |_, _, _| rng.range_u64(0, 15));
    let weights = LayerWeights::generate(&layer, || rng.range_u64(0, 15));
    for design in Design::ALL {
        let fabric = FunctionalFabric::new(AcceleratorConfig::new(design, 4, 4));
        let out = fabric
            .conv2d_batch(&layer, std::slice::from_ref(&input), &weights, 1)
            .unwrap();
        let direct = conv2d(&layer, &input, &weights, &DirectMac).unwrap();
        assert_eq!(out, [direct], "{design}");
    }
}

/// The compute layers of [`fabric_forward_loads_once_per_layer`]'s
/// network, each with the plane groups its two-image batch fires: the
/// 8×8 and 6×6 convolution outputs make 128 and 72 windows, two groups
/// each, and the FC layer's two rows make one.
const FORWARD_LAYERS: [(&str, u64); 3] = [("Conv1", 2), ("Conv2", 2), ("FC1", 1)];

/// A two-image `forward_batch` on the fabric, once per design, loads
/// each compute layer's kernels once per call and fires one group at a
/// time past them; the outputs equal the integer reference's.
fn fabric_forward_loads_once_per_layer() {
    let mut rng = SplitMix64::seed_from_u64(29);
    let conv1 = Layer::conv("Conv1", Shape::square(10, 2), 3, 3, 1);
    let conv2 = Layer::conv("Conv2", conv1.output_shape(), 2, 3, 1);
    let fc = Layer::fc("FC1", conv2.output_shape().elements(), 4);
    let network = Network::new("n", vec![conv1, conv2, fc]);
    let weights: Vec<LayerWeights> = network
        .layers()
        .iter()
        .map(|layer| LayerWeights::generate(layer, || rng.range_u64(0, 15)))
        .collect();
    let inputs: Vec<Tensor> = (0..2)
        .map(|_| Tensor::from_fn(Shape::square(10, 2), |_, _, _| rng.range_u64(0, 15)))
        .collect();
    let precision = Precision::new(4);
    let direct = forward_batch(&network, &inputs, &weights, &DirectMac, precision).unwrap();
    for design in Design::ALL {
        let fabric = FunctionalFabric::new(AcceleratorConfig::new(design, 4, 4));
        let got = forward_batch(&network, &inputs, &weights, &fabric, precision).unwrap();
        assert_eq!(got, direct, "{design}");
    }
    let snap = pixel::obs::snapshot();
    let calls = Design::ALL.len() as u64;
    for (layer, groups) in FORWARD_LAYERS {
        let count = |stage: &str| {
            snap.span(&format!("forward/{layer}/{stage}"))
                .map(|s| s.count)
        };
        assert_eq!(count("load"), Some(calls), "{layer}: one load per call");
        assert_eq!(
            count("fire"),
            Some(calls * groups),
            "{layer}: one fire per group"
        );
    }
}

/// The `omac.*` counters' current values.
fn omac_counters() -> Vec<(String, u64)> {
    let mut counters = pixel::obs::snapshot().counters;
    counters.retain(|(name, _)| name.starts_with("omac."));
    counters
}

/// How far `run` advances every `omac.*` counter.
fn omac_deltas(run: impl FnOnce()) -> Vec<(String, u64)> {
    let before = omac_counters();
    run();
    omac_counters()
        .into_iter()
        .map(|(name, value)| {
            let old = before.iter().find(|(n, _)| *n == name).map_or(0, |c| c.1);
            (name, value - old)
        })
        .filter(|(_, delta)| *delta > 0)
        .collect()
}

/// The scalar OMACs' block path advances the `omac.*` counters exactly
/// as far as the per-window path: a one-row block, a row-heavy block
/// and two kernel groups with a partial last one, all with padded lane
/// tails (4 lanes).
fn omac_block_counters_match_per_window() {
    let mut rng = SplitMix64::seed_from_u64(23);
    for (rows, kernels, len) in [(1, 70, 9), (9, 3, 13), (2, 130, 6)] {
        let a: Vec<u64> = (0..rows * len).map(|_| rng.range_u64(0, 15)).collect();
        let w: Vec<u64> = (0..kernels * len).map(|_| rng.range_u64(0, 15)).collect();
        for design in Design::ALL {
            let engine = engine_for(&AcceleratorConfig::new(design, 4, 4));
            let mut out = vec![0; rows * kernels];
            let block = omac_deltas(|| engine.load(&w, len).fire(&a, &mut out));
            let per_window = omac_deltas(|| {
                PerWindow(engine.as_ref()).load(&w, len).fire(&a, &mut out);
            });
            assert!(block.len() >= 4, "{design}: {block:?}");
            assert_eq!(block, per_window, "{design} rows={rows} kernels={kernels}");
        }
    }
}

#[test]
fn global_registry_observes_the_instrumented_stack() {
    // Phase 1: disabled (the default) — instrumented code records nothing.
    assert!(!pixel::obs::enabled());
    run_fabric_conv();
    let quiet = pixel::obs::snapshot();
    assert!(quiet.counters.is_empty(), "{:?}", quiet.counters);
    assert!(quiet.spans.is_empty());

    // Phase 2: enabled — the same workload surfaces counters and spans
    // from the fabric, the per-design OMACs, and the analytic models.
    pixel::obs::enable();
    run_fabric_conv();
    let accel =
        pixel::core::accelerator::Accelerator::new(AcceleratorConfig::new(Design::Oo, 4, 8));
    let _report = accel.evaluate(&pixel::dnn::zoo::lenet());
    let snap = pixel::obs::snapshot();

    for counter in [
        "fabric.windows",
        "fabric.mac_ops",
        "fabric.transport_words",
        "omac.ee.mac_ops",
        "omac.ee.bit_toggles",
        "omac.oe.mac_ops",
        "omac.oe.mrr_slots",
        "omac.oo.mac_ops",
        "omac.oo.mzi_slots",
        "dse.model_evals",
        "dnn.analysis.layers",
    ] {
        assert!(
            snap.counter(counter).is_some_and(|v| v > 0),
            "missing counter {counter}: have {:?}",
            snap.counters.iter().map(|(n, _)| n).collect::<Vec<_>>()
        );
    }
    // Three designs × one conv each, 10×10 output → 100 windows per
    // design.
    assert_eq!(snap.counter("fabric.windows"), Some(300));
    assert!(snap.span("fabric_conv2d").is_some_and(|s| s.count == 3));
    // The bit-true path is span-*nested*: phase children aggregate under
    // the conv parent in the span tree.
    assert!(snap
        .span("fabric_conv2d/plan")
        .is_some_and(|s| s.count == 3));
    assert!(snap
        .span("fabric_conv2d/rows")
        .is_some_and(|s| s.count == 3));
    // Stage spans nest under `rows`, one of each per plane group: every
    // run packs its 100 windows into two groups, so three designs give
    // six of each. The kernels load once per call, before the first
    // group fires: three loads.
    for stage in STAGES {
        let path = format!("fabric_conv2d/rows/{stage}");
        assert_eq!(
            snap.span(&path).map(|s| s.count),
            Some(3 * GROUPS),
            "{path}"
        );
    }
    assert_eq!(
        snap.span("fabric_conv2d/rows/load").map(|s| s.count),
        Some(3)
    );
    // Analysis ran under the accelerator evaluation.
    assert!(snap.span("analyze").is_some());
    omac_block_counters_match_per_window();

    // Phase 3: disable again — recording stops but data is retained.
    pixel::obs::disable();
    run_fabric_conv();
    let frozen = pixel::obs::snapshot();
    assert_eq!(frozen.counter("fabric.windows"), Some(300));
    for stage in STAGES {
        let path = format!("fabric_conv2d/rows/{stage}");
        assert_eq!(
            frozen.span(&path).map(|s| s.count),
            Some(3 * GROUPS),
            "{path}"
        );
    }
    pixel::obs::reset();
    assert!(pixel::obs::snapshot().counters.is_empty());

    // Phase 4: a whole forward pass on the fabric, on a fresh registry.
    pixel::obs::enable();
    fabric_forward_loads_once_per_layer();
    pixel::obs::disable();
    pixel::obs::reset();
}
