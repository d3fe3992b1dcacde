//! End-to-end observability: the global registry picks up counters and
//! spans from the instrumented crates, and stays a no-op while disabled.
//!
//! Everything lives in one test function because the global registry is
//! process-wide state; this file is its own test binary, so no other
//! test races it.

use pixel::core::config::{AcceleratorConfig, Design};
use pixel::core::functional_fabric::FunctionalFabric;
use pixel::dnn::inference::{conv2d, DirectMac, LayerWeights};
use pixel::dnn::layer::{Layer, Shape};
use pixel::dnn::tensor::Tensor;
use pixel::units::rng::SplitMix64;

/// The per-group stages of the fabric's conv loop, in execution order.
const STAGES: [&str; 4] = ["gather", "pack", "transport", "fire"];

fn run_fabric_conv() {
    let mut rng = SplitMix64::seed_from_u64(11);
    let layer = Layer::conv_padded("Conv", Shape::square(6, 2), 3, 3, 1, 1);
    let input = Tensor::from_fn(Shape::square(6, 2), |_, _, _| rng.range_u64(0, 15));
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
    // Three designs × one conv each, 6×6 output → 36 windows per design.
    assert_eq!(snap.counter("fabric.windows"), Some(108));
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
    // run packs its 36 windows into one partial group, so three designs
    // give three of each.
    for stage in STAGES {
        let path = format!("fabric_conv2d/rows/{stage}");
        assert_eq!(snap.span(&path).map(|s| s.count), Some(3), "{path}");
    }
    // Analysis ran under the accelerator evaluation.
    assert!(snap.span("analyze").is_some());

    // Phase 3: disable again — recording stops but data is retained.
    pixel::obs::disable();
    run_fabric_conv();
    let frozen = pixel::obs::snapshot();
    assert_eq!(frozen.counter("fabric.windows"), Some(108));
    for stage in STAGES {
        let path = format!("fabric_conv2d/rows/{stage}");
        assert_eq!(frozen.span(&path).map(|s| s.count), Some(3), "{path}");
    }
    pixel::obs::reset();
    assert!(pixel::obs::snapshot().counters.is_empty());
}
