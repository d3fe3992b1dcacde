//! Cross-crate functional verification: quantized CNN inference must be
//! bit-identical whether the MACs run as plain integers, as the EE
//! Stripes datapath, through the OE/OO optical device simulations, or
//! through the whole photonic fabric.

use pixel::core::config::{AcceleratorConfig, Design};
use pixel::core::functional_fabric::FunctionalFabric;
use pixel::core::omac::{engine_for, EeMac, OeMac, OoMac, PLANE_WINDOWS};
use pixel::dnn::inference::{
    forward, forward_batch, replay_layers, run_layer, DirectMac, LayerWeights, MacEngine, PerWindow,
};
use pixel::dnn::layer::{Layer, LayerKind, PoolKind, Shape};
use pixel::dnn::network::Network;
use pixel::dnn::quant::Precision;
use pixel::dnn::tensor::Tensor;
use pixel::dnn::zoo;
use pixel::units::rng::SplitMix64;

/// A LeNet-shaped micro CNN small enough to push through the pulse-train
/// simulation in a debug-mode test.
fn micro_net() -> Network {
    Network::new(
        "micro",
        vec![
            Layer::conv("Conv1", Shape::square(12, 1), 4, 3, 1),
            Layer::pool("Pool1", Shape::square(10, 4), 2, 2, PoolKind::Max),
            Layer::conv("Conv2", Shape::square(5, 4), 6, 3, 1),
            Layer::fc("FC1", 3 * 3 * 6, 10),
        ],
    )
}

fn random_weights(net: &Network, precision: Precision, seed: u64) -> Vec<LayerWeights> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    net.layers()
        .iter()
        .map(|l| LayerWeights::generate(l, || rng.range_u64(0, precision.max_value())))
        .collect()
}

fn random_input(shape: Shape, precision: Precision, seed: u64) -> Tensor {
    let mut rng = SplitMix64::seed_from_u64(seed);
    Tensor::from_fn(shape, |_, _, _| rng.range_u64(0, precision.max_value()))
}

#[test]
fn micro_cnn_is_bit_identical_across_all_engines() {
    let net = micro_net();
    net.validate_sequential().expect("micro net is consistent");
    let precision = Precision::new(4);

    for seed in [1u64, 2, 3] {
        let weights = random_weights(&net, precision, seed);
        let input = random_input(Shape::square(12, 1), precision, seed + 100);
        let reference =
            forward(&net, &input, &weights, &DirectMac, precision).expect("consistent shapes");

        for design in Design::ALL {
            let config = AcceleratorConfig::new(design, 4, precision.bits());
            let engine = engine_for(&config);
            let out = forward(&net, &input, &weights, engine.as_ref(), precision)
                .expect("consistent shapes");
            assert_eq!(out, reference, "{design} seed {seed}");
            let per_window = PerWindow(engine.as_ref());
            let out =
                forward(&net, &input, &weights, &per_window, precision).expect("consistent shapes");
            assert_eq!(out, reference, "per-window {design} seed {seed}");
            let fabric = FunctionalFabric::new(config);
            let out =
                forward(&net, &input, &weights, &fabric, precision).expect("consistent shapes");
            assert_eq!(out, reference, "fabric {design} seed {seed}");
        }
    }
}

/// Words one image sends across the fabric's medium in `layer`: every
/// word of every convolution window, or the fully-connected input.
fn words_per_image(layer: &Layer) -> u64 {
    let words = match layer.kind {
        LayerKind::Conv { kernel, .. } => {
            layer.output_feature_size().pow(2) * kernel * kernel * layer.input.c
        }
        LayerKind::Fc { .. } => layer.input.elements(),
        LayerKind::Pool { .. } => 0,
    };
    words as u64
}

/// GEMM rows one image contributes to `layer`: its convolution windows,
/// or one fully-connected row.
fn rows_per_image(layer: &Layer) -> usize {
    match layer.kind {
        LayerKind::Fc { .. } => 1,
        _ => layer.output_feature_size().pow(2),
    }
}

/// A whole LeNet, FC layers included, runs bit-true on the fabric: a
/// 70-image batch fills one plane group and leaves a partial one in every
/// compute layer, and every row word crosses the optical medium.
#[test]
fn whole_lenet_batch_is_bit_true_on_the_fabric() {
    const IMAGES: usize = 70;
    let net = zoo::lenet();
    let precision = Precision::new(4);
    let weights = random_weights(&net, precision, 70);
    let images: Vec<Tensor> = (0..IMAGES as u64)
        .map(|i| random_input(net.layers()[0].input, precision, 700 + i))
        .collect();
    for layer in net.compute_layers() {
        let rows = rows_per_image(layer) * IMAGES;
        assert!(
            rows > PLANE_WINDOWS && !rows.is_multiple_of(PLANE_WINDOWS),
            "{}: a full and a partial group",
            layer.name
        );
    }
    let want = forward_batch(&net, &images, &weights, &DirectMac, precision).expect("LeNet chains");
    let words: u64 = net.layers().iter().map(words_per_image).sum::<u64>() * IMAGES as u64;
    for design in Design::ALL {
        let fabric = FunctionalFabric::new(AcceleratorConfig::new(design, 4, precision.bits()));
        let got = forward_batch(&net, &images, &weights, &fabric, precision).expect("LeNet chains");
        assert_eq!(got, want, "{design}");
        assert_eq!(fabric.detected_words(), words, "{design}");
    }
}

/// The engines hold no mutable state, so one engine can serve many
/// threads.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<EeMac>();
    send_sync::<OeMac>();
    send_sync::<OoMac>();
    send_sync::<FunctionalFabric>();
};

/// A 70-image LeNet batch, run layer by layer through `run_layer` and
/// requantized between layers, gives equal outputs and counts equal
/// device activity — all nine tallies of every compute layer — on the
/// fabric (rows on the plane lanes), on the scalar OMAC's block path
/// (kernels on the lanes) and on its per-window device walk.
fn lenet_layer_tallies_match_on_fabric_block_and_per_window_paths(design: Design) {
    const IMAGES: usize = 70;
    let net = zoo::lenet();
    let precision = Precision::new(4);
    let weights = random_weights(&net, precision, 71);
    let mut current: Vec<Tensor> = (0..IMAGES as u64)
        .map(|i| random_input(net.layers()[0].input, precision, 710 + i))
        .collect();
    let config = AcceleratorConfig::new(design, 4, precision.bits());
    let fabric = FunctionalFabric::new(config);
    let block = engine_for(&config);
    let per_window = PerWindow(block.as_ref());
    let engines: [&dyn MacEngine; 3] = [&fabric, block.as_ref(), &per_window];
    for (layer, w) in net.layers().iter().zip(&weights) {
        let [fabric_run, block_run, per_window_run] =
            engines.map(|engine| run_layer(layer, &current, w, engine).expect("LeNet chains"));
        let label = format!("{design} {}", layer.name);
        assert_eq!(fabric_run, block_run, "{label}: block path");
        assert_eq!(fabric_run, per_window_run, "{label}: per-window");
        let (flat, tally) = fabric_run;
        assert_eq!(layer.is_compute(), tally.gated_slots > 0, "{label}");
        current = Tensor::unbatch(layer.output_shape(), IMAGES, &flat);
        if layer.is_compute() {
            for t in &mut current {
                precision.requantize(t);
            }
        }
    }
}

#[test]
fn lenet_layer_tallies_match_on_ee() {
    lenet_layer_tallies_match_on_fabric_block_and_per_window_paths(Design::Ee);
}

#[test]
fn lenet_layer_tallies_match_on_oe() {
    lenet_layer_tallies_match_on_fabric_block_and_per_window_paths(Design::Oe);
}

#[test]
fn lenet_layer_tallies_match_on_oo() {
    lenet_layer_tallies_match_on_fabric_block_and_per_window_paths(Design::Oo);
}

/// Largest layer, in MACs, a sampled replay runs on the fabric.
const REPLAY_MACS: usize = 1 << 18;

/// The conv, FC and pool layer of `net` with the fewest MACs per filter
/// or output (the words one image sends per layer), then the fewest
/// inputs, compute layers cut to the filters or outputs that fit
/// [`REPLAY_MACS`].
fn sampled_layers(net: &Network) -> Vec<Layer> {
    let kinds: [fn(&LayerKind) -> bool; 3] = [
        |k| matches!(k, LayerKind::Conv { .. }),
        |k| matches!(k, LayerKind::Fc { .. }),
        |k| matches!(k, LayerKind::Pool { .. }),
    ];
    kinds
        .iter()
        .map(|kind| {
            let mut layer = net
                .layers()
                .iter()
                .filter(|l| kind(&l.kind))
                .min_by_key(|l| (words_per_image(l), l.input.elements()))
                .cloned()
                .expect("every zoo CNN has conv, FC and pool layers");
            let fit = REPLAY_MACS / words_per_image(&layer).max(1) as usize;
            if let LayerKind::Conv { filters: n, .. } | LayerKind::Fc { outputs: n } =
                &mut layer.kind
            {
                *n = (*n).clamp(1, fit.max(1));
            }
            layer
        })
        .collect()
}

/// Sampled layers of every zoo CNN replay to the same checksum on the
/// fabric as on the integer reference, on every design.
#[test]
fn zoo_layer_replays_match_on_the_fabric() {
    let precision = Precision::new(4);
    for net in zoo::all_networks() {
        let sample = Network::new(net.name(), sampled_layers(&net));
        let want = replay_layers(&sample, &DirectMac, precision, 17).expect("zoo shapes");
        for design in Design::ALL {
            let fabric = FunctionalFabric::new(AcceleratorConfig::new(design, 4, precision.bits()));
            let got = replay_layers(&sample, &fabric, precision, 17).expect("zoo shapes");
            assert_eq!(got, want, "{} {design}", net.name());
        }
    }
}

#[test]
fn real_lenet_windows_sampled_through_optical_engines() {
    // Sample inner-product windows at real LeNet layer sizes (25, 150,
    // 400, 120 elements) instead of a full forward pass, which keeps the
    // debug-mode pulse-train simulation fast.
    let net = zoo::lenet();
    let window_sizes: Vec<usize> = net
        .compute_layers()
        .map(|l| match l.kind {
            LayerKind::Conv { kernel, .. } => kernel * kernel * l.input.c,
            LayerKind::Fc { .. } => l.input.elements(),
            LayerKind::Pool { .. } => unreachable!(),
        })
        .collect();
    assert!(window_sizes.contains(&400), "LeNet conv3 window");

    let mut rng = SplitMix64::seed_from_u64(99);
    for &len in &window_sizes {
        let n: Vec<u64> = (0..len).map(|_| rng.range_u64(0, 255)).collect();
        let s: Vec<u64> = (0..len).map(|_| rng.range_u64(0, 255)).collect();
        let expected = DirectMac.inner_product(&n, &s);
        for design in Design::ALL {
            let engine = engine_for(&AcceleratorConfig::new(design, 8, 8));
            assert_eq!(
                engine.inner_product(&n, &s),
                expected,
                "{design} window of {len}"
            );
        }
    }
}

#[test]
fn engines_handle_degenerate_inputs() {
    for design in Design::ALL {
        let engine = engine_for(&AcceleratorConfig::new(design, 4, 8));
        assert_eq!(engine.inner_product(&[], &[]), 0, "{design} empty window");
        assert_eq!(engine.inner_product(&[0], &[0]), 0, "{design} zeros");
        assert_eq!(
            engine.inner_product(&[255; 4], &[255; 4]),
            4 * 255 * 255,
            "{design} saturated operands"
        );
    }
}

#[test]
fn requantization_is_engine_independent() {
    // The precision-rescaling path (right shifts between layers) must not
    // interact with which engine computed the raw sums.
    let net = micro_net();
    let weights = random_weights(&net, Precision::new(6), 7);
    let input = random_input(Shape::square(12, 1), Precision::new(6), 8);
    for precision_bits in [2u32, 4, 6] {
        let precision = Precision::new(precision_bits);
        let reference = forward(&net, &input, &weights, &DirectMac, precision).expect("shapes");
        let engine = engine_for(&AcceleratorConfig::new(Design::Oo, 4, 6));
        let optical = forward(&net, &input, &weights, engine.as_ref(), precision).expect("shapes");
        assert_eq!(optical, reference, "precision {precision_bits}");
    }
}
