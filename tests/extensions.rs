//! Integration tests across the extension modules: signed quantization on
//! optical engines, the coherent-mesh comparator, batched throughput, the
//! schedule simulator against the analytic model, and the thermal margin
//! the ring heaters must hold.

use pixel::core::coherent::CoherentEngine;
use pixel::core::config::{AcceleratorConfig, Design};
use pixel::core::omac::engine_for;
use pixel::core::reliability::thermal_margin_kelvin;
use pixel::core::sim::{simulate_network, SimConfig};
use pixel::core::throughput::batched;
use pixel::dnn::quant::Precision;
use pixel::dnn::signed::{signed_inner_product, SignedQuant};
use pixel::dnn::zoo;
use pixel::units::rng::SplitMix64;

#[test]
fn signed_inner_products_through_optical_engines() {
    let mut rng = SplitMix64::seed_from_u64(5);
    let qa = SignedQuant::centered(Precision::new(8));
    let qb = SignedQuant::centered(Precision::new(8));
    for design in Design::ALL {
        let engine = engine_for(&AcceleratorConfig::new(design, 4, 8));
        for _ in 0..5 {
            let len = rng.range_usize(1, 29);
            let signed: Vec<(i64, i64)> = (0..len)
                .map(|_| (rng.range_i64(-128, 127), rng.range_i64(-128, 127)))
                .collect();
            let expected: i64 = signed.iter().map(|&(x, y)| x * y).sum();
            let a: Vec<u64> = signed.iter().map(|&(x, _)| qa.encode(x)).collect();
            let b: Vec<u64> = signed.iter().map(|&(_, y)| qb.encode(y)).collect();
            assert_eq!(
                signed_inner_product(engine.as_ref(), &a, &qa, &b, &qb),
                expected,
                "{design} len={len}"
            );
        }
    }
}

#[test]
fn signed_fc_layer_through_optical_engines() {
    use pixel::dnn::signed::signed_fully_connected;
    let q = SignedQuant::centered(Precision::new(8));
    let mut rng = SplitMix64::seed_from_u64(17);
    let inputs: Vec<i64> = (0..12).map(|_| rng.range_i64(-128, 127)).collect();
    let weights: Vec<i64> = (0..3 * 12).map(|_| rng.range_i64(-128, 127)).collect();
    let expected: Vec<i64> = weights
        .chunks(12)
        .map(|row| row.iter().zip(&inputs).map(|(a, b)| a * b).sum())
        .collect();
    let x_codes: Vec<u64> = inputs.iter().map(|&v| q.encode(v)).collect();
    let w_codes: Vec<u64> = weights.iter().map(|&v| q.encode(v)).collect();
    for design in Design::ALL {
        let engine = engine_for(&AcceleratorConfig::new(design, 4, 8));
        let out = signed_fully_connected(engine.as_ref(), &x_codes, &q, &w_codes, &q);
        assert_eq!(out, expected, "{design}");
    }
}

#[test]
fn coherent_engine_matches_reference_on_glyph_templates() {
    // Use the glyph templates as a real weight matrix (padded square).
    use pixel::dnn::dataset::{template_weights, GlyphDataset};
    let dataset = GlyphDataset::new(8, 6, Precision::new(4));
    let templates = template_weights(&dataset);
    let n = 6;
    // Project the 64-wide templates down to 6 features (block sums) to
    // form a 6×6 matrix.
    let w: Vec<Vec<f64>> = templates
        .iter()
        .map(|t| {
            t.chunks(t.len() / n)
                .take(n)
                .map(|c| c.iter().sum::<u64>() as f64 / 4.0)
                .collect()
        })
        .collect();
    let engine = CoherentEngine::synthesize(&w);
    let x = vec![1.0, 0.5, -0.25, 0.75, -1.0, 0.1];
    let optical = engine.apply(&x);
    for (i, row) in w.iter().enumerate() {
        let exact: f64 = row.iter().zip(&x).map(|(a, b)| a * b).sum();
        assert!(
            (optical[i] - exact).abs() < 1e-7,
            "row {i}: {} vs {exact}",
            optical[i]
        );
    }
}

#[test]
fn throughput_and_simulator_are_consistent() {
    let config = AcceleratorConfig::new(Design::Oo, 4, 16);
    let net = zoo::lenet();
    // The simulator's ideal-front-end total should track the analytic
    // latency the throughput model builds on.
    let (_, sim_total) = simulate_network(&config, &SimConfig::ideal(), &net);
    let single = batched(&config, &net, 1).batch_latency;
    let ratio = sim_total / single;
    assert!((0.6..=1.1).contains(&ratio), "ratio {ratio}");

    // Larger batches never reduce throughput.
    let mut last = 0.0;
    for b in [1usize, 4, 16, 64] {
        let t = batched(&config, &net, b).inferences_per_second;
        assert!(t >= last, "throughput regressed at batch {b}");
        last = t;
    }
}

#[test]
fn weight_streaming_feasible_at_max_fabric() {
    // The scaling bound and weight streaming compose: a maximal feasible
    // fabric can still be pre-loaded in reasonable time.
    use pixel::core::scaling::max_supported_tiles;
    use pixel::core::weight_streaming::{network_weight_load, totals};
    let max_tiles = max_supported_tiles(Design::Oo, 100_000).min(1024);
    let config = AcceleratorConfig::new(Design::Oo, 4, 16).with_tiles(max_tiles);
    let (_, t, _) = totals(&network_weight_load(&config, &zoo::vgg16()));
    // VGG16 carries ~135 M weights (FC1 dominates); on ≥1024 channels the
    // burst finishes in ~0.13 ms at 1 GHz — negligible next to inference.
    assert!(t.as_millis() < 1.0, "pre-load {} ms", t.as_millis());
}

#[test]
fn thermal_margin_is_sub_kelvin() {
    // The double filter passes ≥50% per-pulse power only while the
    // squared Lorentzian stays above threshold — a sub-kelvin margin,
    // which is exactly why §II-A1 needs active heaters.
    let margin = thermal_margin_kelvin(8, 0.05, 5.0);
    assert!(margin > 0.0, "some margin exists");
    assert!(margin < 1.5, "margin {margin} K should be tight");
}
