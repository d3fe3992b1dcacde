//! Property-based invariants of the architecture models, checked across
//! random configurations rather than at hand-picked points.

use pixel::core::config::{AcceleratorConfig, Design};
use pixel::core::energy::OperationEnergies;
use pixel::core::latency::cycles_per_firing;
use pixel::core::mapping::LayerMapping;
use pixel::dnn::analysis::analyze_layer;
use pixel::dnn::layer::{Layer, Shape};
use pixel::units::rng::SplitMix64;

fn random_config(rng: &mut SplitMix64) -> (Design, usize, u32) {
    let design = Design::ALL[rng.range_usize(0, Design::ALL.len() - 1)];
    (design, rng.range_usize(1, 16), rng.range_u32(1, 32))
}

/// All per-operation energies are positive and finite everywhere in
/// the configuration space.
#[test]
fn energies_are_finite_and_positive() {
    let mut rng = SplitMix64::seed_from_u64(0x01);
    for _ in 0..256 {
        let (design, lanes, bits) = random_config(&mut rng);
        let ops = OperationEnergies::for_config(&AcceleratorConfig::new(design, lanes, bits));
        for e in [ops.mul, ops.add, ops.act, ops.comm] {
            assert!(e.value() > 0.0 && e.is_finite(), "{design} {lanes}/{bits}");
        }
        if design.is_optical() {
            assert!(ops.oe.value() > 0.0);
            assert!(ops.laser.value() > 0.0);
        } else {
            assert!(ops.oe.value() == 0.0 && ops.laser.value() == 0.0);
        }
    }
}

/// EE multiply energy is strictly increasing in precision; the
/// optical multiply stays a fixed small fraction of it.
#[test]
fn multiply_energy_monotone_in_bits() {
    let mut rng = SplitMix64::seed_from_u64(0x02);
    for _ in 0..256 {
        let lanes = rng.range_usize(1, 16);
        let bits = rng.range_u32(1, 31);
        let at = |b: u32, d: Design| {
            OperationEnergies::for_config(&AcceleratorConfig::new(d, lanes, b)).mul
        };
        assert!(at(bits + 1, Design::Ee) > at(bits, Design::Ee));
        let ratio = at(bits, Design::Oe) / at(bits, Design::Ee);
        assert!((ratio - 0.0516).abs() < 0.001, "ratio {ratio}");
    }
}

/// Firing service time never decreases with precision and both
/// optical designs obey OE ≥ OO (the extra o/e handoff).
#[test]
fn cycles_monotone_and_ordered() {
    let mut rng = SplitMix64::seed_from_u64(0x03);
    for _ in 0..256 {
        let lanes = rng.range_usize(1, 16);
        let bits = rng.range_u32(1, 31);
        for d in Design::ALL {
            let now = cycles_per_firing(&AcceleratorConfig::new(d, lanes, bits));
            let next = cycles_per_firing(&AcceleratorConfig::new(d, lanes, bits + 1));
            assert!(next >= now, "{d} at {bits}");
        }
        let oe = cycles_per_firing(&AcceleratorConfig::new(Design::Oe, lanes, bits));
        let oo = cycles_per_firing(&AcceleratorConfig::new(Design::Oo, lanes, bits));
        assert!(oe >= oo);
    }
}

/// Mapping identities: chunks cover all MACs exactly once, rounds
/// cover all chunks, utilization ∈ (0, 100].
#[test]
fn mapping_covers_work() {
    let mut rng = SplitMix64::seed_from_u64(0x04);
    for _ in 0..256 {
        let r = rng.range_usize(1, 3);
        let h = rng.range_usize(r.max(4), 32);
        let c = rng.range_usize(1, 16);
        let m = rng.range_usize(1, 16);
        let lanes = rng.range_usize(1, 16);
        let tiles = rng.range_usize(1, 32);
        let layer = Layer::conv("c", Shape::square(h, c), m, 2 * r - 1, 1);
        let config = AcceleratorConfig::new(Design::Oe, lanes, 8).with_tiles(tiles);
        let map = LayerMapping::for_layer(&config, &layer);

        let counts = analyze_layer(&layer);
        assert_eq!(map.total_macs(), counts.mul, "macs = N_mul");
        assert!(map.chunks_per_window * map.lanes >= map.macs_per_window);
        assert!((map.chunks_per_window - 1) * map.lanes < map.macs_per_window);
        assert!(map.rounds * config.tiles as u64 >= map.windows * map.chunks_per_window);
        let u = map.average_utilization_pct();
        assert!(u > 0.0 && u <= 100.0);
    }
}

/// The §IV-B identities hold for every conv layer: N_add = N_mul +
/// N_act and N_mul = R²·N_MVM.
#[test]
fn analysis_identities() {
    let mut rng = SplitMix64::seed_from_u64(0x05);
    for _ in 0..256 {
        let r = [1usize, 3, 5][rng.range_usize(0, 2)];
        let h = rng.range_usize(r.max(3), 64);
        let c = rng.range_usize(1, 32);
        let m = rng.range_usize(1, 64);
        let u = rng.range_usize(1, 2);
        let layer = Layer::conv("c", Shape::square(h, c), m, r, u);
        let counts = analyze_layer(&layer);
        assert_eq!(counts.add, counts.mul + counts.act);
        assert_eq!(counts.mul, (r * r) as u64 * counts.mvm);
        let e = layer.output_feature_size() as u64;
        assert_eq!(counts.act, e * e * m as u64);
    }
}

/// Design ordering at the calibration point extends across the whole
/// precision sweep: total per-op energy of OO ≤ OE for bits ≥ 8, and
/// both beat EE for bits ≥ 8 at any lane count.
#[test]
fn optical_energy_dominance_at_high_bits() {
    let mut rng = SplitMix64::seed_from_u64(0x06);
    for _ in 0..256 {
        let lanes = rng.range_usize(1, 16);
        let bits = rng.range_u32(8, 32);
        let total = |d: Design| {
            let ops = OperationEnergies::for_config(&AcceleratorConfig::new(d, lanes, bits));
            (ops.mul + ops.add + ops.oe + ops.comm + ops.laser).value()
        };
        assert!(
            total(Design::Oe) < total(Design::Ee),
            "OE < EE at {lanes}/{bits}"
        );
        if bits >= 16 {
            assert!(
                total(Design::Oo) < total(Design::Oe),
                "OO < OE at {lanes}/{bits}"
            );
        }
    }
}
