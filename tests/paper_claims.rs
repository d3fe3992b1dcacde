//! The paper's headline numerical claims, checked end to end.
//!
//! Absolute joules come from the calibration in
//! `pixel_core::calibration`; what these tests pin down is that the
//! *relative* claims — who wins, by roughly what factor, where the
//! crossovers fall — come out of the model structurally.

use pixel::core::accelerator::Accelerator;
use pixel::core::config::{AcceleratorConfig, Design};
use pixel::core::dse;
use pixel::core::energy::OperationEnergies;
use pixel::core::sweep::SweepEngine;
use pixel::dnn::zoo;
use pixel::photonics::mzi::MziChain;

fn accel(design: Design, lanes: usize, bits: u32) -> Accelerator {
    Accelerator::new(AcceleratorConfig::new(design, lanes, bits))
}

/// §VII: "optical bitwise multiplication utilizing MRRs gave a 94.9%
/// increase in energy improvement for both OE and OO designs".
#[test]
fn claim_94_9_percent_multiplication_improvement() {
    let ee = OperationEnergies::for_config(&AcceleratorConfig::new(Design::Ee, 4, 16));
    let oe = OperationEnergies::for_config(&AcceleratorConfig::new(Design::Oe, 4, 16));
    let oo = OperationEnergies::for_config(&AcceleratorConfig::new(Design::Oo, 4, 16));
    assert_eq!(
        oe.mul, oo.mul,
        "both optical designs share the MRR multiply"
    );
    let improvement = 1.0 - oe.mul / ee.mul;
    assert!(
        (improvement - 0.949).abs() < 0.01,
        "multiply improvement {improvement}"
    );
}

/// §VII: "the OO design had a further 53.8% improvement for accumulation
/// using MZIs over the electrical addition in the hybrid OE design".
#[test]
fn claim_53_8_percent_accumulation_improvement() {
    let oe = OperationEnergies::for_config(&AcceleratorConfig::new(Design::Oe, 4, 16));
    let oo = OperationEnergies::for_config(&AcceleratorConfig::new(Design::Oo, 4, 16));
    let improvement = 1.0 - oo.add / oe.add;
    assert!(
        (improvement - 0.538).abs() < 0.02,
        "accumulation improvement {improvement}"
    );
}

/// Abstract / §V-B3: EDP improvements of 48.4% (OE) and 73.9% (OO) over
/// EE at 4 lanes, 16 bits/lane (geomean across the six CNNs).
#[test]
fn claim_headline_edp_improvements() {
    let (oe, oo) = dse::headline_edp_improvements(&SweepEngine::with_default_jobs());
    assert!((oe - 0.484).abs() < 0.08, "OE geomean improvement {oe}");
    assert!((oo - 0.739).abs() < 0.06, "OO geomean improvement {oo}");
    assert!(oo > oe, "OO dominates OE");
}

/// §V-B2: "In the Conv 2 layer, OO is 31.9% faster than EE, and 18.6%
/// faster than OE" (ZFNet, 8 lanes, 8 bits/lane).
#[test]
fn claim_zfnet_conv2_latency_gaps() {
    let conv2 = |design| {
        accel(design, 8, 8)
            .evaluate(&zoo::zfnet())
            .layers
            .into_iter()
            .find(|l| l.name == "Conv2")
            .expect("ZFNet has Conv2")
            .latency
            .value()
    };
    let (ee, oe, oo) = (conv2(Design::Ee), conv2(Design::Oe), conv2(Design::Oo));
    let vs_ee = 1.0 - oo / ee;
    let vs_oe = 1.0 - oo / oe;
    assert!((vs_ee - 0.319).abs() < 0.07, "OO vs EE {vs_ee}");
    assert!((vs_oe - 0.186).abs() < 0.07, "OO vs OE {vs_oe}");
}

/// Table II, reproduced within 15% on every cell of all nine rows.
#[test]
fn claim_table_ii_cells() {
    // (network, design, [mul, add, act, oe, comm, laser]) in mJ.
    let paper: &[(&str, Design, [f64; 6])] = &[
        (
            "ResNet-34",
            Design::Ee,
            [3634.0, 847.0, 1.09, 0.0, 139.0, 0.0],
        ),
        (
            "ResNet-34",
            Design::Oe,
            [187.0, 910.0, 1.09, 227.0, 118.0, 59.8],
        ),
        (
            "ResNet-34",
            Design::Oo,
            [187.0, 420.0, 1.09, 227.0, 118.0, 91.0],
        ),
        (
            "GoogLeNet",
            Design::Ee,
            [1578.0, 368.0, 1.22, 0.0, 60.4, 0.0],
        ),
        (
            "GoogLeNet",
            Design::Oe,
            [81.0, 396.0, 1.22, 98.8, 51.4, 26.0],
        ),
        (
            "GoogLeNet",
            Design::Oo,
            [81.0, 183.0, 1.22, 98.8, 51.4, 35.1],
        ),
        ("ZFNet", Design::Ee, [1225.0, 313.0, 34.2, 0.0, 46.9, 0.0]),
        ("ZFNet", Design::Oe, [62.9, 336.0, 34.2, 76.6, 39.9, 20.1]),
        ("ZFNet", Design::Oo, [62.9, 155.0, 34.2, 76.6, 39.9, 30.4]),
    ];
    let rows = dse::table2_breakdown(&SweepEngine::with_default_jobs());
    for (net, design, expected) in paper {
        let row = rows
            .iter()
            .find(|r| r.network == *net && r.design == *design)
            .expect("row present");
        let actual: Vec<f64> = row
            .breakdown
            .components()
            .iter()
            .map(|e| e.as_millijoules())
            .collect();
        for (i, (&a, &p)) in actual.iter().zip(expected).enumerate() {
            if p == 0.0 {
                assert!(
                    a.abs() < 1e-9,
                    "{net} {design} component {i}: {a} should be 0"
                );
            } else {
                let err = (a - p).abs() / p;
                assert!(
                    err < 0.15,
                    "{net} {design} component {i}: {a:.1} vs paper {p} ({:.0}% off)",
                    err * 100.0
                );
            }
        }
    }
}

/// §V-B1 / Fig. 7: optical designs outperform EE on energy once
/// bits/lane exceeds the lane count; at 32 bits on 8 lanes EE dominates
/// the relative energy.
#[test]
fn claim_fig7_energy_crossover() {
    let nets = zoo::all_networks();
    let total = |design, bits| {
        let a = accel(design, 8, bits);
        nets.iter()
            .map(|n| a.evaluate(n).total_energy().value())
            .sum::<f64>()
    };
    // At 4 bits/lane on 8 lanes, EE is still competitive (no big optical win).
    let ratio_4 = total(Design::Oo, 4) / total(Design::Ee, 4);
    assert!(ratio_4 > 0.8, "OO/EE at 4 bits = {ratio_4}");
    // At 32 bits/lane, OO wins by a large margin.
    let ratio_32 = total(Design::Oo, 32) / total(Design::Ee, 32);
    assert!(ratio_32 < 0.25, "OO/EE at 32 bits = {ratio_32}");
}

/// §V-A / Fig. 6: EE occupies the least area; OO the most, at every lane
/// count.
#[test]
fn claim_fig6_area_ordering() {
    for lanes in [2usize, 4, 8, 16] {
        let area = |design| {
            pixel::core::area::fabric_area(&AcceleratorConfig::new(design, lanes, 4)).total()
        };
        assert!(area(Design::Ee) < area(Design::Oe), "{lanes} lanes");
        assert!(area(Design::Oe) < area(Design::Oo), "{lanes} lanes");
    }
}

/// §V-B2 / Fig. 8: EE latency declines monotonically with bits/lane;
/// OE and OO are U-shaped with the minimum at the optical clumping
/// threshold (10 pulses per electrical cycle).
#[test]
fn claim_fig8_latency_shapes() {
    let nets = zoo::all_networks();
    let points = dse::fig8_latency_geomean(
        &SweepEngine::with_default_jobs(),
        &nets,
        &[1, 2, 4, 8, 10, 16, 24, 32],
    );
    let series = |design: Design| -> Vec<f64> {
        points
            .iter()
            .filter(|p| p.design == design)
            .map(|p| p.latency_geomean)
            .collect()
    };
    let ee = series(Design::Ee);
    assert!(
        ee.windows(2).all(|w| w[1] < w[0]),
        "EE declines monotonically: {ee:?}"
    );
    for design in [Design::Oe, Design::Oo] {
        let s = series(design);
        let min = s
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(min, 4, "{design} minimum sits at 10 bits/lane: {s:?}");
        assert!(s[7] > s[4], "{design} rises past the threshold");
    }
}

/// Eq. 10: an 8-stage MZI chain delay-matched to the 10 GHz optical clock
/// delays its train by (8·2 mm + 7·6.77 mm)·n_Si/c = 0.736 ns. With Eq. 9
/// solved exactly (6.61 mm, not the printed 6.77 mm) the delay is seven
/// bit periods plus the stage transits, within rounding of the paper.
#[test]
fn claim_eq10_mzi_chain_delay() {
    let chain = MziChain::delay_matched(8, 10.0e9);
    let t = chain.total_propagation_delay().as_nanos();
    assert!((t - 0.736).abs() < 0.03, "got {t} ns");
}
