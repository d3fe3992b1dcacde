//! Design-space exploration: the sweeps behind every figure and table.
//!
//! Each function regenerates the data series of one paper artifact; the
//! `reproduce` binary renders them. Every artifact routes through the
//! [`SweepEngine`] its caller passes: the design points are laid out as
//! a flat grid, mapped in parallel over the engine's worker threads,
//! and evaluated through its shared memoizing
//! [`crate::model::EvalContext`]. Results are returned in grid order,
//! so a parallel sweep is bitwise-identical to a serial one.

use crate::config::{AcceleratorConfig, Design};
use crate::edp::geomean;
use crate::energy::EnergyBreakdown;
use crate::model::EvalContext;
use crate::sweep::SweepEngine;
use pixel_dnn::network::Network;
use pixel_dnn::zoo;
use pixel_units::Area;

/// One point of the Fig. 4 single-MAC energy/bit study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyPerBitPoint {
    /// Design.
    pub design: Design,
    /// Lane (wavelength) count.
    pub lanes: usize,
    /// Bits per lane.
    pub bits: u32,
    /// Energy per payload bit \[J\].
    pub energy_per_bit: f64,
}

/// Fig. 4: energy/bit of a single MAC unit over lanes × bits/lane.
#[must_use]
pub fn fig4_energy_per_bit(
    engine: &SweepEngine,
    lanes_sweep: &[usize],
    bits_sweep: &[u32],
) -> Vec<EnergyPerBitPoint> {
    let points: Vec<(Design, usize, u32)> = Design::ALL
        .iter()
        .flat_map(|&design| {
            lanes_sweep
                .iter()
                .flat_map(move |&lanes| bits_sweep.iter().map(move |&bits| (design, lanes, bits)))
        })
        .collect();
    engine.map(&points, |ctx, &(design, lanes, bits)| {
        let _span = pixel_obs::span(design.label());
        pixel_obs::add("dse.design_points", 1);
        let cfg = AcceleratorConfig::new(design, lanes, bits);
        EnergyPerBitPoint {
            design,
            lanes,
            bits,
            energy_per_bit: ctx
                .operation_energies(&cfg)
                .energy_per_bit(lanes, bits)
                .value(),
        }
    })
}

/// One bar of the Fig. 5 component-energy study.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentEnergyBar {
    /// Network name.
    pub network: String,
    /// Design.
    pub design: Design,
    /// Bits per lane.
    pub bits: u32,
    /// Component breakdown.
    pub breakdown: EnergyBreakdown,
}

/// Fig. 5: per-component energy for the given networks at 4 lanes over a
/// bits/lane sweep.
#[must_use]
pub fn fig5_component_energy(
    engine: &SweepEngine,
    networks: &[Network],
    bits_sweep: &[u32],
) -> Vec<ComponentEnergyBar> {
    let points: Vec<(&Network, Design, u32)> = networks
        .iter()
        .flat_map(|net| {
            Design::ALL
                .iter()
                .flat_map(move |&design| bits_sweep.iter().map(move |&bits| (net, design, bits)))
        })
        .collect();
    engine.map(&points, |ctx, &(net, design, bits)| {
        let _span = pixel_obs::span(design.label());
        pixel_obs::add("dse.design_points", 1);
        let report = ctx.evaluate(&AcceleratorConfig::new(design, 4, bits), net);
        ComponentEnergyBar {
            network: net.name().to_owned(),
            design,
            bits,
            breakdown: report.energy_breakdown(),
        }
    })
}

/// One point of the Fig. 6 area study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaPoint {
    /// Design.
    pub design: Design,
    /// Lane count.
    pub lanes: usize,
    /// Fabric area.
    pub area: Area,
}

/// Fig. 6: fabric area at 4 bits/lane over a lane sweep.
#[must_use]
pub fn fig6_area(engine: &SweepEngine, lanes_sweep: &[usize]) -> Vec<AreaPoint> {
    let points: Vec<(Design, usize)> = Design::ALL
        .iter()
        .flat_map(|&design| lanes_sweep.iter().map(move |&lanes| (design, lanes)))
        .collect();
    engine.map(&points, |_ctx, &(design, lanes)| {
        let _span = pixel_obs::span(design.label());
        pixel_obs::add("dse.design_points", 1);
        let cfg = AcceleratorConfig::new(design, lanes, 4);
        AreaPoint {
            design,
            lanes,
            area: design.model().fabric_area(&cfg).total(),
        }
    })
}

/// One bar of a normalized per-network study (Figs. 7 and 10).
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedPoint {
    /// Network name.
    pub network: String,
    /// Design.
    pub design: Design,
    /// Bits per lane.
    pub bits: u32,
    /// Value normalized to the EE design at the same (network, bits).
    pub normalized: f64,
}

/// Fig. 7: energy normalized to EE, per network × bits/lane, at 8 lanes.
#[must_use]
pub fn fig7_normalized_energy(
    engine: &SweepEngine,
    networks: &[Network],
    bits_sweep: &[u32],
) -> Vec<NormalizedPoint> {
    normalized_sweep(engine, networks, bits_sweep, 8, |ctx, cfg, net| {
        ctx.evaluate(cfg, net).total_energy().value()
    })
}

/// Fig. 10: EDP normalized to EE, per network × bits/lane, at 4 lanes.
#[must_use]
pub fn fig10_normalized_edp(
    engine: &SweepEngine,
    networks: &[Network],
    bits_sweep: &[u32],
) -> Vec<NormalizedPoint> {
    normalized_sweep(engine, networks, bits_sweep, 4, |ctx, cfg, net| {
        ctx.evaluate(cfg, net).edp().value()
    })
}

fn normalized_sweep(
    engine: &SweepEngine,
    networks: &[Network],
    bits_sweep: &[u32],
    lanes: usize,
    metric: impl Fn(&EvalContext, &AcceleratorConfig, &Network) -> f64 + Sync,
) -> Vec<NormalizedPoint> {
    // One point per (network, bits): the EE baseline and the three
    // normalized bars belong together, so they evaluate on one worker.
    let points: Vec<(&Network, u32)> = networks
        .iter()
        .flat_map(|net| bits_sweep.iter().map(move |&bits| (net, bits)))
        .collect();
    let groups = engine.map(&points, |ctx, &(net, bits)| {
        let baseline = metric(ctx, &AcceleratorConfig::new(Design::Ee, lanes, bits), net);
        Design::ALL
            .map(|design| {
                let _span = pixel_obs::span(design.label());
                pixel_obs::add("dse.design_points", 1);
                let value = metric(ctx, &AcceleratorConfig::new(design, lanes, bits), net);
                NormalizedPoint {
                    network: net.name().to_owned(),
                    design,
                    bits,
                    normalized: value / baseline,
                }
            })
            .to_vec()
    });
    groups.into_iter().flatten().collect()
}

/// One point of the Fig. 8 latency study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPoint {
    /// Design.
    pub design: Design,
    /// Bits per lane.
    pub bits: u32,
    /// Geometric-mean inference latency across the networks \[s\].
    pub latency_geomean: f64,
}

/// Fig. 8: geomean latency across the six CNNs at 8 lanes, bits/lane 1–32.
#[must_use]
pub fn fig8_latency_geomean(
    engine: &SweepEngine,
    networks: &[Network],
    bits_sweep: &[u32],
) -> Vec<LatencyPoint> {
    let points: Vec<(Design, u32)> = Design::ALL
        .iter()
        .flat_map(|&design| bits_sweep.iter().map(move |&bits| (design, bits)))
        .collect();
    engine.map(&points, |ctx, &(design, bits)| {
        let _span = pixel_obs::span(design.label());
        pixel_obs::add("dse.design_points", 1);
        let cfg = AcceleratorConfig::new(design, 8, bits);
        let latencies: Vec<f64> = networks
            .iter()
            .map(|n| ctx.evaluate(&cfg, n).total_latency().value())
            .collect();
        LatencyPoint {
            design,
            bits,
            latency_geomean: geomean(&latencies),
        }
    })
}

/// One bar of the Fig. 9 per-layer latency study.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerLatencyPoint {
    /// Layer name.
    pub layer: String,
    /// Design.
    pub design: Design,
    /// Layer latency \[s\].
    pub latency: f64,
}

/// Fig. 9: ZFNet per-layer latency at 8 lanes, 8 bits/lane.
#[must_use]
pub fn fig9_zfnet_layer_latency(engine: &SweepEngine) -> Vec<LayerLatencyPoint> {
    let net = zoo::zfnet();
    let groups = engine.map(&Design::ALL, |ctx, &design| {
        let _span = pixel_obs::span(design.label());
        pixel_obs::add("dse.design_points", 1);
        let report = ctx.evaluate(&AcceleratorConfig::new(design, 8, 8), &net);
        report
            .layers
            .into_iter()
            .map(|layer| LayerLatencyPoint {
                layer: layer.name,
                design,
                latency: layer.latency.value(),
            })
            .collect::<Vec<_>>()
    });
    groups.into_iter().flatten().collect()
}

/// One row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct TableIiRow {
    /// Network name.
    pub network: String,
    /// Design.
    pub design: Design,
    /// Component breakdown.
    pub breakdown: EnergyBreakdown,
}

/// Table II: component energies for ResNet-34, GoogLeNet and ZFNet at
/// 4 lanes, 16 bits/lane.
#[must_use]
pub fn table2_breakdown(engine: &SweepEngine) -> Vec<TableIiRow> {
    let networks = [zoo::resnet34(), zoo::googlenet(), zoo::zfnet()];
    let points: Vec<(&Network, Design)> = networks
        .iter()
        .flat_map(|net| Design::ALL.iter().map(move |&design| (net, design)))
        .collect();
    engine.map(&points, |ctx, &(net, design)| {
        let _span = pixel_obs::span(design.label());
        pixel_obs::add("dse.design_points", 1);
        let report = ctx.evaluate(&AcceleratorConfig::new(design, 4, 16), net);
        TableIiRow {
            network: net.name().to_owned(),
            design,
            breakdown: report.energy_breakdown(),
        }
    })
}

/// The paper's headline claim: geomean EDP improvement of OE and OO over
/// EE at 4 lanes, 16 bits/lane, across the six networks. Returns
/// `(oe_improvement, oo_improvement)` as fractions (paper: 0.484, 0.739).
#[must_use]
pub fn headline_edp_improvements(engine: &SweepEngine) -> (f64, f64) {
    let networks = zoo::all_networks();
    let edps = engine.map(&Design::ALL, |ctx, &design| {
        let _span = pixel_obs::span(design.label());
        pixel_obs::add("dse.design_points", 1);
        let cfg = AcceleratorConfig::new(design, 4, 16);
        let values: Vec<f64> = networks
            .iter()
            .map(|n| ctx.evaluate(&cfg, n).edp().value())
            .collect();
        geomean(&values)
    });
    let [ee, oe, oo] = edps[..] else {
        unreachable!("one geomean per design");
    };
    (1.0 - oe / ee, 1.0 - oo / ee)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_improvements_match_paper() {
        // Paper: OE 48.4%, OO 73.9%.
        let (oe, oo) = headline_edp_improvements(&SweepEngine::with_default_jobs());
        assert!((oe - 0.484).abs() < 0.08, "OE improvement {oe}");
        assert!((oo - 0.739).abs() < 0.06, "OO improvement {oo}");
    }

    #[test]
    fn fig4_shapes() {
        let points = fig4_energy_per_bit(&SweepEngine::with_default_jobs(), &[4], &[4, 8, 16, 32]);
        let series = |d: Design| -> Vec<f64> {
            points
                .iter()
                .filter(|p| p.design == d)
                .map(|p| p.energy_per_bit)
                .collect()
        };
        let ee = series(Design::Ee);
        assert!(ee.windows(2).all(|w| w[1] > w[0]), "EE rises with bits");
        let oo = series(Design::Oo);
        assert!(oo[3] < oo[0], "OO falls from 4 to 32 bits");
    }

    #[test]
    fn fig6_ordering() {
        let points = fig6_area(&SweepEngine::with_default_jobs(), &[2, 4, 8]);
        for lanes in [2usize, 4, 8] {
            let area = |d: Design| {
                points
                    .iter()
                    .find(|p| p.design == d && p.lanes == lanes)
                    .unwrap()
                    .area
            };
            assert!(area(Design::Ee) < area(Design::Oe));
            assert!(area(Design::Oe) < area(Design::Oo));
        }
    }

    #[test]
    fn fig7_crossover() {
        // At 4 bits/lane on 8 lanes EE is competitive; at 32 bits/lane the
        // optical designs win decisively.
        let nets = [zoo::lenet()];
        let points = fig7_normalized_energy(&SweepEngine::with_default_jobs(), &nets, &[4, 32]);
        let value = |d: Design, b: u32| {
            points
                .iter()
                .find(|p| p.design == d && p.bits == b)
                .unwrap()
                .normalized
        };
        assert!((value(Design::Ee, 4) - 1.0).abs() < 1e-12);
        assert!(value(Design::Oo, 4) > 0.7, "no big optical win at 4 bits");
        assert!(value(Design::Oo, 32) < 0.25, "large OO win at 32 bits");
        assert!(value(Design::Oe, 32) < value(Design::Ee, 32));
    }

    #[test]
    fn fig8_ee_monotone_and_optical_u() {
        let nets = [zoo::lenet(), zoo::zfnet()];
        let bits: Vec<u32> = vec![1, 2, 4, 8, 10, 16, 24, 32];
        let points = fig8_latency_geomean(&SweepEngine::with_default_jobs(), &nets, &bits);
        let series = |d: Design| -> Vec<f64> {
            bits.iter()
                .map(|&b| {
                    points
                        .iter()
                        .find(|p| p.design == d && p.bits == b)
                        .unwrap()
                        .latency_geomean
                })
                .collect()
        };
        let ee = series(Design::Ee);
        assert!(ee.windows(2).all(|w| w[1] < w[0]), "EE declines: {ee:?}");
        let oo = series(Design::Oo);
        let min_idx = oo
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            (3..=5).contains(&min_idx),
            "OO minimum near the 10-pulse threshold: {oo:?}"
        );
        assert!(oo[bits.len() - 1] > oo[min_idx], "OO rises after minimum");
    }

    #[test]
    fn fig9_oo_fastest_per_layer() {
        let points = fig9_zfnet_layer_latency(&SweepEngine::with_default_jobs());
        let conv2 = |d: Design| {
            points
                .iter()
                .find(|p| p.design == d && p.layer == "Conv2")
                .unwrap()
                .latency
        };
        assert!(conv2(Design::Oo) < conv2(Design::Oe));
        assert!(conv2(Design::Oe) < conv2(Design::Ee));
        // Paper: OO 31.9% faster than EE on Conv2.
        let speedup = 1.0 - conv2(Design::Oo) / conv2(Design::Ee);
        assert!((speedup - 0.319).abs() < 0.08, "speedup {speedup}");
    }

    #[test]
    fn table2_has_nine_rows() {
        let rows = table2_breakdown(&SweepEngine::with_default_jobs());
        assert_eq!(rows.len(), 9);
        assert!(rows.iter().all(|r| r.breakdown.total().value() > 0.0));
    }

    #[test]
    fn parallel_artifacts_match_serial_exactly() {
        // The determinism contract: a 4-worker sweep reproduces the
        // serial artifact bit for bit.
        let serial = SweepEngine::new(1);
        let parallel = SweepEngine::new(4);
        let nets = [zoo::lenet(), zoo::alexnet()];
        assert_eq!(
            fig4_energy_per_bit(&serial, &[2, 4, 8], &[4, 8, 16, 32]),
            fig4_energy_per_bit(&parallel, &[2, 4, 8], &[4, 8, 16, 32]),
        );
        assert_eq!(
            fig7_normalized_energy(&serial, &nets, &[4, 16]),
            fig7_normalized_energy(&parallel, &nets, &[4, 16]),
        );
        assert_eq!(
            fig8_latency_geomean(&serial, &nets, &[4, 8, 16]),
            fig8_latency_geomean(&parallel, &nets, &[4, 8, 16]),
        );
        assert_eq!(table2_breakdown(&serial), table2_breakdown(&parallel),);
        let (oe_s, oo_s) = headline_edp_improvements(&serial);
        let (oe_p, oo_p) = headline_edp_improvements(&parallel);
        assert!(oe_s == oe_p && oo_s == oo_p);
    }

    #[test]
    fn sweeps_reuse_the_engine_cache() {
        let engine = SweepEngine::new(2);
        let nets = [zoo::lenet()];
        let first = fig7_normalized_energy(&engine, &nets, &[4, 16]);
        let entries = engine.ctx().derived_entries();
        assert!(entries > 0);
        let second = fig7_normalized_energy(&engine, &nets, &[4, 16]);
        assert_eq!(first, second);
        // No new derivations on the second pass.
        assert_eq!(engine.ctx().derived_entries(), entries);
    }
}
