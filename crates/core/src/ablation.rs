//! Ablation and sensitivity studies over the design choices DESIGN.md
//! flags: the MRR energy constant (100 fJ device vs 500 fJ worked
//! example) and the receiver re-synchronization cost behind the latency
//! U-shape.

use crate::config::{AcceleratorConfig, Design};
use crate::edp::{geomean, Edp};
use crate::energy::layer_energy_with;
use crate::latency::layer_latency_with;
use crate::overrides::ModelOverrides;
use pixel_dnn::analysis::analyze_network;
use pixel_dnn::network::Network;
use pixel_dnn::zoo;
use pixel_units::{Energy, Time};

/// EDP of a network under explicit overrides.
#[must_use]
pub fn edp_with(config: &AcceleratorConfig, network: &Network, overrides: &ModelOverrides) -> Edp {
    let counts = analyze_network(network);
    let energy: Energy = counts
        .iter()
        .map(|c| layer_energy_with(config, c, overrides).total())
        .sum();
    let latency: Time = counts
        .iter()
        .map(|c| layer_latency_with(config, c, overrides))
        .sum();
    Edp::new(energy, latency)
}

/// One row of a sensitivity sweep: parameter value → geomean EDP
/// improvements of OE and OO over EE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitivityPoint {
    /// The swept parameter's value.
    pub parameter: f64,
    /// OE geomean EDP improvement over EE.
    pub oe_improvement: f64,
    /// OO geomean EDP improvement over EE.
    pub oo_improvement: f64,
}

fn improvements_under(overrides: &ModelOverrides) -> (f64, f64) {
    let networks = zoo::all_networks();
    let geo = |design: Design| {
        let cfg = AcceleratorConfig::new(design, 4, 16);
        let values: Vec<f64> = networks
            .iter()
            .map(|n| edp_with(&cfg, n, overrides).value())
            .collect();
        geomean(&values)
    };
    let ee = geo(Design::Ee);
    (1.0 - geo(Design::Oe) / ee, 1.0 - geo(Design::Oo) / ee)
}

/// Sweeps the MRR drive energy scale (1.0 = 100 fJ/bit device figure,
/// 5.0 = the paper's worked example) and reports the headline EDP
/// improvements at each point.
#[must_use]
pub fn mrr_energy_sensitivity(scales: &[f64]) -> Vec<SensitivityPoint> {
    scales
        .iter()
        .map(|&scale| {
            let overrides = ModelOverrides::calibrated().with_mrr_scale(scale);
            let (oe, oo) = improvements_under(&overrides);
            SensitivityPoint {
                parameter: scale,
                oe_improvement: oe,
                oo_improvement: oo,
            }
        })
        .collect()
}

/// Sweeps the receiver re-synchronization cost (cycles per extra optical
/// chunk) and reports the headline EDP improvements.
#[must_use]
pub fn resync_sensitivity(cycles: &[f64]) -> Vec<SensitivityPoint> {
    cycles
        .iter()
        .map(|&c| {
            let overrides = ModelOverrides::calibrated().with_resync(c);
            let (oe, oo) = improvements_under(&overrides);
            SensitivityPoint {
                parameter: c,
                oe_improvement: oe,
                oo_improvement: oo,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worked_example_mrr_energy_still_wins_but_less() {
        let points = mrr_energy_sensitivity(&[1.0, 5.0]);
        let device = points[0];
        let worked = points[1];
        // With 5× MRR energy the optical designs lose some of their edge
        // but the headline conclusion (large EDP win) survives.
        assert!(worked.oo_improvement < device.oo_improvement);
        assert!(
            worked.oo_improvement > 0.5,
            "OO still wins decisively: {}",
            worked.oo_improvement
        );
    }

    #[test]
    fn resync_cost_drives_the_oe_gap() {
        let points = resync_sensitivity(&[0.0, 6.0, 12.0]);
        // Cheaper resync → optical latency penalty shrinks → bigger wins.
        assert!(points[0].oo_improvement > points[1].oo_improvement);
        assert!(points[1].oo_improvement > points[2].oo_improvement);
        // Even with double the calibrated resync cost OO keeps a healthy win.
        assert!(points[2].oo_improvement > 0.5);
    }

    #[test]
    fn calibrated_overrides_reproduce_headline() {
        let (oe, oo) = improvements_under(&ModelOverrides::calibrated());
        assert!((oe - 0.484).abs() < 0.08);
        assert!((oo - 0.739).abs() < 0.06);
    }
}
