//! End-to-end accelerator evaluation: map a CNN onto a configuration and
//! report per-layer and total energy, latency and EDP.

use crate::config::AcceleratorConfig;
use crate::edp::Edp;
use crate::energy::{layer_energy, EnergyBreakdown};
use crate::latency::layer_latency;
use pixel_dnn::analysis::{analyze_network, ComputeCounts};
use pixel_dnn::network::Network;
use pixel_units::{Energy, Time};

/// Evaluation result for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Op counts driving the models.
    pub counts: ComputeCounts,
    /// Energy split by component.
    pub energy: EnergyBreakdown,
    /// Layer latency.
    pub latency: Time,
}

/// Evaluation result for a whole network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    /// Network name.
    pub network: String,
    /// The configuration evaluated.
    pub config: AcceleratorConfig,
    /// Per-layer results, compute layers only, in network order.
    pub layers: Vec<LayerReport>,
}

impl NetworkReport {
    /// Total energy across layers.
    #[must_use]
    pub fn total_energy(&self) -> Energy {
        self.layers.iter().map(|l| l.energy.total()).sum()
    }

    /// Component-wise energy totals.
    #[must_use]
    pub fn energy_breakdown(&self) -> EnergyBreakdown {
        self.layers.iter().map(|l| l.energy).sum()
    }

    /// Total inference latency (layers execute sequentially).
    #[must_use]
    pub fn total_latency(&self) -> Time {
        self.layers.iter().map(|l| l.latency).sum()
    }

    /// Energy-delay product of the inference.
    #[must_use]
    pub fn edp(&self) -> Edp {
        Edp::new(self.total_energy(), self.total_latency())
    }
}

/// An accelerator instance: a configuration plus evaluation entry points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accelerator {
    config: AcceleratorConfig,
}

impl Accelerator {
    /// Creates an accelerator with the given configuration.
    #[must_use]
    pub fn new(config: AcceleratorConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Evaluates a network.
    #[must_use]
    pub fn evaluate(&self, network: &Network) -> NetworkReport {
        pixel_obs::add("dse.model_evals", 1);
        let layers = analyze_network(network)
            .into_iter()
            .map(|counts| LayerReport {
                name: counts.name.clone(),
                energy: layer_energy(&self.config, &counts),
                latency: layer_latency(&self.config, &counts),
                counts,
            })
            .collect();
        NetworkReport {
            network: network.name().to_owned(),
            config: self.config,
            layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use pixel_dnn::zoo;

    fn report(design: Design, lanes: usize, bits: u32) -> NetworkReport {
        Accelerator::new(AcceleratorConfig::new(design, lanes, bits)).evaluate(&zoo::zfnet())
    }

    #[test]
    fn per_layer_reports_cover_compute_layers() {
        let r = report(Design::Oe, 4, 16);
        assert_eq!(r.layers.len(), 8); // ZFNet: 5 conv + 3 FC
        assert_eq!(r.layers[0].name, "Conv1");
        assert!(r.layers.iter().all(|l| l.latency.value() > 0.0));
    }

    #[test]
    fn totals_are_sums() {
        let r = report(Design::Oo, 4, 16);
        let sum: f64 = r.layers.iter().map(|l| l.energy.total().value()).sum();
        assert!((r.total_energy().value() - sum).abs() < 1e-12 * sum.abs().max(1.0));
        let lat_sum: f64 = r.layers.iter().map(|l| l.latency.value()).sum();
        assert!((r.total_latency().value() - lat_sum).abs() < 1e-12);
    }

    #[test]
    fn headline_energy_ordering_at_16_bits() {
        let ee = report(Design::Ee, 4, 16).total_energy();
        let oe = report(Design::Oe, 4, 16).total_energy();
        let oo = report(Design::Oo, 4, 16).total_energy();
        assert!(oo < oe && oe < ee);
    }

    #[test]
    fn edp_headline_at_4_lanes_16_bits() {
        let ee = report(Design::Ee, 4, 16).edp();
        let oe = report(Design::Oe, 4, 16).edp();
        let oo = report(Design::Oo, 4, 16).edp();
        let oe_imp = oe.improvement_over(ee);
        let oo_imp = oo.improvement_over(ee);
        // Paper: OE −48.4%, OO −73.9% (geomean over six networks; single-
        // network values land nearby).
        assert!((0.30..0.70).contains(&oe_imp), "OE improvement {oe_imp}");
        assert!((0.55..0.90).contains(&oo_imp), "OO improvement {oo_imp}");
        assert!(oo_imp > oe_imp);
    }

    #[test]
    fn table_ii_zfnet_row_reproduced() {
        // Paper Table II, ZFNet (4 lanes, 16 bits/lane), in mJ.
        let tol = 0.15;
        let check = |actual: Energy, paper_mj: f64, label: &str| {
            let a = actual.as_millijoules();
            assert!(
                (a - paper_mj).abs() / paper_mj < tol,
                "{label}: {a:.1} vs paper {paper_mj}"
            );
        };
        let ee = report(Design::Ee, 4, 16).energy_breakdown();
        check(ee.mul, 1225.0, "EE mul");
        check(ee.add, 313.0, "EE add");
        check(ee.act, 34.2, "EE act");
        check(ee.comm, 46.9, "EE comm");

        let oe = report(Design::Oe, 4, 16).energy_breakdown();
        check(oe.mul, 62.9, "OE mul");
        check(oe.add, 336.0, "OE add");
        check(oe.oe, 76.6, "OE o/e");
        check(oe.comm, 39.9, "OE comm");
        check(oe.laser, 20.1, "OE laser");

        let oo = report(Design::Oo, 4, 16).energy_breakdown();
        check(oo.mul, 62.9, "OO mul");
        check(oo.add, 155.0, "OO add");
        check(oo.laser, 30.4, "OO laser");
    }
}
