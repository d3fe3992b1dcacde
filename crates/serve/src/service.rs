//! The per-network service-cost model shared by the simulator and the
//! daemon's analytic mode.
//!
//! [`ServiceModel`] evaluates every network in a workload once against
//! an accelerator configuration (through [`EvalContext`], so design
//! overrides apply) and fixes each network's [`PipelineCost`] — fill,
//! bottleneck stage and per-inference energy — when it is built. A
//! batch-cost query is then `fill + bottleneck·(n−1)` and `energy·n`,
//! the pipeline-fill batching model of `pixel_core::throughput`, with
//! no layer walk per dispatch. The simulator charges these costs on its
//! virtual clock; the daemon's analytic mode *sleeps* them (scaled) on
//! the monotonic clock, which is what makes the simulator a
//! quantitative oracle for the live process.

use crate::arrivals::Workload;
use pixel_core::config::AcceleratorConfig;
use pixel_core::model::EvalContext;
use pixel_core::throughput::PipelineCost;
use pixel_units::{Energy, Power, Time};

/// Per-network service quantities, evaluated once per run.
pub struct ServiceModel {
    costs: Vec<PipelineCost>,
    static_power: Power,
}

impl ServiceModel {
    /// Evaluates `workload`'s networks on `accel` and fixes their
    /// pipeline costs.
    #[must_use]
    pub fn new(ctx: &EvalContext, workload: &Workload, accel: &AcceleratorConfig) -> Self {
        let costs = workload
            .networks()
            .iter()
            .map(|net| PipelineCost::of(&ctx.evaluate(accel, net)))
            .collect();
        let static_power = accel.design.model().static_power(accel);
        Self {
            costs,
            static_power: static_power.laser_wall_plug + static_power.thermal_tuning,
        }
    }

    /// Service time and dynamic energy of a `batch`-sized dispatch of
    /// network `network`.
    #[must_use]
    pub fn batch(&self, network: usize, batch: usize) -> (Time, Energy) {
        let cost = &self.costs[network];
        (cost.latency(batch), cost.energy(batch))
    }

    /// Always-on wall-plug power (laser + thermal tuning) charged over
    /// the whole makespan.
    #[must_use]
    pub fn static_power(&self) -> Power {
        self.static_power
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixel_core::config::Design;
    use pixel_core::throughput;

    #[test]
    fn fixed_costs_price_batches_exactly_as_the_report_walk() {
        let ctx = EvalContext::new();
        let workload = Workload::paper_mix();
        for design in [Design::Ee, Design::Oe, Design::Oo] {
            let accel = AcceleratorConfig::new(design, 4, 16);
            let model = ServiceModel::new(&ctx, &workload, &accel);
            for (n, net) in workload.networks().iter().enumerate() {
                let report = ctx.evaluate(&accel, net);
                for b in 1..=8usize {
                    let (latency, energy) = model.batch(n, b);
                    let expect_latency = throughput::batch_latency(&report, b);
                    #[allow(clippy::cast_precision_loss)]
                    let expect_energy = report.total_energy() * b as f64;
                    assert_eq!(
                        latency.value().to_bits(),
                        expect_latency.value().to_bits(),
                        "{design:?} {} batch {b} latency",
                        net.name()
                    );
                    assert_eq!(
                        energy.value().to_bits(),
                        expect_energy.value().to_bits(),
                        "{design:?} {} batch {b} energy",
                        net.name()
                    );
                }
            }
        }
    }
}
