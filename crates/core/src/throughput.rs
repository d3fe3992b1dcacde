//! Batched-inference throughput.
//!
//! Single-image latency (Fig. 8/9) leaves the fabric idle between layer
//! drains. With a batch, layer `k` of image `i+1` can start as soon as
//! layer `k`'s tiles free up, so steady-state throughput is set by the
//! *sum of layer service times* rather than per-image fill/drain. This
//! module computes inferences/second at a given batch size and the
//! batch's energy (energy is batch-invariant: the same work is done).

use crate::accelerator::{Accelerator, NetworkReport};
use crate::config::AcceleratorConfig;
use pixel_dnn::network::Network;
use pixel_units::{Energy, Time};

/// Throughput report for batched inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputReport {
    /// Batch size.
    pub batch: usize,
    /// Time to finish the whole batch.
    pub batch_latency: Time,
    /// Steady-state inferences per second.
    pub inferences_per_second: f64,
    /// Energy per inference (batch-invariant).
    pub energy_per_inference: Energy,
}

/// Service time and dynamic energy of one batch — the quantity the
/// serving simulator charges per dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchService {
    /// Batch size.
    pub batch: usize,
    /// Wall-clock service time of the whole batch.
    pub latency: Time,
    /// Dynamic energy of the whole batch (batch × per-inference energy).
    pub energy: Energy,
}

/// The batch-cost quantities of one evaluated network: its pipeline
/// fill (the layer-by-layer single-image latency), its bottleneck stage
/// time and its dynamic energy per inference. Fixing them once lets a
/// caller price any batch without walking the layers again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineCost {
    /// Latency of the first image through every layer.
    pub fill: Time,
    /// Slowest layer's latency: what each further image adds.
    pub bottleneck: Time,
    /// Dynamic energy of one inference.
    pub energy_per_inference: Energy,
}

impl PipelineCost {
    /// Reads the pipeline cost off an evaluated network report.
    #[must_use]
    pub fn of(report: &NetworkReport) -> Self {
        Self {
            fill: report.total_latency(),
            bottleneck: report
                .layers
                .iter()
                .map(|l| l.latency)
                .fold(Time::ZERO, Time::max),
            energy_per_inference: report.total_energy(),
        }
    }

    /// Batch completion time: the first image pays the fill, each
    /// subsequent image adds only the bottleneck stage time.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn latency(&self, batch: usize) -> Time {
        assert!(batch > 0, "batch must be non-empty");
        #[allow(clippy::cast_precision_loss)]
        let extra = (batch - 1) as f64;
        self.fill + self.bottleneck * extra
    }

    /// Dynamic energy of a `batch`-sized dispatch (energy scales
    /// linearly: the same work is done per image).
    #[must_use]
    pub fn energy(&self, batch: usize) -> Energy {
        #[allow(clippy::cast_precision_loss)]
        let batch = batch as f64;
        self.energy_per_inference * batch
    }
}

/// Batch completion time from an evaluated network report (see
/// [`PipelineCost::latency`]).
///
/// # Panics
///
/// Panics if `batch` is zero.
#[must_use]
pub fn batch_latency(report: &NetworkReport, batch: usize) -> Time {
    PipelineCost::of(report).latency(batch)
}

/// Pipeline fill: the first image pays the full layer-by-layer latency;
/// each subsequent image adds only the bottleneck stage time.
#[must_use]
pub fn batched(config: &AcceleratorConfig, network: &Network, batch: usize) -> ThroughputReport {
    let cost = PipelineCost::of(&Accelerator::new(*config).evaluate(network));
    let latency = cost.latency(batch);
    #[allow(clippy::cast_precision_loss)]
    let throughput = batch as f64 / latency.value();
    ThroughputReport {
        batch,
        batch_latency: latency,
        inferences_per_second: throughput,
        energy_per_inference: cost.energy_per_inference,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use pixel_dnn::zoo;

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::new(Design::Oo, 4, 16)
    }

    #[test]
    fn batch_of_one_is_single_image_latency() {
        let net = zoo::zfnet();
        let single = Accelerator::new(cfg()).evaluate(&net).total_latency();
        let t = batched(&cfg(), &net, 1);
        assert!((t.batch_latency.value() - single.value()).abs() < 1e-15);
    }

    #[test]
    fn throughput_improves_with_batch_then_saturates() {
        let net = zoo::zfnet();
        let t1 = batched(&cfg(), &net, 1).inferences_per_second;
        let t8 = batched(&cfg(), &net, 8).inferences_per_second;
        let t64 = batched(&cfg(), &net, 64).inferences_per_second;
        let t512 = batched(&cfg(), &net, 512).inferences_per_second;
        assert!(t8 > t1);
        assert!(t64 > t8);
        // Saturation: going 64 → 512 gains less than 25%.
        assert!(t512 / t64 < 1.25, "t512/t64 = {}", t512 / t64);
    }

    #[test]
    fn steady_state_rate_is_bottleneck_bound() {
        let net = zoo::zfnet();
        let report = Accelerator::new(cfg()).evaluate(&net);
        let bottleneck = report
            .layers
            .iter()
            .map(|l| l.latency.value())
            .fold(0.0f64, f64::max);
        let t = batched(&cfg(), &net, 10_000);
        let asymptote = 1.0 / bottleneck;
        assert!(
            (t.inferences_per_second - asymptote).abs() / asymptote < 0.05,
            "rate {} vs asymptote {asymptote}",
            t.inferences_per_second
        );
    }

    #[test]
    fn energy_per_inference_is_batch_invariant() {
        let net = zoo::lenet();
        let a = batched(&cfg(), &net, 1).energy_per_inference;
        let b = batched(&cfg(), &net, 100).energy_per_inference;
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "batch")]
    fn zero_batch_rejected() {
        let _ = batched(&cfg(), &zoo::lenet(), 0);
    }

    #[test]
    fn batch_service_matches_the_direct_throughput_path() {
        let ctx = crate::model::EvalContext::new();
        let net = zoo::zfnet();
        for batch in [1usize, 8, 64] {
            let direct = batched(&cfg(), &net, batch);
            let service = ctx.batch_service(&cfg(), &net, batch);
            assert_eq!(service.batch, batch);
            assert_eq!(service.latency, direct.batch_latency);
            #[allow(clippy::cast_precision_loss)]
            let expect = direct.energy_per_inference * batch as f64;
            assert_eq!(service.energy, expect);
        }
    }
}
