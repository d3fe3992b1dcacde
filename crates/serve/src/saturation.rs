//! Load sweeps: locating each design's saturation knee.
//!
//! For every design the sweep computes a *reference capacity* — the
//! steady-state inference rate the pipeline-fill batching model allows
//! given how long same-network runs the arrival mix naturally produces
//! (see [`reference_capacity`]).
//! Offered load is then swept as a fraction of that capacity, so EE, OE
//! and OO are each probed around their own knee with the same relative
//! grid, and the same seeded arrival sequence (common random numbers)
//! couples every point.
//!
//! Simulation points run through [`pixel_core::sweep::SweepEngine`]:
//! each point is an independent deterministic simulation, results come
//! back in input order, and the shared [`EvalContext`] memoizes the
//! per-design derivations — so the rendered sweep is bitwise identical
//! at any worker count.

use crate::arrivals::Workload;
use crate::batching::BatchPolicy;
use crate::queue::ShedPolicy;
use crate::report::ServeReport;
use crate::sim::{simulate, ServeConfig};
use pixel_core::config::{AcceleratorConfig, Design};
use pixel_core::model::EvalContext;
use pixel_core::sweep::SweepEngine;
use pixel_units::Time;

/// Parameters of a saturation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Lanes per OMAC.
    pub lanes: usize,
    /// Bits per lane.
    pub bits_per_lane: u32,
    /// Offered loads, as fractions of each design's reference capacity.
    pub loads: Vec<f64>,
    /// Batch-formation policy.
    pub policy: BatchPolicy,
    /// Admission-queue bound.
    pub queue_capacity: usize,
    /// Shedding policy.
    pub shed: ShedPolicy,
    /// Arrivals per simulation point.
    pub requests: usize,
    /// Seed of the arrival process (shared by every point).
    pub seed: u64,
}

impl SweepSpec {
    /// The artifact grid: the paper's headline 4-lane/16-bit fabrics,
    /// greedy dynamic batching up to 8, loads from 30 % to 120 % of
    /// capacity.
    #[must_use]
    pub fn artifact(seed: u64) -> Self {
        Self {
            lanes: 4,
            bits_per_lane: 16,
            loads: vec![0.30, 0.50, 0.70, 0.85, 0.95, 1.05, 1.20],
            policy: BatchPolicy::Dynamic {
                max_size: 8,
                deadline: Time::ZERO,
            },
            queue_capacity: 256,
            shed: ShedPolicy::DropNewest,
            requests: 3000,
            seed,
        }
    }
}

/// One point of a design's load curve.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePoint {
    /// Offered load as a fraction of the design's reference capacity.
    pub load: f64,
    /// The simulation's measurements.
    pub report: ServeReport,
}

/// A design's full load curve.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignCurve {
    /// The design.
    pub design: Design,
    /// Reference capacity \[inferences/s\].
    pub capacity_hz: f64,
    /// One point per swept load, in grid order.
    pub points: Vec<CurvePoint>,
    /// First swept load where the design saturates (sheds arrivals or
    /// falls below 97 % goodput); `None` if the grid never saturates it.
    pub knee: Option<f64>,
}

/// Steady-state capacity bound of a design under a workload with
/// head-of-line same-network batching.
///
/// Dispatches only merge the queue's head-of-line run of same-network
/// requests, and in an i.i.d. request mix a run of network *i* (share
/// `p_i`) is geometric with mean `1/(1 - p_i)`. A batch pays the
/// pipeline-fill latency once plus the bottleneck-stage time per extra
/// request ([`pixel_core::throughput::batch_latency`]), and a run of
/// length `L` splits into `ceil(L / B)` fills under a max batch of `B`
/// — in expectation `(1 - p_i) / (1 - p_i^B)` fills per request. The
/// expected busy time per request is therefore
///
/// ```text
/// Σ_i p_i · [ (1 - p_i)/(1 - p_i^B) · (total_i - bneck_i) + bneck_i ]
/// ```
///
/// and the capacity is its reciprocal. `B = 1` degenerates to the
/// unbatched rate `1 / E[total]`; `B → ∞` approaches the natural-run
/// limit `Σ p_i [(1 - p_i)(total_i - bneck_i) + bneck_i]`.
#[must_use]
pub fn reference_capacity(
    ctx: &EvalContext,
    workload: &Workload,
    accel: &AcceleratorConfig,
    max_batch: usize,
) -> f64 {
    assert!(max_batch > 0, "max batch must be positive");
    let fractions = workload.network_fractions();
    let busy_per_request: f64 = workload
        .networks()
        .iter()
        .zip(&fractions)
        .map(|(net, &p)| {
            let report = ctx.evaluate(accel, net);
            let total = report.total_latency().value();
            let bottleneck = report
                .layers
                .iter()
                .map(|l| l.latency.value())
                .fold(0.0f64, f64::max);
            #[allow(clippy::cast_possible_truncation)]
            let fills_per_request = (1.0 - p) / (1.0 - p.powi(max_batch as i32));
            p * (fills_per_request * (total - bottleneck) + bottleneck)
        })
        .sum();
    1.0 / busy_per_request
}

/// Whether a measured point counts as saturated: it sheds more than
/// 0.1 % of arrivals, or completes less than 97 % of what was offered.
/// The one criterion for simulated sweep points, the live daemon's
/// measured points (the oracle's knee-agreement check relies on that)
/// and fleet points.
#[must_use]
pub fn saturated(drop_rate: f64, goodput_ratio: f64) -> bool {
    drop_rate > 0.001 || goodput_ratio < 0.97
}

/// Sweeps offered load × design through the engine and assembles one
/// curve per design.
#[must_use]
pub fn saturation_sweep(
    engine: &SweepEngine,
    workload: &Workload,
    spec: &SweepSpec,
) -> Vec<DesignCurve> {
    let _span = pixel_obs::span("serve/sweep");
    let configs: Vec<(Design, f64, f64)> = Design::ALL
        .iter()
        .flat_map(|&design| {
            let accel = AcceleratorConfig::new(design, spec.lanes, spec.bits_per_lane);
            let capacity =
                reference_capacity(engine.ctx(), workload, &accel, spec.policy.max_batch());
            spec.loads
                .iter()
                .map(move |&load| (design, capacity, load))
                .collect::<Vec<_>>()
        })
        .collect();
    let reports = engine.map(&configs, |ctx, &(design, capacity, load)| {
        let config = ServeConfig {
            accel: AcceleratorConfig::new(design, spec.lanes, spec.bits_per_lane),
            policy: spec.policy,
            queue_capacity: spec.queue_capacity,
            shed: spec.shed,
            rate_hz: capacity * load,
            requests: spec.requests,
            seed: spec.seed,
            window_bins: 64,
        };
        simulate(workload, ctx, &config)
    });

    let per_design = spec.loads.len();
    Design::ALL
        .iter()
        .enumerate()
        .map(|(d, &design)| {
            let block = &reports[d * per_design..(d + 1) * per_design];
            let capacity = configs[d * per_design].1;
            let points: Vec<CurvePoint> = spec
                .loads
                .iter()
                .zip(block)
                .map(|(&load, report)| CurvePoint {
                    load,
                    report: report.clone(),
                })
                .collect();
            let knee = points
                .iter()
                .find(|p| saturated(p.report.drop_rate(), p.report.goodput_ratio()))
                .map(|p| p.load);
            DesignCurve {
                design,
                capacity_hz: capacity,
                points,
                knee,
            }
        })
        .collect()
}

/// Renders the sweep as the `reproduce serve` artifact table.
#[must_use]
pub fn render_curves(workload: &Workload, spec: &SweepSpec, curves: &[DesignCurve]) -> String {
    let mut s = String::new();
    s.push_str("tenants: ");
    for (t, tenant) in workload.tenants().iter().enumerate() {
        if t > 0 {
            s.push_str(", ");
        }
        s.push_str(&tenant.name);
    }
    s.push('\n');
    s.push_str(&format!(
        "policy {} | queue {} ({}) | {} requests/point | seed {}\n",
        spec.policy.label(),
        spec.queue_capacity,
        spec.shed.label(),
        spec.requests,
        spec.seed,
    ));
    for curve in curves {
        s.push_str(&format!(
            "\n-- {} ({} lanes, {} bits/lane) — reference capacity {:.1} inf/s --\n",
            curve.design, spec.lanes, spec.bits_per_lane, curve.capacity_hz,
        ));
        s.push_str(
            "load | offered[/s] achieved[/s] |  p50[ms]  p95[ms]  p99[ms] p999[ms] | batch qmean  drop% util% | E/inf[mJ]\n",
        );
        for point in &curve.points {
            let r = &point.report;
            s.push_str(&format!(
                "{:>4.2} | {:>11.1} {:>12.1} | {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>5.2} {:>5.1} {:>6.2} {:>5.1} | {:>9.3}\n",
                point.load,
                r.offered_hz,
                r.achieved_hz,
                r.latency.p50.as_millis(),
                r.latency.p95.as_millis(),
                r.latency.p99.as_millis(),
                r.latency.p999.as_millis(),
                r.mean_batch,
                r.mean_queue_depth,
                r.drop_rate() * 100.0,
                r.utilization * 100.0,
                r.energy_per_inference.as_millijoules(),
            ));
        }
        match curve.knee {
            Some(load) => s.push_str(&format!(
                "saturation knee: offered ≈ {load:.2}×capacity ({:.1} inf/s)\n",
                curve.capacity_hz * load
            )),
            None => s.push_str("saturation knee: beyond the swept grid\n"),
        }
    }
    s
}

/// Renders the sweep as machine-readable JSONL: one `pixel.serve.meta`
/// header, one `pixel.serve.point` object per measured point, and that
/// point's windowed time series as `pixel.serve.window` lines tagged
/// with the design and load. Every value lives on the virtual clock, so
/// the stream is bitwise identical across runs and `--jobs` levels.
#[must_use]
pub fn metrics_jsonl(workload: &Workload, spec: &SweepSpec, curves: &[DesignCurve]) -> String {
    let mut s = format!(
        "{{\"schema\":\"pixel.serve.meta\",\"policy\":\"{}\",\"queue\":{},\"shed\":\"{}\",\"requests\":{},\"seed\":{},\"tenants\":{},\"networks\":{}}}\n",
        spec.policy.label(),
        spec.queue_capacity,
        spec.shed.label(),
        spec.requests,
        spec.seed,
        workload.tenants().len(),
        workload.networks().len(),
    );
    for curve in curves {
        for point in &curve.points {
            let r = &point.report;
            s.push_str(&format!(
                "{{\"schema\":\"pixel.serve.point\",\"design\":\"{}\",\"load\":{},\"offered_hz\":{},\"achieved_hz\":{},\"completed\":{},\"dropped\":{},\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{},\"wait_p99_ms\":{},\"service_p99_ms\":{},\"mean_batch\":{},\"utilization\":{},\"energy_per_inf_mj\":{}}}\n",
                curve.design,
                point.load,
                r.offered_hz,
                r.achieved_hz,
                r.completed,
                r.dropped,
                r.latency.p50.as_millis(),
                r.latency.p95.as_millis(),
                r.latency.p99.as_millis(),
                r.queue_wait.p99.as_millis(),
                r.service.p99.as_millis(),
                r.mean_batch,
                r.utilization,
                r.energy_per_inference.as_millijoules(),
            ));
            let tags = format!("\"design\":\"{}\",\"load\":{},", curve.design, point.load);
            s.push_str(&r.windows.to_jsonl(&tags));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SweepSpec {
        let mut spec = SweepSpec::artifact(2026);
        spec.loads = vec![0.4, 0.8, 1.1];
        spec.requests = 600;
        spec
    }

    #[test]
    fn capacities_follow_design_latency_at_high_precision() {
        let workload = Workload::paper_mix();
        let ctx = EvalContext::new();
        let capacity =
            |design| reference_capacity(&ctx, &workload, &AcceleratorConfig::new(design, 4, 16), 8);
        for design in Design::ALL {
            assert!(
                capacity(design).is_finite() && capacity(design) > 0.0,
                "{design}"
            );
        }
        // At 16 bits/lane the electrical baseline clocks shorter firing
        // rounds than the optical fabrics, whose round time grows with
        // per-lane precision; among the optical pair, the all-optical
        // OMAC+OAC design outpaces the hybrid OE.
        assert!(capacity(Design::Ee) > capacity(Design::Oo));
        assert!(capacity(Design::Oo) > capacity(Design::Oe));
    }

    #[test]
    fn batching_widens_reference_capacity() {
        let workload = Workload::paper_mix();
        let ctx = EvalContext::new();
        let accel = AcceleratorConfig::new(Design::Oo, 4, 16);
        let unbatched = reference_capacity(&ctx, &workload, &accel, 1);
        let batched = reference_capacity(&ctx, &workload, &accel, 8);
        assert!(batched > unbatched);
        // The gain is bounded by the natural same-network run length of
        // the mix, which is short for a six-network blend.
        assert!(batched < unbatched * 2.0);
    }

    #[test]
    fn sweep_produces_one_curve_per_design_with_knee_near_capacity() {
        let workload = Workload::paper_mix();
        let engine = SweepEngine::new(2);
        let curves = saturation_sweep(&engine, &workload, &small_spec());
        assert_eq!(curves.len(), 3);
        for curve in &curves {
            assert_eq!(curve.points.len(), 3);
            // Under-capacity points keep up; the 1.1×capacity point is
            // past the knee.
            let first = &curve.points[0].report;
            assert!(first.goodput_ratio() > 0.97, "{}", curve.design);
            let knee = curve.knee.expect("grid crosses saturation");
            assert!(knee > 0.4, "{}: knee {knee}", curve.design);
        }
    }

    #[test]
    fn latency_percentiles_are_monotone_in_load() {
        let workload = Workload::paper_mix();
        let engine = SweepEngine::new(1);
        let curves = saturation_sweep(&engine, &workload, &small_spec());
        for curve in &curves {
            for pair in curve.points.windows(2) {
                let (a, b) = (&pair[0].report.latency, &pair[1].report.latency);
                assert!(a.p50 <= b.p50, "{} p50", curve.design);
                assert!(a.p95 <= b.p95, "{} p95", curve.design);
                assert!(a.p99 <= b.p99, "{} p99", curve.design);
            }
        }
    }

    #[test]
    fn metrics_jsonl_is_schema_tagged_flat_json() {
        let workload = Workload::paper_mix();
        let engine = SweepEngine::new(2);
        let spec = small_spec();
        let curves = saturation_sweep(&engine, &workload, &spec);
        let jsonl = metrics_jsonl(&workload, &spec, &curves);
        // Meta line + one point line per measurement + window lines.
        assert!(jsonl.lines().count() > 3 * spec.loads.len());
        for line in jsonl.lines() {
            let fields = pixel_obs::parse_flat_object(line).expect("flat JSON");
            assert!(
                fields
                    .iter()
                    .any(|(k, v)| k == "schema" && v.starts_with("pixel.serve.")),
                "untagged line: {line}"
            );
        }
    }

    #[test]
    fn render_includes_every_design_and_knee_line() {
        let workload = Workload::paper_mix();
        let engine = SweepEngine::new(2);
        let spec = small_spec();
        let curves = saturation_sweep(&engine, &workload, &spec);
        let text = render_curves(&workload, &spec, &curves);
        for label in ["EE", "OE", "OO", "saturation knee", "vision-api"] {
            assert!(text.contains(label), "missing {label}:\n{text}");
        }
    }
}
