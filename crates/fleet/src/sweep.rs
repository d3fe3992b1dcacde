//! The `reproduce fleet` artifact: policy × shard-count × tenant-mix.
//!
//! Three studies share one seeded arrival process (common random
//! numbers, exactly like the single-fabric saturation sweep):
//!
//! 1. **Scaling/policy grid** — homogeneous OO fleets of 1/2/4 shards
//!    under the paper mix and a network-skewed mix, each routing policy
//!    swept over offered load as a fraction of the *fleet* reference
//!    capacity (the sum of per-shard capacities). This is where the
//!    knee shift and the round-robin-vs-affinity batch-merge gap show.
//! 2. **Heterogeneous fleet** — one EE, one OE, one OO shard behind the
//!    same router, probing policies that must balance *unequal* shards.
//! 3. **Energy study** — a 4-shard OO fleet at low load with the
//!    reactive autoscaler off vs on: joules/request against the static
//!    laser/heater floor, wake/drain transitions charged.
//!
//! Every point is an independent deterministic simulation dispatched
//! through [`SweepEngine::map`], so the rendered artifact is bitwise
//! identical at any `--jobs` level.

use crate::autoscale::AutoscaleConfig;
use crate::report::FleetReport;
use crate::route::RouteKind;
use crate::sim::{simulate_fleet, FleetConfig};
use pixel_core::config::{AcceleratorConfig, Design};
use pixel_core::sweep::SweepEngine;
use pixel_dnn::mix::NetworkMix;
use pixel_dnn::zoo;
use pixel_serve::arrivals::{Tenant, Workload};
use pixel_serve::saturation::{reference_capacity, saturated};
use pixel_units::Time;

/// Parameters of a fleet sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSweepSpec {
    /// Lanes per OMAC.
    pub lanes: usize,
    /// Bits per lane.
    pub bits_per_lane: u32,
    /// Homogeneous-OO fleet sizes to sweep.
    pub shard_counts: Vec<usize>,
    /// Routing policies to sweep (single-shard fleets collapse to
    /// round-robin — every policy is identical with one shard).
    pub policies: Vec<RouteKind>,
    /// Offered loads, as fractions of the fleet reference capacity.
    pub loads: Vec<f64>,
    /// The load at which merge rates and per-tenant SLOs are read out.
    pub nominal: f64,
    /// Low loads for the autoscaler energy study.
    pub energy_loads: Vec<f64>,
    /// Autoscaler tick interval for the energy study.
    pub scaler_interval: Time,
    /// Arrivals per simulation point.
    pub requests: usize,
    /// Per-shard admission-queue bound.
    pub queue_capacity: usize,
    /// Seed of the arrival process (shared by every point).
    pub seed: u64,
}

impl FleetSweepSpec {
    /// The artifact grid: 4-lane/16-bit fabrics, fleets of 1/2/4 OO
    /// shards plus one heterogeneous fleet, all four policies, loads
    /// from 70 % to 115 % of fleet capacity.
    #[must_use]
    pub fn artifact(seed: u64) -> Self {
        Self {
            lanes: 4,
            bits_per_lane: 16,
            shard_counts: vec![1, 2, 4],
            policies: RouteKind::ALL.to_vec(),
            loads: vec![0.70, 0.85, 1.00, 1.15],
            nominal: 0.85,
            energy_loads: vec![0.25, 0.45],
            scaler_interval: Time::new(15.0),
            requests: 1600,
            queue_capacity: 256,
            seed,
        }
    }

    /// A cut-down grid for CI smoke runs: one fleet size, two loads,
    /// one energy point, ~5× fewer arrivals.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self {
            shard_counts: vec![2],
            loads: vec![0.85, 1.10],
            energy_loads: vec![0.30],
            requests: 320,
            ..Self::artifact(seed)
        }
    }
}

/// A tenant mix with long same-network runs: each tenant concentrates
/// on one or two CNNs, so head-of-line merging has real runs to win —
/// the regime where routing policy moves the merge rate most.
#[must_use]
pub fn skewed_mix() -> Workload {
    let networks = zoo::all_networks();
    let tenants = vec![
        Tenant {
            name: "vision-api".to_owned(),
            weight: 0.55,
            mix: NetworkMix::new("vision-api", &[(0, 0.85), (3, 0.15)]),
        },
        Tenant {
            name: "mobile".to_owned(),
            weight: 0.35,
            mix: NetworkMix::new("mobile", &[(4, 0.90), (1, 0.10)]),
        },
        Tenant {
            name: "batch-lab".to_owned(),
            weight: 0.10,
            mix: NetworkMix::new("batch-lab", &[(2, 0.5), (5, 0.5)]),
        },
    ];
    Workload::new(networks, tenants)
}

/// One measured `(policy, load)` point.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPoint {
    /// Routing policy.
    pub policy: RouteKind,
    /// Offered load as a fraction of the fleet reference capacity.
    pub load: f64,
    /// The simulation's measurements.
    pub report: FleetReport,
}

/// One sweep section: a fixed fleet and mix, policies × loads.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSection {
    /// Section heading.
    pub title: String,
    /// Mix tag (`paper` or `skewed`).
    pub mix: String,
    /// Fleet composition tag (e.g. `2xOO`, `EE+OE+OO`).
    pub shard_label: String,
    /// Fleet reference capacity \[inferences/s\].
    pub capacity_hz: f64,
    /// Policies swept in this section, in order.
    pub policies: Vec<RouteKind>,
    /// One point per `(policy, load)`, loads fastest.
    pub points: Vec<FleetPoint>,
}

impl FleetSection {
    /// The section's points for one policy, in load order.
    #[must_use]
    pub fn curve(&self, policy: RouteKind) -> Vec<&FleetPoint> {
        self.points.iter().filter(|p| p.policy == policy).collect()
    }

    /// First swept load where the policy saturates the fleet.
    #[must_use]
    pub fn knee(&self, policy: RouteKind) -> Option<f64> {
        self.curve(policy)
            .iter()
            .find(|p| saturated(p.report.drop_rate(), p.report.goodput_ratio()))
            .map(|p| p.load)
    }

    /// The point at `(policy, load)`, if swept.
    #[must_use]
    pub fn at(&self, policy: RouteKind, load: f64) -> Option<&FleetPoint> {
        self.points
            .iter()
            .find(|p| p.policy == policy && (p.load - load).abs() < 1e-12)
    }
}

/// One energy-study point.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyPoint {
    /// Offered load as a fraction of fleet capacity.
    pub load: f64,
    /// Whether the reactive autoscaler was on.
    pub autoscaled: bool,
    /// The simulation's measurements.
    pub report: FleetReport,
}

/// The full fleet sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSweep {
    /// Policy/scaling sections, in artifact order.
    pub sections: Vec<FleetSection>,
    /// The autoscaler energy study (4× OO, net-affinity).
    pub energy: Vec<EnergyPoint>,
}

/// One planned simulation point.
struct Plan {
    section: usize,
    workload: usize,
    policy: RouteKind,
    load: f64,
    config: FleetConfig,
}

/// Runs the full fleet sweep through the engine.
#[must_use]
pub fn fleet_sweep(engine: &SweepEngine, spec: &FleetSweepSpec) -> FleetSweep {
    let _span = pixel_obs::span("fleet/sweep");
    let workloads = [Workload::paper_mix(), skewed_mix()];
    let oo = AcceleratorConfig::new(Design::Oo, spec.lanes, spec.bits_per_lane);
    let max_batch = FleetConfig::new(vec![oo], RouteKind::RoundRobin, 1.0, 1, 0)
        .policy
        .max_batch();
    let fleet_capacity = |workload: &Workload, shards: &[AcceleratorConfig]| -> f64 {
        shards
            .iter()
            .map(|accel| reference_capacity(engine.ctx(), workload, accel, max_batch))
            .sum()
    };

    let mut sections: Vec<FleetSection> = Vec::new();
    let mut plans: Vec<Plan> = Vec::new();
    let plan_section = |sections: &mut Vec<FleetSection>,
                        plans: &mut Vec<Plan>,
                        mix: &str,
                        workload_id: usize,
                        shard_label: &str,
                        shards: Vec<AcceleratorConfig>,
                        policies: Vec<RouteKind>| {
        let capacity = fleet_capacity(&workloads[workload_id], &shards);
        let section = sections.len();
        for &policy in &policies {
            for &load in &spec.loads {
                let mut config = FleetConfig::new(
                    shards.clone(),
                    policy,
                    capacity * load,
                    spec.requests,
                    spec.seed,
                );
                config.queue_capacity = spec.queue_capacity;
                plans.push(Plan {
                    section,
                    workload: workload_id,
                    policy,
                    load,
                    config,
                });
            }
        }
        sections.push(FleetSection {
            title: format!("{mix} mix — {shard_label}"),
            mix: mix.to_owned(),
            shard_label: shard_label.to_owned(),
            capacity_hz: capacity,
            policies,
            points: Vec::new(),
        });
    };

    for (workload_id, mix) in [(0, "paper"), (1, "skewed")] {
        for &count in &spec.shard_counts {
            let shards = vec![oo; count];
            let policies = if count == 1 {
                vec![RouteKind::RoundRobin]
            } else {
                spec.policies.clone()
            };
            plan_section(
                &mut sections,
                &mut plans,
                mix,
                workload_id,
                &format!("{count}xOO"),
                shards,
                policies,
            );
        }
    }
    let hetero: Vec<AcceleratorConfig> = [Design::Ee, Design::Oe, Design::Oo]
        .iter()
        .map(|&d| AcceleratorConfig::new(d, spec.lanes, spec.bits_per_lane))
        .collect();
    plan_section(
        &mut sections,
        &mut plans,
        "paper",
        0,
        "EE+OE+OO",
        hetero,
        spec.policies.clone(),
    );

    let reports = engine.map(&plans, |ctx, plan| {
        simulate_fleet(&workloads[plan.workload], ctx, &plan.config).report
    });
    for (plan, report) in plans.iter().zip(reports) {
        sections[plan.section].points.push(FleetPoint {
            policy: plan.policy,
            load: plan.load,
            report,
        });
    }

    // Energy study: 4× OO under net-affinity at low load, scaler off/on.
    let shards = vec![oo; 4];
    let capacity = fleet_capacity(&workloads[0], &shards);
    let energy_plans: Vec<(f64, bool, FleetConfig)> = spec
        .energy_loads
        .iter()
        .flat_map(|&load| {
            [false, true].map(|autoscaled| {
                let mut config = FleetConfig::new(
                    shards.clone(),
                    RouteKind::NetworkAffinity,
                    capacity * load,
                    spec.requests,
                    spec.seed,
                );
                config.queue_capacity = spec.queue_capacity;
                if autoscaled {
                    config.autoscale = AutoscaleConfig::reactive(spec.scaler_interval);
                }
                (load, autoscaled, config)
            })
        })
        .collect();
    let energy_reports = engine.map(&energy_plans, |ctx, (_, _, config)| {
        simulate_fleet(&workloads[0], ctx, config).report
    });
    let energy = energy_plans
        .iter()
        .zip(energy_reports)
        .map(|(&(load, autoscaled, _), report)| EnergyPoint {
            load,
            autoscaled,
            report,
        })
        .collect();

    FleetSweep { sections, energy }
}

/// Renders the sweep as the `reproduce fleet` artifact table.
#[must_use]
pub fn render_fleet(spec: &FleetSweepSpec, sweep: &FleetSweep) -> String {
    let mut s = format!(
        "fleet sweep: policy × shard-count × tenant-mix | {} lanes, {} bits/lane | {} requests/point | seed {}\n",
        spec.lanes, spec.bits_per_lane, spec.requests, spec.seed,
    );
    let workload = Workload::paper_mix();
    let slos = crate::slo::paper_slos();
    s.push_str("SLOs: ");
    for (t, tenant) in workload.tenants().iter().enumerate() {
        if t > 0 {
            s.push_str(" | ");
        }
        s.push_str(&format!(
            "{} p99≤{:.0}s w{:.2} prio{}",
            tenant.name,
            slos[t].p99_target.value(),
            slos[t].weight,
            slos[t].priority,
        ));
    }
    s.push('\n');
    for section in &sweep.sections {
        s.push_str(&format!(
            "\n-- {} mix — {} — fleet capacity {:.1} inf/s --\n",
            section.mix, section.shard_label, section.capacity_hz,
        ));
        s.push_str(
            "policy         | load | offered[/s] achieved[/s] |  p99[ms] wait99[ms] | batch merge% | rshed% sshed% | E/inf[mJ] | SLO\n",
        );
        for point in &section.points {
            let r = &point.report;
            s.push_str(&format!(
                "{:<14} | {:>4.2} | {:>11.1} {:>12.1} | {:>8.1} {:>10.1} | {:>5.2} {:>6.1} | {:>6.2} {:>6.2} | {:>9.3} | {}/{}\n",
                point.policy.label(),
                point.load,
                r.offered_hz,
                r.achieved_hz,
                r.latency.p99.as_millis(),
                r.queue_wait.p99.as_millis(),
                r.mean_batch,
                r.merge_rate() * 100.0,
                router_shed_pct(r),
                shard_shed_pct(r),
                r.energy_per_inference.as_millijoules(),
                r.slo_attained(),
                r.tenants.len(),
            ));
        }
        s.push_str("knee:");
        for &policy in &section.policies {
            match section.knee(policy) {
                Some(load) => s.push_str(&format!(" {}={load:.2}", policy.label())),
                None => s.push_str(&format!(" {}=>grid", policy.label())),
            }
        }
        if section.policies.len() > 1 {
            if let (Some(rr), Some(aff)) = (
                section.knee(RouteKind::RoundRobin),
                section.knee(RouteKind::NetworkAffinity),
            ) {
                s.push_str(&format!(" (affinity knee shift {:+.2})", aff - rr));
            }
        }
        s.push('\n');
        if let (Some(aff), Some(rr)) = (
            section.at(RouteKind::NetworkAffinity, spec.nominal),
            section.at(RouteKind::RoundRobin, spec.nominal),
        ) {
            s.push_str(&format!(
                "merge@{:.2}: net-affinity={:.3} round-robin={:.3} (Δ {:+.3})\n",
                spec.nominal,
                aff.report.merge_rate(),
                rr.report.merge_rate(),
                aff.report.merge_rate() - rr.report.merge_rate(),
            ));
            s.push_str(&format!("p99@{:.2} [net-affinity]:", spec.nominal));
            for tenant in &aff.report.tenants {
                s.push_str(&format!(
                    " {} {:.2}s/{:.0}s {}",
                    tenant.name,
                    tenant.p99.value(),
                    tenant.slo.p99_target.value(),
                    if tenant.attained() { "ok" } else { "MISS" },
                ));
            }
            s.push('\n');
        }
    }
    s.push_str("\n-- energy — 4xOO, net-affinity, reactive autoscaler --\n");
    s.push_str("load | scaler |  E/inf[mJ] | mean-active | wakes drains | static[J] dynamic[J]\n");
    for point in &sweep.energy {
        let r = &point.report;
        s.push_str(&format!(
            "{:>4.2} | {:>6} | {:>10.3} | {:>11.2} | {:>5} {:>6} | {:>9.2} {:>10.4}\n",
            point.load,
            if point.autoscaled { "on" } else { "off" },
            r.energy_per_inference.as_millijoules(),
            r.mean_active,
            r.wakes,
            r.drains,
            r.static_energy.value(),
            r.dynamic_energy.value(),
        ));
    }
    for &load in &spec.energy_loads {
        let at = |autoscaled: bool| {
            sweep
                .energy
                .iter()
                .find(|p| p.autoscaled == autoscaled && (p.load - load).abs() < 1e-12)
        };
        if let (Some(off), Some(on)) = (at(false), at(true)) {
            let (off_mj, on_mj) = (
                off.report.energy_per_inference.as_millijoules(),
                on.report.energy_per_inference.as_millijoules(),
            );
            s.push_str(&format!(
                "savings@{load:.2}: scaler on {on_mj:.3} mJ/inf vs off {off_mj:.3} ({:+.1}%)\n",
                (on_mj / off_mj - 1.0) * 100.0,
            ));
        }
    }
    s
}

fn router_shed_pct(report: &FleetReport) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        report.router_shed as f64 / (report.arrivals as f64).max(1.0) * 100.0
    }
}

fn shard_shed_pct(report: &FleetReport) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        report.shard_shed as f64 / (report.arrivals as f64).max(1.0) * 100.0
    }
}

/// Renders the sweep as machine-readable JSONL: one `pixel.fleet.meta`
/// header, one `pixel.fleet.point` line per `(section, policy, load)`,
/// per-tenant lines at the nominal load, and `pixel.fleet.energy` lines
/// for the autoscaler study. Flat objects on the virtual clock: bitwise
/// identical across runs and `--jobs` levels.
#[must_use]
pub fn metrics_jsonl(spec: &FleetSweepSpec, sweep: &FleetSweep) -> String {
    let mut s = format!(
        "{{\"schema\":\"pixel.fleet.meta\",\"lanes\":{},\"bits_per_lane\":{},\"requests\":{},\"queue\":{},\"nominal\":{},\"seed\":{}}}\n",
        spec.lanes, spec.bits_per_lane, spec.requests, spec.queue_capacity, spec.nominal, spec.seed,
    );
    for section in &sweep.sections {
        for point in &section.points {
            let r = &point.report;
            s.push_str(&format!(
                "{{\"schema\":\"pixel.fleet.point\",\"mix\":\"{}\",\"fleet\":\"{}\",\"policy\":\"{}\",\"load\":{},\"offered_hz\":{},\"achieved_hz\":{},\"completed\":{},\"router_shed\":{},\"shard_shed\":{},\"p99_ms\":{},\"wait_p99_ms\":{},\"mean_batch\":{},\"merge_rate\":{},\"utilization\":{},\"energy_per_inf_mj\":{},\"slo_attained\":{}}}\n",
                section.mix,
                section.shard_label,
                point.policy.label(),
                point.load,
                r.offered_hz,
                r.achieved_hz,
                r.completed,
                r.router_shed,
                r.shard_shed,
                r.latency.p99.as_millis(),
                r.queue_wait.p99.as_millis(),
                r.mean_batch,
                r.merge_rate(),
                r.utilization,
                r.energy_per_inference.as_millijoules(),
                r.slo_attained(),
            ));
            if (point.load - spec.nominal).abs() < 1e-12 {
                for tenant in &r.tenants {
                    s.push_str(&format!(
                        "{{\"schema\":\"pixel.fleet.tenant\",\"mix\":\"{}\",\"fleet\":\"{}\",\"policy\":\"{}\",\"load\":{},\"tenant\":\"{}\",\"completed\":{},\"router_shed\":{},\"p99_ms\":{},\"target_ms\":{},\"attained\":{}}}\n",
                        section.mix,
                        section.shard_label,
                        point.policy.label(),
                        point.load,
                        tenant.name,
                        tenant.completed,
                        tenant.router_shed,
                        tenant.p99.as_millis(),
                        tenant.slo.p99_target.as_millis(),
                        tenant.attained(),
                    ));
                }
            }
        }
    }
    for point in &sweep.energy {
        let r = &point.report;
        s.push_str(&format!(
            "{{\"schema\":\"pixel.fleet.energy\",\"load\":{},\"autoscaled\":{},\"energy_per_inf_mj\":{},\"mean_active\":{},\"wakes\":{},\"drains\":{},\"static_j\":{},\"dynamic_j\":{}}}\n",
            point.load,
            point.autoscaled,
            r.energy_per_inference.as_millijoules(),
            r.mean_active,
            r.wakes,
            r.drains,
            r.static_energy.value(),
            r.dynamic_energy.value(),
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sweep() -> FleetSweep {
        let engine = SweepEngine::new(2);
        fleet_sweep(&engine, &FleetSweepSpec::quick(2026))
    }

    #[test]
    fn quick_sweep_has_expected_shape() {
        let sweep = small_sweep();
        // paper 2xOO, skewed 2xOO, hetero.
        assert_eq!(sweep.sections.len(), 3);
        for section in &sweep.sections {
            assert_eq!(section.points.len(), section.policies.len() * 2);
            assert!(section.capacity_hz > 0.0, "{}", section.title);
        }
        assert_eq!(sweep.energy.len(), 2);
    }

    #[test]
    fn every_point_conserves_requests() {
        let sweep = small_sweep();
        let all = sweep
            .sections
            .iter()
            .flat_map(|s| s.points.iter().map(|p| &p.report))
            .chain(sweep.energy.iter().map(|p| &p.report));
        for report in all {
            assert_eq!(
                report.completed + report.router_shed + report.shard_shed,
                report.arrivals,
                "{} leak",
                report.policy,
            );
        }
    }

    #[test]
    fn render_carries_knee_merge_and_energy_readouts() {
        let spec = FleetSweepSpec::quick(2026);
        let engine = SweepEngine::new(2);
        let sweep = fleet_sweep(&engine, &spec);
        let text = render_fleet(&spec, &sweep);
        for label in [
            "fleet sweep",
            "SLOs:",
            "knee:",
            "merge@0.85",
            "net-affinity",
            "round-robin",
            "reactive autoscaler",
            "savings@0.30",
        ] {
            assert!(text.contains(label), "missing {label}:\n{text}");
        }
    }

    #[test]
    fn metrics_jsonl_is_schema_tagged_flat_json() {
        let spec = FleetSweepSpec::quick(2026);
        let engine = SweepEngine::new(1);
        let sweep = fleet_sweep(&engine, &spec);
        let jsonl = metrics_jsonl(&spec, &sweep);
        assert!(jsonl.lines().count() > sweep.sections.len());
        for line in jsonl.lines() {
            let fields = pixel_obs::parse_flat_object(line).expect("flat JSON");
            assert!(
                fields
                    .iter()
                    .any(|(k, v)| k == "schema" && v.starts_with("pixel.fleet.")),
                "untagged line: {line}"
            );
        }
    }
}
