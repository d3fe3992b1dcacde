//! The fleet front end: one router, N shard machines.
//!
//! A single seeded arrival stream feeds the router; the router's SLO
//! admission gate ([`crate::slo::AdmissionControl`]) decides *whether*
//! to take each request and the [`RoutePolicy`](crate::route::RoutePolicy)
//! decides *where*; the [`autoscale`] policy wakes and drains shards on
//! its tick. Both plug into [`pixel_serve::sim::run`] — the same event
//! loop, tie order and end-of-stream rule that serve a single fabric —
//! so each shard runs the exact single-fabric serving semantics of
//! [`pixel_serve::machine::ServeMachine`] on its own clock, and the
//! whole trajectory — shard assignments included — is a pure function
//! of `(workload, context overrides, config)`: bitwise identical across
//! runs, machines, and `--jobs` levels.

use crate::autoscale::{self, AutoscaleConfig, ScaleAction};
use crate::report::FleetReport;
use crate::route::{RouteKind, ShardView};
use crate::slo::{AdmissionControl, TenantSlo};
use pixel_core::config::AcceleratorConfig;
use pixel_core::model::EvalContext;
use pixel_serve::arrivals::{RequestSource, Workload};
use pixel_serve::batching::BatchPolicy;
use pixel_serve::queue::ShedPolicy;
use pixel_serve::shard::{PowerState, Shard, ShardOutcome};
use pixel_serve::sim::{self, ServeConfig};
use pixel_units::Time;

/// Parameters of one fleet simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// The shard fabrics, by shard id (homogeneous or mixed designs).
    pub shards: Vec<AcceleratorConfig>,
    /// Routing policy.
    pub route: RouteKind,
    /// Batch-formation policy (shared by every shard).
    pub policy: BatchPolicy,
    /// Per-shard admission-queue bound.
    pub queue_capacity: usize,
    /// Per-shard shedding policy.
    pub shed: ShedPolicy,
    /// Per-tenant SLOs, in workload tenant order.
    pub slos: Vec<TenantSlo>,
    /// Autoscaler parameters.
    pub autoscale: AutoscaleConfig,
    /// Offered arrival rate \[requests/s\].
    pub rate_hz: f64,
    /// Arrivals to generate before draining.
    pub requests: usize,
    /// Seed of the arrival process (and the router's sample stream).
    pub seed: u64,
    /// Nominal bin count of the fleet-wide windowed grid.
    pub window_bins: usize,
}

impl FleetConfig {
    /// A fleet with the artifact defaults: greedy dynamic batching up
    /// to 8, 256-deep drop-newest shard queues, the paper SLO set,
    /// autoscaling off, a 64-bin metrics grid.
    #[must_use]
    pub fn new(
        shards: Vec<AcceleratorConfig>,
        route: RouteKind,
        rate_hz: f64,
        requests: usize,
        seed: u64,
    ) -> Self {
        Self {
            shards,
            route,
            policy: BatchPolicy::Dynamic {
                max_size: 8,
                deadline: Time::ZERO,
            },
            queue_capacity: 256,
            shed: ShedPolicy::DropNewest,
            slos: crate::slo::paper_slos(),
            autoscale: AutoscaleConfig::disabled(),
            rate_hz,
            requests,
            seed,
            window_bins: 64,
        }
    }
}

/// A finished fleet run: the report plus the per-request shard
/// assignments (`-1` = rejected at the router), in arrival order —
/// what the router-determinism property test compares bitwise.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Aggregated fleet measurements.
    pub report: FleetReport,
    /// Shard id per generated request, `-1` for router-shed.
    pub assignments: Vec<i32>,
}

/// Runs one fleet simulation to completion (all arrivals generated,
/// every shard drained) and reports the measurements plus the routing
/// trace.
///
/// # Panics
///
/// Panics if the config has no shards, no requests, or an SLO list
/// that does not match the workload's tenants.
#[must_use]
pub fn simulate_fleet(
    workload: &Workload,
    ctx: &EvalContext,
    config: &FleetConfig,
) -> FleetOutcome {
    let _span = pixel_obs::span("fleet/sim");
    assert!(
        !config.shards.is_empty(),
        "a fleet needs at least one shard"
    );
    assert!(config.requests > 0, "need at least one request");
    assert_eq!(
        config.slos.len(),
        workload.tenants().len(),
        "one SLO per workload tenant"
    );
    // Every shard sizes its window grid to the *fleet* expected
    // makespan, so the per-shard series merge bin-exactly.
    let machine_config = ServeConfig {
        policy: config.policy,
        queue_capacity: config.queue_capacity,
        shed: config.shed,
        window_bins: config.window_bins,
        ..ServeConfig::new(
            config.shards[0],
            config.rate_hz,
            config.requests,
            config.seed,
        )
    }
    .machine_config(workload, 0);
    // Every shard starts powered — the warm, fixed-provisioning state.
    // An enabled autoscaler earns its savings by *draining* idle shards
    // from the first tick onward; cold-starting at `min_active` would
    // instead measure wake latency against a burst the baseline never
    // faces (and shed traffic doing it).
    let mut shards: Vec<Shard> = config
        .shards
        .iter()
        .enumerate()
        .map(|(id, &accel)| Shard::new(id, ctx, workload, accel, &machine_config, true))
        .collect();
    let mut router = config.route.build(
        config.seed ^ 0x9E37_79B9_7F4A_7C15,
        workload.networks().len(),
    );
    let mut admission = AdmissionControl::new(&config.slos);
    let mut assignments: Vec<i32> = Vec::with_capacity(config.requests);
    let scaler = &config.autoscale;
    let fleet_end = sim::run(
        &mut shards,
        RequestSource::new(workload, config.rate_hz, config.requests, config.seed),
        |request, shards| {
            pixel_obs::add("fleet.arrivals", 1);
            let views = shard_views(shards);
            let pressure = fleet_pressure(&views, config.queue_capacity);
            if !admission.admit(request.tenant, pressure) {
                pixel_obs::add("fleet.router_shed", 1);
                assignments.push(-1);
                return None;
            }
            let target = router.route(request, &views);
            assert!(
                views[target].routable,
                "policy routed to an unroutable shard"
            );
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
            assignments.push(target as i32);
            Some(target)
        },
        |now, shards| match autoscale::decide(scaler, &shard_views(shards)) {
            ScaleAction::Wake(id) => shards[id].wake(now, scaler.wake_latency),
            ScaleAction::Drain(id) => shards[id].begin_drain(),
            ScaleAction::Hold => {}
        },
        scaler.enabled.then_some(scaler.interval),
        scaler.drain_latency,
    );

    let outcomes: Vec<ShardOutcome> = shards
        .into_iter()
        .map(|shard| {
            let share = offered_share(config.rate_hz, shard.routed(), config.requests);
            shard.finish(workload, share)
        })
        .collect();
    let report = FleetReport::assemble(
        workload,
        &config.slos,
        config.route.label(),
        config.rate_hz,
        config.requests as u64,
        admission.shed(),
        Time::new(fleet_end.as_secs()),
        &outcomes,
    );
    debug_assert_eq!(
        report.completed + report.router_shed + report.shard_shed,
        report.arrivals,
        "request conservation"
    );
    FleetOutcome {
        report,
        assignments,
    }
}

/// Router-visible snapshots, ascending shard id.
fn shard_views(shards: &[Shard]) -> Vec<ShardView> {
    shards
        .iter()
        .map(|s| ShardView {
            id: s.id(),
            routable: s.is_routable(),
            waking: matches!(s.state(), PowerState::Waking { .. }),
            off: s.state() == PowerState::Off,
            queue_depth: s.queue_depth(),
            busy: s.is_busy(),
        })
        .collect()
}

/// Aggregate queue pressure over the routable shards, in `[0, 1]`.
fn fleet_pressure(views: &[ShardView], queue_capacity: usize) -> f64 {
    let routable = views.iter().filter(|v| v.routable);
    let (depth, slots) = routable.fold((0usize, 0usize), |(d, s), v| {
        (d + v.queue_depth, s + queue_capacity)
    });
    if slots == 0 {
        return 1.0;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        (depth as f64 / slots as f64).min(1.0)
    }
}

/// The slice of the fleet's offered rate a shard actually saw.
fn offered_share(rate_hz: f64, routed: u64, total: usize) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        rate_hz * routed as f64 / (total as f64).max(1.0)
    }
}
