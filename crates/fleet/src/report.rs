//! Fleet-level measurements: exact aggregation over shard outcomes.
//!
//! Everything here recombines *exactly* from per-shard state. Latency
//! percentiles come from merging the shards' integer-nanosecond HDR
//! histograms (exact bucket-wise merge, so the fleet p99 is the p99 of
//! the union population, not an average of averages); the windowed
//! trajectory merges bin-wise on the shared virtual-time grid (see
//! [`WindowSeries::merge`]); energy splits into the dynamic inference
//! energy the machines metered and the static floor each shard's power
//! ledger charged over its *powered* time.

use crate::slo::TenantSlo;
use pixel_core::config::Design;
use pixel_serve::arrivals::Workload;
use pixel_serve::flightrec::LatencyBreakdown;
use pixel_serve::percentile::LatencyHistogram;
use pixel_serve::report::LatencyPercentiles;
use pixel_serve::shard::ShardOutcome;
use pixel_serve::window::WindowSeries;
use pixel_units::{Energy, Time};

/// One shard's line in the fleet report.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index.
    pub id: usize,
    /// The shard's design backend.
    pub design: Design,
    /// Requests the router sent this shard.
    pub routed: u64,
    /// Requests that completed here.
    pub completed: u64,
    /// Requests shed at this shard's admission queue.
    pub shed: u64,
    /// Batches dispatched.
    pub dispatches: u64,
    /// Mean dispatched batch size.
    pub mean_batch: f64,
    /// Busy time as a fraction of *powered* time.
    pub utilization: f64,
    /// Time the shard drew its static floor.
    pub powered: Time,
    /// Off → Waking transitions.
    pub wakes: u64,
    /// Active → Draining transitions.
    pub drains: u64,
    /// Dynamic inference energy metered by the machine.
    pub dynamic_energy: Energy,
    /// Static floor energy over the powered time.
    pub static_energy: Energy,
}

/// One tenant's SLO verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSloStats {
    /// Tenant name.
    pub name: String,
    /// The tenant's SLO.
    pub slo: TenantSlo,
    /// Completions across the whole fleet.
    pub completed: u64,
    /// Requests rejected at the router's admission gate.
    pub router_shed: u64,
    /// Measured fleet-wide p99 sojourn (exact histogram merge).
    pub p99: Time,
}

impl TenantSloStats {
    /// Whether the tenant met its p99 target (vacuously true with no
    /// completions).
    #[must_use]
    pub fn attained(&self) -> bool {
        self.completed == 0 || self.p99 <= self.slo.p99_target
    }
}

/// Everything one fleet simulation measures.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Routing policy label.
    pub policy: String,
    /// Shards in the fleet.
    pub shard_count: usize,
    /// Offered arrival rate \[requests/s\].
    pub offered_hz: f64,
    /// Fleet-wide completion rate over the makespan.
    pub achieved_hz: f64,
    /// Requests generated.
    pub arrivals: u64,
    /// Requests that completed inference anywhere in the fleet.
    pub completed: u64,
    /// Requests rejected by the router's SLO admission gate.
    pub router_shed: u64,
    /// Requests shed at shard admission queues.
    pub shard_shed: u64,
    /// Fleet-wide sojourn percentiles (exact histogram merge).
    pub latency: LatencyPercentiles,
    /// Fleet-wide queue-wait percentiles.
    pub queue_wait: LatencyPercentiles,
    /// Fleet-wide service-time percentiles.
    pub service: LatencyPercentiles,
    /// Batches dispatched across the fleet.
    pub dispatches: u64,
    /// Mean dispatched batch size across the fleet.
    pub mean_batch: f64,
    /// First arrival to last completion, fleet-wide.
    pub makespan: Time,
    /// Busy time over powered time, fleet-wide.
    pub utilization: f64,
    /// Mean powered shards over the makespan (`Σ powered / makespan`).
    pub mean_active: f64,
    /// Off → Waking transitions across the fleet.
    pub wakes: u64,
    /// Active → Draining transitions across the fleet.
    pub drains: u64,
    /// Dynamic inference energy.
    pub dynamic_energy: Energy,
    /// Static floor energy (powered time × per-shard floor).
    pub static_energy: Energy,
    /// Dynamic plus static.
    pub total_energy: Energy,
    /// Total energy per completed inference.
    pub energy_per_inference: Energy,
    /// Per-shard lines, by shard id.
    pub shards: Vec<ShardStats>,
    /// Per-tenant SLO verdicts, in workload tenant order.
    pub tenants: Vec<TenantSloStats>,
    /// The merged fleet-wide windowed trajectory.
    pub windows: WindowSeries,
}

impl FleetReport {
    /// Fraction of arrivals rejected anywhere (router or shard queue).
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        if self.arrivals == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            (self.router_shed + self.shard_shed) as f64 / self.arrivals as f64
        }
    }

    /// Goodput ratio: achieved throughput over offered load.
    #[must_use]
    pub fn goodput_ratio(&self) -> f64 {
        if self.offered_hz > 0.0 {
            self.achieved_hz / self.offered_hz
        } else {
            0.0
        }
    }

    /// Fraction of completions that shared a batch with another
    /// request: `1 − dispatches/completed`. The metric network-affinity
    /// routing exists to protect.
    #[must_use]
    pub fn merge_rate(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            1.0 - self.dispatches as f64 / self.completed as f64
        }
    }

    /// How many tenants met their p99 target.
    #[must_use]
    pub fn slo_attained(&self) -> usize {
        self.tenants.iter().filter(|t| t.attained()).count()
    }

    /// Assembles the fleet report from finished shard outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` is empty or `slos`/`router_shed` are not
    /// sized like the workload's tenants.
    #[must_use]
    #[allow(clippy::too_many_arguments)] // the one assembly point of every fleet-level measurement
    pub fn assemble(
        workload: &Workload,
        slos: &[TenantSlo],
        policy: &str,
        offered_hz: f64,
        arrivals: u64,
        router_shed: &[u64],
        makespan: Time,
        outcomes: &[ShardOutcome],
    ) -> Self {
        assert!(!outcomes.is_empty(), "a fleet needs at least one shard");
        assert_eq!(slos.len(), workload.tenants().len(), "one SLO per tenant");
        assert_eq!(router_shed.len(), slos.len(), "router shed is per tenant");

        let mut overall = LatencyBreakdown::default();
        let mut tenant_lat = vec![LatencyBreakdown::default(); slos.len()];
        let mut windows: Option<WindowSeries> = None;
        let mut shards = Vec::with_capacity(outcomes.len());
        let (mut completed, mut shard_shed, mut dispatches) = (0u64, 0u64, 0u64);
        let (mut wakes, mut drains) = (0u64, 0u64);
        let mut busy = Time::ZERO;
        let mut powered = Time::ZERO;
        let mut dynamic_energy = Energy::ZERO;
        let mut static_energy = Energy::ZERO;
        for (id, outcome) in outcomes.iter().enumerate() {
            let r = &outcome.report;
            overall.merge(&outcome.flight.overall);
            for (acc, t) in tenant_lat.iter_mut().zip(&outcome.flight.tenants) {
                acc.merge(t);
            }
            match windows.as_mut() {
                Some(w) => w.merge(&r.windows),
                None => windows = Some(r.windows.clone()),
            }
            let shard_dispatches = outcome.flight.recorder.counts()[3];
            let shard_busy = Time::new(r.utilization * r.makespan.value());
            completed += r.completed;
            shard_shed += r.dropped;
            dispatches += shard_dispatches;
            wakes += outcome.wakes;
            drains += outcome.drains;
            busy += shard_busy;
            powered += outcome.powered;
            dynamic_energy += r.total_energy; // machine static power was zero
            static_energy += outcome.static_energy;
            shards.push(ShardStats {
                id,
                design: r.config.design,
                routed: outcome.routed,
                completed: r.completed,
                shed: r.dropped,
                dispatches: shard_dispatches,
                mean_batch: r.mean_batch,
                utilization: shard_busy.value() / outcome.powered.value().max(1e-30),
                powered: outcome.powered,
                wakes: outcome.wakes,
                drains: outcome.drains,
                dynamic_energy: r.total_energy,
                static_energy: outcome.static_energy,
            });
        }
        let tenants = workload
            .tenants()
            .iter()
            .enumerate()
            .map(|(t, tenant)| TenantSloStats {
                name: tenant.name.clone(),
                slo: slos[t],
                completed: tenant_lat[t].count(),
                router_shed: router_shed[t],
                p99: Time::from_nanos({
                    #[allow(clippy::cast_precision_loss)]
                    {
                        tenant_lat[t].sojourn.percentile(0.99) as f64
                    }
                }),
            })
            .collect();
        let total_energy = dynamic_energy + static_energy;
        #[allow(clippy::cast_precision_loss)]
        let energy_per_inference = if completed > 0 {
            total_energy / completed as f64
        } else {
            Energy::ZERO
        };
        #[allow(clippy::cast_precision_loss)]
        let achieved_hz = if makespan.value() > 0.0 {
            completed as f64 / makespan.value()
        } else {
            0.0
        };
        // Every batched request completes, so batched_total == completed
        // and the fleet mean batch is exactly completed/dispatches.
        #[allow(clippy::cast_precision_loss)]
        let mean_batch = if dispatches > 0 {
            completed as f64 / dispatches as f64
        } else {
            0.0
        };
        // lint:allow(P002) assemble always sees at least one shard (asserted above)
        let windows = windows.expect("at least one shard");
        Self {
            policy: policy.to_owned(),
            shard_count: outcomes.len(),
            offered_hz,
            achieved_hz,
            arrivals,
            completed,
            router_shed: router_shed.iter().sum(),
            shard_shed,
            latency: percentiles(&overall.sojourn),
            queue_wait: percentiles(&overall.wait),
            service: percentiles(&overall.service),
            dispatches,
            mean_batch,
            makespan,
            utilization: busy.value() / powered.value().max(1e-30),
            mean_active: powered.value() / makespan.value().max(1e-30),
            wakes,
            drains,
            dynamic_energy,
            static_energy,
            total_energy,
            energy_per_inference,
            shards,
            tenants,
            windows,
        }
    }
}

/// Summarizes a latency histogram into the shared percentile set.
fn percentiles(histogram: &LatencyHistogram) -> LatencyPercentiles {
    let at = |q: f64| {
        Time::from_nanos({
            #[allow(clippy::cast_precision_loss)]
            {
                histogram.percentile(q) as f64
            }
        })
    };
    LatencyPercentiles {
        p50: at(0.50),
        p95: at(0.95),
        p99: at(0.99),
        p999: at(0.999),
        max: Time::from_nanos({
            #[allow(clippy::cast_precision_loss)]
            {
                histogram.max() as f64
            }
        }),
    }
}
