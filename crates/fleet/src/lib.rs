//! Sharded multi-fabric serving for the PIXEL reproduction.
//!
//! `pixel-fleet` scales the single-fabric serving model of
//! [`pixel_serve`] out to a fleet: N shards — each a full
//! [`ServeMachine`](pixel_serve::machine::ServeMachine) over its own
//! design backend (homogeneous, or mixed EE/OE/OO) — behind a router
//! with pluggable placement policies, per-tenant SLO admission, and an
//! energy-aware autoscaler that powers shards up and down against
//! PIXEL's static laser/heater floor.
//!
//! The pieces:
//!
//! * [`route`] — the [`RoutePolicy`] trait and the
//!   four built-ins: round-robin, join-shortest-queue,
//!   power-of-two-choices, and network-affinity (which preserves the
//!   head-of-line same-network runs PIXEL's batch merging feeds on).
//! * [`slo`] — per-tenant p99 targets plus the weighted-fair,
//!   priority-aware admission gate at the router.
//! * [`autoscale`] — the reactive watermark scaler and its honest
//!   wake/drain transition charging.
//! * [`sim`] — the fleet front end plugged into
//!   [`pixel_serve::sim::run`], the event loop that also serves a
//!   single fabric; each shard is a [`pixel_serve::shard::Shard`] (a
//!   serve machine plus the power ledger that meters its static floor
//!   over *powered* time). Bitwise deterministic.
//! * [`report`] — exact aggregation (merged HDR histograms, merged
//!   window grids, split static/dynamic energy) into a
//!   [`FleetReport`].
//! * [`sweep`] — the `reproduce fleet` artifact: policy × shard-count
//!   × tenant-mix sweeps with knee, SLO-attainment, and
//!   joules-per-request readouts.

pub mod autoscale;
pub mod report;
pub mod route;
pub mod sim;
pub mod slo;
pub mod sweep;

pub use autoscale::{AutoscaleConfig, ScaleAction};
pub use report::{FleetReport, ShardStats, TenantSloStats};
pub use route::{RouteKind, RoutePolicy, ShardView};
pub use sim::{simulate_fleet, FleetConfig, FleetOutcome};
pub use slo::{paper_slos, AdmissionControl, TenantSlo};
pub use sweep::{
    fleet_sweep, metrics_jsonl, render_fleet, skewed_mix, EnergyPoint, FleetPoint, FleetSection,
    FleetSweep, FleetSweepSpec,
};
