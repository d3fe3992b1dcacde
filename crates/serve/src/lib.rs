//! # pixel-serve — discrete-event inference serving on PIXEL fabrics
//!
//! The analytical layers below ([`pixel_core`]) answer *how fast is one
//! inference, one batch, one design point*. This crate answers the
//! operational question an accelerator deployment actually faces: **at
//! what offered load does a design stop keeping up, and what do tail
//! latencies look like on the way there?**
//!
//! It is a small, std-only discrete-event simulator of a serving
//! system — one fabric here, N shards in `pixel-fleet`, through the same
//! event loop:
//!
//! * [`arrivals`] — deterministic Poisson arrivals (seeded
//!   [`pixel_units::rng::SplitMix64`], unit-rate exponential gaps scaled
//!   by `1/rate` so the request *sequence* is rate-independent), drawn
//!   from a multi-tenant [`arrivals::Workload`] mixing the six paper
//!   CNNs.
//! * [`queue`] — a bounded FIFO admission queue with configurable load
//!   shedding and time-weighted depth accounting.
//! * [`batching`] — pluggable batch formation: fixed-size, or dynamic
//!   (dispatch when full *or* when the head-of-line request ages past a
//!   deadline; zero deadline is greedy natural batching).
//! * [`machine`] — the pure serving state machine: all of the above
//!   policies plus flight-recorder/window/latency accounting over *fed*
//!   [`pixel_units::VirtInstant`]s, never reading a clock.
//! * [`shard`] — one machine plus its service model and the power
//!   ledger that meters its static laser/heater floor over *powered*
//!   time (wake stabilization and drain tails included).
//! * [`sim`] — the one discrete-event loop, over a slice of shards:
//!   one always-on shard for [`simulate`], N behind a router and
//!   autoscaler for `pixel-fleet`. Feeds the machines virtual instants;
//!   service times and energy come straight from the memoized
//!   [`pixel_core::model::EvalContext`] via the pipeline-fill batch
//!   model in [`pixel_core::throughput`] (see [`service`]); no cost
//!   formula is duplicated here.
//! * [`clock`] — the [`clock::Clock`] abstraction the live drivers
//!   stand on: a virtual test clock and the daemon's monotonic clock.
//! * [`daemon`] / [`wire`] / [`loadgen`] — the `pixel-served` daemon:
//!   the same machine driven by a monotonic clock behind a
//!   length-prefixed JSONL loopback socket, plus its deterministic
//!   closed-loop load generator.
//! * [`oracle`] — runs the live daemon and the simulator over the same
//!   seeds and checks the daemon's saturation knee and wait/service
//!   split against the simulator's prediction.
//! * [`percentile`] — an integer-only log-linear latency histogram
//!   (HDR-style) whose percentiles are bitwise deterministic across
//!   platforms and worker counts, with exact bucket-wise
//!   [`LatencyHistogram::merge`].
//! * [`flightrec`] — typed, virtual-time-stamped request-lifecycle
//!   events in a bounded ring (the flight recorder), plus the
//!   queue-wait vs service-time latency decomposition per tenant and
//!   per network.
//! * [`window`] — windowed time-series metrics (throughput, queue
//!   occupancy, shed rate, batch sizes, integrated power) on a
//!   self-coarsening virtual-time grid.
//! * [`saturation`] — sweeps offered load × design through
//!   [`pixel_core::sweep::SweepEngine`] and locates each design's
//!   saturation knee; [`saturation::metrics_jsonl`] exports the sweep
//!   as schema-tagged JSONL.
//!
//! Everything is deterministic: one `u64` seed fixes the entire run, and
//! the artifact output is bitwise identical at any `--jobs` level.

pub mod arrivals;
pub mod batching;
pub mod clock;
pub mod daemon;
pub mod flightrec;
pub mod loadgen;
pub mod machine;
pub mod oracle;
pub mod percentile;
pub mod queue;
pub mod report;
pub mod saturation;
pub mod service;
pub mod shard;
pub mod sim;
pub mod window;
pub mod wire;

pub use arrivals::{Request, RequestSource, Tenant, Workload};
pub use batching::{BatchPolicy, Decision};
pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use flightrec::{FlightData, FlightRecorder, LatencyBreakdown, ServeEvent};
pub use machine::{Admission, FinishMeta, MachineConfig, OpenDispatch, ServeMachine};
pub use percentile::LatencyHistogram;
pub use queue::{AdmissionQueue, ShedPolicy};
pub use report::{LatencyPercentiles, NetworkStats, ServeReport, TenantStats};
pub use saturation::{metrics_jsonl, saturation_sweep, DesignCurve, SweepSpec};
pub use service::ServiceModel;
pub use shard::{PowerState, Shard, ShardOutcome};
pub use sim::{simulate, simulate_with_flightrec, ServeConfig};
pub use window::{WindowBin, WindowSeries};
