//! The discrete-event serving loop.
//!
//! [`run`] is the one planned-dispatch event loop. It steps a slice of
//! [`Shard`]s (a serve machine, its analytic service model and a power
//! ledger each) through one seeded arrival stream, event to event:
//!
//! 1. **Immediate actions**, ascending shard id: power a drained, empty
//!    shard off; dispatch on an idle shard whose policy says go. Once
//!    the stream ends a timer-less `Hold` flushes its partial batch, but
//!    a pending `HoldUntil` deadline is honoured, as in the live daemon.
//!    A draining shard flushes whatever it holds.
//! 2. **The earliest timed event**; time ties break by class
//!    (completion, wake-end, deadline, autoscaler tick, arrival), then
//!    by shard id.
//!
//! Both phases are pure functions of the shard states, so a run is a
//! pure function of the seed. [`simulate`] serves one fabric: a single
//! always-`Active` shard that receives every arrival; `pixel-fleet`
//! plugs its router, SLO gate and autoscaler in through `route` and
//! `tick`. Per-batch service time and energy come from [`EvalContext`]
//! through the pipeline-fill batching model in `pixel_core::throughput`
//! — the same `DesignModel` backends behind every paper artifact, so
//! EE/OE/OO serving curves are comparable by construction. All policy
//! and accounting state lives in the pure
//! [`ServeMachine`](crate::machine::ServeMachine); the `pixel-served`
//! daemon drives the identical machine with a monotonic clock.
//!
//! Instrumentation: a single-fabric run executes under a `serve/sim`
//! span and counts `serve.arrivals`, `serve.admitted`, `serve.shed`,
//! `serve.dispatches` and `serve.completions`; dispatched batch sizes
//! feed the `serve.batch_size` histogram. Every request also emits typed
//! lifecycle events ([`crate::flightrec::ServeEvent`]) into a bounded
//! [`FlightRecorder`](crate::flightrec::FlightRecorder) (and the
//! `pixel-obs` trace sink when one is installed), while a
//! [`WindowSeries`](crate::window::WindowSeries) folds the run into
//! virtual-time bins and a
//! [`LatencyBreakdown`](crate::flightrec::LatencyBreakdown) splits every
//! sojourn into queue wait and service time per tenant and per network.

use crate::arrivals::{Request, RequestSource, Workload};
use crate::batching::{BatchPolicy, Decision};
use crate::flightrec::FlightData;
use crate::machine::MachineConfig;
use crate::queue::ShedPolicy;
use crate::report::ServeReport;
use crate::shard::{PowerState, Shard};
use pixel_core::config::AcceleratorConfig;
use pixel_core::model::EvalContext;
use pixel_units::{Time, VirtInstant};

/// Parameters of one serving simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// The accelerator under load.
    pub accel: AcceleratorConfig,
    /// Batch-formation policy.
    pub policy: BatchPolicy,
    /// Admission-queue bound.
    pub queue_capacity: usize,
    /// What to shed when the queue is full.
    pub shed: ShedPolicy,
    /// Offered arrival rate \[requests/s\].
    pub rate_hz: f64,
    /// Arrivals to generate before draining.
    pub requests: usize,
    /// Seed of the arrival process.
    pub seed: u64,
    /// Nominal bin count of the windowed time-series grid (the grid
    /// coarsens beyond the expected makespan, never past `2×` this).
    pub window_bins: usize,
}

impl ServeConfig {
    /// A serving setup with the defaults the artifact sweep uses:
    /// dynamic batching up to 8, a 256-deep drop-newest queue, a
    /// 64-bin metrics grid.
    #[must_use]
    pub fn new(accel: AcceleratorConfig, rate_hz: f64, requests: usize, seed: u64) -> Self {
        Self {
            accel,
            policy: BatchPolicy::Dynamic {
                max_size: 8,
                deadline: Time::ZERO,
            },
            queue_capacity: 256,
            shed: ShedPolicy::DropNewest,
            rate_hz,
            requests,
            seed,
            window_bins: 64,
        }
    }

    /// The [`MachineConfig`] this simulation drives: the policy state
    /// machine's structural parameters, with the window grid sized to
    /// the expected makespan (`requests / rate`).
    #[must_use]
    pub fn machine_config(&self, workload: &Workload, event_capacity: usize) -> MachineConfig {
        let window_bins = self.window_bins.max(2);
        #[allow(clippy::cast_precision_loss)]
        let expected_makespan = self.requests as f64 / self.rate_hz;
        #[allow(clippy::cast_precision_loss)]
        let base_width = (expected_makespan / window_bins as f64).max(1e-9);
        MachineConfig {
            policy: self.policy,
            queue_capacity: self.queue_capacity,
            shed: self.shed,
            window_width: Time::new(base_width),
            window_max_bins: window_bins * 2,
            event_capacity,
            tenants: workload.tenants().len(),
            networks: workload.networks().len(),
        }
    }
}

/// Runs one serving simulation to completion (all arrivals generated,
/// queue drained, last batch finished) and reports the measurements.
///
/// Equivalent to [`simulate_with_flightrec`] with a zero-capacity event
/// ring (events are still counted and spilled to an installed trace
/// sink, never buffered).
///
/// Deterministic: the report is a pure function of `(workload, the
/// context's overrides, config)` — bitwise identical across runs,
/// machines, and sweep worker counts.
///
/// # Panics
///
/// Panics if `config.requests` is zero.
#[must_use]
pub fn simulate(workload: &Workload, ctx: &EvalContext, config: &ServeConfig) -> ServeReport {
    simulate_with_flightrec(workload, ctx, config, 0).0
}

/// Runs one serving simulation with a `event_capacity`-deep flight
/// recorder and returns the report together with the recorded
/// [`FlightData`] (event ring, per-kind counts, and the full
/// wait/service latency decomposition).
///
/// # Panics
///
/// Panics if `config.requests` is zero.
#[must_use]
pub fn simulate_with_flightrec(
    workload: &Workload,
    ctx: &EvalContext,
    config: &ServeConfig,
    event_capacity: usize,
) -> (ServeReport, FlightData) {
    let _span = pixel_obs::span("serve/sim");
    assert!(config.requests > 0, "need at least one request");
    let machine = config.machine_config(workload, event_capacity);
    let mut shards = [Shard::new(0, ctx, workload, config.accel, &machine, true)];
    let arrivals = RequestSource::new(workload, config.rate_hz, config.requests, config.seed);
    run(
        &mut shards,
        arrivals,
        |_, _| Some(0),
        |_, _| {},
        None,
        Time::ZERO,
    );
    let [shard] = shards;
    shard.finish_always_on(workload, config.rate_hz)
}

/// Timed-event classes in tie-break order (declaration order).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
enum Timed {
    Completion,
    WakeEnd,
    Deadline,
    Tick,
}

/// Steps `shards` through `arrivals` until every arrival is placed and
/// every shard has drained, then closes each power ledger at the
/// returned end-of-run instant. `route` names the shard that admits an
/// arrival, or `None` to shed it first; `tick` runs every
/// `tick_interval` (if any) while work remains; `drain_latency` is the
/// shutdown tail charged when a drained shard powers off.
///
/// # Panics
///
/// Panics if `route` names a shard outside `shards`.
pub fn run(
    shards: &mut [Shard],
    arrivals: RequestSource<'_>,
    mut route: impl FnMut(&Request, &[Shard]) -> Option<usize>,
    mut tick: impl FnMut(VirtInstant, &mut [Shard]),
    tick_interval: Option<Time>,
    drain_latency: Time,
) -> VirtInstant {
    let mut arrivals = arrivals.peekable();
    let mut next_tick = tick_interval.map(|interval| VirtInstant::EPOCH + interval);
    let mut frontier = VirtInstant::EPOCH;
    loop {
        let stream_ended = arrivals.peek().is_none();
        for shard in shards.iter_mut() {
            settle(shard, frontier, drain_latency, stream_ended);
        }
        let next = next_timed(shards, next_tick, !stream_ended);
        // Arrivals rank last among same-instant events.
        if let Some(request) = arrivals.next_if(|r| next.is_none_or(|(at, ..)| r.arrival < at)) {
            frontier = frontier.max(request.arrival);
            if let Some(target) = route(&request, shards) {
                let _ = shards[target].admit(request);
            }
            continue;
        }
        let Some((at, class, id)) = next else {
            break;
        };
        frontier = frontier.max(at);
        match class {
            Timed::Completion => shards[id].complete(),
            Timed::WakeEnd => shards[id].finish_wake(),
            Timed::Deadline => {
                shards[id].advance_to(at);
                shards[id].dispatch();
            }
            Timed::Tick => {
                tick(at, shards);
                next_tick = tick_interval.map(|interval| at + interval);
            }
        }
    }
    let end = shards
        .iter()
        .map(Shard::now)
        .fold(frontier, VirtInstant::max);
    for shard in shards.iter_mut() {
        shard.close(end);
    }
    end
}

/// Phase 1 for one shard (see the module docs).
fn settle(shard: &mut Shard, now: VirtInstant, drain_latency: Time, stream_ended: bool) {
    if shard.try_power_off(now, drain_latency)
        || !shard.can_serve()
        || shard.is_busy()
        || shard.queue_is_empty()
    {
        return;
    }
    let draining = shard.state() == PowerState::Draining;
    let go = match shard.decide() {
        Decision::Dispatch => true,
        Decision::Hold => stream_ended || draining,
        Decision::HoldUntil(_) => draining,
    };
    if go {
        shard.dispatch();
    }
}

/// Phase 2 without arrivals: the earliest `(instant, class, shard)`.
/// Ticks count only while work remains.
fn next_timed(
    shards: &[Shard],
    next_tick: Option<VirtInstant>,
    arrivals_pending: bool,
) -> Option<(VirtInstant, Timed, usize)> {
    let mut next: Option<(VirtInstant, Timed, usize)> = None;
    let mut consider = |candidate: (VirtInstant, Timed, usize)| {
        if next.is_none_or(|best| candidate < best) {
            next = Some(candidate);
        }
    };
    let mut work_remains = arrivals_pending;
    for (id, shard) in shards.iter().enumerate() {
        if let Some(at) = shard.planned_completion() {
            consider((at, Timed::Completion, id));
        }
        if let PowerState::Waking { until } = shard.state() {
            consider((until, Timed::WakeEnd, id));
        }
        if shard.can_serve() && !shard.is_busy() && !shard.queue_is_empty() {
            if let Decision::HoldUntil(expiry) = shard.decide() {
                consider((expiry, Timed::Deadline, id));
            }
        }
        work_remains |= shard.is_busy() || !shard.queue_is_empty();
    }
    if let (true, Some(at)) = (work_remains, next_tick) {
        consider((at, Timed::Tick, 0));
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flightrec::ServeEvent;
    use pixel_core::config::Design;

    fn base_config(rate: f64) -> ServeConfig {
        ServeConfig::new(AcceleratorConfig::new(Design::Oo, 4, 16), rate, 400, 2026)
    }

    #[test]
    fn conservation_all_arrivals_complete_or_drop() {
        let workload = Workload::paper_mix();
        let ctx = EvalContext::new();
        for rate in [0.5, 2.0, 1_000.0] {
            let report = simulate(&workload, &ctx, &base_config(rate));
            assert_eq!(
                report.completed + report.dropped,
                report.arrivals,
                "rate {rate}"
            );
            assert!(report.completed > 0, "rate {rate}");
        }
    }

    #[test]
    fn low_load_latency_is_single_batch_service() {
        let workload = Workload::paper_mix();
        let ctx = EvalContext::new();
        // One request every 50 s against a fabric that serves ~1.7/s:
        // no queueing, every batch is a singleton, so p50 equals a
        // single-network service time (between the fastest and slowest
        // network in the mix).
        let report = simulate(&workload, &ctx, &base_config(0.02));
        assert!((report.mean_batch - 1.0).abs() < 1e-9);
        let singles: Vec<f64> = workload
            .networks()
            .iter()
            .map(|net| {
                ctx.batch_service(&base_config(0.02).accel, net, 1)
                    .latency
                    .value()
            })
            .collect();
        let lo = singles.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = singles.iter().copied().fold(0.0f64, f64::max);
        let p50 = report.latency.p50.value();
        assert!(
            p50 >= lo * 0.99 && p50 <= hi * 1.01,
            "p50 {p50} outside [{lo}, {hi}]"
        );
        assert_eq!(report.dropped, 0);
        // Uncontended: queue wait is negligible next to service time.
        assert!(report.queue_wait.p50 <= report.service.p50);
    }

    #[test]
    fn overload_sheds_and_saturates() {
        let workload = Workload::paper_mix();
        let ctx = EvalContext::new();
        // The OO fabric serves ~1.7 inf/s under this mix: 0.8/s is a
        // comfortable load, 1000/s buries it.
        let light = simulate(&workload, &ctx, &base_config(0.8));
        let crushed = simulate(&workload, &ctx, &base_config(1_000.0));
        assert!(crushed.dropped > 0, "overload must shed");
        assert!(crushed.utilization > 0.99, "overloaded server never idles");
        assert!(crushed.achieved_hz < crushed.offered_hz * 0.5);
        assert!(crushed.latency.p99 >= light.latency.p99);
        assert!(crushed.mean_batch > light.mean_batch);
        // Under overload the sojourn is dominated by queueing, not
        // service: the decomposition must show it.
        assert!(crushed.queue_wait.p50 > crushed.service.p50);
    }

    #[test]
    fn fixed_policy_flushes_partial_batches() {
        let workload = Workload::paper_mix();
        let ctx = EvalContext::new();
        let mut config = base_config(500.0);
        config.policy = BatchPolicy::Fixed { size: 8 };
        let report = simulate(&workload, &ctx, &config);
        assert_eq!(report.completed + report.dropped, report.arrivals);
        assert!(report.mean_batch > 1.0);
    }

    #[test]
    fn deadline_policy_bounds_head_waiting() {
        let workload = Workload::paper_mix();
        let ctx = EvalContext::new();
        let mut config = base_config(0.05);
        config.policy = BatchPolicy::Dynamic {
            max_size: 8,
            deadline: Time::from_millis(5.0),
        };
        let report = simulate(&workload, &ctx, &config);
        assert_eq!(report.completed, report.arrivals);
        // At one request every 20 s the fabric mostly idles; sojourn is
        // bounded by the deadline plus a few service times.
        let slowest = workload
            .networks()
            .iter()
            .map(|net| ctx.batch_service(&config.accel, net, 1).latency.value())
            .fold(0.0f64, f64::max);
        // Batches can hold several requests and one batch may wait behind
        // another; the bound is loose but real.
        assert!(
            report.latency.max.value() < 5e-3 + slowest * 20.0,
            "max {} vs bound {}",
            report.latency.max.value(),
            5e-3 + slowest * 20.0
        );
    }

    #[test]
    fn static_power_amortizes_worse_at_low_load() {
        let workload = Workload::paper_mix();
        let ctx = EvalContext::new();
        // Same request count at a lower rate stretches the makespan, so
        // the OO laser/heater wall-plug is amortized over fewer
        // inferences per second: energy/inference must rise.
        let slow = simulate(&workload, &ctx, &base_config(0.05));
        let fast = simulate(&workload, &ctx, &base_config(1.5));
        assert!(
            slow.energy_per_inference > fast.energy_per_inference,
            "slow {} vs fast {}",
            slow.energy_per_inference.as_millijoules(),
            fast.energy_per_inference.as_millijoules()
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let workload = Workload::paper_mix();
        let ctx = EvalContext::new();
        let a = simulate(&workload, &ctx, &base_config(3_000.0));
        let b = simulate(&workload, &ctx, &base_config(3_000.0));
        assert_eq!(a, b);
        let c = {
            let mut config = base_config(3_000.0);
            config.seed += 1;
            simulate(&workload, &ctx, &config)
        };
        assert_ne!(a.latency, c.latency, "different seed, different trace");
    }

    #[test]
    fn flightrec_event_stream_is_conserved() {
        let workload = Workload::paper_mix();
        let ctx = EvalContext::new();
        let (report, data) = simulate_with_flightrec(&workload, &ctx, &base_config(1_000.0), 128);
        let [arrive, enqueue, shed, formed, started, ended] = *data.recorder.counts();
        assert_eq!(arrive, report.arrivals);
        assert_eq!(shed, report.dropped);
        assert_eq!(enqueue + shed, report.arrivals);
        assert_eq!(formed, started);
        assert_eq!(started, ended);
        // The ring keeps only the tail but the counts are lossless.
        assert_eq!(data.recorder.events().len(), 128);
        assert_eq!(data.recorder.total(), data.recorder.dropped() + 128);
        // Virtual timestamps never regress within the buffered tail.
        let events = data.recorder.events();
        for pair in events.iter().zip(events.iter().skip(1)) {
            assert!(pair.0.t_ns() <= pair.1.t_ns());
        }
        // Decomposition totals match the report.
        assert_eq!(data.overall.count(), report.completed);
        assert_eq!(
            data.overall.wait.sum() + data.overall.service.sum(),
            data.overall.sojourn.sum()
        );
    }

    #[test]
    fn drop_oldest_with_ring_eviction_conserves_event_counts() {
        // Drop-oldest shedding evicts *admitted* requests, so every
        // arrival both enqueues and later either sheds or completes —
        // and a tiny flight-recorder ring must lose events without
        // losing counts.
        let workload = Workload::paper_mix();
        let ctx = EvalContext::new();
        let mut config = base_config(1_000.0);
        config.queue_capacity = 16;
        config.shed = ShedPolicy::DropOldest;
        let (report, data) = simulate_with_flightrec(&workload, &ctx, &config, 32);
        assert!(report.dropped > 0, "overload must shed");

        // Request conservation: arrivals = sheds + services (the run
        // drains, so nothing is still queued at finish).
        assert_eq!(report.completed + report.dropped, report.arrivals);

        // Event-count conservation survives ring eviction: counts are
        // tallied before eviction, so arrive = shed + per-batch
        // completion totals even though the ring kept only 32 events.
        let [arrive, enqueue, shed, formed, started, ended] = *data.recorder.counts();
        assert_eq!(arrive, report.arrivals);
        // Under drop-oldest the arriving request is always admitted.
        assert_eq!(enqueue, report.arrivals);
        assert_eq!(shed, report.dropped);
        assert_eq!(formed, started);
        assert_eq!(started, ended);
        assert_eq!(data.recorder.events().len(), 32);
        assert_eq!(data.recorder.total(), data.recorder.dropped() + 32);
        assert_eq!(
            data.recorder.total(),
            arrive + enqueue + shed + formed + started + ended
        );

        // Drop-oldest sheds the queue head: every shed id must be
        // strictly older than the newest id admitted so far, and no id
        // is shed twice.
        let mut shed_ids = std::collections::BTreeSet::new();
        let mut newest_admitted = 0u64;
        for event in data.recorder.events() {
            match *event {
                ServeEvent::Enqueue { id, .. } => newest_admitted = newest_admitted.max(id),
                ServeEvent::Shed { id, .. } => {
                    assert!(id < newest_admitted, "shed {id} is not the oldest");
                    assert!(shed_ids.insert(id), "request {id} shed twice");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn flightrec_does_not_perturb_the_report() {
        let workload = Workload::paper_mix();
        let ctx = EvalContext::new();
        let plain = simulate(&workload, &ctx, &base_config(800.0));
        let (recorded, _) = simulate_with_flightrec(&workload, &ctx, &base_config(800.0), 4096);
        assert_eq!(plain, recorded);
    }

    #[test]
    fn window_series_accounts_for_every_request() {
        let workload = Workload::paper_mix();
        let ctx = EvalContext::new();
        let report = simulate(&workload, &ctx, &base_config(2.0));
        let arrivals: u64 = report.windows.bins().iter().map(|b| b.arrivals).sum();
        let completions: u64 = report.windows.bins().iter().map(|b| b.completions).sum();
        let shed: u64 = report.windows.bins().iter().map(|b| b.shed).sum();
        assert_eq!(arrivals, report.arrivals);
        assert_eq!(completions, report.completed);
        assert_eq!(shed, report.dropped);
        let busy: f64 = report.windows.bins().iter().map(|b| b.busy).sum();
        assert!(
            (busy - report.utilization * report.makespan.value()).abs()
                < 1e-6 * report.makespan.value().max(1.0)
        );
    }
}
