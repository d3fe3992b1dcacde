//! The pure serving state machine: admission, batching, shedding, and
//! all windowed/event/latency accounting — with no clock of its own.
//!
//! [`ServeMachine`] owns every policy decision the serving system makes
//! (bounded-queue admission with drop-newest/drop-oldest shedding,
//! fixed and deadline-triggered dynamic batching, flight-recorder
//! eventing, [`WindowSeries`]/[`LatencyBreakdown`] accounting) as a
//! state machine over *fed* [`VirtInstant`]s: it never reads a clock.
//! The discrete-event simulator feeds it virtual instants; the
//! `pixel-served` daemon feeds it a monotonic clock's instants. Same
//! machine, same decisions — which is what lets the simulator act as a
//! quantitative oracle for the live process (and what the replay
//! property test pins: identical event sequences produce identical
//! decisions regardless of the clock's epoch).
//!
//! Two dispatch/completion flavors cover the two drivers:
//!
//! * **Planned** ([`ServeMachine::dispatch`] +
//!   [`ServeMachine::complete`]): the service cost is known at dispatch
//!   (the simulator's analytic model), so the completion instant is
//!   scheduled up front and busy/energy windows are charged
//!   immediately. This path reproduces the original simulator's
//!   accounting order bitwise.
//! * **Open** ([`ServeMachine::dispatch_open`] +
//!   [`ServeMachine::complete_measured`]): the daemon dispatches
//!   without knowing how long service will take and reports the
//!   measured completion instant (and energy) afterwards; busy/energy
//!   windows are charged over the measured span.

use crate::arrivals::{Request, Workload};
use crate::batching::{BatchPolicy, Decision};
use crate::flightrec::{FlightData, FlightRecorder, LatencyBreakdown, ServeEvent};
use crate::queue::{AdmissionQueue, ShedPolicy};
use crate::report::{LatencyPercentiles, NetworkStats, ServeReport, TenantStats};
use crate::window::WindowSeries;
use pixel_core::config::AcceleratorConfig;
use pixel_units::{Energy, Power, Time, VirtInstant};

/// Structural parameters of a [`ServeMachine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Batch-formation policy.
    pub policy: BatchPolicy,
    /// Admission-queue bound.
    pub queue_capacity: usize,
    /// What to shed when the queue is full.
    pub shed: ShedPolicy,
    /// Base bin width of the windowed time-series grid.
    pub window_width: Time,
    /// Maximum bin count of the grid (coarsens beyond it).
    pub window_max_bins: usize,
    /// Flight-recorder ring depth (0 = count-only).
    pub event_capacity: usize,
    /// Number of tenants (sizes the per-tenant breakdowns).
    pub tenants: usize,
    /// Number of networks (sizes the per-network breakdowns).
    pub networks: usize,
}

/// What [`ServeMachine::admit`] did with an arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// The request was admitted to the queue.
    Admitted,
    /// The arriving request itself was shed (drop-newest on a full
    /// queue).
    ShedArrival,
    /// The oldest waiting request was evicted to admit the arrival
    /// (drop-oldest).
    ShedOldest {
        /// The evicted request.
        victim: Request,
    },
}

/// A batch handed to the caller by [`ServeMachine::dispatch_open`]: the
/// caller services it and reports back with
/// [`ServeMachine::complete_measured`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenDispatch {
    /// Batch sequence number.
    pub batch: u64,
    /// Network index the batch runs.
    pub network: usize,
    /// Requests in the batch.
    pub size: usize,
}

/// Run-level metadata [`ServeMachine::finish`] folds into the report.
#[derive(Debug, Clone, Copy)]
pub struct FinishMeta {
    /// The accelerator that served the run.
    pub accel: AcceleratorConfig,
    /// Offered arrival rate \[requests/s\].
    pub offered_hz: f64,
    /// Always-on power charged over the makespan.
    pub static_power: Power,
    /// Total arrivals the driver generated.
    pub arrivals: u64,
}

/// The in-flight batch. `completes_at` is scheduled for planned
/// dispatches and `None` for open ones.
struct InFlight {
    completes_at: Option<VirtInstant>,
    started_at: VirtInstant,
    id: u64,
    batch: Vec<Request>,
}

/// The pure serving state machine (see the module docs).
pub struct ServeMachine {
    clock: VirtInstant,
    queue: AdmissionQueue,
    server: Option<InFlight>,
    policy: BatchPolicy,
    overall: LatencyBreakdown,
    tenant_lat: Vec<LatencyBreakdown>,
    network_lat: Vec<LatencyBreakdown>,
    tenant_completed: Vec<u64>,
    network_completed: Vec<u64>,
    completed: u64,
    shed: u64,
    dispatches: u64,
    batch_seq: u64,
    batched_total: u64,
    busy_time: Time,
    dynamic_energy: Energy,
    last_completion: VirtInstant,
    recorder: FlightRecorder,
    spill: bool,
    windows: WindowSeries,
}

impl ServeMachine {
    /// A fresh machine at the clock's epoch.
    #[must_use]
    pub fn new(config: &MachineConfig) -> Self {
        Self {
            clock: VirtInstant::EPOCH,
            queue: AdmissionQueue::new(config.queue_capacity, config.shed),
            server: None,
            policy: config.policy,
            overall: LatencyBreakdown::default(),
            tenant_lat: vec![LatencyBreakdown::default(); config.tenants],
            network_lat: vec![LatencyBreakdown::default(); config.networks],
            tenant_completed: vec![0; config.tenants],
            network_completed: vec![0; config.networks],
            completed: 0,
            shed: 0,
            dispatches: 0,
            batch_seq: 0,
            batched_total: 0,
            busy_time: Time::ZERO,
            dynamic_energy: Energy::ZERO,
            last_completion: VirtInstant::EPOCH,
            recorder: FlightRecorder::new(config.event_capacity),
            spill: pixel_obs::enabled() && pixel_obs::has_trace(),
            windows: WindowSeries::new(config.window_width, config.window_max_bins),
        }
    }

    /// The machine's notion of now: the latest instant it has been fed.
    #[must_use]
    pub fn now(&self) -> VirtInstant {
        self.clock
    }

    /// Advances the machine's clock monotonically to `now` (instants in
    /// the past are ignored — the clock never regresses).
    pub fn advance_to(&mut self, now: VirtInstant) {
        self.clock = self.clock.max(now);
    }

    /// True while a dispatched batch is in flight.
    #[must_use]
    pub fn is_busy(&self) -> bool {
        self.server.is_some()
    }

    /// Scheduled completion instant of the in-flight planned batch.
    #[must_use]
    pub fn planned_completion(&self) -> Option<VirtInstant> {
        self.server.as_ref().and_then(|f| f.completes_at)
    }

    /// Current queue depth.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// True when no requests wait.
    #[must_use]
    pub fn queue_is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Records one lifecycle event in the flight recorder and, when a
    /// trace sink is active, spills it as JSONL.
    fn emit(&mut self, event: ServeEvent) {
        if self.spill {
            pixel_obs::trace_event(&event.to_json());
        }
        self.recorder.record(event);
    }

    /// Offers an arrival to the admission queue at its stamped arrival
    /// instant, advancing the clock to it first.
    pub fn admit(&mut self, request: Request) -> Admission {
        self.clock = self.clock.max(request.arrival);
        pixel_obs::add("serve.arrivals", 1);
        self.windows.count_arrival(self.clock);
        self.emit(ServeEvent::Arrive {
            t_ns: self.clock.to_ns(),
            id: request.id,
            tenant: request.tenant,
            network: request.network,
        });
        let outcome = match self.queue.offer(request.arrival, request) {
            Some(victim) => {
                pixel_obs::add("serve.shed", 1);
                self.windows.count_shed(self.clock);
                self.shed += 1;
                self.emit(ServeEvent::Shed {
                    t_ns: self.clock.to_ns(),
                    id: victim.id,
                    tenant: victim.tenant,
                    network: victim.network,
                });
                if victim.id == request.id {
                    Admission::ShedArrival
                } else {
                    // Drop-oldest: the newcomer took the evicted head's
                    // place.
                    pixel_obs::add("serve.admitted", 1);
                    self.emit(ServeEvent::Enqueue {
                        t_ns: self.clock.to_ns(),
                        id: request.id,
                        depth: self.queue.depth(),
                    });
                    Admission::ShedOldest { victim }
                }
            }
            None => {
                pixel_obs::add("serve.admitted", 1);
                self.emit(ServeEvent::Enqueue {
                    t_ns: self.clock.to_ns(),
                    id: request.id,
                    depth: self.queue.depth(),
                });
                Admission::Admitted
            }
        };
        self.windows.set_depth(self.clock, self.queue.depth());
        outcome
    }

    /// Consults the batching policy at the machine's current instant.
    #[must_use]
    pub fn decide(&self) -> Decision {
        self.policy.decide(&self.queue, self.clock)
    }

    /// Shared dispatch bookkeeping: forms the head batch, counts it,
    /// and emits its formation/start events. Returns the batch and its
    /// sequence id.
    fn form_batch(&mut self) -> (u64, Vec<Request>) {
        let batch = self.queue.take_batch(self.clock, self.policy.max_batch());
        assert!(!batch.is_empty(), "dispatch on an empty queue");
        pixel_obs::add("serve.dispatches", 1);
        #[allow(clippy::cast_precision_loss)]
        pixel_obs::observe("serve.batch_size", batch.len() as f64);
        let id = self.batch_seq;
        self.batch_seq += 1;
        self.dispatches += 1;
        self.batched_total += batch.len() as u64;
        (id, batch)
    }

    /// Dispatches the head batch with a known (planned) service cost:
    /// the completion instant is scheduled now and busy/energy windows
    /// are charged immediately. `cost(network, batch_size)` returns the
    /// batch's service time and dynamic energy.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty or a batch is already in flight.
    pub fn dispatch(&mut self, cost: impl FnOnce(usize, usize) -> (Time, Energy)) {
        assert!(self.server.is_none(), "dispatch while busy");
        let (id, batch) = self.form_batch();
        let (latency, energy) = cost(batch[0].network, batch.len());
        self.busy_time += latency;
        self.dynamic_energy += energy;
        let completes_at = self.clock + latency;
        self.windows.count_dispatch(self.clock, batch.len() as u64);
        self.windows.set_depth(self.clock, self.queue.depth());
        self.windows.add_busy(self.clock, completes_at);
        self.windows
            .add_energy(self.clock, completes_at, energy.value());
        self.emit(ServeEvent::BatchFormed {
            t_ns: self.clock.to_ns(),
            batch: id,
            network: batch[0].network,
            size: batch.len(),
        });
        self.emit(ServeEvent::ServiceStart {
            t_ns: self.clock.to_ns(),
            batch: id,
        });
        self.server = Some(InFlight {
            completes_at: Some(completes_at),
            started_at: self.clock,
            id,
            batch,
        });
    }

    /// Dispatches the head batch *without* a known cost: the caller
    /// services it for real and reports back through
    /// [`Self::complete_measured`]. Busy/energy accounting is deferred
    /// to completion.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty or a batch is already in flight.
    pub fn dispatch_open(&mut self) -> OpenDispatch {
        assert!(self.server.is_none(), "dispatch while busy");
        let (id, batch) = self.form_batch();
        self.windows.count_dispatch(self.clock, batch.len() as u64);
        self.windows.set_depth(self.clock, self.queue.depth());
        self.emit(ServeEvent::BatchFormed {
            t_ns: self.clock.to_ns(),
            batch: id,
            network: batch[0].network,
            size: batch.len(),
        });
        self.emit(ServeEvent::ServiceStart {
            t_ns: self.clock.to_ns(),
            batch: id,
        });
        let dispatch = OpenDispatch {
            batch: id,
            network: batch[0].network,
            size: batch.len(),
        };
        self.server = Some(InFlight {
            completes_at: None,
            started_at: self.clock,
            id,
            batch,
        });
        dispatch
    }

    /// Completes the in-flight *planned* batch at its scheduled
    /// instant, advancing the clock to it.
    ///
    /// # Panics
    ///
    /// Panics if no planned batch is in flight.
    pub fn complete(&mut self) {
        // lint:allow(P002) complete() only runs with an in-flight batch; silent recovery would corrupt the clock
        let flight = self.server.take().expect("completion without a batch");
        // lint:allow(P002) planned dispatches always schedule a completion
        let completes_at = flight.completes_at.expect("planned completion instant");
        self.clock = completes_at;
        self.last_completion = completes_at;
        self.windows
            .count_completions(completes_at, flight.batch.len() as u64);
        self.emit(ServeEvent::ServiceEnd {
            t_ns: completes_at.to_ns(),
            batch: flight.id,
            size: flight.batch.len(),
        });
        for request in &flight.batch {
            // Integer nanoseconds: deterministic bucketing, ns
            // resolution. The sojourn rounds the float difference
            // directly, and the split is exact by construction:
            // rounding is monotone (started_at ≤ completes_at), so
            // wait_ns ≤ sojourn_ns and wait + service == sojourn.
            let sojourn_ns = (completes_at - request.arrival).round_nanos();
            let wait_ns = (flight.started_at - request.arrival).round_nanos();
            let service_ns = sojourn_ns - wait_ns;
            self.record_completion(request, wait_ns, service_ns);
        }
    }

    /// Completes the in-flight *open* batch at the measured instant
    /// `at` with measured (or modeled) dynamic energy, charging the
    /// busy/energy windows over the measured span. Returns the batch's
    /// requests so the caller can answer them.
    ///
    /// # Panics
    ///
    /// Panics if no batch is in flight.
    pub fn complete_measured(&mut self, at: VirtInstant, energy: Energy) -> Vec<Request> {
        // lint:allow(P002) complete_measured() only runs with an in-flight batch
        let flight = self.server.take().expect("completion without a batch");
        let at = at.max(flight.started_at);
        self.clock = self.clock.max(at);
        self.last_completion = self.last_completion.max(at);
        self.busy_time += at.saturating_since(flight.started_at);
        self.dynamic_energy += energy;
        self.windows
            .count_completions(at, flight.batch.len() as u64);
        self.windows.add_busy(flight.started_at, at);
        self.windows
            .add_energy(flight.started_at, at, energy.value());
        self.emit(ServeEvent::ServiceEnd {
            t_ns: at.to_ns(),
            batch: flight.id,
            size: flight.batch.len(),
        });
        for request in &flight.batch {
            let sojourn_ns = at.saturating_since(request.arrival).round_nanos();
            let wait_ns = flight
                .started_at
                .saturating_since(request.arrival)
                .round_nanos();
            let service_ns = sojourn_ns.saturating_sub(wait_ns);
            self.record_completion(request, wait_ns, service_ns);
        }
        flight.batch
    }

    fn record_completion(&mut self, request: &Request, wait_ns: u64, service_ns: u64) {
        self.overall.record(wait_ns, service_ns);
        self.tenant_lat[request.tenant].record(wait_ns, service_ns);
        self.network_lat[request.network].record(wait_ns, service_ns);
        self.tenant_completed[request.tenant] += 1;
        self.network_completed[request.network] += 1;
        self.completed += 1;
        pixel_obs::add("serve.completions", 1);
    }

    /// Closes the run: finishes the window grid at the makespan and
    /// folds every accumulator into a [`ServeReport`] plus the raw
    /// [`FlightData`].
    ///
    /// # Panics
    ///
    /// Panics if a batch is still in flight.
    #[must_use]
    pub fn finish(mut self, meta: &FinishMeta, workload: &Workload) -> (ServeReport, FlightData) {
        assert!(self.server.is_none(), "finish with a batch in flight");
        let makespan = self.last_completion.max(self.clock);
        self.windows.finish(makespan);
        let makespan = makespan.as_secs();
        #[allow(clippy::cast_precision_loss)]
        let achieved_hz = if makespan > 0.0 {
            self.completed as f64 / makespan
        } else {
            0.0
        };
        #[allow(clippy::cast_precision_loss)]
        let mean_batch = if self.dispatches > 0 {
            self.batched_total as f64 / self.dispatches as f64
        } else {
            0.0
        };
        let static_energy = meta.static_power * Time::new(makespan);
        let total_energy = self.dynamic_energy + static_energy;
        #[allow(clippy::cast_precision_loss)]
        let energy_per_inference = if self.completed > 0 {
            total_energy / self.completed as f64
        } else {
            Energy::ZERO
        };
        let tenant_stats = workload
            .tenants()
            .iter()
            .enumerate()
            .map(|(t, tenant)| TenantStats {
                name: tenant.name.clone(),
                completed: self.tenant_completed[t],
                p95: LatencyPercentiles::of(&self.tenant_lat[t].sojourn).p95,
                wait: LatencyPercentiles::of(&self.tenant_lat[t].wait),
                service: LatencyPercentiles::of(&self.tenant_lat[t].service),
            })
            .collect();
        let network_stats = workload
            .networks()
            .iter()
            .enumerate()
            .map(|(n, net)| NetworkStats {
                name: net.name().to_owned(),
                completed: self.network_completed[n],
                wait: LatencyPercentiles::of(&self.network_lat[n].wait),
                service: LatencyPercentiles::of(&self.network_lat[n].service),
            })
            .collect();
        pixel_obs::gauge(
            "serve.utilization",
            self.busy_time.value() / makespan.max(1e-30),
        );
        let report = ServeReport {
            config: meta.accel,
            policy: self.policy.label(),
            offered_hz: meta.offered_hz,
            achieved_hz,
            arrivals: meta.arrivals,
            completed: self.completed,
            dropped: self.shed,
            latency: LatencyPercentiles::of(&self.overall.sojourn),
            queue_wait: LatencyPercentiles::of(&self.overall.wait),
            service: LatencyPercentiles::of(&self.overall.service),
            mean_batch,
            mean_queue_depth: self.queue.mean_depth(VirtInstant::from_secs(makespan)),
            max_queue_depth: self.queue.max_depth(),
            utilization: self.busy_time.value() / makespan.max(1e-30),
            makespan: Time::new(makespan),
            total_energy,
            energy_per_inference,
            tenants: tenant_stats,
            networks: network_stats,
            windows: self.windows.clone(),
        };
        let data = FlightData {
            recorder: self.recorder,
            overall: self.overall,
            tenants: self.tenant_lat,
            networks: self.network_lat,
        };
        (report, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixel_core::config::Design;
    use pixel_units::VirtualNs;

    fn config() -> MachineConfig {
        MachineConfig {
            policy: BatchPolicy::Fixed { size: 2 },
            queue_capacity: 4,
            shed: ShedPolicy::DropNewest,
            window_width: Time::new(1.0),
            window_max_bins: 8,
            event_capacity: 64,
            tenants: 3,
            networks: 6,
        }
    }

    fn req(id: u64, network: usize, arrival: f64) -> Request {
        Request {
            id,
            tenant: 0,
            network,
            arrival: VirtInstant::from_secs(arrival),
        }
    }

    fn meta() -> FinishMeta {
        FinishMeta {
            accel: AcceleratorConfig::new(Design::Oo, 4, 16),
            offered_hz: 1.0,
            static_power: Power::ZERO,
            arrivals: 2,
        }
    }

    #[test]
    fn planned_and_measured_paths_agree_on_the_breakdown() {
        let workload = Workload::paper_mix();
        let cost = |_net: usize, batch: usize| {
            #[allow(clippy::cast_precision_loss)]
            (Time::new(0.5 * batch as f64), Energy::new(1.0))
        };
        let run = |open: bool| {
            let mut m = ServeMachine::new(&config());
            assert_eq!(m.admit(req(0, 1, 0.25)), Admission::Admitted);
            assert_eq!(m.admit(req(1, 1, 0.75)), Admission::Admitted);
            assert!(matches!(m.decide(), Decision::Dispatch));
            if open {
                let d = m.dispatch_open();
                assert_eq!((d.network, d.size, d.batch), (1, 2, 0));
                let (latency, energy) = cost(d.network, d.size);
                let done = m.now() + latency;
                let batch = m.complete_measured(done, energy);
                assert_eq!(batch.len(), 2);
            } else {
                m.dispatch(cost);
                assert_eq!(m.planned_completion(), Some(VirtInstant::from_secs(1.75)));
                m.complete();
            }
            m.finish(&meta(), &workload)
        };
        let (planned, planned_data) = run(false);
        let (measured, measured_data) = run(true);
        // Identical instants fed through either path yield the same
        // decisions, counts, and latency decomposition.
        assert_eq!(planned, measured);
        assert_eq!(planned_data.overall, measured_data.overall);
        assert_eq!(planned.completed, 2);
        assert!((planned.utilization * planned.makespan.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn admit_reports_the_shed_choice() {
        let mut newest = ServeMachine::new(&MachineConfig {
            queue_capacity: 1,
            ..config()
        });
        assert_eq!(newest.admit(req(0, 0, 0.0)), Admission::Admitted);
        assert_eq!(newest.admit(req(1, 0, 0.1)), Admission::ShedArrival);

        let mut oldest = ServeMachine::new(&MachineConfig {
            queue_capacity: 1,
            shed: ShedPolicy::DropOldest,
            ..config()
        });
        assert_eq!(oldest.admit(req(0, 0, 0.0)), Admission::Admitted);
        match oldest.admit(req(1, 0, 0.1)) {
            Admission::ShedOldest { victim } => assert_eq!(victim.id, 0),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn clock_never_regresses() {
        let mut m = ServeMachine::new(&config());
        m.advance_to(VirtInstant::from_secs(2.0));
        m.advance_to(VirtInstant::from_secs(1.0));
        assert_eq!(m.now(), VirtInstant::from_secs(2.0));
        // Late-stamped arrivals do not rewind the machine either.
        let _ = m.admit(req(0, 0, 0.5));
        assert_eq!(m.now(), VirtInstant::from_secs(2.0));
        // ... but the event stream still stamps at the machine's now.
        let last = *m.recorder.events().back().unwrap();
        assert_eq!(last.t_ns(), VirtualNs::from_nanos(2_000_000_000));
    }
}
