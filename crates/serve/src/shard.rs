//! One serving shard: a serve machine plus its power ledger.
//!
//! A [`Shard`] wraps a [`ServeMachine`] and its per-design
//! [`ServiceModel`] behind a small power state machine. The serving
//! semantics are untouched — admission, batching, shedding, and all
//! windowed/latency accounting still live in the machine — but the
//! shard additionally tracks *when the fabric is drawing its static
//! (laser + heater) floor*. That ledger is what makes a fleet's
//! joules/request honest: a photonic shard burns its wall-plug floor
//! from the instant it is woken (the laser stabilizes while requests
//! are already being routed to it) until one `drain_latency` after it
//! empties, whether or not it served anything in between. The
//! single-fabric simulator is one shard that stays `Active` throughout.
//!
//! The state machine:
//!
//! ```text
//! Active ──begin_drain──▶ Draining ──(idle ∧ empty)──▶ Off
//!    ▲                                                  │
//!    └───────── wake ends ◀── Waking ◀────── wake ──────┘
//! ```
//!
//! *Routable* (the router may send new work): `Active` or `Waking`.
//! *Serving* (the dispatch loop may run batches): `Active`, `Waking`
//! (arrivals queue while the laser stabilizes; dispatch waits for the
//! wake to end), or `Draining` (existing queue drains, no new work).

use crate::arrivals::{Request, Workload};
use crate::batching::Decision;
use crate::flightrec::FlightData;
use crate::machine::{Admission, FinishMeta, MachineConfig, ServeMachine};
use crate::report::ServeReport;
use crate::service::ServiceModel;
use pixel_core::config::AcceleratorConfig;
use pixel_core::model::EvalContext;
use pixel_units::{Energy, Power, Time, VirtInstant};

/// Power state of one shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerState {
    /// Powered and serving.
    Active,
    /// Powered, laser/heater stabilizing; serving resumes at `until`.
    Waking {
        /// Instant the wake transition completes.
        until: VirtInstant,
    },
    /// Powered, refusing new work, draining its queue.
    Draining,
    /// Unpowered: no static floor, not routable.
    Off,
}

/// A serve machine plus design backend and power ledger.
pub struct Shard {
    id: usize,
    accel: AcceleratorConfig,
    service: ServiceModel,
    machine: ServeMachine,
    state: PowerState,
    powered_since: Option<VirtInstant>,
    powered: Time,
    wakes: u64,
    drains: u64,
    routed: u64,
}

/// What one shard contributed to a finished fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// The shard's serve report (dynamic energy only; the fleet charges
    /// the static floor against powered time, not the machine makespan).
    pub report: ServeReport,
    /// Event counts and latency decompositions.
    pub flight: FlightData,
    /// Requests the router sent this shard.
    pub routed: u64,
    /// Time the shard spent powered (drawing its static floor).
    pub powered: Time,
    /// Static floor energy: `static_power × powered`.
    pub static_energy: Energy,
    /// Off → Waking transitions taken.
    pub wakes: u64,
    /// Active → Draining transitions taken.
    pub drains: u64,
}

impl Shard {
    /// A shard of `accel` at the clock's epoch. `powered` shards start
    /// `Active` with their static floor burning from the epoch; the
    /// rest start `Off` (a cold autoscaled fleet wakes them on demand).
    #[must_use]
    pub fn new(
        id: usize,
        ctx: &EvalContext,
        workload: &Workload,
        accel: AcceleratorConfig,
        machine: &MachineConfig,
        powered: bool,
    ) -> Self {
        Self {
            id,
            accel,
            service: ServiceModel::new(ctx, workload, &accel),
            machine: ServeMachine::new(machine),
            state: if powered {
                PowerState::Active
            } else {
                PowerState::Off
            },
            powered_since: powered.then_some(VirtInstant::EPOCH),
            powered: Time::ZERO,
            wakes: 0,
            drains: 0,
            routed: 0,
        }
    }

    /// Shard index within the fleet.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current power state.
    #[must_use]
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// True when the router may send this shard new work.
    #[must_use]
    pub fn is_routable(&self) -> bool {
        matches!(self.state, PowerState::Active | PowerState::Waking { .. })
    }

    /// True when the dispatch loop may run batches here (`Active` or
    /// `Draining`; a `Waking` shard queues but does not serve yet).
    #[must_use]
    pub fn can_serve(&self) -> bool {
        matches!(self.state, PowerState::Active | PowerState::Draining)
    }

    /// True while a batch is in flight.
    #[must_use]
    pub fn is_busy(&self) -> bool {
        self.machine.is_busy()
    }

    /// Current queue depth.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.machine.queue_depth()
    }

    /// True when no requests wait.
    #[must_use]
    pub fn queue_is_empty(&self) -> bool {
        self.machine.queue_is_empty()
    }

    /// The shard machine's notion of now.
    #[must_use]
    pub fn now(&self) -> VirtInstant {
        self.machine.now()
    }

    /// Requests the router has sent this shard so far.
    #[must_use]
    pub fn routed(&self) -> u64 {
        self.routed
    }

    /// Scheduled completion of the in-flight batch, if any.
    #[must_use]
    pub fn planned_completion(&self) -> Option<VirtInstant> {
        self.machine.planned_completion()
    }

    /// Advances the shard machine's clock (never regresses).
    pub fn advance_to(&mut self, now: VirtInstant) {
        self.machine.advance_to(now);
    }

    /// Offers a routed request to the shard's admission queue.
    pub fn admit(&mut self, request: Request) -> Admission {
        self.routed += 1;
        self.machine.admit(request)
    }

    /// Consults the batching policy (only meaningful when
    /// [`Self::can_serve`] holds and the shard is idle).
    #[must_use]
    pub fn decide(&self) -> Decision {
        self.machine.decide()
    }

    /// Dispatches the head batch with this shard's service cost.
    pub fn dispatch(&mut self) {
        let service = &self.service;
        self.machine
            .dispatch(|network, batch| service.batch(network, batch));
    }

    /// Completes the in-flight planned batch.
    pub fn complete(&mut self) {
        self.machine.complete();
    }

    /// The shard's always-on wall-plug (laser + thermal tuning) power.
    #[must_use]
    pub fn static_power(&self) -> Power {
        self.service.static_power()
    }

    /// Powers an `Off` shard up at `now`: the static floor starts
    /// burning immediately, serving resumes `wake_latency` later.
    ///
    /// # Panics
    ///
    /// Panics unless the shard is `Off`.
    pub fn wake(&mut self, now: VirtInstant, wake_latency: Time) {
        assert_eq!(self.state, PowerState::Off, "wake on a powered shard");
        self.state = PowerState::Waking {
            until: now + wake_latency,
        };
        self.powered_since = Some(now);
        self.wakes += 1;
        pixel_obs::add("fleet.wakes", 1);
    }

    /// Completes a pending wake transition at its scheduled instant.
    ///
    /// # Panics
    ///
    /// Panics unless the shard is `Waking`.
    pub fn finish_wake(&mut self) {
        let PowerState::Waking { until } = self.state else {
            // lint:allow(P003) wake bookkeeping bug; silent recovery would corrupt the power ledger
            panic!("finish_wake on a shard that is not waking");
        };
        self.machine.advance_to(until);
        self.state = PowerState::Active;
    }

    /// Starts draining an `Active` shard: the router stops sending it
    /// work; the queue keeps draining.
    ///
    /// # Panics
    ///
    /// Panics unless the shard is `Active`.
    pub fn begin_drain(&mut self) {
        assert_eq!(
            self.state,
            PowerState::Active,
            "drain on a non-active shard"
        );
        self.state = PowerState::Draining;
        self.drains += 1;
        pixel_obs::add("fleet.drains", 1);
    }

    /// Powers a drained shard off once idle and empty, charging the
    /// powered interval up to `now` plus the `drain_latency` shutdown
    /// tail. Returns whether the shard turned off.
    pub fn try_power_off(&mut self, now: VirtInstant, drain_latency: Time) -> bool {
        if self.state != PowerState::Draining
            || self.machine.is_busy()
            || !self.machine.queue_is_empty()
        {
            return false;
        }
        let off_at = now.max(self.machine.now());
        if let Some(since) = self.powered_since.take() {
            self.powered += off_at.saturating_since(since) + drain_latency;
        }
        self.state = PowerState::Off;
        true
    }

    /// Closes the power ledger of a still-powered shard at the fleet's
    /// end-of-run instant.
    pub fn close(&mut self, end: VirtInstant) {
        if let Some(since) = self.powered_since.take() {
            self.powered += end.saturating_since(since);
        }
    }

    /// Finishes the shard's machine and folds the power ledger into a
    /// [`ShardOutcome`]. `offered_hz` is the share of fleet load this
    /// shard actually received.
    ///
    /// The machine is finished with a **zero** static power: the
    /// machine would otherwise charge the floor over its own makespan,
    /// but a fleet shard's floor follows its *powered* time (it may
    /// have been off for most of the run). The fleet report adds
    /// `static_power × powered` back explicitly.
    ///
    /// # Panics
    ///
    /// Panics if a batch is still in flight, or the power ledger was
    /// not closed ([`Self::close`] or [`Self::try_power_off`]).
    #[must_use]
    pub fn finish(self, workload: &Workload, offered_hz: f64) -> ShardOutcome {
        assert!(
            self.powered_since.is_none(),
            "finish with an open power ledger"
        );
        let static_power = self.service.static_power();
        let (report, flight) = self.machine.finish(
            &FinishMeta {
                accel: self.accel,
                offered_hz,
                static_power: Power::ZERO,
                arrivals: self.routed,
            },
            workload,
        );
        ShardOutcome {
            report,
            flight,
            routed: self.routed,
            powered: self.powered,
            static_energy: static_power * self.powered,
            wakes: self.wakes,
            drains: self.drains,
        }
    }

    /// Finishes a shard that stayed `Active` all run the way a single
    /// fabric reports: the machine charges the static floor over its
    /// makespan, which is then the shard's powered time.
    #[must_use]
    pub fn finish_always_on(
        self,
        workload: &Workload,
        offered_hz: f64,
    ) -> (ServeReport, FlightData) {
        let meta = FinishMeta {
            accel: self.accel,
            offered_hz,
            static_power: self.static_power(),
            arrivals: self.routed,
        };
        self.machine.finish(&meta, workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::BatchPolicy;
    use crate::queue::ShedPolicy;
    use pixel_core::config::Design;

    fn machine_config() -> MachineConfig {
        MachineConfig {
            policy: BatchPolicy::Dynamic {
                max_size: 8,
                deadline: Time::ZERO,
            },
            queue_capacity: 16,
            shed: ShedPolicy::DropNewest,
            window_width: Time::new(1.0),
            window_max_bins: 8,
            event_capacity: 0,
            tenants: 3,
            networks: 6,
        }
    }

    fn shard() -> Shard {
        let workload = Workload::paper_mix();
        let ctx = EvalContext::new();
        Shard::new(
            0,
            &ctx,
            &workload,
            AcceleratorConfig::new(Design::Oo, 4, 16),
            &machine_config(),
            true,
        )
    }

    fn at(t: f64) -> VirtInstant {
        VirtInstant::from_secs(t)
    }

    #[test]
    fn power_ledger_charges_wake_interval_and_drain_tail() {
        let mut s = shard();
        // Drain the initial Active shard immediately: powered from the
        // epoch until off, plus the shutdown tail.
        s.begin_drain();
        assert!(s.try_power_off(at(2.0), Time::new(0.5)));
        assert_eq!(s.state(), PowerState::Off);
        assert!((s.powered.value() - 2.5).abs() < 1e-12);
        // Wake at t=4 with a 1 s stabilization: routable immediately,
        // serving only after finish_wake.
        s.wake(at(4.0), Time::new(1.0));
        assert!(s.is_routable());
        assert!(!s.can_serve());
        s.finish_wake();
        assert_eq!(s.state(), PowerState::Active);
        assert!(s.now() >= at(5.0));
        // Close at t=10: 2.5 + (10 − 4) = 8.5 s powered in total.
        s.close(at(10.0));
        assert!((s.powered.value() - 8.5).abs() < 1e-12);
    }

    #[test]
    fn draining_shard_refuses_power_off_while_work_remains() {
        let mut s = shard();
        let _ = s.admit(Request {
            id: 0,
            tenant: 0,
            network: 0,
            arrival: at(0.5),
        });
        s.begin_drain();
        assert!(!s.try_power_off(at(1.0), Time::ZERO), "queued work");
        s.dispatch();
        assert!(!s.try_power_off(at(1.0), Time::ZERO), "in flight");
        s.complete();
        assert!(s.try_power_off(at(1.0), Time::ZERO));
    }

    #[test]
    fn finish_reports_dynamic_only_machine_energy_plus_static_ledger() {
        let workload = Workload::paper_mix();
        let mut s = shard();
        let _ = s.admit(Request {
            id: 0,
            tenant: 0,
            network: 4,
            arrival: at(0.1),
        });
        s.dispatch();
        s.complete();
        s.close(at(1.0));
        let static_power = s.static_power();
        let outcome = s.finish(&workload, 1.0);
        assert_eq!(outcome.report.completed, 1);
        // The machine charged no static floor; the ledger did.
        assert!(outcome.static_energy.value() > 0.0);
        assert!(
            (outcome.static_energy.value() - static_power.value() * outcome.powered.value()).abs()
                < 1e-12
        );
        assert!(outcome.report.total_energy < outcome.static_energy + outcome.report.total_energy);
    }
}
