//! A one-shard, always-on fleet is the single-fabric simulator.
//!
//! `simulate_fleet` and `serve::simulate` step the same event loop; a
//! fleet of one shard whose router admits everything must therefore
//! reproduce the single-fabric run bitwise — same tie order, same
//! end-of-stream rule — under greedy, fixed-size and deadline batching.
//! The end-of-stream rule itself (a pending batching deadline is
//! honoured after the last arrival, as the live daemon does) is pinned
//! on both entry points.

use pixel_core::config::{AcceleratorConfig, Design};
use pixel_core::model::EvalContext;
use pixel_fleet::{simulate_fleet, FleetConfig, RouteKind};
use pixel_serve::batching::BatchPolicy;
use pixel_serve::saturation::reference_capacity;
use pixel_serve::{simulate, simulate_with_flightrec, ServeConfig, Workload};
use pixel_units::Time;

/// Requests per run. The shard queue never holds more than 150 of its
/// 256 slots, so the router's SLO gate (soft watermark 0.6) never fires
/// and the comparison exercises the loop alone.
const REQUESTS: usize = 150;

#[test]
fn one_shard_fleet_reproduces_the_single_fabric_run() {
    let workload = Workload::paper_mix();
    let ctx = EvalContext::new();
    let policies = [
        BatchPolicy::Dynamic {
            max_size: 8,
            deadline: Time::ZERO,
        },
        BatchPolicy::Fixed { size: 8 },
        BatchPolicy::Dynamic {
            max_size: 8,
            deadline: Time::from_millis(5.0),
        },
    ];
    for design in Design::ALL {
        let accel = AcceleratorConfig::new(design, 4, 16);
        let capacity = reference_capacity(&ctx, &workload, &accel, 8);
        for load in [0.3, 0.6, 0.85] {
            for policy in policies {
                let case = format!("{design} load {load} {}", policy.label());
                let mut serve = ServeConfig::new(accel, capacity * load, REQUESTS, 2026);
                serve.policy = policy;
                let (single, flight) = simulate_with_flightrec(&workload, &ctx, &serve, 0);

                let mut config = FleetConfig::new(
                    vec![accel],
                    RouteKind::RoundRobin,
                    serve.rate_hz,
                    REQUESTS,
                    2026,
                );
                config.policy = policy;
                let fleet = simulate_fleet(&workload, &ctx, &config).report;

                assert_eq!(fleet.router_shed, 0, "{case}: the SLO gate fired");
                assert_eq!(fleet.latency, single.latency, "{case}: latency");
                assert_eq!(fleet.queue_wait, single.queue_wait, "{case}: queue wait");
                assert_eq!(fleet.service, single.service, "{case}: service");
                assert_eq!(fleet.completed, single.completed, "{case}: completed");
                assert_eq!(fleet.shard_shed, single.dropped, "{case}: shed");
                assert_eq!(
                    fleet.dispatches,
                    flight.recorder.counts()[3],
                    "{case}: dispatches"
                );
                assert_eq!(
                    fleet.mean_batch.to_bits(),
                    single.mean_batch.to_bits(),
                    "{case}: mean batch"
                );
                assert_eq!(fleet.makespan, single.makespan, "{case}: makespan");
                assert_eq!(
                    fleet.total_energy, single.total_energy,
                    "{case}: total energy"
                );
            }
        }
    }
}

#[test]
fn a_lone_request_waits_out_its_batching_deadline() {
    let workload = Workload::paper_mix();
    let ctx = EvalContext::new();
    let accel = AcceleratorConfig::new(Design::Oo, 4, 16);
    let policy = BatchPolicy::Dynamic {
        max_size: 8,
        deadline: Time::from_millis(5.0),
    };
    let mut serve = ServeConfig::new(accel, 1.0, 1, 7);
    serve.policy = policy;
    let mut fleet = FleetConfig::new(vec![accel], RouteKind::RoundRobin, 1.0, 1, 7);
    fleet.policy = policy;
    let waits = [
        ("serve", simulate(&workload, &ctx, &serve).queue_wait.max),
        (
            "fleet",
            simulate_fleet(&workload, &ctx, &fleet)
                .report
                .queue_wait
                .max,
        ),
    ];
    for (entry, wait) in waits {
        assert!(
            (wait.value() - 5e-3).abs() < 1e-6,
            "{entry}: the stream's only request waited {} s, not its 5 ms deadline",
            wait.value()
        );
    }
}
