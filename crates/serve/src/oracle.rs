//! The simulator-as-oracle check: the live daemon must behave as the
//! discrete-event simulator predicts.
//!
//! For each probed load the oracle runs the **same** workload, seed,
//! policy, and accelerator twice:
//!
//! 1. **Predicted** — `sim::simulate` on the virtual clock at
//!    `rate = load × reference_capacity`.
//! 2. **Measured** — a real `pixel-served` daemon on a loopback socket
//!    (analytic service mode), fed by the closed-loop load generator at
//!    the time-compressed rate `rate / time_scale`, with batch service
//!    sleeping `modeled latency × time_scale`.
//!
//! Because [`crate::arrivals::RequestSource`] draws the identical
//! request sequence at any rate (common random numbers) and queueing
//! dynamics are invariant under uniform time scaling, the live run is
//! the simulated run replayed in compressed wall time — so simulated
//! quantities predict measured ones up to sleep/scheduling overhead.
//!
//! ## Contract and tolerances (documented, pinned by `ci.sh`)
//!
//! * **Knee agreement** — [`crate::saturation::saturated`] must
//!   classify the live and simulated points identically at every load.
//!   The probe loads 0.6× and 1.5× capacity sit on opposite sides of
//!   the knee, and because both runs replay the *same* finite arrival
//!   sample, even a sample whose empirical rate drifts toward the
//!   goodput threshold drifts identically on both sides — the
//!   classifications flip together, never apart.
//! * **Drop rate** — absolute difference ≤ 0.10.
//! * **Service time** — live p50 (rescaled by `1 / time_scale`) within
//!   [0.6, 1.6]× the simulated p50: sleeps only overshoot, so the live
//!   value reads high; the window is asymmetric-tolerant in both
//!   directions to stay robust on loaded CI machines.
//! * **Wait share** — p50 queue-wait fraction `wait / (wait + service)`
//!   within ±0.25 absolute: the scale-free signature of where the
//!   sojourn goes, the quantity the refactor is accountable for.
//!
//! Medians, not tails: p99-class statistics of a few hundred requests
//! are noise-dominated under time compression; p50s are stable.

use crate::arrivals::Workload;
use crate::daemon::{self, DaemonConfig, ServiceMode};
use crate::loadgen::{self, LoadgenConfig};
use crate::report::ServeReport;
use crate::saturation::{reference_capacity, saturated};
use crate::sim::{simulate, ServeConfig};
use pixel_core::config::{AcceleratorConfig, Design};
use pixel_core::model::EvalContext;
use std::net::TcpListener;

/// Parameters of one oracle run.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleSpec {
    /// Probed loads as fractions of reference capacity (chosen far from
    /// the knee on both sides).
    pub loads: Vec<f64>,
    /// Requests per point.
    pub requests: usize,
    /// Shared arrival seed (common random numbers between sim and
    /// live).
    pub seed: u64,
    /// Live time compression: the daemon sleeps `latency × scale` and
    /// the generator offers `rate / scale`.
    pub time_scale: f64,
    /// Lanes per OMAC.
    pub lanes: usize,
    /// Bits per lane.
    pub bits_per_lane: u32,
}

impl OracleSpec {
    /// The CI oracle setup: OO 4×16, one load on each side of the knee,
    /// 20× time compression. The scale is deliberately gentle: at 100×
    /// the live queue waits shrink to single-digit milliseconds of wall
    /// time and OS scheduling latency distorts the wait/service split;
    /// at 20× the live wait-share tracks the simulator within a few
    /// hundredths.
    #[must_use]
    pub fn artifact(seed: u64, quick: bool) -> Self {
        Self {
            loads: vec![0.6, 1.5],
            requests: if quick { 150 } else { 400 },
            seed,
            time_scale: 0.05,
            lanes: 4,
            bits_per_lane: 16,
        }
    }
}

/// One tolerance check at one load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleCheck {
    /// Short check name.
    pub name: &'static str,
    /// Human-readable predicted-vs-measured detail.
    pub detail: String,
    /// Whether the measurement fell inside the tolerance.
    pub pass: bool,
}

/// Predicted and measured reports at one load, with their checks.
#[derive(Debug, Clone, PartialEq)]
pub struct OraclePoint {
    /// Load as a fraction of reference capacity.
    pub load: f64,
    /// The simulator's prediction.
    pub sim: ServeReport,
    /// The live daemon's measurement.
    pub live: ServeReport,
    /// Tolerance checks.
    pub checks: Vec<OracleCheck>,
}

impl OraclePoint {
    /// True when every check at this point passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

/// Runs the full oracle: one simulated and one live run per load.
///
/// # Errors
///
/// Propagates socket I/O errors from the daemon or load generator.
///
/// # Panics
///
/// Panics if the daemon thread panics.
pub fn run_oracle(spec: &OracleSpec) -> std::io::Result<Vec<OraclePoint>> {
    let _span = pixel_obs::span("serve/oracle");
    let workload = Workload::paper_mix();
    let ctx = EvalContext::new();
    let accel = AcceleratorConfig::new(Design::Oo, spec.lanes, spec.bits_per_lane);
    let mut points = Vec::with_capacity(spec.loads.len());
    for &load in &spec.loads {
        let template = ServeConfig::new(accel, 1.0, spec.requests, spec.seed);
        let capacity = reference_capacity(&ctx, &workload, &accel, template.policy.max_batch());
        let sim_rate = capacity * load;
        let sim_config = ServeConfig {
            rate_hz: sim_rate,
            ..template
        };
        let sim_report = simulate(&workload, &ctx, &sim_config);

        let live_rate = sim_rate / spec.time_scale;
        let daemon_config = DaemonConfig {
            serve: ServeConfig {
                rate_hz: live_rate,
                ..template
            },
            time_scale: spec.time_scale,
            mode: ServiceMode::Analytic,
            event_capacity: 0,
        };
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let live_report = std::thread::scope(|scope| {
            let daemon = scope.spawn(|| daemon::run(listener, &workload, &ctx, &daemon_config));
            let load_result = loadgen::run(
                addr,
                &workload,
                &LoadgenConfig {
                    rate_hz: live_rate,
                    requests: spec.requests,
                    seed: spec.seed,
                    connections: 1,
                },
            );
            // lint:allow(P002) a panicked daemon thread is unrecoverable here
            let daemon_result = daemon.join().expect("daemon thread");
            load_result.and_then(|_| daemon_result.map(|(report, _)| report))
        })?;

        let checks = check_point(&sim_report, &live_report, spec.time_scale);
        points.push(OraclePoint {
            load,
            sim: sim_report,
            live: live_report,
            checks,
        });
    }
    Ok(points)
}

/// Applies the documented tolerances to one predicted/measured pair.
#[must_use]
pub fn check_point(sim: &ServeReport, live: &ServeReport, time_scale: f64) -> Vec<OracleCheck> {
    let mut checks = Vec::new();

    let sim_knee = saturated(sim.drop_rate(), sim.goodput_ratio());
    let live_knee = saturated(live.drop_rate(), live.goodput_ratio());
    checks.push(OracleCheck {
        name: "knee",
        detail: format!(
            "sim saturated={sim_knee} (goodput {:.3}) live saturated={live_knee} (goodput {:.3})",
            sim.goodput_ratio(),
            live.goodput_ratio()
        ),
        pass: sim_knee == live_knee,
    });

    let drop_diff = (sim.drop_rate() - live.drop_rate()).abs();
    checks.push(OracleCheck {
        name: "drop-rate",
        detail: format!(
            "sim {:.4} live {:.4} |diff| {drop_diff:.4} (tol 0.10)",
            sim.drop_rate(),
            live.drop_rate()
        ),
        pass: drop_diff <= 0.10,
    });

    let sim_service = sim.service.p50.value();
    let live_service = live.service.p50.value() / time_scale;
    let service_ratio = if sim_service > 0.0 {
        live_service / sim_service
    } else {
        1.0
    };
    checks.push(OracleCheck {
        name: "service-p50",
        detail: format!(
            "sim {sim_service:.4} s live/scale {live_service:.4} s ratio {service_ratio:.3} (tol [0.6, 1.6])"
        ),
        pass: (0.6..=1.6).contains(&service_ratio),
    });

    let share = |report: &ServeReport| {
        let wait = report.queue_wait.p50.value();
        let service = report.service.p50.value();
        if wait + service > 0.0 {
            wait / (wait + service)
        } else {
            0.0
        }
    };
    let sim_share = share(sim);
    let live_share = share(live);
    let share_diff = (sim_share - live_share).abs();
    checks.push(OracleCheck {
        name: "wait-share",
        detail: format!(
            "sim {sim_share:.3} live {live_share:.3} |diff| {share_diff:.3} (tol 0.25)"
        ),
        pass: share_diff <= 0.25,
    });

    checks
}

/// Renders the oracle outcome as the text block `ci.sh` greps.
#[must_use]
pub fn render(spec: &OracleSpec, points: &[OraclePoint]) -> String {
    let mut out = String::new();
    out.push_str("pixel-served oracle: simulator-predicted vs live-measured\n");
    out.push_str(&format!(
        "  requests/point {}  time-scale {}  seed {}\n",
        spec.requests, spec.time_scale, spec.seed
    ));
    for point in points {
        out.push_str(&format!(
            "load {:.2}x capacity (offered sim {:.3}/s, live {:.3}/s)\n",
            point.load, point.sim.offered_hz, point.live.offered_hz
        ));
        for check in &point.checks {
            out.push_str(&format!(
                "  [{}] {:<12} {}\n",
                if check.pass { "PASS" } else { "FAIL" },
                check.name,
                check.detail
            ));
        }
    }
    out.push_str(if points.iter().all(OraclePoint::passed) {
        "oracle: PASS\n"
    } else {
        "oracle: FAIL\n"
    });
    out
}

/// CLI entry shared by `pixel-served oracle` and `reproduce oracle`:
/// `[--quick] [--seed N]`. Returns the process exit code.
#[must_use]
pub fn run_cli(args: &[String]) -> u8 {
    let quick = args.iter().any(|a| a == "--quick");
    let mut seed = 2026u64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--seed" {
            if let Some(value) = iter.next().and_then(|v| v.parse().ok()) {
                seed = value;
            }
        }
    }
    let spec = OracleSpec::artifact(seed, quick);
    match run_oracle(&spec) {
        Ok(points) => {
            print!("{}", render(&spec, &points));
            u8::from(!points.iter().all(OraclePoint::passed))
        }
        Err(e) => {
            eprintln!("oracle: I/O error: {e}");
            2
        }
    }
}
