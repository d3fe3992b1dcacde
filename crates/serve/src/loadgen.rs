//! Deterministic closed-loop load generator for `pixel-served`.
//!
//! The generator replays the *same* seeded Poisson request sequence the
//! simulator consumes ([`RequestSource`]: the tenant/network draws are
//! rate-independent, so one seed couples a simulated run and a live run
//! as common random numbers) — paced against a [`MonotonicClock`]: each
//! request is sent when the live clock reaches its scheduled arrival
//! instant. A reader thread tracks every response, folding the
//! daemon-reported wait/service nanoseconds into a
//! [`LatencyBreakdown`]; after the last request the generator sends
//! `drain` and waits for the daemon's `pixel.serve.stats` frame, making
//! the run fully closed-loop: when [`run`] returns, every request has
//! been accounted served or shed.

use crate::arrivals::{RequestSource, Workload};
use crate::clock::{Clock, MonotonicClock};
use crate::flightrec::LatencyBreakdown;
use crate::wire::{self, WireRequest};
use pixel_units::rng::SplitMix64;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// Longest wait for the next answer before a multi-connection run drains
/// anyway (a dead connection, or a policy holding a batch for the drain).
const ANSWER_STALL: Duration = Duration::from_secs(5);

/// Parameters of one load-generation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadgenConfig {
    /// Offered arrival rate \[requests/s\] on the live clock, summed
    /// over all connections.
    pub rate_hz: f64,
    /// Requests to send, split across connections.
    pub requests: usize,
    /// Seed of the arrival process (shared with the simulator for
    /// common-random-number comparisons).
    pub seed: u64,
    /// Parallel client connections. `1` preserves the exact legacy
    /// single-stream sequence — `seed` feeds [`RequestSource`] directly,
    /// keeping the simulator/daemon common-random-number coupling the
    /// oracle depends on. With `n > 1` connections, each gets its own
    /// sub-stream (seeded from a [`SplitMix64`] root over `seed`) at
    /// `rate_hz / n`, with the request count split as evenly as
    /// possible.
    pub connections: usize,
}

/// What one load-generation run measured, from the client's side of
/// the socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// Requests the daemon answered `served`.
    pub served: u64,
    /// Requests the daemon answered `shed`.
    pub shed: u64,
    /// Daemon-reported wait/service decomposition of the served
    /// requests.
    pub breakdown: LatencyBreakdown,
    /// The raw `pixel.serve.stats` frame body, when the daemon sent
    /// one.
    pub stats: Option<String>,
}

/// Runs one closed-loop load generation against a listening daemon.
///
/// With one connection this is the exact legacy single-stream path;
/// with several, each connection paces its own seeded sub-stream on a
/// shared monotonic clock, and the per-connection tallies are merged
/// (exact [`LatencyBreakdown`] histogram merge). The `drain` control
/// goes out only once every request has its answer: the daemon reads
/// each connection on its own thread, so an earlier drain could overtake
/// a request still in flight on another connection, leaving it
/// unanswered.
///
/// # Errors
///
/// Propagates connection and send-side I/O errors.
///
/// # Panics
///
/// Panics if a response-reader or sender thread panicked.
pub fn run(
    addr: SocketAddr,
    workload: &Workload,
    config: &LoadgenConfig,
) -> std::io::Result<LoadReport> {
    let connections = config.connections.max(1);
    if connections == 1 {
        return run_single(addr, workload, config);
    }
    let mut seeds = SplitMix64::seed_from_u64(config.seed);
    #[allow(clippy::cast_precision_loss)]
    let plans: Vec<(f64, usize, u64)> = (0..connections)
        .map(|i| {
            (
                config.rate_hz / connections as f64,
                config.requests / connections + usize::from(i < config.requests % connections),
                seeds.next_u64(),
            )
        })
        .collect();

    let mut writers = Vec::with_capacity(connections);
    let mut readers = Vec::with_capacity(connections);
    let (answered_tx, answered) = mpsc::channel();
    for _ in 0..connections {
        let stream = TcpStream::connect(addr)?;
        writers.push(stream.try_clone()?);
        let tx = Some(answered_tx.clone());
        readers.push(std::thread::spawn(move || collect_responses(stream, tx)));
    }
    drop(answered_tx);

    let clock = MonotonicClock::start();
    let sent = std::thread::scope(|scope| -> std::io::Result<u64> {
        let senders: Vec<_> = writers
            .iter_mut()
            .zip(&plans)
            .map(|(writer, &(rate_hz, requests, seed))| {
                scope.spawn(move || send_stream(writer, workload, rate_hz, requests, seed, clock))
            })
            .collect();
        let mut sent: u64 = 0;
        for sender in senders {
            // lint:allow(P002,C003) senders are joined in spawn order and the u64 sum is order-free; a panicked sender is unrecoverable
            sent += sender.join().expect("sender thread")?;
        }
        Ok(sent)
    })?;
    let mut unanswered = sent;
    while unanswered > 0 && answered.recv_timeout(ANSWER_STALL).is_ok() {
        unanswered -= 1;
    }
    wire::write_frame(&mut writers[0], &wire::drain_frame())?;

    let mut report = LoadReport {
        sent,
        served: 0,
        shed: 0,
        breakdown: LatencyBreakdown::default(),
        stats: None,
    };
    for reader in readers {
        // lint:allow(P002) a panicked reader thread is unrecoverable here
        let (served, shed, breakdown, stats) = reader.join().expect("response reader");
        report.served += served;
        report.shed += shed;
        report.breakdown.merge(&breakdown);
        if report.stats.is_none() {
            report.stats = stats;
        }
    }
    Ok(report)
}

/// The legacy single-connection path: one stream, `config.seed` fed to
/// the [`RequestSource`] unchanged.
fn run_single(
    addr: SocketAddr,
    workload: &Workload,
    config: &LoadgenConfig,
) -> std::io::Result<LoadReport> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let reader = std::thread::spawn(move || collect_responses(stream, None));

    let clock = MonotonicClock::start();
    let sent = send_stream(
        &mut writer,
        workload,
        config.rate_hz,
        config.requests,
        config.seed,
        clock,
    )?;
    wire::write_frame(&mut writer, &wire::drain_frame())?;

    // lint:allow(P002) a panicked reader thread is unrecoverable here
    let (served, shed, breakdown, stats) = reader.join().expect("response reader");
    Ok(LoadReport {
        sent,
        served,
        shed,
        breakdown,
        stats,
    })
}

/// Paces one seeded request stream onto a connection against `clock`.
fn send_stream(
    writer: &mut TcpStream,
    workload: &Workload,
    rate_hz: f64,
    requests: usize,
    seed: u64,
    clock: MonotonicClock,
) -> std::io::Result<u64> {
    let mut sent: u64 = 0;
    for request in RequestSource::new(workload, rate_hz, requests, seed) {
        clock.sleep(request.arrival.saturating_since(clock.now()));
        wire::write_frame(
            writer,
            &WireRequest {
                id: request.id,
                tenant: request.tenant,
                network: request.network,
            }
            .to_json(),
        )?;
        sent += 1;
    }
    Ok(sent)
}

/// Drains one connection's response stream until the stats frame (or
/// EOF), tallying outcomes and signalling each one on `answered`.
fn collect_responses(
    mut stream: TcpStream,
    answered: Option<mpsc::Sender<()>>,
) -> (u64, u64, LatencyBreakdown, Option<String>) {
    let mut served: u64 = 0;
    let mut shed: u64 = 0;
    let mut breakdown = LatencyBreakdown::default();
    let mut stats = None;
    while let Ok(Some(body)) = wire::read_frame(&mut stream) {
        if let Some(response) = wire::parse_response(&body) {
            if response.served {
                served += 1;
                breakdown.record(response.wait_ns, response.service_ns);
            } else {
                shed += 1;
            }
            if let Some(answered) = &answered {
                let _ = answered.send(());
            }
        } else if body.contains("\"schema\":\"pixel.serve.stats\"") {
            stats = Some(body);
            break;
        }
    }
    (served, shed, breakdown, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::BatchPolicy;
    use crate::daemon::{self, DaemonConfig, ServiceMode};
    use crate::queue::ShedPolicy;
    use crate::sim::ServeConfig;
    use pixel_core::config::{AcceleratorConfig, Design};
    use pixel_core::model::EvalContext;
    use pixel_units::Time;
    use std::net::TcpListener;

    #[test]
    fn multi_connection_load_is_fully_accounted() {
        let workload = Workload::paper_mix();
        let ctx = EvalContext::new();
        let mut serve = ServeConfig::new(AcceleratorConfig::new(Design::Oo, 4, 16), 60.0, 30, 11);
        serve.policy = BatchPolicy::Dynamic {
            max_size: 4,
            deadline: Time::ZERO,
        };
        serve.queue_capacity = 64;
        serve.shed = ShedPolicy::DropNewest;
        let config = DaemonConfig {
            serve,
            time_scale: 1e-3,
            mode: ServiceMode::Analytic,
            event_capacity: 256,
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| daemon::run(listener, &workload, &ctx, &config).unwrap());
            let report = run(
                addr,
                &workload,
                &LoadgenConfig {
                    rate_hz: 200.0,
                    requests: 30,
                    seed: 11,
                    connections: 3,
                },
            )
            .unwrap();
            // Closed loop across all three connections: every request
            // is accounted served or shed, and the drain connection got
            // the daemon's stats frame.
            assert_eq!(report.sent, 30);
            assert_eq!(report.served + report.shed, report.sent);
            assert_eq!(report.breakdown.count(), report.served);
            assert!(report.stats.is_some(), "stats frame reached conn 0");
            let (daemon_report, _) = daemon.join().unwrap();
            assert_eq!(daemon_report.arrivals, 30);
            assert_eq!(
                daemon_report.completed + daemon_report.dropped,
                daemon_report.arrivals
            );
        });
    }

    #[test]
    fn connection_plans_split_requests_and_rate_evenly() {
        // The split logic is pure arithmetic — mirror it here to pin
        // the contract: counts differ by at most one and sum exactly.
        let (requests, connections) = (31usize, 4usize);
        let counts: Vec<usize> = (0..connections)
            .map(|i| requests / connections + usize::from(i < requests % connections))
            .collect();
        assert_eq!(counts.iter().sum::<usize>(), requests);
        assert_eq!(counts, vec![8, 8, 8, 7]);
    }
}
