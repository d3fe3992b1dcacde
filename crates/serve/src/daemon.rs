//! `pixel-served`: the live serving daemon.
//!
//! The daemon drives the *same* [`ServeMachine`] the discrete-event
//! simulator drives — identical admission, shedding, batching, window,
//! and flight-recorder code — but feeds it instants from a
//! [`MonotonicClock`] instead of virtual event times, and services
//! dispatched batches for real:
//!
//! * **analytic** mode asks the [`ServiceModel`] for the batch's
//!   modeled service time and *sleeps* it (scaled by
//!   [`DaemonConfig::time_scale`], so oracle runs compress hours of
//!   modeled serving into seconds of wall time);
//! * **functional** mode pushes one bit-true convolution per request
//!   through the photonic [`FunctionalFabric`], the whole batch in one
//!   call, so the serving path demonstrably carries real
//!   optical-transport compute.
//!
//! Transport is the length-prefixed flat-JSON protocol of [`crate::wire`]
//! on a loopback TCP socket. Each connection gets a reader thread that
//! stamps arrivals with the monotonic clock **at socket-read time** (so
//! queue-wait measurements include time spent waiting for the engine),
//! then forwards them to the single engine thread that owns the
//! machine. A `drain` control frame ends intake: the engine flushes the
//! queue, answers every live connection with a `pixel.serve.stats`
//! frame (so multi-connection load generators can close each reader
//! deterministically), and returns the same `(ServeReport, FlightData)`
//! pair the simulator produces — which is what the oracle compares.

use crate::arrivals::{Request, Workload};
use crate::batching::Decision;
use crate::clock::{Clock, MonotonicClock};
use crate::flightrec::FlightData;
use crate::machine::{Admission, FinishMeta, ServeMachine};
use crate::report::ServeReport;
use crate::service::ServiceModel;
use crate::sim::ServeConfig;
use crate::wire::{self, ClientFrame, WireRequest, WireResponse};
use pixel_core::functional_fabric::FunctionalFabric;
use pixel_core::model::EvalContext;
use pixel_core::sweep::default_jobs;
use pixel_dnn::inference::LayerWeights;
use pixel_dnn::layer::{Layer, Shape};
use pixel_dnn::tensor::Tensor;
use pixel_units::rng::SplitMix64;
use pixel_units::{Time, VirtInstant};
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// How a dispatched batch is actually serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceMode {
    /// Sleep the modeled batch latency (× `time_scale`).
    Analytic,
    /// Run a fixed bit-true convolution through the photonic fabric for
    /// every request of the batch, as one `conv2d_batch` call; the
    /// measured span is real compute time.
    Functional,
}

/// Parameters of one daemon run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaemonConfig {
    /// The serving setup (accelerator, policy, queue, expected rate —
    /// the rate sizes the window grid and is reported as offered load).
    pub serve: ServeConfig,
    /// Analytic mode sleeps `modeled latency × time_scale`: values < 1
    /// compress modeled time so oracle runs finish quickly.
    pub time_scale: f64,
    /// Batch service backend.
    pub mode: ServiceMode,
    /// Flight-recorder ring depth.
    pub event_capacity: usize,
}

/// Engine mailbox traffic from the per-connection reader threads.
enum EngineMsg {
    Arrive {
        wire: WireRequest,
        arrival: VirtInstant,
        conn: usize,
    },
    Drain,
}

/// Shared per-connection writer handles, keyed by connection id.
type Writers = Arc<Mutex<BTreeMap<usize, TcpStream>>>;

/// The bit-true workload functional mode runs per request: a small
/// 8×8×4 convolution (64 MACs/window × 36 windows) — big enough to
/// exercise serialize → mux → demux → detect, small enough to serve
/// interactively.
fn functional_case(fabric_seed: u64) -> (Layer, Tensor, LayerWeights) {
    let mut rng = SplitMix64::seed_from_u64(fabric_seed);
    let layer = Layer::conv("ServeConv", Shape::square(8, 4), 4, 3, 1);
    let input = Tensor::from_fn(Shape::square(8, 4), |_, _, _| rng.range_u64(0, 15));
    let weights = LayerWeights::generate(&layer, || rng.range_u64(0, 15));
    (layer, input, weights)
}

/// Runs the daemon on an already-bound listener until a client sends
/// `drain` and the queue flushes, then returns the run's report and
/// flight data (the daemon-side halves of the oracle contract).
///
/// # Errors
///
/// Propagates listener configuration errors; per-connection I/O errors
/// are contained (a dead client's responses are dropped).
///
/// # Panics
///
/// Panics if interior locks are poisoned (a panicked reader thread).
pub fn run(
    listener: TcpListener,
    workload: &Workload,
    ctx: &EvalContext,
    config: &DaemonConfig,
) -> std::io::Result<(ServeReport, FlightData)> {
    let _span = pixel_obs::span("serve/daemon");
    let clock = MonotonicClock::start();
    let model = ServiceModel::new(ctx, workload, &config.serve.accel);
    // Functional mode's fabric and fixed workload, built only when used.
    let functional = (config.mode == ServiceMode::Functional).then(|| {
        (
            FunctionalFabric::new(config.serve.accel),
            functional_case(config.serve.seed),
        )
    });
    let mut machine =
        ServeMachine::new(&config.serve.machine_config(workload, config.event_capacity));

    let (tx, rx) = mpsc::channel::<EngineMsg>();
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Writers = Arc::new(Mutex::new(BTreeMap::new()));
    listener.set_nonblocking(true)?;
    let acceptor = {
        let stop = Arc::clone(&stop);
        let writers = Arc::clone(&writers);
        let tx = tx.clone();
        std::thread::spawn(move || accept_loop(&listener, &stop, &writers, &tx, clock))
    };
    drop(tx);

    let tenants = workload.tenants().len();
    let networks = workload.networks().len();
    let mut pending: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
    let mut arrival_seq: u64 = 0;
    let mut draining = false;

    let mut handle = |msg: EngineMsg,
                      machine: &mut ServeMachine,
                      pending: &mut BTreeMap<u64, (usize, u64)>,
                      draining: &mut bool| {
        match msg {
            EngineMsg::Arrive {
                wire,
                arrival,
                conn,
            } => {
                if wire.tenant >= tenants || wire.network >= networks {
                    pixel_obs::add("serve.daemon.malformed", 1);
                    return;
                }
                let request = Request {
                    id: arrival_seq,
                    tenant: wire.tenant,
                    network: wire.network,
                    arrival,
                };
                arrival_seq += 1;
                match machine.admit(request) {
                    Admission::Admitted => {
                        pending.insert(request.id, (conn, wire.id));
                    }
                    Admission::ShedArrival => {
                        respond(
                            &writers,
                            conn,
                            &WireResponse {
                                id: wire.id,
                                batch: 0,
                                served: false,
                                wait_ns: 0,
                                service_ns: 0,
                            },
                        );
                    }
                    Admission::ShedOldest { victim } => {
                        pending.insert(request.id, (conn, wire.id));
                        if let Some((victim_conn, victim_id)) = pending.remove(&victim.id) {
                            respond(
                                &writers,
                                victim_conn,
                                &WireResponse {
                                    id: victim_id,
                                    batch: 0,
                                    served: false,
                                    wait_ns: 0,
                                    service_ns: 0,
                                },
                            );
                        }
                    }
                }
            }
            EngineMsg::Drain => *draining = true,
        }
    };

    let service_batch = |machine: &mut ServeMachine, pending: &mut BTreeMap<u64, (usize, u64)>| {
        let started = machine.now();
        let dispatch = machine.dispatch_open();
        let (latency, energy) = model.batch(dispatch.network, dispatch.size);
        match &functional {
            None => clock.sleep(latency * config.time_scale),
            Some((fabric, (layer, input, weights))) => {
                let inputs = vec![input.clone(); dispatch.size];
                let _ = fabric
                    .conv2d_batch(layer, &inputs, weights, default_jobs())
                    // lint:allow(P002) the case is shape-checked by construction
                    .expect("serve conv");
            }
        }
        let done = clock.now();
        let batch = machine.complete_measured(done, energy);
        let wait_base = started;
        for request in &batch {
            if let Some((conn, client_id)) = pending.remove(&request.id) {
                respond(
                    &writers,
                    conn,
                    &WireResponse {
                        id: client_id,
                        batch: dispatch.batch,
                        served: true,
                        wait_ns: wait_base.saturating_since(request.arrival).round_nanos(),
                        service_ns: done.saturating_since(wait_base).round_nanos(),
                    },
                );
            }
        }
    };

    loop {
        // Pump everything already in the mailbox before deciding.
        loop {
            match rx.try_recv() {
                Ok(msg) => handle(msg, &mut machine, &mut pending, &mut draining),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    draining = true;
                    break;
                }
            }
        }
        machine.advance_to(clock.now());
        match machine.decide() {
            Decision::Dispatch => service_batch(&mut machine, &mut pending),
            Decision::HoldUntil(expiry) => {
                let wait = expiry.saturating_since(clock.now());
                if wait <= Time::ZERO {
                    machine.advance_to(expiry.max(clock.now()));
                    service_batch(&mut machine, &mut pending);
                } else {
                    match rx.recv_timeout(Duration::from_secs_f64(wait.value())) {
                        Ok(msg) => {
                            handle(msg, &mut machine, &mut pending, &mut draining);
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            machine.advance_to(clock.now());
                            service_batch(&mut machine, &mut pending);
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => draining = true,
                    }
                }
            }
            Decision::Hold => {
                if machine.queue_is_empty() {
                    if draining {
                        break;
                    }
                    match rx.recv_timeout(Duration::from_millis(20)) {
                        Ok(msg) => {
                            handle(msg, &mut machine, &mut pending, &mut draining);
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                        Err(mpsc::RecvTimeoutError::Disconnected) => draining = true,
                    }
                } else if draining {
                    // Intake over: flush remaining (possibly partial)
                    // batches so every admitted request completes.
                    service_batch(&mut machine, &mut pending);
                } else {
                    match rx.recv_timeout(Duration::from_millis(20)) {
                        Ok(msg) => {
                            handle(msg, &mut machine, &mut pending, &mut draining);
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                        Err(mpsc::RecvTimeoutError::Disconnected) => draining = true,
                    }
                }
            }
        }
    }

    let (report, data) = machine.finish(
        &FinishMeta {
            accel: config.serve.accel,
            offered_hz: config.serve.rate_hz,
            static_power: model.static_power(),
            arrivals: arrival_seq,
        },
        workload,
    );
    // Answer *every* live connection with the final stats frame: the
    // per-connection byte stream puts it after that connection's last
    // response, so a multi-connection load generator can close each
    // reader deterministically without racing an EOF.
    let conns: Vec<usize> = {
        // lint:allow(P002) a poisoned registry means a reader already panicked
        let registry = writers.lock().expect("writer registry");
        registry.keys().copied().collect()
    };
    for conn in conns {
        respond_raw(&writers, conn, &stats_json(&report));
    }
    stop.store(true, Ordering::Release);
    let _ = acceptor.join();
    Ok((report, data))
}

/// Polls for connections until `stop`: each accepted stream is set to
/// `TCP_NODELAY`, registered in `writers` and gets a reader thread
/// stamping arrivals with `clock` at socket-read time.
fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    writers: &Writers,
    tx: &mpsc::Sender<EngineMsg>,
    clock: MonotonicClock,
) {
    let mut next_conn: usize = 0;
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                pixel_obs::add("serve.daemon.connections", 1);
                // Responses are small frames written as they complete:
                // Nagle's algorithm would hold each one back until the
                // client's delayed ACK of the previous one.
                let _ = stream.set_nodelay(true);
                let conn = next_conn;
                next_conn += 1;
                if let Ok(writer) = stream.try_clone() {
                    // lint:allow(P002) a poisoned registry means a reader already panicked
                    let mut registry = writers.lock().expect("writer registry");
                    registry.insert(conn, writer);
                }
                let tx = tx.clone();
                std::thread::spawn(move || reader_loop(stream, conn, &tx, clock));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Reads frames off one connection until EOF or a parse-fatal error,
/// forwarding requests (stamped at read time) and drain controls to the
/// engine.
fn reader_loop(
    mut stream: TcpStream,
    conn: usize,
    tx: &mpsc::Sender<EngineMsg>,
    clock: MonotonicClock,
) {
    while let Ok(Some(body)) = wire::read_frame(&mut stream) {
        pixel_obs::add("serve.daemon.frames", 1);
        let arrival = clock.now();
        match wire::parse_client_frame(&body) {
            Some(ClientFrame::Request(wire)) => {
                if tx
                    .send(EngineMsg::Arrive {
                        wire,
                        arrival,
                        conn,
                    })
                    .is_err()
                {
                    break;
                }
            }
            Some(ClientFrame::Drain) => {
                let _ = tx.send(EngineMsg::Drain);
            }
            None => pixel_obs::add("serve.daemon.malformed", 1),
        }
    }
}

/// Writes one response frame to a connection, dropping it silently if
/// the client is gone.
fn respond(writers: &Writers, conn: usize, response: &WireResponse) {
    respond_raw(writers, conn, &response.to_json());
}

fn respond_raw(writers: &Writers, conn: usize, body: &str) {
    // lint:allow(P002) a poisoned registry means a reader already panicked
    let mut writers = writers.lock().expect("writer registry");
    if let Some(stream) = writers.get_mut(&conn) {
        if wire::write_frame(stream, body).is_err() {
            writers.remove(&conn);
        }
    }
}

/// The end-of-run summary frame the draining client receives (also
/// the first line of [`live_metrics_jsonl`]).
#[must_use]
pub fn stats_json(report: &ServeReport) -> String {
    format!(
        "{{\"schema\":\"pixel.serve.stats\",\"arrivals\":{},\"completed\":{},\"dropped\":{},\"makespan_ns\":{},\"wait_p50_ns\":{},\"service_p50_ns\":{},\"sojourn_p50_ns\":{},\"mean_batch\":{}}}",
        report.arrivals,
        report.completed,
        report.dropped,
        report.makespan.round_nanos(),
        report.queue_wait.p50.round_nanos(),
        report.service.p50.round_nanos(),
        report.latency.p50.round_nanos(),
        report.mean_batch
    )
}

/// The live run as schema-tagged JSONL the `checkjsonl` tool (and any
/// `pixel-obs` consumer) validates: one `pixel.serve.stats` line plus
/// the windowed series tagged `"mode":"live"`.
#[must_use]
pub fn live_metrics_jsonl(report: &ServeReport) -> String {
    let mut s = stats_json(report);
    s.push('\n');
    s.push_str(&report.windows.to_jsonl("\"mode\":\"live\","));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::BatchPolicy;
    use crate::queue::ShedPolicy;
    use pixel_core::config::{AcceleratorConfig, Design};

    fn daemon_config() -> DaemonConfig {
        let mut serve = ServeConfig::new(AcceleratorConfig::new(Design::Oo, 4, 16), 50.0, 16, 7);
        serve.policy = BatchPolicy::Dynamic {
            max_size: 4,
            deadline: Time::ZERO,
        };
        serve.queue_capacity = 64;
        serve.shed = ShedPolicy::DropNewest;
        DaemonConfig {
            serve,
            time_scale: 1e-3,
            mode: ServiceMode::Analytic,
            event_capacity: 256,
        }
    }

    #[test]
    fn daemon_serves_a_burst_and_reports_it() {
        let workload = Workload::paper_mix();
        let ctx = EvalContext::new();
        let config = daemon_config();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| run(listener, &workload, &ctx, &config).unwrap());
            let mut stream = TcpStream::connect(addr).unwrap();
            for id in 0..8u64 {
                let request = WireRequest {
                    id,
                    tenant: (id % 3) as usize,
                    network: (id % 6) as usize,
                };
                wire::write_frame(&mut stream, &request.to_json()).unwrap();
            }
            wire::write_frame(&mut stream, &wire::drain_frame()).unwrap();
            let mut served = 0u64;
            let mut stats_seen = false;
            while let Some(body) = wire::read_frame(&mut stream).unwrap() {
                if let Some(response) = wire::parse_response(&body) {
                    assert!(response.served, "nothing sheds at depth 64");
                    served += 1;
                } else {
                    let fields = pixel_obs::parse_flat_object(&body).unwrap();
                    assert_eq!(
                        fields
                            .iter()
                            .find(|(k, _)| k == "schema")
                            .map(|(_, v)| v.as_str()),
                        Some("pixel.serve.stats")
                    );
                    stats_seen = true;
                    break;
                }
            }
            assert_eq!(served, 8);
            assert!(stats_seen, "drain answers with a stats frame");
            let (report, data) = daemon.join().unwrap();
            assert_eq!(report.arrivals, 8);
            assert_eq!(report.completed, 8);
            assert_eq!(report.dropped, 0);
            assert_eq!(data.overall.count(), 8);
            assert!(report.makespan.value() > 0.0);
        });
    }

    #[test]
    fn functional_mode_runs_bit_true_batches() {
        let workload = Workload::paper_mix();
        let ctx = EvalContext::new();
        let mut config = daemon_config();
        config.mode = ServiceMode::Functional;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| run(listener, &workload, &ctx, &config).unwrap());
            let mut stream = TcpStream::connect(addr).unwrap();
            for id in 0..2u64 {
                let request = WireRequest {
                    id,
                    tenant: 0,
                    network: 0,
                };
                wire::write_frame(&mut stream, &request.to_json()).unwrap();
            }
            wire::write_frame(&mut stream, &wire::drain_frame()).unwrap();
            let mut served = 0;
            while let Some(body) = wire::read_frame(&mut stream).unwrap() {
                if let Some(response) = wire::parse_response(&body) {
                    assert!(response.service_ns > 0, "real compute takes real time");
                    served += 1;
                } else {
                    break;
                }
            }
            assert_eq!(served, 2);
            let (report, _) = daemon.join().unwrap();
            assert_eq!(report.completed, 2);
        });
    }
}
