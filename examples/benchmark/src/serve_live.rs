//! `serve_low`, `serve_high`: a live `pixel-served` daemon on loopback
//! under open-loop Poisson load.
//!
//! The daemon runs in analytic mode with a time scale of 0, so no compute
//! layer runs and no modeled service time is slept: what is measured is
//! the serving software alone — framing, the daemon's reader thread, the
//! channel hop to its engine thread, the `ServeMachine` loop and the
//! response writes. Settings: OO with 4 lanes and 16 bits/lane, the
//! paper's tenant mix, `ServeConfig::new` defaults (dynamic batching up to
//! 8, a 256-deep drop-newest queue). One connection carries the load: this
//! thread sends on the Poisson schedule, one receiver thread reads the
//! responses. Each operation is one request, timed from its *scheduled*
//! send time to the arrival of its response, so a stalled sender charges
//! the wait to every request it delays.

use crate::trace::Tracer;
use crate::{repeat_setup, share, stats, Ctx, Outcome, Samples};
use pixel_core::config::{AcceleratorConfig, Design};
use pixel_core::model::EvalContext;
use pixel_serve::daemon::{self, DaemonConfig, ServiceMode};
use pixel_serve::wire::{self, WireRequest, WireResponse};
use pixel_serve::{FlightData, Request, RequestSource, ServeConfig, ServeReport, Workload};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Light load, requests/s: at a 4 ms mean gap, per-request transport
/// cost dominates.
pub const LOW_HZ: f64 = 250.0;

/// Heavy load, requests/s: at a 200 µs mean gap, requests queue and batch.
pub const HIGH_HZ: f64 = 5000.0;

/// Wire id of the warm-up request each set-up sends.
const WARMUP_ID: u64 = u64::MAX;

/// How long the client waits on a silent daemon before failing.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The request schedule for `seconds` of `rate_hz` Poisson arrivals.
pub fn schedule(workload: &Workload, rate_hz: f64, seconds: f64, seed: u64) -> Vec<Request> {
    RequestSource::new(workload, rate_hz, usize::MAX, seed)
        .take_while(|r| r.arrival.as_secs() < seconds)
        .collect()
}

type DaemonRun = std::io::Result<(ServeReport, FlightData)>;

/// A started daemon with a connected, warmed-up client.
struct Live {
    schedule: Vec<Request>,
    stream: TcpStream,
    daemon: JoinHandle<DaemonRun>,
}

/// Writes one frame with a single `write` call.
fn send_frame(stream: &mut TcpStream, buf: &mut Vec<u8>, body: &str) -> std::io::Result<()> {
    buf.clear();
    wire::write_frame(buf, body)?;
    stream.write_all(buf)
}

fn start(rate_hz: f64, seconds: f64, seed: u64) -> Result<Live, String> {
    let workload = Workload::paper_mix();
    let schedule = schedule(&workload, rate_hz, seconds, seed);
    let accel = AcceleratorConfig::new(Design::Oo, 4, 16);
    let config = DaemonConfig {
        serve: ServeConfig::new(accel, rate_hz, schedule.len() + 1, seed),
        time_scale: 0.0,
        mode: ServiceMode::Analytic,
        event_capacity: 0,
    };
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let daemon =
        std::thread::spawn(move || daemon::run(listener, &workload, &EvalContext::new(), &config));
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("read timeout: {e}"))?;
    // One request answered end to end shows the daemon is serving.
    let warmup = WireRequest {
        id: WARMUP_ID,
        tenant: 0,
        network: 0,
    };
    send_frame(&mut stream, &mut Vec::new(), &warmup.to_json())
        .map_err(|e| format!("send: {e}"))?;
    match wire::read_frame(&mut stream) {
        Ok(Some(body)) if wire::parse_response(&body).is_some_and(|r| r.id == WARMUP_ID) => {}
        other => return Err(format!("warm-up got {other:?}")),
    }
    Ok(Live {
        schedule,
        stream,
        daemon,
    })
}

/// Waits for the daemon to finish its run.
fn join(daemon: JoinHandle<DaemonRun>, out: &mut Outcome) -> Option<ServeReport> {
    match daemon.join().expect("the daemon thread does not panic") {
        Ok((report, _)) => Some(report),
        Err(e) => {
            out.error(format!("daemon: {e}"));
            None
        }
    }
}

/// Whether a frame body is the daemon's end-of-run summary.
fn is_stats(body: &str) -> bool {
    body.contains("\"schema\":\"pixel.serve.stats\"")
}

/// Drains a set-up that is not used: sends drain, reads up to the stats
/// frame and waits for the daemon.
fn stop(mut live: Live) {
    if send_frame(&mut live.stream, &mut Vec::new(), &wire::drain_frame()).is_ok() {
        while let Ok(Some(body)) = wire::read_frame(&mut live.stream) {
            if is_stats(&body) {
                break;
            }
        }
    }
    let _ = join(live.daemon, &mut Outcome::default());
}

/// One response as the receiver thread saw it.
#[derive(Debug, Clone, Copy)]
struct Received {
    at: Instant,
    response: WireResponse,
}

/// Reads responses for ids `0..n` until the stats frame or an error.
fn receive(
    mut stream: TcpStream,
    n: usize,
    ctx: &Ctx,
) -> (Vec<Option<Received>>, Option<String>, Vec<String>) {
    let mut got: Vec<Option<Received>> = vec![None; n];
    let mut errors = Vec::new();
    let stats = loop {
        let body = match wire::read_frame(&mut stream) {
            Ok(Some(body)) => body,
            Ok(None) => break None,
            Err(e) => {
                errors.push(format!("receive: {e}"));
                break None;
            }
        };
        let at = Instant::now();
        let Some(response) = wire::parse_response(&body) else {
            if is_stats(&body) {
                break Some(body);
            }
            errors.push(format!("unexpected frame {body}"));
            continue;
        };
        let slot = usize::try_from(response.id).ok().filter(|&i| i < n);
        match slot.map(|i| (i, got[i].is_some())) {
            Some((i, false)) => {
                let tracer = ctx.tracer_for(i);
                let start = tracer.ns_at(at);
                tracer.record("wire.decode", 0, start, tracer.now_ns(), Some(response.id));
                got[i] = Some(Received { at, response });
            }
            Some((_, true)) => errors.push(format!("request {} answered twice", response.id)),
            None => errors.push(format!("response for unknown request {}", response.id)),
        }
    };
    (got, stats, errors)
}

/// A field of a flat JSON object, parsed as a number.
fn field(body: &str, key: &str) -> Option<f64> {
    pixel_obs::parse_flat_object(body)?
        .into_iter()
        .find(|(k, _)| k == key)?
        .1
        .parse()
        .ok()
}

/// Runs the workload at `rate_hz` mean arrivals per second.
pub fn run(ctx: &Ctx, rate_hz: f64) -> Outcome {
    let mut out = Outcome::default();
    let (live, setup_s) = repeat_setup(
        || start(rate_hz, ctx.seconds, ctx.seed),
        |made| {
            if let Ok(live) = made {
                stop(live);
            }
        },
    );
    let mut live = match live {
        Ok(live) => live,
        Err(message) => {
            out.error(format!("set-up: {message}"));
            return out;
        }
    };
    let n = live.schedule.len();
    let reader = live.stream.try_clone().expect("a connected socket clones");

    let mut send_start = vec![None; n];
    let t0 = Instant::now();
    let (got, stats, receive_errors) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(reader, n, ctx));
        let mut buf = Vec::new();
        for (i, request) in live.schedule.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(request.arrival.as_secs());
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let tracer = ctx.tracer_for(i);
            let started = Instant::now();
            let body = WireRequest {
                id: i as u64,
                tenant: request.tenant,
                network: request.network,
            }
            .to_json();
            let encoded = tracer.now_ns();
            if let Err(e) = send_frame(&mut live.stream, &mut buf, &body) {
                out.error(format!("send {i}: {e}"));
                break;
            }
            let id = Some(i as u64);
            tracer.record("wire.encode", 0, tracer.ns_at(started), encoded, id);
            tracer.record("net.write", 0, encoded, tracer.now_ns(), id);
            send_start[i] = Some(started);
        }
        if let Err(e) = send_frame(&mut live.stream, &mut buf, &wire::drain_frame()) {
            out.error(format!("send drain: {e}"));
        }
        receiver.join().expect("the receiver thread does not panic")
    });
    for error in receive_errors {
        out.error(error);
    }
    let report = join(live.daemon, &mut out);

    let sent = send_start.iter().filter(|s| s.is_some()).count();
    let mut samples = Samples::default();
    let (mut served, mut shed) = (0u64, 0u64);
    let mut parts: [Vec<u64>; 4] = Default::default();
    let mut rtt_total = 0u64;
    for (i, request) in live.schedule.iter().enumerate() {
        let (Some(started), Some(received)) = (send_start[i], got[i]) else {
            continue;
        };
        if !received.response.served {
            shed += 1;
            continue;
        }
        served += 1;
        let due = t0 + Duration::from_secs_f64(request.arrival.as_secs());
        let tracer = ctx.tracer_for(i);
        let id = Some(i as u64);
        tracer.record(
            "serve.request",
            0,
            tracer.ns_at(due),
            tracer.ns_at(received.at),
            id,
        );
        let rtt = ns(received.at.saturating_duration_since(due));
        let late = ns(started.saturating_duration_since(due));
        let (wait, service) = (received.response.wait_ns, received.response.service_ns);
        let transit = rtt.saturating_sub(late + wait + service);
        for (part, value) in parts.iter_mut().zip([transit, wait, service, late]) {
            part.push(value);
        }
        rtt_total += rtt;
        #[allow(clippy::cast_precision_loss)]
        samples.push(tracer.enabled(), rtt as f64 / 1e6);
    }

    let unanswered = sent as u64 - served - shed;
    out.attempted = sent as u64;
    out.failed = shed + unanswered;
    if unanswered > 0 {
        out.error(format!("{unanswered} of {sent} requests got no response"));
    }
    let arrivals = sent as u64 + 1;
    match stats.as_deref().and_then(|s| field(s, "arrivals")) {
        #[allow(clippy::cast_precision_loss)]
        Some(a) if a == arrivals as f64 => {}
        other => out.error(format!(
            "stats frame reports {other:?} arrivals, want {arrivals}"
        )),
    }
    if let Some(report) = &report {
        if report.arrivals != arrivals || report.completed + report.dropped != arrivals {
            out.error(format!(
                "daemon accounted {} arrivals = {} completed + {} dropped, want {arrivals}",
                report.arrivals, report.completed, report.dropped
            ));
        }
    }

    samples.report(&mut out);
    out.metric("setup_s", setup_s, "s");
    for (name, values) in PARTS.iter().zip(&parts) {
        out.metric(
            format!("{name}.share"),
            share(values.iter().sum(), rtt_total),
            "%",
        );
        #[allow(clippy::cast_precision_loss)]
        let us = stats::sorted(values.iter().map(|&v| v as f64 / 1e3).collect());
        out.metric(format!("{name}_us.p50"), stats::percentile(&us, 0.5), "us");
        out.metric(format!("{name}_us.p99"), stats::percentile(&us, 0.99), "us");
        if *name == "loadgen.late" {
            out.metric("loadgen.late_us.max", stats::percentile(&us, 1.0), "us");
        }
    }
    #[allow(clippy::cast_precision_loss)]
    for (name, count) in [
        ("serve.sent", sent as u64),
        ("serve.served", served),
        ("serve.shed", shed),
        ("serve.unanswered", unanswered),
    ] {
        out.metric(name, count as f64, "count");
    }
    if let Some(mean_batch) = stats.as_deref().and_then(|s| field(s, "mean_batch")) {
        out.metric("serve.mean_batch", mean_batch, "count");
    }
    if ctx.tracer.enabled() {
        wire_metrics(&ctx.tracer, &mut out);
    }
    out
}

/// Client-side components of each request's round trip, in the order
/// `run` splits them: transit is what remains of the round trip after the
/// sender's lateness and the daemon-reported queue wait and service time.
const PARTS: [&str; 4] = [
    "serve.transit",
    "serve.daemon_wait",
    "serve.daemon_service",
    "loadgen.late",
];

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Median encode and decode times of the traced requests.
fn wire_metrics(tracer: &Tracer, out: &mut Outcome) {
    let spans = tracer.spans();
    for (span, name) in [
        ("wire.encode", "serve.wire.encode_ns.p50"),
        ("wire.decode", "serve.wire.decode_ns.p50"),
    ] {
        #[allow(clippy::cast_precision_loss)]
        let ns: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        out.metric(name, stats::median(&ns), "ns");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_seeded() {
        let workload = Workload::paper_mix();
        let key = |s: &[Request]| -> Vec<(u64, usize, usize)> {
            s.iter()
                .map(|r| (r.arrival.as_secs().to_bits(), r.tenant, r.network))
                .collect()
        };
        let a = schedule(&workload, LOW_HZ, 2.0, 3);
        assert_eq!(key(&a), key(&schedule(&workload, LOW_HZ, 2.0, 3)));
        assert_ne!(key(&a), key(&schedule(&workload, LOW_HZ, 2.0, 4)));
        assert!(a.iter().all(|r| r.arrival.as_secs() < 2.0));
        assert!((400..600).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn frames_go_out_in_one_write() {
        let mut buf = Vec::new();
        wire::write_frame(&mut buf, "{\"a\":1}").unwrap();
        assert_eq!(&buf[..4], &7u32.to_be_bytes());
        assert_eq!(&buf[4..], b"{\"a\":1}");
    }
}
