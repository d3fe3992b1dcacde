//! The repository benchmark: end-to-end and per-layer performance of the
//! PIXEL reproduction on seven workloads.
//!
//! ```text
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] \
//!     [--out FILE] [--spans FILE]
//! ```
//!
//! Every workload makes its inputs from `--seed`, sets up [`SETUP_REPS`]
//! times (reporting the median as `setup_s`), then repeats fixed units of
//! work ("operations") for `--seconds` and checks every output. It prints
//! one `metric <workload> <name> <value> <unit>` line per measurement and,
//! last, one JSON object: with `--trace 0` it holds the end-to-end metrics
//! ([`END_TO_END`]), with `--trace 1` the per-layer metrics ([`PER_LAYER`])
//! taken from spans around the benchmark's calls into each layer. See
//! README.md for what each workload and metric is for.

mod fabric;
mod paper_sim;
mod reference;
mod serve_live;
mod stats;
mod trace;

use pixel_core::omac::PLANE_WINDOWS;
use pixel_dnn::inference::LayerWeights;
use pixel_dnn::layer::{Layer, LayerKind};
use pixel_dnn::quant::Precision;
use pixel_dnn::tensor::Tensor;
use pixel_dnn::zoo;
use pixel_units::rng::SplitMix64;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Operand precision of every compute workload, bits.
pub const BITS: u32 = 4;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Worker threads any one call may use (fabric convolutions and sweeps).
/// One: on a shared two-core host, the median of two-thread fabric
/// operations varied 7–15% from run to run against 3–4% single-threaded,
/// because a neighbour stalling either core stalls the pair.
pub const JOBS: usize = 1;

/// Operations timed at least, however long they take.
const MIN_OPS: usize = 5;

/// Workload names, in run order for `--workload all`.
pub const WORKLOADS: [&str; 7] = [
    "reference",
    "fabric_ee",
    "fabric_oe",
    "fabric_oo",
    "serve_low",
    "serve_high",
    "paper_sim",
];

/// End-to-end metrics every workload reports: name and unit.
pub const END_TO_END: [(&str, &str); 2] = [("p50_ms", "ms"), ("setup_s", "s")];

/// Per-layer metrics every traced run reports: name and unit. A layer a
/// workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("dnn.inference.conv.share", "%"),
    ("dnn.inference.conv.mmac_per_s", "MMAC/s"),
    ("dnn.inference.fc.share", "%"),
    ("dnn.inference.fc.mmac_per_s", "MMAC/s"),
    ("dnn.inference.pool.share", "%"),
    ("dnn.quant.requantize.share", "%"),
    ("functional_fabric.conv.share", "%"),
    ("functional_fabric.conv.mmac_per_s", "MMAC/s"),
    ("functional_fabric.sample_conv.share", "%"),
    ("functional_fabric.sample_conv.mmac_per_s", "MMAC/s"),
    ("functional_fabric.sample.Conv2_1_1.mmac_per_s", "MMAC/s"),
    ("functional_fabric.sample.Inc3b_3x3.mmac_per_s", "MMAC/s"),
    ("functional_fabric.sample.Inc4e_3x3.mmac_per_s", "MMAC/s"),
    ("omac.fc.share", "%"),
    ("omac.fc.mmac_per_s", "MMAC/s"),
    ("serve.transit.share", "%"),
    ("serve.daemon_wait.share", "%"),
    ("serve.daemon_service.share", "%"),
    ("loadgen.late.share", "%"),
    ("serve.mean_batch", "count"),
    ("serve.shed", "count"),
    ("bench.artifact.table1.share", "%"),
    ("bench.artifact.fig4.share", "%"),
    ("bench.artifact.fig5.share", "%"),
    ("bench.artifact.fig6.share", "%"),
    ("bench.artifact.fig7.share", "%"),
    ("bench.artifact.fig8.share", "%"),
    ("bench.artifact.fig9.share", "%"),
    ("bench.artifact.fig10.share", "%"),
    ("bench.artifact.table2.share", "%"),
    ("bench.artifact.serve.share", "%"),
    ("bench.artifact.flightrec.share", "%"),
    ("bench.artifact.fleet.share", "%"),
    ("serve.sim.share", "%"),
    ("serve.sim.mreq_per_s", "Mreq/s"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every measurement, in report order.
    pub metrics: Vec<Metric>,
    /// Operations timed.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Correctness failures; the run is correct when this is empty.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Adds a measurement.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a correctness failure.
    pub fn error(&mut self, message: impl Into<String>) {
        self.errors.push(message.into());
    }

    fn value(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Settings shared by every workload run.
#[derive(Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement time, s.
    pub seconds: f64,
    /// Span recorder (disabled unless `--trace 1`).
    pub tracer: Tracer,
    off: Tracer,
}

impl Ctx {
    /// A run context.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            seed,
            seconds,
            tracer: Tracer::new(trace),
            off: Tracer::new(false),
        }
    }

    /// The tracer operation `op` runs under: traced runs trace every
    /// other operation, so the untraced ones measure tracing overhead.
    pub fn tracer_for(&self, op: usize) -> &Tracer {
        if self.tracer.enabled() && op.is_multiple_of(2) {
            &self.tracer
        } else {
            &self.off
        }
    }

    /// A disabled tracer, for untimed work.
    pub fn untraced(&self) -> &Tracer {
        &self.off
    }
}

/// Operation times, ms, split by whether the operation was traced.
#[derive(Debug, Default)]
pub struct Samples {
    /// Untraced operations: the end-to-end measurement.
    pub untraced: Vec<f64>,
    /// Traced operations.
    pub traced: Vec<f64>,
}

impl Samples {
    /// Adds one operation time.
    pub fn push(&mut self, traced: bool, ms: f64) {
        if traced {
            self.traced.push(ms);
        } else {
            self.untraced.push(ms);
        }
    }

    /// Reports the median (`p50_ms`), p90 and the highest percentile with
    /// ten samples beyond it of the untraced operations, and in traced
    /// runs the tracing overhead. Only the median is an end-to-end metric:
    /// a pass workload's tail moves with bursts of load from other tenants
    /// of the host more than with the code.
    pub fn report(&self, out: &mut Outcome) {
        let untraced = stats::sorted(self.untraced.clone());
        out.metric("p50_ms", stats::percentile(&untraced, 0.5), "ms");
        out.metric("p90_ms", stats::percentile(&untraced, 0.9), "ms");
        #[allow(clippy::cast_precision_loss)]
        out.metric("samples", untraced.len() as f64, "count");
        if let Some(q) = stats::tail_quantile(untraced.len()) {
            out.metric("tail_percentile", q * 100.0, "%");
            out.metric("tail_ms", stats::percentile(&untraced, q), "ms");
        }
        if !self.traced.is_empty() {
            let base = stats::median(&self.untraced);
            let traced = stats::median(&self.traced);
            out.metric("traced_p50_ms", traced, "ms");
            out.metric("trace_overhead_pct", 100.0 * (traced - base) / base, "%");
        }
    }
}

/// Runs `make` [`SETUP_REPS`] times, passing all but the last result to
/// `discard` (untimed), and returns the last with the median set-up time.
pub fn repeat_setup<T>(mut make: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let made = make();
        times.push(start.elapsed().as_secs_f64());
        if let Some(previous) = kept.replace(made) {
            discard(previous);
        }
    }
    (kept.expect("SETUP_REPS is positive"), stats::median(&times))
}

/// Runs one untimed warm-up operation, then operations until `--seconds`
/// have passed (at least [`MIN_OPS`]). `op` gets the tracer to use and
/// returns its own time in ms (checks excluded) or a failure message.
pub fn run_ops(
    ctx: &Ctx,
    out: &mut Outcome,
    mut op: impl FnMut(&Tracer) -> Result<f64, String>,
) -> Samples {
    if let Err(message) = op(ctx.untraced()) {
        out.error(format!("warm-up: {message}"));
    }
    let mut samples = Samples::default();
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_OPS || start.elapsed().as_secs_f64() < ctx.seconds {
        let tracer = ctx.tracer_for(i);
        out.attempted += 1;
        match op(tracer) {
            Ok(ms) => samples.push(tracer.enabled(), ms),
            Err(message) => {
                out.failed += 1;
                out.error(message);
            }
        }
        i += 1;
    }
    samples
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// `part` as a percentage of `whole` (0 when `whole` is 0).
#[allow(clippy::cast_precision_loss)]
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Millions of MACs per second for `macs` done in `ns` (0 when `ns` is 0).
#[allow(clippy::cast_precision_loss)]
pub fn mmac_per_s(macs: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        macs as f64 * 1e3 / ns as f64
    }
}

/// Reports a traced layer's self time as `<name>.share` of the traced
/// operations' wall time and, given the MACs it did, `<name>.mmac_per_s`.
pub fn report_layer(out: &mut Outcome, name: &str, self_ns: u64, ops_ns: u64, macs: Option<u64>) {
    out.metric(format!("{name}.share"), share(self_ns, ops_ns), "%");
    if let Some(macs) = macs {
        out.metric(
            format!("{name}.mmac_per_s"),
            mmac_per_s(macs, self_ns),
            "MMAC/s",
        );
    }
}

/// One layer with operands of its shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerCase {
    /// Network the layer comes from.
    pub network: &'static str,
    /// The layer.
    pub layer: Layer,
    /// Input activations.
    pub input: Tensor,
    /// Weights (`LayerWeights::None` for pools).
    pub weights: LayerWeights,
}

impl LayerCase {
    /// `layer` with input and weights drawn from `rng` at [`BITS`] bits.
    pub fn generate(network: &'static str, layer: Layer, rng: &mut SplitMix64) -> Self {
        let limit = Precision::new(BITS).max_value();
        let input = Tensor::from_fn(layer.input, |_, _, _| rng.range_u64(0, limit));
        let weights = LayerWeights::generate(&layer, || rng.range_u64(0, limit));
        Self {
            network,
            layer,
            input,
            weights,
        }
    }
}

/// The layer `name` of the zoo network `network`.
pub fn zoo_layer(network: &str, name: &str) -> Layer {
    zoo::by_name(network)
        .and_then(|net| net.layers().iter().find(|l| l.name == name).cloned())
        .unwrap_or_else(|| panic!("{network}/{name} is not a zoo layer"))
}

/// Multiply-accumulates one execution of `layer` performs (0 for pools).
pub fn macs(layer: &Layer) -> u64 {
    let e = layer.output_feature_size();
    let n = match layer.kind {
        LayerKind::Conv {
            filters, kernel, ..
        } => e * e * filters * kernel * kernel * layer.input.c,
        LayerKind::Fc { outputs } => outputs * layer.input.elements(),
        LayerKind::Pool { .. } => 0,
    };
    n as u64
}

/// Convolution windows (output positions) of one image through `layer`.
pub fn windows(layer: &Layer) -> usize {
    let e = layer.output_feature_size();
    e * e
}

/// Full bit-plane groups and the windows left over for a partial group.
pub fn plane_groups(windows: usize) -> (usize, usize) {
    (windows / PLANE_WINDOWS, windows % PLANE_WINDOWS)
}

/// Windows over the plane slots their groups occupy.
#[allow(clippy::cast_precision_loss)]
pub fn plane_occupancy(windows: usize) -> f64 {
    let slots = windows.div_ceil(PLANE_WINDOWS) * PLANE_WINDOWS;
    if slots == 0 {
        0.0
    } else {
        windows as f64 / slots as f64
    }
}

/// Whether `name` fits the metric-name grammar `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One metric as a `pixel.bench.metric` JSONL line.
pub fn metric_jsonl(workload: &str, metric: &Metric) -> String {
    format!(
        "{{\"schema\":\"pixel.bench.metric\",\"workload\":\"{}\",\"name\":\"{}\",\"value\":{},\"unit\":\"{}\"}}\n",
        pixel_obs::escape_json(workload),
        pixel_obs::escape_json(&metric.name),
        json_number(metric.value),
        pixel_obs::escape_json(metric.unit)
    )
}

/// A finite number as JSON (non-finite values cannot occur in JSON).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

/// The result line: the end-to-end or per-layer metric set, in table order.
fn result_json(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match outcome.value(name) {
            Some(m) if m.unit != unit => {
                return Err(format!(
                    "{name} measured in {} but declared in {unit}",
                    m.unit
                ))
            }
            Some(m) if !m.value.is_finite() => return Err(format!("{name} is not finite")),
            Some(m) => m.value,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        fields.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(value)
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.errors.is_empty(),
        outcome.attempted,
        outcome.failed,
        fields.join(",")
    ))
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "reference" => reference::run(ctx),
        "fabric_ee" => fabric::run(ctx, pixel_core::config::Design::Ee),
        "fabric_oe" => fabric::run(ctx, pixel_core::config::Design::Oe),
        "fabric_oo" => fabric::run(ctx, pixel_core::config::Design::Oo),
        "serve_low" => serve_live::run(ctx, serve_live::LOW_HZ),
        "serve_high" => serve_live::run(ctx, serve_live::HIGH_HZ),
        "paper_sim" => paper_sim::run(ctx),
        _ => unreachable!("workload names are validated when parsed"),
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
}

const USAGE: &str = "usage: benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--spans FILE]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 2026,
        seconds: 12.0,
        trace: false,
        out: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workloads = WORKLOADS.to_vec(),
            "--workload" => {
                let known = WORKLOADS.iter().find(|w| **w == value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of {WORKLOADS:?} or all")
                })?;
                parsed.workloads = vec![known];
            }
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not an unsigned integer"))?;
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds {value:?} is not in (0, 600]"))?;
            }
            "--trace" => {
                parsed.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                };
            }
            "--out" => parsed.out = Some(value.to_owned()),
            "--spans" => parsed.spans = Some(value.to_owned()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // A hung run (a daemon that never answers) must still end: give up
    // well past any healthy run length.
    #[allow(clippy::cast_precision_loss)]
    let limit = 60.0 + 4.0 * args.seconds * args.workloads.len() as f64;
    let (done, finished) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if let Err(mpsc::RecvTimeoutError::Timeout) =
            finished.recv_timeout(Duration::from_secs_f64(limit))
        {
            eprintln!("benchmark: no result after {limit} s; giving up");
            std::process::exit(3);
        }
    });

    let mut metric_lines = String::new();
    let mut span_lines = String::new();
    let mut correct = true;
    for &workload in &args.workloads {
        let ctx = Ctx::new(args.seed, args.seconds, args.trace);
        let mut outcome = run_workload(workload, &ctx);
        for metric in &outcome.metrics {
            if !valid_name(&metric.name) {
                outcome
                    .errors
                    .push(format!("bad metric name {:?}", metric.name));
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let counts = [
            ("ops", outcome.attempted as f64),
            ("failed", outcome.failed as f64),
        ];
        for (name, value) in counts {
            outcome.metric(name, value, "count");
        }
        for metric in &outcome.metrics {
            println!(
                "metric {workload} {} {} {}",
                metric.name,
                json_number(metric.value),
                metric.unit
            );
            metric_lines.push_str(&metric_jsonl(workload, metric));
        }
        for error in &outcome.errors {
            eprintln!("benchmark: {workload}: {error}");
        }
        if args.spans.is_some() {
            span_lines.push_str(&trace::to_jsonl(&ctx.tracer.spans(), workload));
        }
        match result_json(&outcome, args.trace) {
            Ok(line) => println!("{line}"),
            Err(message) => {
                eprintln!("benchmark: {workload}: {message}");
                correct = false;
            }
        }
        correct &= outcome.errors.is_empty();
    }

    for (path, text) in [(&args.out, &metric_lines), (&args.spans, &span_lines)] {
        if let Some(path) = path {
            if let Err(err) = std::fs::write(path, text) {
                eprintln!("benchmark: cannot write {path}: {err}");
                correct = false;
            }
        }
    }
    drop(done);
    watchdog.join().expect("the watchdog thread does not panic");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names and units declared in one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("{section} missing"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\"")).expect("key present");
            let rest = &entry[at + key.len() + 2..];
            let rest = &rest[rest.find('"').expect("string value") + 1..];
            rest[..rest.find('"').expect("string closes")].to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
        }
        for name in WORKLOADS {
            assert!(valid_name(name), "{name}");
        }
        assert!(valid_name("lenet.Conv1.ms"));
        assert!(valid_name(
            "functional_fabric.ResNet-34.Conv2_1_1.tail_windows"
        ));
        for bad in ["", "a b", "p50/ms", "x\"y", "naïve"] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn metric_and_result_lines_parse_as_flat_objects() {
        let mut outcome = Outcome::default();
        outcome.metric("p50_ms", 1.25, "ms");
        outcome.metric("p90_ms", 2.5, "ms");
        outcome.metric("setup_s", 0.003, "s");
        outcome.metric("serve.sim.mreq_per_s", 2.75, "Mreq/s");
        for metric in &outcome.metrics {
            let line = metric_jsonl("paper_sim", metric);
            let fields = pixel_obs::parse_flat_object(&line).expect("flat JSON object");
            let get = |k: &str| {
                fields
                    .iter()
                    .find(|(key, _)| key == k)
                    .map(|(_, v)| v.clone())
            };
            assert_eq!(get("schema").as_deref(), Some("pixel.bench.metric"));
            assert_eq!(get("name").as_deref(), Some(metric.name.as_str()));
            assert_eq!(get("unit").as_deref(), Some(metric.unit));
            let value: f64 = get("value").expect("value").parse().expect("number");
            assert_eq!(value, metric.value);
        }
        let e2e = result_json(&outcome, false).expect("every end-to-end metric present");
        assert!(e2e.starts_with("{\"correct\":true,\"attempted\":0,\"failed\":0,\"metrics\":{"));
        assert!(e2e.contains("\"setup_s\":{\"value\":0.003,\"unit\":\"s\"}"));
        let layers = result_json(&outcome, true).expect("absent layers read 0");
        assert!(layers.contains("\"serve.sim.mreq_per_s\":{\"value\":2.75,\"unit\":\"Mreq/s\"}"));
        assert!(layers.contains("\"omac.fc.share\":{\"value\":0,\"unit\":\"%\"}"));
        outcome.metrics.remove(0);
        assert!(result_json(&outcome, false).is_err(), "p50_ms missing");
    }

    #[test]
    fn plane_group_arithmetic() {
        let alexnet = zoo::alexnet();
        let conv2 = alexnet
            .layers()
            .iter()
            .find(|l| l.name == "Conv2")
            .expect("AlexNet has Conv2");
        assert_eq!(windows(conv2), 729);
        assert_eq!(plane_groups(729), (11, 25));
        assert!((plane_occupancy(729) - 729.0 / 768.0).abs() < 1e-12);
        assert_eq!(plane_groups(3136), (49, 0));
        assert_eq!(plane_occupancy(3136), 1.0);
        assert_eq!(plane_groups(196), (3, 4));
        assert_eq!(plane_occupancy(0), 0.0);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_owned).collect() };
        let parsed =
            parse_args(&args("--workload serve_low --seed 7 --seconds 2 --trace 1")).unwrap();
        assert_eq!(parsed.workloads, vec!["serve_low"]);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 2.0, true));
        assert_eq!(
            parse_args(&args("--workload all")).unwrap().workloads.len(),
            7
        );
        for bad in [
            "",
            "--workload nope",
            "--workload reference --trace 2",
            "--workload reference --seed -1",
            "--workload reference --seconds 0",
            "--workload reference --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
