//! The `reproduce bench` performance-regression harness.
//!
//! Times the repository's hot paths — the bit-true functional MACs, the
//! bit-plane fabric convolution against the per-window OMAC reference,
//! full quantized forwards of every paper CNN (LeNet also bit-true on
//! the fabric, FC layers included), and the serving
//! simulator's event loop — and writes true medians (plus means) to a
//! `BENCH_functional.json` artifact (schema [`SCHEMA`]).
//!
//! Three CI-facing entry points sit on top of the artifact:
//!
//! * `--compare OLD NEW` renders per-bench ops/s deltas. Slowdowns are
//!   advisory (wall time on shared runners is noisy), but malformed
//!   files, missing benches, and a `schema`/`mode` disagreement between
//!   the two reports hard-fail — a mean-statistics baseline or a quick
//!   run is never silently compared against a median full run.
//! * `--check FILE` asserts the *in-run* batched-vs-scalar fabric
//!   speedup floor ([`MIN_BATCH_SPEEDUP`]), the block-FC-vs-per-window
//!   OMAC floor ([`MIN_FC_SPEEDUP`]) and that every bench's throughput
//!   is finite and nonzero — a machine-independent gate, since both
//!   sides of each ratio come from the same run.

use crate::timing;
use pixel_core::config::{AcceleratorConfig, Design};
use pixel_core::functional_fabric::FunctionalFabric;
use pixel_core::omac::engine_for;
use pixel_dnn::inference::{
    conv2d, forward, forward_batch, fully_connected, replay_layers, DirectMac, LayerWeights,
    MacEngine, PerWindow, ShapeError,
};
use pixel_dnn::layer::{Layer, LayerKind, Shape};
use pixel_dnn::quant::Precision;
use pixel_dnn::tensor::Tensor;
use pixel_dnn::zoo;
use pixel_serve::arrivals::Workload;
use pixel_serve::sim::{simulate, ServeConfig};
use pixel_units::rng::SplitMix64;
use std::time::Duration;

/// Schema tag written into (and required from) every bench file.
/// `pixel-bench/2` reports a true median-of-reps as `median_ns` plus the
/// iteration-weighted `mean_ns`; `pixel-bench/1` mislabeled a mean as
/// `median_ns` and is rejected.
pub const SCHEMA: &str = "pixel-bench/2";

/// Images per iteration of the batched fabric benches: enough that every
/// bit-plane group of the conv case is full (1600 windows = 25 exact
/// groups of 64). The fabric LeNet batch uses it too; there LeNet's last
/// conv and both FC layers fill one partial group of 16 rows.
pub const BATCH_IMAGES: usize = 16;

/// Minimum in-run ops/s ratio of `fabric_conv_X` (batched) over
/// `fabric_conv_X_scalar` (the per-window OMAC reference) that
/// `--check` enforces per design. The committed run's ratios are 63×
/// (EE; its per-window engine is the fastest), 415× (OE) and 356× (OO),
/// and runs on the previous plane kernel read 29–34×, 91–184× and
/// 107–134×, so 6× leaves noise headroom while still catching any
/// regression to per-window execution.
pub const MIN_BATCH_SPEEDUP: f64 = 6.0;

/// Minimum in-run MAC/s ratio of `fc_lenet_X` (LeNet's FC layers on the
/// design's OMAC block path) over `functional_mac_X` (the same engine,
/// one per-window inner product at a time) that `--check` enforces per
/// design. The committed run's ratios are 17× (EE; its per-window
/// engine is the fastest), 72× (OE) and 68× (OO), and runs on the
/// previous plane kernel read 6.0–8.5×, 23–31× and 22–29×, so 4× catches
/// an FC layer falling back to per-window execution.
pub const MIN_FC_SPEEDUP: f64 = 4.0;

/// Every bench the harness runs, in run order. Comparison hard-fails if
/// a file is missing any of these. The `fabric_conv_{ee,oe,oo}` keys
/// time the fabric — `conv2d_batch` over [`BATCH_IMAGES`] images through
/// transport and the bit-plane engine paths — while the `_scalar`
/// variants time the per-window OMAC reference
/// (`pixel_dnn::inference::conv2d` on the design's [`engine_for`]
/// engine behind [`PerWindow`], so every window runs the device-level
/// `inner_product`) on one image of the same case. The
/// `forward_lenet_{ee,oe,oo}` keys time a [`BATCH_IMAGES`]-image LeNet
/// `forward_batch` with the fabric as the engine, FC layers included.
/// The `fc_lenet_{ee,oe,oo}` keys time LeNet's FC1 then FC2 on
/// [`BATCH_IMAGES`] images, one `fully_connected` call per image on the
/// design's [`engine_for`] engine — its block path.
pub const EXPECTED: [&str; 23] = [
    "functional_mac_direct",
    "functional_mac_ee",
    "functional_mac_oe",
    "functional_mac_oo",
    "fabric_conv_ee",
    "fabric_conv_oe",
    "fabric_conv_oo",
    "fabric_conv_ee_scalar",
    "fabric_conv_oe_scalar",
    "fabric_conv_oo_scalar",
    "forward_lenet_direct",
    "forward_lenet_ee",
    "forward_lenet_oe",
    "forward_lenet_oo",
    "fc_lenet_ee",
    "fc_lenet_oe",
    "fc_lenet_oo",
    "forward_vgg16_direct",
    "forward_alexnet_direct",
    "forward_zfnet_direct",
    "forward_resnet34_direct",
    "forward_googlenet_direct",
    "serve_simulate",
];

/// One timed hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Stable bench key (one of [`EXPECTED`]).
    pub name: &'static str,
    /// Total iterations across every timed repetition.
    pub iterations: u64,
    /// True median of the per-repetition mean iteration times, ns.
    pub median_ns: f64,
    /// Iteration-weighted mean time per iteration across all reps, ns.
    pub mean_ns: f64,
    /// Domain operations per iteration (MACs, requests, or inferences).
    pub ops_per_iter: u64,
    /// `ops_per_iter` scaled by the median time.
    pub ops_per_sec: f64,
}

fn result(name: &'static str, m: timing::Measurement, ops_per_iter: u64) -> BenchResult {
    #[allow(clippy::cast_precision_loss)]
    let ops_per_sec = ops_per_iter as f64 / (m.median_ns / 1e9);
    BenchResult {
        name,
        iterations: m.iterations,
        median_ns: m.median_ns,
        mean_ns: m.mean_ns,
        ops_per_iter,
        ops_per_sec,
    }
}

fn window_operands(len: usize, bits: u32, seed: u64) -> (Vec<u64>, Vec<u64>) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let limit = (1u64 << bits) - 1;
    let n = (0..len).map(|_| rng.range_u64(0, limit)).collect();
    let s = (0..len).map(|_| rng.range_u64(0, limit)).collect();
    (n, s)
}

/// The fabric-conv workload every regression run times: 12×12×8 inputs
/// through 8 filters of 3×3 at stride 1 (100 windows of 72 words × 8
/// filters = 57 600 MACs per image). The batched benches run
/// [`BATCH_IMAGES`] such images per iteration.
fn conv_case() -> (Layer, Vec<Tensor>, LayerWeights) {
    let mut rng = SplitMix64::seed_from_u64(0xC0);
    let layer = Layer::conv("Conv", Shape::square(12, 8), 8, 3, 1);
    let inputs = (0..BATCH_IMAGES)
        .map(|_| Tensor::from_fn(Shape::square(12, 8), |_, _, _| rng.range_u64(0, 15)))
        .collect();
    let weights = LayerWeights::generate(&layer, || rng.range_u64(0, 15));
    (layer, inputs, weights)
}

/// Runs every bench. `quick` shrinks the measurement budget (fewer
/// repetitions of a shorter window), not the workloads, so quick and
/// full runs of the same build measure the same code paths. The
/// full-CNN forward replays are single-shot in either mode — one VGG16
/// replay already costs seconds, which *is* the measurement.
#[must_use]
pub fn run(quick: bool, jobs: usize) -> Vec<BenchResult> {
    let (budget, reps) = if quick {
        (Duration::from_millis(60), 3)
    } else {
        (Duration::from_millis(200), 5)
    };
    let mut out = Vec::with_capacity(EXPECTED.len());

    // Functional MAC units: one 72-word window (a 3×3×8 kernel), the
    // inner loop of every fabric convolution.
    let (n, s) = window_operands(72, 4, 0xBEEC);
    let m = timing::measure_median(budget, reps, || DirectMac.inner_product(&n, &s));
    out.push(result("functional_mac_direct", m, n.len() as u64));
    // Per-design names come straight from EXPECTED, which lists the
    // three MAC benches (then the conv benches) in ALL order.
    for (design, name) in Design::ALL.into_iter().zip(EXPECTED[1..4].iter()) {
        let engine = engine_for(&AcceleratorConfig::new(design, 4, 4));
        let m = timing::measure_median(budget, reps, || engine.inner_product(&n, &s));
        out.push(result(name, m, n.len() as u64));
    }

    // Fabric convolution end to end: transport + tiles + OMACs over a
    // full image batch. The `_scalar` benches time the per-window OMAC
    // reference (no transport, one window and one filter at a time) on
    // a single image of the same case.
    let (layer, inputs, weights) = conv_case();
    let e = layer.output_feature_size();
    let macs_per_image = (e * e * 8 * 72) as u64;
    for (design, name) in Design::ALL.into_iter().zip(EXPECTED[4..7].iter()) {
        let fabric = FunctionalFabric::new(AcceleratorConfig::new(design, 4, 4));
        let m = timing::measure_median(budget, reps, || {
            fabric
                .conv2d_batch(&layer, &inputs, &weights, jobs)
                // lint:allow(P002) the bench workload is shape-consistent by construction
                .expect("bench conv workload is shape-consistent")
        });
        out.push(result(name, m, macs_per_image * BATCH_IMAGES as u64));
    }
    for (design, name) in Design::ALL.into_iter().zip(EXPECTED[7..10].iter()) {
        let engine = engine_for(&AcceleratorConfig::new(design, 4, 4));
        let m = timing::measure_median(budget, reps, || {
            conv2d(&layer, &inputs[0], &weights, &PerWindow(engine.as_ref()))
                // lint:allow(P002) the bench workload is shape-consistent by construction
                .expect("bench conv workload is shape-consistent")
        });
        out.push(result(name, m, macs_per_image));
    }

    // Full quantized LeNet forward pass on the integer reference engine
    // (LeNet's table is the one zoo network that chains end to end).
    let net = zoo::lenet();
    let precision = Precision::new(4);
    let mut rng = SplitMix64::seed_from_u64(0x1E7);
    let lenet_weights: Vec<LayerWeights> = net
        .layers()
        .iter()
        .map(|l| LayerWeights::generate(l, || rng.range_u64(0, precision.max_value())))
        .collect();
    // lint:allow(P002) the zoo network always has at least one layer
    let in_shape = net.layers().first().expect("lenet has layers").input;
    let lenet_input = Tensor::from_fn(in_shape, |_, _, _| rng.range_u64(0, precision.max_value()));
    let m = timing::measure_median(budget, reps, || {
        forward(&net, &lenet_input, &lenet_weights, &DirectMac, precision)
            // lint:allow(P002) zoo networks are shape-consistent by construction
            .expect("lenet forward is shape-consistent")
    });
    out.push(result("forward_lenet_direct", m, 1));

    // The same LeNet, a batch of BATCH_IMAGES at once, bit-true through
    // the fabric: every conv and FC layer crosses the optical medium.
    let lenet_batch: Vec<Tensor> = (0..BATCH_IMAGES)
        .map(|_| Tensor::from_fn(in_shape, |_, _, _| rng.range_u64(0, precision.max_value())))
        .collect();
    for (design, name) in Design::ALL.into_iter().zip(EXPECTED[11..14].iter()) {
        let fabric = FunctionalFabric::new(AcceleratorConfig::new(design, 4, 4));
        let m = timing::measure_median(budget, reps, || {
            forward_batch(&net, &lenet_batch, &lenet_weights, &fabric, precision)
                // lint:allow(P002) zoo networks are shape-consistent by construction
                .expect("lenet forward is shape-consistent")
        });
        out.push(result(name, m, BATCH_IMAGES as u64));
    }

    // LeNet's FC layers on each design's OMAC, one image per call as a
    // serving batch of single requests would send them: every call is a
    // one-row block on the engine's block path.
    let fc: Vec<(&Layer, &LayerWeights)> = net
        .layers()
        .iter()
        .zip(&lenet_weights)
        .filter(|(l, _)| matches!(l.kind, LayerKind::Fc { .. }))
        .collect();
    let fc_macs: usize = fc.iter().map(|(l, _)| l.weight_count()).sum();
    let fc_inputs: Vec<Tensor> = (0..BATCH_IMAGES)
        .map(|_| {
            Tensor::from_fn(fc[0].0.input, |_, _, _| {
                rng.range_u64(0, precision.max_value())
            })
        })
        .collect();
    let fc_pass = |engine: &dyn MacEngine| -> Result<Vec<Tensor>, ShapeError> {
        fc_inputs
            .iter()
            .map(|input| {
                fc.iter().try_fold(input.clone(), |x, (layer, weights)| {
                    let mut y = fully_connected(layer, &x, weights, engine)?;
                    precision.requantize(&mut y);
                    Ok(y)
                })
            })
            .collect()
    };
    for (design, name) in Design::ALL.into_iter().zip(EXPECTED[14..17].iter()) {
        let engine = engine_for(&AcceleratorConfig::new(design, 4, 4));
        assert!(
            fc_pass(engine.as_ref()).is_ok(),
            "LeNet's FC layers chain by construction"
        );
        let m = timing::measure_median(budget, reps, || fc_pass(engine.as_ref()));
        out.push(result(name, m, (fc_macs * BATCH_IMAGES) as u64));
    }

    // The five remaining paper CNNs, via the layer replay (their Table-I
    // derived layer lists are not chainable end to end): every layer
    // executes once on operands of its declared shape — the network's
    // full tabulated MAC work — timed as one shot.
    let others: Vec<_> = zoo::all_networks()
        .into_iter()
        .filter(|net| net.name() != "LeNet")
        .collect();
    debug_assert_eq!(others.len(), EXPECTED[17..22].len());
    for (net, name) in others.iter().zip(EXPECTED[17..22].iter()) {
        let m = timing::measure_single(|| {
            replay_layers(net, &DirectMac, precision, 2026)
                // lint:allow(P002) zoo layer tables are self-consistent by construction
                .expect("zoo layer replay is shape-consistent")
        });
        out.push(result(name, m, 1));
    }

    // The serving simulator's event loop under the paper mix.
    let workload = Workload::paper_mix();
    let ctx = pixel_core::model::EvalContext::new();
    let serve_config = ServeConfig::new(AcceleratorConfig::new(Design::Oo, 4, 16), 2.0, 400, 2026);
    let m = timing::measure_median(budget, reps, || simulate(&workload, &ctx, &serve_config));
    out.push(result("serve_simulate", m, serve_config.requests as u64));

    out
}

/// Renders the results as a `BENCH_functional.json` document.
#[must_use]
pub fn to_json(results: &[BenchResult], quick: bool, jobs: usize) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    s.push_str(&format!("  \"jobs\": {jobs},\n"));
    s.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"iterations\": {}, \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"ops_per_iter\": {}, \"ops_per_sec\": {:.1}}}{}\n",
            r.name,
            r.iterations,
            r.median_ns,
            r.mean_ns,
            r.ops_per_iter,
            r.ops_per_sec,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// A bench file parsed back for comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    /// `"full"` or `"quick"`.
    pub mode: String,
    /// Worker threads the run used.
    pub jobs: u64,
    /// Parsed bench entries.
    pub benches: Vec<ParsedBench>,
}

/// One parsed entry of a bench file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedBench {
    /// Bench key.
    pub name: String,
    /// Median wall time per iteration, nanoseconds.
    pub median_ns: f64,
    /// Mean wall time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Throughput at the median.
    pub ops_per_sec: f64,
}

fn extract_str(text: &str, key: &str) -> Result<String, String> {
    let pat = format!("\"{key}\":");
    let at = text
        .find(&pat)
        .ok_or_else(|| format!("missing key {key:?}"))?;
    let rest = text[at + pat.len()..].trim_start();
    let rest = rest
        .strip_prefix('"')
        .ok_or_else(|| format!("key {key:?} is not a string"))?;
    let end = rest
        .find('"')
        .ok_or_else(|| format!("unterminated string for key {key:?}"))?;
    Ok(rest[..end].to_owned())
}

fn extract_num(text: &str, key: &str) -> Result<f64, String> {
    let pat = format!("\"{key}\":");
    let at = text
        .find(&pat)
        .ok_or_else(|| format!("missing key {key:?}"))?;
    let rest = text[at + pat.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end]
        .parse::<f64>()
        .map_err(|err| format!("key {key:?} is not a number: {err}"))
}

/// Parses a `BENCH_functional.json` document.
///
/// # Errors
///
/// Returns a message if the schema tag mismatches, any required key is
/// absent or mistyped, or any of the [`EXPECTED`] benches is missing.
pub fn parse(text: &str) -> Result<BenchFile, String> {
    let schema = extract_str(text, "schema")?;
    if schema != SCHEMA {
        return Err(format!("unexpected schema {schema:?}, want {SCHEMA:?}"));
    }
    let mode = extract_str(text, "mode")?;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let jobs = extract_num(text, "jobs")? as u64;
    let at = text
        .find("\"benches\":")
        .ok_or_else(|| "missing key \"benches\"".to_owned())?;
    let body = &text[at..];
    let open = body
        .find('[')
        .ok_or_else(|| "\"benches\" is not an array".to_owned())?;
    let close = body
        .rfind(']')
        .ok_or_else(|| "unterminated \"benches\" array".to_owned())?;
    let mut benches = Vec::new();
    let mut rest = &body[open + 1..close];
    while let Some(start) = rest.find('{') {
        let end = rest[start..]
            .find('}')
            .ok_or_else(|| "unterminated bench object".to_owned())?
            + start;
        let obj = &rest[start..=end];
        benches.push(ParsedBench {
            name: extract_str(obj, "name")?,
            median_ns: extract_num(obj, "median_ns")?,
            mean_ns: extract_num(obj, "mean_ns")?,
            ops_per_sec: extract_num(obj, "ops_per_sec")?,
        });
        rest = &rest[end + 1..];
    }
    for want in EXPECTED {
        if !benches.iter().any(|b| b.name == want) {
            return Err(format!("bench {want:?} missing from file"));
        }
    }
    Ok(BenchFile {
        mode,
        jobs,
        benches,
    })
}

/// Renders a comparison of two parsed bench files: per-bench ops/sec
/// deltas of `new` relative to `old`, flagging slowdowns beyond
/// `threshold` (e.g. `0.25` = 25 % slower) without failing on them.
///
/// # Errors
///
/// Returns a message — a hard failure, not an advisory — if the two
/// reports disagree on `mode`: a quick run's medians are not comparable
/// to a full run's, so such a comparison would only launder noise.
/// (Schema disagreement is impossible past [`parse`], which admits only
/// [`SCHEMA`].)
pub fn compare(old: &BenchFile, new: &BenchFile, threshold: f64) -> Result<String, String> {
    if old.mode != new.mode {
        return Err(format!(
            "mode mismatch: old is {:?}, new is {:?}; rerun with matching modes",
            old.mode, new.mode
        ));
    }
    let mut s = format!(
        "bench comparison (old: {} mode, jobs {}; new: {} mode, jobs {})\n",
        old.mode, old.jobs, new.mode, new.jobs
    );
    s.push_str(&format!(
        "{:<24} {:>14} {:>14} {:>9}\n",
        "bench", "old ops/s", "new ops/s", "delta"
    ));
    for entry in &new.benches {
        let Some(base) = old.benches.iter().find(|b| b.name == entry.name) else {
            s.push_str(&format!("{:<24} (new bench, no baseline)\n", entry.name));
            continue;
        };
        let delta = if base.ops_per_sec > 0.0 {
            entry.ops_per_sec / base.ops_per_sec - 1.0
        } else {
            0.0
        };
        let flag = if delta < -threshold {
            "  << slower than baseline (advisory)"
        } else {
            ""
        };
        s.push_str(&format!(
            "{:<24} {:>14.0} {:>14.0} {:>+8.1}%{}\n",
            entry.name,
            base.ops_per_sec,
            entry.ops_per_sec,
            delta * 100.0,
            flag
        ));
    }
    Ok(s)
}

/// Verifies the machine-independent invariants of one bench report: the
/// in-run batched-over-scalar fabric speedup is at least
/// [`MIN_BATCH_SPEEDUP`] per design, the block-FC-over-per-window OMAC
/// speedup at least [`MIN_FC_SPEEDUP`] per design, and every bench's
/// throughput is finite and nonzero. Both sides of each ratio come from the same run
/// on the same machine, so this gate — unlike cross-run wall-time
/// deltas — can hard-fail CI without flaking on runner load.
///
/// # Errors
///
/// Returns the list of violated invariants.
pub fn check(file: &BenchFile) -> Result<String, String> {
    let lookup = |name: &str| -> Result<&ParsedBench, String> {
        file.benches
            .iter()
            .find(|b| b.name == name)
            .ok_or_else(|| format!("bench {name:?} missing"))
    };
    let mut s = String::from("bench invariants\n");
    let mut failures = Vec::new();
    for bench in &file.benches {
        if !(bench.ops_per_sec.is_finite() && bench.ops_per_sec > 0.0) {
            failures.push(format!(
                "{}: ops_per_sec {} is not finite and positive",
                bench.name, bench.ops_per_sec
            ));
        }
    }
    for design in ["ee", "oe", "oo"] {
        let batched = lookup(&format!("fabric_conv_{design}"))?;
        let scalar = lookup(&format!("fabric_conv_{design}_scalar"))?;
        let ratio = batched.ops_per_sec / scalar.ops_per_sec;
        let ok = ratio >= MIN_BATCH_SPEEDUP;
        s.push_str(&format!(
            "fabric_conv_{design:<3} batched/scalar {ratio:>6.1}x (floor {MIN_BATCH_SPEEDUP}x) {}\n",
            if ok { "ok" } else { "FAIL" }
        ));
        if !ok {
            failures.push(format!(
                "fabric_conv_{design}: batched/scalar speedup {ratio:.1}x below the {MIN_BATCH_SPEEDUP}x floor"
            ));
        }
        let fc = lookup(&format!("fc_lenet_{design}"))?;
        let per_window = lookup(&format!("functional_mac_{design}"))?;
        let ratio = fc.ops_per_sec / per_window.ops_per_sec;
        let ok = ratio >= MIN_FC_SPEEDUP;
        s.push_str(&format!(
            "fc_lenet_{design:<5} block/per-window {ratio:>6.1}x (floor {MIN_FC_SPEEDUP}x) {}\n",
            if ok { "ok" } else { "FAIL" }
        ));
        if !ok {
            failures.push(format!(
                "fc_lenet_{design}: block/per-window speedup {ratio:.1}x below the {MIN_FC_SPEEDUP}x floor"
            ));
        }
    }
    if failures.is_empty() {
        s.push_str("all bench invariants hold\n");
        Ok(s)
    } else {
        Err(failures.join("\n"))
    }
}

fn print_results(results: &[BenchResult]) {
    for r in results {
        let per_iter_ms = r.median_ns / 1e6;
        println!(
            "bench {:<24} {:>10.3} ms/iter  {:>14.0} ops/s  ({} iters)",
            r.name, per_iter_ms, r.ops_per_sec, r.iterations
        );
    }
}

/// CLI for `reproduce bench`: runs the harness and writes the JSON
/// artifact, compares two existing artifacts, or checks one artifact's
/// in-run invariants.
///
/// ```text
/// reproduce bench [--quick] [--profile] [--jobs N] [--out FILE]
/// reproduce bench --compare OLD NEW [--threshold PCT]
/// reproduce bench --check FILE
/// ```
///
/// `--profile` records spans and counters during the timing run and
/// prints the profile table after the timings.
///
/// Returns a process exit code: comparison is advisory on slowdowns but
/// exits nonzero on unreadable/malformed files, missing benches, or a
/// `schema`/`mode` disagreement; `--check` exits nonzero when the
/// batched-fabric or block-FC speedup floor or a throughput sanity
/// bound is violated.
#[must_use]
pub fn run_cli(args: &[String]) -> u8 {
    let mut quick = false;
    let mut profile = false;
    let mut jobs = 1usize;
    let mut out_path = String::from("BENCH_functional.json");
    let mut compare_paths: Option<(String, String)> = None;
    let mut check_path: Option<String> = None;
    let mut threshold = 0.25f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--profile" => profile = true,
            "--jobs" => {
                let Some(value) = it.next() else {
                    eprintln!("--jobs requires a worker count");
                    return 2;
                };
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => jobs = n,
                    _ => {
                        eprintln!("--jobs needs a positive integer, got {value:?}");
                        return 2;
                    }
                }
            }
            "--out" => {
                let Some(path) = it.next() else {
                    eprintln!("--out requires a file path");
                    return 2;
                };
                out_path = path.clone();
            }
            "--compare" => {
                let (Some(old), Some(new)) = (it.next(), it.next()) else {
                    eprintln!("--compare requires OLD and NEW file paths");
                    return 2;
                };
                compare_paths = Some((old.clone(), new.clone()));
            }
            "--check" => {
                let Some(path) = it.next() else {
                    eprintln!("--check requires a bench file path");
                    return 2;
                };
                check_path = Some(path.clone());
            }
            "--threshold" => {
                let Some(value) = it.next() else {
                    eprintln!("--threshold requires a percentage");
                    return 2;
                };
                match value.parse::<f64>() {
                    Ok(p) if p > 0.0 => threshold = p / 100.0,
                    _ => {
                        eprintln!("--threshold needs a positive percentage, got {value:?}");
                        return 2;
                    }
                }
            }
            other => {
                eprintln!(
                    "unknown bench argument {other:?}; usage: reproduce bench [--quick] [--profile] [--jobs N] [--out FILE] | --compare OLD NEW [--threshold PCT] | --check FILE"
                );
                return 2;
            }
        }
    }

    let read = |path: &str| -> Result<BenchFile, String> {
        let text =
            std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
        parse(&text).map_err(|err| format!("{path}: {err}"))
    };

    if let Some(path) = check_path {
        return match read(&path).and_then(|file| check(&file)) {
            Ok(report) => {
                print!("{report}");
                0
            }
            Err(err) => {
                eprintln!("bench check: {err}");
                1
            }
        };
    }

    if let Some((old_path, new_path)) = compare_paths {
        match (read(&old_path), read(&new_path)) {
            (Ok(old), Ok(new)) => match compare(&old, &new, threshold) {
                Ok(report) => {
                    print!("{report}");
                    0
                }
                Err(err) => {
                    eprintln!("bench compare: {err}");
                    1
                }
            },
            (old, new) => {
                for side in [old, new] {
                    if let Err(err) = side {
                        eprintln!("bench compare: {err}");
                    }
                }
                1
            }
        }
    } else {
        // Profiling records every span the timed code opens, so a
        // profiled run's timings carry that overhead.
        if profile {
            pixel_obs::enable();
        }
        let results = run(quick, jobs);
        print_results(&results);
        if profile {
            println!("== profile");
            print!("{}", pixel_obs::profile_table());
        }
        let json = to_json(&results, quick, jobs);
        if let Err(err) = std::fs::write(&out_path, &json) {
            eprintln!("cannot write {out_path}: {err}");
            return 1;
        }
        println!("wrote {out_path}");
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_results() -> Vec<BenchResult> {
        EXPECTED
            .iter()
            .enumerate()
            .map(|(i, name)| {
                // Batched conv and block FC entries are fast, scalar and
                // per-window MAC ones slow, so the in-run speedup
                // invariants hold by construction.
                let median_ns = if name.ends_with("_scalar") || EXPECTED[1..4].contains(name) {
                    1_000_000.0
                } else {
                    1_000.0 * (i + 1) as f64
                };
                BenchResult {
                    name,
                    iterations: 10 + i as u64,
                    median_ns,
                    mean_ns: median_ns * 1.5,
                    ops_per_iter: 72,
                    ops_per_sec: 72.0e9 / median_ns,
                }
            })
            .collect()
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let json = to_json(&fake_results(), false, 2);
        let parsed = parse(&json).unwrap();
        assert_eq!(parsed.mode, "full");
        assert_eq!(parsed.jobs, 2);
        assert_eq!(parsed.benches.len(), EXPECTED.len());
        assert_eq!(parsed.benches[0].name, EXPECTED[0]);
        assert!((parsed.benches[0].median_ns - 1_000.0).abs() < 1e-6);
        assert!((parsed.benches[0].mean_ns - 1_500.0).abs() < 1e-6);
    }

    #[test]
    fn parser_rejects_malformed_files() {
        assert!(parse("{}").is_err());
        // The previous schema (mean mislabeled as median) is rejected.
        assert!(parse("{\"schema\": \"pixel-bench/1\"}").is_err());
        // Right schema but no benches.
        let empty = format!(
            "{{\"schema\": \"{SCHEMA}\", \"mode\": \"full\", \"jobs\": 1, \"benches\": []}}"
        );
        assert!(parse(&empty).unwrap_err().contains("missing"));
        // A bench entry without a mean is a hard error.
        let partial = format!(
            "{{\"schema\": \"{SCHEMA}\", \"mode\": \"full\", \"jobs\": 1, \"benches\": [{{\"name\": \"functional_mac_direct\", \"median_ns\": 5.0}}]}}"
        );
        assert!(parse(&partial).unwrap_err().contains("mean_ns"));
    }

    #[test]
    fn comparison_flags_large_slowdowns_only() {
        let json = to_json(&fake_results(), false, 1);
        let old = parse(&json).unwrap();
        let mut slower = old.clone();
        slower.benches[0].ops_per_sec *= 0.5;
        slower.benches[1].ops_per_sec *= 0.9;
        let report = compare(&old, &slower, 0.25).unwrap();
        let lines: Vec<&str> = report.lines().collect();
        assert!(lines[2].contains("slower than baseline"), "{report}");
        assert!(!lines[3].contains("slower than baseline"), "{report}");
    }

    #[test]
    fn comparison_hard_fails_on_mode_mismatch() {
        let old = parse(&to_json(&fake_results(), false, 1)).unwrap();
        let quick = parse(&to_json(&fake_results(), true, 1)).unwrap();
        let err = compare(&old, &quick, 0.25).unwrap_err();
        assert!(err.contains("mode mismatch"), "{err}");
        // Matching modes still compare fine.
        assert!(compare(&old, &old, 0.25).is_ok());
    }

    #[test]
    fn check_enforces_the_batched_speedup_floor() {
        let file = parse(&to_json(&fake_results(), false, 1)).unwrap();
        let report = check(&file).unwrap();
        assert!(report.contains("all bench invariants hold"), "{report}");

        // Degrade one batched bench below the floor: hard failure.
        let mut slow = file.clone();
        let i = slow
            .benches
            .iter()
            .position(|b| b.name == "fabric_conv_oe")
            .unwrap();
        let scalar_ops = slow
            .benches
            .iter()
            .find(|b| b.name == "fabric_conv_oe_scalar")
            .unwrap()
            .ops_per_sec;
        slow.benches[i].ops_per_sec = scalar_ops * (MIN_BATCH_SPEEDUP - 1.0);
        let err = check(&slow).unwrap_err();
        assert!(err.contains("fabric_conv_oe"), "{err}");
        assert!(err.contains("below"), "{err}");

        // A zero-throughput bench (the calibration bug this PR fixes
        // would have produced one) is also a hard failure.
        let mut zero = file.clone();
        zero.benches[0].ops_per_sec = 0.0;
        assert!(check(&zero).unwrap_err().contains("finite"));
    }

    #[test]
    fn check_enforces_the_block_fc_floor() {
        let file = parse(&to_json(&fake_results(), false, 1)).unwrap();
        let report = check(&file).unwrap();
        assert!(report.contains("fc_lenet_oo"), "{report}");

        // An FC bench at per-window speed fails the floor.
        let mut slow = file.clone();
        let per_window = slow
            .benches
            .iter()
            .find(|b| b.name == "functional_mac_oo")
            .unwrap()
            .ops_per_sec;
        let fc = slow
            .benches
            .iter_mut()
            .find(|b| b.name == "fc_lenet_oo")
            .unwrap();
        fc.ops_per_sec = per_window * (MIN_FC_SPEEDUP - 1.0);
        let err = check(&slow).unwrap_err();
        assert!(err.contains("fc_lenet_oo"), "{err}");
        assert!(err.contains("below"), "{err}");
    }

    #[test]
    fn throughput_scales_with_the_median() {
        let m = timing::Measurement {
            iterations: 5,
            mean_ns: 2e6,
            median_ns: 1e6,
        };
        let r = result("functional_mac_direct", m, 72);
        // ops/s derives from the median, while the mean rides along.
        assert!((r.median_ns - 1e6).abs() < 1.0);
        assert!((r.mean_ns - 2e6).abs() < 1.0);
        assert!((r.ops_per_sec - 72_000.0).abs() < 1.0);
    }
}
