//! Regenerates every table and figure of the PIXEL paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! reproduce [FLAGS] [ARTIFACT...]
//!
//! ARTIFACT    table1|table2|fig4..fig10|power|ablation|...|all (default: all)
//! --list      print the artifact keys and exit
//! --jobs N    sweep worker threads (default: available parallelism)
//! --seed S    override the pinned seeds of the stochastic artifacts
//!             (noise, audit, serve, flightrec, fleet); default keeps
//!             the pinned outputs
//! --quick     smoke-test request counts (outputs not snapshot-pinned)
//! --profile   record spans/counters and print a profile table at the end
//! --trace F   stream span/counter events to F as JSON lines
//! --metrics F write the run's machine-readable JSONL metrics (emitted
//!             by the serve, flightrec, and fleet artifacts) to F
//! --flame F   write collapsed span stacks (flamegraph format) to F
//! ```
//!
//! `reproduce checkjsonl FILE` validates a JSONL metrics/trace file line
//! by line (flat JSON, non-empty, schema-tagged) and fails on the first
//! malformed line.
//!
//! `reproduce lint [ARGS...]` forwards to the `pixel-lint` static
//! analyzer (see `reproduce lint --help`).
//!
//! `reproduce bench [--quick] [--profile] [--jobs N] [--out FILE]` times
//! the hot paths and writes a `BENCH_functional.json` regression
//! artifact (`--profile` prints the span table after the timings);
//! `reproduce bench --compare OLD NEW` diffs two such artifacts.
//!
//! `reproduce oracle [--quick] [--seed N]` runs the live `pixel-served`
//! daemon against the simulator's prediction and fails on any tolerance
//! breach (wall-clock dependent, so a CI gate rather than a snapshot
//! artifact — see DESIGN.md §12).
//!
//! With no artifact (or `all`) every artifact is printed in paper order.

use std::process::ExitCode;

/// One reproducible artifact: key, title, renderer.
type Artifact = (&'static str, &'static str, fn() -> String);

const ARTIFACTS: [Artifact; 22] = [
    (
        "table1",
        "Table I — VGG16 computations [millions]",
        pixel_bench::table1,
    ),
    (
        "fig4",
        "Figure 4 — Energy/bit of a single MAC unit (lanes × bits/lane)",
        pixel_bench::fig4,
    ),
    (
        "fig5",
        "Figure 5 — Component energy, AlexNet/LeNet/VGG16, 4 lanes",
        pixel_bench::fig5,
    ),
    (
        "fig6",
        "Figure 6 — Fabric area at 4 bits/lane",
        pixel_bench::fig6,
    ),
    (
        "fig7",
        "Figure 7 — Normalized energy, 6 CNNs, 8 lanes",
        pixel_bench::fig7,
    ),
    (
        "fig8",
        "Figure 8 — Geomean latency across 6 CNNs, 8 lanes",
        pixel_bench::fig8,
    ),
    (
        "fig9",
        "Figure 9 — ZFNet per-layer latency, 8 lanes / 8 bits/lane",
        pixel_bench::fig9,
    ),
    (
        "fig10",
        "Figure 10 — Normalized EDP, 6 CNNs, 4 lanes",
        pixel_bench::fig10,
    ),
    (
        "table2",
        "Table II — Energy breakdown [mJ], 4 lanes / 16 bits/lane",
        pixel_bench::table2,
    ),
    (
        "power",
        "Extension — power analysis and performance/W (ZFNet, 4 lanes / 16 bits)",
        pixel_bench::power,
    ),
    (
        "ablation",
        "Extension — sensitivity of the headline EDP claims to calibrated constants; EE adder and multiplier baselines",
        pixel_bench::ablation,
    ),
    (
        "scaling",
        "Extension — link-budget scalability bound (§III-C(ii))",
        pixel_bench::scaling,
    ),
    (
        "noise",
        "Extension — OO multiply under receiver amplitude noise",
        pixel_bench::noise,
    ),
    (
        "weights",
        "Extension — photonic weight pre-load vs compute (§III-C(i))",
        pixel_bench::weights,
    ),
    (
        "pam",
        "Extension — PAM-4 line coding vs OOK on the optical latency",
        pixel_bench::pam,
    ),
    (
        "counts",
        "Extension — Table I generalized: per-layer op counts, all six CNNs",
        pixel_bench::counts,
    ),
    (
        "roofline",
        "Extension — compute vs ingress rooflines per design (8 lanes)",
        pixel_bench::roofline,
    ),
    (
        "audit",
        "Extension — counted vs analytic device activity (lit/toggle rates)",
        pixel_bench::audit,
    ),
    (
        "serve",
        "Extension — inference-serving saturation sweep (load × design)",
        pixel_bench::serve,
    ),
    (
        "flightrec",
        "Extension — flight-recorder deep dive on one serving run (OO near the knee)",
        pixel_bench::flightrec,
    ),
    (
        "fleet",
        "Extension — sharded fleet serving: routing policy × shard count × tenant mix",
        pixel_bench::fleet,
    ),
    (
        "archgraph",
        "Extension — workspace architecture graph from the structural lint pass",
        pixel_bench::archgraph,
    ),
];

/// Validates a JSONL file: every line must parse as a flat JSON object
/// carrying a non-empty `schema` tag. Returns a process exit status.
fn check_jsonl(path: &str) -> u8 {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("checkjsonl: cannot read {path:?}: {err}");
            return 1;
        }
    };
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        let Some(fields) = pixel_obs::parse_flat_object(line) else {
            eprintln!(
                "checkjsonl: {path}:{}: malformed JSON object: {line}",
                i + 1
            );
            return 1;
        };
        if !fields.iter().any(|(k, v)| k == "schema" && !v.is_empty()) {
            eprintln!("checkjsonl: {path}:{}: missing schema tag: {line}", i + 1);
            return 1;
        }
        lines += 1;
    }
    if lines == 0 {
        eprintln!("checkjsonl: {path} holds no JSONL lines");
        return 1;
    }
    println!("checkjsonl: {path}: {lines} schema-tagged JSONL line(s) OK");
    0
}

fn print_artifact(key: &str, title: &str, render: fn() -> String) {
    println!("== {key}: {title}");
    println!("{}", render());
}

fn print_keys(to_stderr: bool) {
    let emit = |line: String| {
        if to_stderr {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    for (key, title, _) in ARTIFACTS {
        emit(format!("  {key:<8} {title}"));
    }
    emit("  all      everything above".to_owned());
}

fn main() -> ExitCode {
    // `reproduce lint [...]` forwards straight to the static analyzer:
    // the lint pass is an artifact of the reproduction like any other.
    {
        let forwarded: Vec<String> = std::env::args().skip(1).collect();
        if forwarded.first().is_some_and(|a| a == "lint") {
            return ExitCode::from(pixel_lint::cli::run(&forwarded[1..]));
        }
        // `reproduce bench [...]` likewise forwards to the perf harness.
        if forwarded.first().is_some_and(|a| a == "bench") {
            return ExitCode::from(pixel_bench::perf::run_cli(&forwarded[1..]));
        }
        // `reproduce oracle [...]` runs the simulator-vs-daemon check.
        if forwarded.first().is_some_and(|a| a == "oracle") {
            return ExitCode::from(pixel_serve::oracle::run_cli(&forwarded[1..]));
        }
        // `reproduce checkjsonl FILE` validates a JSONL artifact.
        if forwarded.first().is_some_and(|a| a == "checkjsonl") {
            let [path] = &forwarded[1..] else {
                eprintln!("usage: reproduce checkjsonl FILE");
                return ExitCode::FAILURE;
            };
            return ExitCode::from(check_jsonl(path));
        }
    }
    let mut profile = false;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut flame_path: Option<String> = None;
    let mut keys: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                print_keys(false);
                return ExitCode::SUCCESS;
            }
            "--profile" => profile = true,
            "--jobs" => {
                let Some(value) = args.next() else {
                    eprintln!("--jobs requires a worker count");
                    return ExitCode::FAILURE;
                };
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => pixel_core::sweep::set_default_jobs(Some(n)),
                    _ => {
                        eprintln!("--jobs needs a positive integer, got {value:?}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--seed" => {
                let Some(value) = args.next() else {
                    eprintln!("--seed requires a u64 value");
                    return ExitCode::FAILURE;
                };
                match value.parse::<u64>() {
                    Ok(s) => pixel_core::seed::set_default_seed(Some(s)),
                    Err(_) => {
                        eprintln!("--seed needs an unsigned 64-bit integer, got {value:?}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--trace" => {
                let Some(path) = args.next() else {
                    eprintln!("--trace requires a file path");
                    return ExitCode::FAILURE;
                };
                trace_path = Some(path);
            }
            "--metrics" => {
                let Some(path) = args.next() else {
                    eprintln!("--metrics requires a file path");
                    return ExitCode::FAILURE;
                };
                metrics_path = Some(path);
            }
            "--flame" => {
                let Some(path) = args.next() else {
                    eprintln!("--flame requires a file path");
                    return ExitCode::FAILURE;
                };
                flame_path = Some(path);
            }
            "--quick" => pixel_bench::opts::set_quick(true),
            flag if flag.starts_with("--") => {
                eprintln!(
                    "unknown flag {flag:?}; valid flags: --list --jobs <n> --seed <u64> --quick --profile --trace <file> --metrics <file> --flame <file>"
                );
                return ExitCode::FAILURE;
            }
            key => keys.push(key.to_owned()),
        }
    }
    if keys.is_empty() {
        keys.push("all".to_owned());
    }

    // Validate every requested key before doing any work.
    let mut selected: Vec<&Artifact> = Vec::new();
    for key in &keys {
        if key == "all" {
            selected.extend(ARTIFACTS.iter());
        } else if let Some(artifact) = ARTIFACTS.iter().find(|(k, _, _)| k == key) {
            selected.push(artifact);
        } else {
            eprintln!("unknown artifact {key:?}; expected one of:");
            print_keys(true);
            return ExitCode::FAILURE;
        }
    }

    if profile || trace_path.is_some() || flame_path.is_some() {
        pixel_obs::enable();
    }
    if let Some(path) = &trace_path {
        match std::fs::File::create(path) {
            Ok(file) => pixel_obs::install_trace(Box::new(std::io::BufWriter::new(file))),
            Err(err) => {
                eprintln!("cannot open trace file {path:?}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    {
        let _run = pixel_obs::span("reproduce");
        for (key, title, render) in &selected {
            print_artifact(key, title, *render);
        }
    }

    pixel_obs::finish_trace();
    if let Some(path) = &metrics_path {
        let jsonl = pixel_bench::opts::take_metrics();
        if jsonl.is_empty() {
            eprintln!(
                "--metrics: the selected artifacts emitted no metrics (serve, flightrec and fleet do)"
            );
        }
        if let Err(err) = std::fs::write(path, jsonl) {
            eprintln!("cannot write metrics file {path:?}: {err}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &flame_path {
        let stacks = pixel_obs::SpanNode::build(&pixel_obs::snapshot()).collapsed_stacks();
        if let Err(err) = std::fs::write(path, stacks) {
            eprintln!("cannot write flame file {path:?}: {err}");
            return ExitCode::FAILURE;
        }
    }
    if profile {
        println!("== profile");
        print!("{}", pixel_obs::profile_table());
        let snap = pixel_obs::snapshot();
        let count = |name: &str| snap.counter(name).unwrap_or(0);
        println!(
            "eval cache: {} hits / {} misses; network-counts cache: {} hits / {} misses ({} sweep workers)",
            count("eval.cache_hit"),
            count("eval.cache_miss"),
            count("eval.counts_hit"),
            count("eval.counts_miss"),
            pixel_core::sweep::default_jobs(),
        );
    }
    ExitCode::SUCCESS
}
