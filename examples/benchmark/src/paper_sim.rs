//! `paper_sim`: regenerating the paper's snapshot-pinned artifacts, then
//! one long serving simulation.
//!
//! One operation renders the twelve artifacts the snapshot test pins
//! (Table I, Figs. 4–10, Table II and the serve, flightrec and fleet
//! studies) at [`JOBS`] sweep workers, each compared byte for byte with
//! its snapshot, then runs `serve::simulate` for [`SIM_REQUESTS`] requests
//! on OO at 0.85× its reference capacity. It covers the analytic
//! `DesignModel`/`EvalContext` path and both discrete-event loops
//! (`serve::sim` and `fleet::sim`); the serving state machine runs here in
//! planned-dispatch mode and in open-dispatch mode under `serve_*`. Host
//! time is measured; simulated statistics must repeat exactly.

use crate::trace::Tracer;
use crate::{ms_since, repeat_setup, report_layer, run_ops, Ctx, Outcome, JOBS};
use pixel_core::config::{AcceleratorConfig, Design};
use pixel_core::model::EvalContext;
use pixel_serve::saturation::reference_capacity;
use pixel_serve::{simulate, ServeConfig, ServeReport, Workload};
use std::time::Instant;

/// Requests per simulation.
pub const SIM_REQUESTS: usize = 200_000;

/// Offered load as a share of the reference capacity.
const LOAD: f64 = 0.85;

/// Artifact key, renderer and pinned output.
type Artifact = (&'static str, fn() -> String, &'static str);

macro_rules! artifact {
    ($key:literal, $render:path) => {
        (
            $key,
            $render,
            include_str!(concat!(
                "../../../crates/bench/tests/snapshots/",
                $key,
                ".txt"
            )),
        )
    };
}

/// The snapshot-pinned artifacts, in the snapshot test's order.
const ARTIFACTS: [Artifact; 12] = [
    artifact!("table1", pixel_bench::table1),
    artifact!("fig4", pixel_bench::fig4),
    artifact!("fig5", pixel_bench::fig5),
    artifact!("fig6", pixel_bench::fig6),
    artifact!("fig7", pixel_bench::fig7),
    artifact!("fig8", pixel_bench::fig8),
    artifact!("fig9", pixel_bench::fig9),
    artifact!("fig10", pixel_bench::fig10),
    artifact!("table2", pixel_bench::table2),
    artifact!("serve", pixel_bench::serve),
    artifact!("flightrec", pixel_bench::flightrec),
    artifact!("fleet", pixel_bench::fleet),
];

/// The simulation's configuration for `seed`.
pub fn sim_config(eval: &EvalContext, workload: &Workload, seed: u64) -> ServeConfig {
    let accel = AcceleratorConfig::new(Design::Oo, 4, 16);
    let capacity = reference_capacity(eval, workload, &accel, 8);
    ServeConfig::new(accel, capacity * LOAD, SIM_REQUESTS, seed)
}

struct Prepared {
    workload: Workload,
    eval: EvalContext,
    config: ServeConfig,
    spans: Vec<String>,
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    pixel_core::sweep::set_default_jobs(Some(JOBS));
    let (p, setup_s) = repeat_setup(
        || {
            let workload = Workload::paper_mix();
            let eval = EvalContext::new();
            let config = sim_config(&eval, &workload, ctx.seed);
            let spans = ARTIFACTS
                .iter()
                .map(|(key, _, _)| format!("bench.artifact.{key}"))
                .collect();
            Prepared {
                workload,
                eval,
                config,
                spans,
            }
        },
        drop,
    );

    let mut first: Option<ServeReport> = None;
    let (mut artifacts_ms, mut sim_ms) = (Vec::new(), Vec::new());
    let samples = run_ops(ctx, &mut out, |tracer| {
        let pass = tracer.open();
        let start = Instant::now();
        let texts: Vec<String> = ARTIFACTS
            .iter()
            .zip(&p.spans)
            .map(|((_, render, _), span)| tracer.time(span, pass.id(), render))
            .collect();
        let artifacts_done = Instant::now();
        let report = tracer.time("serve.sim", pass.id(), || {
            simulate(&p.workload, &p.eval, &p.config)
        });
        let ms = ms_since(start);
        tracer.close(pass, "paper_sim.pass", 0, None);
        // The artifacts also append machine-readable metrics to a
        // process-wide buffer; drop them so it cannot grow.
        let _ = pixel_bench::opts::take_metrics();
        if !tracer.enabled() {
            artifacts_ms.push(artifacts_done.duration_since(start).as_secs_f64() * 1e3);
            sim_ms.push(ms_since(artifacts_done));
        }
        check(&texts, &report, &mut first)?;
        Ok(ms)
    });

    samples.report(&mut out);
    out.metric("setup_s", setup_s, "s");
    out.metric("artifacts_ms", crate::stats::median(&artifacts_ms), "ms");
    #[allow(clippy::cast_precision_loss)]
    out.metric(
        "sim_mreq_per_s",
        SIM_REQUESTS as f64 / 1e3 / crate::stats::median(&sim_ms),
        "Mreq/s",
    );
    if ctx.tracer.enabled() {
        layer_metrics(&ctx.tracer, &p, &mut out);
    }
    out
}

fn check(
    texts: &[String],
    report: &ServeReport,
    first: &mut Option<ServeReport>,
) -> Result<(), String> {
    for ((key, _, snapshot), text) in ARTIFACTS.iter().zip(texts) {
        // Snapshots carry the newline `reproduce` prints after each artifact.
        if text.len() + 1 != snapshot.len() || !snapshot.starts_with(text.as_str()) {
            return Err(format!("artifact {key} differs from its snapshot"));
        }
    }
    let arrivals = SIM_REQUESTS as u64;
    if report.arrivals != arrivals || report.completed + report.dropped != arrivals {
        return Err(format!(
            "simulation accounted {} arrivals = {} completed + {} dropped, want {arrivals}",
            report.arrivals, report.completed, report.dropped
        ));
    }
    match first {
        Some(first) if first != report => Err("simulation did not repeat exactly".to_owned()),
        Some(_) => Ok(()),
        None => {
            *first = Some(report.clone());
            Ok(())
        }
    }
}

fn layer_metrics(tracer: &Tracer, p: &Prepared, out: &mut Outcome) {
    let times = crate::trace::layer_times(&tracer.spans());
    let get = |name: &str| times.get(name).copied().unwrap_or_default();
    let pass = get("paper_sim.pass");
    for span in &p.spans {
        let t = get(span);
        report_layer(out, span, t.self_ns, pass.total_ns, None);
        #[allow(clippy::cast_precision_loss)]
        out.metric(
            format!("{span}.ms"),
            t.total_ns as f64 / 1e6 / t.calls.max(1) as f64,
            "ms",
        );
    }
    let sim = get("serve.sim");
    report_layer(out, "serve.sim", sim.self_ns, pass.total_ns, None);
    #[allow(clippy::cast_precision_loss)]
    out.metric(
        "serve.sim.mreq_per_s",
        (SIM_REQUESTS as u64 * sim.calls) as f64 * 1e3 / sim.self_ns.max(1) as f64,
        "Mreq/s",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_inputs_are_deterministic_and_seeded() {
        let workload = Workload::paper_mix();
        let eval = EvalContext::new();
        let a = sim_config(&eval, &workload, 9);
        assert_eq!(a, sim_config(&eval, &workload, 9));
        assert_ne!(a, sim_config(&eval, &workload, 10));
        assert!(a.rate_hz > 0.0);
    }

    #[test]
    fn snapshots_end_with_the_printed_newline() {
        for (key, _, snapshot) in ARTIFACTS {
            assert!(snapshot.ends_with('\n'), "{key}");
        }
    }
}
