//! The artifact renderers of the PIXEL reproduction.
//!
//! Every table and figure of the paper's evaluation, and every
//! extension artifact, is one function here that returns its rendered
//! text; the `reproduce` binary prints them by key and `reproduce bench`
//! ([`perf`]) times the functional simulation. The paper artifacts wrap
//! `pixel_core::dse` with the exact parameter grids the paper uses.

pub mod opts;
pub mod perf;
pub mod timing;

use pixel_core::dse;
use pixel_core::report;
use pixel_core::sweep::SweepEngine;
use pixel_dnn::analysis::analyze_network;
use pixel_dnn::zoo;

/// The lanes sweep of Fig. 4 and Fig. 6.
pub const LANES_SWEEP: [usize; 4] = [2, 4, 8, 16];

/// The bits/lane sweep of Figs. 4, 5, 7 and 10.
pub const BITS_SWEEP: [u32; 4] = [4, 8, 16, 32];

/// The fine bits/lane sweep of Fig. 8 (1–32).
#[must_use]
pub fn fig8_bits_sweep() -> Vec<u32> {
    (0..=5).map(|i| 1u32 << i).chain([12, 20, 24, 28]).collect()
}

/// Renders Table I (VGG16 per-layer op counts, in millions).
#[must_use]
pub fn table1() -> String {
    let _span = pixel_obs::span("table1");
    let mut s = String::from(
        "Layer   |      MVM       Mul       Add       Act   [millions]  Input Shape\n",
    );
    let net = zoo::vgg16();
    let counts = analyze_network(&net);
    let shapes: Vec<String> = net.compute_layers().map(|l| l.input.to_string()).collect();
    for (c, shape) in counts.iter().zip(shapes) {
        #[allow(clippy::cast_precision_loss)]
        let m = |v: u64| v as f64 / 1e6;
        s.push_str(&format!(
            "{:<7} | {:>8.2} {:>9.1} {:>9.1} {:>9.3}               {}\n",
            c.name,
            m(c.mvm),
            m(c.mul),
            m(c.add),
            m(c.act),
            shape,
        ));
    }
    s
}

/// Renders Fig. 4's data table.
#[must_use]
pub fn fig4() -> String {
    let _span = pixel_obs::span("fig4");
    report::format_energy_per_bit(&dse::fig4_energy_per_bit(
        &SweepEngine::with_default_jobs(),
        &LANES_SWEEP,
        &BITS_SWEEP,
    ))
}

/// Renders Fig. 5's data table (AlexNet, LeNet, VGG16 components).
#[must_use]
pub fn fig5() -> String {
    let _span = pixel_obs::span("fig5");
    let nets = [zoo::alexnet(), zoo::lenet(), zoo::vgg16()];
    report::format_components(&dse::fig5_component_energy(
        &SweepEngine::with_default_jobs(),
        &nets,
        &[4, 8, 16],
    ))
}

/// Renders Fig. 6's data table.
#[must_use]
pub fn fig6() -> String {
    let _span = pixel_obs::span("fig6");
    report::format_area(&dse::fig6_area(
        &SweepEngine::with_default_jobs(),
        &LANES_SWEEP,
    ))
}

/// Renders Fig. 7's data table.
#[must_use]
pub fn fig7() -> String {
    let _span = pixel_obs::span("fig7");
    report::format_normalized(
        &dse::fig7_normalized_energy(
            &SweepEngine::with_default_jobs(),
            &zoo::all_networks(),
            &BITS_SWEEP,
        ),
        "energy",
    )
}

/// Renders Fig. 8's data table.
#[must_use]
pub fn fig8() -> String {
    let _span = pixel_obs::span("fig8");
    report::format_latency(&dse::fig8_latency_geomean(
        &SweepEngine::with_default_jobs(),
        &zoo::all_networks(),
        &fig8_bits_sweep(),
    ))
}

/// Renders Fig. 9's data table.
#[must_use]
pub fn fig9() -> String {
    let _span = pixel_obs::span("fig9");
    report::format_layer_latency(&dse::fig9_zfnet_layer_latency(
        &SweepEngine::with_default_jobs(),
    ))
}

/// Renders Fig. 10's data table, plus the headline geomean improvements.
#[must_use]
pub fn fig10() -> String {
    let _span = pixel_obs::span("fig10");
    let mut s = report::format_normalized(
        &dse::fig10_normalized_edp(
            &SweepEngine::with_default_jobs(),
            &zoo::all_networks(),
            &BITS_SWEEP,
        ),
        "EDP",
    );
    let (oe, oo) = dse::headline_edp_improvements(&SweepEngine::with_default_jobs());
    s.push_str(&format!(
        "\ngeomean EDP improvement at 4 lanes / 16 bits: OE {:.1}% (paper 48.4%), OO {:.1}% (paper 73.9%)\n",
        oe * 100.0,
        oo * 100.0
    ));
    s
}

/// Renders Table II.
#[must_use]
pub fn table2() -> String {
    let _span = pixel_obs::span("table2");
    report::format_table2(&dse::table2_breakdown(&SweepEngine::with_default_jobs()))
}

/// Extension artifact: power analysis across designs (beyond the paper).
#[must_use]
pub fn power() -> String {
    let _span = pixel_obs::span("power");
    use pixel_core::accelerator::Accelerator;
    use pixel_core::config::{AcceleratorConfig, Design};
    use pixel_core::power::{macs_per_second_per_watt, power_report};

    let mut s = String::from("des  |  avg power [W]  laser [W]  heaters [W]  |  GMAC/s/W\n");
    for design in Design::ALL {
        let report =
            Accelerator::new(AcceleratorConfig::new(design, 4, 16)).evaluate(&zoo::zfnet());
        let p = power_report(&report);
        s.push_str(&format!(
            "{:<4} | {:>14.3} {:>10.3} {:>12.3}  | {:>9.3}\n",
            design.label(),
            p.average.value(),
            p.laser_wall_plug.value(),
            p.thermal_tuning.value(),
            macs_per_second_per_watt(&report) / 1e9,
        ));
    }
    s
}

/// Extension artifact: sensitivity ablations on the calibrated
/// constants, then the EE datapath's component choices against their
/// textbook baselines.
#[must_use]
pub fn ablation() -> String {
    let _span = pixel_obs::span("ablation");
    use pixel_core::ablation;
    let mut s = String::from("MRR energy scale (×100 fJ/bit) | OE improvement  OO improvement\n");
    for p in ablation::mrr_energy_sensitivity(&[0.5, 1.0, 2.0, 5.0]) {
        s.push_str(&format!(
            "{:>30.1} | {:>13.1}% {:>15.1}%\n",
            p.parameter,
            p.oe_improvement * 100.0,
            p.oo_improvement * 100.0
        ));
    }
    s.push_str("\nresync cycles per extra chunk  | OE improvement  OO improvement\n");
    for p in ablation::resync_sensitivity(&[0.0, 3.0, 6.0, 12.0]) {
        s.push_str(&format!(
            "{:>30.1} | {:>13.1}% {:>15.1}%\n",
            p.parameter,
            p.oe_improvement * 100.0,
            p.oo_improvement * 100.0
        ));
    }
    s.push_str(
        "\nwidth | CLA gates  delay [ns] | RCA gates  delay [ns] | STR lane gates | array gates  depth\n",
    );
    for c in pixel_core::model::ee::component_baselines(&[4, 8, 16, 32]) {
        s.push_str(&format!(
            "{:>5} | {:>9} {:>11.2} | {:>9} {:>11.2} | {:>14} | {:>11} {:>6}\n",
            c.width,
            c.cla_gates,
            c.cla_delay.as_nanos(),
            c.rca_gates,
            c.rca_delay.as_nanos(),
            c.stripes_lane_gates,
            c.array_gates,
            c.array_depth,
        ));
    }
    s
}

/// Extension artifact: link-budget scalability bounds (§III-C(ii)).
#[must_use]
pub fn scaling() -> String {
    let _span = pixel_obs::span("scaling");
    use pixel_core::config::Design;
    use pixel_core::scaling::{max_supported_tiles, scaling_sweep};

    let mut s = String::from("tiles  | OE required [mW] feasible | OO required [mW] feasible\n");
    for &tiles in &[16usize, 256, 4096, 65_536] {
        let oe = &scaling_sweep(Design::Oe, &[tiles])[0];
        let oo = &scaling_sweep(Design::Oo, &[tiles])[0];
        s.push_str(&format!(
            "{tiles:>6} | {:>16.3} {:>8} | {:>16.3} {:>8}\n",
            oe.required_power.as_milliwatts(),
            oe.feasible,
            oo.required_power.as_milliwatts(),
            oo.feasible,
        ));
    }
    s.push_str(&format!(
        "\nmax tiles at 10 mW/wavelength: OE {}, OO {}\n",
        max_supported_tiles(Design::Oe, 10_000_000),
        max_supported_tiles(Design::Oo, 10_000_000),
    ));
    s
}

/// Extension artifact: OO multiply correctness under receiver noise.
#[must_use]
pub fn noise() -> String {
    let _span = pixel_obs::span("noise");
    use pixel_core::robustness::noise_sweep;
    let seed = pixel_core::seed::artifact_seed("noise", 42);
    let mut s = String::from("sigma |  correct  silent-err  detected | analytic slot err\n");
    for p in noise_sweep(8, &[0.0, 0.1, 0.2, 0.3, 0.5], 1_000, seed) {
        s.push_str(&format!(
            "{:>5.2} | {:>8.4} {:>11.4} {:>9.4} | {:>17.2e}\n",
            p.sigma, p.correct_rate, p.silent_error_rate, p.detected_rate, p.analytic_slot_error
        ));
    }
    s
}

/// Extension artifact: roofline bounds per design.
#[must_use]
pub fn roofline() -> String {
    let _span = pixel_obs::span("roofline");
    use pixel_core::config::{AcceleratorConfig, Design};
    use pixel_core::roofline::roofline;
    let mut s = String::from(
        "des  bits | compute roof [GMAC/s]  ingress [Gbit/s]  bound [GMAC/s]  limiter\n",
    );
    for design in Design::ALL {
        for bits in [4u32, 8, 16, 32] {
            let r = roofline(&AcceleratorConfig::new(design, 8, bits));
            s.push_str(&format!(
                "{:<4} {bits:>4} | {:>21.2} {:>17.1} {:>15.2}  {}\n",
                design.label(),
                r.compute_roof_macs_per_s / 1e9,
                r.ingress_bits_per_s / 1e9,
                r.bound_macs_per_s / 1e9,
                if r.compute_bound() {
                    "compute"
                } else {
                    "ingress"
                },
            ));
        }
    }
    s
}

/// Extension artifact: Table I generalized — per-layer op counts for all
/// six evaluated networks.
#[must_use]
pub fn counts() -> String {
    let _span = pixel_obs::span("counts");
    let mut s = String::new();
    for net in zoo::all_networks() {
        s.push_str(&format!("-- {} --\n", net.name()));
        s.push_str("layer        |      MVM       Mul       Add       Act   [millions]\n");
        for c in analyze_network(&net) {
            #[allow(clippy::cast_precision_loss)]
            let m = |v: u64| v as f64 / 1e6;
            s.push_str(&format!(
                "{:<12} | {:>8.2} {:>9.1} {:>9.1} {:>9.3}\n",
                c.name,
                m(c.mvm),
                m(c.mul),
                m(c.add),
                m(c.act)
            ));
        }
        s.push('\n');
    }
    s
}

/// Extension artifact: activity audit — counted lit/toggle rates from the
/// bit-true functional MACs vs the analytic activity factors the energy
/// model assumes, per design.
#[must_use]
pub fn audit() -> String {
    let _span = pixel_obs::span("audit");
    let seed = pixel_core::seed::artifact_seed("audit", 2020);
    let rows = pixel_core::audit::activity_audit(4, 8, 200, 16, seed);
    let mut s = report::format_audit(&rows);
    s.push_str("\n(200 windows x 16 uniform 8-bit operand pairs per design)\n");
    s
}

/// Extension artifact: PAM-4 line-coding ablation on the optical latency.
#[must_use]
pub fn pam() -> String {
    let _span = pixel_obs::span("pam");
    use pixel_core::config::Design;
    use pixel_core::pam::pam4_sweep;
    let mut s =
        String::from("bits |  OE PAM-4/OOK latency  |  OO PAM-4/OOK latency  (modulation ×1.5)\n");
    let oe = pam4_sweep(Design::Oe, &[4, 8, 16, 32]);
    let oo = pam4_sweep(Design::Oo, &[4, 8, 16, 32]);
    for (a, b) in oe.iter().zip(&oo) {
        s.push_str(&format!(
            "{:>4} | {:>21.3} | {:>21.3}\n",
            a.bits, a.latency_ratio, b.latency_ratio
        ));
    }
    s
}

/// Extension artifact: inference-serving saturation sweep — offered
/// load × design through the discrete-event simulator, locating each
/// design's saturation knee under the multi-tenant paper mix.
#[must_use]
pub fn serve() -> String {
    let _span = pixel_obs::span("serve");
    use pixel_serve::arrivals::Workload;
    use pixel_serve::saturation::{render_curves, saturation_sweep, SweepSpec};

    let workload = Workload::paper_mix();
    let spec = SweepSpec::artifact(pixel_core::seed::artifact_seed("serve", 2026));
    let curves = saturation_sweep(&SweepEngine::with_default_jobs(), &workload, &spec);
    opts::record_metrics(&pixel_serve::metrics_jsonl(&workload, &spec, &curves));
    render_curves(&workload, &spec, &curves)
}

/// Extension artifact: sharded fleet serving sweep — routing policy ×
/// shard count × tenant mix through the multi-shard fleet simulator,
/// reporting the knee shift from batch-aware routing, per-tenant
/// p99-vs-SLO attainment, and the energy the reactive autoscaler
/// recovers at low load.
#[must_use]
pub fn fleet() -> String {
    let _span = pixel_obs::span("fleet");
    use pixel_fleet::sweep::{fleet_sweep, metrics_jsonl, render_fleet, FleetSweepSpec};

    let seed = pixel_core::seed::artifact_seed("fleet", 2026);
    let spec = if opts::quick() {
        FleetSweepSpec::quick(seed)
    } else {
        FleetSweepSpec::artifact(seed)
    };
    let sweep = fleet_sweep(&SweepEngine::with_default_jobs(), &spec);
    opts::record_metrics(&metrics_jsonl(&spec, &sweep));
    render_fleet(&spec, &sweep)
}

/// One row of the flightrec latency-decomposition table.
fn breakdown_row(label: &str, b: &pixel_serve::LatencyBreakdown) -> String {
    #[allow(clippy::cast_precision_loss)]
    let ms = |ns: u64| ns as f64 / 1e6;
    format!(
        "{label:<22} | {:>6} | {:>8.3} {:>8.3} {:>8.3} | {:>8.3} {:>8.3} {:>8.3}\n",
        b.count(),
        ms(b.wait.percentile(0.50)),
        ms(b.wait.percentile(0.95)),
        ms(b.wait.percentile(0.99)),
        ms(b.service.percentile(0.50)),
        ms(b.service.percentile(0.95)),
        ms(b.service.percentile(0.99)),
    )
}

/// Extension artifact: flight-recorder deep dive on one serving run —
/// the OO fabric near its saturation knee — with the full event-count
/// ledger, the windowed trajectory (throughput, queue depth, busy
/// fraction, integrated power), the queue-wait vs service-time latency
/// decomposition per tenant and per network, and the last buffered
/// lifecycle events. Everything runs on the virtual clock, so the
/// rendering is bitwise reproducible.
#[must_use]
pub fn flightrec() -> String {
    let _span = pixel_obs::span("flightrec");
    use pixel_core::config::{AcceleratorConfig, Design};
    use pixel_core::model::EvalContext;
    use pixel_serve::saturation::reference_capacity;
    use pixel_serve::{simulate_with_flightrec, ServeConfig, Workload};

    let workload = Workload::paper_mix();
    let ctx = EvalContext::new();
    let accel = AcceleratorConfig::new(Design::Oo, 4, 16);
    let requests = if opts::quick() { 400 } else { 3000 };
    let capacity = reference_capacity(&ctx, &workload, &accel, 8);
    let seed = pixel_core::seed::artifact_seed("flightrec", 2026);
    let config = ServeConfig::new(accel, capacity * 0.85, requests, seed);
    let (report, flight) = simulate_with_flightrec(&workload, &ctx, &config, 4096);

    // The machine-readable twin of this artifact: the buffered event
    // ring plus the windowed series, drained by `reproduce --metrics`.
    opts::record_metrics(&flight.recorder.to_jsonl());
    opts::record_metrics(&report.windows.to_jsonl(""));

    let static_power = accel.design.model().static_power(&accel);
    let static_w = (static_power.laser_wall_plug + static_power.thermal_tuning).value();

    let mut s = format!(
        "OO (4 lanes, 16 bits/lane) | offered {:.1} inf/s (0.85 x capacity {:.1}) | {} requests | seed {}\n",
        config.rate_hz, capacity, requests, seed,
    );
    let c = flight.recorder.counts();
    s.push_str(&format!(
        "events: {} total | arrive {} enqueue {} shed {} batch_formed {} service_start {} service_end {}\n",
        flight.recorder.total(),
        c[0],
        c[1],
        c[2],
        c[3],
        c[4],
        c[5],
    ));
    s.push_str(&format!(
        "ring: last {} of {} buffered ({} evicted)\n",
        flight.recorder.events().len(),
        flight.recorder.capacity(),
        flight.recorder.dropped(),
    ));

    s.push_str("\n-- windowed trajectory --\n");
    s.push_str(&report.windows.render(static_w));

    s.push_str("\n-- latency decomposition [ms] --\n");
    s.push_str(&format!(
        "{:<22} | {:>6} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}\n",
        "population", "count", "wait p50", "p95", "p99", "svc p50", "p95", "p99"
    ));
    s.push_str(&breakdown_row("overall", &flight.overall));
    for (tenant, b) in workload.tenants().iter().zip(&flight.tenants) {
        s.push_str(&breakdown_row(&format!("tenant {}", tenant.name), b));
    }
    for (net, b) in workload.networks().iter().zip(&flight.networks) {
        s.push_str(&breakdown_row(&format!("net {}", net.name()), b));
    }

    s.push_str("\n-- last events --\n");
    let events = flight.recorder.events();
    let tail = events.len().saturating_sub(12);
    for event in events.iter().skip(tail) {
        s.push_str(&event.describe());
        s.push('\n');
    }
    s
}

/// Extension artifact: the workspace architecture graph — crate layers,
/// dependency edges with witness files, the backend-isolation and
/// hash-order verdicts, and a DOT rendering — produced by the
/// structural `pixel-lint` pass over the repository sources. The
/// rendering is path-sorted, so it is byte-identical at any `--jobs`.
#[must_use]
pub fn archgraph() -> String {
    let _span = pixel_obs::span("archgraph");
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.ancestors().nth(2).unwrap_or(manifest);
    match pixel_lint::cli::archgraph(root, pixel_core::sweep::default_jobs()) {
        Ok(rendered) => rendered,
        Err(err) => format!("archgraph error: {err}\n"),
    }
}

/// Extension artifact: photonic weight pre-load vs compute cost.
#[must_use]
pub fn weights() -> String {
    let _span = pixel_obs::span("weights");
    use pixel_core::accelerator::Accelerator;
    use pixel_core::config::{AcceleratorConfig, Design};
    use pixel_core::weight_streaming::{network_weight_load, totals};

    let mut s = String::from(
        "network    |  weights   preload [mJ]  preload [ms] | compute [mJ] compute [ms]\n",
    );
    let config = AcceleratorConfig::new(Design::Oo, 4, 16);
    for net in zoo::all_networks() {
        let (e, t, w) = totals(&network_weight_load(&config, &net));
        let compute = Accelerator::new(config).evaluate(&net);
        s.push_str(&format!(
            "{:<10} | {:>8} {:>14.3} {:>13.3} | {:>12.1} {:>12.1}\n",
            net.name(),
            w,
            e.as_millijoules(),
            t.as_millis(),
            compute.total_energy().as_millijoules(),
            compute.total_latency().as_millis(),
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_artifact_renders_without_nan() {
        for (name, text) in [
            ("table1", table1()),
            ("table2", table2()),
            ("fig4", fig4()),
            ("fig5", fig5()),
            ("fig6", fig6()),
            ("fig7", fig7()),
            ("fig8", fig8()),
            ("fig9", fig9()),
            ("fig10", fig10()),
            ("audit", audit()),
        ] {
            assert!(!text.contains("NaN"), "{name} contains NaN:\n{text}");
            assert!(text.lines().count() > 2, "{name} too short");
        }
    }

    #[test]
    fn table1_headline_row() {
        let t = table1();
        let conv1 = t.lines().find(|l| l.starts_with("Conv1 ")).unwrap();
        assert!(conv1.contains("9.63"), "{conv1}");
        assert!(conv1.contains("86.7"), "{conv1}");
        assert!(conv1.contains("[224,224,3]"), "{conv1}");
    }
}
