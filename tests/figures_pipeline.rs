//! Smoke tests over the full figure/table regeneration pipeline: every
//! artifact renders, contains no NaN/inf, and keeps its qualitative
//! ordering.

use pixel::core::config::Design;
use pixel::core::dse;
use pixel::core::sweep::SweepEngine;
use pixel::dnn::zoo;

#[test]
fn all_artifact_strings_render() {
    for (name, text) in [
        ("table1", pixel_bench::table1()),
        ("table2", pixel_bench::table2()),
        ("fig4", pixel_bench::fig4()),
        ("fig5", pixel_bench::fig5()),
        ("fig6", pixel_bench::fig6()),
        ("fig7", pixel_bench::fig7()),
        ("fig8", pixel_bench::fig8()),
        ("fig9", pixel_bench::fig9()),
        ("fig10", pixel_bench::fig10()),
        ("power", pixel_bench::power()),
        ("scaling", pixel_bench::scaling()),
        ("weights", pixel_bench::weights()),
        ("pam", pixel_bench::pam()),
        ("counts", pixel_bench::counts()),
        ("ablation", pixel_bench::ablation()),
        ("noise", pixel_bench::noise()),
        ("roofline", pixel_bench::roofline()),
    ] {
        assert!(!text.is_empty(), "{name} rendered empty");
        assert!(!text.contains("NaN"), "{name} contains NaN");
        assert!(!text.contains("inf"), "{name} contains inf");
        assert!(text.lines().count() > 2, "{name} suspiciously short");
    }
}

#[test]
fn fig5_components_cover_every_cell() {
    let nets = [zoo::alexnet(), zoo::lenet(), zoo::vgg16()];
    let bars = dse::fig5_component_energy(&SweepEngine::with_default_jobs(), &nets, &[4, 8, 16]);
    // 3 networks × 3 designs × 3 bit widths.
    assert_eq!(bars.len(), 27);
    for bar in &bars {
        assert!(bar.breakdown.total().value() > 0.0);
        assert!(bar.breakdown.total().is_finite());
        if bar.design == Design::Ee {
            assert!(bar.breakdown.laser.value().abs() < 1e-18, "EE has no laser");
        }
    }
}

#[test]
fn fig7_and_fig10_are_normalized_to_ee() {
    let nets = zoo::all_networks();
    for points in [
        dse::fig7_normalized_energy(&SweepEngine::with_default_jobs(), &nets, &[4, 16]),
        dse::fig10_normalized_edp(&SweepEngine::with_default_jobs(), &nets, &[4, 16]),
    ] {
        for p in points.iter().filter(|p| p.design == Design::Ee) {
            assert!(
                (p.normalized - 1.0).abs() < 1e-12,
                "EE normalizes to 1.0, got {} for {}",
                p.normalized,
                p.network
            );
        }
        assert!(points.iter().all(|p| p.normalized.is_finite()));
    }
}

#[test]
fn fig8_covers_full_bits_range() {
    let nets = [zoo::lenet()];
    let bits: Vec<u32> = (1..=32).collect();
    let points = dse::fig8_latency_geomean(&SweepEngine::with_default_jobs(), &nets, &bits);
    assert_eq!(points.len(), 3 * 32);
    assert!(points.iter().all(|p| p.latency_geomean > 0.0));
}

#[test]
fn table2_respects_paper_orderings() {
    let rows = dse::table2_breakdown(&SweepEngine::with_default_jobs());
    for net in ["ResNet-34", "GoogLeNet", "ZFNet"] {
        let get = |d: Design| {
            rows.iter()
                .find(|r| r.network == net && r.design == d)
                .unwrap()
                .breakdown
        };
        let (ee, oe, oo) = (get(Design::Ee), get(Design::Oe), get(Design::Oo));
        assert!(oe.mul < ee.mul, "{net}: optical mul wins");
        assert!(oo.add < oe.add, "{net}: MZI add wins");
        assert!(oo.laser > oe.laser, "{net}: OO laser premium");
        assert!(
            (oe.act.value() - oo.act.value()).abs() < 1e-15,
            "{net}: act identical"
        );
        assert!(
            oo.total() < oe.total() && oe.total() < ee.total(),
            "{net}: totals"
        );
    }
}
