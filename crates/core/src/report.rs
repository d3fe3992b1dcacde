//! Plain-text table formatting for the reproduction artifacts.
//!
//! Used by the `reproduce` binary and EXPERIMENTS.md generation; kept in
//! the library so the snapshot tests pin the same output.

use crate::audit::ActivityAuditRow;
use crate::dse::{
    AreaPoint, ComponentEnergyBar, EnergyPerBitPoint, LatencyPoint, LayerLatencyPoint,
    NormalizedPoint, TableIiRow,
};
use crate::energy::EnergyBreakdown;
use std::fmt::Write as _;

/// Renders the activity audit: counted vs analytic lit/toggle rates.
#[must_use]
pub fn format_audit(rows: &[ActivityAuditRow]) -> String {
    let mut s = String::from(
        "des  |    slots |  lit counted  analytic  rel-err | tog counted  analytic  rel-err\n",
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<4} | {:>8} | {:>12.4} {:>9.2} {:>7.2}% | {:>11.4} {:>9.2} {:>7.2}%",
            r.design.label(),
            r.slots,
            r.counted_lit_rate,
            r.analytic_lit_rate,
            r.lit_rel_error() * 100.0,
            r.counted_toggle_rate,
            r.analytic_toggle_rate,
            r.toggle_rel_error() * 100.0,
        );
    }
    s
}

/// Renders a Fig. 4-style table: rows = (lanes, bits), columns = designs.
#[must_use]
pub fn format_energy_per_bit(points: &[EnergyPerBitPoint]) -> String {
    let mut s = String::from("lanes bits |    EE [pJ/b]    OE [pJ/b]    OO [pJ/b]\n");
    let mut keys: Vec<(usize, u32)> = points.iter().map(|p| (p.lanes, p.bits)).collect();
    keys.sort_unstable();
    keys.dedup();
    for (lanes, bits) in keys {
        let value = |d| {
            points
                .iter()
                .find(|p| p.design == d && p.lanes == lanes && p.bits == bits)
                .map_or(f64::NAN, |p| p.energy_per_bit * 1e12)
        };
        let _ = writeln!(
            s,
            "{lanes:>5} {bits:>4} | {:>12.3} {:>12.3} {:>12.3}",
            value(crate::config::Design::Ee),
            value(crate::config::Design::Oe),
            value(crate::config::Design::Oo),
        );
    }
    s
}

/// Renders one energy breakdown as a Table II-style row body \[mJ\].
#[must_use]
pub fn format_breakdown_row(b: &EnergyBreakdown) -> String {
    format!(
        "{:>9.1} {:>8.1} {:>7.2} {:>7.1} {:>7.1} {:>7.1}",
        b.mul.as_millijoules(),
        b.add.as_millijoules(),
        b.act.as_millijoules(),
        b.oe.as_millijoules(),
        b.comm.as_millijoules(),
        b.laser.as_millijoules(),
    )
}

/// Renders Table II.
#[must_use]
pub fn format_table2(rows: &[TableIiRow]) -> String {
    let mut s =
        String::from("CNN        Des |      Mul      Add     Act     o/e    Comm   Laser  [mJ]\n");
    for row in rows {
        let _ = writeln!(
            s,
            "{:<10} {:<3} | {}",
            row.network,
            row.design.label(),
            format_breakdown_row(&row.breakdown)
        );
    }
    s
}

/// Renders the Fig. 5 component bars.
#[must_use]
pub fn format_components(bars: &[ComponentEnergyBar]) -> String {
    let mut s = String::from(
        "network    des bits |      Mul      Add     Act     o/e    Comm   Laser  [mJ]\n",
    );
    for bar in bars {
        let _ = writeln!(
            s,
            "{:<10} {:<3} {:>4} | {}",
            bar.network,
            bar.design.label(),
            bar.bits,
            format_breakdown_row(&bar.breakdown)
        );
    }
    s
}

/// Renders the Fig. 6 area series \[mm²\].
#[must_use]
pub fn format_area(points: &[AreaPoint]) -> String {
    let mut s = String::from("lanes |     EE [mm²]     OE [mm²]     OO [mm²]\n");
    let mut lanes: Vec<usize> = points.iter().map(|p| p.lanes).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for l in lanes {
        let value = |d| {
            points
                .iter()
                .find(|p| p.design == d && p.lanes == l)
                .map_or(f64::NAN, |p| p.area.as_square_millimetres())
        };
        let _ = writeln!(
            s,
            "{l:>5} | {:>12.4} {:>12.4} {:>12.4}",
            value(crate::config::Design::Ee),
            value(crate::config::Design::Oe),
            value(crate::config::Design::Oo),
        );
    }
    s
}

/// Renders normalized bars (Figs. 7/10): rows = (network, bits).
#[must_use]
pub fn format_normalized(points: &[NormalizedPoint], metric: &str) -> String {
    let mut s = format!("network    bits | normalized {metric} (EE = 1.0)   EE     OE     OO\n");
    let mut keys: Vec<(String, u32)> = points.iter().map(|p| (p.network.clone(), p.bits)).collect();
    keys.sort();
    keys.dedup();
    for (net, bits) in keys {
        let value = |d| {
            points
                .iter()
                .find(|p| p.design == d && p.network == net && p.bits == bits)
                .map_or(f64::NAN, |p| p.normalized)
        };
        let _ = writeln!(
            s,
            "{net:<10} {bits:>4} | {:>36.3} {:>6.3} {:>6.3}",
            value(crate::config::Design::Ee),
            value(crate::config::Design::Oe),
            value(crate::config::Design::Oo),
        );
    }
    s
}

/// Renders the Fig. 8 latency series \[ms\].
#[must_use]
pub fn format_latency(points: &[LatencyPoint]) -> String {
    let mut s = String::from("bits |      EE [ms]      OE [ms]      OO [ms]\n");
    let mut bits: Vec<u32> = points.iter().map(|p| p.bits).collect();
    bits.sort_unstable();
    bits.dedup();
    for b in bits {
        let value = |d| {
            points
                .iter()
                .find(|p| p.design == d && p.bits == b)
                .map_or(f64::NAN, |p| p.latency_geomean * 1e3)
        };
        let _ = writeln!(
            s,
            "{b:>4} | {:>12.3} {:>12.3} {:>12.3}",
            value(crate::config::Design::Ee),
            value(crate::config::Design::Oe),
            value(crate::config::Design::Oo),
        );
    }
    s
}

/// Renders the Fig. 9 per-layer latency series \[ms\].
#[must_use]
pub fn format_layer_latency(points: &[LayerLatencyPoint]) -> String {
    let mut s = String::from("layer    |      EE [ms]      OE [ms]      OO [ms]\n");
    let mut layers: Vec<String> = Vec::new();
    for p in points {
        if !layers.contains(&p.layer) {
            layers.push(p.layer.clone());
        }
    }
    for layer in layers {
        let value = |d| {
            points
                .iter()
                .find(|p| p.design == d && p.layer == layer)
                .map_or(f64::NAN, |p| p.latency * 1e3)
        };
        let _ = writeln!(
            s,
            "{layer:<8} | {:>12.3} {:>12.3} {:>12.3}",
            value(crate::config::Design::Ee),
            value(crate::config::Design::Oe),
            value(crate::config::Design::Oo),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse;
    use crate::sweep::SweepEngine;

    #[test]
    fn table2_formats_all_rows() {
        let rows = dse::table2_breakdown(&SweepEngine::with_default_jobs());
        let text = format_table2(&rows);
        assert!(text.contains("ResNet-34"));
        assert!(text.contains("GoogLeNet"));
        assert!(text.contains("ZFNet"));
        assert_eq!(text.lines().count(), 10); // header + 9 rows
    }

    #[test]
    fn energy_per_bit_table_has_sorted_keys() {
        let points = dse::fig4_energy_per_bit(&SweepEngine::with_default_jobs(), &[8, 2], &[8, 4]);
        let text = format_energy_per_bit(&points);
        let first_data_line = text.lines().nth(1).unwrap();
        assert!(first_data_line.trim_start().starts_with("2    4"));
    }

    #[test]
    fn area_table_renders() {
        let points = dse::fig6_area(&SweepEngine::with_default_jobs(), &[2, 4]);
        let text = format_area(&points);
        assert_eq!(text.lines().count(), 3);
        assert!(!text.contains("NaN"));
    }

    #[test]
    fn layer_latency_preserves_network_order() {
        let points = dse::fig9_zfnet_layer_latency(&SweepEngine::with_default_jobs());
        let text = format_layer_latency(&points);
        let conv1_pos = text.find("Conv1").unwrap();
        let fc3_pos = text.find("FC3").unwrap();
        assert!(conv1_pos < fc3_pos);
    }
}
