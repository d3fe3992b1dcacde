//! Activity audit: counted device activity vs the analytic activity
//! factors the energy model assumes.
//!
//! The analytic energy model charges switching energy proportional to
//! *activity factors* — what fraction of streamed slots carry a one
//! (lit rate, driving static gating/detection energy) and how often
//! adjacent slots transition (toggle rate, driving dynamic CV² energy).
//! For uniformly random `b`-bit operands those factors have closed
//! forms per design:
//!
//! * **EE** — Stripes streams each synapse word bit-serially; adjacent
//!   slots are independent fair bits, so lit rate = 1/2 and toggle
//!   rate = 1/2.
//! * **OE / OO** — each partial-product train is the neuron word gated
//!   by one synapse bit. A slot is lit iff both its neuron bit and the
//!   gate are one: lit rate = 1/4. Adjacent slots *share* the gate, so
//!   a pair toggles iff the gate is one and the neuron bits differ:
//!   toggle rate = 1/4 (not the naive `2·p·(1−p) = 3/8` an independent
//!   model would predict — the audit exists to catch exactly this kind
//!   of correlation).
//!
//! [`activity_audit`] runs random inner products through the bit-true
//! functional MACs, adds up the [`ActivityTally`] each one's load
//! returns, and reports counted vs analytic rates with relative errors. It is a
//! `reproduce` artifact (`reproduce audit`) and an integration-tested
//! invariant: the simulation's measured activity must match what the
//! model multiplies by.

use crate::config::{AcceleratorConfig, Design};
use pixel_dnn::inference::{ActivityTally, MacEngine, PerWindow};
use pixel_units::rng::SplitMix64;

/// Counted-vs-analytic activity of one design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityAuditRow {
    /// Design audited.
    pub design: Design,
    /// Slots measured by the functional execution.
    pub slots: u64,
    /// Counted fraction of lit slots.
    pub counted_lit_rate: f64,
    /// Closed-form lit rate for uniform operands.
    pub analytic_lit_rate: f64,
    /// Counted fraction of toggling adjacent-slot pairs.
    pub counted_toggle_rate: f64,
    /// Closed-form toggle rate for uniform operands.
    pub analytic_toggle_rate: f64,
}

impl ActivityAuditRow {
    /// Relative error of the counted lit rate vs the closed form.
    #[must_use]
    pub fn lit_rel_error(&self) -> f64 {
        rel_error(self.counted_lit_rate, self.analytic_lit_rate)
    }

    /// Relative error of the counted toggle rate vs the closed form.
    #[must_use]
    pub fn toggle_rel_error(&self) -> f64 {
        rel_error(self.counted_toggle_rate, self.analytic_toggle_rate)
    }
}

fn rel_error(counted: f64, analytic: f64) -> f64 {
    (counted - analytic).abs() / analytic
}

/// Closed-form (lit, toggle) activity factors for uniform operands,
/// dispatched through the design's [`crate::model::DesignModel`]
/// backend (where the per-design reasoning lives).
#[must_use]
pub fn analytic_activity(design: Design) -> (f64, f64) {
    design.model().analytic_activity()
}

/// Audits every design: runs `windows` random inner products of
/// `window_len` uniform `bits`-bit operands through the functional MAC
/// and compares counted lit/toggle rates against the closed forms.
///
/// # Panics
///
/// Panics if `windows` or `window_len` is zero, or if `window_len` is
/// not a multiple of `lanes` (partial chunks would zero-pad the lanes
/// and bias the counted rates with artificial dark slots).
#[must_use]
pub fn activity_audit(
    lanes: usize,
    bits: u32,
    windows: usize,
    window_len: usize,
    seed: u64,
) -> Vec<ActivityAuditRow> {
    assert!(windows > 0 && window_len > 0, "audit needs work to measure");
    assert!(
        lanes > 0 && window_len.is_multiple_of(lanes),
        "window_len must fill whole lane chunks"
    );
    let limit = (1u64 << bits) - 1;
    Design::ALL
        .iter()
        .map(|&design| {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let config = AcceleratorConfig::new(design, lanes, bits);
            let mac = design.model().functional_engine(&config);
            let per_window = PerWindow(mac.as_ref());
            let mut activity = ActivityTally::default();
            for _ in 0..windows {
                let n: Vec<u64> = (0..window_len).map(|_| rng.range_u64(0, limit)).collect();
                let s: Vec<u64> = (0..window_len).map(|_| rng.range_u64(0, limit)).collect();
                let mut loaded = per_window.load(&s, window_len);
                loaded.fire(&n, &mut [0]);
                activity += loaded.finish();
            }
            let (lit, toggle) = analytic_activity(design);
            ActivityAuditRow {
                design,
                slots: activity.gated_slots,
                counted_lit_rate: activity.lit_rate(),
                analytic_lit_rate: lit,
                counted_toggle_rate: activity.toggle_rate(),
                analytic_toggle_rate: toggle,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counted_rates_match_closed_forms_for_every_design() {
        // 200 windows × 16 operands at 8 bits gives ≥25k measured slots
        // per design; sampling error on the rates is well under 3%.
        for row in activity_audit(4, 8, 200, 16, 0xA0D1) {
            assert!(row.slots > 10_000, "{row:?}");
            assert!(
                row.lit_rel_error() < 0.03,
                "{} lit {} vs {}",
                row.design,
                row.counted_lit_rate,
                row.analytic_lit_rate
            );
            assert!(
                row.toggle_rel_error() < 0.03,
                "{} toggle {} vs {}",
                row.design,
                row.counted_toggle_rate,
                row.analytic_toggle_rate
            );
        }
    }

    #[test]
    fn audit_covers_all_three_designs_in_order() {
        let rows = activity_audit(4, 4, 10, 8, 1);
        let designs: Vec<Design> = rows.iter().map(|r| r.design).collect();
        assert_eq!(designs, Design::ALL.to_vec());
    }

    #[test]
    fn gated_designs_show_the_shared_gate_correlation() {
        // The defining signature: OE/OO toggle rate ≈ 1/4, visibly below
        // the independent-slot prediction 2·p·(1−p) = 3/8.
        let rows = activity_audit(4, 8, 100, 16, 2);
        for row in rows.iter().filter(|r| r.design != Design::Ee) {
            assert!(
                row.counted_toggle_rate < 0.3,
                "{}: {}",
                row.design,
                row.counted_toggle_rate
            );
        }
    }
}
