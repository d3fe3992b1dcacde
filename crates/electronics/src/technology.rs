//! The 22 nm technology model (DSENT's `Bulk22LVT` equivalent).
//!
//! The paper characterizes electrical logic by feeding gate counts into
//! DSENT's 22 nm low-Vt bulk model. We expose the four coefficients that
//! flow actually consumes, calibrated to the paper's worked example
//! (§IV-A1): a 212-gate, logic-depth-10 CLA occupies ≈0.07 (µm²-scale
//! figure as printed), draws 0.17 µW of static power, and has a 2.95 ns
//! critical-path delay.

use pixel_units::{Area, Energy, Power, Time};

/// Per-gate coefficients of a CMOS technology node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Technology {
    /// Dynamic energy per gate per switching event.
    pub energy_per_gate_switch: Energy,
    /// Layout area per gate.
    pub area_per_gate: Area,
    /// Static (leakage) power per gate.
    pub leakage_per_gate: Power,
    /// Propagation delay per logic level.
    pub delay_per_level: Time,
}

impl Technology {
    /// The `Bulk22LVT` model as used by the paper.
    ///
    /// * `delay_per_level` = 2.95 ns / 10 levels = 0.295 ns (paper §IV-A1).
    /// * `leakage_per_gate` = 0.17 µW / 212 gates ≈ 0.8 nW.
    /// * `area_per_gate` = 0.5 µm² — a physical 22 nm standard-cell figure;
    ///   the paper's printed "0.07 nm²" for 212 gates is dimensionally
    ///   inconsistent (DESIGN.md §6) so we substitute a realistic value.
    /// * `energy_per_gate_switch` = 0.8 fJ — representative 22 nm dynamic
    ///   energy; absolute energy scaling is recalibrated against Table II
    ///   in `pixel-core::calibration`.
    #[must_use]
    pub fn bulk22lvt() -> Self {
        Self {
            energy_per_gate_switch: Energy::from_femtojoules(0.8),
            area_per_gate: Area::from_square_micrometres(0.5),
            leakage_per_gate: Power::new(0.17e-6 / 212.0),
            delay_per_level: Time::from_nanos(0.295),
        }
    }
}

impl Default for Technology {
    fn default() -> Self {
        Self::bulk22lvt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk22lvt_reproduces_cla_example() {
        let t = Technology::bulk22lvt();
        // 212 gates → 0.17 µW static power.
        assert!((t.leakage_per_gate.value() * 212.0 - 0.17e-6).abs() < 1e-12);
        // Depth 10 → 2.95 ns.
        assert!((t.delay_per_level.as_nanos() * 10.0 - 2.95).abs() < 1e-9);
    }
}
