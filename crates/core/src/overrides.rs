//! Model overrides for sensitivity / ablation studies.
//!
//! The evaluation models read their coefficients from
//! [`crate::calibration`]; an [`ModelOverrides`] value scales or replaces
//! the ones DESIGN.md flags as uncertain, so `reproduce ablation` can ask
//! "how much does the conclusion depend on this constant?".

/// Multiplicative and absolute overrides on the calibrated model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelOverrides {
    /// Scale on the MRR drive energy (1.0 = the 100 fJ/bit device; 5.0 =
    /// the paper's 500 fJ worked example).
    pub mrr_energy_scale: f64,
    /// Scale on the OO design's fixed per-word accumulation cost.
    pub oo_add_fixed_scale: f64,
    /// Scale on the o/e conversion cost (fixed and per-bit parts).
    pub oe_conversion_scale: f64,
    /// Receiver re-synchronization cost in electrical cycles per extra
    /// optical chunk (calibrated: 6).
    pub resync_cycles: f64,
    /// EE datapath throughput in cycles per operand bit (calibrated: 0.35).
    pub ee_cycles_per_bit: f64,
}

impl ModelOverrides {
    /// The calibrated model (all scales 1.0, calibrated cycle costs).
    #[must_use]
    pub fn calibrated() -> Self {
        Self {
            mrr_energy_scale: 1.0,
            oo_add_fixed_scale: 1.0,
            oe_conversion_scale: 1.0,
            resync_cycles: crate::calibration::RESYNC_CYCLES,
            ee_cycles_per_bit: crate::calibration::EE_CYCLES_PER_BIT,
        }
    }

    /// The paper's §IV-C worked-example MRR energy (500 fJ/bit).
    #[must_use]
    pub fn worked_example_mrr() -> Self {
        Self {
            mrr_energy_scale: 5.0,
            ..Self::calibrated()
        }
    }

    /// Returns a copy with a different re-synchronization cost.
    #[must_use]
    pub fn with_resync(mut self, cycles: f64) -> Self {
        self.resync_cycles = cycles;
        self
    }

    /// Returns a copy with a different MRR energy scale.
    #[must_use]
    pub fn with_mrr_scale(mut self, scale: f64) -> Self {
        self.mrr_energy_scale = scale;
        self
    }
}

impl Default for ModelOverrides {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_is_identity() {
        let o = ModelOverrides::calibrated();
        assert!((o.mrr_energy_scale - 1.0).abs() < 1e-12);
        assert!((o.resync_cycles - 6.0).abs() < 1e-12);
        assert_eq!(o, ModelOverrides::default());
    }

    #[test]
    fn builders() {
        let o = ModelOverrides::calibrated()
            .with_resync(2.0)
            .with_mrr_scale(5.0);
        assert!((o.resync_cycles - 2.0).abs() < 1e-12);
        assert!((o.mrr_energy_scale - 5.0).abs() < 1e-12);
        assert!((ModelOverrides::worked_example_mrr().mrr_energy_scale - 5.0).abs() < 1e-12);
    }
}
