//! The all-electrical **EE** backend: the Stripes bit-serial baseline.
//!
//! Multiplies are bit-serial AND+shift through the unrolled STR
//! datapath, accumulates go through a carry-lookahead adder, and every
//! word moves over electrical links in both directions. There is no
//! photonic substrate: o/e conversion, laser energy, static photonic
//! power and shared photonic fabric area are all zero.

use super::{DesignModel, StaticPower};
use crate::area::AreaBreakdown;
use crate::calibration as cal;
use crate::config::{AcceleratorConfig, Clocks, Design};
use crate::energy::OperationEnergies;
use crate::omac::EeMac;
use crate::overrides::ModelOverrides;
use pixel_dnn::inference::MacEngine;
use pixel_electronics::cla::Cla;
use pixel_electronics::dsent;
use pixel_electronics::gates::LogicDepth;
use pixel_electronics::multiplier::ArrayMultiplier;
use pixel_electronics::ripple::RippleCarryAdder;
use pixel_electronics::stripes::StripesMac;
use pixel_electronics::technology::Technology;
use pixel_units::{Area, Energy, Time};

/// The Stripes-style all-electrical design.
#[derive(Debug, Clone, Copy, Default)]
pub struct EeModel;

impl DesignModel for EeModel {
    fn design(&self) -> Design {
        Design::Ee
    }

    fn operation_energies(
        &self,
        config: &AcceleratorConfig,
        overrides: &ModelOverrides,
    ) -> OperationEnergies {
        let _ = overrides;
        let b = config.b();
        let g = cal::lane_width_factor(config.lanes, config.bits_per_lane);
        OperationEnergies {
            mul: cal::pj(cal::K_EE_MUL_PJ_PER_BIT2 * b * b),
            add: cal::pj(cal::K_EE_ADD_PJ_PER_BIT * b * g),
            act: super::activation_energy(config),
            oe: Energy::ZERO,
            comm: cal::pj(2.0 * cal::K_LINK_E_PJ_PER_BIT * b),
            laser: Energy::ZERO,
        }
    }

    fn tile_area(&self, config: &AcceleratorConfig) -> AreaBreakdown {
        let tech = Technology::bulk22lvt();
        let bits = config.bits_per_lane.clamp(1, 16);
        let estimate = |gates| dsent::estimate(gates, LogicDepth::new(1), &tech).area;
        let electrical = estimate(super::common_electrical_gates(config))
            + estimate(StripesMac::new(config.lanes, bits).gate_count());
        AreaBreakdown {
            electrical,
            photonic: Area::default(),
        }
    }

    fn cycles_per_firing(&self, config: &AcceleratorConfig, overrides: &ModelOverrides) -> f64 {
        // The unrolled STR datapath retires ≈3 synapse bits per cycle.
        cal::PIPELINE_CYCLES + (overrides.ee_cycles_per_bit * config.b()).ceil()
    }

    fn static_power(&self, _config: &AcceleratorConfig) -> StaticPower {
        StaticPower::default()
    }

    fn ingress_line_rate_hz(&self, clocks: &Clocks) -> f64 {
        clocks.electrical_hz
    }

    fn chunk_handoff_cycles(&self) -> Option<f64> {
        None
    }

    fn analytic_activity(&self) -> (f64, f64) {
        // Independent fair synapse bits, serially streamed: lit and
        // toggle rates are both 1/2.
        (0.5, 0.5)
    }

    fn functional_engine(&self, config: &AcceleratorConfig) -> Box<dyn MacEngine> {
        Box::new(EeMac::new(config.lanes, config.bits_per_lane))
    }
}

/// The EE datapath's two component choices against their textbook
/// alternatives at one operand width: the carry-lookahead adder against
/// a ripple-carry adder, and a one-lane Stripes bit-serial MAC
/// (accumulator included) against a parallel array multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentBaseline {
    /// Operand width \[bits\].
    pub width: u32,
    /// Carry-lookahead adder gates.
    pub cla_gates: u64,
    /// Carry-lookahead adder critical-path delay (DSENT, 22 nm).
    pub cla_delay: Time,
    /// Ripple-carry adder gates.
    pub rca_gates: u64,
    /// Ripple-carry adder critical-path delay (DSENT, 22 nm).
    pub rca_delay: Time,
    /// One-lane Stripes MAC gates, accumulator included.
    pub stripes_lane_gates: u64,
    /// Array multiplier gates.
    pub array_gates: u64,
    /// Array multiplier logic depth \[levels\].
    pub array_depth: u32,
}

/// One [`ComponentBaseline`] per operand width.
#[must_use]
pub fn component_baselines(widths: &[u32]) -> Vec<ComponentBaseline> {
    let tech = Technology::bulk22lvt();
    widths
        .iter()
        .map(|&width| {
            let cla = Cla::new(width);
            let rca = RippleCarryAdder::new(width);
            let array = ArrayMultiplier::new(width);
            ComponentBaseline {
                width,
                cla_gates: cla.gate_count().get(),
                cla_delay: dsent::estimate(cla.gate_count(), cla.logic_depth(), &tech).delay,
                rca_gates: rca.gate_count().get(),
                rca_delay: dsent::estimate(rca.gate_count(), rca.logic_depth(), &tech).delay,
                stripes_lane_gates: StripesMac::new(1, width).gate_count().get(),
                array_gates: array.gate_count().get(),
                array_depth: array.logic_depth().get(),
            }
        })
        .collect()
}
