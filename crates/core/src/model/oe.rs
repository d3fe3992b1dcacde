//! The hybrid **OE** backend: optical multiply, electrical accumulate.
//!
//! Multiplies run through double-MRR filters (2 rings × ~100 fJ per
//! bit-slot), products are serially converted back to the electrical
//! domain and accumulated by a barrel shifter + CLA. The receiver-side
//! deserialization widens the accumulate path (+7% over EE), every word
//! pays an o/e conversion and a laser share, and each optical pulse
//! chunk needs a 2-cycle o/e + accumulate handoff.

use super::{DesignModel, StaticPower};
use crate::area::AreaBreakdown;
use crate::calibration as cal;
use crate::config::{AcceleratorConfig, Clocks, Design};
use crate::energy::OperationEnergies;
use crate::omac::OeMac;
use crate::overrides::ModelOverrides;
use pixel_dnn::inference::MacEngine;
use pixel_electronics::cla::Cla;
use pixel_electronics::converter::SerialConverter;
use pixel_electronics::dsent;
use pixel_electronics::gates::LogicDepth;
use pixel_electronics::shifter::BarrelShifter;
use pixel_electronics::stripes::StripesMac;
use pixel_electronics::technology::Technology;

/// Per-chunk electrical handoff: o/e conversion plus accumulate.
const CHUNK_HANDOFF_CYCLES: f64 = 2.0;

/// The hybrid optical-multiply / electrical-accumulate design.
#[derive(Debug, Clone, Copy, Default)]
pub struct OeModel;

impl DesignModel for OeModel {
    fn design(&self) -> Design {
        Design::Oe
    }

    fn operation_energies(
        &self,
        config: &AcceleratorConfig,
        overrides: &ModelOverrides,
    ) -> OperationEnergies {
        let b = config.b();
        let g = cal::lane_width_factor(config.lanes, config.bits_per_lane);
        OperationEnergies {
            mul: super::mrr_multiply_energy(config, overrides),
            add: cal::pj(cal::K_EE_ADD_PJ_PER_BIT * b * g * cal::OE_ADD_FACTOR),
            act: super::activation_energy(config),
            oe: super::oe_conversion_energy(config, overrides),
            comm: super::optical_comm_energy(config),
            laser: cal::pj(super::laser_word_energy(config)),
        }
    }

    fn tile_area(&self, config: &AcceleratorConfig) -> AreaBreakdown {
        let tech = Technology::bulk22lvt();
        let bits = config.bits_per_lane.clamp(1, 16);
        let acc_width = StripesMac::accumulator_width(config.lanes, bits).min(64);
        let estimate = |gates| dsent::estimate(gates, LogicDepth::new(1), &tech).area;
        // Accumulate-side logic: per-lane converter + shared shifter and
        // accumulator.
        let logic = SerialConverter::new(bits).gate_count() * config.lanes as u64
            + BarrelShifter::new(acc_width).gate_count()
            + Cla::new(acc_width).gate_count();
        AreaBreakdown {
            electrical: estimate(super::common_electrical_gates(config)) + estimate(logic),
            photonic: super::mrr_array_area(config) + super::receiver_area(config),
        }
    }

    fn fabric_area(&self, config: &AcceleratorConfig) -> AreaBreakdown {
        super::optical_fabric_area(self.tile_area(config), config)
    }

    fn cycles_per_firing(&self, config: &AcceleratorConfig, overrides: &ModelOverrides) -> f64 {
        super::optical_cycles_per_firing(config, overrides, CHUNK_HANDOFF_CYCLES)
    }

    fn static_power(&self, config: &AcceleratorConfig) -> StaticPower {
        super::optical_static_power(config)
    }

    fn ingress_line_rate_hz(&self, clocks: &Clocks) -> f64 {
        clocks.optical_hz
    }

    fn chunk_handoff_cycles(&self) -> Option<f64> {
        Some(CHUNK_HANDOFF_CYCLES)
    }

    fn analytic_activity(&self) -> (f64, f64) {
        // Neuron bit AND synapse-bit gate: lit rate 1/4; the gate is
        // shared along the train, correlating adjacent slots into a
        // toggle rate of 1/4 (not the independent-model 3/8).
        (0.25, 0.25)
    }

    fn functional_engine(&self, config: &AcceleratorConfig) -> Box<dyn MacEngine> {
        Box::new(OeMac::new(config.lanes, config.bits_per_lane))
    }
}
