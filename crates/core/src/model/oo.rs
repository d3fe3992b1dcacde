//! The all-optical **OO** backend: MRR multiply plus MZI-chain
//! accumulation.
//!
//! Multiplies share the OE design's double-MRR front end; accumulation
//! stays in the optical domain through a delay-matched MZI chain whose
//! multi-level output a comparator ladder resolves. The accumulate cost
//! is a fixed per-word chain-drive/resolve term plus a per-bit MZI
//! modulation term, the laser pays a 1.52× premium for the chain's path
//! loss, and each pulse chunk needs only a single handoff cycle.

use super::{DesignModel, StaticPower};
use crate::area::AreaBreakdown;
use crate::calibration as cal;
use crate::config::{AcceleratorConfig, Clocks, Design};
use crate::energy::OperationEnergies;
use crate::omac::OoMac;
use crate::overrides::ModelOverrides;
use pixel_dnn::inference::MacEngine;
use pixel_electronics::cla::Cla;
use pixel_electronics::comparator::ComparatorLadder;
use pixel_electronics::converter::AmplitudeConverter;
use pixel_electronics::dsent;
use pixel_electronics::gates::LogicDepth;
use pixel_electronics::stripes::StripesMac;
use pixel_electronics::technology::Technology;
use pixel_photonics::constants::OPTICAL_CLOCK_HZ;
use pixel_photonics::mzi::MziChain;
use pixel_units::Area;

/// Per-chunk electrical handoff: the chain output resolves once.
const CHUNK_HANDOFF_CYCLES: f64 = 1.0;

/// The all-optical multiply-and-accumulate design.
#[derive(Debug, Clone, Copy, Default)]
pub struct OoModel;

impl DesignModel for OoModel {
    fn design(&self) -> Design {
        Design::Oo
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
            add: cal::pj(
                cal::K_OO_ADD_FIXED_PJ * overrides.oo_add_fixed_scale * g
                    + cal::K_MZI_PJ_PER_BIT * b,
            ),
            act: super::activation_energy(config),
            oe: super::oe_conversion_energy(config, overrides),
            comm: super::optical_comm_energy(config),
            laser: cal::pj(super::laser_word_energy(config) * cal::LASER_OO_FACTOR),
        }
    }

    fn tile_area(&self, config: &AcceleratorConfig) -> AreaBreakdown {
        let tech = Technology::bulk22lvt();
        let bits = config.bits_per_lane.clamp(1, 16);
        let acc_width = StripesMac::accumulator_width(config.lanes, bits).min(64);
        let estimate = |gates| dsent::estimate(gates, LogicDepth::new(1), &tech).area;
        let logic = AmplitudeConverter::new(bits).gate_count() * config.lanes as u64
            + ComparatorLadder::new(bits).gate_count() * config.lanes as u64
            + Cla::new(acc_width).gate_count();
        let chain = MziChain::delay_matched(bits as usize, OPTICAL_CLOCK_HZ);
        let chains = Area::new(chain.area().value() * config.lanes as f64);
        AreaBreakdown {
            electrical: estimate(super::common_electrical_gates(config)) + estimate(logic),
            photonic: super::mrr_array_area(config) + super::receiver_area(config) + chains,
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
        // Same shared-gate partial-product trains as OE: the MZI
        // accumulation changes where sums happen, not slot statistics.
        (0.25, 0.25)
    }

    fn functional_engine(&self, config: &AcceleratorConfig) -> Box<dyn MacEngine> {
        Box::new(OoMac::new(config.lanes, config.bits_per_lane))
    }
}
