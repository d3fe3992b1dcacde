//! The `DesignModel` backend layer: one module per accelerator design.
//!
//! Every cost the evaluation derives from a design — per-operation
//! energies, tile and fabric area, cycles per firing round, static
//! photonic power, ingress line rate — used to be computed by `match
//! Design` arms scattered across `energy`, `area`, `latency`, `power`,
//! `roofline` and friends. This module inverts that structure: the
//! [`DesignModel`] trait names each derived quantity once, and each
//! design implements it in its own backend module ([`ee`], [`oe`],
//! [`oo`]), owning its device-level composition from
//! `pixel-electronics` / `pixel-photonics`.
//!
//! Adding a fourth design (a Winograd-photonic or PAM/stochastic
//! variant, say) is one new backend module plus one entry in the
//! registry below — no edits to the model call sites.
//!
//! [`context::EvalContext`] memoizes the derived quantities per
//! configuration and [`crate::sweep`] runs design-point grids through
//! it in parallel.

pub mod context;
pub mod ee;
pub mod oe;
pub mod oo;

pub use context::EvalContext;
pub use ee::EeModel;
pub use oe::OeModel;
pub use oo::OoModel;

use crate::area::AreaBreakdown;
use crate::calibration as cal;
use crate::config::{AcceleratorConfig, Clocks, Design};
use crate::energy::OperationEnergies;
use crate::overrides::ModelOverrides;
use pixel_dnn::inference::MacEngine;
use pixel_electronics::activation::TanhUnit;
use pixel_electronics::gates::GateCount;
use pixel_electronics::register::GATES_PER_FLIPFLOP;
use pixel_photonics::constants::waveguide_pitch;
use pixel_photonics::laser::FabryPerotLaser;
use pixel_photonics::mrr::DoubleMrrFilter;
use pixel_photonics::thermal::RingHeaterBank;
use pixel_units::{Area, Energy, Power};

/// Static (workload-independent) power of a design's photonic substrate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StaticPower {
    /// Electrical wall-plug power of the laser bank while lasing.
    pub laser_wall_plug: Power,
    /// Ring-heater thermal-tuning power.
    pub thermal_tuning: Power,
}

/// The cost model of one accelerator design.
///
/// Implementations are stateless: every method derives its result from
/// the configuration (and overrides) alone, so values are memoizable by
/// [`EvalContext`] and safe to evaluate from parallel sweep workers.
pub trait DesignModel: Send + Sync {
    /// The design this backend models.
    fn design(&self) -> Design;

    /// Per-operation energies (the §IV-B components of Table II).
    fn operation_energies(
        &self,
        config: &AcceleratorConfig,
        overrides: &ModelOverrides,
    ) -> OperationEnergies;

    /// Area of one OMAC tile.
    fn tile_area(&self, config: &AcceleratorConfig) -> AreaBreakdown;

    /// Area of the whole fabric: tiles plus any shared infrastructure
    /// (laser die, x/y waveguide routing). The default is tiles only.
    fn fabric_area(&self, config: &AcceleratorConfig) -> AreaBreakdown {
        scaled_tile_area(self.tile_area(config), config)
    }

    /// Service time of one firing round, in electrical cycles.
    fn cycles_per_firing(&self, config: &AcceleratorConfig, overrides: &ModelOverrides) -> f64;

    /// Static photonic power (zero for all-electrical designs).
    fn static_power(&self, config: &AcceleratorConfig) -> StaticPower;

    /// Data-ingress line rate per lane \[bit/s\] (roofline bandwidth).
    fn ingress_line_rate_hz(&self, clocks: &Clocks) -> f64;

    /// Electrical handoff cycles per optical pulse chunk, or `None` for
    /// designs without an optical front end (no line code to choose).
    fn chunk_handoff_cycles(&self) -> Option<f64>;

    /// Closed-form (lit, toggle) activity factors for uniformly random
    /// operands — what the energy model multiplies by, and what
    /// [`crate::audit`] checks the counted functional activity against.
    fn analytic_activity(&self) -> (f64, f64);

    /// Builds the bit-true functional MAC engine of this design.
    fn functional_engine(&self, config: &AcceleratorConfig) -> Box<dyn MacEngine>;
}

/// The backend registry, indexed in [`Design::ALL`] order.
static MODELS: [&dyn DesignModel; 3] = [&EeModel, &OeModel, &OoModel];

impl Design {
    /// The cost-model backend of this design.
    #[must_use]
    pub fn model(self) -> &'static dyn DesignModel {
        MODELS[self as usize]
    }
}

// ---------------------------------------------------------------------
// Composition helpers shared by the backends.
// ---------------------------------------------------------------------

/// Tile area scaled to the full fabric (no shared infrastructure).
pub(crate) fn scaled_tile_area(tile: AreaBreakdown, config: &AcceleratorConfig) -> AreaBreakdown {
    #[allow(clippy::cast_precision_loss)]
    let tiles = config.tiles as f64;
    AreaBreakdown {
        electrical: tile.electrical * tiles,
        photonic: tile.photonic * tiles,
    }
}

/// Activation-function energy per evaluation (identical tanh units in
/// every design).
pub(crate) fn activation_energy(config: &AcceleratorConfig) -> Energy {
    cal::pj(cal::K_ACT_PJ_PER_BIT * config.b())
}

/// Gate count of the weight register file: `lanes` synapse words.
pub(crate) fn register_file_gates(config: &AcceleratorConfig) -> GateCount {
    GateCount::new(config.lanes as u64 * u64::from(config.bits_per_lane) * GATES_PER_FLIPFLOP)
}

/// Electrical area common to all designs: register file + activation.
pub(crate) fn common_electrical_gates(config: &AcceleratorConfig) -> GateCount {
    register_file_gates(config) + TanhUnit::new().gate_count()
}

/// MRR drive energy of one optical multiply: b bits stream for b cycles
/// through a double (2-ring) filter.
pub(crate) fn mrr_multiply_energy(
    config: &AcceleratorConfig,
    overrides: &ModelOverrides,
) -> Energy {
    let b = config.b();
    cal::pj(2.0 * cal::K_MRR_PJ_PER_BIT * overrides.mrr_energy_scale * b * b)
}

/// Per-word optical-to-electrical conversion energy.
pub(crate) fn oe_conversion_energy(
    config: &AcceleratorConfig,
    overrides: &ModelOverrides,
) -> Energy {
    let b = config.b();
    cal::pj(
        (cal::K_OE_CONV_FIXED_PJ + cal::K_OE_CONV_PJ_PER_BIT * b) * overrides.oe_conversion_scale,
    )
}

/// Link energy of an optically-ingested word: optical in, electrical out.
pub(crate) fn optical_comm_energy(config: &AcceleratorConfig) -> Energy {
    cal::pj((cal::K_LINK_O_PJ_PER_BIT + cal::K_LINK_E_PJ_PER_BIT) * config.b())
}

/// Laser share per word fired (before any design-specific premium).
pub(crate) fn laser_word_energy(config: &AcceleratorConfig) -> f64 {
    cal::K_LASER_FIXED_PJ + cal::K_LASER_PJ_PER_BIT * config.b()
}

/// Optical firing-round service time: `A + k·⌈b/Q⌉ + R·(⌈b/Q⌉−1)` with
/// `k` the per-chunk handoff cost (§V-B2 pulse clumping).
pub(crate) fn optical_cycles_per_firing(
    config: &AcceleratorConfig,
    overrides: &ModelOverrides,
    handoff: f64,
) -> f64 {
    let chunks = (config.b() / config.clocks.pulses_per_electrical_cycle()).ceil();
    cal::PIPELINE_CYCLES + handoff * chunks + overrides.resync_cycles * (chunks - 1.0)
}

/// Footprint of the tile's double-MRR array: `lanes` synapse lanes each
/// filtering `lanes` wavelengths (paper §IV-C: the 4-lane design uses 16
/// double filters per OMAC).
pub(crate) fn mrr_array_area(config: &AcceleratorConfig) -> Area {
    let filter = DoubleMrrFilter::default();
    #[allow(clippy::cast_precision_loss)]
    let count = (config.lanes * config.lanes) as f64;
    Area::new(filter.area().value() * count)
}

/// Photodetector area: one Ge detector per wavelength (~200 µm² each).
pub(crate) fn receiver_area(config: &AcceleratorConfig) -> Area {
    #[allow(clippy::cast_precision_loss)]
    let count = config.lanes as f64;
    Area::from_square_micrometres(200.0 * count)
}

/// Fabric area of an optical design: tiles plus the shared laser die and
/// x/y waveguide routing bundles.
pub(crate) fn optical_fabric_area(
    tile: AreaBreakdown,
    config: &AcceleratorConfig,
) -> AreaBreakdown {
    let mut total = scaled_tile_area(tile, config);
    #[allow(clippy::cast_precision_loss)]
    let tiles = config.tiles as f64;
    let laser = FabryPerotLaser::default().area();
    // x + y waveguide bundles: one waveguide per tile per dimension,
    // spanning the fabric edge (≈1 mm per tile pitch).
    let per_guide = pixel_units::Length::from_millimetres(tiles.sqrt().ceil()) * waveguide_pitch();
    let guides = Area::new(per_guide.value() * 2.0 * tiles);
    total.photonic = total.photonic + laser + guides;
    total
}

/// Static power of an optical design's shared substrate: the laser bank
/// plus the ring-heater tuning of every microring in the fabric.
pub(crate) fn optical_static_power(config: &AcceleratorConfig) -> StaticPower {
    let per_channel = config.lanes.min(128);
    let laser = FabryPerotLaser::new(per_channel, Power::from_milliwatts(1.0), 0.1)
        // lint:allow(P002) lanes clamped to the 128-channel comb capacity above
        .expect("lanes clamped to channel capacity");
    #[allow(clippy::cast_precision_loss)]
    let channels = config.tiles as f64;
    let heater = RingHeaterBank::new(
        crate::power::ring_count(config),
        Power::from_milliwatts(0.1),
        1.0,
    );
    StaticPower {
        laser_wall_plug: laser.electrical_power() * channels,
        thermal_tuning: heater.total_power(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixel_dnn::inference::PerWindow;

    #[test]
    fn registry_order_matches_design_all() {
        for design in Design::ALL {
            assert_eq!(design.model().design(), design, "{design}");
        }
    }

    #[test]
    fn only_optical_backends_expose_chunk_handoff() {
        assert!(Design::Ee.model().chunk_handoff_cycles().is_none());
        assert_eq!(Design::Oe.model().chunk_handoff_cycles(), Some(2.0));
        assert_eq!(Design::Oo.model().chunk_handoff_cycles(), Some(1.0));
    }

    #[test]
    fn functional_engines_compute_correct_inner_products() {
        let n = [3u64, 5, 7, 9];
        let s = [2u64, 4, 6, 8];
        let expect: u64 = n.iter().zip(&s).map(|(a, b)| a * b).sum();
        for design in Design::ALL {
            let cfg = AcceleratorConfig::new(design, 4, 8);
            let engine = design.model().functional_engine(&cfg);
            let per_window = PerWindow(engine.as_ref());
            let mut out = [0];
            let mut loaded = per_window.load(&s, s.len());
            loaded.fire(&n, &mut out);
            assert_eq!(out[0], expect, "{design}");
            assert!(loaded.finish().gated_slots > 0, "{design}");
        }
    }

    #[test]
    fn static_power_is_zero_only_for_ee() {
        let cfg = |d| AcceleratorConfig::new(d, 4, 16);
        let ee = Design::Ee.model().static_power(&cfg(Design::Ee));
        assert_eq!(ee.laser_wall_plug, Power::ZERO);
        assert_eq!(ee.thermal_tuning, Power::ZERO);
        for d in [Design::Oe, Design::Oo] {
            let p = d.model().static_power(&cfg(d));
            assert!(p.laser_wall_plug.value() > 0.0, "{d}");
            assert!(p.thermal_tuning.value() > 0.0, "{d}");
        }
    }

    #[test]
    fn ingress_line_rates() {
        let clocks = Clocks::paper();
        assert!(
            (Design::Ee.model().ingress_line_rate_hz(&clocks) - clocks.electrical_hz).abs() < 1.0
        );
        for d in [Design::Oe, Design::Oo] {
            assert!(
                (d.model().ingress_line_rate_hz(&clocks) - clocks.optical_hz).abs() < 1.0,
                "{d}"
            );
        }
    }
}
