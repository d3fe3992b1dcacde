//! Per-layer latency model.
//!
//! The fabric fires neuron words in rounds: every tile drives its `lanes`
//! wavelengths, so one firing round carries `tiles × lanes` words of
//! `bits_per_lane` bits. The CNN's data stream has a fixed native width
//! (default 16 bits), so sweeping bits/lane trades the number of firing
//! rounds (`∝ 1/b`) against the per-round service time (grows with `b`):
//!
//! * **EE** — the unrolled STR datapath retires ≈3 synapse bits per cycle:
//!   `cycles = A + ⌈0.35·b⌉`. Per-payload-bit latency declines
//!   monotonically with `b` (Fig. 8's EE curve).
//! * **OE/OO** — the optical burst must fit electrical envelopes: at
//!   10 GHz optical / 1 GHz electrical only `Q = 10` pulses "clump" into
//!   one cycle (§V-B2). Each chunk beyond the first costs a receiver
//!   re-synchronization, so `cycles = A + k·⌈b/Q⌉ + R·(⌈b/Q⌉−1)` with
//!   `k = 2` for OE (extra o/e + accumulate handoff) and `k = 1` for OO.
//!   Per-bit latency is U-shaped with its minimum at `b = Q` — exactly
//!   the paper's description of the optical latency response.

use crate::config::AcceleratorConfig;
use crate::overrides::ModelOverrides;
use pixel_dnn::analysis::ComputeCounts;
use pixel_units::Time;

/// Service time of one firing round, in electrical cycles.
#[must_use]
pub fn cycles_per_firing(config: &AcceleratorConfig) -> f64 {
    cycles_per_firing_with(config, &ModelOverrides::calibrated())
}

/// Service time of one firing round under explicit [`ModelOverrides`],
/// dispatching through the design's [`crate::model::DesignModel`]
/// backend.
#[must_use]
pub fn cycles_per_firing_with(config: &AcceleratorConfig, overrides: &ModelOverrides) -> f64 {
    config.design.model().cycles_per_firing(config, overrides)
}

/// Number of firing rounds a layer needs: each scalar multiply consumes
/// one native word, transported in `bits_per_lane`-bit chunks across
/// `tiles × lanes` parallel words per round.
#[must_use]
pub fn firings(config: &AcceleratorConfig, counts: &ComputeCounts) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let words = counts.mul as f64;
    let packing = f64::from(config.native_bits) / config.b();
    #[allow(clippy::cast_precision_loss)]
    let parallel = config.macs_per_firing() as f64;
    (words * packing / parallel).ceil()
}

/// Latency of one layer.
#[must_use]
pub fn layer_latency(config: &AcceleratorConfig, counts: &ComputeCounts) -> Time {
    layer_latency_with(config, counts, &ModelOverrides::calibrated())
}

/// Latency of one layer under explicit [`ModelOverrides`].
#[must_use]
pub fn layer_latency_with(
    config: &AcceleratorConfig,
    counts: &ComputeCounts,
    overrides: &ModelOverrides,
) -> Time {
    layer_latency_from_cycles(config, cycles_per_firing_with(config, overrides), counts)
}

/// Latency of one layer given an already-derived firing-round service
/// time — the shared kernel of the direct path and the memoized
/// [`crate::model::EvalContext`] path.
#[must_use]
pub fn layer_latency_from_cycles(
    config: &AcceleratorConfig,
    cycles_per_firing: f64,
    counts: &ComputeCounts,
) -> Time {
    let mac_cycles = firings(config, counts) * cycles_per_firing;
    // Activation evaluations stream through the (identical) tanh units,
    // one per tile per cycle.
    #[allow(clippy::cast_precision_loss)]
    let act_cycles = (counts.act as f64 / config.tiles as f64).ceil();
    Time::new((mac_cycles + act_cycles) * config.clocks.electrical_period())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;

    fn counts(mul: u64) -> ComputeCounts {
        ComputeCounts {
            name: "t".into(),
            mvm: mul / 9,
            mul,
            add: mul,
            act: mul / 9,
        }
    }

    fn cfg(design: Design, lanes: usize, bits: u32) -> AcceleratorConfig {
        AcceleratorConfig::new(design, lanes, bits)
    }

    #[test]
    fn fig9_ordering_at_8_lanes_8_bits() {
        // ZFNet Conv2 configuration: OO fastest, then OE, then EE.
        let c = counts(415_000_000);
        let t_ee = layer_latency(&cfg(Design::Ee, 8, 8), &c);
        let t_oe = layer_latency(&cfg(Design::Oe, 8, 8), &c);
        let t_oo = layer_latency(&cfg(Design::Oo, 8, 8), &c);
        assert!(t_oo < t_oe && t_oe < t_ee);
        // Paper: OO is 31.9% faster than EE, 18.6% faster than OE.
        let vs_ee = 1.0 - t_oo / t_ee;
        let vs_oe = 1.0 - t_oo / t_oe;
        assert!((vs_ee - 0.319).abs() < 0.07, "vs EE: {vs_ee}");
        assert!((vs_oe - 0.186).abs() < 0.07, "vs OE: {vs_oe}");
    }

    #[test]
    fn ee_per_bit_latency_declines_monotonically() {
        let c = counts(100_000_000);
        let mut prev = f64::INFINITY;
        for b in [1, 2, 4, 8, 16, 32] {
            let t = layer_latency(&cfg(Design::Ee, 8, b), &c).value();
            assert!(t < prev, "EE latency should fall at b={b}");
            prev = t;
        }
    }

    #[test]
    fn optical_latency_is_u_shaped() {
        // Minimum at the clumping threshold (b = 10), rising after.
        let c = counts(100_000_000);
        let t = |b| layer_latency(&cfg(Design::Oo, 8, b), &c).value();
        assert!(t(10) < t(4), "declining before threshold");
        assert!(t(32) > t(10), "rising after threshold");
        let toe = |b| layer_latency(&cfg(Design::Oe, 8, b), &c).value();
        assert!(toe(32) > toe(10));
    }

    #[test]
    fn cycles_formulas() {
        // b = 8: EE 3+⌈2.8⌉ = 6, OE 3+2 = 5, OO 3+1 = 4.
        assert!((cycles_per_firing(&cfg(Design::Ee, 8, 8)) - 6.0).abs() < 1e-12);
        assert!((cycles_per_firing(&cfg(Design::Oe, 8, 8)) - 5.0).abs() < 1e-12);
        assert!((cycles_per_firing(&cfg(Design::Oo, 8, 8)) - 4.0).abs() < 1e-12);
        // b = 16 (two chunks): OE 3+4+6 = 13, OO 3+2+6 = 11.
        assert!((cycles_per_firing(&cfg(Design::Oe, 8, 16)) - 13.0).abs() < 1e-12);
        assert!((cycles_per_firing(&cfg(Design::Oo, 8, 16)) - 11.0).abs() < 1e-12);
    }

    #[test]
    fn firings_scale_with_work_and_parallelism() {
        let cfg8 = cfg(Design::Ee, 8, 8);
        let f1 = firings(&cfg8, &counts(1_000_000));
        let f2 = firings(&cfg8, &counts(2_000_000));
        assert!((f2 / f1 - 2.0).abs() < 0.01);
        // Twice the bits/lane → half the firings.
        let f_wide = firings(&cfg(Design::Ee, 8, 16), &counts(1_000_000));
        assert!((f1 / f_wide - 2.0).abs() < 0.01);
        // More tiles → fewer firings.
        let f_tiles = firings(&cfg8.with_tiles(32), &counts(1_000_000));
        assert!((f1 / f_tiles - 2.0).abs() < 0.01);
    }

    #[test]
    fn a_partial_round_costs_a_whole_firing() {
        // Eq. 11 rounds up: a word past the last full round fires a
        // round of its own.
        let config = cfg(Design::Oo, 8, AcceleratorConfig::DEFAULT_NATIVE_BITS);
        let round = config.macs_per_firing();
        assert_eq!(firings(&config, &counts(round)), 1.0);
        assert_eq!(firings(&config, &counts(round + 1)), 2.0);
        assert_eq!(firings(&config, &counts(1)), 1.0);
    }

    #[test]
    fn latency_is_positive_and_finite_for_all_designs() {
        let c = counts(1_000);
        for d in Design::ALL {
            for b in 1..=32 {
                let t = layer_latency(&cfg(d, 4, b), &c);
                assert!(t.value() > 0.0 && t.is_finite(), "{d} b={b}");
            }
        }
    }
}
