//! Scalability analysis: how large can the fabric grow before the optical
//! link budget stops closing?
//!
//! §III-C(ii): "one can scale up by driving the optical signal with
//! higher intensity". That intensity is bounded — by the per-wavelength
//! power an on-chip comb laser can deliver and by nonlinear limits in the
//! waveguide — so the waveguide loss accumulated across a growing tile
//! grid caps the fabric size. This module finds that cap from the link
//! model.

use crate::config::Design;
use pixel_photonics::link::PhotonicLink;
use pixel_units::{Length, Power};

/// Per-wavelength laser power limit used as the scaling bound
/// (10 mW: an aggressive but physical on-chip comb line).
#[must_use]
pub fn max_power_per_wavelength() -> Power {
    Power::from_milliwatts(10.0)
}

/// Extra optical loss \[dB\] an OO tile's MZI accumulation chain adds over
/// OE's direct detection path (chain waveguide + stage insertion loss);
/// consistent with Table II's 1.52× laser premium (≈1.8 dB).
pub const OO_CHAIN_EXTRA_LOSS_DB: f64 = 1.8;

/// The MWSR line length for a `tiles`-tile fabric at 1 mm pitch: one
/// edge of the (square) grid.
#[must_use]
pub fn line_length(tiles: usize) -> Length {
    #[allow(clippy::cast_precision_loss)]
    Length::from_millimetres((tiles as f64).sqrt().ceil())
}

/// Required per-wavelength laser power for a fabric of `tiles` tiles.
#[must_use]
pub fn required_power(design: Design, tiles: usize) -> Power {
    let link = PhotonicLink::paper_default(line_length(tiles));
    let mut required = link.required_laser_power().value();
    if design == Design::Oo {
        required *= 10f64.powf(OO_CHAIN_EXTRA_LOSS_DB / 10.0);
    }
    Power::new(required)
}

/// Whether the link budget closes at the given size.
#[must_use]
pub fn budget_closes(design: Design, tiles: usize) -> bool {
    required_power(design, tiles) <= max_power_per_wavelength()
}

/// Largest supported tile count (binary search up to `limit`). Returns
/// `limit` if the budget closes everywhere. EE has no optical budget and
/// always returns `limit`.
#[must_use]
pub fn max_supported_tiles(design: Design, limit: usize) -> usize {
    if design == Design::Ee {
        return limit;
    }
    if !budget_closes(design, 1) {
        return 0;
    }
    let (mut lo, mut hi) = (1usize, limit);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if budget_closes(design, mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// One row of the scaling study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Fabric size in tiles.
    pub tiles: usize,
    /// Required laser power per wavelength.
    pub required_power: Power,
    /// Whether the budget closes.
    pub feasible: bool,
}

/// Sweeps fabric sizes for a design.
#[must_use]
pub fn scaling_sweep(design: Design, sizes: &[usize]) -> Vec<ScalingPoint> {
    sizes
        .iter()
        .map(|&tiles| ScalingPoint {
            tiles,
            required_power: required_power(design, tiles),
            feasible: budget_closes(design, tiles),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_power_grows_with_size() {
        let small = required_power(Design::Oe, 4);
        let big = required_power(Design::Oe, 1024);
        assert!(big > small);
    }

    #[test]
    fn oo_pays_the_chain_loss() {
        let oe = required_power(Design::Oe, 64);
        let oo = required_power(Design::Oo, 64);
        let ratio = oo / oe;
        assert!((ratio - 10f64.powf(0.18)).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn max_tiles_ordering() {
        let limit = 100_000;
        let ee = max_supported_tiles(Design::Ee, limit);
        let oe = max_supported_tiles(Design::Oe, limit);
        let oo = max_supported_tiles(Design::Oo, limit);
        assert_eq!(ee, limit, "EE is unconstrained by optics");
        assert!(oe > oo, "OE scales further than OO (no chain loss)");
        assert!(oo > 16, "the evaluated fabric fits comfortably");
    }

    #[test]
    fn binary_search_is_tight() {
        let max = max_supported_tiles(Design::Oo, 1_000_000);
        assert!(budget_closes(Design::Oo, max));
        assert!(!budget_closes(Design::Oo, next_infeasible(max)));
    }

    fn next_infeasible(from: usize) -> usize {
        // line_length is stepwise in √tiles; find the next size whose
        // required power actually exceeds the cap.
        let mut t = from + 1;
        while budget_closes(Design::Oo, t) {
            t += (t / 10).max(1);
        }
        t
    }

    #[test]
    fn sweep_marks_feasibility_transition() {
        let max = max_supported_tiles(Design::Oo, 1_000_000);
        let points = scaling_sweep(Design::Oo, &[16, max, 4 * max]);
        assert!(points[0].feasible);
        assert!(points[1].feasible);
        assert!(!points[2].feasible);
    }
}
