//! Wavelength-division multiplexing helpers and band planning.
//!
//! The OMAC fabric assigns each tile a block of wavelengths on a shared
//! multiple-write-single-read (MWSR) waveguide. This module provides the
//! band plan arithmetic ("OMAC 0 transmits λ₀–λ₃, OMAC 1 transmits λ₄–λ₇,
//! …", paper §III-A) and a mux/demux layer over [`WdmSignal`].

use crate::signal::{PulseTrain, WavelengthId, WdmSignal};

/// Error returned when a band plan request is out of range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandPlanError {
    /// The tile index requested.
    pub tile: usize,
    /// Number of tiles in the plan.
    pub tiles: usize,
}

impl std::fmt::Display for BandPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tile {} out of range ({} tiles)", self.tile, self.tiles)
    }
}

impl std::error::Error for BandPlanError {}

/// Assigns contiguous wavelength blocks to tiles: tile `k` owns wavelengths
/// `[k·lanes, (k+1)·lanes)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandPlan {
    tiles: usize,
    lanes: usize,
}

impl BandPlan {
    /// Creates a plan for `tiles` tiles with `lanes` wavelengths each.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero or the total exceeds `u16` range.
    #[must_use]
    pub fn new(tiles: usize, lanes: usize) -> Self {
        assert!(tiles > 0 && lanes > 0, "band plan must be non-empty");
        assert!(
            tiles * lanes <= usize::from(u16::MAX),
            "wavelength index overflow"
        );
        Self { tiles, lanes }
    }

    /// Number of tiles.
    #[must_use]
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// Wavelengths per tile.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Total wavelengths in the plan.
    #[must_use]
    pub fn total_wavelengths(&self) -> usize {
        self.tiles * self.lanes
    }

    /// The wavelengths tile `tile` transmits on.
    ///
    /// # Errors
    ///
    /// Returns [`BandPlanError`] if `tile >= tiles`.
    pub fn tile_band(&self, tile: usize) -> Result<Vec<WavelengthId>, BandPlanError> {
        if tile >= self.tiles {
            return Err(BandPlanError {
                tile,
                tiles: self.tiles,
            });
        }
        let start = tile * self.lanes;
        Ok((start..start + self.lanes)
            .map(|i| {
                #[allow(clippy::cast_possible_truncation)]
                WavelengthId(i as u16)
            })
            .collect())
    }
}

/// Multiplexes each tile's per-lane trains onto the shared WDM medium
/// according to the band plan.
///
/// `per_tile[k][l]` is tile `k`'s train on its `l`-th lane.
///
/// # Errors
///
/// Returns [`BandPlanError`] if more tiles are supplied than the plan holds.
///
/// # Panics
///
/// Panics if a tile supplies more lanes than the plan allocates.
pub fn mux_tiles(
    plan: &BandPlan,
    per_tile: &[Vec<PulseTrain>],
) -> Result<WdmSignal, BandPlanError> {
    if per_tile.len() > plan.tiles() {
        return Err(BandPlanError {
            tile: per_tile.len() - 1,
            tiles: plan.tiles(),
        });
    }
    let mut signal = WdmSignal::new();
    for (tile, lanes) in per_tile.iter().enumerate() {
        let band = plan.tile_band(tile)?;
        assert!(
            lanes.len() <= band.len(),
            "tile {tile} supplied {} lanes but owns {}",
            lanes.len(),
            band.len()
        );
        for (id, train) in band.into_iter().zip(lanes.iter().cloned()) {
            signal.mux(id, train);
        }
    }
    Ok(signal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_band_plan_example() {
        // §III-A: OMAC 0 → λ0–λ3, OMAC 1 → λ4–λ7, OMAC 2 → λ8–λ11, OMAC 3 → λ12–λ15.
        let plan = BandPlan::new(4, 4);
        assert_eq!(plan.total_wavelengths(), 16);
        let band3 = plan.tile_band(3).unwrap();
        assert_eq!(band3.first(), Some(&WavelengthId(12)));
        assert_eq!(band3.last(), Some(&WavelengthId(15)));
    }

    #[test]
    fn out_of_range_tile_is_error() {
        let plan = BandPlan::new(2, 4);
        let err = plan.tile_band(2).unwrap_err();
        assert_eq!(err.tile, 2);
        assert!(err.to_string().contains("2 tiles"));
    }

    #[test]
    fn mux_tiles_places_lanes_on_owned_wavelengths() {
        let plan = BandPlan::new(2, 2);
        let per_tile = vec![
            vec![PulseTrain::from_bits(1, 2), PulseTrain::from_bits(2, 2)],
            vec![PulseTrain::from_bits(3, 2), PulseTrain::from_bits(0, 2)],
        ];
        let sig = mux_tiles(&plan, &per_tile).unwrap();
        assert_eq!(sig.demux(WavelengthId(0)).to_bits(), Some(1));
        assert_eq!(sig.demux(WavelengthId(1)).to_bits(), Some(2));
        assert_eq!(sig.demux(WavelengthId(2)).to_bits(), Some(3));
        assert_eq!(sig.demux(WavelengthId(3)).to_bits(), Some(0));
    }

    #[test]
    fn mux_tiles_rejects_excess_tiles() {
        let plan = BandPlan::new(1, 1);
        let per_tile = vec![vec![PulseTrain::new()], vec![PulseTrain::new()]];
        assert!(mux_tiles(&plan, &per_tile).is_err());
    }
}
