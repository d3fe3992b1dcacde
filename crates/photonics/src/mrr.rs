//! Cascaded double microring-resonator (MRR) filters — the optical AND.
//!
//! Paper §II-A1 and Fig. 1(a,b): with no drive voltage (`V_off`) the filter
//! is in the **bar** state and light entering input port `I₀` continues to
//! output `O₀`. With drive voltage applied (`V_on`) the resonant wavelength
//! couples through both rings to the **cross** output `O₁`.
//!
//! Injecting data only on `I₀` makes the cross-port output the logical AND
//! of the incoming optical bit (A) and the electrical drive (B): light
//! appears at `O₁` only when `A = 1` and `B = 1`.

use crate::constants;
use crate::signal::PulseTrain;
use crate::units::{Area, Energy, Length};

/// Drive state of a double-MRR filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MrrState {
    /// `V_off`: input `I₀` passes straight to `O₀` (Fig. 1a/d).
    #[default]
    Bar,
    /// `V_on`: the resonant wavelength couples to `O₁` (Fig. 1b).
    Cross,
}

impl MrrState {
    /// Encodes a synapse bit as a drive state: bit 1 drives the rings so
    /// the neuron signal couples through (AND with 1), bit 0 leaves them
    /// off-resonance (AND with 0).
    #[must_use]
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            Self::Cross
        } else {
            Self::Bar
        }
    }
}

/// Output of routing a pulse train through a double-MRR filter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MrrOutputs {
    /// Signal emerging from the through port `O₀`.
    pub through: PulseTrain,
    /// Signal emerging from the drop (cross) port `O₁`.
    pub drop: PulseTrain,
}

/// A cascaded double-MRR add/drop filter tuned to one wavelength.
#[derive(Debug, Clone, PartialEq)]
pub struct DoubleMrrFilter {
    radius: Length,
    energy_per_bit: Energy,
}

impl DoubleMrrFilter {
    /// Creates a filter with explicit ring radius and per-bit drive energy.
    #[must_use]
    pub fn new(radius: Length, energy_per_bit: Energy) -> Self {
        Self {
            radius,
            energy_per_bit,
        }
    }

    /// Electrical drive energy per modulated bit.
    #[must_use]
    pub fn energy_per_bit(&self) -> Energy {
        self.energy_per_bit
    }

    /// Footprint of the double-ring structure. Each ring occupies a
    /// `(2r)²` bounding box and the two rings sit side by side.
    #[must_use]
    pub fn area(&self) -> Area {
        let d = Length::new(2.0 * self.radius.value());
        Area::new(2.0 * (d * d).value())
    }

    /// Routes `input` (arriving on `I₀` at this filter's resonant
    /// wavelength) according to the drive state.
    #[must_use]
    pub fn route(&self, input: &PulseTrain, state: MrrState) -> MrrOutputs {
        match state {
            MrrState::Bar => MrrOutputs {
                through: input.clone(),
                drop: PulseTrain::dark(input.len()),
            },
            MrrState::Cross => MrrOutputs {
                through: PulseTrain::dark(input.len()),
                drop: input.clone(),
            },
        }
    }

    /// The optical AND of an incoming bit-train with one synapse bit: the
    /// drop-port output when the drive encodes `synapse_bit`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pixel_photonics::mrr::DoubleMrrFilter;
    /// use pixel_photonics::signal::PulseTrain;
    ///
    /// let filter = DoubleMrrFilter::default();
    /// let neuron = PulseTrain::from_bits(0b0110, 4);
    /// assert_eq!(filter.and(&neuron, true).to_bits(), Some(0b0110));
    /// assert_eq!(filter.and(&neuron, false).to_bits(), Some(0));
    /// ```
    #[must_use]
    pub fn and(&self, neuron: &PulseTrain, synapse_bit: bool) -> PulseTrain {
        self.route(neuron, MrrState::from_bit(synapse_bit)).drop
    }

    /// [`Self::and`] into a reused output train: the drop port either
    /// mirrors the neuron train (cross state) or stays dark for its full
    /// length (bar state), so the gate needs no fresh allocation.
    pub fn and_into(&self, neuron: &PulseTrain, synapse_bit: bool, out: &mut PulseTrain) {
        if synapse_bit {
            out.copy_from(neuron);
        } else {
            out.set_dark(neuron.len());
        }
    }

    /// Drive energy to stream `bits` bit-slots through the filter for
    /// `cycles` cycles (the paper's worked example multiplies MRR count ×
    /// 500 fJ × bits × cycles).
    #[must_use]
    pub fn modulation_energy(&self, bits: usize, cycles: usize) -> Energy {
        #[allow(clippy::cast_precision_loss)]
        let slots = (bits * cycles) as f64;
        // One filter = two rings, both driven.
        self.energy_per_bit * 2.0 * slots
    }
}

impl Default for DoubleMrrFilter {
    /// Paper defaults: 7.5 µm radius rings, 100 fJ/bit drive.
    fn default() -> Self {
        Self::new(constants::mrr_radius(), constants::mrr_energy_per_bit())
    }
}

/// A bank of double-MRR filters forming one synapse lane: one filter per
/// wavelength, all driven by the same synapse bit (paper §III-A: "the
/// entire neuron datum is checked against a single synapse bit").
#[derive(Debug, Clone, PartialEq)]
pub struct SynapseLaneFilters {
    filters: Vec<DoubleMrrFilter>,
}

impl SynapseLaneFilters {
    /// Creates a lane with `wavelengths` identical filters.
    #[must_use]
    pub fn uniform(wavelengths: usize, filter: DoubleMrrFilter) -> Self {
        Self {
            filters: vec![filter; wavelengths],
        }
    }

    /// Total ring count (2 per double filter).
    #[must_use]
    pub fn ring_count(&self) -> usize {
        self.filters.len() * 2
    }

    /// Aggregate footprint of the lane's rings.
    #[must_use]
    pub fn area(&self) -> Area {
        Area::new(self.filters.iter().map(|f| f.area().value()).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_state_passes_through() {
        let f = DoubleMrrFilter::default();
        let input = PulseTrain::from_bits(0b1010, 4);
        let out = f.route(&input, MrrState::Bar);
        assert_eq!(out.through.to_bits(), Some(0b1010));
        assert_eq!(out.drop.to_bits(), Some(0));
    }

    #[test]
    fn cross_state_drops_signal() {
        let f = DoubleMrrFilter::default();
        let input = PulseTrain::from_bits(0b1010, 4);
        let out = f.route(&input, MrrState::Cross);
        assert_eq!(out.through.to_bits(), Some(0));
        assert_eq!(out.drop.to_bits(), Some(0b1010));
    }

    #[test]
    fn and_into_matches_and() {
        let f = DoubleMrrFilter::default();
        let neuron = PulseTrain::from_bits(0b1010, 4);
        let mut out = PulseTrain::from_bits(0b1, 1); // stale scratch
        for gate in [true, false] {
            f.and_into(&neuron, gate, &mut out);
            assert_eq!(out, f.and(&neuron, gate), "gate={gate}");
        }
    }

    #[test]
    fn and_truth_table() {
        let f = DoubleMrrFilter::default();
        // A=1, B=1 → 1 ; all other combinations → 0 (paper §II-A1).
        for (a, b, y) in [
            (1u64, true, 1u64),
            (1, false, 0),
            (0, true, 0),
            (0, false, 0),
        ] {
            let out = f.and(&PulseTrain::from_bits(a, 1), b);
            assert_eq!(out.to_bits(), Some(y), "A={a} B={b}");
        }
    }

    #[test]
    fn and_applies_to_whole_word() {
        let f = DoubleMrrFilter::default();
        let neuron = PulseTrain::from_bits(0b0110, 4);
        assert_eq!(f.and(&neuron, true).to_bits(), Some(0b0110));
        assert_eq!(f.and(&neuron, false).to_bits(), Some(0));
    }

    #[test]
    fn worked_example_energy() {
        // Paper §IV-C: 128 MRRs × 500 fJ × 4 bits × 4 cycles = 1.024 nJ.
        // 128 rings = 64 double filters; per filter: 2 × 500 fJ × 16 slots.
        let f = DoubleMrrFilter::new(
            constants::mrr_radius(),
            constants::mrr_worked_example_energy(),
        );
        let per_filter = f.modulation_energy(4, 4);
        let total = per_filter * 64.0;
        assert!((total.as_nanojoules() - 1.024).abs() < 1e-9, "{total}");
    }

    #[test]
    fn lane_drives_two_rings_per_wavelength() {
        let lane = SynapseLaneFilters::uniform(4, DoubleMrrFilter::default());
        assert_eq!(lane.ring_count(), 8);
    }

    #[test]
    fn area_scales_with_radius() {
        let small = DoubleMrrFilter::new(
            Length::from_micrometres(5.0),
            Energy::from_femtojoules(500.0),
        );
        let big = DoubleMrrFilter::default();
        assert!(big.area().value() > small.area().value());
        // 7.5 µm radius ⇒ 2·(15 µm)² = 450 µm².
        assert!((big.area().as_square_micrometres() - 450.0).abs() < 1e-6);
    }
}
