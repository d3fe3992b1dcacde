//! Mach-Zehnder interferometers and the delay-matched accumulator chain.
//!
//! Paper §II-A2: an MZI splits two input beams into two phase-shifting arms
//! (`φ_upper`, `φ_lower`) and recombines them. Its ideal transfer matrix
//! (Eq. 1) is
//!
//! ```text
//! h = j·e^{jΔ} · | sin θ   cos θ |        θ = (φ_upper − φ_lower)/2
//!                | cos θ  −sin θ |        Δ = (φ_upper + φ_lower)/2
//! ```
//!
//! (The paper's Eq. 3 prints Δ with the same difference formula as θ — a
//! typo; the standard result, and the one that makes Eq. 1 unitary and
//! consistent with the quoted bar/cross settings, uses the *sum*.)
//!
//! §III-B: cascading MZIs with the inter-stage path length of Eq. 8/9 delays
//! a pulse train by exactly one bit period between stages, so the chain
//! performs optical shift-accumulation: slot-aligned pulses add in amplitude.

use crate::complex::Complex;
use crate::constants::{self, SPEED_OF_LIGHT};
use crate::signal::PulseTrain;
use crate::units::{Area, Energy, Length, Time};

/// A single Mach-Zehnder interferometer with two phase-shifting arms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mzi {
    phi_upper: f64,
    phi_lower: f64,
    arm_length: Length,
    energy_per_bit: Energy,
}

impl Mzi {
    /// Creates an MZI with the given arm phase shifts (radians).
    #[must_use]
    pub fn new(phi_upper: f64, phi_lower: f64) -> Self {
        Self {
            phi_upper,
            phi_lower,
            arm_length: constants::mzi_arm_length(),
            energy_per_bit: constants::mzi_energy_per_bit(),
        }
    }

    /// Tunable coupler with splitting angle `θ ∈ (0, π/2)` and zero common
    /// phase: combines both inputs onto one output (Fig. 1c/f).
    #[must_use]
    pub fn coupler(theta: f64) -> Self {
        Self::new(theta, -theta)
    }

    /// Lower-arm phase shift.
    #[must_use]
    pub fn phi_lower(&self) -> f64 {
        self.phi_lower
    }

    /// Splitting angle `θ = (φ_upper − φ_lower)/2` (Eq. 2).
    #[must_use]
    pub fn theta(&self) -> f64 {
        (self.phi_upper - self.phi_lower) / 2.0
    }

    /// Common phase `Δ = (φ_upper + φ_lower)/2` (Eq. 3, corrected; see
    /// module docs).
    #[must_use]
    pub fn delta(&self) -> f64 {
        (self.phi_upper + self.phi_lower) / 2.0
    }

    /// The 2×2 transfer matrix of Eq. 1, row-major:
    /// `[h00, h01, h10, h11]` mapping `(i₀, i₁) → (o₀, o₁)`.
    #[must_use]
    pub fn transfer_matrix(&self) -> [Complex; 4] {
        let theta = self.theta();
        let pre = Complex::J * Complex::phase(self.delta());
        let s = theta.sin();
        let c = theta.cos();
        [pre * s, pre * c, pre * c, pre * (-s)]
    }

    /// Applies the transfer matrix to the input field pair `(i₀, i₁)`.
    #[must_use]
    pub fn propagate(&self, i0: Complex, i1: Complex) -> (Complex, Complex) {
        let [h00, h01, h10, h11] = self.transfer_matrix();
        (h00 * i0 + h01 * i1, h10 * i0 + h11 * i1)
    }

    /// Propagation delay through the device arms.
    #[must_use]
    pub fn propagation_delay(&self) -> Time {
        constants::silicon_propagation_delay(self.arm_length)
    }

    /// Modulation energy per bit slot routed through the device.
    #[must_use]
    pub fn energy_per_bit(&self) -> Energy {
        self.energy_per_bit
    }

    /// Device footprint: arm length × one waveguide pitch per arm.
    #[must_use]
    pub fn area(&self) -> Area {
        let width = Length::new(2.0 * constants::waveguide_pitch().value());
        self.arm_length * width
    }

    /// Checks unitarity of the transfer matrix (‖h·h†−I‖ < tol).
    #[must_use]
    pub fn is_unitary(&self, tol: f64) -> bool {
        let [a, b, c, d] = self.transfer_matrix();
        let m00 = a * a.conj() + b * b.conj();
        let m01 = a * c.conj() + b * d.conj();
        let m11 = c * c.conj() + d * d.conj();
        (m00 - Complex::ONE).norm() < tol && m01.norm() < tol && (m11 - Complex::ONE).norm() < tol
    }
}

impl Default for Mzi {
    /// A balanced 50/50 coupler.
    fn default() -> Self {
        Self::coupler(std::f64::consts::FRAC_PI_4)
    }
}

/// A cascade of MZIs whose inter-stage paths are delay-matched to the
/// optical bit period, forming an optical shift-accumulator (paper §III-B).
#[derive(Debug, Clone, PartialEq)]
pub struct MziChain {
    stages: usize,
    bit_period: Time,
    inter_stage_path: Length,
}

impl MziChain {
    /// Builds a chain of `stages` MZIs delay-matched to an optical clock of
    /// `optical_clock_hz`. The inter-stage path implements Eq. 9:
    /// `d_path = c/(n_Si·f_o) − d_MZI`.
    ///
    /// # Panics
    ///
    /// Panics if `stages == 0`, if the clock is not positive, or if the
    /// clock is so fast that the MZI itself is longer than one bit period.
    #[must_use]
    pub fn delay_matched(stages: usize, optical_clock_hz: f64) -> Self {
        assert!(stages > 0, "chain needs at least one stage");
        assert!(optical_clock_hz > 0.0, "optical clock must be positive");
        let bit_period = Time::new(1.0 / optical_clock_hz);
        let total = SPEED_OF_LIGHT / (constants::N_SILICON * optical_clock_hz);
        let path = total - constants::mzi_arm_length().value();
        assert!(
            path > 0.0,
            "optical clock too fast for delay matching: MZI longer than one bit period"
        );
        Self {
            stages,
            bit_period,
            inter_stage_path: Length::new(path),
        }
    }

    /// Number of MZI stages.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// One optical bit period.
    #[must_use]
    pub fn bit_period(&self) -> Time {
        self.bit_period
    }

    /// Total propagation delay through the chain (Eq. 10) over its optical
    /// path `n·d_MZI + (n−1)·d_path` (paper §IV-A2): ≈ 0.736 ns for 8
    /// stages at 10 GHz.
    #[must_use]
    pub fn total_propagation_delay(&self) -> Time {
        #[allow(clippy::cast_precision_loss)]
        let n = self.stages as f64;
        let path =
            n * constants::mzi_arm_length().value() + (n - 1.0) * self.inter_stage_path.value();
        constants::silicon_propagation_delay(Length::new(path))
    }

    /// Accumulates per-stage pulse trains optically.
    ///
    /// `inputs[k]` enters stage `k`'s `i₀` port; each stage's output travels
    /// one delay-matched path to the next stage's `i₁`, so `inputs[k]` is
    /// delayed by `k` bit slots before superposing. The result is a
    /// multi-level train whose positional value is `Σ_k value(inputs[k])·2^k`.
    ///
    /// # Examples
    ///
    /// Optical shift-accumulate of three partial products:
    ///
    /// ```
    /// use pixel_photonics::mzi::MziChain;
    /// use pixel_photonics::signal::PulseTrain;
    ///
    /// let chain = MziChain::delay_matched(3, 10.0e9);
    /// let inputs: Vec<_> = [5u64, 3, 1].iter()
    ///     .map(|&v| PulseTrain::from_bits(v, 3))
    ///     .collect();
    /// let out = chain.accumulate(&inputs);
    /// assert_eq!(out.positional_value(), 5 + 3 * 2 + 4); // Σ vₖ·2ᵏ
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if more inputs than stages are supplied.
    #[must_use]
    pub fn accumulate(&self, inputs: &[PulseTrain]) -> PulseTrain {
        let mut out = PulseTrain::new();
        self.accumulate_into(inputs, &mut out);
        out
    }

    /// [`Self::accumulate`] into a reused output train (cleared first):
    /// slot-by-slot amplitude addition in stage order, so the result is
    /// bitwise identical to the allocating form.
    ///
    /// # Panics
    ///
    /// Panics if more inputs than stages are supplied.
    pub fn accumulate_into(&self, inputs: &[PulseTrain], out: &mut PulseTrain) {
        assert!(
            inputs.len() <= self.stages,
            "chain has {} stages but {} inputs were supplied",
            self.stages,
            inputs.len()
        );
        out.set_dark(0);
        for (k, train) in inputs.iter().enumerate() {
            out.add_shifted(train, k);
        }
    }

    /// Modulation energy for routing trains with `total_pulse_slots` slots
    /// through the chain.
    #[must_use]
    pub fn modulation_energy(&self, total_pulse_slots: usize) -> Energy {
        #[allow(clippy::cast_precision_loss)]
        let slots = total_pulse_slots as f64;
        constants::mzi_energy_per_bit() * slots
    }

    /// Total chip area of the chain's MZIs (inter-stage waveguide folded on
    /// top of the device pitch).
    #[must_use]
    pub fn area(&self) -> Area {
        let per_stage = Mzi::default().area();
        let routing = self.inter_stage_path * constants::waveguide_pitch();
        #[allow(clippy::cast_precision_loss)]
        let n = self.stages as f64;
        Area::new(n * per_stage.value() + (n - 1.0).max(0.0) * routing.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_4;

    #[test]
    fn coupler_splits_power() {
        let mzi = Mzi::coupler(FRAC_PI_4);
        let (o0, o1) = mzi.propagate(Complex::ONE, Complex::ZERO);
        assert!((o0.norm_sqr() - 0.5).abs() < 1e-12);
        assert!((o1.norm_sqr() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transfer_matrix_is_unitary_for_any_phases() {
        for (up, low) in [(0.0, 0.0), (0.3, 1.2), (2.0, -0.7), (3.1, 3.1)] {
            assert!(Mzi::new(up, low).is_unitary(1e-9), "φ=({up},{low})");
        }
    }

    #[test]
    fn power_is_conserved() {
        let mzi = Mzi::new(0.8, 0.3);
        let i0 = Complex::new(0.6, 0.2);
        let i1 = Complex::new(-0.1, 0.9);
        let (o0, o1) = mzi.propagate(i0, i1);
        let pin = i0.norm_sqr() + i1.norm_sqr();
        let pout = o0.norm_sqr() + o1.norm_sqr();
        assert!((pin - pout).abs() < 1e-12);
    }

    #[test]
    fn eq9_path_length_at_10ghz() {
        let chain = MziChain::delay_matched(8, 10.0e9);
        // c/(n_Si · 10 GHz) − 2 mm ≈ 6.61 mm; the paper rounds to 6.77 mm.
        let mm = chain.inter_stage_path.value() * 1e3;
        assert!((mm - 6.61).abs() < 0.05, "got {mm} mm");
    }

    #[test]
    fn delay_matching_is_exact_one_bit_period_per_stage() {
        let chain = MziChain::delay_matched(4, 10.0e9);
        let stage_plus_path = constants::silicon_propagation_delay(Length::new(
            constants::mzi_arm_length().value() + chain.inter_stage_path.value(),
        ));
        assert!((stage_plus_path.as_picos() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn accumulate_computes_shifted_sum() {
        let chain = MziChain::delay_matched(4, 10.0e9);
        // inputs[k] weighted by 2^k: 3·1 + 1·2 + 0·4 + 1·8 = 13.
        let inputs: Vec<_> = [3u64, 1, 0, 1]
            .iter()
            .map(|&v| PulseTrain::from_bits(v, 4))
            .collect();
        let out = chain.accumulate(&inputs);
        assert_eq!(out.positional_value(), 13);
    }

    #[test]
    fn accumulate_produces_multilevel_amplitudes() {
        let chain = MziChain::delay_matched(3, 10.0e9);
        // All-ones on three stages: slot 2 receives 1 (k=0,bit2) + 1 (k=1,bit1)
        // + 1 (k=2,bit0) = 3 pulses.
        let inputs: Vec<_> = (0..3).map(|_| PulseTrain::from_bits(0b111, 3)).collect();
        let out = chain.accumulate(&inputs);
        assert_eq!(out.peak_level(), 3);
        assert_eq!(out.positional_value(), 7 + 14 + 28);
    }

    #[test]
    fn accumulate_into_matches_allocating_form() {
        let chain = MziChain::delay_matched(4, 10.0e9);
        let inputs: Vec<_> = [3u64, 1, 0, 1]
            .iter()
            .map(|&v| PulseTrain::from_bits(v, 4))
            .collect();
        let mut out = PulseTrain::from_bits(0b1111, 4); // stale scratch
        chain.accumulate_into(&inputs, &mut out);
        assert_eq!(out, chain.accumulate(&inputs));
        chain.accumulate_into(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn accumulate_empty_and_partial() {
        let chain = MziChain::delay_matched(4, 10.0e9);
        assert_eq!(chain.accumulate(&[]).positional_value(), 0);
        let one = [PulseTrain::from_bits(5, 3)];
        assert_eq!(chain.accumulate(&one).positional_value(), 5);
    }

    #[test]
    #[should_panic(expected = "stages")]
    fn accumulate_rejects_excess_inputs() {
        let chain = MziChain::delay_matched(2, 10.0e9);
        let inputs: Vec<_> = (0..3).map(|_| PulseTrain::from_bits(1, 1)).collect();
        let _ = chain.accumulate(&inputs);
    }

    #[test]
    fn chain_area_grows_with_stages() {
        let short = MziChain::delay_matched(2, 10.0e9);
        let long = MziChain::delay_matched(8, 10.0e9);
        assert!(long.area().value() > short.area().value());
    }
}
