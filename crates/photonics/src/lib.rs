//! Photonic device substrate for the PIXEL accelerator reproduction.
//!
//! This crate models the silicon-photonic devices that PIXEL (HPCA 2020) is
//! built from, at two complementary levels:
//!
//! 1. **Analytic device models** — energy per bit, area, and propagation
//!    delay for microring resonators ([`mrr`]), Mach-Zehnder interferometers
//!    ([`mzi`]), waveguides ([`waveguide`]), on-chip Fabry-Pérot lasers
//!    ([`laser`]) and germanium photodetectors ([`photodetector`]), using the
//!    constants the paper reports (7.5 µm ring radius, n_Si = 3.48 at
//!    1550 nm, 10.45 ps/mm waveguide delay, …).
//! 2. **Bit-true functional simulation** — optical pulse trains
//!    ([`signal::PulseTrain`]) propagated through device state machines so
//!    that the optical AND (double-MRR filter) and the delay-matched MZI
//!    accumulator chain can be *executed* and checked against integer
//!    arithmetic, not just costed.
//!
//! # Example
//!
//! The optical AND of a neuron train with one synapse bit (a double-MRR
//! filter in the cross state), shift-accumulated by a delay-matched MZI
//! chain (Eq. 9):
//!
//! ```
//! use pixel_photonics::mrr::DoubleMrrFilter;
//! use pixel_photonics::mzi::MziChain;
//! use pixel_photonics::signal::PulseTrain;
//!
//! let neuron = PulseTrain::from_bits(0b0110, 4);
//! let partial = DoubleMrrFilter::default().and(&neuron, true);
//! let chain = MziChain::delay_matched(2, 10.0e9);
//! let sum = chain.accumulate(&[partial.clone(), partial]);
//! assert_eq!(sum.positional_value(), 6 + 2 * 6);
//! ```

pub mod complex;
pub mod constants;
pub mod laser;
pub mod link;
pub mod mesh;
pub mod mrr;
pub mod mzi;
pub mod noise;
pub mod photodetector;
pub mod serdes;
pub mod signal;
pub mod spectral;
pub mod thermal;
pub mod waveguide;

/// Re-export of the shared physical-quantity types.
pub use pixel_units as units;
pub mod wdm;

pub use complex::Complex;
pub use laser::FabryPerotLaser;
pub use link::PhotonicLink;
pub use mrr::DoubleMrrFilter;
pub use mzi::{Mzi, MziChain};
pub use photodetector::Photodetector;
pub use signal::{PulseTrain, WavelengthId, WdmSignal};
pub use units::{Energy, Length, Power, Time};
pub use waveguide::Waveguide;
