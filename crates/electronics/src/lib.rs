//! 22 nm electrical logic substrate for the PIXEL accelerator reproduction.
//!
//! The paper evaluates its electrical components by counting logic gates
//! and feeding gate counts into the DSENT simulator's `Bulk22LVT`
//! technology model. This crate rebuilds that flow:
//!
//! * [`technology`] — the technology model: per-gate switching energy,
//!   area, leakage and per-level propagation delay.
//! * [`gates`] — [`gates::GateCount`] / [`gates::LogicDepth`] newtypes.
//! * [`dsent`] — the mini-DSENT estimator turning (gates, depth) into
//!   energy/area/power/delay, calibrated to the paper's worked example
//!   (a 212-gate, depth-10 CLA).
//! * [`cla`] — Eq. 5/6 carry-lookahead gate model **and** a bit-true CLA.
//! * [`shifter`], [`register`], [`comparator`] — remaining gate models with
//!   functional implementations.
//! * [`stripes`] — the bit-true Stripes (STR) bit-serial MAC engine that
//!   all three accelerator designs are modelled after.
//! * [`activation`] — fixed-point hybrid piecewise-linear tanh
//!   (Zamanlooy-style), sigmoid and ReLU.
//! * [`converter`] — o/e converter back-end logic: serial→parallel
//!   (design 1) and comparator-ladder amplitude decode (design 2).
//!
//! # Example
//!
//! ```
//! use pixel_electronics::cla::Cla;
//! use pixel_electronics::technology::Technology;
//! use pixel_electronics::dsent;
//!
//! let cla = Cla::new(8);
//! assert_eq!(cla.gate_count().get(), 212);   // paper: GC(8) = 212
//! assert_eq!(cla.logic_depth().get(), 10);   // paper: LD(8) = 10
//!
//! let tech = Technology::bulk22lvt();
//! let est = dsent::estimate(cla.gate_count(), cla.logic_depth(), &tech);
//! assert!((est.delay.as_nanos() - 2.95).abs() < 0.01); // paper: 2.95 ns
//! ```

pub mod activation;
pub mod cla;
pub mod comparator;
pub mod converter;
pub mod dsent;
pub mod gates;
pub mod multiplier;
pub mod register;
pub mod ripple;
pub mod shifter;
pub mod sram;
pub mod stripes;
pub mod technology;

pub use cla::Cla;
pub use dsent::DeviceEstimate;
pub use gates::{GateCount, LogicDepth};
pub use stripes::StripesMac;
pub use technology::Technology;
