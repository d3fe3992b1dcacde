//! PIXEL — the photonic neural network accelerator (HPCA 2020).
//!
//! This crate is the paper's primary contribution: the three accelerator
//! designs (all-electrical **EE**, hybrid **OE**, all-optical **OO**), the
//! PIXEL tile fabric with its x/y photonic interconnect, and the
//! energy/area/latency/EDP models behind every figure and table of the
//! evaluation. It is built on three substrates:
//!
//! * `pixel-photonics` — MRR / MZI / waveguide / laser / detector devices
//!   with bit-true pulse-train simulation,
//! * `pixel-electronics` — the 22 nm gate-level logic models and bit-true
//!   CLA/shifter/Stripes implementations,
//! * `pixel-dnn` — the six evaluated CNNs and the §IV-B op-count analysis.
//!
//! Two complementary layers live here:
//!
//! 1. **Functional OMACs** ([`omac`]) — bit-true EE/OE/OO multiply-
//!    accumulate units that actually compute through the device
//!    simulations, all verified equivalent to integer arithmetic.
//! 2. **Architecture models** ([`energy`], [`area`], [`latency`],
//!    [`edp`], [`accelerator`], [`dse`]) — the analytic evaluation the
//!    paper reports, with constants documented in [`calibration`].
//!
//! # Example
//!
//! ```
//! use pixel_core::accelerator::Accelerator;
//! use pixel_core::config::{AcceleratorConfig, Design};
//! use pixel_dnn::zoo;
//!
//! // The paper's headline configuration: 4 lanes, 16 bits/lane.
//! let oo = Accelerator::new(AcceleratorConfig::new(Design::Oo, 4, 16));
//! let ee = Accelerator::new(AcceleratorConfig::new(Design::Ee, 4, 16));
//! let net = zoo::lenet();
//! let edp_oo = oo.evaluate(&net).edp();
//! let edp_ee = ee.evaluate(&net).edp();
//! assert!(edp_oo < edp_ee, "OO wins EDP at high bits/lane");
//! ```

pub mod ablation;
pub mod accelerator;
pub mod area;
pub mod audit;
pub mod calibration;
pub mod coherent;
pub mod config;
pub mod dse;
pub mod edp;
pub mod energy;
pub mod functional_fabric;
pub mod interconnect;
pub mod latency;
pub mod mapping;
pub mod model;
pub mod omac;
pub mod overrides;
pub mod pam;
pub mod partition;
pub mod power;
pub mod reliability;
pub mod report;
pub mod robustness;
pub mod roofline;
pub mod scaling;
pub mod seed;
pub mod sim;
pub mod sweep;
pub mod throughput;
pub mod tile;
pub mod weight_streaming;

pub use accelerator::{Accelerator, LayerReport, NetworkReport};
pub use config::{AcceleratorConfig, Design};
pub use energy::EnergyBreakdown;
pub use model::{DesignModel, EvalContext};
pub use sweep::SweepEngine;
