//! CNN substrate for the PIXEL accelerator reproduction.
//!
//! The paper drives its accelerator models with a per-layer analysis of
//! six CNNs (VGG16, AlexNet, ZFNet, ResNet-34, LeNet, GoogLeNet),
//! performed in MATLAB. This crate rebuilds that substrate:
//!
//! * [`layer`] / [`network`] — layer specifications (conv, fully-connected,
//!   pool) with explicit input shapes, exactly as the paper tabulates them
//!   (Table I bakes padding into the input shape, e.g. Conv2's
//!   `[226,226,64]`).
//! * [`zoo`] — the six evaluated CNN architectures.
//! * [`analysis`] — the op-count formulas of §IV-B: output feature size
//!   `E = (H − R + U)/U` (Eq. 11), `N_MVM = E²MC`, `N_mul = R²·N_MVM`,
//!   `N_add = N_mul + E²M`, `N_act = E²M`, including the paper's
//!   idiosyncratic fully-connected convention (`N_mul = N_in²`; see
//!   DESIGN.md §3).
//! * [`tensor`], [`quant`], [`inference`] — an integer tensor type and a
//!   quantized forward-pass engine with a pluggable MAC, so inference can
//!   be executed bit-true through the EE/OE/OO functional MAC units.
//!   Convolutions run as blocks of unrolled windows × unrolled kernels
//!   (the `N_MVM = E²MC` view).
//!
//! # Example
//!
//! Reproducing the first row of Table I:
//!
//! ```
//! use pixel_dnn::{zoo, analysis};
//!
//! let vgg = zoo::vgg16();
//! let counts = analysis::analyze_network(&vgg);
//! let conv1 = counts.iter().find(|c| c.name == "Conv1").unwrap();
//! assert_eq!(conv1.mvm, 9_633_792);          // 9.63 M
//! assert_eq!(conv1.mul, 86_704_128);         // 86.7 M
//! ```

pub mod analysis;
pub mod dataset;
pub mod inference;
pub mod layer;
pub mod metrics;
pub mod mix;
pub mod network;
pub mod quant;
pub mod signed;
pub mod tensor;
pub mod zoo;

pub use analysis::ComputeCounts;
pub use layer::{Layer, LayerKind, Shape};
pub use mix::NetworkMix;
pub use network::Network;
pub use tensor::Tensor;
