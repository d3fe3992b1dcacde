//! Per-layer computation counts (paper §IV-B).
//!
//! For a convolution with input `[H, H, C]`, `M` filters of size `R×R` at
//! stride `U` and output feature size `E` (Eq. 11):
//!
//! ```text
//! N_MVM = E²·M·C          N_mul = R²·N_MVM
//! N_add = N_mul + E²·M    N_act = E²·M
//! ```
//!
//! For fully-connected layers the paper's Table I is only consistent with
//! `N_mul = N_in²` (e.g. FC1 of VGG16: 25088² ≈ 629 M), `N_add = 2·N_mul`,
//! `N_act = N_mul`, `N_MVM = 1` — not the textbook `N_in·N_out`. This
//! module counts FC layers the paper's way, which reproduces Table I.

use crate::layer::{Layer, LayerKind};
use crate::network::Network;

/// Operation counts for one layer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ComputeCounts {
    /// Layer name.
    pub name: String,
    /// Matrix-vector multiplications `N_MVM`.
    pub mvm: u64,
    /// Scalar multiplications `N_mul`.
    pub mul: u64,
    /// Scalar additions `N_add`.
    pub add: u64,
    /// Activation-function evaluations `N_act`.
    pub act: u64,
}

impl ComputeCounts {
    /// Sums two count sets (layer totals → network totals).
    #[must_use]
    pub fn combined(&self, other: &Self) -> Self {
        Self {
            name: String::from("total"),
            mvm: self.mvm + other.mvm,
            mul: self.mul + other.mul,
            add: self.add + other.add,
            act: self.act + other.act,
        }
    }
}

/// Analyzes one layer. FC layers count the paper's way (`N_mul = N_in²`,
/// `N_add = 2·N_in²`, `N_act = N_in²`, `N_MVM = 1`); pooling layers return
/// all-zero counts (the paper's tables cover conv and FC layers only).
///
/// # Examples
///
/// The paper's §IV-B worked example (VGG16 Conv1):
///
/// ```
/// use pixel_dnn::analysis::analyze_layer;
/// use pixel_dnn::layer::{Layer, Shape};
///
/// let conv1 = Layer::conv_padded("Conv1", Shape::square(224, 3), 64, 3, 1, 1);
/// let counts = analyze_layer(&conv1);
/// assert_eq!(counts.mvm, 9_633_792);
/// assert_eq!(counts.mul, 86_704_128);
/// ```
#[must_use]
pub fn analyze_layer(layer: &Layer) -> ComputeCounts {
    match layer.kind {
        LayerKind::Conv {
            filters, kernel, ..
        } => {
            let e = layer.output_feature_size() as u64;
            let m = filters as u64;
            let c = layer.input.c as u64;
            let r = kernel as u64;
            let mvm = e * e * m * c;
            let mul = r * r * mvm;
            let act = e * e * m;
            ComputeCounts {
                name: layer.name.clone(),
                mvm,
                mul,
                add: mul + act,
                act,
            }
        }
        LayerKind::Fc { .. } => {
            let n_in = layer.input.elements() as u64;
            ComputeCounts {
                name: layer.name.clone(),
                mvm: 1,
                mul: n_in * n_in,
                add: 2 * n_in * n_in,
                act: n_in * n_in,
            }
        }
        LayerKind::Pool { .. } => ComputeCounts {
            name: layer.name.clone(),
            ..ComputeCounts::default()
        },
    }
}

/// Analyzes every compute layer of a network, in order.
#[must_use]
pub fn analyze_network(network: &Network) -> Vec<ComputeCounts> {
    let _span = pixel_obs::span("analyze");
    let counts: Vec<ComputeCounts> = network.compute_layers().map(analyze_layer).collect();
    if pixel_obs::enabled() {
        pixel_obs::add("dnn.analysis.networks", 1);
        pixel_obs::add("dnn.analysis.layers", counts.len() as u64);
        pixel_obs::add("dnn.analysis.mvm_ops", counts.iter().map(|c| c.mvm).sum());
        pixel_obs::add("dnn.analysis.mul_ops", counts.iter().map(|c| c.mul).sum());
        pixel_obs::add("dnn.analysis.add_ops", counts.iter().map(|c| c.add).sum());
        pixel_obs::add("dnn.analysis.act_ops", counts.iter().map(|c| c.act).sum());
    }
    counts
}

/// Sums a network's per-layer counts.
#[must_use]
pub fn network_totals(network: &Network) -> ComputeCounts {
    analyze_network(network)
        .iter()
        .fold(ComputeCounts::default(), |acc, c| acc.combined(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Shape;

    #[test]
    fn paper_conv1_worked_example() {
        // §IV-B: Conv1 of VGG16 → N_MVM = 224²·64·3 = 9,633,792,
        // N_mul = 9·N_MVM = 86,704,128.
        let conv1 = Layer::conv_padded("Conv1", Shape::square(224, 3), 64, 3, 1, 1);
        let c = analyze_layer(&conv1);
        assert_eq!(c.mvm, 9_633_792);
        assert_eq!(c.mul, 86_704_128);
        assert_eq!(c.act, 224 * 224 * 64);
        assert_eq!(c.add, c.mul + c.act);
    }

    #[test]
    fn fc_paper_convention_is_input_squared() {
        let fc = Layer::fc("FC1", 25088, 4096);
        let c = analyze_layer(&fc);
        assert_eq!(c.mul, 25088 * 25088); // ≈ 629 M (Table I)
        assert_eq!(c.add, 2 * c.mul);
        assert_eq!(c.act, c.mul);
        assert_eq!(c.mvm, 1);
    }

    #[test]
    fn pooling_contributes_nothing() {
        use crate::layer::PoolKind;
        let pool = Layer::pool("Pool", Shape::square(8, 4), 2, 2, PoolKind::Max);
        let c = analyze_layer(&pool);
        assert_eq!((c.mvm, c.mul, c.add, c.act), (0, 0, 0, 0));
    }

    #[test]
    fn add_equals_mul_plus_act_for_conv() {
        // Structural invariant of the conv formulas.
        for (h, c_in, m, r, u) in [
            (58, 128, 256, 3, 1),
            (30, 256, 512, 3, 1),
            (114, 64, 128, 3, 1),
        ] {
            let layer = Layer::conv("c", Shape::square(h, c_in), m, r, u);
            let counts = analyze_layer(&layer);
            assert_eq!(counts.add, counts.mul + counts.act);
        }
    }

    #[test]
    fn totals_sum_layers() {
        let net = Network::new(
            "n",
            vec![
                Layer::conv("c1", Shape::square(6, 1), 2, 3, 1),
                Layer::fc("f1", 32, 10),
            ],
        );
        let per_layer = analyze_network(&net);
        let totals = network_totals(&net);
        assert_eq!(totals.mul, per_layer.iter().map(|c| c.mul).sum::<u64>());
        assert_eq!(totals.mvm, per_layer.iter().map(|c| c.mvm).sum::<u64>());
    }
}
