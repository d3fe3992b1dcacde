//! LeNet-5 (LeCun et al., 1998) — the smallest evaluated network, also
//! used by the integration tests for full bit-true inference.

use crate::layer::{Layer, PoolKind, Shape};
use crate::network::Network;

/// LeNet-5: three convolutions (C5 implemented as a conv, as in the
/// original) and two FC layers.
#[must_use]
pub fn lenet() -> Network {
    Network::new(
        "LeNet",
        vec![
            Layer::conv("Conv1", Shape::square(32, 1), 6, 5, 1),
            Layer::pool("Pool1", Shape::square(28, 6), 2, 2, PoolKind::Average),
            Layer::conv("Conv2", Shape::square(14, 6), 16, 5, 1),
            Layer::pool("Pool2", Shape::square(10, 16), 2, 2, PoolKind::Average),
            Layer::conv("Conv3", Shape::square(5, 16), 120, 5, 1),
            Layer::fc("FC1", 120, 84),
            Layer::fc("FC2", 84, 10),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::network_totals;

    #[test]
    fn canonical_feature_sizes() {
        let net = lenet();
        let sizes: Vec<_> = net
            .compute_layers()
            .map(|l| l.output_feature_size())
            .collect();
        assert_eq!(sizes, [28, 10, 1, 1, 1]);
    }

    #[test]
    fn is_tiny() {
        let totals = network_totals(&lenet());
        assert!(totals.mul < 2_000_000, "total mul = {}", totals.mul);
        assert!(totals.mul > 100_000);
    }

    #[test]
    fn weight_budget() {
        // LeNet-5 stores ≈60 k weights (we count conv + fc weights only).
        let w = lenet().total_weights();
        assert!((50_000..80_000).contains(&w), "weights = {w}");
    }

    #[test]
    fn sequential_shapes_are_consistent() {
        lenet().validate_sequential().unwrap();
    }
}
