//! AlexNet (Krizhevsky et al., 2012), tabulated paper-style with padding
//! baked into the listed input shapes.

use crate::layer::{Layer, PoolKind, Shape};
use crate::network::Network;

/// AlexNet: five convolutions and three FC layers.
#[must_use]
pub fn alexnet() -> Network {
    Network::new(
        "AlexNet",
        vec![
            // 227×227×3, 96 kernels of 11×11 at stride 4 → 55.
            Layer::conv("Conv1", Shape::square(227, 3), 96, 11, 4),
            Layer::pool("Pool1", Shape::square(55, 96), 3, 2, PoolKind::Max),
            // 27×27 padded to 31 (pad 2), 256 kernels of 5×5 → 27.
            Layer::conv("Conv2", Shape::square(31, 96), 256, 5, 1),
            Layer::pool("Pool2", Shape::square(27, 256), 3, 2, PoolKind::Max),
            // 13×13 padded to 15, 3×3 kernels → 13.
            Layer::conv("Conv3", Shape::square(15, 256), 384, 3, 1),
            Layer::conv("Conv4", Shape::square(15, 384), 384, 3, 1),
            Layer::conv("Conv5", Shape::square(15, 384), 256, 3, 1),
            Layer::pool("Pool3", Shape::square(13, 256), 3, 2, PoolKind::Max),
            Layer::fc("FC1", 9216, 4096),
            Layer::fc("FC2", 4096, 4096),
            Layer::fc("FC3", 4096, 1000),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::network_totals;

    #[test]
    fn canonical_feature_sizes() {
        let net = alexnet();
        let sizes: Vec<_> = net
            .compute_layers()
            .map(|l| l.output_feature_size())
            .collect();
        assert_eq!(sizes, [55, 27, 13, 13, 13, 1, 1, 1]);
    }

    #[test]
    fn eight_compute_layers() {
        assert_eq!(alexnet().compute_layers().count(), 8);
    }

    #[test]
    fn total_multiplications_scale() {
        // ≈1.1–1.3 G multiplies under the paper convention.
        let totals = network_totals(&alexnet());
        assert!(
            (1.0e9..1.4e9).contains(&(totals.mul as f64)),
            "total mul = {}",
            totals.mul
        );
    }

    #[test]
    fn sequential_shapes_are_consistent() {
        alexnet().validate_sequential().unwrap();
    }
}
