//! ZFNet (Zeiler & Fergus, 2014) — the network of the paper's Fig. 9
//! per-layer latency study.

use crate::layer::{Layer, PoolKind, Shape};
use crate::network::Network;

/// ZFNet: five convolutions and three FC layers.
#[must_use]
pub fn zfnet() -> Network {
    Network::new(
        "ZFNet",
        vec![
            // 224×224×3 pad 1, 96 kernels of 7×7 at stride 2 → 110.
            Layer::conv_padded("Conv1", Shape::square(224, 3), 96, 7, 2, 1),
            Layer::pool("Pool1", Shape::square(110, 96), 2, 2, PoolKind::Max),
            // 55×55×96, 256 kernels of 5×5 at stride 2 → 26.
            Layer::conv("Conv2", Shape::square(55, 96), 256, 5, 2),
            Layer::pool("Pool2", Shape::square(26, 256), 2, 2, PoolKind::Max),
            // 13×13 padded to 15, 3×3 kernels → 13.
            Layer::conv("Conv3", Shape::square(15, 256), 384, 3, 1),
            Layer::conv("Conv4", Shape::square(15, 384), 384, 3, 1),
            Layer::conv("Conv5", Shape::square(15, 384), 256, 3, 1),
            Layer::pool("Pool3", Shape::square(13, 256), 2, 2, PoolKind::Max),
            Layer::fc("FC1", 9216, 4096),
            Layer::fc("FC2", 4096, 4096),
            Layer::fc("FC3", 4096, 1000),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze_network, network_totals};

    #[test]
    fn canonical_feature_sizes() {
        let net = zfnet();
        let sizes: Vec<_> = net
            .compute_layers()
            .map(|l| l.output_feature_size())
            .collect();
        assert_eq!(sizes, [110, 26, 13, 13, 13, 1, 1, 1]);
    }

    #[test]
    fn total_mul_matches_table_ii_scale() {
        // Table II charges ZFNet's EE multiplies 1225 mJ; with the implied
        // ~1 nJ/mul that is ≈1.2 G multiplies.
        let totals = network_totals(&zfnet());
        #[allow(clippy::cast_precision_loss)]
        let g = totals.mul as f64 / 1e9;
        assert!((1.0..1.45).contains(&g), "total mul = {g} G");
    }

    #[test]
    fn conv2_dominates_convs() {
        // Fig. 9 singles out Conv2 as the heavyweight layer.
        let counts = analyze_network(&zfnet());
        let conv2 = counts.iter().find(|c| c.name == "Conv2").unwrap();
        for c in counts.iter().filter(|c| c.name != "Conv2") {
            assert!(
                conv2.mul > c.mul,
                "Conv2 ({}) vs {} ({})",
                conv2.mul,
                c.name,
                c.mul
            );
        }
    }

    #[test]
    fn sequential_shapes_are_consistent() {
        zfnet().validate_sequential().unwrap();
    }
}
