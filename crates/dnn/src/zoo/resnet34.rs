//! ResNet-34 (He et al., 2016), stored flattened: each basic block's two
//! 3×3 convolutions and each stage's 1×1 projection shortcut appear as
//! individual layers with their true input shapes.

use crate::layer::{Layer, PoolKind, Shape};
use crate::network::Network;

/// Appends one basic block (two 3×3 convs) operating at spatial size
/// `s` (tabulated padded as `s + 2`) with `c` channels.
fn push_block(layers: &mut Vec<Layer>, stage: usize, block: usize, s: usize, c: usize) {
    for half in 1..=2 {
        layers.push(Layer::conv(
            format!("Conv{stage}_{block}_{half}"),
            Shape::square(s + 2, c),
            c,
            3,
            1,
        ));
    }
}

/// ResNet-34: 33 convolutions + 3 projection shortcuts + global average
/// pool + FC, per the original topology.
#[must_use]
pub fn resnet34() -> Network {
    let mut layers = vec![
        // Stem: 7×7/2 with pad 3 → 112, then 2×2 pool → 56.
        Layer::conv_padded("Conv1", Shape::square(224, 3), 64, 7, 2, 3),
        Layer::pool("Pool1", Shape::square(112, 64), 2, 2, PoolKind::Max),
    ];

    // Stage 2: three 64-channel blocks at 56×56.
    for b in 1..=3 {
        push_block(&mut layers, 2, b, 56, 64);
    }

    // Stage 3: downsample to 28×28 / 128 channels (stride-2 first conv +
    // 1×1 projection), then continue.
    layers.push(Layer::conv("Conv3_1_1", Shape::square(58, 64), 128, 3, 2));
    layers.push(Layer::conv("Conv3_1_2", Shape::square(30, 128), 128, 3, 1));
    layers.push(Layer::conv("Proj3", Shape::square(56, 64), 128, 1, 2));
    for b in 2..=4 {
        push_block(&mut layers, 3, b, 28, 128);
    }

    // Stage 4: 14×14 / 256.
    layers.push(Layer::conv("Conv4_1_1", Shape::square(30, 128), 256, 3, 2));
    layers.push(Layer::conv("Conv4_1_2", Shape::square(16, 256), 256, 3, 1));
    layers.push(Layer::conv("Proj4", Shape::square(28, 128), 256, 1, 2));
    for b in 2..=6 {
        push_block(&mut layers, 4, b, 14, 256);
    }

    // Stage 5: 7×7 / 512.
    layers.push(Layer::conv("Conv5_1_1", Shape::square(16, 256), 512, 3, 2));
    layers.push(Layer::conv("Conv5_1_2", Shape::square(9, 512), 512, 3, 1));
    layers.push(Layer::conv("Proj5", Shape::square(14, 256), 512, 1, 2));
    for b in 2..=3 {
        push_block(&mut layers, 5, b, 7, 512);
    }

    layers.push(Layer::pool(
        "AvgPool",
        Shape::square(7, 512),
        7,
        7,
        PoolKind::Average,
    ));
    layers.push(Layer::fc("FC1", 512, 1000));

    Network::new("ResNet-34", layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::network_totals;

    #[test]
    fn layer_census() {
        let net = resnet34();
        let convs = net
            .layers()
            .iter()
            .filter(|l| matches!(l.kind, crate::layer::LayerKind::Conv { .. }))
            .count();
        // 33 topology convs + 3 projection shortcuts.
        assert_eq!(convs, 36);
        // Convs + 1 FC.
        assert_eq!(net.compute_layers().count(), 37);
    }

    #[test]
    fn stage_feature_sizes() {
        let net = resnet34();
        let size_of = |name: &str| {
            net.layers()
                .iter()
                .find(|l| l.name == name)
                .unwrap()
                .output_feature_size()
        };
        assert_eq!(size_of("Conv1"), 112);
        assert_eq!(size_of("Conv2_1_1"), 56);
        assert_eq!(size_of("Conv3_1_1"), 28);
        assert_eq!(size_of("Proj3"), 28);
        assert_eq!(size_of("Conv4_1_1"), 14);
        assert_eq!(size_of("Proj4"), 14);
        assert_eq!(size_of("Conv5_1_1"), 7);
        assert_eq!(size_of("Proj5"), 7);
    }

    #[test]
    fn total_mul_matches_table_ii_scale() {
        // Table II: ResNet-34 EE multiplies cost 3634 mJ at the implied
        // ~1 nJ/mul ⇒ ≈3.6 G multiplies.
        let totals = network_totals(&resnet34());
        #[allow(clippy::cast_precision_loss)]
        let g = totals.mul as f64 / 1e9;
        assert!((3.3..3.95).contains(&g), "total mul = {g} G");
    }
}
