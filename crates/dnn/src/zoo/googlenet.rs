//! GoogLeNet (Szegedy et al., 2015), stored flattened: every inception
//! branch convolution is its own layer with its true input shape.

use crate::layer::{Layer, PoolKind, Shape};
use crate::network::Network;

/// Filter counts of one inception module:
/// `(n1x1, n3x3_reduce, n3x3, n5x5_reduce, n5x5, pool_proj)`.
type InceptionSpec = (usize, usize, usize, usize, usize, usize);

/// Appends the six convolutions of an inception module operating at
/// spatial size `s` with `c` input channels.
fn push_inception(layers: &mut Vec<Layer>, name: &str, s: usize, c: usize, spec: InceptionSpec) {
    let (n1, n3r, n3, n5r, n5, pp) = spec;
    layers.push(Layer::conv(
        format!("{name}_1x1"),
        Shape::square(s, c),
        n1,
        1,
        1,
    ));
    layers.push(Layer::conv(
        format!("{name}_3x3r"),
        Shape::square(s, c),
        n3r,
        1,
        1,
    ));
    layers.push(Layer::conv(
        format!("{name}_3x3"),
        Shape::square(s + 2, n3r),
        n3,
        3,
        1,
    ));
    layers.push(Layer::conv(
        format!("{name}_5x5r"),
        Shape::square(s, c),
        n5r,
        1,
        1,
    ));
    layers.push(Layer::conv(
        format!("{name}_5x5"),
        Shape::square(s + 4, n5r),
        n5,
        5,
        1,
    ));
    layers.push(Layer::conv(
        format!("{name}_pool"),
        Shape::square(s, c),
        pp,
        1,
        1,
    ));
}

/// Output channel count of an inception module.
const fn inception_out(spec: InceptionSpec) -> usize {
    spec.0 + spec.2 + spec.4 + spec.5
}

/// GoogLeNet: stem + nine inception modules + FC (auxiliary classifiers
/// omitted, as they are inference-time disabled).
#[must_use]
pub fn googlenet() -> Network {
    const I3A: InceptionSpec = (64, 96, 128, 16, 32, 32);
    const I3B: InceptionSpec = (128, 128, 192, 32, 96, 64);
    const I4A: InceptionSpec = (192, 96, 208, 16, 48, 64);
    const I4B: InceptionSpec = (160, 112, 224, 24, 64, 64);
    const I4C: InceptionSpec = (128, 128, 256, 24, 64, 64);
    const I4D: InceptionSpec = (112, 144, 288, 32, 64, 64);
    const I4E: InceptionSpec = (256, 160, 320, 32, 128, 128);
    const I5A: InceptionSpec = (256, 160, 320, 32, 128, 128);
    const I5B: InceptionSpec = (384, 192, 384, 48, 128, 128);

    let mut layers = vec![
        Layer::conv_padded("Conv1", Shape::square(224, 3), 64, 7, 2, 3),
        Layer::pool("Pool1", Shape::square(112, 64), 2, 2, PoolKind::Max),
        Layer::conv("Conv2r", Shape::square(56, 64), 64, 1, 1),
        Layer::conv("Conv2", Shape::square(58, 64), 192, 3, 1),
        Layer::pool("Pool2", Shape::square(56, 192), 2, 2, PoolKind::Max),
    ];

    push_inception(&mut layers, "Inc3a", 28, 192, I3A);
    push_inception(&mut layers, "Inc3b", 28, inception_out(I3A), I3B);
    layers.push(Layer::pool(
        "Pool3",
        Shape::square(28, inception_out(I3B)),
        2,
        2,
        PoolKind::Max,
    ));
    push_inception(&mut layers, "Inc4a", 14, inception_out(I3B), I4A);
    push_inception(&mut layers, "Inc4b", 14, inception_out(I4A), I4B);
    push_inception(&mut layers, "Inc4c", 14, inception_out(I4B), I4C);
    push_inception(&mut layers, "Inc4d", 14, inception_out(I4C), I4D);
    push_inception(&mut layers, "Inc4e", 14, inception_out(I4D), I4E);
    layers.push(Layer::pool(
        "Pool4",
        Shape::square(14, inception_out(I4E)),
        2,
        2,
        PoolKind::Max,
    ));
    push_inception(&mut layers, "Inc5a", 7, inception_out(I4E), I5A);
    push_inception(&mut layers, "Inc5b", 7, inception_out(I5A), I5B);
    layers.push(Layer::pool(
        "AvgPool",
        Shape::square(7, inception_out(I5B)),
        7,
        7,
        PoolKind::Average,
    ));
    layers.push(Layer::fc("FC1", inception_out(I5B), 1000));

    Network::new("GoogLeNet", layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::network_totals;

    #[test]
    fn layer_census() {
        let net = googlenet();
        // Stem 3 convs + 9 modules × 6 convs + 1 FC = 58 compute layers.
        assert_eq!(net.compute_layers().count(), 58);
    }

    #[test]
    fn inception_channel_arithmetic() {
        // 3a: 64+128+32+32 = 256; 5b: 384+384+128+128 = 1024.
        assert_eq!(inception_out((64, 96, 128, 16, 32, 32)), 256);
        assert_eq!(inception_out((384, 192, 384, 48, 128, 128)), 1024);
    }

    #[test]
    fn total_mul_matches_table_ii_scale() {
        // Table II: GoogLeNet EE multiplies cost 1578 mJ at ~1 nJ/mul
        // ⇒ ≈1.58 G multiplies.
        let totals = network_totals(&googlenet());
        #[allow(clippy::cast_precision_loss)]
        let g = totals.mul as f64 / 1e9;
        assert!((1.4..1.75).contains(&g), "total mul = {g} G");
    }

    #[test]
    fn fc_sits_on_1024_features() {
        let net = googlenet();
        let fc = net.layers().iter().find(|l| l.name == "FC1").unwrap();
        assert_eq!(fc.input.elements(), 1024);
    }
}
