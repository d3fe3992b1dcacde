//! VGG16 as tabulated in the paper's Table I: ten convolution layers with
//! padding baked into the tabulated input shapes, plus three FC layers.

use crate::layer::{Layer, PoolKind, Shape};
use crate::network::Network;

/// The paper's VGG16 variant (Table I).
#[must_use]
pub fn vgg16() -> Network {
    Network::new(
        "VGG16",
        vec![
            Layer::conv_padded("Conv1", Shape::square(224, 3), 64, 3, 1, 1),
            Layer::conv("Conv2", Shape::square(226, 64), 64, 3, 1),
            Layer::pool("Pool1", Shape::square(224, 64), 2, 2, PoolKind::Max),
            Layer::conv("Conv3", Shape::square(114, 64), 128, 3, 1),
            Layer::conv("Conv4", Shape::square(114, 128), 128, 3, 1),
            Layer::pool("Pool2", Shape::square(112, 128), 2, 2, PoolKind::Max),
            Layer::conv("Conv5", Shape::square(58, 128), 256, 3, 1),
            Layer::conv("Conv6", Shape::square(58, 256), 256, 3, 1),
            Layer::pool("Pool3", Shape::square(56, 256), 2, 2, PoolKind::Max),
            Layer::conv("Conv7", Shape::square(30, 256), 512, 3, 1),
            Layer::conv("Conv8", Shape::square(30, 512), 512, 3, 1),
            Layer::pool("Pool4", Shape::square(28, 512), 2, 2, PoolKind::Max),
            Layer::conv("Conv9", Shape::square(16, 512), 512, 3, 1),
            Layer::conv("Conv10", Shape::square(16, 512), 512, 3, 1),
            Layer::pool("Pool5", Shape::square(14, 512), 2, 2, PoolKind::Max),
            Layer::fc("FC1", 25088, 4096),
            Layer::fc("FC2", 4096, 4096),
            Layer::fc("FC3", 4096, 1000),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_network;

    /// Table I oracle: (name, MVM, Mul, Add, Act) in raw operation counts,
    /// checked against the paper's values in millions.
    const TABLE_I_MILLIONS: &[(&str, f64, f64, f64, f64)] = &[
        ("Conv1", 9.63, 86.7, 89.9, 3.21),
        ("Conv2", 206.0, 1850.0, 1853.0, 3.21),
        ("Conv3", 103.0, 925.0, 926.0, 1.61),
        ("Conv4", 206.0, 1850.0, 1850.0, 1.61),
        ("Conv5", 103.0, 926.0, 926.0, 0.803),
        ("Conv6", 206.0, 1850.0, 1850.0, 0.803),
        ("Conv7", 103.0, 925.0, 925.0, 0.401),
        ("Conv8", 206.0, 1850.0, 1850.0, 0.401),
        ("Conv9", 51.4, 462.0, 463.0, 0.100),
        ("Conv10", 51.4, 462.0, 463.0, 0.100),
        ("FC1", 1e-6, 629.0, 1259.0, 629.0),
        ("FC2", 1e-6, 16.8, 33.6, 16.8),
        ("FC3", 1e-6, 16.8, 33.6, 16.8),
    ];

    fn close(actual: u64, paper_millions: f64) -> bool {
        #[allow(clippy::cast_precision_loss)]
        let actual_m = actual as f64 / 1e6;
        if paper_millions < 1.0 {
            (actual_m - paper_millions).abs() < 0.05
        } else {
            // Paper rounds to 3 significant figures.
            (actual_m - paper_millions).abs() / paper_millions < 0.005
        }
    }

    #[test]
    fn reproduces_table_i() {
        let counts = analyze_network(&vgg16());
        assert_eq!(counts.len(), TABLE_I_MILLIONS.len());
        for (c, &(name, mvm, mul, add, act)) in counts.iter().zip(TABLE_I_MILLIONS) {
            assert_eq!(c.name, name);
            assert!(close(c.mvm, mvm), "{name} MVM: {} vs {mvm}M", c.mvm);
            assert!(close(c.mul, mul), "{name} Mul: {} vs {mul}M", c.mul);
            assert!(close(c.add, add), "{name} Add: {} vs {add}M", c.add);
            assert!(close(c.act, act), "{name} Act: {} vs {act}M", c.act);
        }
    }

    #[test]
    fn conv1_exact_values() {
        let counts = analyze_network(&vgg16());
        assert_eq!(counts[0].mvm, 9_633_792);
        assert_eq!(counts[0].mul, 86_704_128);
    }

    #[test]
    fn sequential_shapes_are_consistent() {
        vgg16().validate_sequential().unwrap();
    }

    #[test]
    fn thirteen_compute_layers() {
        assert_eq!(vgg16().compute_layers().count(), 13);
    }
}
