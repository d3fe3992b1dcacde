//! The six CNN architectures the paper evaluates (§IV-B).
//!
//! Layer tables follow the paper's conventions: input shapes are tabulated
//! with padding baked in where Table I does so (the `[226,226,64]` style),
//! fully-connected layers are described by their input width, and branching
//! topologies (ResNet-34 shortcuts, GoogLeNet inception modules) are stored
//! flattened — every branch conv appears as its own layer with its true
//! input shape, which is all the op-count analysis needs.

mod alexnet;
mod googlenet;
mod lenet;
mod resnet34;
mod vgg16;
mod zfnet;

pub use alexnet::alexnet;
pub use googlenet::googlenet;
pub use lenet::lenet;
pub use resnet34::resnet34;
pub use vgg16::vgg16;
pub use zfnet::zfnet;

use crate::network::Network;

/// All six evaluated networks, in the order the paper's figures list them.
#[must_use]
pub fn all_networks() -> Vec<Network> {
    vec![
        vgg16(),
        alexnet(),
        zfnet(),
        resnet34(),
        lenet(),
        googlenet(),
    ]
}

/// Builds a zoo network by its canonical name (the `Network::name` the
/// constructors assign), or `None` for a name outside the zoo.
#[must_use]
pub fn by_name(name: &str) -> Option<Network> {
    match name {
        "VGG16" => Some(vgg16()),
        "AlexNet" => Some(alexnet()),
        "ZFNet" => Some(zfnet()),
        "ResNet-34" => Some(resnet34()),
        "LeNet" => Some(lenet()),
        "GoogLeNet" => Some(googlenet()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::network_totals;

    #[test]
    fn six_networks_in_paper_order() {
        let nets = all_networks();
        let names: Vec<_> = nets.iter().map(|n| n.name().to_owned()).collect();
        assert_eq!(
            names,
            [
                "VGG16",
                "AlexNet",
                "ZFNet",
                "ResNet-34",
                "LeNet",
                "GoogLeNet"
            ]
        );
    }

    #[test]
    fn by_name_round_trips_the_zoo() {
        for net in all_networks() {
            let found = by_name(net.name()).unwrap();
            assert_eq!(found.name(), net.name());
            assert_eq!(found.len(), net.len());
        }
        assert!(by_name("MLP-Mixer").is_none());
    }

    #[test]
    fn network_scale_ordering_matches_paper() {
        // Table II energy ordering implies total-mul ordering:
        // ResNet-34 > GoogLeNet > ZFNet; VGG16 is the largest of all;
        // LeNet is tiny.
        let mul_of = |net: &Network| network_totals(net).mul;
        let nets = all_networks();
        let vgg = mul_of(&nets[0]);
        let alex = mul_of(&nets[1]);
        let zf = mul_of(&nets[2]);
        let resnet = mul_of(&nets[3]);
        let lenet = mul_of(&nets[4]);
        let goog = mul_of(&nets[5]);

        assert!(vgg > resnet, "VGG16 {vgg} should exceed ResNet-34 {resnet}");
        assert!(resnet > goog, "ResNet-34 {resnet} > GoogLeNet {goog}");
        assert!(goog > zf, "GoogLeNet {goog} > ZFNet {zf}");
        assert!(zf > lenet, "ZFNet {zf} > LeNet {lenet}");
        assert!(alex > lenet);
    }
}
