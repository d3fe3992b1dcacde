//! End-to-end fabric test: neurons fired over the MWSR waveguide, decoded
//! at the tiles, computed through the bit-true OMACs, and compared with a
//! direct convolution.

use pixel::core::config::{AcceleratorConfig, Design};
use pixel::core::interconnect::{Dimension, TileCoord, XyFabric};
use pixel::core::omac::{PlaneAccumulator, WindowGroup};
use pixel::core::tile::Tile;
use pixel::photonics::photodetector::Photodetector;
use pixel::photonics::signal::PulseTrain;
use pixel::units::rng::SplitMix64;
use pixel::units::Power;

const BITS: usize = 8;

/// Fires one neuron word per tile across a row waveguide and checks every
/// tile's band decodes losslessly after waveguide attenuation.
#[test]
fn row_broadcast_survives_attenuation() {
    let fabric = XyFabric::new(1, 4, 2);
    let mut rng = SplitMix64::seed_from_u64(5);
    let words: Vec<Vec<u64>> = (0..4)
        .map(|_| (0..2).map(|_| rng.range_u64(0, 255)).collect())
        .collect();
    let per_tile: Vec<Vec<PulseTrain>> = words
        .iter()
        .map(|lanes| {
            lanes
                .iter()
                .map(|&w| PulseTrain::from_bits(w, BITS))
                .collect()
        })
        .collect();
    let signal = fabric.broadcast_row(&per_tile).expect("plan fits");

    let detector = Photodetector::default();
    for (tile, lanes) in words.iter().enumerate() {
        let band = fabric
            .tile_wavelengths(TileCoord { row: 0, col: tile }, Dimension::X)
            .expect("on fabric");
        for (lane, &expected) in lanes.iter().enumerate() {
            let train = signal.demux(band[lane]);
            let decoded = detector
                .detect_binary(&train, Power::from_microwatts(100.0))
                .expect("binary decode");
            assert_eq!(decoded, expected, "tile {tile} lane {lane}");
        }
    }
}

/// A 3×3 convolution window computed tile-by-tile through fired weights,
/// for each design, equals the direct integer result.
#[test]
fn tiles_compute_conv_windows_after_firing() {
    let mut rng = SplitMix64::seed_from_u64(11);
    let window: Vec<u64> = (0..9).map(|_| rng.range_u64(0, 15)).collect();
    let kernel: Vec<u64> = (0..9).map(|_| rng.range_u64(0, 15)).collect();
    let expected: u64 = window.iter().zip(&kernel).map(|(&a, &b)| a * b).sum();

    // The window rides a one-window bit-plane group.
    let group = WindowGroup::pack(&window, 9, 1, 4);
    for design in Design::ALL {
        let mut tile = Tile::new(AcceleratorConfig::new(design, 4, 4), 9);
        tile.load_weights(&kernel);
        let mut out = Vec::new();
        tile.fire_planes(&group, &mut PlaneAccumulator::new(), &mut out);
        assert_eq!(out, [expected], "{design}");
    }
}

/// Wavelength reuse across rows: two different rows may use the same
/// channel indices because they ride different physical waveguides.
#[test]
fn rows_are_independent_waveguides() {
    let fabric = XyFabric::new(2, 2, 2);
    let row0 = vec![
        vec![
            PulseTrain::from_bits(0b1010, 4),
            PulseTrain::from_bits(1, 4),
        ],
        vec![
            PulseTrain::from_bits(0b0101, 4),
            PulseTrain::from_bits(2, 4),
        ],
    ];
    let row1 = vec![
        vec![
            PulseTrain::from_bits(0b1111, 4),
            PulseTrain::from_bits(3, 4),
        ],
        vec![
            PulseTrain::from_bits(0b0001, 4),
            PulseTrain::from_bits(0, 4),
        ],
    ];
    let s0 = fabric.broadcast_row(&row0).expect("row 0");
    let s1 = fabric.broadcast_row(&row1).expect("row 1");
    // Same wavelength index, different data, no interference.
    let id = fabric
        .tile_wavelengths(TileCoord { row: 0, col: 0 }, Dimension::X)
        .unwrap()[0];
    assert_eq!(s0.demux(id).to_bits(), Some(0b1010));
    assert_eq!(s1.demux(id).to_bits(), Some(0b1111));
}
