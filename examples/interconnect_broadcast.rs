//! The paper's §III-A worked example on the functional fabric.
//!
//! ```text
//! cargo run --example interconnect_broadcast
//! ```
//!
//! Recreates Fig. 2's 4-OMAC configuration: four tiles fire their input
//! neuron lanes on their own wavelength blocks of a shared MWSR
//! waveguide (λ₀–λ₁₅); each OMAC drops its band, ANDs against its
//! pre-loaded synapse lane, and accumulates. The printed partial sum for
//! filter 0 is the paper's worked value (42).

use pixel::core::config::{AcceleratorConfig, Design};
use pixel::core::functional_fabric::FunctionalFabric;
use pixel::core::interconnect::{Dimension, TileCoord, XyFabric};
use pixel::dnn::inference::MacEngine;
use pixel::photonics::signal::PulseTrain;

fn main() {
    // Fig. 2(b): 4 OMACs × 4 lanes, 4 bits/lane.
    let fabric = XyFabric::new(1, 4, 4);
    let bits = 4usize;

    // §II-B inputs: INL₀(2,4,6,9), INL₁(0,1,3,4), INL₂(3,5,1,2), INL₃(8,2,8,6).
    // Cycle 1 fires element 0 of each lane: (2, 0, 3, 8).
    let fired = [2u64, 0, 3, 8];
    let per_tile: Vec<Vec<PulseTrain>> = fired
        .iter()
        .map(|&v| {
            // Each OMAC transmits one neuron on its first owned wavelength
            // this cycle (remaining lanes dark).
            let mut lanes = vec![PulseTrain::from_bits(v, bits)];
            lanes.extend((1..4).map(|_| PulseTrain::dark(bits)));
            lanes
        })
        .collect();

    println!("MWSR broadcast on the x-dimension waveguide:");
    let signal = fabric
        .broadcast_row(&per_tile)
        .expect("4 tiles fit the plan");
    for (id, train) in signal.iter() {
        if train.total_amplitude() > 0.0 {
            println!(
                "  {id}: bits {:04b} (post-loss power {:.2})",
                train.to_bits().unwrap_or(0),
                train.total_amplitude()
            );
        }
    }
    println!(
        "  one-way line latency: {:.1} ps\n",
        fabric.line_latency(Dimension::X).as_picos()
    );

    // Filter 0 lives on tile (0,0): synapse lane SL₀ element 0 of each
    // lane = (6, 1, 2, 3). The fired neurons form one window, carried to
    // the tile as a one-window bit-plane group.
    for design in Design::ALL {
        let omacs = FunctionalFabric::new(AcceleratorConfig::new(design, 4, 4));
        let mut partial = [0];
        omacs.load(&[6, 1, 2, 3], 4).fire(&fired, &mut partial);
        println!(
            "{} OMAC 0 partial sum: {} (paper: 42)",
            design.label(),
            partial[0]
        );
        assert_eq!(partial, [42]);
    }

    // Wavelength ownership sanity: Fig. 2(b)'s band plan.
    let band = fabric
        .tile_wavelengths(TileCoord { row: 0, col: 3 }, Dimension::X)
        .expect("tile 3 on fabric");
    println!(
        "\nOMAC 3 transmits on {} – {}",
        band[0],
        band[band.len() - 1]
    );
}
