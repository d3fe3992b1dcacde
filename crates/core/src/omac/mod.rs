//! Functional (bit-true) OMAC units.
//!
//! Each of the paper's three designs is implemented as an executable
//! multiply-accumulate unit built from the device simulations of the
//! substrate crates:
//!
//! * [`ee::EeMac`] — the Stripes bit-serial electrical baseline
//!   (`pixel_electronics::stripes`),
//! * [`oe::OeMac`] — optical AND through double-MRR filters, serial o/e
//!   conversion, electrical shift-accumulate,
//! * [`oo::OoMac`] — optical AND plus MZI-chain optical accumulation and
//!   comparator-ladder amplitude conversion.
//!
//! All three implement [`pixel_dnn::inference::MacEngine`], so whole CNNs
//! can be executed through them and compared element-for-element against
//! plain integer inference — the functional verification the paper's
//! analytic evaluation takes on trust. Each runs one inner product at a
//! time through its device simulation (`inner_product`, the reference).
//! Whole GEMM blocks run through one plane loader
//! (`bitplane::load_planes`), generic over the design's closed-form
//! accounting, with either operand on the 64 plane lanes: the engines'
//! own `load` puts the kernels there, and the functional fabric
//! (`load_rows`) the rows it transports. Both fire the same plane
//! kernel and charge the same device activity the per-window path
//! tallies.

pub mod activity;
pub mod bitplane;
pub mod ee;
pub mod oe;
pub mod oo;

pub use activity::ActivityCounter;
pub use bitplane::{PlaneAccumulator, PreparedKernel, WindowGroup, PLANE_WINDOWS};
pub use ee::EeMac;
pub use oe::OeMac;
pub use oo::OoMac;

use crate::config::{AcceleratorConfig, Design};
use bitplane::{load_planes, Lanes};
use pixel_dnn::inference::{Loaded, MacEngine};

/// A functional MAC engine that tallies its device activity.
///
/// All three bit-true OMACs implement this; the
/// [`crate::model::DesignModel`] backends hand them out so the audit and
/// validation layers can run *any* design's engine and read its counted
/// activity without naming the concrete type.
pub trait ActivityMac: MacEngine {
    /// The engine's device-activity tallies.
    fn activity(&self) -> &ActivityCounter;
}

/// Builds the functional MAC engine matching a configuration, through
/// the configuration's [`crate::model::DesignModel`] backend.
///
/// # Panics
///
/// Panics if the configuration's precision exceeds what the functional
/// units support (operands up to 16 bits, so products fit the optical
/// amplitude range).
#[must_use]
pub fn engine_for(config: &AcceleratorConfig) -> Box<dyn MacEngine> {
    config.design.model().functional_engine(config)
}

/// Loads `kernels` onto the configuration's design with the rows on the
/// plane lanes ([`bitplane::Lanes::Rows`]): one engine per load, owned by
/// the returned [`Loaded`], up to `config.tiles` kernels resident, and
/// every fired block of rows crossing `transport` once.
///
/// # Panics
///
/// Panics under [`bitplane::load_planes`]'s conditions.
pub(crate) fn load_rows<'a>(
    config: &AcceleratorConfig,
    kernels: &'a [u64],
    len: usize,
    transport: impl FnMut(&mut WindowGroup) + 'a,
) -> Box<dyn Loaded + 'a> {
    let (lanes, bits) = (config.lanes, config.bits_per_lane);
    let rows = Lanes::Rows {
        tiles: config.tiles,
        transport: Box::new(transport),
    };
    match config.design {
        Design::Ee => load_planes(Box::new(EeMac::new(lanes, bits)), bits, kernels, len, rows),
        Design::Oe => load_planes(Box::new(OeMac::new(lanes, bits)), bits, kernels, len, rows),
        Design::Oo => load_planes(Box::new(OoMac::new(lanes, bits)), bits, kernels, len, rows),
    }
}

/// Copies the `lanes`-wide chunk starting at `start` from both operand
/// slices into the scratch buffers, zero-padding the tail — the
/// scheduling every OMAC applies when a window is larger than its lane
/// count, in a form that reuses per-engine scratch instead of
/// materializing two fresh vectors per chunk.
pub(crate) fn fill_lane_chunk(
    neurons: &[u64],
    synapses: &[u64],
    start: usize,
    lanes: usize,
    nbuf: &mut Vec<u64>,
    sbuf: &mut Vec<u64>,
) {
    debug_assert_eq!(neurons.len(), synapses.len(), "operand length mismatch");
    let end = (start + lanes).min(neurons.len());
    nbuf.clear();
    nbuf.extend_from_slice(&neurons[start..end]);
    nbuf.resize(lanes, 0);
    sbuf.clear();
    sbuf.extend_from_slice(&synapses[start..end]);
    sbuf.resize(lanes, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixel_dnn::inference::{DirectMac, MacEngine, PerWindow};
    use pixel_units::rng::SplitMix64;
    use std::panic::{self, AssertUnwindSafe};

    #[test]
    fn fill_lane_chunk_pads_tail() {
        let n = [1u64, 2, 3, 4, 5];
        let s = [6u64, 7, 8, 9, 10];
        let (mut nbuf, mut sbuf) = (vec![99u64; 2], Vec::new());
        fill_lane_chunk(&n, &s, 0, 4, &mut nbuf, &mut sbuf);
        assert_eq!(nbuf, vec![1, 2, 3, 4]);
        assert_eq!(sbuf, vec![6, 7, 8, 9]);
        fill_lane_chunk(&n, &s, 4, 4, &mut nbuf, &mut sbuf);
        assert_eq!(nbuf, vec![5, 0, 0, 0]);
        assert_eq!(sbuf, vec![10, 0, 0, 0]);
    }

    #[test]
    fn engine_factory_dispatches_by_design() {
        for d in Design::ALL {
            let cfg = AcceleratorConfig::new(d, 4, 8);
            let engine = engine_for(&cfg);
            assert_eq!(engine.inner_product(&[3, 5], &[7, 11]), 21 + 55);
        }
    }

    /// Fires each of `blocks` once on one load of `kernels` through
    /// `engine` with the rows on the plane lanes, `tiles` kernels
    /// resident and the transport a no-op; returns each fire's outputs.
    fn fire_rows_on_lanes<E: bitplane::PlaneEngine>(
        engine: &E,
        bits: u32,
        tiles: usize,
        (kernels, len): (&[u64], usize),
        blocks: &[Vec<u64>],
    ) -> Vec<Vec<u64>> {
        let transport = Box::new(|_: &mut WindowGroup| {});
        let mut loaded = load_planes(engine, bits, kernels, len, Lanes::Rows { tiles, transport });
        blocks
            .iter()
            .map(|rows| {
                let mut out = vec![u64::MAX; rows.len() / len * (kernels.len() / len)];
                loaded.fire(rows, &mut out);
                out
            })
            .collect()
    }

    /// The rows-on-lanes theorem: for every design, a load with the rows
    /// on the plane lanes, fired twice, is bitwise identical to the
    /// per-window engine — values and all nine device-activity tallies.
    /// Cases cover precisions 1–16, full, ragged and multi-group blocks,
    /// kernels resident on every tile, on some (the rest stream) and on
    /// none, and every fourth case 1440–1600-word windows (deep counters)
    /// on small blocks; lane counts of 1–6 leave padded lane tails.
    #[test]
    fn rows_on_lanes_match_per_window_outputs_and_activity() {
        let mut rng = SplitMix64::seed_from_u64(0x9A9E);
        for case in 0..48u32 {
            let lanes = rng.range_usize(1, 6);
            let bits = case % 16 + 1;
            let tiles = [16, 2, 0][case as usize % 3];
            let (len, rows) = if case % 4 == 3 {
                (rng.range_usize(1440, 1600), [rng.range_usize(1, 3), 1])
            } else {
                (rng.range_usize(1, 64), [64, rng.range_usize(1, 130)])
            };
            let kernels = rng.range_usize(1, 6);
            let limit = (1u64 << bits) - 1;
            let mut draw =
                |n: usize| -> Vec<u64> { (0..n).map(|_| rng.range_u64(0, limit)).collect() };
            let w = draw(kernels * len);
            let blocks: Vec<Vec<u64>> = rows.iter().map(|&rows| draw(rows * len)).collect();
            let (ee, oe, oo) = (
                EeMac::new(lanes, bits),
                OeMac::new(lanes, bits),
                OoMac::new(lanes, bits),
            );
            let fired = [
                fire_rows_on_lanes(&ee, bits, tiles, (&w, len), &blocks),
                fire_rows_on_lanes(&oe, bits, tiles, (&w, len), &blocks),
                fire_rows_on_lanes(&oo, bits, tiles, (&w, len), &blocks),
            ];
            let engines: [&dyn ActivityMac; 3] = [&ee, &oe, &oo];
            let label = format!(
                "case {case}: rows={rows:?} kernels={kernels} len={len} lanes={lanes} bits={bits} tiles={tiles}"
            );
            for ((d, engine), got) in Design::ALL.into_iter().zip(engines).zip(fired) {
                let reference = d
                    .model()
                    .functional_engine(&AcceleratorConfig::new(d, lanes, bits));
                let per_window = PerWindow(reference.as_ref());
                let mut loaded = per_window.load(&w, len);
                for (rows, got) in blocks.iter().zip(got) {
                    let mut want = vec![0; rows.len() / len * kernels];
                    loaded.fire(rows, &mut want);
                    assert_eq!(got, want, "{d} {label}");
                }
                assert_eq!(
                    tallies(engine.activity()),
                    tallies(reference.activity()),
                    "{d} {label}"
                );
            }
        }
    }

    /// Every [`ActivityCounter`] tally, in one comparable array.
    fn tallies(a: &ActivityCounter) -> [u64; 9] {
        [
            a.mrr_slots(),
            a.mzi_slots(),
            a.cla_ops(),
            a.comparator_decisions(),
            a.oe_conversions(),
            a.gated_slots(),
            a.lit_slots(),
            a.bit_toggles(),
            a.toggle_pairs(),
        ]
    }

    /// The block theorem: for every design, a load fired on the
    /// filters-as-lanes plane kernel is bitwise identical to the
    /// per-window engine behind the default row-major loop — values and
    /// all nine device-activity tallies. Cases cycle through one-row
    /// (FC) blocks, row-heavy blocks, 1–3 kernel groups with a partial
    /// last group, and full-scale 16-bit operands whose sums pass 2^32;
    /// lane counts of 1–6 leave padded lane tails.
    #[test]
    fn block_path_matches_per_window_outputs_and_activity() {
        let mut rng = SplitMix64::seed_from_u64(0xB10C);
        for case in 0..240 {
            let lanes = rng.range_usize(1, 6);
            let (rows, kernels, len, bits) = match case % 4 {
                0 => (
                    1,
                    rng.range_usize(1, 130),
                    rng.range_usize(1, 40),
                    rng.range_u32(1, 16),
                ),
                1 => (
                    rng.range_usize(1, 130),
                    rng.range_usize(1, 4),
                    rng.range_usize(1, 12),
                    rng.range_u32(1, 8),
                ),
                2 => (
                    rng.range_usize(1, 4),
                    rng.range_usize(60, 130),
                    rng.range_usize(1, 10),
                    rng.range_u32(1, 8),
                ),
                _ => (
                    rng.range_usize(1, 3),
                    rng.range_usize(1, 3),
                    rng.range_usize(2, 40),
                    16,
                ),
            };
            let limit = (1u64 << bits) - 1;
            let mut draw = |n: usize| -> Vec<u64> {
                (0..n)
                    .map(|_| {
                        if case % 4 == 3 {
                            limit - rng.range_u64(0, 1)
                        } else {
                            rng.range_u64(0, limit)
                        }
                    })
                    .collect()
            };
            let a = draw(rows * len);
            let w = draw(kernels * len);
            let label = format!(
                "case {case}: rows={rows} kernels={kernels} len={len} lanes={lanes} bits={bits}"
            );
            for d in Design::ALL {
                let cfg = AcceleratorConfig::new(d, lanes, bits);
                let block = d.model().functional_engine(&cfg);
                let reference = d.model().functional_engine(&cfg);
                let mut got = vec![u64::MAX; rows * kernels];
                let mut want = vec![0; rows * kernels];
                block.load(&w, len).fire(&a, &mut got);
                PerWindow(reference.as_ref())
                    .load(&w, len)
                    .fire(&a, &mut want);
                assert_eq!(got, want, "{d} {label}");
                assert_eq!(
                    tallies(block.activity()),
                    tallies(reference.activity()),
                    "{d} {label}"
                );
            }
        }
    }

    /// Out-of-range operands keep their per-window behaviour on the
    /// block path: OE/OO drop the bits above the precision, tallies
    /// included, and EE rejects them as the Stripes operand check does,
    /// before either engine tallies anything.
    #[test]
    fn block_path_keeps_the_per_window_operand_range() {
        let rows = [0b1_0110, 3, 0xFF, 7];
        let kernels = [0b11_0101, 0x1F, 2, 9, 1, 0xF0];
        for d in Design::ALL {
            let cfg = AcceleratorConfig::new(d, 3, 4);
            let block = d.model().functional_engine(&cfg);
            let reference = d.model().functional_engine(&cfg);
            let (mut got, mut want) = ([0; 6], [0; 6]);
            let run = |engine: &dyn MacEngine, out: &mut [u64]| {
                let call = AssertUnwindSafe(|| engine.load(&kernels, 2).fire(&rows, out));
                panic::catch_unwind(call).is_ok()
            };
            let ran = run(block.as_ref(), &mut got);
            assert_eq!(ran, run(&PerWindow(reference.as_ref()), &mut want), "{d}");
            assert_eq!(ran, d != Design::Ee, "{d}");
            if ran {
                assert_eq!(got, want, "{d}");
                assert_eq!(
                    tallies(block.activity()),
                    tallies(reference.activity()),
                    "{d}"
                );
            } else {
                assert_eq!(tallies(reference.activity()), [0; 9], "{d}");
                assert_eq!(tallies(block.activity()), [0; 9], "{d}");
            }
        }
    }

    /// The cross-design equivalence theorem: every functional OMAC
    /// computes exactly the integer inner product, on random windows of
    /// every shape.
    #[test]
    fn all_designs_agree_with_direct_reference() {
        let mut rng = SplitMix64::seed_from_u64(42);
        for _ in 0..50 {
            let lanes = rng.range_usize(1, 8);
            let bits = rng.range_u32(1, 12);
            let len = rng.range_usize(1, 40);
            let limit = (1u64 << bits) - 1;
            let neurons: Vec<u64> = (0..len).map(|_| rng.range_u64(0, limit)).collect();
            let synapses: Vec<u64> = (0..len).map(|_| rng.range_u64(0, limit)).collect();
            let expected = DirectMac.inner_product(&neurons, &synapses);

            for d in Design::ALL {
                let cfg = AcceleratorConfig::new(d, lanes, bits);
                let engine = engine_for(&cfg);
                assert_eq!(
                    engine.inner_product(&neurons, &synapses),
                    expected,
                    "{d} lanes={lanes} bits={bits} len={len}"
                );
            }
        }
    }
}
