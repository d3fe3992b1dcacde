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
//! time through its device simulation (`inner_product`, the reference),
//! and loads a layer's kernels (`load`) onto the shared bit-plane kernel
//! as the plane lanes, firing whole GEMM blocks past them and charging
//! the same device activity in closed form.

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

use crate::config::AcceleratorConfig;
use pixel_dnn::inference::MacEngine;

/// A functional MAC engine that tallies its device activity and can
/// advance 64 windows per word-level operation.
///
/// All three bit-true OMACs implement this; the
/// [`crate::model::DesignModel`] backends hand them out so the fabric,
/// audit and validation layers can run *any* design's engine and read
/// its counted activity without naming the concrete type.
pub trait ActivityMac: MacEngine {
    /// The engine's device-activity tallies.
    fn activity(&self) -> &ActivityCounter;

    /// Computes all of `group`'s windows against a kernel — one synapse
    /// word per window position, prepared once ([`PreparedKernel`]) — on
    /// a caller-owned accumulator, writing `group.len()` sums into `out`.
    /// A caller that fires one kernel on many groups, or many kernels
    /// through one accumulator, prepares and allocates nothing per call.
    ///
    /// The arithmetic is one shared kernel
    /// ([`bitplane::plane_inner_product`]) because all three designs
    /// compute the same exact integer inner product; what each engine
    /// owns is the *accounting* — the call must advance every
    /// [`ActivityCounter`] tally by exactly the amount running
    /// [`MacEngine::inner_product`] once per packed window would have,
    /// zero-padded lane tails included.
    ///
    /// # Panics
    ///
    /// Panics if the kernel's window or precision differs from the
    /// group's, or the group's precision differs from the engine's.
    fn inner_product_planes_with(
        &self,
        group: &WindowGroup,
        kernel: &PreparedKernel,
        acc: &mut PlaneAccumulator,
        out: &mut Vec<u64>,
    );
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
    use crate::config::Design;
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

    /// The plane-path theorem: for every design, the bit-plane batched
    /// inner product is bitwise identical to running the scalar engine
    /// once per window — and so is every device-activity tally,
    /// zero-padded lane tails included.
    #[test]
    fn plane_path_matches_scalar_outputs_and_activity() {
        let mut rng = SplitMix64::seed_from_u64(0x9A9E);
        let mut got = Vec::new();
        for round in 0..24 {
            let lanes = rng.range_usize(1, 6);
            let bits = rng.range_u32(1, 8);
            let window = rng.range_usize(1, 16);
            // Cover both a full 64-window group and ragged remainders.
            let len = if round % 4 == 0 {
                64
            } else {
                rng.range_usize(1, 63)
            };
            let limit = (1u64 << bits) - 1;
            let rows: Vec<u64> = (0..window * len).map(|_| rng.range_u64(0, limit)).collect();
            let synapses: Vec<u64> = (0..window).map(|_| rng.range_u64(0, limit)).collect();
            let group = WindowGroup::pack(&rows, window, len, bits);
            for d in Design::ALL {
                let cfg = AcceleratorConfig::new(d, lanes, bits);
                let scalar = d.model().functional_engine(&cfg);
                let batched = d.model().functional_engine(&cfg);
                let expected: Vec<u64> = (0..len)
                    .map(|w| scalar.inner_product(&rows[w * window..(w + 1) * window], &synapses))
                    .collect();
                let kernel = PreparedKernel::new(&synapses, bits);
                batched.inner_product_planes_with(
                    &group,
                    &kernel,
                    &mut PlaneAccumulator::new(),
                    &mut got,
                );
                let label = format!("{d} lanes={lanes} bits={bits} window={window} len={len}");
                assert_eq!(got, expected, "{label}");
                let (a, b) = (scalar.activity(), batched.activity());
                assert_eq!(a.mrr_slots(), b.mrr_slots(), "mrr {label}");
                assert_eq!(a.mzi_slots(), b.mzi_slots(), "mzi {label}");
                assert_eq!(a.cla_ops(), b.cla_ops(), "cla {label}");
                assert_eq!(
                    a.comparator_decisions(),
                    b.comparator_decisions(),
                    "comparator {label}"
                );
                assert_eq!(a.oe_conversions(), b.oe_conversions(), "o/e {label}");
                assert_eq!(a.gated_slots(), b.gated_slots(), "slots {label}");
                assert_eq!(a.lit_slots(), b.lit_slots(), "lit {label}");
                assert_eq!(a.bit_toggles(), b.bit_toggles(), "toggles {label}");
                assert_eq!(a.toggle_pairs(), b.toggle_pairs(), "pairs {label}");
            }
        }
    }

    /// The prepared-kernel theorem: one kernel, prepared once, fired on
    /// two distinct groups through one accumulator is bitwise identical
    /// to the per-window engine on every window of both — outputs and
    /// all nine tallies. Precisions cover 1–16 bits; every fourth round
    /// runs 1440–1600-word windows (deep counters, multi-word KLᵢ
    /// fields) on small groups, the others full and ragged groups of
    /// 1–64-word windows.
    #[test]
    fn prepared_kernels_match_the_per_window_engine_across_groups() {
        let mut rng = SplitMix64::seed_from_u64(0x9E9A);
        let mut got = Vec::new();
        for round in 0..32u32 {
            let lanes = rng.range_usize(1, 6);
            let bits = round % 16 + 1;
            let (window, lens) = if round % 4 == 3 {
                (rng.range_usize(1440, 1600), [rng.range_usize(1, 3), 1])
            } else {
                (rng.range_usize(1, 64), [64, rng.range_usize(1, 63)])
            };
            let limit = (1u64 << bits) - 1;
            let mut draw =
                |n: usize| -> Vec<u64> { (0..n).map(|_| rng.range_u64(0, limit)).collect() };
            let synapses = draw(window);
            let rows: Vec<Vec<u64>> = lens.iter().map(|&len| draw(window * len)).collect();
            let groups: Vec<WindowGroup> = rows
                .iter()
                .zip(lens)
                .map(|(rows, len)| WindowGroup::pack(rows, window, len, bits))
                .collect();
            let kernel = PreparedKernel::new(&synapses, bits);
            let label = format!("lanes={lanes} bits={bits} window={window} lens={lens:?}");
            for d in Design::ALL {
                let cfg = AcceleratorConfig::new(d, lanes, bits);
                let scalar = d.model().functional_engine(&cfg);
                let batched = d.model().functional_engine(&cfg);
                let mut acc = PlaneAccumulator::new();
                for (group, rows) in groups.iter().zip(&rows) {
                    let expected: Vec<u64> = rows
                        .chunks_exact(window)
                        .map(|row| scalar.inner_product(row, &synapses))
                        .collect();
                    batched.inner_product_planes_with(group, &kernel, &mut acc, &mut got);
                    assert_eq!(got, expected, "{d} {label}");
                }
                assert_eq!(
                    tallies(batched.activity()),
                    tallies(scalar.activity()),
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
