//! The all-electrical (EE) functional MAC: Stripes bit-serial hardware.

use crate::omac::activity::{word_stream_activity, ActivityCounter, StreamActivity};
use crate::omac::bitplane::{load_planes, BlockStreams, Lanes, PlaneEngine, Streams};
use crate::omac::{fill_lane_chunk, ActivityMac};
use pixel_dnn::inference::{Loaded, MacEngine};
use pixel_electronics::cla::Cla;
use pixel_electronics::stripes::StripesMac;
use std::cell::RefCell;

/// Bit-true EE MAC unit: `lanes` parallel Stripes lanes feeding a wide
/// output accumulator.
#[derive(Debug)]
pub struct EeMac {
    stripes: StripesMac,
    lanes: usize,
    output_accumulator: Cla,
    activity: ActivityCounter,
    /// Reused per-chunk operand buffers (neurons, synapses).
    scratch: RefCell<(Vec<u64>, Vec<u64>)>,
}

impl EeMac {
    /// Creates an EE MAC with `lanes` lanes at `bits` bits of precision.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or exceeds 16 (operands must leave room
    /// for window-level accumulation in the 64-bit output path).
    #[must_use]
    pub fn new(lanes: usize, bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "EE MAC supports 1..=16 bits");
        Self {
            stripes: StripesMac::new(lanes, bits),
            lanes,
            output_accumulator: Cla::new(64),
            activity: ActivityCounter::new(),
            scratch: RefCell::new((Vec::new(), Vec::new())),
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Operand precision.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.stripes.bits()
    }

    /// The underlying Stripes datapath.
    #[must_use]
    pub fn stripes(&self) -> &StripesMac {
        &self.stripes
    }
}

impl MacEngine for EeMac {
    fn inner_product(&self, neurons: &[u64], synapses: &[u64]) -> u64 {
        let bits = self.stripes.bits();
        let before_slots = self.activity.gated_slots();
        let before_toggles = self.activity.bit_toggles();
        let before_cla = self.activity.cla_ops();
        assert_eq!(neurons.len(), synapses.len(), "operand length mismatch");
        self.check_operands(neurons);
        self.check_operands(synapses);
        let mut scratch = self.scratch.borrow_mut();
        let (nbuf, sbuf) = &mut *scratch;
        let mut acc = 0u64;
        let mut start = 0;
        while start < neurons.len() {
            fill_lane_chunk(neurons, synapses, start, self.lanes, nbuf, sbuf);
            // Stripes walks each synapse word bit-serially: the gating
            // stream whose activity the energy model charges for.
            for &synapse in sbuf.iter() {
                self.activity
                    .add_stream(&word_stream_activity(synapse, bits));
            }
            let chunk = self
                .stripes
                .mac(nbuf, sbuf)
                // lint:allow(P002) operand widths checked before the first chunk
                .expect("operands checked against the precision");
            let (sum, carry) = self.output_accumulator.add(acc, chunk.value, false);
            self.activity.add_cla_op();
            debug_assert!(!carry, "window accumulator overflow");
            acc = sum;
            start += self.lanes;
        }
        if pixel_obs::enabled() {
            pixel_obs::add("omac.ee.mac_ops", neurons.len() as u64);
            pixel_obs::add(
                "omac.ee.serial_slots",
                self.activity.gated_slots() - before_slots,
            );
            pixel_obs::add(
                "omac.ee.bit_toggles",
                self.activity.bit_toggles() - before_toggles,
            );
            pixel_obs::add("omac.ee.cla_ops", self.activity.cla_ops() - before_cla);
        }
        acc
    }

    /// Loads the kernels onto the bit-plane kernel, one filter per plane
    /// lane (`load_planes` with `Lanes::Kernels`), with the
    /// per-product tallies charged in closed form.
    ///
    /// # Panics
    ///
    /// Panics if an operand is wider than the engine's precision, as the
    /// Stripes datapath rejects it: a kernel word at load, a row word at
    /// fire.
    fn load<'a>(&'a self, kernels: &'a [u64], len: usize) -> Box<dyn Loaded + 'a> {
        load_planes(self, self.bits(), kernels, len, Lanes::Kernels)
    }

    fn name(&self) -> &str {
        "EE (Stripes bit-serial)"
    }
}

impl PlaneEngine for EeMac {
    const STREAMS: Streams = Streams::Synapse;

    /// Rejects operands wider than the precision, as the Stripes
    /// datapath does, before any tally moves.
    ///
    /// # Panics
    ///
    /// Panics if any word has a bit at or above `bits`.
    fn check_operands(&self, words: &[u64]) {
        let bits = self.bits();
        // An OR over every operand vectorizes; a short-circuiting scan
        // does not.
        let set = words.iter().fold(0, |set, &v| set | v);
        assert!(set >> bits == 0, "EE operands must fit {bits} bits");
    }

    /// Each product walks `⌈len/lanes⌉` lane chunks, zero-padded tail
    /// included: every lane position serializes its synapse word over
    /// `bits` slots (lit slots and toggles are the [`Streams::Synapse`]
    /// totals), and every chunk costs one output CLA add.
    fn charge(&self, block: &BlockStreams) {
        let products = block.products;
        if products == 0 {
            return;
        }
        let bits = u64::from(self.bits());
        let chunks = products * block.len.div_ceil(self.lanes) as u64;
        let positions = chunks * self.lanes as u64;
        self.activity.add_stream(&StreamActivity {
            slots: positions * bits,
            lit: block.lit,
            toggles: block.toggles,
            pairs: positions * (bits - 1),
        });
        self.activity.add_cla_ops(chunks);
        if pixel_obs::enabled() {
            pixel_obs::add("omac.ee.mac_ops", products * block.len as u64);
            pixel_obs::add("omac.ee.serial_slots", positions * bits);
            pixel_obs::add("omac.ee.bit_toggles", block.toggles);
            pixel_obs::add("omac.ee.cla_ops", chunks);
        }
    }
}

impl ActivityMac for EeMac {
    fn activity(&self) -> &ActivityCounter {
        &self.activity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixel_dnn::inference::DirectMac;
    use pixel_units::rng::SplitMix64;

    #[test]
    fn paper_worked_example_window() {
        // §II-B full window: after 4 synapse-lane passes the sum is 368.
        let mac = EeMac::new(4, 4);
        let neurons = [2u64, 0, 3, 8, 4, 1, 5, 2, 6, 3, 1, 8, 9, 4, 2, 6];
        let synapses = [6u64, 1, 2, 3, 9, 2, 3, 1, 13, 1, 4, 3, 11, 2, 5, 1];
        let expected = DirectMac.inner_product(&neurons, &synapses);
        assert_eq!(mac.inner_product(&neurons, &synapses), expected);
    }

    #[test]
    fn partial_chunk_is_zero_padded() {
        let mac = EeMac::new(4, 8);
        assert_eq!(mac.inner_product(&[10], &[20]), 200);
    }

    #[test]
    fn name_mentions_design() {
        assert!(EeMac::new(2, 4).name().contains("EE"));
    }

    #[test]
    fn activity_counts_the_serial_synapse_stream() {
        let mac = EeMac::new(4, 4);
        // One chunk of four lanes: 4 synapses × 4 serial slots each.
        // 0b1010 serializes LSB-first as 0,1,0,1 → 2 lit slots, 3 toggles.
        let _ = mac.inner_product(&[1, 1, 1, 1], &[0b1010, 0, 0, 0]);
        let a = mac.activity();
        assert_eq!(a.gated_slots(), 16);
        assert_eq!(a.lit_slots(), 2);
        assert_eq!(a.bit_toggles(), 3);
        assert_eq!(a.toggle_pairs(), 12);
        assert_eq!(a.cla_ops(), 1);
    }

    #[test]
    #[should_panic(expected = "1..=16")]
    fn rejects_wide_operands() {
        let _ = EeMac::new(4, 17);
    }

    #[test]
    fn matches_direct() {
        let mut rng = SplitMix64::seed_from_u64(0xEE_AC);
        for _ in 0..128 {
            let lanes = rng.range_usize(1, 6);
            let bits = rng.range_u32(1, 10);
            let len = rng.range_usize(1, 30);
            let limit = (1u64 << bits) - 1;
            let n: Vec<u64> = (0..len).map(|_| rng.range_u64(0, limit)).collect();
            let s: Vec<u64> = (0..len).map(|_| rng.range_u64(0, limit)).collect();
            let mac = EeMac::new(lanes, bits);
            assert_eq!(
                mac.inner_product(&n, &s),
                DirectMac.inner_product(&n, &s),
                "lanes={lanes} bits={bits} len={len}"
            );
        }
    }
}
