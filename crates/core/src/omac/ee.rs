//! The all-electrical (EE) functional MAC: Stripes bit-serial hardware.

use crate::omac::activity::{word_stream_activity, StreamActivity};
use crate::omac::bitplane::{load_planes, BlockStreams, Lanes, PlaneEngine, Streams};
use crate::omac::fill_lane_chunk;
use pixel_dnn::inference::{ActivityTally, Loaded, MacEngine};
use pixel_electronics::cla::Cla;
use pixel_electronics::stripes::StripesMac;

/// Bit-true EE MAC unit: `lanes` parallel Stripes lanes feeding a wide
/// output accumulator.
#[derive(Debug)]
pub struct EeMac {
    stripes: StripesMac,
    lanes: usize,
    output_accumulator: Cla,
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
}

/// Advances the `omac.ee.*` counters by `mac_ops` multiply-accumulates
/// and the activity they `counted`.
fn observe(mac_ops: u64, counted: &ActivityTally) {
    if pixel_obs::enabled() {
        pixel_obs::add("omac.ee.mac_ops", mac_ops);
        pixel_obs::add("omac.ee.serial_slots", counted.gated_slots);
        pixel_obs::add("omac.ee.bit_toggles", counted.bit_toggles);
        pixel_obs::add("omac.ee.cla_ops", counted.cla_ops);
    }
}

impl MacEngine for EeMac {
    fn inner_product(&self, neurons: &[u64], synapses: &[u64]) -> u64 {
        self.count_product(neurons, synapses, &mut ActivityTally::default())
    }

    fn count_product(&self, neurons: &[u64], synapses: &[u64], tally: &mut ActivityTally) -> u64 {
        let bits = self.stripes.bits();
        assert_eq!(neurons.len(), synapses.len(), "operand length mismatch");
        self.check_operands(neurons);
        self.check_operands(synapses);
        let mut counted = ActivityTally::default();
        let (mut nbuf, mut sbuf) = (Vec::new(), Vec::new());
        let mut acc = 0u64;
        let mut start = 0;
        while start < neurons.len() {
            fill_lane_chunk(neurons, synapses, start, self.lanes, &mut nbuf, &mut sbuf);
            // Stripes walks each synapse word bit-serially: the gating
            // stream whose activity the energy model charges for.
            for &synapse in &sbuf {
                counted += word_stream_activity(synapse, bits);
            }
            let chunk = self
                .stripes
                .mac(&nbuf, &sbuf)
                // lint:allow(P002) operand widths checked before the first chunk
                .expect("operands checked against the precision");
            let (sum, carry) = self.output_accumulator.add(acc, chunk.value, false);
            counted.cla_ops += 1;
            debug_assert!(!carry, "window accumulator overflow");
            acc = sum;
            start += self.lanes;
        }
        observe(neurons.len() as u64, &counted);
        *tally += counted;
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
    fn charge(&self, block: &BlockStreams, tally: &mut ActivityTally) {
        let products = block.products;
        if products == 0 {
            return;
        }
        let bits = u64::from(self.bits());
        let chunks = products * block.len.div_ceil(self.lanes) as u64;
        let positions = chunks * self.lanes as u64;
        let mut charged = ActivityTally {
            cla_ops: chunks,
            ..ActivityTally::default()
        };
        charged += StreamActivity {
            slots: positions * bits,
            lit: block.lit,
            toggles: block.toggles,
            pairs: positions * (bits - 1),
        };
        observe(products * block.len as u64, &charged);
        *tally += charged;
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
        let mut a = ActivityTally::default();
        let _ = mac.count_product(&[1, 1, 1, 1], &[0b1010, 0, 0, 0], &mut a);
        assert_eq!(a.gated_slots, 16);
        assert_eq!(a.lit_slots, 2);
        assert_eq!(a.bit_toggles, 3);
        assert_eq!(a.toggle_pairs, 12);
        assert_eq!(a.cla_ops, 1);
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
