//! The all-optical (OO) functional MAC.
//!
//! Paper §III-B: each wavelength's neuron word is gated by every synapse
//! bit through the MRR filters, and the per-bit partial products feed a
//! delay-matched MZI chain. Because stage `j`'s output reaches stage
//! `j+1`'s input exactly one bit period later, the chain superposes the
//! partial products with positional weights 2^j — an optical
//! shift-accumulate producing a multi-level amplitude train whose
//! positional value is the full product `neuron × synapse`. A
//! comparator-ladder o/e converter (design 2) resolves the levels, and a
//! final electrical accumulate combines wavelengths and window chunks.

use crate::omac::activity::{bit_stream_activity, ActivityCounter, StreamActivity};
use crate::omac::bitplane::{
    fire_group, load_planes, BlockStreams, PlaneAccumulator, PlaneEngine, PreparedKernel, Streams,
    WindowGroup,
};
use crate::omac::{fill_lane_chunk, ActivityMac};
use pixel_dnn::inference::{Loaded, MacEngine};
use pixel_electronics::cla::Cla;
use pixel_electronics::converter::AmplitudeConverter;
use pixel_photonics::constants::OPTICAL_CLOCK_HZ;
use pixel_photonics::mrr::DoubleMrrFilter;
use pixel_photonics::mzi::MziChain;
use pixel_photonics::signal::PulseTrain;
use std::cell::RefCell;

/// Reused per-multiply buffers: the launched neuron train, one gated
/// partial product per synapse bit, and the MZI-combined output.
#[derive(Debug, Default)]
struct MulScratch {
    train: PulseTrain,
    partials: Vec<PulseTrain>,
    combined: PulseTrain,
}

/// Bit-true OO MAC unit.
#[derive(Debug)]
pub struct OoMac {
    lanes: usize,
    bits: u32,
    filter: DoubleMrrFilter,
    chain: MziChain,
    converter: AmplitudeConverter,
    accumulator: Cla,
    activity: ActivityCounter,
    /// Reused per-chunk operand buffers (neurons, synapses).
    chunks: RefCell<(Vec<u64>, Vec<u64>)>,
    mul: RefCell<MulScratch>,
}

impl OoMac {
    /// Creates an OO MAC with `lanes` wavelengths at `bits` bits/lane.
    /// Each wavelength gets an MZI chain with one stage per synapse bit.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or exceeds 16.
    #[must_use]
    pub fn new(lanes: usize, bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "OO MAC supports 1..=16 bits");
        assert!(lanes > 0, "at least one lane");
        Self {
            lanes,
            bits,
            filter: DoubleMrrFilter::default(),
            chain: MziChain::delay_matched(bits as usize, OPTICAL_CLOCK_HZ),
            converter: AmplitudeConverter::new(bits),
            accumulator: Cla::new(64),
            activity: ActivityCounter::new(),
            chunks: RefCell::new((Vec::new(), Vec::new())),
            mul: RefCell::new(MulScratch::default()),
        }
    }

    /// Number of wavelengths (= lanes).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Bits per lane.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The MZI accumulator chain serving each wavelength.
    #[must_use]
    pub fn chain(&self) -> &MziChain {
        &self.chain
    }

    /// Computes one full product optically: gate the neuron train with
    /// each synapse bit (MRR AND), accumulate the partial products in the
    /// MZI chain, resolve the multi-level output through the comparator
    /// ladder.
    ///
    /// # Examples
    ///
    /// ```
    /// use pixel_core::omac::OoMac;
    ///
    /// let mac = OoMac::new(1, 8);
    /// assert_eq!(mac.optical_multiply(113, 201), 113 * 201);
    /// ```
    #[must_use]
    pub fn optical_multiply(&self, neuron: u64, synapse: u64) -> u64 {
        let mut mul = self.mul.borrow_mut();
        self.multiply_with(neuron, synapse, &mut mul)
    }

    /// [`Self::optical_multiply`] against caller-held scratch, so the
    /// window loop can run it without re-borrowing per MAC.
    fn multiply_with(&self, neuron: u64, synapse: u64, bufs: &mut MulScratch) -> u64 {
        let MulScratch {
            train,
            partials,
            combined,
        } = bufs;
        let bits = self.bits as usize;
        train.write_bits(neuron, bits);
        if partials.len() != bits {
            partials.resize_with(bits, PulseTrain::new);
        }
        for (j, partial) in partials.iter_mut().enumerate() {
            self.filter
                .and_into(train, (synapse >> j) & 1 == 1, partial);
        }
        self.activity
            .add_mrr_slots(u64::from(self.bits) * u64::from(self.bits));
        for partial in partials.iter() {
            self.activity
                .add_stream(&bit_stream_activity(partial.iter().map(|a| a > 0.5)));
        }
        self.chain.accumulate_into(partials, combined);
        self.activity.add_mzi_slots(combined.len() as u64);
        self.activity
            .add_comparator_decisions(combined.len() as u64);
        self.activity.add_oe_conversion();
        self.converter
            .decode(&combined.amplitudes())
            // lint:allow(P002) amplitude levels bounded by bits-per-lane accumulation
            .expect("amplitude levels bounded by bits per lane")
    }
}

impl MacEngine for OoMac {
    fn inner_product(&self, neurons: &[u64], synapses: &[u64]) -> u64 {
        let before_mrr = self.activity.mrr_slots();
        let before_mzi = self.activity.mzi_slots();
        let before_toggles = self.activity.bit_toggles();
        assert_eq!(neurons.len(), synapses.len(), "operand length mismatch");
        let mut chunks = self.chunks.borrow_mut();
        let (nbuf, sbuf) = &mut *chunks;
        let mut mul = self.mul.borrow_mut();
        let mut acc = 0u64;
        let mut start = 0;
        while start < neurons.len() {
            fill_lane_chunk(neurons, synapses, start, self.lanes, nbuf, sbuf);
            for (&n, &s) in nbuf.iter().zip(sbuf.iter()) {
                let product = self.multiply_with(n, s, &mut mul);
                let (sum, carry) = self.accumulator.add(acc, product, false);
                self.activity.add_cla_op();
                debug_assert!(!carry, "window accumulator overflow");
                acc = sum;
            }
            start += self.lanes;
        }
        if pixel_obs::enabled() {
            pixel_obs::add("omac.oo.mac_ops", neurons.len() as u64);
            pixel_obs::add("omac.oo.mrr_slots", self.activity.mrr_slots() - before_mrr);
            pixel_obs::add("omac.oo.mzi_slots", self.activity.mzi_slots() - before_mzi);
            pixel_obs::add(
                "omac.oo.bit_toggles",
                self.activity.bit_toggles() - before_toggles,
            );
        }
        acc
    }

    /// Loads the kernels onto the bit-plane kernel, one filter per plane
    /// lane (`load_planes`), with the per-product tallies charged in
    /// closed form.
    fn load<'a>(&'a self, kernels: &'a [u64], len: usize) -> Box<dyn Loaded + 'a> {
        load_planes(self, self.bits, kernels, len)
    }

    fn name(&self) -> &str {
        "OO (MRR multiply, MZI accumulate)"
    }
}

impl PlaneEngine for OoMac {
    const STREAMS: Streams = Streams::Gated;

    /// Every lane position of every chunk, zero-padded tail included,
    /// performs one optical multiply — `bits` gated partial trains of
    /// `bits` slots through the MRRs, a delay-matched MZI chain combine of
    /// `2·bits − 1` slots resolved by as many comparator decisions, one
    /// o/e conversion — then one CLA accumulate. Lit slots and toggles
    /// are the [`Streams::Gated`] totals.
    fn charge(&self, block: &BlockStreams) {
        let products = block.products;
        if products == 0 {
            return;
        }
        let bits = u64::from(self.bits);
        let positions = products * (block.len.div_ceil(self.lanes) * self.lanes) as u64;
        let combined = 2 * bits - 1;
        self.activity.add_mrr_slots(positions * bits * bits);
        self.activity.add_stream(&StreamActivity {
            slots: positions * bits * bits,
            lit: block.lit,
            toggles: block.toggles,
            pairs: positions * bits * (bits - 1),
        });
        self.activity.add_mzi_slots(positions * combined);
        self.activity.add_comparator_decisions(positions * combined);
        self.activity.add_oe_conversions(positions);
        self.activity.add_cla_ops(positions);
        if pixel_obs::enabled() {
            pixel_obs::add("omac.oo.mac_ops", products * block.len as u64);
            pixel_obs::add("omac.oo.mrr_slots", positions * bits * bits);
            pixel_obs::add("omac.oo.mzi_slots", positions * combined);
            pixel_obs::add("omac.oo.bit_toggles", block.toggles);
        }
    }
}

impl ActivityMac for OoMac {
    fn activity(&self) -> &ActivityCounter {
        &self.activity
    }

    fn inner_product_planes_with(
        &self,
        group: &WindowGroup,
        kernel: &PreparedKernel,
        acc: &mut PlaneAccumulator,
        out: &mut Vec<u64>,
    ) {
        fire_group(self, self.bits, group, kernel, acc, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixel_dnn::inference::DirectMac;
    use pixel_units::rng::SplitMix64;

    #[test]
    fn optical_multiply_small_cases() {
        let mac = OoMac::new(1, 4);
        assert_eq!(mac.optical_multiply(0, 0), 0);
        assert_eq!(mac.optical_multiply(15, 15), 225);
        assert_eq!(mac.optical_multiply(6, 6), 36);
        assert_eq!(mac.optical_multiply(9, 1), 9);
        assert_eq!(mac.optical_multiply(1, 9), 9);
    }

    #[test]
    fn paper_lambda0_example() {
        // §III-B: λ0 carries 0110₂ gated by synapse bits; the chain output
        // has "different amplitudes of light" whose positional value is
        // the product.
        let mac = OoMac::new(4, 4);
        // Synapse 1011₂ = 11: 6·11 = 66.
        assert_eq!(mac.optical_multiply(0b0110, 0b1011), 66);
    }

    #[test]
    fn amplitude_levels_stay_within_ladder() {
        // Worst case: all-ones neuron and synapse produce peak level = bits.
        let mac = OoMac::new(1, 8);
        let train = PulseTrain::from_bits(0xFF, 8);
        let partials: Vec<PulseTrain> = (0..8).map(|_| mac.filter.and(&train, true)).collect();
        let combined = mac.chain.accumulate(&partials);
        assert_eq!(combined.peak_level(), 8);
        assert_eq!(mac.bits(), 8);
    }

    #[test]
    fn window_matches_reference() {
        let mac = OoMac::new(4, 4);
        let n = [6u64, 4, 6, 9];
        let s = [11u64, 0, 5, 7];
        assert_eq!(mac.inner_product(&n, &s), DirectMac.inner_product(&n, &s));
    }

    #[test]
    fn optical_multiply_is_exact() {
        let mut rng = SplitMix64::seed_from_u64(0x0AC1);
        let mac = OoMac::new(1, 8);
        for _ in 0..256 {
            let a = rng.range_u64(0, 255);
            let b = rng.range_u64(0, 255);
            assert_eq!(mac.optical_multiply(a, b), a * b, "a={a} b={b}");
        }
    }

    #[test]
    fn matches_direct() {
        let mut rng = SplitMix64::seed_from_u64(0x0AC2);
        for _ in 0..128 {
            let lanes = rng.range_usize(1, 6);
            let bits = rng.range_u32(1, 10);
            let len = rng.range_usize(1, 20);
            let limit = (1u64 << bits) - 1;
            let n: Vec<u64> = (0..len).map(|_| rng.range_u64(0, limit)).collect();
            let s: Vec<u64> = (0..len).map(|_| rng.range_u64(0, limit)).collect();
            let mac = OoMac::new(lanes, bits);
            assert_eq!(
                mac.inner_product(&n, &s),
                DirectMac.inner_product(&n, &s),
                "lanes={lanes} bits={bits} len={len}"
            );
        }
    }
}
