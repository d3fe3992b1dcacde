//! The hybrid optical-electrical (OE) functional MAC.
//!
//! Paper §III-A: neurons arrive as optical pulse trains on WDM
//! wavelengths; each synapse *bit* drives the tuned double-MRR filters of
//! a synapse lane, ANDing the whole neuron word against that bit. The
//! gated train crosses the o/e converter (design 1: photodiode + shift
//! register) and the electrical processing unit shift-accumulates the
//! partial products, exactly as Stripes does — `p` cycles per `p`-bit
//! synapse.

use crate::omac::activity::{bit_stream_activity, ActivityCounter, StreamActivity};
use crate::omac::bitplane::{
    fire_group, load_planes, BlockStreams, PlaneAccumulator, PlaneEngine, PreparedKernel, Streams,
    WindowGroup,
};
use crate::omac::{fill_lane_chunk, ActivityMac};
use pixel_dnn::inference::{Loaded, MacEngine};
use pixel_electronics::cla::Cla;
use pixel_electronics::converter::SerialConverter;
use pixel_electronics::shifter::BarrelShifter;
use pixel_photonics::mrr::DoubleMrrFilter;
use pixel_photonics::signal::PulseTrain;
use std::cell::RefCell;

/// Reused per-window buffers: operand chunks, launched lane trains, the
/// gated drop-port train, and the quantized-level staging for the o/e
/// converter.
#[derive(Debug, Default)]
struct OeScratch {
    nbuf: Vec<u64>,
    sbuf: Vec<u64>,
    trains: Vec<PulseTrain>,
    gated: PulseTrain,
    levels: Vec<u32>,
}

/// Bit-true OE MAC unit.
#[derive(Debug)]
pub struct OeMac {
    lanes: usize,
    bits: u32,
    filter: DoubleMrrFilter,
    converter: SerialConverter,
    shifter: BarrelShifter,
    accumulator: Cla,
    activity: ActivityCounter,
    scratch: RefCell<OeScratch>,
}

impl OeMac {
    /// Creates an OE MAC with `lanes` wavelengths at `bits` bits/lane.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or exceeds 16.
    #[must_use]
    pub fn new(lanes: usize, bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "OE MAC supports 1..=16 bits");
        assert!(lanes > 0, "at least one lane");
        Self {
            lanes,
            bits,
            filter: DoubleMrrFilter::default(),
            converter: SerialConverter::new(bits),
            shifter: BarrelShifter::new(64),
            accumulator: Cla::new(64),
            activity: ActivityCounter::new(),
            scratch: RefCell::new(OeScratch::default()),
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

    /// One Stripes cycle for one lane: optically AND the neuron train
    /// against synapse bit `bit_index`, convert, and return the partial
    /// product already shifted into position.
    #[cfg(test)]
    fn partial(&self, neuron: &PulseTrain, synapse: u64, bit_index: u32) -> u64 {
        let mut scratch = self.scratch.borrow_mut();
        let OeScratch { gated, levels, .. } = &mut *scratch;
        self.partial_with(neuron, synapse, bit_index, gated, levels)
    }

    /// [`Self::partial`] against caller-held scratch, so the window loop
    /// can run it without re-borrowing (or re-allocating) per cycle.
    fn partial_with(
        &self,
        neuron: &PulseTrain,
        synapse: u64,
        bit_index: u32,
        gated: &mut PulseTrain,
        levels: &mut Vec<u32>,
    ) -> u64 {
        let gate = (synapse >> bit_index) & 1 == 1;
        self.filter.and_into(neuron, gate, gated);
        self.activity.add_mrr_slots(gated.len() as u64);
        self.activity
            .add_stream(&bit_stream_activity(gated.iter().map(|a| a > 0.5)));
        gated.quantized_levels_into(levels);
        let word = self
            .converter
            .decode(levels)
            // lint:allow(P002) a noiseless binary optical train decodes losslessly
            .expect("binary optical train decodes losslessly");
        self.activity.add_oe_conversion();
        self.shifter.shift_left(word, bit_index)
    }
}

impl MacEngine for OeMac {
    fn inner_product(&self, neurons: &[u64], synapses: &[u64]) -> u64 {
        let before_mrr = self.activity.mrr_slots();
        let before_toggles = self.activity.bit_toggles();
        let before_conversions = self.activity.oe_conversions();
        assert_eq!(neurons.len(), synapses.len(), "operand length mismatch");
        let mut scratch = self.scratch.borrow_mut();
        let OeScratch {
            nbuf,
            sbuf,
            trains,
            gated,
            levels,
        } = &mut *scratch;
        let mut acc = 0u64;
        let mut start = 0;
        while start < neurons.len() {
            fill_lane_chunk(neurons, synapses, start, self.lanes, nbuf, sbuf);
            // Fire all lanes' neuron words as optical trains (one WDM λ each).
            if trains.len() != self.lanes {
                trains.resize_with(self.lanes, PulseTrain::new);
            }
            for (train, &n) in trains.iter_mut().zip(nbuf.iter()) {
                train.write_bits(n, self.bits as usize);
            }
            // p serial cycles over the synapse bits, as in STR.
            for bit in 0..self.bits {
                for (train, &synapse) in trains.iter().zip(sbuf.iter()) {
                    let p = self.partial_with(train, synapse, bit, gated, levels);
                    let (sum, carry) = self.accumulator.add(acc, p, false);
                    self.activity.add_cla_op();
                    debug_assert!(!carry, "window accumulator overflow");
                    acc = sum;
                }
            }
            start += self.lanes;
        }
        if pixel_obs::enabled() {
            pixel_obs::add("omac.oe.mac_ops", neurons.len() as u64);
            pixel_obs::add("omac.oe.mrr_slots", self.activity.mrr_slots() - before_mrr);
            pixel_obs::add(
                "omac.oe.bit_toggles",
                self.activity.bit_toggles() - before_toggles,
            );
            pixel_obs::add(
                "omac.oe.oe_conversions",
                self.activity.oe_conversions() - before_conversions,
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
        "OE (MRR multiply, electrical accumulate)"
    }
}

impl PlaneEngine for OeMac {
    const STREAMS: Streams = Streams::Gated;

    /// Each product runs `bits` serial cycles over every lane position of
    /// every chunk, zero-padded tail included; each cycle gates one
    /// `bits`-slot neuron train through the MRRs, converts it and
    /// CLA-accumulates it. A set synapse bit streams the neuron word and
    /// a clear one streams darkness, so lit slots and toggles are the
    /// [`Streams::Gated`] totals.
    fn charge(&self, block: &BlockStreams) {
        let products = block.products;
        if products == 0 {
            return;
        }
        let bits = u64::from(self.bits);
        let positions = products * (block.len.div_ceil(self.lanes) * self.lanes) as u64;
        let partials = positions * bits;
        self.activity.add_mrr_slots(partials * bits);
        self.activity.add_stream(&StreamActivity {
            slots: partials * bits,
            lit: block.lit,
            toggles: block.toggles,
            pairs: partials * (bits - 1),
        });
        self.activity.add_oe_conversions(partials);
        self.activity.add_cla_ops(partials);
        if pixel_obs::enabled() {
            pixel_obs::add("omac.oe.mac_ops", products * block.len as u64);
            pixel_obs::add("omac.oe.mrr_slots", partials * bits);
            pixel_obs::add("omac.oe.bit_toggles", block.toggles);
            pixel_obs::add("omac.oe.oe_conversions", partials);
        }
    }
}

impl ActivityMac for OeMac {
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
    fn single_multiply() {
        let mac = OeMac::new(1, 4);
        assert_eq!(mac.inner_product(&[9], &[13]), 117);
        assert_eq!(mac.inner_product(&[0], &[13]), 0);
        assert_eq!(mac.inner_product(&[9], &[0]), 0);
    }

    #[test]
    fn paper_cycle1_example() {
        // §III-A: λ0 carries 0010₂ with the MRR off → 0000₂ reaches the EP.
        let mac = OeMac::new(4, 4);
        let train = PulseTrain::from_bits(0b0010, 4);
        assert_eq!(mac.partial(&train, 0b0000, 0), 0);
        // With the synapse LSB on, the word passes unshifted.
        assert_eq!(mac.partial(&train, 0b0001, 0), 0b0010);
        // Synapse bit 2 on → shifted left 2.
        assert_eq!(mac.partial(&train, 0b0100, 2), 0b1000);
    }

    #[test]
    fn window_matches_reference() {
        let mac = OeMac::new(4, 4);
        let n = [2u64, 4, 6, 9];
        let s = [6u64, 1, 2, 3];
        assert_eq!(mac.inner_product(&n, &s), DirectMac.inner_product(&n, &s));
    }

    #[test]
    fn matches_direct() {
        let mut rng = SplitMix64::seed_from_u64(0x0E_AC);
        for _ in 0..128 {
            let lanes = rng.range_usize(1, 6);
            let bits = rng.range_u32(1, 10);
            let len = rng.range_usize(1, 24);
            let limit = (1u64 << bits) - 1;
            let n: Vec<u64> = (0..len).map(|_| rng.range_u64(0, limit)).collect();
            let s: Vec<u64> = (0..len).map(|_| rng.range_u64(0, limit)).collect();
            let mac = OeMac::new(lanes, bits);
            assert_eq!(
                mac.inner_product(&n, &s),
                DirectMac.inner_product(&n, &s),
                "lanes={lanes} bits={bits} len={len}"
            );
        }
    }
}
