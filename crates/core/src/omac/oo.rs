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

use crate::omac::activity::{bit_stream_activity, StreamActivity};
use crate::omac::bitplane::{load_planes, BlockStreams, Lanes, PlaneEngine, Streams};
use crate::omac::fill_lane_chunk;
use pixel_dnn::inference::{ActivityTally, Loaded, MacEngine};
use pixel_electronics::cla::Cla;
use pixel_electronics::converter::AmplitudeConverter;
use pixel_photonics::constants::OPTICAL_CLOCK_HZ;
use pixel_photonics::mrr::DoubleMrrFilter;
use pixel_photonics::mzi::MziChain;
use pixel_photonics::signal::PulseTrain;

/// One product's buffers, reused across its multiplies: the launched
/// neuron train, one gated partial product per synapse bit, and the
/// MZI-combined output.
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
    /// ladder — in `bufs`, counting every device event into `tally`.
    fn multiply(
        &self,
        neuron: u64,
        synapse: u64,
        bufs: &mut MulScratch,
        tally: &mut ActivityTally,
    ) -> u64 {
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
        tally.mrr_slots += u64::from(self.bits) * u64::from(self.bits);
        for partial in partials.iter() {
            *tally += bit_stream_activity(partial.iter().map(|a| a > 0.5));
        }
        self.chain.accumulate_into(partials, combined);
        tally.mzi_slots += combined.len() as u64;
        tally.comparator_decisions += combined.len() as u64;
        tally.oe_conversions += 1;
        self.converter
            .decode(&combined.amplitudes())
            // lint:allow(P002) amplitude levels bounded by bits-per-lane accumulation
            .expect("amplitude levels bounded by bits per lane")
    }
}

/// Advances the `omac.oo.*` counters by `mac_ops` multiply-accumulates
/// and the activity they `counted`.
fn observe(mac_ops: u64, counted: &ActivityTally) {
    if pixel_obs::enabled() {
        pixel_obs::add("omac.oo.mac_ops", mac_ops);
        pixel_obs::add("omac.oo.mrr_slots", counted.mrr_slots);
        pixel_obs::add("omac.oo.mzi_slots", counted.mzi_slots);
        pixel_obs::add("omac.oo.bit_toggles", counted.bit_toggles);
    }
}

impl MacEngine for OoMac {
    fn inner_product(&self, neurons: &[u64], synapses: &[u64]) -> u64 {
        self.count_product(neurons, synapses, &mut ActivityTally::default())
    }

    fn count_product(&self, neurons: &[u64], synapses: &[u64], tally: &mut ActivityTally) -> u64 {
        assert_eq!(neurons.len(), synapses.len(), "operand length mismatch");
        let mut counted = ActivityTally::default();
        let (mut nbuf, mut sbuf) = (Vec::new(), Vec::new());
        let mut mul = MulScratch::default();
        let mut acc = 0u64;
        let mut start = 0;
        while start < neurons.len() {
            fill_lane_chunk(neurons, synapses, start, self.lanes, &mut nbuf, &mut sbuf);
            for (&n, &s) in nbuf.iter().zip(&sbuf) {
                let product = self.multiply(n, s, &mut mul, &mut counted);
                let (sum, carry) = self.accumulator.add(acc, product, false);
                counted.cla_ops += 1;
                debug_assert!(!carry, "window accumulator overflow");
                acc = sum;
            }
            start += self.lanes;
        }
        observe(neurons.len() as u64, &counted);
        *tally += counted;
        acc
    }

    /// Loads the kernels onto the bit-plane kernel, one filter per plane
    /// lane (`load_planes` with `Lanes::Kernels`), with the
    /// per-product tallies charged in closed form.
    fn load<'a>(&'a self, kernels: &'a [u64], len: usize) -> Box<dyn Loaded + 'a> {
        load_planes(self, self.bits, kernels, len, Lanes::Kernels)
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
    fn charge(&self, block: &BlockStreams, tally: &mut ActivityTally) {
        let products = block.products;
        if products == 0 {
            return;
        }
        let bits = u64::from(self.bits);
        let positions = products * (block.len.div_ceil(self.lanes) * self.lanes) as u64;
        let combined = 2 * bits - 1;
        let mut charged = ActivityTally {
            mrr_slots: positions * bits * bits,
            mzi_slots: positions * combined,
            comparator_decisions: positions * combined,
            oe_conversions: positions,
            cla_ops: positions,
            ..ActivityTally::default()
        };
        charged += StreamActivity {
            slots: positions * bits * bits,
            lit: block.lit,
            toggles: block.toggles,
            pairs: positions * bits * (bits - 1),
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

    /// One optical multiply on fresh buffers.
    fn optical_multiply(mac: &OoMac, neuron: u64, synapse: u64) -> u64 {
        let tally = &mut ActivityTally::default();
        mac.multiply(neuron, synapse, &mut MulScratch::default(), tally)
    }

    #[test]
    fn optical_multiply_small_cases() {
        let mac = OoMac::new(1, 4);
        assert_eq!(optical_multiply(&mac, 0, 0), 0);
        assert_eq!(optical_multiply(&mac, 15, 15), 225);
        assert_eq!(optical_multiply(&mac, 6, 6), 36);
        assert_eq!(optical_multiply(&mac, 9, 1), 9);
        assert_eq!(optical_multiply(&mac, 1, 9), 9);
    }

    #[test]
    fn paper_lambda0_example() {
        // §III-B: λ0 carries 0110₂ gated by synapse bits; the chain output
        // has "different amplitudes of light" whose positional value is
        // the product.
        let mac = OoMac::new(4, 4);
        // Synapse 1011₂ = 11: 6·11 = 66.
        assert_eq!(optical_multiply(&mac, 0b0110, 0b1011), 66);
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
            assert_eq!(optical_multiply(&mac, a, b), a * b, "a={a} b={b}");
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
