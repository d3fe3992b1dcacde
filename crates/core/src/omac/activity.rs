//! Device-activity accounting for the functional OMACs.
//!
//! The analytic energy model charges an optical multiply `2·K_MRR·b²`
//! because the dataflow streams a `b`-bit word for `b` synapse-bit cycles
//! through a double-ring filter. Rather than trusting that arithmetic,
//! the functional engines can *count*: every load of an OMAC or of the
//! fabric adds each device event its fires perform to an
//! [`ActivityTally`], a plain value it hands back when finished
//! ([`pixel_dnn::inference::Loaded::finish`]), and the tests (plus
//! `tests/` integration checks) assert the counted activity matches the
//! closed forms the energy model multiplies by — closing the loop between
//! "what the simulation did" and "what the model charges". This module
//! measures the serialized slot streams whose lit slots and toggles a
//! tally folds in.

use pixel_dnn::inference::ActivityTally;
use std::ops::AddAssign;

/// Lit-slot and toggle tallies of one binary slot stream.
///
/// A "stream" is whatever a design serializes per operand: the gated
/// pulse train of an optical partial product (OE/OO) or the bit-serial
/// synapse word Stripes walks through (EE). `lit` counts slots carrying
/// a one, `toggles` counts transitions between adjacent slots, and
/// `pairs` the adjacent-slot opportunities (`slots − 1`), so rates can
/// be formed without re-deriving the stream structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamActivity {
    /// Slots in the stream.
    pub slots: u64,
    /// Slots carrying a logical one (light on / bit set).
    pub lit: u64,
    /// Transitions between adjacent slots.
    pub toggles: u64,
    /// Adjacent-slot pairs (`slots − 1`, saturating).
    pub pairs: u64,
}

/// Measures the LSB-first serialization of a `bits`-wide word in closed
/// form — identical to [`bit_stream_activity`] over the word's bits, but
/// popcount-based so the hot MAC loops pay O(1) per stream.
///
/// # Panics
///
/// Panics if `bits` exceeds 64.
#[must_use]
pub fn word_stream_activity(word: u64, bits: u32) -> StreamActivity {
    assert!(bits <= 64, "streams serialize at most 64 bits");
    if bits == 0 {
        return StreamActivity::default();
    }
    let mask = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    let w = word & mask;
    StreamActivity {
        slots: u64::from(bits),
        lit: u64::from(w.count_ones()),
        // A toggle between slots j and j+1 is a differing adjacent bit
        // pair: XOR against the shifted word, restricted to the bits−1
        // interior boundaries.
        toggles: u64::from(((w ^ (w >> 1)) & (mask >> 1)).count_ones()),
        pairs: u64::from(bits) - 1,
    }
}

/// Measures one stream of binary slots.
pub fn bit_stream_activity(stream: impl Iterator<Item = bool>) -> StreamActivity {
    let mut out = StreamActivity::default();
    let mut prev: Option<bool> = None;
    for bit in stream {
        out.slots += 1;
        out.lit += u64::from(bit);
        if let Some(p) = prev {
            out.pairs += 1;
            out.toggles += u64::from(p != bit);
        }
        prev = Some(bit);
    }
    out
}

/// Folds one measured slot stream into a tally's lit/toggle counts.
impl AddAssign<StreamActivity> for ActivityTally {
    fn add_assign(&mut self, s: StreamActivity) {
        self.gated_slots += s.slots;
        self.lit_slots += s.lit;
        self.bit_toggles += s.toggles;
        self.toggle_pairs += s.pairs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_accumulate() {
        let mut t = ActivityTally {
            mrr_slots: 8,
            cla_ops: 1,
            ..ActivityTally::default()
        };
        t += ActivityTally {
            mrr_slots: 8,
            mzi_slots: 3,
            comparator_decisions: 5,
            oe_conversions: 1,
            ..ActivityTally::default()
        };
        assert_eq!(
            (t.mrr_slots, t.mzi_slots, t.cla_ops, t.comparator_decisions),
            (16, 3, 1, 5)
        );
        assert_eq!(t.oe_conversions, 1);
    }

    #[test]
    fn stream_activity_counts_lit_and_toggles() {
        // Stream 1,0,0,1,1: 3 lit slots, toggles at 1→0, 0→1: 2 of 4 pairs.
        let s = bit_stream_activity([true, false, false, true, true].into_iter());
        assert_eq!(s.slots, 5);
        assert_eq!(s.lit, 3);
        assert_eq!(s.toggles, 2);
        assert_eq!(s.pairs, 4);
    }

    #[test]
    fn stream_edge_cases() {
        assert_eq!(
            bit_stream_activity(std::iter::empty()),
            StreamActivity::default()
        );
        let single = bit_stream_activity([true].into_iter());
        assert_eq!((single.slots, single.lit, single.pairs), (1, 1, 0));
    }

    #[test]
    fn word_stream_matches_bitwise_measurement() {
        for word in [0u64, 1, 0b1010, 0b1111, 0xDEAD_BEEF, u64::MAX] {
            for bits in [1u32, 2, 4, 8, 31, 64] {
                let closed = word_stream_activity(word, bits);
                let walked = bit_stream_activity((0..bits).map(|j| (word >> j) & 1 == 1));
                assert_eq!(closed, walked, "word {word:#x} bits {bits}");
            }
        }
        assert_eq!(word_stream_activity(7, 0), StreamActivity::default());
    }

    #[test]
    fn tally_folds_streams_into_rates() {
        let mut t = ActivityTally::default();
        t += bit_stream_activity([true, false, true, false].into_iter());
        t += bit_stream_activity([false, false].into_iter());
        assert_eq!(t.gated_slots, 6);
        assert_eq!(t.lit_slots, 2);
        assert_eq!(t.bit_toggles, 3);
        assert_eq!(t.toggle_pairs, 4);
        assert!((t.lit_rate() - 2.0 / 6.0).abs() < 1e-12);
        assert!((t.toggle_rate() - 0.75).abs() < 1e-12);
        assert_eq!(ActivityTally::default().lit_rate(), 0.0);
    }
}
