//! Device-activity accounting for the functional OMACs.
//!
//! The analytic energy model charges an optical multiply `2·K_MRR·b²`
//! because the dataflow streams a `b`-bit word for `b` synapse-bit cycles
//! through a double-ring filter. Rather than trusting that arithmetic,
//! the functional engines can *count*: [`ActivityCounter`] tallies every
//! device event the bit-true execution performs, and the tests (plus
//! `tests/` integration checks) assert the counted activity matches the
//! closed forms the energy model multiplies by — closing the loop between
//! "what the simulation did" and "what the model charges".

use std::cell::Cell;

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

/// Tallies of device events during functional MAC execution.
#[derive(Debug, Default)]
pub struct ActivityCounter {
    mrr_slots: Cell<u64>,
    mzi_slots: Cell<u64>,
    cla_ops: Cell<u64>,
    comparator_decisions: Cell<u64>,
    oe_conversions: Cell<u64>,
    gated_slots: Cell<u64>,
    lit_slots: Cell<u64>,
    bit_toggles: Cell<u64>,
    toggle_pairs: Cell<u64>,
}

impl ActivityCounter {
    /// Creates a zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `slots` bit-slots streamed through a double-MRR filter.
    pub fn add_mrr_slots(&self, slots: u64) {
        self.mrr_slots.set(self.mrr_slots.get() + slots);
    }

    /// Records `slots` bit-slots routed through MZI accumulator stages.
    pub fn add_mzi_slots(&self, slots: u64) {
        self.mzi_slots.set(self.mzi_slots.get() + slots);
    }

    /// Records one carry-lookahead addition.
    pub fn add_cla_op(&self) {
        self.cla_ops.set(self.cla_ops.get() + 1);
    }

    /// Records `n` carry-lookahead additions at once (the plane-parallel
    /// paths account for a whole window group per call).
    pub fn add_cla_ops(&self, n: u64) {
        self.cla_ops.set(self.cla_ops.get() + n);
    }

    /// Records `n` o/e word conversions at once.
    pub fn add_oe_conversions(&self, n: u64) {
        self.oe_conversions.set(self.oe_conversions.get() + n);
    }

    /// Records `n` comparator-ladder slot decisions.
    pub fn add_comparator_decisions(&self, n: u64) {
        self.comparator_decisions
            .set(self.comparator_decisions.get() + n);
    }

    /// Records one optical-to-electrical word conversion.
    pub fn add_oe_conversion(&self) {
        self.oe_conversions.set(self.oe_conversions.get() + 1);
    }

    /// Folds one measured slot stream into the lit/toggle tallies.
    pub fn add_stream(&self, s: &StreamActivity) {
        self.gated_slots.set(self.gated_slots.get() + s.slots);
        self.lit_slots.set(self.lit_slots.get() + s.lit);
        self.bit_toggles.set(self.bit_toggles.get() + s.toggles);
        self.toggle_pairs.set(self.toggle_pairs.get() + s.pairs);
    }

    /// Bit-slots through MRR filters so far.
    #[must_use]
    pub fn mrr_slots(&self) -> u64 {
        self.mrr_slots.get()
    }

    /// Bit-slots through MZI stages so far.
    #[must_use]
    pub fn mzi_slots(&self) -> u64 {
        self.mzi_slots.get()
    }

    /// CLA additions so far.
    #[must_use]
    pub fn cla_ops(&self) -> u64 {
        self.cla_ops.get()
    }

    /// Comparator decisions so far.
    #[must_use]
    pub fn comparator_decisions(&self) -> u64 {
        self.comparator_decisions.get()
    }

    /// o/e word conversions so far.
    #[must_use]
    pub fn oe_conversions(&self) -> u64 {
        self.oe_conversions.get()
    }

    /// Slots measured by [`Self::add_stream`] so far.
    #[must_use]
    pub fn gated_slots(&self) -> u64 {
        self.gated_slots.get()
    }

    /// Lit (one-carrying) slots so far.
    #[must_use]
    pub fn lit_slots(&self) -> u64 {
        self.lit_slots.get()
    }

    /// Adjacent-slot toggles so far.
    #[must_use]
    pub fn bit_toggles(&self) -> u64 {
        self.bit_toggles.get()
    }

    /// Adjacent-slot toggle opportunities so far.
    #[must_use]
    pub fn toggle_pairs(&self) -> u64 {
        self.toggle_pairs.get()
    }

    /// Fraction of measured slots that were lit (0 when none measured).
    #[must_use]
    pub fn lit_rate(&self) -> f64 {
        ratio(self.lit_slots.get(), self.gated_slots.get())
    }

    /// Fraction of adjacent-slot pairs that toggled (0 when none).
    #[must_use]
    pub fn toggle_rate(&self) -> f64 {
        ratio(self.bit_toggles.get(), self.toggle_pairs.get())
    }

    /// Resets all tallies.
    pub fn reset(&self) {
        self.mrr_slots.set(0);
        self.mzi_slots.set(0);
        self.cla_ops.set(0);
        self.comparator_decisions.set(0);
        self.oe_conversions.set(0);
        self.gated_slots.set(0);
        self.lit_slots.set(0);
        self.bit_toggles.set(0);
        self.toggle_pairs.set(0);
    }
}

#[allow(clippy::cast_precision_loss)]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let c = ActivityCounter::new();
        c.add_mrr_slots(8);
        c.add_mrr_slots(8);
        c.add_mzi_slots(3);
        c.add_cla_op();
        c.add_comparator_decisions(5);
        c.add_oe_conversion();
        assert_eq!(c.mrr_slots(), 16);
        assert_eq!(c.mzi_slots(), 3);
        assert_eq!(c.cla_ops(), 1);
        assert_eq!(c.comparator_decisions(), 5);
        assert_eq!(c.oe_conversions(), 1);
        c.reset();
        assert_eq!(c.mrr_slots(), 0);
        assert_eq!(c.cla_ops(), 0);
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
    fn counter_folds_streams_into_rates() {
        let c = ActivityCounter::new();
        c.add_stream(&bit_stream_activity([true, false, true, false].into_iter()));
        c.add_stream(&bit_stream_activity([false, false].into_iter()));
        assert_eq!(c.gated_slots(), 6);
        assert_eq!(c.lit_slots(), 2);
        assert_eq!(c.bit_toggles(), 3);
        assert_eq!(c.toggle_pairs(), 4);
        assert!((c.lit_rate() - 2.0 / 6.0).abs() < 1e-12);
        assert!((c.toggle_rate() - 0.75).abs() < 1e-12);
    }
}
