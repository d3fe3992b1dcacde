//! Optical signal representation for bit-true simulation.
//!
//! A [`PulseTrain`] is a time-slotted sequence of optical pulse amplitudes on
//! a single wavelength: slot `t` holds the number of unit pulses (in power
//! units, so superposition is additive) present in optical clock cycle `t`.
//! Binary data is launched LSB-first, matching the paper's description of
//! the MZI accumulator that starts "with the LSB (bit position 0)".
//! On-off-keyed trains of up to 64 slots are held packed, one bit per
//! slot, so launching, muxing, demuxing and detecting a binary word is
//! word-level work.
//!
//! A [`WdmSignal`] carries one pulse train per wavelength, modelling the
//! wavelength-division-multiplexed home channels of the OMAC design.

use std::borrow::Cow;
use std::fmt;

/// Identifies a WDM wavelength channel (λ₀, λ₁, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WavelengthId(pub u16);

impl WavelengthId {
    /// Returns the channel index.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for WavelengthId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λ{}", self.0)
    }
}

/// Slots a packed on-off-keyed train can hold (one mask bit each).
const PACKED_SLOTS: usize = 64;

fn low_mask(bits: usize) -> u64 {
    if bits >= PACKED_SLOTS {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// A packed on-off-keyed train: slot `t < len` carries one unit pulse
/// iff bit `t` of `mask` is set. Mask bits at or above `len` are clear.
#[derive(Debug, Clone, Copy)]
struct Ook {
    mask: u64,
    len: usize,
}

impl Ook {
    fn amplitude(self, t: usize) -> f64 {
        if t < self.len && (self.mask >> t) & 1 == 1 {
            1.0
        } else {
            0.0
        }
    }
}

/// A time-slotted train of optical pulse amplitudes on one wavelength.
///
/// Amplitudes are in linear power units where one launched bit pulse has
/// amplitude 1.0; combining signals in an MZI coupler adds amplitudes.
///
/// The values alone choose how a train is stored. An on-off-keyed train
/// of at most 64 slots, as [`Self::from_bits`], [`Self::write_bits`] and
/// [`Self::dark`] launch it, is a slot mask plus a length. Every
/// multi-level operation ([`Self::superpose`], [`Self::add_shifted`],
/// [`Self::attenuated`], [`Self::from_amplitudes`])
/// produces `f64` slots. Every observer, equality included, answers the
/// same for both forms.
#[derive(Debug, Clone, Default)]
pub struct PulseTrain {
    /// Slot amplitudes of an `f64` train. Empty while the train is
    /// packed, but it keeps its capacity for the next multi-level write.
    slots: Vec<f64>,
    packed: Option<Ook>,
}

impl PulseTrain {
    /// Creates an empty pulse train.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a train of `len` dark (zero-amplitude) slots.
    #[must_use]
    pub fn dark(len: usize) -> Self {
        let mut train = Self::new();
        train.set_dark(len);
        train
    }

    /// Creates a train from raw amplitude slots.
    #[must_use]
    pub fn from_amplitudes(slots: Vec<f64>) -> Self {
        Self {
            slots,
            packed: None,
        }
    }

    /// Launches the low `bits` bits of `value` LSB-first: slot 0 carries bit
    /// 0, slot 1 carries bit 1, and so on.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 64`.
    #[must_use]
    pub fn from_bits(value: u64, bits: usize) -> Self {
        let mut train = Self::new();
        train.write_bits(value, bits);
        train
    }

    /// Re-launches the low `bits` bits of `value` LSB-first into this
    /// train, reusing its slot storage (the in-place counterpart of
    /// [`Self::from_bits`] for per-window scratch buffers).
    ///
    /// # Panics
    ///
    /// Panics if `bits > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, bits: usize) {
        assert!(bits <= PACKED_SLOTS, "at most 64 bits per word");
        self.pack(value & low_mask(bits), bits);
    }

    /// Turns this train into `len` dark slots, reusing its storage (the
    /// in-place counterpart of [`Self::dark`]).
    pub fn set_dark(&mut self, len: usize) {
        if len <= PACKED_SLOTS {
            self.pack(0, len);
        } else {
            self.packed = None;
            self.slots.clear();
            self.slots.resize(len, 0.0);
        }
    }

    /// Copies another train's slots into this one, reusing storage.
    #[inline]
    pub fn copy_from(&mut self, other: &Self) {
        self.slots.clear();
        self.packed = other.packed;
        if other.packed.is_none() {
            self.slots.extend_from_slice(&other.slots);
        }
    }

    /// Superposes `other`, delayed by `shift` slots, onto this train in
    /// place (a delay-matched path between cascaded MZIs), growing the
    /// train with dark slots as needed.
    pub fn add_shifted(&mut self, other: &Self, shift: usize) {
        let slots = self.unpack();
        let needed = shift + other.len();
        if slots.len() < needed {
            slots.resize(needed, 0.0);
        }
        for (slot, a) in slots[shift..needed].iter_mut().zip(other.iter()) {
            *slot += a;
        }
    }

    fn pack(&mut self, mask: u64, len: usize) {
        self.slots.clear();
        self.packed = Some(Ook { mask, len });
    }

    /// Switches to the `f64` form in place and returns its slots.
    fn unpack(&mut self) -> &mut Vec<f64> {
        if let Some(ook) = self.packed.take() {
            self.slots.clear();
            self.slots.extend((0..ook.len).map(|t| ook.amplitude(t)));
        }
        &mut self.slots
    }

    /// The word a packed on-off-keyed train carries, LSB in slot 0
    /// (`None` for an `f64` train).
    pub(crate) fn packed_word(&self) -> Option<u64> {
        self.packed.map(|ook| ook.mask)
    }

    /// Number of time slots in the train.
    #[must_use]
    pub fn len(&self) -> usize {
        self.packed.map_or(self.slots.len(), |ook| ook.len)
    }

    /// Returns `true` if the train has no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Amplitude in slot `t` (0.0 beyond the end — the fibre is dark).
    #[must_use]
    pub fn amplitude(&self, t: usize) -> f64 {
        match self.packed {
            Some(ook) => ook.amplitude(t),
            None => self.slots.get(t).copied().unwrap_or(0.0),
        }
    }

    /// Iterates over slot amplitudes.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len()).map(|t| self.amplitude(t))
    }

    /// The slot amplitudes in time order (borrowed from an `f64` train,
    /// expanded from a packed one).
    #[must_use]
    pub fn amplitudes(&self) -> Cow<'_, [f64]> {
        match self.packed {
            Some(_) => Cow::Owned(self.iter().collect()),
            None => Cow::Borrowed(&self.slots),
        }
    }

    /// Total slot amplitude of the train (sum of slot amplitudes — a
    /// dimensionless count of lit pulse-slots, not a watt-valued power).
    #[must_use]
    pub fn total_amplitude(&self) -> f64 {
        self.iter().sum()
    }

    /// Gates the train with an on/off modulator: `on = false` extinguishes
    /// every slot. This is the MRR AND against a single synapse bit.
    #[must_use]
    pub fn gated(&self, on: bool) -> Self {
        if on {
            self.clone()
        } else {
            Self::dark(self.len())
        }
    }

    /// Attenuates every slot by a linear factor (waveguide loss).
    #[must_use]
    pub fn attenuated(&self, linear_factor: f64) -> Self {
        self.iter().map(|a| a * linear_factor).collect()
    }

    /// Superposes two trains slot-by-slot (additive coupling in an MZI).
    #[must_use]
    pub fn superpose(&self, other: &Self) -> Self {
        let len = self.len().max(other.len());
        (0..len)
            .map(|t| self.amplitude(t) + other.amplitude(t))
            .collect()
    }

    /// Rounds each slot amplitude to the nearest integer pulse count, as a
    /// comparator-ladder o/e converter would resolve it.
    #[must_use]
    pub fn quantized_levels(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.quantized_levels_into(&mut out);
        out
    }

    /// [`Self::quantized_levels`] into a reused buffer (cleared first).
    pub fn quantized_levels_into(&self, out: &mut Vec<u32>) {
        out.clear();
        if let Some(ook) = self.packed {
            out.extend((0..ook.len).map(|t| u32::from((ook.mask >> t) & 1 == 1)));
            return;
        }
        out.extend(self.slots.iter().map(|a| {
            debug_assert!(*a >= -1e-9, "negative optical power");
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            {
                a.round().max(0.0) as u32
            }
        }));
    }

    /// Interprets the train as a binary word (each slot must round to 0/1),
    /// LSB in slot 0. Returns `None` if any slot holds a multi-pulse level.
    #[must_use]
    pub fn to_bits(&self) -> Option<u64> {
        let mut v: u64 = 0;
        for (i, level) in self.quantized_levels().into_iter().enumerate() {
            match level {
                0 => {}
                1 => {
                    if i >= 64 {
                        return None;
                    }
                    v |= 1 << i;
                }
                _ => return None,
            }
        }
        Some(v)
    }

    /// Weighted positional sum Σ level(t)·2^t — the value a shift-accumulate
    /// backend recovers from a multi-level train.
    #[must_use]
    pub fn positional_value(&self) -> u64 {
        self.quantized_levels()
            .into_iter()
            .enumerate()
            .fold(0u64, |acc, (i, level)| {
                acc + (u64::from(level) << i.min(63))
            })
    }

    /// The highest integer pulse level present in any slot.
    #[must_use]
    pub fn peak_level(&self) -> u32 {
        self.quantized_levels().into_iter().max().unwrap_or(0)
    }
}

/// Trains are equal when their slot amplitudes are, whichever form holds
/// them.
impl PartialEq for PulseTrain {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl FromIterator<f64> for PulseTrain {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::from_amplitudes(iter.into_iter().collect())
    }
}

/// A wavelength-division-multiplexed bundle of pulse trains.
#[derive(Debug, Clone, Default)]
pub struct WdmSignal {
    /// Entry `i` is wavelength `WavelengthId(i)`; `None` while it is dark.
    channels: Vec<Option<PulseTrain>>,
}

impl WdmSignal {
    /// Creates an empty WDM signal.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn entry(&mut self, id: WavelengthId) -> &mut Option<PulseTrain> {
        let index = id.index();
        if self.channels.len() <= index {
            self.channels.resize_with(index + 1, || None);
        }
        &mut self.channels[index]
    }

    /// Multiplexes `train` onto channel `id`, superposing with any signal
    /// already on that wavelength.
    pub fn mux(&mut self, id: WavelengthId, train: PulseTrain) {
        match self.entry(id) {
            Some(existing) => *existing = existing.superpose(&train),
            empty => *empty = Some(train),
        }
    }

    /// Drops (demultiplexes) channel `id`, returning a zero-slot train if
    /// nothing was muxed onto it.
    #[must_use]
    pub fn demux(&self, id: WavelengthId) -> PulseTrain {
        self.channel(id).cloned().unwrap_or_default()
    }

    /// Borrows channel `id` without cloning (`None` when the wavelength
    /// is dark) — the receive-side counterpart of [`Self::set_channel`]
    /// for allocation-free transport loops.
    #[must_use]
    #[inline]
    pub fn channel(&self, id: WavelengthId) -> Option<&PulseTrain> {
        self.channels.get(id.index()).and_then(Option::as_ref)
    }

    /// Overwrites channel `id` with a copy of `train`, reusing the slot
    /// storage already allocated on that wavelength. Unlike [`Self::mux`]
    /// this *replaces* rather than superposes — the refresh a firing tile
    /// performs between rounds on its own band.
    #[inline]
    pub fn set_channel(&mut self, id: WavelengthId, train: &PulseTrain) {
        match self.entry(id) {
            Some(existing) => existing.copy_from(train),
            empty => *empty = Some(train.clone()),
        }
    }

    /// Number of active wavelength channels.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.channels.iter().flatten().count()
    }

    /// Iterates over `(wavelength, train)` pairs in channel order.
    pub fn iter(&self) -> impl Iterator<Item = (WavelengthId, &PulseTrain)> {
        self.channels.iter().enumerate().filter_map(|(i, train)| {
            // Every entry index came from a `u16` wavelength id.
            #[allow(clippy::cast_possible_truncation)]
            let id = WavelengthId(i as u16);
            train.as_ref().map(|t| (id, t))
        })
    }

    /// Aggregate slot amplitude across all channels.
    #[must_use]
    pub fn total_amplitude(&self) -> f64 {
        self.channels
            .iter()
            .flatten()
            .map(PulseTrain::total_amplitude)
            .sum()
    }
}

/// Signals are equal when they carry equal trains on the same
/// wavelengths.
impl PartialEq for WdmSignal {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl FromIterator<(WavelengthId, PulseTrain)> for WdmSignal {
    fn from_iter<I: IntoIterator<Item = (WavelengthId, PulseTrain)>>(iter: I) -> Self {
        let mut s = Self::new();
        for (id, t) in iter {
            s.mux(id, t);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixel_units::rng::SplitMix64;

    /// `t` behind `slots` dark slots: the reference `add_shifted` is
    /// checked against.
    fn delayed(t: &PulseTrain, slots: usize) -> PulseTrain {
        std::iter::repeat_n(0.0, slots).chain(t.iter()).collect()
    }

    /// The same 0/1 slots in both forms: a packed train and an `f64` one.
    fn both_forms(word: u64, len: usize) -> (PulseTrain, PulseTrain) {
        let packed = PulseTrain::from_bits(word, len);
        let slots = PulseTrain::from_amplitudes(
            (0..len)
                .map(|t| if (word >> t) & 1 == 1 { 1.0 } else { 0.0 })
                .collect(),
        );
        assert!(packed.packed_word().is_some(), "len={len}");
        assert!(slots.packed_word().is_none(), "len={len}");
        (packed, slots)
    }

    fn random_word(rng: &mut SplitMix64, len: usize) -> u64 {
        rng.next_u64() & low_mask(len)
    }

    /// Every observer reads the same slots from `a` and `b`.
    fn assert_same_observations(a: &PulseTrain, b: &PulseTrain, label: &str) {
        assert_eq!(a.len(), b.len(), "len {label}");
        assert_eq!(a.is_empty(), b.is_empty(), "is_empty {label}");
        for t in 0..a.len() + 2 {
            assert_eq!(a.amplitude(t), b.amplitude(t), "amplitude({t}) {label}");
        }
        assert!(a.iter().eq(b.iter()), "iter {label}");
        assert_eq!(a.amplitudes(), b.amplitudes(), "amplitudes {label}");
        assert_eq!(a.to_bits(), b.to_bits(), "to_bits {label}");
        assert_eq!(a.quantized_levels(), b.quantized_levels(), "levels {label}");
        let (mut la, mut lb) = (vec![7u32; 3], Vec::new());
        a.quantized_levels_into(&mut la);
        b.quantized_levels_into(&mut lb);
        assert_eq!(la, lb, "levels_into {label}");
        assert_eq!(a.positional_value(), b.positional_value(), "value {label}");
        assert_eq!(a.peak_level(), b.peak_level(), "peak {label}");
        assert_eq!(
            a.total_amplitude().to_bits(),
            b.total_amplitude().to_bits(),
            "total {label}"
        );
        assert_eq!(a, b, "eq {label}");
        assert_eq!(b, a, "eq reversed {label}");
    }

    #[test]
    fn packed_and_slot_trains_agree_on_every_observer() {
        let mut rng = SplitMix64::seed_from_u64(0x00C);
        for len in 0..=64 {
            for _ in 0..8 {
                let word = random_word(&mut rng, len);
                let (packed, slots) = both_forms(word, len);
                let label = format!("word={word:#x} len={len}");
                assert_same_observations(&packed, &slots, &label);
                assert_eq!(packed.to_bits(), Some(word), "{label}");
                // The in-place writers keep or produce the packed form.
                let mut scratch = PulseTrain::from_amplitudes(vec![2.0; 70]);
                scratch.write_bits(word, len);
                assert_eq!(scratch.packed_word(), Some(word), "{label}");
                assert_same_observations(&scratch, &slots, &label);
                scratch.copy_from(&slots);
                assert!(scratch.packed_word().is_none(), "{label}");
                assert_same_observations(&scratch, &packed, &label);
                scratch.copy_from(&packed);
                assert_eq!(scratch.packed_word(), Some(word), "{label}");
                scratch.set_dark(len);
                assert_eq!(scratch.packed_word(), Some(0), "{label}");
                assert_same_observations(
                    &scratch,
                    &PulseTrain::from_amplitudes(vec![0.0; len]),
                    &label,
                );
                assert_same_observations(&packed.gated(false), &slots.gated(false), &label);
                assert_same_observations(&packed.gated(true), &slots.gated(true), &label);
                // A different word of the same length is a different train.
                if len > 0 {
                    let (flipped, _) = both_forms(word ^ 1, len);
                    assert_ne!(flipped, slots, "{label}");
                    assert_ne!(flipped, packed, "{label}");
                }
                assert_ne!(PulseTrain::dark(len + 1), PulseTrain::dark(len), "{label}");
            }
        }
    }

    #[test]
    fn multi_level_operations_agree_and_produce_slots() {
        let mut rng = SplitMix64::seed_from_u64(0x3A7);
        for _ in 0..300 {
            // Results end by slot 62, so every positional value fits a u64.
            let len = rng.range_usize(0, 56);
            let other_len = rng.range_usize(0, 56);
            let shift = rng.range_usize(0, 6);
            let (packed, slots) = both_forms(random_word(&mut rng, len), len);
            let (other_packed, other_slots) =
                both_forms(random_word(&mut rng, other_len), other_len);
            let label = format!("len={len} other={other_len} shift={shift}");
            let results = [
                (
                    packed.superpose(&other_packed),
                    slots.superpose(&other_slots),
                ),
                (
                    packed.superpose(&other_slots),
                    slots.superpose(&other_packed),
                ),
                (packed.attenuated(0.5), slots.attenuated(0.5)),
                (
                    PulseTrain::from_amplitudes(packed.amplitudes().into_owned()),
                    slots.clone(),
                ),
            ];
            for (i, (a, b)) in results.iter().enumerate() {
                assert!(a.packed_word().is_none(), "op {i} {label}");
                assert_same_observations(a, b, &format!("op {i} {label}"));
            }
            let (mut acc_packed, mut acc_slots) = (packed.clone(), slots.clone());
            acc_packed.add_shifted(&other_packed, shift);
            acc_slots.add_shifted(&other_slots, shift);
            assert!(acc_packed.packed_word().is_none(), "{label}");
            assert_same_observations(&acc_packed, &acc_slots, &label);
            assert_eq!(
                acc_packed,
                slots.superpose(&delayed(&other_slots, shift)),
                "{label}"
            );
            // Muxing onto an occupied wavelength superposes.
            let mut signal = WdmSignal::new();
            signal.mux(WavelengthId(3), packed.clone());
            signal.mux(WavelengthId(3), other_packed.clone());
            let arrived = signal.demux(WavelengthId(3));
            assert!(arrived.packed_word().is_none(), "{label}");
            assert_same_observations(&arrived, &slots.superpose(&other_slots), &label);
        }
    }

    #[test]
    fn trains_longer_than_a_word_stay_slots() {
        for len in [65, 66, 100, 200] {
            let dark = PulseTrain::dark(len);
            assert!(dark.packed_word().is_none(), "len={len}");
            assert_eq!(dark, PulseTrain::from_amplitudes(vec![0.0; len]));
            let mut t = PulseTrain::from_bits(0b1, 1);
            t.set_dark(len);
            assert!(t.packed_word().is_none(), "len={len}");
            assert_eq!(t.len(), len);
            let long = delayed(&PulseTrain::from_bits(u64::MAX, 64), len - 64);
            assert!(long.packed_word().is_none(), "len={len}");
            assert_eq!(long.len(), len);
            assert_eq!(long.to_bits(), None, "len={len}: a lit slot past 63");
            let mut copy = PulseTrain::from_bits(1, 1);
            copy.copy_from(&long);
            assert!(copy.packed_word().is_none(), "len={len}");
            assert_eq!(copy, long);
        }
    }

    #[test]
    fn wdm_channels_keep_order_replace_and_superpose_on_sparse_ids() {
        let ids = [
            WavelengthId(40),
            WavelengthId(2),
            WavelengthId(17),
            WavelengthId(0),
        ];
        let mut s = WdmSignal::new();
        for (k, &id) in ids.iter().enumerate() {
            s.set_channel(id, &PulseTrain::from_bits(k as u64 + 1, 4));
        }
        assert_eq!(s.channel_count(), 4);
        let order: Vec<u16> = s.iter().map(|(id, _)| id.0).collect();
        assert_eq!(order, vec![0, 2, 17, 40], "channel order");
        assert!(s.channel(WavelengthId(1)).is_none());
        assert!(s.channel(WavelengthId(41)).is_none());
        assert!(s.demux(WavelengthId(1000)).is_empty());
        // set_channel replaces, mux superposes.
        s.set_channel(WavelengthId(17), &PulseTrain::from_bits(0b1000, 4));
        assert_eq!(s.demux(WavelengthId(17)).to_bits(), Some(0b1000));
        s.mux(WavelengthId(17), PulseTrain::from_bits(0b1001, 4));
        assert_eq!(
            s.demux(WavelengthId(17)).quantized_levels(),
            vec![1, 0, 0, 2]
        );
        assert_eq!(s.channel_count(), 4);
        // Equality ignores how far the dense store has grown.
        let a: WdmSignal = [(WavelengthId(1), PulseTrain::from_bits(1, 2))]
            .into_iter()
            .collect();
        let mut b = a.clone();
        b.channels.resize(90, None);
        b.set_channel(
            WavelengthId(1),
            &PulseTrain::from_amplitudes(vec![1.0, 0.0]),
        );
        assert_eq!(a, b);
        b.mux(WavelengthId(60), PulseTrain::new());
        assert_ne!(a, b);
    }

    #[test]
    fn bits_round_trip_lsb_first() {
        // 0110₂ = 6: slot0=0, slot1=1, slot2=1, slot3=0.
        let t = PulseTrain::from_bits(0b0110, 4);
        assert_eq!(t.len(), 4);
        assert!((t.amplitude(1) - 1.0).abs() < 1e-12);
        assert!((t.amplitude(0)).abs() < 1e-12);
        assert_eq!(t.to_bits(), Some(6));
    }

    #[test]
    fn gating_models_mrr_and() {
        let t = PulseTrain::from_bits(0b1011, 4);
        assert_eq!(t.gated(true).to_bits(), Some(0b1011));
        assert_eq!(t.gated(false).to_bits(), Some(0));
        assert_eq!(t.gated(false).len(), 4);
    }

    #[test]
    fn superposition_is_additive() {
        let a = PulseTrain::from_bits(0b11, 2);
        let b = PulseTrain::from_bits(0b01, 2);
        let s = a.superpose(&b);
        assert_eq!(s.quantized_levels(), vec![2, 1]);
        assert_eq!(s.positional_value(), 2 + 2); // 2·2⁰ + 1·2¹
        assert!(s.to_bits().is_none(), "multi-level is not binary");
    }

    #[test]
    fn superpose_with_mismatched_lengths() {
        let a = PulseTrain::from_bits(0b1, 1);
        let b = PulseTrain::from_bits(0b100, 3);
        let s = a.superpose(&b);
        assert_eq!(s.len(), 3);
        assert_eq!(s.positional_value(), 1 + 4);
    }

    #[test]
    fn attenuation_scales_power() {
        let t = PulseTrain::from_bits(0b11, 2);
        let att = t.attenuated(0.5);
        assert!((att.total_amplitude() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantization_rounds_to_nearest() {
        let t = PulseTrain::from_amplitudes(vec![0.96, 2.04, 0.02]);
        assert_eq!(t.quantized_levels(), vec![1, 2, 0]);
        assert_eq!(t.peak_level(), 2);
    }

    #[test]
    fn wdm_mux_demux() {
        let mut s = WdmSignal::new();
        s.mux(WavelengthId(0), PulseTrain::from_bits(0b10, 2));
        s.mux(WavelengthId(3), PulseTrain::from_bits(0b01, 2));
        assert_eq!(s.channel_count(), 2);
        assert_eq!(s.demux(WavelengthId(0)).to_bits(), Some(2));
        assert_eq!(s.demux(WavelengthId(3)).to_bits(), Some(1));
        assert!(s.demux(WavelengthId(9)).is_empty());
    }

    #[test]
    fn wdm_mux_same_channel_superposes() {
        let mut s = WdmSignal::new();
        s.mux(WavelengthId(0), PulseTrain::from_bits(0b1, 2));
        s.mux(WavelengthId(0), PulseTrain::from_bits(0b1, 2));
        assert_eq!(s.demux(WavelengthId(0)).quantized_levels(), vec![2, 0]);
        assert!((s.total_amplitude() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn wavelength_display() {
        assert_eq!(format!("{}", WavelengthId(5)), "λ5");
    }

    #[test]
    fn in_place_writers_match_constructors() {
        let mut t = PulseTrain::from_bits(0b111, 3);
        t.write_bits(0b1011, 4);
        assert_eq!(t, PulseTrain::from_bits(0b1011, 4));
        t.set_dark(2);
        assert_eq!(t, PulseTrain::dark(2));
        t.copy_from(&PulseTrain::from_bits(0b01, 2));
        assert_eq!(t.to_bits(), Some(1));
    }

    #[test]
    fn add_shifted_matches_superpose_of_delayed() {
        let a = PulseTrain::from_bits(0b101, 3);
        let b = PulseTrain::from_bits(0b11, 2);
        let reference = a.superpose(&delayed(&b, 2));
        let mut acc = PulseTrain::new();
        acc.add_shifted(&a, 0);
        acc.add_shifted(&b, 2);
        assert_eq!(acc, reference);
        assert_eq!(acc.amplitudes().len(), 4);
    }

    #[test]
    fn quantized_levels_into_reuses_buffer() {
        let t = PulseTrain::from_amplitudes(vec![0.96, 2.04, 0.02]);
        let mut buf = vec![9u32; 8];
        t.quantized_levels_into(&mut buf);
        assert_eq!(buf, vec![1, 2, 0]);
    }

    #[test]
    fn set_channel_replaces_and_channel_borrows() {
        let mut s = WdmSignal::new();
        s.set_channel(WavelengthId(2), &PulseTrain::from_bits(0b1, 2));
        s.set_channel(WavelengthId(2), &PulseTrain::from_bits(0b10, 2));
        assert_eq!(s.channel_count(), 1);
        assert_eq!(
            s.channel(WavelengthId(2)).and_then(PulseTrain::to_bits),
            Some(2)
        );
        assert!(s.channel(WavelengthId(0)).is_none());
    }
}
