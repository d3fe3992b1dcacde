//! Bit-plane packing: 64 MACs per word-level operation.
//!
//! PIXEL's dataflow is Stripes bit-serial: every design walks operand
//! *bits*, one slot at a time. That makes it embarrassingly bit-plane
//! parallel — transpose 64 independent windows so that bit `a` of word
//! position `i` across all windows lands in one `u64` plane, and a
//! single word-level AND/XOR advances the same slot of 64 MACs at once
//! (the SIMD-within-a-register counterpart of the Kogge–Stone
//! carry-lookahead rewrite). [`WindowGroup`] holds a whole window's
//! transposed word positions in one flat plane array, and
//! [`PlaneAccumulator`] is the bit-sliced ripple/full-adder accumulator
//! the plane-parallel engines share. Arithmetic is exact, so the batched
//! path is bitwise identical to the scalar one by construction; only
//! the *activity accounting* differs per design, and that lives with
//! each engine. `plane_block` runs a whole GEMM block on the same
//! kernel with the *kernels* as the lanes, so engines that hold no
//! packed windows (the scalar OMACs) still advance 64 filters per
//! word-level operation.

use crate::omac::activity::word_stream_activity;

/// Windows a fully packed plane carries (the `u64` lane width).
pub const PLANE_WINDOWS: usize = 64;

fn value_mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Lit slots summed over every window's serialization of one word
/// position: `Σ_a popcount(plane_a)` — the plane-parallel form of
/// summing per-window popcounts.
fn lit_slots(position: &[u64]) -> u64 {
    position.iter().map(|p| u64::from(p.count_ones())).sum()
}

/// Adjacent-slot toggles summed over every window's serialization of
/// one word position: `Σ_a popcount(plane_a ⊕ plane_{a+1})`.
fn toggle_slots(position: &[u64]) -> u64 {
    position
        .windows(2)
        .map(|pair| u64::from((pair[0] ^ pair[1]).count_ones()))
        .sum()
}

/// A group of up to 64 windows transposed into one flat plane array.
/// Word position `i` owns planes `[i·bits, (i+1)·bits)`; plane `a` of a
/// position holds bit `a` of that position's word in every window
/// (window `w` ↦ plane bit `w`).
#[derive(Debug, Default)]
pub struct WindowGroup {
    planes: Vec<u64>,
    window: usize,
    len: usize,
    bits: u32,
}

impl WindowGroup {
    /// Packs `len` windows of `window` words each from `rows` (window-
    /// major: window `w` occupies `rows[w*window..(w+1)*window]`),
    /// reusing this group's allocation. Word bits above `bits` are
    /// dropped, exactly as the scalar transport's `write_bits` truncates.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != window * len`, if `window` is zero, if
    /// `len` is outside `1..=64`, or if `bits` is outside `1..=16` (the
    /// functional engines' range).
    pub fn repack(&mut self, rows: &[u64], window: usize, len: usize, bits: u32) {
        assert!(window > 0, "windows carry at least one word");
        assert_eq!(rows.len(), window * len, "rows must hold len windows");
        assert!(
            (1..=PLANE_WINDOWS).contains(&len),
            "1..=64 windows per group"
        );
        assert!((1..=16).contains(&bits), "plane groups carry 1..=16 bits");
        let width = bits as usize;
        self.planes.clear();
        self.planes.resize(window * width, 0);
        self.window = window;
        self.len = len;
        self.bits = bits;
        // Window-outer, so `rows` is read sequentially; every word ORs
        // its `bits` low bits into lane `w` without a data-dependent branch.
        for (w, row) in rows.chunks_exact(window).enumerate() {
            for (position, &value) in self.planes.chunks_exact_mut(width).zip(row) {
                for (a, plane) in position.iter_mut().enumerate() {
                    *plane |= ((value >> a) & 1) << w;
                }
            }
        }
    }

    /// Packs a fresh group (see [`Self::repack`]).
    ///
    /// # Panics
    ///
    /// Panics under [`Self::repack`]'s conditions.
    #[must_use]
    pub fn pack(rows: &[u64], window: usize, len: usize, bits: u32) -> Self {
        let mut group = Self::default();
        group.repack(rows, window, len, bits);
        group
    }

    /// The `bits` planes of word position `i`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the window size.
    #[must_use]
    pub fn position(&self, i: usize) -> &[u64] {
        let width = self.bits as usize;
        &self.planes[i * width..(i + 1) * width]
    }

    /// Mutable planes of word position `i` (the transport layer ships
    /// and rewrites planes in place).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the window size.
    #[must_use]
    pub fn position_mut(&mut self, i: usize) -> &mut [u64] {
        let width = self.bits as usize;
        &mut self.planes[i * width..(i + 1) * width]
    }

    /// Every word position's planes, in position order.
    fn positions(&self) -> std::slice::ChunksExact<'_, u64> {
        self.planes.chunks_exact(self.bits as usize)
    }

    /// Windows packed into the group.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no windows are packed (never after [`Self::pack`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Words per window.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Packed operand precision.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Unpacks the group back to window-major rows (inverse of
    /// [`Self::pack`]).
    pub fn unpack_into(&self, rows: &mut Vec<u64>) {
        rows.clear();
        rows.resize(self.window * self.len, 0);
        for (w, row) in rows.chunks_exact_mut(self.window).enumerate() {
            for (value, position) in row.iter_mut().zip(self.positions()) {
                for (a, &plane) in position.iter().enumerate() {
                    *value |= ((plane >> w) & 1) << a;
                }
            }
        }
    }
}

/// A bit-sliced accumulator: plane `k` holds bit `k` of 64 independent
/// running sums. [`Self::add_shifted`] is a full adder over planes —
/// three word ops per addend plane advance one addition in all 64 lanes.
#[derive(Debug)]
pub struct PlaneAccumulator {
    planes: [u64; 64],
    /// Planes that may be nonzero (high-water mark, bounds the unpack).
    high: usize,
}

impl Default for PlaneAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl PlaneAccumulator {
    /// A zeroed accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            planes: [0; 64],
            high: 0,
        }
    }

    /// Zeroes the accumulator (cheaply: only planes touched since the
    /// last clear).
    pub fn clear(&mut self) {
        for plane in &mut self.planes[..self.high] {
            *plane = 0;
        }
        self.high = 0;
    }

    /// Adds `addend` (a plane-transposed word per lane) shifted left by
    /// `shift` bit positions into every lane's running sum.
    ///
    /// # Panics
    ///
    /// Panics if any lane's sum overflows 64 bits.
    pub fn add_shifted(&mut self, addend: &[u64], shift: usize) {
        let mut carry = 0u64;
        let mut k = shift;
        for &x in addend {
            // Bit-sliced full adder: one plane of 64 lane-sums per step.
            let a = self.planes[k];
            let partial = a ^ x;
            self.planes[k] = partial ^ carry;
            carry = (a & x) | (partial & carry);
            k += 1;
        }
        while carry != 0 {
            assert!(k < 64, "plane accumulator overflow");
            let a = self.planes[k];
            self.planes[k] = a ^ carry;
            carry &= a;
            k += 1;
        }
        self.high = self.high.max(k);
    }

    /// Unpacks the first `len` lane sums.
    pub fn unpack_into(&self, len: usize, out: &mut Vec<u64>) {
        out.clear();
        for w in 0..len {
            let mut value = 0u64;
            for (k, &plane) in self.planes[..self.high].iter().enumerate() {
                value |= ((plane >> w) & 1) << k;
            }
            out.push(value);
        }
    }
}

/// The shared plane-parallel inner-product kernel: for every set synapse
/// bit `b` of word position `i`, add position `i`'s planes shifted by `b`
/// into the lane accumulators — each `add_shifted` is the batched form
/// of 64 scalar shift-accumulate cycles. Synapse bits above the group's
/// precision are ignored, exactly as the scalar engines' `0..bits`
/// cycle loops never visit them. The `len` lane sums land in `out`.
///
/// # Panics
///
/// Panics if `synapses.len()` differs from the group's window size or a
/// lane sum overflows 64 bits.
pub fn plane_inner_product(
    group: &WindowGroup,
    synapses: &[u64],
    acc: &mut PlaneAccumulator,
    out: &mut Vec<u64>,
) {
    assert_eq!(
        synapses.len(),
        group.window(),
        "one synapse word per window position"
    );
    let mask = value_mask(group.bits());
    acc.clear();
    for (position, &synapse) in group.positions().zip(synapses) {
        let mut rest = synapse & mask;
        while rest != 0 {
            let b = rest.trailing_zeros() as usize;
            acc.add_shifted(position, b);
            rest &= rest - 1;
        }
    }
    acc.unpack_into(group.len(), out);
}

/// Summed lit slots and toggles of a set of serialized words.
type Sums = (u64, u64);

/// Which serialized streams a design's lit-slot and toggle tallies
/// measure, as closed forms over per-word-position sums.
///
/// Per word position `i`, KLᵢ and KTᵢ are the lit slots and toggles of
/// every synapse (kernel) word at `i`, summed over the kernels, and RLᵢ
/// and RTᵢ the same sums over the neuron rows' words, each word
/// serialized at the packed precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Streams {
    /// Every product walks its own synapse words bit-serially (EE):
    /// `rows·Σᵢ KLᵢ` lit slots and `rows·Σᵢ KTᵢ` toggles. Zero-padded
    /// lanes light nothing.
    Synapse,
    /// Every set synapse bit replays the neuron word's stream and a
    /// clear one streams darkness (OE/OO): `Σᵢ KLᵢ·RLᵢ` lit slots and
    /// `Σᵢ KLᵢ·RTᵢ` toggles.
    Gated,
}

impl Streams {
    /// Folds per-position `(KLᵢ, KTᵢ)` sums, each with a thunk for its
    /// `(RLᵢ, RTᵢ)` (forced only by [`Self::Gated`]), into
    /// [`BlockStreams`].
    fn fold<R: FnOnce() -> Sums>(
        self,
        rows: u64,
        kernels: u64,
        positions: impl Iterator<Item = (Sums, R)>,
    ) -> BlockStreams {
        let mut block = BlockStreams {
            products: rows * kernels,
            len: 0,
            lit: 0,
            toggles: 0,
        };
        for ((kl, kt), row) in positions {
            let (lit, toggles) = match self {
                Self::Synapse => (rows * kl, rows * kt),
                Self::Gated => {
                    let (rl, rt) = row();
                    (kl * rl, kl * rt)
                }
            };
            block.len += 1;
            block.lit += lit;
            block.toggles += toggles;
        }
        block
    }
}

/// A batch of `rows × kernels` inner products of `len` words, with the
/// lit slots and toggles its [`Streams`] serialize — what an engine's
/// closed-form accounting charges instead of walking `bits`-slot trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockStreams {
    /// Inner products in the batch (neuron rows × kernels).
    pub products: u64,
    /// Words per inner product.
    pub len: usize,
    /// Lit slots of the measured streams.
    pub lit: u64,
    /// Adjacent-slot toggles of the measured streams.
    pub toggles: u64,
}

impl BlockStreams {
    /// The batch [`plane_inner_product`] runs on `group`: its windows
    /// are the neuron rows, `synapses` the one kernel.
    pub(crate) fn of_group(group: &WindowGroup, synapses: &[u64], streams: Streams) -> Self {
        let positions = synapses
            .iter()
            .zip(group.positions())
            .map(|(&s, position)| {
                let kernel = word_stream_activity(s, group.bits());
                ((kernel.lit, kernel.toggles), || {
                    (lit_slots(position), toggle_slots(position))
                })
            });
        streams.fold(group.len() as u64, 1, positions)
    }
}

/// Every row · kernel inner product of a block, with the kernels as the
/// plane lanes: kernels pack up to [`PLANE_WINDOWS`] at a time into
/// [`WindowGroup`]s (kernel `m` ↦ lane `m mod 64` of group `m / 64`),
/// and [`plane_inner_product`] runs each group once per row, the row's
/// words driving the shift-adds the synapse words drive on the fabric —
/// the same exact sums, because products commute. This is the input
/// broadcast of PIXEL's dataflow: one neuron word reaches every tile
/// that holds a filter.
///
/// `out[r·filters + m]` receives row `r` · kernel `m`, laid out as
/// [`pixel_dnn::inference::MacEngine::inner_products`] lays it out, for
/// as many rows as both `rows` and `out` hold. Words above `bits` are
/// dropped on both sides, as the packing and the kernel drop them.
/// Returns the batch with the lit slots and toggles `streams` measure.
///
/// # Panics
///
/// Panics if `len` is zero, `kernels` is empty or not whole kernels of
/// `len` words, or `bits` is outside `1..=16`.
pub(crate) fn plane_block(
    rows: &[u64],
    kernels: &[u64],
    len: usize,
    bits: u32,
    streams: Streams,
    out: &mut [u64],
) -> BlockStreams {
    let filters = kernels.len() / len;
    let groups: Vec<WindowGroup> = kernels
        .chunks(PLANE_WINDOWS * len)
        .map(|chunk| WindowGroup::pack(chunk, len, chunk.len() / len, bits))
        .collect();
    let mut kernel_sums: Vec<Sums> = vec![(0, 0); len];
    for group in &groups {
        for (sums, position) in kernel_sums.iter_mut().zip(group.positions()) {
            sums.0 += lit_slots(position);
            sums.1 += toggle_slots(position);
        }
    }
    let mut row_sums: Vec<Sums> = vec![(0, 0); len];
    let mut acc = PlaneAccumulator::new();
    let mut values = Vec::with_capacity(PLANE_WINDOWS);
    let mut count = 0u64;
    for (row, outputs) in rows.chunks_exact(len).zip(out.chunks_exact_mut(filters)) {
        for (group, slots) in groups.iter().zip(outputs.chunks_mut(PLANE_WINDOWS)) {
            plane_inner_product(group, row, &mut acc, &mut values);
            slots.copy_from_slice(&values);
        }
        for (sums, &word) in row_sums.iter_mut().zip(row) {
            let stream = word_stream_activity(word, bits);
            sums.0 += stream.lit;
            sums.1 += stream.toggles;
        }
        count += 1;
    }
    let positions = kernel_sums
        .into_iter()
        .zip(row_sums)
        .map(|(k, r)| (k, move || r));
    streams.fold(count, filters as u64, positions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixel_units::rng::SplitMix64;

    #[test]
    fn group_pack_unpack_round_trips() {
        let mut rng = SplitMix64::seed_from_u64(0x6B0);
        let mut group = WindowGroup::default();
        let mut out = Vec::new();
        for _ in 0..200 {
            let bits = rng.range_u32(1, 16);
            let window = rng.range_usize(1, 20);
            let len = rng.range_usize(1, PLANE_WINDOWS);
            let limit = (1u64 << bits) - 1;
            let rows: Vec<u64> = (0..window * len).map(|_| rng.range_u64(0, limit)).collect();
            group.repack(&rows, window, len, bits);
            assert_eq!(group.len(), len);
            assert_eq!(group.window(), window);
            let label = format!("bits={bits} window={window} len={len}");
            for i in 0..window {
                for (a, &plane) in group.position(i).iter().enumerate() {
                    let expected =
                        (0..len).fold(0u64, |p, w| p | (((rows[w * window + i] >> a) & 1) << w));
                    assert_eq!(plane, expected, "{label} i={i} a={a}");
                }
            }
            group.unpack_into(&mut out);
            assert_eq!(out, rows, "{label}");
        }
    }

    #[test]
    fn pack_truncates_to_the_packed_precision() {
        // 0b1_0110 at 4 bits packs as 0b0110, as write_bits truncates.
        let group = WindowGroup::pack(&[0b1_0110, 0b11_0001], 1, 2, 4);
        let mut out = Vec::new();
        group.unpack_into(&mut out);
        assert_eq!(out, vec![0b0110, 0b0001]);
    }

    #[test]
    fn position_mut_rewrites_one_position() {
        let mut group = WindowGroup::pack(&[0b01, 0b10, 0b11, 0b00], 2, 2, 2);
        group.position_mut(1).copy_from_slice(&[0b11, 0b00]);
        let mut out = Vec::new();
        group.unpack_into(&mut out);
        assert_eq!(out, vec![0b01, 0b01, 0b11, 0b01]);
        assert!(!group.is_empty());
    }

    #[test]
    fn position_popcount_tallies_match_per_window_sums() {
        let mut rng = SplitMix64::seed_from_u64(0x7A11);
        for _ in 0..200 {
            let bits = rng.range_u32(1, 16);
            let window = rng.range_usize(1, 8);
            let len = rng.range_usize(1, PLANE_WINDOWS);
            let limit = (1u64 << bits) - 1;
            let rows: Vec<u64> = (0..window * len).map(|_| rng.range_u64(0, limit)).collect();
            let group = WindowGroup::pack(&rows, window, len, bits);
            let label = format!("bits={bits} window={window} len={len}");
            for i in 0..window {
                let words = (0..len).map(|w| rows[w * window + i]);
                let lit: u64 = words.clone().map(|v| u64::from(v.count_ones())).sum();
                let toggles: u64 = words
                    .map(|v| u64::from(((v ^ (v >> 1)) & (limit >> 1)).count_ones()))
                    .sum();
                assert_eq!(lit_slots(group.position(i)), lit, "lit {label} i={i}");
                assert_eq!(
                    toggle_slots(group.position(i)),
                    toggles,
                    "toggles {label} i={i}"
                );
            }
        }
    }

    #[test]
    fn accumulator_matches_scalar_shift_accumulate() {
        let mut rng = SplitMix64::seed_from_u64(0xACC);
        let mut acc = PlaneAccumulator::new();
        let mut out = Vec::new();
        for _ in 0..50 {
            let bits = rng.range_u32(1, 12);
            let len = rng.range_usize(1, PLANE_WINDOWS);
            let limit = (1u64 << bits) - 1;
            let mut expected = vec![0u64; len];
            acc.clear();
            for _ in 0..rng.range_usize(1, 8) {
                let values: Vec<u64> = (0..len).map(|_| rng.range_u64(0, limit)).collect();
                let shift = rng.range_usize(0, 8);
                let group = WindowGroup::pack(&values, 1, len, bits);
                acc.add_shifted(group.position(0), shift);
                for (sum, &v) in expected.iter_mut().zip(&values) {
                    *sum += v << shift;
                }
            }
            acc.unpack_into(len, &mut out);
            assert_eq!(out, expected, "bits={bits} len={len}");
        }
    }

    #[test]
    fn plane_inner_product_matches_per_window_dot_products() {
        let mut rng = SplitMix64::seed_from_u64(0xD07);
        let mut acc = PlaneAccumulator::new();
        let mut out = Vec::new();
        for _ in 0..50 {
            let bits = rng.range_u32(1, 12);
            let window = rng.range_usize(1, 24);
            let len = rng.range_usize(1, PLANE_WINDOWS);
            let limit = (1u64 << bits) - 1;
            let rows: Vec<u64> = (0..window * len).map(|_| rng.range_u64(0, limit)).collect();
            let synapses: Vec<u64> = (0..window).map(|_| rng.range_u64(0, limit)).collect();
            let group = WindowGroup::pack(&rows, window, len, bits);
            plane_inner_product(&group, &synapses, &mut acc, &mut out);
            for w in 0..len {
                let expected: u64 = rows[w * window..(w + 1) * window]
                    .iter()
                    .zip(&synapses)
                    .map(|(&n, &s)| n * s)
                    .sum();
                assert_eq!(out[w], expected, "bits={bits} window={window} w={w}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn accumulator_overflow_is_detected() {
        let mut acc = PlaneAccumulator::new();
        let ones = [u64::MAX; 16];
        for _ in 0..10_000 {
            acc.add_shifted(&ones, 48);
        }
    }
}
