//! Bit-plane packing: 64 MACs per word-level operation.
//!
//! PIXEL's dataflow is Stripes bit-serial: every design walks operand
//! *bits*, one slot at a time. That makes it embarrassingly bit-plane
//! parallel — transpose 64 independent windows so that bit `a` of word
//! position `i` across all windows lands in one `u64` plane, and a
//! single word-level AND/XOR advances the same slot of 64 MACs at once.
//! [`WindowGroup`] packs a group with a 64×64 bit-matrix transpose at a
//! compile-time precision: each window's words of a chunk of ⌊64/bits⌋
//! positions sit side by side in one row of the matrix, so the
//! transposed words are the chunk's planes in position order.
//!
//! [`plane_inner_product`] is the kernel all three designs share, and it
//! follows the hardware's order of work: count first, resolve carries
//! once. For every synapse bit `b` and neuron plane `a`, Harley–Seal
//! carry-save (3:2) counters count, per lane, the positions whose synapse
//! has bit `b` set and whose neuron has bit `a` set — carry-free, as OO's
//! MZI chain superposes partial products into an amplitude count and
//! SCONNA-style accumulators count optical AND results. Each count then
//! resolves into the [`PlaneAccumulator`] once at shift `a + b`, Stripes'
//! accumulate-then-shift. The prepared side is weight-stationary: a
//! [`PreparedKernel`] holds, per synapse bit, the compacted positions the
//! counters read, computed once when a tile loads its filter, so firing
//! a group does no per-kernel preparation. Arithmetic is exact, so the
//! batched path is bitwise identical to the scalar one by construction;
//! only the *activity accounting* differs per design (`PlaneEngine`).
//! `load_planes` is the one loader that runs whole GEMM blocks on the
//! kernel, with either operand on the lanes (`Lanes`): the kernels, so
//! the scalar OMACs advance 64 filters per word-level operation, or the
//! rows, so the fabric transports and fires 64 windows at a time.

use crate::omac::activity::word_stream_activity;
use crate::tile::Tile;
use pixel_dnn::inference::Loaded;
use std::ops::Deref;

/// Windows a fully packed plane carries (the `u64` lane width).
pub const PLANE_WINDOWS: usize = 64;

/// Positions one carry-save counter block takes in (Harley–Seal over
/// eight inputs).
const CSA_BLOCK: usize = 8;

/// `$f::<W>` at the run-time precision `$bits` (1–16), as a function
/// pointer: the packing, the kernel preparation and the kernel itself
/// run at a compile-time precision, so each position's `W` planes
/// advance as one vector.
macro_rules! at_precision {
    ($bits:expr, $f:ident) => {
        match $bits {
            1 => $f::<1>,
            2 => $f::<2>,
            3 => $f::<3>,
            4 => $f::<4>,
            5 => $f::<5>,
            6 => $f::<6>,
            7 => $f::<7>,
            8 => $f::<8>,
            9 => $f::<9>,
            10 => $f::<10>,
            11 => $f::<11>,
            12 => $f::<12>,
            13 => $f::<13>,
            14 => $f::<14>,
            15 => $f::<15>,
            _ => $f::<16>,
        }
    };
}

/// Transposes a 64×64 bit matrix in place: bit `k` of word `w` moves to
/// bit `w` of word `k`. Six rounds swap ever smaller off-diagonal blocks
/// (32×32 down to 1×1), each round one masked XOR swap per word pair.
fn transpose(matrix: &mut [u64; 64]) {
    swap_blocks::<32>(matrix, 0x0000_0000_FFFF_FFFF);
    swap_blocks::<16>(matrix, 0x0000_FFFF_0000_FFFF);
    swap_blocks::<8>(matrix, 0x00FF_00FF_00FF_00FF);
    swap_blocks::<4>(matrix, 0x0F0F_0F0F_0F0F_0F0F);
    swap_blocks::<2>(matrix, 0x3333_3333_3333_3333);
    swap_blocks::<1>(matrix, 0x5555_5555_5555_5555);
}

/// One transpose round: in every `2S`-word block, swaps the high `S`
/// bits (`mask` selects the low ones) of the first `S` words with the
/// low `S` bits of the last `S` words, S×S sub-block by sub-block.
fn swap_blocks<const S: usize>(matrix: &mut [u64; 64], mask: u64) {
    for block in matrix.chunks_exact_mut(2 * S) {
        let (low, high) = block.split_at_mut(S);
        for (a, b) in low.iter_mut().zip(high) {
            let t = ((*a >> S) ^ *b) & mask;
            *a ^= t << S;
            *b ^= t;
        }
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

/// [`WindowGroup::repack`]'s transpose at a compile-time precision `W`:
/// row `w` of a chunk's matrix holds window `w`'s words of a chunk of
/// ⌊64/W⌋ positions, masked to `W` bits and side by side, so the
/// transposed words are the chunk's planes in position order. Rows past
/// the packed windows stay zero, so do their lanes. A whole chunk's
/// word count is a compile-time constant, so its rows fill with
/// constant shifts.
fn transpose_in<const W: usize>(planes: &mut [u64], rows: &[u64], window: usize) {
    let chunk = PLANE_WINDOWS / W;
    for (c, planes) in planes.chunks_mut(chunk * W).enumerate() {
        let (start, words) = (c * chunk, planes.len() / W);
        let mut matrix = [0u64; 64];
        let windows = matrix.iter_mut().zip(rows.chunks_exact(window));
        if words == chunk {
            for (row, packed) in windows {
                *row = side_by_side::<W>(&packed[start..start + chunk]);
            }
        } else {
            for (row, packed) in windows {
                *row = side_by_side::<W>(&packed[start..start + words]);
            }
        }
        transpose(&mut matrix);
        planes.copy_from_slice(&matrix[..planes.len()]);
    }
}

/// `words` masked to `W` bits and laid side by side in one word, the
/// first in the low bits.
fn side_by_side<const W: usize>(words: &[u64]) -> u64 {
    let mask = (1u64 << W) - 1;
    words
        .iter()
        .enumerate()
        .fold(0, |row, (j, &v)| row | (v & mask) << (j * W))
}

/// A group of up to 64 windows transposed into one flat plane array.
/// Word position `i` owns planes `[i·bits, (i+1)·bits)`; plane `a` of a
/// position holds bit `a` of that position's word in every window
/// (window `w` ↦ plane bit `w`). One all-zero pad position follows the
/// last, for the kernel's counter blocks to read past a ragged selection.
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
        self.planes.resize((window + 1) * width, 0);
        self.window = window;
        self.len = len;
        self.bits = bits;
        at_precision!(bits, transpose_in)(&mut self.planes[..window * width], rows, window);
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
        assert!(i < self.window, "position {i} past the window");
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
        assert!(i < self.window, "position {i} past the window");
        let width = self.bits as usize;
        &mut self.planes[i * width..(i + 1) * width]
    }

    /// Every word position's planes, in position order.
    fn positions(&self) -> std::slice::ChunksExact<'_, u64> {
        self.planes[..self.window * self.bits as usize].chunks_exact(self.bits as usize)
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
    /// [`Self::pack`], through the same transpose).
    pub fn unpack_into(&self, rows: &mut Vec<u64>) {
        rows.clear();
        rows.resize(self.window * self.len, 0);
        let width = self.bits as usize;
        let mask = (1u64 << self.bits) - 1;
        let chunk = PLANE_WINDOWS / width;
        for (c, planes) in self.planes[..self.window * width]
            .chunks(chunk * width)
            .enumerate()
        {
            let start = c * chunk;
            let mut matrix = [0u64; 64];
            matrix[..planes.len()].copy_from_slice(planes);
            transpose(&mut matrix);
            for (&row, words) in matrix.iter().zip(rows.chunks_exact_mut(self.window)) {
                let words = &mut words[start..start + planes.len() / width];
                for (j, word) in words.iter_mut().enumerate() {
                    *word = (row >> (j * width)) & mask;
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
    /// Planes that may be nonzero (high-water mark, bounds the clear).
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
        let used = addend
            .iter()
            .rposition(|&x| x != 0)
            .map_or(0, |top| top + 1);
        if used == 0 {
            return;
        }
        assert!(shift + used <= 64, "plane accumulator overflow");
        let mut carry = 0u64;
        let mut k = shift;
        for &x in &addend[..used] {
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

    /// Unpacks the first `len` lane sums (one transpose).
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`PLANE_WINDOWS`].
    pub fn unpack_into(&self, len: usize, out: &mut Vec<u64>) {
        let mut matrix = self.planes;
        transpose(&mut matrix);
        out.clear();
        out.extend_from_slice(&matrix[..len]);
    }
}

/// A carry-save (3:2) adder over planes: per lane, `a + b + c` as a
/// `(carry, sum)` bit pair.
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    ((a & b) | (u & c), u ^ c)
}

/// Counts, per lane, the set bits of each of a position's `W` planes
/// over the positions at `offsets` (whole [`CSA_BLOCK`]s): a Harley–Seal
/// carry-save tree takes in eight positions per block, and only its
/// eights ripple into a bit-sliced counter. The counts land in `levels`
/// bit-sliced, LSB level first: `levels[k][a]` holds bit `k` of every
/// lane's count for plane `a`, over as many levels as `levels` holds.
fn count_planes<const W: usize>(planes: &[u64], offsets: &[u32], levels: &mut [[u64; W]]) {
    levels.fill([0; W]);
    let (low, eights) = levels.split_at_mut(3);
    for block in offsets.chunks_exact(CSA_BLOCK) {
        let x: [&[u64]; CSA_BLOCK] = std::array::from_fn(|j| {
            let offset = block[j] as usize;
            &planes[offset..offset + W]
        });
        let mut carry = [0u64; W];
        for a in 0..W {
            let (twos_a, ones) = csa(low[0][a], x[0][a], x[1][a]);
            let (twos_b, ones) = csa(ones, x[2][a], x[3][a]);
            let (fours_a, twos) = csa(low[1][a], twos_a, twos_b);
            let (twos_a, ones) = csa(ones, x[4][a], x[5][a]);
            let (twos_b, ones) = csa(ones, x[6][a], x[7][a]);
            let (fours_b, twos) = csa(twos, twos_a, twos_b);
            let (eight, fours) = csa(low[2][a], fours_a, fours_b);
            low[0][a] = ones;
            low[1][a] = twos;
            low[2][a] = fours;
            carry[a] = eight;
        }
        for level in eights.iter_mut() {
            for (plane, carry) in level.iter_mut().zip(&mut carry) {
                let next = *plane & *carry;
                *plane ^= *carry;
                *carry = next;
            }
        }
    }
}

/// A kernel — one synapse word per window position — prepared for
/// [`plane_inner_product`] at one precision. For each synapse bit `b`
/// it holds the plane offsets of the positions whose word has `b` set,
/// compacted without a data-dependent branch and padded to whole counter
/// blocks with the group's zero pad position. A tile prepares its filter
/// once when it loads it, so every group fired on the tile reuses the
/// preparation. Synapse bits above the precision are dropped, exactly
/// as the scalar engines' `0..bits` cycle loops never visit them.
#[derive(Debug, Default)]
pub struct PreparedKernel {
    window: usize,
    bits: u32,
    /// Every synapse bit's offsets, bit 0 first; bit `b`'s run is
    /// `offsets[runs[b].0..runs[b].1]`.
    offsets: Vec<u32>,
    runs: [(usize, usize); 16],
}

impl PreparedKernel {
    /// Prepares `synapses` at `bits` of precision (see
    /// [`Self::prepare`]).
    ///
    /// # Panics
    ///
    /// Panics under [`Self::prepare`]'s conditions.
    #[must_use]
    pub fn new(synapses: &[u64], bits: u32) -> Self {
        let mut kernel = Self::default();
        kernel.prepare(synapses, bits);
        kernel
    }

    /// Replaces this kernel with `synapses` prepared at `bits` of
    /// precision, reusing the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=16` (the functional engines'
    /// range).
    pub fn prepare(&mut self, synapses: &[u64], bits: u32) {
        assert!((1..=16).contains(&bits), "plane kernels carry 1..=16 bits");
        at_precision!(bits, prepare_at)(self, synapses);
    }

    /// Synapse words (window positions) the kernel covers.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// The precision the kernel was prepared at.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The padded offsets of the positions whose synapse has bit `b` set.
    fn run(&self, b: usize) -> &[u32] {
        let (start, end) = self.runs[b];
        &self.offsets[start..end]
    }
}

/// [`PreparedKernel::prepare`] at a compile-time precision `W`.
fn prepare_at<const W: usize>(kernel: &mut PreparedKernel, synapses: &[u64]) {
    let window = synapses.len();
    let stride = window + CSA_BLOCK;
    // lint:allow(P002) a window of 2^28 words exceeds any layer's memory
    let pad = u32::try_from(window * W).expect("plane offsets fit u32");
    let mask = (1u64 << W) - 1;
    kernel.window = window;
    kernel.bits = W as u32;
    kernel.offsets.clear();
    kernel.offsets.reserve(W * stride + stride);
    // Synapse bits in pairs, two runs per pass over the words (an odd
    // precision's last pair has an empty phantom run). Branch-free
    // compaction: every position writes its offset at both runs' tips,
    // and only a set bit advances a tip.
    for b in (0..W).step_by(2) {
        let start = kernel.offsets.len();
        kernel.offsets.resize(start + 2 * stride, pad);
        let (low, high) = kernel.offsets[start..].split_at_mut(stride);
        let (mut n_low, mut n_high, mut offset) = (0, 0, 0);
        for &synapse in synapses {
            let word = synapse & mask;
            low[n_low] = offset;
            high[n_high] = offset;
            n_low += ((word >> b) & 1) as usize;
            n_high += ((word >> (b + 1)) & 1) as usize;
            offset += W as u32;
        }
        let low_end = n_low.next_multiple_of(CSA_BLOCK);
        let high_end = n_high.next_multiple_of(CSA_BLOCK);
        low[n_low..low_end].fill(pad);
        high[n_high..high_end].fill(pad);
        let high_start = start + low_end;
        kernel
            .offsets
            .copy_within(start + stride..start + stride + high_end, high_start);
        kernel.offsets.truncate(high_start + high_end);
        kernel.runs[b] = (start, high_start);
        if let Some(run) = kernel.runs.get_mut(b + 1) {
            *run = (high_start, high_start + high_end);
        }
    }
}

/// [`plane_inner_product`]'s body at a compile-time precision `W`, so
/// the counters advance all `W` planes of a position as one vector.
fn count_and_resolve<const W: usize>(
    group: &WindowGroup,
    kernel: &PreparedKernel,
    acc: &mut PlaneAccumulator,
) {
    // A run's offsets fit u32, so it holds at most 2^29 + 1 counter
    // blocks and its counts take at most 3 + 30 levels.
    let mut levels = [[0u64; W]; 33];
    let mut column = [0u64; 33];
    for b in 0..W {
        let offsets = kernel.run(b);
        if offsets.is_empty() {
            continue;
        }
        let blocks = offsets.len() / CSA_BLOCK;
        let depth = 3 + (usize::BITS - blocks.leading_zeros()) as usize;
        count_planes(&group.planes, offsets, &mut levels[..depth]);
        for a in 0..W {
            for (bit, level) in column.iter_mut().zip(&levels[..depth]) {
                *bit = level[a];
            }
            acc.add_shifted(&column[..depth], a + b);
        }
    }
}

/// The shared plane-parallel inner-product kernel, synapse-bit-major:
/// for every synapse bit `b` and neuron plane `a`, count per lane the
/// positions whose synapse has bit `b` set and whose neuron plane `a`
/// is lit (carry-save, carry-free), then resolve the count into the
/// lane accumulators once at shift `a + b`. The positions of each
/// synapse bit come from the [`PreparedKernel`], so a kernel fired on
/// many groups is compacted once. The `len` lane sums land in `out`.
///
/// # Panics
///
/// Panics if the kernel's window or precision differs from the group's,
/// or a lane sum overflows 64 bits.
pub fn plane_inner_product(
    group: &WindowGroup,
    kernel: &PreparedKernel,
    acc: &mut PlaneAccumulator,
    out: &mut Vec<u64>,
) {
    assert_eq!(
        kernel.window(),
        group.window(),
        "one synapse word per window position"
    );
    assert_eq!(
        kernel.bits(),
        group.bits(),
        "kernel precision must match the group"
    );
    acc.clear();
    at_precision!(group.bits(), count_and_resolve)(group, kernel, acc);
    acc.unpack_into(group.len(), out);
}

/// Summed lit slots and toggles of a set of serialized words.
type Sums = (u64, u64);

/// Adds each word position's lit slots and toggles, summed over the
/// whole rows of `sums.len()` words in `words`, into `sums`.
fn add_word_streams(sums: &mut [Sums], words: &[u64], bits: u32) {
    for row in words.chunks_exact(sums.len()) {
        for (sum, &word) in sums.iter_mut().zip(row) {
            let stream = word_stream_activity(word, bits);
            sum.0 += stream.lit;
            sum.1 += stream.toggles;
        }
    }
}

/// Adds each word position's lit slots and toggles, summed over a
/// packed group's windows (one popcount per plane), into `sums`.
fn add_group_streams(sums: &mut [Sums], group: &WindowGroup) {
    for (sum, position) in sums.iter_mut().zip(group.positions()) {
        sum.0 += lit_slots(position);
        sum.1 += toggle_slots(position);
    }
}

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
    /// Folds the per-position `(KLᵢ, KTᵢ)` and `(RLᵢ, RTᵢ)` sums (the
    /// latter read only by [`Self::Gated`]) into [`BlockStreams`] for
    /// `rows × kernels` products.
    fn fold(self, (rows, kernels): (u64, u64), kernel: &[Sums], row: &[Sums]) -> BlockStreams {
        let (lit, toggles) = match self {
            Self::Synapse => kernel.iter().fold((0, 0), |(lit, toggles), &(kl, kt)| {
                (lit + rows * kl, toggles + rows * kt)
            }),
            Self::Gated => kernel
                .iter()
                .zip(row)
                .fold((0, 0), |(lit, toggles), (&(kl, _), &(rl, rt))| {
                    (lit + kl * rl, toggles + kl * rt)
                }),
        };
        BlockStreams {
            products: rows * kernels,
            len: kernel.len(),
            lit,
            toggles,
        }
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

/// What a scalar OMAC design adds to the shared plane kernel: the
/// streams its lit-slot and toggle tallies measure, its operand check and
/// its closed-form charge.
pub(crate) trait PlaneEngine {
    /// The streams the design's lit-slot and toggle tallies measure.
    const STREAMS: Streams;

    /// Rejects operand words the design cannot take, before any tally
    /// moves. By default every word is taken and its bits above the
    /// precision dropped, as pulse trains and `0..bits` cycle loops drop
    /// them.
    fn check_operands(&self, _words: &[u64]) {}

    /// Charges a batch of inner products in closed form — exactly what
    /// [`pixel_dnn::inference::MacEngine::inner_product`] tallies once
    /// per product.
    fn charge(&self, block: &BlockStreams);
}

/// Which operand of a GEMM rides the 64 plane lanes of [`load_planes`].
pub(crate) enum Lanes<'a> {
    /// The kernels (the scalar OMACs): they pack once at load, kernel `m`
    /// on lane `m mod 64` of group `m / 64`, and each fired row, prepared
    /// as a [`PreparedKernel`], fires on every group — the input
    /// broadcast of PIXEL's dataflow, one neuron word reaching every
    /// filter. The engine checks kernel words at load and row words at
    /// fire.
    Kernels,
    /// The rows (the fabric): each fired block of up to 64 rows packs
    /// into one group and crosses `transport` once. The first `tiles`
    /// kernels are resident, each in a [`Tile`] prepared once at load;
    /// kernels past them stream, each prepared into one reused kernel as
    /// it fires. The register files and the transport carry `bits`, so
    /// wider words are truncated, never rejected.
    Rows {
        /// Physical tiles, one resident kernel each.
        tiles: usize,
        /// Carries each packed group to the tiles, rewriting it in place.
        transport: Box<dyn FnMut(&mut WindowGroup) + 'a>,
    },
}

/// The one plane loader: loads `kernels` (whole kernels of `len` words)
/// onto a design's plane engine with either operand on the plane lanes
/// ([`Lanes`]). Both orientations fire [`plane_inner_product`] — products
/// commute, so the row's words select positions exactly as a synapse's
/// do — and charge each fire's `rows × kernels` products to the design
/// once, through [`Streams::fold`] over per-position stream sums: the
/// packed side's from its groups' planes, the prepared side's from its
/// words, the kernels' once per load. Words above `bits` are dropped on
/// both sides, as the packing and the kernel drop them.
///
/// # Panics
///
/// Panics if the engine rejects an operand word (see [`Lanes`]), `len`
/// is zero, `kernels` is empty or not whole kernels of `len` words, or
/// `bits` is outside `1..=16`.
pub(crate) fn load_planes<'a, E: PlaneEngine>(
    engine: impl Deref<Target = E> + 'a,
    bits: u32,
    kernels: &'a [u64],
    len: usize,
    lanes: Lanes<'a>,
) -> Box<dyn Loaded + 'a> {
    let filters = kernels.len() / len;
    let gated = E::STREAMS == Streams::Gated;
    // The kernels' per-position (KLᵢ, KTᵢ), and reused by every fire:
    // the rows' (RLᵢ, RTᵢ), a prepared row or streamed kernel, the
    // accumulator and one group's lane sums.
    let mut kernel_sums: Vec<Sums> = vec![(0, 0); len];
    let mut row_sums: Vec<Sums> = vec![(0, 0); len];
    let mut prepared = PreparedKernel::default();
    let mut acc = PlaneAccumulator::new();
    let mut values = Vec::with_capacity(PLANE_WINDOWS);
    match lanes {
        Lanes::Kernels => {
            engine.check_operands(kernels);
            let groups: Vec<WindowGroup> = kernels
                .chunks(PLANE_WINDOWS * len)
                .map(|chunk| WindowGroup::pack(chunk, len, chunk.len() / len, bits))
                .collect();
            for group in &groups {
                add_group_streams(&mut kernel_sums, group);
            }
            Box::new(move |rows: &[u64], out: &mut [u64]| {
                engine.check_operands(rows);
                for (row, outputs) in rows.chunks_exact(len).zip(out.chunks_exact_mut(filters)) {
                    prepared.prepare(row, bits);
                    for (group, slots) in groups.iter().zip(outputs.chunks_mut(PLANE_WINDOWS)) {
                        plane_inner_product(group, &prepared, &mut acc, &mut values);
                        slots.copy_from_slice(&values);
                    }
                }
                row_sums.fill((0, 0));
                if gated {
                    add_word_streams(&mut row_sums, rows, bits);
                }
                let count = (rows.len() / len) as u64;
                let block = E::STREAMS.fold((count, filters as u64), &kernel_sums, &row_sums);
                engine.charge(&block);
            })
        }
        Lanes::Rows {
            tiles,
            mut transport,
        } => {
            add_word_streams(&mut kernel_sums, kernels, bits);
            let tiles: Vec<Tile> = kernels
                .chunks_exact(len)
                .take(tiles)
                .map(|kernel| {
                    let mut tile = Tile::new(bits, len);
                    tile.load_weights(kernel);
                    tile
                })
                .collect();
            let mut group = WindowGroup::default();
            Box::new(move |rows: &[u64], out: &mut [u64]| {
                row_sums.fill((0, 0));
                let blocks = rows.chunks(PLANE_WINDOWS * len);
                for (block, outputs) in blocks.zip(out.chunks_mut(PLANE_WINDOWS * filters)) {
                    // Stage spans open per group under the caller's span,
                    // so the profile splits a group's time into pack,
                    // transport and fire.
                    let pack_span = pixel_obs::span("pack");
                    group.repack(block, len, block.len() / len, bits);
                    drop(pack_span);
                    let transport_span = pixel_obs::span("transport");
                    transport(&mut group);
                    drop(transport_span);
                    let _fire_span = pixel_obs::span("fire");
                    for (m, kernel) in kernels.chunks_exact(len).enumerate() {
                        let kernel = match tiles.get(m) {
                            Some(tile) => tile.kernel(),
                            None => {
                                prepared.prepare(kernel, bits);
                                &prepared
                            }
                        };
                        plane_inner_product(&group, kernel, &mut acc, &mut values);
                        let column = outputs.iter_mut().skip(m).step_by(filters);
                        for (slot, &value) in column.zip(&values) {
                            *slot = value;
                        }
                    }
                    if gated {
                        add_group_streams(&mut row_sums, &group);
                    }
                }
                let count = (rows.len() / len) as u64;
                let block = E::STREAMS.fold((count, filters as u64), &kernel_sums, &row_sums);
                engine.charge(&block);
            })
        }
    }
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

    /// The kernel against per-lane `u128` dot products: every precision,
    /// windows from one word to 4096 (log-uniform, so both the ragged
    /// single counter block and deep counters show up), full and ragged
    /// groups, random and all-ones operands.
    #[test]
    fn plane_inner_product_matches_u128_dot_products() {
        let mut rng = SplitMix64::seed_from_u64(0xD07);
        let mut acc = PlaneAccumulator::new();
        let mut out = Vec::new();
        for case in 0..160 {
            let bits = (case % 16) as u32 + 1;
            let window = 1 << rng.range_u32(0, 12);
            let window = rng.range_usize(window, (2 * window).min(4096));
            let len = match case % 3 {
                0 => PLANE_WINDOWS,
                1 => 1,
                _ => rng.range_usize(2, PLANE_WINDOWS - 1),
            };
            let limit = (1u64 << bits) - 1;
            let ones = case % 5 == 4;
            let mut draw = |n: usize| -> Vec<u64> {
                (0..n)
                    .map(|_| if ones { limit } else { rng.range_u64(0, limit) })
                    .collect()
            };
            let rows = draw(window * len);
            let synapses = draw(window);
            let group = WindowGroup::pack(&rows, window, len, bits);
            let kernel = PreparedKernel::new(&synapses, bits);
            plane_inner_product(&group, &kernel, &mut acc, &mut out);
            let expected: Vec<u64> = rows
                .chunks_exact(window)
                .map(|row| {
                    let dot: u128 = row
                        .iter()
                        .zip(&synapses)
                        .map(|(&n, &s)| u128::from(n) * u128::from(s))
                        .sum();
                    u64::try_from(dot).unwrap()
                })
                .collect();
            assert_eq!(
                out, expected,
                "bits={bits} window={window} len={len} ones={ones}"
            );
        }
    }

    #[test]
    fn transpose_matches_a_naive_bit_loop() {
        let mut rng = SplitMix64::seed_from_u64(0x7A5);
        for _ in 0..20 {
            let matrix: [u64; 64] = std::array::from_fn(|_| rng.next_u64());
            let mut naive = [0u64; 64];
            for (w, &row) in matrix.iter().enumerate() {
                for (k, column) in naive.iter_mut().enumerate() {
                    *column |= ((row >> k) & 1) << w;
                }
            }
            let mut fast = matrix;
            transpose(&mut fast);
            assert_eq!(fast, naive);
            transpose(&mut fast);
            assert_eq!(fast, matrix, "the transpose is an involution");
        }
    }

    /// Every lane of an accumulator holding `value`.
    fn filled(value: u64) -> PlaneAccumulator {
        let mut acc = PlaneAccumulator::new();
        let planes: Vec<u64> = (0..64)
            .map(|k| if (value >> k) & 1 == 1 { u64::MAX } else { 0 })
            .collect();
        acc.add_shifted(&planes, 0);
        acc
    }

    #[test]
    fn accumulator_reaches_exactly_u64_max() {
        let mut acc = filled(u64::MAX - 5);
        acc.add_shifted(&[u64::MAX, 0, u64::MAX], 0);
        let mut out = Vec::new();
        acc.unpack_into(PLANE_WINDOWS, &mut out);
        assert_eq!(out, vec![u64::MAX; PLANE_WINDOWS]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn accumulator_overflow_past_u64_max_is_detected() {
        let mut acc = filled(u64::MAX);
        acc.add_shifted(&[1 << 17], 0);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn accumulator_overflow_above_the_top_plane_is_detected() {
        let mut acc = PlaneAccumulator::new();
        acc.add_shifted(&[0, 1], 63);
    }
}
