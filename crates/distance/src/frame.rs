//! Packed distance frames: the SoA intermediate representation of the
//! relevance pipeline.
//!
//! The per-predicate distance vectors used to travel as
//! `Vec<Option<f64>>` — 16 bytes per element, half of them discriminant
//! padding, with a branch on every read. At millions of rows the pipeline
//! is memory-bound, not compute-bound, so the representation *is* the
//! cost model (the MonetDB lesson): a [`DistanceFrame`] stores the same
//! information as a contiguous `Vec<f64>` of values plus a [`Bitmap`]
//! validity mask — the same native-buffer + mask layout
//! `visdb_storage::ColumnData` uses for columns — cutting the bytes each
//! O(n) pass streams by ~44% and making the value walk branch-free.
//!
//! A frame is semantically *identical* to the `Option` vector it
//! replaces: row `i` is `Some(values[i])` where the mask is set, `None`
//! where it is not. [`DistanceFrame::get`] / [`DistanceFrame::iter`]
//! reproduce that view exactly (including `Some(NaN)` for defined NaN
//! distances), which is what keeps the packed pipeline bit-identical to
//! the scalar reference.
//!
//! [`FrameStats`] is the second half of the representation change: the
//! per-predicate reduction inputs (defined count, finite min/max absolute
//! distance) are accumulated *inside* the distance walk that produces the
//! frame, so the `fit_improved` normalization no longer needs a full
//! re-collect pass — and skips its selection pass entirely whenever the
//! fit covers every defined item or the exact answers alone cover the
//! fit (`zeros >= k`).

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A dense validity mask: one byte per row, `true` = the row's value is
/// defined. Matches the `Vec<bool>` masks behind
/// `visdb_storage::ColumnData` so frame chunks and column chunks slice
/// identically.
#[derive(Debug, Clone, Default)]
pub struct Bitmap {
    bits: Vec<bool>,
}

impl Bitmap {
    /// An all-invalid mask of `n` rows.
    pub fn new_invalid(n: usize) -> Self {
        Bitmap {
            bits: vec![false; n],
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when the mask covers no rows.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Is row `i` defined? Out-of-range reads report undefined.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.bits.get(i).copied().unwrap_or(false)
    }

    /// Borrow the raw mask.
    #[inline]
    pub fn as_slice(&self) -> &[bool] {
        &self.bits
    }

    /// Mutably borrow the raw mask.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [bool] {
        &mut self.bits
    }
}

/// A packed bit vector: one bit per row, 64 rows per `u64` word (row `i`
/// is bit `i % 64` of word `i / 64`; bits past the length are zero). The
/// form a window's exact-answer and definedness bits are kept in — 1/72
/// of the packed frame they are folded from
/// ([`DistanceFrame::exact_bits`]) — so a two-valued normalization
/// (`dmax = 0`, §5.1's "none or very many") is read one word per 64 rows
/// instead of 9 bytes per row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedBits {
    words: Vec<u64>,
    len: usize,
}

impl PackedBits {
    /// An empty vector with room for `rows` rows.
    pub fn with_capacity(rows: usize) -> Self {
        PackedBits {
            words: Vec::with_capacity(rows.div_ceil(64)),
            len: 0,
        }
    }

    /// `len` rows, every bit set to `bit`.
    pub fn filled(len: usize, bit: bool) -> Self {
        let mut words = vec![if bit { u64::MAX } else { 0 }; len.div_ceil(64)];
        // bits past the length stay zero
        if let Some(last) = words.last_mut().filter(|_| !len.is_multiple_of(64)) {
            *last >>= 64 - len % 64;
        }
        PackedBits { words, len }
    }

    /// `len` rows from their words (row `i` in bit `i % 64` of word
    /// `i / 64`); the bits past the length must be zero.
    pub(crate) fn from_words(words: Vec<u64>, len: usize) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        debug_assert!(len.is_multiple_of(64) || words[len / 64] >> (len % 64) == 0);
        PackedBits { words, len }
    }

    /// Pack one bit per item.
    pub fn from_bools(bits: impl IntoIterator<Item = bool>) -> Self {
        let mut out = PackedBits::default();
        bits.into_iter().for_each(|bit| out.push(bit));
        out
    }

    fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        *self.words.last_mut().expect("pushed above") |= (bit as u64) << (self.len % 64);
        self.len += 1;
    }

    /// The exact-answer bits (`defined && d == ±0.0` — the rows a
    /// degenerate `dmax = 0` fit normalizes to `0.0`; their popcount is
    /// [`FrameStats::zeros`]) and the definedness bits of packed
    /// `(values, validity)` rows, in one walk.
    pub fn fold_exact(vals: &[f64], mask: &[bool]) -> (PackedBits, PackedBits) {
        use crate::lanes::{mask_word, pack_word, WORD_ROWS};
        debug_assert_eq!(vals.len(), mask.len());
        let len = vals.len();
        // eight rows per step: the `== 0.0` lanes as a mask word, ANDed
        // with the validity word, each packed to a byte of the bit word
        let block = |v8: &[f64], m8: &[bool]| {
            let zero: [bool; WORD_ROWS] = std::array::from_fn(|l| v8[l] == 0.0);
            let ok = mask_word(m8);
            (
                pack_word(mask_word(&zero) & ok) as u64,
                pack_word(ok) as u64,
            )
        };
        let mut exact = Vec::with_capacity(len.div_ceil(64));
        let mut defined = Vec::with_capacity(len.div_ceil(64));
        for (v64, m64) in vals.chunks(64).zip(mask.chunks(64)) {
            let (mut e, mut d) = (0u64, 0u64);
            let blocks = (v64.chunks_exact(WORD_ROWS)).zip(m64.chunks_exact(WORD_ROWS));
            for (b, (v8, m8)) in blocks.enumerate() {
                let (e8, d8) = block(v8, m8);
                e |= e8 << (8 * b);
                d |= d8 << (8 * b);
            }
            for l in v64.len() / WORD_ROWS * WORD_ROWS..v64.len() {
                e |= ((m64[l] & (v64[l] == 0.0)) as u64) << l;
                d |= (m64[l] as u64) << l;
            }
            exact.push(e);
            defined.push(d);
        }
        let defined = PackedBits::from_words(defined, len);
        (PackedBits::from_words(exact, len), defined)
    }

    /// Append the rows of `tail`: whole words when `self` ends on a word
    /// boundary (chunk-wise folds concatenate this way: every chunk but
    /// the last is a whole number of words), each tail word split across
    /// two words otherwise (the append path growing a window's bits by Δ
    /// rows).
    pub fn append(&mut self, tail: &PackedBits) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&tail.words);
        } else {
            for &word in &tail.words {
                *self.words.last_mut().expect("a partial last word") |= word << shift;
                self.words.push(word >> (64 - shift));
            }
            // the last push may start a word past the new length
            self.words.truncate((self.len + tail.len).div_ceil(64));
        }
        self.len += tail.len;
    }

    /// Flip the bit of every row in `rows` (each below the length, each
    /// at most once) — a slid comparison window's exact bits are its
    /// predecessor's with the rows between the two thresholds flipped.
    pub fn toggle(&mut self, rows: &[u32]) {
        for &row in rows {
            let row = row as usize;
            debug_assert!(row < self.len);
            self.words[row / 64] ^= 1 << (row % 64);
        }
    }

    /// Heap bytes held by the words.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit of row `i`; out-of-range reads report unset.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// The bits of rows `i..i + 8` as one byte (row `i` in bit 0), read
    /// across a word boundary when `i` is not a multiple of 8; rows past
    /// the length read unset.
    #[inline]
    pub fn byte_at(&self, i: usize) -> u8 {
        let (word, shift) = (i / 64, i % 64);
        let lo = self.words.get(word).map_or(0, |w| w >> shift);
        let hi = match shift > 56 {
            true => self.words.get(word + 1).map_or(0, |w| w << (64 - shift)),
            false => 0,
        };
        (lo | hi) as u8
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The rows of word `w` per pattern over `children` — each an
    /// `(exact, defined)` pair, `defined = None` meaning every row — as
    /// one mask per pattern: entry `p` holds the rows below `len` defined
    /// in every child whose exact bits spell `p` (child `c` in bit `c`).
    /// Only the first `2^children` entries of `masks` are written (and
    /// returned), so one scratch array serves every word of a walk. The
    /// one definition of "the rows of a pattern" the counts and the
    /// ranking's class walk share.
    #[inline(always)]
    pub fn pattern_masks<'m>(
        children: &[(&PackedBits, Option<&PackedBits>)],
        w: usize,
        len: usize,
        masks: &'m mut [u64; 1 << MAX_TABLE_CHILDREN],
    ) -> &'m [u64] {
        debug_assert!(children.len() <= MAX_TABLE_CHILDREN);
        // rows of this word (the last one may be partial) ...
        let live = match len - w * 64 {
            64.. => u64::MAX,
            partial => (1u64 << partial) - 1,
        };
        // ... defined in every child, split child by child into the rows
        // that are exact there and the rows that are not
        let known = children.iter().filter_map(|(_, known)| *known);
        masks[0] = known.fold(live, |m, known| m & known.words[w]);
        for (c, (exact, _)) in children.iter().enumerate() {
            let exact = exact.words[w];
            for p in 0..1 << c {
                masks[p | 1 << c] = masks[p] & exact;
                masks[p] &= !exact;
            }
        }
        &masks[..1 << children.len()]
    }

    /// Rows per pattern ([`PackedBits::pattern_masks`]) within the
    /// word-aligned row range `rows`, counted from the words alone; the
    /// entries past `2^children` stay 0. Their sum is the rows defined in
    /// every child.
    pub fn pattern_counts(
        children: &[(&PackedBits, Option<&PackedBits>)],
        rows: std::ops::Range<usize>,
    ) -> [usize; 1 << MAX_TABLE_CHILDREN] {
        // a constant number of children unrolls the per-word loops (a
        // third of the time of the runtime-length ones)
        match children.len() {
            0 => PackedBits::counts_of::<0>(children, rows),
            1 => PackedBits::counts_of::<1>(children, rows),
            2 => PackedBits::counts_of::<2>(children, rows),
            3 => PackedBits::counts_of::<3>(children, rows),
            4 => PackedBits::counts_of::<4>(children, rows),
            5 => PackedBits::counts_of::<5>(children, rows),
            _ => PackedBits::counts_of::<MAX_TABLE_CHILDREN>(children, rows),
        }
    }

    fn counts_of<const K: usize>(
        children: &[(&PackedBits, Option<&PackedBits>)],
        rows: std::ops::Range<usize>,
    ) -> [usize; 1 << MAX_TABLE_CHILDREN] {
        debug_assert!(rows.start.is_multiple_of(64));
        let children: &[_; K] = children.try_into().expect("at most MAX_TABLE_CHILDREN");
        let mut counts = [0usize; 1 << MAX_TABLE_CHILDREN];
        let mut masks = [0u64; 1 << MAX_TABLE_CHILDREN];
        for w in rows.start / 64..rows.end.div_ceil(64) {
            let masks = PackedBits::pattern_masks(children, w, rows.end, &mut masks);
            for (count, mask) in counts.iter_mut().zip(masks) {
                *count += mask.count_ones() as usize;
            }
        }
        counts
    }
}

/// An `AND` / single-window root folds at most this many two-valued
/// children into one pattern table (`2^k` entries, each counted by a
/// popcount per 64 rows); beyond it the children are accumulated one by
/// one.
pub const MAX_TABLE_CHILDREN: usize = 6;

/// Reduction inputs of one distance frame, accumulated during the chunk
/// walk that fills it — one fused pass instead of a distance pass plus a
/// stats re-collect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameStats {
    /// Rows with a defined distance.
    pub defined: usize,
    /// Smallest finite absolute distance over defined rows
    /// (`+inf` when none).
    pub min_abs: f64,
    /// Largest finite absolute distance over defined rows
    /// (`-inf` when none).
    pub max_abs: f64,
    /// Defined rows whose distance is NaN or infinite.
    pub non_finite: usize,
    /// Defined rows whose distance is `±0.0` — the predicate's exact
    /// answers (§5.1: "none or very many").
    pub zeros: usize,
}

impl Default for FrameStats {
    fn default() -> Self {
        FrameStats {
            defined: 0,
            min_abs: f64::INFINITY,
            max_abs: f64::NEG_INFINITY,
            non_finite: 0,
            zeros: 0,
        }
    }
}

impl FrameStats {
    /// Fold one defined distance into the stats.
    #[inline]
    pub fn record(&mut self, d: f64) {
        self.defined += 1;
        self.zeros += (d == 0.0) as usize;
        let a = d.abs();
        if a.is_finite() {
            self.min_abs = self.min_abs.min(a);
            self.max_abs = self.max_abs.max(a);
        } else {
            self.non_finite += 1;
        }
    }

    /// Merge the stats of another (disjoint) chunk. Only counts and
    /// min/max are involved, so the merge is exact and order-independent
    /// — parallel chunk walks produce bit-identical stats to the serial
    /// reference.
    pub fn merge(&mut self, other: &FrameStats) {
        self.defined += other.defined;
        self.min_abs = self.min_abs.min(other.min_abs);
        self.max_abs = self.max_abs.max(other.max_abs);
        self.non_finite += other.non_finite;
        self.zeros += other.zeros;
    }

    /// Stats of a full walk over an existing frame — used where a frame
    /// arrives without its stats (cache hits never need this; combiners
    /// fuse it into their own walk).
    pub fn of_frame(frame: &DistanceFrame) -> FrameStats {
        FrameStats::of_slice(frame.values(), frame.validity().as_slice())
    }

    /// Branchless stats reduction over packed buffers, one 8-row validity
    /// word at a time with a scalar tail. The three counts are byte sums
    /// of lane-mask words (defined, exact and non-finite rows), and the
    /// finite `|d|` min/max run in eight independent lanes — a block whose
    /// rows are all defined and finite (one `u64` compare) with no mask
    /// term at all. The candidates are finite or `±inf`, never NaN, so the
    /// select min/max are `f64::min`/`max` without their NaN handling.
    /// Every fold is a set operation (count, min, max) with a neutral
    /// element for masked lanes, so the result is exact and independent
    /// of lane assignment — bit-identical to the serial
    /// [`FrameStats::record`] reference, which the kernel property tests
    /// pin across lane remainders and NaN/±inf-dense inputs.
    pub fn of_slice(vals: &[f64], mask: &[bool]) -> FrameStats {
        use crate::lanes::{mask_word, select, ALL_VALID_WORD, WORD_ROWS};
        debug_assert_eq!(vals.len(), mask.len());
        // the set bytes of a lane-mask word: each byte is 0 or 1, so the
        // partial sums never carry
        let count = |word: u64| (word.wrapping_mul(ALL_VALID_WORD) >> 56) as usize;
        let (mut defined, mut non_finite, mut zeros) = (0, 0, 0);
        let mut min_abs = [f64::INFINITY; WORD_ROWS];
        let mut max_abs = [f64::NEG_INFINITY; WORD_ROWS];
        let blocks = vals.len() / WORD_ROWS * WORD_ROWS;
        let (vblocks, vtail) = vals.split_at(blocks);
        let (mblocks, mtail) = mask.split_at(blocks);
        for (v8, m8) in vblocks
            .chunks_exact(WORD_ROWS)
            .zip(mblocks.chunks_exact(WORD_ROWS))
        {
            let ok = mask_word(m8);
            let a: [f64; WORD_ROWS] = std::array::from_fn(|l| v8[l].abs());
            let finite = mask_word(&a.map(|a| a < f64::INFINITY)) & ok;
            defined += count(ok);
            zeros += count(mask_word(&a.map(|a| a == 0.0)) & ok);
            non_finite += count(ok ^ finite);
            let lanes = min_abs.iter_mut().zip(&mut max_abs).zip(a);
            if finite == ALL_VALID_WORD {
                for ((min, max), a) in lanes {
                    *min = select(a < *min, a, *min);
                    *max = select(a > *max, a, *max);
                }
            } else {
                for (l, ((min, max), a)) in lanes.enumerate() {
                    let keep = finite >> (8 * l) & 1 == 1;
                    let (lo, hi) = (
                        select(keep, a, f64::INFINITY),
                        select(keep, a, f64::NEG_INFINITY),
                    );
                    *min = select(lo < *min, lo, *min);
                    *max = select(hi > *max, hi, *max);
                }
            }
        }
        let mut s = FrameStats {
            defined,
            min_abs: min_abs.iter().fold(f64::INFINITY, |m, &x| m.min(x)),
            max_abs: max_abs.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x)),
            non_finite,
            zeros,
        };
        for (&v, &ok) in vtail.iter().zip(mtail) {
            if ok {
                s.record(v);
            }
        }
        s
    }
}

/// One distance vector in packed SoA form: 8-byte values plus a byte
/// mask, `None` rows carry a canonical `0.0` value and a cleared mask
/// bit.
#[derive(Debug, Clone, Default)]
pub struct DistanceFrame {
    values: Vec<f64>,
    validity: Bitmap,
}

impl DistanceFrame {
    /// An all-undefined frame of `n` rows (the canvas a distance walk
    /// fills in).
    pub fn undefined(n: usize) -> Self {
        DistanceFrame {
            values: vec![0.0; n],
            validity: Bitmap::new_invalid(n),
        }
    }

    /// A frame with every row defined to the same value, together with
    /// the stats the equivalent per-row `set`/`record` loop would have
    /// produced — broadcast fills (the uncorrelated EXISTS distance) are
    /// two constant fills instead of `n` individual calls.
    pub fn constant(n: usize, d: f64) -> (DistanceFrame, FrameStats) {
        let frame = DistanceFrame {
            values: vec![d; n],
            validity: Bitmap {
                bits: vec![true; n],
            },
        };
        let mut stats = FrameStats::default();
        if n > 0 {
            stats.defined = n;
            let a = d.abs();
            if a.is_finite() {
                stats.min_abs = a;
                stats.max_abs = a;
            } else {
                stats.non_finite = n;
            }
            stats.zeros = if a == 0.0 { n } else { 0 };
        }
        (frame, stats)
    }

    /// Build from the `Option` representation (tests, adapters).
    pub fn from_options(options: &[Option<f64>]) -> Self {
        let mut f = DistanceFrame::undefined(options.len());
        for (i, o) in options.iter().enumerate() {
            if let Some(d) = o {
                f.values[i] = *d;
                f.validity.bits[i] = true;
            }
        }
        f
    }

    /// The `Option` view of the whole frame (boundary adapters only —
    /// the hot passes stay on the packed buffers).
    pub fn to_options(&self) -> Vec<Option<f64>> {
        self.iter().collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the frame covers no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Row `i` as the `Option` the frame semantically is. Out-of-range
    /// reads yield `None`, mirroring `slice::get(..).copied().flatten()`
    /// on the old representation.
    #[inline]
    pub fn get(&self, i: usize) -> Option<f64> {
        if self.validity.get(i) {
            Some(self.values[i])
        } else {
            None
        }
    }

    /// Iterate rows as `Option<f64>`.
    pub fn iter(&self) -> impl Iterator<Item = Option<f64>> + '_ {
        self.values
            .iter()
            .zip(self.validity.bits.iter())
            .map(|(&v, &ok)| ok.then_some(v))
    }

    /// Borrow the packed value buffer.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Borrow the validity mask.
    #[inline]
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }

    /// Set row `i`.
    #[inline]
    pub fn set(&mut self, i: usize, d: Option<f64>) {
        match d {
            Some(v) => {
                self.values[i] = v;
                self.validity.bits[i] = true;
            }
            None => {
                self.values[i] = 0.0;
                self.validity.bits[i] = false;
            }
        }
    }

    /// Mutably borrow values and mask together (lockstep chunk walks).
    pub fn parts_mut(&mut self) -> (&mut [f64], &mut [bool]) {
        (&mut self.values, &mut self.validity.bits)
    }

    /// Split the frame into the given contiguous row ranges, returning
    /// one `(values, validity)` pair of mutable sub-slices per range —
    /// the frame equivalent of splitting a `Vec<Option<f64>>` for a
    /// chunked walk.
    pub fn split_ranges_mut(
        &mut self,
        ranges: &[(usize, usize)],
    ) -> Vec<(&mut [f64], &mut [bool])> {
        let mut out = Vec::with_capacity(ranges.len());
        let mut vals: &mut [f64] = &mut self.values;
        let mut mask: &mut [bool] = &mut self.validity.bits;
        let mut consumed = 0;
        for &(offset, len) in ranges {
            debug_assert_eq!(offset, consumed, "ranges must be contiguous");
            let (vh, vt) = vals.split_at_mut(len);
            let (mh, mt) = mask.split_at_mut(len);
            out.push((vh, mh));
            vals = vt;
            mask = mt;
            consumed += len;
        }
        debug_assert!(vals.is_empty(), "ranges must cover the frame");
        out
    }

    /// Concatenate: rows of `self` followed by rows of `tail`, as one
    /// new frame. Two buffer memcpys — including the canonical values of
    /// undefined slots, so a concat of bit-identical inputs is
    /// bit-identical to a from-scratch build over the combined rows. The
    /// append path extends cached window frames with delta evaluations
    /// this way.
    pub fn concat(&self, tail: &Self) -> Self {
        let mut values = Vec::with_capacity(self.len() + tail.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&tail.values);
        let mut bits = Vec::with_capacity(self.len() + tail.len());
        bits.extend_from_slice(&self.validity.bits);
        bits.extend_from_slice(&tail.validity.bits);
        DistanceFrame {
            values,
            validity: Bitmap { bits },
        }
    }

    /// [`PackedBits::fold_exact`] of the rows `rows`.
    pub fn exact_bits_in(&self, rows: std::ops::Range<usize>) -> (PackedBits, PackedBits) {
        PackedBits::fold_exact(&self.values[rows.clone()], &self.validity.bits[rows])
    }

    /// [`DistanceFrame::exact_bits_in`] of the whole frame, with the
    /// definedness bits dropped (`None`) when every row is defined.
    pub fn exact_bits(&self) -> ExactBits {
        let (exact, defined) = self.exact_bits_in(0..self.len());
        (
            exact,
            (defined.count_ones() < self.len()).then_some(defined),
        )
    }

    /// Bitwise row equality: like `==` but NaN distances compare equal
    /// when their bit patterns match. This is the equality the
    /// bit-identity property tests assert on NaN-heavy columns (IEEE
    /// `==` can never confirm that two NaN-carrying frames agree).
    pub fn bits_eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self.iter().zip(other.iter()).all(|(a, b)| match (a, b) {
                (None, None) => true,
                (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
                _ => false,
            })
    }

    /// Heap bytes held by this frame: 9 bytes per row vs the 16 of the
    /// `Vec<Option<f64>>` representation it replaced — what a raw window
    /// weighs in the serving layer's byte-budgeted window cache, beside
    /// its packed bits.
    pub fn heap_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<f64>()
            + self.validity.bits.capacity() * std::mem::size_of::<bool>()
    }
}

/// A window's packed `(exact, defined)` bits ([`DistanceFrame::exact_bits`]):
/// the definedness bits are `None` when every row is defined.
pub type ExactBits = (PackedBits, Option<PackedBits>);

/// One chunk of a window folded to what its distance walk keeps: the
/// chunk's stats and its `(exact, defined)` bits
/// ([`PackedBits::fold_exact`]), definedness always present.
pub type PackedChunk = (FrameStats, PackedBits, PackedBits);

/// An `n`-row [`DistanceFrame`] under construction by a walk that writes
/// it range by range — in parallel, in any order, some ranges perhaps not
/// at all. The buffers are reserved, never zero-filled, and
/// [`FrameSink::finish`] hands the frame out only once every row has been
/// written.
pub struct FrameSink {
    values: Vec<f64>,
    validity: Vec<bool>,
    len: usize,
    /// Rows written through the ranges of the latest split.
    written: AtomicUsize,
}

/// One row range of a [`FrameSink`]: written in full by
/// [`SinkRange::write`], or not at all.
pub struct SinkRange<'a> {
    values: &'a mut [MaybeUninit<f64>],
    validity: &'a mut [MaybeUninit<bool>],
    written: &'a AtomicUsize,
}

impl FrameSink {
    /// Reserve an `n`-row frame.
    pub fn new(n: usize) -> Self {
        FrameSink {
            values: Vec::with_capacity(n),
            validity: Vec::with_capacity(n),
            len: n,
            written: AtomicUsize::new(0),
        }
    }

    /// Split the rows into the given contiguous ranges (which must cover
    /// them in order), one writer per range. Only the writes through the
    /// latest split count toward [`FrameSink::finish`].
    pub fn split_ranges_mut(&mut self, ranges: &[(usize, usize)]) -> Vec<SinkRange<'_>> {
        *self.written.get_mut() = 0;
        let mut vals = &mut self.values.spare_capacity_mut()[..self.len];
        let mut mask = &mut self.validity.spare_capacity_mut()[..self.len];
        let mut out = Vec::with_capacity(ranges.len());
        let mut consumed = 0;
        for &(offset, len) in ranges {
            debug_assert_eq!(offset, consumed, "ranges must be contiguous");
            let (vh, vt) = std::mem::take(&mut vals).split_at_mut(len);
            let (mh, mt) = std::mem::take(&mut mask).split_at_mut(len);
            out.push(SinkRange {
                values: vh,
                validity: mh,
                written: &self.written,
            });
            (vals, mask) = (vt, mt);
            consumed += len;
        }
        debug_assert!(vals.is_empty(), "ranges must cover the frame");
        out
    }

    /// The frame, when every row was written; `None` otherwise.
    pub fn finish(mut self) -> Option<DistanceFrame> {
        if *self.written.get_mut() != self.len {
            return None;
        }
        // SAFETY: the latest split handed out disjoint ranges starting at
        // row 0; each `SinkRange` is consumed by the one `write` that
        // initializes every slot of its range and only then counts its
        // length. A count of `len` therefore means ranges covering rows
        // `0..len` of both buffers were written in full.
        unsafe {
            self.values.set_len(self.len);
            self.validity.set_len(self.len);
        }
        Some(DistanceFrame {
            values: self.values,
            validity: Bitmap {
                bits: self.validity,
            },
        })
    }
}

impl SinkRange<'_> {
    /// Rows in the range.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the range covers no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Write every row of the range from packed `(values, validity)`
    /// rows of the same length.
    pub fn write(self, vals: &[f64], mask: &[bool]) {
        assert_eq!(vals.len(), self.values.len(), "a range is written in full");
        assert_eq!(
            mask.len(),
            self.validity.len(),
            "a range is written in full"
        );
        let slots = self.values.iter_mut().zip(self.validity.iter_mut());
        for ((value, defined), (&v, &ok)) in slots.zip(vals.iter().zip(mask)) {
            value.write(v);
            defined.write(ok);
        }
        self.written.fetch_add(vals.len(), Ordering::Relaxed);
    }
}

/// Frames are equal when they agree row-by-row under the `Option` view —
/// the values of undefined rows are don't-care, and defined NaNs compare
/// like `Some(NaN) == Some(NaN)` does (false), exactly as the old
/// representation did.
impl PartialEq for DistanceFrame {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_option_view() {
        let opts = vec![Some(1.5), None, Some(-3.0), Some(f64::NAN), None];
        let f = DistanceFrame::from_options(&opts);
        assert_eq!(f.len(), 5);
        assert_eq!(f.get(0), Some(1.5));
        assert_eq!(f.get(1), None);
        assert_eq!(f.get(2), Some(-3.0));
        assert!(f.get(3).unwrap().is_nan());
        assert_eq!(f.get(99), None);
        let back = f.to_options();
        assert_eq!(back[0], Some(1.5));
        assert_eq!(back[1], None);
        assert!(back[3].unwrap().is_nan());
    }

    #[test]
    fn equality_ignores_undefined_values_and_respects_nan() {
        let a = DistanceFrame::from_options(&[Some(1.0), None]);
        let mut b = DistanceFrame::from_options(&[Some(1.0), None]);
        b.values[1] = 42.0; // undefined slot: don't-care
        assert_eq!(a, b);
        let nan = DistanceFrame::from_options(&[Some(f64::NAN)]);
        assert_ne!(nan, nan.clone(), "Some(NaN) != Some(NaN), as before");
    }

    #[test]
    fn stats_accumulate_and_merge() {
        let mut a = FrameStats::default();
        a.record(3.0);
        a.record(-1.0);
        a.record(f64::NAN);
        let mut b = FrameStats::default();
        b.record(0.5);
        b.record(f64::INFINITY);
        b.record(-0.0);
        a.merge(&b);
        assert_eq!(a.defined, 6);
        assert_eq!(a.min_abs, 0.0);
        assert_eq!(a.max_abs, 3.0);
        assert_eq!(a.non_finite, 2);
        assert_eq!(a.zeros, 1);
        // the lane kernel counts what `record` counts, at every lane
        // remainder: signed zeros are exact answers, NaN and undefined
        // rows (whose canonical value is 0.0) are not
        let rows = [
            Some(3.0),
            Some(-0.0),
            None,
            Some(0.5),
            Some(0.0),
            Some(f64::NAN),
            None,
        ];
        for len in 0..=rows.len() {
            let f = DistanceFrame::from_options(&rows[..len]);
            let mut expect = FrameStats::default();
            rows[..len].iter().flatten().for_each(|&d| expect.record(d));
            assert_eq!(FrameStats::of_frame(&f), expect, "len={len}");
        }
        assert_eq!(
            FrameStats::of_frame(&DistanceFrame::from_options(&rows)).zeros,
            2
        );
        // eight-row blocks on both paths — all defined and finite, and
        // mixed with NULLs, NaN, ±inf, signed zeros and a stray value
        // under a cleared mask bit — at every block remainder
        fn value(i: usize) -> f64 {
            match i % 13 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                3 => f64::INFINITY,
                4 => f64::NEG_INFINITY,
                _ => (i % 17) as f64 * 0.75 - 6.0,
            }
        }
        let shapes: [fn(usize) -> (f64, bool); 4] = [
            |i| ((i % 29) as f64 + 1.5, true),
            |i| (-((i % 31) as f64), true),
            |i| (value(i), i % 7 != 3),
            |i| (if i % 5 == 0 { 9.0 } else { value(i) }, i % 5 != 0),
        ];
        for shape in shapes {
            for len in 0..=41 {
                let (vals, mask): (Vec<f64>, Vec<bool>) = (0..len).map(shape).unzip();
                let mut expect = FrameStats::default();
                let defined = vals.iter().zip(&mask).filter(|(_, &ok)| ok);
                defined.for_each(|(&d, _)| expect.record(d));
                let got = FrameStats::of_slice(&vals, &mask);
                assert_eq!(got, expect, "len={len}");
                let bits = |x: f64| x.to_bits();
                assert_eq!(bits(got.min_abs), bits(expect.min_abs), "len={len}");
            }
        }
    }

    /// The packed bits of a frame against the per-row definition, at
    /// every word and block remainder; byte reads at every offset across
    /// word boundaries; chunk-wise folds appended back together; and the
    /// pattern counts against a per-row count.
    #[test]
    fn packed_bits_match_the_per_row_definition() {
        let row = |i: usize| match i % 7 {
            0 | 1 => Some(0.0),
            2 => Some(-0.0),
            3 => None,
            4 => Some(f64::NAN),
            _ => Some(i as f64),
        };
        for len in (0..=130).chain([191, 192, 193, 1000]) {
            let rows: Vec<Option<f64>> = (0..len).map(row).collect();
            let f = DistanceFrame::from_options(&rows);
            let (exact, defined) = f.exact_bits();
            let defined = defined.unwrap_or_else(|| PackedBits::from_bools(vec![true; len]));
            assert_eq!((exact.len(), defined.len()), (len, len));
            assert_eq!(exact.is_empty(), len == 0);
            assert_eq!(
                exact.count_ones(),
                FrameStats::of_frame(&f).zeros,
                "len={len}"
            );
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(exact.get(i), *r == Some(0.0), "len={len} row {i}");
                assert_eq!(defined.get(i), r.is_some(), "len={len} row {i}");
                let byte = (0..8).fold(0u8, |b, l| b | (exact.get(i + l) as u8) << l);
                assert_eq!(exact.byte_at(i), byte, "len={len} row {i}");
            }
            assert!(!exact.get(len) && exact.byte_at(len + 64) == 0);
            // folds of word-aligned chunks concatenate; any split appends
            for split in [0, 64.min(len), 128.min(len), len / 3, len] {
                let (mut head, mut head_defined) = f.exact_bits_in(0..split);
                let (tail, tail_defined) = f.exact_bits_in(split..len);
                head.append(&tail);
                head_defined.append(&tail_defined);
                assert_eq!(
                    (&head, &head_defined),
                    (&exact, &defined),
                    "len={len} split={split}"
                );
            }
            // pattern counts of (this frame, itself shifted by three rows)
            let shifted = DistanceFrame::from_options(&(3..len + 3).map(row).collect::<Vec<_>>());
            let (exact2, defined2) = shifted.exact_bits();
            let children = [(&exact, Some(&defined)), (&exact2, defined2.as_ref())];
            let mut want = [0usize; 1 << MAX_TABLE_CHILDREN];
            for i in 0..len {
                if let (Some(a), Some(b)) = (row(i), row(i + 3)) {
                    want[(a == 0.0) as usize | ((b == 0.0) as usize) << 1] += 1;
                }
            }
            assert_eq!(
                PackedBits::pattern_counts(&children, 0..len),
                want,
                "len={len}"
            );
            let split = len / 128 * 64;
            let mut parts = PackedBits::pattern_counts(&children, 0..split);
            let rest = PackedBits::pattern_counts(&children, split..len);
            parts.iter_mut().zip(rest).for_each(|(p, r)| *p += r);
            assert_eq!(parts, want, "len={len} split={split}");
            // the masks of every word, against the per-row definition
            let mut scratch = [0u64; 1 << MAX_TABLE_CHILDREN];
            for w in 0..len.div_ceil(64) {
                let masks = PackedBits::pattern_masks(&children, w, len, &mut scratch);
                assert_eq!(masks.len(), 4);
                for i in w * 64..(w * 64 + 64).min(len) {
                    let spelled = match (row(i), row(i + 3)) {
                        (Some(a), Some(b)) => {
                            Some((a == 0.0) as usize | ((b == 0.0) as usize) << 1)
                        }
                        _ => None,
                    };
                    for (p, mask) in masks.iter().enumerate() {
                        let set = mask >> (i % 64) & 1 == 1;
                        assert_eq!(set, spelled == Some(p), "len={len} row {i} pattern {p}");
                    }
                }
                let tail = (w * 64 + 64).saturating_sub(len);
                assert!(masks.iter().all(|m| m.leading_zeros() as usize >= tail));
            }
        }
        // every row defined: no definedness bits to keep
        assert_eq!(DistanceFrame::constant(70, 0.0).0.exact_bits().1, None);
        assert_eq!(PackedBits::pattern_counts(&[], 0..0)[0], 0);
        // no children: one pattern holding every live row
        let mut scratch = [0u64; 1 << MAX_TABLE_CHILDREN];
        assert_eq!(PackedBits::pattern_masks(&[], 1, 70, &mut scratch), [63]);
        assert_eq!(PackedBits::pattern_counts(&[], 0..70)[..2], [70, 0]);
    }

    #[test]
    fn constant_fill_matches_per_row_loop() {
        for (n, d) in [
            (5usize, 2.5f64),
            (3, -1.0),
            (4, f64::INFINITY),
            (0, 7.0),
            (2, -0.0),
        ] {
            let (frame, stats) = DistanceFrame::constant(n, d);
            let mut expect_frame = DistanceFrame::undefined(n);
            let mut expect_stats = FrameStats::default();
            for i in 0..n {
                expect_frame.set(i, Some(d));
                expect_stats.record(d);
            }
            assert_eq!(frame, expect_frame, "n={n} d={d}");
            assert_eq!(stats, expect_stats, "n={n} d={d}");
        }
    }

    #[test]
    fn split_ranges_cover_in_lockstep() {
        let mut f = DistanceFrame::undefined(10);
        let ranges = [(0usize, 4usize), (4, 3), (7, 3)];
        for (ri, (vals, mask)) in f.split_ranges_mut(&ranges).into_iter().enumerate() {
            assert_eq!(vals.len(), ranges[ri].1);
            assert_eq!(mask.len(), ranges[ri].1);
            for (j, (v, m)) in vals.iter_mut().zip(mask.iter_mut()).enumerate() {
                *v = (ranges[ri].0 + j) as f64;
                *m = true;
            }
        }
        for i in 0..10 {
            assert_eq!(f.get(i), Some(i as f64));
        }
    }

    #[test]
    fn heap_accounting_is_packed() {
        let f = DistanceFrame::undefined(1000);
        assert!(f.heap_bytes() >= 9 * 1000);
        assert!(f.heap_bytes() < 16 * 1000, "must beat Vec<Option<f64>>");
    }

    /// An append at any length — word-aligned or not — packs exactly the
    /// bits one pack of the concatenated rows does.
    #[test]
    fn appends_at_any_length_match_one_pack() {
        let bit = |i: usize| (i * 7 + i / 3) % 5 < 2;
        for head in [0usize, 1, 5, 63, 64, 65, 127, 130] {
            for tail in [0usize, 1, 63, 64, 65, 200] {
                let mut got = PackedBits::from_bools((0..head).map(bit));
                got.append(&PackedBits::from_bools((head..head + tail).map(bit)));
                let want = PackedBits::from_bools((0..head + tail).map(bit));
                assert_eq!(got, want, "{head} + {tail} rows");
            }
            for bit in [false, true] {
                let want = PackedBits::from_bools(std::iter::repeat_n(bit, head));
                assert_eq!(PackedBits::filled(head, bit), want, "{head} rows of {bit}");
            }
        }
    }

    /// Toggling a set of rows is the per-row XOR, at word edges and past
    /// the last whole word too.
    #[test]
    fn toggling_rows_flips_exactly_those_bits() {
        let bit = |i: usize| (i * 5 + i / 7).is_multiple_of(3);
        for len in [1usize, 63, 64, 65, 130] {
            let rows: Vec<u32> = (0..len as u32).filter(|r| r % 4 == 1 || *r == 63).collect();
            let mut got = PackedBits::from_bools((0..len).map(bit));
            got.toggle(&rows);
            let want = (0..len).map(|i| bit(i) ^ rows.contains(&(i as u32)));
            assert_eq!(got, PackedBits::from_bools(want), "{len} rows");
        }
    }

    /// A sink hands its frame out once every range of its latest split
    /// was written, and is then the frame those rows spell.
    #[test]
    fn a_sink_finishes_only_when_every_row_was_written() {
        let rows: Vec<Option<f64>> = (0..100)
            .map(|i| (i % 7 != 3).then_some(i as f64 - 50.0))
            .collect();
        let want = DistanceFrame::from_options(&rows);
        let ranges = [(0, 40), (40, 33), (73, 27)];
        let write = |sink: &mut FrameSink, which: &[usize]| {
            for (r, range) in sink.split_ranges_mut(&ranges).into_iter().enumerate() {
                let (offset, len) = ranges[r];
                assert_eq!((range.len(), range.is_empty()), (len, false));
                if which.contains(&r) {
                    let rows = offset..offset + len;
                    range.write(
                        &want.values()[rows.clone()],
                        &want.validity().as_slice()[rows],
                    );
                }
            }
        };
        let mut sink = FrameSink::new(100);
        write(&mut sink, &[0, 2]);
        assert!(sink.finish().is_none(), "a range left unwritten");
        // rows written through an earlier split do not count
        let mut sink = FrameSink::new(100);
        write(&mut sink, &[0, 1]);
        write(&mut sink, &[2]);
        assert!(sink.finish().is_none(), "only the latest split counts");
        let mut sink = FrameSink::new(100);
        write(&mut sink, &[2, 0, 1]);
        assert!(sink.finish().expect("every row written").bits_eq(&want));
        assert!(FrameSink::new(0).finish().expect("no rows").is_empty());
    }
}
