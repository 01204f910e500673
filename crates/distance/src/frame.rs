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

    /// Branchless stats reduction over packed buffers: four independent
    /// accumulator lanes (`f64x4`-shaped) with a scalar tail, lane masks
    /// driven by the validity bytes through [`lanes::select`] instead of
    /// a per-row `if defined` branch. Every lane op is a set operation
    /// (count, min, max) with a neutral element for masked lanes
    /// (`+inf` / `-inf`), so the result is exact and independent of lane
    /// assignment — bit-identical to the serial [`FrameStats::record`]
    /// reference, which the kernel property tests pin across lane
    /// remainders and NaN/±inf-dense inputs.
    pub fn of_slice(vals: &[f64], mask: &[bool]) -> FrameStats {
        use crate::lanes::{select, LANES};
        debug_assert_eq!(vals.len(), mask.len());
        let mut defined = [0usize; LANES];
        let mut non_finite = [0usize; LANES];
        let mut zeros = [0usize; LANES];
        let mut min_abs = [f64::INFINITY; LANES];
        let mut max_abs = [f64::NEG_INFINITY; LANES];
        let blocks = vals.len() / LANES * LANES;
        let (vblocks, vtail) = vals.split_at(blocks);
        let (mblocks, mtail) = mask.split_at(blocks);
        for (v4, m4) in vblocks.chunks_exact(LANES).zip(mblocks.chunks_exact(LANES)) {
            for l in 0..LANES {
                let ok = m4[l];
                let a = v4[l].abs();
                let finite = ok && a.is_finite();
                defined[l] += ok as usize;
                non_finite[l] += (ok && !a.is_finite()) as usize;
                zeros[l] += (ok && a == 0.0) as usize;
                min_abs[l] = min_abs[l].min(select(finite, a, f64::INFINITY));
                max_abs[l] = max_abs[l].max(select(finite, a, f64::NEG_INFINITY));
            }
        }
        let mut s = FrameStats {
            defined: defined.iter().sum(),
            min_abs: min_abs.iter().fold(f64::INFINITY, |m, &x| m.min(x)),
            max_abs: max_abs.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x)),
            non_finite: non_finite.iter().sum(),
            zeros: zeros.iter().sum(),
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
    /// `Vec<Option<f64>>` representation it replaced. A measurement
    /// helper (tests pin the packed layout with it); the serving
    /// layer's window cache budgets by *row count*, whose per-row cost
    /// this type roughly halves.
    pub fn heap_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<f64>()
            + self.validity.bits.capacity() * std::mem::size_of::<bool>()
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
}
