//! Column sketches: one order-preserving byte per row.
//!
//! A comparison `x ≥ t` / `x ≤ t` over a numeric column reads 8 B/row,
//! and at the memory bandwidth no kernel or thread makes that pass
//! cheaper; it has to read fewer bytes. A [`ColumnSketch`] (Hentschel,
//! Kester, Idreos, "Column Sketches", SIGMOD 2018) keeps one byte code
//! per row, `code(x) = #{bounds ≤ x}` over at most [`MAX_BOUNDS`]
//! ascending bounds. `code` is monotone for *any* bounds, so
//! `code(x) > code(t)` implies `x > t` and `code(x) < code(t)` implies
//! `x < t`: a scan reads the codes and touches the column only for the
//! rows that share the threshold's code. Correctness never depends on
//! the bounds; bounds that fit the data badly only cost time.
//!
//! The bounds are equi-depth over a sample of one value from every
//! ⌈n / 16 384⌉ rows, so each code holds about 1/256 of the rows, and a
//! value that fills more than one quantile (the zeros of a night-time
//! radiation column) gets a code of its own: a bound at it and one just
//! above it. A sketch covers a native `F64` / `I64` column with no NULL,
//! NaN or ±inf row, and keeps a zone map — the `(min, max)` of every
//! [`CHUNK_ROWS`]-row chunk — from which a scan derives a chunk's
//! distance stats without reading it. Building one is O(n); an append
//! (`Table::append_rows`) extends it in O(Δ) under the same bounds.

use crate::column::{ColumnData, NumericSlice};

/// Rows per zone-map entry: the relevance pipeline's chunk size (its
/// `chunk::CHUNK_ROWS` is this constant), so a walk's range has its
/// extremes in one entry.
pub const CHUNK_ROWS: usize = 16_384;

/// Most bounds a sketch keeps: codes `0..=255` fit a byte.
pub const MAX_BOUNDS: usize = 255;

/// Values the bounds are drawn from: one of every ⌈n / `SAMPLE_ROWS`⌉
/// rows. 64 samples a code keep a code's share within ≈ 12 % of 1/256,
/// and sorting them takes ≈ 0.2–0.7 ms where 65 536 took ≈ 1.4–3.4 ms —
/// most of a 50 k-row build (one core of a 2-vCPU x86_64 box).
const SAMPLE_ROWS: usize = 16_384;

/// The byte sketch of one numeric column (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSketch {
    /// Strictly ascending, at most [`MAX_BOUNDS`].
    bounds: Vec<f64>,
    /// `code(x)` of every row.
    codes: Vec<u8>,
    /// `(min, max)` of every [`CHUNK_ROWS`]-row chunk, the last one
    /// shorter.
    zones: Vec<(f64, f64)>,
    /// Rows per code: a function of the column alone, so a scan finds
    /// the bucket that holds its `k`-th nearest row in 256 steps.
    counts: [usize; 256],
}

impl ColumnSketch {
    /// The sketch of a whole column: `None` unless it has a native
    /// `F64` / `I64` buffer, at least one row and no NULL, NaN or ±inf.
    pub fn build(col: &ColumnData) -> Option<ColumnSketch> {
        let (slice, mask) = col.numeric_slice()?;
        if col.is_empty() || mask.is_some_and(|m| m.contains(&false)) {
            return None;
        }
        match slice {
            NumericSlice::F64(xs) => Self::build_from(xs, |x| x),
            NumericSlice::I64(xs) => Self::build_from(xs, |x| x as f64),
        }
    }

    fn build_from<T: Copy>(xs: &[T], widen: impl Fn(T) -> f64 + Copy) -> Option<ColumnSketch> {
        // one row of every `step`, at a pseudo-random place among them,
        // so that a period in the data (hours of a day) cannot alias it
        let step = xs.len().div_ceil(SAMPLE_ROWS);
        let mut sample: Vec<f64> = (xs.chunks(step).enumerate())
            .map(|(j, rows)| widen(rows[mix(j) as usize % rows.len()]))
            .collect();
        sample.sort_unstable_by(f64::total_cmp);
        let quantiles: Vec<f64> = (1..=MAX_BOUNDS)
            .map(|j| sample[j * sample.len() / (MAX_BOUNDS + 1)])
            .collect();
        // a value on two quantiles freed a bound for the one just above
        // it, so its rows, and only they, share a code
        let popular = (quantiles.windows(2))
            .filter(|w| w[0] == w[1])
            .map(|w| w[0].next_up())
            .filter(|up| up.is_finite());
        let mut bounds: Vec<f64> = quantiles.iter().copied().chain(popular).collect();
        bounds.sort_unstable_by(f64::total_cmp);
        // `-0.0` and `0.0` are one bound: `≤` does not tell them apart
        bounds.dedup_by(|later, earlier| later == earlier);
        // each value on `r` quantiles added at most one bound for its
        // `r - 1` duplicates, and the codes must fit a byte
        assert!(bounds.len() <= MAX_BOUNDS, "more bounds than codes");
        let mut sketch = ColumnSketch {
            bounds,
            codes: Vec::with_capacity(xs.len()),
            zones: Vec::with_capacity(xs.len().div_ceil(CHUNK_ROWS)),
            counts: [0; 256],
        };
        sketch.extend_from(xs, widen).then_some(sketch)
    }

    /// Extend the sketch to every row of `col`, the column it was built
    /// from after an append: the same bounds, one new code per appended
    /// row, and the zone map redone from the chunk the old last row was
    /// in. `false` when an appended row is NULL, NaN or ±inf — the
    /// column can have no sketch any more, and this one is left
    /// half-extended for the caller to drop.
    pub(crate) fn extend(&mut self, col: &ColumnData) -> bool {
        let Some((slice, mask)) = col.numeric_slice() else {
            return false;
        };
        if mask.is_some_and(|m| m[self.codes.len()..].contains(&false)) {
            return false;
        }
        match slice {
            NumericSlice::F64(xs) => self.extend_from(xs, |x| x),
            NumericSlice::I64(xs) => self.extend_from(xs, |x| x as f64),
        }
    }

    /// Code, count and zone the rows of `xs` past the ones already coded.
    fn extend_from<T: Copy>(&mut self, xs: &[T], widen: impl Fn(T) -> f64 + Copy) -> bool {
        let from = self.codes.len();
        debug_assert!(xs.len() >= from, "a column only grows");
        if xs[from..].iter().any(|&x| !widen(x).is_finite()) {
            return false;
        }
        let coder = Coder::new(&self.bounds);
        (self.codes).extend(xs[from..].iter().map(|&x| coder.code(widen(x))));
        for &c in &self.codes[from..] {
            self.counts[usize::from(c)] += 1;
        }
        let first = from / CHUNK_ROWS;
        self.zones.truncate(first);
        for chunk in xs[first * CHUNK_ROWS..].chunks(CHUNK_ROWS) {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for x in chunk.iter().map(|&x| widen(x)) {
                (lo, hi) = (lo.min(x), hi.max(x));
            }
            self.zones.push((lo, hi));
        }
        true
    }

    /// Rows covered.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the sketch covers no row.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The bounds, strictly ascending.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// One code per row: `#{bounds ≤ x}`.
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// `(min, max)` per [`CHUNK_ROWS`]-row chunk.
    pub fn zones(&self) -> &[(f64, f64)] {
        &self.zones
    }

    /// Rows per code: entry `c` counts the rows whose code is `c`.
    pub fn counts(&self) -> &[usize; 256] {
        &self.counts
    }
}

/// A splitmix64 step: the sample's offsets.
fn mix(i: usize) -> u64 {
    let mut z = (i as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `#{bounds ≤ x}` without a branch per step: the bounds padded with
/// `+inf` to 255 entries, searched in eight halving steps.
struct Coder([f64; 256]);

impl Coder {
    fn new(bounds: &[f64]) -> Self {
        let mut table = [f64::INFINITY; 256];
        table[..bounds.len()].copy_from_slice(bounds);
        Coder(table)
    }

    #[inline]
    fn code(&self, x: f64) -> u8 {
        let mut at = 0;
        for step in [128, 64, 32, 16, 8, 4, 2, 1] {
            at += usize::from(self.0[at + step - 1] <= x) * step;
        }
        at as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use visdb_types::{DataType, Value};

    /// The code of a value by definition: `#{bounds ≤ x}`.
    fn code(sketch: &ColumnSketch, x: f64) -> u8 {
        sketch.bounds().partition_point(|&b| b <= x) as u8
    }

    fn float_column(xs: impl IntoIterator<Item = f64>) -> ColumnData {
        let mut c = ColumnData::new(DataType::Float);
        for x in xs {
            c.push(Value::Float(x)).unwrap();
        }
        c
    }

    /// The codes are `#{bounds ≤ x}` and the zones the chunks' extremes,
    /// at every chunk boundary of a sampled column.
    fn assert_consistent(sketch: &ColumnSketch, xs: &[f64]) {
        assert_eq!(sketch.len(), xs.len());
        assert!(sketch.bounds().len() <= MAX_BOUNDS);
        assert!(sketch.bounds().windows(2).all(|w| w[0] < w[1]));
        for (&x, &c) in xs.iter().zip(sketch.codes()) {
            assert_eq!(c, code(sketch, x), "x = {x}");
        }
        let zones: Vec<(f64, f64)> = (xs.chunks(CHUNK_ROWS))
            .map(|c| {
                let lo = c.iter().copied().fold(f64::INFINITY, f64::min);
                (lo, c.iter().copied().fold(f64::NEG_INFINITY, f64::max))
            })
            .collect();
        assert_eq!(sketch.zones(), &zones[..]);
        assert_counted(sketch);
    }

    /// The per-code counts are a brute-force count of the codes.
    fn assert_counted(sketch: &ColumnSketch) {
        let mut counts = [0usize; 256];
        sketch.codes().iter().for_each(|&c| counts[c as usize] += 1);
        assert_eq!(sketch.counts(), &counts);
    }

    #[test]
    fn codes_are_monotone_and_equi_depth() {
        let xs: Vec<f64> = (0..100_000)
            .map(|i| ((i * 7_919) % 100_000) as f64)
            .collect();
        let sketch = ColumnSketch::build(&float_column(xs.iter().copied())).unwrap();
        assert_consistent(&sketch, &xs);
        assert_eq!(sketch.bounds().len(), MAX_BOUNDS);
        // every code holds about 1/256 of the rows
        let counts = sketch.counts();
        assert!(
            counts.iter().all(|&c| (200..600).contains(&c)),
            "{counts:?}"
        );
    }

    #[test]
    fn duplicates_and_signed_zeros_share_a_bound() {
        // half the rows 0.0 or -0.0: one bound for both, one code
        let xs: Vec<f64> = (0..40_000)
            .map(|i| match i % 4 {
                0 => 0.0,
                1 => -0.0,
                _ => i as f64,
            })
            .collect();
        let sketch = ColumnSketch::build(&float_column(xs.iter().copied())).unwrap();
        assert_consistent(&sketch, &xs);
        assert_eq!(code(&sketch, -0.0), code(&sketch, 0.0));
        assert!(sketch.bounds().len() < MAX_BOUNDS);
        // the zeros have a code of their own
        let zero = code(&sketch, 0.0) as usize;
        assert_eq!(sketch.bounds()[zero], sketch.bounds()[zero - 1].next_up());
        let single = ColumnSketch::build(&float_column([3.5; 100])).unwrap();
        assert_eq!(single.bounds(), &[3.5, 3.5f64.next_up()]);
        assert!(single.codes().iter().all(|&c| c == 1));
    }

    #[test]
    fn only_finite_native_columns_without_nulls_are_sketched() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(ColumnSketch::build(&float_column([1.0, bad, 2.0])).is_none());
        }
        let mut nulls = float_column([1.0, 2.0]);
        nulls.push(Value::Null).unwrap();
        assert!(ColumnSketch::build(&nulls).is_none());
        assert!(ColumnSketch::build(&float_column([])).is_none());
        assert!(ColumnSketch::build(&ColumnData::new(DataType::Str)).is_none());
        assert!(ColumnSketch::build(&ColumnData::new(DataType::Bool)).is_none());
        let mut ints = ColumnData::new(DataType::Int);
        for i in [i64::MIN, -1, 0, 1 << 60, i64::MAX] {
            ints.push(Value::Int(i)).unwrap();
        }
        let sketch = ColumnSketch::build(&ints).unwrap();
        assert_eq!(sketch.zones(), &[(i64::MIN as f64, i64::MAX as f64)]);
    }

    #[test]
    fn an_extension_keeps_the_bounds_and_equals_its_codes_and_zones() {
        let mut xs: Vec<f64> = (0..40_000).map(|i| ((i * 31) % 997) as f64).collect();
        let mut col = float_column(xs.iter().copied());
        let mut sketch = ColumnSketch::build(&col).unwrap();
        let bounds = sketch.bounds().to_vec();
        // past the old maximum, not word- or chunk-aligned
        for delta in [
            vec![5_000.0, -3.0, 12.5],
            (0..9_000).map(f64::from).collect(),
        ] {
            for &x in &delta {
                col.push(Value::Float(x)).unwrap();
            }
            xs.extend(delta);
            assert!(sketch.extend(&col));
            assert_eq!(sketch.bounds(), &bounds[..]);
            assert_consistent(&sketch, &xs);
        }
        // an extension that fails leaves the codes and their counts as
        // they were: a NULL row, then a NaN one
        let before = sketch.clone();
        col.push(Value::Null).unwrap();
        assert!(!sketch.extend(&col));
        assert_counted(&sketch);
        assert_eq!(sketch, before);
        let mut nan = float_column(xs.iter().copied());
        nan.push(Value::Float(f64::NAN)).unwrap();
        assert!(!sketch.extend(&nan));
        assert_counted(&sketch);
        assert_eq!(sketch, before);
    }
}
