//! Vectorized (columnar) numeric distance kernels.
//!
//! The paper's efficiency claim (§3) budgets one `O(n)` distance pass per
//! selection predicate. The per-tuple evaluation path pays far more than
//! the constant factor that claim assumed: every row materialises a
//! `Value`, re-dispatches on the column's enum representation and
//! re-matches the comparison operator. The kernels here hoist all of that
//! out of the loop — the operator and target are resolved once, the input
//! is a native `&[f64]` / `&[i64]` borrowed straight from
//! `visdb_storage::ColumnData`, and NULLs come in as an optional `&[bool]`
//! validity bitmap — so the inner loop is a branch-predictable walk over a
//! contiguous buffer.
//!
//! Every kernel delegates the per-element arithmetic to the scalar
//! functions in [`crate::numeric`], which makes the results **bit
//! identical** to the per-tuple path by construction (the relevance layer
//! property-tests this end to end).
//!
//! [`compare_pack`] is the one kernel that writes no distances. A window
//! whose exact answers already cover its fit count keeps only its stats
//! and its `(exact, defined)` bits (§5.1: "none or very many"), and for
//! `x ≥ t` / `x ≤ t` those follow from one compare-and-pack pass over the
//! column: two bits per row and the chunk's extremes, exact by the
//! monotonicity of `fl(x − t)`. Its unit tests hold it to [`run_frame`]
//! followed by [`PackedBits::fold_exact`].
//!
//! [`sketch_pack`] returns the same chunk from a byte sketch of the
//! column (`visdb_storage::ColumnSketch`): one order-preserving code per
//! row decides every row whose code differs from the threshold's, so the
//! column is read only in the threshold's bucket, and the chunk's zone
//! (its min and max) gives the stats.

use crate::frame::{FrameStats, PackedBits, PackedChunk};
use crate::numeric;

/// A native numeric element the kernels can iterate directly.
///
/// The `to_f64` projection matches `ColumnData::get_f64` for the
/// corresponding column types (floats pass through, integers and
/// timestamps widen).
pub trait NativeNumeric: Copy + Send + Sync {
    /// Widen to the `f64` domain the distance functions operate in.
    fn to_f64(self) -> f64;
}

impl NativeNumeric for f64 {
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
}

impl NativeNumeric for i64 {
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
}

/// Which comparison a [`NumericKernel::Compare`] evaluates. `>` / `>=`
/// and `<` / `<=` collapse to one kernel each, exactly like the scalar
/// path (see [`numeric::greater_than`] on why strictness is not
/// distance-relevant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareKernel {
    /// `column > target` / `column >= target`.
    Greater,
    /// `column < target` / `column <= target`.
    Less,
    /// `column = target`.
    Equal,
    /// `column <> target`.
    NotEqual,
}

/// One predicate's worth of per-row work, fully resolved before the loop.
///
/// A `Compare` with a `None` target (NULL or non-numeric literal) yields
/// undefined distances everywhere, matching the scalar path's behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NumericKernel {
    /// `column <op> target`.
    Compare(CompareKernel, Option<f64>),
    /// `column BETWEEN low AND high` (inclusive).
    InRange(f64, f64),
    /// `column AROUND center ± deviation` (the §4.3 slider form).
    Around(f64, f64),
}

/// Fill `out[i]` with `f(xs[i])` for valid rows, `None` for NULL rows.
/// The no-NULLs case gets its own loop so fully-populated columns skip
/// the bitmap lookup entirely.
#[inline]
fn fill<T: NativeNumeric>(
    xs: &[T],
    validity: Option<&[bool]>,
    out: &mut [Option<f64>],
    f: impl Fn(f64) -> Option<f64>,
) {
    debug_assert_eq!(xs.len(), out.len());
    match validity {
        None => {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = f(x.to_f64());
            }
        }
        Some(mask) => {
            debug_assert_eq!(mask.len(), out.len());
            for ((o, &x), &valid) in out.iter_mut().zip(xs).zip(mask) {
                *o = if valid { f(x.to_f64()) } else { None };
            }
        }
    }
}

/// Run one kernel over a column slice, writing one distance per row.
///
/// `xs`, `validity` and `out` must cover the same rows — callers slice
/// all three identically when walking a column in chunks.
pub fn run<T: NativeNumeric>(
    xs: &[T],
    validity: Option<&[bool]>,
    kernel: NumericKernel,
    out: &mut [Option<f64>],
) {
    match kernel {
        NumericKernel::Compare(_, None) => out.fill(None),
        NumericKernel::Compare(CompareKernel::Greater, Some(t)) => {
            fill(xs, validity, out, |x| numeric::greater_than(x, t))
        }
        NumericKernel::Compare(CompareKernel::Less, Some(t)) => {
            fill(xs, validity, out, |x| numeric::less_than(x, t))
        }
        NumericKernel::Compare(CompareKernel::Equal, Some(t)) => {
            fill(xs, validity, out, |x| numeric::equal_to(x, t))
        }
        NumericKernel::Compare(CompareKernel::NotEqual, Some(t)) => {
            fill(xs, validity, out, |x| numeric::not_equal_to(x, t))
        }
        NumericKernel::InRange(low, high) => {
            fill(xs, validity, out, |x| numeric::in_range(x, low, high))
        }
        NumericKernel::Around(center, deviation) => {
            fill(xs, validity, out, |x| numeric::around(x, center, deviation))
        }
    }
}

/// The packed-frame sibling of [`fill`]: write values and validity into
/// the two SoA buffers of a `DistanceFrame` chunk and accumulate the
/// per-predicate reduction stats for the same walk. Undefined rows get a
/// canonical `0.0` value and a cleared mask bit.
///
/// The store loop is branchless — `vals[i] = d.unwrap_or(0.0)` and
/// `mask[i] = d.is_some()` are unconditional moves, so the only branches
/// left in the walk are the ones inside the scalar distance function
/// itself. The stats reduction then runs as the 4-lane
/// [`FrameStats::of_slice`] kernel over the buffers the store just
/// filled (still warm in cache) instead of a data-dependent
/// [`FrameStats::record`] per defined row; both restructurings are
/// exact, so results and stats stay bit-identical to the per-tuple path.
#[inline]
fn fill_frame<T: NativeNumeric>(
    xs: &[T],
    validity: Option<&[bool]>,
    vals: &mut [f64],
    mask: &mut [bool],
    f: impl Fn(f64) -> Option<f64>,
) -> FrameStats {
    debug_assert_eq!(xs.len(), vals.len());
    debug_assert_eq!(xs.len(), mask.len());
    match validity {
        None => {
            for ((v, m), &x) in vals.iter_mut().zip(mask.iter_mut()).zip(xs) {
                let d = f(x.to_f64());
                *v = d.unwrap_or(0.0);
                *m = d.is_some();
            }
        }
        Some(in_mask) => {
            debug_assert_eq!(in_mask.len(), vals.len());
            for (((v, m), &x), &valid) in vals.iter_mut().zip(mask.iter_mut()).zip(xs).zip(in_mask)
            {
                let d = if valid { f(x.to_f64()) } else { None };
                *v = d.unwrap_or(0.0);
                *m = d.is_some();
            }
        }
    }
    FrameStats::of_slice(vals, mask)
}

/// [`run`] over a packed `DistanceFrame` chunk: one pass writes the
/// 8-byte value buffer, the byte validity mask **and** the reduction
/// stats the normalization fit needs — the distance pass, the stats
/// pass and the `Option` re-collect of the old representation, fused.
/// The per-element arithmetic still delegates to [`crate::numeric`], so
/// results stay bit-identical to the per-tuple path.
pub fn run_frame<T: NativeNumeric>(
    xs: &[T],
    validity: Option<&[bool]>,
    kernel: NumericKernel,
    vals: &mut [f64],
    mask: &mut [bool],
) -> FrameStats {
    match kernel {
        NumericKernel::Compare(_, None) => {
            vals.fill(0.0);
            mask.fill(false);
            FrameStats::default()
        }
        NumericKernel::Compare(CompareKernel::Greater, Some(t)) => {
            fill_frame(xs, validity, vals, mask, |x| numeric::greater_than(x, t))
        }
        NumericKernel::Compare(CompareKernel::Less, Some(t)) => {
            fill_frame(xs, validity, vals, mask, |x| numeric::less_than(x, t))
        }
        NumericKernel::Compare(CompareKernel::Equal, Some(t)) => {
            fill_frame(xs, validity, vals, mask, |x| numeric::equal_to(x, t))
        }
        NumericKernel::Compare(CompareKernel::NotEqual, Some(t)) => {
            fill_frame(xs, validity, vals, mask, |x| numeric::not_equal_to(x, t))
        }
        NumericKernel::InRange(low, high) => fill_frame(xs, validity, vals, mask, |x| {
            numeric::in_range(x, low, high)
        }),
        NumericKernel::Around(center, deviation) => fill_frame(xs, validity, vals, mask, |x| {
            numeric::around(x, center, deviation)
        }),
    }
}

/// The compare-and-pack pass of an `x ≥ t` / `x ≤ t` chunk with a finite
/// `t`: its stats and `(exact, defined)` bits read straight off the
/// column, the [`PackedChunk`] that [`run_frame`] followed by
/// [`PackedBits::fold_exact`] derives from the chunk's 9 B/row frame —
/// with no frame written. One pass packs the exact bits
/// (`valid & x ≥ t`) and the defined bits (`valid & !x.is_nan()`), two
/// more keep the min and the max of `x` in eight lanes each, and the
/// stats follow from the popcounts and the two extremes (the chunk is
/// still in cache). That is exact because `fl(x − t)` is
/// monotone in `x` and nonzero whenever `x ≠ t`: the largest `|d|` is the
/// far extreme's, and with no exact answer the smallest is the near
/// extreme's. `None` when the kernel is any other, or when the chunk's
/// extremes or its largest `|d|` are not finite (±inf values, no defined
/// row, an overflowing difference) — the generic walk serves those.
pub fn compare_pack<T: NativeNumeric>(
    xs: &[T],
    validity: Option<&[bool]>,
    kernel: NumericKernel,
) -> Option<PackedChunk> {
    match kernel {
        NumericKernel::Compare(CompareKernel::Greater, Some(t)) if t.is_finite() => {
            pack_compare::<T, true>(xs, validity, t)
        }
        NumericKernel::Compare(CompareKernel::Less, Some(t)) if t.is_finite() => {
            pack_compare::<T, false>(xs, validity, t)
        }
        _ => None,
    }
}

fn pack_compare<T: NativeNumeric, const GREATER: bool>(
    xs: &[T],
    validity: Option<&[bool]>,
    t: f64,
) -> Option<PackedChunk> {
    use crate::lanes::WORD_ROWS;
    let len = xs.len();
    debug_assert!(validity.is_none_or(|m| m.len() == len));
    let hit = |x: f64| if GREATER { x >= t } else { x <= t };
    let mut exact = Vec::with_capacity(len.div_ceil(64));
    let mut defined = Vec::with_capacity(len.div_ceil(64));
    for (w, x64) in xs.chunks(64).enumerate() {
        // one bit per row, a byte per 8-row block (the shape the compares
        // vectorize to), NULL rows cleared by the validity word after
        let blocks = x64.len() / WORD_ROWS * WORD_ROWS;
        let (mut e, mut d) = (0u64, 0u64);
        for (b, x8) in x64[..blocks].chunks_exact(WORD_ROWS).enumerate() {
            let (mut e8, mut d8) = (0u8, 0u8);
            for (l, x) in x8.iter().enumerate() {
                e8 |= u8::from(hit(x.to_f64())) << l;
            }
            for (l, x) in x8.iter().enumerate() {
                d8 |= u8::from(!x.to_f64().is_nan()) << l;
            }
            e |= u64::from(e8) << (WORD_ROWS * b);
            d |= u64::from(d8) << (WORD_ROWS * b);
        }
        for (l, x) in x64.iter().enumerate().skip(blocks) {
            e |= u64::from(hit(x.to_f64())) << l;
            d |= u64::from(!x.to_f64().is_nan()) << l;
        }
        if let Some(mask) = validity {
            let valid = valid_word(&mask[w * 64..w * 64 + x64.len()]);
            (e, d) = (e & valid, d & valid);
        }
        exact.push(e);
        defined.push(d);
    }
    let (lo, hi) = (
        extreme::<T, true>(xs, validity),
        extreme::<T, false>(xs, validity),
    );
    if !(lo.is_finite() && hi.is_finite()) {
        return None;
    }
    let (exact, defined) = (
        PackedBits::from_words(exact, len),
        PackedBits::from_words(defined, len),
    );
    let (zeros, count) = (exact.count_ones(), defined.count_ones());
    // every inexact row lies beyond every exact one: the far extreme is
    // inexact unless all are exact, the near one when none is
    let (near, far) = if GREATER { (hi, lo) } else { (lo, hi) };
    let max_abs = if zeros == count { 0.0 } else { (far - t).abs() };
    let min_abs = if zeros > 0 { 0.0 } else { (near - t).abs() };
    let stats = FrameStats {
        defined: count,
        min_abs,
        max_abs,
        non_finite: 0,
        zeros,
    };
    max_abs.is_finite().then_some((stats, exact, defined))
}

/// [`compare_pack`] served by a byte sketch of a column with no NULL,
/// NaN or ±inf row: the same stats and bits, the column read only where
/// the code cannot decide. `codes` are the chunk's rows' codes
/// `#{bounds ≤ x}` over strictly ascending `bounds`, and `zone` is the
/// chunk's `(min, max)`. Because a code is monotone in `x`, a row whose
/// code lies past the threshold's is exact and one short of it is not;
/// only a row whose code equals the threshold's is compared. A chunk
/// wholly on one side of `t` reads neither codes nor column. The stats
/// follow from the popcount and the zone exactly as [`compare_pack`]
/// derives them from its extremes, and it declines where that does (any
/// other kernel, no row, a non-finite largest `|d|`).
pub fn sketch_pack<T: NativeNumeric>(
    xs: &[T],
    codes: &[u8],
    bounds: &[f64],
    zone: (f64, f64),
    kernel: NumericKernel,
) -> Option<PackedChunk> {
    match kernel {
        NumericKernel::Compare(CompareKernel::Greater, Some(t)) if t.is_finite() => {
            pack_sketch::<T, true>(xs, codes, bounds, zone, t)
        }
        NumericKernel::Compare(CompareKernel::Less, Some(t)) if t.is_finite() => {
            pack_sketch::<T, false>(xs, codes, bounds, zone, t)
        }
        _ => None,
    }
}

fn pack_sketch<T: NativeNumeric, const GREATER: bool>(
    xs: &[T],
    codes: &[u8],
    bounds: &[f64],
    (lo, hi): (f64, f64),
    t: f64,
) -> Option<PackedChunk> {
    let len = xs.len();
    debug_assert_eq!(codes.len(), len);
    if len == 0 {
        return None;
    }
    let hit = |x: f64| if GREATER { x >= t } else { x <= t };
    let (all, none) = match GREATER {
        true => (lo >= t, hi < t),
        false => (hi <= t, lo > t),
    };
    let exact = if all || none {
        PackedBits::filled(len, all)
    } else {
        let at = bounds.partition_point(|&b| b <= t);
        // a bucket `[v, next_up(v))` holds `v` alone: one compare
        // decides all its rows
        let single = (1..bounds.len())
            .contains(&at)
            .then(|| bounds[at - 1])
            .filter(|&v| bounds[at] == v.next_up());
        // the codes first, then the threshold's bucket — the only rows
        // read — in a tight loop whose scattered loads overlap
        let (mut words, ties): (Vec<u64>, Vec<u64>) = (codes.chunks(64))
            .map(|c64| code_words::<GREATER>(c64, at as u8))
            .unzip();
        for ((e, mut tie), x64) in words.iter_mut().zip(ties).zip(xs.chunks(64)) {
            if let Some(v) = single {
                *e |= if hit(v) { tie } else { 0 };
                continue;
            }
            while tie != 0 {
                let l = tie.trailing_zeros() as usize;
                *e |= u64::from(hit(x64[l].to_f64())) << l;
                tie &= tie - 1;
            }
        }
        PackedBits::from_words(words, len)
    };
    let zeros = exact.count_ones();
    let (near, far) = if GREATER { (hi, lo) } else { (lo, hi) };
    let max_abs = if zeros == len { 0.0 } else { (far - t).abs() };
    let min_abs = if zeros > 0 { 0.0 } else { (near - t).abs() };
    let stats = FrameStats {
        defined: len,
        min_abs,
        max_abs,
        non_finite: 0,
        zeros,
    };
    max_abs
        .is_finite()
        .then(|| (stats, exact, PackedBits::filled(len, true)))
}

/// Up to 64 codes as two words: the rows past the threshold's code `at`
/// (above it for `GREATER`, below it otherwise) and the rows on it. A
/// full word's compares fill two 64-byte arrays (the shape they
/// vectorize to), folded to bits eight bytes at a time; a chunk's last,
/// partial word is compared row by row. Public for the scans that gather
/// the rows of a span of codes (the OR of the two words is the rows at
/// or past `at`).
pub fn code_words<const GREATER: bool>(codes: &[u8], at: u8) -> (u64, u64) {
    use crate::lanes::{pack_word, WORD_ROWS};
    let past = |c: u8| if GREATER { c > at } else { c < at };
    let Ok(c64) = <&[u8; 64]>::try_from(codes) else {
        return (codes.iter().enumerate()).fold((0, 0), |(p, t), (l, &c)| {
            (p | u64::from(past(c)) << l, t | u64::from(c == at) << l)
        });
    };
    let word = |bytes: [u8; 64]| {
        (bytes.chunks_exact(WORD_ROWS).enumerate()).fold(0u64, |w, (b, b8)| {
            let b8 = u64::from_le_bytes(b8.try_into().expect("eight codes"));
            w | u64::from(pack_word(b8)) << (WORD_ROWS * b)
        })
    };
    (
        word(std::array::from_fn(|l| u8::from(past(c64[l])))),
        word(std::array::from_fn(|l| u8::from(c64[l] == at))),
    )
}

/// The validity bits of up to 64 mask bytes as one word.
fn valid_word(mask: &[bool]) -> u64 {
    use crate::lanes::{mask_word, pack_word, WORD_ROWS};
    let blocks = mask.len() / WORD_ROWS * WORD_ROWS;
    let mut word = 0u64;
    for (b, m8) in mask[..blocks].chunks_exact(WORD_ROWS).enumerate() {
        word |= u64::from(pack_word(mask_word(m8))) << (WORD_ROWS * b);
    }
    for (l, &valid) in mask.iter().enumerate().skip(blocks) {
        word |= u64::from(valid) << l;
    }
    word
}

/// The smallest (`MIN`) or largest value over the valid rows, `±inf`
/// when there is none, folded in eight independent lanes: NaN wins no
/// compare, and a NULL lane offers the neutral value.
fn extreme<T: NativeNumeric, const MIN: bool>(xs: &[T], validity: Option<&[bool]>) -> f64 {
    use crate::lanes::{select, WORD_ROWS};
    let neutral = if MIN {
        f64::INFINITY
    } else {
        f64::NEG_INFINITY
    };
    let wins = |x: f64, acc: f64| if MIN { x < acc } else { x > acc };
    let mut acc = [neutral; WORD_ROWS];
    let blocks = xs.len() / WORD_ROWS * WORD_ROWS;
    match validity {
        None => {
            for x8 in xs[..blocks].chunks_exact(WORD_ROWS) {
                for (a, x) in acc.iter_mut().zip(x8) {
                    let x = x.to_f64();
                    *a = select(wins(x, *a), x, *a);
                }
            }
        }
        Some(mask) => {
            let rows = xs[..blocks].chunks_exact(WORD_ROWS);
            for (x8, m8) in rows.zip(mask.chunks_exact(WORD_ROWS)) {
                for ((a, x), &valid) in acc.iter_mut().zip(x8).zip(m8) {
                    let x = select(valid, x.to_f64(), neutral);
                    *a = select(wins(x, *a), x, *a);
                }
            }
        }
    }
    let tail = (xs.iter().enumerate().skip(blocks))
        .filter(|&(i, _)| validity.is_none_or(|m| m[i]))
        .map(|(_, x)| x.to_f64());
    (acc.into_iter().chain(tail)).fold(neutral, |acc, x| select(wins(x, acc), x, acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DistanceFrame;
    use visdb_storage::{ColumnData, ColumnSketch};
    use visdb_types::{DataType, Value};

    fn run_f64(xs: &[f64], validity: Option<&[bool]>, k: NumericKernel) -> Vec<Option<f64>> {
        let mut out = vec![Some(f64::NAN); xs.len()];
        run(xs, validity, k, &mut out);
        out
    }

    #[test]
    fn compare_kernels_match_the_scalar_functions() {
        let xs = [10.0, 15.0, 20.0, f64::NAN];
        for (kernel, scalar) in [
            (
                CompareKernel::Greater,
                numeric::greater_than as fn(f64, f64) -> Option<f64>,
            ),
            (CompareKernel::Less, numeric::less_than),
            (CompareKernel::Equal, numeric::equal_to),
            (CompareKernel::NotEqual, numeric::not_equal_to),
        ] {
            let out = run_f64(&xs, None, NumericKernel::Compare(kernel, Some(15.0)));
            let expect: Vec<Option<f64>> = xs.iter().map(|&x| scalar(x, 15.0)).collect();
            assert_eq!(out, expect, "{kernel:?}");
        }
    }

    #[test]
    fn validity_masks_nulls() {
        let xs = [1.0, 2.0, 3.0];
        let mask = [true, false, true];
        let out = run_f64(
            &xs,
            Some(&mask),
            NumericKernel::Compare(CompareKernel::Greater, Some(2.5)),
        );
        assert_eq!(out, vec![Some(-1.5), None, Some(0.0)]);
    }

    #[test]
    fn missing_target_is_undefined_everywhere() {
        let xs = [1.0, 2.0];
        let out = run_f64(
            &xs,
            None,
            NumericKernel::Compare(CompareKernel::Equal, None),
        );
        assert_eq!(out, vec![None, None]);
    }

    #[test]
    fn int_columns_widen_like_get_f64() {
        let xs: [i64; 3] = [5, 10, 15];
        let mut out = vec![None; 3];
        run(&xs, None, NumericKernel::InRange(8.0, 12.0), &mut out);
        assert_eq!(out, vec![Some(-3.0), Some(0.0), Some(3.0)]);
    }

    #[test]
    fn around_kernel() {
        let xs = [6.5, 10.0, 13.0];
        let mut out = vec![None; 3];
        run(&xs, None, NumericKernel::Around(10.0, 2.0), &mut out);
        assert_eq!(out, vec![Some(-1.5), Some(0.0), Some(1.0)]);
    }

    /// What a compare-packed chunk must equal: the frame kernel's stats
    /// and the bits folded from the frame it wrote.
    fn packed_by_frame<T: NativeNumeric>(
        xs: &[T],
        validity: Option<&[bool]>,
        kernel: NumericKernel,
    ) -> PackedChunk {
        let (mut vals, mut mask) = (vec![0.0; xs.len()], vec![false; xs.len()]);
        let stats = run_frame(xs, validity, kernel, &mut vals, &mut mask);
        let (exact, defined) = PackedBits::fold_exact(&vals, &mask);
        (stats, exact, defined)
    }

    /// Stats with their floats as bits, so `-0.0` and `0.0` differ.
    fn stats_bits(s: &FrameStats) -> (usize, u64, u64, usize, usize) {
        let (min, max) = (s.min_abs.to_bits(), s.max_abs.to_bits());
        (s.defined, min, max, s.non_finite, s.zeros)
    }

    /// One chunk under all four operators at threshold `t`: the two
    /// comparisons pack exactly what the frame route folds whenever some
    /// row is defined and every defined value and distance is finite, and
    /// decline otherwise; `=` and `<>` never pack.
    fn check_pack<T: NativeNumeric>(xs: &[T], validity: Option<&[bool]>, t: f64, what: &str) {
        let finite_values = (xs.iter().enumerate())
            .filter(|&(i, _)| validity.is_none_or(|m| m[i]))
            .all(|(_, x)| !x.to_f64().is_infinite());
        for op in [
            CompareKernel::Greater,
            CompareKernel::Less,
            CompareKernel::Equal,
            CompareKernel::NotEqual,
        ] {
            let what = format!("{what}, {op:?} {t}");
            let kernel = NumericKernel::Compare(op, Some(t));
            let (stats, exact, defined) = packed_by_frame(xs, validity, kernel);
            let packs = matches!(op, CompareKernel::Greater | CompareKernel::Less)
                && t.is_finite()
                && finite_values
                && stats.defined > 0
                && stats.non_finite == 0;
            match compare_pack(xs, validity, kernel) {
                Some((s, e, d)) => {
                    assert!(packs, "{what}: packed");
                    assert_eq!(stats_bits(&s), stats_bits(&stats), "{what}");
                    assert_eq!((e, d), (exact, defined), "{what}");
                }
                None => assert!(!packs, "{what}: declined"),
            }
        }
    }

    /// A splitmix64 step: deterministic test data without a generator.
    fn mix(i: usize, seed: u64) -> u64 {
        let mut z = (i as u64 ^ seed.rotate_left(17)).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn compare_pack_matches_the_frame_route_at_every_length() {
        // duplicates at the thresholds, both zeros, NaN; no infinities
        let pool = [-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 1.0, 2.0, 7.75, f64::NAN];
        let lengths = (0..=130).chain([CHUNK_LEN]);
        for (len, seed) in lengths.zip(1..) {
            let xs: Vec<f64> = (0..len).map(|i| pool[mix(i, seed) as usize % 10]).collect();
            let ints: Vec<i64> = (0..len).map(|i| mix(i, seed) as i64 % 9 - 4).collect();
            let mask: Vec<bool> = (0..len).map(|i| !mix(i, !seed).is_multiple_of(4)).collect();
            for validity in [None, Some(&mask[..])] {
                // on a value, at both zeros, below the min, above the max
                for t in [1.0, 0.0, -0.0, -10.0, 10.0, 0.5] {
                    check_pack(&xs, validity, t, &format!("f64 n = {len}"));
                    check_pack(&ints, validity, t, &format!("i64 n = {len}"));
                }
            }
        }
    }

    /// Rows past 8-row blocks and 64-row words, the all-NULL chunk and
    /// chunks whose rows are all or none exact.
    const CHUNK_LEN: usize = 16_384 + 37;

    #[test]
    fn compare_pack_reads_wide_integers_and_signed_zeros_like_the_frame_route() {
        // |x| > 2^53: both routes compare the rounded f64 widening
        let big = 1i64 << 53;
        let ints = [big + 1, big, big - 1, -big - 3, i64::MAX, i64::MIN, 0, 17];
        let wide = ints.map(|x| x as f64);
        for t in wide.iter().copied().chain([0.0, 1e19, -1e19]) {
            check_pack(&ints, None, t, "wide i64");
            check_pack(
                &ints,
                Some(&[true, false, true, true, true, false, true, true]),
                t,
                "wide i64, NULLs",
            );
        }
        // -0.0 and 0.0 are both exact at t = ±0 and tie as extremes
        let zeros = [-0.0, 0.0, -0.0, 0.0, -2.0, 3.0, -0.0, 0.0, 0.0];
        for t in [0.0, -0.0, -2.0, 3.0] {
            check_pack(&zeros, None, t, "signed zeros");
            check_pack(&zeros[..4], None, t, "only zeros");
        }
        // all rows NULL or NaN: nothing to pack
        let none = [f64::NAN; 9];
        assert!(compare_pack(
            &none,
            None,
            NumericKernel::Compare(CompareKernel::Greater, Some(0.0))
        )
        .is_none());
        check_pack(&[1.0; 9], Some(&[false; 9]), 0.0, "all NULL");
    }

    #[test]
    fn compare_pack_declines_infinities_and_overflow() {
        let greater = |t| NumericKernel::Compare(CompareKernel::Greater, Some(t));
        let less = |t| NumericKernel::Compare(CompareKernel::Less, Some(t));
        let mut xs = vec![1.0; 70];
        for (row, inf) in [(3, f64::INFINITY), (69, f64::NEG_INFINITY)] {
            xs[row] = inf;
            check_pack(&xs, None, 0.5, "one infinite row");
            assert!(compare_pack(&xs, None, greater(0.5)).is_none());
            // behind a NULL the infinity is not read
            let mask: Vec<bool> = (0..70).map(|i| i != row).collect();
            check_pack(&xs, Some(&mask), 0.5, "a NULL infinite row");
            assert!(compare_pack(&xs, Some(&mask), greater(0.5)).is_some());
            xs[row] = 1.0;
        }
        // finite values whose distance overflows to ±inf
        let xs = [-f64::MAX, 0.0, f64::MAX];
        assert!(compare_pack(&xs, None, greater(f64::MAX)).is_none());
        assert!(compare_pack(&xs, None, less(-f64::MAX)).is_none());
        check_pack(&xs, None, f64::MAX, "overflow");
        check_pack(&xs, None, -f64::MAX, "overflow");
        check_pack(&xs, None, 0.0, "max_abs = f64::MAX");
        // an infinite or NaN threshold never packs
        for t in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            check_pack(&[1.0, 2.0], None, t, "non-finite threshold");
        }
        assert!(compare_pack(
            &[1.0],
            None,
            NumericKernel::Compare(CompareKernel::Less, None)
        )
        .is_none());
        assert!(compare_pack(&[1.0], None, NumericKernel::InRange(0.0, 2.0)).is_none());
    }

    /// A column's byte sketch, built as a table builds it.
    fn sketch_of<T: NativeNumeric>(xs: &[T], value: impl Fn(T) -> Value) -> Option<ColumnSketch> {
        let mut col = ColumnData::new(DataType::Unknown);
        if let Some(&x) = xs.first() {
            col = ColumnData::new(value(x).data_type());
        }
        for &x in xs {
            col.push(value(x)).unwrap();
        }
        ColumnSketch::build(&col)
    }

    /// Every chunk of a sketched column under all four operators at
    /// threshold `t`: [`sketch_pack`] equals [`compare_pack`] in bits and
    /// stats and declines where it does, and the zone map holds the
    /// extremes compare-and-pack computes.
    fn check_sketch<T: NativeNumeric>(xs: &[T], sketch: &ColumnSketch, t: f64, what: &str) {
        use visdb_storage::sketch::CHUNK_ROWS;
        assert_eq!(sketch.len(), xs.len(), "{what}");
        for (c, x) in xs.chunks(CHUNK_ROWS).enumerate() {
            let zone = sketch.zones()[c];
            let extremes = (extreme::<T, true>(x, None), extreme::<T, false>(x, None));
            assert_eq!(zone, extremes, "{what}: zone {c}");
            let codes = &sketch.codes()[c * CHUNK_ROWS..c * CHUNK_ROWS + x.len()];
            for op in [
                CompareKernel::Greater,
                CompareKernel::Less,
                CompareKernel::Equal,
                CompareKernel::NotEqual,
            ] {
                let what = format!("{what}, chunk {c}, {op:?} {t}");
                let kernel = NumericKernel::Compare(op, Some(t));
                let by_sketch = sketch_pack(x, codes, sketch.bounds(), zone, kernel);
                match (compare_pack(x, None, kernel), by_sketch) {
                    (Some((s, e, d)), Some((ss, se, sd))) => {
                        assert_eq!(stats_bits(&ss), stats_bits(&s), "{what}");
                        assert_eq!((se, sd), (e, d), "{what}");
                    }
                    (None, None) => {}
                    (packed, sketched) => panic!(
                        "{what}: compare_pack {} but sketch_pack {}",
                        packed.is_some(),
                        sketched.is_some()
                    ),
                }
            }
        }
    }

    /// Thresholds at every kind of place: below the minimum, above the
    /// maximum, on each bound, inside each bucket, at both zeros.
    fn thresholds(xs: impl Iterator<Item = f64>, sketch: &ColumnSketch) -> Vec<f64> {
        let (lo, hi) = xs.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
            (lo.min(x), hi.max(x))
        });
        let bounds = sketch.bounds();
        let inside = bounds.windows(2).map(|w| w[0] + (w[1] - w[0]) / 3.0);
        let mut ts = vec![lo - 1.0, hi + 1.0, lo, hi, 0.0, -0.0];
        ts.extend(bounds.iter().copied().chain(inside).step_by(7));
        ts
    }

    #[test]
    fn sketch_pack_matches_compare_pack_at_every_length() {
        let pool = [-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 1.0, 2.0, 7.75, 40.0];
        let lengths = (1..=200).chain([16_384, 2 * 16_384 + 37]);
        for (len, seed) in lengths.zip(1..) {
            let spread = |i| mix(i, seed) as f64 / u64::MAX as f64 * 100.0 - 50.0;
            let xs: Vec<f64> = (0..len)
                .map(|i| match mix(i, !seed) % 3 {
                    0 => pool[mix(i, seed) as usize % pool.len()],
                    _ => spread(i),
                })
                .collect();
            let ints: Vec<i64> = (0..len)
                .map(|i| mix(i, seed) as i64 % 1_000 - 500)
                .collect();
            let sketch = sketch_of(&xs, Value::Float).unwrap();
            for t in thresholds(xs.iter().copied(), &sketch) {
                check_sketch(&xs, &sketch, t, &format!("f64 n = {len}"));
            }
            let sketch = sketch_of(&ints, Value::Int).unwrap();
            for t in thresholds(ints.iter().map(|&x| x as f64), &sketch) {
                check_sketch(&ints, &sketch, t, &format!("i64 n = {len}"));
            }
        }
    }

    #[test]
    fn sketch_pack_matches_on_popular_values_wide_integers_and_overflow() {
        // half the rows 0.0 (the Solar-Radiation shape: the zeros' code
        // is theirs alone), one value, and a sorted column (a bucket's
        // rows are contiguous)
        for xs in [
            (0..40_000)
                .map(|i| match i % 2 {
                    0 => 0.0,
                    _ => (i % 977) as f64 - 300.0,
                })
                .collect::<Vec<f64>>(),
            vec![2.5; 20_000],
            (0..40_000).map(|i| (i / 3) as f64).collect(),
        ] {
            let sketch = sketch_of(&xs, Value::Float).unwrap();
            for t in thresholds(xs.iter().copied(), &sketch)
                .into_iter()
                .chain([2.5, 0.5])
            {
                check_sketch(&xs, &sketch, t, "popular value");
            }
        }
        // -0.0 / 0.0 rows and thresholds
        let zeros: Vec<f64> = (0..300).map(|i| [-0.0, 0.0, -2.0, 3.0][i % 4]).collect();
        let sketch = sketch_of(&zeros, Value::Float).unwrap();
        for t in [0.0, -0.0, -2.0, 3.0, 1.0] {
            check_sketch(&zeros, &sketch, t, "signed zeros");
        }
        // |x| > 2^53: codes and compares read the rounded f64 widening
        let big = 1i64 << 53;
        let ints: Vec<i64> = (0..500)
            .map(|i| [big + 1, big, big - 1, -big - 3, i64::MAX, i64::MIN, 0, 17][i % 8])
            .collect();
        let sketch = sketch_of(&ints, Value::Int).unwrap();
        for t in ints[..8].iter().map(|&x| x as f64).chain([1e19, -1e19]) {
            check_sketch(&ints, &sketch, t, "wide i64");
        }
        // an overflowing |far - t|: both decline
        let xs = [-f64::MAX, 0.0, f64::MAX];
        let sketch = sketch_of(&xs, Value::Float).unwrap();
        for t in [f64::MAX, -f64::MAX, 0.0, 1.0] {
            check_sketch(&xs, &sketch, t, "overflow");
        }
        let greater = NumericKernel::Compare(CompareKernel::Greater, Some(f64::MAX));
        let (codes, bounds, zone) = (sketch.codes(), sketch.bounds(), sketch.zones()[0]);
        assert!(sketch_pack(&xs, codes, bounds, zone, greater).is_none());
        let in_range = NumericKernel::InRange(0.0, 1.0);
        assert!(sketch_pack(&xs, codes, bounds, zone, in_range).is_none());
    }

    /// The code-word kernel against its definition, for every code and
    /// threshold code, at every word length.
    #[test]
    fn code_words_mark_the_codes_past_and_on_the_threshold() {
        let codes: Vec<u8> = (0..64 * 9).map(|i| mix(i, 7) as u8).collect();
        for at in 0..=255u8 {
            for len in 1..=64 {
                let start = usize::from(at) % 64 * 8;
                let c = &codes[start..start + len];
                let word = |f: &dyn Fn(u8) -> bool| {
                    (c.iter().enumerate()).fold(0u64, |w, (l, &c)| w | u64::from(f(c)) << l)
                };
                let above = (word(&|c| c > at), word(&|c| c == at));
                let below = (word(&|c| c < at), above.1);
                assert_eq!(code_words::<true>(c, at), above, "> {at}, {len} codes");
                assert_eq!(code_words::<false>(c, at), below, "< {at}, {len} codes");
            }
        }
    }

    #[test]
    fn columns_with_nulls_nans_or_infinities_build_no_sketch() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(sketch_of(&[1.0, bad, 2.0], Value::Float).is_none());
        }
        let with_null = |x: f64| match x {
            0.0 => Value::Null,
            x => Value::Float(x),
        };
        assert!(sketch_of(&[1.0, 0.0, 2.0], with_null).is_none());
        assert!(sketch_of(&[1.0, 2.0], with_null).is_some());
    }

    #[test]
    fn frame_kernels_match_option_kernels_and_fuse_stats() {
        let xs = [10.0, 15.0, 20.0, f64::NAN, -3.0];
        let mask = [true, true, false, true, true];
        for kernel in [
            NumericKernel::Compare(CompareKernel::Greater, Some(14.0)),
            NumericKernel::Compare(CompareKernel::Less, Some(14.0)),
            NumericKernel::Compare(CompareKernel::Equal, Some(14.0)),
            NumericKernel::Compare(CompareKernel::NotEqual, Some(14.0)),
            NumericKernel::Compare(CompareKernel::Equal, None),
            NumericKernel::InRange(8.0, 12.0),
            NumericKernel::Around(10.0, 2.0),
        ] {
            for validity in [None, Some(&mask[..])] {
                let mut opts = vec![Some(f64::NAN); xs.len()];
                run(&xs, validity, kernel, &mut opts);
                let mut frame = DistanceFrame::undefined(xs.len());
                let (vals, valid) = frame.parts_mut();
                let stats = run_frame(&xs, validity, kernel, vals, valid);
                assert_eq!(frame, DistanceFrame::from_options(&opts), "{kernel:?}");
                assert_eq!(stats.defined, opts.iter().flatten().count());
                let finite: Vec<f64> = opts
                    .iter()
                    .flatten()
                    .map(|d| d.abs())
                    .filter(|d| d.is_finite())
                    .collect();
                let expect_max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let expect_min = finite.iter().copied().fold(f64::INFINITY, f64::min);
                assert_eq!(stats.max_abs, expect_max, "{kernel:?}");
                assert_eq!(stats.min_abs, expect_min, "{kernel:?}");
            }
        }
    }
}
