//! Combining normalized distances across predicates (§5.2).
//!
//! "we use e.g. the weighted arithmetic mean for 'AND'-connected condition
//! parts and the weighted geometric mean for 'OR'-connected condition
//! parts":
//!
//! * AND: `dᵢ = Σⱼ wⱼ · dᵢⱼ` — every unfulfilled predicate hurts, in
//!   proportion to its weight; the result is 0 only if *all* parts are 0.
//! * OR: `dᵢ = Πⱼ dᵢⱼ^wⱼ` — a single fulfilled part (distance 0) zeroes
//!   the product, exactly matching OR semantics; far misses multiply up.
//!
//! Undefined (`None`) children:
//! * under AND the item's combined distance is undefined (we cannot bound
//!   how bad the missing part is),
//! * under OR a missing part simply cannot help — it contributes the
//!   maximum normalized distance; only if *all* parts are undefined is
//!   the result undefined.
//!
//! Inputs are expected to be normalized to `[0, NORM_MAX]`
//! ([`crate::normalize`]); outputs are *not* re-normalized here — the
//! caller normalizes "before a calculated combined distance is used as a
//! parameter for combining other distances".

use std::sync::{Arc, OnceLock};

use visdb_distance::frame::{DistanceFrame, FrameStats, PackedBits, MAX_TABLE_CHILDREN};
use visdb_distance::lanes::{mask_word, select, unpack_word, ALL_VALID_WORD, WORD_ROWS};
use visdb_types::{Error, Result};

use crate::chunk;
use crate::normalize::{apply_one, NormParams, NORM_MAX};
use crate::pipeline::{RootAcc, RootLanes};
use crate::reference::or_row;
use crate::select::rank_order;

/// A branchless slice combiner: children as `(values, validity)` views,
/// weights, output values, output validity.
type SliceCombiner = fn(&[(&[f64], &[bool])], &[f64], &mut [f64], &mut [bool]);

/// Run a slice combiner over whole frames, with the 4-lane
/// [`FrameStats::of_slice`] reduction over the buffers it just wrote.
fn combine_frames(
    children: &[&DistanceFrame],
    weights: &[f64],
    kernel: SliceCombiner,
) -> Result<(DistanceFrame, FrameStats)> {
    if children.is_empty() {
        return Err(Error::invalid_query("combine of zero children"));
    }
    if children.len() != weights.len() {
        return Err(Error::Internal(format!(
            "{} children but {} weights",
            children.len(),
            weights.len()
        )));
    }
    let n = children[0].len();
    if children.iter().any(|c| c.len() != n) {
        return Err(Error::Internal("ragged child distance frames".into()));
    }
    let views: Vec<(&[f64], &[bool])> = children
        .iter()
        .map(|c| (c.values(), c.validity().as_slice()))
        .collect();
    let mut out = DistanceFrame::undefined(n);
    let (vals, mask) = out.parts_mut();
    kernel(&views, weights, vals, mask);
    let stats = FrameStats::of_slice(vals, mask);
    Ok((out, stats))
}

/// One child of a root combine: the input of [`combine_and_blocks`].
#[derive(Clone, Copy)]
pub(crate) enum Child<'a> {
    /// Distances as `(values, validity)`, normalized in registers under
    /// the window's fit — the §5.2 apply of
    /// [`crate::normalize::apply_slice`], nothing stored; `None`: the
    /// values are normalized already.
    Frame(&'a [f64], &'a [bool], Option<NormParams>),
    /// A two-valued window — a fit with `dmax = 0`, whose normalization
    /// is `select(exact, 0.0, 255.0)` ([`TWO_VALUED`]) — read from its
    /// packed `(exact, defined)` bits.
    Bits(&'a PackedBits, Option<&'a PackedBits>),
}

/// The normalization of one two-valued window, by exact bit.
pub(crate) const TWO_VALUED: [f64; 2] = [NORM_MAX, 0.0];

/// The values an `AND` of `k` two-valued children takes (the single
/// window at the root under `weights = None`), by exactness pattern:
/// entry `p` is the accumulate [`combine_and_blocks`] runs on a row whose
/// child `c` is exact iff bit `c` of `p` is set — the same `w · v` from
/// `0.0` in child order, so a table lookup is bit-identical to the walk.
pub(crate) fn pattern_sums(k: usize, weights: Option<&[f64]>) -> Vec<f64> {
    let sum_of = |p: usize| {
        (0..k).fold(0.0f64, |sum, c| {
            let d = TWO_VALUED[p >> c & 1];
            weights.map_or(d, |weights| sum + weights[c] * d)
        })
    };
    (0..1usize << k).map(sum_of).collect()
}

/// A window's packed `(exact, defined)` bits, shared by its clones and
/// folded by the first reader.
pub(crate) type SharedBits = Arc<OnceLock<(PackedBits, Option<PackedBits>)>>;

#[inline]
fn folded(bits: &SharedBits) -> (&PackedBits, Option<&PackedBits>) {
    let (exact, defined) = bits.get().expect("folded before the table was built");
    (exact, defined.as_ref())
}

/// The normalized combined distance per row (`[0, 255]`, undefined = not
/// colorable), read under the [`DistanceFrame`] rules whatever the form:
/// `get` / `iter` give the `Option` view, `==` compares rows
/// (`Some(NaN) != Some(NaN)`), `bits_eq` their bit patterns.
#[derive(Debug, Clone)]
pub enum Combined {
    /// One packed value per row: mixed, fitted and `OR` roots and the
    /// scalar oracle.
    Frame(DistanceFrame),
    /// A root of two-valued windows, or the pure scan: no frame written.
    Table(PatternTable),
}

/// A derived root: its windows' exact bits (shared, not copied) plus the
/// final value and row count of every pattern — row `i` takes
/// `values[p]`, `p` spelling its exact bits (window `c` in bit `c`), and
/// is defined where every window is.
#[derive(Debug, Clone)]
pub struct PatternTable {
    len: usize,
    windows: Vec<SharedBits>,
    values: Vec<f64>,
    counts: Vec<usize>,
}

impl PatternTable {
    /// The table of `windows` (folded) over `len` rows under the root's
    /// `weights` (`None`: one window) and its root fold: popcounts over
    /// the bits count each pattern's rows, [`pattern_sums`] gives its
    /// sum, and the final normalization runs on the sums alone. No
    /// windows is the pure scan: `0.0` on every row.
    pub(crate) fn of(
        len: usize,
        windows: Vec<SharedBits>,
        weights: Option<&[f64]>,
    ) -> (PatternTable, RootAcc) {
        let children: Vec<_> = windows.iter().map(folded).collect();
        let sums = pattern_sums(children.len(), weights);
        let mut counts = vec![0; sums.len()];
        let count = |offset, len| PackedBits::pattern_counts(&children, offset..offset + len);
        for part in chunk::map_ranges(len, true, count) {
            for (total, part) in counts.iter_mut().zip(part) {
                *total += part;
            }
        }
        let acc = RootAcc::of_patterns(&sums, &counts);
        let finish = |x: f64| acc.finish().map_or(x, |params| apply_one(&params, x));
        let values = sums.into_iter().map(finish).collect();
        let table = PatternTable {
            len,
            windows,
            values,
            counts,
        };
        (table, acc)
    }

    /// Row `i`'s pattern — its windows' exact bits, window `c` in bit `c`
    /// — or `None` where a window leaves it undefined (or out of range).
    #[inline]
    pub fn pattern(&self, i: usize) -> Option<u8> {
        if i >= self.len {
            return None;
        }
        let mut pattern = 0;
        for (c, (exact, defined)) in self.windows.iter().map(folded).enumerate() {
            if defined.is_some_and(|defined| !defined.get(i)) {
                return None;
            }
            pattern |= u8::from(exact.get(i)) << c;
        }
        Some(pattern)
    }

    /// The final value of every pattern, indexed by pattern: what each of
    /// its rows reads.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    #[inline]
    fn get(&self, i: usize) -> Option<f64> {
        self.pattern(i).map(|p| self.values[usize::from(p)])
    }

    /// The `k` smallest rows under [`rank_order`], sorted, and the pattern
    /// of each: the patterns grouped into classes of values equal there
    /// (`-0.0` with `0.0`, NaN with NaN), the classes in ascending order,
    /// each walked word by word — the OR of its patterns' masks — in row
    /// order until `k` rows (or its counted rows) are met. A class's rows
    /// share one value and ties rank by row id, so this is the sorted
    /// prefix of every `(value, row)` pair; with `num_exact >= k`, the
    /// early-exit scan for zeros. A row's pattern is the one whose mask
    /// holds it.
    pub(crate) fn smallest(&self, k: usize) -> (Vec<(f64, u32)>, Vec<u8>) {
        let by_value =
            |a: &usize, b: &usize| rank_order(&(self.values[*a], 0), &(self.values[*b], 0));
        let mut patterns: Vec<usize> = (0..self.values.len()).collect();
        patterns.sort_by(by_value);
        let children: Vec<_> = self.windows.iter().map(folded).collect();
        let mut scratch = [0u64; 1 << MAX_TABLE_CHILDREN];
        let mut out = Vec::with_capacity(k.min(self.len));
        let mut out_patterns = Vec::with_capacity(out.capacity());
        for class in patterns.chunk_by(|a, b| by_value(a, b).is_eq()) {
            let (value, mut rows_left) = (self.values[class[0]], k - out.len());
            rows_left = rows_left.min(class.iter().map(|&p| self.counts[p]).sum());
            for w in 0..self.len.div_ceil(64) {
                if rows_left == 0 {
                    break;
                }
                let masks = PackedBits::pattern_masks(&children, w, self.len, &mut scratch);
                let mut rows = class.iter().fold(0, |rows, &p| rows | masks[p]);
                while rows != 0 && rows_left > 0 {
                    let row = rows & rows.wrapping_neg();
                    let pattern = class.iter().find(|&&p| masks[p] & row != 0);
                    out.push((value, (w * 64) as u32 + rows.trailing_zeros()));
                    out_patterns.push(*pattern.expect("a class row is in one of its masks") as u8);
                    (rows, rows_left) = (rows ^ row, rows_left - 1);
                }
            }
        }
        (out, out_patterns)
    }
}

impl Combined {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Combined::Frame(frame) => frame.len(),
            Combined::Table(table) => table.len,
        }
    }

    /// True when no rows are covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i` as an `Option` (out-of-range reads yield `None`).
    #[inline]
    pub fn get(&self, i: usize) -> Option<f64> {
        match self {
            Combined::Frame(frame) => frame.get(i),
            Combined::Table(table) => table.get(i),
        }
    }

    /// Iterate rows as `Option<f64>`.
    pub fn iter(&self) -> impl Iterator<Item = Option<f64>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Row equality with NaN distances compared by bit pattern.
    pub fn bits_eq(&self, other: &Self) -> bool {
        let bits = |d: Option<f64>| d.map(f64::to_bits);
        self.len() == other.len() && self.iter().map(bits).eq(other.iter().map(bits))
    }

    /// Heap bytes owned: 9 per row for a frame; a table's values and
    /// counts (the bits are the windows').
    pub fn heap_bytes(&self) -> usize {
        match self {
            Combined::Frame(frame) => frame.heap_bytes(),
            Combined::Table(t) => 8 * (t.values.capacity() + t.counts.capacity()),
        }
    }
}

impl PartialEq for Combined {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// The weighted arithmetic mean (`AND`) over packed `(values, validity)`
/// buffers, one pass over the children's rows from `offset` on: per
/// 8-row block and in registers, each child's rows are loaded (a
/// [`Child::Frame`] normalized on the way, a [`Child::Bits`] read from
/// its exact bits), `w · v` is accumulated in child order from `0.0`, the
/// child validity words are ANDed, the block is stored, and — given an
/// `acc` — folded into the root accumulator ([`RootAcc::fold`]'s block
/// step). The `< 8`-row tail goes row by row.
///
/// The accumulator takes `w · v` unconditionally — whatever an undefined
/// row contributes only ever reaches rows the intersected mask has
/// already cleared. Accumulation runs in the same child order as
/// [`crate::reference::and_row`] starting from `0.0`, so fully-defined
/// rows are bit-identical to the per-row reference. `weights = None` is
/// the single child at the root: its rows *are* the combined rows (no
/// arithmetic).
pub(crate) fn combine_and_blocks(
    children: &[Child<'_>],
    weights: Option<&[f64]>,
    offset: usize,
    out_vals: &mut [f64],
    out_mask: &mut [bool],
    acc: Option<&mut RootAcc>,
) {
    debug_assert!(weights.map_or(children.len() == 1, |w| w.len() == children.len()));
    let len = out_vals.len();
    let blocks = len / WORD_ROWS * WORD_ROWS;
    let mut lanes = RootLanes::default();
    for at in (0..blocks).step_by(WORD_ROWS) {
        let rows = offset + at..offset + at + WORD_ROWS;
        let mut sum = [0.0f64; WORD_ROWS];
        let mut word = ALL_VALID_WORD;
        for (c, child) in children.iter().enumerate() {
            let mut d = [0.0f64; WORD_ROWS];
            word &= match *child {
                Child::Frame(v, m, params) => {
                    d.copy_from_slice(&v[rows.clone()]);
                    if let Some(params) = params {
                        d = d.map(|x| apply_one(&params, x));
                    }
                    mask_word(&m[rows.clone()])
                }
                Child::Bits(exact, known) => {
                    // eight rows' exact bits, one per byte lane
                    let exact = unpack_word(exact.byte_at(rows.start));
                    d = std::array::from_fn(|l| TWO_VALUED[(exact >> (8 * l)) as usize & 1]);
                    known.map_or(ALL_VALID_WORD, |known| {
                        unpack_word(known.byte_at(rows.start))
                    })
                }
            };
            match weights {
                Some(weights) => {
                    for l in 0..WORD_ROWS {
                        sum[l] += weights[c] * d[l];
                    }
                }
                None => sum = d,
            }
        }
        let ok: [bool; WORD_ROWS] = std::array::from_fn(|l| (word >> (8 * l)) & 1 == 1);
        if word != ALL_VALID_WORD {
            for l in 0..WORD_ROWS {
                sum[l] = select(ok[l], sum[l], 0.0);
            }
        }
        out_vals[at..at + WORD_ROWS].copy_from_slice(&sum);
        out_mask[at..at + WORD_ROWS].copy_from_slice(&ok);
        if acc.is_some() {
            lanes.block(&sum, &ok, word);
        }
    }
    for i in blocks..len {
        let row = offset + i;
        let (mut sum, mut ok) = (0.0f64, true);
        for (c, child) in children.iter().enumerate() {
            let (d, defined) = match *child {
                Child::Frame(v, m, params) => {
                    let d = params.map_or(v[row], |params| apply_one(&params, v[row]));
                    (d, m[row])
                }
                Child::Bits(exact, known) => (
                    TWO_VALUED[exact.get(row) as usize],
                    known.is_none_or(|known| known.get(row)),
                ),
            };
            sum = weights.map_or(d, |weights| sum + weights[c] * d);
            ok &= defined;
        }
        out_vals[i] = select(ok, sum, 0.0);
        out_mask[i] = ok;
    }
    if let Some(acc) = acc {
        acc.absorb(lanes);
        acc.fold(&out_vals[blocks..], &out_mask[blocks..]);
    }
}

/// Slice form of the weighted arithmetic mean (`AND`) over normalized
/// children: [`combine_and_blocks`] with nothing left to normalize.
pub fn combine_and_slices(
    children: &[(&[f64], &[bool])],
    weights: &[f64],
    out_vals: &mut [f64],
    out_mask: &mut [bool],
) {
    debug_assert_eq!(children.len(), weights.len());
    let normalized: Vec<Child<'_>> = children
        .iter()
        .map(|&(v, m)| {
            debug_assert_eq!(v.len(), out_vals.len());
            debug_assert_eq!(m.len(), out_vals.len());
            Child::Frame(v, m, None)
        })
        .collect();
    combine_and_blocks(&normalized, Some(weights), 0, out_vals, out_mask, None);
}

/// Branchless slice form of the weighted geometric mean (`OR`).
///
/// Two [`or_row`] behaviours need care:
///
/// * *Undefined propagation*: a row is defined when **any** child is —
///   the byte-OR of the child masks, independent of [`or_row`]'s early
///   `break`, because with non-negative weights the product can only
///   reach `0.0` through a defined child (the `NORM_MAX` substitute for
///   undefined children satisfies `255^w >= 1`), and that child already
///   set `any_defined`.
/// * *The early `break` itself*: once the product is `0.0` the reference
///   stops multiplying, which matters when a later factor is `+inf`
///   (`0 · inf = NaN`). The kernel mirrors it with a freeze —
///   `prod = select(prod == 0.0, prod, prod · f)` — an exact branchless
///   restatement.
///
/// A **negative** weight breaks the first argument (`255^w` underflows
/// toward `0`, so the reference can break out *before* a later child
/// proves the row defined), so that case falls back to the per-row
/// reference loop; negative weights never reach the hot path anyway.
pub fn combine_or_slices(
    children: &[(&[f64], &[bool])],
    weights: &[f64],
    out_vals: &mut [f64],
    out_mask: &mut [bool],
) {
    debug_assert_eq!(children.len(), weights.len());
    if weights.iter().any(|&w| w < 0.0) {
        let mut row: Vec<Option<f64>> = vec![None; children.len()];
        for i in 0..out_vals.len() {
            for (slot, &(v, m)) in row.iter_mut().zip(children) {
                *slot = m[i].then_some(v[i]);
            }
            let d = or_row(&row, weights);
            out_vals[i] = d.unwrap_or(0.0);
            out_mask[i] = d.is_some();
        }
        return;
    }
    out_vals.fill(1.0);
    out_mask.fill(false);
    for (&(v, m), &w) in children.iter().zip(weights) {
        debug_assert_eq!(v.len(), out_vals.len());
        debug_assert_eq!(m.len(), out_vals.len());
        if w == 0.0 {
            // a weightless part contributes definedness but no factor
            for (om, &ok) in out_mask.iter_mut().zip(m) {
                *om |= ok;
            }
            continue;
        }
        for (((ov, om), &d), &ok) in out_vals.iter_mut().zip(out_mask.iter_mut()).zip(v).zip(m) {
            *om |= ok;
            let f = select(ok, d, NORM_MAX).powf(w);
            *ov = select(*ov == 0.0, *ov, *ov * f);
        }
    }
    for (ov, &om) in out_vals.iter_mut().zip(out_mask.iter()) {
        *ov = select(om, *ov, 0.0);
    }
}

/// Weighted arithmetic mean (`AND`) over packed frames, with fused
/// stats: [`combine_and_slices`] over whole frames.
pub fn combine_and_frames(
    children: &[&DistanceFrame],
    weights: &[f64],
) -> Result<(DistanceFrame, FrameStats)> {
    combine_frames(children, weights, combine_and_slices)
}

/// Weighted geometric mean (`OR`) over packed frames, with fused stats:
/// [`combine_or_slices`] over whole frames.
pub fn combine_or_frames(
    children: &[&DistanceFrame],
    weights: &[f64],
) -> Result<(DistanceFrame, FrameStats)> {
    combine_frames(children, weights, combine_or_slices)
}

/// Ablation comparators (DESIGN.md decision 1): fuzzy-logic `min`/`max`
/// combiners, benchmarked against the paper's means.
pub mod ablation {
    use visdb_types::Result;

    use crate::reference::check;

    /// Fuzzy AND: the worst (largest) child distance.
    pub fn combine_and_max<C: AsRef<[Option<f64>]>>(
        children: &[C],
        weights: &[f64],
    ) -> Result<Vec<Option<f64>>> {
        let n = check(children, weights)?;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let mut best: Option<f64> = Some(f64::NEG_INFINITY);
            for (c, &w) in children.iter().zip(weights) {
                match (best, c.as_ref()[i]) {
                    (Some(b), Some(d)) => best = Some(b.max(w * d)),
                    _ => {
                        best = None;
                        break;
                    }
                }
            }
            out.push(best.filter(|b| b.is_finite()));
        }
        Ok(out)
    }

    /// Fuzzy OR: the best (smallest) child distance.
    pub fn combine_or_min<C: AsRef<[Option<f64>]>>(
        children: &[C],
        weights: &[f64],
    ) -> Result<Vec<Option<f64>>> {
        let n = check(children, weights)?;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let mut best: Option<f64> = None;
            for (c, &w) in children.iter().zip(weights) {
                if let Some(d) = c.as_ref()[i] {
                    let v = w * d;
                    best = Some(best.map_or(v, |b: f64| b.min(v)));
                }
            }
            out.push(best);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{combine_and, combine_or};
    use proptest::prelude::*;

    fn v(xs: &[f64]) -> Vec<Option<f64>> {
        xs.iter().map(|&x| Some(x)).collect()
    }

    #[test]
    fn and_is_weighted_sum() {
        let out = combine_and(&[v(&[0.0, 100.0]), v(&[50.0, 200.0])], &[1.0, 0.5]).unwrap();
        assert_eq!(out, vec![Some(25.0), Some(200.0)]);
    }

    #[test]
    fn and_zero_only_when_all_zero() {
        let out = combine_and(&[v(&[0.0]), v(&[0.0])], &[1.0, 1.0]).unwrap();
        assert_eq!(out, vec![Some(0.0)]);
        let out = combine_and(&[v(&[0.0]), v(&[1.0])], &[1.0, 1.0]).unwrap();
        assert!(out[0].unwrap() > 0.0);
    }

    #[test]
    fn or_zero_when_any_zero() {
        let out = combine_or(&[v(&[0.0]), v(&[255.0])], &[1.0, 1.0]).unwrap();
        assert_eq!(out, vec![Some(0.0)]);
    }

    #[test]
    fn or_is_weighted_product() {
        let out = combine_or(&[v(&[4.0]), v(&[9.0])], &[0.5, 0.5]).unwrap();
        assert!((out[0].unwrap() - 6.0).abs() < 1e-12); // sqrt(4)*sqrt(9)
    }

    #[test]
    fn and_propagates_none() {
        let out = combine_and(&[vec![None], v(&[1.0])], &[1.0, 1.0]).unwrap();
        assert_eq!(out, vec![None]);
    }

    #[test]
    fn or_substitutes_max_for_none() {
        // one undefined part, one fulfilled part: still fulfilled
        let out = combine_or(&[vec![None], v(&[0.0])], &[1.0, 1.0]).unwrap();
        assert_eq!(out, vec![Some(0.0)]);
        // all undefined: undefined
        let out = combine_or(&[vec![None], vec![None]], &[1.0, 1.0]).unwrap();
        assert_eq!(out, vec![None]);
    }

    #[test]
    fn zero_weight_or_child_has_no_influence() {
        let out = combine_or(&[v(&[0.0]), v(&[100.0])], &[0.0, 1.0]).unwrap();
        assert_eq!(out, vec![Some(100.0)]);
    }

    #[test]
    fn shape_errors() {
        assert!(combine_and(&[] as &[Vec<Option<f64>>], &[]).is_err());
        assert!(combine_and(&[v(&[1.0])], &[1.0, 2.0]).is_err());
        assert!(combine_and(&[v(&[1.0]), v(&[1.0, 2.0])], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn frame_combiners_match_option_combiners() {
        let a = vec![Some(0.0), Some(100.0), None, Some(30.0)];
        let b = vec![Some(50.0), None, None, Some(0.0)];
        let fa = DistanceFrame::from_options(&a);
        let fb = DistanceFrame::from_options(&b);
        let weights = [1.0, 0.5];
        let (and_f, and_s) = combine_and_frames(&[&fa, &fb], &weights).unwrap();
        assert_eq!(
            and_f.to_options(),
            combine_and(&[a.clone(), b.clone()], &weights).unwrap()
        );
        assert_eq!(and_s.defined, 2);
        assert_eq!(and_s.min_abs, 25.0);
        let (or_f, _) = combine_or_frames(&[&fa, &fb], &weights).unwrap();
        assert_eq!(or_f.to_options(), combine_or(&[a, b], &weights).unwrap());
        // shape errors carry over
        assert!(combine_and_frames(&[], &[]).is_err());
        assert!(combine_and_frames(&[&fa], &[1.0, 2.0]).is_err());
        let short = DistanceFrame::from_options(&[Some(1.0)]);
        assert!(combine_and_frames(&[&fa, &short], &weights).is_err());
    }

    /// A pattern table reads like the frame it replaces — `get` (past the
    /// end too), `iter`, `==` and `bits_eq`, both ways — at every word
    /// remainder up to 200 rows and around 512, over three windows with
    /// every definedness shape; and its class walk is the sorted prefix
    /// of every `(value, row)` pair at every `k`, with cross-pattern ties
    /// (`0.0` / `-0.0`, NaN / NaN, 255 / 255).
    #[test]
    fn pattern_tables_read_like_frames_and_walk_in_rank_order() {
        let exact = |i: usize, c: usize| (i * (c + 3) + c) % 5 < 2;
        let defined: [fn(usize) -> bool; 3] = [|_| true, |i| i % 7 != 3, |i| i % 64 != 5];
        let values = [0.0, 17.0, -0.0, 255.0, f64::NAN, 255.0, f64::NAN, 3.5];
        let same = |a: Option<f64>, b: Option<f64>| a.map(f64::to_bits) == b.map(f64::to_bits);
        for len in (0..=200).chain([511, 512, 513]) {
            let pattern = |i: usize| (0..3).fold(0, |p, c| p | usize::from(exact(i, c)) << c);
            let rows: Vec<Option<f64>> = (0..len)
                .map(|i| (0..3).all(|c| defined[c](i)).then(|| values[pattern(i)]))
                .collect();
            let bits: Vec<(PackedBits, Option<PackedBits>)> = (0..3)
                .map(|c| {
                    let known = |i: &usize| defined[c](*i);
                    let exact = PackedBits::from_bools((0..len).map(|i| known(&i) && exact(i, c)));
                    (
                        exact,
                        (c > 0).then(|| PackedBits::from_bools((0..len).map(|i| known(&i)))),
                    )
                })
                .collect();
            let pairs: Vec<_> = bits.iter().map(|(e, d)| (e, d.as_ref())).collect();
            let counts = PackedBits::pattern_counts(&pairs, 0..len)[..8].to_vec();
            let handles = bits
                .into_iter()
                .map(|b| Arc::new(OnceLock::from(b)))
                .collect();
            let (windows, values) = (handles, values.to_vec());
            let table = PatternTable {
                len,
                windows,
                values,
                counts,
            };
            let (derived, frame) = (
                Combined::Table(table.clone()),
                Combined::Frame(DistanceFrame::from_options(&rows)),
            );
            assert_eq!((derived.len(), derived.is_empty()), (len, len == 0));
            for i in 0..len + 70 {
                assert!(same(derived.get(i), frame.get(i)), "len={len} row {i}");
            }
            assert_eq!(derived.iter().count(), len);
            assert!(
                derived.iter().zip(&rows).all(|(a, &b)| same(a, b)),
                "len={len}"
            );
            assert!(
                derived.bits_eq(&frame) && frame.bits_eq(&derived),
                "len={len}"
            );
            let nan = rows.iter().flatten().any(|d| d.is_nan());
            assert_eq!(
                (derived == frame, frame == derived),
                (!nan, !nan),
                "len={len}"
            );
            if len > 0 {
                let mut moved = rows.clone();
                moved[len / 2] = Some(1.0);
                for other in [&moved[..], &rows[..len - 1]] {
                    let other = Combined::Frame(DistanceFrame::from_options(other));
                    assert!(!derived.bits_eq(&other) && derived != other, "len={len}");
                }
            }
            // the class walk against a full sort
            let mut sorted: Vec<(f64, u32)> = (rows.iter().zip(0u32..))
                .filter_map(|(d, row)| Some(((*d)?, row)))
                .collect();
            sorted.sort_by(rank_order);
            for k in [0, 1, 2, len / 3, len / 2, sorted.len(), sorted.len() + 5] {
                let (walked, patterns) = table.smallest(k);
                let want = &sorted[..k.min(sorted.len())];
                assert_eq!(walked.len(), want.len(), "len={len} k={k}");
                assert_eq!(patterns.len(), want.len(), "len={len} k={k}");
                for ((got, want), &p) in walked.iter().zip(want).zip(&patterns) {
                    assert_eq!(got.1, want.1, "len={len} k={k}");
                    let row = got.1 as usize;
                    assert_eq!(
                        (usize::from(p), table.pattern(row)),
                        (pattern(row), Some(p)),
                        "len={len} k={k}"
                    );
                    assert!(
                        rank_order(&(got.0, 0), &(want.0, 0)).is_eq(),
                        "len={len} k={k}"
                    );
                }
            }
        }
        // the pure scan: no windows, one value, every row defined
        let (scan, acc) = PatternTable::of(70, Vec::new(), None);
        assert_eq!((acc.defined, acc.num_exact, scan.values.len()), (70, 70, 1));
        let (rows, patterns) = scan.smallest(66);
        let rows: Vec<u32> = rows.iter().map(|r| r.1).collect();
        assert_eq!(rows, (0..66).collect::<Vec<u32>>());
        assert_eq!(patterns, vec![0; 66]);
        let scan = Combined::Table(scan);
        assert!(scan.iter().all(|d| d == Some(0.0)) && scan.get(70).is_none());
        assert_eq!(scan, Combined::Frame(DistanceFrame::constant(70, 0.0).0));
    }

    #[test]
    fn ablation_min_max() {
        let out =
            ablation::combine_and_max(&[v(&[10.0, 0.0]), v(&[5.0, 0.0])], &[1.0, 1.0]).unwrap();
        assert_eq!(out, vec![Some(10.0), Some(0.0)]);
        let out = ablation::combine_or_min(&[v(&[10.0]), vec![None]], &[1.0, 1.0]).unwrap();
        assert_eq!(out, vec![Some(10.0)]);
    }

    proptest! {
        /// AND monotonicity: increasing any child distance never decreases
        /// the combined distance.
        #[test]
        fn prop_and_monotone(d1 in 0.0f64..255.0, d2 in 0.0f64..255.0,
                             bump in 0.0f64..50.0, w1 in 0.01f64..1.0, w2 in 0.01f64..1.0) {
            let a = combine_and(&[v(&[d1]), v(&[d2])], &[w1, w2]).unwrap()[0].unwrap();
            let b = combine_and(&[v(&[d1 + bump]), v(&[d2])], &[w1, w2]).unwrap()[0].unwrap();
            prop_assert!(b >= a);
        }

        /// OR absorbing zero: any fulfilled part makes the item an exact
        /// OR answer regardless of the other parts.
        #[test]
        fn prop_or_absorbs_zero(d in 0.0f64..255.0, w1 in 0.01f64..1.0, w2 in 0.01f64..1.0) {
            let out = combine_or(&[v(&[0.0]), v(&[d])], &[w1, w2]).unwrap();
            prop_assert_eq!(out[0], Some(0.0));
        }

        /// Both combiners agree on the fully-fulfilled row.
        #[test]
        fn prop_fulfilled_row_is_zero(w1 in 0.01f64..1.0, w2 in 0.01f64..1.0) {
            let and = combine_and(&[v(&[0.0]), v(&[0.0])], &[w1, w2]).unwrap();
            let or = combine_or(&[v(&[0.0]), v(&[0.0])], &[w1, w2]).unwrap();
            prop_assert_eq!(and[0], Some(0.0));
            prop_assert_eq!(or[0], Some(0.0));
        }
    }
}
