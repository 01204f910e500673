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

use visdb_distance::frame::{DistanceFrame, FrameStats, PackedBits};
use visdb_distance::lanes::{mask_word, select, unpack_word, ALL_VALID_WORD, WORD_ROWS};
use visdb_types::{Error, Result};

use crate::normalize::{apply_one, NormParams, NORM_MAX};
use crate::pipeline::{RootAcc, RootLanes};
use crate::reference::or_row;

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
    /// Two-valued windows — fits with `dmax = 0`, whose normalization is
    /// `select(exact, 0.0, 255.0)` — read from their packed
    /// `(exact, defined)` bits: a row takes `table[p]`, `p` spelling its
    /// exact bits (window `c` in bit `c`), and is defined where every
    /// window is. One window under [`TWO_VALUED`] is that window's
    /// normalization; all the windows of a root under [`pattern_sums`]
    /// are the root itself.
    Bits(&'a [(&'a PackedBits, Option<&'a PackedBits>)], &'a [f64]),
}

/// The normalization of one two-valued window as a [`Child::Bits`] table.
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

/// The weighted arithmetic mean (`AND`) over packed `(values, validity)`
/// buffers, one pass over the children's rows from `offset` on: per
/// 8-row block and in registers, each child's rows are loaded (a
/// [`Child::Frame`] normalized on the way, a [`Child::Bits`] looked up
/// by pattern), `w · v` is accumulated in child order from `0.0`, the
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
                Child::Bits(windows, table) => {
                    // eight rows' patterns, one per byte lane
                    let mut pattern = 0u64;
                    let mut defined = u8::MAX;
                    for (w, (exact, known)) in windows.iter().enumerate() {
                        pattern |= unpack_word(exact.byte_at(rows.start)) << w;
                        defined &= known.map_or(u8::MAX, |known| known.byte_at(rows.start));
                    }
                    d = std::array::from_fn(|l| table[(pattern >> (8 * l)) as u8 as usize]);
                    unpack_word(defined)
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
                Child::Bits(windows, table) => {
                    let pattern = (windows.iter().rev())
                        .fold(0, |p, (exact, _)| p << 1 | exact.get(row) as usize);
                    let defined = |(_, known): &(_, Option<&PackedBits>)| {
                        known.is_none_or(|known| known.get(row))
                    };
                    (table[pattern], windows.iter().all(defined))
                }
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
