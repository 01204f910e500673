//! The `Option`-shaped reference arithmetic.
//!
//! Everything the pipeline computes on packed frames is defined here
//! first, one `Option<f64>` at a time: the per-row `AND`/`OR` folds, the
//! whole-vector combiners built from them, the §5.2 fits by plain
//! `select_nth`, and the naive normalization of a combined vector. The
//! [`crate::ExecMode::Scalar`] oracle computes with these and packs its
//! result once at the end; the packed kernels ([`crate::combine`],
//! [`crate::normalize`], [`crate::select`]) are property-tested
//! bit-identical against them. Nothing on a vectorized hot path calls
//! into this module except the negative-weight fallback of
//! [`crate::combine::combine_or_slices`].

use visdb_types::{Error, Result};

use crate::normalize::{dmax_of_prefix, fit_k, params_from_max, NormParams, NORM_MAX};

pub(crate) fn check<C: AsRef<[Option<f64>]>>(children: &[C], weights: &[f64]) -> Result<usize> {
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
    let n = children[0].as_ref().len();
    if children.iter().any(|c| c.as_ref().len() != n) {
        return Err(Error::Internal("ragged child distance vectors".into()));
    }
    Ok(n)
}

/// One row of the weighted arithmetic mean (`AND`): an undefined part
/// makes the row undefined.
#[inline]
pub fn and_row(vals: &[Option<f64>], weights: &[f64]) -> Option<f64> {
    let mut sum = 0.0;
    for (v, &w) in vals.iter().zip(weights) {
        match v {
            Some(d) => sum += w * d,
            None => return None,
        }
    }
    Some(sum)
}

/// One row of the weighted geometric mean (`OR`): an undefined part
/// counts as [`NORM_MAX`]; the row is undefined only when every part is.
#[inline]
pub fn or_row(vals: &[Option<f64>], weights: &[f64]) -> Option<f64> {
    let mut prod = 1.0f64;
    let mut any_defined = false;
    for (v, &w) in vals.iter().zip(weights) {
        let d = match v {
            Some(d) => {
                any_defined = true;
                *d
            }
            None => NORM_MAX, // an undefined part cannot help an OR
        };
        if w == 0.0 {
            continue;
        }
        prod *= d.powf(w);
        if prod == 0.0 {
            break;
        }
    }
    if any_defined {
        Some(prod)
    } else {
        None
    }
}

fn combine_rows<C: AsRef<[Option<f64>]>>(
    children: &[C],
    weights: &[f64],
    row_fold: fn(&[Option<f64>], &[f64]) -> Option<f64>,
) -> Result<Vec<Option<f64>>> {
    let n = check(children, weights)?;
    let mut row = vec![None; children.len()];
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        for (slot, c) in row.iter_mut().zip(children) {
            *slot = c.as_ref()[i];
        }
        out.push(row_fold(&row, weights));
    }
    Ok(out)
}

/// Weighted arithmetic mean — `AND` semantics.
pub fn combine_and<C: AsRef<[Option<f64>]>>(
    children: &[C],
    weights: &[f64],
) -> Result<Vec<Option<f64>>> {
    combine_rows(children, weights, and_row)
}

/// Weighted geometric mean — `OR` semantics.
///
/// `0^0` (zero distance, zero weight) is defined as 1 (no influence), so a
/// weightless fulfilled part neither helps nor hurts.
pub fn combine_or<C: AsRef<[Option<f64>]>>(
    children: &[C],
    weights: &[f64],
) -> Result<Vec<Option<f64>>> {
    combine_rows(children, weights, or_row)
}

fn fit(values: &[Option<f64>]) -> NormParams {
    params_from_max(dmax_of_prefix(values.iter().flatten().map(|d| d.abs())))
}

/// Fit the improved (§5.2) normalization *without* applying it: the
/// transform range is `[0, k-th smallest absolute distance]` with
/// `k = min(n, r / max(w, ε))` ([`fit_k`]), found by
/// `select_nth_unstable_by` over a copy of the absolute distances — the
/// definition [`crate::normalize::fit_frame`]'s pruned selection is
/// tested against.
///
/// NaN policy: candidates are ordered by [`f64::total_cmp`], under which
/// NaN absolute distances sort *after* `+inf` — a NaN distance is
/// treated as farthest-possible, never as interchangeable with its
/// neighbours.
pub fn fit_improved(values: &[Option<f64>], weight: f64, display_budget: usize) -> NormParams {
    let Some(k) = fit_k(values.len(), weight, display_budget) else {
        return fit(values);
    };
    let mut abs: Vec<f64> = values.iter().flatten().map(|d| d.abs()).collect();
    if abs.is_empty() {
        return params_from_max(f64::NEG_INFINITY);
    }
    let k = k.min(abs.len());
    if k < abs.len() {
        abs.select_nth_unstable_by(k - 1, f64::total_cmp);
    }
    params_from_max(dmax_of_prefix(abs[..k].iter().copied()))
}

/// Map every defined `|d|` through the fitted transform, row by row.
pub(crate) fn apply_all(values: &[Option<f64>], params: NormParams) -> Vec<Option<f64>> {
    values
        .iter()
        .map(|v| v.map(|d| params.apply(d.abs())))
        .collect()
}

/// Naive normalization: fit `[dmin, dmax]` over *all* defined distances
/// and map absolute values to `[0, NORM_MAX]`. Undefined stays undefined.
/// Sensitive to outliers: "a single data item with an exceptionally high
/// or low value may cause a completely different transformation" (§5.2).
pub fn normalize_naive(values: &[Option<f64>]) -> (Vec<Option<f64>>, NormParams) {
    let params = fit(values);
    (apply_all(values, params), params)
}

/// Improved normalization (§5.2): fit the transform only over the
/// `k = min(n, r / max(w, ε))` smallest absolute distances, where `r` is
/// the display budget (items) and `w ∈ (0, 1]` the predicate weight; then
/// apply it to all values, clamping beyond-range items to `NORM_MAX`.
///
/// This realises the paper's intent: an exceptional outlier no longer
/// stretches the scale, and the predicate retains its "impact on the
/// overall answer".
pub fn normalize_improved(
    values: &[Option<f64>],
    weight: f64,
    display_budget: usize,
) -> (Vec<Option<f64>>, NormParams) {
    let params = fit_improved(values, weight, display_budget);
    (apply_all(values, params), params)
}

/// Normalize a combined vector while *preserving* exact zeros (an exact
/// answer must stay exactly 0 so `num_exact` and the yellow region are
/// stable even when every item is an exact match).
pub(crate) fn normalize_combined(raw: &[Option<f64>]) -> Vec<Option<f64>> {
    if raw.iter().flatten().any(|&d| d != 0.0) {
        normalize_naive(raw).0
    } else {
        // all exact (or undefined): keep zeros
        raw.to_vec()
    }
}
