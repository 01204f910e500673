//! Distance normalization (§5.2).
//!
//! Distances from different predicates live on incommensurable scales
//! ("a distance of 1g/dl for Haemoglobin may be very large and a distance
//! of 1,000 per dl for Erythrocyte may be very small"). Before combining,
//! each predicate's distances are mapped to the fixed range `[0, 255]`.
//!
//! * Naive — a linear transform of `[dmin, dmax]` over every distance.
//!   Sensitive to outliers: "a single data item with an exceptionally
//!   high or low value may cause a completely different transformation".
//!   Only the final combined distance is normalized this way.
//! * Improved ([`fit_frame`]) — the paper's fix: first reduce the items
//!   considered for the predicate to a count proportional to `r / wⱼ`
//!   ("proportional to r/(n·wⱼ)" as a fraction of n), *then* normalize
//!   over the remaining range. Lightly-weighted predicates keep more
//!   far-away items (they matter less, so a coarser scale is fine);
//!   heavily-weighted predicates get their resolution concentrated near
//!   the query.
//!
//! This module works on packed frames; the `Option`-vector definitions
//! the kernels are tested against live in [`crate::reference`].

use visdb_distance::frame::{DistanceFrame, FrameStats};

use crate::{chunk, select};

/// The fixed upper bound of normalized distances.
pub const NORM_MAX: f64 = 255.0;

/// Parameters of a fitted normalization, so sliders can map colors back
/// to attribute values ("the possibility to get the specific values
/// corresponding to the different colors", §4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormParams {
    /// Smallest absolute distance in the fitted set.
    pub dmin: f64,
    /// Largest absolute distance in the fitted set (values beyond clamp).
    pub dmax: f64,
}

impl NormParams {
    /// Map an absolute distance to `[0, NORM_MAX]` (clamping overshoot).
    #[inline]
    pub fn apply(&self, d: f64) -> f64 {
        if !d.is_finite() {
            return NORM_MAX;
        }
        let range = self.dmax - self.dmin;
        if range <= 0.0 {
            // degenerate: all fitted distances equal; they normalize to 0
            return if d <= self.dmax { 0.0 } else { NORM_MAX };
        }
        (((d - self.dmin) / range) * NORM_MAX).clamp(0.0, NORM_MAX)
    }

    /// Inverse map from a normalized value back to an absolute distance.
    #[inline]
    pub fn invert(&self, norm: f64) -> f64 {
        self.dmin + (norm / NORM_MAX) * (self.dmax - self.dmin)
    }
}

// NOTE on `dmin`: the paper describes "a linear transformation of the
// range [dmin, dmax]". We anchor the transform at 0 instead of the
// observed minimum — otherwise a query with *no* exact answers would map
// its closest approximate answer to normalized distance 0, making it
// indistinguishable from an exact answer (wrong yellow region, wrong
// `# results`). Anchoring at zero preserves the invariant
// `normalized == 0 ⇔ raw == 0` that the whole display semantics rest on.
pub(crate) fn params_from_max(dmax: f64) -> NormParams {
    if dmax.is_finite() {
        NormParams { dmin: 0.0, dmax }
    } else {
        NormParams {
            dmin: 0.0,
            dmax: 0.0,
        }
    }
}

/// The improved (§5.2) fit count: how many of the smallest absolute
/// distances the transform range is fitted over, `k = r / max(w, ε)`
/// clamped to `[1, n]`. Returns `None` when the fit covers *everything*
/// (zero/invalid weight, or `k >= n`) — the single source of truth for
/// every fit implementation (the `Option`-vector reference, the packed
/// frame, and the sorted-projection O(log n) fast path), which is what
/// keeps them bit-identical.
pub fn fit_k(n: usize, weight: f64, display_budget: usize) -> Option<usize> {
    if !(weight.is_finite() && weight > 0.0) {
        // zero/invalid weight: keep everything (the predicate hardly
        // matters, so the coarsest scale is acceptable)
        return None;
    }
    let w = weight.min(1.0);
    let k = ((display_budget as f64 / w).ceil() as usize).clamp(1, n.max(1));
    (k < n).then_some(k)
}

/// `dmax` of a selected prefix: the largest *finite* absolute distance
/// among the `k` smallest (non-finite candidates sort last under
/// `total_cmp`, so they only enter when nothing nearer is left, and the
/// finite filter keeps them out of the transform range either way).
pub(crate) fn dmax_of_prefix(abs: impl IntoIterator<Item = f64>) -> f64 {
    abs.into_iter()
        .filter(|d| d.is_finite())
        .fold(f64::NEG_INFINITY, f64::max)
}

/// The §5.2 fit answered from the fused stats of the distance walk
/// alone — **zero** extra passes — or `Err(k)` when it takes the `k`
/// smallest `|d|` of the frame (`k` below the defined count). The counts
/// answer whenever the fit covers every defined item (small relations,
/// light weights, NULL-heavy columns), all defined distances share one
/// finite magnitude, or the predicate has at least `k` exact answers
/// (§5.1: "none or very many"): the `k` smallest `|d|` are then all
/// `+0.0` and [`dmax_of_prefix`] of them is `0.0`, the value the
/// selection would return. The single ladder behind [`fit_frame`],
/// [`fit_frame_extended`] and the pipeline's fit.
pub(crate) fn fit_from_counts(
    n: usize,
    stats: &FrameStats,
    weight: f64,
    display_budget: usize,
) -> std::result::Result<NormParams, usize> {
    let Some(k) = fit_k(n, weight, display_budget) else {
        return Ok(params_from_max(stats.max_abs));
    };
    if stats.defined == 0 {
        return Ok(params_from_max(f64::NEG_INFINITY));
    }
    let k = k.min(stats.defined);
    if k == stats.defined {
        return Ok(params_from_max(stats.max_abs));
    }
    if stats.non_finite == 0 && stats.min_abs == stats.max_abs {
        // all defined distances share one finite magnitude: any k of
        // them fit the same range
        return Ok(params_from_max(stats.max_abs));
    }
    if stats.zeros >= k {
        return Ok(params_from_max(0.0));
    }
    Err(k)
}

/// Whether the exact answers alone cover the §5.2 fit: `zeros >= k`,
/// where [`fit_from_counts`] answers `dmax = 0`. A window read only
/// through its exact bits keeps nothing else while this holds.
pub(crate) fn covered_by_exact(
    n: usize,
    stats: &FrameStats,
    weight: f64,
    display_budget: usize,
) -> bool {
    fit_k(n, weight, display_budget).is_some_and(|k| stats.zeros >= k)
}

/// Fit the improved (§5.2) normalization of a packed [`DistanceFrame`]
/// whose reduction stats were accumulated during the distance walk: the
/// transform range is `[0, k-th smallest absolute distance]` with
/// `k = min(n, r / max(w, ε))` ([`fit_k`]). The answer comes straight
/// from the fused stats whenever they decide it ([`fit_from_counts`]);
/// otherwise the k smallest `|d|` come from the bound-pruned selection
/// kernel ([`select::k_smallest`]), which reads the frame once and
/// copies only the candidates under its sampled cut. NaN absolute
/// distances sort after `+inf` and never enter the transform range.
/// Bit-identical to [`crate::reference::fit_improved`] on the `Option`
/// view of the same frame.
pub fn fit_frame(
    frame: &DistanceFrame,
    stats: &FrameStats,
    weight: f64,
    display_budget: usize,
) -> NormParams {
    debug_assert_eq!(*stats, FrameStats::of_frame(frame));
    fit_from_counts(frame.len(), stats, weight, display_budget)
        .unwrap_or_else(|k| fit_selected(frame, k))
}

/// The selection arm of [`fit_frame`]: the fit over the `k` smallest
/// `|d|` of the frame, one bound-pruned walk.
pub(crate) fn fit_selected(frame: &DistanceFrame, k: usize) -> NormParams {
    let n = frame.len();
    let smallest = select::k_smallest(
        frame,
        &chunk::ranges(n),
        n >= chunk::PAR_MIN_ROWS,
        k,
        f64::abs,
    );
    params_from_max(dmax_of_prefix(smallest.iter().map(|c| c.0)))
}

/// [`fit_frame`] of an appended frame *without the frame*: refit
/// `old ++ delta` from the old fit, the old/merged fused stats, and the
/// delta rows alone — O(Δ) instead of the O(n + Δ) selection.
///
/// The merged stats answer first ([`fit_from_counts`]). The selection
/// branch reuses the old result: when the same `k` governed the old
/// fit, the old prefix was all-finite (so `old_params.dmax` *is* the
/// k-th smallest absolute distance under `total_cmp`), and no appended
/// defined `|d|` sorts strictly below it, the k smallest of the union
/// are value-identical to the old prefix and the fit is unchanged.
/// Returns `None` when the answer would depend on an order statistic
/// the delta may have displaced — the caller must fall back to
/// [`fit_frame`] over the concatenated frame (which stays bit-identical
/// either way).
pub fn fit_frame_extended(
    old_len: usize,
    old_stats: &FrameStats,
    old_params: NormParams,
    delta: &DistanceFrame,
    merged: &FrameStats,
    weight: f64,
    display_budget: usize,
) -> Option<NormParams> {
    let new_len = old_len + delta.len();
    let k = match fit_from_counts(new_len, merged, weight, display_budget) {
        Ok(params) => return Some(params),
        Err(k) => k,
    };
    // selection branch: reuse the old k-th order statistic iff it is
    // provably still the k-th of the union
    if fit_k(old_len, weight, display_budget) != Some(k) {
        return None; // a different k governed the old fit
    }
    if k >= old_stats.defined || old_stats.defined - old_stats.non_finite < k {
        // the old fit either covered every defined row (stats branch)
        // or its prefix reached into non-finite values — in both cases
        // old_params.dmax is not the k-th smallest
        return None;
    }
    let kth = old_params.dmax;
    if !kth.is_finite() {
        return None;
    }
    let displaced = delta
        .values()
        .iter()
        .zip(delta.validity().as_slice())
        .any(|(&v, &ok)| ok && v.abs().total_cmp(&kth) == std::cmp::Ordering::Less);
    if displaced {
        None // a nearer appended row enters the prefix: fit shifts
    } else {
        Some(old_params)
    }
}

/// Improved normalization over a packed frame: fit via [`fit_frame`],
/// then apply in one walk over the 8-byte buffers. Undefined stays
/// undefined.
pub fn normalize_frame(
    frame: &DistanceFrame,
    stats: &FrameStats,
    weight: f64,
    display_budget: usize,
) -> (DistanceFrame, NormParams) {
    let params = fit_frame(frame, stats, weight, display_budget);
    (apply_frame(frame, params), params)
}

/// Apply fitted params to every defined row of a frame.
pub fn apply_frame(frame: &DistanceFrame, params: NormParams) -> DistanceFrame {
    let mut out = DistanceFrame::undefined(frame.len());
    {
        let (vals, mask) = out.parts_mut();
        apply_slice(
            params,
            frame.values(),
            frame.validity().as_slice(),
            vals,
            mask,
        );
    }
    out
}

/// One row of the branchless apply: exactly `params.apply(x.abs())`
/// restructured as unconditional arithmetic plus [`select`] moves, so a
/// slice walk built from it has no data-dependent branch. Both the
/// degenerate and the linear arm are always evaluated (a `range <= 0`
/// division yields ±inf/NaN, which the select discards), and the
/// non-finite guard comes last just as in [`NormParams::apply`] — the
/// result is bit-identical for every input and parameter combination,
/// including NaN/±inf distances and degenerate or hand-built params.
#[inline(always)]
pub(crate) fn apply_one(params: &NormParams, x: f64) -> f64 {
    use visdb_distance::lanes::select;
    let a = x.abs();
    let range = params.dmax - params.dmin;
    let degenerate_v = select(a <= params.dmax, 0.0, NORM_MAX);
    let linear_v = (((a - params.dmin) / range) * NORM_MAX).clamp(0.0, NORM_MAX);
    let v = select(range <= 0.0, degenerate_v, linear_v);
    select(a.is_finite(), v, NORM_MAX)
}

/// Branchless slice form of the normalize apply walk: writes
/// `params.apply(vals[i].abs())` for defined rows and the canonical
/// `(0.0, false)` for undefined rows into the packed output buffers.
/// Validity-bitmap words drive the lane masks — each 8-row block is
/// classified with one `u64` compare, fully-defined blocks run a pure
/// value loop the autovectorizer turns into `f64x4` arithmetic, and
/// mixed blocks keep per-lane [`select`] moves instead of per-row
/// branches. Bit-identical to the branchy per-row reference across lane
/// remainders and NULL/NaN/±inf-dense inputs (property-tested).
pub fn apply_slice(
    params: NormParams,
    vals: &[f64],
    mask: &[bool],
    out_vals: &mut [f64],
    out_mask: &mut [bool],
) {
    use visdb_distance::lanes::{mask_word, select, ALL_VALID_WORD, WORD_ROWS};
    debug_assert_eq!(vals.len(), mask.len());
    debug_assert_eq!(vals.len(), out_vals.len());
    debug_assert_eq!(vals.len(), out_mask.len());
    out_mask.copy_from_slice(mask);
    let blocks = vals.len() / WORD_ROWS * WORD_ROWS;
    let (vh, vt) = vals.split_at(blocks);
    let (mh, mt) = mask.split_at(blocks);
    let (oh, ot) = out_vals.split_at_mut(blocks);
    for ((v8, m8), o8) in vh
        .chunks_exact(WORD_ROWS)
        .zip(mh.chunks_exact(WORD_ROWS))
        .zip(oh.chunks_exact_mut(WORD_ROWS))
    {
        if mask_word(m8) == ALL_VALID_WORD {
            for l in 0..WORD_ROWS {
                o8[l] = apply_one(&params, v8[l]);
            }
        } else {
            for l in 0..WORD_ROWS {
                o8[l] = select(m8[l], apply_one(&params, v8[l]), 0.0);
            }
        }
    }
    for ((&v, &m), o) in vt.iter().zip(mt).zip(ot) {
        *o = select(m, apply_one(&params, v), 0.0);
    }
}

/// In-place [`apply_slice`]: normalize a chunk's value buffer against
/// its validity mask without a second buffer (the combined frame's
/// finalize pass). Undefined rows are rewritten to the canonical `0.0`
/// they already carry.
pub fn apply_in_place(params: NormParams, vals: &mut [f64], mask: &[bool]) {
    use visdb_distance::lanes::{mask_word, select, ALL_VALID_WORD, WORD_ROWS};
    debug_assert_eq!(vals.len(), mask.len());
    let blocks = vals.len() / WORD_ROWS * WORD_ROWS;
    let (vh, vt) = vals.split_at_mut(blocks);
    let (mh, mt) = mask.split_at(blocks);
    for (v8, m8) in vh
        .chunks_exact_mut(WORD_ROWS)
        .zip(mh.chunks_exact(WORD_ROWS))
    {
        if mask_word(m8) == ALL_VALID_WORD {
            for v in v8.iter_mut() {
                *v = apply_one(&params, *v);
            }
        } else {
            for (v, &m) in v8.iter_mut().zip(m8) {
                *v = select(m, apply_one(&params, *v), 0.0);
            }
        }
    }
    for (v, &m) in vt.iter_mut().zip(mt) {
        *v = select(m, apply_one(&params, *v), 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{fit_improved, normalize_improved, normalize_naive};

    /// Exhaustive cross of messy old/delta shapes: whenever the O(Δ)
    /// incremental refit answers, it must agree bit-for-bit with
    /// [`fit_frame`] over the concatenated frame — and it must actually
    /// fire (not hide behind `None`) for the far-delta shape the append
    /// fast path exists for.
    #[test]
    fn incremental_refit_matches_full_refit_when_it_answers() {
        let olds: Vec<Vec<Option<f64>>> = vec![
            (0..40).map(|i| Some(i as f64)).collect(),
            (0..40)
                .map(|i| match i % 5 {
                    0 => None,
                    1 => Some(f64::NAN),
                    2 => Some(f64::INFINITY),
                    _ => Some(i as f64 - 20.0),
                })
                .collect(),
            vec![None; 10],
            vec![Some(3.0); 12],
            vec![Some(0.0); 12],
            (0..6).map(|i| Some(i as f64)).collect(),
        ];
        let deltas: Vec<Vec<Option<f64>>> = vec![
            vec![Some(1000.0), Some(-2000.0)],
            vec![Some(0.5), None],
            vec![Some(0.0)],
            vec![Some(f64::NAN), Some(f64::NEG_INFINITY)],
            vec![None, None, None],
            (0..30).map(|i| Some(i as f64 / 7.0)).collect(),
        ];
        let mut fired = 0usize;
        for old_vals in &olds {
            for delta_vals in &deltas {
                for budget in [1usize, 4, 16, 64] {
                    for weight in [1.0f64, 0.3] {
                        let old = DistanceFrame::from_options(old_vals);
                        let old_stats = FrameStats::of_frame(&old);
                        let old_params = fit_frame(&old, &old_stats, weight, budget);
                        let delta = DistanceFrame::from_options(delta_vals);
                        let mut merged = old_stats;
                        merged.merge(&FrameStats::of_frame(&delta));
                        let ext = old.concat(&delta);
                        let full = fit_frame(&ext, &merged, weight, budget);
                        if let Some(fast) = fit_frame_extended(
                            old.len(),
                            &old_stats,
                            old_params,
                            &delta,
                            &merged,
                            weight,
                            budget,
                        ) {
                            fired += 1;
                            assert_eq!(
                                fast, full,
                                "incremental refit diverged (old {old_vals:?}, \
                                 delta {delta_vals:?}, budget {budget}, weight {weight})"
                            );
                        }
                    }
                }
            }
        }
        assert!(fired > 0, "the incremental refit never answered");
        // the canonical append shape — a dense old frame and a delta of
        // strictly farther rows — must take the O(Δ) path
        let old: Vec<Option<f64>> = (0..100).map(|i| Some(i as f64)).collect();
        let old = DistanceFrame::from_options(&old);
        let old_stats = FrameStats::of_frame(&old);
        let old_params = fit_frame(&old, &old_stats, 1.0, 10);
        let delta = DistanceFrame::from_options(&[Some(500.0), Some(-700.0)]);
        let mut merged = old_stats;
        merged.merge(&FrameStats::of_frame(&delta));
        let fast = fit_frame_extended(old.len(), &old_stats, old_params, &delta, &merged, 1.0, 10)
            .expect("far delta must refit incrementally");
        assert_eq!(fast, old_params);
    }

    #[test]
    fn naive_maps_to_fixed_range() {
        let v = vec![Some(0.0), Some(5.0), Some(10.0), None];
        let (out, p) = normalize_naive(&v);
        assert_eq!(out[0], Some(0.0));
        assert_eq!(out[1], Some(127.5));
        assert_eq!(out[2], Some(255.0));
        assert_eq!(out[3], None);
        assert_eq!(p.dmin, 0.0);
        assert_eq!(p.dmax, 10.0);
    }

    #[test]
    fn naive_uses_absolute_values() {
        let v = vec![Some(-10.0), Some(0.0), Some(5.0)];
        let (out, _) = normalize_naive(&v);
        assert_eq!(out[0], Some(255.0));
        assert_eq!(out[1], Some(0.0));
        assert_eq!(out[2], Some(127.5));
    }

    #[test]
    fn degenerate_all_equal_normalizes_to_max() {
        // equal nonzero distances are all equally (maximally) far — the
        // zero anchor keeps them distinct from exact answers
        let v = vec![Some(3.0), Some(3.0)];
        let (out, _) = normalize_naive(&v);
        assert_eq!(out, vec![Some(255.0), Some(255.0)]);
        // while equal *zero* distances stay exact
        let v = vec![Some(0.0), Some(0.0)];
        let (out, _) = normalize_naive(&v);
        assert_eq!(out, vec![Some(0.0), Some(0.0)]);
    }

    #[test]
    fn outlier_flattens_naive_but_not_improved() {
        // 99 distances in [0,1], one outlier at 1000
        let mut v: Vec<Option<f64>> = (0..99).map(|i| Some(i as f64 / 99.0)).collect();
        v.push(Some(1000.0));
        let (naive, _) = normalize_naive(&v);
        // under naive normalization the regular values are crushed to ~0
        assert!(naive[98].unwrap() < 1.0);
        // improved with budget 50, weight 1: fit over the 50 smallest
        let (better, p) = normalize_improved(&v, 1.0, 50);
        assert!(better[49].unwrap() > 200.0, "{:?}", better[49]);
        // outlier clamps to the max
        assert_eq!(better[99], Some(NORM_MAX));
        assert!(p.dmax < 2.0);
    }

    #[test]
    fn lower_weight_keeps_more_items() {
        let v: Vec<Option<f64>> = (0..100).map(|i| Some(i as f64)).collect();
        let (_, p_heavy) = normalize_improved(&v, 1.0, 20); // keeps 20
        let (_, p_light) = normalize_improved(&v, 0.25, 20); // keeps 80
        assert!(p_light.dmax > p_heavy.dmax);
    }

    #[test]
    fn fit_improved_matches_a_sort_based_reference() {
        // the O(n) selection must agree with the obvious "sort every
        // absolute distance, take the max of the k smallest" definition
        let values: Vec<Option<f64>> = (0..200)
            .map(|i| {
                if i % 7 == 0 {
                    None
                } else {
                    Some(((i * 37) % 113) as f64 - 50.0)
                }
            })
            .collect();
        for (weight, budget) in [(1.0, 20), (0.5, 20), (0.1, 3), (1.0, 500), (0.0, 10)] {
            let got = fit_improved(&values, weight, budget);
            let mut abs: Vec<f64> = values.iter().flatten().map(|d| d.abs()).collect();
            abs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let k = if weight > 0.0 {
                ((budget as f64 / weight.min(1.0)).ceil() as usize)
                    .clamp(1, values.len())
                    .min(abs.len())
            } else {
                abs.len()
            };
            let expect = if k >= values.len() || weight <= 0.0 {
                abs.last().copied().unwrap()
            } else {
                abs[k - 1]
            };
            assert_eq!(got.dmax, expect, "weight={weight} budget={budget}");
            assert_eq!(got.dmin, 0.0);
        }
    }

    #[test]
    fn nan_distances_sort_last_and_never_destabilise_the_fit() {
        // regression: the selection used to compare with
        // `partial_cmp(..).unwrap_or(Equal)`, so a NaN candidate made the
        // k-smallest prefix depend on pivot order. Under `total_cmp` the
        // NaN policy is explicit: NaN = farthest, dmax stays finite.
        let mut values: Vec<Option<f64>> = (0..100).map(|i| Some(i as f64)).collect();
        for i in (0..100).step_by(7) {
            values[i] = Some(f64::NAN);
        }
        let got = fit_improved(&values, 1.0, 20);
        // the 20 smallest non-NaN magnitudes are 1..=23 minus NaN slots;
        // the fit must equal the sort-based reference exactly
        let mut abs: Vec<f64> = values.iter().flatten().map(|d| d.abs()).collect();
        abs.sort_by(f64::total_cmp);
        let expect = abs[..20]
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(got.dmax, expect);
        assert!(got.dmax.is_finite());
        // all-NaN distances: nothing finite to fit, degenerate params
        let all_nan: Vec<Option<f64>> = (0..10).map(|_| Some(f64::NAN)).collect();
        let p = fit_improved(&all_nan, 1.0, 3);
        assert_eq!((p.dmin, p.dmax), (0.0, 0.0));
    }

    #[test]
    fn frame_fit_matches_option_fit_with_fused_stats() {
        use visdb_distance::frame::{DistanceFrame, FrameStats};
        let cases: Vec<Vec<Option<f64>>> = vec![
            (0..200)
                .map(|i| {
                    if i % 7 == 0 {
                        None
                    } else {
                        Some(((i * 37) % 113) as f64 - 50.0)
                    }
                })
                .collect(),
            vec![None; 50],                                  // all NULL
            Vec::new(),                                      // zero rows
            (0..40).map(|_| Some(f64::NAN)).collect(),       // all NaN
            (0..40).map(|_| Some(3.0)).collect(),            // all equal
            vec![Some(f64::INFINITY), Some(1.0), Some(0.0)], // infinities
        ];
        for values in cases {
            let frame = DistanceFrame::from_options(&values);
            let mut stats = FrameStats::default();
            for d in values.iter().flatten() {
                stats.record(*d);
            }
            for (weight, budget) in [(1.0, 20), (0.5, 20), (0.1, 3), (1.0, 500), (0.0, 10)] {
                let a = fit_improved(&values, weight, budget);
                let b = fit_frame(&frame, &stats, weight, budget);
                assert_eq!(a, b, "weight={weight} budget={budget} {values:?}");
                let (normed, p) = normalize_frame(&frame, &stats, weight, budget);
                let (normed_ref, p_ref) = normalize_improved(&values, weight, budget);
                assert_eq!(p, p_ref);
                assert_eq!(normed.to_options(), normed_ref);
            }
        }
    }

    #[test]
    fn invalid_weight_falls_back_to_naive() {
        let v = vec![Some(1.0), Some(2.0)];
        let (out, _) = normalize_improved(&v, 0.0, 1);
        let (naive, _) = normalize_naive(&v);
        assert_eq!(out, naive);
    }

    #[test]
    fn params_round_trip() {
        let p = NormParams {
            dmin: 2.0,
            dmax: 12.0,
        };
        for d in [2.0, 5.0, 12.0] {
            let n = p.apply(d);
            assert!((p.invert(n) - d).abs() < 1e-9);
        }
    }

    #[test]
    fn infinite_distance_clamps() {
        let p = NormParams {
            dmin: 0.0,
            dmax: 1.0,
        };
        assert_eq!(p.apply(f64::INFINITY), NORM_MAX);
    }
}
