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

use std::sync::Arc;

use visdb_distance::batch::{code_words, NativeNumeric};
use visdb_distance::frame::{DistanceFrame, FrameStats};
use visdb_distance::numeric;
use visdb_storage::ColumnSketch;

use crate::chunk;
use crate::select::{self, rank_order};

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
        .unwrap_or_else(|k| fit_selected(frame, k).0)
}

/// The rows a fit with `dmax > 0` leaves below its plateau: the rows of
/// its `k` smallest `|d|` strictly below `dmax` — fewer than `k`. With
/// `dmin = 0` every other defined row normalizes to exactly [`NORM_MAX`]
/// (`|d| / dmax >= 1`, or a non-finite `|d|`).
#[derive(Debug, Default, PartialEq)]
pub(crate) struct BelowRows {
    /// The rows: by row id where `raw` is kept, otherwise in no
    /// particular order.
    pub(crate) rows: Vec<u32>,
    /// Each row's raw distance, in the order of `rows`: kept by a fitted
    /// window without its frame ([`fit_from_sketch`]), empty otherwise.
    pub(crate) raw: Vec<f64>,
}

impl BelowRows {
    /// Row `row`'s raw distance, when it is listed with one.
    pub(crate) fn raw_at(&self, row: u32) -> Option<f64> {
        if self.raw.is_empty() {
            return None;
        }
        let at = self.rows.binary_search(&row).ok()?;
        Some(self.raw[at])
    }

    /// Heap bytes of the rows and their raw distances.
    pub(crate) fn heap_bytes(&self) -> usize {
        4 * self.rows.len() + 8 * self.raw.len()
    }

    /// Whether fit count `k` lands in the tie of a fit that left these
    /// rows below a plateau `tied` rows wide: its `k` smallest `|d|` are
    /// these rows plus `k − |rows|` rows at exactly `dmax`.
    fn in_tie(&self, tied: usize, k: usize) -> bool {
        self.rows.len() < k && k <= self.rows.len() + tied
    }
}

impl From<Vec<u32>> for BelowRows {
    fn from(rows: Vec<u32>) -> Self {
        BelowRows {
            rows,
            raw: Vec::new(),
        }
    }
}

/// What a fit leaves below its plateau ([`BelowRows`]). `None` when the
/// fit covers every defined row, whose values form no plateau.
pub(crate) type Below = Option<Arc<BelowRows>>;

/// A fit, what it leaves below its plateau and how many defined rows tie
/// at its `dmax` (see [`fit_selected`]).
pub(crate) type Fit = (NormParams, Below, usize);

/// What a fit [`fit_from_counts`] answered leaves below its plateau:
/// nothing when it is over fewer than the defined rows (`dmax = 0`, or
/// every defined `|d|` shares one magnitude), `None` when it covers them
/// all.
pub(crate) fn counted_below(
    n: usize,
    stats: &FrameStats,
    weight: f64,
    display_budget: usize,
) -> Below {
    let fits_fewer = fit_k(n, weight, display_budget).is_some_and(|k| k < stats.defined);
    fits_fewer.then(Arc::default)
}

/// Whether [`fit_with_below`] refits a window that keeps no frame under
/// `weight` without reading a row and leaves it a plateau: the counts
/// answer over fewer than the defined rows, or the new fit count lands in
/// the tie of the window's fit (`below`, `tied`).
pub(crate) fn refits_without_rows(
    n: usize,
    stats: &FrameStats,
    weight: f64,
    display_budget: usize,
    (below, tied): (&Below, usize),
) -> bool {
    match fit_from_counts(n, stats, weight, display_budget) {
        Ok(_) => counted_below(n, stats, weight, display_budget).is_some(),
        Err(k) => below.as_ref().is_some_and(|below| below.in_tie(tied, k)),
    }
}

/// How [`fit_with_below`] came by a fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FitPath {
    /// The distance walk's counts answered it ([`fit_from_counts`]).
    Counts,
    /// The previous selection's plateau answered it: the new `k` lands
    /// in that fit's tie at `dmax`, so the fit and its rows below are
    /// the previous ones.
    Plateau,
    /// The column's byte sketch answered the selection while the window
    /// was evaluated ([`fit_from_sketch`]): no frame was written.
    Sketch,
    /// A selection over the frame ([`fit_selected`]).
    Selected,
}

/// [`fit_frame`], what the fit leaves below its plateau, how many
/// defined rows tie at its `dmax` (see [`fit_selected`]; 0 unless it
/// selected), and how it was answered; `frame` is read only when the fit
/// selects.
///
/// `prev` is the fit the same frame and stats carried before — its
/// params, rows below and tie count, which is not 0 only when that fit
/// selected over an all-finite prefix with `dmax > 0`. When the new `k`
/// lands in the tie (`|below| < k <= |below| + tied`), the `k` smallest
/// `|d|` under [`select::rank_order`] are `below` plus `k − |below|` rows
/// at exactly `dmax`: the selection would return the same `dmax` and the
/// same rows below it, so the previous fit is returned and no row is
/// read. `sketched` is the selection at this very fit count that the
/// window's evaluation answered from the column's sketch; it stands in
/// for the frame's.
pub(crate) fn fit_with_below(
    n: usize,
    stats: &FrameStats,
    weight: f64,
    display_budget: usize,
    frame: Option<&DistanceFrame>,
    prev: Option<(NormParams, &Below, usize)>,
    sketched: Option<Fit>,
) -> (NormParams, Below, usize, FitPath) {
    let k = match fit_from_counts(n, stats, weight, display_budget) {
        Ok(params) => {
            let below = counted_below(n, stats, weight, display_budget);
            return (params, below, 0, FitPath::Counts);
        }
        Err(k) => k,
    };
    if let Some((params, Some(below), tied)) = prev {
        if below.in_tie(tied, k) {
            return (params, Some(below.clone()), tied, FitPath::Plateau);
        }
    }
    if let Some((params, below, tied)) = sketched {
        return (params, below, tied, FitPath::Sketch);
    }
    let frame = frame.expect("a fit that selects reads the frame");
    let (params, below, tied) = fit_selected(frame, k);
    (
        params,
        Some(Arc::new(below.into())),
        tied,
        FitPath::Selected,
    )
}

/// The selection arm of [`fit_frame`]: the fit over the `k` smallest
/// `|d|` of the frame, one bound-pruned walk, those of its rows strictly
/// below `dmax` ([`Below`]), and the number of defined rows whose `|d|`
/// is exactly `dmax` — counted by the same walk, and 0 unless the `k`
/// smallest were all finite (their k-th is then `dmax`) with `dmax > 0`.
pub(crate) fn fit_selected(frame: &DistanceFrame, k: usize) -> (NormParams, Vec<u32>, usize) {
    let n = frame.len();
    let (smallest, tied) = select::k_smallest(
        frame,
        &chunk::ranges(n),
        n >= chunk::PAR_MIN_ROWS,
        k,
        f64::abs,
    );
    let params = params_from_max(dmax_of_prefix(smallest.iter().map(|c| c.0)));
    let below = (smallest.iter())
        .filter(|c| c.0 < params.dmax)
        .map(|c| c.1)
        .collect();
    let kth_is_dmax = params.dmax > 0.0 && smallest.iter().all(|c| c.0.is_finite());
    (params, below, if kth_is_dmax { tied } else { 0 })
}

/// The code of `t` in `sketch` and the rows coded past it — above it for
/// `x ≥ t` (`greater`), below it for `x ≤ t`: exact answers whatever
/// their values, so a lower bound on the window's exact answers.
pub(crate) fn coded_past(sketch: &ColumnSketch, (greater, t): (bool, f64)) -> (usize, usize) {
    let (at, counts) = (
        sketch.bounds().partition_point(|&b| b <= t),
        sketch.counts(),
    );
    let past = match greater {
        true => counts[at + 1..].iter().sum(),
        false => counts[..at].iter().sum(),
    };
    (at, past)
}

/// [`fit_selected`] of an `x ≥ t` (`greater`) / `x ≤ t` window over a
/// column with a byte sketch, `zeros < k` of whose rows are exact
/// answers, answered from the sketch and a few buckets of the column —
/// no frame. Every row is defined (a sketched column has no NULL, NaN or
/// ±inf), and the caller has checked that every `|d|` is finite (the
/// sketch-packed stats' `max_abs`).
///
/// The fit needs the `k − zeros` nearest inexact rows. For `x ≥ t` those
/// are the rows with the largest codes at or below `code(t)` — a code is
/// monotone in `x`, and so is `|x − t|` below `t` — and the per-code
/// counts ([`ColumnSketch::counts`]) name the farthest code `far` they
/// reach: the threshold's bucket adds its inexact rows (its count less
/// the exact answers the codes past it do not hold), every other code
/// all of its rows. The rows coded from `far` to past the threshold —
/// every exact answer and at least `k − zeros` candidates — are read, `d`
/// computed with the kernel's own float op ([`numeric::greater_than`] /
/// [`numeric::less_than`]), and the `(k − zeros)`-th smallest candidate
/// `|d|` under [`select::rank_order`] is `dmax`. Every row with
/// `|d| < dmax` is among them; but `x − t` can round rows of the codes
/// past `far` to `dmax` too (integers past ±2^53, a large `t`), so the
/// codes beyond it are read while their nearest possible `|d|` — the
/// distance of the bound they lie beyond — does not exceed `dmax`, and
/// their rows at `dmax` join the tie. `x ≤ t` is the mirror image.
/// Returns `params_from_max(dmax)`, the rows below the plateau by row id
/// with their raw `d`, and the tie count — what [`fit_selected`] returns
/// over the frame.
pub(crate) fn fit_from_sketch<T: NativeNumeric>(
    xs: &[T],
    sketch: &ColumnSketch,
    (greater, t): (bool, f64),
    zeros: usize,
    k: usize,
    parallel: bool,
) -> Fit {
    let (bounds, counts) = (sketch.bounds(), sketch.counts());
    debug_assert!(zeros < k && k <= xs.len() && xs.len() == sketch.len());
    let last = bounds.len();
    let (at, past) = coded_past(sketch, (greater, t));
    let d = |x: f64| match greater {
        true => numeric::greater_than(x, t),
        false => numeric::less_than(x, t),
    };
    let abs_d = |x: f64| d(x).expect("a sketched column has no NaN").abs();
    // the next code out from the threshold's, and the nearest `|d|` a row
    // of code `c` can have
    let outward = |c: usize| match greater {
        true => c.checked_sub(1),
        false => (c < last).then_some(c + 1),
    };
    let nearest = |c: usize| abs_d(if greater { bounds[c] } else { bounds[c - 1] });
    let need = k - zeros;
    let (mut far, mut inexact) = (at, counts[at] - (zeros - past));
    while inexact < need {
        far = outward(far).expect("fewer than k rows are exact");
        inexact += counts[far];
    }
    // the rows coded in `lo..=hi`, by row id, with their `d`
    let coded = |lo: usize, hi: usize| -> Vec<(u32, f64)> {
        let codes = sketch.codes();
        let parts = chunk::map_ranges(xs.len(), parallel, |offset, len| {
            let mut rows = Vec::new();
            for (w, c64) in codes[offset..offset + len].chunks(64).enumerate() {
                let (above, on_lo) = code_words::<true>(c64, lo as u8);
                let (below, on_hi) = code_words::<false>(c64, hi as u8);
                let mut word = (above | on_lo) & (below | on_hi);
                while word != 0 {
                    let row = offset + 64 * w + word.trailing_zeros() as usize;
                    let x = xs[row].to_f64();
                    rows.push((row as u32, d(x).expect("a sketched column has no NaN")));
                    word &= word - 1;
                }
            }
            rows
        });
        parts.concat()
    };
    let near = if greater {
        coded(far, last)
    } else {
        coded(0, far)
    };
    let mut candidates: Vec<(f64, u32)> = (near.iter())
        .filter(|c| c.1 != 0.0)
        .map(|&(row, d)| (d.abs(), row))
        .collect();
    let (_, &mut (dmax, _), _) = candidates.select_nth_unstable_by(need - 1, rank_order);
    let mut tail = far;
    while let Some(c) = outward(tail).filter(|&c| nearest(c) <= dmax) {
        tail = c;
    }
    let beyond = match (tail == far, greater) {
        (true, _) => Vec::new(),
        (false, true) => coded(tail, far - 1),
        (false, false) => coded(far + 1, tail),
    };
    let at_dmax = |rows: &[(u32, f64)]| rows.iter().filter(|c| c.1.abs() == dmax).count();
    let tied = at_dmax(&near) + at_dmax(&beyond);
    let (rows, raw) = near.into_iter().filter(|c| c.1.abs() < dmax).unzip();
    (
        params_from_max(dmax),
        Some(Arc::new(BelowRows { rows, raw })),
        tied,
    )
}

/// [`fit_frame`] of an appended frame *without the frame*: refit
/// `old ++ delta` from the old fit and what it left below its plateau,
/// the old/merged fused stats, and the delta rows alone — O(Δ) instead of
/// the O(n + Δ) selection. Returns the fit with its [`Below`].
///
/// The merged stats answer first ([`fit_from_counts`]). The selection
/// branch reuses the old result: when the same `k` governed the old
/// fit, the old prefix was all-finite (so `old_params.dmax` *is* the
/// k-th smallest absolute distance under `total_cmp`), and no appended
/// defined `|d|` sorts strictly below it, the k smallest of the union
/// are value-identical to the old prefix and the fit is unchanged — and
/// so are the rows below it, none of them appended.
/// Returns `None` when the answer would depend on an order statistic
/// the delta may have displaced — the caller must fall back to
/// [`fit_frame`] over the concatenated frame (which stays bit-identical
/// either way).
pub(crate) fn fit_frame_extended(
    old_len: usize,
    old_stats: &FrameStats,
    (old_params, old_below): (NormParams, &Below),
    delta: &DistanceFrame,
    merged: &FrameStats,
    weight: f64,
    display_budget: usize,
) -> Option<(NormParams, Below)> {
    let new_len = old_len + delta.len();
    let k = match fit_from_counts(new_len, merged, weight, display_budget) {
        Ok(params) => {
            return Some((
                params,
                counted_below(new_len, merged, weight, display_budget),
            ))
        }
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
        Some((old_params, old_below.clone()))
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
    use visdb_storage::ColumnData;
    use visdb_types::Value;

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
                        let (old_params, old_below, ..) = fit_with_below(
                            old.len(),
                            &old_stats,
                            weight,
                            budget,
                            Some(&old),
                            None,
                            None,
                        );
                        let delta = DistanceFrame::from_options(delta_vals);
                        let mut merged = old_stats;
                        merged.merge(&FrameStats::of_frame(&delta));
                        let ext = old.concat(&delta);
                        let full = fit_frame(&ext, &merged, weight, budget);
                        let (_, full_below, ..) = fit_with_below(
                            ext.len(),
                            &merged,
                            weight,
                            budget,
                            Some(&ext),
                            None,
                            None,
                        );
                        assert_eq!(
                            full_below.is_some(),
                            fit_k(ext.len(), weight, budget).is_some_and(|k| k < merged.defined)
                        );
                        let sorted = |below: Below| {
                            below.map(|rows| {
                                let mut rows = rows.rows.to_vec();
                                rows.sort_unstable();
                                rows
                            })
                        };
                        if let Some((fast, fast_below)) = fit_frame_extended(
                            old.len(),
                            &old_stats,
                            (old_params, &old_below),
                            &delta,
                            &merged,
                            weight,
                            budget,
                        ) {
                            fired += 1;
                            assert_eq!(
                                (fast, sorted(fast_below)),
                                (full, sorted(full_below.clone())),
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
        let (old_params, old_below, ..) =
            fit_with_below(old.len(), &old_stats, 1.0, 10, Some(&old), None, None);
        let delta = DistanceFrame::from_options(&[Some(500.0), Some(-700.0)]);
        let mut merged = old_stats;
        merged.merge(&FrameStats::of_frame(&delta));
        let old_fit = (old_params, &old_below);
        let fast = fit_frame_extended(old.len(), &old_stats, old_fit, &delta, &merged, 1.0, 10)
            .expect("far delta must refit incrementally");
        // the rows below the plateau are the old ones: 0..9 of the 10
        // smallest
        assert_eq!(fast, (old_params, old_below));
        let mut below = fast.1.expect("a fit over 10 of 100 rows").rows.to_vec();
        below.sort_unstable();
        assert_eq!(below, (0..9).collect::<Vec<u32>>());
    }

    /// The rows a fit leaves below its plateau are the rows it normalizes
    /// below `NORM_MAX` (a row in the list may still round to it), each
    /// with `|d| < dmax`, once — and there is a list exactly when the
    /// fit is over fewer than the defined rows. Ties at `dmax`, NaN,
    /// ±inf, `-0.0` and subnormal distances; selected and counted fits.
    #[test]
    fn fit_below_is_every_row_under_the_plateau() {
        let cases: Vec<Vec<Option<f64>>> = vec![
            (0..300)
                .map(|i| match i % 11 {
                    0 => None,
                    1 => Some(f64::NAN),
                    2 => Some(f64::NEG_INFINITY),
                    3 => Some(-0.0),
                    4 => Some(f64::MIN_POSITIVE / 4.0),
                    5 => Some(7.0),
                    _ => Some(((i * 37) % 113) as f64 - 50.0),
                })
                .collect(),
            (0..64).map(|_| Some(-3.0)).collect(),
            (0..64)
                .map(|i| Some(if i < 40 { 0.0 } else { 1.0 }))
                .collect(),
            (0..64)
                .map(|i| Some(if i < 3 { 0.0 } else { f64::NAN }))
                .collect(),
        ];
        let mut listed = 0;
        for values in cases {
            let frame = DistanceFrame::from_options(&values);
            let stats = FrameStats::of_frame(&frame);
            for (weight, budget) in [(1.0, 20), (0.5, 20), (0.1, 3), (1.0, 500), (0.0, 10)] {
                let (params, below, ..) = fit_with_below(
                    frame.len(),
                    &stats,
                    weight,
                    budget,
                    Some(&frame),
                    None,
                    None,
                );
                assert_eq!(params, fit_frame(&frame, &stats, weight, budget));
                let fits_fewer =
                    fit_k(frame.len(), weight, budget).is_some_and(|k| k < stats.defined);
                assert_eq!(
                    below.is_some(),
                    fits_fewer,
                    "weight={weight} budget={budget}"
                );
                let (Some(below), true) = (below, params.dmax > 0.0) else {
                    continue;
                };
                listed += below.rows.len();
                let mut below = below.rows.to_vec();
                below.sort_unstable();
                assert!(below.windows(2).all(|w| w[0] < w[1]));
                for (i, d) in values.iter().enumerate() {
                    let Some(d) = d else { continue };
                    let on_list = below.binary_search(&(i as u32)).is_ok();
                    assert_eq!(on_list, d.abs() < params.dmax, "row {i} ({d})");
                    if !on_list {
                        assert_eq!(apply_one(&params, *d).to_bits(), NORM_MAX.to_bits());
                    }
                }
            }
        }
        assert!(listed > 0);
    }

    /// A refit that keeps the previous fit ([`FitPath::Plateau`]) is the
    /// selection it skips: for every `k'` in `1..n`, after a previous fit
    /// at several `k`, the refit's params, rows below and tie count equal
    /// [`fit_selected`]'s at `k'`. It answers only inside the tie, never
    /// after a fit whose prefix reached a non-finite `|d|` or one the
    /// counts answered, and it does answer on a plateau.
    #[test]
    fn a_refit_in_the_tie_keeps_the_selected_fit() {
        let frames: Vec<Vec<Option<f64>>> = vec![
            // NULL, NaN, ±inf, signed zeros and a duplicated plateau at 40
            (0..200usize)
                .map(|i| match i % 10 {
                    0 => None,
                    1 => Some(f64::NAN),
                    2 => Some(f64::NEG_INFINITY),
                    3 => Some(-0.0),
                    4..=6 => Some(if i.is_multiple_of(2) { 40.0 } else { -40.0 }),
                    _ => Some((i % 23) as f64 - 11.0),
                })
                .collect(),
            // the join's shape: a few near rows, the rest on one plateau
            (0..200usize)
                .map(|i| {
                    Some(if i.is_multiple_of(19) {
                        (i / 19) as f64
                    } else {
                        600.0
                    })
                })
                .collect(),
            // mostly +inf: past the few finite rows the prefix is not finite
            (0..120usize)
                .map(|i| {
                    Some(if i.is_multiple_of(20) {
                        i as f64
                    } else {
                        f64::INFINITY
                    })
                })
                .collect(),
        ];
        let sorted = |below: &Below| {
            below.as_ref().map(|rows| {
                let mut rows = rows.rows.to_vec();
                rows.sort_unstable();
                rows
            })
        };
        let mut kept = 0;
        for values in &frames {
            let frame = DistanceFrame::from_options(values);
            let (n, stats) = (frame.len(), FrameStats::of_frame(&frame));
            for k0 in [1, 5, 20, 50, 100, 119, 150, 199] {
                let (params0, below0, tied0, path0) =
                    fit_with_below(n, &stats, 1.0, k0, Some(&frame), None, None);
                let finite_prefix = fit_k(n, 1.0, k0).is_some_and(|k| {
                    let mut abs: Vec<f64> = values.iter().flatten().map(|d| d.abs()).collect();
                    abs.sort_by(f64::total_cmp);
                    abs[..k.min(abs.len())].iter().all(|d| d.is_finite())
                });
                if path0 != FitPath::Selected || !finite_prefix || params0.dmax <= 0.0 {
                    assert_eq!(tied0, 0, "k0={k0}");
                }
                let prev = Some((params0, &below0, tied0));
                for k in 1..n {
                    let (params, below, tied, path) =
                        fit_with_below(n, &stats, 1.0, k, Some(&frame), prev, None);
                    let Err(kk) = fit_from_counts(n, &stats, 1.0, k) else {
                        assert_eq!(path, FitPath::Counts);
                        continue;
                    };
                    let (want, want_below, want_tied) = fit_selected(&frame, kk);
                    assert_eq!(params, want, "k0={k0} k={k}");
                    assert_eq!(sorted(&below), sorted(&Some(Arc::new(want_below.into()))));
                    assert_eq!(tied, want_tied, "k0={k0} k={k}");
                    let rows_below = below0.as_ref().map_or(0, |below| below.rows.len());
                    let in_tie = rows_below < kk && kk <= rows_below + tied0;
                    let may_keep = path0 == FitPath::Selected && tied0 > 0;
                    assert_eq!(
                        path == FitPath::Plateau,
                        may_keep && in_tie,
                        "k0={k0} k={k}"
                    );
                    kept += usize::from(path == FitPath::Plateau);
                }
            }
        }
        assert!(kept > 0, "the refit never kept the fit");
    }

    /// [`fit_from_sketch`] at every fit count `k` of a strided range and at
    /// every bucket edge the nearest `k − zeros` inexact rows can end on,
    /// against [`fit_selected`] over the filled frame, for `x ≥ t` and
    /// `x ≤ t`: the same params, the same rows below the plateau (by row
    /// id, each with its raw `d`), the same tie count. Over hashed floats
    /// with duplicates, a column whose zeros are a single-value bucket, and
    /// integers past ±2^53 whose `x − t` rounds rows of many codes to one
    /// `|d|`; `t` on a bound, between bounds, below every bound (code 0)
    /// and above every bound (code 255). Returns whether some fit tied
    /// with rows coded beyond the bucket its rows below end in (1) or not.
    fn check_sketch_fit<T: NativeNumeric>(
        xs: &[T],
        value: impl Fn(T) -> Value,
        ts: &[f64],
    ) -> usize {
        use visdb_distance::batch::{run_frame, CompareKernel, NumericKernel};
        let mut col = ColumnData::new(value(xs[0]).data_type());
        for &x in xs {
            col.push(value(x)).unwrap();
        }
        let sketch = ColumnSketch::build(&col).expect("a finite column without NULLs");
        let (n, bounds) = (xs.len(), sketch.bounds());
        let mut ts = ts.to_vec();
        ts.extend([
            bounds[0],
            bounds[bounds.len() / 2],
            bounds[bounds.len() - 1],
        ]);
        let (mut fitted, mut beyond_far) = (0, 0);
        for (greater, t) in ts.iter().flat_map(|&t| [(true, t), (false, t)]) {
            let kind = if greater {
                CompareKernel::Greater
            } else {
                CompareKernel::Less
            };
            let mut frame = DistanceFrame::undefined(n);
            let stats = {
                let (vals, mask) = frame.parts_mut();
                run_frame(xs, None, NumericKernel::Compare(kind, Some(t)), vals, mask)
            };
            let zeros = stats.zeros;
            // the edges of the buckets the nearest inexact rows fill, from
            // the threshold's code outward
            let (at, past) = coded_past(&sketch, (greater, t));
            let counts = sketch.counts();
            let exact_at = zeros - past;
            let mut edge = zeros + counts[at] - exact_at;
            let mut ks: Vec<usize> = (zeros + 1..n).step_by((n / 31).max(1)).collect();
            for step in 1..=bounds.len().min(24) {
                ks.extend([edge, edge + 1]);
                let next = if greater {
                    at.checked_sub(step)
                } else {
                    Some(at + step)
                };
                let Some(c) = next.filter(|&c| c <= bounds.len()) else {
                    break;
                };
                edge += counts[c];
            }
            ks.retain(|&k| zeros < k && k < n);
            ks.sort_unstable();
            ks.dedup();
            for k in ks {
                let what = format!("greater {greater}, t {t}, k {k}");
                let (params, below, tied) =
                    fit_from_sketch(xs, &sketch, (greater, t), zeros, k, k % 2 == 0);
                let (want, want_below, want_tied) = fit_selected(&frame, k);
                assert_eq!((params, tied), (want, want_tied), "{what}");
                let below = below.expect("a fit over fewer than the defined rows");
                let mut want_below = want_below;
                want_below.sort_unstable();
                assert_eq!(below.rows, want_below, "{what}");
                let raw: Vec<u64> = below
                    .rows
                    .iter()
                    .map(|&r| frame.values()[r as usize].to_bits())
                    .collect();
                assert_eq!(
                    below.raw.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    raw,
                    "{what}"
                );
                fitted += 1;
                if beyond_far > 0 {
                    continue;
                }
                // rows at `dmax` whose codes lie past the bucket the
                // nearest `k − zeros` rows end in
                let at_dmax = (0..n).filter(|&i| frame.values()[i].abs() == params.dmax);
                let far_code = |i: usize| sketch.codes()[i];
                let codes: Vec<u8> = below.rows.iter().map(|&r| far_code(r as usize)).collect();
                let near_end = if greater {
                    codes.iter().min()
                } else {
                    codes.iter().max()
                };
                beyond_far += usize::from(near_end.is_some_and(|&end| {
                    at_dmax.into_iter().any(|i| {
                        if greater {
                            far_code(i) < end
                        } else {
                            far_code(i) > end
                        }
                    })
                }));
            }
        }
        assert!(fitted > 0);
        beyond_far
    }

    #[test]
    fn a_sketch_fit_is_the_selection_over_the_frame() {
        let n = 2_000;
        // hashed floats, each value about three times
        let hashed: Vec<f64> = (0..n).map(|i| ((i * 7_919) % 1_009) as f64 / 4.0).collect();
        check_sketch_fit(&hashed, Value::Float, &[100.0, 100.1, -1e3, 1e3]);
        // 40 % zeros: the zeros are a bucket of their own
        let popular: Vec<f64> = (0..n)
            .map(|i| {
                if i % 5 < 2 {
                    0.0
                } else {
                    (i % 613) as f64 - 300.0
                }
            })
            .collect();
        check_sketch_fit(&popular, Value::Float, &[0.5, -0.5, 0.0, 1e-300]);
        // integers past 2^54 (a widened value steps by 4) on both sides of
        // zero; `x − t` against a threshold near ±2^62 rounds to steps of
        // 1024, so rows of many codes share one `|d|`
        let wide: Vec<i64> = (0..n as i64)
            .map(|i| {
                let offset = (i * 7_919) % 100_000 * 3;
                if i % 2 == 0 {
                    (1 << 54) + offset
                } else {
                    -(1 << 54) - offset
                }
            })
            .collect();
        let far = 2f64.powi(62);
        let ties = check_sketch_fit(&wide, Value::Int, &[far, -far, 0.0, 2f64.powi(54) + 7.0]);
        assert!(ties > 0, "no fit tied with rows beyond its farthest bucket");
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
