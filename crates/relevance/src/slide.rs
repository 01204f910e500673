//! A slid comparison window, re-derived from its predecessor (§6: a
//! slider modification pays only for what it changed).
//!
//! An `x ≥ t` / `x ≤ t` window whose exact answers cover its fit count
//! is its packed exact bits and its stats alone, and both are position
//! arithmetic on the column's [`SortedProjection`]: the exact answers of
//! `x ≥ t` are the sorted positions from `position_ge(t)` on, those of
//! `x ≤ t` the positions below `position_gt(t)`. So when the slider moves
//! the threshold from `t₀` to `t`, the new exact bits are the old ones
//! with the rows at the positions between the two cuts flipped, and the
//! column is not read at all. The rows a column leaves undefined (NULL,
//! NaN) do not depend on the threshold, so the definedness bits carry
//! over unchanged.

use std::ops::Range;

use visdb_distance::frame::FrameStats;
use visdb_distance::registry::ColumnDistance;
use visdb_index::SortedProjection;
use visdb_query::ast::{CompareOp, ConditionNode, Predicate, PredicateTarget};

use crate::cache::PipelineCache;
use crate::eval::{EvalContext, WindowEval};

/// An `x ≥ t` (`greater`) or `x ≤ t` comparison read off a sorted
/// projection: the sorted positions of its exact answers and the stats a
/// distance walk of the column folds (`batch::compare_pack` derives them
/// the same way). `None` when the projection holds `±inf` or a distance
/// `|x − t|` overflows: the stats would count non-finite distances, which
/// the arithmetic does not reproduce.
pub fn projected_compare(
    proj: &SortedProjection,
    greater: bool,
    t: f64,
) -> Option<(Range<usize>, FrameStats)> {
    if !proj.is_fully_finite() {
        return None;
    }
    let m = proj.defined();
    let exact = if greater {
        cut(proj, true, t)..m
    } else {
        0..cut(proj, false, t)
    };
    if m == 0 {
        return Some((exact, FrameStats::default()));
    }
    // |d| of sorted position j outside the exact band: for x < t,
    // |x − t| == t − x exactly (rounding is sign-symmetric)
    let abs_at = |j: usize| {
        let x = proj.value_at(j);
        if greater {
            t - x
        } else {
            x - t
        }
    };
    // every inexact row lies beyond every exact one: the far end is
    // inexact unless all are exact, the near one when none is
    let (near, far) = if greater { (m - 1, 0) } else { (0, m - 1) };
    let e = exact.len();
    let max_abs = if e == m { 0.0 } else { abs_at(far) };
    let min_abs = if e > 0 { 0.0 } else { abs_at(near) };
    let stats = FrameStats {
        defined: m,
        min_abs,
        max_abs,
        non_finite: 0,
        zeros: e,
    };
    max_abs.is_finite().then_some((exact, stats))
}

/// The sorted position where the exact answers of `x ≥ t` (`greater`)
/// start, or those of `x ≤ t` end.
fn cut(proj: &SortedProjection, greater: bool, t: f64) -> usize {
    if greater {
        proj.position_ge(t)
    } else {
        proj.position_gt(t)
    }
}

/// Whether a slid window over `n` rows whose rows between the old and the
/// new threshold number `band` is re-derived from its predecessor rather
/// than walked. Measured at 1 M rows on a 2-core x86-64 box, across
/// runs: a re-derivation costs 1.0–1.8 ns a band row on one thread (the
/// 125 KB exact bits copied once, then one bit flipped per row of a
/// random permutation); the compare-and-pack walk 0.6–0.85 ns a row over
/// a float column without NULLs and 1.2 ns a row over one with 5 %
/// NULLs, on both cores. At half the rows the two cost about the same,
/// so past it the walk runs.
pub fn slide_takes_projection(n: usize, band: usize) -> bool {
    band <= n / 2
}

/// A predicate leaf `x > t` / `≥` / `<` / `≤` with a finite numeric `t`,
/// with its direction (`true`: `x ≥ t`) and threshold.
fn comparison(node: &ConditionNode) -> Option<(&Predicate, bool, f64)> {
    let ConditionNode::Predicate(p) = node else {
        return None;
    };
    let PredicateTarget::Compare { op, value } = &p.target else {
        return None;
    };
    let greater = match op {
        CompareOp::Gt | CompareOp::Ge => true,
        CompareOp::Lt | CompareOp::Le => false,
        CompareOp::Eq | CompareOp::Ne => return None,
    };
    let t = value.as_f64().filter(|t| t.is_finite())?;
    Some((p, greater, t))
}

/// The window of `node`, a comparison leaf whose fit count is `k`,
/// re-derived from a window over the same attribute in the same direction
/// that the session cache holds from the previous run — or `None` when
/// the walk must run: the node is no such leaf, the column is not read
/// by the compare-and-pack kernel (no native numeric buffer, or a
/// distance other than [`ColumnDistance::Numeric`]), the table holds no
/// built projection of the column (this never builds one), the
/// projection arithmetic declines ([`projected_compare`]), the exact
/// answers do not cover `k` (the walk would keep a raw frame), no cached
/// window qualifies (its counts must be the projection's at its own
/// threshold, the check that it read the same rows), or the band is too
/// wide ([`slide_takes_projection`]). The result is the [`WindowEval`]
/// the walk returns: no frame, the stats and the bits.
pub(crate) fn from_predecessor(
    ctx: &EvalContext<'_>,
    node: &ConditionNode,
    k: usize,
    cache: Option<&PipelineCache>,
) -> Option<WindowEval> {
    let cache = cache?;
    let (pred, greater, t) = comparison(node)?;
    let (col, dt, class, column) = ctx.column(&pred.attr).ok()?;
    let cd = ctx.distance_for(&pred.attr, dt, class);
    if col.numeric_slice().is_none() || !matches!(cd, ColumnDistance::Numeric) {
        return None;
    }
    let table = ctx.table;
    // the previous run's windows over the same column in the same
    // direction, with their bits — looked for before the projection
    let n = table.len();
    let predecessors = || {
        cache.windows().filter_map(|(node, win)| {
            let (old, g, t0) = comparison(node)?;
            let bits = win.bits.get().filter(|(exact, _)| exact.len() == n)?;
            (old.attr == pred.attr && g == greater).then_some((t0, &win.stats, bits))
        })
    };
    predecessors().next()?;
    let proj = table.built_projection(table.schema().index_of(&column)?)?;
    let (exact, stats) = projected_compare(proj, greater, t)?;
    if stats.zeros < k {
        return None;
    }
    let (m, p1) = (stats.defined, if greater { exact.start } else { exact.end });
    let (band, (old_exact, defined)) = predecessors()
        .filter_map(|(t0, old, bits)| {
            // its walk counted what the projection counts at t₀
            let p0 = cut(proj, greater, t0);
            let e0 = if greater { m - p0 } else { p0 };
            (old.defined == m && old.zeros == e0).then_some((p0.min(p1)..p0.max(p1), bits))
        })
        .min_by_key(|(band, _)| band.len())?;
    if !slide_takes_projection(n, band.len()) {
        return None;
    }
    let mut bits = old_exact.clone();
    bits.toggle(proj.rows_between(band.start, band.end));
    Some(WindowEval {
        label: pred.label(),
        signed: cd.is_signed(),
        raw: None,
        stats,
        bits: Some((bits, defined.clone())),
        chunks_compare_packed: 0,
        chunks_sketch_packed: 0,
        join_inner_bits: false,
        fit: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use visdb_distance::batch::{compare_pack, CompareKernel, NumericKernel};

    /// The projection's stats and exact positions are what one
    /// compare-and-pack pass over the column folds — exact answers none,
    /// some or all, `-0.0` against `0.0`, NULL and NaN rows — and both
    /// decline an overflowing distance.
    #[test]
    fn projected_stats_are_the_compare_pack_stats() {
        let xs = [3.0, -0.0, f64::NAN, 0.0, 7.5, -2.0, 3.0, 1.0, 0.0, -4.0];
        let valid = [true, true, true, true, true, true, false, true, true, true];
        let get = |i: usize| valid[i].then_some(xs[i]);
        let proj = SortedProjection::build(xs.len(), get);
        for greater in [true, false] {
            for t in [-5.0, -4.0, -0.0, 0.0, 0.5, 3.0, 7.5, 8.0] {
                let kind = if greater {
                    CompareKernel::Greater
                } else {
                    CompareKernel::Less
                };
                let kernel = NumericKernel::Compare(kind, Some(t));
                let (stats, exact, _) = compare_pack(&xs, Some(&valid), kernel).unwrap();
                let (rows, got) = projected_compare(&proj, greater, t).unwrap();
                assert_eq!(got, stats, "greater {greater}, t {t}");
                let mut bits = visdb_distance::frame::PackedBits::filled(xs.len(), false);
                bits.toggle(proj.rows_between(rows.start, rows.end));
                assert_eq!(bits, exact, "greater {greater}, t {t}");
            }
        }
        let huge = [-1.5e308, 0.0, 1.5e308];
        let proj = SortedProjection::build(huge.len(), |i| Some(huge[i]));
        assert!(projected_compare(&proj, true, 1e308).is_none());
        assert!(projected_compare(&proj, false, -1e308).is_none());
        assert!(projected_compare(&proj, true, 0.0).is_some());
        let inf = [1.0, f64::INFINITY];
        let proj = SortedProjection::build(inf.len(), |i| Some(inf[i]));
        assert!(projected_compare(&proj, true, 0.5).is_none());
    }

    #[test]
    fn the_guard_takes_up_to_half_the_rows() {
        assert!(slide_takes_projection(1_000, 500));
        assert!(!slide_takes_projection(1_000, 501));
        assert!(slide_takes_projection(1_001, 500) && !slide_takes_projection(1_001, 501));
    }
}
