//! Extending cached predicate windows across *data* appends — the §6
//! reuse principle ("retrieve only the additional portion") applied to
//! data change instead of query change.
//!
//! A stored window can be extended when its per-row distances are a pure
//! function of each row's own value: then the appended rows can be
//! evaluated alone through the same branchless kernels, their fused
//! stats merged into the cached stats exactly (the merge is
//! order-independent), the raw frame grown by a memcpy and its packed
//! exact bits — once folded — by Δ bits; a window kept as its bits alone
//! grows only them. The one global coupling is the
//! §5.2 weight-proportional normalization fit: if the appended rows shift
//! the fitted `(dmin, dmax)` — say a new nearest row displaces the k-th
//! smallest distance — the normalization of *old* rows changes too; but
//! normalized distances are derived from the raw frame and the fit, so a
//! shifted fit is a new `NormParams` and nothing else. Either way
//! append-then-query is bit-identical to rebuild-from-scratch.

use std::sync::{Arc, OnceLock};

use visdb_distance::frame::PackedBits;
use visdb_distance::registry::{ColumnDistance, DistanceResolver};
use visdb_query::ast::ConditionNode;
use visdb_storage::{Database, Table};

use crate::eval::{EvalContext, ExecMode};
use crate::normalize::{
    counted_below, covered_by_exact, fit_frame_extended, fit_with_below, params_from_max,
};
use crate::pipeline::PredicateWindow;

/// What it takes, beside the stored window itself (which carries its
/// weight, row count, raw frame or bits, and stats), to grow the
/// window by appended rows: the evaluation inputs.
#[derive(Debug, Clone)]
pub struct WindowRecipe {
    /// Base relation the window was evaluated over.
    pub table: String,
    /// Display budget the normalization was fitted with.
    pub budget: usize,
    /// The condition subtree (a single extendable predicate).
    pub node: ConditionNode,
}

/// Build the append-extension recipe for an evaluated window, or `None`
/// for shapes that cannot be extended row-locally:
///
/// * only bare `Predicate` leaves qualify — connections and subqueries
///   evaluate against *other* relations, and `And`/`Or`/`Not` interiors
///   re-normalize with child fits over the full distribution;
/// * the predicate's column must resolve to [`ColumnDistance::Numeric`]:
///   string/ordinal distances run through column-level artifacts
///   (dictionaries, rank tables) that appends reshape, so a delta-only
///   evaluation is not guaranteed to reproduce the full-column pass.
pub fn extension_recipe(ctx: &EvalContext<'_>, node: &ConditionNode) -> Option<WindowRecipe> {
    let ConditionNode::Predicate(p) = node else {
        return None;
    };
    let (_, dt, class, _) = ctx.column(&p.attr).ok()?;
    if !matches!(
        ctx.distance_for(&p.attr, dt, class),
        ColumnDistance::Numeric
    ) {
        return None;
    }
    Some(WindowRecipe {
        table: ctx.table.name().to_string(),
        budget: ctx.display_budget,
        node: node.clone(),
    })
}

/// Grow a stored window by the appended rows of `delta` (a sub-table
/// holding **only** the rows past `win.len()`): evaluate the delta
/// through the standard kernels, merge stats, refit, and append the
/// delta's raw distances to the cached frame — and its exact bits to
/// the window's packed ones, when those have been folded. A window kept
/// without its frame grows its bits and stats, with no frame to append
/// to, and is kept only while its merged exact answers cover its fit: its
/// fit is then `dmax = 0` with no row below the plateau, whatever it was.
/// Returns `None` when the delta fails to evaluate, or when a window
/// without its frame is not covered — a fitted one's rows below its
/// plateau cannot be refit without the frame — and the caller then drops
/// the entry and the next query re-evaluates in full.
///
/// Shared caches only ever hold default-resolver evaluations (sessions
/// with custom resolvers detach from them), so the delta pass uses a
/// default [`DistanceResolver`].
pub fn extend_window(
    db: &Database,
    delta: &Table,
    win: &PredicateWindow,
    recipe: &WindowRecipe,
) -> Option<PredicateWindow> {
    let (old_len, stats) = (win.len(), win.stats());
    let resolver = DistanceResolver::new();
    let ctx = EvalContext {
        db,
        table: delta,
        resolver: &resolver,
        display_budget: recipe.budget,
        mode: ExecMode::Vectorized,
        partitions: None,
        cancel: None,
    };
    let dev = ctx.eval_node(&recipe.node).ok()?;
    let mut merged = *stats;
    merged.merge(&dev.stats);
    let new_len = old_len + delta.len();
    let ext_bits = win.bits.get().map(|(exact, defined)| {
        let (delta_exact, delta_defined) = dev.distances.exact_bits_in(0..delta.len());
        let mut exact = exact.clone();
        exact.append(&delta_exact);
        // definedness stays implicit until a row is undefined
        let defined = (merged.defined < new_len).then(|| {
            let all = || PackedBits::from_bools(std::iter::repeat_n(true, old_len));
            let mut defined = defined.clone().unwrap_or_else(all);
            defined.append(&delta_defined);
            defined
        });
        (exact, defined)
    });
    let bits = Arc::new(ext_bits.map_or_else(OnceLock::new, OnceLock::from));
    let Some(raw) = win.raw_frame() else {
        // the fit is `dmax = 0` while the exact answers cover it; a fitted
        // window's rows below its plateau and their raw distances go
        return covered_by_exact(new_len, &merged, win.weight, recipe.budget).then(|| {
            PredicateWindow {
                stats: merged,
                bits,
                norm_params: params_from_max(0.0),
                below: counted_below(new_len, &merged, win.weight, recipe.budget),
                tied: 0,
                ..win.clone()
            }
        });
    };
    let ext_raw = raw.concat(&dev.distances);
    // refit in O(Δ) when the old k-th order statistic provably still
    // governs; fall back to the full selection over the extended frame
    // when the delta may have displaced it (bit-identical both ways —
    // the fast path only fires when the answer is forced). The old tie
    // count does not cover the delta's rows: the O(Δ) refit drops it,
    // the selection counts the extended frame's own.
    let (norm_params, below, tied) = fit_frame_extended(
        old_len,
        stats,
        (win.norm_params, &win.below),
        &dev.distances,
        &merged,
        win.weight,
        recipe.budget,
    )
    .map(|(params, below)| (params, below, 0))
    .unwrap_or_else(|| {
        let budget = recipe.budget;
        let (params, below, tied, _) = fit_with_below(
            new_len,
            &merged,
            win.weight,
            budget,
            Some(&ext_raw),
            None,
            None,
        );
        (params, below, tied)
    });
    Some(PredicateWindow {
        raw: Some(Arc::new(ext_raw)),
        stats: merged,
        bits,
        norm_params,
        below,
        tied,
        ..win.clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_pipeline, DisplayPolicy, PipelineOptions};
    use visdb_distance::frame::FrameStats;
    use visdb_query::ast::{AttrRef, CompareOp, Predicate, Weighted};
    use visdb_storage::{Database, TableBuilder};
    use visdb_types::{Column, DataType, Value};

    fn db_with(values: &[Option<f64>]) -> Database {
        let mut b = TableBuilder::new(
            "T",
            vec![
                Column::new("x", DataType::Float),
                Column::new("s", DataType::Str),
            ],
        );
        for (i, v) in values.iter().enumerate() {
            let x = v.map_or(Value::Null, Value::Float);
            b = b.row(vec![x, Value::from(format!("s{}", i % 3))]).unwrap();
        }
        let mut db = Database::new("d");
        db.add_table(b.build());
        db
    }

    fn window_for(db: &Database, node: &ConditionNode, budget: usize) -> PredicateWindow {
        let table = db.table("T").unwrap();
        let resolver = DistanceResolver::new();
        let out = run_pipeline(
            db,
            table,
            &resolver,
            Some(&Weighted::unit(node.clone())),
            &DisplayPolicy::FitScreen {
                pixels: budget,
                pixels_per_item: 1,
            },
            PipelineOptions::default(),
        )
        .unwrap();
        out.windows.into_iter().next().unwrap()
    }

    #[test]
    fn extension_matches_full_reevaluation_even_when_the_fit_shifts() {
        let node =
            ConditionNode::Predicate(Predicate::compare(AttrRef::new("x"), CompareOp::Ge, 1000.0));
        // distinct ramp -> distinct |d|, so the k-th order statistic is
        // unambiguous; NULLs and NaNs ride along
        let base: Vec<Option<f64>> = (0..64)
            .map(|i| match i % 7 {
                0 => None,
                1 => Some(f64::NAN),
                _ => Some(i as f64),
            })
            .collect();
        // a delta far from the bound leaves the k smallest |d| (and so
        // the fit) untouched; a delta row closer than the current k-th
        // smallest shifts the fit, and every old row's normalization
        // with it
        for (delta_vals, fit_shifts) in [
            (vec![Some(5.5), None, Some(3.25)], false),
            (vec![Some(999.0)], true),
        ] {
            let mut all = base.clone();
            all.extend(delta_vals.iter().cloned());
            let old_db = db_with(&base);
            let new_db = db_with(&all);
            let budget = 16;
            let win = window_for(&old_db, &node, budget);
            let recipe = WindowRecipe {
                table: "T".into(),
                budget,
                node: node.clone(),
            };
            let idx: Vec<usize> = (base.len()..all.len()).collect();
            let delta = new_db.table("T").unwrap().gather("T", &idx);
            let ext = extend_window(&new_db, &delta, &win, &recipe).expect("a numeric leaf");
            let full = window_for(&new_db, &node, budget);
            assert_eq!(ext.norm_params != win.norm_params, fit_shifts);
            // no exact answer at all: both windows keep their frames
            let (eraw, fraw) = (ext.raw_frame().unwrap(), full.raw_frame().unwrap());
            assert!(eraw.bits_eq(fraw), "raw frames diverge");
            for i in 0..=all.len() {
                let (e, f) = (ext.normalized_at(i), full.normalized_at(i));
                assert_eq!(
                    e.map(f64::to_bits),
                    f.map(f64::to_bits),
                    "normalized row {i}"
                );
            }
            assert_eq!(ext.norm_params, full.norm_params);
            assert_eq!(ext.len(), all.len());
            assert_eq!(ext.stats(), &FrameStats::of_frame(fraw));
        }
    }

    /// A window whose packed bits have been folded grows them by Δ bits —
    /// across word boundaries, with definedness staying implicit until
    /// the first undefined row arrives — to exactly the bits a cold
    /// evaluation of the whole relation folds; one that never folded
    /// them still has nothing to grow.
    #[test]
    fn extension_grows_the_packed_bits_across_word_boundaries() {
        let node =
            ConditionNode::Predicate(Predicate::compare(AttrRef::new("x"), CompareOp::Ge, 50.0));
        let value = |i: usize| match i % 9 {
            0..=3 => Some(50.0 + i as f64), // exact
            _ => Some((i % 50) as f64),
        };
        for old_len in [1usize, 63, 100, 130] {
            for delta_len in [1usize, 63, 64, 200] {
                for nulls in [false, true] {
                    // NULLs only among the appended rows: the old
                    // window's definedness bits are `None`
                    let row =
                        |i: usize| value(i).filter(|_| !(nulls && i >= old_len && i % 5 == 2));
                    let all: Vec<Option<f64>> = (0..old_len + delta_len).map(row).collect();
                    let (old_db, new_db) = (db_with(&all[..old_len]), db_with(&all));
                    let budget = 16;
                    let recipe = WindowRecipe {
                        table: "T".into(),
                        budget,
                        node: node.clone(),
                    };
                    let idx: Vec<usize> = (old_len..all.len()).collect();
                    let delta = new_db.table("T").unwrap().gather("T", &idx);
                    let what = format!("{old_len} + {delta_len} rows, nulls: {nulls}");

                    let unfolded = window_for(&old_db, &node, budget);
                    let folded = unfolded.bits.get().is_some();
                    let ext = extend_window(&new_db, &delta, &unfolded, &recipe).unwrap();
                    assert_eq!(ext.bits.get().is_some(), folded, "{what}");

                    let old = window_for(&old_db, &node, budget);
                    assert!(old.exact_bits().1.is_none(), "{what}");
                    let ext = extend_window(&new_db, &delta, &old, &recipe).unwrap();
                    let grown = ext.bits.get().expect("grown, not refolded");
                    let cold = window_for(&new_db, &node, budget);
                    assert_eq!(grown, cold.exact_bits(), "{what}");
                    assert_eq!(grown.0.count_ones(), ext.zero_raw_count(), "{what}");
                    assert_eq!(grown.1.is_some(), nulls && all.iter().any(Option::is_none));
                }
            }
        }
    }

    /// A window kept as its exact bits grows its bits and stats by Δ rows
    /// and writes no frame — across word boundaries, with NULLs arriving
    /// in Δ: bits, stats and fit equal a cold evaluation's, and it stays
    /// bits-only. Under a budget its merged exact answers do not cover,
    /// the extension declines.
    #[test]
    fn bits_only_extension_grows_bits_and_stats_not_frames() {
        let node =
            ConditionNode::Predicate(Predicate::compare(AttrRef::new("x"), CompareOp::Ge, 50.0));
        let value = |i: usize| match i % 9 {
            0..=3 => Some(50.0 + i as f64), // exact
            _ => Some((i % 50) as f64),
        };
        let mut bits_only = 0;
        for old_len in [1usize, 63, 100, 130] {
            for delta_len in [1usize, 63, 64, 200] {
                for nulls in [false, true] {
                    let row =
                        |i: usize| value(i).filter(|_| !(nulls && i >= old_len && i % 5 == 2));
                    let all: Vec<Option<f64>> = (0..old_len + delta_len).map(row).collect();
                    let (old_db, new_db) = (db_with(&all[..old_len]), db_with(&all));
                    let budget = 16;
                    let recipe = WindowRecipe {
                        table: "T".into(),
                        budget,
                        node: node.clone(),
                    };
                    let idx: Vec<usize> = (old_len..all.len()).collect();
                    let delta = new_db.table("T").unwrap().gather("T", &idx);
                    let what = format!("{old_len} + {delta_len} rows, nulls: {nulls}");

                    let old = window_for(&old_db, &node, budget);
                    let ext = extend_window(&new_db, &delta, &old, &recipe).unwrap();
                    let cold = window_for(&new_db, &node, budget);
                    assert_eq!(ext.exact_bits(), cold.exact_bits(), "{what}");
                    assert_eq!(ext.stats(), cold.stats(), "{what}");
                    assert_eq!(ext.norm_params, cold.norm_params, "{what}");
                    assert_eq!(ext.len(), all.len(), "{what}");
                    if old.raw_frame().is_some() {
                        continue;
                    }
                    bits_only += 1;
                    assert!(
                        ext.raw_frame().is_none() && cold.raw_frame().is_none(),
                        "{what}"
                    );
                    let uncovered = WindowRecipe {
                        budget: all.len(),
                        ..recipe
                    };
                    assert!(
                        extend_window(&new_db, &delta, &old, &uncovered).is_none(),
                        "{what}"
                    );
                }
            }
        }
        // every old length but the single row (whose fit covers it) is
        // two-valued and kept as its bits
        assert_eq!(bits_only, 3 * 4 * 2);
    }

    #[test]
    fn recipes_are_numeric_predicate_leaves_only() {
        let db = db_with(&[Some(1.0), Some(2.0)]);
        let table = db.table("T").unwrap();
        let resolver = DistanceResolver::new();
        let ctx = EvalContext {
            db: &db,
            table,
            resolver: &resolver,
            display_budget: 8,
            mode: ExecMode::Vectorized,
            partitions: None,
            cancel: None,
        };
        let numeric = Weighted::unit(ConditionNode::Predicate(Predicate::compare(
            AttrRef::new("x"),
            CompareOp::Ge,
            1.0,
        )));
        assert!(extension_recipe(&ctx, &numeric.node).is_some());
        let string = Weighted::unit(ConditionNode::Predicate(Predicate::compare(
            AttrRef::new("s"),
            CompareOp::Eq,
            "s1",
        )));
        assert!(
            extension_recipe(&ctx, &string.node).is_none(),
            "string distances are column-dependent"
        );
        let and = Weighted::unit(ConditionNode::And(vec![numeric.clone()]));
        assert!(extension_recipe(&ctx, &and.node).is_none());
    }
}
