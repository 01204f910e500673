//! Cross-crate property-based tests: pipeline invariants on arbitrary
//! data and queries.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use visdb::core::{Paint, ASCII_COLS};
use visdb::index::{projection_key, ProjectionSource};
use visdb::prelude::*;
use visdb::relevance::{PipelineCache, SharedWindows, WindowRecipe, WindowSource};
use visdb::render::ascii::to_ascii;
use visdb::render::{write_ppm, Framebuffer};

fn table_from(values: &[f64]) -> Database {
    let mut t = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
    for &v in values {
        t = t.row(vec![Value::Float(v)]).unwrap();
    }
    let mut db = Database::new("d");
    db.add_table(t.build());
    db
}

/// A two-column table where `tag` steers NULL/NaN placement: `tag == 0`
/// nulls the numeric column, `tag == 1` nulls the string column,
/// `tag == 2` makes the numeric value NaN — so the vectorized kernels
/// and the packed-frame fits see every validity shape (including
/// NULL/NaN-heavy inputs) and string windows see NULL operands.
fn table_with_nulls(rows: &[(f64, u8)]) -> Database {
    let mut t = TableBuilder::new(
        "T",
        vec![
            Column::new("x", DataType::Float),
            Column::new("s", DataType::Str),
        ],
    );
    for (i, &(v, tag)) in rows.iter().enumerate() {
        let x = match tag {
            0 => Value::Null,
            2 => Value::Float(f64::NAN),
            _ => Value::Float(v),
        };
        let s = if tag == 1 {
            Value::Null
        } else {
            Value::Str(format!("s{}", i % 5))
        };
        t = t.row(vec![x, s]).unwrap();
    }
    let mut db = Database::new("d");
    db.add_table(t.build());
    db
}

/// A one-column table where `tag` steers NULL/NaN/±inf placement —
/// every validity and finiteness shape the distance walks, fit
/// selections and combine pass must reproduce bit-exactly.
fn table_with_extremes(rows: &[(f64, u8)]) -> Database {
    let mut t = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
    for &(v, tag) in rows {
        let x = match tag {
            0 => Value::Null,
            1 => Value::Float(f64::NAN),
            2 => Value::Float(f64::INFINITY),
            3 => Value::Float(f64::NEG_INFINITY),
            _ => Value::Float(v),
        };
        t = t.row(vec![x]).unwrap();
    }
    let mut db = Database::new("d");
    db.add_table(t.build());
    db
}

/// Bitwise equality of two optional distances (`Some(NaN)` compares
/// equal when the bit patterns match — the frame `bits_eq` rule).
fn opt_bits_eq(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

/// Every item's relevance factor, through the accessor.
fn relevance(out: &PipelineOutput) -> Vec<Option<f64>> {
    (0..out.n).map(|i| out.relevance(i)).collect()
}

/// The first field where two pipeline outputs diverge, or `None` when
/// they are equivalent. `fast.order` — what a vectorized path ranked —
/// must be a prefix of `slow.order` (the scalar reference ranks
/// everything) — except under the two-sided policy, whose ranking is
/// the displayed *band* rather than the global top-k (already covered
/// by the `displayed` comparison).
fn first_divergence(
    fast: &PipelineOutput,
    slow: &PipelineOutput,
    policy: &DisplayPolicy,
) -> Option<String> {
    if fast.n != slow.n {
        return Some(format!("n: {} != {}", fast.n, slow.n));
    }
    if fast.combined != slow.combined {
        return Some("combined distances diverge".into());
    }
    if relevance(fast) != relevance(slow) {
        return Some("relevance factors diverge".into());
    }
    if fast.num_exact != slow.num_exact {
        return Some(format!(
            "num_exact: {} != {}",
            fast.num_exact, slow.num_exact
        ));
    }
    if fast.displayed != slow.displayed {
        return Some(format!(
            "displayed: {:?} != {:?}",
            fast.displayed, slow.displayed
        ));
    }
    if fast.order.len() > slow.order.len() {
        return Some("order length diverges".into());
    }
    if !matches!(policy, DisplayPolicy::TwoSidedPercentage(_))
        && fast.order[..] != slow.order[..fast.order.len()]
    {
        return Some("sorted order prefix diverges".into());
    }
    if fast.windows.len() != slow.windows.len() {
        return Some("window count diverges".into());
    }
    for (i, (f, s)) in fast.windows.iter().zip(&slow.windows).enumerate() {
        if f.label != s.label || f.signed != s.signed || f.weight != s.weight {
            return Some(format!("window {i} metadata diverges"));
        }
        if let Some(diff) = distances_diverge(f, s) {
            return Some(format!("window {i} {diff}"));
        }
        if f.zero_raw_count() != s.zero_raw_count() {
            return Some(format!("window {i} exact counts diverge"));
        }
        if !normalized_bits_eq(f, s) {
            return Some(format!("window {i} normalized distances diverge"));
        }
        if f.norm_params != s.norm_params {
            return Some(format!("window {i} norm params diverge"));
        }
    }
    None
}

/// Where two windows' distances diverge: their raw frames when both
/// keep one; otherwise — a window kept as its exact bits alone — their
/// bits (folded from the frame of one that keeps it); and their stats
/// either way. (Normalized rows and fits are compared by the caller.)
fn distances_diverge(a: &PredicateWindow, b: &PredicateWindow) -> Option<&'static str> {
    match (a.raw_frame(), b.raw_frame()) {
        (Some(x), Some(y)) if !x.bits_eq(y) => Some("raw distances diverge"),
        (None, _) | (_, None) if a.exact_bits() != b.exact_bits() => Some("exact bits diverge"),
        _ => (a.stats() != b.stats()).then_some("stats diverge"),
    }
}

/// Two windows' derived normalized distances agree bit for bit on every
/// row.
fn normalized_bits_eq(a: &PredicateWindow, b: &PredicateWindow) -> bool {
    a.len() == b.len() && (0..a.len()).all(|i| opt_bits_eq(a.normalized_at(i), b.normalized_at(i)))
}

fn pick_policy(pick: usize, pct: f64) -> DisplayPolicy {
    match pick % 4 {
        0 => DisplayPolicy::Percentage(pct),
        1 => DisplayPolicy::FitScreen {
            pixels: 64,
            pixels_per_item: 1 + pick % 3,
        },
        2 => DisplayPolicy::GapHeuristic {
            rmin: 1,
            rmax: 30,
            z: 3,
        },
        _ => DisplayPolicy::TwoSidedPercentage(pct),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The vectorized path (columnar kernels, chunked execution, fused
    /// normalize+combine, top-k selection) is byte-identical to the
    /// per-tuple full-sort scalar reference, across display policies and
    /// NULL/validity-heavy columns.
    #[test]
    fn vectorized_pipeline_matches_scalar_reference(
        rows in prop::collection::vec((-1e4f64..1e4, 0u8..4), 1..250),
        threshold in -1e4f64..1e4,
        lo in -1e4f64..1e4,
        span in 0.0f64..5e3,
        pct in 1.0f64..100.0,
        pick in 0usize..4,
    ) {
        let db = table_with_nulls(&rows);
        let t = db.table("T").unwrap();
        let resolver = DistanceResolver::new();
        let q = QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, threshold)
            .between("x", lo, lo + span)
            .build();
        let policy = pick_policy(pick, pct);
        let fast = run_pipeline(&db, t, &resolver, q.condition.as_ref(), &policy, PipelineOptions::default());
        let slow = run_pipeline(&db, t, &resolver, q.condition.as_ref(), &policy, PipelineOptions { mode: ExecMode::Scalar, ..Default::default() });
        match (fast, slow) {
            (Ok(fast), Ok(slow)) => {
                let diff = first_divergence(&fast, &slow, &policy);
                prop_assert!(diff.is_none(), "{} under {:?}", diff.unwrap(), policy);
                prop_assert!(fast.order.len() >= fast.displayed.len());
            }
            (Err(_), Err(_)) => {} // both reject (e.g. gap params vs tiny n)
            (f, s) => prop_assert!(false, "one mode errored: {f:?} vs {s:?}"),
        }
    }

    /// Weighted multi-predicate AND/OR trees — flat, or with a nested
    /// boolean level re-normalized before the root combine — on NULL-,
    /// NaN- and ±inf-heavy columns: the vectorized path is bit-identical
    /// to the scalar reference across display policies.
    #[test]
    fn weighted_and_or_trees_match_scalar(
        rows in prop::collection::vec((-1e4f64..1e4, 0u8..8), 1..250),
        t1 in -1e4f64..1e4,
        t2 in -1e4f64..1e4,
        lo in -1e4f64..1e4,
        span in 0.0f64..5e3,
        w1 in 0.05f64..1.0,
        w2 in 0.05f64..1.0,
        w3 in 0.05f64..1.0,
        pct in 1.0f64..100.0,
        pick in 0usize..4,
        or_root_pick in 0u8..2,
        nested_pick in 0u8..2,
    ) {
        let (or_root, nested) = (or_root_pick == 1, nested_pick == 1);
        let db = table_with_extremes(&rows);
        let t = db.table("T").unwrap();
        let resolver = DistanceResolver::new();
        let p1 = ConditionNode::Predicate(Predicate::compare(AttrRef::new("x"), CompareOp::Ge, t1));
        let p2 = ConditionNode::Predicate(Predicate::range(AttrRef::new("x"), lo, lo + span));
        let p3 = ConditionNode::Predicate(Predicate::compare(AttrRef::new("x"), CompareOp::Lt, t2));
        let children = if nested {
            let inner = if or_root {
                ConditionNode::And(vec![Weighted::new(p2, w2), Weighted::new(p3, w3)])
            } else {
                ConditionNode::Or(vec![Weighted::new(p2, w2), Weighted::new(p3, w3)])
            };
            vec![Weighted::new(p1, w1), Weighted::new(inner, w2)]
        } else {
            vec![Weighted::new(p1, w1), Weighted::new(p2, w2), Weighted::new(p3, w3)]
        };
        let cond = Weighted::unit(if or_root {
            ConditionNode::Or(children)
        } else {
            ConditionNode::And(children)
        });
        let policy = pick_policy(pick, pct);
        let fast = run_pipeline(&db, t, &resolver, Some(&cond), &policy, PipelineOptions::default()).unwrap();
        let slow = run_pipeline(&db, t, &resolver, Some(&cond), &policy, PipelineOptions { mode: ExecMode::Scalar, ..Default::default() }).unwrap();
        let diff = first_divergence(&fast, &slow, &policy);
        prop_assert!(diff.is_none(), "{} vs scalar under {:?}", diff.unwrap(), policy);
    }

    /// Same equivalence for an OR query with an (unsigned) string window
    /// — exercises the per-tuple fallback kernel, the two-sided policy's
    /// fallback, and NULL string operands.
    #[test]
    fn vectorized_matches_scalar_on_string_or_queries(
        rows in prop::collection::vec((-100f64..100.0, 0u8..5), 1..200),
        threshold in -100f64..100.0,
        pct in 1.0f64..100.0,
        pick in 0usize..4,
    ) {
        let db = table_with_nulls(&rows);
        let t = db.table("T").unwrap();
        let resolver = DistanceResolver::new();
        let q = QueryBuilder::from_tables(["T"])
            .cmp("s", CompareOp::Eq, "s2")
            .cmp("x", CompareOp::Lt, threshold)
            .any()
            .build();
        let policy = pick_policy(pick, pct);
        let fast = run_pipeline(&db, t, &resolver, q.condition.as_ref(), &policy, PipelineOptions::default());
        let slow = run_pipeline(&db, t, &resolver, q.condition.as_ref(), &policy, PipelineOptions { mode: ExecMode::Scalar, ..Default::default() });
        match (fast, slow) {
            (Ok(fast), Ok(slow)) => {
                let diff = first_divergence(&fast, &slow, &policy);
                prop_assert!(diff.is_none(), "{} under {:?}", diff.unwrap(), policy);
            }
            (Err(_), Err(_)) => {}
            (f, s) => prop_assert!(false, "one mode errored: {f:?} vs {s:?}"),
        }
    }

    /// Pipeline invariants hold for arbitrary data and thresholds.
    #[test]
    fn pipeline_invariants(
        values in prop::collection::vec(-1e4f64..1e4, 1..300),
        threshold in -1e4f64..1e4,
        pct in 1.0f64..100.0,
    ) {
        let db = table_from(&values);
        let t = db.table("T").unwrap();
        let resolver = DistanceResolver::new();
        let q = QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, threshold)
            .build();
        let out = run_pipeline(&db, t, &resolver, q.condition.as_ref(),
            &DisplayPolicy::Percentage(pct),
            PipelineOptions::default(),).unwrap();

        // exact count matches the straight count
        let expect_exact = values.iter().filter(|&&v| v >= threshold).count();
        prop_assert_eq!(out.num_exact, expect_exact);

        // combined distances normalized into [0, 255]
        for d in out.combined.iter().flatten() {
            prop_assert!((0.0..=255.0).contains(&d));
        }
        // relevance is the mirror of combined
        for i in 0..out.n {
            match (out.combined.get(i), out.relevance(i)) {
                (Some(c), Some(r)) => prop_assert!((c + r - 255.0).abs() < 1e-9),
                (None, None) => {}
                other => prop_assert!(false, "mismatched defined-ness {other:?}"),
            }
        }
        // the ranking is ascending in combined distance, covers the
        // display set, and dominates every item it left unranked
        let ranked: Vec<usize> = out.ranked().collect();
        prop_assert!(ranked.len() >= out.displayed.len());
        for w in ranked.windows(2) {
            prop_assert!(out.combined.get(w[0]) <= out.combined.get(w[1]));
        }
        if let Some(&last) = ranked.last() {
            for i in (0..out.n).filter(|i| !ranked.contains(i)) {
                if let Some(d) = out.combined.get(i) {
                    prop_assert!(Some(d) >= out.combined.get(last));
                }
            }
        }
        prop_assert_eq!(&ranked[..out.displayed.len()], &out.displayed[..]);
        // display count respects the percentage
        let max_k = ((pct / 100.0) * values.len() as f64).round() as usize;
        prop_assert!(out.displayed.len() <= max_k.max(1));
    }

    /// AND is never more permissive than its parts; OR never less.
    #[test]
    fn boolean_semantics_of_exact_answers(
        values in prop::collection::vec(-100f64..100.0, 1..200),
        lo in -100f64..100.0,
        hi in -100f64..100.0,
    ) {
        let db = table_from(&values);
        let t = db.table("T").unwrap();
        let resolver = DistanceResolver::new();
        let run = |q: Query| {
            run_pipeline(&db, t, &resolver, q.condition.as_ref(),
                &DisplayPolicy::Percentage(100.0),
                PipelineOptions::default(),).unwrap().num_exact
        };
        let a = run(QueryBuilder::from_tables(["T"]).cmp("x", CompareOp::Ge, lo).build());
        let b = run(QueryBuilder::from_tables(["T"]).cmp("x", CompareOp::Le, hi).build());
        let and = run(QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, lo)
            .cmp("x", CompareOp::Le, hi)
            .all().build());
        let or = run(QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, lo)
            .cmp("x", CompareOp::Le, hi)
            .any().build());
        prop_assert!(and <= a.min(b));
        prop_assert!(or >= a.max(b));
        // inclusion-exclusion for these two complementary-ish predicates
        prop_assert_eq!(and + or, a + b);
    }

    /// The spiral arrangement places the displayed prefix without loss
    /// (window large enough) and rank 0 at the center cell.
    #[test]
    fn arrangement_preserves_displayed_items(
        n in 1usize..150,
        side in 13usize..20,
    ) {
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let db = table_from(&values);
        let t = db.table("T").unwrap();
        let resolver = DistanceResolver::new();
        let q = QueryBuilder::from_tables(["T"]).cmp("x", CompareOp::Ge, 0.0).build();
        let out = run_pipeline(&db, t, &resolver, q.condition.as_ref(),
            &DisplayPolicy::Percentage(100.0),
            PipelineOptions::default(),).unwrap();
        let grid = arrange_overall(&out.displayed, side, side);
        prop_assert_eq!(grid.occupied(), out.displayed.len().min(side * side));
        if !out.displayed.is_empty() {
            let c = (side - 1) / 2;
            prop_assert_eq!(grid.get(c, c), Some(out.displayed[0] as u32));
        }
    }

    /// The sorted-projection slider fast path serves a drag with the
    /// exact displayed set, exact-answer count and norm params a full
    /// pipeline recompute produces — across monotone ops, top-k display
    /// policies, NULL/NaN-heavy columns and duplicate-heavy values, over
    /// a *sequence* of drags (so contained modifications exercise the §6
    /// incremental cache's filter-on-hit path too).
    #[test]
    fn sorted_projection_drag_matches_full_recompute(
        rows in prop::collection::vec((-1e3f64..1e3, 0u8..5), 1..200),
        dups in 1.0f64..200.0,
        t0 in -1e3f64..1e3,
        drags in prop::collection::vec((-1e3f64..1e3, 0u8..2), 1..5),
        pct in 1.0f64..100.0,
        fitscreen in 0u8..2,
    ) {
        use std::sync::Arc;
        // quantize to force duplicate values (tie-heavy boundaries)
        let rows: Vec<(f64, u8)> = rows
            .into_iter()
            .map(|(v, tag)| ((v / dups).round() * dups, tag))
            .collect();
        let db = table_with_nulls(&rows);
        let policy = if fitscreen == 1 {
            DisplayPolicy::FitScreen { pixels: 96, pixels_per_item: 1 }
        } else {
            DisplayPolicy::Percentage(pct)
        };
        let make = || {
            let mut s = Session::new(Arc::new(db.clone()), ConnectionRegistry::new());
            s.set_display_policy(policy.clone()).unwrap();
            s.set_query(
                QueryBuilder::from_tables(["T"]).cmp("x", CompareOp::Ge, t0).build(),
            ).unwrap();
            s
        };
        let mut dragged = make();
        for &(t, greater) in &drags {
            let greater = greater == 1;
            let target = PredicateTarget::Compare {
                op: if greater { CompareOp::Ge } else { CompareOp::Le },
                value: Value::Float(t),
            };
            let drag = dragged.drag_slider(0, target.clone()).unwrap();
            prop_assert!(drag.incremental, "fast path must engage for {target:?}");
            let mut full = make();
            full.set_predicate_target(0, target.clone()).unwrap();
            let res = full.result().unwrap();
            prop_assert_eq!(&drag.displayed, &res.pipeline.displayed, "{:?}", target);
            prop_assert_eq!(drag.num_exact, res.pipeline.num_exact, "{:?}", target);
            prop_assert_eq!(
                drag.norm_params,
                res.pipeline.windows.first().map(|w| w.norm_params)
            );
            let picture = arrange_overall(&drag.displayed, res.grid.width(), res.grid.height());
            prop_assert_eq!(&picture, &res.grid);
        }
    }

    /// The branchless [`apply_slice`] kernel (word-mask fast path, lane
    /// selects, merged degenerate/linear arms) is bit-identical to the
    /// per-row `NormParams::apply` reference on every validity and
    /// finiteness shape, including degenerate and inverted fit ranges.
    #[test]
    fn apply_slice_matches_per_row_apply(
        rows in prop::collection::vec((-1e6f64..1e6, 0u8..8), 0..70),
        dmin in 0.0f64..10.0,
        dspan in -5.0f64..1e6,
    ) {
        use visdb::relevance::{apply_slice, NormParams};
        let params = NormParams { dmin, dmax: dmin + dspan };
        let (vals, mask): (Vec<f64>, Vec<bool>) = rows
            .iter()
            .map(|&(v, tag)| match tag {
                0 => (0.0, false),
                1 => (f64::NAN, true),
                2 => (f64::INFINITY, true),
                3 => (f64::NEG_INFINITY, true),
                4 => (0.0, true),
                _ => (v, true),
            })
            .unzip();
        let mut out_v = vec![123.456; vals.len()];
        let mut out_m = vec![true; vals.len()];
        apply_slice(params, &vals, &mask, &mut out_v, &mut out_m);
        for i in 0..vals.len() {
            prop_assert_eq!(out_m[i], mask[i], "mask at {}", i);
            let expect = if mask[i] { params.apply(vals[i].abs()) } else { 0.0 };
            prop_assert!(
                out_v[i].to_bits() == expect.to_bits(),
                "row {}: {} vs {} under {:?}", i, out_v[i], expect, params
            );
        }
    }

    /// The branchless slice combiners are bit-identical to the per-row
    /// `and_row`/`or_row` folds — across undefined/NaN/±inf/exact-zero
    /// children and zero/negative weights (the negative-weight OR
    /// fallback included).
    #[test]
    fn combine_slices_match_row_folds(
        rows in prop::collection::vec((0.0f64..255.0, 0u8..6, 0u8..6), 0..70),
        w in (-1.0f64..2.0, 0.0f64..2.0, -1.0f64..2.0),
    ) {
        use visdb::relevance::combine::{combine_and_slices, combine_or_slices};
        use visdb::relevance::reference::{and_row, or_row};
        let weights = [w.0, w.1, w.2];
        let shape = |v: f64, tag: u8| -> (f64, bool) {
            match tag {
                0 => (0.0, false),
                1 => (0.0, true),
                2 => (f64::NAN, true),
                3 => (f64::INFINITY, true),
                _ => (v, true),
            }
        };
        let n = rows.len();
        let mut children: Vec<(Vec<f64>, Vec<bool>)> = vec![(vec![0.0; n], vec![false; n]); 3];
        for (i, &(v, t1, t2)) in rows.iter().enumerate() {
            for (k, child) in children.iter_mut().enumerate() {
                let tag = match k {
                    0 => t1,
                    1 => t2,
                    _ => (t1 + t2) % 6,
                };
                let (x, ok) = shape(v + k as f64, tag);
                child.0[i] = x;
                child.1[i] = ok;
            }
        }
        let views: Vec<(&[f64], &[bool])> = children
            .iter()
            .map(|(v, m)| (v.as_slice(), m.as_slice()))
            .collect();
        let mut and_v = vec![9.0; n];
        let mut and_m = vec![true; n];
        combine_and_slices(&views, &weights, &mut and_v, &mut and_m);
        let mut or_v = vec![9.0; n];
        let mut or_m = vec![true; n];
        combine_or_slices(&views, &weights, &mut or_v, &mut or_m);
        for i in 0..n {
            let row: Vec<Option<f64>> = children
                .iter()
                .map(|(v, m)| m[i].then(|| v[i]))
                .collect();
            let expect_and = and_row(&row, &weights);
            let expect_or = or_row(&row, &weights);
            prop_assert!(
                opt_bits_eq(and_m[i].then(|| and_v[i]), expect_and),
                "AND row {}: {:?} vs {:?}", i, and_m[i].then(|| and_v[i]), expect_and
            );
            prop_assert!(
                opt_bits_eq(or_m[i].then(|| or_v[i]), expect_or),
                "OR row {}: {:?} vs {:?}", i, or_m[i].then(|| or_v[i]), expect_or
            );
            // undefined outputs are canonical (0.0 value, false mask)
            if !and_m[i] {
                prop_assert!(and_v[i].to_bits() == 0);
            }
            if !or_m[i] {
                prop_assert!(or_v[i].to_bits() == 0);
            }
        }
    }

    /// Boolean baseline and distance pipeline agree on which items are
    /// exact answers for >= / <= predicates (no strictness mismatch).
    #[test]
    fn baseline_agrees_with_distance_zero(
        values in prop::collection::vec(-50f64..50.0, 1..100),
        threshold in -50f64..50.0,
    ) {
        use visdb::baseline::evaluate_boolean;
        let db = table_from(&values);
        let t = db.table("T").unwrap();
        let q = QueryBuilder::from_tables(["T"]).cmp("x", CompareOp::Ge, threshold).build();
        let cond = q.condition.as_ref().unwrap();
        let exact = evaluate_boolean(&db, t, &cond.node).unwrap();
        let resolver = DistanceResolver::new();
        let out = run_pipeline(&db, t, &resolver, q.condition.as_ref(),
            &DisplayPolicy::Percentage(100.0),
            PipelineOptions::default(),).unwrap();
        for (i, &e) in exact.iter().enumerate() {
            prop_assert_eq!(e, out.combined.get(i) == Some(0.0), "row {}", i);
        }
    }
}

/// The column of [`wide_band_drags_match_full_recompute`]: ~1 000
/// quantized levels laid out scattered over / ascending with /
/// descending with the row id, ranks `heavy` collapsed into one heavy
/// duplicate, and every `holes + 1`-th row (by hash) NULL or NaN.
fn wide_band_value(
    i: usize,
    n: usize,
    layout: u8,
    holes: u8,
    heavy: &std::ops::Range<usize>,
) -> Value {
    let hash = i.wrapping_mul(2_654_435_761) >> 7;
    if holes > 0 && hash.is_multiple_of(holes as usize + 1) {
        return if hash.is_multiple_of(2) {
            Value::Null
        } else {
            Value::Float(f64::NAN)
        };
    }
    let rank = match layout {
        0 => hash % n,
        1 => i,
        _ => 2 * n - i,
    };
    let rank = if heavy.contains(&rank) {
        heavy.start
    } else {
        rank
    };
    Value::Float(wide_band_level(rank, n))
}

/// The quantized value of a rank: ~1 000 levels whatever `n`.
fn wide_band_level(rank: usize, n: usize) -> f64 {
    (rank / (1 + n / 1000)) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fast path never declines on a band's width, and what it
    /// serves from a band too wide to gather — by walking the column in
    /// row order — is what a full recompute displays. At 3 k–30 k rows
    /// the drags reach what the ≤ 200-row sibling above cannot: the
    /// §5.2 clamp plateau (weight 1: the last displayed item sits on
    /// `dmax`, its tie class is nearly every row), a heavy duplicate as
    /// the boundary class below the plateau (weight 0.3), exact bands of
    /// most of the relation, columns laid out in row order and against
    /// it (the walk's members are the first / the last rows), NULL- and
    /// NaN-heavy columns, all four monotone operators, both top-k
    /// policies, contained nudges after a walk, and a drag after a
    /// rebase onto appended rows.
    #[test]
    fn wide_band_drags_match_full_recompute(
        n in 3_000usize..30_000,
        layout in 0u8..3,
        holes in 0u8..4,
        heavy in (0.0f64..0.6, 0.0f64..1.0),
        light in 0u8..2,
        fitscreen in 0u8..2,
        size in 0.0f64..1.0,
        drags in prop::collection::vec((0u8..4, 0.0f64..1.0, 0u8..4), 2..6),
        appended in 1usize..400,
    ) {
        use std::sync::Arc;
        // the heavy duplicate sits within a tenth of either end of the
        // value range, so bounds beside it leave few exact answers
        let (share, at) = heavy;
        let at = if at < 0.5 { at * 0.2 } else { 1.0 - (1.0 - at) * 0.2 };
        let heavy_lo = (at * (1.0 - share) * n as f64) as usize;
        let heavy = heavy_lo..heavy_lo + (share * n as f64) as usize;
        let value = |i: usize| wide_band_value(i, n, layout, holes, &heavy);
        let table = |rows: usize| {
            let mut t = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
            for i in 0..rows {
                t = t.row(vec![value(i)]).unwrap();
            }
            let mut db = Database::new("d");
            db.add_table(t.build());
            Arc::new(db)
        };
        let (db, grown) = (table(n), table(n + appended));
        // weight 1 with few display slots: the plateau, and exact bands
        // far above any multiple of the slots; weight 0.3 with many: a
        // heavy boundary class that the wider fit reaches past
        let share_shown = if light == 1 { 0.1 + 0.15 * size } else { 0.005 + 0.025 * size };
        let policy = if fitscreen == 1 {
            DisplayPolicy::FitScreen {
                pixels: (share_shown * n as f64) as usize,
                pixels_per_item: 1,
            }
        } else {
            DisplayPolicy::Percentage(100.0 * share_shown)
        };
        let weight = if light == 1 { 0.3 } else { 1.0 };
        let make = |db: &Arc<Database>| {
            let mut s = Session::new(Arc::clone(db), ConnectionRegistry::new());
            s.set_display_policy(policy.clone()).unwrap();
            s.set_query(
                QueryBuilder::from_tables(["T"])
                    .cmp_weighted("x", CompareOp::Ge, 0.0, weight)
                    .build(),
            ).unwrap();
            s
        };
        let check = |drag: &SliderDrag, db: &Arc<Database>, target: &PredicateTarget| {
            prop_assert!(drag.incremental, "fast path must engage for {target:?}");
            let mut full = make(db);
            full.set_predicate_target(0, target.clone()).unwrap();
            let res = full.result().unwrap();
            prop_assert_eq!(&drag.displayed, &res.pipeline.displayed, "{:?}", target);
            prop_assert_eq!(drag.num_exact, res.pipeline.num_exact, "{:?}", target);
            prop_assert_eq!(
                drag.norm_params,
                res.pipeline.windows.first().map(|w| w.norm_params)
            );
            let picture = arrange_overall(&drag.displayed, res.grid.width(), res.grid.height());
            prop_assert_eq!(&picture, &res.grid);
            Ok(())
        };

        let mut values: Vec<f64> = (0..n)
            .filter_map(|i| value(i).as_f64())
            .filter(|v| !v.is_nan())
            .collect();
        values.sort_by(f64::total_cmp);
        let m = values.len();
        let slots = policy.budget(n).min(m - 1);
        let greater = |op: CompareOp| matches!(op, CompareOp::Gt | CompareOp::Ge);
        // the value `past` exact-side positions beyond the bound
        let at = |op: CompareOp, past: usize| values[if greater(op) { m - 1 - past } else { past }];
        let heavy_value = wide_band_level(heavy.start, n);
        let target = |(op, value): (CompareOp, f64)| PredicateTarget::Compare {
            op,
            value: Value::Float(value),
        };
        let mut dragged = make(&db);
        let mut last = (CompareOp::Ge, 0.0);
        for &(op, q, kind) in &drags {
            let op = [CompareOp::Gt, CompareOp::Ge, CompareOp::Lt, CompareOp::Le][op as usize];
            last = match kind {
                // anywhere: mostly exact bands of a large share of the rows
                0 => (op, at(op, (q * (m - 1) as f64) as usize)),
                // sparse: fewer exact answers than display slots
                1 => (op, at(op, (q * slots as f64) as usize)),
                // beside the heavy duplicate: it is the nearest miss
                2 => (op, heavy_value + if greater(op) { 0.5 } else { -0.5 }),
                // a nudge of the previous bound, mostly contained in it
                _ => (last.0, last.1 + (q - 0.4) * 3.0),
            };
            let drag = dragged.drag_slider(0, target(last)).unwrap();
            check(&drag, &db, &target(last))?;
        }
        // the appended rows merge into the projection; a drag that was
        // sparse before them walks the extended per-row values
        dragged.rebase(Arc::clone(&grown), "gen2");
        let after = target((last.0, at(last.0, slots / 2) + 0.5));
        let drag = dragged.drag_slider(0, after.clone()).unwrap();
        check(&drag, &grown, &after)?;
    }
}

/// `(value bits, row)` of a selection, for bitwise comparison.
fn selection_bits(sel: &[(f64, u32)]) -> Vec<(u64, u32)> {
    sel.iter().map(|&(v, row)| (v.to_bits(), row)).collect()
}

/// The definition the selection kernel is held to: sort every defined
/// `(key, row)` under `rank_order`, keep the first `k`.
fn full_sort_prefix(options: &[Option<f64>], key: fn(f64) -> f64, k: usize) -> Vec<(f64, u32)> {
    use visdb::relevance::select::rank_order;
    let mut all: Vec<(f64, u32)> = (options.iter().zip(0u32..))
        .filter_map(|(v, row)| v.map(|v| (key(v), row)))
        .collect();
    all.sort_by(rank_order);
    all.truncate(k);
    all
}

/// A named `row -> distance` generator.
type Shape = (&'static str, Box<dyn Fn(usize) -> Option<f64>>);

/// The selection shapes that stress a sampled cut.
fn selection_shapes(n: usize) -> Vec<Shape> {
    let hashed = |i: usize| (i.wrapping_mul(2_654_435_761) % 100_003) as f64;
    vec![
        ("hashed", Box::new(move |i| Some(hashed(i)))),
        ("all equal", Box::new(|_| Some(255.0))),
        // >= 90 % of the rows clamped at NORM_MAX
        (
            "clamped",
            Box::new(move |i| {
                Some(if i % 13 == 0 {
                    hashed(i) % 255.0
                } else {
                    255.0
                })
            }),
        ),
        // seven tie classes: one always straddles the cut
        ("tie classes", Box::new(|i| Some((i % 7) as f64))),
        (
            "non-finite",
            Box::new(move |i| {
                Some(match i % 11 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    4 => 0.0,
                    _ => hashed(i) - 50_000.0,
                })
            }),
        ),
        // fewer finite values than most k: the rest of the prefix is NaN
        (
            "mostly NaN",
            Box::new(|i| Some(if i % 50 == 0 { i as f64 } else { f64::NAN })),
        ),
        ("all undefined", Box::new(|_| None)),
        (
            "sparse",
            Box::new(move |i| (i % 3 == 0).then(|| hashed(i) % 1_001.0)),
        ),
        // small values exactly where an unjittered stride would probe
        (
            "aliased",
            Box::new(move |i| {
                Some(if i % (n / 8_192).max(1) == 0 {
                    0.0
                } else {
                    1.0 + i as f64
                })
            }),
        ),
        // ... and exactly where the kernel does probe: the sampled cut is
        // far too tight for k = n/4, so the verify step must fall back
        ("adversarial", {
            let probed: std::collections::HashSet<usize> =
                visdb::relevance::select::sample_rows(n).collect();
            Box::new(move |i| {
                Some(if probed.contains(&i) {
                    0.0
                } else {
                    1.0 + hashed(i)
                })
            })
        }),
    ]
}

/// The bound-pruned selection kernel returns exactly the full-sort
/// prefix — rows *and* order — for k ∈ {0, 1, n/100, n/4, m−1, m, > m}, on
/// every shape above, at lane remainders below the pruning threshold
/// and well above it, serial and parallel, for both keys
/// the pipeline selects by (the combined distance itself, `|d|` for the
/// fit).
#[test]
fn pruned_selection_equals_the_full_sort_prefix() {
    use visdb::relevance::chunk;
    use visdb::relevance::select::{k_smallest, k_smallest_sorted, rank_order};
    type Key = fn(f64) -> f64;
    let keys: [(&str, Key); 2] = [("identity", |v| v), ("abs", f64::abs)];
    for n in [0usize, 1, 3, 7, 9, 4_097, 70_003] {
        for (name, shape) in selection_shapes(n) {
            let options: Vec<Option<f64>> = (0..n).map(&shape).collect();
            let frame = DistanceFrame::from_options(&options);
            let m = options.iter().flatten().count();
            let mut ks = vec![0, 1, n / 100, n / 4, m.saturating_sub(1), m, m + 5];
            ks.dedup();
            let ranges = chunk::ranges(n);
            for parallel in [false, true] {
                for &k in &ks {
                    for (key_name, key) in keys {
                        let mut got = k_smallest(&frame, &ranges, parallel, k, key);
                        got.sort_unstable_by(rank_order);
                        assert_eq!(
                            selection_bits(&got),
                            selection_bits(&full_sort_prefix(&options, key, k)),
                            "{name} n={n} k={k} parallel={parallel} key={key_name}"
                        );
                    }
                    let sorted = k_smallest_sorted(&frame, &ranges, parallel, k);
                    assert_eq!(
                        selection_bits(&sorted),
                        selection_bits(&full_sort_prefix(&options, |v| v, k)),
                        "{name} n={n} k={k} parallel={parallel} sorted"
                    );
                }
            }
        }
    }
}

/// `fit_frame` — fused stats plus the pruned selection of the k-th
/// smallest `|d|` — equals the reference `select_nth` fit bit for bit,
/// on every selection shape, across weights and budgets on both sides
/// of every stats shortcut.
#[test]
fn fit_through_the_kernel_equals_the_select_nth_fit() {
    use visdb::relevance::reference::fit_improved;
    use visdb::relevance::{fit_frame, FrameStats};
    for n in [9usize, 4_097, 70_003] {
        for (name, shape) in selection_shapes(n) {
            let options: Vec<Option<f64>> = (0..n).map(&shape).collect();
            let frame = DistanceFrame::from_options(&options);
            let stats = FrameStats::of_frame(&frame);
            for (weight, budget) in [
                (1.0, 1),
                (1.0, n / 100 + 1),
                (0.3, n / 50 + 1),
                (0.05, n / 10 + 1),
                (0.0, 7),
            ] {
                let fast = fit_frame(&frame, &stats, weight, budget);
                let slow = fit_improved(&options, weight, budget);
                assert_eq!(
                    (fast.dmin.to_bits(), fast.dmax.to_bits()),
                    (slow.dmin.to_bits(), slow.dmax.to_bits()),
                    "{name} n={n} weight={weight} budget={budget}: {fast:?} vs {slow:?}"
                );
            }
        }
    }
}

/// A column built against the sample: its only near answers sit
/// exactly on the probe rows, so every sampled cut (the ranking's, the
/// fit's) is far too tight for the quarter of the relation the fit and
/// the display ask for. Each must notice and fall back — and still equal
/// the scalar reference.
#[test]
fn every_path_recovers_from_a_too_tight_sampled_cut() {
    let n = 40_000;
    let probed: std::collections::HashSet<usize> =
        visdb::relevance::select::sample_rows(n).collect();
    assert!(
        !probed.is_empty(),
        "the relation must be large enough to sample"
    );
    let values: Vec<f64> = (0..n)
        .map(|i| match probed.contains(&i) {
            true => 0.0,
            false => -1.0 - (i.wrapping_mul(2_654_435_761) % 100_003) as f64,
        })
        .collect();
    let db = table_from(&values);
    let t = db.table("T").unwrap();
    let resolver = DistanceResolver::new();
    let q = QueryBuilder::from_tables(["T"])
        .cmp("x", CompareOp::Ge, 0.0)
        .build();
    let policy = DisplayPolicy::Percentage(25.0);
    let run = |opts: PipelineOptions<'_>| {
        run_pipeline(&db, t, &resolver, q.condition.as_ref(), &policy, opts).unwrap()
    };
    let slow = run(PipelineOptions {
        mode: ExecMode::Scalar,
        ..Default::default()
    });
    assert_eq!(slow.num_exact, probed.len());
    let fast = run(PipelineOptions::default());
    let diff = first_divergence(&fast, &slow, &policy);
    assert!(diff.is_none(), "{}", diff.unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `order` is exactly the relevance-sorted prefix the run
    /// established, on every path: the scalar reference ranks every
    /// defined item; the vectorized path ranks what the policy needs (the display count; `rmax + z + 1` for
    /// the gap heuristic; the band under the two-sided policy) — each
    /// fully sorted under (combined, row), with `displayed` drawn from
    /// it and, for one-sided policies, a prefix of the scalar ranking.
    #[test]
    fn order_is_exactly_the_sorted_prefix_on_every_path(
        rows in prop::collection::vec((-1e4f64..1e4, 0u8..8), 1..250),
        threshold in -1e4f64..1e4,
        lo in -1e4f64..1e4,
        span in 0.0f64..5e3,
        pct in 1.0f64..100.0,
        pick in 0usize..4,
    ) {
        let db = table_with_extremes(&rows);
        let t = db.table("T").unwrap();
        let resolver = DistanceResolver::new();
        let q = QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, threshold)
            .between("x", lo, lo + span)
            .build();
        let policy = pick_policy(pick, pct);
        let run = |opts: PipelineOptions<'_>| {
            run_pipeline(&db, t, &resolver, q.condition.as_ref(), &policy, opts)
        };
        let Ok(slow) = run(PipelineOptions { mode: ExecMode::Scalar, ..Default::default() }) else {
            return Ok(()); // (gap params vs tiny n: every path rejects alike)
        };
        let defined = slow.combined.iter().flatten().count();
        prop_assert_eq!(slow.order.len(), defined, "the scalar path sorts everything");
        let sorted = |out: &PipelineOutput| {
            out.order.windows(2).all(|w| {
                let (a, b) = (out.combined.get(w[0] as usize), out.combined.get(w[1] as usize));
                a.is_some() && (a < b || (a == b && w[0] < w[1]))
            })
        };
        prop_assert!(sorted(&slow));
        let paths = [("vectorized", PipelineOptions::default())];
        for (tag, opts) in paths {
            let fast = run(opts).unwrap();
            let expect = match &policy {
                DisplayPolicy::GapHeuristic { rmax, z, .. } if defined > 0 => {
                    defined.min((*rmax).min(defined - 1) + z + 1)
                }
                _ => fast.displayed.len(),
            };
            prop_assert_eq!(fast.order.len(), expect, "{} under {:?}", tag, policy);
            prop_assert!(sorted(&fast), "{}", tag);
            if !matches!(policy, DisplayPolicy::TwoSidedPercentage(_)) {
                prop_assert_eq!(&fast.order[..], &slow.order[..expect], "{}", tag);
                let shown: Vec<usize> = fast.ranked().take(fast.displayed.len()).collect();
                prop_assert_eq!(&shown, &fast.displayed, "{}", tag);
            }
        }
    }
}

/// Columns whose exact-answer counts are set by the caller, over a
/// relation big enough for the sampled cut, the parallel walks and a
/// realistic `k`. Row `i` has rank `(i · 1 000 003) mod n` — a bijection
/// that scatters the ranks over the rows. `x` is the rank, so
/// `x >= n - e` and `x BETWEEN n - e AND n` have exactly `e` exact
/// answers; `y` is `±0.0` on the top `zeros_y` ranks and a nonzero
/// multiple of 0.25 below, so `y = 0` has exactly `zeros_y` exact answers
/// with `-0.0` distances among them. NULL, NaN and ±inf values sit on
/// ranks below `n / 2`, clear of every exact region. `rows` < `n` builds
/// the relation's prefix (what an append extends).
fn exact_answers_table(n: usize, rows: usize, zeros_y: usize) -> Database {
    let cols = vec![
        Column::new("x", DataType::Float),
        Column::new("y", DataType::Float),
    ];
    let mut t = TableBuilder::new("T", cols);
    for i in 0..rows {
        let rank = i * 1_000_003 % n;
        let sign = if rank.is_multiple_of(2) { 1.0 } else { -1.0 };
        let special = if rank < n / 2 { rank % 101 } else { 0 };
        let x = match special {
            7 => Value::Null,
            8 => Value::Float(f64::NAN),
            9 => Value::Float(f64::NEG_INFINITY),
            _ => Value::Float(rank as f64),
        };
        let y = match special {
            17 => Value::Null,
            18 => Value::Float(f64::NAN),
            19 => Value::Float(sign * f64::INFINITY),
            _ if rank >= n - zeros_y => Value::Float(sign * 0.0),
            _ => Value::Float(sign * 0.25 * (1 + rank % 37) as f64),
        };
        t = t.row(vec![x, y]).unwrap();
    }
    let mut db = Database::new("d");
    db.add_table(t.build());
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Above the thresholds the other properties never reach (40 k–120 k
    /// rows against `PAR_MIN_ROWS` = the selection's sampling floor =
    /// 32 768), with the exact answers on both sides of every `k`: the
    /// vectorized paths — cached, uncached, a window refitted from the
    /// cache — stay byte-identical to the scalar
    /// oracle whether the counts answer a §5.2 fit (`zeros >= k`) or a
    /// selection does, and whether the ranking is the first `k` exact
    /// rows (`num_exact >= k`) or a pruned top-k. Each case walks a grid:
    /// three runs put one window each at `k_j - 1`, `k_j` and `10 k_j`
    /// exact answers (`k_j` = that window's fit count under its weight of
    /// 1, 0.3 or 0.05), three more put the whole condition at `k - 1`,
    /// `k`, `10 k` for the display count `k`; every run's trace says
    /// which children were read from packed bits and whether the root was
    /// derived from its pattern table. Then one child is re-weighted
    /// across `zeros >= k` and back through the session cache, beside
    /// fitted children and a child with no defined distance. A window
    /// grown by `extend_window` (merged `zeros`) must equal its cold
    /// evaluation.
    #[test]
    fn counts_and_selections_agree_above_the_parallel_threshold(
        n in 40_000usize..120_000,
        policy_pick in 0usize..3,
        pct in 0.5f64..3.0,
        pixels in 3_000usize..12_000,
        root_pick in 0usize..3,
        rot in 0usize..3,
        refit_at in 0usize..6,
    ) {
        use visdb::relevance::{display_count, extend_window, fit_k};
        let policy = match policy_pick {
            0 => DisplayPolicy::Percentage(pct),
            1 => DisplayPolicy::FitScreen { pixels, pixels_per_item: 1 },
            _ => DisplayPolicy::GapHeuristic { rmin: 10, rmax: pixels / 8, z: 5 + pixels % 40 },
        };
        let weights: Vec<f64> = (0..3).map(|j| [1.0, 0.3, 0.05][(j + rot) % 3]).collect();
        let budget = policy.budget(n);
        let fit_ks: Vec<usize> =
            weights.iter().map(|&w| fit_k(n, w, budget).unwrap_or(n)).collect();
        let windows = if root_pick == 2 { 1 } else { 3 };
        // the display count; every policy here asks for far fewer rows
        // than have a defined combined distance
        let rank_k = match &policy {
            DisplayPolicy::GapHeuristic { rmax, z, .. } => rmax + z + 1,
            _ => display_count(&policy, n, n, windows).unwrap(),
        };
        let level = |l: usize, k: usize| [k - 1, k, 10 * k][l % 3].clamp(1, n / 2);
        let at_least = |e: usize| {
            let bound = (n - e) as f64;
            ConditionNode::Predicate(Predicate::compare(AttrRef::new("x"), CompareOp::Ge, bound))
        };
        let cond_for = |e: [usize; 3], weights: &[f64]| {
            let p1 = at_least(e[0]);
            let p2 = ConditionNode::Predicate(Predicate::compare(AttrRef::new("y"), CompareOp::Eq, 0.0));
            let p3 = ConditionNode::Predicate(Predicate::range(AttrRef::new("x"), (n - e[2]) as f64, n as f64));
            let parts = vec![
                Weighted::new(p1.clone(), weights[0]),
                Weighted::new(p2, weights[1]),
                Weighted::new(p3, weights[2]),
            ];
            match root_pick {
                0 => Weighted::unit(ConditionNode::And(parts)),
                1 => Weighted::unit(ConditionNode::Or(parts)),
                _ => Weighted::new(p1, weights[0]),
            }
        };
        let resolver = DistanceResolver::new();
        let (mut fits, mut ranks) = ([0usize; 2], [0usize; 2]);
        for point in 0..6 {
            // exact answers per window: its own fit's k, or the display's
            let e: [usize; 3] = std::array::from_fn(|j| match point {
                0..=2 => level(point + j, fit_ks[j]),
                _ => level(point, rank_k),
            });
            let db = exact_answers_table(n, n, e[1]);
            let t = db.table("T").unwrap();
            let cond = cond_for(e, &weights);
            let run = |cond: &Weighted, opts: PipelineOptions<'_>| {
                run_pipeline(&db, t, &resolver, Some(cond), &policy, opts)
            };
            let scalar = PipelineOptions { mode: ExecMode::Scalar, ..Default::default() };
            let Ok(slow) = run(&cond, scalar) else {
                // gap parameters the data rejects: every path must
                prop_assert!(run(&cond, PipelineOptions::default()).is_err());
                continue;
            };
            prop_assert_eq!(slow.windows[0].zero_raw_count(), e[0]);
            let mut session = PipelineCache::new();
            let paths = [
                ("cached", PipelineOptions {
                    cache: Some(&mut session),
                    trace: true,
                    ..Default::default()
                }),
                ("uncached", PipelineOptions { trace: true, ..Default::default() }),
            ];
            for (tag, opts) in paths {
                let fast = run(&cond, opts).unwrap();
                let diff = first_divergence(&fast, &slow, &policy);
                prop_assert!(diff.is_none(), "{}: {} (point {}, {:?})", tag, diff.unwrap(), point, policy);
                prop_assert!(fast.combined.bits_eq(&slow.combined), "{} (point {})", tag, point);
                let trace = fast.trace.as_ref().unwrap();
                prop_assert_eq!(trace.fits_from_counts + trace.fits_selected, windows, "{}", tag);
                // the ranking came from the counts iff they cover it
                let counted = usize::from(fast.num_exact >= fast.order.len());
                prop_assert_eq!(
                    (trace.ranks_from_counts, trace.ranks_selected), (counted, 1 - counted),
                    "{} (point {}, {} exact, {} ranked)", tag, point, fast.num_exact, fast.order.len()
                );
                // a fit with `dmax = 0` is read from the window's packed
                // bits (a root `OR` normalizes raw distances either way),
                // and a root of nothing else is written from its table
                let two_valued = fast.windows.iter().filter(|w| w.norm_params.dmax == 0.0).count();
                let bits = if root_pick == 1 { 0 } else { two_valued };
                prop_assert_eq!((trace.children_bits, trace.children_raw), (bits, windows - bits), "{}", tag);
                prop_assert_eq!(trace.roots_from_table, usize::from(bits == windows), "{}", tag);
                fits[0] += trace.fits_from_counts;
                fits[1] += trace.fits_selected;
                ranks[0] += trace.ranks_from_counts;
                ranks[1] += trace.ranks_selected;
            }
            if point == refit_at {
                // the session cache holds every window under `weights`:
                // moving one weight refits that window alone
                let j = refit_at % windows;
                let mut moved = weights.clone();
                moved[j] = [1.0, 0.3, 0.05][(j + rot + 1) % 3];
                let cond = cond_for(e, &moved);
                let opts = PipelineOptions { cache: Some(&mut session), trace: true, ..Default::default() };
                let refit = run(&cond, opts).unwrap();
                let trace = refit.trace.as_ref().unwrap();
                // a window kept as its bits whose exact answers do not
                // cover the new fit is a miss, evaluated into its frame
                let missed = trace.windows_evaluated;
                prop_assert_eq!(trace.windows_refit + missed, 1);
                prop_assert!(missed == 0 || (root_pick != 1 && refit.windows[j].raw_frame().is_some()));
                let scalar = PipelineOptions { mode: ExecMode::Scalar, ..Default::default() };
                let diff = first_divergence(&refit, &run(&cond, scalar).unwrap(), &policy);
                prop_assert!(diff.is_none(), "refit: {} (point {})", diff.unwrap(), point);
            }
        }
        // the grid met both answers of both decisions
        prop_assert!(fits.iter().chain(&ranks).all(|&hits| hits > 0), "fits {:?} ranks {:?}", fits, ranks);

        // a root that mixes two-valued and fitted children, one of which
        // crosses `zeros >= k` in both directions through the session
        // cache — two-valued (weight 1: k = budget <= 2·budget exact
        // answers) -> fitted (weight 0.05: k = 20·budget) -> two-valued
        // — beside a NaN / ±inf / `-0.0` column and, every other round, a
        // child with no defined distance at all; each step held to a
        // cold scalar run
        let e0 = (2 * budget).clamp(1, n / 2);
        let db = exact_answers_table(n, n, e0);
        let t = db.table("T").unwrap();
        let no_distance = ConditionNode::Predicate(Predicate::compare(AttrRef::new("x"), CompareOp::Ge, Value::Null));
        for with_undefined in [false, true] {
            let mut session = PipelineCache::new();
            for (step, w0) in [1.0, 0.05, 1.0].into_iter().enumerate() {
                let moved = [w0, weights[1], weights[2]];
                let mut cond = cond_for([e0, e0, level(2, fit_ks[2])], &moved);
                let children = match &mut cond.node {
                    ConditionNode::And(parts) | ConditionNode::Or(parts) => {
                        if with_undefined {
                            parts.push(Weighted::new(no_distance.clone(), 0.3));
                        }
                        parts.len()
                    }
                    _ => 1,
                };
                let run = |opts: PipelineOptions<'_>| {
                    run_pipeline(&db, t, &resolver, Some(&cond), &policy, opts)
                };
                let scalar = PipelineOptions { mode: ExecMode::Scalar, ..Default::default() };
                let Ok(slow) = run(scalar) else {
                    prop_assert!(run(PipelineOptions::default()).is_err());
                    continue;
                };
                let opts = PipelineOptions { cache: Some(&mut session), trace: true, ..Default::default() };
                let fast = run(opts).unwrap();
                let diff = first_divergence(&fast, &slow, &policy);
                prop_assert!(diff.is_none(), "crossing step {}: {} ({:?})", step, diff.unwrap(), policy);
                prop_assert!(fast.combined.bits_eq(&slow.combined), "crossing step {}", step);
                let trace = fast.trace.as_ref().unwrap();
                // under an `OR` root every window keeps its frame, and
                // the re-weights are refits; otherwise window 0 is its
                // bits at weight 1, a miss at 0.05 (evaluated into its
                // frame) and a refit back to its bits
                let bits_only = root_pick != 1 && step != 1;
                prop_assert_eq!(fast.windows[0].raw_frame().is_none(), bits_only, "crossing step {}", step);
                if step > 0 {
                    let missed = usize::from(root_pick != 1 && step == 1);
                    prop_assert_eq!((trace.windows_refit, trace.windows_evaluated), (1 - missed, missed));
                }
                let two_valued = |w: &PredicateWindow| w.norm_params.dmax == 0.0;
                prop_assert_eq!(two_valued(&fast.windows[0]), step != 1, "crossing step {}", step);
                prop_assert_eq!(fast.windows[0].zero_raw_count(), e0);
                let bits = fast.windows.iter().filter(|w| two_valued(w)).count();
                let bits = if root_pick == 1 { 0 } else { bits };
                prop_assert_eq!((trace.children_bits, trace.children_raw), (bits, children - bits));
                if with_undefined && root_pick == 0 {
                    // no distance in one child: none at the `AND` root
                    prop_assert_eq!((fast.num_exact, fast.order.len()), (0, 0));
                }
            }
        }

        // a window grown by appended rows carries merged `zeros` across
        // its fit's `k` and equals the cold evaluation of the whole
        let fit_screen = DisplayPolicy::FitScreen { pixels: budget, pixels_per_item: 1 };
        let prefix = n - n / 40;
        for l in 0..3 {
            let e = level(l, fit_ks[0]);
            let cond = Weighted::new(at_least(e), weights[0]);
            let window = |db: &Database| {
                let out = run_pipeline(
                    db, db.table("T").unwrap(), &resolver, Some(&cond), &fit_screen,
                    PipelineOptions::default(),
                ).unwrap();
                out.windows.into_iter().next().unwrap()
            };
            let (old_db, new_db) = (exact_answers_table(n, prefix, 1), exact_answers_table(n, n, 1));
            let idx: Vec<usize> = (prefix..n).collect();
            let delta = new_db.table("T").unwrap().gather("T", &idx);
            let recipe = WindowRecipe { table: "T".into(), budget, node: cond.node.clone() };
            let old = window(&old_db);
            let grown = extend_window(&new_db, &delta, &old, &recipe).unwrap();
            let cold = window(&new_db);
            let diff = distances_diverge(&grown, &cold);
            prop_assert!(diff.is_none() && normalized_bits_eq(&grown, &cold), "extension (level {}): {:?}", l, diff);
            prop_assert_eq!(grown.norm_params, cold.norm_params, "extension (level {})", l);
            prop_assert_eq!(grown.zero_raw_count(), e);
            prop_assert!(old.zero_raw_count() < e, "the appended rows must add exact answers");
        }
    }
}

/// A splitmix64 step: per-row test data from a seed, without a
/// generator.
fn mix(i: usize, seed: u64) -> u64 {
    let mut z = (i as u64 ^ seed.rotate_left(23)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The values a comparison window's `x` thresholds are drawn from — every
/// one of them repeated across the relation.
const X_POOL: [f64; 10] = [-5.0, -2.5, -1.0, 0.0, 0.5, 1.0, 2.5, 4.0, 7.0, 10.0];

/// Three comparison columns and their values widened to `f64` (`None`:
/// NULL): `x` floats from [`X_POOL`] with NULL, NaN, `-0.0` and `0.0`
/// rows, and `±inf` only inside chunk `inf_chunk`; `y` floats in
/// `[0, 100)` with NULLs; `i` integers in `[-25, 25)` with NULLs and a
/// few beyond `±2^53`.
fn comparison_table(n: usize, seed: u64, inf_chunk: usize) -> (Database, [Vec<Option<f64>>; 3]) {
    let cols = vec![
        Column::new("x", DataType::Float),
        Column::new("y", DataType::Float),
        Column::new("i", DataType::Int),
    ];
    let mut t = TableBuilder::new("T", cols);
    let mut widened: [Vec<Option<f64>>; 3] = Default::default();
    for row in 0..n {
        let h = mix(row, seed);
        let x = match h % 23 {
            0 => Value::Null,
            1 => Value::Float(f64::NAN),
            2 => Value::Float(-0.0),
            3 if row / CHUNK_ROWS == inf_chunk => Value::Float(f64::INFINITY),
            4 if row / CHUNK_ROWS == inf_chunk => Value::Float(f64::NEG_INFINITY),
            _ => Value::Float(X_POOL[(h >> 8) as usize % X_POOL.len()]),
        };
        let y = match h % 29 {
            5 => Value::Null,
            _ => Value::Float(((h >> 24) % 10_000) as f64 / 100.0),
        };
        let i = match h % 31 {
            6 => Value::Null,
            7 => Value::Int(i64::MAX - (h >> 40) as i64),
            8 => Value::Int(-(1 << 54) - (h >> 40) as i64),
            _ => Value::Int(((h >> 32) % 50) as i64 - 25),
        };
        for (col, v) in widened.iter_mut().zip([&x, &y, &i]) {
            col.push(v.as_f64());
        }
        t = t.row(vec![x, y, i]).unwrap();
    }
    let mut db = Database::new("d");
    db.add_table(t.build());
    (db, widened)
}

/// Ranges a serial window walk compare-packs: those that start once the
/// exact answers of the ranges before them cover `k`, and whose defined
/// values are finite and not all missing.
fn packed_ranges(values: &[Option<f64>], greater: bool, t: f64, k: usize) -> usize {
    let mut exact = 0;
    let mut packed = 0;
    for (offset, len) in visdb::relevance::chunk::ranges(values.len()) {
        let defined: Vec<f64> = values[offset..offset + len]
            .iter()
            .flatten()
            .copied()
            .filter(|x| !x.is_nan())
            .collect();
        let packs = !defined.is_empty() && defined.iter().all(|x| x.is_finite());
        packed += usize::from(exact >= k && packs);
        exact += defined
            .iter()
            .filter(|&&x| if greater { x >= t } else { x <= t })
            .count();
    }
    packed
}

const CHUNK_ROWS: usize = visdb::relevance::chunk::CHUNK_ROWS;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Comparison windows whose exact answers cover their fit count are
    /// compare-packed past the range where they do — straight from the
    /// column — and stay byte-identical to a cold scalar run above the
    /// parallel threshold: 1 to 3 `>` / `>=` / `<` / `<=` windows with
    /// random thresholds (repeated across the relation) and weights, over
    /// a float column with NULL, NaN, `-0.0` and `±inf` rows (the chunk
    /// holding the infinities is declined), a plain float column and an
    /// integer column with values beyond `±2^53`; parallel and serial,
    /// where the packed ranges are exactly the ones the count rule
    /// names. A run cancelled mid-walk leaves the
    /// session cache, the shared window cache and the projection store
    /// untouched, and the same caches then serve the oracle's answer.
    #[test]
    fn compare_packed_windows_match_the_oracle_above_the_parallel_threshold(
        n in 40_000usize..120_000,
        seed in 0u64..1 << 40,
        inf_chunk in 0usize..8,
        pct in 0.5f64..3.0,
        windows in prop::collection::vec(((0usize..3, 0usize..4), 0usize..50, 0.2f64..1.0), 1..4),
        skip in 1usize..4,
    ) {
        let (db, values) = comparison_table(n, seed, inf_chunk);
        let t = db.table("T").unwrap();
        let resolver = DistanceResolver::new();
        let policy = DisplayPolicy::Percentage(pct);
        let budget = policy.budget(n);
        let ops = [CompareOp::Gt, CompareOp::Ge, CompareOp::Lt, CompareOp::Le];
        let preds: Vec<(usize, CompareOp, f64, f64)> = windows
            .iter()
            .map(|&((col, op), pick, weight)| {
                let t = match col {
                    0 => X_POOL[pick % X_POOL.len()],
                    1 => pick as f64 * 2.0,
                    _ => pick as f64 - 25.0,
                };
                (col, ops[op], t, weight)
            })
            .collect();
        let leaf = |&(col, op, t, weight): &(usize, CompareOp, f64, f64)| {
            let p = Predicate::compare(AttrRef::new(["x", "y", "i"][col]), op, t);
            Weighted::new(ConditionNode::Predicate(p), weight)
        };
        let cond = match &preds[..] {
            [one] => leaf(one),
            many => Weighted::unit(ConditionNode::And(many.iter().map(leaf).collect())),
        };
        let run = |opts: PipelineOptions<'_>| {
            run_pipeline(&db, t, &resolver, Some(&cond), &policy, opts)
        };
        let slow = run(PipelineOptions { mode: ExecMode::Scalar, ..Default::default() }).unwrap();
        let fast = run(PipelineOptions { trace: true, ..Default::default() }).unwrap();
        let what = format!("{preds:?}");
        let diff = first_divergence(&fast, &slow, &policy);
        prop_assert!(diff.is_none(), "{}: {}", what, diff.unwrap());
        prop_assert!(fast.combined.bits_eq(&slow.combined), "{}", what);

        // one worker walks the ranges in order, so which are packed is
        // the count rule's alone
        let serial = visdb::exec::Runtime::new(1)
            .install(|| run(PipelineOptions { trace: true, ..Default::default() }))
            .unwrap();
        let diff = first_divergence(&serial, &slow, &policy);
        prop_assert!(diff.is_none(), "serial: {}", diff.unwrap());
        let expect: usize = (preds.iter())
            .filter_map(|&(col, op, t, weight)| {
                let k = visdb::relevance::normalize::fit_k(n, weight, budget)?;
                let greater = matches!(op, CompareOp::Gt | CompareOp::Ge);
                Some(packed_ranges(&values[col], greater, t, k))
            })
            .sum();
        let trace = serial.trace.as_ref().unwrap();
        prop_assert_eq!(trace.chunks_compare_packed, expect, "{:?}", preds);

        // cancelled on a range poll of the first window's walk
        let mut session = PipelineCache::new();
        let shared = MapWindows::default();
        let projections = MapProjections::default();
        let layers = |session: &mut PipelineCache, cancel| {
            run(PipelineOptions {
                cache: Some(session),
                shared: Some(SharedWindows { scope: "d#1", cache: &shared }),
                projections: Some(("d#1", &projections as &dyn ProjectionSource)),
                cancel,
                ..Default::default()
            })
        };
        let token = visdb::exec::CancelToken::new();
        let cancelled = {
            let _fault = visdb::exec::fault::inject_after(
                visdb::exec::Phase::Distance,
                visdb::exec::FaultAction::Cancel,
                skip,
            );
            layers(&mut session, Some(&token))
        };
        prop_assert!(matches!(cancelled, Err(Error::Cancelled)), "{:?}", cancelled.map(|o| o.n));
        prop_assert!(session.is_empty());
        prop_assert!(shared.0.lock().unwrap().is_empty());
        prop_assert_eq!(*projections.stores.lock().unwrap(), 0);
        let again = layers(&mut session, None).unwrap();
        let diff = first_divergence(&again, &slow, &policy);
        prop_assert!(diff.is_none(), "after a cancel: {}", diff.unwrap());
        prop_assert_eq!(session.len(), preds.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A root of nothing but two-valued windows is derived — its combined
    /// distances are the windows' exact bits plus a table of pattern
    /// values, its ranking a walk over value classes — and must stay
    /// byte-identical to a cold scalar run above the thresholds, under
    /// every policy: an `AND` whose exact answers cover the display count,
    /// one whose exact answers fall short of it (the walk goes past the
    /// exact class, through classes where distinct patterns share a value
    /// — an unweighted child, and equal weights), and a single window; on
    /// NULL, NaN and `-0.0` rows; through a session cache (cold, warm,
    /// re-weighted) and uncached.
    #[test]
    fn table_roots_match_the_oracle_above_the_parallel_threshold(
        n in 40_000usize..120_000,
        pct in 0.5f64..3.0,
        pixels in 1_000usize..3_000,
        weight_pick in 0usize..3,
        spare in 3usize..5,
    ) {
        let policies = [
            DisplayPolicy::Percentage(pct),
            DisplayPolicy::FitScreen { pixels, pixels_per_item: 1 },
            DisplayPolicy::GapHeuristic { rmin: 10, rmax: pixels / 8, z: 5 + pixels % 40 },
            DisplayPolicy::TwoSidedPercentage(pct),
        ];
        let (wa, wc) = [(1.0, 1.0), (1.0, 0.5), (0.5, 1.0)][weight_pick];
        let resolver = DistanceResolver::new();
        let db = two_valued_table(n);
        let t = db.table("T").unwrap();
        for policy in policies {
            // every fit asks for at most 2·budget rows (weights 1 and
            // 0.5); each `x` window has `spare`·budget exact answers, all
            // on ranks above n / 2, clear of the NULL / NaN rows
            let budget = policy.budget(n);
            let (a, overlap) = (spare * budget, budget / 8);
            let pred = |p: Predicate, w: f64| Weighted::new(ConditionNode::Predicate(p), w);
            let x_top = Predicate::compare(AttrRef::new("x"), CompareOp::Ge, (n - a) as f64);
            let top_a = |w: f64| pred(x_top.clone(), w);
            let y_zero = pred(Predicate::compare(AttrRef::new("y"), CompareOp::Eq, 0.0), wc);
            // `overlap + 1` of its exact ranks are exact in `top_a` too
            let (lo, hi) = (n - 2 * a + overlap, n - a + overlap);
            let below_a = pred(Predicate::range(AttrRef::new("x"), lo as f64, hi as f64), wc);
            let unweighted = pred(Predicate::compare(AttrRef::new("z"), CompareOp::Eq, 0.0), 0.0);
            let cond_for = |shape: &str, wa: f64| {
                let and = |second: &Weighted| vec![top_a(wa), second.clone(), unweighted.clone()];
                match shape {
                    "covered" => Weighted::unit(ConditionNode::And(and(&y_zero))),
                    "short" => Weighted::unit(ConditionNode::And(and(&below_a))),
                    _ => top_a(wa),
                }
            };
            let mut ranks = [0usize; 2];
            for shape in ["covered", "short", "single"] {
                let mut session = PipelineCache::new();
                // cold and warm through the session cache, uncached, then
                // re-weighted through the cache (one window refit)
                let mut slow = None;
                for (step, weight) in [wa, wa, wa, 1.5 - wa].into_iter().enumerate() {
                    let cond = cond_for(shape, weight);
                    if step != 1 && step != 2 {
                        let scalar = PipelineOptions { mode: ExecMode::Scalar, ..Default::default() };
                        slow = Some(run_pipeline(&db, t, &resolver, Some(&cond), &policy, scalar));
                    }
                    let Some(Ok(slow)) = &slow else {
                        // gap parameters the data rejects: every path must
                        prop_assert!(run_pipeline(&db, t, &resolver, Some(&cond), &policy, PipelineOptions::default()).is_err());
                        break;
                    };
                    let opts = match step {
                        2 => PipelineOptions { trace: true, ..Default::default() },
                        _ => PipelineOptions { cache: Some(&mut session), trace: true, ..Default::default() },
                    };
                    let fast = run_pipeline(&db, t, &resolver, Some(&cond), &policy, opts).unwrap();
                    let what = format!("{shape} step {step} ({policy:?})");
                    let diff = first_divergence(&fast, slow, &policy);
                    prop_assert!(diff.is_none(), "{}: {}", what, diff.unwrap());
                    prop_assert!(fast.combined.bits_eq(&slow.combined), "{}", what);
                    prop_assert!(fast.windows.iter().all(|w| w.norm_params.dmax == 0.0), "{}", what);
                    prop_assert!(matches!(fast.combined, visdb::relevance::Combined::Table(_)), "{}", what);
                    let trace = fast.trace.as_ref().unwrap();
                    let windows = fast.windows.len();
                    prop_assert_eq!((trace.children_bits, trace.roots_from_table), (windows, 1), "{}", what);
                    prop_assert_eq!(trace.windows_refit, usize::from(step == 3), "{}", what);
                    match shape {
                        "short" => prop_assert!(fast.num_exact <= overlap + 1, "{}", what),
                        _ => prop_assert!(fast.num_exact >= a / 2, "{}", what),
                    }
                    if !matches!(policy, DisplayPolicy::TwoSidedPercentage(_)) {
                        // the ranking came from the counts iff they cover it
                        let counted = usize::from(fast.num_exact >= fast.order.len());
                        let (from_counts, selected) = (trace.ranks_from_counts, trace.ranks_selected);
                        prop_assert_eq!((from_counts, selected), (counted, 1 - counted), "{}", what);
                        ranks[0] += from_counts;
                        ranks[1] += selected;
                    }
                }
            }
            // one-sided policies met both answers: the exact class
            // covered `k`, and the walk went past it
            if !matches!(policy, DisplayPolicy::TwoSidedPercentage(_)) {
                prop_assert!(ranks.iter().all(|&hits| hits > 0), "ranks {:?} ({:?})", ranks, policy);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Windows kept as their exact bits, above the parallel threshold,
    /// held to a cold scalar run at every step. Through the session cache,
    /// window 0 crosses bits-only → raw →
    /// bits-only as its weight goes 1 → 0.05 → 1: its `spare · budget`
    /// exact answers cover the first fit count (`budget`) but not the
    /// second (`20 · budget`), so the second run misses and evaluates its
    /// frame, and the third refits that frame back to its bits. Beside it
    /// sit an exact-heavy window (its bits throughout) and a fitted one
    /// (its frame). Then an `OR` root and the two-sided policy meet the
    /// `AND` query's bits-only windows in a session cache and in a shared
    /// one: each misses exactly the windows it reads as rows. Rows carry
    /// NULL, NaN, ±inf and `-0.0`.
    #[test]
    fn bits_only_windows_cross_and_miss_like_the_oracle(
        n in 40_000usize..120_000,
        pct in 0.5f64..3.0,
        spare in 2usize..10,
    ) {
        let policy = DisplayPolicy::Percentage(pct);
        let budget = policy.budget(n);
        let db = exact_answers_table(n, n, spare * budget);
        let t = db.table("T").unwrap();
        let resolver = DistanceResolver::new();
        let pred = |p: Predicate, w: f64| Weighted::new(ConditionNode::Predicate(p), w);
        // `x >= heavy` has 3 · budget exact answers, the range below it
        // budget / 2 against a fit count of budget / 0.3
        let heavy = (n - 3 * budget) as f64;
        let children = |w0: f64| {
            vec![
                pred(Predicate::compare(AttrRef::new("y"), CompareOp::Eq, 0.0), w0),
                pred(Predicate::compare(AttrRef::new("x"), CompareOp::Ge, heavy), 1.0),
                pred(Predicate::range(AttrRef::new("x"), heavy - (budget / 2) as f64, heavy - 1.0), 0.3),
            ]
        };
        let and = |w0: f64| Weighted::unit(ConditionNode::And(children(w0)));
        let scalar = |cond: &Weighted, policy: &DisplayPolicy| {
            let opts = PipelineOptions { mode: ExecMode::Scalar, ..Default::default() };
            run_pipeline(&db, t, &resolver, Some(cond), policy, opts).unwrap()
        };
        let mut session = PipelineCache::new();
        for (step, w0) in [1.0, 0.05, 1.0].into_iter().enumerate() {
            let cond = and(w0);
            let opts = PipelineOptions { cache: Some(&mut session), trace: true, ..Default::default() };
            let fast = run_pipeline(&db, t, &resolver, Some(&cond), &policy, opts).unwrap();
            let slow = scalar(&cond, &policy);
            let what = format!("step {step} ({policy:?})");
            let diff = first_divergence(&fast, &slow, &policy);
            prop_assert!(diff.is_none(), "{}: {}", what, diff.unwrap());
            prop_assert!(fast.combined.bits_eq(&slow.combined), "{}", what);
            let kept: Vec<bool> = fast.windows.iter().map(|w| w.raw_frame().is_some()).collect();
            prop_assert_eq!(kept, vec![step == 1, false, true], "{}", what);
            // (refit, evaluated, left as bits): a cold run, a miss, a refit
            let trace = fast.trace.as_ref().unwrap();
            let counts = (trace.windows_refit, trace.windows_evaluated, trace.windows_bits_only);
            prop_assert_eq!(counts, [(0, 3, 2), (0, 1, 0), (1, 0, 1)][step], "{}", what);
        }

        let or = Weighted::unit(ConditionNode::Or(children(1.0)));
        let two_sided = DisplayPolicy::TwoSidedPercentage(pct);
        for (cond, consumer, misses) in [(&or, &policy, 2), (&and(1.0), &two_sided, 1)] {
            // a session cache and a shared one, each warmed by the `AND`
            // query with its two bits-only windows
            let mut session = PipelineCache::new();
            let shared = MapWindows::default();
            let windows = |shared| SharedWindows { scope: "d#1", cache: shared };
            let warm = [
                PipelineOptions { cache: Some(&mut session), ..Default::default() },
                PipelineOptions { shared: Some(windows(&shared)), ..Default::default() },
            ];
            for opts in warm {
                let out = run_pipeline(&db, t, &resolver, Some(&and(1.0)), &policy, opts).unwrap();
                prop_assert_eq!(out.windows.iter().filter(|w| w.raw_frame().is_none()).count(), 2);
            }
            let slow = scalar(cond, consumer);
            let consume = [
                ("session", PipelineOptions { cache: Some(&mut session), trace: true, ..Default::default() }),
                ("shared", PipelineOptions { shared: Some(windows(&shared)), trace: true, ..Default::default() }),
            ];
            for (layer, opts) in consume {
                let fast = run_pipeline(&db, t, &resolver, Some(cond), consumer, opts).unwrap();
                let what = format!("{layer} cache, {consumer:?}, {} root", if misses == 2 { "OR" } else { "AND" });
                let diff = first_divergence(&fast, &slow, consumer);
                prop_assert!(diff.is_none(), "{}: {}", what, diff.unwrap());
                prop_assert!(fast.combined.bits_eq(&slow.combined), "{}", what);
                let trace = fast.trace.as_ref().unwrap();
                let hits = trace.cache_hits + trace.shared_hits;
                prop_assert_eq!((trace.windows_evaluated, hits), (misses, 3 - misses), "{}", what);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A session hands back its held panel only where a cold render paints
    /// the same bytes. A random stream of re-weights, selections, slides
    /// and pixel sizes runs over a 3-window `AND` of two-valued windows
    /// above the parallel threshold (rows with NULL, NaN, `+inf` and
    /// `-0.0`); small weights turn a window fitted, so the root moves
    /// between a table and a frame. After every step the session's panel
    /// — held, painted by pattern or painted by row — equals, pixel for
    /// pixel and in its ASCII and PPM bytes, the panel a fresh session
    /// renders from the same state. A re-weight of the covered root is
    /// held.
    #[test]
    fn held_panels_are_cold_renders(
        n in 40_000usize..120_000,
        pct in 0.5f64..3.0,
        spare in 3usize..5,
        ops in prop::collection::vec((0usize..4, 0usize..3, 0.05f64..1.0), 10..16),
    ) {
        let db = Arc::new(two_valued_table(n));
        let policy = DisplayPolicy::Percentage(pct);
        let a = spare * policy.budget(n);
        let query = QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, (n - a) as f64)
            .cmp("y", CompareOp::Eq, 0.0)
            .cmp("z", CompareOp::Eq, 0.0)
            .build();
        let mut session = Session::new(Arc::clone(&db), ConnectionRegistry::new());
        session.set_display_policy(policy.clone()).unwrap();
        session.set_query(query).unwrap();
        let opts = RenderOptions::default();
        let first = render_session(&mut session, &opts).unwrap();
        // the first step re-weights the covered root
        let steps = std::iter::once((0, 0, 0.9)).chain(ops);
        let mut held = 0;
        for (step, (op, window, value)) in steps.enumerate() {
            match op {
                0 => session.set_weight(window, value).unwrap(),
                1 => {
                    let displayed = &session.result().unwrap().pipeline.displayed;
                    match displayed.get((value * displayed.len() as f64) as usize) {
                        Some(&item) if window > 0 => drop(session.select_tuple(item).unwrap()),
                        _ => session.clear_selection(),
                    }
                }
                2 => {
                    let at = (n as f64 - a as f64 * (0.5 + value)).floor();
                    let target = PredicateTarget::Compare { op: CompareOp::Ge, value: Value::Float(at) };
                    session.set_predicate_target(0, target).unwrap();
                }
                _ => {
                    let ppi = [PixelsPerItem::One, PixelsPerItem::Four][window % 2];
                    session.set_pixels_per_item(ppi).unwrap();
                }
            }
            let picture = render_session(&mut session, &opts).unwrap();
            let paint = session.take_paint();
            held += usize::from(paint == Some(Paint::Held));
            if step == 0 {
                prop_assert_eq!(paint, Some(Paint::Held));
                prop_assert!(Arc::ptr_eq(&picture, &first));
            }

            let mut cold = Session::new(Arc::clone(&db), ConnectionRegistry::new());
            cold.set_display_policy(policy.clone()).unwrap();
            cold.set_pixels_per_item(session.pixels_per_item()).unwrap();
            cold.set_query(session.query().unwrap().clone()).unwrap();
            if let Some(item) = session.selected_item() {
                cold.select_tuple(item).unwrap();
            }
            let want = render_session(&mut cold, &opts).unwrap();
            let what = format!("step {step}: op {op} window {window} value {value} ({paint:?})");
            prop_assert!(picture.frame() == want.frame(), "{}", what);
            prop_assert_eq!(&*picture.ascii(), &to_ascii(want.frame(), ASCII_COLS).into_bytes(), "{}", what);
            let ppm = |fb: &Framebuffer| {
                let mut out = Vec::new();
                write_ppm(fb, &mut out).unwrap();
                out
            };
            prop_assert_eq!(ppm(picture.frame()), ppm(want.frame()), "{}", what);
        }
        prop_assert!(held >= 1);
    }
}

/// `n` rows over a scattered rank (`rank = i · 1_000_003 mod n`) where
/// every predicate the table-root property asks is two-valued: `x` is the
/// rank (NULL / NaN on a few ranks below `n / 2`); `y` is `±0.0` on the
/// top quarter of the ranks and a small signed value elsewhere (NULL /
/// NaN on a few ranks below `n / 2`); `z` is `±0.0` on two ranks in
/// three and NaN or `+inf` on the third (NULL on one in 101) — every
/// finite distance of `z = 0` is exact, so even its unweighted fit (over
/// every row) is two-valued.
fn two_valued_table(n: usize) -> Database {
    let cols = ["x", "y", "z"].map(|c| Column::new(c, DataType::Float));
    let mut t = TableBuilder::new("T", cols.to_vec());
    for i in 0..n {
        let rank = i * 1_000_003 % n;
        let sign = if rank.is_multiple_of(2) { 1.0 } else { -1.0 };
        let special = if rank < n / 2 { rank % 101 } else { 0 };
        let x = match special {
            7 => Value::Null,
            8 => Value::Float(f64::NAN),
            _ => Value::Float(rank as f64),
        };
        let y = match special {
            17 => Value::Null,
            18 => Value::Float(f64::NAN),
            _ if rank >= n - n / 4 => Value::Float(sign * 0.0),
            _ => Value::Float(sign * 0.25 * (1 + rank % 37) as f64),
        };
        let z = match (rank % 101, rank % 3) {
            (27, _) => Value::Null,
            (_, 0) if rank.is_multiple_of(2) => Value::Float(f64::NAN),
            (_, 0) => Value::Float(f64::INFINITY),
            _ => Value::Float(sign * 0.0),
        };
        t = t.row(vec![x, y, z]).unwrap();
    }
    let mut db = Database::new("d");
    db.add_table(t.build());
    db
}

/// End-to-end bit-identity of the branchless kernel walks against the
/// scalar reference at every lane/word remainder the fixed-width
/// restructure can mishandle: n ∈ {1..9} straddles the 4-lane blocks and
/// the 8-row validity words, n ∈ {4095, 4096, 4097} the word loop around
/// a 4k boundary — on NULL/NaN/±inf-dense columns and all-NULL frames.
#[test]
fn branchless_kernels_bit_identical_at_lane_remainders() {
    let resolver = DistanceResolver::new();
    let policy = DisplayPolicy::Percentage(40.0);
    let sizes = [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 4095, 4096, 4097];
    for &n in &sizes {
        for all_null in [false, true] {
            let rows: Vec<(f64, u8)> = (0..n)
                .map(|i| {
                    let v = (i as f64) * 0.75 - (n as f64) / 3.0;
                    let tag = if all_null { 0 } else { (i % 8) as u8 };
                    (v, tag)
                })
                .collect();
            let db = table_with_extremes(&rows);
            let t = db.table("T").unwrap();
            for or_root in [false, true] {
                let p1 = ConditionNode::Predicate(Predicate::compare(
                    AttrRef::new("x"),
                    CompareOp::Ge,
                    0.0,
                ));
                let p2 = ConditionNode::Predicate(Predicate::range(
                    AttrRef::new("x"),
                    -(n as f64),
                    n as f64 / 4.0,
                ));
                let children = vec![Weighted::new(p1, 0.7), Weighted::new(p2, 0.3)];
                let cond = Weighted::unit(if or_root {
                    ConditionNode::Or(children)
                } else {
                    ConditionNode::And(children)
                });
                let slow = run_pipeline(
                    &db,
                    t,
                    &resolver,
                    Some(&cond),
                    &policy,
                    PipelineOptions {
                        mode: ExecMode::Scalar,
                        ..Default::default()
                    },
                )
                .unwrap();
                let fast = run_pipeline(
                    &db,
                    t,
                    &resolver,
                    Some(&cond),
                    &policy,
                    PipelineOptions::default(),
                )
                .unwrap();
                let diff = first_divergence(&fast, &slow, &policy);
                assert!(
                    diff.is_none(),
                    "{} (n={n}, or={or_root}, all_null={all_null})",
                    diff.unwrap()
                );
            }
        }
    }
}

/// The same bit-identity above the parallel threshold, where the chunk
/// fan-out and the sampled selection bound actually engage, with the row
/// count chosen to leave a ragged tail chunk (2·CHUNK_ROWS + 5) on
/// extreme-dense data.
#[test]
fn branchless_kernels_bit_identical_above_the_parallel_threshold() {
    let resolver = DistanceResolver::new();
    let policy = DisplayPolicy::Percentage(25.0);
    let n = 32 * 1024 + 5;
    let rows: Vec<(f64, u8)> = (0..n)
        .map(|i| ((i as f64) * 0.5 - (n as f64) / 4.0, (i % 8) as u8))
        .collect();
    let db = table_with_extremes(&rows);
    let t = db.table("T").unwrap();
    for or_root in [false, true] {
        let p1 =
            ConditionNode::Predicate(Predicate::compare(AttrRef::new("x"), CompareOp::Ge, 100.0));
        let p2 = ConditionNode::Predicate(Predicate::range(AttrRef::new("x"), -500.0, 2000.0));
        let children = vec![Weighted::new(p1, 0.6), Weighted::new(p2, 0.4)];
        let cond = Weighted::unit(if or_root {
            ConditionNode::Or(children)
        } else {
            ConditionNode::And(children)
        });
        let slow = run_pipeline(
            &db,
            t,
            &resolver,
            Some(&cond),
            &policy,
            PipelineOptions {
                mode: ExecMode::Scalar,
                ..Default::default()
            },
        )
        .unwrap();
        let fast = run_pipeline(
            &db,
            t,
            &resolver,
            Some(&cond),
            &policy,
            PipelineOptions::default(),
        )
        .unwrap();
        let diff = first_divergence(&fast, &slow, &policy);
        assert!(diff.is_none(), "{} (or={or_root})", diff.unwrap());
    }
}

/// String pool for the string-kernel properties: empty strings, case
/// pairs, near-duplicates, combining accents and CJK — the shapes the
/// offset+bytes layout, the dictionary gather and the per-row reference
/// must agree on byte for byte.
const STR_POOL: &[&str] = &[
    "",
    "a",
    "A",
    "abc",
    "abd",
    "abcdef",
    "naïve",
    "übung",
    "日本語",
    "zz-9",
];

/// A one-`Str`-column table drawn from [`STR_POOL`]; `tag == 0` makes
/// the row NULL. Pool indexes repeat heavily, so dictionaries see
/// duplicate-heavy columns by construction.
fn string_table(rows: &[(usize, u8)]) -> Database {
    let mut t = TableBuilder::new("T", vec![Column::new("s", DataType::Str)]);
    for &(idx, tag) in rows {
        let v = if tag == 0 {
            Value::Null
        } else {
            Value::Str(STR_POOL[idx % STR_POOL.len()].to_owned())
        };
        t = t.row(vec![v]).unwrap();
    }
    let mut db = Database::new("d");
    db.add_table(t.build());
    db
}

/// Map a join-column draw onto a value: NULL / NaN always possible,
/// ±inf only when `specials` (so roughly half the cases keep the inner
/// relation fully finite and exercise the banded sort-merge path, the
/// other half force the exhaustive fallback), and `quant` rounds to
/// integers for duplicate-heavy columns.
fn join_value(v: f64, tag: u8, specials: bool, quant: bool) -> Value {
    match tag {
        0 => Value::Null,
        1 => Value::Float(f64::NAN),
        2 if specials => Value::Float(f64::INFINITY),
        3 if specials => Value::Float(f64::NEG_INFINITY),
        _ => Value::Float(if quant {
            v.round().clamp(-20.0, 20.0)
        } else {
            v
        }),
    }
}

fn pick_op(pick: usize) -> CompareOp {
    match pick % 6 {
        0 => CompareOp::Eq,
        1 => CompareOp::Ne,
        2 => CompareOp::Lt,
        3 => CompareOp::Le,
        4 => CompareOp::Gt,
        _ => CompareOp::Ge,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The banded sort-merge `IN` join (sorted projection over the
    /// inner relation, outward band sweep cut off by
    /// `gap + cond_lb >= best`) is bit-identical to the scalar
    /// exhaustive O(n·m) sweep — across NULL/NaN-heavy and
    /// duplicate-heavy join columns, ±inf inner values (which decline
    /// the band and fall back to the exhaustive inner loop), filtered
    /// and unfiltered inner queries, the `Exists` link and display
    /// policies.
    #[test]
    fn banded_in_join_matches_exhaustive_scalar(
        outer in prop::collection::vec((-1e3f64..1e3, 0u8..12), 1..60),
        inner in prop::collection::vec((-1e3f64..1e3, 0u8..12), 1..60),
        threshold in -1e3f64..1e3,
        filter_t in -1e3f64..1e3,
        specials in 0u8..2,
        quant in 0u8..2,
        with_filter in 0u8..2,
        use_exists in 0u8..2,
        pct in 1.0f64..100.0,
        pick in 0usize..4,
    ) {
        let mut t = TableBuilder::new("O", vec![Column::new("x", DataType::Float)]);
        for &(v, tag) in &outer {
            t = t.row(vec![join_value(v, tag, specials == 1, quant == 1)]).unwrap();
        }
        let mut db = Database::new("d");
        db.add_table(t.build());
        let mut t = TableBuilder::new("I", vec![Column::new("y", DataType::Float)]);
        for &(v, tag) in &inner {
            t = t.row(vec![join_value(v, tag, specials == 1, quant == 1)]).unwrap();
        }
        db.add_table(t.build());
        let t = db.table("O").unwrap();
        let resolver = DistanceResolver::new();
        let sub = if with_filter == 1 {
            QueryBuilder::from_tables(["I"]).cmp("y", CompareOp::Le, filter_t).build()
        } else {
            QueryBuilder::from_tables(["I"]).build()
        };
        let qb = QueryBuilder::from_tables(["O"]).cmp("x", CompareOp::Ge, threshold);
        let q = if use_exists == 1 {
            qb.exists(sub).build()
        } else {
            qb.is_in("x", "y", sub).build()
        };
        let policy = pick_policy(pick, pct);
        let fast = run_pipeline(&db, t, &resolver, q.condition.as_ref(), &policy, PipelineOptions::default());
        let slow = run_pipeline(&db, t, &resolver, q.condition.as_ref(), &policy, PipelineOptions { mode: ExecMode::Scalar, ..Default::default() });
        match (fast, slow) {
            (Ok(fast), Ok(slow)) => {
                let diff = first_divergence(&fast, &slow, &policy);
                prop_assert!(diff.is_none(), "{} under {:?}", diff.unwrap(), policy);
            }
            (Err(_), Err(_)) => {}
            (f, s) => prop_assert!(false, "one mode errored: {f:?} vs {s:?}"),
        }
    }

    /// String predicates through the dictionary-gather path (distance
    /// evaluated once per distinct value, gathered per row through the
    /// codes — no per-row `Value` clone) are bit-identical to the
    /// per-row scalar reference — across every comparison operator,
    /// string ranges, NULL-heavy / empty-string / non-ASCII /
    /// duplicate-heavy columns.
    #[test]
    fn string_gather_kernels_match_scalar_reference(
        rows in prop::collection::vec((0usize..10, 0u8..5), 1..120),
        needle in 0usize..10,
        lo in 0usize..10,
        hi in 0usize..10,
        with_range in 0u8..2,
        op_pick in 0usize..6,
        pct in 1.0f64..100.0,
        pick in 0usize..4,
    ) {
        let db = string_table(&rows);
        let t = db.table("T").unwrap();
        let resolver = DistanceResolver::new();
        let needle_s = STR_POOL[needle % STR_POOL.len()];
        let (a, b) = (STR_POOL[lo % STR_POOL.len()], STR_POOL[hi % STR_POOL.len()]);
        let (lo_s, hi_s) = if a <= b { (a, b) } else { (b, a) };
        let qb = QueryBuilder::from_tables(["T"]).cmp("s", pick_op(op_pick), needle_s);
        let q = if with_range == 1 {
            qb.between("s", lo_s, hi_s).build()
        } else {
            qb.build()
        };
        let policy = pick_policy(pick, pct);
        let slow = run_pipeline(&db, t, &resolver, q.condition.as_ref(), &policy, PipelineOptions { mode: ExecMode::Scalar, ..Default::default() });
        let fast = run_pipeline(&db, t, &resolver, q.condition.as_ref(), &policy, PipelineOptions::default());
        match (fast, slow) {
            (Ok(fast), Ok(slow)) => {
                let diff = first_divergence(&fast, &slow, &policy);
                prop_assert!(diff.is_none(), "vectorized: {} under {:?}", diff.unwrap(), policy);
            }
            (Err(_), Err(_)) => {}
            (f, s) => prop_assert!(false, "one mode errored: {f:?} vs {s:?}"),
        }
    }

    /// Approximate string `IN` joins (the dictionary-gathered join: one
    /// distance evaluation per distinct outer value against the inner
    /// relation) are bit-identical to the scalar per-row exhaustive
    /// sweep, on NULL-heavy / empty-string / non-ASCII /
    /// duplicate-heavy key columns.
    #[test]
    fn gathered_string_join_matches_exhaustive_scalar(
        outer in prop::collection::vec((0usize..10, 0u8..5), 1..60),
        inner in prop::collection::vec((0usize..10, 0u8..5), 1..60),
        filter in 0usize..10,
        with_filter in 0u8..2,
        op_pick in 0usize..6,
        pct in 1.0f64..100.0,
        pick in 0usize..4,
    ) {
        let mk = |name: &str, rows: &[(usize, u8)]| {
            let mut t = TableBuilder::new(name, vec![Column::new("s", DataType::Str)]);
            for &(idx, tag) in rows {
                let v = if tag == 0 {
                    Value::Null
                } else {
                    Value::Str(STR_POOL[idx % STR_POOL.len()].to_owned())
                };
                t = t.row(vec![v]).unwrap();
            }
            t.build()
        };
        let mut db = Database::new("d");
        db.add_table(mk("A", &outer));
        db.add_table(mk("B", &inner));
        let t = db.table("A").unwrap();
        let resolver = DistanceResolver::new();
        let sub = if with_filter == 1 {
            QueryBuilder::from_tables(["B"])
                .cmp("s", pick_op(op_pick), STR_POOL[filter % STR_POOL.len()])
                .build()
        } else {
            QueryBuilder::from_tables(["B"]).build()
        };
        let q = QueryBuilder::from_tables(["A"]).is_in("s", "s", sub).build();
        let policy = pick_policy(pick, pct);
        let fast = run_pipeline(&db, t, &resolver, q.condition.as_ref(), &policy, PipelineOptions::default());
        let slow = run_pipeline(&db, t, &resolver, q.condition.as_ref(), &policy, PipelineOptions { mode: ExecMode::Scalar, ..Default::default() });
        match (fast, slow) {
            (Ok(fast), Ok(slow)) => {
                let diff = first_divergence(&fast, &slow, &policy);
                prop_assert!(diff.is_none(), "{} under {:?}", diff.unwrap(), policy);
            }
            (Err(_), Err(_)) => {}
            (f, s) => prop_assert!(false, "one mode errored: {f:?} vs {s:?}"),
        }
    }

    /// Connections over a cross-product base relation: the vectorized
    /// output is bit-identical to the scalar reference for
    /// equi- and non-equijoins on NULL/NaN-bearing columns.
    #[test]
    fn connections_match_scalar_reference(
        left in prop::collection::vec((-1e3f64..1e3, 0u8..8), 1..16),
        right in prop::collection::vec((-1e3f64..1e3, 0u8..8), 1..16),
        threshold in -1e3f64..1e3,
        non_equi in 0u8..2,
        op_pick in 0usize..6,
        pct in 1.0f64..100.0,
        pick in 0usize..4,
    ) {
        let mk = |name: &str, col: &str, rows: &[(f64, u8)]| {
            let mut t = TableBuilder::new(name, vec![Column::new(col, DataType::Float)]);
            for &(v, tag) in rows {
                let x = match tag {
                    0 => Value::Null,
                    1 => Value::Float(f64::NAN),
                    _ => Value::Float(v),
                };
                t = t.row(vec![x]).unwrap();
            }
            t.build()
        };
        let mut db = Database::new("d");
        db.add_table(mk("L", "a", &left));
        db.add_table(mk("R", "b", &right));
        let cross = db.table("L").unwrap().cross_product(db.table("R").unwrap(), "LxR");
        let resolver = DistanceResolver::new();
        let kind = if non_equi == 1 {
            ConnectionKind::NonEqui {
                left: AttrRef::new("a"),
                op: pick_op(op_pick),
                right: AttrRef::new("b"),
            }
        } else {
            ConnectionKind::Equi { left: AttrRef::new("a"), right: AttrRef::new("b") }
        };
        let def = ConnectionDef {
            name: "joins".into(),
            left_table: "L".into(),
            right_table: "R".into(),
            kind,
        };
        let u = def.instantiate(vec![]).unwrap();
        let q = QueryBuilder::from_tables(["L", "R"])
            .cmp("a", CompareOp::Ge, threshold)
            .connect(u)
            .build();
        let policy = pick_policy(pick, pct);
        let slow = run_pipeline(&db, &cross, &resolver, q.condition.as_ref(), &policy, PipelineOptions { mode: ExecMode::Scalar, ..Default::default() });
        let fast = run_pipeline(&db, &cross, &resolver, q.condition.as_ref(), &policy, PipelineOptions::default());
        match (fast, slow) {
            (Ok(fast), Ok(slow)) => {
                let diff = first_divergence(&fast, &slow, &policy);
                prop_assert!(diff.is_none(), "vectorized: {} under {:?}", diff.unwrap(), policy);
            }
            (Err(_), Err(_)) => {}
            (f, s) => prop_assert!(false, "one mode errored: {f:?} vs {s:?}"),
        }
    }
}

/// A map-backed shared window cache: what `visdb_service::WindowCache`
/// is, minus eviction and counters.
#[derive(Default)]
struct MapWindows(Mutex<HashMap<String, PredicateWindow>>);

impl WindowSource for MapWindows {
    fn lookup(
        &self,
        key: &str,
        usable: &dyn Fn(&PredicateWindow) -> bool,
    ) -> Option<PredicateWindow> {
        self.0
            .lock()
            .unwrap()
            .get(key)
            .filter(|w| usable(w))
            .cloned()
    }
    fn store(&self, key: String, window: PredicateWindow, _recipe: Option<WindowRecipe>) {
        self.0.lock().unwrap().insert(key, window);
    }
}

/// A map-backed shared projection store that counts what it is asked.
#[derive(Default)]
struct MapProjections {
    map: Mutex<HashMap<String, Arc<SortedProjection>>>,
    hits: Mutex<usize>,
    stores: Mutex<usize>,
}

impl ProjectionSource for MapProjections {
    fn lookup(&self, key: &str) -> Option<Arc<SortedProjection>> {
        let found = self.map.lock().unwrap().get(key).cloned();
        *self.hits.lock().unwrap() += usize::from(found.is_some());
        found
    }
    fn store(&self, key: String, projection: Arc<SortedProjection>) {
        *self.stores.lock().unwrap() += 1;
        self.map.lock().unwrap().insert(key, projection);
    }
}

/// One pipeline run in `mode` with the given cache layers attached.
fn run_cached(
    db: &Database,
    cond: &Weighted,
    policy: &DisplayPolicy,
    mode: ExecMode,
    cache: Option<&mut PipelineCache>,
    shared: Option<&MapWindows>,
) -> PipelineOutput {
    let t = db.table("T").unwrap();
    run_pipeline(
        db,
        t,
        &DistanceResolver::new(),
        Some(cond),
        policy,
        PipelineOptions {
            cache,
            shared: shared.map(|cache| SharedWindows {
                scope: "d#1",
                cache,
            }),
            mode,
            trace: true,
            ..Default::default()
        },
    )
    .unwrap()
}

/// `cond` with its `j`-th top-level window re-weighted.
fn reweighted(cond: &Weighted, j: usize, weight: f64) -> Weighted {
    let mut out = cond.clone();
    match &mut out.node {
        ConditionNode::And(cs) | ConditionNode::Or(cs) => cs[j].weight = weight,
        _ => out.weight = weight,
    }
    out
}

/// Re-weighting window `j` of `cond` to each of the issue's weights is
/// byte-identical to a cold run of the re-weighted query in `mode`,
/// through the session cache alone, the shared cache alone, and sessions
/// alternating weights over one shared entry — and each of those runs
/// refits exactly the re-weighted window, evaluating nothing but a
/// window kept as its exact bits that no longer cover its fit (a miss).
fn assert_reweight_is_a_refit(
    db: &Database,
    cond: &Weighted,
    policy: &DisplayPolicy,
    mode: ExecMode,
    j: usize,
) {
    let windows = match &cond.node {
        ConditionNode::And(cs) | ConditionNode::Or(cs) => cs.len(),
        _ => 1,
    };
    let check = |out: &PipelineOutput, cold: &PipelineOutput, refit: usize, what: &str| {
        let diff = first_divergence(out, cold, policy);
        assert!(
            diff.is_none(),
            "{} ({what}, {mode:?}, {policy:?})",
            diff.unwrap()
        );
        let trace = out.trace.as_ref().expect("trace requested");
        let missed = trace.windows_evaluated;
        let into_frame = out.windows[j].raw_frame().is_some();
        assert!(
            missed == 0 || (refit == 1 && missed == 1 && into_frame),
            "{what}"
        );
        assert_eq!(trace.windows_refit + missed, refit, "{what}");
        assert_eq!(
            trace.cache_hits + trace.shared_hits + missed,
            windows,
            "{what}"
        );
    };
    let mut session = PipelineCache::new();
    run_cached(db, cond, policy, mode, Some(&mut session), None);
    let shared = MapWindows::default();
    run_cached(db, cond, policy, mode, None, Some(&shared));
    let alternating = MapWindows::default();
    let cold_w = run_cached(db, cond, policy, mode, None, Some(&alternating));
    let mut previous = cond.clone();
    for weight in [0.0, 1e-9, 0.3, 1.0, 7.0] {
        let next = reweighted(cond, j, weight);
        // a no-op re-weight finds its window ready, not refit
        let refit = usize::from(next != previous);
        let cold = run_cached(db, &next, policy, mode, None, None);
        let out = run_cached(db, &next, policy, mode, Some(&mut session), None);
        check(&out, &cold, refit, "session cache");
        let out = run_cached(db, &next, policy, mode, None, Some(&shared));
        check(&out, &cold, refit, "shared cache");
        // one session moves the shared entry to `weight`, the other
        // moves it back: one entry per subtree, the latest weight wins
        let out = run_cached(db, &next, policy, mode, None, Some(&alternating));
        check(
            &out,
            &cold,
            usize::from(next != *cond),
            "alternating, there",
        );
        let back = run_cached(db, cond, policy, mode, None, Some(&alternating));
        check(
            &back,
            &cold_w,
            usize::from(next != *cond),
            "alternating, back",
        );
        assert_eq!(alternating.0.lock().unwrap().len(), windows);
        previous = next;
    }
    assert_eq!(shared.0.lock().unwrap().len(), windows);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A re-weight recomputes only the fit and the normalization of the
    /// window it touched: for random weighted AND/OR trees (nested
    /// levels, a non-invertible NOT) over NULL/NaN/±inf/tie-heavy data,
    /// `displayed`, `num_exact`, every row's combined distance and every
    /// window's raw, normalized and `norm_params` equal a cold run of
    /// the re-weighted query — on the vectorized and scalar paths, through each cache layer (see
    /// [`assert_reweight_is_a_refit`]) and through `Session::set_weight`.
    #[test]
    fn reweight_equals_a_cold_run_of_the_reweighted_query(
        rows in prop::collection::vec((-1e3f64..1e3, 0u8..10), 1..120),
        t1 in -1e3f64..1e3,
        t2 in -1e3f64..1e3,
        lo in -1e3f64..1e3,
        span in 0.0f64..5e2,
        w in prop::collection::vec(0.05f64..1.0, 3),
        pct in 1.0f64..100.0,
        pick in 0usize..4,
        shape in 0usize..8,
        j_pick in 0usize..3,
    ) {
        // rounding makes duplicate-heavy columns: tie classes in every fit
        let rows: Vec<(f64, u8)> = rows.iter().map(|&(v, tag)| (v.round(), tag)).collect();
        let db = table_with_extremes(&rows);
        let p1 = ConditionNode::Predicate(Predicate::compare(AttrRef::new("x"), CompareOp::Ge, t1));
        let p2 = ConditionNode::Predicate(Predicate::range(AttrRef::new("x"), lo, lo + span));
        let p3 = ConditionNode::Predicate(Predicate::compare(AttrRef::new("x"), CompareOp::Lt, t2));
        let (or_root, nested, negated) = (shape & 1 == 1, shape & 2 == 2, shape & 4 == 4);
        let p2 = if negated { ConditionNode::Not(Box::new(p2)) } else { p2 };
        let children = if nested {
            let inner = vec![Weighted::new(p2, w[1]), Weighted::new(p3, w[2])];
            let inner = if or_root { ConditionNode::And(inner) } else { ConditionNode::Or(inner) };
            vec![Weighted::new(p1, w[0]), Weighted::new(inner, w[1])]
        } else {
            vec![Weighted::new(p1, w[0]), Weighted::new(p2, w[1]), Weighted::new(p3, w[2])]
        };
        let j = j_pick % children.len();
        let cond = Weighted::unit(if or_root {
            ConditionNode::Or(children)
        } else {
            ConditionNode::And(children)
        });
        let policy = pick_policy(pick, pct);
        if run_pipeline(&db, db.table("T").unwrap(), &DistanceResolver::new(), Some(&cond), &policy, PipelineOptions { mode: ExecMode::Scalar, ..Default::default() }).is_err() {
            return Ok(()); // e.g. gap params vs tiny n: every path rejects
        }
        for mode in [ExecMode::Vectorized, ExecMode::Scalar] {
            assert_reweight_is_a_refit(&db, &cond, &policy, mode, j);
        }

        // the same through the interactive session: `set_weight` then a
        // fetch vs a cold session handed the re-weighted query
        let db = Arc::new(db);
        let query_of = |cond: &Weighted| Query {
            condition: Some(cond.clone()),
            ..QueryBuilder::from_tables(["T"]).build()
        };
        let session_with = |cond: &Weighted| {
            let mut s = Session::new(Arc::clone(&db), ConnectionRegistry::new());
            s.set_auto_recalculate(false);
            s.set_display_policy(policy.clone()).unwrap();
            s.set_query(query_of(cond)).unwrap();
            s
        };
        let mut warm = session_with(&cond);
        warm.result().unwrap();
        for weight in [0.0, 1e-9, 0.3, 1.0, 7.0] {
            warm.set_weight(j, weight).unwrap();
            let mut cold = session_with(&reweighted(&cond, j, weight));
            let diff = first_divergence(
                &warm.result().unwrap().pipeline,
                &cold.result().unwrap().pipeline,
                &policy,
            );
            prop_assert!(diff.is_none(), "{} (session, w'={weight})", diff.unwrap());
        }
    }
}

/// The refit above the parallel threshold, where the fused walk's
/// normalize arm really fans out over the chunks of a cached raw frame,
/// against the scalar oracle's cold run.
#[test]
fn reweight_refits_bit_identically_above_the_parallel_threshold() {
    let policy = DisplayPolicy::Percentage(25.0);
    let n = 32 * 1024 + 5;
    let rows: Vec<(f64, u8)> = (0..n)
        .map(|i| (((i * 37) % 4001) as f64 * 0.5 - 500.0, (i % 9) as u8))
        .collect();
    let db = table_with_extremes(&rows);
    let p1 = ConditionNode::Predicate(Predicate::compare(AttrRef::new("x"), CompareOp::Ge, 100.0));
    let p2 = ConditionNode::Predicate(Predicate::range(AttrRef::new("x"), -200.0, 900.0));
    let cond = Weighted::unit(ConditionNode::And(vec![
        Weighted::new(p1, 0.6),
        Weighted::new(p2, 0.4),
    ]));
    let mut session = PipelineCache::new();
    let vectorized = ExecMode::Vectorized;
    run_cached(&db, &cond, &policy, vectorized, Some(&mut session), None);
    for weight in [0.0, 1e-9, 0.3, 7.0] {
        let next = reweighted(&cond, 1, weight);
        let out = run_cached(&db, &next, &policy, vectorized, Some(&mut session), None);
        let trace = out.trace.as_ref().unwrap();
        assert_eq!((trace.windows_refit, trace.windows_evaluated), (1, 0));
        let cold = run_cached(&db, &next, &policy, ExecMode::Scalar, None, None);
        let diff = first_divergence(&out, &cold, &policy);
        assert!(diff.is_none(), "{} (w'={weight})", diff.unwrap());
    }
}

/// Two projections hold the same permutation, values and flags.
fn assert_same_projection(a: &SortedProjection, b: &SortedProjection) {
    assert_eq!(
        (a.rows(), a.defined(), a.is_fully_finite()),
        (b.rows(), b.defined(), b.is_fully_finite())
    );
    for j in 0..a.defined() {
        assert_eq!(a.row_at(j), b.row_at(j), "permutation diverges at {j}");
        assert_eq!(a.value_at(j).to_bits(), b.value_at(j).to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A §4.4 join that borrows its inner key's sorted projection from
    /// a shared source equals the source-less join bit for bit, builds
    /// the projection exactly once across evaluations, and — the key
    /// carrying the generation scope and the row count — sweeps the
    /// projection of the *grown* column after an append to the inner
    /// relation: the migrated (`extended`) one when the serving layer
    /// carried it over, a fresh build otherwise, the two being equal.
    #[test]
    fn join_over_a_shared_projection_matches_the_sourceless_join(
        outer in prop::collection::vec((-1e3f64..1e3, 0u8..12), 1..60),
        inner in prop::collection::vec((-1e3f64..1e3, 0u8..12), 1..60),
        grown in prop::collection::vec((-1e3f64..1e3, 0u8..12), 1..20),
        threshold in -1e3f64..1e3,
        filters in prop::collection::vec(-1e3f64..1e3, 3),
        specials in 0u8..2,
        quant in 0u8..2,
        pct in 1.0f64..100.0,
    ) {
        let column = |name: &str, col: &str, rows: &[(f64, u8)]| {
            let mut t = TableBuilder::new(name, vec![Column::new(col, DataType::Float)]);
            for &(v, tag) in rows {
                t = t.row(vec![join_value(v, tag, specials == 1, quant == 1)]).unwrap();
            }
            t.build()
        };
        let db_with_inner = |inner: &[(f64, u8)]| {
            let mut db = Database::new("d");
            db.add_table(column("O", "x", &outer));
            db.add_table(column("I", "y", inner));
            db
        };
        let resolver = DistanceResolver::new();
        let policy = DisplayPolicy::Percentage(pct);
        let run = |db: &Database, filter: f64, source: Option<(&str, &MapProjections)>| {
            let sub = QueryBuilder::from_tables(["I"]).cmp("y", CompareOp::Le, filter).build();
            let q = QueryBuilder::from_tables(["O"])
                .cmp("x", CompareOp::Ge, threshold)
                .is_in("x", "y", sub)
                .build();
            run_pipeline(
                db, db.table("O").unwrap(), &resolver, q.condition.as_ref(), &policy,
                PipelineOptions {
                    projections: source.map(|(scope, s)| (scope, s as &dyn ProjectionSource)),
                    ..Default::default()
                },
            ).unwrap()
        };
        let fresh_build = |db: &Database| {
            let col = db.table("I").unwrap().column_by_name("y").unwrap();
            SortedProjection::build(col.len(), |i| col.get_f64(i))
        };

        let db = db_with_inner(&inner);
        let source = MapProjections::default();
        for &filter in &filters {
            let with = run(&db, filter, Some(("d#1", &source)));
            let diff = first_divergence(&with, &run(&db, filter, None), &policy);
            prop_assert!(diff.is_none(), "{}", diff.unwrap());
        }
        prop_assert_eq!(*source.stores.lock().unwrap(), 1, "one build across evaluations");
        prop_assert_eq!(*source.hits.lock().unwrap(), filters.len() - 1);
        let old_key = projection_key("d#1", "I", inner.len(), "y");
        let old = source.lookup(&old_key).expect("stored under the inner column's key");
        assert_same_projection(&old, &fresh_build(&db));

        // the inner relation grows: a new generation scope and row count
        let all: Vec<(f64, u8)> = inner.iter().chain(&grown).copied().collect();
        let db2 = db_with_inner(&all);
        let col2 = db2.table("I").unwrap().column_by_name("y").unwrap();
        // carried over the way the serving layer's append does
        let migrated = Arc::new(old.extended(all.len(), |i| col2.get_f64(i)));
        source.store(projection_key("d#2", "I", all.len(), "y"), Arc::clone(&migrated));
        let stores = *source.stores.lock().unwrap();
        let carried = run(&db2, filters[0], Some(("d#2", &source)));
        prop_assert_eq!(*source.stores.lock().unwrap(), stores, "the migrated entry is a hit");
        // not carried over: the old generation's entry must not serve it
        let rebuilt_source = MapProjections::default();
        rebuilt_source.store(old_key, old);
        let rebuilt = run(&db2, filters[0], Some(("d#2", &rebuilt_source)));
        let plain = run(&db2, filters[0], None);
        for out in [&carried, &rebuilt] {
            let diff = first_divergence(out, &plain, &policy);
            prop_assert!(diff.is_none(), "{}", diff.unwrap());
        }
        let new_key = projection_key("d#2", "I", all.len(), "y");
        let built = rebuilt_source.lookup(&new_key).expect("built for the grown column");
        assert_same_projection(&built, &fresh_build(&db2));
        assert_same_projection(&migrated, &built);
    }
}
