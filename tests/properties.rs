//! Cross-crate property-based tests: pipeline invariants on arbitrary
//! data and queries.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use visdb::core::{Paint, ASCII_COLS};
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
    /// pipeline recompute produces — across all four monotone ops, top-k
    /// display policies, NULL/NaN-heavy columns and duplicate-heavy
    /// values, over a *sequence* of drags: random bounds, or a dense →
    /// sparse → dense revisit at one threshold side (bounds on the
    /// column's own values, so `>` and `>=` differ at the tie), where
    /// each drag's exact band is contained in the one before or holds it.
    #[test]
    fn sorted_projection_drag_matches_full_recompute(
        rows in prop::collection::vec((-1e3f64..1e3, 0u8..5), 1..200),
        dups in 1.0f64..200.0,
        t0 in -1e3f64..1e3,
        drags in prop::collection::vec((-1e3f64..1e3, 0u8..4), 1..5),
        revisit in 0u8..2,
        dense_q in 0.0f64..0.3,
        sparse_q in 0.9f64..1.0,
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
        let op_of = |code: u8| [CompareOp::Ge, CompareOp::Gt, CompareOp::Le, CompareOp::Lt][code as usize];
        let drags: Vec<(f64, CompareOp)> = if revisit == 1 {
            let mut defined: Vec<f64> = rows
                .iter()
                .filter(|&&(_, tag)| tag != 0 && tag != 2)
                .map(|&(v, _)| v)
                .collect();
            defined.sort_by(f64::total_cmp);
            // the defined value at quantile `q`, from the low end
            let at = |q: f64| match defined.len() {
                0 => drags[0].0,
                len => defined[((len - 1) as f64 * q) as usize],
            };
            let code = drags[0].1;
            let (dense, sparse) = if code < 2 {
                (at(dense_q), at(sparse_q))
            } else {
                (at(1.0 - dense_q), at(1.0 - sparse_q))
            };
            // the way back takes the strict / non-strict twin of the op
            vec![(dense, op_of(code)), (sparse, op_of(code)), (dense, op_of(code ^ 1))]
        } else {
            drags.iter().map(|&(t, code)| (t, op_of(code))).collect()
        };
        let mut dragged = make();
        for &(t, op) in &drags {
            let target = PredicateTarget::Compare { op, value: Value::Float(t) };
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
/// prefix — rows *and* order — and the count of defined rows at its k-th
/// key for k ∈ {0, 1, n/100, n/4, m−1, m, > m}, on
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
                        let (mut got, tied) = k_smallest(&frame, &ranges, parallel, k, key);
                        got.sort_unstable_by(rank_order);
                        let want = full_sort_prefix(&options, key, k);
                        assert_eq!(
                            selection_bits(&got),
                            selection_bits(&want),
                            "{name} n={n} k={k} parallel={parallel} key={key_name}"
                        );
                        // the rows at the k-th key, in the prefix or not
                        let kth = want.last().filter(|_| want.len() == k).map(|c| c.0);
                        let at_kth = |v: &f64| kth.is_some_and(|kth| key(*v) == kth);
                        let want_tied = options.iter().flatten().filter(|v| at_kth(v)).count();
                        assert_eq!(
                            tied, want_tied,
                            "{name} n={n} k={k} parallel={parallel} key={key_name} tied"
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
                // bits (a root `OR` normalizes raw distances either way);
                // a root of such windows and fitted ones whose rows below
                // the plateau are known is derived from its table, which
                // reads them all from their bits
                let two_valued = fast.windows.iter().filter(|w| w.norm_params.dmax == 0.0).count();
                let tabled = root_pick != 1 && plateau_rows(&fast.windows).is_some_and(|rows| {
                    visdb::relevance::table_takes_exceptions(n, rows)
                });
                let bits = match (root_pick, tabled) {
                    (1, _) => 0,
                    (_, true) => windows,
                    _ => two_valued,
                };
                prop_assert_eq!((trace.children_bits, trace.children_raw), (bits, windows - bits), "{}", tag);
                prop_assert_eq!(trace.roots_from_table, usize::from(tabled), "{}", tag);
                let exceptions = match &fast.combined {
                    visdb::relevance::Combined::Table(table) => table.exceptions().len(),
                    _ => 0,
                };
                prop_assert_eq!(trace.table_exceptions, exceptions, "{}", tag);
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
                let fitted = trace.fits_from_counts + trace.fits_from_plateau + trace.fits_selected;
                prop_assert_eq!(fitted, 1, "refit (point {})", point);
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
                let tabled = root_pick != 1 && plateau_rows(&fast.windows).is_some_and(|rows| {
                    visdb::relevance::table_takes_exceptions(n, rows)
                });
                let bits = match (root_pick, tabled) {
                    (1, _) => 0,
                    (_, true) => children,
                    _ => bits,
                };
                prop_assert_eq!((trace.children_bits, trace.children_raw), (bits, children - bits));
                prop_assert_eq!(trace.roots_from_table, usize::from(tabled), "crossing step {}", step);
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

/// Five comparison columns and their values widened to `f64` (`None`:
/// NULL): `x` floats from [`X_POOL`] with NULL, NaN, `-0.0` and `0.0`
/// rows, and `±inf` only inside chunk `inf_chunk`; `y` floats in
/// `[0, 100)` with NULLs; `i` integers in `[-25, 25)` with NULLs and a
/// few beyond `±2^53`; `u` and `j` as `y` and `i` with no NULL, the two
/// columns a byte sketch covers.
fn comparison_table(n: usize, seed: u64, inf_chunk: usize) -> (Database, [Vec<Option<f64>>; 5]) {
    let cols = vec![
        Column::new("x", DataType::Float),
        Column::new("y", DataType::Float),
        Column::new("i", DataType::Int),
        Column::new("u", DataType::Float),
        Column::new("j", DataType::Int),
    ];
    let mut t = TableBuilder::new("T", cols);
    let mut widened: [Vec<Option<f64>>; 5] = Default::default();
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
        let u = Value::Float(((h >> 20) % 10_000) as f64 / 100.0);
        let j = match h % 37 {
            9 => Value::Int(i64::MAX - (h >> 41) as i64),
            10 => Value::Int(-(1 << 54) - (h >> 41) as i64),
            _ => Value::Int(((h >> 28) % 50) as i64 - 25),
        };
        for (col, v) in widened.iter_mut().zip([&x, &y, &i, &u, &j]) {
            col.push(v.as_f64());
        }
        t = t.row(vec![x, y, i, u, j]).unwrap();
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
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Comparison windows whose exact answers cover their fit count are
    /// compare-packed past the range where they do — straight from the
    /// column — and stay byte-identical to a cold scalar run above the
    /// parallel threshold: 1 to 3 `>` / `>=` / `<` / `<=` windows with
    /// random thresholds (repeated across the relation) and weights, over
    /// a float column with NULL, NaN, `-0.0` and `±inf` rows (the chunk
    /// holding the infinities is declined), a plain float column and an
    /// integer column with values beyond `±2^53`, plus 0 to 2 windows
    /// over their NULL-free twins `u` and `j`; parallel and serial, where
    /// the packed ranges are exactly the ones the count rule names, and
    /// the ones the byte sketch served are exactly those of `u` and `j`.
    /// A run cancelled mid-walk leaves the session cache, the shared
    /// window cache and the table's projection slots untouched, and the
    /// same caches then serve the oracle's answer.
    #[test]
    fn compare_packed_windows_match_the_oracle_above_the_parallel_threshold(
        n in 40_000usize..120_000,
        seed in 0u64..1 << 40,
        inf_chunk in 0usize..8,
        pct in 0.5f64..3.0,
        windows in prop::collection::vec(((0usize..3, 0usize..4), 0usize..50, 0.2f64..1.0), 1..4),
        skip in 1usize..4,
        sketched in prop::collection::vec(((3usize..5, 0usize..4), 0usize..50, 0.2f64..1.0), 0..3),
    ) {
        let (db, values) = comparison_table(n, seed, inf_chunk);
        let t = db.table("T").unwrap();
        let resolver = DistanceResolver::new();
        let policy = DisplayPolicy::Percentage(pct);
        let budget = policy.budget(n);
        let ops = [CompareOp::Gt, CompareOp::Ge, CompareOp::Lt, CompareOp::Le];
        let preds: Vec<(usize, CompareOp, f64, f64)> = (windows.iter().chain(&sketched))
            .map(|&((col, op), pick, weight)| {
                let t = match col {
                    0 => X_POOL[pick % X_POOL.len()],
                    1 | 3 => pick as f64 * 2.0,
                    _ => pick as f64 - 25.0,
                };
                (col, ops[op], t, weight)
            })
            .collect();
        let leaf = |&(col, op, t, weight): &(usize, CompareOp, f64, f64)| {
            let p = Predicate::compare(AttrRef::new(["x", "y", "i", "u", "j"][col]), op, t);
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
        let packed = |sketched: &[usize]| -> usize {
            (preds.iter())
                .filter(|(col, ..)| sketched.contains(col))
                .filter_map(|&(col, op, t, weight)| {
                    let k = visdb::relevance::normalize::fit_k(n, weight, budget)?;
                    let greater = matches!(op, CompareOp::Gt | CompareOp::Ge);
                    Some(packed_ranges(&values[col], greater, t, k))
                })
                .sum()
        };
        let trace = serial.trace.as_ref().unwrap();
        prop_assert_eq!(trace.chunks_compare_packed, packed(&[0, 1, 2, 3, 4]), "{:?}", preds);
        // x (NULL, NaN, ±inf), y and i (NULL) have no sketch
        prop_assert_eq!(trace.chunks_sketch_packed, packed(&[3, 4]), "{:?}", preds);

        // cancelled on a range poll of the first window's walk
        let mut session = PipelineCache::new();
        let shared = MapWindows::default();
        let layers = |session: &mut PipelineCache, cancel| {
            run(PipelineOptions {
                cache: Some(session),
                shared: Some(SharedWindows { scope: "d#1", cache: &shared }),
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
        prop_assert!((0..t.schema().len()).all(|c| t.built_projection(c).is_none()));
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

            let diff = cold_render_divergence(&session, &db, &policy, &picture);
            let what = format!("step {step}: op {op} window {window} value {value} ({paint:?})");
            prop_assert!(diff.is_none(), "{}: {}", what, diff.unwrap());
        }
        prop_assert!(held >= 1);
    }
}

/// Where `picture`, `session`'s panel, differs from the panel a fresh
/// session renders from the same state — query, policy, pixel size and
/// selection: its pixels, its ASCII preview or its PPM bytes.
fn cold_render_divergence(
    session: &Session,
    db: &Arc<Database>,
    policy: &DisplayPolicy,
    picture: &visdb::core::Picture,
) -> Option<&'static str> {
    let mut cold = Session::new(Arc::clone(db), ConnectionRegistry::new());
    cold.set_display_policy(policy.clone()).unwrap();
    cold.set_pixels_per_item(session.pixels_per_item()).unwrap();
    cold.set_query(session.query().unwrap().clone()).unwrap();
    if let Some(item) = session.selected_item() {
        cold.select_tuple(item).unwrap();
    }
    let want = render_session(&mut cold, &RenderOptions::default()).unwrap();
    let ppm = |fb: &Framebuffer| {
        let mut out = Vec::new();
        write_ppm(fb, &mut out).unwrap();
        out
    };
    if picture.frame() != want.frame() {
        Some("pixels diverge")
    } else if *picture.ascii() != to_ascii(want.frame(), ASCII_COLS).into_bytes() {
        Some("ASCII previews diverge")
    } else if ppm(picture.frame()) != ppm(want.frame()) {
        Some("PPM bytes diverge")
    } else {
        None
    }
}

/// The rows a table root over `windows` would combine one by one — the
/// fitted windows' rows below their plateau — or `None` when a fitted
/// window's are not known (its fit covers every defined row).
fn plateau_rows(windows: &[PredicateWindow]) -> Option<usize> {
    (windows.iter())
        .map(|w| match w.norm_params.dmax == 0.0 {
            true => Some(0),
            false => w.below_plateau().map(<[u32]>::len),
        })
        .sum()
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

/// The outer join column of the above-threshold join property: `n` rows
/// on a half-unit grid across `[-1100, 1100)` — in value order, reversed,
/// shuffled, or as two ascending runs over the same values, one after
/// the other (two stations' time series) — with NULL, NaN and `±inf`
/// probes scattered among them.
fn join_outer(n: usize, order: usize, seed: u64) -> Vec<Value> {
    let half = n.div_ceil(2);
    let mut ranks: Vec<usize> = match order {
        1 => (0..n).rev().collect(),
        3 => (0..n).map(|i| 2 * (i % half) + i / half).collect(),
        _ => (0..n).collect(),
    };
    if order == 2 {
        for i in (1..n).rev() {
            ranks.swap(i, mix(i, seed) as usize % (i + 1));
        }
    }
    (ranks.iter().enumerate())
        .map(|(i, &r)| match mix(i, seed ^ 0x5eed) % 211 {
            0 => Value::Null,
            1 => Value::Float(f64::NAN),
            2 => Value::Float(f64::INFINITY),
            3 => Value::Float(f64::NEG_INFINITY),
            _ => Value::Float(((-1100.0 + 2200.0 * r as f64 / n as f64) * 2.0).floor() / 2.0),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The banded `IN` join walks each row range in order with a finger —
    /// every row's sweep galloping from the previous row's start — and a
    /// two-valued inner condition enters it as its exact bits; above the
    /// parallel threshold both stay byte-identical to the scalar oracle.
    /// An outer relation of `PAR_MIN_ROWS + 5` rows is three ranges, fanned
    /// out, each range's finger starting cold; its join column comes in
    /// value order, reversed, shuffled and as two ascending runs, with
    /// NULL, NaN and `±inf` probes (the last take the exhaustive row
    /// fallback). The inner relation (≤ 512 rows, duplicates, NULL and
    /// NaN keys, spread wider than `NORM_MAX` so that a row failing the
    /// inner condition can be some probes' best) is filtered by `y >= t`
    /// at weight 1, 0.3 or 0, with `t`
    /// leaving at least `k` exact answers (bits), fewer (a normalized
    /// frame), or none (every inner distance `NORM_MAX`) — `k` the inner
    /// fit count, `None` at weight 0 — under the `IN` and `EXISTS` links;
    /// the trace says which inner path ran.
    #[test]
    fn banded_in_join_matches_exhaustive_above_the_parallel_threshold(
        seed in 0u64..1 << 40,
        inner in prop::collection::vec((-1e3f64..1e3, 0u8..16), 256..513),
        pct in 0.2f64..1.0,
        regime in 0usize..3,
        weight_pick in 0usize..3,
        link_pick in 0usize..2,
    ) {
        let n = visdb::relevance::chunk::PAR_MIN_ROWS + 5;
        let m = inner.len();
        let keys: Vec<Option<f64>> = (inner.iter())
            .map(|&(v, tag)| match tag {
                0 => None,
                1 => Some(f64::NAN),
                _ => Some((v / 8.0).round() * 8.0),
            })
            .collect();
        let mut t = TableBuilder::new("I", vec![Column::new("y", DataType::Float)]);
        for &y in &keys {
            t = t.row(vec![y.map_or(Value::Null, Value::Float)]).unwrap();
        }
        let inner_table = t.build();
        let mut descending: Vec<f64> = keys.iter().flatten().copied().filter(|y| !y.is_nan()).collect();
        descending.sort_by(|a, b| b.total_cmp(a));
        let policy = DisplayPolicy::Percentage(pct);
        let budget = policy.budget(n);
        let resolver = DistanceResolver::new();
        // every outer order; every other one with the inner condition in
        // bits at weight 1 or 0.3, the rest with fewer or no exact answers
        // at weight 1, 0.3 or 0
        for order in 0..4 {
            let (regime, weight) = match (order + regime) % 2 {
                0 => (0, [1.0, 0.3][(weight_pick + order / 2) % 2]),
                _ => (1 + (regime + order / 2) % 2, [1.0, 0.3, 0.0][(weight_pick + order) % 3]),
            };
            let k = visdb::relevance::normalize::fit_k(m, weight, budget);
            let cut = k.unwrap_or(m / 3).min(descending.len()).max(1);
            let threshold = match regime {
                0 => descending[cut - 1],
                1 => descending[(cut / 2).saturating_sub(1)],
                _ => descending[0] + 1.0,
            };
            let exact = descending.iter().filter(|&&y| y >= threshold).count();
            let mut t = TableBuilder::new("O", vec![Column::new("x", DataType::Float)]);
            for x in join_outer(n, order, seed) {
                t = t.row(vec![x]).unwrap();
            }
            let mut db = Database::new("d");
            db.add_table(t.build());
            db.add_table(inner_table.clone());
            let outer = db.table("O").unwrap();
            // two consecutive orders also take the `EXISTS` link: one of
            // them with the inner condition in bits
            let links = if order / 2 == link_pick { 2 } else { 1 };
            for exists in [false, true].into_iter().take(links) {
                let sub = QueryBuilder::from_tables(["I"])
                    .cmp_weighted("y", CompareOp::Ge, threshold, weight)
                    .build();
                let qb = QueryBuilder::from_tables(["O"]);
                let q = if exists { qb.exists(sub) } else { qb.is_in("x", "y", sub) }.build();
                let run = |opts: PipelineOptions<'_>| {
                    run_pipeline(&db, outer, &resolver, q.condition.as_ref(), &policy, opts)
                        .unwrap()
                };
                let slow = run(PipelineOptions { mode: ExecMode::Scalar, ..Default::default() });
                let fast = run(PipelineOptions { trace: true, ..Default::default() });
                let what = format!("order {order}, k {k:?}, {exact} exact, exists: {exists}");
                let diff = first_divergence(&fast, &slow, &policy);
                prop_assert!(diff.is_none(), "{}: {}", what, diff.unwrap());
                let bits = k.is_some_and(|k| exact >= k);
                let trace = fast.trace.as_ref().unwrap();
                prop_assert_eq!(trace.join_inner_bits, usize::from(bits), "{}", what);
            }
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

    /// A §4.4 join sweeps its inner key's sorted projection from the
    /// inner table's slot and equals the scalar oracle's exhaustive join
    /// bit for bit. The slot is built once across evaluations: every
    /// later one sweeps the same build. After an append to the inner
    /// relation the join sweeps the grown column's projection — the slot
    /// `append_rows` extended, equal to a fresh build and to the one a
    /// reloaded catalog builds — while the old generation keeps its own.
    #[test]
    fn join_over_the_inner_tables_projection_matches_the_oracle(
        outer in prop::collection::vec((-1e3f64..1e3, 0u8..12), 1..60),
        inner in prop::collection::vec((-1e3f64..1e3, 0u8..12), 1..60),
        grown in prop::collection::vec((-1e3f64..1e3, 0u8..12), 1..20),
        threshold in -1e3f64..1e3,
        filters in prop::collection::vec(-1e3f64..1e3, 3),
        specials in 0u8..2,
        quant in 0u8..2,
        pct in 1.0f64..100.0,
    ) {
        let value = |&(v, tag): &(f64, u8)| join_value(v, tag, specials == 1, quant == 1);
        let column = |name: &str, col: &str, rows: &[(f64, u8)]| {
            let mut t = TableBuilder::new(name, vec![Column::new(col, DataType::Float)]);
            for row in rows {
                t = t.row(vec![value(row)]).unwrap();
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
        let run = |db: &Database, filter: f64, mode: ExecMode| {
            let sub = QueryBuilder::from_tables(["I"]).cmp("y", CompareOp::Le, filter).build();
            let q = QueryBuilder::from_tables(["O"])
                .cmp("x", CompareOp::Ge, threshold)
                .is_in("x", "y", sub)
                .build();
            let opts = PipelineOptions { mode, ..Default::default() };
            run_pipeline(db, db.table("O").unwrap(), &resolver, q.condition.as_ref(), &policy, opts)
                .unwrap()
        };
        let matches_the_oracle = |db: &Database, filter: f64| {
            let fast = run(db, filter, ExecMode::Vectorized);
            first_divergence(&fast, &run(db, filter, ExecMode::Scalar), &policy)
        };
        let slot = |db: &Database| db.table("I").unwrap().built_projection(0).cloned();
        let fresh_build = |db: &Database| {
            let col = db.table("I").unwrap().column_by_name("y").unwrap();
            SortedProjection::build(col.len(), |i| col.get_f64(i))
        };

        let db = db_with_inner(&inner);
        prop_assert!(slot(&db).is_none());
        let mut first: Option<Arc<SortedProjection>> = None;
        for &filter in &filters {
            let diff = matches_the_oracle(&db, filter);
            prop_assert!(diff.is_none(), "{}", diff.unwrap());
            let built = slot(&db).expect("the join builds its inner key's projection");
            let first = first.get_or_insert_with(|| Arc::clone(&built));
            prop_assert!(Arc::ptr_eq(first, &built), "one build across evaluations");
        }
        let old = slot(&db).unwrap();
        assert_same_projection(&old, &fresh_build(&db));

        // the inner relation grows by an append to a copy of the catalog,
        // the serving layer's copy-on-append
        let all: Vec<(f64, u8)> = inner.iter().chain(&grown).copied().collect();
        let mut db2 = db.clone();
        let rows = grown.iter().map(|row| vec![value(row)]).collect();
        db2.table_mut("I").unwrap().append_rows(rows).unwrap();
        let carried = slot(&db2).expect("extended by the append");
        assert_same_projection(&carried, &fresh_build(&db2));
        prop_assert_eq!(old.rows(), inner.len(), "the old generation keeps its own");
        let diff = matches_the_oracle(&db2, filters[0]);
        prop_assert!(diff.is_none(), "{}", diff.unwrap());
        prop_assert!(Arc::ptr_eq(&slot(&db2).unwrap(), &carried), "the grown join built none");
        // not carried over: a reloaded catalog builds its own, the same
        let reloaded = db_with_inner(&all);
        let diff = matches_the_oracle(&reloaded, filters[0]);
        prop_assert!(diff.is_none(), "{}", diff.unwrap());
        let built = slot(&reloaded).expect("built for the grown column");
        assert_same_projection(&built, &carried);
    }
}

/// `n` rows over a scattered rank (`rank = i · 1_000_003 mod n`) for the
/// mixed-root properties. `a ≥ t`, `b = 0` and `z = 0` are two-valued:
/// `a` is the rank, `b` is `±0.0` on the top quarter of the ranks, and
/// every finite distance of `z = 0` is exact. `f ≥ 0` is fitted: `-0.0`,
/// 1 or 2 (exact) on the lowest `n / 1200` ranks, minus a subnormal on
/// as many after them — distances that normalize to 0, or to a
/// subnormal — and `-(1 + rank / 2)` beyond (ties in pairs). `g ≤ 0` is
/// fitted: `±0.0` on `n / 1500` ranks from `n / 2`, else one of 997
/// values 0.125 apart. NULL, NaN and an infinity sit on a few ranks of
/// every column.
fn mixed_table(n: usize) -> Database {
    let cols = ["a", "b", "f", "g", "z"].map(|c| Column::new(c, DataType::Float));
    let mut t = TableBuilder::new("T", cols.to_vec());
    let (few, g_exact) = ((n / 1200).max(1), (n / 1500).max(1));
    let float = Value::Float;
    for i in 0..n {
        let rank = i * 1_000_003 % n;
        let sign = if rank.is_multiple_of(2) { 1.0 } else { -1.0 };
        let special = rank % 101;
        let a = match special {
            7 => Value::Null,
            8 => float(f64::NAN),
            _ => float(rank as f64),
        };
        let b = match special {
            17 => Value::Null,
            18 => float(f64::NAN),
            19 => float(sign * f64::INFINITY),
            _ if rank >= n - n / 4 => float(sign * 0.0),
            _ => float(sign * 0.25 * (1 + rank % 37) as f64),
        };
        let f = match special {
            37 => Value::Null,
            38 => float(f64::NAN),
            39 => float(f64::NEG_INFINITY),
            _ if rank < few => float([-0.0, 1.0, 2.0][rank % 3]),
            _ if rank < 2 * few => float(-[5e-324, 1e-310][rank % 2]),
            _ => float(-(1.0 + (rank / 2) as f64)),
        };
        let g = match special {
            57 => Value::Null,
            58 => float(f64::NAN),
            59 => float(f64::INFINITY),
            _ if (n / 2..n / 2 + g_exact).contains(&rank) => float(sign * 0.0),
            _ => float(1.0 + (rank * 7 % 997) as f64 * 0.125),
        };
        let z = match (rank % 101, rank % 3) {
            (27, _) => Value::Null,
            (_, 0) if rank.is_multiple_of(2) => float(f64::NAN),
            (_, 0) => float(f64::INFINITY),
            _ => float(sign * 0.0),
        };
        t = t.row(vec![a, b, f, g, z]).unwrap();
    }
    let mut db = Database::new("d");
    db.add_table(t.build());
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A root of two-valued and fitted windows is derived: its combined
    /// distances are the windows' bits, a table of pattern values with
    /// every fitted window on its plateau (`NORM_MAX`), and the fitted
    /// windows' rows below their plateau as exceptions, each combined on
    /// its own. Above the thresholds and under every policy it must stay
    /// byte-identical to a cold scalar run: the fitted child first, in
    /// the middle and last; two fitted children; an unweighted child
    /// (classes tie across patterns); a fitted window alone; exceptions
    /// on NULL, NaN, ±inf and `-0.0` rows, at subnormal distances that
    /// normalize to 0, and at values equal to a class's; through a
    /// session cache (cold, warm, the fitted window re-weighted) and
    /// uncached.
    #[test]
    fn mixed_roots_match_the_oracle_above_the_parallel_threshold(
        n in 40_000usize..120_000,
        pct in 0.25f64..1.0,
        pixels in 1_000usize..3_000,
        spare in 3usize..5,
    ) {
        use visdb::relevance::Combined;
        // display budgets of at most 1 % of the rows: the fitted windows'
        // fit counts (2 and 3.3 times the budget) leave few enough rows
        // below their plateaus for the table to take them
        let policies = [
            DisplayPolicy::Percentage(pct),
            DisplayPolicy::FitScreen { pixels: pixels / 8, pixels_per_item: 1 },
            DisplayPolicy::GapHeuristic { rmin: 10, rmax: pixels / 8, z: 5 + pixels % 40 },
            DisplayPolicy::TwoSidedPercentage(pct),
        ];
        let resolver = DistanceResolver::new();
        let db = mixed_table(n);
        let t = db.table("T").unwrap();
        let pred = |attr: &str, op: CompareOp, v: f64, w: f64| {
            Weighted::new(ConditionNode::Predicate(Predicate::compare(AttrRef::new(attr), op, v)), w)
        };
        let (b, g) = (pred("b", CompareOp::Eq, 0.0, 0.5), pred("g", CompareOp::Le, 0.0, 0.3));
        let z = pred("z", CompareOp::Eq, 0.0, 0.0);
        let (mut tied, mut to_zero) = (0, 0);
        for policy in policies {
            // `a` has `spare` times the display budget of exact answers
            // and its weight 1 fits over the budget: two-valued
            let budget = policy.budget(n);
            let a = pred("a", CompareOp::Ge, (n - spare * budget) as f64, 1.0);
            let cond_for = |shape: &str, wf: f64| {
                let f = pred("f", CompareOp::Ge, 0.0, wf);
                let and = |children: Vec<Weighted>| Weighted::unit(ConditionNode::And(children));
                match shape {
                    "first" => and(vec![f, a.clone(), b.clone()]),
                    "middle" => and(vec![a.clone(), f, b.clone()]),
                    "last" => and(vec![a.clone(), b.clone(), f]),
                    "two" => and(vec![f, a.clone(), g.clone()]),
                    "unweighted" => and(vec![a.clone(), f, z.clone()]),
                    _ => f,
                }
            };
            for shape in ["first", "middle", "last", "two", "unweighted", "single"] {
                let mut session = PipelineCache::new();
                let mut slow = None;
                for (step, wf) in [0.5, 0.5, 0.5, 0.8].into_iter().enumerate() {
                    let cond = cond_for(shape, wf);
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
                    let Combined::Table(table) = &fast.combined else {
                        panic!("{what}: a mixed root is a table");
                    };
                    let trace = fast.trace.as_ref().unwrap();
                    prop_assert_eq!((trace.roots_from_table, trace.children_raw), (1, 0), "{}", what);
                    prop_assert_eq!(trace.table_exceptions, table.exceptions().len(), "{}", what);
                    prop_assert!(!table.exceptions().is_empty(), "{}", what);
                    prop_assert_eq!(trace.windows_refit, usize::from(step == 3), "{}", what);
                    tied += table.exceptions().iter().filter(|e| table.values().contains(&e.1)).count();
                    let fitted = fast.windows.iter().find(|w| w.label.starts_with('f')).unwrap();
                    let raw = fitted.raw_frame().unwrap();
                    to_zero += (0..n)
                        .filter(|&i| raw.get(i).is_some_and(|d| d != 0.0) && fitted.normalized_at(i) == Some(0.0))
                        .count();
                }
            }
        }
        prop_assert!(tied > 0, "no exception tied with a class");
        prop_assert!(to_zero > 0, "no inexact distance normalized to 0");
    }
}

/// The §4.4 join's shape: a fitted window none of whose fitted rows lies
/// below its `dmax` — every outer timestamp misses the inner ones by at
/// least the same offset, so its `k` smallest distances tie and it has no
/// exact rows — beside a two-valued window. The root is a table with no
/// exceptions, painted by pattern, and equals the scalar oracle. Its cold
/// fit comes from the column's byte sketch, no frame written. Through a
/// session cache, a re-weight of that window whose fit count stays in
/// the tie keeps the fit without a selection; one the counts answer over
/// every row evaluates the window again for its frame, and the next one
/// past the tie selects over it — every step equal to the oracle.
#[test]
fn a_fitted_window_all_on_its_plateau_adds_no_table_exceptions() {
    let n: usize = 50_000;
    let mut t = TableBuilder::new(
        "T",
        vec![
            Column::new("a", DataType::Float),
            Column::new("f", DataType::Float),
        ],
    );
    for i in 0..n {
        let rank = i * 1_000_003 % n;
        // a third of the rows miss `f >= 0` by exactly 30, the rest by more
        let f = if rank.is_multiple_of(3) {
            -30.0
        } else {
            -30.0 - (rank % 50) as f64
        };
        t = t
            .row(vec![Value::Float(rank as f64), Value::Float(f)])
            .unwrap();
    }
    let mut db = Database::new("d");
    db.add_table(t.build());
    let db = Arc::new(db);
    let policy = DisplayPolicy::Percentage(1.0);
    let resolver = DistanceResolver::new();
    let table = db.table("T").unwrap();
    // each leaves `a` at least its fit count of 500 exact answers
    for threshold in [n - 2_000, n - 1_000, n - 500] {
        let text = format!("SELECT * FROM T WHERE a >= {threshold} AND f >= 0");
        let query = parse_query(&text, &ConnectionRegistry::new()).unwrap();
        let cond = query.condition.as_ref();
        let run = |mode: ExecMode| {
            let opts = PipelineOptions {
                mode,
                trace: true,
                ..Default::default()
            };
            run_pipeline(&db, table, &resolver, cond, &policy, opts).unwrap()
        };
        let (fast, slow) = (run(ExecMode::Vectorized), run(ExecMode::Scalar));
        let diff = first_divergence(&fast, &slow, &policy);
        assert!(diff.is_none(), "a >= {threshold}: {}", diff.unwrap());
        assert!(fast.combined.bits_eq(&slow.combined));
        let fitted = &fast.windows[1];
        assert!(fitted.norm_params.dmax > 0.0 && fitted.zero_raw_count() == 0);
        assert_eq!(fitted.below_plateau(), Some(&[][..]));
        let trace = fast.trace.as_ref().unwrap();
        assert_eq!((trace.roots_from_table, trace.table_exceptions), (1, 0));
        let base = query.condition.clone().expect("a condition");
        let mut session = Session::new(Arc::clone(&db), ConnectionRegistry::new());
        session.set_display_policy(policy.clone()).unwrap();
        session.set_query(query).unwrap();
        let picture = render_session(&mut session, &RenderOptions::default()).unwrap();
        assert_eq!(session.take_paint(), Some(Paint::Patterns));
        let diff = cold_render_divergence(&session, &db, &policy, &picture);
        assert!(diff.is_none(), "{}", diff.unwrap());

        // 16 667 rows tie at `dmax = 30`: fit counts 500, 1 667 and
        // 10 000 land in the tie; 0.01 fits over every row (the counts,
        // over a frame evaluated again), after which 1.0 selects again;
        // counts, plateau, sketch, selected
        let mut cache = PipelineCache::new();
        let steps = [
            (1.0, [1, 0, 1, 0]), // cold: `a` from its counts, `f` sketched
            (0.3, [0, 1, 0, 0]),
            (0.05, [0, 1, 0, 0]),
            (0.01, [1, 0, 0, 0]),
            (1.0, [0, 0, 0, 1]),
        ];
        for (weight, fits) in steps {
            let mut moved = base.clone();
            let ConditionNode::And(parts) = &mut moved.node else {
                panic!("a conjunction");
            };
            parts[1].weight = weight;
            let cached = PipelineOptions {
                cache: Some(&mut cache),
                trace: true,
                ..Default::default()
            };
            let fast = run_pipeline(&db, table, &resolver, Some(&moved), &policy, cached).unwrap();
            let scalar = PipelineOptions {
                mode: ExecMode::Scalar,
                ..Default::default()
            };
            let slow = run_pipeline(&db, table, &resolver, Some(&moved), &policy, scalar).unwrap();
            let diff = first_divergence(&fast, &slow, &policy);
            assert!(diff.is_none(), "weight {weight}: {}", diff.unwrap());
            assert!(fast.combined.bits_eq(&slow.combined), "weight {weight}");
            let trace = fast.trace.as_ref().unwrap();
            let got = [
                trace.fits_from_counts,
                trace.fits_from_plateau,
                trace.windows_sketch_fitted,
                trace.fits_selected,
            ];
            assert_eq!(got, fits, "a >= {threshold}, weight {weight}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A mixed root's panel is painted by row wherever its table has
    /// exceptions, and by pattern (or handed back held) only where it has
    /// none. A random stream of slides of both windows, re-weights of the
    /// fitted window and selections runs over `a >= t AND f >= 0 AND
    /// b = 0` above the parallel threshold; after every step the
    /// session's panel equals, pixel for pixel and in its ASCII and PPM
    /// bytes, the panel a fresh session renders from the same state.
    #[test]
    fn mixed_root_panels_are_cold_renders(
        n in 40_000usize..120_000,
        pct in 0.5f64..3.0,
        ops in prop::collection::vec((0usize..3, 0usize..2, 0.05f64..1.0), 8..12),
    ) {
        use visdb::relevance::Combined;
        let db = Arc::new(mixed_table(n));
        let policy = DisplayPolicy::Percentage(pct);
        let a = 3 * policy.budget(n);
        let query = QueryBuilder::from_tables(["T"])
            .cmp("a", CompareOp::Ge, (n - a) as f64)
            .cmp("f", CompareOp::Ge, 0.0)
            .cmp("b", CompareOp::Eq, 0.0)
            .build();
        let mut session = Session::new(Arc::clone(&db), ConnectionRegistry::new());
        session.set_display_policy(policy.clone()).unwrap();
        session.set_query(query).unwrap();
        let mut by_row = 0;
        for (step, (op, window, value)) in ops.into_iter().enumerate() {
            match op {
                0 => session.set_weight(1, value).unwrap(),
                1 => {
                    let displayed = &session.result().unwrap().pipeline.displayed;
                    match displayed.get((value * displayed.len() as f64) as usize) {
                        Some(&item) if window > 0 => drop(session.select_tuple(item).unwrap()),
                        _ => session.clear_selection(),
                    }
                }
                _ => {
                    // a slide of `a` across its exact answers, or of `f`
                    // across a few of its distances
                    let at = match window {
                        0 => (n as f64 - a as f64 * (0.5 + value)).floor(),
                        _ => -(value * 40.0).floor(),
                    };
                    let target = PredicateTarget::Compare { op: CompareOp::Ge, value: Value::Float(at) };
                    session.set_predicate_target(window, target).unwrap();
                }
            }
            let picture = render_session(&mut session, &RenderOptions::default()).unwrap();
            let paint = session.take_paint();
            let res = session.result().unwrap();
            let exceptions = match &res.pipeline.combined {
                Combined::Table(table) => table.exceptions().len(),
                Combined::Frame(_) => 0,
            };
            if exceptions > 0 {
                prop_assert_eq!(paint, Some(Paint::Rows), "step {}", step);
                by_row += 1;
            }
            let diff = cold_render_divergence(&session, &db, &policy, &picture);
            let what = format!("step {step}: op {op} window {window} value {value} ({paint:?})");
            prop_assert!(diff.is_none(), "{}: {}", what, diff.unwrap());
        }
        prop_assert!(by_row > 0);
    }
}

/// The columns a slid window reads: `x` floats from [`SLIDE_POOL`] —
/// every threshold repeated across the relation, `-0.0` beside `0.0` —
/// with NULL and NaN rows; `i` integers in `[-20, 20)` with NULLs; `f`
/// like `x` plus `±inf` rows, so its projection is not finite; `h` with
/// magnitudes near `f64::MAX`, so `|x − t|` overflows under its outer
/// thresholds.
const SLIDE_COLUMNS: [&str; 4] = ["x", "i", "f", "h"];
const SLIDE_POOL: [f64; 11] = [-5.0, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.5, 4.0, 7.0, 10.0];

/// The table over [`SLIDE_COLUMNS`] and its values widened to `f64`.
fn slide_table(n: usize, seed: u64) -> (Database, [Vec<Option<f64>>; 4]) {
    let cols = vec![
        Column::new("x", DataType::Float),
        Column::new("i", DataType::Int),
        Column::new("f", DataType::Float),
        Column::new("h", DataType::Float),
    ];
    let mut t = TableBuilder::new("T", cols);
    let mut widened: [Vec<Option<f64>>; 4] = Default::default();
    for row in 0..n {
        let h = mix(row, seed);
        let pooled = SLIDE_POOL[(h >> 8) as usize % SLIDE_POOL.len()];
        let x = match h % 17 {
            0 => Value::Null,
            1 => Value::Float(f64::NAN),
            _ => Value::Float(pooled),
        };
        let i = match h % 19 {
            2 => Value::Null,
            _ => Value::Int(((h >> 20) % 40) as i64 - 20),
        };
        let f = match h % 41 {
            3 => Value::Float(f64::INFINITY),
            4 => Value::Float(f64::NEG_INFINITY),
            _ => Value::Float(pooled),
        };
        let huge = [-1.5e308, -3.0, 0.0, 3.0, 1.5e308];
        let big = match h % 13 {
            5 => Value::Null,
            _ => Value::Float(huge[(h >> 32) as usize % huge.len()]),
        };
        for (col, v) in widened.iter_mut().zip([&x, &i, &f, &big]) {
            col.push(v.as_f64());
        }
        t = t.row(vec![x, i, f, big]).unwrap();
    }
    let mut db = Database::new("d");
    db.add_table(t.build());
    (db, widened)
}

/// A threshold of column `col`: for `x` and `f` each pool value, one
/// below every value and one above; integers from below `i`'s values to
/// near its top; for `h` values whose distance to its far end overflows
/// (`±1e308`) and some whose does not.
fn slide_threshold(col: usize, pick: usize) -> Value {
    match col {
        0 | 2 => Value::Float(POOLED_THRESHOLDS[pick % POOLED_THRESHOLDS.len()]),
        1 => Value::Int((pick % 14) as i64 * 3 - 21),
        _ => Value::Float(HUGE_THRESHOLDS[pick % HUGE_THRESHOLDS.len()]),
    }
}

const POOLED_THRESHOLDS: [f64; 13] = [
    -6.0, -5.0, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.5, 4.0, 7.0, 10.0, 11.0,
];
const HUGE_THRESHOLDS: [f64; 5] = [-1e308, -3.0, 0.0, 3.0, 1e308];

/// The pick of [`slide_threshold`] that gives threshold `t` of `col`.
fn slide_pick(col: usize, t: f64) -> usize {
    let position = |pool: &[f64]| {
        pool.iter()
            .position(|v| v.to_bits() == t.to_bits())
            .unwrap()
    };
    match col {
        0 | 2 => position(&POOLED_THRESHOLDS),
        1 => (t as usize + 21) / 3,
        _ => position(&HUGE_THRESHOLDS),
    }
}

/// A comparison leaf's column, operator and threshold.
fn slide_leaf(node: &ConditionNode) -> (usize, CompareOp, f64) {
    let ConditionNode::Predicate(p) = node else {
        panic!("a predicate leaf")
    };
    let PredicateTarget::Compare { op, value } = &p.target else {
        panic!("a comparison")
    };
    let col = SLIDE_COLUMNS
        .iter()
        .position(|c| *c == p.attr.column)
        .unwrap();
    (col, *op, value.as_f64().unwrap())
}

/// The top-level windows of a query.
fn top_level(query: &Query) -> Vec<Weighted> {
    let cond = query.condition.clone().unwrap();
    match cond.node {
        ConditionNode::And(children) => children,
        _ => vec![cond],
    }
}

/// How many windows of a run over `top` re-derive from their predecessor
/// among `prev` (the previous run's windows, which the session cache
/// holds): those that miss the cache and are comparisons over a column
/// with a finite projection in the store (`stored`), whose exact answers
/// cover their fit count, whose largest distance does not overflow, and
/// whose band to the nearest predecessor over the same column in the same
/// direction passes [`visdb::relevance::slide_takes_projection`].
fn expected_from_projection(
    values: &[Vec<Option<f64>>; 4],
    stored: &[bool; 4],
    budget: usize,
    prev: &[(ConditionNode, PredicateWindow)],
    top: &[Weighted],
) -> usize {
    use visdb::relevance::{fit_k, slide_takes_projection};
    let n = values[0].len();
    let defined = |col: usize| {
        values[col]
            .iter()
            .flatten()
            .copied()
            .filter(|x| !x.is_nan())
    };
    let exact = |col: usize, greater: bool, t: f64| {
        defined(col)
            .filter(|&x| if greater { x >= t } else { x <= t })
            .count()
    };
    let qualifies = |w: &Weighted| {
        let hit = prev.iter().find(|(node, _)| *node == w.node);
        let serves = hit.is_some_and(|(_, win)| {
            win.raw_frame().is_some()
                || fit_k(n, w.weight, budget).is_some_and(|k| win.zero_raw_count() >= k)
        });
        let (col, op, t) = slide_leaf(&w.node);
        let greater = matches!(op, CompareOp::Gt | CompareOp::Ge);
        if serves || !stored[col] || !defined(col).all(f64::is_finite) {
            return false;
        }
        let Some(k) = fit_k(n, w.weight, budget) else {
            return false;
        };
        let (e, m) = (exact(col, greater, t), defined(col).count());
        let far = match greater {
            true => defined(col).fold(f64::INFINITY, f64::min),
            false => defined(col).fold(f64::NEG_INFINITY, f64::max),
        };
        if e < k || (e < m && !(far - t).is_finite()) {
            return false;
        }
        let band = (prev.iter())
            .map(|(node, _)| slide_leaf(node))
            .filter(|&(c, op, _)| {
                c == col && matches!(op, CompareOp::Gt | CompareOp::Ge) == greater
            })
            .map(|(_, _, t0)| exact(col, greater, t0).abs_diff(e))
            .min();
        band.is_some_and(|band| slide_takes_projection(n, band))
    };
    top.iter().filter(|w| qualifies(w)).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A slid comparison window re-derived from its predecessor and the
    /// column's sorted projection is the window the walk builds. A
    /// session over a table with built projections runs a random sequence
    /// of cold queries, slides and re-weights on 1–3-window `AND` roots above the
    /// parallel threshold — NULL, NaN, duplicates at every threshold,
    /// `-0.0` / `0.0` values and thresholds, an integer column, `>` ↔ `≥`
    /// and `<` ↔ `≤` slides and direction flips, thresholds leaving fewer
    /// exact answers than the fit count, all of them or none, bands past
    /// the guard, `±inf` values and overflowing distances. After every
    /// step it equals the scalar oracle, its windows' stats, bits and
    /// fits equal those of a session over a copy of the table with no
    /// projection built, and it re-derived exactly the windows the rules
    /// name. Neither session builds a projection.
    #[test]
    fn slid_windows_from_the_projection_match_the_oracle(
        n in 40_000usize..120_000,
        seed in 0u64..1 << 40,
        pct in 0.5f64..3.0,
        unstored in 0usize..6,
        first in prop::collection::vec(((0usize..6, 0usize..4), 0usize..14, 0.2f64..1.0), 1..4),
        steps in prop::collection::vec(
            (0usize..6, 0usize..3, ((0usize..6, 0usize..4), 0usize..14, 0.2f64..1.0)),
            10..16,
        ),
    ) {
        let (db, values) = slide_table(n, seed);
        let db = Arc::new(db);
        let plain_db = Arc::new(slide_table(n, seed).0);
        let table = db.table("T").unwrap();
        let policy = DisplayPolicy::Percentage(pct);
        let budget = policy.budget(n);
        // every column but `unstored` has its projection built
        let stored: [bool; 4] = std::array::from_fn(|c| c != unstored);
        let id = |name: &str| table.schema().index_of(name).unwrap();
        for (_, name) in SLIDE_COLUMNS.iter().enumerate().filter(|&(c, _)| stored[c]) {
            table.projection(id(name)).unwrap();
        }
        let ops = [CompareOp::Gt, CompareOp::Ge, CompareOp::Lt, CompareOp::Le];
        // a window's column: `x` and `i` twice as often as `f` and `h`
        let query_of = |windows: &[((usize, usize), usize, f64)]| {
            let parts = windows.iter().fold(QueryBuilder::from_tables(["T"]), |q, &((mix, op), pick, w)| {
                let col = [0, 1, 3, 0, 1, 2][mix];
                q.cmp_weighted(SLIDE_COLUMNS[col], ops[op], slide_threshold(col, pick), w)
            });
            parts.build()
        };
        let open = |projections: bool| {
            let db = if projections { &db } else { &plain_db };
            let mut s = Session::new(Arc::clone(db), ConnectionRegistry::new());
            s.set_display_policy(policy.clone()).unwrap();
            s.set_collect_trace(true);
            s
        };
        let (mut with, mut without) = (open(true), open(false));
        let mut prev: Vec<(ConditionNode, PredicateWindow)> = Vec::new();
        let first = query_of(&first);
        let steps = std::iter::once(None).chain(steps.into_iter().map(Some));
        for (step, change) in steps.enumerate() {
            let what = format!("step {step}: {change:?}");
            match change {
                None => {
                    with.set_query(first.clone()).unwrap();
                    without.set_query(first.clone()).unwrap();
                }
                Some((0, windows, ((col, op), pick, w))) => {
                    // a cold query of 1–3 windows
                    let shape: Vec<_> = (0..=windows)
                        .map(|j| (((col + j) % 6, (op + j) % 4), (pick + 3 * j) % 14, w))
                        .collect();
                    with.set_query(query_of(&shape)).unwrap();
                    without.set_query(query_of(&shape)).unwrap();
                }
                Some((kind @ 1..=3, window, ((_, op), pick, _))) => {
                    // a slide: mostly the same operator, else its sibling
                    // (`>` ↔ `≥`, `<` ↔ `≤`) or the other direction
                    let top = top_level(with.query().unwrap());
                    let j = window % top.len();
                    let (col, now, t0) = slide_leaf(&top[j].node);
                    // most slides move a threshold or two, the rest jump
                    let pick = match pick < 10 {
                        true => slide_pick(col, t0) + [13, 14, 13, 5][col] - 2 + pick % 5,
                        false => pick,
                    };
                    let now = ops.iter().position(|&o| o == now).unwrap();
                    let op = match (kind + op) % 4 {
                        0 | 1 => now,
                        2 => now ^ 1,
                        _ => (now + 2) % 4,
                    };
                    let target = PredicateTarget::Compare { op: ops[op], value: slide_threshold(col, pick) };
                    with.set_predicate_target(j, target.clone()).unwrap();
                    without.set_predicate_target(j, target).unwrap();
                }
                Some((_, window, (_, _, w))) => {
                    let j = window % top_level(with.query().unwrap()).len();
                    with.set_weight(j, w).unwrap();
                    without.set_weight(j, w).unwrap();
                }
            }
            let query = with.query().unwrap().clone();
            let top = top_level(&query);
            let slow = run_pipeline(
                &db,
                table,
                &DistanceResolver::new(),
                query.condition.as_ref(),
                &policy,
                PipelineOptions { mode: ExecMode::Scalar, ..Default::default() },
            )
            .unwrap();
            let fast = with.result().unwrap().pipeline.clone();
            let diff = first_divergence(&fast, &slow, &policy);
            prop_assert!(diff.is_none(), "{}: {}", what, diff.unwrap());
            prop_assert!(fast.combined.bits_eq(&slow.combined), "{}", what);
            let plain = &without.result().unwrap().pipeline;
            for (i, (a, b)) in fast.windows.iter().zip(&plain.windows).enumerate() {
                prop_assert_eq!(a.stats(), b.stats(), "{}: window {}", what, i);
                prop_assert_eq!(a.exact_bits(), b.exact_bits(), "{}: window {}", what, i);
                prop_assert_eq!(a.norm_params, b.norm_params, "{}: window {}", what, i);
            }
            let expect = expected_from_projection(&values, &stored, budget, &prev, &top);
            let trace = fast.trace.as_deref().unwrap();
            prop_assert_eq!(trace.windows_from_projection, expect, "{}", what);
            prop_assert_eq!(plain.trace.as_deref().unwrap().windows_from_projection, 0);
            prev = top.into_iter().map(|w| w.node).zip(fast.windows).collect();
        }
        let plain_table = plain_db.table("T").unwrap();
        for name in SLIDE_COLUMNS {
            prop_assert!(plain_table.built_projection(id(name)).is_none());
        }
        if let Some(name) = SLIDE_COLUMNS.get(unstored) {
            prop_assert!(table.built_projection(id(name)).is_none());
        }
    }
}

/// The band guard's edge: a slide whose band is exactly `n / 2` rows is
/// re-derived from its predecessor, one a row wider walks the column; a
/// direction flip walks, and a `<` ↔ `≤` slide at the same threshold (an
/// empty band) re-derives. Every step equals the scalar oracle.
#[test]
fn a_slide_re_derives_up_to_half_the_rows_and_walks_past_them() {
    use visdb::relevance::slide_takes_projection;
    let n: usize = 50_000;
    let mut t = TableBuilder::new("T", vec![Column::new("r", DataType::Float)]);
    for i in 0..n {
        // each rank once, scattered over the rows
        t = t
            .row(vec![Value::Float((i * 1_000_003 % n) as f64)])
            .unwrap();
    }
    let mut db = Database::new("d");
    db.add_table(t.build());
    let db = Arc::new(db);
    let table = db.table("T").unwrap();
    table.projection(0).unwrap();
    let policy = DisplayPolicy::Percentage(1.0);
    let mut session = Session::new(Arc::clone(&db), ConnectionRegistry::new());
    session.set_display_policy(policy.clone()).unwrap();
    session.set_collect_trace(true);
    assert!(slide_takes_projection(n, n / 2) && !slide_takes_projection(n, n / 2 + 1));
    let (quarter, half) = (n as f64 / 4.0, n as f64 / 2.0);
    let steps = [
        (CompareOp::Ge, quarter, 0),
        (CompareOp::Ge, quarter + half, 1),
        (CompareOp::Ge, quarter - 1.0, 0),
        (CompareOp::Le, 20_000.0, 0),
        (CompareOp::Lt, 20_000.0, 1),
    ];
    for (step, (op, at, from_projection)) in steps.into_iter().enumerate() {
        let target = PredicateTarget::Compare {
            op,
            value: Value::Float(at),
        };
        match step {
            0 => {
                let query = QueryBuilder::from_tables(["T"]).cmp("r", op, at).build();
                session.set_query(query).unwrap();
            }
            _ => session.set_predicate_target(0, target).unwrap(),
        }
        let query = session.query().unwrap().clone();
        let opts = PipelineOptions {
            mode: ExecMode::Scalar,
            ..Default::default()
        };
        let cond = query.condition.as_ref();
        let slow = run_pipeline(&db, table, &DistanceResolver::new(), cond, &policy, opts).unwrap();
        let fast = &session.result().unwrap().pipeline;
        let diff = first_divergence(fast, &slow, &policy);
        assert!(diff.is_none(), "step {step}: {}", diff.unwrap());
        let trace = fast.trace.as_deref().unwrap();
        let counts = (trace.windows_evaluated, trace.windows_bits_only);
        assert_eq!(counts, (1, 1), "step {step}");
        assert_eq!(
            trace.windows_from_projection, from_projection,
            "step {step}"
        );
        assert_eq!(
            trace.chunks_compare_packed == 0,
            from_projection == 1,
            "step {step}"
        );
    }
}

/// `n` rows over a scattered rank (`rank = i · 1_000_003 mod n`), NULL-,
/// NaN- and `±inf`-free, so every column has a byte sketch: `x` one of
/// 997 integral values, a fifth of the rows on the popular `990`; `y`
/// one of 1 009 quarter steps from `-100`; `big` integers past 2^54 (a
/// widened value steps by 4), whose `x − t` against a threshold near 2^62
/// rounds the rows of many codes to one `|d|`; `key` the rank, the outer
/// column of a §4.4 join with the 200-row `I(k2, v)`.
fn sketch_table(n: usize) -> Database {
    let cols = vec![
        Column::new("x", DataType::Float),
        Column::new("y", DataType::Float),
        Column::new("big", DataType::Int),
        Column::new("key", DataType::Float),
    ];
    let mut t = TableBuilder::new("T", cols);
    for i in 0..n {
        let rank = i * 1_000_003 % n;
        let x = if rank.is_multiple_of(5) {
            990.0
        } else {
            (rank % 997) as f64
        };
        let y = (rank * 7 % 1_009) as f64 * 0.25 - 100.0;
        let big = (1i64 << 54) + (rank % 4_099) as i64 * 3;
        let row = vec![
            Value::Float(x),
            Value::Float(y),
            Value::Int(big),
            Value::Float(rank as f64),
        ];
        t = t.row(row).unwrap();
    }
    let mut inner = TableBuilder::new(
        "I",
        vec![
            Column::new("k2", DataType::Float),
            Column::new("v", DataType::Float),
        ],
    );
    for j in 0..200 {
        let row = vec![Value::Float((j * 9_973 % n) as f64), Value::Float(j as f64)];
        inner = inner.row(row).unwrap();
    }
    let mut db = Database::new("d");
    db.add_table(t.build());
    db.add_table(inner.build());
    db
}

/// The first divergence of a session's result from the scalar oracle's
/// run of the session's query, or of its panel from a cold session's.
fn session_divergence(
    session: &mut Session,
    db: &Arc<Database>,
    policy: &DisplayPolicy,
) -> Option<String> {
    let picture = render_session(session, &RenderOptions::default()).unwrap();
    if let Some(diff) = cold_render_divergence(session, db, policy, &picture) {
        return Some(diff.into());
    }
    let cond = session.query().unwrap().condition.clone();
    let scalar = PipelineOptions {
        mode: ExecMode::Scalar,
        ..Default::default()
    };
    let t = db.table("T").unwrap();
    let slow = run_pipeline(
        db,
        t,
        &DistanceResolver::new(),
        cond.as_ref(),
        policy,
        scalar,
    )
    .unwrap();
    let fast = &session.result().unwrap().pipeline;
    match first_divergence(fast, &slow, policy) {
        None if !fast.combined.bits_eq(&slow.combined) => Some("combined bits diverge".into()),
        diff => diff,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A comparison window whose exact answers fall short of its fit
    /// count is fitted from the column's byte sketch — no frame, no
    /// selection — and stays byte-identical to the scalar oracle: `x ≥ t`
    /// with `t` on a value and between values, on the popular value's
    /// plateau (a fifth of the rows tie at `dmax`), `y ≤ t`, integers past
    /// 2^54 against `t = 2^62` (rows of many codes round to `dmax`); as a
    /// single window, under 2- and 3-window `AND` roots (a pattern table
    /// with the rows below the plateaus as exceptions) and beside a §4.4
    /// join. Two fitted children whose rows below their plateaus are too
    /// many for a table force a walked root, which evaluates both again
    /// for their frames. Through a session: slides of both windows and
    /// re-weights whose fit count lands in the tie (the plateau answers,
    /// the window served without its frame) and past it (the sketch
    /// answers again); after every step the result equals the oracle's
    /// and the panel — pixels, ASCII and PPM bytes — a cold session's.
    #[test]
    fn sketch_fitted_windows_match_the_oracle_above_the_parallel_threshold(
        n in 40_000usize..56_000,
        pct in 0.6f64..1.2,
        pick in 0usize..4,
    ) {
        let db = Arc::new(sketch_table(n));
        let t = db.table("T").unwrap();
        let resolver = DistanceResolver::new();
        let pred = |attr: &str, op: CompareOp, v: f64| {
            Weighted::unit(ConditionNode::Predicate(Predicate::compare(AttrRef::new(attr), op, v)))
        };
        let and = |children: Vec<Weighted>| Weighted::unit(ConditionNode::And(children));
        let (on_value, between) = (996.0 - pick as f64, 996.5 - pick as f64);
        let y_at = -100.0 + 0.25 * pick as f64;
        let big = pred("big", CompareOp::Ge, 2f64.powi(62));
        let join = {
            let sub = QueryBuilder::from_tables(["I"]).cmp("v", CompareOp::Ge, 150.0).build();
            let q = QueryBuilder::from_tables(["T"])
                .cmp("x", CompareOp::Ge, on_value)
                .is_in("key", "k2", sub)
                .build();
            q.condition.unwrap()
        };
        let shapes = [
            ("on a value", pred("x", CompareOp::Ge, on_value)),
            ("between values", pred("x", CompareOp::Ge, between)),
            ("popular", pred("x", CompareOp::Ge, 990.5)),
            ("two", and(vec![pred("x", CompareOp::Ge, between), pred("y", CompareOp::Le, y_at)])),
            ("three", and(vec![pred("x", CompareOp::Ge, 990.5), pred("y", CompareOp::Le, y_at), big.clone()])),
            ("join", join),
        ];
        let policy = DisplayPolicy::Percentage(pct);
        for (what, cond) in &shapes {
            let scalar = PipelineOptions { mode: ExecMode::Scalar, ..Default::default() };
            let slow = run_pipeline(&db, t, &resolver, Some(cond), &policy, scalar).unwrap();
            let traced = PipelineOptions { trace: true, ..Default::default() };
            let fast = run_pipeline(&db, t, &resolver, Some(cond), &policy, traced).unwrap();
            let diff = first_divergence(&fast, &slow, &policy);
            prop_assert!(diff.is_none(), "{}: {}", what, diff.unwrap());
            prop_assert!(fast.combined.bits_eq(&slow.combined), "{}", what);
            let trace = fast.trace.as_ref().unwrap();
            let comparisons = fast.windows.len() - usize::from(*what == "join");
            prop_assert_eq!(trace.windows_sketch_fitted, comparisons, "{}", what);
            prop_assert_eq!(trace.windows_reframed, 0, "{}", what);
            prop_assert_eq!(trace.roots_from_table, 1, "{}", what);
            if *what != "join" {
                prop_assert_eq!(trace.fits_selected, 0, "{}", what);
            }
            prop_assert!(fast.windows[0].raw_frame().is_none(), "{}", what);
        }
        // at 5 % of the rows, two fitted children leave too many rows
        // below their plateaus for a table: the walk reads their frames
        let wide = DisplayPolicy::Percentage(5.0);
        let cond = &and(vec![pred("y", CompareOp::Le, y_at), pred("y", CompareOp::Ge, 151.5)]);
        let scalar = PipelineOptions { mode: ExecMode::Scalar, ..Default::default() };
        let slow = run_pipeline(&db, t, &resolver, Some(cond), &wide, scalar).unwrap();
        let traced = PipelineOptions { trace: true, ..Default::default() };
        let fast = run_pipeline(&db, t, &resolver, Some(cond), &wide, traced).unwrap();
        let diff = first_divergence(&fast, &slow, &wide);
        prop_assert!(diff.is_none(), "walked: {}", diff.unwrap());
        let trace = fast.trace.as_ref().unwrap();
        let walk = (trace.windows_sketch_fitted, trace.windows_reframed, trace.roots_from_table);
        prop_assert_eq!(walk, (2, 2, 0));

        // a session over `x ≥ t AND y ≤ t AND big ≥ 2^62`
        let query = QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, between)
            .cmp("y", CompareOp::Le, y_at)
            .cmp("big", CompareOp::Ge, 2f64.powi(62))
            .build();
        let mut session = Session::new(Arc::clone(&db), ConnectionRegistry::new());
        session.set_collect_trace(true);
        session.set_display_policy(policy.clone()).unwrap();
        session.set_query(query).unwrap();
        let budget = policy.budget(n);
        // the rows below window 0's plateau and those tied at its `dmax`
        let tie = |session: &mut Session| {
            let raw = session.raw_distances(0).unwrap();
            let dmax = session.result().unwrap().pipeline.windows[0].norm_params.dmax;
            let below = raw.iter().flatten().filter(|d| d.abs() < dmax).count();
            let tied = raw.iter().flatten().filter(|d| d.abs() == dmax).count();
            (below, tied)
        };
        let steps: [(&str, usize, f64); 6] = [
            ("cold", 0, 0.0),
            ("slide x onto a value", 0, on_value),
            ("slide y", 1, y_at + 0.25),
            ("slide x onto the popular plateau", 0, 990.5),
            ("re-weight in the tie", 0, -1.0),
            ("re-weight past the tie", 0, -2.0),
        ];
        for (what, window, value) in steps {
            let mut expect = None;
            match (what, value) {
                ("cold", _) => {}
                (_, v) if v == -1.0 || v == -2.0 => {
                    let (below, tied) = tie(&mut session);
                    // on the popular plateau, a fifth of the rows tie
                    prop_assert!(tied >= 2 && below + tied - 1 > budget, "{}", what);
                    let k = if value == -1.0 { below + tied - 1 } else { below + tied + 1 + budget / 2 };
                    let weight = budget as f64 / k as f64;
                    session.set_weight(window, weight).unwrap();
                    // past the tie the window is evaluated again: through
                    // the sketch while a table can take its rows
                    let k = visdb::relevance::normalize::fit_k(n, weight, budget).unwrap();
                    expect = Some((value == -1.0, visdb::relevance::table_takes_exceptions(n, k)));
                }
                _ => {
                    let target = PredicateTarget::Compare {
                        op: if window == 0 { CompareOp::Ge } else { CompareOp::Le },
                        value: Value::Float(value),
                    };
                    session.set_predicate_target(window, target).unwrap();
                }
            }
            let diff = session_divergence(&mut session, &db, &policy);
            prop_assert!(diff.is_none(), "{}: {}", what, diff.unwrap());
            let res = session.result().unwrap();
            let trace = res.pipeline.trace.as_deref().unwrap();
            let counts = (trace.windows_evaluated, trace.fits_from_plateau, trace.windows_sketch_fitted);
            match expect {
                // the window is served without its frame: no evaluation
                Some((true, _)) => prop_assert_eq!(counts, (0, 1, 0), "{}", what),
                Some((false, sketched)) => {
                    prop_assert_eq!(counts, (1, 0, usize::from(sketched)), "{}", what)
                }
                // every slide at weight 1 re-evaluates its window
                None if what == "cold" => prop_assert_eq!(counts, (3, 0, 3), "{}", what),
                None => prop_assert_eq!(counts, (1, 0, 1), "{}", what),
            }
        }
    }
}
