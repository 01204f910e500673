//! Append-path property tests: a dataset grown by delta generations
//! must be indistinguishable from one rebuilt from scratch — across
//! execution modes, display policies, and messy data (NULL/NaN/±inf,
//! duplicate-heavy numerics, string columns with NULL operands).

use std::sync::Arc;

use proptest::prelude::*;
use visdb::prelude::*;

/// One messy row: `tag` steers validity/finiteness, `v` the payload.
/// tag 0 → NULL x, 1 → NaN, 2 → +inf, 3 → −inf, 4 → duplicate-heavy
/// (quantized to ~20 buckets), else the raw value. The string column is
/// NULL on tag 0 and duplicate-heavy otherwise.
fn messy_row(i: usize, v: f64, tag: u8) -> Vec<Value> {
    let x = match tag {
        0 => Value::Null,
        1 => Value::Float(f64::NAN),
        2 => Value::Float(f64::INFINITY),
        3 => Value::Float(f64::NEG_INFINITY),
        4 => Value::Float((v / 10.0).round() * 10.0),
        _ => Value::Float(v),
    };
    let s = if tag == 0 {
        Value::Null
    } else {
        Value::Str(format!("s{}", i % 4))
    };
    vec![x, s]
}

fn messy_db(rows: &[(f64, u8)]) -> Database {
    let mut t = TableBuilder::new(
        "T",
        vec![
            Column::new("x", DataType::Float),
            Column::new("s", DataType::Str),
        ],
    );
    for (i, &(v, tag)) in rows.iter().enumerate() {
        t = t.row(messy_row(i, v, tag)).unwrap();
    }
    let mut db = Database::new("d");
    db.add_table(t.build());
    db
}

/// First field where two pipeline outputs diverge (trimmed from
/// `tests/properties.rs`).
fn first_divergence(fast: &PipelineOutput, slow: &PipelineOutput) -> Option<String> {
    if fast.n != slow.n {
        return Some(format!("n: {} != {}", fast.n, slow.n));
    }
    if fast.combined != slow.combined {
        return Some("combined distances diverge".into());
    }
    if (0..fast.n).any(|i| fast.relevance(i) != slow.relevance(i)) {
        return Some("relevance factors diverge".into());
    }
    if fast.num_exact != slow.num_exact {
        return Some(format!(
            "num_exact: {} != {}",
            fast.num_exact, slow.num_exact
        ));
    }
    if fast.displayed != slow.displayed {
        return Some("displayed set diverges".into());
    }
    if fast.order.len() > slow.order.len() || fast.order[..] != slow.order[..fast.order.len()] {
        return Some("sorted order prefix diverges".into());
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A table grown by `append_rows` produces bit-identical pipeline
    /// output to a table built with all rows up front — under the
    /// scalar reference and the vectorized path, on a mixed numeric +
    /// string query over every validity shape.
    #[test]
    fn append_then_query_matches_rebuild_across_modes(
        base in prop::collection::vec((-100f64..100.0, 0u8..6), 1..150),
        delta in prop::collection::vec((-100f64..100.0, 0u8..6), 1..40),
        threshold in -100f64..100.0,
        pct in 1.0f64..100.0,
    ) {
        // grown: base generation + one appended delta generation
        let mut grown = messy_db(&base);
        let rows: Vec<Vec<Value>> = delta
            .iter()
            .enumerate()
            .map(|(j, &(v, tag))| messy_row(base.len() + j, v, tag))
            .collect();
        grown.table_mut("T").unwrap().append_rows(rows).unwrap();
        // rebuilt: every row present from the start
        let all: Vec<(f64, u8)> = base.iter().chain(&delta).copied().collect();
        let rebuilt = messy_db(&all);

        let resolver = DistanceResolver::new();
        let q = QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, threshold)
            .cmp("s", CompareOp::Eq, "s2")
            .build();
        let policy = DisplayPolicy::Percentage(pct);
        let tg = grown.table("T").unwrap();
        let tr = rebuilt.table("T").unwrap();
        let reference =
            run_pipeline(&rebuilt, tr, &resolver, q.condition.as_ref(), &policy, PipelineOptions { mode: ExecMode::Scalar, ..Default::default() }).unwrap();

        let fast = run_pipeline(&grown, tg, &resolver, q.condition.as_ref(), &policy, PipelineOptions::default()).unwrap();
        let scalar =
            run_pipeline(&grown, tg, &resolver, q.condition.as_ref(), &policy, PipelineOptions { mode: ExecMode::Scalar, ..Default::default() }).unwrap();
        for (tag, out) in [("vectorized", &fast), ("scalar", &scalar)] {
            let diff = first_divergence(out, &reference);
            prop_assert!(diff.is_none(), "{} ({tag} vs rebuilt scalar)", diff.unwrap());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Interleaved append / drag / query against a live service is
    /// byte-identical to replaying the same state on a service loaded
    /// with the full data from scratch — through the delta-generation
    /// scope rotation, window extension, projection merge, and band
    /// repair. Every append is
    /// followed by a drag anywhere and by a *sparse* one (a bound only
    /// the few largest values satisfy, so the display fills from the
    /// rebased projection's per-row values); with the ±inf rows kept out
    /// the fast path must serve both.
    #[test]
    fn interleaved_appends_and_drags_match_replay_from_scratch(
        base in prop::collection::vec((-100f64..100.0, 0u8..6), 20..120),
        batches in prop::collection::vec(
            (prop::collection::vec((-100f64..100.0, 0u8..6), 1..25), -100f64..100.0),
            1..4,
        ),
        threshold in -100f64..100.0,
        finite in 0u8..2,
    ) {
        let finite = finite == 1;
        let tame = |rows: &[(f64, u8)]| -> Vec<(f64, u8)> {
            rows.iter()
                .map(|&(v, tag)| (v, if finite && matches!(tag, 2 | 3) { 5 } else { tag }))
                .collect()
        };
        let base = tame(&base);
        let live = Service::new(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        live.register_dataset("d", Arc::new(messy_db(&base)), ConnectionRegistry::new());
        let id = live.create_session("d").unwrap();
        let query = format!("SELECT * FROM T WHERE x >= {threshold}");
        live.submit(id, Request::SetWindowSize { w: 16, h: 16 }).unwrap();
        live.submit(id, Request::SetQueryText(query.clone())).unwrap();
        live.submit(id, Request::Summary { trace: false }).unwrap();

        let mut all = base.clone();
        for (delta, drag) in &batches {
            let delta = tame(delta);
            let rows: Vec<Vec<Value>> = delta
                .iter()
                .enumerate()
                .map(|(j, &(v, tag))| messy_row(all.len() + j, v, tag))
                .collect();
            live.append_rows("d", None, rows).unwrap();
            all.extend_from_slice(&delta);

            let mut finite_xs: Vec<f64> = (all.iter().enumerate())
                .filter_map(|(i, &(v, tag))| messy_row(i, v, tag)[0].as_f64())
                .filter(|x| x.is_finite())
                .collect();
            finite_xs.sort_by(f64::total_cmp);
            let sparse = finite_xs.iter().rev().nth(2).copied().unwrap_or(*drag);
            for value in [*drag, sparse] {
                let dragged = live.submit(id, Request::DragSlider {
                    window: 0, op: CompareOp::Ge, value, trace: false,
                }).unwrap();
                let summary = live.submit(id, Request::Summary { trace: false }).unwrap();
                let frame = live.submit(id, Request::Render(RenderFormat::Ppm)).unwrap();
                match (&dragged, &summary) {
                    (Response::Drag { displayed, exact, incremental, .. }, Response::Summary(s)) => {
                        prop_assert_eq!((*displayed, *exact), (s.displayed, s.exact));
                        prop_assert!(*incremental || !finite, "x >= {} fell off the fast path", value);
                    }
                    other => prop_assert!(false, "unexpected {:?}", other),
                }

                // replay: full data from scratch, same slider position
                let fresh = Service::new(ServiceConfig {
                    workers: 2,
                            ..Default::default()
                });
                fresh.register_dataset("d", Arc::new(messy_db(&all)), ConnectionRegistry::new());
                let fid = fresh.create_session("d").unwrap();
                fresh.submit(fid, Request::SetWindowSize { w: 16, h: 16 }).unwrap();
                fresh.submit(fid, Request::SetQueryText(query.clone())).unwrap();
                fresh.submit(fid, Request::MoveSlider {
                    window: 0, op: CompareOp::Ge, value,
                }).unwrap();
                let expect_summary = fresh.submit(fid, Request::Summary { trace: false }).unwrap();
                let expect_frame = fresh.submit(fid, Request::Render(RenderFormat::Ppm)).unwrap();

                prop_assert_eq!(
                    &summary, &expect_summary,
                    "summary diverged from replay"
                );
                prop_assert_eq!(
                    &frame, &expect_frame,
                    "render diverged from replay"
                );
            }
        }
    }
}

/// `O(x, s)` beside an inner relation `I(y)` for §4.4 joins.
fn pair_db(outer: &[(f64, u8)], inner: &[(f64, u8)]) -> Database {
    let mut db = messy_db(outer);
    let mut t = TableBuilder::new("I", vec![Column::new("y", DataType::Float)]);
    for (i, &(v, tag)) in inner.iter().enumerate() {
        t = t.row(vec![messy_row(i, v, tag).swap_remove(0)]).unwrap();
    }
    db.add_table(t.build());
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An append recomputes only what it changed. Two live sessions — two
    /// numeric windows; one of those beside a §4.4 join — re-ask after
    /// appends to the outer and to the inner relation, with no
    /// modification in between, so what they are served *is* the
    /// migrated state: windows with a recipe extend even when the
    /// appended rows shift their §5.2 fit (the new fit is re-applied,
    /// nothing is re-measured), only the recipe-less join window is
    /// recomputed, and the join's inner projection is merged, not
    /// rebuilt. Every reply equals a service loaded with the full data.
    #[test]
    fn appends_extend_shifted_fits_and_carry_the_join_projection(
        outer in prop::collection::vec((-100f64..100.0, 0u8..6), 20..120),
        inner in prop::collection::vec((-100f64..100.0, 0u8..6), 5..40),
        batches in prop::collection::vec(
            (prop::collection::vec((-100f64..100.0, 0u8..6), 1..25), 0u8..2),
            1..4,
        ),
        threshold in -100f64..100.0,
        filter in -100f64..100.0,
        pixels in 8usize..200,
    ) {
        let two_windows = format!("SELECT * FROM T WHERE x >= {threshold} AND x <= {}", threshold + 40.0);
        let join = format!(
            "SELECT * FROM T WHERE x >= {threshold} AND x IN (SELECT y FROM I WHERE y <= {filter})"
        );
        // a display budget that does not move with n, so an extended
        // window keeps its key; small ones fit by selection, large ones
        // by the maximum — appended rows can shift either
        let policy = DisplayPolicy::FitScreen { pixels, pixels_per_item: 1 };
        let open = |service: &Service, text: &str| {
            let id = service.create_session("d").unwrap();
            service.submit(id, Request::SetWindowSize { w: 16, h: 16 }).unwrap();
            service.submit(id, Request::SetDisplayPolicy(policy.clone())).unwrap();
            service.submit(id, Request::SetQueryText(text.into())).unwrap();
            id
        };
        let ask = |service: &Service, id: SessionId| {
            [Request::Summary { trace: false }, Request::Render(RenderFormat::Ppm)]
                .map(|req| service.submit(id, req).unwrap())
        };
        let trace_of = |service: &Service, id: SessionId| {
            match service.submit(id, Request::Summary { trace: true }).unwrap() {
                Response::Summary(summary) => summary.trace.expect("trace requested"),
                other => panic!("unexpected {other:?}"),
            }
        };
        let config = || ServiceConfig { workers: 2, ..Default::default() };

        let live = Service::new(config());
        live.register_dataset("d", Arc::new(pair_db(&outer, &inner)), ConnectionRegistry::new());
        let (a, b) = (open(&live, &two_windows), open(&live, &join));
        ask(&live, a);
        ask(&live, b);

        let (mut all_outer, mut all_inner) = (outer.clone(), inner.clone());
        for (delta, to_inner) in &batches {
            let to_inner = *to_inner == 1;
            let grown = if to_inner { &mut all_inner } else { &mut all_outer };
            let rows: Vec<Vec<Value>> = delta
                .iter()
                .enumerate()
                .map(|(j, &(v, tag))| {
                    let mut row = messy_row(grown.len() + j, v, tag);
                    row.truncate(if to_inner { 1 } else { 2 });
                    row
                })
                .collect();
            grown.extend_from_slice(delta);
            let outcome = live
                .append_rows("d", Some(if to_inner { "I" } else { "T" }), rows)
                .unwrap();
            // the shared cache held `x >= t` (both sessions), `x <= t+40`
            // and the join window
            prop_assert_eq!(outcome.windows_extended, if to_inner { 0 } else { 2 });
            prop_assert_eq!(outcome.windows_declined, 1, "only the recipe-less join window");
            prop_assert_eq!(outcome.projections_merged, usize::from(to_inner));

            let fresh = Service::new(config());
            fresh.register_dataset(
                "d",
                Arc::new(pair_db(&all_outer, &all_inner)),
                ConnectionRegistry::new(),
            );
            for (id, text) in [(a, &two_windows), (b, &join)] {
                let replay = open(&fresh, text);
                prop_assert_eq!(
                    ask(&live, id), ask(&fresh, replay),
                    "{} diverged from replay after an append to {}",
                    text, if to_inner { "I" } else { "T" }
                );
            }
            let (ta, tb) = (trace_of(&live, a), trace_of(&live, b));
            prop_assert_eq!((ta.shared_window_hits, ta.windows_evaluated), (2, 0));
            prop_assert_eq!((tb.shared_window_hits, tb.windows_evaluated), (1, 1));
        }
        // one projection build for the whole exchange: every later join
        // evaluation, before and after the appends, borrowed or merged it
        prop_assert_eq!(live.telemetry().projection_cache.misses, 1);
    }
}
