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
    /// scope rotation, window extension and projection merge. Every
    /// append is followed by a drag anywhere and by a *sparse* one (a bound only
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
        // the inner key's projection, as the join built it on `I`
        let inner_projection = |live: &Service| {
            let db = live.database("d").unwrap();
            let slot = db.table("I").unwrap().built_projection(0).cloned();
            slot.expect("built by the join, carried by every append")
        };
        let mut carried = inner_projection(&live);

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
            // an append to `I` extended its projection; one to `T` left
            // `I`, and its projection, shared as they were
            let now = inner_projection(&live);
            prop_assert_eq!(Arc::ptr_eq(&now, &carried), !to_inner);
            prop_assert_eq!(now.rows(), all_inner.len());
            carried = now;

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
            // the re-asked join swept the carried projection
            prop_assert!(Arc::ptr_eq(&inner_projection(&live), &carried));
        }
    }
}

/// A root with a fitted child across appends. `x >= -50` is two-valued
/// (its exact answers cover its fit count); `x >= 99.5` has fewer exact
/// answers than its fit count, so the root is a pattern table whose
/// exceptions are that window's rows below its plateau. Rows appended
/// far from the bound leave its fit, and the rows below it, as they
/// were; rows appended just below the bound shift it. Either way the
/// extended windows serve the re-ask with its exceptions, and every
/// reply equals a service loaded with all the rows.
#[test]
fn a_fitted_child_extends_across_appends_and_matches_a_reload() {
    let base: Vec<(f64, u8)> = (0..2_000)
        .map(|i| {
            let tag = match (i % 17, i % 19) {
                (0, _) => 0,
                (_, 0) => 1,
                _ => 5,
            };
            (((i * 37) % 2_000) as f64 / 10.0 - 100.0, tag)
        })
        .collect();
    let query = "SELECT * FROM T WHERE x >= -50 AND x >= 99.5";
    let policy = DisplayPolicy::FitScreen {
        pixels: 20,
        pixels_per_item: 1,
    };
    let open = |service: &Service| {
        let id = service.create_session("d").unwrap();
        service
            .submit(id, Request::SetWindowSize { w: 16, h: 16 })
            .unwrap();
        service
            .submit(id, Request::SetDisplayPolicy(policy.clone()))
            .unwrap();
        service
            .submit(id, Request::SetQueryText(query.into()))
            .unwrap();
        id
    };
    let ask = |service: &Service, id: SessionId| {
        [
            Request::Summary { trace: false },
            Request::Render(RenderFormat::Ppm),
        ]
        .map(|req| service.submit(id, req).unwrap())
    };
    let trace_of = |service: &Service, id: SessionId| match service
        .submit(id, Request::Summary { trace: true })
        .unwrap()
    {
        Response::Summary(summary) => summary.trace.expect("trace requested"),
        other => panic!("unexpected {other:?}"),
    };
    let config = || ServiceConfig {
        workers: 2,
        ..Default::default()
    };
    let live = Service::new(config());
    live.register_dataset("d", Arc::new(messy_db(&base)), ConnectionRegistry::new());
    let id = open(&live);
    ask(&live, id);
    assert!(trace_of(&live, id).table_exceptions > 0);
    let mut all = base.clone();
    let far = vec![(-99.0, 5), (-98.5, 5), (-97.0, 0), (-96.0, 1)];
    let near = vec![(99.45, 5), (99.48, 5), (99.9, 5), (-10.0, 5)];
    for (what, delta) in [
        ("far rows: the fit holds", far),
        ("near rows: it shifts", near),
    ] {
        let rows: Vec<Vec<Value>> = (delta.iter().enumerate())
            .map(|(j, &(v, tag))| messy_row(all.len() + j, v, tag))
            .collect();
        all.extend_from_slice(&delta);
        let outcome = live.append_rows("d", None, rows).unwrap();
        assert_eq!(outcome.windows_extended, 2, "{what}");
        let fresh = Service::new(config());
        fresh.register_dataset("d", Arc::new(messy_db(&all)), ConnectionRegistry::new());
        let replay = open(&fresh);
        assert_eq!(ask(&live, id), ask(&fresh, replay), "{what}");
        let trace = trace_of(&live, id);
        assert_eq!(
            (trace.shared_window_hits, trace.windows_evaluated),
            (2, 0),
            "{what}"
        );
        assert_eq!(
            trace.table_exceptions,
            trace_of(&fresh, replay).table_exceptions,
            "{what}"
        );
        assert!(trace.table_exceptions > 0, "{what}");
    }
}

/// A slide across an append. A single-window drag publishes the `x`
/// projection; a 2-window query over `x` then slides window 0: re-derived
/// from its predecessor and that projection. After rows are appended the
/// session's window cache is dropped, so the first slide walks; the
/// projection was merged into the new generation's scope, so the next
/// slide re-derives again. Every reply equals a service loaded with all
/// the rows.
#[test]
fn a_slide_after_an_append_walks_once_then_reads_the_merged_projection() {
    // NULL and NaN rows but no ±inf: the projection stays finite
    let row = |i: usize| {
        let tag = match (i % 17, i % 19) {
            (0, _) => 0,
            (_, 0) => 1,
            _ => 5,
        };
        (((i * 37) % 2_000) as f64 / 10.0 - 100.0, tag)
    };
    let base: Vec<(f64, u8)> = (0..2_000).map(row).collect();
    let policy = DisplayPolicy::FitScreen {
        pixels: 20,
        pixels_per_item: 1,
    };
    let text = |t: f64| format!("SELECT * FROM T WHERE x >= {t} AND x <= 90");
    let open = |service: &Service, query: String| {
        let id = service.create_session("d").unwrap();
        for req in [
            Request::SetWindowSize { w: 16, h: 16 },
            Request::SetDisplayPolicy(policy.clone()),
            Request::SetQueryText(query),
        ] {
            assert_eq!(service.submit(id, req).unwrap(), Response::Ok);
        }
        id
    };
    let ask = |service: &Service, id: SessionId| {
        [
            Request::Summary { trace: false },
            Request::Render(RenderFormat::Ppm),
        ]
        .map(|req| service.submit(id, req).unwrap())
    };
    let trace_of = |service: &Service, id: SessionId| match service
        .submit(id, Request::Summary { trace: true })
        .unwrap()
    {
        Response::Summary(summary) => summary.trace.expect("trace requested"),
        other => panic!("unexpected {other:?}"),
    };
    let config = || ServiceConfig {
        workers: 2,
        ..Default::default()
    };
    let live = Service::new(config());
    live.register_dataset("d", Arc::new(messy_db(&base)), ConnectionRegistry::new());
    let drag = Request::DragSlider {
        window: 0,
        op: CompareOp::Ge,
        value: 10.0,
        trace: false,
    };
    let dragger = open(&live, "SELECT * FROM T WHERE x >= 0".into());
    match live.submit(dragger, drag).unwrap() {
        Response::Drag { incremental, .. } => assert!(incremental),
        other => panic!("unexpected {other:?}"),
    }
    let id = open(&live, text(-50.0));
    ask(&live, id);
    let mut all = base.clone();
    let steps = [(-40.0, None, 1), (-30.0, Some(80), 0), (-20.0, None, 1)];
    for (t, append, from_projection) in steps {
        if let Some(rows) = append {
            let delta: Vec<(f64, u8)> = (all.len()..all.len() + rows).map(row).collect();
            let values = (delta.iter().enumerate())
                .map(|(j, &(v, tag))| messy_row(all.len() + j, v, tag))
                .collect();
            all.extend_from_slice(&delta);
            let outcome = live.append_rows("d", None, values).unwrap();
            assert_eq!(outcome.projections_merged, 1, "x >= {t}");
        }
        let slide = Request::MoveSlider {
            window: 0,
            op: CompareOp::Ge,
            value: t,
        };
        assert_eq!(live.submit(id, slide).unwrap(), Response::Ok);
        let fresh = Service::new(config());
        fresh.register_dataset("d", Arc::new(messy_db(&all)), ConnectionRegistry::new());
        let replay = open(&fresh, text(t));
        assert_eq!(ask(&live, id), ask(&fresh, replay), "x >= {t}");
        let trace = trace_of(&live, id);
        assert_eq!(trace.windows_evaluated, 1, "x >= {t}");
        assert_eq!(trace.windows_from_projection, from_projection, "x >= {t}");
        assert_eq!(trace_of(&fresh, replay).windows_from_projection, 0);
    }
}

/// A column's byte sketch across appends. A cold 2-window query over
/// 40 000 NULL-free rows builds the `x` sketch and packs its ranges from
/// it; each append (in range, beyond the old maximum, not word-aligned)
/// extends the sketch — the same bounds, the old codes a prefix — and
/// the next cold query packs from it again. A delta with a NULL drops
/// it, a failed append leaves it as it was, and every answer equals a
/// table loaded with all the rows.
#[test]
fn appends_extend_the_column_sketch_and_match_a_reload() {
    let value = |i: usize| ((i * 7_919) % 10_007) as f64 / 10.0;
    let row = |x: Value, i: usize| vec![x, Value::Str(format!("s{}", i % 4))];
    let load = |rows: &[Vec<Value>]| {
        let cols = vec![
            Column::new("x", DataType::Float),
            Column::new("s", DataType::Str),
        ];
        let mut t = Table::new("T", Schema::new(cols));
        t.append_rows(rows.to_vec()).unwrap();
        let mut db = Database::new("d");
        db.add_table(t);
        db
    };
    let mut all: Vec<Vec<Value>> = (0..40_000)
        .map(|i| row(Value::Float(value(i)), i))
        .collect();
    let mut live = load(&all);
    let q = QueryBuilder::from_tables(["T"])
        .cmp("x", CompareOp::Ge, 300.0)
        .cmp("x", CompareOp::Le, 900.0)
        .build();
    let policy = DisplayPolicy::Percentage(1.0);
    let resolver = DistanceResolver::new();
    let cold = |db: &Database, mode: ExecMode| {
        let opts = PipelineOptions {
            mode,
            trace: true,
            ..Default::default()
        };
        let t = db.table("T").unwrap();
        run_pipeline(db, t, &resolver, q.condition.as_ref(), &policy, opts).unwrap()
    };
    let check = |live: &Database, all: &[Vec<Value>], sketched: bool, what: &str| {
        // one worker walks the ranges in order: those past the first
        // are packed
        let serial = visdb::exec::Runtime::new(1);
        let fast = serial.install(|| cold(live, ExecMode::Vectorized));
        let reload = cold(&load(all), ExecMode::Scalar);
        let diff = first_divergence(&fast, &reload);
        assert!(diff.is_none(), "{what}: {}", diff.unwrap());
        let trace = fast.trace.as_deref().unwrap();
        assert!(trace.chunks_compare_packed > 0, "{what}");
        let expect = if sketched {
            trace.chunks_compare_packed
        } else {
            0
        };
        assert_eq!(trace.chunks_sketch_packed, expect, "{what}");
    };
    check(&live, &all, true, "base");
    let sketch = |db: &Database| db.table("T").unwrap().built_sketch(0).cloned();
    let base = sketch(&live).expect("the cold query built the sketch");
    let deltas: [(&str, Vec<f64>); 3] = [
        ("in range", (0..640).map(|i| value(i * 3)).collect()),
        ("beyond the old maximum", vec![2_000.0, 5_000.5, 1_500.0]),
        (
            "not word-aligned",
            (0..37).map(|i| value(i) + 0.05).collect(),
        ),
    ];
    for (what, delta) in deltas {
        let rows: Vec<Vec<Value>> = (delta.into_iter().enumerate())
            .map(|(j, x)| row(Value::Float(x), all.len() + j))
            .collect();
        all.extend(rows.iter().cloned());
        live.table_mut("T").unwrap().append_rows(rows).unwrap();
        let grown = sketch(&live).expect("extended, not dropped");
        assert_eq!(grown.bounds(), base.bounds(), "{what}");
        assert_eq!(&grown.codes()[..base.len()], base.codes(), "{what}");
        assert_eq!(grown.len(), all.len(), "{what}");
        check(&live, &all, true, what);
    }
    // a failed append: the sketch is untouched
    let kept = sketch(&live);
    let bad = vec![row(Value::Float(1.0), 0), row(Value::from("bad"), 1)];
    assert!(live.table_mut("T").unwrap().append_rows(bad).is_err());
    assert_eq!(sketch(&live), kept);
    check(&live, &all, true, "after a failed append");
    // a NULL in the delta drops the sketch; the walk compare-packs
    let nulls = vec![
        row(Value::Null, all.len()),
        row(Value::Float(400.0), all.len() + 1),
    ];
    all.extend(nulls.iter().cloned());
    live.table_mut("T").unwrap().append_rows(nulls).unwrap();
    assert!(sketch(&live).is_none());
    check(&live, &all, false, "a NULL appended");
}

/// A re-weight after an append counts the extended frame's own tie. The
/// window `x >= 100` has no exact rows and a plateau: a third of the rows
/// miss by exactly 30, the rest by more, so a re-weight inside that tie
/// keeps the fit without a selection. Then rows land at that `dmax`,
/// below it (400 rows missing by 10, more than the fit count) and above
/// it: the fit drops to `dmax = 10`, and the tie at 10 is those 400 rows,
/// not the old plateau's. A re-weight to a fit count past 400 but inside
/// the old tie must select again; every reply equals a service loaded
/// with all the rows.
#[test]
fn a_reweight_after_an_append_counts_the_extended_tie() {
    let base: Vec<(f64, u8)> = (0..6_000usize)
        .map(|i| {
            let tag = match (i % 101, i % 103) {
                (0, _) => 0,
                (_, 0) => 1,
                _ => 5,
            };
            let x = if i.is_multiple_of(3) {
                70.0
            } else {
                69.0 - (i % 50) as f64
            };
            (x, tag)
        })
        .collect();
    let policy = DisplayPolicy::FitScreen {
        pixels: 20,
        pixels_per_item: 1,
    };
    let open = |service: &Service, weight: f64| {
        let id = service.create_session("d").unwrap();
        service
            .submit(id, Request::SetWindowSize { w: 16, h: 16 })
            .unwrap();
        service
            .submit(id, Request::SetDisplayPolicy(policy.clone()))
            .unwrap();
        let query = "SELECT * FROM T WHERE x >= 100";
        service
            .submit(id, Request::SetQueryText(query.into()))
            .unwrap();
        let set = Request::SetWeight { window: 0, weight };
        assert_eq!(service.submit(id, set).unwrap(), Response::Ok);
        id
    };
    let ask = |service: &Service, id: SessionId| {
        [
            Request::Summary { trace: false },
            Request::Render(RenderFormat::Ppm),
        ]
        .map(|req| service.submit(id, req).unwrap())
    };
    // a re-weight's replies, and its refits and plateau fits off the
    // registry
    let reweight = |service: &Service, id: SessionId, weight: f64| {
        let counts = || {
            let snap = service.metrics_snapshot();
            ["pipeline.windows_refit", "pipeline.fit.from_plateau"]
                .map(|name| snap.counter(name).unwrap())
        };
        let before = counts();
        let set = Request::SetWeight { window: 0, weight };
        assert_eq!(service.submit(id, set).unwrap(), Response::Ok);
        let replies = ask(service, id);
        let after = counts();
        (replies, [0, 1].map(|i| after[i] - before[i]))
    };
    let config = || ServiceConfig {
        workers: 2,
        ..Default::default()
    };
    let reload = |all: &[(f64, u8)], weight: f64| {
        let fresh = Service::new(config());
        fresh.register_dataset("d", Arc::new(messy_db(all)), ConnectionRegistry::new());
        let id = open(&fresh, weight);
        ask(&fresh, id)
    };
    let live = Service::new(config());
    live.register_dataset("d", Arc::new(messy_db(&base)), ConnectionRegistry::new());
    let id = open(&live, 1.0);
    ask(&live, id);
    // inside the plateau's tie: the fit stands, no selection
    assert_eq!(reweight(&live, id, 0.3), (reload(&base, 0.3), [1, 1]));

    let mut all = base.clone();
    let delta: Vec<(f64, u8)> = (0..400)
        .map(|_| (90.0, 5))
        .chain([
            (70.0, 5),
            (70.0, 5),
            (10.0, 5),
            (-3.0, 5),
            (90.0, 0),
            (70.0, 1),
        ])
        .collect();
    let rows: Vec<Vec<Value>> = (delta.iter().enumerate())
        .map(|(j, &(v, tag))| messy_row(all.len() + j, v, tag))
        .collect();
    all.extend_from_slice(&delta);
    let outcome = live.append_rows("d", None, rows).unwrap();
    assert_eq!(outcome.windows_extended, 1);
    assert_eq!(ask(&live, id), reload(&all, 0.3));
    // a fit count past the 400 rows at the new `dmax` but inside the
    // old plateau's tie selects again
    assert_eq!(reweight(&live, id, 0.02), (reload(&all, 0.02), [1, 0]));
    // and that selection's own tie serves the next re-weight inside it
    assert_eq!(reweight(&live, id, 0.01), (reload(&all, 0.01), [1, 1]));
}

/// A fitted window without its frame across appends. Over 40 000
/// NULL-free rows, `x >= 3990` has 100 exact answers for a fit count of
/// 400, so its fit comes from the column's byte sketch: its bits and the
/// 399 rows below its plateau (`dmax = 30`) with their distances, no
/// frame. An append that leaves it short of 400 exact answers drops it
/// from the shared cache — its rows below the plateau cannot be refit
/// without the frame — and the re-ask evaluates it again. One that covers
/// the fit count — rows below `dmax` (350 exact, 5 at 10), at it and
/// above it — keeps it as its bits alone, under the fit `dmax = 0` with
/// no row below a plateau. Every reply equals a service loaded with all
/// the rows.
#[test]
fn a_frameless_fitted_window_extends_only_when_covered_and_matches_a_reload() {
    let base: Vec<(f64, u8)> = (0..40_000)
        .map(|i| (((i * 37) % 40_000) as f64 / 10.0, 5))
        .collect();
    let query = "SELECT * FROM T WHERE x >= 3990 AND x >= 0";
    let open = |service: &Service| {
        let id = service.create_session("d").unwrap();
        // a budget that does not grow with the rows keeps the window keys
        let policy = DisplayPolicy::FitScreen {
            pixels: 400,
            pixels_per_item: 1,
        };
        service
            .submit(id, Request::SetDisplayPolicy(policy))
            .unwrap();
        service
            .submit(id, Request::SetQueryText(query.into()))
            .unwrap();
        id
    };
    let ask = |service: &Service, id: SessionId| {
        [
            Request::Summary { trace: false },
            Request::Render(RenderFormat::Ascii),
            Request::Render(RenderFormat::Ppm),
        ]
        .map(|req| service.submit(id, req).unwrap())
    };
    let trace_of = |service: &Service, id: SessionId| match service
        .submit(id, Request::Summary { trace: true })
        .unwrap()
    {
        Response::Summary(summary) => summary.trace.expect("trace requested"),
        other => panic!("unexpected {other:?}"),
    };
    let config = || ServiceConfig {
        workers: 2,
        ..Default::default()
    };
    let live = Service::new(config());
    live.register_dataset("d", Arc::new(messy_db(&base)), ConnectionRegistry::new());
    let id = open(&live);
    ask(&live, id);
    let trace = trace_of(&live, id);
    assert_eq!(
        (trace.windows_sketch_fitted, trace.table_exceptions),
        (1, 399)
    );
    let mut all = base.clone();
    let short: Vec<(f64, u8)> = [3995.0, 3980.0, 3960.0, 10.0].map(|x| (x, 5)).to_vec();
    let covering: Vec<(f64, u8)> = (std::iter::repeat_n(3995.0, 350))
        .chain([3980.0; 5])
        .chain([3960.0, 3960.0, 10.0, -5.0])
        .map(|x| (x, 5))
        .collect();
    // (what, delta, windows extended, sketch-fitted on the re-ask)
    for (what, delta, extended, fitted) in [
        ("short of the fit count: dropped", short, 1, 1),
        ("covering it: kept as bits", covering, 2, 0),
    ] {
        let rows: Vec<Vec<Value>> = (delta.iter().enumerate())
            .map(|(j, &(v, tag))| messy_row(all.len() + j, v, tag))
            .collect();
        all.extend_from_slice(&delta);
        let outcome = live.append_rows("d", None, rows).unwrap();
        assert_eq!(outcome.windows_extended, extended, "{what}");
        let fresh = Service::new(config());
        fresh.register_dataset("d", Arc::new(messy_db(&all)), ConnectionRegistry::new());
        let replay = open(&fresh);
        assert_eq!(ask(&live, id), ask(&fresh, replay), "{what}");
        let trace = trace_of(&live, id);
        assert_eq!(trace.windows_evaluated, 2 - extended, "{what}: {trace:?}");
        assert_eq!(trace.windows_sketch_fitted, fitted, "{what}");
    }
}
