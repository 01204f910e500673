//! Failure injection: the pipeline must degrade gracefully — never panic,
//! never fabricate exact answers — on hostile data (NULL floods, NaN,
//! infinities, empty tables, degenerate windows, all-undefined queries).

use std::sync::Arc;

use visdb::prelude::*;

fn db_from_rows(rows: Vec<Vec<Value>>) -> Database {
    let mut t = TableBuilder::new(
        "T",
        vec![
            Column::new("x", DataType::Float),
            Column::new("s", DataType::Str),
        ],
    );
    for r in rows {
        t = t.row(r).unwrap();
    }
    let mut db = Database::new("d");
    db.add_table(t.build());
    db
}

fn run(db: &Database, q: Query, pct: f64) -> Result<PipelineOutput> {
    let t = db.table("T")?;
    let resolver = DistanceResolver::new();
    run_pipeline(
        db,
        t,
        &resolver,
        q.condition.as_ref(),
        &DisplayPolicy::Percentage(pct),
        PipelineOptions::default(),
    )
}

#[test]
fn all_null_column_yields_no_answers_but_no_panic() {
    let db = db_from_rows(vec![
        vec![Value::Null, Value::from("a")],
        vec![Value::Null, Value::from("b")],
    ]);
    let q = QueryBuilder::from_tables(["T"])
        .cmp("x", CompareOp::Gt, 1.0)
        .build();
    let out = run(&db, q, 100.0).unwrap();
    assert_eq!(out.num_exact, 0);
    assert!(out.order.is_empty(), "undefined items must not be ranked");
    assert!(out.displayed.is_empty());
    assert!(out.combined.iter().all(|d| d.is_none()));
}

#[test]
fn nan_values_are_undefined_not_poisonous() {
    let db = db_from_rows(vec![
        vec![Value::Float(f64::NAN), Value::from("a")],
        vec![Value::Float(1.0), Value::from("b")],
        vec![Value::Float(f64::NAN), Value::from("c")],
    ]);
    let q = QueryBuilder::from_tables(["T"])
        .cmp("x", CompareOp::Ge, 1.0)
        .build();
    let out = run(&db, q, 100.0).unwrap();
    assert_eq!(out.num_exact, 1);
    assert_eq!(out.order, vec![1]);
    assert_eq!(out.combined.get(0), None);
    assert_eq!(out.combined.get(2), None);
}

#[test]
fn infinities_clamp_into_the_color_range() {
    let db = db_from_rows(vec![
        vec![Value::Float(f64::INFINITY), Value::from("a")],
        vec![Value::Float(5.0), Value::from("b")],
        vec![Value::Float(f64::NEG_INFINITY), Value::from("c")],
    ]);
    let q = QueryBuilder::from_tables(["T"])
        .cmp("x", CompareOp::Ge, 5.0)
        .build();
    let out = run(&db, q, 100.0).unwrap();
    // every defined combined distance stays colorable
    for d in out.combined.iter().flatten() {
        assert!((0.0..=255.0).contains(&d), "{d}");
    }
    // +inf fulfils >= 5 exactly; -inf is infinitely far but clamps
    assert!(out.num_exact >= 1);
}

#[test]
fn empty_table_short_circuits() {
    let db = db_from_rows(vec![]);
    let q = QueryBuilder::from_tables(["T"])
        .cmp("x", CompareOp::Ge, 0.0)
        .build();
    let out = run(&db, q, 50.0).unwrap();
    assert_eq!(out.n, 0);
    assert!(out.displayed.is_empty());
    // arrangement of nothing is an empty grid
    let grid = arrange_overall(&out.displayed, 8, 8);
    assert_eq!(grid.occupied(), 0);
}

#[test]
fn mixed_defined_and_undefined_windows_combine_sanely() {
    // AND of a NULL-poisoned predicate and a healthy one: items with a
    // NULL on either side are undefined, the rest rank normally
    let db = db_from_rows(vec![
        vec![Value::Float(1.0), Value::from("hit")],
        vec![Value::Null, Value::from("hit")],
        vec![Value::Float(3.0), Value::from("miss")],
    ]);
    let q = QueryBuilder::from_tables(["T"])
        .cmp("x", CompareOp::Ge, 0.0)
        .cmp("s", CompareOp::Eq, "hit")
        .build();
    let out = run(&db, q, 100.0).unwrap();
    assert_eq!(out.combined.get(1), None); // NULL x under AND
    assert_eq!(out.num_exact, 1); // row 0 only
    assert_eq!(out.order[0], 0);
}

#[test]
fn session_survives_adversarial_interaction_sequence() {
    let env = generate_environmental(&EnvConfig {
        hours: 48,
        stations: 1,
        ..Default::default()
    });
    let mut s = Session::new(Arc::new(env.db), env.registry);
    // garbage first
    assert!(s.set_query_text("SELECT").is_err());
    assert!(s.recalculate().is_err());
    assert!(s.select_tuple(0).is_err()); // result() fails without a query
                                         // then a real query
    s.set_query_text("SELECT Temperature FROM Weather WHERE Temperature > 1000")
        .unwrap();
    // NULL-result query: nothing exact, everything approximate
    assert_eq!(s.result().unwrap().pipeline.num_exact, 0);
    // out-of-range interactions are typed errors, not panics
    assert!(s.select_tuple(10_000_000).is_err());
    assert!(s.select_color_range(0, -5.0, 10.0).is_err());
    assert!(s.select_color_range(42, 0.0, 255.0).is_err());
    assert!(s.set_weight(3, 1.0).is_err());
    assert!(s.drilldown(&[0, 0, 0, 0], false).is_err());
    // after all that, the session still works
    s.set_query_text("SELECT Temperature FROM Weather WHERE Temperature > 10")
        .unwrap();
    assert!(s.result().unwrap().pipeline.num_exact > 0);
}

#[test]
fn one_by_one_window_renders() {
    let db = db_from_rows(vec![vec![Value::Float(1.0), Value::from("a")]]);
    let mut s = Session::new(Arc::new(db), ConnectionRegistry::new());
    s.set_window_size(1, 1).unwrap();
    s.set_display_policy(DisplayPolicy::Percentage(100.0))
        .unwrap();
    s.set_query(
        QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, 1.0)
            .build(),
    )
    .unwrap();
    let fb = visdb::core::render_session(&mut s, &Default::default()).unwrap();
    assert!(fb.width() > 0 && fb.height() > 0);
}

#[test]
fn huge_weights_and_tiny_weights_stay_finite() {
    let db = db_from_rows(vec![
        vec![Value::Float(1.0), Value::from("a")],
        vec![Value::Float(100.0), Value::from("b")],
    ]);
    let q = QueryBuilder::from_tables(["T"])
        .cmp_weighted("x", CompareOp::Ge, 50.0, 1e6)
        .cmp_weighted("x", CompareOp::Le, 50.0, 1e-9)
        .build();
    let out = run(&db, q, 100.0).unwrap();
    for d in out.combined.iter().flatten() {
        assert!(d.is_finite());
        assert!((0.0..=255.0).contains(&d));
    }
}

#[test]
fn degenerate_single_value_column() {
    let db = db_from_rows(vec![
        vec![Value::Float(7.0), Value::from("a")],
        vec![Value::Float(7.0), Value::from("b")],
        vec![Value::Float(7.0), Value::from("c")],
    ]);
    // everything exact
    let q = QueryBuilder::from_tables(["T"])
        .cmp("x", CompareOp::Eq, 7.0)
        .build();
    let out = run(&db, q, 100.0).unwrap();
    assert_eq!(out.num_exact, 3);
    assert!(out.combined.iter().all(|d| d == Some(0.0)));
    // nothing exact, all equally distant
    let q = QueryBuilder::from_tables(["T"])
        .cmp("x", CompareOp::Eq, 0.0)
        .build();
    let out = run(&db, q, 100.0).unwrap();
    assert_eq!(out.num_exact, 0);
    // all displayed anyway (equal distances), all the same color
    assert_eq!(out.displayed.len(), 3);
    let d0 = out.combined.get(0);
    assert!(out.combined.iter().all(|d| d == d0));
}

/// An interrupted (cancelled or panicked) query must leave every shared
/// cache — query-result, predicate-window, sorted-projection — without
/// a partial entry: re-asking the identical query on the disturbed
/// service must be byte-identical to a cold, never-disturbed service,
/// and the re-ask must recompute (zero query-cache hits), not be served
/// some half-written frame. A run publishes to the caches only once it
/// has succeeded, so neither does it leave a complete entry behind: no
/// join projection, no refitted window.
#[test]
fn interrupted_queries_leave_no_partial_cache_entries() {
    use visdb::exec::{fault, FaultAction, Phase};

    fn ramp_service() -> (Service, SessionId) {
        let mut t = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
        for i in 0..40_000 {
            t = t.row(vec![Value::Float(i as f64)]).unwrap();
        }
        let mut db = Database::new("ramp");
        db.add_table(t.build());
        let s = Service::new(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        s.register_dataset("ramp", Arc::new(db), ConnectionRegistry::new());
        let id = s.create_session("ramp").unwrap();
        s.submit(
            id,
            Request::SetQueryText("SELECT * FROM T WHERE x >= 30000".into()),
        )
        .unwrap();
        (s, id)
    }

    // what a never-disturbed service answers, bytes and all
    let (cold, cold_id) = ramp_service();
    let cold_frame = cold
        .submit(cold_id, Request::Render(RenderFormat::Ppm))
        .unwrap();

    for phase in [
        Phase::Distance,
        Phase::Fit,
        Phase::NormalizeCombine,
        Phase::Rank,
    ] {
        for action in [FaultAction::Cancel, FaultAction::Panic] {
            let (s, id) = ramp_service();
            let disturbed = {
                let _guard = fault::inject(phase, action);
                s.submit_opts(
                    id,
                    Request::Render(RenderFormat::Ppm),
                    SubmitOptions {
                        deadline: None,
                        request_id: Some(1),
                    },
                )
                .unwrap()
            };
            assert!(
                matches!(disturbed, Response::Error { .. }),
                "[{phase:?} {action:?}] expected an error, got {disturbed:?}"
            );
            let hits_before = s.telemetry().query_cache.hits;
            let frame = s.submit(id, Request::Render(RenderFormat::Ppm)).unwrap();
            assert_eq!(
                s.telemetry().query_cache.hits,
                hits_before,
                "[{phase:?} {action:?}] the interrupted run left a query-cache entry"
            );
            assert_eq!(
                frame, cold_frame,
                "[{phase:?} {action:?}] re-ask diverged from a cold run"
            );
        }
    }

    // The same for what a modification recomputes: a §4.4 join's shared
    // inner projection, and the window a re-weight refits.
    fn join_service(reweight: bool) -> (Service, SessionId) {
        let column = |name: &str, col: &str, n: usize, step: f64| {
            let mut t = TableBuilder::new(name, vec![Column::new(col, DataType::Float)]);
            for i in 0..n {
                t = t.row(vec![Value::Float(i as f64 * step)]).unwrap();
            }
            t.build()
        };
        let mut db = Database::new("pair");
        db.add_table(column("O", "x", 3_000, 1.0));
        db.add_table(column("I", "y", 500, 7.5));
        let s = Service::new(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        s.register_dataset("pair", Arc::new(db), ConnectionRegistry::new());
        let id = s.create_session("pair").unwrap();
        let text = "SELECT * FROM O WHERE x >= 2000 AND x IN (SELECT y FROM I WHERE y >= 900)";
        s.submit(id, Request::SetQueryText(text.into())).unwrap();
        if reweight {
            reweigh(&s, id);
        }
        (s, id)
    }
    fn reweigh(s: &Service, id: SessionId) {
        let set = Request::SetWeight {
            window: 1,
            weight: 0.3,
        };
        assert_eq!(s.submit(id, set).unwrap(), Response::Ok);
    }
    let render = Request::Render(RenderFormat::Ppm);
    let (cold, cold_id) = join_service(false);
    let cold_frame = cold.submit(cold_id, render.clone()).unwrap();
    let (cold, cold_id) = join_service(true);
    let cold_reweighted = cold.submit(cold_id, render.clone()).unwrap();
    assert_ne!(cold_frame, cold_reweighted, "the weight must matter");

    for phase in [
        Phase::Distance,
        Phase::Fit,
        Phase::NormalizeCombine,
        Phase::Rank,
    ] {
        for action in [FaultAction::Cancel, FaultAction::Panic] {
            let disturb = |s: &Service, id: SessionId| {
                let _guard = fault::inject(phase, action);
                let reply = s
                    .submit_opts(
                        id,
                        render.clone(),
                        SubmitOptions {
                            deadline: None,
                            request_id: Some(1),
                        },
                    )
                    .unwrap();
                assert!(
                    matches!(reply, Response::Error { .. }),
                    "[{phase:?} {action:?}] expected an error, got {reply:?}"
                );
            };
            // the cold join: whatever the disturbed run sorted, it stored
            // no projection — the re-ask cannot hit one
            let (s, id) = join_service(false);
            disturb(&s, id);
            assert_eq!(s.submit(id, render.clone()).unwrap(), cold_frame);
            assert_eq!(
                s.telemetry().projection_cache.hits,
                0,
                "[{phase:?} {action:?}] the interrupted run left a projection"
            );
            // the settled session, re-weighted: the disturbed run stored
            // no refit window in either layer — the re-ask refits again
            // (from the shared entry when the panic recycled the session)
            reweigh(&s, id);
            disturb(&s, id);
            assert_eq!(s.submit(id, render.clone()).unwrap(), cold_reweighted);
            let trace = match s.submit(id, Request::Summary { trace: true }).unwrap() {
                Response::Summary(summary) => summary.trace.expect("trace requested"),
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(
                (trace.windows_refit, trace.windows_evaluated),
                (1, 0),
                "[{phase:?} {action:?}] the interrupted run left a refit window"
            );
        }
    }
}

#[test]
fn csv_with_malformed_rows_fails_cleanly() {
    use visdb::storage::csv::read_csv;
    let schema = Schema::new(vec![Column::new("x", DataType::Float)]);
    for bad in ["not-a-number\n", "1.0,extra\n", "\u{0}\n"] {
        let r = read_csv("T", schema.clone(), bad.as_bytes());
        assert!(r.is_err(), "input {bad:?} should fail");
    }
}

/// The wire parser is recursive descent: without a nesting limit one
/// deeply nested line overflows the stack, which no `catch_unwind` can
/// contain. Such a line must come back as a structured
/// `invalid_request`, and the server must answer the next line.
#[test]
fn deeply_nested_json_line_is_rejected_and_the_server_lives() {
    use visdb::service::json::{parse, Json, MAX_DEPTH};
    use visdb::service::server::handle_line;

    // the limit is exact, and generous beside what the protocol needs
    let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    const { assert!(MAX_DEPTH >= 64) };
    assert!(parse(&nest(MAX_DEPTH)).is_ok());
    assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
    // closed levels do not count: a long flat array of small arrays is fine
    assert!(parse(&format!("[{}[]]", "[],".repeat(10_000))).is_ok());

    let service = Service::new(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let hostile = [
        "[".repeat(100_000),
        nest(100_000),
        "{\"a\":".repeat(100_000),
        format!("{{\"op\":\"stats\",\"x\":{}}}", nest(100_000)),
    ];
    for line in &hostile {
        let reply = handle_line(&service, line);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply}");
        assert_eq!(
            reply.get("kind").and_then(Json::as_str),
            Some("invalid_request"),
            "{reply}"
        );
        let next = handle_line(&service, r#"{"id":1,"op":"stats"}"#);
        assert_eq!(next.get("ok"), Some(&Json::Bool(true)), "{next}");
    }
}

/// The wire does not decide how much memory a line takes: one over
/// `json::MAX_LINE_BYTES` is answered `invalid_request` before parsing,
/// the next line is answered, and a large honest line — a 1 MiB
/// `append_rows` — still parses and appends.
#[test]
fn oversized_line_is_rejected_and_the_server_lives() {
    use visdb::service::json::{Json, MAX_LINE_BYTES};
    use visdb::service::server::handle_line;

    let service = Service::new(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let csv = r#"{"op":"load_csv","dataset":"d","table":"T","csv":"x\n1.5\n2\n"}"#;
    let loaded = handle_line(&service, csv);
    assert_eq!(loaded.get("ok"), Some(&Json::Bool(true)), "{loaded}");

    // valid JSON, one byte over: rejected on size, not on content
    let head = r#"{"op":"append_rows","dataset":"d","table":"T","rows":[[1]"#;
    let oversized = format!(
        "{head}{}]}}",
        " ".repeat(MAX_LINE_BYTES + 1 - head.len() - 2)
    );
    assert_eq!(oversized.len(), MAX_LINE_BYTES + 1);
    let reply = handle_line(&service, &oversized);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply}");
    let kind = reply.get("kind").and_then(Json::as_str);
    assert_eq!(kind, Some("invalid_request"), "{reply}");
    assert!(
        reply.to_string().len() < 1024,
        "the reply must not echo the line"
    );
    // at the limit the same line is parsed (and appends its one row)
    let at_limit = format!("{head}{}]}}", " ".repeat(MAX_LINE_BYTES - head.len() - 2));
    let reply = handle_line(&service, &at_limit);
    assert_eq!(
        reply.get("rows_appended").and_then(Json::as_u64),
        Some(1),
        "{reply}"
    );
    let next = handle_line(&service, r#"{"id":1,"op":"stats"}"#);
    assert_eq!(next.get("ok"), Some(&Json::Bool(true)), "{next}");

    // a 1 MiB append: ~150 k rows of `[1.25],`
    let rows = 150_000;
    let line = format!("{head}{}]}}", ",[1.25]".repeat(rows));
    assert!(line.len() > 1 << 20 && line.len() < MAX_LINE_BYTES);
    let reply = handle_line(&service, &line);
    let appended = reply.get("rows_appended").and_then(Json::as_u64);
    assert_eq!(appended, Some(rows as u64 + 1), "{reply}");
}
