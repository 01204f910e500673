//! Integration tests for the serving layer: many concurrent sessions
//! over one shared database must behave exactly like the single-user
//! `Session` of the paper, and the shared query-result cache must serve
//! repeated queries without re-running the pipeline.

use std::sync::Arc;

use visdb::prelude::*;
use visdb::service::{execute, SessionState};

/// One client's §4.3 interaction script, parameterized so distinct
/// clients exercise distinct queries (and two chosen clients collide on
/// purpose to hit the shared cache).
fn script(threshold: usize) -> Vec<Request> {
    vec![
        Request::SetWindowSize { w: 16, h: 16 },
        Request::SetDisplayPolicy(DisplayPolicy::Percentage(50.0)),
        Request::SetQueryText(format!("SELECT * FROM T WHERE x >= {threshold}")),
        Request::Summary { trace: false },
        Request::Render(RenderFormat::Ascii),
        // drag the slider and look again
        Request::MoveSlider {
            window: 0,
            op: CompareOp::Ge,
            value: (threshold / 2) as f64,
        },
        Request::Summary { trace: false },
        Request::Render(RenderFormat::Ppm),
    ]
}

fn ramp_db(n: usize) -> Arc<Database> {
    let mut t = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
    for i in 0..n {
        t = t.row(vec![Value::Float(i as f64)]).unwrap();
    }
    let mut db = Database::new("ramp");
    db.add_table(t.build());
    Arc::new(db)
}

/// Run a client's script on a plain single-threaded session — the
/// paper's original mode — through the exact same execution path the
/// service workers use (minus pool and cache).
fn serial_reference(db: &Arc<Database>, script: &[Request]) -> Vec<Response> {
    let mut session = Session::new(Arc::clone(db), ConnectionRegistry::new());
    session.set_auto_recalculate(false); // the service's lazy mode
    let mut state = SessionState {
        session,
        dataset: "ramp".into(),
    };
    script
        .iter()
        .map(|req| execute(&mut state, req, None))
        .collect()
}

#[test]
fn concurrent_sessions_match_serial_sessions_byte_for_byte() {
    const CLIENTS: usize = 8;
    let db = ramp_db(2_000);
    let service = Service::new(ServiceConfig {
        workers: 4,
        ..Default::default()
    });
    service.register_dataset("ramp", Arc::clone(&db), ConnectionRegistry::new());

    // clients 0 and 1 run identical scripts (the shared-cache case);
    // the rest are distinct
    let thresholds: Vec<usize> = (0..CLIENTS)
        .map(|c| {
            if c == 1 {
                client_threshold(0)
            } else {
                client_threshold(c)
            }
        })
        .collect();

    // every client on its own thread, all sessions over one Arc<Database>
    let concurrent: Vec<Vec<Response>> = std::thread::scope(|scope| {
        let handles: Vec<_> = thresholds
            .iter()
            .map(|&threshold| {
                let service = &service;
                scope.spawn(move || {
                    let id = service.create_session("ramp").expect("registered dataset");
                    script(threshold)
                        .into_iter()
                        .map(|req| service.submit(id, req).expect("live session"))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    assert_eq!(service.session_count(), CLIENTS);
    for (client, (&threshold, responses)) in thresholds.iter().zip(&concurrent).enumerate() {
        let expected = serial_reference(&db, &script(threshold));
        assert_eq!(
            responses, &expected,
            "client {client} diverged from the serial session"
        );
        // sanity: the script produced real payloads, not errors
        assert!(matches!(responses[3], Response::Summary(_)));
        assert!(
            matches!(&responses[7], Response::Frame { bytes, .. } if bytes.starts_with(b"P6\n"))
        );
    }
}

fn client_threshold(client: usize) -> usize {
    1_000 + client * 97
}

#[test]
fn repeated_query_is_served_from_the_shared_cache() {
    let db = ramp_db(500);
    let service = Service::new(ServiceConfig {
        workers: 4,
        ..Default::default()
    });
    service.register_dataset("ramp", Arc::clone(&db), ConnectionRegistry::new());

    let first = service.create_session("ramp").unwrap();
    let second = service.create_session("ramp").unwrap();
    let ask = |id, req| service.submit(id, req).unwrap();

    for id in [first, second] {
        assert_eq!(
            ask(
                id,
                Request::SetQueryText("SELECT * FROM T WHERE x >= 400".into())
            ),
            Response::Ok
        );
    }
    let miss = ask(first, Request::Render(RenderFormat::Ppm));
    let stats_after_miss = service.telemetry().query_cache;
    assert_eq!(stats_after_miss.hits, 0);
    assert_eq!(stats_after_miss.misses, 1);

    // the second user repeats the query: served from the cache, no
    // pipeline run
    let hit = ask(second, Request::Render(RenderFormat::Ppm));
    let stats_after_hit = service.telemetry().query_cache;
    assert_eq!(
        stats_after_hit.hits, 1,
        "repeated render must hit the cache"
    );
    assert_eq!(stats_after_hit.misses, 1, "no second pipeline run");
    assert_eq!(miss, hit, "cached response must be identical");

    // ...and it still matches a from-scratch serial computation
    let serial = serial_reference(
        &db,
        &[
            Request::SetQueryText("SELECT * FROM T WHERE x >= 400".into()),
            Request::Render(RenderFormat::Ppm),
        ],
    );
    assert_eq!(serial[1], hit);

    // a *different* query does not collide with the cached entry
    assert_eq!(
        ask(
            second,
            Request::MoveSlider {
                window: 0,
                op: CompareOp::Ge,
                value: 100.0
            }
        ),
        Response::Ok
    );
    let other = ask(second, Request::Render(RenderFormat::Ppm));
    assert_ne!(other, hit);
    assert_eq!(service.telemetry().query_cache.misses, 2);
}

#[test]
fn concurrent_sessions_share_one_sorted_projection_build() {
    // The slider fast path's per-column sorted projection (~20 B/row) is
    // promoted to a shared per-(generation, column) cache: N sessions
    // dragging the same column must trigger exactly one build.
    let db = ramp_db(2_000);
    let service = Service::new(ServiceConfig {
        workers: 4,
        ..Default::default()
    });
    service.register_dataset("ramp", Arc::clone(&db), ConnectionRegistry::new());

    const CLIENTS: usize = 4;
    let ids: Vec<_> = (0..CLIENTS)
        .map(|_| service.create_session("ramp").unwrap())
        .collect();
    for &id in &ids {
        assert_eq!(
            service
                .submit(
                    id,
                    Request::SetQueryText("SELECT * FROM T WHERE x >= 1500".into())
                )
                .unwrap(),
            Response::Ok
        );
    }
    // sequential first drags: the first session builds, the rest hit
    for (i, &id) in ids.iter().enumerate() {
        let drag = service
            .submit(
                id,
                Request::DragSlider {
                    window: 0,
                    op: CompareOp::Ge,
                    value: 1600.0,
                    trace: false,
                },
            )
            .unwrap();
        assert_eq!(
            drag,
            Response::Drag {
                displayed: 500,
                exact: 400,
                incremental: true,
                trace: None
            },
            "client {i}"
        );
    }
    let stats = service.telemetry().projection_cache;
    assert_eq!(stats.misses, 1, "exactly one projection build");
    assert_eq!(stats.hits, CLIENTS - 1, "every other session reuses it");

    // concurrent follow-up drags: per-session indexes are warm, results
    // stay correct under parallel submission
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .iter()
            .map(|&id| {
                let service = &service;
                scope.spawn(move || {
                    service
                        .submit(
                            id,
                            Request::DragSlider {
                                window: 0,
                                op: CompareOp::Ge,
                                value: 1700.0,
                                trace: false,
                            },
                        )
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in responses {
        assert_eq!(
            r,
            Response::Drag {
                displayed: 500,
                exact: 300,
                incremental: true,
                trace: None
            }
        );
    }
    assert_eq!(
        service.telemetry().projection_cache.misses,
        1,
        "warm sessions never rebuild"
    );

    // the drag answers match a serial single-user session exactly
    let mut serial = Session::new(Arc::clone(&db), ConnectionRegistry::new());
    serial.set_auto_recalculate(false);
    serial
        .set_query_text("SELECT * FROM T WHERE x >= 1500")
        .unwrap();
    let reference = serial
        .drag_slider(
            0,
            PredicateTarget::Compare {
                op: CompareOp::Ge,
                value: Value::Float(1700.0),
            },
        )
        .unwrap();
    assert_eq!(reference.displayed.len(), 500);
    assert_eq!(reference.num_exact, 300);
    assert!(reference.incremental);

    // generation rotation evicts the shared build: a session over the
    // re-registered dataset triggers a fresh one
    service.register_dataset("ramp", ramp_db(2_000), ConnectionRegistry::new());
    let fresh = service.create_session("ramp").unwrap();
    service
        .submit(
            fresh,
            Request::SetQueryText("SELECT * FROM T WHERE x >= 1500".into()),
        )
        .unwrap();
    service
        .submit(
            fresh,
            Request::DragSlider {
                window: 0,
                op: CompareOp::Ge,
                value: 1600.0,
                trace: false,
            },
        )
        .unwrap();
    assert_eq!(
        service.telemetry().projection_cache.misses,
        2,
        "the rotated generation must rebuild"
    );
}

#[test]
fn sessions_survive_errors_and_eviction_frees_capacity() {
    let service = Service::new(ServiceConfig {
        workers: 2,
        max_sessions: 2,
        ..Default::default()
    });
    service.register_dataset("ramp", ramp_db(100), ConnectionRegistry::new());

    let a = service.create_session("ramp").unwrap();
    let b = service.create_session("ramp").unwrap();
    // a bad query is an error response, not a dead session
    assert!(matches!(
        service
            .submit(a, Request::SetQueryText("SELECT".into()))
            .unwrap(),
        Response::Error { .. }
    ));
    assert_eq!(service.submit(a, Request::Ping).unwrap(), Response::Ok);

    // at capacity, creating a third session LRU-evicts the stalest (b:
    // `a` was touched by the ping just now)
    let c = service.create_session("ramp").unwrap();
    assert_eq!(service.session_count(), 2);
    assert!(service.submit(b, Request::Ping).is_err(), "b was evicted");
    assert_eq!(service.submit(a, Request::Ping).unwrap(), Response::Ok);
    assert_eq!(service.submit(c, Request::Ping).unwrap(), Response::Ok);
}

#[test]
fn packed_frames_survive_edge_data_through_the_window_cache() {
    // Edge data for the packed `DistanceFrame` representation: an
    // all-NULL column, a NaN-riddled column, and a zero-row relation.
    // Responses must round-trip the shared window cache byte-for-byte —
    // a cached (packed) window must reproduce exactly the frames a cold
    // evaluation renders.
    let mut db = Database::new("edge");
    let mut t = TableBuilder::new(
        "E",
        vec![
            Column::new("dead", DataType::Float), // all NULL
            Column::new("x", DataType::Float),    // NaN-heavy
        ],
    );
    for i in 0..120 {
        let x = if i % 3 == 0 {
            Value::Float(f64::NAN)
        } else {
            Value::Float(i as f64)
        };
        t = t.row(vec![Value::Null, x]).unwrap();
    }
    db.add_table(t.build());
    db.add_table(TableBuilder::new("Z", vec![Column::new("x", DataType::Float)]).build());
    let db = Arc::new(db);

    let drive = |service: &Service, text: &str| -> Vec<Response> {
        let id = service.create_session("edge").unwrap();
        [
            Request::SetWindowSize { w: 8, h: 8 },
            Request::SetDisplayPolicy(DisplayPolicy::Percentage(50.0)),
            Request::SetQueryText(text.into()),
            Request::Summary { trace: false },
            Request::Render(RenderFormat::Ascii),
        ]
        .into_iter()
        .map(|req| service.submit(id, req).unwrap())
        .collect()
    };
    let queries = [
        "SELECT * FROM E WHERE dead >= 10", // all-undefined window
        "SELECT * FROM E WHERE x >= 60 AND x < 100", // NaN-heavy windows
        "SELECT * FROM Z WHERE x >= 1",     // zero-row relation
    ];

    let warm = Service::new(ServiceConfig {
        workers: 2,
        cache_capacity: 0, // only the *window* cache may dedupe
        ..Default::default()
    });
    warm.register_dataset("edge", Arc::clone(&db), ConnectionRegistry::new());
    let cold = Service::new(ServiceConfig {
        workers: 2,
        cache_capacity: 0,
        window_cache_capacity: 0,
        ..Default::default()
    });
    cold.register_dataset("edge", Arc::clone(&db), ConnectionRegistry::new());

    for q in queries {
        let first = drive(&warm, q);
        let cached = drive(&warm, q); // every window served from cache
        assert_eq!(first, cached, "cached windows must round-trip: {q}");
        assert_eq!(drive(&cold, q), first, "cold run must agree: {q}");
        for r in &first {
            assert!(!matches!(r, Response::Error { .. }), "{q}: {r:?}");
        }
    }
    assert!(
        warm.telemetry().window_cache.hits >= 2,
        "edge windows must actually be served from the cache"
    );
}

#[test]
fn shared_windows_are_reused_across_sessions_and_stay_byte_identical() {
    // Two sessions issue overlapping two-predicate queries that differ
    // in exactly one predicate: the unchanged `x < 150` window must be
    // served from the shared predicate-window cache for the second
    // session, and its responses must be byte-identical to a cold run.
    let db = ramp_db(200);
    let q1 = "SELECT * FROM T WHERE x >= 100 AND x < 150";
    let q2 = "SELECT * FROM T WHERE x >= 120 AND x < 150";
    let drive = |service: &Service, text: &str| -> Vec<Response> {
        let id = service.create_session("ramp").unwrap();
        [
            Request::SetQueryText(text.into()),
            Request::Summary { trace: false },
            Request::Render(RenderFormat::Ppm),
        ]
        .into_iter()
        .map(|req| service.submit(id, req).unwrap())
        .collect()
    };

    let service = Service::new(ServiceConfig {
        workers: 2,
        cache_capacity: 0, // isolate the *window* cache from frame hits
        ..Default::default()
    });
    service.register_dataset("ramp", Arc::clone(&db), ConnectionRegistry::new());

    let warm_q1 = drive(&service, q1);
    let after_first = service.telemetry().window_cache;
    assert_eq!(after_first.hits, 0, "first session must evaluate fresh");

    let warm_q2 = drive(&service, q2);
    let after_second = service.telemetry().window_cache;
    assert_eq!(
        after_second.hits, 1,
        "the shared `x < 150` window must be a cache hit"
    );

    // a third session repeating q1 verbatim reuses both of its windows
    let warm_q1_again = drive(&service, q1);
    assert_eq!(service.telemetry().window_cache.hits, 3);
    assert_eq!(warm_q1_again, warm_q1);

    // cold reference: window sharing disabled entirely
    let cold = Service::new(ServiceConfig {
        workers: 2,
        cache_capacity: 0,
        window_cache_capacity: 0,
        ..Default::default()
    });
    cold.register_dataset("ramp", Arc::clone(&db), ConnectionRegistry::new());
    assert_eq!(drive(&cold, q1), warm_q1, "q1 must be byte-identical cold");
    assert_eq!(drive(&cold, q2), warm_q2, "q2 must be byte-identical cold");
    assert_eq!(cold.telemetry().window_cache.hits, 0);

    // re-registering the dataset rotates the generation: no stale reuse
    let bigger = ramp_db(400);
    service.register_dataset("ramp", bigger, ConnectionRegistry::new());
    let hits_before = service.telemetry().window_cache.hits;
    let fresh = drive(&service, q1);
    assert_eq!(
        service.telemetry().window_cache.hits,
        hits_before,
        "windows of the replaced dataset must not be reused"
    );
    assert_ne!(fresh, warm_q1, "400-row frames differ from 200-row frames");
}

#[test]
fn metrics_op_snapshots_every_layer_and_counters_stay_monotone() {
    let db = ramp_db(400);
    let service = Service::new(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    service.register_dataset("ramp", Arc::clone(&db), ConnectionRegistry::new());
    let user = service.create_session("ramp").unwrap();
    let ask = |req| service.submit(user, req).unwrap();

    assert_eq!(
        ask(Request::SetQueryText(
            "SELECT * FROM T WHERE x >= 300".into()
        )),
        Response::Ok
    );
    ask(Request::Summary { trace: false });

    let snap = match ask(Request::Metrics) {
        Response::Metrics(s) => *s,
        other => panic!("unexpected {other:?}"),
    };
    // one snapshot covers every layer: exec pool, caches, sessions,
    // per-op service traffic, per-phase pipeline latency
    for counter in [
        "exec.jobs_executed",
        "exec.tasks_stolen",
        "cache.query.hits",
        "cache.query.misses",
        "cache.window.hits",
        "cache.window.misses",
        "cache.projection.hits",
        "cache.projection.misses",
        "service.sessions.created",
        "service.sessions.evicted",
        "service.requests.summary",
        "service.drag.fast",
        "service.drag.declined",
        "pipeline.windows_refit",
        "pipeline.fit.from_counts",
        "pipeline.fit.selected",
        "pipeline.rank.from_counts",
        "pipeline.rank.selected",
        "pipeline.combine.children_bits",
        "pipeline.combine.children_raw",
        "pipeline.combine.roots_from_table",
        "pipeline.windows.bits_only",
        "pipeline.chunks.compare_packed",
        "render.panel.held",
        "render.panel.by_pattern",
        "render.panel.by_row",
    ] {
        assert!(snap.counter(counter).is_some(), "missing counter {counter}");
    }
    for gauge in ["exec.threads", "exec.queue_depth", "service.sessions.live"] {
        assert!(snap.gauge(gauge).is_some(), "missing gauge {gauge}");
    }
    for hist in [
        "exec.job_latency_ns",
        "service.latency_ns.summary",
        "pipeline.phase.distance",
        "pipeline.phase.fit",
        "pipeline.phase.normalize_combine",
        "pipeline.phase.rank",
    ] {
        assert!(snap.histogram(hist).is_some(), "missing histogram {hist}");
    }
    assert_eq!(snap.gauge("exec.threads"), Some(2));
    assert_eq!(snap.gauge("service.sessions.live"), Some(1));
    assert_eq!(snap.counter("service.requests.summary"), Some(1));
    let phases = snap.histogram("pipeline.phase.distance").unwrap();
    assert_eq!(phases.count, 1, "one fresh pipeline run so far");

    // a second, different query: every relevant series moves forward
    ask(Request::MoveSlider {
        window: 0,
        op: CompareOp::Ge,
        value: 100.0,
    });
    ask(Request::Summary { trace: false });
    let snap2 = match ask(Request::Metrics) {
        Response::Metrics(s) => *s,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(snap2.counter("service.requests.summary"), Some(2));
    assert_eq!(snap2.counter("service.requests.move_slider"), Some(1));
    assert!(snap2.counter("service.requests.metrics") >= Some(1));
    assert_eq!(
        snap2.histogram("pipeline.phase.distance").unwrap().count,
        2,
        "second fresh run recorded exactly once"
    );
    for (name, v1) in &snap.entries {
        if let visdb::obs::MetricValue::Counter(c1) = v1 {
            let c2 = snap2.counter(name).unwrap();
            assert!(c2 >= *c1, "counter {name} went backwards: {c1} -> {c2}");
        }
    }

    // a cached re-ask does not re-record pipeline phases
    ask(Request::Summary { trace: false });
    let snap3 = match ask(Request::Metrics) {
        Response::Metrics(s) => *s,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(snap3.counter("service.requests.summary"), Some(3));
    assert_eq!(
        snap3.histogram("pipeline.phase.distance").unwrap().count,
        2,
        "a session-cached summary must not double-count a pipeline run"
    );

    // the fast-path ratio is readable off the registry: a dense and a
    // sparse single-window drag (200 and 10 exact answers for 100
    // display slots) are served by the sorted projection, a drag of one
    // of two windows falls back to the pipeline
    let drag = |value| {
        ask(Request::DragSlider {
            window: 0,
            op: CompareOp::Ge,
            value,
            trace: false,
        })
    };
    drag(200.0);
    drag(390.0);
    ask(Request::SetQueryText(
        "SELECT * FROM T WHERE x >= 300 AND x < 350".into(),
    ));
    drag(310.0);
    let snap4 = service.metrics_snapshot();
    assert_eq!(snap4.counter("service.drag.fast"), Some(2));
    assert_eq!(snap4.counter("service.drag.declined"), Some(1));
    assert_eq!(snap4.counter("service.requests.drag_slider"), Some(3));
}

/// The share of §5.2 fits and rankings the distance walk's counts
/// answered is readable off the live server: a query with at least `k`
/// exact answers (§5.1's "very many") runs no selection at all, one with
/// fewer runs one per decision.
#[test]
fn fits_and_ranks_answered_from_counts_are_counted_on_the_registry() {
    let service = Service::new(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    service.register_dataset("ramp", ramp_db(400), ConnectionRegistry::new());
    let user = service.create_session("ramp").unwrap();
    let run = |text: &str| {
        let set = Request::SetQueryText(text.into());
        assert_eq!(service.submit(user, set).unwrap(), Response::Ok);
        service
            .submit(user, Request::Summary { trace: false })
            .unwrap();
        let snap = service.metrics_snapshot();
        [
            "pipeline.fit.from_counts",
            "pipeline.fit.selected",
            "pipeline.rank.from_counts",
            "pipeline.rank.selected",
        ]
        .map(|name| snap.counter(name).unwrap())
    };
    // the default policy displays 100 of the 400 rows, and each unit
    // weight fits over as many: 100 exact answers per window and 100
    // for the conjunction cover both
    assert_eq!(
        run("SELECT * FROM T WHERE x >= 300 AND x BETWEEN 300 AND 500"),
        [2, 0, 1, 0]
    );
    // 99 exact answers in one window and the conjunction do not (the
    // other window is served fitted from the session cache)
    assert_eq!(
        run("SELECT * FROM T WHERE x >= 301 AND x BETWEEN 300 AND 500"),
        [2, 1, 1, 1]
    );
}

/// How a root was combined is readable off the live server: an
/// exact-heavy 3-window `AND` (every fit `dmax = 0`) reads its three
/// children from their packed exact bits and derives the root from its
/// pattern table; an exact-light one reads a fitted child as raw
/// distances and walks.
#[test]
fn bitmap_children_and_table_roots_are_counted_on_the_registry() {
    let service = Service::new(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    service.register_dataset("ramp", ramp_db(400), ConnectionRegistry::new());
    let run = |text: &str| {
        // a fresh session and server-side cache state per query: every
        // window is evaluated and fitted by the run that is counted
        let user = service.create_session("ramp").unwrap();
        let before = service.metrics_snapshot();
        let set = Request::SetQueryText(text.into());
        assert_eq!(service.submit(user, set).unwrap(), Response::Ok);
        service
            .submit(user, Request::Summary { trace: false })
            .unwrap();
        let after = service.metrics_snapshot();
        ["children_bits", "children_raw", "roots_from_table"].map(|name| {
            let name = format!("pipeline.combine.{name}");
            after.counter(&name).unwrap() - before.counter(&name).unwrap()
        })
    };
    // the default policy displays 100 of the 400 rows: 100+ exact
    // answers per window cover every fit
    assert_eq!(
        run("SELECT * FROM T WHERE x >= 250 AND x BETWEEN 200 AND 500 AND x >= 100"),
        [3, 0, 1]
    );
    // 50 exact answers in the first window do not: its fit selects
    let [bits, raw, table] =
        run("SELECT * FROM T WHERE x >= 350 AND x BETWEEN 200 AND 500 AND x >= 100");
    assert!(raw >= 1 && table == 0, "[{bits}, {raw}, {table}]");
    assert_eq!(bits + raw, 3);
}

/// Windows left as their exact bits alone are readable off the live
/// server: an exact-heavy 3-window `AND` keeps all three as bits (their
/// exact answers cover every fit, so no raw frame is written), an
/// exact-light one none, and an `OR` root none — it reads every window
/// as rows, so the `AND` query's cached bits-only windows miss.
#[test]
fn bits_only_windows_are_counted_on_the_registry() {
    let service = Service::new(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    service.register_dataset("ramp", ramp_db(400), ConnectionRegistry::new());
    let run = |text: &str| {
        let user = service.create_session("ramp").unwrap();
        let counter = || {
            let snap = service.metrics_snapshot();
            snap.counter("pipeline.windows.bits_only").unwrap()
        };
        let before = counter();
        let set = Request::SetQueryText(text.into());
        assert_eq!(service.submit(user, set).unwrap(), Response::Ok);
        service
            .submit(user, Request::Summary { trace: false })
            .unwrap();
        counter() - before
    };
    // the default policy displays 100 of the 400 rows: each fit asks for
    // 100, the three windows have 150, 200 and 300 exact answers
    let heavy = "x >= 250 AND x BETWEEN 200 AND 500 AND x >= 100";
    assert_eq!(run(&format!("SELECT * FROM T WHERE {heavy}")), 3);
    // a second session reuses them: nothing new is left as bits
    assert_eq!(run(&format!("SELECT * FROM T WHERE {heavy}")), 0);
    // 50, 21 and 1 exact answers
    assert_eq!(
        run("SELECT * FROM T WHERE x >= 350 AND x BETWEEN 330 AND 350 AND x >= 399"),
        0
    );
    // the same windows under an `OR` root miss the shared cache's bits
    let or = heavy.replace(" AND x", " OR x");
    assert_eq!(run(&format!("SELECT * FROM T WHERE {or}")), 0);
}

/// Compare-packed row ranges are readable off the live server and the
/// trace: a 3-window `>=` / `<=` Weather query over 65 536 rows (four
/// 16 384-row ranges per window) reaches each window's fit count in its
/// first ranges, so later ranges are folded straight from the column; an
/// exact-light `x >= 0.999 n` window never reaches its count, so every
/// range is filled and copied.
#[test]
fn compare_packed_chunks_are_counted_on_the_registry_and_the_trace() {
    let service = Service::new(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    let env = generate_environmental(&EnvConfig {
        hours: 16_384,
        stations: 4,
        ..Default::default()
    });
    service.register_dataset("weather", Arc::new(env.db), env.registry);
    let n = 80_000;
    service.register_dataset("ramp", ramp_db(n), ConnectionRegistry::new());
    let run = |dataset: &str, text: String| {
        let user = service.create_session(dataset).unwrap();
        let counter = || {
            let snap = service.metrics_snapshot();
            snap.counter("pipeline.chunks.compare_packed").unwrap()
        };
        let before = counter();
        let policy = Request::SetDisplayPolicy(DisplayPolicy::Percentage(1.0));
        assert_eq!(service.submit(user, policy).unwrap(), Response::Ok);
        let set = Request::SetQueryText(text);
        assert_eq!(service.submit(user, set).unwrap(), Response::Ok);
        let trace = match service.submit(user, Request::Summary { trace: true }) {
            Ok(Response::Summary(s)) => s.trace.expect("trace requested"),
            other => panic!("unexpected {other:?}"),
        };
        (counter() - before, trace)
    };
    let heavy = "SELECT * FROM Weather WHERE Temperature >= 8 AND Humidity <= 85 \
                 AND Precipitation <= 0.5";
    let (packed, trace) = run("weather", heavy.into());
    assert!(packed > 0, "no range compare-packed");
    assert_eq!(trace.chunks_compare_packed as u64, packed);
    assert_eq!((trace.windows_evaluated, trace.windows_bits_only), (3, 3));
    let light = format!("SELECT * FROM T WHERE x >= {}", n as f64 * 0.999);
    let (packed, trace) = run("ramp", light);
    assert_eq!(packed, 0);
    assert_eq!(
        (trace.chunks_compare_packed, trace.windows_bits_only),
        (0, 0)
    );
}

/// How each session render came by its panel is readable off the live
/// server: a re-weight of an exact-heavy 3-window `AND` places the same
/// exact rows with the same patterns, so its render hands back the held
/// panel — the same bytes; a fitted window paints by row; a render the
/// shared frame cache serves paints nothing.
#[test]
fn held_and_painted_panels_are_counted_on_the_registry() {
    let service = Service::new(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    service.register_dataset("ramp", ramp_db(400), ConnectionRegistry::new());
    let user = service.create_session("ramp").unwrap();
    let ask = |req| service.submit(user, req).unwrap();
    let counts = || {
        let snap = service.metrics_snapshot();
        ["held", "by_pattern", "by_row"].map(|paint| {
            let name = format!("render.panel.{paint}");
            snap.counter(&name).unwrap()
        })
    };
    let render = || ask(Request::Render(RenderFormat::Ascii));
    // the default policy displays 100 of the 400 rows; each window has
    // 150, 200 or 300 exact answers
    let heavy = "SELECT * FROM T WHERE x >= 250 AND x BETWEEN 200 AND 500 AND x >= 100";
    ask(Request::SetQueryText(heavy.into()));
    let painted = render();
    assert_eq!(counts(), [0, 1, 0]);
    for weight in [0.5, 0.8] {
        ask(Request::SetWeight { window: 1, weight });
        assert_eq!(render(), painted);
    }
    assert_eq!(counts(), [2, 1, 0]);
    // a second session's identical query is a frame-cache hit
    let other = service.create_session("ramp").unwrap();
    service
        .submit(other, Request::SetQueryText(heavy.into()))
        .unwrap();
    let hit = service
        .submit(other, Request::Render(RenderFormat::Ascii))
        .unwrap();
    assert_eq!((hit, counts()), (painted, [2, 1, 0]));
    // 50 exact answers in the first window: its fit selects
    ask(Request::SetQueryText(heavy.replace(">= 250", ">= 350")));
    render();
    assert_eq!(counts(), [2, 1, 1]);
}

#[test]
fn traces_are_opt_in_and_name_the_bench_phases() {
    let db = ramp_db(600);
    let service = Service::new(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    service.register_dataset("ramp", Arc::clone(&db), ConnectionRegistry::new());
    let user = service.create_session("ramp").unwrap();
    let ask = |req| service.submit(user, req).unwrap();

    ask(Request::SetQueryText(
        "SELECT * FROM T WHERE x >= 500".into(),
    ));
    // absent by default
    let plain = match ask(Request::Summary { trace: false }) {
        Response::Summary(s) => s,
        other => panic!("unexpected {other:?}"),
    };
    assert!(
        plain.trace.is_none(),
        "untraced summary must carry no trace"
    );

    // present on request, shaped like the bench `phase_ms` breakdown
    let traced = match ask(Request::Summary { trace: true }) {
        Response::Summary(s) => s,
        other => panic!("unexpected {other:?}"),
    };
    let trace = traced.trace.expect("trace requested");
    assert_eq!(trace.rows_scanned, 600);
    // the four phases are the bench's phase_ms fields; a real run
    // spends time in at least one of them
    let total = trace.distance_ns + trace.fit_ns + trace.normalize_combine_ns + trace.rank_ns;
    assert!(total > 0, "all four phase timers are zero");
    assert_eq!(
        (
            traced.objects,
            traced.displayed,
            traced.exact,
            traced.windows
        ),
        (plain.objects, plain.displayed, plain.exact, plain.windows),
        "the trace flag must not change the counters"
    );

    // a traced incremental drag re-reports the previous pipeline run
    // only on the full-recompute fallback, never on the fast path
    let drag = match ask(Request::DragSlider {
        window: 0,
        op: CompareOp::Ge,
        value: 520.0,
        trace: true,
    }) {
        Response::Drag {
            incremental, trace, ..
        } => (incremental, trace),
        other => panic!("unexpected {other:?}"),
    };
    if drag.0 {
        assert!(drag.1.is_none(), "fast-path drag must not attach a trace");
    } else {
        assert!(drag.1.is_some(), "full-recompute drag must attach a trace");
    }
}

#[test]
fn a_reweight_is_a_refit_explainable_from_its_trace() {
    // Re-weighting a window recomputes its §5.2 fit and normalization,
    // not its distances: the trace of the fetch that pays for it says so
    // (one refit, nothing evaluated), the registry counts it, a second
    // session asking the query under another weight refits the *shared*
    // entry, and every reply is byte-identical to a service without
    // window sharing.
    let db = ramp_db(600);
    let text = "SELECT * FROM T WHERE x >= 400 AND x < 500";
    let config = |window_cache_capacity| ServiceConfig {
        workers: 2,
        cache_capacity: 0, // isolate the window caches from frame hits
        window_cache_capacity,
        ..Default::default()
    };
    let drive = |service: &Service, script: Vec<Request>| -> (Vec<Response>, TraceReport) {
        let id = service.create_session("ramp").unwrap();
        let mut replies: Vec<Response> = script
            .into_iter()
            .map(|req| service.submit(id, req).unwrap())
            .collect();
        match service
            .submit(id, Request::Summary { trace: true })
            .unwrap()
        {
            Response::Summary(mut s) => {
                let trace = s.trace.take().expect("trace requested");
                replies.push(Response::Summary(s));
                (replies, *trace)
            }
            other => panic!("unexpected {other:?}"),
        }
    };
    let render = || Request::Render(RenderFormat::Ppm);
    // a settled query, then its second window re-weighted
    let reweight = || {
        let set = Request::SetWeight {
            window: 1,
            weight: 0.3,
        };
        vec![Request::SetQueryText(text.into()), render(), set, render()]
    };
    // the same query asked under yet another weight from the start
    let other_weight = || vec![Request::SetQueryText(format!("{text} WEIGHT 7")), render()];

    let service = Service::new(config(64));
    service.register_dataset("ramp", Arc::clone(&db), ConnectionRegistry::new());
    let cold = Service::new(config(0));
    cold.register_dataset("ramp", Arc::clone(&db), ConnectionRegistry::new());

    // the session's own cache serves its re-weight
    let (replies, trace) = drive(&service, reweight());
    assert_eq!((trace.window_cache_hits, trace.shared_window_hits), (2, 0));
    assert_eq!((trace.windows_refit, trace.windows_evaluated), (1, 0));
    assert_eq!(replies, drive(&cold, reweight()).0);
    // another session, another weight: both windows are shared-cache
    // hits, the one stored under weight 1 is refitted, none is evaluated
    let (replies, trace) = drive(&service, other_weight());
    assert_eq!((trace.window_cache_hits, trace.shared_window_hits), (0, 2));
    assert_eq!((trace.windows_refit, trace.windows_evaluated), (1, 0));
    let (cold_replies, cold_trace) = drive(&cold, other_weight());
    assert_eq!(replies, cold_replies);
    assert_eq!(cold_trace.windows_evaluated, 2, "no sharing, a new session");
    // a found entry is a hit whatever its weight, and the latest weight
    // wins the one entry: a third session under weight 7 finds it ready
    let (_, trace) = drive(&service, other_weight());
    assert_eq!((trace.shared_window_hits, trace.windows_refit), (2, 0));
    let shared = service.telemetry().window_cache;
    assert_eq!((shared.hits, shared.misses), (4, 2));
    let refits = |s: &Service| s.metrics_snapshot().counter("pipeline.windows_refit");
    assert_eq!((refits(&service), refits(&cold)), (Some(2), Some(1)));
}

#[test]
fn metrics_op_round_trips_over_the_wire() {
    let db = ramp_db(300);
    let service = Service::new(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    service.register_dataset("ramp", Arc::clone(&db), ConnectionRegistry::new());
    let handle = |line: &str| visdb::service::server::handle_line(&service, line);

    let r = handle(r#"{"op":"create_session","dataset":"ramp"}"#);
    let session = r.get("session").unwrap().as_u64().unwrap();
    let line = format!(
        r#"{{"session":{session},"op":"set_query","text":"SELECT * FROM T WHERE x >= 200"}}"#
    );
    handle(&line);

    // summary without the flag: no trace key on the wire
    let line = format!(r#"{{"session":{session},"op":"summary"}}"#);
    let r = handle(&line);
    assert!(r.get("summary").unwrap().get("trace").is_none());

    // summary with the flag: the trace object names the bench phases
    let line = format!(r#"{{"session":{session},"op":"summary","trace":true}}"#);
    let r = handle(&line);
    let trace = r.get("summary").unwrap().get("trace").expect("trace");
    for key in [
        "distance_ns",
        "fit_ns",
        "normalize_combine_ns",
        "rank_ns",
        "rows_scanned",
        "windows_bits_only",
        "chunks_compare_packed",
    ] {
        assert!(trace.get(key).is_some(), "trace missing {key}");
    }
    // one executor over one range list: no planner choice, pruning
    // count or partition fan-out to report
    for key in ["mode", "rows_pruned", "partitions"] {
        assert!(trace.get(key).is_none(), "trace still carries {key}");
    }

    // the service-level metrics op: snapshot JSON plus a Prometheus
    // text exposition, no session required
    let r = handle(r#"{"id":9,"op":"metrics"}"#);
    assert_eq!(r.get("id").unwrap().as_u64(), Some(9));
    let metrics = r.get("metrics").expect("metrics object");
    for key in [
        "exec.jobs_executed",
        "cache.query.misses",
        "service.requests.summary",
        "service.drag.fast",
        "service.drag.declined",
        "pipeline.phase.distance",
    ] {
        assert!(metrics.get(key).is_some(), "snapshot missing {key}");
    }
    assert_eq!(
        metrics.get("service.requests.summary").unwrap().as_u64(),
        Some(2)
    );
    let phase = metrics.get("pipeline.phase.rank").unwrap();
    assert!(phase.get("count").unwrap().as_u64().unwrap() >= 1);
    let text = r.get("prometheus").unwrap().as_str().unwrap();
    assert!(text.contains("# TYPE exec_jobs_executed counter"));
    assert!(text.contains("# TYPE pipeline_phase_rank summary"));
    assert!(text.contains("# TYPE service_drag_fast counter"));
}

/// The check `visdb_e2e`'s oracle cannot make (it replays the same code
/// on a bare session): over the wire, a drag the fast path serves
/// reports the counters of the full pipeline run the following `summary`
/// makes on the same bound — for a sparse drag (fewer exact answers
/// than display slots: the rest comes off the §5.2 clamp plateau) and
/// for an exact band far wider than anything the fast path gathers.
#[test]
fn wide_band_drags_agree_with_the_pipeline_over_the_wire() {
    const ROWS: usize = 60_000;
    // every value three times, in an order unrelated to the row order
    let mut t = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
    for i in 0..ROWS {
        t = t
            .row(vec![Value::Float(((i * 7919) % ROWS / 3) as f64)])
            .unwrap();
    }
    let mut db = Database::new("scatter");
    db.add_table(t.build());
    let service = Service::new(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    service.register_dataset("scatter", Arc::new(db), ConnectionRegistry::new());
    let handle = |line: String| visdb::service::server::handle_line(&service, &line);

    let r = handle(r#"{"op":"create_session","dataset":"scatter"}"#.into());
    let session = r.get("session").unwrap().as_u64().unwrap();
    let send = |body: &str| handle(format!(r#"{{"session":{session},{body}}}"#));
    send(r#""op":"set_policy","percentage":1"#);
    send(r#""op":"set_query","text":"SELECT * FROM T WHERE x >= 10000""#);

    // 600 display slots; x >= 19950 leaves 150 exact answers, x >= 5000
    // leaves 45 000 — 75 slots' worth, far more than a drag gathers
    for (value, exact) in [(19_950, 150), (5_000, 45_000), (19_990, 30)] {
        let r = send(&format!(
            r#""op":"drag_slider","window":0,"cmp":">=","value":{value}"#
        ));
        let drag = r.get("drag").expect("drag reply");
        assert_eq!(
            drag.get("incremental").unwrap().as_bool(),
            Some(true),
            "x >= {value} must be served by the fast path"
        );
        assert_eq!(drag.get("exact").unwrap().as_u64(), Some(exact));
        assert_eq!(drag.get("displayed").unwrap().as_u64(), Some(600));
        let r = send(r#""op":"summary""#);
        let summary = r.get("summary").expect("summary reply");
        for key in ["displayed", "exact"] {
            assert_eq!(
                drag.get(key).unwrap().as_u64(),
                summary.get(key).unwrap().as_u64(),
                "{key} after x >= {value}"
            );
        }
    }
}
