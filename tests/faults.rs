//! Fault-injection suite: inject panics, slow chunks and forced
//! cancellations at every pipeline phase in every execution mode, and
//! assert the failure contract end to end —
//!
//! * the response is a structured `Response::Error` with the right
//!   `kind`, never a dead worker, a hung session or a poisoned slot;
//! * re-asking the identical query afterwards is byte-identical to a
//!   service that was never disturbed (no partial cache entries, no
//!   half-written session state);
//! * deadline-exceeded queries return promptly (the walk polls its
//!   token once per 16k-row chunk, so the overrun is bounded by one
//!   chunk quantum);
//! * past the admission watermark new work is shed with a retry-after
//!   hint while admitted work runs to completion.
//!
//! Injection is process-global, guarded by the `FaultGuard` lock — the
//! tests in this file serialize on it by design.

use std::sync::Arc;
use std::time::{Duration, Instant};

use visdb::exec::{fault, FaultAction, Phase};
use visdb::prelude::*;
use visdb::service::PendingResponse;

/// Rows in the test relation: several 16k chunks, so every phase of
/// every mode takes multiple polls.
const N: usize = 40_000;

const PHASES: [Phase; 4] = [
    Phase::Distance,
    Phase::Fit,
    Phase::NormalizeCombine,
    Phase::Rank,
];

/// One execution mode of the service, as the matrix axis.
struct Mode {
    name: &'static str,
    workers: usize,
}

const MODES: [Mode; 2] = [
    // workers=1 drives the whole pipeline serially (budget-1 runs
    // inline) — the closest service-level analogue of the scalar walk;
    // the ExecMode::Scalar reference path itself is covered by
    // `scalar_reference_path_polls_its_token` below
    Mode {
        name: "serial",
        workers: 1,
    },
    Mode {
        name: "parallel",
        workers: 4,
    },
];

fn ramp_db(n: usize) -> Arc<Database> {
    let mut t = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
    for i in 0..n {
        t = t.row(vec![Value::Float(i as f64)]).unwrap();
    }
    let mut db = Database::new("ramp");
    db.add_table(t.build());
    Arc::new(db)
}

fn service_in(mode: &Mode, n: usize) -> (Service, SessionId) {
    let s = Service::new(ServiceConfig {
        workers: mode.workers,
        ..Default::default()
    });
    s.register_dataset("ramp", ramp_db(n), ConnectionRegistry::new());
    let id = s.create_session("ramp").unwrap();
    (s, id)
}

/// The interaction whose responses the byte-identity checks compare:
/// install a query, then fetch both the summary and the rendered frame.
fn ask(s: &Service, id: SessionId) -> Vec<Response> {
    [
        Request::SetQueryText("SELECT * FROM T WHERE x >= 30000".into()),
        Request::Summary { trace: false },
        Request::Render(RenderFormat::Ppm),
    ]
    .into_iter()
    .map(|req| s.submit(id, req).unwrap())
    .collect()
}

/// Submit with a cancel token attached (a `request_id` is enough to
/// mint one), so the chunk walks poll and armed faults can fire.
fn ask_with_token(s: &Service, id: SessionId, rid: u64) -> Response {
    s.submit_opts(
        id,
        Request::Summary { trace: false },
        SubmitOptions {
            deadline: None,
            request_id: Some(rid),
        },
    )
    .unwrap()
}

/// Panic and forced-cancel faults at every phase of every mode: the
/// response is structured, the worker pool survives, and the session
/// afterwards answers byte-identically to an undisturbed service.
#[test]
fn every_phase_of_every_mode_contains_panics_and_cancels() {
    for mode in &MODES {
        let (undisturbed, uid) = service_in(mode, N);
        let reference = ask(&undisturbed, uid);
        for phase in PHASES {
            for action in [FaultAction::Panic, FaultAction::Cancel] {
                let (s, id) = service_in(mode, N);
                assert_eq!(
                    s.submit(
                        id,
                        Request::SetQueryText("SELECT * FROM T WHERE x >= 30000".into())
                    )
                    .unwrap(),
                    Response::Ok
                );
                let before = fault::triggered();
                let response = {
                    let _guard = fault::inject(phase, action);
                    ask_with_token(&s, id, 7)
                };
                assert!(
                    fault::triggered() > before,
                    "[{} {phase:?} {action:?}] the injected fault never fired — \
                     this phase is not polling its token in this mode",
                    mode.name
                );
                match (&action, &response) {
                    (FaultAction::Panic, Response::Error { kind, .. }) => assert_eq!(
                        *kind,
                        ErrorKind::Internal,
                        "[{} {phase:?}] {response:?}",
                        mode.name
                    ),
                    (FaultAction::Cancel, Response::Error { kind, .. }) => assert_eq!(
                        *kind,
                        ErrorKind::Cancelled,
                        "[{} {phase:?}] {response:?}",
                        mode.name
                    ),
                    _ => panic!(
                        "[{} {phase:?} {action:?}] expected a structured error, got {response:?}",
                        mode.name
                    ),
                }
                // the worker survived and the session is not wedged
                assert_eq!(s.submit(id, Request::Ping).unwrap(), Response::Ok);
                // the identical interaction now answers byte-identically
                // to a never-disturbed service: nothing half-written
                // survived in the session, and no partial entry landed
                // in any cache
                assert_eq!(
                    ask(&s, id),
                    reference,
                    "[{} {phase:?} {action:?}] disturbed service diverged on re-ask",
                    mode.name
                );
            }
        }
        // the disturbances were counted, not swallowed
        let t = undisturbed.telemetry();
        assert_eq!(t.panics + t.cancelled, 0, "undisturbed service is clean");
    }
}

/// Slow chunks + a deadline in every mode: the injected delay makes the
/// distance walk crawl, the deadline trips mid-walk, and the query
/// comes back `DeadlineExceeded` — long before the slowed walk could
/// have finished, bounded by one chunk quantum past the deadline.
#[test]
fn slow_chunks_plus_deadline_exceed_in_every_mode() {
    for mode in &MODES {
        let (s, id) = service_in(mode, N);
        assert_eq!(
            s.submit(
                id,
                Request::SetQueryText("SELECT * FROM T WHERE x >= 30000".into())
            )
            .unwrap(),
            Response::Ok
        );
        let before = fault::triggered();
        let (response, elapsed) = {
            let _guard = fault::inject(Phase::Distance, FaultAction::Delay(TICK));
            let started = Instant::now();
            let r = s
                .submit_opts(
                    id,
                    Request::Summary { trace: false },
                    SubmitOptions {
                        deadline: Some(DEADLINE),
                        request_id: None,
                    },
                )
                .unwrap();
            (r, started.elapsed())
        };
        match &response {
            Response::Error { kind, .. } => assert_eq!(
                *kind,
                ErrorKind::DeadlineExceeded,
                "[{}] {response:?}",
                mode.name
            ),
            other => panic!("[{}] expected deadline error, got {other:?}", mode.name),
        }
        // every poll of the distance walk slept TICK; stopping at the
        // deadline means only a handful fired before the token tripped
        let fired = fault::triggered() - before;
        assert!(
            fired >= 1,
            "[{}] the slow-chunk fault must actually fire",
            mode.name
        );
        // bound: the deadline, plus one in-flight sleep per worker that
        // was mid-chunk when it tripped, plus scheduling slack — far
        // below what draining the whole slowed walk would take
        let quantum = TICK * (mode.workers as u32 + 1);
        assert!(
            elapsed < DEADLINE + quantum + Duration::from_millis(500),
            "[{}] deadline overrun: {elapsed:?} (deadline {DEADLINE:?})",
            mode.name
        );
        // the session recovers to exact, undisturbed answers
        match s.submit(id, Request::Summary { trace: false }).unwrap() {
            Response::Summary(sum) => assert_eq!(sum.exact, 10_000),
            other => panic!("[{}] expected summary, got {other:?}", mode.name),
        }
        assert!(s.telemetry().deadline_exceeded >= 1);
    }
}

/// Per-chunk delay of the slow-chunk tests.
const TICK: Duration = Duration::from_millis(60);
/// Deadline short enough that the first slowed chunks exhaust it.
const DEADLINE: Duration = Duration::from_millis(120);

/// The ExecMode::Scalar reference path (not reachable through the
/// service, which always plans vectorized) polls the same token: a
/// forced cancel mid-walk surfaces as `Error::Cancelled` and a re-run
/// is bit-identical to an undisturbed scalar run.
#[test]
fn scalar_reference_path_polls_its_token() {
    use visdb::exec::CancelToken;
    use visdb::relevance::ExecMode;

    let db = ramp_db(N);
    let table = db.table("T").unwrap();
    let resolver = DistanceResolver::new();
    let q = QueryBuilder::from_tables(["T"])
        .cmp("x", CompareOp::Ge, 30_000.0)
        .build();
    let policy = DisplayPolicy::Percentage(30.0);
    let scalar_opts = || PipelineOptions {
        mode: ExecMode::Scalar,
        ..Default::default()
    };
    let reference = run_pipeline(
        &db,
        table,
        &resolver,
        q.condition.as_ref(),
        &policy,
        scalar_opts(),
    )
    .unwrap();

    let token = CancelToken::new();
    let before = fault::triggered();
    let err = {
        let _guard = fault::inject(Phase::Distance, FaultAction::Cancel);
        run_pipeline(
            &db,
            table,
            &resolver,
            q.condition.as_ref(),
            &policy,
            PipelineOptions {
                mode: ExecMode::Scalar,
                cancel: Some(&token),
                ..Default::default()
            },
        )
    };
    assert!(fault::triggered() > before, "scalar walk must poll");
    assert!(
        matches!(err, Err(Error::Cancelled)),
        "expected Err(Cancelled), got {err:?}"
    );
    // and an undisturbed re-run still agrees with the reference
    let again = run_pipeline(
        &db,
        table,
        &resolver,
        q.condition.as_ref(),
        &policy,
        scalar_opts(),
    )
    .unwrap();
    assert_eq!(again.order, reference.order);
    assert_eq!(again.combined, reference.combined);
    assert_eq!(again.num_exact, reference.num_exact);
}

/// Saturation: with one worker and a watermark of 2, a burst of slow
/// queries gets partially shed — with a retry-after hint — while every
/// admitted request still runs to completion; once the burst drains,
/// new work is admitted again.
#[test]
fn saturation_sheds_new_work_while_admitted_work_completes() {
    let s = Service::new(ServiceConfig {
        workers: 1,
        pending_watermark: 2,
        ..Default::default()
    });
    s.register_dataset("ramp", ramp_db(N), ConnectionRegistry::new());
    let id = s.create_session("ramp").unwrap();
    assert_eq!(
        s.submit(
            id,
            Request::SetQueryText("SELECT * FROM T WHERE x >= 30000".into())
        )
        .unwrap(),
        Response::Ok
    );
    // slow every distance chunk so the flood outpaces the one worker
    let pending: Vec<_> = {
        let _guard = fault::inject(
            Phase::Distance,
            FaultAction::Delay(Duration::from_millis(20)),
        );
        let pending: Vec<PendingResponse> = (0..8)
            .map(|rid| {
                s.submit_async_opts(
                    id,
                    Request::Summary { trace: false },
                    SubmitOptions {
                        deadline: None,
                        request_id: Some(rid),
                    },
                )
                .unwrap()
            })
            .collect();
        // hold the guard until every response resolved, so the admitted
        // queries are genuinely slow while the later ones arrive
        let responses: Vec<Response> = pending
            .into_iter()
            .map(|p: PendingResponse| p.wait().unwrap())
            .collect();
        responses
    };
    let shed: Vec<_> = pending
        .iter()
        .filter(|r| {
            matches!(
                r,
                Response::Error {
                    kind: ErrorKind::Shed,
                    ..
                }
            )
        })
        .collect();
    let completed = pending
        .iter()
        .filter(|r| matches!(r, Response::Summary(_)))
        .count();
    assert!(
        !shed.is_empty(),
        "a burst past the watermark must shed: {pending:?}"
    );
    assert!(
        completed >= 1,
        "admitted queries must complete despite the overload: {pending:?}"
    );
    for r in &shed {
        let Response::Error { retry_after_ms, .. } = r else {
            unreachable!()
        };
        assert!(
            retry_after_ms.is_some(),
            "shed responses carry a retry-after hint"
        );
    }
    let t = s.telemetry();
    assert_eq!(t.shed as usize, shed.len());
    assert_eq!(t.pending_depth, 0, "the burst fully drained");
    // the overload is over: new work is admitted and exact again
    match s.submit(id, Request::Summary { trace: false }).unwrap() {
        Response::Summary(sum) => assert_eq!(sum.exact, 10_000),
        other => panic!("expected summary, got {other:?}"),
    }
}

/// The cancel op reaches both a queued and an executing request: the
/// executing one stops at its next chunk poll, the queued one is
/// answered without ever touching the session, and the session stays
/// fully usable.
#[test]
fn cancel_reaches_queued_and_executing_requests() {
    let s = Service::new(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    s.register_dataset("ramp", ramp_db(N), ConnectionRegistry::new());
    let id = s.create_session("ramp").unwrap();
    assert_eq!(
        s.submit(
            id,
            Request::SetQueryText("SELECT * FROM T WHERE x >= 30000".into())
        )
        .unwrap(),
        Response::Ok
    );
    let (first, second) = {
        // every distance chunk sleeps, so the first summary is still
        // mid-walk when the cancels land
        let _guard = fault::inject(
            Phase::Distance,
            FaultAction::Delay(Duration::from_millis(50)),
        );
        let first = s
            .submit_async_opts(
                id,
                Request::Summary { trace: false },
                SubmitOptions {
                    deadline: None,
                    request_id: Some(1),
                },
            )
            .unwrap();
        let second = s
            .submit_async_opts(
                id,
                Request::Render(RenderFormat::Ppm),
                SubmitOptions {
                    deadline: None,
                    request_id: Some(2),
                },
            )
            .unwrap();
        // let the worker sink into the first query's slowed walk
        std::thread::sleep(Duration::from_millis(60));
        assert!(s.cancel(id, 2), "queued request must be cancellable");
        assert!(s.cancel(id, 1), "executing request must be cancellable");
        (first.wait().unwrap(), second.wait().unwrap())
    };
    for (name, r) in [("executing", &first), ("queued", &second)] {
        assert!(
            matches!(
                r,
                Response::Error {
                    kind: ErrorKind::Cancelled,
                    ..
                }
            ),
            "{name} request should be cancelled, got {r:?}"
        );
    }
    // unknown ids (and already-finished requests) report false
    assert!(!s.cancel(id, 1), "finished request is no longer in flight");
    assert!(!s.cancel(id, 99));
    assert!(s.telemetry().cancelled >= 2);
    // the session is not wedged and answers exactly
    match s.submit(id, Request::Summary { trace: false }).unwrap() {
        Response::Summary(sum) => assert_eq!(sum.exact, 10_000),
        other => panic!("expected summary, got {other:?}"),
    }
}

/// A session mid-drain is exempt from the idle sweep — it is evicted
/// only after its mailbox drains (the service-level companion of the
/// manager's unit tests).
#[test]
fn idle_sweep_waits_for_in_flight_queries() {
    let s = Service::new(ServiceConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(1),
        ..Default::default()
    });
    s.register_dataset("ramp", ramp_db(N), ConnectionRegistry::new());
    let id = s.create_session("ramp").unwrap();
    assert_eq!(
        s.submit(
            id,
            Request::SetQueryText("SELECT * FROM T WHERE x >= 30000".into())
        )
        .unwrap(),
        Response::Ok
    );
    let response = {
        let _guard = fault::inject(
            Phase::Distance,
            FaultAction::Delay(Duration::from_millis(50)),
        );
        let pending = s
            .submit_async_opts(
                id,
                Request::Summary { trace: false },
                // the request id mints a token, so the chunk walk polls
                // and the injected per-chunk delay applies
                SubmitOptions {
                    deadline: None,
                    request_id: Some(1),
                },
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        // the query is mid-walk and long past the 1ms idle horizon,
        // but a busy session must not be reaped under it
        assert_eq!(s.evict_idle_sessions(), 0, "in-flight session evicted");
        pending.wait().unwrap()
    };
    match response {
        Response::Summary(sum) => assert_eq!(sum.exact, 10_000),
        other => panic!("expected summary, got {other:?}"),
    }
    // drained and idle: now the sweep may take it
    std::thread::sleep(Duration::from_millis(10));
    assert_eq!(s.evict_idle_sessions(), 1);
    assert!(s.submit(id, Request::Ping).is_err(), "session evicted");
}
