//! The newline-delimited JSON protocol spoken by the `visdb-server`
//! binary.
//!
//! One request object per line on stdin, one response object per line on
//! stdout. Service-level operations carry an `op` and no `session`:
//!
//! ```text
//! {"id":1,"op":"datasets"}
//! {"id":2,"op":"create_session","dataset":"env"}
//! {"id":3,"op":"close_session","session":1}
//! {"id":4,"op":"stats"}
//! {"id":5,"op":"load_csv","dataset":"ext","table":"T","csv":"x,y\n1,2.5\n"}
//! ```
//!
//! `load_csv` registers an external dataset from CSV text whose first
//! line names the columns; column types are inferred
//! ([`visdb_storage::csv::read_csv_infer`]). `table` defaults to the
//! dataset name. Re-loading an existing dataset name replaces it for
//! new sessions (generation-scoped caches prevent stale reuse).
//!
//! Everything else is a per-session request (see
//! [`Request::from_json`](crate::api::Request::from_json)) addressed with
//! a `session` field:
//!
//! ```text
//! {"id":5,"session":1,"op":"set_query","text":"SELECT * FROM T WHERE x >= 5"}
//! {"id":6,"session":1,"op":"move_slider","window":0,"cmp":">=","value":3}
//! {"id":7,"session":1,"op":"drag_slider","window":0,"cmp":">=","value":4}
//! {"id":8,"session":1,"op":"render","format":"ascii"}
//! ```
//!
//! `drag_slider` applies the same modification as `move_slider` but
//! replies with the interactive drag counters immediately
//! (`{"drag":{"displayed":..,"exact":..,"incremental":..}}`), served by
//! the shared sorted-projection fast path when the query shape allows.
//!
//! Per-session requests may also carry a `deadline_ms` budget; one that
//! expires — queued or mid-pipeline — answers with
//! `{"ok":false,"kind":"deadline_exceeded",...}`. The request `id`
//! doubles as a cancel handle:
//!
//! ```text
//! {"id":9,"session":1,"op":"render","format":"ppm","deadline_ms":250}
//! {"op":"cancel","session":1,"request":9}
//! ```
//!
//! Responses echo `id` (when given) and carry `"ok"`; errors are data,
//! never a dropped connection:
//! `{"id":7,"ok":false,"error":"...","kind":"invalid_request"}` (the
//! `kind` taxonomy is [`ErrorKind`](crate::api::ErrorKind); overloaded
//! responses add `retry_after_ms`). The dispatch logic lives here
//! (testable without a process); the binary is a thin stdin/stdout loop
//! around [`handle_line`].

use std::sync::Arc;
use std::time::Duration;

use crate::api::{ErrorKind, Request};
use crate::json::{parse, Json, MAX_LINE_BYTES};
use crate::manager::SessionId;
use crate::service::{Service, SubmitOptions};
use visdb_query::connection::ConnectionRegistry;
use visdb_storage::{csv::read_csv_infer, Database};
use visdb_types::{DataType, Result, Value};

/// Process one protocol line against a service; always yields a response
/// object (parse and execution errors become `"ok": false` replies — a
/// line over [`MAX_LINE_BYTES`] is one, answered before any parsing — and
/// a panic anywhere in dispatch is contained into an `"internal"` error
/// — nothing a client sends may kill the stdio loop).
pub fn handle_line(service: &Service, line: &str) -> Json {
    let parsed = match line.len() {
        0..=MAX_LINE_BYTES => parse(line),
        len => Err(visdb_types::Error::parse(format!(
            "line of {len} bytes exceeds the {MAX_LINE_BYTES}-byte limit"
        ))),
    };
    let (id, result) = match parsed {
        Ok(msg) => {
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dispatch(service, &msg)))
                    .unwrap_or_else(|_| {
                        Err(visdb_types::Error::Internal(
                            "request dispatch panicked".into(),
                        ))
                    });
            (msg.get("id").cloned(), result)
        }
        Err(e) => (None, Err(e)),
    };
    let mut response = match result {
        Ok(r) => r,
        Err(e) => Json::obj([
            ("ok", Json::Bool(false)),
            ("error", e.to_string().into()),
            ("kind", ErrorKind::of(&e).wire_name().into()),
        ]),
    };
    if let (Some(id), Json::Obj(map)) = (id, &mut response) {
        map.insert("id".into(), id);
    }
    response
}

fn dispatch(service: &Service, msg: &Json) -> Result<Json> {
    let op = msg.get("op").and_then(Json::as_str).unwrap_or_default();
    match op {
        "datasets" => Ok(Json::obj([
            ("ok", Json::Bool(true)),
            (
                "datasets",
                Json::Arr(
                    service
                        .dataset_names()
                        .into_iter()
                        .map(Json::from)
                        .collect(),
                ),
            ),
        ])),
        "create_session" => {
            let dataset = msg.get("dataset").and_then(Json::as_str).ok_or_else(|| {
                visdb_types::Error::invalid_parameter("dataset", "missing string field")
            })?;
            let id = service.create_session(dataset)?;
            Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("session", id.0.into()),
            ]))
        }
        "close_session" => {
            let id = session_id(msg)?;
            Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("closed", service.close_session(id).into()),
            ]))
        }
        "load_csv" => {
            let require = |field: &str| {
                msg.get(field).and_then(Json::as_str).ok_or_else(|| {
                    visdb_types::Error::invalid_parameter(field.to_string(), "missing string field")
                })
            };
            let dataset = require("dataset")?;
            let table_name = msg
                .get("table")
                .and_then(Json::as_str)
                .unwrap_or(dataset)
                .to_string();
            let csv = require("csv")?;
            let table = read_csv_infer(&table_name, csv.as_bytes())?;
            let rows = table.len();
            let columns = table.schema().len();
            let mut db = Database::new(dataset);
            db.add_table(table);
            service.register_dataset(dataset, Arc::new(db), ConnectionRegistry::new());
            Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("dataset", dataset.into()),
                ("table", table_name.as_str().into()),
                ("rows", rows.into()),
                ("columns", columns.into()),
            ]))
        }
        "append_rows" => {
            let dataset = msg.get("dataset").and_then(Json::as_str).ok_or_else(|| {
                visdb_types::Error::invalid_parameter("dataset", "missing string field")
            })?;
            let table = msg.get("table").and_then(Json::as_str);
            let rows = parse_rows(service, dataset, table, msg.get("rows"))?;
            let outcome = service.append_rows(dataset, table, rows)?;
            Ok(append_response(&outcome))
        }
        "append_csv" => {
            let require = |field: &str| {
                msg.get(field).and_then(Json::as_str).ok_or_else(|| {
                    visdb_types::Error::invalid_parameter(field.to_string(), "missing string field")
                })
            };
            let dataset = require("dataset")?;
            let table = msg.get("table").and_then(Json::as_str);
            let csv = require("csv")?;
            let outcome = service.append_csv(dataset, table, csv)?;
            Ok(append_response(&outcome))
        }
        "stats" => {
            let t = service.telemetry();
            Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("sessions", service.session_count().into()),
                ("workers", service.workers().into()),
                (
                    "cache",
                    Json::obj([
                        ("hits", t.query_cache.hits.into()),
                        ("misses", t.query_cache.misses.into()),
                    ]),
                ),
                (
                    "window_cache",
                    Json::obj([
                        ("hits", t.window_cache.hits.into()),
                        ("misses", t.window_cache.misses.into()),
                    ]),
                ),
                (
                    "datasets",
                    Json::Arr(
                        service
                            .dataset_info()
                            .into_iter()
                            .map(|d| {
                                Json::obj([
                                    ("name", d.name.as_str().into()),
                                    ("rows", d.total_rows.into()),
                                    ("base_gen", d.base_gen.into()),
                                    ("chain_len", d.chain_len.into()),
                                    ("delta_rows", d.delta_rows.into()),
                                    ("compactions", d.compactions.into()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]))
        }
        // the full registry snapshot (JSON + Prometheus-style text
        // exposition); service-level like `stats`, no session needed
        "metrics" => {
            Ok(crate::api::Response::Metrics(Box::new(service.metrics_snapshot())).to_json())
        }
        // abandon a queued or executing request: `request` is the `id`
        // the target was submitted with. Service-level — it must never
        // queue behind the very request it is trying to stop.
        "cancel" => {
            let id = session_id(msg)?;
            let request_id = msg.get("request").and_then(Json::as_u64).ok_or_else(|| {
                visdb_types::Error::invalid_parameter("request", "missing integer field")
            })?;
            Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("cancelled", service.cancel(id, request_id).into()),
            ]))
        }
        _ => {
            // a per-session request: route through the worker pool
            let id = session_id(msg)?;
            let request = Request::from_json(msg)?;
            let opts = submit_options(msg)?;
            let response = service.submit_opts(id, request, opts)?;
            Ok(response.to_json())
        }
    }
}

/// Per-request dispatch options from the wire: an optional `deadline_ms`
/// budget, plus the request `id` doubling as the handle a later `cancel`
/// op can aim at. A present-but-malformed `deadline_ms` is a structured
/// error, not a silently unbounded request.
fn submit_options(msg: &Json) -> Result<SubmitOptions> {
    let deadline = match msg.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(Duration::from_millis(v.as_u64().ok_or_else(|| {
            visdb_types::Error::invalid_parameter(
                "deadline_ms",
                "must be a non-negative integer (milliseconds)",
            )
        })?)),
    };
    Ok(SubmitOptions {
        deadline,
        request_id: msg.get("id").and_then(Json::as_u64),
    })
}

fn session_id(msg: &Json) -> Result<SessionId> {
    msg.get("session")
        .and_then(Json::as_u64)
        .map(SessionId)
        .ok_or_else(|| visdb_types::Error::invalid_parameter("session", "missing integer field"))
}

/// Parse the `rows` field of an `append_rows` op — an array of arrays,
/// one JSON value per schema column — into typed rows against the target
/// table's existing schema.
fn parse_rows(
    service: &Service,
    dataset: &str,
    table: Option<&str>,
    rows: Option<&Json>,
) -> Result<Vec<visdb_storage::Row>> {
    let Some(Json::Arr(rows)) = rows else {
        return Err(visdb_types::Error::invalid_parameter(
            "rows",
            "missing array-of-arrays field",
        ));
    };
    let (_, schema) = service.table_schema(dataset, table)?;
    let types: Vec<DataType> = schema.columns().iter().map(|c| c.data_type).collect();
    rows.iter()
        .map(|row| {
            let Json::Arr(cells) = row else {
                return Err(visdb_types::Error::invalid_parameter(
                    "rows",
                    "each row must be an array",
                ));
            };
            if cells.len() != types.len() {
                return Err(visdb_types::Error::invalid_parameter(
                    "rows",
                    format!("expected {} cells, found {}", types.len(), cells.len()),
                ));
            }
            cells
                .iter()
                .zip(&types)
                .map(|(cell, dt)| json_cell(cell, *dt))
                .collect()
        })
        .collect()
}

/// One JSON cell as a typed [`Value`]: `null` is NULL, numbers land in
/// integer columns only when integral, and strings are parsed like CSV
/// cells (so `"48.1;11.6"` is a Location).
fn json_cell(v: &Json, dt: DataType) -> Result<Value> {
    Ok(match (v, dt) {
        (Json::Null, _) => Value::Null,
        (Json::Bool(b), DataType::Bool) => Value::Bool(*b),
        (Json::Num(n), DataType::Float | DataType::Unknown) => Value::Float(*n),
        (Json::Num(n), DataType::Int) if n.fract() == 0.0 => Value::Int(*n as i64),
        (Json::Num(n), DataType::Timestamp) if n.fract() == 0.0 => Value::Timestamp(*n as i64),
        (Json::Str(s), _) => visdb_storage::csv::parse_cell(s, dt)?,
        (other, dt) => {
            return Err(visdb_types::Error::invalid_parameter(
                "rows",
                format!("cannot use {other} as {dt}"),
            ))
        }
    })
}

/// The shared response shape of the two append ops.
fn append_response(o: &crate::service::AppendOutcome) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("dataset", o.dataset.as_str().into()),
        ("table", o.table.as_str().into()),
        ("rows_appended", o.rows_appended.into()),
        ("total_rows", o.total_rows.into()),
        ("base_gen", o.base_gen.into()),
        ("chain_len", o.chain_len.into()),
        ("compacted", Json::Bool(o.compacted)),
        ("windows_extended", o.windows_extended.into()),
        ("windows_declined", o.windows_declined.into()),
        ("projections_merged", o.projections_merged.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use std::sync::Arc;
    use visdb_query::connection::ConnectionRegistry;
    use visdb_storage::{Database, TableBuilder};
    use visdb_types::{Column, DataType, Value};

    fn service() -> Service {
        let mut b = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
        for i in 0..50 {
            b = b.row(vec![Value::Float(i as f64)]).unwrap();
        }
        let mut db = Database::new("demo");
        db.add_table(b.build());
        let s = Service::new(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        s.register_dataset("demo", Arc::new(db), ConnectionRegistry::new());
        s
    }

    #[test]
    fn full_protocol_conversation() {
        let s = service();
        let r = handle_line(&s, r#"{"id":1,"op":"datasets"}"#);
        assert_eq!(r.to_string(), r#"{"datasets":["demo"],"id":1,"ok":true}"#);
        let r = handle_line(&s, r#"{"id":2,"op":"create_session","dataset":"demo"}"#);
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        let session = r.get("session").unwrap().as_u64().unwrap();

        let line = format!(
            r#"{{"id":3,"session":{session},"op":"set_query","text":"SELECT * FROM T WHERE x >= 40"}}"#
        );
        assert_eq!(handle_line(&s, &line).get("ok"), Some(&Json::Bool(true)));

        let line = format!(r#"{{"id":4,"session":{session},"op":"summary"}}"#);
        let r = handle_line(&s, &line);
        assert_eq!(
            r.get("summary").unwrap().get("exact").unwrap().as_u64(),
            Some(10)
        );

        let line = format!(r#"{{"id":5,"session":{session},"op":"render","format":"ascii"}}"#);
        let r = handle_line(&s, &line);
        let frame = r.get("frame").unwrap();
        assert_eq!(frame.get("format").unwrap().as_str(), Some("ascii"));
        assert!(!frame.get("data").unwrap().as_str().unwrap().is_empty());

        let line = format!(r#"{{"id":6,"op":"close_session","session":{session}}}"#);
        let r = handle_line(&s, &line);
        assert_eq!(r.get("closed"), Some(&Json::Bool(true)));
    }

    #[test]
    fn load_csv_registers_a_queryable_dataset() {
        let s = service();
        // header + inferred schema: t:Int, temp:Float, tag:Str
        let line = r#"{"id":1,"op":"load_csv","dataset":"ext","table":"W","csv":"t,temp,tag\n0,15.5,munich\n3600,9.0,berlin\n7200,,hamburg\n"}"#;
        let r = handle_line(&s, line);
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
        assert_eq!(r.get("rows").unwrap().as_u64(), Some(3));
        assert_eq!(r.get("columns").unwrap().as_u64(), Some(3));

        let r = handle_line(&s, r#"{"op":"datasets"}"#);
        let names = r.get("datasets").unwrap().to_string();
        assert!(names.contains("ext"), "{names}");

        let r = handle_line(&s, r#"{"op":"create_session","dataset":"ext"}"#);
        let session = r.get("session").unwrap().as_u64().unwrap();
        let line = format!(
            r#"{{"session":{session},"op":"set_query","text":"SELECT * FROM W WHERE temp >= 10"}}"#
        );
        assert_eq!(handle_line(&s, &line).get("ok"), Some(&Json::Bool(true)));
        let line = format!(r#"{{"session":{session},"op":"summary"}}"#);
        let r = handle_line(&s, &line);
        let summary = r.get("summary").unwrap();
        assert_eq!(summary.get("objects").unwrap().as_u64(), Some(3));
        assert_eq!(summary.get("exact").unwrap().as_u64(), Some(1));

        // malformed CSV is an error response, not a crash
        let r = handle_line(&s, r#"{"op":"load_csv","dataset":"bad","csv":""}"#);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        let r = handle_line(&s, r#"{"op":"load_csv","csv":"a\n1\n"}"#);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn append_ops_round_trip_and_stats_expose_the_chain() {
        let s = service();
        let r = handle_line(&s, r#"{"op":"create_session","dataset":"demo"}"#);
        let session = r.get("session").unwrap().as_u64().unwrap();
        let line = format!(
            r#"{{"session":{session},"op":"set_query","text":"SELECT * FROM T WHERE x >= 40"}}"#
        );
        handle_line(&s, &line);
        let line = format!(r#"{{"session":{session},"op":"summary"}}"#);
        let r = handle_line(&s, &line);
        assert_eq!(
            r.get("summary").unwrap().get("exact").unwrap().as_u64(),
            Some(10)
        );

        // headerless CSV delta against the registered schema
        let r = handle_line(
            &s,
            r#"{"id":7,"op":"append_csv","dataset":"demo","csv":"50\n51\n52\n"}"#,
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
        assert_eq!(r.get("rows_appended").unwrap().as_u64(), Some(3));
        assert_eq!(r.get("total_rows").unwrap().as_u64(), Some(53));
        assert_eq!(r.get("chain_len").unwrap().as_u64(), Some(1));
        assert_eq!(r.get("compacted"), Some(&Json::Bool(false)));

        // JSON rows typed against the schema (x: Float)
        let r = handle_line(
            &s,
            r#"{"op":"append_rows","dataset":"demo","table":"T","rows":[[53],[54.5]]}"#,
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
        assert_eq!(r.get("rows_appended").unwrap().as_u64(), Some(2));
        assert_eq!(r.get("chain_len").unwrap().as_u64(), Some(2));

        // the live session sees all 55 rows without re-registering
        let line = format!(r#"{{"session":{session},"op":"summary"}}"#);
        let r = handle_line(&s, &line);
        let summary = r.get("summary").unwrap();
        assert_eq!(summary.get("objects").unwrap().as_u64(), Some(55));
        assert_eq!(summary.get("exact").unwrap().as_u64(), Some(15));

        // stats report the delta chain per dataset
        let r = handle_line(&s, r#"{"op":"stats"}"#);
        let ds = match r.get("datasets").unwrap() {
            Json::Arr(a) => &a[0],
            other => panic!("expected array, got {other}"),
        };
        assert_eq!(ds.get("name").unwrap().as_str(), Some("demo"));
        assert_eq!(ds.get("rows").unwrap().as_u64(), Some(55));
        assert_eq!(ds.get("chain_len").unwrap().as_u64(), Some(2));
        assert_eq!(ds.get("delta_rows").unwrap().as_u64(), Some(5));

        // malformed appends are error responses, not crashes
        for line in [
            r#"{"op":"append_rows","dataset":"demo","rows":[[1,2]]}"#,
            r#"{"op":"append_rows","dataset":"demo","rows":"nope"}"#,
            r#"{"op":"append_rows","dataset":"nope","rows":[[1]]}"#,
            r#"{"op":"append_csv","dataset":"demo","csv":"not,a,row\n"}"#,
            r#"{"op":"append_csv","dataset":"demo"}"#,
        ] {
            let r = handle_line(&s, line);
            assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "line: {line}");
        }
        // failed appends left the chain untouched
        let r = handle_line(&s, r#"{"op":"stats"}"#);
        let ds = match r.get("datasets").unwrap() {
            Json::Arr(a) => &a[0],
            other => panic!("expected array, got {other}"),
        };
        assert_eq!(ds.get("rows").unwrap().as_u64(), Some(55));
        assert_eq!(ds.get("chain_len").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn stats_reflect_activity() {
        let s = service();
        let r = handle_line(&s, r#"{"op":"stats"}"#);
        assert_eq!(r.get("sessions").unwrap().as_u64(), Some(0));
        assert_eq!(r.get("workers").unwrap().as_u64(), Some(2));
        let create = || {
            let r = handle_line(&s, r#"{"op":"create_session","dataset":"demo"}"#);
            r.get("session").unwrap().as_u64().unwrap()
        };
        let first = create();
        let r = handle_line(&s, r#"{"op":"stats"}"#);
        assert_eq!(r.get("sessions").unwrap().as_u64(), Some(1));

        // the first session to drag column x builds its sorted
        // projection on the table; a second session dragging it shares it
        let db = s.database("demo").unwrap();
        let built = || db.table("T").unwrap().built_projection(0).cloned();
        assert!(built().is_none());
        let drag = |session: u64| {
            for line in [
                format!(
                    r#"{{"session":{session},"op":"set_query","text":"SELECT * FROM T WHERE x >= 10"}}"#
                ),
                format!(
                    r#"{{"session":{session},"op":"drag_slider","window":0,"cmp":">=","value":20}}"#
                ),
            ] {
                let r = handle_line(&s, &line);
                assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{line} -> {r}");
            }
        };
        drag(first);
        let projection = built().expect("the first drag builds it");
        // the table's slot and `projection` alone: the session keeps none
        assert_eq!(Arc::strong_count(&projection), 2);
        drag(create());
        assert!(Arc::ptr_eq(&built().unwrap(), &projection));
        assert_eq!(Arc::strong_count(&projection), 2, "one build, two sessions");
    }

    #[test]
    fn deadline_and_cancel_wire_ops() {
        let s = service();
        let r = handle_line(&s, r#"{"op":"create_session","dataset":"demo"}"#);
        let session = r.get("session").unwrap().as_u64().unwrap();
        // a malformed deadline is a structured error, not an unbounded
        // request (and not a dead loop)
        let line = format!(r#"{{"id":1,"session":{session},"op":"summary","deadline_ms":"soon"}}"#);
        let r = handle_line(&s, &line);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r}");
        assert_eq!(r.get("kind").unwrap().as_str(), Some("invalid_request"));
        // a generous deadline executes normally
        let line = format!(
            r#"{{"id":2,"session":{session},"op":"set_query","text":"SELECT * FROM T WHERE x >= 40","deadline_ms":60000}}"#
        );
        assert_eq!(handle_line(&s, &line).get("ok"), Some(&Json::Bool(true)));
        // an already-expired deadline is answered without executing
        let line = format!(r#"{{"id":3,"session":{session},"op":"summary","deadline_ms":0}}"#);
        let r = handle_line(&s, &line);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r}");
        assert_eq!(r.get("kind").unwrap().as_str(), Some("deadline_exceeded"));
        // ...and leaves the session fully usable
        let line = format!(r#"{{"id":4,"session":{session},"op":"summary"}}"#);
        let r = handle_line(&s, &line);
        assert_eq!(
            r.get("summary").unwrap().get("exact").unwrap().as_u64(),
            Some(10)
        );
        // cancel with no matching in-flight request reports false
        let line = format!(r#"{{"op":"cancel","session":{session},"request":777}}"#);
        let r = handle_line(&s, &line);
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(r.get("cancelled"), Some(&Json::Bool(false)));
        // a cancel op missing its target is structured too
        let line = format!(r#"{{"op":"cancel","session":{session}}}"#);
        let r = handle_line(&s, &line);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(r.get("kind").unwrap().as_str(), Some("invalid_request"));
    }

    #[test]
    fn errors_are_responses_not_crashes() {
        let s = service();
        for (line, needle) in [
            ("not json at all", "parse"),
            (r#"{"op":"create_session"}"#, "dataset"),
            (
                r#"{"op":"create_session","dataset":"nope"}"#,
                "unknown dataset",
            ),
            (r#"{"op":"summary"}"#, "session"),
            (r#"{"op":"summary","session":99}"#, "unknown or evicted"),
            (r#"{"op":"frobnicate","session":1}"#, "session"),
        ] {
            let r = handle_line(&s, line);
            assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "line: {line}");
            let err = r.get("error").unwrap().as_str().unwrap();
            assert!(
                err.contains(needle),
                "error {err:?} should mention {needle:?}"
            );
        }
        // the id is echoed even on failures
        let r = handle_line(&s, r#"{"id":42,"op":"summary"}"#);
        assert_eq!(r.get("id").unwrap().as_u64(), Some(42));
    }
}
