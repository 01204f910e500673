//! The service's request/response vocabulary and the single execution
//! path shared by the worker pool, the stdio server and tests.
//!
//! Every variant of [`Request`] maps to one of the paper's §4.3
//! interactions: installing a query, dragging a predicate slider,
//! changing a weighting factor, switching the display policy, and
//! fetching the recalculated visualization. [`execute`] applies a request
//! to a session; because the same function runs under the concurrent
//! service and in a plain single-threaded harness, service responses are
//! byte-identical to serial [`Session`] results.

use std::sync::Arc;

use visdb_core::{render_session, RenderOptions, Session};
use visdb_obs::{MetricValue, Snapshot};
use visdb_query::ast::{CompareOp, PredicateTarget};
use visdb_query::printer::render_query;
use visdb_relevance::pipeline::{DisplayPolicy, PipelineTrace};
use visdb_render::write_ppm;
use visdb_types::{Error, Result, Value};

use crate::cache::QueryCache;
use crate::json::{base64_encode, Json};

/// Output encoding for a rendered frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RenderFormat {
    /// Terminal preview (`visdb-render::ascii`).
    Ascii,
    /// Binary P6 PPM bytes.
    Ppm,
}

/// One per-session operation (§4.3 interactions, serialized per session).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check; also bumps the session's idle clock.
    Ping,
    /// Parse and install a query from the mini SQL dialect.
    SetQueryText(String),
    /// Switch the display policy (the "% of data displayed" slider).
    SetDisplayPolicy(DisplayPolicy),
    /// Set the weighting factor of a top-level query window.
    SetWeight {
        /// Top-level window index.
        window: usize,
        /// New weighting factor (≥ 0, finite).
        weight: f64,
    },
    /// Drag a predicate slider: replace the comparison of a top-level
    /// predicate window.
    MoveSlider {
        /// Top-level window index.
        window: usize,
        /// New comparison operator.
        op: CompareOp,
        /// New comparison value.
        value: f64,
    },
    /// Drag a predicate slider through the *interactive* path
    /// ([`Session::drag_slider`]): the modification is applied like
    /// [`Request::MoveSlider`], but the reply carries the drag's panel
    /// counters immediately — served by the sorted-projection fast path
    /// (O(log n + k), shared per (dataset generation, column) across
    /// sessions) whenever the query shape allows, by a bit-identical
    /// full recompute otherwise.
    DragSlider {
        /// Top-level window index.
        window: usize,
        /// New comparison operator.
        op: CompareOp,
        /// New comparison value.
        value: f64,
        /// Return a [`TraceReport`] with the reply when the drag fell
        /// back to a full pipeline recompute (the sorted-projection fast
        /// path runs no pipeline, so an incremental drag carries no
        /// trace).
        trace: bool,
    },
    /// Resize the visualization windows (items per window).
    SetWindowSize {
        /// Width in items.
        w: usize,
        /// Height in items.
        h: usize,
    },
    /// Fetch the modification-panel counters for the current query.
    Summary {
        /// Also return the [`TraceReport`] of the pipeline run that
        /// produced the counters (per-phase wall times, rows scanned,
        /// cache hits).
        trace: bool,
    },
    /// Fetch the rendered visualization panel.
    Render(RenderFormat),
    /// Fetch the full telemetry-registry snapshot (service-level: the
    /// service answers it directly without touching any session's
    /// mailbox; [`execute`] against a bare session has no registry and
    /// reports an error).
    Metrics,
}

impl Request {
    /// The wire-protocol op name — also the metric label under
    /// `service.requests.{op}` / `service.latency_ns.{op}`.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::SetQueryText(_) => "set_query",
            Request::SetDisplayPolicy(_) => "set_policy",
            Request::SetWeight { .. } => "set_weight",
            Request::MoveSlider { .. } => "move_slider",
            Request::DragSlider { .. } => "drag_slider",
            Request::SetWindowSize { .. } => "set_window_size",
            Request::Summary { .. } => "summary",
            Request::Render(_) => "render",
            Request::Metrics => "metrics",
        }
    }
}

/// The per-query execution trace returned for `trace: true` requests —
/// the wire form of [`PipelineTrace`], with phase durations flattened to
/// integer nanoseconds. The phase names match the bench harness's
/// `phase_ms` fields (`distance`, `fit`, `normalize_combine`, `rank`),
/// so a server trace lines up with `BENCH_pipeline.json` directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// Distance-evaluation phase (§5 distance functions), nanoseconds.
    pub distance_ns: u64,
    /// Normalization-fit phase (§5.2 fit), nanoseconds.
    pub fit_ns: u64,
    /// Normalize + combine phase (§5.2), nanoseconds.
    pub normalize_combine_ns: u64,
    /// Rank / top-k selection phase, nanoseconds.
    pub rank_ns: u64,
    /// Rows of the base relation the run covered
    /// ([`PipelineTrace::rows_scanned`]).
    pub rows_scanned: u64,
    /// Predicate windows found in the per-session §6 cache.
    pub window_cache_hits: usize,
    /// Predicate windows found in the cross-session shared cache.
    pub shared_window_hits: usize,
    /// Of those hits, windows cached under another weight: refitted and
    /// re-normalized from their cached raw distances, not re-evaluated.
    pub windows_refit: usize,
    /// Predicate windows actually evaluated.
    pub windows_evaluated: usize,
    /// Predicate windows left as their packed exact bits alone
    /// ([`PipelineTrace::windows_bits_only`]).
    pub windows_bits_only: usize,
    /// Row ranges of the evaluated windows compare-packed straight from
    /// the column ([`PipelineTrace::chunks_compare_packed`]).
    pub chunks_compare_packed: usize,
}

impl From<&PipelineTrace> for TraceReport {
    fn from(t: &PipelineTrace) -> Self {
        TraceReport {
            distance_ns: t.distance.as_nanos() as u64,
            fit_ns: t.fit.as_nanos() as u64,
            normalize_combine_ns: t.normalize_combine.as_nanos() as u64,
            rank_ns: t.rank.as_nanos() as u64,
            rows_scanned: t.rows_scanned,
            window_cache_hits: t.cache_hits,
            shared_window_hits: t.shared_hits,
            windows_refit: t.windows_refit,
            windows_evaluated: t.windows_evaluated,
            windows_bits_only: t.windows_bits_only,
            chunks_compare_packed: t.chunks_compare_packed,
        }
    }
}

/// The modification-panel counters (fig 4/5 right-hand side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSummary {
    /// Number of data items considered.
    pub objects: usize,
    /// Number of items displayed.
    pub displayed: usize,
    /// Number of exact answers.
    pub exact: usize,
    /// Number of per-predicate windows.
    pub windows: usize,
    /// Execution trace of the pipeline run behind the counters; present
    /// only for `Request::Summary { trace: true }` (`None` by default —
    /// the common path allocates nothing).
    pub trace: Option<Box<TraceReport>>,
}

/// Failure taxonomy of [`Response::Error`] — the wire `"kind"` field.
/// Clients branch on the kind (retry a `Shed`, drop a `Cancelled`,
/// surface an `InvalidRequest`), not on message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request itself is malformed or invalid for the session's
    /// current state (bad fields, unknown ops, invalid queries, ...).
    InvalidRequest,
    /// The request was cancelled (a `cancel` op or an abandoned caller).
    Cancelled,
    /// The request's `deadline_ms` expired before it completed.
    DeadlineExceeded,
    /// Admission control refused the request because the service's
    /// pending-work depth passed its watermark; retry after the hint.
    Shed,
    /// The request panicked or hit an internal invariant; the session
    /// was recycled and stays usable.
    Internal,
}

impl ErrorKind {
    /// Classify an [`Error`] from the execution layers.
    pub fn of(e: &Error) -> ErrorKind {
        match e {
            Error::Cancelled => ErrorKind::Cancelled,
            Error::DeadlineExceeded => ErrorKind::DeadlineExceeded,
            Error::Internal(_) | Error::Io(_) => ErrorKind::Internal,
            _ => ErrorKind::InvalidRequest,
        }
    }

    /// The wire `"kind"` string.
    pub fn wire_name(&self) -> &'static str {
        match self {
            ErrorKind::InvalidRequest => "invalid_request",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Shed => "shed",
            ErrorKind::Internal => "internal",
        }
    }
}

/// The reply to one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request succeeded and produces no payload.
    Ok,
    /// Panel counters for [`Request::Summary`].
    Summary(SessionSummary),
    /// The interactive answer of a [`Request::DragSlider`].
    Drag {
        /// Number of items the display policy selects after the drag.
        displayed: usize,
        /// Exact answers of the modified query.
        exact: usize,
        /// Whether the sorted-projection fast path served the drag.
        incremental: bool,
        /// Trace of the full recompute, when the drag requested one and
        /// fell off the fast path (an incremental drag runs no pipeline).
        trace: Option<Box<TraceReport>>,
    },
    /// A rendered frame for [`Request::Render`].
    Frame {
        /// Encoding of `bytes`.
        format: RenderFormat,
        /// Frame width in pixels.
        width: usize,
        /// Frame height in pixels.
        height: usize,
        /// ASCII text or binary PPM, per `format`.
        bytes: Arc<Vec<u8>>,
    },
    /// The full telemetry-registry snapshot for [`Request::Metrics`].
    Metrics(Box<Snapshot>),
    /// The request failed; the session stays usable.
    Error {
        /// What class of failure this is (drives client retry logic).
        kind: ErrorKind,
        /// Human-readable description.
        message: String,
        /// For [`ErrorKind::Shed`]: how long the client should back off
        /// before retrying.
        retry_after_ms: Option<u64>,
    },
}

impl Response {
    /// The error response for an execution-layer [`Error`].
    pub fn from_error(e: &Error) -> Response {
        Response::Error {
            kind: ErrorKind::of(e),
            message: e.to_string(),
            retry_after_ms: None,
        }
    }

    /// An error response with an explicit kind (service-level failures
    /// that never pass through an [`Error`]: panics, shedding).
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
        Response::Error {
            kind,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// The admission-control refusal, with its retry-after hint.
    pub fn shed(message: impl Into<String>, retry_after_ms: u64) -> Response {
        Response::Error {
            kind: ErrorKind::Shed,
            message: message.into(),
            retry_after_ms: Some(retry_after_ms),
        }
    }
}

/// A session plus the dataset tag it was created over (the tag scopes
/// shared-cache keys; the service uses `name#generation` so sessions
/// over a replaced dataset of the same name never share entries).
pub struct SessionState {
    /// The underlying interactive session.
    pub session: Session,
    /// Cache-scope tag of the dataset the session was created over.
    pub dataset: String,
}

/// Apply one request to a session, optionally consulting the shared
/// query-result cache for renders.
pub fn execute(
    state: &mut SessionState,
    request: &Request,
    cache: Option<&QueryCache>,
) -> Response {
    match apply(state, request, cache) {
        Ok(r) => r,
        Err(e) => Response::from_error(&e),
    }
}

fn apply(
    state: &mut SessionState,
    request: &Request,
    cache: Option<&QueryCache>,
) -> Result<Response> {
    let session = &mut state.session;
    match request {
        Request::Ping => Ok(Response::Ok),
        Request::SetQueryText(text) => {
            session.set_query_text(text)?;
            Ok(Response::Ok)
        }
        Request::SetDisplayPolicy(policy) => {
            session.set_display_policy(policy.clone())?;
            Ok(Response::Ok)
        }
        Request::SetWeight { window, weight } => {
            session.set_weight(*window, *weight)?;
            Ok(Response::Ok)
        }
        Request::MoveSlider { window, op, value } => {
            session.set_predicate_target(
                *window,
                PredicateTarget::Compare {
                    op: *op,
                    value: Value::Float(*value),
                },
            )?;
            Ok(Response::Ok)
        }
        Request::DragSlider {
            window,
            op,
            value,
            trace,
        } => {
            if *trace {
                session.set_collect_trace(true);
            }
            let drag = session.drag_slider(
                *window,
                PredicateTarget::Compare {
                    op: *op,
                    value: Value::Float(*value),
                },
            )?;
            let incremental = drag.incremental;
            let displayed = drag.displayed.len();
            let exact = drag.num_exact;
            // the fast path answers from the sorted projection without
            // running the pipeline, so only the full-recompute fallback
            // has a trace of *this* drag to report
            let trace = (*trace && !incremental)
                .then(|| session.last_trace().map(|t| Box::new(t.into())))
                .flatten();
            Ok(Response::Drag {
                displayed,
                exact,
                incremental,
                trace,
            })
        }
        Request::SetWindowSize { w, h } => {
            session.set_window_size(*w, *h)?;
            Ok(Response::Ok)
        }
        Request::Summary { trace } => {
            if *trace {
                // ensures the (re)computation below runs traced even on
                // sessions that were not created with trace collection
                session.set_collect_trace(true);
            }
            let res = session.result()?;
            let (objects, displayed, exact, windows) = (
                res.pipeline.n,
                res.pipeline.displayed.len(),
                res.pipeline.num_exact,
                res.pipeline.windows.len(),
            );
            let trace = trace
                .then(|| session.last_trace().map(|t| Box::new(t.into())))
                .flatten();
            Ok(Response::Summary(SessionSummary {
                objects,
                displayed,
                exact,
                windows,
                trace,
            }))
        }
        Request::Render(format) => {
            // a disabled cache can neither hit nor store: skip the key
            // construction (query printing) entirely
            let cache = cache.filter(|c| c.is_enabled());
            let key = cache.map(|_| render_key(state, *format));
            if let (Some(cache), Some(key)) = (cache, &key) {
                if let Some(hit) = cache.get(key) {
                    // identical query from another (or the same) session:
                    // the frame is served without re-running the pipeline
                    return Ok(hit);
                }
            }
            let response = render(&mut state.session, *format)?;
            if let (Some(cache), Some(key)) = (cache, key) {
                cache.put(key, response.clone());
            }
            Ok(response)
        }
        Request::Metrics => Err(Error::invalid_parameter(
            "op",
            "the metrics op is service-level; submit it through a Service",
        )),
    }
}

/// A session's panel in `format`; the ASCII preview of a held panel is
/// the one encoded when it was painted.
fn render(session: &mut Session, format: RenderFormat) -> Result<Response> {
    let picture = render_session(session, &RenderOptions::default())?;
    let bytes = match format {
        RenderFormat::Ascii => picture.ascii(),
        RenderFormat::Ppm => {
            let mut out = Vec::new();
            write_ppm(&picture, &mut out)?;
            Arc::new(out)
        }
    };
    Ok(Response::Frame {
        format,
        width: picture.width(),
        height: picture.height(),
        bytes,
    })
}

/// The shared-cache key for a render: every session-level input that can
/// change the produced bytes. The query is normalized through the §4.1
/// query-representation printer, so two sessions installing structurally
/// identical queries (even via different builder paths) share an entry.
/// The two user-controlled strings — the dataset scope and the rendered
/// query — are length-prefixed, so neither a crafted dataset name nor a
/// crafted string literal inside the query can shift bytes into the
/// following fields (the remaining fields are service-controlled
/// numerics/enums). Sessions with a non-default distance resolver or
/// join options must not share a cache (the service never customizes
/// either).
pub fn render_key(state: &SessionState, format: RenderFormat) -> String {
    let session = &state.session;
    let query = match session.query() {
        Some(q) => render_query(q),
        None => "(no query)".to_string(),
    };
    let (w, h) = session.window_size();
    format!(
        "{}{}:{query}\u{1f}{:?}\u{1f}{}x{}\u{1f}{:?}\u{1f}{:?}\u{1f}{:?}\u{1f}{:?}",
        dataset_key_prefix(&state.dataset),
        query.len(),
        session.display_policy(),
        w,
        h,
        session.pixels_per_item(),
        session.colormap().kind(),
        // tuple selection renders as a highlight, so it is part of the
        // frame identity (reachable by embedders via the Session API)
        session.selected_item(),
        format,
    )
}

/// The cache-key scope header owned by one dataset: the same
/// length-prefixed framing as `visdb_relevance::window_key`, so
/// [`crate::cache::QueryCache::invalidate_dataset`] can parse the scope
/// back out (`visdb_relevance::key_scope`) instead of raw-prefix
/// matching a user-controlled name.
pub(crate) fn dataset_key_prefix(dataset: &str) -> String {
    format!("{}:{dataset}\u{1f}", dataset.len())
}

// ----- JSON wire mapping (the visdb-server protocol) ---------------------

impl RenderFormat {
    fn parse(s: &str) -> Result<Self> {
        match s {
            "ascii" => Ok(RenderFormat::Ascii),
            "ppm" => Ok(RenderFormat::Ppm),
            other => Err(Error::invalid_parameter(
                "format",
                format!("unknown render format '{other}' (ascii|ppm)"),
            )),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            RenderFormat::Ascii => "ascii",
            RenderFormat::Ppm => "ppm",
        }
    }
}

fn compare_op_parse(s: &str) -> Result<CompareOp> {
    Ok(match s {
        "=" | "==" => CompareOp::Eq,
        "!=" | "<>" => CompareOp::Ne,
        "<" => CompareOp::Lt,
        "<=" => CompareOp::Le,
        ">" => CompareOp::Gt,
        ">=" => CompareOp::Ge,
        other => {
            return Err(Error::invalid_parameter(
                "cmp",
                format!("unknown comparison operator '{other}'"),
            ))
        }
    })
}

fn require_str<'a>(msg: &'a Json, field: &str) -> Result<&'a str> {
    msg.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| Error::invalid_parameter(field.to_string(), "missing string field"))
}

fn require_f64(msg: &Json, field: &str) -> Result<f64> {
    msg.get(field)
        .and_then(Json::as_f64)
        .ok_or_else(|| Error::invalid_parameter(field.to_string(), "missing numeric field"))
}

fn require_usize(msg: &Json, field: &str) -> Result<usize> {
    msg.get(field)
        .and_then(Json::as_u64)
        .map(|n| n as usize)
        .ok_or_else(|| Error::invalid_parameter(field.to_string(), "missing integer field"))
}

/// The optional `"trace": true` flag carried by summary / drag requests.
fn optional_trace(msg: &Json) -> bool {
    msg.get("trace").and_then(Json::as_bool).unwrap_or(false)
}

impl Request {
    /// Decode the `op`-discriminated wire form used by `visdb-server`.
    pub fn from_json(msg: &Json) -> Result<Request> {
        let op = require_str(msg, "op")?;
        Ok(match op {
            "ping" => Request::Ping,
            "set_query" => Request::SetQueryText(require_str(msg, "text")?.to_string()),
            "set_policy" => {
                let policy = if let Some(p) = msg.get("percentage").and_then(Json::as_f64) {
                    DisplayPolicy::Percentage(p)
                } else if let Some(p) = msg.get("two_sided").and_then(Json::as_f64) {
                    DisplayPolicy::TwoSidedPercentage(p)
                } else if msg.get("pixels").is_some() {
                    DisplayPolicy::FitScreen {
                        pixels: require_usize(msg, "pixels")?,
                        pixels_per_item: require_usize(msg, "pixels_per_item")?,
                    }
                } else if msg.get("rmin").is_some() {
                    DisplayPolicy::GapHeuristic {
                        rmin: require_usize(msg, "rmin")?,
                        rmax: require_usize(msg, "rmax")?,
                        z: require_usize(msg, "z")?,
                    }
                } else {
                    return Err(Error::invalid_parameter(
                        "set_policy",
                        "expected percentage | two_sided | pixels+pixels_per_item | rmin+rmax+z",
                    ));
                };
                Request::SetDisplayPolicy(policy)
            }
            "set_weight" => Request::SetWeight {
                window: require_usize(msg, "window")?,
                weight: require_f64(msg, "weight")?,
            },
            "move_slider" => Request::MoveSlider {
                window: require_usize(msg, "window")?,
                op: compare_op_parse(require_str(msg, "cmp")?)?,
                value: require_f64(msg, "value")?,
            },
            "drag_slider" => Request::DragSlider {
                window: require_usize(msg, "window")?,
                op: compare_op_parse(require_str(msg, "cmp")?)?,
                value: require_f64(msg, "value")?,
                trace: optional_trace(msg),
            },
            "set_window_size" => Request::SetWindowSize {
                w: require_usize(msg, "w")?,
                h: require_usize(msg, "h")?,
            },
            "summary" => Request::Summary {
                trace: optional_trace(msg),
            },
            "render" => Request::Render(RenderFormat::parse(
                msg.get("format").and_then(Json::as_str).unwrap_or("ascii"),
            )?),
            "metrics" => Request::Metrics,
            other => {
                return Err(Error::invalid_parameter(
                    "op",
                    format!("unknown session op '{other}'"),
                ))
            }
        })
    }
}

impl TraceReport {
    /// The wire form of the trace (`"trace"` in summary / drag replies).
    /// Keys mirror the struct fields; durations stay integer ns.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("distance_ns", self.distance_ns.into()),
            ("fit_ns", self.fit_ns.into()),
            ("normalize_combine_ns", self.normalize_combine_ns.into()),
            ("rank_ns", self.rank_ns.into()),
            ("rows_scanned", self.rows_scanned.into()),
            ("window_cache_hits", self.window_cache_hits.into()),
            ("shared_window_hits", self.shared_window_hits.into()),
            ("windows_refit", self.windows_refit.into()),
            ("windows_evaluated", self.windows_evaluated.into()),
            ("windows_bits_only", self.windows_bits_only.into()),
            ("chunks_compare_packed", self.chunks_compare_packed.into()),
        ])
    }
}

/// The JSON form of a registry snapshot: one key per metric, counters
/// and gauges as numbers, histograms as `{count, sum, p50, p90, p99}`
/// objects. Sorted (BTreeMap) like every other protocol object.
fn snapshot_to_json(snapshot: &Snapshot) -> Json {
    Json::Obj(
        snapshot
            .entries
            .iter()
            .map(|(name, value)| {
                let v = match value {
                    MetricValue::Counter(c) => (*c).into(),
                    MetricValue::Gauge(g) => Json::Num(*g as f64),
                    MetricValue::Histogram(h) => Json::obj([
                        ("count", h.count.into()),
                        ("sum", h.sum.into()),
                        ("p50", h.p50.into()),
                        ("p90", h.p90.into()),
                        ("p99", h.p99.into()),
                    ]),
                };
                (name.clone(), v)
            })
            .collect(),
    )
}

impl Response {
    /// Encode the wire form used by `visdb-server`. ASCII frames travel
    /// as plain text, PPM frames as base64.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Ok => Json::obj([("ok", Json::Bool(true))]),
            Response::Summary(s) => {
                let mut summary = Json::obj([
                    ("objects", s.objects.into()),
                    ("displayed", s.displayed.into()),
                    ("exact", s.exact.into()),
                    ("windows", s.windows.into()),
                ]);
                if let (Some(t), Json::Obj(map)) = (&s.trace, &mut summary) {
                    map.insert("trace".into(), t.to_json());
                }
                Json::obj([("ok", Json::Bool(true)), ("summary", summary)])
            }
            Response::Drag {
                displayed,
                exact,
                incremental,
                trace,
            } => {
                let mut drag = Json::obj([
                    ("displayed", (*displayed).into()),
                    ("exact", (*exact).into()),
                    ("incremental", Json::Bool(*incremental)),
                ]);
                if let (Some(t), Json::Obj(map)) = (trace, &mut drag) {
                    map.insert("trace".into(), t.to_json());
                }
                Json::obj([("ok", Json::Bool(true)), ("drag", drag)])
            }
            Response::Frame {
                format,
                width,
                height,
                bytes,
            } => {
                let data = match format {
                    RenderFormat::Ascii => String::from_utf8_lossy(bytes).into_owned(),
                    RenderFormat::Ppm => base64_encode(bytes),
                };
                Json::obj([
                    ("ok", Json::Bool(true)),
                    (
                        "frame",
                        Json::obj([
                            ("format", format.name().into()),
                            ("width", (*width).into()),
                            ("height", (*height).into()),
                            ("data", data.into()),
                        ]),
                    ),
                ])
            }
            Response::Metrics(snapshot) => Json::obj([
                ("ok", Json::Bool(true)),
                ("metrics", snapshot_to_json(snapshot)),
                ("prometheus", snapshot.prometheus().into()),
            ]),
            Response::Error {
                kind,
                message,
                retry_after_ms,
            } => {
                let mut obj = Json::obj([
                    ("ok", Json::Bool(false)),
                    ("error", message.as_str().into()),
                    ("kind", kind.wire_name().into()),
                ]);
                if let (Some(ms), Json::Obj(map)) = (retry_after_ms, &mut obj) {
                    map.insert("retry_after_ms".into(), (*ms).into());
                }
                obj
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use visdb_query::connection::ConnectionRegistry;
    use visdb_storage::{Database, TableBuilder};
    use visdb_types::{Column, DataType};

    fn state(n: usize) -> SessionState {
        let mut b = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
        for i in 0..n {
            b = b.row(vec![Value::Float(i as f64)]).unwrap();
        }
        let mut db = Database::new("d");
        db.add_table(b.build());
        SessionState {
            session: Session::new(Arc::new(db), ConnectionRegistry::new()),
            dataset: "d".into(),
        }
    }

    #[test]
    fn full_interaction_round_trip() {
        let mut st = state(100);
        assert_eq!(execute(&mut st, &Request::Ping, None), Response::Ok);
        assert_eq!(
            execute(
                &mut st,
                &Request::SetQueryText("SELECT * FROM T WHERE x >= 90".into()),
                None
            ),
            Response::Ok
        );
        let summary = execute(&mut st, &Request::Summary { trace: false }, None);
        assert_eq!(
            summary,
            Response::Summary(SessionSummary {
                objects: 100,
                displayed: 25,
                exact: 10,
                windows: 1,
                trace: None,
            })
        );
        // drag the slider down to 50: more exact answers
        assert_eq!(
            execute(
                &mut st,
                &Request::MoveSlider {
                    window: 0,
                    op: CompareOp::Ge,
                    value: 50.0
                },
                None
            ),
            Response::Ok
        );
        match execute(&mut st, &Request::Summary { trace: false }, None) {
            Response::Summary(s) => assert_eq!(s.exact, 50),
            other => panic!("expected summary, got {other:?}"),
        }
    }

    #[test]
    fn render_formats_produce_frames() {
        let mut st = state(64);
        execute(
            &mut st,
            &Request::SetQueryText("SELECT * FROM T WHERE x >= 32".into()),
            None,
        );
        execute(&mut st, &Request::SetWindowSize { w: 8, h: 8 }, None);
        for format in [RenderFormat::Ascii, RenderFormat::Ppm] {
            match execute(&mut st, &Request::Render(format), None) {
                Response::Frame {
                    format: f,
                    width,
                    height,
                    bytes,
                } => {
                    assert_eq!(f, format);
                    assert!(width >= 8 && height >= 8);
                    assert!(!bytes.is_empty());
                    if format == RenderFormat::Ppm {
                        assert!(bytes.starts_with(b"P6\n"));
                    }
                }
                other => panic!("expected frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn errors_leave_the_session_usable() {
        let mut st = state(10);
        // no query installed yet
        assert!(matches!(
            execute(&mut st, &Request::Summary { trace: false }, None),
            Response::Error {
                kind: ErrorKind::InvalidRequest,
                ..
            }
        ));
        assert!(matches!(
            execute(&mut st, &Request::SetQueryText("SELECT".into()), None),
            Response::Error {
                kind: ErrorKind::InvalidRequest,
                ..
            }
        ));
        assert_eq!(
            execute(
                &mut st,
                &Request::SetQueryText("SELECT * FROM T WHERE x >= 5".into()),
                None
            ),
            Response::Ok
        );
        assert!(matches!(
            execute(&mut st, &Request::Summary { trace: false }, None),
            Response::Summary(_)
        ));
    }

    #[test]
    fn render_key_tracks_every_visual_input() {
        let mut st = state(10);
        execute(
            &mut st,
            &Request::SetQueryText("SELECT * FROM T WHERE x >= 5".into()),
            None,
        );
        let base = render_key(&st, RenderFormat::Ascii);
        assert!(base.contains("[x >= 5]"));
        // a tuple selection changes the rendered highlight, so the key
        let selected = {
            st.session.select_tuple(7).unwrap();
            render_key(&st, RenderFormat::Ascii)
        };
        assert_ne!(base, selected);
        st.session.clear_selection();
        assert_eq!(base, render_key(&st, RenderFormat::Ascii));
        // a different format, policy, size or weight gives a new key
        assert_ne!(base, render_key(&st, RenderFormat::Ppm));
        execute(&mut st, &Request::SetWindowSize { w: 16, h: 16 }, None);
        let resized = render_key(&st, RenderFormat::Ascii);
        assert_ne!(base, resized);
        execute(
            &mut st,
            &Request::SetDisplayPolicy(DisplayPolicy::Percentage(80.0)),
            None,
        );
        assert_ne!(resized, render_key(&st, RenderFormat::Ascii));
        execute(
            &mut st,
            &Request::SetWeight {
                window: 0,
                weight: 0.5,
            },
            None,
        );
        let reweighted = render_key(&st, RenderFormat::Ascii);
        assert!(reweighted.contains("(weight 0.5)"));
    }

    #[test]
    fn wire_requests_decode() {
        let msg = parse(r#"{"op":"move_slider","window":0,"cmp":">=","value":15.5}"#).unwrap();
        assert_eq!(
            Request::from_json(&msg).unwrap(),
            Request::MoveSlider {
                window: 0,
                op: CompareOp::Ge,
                value: 15.5
            }
        );
        let msg = parse(r#"{"op":"set_policy","percentage":40}"#).unwrap();
        assert_eq!(
            Request::from_json(&msg).unwrap(),
            Request::SetDisplayPolicy(DisplayPolicy::Percentage(40.0))
        );
        let msg = parse(r#"{"op":"render","format":"ppm"}"#).unwrap();
        assert_eq!(
            Request::from_json(&msg).unwrap(),
            Request::Render(RenderFormat::Ppm)
        );
        for bad in [
            r#"{"op":"nope"}"#,
            r#"{"op":"set_weight","window":0}"#,
            r#"{"op":"set_policy"}"#,
            r#"{"op":"move_slider","window":0,"cmp":"~","value":1}"#,
            r#"{"text":"no op"}"#,
        ] {
            assert!(Request::from_json(&parse(bad).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn wire_responses_encode() {
        let r = Response::error(ErrorKind::Internal, "boom")
            .to_json()
            .to_string();
        assert_eq!(r, r#"{"error":"boom","kind":"internal","ok":false}"#);
        let r = Response::shed("overloaded", 50).to_json().to_string();
        assert_eq!(
            r,
            r#"{"error":"overloaded","kind":"shed","ok":false,"retry_after_ms":50}"#
        );
        let frame = Response::Frame {
            format: RenderFormat::Ppm,
            width: 2,
            height: 1,
            bytes: Arc::new(b"P6 raw".to_vec()),
        };
        let encoded = frame.to_json();
        assert_eq!(
            encoded.get("frame").unwrap().get("data").unwrap().as_str(),
            Some(base64_encode(b"P6 raw").as_str())
        );
    }
}
