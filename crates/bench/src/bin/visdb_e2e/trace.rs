//! The traced pass: spans the harness records around its calls into
//! public functions. Nothing inside the program is instrumented — spans
//! *inside* the service are a later change (request-scoped tracing).
//!
//! Instead of `handle_line`, a session line runs the six stages
//! `handle_line` is made of, one span each:
//! `json::parse` → `Request::from_json` → `Service::submit_async_opts`
//! → `PendingResponse::wait` → `Response::to_json` → `Json::to_string`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use visdb_obs::Gauge;
use visdb_service::json::{parse, Json};
use visdb_service::server::handle_line;
use visdb_service::{Request, Service, SessionId, SubmitOptions};
use visdb_types::{Error, Result};

/// The six stages of a decomposed session line, in order.
pub const STAGES: [&str; 6] = [
    "json.parse",
    "api.decode",
    "service.submit",
    "service.wait",
    "api.encode",
    "json.write",
];

/// Span around one whole line (parent of its stages).
pub const LINE: &str = "line";
/// Span around `handle_line` for service-level ops (`append_rows`).
pub const HANDLE_LINE: &str = "server.handle_line";
/// Span around one whole interaction (parent of its lines).
pub const INTERACTION: &str = "interaction";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage or boundary name.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The interaction all spans of one request share.
    pub interaction: u64,
}

impl Span {
    /// Length of the interval.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One client's span recorder (kept in memory until the run ends).
pub struct Tracer {
    epoch: Instant,
    /// Everything recorded so far.
    pub spans: Vec<Span>,
    interaction: u64,
    /// `service.pending_depth`, read after every submit.
    pending: Arc<Gauge>,
    /// Highest pending depth seen.
    pub pending_depth_max: i64,
    /// Bytes of request lines / reply strings that went through.
    pub request_bytes: u64,
    /// See `request_bytes`.
    pub response_bytes: u64,
}

impl Tracer {
    /// A recorder for client `client`; all tracers of a run share `epoch`.
    pub fn new(service: &Service, epoch: Instant, client: u64) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            interaction: client << 32,
            pending: service.registry().gauge("service.pending_depth"),
            pending_depth_max: 0,
            request_bytes: 0,
            response_bytes: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            interaction: self.interaction,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    fn stage<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, Some(parent));
        let out = f();
        self.close(span);
        out
    }

    /// Open the span of the next interaction; `started` is when it began
    /// (its due time in an open loop).
    pub fn begin_interaction(&mut self, started: Instant) -> usize {
        self.interaction += 1;
        let span = self.open(INTERACTION, None);
        self.spans[span].start_ns = started.duration_since(self.epoch).as_nanos() as u64;
        span
    }

    /// Close an interaction's span.
    pub fn end_interaction(&mut self, span: usize) {
        self.close(span);
    }

    /// Run one protocol line stage by stage; for the lines the harness
    /// sends, the reply is byte-identical to
    /// `handle_line(service, line).to_string()`.
    pub fn line(&mut self, service: &Service, line: &str, interaction: usize) -> String {
        self.request_bytes += line.len() as u64;
        let whole = self.open(LINE, Some(interaction));
        let msg = self.stage(STAGES[0], whole, || parse(line));
        let id = msg.as_ref().ok().and_then(|m| m.get("id").cloned());
        let mut reply = match msg {
            Ok(msg) if msg.get("session").is_some() => self
                .session_line(service, &msg, whole)
                .unwrap_or_else(error_reply),
            // service-level ops (append_rows) type their rows and build
            // their reply inside server.rs: one span around the lot (the
            // line is parsed a second time in there; `json.parse` above
            // prices that, `service.latency_ns.append_rows` the append)
            Ok(_) => self.stage(HANDLE_LINE, whole, || handle_line(service, line)),
            Err(e) => error_reply(e),
        };
        if let (Some(id), Json::Obj(map)) = (id, &mut reply) {
            map.insert("id".into(), id);
        }
        let text = self.stage(STAGES[5], whole, || reply.to_string());
        self.close(whole);
        self.response_bytes += text.len() as u64;
        text
    }

    fn session_line(&mut self, service: &Service, msg: &Json, whole: usize) -> Result<Json> {
        let session = msg
            .get("session")
            .and_then(Json::as_u64)
            .ok_or_else(|| Error::invalid_parameter("session", "missing integer field"))?;
        let request = self.stage(STAGES[1], whole, || Request::from_json(msg))?;
        let opts = SubmitOptions {
            deadline: msg
                .get("deadline_ms")
                .and_then(Json::as_u64)
                .map(Duration::from_millis),
            request_id: msg.get("id").and_then(Json::as_u64),
        };
        let pending = self.stage(STAGES[2], whole, || {
            service.submit_async_opts(SessionId(session), request, opts)
        })?;
        self.pending_depth_max = self.pending_depth_max.max(self.pending.get());
        let response = self.stage(STAGES[3], whole, || pending.wait())?;
        Ok(self.stage(STAGES[4], whole, || response.to_json()))
    }

    /// Total nanoseconds and count of every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1))
    }

    /// Over the lines that were decomposed into stages (not handed to
    /// `handle_line` whole): the total of the line spans and the total
    /// of the stage spans under them. Equal but for the harness's own
    /// bookkeeping between stages.
    pub fn decomposed_ns(&self) -> (u64, u64) {
        let opaque: Vec<usize> = self
            .spans
            .iter()
            .filter(|s| s.name == HANDLE_LINE)
            .filter_map(|s| s.parent)
            .collect();
        let (mut lines, mut stages) = (0, 0);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == LINE && !opaque.contains(&i) {
                lines += s.ns();
            } else if STAGES.contains(&s.name) && s.parent.is_some_and(|p| !opaque.contains(&p)) {
                stages += s.ns();
            }
        }
        (lines, stages)
    }
}

/// What `handle_line` answers when a stage fails.
fn error_reply(e: Error) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", e.to_string().into()),
        ("kind", visdb_service::ErrorKind::of(&e).wire_name().into()),
    ])
}

/// All spans of a run as one JSON array (`trace.<workload>.json`).
pub fn spans_json(tracers: &[Tracer]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for (client, tracer) in tracers.iter().enumerate() {
        for (i, s) in tracer.spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| format!("\"{client}.{p}\""));
            let _ = write!(
                out,
                "{{\"id\":\"{client}.{i}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"interaction\":{}}}",
                s.name, s.start_ns, s.end_ns, s.interaction
            );
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::tests::tiny_service;

    #[test]
    fn a_traced_line_answers_the_same_bytes_as_handle_line() {
        let service = tiny_service();
        let epoch = Instant::now();
        let mut tracer = Tracer::new(&service, epoch, 1);
        let lines = [
            r#"{"id":1,"op":"create_session","dataset":"env"}"#,
            r#"{"id":2,"session":1,"op":"set_query","text":"SELECT * FROM Weather WHERE Temperature > 15"}"#,
            r#"{"id":3,"session":1,"op":"summary","deadline_ms":60000}"#,
            r#"{"id":4,"session":1,"op":"render","format":"ppm"}"#,
            r#"{"id":5,"session":1,"op":"drag_slider","window":0,"cmp":">","value":16.5}"#,
            // failures at every stage are replies too, id echoed
            r#"{"id":6,"session":1,"op":"nope"}"#,
            r#"{"id":7,"session":99,"op":"summary"}"#,
            r#"{"id":8,"session":1,"op":"set_weight","window":9,"weight":1}"#,
            "not json",
        ];
        // a second service answers the plain way, from the same state
        let plain = tiny_service();
        for line in lines {
            let interaction = tracer.begin_interaction(Instant::now());
            let traced = tracer.line(&service, line, interaction);
            tracer.end_interaction(interaction);
            assert_eq!(traced, handle_line(&plain, line).to_string(), "{line}");
        }
        // the summary line decomposed into all six stages under one line
        let summary_line = tracer
            .spans
            .iter()
            .position(|s| s.name == LINE && s.interaction == (1 << 32) + 3)
            .unwrap();
        let stages: Vec<&str> = tracer
            .spans
            .iter()
            .filter(|s| s.parent == Some(summary_line))
            .map(|s| s.name)
            .collect();
        assert_eq!(stages, STAGES);
        // create_session is service-level: one opaque span, not stages
        assert_eq!(tracer.total(HANDLE_LINE).1, 1);
        let (in_lines, in_stages) = tracer.decomposed_ns();
        assert!(in_stages <= in_lines && in_lines < tracer.total(LINE).0);
        assert_eq!(tracer.total(INTERACTION).1, lines.len() as u64);
        let json = spans_json(&[tracer]);
        assert!(parse(&json).is_ok(), "span dump is valid JSON");
    }
}
