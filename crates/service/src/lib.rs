//! # visdb-service
//!
//! A concurrent, multi-session query service over shared VisDB databases
//! — the serving layer the 1994 paper never needed but a
//! millions-of-users deployment does.
//!
//! The paper's system is single-user: one session owns the database and
//! recalculates the visualization after every slider drag (§4.3, §6).
//! This crate multiplexes that interaction loop:
//!
//! * **Shared data** — datasets are registered once as `Arc<Database>`;
//!   every session references the same immutable storage with zero
//!   copies ([`Session::new`](visdb_core::Session::new) takes the `Arc`).
//! * **Sessions** — a [`SessionManager`] issues [`SessionId`]s and evicts
//!   by LRU when at capacity or when idle past a timeout.
//! * **Requests** — the [`Request`]/[`Response`] enums cover the §4.3
//!   interactions: install a query, drag a slider, change a weight,
//!   switch the display policy, fetch the rendered frame as ASCII or PPM
//!   bytes.
//! * **Parallelism** — a budgeted [`visdb_exec::Runtime`] shared from
//!   request dispatch down to the pipeline's chunked row walks: session
//!   drains are runtime jobs, chunk fan-out steals from the same pool,
//!   and the live thread count never exceeds the configured budget no
//!   matter how many large queries run concurrently ([`service`] module
//!   docs describe the mailbox scheduling).
//! * **Cross-user caching** — two shared caches, one bounded weighted
//!   LRU ([`cache`]) instantiated twice: a [`QueryCache`] keyed by
//!   (dataset, normalized query text, display parameters) serves
//!   identical renders from different users without re-running the
//!   pipeline, and a [`WindowCache`] of per-predicate window evaluations
//!   makes a slider drag that changes one predicate reuse every *other*
//!   window across sessions (the §6 incremental idea, cross-session).
//!   Each column's sorted projection needs no cache: it lives on its
//!   table ([`visdb_storage::Table::projection`]), which every session
//!   over the dataset generation shares, so every session that drags or
//!   joins on the column sweeps one build.
//! * **Deadlines, cancellation & shedding** — every request can carry a
//!   deadline and a cancel handle ([`SubmitOptions`], wire fields
//!   `deadline_ms` / `id`); an interrupted query stops at the
//!   pipeline's next 16k-row chunk poll and answers a structured
//!   `Response::Error { kind: Cancelled | DeadlineExceeded, .. }`
//!   without corrupting any cache. Past the configurable pending-work
//!   watermark, new submissions are shed with a `retry_after_ms` hint
//!   while in-flight queries run to completion, and a panicking request
//!   is contained: the worker survives and the session slot is recycled
//!   ([`service`] module docs).
//!
//! The `visdb-server` binary speaks this API as newline-delimited JSON
//! over stdin/stdout; programmatic callers use [`Service`] directly:
//!
//! ```
//! use std::sync::Arc;
//! use visdb_service::{Request, Response, Service, ServiceConfig};
//! use visdb_query::connection::ConnectionRegistry;
//! use visdb_storage::{Database, TableBuilder};
//! use visdb_types::{Column, DataType, Value};
//!
//! let mut t = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
//! for i in 0..100 {
//!     t = t.row(vec![Value::Float(i as f64)]).unwrap();
//! }
//! let mut db = Database::new("demo");
//! db.add_table(t.build());
//!
//! let service = Service::new(ServiceConfig::default());
//! service.register_dataset("demo", Arc::new(db), ConnectionRegistry::new());
//!
//! let user = service.create_session("demo").unwrap();
//! service
//!     .submit(user, Request::SetQueryText("SELECT * FROM T WHERE x >= 90".into()))
//!     .unwrap();
//! match service.submit(user, Request::Summary { trace: false }).unwrap() {
//!     Response::Summary(s) => assert_eq!(s.exact, 10),
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```
//!
//! ## Observability
//!
//! Every layer publishes live metric handles into one
//! [`visdb_obs::Registry`] owned by the [`Service`]: exec-pool counters
//! and job latency, both cache hit/miss pairs, session occupancy,
//! per-op request counts and latency histograms, and per-phase pipeline
//! latency. `Request::Metrics` (wire op `metrics`) returns the full
//! snapshot as JSON plus a Prometheus-style text exposition, and
//! `trace: true` on summary / drag requests returns the per-query
//! [`TraceReport`] inline.

pub mod api;
pub mod cache;
pub mod json;
pub mod manager;
pub mod server;
pub mod service;

pub use api::{
    execute, ErrorKind, RenderFormat, Request, Response, SessionState, SessionSummary, TraceReport,
};
pub use cache::{CacheStats, QueryCache, WindowCache};
pub use manager::{SessionId, SessionManager, SessionOptions};
pub use service::{
    AppendOutcome, DatasetInfo, PendingResponse, Service, ServiceConfig, ServiceTelemetry,
    SubmitOptions,
};
pub use visdb_obs::{Registry, Snapshot};
