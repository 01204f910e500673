//! # VisDB — Visual Feedback Queries for Data Mining
//!
//! A from-scratch Rust reproduction of **"Supporting Data Mining of Large
//! Databases by Visual Feedback Queries"** (Keim, Kriegel & Seidl,
//! ICDE 1994).
//!
//! VisDB answers a database query with more than the exact result set:
//! every data item gets a **relevance factor** derived from per-predicate,
//! datatype-specific distance functions, and items are rendered as colored
//! pixels — exact answers yellow in the window center, approximate answers
//! spiraling outward through green, blue and red to almost black. One
//! window per selection predicate (position-coherent with the overall
//! result) shows *why* each item scored the way it did, and interactive
//! slider/weight modifications recalculate the picture immediately.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use visdb::prelude::*;
//!
//! // a tiny table
//! let mut db = Database::new("demo");
//! let mut t = TableBuilder::new("Readings", vec![
//!     Column::new("Temperature", DataType::Float),
//! ]);
//! for v in [5.0_f64, 12.0, 16.5, 21.0, 28.0] {
//!     t = t.row(vec![Value::Float(v)]).unwrap();
//! }
//! db.add_table(t.build());
//!
//! // an approximate query: Temperature > 15. The database sits behind an
//! // `Arc` so any number of sessions can share it without copying.
//! let mut session = Session::new(Arc::new(db), ConnectionRegistry::new());
//! session.set_display_policy(DisplayPolicy::Percentage(100.0)).unwrap();
//! session.set_query(
//!     QueryBuilder::from_tables(["Readings"])
//!         .cmp("Temperature", CompareOp::Gt, 15.0)
//!         .build(),
//! ).unwrap();
//!
//! let result = session.result().unwrap();
//! assert_eq!(result.pipeline.num_exact, 3);          // 16.5, 21, 28
//! assert_eq!(result.pipeline.displayed.len(), 5);    // approximate too
//! // the best approximate answer is 12.0 (3 away), then 5.0
//! assert_eq!(result.pipeline.order[3], 1);
//! assert_eq!(result.pipeline.order[4], 0);
//! ```
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `visdb-types` | values, datatypes, schemas, errors |
//! | [`storage`] | `visdb-storage` | columnar tables, catalog, stats, CSV |
//! | [`query`] | `visdb-query` | AST, builder, mini-SQL parser, connections |
//! | [`distance`] | `visdb-distance` | numeric/string/matrix/geo/time distances |
//! | [`relevance`] | `visdb-relevance` | quantiles, gap heuristic, normalization, AND/OR combining |
//! | [`arrange`] | `visdb-arrange` | spiral & 2D sign-quadrant arrangements |
//! | [`color`] | `visdb-color` | the VisDB colormap, CIELAB, JND counting |
//! | [`render`] | `visdb-render` | framebuffer, PPM/PGM, layout, spectra |
//! | [`index`] | `visdb-index` | per-column sorted projections (slider drags, banded joins) |
//! | [`exec`] | `visdb-exec` | shared budgeted worker pool: scoped fork-join + task queue |
//! | [`obs`] | `visdb-obs` | counters, gauges, latency histograms, metrics registry |
//! | [`core`] | `visdb-core` | sessions, approximate joins, sliders, rendering |
//! | [`data`] | `visdb-data` | synthetic workloads (environmental, CAD, multi-DB) |
//! | [`baseline`] | `visdb-baseline` | exact boolean queries, k-means |
//! | [`service`] | `visdb-service` | concurrent multi-session query service |
//!
//! ## Serving layer
//!
//! The paper's system is single-user. The [`service`] module multiplexes
//! its interaction loop for many concurrent users: sessions share one
//! `Arc<Database>` (zero copies), a budgeted [`exec`] runtime executes
//! requests for distinct sessions in parallel (FIFO within a session)
//! and absorbs the pipeline's chunked row walks on the same threads, a shared
//! query-result cache answers identical queries from different users
//! without re-running the pipeline, and idle sessions are LRU-evicted.
//! The `visdb-server` binary exposes it as newline-delimited JSON over
//! stdin/stdout:
//!
//! ```
//! use std::sync::Arc;
//! use visdb::prelude::*;
//!
//! let mut db = Database::new("demo");
//! let mut t = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
//! for i in 0..32 {
//!     t = t.row(vec![Value::Float(i as f64)]).unwrap();
//! }
//! db.add_table(t.build());
//!
//! let service = Service::new(ServiceConfig::default());
//! service.register_dataset("demo", Arc::new(db), ConnectionRegistry::new());
//! let user = service.create_session("demo").unwrap();
//! let reply = service
//!     .submit(user, Request::SetQueryText("SELECT * FROM T WHERE x >= 16".into()))
//!     .unwrap();
//! assert_eq!(reply, Response::Ok);
//! ```

pub use visdb_arrange as arrange;
pub use visdb_baseline as baseline;
pub use visdb_color as color;
pub use visdb_core as core;
pub use visdb_data as data;
pub use visdb_distance as distance;
pub use visdb_exec as exec;
pub use visdb_index as index;
pub use visdb_obs as obs;
pub use visdb_query as query;
pub use visdb_relevance as relevance;
pub use visdb_render as render;
pub use visdb_service as service;
pub use visdb_storage as storage;
pub use visdb_types as types;

/// The commonly-needed names in one import.
pub mod prelude {
    pub use visdb_arrange::{arrange_grouped2d, arrange_overall, ItemGrid, PixelsPerItem};
    pub use visdb_color::{Colormap, ColormapKind, Rgb};
    pub use visdb_core::{
        materialize_base, render_session, JoinOptions, Panel, RenderOptions, Session,
        SessionResult, SliderDrag,
    };
    pub use visdb_data::{
        generate_cad, generate_environmental, generate_geographic, generate_multidb, CadConfig,
        EnvConfig, GeoConfig, MultiDbConfig,
    };
    pub use visdb_distance::{ColumnDistance, DistanceMatrix, DistanceResolver, StringDistance};
    pub use visdb_distance::{DistanceFrame, FrameStats};
    pub use visdb_index::SortedProjection;
    pub use visdb_obs::{Registry, Snapshot};
    pub use visdb_query::{
        parse_query, AttrRef, CompareOp, ConditionNode, ConnectionDef, ConnectionKind,
        ConnectionRegistry, ConnectionUse, Predicate, PredicateTarget, Query, QueryBuilder,
        SubqueryLink, Weighted,
    };
    pub use visdb_relevance::{
        run_pipeline, DisplayPolicy, ExecMode, PipelineOptions, PipelineOutput, PipelineTrace,
        PredicateWindow,
    };
    pub use visdb_render::{write_ppm, Framebuffer};
    pub use visdb_service::{
        ErrorKind, RenderFormat, Request, Response, Service, ServiceConfig, ServiceTelemetry,
        SessionId, SessionSummary, SubmitOptions, TraceReport,
    };
    pub use visdb_storage::{ColumnStats, Database, Row, Table, TableBuilder};
    pub use visdb_types::{
        Column, DataType, Error, Location, Result, Schema, Timestamp, TypeClass, Value,
    };
}
