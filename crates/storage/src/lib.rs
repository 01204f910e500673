//! # visdb-storage
//!
//! The in-memory columnar storage substrate underneath VisDB.
//!
//! The 1994 paper ran on top of a commercial DBMS and complained (§6) that
//! "tasks such as multidimensional search and incremental changes of
//! queries ... are not adequately supported". This crate is the substrate
//! we build instead: a small but real column store with
//!
//! * typed [`column::ColumnData`] vectors with per-type validity handling,
//! * [`table::Table`] — schema + columns + row accessors,
//! * [`catalog::Database`] — a named-table catalog,
//! * [`stats::ColumnStats`] — min/max/mean/histograms feeding the slider UI
//!   model ("the minimum and maximum value of the attribute in the
//!   database are displayed", §4.3),
//! * [`csv`] — plain-text import/export (with schema inference) so
//!   example and external datasets are inspectable,
//! * [`sketch::ColumnSketch`] — one order-preserving byte per row of a
//!   numeric column, so a comparison reads the column only where the
//!   byte cannot decide,
//! * [`delta::DeltaChain`] — append lineage (base generation + row-count
//!   watermark per link + compaction fold-back) behind the O(Δ)
//!   incremental maintenance of the serving layer's caches.
//!
//! The relevance pipeline reads columns through [`table::Table::column`] and
//! never materialises row structs on the hot path.

pub mod catalog;
pub mod column;
pub mod csv;
pub mod delta;
pub mod sketch;
pub mod stats;
pub mod table;

pub use catalog::Database;
pub use column::{ColumnData, NumericSlice, StrColumn, StrDict, Validity};
pub use delta::DeltaChain;
pub use sketch::ColumnSketch;
pub use stats::ColumnStats;
pub use table::{Row, Table, TableBuilder};
