//! # visdb-index
//!
//! Multidimensional access methods — the substrate the paper found
//! missing in 1994 database systems: "multidimensional data structures
//! that support range queries on multiple attributes will be essential to
//! improve query performance" (§6).
//!
//! * [`kdtree`] — a median-split k-d tree over numeric attribute vectors
//!   with orthogonal range queries and nearest-neighbour search.
//! * [`gridfile`] — a grid file (equi-width directory) as the classic
//!   1990s alternative; same [`RangeIndex`] interface.
//! * [`linear`] — linear scan baseline for the ablation benches.
//! * [`incremental`] — the paper's incremental-recalculation idea:
//!   "retrieve more data than necessary in the beginning and ... retrieve
//!   only the additional portion of the data that is needed for a
//!   slightly modified query later on."
//! * [`projection`] — per-column sorted permutations: O(log n) position
//!   arithmetic for monotone single-column predicates, and the 1-D
//!   [`RangeIndex`] the incremental cache serves slider drags from.

pub mod gridfile;
pub mod incremental;
pub mod kdtree;
pub mod linear;
pub mod projection;

pub use gridfile::GridFile;
pub use incremental::{CacheStats, IncrementalCache, PointAccess};
pub use kdtree::KdTree;
pub use linear::LinearScan;
pub use projection::{BandSweep, SortedProjection};

use std::sync::Arc;
use visdb_types::Result;

/// A shared, cross-session store of built [`SortedProjection`]s, keyed
/// by an opaque string that must cover every input of a build: the
/// dataset *generation*, the table, the row count and the column
/// ([`projection_key`]). A projection is pure column data — independent
/// of distance resolvers and display settings — so N sessions dragging
/// sliders on the same column, and every §4.4 join sweeping it as its
/// inner key, share one ~20 bytes/row build instead of paying one each.
///
/// Implementations must be safe to call concurrently; projections are
/// handed out as cheap [`Arc`] clones.
pub trait ProjectionSource: Send + Sync {
    /// Return a previously stored projection for this exact key, if any.
    fn lookup(&self, key: &str) -> Option<Arc<SortedProjection>>;
    /// Store a freshly built projection under its key.
    fn store(&self, key: String, projection: Arc<SortedProjection>);
    /// [`ProjectionSource::lookup`] for a caller that builds nothing when
    /// the key is absent, so an absent key is no miss: a store that counts
    /// its misses counts none here (the default counts what `lookup`
    /// counts).
    fn peek(&self, key: &str) -> Option<Arc<SortedProjection>> {
        self.lookup(key)
    }
}

/// The shared-projection cache key: dataset-generation scope, table, row
/// count and column, length-prefix framed — so a crafted
/// scope/table/column string cannot shift bytes across field boundaries,
/// and the serving layer's dataset invalidation can parse the scope back
/// out of the leading `len:scope` frame.
pub fn projection_key(scope: &str, table: &str, rows: usize, column: &str) -> String {
    format!(
        "{}:{scope}{}:{table}{rows};{}:{column}",
        scope.len(),
        table.len(),
        column.len()
    )
}

/// Inverse of [`projection_key`]: recover `(scope, table, rows, column)`
/// from a stored key, or `None` for byte sequences that are not
/// well-formed keys. The serving layer uses this to migrate shared
/// projections across dataset appends — matching entries of the old
/// generation are re-keyed (and merged) instead of rebuilt.
pub fn parse_projection_key(key: &str) -> Option<(&str, &str, usize, &str)> {
    fn framed(s: &str) -> Option<(&str, &str)> {
        let (len, rest) = s.split_once(':')?;
        let len: usize = len.parse().ok()?;
        if !rest.is_char_boundary(len) {
            return None;
        }
        Some(rest.split_at(len))
    }
    let (scope, rest) = framed(key)?;
    let (table, rest) = framed(rest)?;
    let (rows, col_frame) = rest.split_once(';')?;
    let rows: usize = rows.parse().ok()?;
    let (column, tail) = framed(col_frame)?;
    tail.is_empty().then_some((scope, table, rows, column))
}

/// Orthogonal range queries over a fixed set of `dims()`-dimensional
/// points. Implementations return *row indices* of matching points.
pub trait RangeIndex {
    /// Dimensionality of the indexed points.
    fn dims(&self) -> usize;

    /// Number of indexed points.
    fn len(&self) -> usize;

    /// True if no points are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All points `p` with `low[d] <= p[d] <= high[d]` for every
    /// dimension `d`. The result order is implementation-defined.
    fn range_query(&self, low: &[f64], high: &[f64]) -> Result<Vec<usize>>;
}

pub(crate) fn check_box(dims: usize, low: &[f64], high: &[f64]) -> Result<()> {
    use visdb_types::Error;
    if low.len() != dims || high.len() != dims {
        return Err(Error::invalid_parameter(
            "range",
            format!(
                "expected {dims}-dimensional bounds, got {} / {}",
                low.len(),
                high.len()
            ),
        ));
    }
    for d in 0..dims {
        if low[d].is_nan() || high[d].is_nan() {
            return Err(Error::invalid_parameter("range", "NaN bound"));
        }
        if low[d] > high[d] {
            return Err(Error::invalid_parameter(
                "range",
                format!("low[{d}] = {} exceeds high[{d}] = {}", low[d], high[d]),
            ));
        }
    }
    Ok(())
}
