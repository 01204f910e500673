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

use visdb_types::Result;

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
