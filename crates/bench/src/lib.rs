//! # visdb-bench
//!
//! Shared helpers for the Criterion benches and the figure/claim
//! regeneration binaries (see DESIGN.md §3 for the experiment index).
//!
//! Binaries:
//! * `figures` — regenerates fig 1a, 1b, 2, 3, 4 and 5 as PPM files under
//!   `out/` plus the printed panels.
//! * `claims` — prints the measured series for claims C2–C5 and C7.
//!
//! Benches (`cargo bench`):
//! * `pipeline_scaling` — C1: O(n log n) scaling of the full pipeline.
//! * `phase_breakdown` — C1: distance vs normalize vs sort vs arrange.
//! * `reduction` — C7: α-quantile vs gap heuristic (naive vs optimized).
//! * `colormap` — C4: LUT lookup throughput + JND computation cost.
//! * `index_ablation` — linear scan vs k-d tree vs grid file.
//! * `incremental` — C6: cold queries vs cached slider nudges.
//! * `combining_ablation` — weighted means vs fuzzy min/max combiners.
//! * `arrangement` — spiral vs 2D arrangement throughput + coherence.
//!
//! The multidimensional access methods the paper found missing in 1994
//! database systems — "multidimensional data structures that support
//! range queries on multiple attributes will be essential to improve
//! query performance" (§6) — live here, with the two benches that measure
//! them (`index_ablation`, `incremental`); the engine itself answers its
//! one-column ranges from `visdb_index::SortedProjection`:
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

pub mod gridfile;
pub mod incremental;
pub mod kdtree;
pub mod linear;

pub use gridfile::GridFile;
pub use incremental::IncrementalCache;
pub use kdtree::KdTree;
pub use linear::LinearScan;

use visdb_query::ast::{CompareOp, Query};
use visdb_query::builder::QueryBuilder;
use visdb_storage::{Database, TableBuilder};
use visdb_types::{Column, DataType, Error, Result, Value};

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

/// A single-column ramp table `x = 0..n`, the canonical scaling workload.
pub fn ramp_db(n: usize) -> Database {
    let mut t = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
    for i in 0..n {
        t = t.row(vec![Value::Float(i as f64)]).expect("conforming row");
    }
    let mut db = Database::new("bench");
    db.add_table(t.build());
    db
}

/// Write a bench bin's results: to `--out <path>` when the command line
/// names one; otherwise a full run writes `<name>.json` — the committed
/// file — in the working directory and a `--smoke` run
/// `target/<name>.smoke.json`, so a CI smoke run never replaces the
/// committed full-run numbers.
pub fn write_results(name: &str, smoke: bool, json: &str) {
    let args: Vec<String> = std::env::args().collect();
    let path = match args.iter().position(|a| a == "--out") {
        Some(i) => args.get(i + 1).expect("--out needs a path").clone(),
        None if smoke => format!("target/{name}.smoke.json"),
        None => format!("{name}.json"),
    };
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).expect("create the results directory");
    }
    std::fs::write(&path, json).expect("write the results file");
    println!("wrote {path}");
}

/// A three-predicate query over the ramp (three windows, like fig 4).
pub fn three_predicate_query(n: usize) -> Query {
    QueryBuilder::from_tables(["T"])
        .cmp("x", CompareOp::Ge, n as f64 * 0.9)
        .cmp("x", CompareOp::Lt, n as f64 * 0.95)
        .between("x", n as f64 * 0.2, n as f64 * 0.8)
        .build()
}

/// Deterministic pseudo-random points for the index benches.
pub fn random_points(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
    // xorshift — cheap and deterministic without pulling rand into the
    // hot path setup
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| (0..dims).map(|_| next() * 1000.0).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_db_shape() {
        let db = ramp_db(10);
        assert_eq!(db.table("T").unwrap().len(), 10);
    }

    #[test]
    fn random_points_deterministic() {
        assert_eq!(random_points(5, 3, 7), random_points(5, 3, 7));
        assert_ne!(random_points(5, 3, 7), random_points(5, 3, 8));
        for p in random_points(100, 2, 1) {
            assert!(p.iter().all(|x| (0.0..=1000.0).contains(x)));
        }
    }
}
