//! # visdb-index
//!
//! The per-column sorted projection the engine's monotone single-column
//! work runs on: "multidimensional data structures that support range
//! queries on multiple attributes will be essential to improve query
//! performance" (§6) — for the one-attribute predicates behind a slider,
//! a sorted permutation answers every range as a position range.
//!
//! * [`projection`] — [`SortedProjection`]: O(log n) position arithmetic
//!   for monotone single-column predicates, the smallest row ids of a
//!   value band (a slider drag's exact answers), and the nearest-first
//!   [`BandSweep`] of the banded sort-merge join.
//!
//! The 1990s access methods and the §6 candidate-band cache the paper
//! discusses (k-d tree, grid file, linear scan, incremental cache) are
//! reproduced in `visdb-bench`, which alone measures them.

pub mod projection;

pub use projection::{BandSweep, SortedProjection};
