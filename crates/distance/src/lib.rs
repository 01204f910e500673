//! # visdb-distance
//!
//! Datatype- and application-dependent distance functions (§3, §5).
//!
//! "The approximate results are determined using distance functions for
//! each of the selection predicates ... The distance functions are
//! datatype and application dependent and must be provided by the
//! application. Examples for distance functions are the numerical
//! difference (for metric types), distance matrices (for ordinal and
//! nominal types), lexicographical, character-wise, substring or phonetic
//! difference (for strings) and so on."
//!
//! ## Conventions
//!
//! * A distance is a **signed** `f64`. `0.0` means the predicate is
//!   *fulfilled exactly*; the magnitude measures how far the data item is
//!   from fulfilling it; the sign gives the *direction* of the deviation
//!   (needed for the fig 1b two-axis arrangement, §4.2).
//! * `None` means the distance is **undefined** — NULL operands, negations
//!   of non-invertible predicates (§4.4), or incompatible types. The
//!   relevance layer treats undefined as "maximally distant / not
//!   displayable".

pub mod batch;
pub mod frame;
pub mod geo;
pub mod lanes;
pub mod matrix;
pub mod numeric;
pub mod registry;
pub mod string;
pub mod time;

pub use frame::{Bitmap, DistanceFrame, FrameStats, PackedBits};
pub use matrix::DistanceMatrix;
pub use registry::{ColumnDistance, DistanceResolver};
pub use string::StringDistance;

/// A signed predicate distance; `Some(0.0)` = fulfilled, `None` = undefined.
pub type Distance = Option<f64>;
