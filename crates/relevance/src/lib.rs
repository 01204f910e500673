//! # visdb-relevance
//!
//! The mathematical core of VisDB (§5 of the paper): turning a query and a
//! data set into per-item **relevance factors**.
//!
//! The pipeline implemented here:
//!
//! 1. **Distance evaluation** ([`eval`]) — for every selection predicate,
//!    connection and subquery, compute a signed distance per data item
//!    (0 = fulfilled), using the datatype-dependent functions of
//!    `visdb-distance`.
//! 2. **Reduction** ([`quantile`], [`reduction`]) — decide how many items
//!    can be displayed: the α-quantile rule `p = r / (n·(#sp+1))` (§5.1),
//!    its two-sided variant for signed distances, or the multi-peak *gap
//!    heuristic* `sᵢ = Σ_{j=i−z}^{i+z} |dᵢ − dⱼ|` that cuts the display at
//!    the largest density gap.
//! 3. **Normalization** ([`normalize`]) — map each predicate's distances
//!    to the fixed range `[0, 255]`, either naively over `[dmin, dmax]`
//!    or with the paper's improved weight-proportional pre-reduction that
//!    keeps single outliers from flattening a predicate's contribution.
//! 4. **Combining** ([`combine`]) — weighted arithmetic mean for `AND`
//!    parts, weighted geometric mean for `OR` parts, applied recursively
//!    over the condition tree with re-normalization between levels (§5.2).
//! 5. **Relevance** — the relevance factor is "the inverse of that
//!    distance value": exact answers get the maximum relevance and larger
//!    combined distances monotonically smaller ones. Ranking needs only
//!    the policy's top k, found by the bound-pruned selection of
//!    [`select`].
//!
//! Steps 3–5 run on packed frames; [`reference`] holds the
//! `Option`-shaped definitions they are tested against, which the
//! [`ExecMode::Scalar`] oracle computes with. The end-to-end driver is
//! [`pipeline::run_pipeline`]: one executor, which keeps every
//! predicate's window as its distance walk's stats plus its raw
//! distances or, when its exact answers cover its fit, its packed exact
//! bits alone — the forms the §6 caches store and reuse.

pub mod cache;
pub mod chunk;
pub mod combine;
pub mod eval;
pub mod extend;
pub mod metric_combine;
pub mod normalize;
pub mod pipeline;
pub mod quantile;
pub mod reduction;
pub mod reference;
pub mod select;

pub use cache::{key_scope, window_key, PipelineCache, WindowSource};
pub use combine::{combine_and_slices, combine_or_slices, Combined};
pub use eval::{EvalContext, ExecMode, NodeEval};
pub use extend::{extend_window, extension_recipe, WindowRecipe};
pub use normalize::{
    apply_in_place, apply_slice, fit_frame, fit_k, normalize_frame, NormParams, NORM_MAX,
};
pub use pipeline::{
    display_count, run_pipeline, DisplayPolicy, PipelineOptions, PipelineOutput, PipelineTrace,
    PredicateWindow, SharedWindows, PARALLEL_THRESHOLD,
};
pub use quantile::{display_fraction, quantile, two_sided_range};
pub use reduction::{gap_cutoff, gap_cutoff_naive};
pub use visdb_distance::frame::{Bitmap, DistanceFrame, FrameStats};
