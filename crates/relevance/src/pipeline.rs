//! The end-to-end relevance pipeline: distances → reduction →
//! normalization → combining → relevance factors → display selection.
//!
//! This is the computational spine of VisDB. The paper budgets
//! O(#sp · n) for the distance passes plus O(n log n) for the final sort
//! ("For simple queries and standard distance functions the complexity is
//! O(n logn) ... query processing time is dominated by the time needed
//! for sorting", §3). The default [`ExecMode::Vectorized`] execution
//! beats that budget's constant factors *and* its sort term:
//!
//! * distances come from typed columnar kernels over native column
//!   slices ([`visdb_distance::batch`]), not per-tuple [`Value`]
//!   dispatch;
//! * every O(n) pass — kernels, normalization-apply fused with
//!   combining — walks the rows in chunks fanned out across the shared
//!   budgeted runtime ([`crate::chunk`] over `visdb-exec`), so one
//!   large query parallelizes over rows rather than only across
//!   predicate windows, without ever exceeding the global thread
//!   budget;
//! * the final full sort is replaced by the bound-pruned top-k
//!   selection of [`crate::select`] plus a sort of only the selected
//!   prefix whenever the display policy keeps fewer than n items.
//!
//! A window is its distance walk's stats and a fit ([`NormParams`]), plus
//! what its readers need of the rows. A fit with `dmax = 0` (§5.1: "none
//! or very many" exact answers) normalizes to two values and is read from
//! the window's packed exact bits — one bit per row. Since the fit count
//! `k` of a predicate leaf is known before its walk, the walk folds those
//! bits per chunk and writes the 9 B/row raw frame only while the exact
//! answers counted so far stay below `k`: a window whose exact answers
//! cover `k` is its bits and stats alone. Every other window keeps its
//! raw frame — what a fit that selects, an `OR` root and the two-sided
//! display read. Normalized distances are applied in registers by the
//! combine walk and derived on read ([`PredicateWindow::normalized_at`]),
//! like relevance factors ([`PipelineOutput::relevance`]). A run writes at
//! most 9 bytes per row of output — the packed combined [`DistanceFrame`]
//! — plus the ranked prefix, and a root of nothing but two-valued windows
//! writes no row at all: its combined distances are the windows' bits
//! plus a table of at most `2^#sp` values ([`Combined::Table`]), and its
//! ranking walks the bits.
//!
//! [`ExecMode::Scalar`] preserves the per-tuple, full-sort reference
//! path; both modes produce bit-identical distances, windows and display
//! sets (property-tested in `tests/properties.rs`).

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use visdb_distance::frame::{DistanceFrame, ExactBits, FrameStats, PackedBits, MAX_TABLE_CHILDREN};
use visdb_distance::lanes::{mask_word, select, ALL_VALID_WORD, WORD_ROWS};
use visdb_distance::registry::DistanceResolver;
use visdb_exec::{fault, fault::Phase, CancelToken, Interrupt};
use visdb_index::ProjectionSource;
use visdb_query::ast::{ConditionNode, Weighted};
use visdb_storage::{Database, Table};
use visdb_types::{Error, Result};

use crate::cache::{window_key, PipelineCache, WindowSource};
use crate::chunk;
pub use crate::combine::Combined;
use crate::combine::{
    combine_and_blocks, combine_or_slices, Child, PatternTable, SharedBits, TWO_VALUED,
};
use crate::eval::{EvalContext, RunProjections, WindowEval};
use crate::normalize::{
    apply_in_place, apply_slice, covered_by_exact, fit_from_counts, fit_k, fit_selected,
    params_from_max, NormParams, NORM_MAX,
};
use crate::quantile::display_fraction;
use crate::reduction::gap_cutoff;
use crate::reference;
use crate::select::{k_smallest_sorted, rank_order};

pub use crate::eval::ExecMode;

/// The first-class explain record of one pipeline run, attached to
/// [`PipelineOutput::trace`] when [`PipelineOptions::trace`] is set:
/// the wall clock of each phase — where the time goes at scale — plus
/// the execution decisions that produced it: how many windows the §6
/// caches served vs. re-evaluated, and which fits, children and
/// rankings were answered from counts and bits. This is what
/// `trace: true` server requests return inline and what `pipeline_perf`
/// records as `phase_ms`, so production traces and the bench can never
/// drift apart. Collection costs one branch when disabled (no
/// allocation).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineTrace {
    /// Distance walks over the base relation (kernels or per-tuple),
    /// including the fused per-predicate stats accumulation.
    pub distance: Duration,
    /// §5.2 normalization fits (stats fast path or the packed
    /// selection).
    pub fit: Duration,
    /// The normalize-apply + combine walk (fused in vectorized mode)
    /// plus the final combined normalization.
    pub normalize_combine: Duration,
    /// Ranking and display selection (top-k / sort / merge).
    pub rank: Duration,
    /// Rows of the base relation the run covered — the span of every
    /// window evaluation and of the root combine.
    pub rows_scanned: u64,
    /// Top-level windows found in the per-session §6 incremental cache.
    pub cache_hits: usize,
    /// Top-level windows found in the cross-session shared window cache.
    pub shared_hits: usize,
    /// Of those cache hits, the windows stored under another weight:
    /// their cached stats (and raw distances, when the fit selects) were
    /// refitted (§5.2), not re-evaluated — what a re-weight costs.
    pub windows_refit: usize,
    /// Top-level windows whose distances were actually (re-)evaluated
    /// this run.
    pub windows_evaluated: usize,
    /// Top-level windows this run left as their packed exact bits and
    /// stats alone, with no raw frame: evaluated so (their exact answers
    /// covered the fit count), or refitted to a fit they cover and their
    /// frame dropped.
    pub windows_bits_only: usize,
    /// Row ranges of those evaluations compare-packed: an `x ≥ t` /
    /// `x ≤ t` window's ranges past the point where its exact answers
    /// covered the fit count, whose stats and bits one pass read straight
    /// from the column (no distances written).
    pub chunks_compare_packed: usize,
    /// §5.2 fits the distance walk's counts answered without reading
    /// the frame again (the fit covers every defined item, or the
    /// predicate's exact answers cover `k`).
    pub fits_from_counts: usize,
    /// §5.2 fits that took a selection over the distances (every fit of
    /// the scalar reference does).
    pub fits_selected: usize,
    /// 1 when the ranking's top `k` were the first `k` exact answers in
    /// row order (`num_exact >= k`), found by an early-exit scan.
    pub ranks_from_counts: usize,
    /// 1 when the ranking's top `k` came from the bound-pruned selection
    /// walk. Both stay 0 when no top-k ran (pure scan, scalar full sort,
    /// two-sided band).
    pub ranks_selected: usize,
    /// Root children the combine walk read from their packed exact bits
    /// (fits with `dmax = 0`: two-valued normalizations).
    pub children_bits: usize,
    /// Root children read as raw distances and normalized in registers.
    pub children_raw: usize,
    /// 1 when every child was two-valued and the root is derived: no
    /// combined frame written — the windows' bits and the root's pattern
    /// table are the combined distances ([`Combined::Table`]).
    pub roots_from_table: usize,
}

/// Add `elapsed` to a phase of an optional trace; the body may use the
/// trace itself.
macro_rules! phase_time {
    ($trace:expr, $phase:ident, $body:expr) => {{
        let start = $trace.as_ref().map(|_| Instant::now());
        let out = $body;
        if let (Some(t), Some(start)) = (&mut $trace, start) {
            t.$phase += start.elapsed();
        }
        out
    }};
}

/// How to choose the number of displayed data items (§5.1, §4.3).
#[derive(Debug, Clone, PartialEq)]
pub enum DisplayPolicy {
    /// "simply presenting as many data items as fit on the screen": a
    /// pixel budget shared by the overall window and one window per
    /// predicate, each item taking 1, 4 or 16 pixels.
    FitScreen {
        /// Total pixels available across windows.
        pixels: usize,
        /// Pixels per data item (1, 4 or 16).
        pixels_per_item: usize,
    },
    /// "a user given percentage of the data" (0..=100].
    Percentage(f64),
    /// The multi-peak gap heuristic (§5.1): display up to the largest
    /// density gap between `rmin` and `rmax`, window constant `z`.
    GapHeuristic {
        /// Smallest acceptable display count.
        rmin: usize,
        /// Largest acceptable display count.
        rmax: usize,
        /// Gap window size (`2 < z << rmax - rmin`).
        z: usize,
    },
    /// The two-sided variant for *signed* distances (§5.1): "the range of
    /// values presented to the user is given by
    /// [α₀·(1−p)-quantile, (α₀·(1−p)+p)-quantile] where α₀ is determined
    /// by α₀-quantile = 0". Items are selected around the zero crossing
    /// of the first window's signed raw distances, so the display keeps
    /// under- and over-shooting items in proportion to the data. Falls
    /// back to the one-sided percentage rule when the distances carry no
    /// signs.
    TwoSidedPercentage(f64),
}

impl DisplayPolicy {
    /// An indicative item budget used for weight-proportional
    /// normalization before the display count is finally known. Public
    /// because the sorted-projection slider fast path must reproduce the
    /// pipeline's fit inputs exactly.
    pub fn budget(&self, n: usize) -> usize {
        match self {
            DisplayPolicy::FitScreen {
                pixels,
                pixels_per_item,
            } => (pixels / (*pixels_per_item).max(1)).max(1),
            DisplayPolicy::Percentage(p) => {
                ((n as f64 * (p / 100.0)).ceil() as usize).clamp(1, n.max(1))
            }
            DisplayPolicy::GapHeuristic { rmax, .. } => (*rmax).max(1),
            DisplayPolicy::TwoSidedPercentage(p) => {
                ((n as f64 * (p / 100.0)).ceil() as usize).clamp(1, n.max(1))
            }
        }
    }
}

/// One per-predicate visualization window (§4.2): the raw signed
/// distances, the `[0,255]` normalization, and the fitted parameters so
/// sliders can map colors back to attribute values.
///
/// A window is its distance walk's stats and a fit, plus what its
/// readers need of the rows. That is its packed raw [`DistanceFrame`] —
/// what a fit that selects, an `OR` root and the §5.1 two-sided display
/// read. Or, when its exact answers cover its fit count (the fit is
/// `dmax = 0`: two-valued) and the run reads it no other way, it is only
/// its packed exact bits, 1/72 of the frame. Normalized distances are
/// derived on read either way.
#[derive(Debug, Clone)]
pub struct PredicateWindow {
    /// Window title.
    pub label: String,
    /// Whether the raw distances are signed.
    pub signed: bool,
    /// Weight of this predicate in the query.
    pub weight: f64,
    /// Raw signed distances per item in packed SoA form (shared with the
    /// incremental caches; cloning a window is cheap). `None`: the window
    /// is its exact bits alone.
    pub(crate) raw: Option<Arc<DistanceFrame>>,
    /// The fused reduction stats of the distance walk. With the raw
    /// frame they are every input of a §5.2 fit, so a cached window can
    /// be refitted under another weight (or over appended rows) without
    /// a distance pass; alone, every input of a fit its exact answers
    /// cover.
    pub(crate) stats: FrameStats,
    /// The packed `(exact, defined)` bits — what a fit with `dmax = 0`
    /// is read from. Folded by the distance walk of a leaf evaluated
    /// under its fit count, otherwise from `raw` on first use, and shared
    /// by every clone and refit of the window and by a derived root's
    /// [`Combined::Table`], so a frame is walked for them at most once.
    pub(crate) bits: SharedBits,
    /// The fitted normalization (for color → value lookups).
    pub norm_params: NormParams,
}

impl PredicateWindow {
    /// A window over its raw frame with that frame's reduction stats,
    /// fitted under `weight`.
    pub fn full(
        label: String,
        signed: bool,
        weight: f64,
        (raw, stats): (Arc<DistanceFrame>, FrameStats),
        norm_params: NormParams,
    ) -> Self {
        PredicateWindow {
            label,
            signed,
            weight,
            raw: Some(raw),
            stats,
            bits: Arc::default(),
            norm_params,
        }
    }

    /// A freshly evaluated window under `weight`, before its fit.
    fn evaluated(e: WindowEval, weight: f64) -> Self {
        PredicateWindow {
            label: e.label,
            signed: e.signed,
            weight,
            raw: e.raw.map(Arc::new),
            stats: e.stats,
            bits: Arc::new(e.bits.map_or_else(OnceLock::new, OnceLock::from)),
            norm_params: params_from_max(0.0),
        }
    }

    /// Rows of the base relation this window spans.
    pub fn len(&self) -> usize {
        match &self.raw {
            Some(raw) => raw.len(),
            None => self.exact_bits().0.len(),
        }
    }

    /// True when the window spans no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Normalized (`[0, 255]`) distance of row `i` (`None`: undefined or
    /// out of range). Derived: the fitted params applied on the fly — the
    /// identical float op the combine walk performs in registers. A
    /// window kept as its bits has the fit `dmax = 0`, under which that
    /// op maps an exact answer to 0 and every other defined row to 255:
    /// read off the bits.
    pub fn normalized_at(&self, i: usize) -> Option<f64> {
        if let Some(raw) = &self.raw {
            return raw.get(i).map(|v| self.norm_params.apply(v.abs()));
        }
        debug_assert_eq!(self.norm_params, params_from_max(0.0));
        let (exact, defined) = self.exact_bits();
        let known = i < exact.len() && defined.as_ref().is_none_or(|d| d.get(i));
        known.then(|| TWO_VALUED[usize::from(exact.get(i))])
    }

    /// Exact answers of this window (`raw == 0`) over the full relation
    /// — the §4.3 panel's per-slider `# results` field. The distance
    /// walk has counted them already ([`FrameStats::zeros`]): nothing is
    /// scanned.
    pub fn zero_raw_count(&self) -> usize {
        self.stats.zeros
    }

    /// The raw frame; `None` for a window kept as its exact bits alone,
    /// whose rows an evaluation of its condition re-derives
    /// ([`EvalContext::eval_node`]).
    pub fn raw_frame(&self) -> Option<&Arc<DistanceFrame>> {
        self.raw.as_ref()
    }

    /// The fused reduction stats of the distance walk.
    pub fn stats(&self) -> &FrameStats {
        &self.stats
    }

    /// The packed `(exact, defined)` bits ([`DistanceFrame::exact_bits`]
    /// of the raw frame), folded by the distance walk or by the first
    /// caller.
    pub fn exact_bits(&self) -> &ExactBits {
        self.bits.get_or_init(|| {
            let raw = self
                .raw
                .as_ref()
                .expect("a window without its frame has its bits");
            // chunks are whole words, so the per-chunk folds concatenate
            let fold = |offset, len| raw.exact_bits_in(offset..offset + len);
            let rows = raw.len();
            let (mut exact, mut defined) = (
                PackedBits::with_capacity(rows),
                PackedBits::with_capacity(rows),
            );
            for (e, d) in chunk::map_ranges(rows, true, fold) {
                exact.append(&e);
                defined.append(&d);
            }
            (exact, (defined.count_ones() < rows).then_some(defined))
        })
    }

    /// Heap bytes the window holds: its raw frame, if any, plus its bits
    /// once folded — what it weighs in a byte-budgeted cache.
    pub fn heap_bytes(&self) -> usize {
        let frame = self.raw.as_ref().map_or(0, |raw| raw.heap_bytes());
        let bits = self.bits.get().map_or(0, |(exact, defined)| {
            exact.heap_bytes() + defined.as_ref().map_or(0, PackedBits::heap_bytes)
        });
        frame + bits
    }
}

/// The pipeline result.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// Number of data items considered.
    pub n: usize,
    /// Normalized combined distance per item (`[0, 255]`, undefined =
    /// not colorable): a packed frame (9 bytes per row), or — for a
    /// root of two-valued windows and the pure scan — the windows'
    /// shared bits plus a table of at most `2^#sp` values, read per row.
    pub combined: Combined,
    /// The ranked items, by descending relevance (ascending combined
    /// distance, ties by row id) — exactly the relevance-sorted prefix
    /// the run established, never more. The vectorized paths size it to
    /// what the display policy needs (top-k selection; the gap heuristic
    /// ranks `rmax + z + 1` items); the scalar reference path sorts every
    /// defined item, paying the classic O(n log n). For one-sided
    /// policies this is the *global* top-`order.len()`; under the
    /// two-sided policy it is the displayed band (whose members need not
    /// be the globally closest items).
    pub order: Vec<u32>,
    /// The items selected for display by the policy, in relevance order.
    /// For one-sided policies this is a prefix of `order`; the two-sided
    /// §5.1 rule instead selects around the primary window's zero
    /// crossing.
    pub displayed: Vec<usize>,
    /// Under a [`Combined::Table`] root, the pattern of each displayed
    /// row, in display order: its windows' exact bits, window `c` in bit
    /// `c` — the table's value and every window's color of that row
    /// follow from it, so the picture is painted by pattern. The class
    /// walk of the ranking reads them off the masks it walks. Empty under
    /// a frame root.
    pub patterns: Vec<u8>,
    /// Number of exact answers (combined distance 0).
    pub num_exact: usize,
    /// One window per top-level selection predicate.
    pub windows: Vec<PredicateWindow>,
    /// The explain record, when [`PipelineOptions::trace`] asked for
    /// one (`None` otherwise — the disabled path allocates nothing).
    pub trace: Option<Box<PipelineTrace>>,
}

impl PipelineOutput {
    /// Relevance factor of an item: the inverse of its combined
    /// distance, realised as `NORM_MAX - combined` so exact answers
    /// score 255. Derived on read, never stored.
    pub fn relevance(&self, item: usize) -> Option<f64> {
        self.combined.get(item).map(|d| NORM_MAX - d)
    }

    /// The ranked items ([`PipelineOutput::order`]) as row indices, best
    /// first.
    pub fn ranked(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.order.iter().map(|&i| i as usize)
    }

    /// Relevance rank of an item: its position in
    /// [`PipelineOutput::order`], or `None` when the item is undefined
    /// or was not ranked (beyond the top-k the policy needed).
    pub fn rank_of(&self, item: usize) -> Option<usize> {
        self.ranked().position(|i| i == item)
    }

    /// Fraction of items displayed (the `% displayed` panel field).
    pub fn displayed_fraction(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.displayed.len() as f64 / self.n as f64
        }
    }
}

/// A shared cross-session window cache handle (see
/// [`crate::cache::WindowSource`]). `scope` must uniquely identify the
/// dataset *generation* — it anchors every key this run produces.
#[derive(Clone, Copy)]
pub struct SharedWindows<'a> {
    /// Dataset scope (e.g. `name#generation` in `visdb-service`).
    pub scope: &'a str,
    /// The cache implementation.
    pub cache: &'a dyn WindowSource,
}

/// Optional machinery around a pipeline run.
#[derive(Default)]
pub struct PipelineOptions<'a> {
    /// §6 incremental recalculation: per-session reuse of unchanged
    /// windows across query modifications.
    pub cache: Option<&'a mut PipelineCache>,
    /// Cross-session predicate-window reuse (the serving layer's shared
    /// cache); consulted after the per-session cache misses.
    pub shared: Option<SharedWindows<'a>>,
    /// Cross-session sorted-projection reuse: `(scope, store)`, the
    /// scope identifying the dataset generation exactly like
    /// [`SharedWindows::scope`]. A §4.4 join borrows its inner key's
    /// projection from the store and the run publishes what it had to
    /// build together with its windows; without one a join sorts its
    /// inner key on every evaluation.
    pub projections: Option<(&'a str, &'a dyn ProjectionSource)>,
    /// Columnar fast path (default) vs the per-tuple, full-sort
    /// reference path — the oracle the property tests and the
    /// scalar-vs-vectorized benchmark compare against. Both produce
    /// bit-identical results (the default path's
    /// [`PipelineOutput::order`] is a prefix of the reference's full
    /// sort).
    pub mode: ExecMode,
    /// When true, the run collects a [`PipelineTrace`] (per-phase wall
    /// clock + execution decisions) into [`PipelineOutput::trace`].
    /// Costs one branch and one small allocation per run when enabled,
    /// one branch when disabled.
    pub trace: bool,
    /// Cooperative cancellation / deadline token. When set, every chunk
    /// walk polls it once per 16k-row chunk and the run stops at the
    /// next phase boundary with [`Error::Cancelled`] /
    /// [`Error::DeadlineExceeded`] — crucially *before* any window from
    /// the disturbed run can reach the session or shared caches, so a
    /// re-ask is byte-identical to a cold run. `None` costs one branch
    /// per chunk.
    pub cancel: Option<&'a CancelToken>,
}

/// A phase-boundary cancellation checkpoint: runs any armed fault
/// injection for `phase`, then maps a tripped token into the pipeline's
/// error. Placed before every phase, all of them ahead of the run's one
/// cache-store block, so a cancelled run's garbage windows (fast-drained
/// chunks look like all-undefined rows — valid-shaped but wrong) can
/// never be cached.
fn checkpoint(cancel: Option<&CancelToken>, phase: Phase) -> Result<()> {
    let Some(token) = cancel else { return Ok(()) };
    fault::check(phase, token);
    match token.interrupted() {
        None => Ok(()),
        Some(Interrupt::Cancelled) => Err(Error::Cancelled),
        Some(Interrupt::DeadlineExceeded) => Err(Error::DeadlineExceeded),
    }
}

/// Run the pipeline over a base relation, with the machinery `opts`
/// names around it (`PipelineOptions::default()` for none).
///
/// `condition = None` marks every item an exact answer (a pure scan).
pub fn run_pipeline(
    db: &Database,
    table: &Table,
    resolver: &DistanceResolver,
    condition: Option<&Weighted>,
    policy: &DisplayPolicy,
    opts: PipelineOptions<'_>,
) -> Result<PipelineOutput> {
    let PipelineOptions {
        mut cache,
        shared,
        projections,
        mode,
        trace: want_trace,
        cancel,
    } = opts;
    let mut trace = want_trace.then(Box::<PipelineTrace>::default);
    let n = table.len();
    if u32::try_from(n).is_err() {
        return Err(Error::invalid_parameter(
            "relation",
            format!("{n} rows exceed the ranking's 32-bit row ids"),
        ));
    }
    let Some(cond) = condition else {
        // pure scan: every item is an exact answer — the table of no
        // windows; (0..n) is already the relevance order (all-zero
        // distances, index tiebreak)
        let combined = Combined::Table(PatternTable::of(n, Vec::new(), None).0);
        let order: Vec<u32> = (0..n as u32).collect();
        let displayed = select_display(&combined, &order, policy, 0, None)?;
        let patterns = vec![0; displayed.len()];
        if let Some(t) = &mut trace {
            t.rows_scanned = n as u64;
        }
        return Ok(PipelineOutput {
            n,
            order,
            displayed,
            patterns,
            num_exact: n,
            windows: Vec::new(),
            combined,
            trace,
        });
    };

    if let DisplayPolicy::Percentage(p) | DisplayPolicy::TwoSidedPercentage(p) = policy {
        if !(0.0..=100.0).contains(p) || *p <= 0.0 {
            return Err(Error::invalid_parameter(
                "percentage",
                format!("must be in (0, 100], got {p}"),
            ));
        }
    }

    let ctx = EvalContext {
        db,
        table,
        resolver,
        display_budget: policy.budget(n),
        mode,
        partitions: None,
        cancel,
    };

    // Top-level windows: the direct children of a root AND/OR, otherwise
    // the root itself (§3: "we generate a separate window for each
    // selection predicate of the query").
    let top: Vec<&Weighted> = match &cond.node {
        ConditionNode::And(cs) | ConditionNode::Or(cs) => cs.iter().collect(),
        _ => vec![cond],
    };

    // A vectorized run reads a predicate leaf's window through its exact
    // bits alone whenever its exact answers cover its fit count — except
    // under an `OR` root (a `powf` per row of normalized values) and as
    // the two-sided policy's primary window (its signed distances). Only
    // such a window is evaluated under its fit count, and it is kept as
    // its bits when they cover it.
    let or_root = matches!(&cond.node, ConditionNode::Or(_));
    let two_sided = matches!(policy, DisplayPolicy::TwoSidedPercentage(_));
    let reads_bits: Vec<bool> = (top.iter().enumerate())
        .map(|(i, w)| {
            mode == ExecMode::Vectorized
                && !or_root
                && !(two_sided && i == 0)
                && matches!(w.node, ConditionNode::Predicate(_))
        })
        .collect();
    let budget = ctx.display_budget;
    // a cached window serves this run when it has its frame, or when the
    // run may read its bits alone and they cover its fit under the run's
    // weight; a window kept as its bits is a miss anywhere else
    let serves = |i: usize, win: &PredicateWindow| {
        win.raw.is_some()
            || (reads_bits[i] && covered_by_exact(n, &win.stats, top[i].weight, budget))
    };

    // Every top-level window is looked up in the per-session incremental
    // cache, then the cross-session shared one, both keyed by the subtree
    // alone. An entry under the same weight is reused whole (Arc-shared,
    // no pass at all); one under another weight is **refit** — raw
    // distances do not depend on the weight, so its stats (and raw frame,
    // when the fit selects) go straight to the §5.2 fit, with no distance
    // pass and no join; a miss is evaluated now.
    let same_weight =
        |win: &PredicateWindow, w: &Weighted| win.weight.to_bits() == w.weight.to_bits();
    let mut found: Vec<Option<PredicateWindow>> = match &mut cache {
        Some(cache) => {
            cache.validate(table, budget);
            (top.iter().enumerate())
                .map(|(i, w)| cache.lookup(&w.node, |win| serves(i, win)))
                .collect()
        }
        None => vec![None; top.len()],
    };
    let session_hits = found.iter().flatten().count();
    let mut shared_keys: Vec<Option<String>> = match shared {
        Some(sh) => top
            .iter()
            .zip(&found)
            .map(|(w, got)| {
                got.is_none()
                    .then(|| window_key(sh.scope, table, ctx.display_budget, &w.node))
            })
            .collect(),
        None => vec![None; top.len()],
    };
    if let Some(sh) = shared {
        let slots = found.iter_mut().zip(shared_keys.iter_mut()).zip(&top);
        for (i, ((slot, key), w)) in slots.enumerate() {
            if let Some(k) = key.as_deref() {
                *slot = sh.cache.lookup(k, &|win| serves(i, win));
                if slot.as_ref().is_some_and(|win| same_weight(win, w)) {
                    // same weight: drop the key so the post-run store loop
                    // doesn't re-insert on every query (a refit keeps it:
                    // the entry's latest weight wins)
                    *key = None;
                }
            }
        }
    }
    let shared_hits = found.iter().flatten().count() - session_hits;
    let run_projections = projections.map(RunProjections::new);
    checkpoint(cancel, Phase::Distance)?;
    // a window is *unfit* until this run fits it: evaluated now, or found
    // under another weight — a refit is a new `NormParams` over the same
    // distances, nothing else
    let mut windows: Vec<PredicateWindow> = Vec::with_capacity(top.len());
    let mut unfit: Vec<bool> = Vec::with_capacity(top.len());
    let (mut windows_evaluated, mut evaluated_bits_only, mut compare_packed) = (0, 0, 0);
    phase_time!(trace, distance, {
        for (i, (w, got)) in top.iter().zip(found).enumerate() {
            unfit.push(!got.as_ref().is_some_and(|win| same_weight(win, w)));
            windows.push(match got {
                Some(win) => win,
                // parallelism lives *inside* a window evaluation
                // (chunked over rows); windows go one by one
                None => {
                    windows_evaluated += 1;
                    let k = reads_bits[i].then(|| fit_k(n, w.weight, budget)).flatten();
                    let e = ctx.eval_window(&w.node, k, run_projections.as_ref())?;
                    evaluated_bits_only += usize::from(e.raw.is_none());
                    compare_packed += e.chunks_compare_packed;
                    PredicateWindow::evaluated(e, w.weight)
                }
            });
        }
    });
    let windows_refit = unfit.iter().filter(|&&u| u).count() - windows_evaluated;

    // a token that tripped mid-eval left fast-drained chunks behind —
    // all-undefined rows that look valid-shaped but are wrong; stop
    // before the fit can see them
    checkpoint(cancel, Phase::Fit)?;
    let (combined, root) = match mode {
        ExecMode::Scalar => {
            let (frame, root) = combine_scalar(&ctx, cond, &top, &mut windows, &unfit, &mut trace)?;
            (Combined::Frame(frame), root)
        }
        ExecMode::Vectorized => {
            let fitted = (&mut windows[..], &unfit[..], &reads_bits[..]);
            combine_vectorized(&ctx, cond, &top, fitted, &mut trace)
        }
    };

    // a run interrupted during combine left a half-combined frame
    checkpoint(cancel, Phase::NormalizeCombine)?;

    // Rank and select. The scalar reference pays the paper's dominant
    // O(n log n) full sort; the vectorized path selects the policy's
    // top k (pruned by a sampled bound) and sorts only that prefix.
    checkpoint(cancel, Phase::Rank)?;
    let (order, displayed, patterns) = phase_time!(trace, rank, {
        match mode {
            ExecMode::Scalar => {
                let Combined::Frame(frame) = &combined else {
                    unreachable!("the scalar oracle writes its combined frame")
                };
                let (vals, mask) = (frame.values(), frame.validity().as_slice());
                let mut order: Vec<u32> = (0..n as u32).filter(|&i| mask[i as usize]).collect();
                order.sort_by(|&a, &b| rank_order(&(vals[a as usize], a), &(vals[b as usize], b)));
                let displayed =
                    select_display(&combined, &order, policy, windows.len(), Some(&windows))?;
                (order, displayed, Vec::new())
            }
            ExecMode::Vectorized => rank_and_select(
                &combined,
                &root,
                &windows,
                policy,
                windows.len(),
                trace.as_deref_mut(),
            )?,
        }
    });

    // Only a run that got this far publishes: an interrupted, panicked or
    // failed run has returned above and leaves every cache layer exactly
    // as it found it. Freshly evaluated and refitted windows feed both
    // layers (keys survive only for windows that were fitted this run);
    // windows whose shape supports it carry an extension recipe so the
    // append path can grow them by delta rows instead of re-evaluating.
    if let Some(sh) = shared {
        for ((win, key), w) in windows.iter().zip(shared_keys).zip(&top) {
            if let Some(key) = key {
                let recipe = crate::extend::extension_recipe(&ctx, &w.node);
                sh.cache.store(key, win.clone(), recipe);
            }
        }
    }
    if let Some(cache) = &mut cache {
        cache.store(
            top.iter()
                .map(|w| w.node.clone())
                .zip(windows.iter().cloned())
                .collect(),
        );
    }
    if let Some(run) = run_projections {
        run.publish();
    }

    if let Some(t) = &mut trace {
        t.rows_scanned = n as u64;
        t.cache_hits = session_hits;
        t.shared_hits = shared_hits;
        t.windows_refit = windows_refit;
        t.windows_evaluated = windows_evaluated;
        t.windows_bits_only += evaluated_bits_only;
        t.chunks_compare_packed = compare_packed;
    }
    Ok(PipelineOutput {
        n,
        combined,
        order,
        displayed,
        patterns,
        num_exact: root.num_exact,
        windows,
        trace,
    })
}

/// The scalar reference combine, on the `Option` arithmetic of
/// [`crate::reference`] throughout: fit each unfit window by plain
/// selection, normalize every window's raw distances row by row, fold the
/// rows at the root with `and_row`/`or_row`, normalize the combined vector
/// as a whole, and only then pack — the correctness baseline every packed
/// kernel is held to. Returns the final combined frame and the root
/// counts.
fn combine_scalar(
    ctx: &EvalContext<'_>,
    cond: &Weighted,
    top: &[&Weighted],
    windows: &mut [PredicateWindow],
    unfit: &[bool],
    trace: &mut Option<Box<PipelineTrace>>,
) -> Result<(DistanceFrame, RootAcc)> {
    let mut children: Vec<Vec<Option<f64>>> = Vec::with_capacity(windows.len());
    for ((win, w), &unfit) in windows.iter_mut().zip(top).zip(unfit) {
        let raw = (win.raw_frame())
            .expect("the scalar oracle never keeps a window as its bits")
            .to_options();
        if unfit {
            win.weight = w.weight;
            win.norm_params = phase_time!(
                (*trace),
                fit,
                reference::fit_improved(&raw, w.weight, ctx.display_budget)
            );
            if let Some(t) = trace {
                t.fits_selected += 1;
            }
        }
        children.push(phase_time!(
            (*trace),
            normalize_combine,
            reference::apply_all(&raw, win.norm_params)
        ));
    }
    let weights: Vec<f64> = top.iter().map(|w| w.weight).collect();
    phase_time!((*trace), normalize_combine, {
        let raw = match &cond.node {
            ConditionNode::Or(_) => reference::combine_or(&children, &weights)?,
            ConditionNode::And(_) => reference::combine_and(&children, &weights)?,
            _ => children.swap_remove(0),
        };
        let root = RootAcc {
            defined: raw.iter().flatten().count(),
            num_exact: raw.iter().filter(|d| **d == Some(0.0)).count(),
            ..RootAcc::default()
        };
        let combined = DistanceFrame::from_options(&reference::normalize_combined(&raw));
        Ok((combined, root))
    })
}

/// Root-combine accumulator of the fused walk: everything the final
/// combined normalization needs ([`params_from_max`] input plus the
/// any-nonzero guard of [`reference::normalize_combined`]) and the
/// exact-match count, folded over each chunk right after it is written —
/// so the combined frame is not re-read between combining and the
/// finalize pass. All three
/// folds are set operations (max / or / sum), so per-range accumulation
/// and merging is bit-identical to the scalar reference's single pass.
pub(crate) struct RootAcc {
    /// Largest finite |combined| over defined rows (`-inf` when none) —
    /// exactly the fold the naive normalization's fit performs.
    max_abs: f64,
    /// Any defined combined value `!= 0.0` (NaN counts: it is not 0).
    any_nonzero: bool,
    /// Rows with a defined combined distance.
    pub(crate) defined: usize,
    /// Defined rows whose combined distance is exactly 0.0.
    pub(crate) num_exact: usize,
}

impl Default for RootAcc {
    fn default() -> Self {
        RootAcc {
            max_abs: f64::NEG_INFINITY,
            any_nonzero: false,
            defined: 0,
            num_exact: 0,
        }
    }
}

/// The lane accumulators of a [`RootAcc`] fold: eight independent lanes
/// per validity word so no fold waits on the row before it. Lane
/// assignment cannot matter — all three folds are set operations. Only
/// two are kept per lane: every defined value is either `== 0.0` or
/// `!= 0.0`, so "any nonzero" is "more defined rows than exact ones".
pub(crate) struct RootLanes {
    exact: [usize; WORD_ROWS],
    defined: usize,
    max_abs: [f64; WORD_ROWS],
}

impl Default for RootLanes {
    fn default() -> Self {
        RootLanes {
            exact: [0; WORD_ROWS],
            defined: 0,
            max_abs: [f64::NEG_INFINITY; WORD_ROWS],
        }
    }
}

impl RootLanes {
    /// Fold one 8-row block (`word` = [`mask_word`] of `m8`) with
    /// branch-free selects; a fully-defined block (one `u64` compare)
    /// skips the mask terms. Undefined rows carry canonical 0.0, so the
    /// masked folds see a harmless value.
    #[inline(always)]
    pub(crate) fn block(&mut self, v8: &[f64], m8: &[bool], word: u64) {
        // neither side is ever NaN (the candidate is finite or -inf), so
        // this select is `f64::max` without its NaN handling
        let max = |m: f64, c: f64| select(c > m, c, m);
        self.defined += word.count_ones() as usize;
        let lanes = self.exact.iter_mut().zip(&mut self.max_abs);
        if word == ALL_VALID_WORD {
            for ((exact, max_abs), &x) in lanes.zip(v8) {
                let a = x.abs();
                *exact += (x == 0.0) as usize;
                *max_abs = max(*max_abs, select(a.is_finite(), a, f64::NEG_INFINITY));
            }
        } else {
            for ((exact, max_abs), (&x, &ok)) in lanes.zip(v8.iter().zip(m8)) {
                let a = x.abs();
                *exact += (ok & (x == 0.0)) as usize;
                *max_abs = max(*max_abs, select(ok & a.is_finite(), a, f64::NEG_INFINITY));
            }
        }
    }
}

impl RootAcc {
    /// Fold one freshly combined chunk: [`RootLanes::block`] per validity
    /// word, the `< 8`-row tail row by row.
    pub(crate) fn fold(&mut self, vals: &[f64], mask: &[bool]) {
        debug_assert_eq!(vals.len(), mask.len());
        let mut lanes = RootLanes::default();
        let blocks = vals.len() / WORD_ROWS * WORD_ROWS;
        let (vh, vt) = vals.split_at(blocks);
        let (mh, mt) = mask.split_at(blocks);
        for (v8, m8) in vh.chunks_exact(WORD_ROWS).zip(mh.chunks_exact(WORD_ROWS)) {
            lanes.block(v8, m8, mask_word(m8));
        }
        self.absorb(lanes);
        for (&x, &ok) in vt.iter().zip(mt) {
            self.defined += ok as usize;
            self.num_exact += (ok && x == 0.0) as usize;
            self.any_nonzero |= ok && x != 0.0;
            let a = x.abs();
            self.max_abs = self
                .max_abs
                .max(select(ok && a.is_finite(), a, f64::NEG_INFINITY));
        }
    }

    /// Reduce the lanes of a block fold into the accumulator.
    pub(crate) fn absorb(&mut self, lanes: RootLanes) {
        let exact: usize = lanes.exact.iter().sum();
        self.num_exact += exact;
        self.defined += lanes.defined;
        self.any_nonzero |= lanes.defined > exact;
        self.max_abs = lanes.max_abs.iter().fold(self.max_abs, |m, &x| m.max(x));
    }

    /// The fold of a root that takes the value `sums[p]` on `counts[p]`
    /// rows: what [`RootAcc::fold`] reads off those rows, from the counts.
    pub(crate) fn of_patterns(sums: &[f64], counts: &[usize]) -> RootAcc {
        let mut acc = RootAcc::default();
        for (&x, &rows) in sums.iter().zip(counts).filter(|(_, &rows)| rows > 0) {
            acc.defined += rows;
            acc.num_exact += if x == 0.0 { rows } else { 0 };
            acc.any_nonzero |= x != 0.0;
            let a = x.abs();
            acc.max_abs = acc.max_abs.max(select(a.is_finite(), a, f64::NEG_INFINITY));
        }
        acc
    }

    /// The final combined normalization this fold asks for: naive
    /// normalization of `|d|` against the folded maximum, or none when
    /// every defined row is exact — all-exact inputs keep their zeros
    /// ([`reference::normalize_combined`] semantics).
    pub(crate) fn finish(&self) -> Option<NormParams> {
        self.any_nonzero.then(|| params_from_max(self.max_abs))
    }

    pub(crate) fn merge(&mut self, other: &RootAcc) {
        self.max_abs = self.max_abs.max(other.max_abs);
        self.any_nonzero |= other.any_nonzero;
        self.defined += other.defined;
        self.num_exact += other.num_exact;
    }
}

/// The finalize pass of the vectorized walk: normalize the combined
/// frame in place over the given row ranges ([`RootAcc::finish`]).
fn finalize_combined(
    combined: &mut DistanceFrame,
    acc: &RootAcc,
    ranges: &[(usize, usize)],
    parallel: bool,
) {
    let Some(params) = acc.finish() else { return };
    chunk::run_striped(
        combined.split_ranges_mut(ranges),
        parallel,
        move |(vals, mask)| apply_in_place(params, vals, mask),
    );
}

/// The vectorized combine: fit each unfit window's normalization from
/// its fused distance-walk stats ([`fit_from_counts`] — zero extra
/// passes — or else the pruned selection of [`fit_selected`]), then
/// normalize and combine at the root in one fused, chunk-parallel walk
/// straight into the output frame — raw distances normalized in
/// registers, windows whose fit is `dmax = 0` (two-valued
/// normalizations) read from their packed exact bits, nothing but the
/// combined frame stored — and finalize it in place. When *every* child
/// of an `AND` / single-window root is two-valued the root is derived
/// instead ([`PatternTable::of`]): nothing is walked or written. A
/// refitted window the run reads through its bits alone, whose exact
/// answers now cover its fit, drops its raw frame like an evaluated one.
/// Returns the final combined distances and the root counts.
fn combine_vectorized(
    ctx: &EvalContext<'_>,
    cond: &Weighted,
    top: &[&Weighted],
    (windows, unfit, reads_bits): (&mut [PredicateWindow], &[bool], &[bool]),
    trace: &mut Option<Box<PipelineTrace>>,
) -> (Combined, RootAcc) {
    let (n, budget) = (ctx.table.len(), ctx.display_budget);
    let weights: Vec<f64> = top.iter().map(|w| w.weight).collect();
    phase_time!((*trace), fit, {
        let fitted = (windows.iter_mut().zip(top))
            .zip(unfit.iter().zip(reads_bits))
            .filter(|(_, (&unfit, _))| unfit);
        for ((win, w), (_, &reads_bits)) in fitted {
            let counted = fit_from_counts(n, &win.stats, w.weight, budget);
            if let Some(t) = trace {
                t.fits_from_counts += usize::from(counted.is_ok());
                t.fits_selected += usize::from(counted.is_err());
            }
            win.norm_params = counted.unwrap_or_else(|k| {
                fit_selected(
                    win.raw_frame().expect("a fit that selects reads the frame"),
                    k,
                )
            });
            win.weight = w.weight;
            if reads_bits && win.raw.is_some() && covered_by_exact(n, &win.stats, w.weight, budget)
            {
                win.exact_bits();
                win.raw = None;
                if let Some(t) = trace {
                    t.windows_bits_only += 1;
                }
            }
        }
    });

    // the root-match of the scalar path: a weighted mean over the
    // windows, or the single window itself (`None`: no arithmetic)
    let or_root = matches!(&cond.node, ConditionNode::Or(_));
    let weights = weights.as_slice();
    let mean_weights =
        matches!(&cond.node, ConditionNode::And(_) | ConditionNode::Or(_)).then_some(weights);

    phase_time!((*trace), normalize_combine, {
        // per window: its bits when the fit is two-valued (a root `OR`
        // takes a `powf` per row of normalized values either way)
        let windows = &*windows;
        let bits: Vec<_> = (windows.iter())
            .map(|win| {
                let NormParams { dmin, dmax } = win.norm_params;
                let two_valued = !or_root && dmin == 0.0 && dmax == 0.0;
                let (exact, defined) = two_valued.then(|| win.exact_bits())?;
                Some((exact, defined.as_ref()))
            })
            .collect();
        let children_bits = bits.iter().flatten().count();
        let derived = children_bits == windows.len() && children_bits <= MAX_TABLE_CHILDREN;
        if let Some(t) = trace {
            t.children_bits += children_bits;
            t.children_raw += windows.len() - children_bits;
            t.roots_from_table += usize::from(derived);
        }
        if !derived {
            walk_root(ctx, windows, &bits, or_root, (weights, mean_weights))
        } else {
            let shared = windows.iter().map(|win| Arc::clone(&win.bits)).collect();
            let (table, acc) = PatternTable::of(n, shared, mean_weights);
            (Combined::Table(table), acc)
        }
    })
}

/// The fused walk of a root with a fitted child or an `OR`: per chunk,
/// one pass of the block kernel ([`combine_and_blocks`]) loads each
/// child, combines them at the root straight into the output frame and
/// folds the finalize inputs over what it wrote — each row touched once,
/// in registers. A root `OR` normalizes its children into per-chunk
/// scratch and runs the same steps as slice kernels. Every kernel is
/// proven exact against the scalar reference (see the kernels' docs).
/// The frame is finalized in place.
fn walk_root(
    ctx: &EvalContext<'_>,
    windows: &[PredicateWindow],
    bits: &[Option<(&PackedBits, Option<&PackedBits>)>],
    or_root: bool,
    (weights, mean_weights): (&[f64], Option<&[f64]>),
) -> (Combined, RootAcc) {
    let n = ctx.table.len();
    // whole-frame children; every task walks its own row range
    let children: Vec<Child<'_>> = (windows.iter().zip(bits))
        .map(|(win, bits)| match *bits {
            Some((exact, defined)) => Child::Bits(exact, defined),
            None => {
                let raw = win
                    .raw_frame()
                    .expect("a window read as rows keeps its frame");
                let mask = raw.validity().as_slice();
                Child::Frame(raw.values(), mask, Some(win.norm_params))
            }
        })
        .collect();
    let mut combined = DistanceFrame::undefined(n);
    let ranges = chunk::ranges(n);
    let mut range_accs: Vec<RootAcc> = ranges.iter().map(|_| RootAcc::default()).collect();
    let tasks: Vec<_> = (ranges.iter().map(|&(offset, _)| offset))
        .zip(combined.split_ranges_mut(&ranges))
        .zip(range_accs.iter_mut())
        .collect();
    let (children, arena, cancel) = (&children, chunk::ScratchArena::new(), ctx.cancel);
    chunk::run_striped(
        tasks,
        n >= chunk::PAR_MIN_ROWS,
        |((offset, (cv, cm)), acc)| {
            // fast-drain: a tripped token skips the chunk body; the
            // NormalizeCombine checkpoint after this walk discards
            // the half-combined output before anything is cached
            if cancel.is_some_and(|c| c.should_stop(Phase::NormalizeCombine)) {
                return;
            }
            if !or_root {
                return combine_and_blocks(children, mean_weights, offset, cv, cm, Some(acc));
            }
            let rows = offset..offset + cv.len();
            let mut scratch = arena.take();
            let bufs = scratch.frames(children.len(), cv.len());
            for (child, (sv, sm)) in children.iter().zip(bufs.iter_mut()) {
                let Child::Frame(v, m, Some(params)) = *child else {
                    unreachable!("a root OR reads raw distances");
                };
                apply_slice(params, &v[rows.clone()], &m[rows.clone()], sv, sm);
            }
            let views: Vec<(&[f64], &[bool])> =
                bufs.iter().map(|(v, m)| (&v[..], &m[..])).collect();
            combine_or_slices(&views, weights, cv, cm);
            acc.fold(cv, cm);
        },
    );
    let mut acc = RootAcc::default();
    range_accs.iter().for_each(|range_acc| acc.merge(range_acc));
    finalize_combined(&mut combined, &acc, &ranges, n >= PARALLEL_THRESHOLD);
    (Combined::Frame(combined), acc)
}

// ----- display-policy math shared by both execution modes ---------------
//
// The scalar path (full sort, `select_display`) and the vectorized path
// (top-k, `rank_and_select`) must stay bit-identical; every k-formula
// and band predicate therefore exists exactly once, below. Both rank
// under [`rank_order`]: ascending combined distance with row-id
// tiebreak, a total order — which is what makes selection + prefix sort
// reproduce the full sort's prefix exactly.

/// `Percentage` display count — also the two-sided policy's fallback.
fn percentage_count(p: f64, n: usize, defined: usize) -> usize {
    (((p / 100.0) * n as f64).round() as usize).min(defined)
}

/// The display count a *pure top-k* policy selects over `n` items of
/// which `defined` have a defined combined distance, or `None` for the
/// policies whose selection is not a plain top-k (gap heuristic,
/// two-sided band). Public so the sorted-projection slider fast path
/// selects exactly the set the pipeline would.
pub fn display_count(
    policy: &DisplayPolicy,
    n: usize,
    defined: usize,
    num_windows: usize,
) -> Option<usize> {
    match policy {
        DisplayPolicy::Percentage(p) => Some(percentage_count(*p, n, defined)),
        DisplayPolicy::FitScreen {
            pixels,
            pixels_per_item,
        } => Some(fit_screen_count(
            *pixels,
            *pixels_per_item,
            n,
            num_windows,
            defined,
        )),
        DisplayPolicy::GapHeuristic { .. } | DisplayPolicy::TwoSidedPercentage(_) => None,
    }
}

/// `FitScreen` display count (§5.1 `p = r / (n·(#sp+1))`).
fn fit_screen_count(
    pixels: usize,
    pixels_per_item: usize,
    n: usize,
    num_windows: usize,
    defined: usize,
) -> usize {
    let p = display_fraction(pixels, n, num_windows, pixels_per_item);
    ((p * n as f64).floor() as usize).min(defined)
}

/// Effective `(rmin, rmax)` of the gap heuristic, clamped to the number
/// of defined items (`defined` must be > 0).
fn gap_bounds(rmin: usize, rmax: usize, defined: usize) -> (usize, usize) {
    let rmax_eff = rmax.min(defined - 1);
    (rmin.min(rmax_eff), rmax_eff)
}

/// The primary window's signed raw distances, which the two-sided policy
/// reads.
fn primary_raw(win: &PredicateWindow) -> &DistanceFrame {
    win.raw_frame()
        .expect("the two-sided policy's primary window keeps its frame")
}

/// The two-sided quantile band of the primary window's signed raw
/// distances (`None` when the window has no defined distances).
fn two_sided_band(win: &PredicateWindow, p: f64) -> Result<Option<(f64, f64)>> {
    let signed: Vec<f64> = primary_raw(win).iter().flatten().collect();
    if signed.is_empty() {
        return Ok(None);
    }
    let (lo_level, hi_level) = crate::quantile::two_sided_range(&signed, p / 100.0)?;
    let lo = crate::quantile::quantile(&signed, lo_level)?;
    let hi = crate::quantile::quantile(&signed, hi_level)?;
    Ok(Some((lo, hi)))
}

/// Two-sided membership: inside the band, or an exact answer
/// ("exact answers always display", §5.1).
fn in_two_sided_band(win: &PredicateWindow, lo: f64, hi: f64, i: usize) -> bool {
    match primary_raw(win).get(i) {
        Some(d) => (d >= lo && d <= hi) || d == 0.0,
        None => false,
    }
}

/// Vectorized ranking + display selection: compute how many items the
/// policy can display and rank exactly that many (plus the gap
/// heuristic's scan window); the two-sided policy instead gathers its
/// quantile band and sorts that. The `k` best rows come from the root
/// fold's counts when they can: finalized combined distances are `>= 0`
/// and ties rank by row id, so with `num_exact >= k` the sorted prefix
/// *is* the first `k` rows at `0.0` in row order — an early-exit scan.
/// Otherwise the bound-pruned kernel selects and sorts them. A derived
/// root walks its value classes over the windows' bits instead
/// ([`PatternTable::smallest`]), either way. Returns `(order,
/// displayed, patterns)`, the last the displayed rows' patterns under a
/// table root.
fn rank_and_select(
    combined: &Combined,
    root: &RootAcc,
    windows: &[PredicateWindow],
    policy: &DisplayPolicy,
    num_windows: usize,
    mut trace: Option<&mut PipelineTrace>,
) -> Result<(Vec<u32>, Vec<usize>, Vec<u8>)> {
    let n = combined.len();
    let ranges = &chunk::ranges(n);
    let m = root.defined;
    let parallel = n >= PARALLEL_THRESHOLD;
    let finish = |(ranked, mut patterns): (Vec<(f64, u32)>, Vec<u8>), shown: usize| {
        let order: Vec<u32> = ranked.iter().map(|c| c.1).collect();
        let displayed = order[..shown].iter().map(|&i| i as usize).collect();
        patterns.truncate(shown);
        Ok((order, displayed, patterns))
    };
    let mut ranked = |k: usize| -> (Vec<(f64, u32)>, Vec<u8>) {
        let from_counts = root.num_exact >= k;
        if let Some(t) = trace.as_deref_mut() {
            t.ranks_from_counts += usize::from(from_counts);
            t.ranks_selected += usize::from(!from_counts);
        }
        let frame = match combined {
            Combined::Table(table) => return table.smallest(k),
            Combined::Frame(frame) if !from_counts => {
                return (k_smallest_sorted(frame, ranges, parallel, k), Vec::new())
            }
            Combined::Frame(frame) => frame,
        };
        let rows = frame.values().iter().zip(frame.validity().as_slice());
        let zeros = rows
            .zip(0u32..)
            .filter(|((&v, &ok), _)| ok && v == 0.0)
            .map(|((&v, _), row)| (v, row))
            .take(k)
            .collect();
        (zeros, Vec::new())
    };
    match policy {
        DisplayPolicy::Percentage(p) => {
            let k = percentage_count(*p, n, m);
            finish(ranked(k), k)
        }
        DisplayPolicy::FitScreen {
            pixels,
            pixels_per_item,
        } => {
            let k = fit_screen_count(*pixels, *pixels_per_item, n, num_windows, m);
            finish(ranked(k), k)
        }
        DisplayPolicy::GapHeuristic { rmin, rmax, z } => {
            if m == 0 {
                return Ok((Vec::new(), Vec::new(), Vec::new()));
            }
            let (rmin_eff, rmax_eff) = gap_bounds(*rmin, *rmax, m);
            // the gap statistic s_i looks z items past rmax, so rank up
            // to that bound before the scan
            let ranked_len = m.min(rmax_eff.saturating_add(*z).saturating_add(1));
            let ranked = ranked(ranked_len);
            let sorted: Vec<f64> = ranked.0.iter().map(|c| c.0).collect();
            let cut = gap_cutoff(&sorted, rmin_eff, rmax_eff, *z)? + 1;
            finish(ranked, cut)
        }
        DisplayPolicy::TwoSidedPercentage(p) => {
            let Some(win) = windows.first().filter(|w| w.signed) else {
                let k = percentage_count(*p, n, m);
                return finish(ranked(k), k);
            };
            let Some((lo, hi)) = two_sided_band(win, *p)? else {
                return Ok((Vec::new(), Vec::new(), Vec::new()));
            };
            // gather the quantile band, then sort only the selection —
            // identical to filtering a fully-sorted order
            let mut band: Vec<(f64, u32)> =
                chunk::map_range_list(ranges, parallel, |offset, len| {
                    (offset..offset + len)
                        .filter_map(|i| Some((combined.get(i)?, i as u32)))
                        .filter(|&(_, i)| in_two_sided_band(win, lo, hi, i as usize))
                        .collect::<Vec<_>>()
                })
                .concat();
            band.sort_unstable_by(rank_order);
            let patterns = match combined {
                Combined::Table(table) => {
                    let of = |c: &(f64, u32)| table.pattern(c.1 as usize);
                    band.iter().filter_map(of).collect()
                }
                Combined::Frame(_) => Vec::new(),
            };
            let shown = band.len();
            finish((band, patterns), shown)
        }
    }
}

/// Above this many items the distance passes fan out across the chunked
/// worker pool (see [`crate::chunk`]); kept as a named constant for the
/// benches and tests that pin workloads on either side of the threshold.
pub const PARALLEL_THRESHOLD: usize = chunk::PAR_MIN_ROWS;

/// Display selection over a fully sorted `order` — the scalar
/// reference's (and the pure scan's) side of the policy math above.
fn select_display(
    combined: &Combined,
    order: &[u32],
    policy: &DisplayPolicy,
    num_windows: usize,
    windows: Option<&[PredicateWindow]>,
) -> Result<Vec<usize>> {
    let n = combined.len();
    let defined = order.len();
    let prefix = |k: usize| order[..k].iter().map(|&i| i as usize).collect();
    let k = match policy {
        DisplayPolicy::FitScreen {
            pixels,
            pixels_per_item,
        } => fit_screen_count(*pixels, *pixels_per_item, n, num_windows, defined),
        DisplayPolicy::Percentage(p) => percentage_count(*p, n, defined),
        DisplayPolicy::TwoSidedPercentage(p) => {
            // Two-sided display selection (§5.1): items whose *signed*
            // raw distance on the primary window lies between the
            // `α₀·(1−p)`- and `(α₀·(1−p)+p)`-quantiles, where `α₀` is the
            // fraction of negative distances; exact answers always
            // display.
            let Some(win) = windows.and_then(|w| w.first()).filter(|w| w.signed) else {
                return Ok(prefix(percentage_count(*p, n, defined)));
            };
            let Some((lo, hi)) = two_sided_band(win, *p)? else {
                return Ok(Vec::new());
            };
            return Ok(order
                .iter()
                .map(|&i| i as usize)
                .filter(|&i| in_two_sided_band(win, lo, hi, i))
                .collect());
        }
        DisplayPolicy::GapHeuristic { rmin, rmax, z } => {
            if defined == 0 {
                0
            } else {
                let sorted: Vec<f64> = order
                    .iter()
                    .filter_map(|&i| combined.get(i as usize))
                    .collect();
                let (rmin_eff, rmax_eff) = gap_bounds(*rmin, *rmax, defined);
                gap_cutoff(&sorted, rmin_eff, rmax_eff, *z)? + 1
            }
        }
    };
    Ok(prefix(k.min(defined)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use visdb_query::ast::{AttrRef, CompareOp, Predicate};
    use visdb_query::builder::QueryBuilder;
    use visdb_storage::TableBuilder;
    use visdb_types::{Column, DataType, Value};

    fn db_with_ramp(n: usize) -> Database {
        let mut b = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
        for i in 0..n {
            b = b.row(vec![Value::Float(i as f64)]).unwrap();
        }
        let mut db = Database::new("d");
        db.add_table(b.build());
        db
    }

    fn cond(op: CompareOp, v: f64) -> Weighted {
        Weighted::unit(ConditionNode::Predicate(Predicate::compare(
            AttrRef::new("x"),
            op,
            v,
        )))
    }

    #[test]
    fn exact_answers_rank_first() {
        let db = db_with_ramp(100);
        let t = db.table("T").unwrap();
        let r = DistanceResolver::new();
        let c = cond(CompareOp::Ge, 90.0);
        let out = run_pipeline(
            &db,
            t,
            &r,
            Some(&c),
            &DisplayPolicy::Percentage(50.0),
            PipelineOptions::default(),
        )
        .unwrap();
        assert_eq!(out.n, 100);
        assert_eq!(out.num_exact, 10); // x in 90..=99
                                       // the first 10 in order are the exact answers
        for &i in &out.order[..10] {
            assert_eq!(out.combined.get(i as usize), Some(0.0));
            assert_eq!(out.relevance(i as usize), Some(NORM_MAX));
        }
        // the ranking is monotone in combined distance and covers (at
        // least) the display set
        assert!(out.order.len() >= out.displayed.len());
        for w in out.order.windows(2) {
            assert!(out.combined.get(w[0] as usize) <= out.combined.get(w[1] as usize));
        }
        assert_eq!(out.displayed.len(), 50);
        // top-k engaged: only the displayed half was ranked
        assert_eq!(out.order.len(), 50);
    }

    #[test]
    fn percentage_policy_counts() {
        let db = db_with_ramp(200);
        let t = db.table("T").unwrap();
        let r = DistanceResolver::new();
        let c = cond(CompareOp::Ge, 100.0);
        let out = run_pipeline(
            &db,
            t,
            &r,
            Some(&c),
            &DisplayPolicy::Percentage(10.0),
            PipelineOptions::default(),
        )
        .unwrap();
        assert_eq!(out.displayed.len(), 20);
        assert!(run_pipeline(
            &db,
            t,
            &r,
            Some(&c),
            &DisplayPolicy::Percentage(0.0),
            PipelineOptions::default()
        )
        .is_err());
        assert!(run_pipeline(
            &db,
            t,
            &r,
            Some(&c),
            &DisplayPolicy::Percentage(150.0),
            PipelineOptions::default()
        )
        .is_err());
    }

    #[test]
    fn fit_screen_policy_divides_budget_among_windows() {
        let db = db_with_ramp(1000);
        let t = db.table("T").unwrap();
        let r = DistanceResolver::new();
        // two predicates -> 3 windows total (overall + 2)
        let q = QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, 500.0)
            .cmp("x", CompareOp::Lt, 600.0)
            .build();
        let c = q.condition.unwrap();
        let out = run_pipeline(
            &db,
            t,
            &r,
            Some(&c),
            &DisplayPolicy::FitScreen {
                pixels: 900,
                pixels_per_item: 1,
            },
            PipelineOptions::default(),
        )
        .unwrap();
        // p = 900 / (1000 * 3) = 0.3 -> 300 items
        assert_eq!(out.displayed.len(), 300);
        assert_eq!(out.windows.len(), 2);
    }

    #[test]
    fn gap_policy_cuts_at_the_gap() {
        // two clusters: 50 near answers, 50 far answers
        let mut b = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
        for i in 0..50 {
            b = b.row(vec![Value::Float(10.0 + i as f64 * 0.01)]).unwrap();
        }
        for i in 0..50 {
            b = b.row(vec![Value::Float(1000.0 + i as f64)]).unwrap();
        }
        let mut db = Database::new("d");
        db.add_table(b.build());
        let t = db.table("T").unwrap();
        let r = DistanceResolver::new();
        let c = cond(CompareOp::Le, 10.0);
        let out = run_pipeline(
            &db,
            t,
            &r,
            Some(&c),
            &DisplayPolicy::GapHeuristic {
                rmin: 10,
                rmax: 90,
                z: 5,
            },
            PipelineOptions::default(),
        )
        .unwrap();
        // the cut should land near the cluster boundary (50)
        assert!(
            (45..=55).contains(&out.displayed.len()),
            "displayed {} items",
            out.displayed.len()
        );
    }

    #[test]
    fn no_condition_is_all_exact() {
        let db = db_with_ramp(10);
        let t = db.table("T").unwrap();
        let r = DistanceResolver::new();
        let out = run_pipeline(
            &db,
            t,
            &r,
            None,
            &DisplayPolicy::Percentage(100.0),
            PipelineOptions::default(),
        )
        .unwrap();
        assert_eq!(out.num_exact, 10);
        assert_eq!(out.displayed.len(), 10);
        assert!(out.windows.is_empty());
    }

    #[test]
    fn windows_carry_signed_raw_distances() {
        let db = db_with_ramp(10);
        let t = db.table("T").unwrap();
        let r = DistanceResolver::new();
        let q = QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, 5.0)
            .cmp("x", CompareOp::Lt, 7.0)
            .build();
        let c = q.condition.unwrap();
        let out = run_pipeline(
            &db,
            t,
            &r,
            Some(&c),
            &DisplayPolicy::Percentage(100.0),
            PipelineOptions::default(),
        )
        .unwrap();
        assert_eq!(out.windows.len(), 2);
        let w0 = &out.windows[0];
        assert!(w0.signed);
        let raw = w0
            .raw_frame()
            .expect("a fit over every row keeps the frame");
        assert_eq!(raw.get(0), Some(-5.0)); // x=0 misses `>= 5` by 5
        assert_eq!(raw.get(5), Some(0.0));
        // normalized values live in [0, 255]
        for v in (0..out.n).filter_map(|i| w0.normalized_at(i)) {
            assert!((0.0..=NORM_MAX).contains(&v));
        }
        // distance-exact AND answers: x in 5..=7 (distance functions do
        // not distinguish < from <=, see visdb_distance::numeric) -> 3
        assert_eq!(out.num_exact, 3);
    }

    #[test]
    fn two_sided_policy_straddles_zero() {
        // target x = 500 on a 0..999 ramp: signed distances are negative
        // below and positive above; a 20% two-sided display must keep
        // items on BOTH sides of the target
        let db = db_with_ramp(1000);
        let t = db.table("T").unwrap();
        let r = DistanceResolver::new();
        let c = cond(CompareOp::Eq, 500.0);
        let out = run_pipeline(
            &db,
            t,
            &r,
            Some(&c),
            &DisplayPolicy::TwoSidedPercentage(20.0),
            PipelineOptions::default(),
        )
        .unwrap();
        assert!(!out.displayed.is_empty());
        let below = out.displayed.iter().filter(|&&i| i < 500).count();
        let above = out.displayed.iter().filter(|&&i| i > 500).count();
        assert!(below > 0 && above > 0, "below={below} above={above}");
        // roughly balanced for a symmetric ramp
        let ratio = below as f64 / above.max(1) as f64;
        assert!((0.5..=2.0).contains(&ratio), "ratio {ratio}");
        // ~20% of 1000 items
        assert!(
            (150..=260).contains(&out.displayed.len()),
            "{}",
            out.displayed.len()
        );
        // invalid percentages rejected
        assert!(run_pipeline(
            &db,
            t,
            &r,
            Some(&c),
            &DisplayPolicy::TwoSidedPercentage(0.0),
            PipelineOptions::default(),
        )
        .is_err());
    }

    #[test]
    fn two_sided_falls_back_for_unsigned_windows() {
        // a string-distance window carries no signs -> one-sided rule
        let mut b = TableBuilder::new("S", vec![Column::new("name", DataType::Str)]);
        for i in 0..10 {
            b = b.row(vec![Value::Str(format!("name{i}"))]).unwrap();
        }
        let mut db = Database::new("d");
        db.add_table(b.build());
        let t = db.table("S").unwrap();
        let r = DistanceResolver::new();
        let q = QueryBuilder::from_tables(["S"])
            .cmp("name", CompareOp::Eq, "name0")
            .build();
        let c = q.condition.unwrap();
        let out = run_pipeline(
            &db,
            t,
            &r,
            Some(&c),
            &DisplayPolicy::TwoSidedPercentage(50.0),
            PipelineOptions::default(),
        )
        .unwrap();
        assert_eq!(out.displayed.len(), 5);
    }

    #[test]
    fn parallel_evaluation_matches_sequential() {
        // above PARALLEL_THRESHOLD the windows are evaluated on threads;
        // results must be identical to the small-data sequential path
        let n = super::PARALLEL_THRESHOLD + 1_000;
        let db = db_with_ramp(n);
        let t = db.table("T").unwrap();
        let r = DistanceResolver::new();
        let q = QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, n as f64 * 0.9)
            .cmp("x", CompareOp::Lt, n as f64 * 0.95)
            .build();
        let c = q.condition.unwrap();
        let out = run_pipeline(
            &db,
            t,
            &r,
            Some(&c),
            &DisplayPolicy::Percentage(10.0),
            PipelineOptions::default(),
        )
        .unwrap();
        // sequential reference: evaluate each child by hand
        let ctx = crate::eval::EvalContext {
            db: &db,
            table: t,
            resolver: &r,
            display_budget: (n as f64 * 0.1).ceil() as usize,
            mode: ExecMode::Scalar,
            partitions: None,
            cancel: None,
        };
        let ConditionNode::And(children) = &c.node else {
            panic!("expected AND root");
        };
        for (win, child) in out.windows.iter().zip(children) {
            let seq = ctx.eval_node(&child.node).unwrap();
            let scalar = PredicateWindow::full(
                seq.label,
                seq.signed,
                1.0,
                (Arc::new(seq.distances), seq.stats),
                params_from_max(0.0),
            );
            assert_same_distances(win, &scalar, "parallel walk");
            let zeros = scalar.raw.as_ref().unwrap().iter();
            assert_eq!(
                win.zero_raw_count(),
                zeros.filter(|d| *d == Some(0.0)).count()
            );
        }
        // x >= 0.9 n has one exact answer fewer than its fit asks for,
        // x < 0.95 n many more: the count-guarded walk keeps the first
        // frame only
        let kept: Vec<bool> = out
            .windows
            .iter()
            .map(|w| w.raw_frame().is_some())
            .collect();
        assert_eq!(kept, [true, false]);
    }

    #[test]
    fn vectorized_matches_scalar_reference_end_to_end() {
        let db = db_with_ramp(3000);
        let t = db.table("T").unwrap();
        let r = DistanceResolver::new();
        let q = QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, 2500.0)
            .cmp("x", CompareOp::Lt, 2800.0)
            .build();
        let c = q.condition.unwrap();
        for policy in [
            DisplayPolicy::Percentage(20.0),
            DisplayPolicy::FitScreen {
                pixels: 900,
                pixels_per_item: 4,
            },
            DisplayPolicy::GapHeuristic {
                rmin: 10,
                rmax: 200,
                z: 5,
            },
            DisplayPolicy::TwoSidedPercentage(15.0),
        ] {
            let fast =
                run_pipeline(&db, t, &r, Some(&c), &policy, PipelineOptions::default()).unwrap();
            let slow = run_pipeline(
                &db,
                t,
                &r,
                Some(&c),
                &policy,
                PipelineOptions {
                    mode: ExecMode::Scalar,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(fast.combined, slow.combined, "{policy:?}");
            assert_eq!(relevance(&fast), relevance(&slow));
            assert_eq!(fast.num_exact, slow.num_exact);
            assert_eq!(fast.displayed, slow.displayed, "{policy:?}");
            if !matches!(policy, DisplayPolicy::TwoSidedPercentage(_)) {
                // one-sided policies: the top-k ranking equals the full
                // sort's prefix (two-sided rankings are the displayed
                // band, covered by the `displayed` equality above)
                assert_eq!(fast.order, slow.order[..fast.order.len()], "{policy:?}");
            }
            assert!(fast.order.len() < slow.order.len(), "top-k must engage");
            assert_eq!(slow.order.len(), 3000, "the scalar path sorts everything");
            for (fw, sw) in fast.windows.iter().zip(&slow.windows) {
                assert_eq!((&fw.label, fw.signed), (&sw.label, sw.signed));
                assert_same_distances(fw, sw, &format!("{policy:?}"));
                assert_eq!(fw.zero_raw_count(), sw.zero_raw_count(), "{policy:?}");
                assert_eq!(normalized(fw), normalized(sw));
                assert_eq!(fw.norm_params, sw.norm_params);
            }
        }
    }

    /// A vectorized window against the scalar oracle's: the same raw
    /// frame, or — a window kept as its bits — the oracle frame's bits;
    /// the same stats either way.
    fn assert_same_distances(fast: &PredicateWindow, slow: &PredicateWindow, what: &str) {
        let oracle = slow.raw_frame().expect("the oracle keeps its frames");
        match fast.raw_frame() {
            Some(raw) => assert!(raw.bits_eq(oracle), "{what}"),
            None => assert_eq!(fast.exact_bits(), &oracle.exact_bits(), "{what}"),
        }
        assert_eq!(fast.stats(), &FrameStats::of_frame(oracle), "{what}");
    }

    /// Every row's derived normalized distance.
    fn normalized(win: &PredicateWindow) -> Vec<Option<f64>> {
        (0..win.len()).map(|i| win.normalized_at(i)).collect()
    }

    /// Every item's relevance factor, through the accessor.
    fn relevance(out: &PipelineOutput) -> Vec<Option<f64>> {
        (0..out.n).map(|i| out.relevance(i)).collect()
    }

    #[test]
    fn shared_window_cache_round_trips() {
        use std::collections::HashMap;
        use std::sync::Mutex;

        #[derive(Default)]
        struct MapSource {
            map: Mutex<HashMap<String, PredicateWindow>>,
            hits: std::sync::atomic::AtomicUsize,
        }
        impl crate::cache::WindowSource for MapSource {
            fn lookup(
                &self,
                key: &str,
                usable: &dyn Fn(&PredicateWindow) -> bool,
            ) -> Option<PredicateWindow> {
                let got = self
                    .map
                    .lock()
                    .unwrap()
                    .get(key)
                    .filter(|w| usable(w))
                    .cloned();
                if got.is_some() {
                    self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                got
            }
            fn store(
                &self,
                key: String,
                window: PredicateWindow,
                _recipe: Option<crate::extend::WindowRecipe>,
            ) {
                self.map.lock().unwrap().insert(key, window);
            }
        }

        let db = db_with_ramp(500);
        let t = db.table("T").unwrap();
        let r = DistanceResolver::new();
        let q = QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, 300.0)
            .cmp("x", CompareOp::Lt, 400.0)
            .build();
        let c = q.condition.unwrap();
        let policy = DisplayPolicy::Percentage(25.0);
        let source = MapSource::default();
        let run = |sh: &MapSource| {
            run_pipeline(
                &db,
                t,
                &r,
                Some(&c),
                &policy,
                PipelineOptions {
                    shared: Some(SharedWindows {
                        scope: "ramp#1",
                        cache: sh,
                    }),
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let cold = run(&source);
        assert_eq!(source.map.lock().unwrap().len(), 2);
        assert_eq!(source.hits.load(std::sync::atomic::Ordering::Relaxed), 0);
        // a second run (think: another session) reuses both windows
        let warm = run(&source);
        assert_eq!(source.hits.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert_eq!(warm.combined, cold.combined);
        assert_eq!(warm.displayed, cold.displayed);
        // a modified predicate re-evaluates only itself: one more entry
        let q2 = QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, 350.0)
            .cmp("x", CompareOp::Lt, 400.0)
            .build();
        let c2 = q2.condition.unwrap();
        let out2 = run_pipeline(
            &db,
            t,
            &r,
            Some(&c2),
            &policy,
            PipelineOptions {
                shared: Some(SharedWindows {
                    scope: "ramp#1",
                    cache: &source,
                }),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(source.hits.load(std::sync::atomic::Ordering::Relaxed), 3);
        assert_eq!(source.map.lock().unwrap().len(), 3);
        // and is byte-identical to an uncached evaluation
        let reference =
            run_pipeline(&db, t, &r, Some(&c2), &policy, PipelineOptions::default()).unwrap();
        assert_eq!(out2.combined, reference.combined);
        assert_eq!(out2.displayed, reference.displayed);
    }

    #[test]
    fn root_fold_matches_the_serial_fold_at_lane_remainders() {
        let value = |i: usize| match i % 11 {
            0 | 1 => 0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => -0.0,
            _ => (i as f64 - 40.0) * 0.5,
        };
        // mask shapes: all defined, mixed, all undefined, one defined row
        let masks: [fn(usize) -> bool; 4] = [|_| true, |i| i % 3 != 0, |_| false, |i| i == 9];
        for n in [0usize, 1, 7, 8, 9, 16, 23, 64, 100] {
            for zeros_only in [false, true] {
                for defined in masks {
                    let vals: Vec<f64> = (0..n)
                        .map(|i| if zeros_only { 0.0 } else { value(i) })
                        .collect();
                    let mask: Vec<bool> = (0..n).map(defined).collect();
                    let mut acc = RootAcc::default();
                    acc.fold(&vals, &mask);
                    let rows = || {
                        vals.iter()
                            .zip(&mask)
                            .filter(|(_, &ok)| ok)
                            .map(|(&x, _)| x)
                    };
                    assert_eq!(acc.defined, rows().count(), "n={n}");
                    assert_eq!(acc.num_exact, rows().filter(|&x| x == 0.0).count(), "n={n}");
                    assert_eq!(acc.any_nonzero, rows().any(|x| x != 0.0), "n={n}");
                    let max = rows()
                        .map(f64::abs)
                        .filter(|a| a.is_finite())
                        .fold(f64::NEG_INFINITY, f64::max);
                    assert_eq!(acc.max_abs.to_bits(), max.to_bits(), "n={n}");
                }
            }
        }
    }

    /// `# results` read off the distance walk's stats is the count a scan
    /// of the raw frame finds: signed zeros are exact answers, NULL and
    /// NaN rows (undefined distances over a canonical 0.0) are not.
    #[test]
    fn zero_raw_count_is_the_scan_of_the_raw_frame() {
        let values = [0.0, -0.0, f64::NAN, 3.0, -0.0, 0.0, -7.5, f64::INFINITY];
        let rows: Vec<Option<f64>> = (0..40)
            .map(|i| (i % 10 != 9).then(|| values[i % 10 % values.len()]))
            .collect();
        let scanned = rows.iter().filter(|v| **v == Some(0.0)).count();
        assert_eq!(scanned, 20);
        let mut b = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
        for v in &rows {
            b = b.row(vec![v.map_or(Value::Null, Value::Float)]).unwrap();
        }
        let mut db = Database::new("d");
        db.add_table(b.build());
        let t = db.table("T").unwrap();
        let r = DistanceResolver::new();
        let c = cond(CompareOp::Eq, 0.0);
        let out = run_pipeline(
            &db,
            t,
            &r,
            Some(&c),
            &DisplayPolicy::Percentage(50.0),
            PipelineOptions::default(),
        )
        .unwrap();
        let win = &out.windows[0];
        assert_eq!(win.zero_raw_count(), scanned);
        // 20 exact answers cover the fit of 20 rows: the window is its bits
        assert!(win.raw_frame().is_none());
        assert_eq!(win.exact_bits().0.count_ones(), scanned);
        let ctx = EvalContext {
            db: &db,
            table: t,
            resolver: &r,
            display_budget: 20,
            mode: ExecMode::Scalar,
            partitions: None,
            cancel: None,
        };
        let raw = ctx.eval_node(&c.node).unwrap().distances;
        assert!(raw.iter().any(|d| d.is_some_and(|d| d.is_sign_negative())));
        let in_frame = raw.iter().filter(|d| *d == Some(0.0)).count();
        assert_eq!(in_frame, scanned);
    }

    /// The one-pass block kernel against the steps it fuses — the
    /// [`apply_slice`] normalization of each raw child, the per-row
    /// `and_row` fold and the chunk fold of [`RootAcc`] — at every block
    /// remainder, with fully-defined, mixed and empty mask words, as an
    /// `AND` of three children and as the single window at the root.
    #[test]
    fn block_kernel_matches_the_steps_it_fuses() {
        let raw = |i: usize, c: usize| match (i + 5 * c) % 13 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::NEG_INFINITY,
            _ => ((i * 7 + c) % 50) as f64 - 20.0,
        };
        // rows 8..16 are fully defined in every child, 16..24 in none
        let defined = |i: usize, c: usize| match i / WORD_ROWS {
            1 => true,
            2 => false,
            _ => !(i + c).is_multiple_of(4),
        };
        let params = [
            params_from_max(12.5),
            params_from_max(0.0),
            params_from_max(40.0),
        ];
        let weights = [1.0, 0.3, 0.05];
        for len in 0..=4 * WORD_ROWS + 3 {
            let vals: Vec<Vec<f64>> = (0..3)
                .map(|c| (0..len).map(|i| raw(i, c)).collect())
                .collect();
            let masks: Vec<Vec<bool>> = (0..3)
                .map(|c| (0..len).map(|i| defined(i, c)).collect())
                .collect();
            let normed = steps_normalize(&vals, &masks, &params);
            for children in [3usize, 1] {
                let want = steps_combine(&normed, (children == 3).then_some(&weights[..]));
                // the kernel: child 1 normalized already, the others on
                // the way
                let kids: Vec<Child<'_>> = (0..children)
                    .map(|c| match c {
                        1 => Child::Frame(&normed[1].0, &normed[1].1, None),
                        _ => Child::Frame(&vals[c], &masks[c], Some(params[c])),
                    })
                    .collect();
                let w = (children == 3).then_some(&weights[..]);
                assert_kernel_matches(&kids, (w, 0), &want, &format!("len={len} x{children}"));
            }
        }
    }

    /// The steps the block kernel fuses, one after the other: each
    /// child's [`apply_slice`] ...
    fn steps_normalize(
        vals: &[Vec<f64>],
        masks: &[Vec<bool>],
        params: &[NormParams],
    ) -> Vec<(Vec<f64>, Vec<bool>)> {
        (vals.iter().zip(masks).zip(params))
            .map(|((v, m), &p)| {
                let (mut ov, mut om) = (vec![f64::NAN; v.len()], vec![false; v.len()]);
                apply_slice(p, v, m, &mut ov, &mut om);
                (ov, om)
            })
            .collect()
    }

    /// ... then the per-row `and_row` over the `Option` view (the first
    /// child alone under `weights = None`).
    fn steps_combine(normed: &[(Vec<f64>, Vec<bool>)], weights: Option<&[f64]>) -> DistanceFrame {
        let children = weights.map_or(1, <[f64]>::len);
        let rows = 0..normed[0].0.len();
        let combined: Vec<Option<f64>> = rows
            .map(|i| {
                let row: Vec<Option<f64>> = normed[..children]
                    .iter()
                    .map(|(v, m)| m[i].then_some(v[i]))
                    .collect();
                weights.map_or(row[0], |w| reference::and_row(&row, w))
            })
            .collect();
        DistanceFrame::from_options(&combined)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Run the block kernel over `kids` and hold its output and its root
    /// fold to `want` and the chunk fold of `want`, bit for bit.
    fn assert_kernel_matches(
        kids: &[Child<'_>],
        (weights, offset): (Option<&[f64]>, usize),
        want: &DistanceFrame,
        what: &str,
    ) {
        let len = want.len();
        let mut want_acc = RootAcc::default();
        want_acc.fold(want.values(), want.validity().as_slice());
        let (mut cv, mut cm) = (vec![f64::NAN; len], vec![true; len]);
        let mut acc = RootAcc::default();
        combine_and_blocks(kids, weights, offset, &mut cv, &mut cm, Some(&mut acc));
        assert_eq!(bits(&cv), bits(want.values()), "{what}");
        assert_eq!(cm, want.validity().as_slice(), "{what}");
        assert_eq!(
            (acc.defined, acc.num_exact, acc.any_nonzero),
            (want_acc.defined, want_acc.num_exact, want_acc.any_nonzero),
            "{what}"
        );
        assert_eq!(acc.max_abs.to_bits(), want_acc.max_abs.to_bits(), "{what}");
    }

    /// The bit child and the pattern table against the steps they replace
    /// — `apply_slice` of the degenerate fit, `and_row`, the chunk fold
    /// and the in-place finalize — at every `len % 64` and `len % 8`
    /// (word and block remainders of the packed bits), at row offsets
    /// that read a byte across a word boundary, with mixed definedness,
    /// NaN / ±inf / `-0.0` distances and an all-undefined child.
    #[test]
    fn bit_children_and_the_pattern_table_match_the_steps_they_replace() {
        let raw = |i: usize, c: usize| match (i * (c + 2) + c) % 11 {
            0..=3 => 0.0,
            4 => -0.0,
            5 => f64::NAN,
            6 => f64::INFINITY,
            7 => f64::NEG_INFINITY,
            _ => (i % 17) as f64 - 8.0,
        };
        // child 0 is defined everywhere (its definedness bits are `None`)
        let masks: [fn(usize) -> bool; 4] = [|_| true, |i| i % 5 != 1, |i| i % 64 != 63, |_| false];
        let degenerate = params_from_max(0.0);
        let weights = [1.0, 0.3, 0.05];
        for len in (0..=200).chain([511, 512, 513]) {
            let frames: Vec<DistanceFrame> = (0..4)
                .map(|c| {
                    let rows = (0..len).map(|i| masks[c](i).then(|| raw(i, c)));
                    DistanceFrame::from_options(&rows.collect::<Vec<_>>())
                })
                .collect();
            let packed: Vec<_> = frames.iter().map(DistanceFrame::exact_bits).collect();
            assert!(packed[0].1.is_none() && (len == 0 || packed[3].1.is_some()));
            let pairs: Vec<_> = packed.iter().map(|(e, d)| (e, d.as_ref())).collect();
            let view = |c: usize, rows: std::ops::Range<usize>| {
                let f = &frames[c];
                let (v, m) = (&f.values()[rows.clone()], &f.validity().as_slice()[rows]);
                (v.to_vec(), m.to_vec())
            };
            // an unaligned start exercises the cross-word byte reads
            for offset in [0, 3.min(len), 61.min(len)] {
                let rows = offset..len;
                for set in [vec![0, 1, 2], vec![1], vec![0], vec![0, 3, 1], vec![3]] {
                    let (vals, ms): (Vec<_>, Vec<_>) =
                        set.iter().map(|&c| view(c, rows.clone())).unzip();
                    let normed = steps_normalize(&vals, &ms, &vec![degenerate; set.len()]);
                    let w = (set.len() > 1).then_some(&weights[..set.len()]);
                    let want = steps_combine(&normed, w);
                    let what = format!("len={len} offset={offset} children={set:?}");
                    // each child read from its own bits
                    let kids: Vec<Child<'_>> = set
                        .iter()
                        .map(|&c| Child::Bits(pairs[c].0, pairs[c].1))
                        .collect();
                    assert_kernel_matches(&kids, (w, offset), &want, &what);
                    // all of them derived as the root's pattern table:
                    // the counts give the fold, the table the final rows
                    if offset > 0 {
                        continue;
                    }
                    let mut want_acc = RootAcc::default();
                    want_acc.fold(want.values(), want.validity().as_slice());
                    let shared = |c: usize| Arc::new(OnceLock::from(packed[c].clone()));
                    let (table, acc) =
                        PatternTable::of(len, set.iter().map(|&c| shared(c)).collect(), w);
                    assert_eq!(
                        (acc.defined, acc.num_exact, acc.any_nonzero),
                        (want_acc.defined, want_acc.num_exact, want_acc.any_nonzero),
                        "{what}"
                    );
                    assert_eq!(acc.max_abs.to_bits(), want_acc.max_abs.to_bits(), "{what}");
                    let mut finished = want.clone();
                    finalize_combined(&mut finished, &want_acc, &[(0, len)], false);
                    let table = Combined::Table(table);
                    assert_eq!(table.len(), len, "{what}");
                    assert!(table.bits_eq(&Combined::Frame(finished)), "{what}");
                }
            }
            // a mixed root: two-valued children beside one under a real fit
            let fitted = params_from_max(6.5);
            let (vals, ms): (Vec<_>, Vec<_>) = (0..3).map(|c| view(c, 0..len)).unzip();
            let normed = steps_normalize(&vals, &ms, &[degenerate, fitted, degenerate]);
            let want = steps_combine(&normed, Some(&weights));
            let kids = [
                Child::Bits(pairs[0].0, pairs[0].1),
                Child::Frame(&vals[1], &ms[1], Some(fitted)),
                Child::Bits(pairs[2].0, pairs[2].1),
            ];
            let what = format!("mixed len={len}");
            assert_kernel_matches(&kids, (Some(&weights), 0), &want, &what);
        }
    }

    /// `normalized_at` derives what the stored normalized frame held:
    /// [`crate::normalize::apply_frame`] of the raw frame under the
    /// window's fit, row by row and bit for bit.
    #[test]
    fn normalized_at_is_the_frame_it_replaces() {
        let values = [0.0, -0.0, f64::NAN, 3.0, -7.5, f64::INFINITY, 1e-300, 12.5];
        let rows: Vec<Option<f64>> = (0..60)
            .map(|i| (i % 9 != 4).then(|| values[i % values.len()]))
            .collect();
        let raw = DistanceFrame::from_options(&rows);
        let stats = FrameStats::of_frame(&raw);
        for params in [
            params_from_max(0.0),
            params_from_max(5.0),
            params_from_max(1e-300),
        ] {
            let stored = crate::normalize::apply_frame(&raw, params);
            let win = PredicateWindow::full(
                "w".into(),
                true,
                1.0,
                (Arc::new(raw.clone()), stats),
                params,
            );
            let derived = DistanceFrame::from_options(&normalized(&win));
            assert!(derived.bits_eq(&stored), "{params:?}");
            assert_eq!(win.normalized_at(rows.len()), None);
            if params == params_from_max(0.0) {
                // under `dmax = 0` the window's bits alone derive it
                let bits_only = PredicateWindow {
                    raw: None,
                    bits: Arc::new(OnceLock::from(raw.exact_bits())),
                    ..win
                };
                let derived = DistanceFrame::from_options(&normalized(&bits_only));
                assert!(derived.bits_eq(&stored));
                assert_eq!(bits_only.normalized_at(rows.len()), None);
                assert_eq!(bits_only.len(), rows.len());
            }
        }
    }

    #[test]
    fn all_exact_stays_zero_after_normalization() {
        let db = db_with_ramp(5);
        let t = db.table("T").unwrap();
        let r = DistanceResolver::new();
        let c = cond(CompareOp::Ge, 0.0); // everything fulfils
        let out = run_pipeline(
            &db,
            t,
            &r,
            Some(&c),
            &DisplayPolicy::Percentage(100.0),
            PipelineOptions::default(),
        )
        .unwrap();
        assert_eq!(out.num_exact, 5);
        assert!(out.combined.iter().all(|d| d == Some(0.0)));
    }
}
