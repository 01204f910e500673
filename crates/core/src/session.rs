//! The interactive VisDB session.
//!
//! Owns database + connections + query + display parameters, caches the
//! computed [`SessionResult`], and exposes every §4.3 interaction as a
//! method. "In the normal mode, the system recalculates the visualization
//! after each modification of the query. The user may also switch to an
//! 'auto recalculate off' mode where queries are only recalculated on
//! demand."

use std::sync::Arc;

use visdb_arrange::{arrange_overall, ItemGrid, PixelsPerItem, SpiralIter};
use visdb_color::{Colormap, ColormapKind};
use visdb_distance::registry::{ColumnDistance, DistanceResolver};
use visdb_exec::CancelToken;
use visdb_index::SortedProjection;
use visdb_query::ast::{CompareOp, ConditionNode, PredicateTarget, Query, Weighted};
use visdb_query::connection::ConnectionRegistry;
use visdb_query::parser::parse_query;
use visdb_query::validate::validate;
use visdb_relevance::cache::{PipelineCache, WindowSource};
use visdb_relevance::eval::{EvalContext, ExecMode};
use visdb_relevance::normalize::{fit_k, NormParams};
use visdb_relevance::pipeline::{
    display_count, run_pipeline, DisplayPolicy, PipelineOptions, PipelineOutput, PipelineTrace,
    PredicateWindow, SharedWindows,
};
use visdb_relevance::slide::projected_compare;
use visdb_relevance::DistanceFrame;
use visdb_storage::{Database, Row, Table};
use visdb_types::{Error, Result, Value};

use crate::joins::{materialize_base, JoinOptions};
use crate::render::{Paint, PaintInputs, Picture};
use crate::sliders::{OverallPanel, Panel, SliderModel};

/// The cached computation of one query evaluation.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// The base relation: the database's own table (shared, not
    /// copied) or a bounded cross product materialised for this result.
    pub base: Arc<Table>,
    /// The relevance pipeline output.
    pub pipeline: PipelineOutput,
    /// The spiral arrangement of the displayed items.
    pub grid: ItemGrid,
}

/// The interactive answer of one slider drag ([`Session::drag_slider`]):
/// everything the §4.3 panel shows after a bound modification, without
/// the full O(n) pipeline artifacts (those are recomputed lazily by the
/// next [`Session::result`] call).
#[derive(Debug, Clone)]
pub struct SliderDrag {
    /// The items the display policy selects, in relevance order —
    /// bit-identical to `PipelineOutput::displayed` of a full recompute.
    pub displayed: Vec<usize>,
    /// Exact answers (combined distance 0) of the modified query.
    pub num_exact: usize,
    /// The dragged window's fitted normalization.
    pub norm_params: Option<NormParams>,
    /// True when the fast path served the drag from the dragged column's
    /// sorted projection on its table ([`Table::projection`]): O(log n)
    /// position arithmetic plus O(k) gathered rows. False means a full
    /// pipeline recompute ran.
    pub incremental: bool,
}

/// A drill-down view of one query part (§4.4: double-clicking a boolean
/// operator opens a visualization window for that subtree).
#[derive(Debug, Clone)]
pub struct DrilldownView {
    /// Pipeline output for the subtree (its own windows).
    pub pipeline: PipelineOutput,
    /// Arrangement: shared with the parent ("the same arrangement as for
    /// the overall result") or independent, per the `independent` flag
    /// passed to [`Session::drilldown`].
    pub grid: ItemGrid,
}

/// The panel last painted from a table root, and the arrangement it was
/// painted over while no result holds that: the §4.3 picture is a
/// function of the placed rows and what they are painted from, so a
/// recalculation that places the same rows (a re-weight under
/// `num_exact >= k` places the first `k` exact ones whatever the weights)
/// takes the arrangement back, and a render from the same inputs takes
/// the panel back.
#[derive(Default)]
pub(crate) struct Held {
    /// The dropped result's arrangement, until the next recalculation
    /// takes it back or replaces it.
    grid: Option<ItemGrid>,
    /// The panel painted over the current arrangement, and its inputs.
    pub(crate) picture: Option<(PaintInputs, Arc<Picture>)>,
}

/// An interactive VisDB session.
///
/// The database is held behind an [`Arc`]: any number of sessions —
/// across threads — share one loaded dataset with zero copies, which is
/// what the `visdb-service` serving layer builds on.
pub struct Session {
    db: Arc<Database>,
    registry: ConnectionRegistry,
    resolver: DistanceResolver,
    query: Option<Query>,
    policy: DisplayPolicy,
    join_opts: JoinOptions,
    window_w: usize,
    window_h: usize,
    ppi: PixelsPerItem,
    colormap: Colormap,
    auto_recalculate: bool,
    selected_item: Option<usize>,
    color_range: Option<(usize, f64, f64)>,
    result: Option<SessionResult>,
    /// The last panel painted from a table root, and its arrangement.
    pub(crate) held: Held,
    /// How the last render came by its panel, until taken.
    pub(crate) paint: Option<Paint>,
    /// §6 incremental recalculation: unchanged predicate windows are
    /// reused across query modifications.
    pipeline_cache: PipelineCache,
    /// Cross-session predicate-window reuse: a cache shared with other
    /// sessions over the same dataset generation (see
    /// [`Session::set_shared_windows`]).
    shared_windows: Option<(String, Arc<dyn WindowSource>)>,
    /// Collect a [`visdb_relevance::PipelineTrace`] on every
    /// recalculation (see [`Session::set_collect_trace`]).
    collect_trace: bool,
    /// Cooperative cancellation for the *current* request (see
    /// [`Session::set_cancel_token`]): pipeline runs poll it per chunk
    /// and stop with a structured error when it trips.
    cancel: Option<CancelToken>,
}

impl Session {
    /// New session over a shared database and its declared connections.
    ///
    /// Pass `Arc::new(db)` for a single-user session, or clone one
    /// `Arc<Database>` into many sessions to multiplex users over the
    /// same dataset (see `visdb-service`).
    pub fn new(db: Arc<Database>, registry: ConnectionRegistry) -> Self {
        Session {
            db,
            registry,
            resolver: DistanceResolver::new(),
            query: None,
            policy: DisplayPolicy::Percentage(25.0),
            join_opts: JoinOptions::default(),
            window_w: 64,
            window_h: 64,
            ppi: PixelsPerItem::One,
            colormap: Colormap::new(ColormapKind::VisDb),
            auto_recalculate: true,
            selected_item: None,
            color_range: None,
            result: None,
            held: Held::default(),
            paint: None,
            pipeline_cache: PipelineCache::new(),
            shared_windows: None,
            collect_trace: false,
            cancel: None,
        }
    }

    /// Attach (or clear) the cancellation/deadline token for requests
    /// executed from now on. The serving layer sets a fresh token per
    /// request and clears it after; pipeline runs poll the token once
    /// per 16k-row chunk and return [`Error::Cancelled`] /
    /// [`Error::DeadlineExceeded`] when it trips — leaving every cache
    /// layer untouched, so a re-ask is byte-identical to a cold run.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Recycle the session after a panic unwound through a request
    /// (the serving layer's poisoned-slot recovery): drop any result or
    /// incremental state a half-finished run may have left behind, so
    /// the next identical query recomputes from scratch — byte-identical
    /// to a cold run. Configuration (query, policy, weights, shared
    /// caches) is left exactly as the user set it.
    pub fn recover(&mut self) {
        self.result = None;
        self.held = Held::default();
        self.paint = None;
        self.pipeline_cache = PipelineCache::new();
        self.cancel = None;
    }

    /// Replace the distance resolver (application-specific distances).
    /// A custom resolver changes distance semantics, so any shared
    /// window cache attached earlier is detached — its entries would no
    /// longer be valid for this session.
    pub fn with_resolver(mut self, resolver: DistanceResolver) -> Self {
        self.resolver = resolver;
        self.shared_windows = None;
        self
    }

    /// Attach a predicate-window cache shared with other sessions (§6
    /// incremental reuse made cross-session: another user's slider drag
    /// leaves every unchanged window pre-evaluated for this one).
    ///
    /// `scope` must uniquely identify the dataset *generation* — the
    /// serving layer uses `name#generation` so sessions over a replaced
    /// dataset of the same name never share entries. Sessions with a
    /// non-default distance resolver must not share a cache (attaching
    /// one and then calling [`Session::with_resolver`] detaches it).
    /// Multi-table (sampled cross-product) bases never consult the
    /// shared cache — their row content is not identified by the key.
    pub fn set_shared_windows(&mut self, scope: impl Into<String>, cache: Arc<dyn WindowSource>) {
        self.shared_windows = Some((scope.into(), cache));
    }

    /// Move this session onto a new generation of its dataset after an
    /// **append** (`db` must hold the same tables with the old rows
    /// unchanged and new rows only at the end — the delta-generation
    /// contract of `visdb-service`):
    ///
    /// * the shared-cache scopes are re-pointed at the new generation
    ///   (the serving layer migrates the caches themselves first);
    /// * the cached [`SessionResult`] is invalidated — displayed sets
    ///   and normalizations may legitimately change under new data.
    ///
    /// The session carries no slider index: the next drag reads the new
    /// generation's sorted projection off its table, which
    /// [`Table::append_rows`] extended (a table with an empty slot builds
    /// it on the first ask).
    pub fn rebase(&mut self, db: Arc<Database>, scope: impl Into<String>) {
        self.db = db;
        // the per-session window cache fingerprints (table, rows,
        // budget) and would miss anyway; drop it eagerly so no code
        // path can ever consult pre-append entries
        self.pipeline_cache.invalidate();
        self.invalidate();
        if let Some((s, _)) = &mut self.shared_windows {
            *s = scope.into();
        }
    }

    /// Collect a per-phase [`visdb_relevance::PipelineTrace`] on every
    /// recalculation, retrievable through [`Session::last_trace`]. Off
    /// by default: the disabled path costs one branch per pipeline run
    /// and allocates nothing. Enabling drops a cached untraced result so
    /// the next lookup re-runs with tracing on.
    pub fn set_collect_trace(&mut self, on: bool) {
        if on && !self.collect_trace {
            // a cached result computed without tracing has no trace to
            // report; recompute lazily
            if self
                .result
                .as_ref()
                .is_some_and(|r| r.pipeline.trace.is_none())
            {
                self.invalidate();
            }
        }
        self.collect_trace = on;
    }

    /// The trace of the pipeline run behind the cached result, when trace
    /// collection is enabled ([`Session::set_collect_trace`]). `None`
    /// whenever no result is cached — in particular after a slider drag
    /// served by the sorted-projection fast path, which invalidates the
    /// result and runs no pipeline.
    pub fn last_trace(&self) -> Option<&PipelineTrace> {
        self.result
            .as_ref()
            .and_then(|r| r.pipeline.trace.as_deref())
    }

    /// How the last [`crate::render_session`] came by its panel — held,
    /// painted by pattern or row by row — or `None` when no render ran
    /// since the last call.
    pub fn take_paint(&mut self) -> Option<Paint> {
        self.paint.take()
    }

    /// The underlying database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// A new shared handle to the underlying database.
    pub fn shared_db(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    /// The current display policy.
    pub fn display_policy(&self) -> &DisplayPolicy {
        &self.policy
    }

    /// The declared connections.
    pub fn registry(&self) -> &ConnectionRegistry {
        &self.registry
    }

    /// Current colormap.
    pub fn colormap(&self) -> &Colormap {
        &self.colormap
    }

    /// Window dimensions in items.
    pub fn window_size(&self) -> (usize, usize) {
        (self.window_w, self.window_h)
    }

    /// Pixels per item.
    pub fn pixels_per_item(&self) -> PixelsPerItem {
        self.ppi
    }

    /// Currently highlighted (selected) item.
    pub fn selected_item(&self) -> Option<usize> {
        self.selected_item
    }

    /// Toggle automatic recalculation (§4.3 "'auto recalculate off' mode
    /// ... useful for large databases").
    pub fn set_auto_recalculate(&mut self, on: bool) {
        self.auto_recalculate = on;
    }

    /// Set the display policy (percentage slider / pixel budget / gap
    /// heuristic). "Note that changing the percentage of data being
    /// displayed may completely change the visualization since the
    /// distance values are normalized according to the new range."
    pub fn set_display_policy(&mut self, policy: DisplayPolicy) -> Result<()> {
        self.policy = policy;
        self.invalidate();
        self.maybe_recalculate()
    }

    /// Set the window dimensions (items per window).
    pub fn set_window_size(&mut self, w: usize, h: usize) -> Result<()> {
        if w == 0 || h == 0 {
            return Err(Error::invalid_parameter("window", "dimensions must be > 0"));
        }
        self.window_w = w;
        self.window_h = h;
        self.invalidate();
        self.maybe_recalculate()
    }

    /// Set how many pixels represent one item.
    pub fn set_pixels_per_item(&mut self, ppi: PixelsPerItem) -> Result<()> {
        self.ppi = ppi;
        self.invalidate();
        self.maybe_recalculate()
    }

    /// Switch the colormap (rendering only; no recalculation needed).
    pub fn set_colormap(&mut self, kind: ColormapKind) {
        self.colormap = Colormap::new(kind);
    }

    /// Bound cross-product materialisation. Drops the incremental window
    /// cache: different sampling can produce a same-size base relation
    /// with different rows.
    pub fn set_join_options(&mut self, opts: JoinOptions) -> Result<()> {
        self.join_opts = opts;
        self.pipeline_cache.invalidate();
        self.invalidate();
        self.maybe_recalculate()
    }

    /// Incremental-recalculation statistics: how many predicate windows
    /// were reused vs re-evaluated across modifications (§6).
    pub fn cache_stats(&self) -> (usize, usize) {
        (self.pipeline_cache.hits, self.pipeline_cache.misses)
    }

    /// Install a query (validated against the catalog).
    pub fn set_query(&mut self, query: Query) -> Result<()> {
        validate(&self.db, &query)?;
        self.query = Some(query);
        self.selected_item = None;
        self.color_range = None;
        self.invalidate();
        self.maybe_recalculate()
    }

    /// Parse and install a query from the mini SQL dialect.
    pub fn set_query_text(&mut self, text: &str) -> Result<()> {
        let q = parse_query(text, &self.registry)?;
        self.set_query(q)
    }

    /// The current query.
    pub fn query(&self) -> Option<&Query> {
        self.query.as_ref()
    }

    fn invalidate(&mut self) {
        if let Some(res) = self.result.take() {
            self.held.grid = Some(res.grid);
        }
    }

    fn maybe_recalculate(&mut self) -> Result<()> {
        if self.auto_recalculate && self.query.is_some() {
            self.recalculate()
        } else {
            Ok(())
        }
    }

    /// Force recalculation (the on-demand mode's "recalculate" button).
    pub fn recalculate(&mut self) -> Result<()> {
        let query = self
            .query
            .as_ref()
            .ok_or_else(|| Error::invalid_query("no query installed"))?;
        let base = materialize_base(&self.db, query, &self.join_opts)?;
        // the shared cache key identifies the base by (table, row count);
        // sampled cross products can collide on both, so only plain
        // single-table bases participate
        let shared = self
            .shared_windows
            .as_ref()
            .filter(|_| query.tables.len() == 1)
            .map(|(scope, cache)| SharedWindows {
                scope,
                cache: cache.as_ref(),
            });
        let pipeline = run_pipeline(
            &self.db,
            &base,
            &self.resolver,
            query.condition.as_ref(),
            &self.policy,
            PipelineOptions {
                cache: Some(&mut self.pipeline_cache),
                shared,
                trace: self.collect_trace,
                cancel: self.cancel.as_ref(),
                ..Default::default()
            },
        )?;
        let grid = self.arrange(&pipeline.displayed);
        self.result = Some(SessionResult {
            base,
            pipeline,
            grid,
        });
        Ok(())
    }

    /// The spiral arrangement of `displayed` in the session's window: the
    /// held one when it places the same rows in a window of the same
    /// size, otherwise a new one, with no panel held over it.
    fn arrange(&mut self, displayed: &[usize]) -> ItemGrid {
        let (w, h) = (self.window_w, self.window_h);
        let places = |grid: &ItemGrid| {
            (grid.width(), grid.height()) == (w, h)
                && grid.occupied() == displayed.len().min(w * h)
                && (SpiralIter::new(w, h).zip(displayed))
                    .all(|((x, y), &item)| grid.get(x, y) == Some(item as u32))
        };
        match self.held.grid.take() {
            Some(grid) if places(&grid) => grid,
            _ => {
                self.held.picture = None;
                arrange_overall(displayed, w, h)
            }
        }
    }

    /// The cached result, recalculating if needed.
    pub fn result(&mut self) -> Result<&SessionResult> {
        if self.result.is_none() {
            self.recalculate()?;
        }
        Ok(self.result.as_ref().expect("just recalculated"))
    }

    /// The cached result without recalculation (None when stale).
    pub fn cached_result(&self) -> Option<&SessionResult> {
        self.result.as_ref()
    }

    // ----- query modification (the sliders) -------------------------------

    fn top_level_mut(query: &mut Query, idx: usize) -> Result<&mut Weighted> {
        let cond = query
            .condition
            .as_mut()
            .ok_or_else(|| Error::invalid_query("query has no condition"))?;
        if matches!(cond.node, ConditionNode::And(_) | ConditionNode::Or(_)) {
            match &mut cond.node {
                ConditionNode::And(cs) | ConditionNode::Or(cs) => cs
                    .get_mut(idx)
                    .ok_or_else(|| Error::invalid_parameter("window", format!("no window {idx}"))),
                _ => unreachable!("matched above"),
            }
        } else if idx == 0 {
            Ok(cond)
        } else {
            Err(Error::invalid_parameter(
                "window",
                format!("no window {idx}"),
            ))
        }
    }

    /// Replace the target of the `idx`-th top-level predicate (dragging
    /// its slider). Errors if that window is not a simple predicate.
    pub fn set_predicate_target(&mut self, idx: usize, target: PredicateTarget) -> Result<()> {
        {
            let query = self
                .query
                .as_mut()
                .ok_or_else(|| Error::invalid_query("no query installed"))?;
            let w = Self::top_level_mut(query, idx)?;
            match &mut w.node {
                ConditionNode::Predicate(p) => p.target = target,
                other => {
                    return Err(Error::invalid_query(format!(
                        "window {idx} is not a simple predicate (found {})",
                        match other {
                            ConditionNode::Connection(_) => "a connection",
                            ConditionNode::Subquery { .. } => "a subquery",
                            _ => "a boolean subtree",
                        }
                    )))
                }
            }
        }
        validate(&self.db, self.query.as_ref().expect("query present"))?;
        self.invalidate();
        self.maybe_recalculate()
    }

    /// A slider drag (§4.3 / §6): replace the target of the `idx`-th
    /// top-level predicate like [`Session::set_predicate_target`], but
    /// answer the *interactive* questions — which items display, how
    /// many exact answers, the window's normalization — through the
    /// sorted-projection fast path whenever the query shape allows:
    /// a single-table, single-window monotone numeric comparison under a
    /// top-k display policy. On that path everything is read off the
    /// column's sorted projection on its table ([`Table::projection`],
    /// built once per dataset generation and shared by every session):
    /// the fit is O(log n) position arithmetic, the exact answers are one
    /// position range of the permutation (§6: the data a modified bound
    /// needs is found by position, the base relation is not re-read), and
    /// only O(k) candidate rows are gathered and sorted: O(log n + k) in
    /// all, plus at most one sequential walk of the column's per-row
    /// values when the displayed items come from a band too wide to
    /// gather (the §5.2 clamp plateau, a heavy duplicate, a wide exact
    /// band) — see [`SortedProjection::smallest_rows_in`].
    ///
    /// The returned [`SliderDrag`] is **bit-identical** (displayed set,
    /// exact count, norm params) to what a full recompute would produce
    /// (property-tested in `tests/properties.rs`); the full
    /// [`SessionResult`] artifacts are recomputed lazily on the next
    /// [`Session::result`] call. Queries outside the fast path's shape
    /// fall back to a full recompute of identical output, and so do the
    /// data shapes that put bit-exactness in doubt: `±inf` values, a
    /// distance that overflows, a magnitude spread that could underflow a
    /// nonzero distance to 0. The width of a band is never a reason.
    pub fn drag_slider(&mut self, idx: usize, target: PredicateTarget) -> Result<SliderDrag> {
        {
            let query = self
                .query
                .as_mut()
                .ok_or_else(|| Error::invalid_query("no query installed"))?;
            let w = Self::top_level_mut(query, idx)?;
            match &mut w.node {
                ConditionNode::Predicate(p) => p.target = target,
                _ => {
                    return Err(Error::invalid_query(format!(
                        "window {idx} is not a simple predicate"
                    )))
                }
            }
        }
        validate(&self.db, self.query.as_ref().expect("query present"))?;
        self.invalidate();
        if let Some(drag) = self.try_incremental_drag()? {
            return Ok(drag);
        }
        self.recalculate()?;
        let res = self.result.as_ref().expect("just recalculated");
        Ok(SliderDrag {
            displayed: res.pipeline.displayed.clone(),
            num_exact: res.pipeline.num_exact,
            norm_params: res.pipeline.windows.get(idx).map(|w| w.norm_params),
            incremental: false,
        })
    }

    /// The sorted-projection fast path of [`Session::drag_slider`].
    /// Returns `Ok(None)` whenever the query, policy, column or data
    /// shape puts bit-exactness in doubt — the caller then runs the full
    /// pipeline instead.
    fn try_incremental_drag(&self) -> Result<Option<SliderDrag>> {
        let Some(query) = &self.query else {
            return Ok(None);
        };
        if query.tables.len() != 1 {
            return Ok(None);
        }
        let Some(cond) = &query.condition else {
            return Ok(None);
        };
        // exactly one top-level window, a bare predicate at the root
        let ConditionNode::Predicate(pred) = &cond.node else {
            return Ok(None);
        };
        let weight = cond.weight;
        // monotone numeric comparison with a finite threshold
        let (greater, t) = match &pred.target {
            PredicateTarget::Compare { op, value } => match (op, value.as_f64()) {
                (CompareOp::Gt | CompareOp::Ge, Some(t)) if t.is_finite() => (true, t),
                (CompareOp::Lt | CompareOp::Le, Some(t)) if t.is_finite() => (false, t),
                _ => return Ok(None),
            },
            _ => return Ok(None),
        };
        // the pipeline rejects out-of-range percentages; leave that to it
        if let DisplayPolicy::Percentage(p) | DisplayPolicy::TwoSidedPercentage(p) = &self.policy {
            if !(0.0..=100.0).contains(p) || *p <= 0.0 {
                return Ok(None);
            }
        }
        let table = self.db.table(&query.tables[0])?;
        let n = table.len();
        // resolve the column and its distance behaviour through the
        // evaluator's own logic — the fast path must see exactly the
        // column and semantics the pipeline would, so the resolution
        // rules live in one place (`EvalContext`), not two
        let ctx = EvalContext {
            db: &self.db,
            table,
            resolver: &self.resolver,
            display_budget: self.policy.budget(n),
            mode: ExecMode::Vectorized,
            partitions: None,
            cancel: self.cancel.as_ref(),
        };
        let Ok((_, dt, class, col_name)) = ctx.column(&pred.attr) else {
            return Ok(None);
        };
        // require plain numeric distance semantics (overrides change the
        // arithmetic)
        if !matches!(
            ctx.distance_for(&pred.attr, dt, class),
            ColumnDistance::Numeric
        ) {
            return Ok(None);
        }
        // the table's sorted projection of this column, built on the
        // first ask
        let id = table.schema().index_of(&col_name);
        let Some(proj) = id.and_then(|id| table.projection(id)) else {
            return Ok(None);
        };
        let m = proj.defined();
        let Some(k) = display_count(&self.policy, n, m, 1) else {
            return Ok(None);
        };
        let budget = self.policy.budget(n);
        if m == 0 {
            // nothing defined: the pipeline displays nothing and fits a
            // degenerate normalization
            return Ok(Some(SliderDrag {
                displayed: Vec::new(),
                num_exact: 0,
                norm_params: Some(NormParams {
                    dmin: 0.0,
                    dmax: 0.0,
                }),
                incremental: true,
            }));
        }

        // --- O(log n) position arithmetic on the sorted projection ----
        // exact answers occupy a contiguous band of sorted positions, and
        // the largest |d| is the far end's. `±inf` values make non-finite
        // distances, and finite column values can still overflow to an
        // infinite one (`t - x`): the pipeline's fit filters non-finite
        // distances out of the transform range, which the position
        // arithmetic cannot reproduce bit-exactly — fall back
        let Some((zeros, stats)) = projected_compare(proj, greater, t) else {
            return Ok(None);
        };
        let (e, zero_from, zero_to, max_abs) = (zeros.len(), zeros.start, zeros.end, stats.max_abs);
        let nonzero = m - e;
        // |d| of sorted position j (only valid outside the zero band);
        // uses the identical float ops as the distance kernels: for
        // x < t, |x - t| == t - x exactly (rounding is sign-symmetric)
        let abs_at = |proj: &SortedProjection, j: usize| {
            if greater {
                t - proj.value_at(j)
            } else {
                proj.value_at(j) - t
            }
        };
        // the §5.2 weight-proportional fit, by position instead of
        // selection: the k-th smallest |d| is a binary-searchable cut
        let dmax = match fit_k(n, weight, budget) {
            None => max_abs,
            Some(kf) => {
                let kf = kf.min(m);
                if kf == m {
                    max_abs
                } else {
                    let need = kf.saturating_sub(e);
                    if need == 0 {
                        0.0
                    } else if greater {
                        abs_at(proj, zero_from - need)
                    } else {
                        abs_at(proj, zero_to + need - 1)
                    }
                }
            }
        };
        let params1 = NormParams { dmin: 0.0, dmax };
        if nonzero > 0 && dmax > 0.0 {
            // decline when the magnitude spread risks `apply` underflowing
            // a nonzero distance to exactly 0 (it would miscount exacts)
            let min_pos = if greater {
                abs_at(proj, zero_from - 1)
            } else {
                abs_at(proj, zero_to)
            };
            if min_pos < dmax * 1e-300 {
                return Ok(None);
            }
        }
        // final combined distance = the pipeline's two-stage transform:
        // window normalization, then `normalize_combined` (skipped when
        // every defined item is exact, exactly like the pipeline)
        let params2 = NormParams {
            dmin: 0.0,
            dmax: params1.apply(max_abs),
        };
        let combined_of = |d_abs: f64| {
            let c1 = params1.apply(d_abs);
            if nonzero == 0 {
                c1
            } else {
                params2.apply(c1)
            }
        };

        // --- display selection: contiguous candidate bands -------------
        // Exact answers rank first and tie-break by row id: the smallest
        // row ids of the zero band, which the projection finds without
        // materializing a wide band.
        let mut displayed = proj.smallest_rows_in(zero_from, zero_to, k);
        if k > e {
            let needed = k - e;
            let combined_at = |j: usize| combined_of(abs_at(proj, j));
            // the `needed`-th closest non-exact item sets the boundary:
            // everything strictly closer displays (fewer than `needed`
            // rows), and the rest comes from the boundary's equal-combined
            // tie class — under a weight-1 fit the whole clamp plateau —
            // where ranks tie-break by row id
            let boundary = combined_at(if greater {
                zero_from - needed
            } else {
                zero_to + needed - 1
            });
            let (closer, ties) = if greater {
                // combined is non-increasing in j on [0, zero_from)
                let tie_lo = partition_pos(0, zero_from, |j| combined_at(j) > boundary);
                let tie_hi = partition_pos(tie_lo, zero_from, |j| combined_at(j) >= boundary);
                (tie_hi..zero_from, tie_lo..tie_hi)
            } else {
                // combined is non-decreasing in j on [zero_to, m)
                let tie_lo = partition_pos(zero_to, m, |j| combined_at(j) < boundary);
                let tie_hi = partition_pos(tie_lo, m, |j| combined_at(j) <= boundary);
                (zero_to..tie_lo, tie_lo..tie_hi)
            };
            let mut cand: Vec<(f64, usize)> =
                closer.map(|j| (combined_at(j), proj.row_at(j))).collect();
            cand.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let from_ties = needed - cand.len();
            displayed.extend(cand.into_iter().map(|(_, row)| row));
            displayed.extend(proj.smallest_rows_in(ties.start, ties.end, from_ties));
        }
        Ok(Some(SliderDrag {
            displayed,
            num_exact: e,
            norm_params: Some(params1),
            incremental: true,
        }))
    }

    /// Set the weighting factor of the `idx`-th top-level window.
    pub fn set_weight(&mut self, idx: usize, weight: f64) -> Result<()> {
        if !weight.is_finite() || weight < 0.0 {
            return Err(Error::invalid_parameter(
                "weight",
                "must be finite and >= 0",
            ));
        }
        {
            let query = self
                .query
                .as_mut()
                .ok_or_else(|| Error::invalid_query("no query installed"))?;
            Self::top_level_mut(query, idx)?.weight = weight;
        }
        self.invalidate();
        self.maybe_recalculate()
    }

    /// Set the connection parameter of the `idx`-th top-level window
    /// (e.g. nudging the expected time difference).
    pub fn set_connection_params(&mut self, idx: usize, params: Vec<f64>) -> Result<()> {
        {
            let query = self
                .query
                .as_mut()
                .ok_or_else(|| Error::invalid_query("no query installed"))?;
            let w = Self::top_level_mut(query, idx)?;
            match &mut w.node {
                ConditionNode::Connection(u) => {
                    if params.len() != u.def.kind.arity() {
                        return Err(Error::invalid_parameter(
                            "params",
                            format!("connection expects {} params", u.def.kind.arity()),
                        ));
                    }
                    u.params = params;
                }
                _ => {
                    return Err(Error::invalid_query(format!(
                        "window {idx} is not a connection"
                    )))
                }
            }
        }
        self.invalidate();
        self.maybe_recalculate()
    }

    // ----- exploration -----------------------------------------------------

    /// Select a data item: returns its full tuple and highlights it in
    /// every window ("to get the data item highlighted in all
    /// visualization parts and the values for the attributes displayed in
    /// the 'selected tuple' field", §4.3).
    pub fn select_tuple(&mut self, item: usize) -> Result<Row> {
        let res = self.result()?;
        let row = res.base.row(item)?;
        self.selected_item = Some(item);
        Ok(row)
    }

    /// Clear the tuple selection.
    pub fn clear_selection(&mut self) {
        self.selected_item = None;
    }

    /// Select a color range on window `window_idx` (normalized distance
    /// interval `[lo, hi]` in 0..=255). Returns the displayed items whose
    /// distance for that window falls in the range — "to get only those
    /// data items displayed that have the selected color for the
    /// considered attribute" (§4.3).
    pub fn select_color_range(
        &mut self,
        window_idx: usize,
        lo: f64,
        hi: f64,
    ) -> Result<Vec<usize>> {
        if !(0.0..=255.0).contains(&lo) || !(0.0..=255.0).contains(&hi) || lo > hi {
            return Err(Error::invalid_parameter(
                "color range",
                format!("need 0 <= lo <= hi <= 255, got [{lo}, {hi}]"),
            ));
        }
        let res = self.result()?;
        let win =
            res.pipeline.windows.get(window_idx).ok_or_else(|| {
                Error::invalid_parameter("window", format!("no window {window_idx}"))
            })?;
        let items: Vec<usize> = res
            .pipeline
            .displayed
            .iter()
            .copied()
            .filter(|&i| matches!(win.normalized_at(i), Some(d) if d >= lo && d <= hi))
            .collect();
        self.color_range = Some((window_idx, lo, hi));
        Ok(items)
    }

    /// Clear the color-range selection.
    pub fn clear_color_range(&mut self) {
        self.color_range = None;
    }

    /// The optional fig 1b visualization (§4.2): place the displayed
    /// items by the *sign* of their distances on two predicate windows
    /// (negative left/bottom, positive right/top), sorted by relevance
    /// from the middle outwards. Both windows must carry signed
    /// distances (metric or ordinal attributes).
    pub fn arrange_2d(&mut self, window_x: usize, window_y: usize) -> Result<ItemGrid> {
        let (w, h) = (self.window_w, self.window_h);
        for idx in [window_x, window_y] {
            if !self.window(idx)?.signed {
                return Err(Error::invalid_query(
                    "the 2D arrangement needs signed distances on both axes \
                     (metric or ordinal attributes)",
                ));
            }
        }
        let (dx, dy) = (self.raw_distances(window_x)?, self.raw_distances(window_y)?);
        let res = self.result.as_ref().expect("cached by raw_distances()");
        // displayed items in relevance order, with their signed distances
        let items: Vec<visdb_arrange::grouped2d::Item2D> = res
            .pipeline
            .displayed
            .iter()
            .filter_map(|&i| match (dx.get(i), dy.get(i)) {
                (Some(dx), Some(dy)) => Some(visdb_arrange::grouped2d::Item2D { item: i, dx, dy }),
                _ => None,
            })
            .collect();
        Ok(visdb_arrange::arrange_grouped2d(&items, w, h))
    }

    /// Top-level window `idx` of the current result.
    fn window(&mut self, idx: usize) -> Result<&PredicateWindow> {
        let res = self.result()?;
        res.pipeline
            .windows
            .get(idx)
            .ok_or_else(|| Error::invalid_parameter("window", format!("no window {idx}")))
    }

    /// The raw signed distances of top-level window `idx` of the current
    /// result: the window's own frame, or — for a window the pipeline
    /// kept as its exact-answer bits alone — its condition evaluated
    /// again over the result's base relation (one distance pass).
    pub fn raw_distances(&mut self, idx: usize) -> Result<Arc<DistanceFrame>> {
        if let Some(raw) = self.window(idx)?.raw_frame() {
            return Ok(Arc::clone(raw));
        }
        let res = self.result.as_ref().expect("cached by window()");
        let cond = (self.query.as_ref())
            .and_then(|q| q.condition.as_ref())
            .expect("a result with windows has a condition");
        let node = match &cond.node {
            ConditionNode::And(cs) | ConditionNode::Or(cs) => &cs[idx].node,
            leaf => leaf,
        };
        let ctx = EvalContext {
            db: &self.db,
            table: &res.base,
            resolver: &self.resolver,
            display_budget: self.policy.budget(res.base.len()),
            mode: ExecMode::Vectorized,
            partitions: None,
            cancel: None,
        };
        Ok(Arc::new(ctx.eval_node(node)?.distances))
    }

    /// Drill down into a query part by child-index path from the root
    /// condition (§4.4: double-clicking a boolean operator box). With
    /// `independent = false` the items keep the overall arrangement; with
    /// `true` they are re-sorted by the subtree's own relevance.
    pub fn drilldown(&mut self, path: &[usize], independent: bool) -> Result<DrilldownView> {
        let query = self
            .query
            .as_ref()
            .ok_or_else(|| Error::invalid_query("no query installed"))?
            .clone();
        let cond = query
            .condition
            .as_ref()
            .ok_or_else(|| Error::invalid_query("query has no condition"))?;
        let sub = cond
            .node
            .descend(path)
            .ok_or_else(|| Error::invalid_parameter("path", "no such query part"))?
            .clone();
        let (w, h) = (self.window_w, self.window_h);
        let policy = self.policy.clone();
        // ensure the main result exists (for the shared arrangement)
        let _ = self.result()?;
        let res = self.result.as_ref().expect("cached");
        let sub_weighted = Weighted::unit(sub);
        let pipeline = run_pipeline(
            &self.db,
            &res.base,
            &self.resolver,
            Some(&sub_weighted),
            &policy,
            PipelineOptions {
                cancel: self.cancel.as_ref(),
                ..Default::default()
            },
        )?;
        let grid = if independent {
            arrange_overall(&pipeline.displayed, w, h)
        } else {
            res.grid.clone()
        };
        Ok(DrilldownView { pipeline, grid })
    }

    // ----- the panel -------------------------------------------------------

    /// Build the modification panel (the right side of fig 4/5).
    pub fn panel(&mut self) -> Result<Panel> {
        let selected = self.selected_item;
        let color_range = self.color_range;
        self.result()?; // ensure the cache is fresh
        let query = self.query.as_ref().expect("query ran");
        let res = self.result.as_ref().expect("cached by result()");
        let overall = OverallPanel {
            num_objects: res.pipeline.n,
            num_displayed: res.pipeline.displayed.len(),
            pct_displayed: res.pipeline.displayed_fraction(),
            num_results: res.pipeline.num_exact,
        };
        let top: Vec<&Weighted> = match query.condition.as_ref().map(|c| &c.node) {
            Some(ConditionNode::And(cs)) | Some(ConditionNode::Or(cs)) => cs.iter().collect(),
            Some(_) => vec![query.condition.as_ref().expect("present")],
            None => Vec::new(),
        };
        let mut sliders = Vec::with_capacity(res.pipeline.windows.len());
        for (i, win) in res.pipeline.windows.iter().enumerate() {
            let node = top.get(i).map(|w| &w.node);
            let mut s = SliderModel {
                label: win.label.clone(),
                weight: win.weight,
                num_results: win.zero_raw_count(),
                ..Default::default()
            };
            if let Some(ConditionNode::Predicate(p)) = node {
                s.attr = Some(p.attr.column.clone());
                // database min/max from column stats
                if let Ok(col_id) = res
                    .base
                    .schema()
                    .require(res.base.name(), &p.attr.column)
                    .or_else(|_| match &p.attr.table {
                        Some(t) => res
                            .base
                            .schema()
                            .require(res.base.name(), &format!("{t}.{}", p.attr.column)),
                        None => Err(Error::UnknownColumn {
                            table: res.base.name().into(),
                            column: p.attr.column.clone(),
                        }),
                    })
                {
                    let stats = res.base.stats(col_id)?;
                    s.db_min = stats.min;
                    s.db_max = stats.max;
                    let col = res.base.column(col_id)?;
                    let mut lo = f64::INFINITY;
                    let mut hi = f64::NEG_INFINITY;
                    for &item in &res.pipeline.displayed {
                        if let Some(v) = col.get_f64(item) {
                            lo = lo.min(v);
                            hi = hi.max(v);
                        }
                    }
                    if lo.is_finite() {
                        s.displayed_min = Some(lo);
                        s.displayed_max = Some(hi);
                    }
                    if let Some(item) = selected {
                        s.selected_tuple = Some(col.get(item));
                    }
                    // first/last of color for the active color range
                    if let Some((wi, clo, chi)) = color_range {
                        if wi == i {
                            let mut vlo = f64::INFINITY;
                            let mut vhi = f64::NEG_INFINITY;
                            for &item in &res.pipeline.displayed {
                                if let Some(d) = win.normalized_at(item) {
                                    if d >= clo && d <= chi {
                                        if let Some(v) = col.get_f64(item) {
                                            vlo = vlo.min(v);
                                            vhi = vhi.max(v);
                                        }
                                    }
                                }
                            }
                            if vlo.is_finite() {
                                s.first_of_color = Some(vlo);
                                s.last_of_color = Some(vhi);
                            }
                        }
                    }
                }
                s.query_range = Some(match &p.target {
                    PredicateTarget::Compare { op, value } => {
                        use visdb_query::ast::CompareOp::*;
                        let v = value.as_f64();
                        match op {
                            Gt | Ge => (v, None),
                            Lt | Le => (None, v),
                            Eq | Ne => (v, v),
                        }
                    }
                    PredicateTarget::Range { low, high } => (low.as_f64(), high.as_f64()),
                    PredicateTarget::Around { center, deviation } => {
                        let c = center.as_f64();
                        (c.map(|c| c - deviation), c.map(|c| c + deviation))
                    }
                });
            }
            sliders.push(s);
        }
        Ok(Panel { overall, sliders })
    }
}

/// Convenience for examples: a value as `f64` or NaN.
pub fn value_as_f64(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

/// First index in `[lo, hi)` where the monotone predicate flips to
/// false (`pred` must be true on a prefix). The slider fast path's
/// binary search over sorted-projection positions.
fn partition_pos(lo: usize, hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut a, mut b) = (lo, hi);
    while a < b {
        let mid = a + (b - a) / 2;
        if pred(mid) {
            a = mid + 1;
        } else {
            b = mid;
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use visdb_query::ast::CompareOp;
    use visdb_query::builder::QueryBuilder;
    use visdb_storage::TableBuilder;
    use visdb_types::{Column, DataType};

    fn session_with_ramp(n: usize) -> Session {
        let mut b = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
        for i in 0..n {
            b = b.row(vec![Value::Float(i as f64)]).unwrap();
        }
        let mut db = Database::new("d");
        db.add_table(b.build());
        Session::new(Arc::new(db), ConnectionRegistry::new())
    }

    #[test]
    fn query_runs_and_caches() {
        let mut s = session_with_ramp(100);
        s.set_query(
            QueryBuilder::from_tables(["T"])
                .cmp("x", CompareOp::Ge, 90.0)
                .build(),
        )
        .unwrap();
        let res = s.result().unwrap();
        assert_eq!(res.pipeline.num_exact, 10);
        assert!(res.grid.occupied() > 0);
        assert!(s.cached_result().is_some());
    }

    #[test]
    fn auto_recalculate_off_defers() {
        let mut s = session_with_ramp(50);
        s.set_auto_recalculate(false);
        s.set_query(
            QueryBuilder::from_tables(["T"])
                .cmp("x", CompareOp::Ge, 25.0)
                .build(),
        )
        .unwrap();
        assert!(s.cached_result().is_none());
        s.recalculate().unwrap();
        assert!(s.cached_result().is_some());
    }

    #[test]
    fn slider_modification_changes_results() {
        let mut s = session_with_ramp(100);
        s.set_query(
            QueryBuilder::from_tables(["T"])
                .cmp("x", CompareOp::Ge, 90.0)
                .build(),
        )
        .unwrap();
        assert_eq!(s.result().unwrap().pipeline.num_exact, 10);
        s.set_predicate_target(
            0,
            PredicateTarget::Compare {
                op: CompareOp::Ge,
                value: Value::Float(50.0),
            },
        )
        .unwrap();
        assert_eq!(s.result().unwrap().pipeline.num_exact, 50);
    }

    #[test]
    fn weight_modification() {
        let mut s = session_with_ramp(100);
        s.set_query(
            QueryBuilder::from_tables(["T"])
                .cmp("x", CompareOp::Ge, 50.0)
                .cmp("x", CompareOp::Lt, 60.0)
                .build(),
        )
        .unwrap();
        s.set_weight(1, 0.2).unwrap();
        let res = s.result().unwrap();
        assert_eq!(res.pipeline.windows[1].weight, 0.2);
        assert!(s.set_weight(5, 0.5).is_err());
        assert!(s.set_weight(0, f64::NAN).is_err());
    }

    #[test]
    fn select_tuple_and_highlight() {
        let mut s = session_with_ramp(10);
        s.set_query(
            QueryBuilder::from_tables(["T"])
                .cmp("x", CompareOp::Ge, 5.0)
                .build(),
        )
        .unwrap();
        let row = s.select_tuple(7).unwrap();
        assert_eq!(row[0], Value::Float(7.0));
        assert_eq!(s.selected_item(), Some(7));
        s.clear_selection();
        assert_eq!(s.selected_item(), None);
    }

    #[test]
    fn color_range_projection() {
        let mut s = session_with_ramp(100);
        s.set_display_policy(DisplayPolicy::Percentage(100.0))
            .unwrap();
        s.set_query(
            QueryBuilder::from_tables(["T"])
                .cmp("x", CompareOp::Ge, 99.0)
                .build(),
        )
        .unwrap();
        // yellow band: exact answers only
        let exact = s.select_color_range(0, 0.0, 0.0).unwrap();
        assert_eq!(exact.len(), 1);
        // whole spectrum: everything displayed
        let all = s.select_color_range(0, 0.0, 255.0).unwrap();
        assert_eq!(all.len(), 100);
        assert!(s.select_color_range(0, 10.0, 5.0).is_err());
        assert!(s.select_color_range(9, 0.0, 255.0).is_err());
    }

    #[test]
    fn drilldown_or_part() {
        let mut s = session_with_ramp(100);
        s.set_query(
            QueryBuilder::from_tables(["T"])
                .cmp("x", CompareOp::Ge, 90.0)
                .cmp("x", CompareOp::Lt, 5.0)
                .any()
                .between("x", 0.0, 100.0)
                .build(),
        )
        .unwrap();
        // root is AND(OR(...), range); drill into the OR part
        let view = s.drilldown(&[0], false).unwrap();
        assert_eq!(view.pipeline.windows.len(), 2);
        // shared arrangement equals the main grid
        let main_grid = s.result().unwrap().grid.clone();
        assert_eq!(view.grid, main_grid);
        let indep = s.drilldown(&[0], true).unwrap();
        assert_eq!(indep.pipeline.windows.len(), 2);
        assert!(s.drilldown(&[9], false).is_err());
    }

    #[test]
    fn panel_fields() {
        let mut s = session_with_ramp(100);
        s.set_display_policy(DisplayPolicy::Percentage(50.0))
            .unwrap();
        s.set_query(
            QueryBuilder::from_tables(["T"])
                .cmp("x", CompareOp::Ge, 80.0)
                .build(),
        )
        .unwrap();
        s.select_tuple(99).unwrap();
        let panel = s.panel().unwrap();
        assert_eq!(panel.overall.num_objects, 100);
        assert_eq!(panel.overall.num_displayed, 50);
        assert!((panel.overall.pct_displayed - 0.5).abs() < 1e-9);
        assert_eq!(panel.overall.num_results, 20);
        let sl = &panel.sliders[0];
        assert_eq!(sl.attr.as_deref(), Some("x"));
        assert_eq!(sl.db_min, Some(0.0));
        assert_eq!(sl.db_max, Some(99.0));
        assert_eq!(sl.query_range, Some((Some(80.0), None)));
        assert_eq!(sl.num_results, 20);
        assert_eq!(sl.selected_tuple, Some(Value::Float(99.0)));
        // displayed values concentrate on the top of the ramp (items past
        // the normalization range all clamp to 255 and tie, so a stray
        // low item may slip in — the dominant mass must be x >= 50)
        assert_eq!(sl.displayed_max, Some(99.0));
        let res = s.result().unwrap();
        let high = res.pipeline.displayed.iter().filter(|&&i| i >= 50).count();
        assert!(high >= 45, "only {high} of 50 displayed items are x >= 50");
    }

    #[test]
    fn first_last_of_color() {
        let mut s = session_with_ramp(100);
        s.set_display_policy(DisplayPolicy::Percentage(100.0))
            .unwrap();
        s.set_query(
            QueryBuilder::from_tables(["T"])
                .cmp("x", CompareOp::Ge, 99.0)
                .build(),
        )
        .unwrap();
        // distances: 99-x normalized; pick the yellow-ish band
        s.select_color_range(0, 0.0, 64.0).unwrap();
        let panel = s.panel().unwrap();
        let sl = &panel.sliders[0];
        assert!(sl.first_of_color.is_some());
        assert!(sl.last_of_color.unwrap() <= 99.0);
        assert!(
            sl.first_of_color.unwrap() >= 70.0,
            "{:?}",
            sl.first_of_color
        );
    }

    #[test]
    fn incremental_cache_reuses_unchanged_windows() {
        let mut s = session_with_ramp(100);
        s.set_query(
            QueryBuilder::from_tables(["T"])
                .cmp("x", CompareOp::Ge, 50.0)
                .cmp("x", CompareOp::Lt, 80.0)
                .build(),
        )
        .unwrap();
        let (h0, m0) = s.cache_stats();
        assert_eq!(h0, 0);
        assert_eq!(m0, 2); // first run evaluates both windows
                           // nudge only the first slider: the second window is reused
        s.set_predicate_target(
            0,
            PredicateTarget::Compare {
                op: CompareOp::Ge,
                value: Value::Float(55.0),
            },
        )
        .unwrap();
        let (h1, m1) = s.cache_stats();
        assert_eq!(h1, 1, "unchanged window must be a cache hit");
        assert_eq!(m1, 3);
        // and the cached run is still correct: distance-exact answers are
        // x in 55..=80 (boundaries are distance-0, see visdb_distance)
        assert_eq!(s.result().unwrap().pipeline.num_exact, 26);
    }

    #[test]
    fn arrange_2d_places_items_by_sign() {
        let mut s = session_with_ramp(100);
        s.set_display_policy(DisplayPolicy::Percentage(100.0))
            .unwrap();
        s.set_window_size(20, 20).unwrap();
        s.set_query(
            QueryBuilder::from_tables(["T"])
                .cmp("x", CompareOp::Eq, 50.0)
                .cmp("x", CompareOp::Eq, 50.0)
                .build(),
        )
        .unwrap();
        let grid = s.arrange_2d(0, 1).unwrap();
        assert!(grid.occupied() > 0);
        // an item below the target (x = 10 -> dx = dy = -40) must sit in
        // the left-bottom quadrant; one above in the right-top
        let (lx, ly) = grid.position_of(10).unwrap();
        assert!(lx < 10 && ly >= 10, "({lx},{ly})");
        let (hx, hy) = grid.position_of(90).unwrap();
        assert!(hx >= 10 && hy < 10, "({hx},{hy})");
        // the exact answer sits in the center block
        let (cx, cy) = grid.position_of(50).unwrap();
        assert!(
            (8..=11).contains(&cx) && (8..=11).contains(&cy),
            "({cx},{cy})"
        );
        assert!(s.arrange_2d(0, 7).is_err());
    }

    #[test]
    fn arrange_2d_rejects_unsigned_windows() {
        let mut t = TableBuilder::new(
            "S",
            vec![
                Column::new("x", DataType::Float),
                Column::new("name", DataType::Str),
            ],
        );
        t = t.row(vec![Value::Float(1.0), Value::from("a")]).unwrap();
        let mut db = Database::new("d");
        db.add_table(t.build());
        let mut s = Session::new(Arc::new(db), ConnectionRegistry::new());
        s.set_query(
            QueryBuilder::from_tables(["S"])
                .cmp("x", CompareOp::Eq, 1.0)
                .cmp("name", CompareOp::Eq, "a") // string: unsigned
                .build(),
        )
        .unwrap();
        assert!(s.arrange_2d(0, 1).is_err());
    }

    /// Drag via the fast path and via a full recompute on a *fresh*
    /// session; the interactive answers must be bit-identical.
    fn assert_drag_matches_full(
        make: impl Fn() -> Session,
        targets: &[PredicateTarget],
        expect_incremental: bool,
    ) {
        let mut fast = make();
        for target in targets {
            let drag = fast.drag_slider(0, target.clone()).unwrap();
            assert_eq!(
                drag.incremental, expect_incremental,
                "fast-path engagement for {target:?}"
            );
            let mut full = make();
            full.set_predicate_target(0, target.clone()).unwrap();
            let res = full.result().unwrap();
            assert_eq!(drag.displayed, res.pipeline.displayed, "{target:?}");
            assert_eq!(drag.num_exact, res.pipeline.num_exact, "{target:?}");
            assert_eq!(
                drag.norm_params,
                res.pipeline.windows.first().map(|w| w.norm_params),
                "{target:?}"
            );
            let (w, h) = (res.grid.width(), res.grid.height());
            assert_eq!(
                arrange_overall(&drag.displayed, w, h),
                res.grid,
                "{target:?}"
            );
            // and the dragged session's own lazy full recompute agrees
            let lazy = fast.result().unwrap();
            assert_eq!(drag.displayed, lazy.pipeline.displayed);
        }
    }

    fn ge(t: f64) -> PredicateTarget {
        PredicateTarget::Compare {
            op: CompareOp::Ge,
            value: Value::Float(t),
        }
    }

    fn lt(t: f64) -> PredicateTarget {
        PredicateTarget::Compare {
            op: CompareOp::Lt,
            value: Value::Float(t),
        }
    }

    #[test]
    fn drag_slider_matches_full_recompute_bit_for_bit() {
        let make = || {
            let mut s = session_with_ramp(500);
            s.set_display_policy(DisplayPolicy::Percentage(10.0))
                .unwrap();
            s.set_query(
                QueryBuilder::from_tables(["T"])
                    .cmp("x", CompareOp::Ge, 450.0)
                    .build(),
            )
            .unwrap();
            s
        };
        assert_drag_matches_full(
            make,
            &[
                ge(430.0),
                ge(470.0),
                ge(499.0),
                ge(600.0),
                ge(-5.0),
                lt(100.0),
                lt(0.5),
            ],
            true,
        );
    }

    #[test]
    fn drag_slider_handles_nulls_nans_and_duplicates() {
        let make = || {
            let mut b = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
            for i in 0..400 {
                let v = match i % 9 {
                    0 => Value::Null,
                    1 => Value::Float(f64::NAN),
                    2 | 3 => Value::Float((i / 9) as f64), // duplicates
                    _ => Value::Float(((i * 37) % 211) as f64),
                };
                b = b.row(vec![v]).unwrap();
            }
            let mut db = Database::new("d");
            db.add_table(b.build());
            let mut s = Session::new(Arc::new(db), ConnectionRegistry::new());
            s.set_display_policy(DisplayPolicy::FitScreen {
                pixels: 300,
                pixels_per_item: 1,
            })
            .unwrap();
            s.set_query(
                QueryBuilder::from_tables(["T"])
                    .cmp("x", CompareOp::Ge, 100.0)
                    .build(),
            )
            .unwrap();
            s
        };
        assert_drag_matches_full(make, &[ge(90.0), ge(120.0), ge(120.0), lt(40.0)], true);
    }

    #[test]
    fn drag_slider_contained_nudges_stay_on_the_fast_path_and_equal_a_full_recompute() {
        let make = || {
            let mut s = session_with_ramp(2000);
            s.set_display_policy(DisplayPolicy::Percentage(2.0))
                .unwrap();
            s.set_query(
                QueryBuilder::from_tables(["T"])
                    .cmp("x", CompareOp::Ge, 1500.0)
                    .build(),
            )
            .unwrap();
            s
        };
        // tightening drags, each inside the previous bound's exact band:
        // every one reads its band off the projection, no recompute
        let nudges: Vec<PredicateTarget> = [1500.0, 1510.0, 1525.0, 1550.0, 1580.0]
            .into_iter()
            .map(ge)
            .collect();
        assert_drag_matches_full(make, &nudges, true);
    }

    #[test]
    fn drag_slider_declines_on_distance_overflow() {
        // finite column values whose distance overflows to +inf: the
        // pipeline's fit filters non-finite distances, so the fast path
        // must fall back rather than fit an infinite range
        let make = || {
            let mut b = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
            for v in [1e308, -1e308, 0.0, 5.0] {
                b = b.row(vec![Value::Float(v)]).unwrap();
            }
            let mut db = Database::new("d");
            db.add_table(b.build());
            let mut s = Session::new(Arc::new(db), ConnectionRegistry::new());
            s.set_display_policy(DisplayPolicy::Percentage(100.0))
                .unwrap();
            s.set_query(
                QueryBuilder::from_tables(["T"])
                    .cmp("x", CompareOp::Ge, 0.0)
                    .build(),
            )
            .unwrap();
            s
        };
        assert_drag_matches_full(make, &[ge(1e308)], false);
    }

    #[test]
    fn drag_slider_falls_back_outside_the_fast_path() {
        // two predicates: the combined distance mixes windows, so the
        // fast path declines and a full recompute serves the drag
        let make = || {
            let mut s = session_with_ramp(300);
            s.set_query(
                QueryBuilder::from_tables(["T"])
                    .cmp("x", CompareOp::Ge, 200.0)
                    .cmp("x", CompareOp::Lt, 280.0)
                    .build(),
            )
            .unwrap();
            s
        };
        assert_drag_matches_full(make, &[ge(150.0)], false);
        // equality predicates are not monotone: fallback, still correct
        let make_eq = || {
            let mut s = session_with_ramp(300);
            s.set_query(
                QueryBuilder::from_tables(["T"])
                    .cmp("x", CompareOp::Eq, 100.0)
                    .build(),
            )
            .unwrap();
            s
        };
        assert_drag_matches_full(
            make_eq,
            &[PredicateTarget::Compare {
                op: CompareOp::Eq,
                value: Value::Float(120.0),
            }],
            false,
        );
        // gap-heuristic selection is not a plain top-k: fallback
        let make_gap = || {
            let mut s = session_with_ramp(300);
            s.set_display_policy(DisplayPolicy::GapHeuristic {
                rmin: 5,
                rmax: 50,
                z: 3,
            })
            .unwrap();
            s.set_query(
                QueryBuilder::from_tables(["T"])
                    .cmp("x", CompareOp::Ge, 250.0)
                    .build(),
            )
            .unwrap();
            s
        };
        assert_drag_matches_full(make_gap, &[ge(240.0)], false);
    }

    #[test]
    fn rebase_drags_from_the_new_generations_projection() {
        let mut s = session_with_ramp(2000);
        s.set_display_policy(DisplayPolicy::Percentage(2.0))
            .unwrap();
        s.set_query(
            QueryBuilder::from_tables(["T"])
                .cmp("x", CompareOp::Ge, 1500.0)
                .build(),
        )
        .unwrap();
        // build the old generation's projection
        assert!(s.drag_slider(0, ge(1500.0)).unwrap().incremental);
        assert!(s.drag_slider(0, ge(1510.0)).unwrap().incremental);
        // new generation: same rows plus an appended tail, in a
        // hand-built database whose projection slot is empty
        let mut b = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
        for i in 0..2100 {
            b = b.row(vec![Value::Float(i as f64)]).unwrap();
        }
        let mut db2 = Database::new("d");
        db2.add_table(b.build());
        let db2 = Arc::new(db2);
        s.rebase(Arc::clone(&db2), "gen2");
        let table = db2.table("T").unwrap();
        assert!(table.built_projection(0).is_none());
        let d = s.drag_slider(0, ge(1520.0)).unwrap();
        assert!(d.incremental, "a drag after the rebase keeps the fast path");
        let built = Arc::clone(table.built_projection(0).expect("the drag built it"));
        assert_eq!(built.rows(), 2100);
        // bit-identical to a fresh session over the appended data
        let mut fresh = Session::new(Arc::clone(&db2), ConnectionRegistry::new());
        fresh
            .set_display_policy(DisplayPolicy::Percentage(2.0))
            .unwrap();
        fresh
            .set_query(
                QueryBuilder::from_tables(["T"])
                    .cmp("x", CompareOp::Ge, 1510.0)
                    .build(),
            )
            .unwrap();
        let f = fresh.drag_slider(0, ge(1520.0)).unwrap();
        assert_eq!(d.num_exact, f.num_exact);
        assert_eq!(d.displayed, f.displayed);
        assert_eq!(d.norm_params, f.norm_params);
        let full = fresh.result().unwrap();
        assert_eq!(
            d.displayed, full.pipeline.displayed,
            "and to its full recompute"
        );
        // a second drag reads the same build
        assert!(s.drag_slider(0, ge(1530.0)).unwrap().incremental);
        assert!(Arc::ptr_eq(
            &built,
            table.built_projection(0).expect("still built")
        ));
    }

    #[test]
    fn invalid_modifications_are_rejected() {
        let mut s = session_with_ramp(10);
        assert!(s.recalculate().is_err()); // no query yet
        s.set_query(
            QueryBuilder::from_tables(["T"])
                .cmp("x", CompareOp::Ge, 5.0)
                .build(),
        )
        .unwrap();
        assert!(s.set_window_size(0, 10).is_err());
        // modifying a predicate window as a connection fails
        assert!(s.set_connection_params(0, vec![1.0]).is_err());
    }
}
