//! Distance evaluation of condition trees over a data context.
//!
//! For every data item (row of the base relation — possibly a
//! materialised cross product for multi-table queries, §4.4) and every
//! node of the condition tree, compute the signed distance from
//! fulfilling that node. Leaves use `visdb-distance`; inner `AND`/`OR`
//! nodes normalize their children and combine them (§5.2, see
//! [`crate::combine`]).

use std::cell::RefCell;
use std::sync::Arc;

use visdb_distance::batch::{self, CompareKernel, NumericKernel};
use visdb_distance::frame::{DistanceFrame, ExactBits, FrameStats, PackedChunk};
use visdb_distance::registry::{ColumnDistance, DistanceResolver};
use visdb_distance::{geo, numeric, string, time};
use visdb_exec::{fault::Phase, CancelToken};
use visdb_index::{projection_key, ProjectionSource, SortedProjection};
use visdb_query::ast::{
    AttrRef, CompareOp, ConditionNode, Predicate, PredicateTarget, Query, SubqueryLink, Weighted,
};
use visdb_query::connection::{ConnectionKind, ConnectionUse};
use visdb_storage::{ColumnData, Database, NumericSlice, Table};
use visdb_types::{DataType, Error, Result, TypeClass, Value};

use crate::chunk;
use crate::combine::{combine_and_frames, combine_or_frames};
use crate::normalize::normalize_frame;
use crate::reference;

/// How distances are computed.
///
/// The two modes are **bit identical** in their results (property-tested
/// across policies, column types and NULL patterns); `Scalar` is kept as
/// the reference and benchmark baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Per-tuple reference path: one [`Value`] materialisation and enum
    /// dispatch per row, sequential, full final sort in the pipeline.
    Scalar,
    /// Columnar fast path: typed batch kernels over native column
    /// slices, chunked row-parallel execution, top-k display selection.
    #[default]
    Vectorized,
}

/// Everything needed to evaluate distances.
pub struct EvalContext<'a> {
    /// The catalog (needed to evaluate subqueries over their own tables).
    pub db: &'a Database,
    /// The base relation the distances are computed over. For multi-table
    /// queries this is the (bounded) cross product materialised by the
    /// session layer.
    pub table: &'a Table,
    /// Per-column distance configuration.
    pub resolver: &'a DistanceResolver,
    /// Display budget in items (the `r` of §5.1/§5.2), used by the
    /// weight-proportional normalization inside `AND`/`OR` combining.
    pub display_budget: usize,
    /// Columnar fast path vs per-tuple reference path.
    pub mode: ExecMode,
    /// Always `None`, its only value; nothing reads it. It remains only
    /// because the end-to-end benchmark harness (`visdb_e2e`, which
    /// changes on its own schedule) builds this struct by a literal that
    /// names it. The change that drops `partitions: None` from that
    /// literal deletes this field.
    pub partitions: Option<std::convert::Infallible>,
    /// Cooperative cancellation: when set, every chunk walk polls the
    /// token once per 16k-row chunk and fast-drains (skips chunk
    /// bodies) once it trips; the pipeline's phase checkpoints then
    /// turn the trip into [`Error::Cancelled`] /
    /// [`Error::DeadlineExceeded`] before any partial result can be
    /// cached or returned. `None` costs one branch per chunk.
    pub cancel: Option<&'a CancelToken>,
}

/// One pipeline run's handle on a shared [`ProjectionSource`]: lookups
/// go straight to the source, but what the run *builds* is held back
/// until [`RunProjections::publish`] — called at the run's single
/// cache-store point, past its last cancellation checkpoint — so an
/// interrupted or panicked run leaves the source exactly as it found it,
/// like the window caches. It travels as an argument of the evaluation
/// methods, not as an [`EvalContext`] field: a context without one sorts
/// per evaluation.
pub(crate) struct RunProjections<'a> {
    scope: &'a str,
    source: &'a dyn ProjectionSource,
    built: RefCell<Vec<(String, Arc<SortedProjection>)>>,
}

impl<'a> RunProjections<'a> {
    pub(crate) fn new((scope, source): (&'a str, &'a dyn ProjectionSource)) -> Self {
        RunProjections {
            scope,
            source,
            built: RefCell::new(Vec::new()),
        }
    }

    /// The projection of `column` over all `rows` rows of `table`: from
    /// the source, from an earlier build of this run, or built now.
    fn get_or_build(
        &self,
        table: &str,
        rows: usize,
        column: &str,
        build: impl FnOnce() -> SortedProjection,
    ) -> Arc<SortedProjection> {
        let key = projection_key(self.scope, table, rows, column);
        if let Some(found) = self.source.lookup(&key) {
            return found;
        }
        if let Some((_, earlier)) = self.built.borrow().iter().find(|(k, _)| *k == key) {
            return Arc::clone(earlier);
        }
        let projection = Arc::new(build());
        self.built.borrow_mut().push((key, Arc::clone(&projection)));
        projection
    }

    /// Hand this run's builds to the source.
    pub(crate) fn publish(self) {
        for (key, projection) in self.built.into_inner() {
            self.source.store(key, projection);
        }
    }
}

/// The evaluated distances of one condition node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeEval {
    /// Window title (predicate label, connection label, operator name).
    pub label: String,
    /// Whether the distances carry meaningful signs.
    pub signed: bool,
    /// Per-row signed distance in packed SoA form; an undefined row
    /// (§4.4 negation rules, NULL operands) has its validity bit cleared.
    pub distances: DistanceFrame,
    /// Reduction stats accumulated during the distance walk — the fused
    /// inputs of the §5.2 normalization fit.
    pub stats: FrameStats,
}

/// A top-level window's evaluation ([`EvalContext::eval_window`]): the
/// stats of its distance walk plus its raw frame, its packed exact bits,
/// or both.
pub(crate) struct WindowEval {
    pub(crate) label: String,
    pub(crate) signed: bool,
    /// `None`: the exact answers covered the fit count, so the walk kept
    /// only the bits.
    pub(crate) raw: Option<DistanceFrame>,
    pub(crate) stats: FrameStats,
    /// Folded by the walk of a predicate leaf evaluated under a fit count.
    pub(crate) bits: Option<ExactBits>,
    /// Ranges of that walk compare-packed straight from the column.
    pub(crate) chunks_compare_packed: usize,
}

/// One distance walk's per-range fill: rows `offset..offset + len` into
/// `(values, validity)` buffers of that length, returning their stats.
type RangeFill<'f> = dyn Fn(usize, &mut [f64], &mut [bool]) -> FrameStats + Sync + 'f;

/// One comparison window's per-range compare-and-pack: rows
/// `offset..offset + len` folded straight from the column, `None` where
/// the range takes the fill instead.
type RangePack<'f> = dyn Fn(usize, usize) -> Option<PackedChunk> + Sync + 'f;

impl<'a> EvalContext<'a> {
    /// Resolve an attribute against the context table. Qualified names try
    /// `Table.Column` first (cross products prefix colliding columns),
    /// then the bare column name.
    pub fn column(&self, attr: &AttrRef) -> Result<(&'a ColumnData, DataType, TypeClass, String)> {
        let schema = self.table.schema();
        let tried: Vec<String> = match &attr.table {
            Some(t) => vec![format!("{t}.{}", attr.column), attr.column.clone()],
            None => vec![attr.column.clone()],
        };
        for name in &tried {
            if let Some(id) = schema.index_of(name) {
                let col = schema.column(id).expect("resolved");
                return Ok((
                    self.table.column(id)?,
                    col.data_type,
                    col.type_class,
                    name.clone(),
                ));
            }
        }
        Err(Error::UnknownColumn {
            table: self.table.name().to_string(),
            column: tried.join(" / "),
        })
    }

    /// The distance behaviour the evaluator uses for `attr` — public so
    /// fast paths that must replicate the pipeline's semantics (the
    /// sorted-projection slider drag) resolve through the exact same
    /// logic instead of duplicating it.
    pub fn distance_for(&self, attr: &AttrRef, dt: DataType, class: TypeClass) -> ColumnDistance {
        let table_hint = attr.table.as_deref().unwrap_or(self.table.name());
        self.resolver.resolve(table_hint, &attr.column, dt, class)
    }

    /// Evaluate any condition node, returning per-row signed distances.
    /// Without a shared projection source: a §4.4 join sorts its inner
    /// key per evaluation.
    pub fn eval_node(&self, node: &ConditionNode) -> Result<NodeEval> {
        self.eval_node_with(node, None)
    }

    /// [`EvalContext::eval_node`] with the run's shared projections, which
    /// the §4.4 joins anywhere below `node` borrow their inner sorted
    /// key from.
    pub(crate) fn eval_node_with(
        &self,
        node: &ConditionNode,
        projections: Option<&RunProjections<'_>>,
    ) -> Result<NodeEval> {
        match node {
            ConditionNode::Predicate(p) => self.eval_predicate(p),
            ConditionNode::Not(inner) => self.eval_not(inner, projections),
            ConditionNode::Connection(c) => self.eval_connection(c),
            ConditionNode::Subquery { link, query } => self.eval_subquery(link, query, projections),
            ConditionNode::And(children) => self.eval_boolean(children, true, projections),
            ConditionNode::Or(children) => self.eval_boolean(children, false, projections),
        }
    }

    /// §5.2 re-normalization of a child before it is combined. The
    /// scalar reference fits by plain selection over the `Option` view
    /// ([`reference::normalize_improved`]); the vectorized mode fits from
    /// the fused stats and the pruned selection ([`normalize_frame`]).
    fn normalized(&self, e: &NodeEval, weight: f64) -> DistanceFrame {
        match self.mode {
            ExecMode::Scalar => DistanceFrame::from_options(
                &reference::normalize_improved(
                    &e.distances.to_options(),
                    weight,
                    self.display_budget,
                )
                .0,
            ),
            ExecMode::Vectorized => {
                normalize_frame(&e.distances, &e.stats, weight, self.display_budget).0
            }
        }
    }

    /// Inner `AND`/`OR` combining: normalize every child frame with the
    /// weight-proportional fit (served by the child's fused stats), then
    /// combine row-wise — the combined frame's stats come out of the same
    /// combine walk, ready for the parent's re-normalization.
    fn eval_boolean(
        &self,
        children: &[Weighted],
        and: bool,
        projections: Option<&RunProjections<'_>>,
    ) -> Result<NodeEval> {
        let evals: Vec<NodeEval> = children
            .iter()
            .map(|w| self.eval_node_with(&w.node, projections))
            .collect::<Result<_>>()?;
        let normed: Vec<DistanceFrame> = evals
            .iter()
            .zip(children.iter())
            .map(|(e, w)| self.normalized(e, w.weight))
            .collect();
        let refs: Vec<&DistanceFrame> = normed.iter().collect();
        let weights: Vec<f64> = children.iter().map(|w| w.weight).collect();
        let (distances, stats) = if and {
            combine_and_frames(&refs, &weights)?
        } else {
            combine_or_frames(&refs, &weights)?
        };
        Ok(NodeEval {
            label: if and { "AND" } else { "OR" }.to_string(),
            signed: false,
            distances,
            stats,
        })
    }

    /// Negation (§4.4): invertible comparison predicates get their
    /// operator inverted and keep graded distances. For every other node
    /// only boolean information survives: rows that *fail* the inner
    /// condition fulfil the negation (distance 0); rows that fulfil it
    /// have no meaningful distance (`None` — "no coloring is possible").
    fn eval_not(
        &self,
        inner: &ConditionNode,
        projections: Option<&RunProjections<'_>>,
    ) -> Result<NodeEval> {
        if let ConditionNode::Predicate(p) = inner {
            if let PredicateTarget::Compare { op, value } = &p.target {
                let flipped = Predicate {
                    attr: p.attr.clone(),
                    target: PredicateTarget::Compare {
                        op: op.inverted(),
                        value: value.clone(),
                    },
                };
                let mut e = self.eval_predicate(&flipped)?;
                e.label = format!("NOT {}", p.label());
                return Ok(e);
            }
        }
        let e = self.eval_node_with(inner, projections)?;
        let mut distances = DistanceFrame::undefined(e.distances.len());
        let mut stats = FrameStats::default();
        for (i, d) in e.distances.iter().enumerate() {
            if matches!(d, Some(x) if x != 0.0) {
                distances.set(i, Some(0.0));
                stats.record(0.0);
            }
        }
        Ok(NodeEval {
            label: format!("NOT {}", e.label),
            signed: false,
            distances,
            stats,
        })
    }

    /// Whether chunk walks may fan out across threads.
    fn parallel(&self) -> bool {
        self.mode == ExecMode::Vectorized
    }

    /// The distance walks' per-chunk cancellation poll: `true` means
    /// "skip this chunk body" (the walk fast-drains; the frame rows it
    /// leaves behind are garbage the pipeline's next checkpoint
    /// discards). One branch when no token is attached.
    #[inline]
    fn poll_cancel(&self) -> bool {
        self.cancel.is_some_and(|c| c.should_stop(Phase::Distance))
    }

    /// Fill `out.set(i, f(i))` for every row, accumulating the fused
    /// [`FrameStats`]. In `Vectorized` mode the rows are walked chunk by
    /// chunk, fanned out across the shared runtime; the
    /// `Scalar` reference runs the identical loop sequentially (stats
    /// merging is min/max/count, so both produce identical stats).
    fn fill_rows(
        &self,
        out: &mut DistanceFrame,
        f: impl Fn(usize) -> Option<f64> + Sync,
    ) -> FrameStats {
        chunk::for_each_frame_range(out, self.parallel(), |offset, vals, mask| {
            self.fill_chunk(offset, vals, mask, &f)
        })
    }

    /// One range of [`EvalContext::fill_rows`]: `f(offset + j)` into row
    /// `j`, stats fused.
    fn fill_chunk(
        &self,
        offset: usize,
        vals: &mut [f64],
        mask: &mut [bool],
        f: impl Fn(usize) -> Option<f64>,
    ) -> FrameStats {
        if self.poll_cancel() {
            return FrameStats::default();
        }
        let mut stats = FrameStats::default();
        for (j, (v, m)) in vals.iter_mut().zip(mask.iter_mut()).enumerate() {
            match f(offset + j) {
                Some(d) => {
                    *v = d;
                    *m = true;
                    stats.record(d);
                }
                None => {
                    *v = 0.0;
                    *m = false;
                }
            }
        }
        stats
    }

    /// One range of a typed batch kernel over a column with a native
    /// numeric buffer: the task slices the buffer and validity mask for
    /// its own row range ([`ColumnData::numeric_slice_at`]) and writes
    /// the packed rows, stats fused.
    fn kernel_chunk(
        &self,
        col: &ColumnData,
        kernel: NumericKernel,
        offset: usize,
        vals: &mut [f64],
        mask: &mut [bool],
    ) -> FrameStats {
        if self.poll_cancel() {
            return FrameStats::default();
        }
        let (slice, col_mask) = col
            .numeric_slice_at(offset, vals.len())
            .expect("a native numeric buffer");
        match slice {
            NumericSlice::F64(xs) => batch::run_frame(xs, col_mask, kernel, vals, mask),
            NumericSlice::I64(xs) => batch::run_frame(xs, col_mask, kernel, vals, mask),
        }
    }

    /// One range of [`batch::compare_pack`] over a column with a native
    /// numeric buffer: the range's stats and bits, or `None` when the
    /// kernel or the range's values decline (or the walk is cancelled).
    fn pack_chunk(
        &self,
        col: &ColumnData,
        kernel: NumericKernel,
        offset: usize,
        len: usize,
    ) -> Option<PackedChunk> {
        if self.poll_cancel() {
            return None;
        }
        let (slice, col_mask) = col
            .numeric_slice_at(offset, len)
            .expect("a native numeric buffer");
        match slice {
            NumericSlice::F64(xs) => batch::compare_pack(xs, col_mask, kernel),
            NumericSlice::I64(xs) => batch::compare_pack(xs, col_mask, kernel),
        }
    }

    /// The batch kernel equivalent to a predicate target, when one exists
    /// under the column's distance behaviour. `None` falls back to the
    /// generic per-tuple path (strings, matrices, geo, bool columns, and
    /// any application-supplied distance override).
    fn kernel_for(cd: &ColumnDistance, target: &PredicateTarget) -> Option<NumericKernel> {
        if !matches!(cd, ColumnDistance::Numeric) {
            return None;
        }
        match target {
            PredicateTarget::Compare { op, value } => {
                let kind = match op {
                    CompareOp::Gt | CompareOp::Ge => CompareKernel::Greater,
                    CompareOp::Lt | CompareOp::Le => CompareKernel::Less,
                    CompareOp::Eq => CompareKernel::Equal,
                    CompareOp::Ne => CompareKernel::NotEqual,
                };
                // a NULL or non-numeric literal makes every distance
                // undefined — same as the scalar path's `as_f64()?`
                Some(NumericKernel::Compare(kind, value.as_f64()))
            }
            PredicateTarget::Range { low, high } => match (low.as_f64(), high.as_f64()) {
                (Some(l), Some(h)) => Some(NumericKernel::InRange(l, h)),
                // non-numeric bounds take the generalised ordering path
                _ => None,
            },
            // `Around` is handled by the caller (it must error on a
            // non-numeric center before any distances are computed)
            PredicateTarget::Around { .. } => None,
        }
    }

    /// Dictionary-gather fast path for string-backed columns under a
    /// `String` or `Matrix` distance: the predicate is evaluated once per
    /// *distinct* column value — through the exact same
    /// [`compare_value_distance`]/[`range_value_distance`] the per-tuple
    /// reference runs — and every row is then served by one indexed load
    /// into that table. No per-row [`Value`] clone. Returns the per-range
    /// fill, or `None` when inapplicable (scalar mode, non-string column,
    /// numeric/geo distances, `Around` targets — which must keep their
    /// error path).
    fn predicate_gather<'s>(
        &'s self,
        col: &'s ColumnData,
        cd: &ColumnDistance,
        target: &PredicateTarget,
    ) -> Option<impl Fn(usize, &mut [f64], &mut [bool]) -> FrameStats + Sync + 's> {
        if self.mode != ExecMode::Vectorized
            || !matches!(cd, ColumnDistance::String(_) | ColumnDistance::Matrix(_))
            || matches!(target, PredicateTarget::Around { .. })
        {
            return None;
        }
        let (sc, col_mask) = col.str_column()?;
        let dict = sc.dict();
        let (tvals, tdef) = string::code_table(dict.values().iter().map(String::as_str), |u| {
            let v = Value::Str(u.to_owned());
            match target {
                PredicateTarget::Compare { op, value } => {
                    compare_value_distance(&v, *op, value, cd)
                }
                PredicateTarget::Range { low, high } => range_value_distance(&v, low, high, cd),
                PredicateTarget::Around { .. } => unreachable!("filtered above"),
            }
        });
        let codes = dict.codes();
        Some(move |offset: usize, vals: &mut [f64], mask: &mut [bool]| {
            if self.poll_cancel() {
                return FrameStats::default();
            }
            let c = &codes[offset..offset + vals.len()];
            let m = col_mask.map(|mm| &mm[offset..offset + vals.len()]);
            string::gather_table(c, m, &tvals, &tdef, vals, mask);
            FrameStats::of_slice(vals, mask)
        })
    }

    /// Hand the per-range fill of a predicate leaf to `walk`, which picks
    /// the walk around it (a full frame, or a window's count-guarded
    /// walk): a typed batch kernel over the column's native buffer, the
    /// dictionary gather, or the per-tuple reference fill. A typed
    /// kernel also offers its compare-and-pack. Returns what `walk`
    /// returns and whether the distances are signed.
    fn with_predicate_fill<R>(
        &self,
        p: &Predicate,
        walk: impl FnOnce(&RangeFill<'_>, Option<&RangePack<'_>>) -> R,
    ) -> Result<(R, bool)> {
        let (col, dt, class, _) = self.column(&p.attr)?;
        let cd = self.distance_for(&p.attr, dt, class);
        let signed = cd.is_signed();
        let native = self.mode == ExecMode::Vectorized && col.numeric_slice().is_some();
        if let Some(kernel) = Self::kernel_for(&cd, &p.target).filter(|_| native) {
            return Ok((
                walk(
                    &|o, v, m| self.kernel_chunk(col, kernel, o, v, m),
                    Some(&|o, len| self.pack_chunk(col, kernel, o, len)),
                ),
                signed,
            ));
        }
        if let Some(gather) = self.predicate_gather(col, &cd, &p.target) {
            return Ok((walk(&gather, None), signed));
        }
        let walked = match &p.target {
            PredicateTarget::Compare { op, value } => walk(
                &|o, v, m| self.fill_chunk(o, v, m, |i| compare_distance(col, i, *op, value, &cd)),
                None,
            ),
            PredicateTarget::Range { low, high } => walk(
                &|o, v, m| self.fill_chunk(o, v, m, |i| range_distance(col, i, low, high, &cd)),
                None,
            ),
            PredicateTarget::Around { center, deviation } => {
                let (c, d) = (center.expect_f64()?, *deviation);
                match native {
                    true => walk(
                        &|o, v, m| self.kernel_chunk(col, NumericKernel::Around(c, d), o, v, m),
                        None,
                    ),
                    false => walk(
                        &|o, v, m| {
                            self.fill_chunk(o, v, m, |i| {
                                col.get_f64(i).and_then(|v| numeric::around(v, c, d))
                            })
                        },
                        None,
                    ),
                }
            }
        };
        Ok((walked, signed))
    }

    fn eval_predicate(&self, p: &Predicate) -> Result<NodeEval> {
        let mut distances = DistanceFrame::undefined(self.table.len());
        let (stats, signed) = self.with_predicate_fill(p, |fill, _| {
            chunk::for_each_frame_range(&mut distances, self.parallel(), fill)
        })?;
        Ok(NodeEval {
            label: p.label(),
            signed,
            distances,
            stats,
        })
    }

    /// Evaluate a top-level window. A predicate leaf whose §5.2 fit count
    /// `k` is known runs the count-guarded walk of
    /// [`chunk::window_walk`]: its packed exact bits always, its raw frame
    /// only when its exact answers fall short of `k`; once they cover it,
    /// the ranges of an `x ≥ t` / `x ≤ t` leaf over a native column are
    /// compare-packed. Any other node, or no `k`, is evaluated into its
    /// raw frame.
    pub(crate) fn eval_window(
        &self,
        node: &ConditionNode,
        k: Option<usize>,
        projections: Option<&RunProjections<'_>>,
    ) -> Result<WindowEval> {
        if let (ConditionNode::Predicate(p), Some(k)) = (node, k) {
            let n = self.table.len();
            let ((raw, stats, bits, packed), signed) =
                self.with_predicate_fill(p, |fill, pack| {
                    let pack = |o, len| pack.and_then(|pack| pack(o, len));
                    chunk::window_walk(n, self.parallel(), k, fill, pack)
                })?;
            return Ok(WindowEval {
                label: p.label(),
                signed,
                raw,
                stats,
                bits: Some(bits),
                chunks_compare_packed: packed,
            });
        }
        let e = self.eval_node_with(node, projections)?;
        Ok(WindowEval {
            label: e.label,
            signed: e.signed,
            raw: Some(e.distances),
            stats: e.stats,
            bits: None,
            chunks_compare_packed: 0,
        })
    }

    fn eval_connection(&self, c: &ConnectionUse) -> Result<NodeEval> {
        let n = self.table.len();
        let (left_attr, right_attr) = c.def.kind.attrs();
        let mut out = DistanceFrame::undefined(n);
        match &c.def.kind {
            ConnectionKind::Equi { .. } => {
                let (lc, ldt, lcl, _) = self.column(left_attr)?;
                let (rc, ..) = self.column(right_attr)?;
                let cd = self.distance_for(left_attr, ldt, lcl);
                let stats = self.fill_rows(&mut out, |i| cd.value_distance(&lc.get(i), &rc.get(i)));
                Ok(NodeEval {
                    label: c.label(),
                    signed: cd.is_signed(),
                    distances: out,
                    stats,
                })
            }
            ConnectionKind::NonEqui { op, .. } => {
                let (lc, ldt, lcl, _) = self.column(left_attr)?;
                let (rc, ..) = self.column(right_attr)?;
                let cd = self.distance_for(left_attr, ldt, lcl);
                let stats = self.fill_rows(&mut out, |i| {
                    let (a, b) = (lc.get(i), rc.get(i));
                    match a.partial_cmp_value(&b) {
                        None => None,
                        Some(ord) if op.eval(ord) => Some(0.0),
                        Some(_) => cd.value_distance(&a, &b),
                    }
                });
                Ok(NodeEval {
                    label: c.label(),
                    signed: cd.is_signed(),
                    distances: out,
                    stats,
                })
            }
            ConnectionKind::TimeDiff { .. } => {
                let expected = *c.params.first().unwrap_or(&0.0);
                let (lc, ..) = self.column(left_attr)?;
                let (rc, ..) = self.column(right_attr)?;
                let stats = self.fill_rows(&mut out, |i| match (lc.get_f64(i), rc.get_f64(i)) {
                    (Some(a), Some(b)) => time::time_diff(a as i64, b as i64, expected),
                    _ => None,
                });
                Ok(NodeEval {
                    label: c.label(),
                    signed: true,
                    distances: out,
                    stats,
                })
            }
            ConnectionKind::SpatialWithin { .. } => {
                let radius = *c.params.first().unwrap_or(&0.0);
                let (lc, ..) = self.column(left_attr)?;
                let (rc, ..) = self.column(right_attr)?;
                let stats = self.fill_rows(&mut out, |i| {
                    match (lc.get_location(i), rc.get_location(i)) {
                        (Some(a), Some(b)) => geo::within_m(a, b, radius),
                        _ => None,
                    }
                });
                Ok(NodeEval {
                    label: c.label(),
                    signed: false,
                    distances: out,
                    stats,
                })
            }
            ConnectionKind::ForeignKey { .. } => {
                // Exact matching only; "no visualization for the join
                // condition needs to be generated" (§4.4) — fulfilled rows
                // get 0, everything else is undefined.
                let (lc, ..) = self.column(left_attr)?;
                let (rc, ..) = self.column(right_attr)?;
                let stats = self.fill_rows(&mut out, |i| {
                    if lc.get(i) == rc.get(i) && !lc.get(i).is_null() {
                        Some(0.0)
                    } else {
                        None
                    }
                });
                Ok(NodeEval {
                    label: c.label(),
                    signed: false,
                    distances: out,
                    stats,
                })
            }
        }
    }

    /// Subquery distance (§4.4): "the color corresponding to the distance
    /// of the data item most closely fulfilling the subquery condition ...
    /// determined by the minimum distance in performing an approximate
    /// join of the inner and the outer relation(s)".
    fn eval_subquery(
        &self,
        link: &SubqueryLink,
        query: &Query,
        projections: Option<&RunProjections<'_>>,
    ) -> Result<NodeEval> {
        let inner_table_name = query
            .tables
            .first()
            .ok_or_else(|| Error::invalid_query("subquery must reference at least one table"))?;
        let inner_table = self.db.table(inner_table_name)?;
        let inner_ctx = EvalContext {
            db: self.db,
            table: inner_table,
            resolver: self.resolver,
            display_budget: self.display_budget,
            mode: self.mode,
            partitions: None,
            cancel: self.cancel,
        };
        // combined (normalized) distance of the inner condition per inner row
        let inner_cond: DistanceFrame = match &query.condition {
            Some(w) => {
                let e = inner_ctx.eval_node_with(&w.node, projections)?;
                inner_ctx.normalized(&e, w.weight)
            }
            None => DistanceFrame::constant(inner_table.len(), 0.0).0,
        };
        let n = self.table.len();
        match link {
            SubqueryLink::Exists => {
                // Uncorrelated EXISTS: the best inner distance is the same
                // for every outer row — one constant fill, not n sets.
                let best = inner_cond
                    .iter()
                    .flatten()
                    .fold(None::<f64>, |acc, d| Some(acc.map_or(d, |a| a.min(d))));
                let (distances, stats) = match best {
                    Some(b) => DistanceFrame::constant(n, b),
                    None => (DistanceFrame::undefined(n), FrameStats::default()),
                };
                Ok(NodeEval {
                    label: "EXISTS(...)".to_string(),
                    signed: false,
                    distances,
                    stats,
                })
            }
            SubqueryLink::In { outer, inner } => {
                let (oc, odt, ocl, _) = self.column(outer)?;
                let (ic, _, _, inner_name) = inner_ctx.column(inner)?;
                let cd = self.distance_for(outer, odt, ocl);
                let mut out = DistanceFrame::undefined(n);
                let shared = projections.map(|p| (p, inner_table.name(), inner_name.as_str()));
                let stats = self.min_distance_join(oc, ic, &cd, &inner_cond, &mut out, shared);
                Ok(NodeEval {
                    label: format!("{outer} IN (...)"),
                    signed: false,
                    distances: out,
                    stats,
                })
            }
        }
    }

    /// The §4.4 approximate join: per outer row, the minimum of
    /// `|join_distance| + inner_condition` over every inner row.
    ///
    /// In vectorized mode, numeric join columns take the **banded
    /// sort-merge** path and string-backed columns the per-distinct-value
    /// path; everything else — and the scalar reference — runs the
    /// exhaustive O(n·m) sweep (with typed accessors hoisted out of the
    /// pair loop where the columns allow it). All paths are bit-identical;
    /// the property tests pin them against each other.
    fn min_distance_join(
        &self,
        oc: &ColumnData,
        ic: &ColumnData,
        cd: &ColumnDistance,
        inner_cond: &DistanceFrame,
        out: &mut DistanceFrame,
        shared: SharedInner<'_>,
    ) -> FrameStats {
        if self.mode == ExecMode::Vectorized {
            if let Some(stats) = self.banded_join(oc, ic, cd, inner_cond, out, shared) {
                return stats;
            }
            if let Some(stats) = self.gathered_join(oc, ic, cd, inner_cond, out) {
                return stats;
            }
        }
        self.exhaustive_join(oc, ic, cd, inner_cond, out)
    }

    /// Banded sort-merge join over numeric join columns.
    ///
    /// The inner join column's `SortedProjection` (NULL and NaN rows
    /// excluded — exactly the rows the exhaustive sweep skips) is a pure
    /// function of a catalog column: it comes from the run's shared
    /// per-(relation, column) store when there is one (`shared`), from a
    /// per-evaluation sort otherwise.
    /// Each outer row starts at its binary-searched insertion point and
    /// sweeps outward **nearest first** ([`SortedProjection::sweep_from`]
    /// yields non-decreasing join gaps), stopping as soon as
    /// `gap + cond_lb >= best`, where `cond_lb` is the global minimum
    /// defined inner-condition distance: every unvisited pair's total is
    /// at least that bound, so excluding it cannot change the minimum.
    /// The min-fold over f64 totals (no NaN can occur: both operands are
    /// non-NaN and the inner column is fully finite) is
    /// order-independent, so the result is bit-identical to the
    /// exhaustive sweep.
    ///
    /// Returns `None` — fall back to the exhaustive sweep — for
    /// non-`Numeric` distances, columns without native numeric buffers,
    /// and inner columns carrying ±inf (where `inf - inf` could make the
    /// reference fold over NaN totals, which is order-sensitive).
    fn banded_join(
        &self,
        oc: &ColumnData,
        ic: &ColumnData,
        cd: &ColumnDistance,
        inner_cond: &DistanceFrame,
        out: &mut DistanceFrame,
        shared: SharedInner<'_>,
    ) -> Option<FrameStats> {
        if !matches!(cd, ColumnDistance::Numeric) {
            return None;
        }
        oc.numeric_slice()?;
        ic.numeric_slice()?;
        let build = || SortedProjection::build(ic.len(), |j| ic.get_f64(j));
        let proj = match shared {
            Some((run, table, column)) => run.get_or_build(table, ic.len(), column, build),
            None => Arc::new(build()),
        };
        if !proj.is_fully_finite() {
            return None;
        }
        let inner_vals = inner_cond.values();
        let inner_mask = inner_cond.validity();
        // Global lower bound on any defined inner-condition distance
        // (normalized, hence finite and >= 0). +inf means no inner row
        // has a defined condition — every outer row is undefined.
        let cond_lb = inner_cond.iter().flatten().fold(f64::INFINITY, f64::min);
        if cond_lb == f64::INFINITY {
            return Some(FrameStats::default());
        }
        Some(self.fill_rows(out, |i| {
            let ov = oc.get_f64(i)?;
            if !ov.is_finite() {
                // NaN: every join distance is undefined (None). ±inf:
                // totals may all be +inf — reproduce the reference sweep
                // for this row rather than reason about inf arithmetic.
                return exhaustive_row(ov, ic, inner_vals, inner_mask);
            }
            let mut best: Option<f64> = None;
            for (p, gap) in proj.sweep_from(ov) {
                if let Some(b) = best {
                    if gap + cond_lb >= b {
                        break;
                    }
                }
                let j = proj.row_at(p);
                if !inner_mask.get(j) {
                    continue;
                }
                // `gap` is |ov - inner| with the same float ops the
                // reference's `equal_to(..).abs()` performs
                let t = gap + inner_vals[j];
                best = Some(best.map_or(t, |b: f64| b.min(t)));
                if t == 0.0 {
                    break;
                }
            }
            best
        }))
    }

    /// Per-distinct-value join for string-backed columns under `String`
    /// or `Matrix` distances: the whole row result is a pure function of
    /// the outer join value, so the minimum is computed once per distinct
    /// outer value (over a per-distinct-inner-value distance table) and
    /// every outer row is served by one indexed load. No per-pair
    /// [`Value`] clone anywhere.
    fn gathered_join(
        &self,
        oc: &ColumnData,
        ic: &ColumnData,
        cd: &ColumnDistance,
        inner_cond: &DistanceFrame,
        out: &mut DistanceFrame,
    ) -> Option<FrameStats> {
        if !matches!(cd, ColumnDistance::String(_) | ColumnDistance::Matrix(_)) {
            return None;
        }
        let (osc, omask) = oc.str_column()?;
        let (isc, imask) = ic.str_column()?;
        let m = ic.len();
        let inner_vals = inner_cond.values();
        let inner_mask = inner_cond.validity();
        let odict = osc.dict();
        let idict = isc.dict();
        let ivalues = idict.values();
        let icodes = idict.codes();
        let (tvals, tdef) = string::code_table(odict.values().iter().map(String::as_str), |a| {
            // join distance to each distinct inner value, computed once
            let jd: Vec<Option<f64>> = ivalues
                .iter()
                .map(|b| match cd {
                    ColumnDistance::String(kind) => Some(kind.distance(a, b)),
                    ColumnDistance::Matrix(mx) => mx.distance(a, b),
                    _ => unreachable!("gated above"),
                })
                .collect();
            let mut best: Option<f64> = None;
            for j in 0..m {
                if !inner_mask.get(j) || !imask.is_none_or(|mm| mm[j]) {
                    continue;
                }
                if let Some(d) = jd[icodes[j] as usize] {
                    let t = d.abs() + inner_vals[j];
                    best = Some(best.map_or(t, |b: f64| b.min(t)));
                    if t == 0.0 {
                        break;
                    }
                }
            }
            best
        });
        let ocodes = odict.codes();
        Some(chunk::for_each_frame_range(
            out,
            self.parallel(),
            |offset, vals, mask| {
                if self.poll_cancel() {
                    return FrameStats::default();
                }
                let c = &ocodes[offset..offset + vals.len()];
                let mm = omask.map(|w| &w[offset..offset + vals.len()]);
                string::gather_table(c, mm, &tvals, &tdef, vals, mask);
                FrameStats::of_slice(vals, mask)
            },
        ))
    }

    /// The exhaustive O(n·m) sweep — the scalar reference, and the
    /// vectorized fallback for join shapes with no faster structure
    /// (geo/bool/override distances, mixed column types, ±inf inner
    /// columns). Numeric column pairs hoist a flat `f64` copy of the
    /// inner column out of the pair loop; the fully generic loop
    /// materialises a [`Value`] per pair, but no longer walks a
    /// redundant `.take(m)` adaptor.
    fn exhaustive_join(
        &self,
        oc: &ColumnData,
        ic: &ColumnData,
        cd: &ColumnDistance,
        inner_cond: &DistanceFrame,
        out: &mut DistanceFrame,
    ) -> FrameStats {
        let inner_vals = inner_cond.values();
        let inner_mask = inner_cond.validity();
        if matches!(cd, ColumnDistance::Numeric)
            && oc.numeric_slice().is_some()
            && ic.numeric_slice().is_some()
        {
            return self.fill_rows(out, |i| {
                let ov = oc.get_f64(i)?;
                exhaustive_row(ov, ic, inner_vals, inner_mask)
            });
        }
        self.fill_rows(out, |i| {
            let ov = oc.get(i);
            if ov.is_null() {
                return None;
            }
            let mut best: Option<f64> = None;
            for (j, &cond_j) in inner_vals.iter().enumerate() {
                if !inner_mask.get(j) {
                    continue;
                }
                let join_d = cd.value_distance(&ov, &ic.get(j));
                if let Some(t) = join_d.map(|jd| jd.abs() + cond_j) {
                    best = Some(best.map_or(t, |b: f64| b.min(t)));
                    if t == 0.0 {
                        break;
                    }
                }
            }
            best
        })
    }
}

/// A join's way to the shared copy of its inner key's projection: the
/// run's store plus the inner `(table, column)` names that key it.
type SharedInner<'a> = Option<(&'a RunProjections<'a>, &'a str, &'a str)>;

/// One outer row of the numeric exhaustive sweep, in reference order:
/// the same `equal_to(..).abs() + cond` fold the generic loop performs,
/// minus the per-pair [`Value`] materialisation.
fn exhaustive_row(
    ov: f64,
    ic: &ColumnData,
    inner_vals: &[f64],
    inner_mask: &visdb_distance::frame::Bitmap,
) -> Option<f64> {
    let mut best: Option<f64> = None;
    for (j, &cond_j) in inner_vals.iter().enumerate() {
        if !inner_mask.get(j) {
            continue;
        }
        let Some(iv) = ic.get_f64(j) else { continue };
        let Some(jd) = numeric::equal_to(ov, iv) else {
            continue;
        };
        let t = jd.abs() + cond_j;
        best = Some(best.map_or(t, |b: f64| b.min(t)));
        if t == 0.0 {
            break;
        }
    }
    best
}

/// Distance of row `i` of `col` from fulfilling `col op value`.
fn compare_distance(
    col: &ColumnData,
    i: usize,
    op: CompareOp,
    value: &Value,
    cd: &ColumnDistance,
) -> Option<f64> {
    compare_value_distance(&col.get(i), op, value, cd)
}

/// [`compare_distance`] of an already-materialised value. The
/// dictionary-gather fast path runs this once per *distinct* column value
/// instead of once per row — same function, so bit-identity is by
/// construction.
fn compare_value_distance(
    v: &Value,
    op: CompareOp,
    value: &Value,
    cd: &ColumnDistance,
) -> Option<f64> {
    if v.is_null() || value.is_null() {
        return None;
    }
    match cd {
        ColumnDistance::Numeric => {
            let (x, t) = (v.as_f64()?, value.as_f64()?);
            match op {
                CompareOp::Gt | CompareOp::Ge => numeric::greater_than(x, t),
                CompareOp::Lt | CompareOp::Le => numeric::less_than(x, t),
                CompareOp::Eq => numeric::equal_to(x, t),
                CompareOp::Ne => numeric::not_equal_to(x, t),
            }
        }
        ColumnDistance::Geo => match op {
            CompareOp::Eq => cd.value_distance(v, value),
            CompareOp::Ne => {
                let d = cd.value_distance(v, value)?;
                Some(if d != 0.0 { 0.0 } else { 1.0 })
            }
            _ => None,
        },
        ColumnDistance::Matrix(m) => {
            let (a, b) = (v.as_str()?, value.as_str()?);
            let (ra, rb) = (m.rank(a)?, m.rank(b)?);
            let raw = m.distance(a, b)?;
            match op {
                CompareOp::Eq => Some(raw),
                CompareOp::Ne => Some(if ra != rb { 0.0 } else { 1.0 }),
                _ if !m.is_ordinal() => None, // order undefined on nominal
                CompareOp::Gt | CompareOp::Ge => Some(if ra >= rb { 0.0 } else { raw }),
                CompareOp::Lt | CompareOp::Le => Some(if ra <= rb { 0.0 } else { raw }),
            }
        }
        ColumnDistance::String(kind) => {
            let (a, b) = (v.as_str()?, value.as_str()?);
            match op {
                CompareOp::Eq => Some(kind.distance(a, b)),
                CompareOp::Ne => Some(if a != b { 0.0 } else { 1.0 }),
                CompareOp::Gt | CompareOp::Ge => {
                    Some(if a >= b { 0.0 } else { kind.distance(a, b) })
                }
                CompareOp::Lt | CompareOp::Le => {
                    Some(if a <= b { 0.0 } else { kind.distance(a, b) })
                }
            }
        }
    }
}

/// Distance of row `i` from the inclusive range `[low, high]`, generalised
/// beyond numerics: inside → 0, outside → signed distance to the violated
/// bound under the column's distance behaviour.
fn range_distance(
    col: &ColumnData,
    i: usize,
    low: &Value,
    high: &Value,
    cd: &ColumnDistance,
) -> Option<f64> {
    range_value_distance(&col.get(i), low, high, cd)
}

/// [`range_distance`] of an already-materialised value (see
/// [`compare_value_distance`] for why the split exists).
fn range_value_distance(v: &Value, low: &Value, high: &Value, cd: &ColumnDistance) -> Option<f64> {
    if v.is_null() || low.is_null() || high.is_null() {
        return None;
    }
    if let (ColumnDistance::Numeric, Some(x), Some(l), Some(h)) =
        (cd, v.as_f64(), low.as_f64(), high.as_f64())
    {
        return numeric::in_range(x, l, h);
    }
    use std::cmp::Ordering::*;
    let below = matches!(v.partial_cmp_value(low), Some(Less));
    let above = matches!(v.partial_cmp_value(high), Some(Greater));
    if below {
        Some(-cd.value_distance(v, low)?.abs())
    } else if above {
        Some(cd.value_distance(v, high)?.abs())
    } else {
        // inside or incomparable: incomparable is undefined
        match (v.partial_cmp_value(low), v.partial_cmp_value(high)) {
            (Some(_), Some(_)) => Some(0.0),
            _ => None,
        }
    }
}

/// Convenience used by tests and the baseline crate: edit distance of two
/// strings as f64 (re-exported to avoid a dependency cycle).
pub fn edit_distance(a: &str, b: &str) -> f64 {
    string::levenshtein(a, b) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use visdb_query::ast::Weighted;
    use visdb_query::builder::QueryBuilder;
    use visdb_query::connection::ConnectionDef;
    use visdb_storage::TableBuilder;
    use visdb_types::{Column, Location};

    fn weather_db() -> Database {
        let mut db = Database::new("env");
        db.add_table(
            TableBuilder::new(
                "Weather",
                vec![
                    Column::new("DateTime", DataType::Timestamp),
                    Column::new("Temperature", DataType::Float),
                    Column::new("Humidity", DataType::Float),
                    Column::new("Station", DataType::Str),
                    Column::new("Loc", DataType::Location),
                ],
            )
            .row(vec![
                Value::Timestamp(0),
                Value::Float(20.0),
                Value::Float(50.0),
                Value::from("munich"),
                Value::Location(Location::new(48.1, 11.6)),
            ])
            .unwrap()
            .row(vec![
                Value::Timestamp(3600),
                Value::Float(10.0),
                Value::Float(80.0),
                Value::from("berlin"),
                Value::Location(Location::new(52.5, 13.4)),
            ])
            .unwrap()
            .row(vec![
                Value::Timestamp(7200),
                Value::Null,
                Value::Float(65.0),
                Value::from("hamburg"),
                Value::Location(Location::new(53.6, 10.0)),
            ])
            .unwrap()
            .build(),
        );
        db
    }

    fn ctx<'a>(db: &'a Database, resolver: &'a DistanceResolver) -> EvalContext<'a> {
        EvalContext {
            db,
            table: db.table("Weather").unwrap(),
            resolver,
            display_budget: 100,
            mode: ExecMode::Vectorized,
            partitions: None,
            cancel: None,
        }
    }

    /// Every eval test asserts on the vectorized path; this helper
    /// re-checks any node against the scalar reference.
    fn assert_modes_agree(db: &Database, node: &ConditionNode) {
        let r = DistanceResolver::new();
        let mut c = ctx(db, &r);
        let vec_eval = c.eval_node(node).unwrap();
        c.mode = ExecMode::Scalar;
        let scalar_eval = c.eval_node(node).unwrap();
        assert_eq!(vec_eval, scalar_eval);
    }

    #[test]
    fn vectorized_and_scalar_modes_agree_on_every_node_kind() {
        let db = weather_db();
        for node in [
            ConditionNode::Predicate(Predicate::compare(
                AttrRef::new("Temperature"),
                CompareOp::Gt,
                15.0,
            )),
            ConditionNode::Predicate(Predicate::compare(
                AttrRef::new("Station"),
                CompareOp::Eq,
                "munich",
            )),
            ConditionNode::Predicate(Predicate::range(AttrRef::new("Humidity"), 55.0, 70.0)),
            ConditionNode::Not(Box::new(ConditionNode::Predicate(Predicate::compare(
                AttrRef::new("Temperature"),
                CompareOp::Le,
                12.0,
            )))),
            ConditionNode::And(vec![
                Weighted::unit(ConditionNode::Predicate(Predicate::compare(
                    AttrRef::new("Temperature"),
                    CompareOp::Gt,
                    15.0,
                ))),
                Weighted::unit(ConditionNode::Predicate(Predicate::compare(
                    AttrRef::new("Humidity"),
                    CompareOp::Lt,
                    60.0,
                ))),
            ]),
        ] {
            assert_modes_agree(&db, &node);
        }
    }

    #[test]
    fn predicate_distances_signed() {
        let db = weather_db();
        let r = DistanceResolver::new();
        let c = ctx(&db, &r);
        let p = ConditionNode::Predicate(Predicate::compare(
            AttrRef::new("Temperature"),
            CompareOp::Gt,
            15.0,
        ));
        let e = c.eval_node(&p).unwrap();
        assert_eq!(e.distances.to_options(), vec![Some(0.0), Some(-5.0), None]);
        assert!(e.signed);
    }

    #[test]
    fn and_combines_with_normalization() {
        let db = weather_db();
        let r = DistanceResolver::new();
        let c = ctx(&db, &r);
        let node = ConditionNode::And(vec![
            Weighted::unit(ConditionNode::Predicate(Predicate::compare(
                AttrRef::new("Temperature"),
                CompareOp::Gt,
                15.0,
            ))),
            Weighted::unit(ConditionNode::Predicate(Predicate::compare(
                AttrRef::new("Humidity"),
                CompareOp::Lt,
                60.0,
            ))),
        ]);
        let e = c.eval_node(&node).unwrap();
        // row 0 fulfils both -> 0; row 1 fails both; row 2 has NULL temp -> None
        assert_eq!(e.distances.get(0), Some(0.0));
        assert!(e.distances.get(1).unwrap() > 0.0);
        assert_eq!(e.distances.get(2), None);
    }

    #[test]
    fn or_fulfilled_when_any_child_is() {
        let db = weather_db();
        let r = DistanceResolver::new();
        let c = ctx(&db, &r);
        let node = ConditionNode::Or(vec![
            Weighted::unit(ConditionNode::Predicate(Predicate::compare(
                AttrRef::new("Temperature"),
                CompareOp::Gt,
                100.0, // nobody fulfils
            ))),
            Weighted::unit(ConditionNode::Predicate(Predicate::compare(
                AttrRef::new("Humidity"),
                CompareOp::Lt,
                60.0, // row 0 fulfils
            ))),
        ]);
        let e = c.eval_node(&node).unwrap();
        assert_eq!(e.distances.get(0), Some(0.0));
        assert!(e.distances.get(1).unwrap() > 0.0);
    }

    #[test]
    fn not_inverts_comparison_predicates() {
        let db = weather_db();
        let r = DistanceResolver::new();
        let c = ctx(&db, &r);
        let node = ConditionNode::Not(Box::new(ConditionNode::Predicate(Predicate::compare(
            AttrRef::new("Temperature"),
            CompareOp::Gt,
            15.0,
        ))));
        let e = c.eval_node(&node).unwrap();
        // NOT (T > 15) == T <= 15: row 0 (20.0) fails by 5, row 1 fulfils
        assert_eq!(e.distances.get(0), Some(5.0));
        assert_eq!(e.distances.get(1), Some(0.0));
        assert!(e.label.starts_with("NOT"));
    }

    #[test]
    fn not_of_complex_node_is_boolean_only() {
        let db = weather_db();
        let r = DistanceResolver::new();
        let c = ctx(&db, &r);
        let node = ConditionNode::Not(Box::new(ConditionNode::Or(vec![Weighted::unit(
            ConditionNode::Predicate(Predicate::compare(
                AttrRef::new("Humidity"),
                CompareOp::Lt,
                60.0,
            )),
        )])));
        let e = c.eval_node(&node).unwrap();
        // row 0 fulfils the inner OR -> negation undefined; rows 1,2 fail
        // the inner -> negation fulfilled
        assert_eq!(e.distances.get(0), None);
        assert_eq!(e.distances.get(1), Some(0.0));
        assert_eq!(e.distances.get(2), Some(0.0));
    }

    #[test]
    fn string_predicate_uses_edit_distance() {
        let db = weather_db();
        let r = DistanceResolver::new();
        let c = ctx(&db, &r);
        let node = ConditionNode::Predicate(Predicate::compare(
            AttrRef::new("Station"),
            CompareOp::Eq,
            "munich",
        ));
        let e = c.eval_node(&node).unwrap();
        assert_eq!(e.distances.get(0), Some(0.0));
        assert!(e.distances.get(1).unwrap() > 0.0);
        assert!(!e.signed);
    }

    #[test]
    fn range_distance_generalises() {
        let db = weather_db();
        let r = DistanceResolver::new();
        let c = ctx(&db, &r);
        let node = ConditionNode::Predicate(Predicate::range(AttrRef::new("Humidity"), 55.0, 70.0));
        let e = c.eval_node(&node).unwrap();
        assert_eq!(e.distances.get(0), Some(-5.0)); // 50 below 55
        assert_eq!(e.distances.get(1), Some(10.0)); // 80 above 70
        assert_eq!(e.distances.get(2), Some(0.0)); // 65 inside
    }

    #[test]
    fn in_subquery_min_distance() {
        let mut db = weather_db();
        db.add_table(
            TableBuilder::new("Alerts", vec![Column::new("AlertTemp", DataType::Float)])
                .row(vec![Value::Float(9.0)])
                .unwrap()
                .row(vec![Value::Float(19.0)])
                .unwrap()
                .build(),
        );
        let r = DistanceResolver::new();
        let c = ctx(&db, &r);
        let sub = QueryBuilder::from_tables(["Alerts"])
            .select(["AlertTemp"])
            .build();
        let node = ConditionNode::Subquery {
            link: SubqueryLink::In {
                outer: AttrRef::new("Temperature"),
                inner: AttrRef::new("AlertTemp"),
            },
            query: Box::new(sub),
        };
        let e = c.eval_node(&node).unwrap();
        // row 0: T=20, nearest alert 19 -> 1; row 1: T=10, nearest 9 -> 1
        assert_eq!(e.distances.get(0), Some(1.0));
        assert_eq!(e.distances.get(1), Some(1.0));
        assert_eq!(e.distances.get(2), None); // NULL temperature
    }

    #[test]
    fn exists_subquery_best_inner() {
        let db = weather_db();
        let r = DistanceResolver::new();
        let c = ctx(&db, &r);
        let sub = QueryBuilder::from_tables(["Weather"])
            .cmp("Temperature", CompareOp::Gt, 25.0)
            .build();
        let node = ConditionNode::Subquery {
            link: SubqueryLink::Exists,
            query: Box::new(sub),
        };
        let e = c.eval_node(&node).unwrap();
        // nobody has T > 25; best shortfall is 20 -> normalized minimum > 0,
        // identical for all outer rows
        assert!(e.distances.get(0).unwrap() >= 0.0);
        assert_eq!(e.distances.get(0), e.distances.get(1));
    }

    #[test]
    fn connection_eval_over_cross_product() {
        let db = weather_db();
        let weather = db.table("Weather").unwrap();
        let cross = weather.cross_product(weather, "WxW");
        let r = DistanceResolver::new();
        let c = EvalContext {
            db: &db,
            table: &cross,
            resolver: &r,
            display_budget: 100,
            mode: ExecMode::Vectorized,
            partitions: None,
            cancel: None,
        };
        let def = ConnectionDef {
            name: "with-time-diff".into(),
            left_table: "Weather".into(),
            right_table: "Weather".into(),
            kind: ConnectionKind::TimeDiff {
                left: AttrRef::new("DateTime"),
                right: AttrRef::qualified("Weather", "DateTime"),
            },
        };
        let u = def.instantiate(vec![3600.0]).unwrap();
        let e = c.eval_node(&ConditionNode::Connection(u)).unwrap();
        assert_eq!(e.distances.len(), 9);
        // pair (row1, row0): 3600 - 0 - 3600 = 0 -> fulfilled
        assert_eq!(e.distances.get(3), Some(0.0));
        // pair (row0, row0): 0 - 0 - 3600 = -3600
        assert_eq!(e.distances.get(0), Some(-3600.0));
    }
}
