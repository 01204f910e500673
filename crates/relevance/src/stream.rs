//! Streaming fused execution: the zero-materialization pipeline mode.
//!
//! The materialized pipeline is memory-bound at scale: at n = 1M the
//! distance kernels cost ~6 ms while reading and writing the `#sp + 1`
//! full-size `DistanceFrame` intermediates costs ~45 ms
//! (`BENCH_pipeline.json` phase breakdown). This module removes those
//! intermediates entirely. The condition tree is compiled into a small
//! arena of streamable nodes ([`compile`]) and executed in **two fused
//! chunk walks**:
//!
//! 1. **Stats pass(es)** — one walk per tree level (one walk for the
//!    common flat AND/OR of leaf predicates): every chunk recomputes the
//!    level's distances in cache-resident scratch buffers and keeps only
//!    the fused [`FrameStats`] (whose `zeros` is each window's
//!    full-relation exact-answer count) plus — when the §5.2
//!    weight-proportional fit may need the k-th smallest `|d|` — a
//!    per-chunk pool of the values below the selection kernel's
//!    **sampled cut**
//!    ([`crate::select`], probed here through the per-row evaluator).
//!    A merged pool of at least `k` values contains the value-multiset
//!    of the global k smallest, so the fitted `dmax` is bit-identical to
//!    the materialized [`crate::normalize::fit_frame`]; a pool left
//!    short means the cut was too tight, and the level is walked again
//!    without one.
//! 2. **Combine pass** — one walk recomputing each top window's
//!    distances, normalizing and root-combining them *in registers* per
//!    row (the identical float ops of the materialized fused walk), and
//!    streaming only the combined raw distance into the packed output
//!    frame, together with the combined reduction stats.
//!
//! Recomputing distances is the deliberate trade: a kernel pass over the
//! native column buffers is far cheaper than materializing, re-reading
//! and re-writing full-size frames. Ranking then reuses the exact
//! pruned top-k selection of the materialized path, and per-predicate
//! windows are assembled **lazily** at the ranked row ids only
//! (§4.2's windows are position-coherent with the overall window, so
//! only displayed rows are ever read) — per-query intermediates shrink
//! from `(#sp + 1) · 9n` bytes toward `O(k · #sp)` beyond the combined
//! output itself, which is also the payload shape multi-box sharding
//! wants to ship.
//!
//! Every float op on this path is the same op the materialized
//! vectorized path (and through it the scalar reference) performs, in
//! the same order per row — outputs are **bit-identical** across all
//! three, property-tested in `tests/properties.rs`. String and
//! matrix/ordinal predicates stream through a compile-time
//! dictionary-gather table ([`Kind::Gather`]), and §4.4 connections
//! stream as row-local functions of the cross-product base relation
//! ([`Kind::Connection`]). Shapes the compiler cannot stream
//! (subqueries — their approximate join evaluates the *inner* relation,
//! not a per-row function of the base relation — and non-invertible
//! negations) and the two-sided display policy (whose quantile band
//! needs a full window frame) fall back to the materialized path at the
//! planner.

use std::sync::Arc;
use std::time::Instant;

use visdb_distance::batch::{self, CompareKernel, NumericKernel};
use visdb_distance::frame::{DistanceFrame, FrameStats};
use visdb_distance::registry::ColumnDistance;
use visdb_distance::{geo, numeric, string, time};
use visdb_query::ast::{ConditionNode, Predicate, PredicateTarget, Weighted};
use visdb_query::connection::{ConnectionKind, ConnectionUse};
use visdb_query::CompareOp;
use visdb_storage::{ColumnData, NumericSlice};
use visdb_types::{Result, Value};

use crate::combine::{combine_and_blocks, combine_and_slices, combine_or_slices, Child};
use crate::eval::{
    compare_distance, compare_value_distance, range_distance, range_value_distance, EvalContext,
};
use crate::normalize::{
    apply_in_place, dmax_of_prefix, fit_from_counts, fit_k, params_from_max, NormParams,
};
use crate::pipeline::{
    checkpoint, finalize_combined, rank_and_select, Combined, DisplayPolicy, DisplayedWindow,
    PipelineOutput, PipelineTrace, PredicateWindow, RootAcc, WindowData,
};
use crate::reference::{and_row, or_row};
use crate::{chunk, select};
use visdb_exec::fault::Phase;

/// The root combinator of the condition tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Root {
    /// A single top-level window (bare predicate at the root).
    Single,
    /// Weighted arithmetic mean over the top windows.
    And,
    /// Weighted geometric mean over the top windows.
    Or,
}

/// One compiled streamable node.
struct Node<'a> {
    kind: Kind<'a>,
    label: String,
    signed: bool,
    /// Weight within the parent (top nodes: the window weight) — the
    /// §5.2 weight-proportional normalization input.
    weight: f64,
    /// Height above the leaves (leaves 0). Nodes at depth `d` get their
    /// stats in stats round `d`, after their children's params exist.
    depth: usize,
}

enum Kind<'a> {
    /// Typed batch kernel over the column's native buffer.
    Kernel {
        col: &'a ColumnData,
        kernel: NumericKernel,
    },
    /// Generic per-row comparison (strings, matrices, geo, bool columns,
    /// distance overrides) — the same per-row function the materialized
    /// fallback path runs.
    Compare {
        col: &'a ColumnData,
        op: CompareOp,
        value: visdb_types::Value,
        cd: ColumnDistance,
    },
    /// Generic per-row range distance.
    Range {
        col: &'a ColumnData,
        low: visdb_types::Value,
        high: visdb_types::Value,
        cd: ColumnDistance,
    },
    /// `AROUND` over a column without a native numeric buffer.
    Around {
        col: &'a ColumnData,
        center: f64,
        deviation: f64,
    },
    /// Dictionary-gather leaf over a string-backed column (string and
    /// matrix/ordinal distances): the predicate was evaluated once per
    /// *distinct* value at compile time — through the exact same
    /// [`compare_value_distance`] / [`range_value_distance`] the
    /// per-tuple reference runs — and each row is one indexed table
    /// load. No per-row [`Value`] clone on the chunk walk.
    Gather {
        codes: &'a [u32],
        col_mask: Option<&'a [bool]>,
        tvals: Vec<f64>,
        tdef: Vec<bool>,
    },
    /// §4.4 connection: both operand columns live in the (cross-product)
    /// base relation, so every kind is a pure per-row function — the
    /// same closures the materialized `EvalContext::eval_connection`
    /// runs.
    Connection(ConnKind<'a>),
    /// Inner `AND`/`OR`: normalize every child with its fitted params,
    /// combine row-wise (§5.2 recursive re-normalization).
    Bool { and: bool, children: Vec<usize> },
}

/// A compiled row-local connection: operand columns resolved once, kind
/// and parameters frozen. `row` is the single evaluation function both
/// the chunk walk and the late window assembly share.
enum ConnKind<'a> {
    Equi {
        lc: &'a ColumnData,
        rc: &'a ColumnData,
        cd: ColumnDistance,
    },
    NonEqui {
        lc: &'a ColumnData,
        rc: &'a ColumnData,
        op: CompareOp,
        cd: ColumnDistance,
    },
    TimeDiff {
        lc: &'a ColumnData,
        rc: &'a ColumnData,
        expected: f64,
    },
    SpatialWithin {
        lc: &'a ColumnData,
        rc: &'a ColumnData,
        radius: f64,
    },
    ForeignKey {
        lc: &'a ColumnData,
        rc: &'a ColumnData,
    },
}

impl ConnKind<'_> {
    /// Signed distance of row `i` — byte-for-byte the per-row closures
    /// of `EvalContext::eval_connection`, so streamed connections are
    /// bit-identical to materialized ones.
    fn row(&self, i: usize) -> Option<f64> {
        match self {
            ConnKind::Equi { lc, rc, cd } => cd.value_distance(&lc.get(i), &rc.get(i)),
            ConnKind::NonEqui { lc, rc, op, cd } => {
                let (a, b) = (lc.get(i), rc.get(i));
                match a.partial_cmp_value(&b) {
                    None => None,
                    Some(ord) if op.eval(ord) => Some(0.0),
                    Some(_) => cd.value_distance(&a, &b),
                }
            }
            ConnKind::TimeDiff { lc, rc, expected } => match (lc.get_f64(i), rc.get_f64(i)) {
                (Some(a), Some(b)) => time::time_diff(a as i64, b as i64, *expected),
                _ => None,
            },
            ConnKind::SpatialWithin { lc, rc, radius } => {
                match (lc.get_location(i), rc.get_location(i)) {
                    (Some(a), Some(b)) => geo::within_m(a, b, *radius),
                    _ => None,
                }
            }
            ConnKind::ForeignKey { lc, rc } => {
                if lc.get(i) == rc.get(i) && !lc.get(i).is_null() {
                    Some(0.0)
                } else {
                    None
                }
            }
        }
    }
}

/// A compiled streaming plan: the node arena, the top-level window node
/// ids (in window order) and the root combinator.
pub(crate) struct StreamPlan<'a> {
    nodes: Vec<Node<'a>>,
    tops: Vec<usize>,
    root: Root,
    depth: usize,
}

/// Compile the condition tree into a streamable plan, or `None` when any
/// node cannot be streamed (subqueries, non-invertible negations,
/// unresolvable columns, empty boolean nodes) — the caller then falls
/// back to the materialized path, which reproduces any error the
/// unstreamable shape would raise.
pub(crate) fn compile<'a>(
    ctx: &EvalContext<'a>,
    cond: &Weighted,
    top: &[&Weighted],
) -> Option<StreamPlan<'a>> {
    let root = match &cond.node {
        ConditionNode::And(_) => Root::And,
        ConditionNode::Or(_) => Root::Or,
        _ => Root::Single,
    };
    let mut nodes = Vec::new();
    let tops: Vec<usize> = top
        .iter()
        .map(|w| compile_node(ctx, &w.node, w.weight, &mut nodes))
        .collect::<Option<_>>()?;
    if tops.is_empty() {
        // an empty root AND/OR errors in the combine layer; take the
        // materialized path so the error is identical
        return None;
    }
    let depth = tops.iter().map(|&t| nodes[t].depth).max().unwrap_or(0);
    Some(StreamPlan {
        nodes,
        tops,
        root,
        depth,
    })
}

fn compile_node<'a>(
    ctx: &EvalContext<'a>,
    node: &ConditionNode,
    weight: f64,
    nodes: &mut Vec<Node<'a>>,
) -> Option<usize> {
    match node {
        ConditionNode::Predicate(p) => compile_predicate(ctx, p, weight, None, nodes),
        ConditionNode::Not(inner) => {
            // §4.4 invertible negation: flip the comparison, keep graded
            // distances (mirrors `EvalContext::eval_not`); every other
            // negation shape falls back to the materialized path.
            if let ConditionNode::Predicate(p) = &**inner {
                if let PredicateTarget::Compare { op, value } = &p.target {
                    let flipped = Predicate {
                        attr: p.attr.clone(),
                        target: PredicateTarget::Compare {
                            op: op.inverted(),
                            value: value.clone(),
                        },
                    };
                    let label = format!("NOT {}", p.label());
                    return compile_predicate(ctx, &flipped, weight, Some(label), nodes);
                }
            }
            None
        }
        ConditionNode::And(children) | ConditionNode::Or(children) => {
            if children.is_empty() {
                return None;
            }
            let and = matches!(node, ConditionNode::And(_));
            let ids: Vec<usize> = children
                .iter()
                .map(|w| compile_node(ctx, &w.node, w.weight, nodes))
                .collect::<Option<_>>()?;
            let depth = 1 + ids.iter().map(|&i| nodes[i].depth).max().unwrap_or(0);
            nodes.push(Node {
                kind: Kind::Bool { and, children: ids },
                label: if and { "AND" } else { "OR" }.to_string(),
                signed: false,
                weight,
                depth,
            });
            Some(nodes.len() - 1)
        }
        ConditionNode::Connection(c) => compile_connection(ctx, c, weight, nodes),
        // the approximate join evaluates the *inner* relation's condition
        // over its own table — not a per-row function of the base
        // relation — so subqueries stay on the materialized path
        ConditionNode::Subquery { .. } => None,
    }
}

/// Compile a §4.4 connection into a row-local node. Column resolution
/// errors decline (`None`) so the materialized path raises the identical
/// error.
fn compile_connection<'a>(
    ctx: &EvalContext<'a>,
    c: &ConnectionUse,
    weight: f64,
    nodes: &mut Vec<Node<'a>>,
) -> Option<usize> {
    let (left_attr, right_attr) = c.def.kind.attrs();
    let (lc, ldt, lcl, _) = ctx.column(left_attr).ok()?;
    let (rc, ..) = ctx.column(right_attr).ok()?;
    let (conn, signed) = match &c.def.kind {
        ConnectionKind::Equi { .. } => {
            let cd = ctx.distance_for(left_attr, ldt, lcl);
            let signed = cd.is_signed();
            (ConnKind::Equi { lc, rc, cd }, signed)
        }
        ConnectionKind::NonEqui { op, .. } => {
            let cd = ctx.distance_for(left_attr, ldt, lcl);
            let signed = cd.is_signed();
            (
                ConnKind::NonEqui {
                    lc,
                    rc,
                    op: *op,
                    cd,
                },
                signed,
            )
        }
        ConnectionKind::TimeDiff { .. } => {
            let expected = *c.params.first().unwrap_or(&0.0);
            (ConnKind::TimeDiff { lc, rc, expected }, true)
        }
        ConnectionKind::SpatialWithin { .. } => {
            let radius = *c.params.first().unwrap_or(&0.0);
            (ConnKind::SpatialWithin { lc, rc, radius }, false)
        }
        ConnectionKind::ForeignKey { .. } => (ConnKind::ForeignKey { lc, rc }, false),
    };
    nodes.push(Node {
        kind: Kind::Connection(conn),
        label: c.label(),
        signed,
        weight,
        depth: 0,
    });
    Some(nodes.len() - 1)
}

/// Compile-time half of the dictionary-gather fast path — the streaming
/// sibling of `EvalContext::gathered_predicate_stats`: evaluate the
/// predicate once per distinct string value into a code-indexed table.
/// `None` when inapplicable (non-string column, numeric/geo distances,
/// `Around` targets, which must keep their error path).
fn compile_gather<'a>(
    col: &'a ColumnData,
    cd: &ColumnDistance,
    target: &PredicateTarget,
) -> Option<Kind<'a>> {
    if !matches!(cd, ColumnDistance::String(_) | ColumnDistance::Matrix(_))
        || matches!(target, PredicateTarget::Around { .. })
    {
        return None;
    }
    let (sc, col_mask) = col.str_column()?;
    let dict = sc.dict();
    let (tvals, tdef) = string::code_table(dict.values().iter().map(String::as_str), |u| {
        let v = Value::Str(u.to_owned());
        match target {
            PredicateTarget::Compare { op, value } => compare_value_distance(&v, *op, value, cd),
            PredicateTarget::Range { low, high } => range_value_distance(&v, low, high, cd),
            PredicateTarget::Around { .. } => unreachable!("filtered above"),
        }
    });
    Some(Kind::Gather {
        codes: dict.codes(),
        col_mask,
        tvals,
        tdef,
    })
}

fn compile_predicate<'a>(
    ctx: &EvalContext<'a>,
    p: &Predicate,
    weight: f64,
    label_override: Option<String>,
    nodes: &mut Vec<Node<'a>>,
) -> Option<usize> {
    let (col, dt, class, _) = ctx.column(&p.attr).ok()?;
    let cd = ctx.distance_for(&p.attr, dt, class);
    let signed = cd.is_signed();
    let label = label_override.unwrap_or_else(|| p.label());
    let kind = match &p.target {
        PredicateTarget::Around { center, deviation } => {
            // a non-numeric center errors in the evaluator; decline so
            // the materialized path raises the identical error
            let c = center.as_f64()?;
            if col.numeric_slice().is_some() {
                Kind::Kernel {
                    col,
                    kernel: NumericKernel::Around(c, *deviation),
                }
            } else {
                Kind::Around {
                    col,
                    center: c,
                    deviation: *deviation,
                }
            }
        }
        target => match EvalContext::kernel_for(&cd, target) {
            Some(kernel) if col.numeric_slice().is_some() => Kind::Kernel { col, kernel },
            _ => match compile_gather(col, &cd, target) {
                Some(kind) => kind,
                None => match target {
                    PredicateTarget::Compare { op, value } => Kind::Compare {
                        col,
                        op: *op,
                        value: value.clone(),
                        cd,
                    },
                    PredicateTarget::Range { low, high } => Kind::Range {
                        col,
                        low: low.clone(),
                        high: high.clone(),
                        cd,
                    },
                    PredicateTarget::Around { .. } => unreachable!("handled above"),
                },
            },
        },
    };
    nodes.push(Node {
        kind,
        label,
        signed,
        weight,
        depth: 0,
    });
    Some(nodes.len() - 1)
}

/// Fill one chunk's scratch buffers with a per-row distance function,
/// accumulating the fused stats — the streaming sibling of
/// `EvalContext::fill_rows` (identical writes, identical stats).
fn fill_chunk(
    vals: &mut [f64],
    mask: &mut [bool],
    offset: usize,
    f: impl Fn(usize) -> Option<f64>,
) -> FrameStats {
    // branchless store (both buffers written every row, undefined rows
    // carry canonical 0.0), stats folded by the lane-structured
    // `of_slice` afterwards — bit-identical to recording row by row
    for (j, (v, m)) in vals.iter_mut().zip(mask.iter_mut()).enumerate() {
        let d = f(offset + j);
        *v = d.unwrap_or(0.0);
        *m = d.is_some();
    }
    FrameStats::of_slice(vals, mask)
}

/// Evaluate one node over the chunk `[offset, offset + vals.len())` into
/// the scratch buffers, returning the chunk's fused stats. Inner
/// boolean nodes normalize their children with the already-fitted
/// `params` (earlier stats rounds) and combine row-wise — every float op
/// mirrors the materialized path exactly.
fn eval_chunk(
    plan: &StreamPlan<'_>,
    params: &[NormParams],
    id: usize,
    offset: usize,
    vals: &mut [f64],
    mask: &mut [bool],
    arena: &chunk::ScratchArena,
) -> FrameStats {
    let len = vals.len();
    match &plan.nodes[id].kind {
        Kind::Kernel { col, kernel } => {
            let (slice, col_mask) = col
                .numeric_slice_at(offset, len)
                .expect("kernel nodes are compiled over native numeric buffers");
            match slice {
                NumericSlice::F64(xs) => batch::run_frame(xs, col_mask, *kernel, vals, mask),
                NumericSlice::I64(xs) => batch::run_frame(xs, col_mask, *kernel, vals, mask),
            }
        }
        Kind::Compare { col, op, value, cd } => fill_chunk(vals, mask, offset, |i| {
            compare_distance(col, i, *op, value, cd)
        }),
        Kind::Range { col, low, high, cd } => fill_chunk(vals, mask, offset, |i| {
            range_distance(col, i, low, high, cd)
        }),
        Kind::Around {
            col,
            center,
            deviation,
        } => fill_chunk(vals, mask, offset, |i| {
            col.get_f64(i)
                .and_then(|v| numeric::around(v, *center, *deviation))
        }),
        Kind::Gather {
            codes,
            col_mask,
            tvals,
            tdef,
        } => {
            let c = &codes[offset..offset + len];
            let m = col_mask.map(|mm| &mm[offset..offset + len]);
            string::gather_table(c, m, tvals, tdef, vals, mask);
            FrameStats::of_slice(vals, mask)
        }
        Kind::Connection(conn) => fill_chunk(vals, mask, offset, |i| conn.row(i)),
        Kind::Bool { and, children } => {
            // child chunks come from the run's scratch arena (one take
            // per nesting level, buffers reused across every chunk the
            // worker walks) and are combined with the branchless slice
            // kernels — the identical float ops of the per-row
            // `and_row`/`or_row` walk, proven in the kernels' docs
            let mut scratch = arena.take();
            let bufs = scratch.frames(children.len(), len);
            for (&c, (v, m)) in children.iter().zip(bufs.iter_mut()) {
                eval_chunk(plan, params, c, offset, v, m, arena);
                // §5.2 re-normalization before combining — the same
                // `apply` the materialized `apply_frame` performs
                apply_in_place(params[c], v, m);
            }
            let weights: Vec<f64> = children.iter().map(|&c| plan.nodes[c].weight).collect();
            let views: Vec<(&[f64], &[bool])> = bufs
                .iter()
                .map(|(v, m)| (v.as_slice(), m.as_slice()))
                .collect();
            if *and {
                combine_and_slices(&views, &weights, vals, mask);
            } else {
                combine_or_slices(&views, &weights, vals, mask);
            }
            FrameStats::of_slice(vals, mask)
        }
    }
}

/// Evaluate one node at a single row — the late window-assembly path.
/// Per-row reads go through `ColumnData::get_f64` / the generic distance
/// functions, which perform the identical float ops as the chunk kernels
/// over the same native values, so assembled rows are bit-identical to
/// the frames a materialized run would hold.
fn eval_row(plan: &StreamPlan<'_>, params: &[NormParams], id: usize, i: usize) -> Option<f64> {
    match &plan.nodes[id].kind {
        Kind::Kernel { col, kernel } => kernel_row(col, *kernel, i),
        Kind::Compare { col, op, value, cd } => compare_distance(col, i, *op, value, cd),
        Kind::Range { col, low, high, cd } => range_distance(col, i, low, high, cd),
        Kind::Around {
            col,
            center,
            deviation,
        } => col
            .get_f64(i)
            .and_then(|v| numeric::around(v, *center, *deviation)),
        Kind::Gather {
            codes,
            col_mask,
            tvals,
            tdef,
        } => {
            // one row of `string::gather_table` — the identical load
            let c = codes[i] as usize;
            (col_mask.is_none_or(|m| m[i]) && tdef[c]).then(|| tvals[c])
        }
        Kind::Connection(conn) => conn.row(i),
        Kind::Bool { and, children } => {
            let row: Vec<Option<f64>> = children
                .iter()
                .map(|&c| eval_row(plan, params, c, i).map(|d| params[c].apply(d.abs())))
                .collect();
            let weights: Vec<f64> = children.iter().map(|&c| plan.nodes[c].weight).collect();
            if *and {
                and_row(&row, &weights)
            } else {
                or_row(&row, &weights)
            }
        }
    }
}

/// One row of a batch kernel: the scalar functions the kernels delegate
/// to, fed from `get_f64` (the same native value / validity the sliced
/// buffers expose — kernel columns are Float/Int/Timestamp only).
fn kernel_row(col: &ColumnData, kernel: NumericKernel, i: usize) -> Option<f64> {
    let x = col.get_f64(i)?;
    match kernel {
        NumericKernel::Compare(_, None) => None,
        NumericKernel::Compare(CompareKernel::Greater, Some(t)) => numeric::greater_than(x, t),
        NumericKernel::Compare(CompareKernel::Less, Some(t)) => numeric::less_than(x, t),
        NumericKernel::Compare(CompareKernel::Equal, Some(t)) => numeric::equal_to(x, t),
        NumericKernel::Compare(CompareKernel::NotEqual, Some(t)) => numeric::not_equal_to(x, t),
        NumericKernel::InRange(low, high) => numeric::in_range(x, low, high),
        NumericKernel::Around(center, deviation) => numeric::around(x, center, deviation),
    }
}

/// The §5.2 selection over the merged pool — the streaming replica of
/// [`crate::normalize::fit_frame`]'s selection arm, bit-identical
/// because the pool contains the value-multiset of the global `k`
/// smallest absolute distances.
fn fit_pool(mut pool: Vec<f64>, k: usize) -> NormParams {
    debug_assert!(pool.len() >= k, "selection pool must retain k candidates");
    pool.select_nth_unstable_by(k - 1, f64::total_cmp);
    params_from_max(dmax_of_prefix(pool[..k].iter().copied()))
}

/// One root's share of a stats walk (per chunk, then merged per level).
#[derive(Clone, Default)]
struct StatsAcc {
    stats: FrameStats,
    /// `|d|` below the root's sampled cut (every defined `|d|` without
    /// one) — the fit's selection candidates.
    pool: Vec<f64>,
    /// Defined `|d|` equal to the cut.
    ties: usize,
}

/// Run the compiled plan end to end. Only called by the pipeline planner
/// (vectorized mode, non-two-sided policy); output is bit-identical to
/// the materialized path.
pub(crate) fn run_streaming(
    ctx: &EvalContext<'_>,
    plan: &StreamPlan<'_>,
    policy: &DisplayPolicy,
    mut trace: Option<Box<PipelineTrace>>,
) -> Result<PipelineOutput> {
    debug_assert!(
        !matches!(policy, DisplayPolicy::TwoSidedPercentage(_)),
        "the planner declines the two-sided policy"
    );
    let mut rows_scanned = 0u64;
    let mut rows_pruned = 0u64;
    let n = ctx.table.len();
    let partitions = ctx.partitions;
    let parallel = true; // the planner only streams in vectorized mode
    let num_nodes = plan.nodes.len();
    let budget = ctx.display_budget;

    // one scratch arena for the whole run: every chunk walk (both
    // passes, plus nested boolean levels) draws its per-worker buffers
    // from here instead of allocating per chunk
    let scratch_arena = chunk::ScratchArena::new();

    // fit-selection size per node, known before any walk: None = the
    // stats fast path always suffices (fit covers everything)
    let select_k: Vec<Option<usize>> = plan
        .nodes
        .iter()
        .map(|nd| fit_k(n, nd.weight, budget))
        .collect();
    let mut params = vec![
        NormParams {
            dmin: 0.0,
            dmax: 0.0
        };
        num_nodes
    ];
    // per node, the exact answers its stats walk counted: a top window's
    // is the §4.3 panel's per-slider `# results`, so lazy windows never
    // need a full frame
    let mut zeros = vec![0usize; num_nodes];
    let (mut fits_from_counts, mut fits_selected) = (0usize, 0usize);

    // ---- pass 1: fused stats + fit-selection walks, one per level ----
    for round in 0..=plan.depth {
        let roots: Vec<usize> = (0..num_nodes)
            .filter(|&i| plan.nodes[i].depth == round)
            .collect();
        if roots.is_empty() {
            continue;
        }
        checkpoint(ctx.cancel, Phase::Distance)?;
        let start = trace.as_ref().map(|_| Instant::now());
        let params_ref = &params;
        let arena = &scratch_arena;
        // One stats walk over every root of this level. A root whose fit
        // selects keeps, per chunk, the `|d|` below its cut (all of them
        // without one) and counts the ones equal to it: a pool that
        // reaches k with its ties holds the value-multiset of the k
        // smallest.
        let walk = |cuts: &[Option<f64>]| {
            let per_range: Vec<Vec<StatsAcc>> =
                chunk::map_ranges(n, partitions, parallel, |offset, len| {
                    // fast-drain on a tripped token: the checkpoint after
                    // this walk discards the partial stats before any fit
                    if ctx.poll_cancel() {
                        return vec![StatsAcc::default(); roots.len()];
                    }
                    let mut scratch = arena.take();
                    let (vals, mask) = &mut scratch.frames(1, len)[0];
                    (roots.iter().zip(cuts))
                        .map(|(&id, cut)| {
                            let stats = eval_chunk(plan, params_ref, id, offset, vals, mask, arena);
                            let mut acc = StatsAcc {
                                stats,
                                ..Default::default()
                            };
                            if select_k[id].is_some() {
                                let defined = vals.iter().zip(mask.iter()).filter(|(_, ok)| **ok);
                                for a in defined.map(|(v, _)| v.abs()) {
                                    if cut.is_none_or(|c| a < c) {
                                        acc.pool.push(a);
                                    }
                                    acc.ties += usize::from(*cut == Some(a));
                                }
                            }
                            acc
                        })
                        .collect()
                });
            let mut merged = vec![StatsAcc::default(); roots.len()];
            for range_out in per_range {
                for (slot, acc) in merged.iter_mut().zip(range_out) {
                    slot.stats.merge(&acc.stats);
                    slot.pool.extend(acc.pool);
                    slot.ties += acc.ties;
                }
            }
            merged
        };
        // the selection kernel's sampled cut, probed through the per-row
        // evaluator: it decides how much the pools hold, never the fit —
        // a pool left short of its k means the cut was too tight, and
        // the level is walked again without cuts
        let mut cuts: Vec<Option<f64>> = (roots.iter())
            .map(|&id| {
                let k = select_k[id]?;
                let probes = select::sample_rows(n).filter_map(|i| eval_row(plan, &params, id, i));
                select::sampled_cut(probes.map(f64::abs).collect(), n, k)
            })
            .collect();
        let mut merged = walk(&cuts);
        let short = (roots.iter().zip(&merged)).any(|(&id, acc)| {
            select_k[id].is_some_and(|k| k < acc.stats.defined && acc.pool.len() + acc.ties < k)
        });
        if short {
            cuts.fill(None);
            merged = walk(&cuts);
        }
        if let (Some(t), Some(start)) = (trace.as_mut(), start) {
            t.phases.distance += start.elapsed();
        }
        checkpoint(ctx.cancel, Phase::Fit)?;
        let start = trace.as_ref().map(|_| Instant::now());
        for ((&id, cut), acc) in roots.iter().zip(cuts).zip(merged) {
            let StatsAcc {
                stats, mut pool, ..
            } = acc;
            rows_scanned += stats.defined as u64;
            zeros[id] = stats.zeros;
            if cut.is_some() {
                rows_pruned += (stats.defined - pool.len()) as u64;
            }
            params[id] = match fit_from_counts(n, &stats, plan.nodes[id].weight, budget) {
                Ok(fitted) => {
                    fits_from_counts += 1;
                    fitted
                }
                Err(k) => {
                    fits_selected += 1;
                    if let Some(cut) = cut.filter(|_| pool.len() < k) {
                        // whatever the pool lacks of its k ties with the cut
                        pool.resize(k, cut);
                    }
                    fit_pool(pool, k)
                }
            };
        }
        if let (Some(t), Some(start)) = (trace.as_mut(), start) {
            t.phases.fit += start.elapsed();
        }
    }

    // ---- pass 2: fused distance → normalize → combine walk -----------
    checkpoint(ctx.cancel, Phase::NormalizeCombine)?;
    let start = trace.as_ref().map(|_| Instant::now());
    let weights: Vec<f64> = plan.tops.iter().map(|&t| plan.nodes[t].weight).collect();
    let mut combined = DistanceFrame::undefined(n);
    let ranges = chunk::ranges(n, partitions);
    let mut accs: Vec<RootAcc> = ranges.iter().map(|_| RootAcc::default()).collect();
    {
        type CombineTask<'t> = (usize, (&'t mut [f64], &'t mut [bool]), &'t mut RootAcc);
        let tasks: Vec<CombineTask<'_>> = ranges
            .iter()
            .map(|&(offset, _)| offset)
            .zip(combined.split_ranges_mut(&ranges))
            .zip(accs.iter_mut())
            .map(|((offset, comb), acc)| (offset, comb, acc))
            .collect();
        let params_ref = &params;
        let weights = &weights;
        let arena = &scratch_arena;
        // the fused pass-2 loop, as branchless SoA kernels per chunk:
        // evaluate each top window into arena scratch, then normalize,
        // root-combine straight into the output frame and fold the
        // finalize inputs over it in one pass of the block kernel (a
        // root `OR`: [`apply_in_place`], slice kernel, then the fold) —
        // every float op identical to the materialized walk (see the
        // kernels' docs)
        chunk::run_striped(
            tasks,
            parallel && n >= chunk::PAR_MIN_ROWS,
            move |(offset, (cv, cm), acc)| {
                // fast-drain: the Rank checkpoint below discards the
                // half-combined output of a tripped run
                if ctx
                    .cancel
                    .is_some_and(|c| c.should_stop(Phase::NormalizeCombine))
                {
                    return;
                }
                let len = cv.len();
                let mut scratch = arena.take();
                let top_bufs = scratch.frames(plan.tops.len(), len);
                let or_root = plan.root == Root::Or;
                for (&t, (v, m)) in plan.tops.iter().zip(top_bufs.iter_mut()) {
                    eval_chunk(plan, params_ref, t, offset, v, m, arena);
                    // §5.2 re-normalization before the root combine
                    // (the block kernel applies it in registers)
                    if or_root {
                        apply_in_place(params_ref[t], v, m);
                    }
                }
                if or_root {
                    let views: Vec<(&[f64], &[bool])> =
                        top_bufs.iter().map(|(v, m)| (&v[..], &m[..])).collect();
                    combine_or_slices(&views, weights, cv, cm);
                    acc.fold(cv, cm);
                } else {
                    let raw: Vec<Child<'_>> = (plan.tops.iter().zip(top_bufs.iter()))
                        .map(|(&t, (v, m))| Child::Frame(v, m, Some(params_ref[t])))
                        .collect();
                    let weights = (plan.root == Root::And).then_some(weights.as_slice());
                    combine_and_blocks(&raw, weights, 0, cv, cm, Some(acc));
                }
            },
        );
    }
    let mut root = RootAcc::default();
    for acc in &accs {
        root.merge(acc);
    }

    // final combined normalization in place — the finalize walk shared
    // with the materialized vectorized path
    finalize_combined(
        &mut combined,
        &root,
        &ranges,
        parallel && n >= chunk::PAR_MIN_ROWS,
    );
    if let (Some(t), Some(start)) = (trace.as_mut(), start) {
        t.phases.normalize_combine += start.elapsed();
    }

    // ---- rank and select: the exact machinery of the materialized
    // path (pruned top-k selection over the same range list) -----------
    checkpoint(ctx.cancel, Phase::Rank)?;
    let start = trace.as_ref().map(|_| Instant::now());
    let combined = Combined::Frame(combined);
    let (order, displayed) = rank_and_select(
        &combined,
        &root,
        &[],
        policy,
        plan.tops.len(),
        &ranges,
        trace.as_deref_mut(),
    )?;

    // ---- late window assembly: evaluate each top window only at the
    // ranked rows — `order`, a superset of `displayed` (the gap
    // heuristic ranks rmax + z + 1 rows but may display fewer; callers
    // legitimately read per-window distances over the whole ranking) ---
    let mut covered: Vec<usize> = order.iter().map(|&i| i as usize).collect();
    covered.sort_unstable();
    let windows: Vec<PredicateWindow> = plan
        .tops
        .iter()
        .map(|&t| {
            let rows: Vec<(usize, Option<f64>)> = covered
                .iter()
                .map(|&i| (i, eval_row(plan, &params, t, i)))
                .collect();
            let node = &plan.nodes[t];
            PredicateWindow {
                label: node.label.clone(),
                signed: node.signed,
                weight: node.weight,
                norm_params: params[t],
                data: WindowData::Displayed(Arc::new(DisplayedWindow::new(n, rows, zeros[t]))),
            }
        })
        .collect();
    if let (Some(t), Some(start)) = (trace.as_mut(), start) {
        t.phases.rank += start.elapsed();
    }

    if let Some(t) = &mut trace {
        t.streaming = true;
        t.partitions = partitions.map_or(1, |p| p.len());
        t.rows_scanned = rows_scanned;
        t.rows_pruned = rows_pruned;
        t.windows_evaluated = plan.tops.len();
        t.fits_from_counts = fits_from_counts;
        t.fits_selected = fits_selected;
        t.children_raw = plan.tops.len();
    }
    Ok(PipelineOutput {
        n,
        combined,
        order,
        displayed,
        num_exact: root.num_exact,
        windows,
        trace,
    })
}
