//! Machine-readable perf record of the relevance hot path: scalar
//! (per-tuple, full-sort) vs vectorized (columnar kernels, chunked
//! data-parallel execution, top-k selection) rows/sec, isolated
//! top-k-vs-full-sort timings, a **per-phase breakdown** (distance /
//! fit / normalize+combine / rank), the
//! **packed-vs-Option** representation A/B, the **slider-drag**
//! micro-bench (sorted-projection incremental path vs full recompute),
//! the **observability overhead** A/B (untraced run vs traced run plus the
//! per-query registry recording the service layer performs), the
//! **cancellation-poll overhead** A/B (tokenless run vs the identical
//! run polling a live deadline token at every 16k-row chunk), the
//! **branchless-vs-branchy** A/B isolating the fused normalize+combine
//! phase (per-row `Option`/`if defined` walk vs the packed
//! `apply_slice` + `combine_and_slices` + select-fold kernels), and a
//! **threads axis** re-timing the vectorized path under
//! explicit 1/2/4/8-thread worker budgets, and the
//! **reweight-vs-recompute** A/B (a re-weighted join window refitted
//! from its cached raw frame vs evaluated again — median with min/p90),
//! and an **exact-light arm** (`x >= 0.999 n`: fewer exact answers than
//! the fit and the ranking ask for, so the ranking runs its selection
//! walk and the fit one over the frame below the parallel threshold, or
//! is answered from the column's byte sketch above it — the acceptance
//! workload's are answered from counts), and the
//! **3-window all-degenerate re-weight** (`reweight_3w_ms`: every fit
//! `dmax = 0`, so the run reads packed exact bits and derives the root
//! from its pattern table) with the bytes its result holds per row, and
//! the bytes per row a window holds on each arm: its exact bits alone on
//! the exact-heavy one, its raw frame on the exact-light one (its bits
//! and the rows below its plateau where the sketch fitted it), and that
//! re-weight through a **session and its render** (`session_reweight_3w_ms`:
//! the held panel handed back) beside a selection's repaint by pattern
//! (`session_repaint_3w_ms`).
//! A full run writes `BENCH_pipeline.json` in the working directory so
//! future PRs can track the perf trajectory — and see where the time
//! goes, not just one end-to-end number; a `--smoke` run writes
//! `target/BENCH_pipeline.smoke.json` instead, so it never replaces
//! the committed full-run file. `--out <path>` overrides either.
//!
//! Every measurement is the **median** of at least [`MIN_REPS`] timed
//! repetitions (more until ~0.5 s or 50 reps accumulate); the JSON
//! records the minimum rep count per size so readers can judge how
//! settled the ratios are.
//!
//! ```sh
//! cargo run --release -p visdb-bench --bin pipeline_perf               # full (n up to 1M)
//! cargo run --release -p visdb-bench --bin pipeline_perf -- --smoke    # CI: tiny n, asserts only
//! cargo run --release -p visdb-bench --bin pipeline_perf -- --threads 4 # pin the worker budget
//! cargo run --release -p visdb-bench --bin pipeline_perf -- --out /tmp/p.json
//! ```
//!
//! In both modes the binary *asserts* that the vectorized output is
//! identical to the scalar reference — at every thread count on the
//! threads axis — and the incremental
//! slider drag identical to a full recompute — before it times
//! anything; a regression that changes results fails the run regardless
//! of timing noise.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use visdb_bench::{ramp_db, write_results};
use visdb_core::{render_session, Paint, RenderOptions, Session};
use visdb_distance::batch::{self, CompareKernel, NumericKernel};
use visdb_distance::frame::{DistanceFrame, FrameStats};
use visdb_distance::lanes::select;
use visdb_distance::DistanceResolver;
use visdb_exec::{CancelToken, Runtime};
use visdb_index::SortedProjection;
use visdb_obs::{Histogram, Registry};
use visdb_query::ast::{CompareOp, ConditionNode, PredicateTarget, Query};
use visdb_query::builder::QueryBuilder;
use visdb_query::connection::ConnectionRegistry;
use visdb_relevance::cache::PipelineCache;
use visdb_relevance::chunk;
use visdb_relevance::combine::combine_and_slices;
use visdb_relevance::normalize::{apply_slice, fit_frame, fit_k, NormParams};
use visdb_relevance::pipeline::{
    run_pipeline, DisplayPolicy, ExecMode, PipelineOptions, PipelineOutput, PredicateWindow,
};
use visdb_relevance::reference::{and_row, fit_improved};
use visdb_relevance::select::{k_smallest_sorted, rank_order};
use visdb_storage::{Database, TableBuilder};
use visdb_types::{Column, DataType, Value};

/// Minimum timed repetitions per measurement; every reported number is
/// the **median** over at least this many reps (the de-flake floor).
const MIN_REPS: usize = 5;

/// Worker budgets for the threads axis: the vectorized path re-timed
/// under each explicit budget.
const THREAD_SERIES: [usize; 4] = [1, 2, 4, 8];

/// One point on the threads axis.
struct ThreadPoint {
    threads: usize,
    vectorized_rows_per_sec: f64,
}

struct SizeResult {
    n: usize,
    scalar_rows_per_sec: f64,
    vectorized_rows_per_sec: f64,
    speedup: f64,
    full_sort_ms: f64,
    topk_ms: f64,
    topk_k: usize,
    /// Per-phase breakdown of one vectorized run (milliseconds): the
    /// executor a session's recompute runs, minus its caches.
    phase_distance_ms: f64,
    phase_fit_ms: f64,
    phase_normalize_combine_ms: f64,
    phase_rank_ms: f64,
    /// The exact-light arm: `x >= 0.999 n` leaves 0.1 % exact answers —
    /// fewer than the `k` = 1 % the §5.2 fit and the ranking ask for, so
    /// the ranking takes its selection walk and the fit is selected over
    /// the frame — or, from the parallel threshold up, answered from the
    /// column's byte sketch with no frame — where the acceptance
    /// workload's 10 % are answered from the distance walk's counts
    /// (asserted off the trace on both arms). The run a session's recompute makes (median with its min and p90) and its per-phase
    /// breakdown (distance / fit / normalize+combine / rank, ms).
    exact_light: Timed,
    exact_light_phase_ms: [f64; 4],
    /// Representation A/B on the same single-threaded workload:
    /// `Vec<Option<f64>>` three-pass baseline vs packed `DistanceFrame`
    /// fused pass, in rows/sec.
    option_repr_rows_per_sec: f64,
    packed_repr_rows_per_sec: f64,
    packed_vs_option: f64,
    /// Slider drag: sorted-projection incremental path vs full pipeline
    /// recompute for a contained bound modification.
    drag_incremental_us: f64,
    drag_full_us: f64,
    drag_speedup: f64,
    /// The same A/B for *sparse* drags: bounds that leave fewer exact
    /// answers than display slots, so the display fills from the
    /// nearest misses and — under the weight-1 fit — the §5.2 clamp
    /// plateau. Each arm is the median with its min and p90.
    drag_sparse: Timed,
    drag_sparse_full: Timed,
    /// Delta-generation maintenance A/B at the server-op level: append
    /// a 1% delta to a live `Service` (`append_rows`: O(Δ) delta eval,
    /// window extension, projection merge, session rebase) then serve a
    /// summary + drag through the surviving caches — vs reloading from
    /// scratch (row-by-row `Database` rebuild, re-register, cold
    /// summary + drag). Both arms end in the identical served state
    /// (asserted before timing).
    append_ms: f64,
    reload_ms: f64,
    append_vs_reload: f64,
    /// Sorted-projection delta merge (`extended`: delta sort + linear
    /// merge, O(n + Δ log Δ)) vs full rebuild (`build`: O(n log n)
    /// sort) at n + Δ, outputs asserted identical first.
    proj_merge_ms: f64,
    proj_build_ms: f64,
    append_projection_merge: f64,
    /// String-predicate A/B on a dictionary-friendly `Str` column
    /// (~100 distinct values, NULLs sprinkled in): the scalar reference
    /// clones a `Value` per row; the vectorized path evaluates the
    /// distance once per *distinct* value and gathers per row through
    /// the dictionary codes. Scalar and vectorized outputs are asserted
    /// identical before timing.
    string_scalar_rows_per_sec: f64,
    string_vectorized_rows_per_sec: f64,
    string_gather_speedup: f64,
    /// Observability overhead A/B: the same vectorized run with
    /// tracing off (the plain-session default) vs tracing on **plus**
    /// the per-query registry recording a service performs (four phase
    /// histograms, an op counter, an op-latency histogram). The ratio
    /// is instrumented/baseline throughput; ~1.0 means telemetry is
    /// free at query granularity.
    obs_baseline_rows_per_sec: f64,
    obs_instrumented_rows_per_sec: f64,
    obs_overhead: f64,
    /// Cancellation-poll overhead A/B: the same vectorized run
    /// without a cancel token (the plain-submission fast path — each
    /// 16k-row chunk checkpoint is one armed-fault load and a `None`
    /// branch, i.e. the pre-deadline pipeline) vs the identical run
    /// threading a live far-future-deadline token through
    /// `PipelineOptions::cancel`, so every checkpoint pays the full
    /// poll: atomic state load plus monotonic-clock deadline
    /// comparison. Outputs asserted bit-identical first. The ratio is
    /// polling/baseline throughput; ~1.0 means deadline enforcement is
    /// free until it actually fires.
    cancel_baseline_rows_per_sec: f64,
    cancel_polling_rows_per_sec: f64,
    cancel_overhead: f64,
    /// Re-weight A/B on `x >= 0.9n AND x IN (SELECT y FROM I)` with the
    /// join window's weight changed: the session cache
    /// holds the window under the other weight, so the run refits its
    /// cached raw frame (`reweight`) — vs the cache holding only the
    /// first window, so the join is evaluated again (`recompute`: what
    /// every re-weight cost while the weight was part of a window's
    /// identity). Outputs asserted identical first; each arm is the
    /// median with its min and p90.
    reweight: Timed,
    recompute: Timed,
    /// Re-weight of one window of a 3-window `AND` over the ramp whose
    /// every fit is `dmax = 0` (each predicate has more exact answers
    /// than its fit asks for — the Weather shape): the session cache
    /// holds all three windows, the run refits one from its counts,
    /// reads all three from their packed exact bits and derives the root
    /// from its pattern table — no combined frame written (asserted off
    /// the trace, and identical to the scalar reference, before timing).
    reweight_3w: Timed,
    /// A cold window's distance walk with and without the column's byte
    /// sketch: compare-and-pack of an `n`-row Weather `Humidity` column
    /// chunk by chunk on one thread, against `sketch_pack` of the same
    /// chunks (stats and bits asserted equal first), and the sketch's
    /// O(n) build. Each the median with its min and p90.
    compare_pack: Timed,
    sketch_pack: Timed,
    sketch_build: Timed,
    /// The same query on a warm session, through `render_session` and
    /// its ASCII preview ([`bench_session_render`]): a re-weight, whose
    /// render hands back the held panel, and a selection, whose panel is
    /// painted by pattern.
    session_reweight_3w: Timed,
    session_repaint_3w: Timed,
    /// Heap bytes per row the exact-heavy arm's window holds: its packed
    /// exact bits alone (1/8, and 1/8 more for definedness bits when a
    /// row is undefined) — its exact answers cover its fit, so its walk
    /// never wrote the raw frame.
    window_bytes_per_row: f64,
    /// Heap bytes per row the exact-light arm's window holds: the raw
    /// frame (9) plus the exact bits its walk folded (1/8) — or, from the
    /// parallel threshold up, where the column's byte sketch fits it, the
    /// bits plus the rows below its plateau with their distances.
    window_bytes_per_row_raw: f64,
    /// Heap bytes per row the re-weight's result holds: `combined` (its
    /// pattern table: 8 values and 8 counts, however many rows) plus
    /// `order` and `displayed`.
    result_bytes_per_row: f64,
    /// Branchless-vs-branchy A/B on the isolated normalize+combine
    /// phase: the phase as it ran before the lane kernels (per-row
    /// `if defined` walks filling full-size per-child normalized
    /// frames, per-row `and_row` combine, full-pass re-fit + branchy
    /// re-apply) vs the kernel path (chunked `apply_slice` +
    /// `combine_and_slices` + select fold + one finalize pass), on
    /// identical packed inputs (asserted bit-identical first).
    /// Single-threaded by construction, so the ratio isolates the
    /// branch-elimination + chunk-fusion win, not scheduling.
    branchy_nc_rows_per_sec: f64,
    branchless_nc_rows_per_sec: f64,
    branchless_vs_branchy: f64,
    /// Minimum repetition count across this size's timed measurements —
    /// every reported number is a median over at least this many reps.
    reps: usize,
    /// The vectorized path re-timed under each explicit worker budget
    /// in [`THREAD_SERIES`].
    threads: Vec<ThreadPoint>,
}

/// Per-phase wall times of one traced run, in milliseconds, in
/// distance / fit / normalize+combine / rank order (the trace replaces
/// the old `timings: Option<&mut _>` out-parameter the pipeline used to
/// take).
fn phase_sample_ms(out: &PipelineOutput) -> [f64; 4] {
    let t = out.trace.as_deref().expect("trace requested but absent");
    [t.distance, t.fit, t.normalize_combine, t.rank].map(|d| d.as_secs_f64() * 1e3)
}

/// Per-phase medians (ms) over [`MIN_REPS`] traced runs of `run`.
fn phase_medians_ms(run: impl Fn() -> PipelineOutput) -> [f64; 4] {
    let mut samples: [Vec<f64>; 4] = Default::default();
    for _ in 0..MIN_REPS {
        let out = run();
        for (acc, ms) in samples.iter_mut().zip(phase_sample_ms(&out)) {
            acc.push(ms);
        }
        std::hint::black_box(out);
    }
    samples.map(|mut phase| median(&mut phase))
}

/// The pre-packed intermediate representation, reconstructed locally as
/// the A/B baseline: three passes over 16-byte `Option<f64>` elements
/// (distance fill, fit re-collect + selection, normalize + combine +
/// exact count) — exactly the pass structure the pipeline had before
/// packed frames. Returns a checksum so the optimizer keeps it honest.
fn option_repr_pipeline(xs: &[f64], t: f64, budget: usize) -> (usize, f64) {
    let n = xs.len();
    let kernel = NumericKernel::Compare(CompareKernel::Greater, Some(t));
    let mut dist: Vec<Option<f64>> = vec![None; n];
    batch::run(xs, None, kernel, &mut dist);
    let params = fit_improved(&dist, 1.0, budget);
    let mut exact = 0usize;
    let mut sum = 0.0f64;
    let mut combined: Vec<Option<f64>> = vec![None; n];
    for (o, d) in combined.iter_mut().zip(&dist) {
        if let Some(d) = d {
            if *d == 0.0 {
                exact += 1;
            }
            let v = params.apply(d.abs());
            sum += v;
            *o = Some(v);
        }
    }
    (exact, sum)
}

/// The packed equivalent: one fused distance+stats pass writing 8-byte
/// values plus a byte mask, a stats-served (or 8-byte-selection) fit,
/// and one fused normalize walk over the packed buffers.
fn packed_repr_pipeline(xs: &[f64], t: f64, budget: usize) -> (usize, f64) {
    let n = xs.len();
    let kernel = NumericKernel::Compare(CompareKernel::Greater, Some(t));
    let mut frame = DistanceFrame::undefined(n);
    let stats = {
        let (vals, mask) = frame.parts_mut();
        batch::run_frame(xs, None, kernel, vals, mask)
    };
    let params = fit_frame(&frame, &stats, 1.0, budget);
    let mut exact = 0usize;
    let mut sum = 0.0f64;
    let mut out = DistanceFrame::undefined(n);
    {
        let (ovals, omask) = out.parts_mut();
        for (((ov, om), &d), &ok) in ovals
            .iter_mut()
            .zip(omask.iter_mut())
            .zip(frame.values())
            .zip(frame.validity().as_slice())
        {
            if ok {
                if d == 0.0 {
                    exact += 1;
                }
                let v = params.apply(d.abs());
                sum += v;
                *ov = v;
                *om = true;
            }
        }
    }
    (exact, sum)
}

/// Checksum of one normalize+combine phase walk: exact-match count,
/// any-nonzero flag, and the bits of the pre-finalize max-|combined| —
/// the three accumulators the pipeline's root fold carries.
type NcChecksum = (usize, bool, u64);

/// The final normalization range the phase re-fits over the combined
/// distances (the local mirror of the pipeline's `params_from_max`:
/// anchored at zero, degenerate when no finite max exists).
fn final_norm_params(max_abs: f64) -> NormParams {
    if max_abs.is_finite() {
        NormParams {
            dmin: 0.0,
            dmax: max_abs,
        }
    } else {
        NormParams {
            dmin: 0.0,
            dmax: 0.0,
        }
    }
}

/// The **branchy** arm of the normalize+combine A/B, reconstructed
/// locally as the baseline: the phase exactly as the materialized
/// pipeline ran it before the lane kernels — per-child full-size
/// normalized frames filled by a per-row `if defined` walk, a per-row
/// [`and_row`] combine over `Option` rows rebuilt from those frames,
/// then a full-pass final fit and a branchy re-apply over the `Option`
/// vector.
fn branchy_normalize_combine(
    children: &[(&[f64], &[bool])],
    params: &[NormParams],
    weights: &[f64],
    normed: &mut [(Vec<f64>, Vec<bool>)],
    out: &mut [Option<f64>],
) -> NcChecksum {
    let n = out.len();
    for ((vals, mask), ((nv, nm), p)) in children.iter().zip(normed.iter_mut().zip(params)) {
        for i in 0..n {
            if mask[i] {
                nv[i] = p.apply(vals[i].abs());
                nm[i] = true;
            } else {
                nv[i] = 0.0;
                nm[i] = false;
            }
        }
    }
    let mut row: Vec<Option<f64>> = vec![None; children.len()];
    for (i, o) in out.iter_mut().enumerate() {
        for (r, (nv, nm)) in row.iter_mut().zip(normed.iter()) {
            *r = if nm[i] { Some(nv[i]) } else { None };
        }
        *o = and_row(&row, weights);
    }
    let mut num_exact = 0usize;
    let mut any_nonzero = false;
    let mut max_abs = f64::NEG_INFINITY;
    for x in out.iter().flatten() {
        if *x == 0.0 {
            num_exact += 1;
        } else {
            any_nonzero = true;
        }
        let a = x.abs();
        if a.is_finite() && a > max_abs {
            max_abs = a;
        }
    }
    let fp = final_norm_params(max_abs);
    for c in out.iter_mut() {
        if let Some(d) = *c {
            *c = Some(if any_nonzero { fp.apply(d.abs()) } else { d });
        }
    }
    (num_exact, any_nonzero, max_abs.to_bits())
}

/// The **branchless** arm: the phase as the kernel pipeline runs it
/// now — per cache-resident block, [`apply_slice`] into packed
/// per-child scratch (validity words drive the all-valid fast path and
/// per-lane selects replace per-row branches), [`combine_and_slices`]
/// over the views, the select-based accumulator fold, and then the
/// single finalize pass. Scratch is caller-owned and chunk-sized (it
/// stays cache-resident across blocks, exactly as the pipeline's arena
/// scratch does), so the timed loop measures the walk, not allocation.
#[allow(clippy::too_many_arguments)]
fn branchless_normalize_combine(
    children: &[(&[f64], &[bool])],
    params: &[NormParams],
    weights: &[f64],
    norm: &mut [(Vec<f64>, Vec<bool>)],
    comb_vals: &mut [f64],
    comb_mask: &mut [bool],
    out: &mut [Option<f64>],
) -> NcChecksum {
    let n = out.len();
    let chunk_rows = comb_vals.len();
    let mut num_exact = 0usize;
    let mut any_nonzero = false;
    let mut max_abs = f64::NEG_INFINITY;
    let mut offset = 0usize;
    while offset < n {
        let len = chunk_rows.min(n - offset);
        for ((vals, mask), ((nv, nm), &p)) in children.iter().zip(norm.iter_mut().zip(params)) {
            apply_slice(
                p,
                &vals[offset..offset + len],
                &mask[offset..offset + len],
                &mut nv[..len],
                &mut nm[..len],
            );
        }
        let views: Vec<(&[f64], &[bool])> =
            norm.iter().map(|(v, m)| (&v[..len], &m[..len])).collect();
        combine_and_slices(
            &views,
            weights,
            &mut comb_vals[..len],
            &mut comb_mask[..len],
        );
        for (o, (&x, &ok)) in out[offset..offset + len]
            .iter_mut()
            .zip(comb_vals[..len].iter().zip(comb_mask[..len].iter()))
        {
            *o = ok.then_some(x);
            num_exact += (ok && x == 0.0) as usize;
            any_nonzero |= ok && x != 0.0;
            let a = x.abs();
            max_abs = max_abs.max(select(ok && a.is_finite(), a, f64::NEG_INFINITY));
        }
        offset += len;
    }
    let fp = final_norm_params(max_abs);
    for c in out.iter_mut() {
        if let Some(d) = *c {
            *c = Some(if any_nonzero { fp.apply(d.abs()) } else { d });
        }
    }
    (num_exact, any_nonzero, max_abs.to_bits())
}

/// Slider-drag micro-bench: a warm session alternates between two
/// contained bound modifications (`x >= bounds[i] * n`, 1 % of the rows
/// displayed), once through the sorted-projection incremental path
/// ([`Session::drag_slider`]) and once through a full eager recompute
/// ([`Session::set_predicate_target`]). Asserts the two paths agree
/// before timing.
fn bench_slider(db: &Arc<Database>, n: usize, min_reps: usize, bounds: [f64; 2]) -> (Timed, Timed) {
    let targets = bounds.map(|b| n as f64 * b);
    let target = |t: f64| PredicateTarget::Compare {
        op: CompareOp::Ge,
        value: Value::Float(t),
    };
    let make = || {
        let mut s = Session::new(Arc::clone(db), ConnectionRegistry::new());
        s.set_display_policy(DisplayPolicy::Percentage(1.0))
            .expect("policy");
        s.set_query(
            QueryBuilder::from_tables(["T"])
                .cmp("x", CompareOp::Ge, n as f64 * 0.9)
                .build(),
        )
        .expect("query");
        s
    };
    // correctness first: the incremental drag must equal a full recompute
    let mut inc = make();
    for &t in &targets {
        let drag = inc.drag_slider(0, target(t)).expect("drag");
        assert!(drag.incremental, "fast path must engage at n={n}");
        let mut full = make();
        full.set_predicate_target(0, target(t)).expect("set");
        let res = full.result().expect("result");
        assert_eq!(drag.displayed, res.pipeline.displayed, "drag diverges");
        assert_eq!(drag.num_exact, res.pipeline.num_exact);
    }
    // timed: alternate contained drags (projection + cache stay warm)
    let mut flip = 0usize;
    let inc_t = time_median(min_reps, || {
        flip += 1;
        inc.drag_slider(0, target(targets[flip % 2])).expect("drag")
    });
    let mut full = make();
    let mut flip = 0usize;
    let full_t = time_median(min_reps, || {
        flip += 1;
        full.set_predicate_target(0, target(targets[flip % 2]))
            .expect("set");
    });
    (inc_t, full_t)
}

/// Delta-generation append vs reload-from-scratch, measured at the
/// server-op level with a 1% delta. Each rep runs against a freshly
/// warmed service (query installed, windows cached, table projection
/// built) so the timed section isolates the maintenance
/// cost, not setup. FitScreen display keeps the per-window budget
/// n-independent, so the extended windows are *served* after the
/// append, not merely stored. The appended rows are exact answers
/// (distance 0), which cannot displace the §5.2 k-th smallest |d| —
/// the extend-don't-recompute happy path this A/B exists to price.
fn bench_append(db: &Arc<Database>, n: usize, min_reps: usize) -> (Timed, Timed) {
    use visdb_service::{Request, Response, Service, ServiceConfig};
    let delta = (n / 100).max(1);
    // budget (128) stays below the exact-answer count (>= 1500) at
    // every bench size, so the §5.2 k-th smallest |d| is 0; the delta
    // rows sit far *below* the bound (large distances), which provably
    // cannot displace a k-th smallest of 0 — the fit cannot shift and
    // the windows must extend rather than recompute. FitScreen keeps
    // the budget n-independent so the extended windows are also *hit*,
    // and the exact band stays small enough for the sorted-projection
    // drag fast path to survive the append.
    let policy = DisplayPolicy::FitScreen {
        pixels: 128,
        pixels_per_item: 1,
    };
    let bound = n as f64 - 2000.0;
    let query = format!("SELECT * FROM T WHERE x >= {bound}");
    let final_bound = n as f64 - 1500.0;
    let delta_rows: Vec<Vec<Value>> = (0..delta)
        .map(|i| vec![Value::Float(-((i + 1) as f64))])
        .collect();

    let warm = |service: &Service| {
        let id = service.create_session("ramp").expect("session");
        for req in [
            Request::SetDisplayPolicy(policy.clone()),
            Request::SetQueryText(query.clone()),
            Request::Summary { trace: false },
            Request::DragSlider {
                window: 0,
                op: CompareOp::Ge,
                value: bound,
                trace: false,
            },
        ] {
            service.submit(id, req).expect("warmup request");
        }
        id
    };
    // the reload arm re-registers into one long-lived service so
    // neither timed section includes worker-thread spawning
    let reload = |service: &Service| -> visdb_service::Response {
        let mut t = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
        for i in 0..n {
            t = t.row(vec![Value::Float(i as f64)]).expect("ramp row");
        }
        for row in &delta_rows {
            t = t.row(row.clone()).expect("delta row");
        }
        let mut full = Database::new("bench");
        full.add_table(t.build());
        service.register_dataset("ramp", Arc::new(full), ConnectionRegistry::new());
        let id = warm(service);
        service
            .submit(
                id,
                Request::DragSlider {
                    window: 0,
                    op: CompareOp::Ge,
                    value: final_bound,
                    trace: false,
                },
            )
            .expect("reload drag")
    };

    // correctness first: the appended service must serve the identical
    // answer — and its post-append drag must stay on the fast path
    let appended = Service::new(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    appended.register_dataset("ramp", Arc::clone(db), ConnectionRegistry::new());
    let id = warm(&appended);
    let out = appended
        .append_rows("ramp", None, delta_rows.clone())
        .expect("append");
    assert_eq!(out.rows_appended, delta, "append lands the delta at n={n}");
    assert!(
        out.windows_extended >= 1,
        "append must extend the cached window at n={n}, not recompute it"
    );
    let drag = appended
        .submit(
            id,
            Request::DragSlider {
                window: 0,
                op: CompareOp::Ge,
                value: final_bound,
                trace: false,
            },
        )
        .expect("appended drag");
    assert!(
        matches!(
            drag,
            Response::Drag {
                incremental: true,
                ..
            }
        ),
        "post-append drag must stay incremental at n={n}"
    );
    let summary = appended
        .submit(id, Request::Summary { trace: false })
        .expect("appended summary");
    let reloader = Service::new(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    let reload_drag = reload(&reloader);
    assert_eq!(drag, reload_drag, "append vs reload drag diverges at n={n}");
    let reload_id = warm(&reloader);
    reloader
        .submit(
            reload_id,
            Request::DragSlider {
                window: 0,
                op: CompareOp::Ge,
                value: final_bound,
                trace: false,
            },
        )
        .expect("reload drag (identity)");
    let reload_summary = reloader
        .submit(reload_id, Request::Summary { trace: false })
        .expect("reload summary");
    assert_eq!(
        summary, reload_summary,
        "append vs reload summary diverges at n={n}"
    );

    // timed: both arms restore the same warm serving state (windows
    // cached, table projection extended). The append arm does it in
    // one maintenance op — window extension, projection merge and the
    // sessions' rebase ride inside `append_rows`; the
    // reload arm rebuilds the database and re-warms from cold. The
    // post-append pipeline recompute is identical in both arms (the
    // data changed) and is excluded from both.
    // steady-state appends: one warmed service receiving successive
    // deltas (the dynamic-data arrival pattern), first append untimed
    // so the measurement sees a warm allocator, like any long-running
    // server would. Rep count stays below the compaction threshold so
    // every timed rep takes the extend-and-merge path.
    let reps = min_reps.max(MIN_REPS);
    // the allocator reaches its append steady state after a few rounds
    // of the path's large transient buffers; run those rounds on the
    // identity-phase service (process-global warmth, and that service's
    // chain has room below the compaction threshold)
    for _ in 0..2 {
        appended
            .append_rows("ramp", None, delta_rows.clone())
            .expect("allocator warmup append");
    }
    let mut append_samples = Vec::with_capacity(reps);
    {
        let service = Service::new(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        service.register_dataset("ramp", Arc::clone(db), ConnectionRegistry::new());
        warm(&service);
        service
            .append_rows("ramp", None, delta_rows.clone())
            .expect("warmup append");
        for _ in 0..reps {
            let rows = delta_rows.clone();
            let t0 = Instant::now();
            let out = service.append_rows("ramp", None, rows).expect("append");
            append_samples.push(t0.elapsed().as_secs_f64());
            assert!(!out.compacted, "reps must stay below the threshold");
            assert!(
                out.windows_extended >= 1,
                "steady-state appends must keep extending at n={n}"
            );
        }
    }
    let mut reload_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(reload(&reloader));
        reload_samples.push(t0.elapsed().as_secs_f64());
    }
    (Timed::of(append_samples), Timed::of(reload_samples))
}

/// Sorted-projection delta merge vs full rebuild: `extended` sorts only
/// the Δ appended rows and linear-merges them into the existing
/// permutation; `build` re-sorts all n + Δ rows. Same accessor, same
/// validity holes, outputs asserted identical before timing.
fn bench_projection_merge(n: usize, min_reps: usize) -> (Timed, Timed) {
    let delta = (n / 100).max(1);
    let n2 = n + delta;
    // deterministic scramble with NULL holes (no `rand` in the timed path)
    let get = |i: usize| {
        if i.is_multiple_of(97) {
            None
        } else {
            Some((i.wrapping_mul(2654435761) % 1_000_003) as f64)
        }
    };
    let base = SortedProjection::build(n, get);
    let merged = base.extended(n2, get);
    let rebuilt = SortedProjection::build(n2, get);
    assert_eq!(merged.rows(), rebuilt.rows(), "rows diverge at n={n}");
    assert_eq!(
        merged.defined(),
        rebuilt.defined(),
        "defined counts diverge at n={n}"
    );
    for j in 0..merged.defined() {
        assert_eq!(
            (merged.value_at(j), merged.row_at(j)),
            (rebuilt.value_at(j), rebuilt.row_at(j)),
            "merged projection diverges from rebuild at n={n}, slot {j}"
        );
    }
    let merge_t = time_median(min_reps, || base.extended(n2, get));
    let build_t = time_median(min_reps, || SortedProjection::build(n2, get));
    (merge_t, build_t)
}

/// Re-weight and repaint micro-bench on a warm session over `query`, an
/// `AND` whose exact answers cover its display count: alternating the
/// weight of window 1 places the same exact rows with the same patterns,
/// so each re-weight's render hands back the held panel and its encoded
/// ASCII preview; alternating the selected item changes a render input,
/// so each selection's panel is painted by pattern. Each timed call is
/// the modification plus `render_session` plus the ASCII preview, as a
/// wire `render` asks for it. Asserts how each panel came about, and that
/// the repainted panel equals a fresh session's, before timing.
fn bench_session_render(db: &Arc<Database>, min_reps: usize, query: Query) -> (Timed, Timed) {
    let options = RenderOptions::default();
    let make = || {
        let mut s = Session::new(Arc::clone(db), ConnectionRegistry::new());
        s.set_display_policy(DisplayPolicy::Percentage(1.0))
            .expect("policy");
        s.set_query(query.clone()).expect("query");
        s
    };
    let mut session = make();
    let first = render_session(&mut session, &options).expect("render");
    let res = session.result().expect("result");
    let selections = [res.pipeline.displayed[0], res.pipeline.displayed[1]];
    let mut flip = 0usize;
    let mut reweight = || {
        flip += 1;
        let weight = [0.3, 0.7][flip % 2];
        session.set_weight(1, weight).expect("weight");
        let picture = render_session(&mut session, &options).expect("render");
        (picture.ascii(), picture, session.take_paint())
    };
    let (_, picture, paint) = reweight();
    assert!(Arc::ptr_eq(&picture, &first) && paint == Some(Paint::Held));
    let reweight_t = time_median(min_reps, reweight);
    let mut repaint = |flip: usize| {
        session.select_tuple(selections[flip % 2]).expect("select");
        let picture = render_session(&mut session, &options).expect("render");
        (picture.ascii(), picture, session.take_paint())
    };
    let (_, picture, paint) = repaint(0);
    assert_eq!(paint, Some(Paint::Patterns));
    let mut cold = make();
    cold.set_weight(1, 0.7).expect("weight");
    cold.select_tuple(selections[0]).expect("select");
    let want = render_session(&mut cold, &options).expect("render");
    assert!(
        picture.frame() == want.frame(),
        "a repainted panel diverges from a cold one"
    );
    let mut flip = 0usize;
    let repaint_t = time_median(min_reps, || {
        flip += 1;
        repaint(flip)
    });
    (reweight_t, repaint_t)
}

/// One de-flaked measurement: the median seconds-per-call over `reps`
/// individually timed repetitions.
struct Timed {
    per_call_s: f64,
    /// Fastest and 90th-percentile repetition — the spread a committed
    /// ratio is read against.
    min_s: f64,
    p90_s: f64,
    reps: usize,
}

impl Timed {
    /// Summarize individually timed repetitions (at least one).
    fn of(mut samples: Vec<f64>) -> Timed {
        let reps = samples.len();
        let per_call_s = median(&mut samples); // sorts
        Timed {
            per_call_s,
            min_s: samples[0],
            p90_s: samples[(reps * 9).div_ceil(10) - 1],
            reps,
        }
    }
}

/// Median of individually timed samples (mean of the middle two for an
/// even count). Sorts `samples` in place.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample times"));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        0.5 * (samples[mid - 1] + samples[mid])
    }
}

/// Time `f` until at least `min_reps.max(MIN_REPS)` individually timed
/// repetitions have run *and* ~0.5 s (or 50 reps) have accumulated;
/// returns the **median** seconds per call plus the rep count. The
/// median — unlike the old elapsed/reps mean — is insensitive to a
/// single descheduling stall on a contended box, which is what made the
/// committed ratios flap.
fn time_median<T>(min_reps: usize, mut f: impl FnMut() -> T) -> Timed {
    let min_reps = min_reps.max(MIN_REPS);
    let start = Instant::now();
    let mut samples: Vec<f64> = Vec::new();
    loop {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_secs_f64());
        if samples.len() >= min_reps
            && (start.elapsed().as_secs_f64() >= 0.5 || samples.len() >= 50)
        {
            break;
        }
    }
    Timed::of(samples)
}

/// Record a measurement's rep count and unwrap its median.
fn note(rep_counts: &mut Vec<usize>, t: Timed) -> f64 {
    rep_counts.push(t.reps);
    t.per_call_s
}

fn assert_identical(fast: &PipelineOutput, slow: &PipelineOutput, n: usize) {
    assert_eq!(fast.combined, slow.combined, "combined diverges at n={n}");
    assert_eq!(
        fast.num_exact, slow.num_exact,
        "num_exact diverges at n={n}"
    );
    assert_eq!(
        fast.displayed, slow.displayed,
        "displayed diverges at n={n}"
    );
    assert_eq!(
        fast.order,
        slow.order[..fast.order.len()],
        "sorted order prefix diverges at n={n}"
    );
    assert!(
        fast.order.len() < n,
        "top-k selection must engage when the display count < n (n={n})"
    );
    for (f, s) in fast.windows.iter().zip(&slow.windows) {
        assert_eq!(f.norm_params, s.norm_params, "norm params diverge at n={n}");
        assert_eq!(
            f.zero_raw_count(),
            s.zero_raw_count(),
            "window exact counts diverge at n={n}"
        );
        assert!(same_distances(f, s), "window distances diverge at n={n}");
    }
}

/// Untimed: window 0 of a 3-window query slides once a drag has built the
/// column's sorted projection on its table, and the slid window is
/// re-derived from its predecessor and that projection — no range
/// compare-packed — bit-identical to the scalar reference; a slide whose
/// band is over the guard walks the column, identical too.
fn assert_slide_from_projection(db: &Arc<Database>, n: usize) {
    let policy = DisplayPolicy::Percentage(1.0);
    let ge = |at: f64| PredicateTarget::Compare {
        op: CompareOp::Ge,
        value: Value::Float(n as f64 * at),
    };
    let mut session = Session::new(Arc::clone(db), ConnectionRegistry::new());
    session.set_display_policy(policy.clone()).expect("policy");
    session.set_collect_trace(true);
    // a single-window drag builds the column's projection
    let single = QueryBuilder::from_tables(["T"]).cmp("x", CompareOp::Ge, n as f64 * 0.9);
    session.set_query(single.build()).expect("query");
    assert!(session.drag_slider(0, ge(0.91)).expect("drag").incremental);
    let three = QueryBuilder::from_tables(["T"])
        .cmp("x", CompareOp::Ge, n as f64 * 0.5)
        .cmp("x", CompareOp::Le, n as f64 * 0.95)
        .cmp("x", CompareOp::Ge, n as f64 * 0.9);
    session.set_query(three.build()).expect("query");
    session.result().expect("result");
    // a band of 0.1 n rows from the nearest predecessor (`x >= 0.5 n`),
    // then one of 0.55 n — past the n / 2 guard
    for (at, from_projection) in [(0.6, 1), (0.05, 0)] {
        session.set_predicate_target(0, ge(at)).expect("slide");
        let query = session.query().expect("query").clone();
        let table = db.table("T").expect("ramp table");
        let opts = PipelineOptions {
            mode: ExecMode::Scalar,
            ..Default::default()
        };
        let cond = query.condition.as_ref();
        let slow =
            run_pipeline(db, table, &DistanceResolver::new(), cond, &policy, opts).expect("scalar");
        let fast = &session.result().expect("result").pipeline;
        assert_identical(fast, &slow, n);
        assert!(
            fast.combined.bits_eq(&slow.combined),
            "slide to {at} n, n={n}"
        );
        let t = fast.trace.as_deref().expect("traced");
        let counts = (t.windows_evaluated, t.windows_from_projection);
        assert_eq!(counts, (1, from_projection), "slide to {at} n, n={n}");
        if from_projection == 1 {
            assert_eq!(t.chunks_compare_packed, 0, "slide to {at} n, n={n}");
        }
    }
}

/// Untimed: a 3-window cold query over NULL-free columns of `n` rows
/// (at least the parallel threshold, where the pipeline asks for a
/// column's byte sketch) has every compare-packed range served by the
/// sketch, and at least one; a query over a NULL-bearing column packs
/// from the column and reads no sketch; a sparse 2-window query, whose
/// `x ≥ t` window keeps fewer exact answers than its fit count, is
/// fitted from the sketch with no selection. All bit-identical to the
/// scalar reference. One worker walks the ranges in order, so the ranges
/// past the first are packed.
fn assert_sketch_packs(n: usize) {
    assert!(
        n >= chunk::PAR_MIN_ROWS,
        "n={n}: below the sketch threshold"
    );
    let mix = |i: usize, salt: u64| {
        let z = (i as u64 ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (z ^ (z >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 40
    };
    let names = ["a", "b", "c", "d"];
    let cols = names.map(|c| Column::new(c, DataType::Float)).to_vec();
    let mut t = TableBuilder::new("W", cols);
    for i in 0..n {
        let v = |salt| Value::Float((mix(i, salt) % 100_000) as f64 / 100.0);
        let d = if i % 53 == 0 { Value::Null } else { v(4) };
        t = t.row(vec![v(1), v(2), v(3), d]).expect("conforming row");
    }
    let mut db = Database::new("bench-sketch");
    db.add_table(t.build());
    let table = db.table("W").expect("sketch table");
    let policy = DisplayPolicy::Percentage(1.0);
    let run = |query: Query, mode: ExecMode| {
        let opts = PipelineOptions {
            mode,
            trace: true,
            ..Default::default()
        };
        let cond = query.condition.as_ref();
        Runtime::new(1)
            .install(|| run_pipeline(&db, table, &DistanceResolver::new(), cond, &policy, opts))
            .expect("sketch query")
    };
    let three = || {
        QueryBuilder::from_tables(["W"])
            .cmp("a", CompareOp::Ge, 400.0)
            .cmp("b", CompareOp::Le, 700.0)
            .cmp("c", CompareOp::Gt, 250.5)
            .build()
    };
    let nulls = || {
        QueryBuilder::from_tables(["W"])
            .cmp("d", CompareOp::Ge, 500.0)
            .build()
    };
    // `a >= 999` keeps 0.1 % of the rows against a 1 % fit count: its fit
    // comes from the sketch, no frame and no selection
    let sparse = || {
        QueryBuilder::from_tables(["W"])
            .cmp("a", CompareOp::Ge, 999.0)
            .cmp("b", CompareOp::Le, 700.0)
            .build()
    };
    for (what, query, sketched, fitted) in [
        ("3 windows", three(), true, 0),
        ("NULLs", nulls(), false, 0),
        ("sparse 2 windows", sparse(), true, 1),
    ] {
        let fast = run(query.clone(), ExecMode::Vectorized);
        let slow = run(query, ExecMode::Scalar);
        assert_identical(&fast, &slow, n);
        assert!(fast.combined.bits_eq(&slow.combined), "{what}, n={n}");
        let t = fast.trace.as_deref().expect("traced");
        assert!(t.chunks_compare_packed > 0, "{what}, n={n}");
        let expect = if sketched { t.chunks_compare_packed } else { 0 };
        assert_eq!(t.chunks_sketch_packed, expect, "{what}, n={n}");
        let fits = (t.windows_sketch_fitted, t.fits_selected);
        assert_eq!(fits, (fitted, 0), "{what}, n={n}");
    }
}

/// Compare-and-pack of a whole `n`-row Weather `Humidity` column against
/// its byte sketch, chunk by chunk on one thread (every chunk's stats
/// and bits asserted equal first), and the sketch's build: what a cold
/// window's distance walk reads with and without it.
fn bench_sketch_pack(n: usize, min_reps: usize) -> (Timed, Timed, Timed) {
    use visdb_data::environmental::{generate_environmental, EnvConfig};
    use visdb_storage::sketch::{ColumnSketch, CHUNK_ROWS};
    let env = generate_environmental(&EnvConfig {
        hours: n,
        stations: 1,
        ..EnvConfig::default()
    });
    let weather = env.db.table("Weather").expect("the Weather table");
    let col = weather.column_by_name("Humidity").expect("Humidity");
    let Some((visdb_storage::NumericSlice::F64(xs), None)) = col.numeric_slice() else {
        panic!("Humidity is a NULL-free float column");
    };
    let sketch = ColumnSketch::build(col).expect("a sketchable column");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kernel = NumericKernel::Compare(CompareKernel::Less, Some(sorted[n / 2]));
    let by_column = || {
        (xs.chunks(CHUNK_ROWS))
            .map(|x| batch::compare_pack(x, None, kernel))
            .collect::<Vec<_>>()
    };
    let by_sketch = || {
        (xs.chunks(CHUNK_ROWS).zip(sketch.codes().chunks(CHUNK_ROWS)))
            .zip(sketch.zones())
            .map(|((x, codes), &zone)| batch::sketch_pack(x, codes, sketch.bounds(), zone, kernel))
            .collect::<Vec<_>>()
    };
    assert!(by_column() == by_sketch(), "sketch_pack diverges at n={n}");
    let compare = time_median(min_reps, by_column);
    let sketched = time_median(min_reps, by_sketch);
    let build = time_median(min_reps, || ColumnSketch::build(col));
    (compare, sketched, build)
}

/// Two windows hold the same distances: the same raw frames when both
/// keep one, the same exact bits (folded from a frame where one keeps
/// it) otherwise, and the same stats.
fn same_distances(a: &PredicateWindow, b: &PredicateWindow) -> bool {
    let rows = match (a.raw_frame(), b.raw_frame()) {
        (Some(x), Some(y)) => x.bits_eq(y),
        _ => a.exact_bits() == b.exact_bits(),
    };
    rows && a.stats() == b.stats()
}

/// Deterministic pseudo-random combined-distance vector for the sort
/// micro-benchmark (xorshift; no `rand` in the timed path).
fn synthetic_combined(n: usize, seed: u64) -> DistanceFrame {
    let mut state = seed.max(1);
    let options: Vec<Option<f64>> = (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Some((state >> 11) as f64 / (1u64 << 53) as f64 * 255.0)
        })
        .collect();
    DistanceFrame::from_options(&options)
}

/// A single `Str`-column table for the string-predicate series: ~100
/// distinct city names cycling through `n` rows (dictionary-friendly,
/// like ordinal/category attributes), with every 97th row NULL.
fn string_db(n: usize) -> Database {
    let mut t = TableBuilder::new("S", vec![Column::new("name", DataType::Str)]);
    for i in 0..n {
        let v = if i % 97 == 0 {
            Value::Null
        } else {
            Value::Str(format!("city-{:03}", i % 100))
        };
        t = t.row(vec![v]).expect("conforming row");
    }
    let mut db = Database::new("bench-str");
    db.add_table(t.build());
    db
}

fn bench_size(n: usize) -> SizeResult {
    // the acceptance workload: one numeric predicate over a float ramp,
    // displaying 1% (so top-k selection replaces the full sort)
    let db: Arc<Database> = Arc::new(ramp_db(n));
    let table = db.table("T").expect("ramp table");
    let resolver = DistanceResolver::new();
    let q = QueryBuilder::from_tables(["T"])
        .cmp("x", CompareOp::Ge, n as f64 * 0.9)
        .build();
    let cond = q.condition.as_ref();
    let policy = DisplayPolicy::Percentage(1.0);

    let run_vectorized =
        |cond: Option<&visdb_query::ast::Weighted>, trace: bool| -> PipelineOutput {
            run_pipeline(
                &db,
                table,
                &resolver,
                cond,
                &policy,
                PipelineOptions {
                    trace,
                    ..Default::default()
                },
            )
            .expect("vectorized")
        };
    let run_scalar = |db: &Database, table, cond| {
        let opts = PipelineOptions {
            mode: ExecMode::Scalar,
            ..Default::default()
        };
        run_pipeline(db, table, &resolver, cond, &policy, opts).expect("scalar")
    };
    let slow = run_scalar(&db, table, cond);
    assert_identical(&run_vectorized(cond, false), &slow, n);

    let min_reps = MIN_REPS;
    let mut rep_counts: Vec<usize> = Vec::new();
    let scalar_s = note(
        &mut rep_counts,
        time_median(min_reps, || run_scalar(&db, table, cond)),
    );
    let vector_s = note(
        &mut rep_counts,
        time_median(min_reps, || run_vectorized(cond, false)),
    );

    // ---- string-predicate A/B: the dictionary-gather path (distance
    // once per distinct value, gathered per row) vs the per-row
    // Value-cloning scalar reference, on an equality predicate over a
    // ~100-distinct-value Str column with NULLs ----------------------
    let sdb = string_db(n);
    let stable = sdb.table("S").expect("string table");
    let sq = QueryBuilder::from_tables(["S"])
        .cmp("name", CompareOp::Eq, "city-042")
        .build();
    let scond = sq.condition.as_ref();
    let s_fast = || {
        let opts = PipelineOptions::default();
        run_pipeline(&sdb, stable, &resolver, scond, &policy, opts).expect("string vectorized")
    };
    assert_identical(&s_fast(), &run_scalar(&sdb, stable, scond), n);
    let string_scalar_s = note(
        &mut rep_counts,
        time_median(min_reps, || run_scalar(&sdb, stable, scond)),
    );
    let string_vector_s = note(&mut rep_counts, time_median(min_reps, s_fast));

    // top-k vs full sort on the same synthetic ranking problem
    let combined = synthetic_combined(n, 0x5eed ^ n as u64);
    let k = (n / 100).max(1);
    // the scalar reference's rank (sort every defined row) vs the
    // pipeline's own bound-pruned selection kernel
    let full_sort_s = note(
        &mut rep_counts,
        time_median(min_reps, || {
            let vals = combined.values();
            let mut idx: Vec<u32> = (0..n as u32).collect();
            idx.sort_by(|&a, &b| rank_order(&(vals[a as usize], a), &(vals[b as usize], b)));
            idx
        }),
    );
    let ranges = chunk::ranges(n);
    let topk_s = note(
        &mut rep_counts,
        time_median(min_reps, || {
            k_smallest_sorted(&combined, &ranges, n >= chunk::PAR_MIN_ROWS, k)
        }),
    );

    // per-phase breakdown of the vectorized run: per-phase medians over
    // MIN_REPS traced runs, read off the first-class `PipelineTrace`
    let [p_d, p_f, p_nc, p_r] = phase_medians_ms(|| run_vectorized(cond, true));
    rep_counts.push(MIN_REPS);

    // ---- the exact-light arm: the side of `zeros >= k` the workload
    // above is not on ---------------------------------------------------
    let q_light = QueryBuilder::from_tables(["T"])
        .cmp("x", CompareOp::Ge, n as f64 * 0.999)
        .build();
    let cond_light = q_light.condition.as_ref();
    let slow_light = run_scalar(&db, table, cond_light);
    let (heavy, light) = (run_vectorized(cond, true), run_vectorized(cond_light, true));
    assert_identical(&light, &slow_light, n);
    // from the parallel threshold up the ramp has a byte sketch, which
    // answers the exact-light arm's fit with no frame
    let sketched = n >= chunk::PAR_MIN_ROWS;
    let answered = |out: &PipelineOutput| {
        let t = out.trace.as_deref().expect("traced");
        (
            [t.fits_from_counts, t.ranks_from_counts],
            [t.fits_selected + t.windows_sketch_fitted, t.ranks_selected],
        )
    };
    assert_eq!(answered(&heavy), ([1, 1], [0, 0]), "exact-heavy arm, n={n}");
    assert_eq!(answered(&light), ([0, 0], [1, 1]), "exact-light arm, n={n}");
    let fitted = light
        .trace
        .as_deref()
        .expect("traced")
        .windows_sketch_fitted;
    assert_eq!(fitted, usize::from(sketched), "exact-light arm, n={n}");
    // the exact-heavy arm's window is its bits alone, the exact-light
    // arm's its raw frame (and the bits its walk folded on the way) or,
    // sketch-fitted, its bits and the rows below its plateau
    let bits_only = |out: &PipelineOutput| {
        let t = out.trace.as_deref().expect("traced");
        (out.windows[0].raw_frame().is_none(), t.windows_bits_only)
    };
    assert_eq!(bits_only(&heavy), (true, 1), "exact-heavy arm, n={n}");
    assert_eq!(bits_only(&light), (sketched, 0), "exact-light arm, n={n}");
    // the compare-and-pack route: the exact-light arm's count never
    // reaches its fit count, so none of its ranges is packed — unless
    // the sketch packs them all to fit it; one worker walking
    // `x >= 0.5 n` packs exactly the ranges that start once the exact
    // answers before them cover it — at every size here longer than one
    // range, at least the last one (smoke's 40 k rows are three ranges,
    // and the exact half starts inside the second)
    let packed = |out: &PipelineOutput| out.trace.as_deref().expect("traced").chunks_compare_packed;
    let light_packed = if sketched { chunk::ranges(n).len() } else { 0 };
    assert_eq!(packed(&light), light_packed, "exact-light arm, n={n}");
    let q_half = QueryBuilder::from_tables(["T"])
        .cmp("x", CompareOp::Ge, n as f64 * 0.5)
        .build();
    let serial = |cond| {
        let opts = PipelineOptions {
            trace: true,
            ..Default::default()
        };
        Runtime::new(1)
            .install(|| run_pipeline(&db, table, &resolver, cond, &policy, opts))
            .expect("serial")
    };
    let k = fit_k(n, 1.0, policy.budget(n)).expect("a fit count below n");
    let exact_rows = |(offset, len): (usize, usize)| {
        (offset..offset + len)
            .filter(|&i| i as f64 >= n as f64 * 0.5)
            .count()
    };
    let mut exact = 0;
    let expect = (chunk::ranges(n).into_iter())
        .filter(|&range| {
            let packs = exact >= k;
            exact += exact_rows(range);
            packs
        })
        .count();
    assert!(
        expect > 0 || n <= chunk::CHUNK_ROWS,
        "n={n}: no range starts past the fit count"
    );
    let half = serial(q_half.condition.as_ref());
    assert_identical(&half, &run_scalar(&db, table, q_half.condition.as_ref()), n);
    assert_eq!(packed(&half), expect, "x >= 0.5 n, n={n}");
    assert_eq!(
        packed(&serial(cond_light)),
        light_packed,
        "exact-light arm, n={n}"
    );
    assert_slide_from_projection(&db, n);
    if n >= chunk::PAR_MIN_ROWS {
        assert_sketch_packs(n);
    }
    let (compare_pack, sketch_pack, sketch_build) = bench_sketch_pack(n, min_reps);
    rep_counts.extend([compare_pack.reps, sketch_pack.reps, sketch_build.reps]);
    let bytes_per_row = |out: &PipelineOutput| out.windows[0].heap_bytes() as f64 / n as f64;
    let window_bytes_per_row = bytes_per_row(&heavy);
    let window_bytes_per_row_raw = bytes_per_row(&light);
    let exact_light = time_median(min_reps, || run_vectorized(cond_light, false));
    rep_counts.push(exact_light.reps);
    let exact_light_phase_ms = phase_medians_ms(|| run_vectorized(cond_light, true));

    // representation A/B: identical single-threaded workload, only the
    // intermediate representation differs
    let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let t = n as f64 * 0.9;
    let budget = (n / 100).max(1);
    assert_eq!(
        option_repr_pipeline(&xs, t, budget),
        packed_repr_pipeline(&xs, t, budget),
        "representation A/B must agree at n={n}"
    );
    let option_s = note(
        &mut rep_counts,
        time_median(min_reps, || option_repr_pipeline(&xs, t, budget)),
    );
    let packed_s = note(
        &mut rep_counts,
        time_median(min_reps, || packed_repr_pipeline(&xs, t, budget)),
    );

    // ---- branchless vs branchy: the fused normalize+combine phase in
    // isolation, on a 4-predicate packed workload (the paper's example
    // queries combine several selection predicates) over NULL-bearing
    // columns: each child gets ~12.5% pseudo-random undefined rows, the
    // §3.2 missing-data case. The random placement is the point — a
    // per-row `if defined` branch is data-dependent there and
    // mispredicts, while the kernel path classifies whole validity
    // words and runs per-lane selects, so its cost does not depend on
    // the mask pattern at all. Arm A is the phase exactly as the
    // materialized pipeline ran it before the lane kernels (full-size
    // branchy normalize frames, per-row combine, Option re-fit +
    // re-apply); arm B is the chunked kernel path the pipeline runs
    // now. Outputs are asserted bit-identical (checksums and per-row
    // bits) before the timed loops; both arms are sequential, so the
    // ratio isolates branch elimination + chunk fusion, not
    // scheduling.
    let nc_frames: Vec<DistanceFrame> = [
        NumericKernel::Compare(CompareKernel::Greater, Some(n as f64 * 0.9)),
        NumericKernel::Compare(CompareKernel::Less, Some(n as f64 * 0.95)),
        NumericKernel::Compare(CompareKernel::Greater, Some(n as f64 * 0.5)),
        NumericKernel::Compare(CompareKernel::Less, Some(n as f64 * 0.99)),
    ]
    .into_iter()
    .enumerate()
    .map(|(child, kernel)| {
        let mut frame = DistanceFrame::undefined(n);
        {
            let (vals, mask) = frame.parts_mut();
            batch::run_frame(&xs, None, kernel, vals, mask);
            // deterministic xorshift NULL holes (canonical 0.0 payload)
            let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (child as u64 + 1).wrapping_mul(0x5eed);
            for (v, m) in vals.iter_mut().zip(mask.iter_mut()) {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(8) {
                    *v = 0.0;
                    *m = false;
                }
            }
        }
        frame
    })
    .collect();
    let nc_children: Vec<(&[f64], &[bool])> = nc_frames
        .iter()
        .map(|f| (f.values(), f.validity().as_slice()))
        .collect();
    let nc_params: Vec<NormParams> = nc_frames
        .iter()
        .map(|f| {
            let stats = FrameStats::of_slice(f.values(), f.validity().as_slice());
            fit_frame(f, &stats, 1.0, budget)
        })
        .collect();
    let nc_weights = [0.4, 0.3, 0.2, 0.1];
    let mut nc_out_a: Vec<Option<f64>> = vec![None; n];
    let mut nc_out_b: Vec<Option<f64>> = vec![None; n];
    // arm A's full-size per-child normalized frames (what the old phase
    // materialized), preallocated so the timed loop measures its walks,
    // not allocator traffic — being generous to the baseline
    let mut nc_normed_full: Vec<(Vec<f64>, Vec<bool>)> = nc_children
        .iter()
        .map(|_| (vec![0.0; n], vec![false; n]))
        .collect();
    // L2-resident block size for the kernel arm: 4 children x 4096 rows
    // of packed (value, mask) scratch is ~150 KB, so the apply ->
    // combine -> fold chain re-reads scratch from cache instead of
    // round-tripping memory (the arena-backed pipeline walk gets the
    // same locality from its per-range scratch reuse)
    let nc_chunk = 4096.min(n);
    let mut nc_norm: Vec<(Vec<f64>, Vec<bool>)> = nc_children
        .iter()
        .map(|_| (vec![0.0; nc_chunk], vec![false; nc_chunk]))
        .collect();
    let mut nc_cv = vec![0.0f64; nc_chunk];
    let mut nc_cm = vec![false; nc_chunk];
    let acc_a = branchy_normalize_combine(
        &nc_children,
        &nc_params,
        &nc_weights,
        &mut nc_normed_full,
        &mut nc_out_a,
    );
    let acc_b = branchless_normalize_combine(
        &nc_children,
        &nc_params,
        &nc_weights,
        &mut nc_norm,
        &mut nc_cv,
        &mut nc_cm,
        &mut nc_out_b,
    );
    assert_eq!(acc_a, acc_b, "A/B accumulators must agree at n={n}");
    for (i, (a, b)) in nc_out_a.iter().zip(&nc_out_b).enumerate() {
        assert_eq!(
            a.map(f64::to_bits),
            b.map(f64::to_bits),
            "branchless A/B row {i} diverges at n={n}"
        );
    }
    let branchy_s = note(
        &mut rep_counts,
        time_median(min_reps, || {
            branchy_normalize_combine(
                &nc_children,
                &nc_params,
                &nc_weights,
                &mut nc_normed_full,
                &mut nc_out_a,
            )
        }),
    );
    let branchless_s = note(
        &mut rep_counts,
        time_median(min_reps, || {
            branchless_normalize_combine(
                &nc_children,
                &nc_params,
                &nc_weights,
                &mut nc_norm,
                &mut nc_cv,
                &mut nc_cm,
                &mut nc_out_b,
            )
        }),
    );

    // slider drag: incremental sorted-projection path vs full recompute.
    // Dense: tightenings within the exact region (3 % / 2.5 % of the
    // rows exact for 1 % displayed) — the display is the exact band's
    // smallest row ids. Sparse: 0.5 % / 0.25 % exact, the rest of the
    // display comes from the nearest misses and the clamp plateau.
    let (drag_inc_t, drag_full_t) = bench_slider(&db, n, min_reps, [0.97, 0.975]);
    let drag_inc_s = note(&mut rep_counts, drag_inc_t);
    let drag_full_s = note(&mut rep_counts, drag_full_t);
    let (drag_sparse, drag_sparse_full) = bench_slider(&db, n, min_reps, [0.995, 0.9975]);
    rep_counts.extend([drag_sparse.reps, drag_sparse_full.reps]);

    // delta-generation append vs reload + projection merge vs rebuild
    let (append_t, reload_t) = bench_append(&db, n, min_reps);
    let append_s = note(&mut rep_counts, append_t);
    let reload_s = note(&mut rep_counts, reload_t);
    let (merge_t, build_t) = bench_projection_merge(n, min_reps);
    let merge_s = note(&mut rep_counts, merge_t);
    let build_s = note(&mut rep_counts, build_t);

    // ---- observability overhead A/B: arm A is the plain trace-off run
    // (what a non-traced session executes); arm B runs the identical
    // pipeline with tracing on and replays the registry recording the
    // service layer performs per fresh query — four per-phase histogram
    // records, the op counter, and the op-latency histogram. The ratio
    // gates the "telemetry is near-free" claim end to end.
    let obs_baseline_s = note(
        &mut rep_counts,
        time_median(min_reps, || run_vectorized(cond, false)),
    );
    let registry = Registry::new();
    let obs_requests = registry.counter("service.requests.summary");
    let obs_latency = registry.histogram("service.latency_ns.summary");
    let obs_phase: Vec<Arc<Histogram>> = ["distance", "fit", "normalize_combine", "rank"]
        .iter()
        .map(|p| registry.histogram(&format!("pipeline.phase.{p}")))
        .collect();
    let obs_instrumented_s = note(
        &mut rep_counts,
        time_median(min_reps, || {
            let started = Instant::now();
            let out = run_vectorized(cond, true);
            let t = out.trace.as_deref().expect("instrumented arm traces");
            obs_phase[0].record_duration(t.distance);
            obs_phase[1].record_duration(t.fit);
            obs_phase[2].record_duration(t.normalize_combine);
            obs_phase[3].record_duration(t.rank);
            obs_requests.inc();
            obs_latency.record_duration(started.elapsed());
            out
        }),
    );

    // ---- cancellation-poll overhead A/B: arm A is the tokenless run
    // (what a plain `submit` with no deadline executes — the chunk
    // checkpoints reduce to one armed-fault load and a `None` branch);
    // arm B hands the pipeline a live token whose deadline never
    // arrives, so every 16k-row chunk checkpoint performs the real
    // poll — atomic state load + `Instant::now()` deadline comparison
    // — and still completes. The ratio gates the "cancellation costs
    // nothing until it fires" claim at the tightest granularity the
    // walks poll at.
    let cancel_baseline_s = note(
        &mut rep_counts,
        time_median(min_reps, || run_vectorized(cond, false)),
    );
    let far_token = CancelToken::with_deadline(Duration::from_secs(3600));
    let run_polling = || -> PipelineOutput {
        run_pipeline(
            &db,
            table,
            &resolver,
            cond,
            &policy,
            PipelineOptions {
                cancel: Some(&far_token),
                ..Default::default()
            },
        )
        .expect("token-polling vectorized")
    };
    assert_identical(&run_polling(), &slow, n);
    let cancel_polling_s = note(&mut rep_counts, time_median(min_reps, &run_polling));

    // ---- re-weight A/B: the ramp beside an inner relation `I(y = 3i +
    // 0.25)` spanning the same range, so every outer row's nearest inner
    // key is 0.25, 0.75 or 1.25 away (no exact rows: the cold fit has to
    // select, and a third of the rows tie at its `dmax` = 0.25, so the
    // re-weight's fit count lands in that tie and keeps the fit) and its
    // band sweep ends after two candidates — the cheap end of a join:
    // what re-evaluating pays is the inner sort and one probe per row.
    // One session cache per arm, cloned per rep so every rep meets the
    // same state (the clone shares the frames).
    let mut pair = (*db).clone();
    let mut inner = TableBuilder::new("I", vec![Column::new("y", DataType::Float)]);
    for i in 0..n.div_ceil(3) {
        inner = inner
            .row(vec![Value::Float(i as f64 * 3.0 + 0.25)])
            .expect("conforming row");
    }
    pair.add_table(inner.build());
    let pair_table = pair.table("T").expect("ramp table");
    let joined = |weight: f64| {
        let mut q = QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, n as f64 * 0.9)
            .is_in("x", "y", QueryBuilder::from_tables(["I"]).build())
            .build();
        match &mut q.condition.as_mut().expect("two windows").node {
            ConditionNode::And(windows) => windows[1].weight = weight,
            other => panic!("the builder ANDs its windows, got {other:?}"),
        }
        q
    };
    let run_with = |q: &Query, cache: &mut PipelineCache| {
        run_pipeline(
            &pair,
            pair_table,
            &resolver,
            q.condition.as_ref(),
            &policy,
            PipelineOptions {
                cache: Some(cache),
                trace: true,
                ..Default::default()
            },
        )
        .expect("cached vectorized")
    };
    let run_cached = |q: &Query, cache: &PipelineCache| run_with(q, &mut cache.clone());
    let warm = |q: &Query| {
        let mut cache = PipelineCache::new();
        run_with(q, &mut cache);
        cache
    };
    let other_weight = warm(&joined(1.0));
    let first_window_only = warm(&q);
    let reweighted = joined(0.3);
    let refit = run_cached(&reweighted, &other_weight);
    let again = run_cached(&reweighted, &first_window_only);
    let evaluated = |out: &PipelineOutput| {
        let t = out.trace.as_deref().expect("traced");
        (t.windows_refit, t.windows_evaluated)
    };
    assert_eq!((evaluated(&refit), evaluated(&again)), ((1, 0), (0, 1)));
    let fits = |out: &PipelineOutput| {
        let t = out.trace.as_deref().expect("traced");
        (t.fits_from_plateau, t.fits_selected)
    };
    assert_eq!(
        fits(&refit),
        (1, 0),
        "the re-weight keeps the plateau's fit"
    );
    assert_identical(&refit, &again, n);
    for (a, b) in refit.windows.iter().zip(&again.windows) {
        assert!(same_distances(a, b) && a.norm_params == b.norm_params);
    }
    let reweight = time_median(min_reps, || run_cached(&reweighted, &other_weight));
    let recompute = time_median(min_reps, || run_cached(&reweighted, &first_window_only));
    rep_counts.extend([reweight.reps, recompute.reps]);

    // ---- 3-window all-degenerate re-weight: 10 %, 50 % and 80 % exact
    // answers against fits that ask for 1 % (3.3 % under weight 0.3)
    let three = |weight: f64| {
        let mut q = QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, n as f64 * 0.9)
            .cmp("x", CompareOp::Ge, n as f64 * 0.5)
            .between("x", n as f64 * 0.2, n as f64)
            .build();
        match &mut q.condition.as_mut().expect("three windows").node {
            ConditionNode::And(windows) => windows[1].weight = weight,
            other => panic!("the builder ANDs its windows, got {other:?}"),
        }
        q
    };
    let warm3 = warm(&three(1.0));
    let reweighted3 = three(0.3);
    let refit3 = run_cached(&reweighted3, &warm3);
    let t = refit3.trace.as_deref().expect("traced");
    assert_eq!((t.windows_refit, t.windows_evaluated), (1, 0));
    assert_eq!(
        (t.children_bits, t.children_raw, t.roots_from_table),
        (3, 0, 1)
    );
    let slow3 = run_scalar(&pair, pair_table, reweighted3.condition.as_ref());
    assert_identical(&refit3, &slow3, n);
    let result_bytes = refit3.combined.heap_bytes()
        + std::mem::size_of_val(refit3.order.as_slice())
        + std::mem::size_of_val(refit3.displayed.as_slice());
    let result_bytes_per_row = result_bytes as f64 / n as f64;
    let reweight_3w = time_median(min_reps, || run_cached(&reweighted3, &warm3));
    rep_counts.push(reweight_3w.reps);
    let (session_reweight_3w, session_repaint_3w) = bench_session_render(&db, min_reps, three(1.0));
    rep_counts.extend([session_reweight_3w.reps, session_repaint_3w.reps]);

    // ---- threads axis: the vectorized path re-timed under each
    // explicit worker budget, with identity vs the scalar reference
    // re-asserted per budget. On a single-core box the series documents
    // scheduling overhead staying flat; on a multi-core box it is the
    // scaling evidence for the chunked kernels.
    let thread_points: Vec<ThreadPoint> = THREAD_SERIES
        .iter()
        .map(|&workers| {
            Runtime::new(workers).install(|| {
                assert_identical(&run_vectorized(cond, false), &slow, n);
                let vector_s = note(
                    &mut rep_counts,
                    time_median(min_reps, || run_vectorized(cond, false)),
                );
                ThreadPoint {
                    threads: workers,
                    vectorized_rows_per_sec: n as f64 / vector_s,
                }
            })
        })
        .collect();

    let reps = rep_counts.iter().copied().min().expect("measurements ran");

    SizeResult {
        n,
        scalar_rows_per_sec: n as f64 / scalar_s,
        vectorized_rows_per_sec: n as f64 / vector_s,
        speedup: scalar_s / vector_s,
        full_sort_ms: full_sort_s * 1e3,
        topk_ms: topk_s * 1e3,
        topk_k: k,
        phase_distance_ms: p_d,
        phase_fit_ms: p_f,
        phase_normalize_combine_ms: p_nc,
        phase_rank_ms: p_r,
        exact_light,
        exact_light_phase_ms,
        option_repr_rows_per_sec: n as f64 / option_s,
        packed_repr_rows_per_sec: n as f64 / packed_s,
        packed_vs_option: option_s / packed_s,
        drag_incremental_us: drag_inc_s * 1e6,
        drag_full_us: drag_full_s * 1e6,
        drag_speedup: drag_full_s / drag_inc_s,
        drag_sparse,
        drag_sparse_full,
        append_ms: append_s * 1e3,
        reload_ms: reload_s * 1e3,
        append_vs_reload: reload_s / append_s,
        proj_merge_ms: merge_s * 1e3,
        proj_build_ms: build_s * 1e3,
        append_projection_merge: build_s / merge_s,
        string_scalar_rows_per_sec: n as f64 / string_scalar_s,
        string_vectorized_rows_per_sec: n as f64 / string_vector_s,
        string_gather_speedup: string_scalar_s / string_vector_s,
        obs_baseline_rows_per_sec: n as f64 / obs_baseline_s,
        obs_instrumented_rows_per_sec: n as f64 / obs_instrumented_s,
        obs_overhead: obs_baseline_s / obs_instrumented_s,
        cancel_baseline_rows_per_sec: n as f64 / cancel_baseline_s,
        cancel_polling_rows_per_sec: n as f64 / cancel_polling_s,
        cancel_overhead: cancel_baseline_s / cancel_polling_s,
        reweight,
        recompute,
        reweight_3w,
        compare_pack,
        sketch_pack,
        sketch_build,
        session_reweight_3w,
        session_repaint_3w,
        window_bytes_per_row,
        window_bytes_per_row_raw,
        result_bytes_per_row,
        branchy_nc_rows_per_sec: n as f64 / branchy_s,
        branchless_nc_rows_per_sec: n as f64 / branchless_s,
        branchless_vs_branchy: branchy_s / branchless_s,
        reps,
        threads: thread_points,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // `--threads N` pins the worker budget for the whole run (the CI
    // smoke matrix exercises 1 and 4); the threads axis still installs
    // its own nested budgets on top.
    let pinned_threads: Option<usize> = args.iter().position(|a| a == "--threads").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .filter(|&t| t >= 1)
            .expect("--threads needs a positive integer")
    });
    match pinned_threads {
        Some(t) => Runtime::new(t).install(|| run_bench(smoke, Some(t))),
        None => run_bench(smoke, None),
    }
}

fn run_bench(smoke: bool, pinned_threads: Option<usize>) {
    if let Some(t) = pinned_threads {
        println!("worker budget pinned to {t} thread(s)");
    }
    let sizes: &[usize] = if smoke {
        &[2_000, 40_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };

    let mut results = Vec::new();
    for &n in sizes {
        let r = bench_size(n);
        println!(
            "n={:>9}: scalar {:>12.0} rows/s | vectorized {:>12.0} rows/s | \
             speedup {:>5.2}x | sort {:>8.2} ms vs top-{} {:>7.3} ms",
            r.n,
            r.scalar_rows_per_sec,
            r.vectorized_rows_per_sec,
            r.speedup,
            r.full_sort_ms,
            r.topk_k,
            r.topk_ms,
        );
        println!(
            "            phases: distance {:.3} ms | fit {:.3} ms | norm+combine {:.3} ms | \
             rank {:.3} ms",
            r.phase_distance_ms, r.phase_fit_ms, r.phase_normalize_combine_ms, r.phase_rank_ms,
        );
        let [light_d, light_f, light_nc, light_r] = r.exact_light_phase_ms;
        println!(
            "            exact-light (x >= 0.999n): {:.3} ms (min {:.3}, p90 {:.3}) | \
             distance {light_d:.3} ms | fit {light_f:.3} ms | norm+combine {light_nc:.3} ms | \
             rank {light_r:.3} ms",
            r.exact_light.per_call_s * 1e3,
            r.exact_light.min_s * 1e3,
            r.exact_light.p90_s * 1e3,
        );
        println!(
            "            packed-vs-Option: {:>12.0} vs {:>12.0} rows/s ({:.2}x) | \
             slider drag: {:>9.1} us incremental vs {:>9.1} us full ({:.1}x)",
            r.packed_repr_rows_per_sec,
            r.option_repr_rows_per_sec,
            r.packed_vs_option,
            r.drag_incremental_us,
            r.drag_full_us,
            r.drag_speedup,
        );
        println!(
            "            sparse slider drag: {:.1} us incremental (min {:.1}, p90 {:.1}) vs \
             {:.1} us full (min {:.1}, p90 {:.1}) ({:.1}x)",
            r.drag_sparse.per_call_s * 1e6,
            r.drag_sparse.min_s * 1e6,
            r.drag_sparse.p90_s * 1e6,
            r.drag_sparse_full.per_call_s * 1e6,
            r.drag_sparse_full.min_s * 1e6,
            r.drag_sparse_full.p90_s * 1e6,
            r.drag_sparse_full.per_call_s / r.drag_sparse.per_call_s,
        );
        println!(
            "            append-vs-reload (1% delta): {:>9.2} ms append vs {:>9.2} ms reload \
             ({:.1}x) | projection merge-vs-rebuild: {:>8.3} ms vs {:>8.3} ms ({:.2}x)",
            r.append_ms,
            r.reload_ms,
            r.append_vs_reload,
            r.proj_merge_ms,
            r.proj_build_ms,
            r.append_projection_merge,
        );
        println!(
            "            string gather-vs-scalar: {:>12.0} vs {:>12.0} rows/s ({:.2}x)",
            r.string_vectorized_rows_per_sec, r.string_scalar_rows_per_sec, r.string_gather_speedup,
        );
        println!(
            "            obs overhead: {:>12.0} rows/s baseline vs {:>12.0} rows/s \
             traced+recorded ({:.3}x)",
            r.obs_baseline_rows_per_sec, r.obs_instrumented_rows_per_sec, r.obs_overhead,
        );
        println!(
            "            cancel overhead: {:>12.0} rows/s tokenless vs {:>12.0} rows/s \
             token-polling ({:.3}x)",
            r.cancel_baseline_rows_per_sec, r.cancel_polling_rows_per_sec, r.cancel_overhead,
        );
        println!(
            "            reweight-vs-recompute: refit {:.3} ms (min {:.3}, p90 {:.3}) vs \
             re-evaluated {:.3} ms (min {:.3}, p90 {:.3}) ({:.2}x)",
            r.reweight.per_call_s * 1e3,
            r.reweight.min_s * 1e3,
            r.reweight.p90_s * 1e3,
            r.recompute.per_call_s * 1e3,
            r.recompute.min_s * 1e3,
            r.recompute.p90_s * 1e3,
            r.recompute.per_call_s / r.reweight.per_call_s,
        );
        println!(
            "            3-window all-degenerate re-weight: {:.3} ms (min {:.3}, p90 {:.3}) | \
             {:.3} B/row of result | window {:.3} B/row exact-heavy, {:.3} exact-light",
            r.reweight_3w.per_call_s * 1e3,
            r.reweight_3w.min_s * 1e3,
            r.reweight_3w.p90_s * 1e3,
            r.result_bytes_per_row,
            r.window_bytes_per_row,
            r.window_bytes_per_row_raw,
        );
        println!(
            "            cold window over Humidity: sketch_pack {:.3} ms (min {:.3}, p90 {:.3}) vs \
             compare_pack {:.3} ms (min {:.3}, p90 {:.3}) | sketch build {:.3} ms (min {:.3}, \
             p90 {:.3})",
            r.sketch_pack.per_call_s * 1e3,
            r.sketch_pack.min_s * 1e3,
            r.sketch_pack.p90_s * 1e3,
            r.compare_pack.per_call_s * 1e3,
            r.compare_pack.min_s * 1e3,
            r.compare_pack.p90_s * 1e3,
            r.sketch_build.per_call_s * 1e3,
            r.sketch_build.min_s * 1e3,
            r.sketch_build.p90_s * 1e3,
        );
        println!(
            "            session re-weight + render (held panel): {:.3} ms (min {:.3}, p90 {:.3}) \
             | selection + render (painted by pattern): {:.3} ms (min {:.3}, p90 {:.3})",
            r.session_reweight_3w.per_call_s * 1e3,
            r.session_reweight_3w.min_s * 1e3,
            r.session_reweight_3w.p90_s * 1e3,
            r.session_repaint_3w.per_call_s * 1e3,
            r.session_repaint_3w.min_s * 1e3,
            r.session_repaint_3w.p90_s * 1e3,
        );
        println!(
            "            branchless-vs-branchy norm+combine: {:>12.0} vs {:>12.0} rows/s \
             ({:.2}x) | median of >= {} reps",
            r.branchless_nc_rows_per_sec,
            r.branchy_nc_rows_per_sec,
            r.branchless_vs_branchy,
            r.reps,
        );
        for p in &r.threads {
            println!(
                "            threads={}: vectorized {:>12.0} rows/s",
                p.threads, p.vectorized_rows_per_sec,
            );
        }
        results.push(r);
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"pipeline\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    // the box: every ratio below depends on how many cores ran it
    let _ = writeln!(
        json,
        "  \"box\": {{\"nproc\": {}, \"os\": \"{}\", \"arch\": \"{}\"}},",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        std::env::consts::OS,
        std::env::consts::ARCH
    );
    let _ = writeln!(
        json,
        "  \"workload\": \"x >= 0.9n numeric predicate over a float ramp, Percentage(1) display\","
    );
    let _ = writeln!(
        json,
        "  \"exact_light_workload\": \"x >= 0.999n over the same ramp and display: 0.1 % exact \
         answers against k = 1 %, so the fit and the ranking select\","
    );
    let _ = writeln!(json, "  \"min_reps\": {MIN_REPS},");
    let _ = writeln!(
        json,
        "  \"thread_series\": [{}],",
        THREAD_SERIES.map(|t| t.to_string()).join(", ")
    );
    let _ = writeln!(
        json,
        "  \"pinned_threads\": {},",
        pinned_threads.map_or("null".to_string(), |t| t.to_string())
    );
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"n\": {}, \"scalar_rows_per_sec\": {:.0}, \"vectorized_rows_per_sec\": {:.0}, \
             \"speedup\": {:.3}, \
             \"full_sort_ms\": {:.3}, \"topk_ms\": {:.3}, \"topk_k\": {},",
            r.n,
            r.scalar_rows_per_sec,
            r.vectorized_rows_per_sec,
            r.speedup,
            r.full_sort_ms,
            r.topk_ms,
            r.topk_k,
        );
        let _ = writeln!(
            json,
            "     \"phase_ms\": {{\"distance\": {:.3}, \"fit\": {:.3}, \
             \"normalize_combine\": {:.3}, \"rank\": {:.3}}},",
            r.phase_distance_ms, r.phase_fit_ms, r.phase_normalize_combine_ms, r.phase_rank_ms,
        );
        let _ = writeln!(
            json,
            "     \"option_repr_rows_per_sec\": {:.0}, \"packed_repr_rows_per_sec\": {:.0}, \
             \"packed_vs_option\": {:.3},",
            r.option_repr_rows_per_sec, r.packed_repr_rows_per_sec, r.packed_vs_option,
        );
        let spread = |t: &Timed, per_s: f64| {
            format!(
                "{{\"median\": {:.3}, \"min\": {:.3}, \"p90\": {:.3}, \"reps\": {}}}",
                t.per_call_s * per_s,
                t.min_s * per_s,
                t.p90_s * per_s,
                t.reps
            )
        };
        let [light_d, light_f, light_nc, light_r] = r.exact_light_phase_ms;
        let _ = writeln!(
            json,
            "     \"exact_light_ms\": {}, \"exact_light_phase_ms\": {{\"distance\": {light_d:.3}, \
             \"fit\": {light_f:.3}, \"normalize_combine\": {light_nc:.3}, \"rank\": {light_r:.3}}},",
            spread(&r.exact_light, 1e3),
        );
        let _ = writeln!(
            json,
            "     \"drag_incremental_us\": {:.1}, \"drag_full_us\": {:.1}, \
             \"drag_speedup\": {:.2},",
            r.drag_incremental_us, r.drag_full_us, r.drag_speedup,
        );
        let _ = writeln!(
            json,
            "     \"drag_sparse_incremental_us\": {}, \"drag_sparse_full_us\": {}, \
             \"drag_sparse_speedup\": {:.2},",
            spread(&r.drag_sparse, 1e6),
            spread(&r.drag_sparse_full, 1e6),
            r.drag_sparse_full.per_call_s / r.drag_sparse.per_call_s,
        );
        let _ = writeln!(
            json,
            "     \"append_ms\": {:.3}, \"reload_ms\": {:.3}, \"append_vs_reload\": {:.2}, \
             \"proj_merge_ms\": {:.3}, \"proj_build_ms\": {:.3}, \
             \"append_projection_merge\": {:.2},",
            r.append_ms,
            r.reload_ms,
            r.append_vs_reload,
            r.proj_merge_ms,
            r.proj_build_ms,
            r.append_projection_merge,
        );
        let _ = writeln!(
            json,
            "     \"string_scalar_rows_per_sec\": {:.0}, \
             \"string_vectorized_rows_per_sec\": {:.0}, \"string_gather_speedup\": {:.3},",
            r.string_scalar_rows_per_sec, r.string_vectorized_rows_per_sec, r.string_gather_speedup,
        );
        let _ = writeln!(
            json,
            "     \"obs_baseline_rows_per_sec\": {:.0}, \
             \"obs_instrumented_rows_per_sec\": {:.0}, \"obs_overhead\": {:.3},",
            r.obs_baseline_rows_per_sec, r.obs_instrumented_rows_per_sec, r.obs_overhead,
        );
        let _ = writeln!(
            json,
            "     \"cancel_baseline_rows_per_sec\": {:.0}, \
             \"cancel_polling_rows_per_sec\": {:.0}, \"cancel_overhead\": {:.3},",
            r.cancel_baseline_rows_per_sec, r.cancel_polling_rows_per_sec, r.cancel_overhead,
        );
        let ms = |t: &Timed| spread(t, 1e3);
        let _ = writeln!(
            json,
            "     \"reweight_ms\": {}, \"recompute_ms\": {}, \
             \"reweight_vs_recompute\": {:.3},",
            ms(&r.reweight),
            ms(&r.recompute),
            r.recompute.per_call_s / r.reweight.per_call_s,
        );
        let _ = writeln!(
            json,
            "     \"reweight_3w_ms\": {}, \"window_bytes_per_row\": {:.3}, \
             \"window_bytes_per_row_raw\": {:.3}, \"result_bytes_per_row\": {:.3},",
            ms(&r.reweight_3w),
            r.window_bytes_per_row,
            r.window_bytes_per_row_raw,
            r.result_bytes_per_row,
        );
        let _ = writeln!(
            json,
            "     \"compare_pack_ms\": {}, \"sketch_pack_ms\": {}, \"sketch_build_ms\": {},",
            ms(&r.compare_pack),
            ms(&r.sketch_pack),
            ms(&r.sketch_build),
        );
        let _ = writeln!(
            json,
            "     \"session_reweight_3w_ms\": {}, \"session_repaint_3w_ms\": {},",
            ms(&r.session_reweight_3w),
            ms(&r.session_repaint_3w),
        );
        let _ = writeln!(
            json,
            "     \"branchy_nc_rows_per_sec\": {:.0}, \"branchless_nc_rows_per_sec\": {:.0}, \
             \"branchless_vs_branchy\": {:.3}, \"reps\": {},",
            r.branchy_nc_rows_per_sec,
            r.branchless_nc_rows_per_sec,
            r.branchless_vs_branchy,
            r.reps,
        );
        let threads_json: Vec<String> = r
            .threads
            .iter()
            .map(|p| {
                format!(
                    "{{\"threads\": {}, \"vectorized_rows_per_sec\": {:.0}}}",
                    p.threads, p.vectorized_rows_per_sec,
                )
            })
            .collect();
        let _ = writeln!(
            json,
            "     \"threads\": [{}]}}{}",
            threads_json.join(", "),
            if i + 1 < results.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");

    write_results("BENCH_pipeline", smoke, &json);

    if !smoke {
        if let Some(big) = results.iter().max_by_key(|r| r.n) {
            // End-to-end scalar timing swings wildly on a contended
            // single-core box (committed history spans 2.1M..12.8M
            // scalar rows/s at n=1M with an unchanged binary), so the
            // acceptance gates are (a) the stable algorithmic win —
            // top-k selection beats the full sort — and (b) no
            // end-to-end regression beyond noise.
            assert!(
                big.full_sort_ms >= 2.0 * big.topk_ms,
                "acceptance: top-k selection must be >= 2x faster than the full sort \
                 at n={} (sort {:.2} ms vs top-k {:.2} ms)",
                big.n,
                big.full_sort_ms,
                big.topk_ms
            );
            assert!(
                big.speedup >= 0.8,
                "acceptance: vectorized must not regress vs scalar at n={} (got {:.2}x)",
                big.n,
                big.speedup
            );
            // The two stable representation gates: both compare the same
            // algorithm with only the data layout / access path changed,
            // so the ratios are far less noise-prone than end-to-end
            // wall clock on a contended box.
            assert!(
                big.packed_vs_option >= 1.3,
                "acceptance: packed frames must be >= 1.3x the Option \
                 representation at n={} (got {:.2}x)",
                big.n,
                big.packed_vs_option
            );
            // the two arms' spreads must not touch: the slowest tenth of
            // the fast-path sparse drags beats the fastest full recompute
            assert!(
                big.drag_sparse.p90_s < big.drag_sparse_full.min_s,
                "acceptance: a sparse slider drag on the sorted projection must beat a \
                 full recompute at n={} (incremental p90 {:.1} us vs full min {:.1} us)",
                big.n,
                big.drag_sparse.p90_s * 1e6,
                big.drag_sparse_full.min_s * 1e6
            );
            assert!(
                big.obs_overhead >= 0.95,
                "acceptance: tracing + registry recording must keep >= 95% of the \
                 untraced throughput at n={} (got {:.3}x: {:.0} vs {:.0} rows/s)",
                big.n,
                big.obs_overhead,
                big.obs_instrumented_rows_per_sec,
                big.obs_baseline_rows_per_sec
            );
            assert!(
                big.cancel_overhead >= 0.95,
                "acceptance: per-chunk cancel-token polling must keep >= 95% of the \
                 tokenless throughput at n={} (got {:.3}x: {:.0} vs {:.0} rows/s)",
                big.n,
                big.cancel_overhead,
                big.cancel_polling_rows_per_sec,
                big.cancel_baseline_rows_per_sec
            );
            // the two arms' spreads must not even touch: the slowest
            // tenth of the refits beats the fastest re-evaluation
            assert!(
                big.reweight.p90_s < big.recompute.min_s,
                "acceptance: refitting a re-weighted join window must beat re-evaluating \
                 it at n={} (refit p90 {:.3} ms vs re-evaluated min {:.3} ms)",
                big.n,
                big.reweight.p90_s * 1e3,
                big.recompute.min_s * 1e3
            );
            assert!(
                big.string_gather_speedup >= 2.0,
                "acceptance: the dictionary-gather string path must be >= 2x the \
                 per-row Value-cloning scalar reference at n={} (got {:.2}x: {:.0} \
                 vs {:.0} rows/s)",
                big.n,
                big.string_gather_speedup,
                big.string_vectorized_rows_per_sec,
                big.string_scalar_rows_per_sec
            );
            assert!(
                big.branchless_vs_branchy >= 1.2,
                "acceptance: the branchless normalize+combine kernels must be >= 1.2x \
                 the per-row branchy walk at n={} (got {:.2}x: {:.0} vs {:.0} rows/s)",
                big.n,
                big.branchless_vs_branchy,
                big.branchless_nc_rows_per_sec,
                big.branchy_nc_rows_per_sec
            );
            assert!(
                big.append_vs_reload >= 10.0,
                "acceptance: appending a 1% delta generation must be >= 10x faster \
                 than reloading from scratch at n={} (got {:.2}x: {:.2} ms vs {:.2} ms)",
                big.n,
                big.append_vs_reload,
                big.append_ms,
                big.reload_ms
            );
            assert!(
                big.append_projection_merge >= 3.0,
                "acceptance: merging the sorted delta permutation must be >= 3x \
                 faster than rebuilding the projection at n={} (got {:.2}x: {:.3} ms \
                 vs {:.3} ms)",
                big.n,
                big.append_projection_merge,
                big.proj_merge_ms,
                big.proj_build_ms
            );
            assert!(
                big.drag_speedup >= 5.0,
                "acceptance: the incremental sorted-projection slider drag must be \
                 >= 5x a full recompute at n={} (got {:.2}x: {:.1} us vs {:.1} us)",
                big.n,
                big.drag_speedup,
                big.drag_incremental_us,
                big.drag_full_us
            );
        }
    }
}
