//! The per-layer numbers of a traced run: bare probes of public
//! functions on the workload's own data, and the arithmetic that turns
//! spans, registry deltas and sampled pipeline traces into one value per
//! per-layer metric.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use visdb_arrange::arrange_overall;
use visdb_core::{materialize_base, render_session, JoinOptions, RenderOptions, Session};
use visdb_distance::DistanceResolver;
use visdb_index::SortedProjection;
use visdb_query::ast::{CompareOp, PredicateTarget};
use visdb_query::{parse_query, printer::render_query, validate};
use visdb_relevance::pipeline::DisplayPolicy;
use visdb_relevance::{EvalContext, ExecMode};
use visdb_render::{ascii::to_ascii, write_ppm};
use visdb_service::json::{base64_encode, parse, Json};
use visdb_service::server::handle_line;
use visdb_service::Snapshot;
use visdb_types::Value;

use crate::pacer::late_start_p95_ms;
use crate::report::{class_medians, Values};
use crate::run::{Pass, Rig, RunTrace};
use crate::script::{quantile_keeping, AppendScript, SessionScript};
use crate::stats::{median, ratio, SumCount};
use crate::trace::{Tracer, HANDLE_LINE, LINE, STAGES};
use crate::workload::{Class, APPEND_ROWS};

/// Repetitions a probe aims for.
const REPS: usize = 30;
/// A probe that has run this long stops early …
const PROBE_BUDGET: Duration = Duration::from_secs(1);
/// … once it has at least this many repetitions (pipeline-sized probes
/// on a million rows cannot afford thirty).
const MIN_REPS: usize = 3;

/// Median wall time of `f`, nanoseconds, over [`REPS`] repetitions (or
/// as many as [`PROBE_BUDGET`] allows). `f` gets the repetition index
/// and returns what it timed itself, so set-up stays outside.
fn probe(mut f: impl FnMut(usize) -> Duration) -> f64 {
    let started = Instant::now();
    let mut ns = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        ns.push(f(rep).as_nanos() as f64);
        if rep + 1 >= MIN_REPS && started.elapsed() > PROBE_BUDGET {
            break;
        }
    }
    median(&ns)
}

/// Time one call.
fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let started = Instant::now();
    black_box(f());
    started.elapsed()
}

fn compare_op(op: &str) -> CompareOp {
    match op {
        ">" => CompareOp::Gt,
        ">=" => CompareOp::Ge,
        "<" => CompareOp::Lt,
        "<=" => CompareOp::Le,
        other => panic!("forms only use ordering comparisons, not {other}"),
    }
}

/// Bare probes on the rig's data: no service, one thread.
pub fn probes(rig: &Rig, seed: u64) -> Values {
    let (spec, data) = (rig.spec, rig.data);
    let q = &data.quantiles;
    let mut values = Values::new();
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    let outer = data.db.table(spec.outer).expect("outer table");
    let n = outer.len();
    let (column, op) = spec.forms[0].preds[0];
    // keep 10–50 % like a cold query, a different threshold each call
    let one_window = |i: usize| {
        let keep = 0.1 + 0.4 * (i % REPS) as f64 / REPS as f64;
        format!(
            "SELECT * FROM {} WHERE {column} {op} {}",
            spec.outer,
            q.at(spec.outer, column, quantile_keeping(op, keep))
        )
    };
    // the workload's own multi-window cold queries, all thresholds new
    let mut colds = SessionScript::new(spec, q, seed, 0)
        .filter(|i| i.class == Class::ColdQuery)
        .map(|i| {
            let msg = parse(&i.lines[0]).expect("script lines are JSON");
            msg.get("text").and_then(Json::as_str).unwrap().to_string()
        })
        .filter(|text| text.contains(" AND ") || spec.forms.len() == 1);
    let multi_window = colds.next().expect("scripts are endless");

    // ---- query ----
    put(
        "query.parse_us",
        probe(|_| timed(|| parse_query(&multi_window, &data.registry))) / 1e3,
    );
    let query = parse_query(&multi_window, &data.registry).expect("script text parses");
    put(
        "query.validate_us",
        probe(|_| timed(|| validate(&data.db, &query))) / 1e3,
    );
    put(
        "query.print_us",
        probe(|_| timed(|| render_query(&query))) / 1e3,
    );

    // ---- session / arrange / render ----
    let mut session = Session::new(Arc::clone(&data.db), data.registry.clone());
    session.set_auto_recalculate(false);
    session
        .set_display_policy(DisplayPolicy::Percentage(1.0))
        .expect("a valid policy");
    // dense thresholds (3–12 % kept) stay on the sorted-projection path
    let dense = |u: f64| q.at(spec.outer, column, quantile_keeping(op, 0.03 + 0.09 * u));
    put(
        "session.recalculate_1w_ms",
        probe(|rep| {
            session
                .set_query_text(&one_window(rep))
                .expect("probe text is valid");
            timed(|| session.recalculate())
        }) / 1e6,
    );
    put(
        "session.drag_fast_us",
        probe(|rep| {
            let target = PredicateTarget::Compare {
                op: compare_op(op),
                value: Value::Float(dense(rep as f64 / REPS as f64)),
            };
            let started = Instant::now();
            let drag = session.drag_slider(0, target).expect("a valid drag");
            let elapsed = started.elapsed();
            assert!(drag.incremental, "the probe drag left the fast path");
            elapsed
        }) / 1e3,
    );
    put(
        "session.recalculate_3w_ms",
        probe(|_| {
            let text = colds.next().expect("scripts are endless");
            session.set_query_text(&text).expect("script text is valid");
            timed(|| session.recalculate())
        }) / 1e6,
    );
    // every recalculation starts by materializing its base relation (for
    // a single table: a copy) and ends by dropping the previous one
    put(
        "joins.materialize_base_ms",
        probe(|_| timed(|| materialize_base(&data.db, &query, &JoinOptions::default()))) / 1e6,
    );
    // arrange and render what the multi-window query displays
    let displayed = session
        .result()
        .expect("the probe query runs")
        .pipeline
        .displayed
        .clone();
    put(
        "arrange.overall_us",
        probe(|_| timed(|| arrange_overall(&displayed, 64, 64))) / 1e3,
    );
    let options = RenderOptions::default();
    put(
        "render.session_us",
        probe(|_| timed(|| render_session(&mut session, &options))) / 1e3,
    );
    let frame = render_session(&mut session, &options).expect("a settled session renders");
    put(
        "render.ascii_us",
        probe(|_| timed(|| to_ascii(&frame, 80))) / 1e3,
    );
    let mut ppm = Vec::new();
    put(
        "render.ppm_us",
        probe(|_| {
            ppm.clear();
            timed(|| write_ppm(&frame, &mut ppm))
        }) / 1e3,
    );
    put("render.frame_bytes", ppm.len() as f64);
    let base64_ns = probe(|_| timed(|| base64_encode(&ppm)));
    put(
        "json.base64_mib_per_s",
        ppm.len() as f64 / (1 << 20) as f64 / (base64_ns / 1e9),
    );

    // ---- index / storage ----
    let cells = outer.column_by_name(column).expect("form column");
    put(
        "index.projection_build_ms",
        probe(|_| timed(|| SortedProjection::build(n, |i| cells.get_f64(i)))) / 1e6,
    );
    let projection = SortedProjection::build(n, |i| cells.get_f64(i));
    const LOOKUPS: usize = 1_000;
    let thresholds: Vec<f64> = (0..LOOKUPS)
        .map(|i| dense(i as f64 / LOOKUPS as f64))
        .collect();
    put(
        "index.position_ns",
        probe(|_| {
            timed(|| {
                thresholds
                    .iter()
                    .map(|&t| projection.position_ge(t))
                    .sum::<usize>()
            })
        }) / LOOKUPS as f64,
    );
    let delta = {
        let mut appends = AppendScript::new(spec, q, &data.db, seed, 0);
        appends.next();
        appends.appended
    };
    let mut grown = outer.clone();
    grown
        .append_rows(delta.clone())
        .expect("schema-conforming rows");
    let grown_cells = grown.column_by_name(column).expect("form column");
    put(
        "index.projection_extend_ms",
        probe(|_| timed(|| projection.extended(n + APPEND_ROWS, |i| grown_cells.get_f64(i)))) / 1e6,
    );
    let mut growing = outer.clone();
    put(
        "storage.table_append_ms",
        probe(|_| {
            let rows = delta.clone();
            timed(|| growing.append_rows(rows))
        }) / 1e6,
    );
    put(
        "storage.db_clone_ms",
        probe(|_| {
            let started = Instant::now();
            let copy = black_box((*data.db).clone());
            let elapsed = started.elapsed();
            drop(copy);
            elapsed
        }) / 1e6,
    );

    // ---- joins ----
    let join = format!(
        "SELECT * FROM Air-Pollution WHERE DateTime IN \
         (SELECT DateTime FROM Weather WHERE Temperature >= {})",
        q.at("Weather", "Temperature", 0.8)
    );
    let join = parse_query(&join, &data.registry).expect("the join probe parses");
    let node = &join.condition.as_ref().expect("one condition").node;
    let table = data.db.table("Air-Pollution").expect("both tables exist");
    let resolver = DistanceResolver::new();
    let ctx = EvalContext {
        db: &data.db,
        table,
        resolver: &resolver,
        display_budget: (table.len() / 100).max(1),
        mode: ExecMode::Vectorized,
        partitions: None,
        cancel: None,
    };
    put(
        "joins.subquery_eval_ms",
        probe(|_| timed(|| ctx.eval_node(node))) / 1e6,
    );

    // ---- obs ----
    put(
        "obs.snapshot_us",
        probe(|_| timed(|| rig.service.metrics_snapshot())) / 1e3,
    );
    put(
        "obs.metrics_reply_bytes",
        handle_line(&rig.service, "{\"op\":\"metrics\"}")
            .to_string()
            .len() as f64,
    );
    values
}

fn hist(s: &Snapshot, name: &str) -> SumCount {
    s.histogram(name).map_or(SumCount::default(), |h| SumCount {
        sum: h.sum,
        count: h.count,
    })
}

/// Ops a session line can carry (everything `service.latency_ns.*`
/// except the service-level ops).
fn session_ops(s: &Snapshot) -> SumCount {
    const PREFIX: &str = "service.latency_ns.";
    const SERVICE_LEVEL: [&str; 4] = ["append_rows", "append_csv", "metrics", "cancel"];
    s.entries
        .iter()
        .filter_map(|(name, _)| name.strip_prefix(PREFIX))
        .filter(|op| !SERVICE_LEVEL.contains(op))
        .fold(SumCount::default(), |acc, op| {
            acc.plus(hist(s, &format!("{PREFIX}{op}")))
        })
}

/// Everything the traced pass produced.
pub struct Traced<'t> {
    /// Span recorders, analyst clients first, the append client last.
    pub tracers: &'t [Tracer],
    /// Registry snapshot before the traced pass.
    pub before: &'t Snapshot,
    /// Registry snapshot after the traced pass.
    pub after: &'t Snapshot,
    /// The traced pass.
    pub pass: &'t Pass,
    /// The untraced pass of the same length that ran just before it.
    pub reference: &'t Pass,
}

/// One value per per-layer metric.
pub fn per_layer_values(rig: &Rig, traced: &Traced, probes: Values) -> Values {
    let mut values = Values::new();
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    let (before, after) = (traced.before, traced.after);
    let delta_hist = |name: &str| hist(after, name).since(hist(before, name));
    let delta_count = |name: &str| {
        (after.counter(name).unwrap_or(0)).saturating_sub(before.counter(name).unwrap_or(0)) as f64
    };
    let span = |name: &str| -> SumCount {
        traced
            .tracers
            .iter()
            .map(|t| t.total(name))
            .fold(SumCount::default(), |acc, (sum, count)| {
                acc.plus(SumCount { sum, count })
            })
    };
    let all = &traced.pass.samples;
    let interactions = all.len() as f64;

    // ---- wire stages (means per line) ----
    let stage: Vec<SumCount> = STAGES.iter().map(|s| span(s)).collect();
    put("json.parse_us", stage[0].mean() / 1e3);
    put("api.decode_us", stage[1].mean() / 1e3);
    put("service.submit_us", stage[2].mean() / 1e3);
    put("service.wait_us", stage[3].mean() / 1e3);
    put("api.encode_us", stage[4].mean() / 1e3);
    put("json.write_us", stage[5].mean() / 1e3);
    let request_bytes: u64 = traced.tracers.iter().map(|t| t.request_bytes).sum();
    let response_bytes: u64 = traced.tracers.iter().map(|t| t.response_bytes).sum();
    put(
        "json.request_bytes",
        ratio(request_bytes as f64, interactions),
    );
    put(
        "json.response_bytes",
        ratio(response_bytes as f64, interactions),
    );
    let mib_per_s = |bytes: u64, ns: u64| ratio(bytes as f64 / (1 << 20) as f64, ns as f64 / 1e9);
    put(
        "json.parse_mib_per_s",
        mib_per_s(request_bytes, stage[0].sum),
    );
    put(
        "json.write_mib_per_s",
        mib_per_s(response_bytes, stage[5].sum),
    );

    // ---- service ----
    let exec = session_ops(after).since(session_ops(before));
    put("service.exec_us", exec.mean() / 1e3);
    // queue wait plus both wake-ups, which the registry's per-op latency
    // cannot see. A worker can start (even finish) a request while
    // `submit_async_opts` is still returning, so execution overlaps the
    // submit span as well as the wait span: the hand-off is what is left
    // of both once the execution is taken out
    let handoff_ns = (stage[2].sum + stage[3].sum).saturating_sub(exec.sum);
    put(
        "service.handoff_us",
        ratio(handoff_ns as f64, stage[3].count as f64) / 1e3,
    );
    let appends = delta_hist("service.latency_ns.append_rows");
    put("service.append_ms", appends.mean() / 1e6);
    put(
        "service.append_rows_per_s",
        ratio(
            appends.count as f64 * APPEND_ROWS as f64,
            appends.sum as f64 / 1e9,
        ),
    );
    for name in [
        "service.shed",
        "service.deadline_exceeded",
        "service.cancelled",
        "service.panics",
    ] {
        put(name, delta_count(name));
    }
    put(
        "service.pending_depth_max",
        traced
            .tracers
            .iter()
            .map(|t| t.pending_depth_max)
            .max()
            .unwrap_or(0) as f64,
    );

    // ---- manager ----
    let create: Vec<f64> = rig.create_session_ns.iter().map(|&ns| ns as f64).collect();
    put(
        "manager.create_session_us",
        create.iter().sum::<f64>() / create.len() as f64 / 1e3,
    );
    put(
        "manager.sessions_created",
        after.counter("service.sessions.created").unwrap_or(0) as f64,
    );
    put(
        "manager.sessions_evicted",
        after.counter("service.sessions.evicted").unwrap_or(0) as f64,
    );

    // ---- caches ----
    for cache in ["cache.query", "cache.window", "cache.projection"] {
        let hits = delta_count(&format!("{cache}.hits"));
        let misses = delta_count(&format!("{cache}.misses"));
        put(&format!("{cache}.hits"), hits);
        put(&format!("{cache}.misses"), misses);
        put(&format!("{cache}.hit_ratio"), ratio(hits, hits + misses));
    }
    let runs: Vec<RunTrace> = rig
        .clients
        .iter()
        .flat_map(|c| c.run_traces.iter())
        .chain(&rig.feed.run_traces)
        .copied()
        .collect();
    let mean_of = |f: fn(&RunTrace) -> f64| ratio(runs.iter().map(f).sum(), runs.len() as f64);
    let session_hits = mean_of(|r| r.session_hits);
    let windows = session_hits + mean_of(|r| r.shared_hits) + mean_of(|r| r.evaluated);
    put(
        "cache.session_window.hit_ratio",
        ratio(session_hits, windows),
    );

    // ---- exec ----
    put("exec.jobs_executed", delta_count("exec.jobs_executed"));
    put("exec.tasks_stolen", delta_count("exec.tasks_stolen"));
    put(
        "exec.peak_active",
        after.gauge("exec.peak_active").unwrap_or(0) as f64,
    );
    put(
        "exec.job_latency_mean_us",
        delta_hist("exec.job_latency_ns").mean() / 1e3,
    );

    // ---- pipeline ----
    let phases = ["distance", "fit", "normalize_combine", "rank"]
        .map(|p| delta_hist(&format!("pipeline.phase.{p}")));
    for (name, phase) in ["distance", "fit", "normalize_combine", "rank"]
        .iter()
        .zip(&phases)
    {
        put(&format!("pipeline.{name}_ms"), phase.mean() / 1e6);
    }
    put("pipeline.runs", phases[0].count as f64);
    let rows_scanned = mean_of(|r| r.rows_scanned);
    let evaluated = mean_of(|r| r.evaluated);
    put("pipeline.rows_scanned_per_run", rows_scanned);
    put("pipeline.rows_pruned_per_run", mean_of(|r| r.rows_pruned));
    put("pipeline.windows_evaluated_per_run", evaluated);
    let phase_ns: f64 = phases.iter().map(|p| p.mean()).sum();
    put("pipeline.rows_per_s", ratio(rows_scanned, phase_ns / 1e9));
    put(
        "distance.rows_per_s",
        ratio(rows_scanned * evaluated, phases[0].mean() / 1e9),
    );

    // ---- delta chain ----
    for name in [
        "delta.appends",
        "delta.compactions",
        "delta.windows_extended",
        "delta.windows_recomputed",
        "delta.projections_merged",
        "delta.bands_repaired",
        "delta.bands_dropped",
    ] {
        put(name, delta_count(name));
    }

    // ---- generator health ----
    let feed_rate = rig.spec.feed.map_or(0.0, |f| 1e3 / f.interval_ms as f64);
    put("gen.offered_rate", rig.spec.offered_rate() + feed_rate);
    put(
        "gen.achieved_rate",
        traced.pass.late_ns.len() as f64 / traced.pass.wall_s,
    );
    put(
        "gen.late_start_p95_ms",
        late_start_p95_ms(&traced.pass.late_ns),
    );
    put(
        "gen.backlog_growing",
        f64::from(u8::from(traced.pass.backlog_growing)),
    );
    for class in Class::ALL {
        let n = all.iter().filter(|s| s.class == class).count();
        put(&format!("gen.samples.{}", class.name()), n as f64);
    }
    let fast = |class: Option<Class>| {
        let drags: Vec<bool> = all
            .iter()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .filter_map(|s| s.incremental)
            .collect();
        ratio(
            drags.iter().filter(|&&i| i).count() as f64,
            drags.len() as f64,
        )
    };
    put("session.drag_fastpath_ratio", fast(None));
    put(
        "session.drag_fastpath_ratio.dense",
        fast(Some(Class::DragDense)),
    );
    put(
        "session.drag_fastpath_ratio.sparse",
        fast(Some(Class::DragSparse)),
    );

    // ---- attribution: do the parts add up? ----
    let (decomposed, in_stages) = traced
        .tracers
        .iter()
        .map(Tracer::decomposed_ns)
        .fold((0, 0), |(l, s), (dl, ds)| (l + dl, s + ds));
    put(
        "attribution.wire_sum_ratio",
        ratio(in_stages as f64, decomposed as f64),
    );
    let stages_ns: u64 = stage.iter().map(|s| s.sum).sum();
    // what a session line's execution is made of, as far as anything
    // outside the program can tell: the four phases (registry), plus
    // base materialization / arrange / render / encode priced by the
    // bare probes
    let renders = (delta_hist("service.latency_ns.render").count as f64
        - delta_count("cache.query.hits"))
    .max(0.0);
    let ppm_frames = all.iter().filter(|s| s.class == Class::FramePpm).count() as f64;
    let probe_us = |name: &str| probes[name] * 1e3;
    let explained_exec = phases.iter().map(|p| p.sum as f64).sum::<f64>()
        + phases[0].count as f64 * probes["joins.materialize_base_ms"] * 1e6
        + phases[0].count as f64 * probe_us("arrange.overall_us")
        + renders * probe_us("render.session_us")
        + (renders - ppm_frames).max(0.0) * probe_us("render.ascii_us")
        + ppm_frames.min(renders) * probe_us("render.ppm_us");
    put(
        "attribution.exec_sum_ratio",
        ratio(explained_exec, exec.sum as f64),
    );
    // of all line time: what neither a wire stage nor an explained part
    // of the execution covers (service-level lines are opaque: all of
    // `server.handle_line` counts as unexplained except the append itself)
    let lines_ns = span(LINE).sum as f64;
    let explained = (stages_ns - stage[2].sum - stage[3].sum + handoff_ns) as f64
        + explained_exec.min(exec.sum as f64)
        + (appends.sum as f64).min(span(HANDLE_LINE).sum as f64);
    put(
        "attribution.unexplained_ratio",
        ratio((lines_ns - explained).max(0.0), lines_ns),
    );
    // the same classes, traced ÷ untraced, weighted by how often each ran
    let (with, without) = (class_medians(traced.pass), class_medians(traced.reference));
    let (mut num, mut den) = (0.0, 0.0);
    for class in Class::ALL {
        let n = all.iter().filter(|s| s.class == class).count() as f64;
        let (w, wo) = (with[class.index()], without[class.index()]);
        if n > 0.0 && w.is_finite() && wo.is_finite() {
            num += n * w;
            den += n * wo;
        }
    }
    put("attribution.trace_overhead_ratio", ratio(num, den) - 1.0);
    values.extend(probes);
    values
}
