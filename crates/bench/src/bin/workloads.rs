//! Machine-readable perf record of the paper's three §3–§4.5 case
//! studies run end to end as macro workloads, plus the **approximate
//! join A/B** that gates the banded sort-merge sweep:
//!
//! * **ozone** — the environmental running example (§3/§4.1): an ozone
//!   threshold predicate AND an `IN` subquery joining `Air-Pollution`
//!   to hot `Weather` hours on `DateTime`. The join attribute is
//!   numeric, so the vectorized arm takes the **banded sort-merge**
//!   path (sorted projection + outward band sweep with the global
//!   `gap + cond_lb >= best` cutoff).
//! * **cad** — the CAD similarity retrieval of §4.5: an `AND` of
//!   `AROUND` predicates over a prototype part's parameters
//!   (fixed-allowance similarity search, streamable kernels).
//! * **multidb** — the multi-database correspondence of §4.5: an
//!   approximate string join `CustomersA.Name IN (... CustomersB)`
//!   whose typo'd keys defeat exact joins. The vectorized arm takes the
//!   **dictionary-gather** path (per-distinct-value distance tables,
//!   no per-row `Value` clone).
//!
//! Every workload first *asserts* that the vectorized output is
//! identical to the scalar per-tuple reference, then times both arms;
//! the `banded_vs_exhaustive` series additionally isolates the join
//! itself (one `eval_node` on the subquery node, vectorized banded
//! sweep vs scalar exhaustive O(n·m) loop, bit-identity asserted
//! first) across inner-relation sizes. A full run writes
//! `BENCH_workloads.json` in the working directory, a `--smoke` run
//! `target/BENCH_workloads.smoke.json` (so it never replaces the
//! committed full-run file), `--out <path>` overrides either; every
//! number is the **median** of at least [`MIN_REPS`] timed repetitions,
//! with rep counts recorded.
//!
//! ```sh
//! cargo run --release -p visdb-bench --bin workloads            # full
//! cargo run --release -p visdb-bench --bin workloads -- --smoke # CI
//! ```
//!
//! In full mode the run *gates* the banded join: it must be >= 5x the
//! exhaustive sweep at the largest inner-relation size.

use std::fmt::Write as _;
use std::time::Instant;

use visdb_bench::write_results;
use visdb_data::{
    generate_cad, generate_environmental, generate_multidb, CadConfig, EnvConfig, MultiDbConfig,
};
use visdb_distance::DistanceResolver;
use visdb_query::ast::{AttrRef, ConditionNode, SubqueryLink};
use visdb_query::{CompareOp, QueryBuilder};
use visdb_relevance::pipeline::{run_pipeline, DisplayPolicy, PipelineOptions, PipelineOutput};
use visdb_relevance::{EvalContext, ExecMode};
use visdb_storage::Database;
use visdb_types::Value;

/// Minimum timed repetitions per measurement; every reported number is
/// the **median** over at least this many reps.
const MIN_REPS: usize = 5;

/// One de-flaked measurement: the median seconds-per-call over `reps`
/// individually timed repetitions.
struct Timed {
    per_call_s: f64,
    reps: usize,
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

/// Time `f` until at least [`MIN_REPS`] individually timed repetitions
/// have run *and* ~0.5 s (or 50 reps) have accumulated; returns the
/// median seconds per call plus the rep count.
fn time_median<T>(mut f: impl FnMut() -> T) -> Timed {
    let start = Instant::now();
    let mut samples: Vec<f64> = Vec::new();
    loop {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_secs_f64());
        if samples.len() >= MIN_REPS
            && (start.elapsed().as_secs_f64() >= 0.5 || samples.len() >= 50)
        {
            break;
        }
    }
    let reps = samples.len();
    Timed {
        per_call_s: median(&mut samples),
        reps,
    }
}

/// Record a measurement's rep count and unwrap its median.
fn note(rep_counts: &mut Vec<usize>, t: Timed) -> f64 {
    rep_counts.push(t.reps);
    t.per_call_s
}

/// The identity contract every workload must pass before it is timed:
/// vectorized (banded / gathered / streamed) output equals the scalar
/// per-tuple reference in every user-visible field.
fn assert_identical(fast: &PipelineOutput, slow: &PipelineOutput, name: &str) {
    assert_eq!(fast.combined, slow.combined, "{name}: combined diverges");
    assert_eq!(fast.num_exact, slow.num_exact, "{name}: num_exact diverges");
    assert_eq!(fast.displayed, slow.displayed, "{name}: displayed diverges");
    assert_eq!(
        fast.order,
        slow.order[..fast.order.len()],
        "{name}: sorted order prefix diverges"
    );
    for (f, s) in fast.windows.iter().zip(&slow.windows) {
        assert_eq!(f.norm_params, s.norm_params, "{name}: norm params diverge");
        let oracle = s
            .raw_frame()
            .expect("the scalar reference keeps its frames");
        // a window kept as its bits: the oracle frame's bits
        if f.raw_frame().is_none() {
            assert_eq!(
                f.exact_bits(),
                &oracle.exact_bits(),
                "{name}: window bits diverge"
            );
        }
        for &i in &fast.displayed {
            let raw = f.raw_frame().map(|raw| raw.get(i));
            assert!(
                raw.is_none_or(|d| d == oracle.get(i)),
                "{name}: window raw diverges"
            );
            assert_eq!(
                f.normalized_at(i),
                s.normalized_at(i),
                "{name}: window norm diverges"
            );
        }
    }
}

struct WorkloadResult {
    name: &'static str,
    /// Which vectorized join/kernel path the workload exercises.
    path: &'static str,
    rows: usize,
    inner_rows: usize,
    scalar_rows_per_sec: f64,
    vectorized_rows_per_sec: f64,
    speedup: f64,
    reps: usize,
}

/// Run one macro workload end to end: identity assert, then scalar and
/// vectorized medians.
fn bench_workload(
    name: &'static str,
    path: &'static str,
    db: &Database,
    table_name: &str,
    q: &visdb_query::ast::Query,
    inner_rows: usize,
) -> WorkloadResult {
    let table = db.table(table_name).expect("workload table");
    let resolver = DistanceResolver::new();
    let cond = q.condition.as_ref();
    let policy = DisplayPolicy::Percentage(1.0);
    let run = |mode| {
        let opts = PipelineOptions {
            mode,
            ..Default::default()
        };
        run_pipeline(db, table, &resolver, cond, &policy, opts).expect("pipeline")
    };
    assert_identical(&run(ExecMode::Vectorized), &run(ExecMode::Scalar), name);
    let mut rep_counts = Vec::new();
    let scalar_s = note(&mut rep_counts, time_median(|| run(ExecMode::Scalar)));
    let vector_s = note(&mut rep_counts, time_median(|| run(ExecMode::Vectorized)));
    let n = table.len();
    WorkloadResult {
        name,
        path,
        rows: n,
        inner_rows,
        scalar_rows_per_sec: n as f64 / scalar_s,
        vectorized_rows_per_sec: n as f64 / vector_s,
        speedup: scalar_s / vector_s,
        reps: rep_counts.iter().copied().min().expect("measurements ran"),
    }
}

/// The ozone case study (§3/§4.1): hot-weather hours drive the ozone
/// response two hours later; the query asks for high-ozone pollution
/// rows whose timestamp approximately joins a hot weather hour.
fn ozone_query() -> visdb_query::ast::Query {
    let inner = QueryBuilder::from_tables(["Weather"])
        .cmp("Temperature", CompareOp::Ge, 22.0)
        .build();
    QueryBuilder::from_tables(["Air-Pollution"])
        .cmp("Ozone", CompareOp::Ge, 120.0)
        .is_in("DateTime", "DateTime", inner)
        .build()
}

/// One point of the join A/B series.
struct JoinPoint {
    inner_rows: usize,
    outer_rows: usize,
    banded_ms: f64,
    exhaustive_ms: f64,
    speedup: f64,
    reps: usize,
}

/// Isolate the approximate join: evaluate only the subquery node of the
/// ozone query, vectorized (banded sort-merge sweep) vs scalar
/// (exhaustive O(n·m) loop), bit-identity asserted first.
fn bench_join(hours: usize) -> JoinPoint {
    let env = generate_environmental(&EnvConfig {
        hours,
        stations: 1,
        seed: 7,
        ..Default::default()
    });
    let inner = QueryBuilder::from_tables(["Weather"])
        .cmp("Temperature", CompareOp::Ge, 22.0)
        .build();
    let node = ConditionNode::Subquery {
        link: SubqueryLink::In {
            outer: AttrRef::new("DateTime"),
            inner: AttrRef::new("DateTime"),
        },
        query: Box::new(inner),
    };
    let table = env.db.table("Air-Pollution").expect("outer table");
    let resolver = DistanceResolver::new();
    let ctx = |mode: ExecMode| EvalContext {
        db: &env.db,
        table,
        resolver: &resolver,
        display_budget: (table.len() / 100).max(1),
        mode,
        partitions: None,
        cancel: None,
    };
    let banded = ctx(ExecMode::Vectorized);
    let exhaustive = ctx(ExecMode::Scalar);
    let fast = banded.eval_node(&node).expect("banded join");
    let slow = exhaustive.eval_node(&node).expect("exhaustive join");
    assert!(
        fast.distances.bits_eq(&slow.distances),
        "banded join must be bit-identical to the exhaustive sweep at {hours} hours"
    );
    assert_eq!(
        fast.stats, slow.stats,
        "join stats diverge at {hours} hours"
    );
    let mut rep_counts = Vec::new();
    let banded_s = note(
        &mut rep_counts,
        time_median(|| banded.eval_node(&node).expect("banded join")),
    );
    let exhaustive_s = note(
        &mut rep_counts,
        time_median(|| exhaustive.eval_node(&node).expect("exhaustive join")),
    );
    JoinPoint {
        inner_rows: env.db.table("Weather").expect("inner table").len(),
        outer_rows: table.len(),
        banded_ms: banded_s * 1e3,
        exhaustive_ms: exhaustive_s * 1e3,
        speedup: exhaustive_s / banded_s,
        reps: rep_counts.iter().copied().min().expect("measurements ran"),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // ---- the three case-study macro workloads ------------------------
    let env = generate_environmental(&EnvConfig {
        hours: if smoke { 96 } else { 2_000 },
        stations: 2,
        seed: 7,
        ..Default::default()
    });
    let weather_rows = env.db.table("Weather").expect("Weather").len();
    let ozone = bench_workload(
        "ozone",
        "banded-join",
        &env.db,
        "Air-Pollution",
        &ozone_query(),
        weather_rows,
    );

    let cad_data = generate_cad(&CadConfig {
        clusters: if smoke { 3 } else { 8 },
        parts_per_cluster: if smoke { 10 } else { 60 },
        random_parts: if smoke { 50 } else { 2_000 },
        seed: 77,
        ..Default::default()
    });
    let mut qb = QueryBuilder::from_tables(["Parts"]);
    for (p, &c) in cad_data.prototypes[0].iter().take(6).enumerate() {
        qb = qb.around(format!("p{p:02}"), c, 2.0);
    }
    let cad = bench_workload(
        "cad",
        "around-kernels",
        &cad_data.db,
        "Parts",
        &qb.build(),
        0,
    );

    let mdb = generate_multidb(&MultiDbConfig {
        customers: if smoke { 40 } else { 800 },
        unmatched_per_side: if smoke { 10 } else { 200 },
        seed: 99,
        ..Default::default()
    });
    let inner = QueryBuilder::from_tables(["CustomersB"])
        .cmp("Balance", CompareOp::Ge, 0.0)
        .build();
    let mq = QueryBuilder::from_tables(["CustomersA"])
        .cmp("Balance", CompareOp::Ge, Value::Float(-1_000.0))
        .is_in("Name", "Name", inner)
        .build();
    let b_rows = mdb.db.table("CustomersB").expect("CustomersB").len();
    let multidb = bench_workload(
        "multidb",
        "gathered-join",
        &mdb.db,
        "CustomersA",
        &mq,
        b_rows,
    );

    let workloads = [ozone, cad, multidb];
    for w in &workloads {
        println!(
            "{:<8} ({:>17}): n={:>6} (inner {:>6}) | scalar {:>10.0} rows/s | \
             vectorized {:>10.0} rows/s | speedup {:>6.2}x | median of >= {} reps",
            w.name,
            w.path,
            w.rows,
            w.inner_rows,
            w.scalar_rows_per_sec,
            w.vectorized_rows_per_sec,
            w.speedup,
            w.reps,
        );
    }

    // ---- banded vs exhaustive join A/B across inner sizes ------------
    let hour_series: &[usize] = if smoke {
        &[100, 400]
    } else {
        &[1_000, 4_000, 16_000]
    };
    let joins: Vec<JoinPoint> = hour_series.iter().map(|&h| bench_join(h)).collect();
    for j in &joins {
        println!(
            "banded_vs_exhaustive: inner={:>6} outer={:>6} | banded {:>9.3} ms | \
             exhaustive {:>10.3} ms | speedup {:>8.2}x | median of >= {} reps",
            j.inner_rows, j.outer_rows, j.banded_ms, j.exhaustive_ms, j.speedup, j.reps,
        );
    }

    // ---- JSON --------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"workloads\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"min_reps\": {MIN_REPS},");
    let _ = writeln!(json, "  \"workloads\": [");
    for (i, w) in workloads.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"path\": \"{}\", \"rows\": {}, \"inner_rows\": {}, \
             \"scalar_rows_per_sec\": {:.0}, \"vectorized_rows_per_sec\": {:.0}, \
             \"speedup\": {:.3}, \"reps\": {}}}{}",
            w.name,
            w.path,
            w.rows,
            w.inner_rows,
            w.scalar_rows_per_sec,
            w.vectorized_rows_per_sec,
            w.speedup,
            w.reps,
            if i + 1 < workloads.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"banded_vs_exhaustive\": [");
    for (i, j) in joins.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"inner_rows\": {}, \"outer_rows\": {}, \"banded_ms\": {:.3}, \
             \"exhaustive_ms\": {:.3}, \"speedup\": {:.3}, \"reps\": {}}}{}",
            j.inner_rows,
            j.outer_rows,
            j.banded_ms,
            j.exhaustive_ms,
            j.speedup,
            j.reps,
            if i + 1 < joins.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");

    write_results("BENCH_workloads", smoke, &json);

    // ---- acceptance gate (full mode only) ----------------------------
    if !smoke {
        let big = joins
            .iter()
            .max_by_key(|j| j.inner_rows)
            .expect("join series ran");
        assert!(
            big.speedup >= 5.0,
            "acceptance: the banded sort-merge join must be >= 5x the exhaustive \
             sweep at the largest inner relation ({} rows; got {:.2}x: {:.3} ms vs {:.3} ms)",
            big.inner_rows,
            big.speedup,
            big.banded_ms,
            big.exhaustive_ms
        );
    }
}
