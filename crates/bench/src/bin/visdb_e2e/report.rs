//! Metric names, units, directions and bounds — the one table
//! `BENCHMARK.json` mirrors — and everything that prints or compares them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use visdb_service::json::Json;

use crate::pacer::late_start_p95_ms;
use crate::run::{Pass, Sample};
use crate::stats::{iqr_spread, percentile, quartiles, ratio, sorted, supported_tail};
use crate::workload::Class;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, exactly as printed.
    pub name: String,
    /// Unit, exactly as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

fn metric(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// The classes whose median the benchmark driver gates: the four that pay
/// for a pipeline run. The driver has every workload report every gated
/// metric, caps a bound at 25 % and refuses a benchmark whose spread
/// exceeds it, so a metric is gated only where it is steady on all four
/// workloads. `append` runs in one workload only; `drag_dense`, `reask`
/// and `frame_ppm` are one or two hand-offs around little work, and on
/// `crowd_50k` what a thread wake-up costs on the measuring box decides
/// them (see [`judged_only`]).
pub const GATED_CLASSES: [Class; 4] = [
    Class::ColdQuery,
    Class::Slide,
    Class::Reweight,
    Class::DragSparse,
];

/// The end-to-end metrics every workload reports to the benchmark driver,
/// with their bounds: `BENCHMARK.json`'s `end_to_end`. Over ten seeds of
/// identical code the inter-quartile spread of a class median read 9–23 %
/// of the median and that of the rate 13–22 % (the box runs a fifth slower
/// for minutes at a time, and a set of runs that straddles such a period
/// spreads that wide); two sets half an hour apart differed by up to 21 %
/// in their medians. A bound inside that would gate noise, so the timings
/// take the widest bound the driver allows. `peak_rss_mib` spread by
/// 2–10 %; its bound is twice that.
pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut all = vec![
        metric("setup_s", "s", Lower, Some(0.25)),
        metric("interactions_per_s", "1/s", Higher, Some(0.25)),
        metric("peak_rss_mib", "MiB", Lower, Some(0.20)),
    ];
    for class in GATED_CLASSES {
        all.push(metric(
            &format!("{}_p50_ms", class.name()),
            "ms",
            Lower,
            Some(0.25),
        ));
    }
    all
}

/// End-to-end metrics printed by every untraced run and judged by
/// `compare` per (metric, workload) — *unresolved* where the runs spread
/// wider than the bound — but not gated by the driver, which cannot demote
/// a metric on one workload only: on `crowd_50k` the pooled mean spread by
/// 22–140 % of its median and the pooled p95 by 18–41 % over ten seeds
/// (one 150 ms stall of the box makes 75 interactions late by 75 ms on
/// average: half a millisecond on a 2 ms mean), `drag_dense` by 5–28 %,
/// `frame_ppm` by 5–22 %, `reask` by 30–140 %. The bounds are ISSUE 11's.
pub fn judged_only() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut all = vec![
        metric("interaction_mean_ms", "ms", Lower, Some(0.10)),
        metric("interaction_p95_ms", "ms", Lower, Some(0.10)),
        metric("within_100ms_ratio", "ratio", Higher, Some(0.02)),
    ];
    for class in Class::ALL {
        if !GATED_CLASSES.contains(&class) {
            all.push(metric(
                &format!("{}_p50_ms", class.name()),
                "ms",
                Lower,
                Some(0.10),
            ));
        }
    }
    all
}

/// The per-layer metrics the traced run reports (no bounds).
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let table: &[(&str, &'static str, Better)] = &[
        ("json.parse_us", "us", Lower),
        ("json.write_us", "us", Lower),
        ("json.request_bytes", "B", Lower),
        ("json.response_bytes", "B", Lower),
        ("json.parse_mib_per_s", "MiB/s", Higher),
        ("json.write_mib_per_s", "MiB/s", Higher),
        ("json.base64_mib_per_s", "MiB/s", Higher),
        ("api.decode_us", "us", Lower),
        ("api.encode_us", "us", Lower),
        ("service.submit_us", "us", Lower),
        ("service.wait_us", "us", Lower),
        ("service.exec_us", "us", Lower),
        ("service.handoff_us", "us", Lower),
        ("service.append_ms", "ms", Lower),
        ("service.append_rows_per_s", "1/s", Higher),
        ("service.shed", "count", Lower),
        ("service.deadline_exceeded", "count", Lower),
        ("service.cancelled", "count", Lower),
        ("service.panics", "count", Lower),
        ("service.pending_depth_max", "count", Lower),
        ("manager.create_session_us", "us", Lower),
        ("manager.sessions_created", "count", Lower),
        ("manager.sessions_evicted", "count", Lower),
        ("cache.query.hits", "count", Higher),
        ("cache.query.misses", "count", Lower),
        ("cache.query.hit_ratio", "ratio", Higher),
        ("cache.window.hits", "count", Higher),
        ("cache.window.misses", "count", Lower),
        ("cache.window.hit_ratio", "ratio", Higher),
        ("cache.projection.hits", "count", Higher),
        ("cache.projection.misses", "count", Lower),
        ("cache.projection.hit_ratio", "ratio", Higher),
        ("cache.session_window.hit_ratio", "ratio", Higher),
        ("exec.jobs_executed", "count", Lower),
        ("exec.tasks_stolen", "count", Higher),
        ("exec.peak_active", "count", Higher),
        ("exec.job_latency_mean_us", "us", Lower),
        ("query.parse_us", "us", Lower),
        ("query.validate_us", "us", Lower),
        ("query.print_us", "us", Lower),
        ("session.recalculate_1w_ms", "ms", Lower),
        ("session.recalculate_3w_ms", "ms", Lower),
        ("session.drag_fast_us", "us", Lower),
        ("session.drag_fastpath_ratio", "ratio", Higher),
        ("session.drag_fastpath_ratio.dense", "ratio", Higher),
        ("session.drag_fastpath_ratio.sparse", "ratio", Higher),
        ("pipeline.distance_ms", "ms", Lower),
        ("pipeline.fit_ms", "ms", Lower),
        ("pipeline.normalize_combine_ms", "ms", Lower),
        ("pipeline.rank_ms", "ms", Lower),
        ("pipeline.runs", "count", Lower),
        ("pipeline.rows_scanned_per_run", "count", Lower),
        ("pipeline.rows_pruned_per_run", "count", Higher),
        ("pipeline.windows_evaluated_per_run", "count", Lower),
        ("pipeline.rows_per_s", "1/s", Higher),
        ("distance.rows_per_s", "1/s", Higher),
        ("joins.subquery_eval_ms", "ms", Lower),
        ("joins.materialize_base_ms", "ms", Lower),
        ("index.projection_build_ms", "ms", Lower),
        ("index.projection_extend_ms", "ms", Lower),
        ("index.position_ns", "ns", Lower),
        ("storage.table_append_ms", "ms", Lower),
        ("storage.db_clone_ms", "ms", Lower),
        ("delta.appends", "count", Higher),
        ("delta.compactions", "count", Lower),
        ("delta.windows_extended", "count", Higher),
        ("delta.windows_recomputed", "count", Lower),
        ("delta.projections_merged", "count", Higher),
        ("delta.bands_repaired", "count", Higher),
        ("delta.bands_dropped", "count", Lower),
        ("arrange.overall_us", "us", Lower),
        ("render.session_us", "us", Lower),
        ("render.ascii_us", "us", Lower),
        ("render.ppm_us", "us", Lower),
        ("render.frame_bytes", "B", Lower),
        ("obs.snapshot_us", "us", Lower),
        ("obs.metrics_reply_bytes", "B", Lower),
        ("attribution.wire_sum_ratio", "ratio", Higher),
        ("attribution.exec_sum_ratio", "ratio", Higher),
        ("attribution.unexplained_ratio", "ratio", Lower),
        ("attribution.trace_overhead_ratio", "ratio", Lower),
        ("gen.offered_rate", "1/s", Higher),
        ("gen.achieved_rate", "1/s", Higher),
        ("gen.late_start_p95_ms", "ms", Lower),
        ("gen.backlog_growing", "count", Lower),
    ];
    let mut all: Vec<Metric> = table
        .iter()
        .map(|(name, unit, better)| metric(name, unit, *better, None))
        .collect();
    for class in Class::ALL {
        all.push(metric(
            &format!("gen.samples.{}", class.name()),
            "count",
            Higher,
            None,
        ));
    }
    all
}

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

fn latencies_ms<'s>(
    samples: impl IntoIterator<Item = &'s Sample>,
    class: Option<Class>,
) -> Vec<f64> {
    sorted(
        &samples
            .into_iter()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
}

/// Median latency per class, pooled over the pass (`NaN` for a class the
/// pass never ran).
pub fn class_medians(pass: &Pass) -> [f64; Class::ALL.len()] {
    Class::ALL.map(|class| percentile(&latencies_ms(&pass.samples, Some(class)), 0.5))
}

/// Failed interactions of a pass: a reply that was not `"ok":true`.
pub fn failed(pass: &Pass) -> usize {
    pass.samples.iter().filter(|s| !s.ok).count()
}

/// The gated end-to-end metrics of an untraced pass.
pub fn end_to_end_values(pass: &Pass, setup_s: f64, peak_rss_mib: f64) -> Values {
    let mut values = Values::new();
    values.insert("setup_s".into(), setup_s);
    values.insert("interactions_per_s".into(), pass.rate());
    values.insert("peak_rss_mib".into(), peak_rss_mib);
    let p50 = class_medians(pass);
    for class in GATED_CLASSES {
        values.insert(format!("{}_p50_ms", class.name()), p50[class.index()]);
    }
    values
}

/// Numbers printed beside the gated metrics: the [`judged_only`] ones,
/// each pooled over every timed interaction of the pass as ISSUE 11
/// defines it (a class the pass never ran is left out), `failed_ratio`
/// (expected 0; the gate is `correct`), the generator's health and the
/// tails.
pub fn diagnostics(pass: &Pass, mismatches: usize) -> Vec<(String, f64, &'static str)> {
    let attempted = pass.samples.len() as f64;
    let timed = latencies_ms(&pass.samples, None);
    let mut out = vec![
        (
            "interaction_mean_ms".to_string(),
            timed.iter().sum::<f64>() / attempted,
            "ms",
        ),
        (
            "interaction_p95_ms".to_string(),
            percentile(&timed, 0.95),
            "ms",
        ),
        (
            "within_100ms_ratio".to_string(),
            pass.within_limit_ratio(),
            "ratio",
        ),
        (
            "failed_ratio".to_string(),
            ratio((failed(pass) + mismatches) as f64, attempted),
            "ratio",
        ),
        (
            "gen.late_start_p95_ms".to_string(),
            late_start_p95_ms(&pass.late_ns),
            "ms",
        ),
        (
            "gen.backlog_growing".to_string(),
            f64::from(u8::from(pass.backlog_growing)),
            "count",
        ),
        (
            "gen.max_ms".to_string(),
            timed.last().copied().unwrap_or(f64::NAN),
            "ms",
        ),
    ];
    let p50 = class_medians(pass);
    for class in Class::ALL {
        if !GATED_CLASSES.contains(&class) && p50[class.index()].is_finite() {
            out.push((format!("{}_p50_ms", class.name()), p50[class.index()], "ms"));
        }
    }
    // p99 when the sample supports it, else the highest tail it does
    let tail = |name: String, sorted_ms: &[f64]| {
        supported_tail(sorted_ms.len()).map(|p| {
            let p = p.min(0.99);
            (
                format!("{name}p{}_ms", (p * 100.0).round()),
                percentile(sorted_ms, p),
                "ms",
            )
        })
    };
    out.extend(tail("gen.".into(), &timed));
    for class in Class::ALL {
        let ms = latencies_ms(&pass.samples, Some(class));
        out.extend(tail(format!("gen.class.{}.", class.name()), &ms));
        out.push((
            format!("gen.samples.{}", class.name()),
            ms.len() as f64,
            "count",
        ));
    }
    out
}

/// Print `name value unit`, one metric a line, in table order.
pub fn print_values(table: &[Metric], values: &Values) {
    for m in table {
        println!("{} {} {}", m.name, values[&m.name], m.unit);
    }
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`, every value with all its digits.
pub fn result_line(table: &[Metric], values: &Values, attempted: usize, failed: usize) -> String {
    let mut metrics = String::new();
    for (i, m) in table.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, values[&m.name], m.unit
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
        failed == 0
    )
}

/// `metric → values over runs` of one workload, read back from what the
/// runs printed.
pub type Runs = BTreeMap<String, Vec<f64>>;

/// Fold one run's standard output into `runs`: every `name value unit`
/// line, gated or not.
pub fn collect(runs: &mut Runs, stdout: &str) {
    for line in stdout.lines().filter(|l| !l.starts_with('#')) {
        let words: Vec<&str> = line.split_whitespace().collect();
        if let [name, value, _unit] = words[..] {
            if let Ok(v) = value.parse::<f64>() {
                runs.entry(name.to_string()).or_default().push(v);
            }
        }
    }
}

/// `{"<metric>": [v, ...], ...}` — what `--repeat --out` writes per
/// workload and `compare` reads.
pub fn runs_json(runs: &Runs) -> String {
    let fields: Vec<String> = runs
        .iter()
        .map(|(name, values)| {
            let values: Vec<String> = values.iter().map(f64::to_string).collect();
            format!("\"{name}\":[{}]", values.join(","))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Print min / median / max and the inter-quartile spread per metric.
pub fn print_spread(workload: &str, runs: &Runs) {
    println!(
        "{:<18} {:<34} {:>12} {:>12} {:>12} {:>8}",
        "workload", "metric", "min", "median", "max", "iqr/med"
    );
    for (name, values) in runs {
        if values.len() < 2 {
            continue;
        }
        let v = sorted(values);
        println!(
            "{workload:<18} {name:<34} {:>12.4} {:>12.4} {:>12.4} {:>8.4}",
            v[0],
            quartiles(&v)[1],
            v[v.len() - 1],
            iqr_spread(&v)
        );
    }
}

/// How a metric moved from runs `a` to runs `b` under its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of `b` beats every run of `a`, or the median gained
    /// more than `a`'s own spread.
    Better,
    /// Within the bound and within the noise.
    Same,
    /// The median lost more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound and the runs overlap.
    Unresolved,
}

/// The verdict for one (metric, workload): `a` is the parent, `b` the
/// change. Needs ≥ 2 runs a side.
pub fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    // orient so that larger = worse
    let sign = if m.better == Better::Lower { 1.0 } else { -1.0 };
    let worse = |v: &[f64]| v.iter().map(|x| x * sign).collect::<Vec<f64>>();
    let (a, b) = (sorted(&worse(a)), sorted(&worse(b)));
    let ([a1, a2, a3], [b1, b2, b3]) = (quartiles(&a), quartiles(&b));
    let base = a2.abs();
    let bound = m.bound.unwrap_or(f64::INFINITY);
    let all_better = b[b.len() - 1] < a[0];
    let all_worse = b[0] > a[a.len() - 1];
    let loss = (b2 - a2) / base;
    if (a3 - a1).max(b3 - b1) / base > bound && !all_better && !all_worse {
        Verdict::Unresolved
    } else if loss > bound {
        Verdict::Worse
    } else if all_better || -loss > (a3 - a1) / base {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `compare A B`: one row per (metric, workload) present in both files
/// (`{"<workload>": {"<metric>": [v, ...]}}`). Returns the rows judged
/// worse.
pub fn compare(a: &Json, b: &Json) -> usize {
    let table: Vec<Metric> = end_to_end().into_iter().chain(judged_only()).collect();
    let mut worse = 0;
    println!(
        "{:<18} {:<24} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "change", "bound"
    );
    let (Json::Obj(a), Json::Obj(b)) = (a, b) else {
        return 0;
    };
    for (workload, a_runs) in a {
        for m in &table {
            let values = |runs: Option<&Json>| -> Vec<f64> {
                match runs.and_then(|r| r.get(&m.name)) {
                    Some(Json::Arr(v)) => v.iter().filter_map(Json::as_f64).collect(),
                    _ => Vec::new(),
                }
            };
            let (va, vb) = (values(Some(a_runs)), values(b.get(workload)));
            if va.len() < 2 || vb.len() < 2 {
                continue;
            }
            let v = verdict(m, &va, &vb);
            worse += usize::from(v == Verdict::Worse);
            let (ma, mb) = (quartiles(&va)[1], quartiles(&vb)[1]);
            println!(
                "{workload:<18} {:<24} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>5.0}%  {}",
                m.name,
                (mb - ma) / ma * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
    }
    worse
}

#[cfg(test)]
mod tests {
    use super::*;
    use visdb_service::json::parse;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let (e2e, judged, layers) = (end_to_end(), judged_only(), per_layer());
        assert!(e2e.len() <= 16 && layers.len() <= 128);
        assert!(e2e.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        let all = e2e.iter().chain(&judged).chain(&layers);
        let mut names: Vec<&str> = all.map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
        for m in e2e.iter().chain(&layers) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(m.name.chars().all(ok), "{}", m.name);
        }
        for m in &e2e {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
    }

    /// The checkout's root: the nearest directory above the tests' working
    /// directory that holds `BENCHMARK.json`.
    fn repo_root() -> std::path::PathBuf {
        let mut dir = std::env::current_dir().unwrap();
        while !dir.join("BENCHMARK.json").exists() {
            assert!(dir.pop(), "no BENCHMARK.json above the package");
        }
        dir
    }

    /// The benchmark driver builds these sources through the manifest
    /// beside them; the workspace's tests and lints reach them as a bin of
    /// `visdb-bench`. This holds the two together: the same crates, from
    /// the same directories, under the same release profile.
    #[test]
    fn package_manifest_follows_the_workspace() {
        let root = repo_root();
        let dir = root.join("crates/bench/src/bin/visdb_e2e");
        let read = |path: std::path::PathBuf| {
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        };
        let section = |text: &str, header: &str| -> Vec<String> {
            text.lines()
                .skip_while(|l| l.trim() != header)
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect()
        };
        let own = read(dir.join("Cargo.toml"));
        let bench = read(root.join("crates/bench/Cargo.toml"));
        let dependencies = section(&own, "[dependencies]");
        assert!(!dependencies.is_empty());
        for dependency in dependencies {
            let (name, source) = dependency.split_once(" = ").expect("name = { path }");
            assert!(
                bench.contains(&format!("{name}.workspace = true")),
                "visdb-bench does not link {name}"
            );
            let path = source.split('"').nth(1).expect("a path dependency");
            let theirs = read(dir.join(path).join("Cargo.toml"));
            assert!(
                theirs.contains(&format!("name = \"{name}\"")),
                "{path} is not {name}"
            );
        }
        assert_eq!(
            section(&own, "[profile.release]"),
            section(&read(root.join("Cargo.toml")), "[profile.release]")
        );
    }

    /// `BENCHMARK.json` is written by hand; this keeps it honest.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let json = parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            let Some(Json::Arr(items)) = json.get(key) else {
                panic!("{key} is not an array");
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let expected = |table: Vec<Metric>| -> Vec<(String, String, String, Option<f64>)> {
            table
                .into_iter()
                .map(|m| {
                    (
                        m.name,
                        m.unit.to_string(),
                        m.better.word().to_string(),
                        m.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), expected(end_to_end()));
        assert_eq!(listed("per_layer"), expected(per_layer()));
        let Some(Json::Arr(workloads)) = json.get("workloads") else {
            panic!("workloads is not an array");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let specs: Vec<&str> = crate::workload::all().iter().map(|s| s.name).collect();
        assert_eq!(names, specs);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let table = vec![
            metric("setup_s", "s", Better::Lower, Some(0.25)),
            metric("x_per_s", "1/s", Better::Higher, Some(0.1)),
        ];
        let values: Values = [
            ("setup_s".to_string(), 0.8127),
            ("x_per_s".to_string(), 12.5),
        ]
        .into();
        let line = result_line(&table, &values, 10, 0);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.8127,\"unit\":\"s\"},\
             \"x_per_s\":{\"value\":12.5,\"unit\":\"1/s\"}}}"
        );
        assert!(result_line(&table, &values, 10, 1).starts_with("{\"correct\":false"));
        // `--repeat` reads the `name value unit` lines above it
        let stdout = format!("# a run took 3 s\nsetup_s 0.8127 s\nx_per_s 12.5 1/s\n{line}\n");
        let mut runs = Runs::new();
        collect(&mut runs, &stdout);
        collect(&mut runs, &stdout);
        assert_eq!(runs["x_per_s"], [12.5, 12.5]);
        assert_eq!(
            runs_json(&runs),
            "{\"setup_s\":[0.8127,0.8127],\"x_per_s\":[12.5,12.5]}"
        );
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = metric("t_ms", "ms", Better::Lower, Some(0.10));
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |by: f64| a.map(|x| x * by);
        assert_eq!(verdict(&lower, &a, &shift(1.0)), Verdict::Same);
        assert_eq!(verdict(&lower, &a, &shift(1.05)), Verdict::Same);
        assert_eq!(verdict(&lower, &a, &shift(1.2)), Verdict::Worse);
        assert_eq!(verdict(&lower, &a, &shift(0.9)), Verdict::Better);
        // a rate reads the other way round
        let higher = metric("r_per_s", "1/s", Better::Higher, Some(0.10));
        assert_eq!(verdict(&higher, &a, &shift(0.8)), Verdict::Worse);
        assert_eq!(verdict(&higher, &a, &shift(1.2)), Verdict::Better);
        // spread wider than the bound and overlapping runs: unresolved...
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(
            verdict(&lower, &noisy, &noisy.map(|x| x * 1.05)),
            Verdict::Unresolved
        );
        // ...unless every run of one side beats every run of the other
        assert_eq!(
            verdict(&lower, &noisy, &noisy.map(|x| x * 0.5)),
            Verdict::Better
        );
        assert_eq!(
            verdict(&lower, &noisy, &noisy.map(|x| x * 2.0)),
            Verdict::Worse
        );
    }
}
