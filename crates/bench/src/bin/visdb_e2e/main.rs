//! `visdb_e2e` — the §4.3 interaction loop measured bytes in → bytes out,
//! per interaction class and per layer (see `README.md` beside this file).
//!
//! ```text
//! visdb_e2e --workload <name|all> --seed <u64> [--seconds S] [--trace 0|1]
//!           [--smoke] [--repeat N] [--out DIR]
//! visdb_e2e compare A.json B.json
//! ```
//!
//! Seeded scripts of protocol lines are replayed through the only
//! byte-in/byte-out boundary the tree has —
//! `visdb_service::server::handle_line` followed by `Json::to_string` —
//! every reply is checked against a serial oracle, and the last line of
//! standard output is one JSON object with the run's metrics.

mod layers;
mod oracle;
mod pacer;
mod report;
mod run;
mod script;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use visdb_service::json::{parse, Json};

use report::{Runs, Values};
use run::{Data, Rig, SETUPS};
use trace::Tracer;
use workload::{Spec, RUN_SECONDS};

/// What the command line asked for.
struct Args {
    workload: String,
    seed: u64,
    /// Scales the workload's tabled interaction count; a run is never
    /// cut off by the clock.
    seconds: f64,
    traced: bool,
    smoke: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: visdb_e2e --workload <solo_1m|crowd_50k|append_live_200k|\
join_explore_200k|all> --seed <u64> [--seconds S] [--trace 0|1] [--smoke] [--repeat N] \
[--out DIR]\n       visdb_e2e compare A.json B.json";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot read '{v}'");
        match flag.as_str() {
            "--workload" => parsed.workload = value("a name")?.to_string(),
            "--seed" => {
                let v = value("an integer")?;
                parsed.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(v));
                }
                parsed.seconds = s;
            }
            "--trace" => {
                parsed.traced = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--repeat" => {
                let v = value("an integer")?;
                parsed.repeat = v.parse().map_err(|_| bad(v))?;
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a directory")?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return compare(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("visdb_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" || args.repeat > 1 {
        return fan_out(&args);
    }
    let Some(spec) = workload::by_name(&args.workload) else {
        eprintln!("visdb_e2e: unknown workload '{}'\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let spec = if args.smoke { spec.smoke() } else { spec };
    let interactions = spec.interactions_in(args.seconds);
    let outcome = run_workload(
        &spec,
        args.seed,
        interactions,
        args.traced,
        args.out.as_deref(),
    );
    for mismatch in &outcome.mismatches {
        eprintln!("MISMATCH {mismatch}");
    }
    for reason in &outcome.violations {
        eprintln!("VIOLATION {reason}");
    }
    println!("{}", outcome.result_line());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What one run of one workload produced.
struct Outcome {
    table: Vec<report::Metric>,
    values: Values,
    attempted: usize,
    /// Interactions with an `"ok":false` reply, plus every entry of
    /// `mismatches` and `violations`.
    failed: usize,
    /// Replies the oracle disagrees with.
    mismatches: Vec<String>,
    /// See [`run::Pass::violations`].
    violations: Vec<String>,
}

impl Outcome {
    fn result_line(&self) -> String {
        report::result_line(&self.table, &self.values, self.attempted, self.failed)
    }
}

/// Set up, measure, verify and print one workload in this process.
fn run_workload(
    spec: &Spec,
    seed: u64,
    interactions: usize,
    traced: bool,
    out: Option<&Path>,
) -> Outcome {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# visdb_e2e workload={} seed={seed} interactions={interactions} trace={} nproc={nproc}\n# {}",
        spec.name,
        u8::from(traced),
        spec.why
    );
    let phase = |name: &str, since: Instant| {
        println!("# {name} took {:.3} s", since.elapsed().as_secs_f64());
        Instant::now()
    };
    let started = Instant::now();
    let data = Data::generate(spec);
    let mut rig = Rig::set_up(spec, &data, seed);
    let first_set_up = started.elapsed().as_secs_f64();
    let mut clock = phase("the first set-up", started);

    if !traced {
        let pass = rig.pass(interactions, false, None);
        clock = phase("the timed pass", clock);
        // before the oracle: its bare sessions are not the program's memory
        let peak_rss_mib = run::peak_rss_mib();
        let mismatches = oracle::verify(&rig);
        clock = phase("the oracle", clock);
        // set-up is measured several times and the median reported; the
        // repeats come last, so that `peak_rss_mib` above is the peak of
        // one set-up and one pass, whatever the allocator kept of others
        let mut setup_s = vec![first_set_up];
        for _ in 1..SETUPS {
            let started = Instant::now();
            let data = Data::generate(spec);
            let rig = Rig::set_up(spec, &data, seed);
            setup_s.push(started.elapsed().as_secs_f64());
            drop(rig);
        }
        let setup_s = stats::median(&setup_s);
        phase("the other set-ups", clock);
        let table = report::end_to_end();
        let values = report::end_to_end_values(&pass, setup_s, peak_rss_mib);
        report::print_values(&table, &values);
        for (name, value, unit) in report::diagnostics(&pass, mismatches.len()) {
            println!("{name} {value} {unit}");
        }
        let violations = pass.violations(spec);
        return Outcome {
            table,
            values,
            attempted: pass.samples.len(),
            failed: report::failed(&pass) + mismatches.len() + violations.len(),
            mismatches,
            violations,
        };
    }

    // an untraced pass for reference, then the same length again with
    // every line decomposed into spans
    let quarter = (interactions / 4).max(1);
    let reference = rig.pass(quarter, false, None);
    clock = phase("the untraced reference pass", clock);
    rig.recording = false;
    rig.set_traced(true);
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..=spec.clients.len())
        .map(|client| Tracer::new(&rig.service, epoch, client as u64))
        .collect();
    let before = rig.service.registry().snapshot();
    let pass = rig.pass(quarter, false, Some(&mut tracers));
    let after = rig.service.registry().snapshot();
    clock = phase("the traced pass", clock);
    let probes = layers::probes(&rig, seed);
    clock = phase("the probes", clock);
    let mismatches = oracle::verify(&rig);
    phase("the oracle", clock);
    let traced = layers::Traced {
        tracers: &tracers,
        before: &before,
        after: &after,
        pass: &pass,
        reference: &reference,
    };
    let table = report::per_layer();
    let values = layers::per_layer_values(&rig, &traced, probes);
    report::print_values(&table, &values);
    if let Some(dir) = out {
        let path = dir.join(format!("trace.{}.json", spec.name));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::spans_json(&tracers)));
        match written {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("visdb_e2e: cannot write {}: {e}", path.display()),
        }
    }
    let mut violations = reference.violations(spec);
    violations.extend(pass.violations(spec));
    Outcome {
        table,
        values,
        attempted: reference.samples.len() + pass.samples.len(),
        failed: report::failed(&reference)
            + report::failed(&pass)
            + mismatches.len()
            + violations.len(),
        mismatches,
        violations,
    }
}

/// `--workload all` / `--repeat N`: one fresh process per (workload,
/// repetition), so warm-up state and `peak_rss_mib` are per run; seeds
/// count up from `--seed`. Prints the spread per (metric, workload) and,
/// with `--out`, writes `runs.json` for `compare`.
fn fan_out(args: &Args) -> ExitCode {
    let names: Vec<&str> = if args.workload == "all" {
        workload::all().iter().map(|s| s.name).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut all_runs: Vec<(&str, Runs)> = Vec::new();
    let mut ok = true;
    for name in names {
        let mut runs = Runs::new();
        for rep in 0..args.repeat {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name])
                .args(["--seed", &(args.seed + rep as u64).to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }]);
            if args.smoke {
                child.arg("--smoke");
            }
            if let (Some(dir), true) = (&args.out, args.traced) {
                child.arg("--out").arg(dir);
            }
            let output = child
                .stderr(Stdio::inherit())
                .output()
                .expect("the harness can run itself");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            ok &= output.status.success();
            report::collect(&mut runs, &stdout);
        }
        all_runs.push((name, runs));
    }
    for (name, runs) in &all_runs {
        report::print_spread(name, runs);
    }
    if let Some(dir) = &args.out {
        let fields: Vec<String> = all_runs
            .iter()
            .map(|(name, runs)| format!("\"{name}\":{}", report::runs_json(runs)))
            .collect();
        let path = dir.join("runs.json");
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, format!("{{{}}}\n", fields.join(",\n"))));
        if let Err(e) = written {
            eprintln!("visdb_e2e: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `compare A.json B.json`: A is the parent's `runs.json`, B the change's.
fn compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match (read(a), read(b)) {
        (Ok(a), Ok(b)) => {
            if report::compare(&a, &b) == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("visdb_e2e: {e}");
            }
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One workload, smoke-sized, untraced and traced: each named metric
    /// is there once with a finite value, no interaction fails, the oracle
    /// agrees. (Whether the generator kept its schedule is not asserted: a
    /// debug build on a busy box may not, and `Pass::violations` has its
    /// own test.)
    fn smoke(name: &str) {
        let spec = workload::by_name(name).unwrap().smoke();
        for traced in [false, true] {
            let outcome = run_workload(&spec, 1, spec.interactions, traced, None);
            assert_eq!(outcome.mismatches, Vec::<String>::new());
            assert_eq!(outcome.failed, outcome.violations.len());
            assert!(outcome.attempted >= spec.interactions / 2);
            assert_eq!(outcome.values.len(), outcome.table.len());
            for m in &outcome.table {
                let v = outcome.values[&m.name];
                assert!(v.is_finite(), "{} = {v}", m.name);
            }
            let line = parse(&outcome.result_line()).expect("the result line is JSON");
            let correct = Json::Bool(outcome.violations.is_empty());
            assert_eq!(line.get("correct"), Some(&correct));
        }
    }

    #[test]
    fn solo_1m_runs_in_smoke_mode() {
        smoke("solo_1m");
    }

    #[test]
    fn crowd_50k_runs_in_smoke_mode() {
        smoke("crowd_50k");
    }

    #[test]
    fn append_live_200k_runs_in_smoke_mode() {
        smoke("append_live_200k");
    }

    #[test]
    fn join_explore_200k_runs_in_smoke_mode() {
        smoke("join_explore_200k");
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let a = parse_args(&args("--workload solo_1m --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.traced),
            ("solo_1m", 7, true)
        );
        assert_eq!(a.seconds, 10.0);
        let a = parse_args(&args("--workload all --smoke --repeat 3")).unwrap();
        assert_eq!(a.seconds, RUN_SECONDS);
        assert!(a.smoke && a.repeat == 3 && !a.traced);
        for bad in [
            "",
            "--seed 1",
            "--workload x --seed nope",
            "--workload x --seconds 0",
            "--workload x --interactions 50",
            "--workload x --trace 2",
            "--workload x --frobnicate",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
