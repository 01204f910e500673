//! A command-driven VisDB session — the headless stand-in for the
//! paper's interactive interface (§4.3).
//!
//! Reads commands from stdin (or runs a scripted demo with `--demo`):
//!
//! ```text
//! query SELECT * FROM Weather WHERE Temperature > 15
//! show                 # ASCII visualization
//! panel                # the modification panel numbers
//! range 0 10 30        # set window 0's predicate to BETWEEN 10 AND 30
//! weight 0 0.5         # set window 0's weight
//! percent 20           # display 20% of the data
//! select 123           # select tuple 123 (highlights + prints values)
//! colors 0 0 64        # project to the yellow..green band of window 0
//! auto off             # defer recalculation
//! recalc               # recalculate now
//! stats                # per-phase trace of the last pipeline run
//! quit
//! ```
//!
//! ```sh
//! cargo run --example interactive_repl -- --demo
//! echo "query SELECT * FROM Weather WHERE Humidity < 40\nshow" | \
//!   cargo run --example interactive_repl
//! ```

use std::io::BufRead;
use std::sync::Arc;

use visdb::prelude::*;
use visdb::render::ascii::to_ascii;

fn run_command(session: &mut Session, line: &str) -> Result<bool> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(true);
    }
    let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
    match cmd {
        "quit" | "exit" => return Ok(false),
        "query" => {
            session.set_query_text(rest)?;
            println!("ok: query installed");
        }
        "show" => {
            let fb = render_session(session, &RenderOptions::default())?;
            println!("{}", to_ascii(&fb, 76));
        }
        "panel" => println!("{}", session.panel()?),
        "range" => {
            let mut it = rest.split_whitespace();
            let idx: usize = it.next().and_then(|s| s.parse().ok()).ok_or_else(|| {
                Error::invalid_parameter("range", "usage: range <window> <low> <high>")
            })?;
            let low: f64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(f64::NAN);
            let high: f64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(f64::NAN);
            session.set_predicate_target(
                idx,
                PredicateTarget::Range {
                    low: Value::Float(low),
                    high: Value::Float(high),
                },
            )?;
            println!("ok: window {idx} range [{low}, {high}]");
        }
        "weight" => {
            let mut it = rest.split_whitespace();
            let idx: usize = it.next().and_then(|s| s.parse().ok()).unwrap_or(0);
            let w: f64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(1.0);
            session.set_weight(idx, w)?;
            println!("ok: window {idx} weight {w}");
        }
        "percent" => {
            let p: f64 = rest.trim().parse().map_err(|_| {
                Error::invalid_parameter("percent", "usage: percent <0..100>")
            })?;
            session.set_display_policy(DisplayPolicy::Percentage(p))?;
            println!("ok: displaying {p}% of the data");
        }
        "select" => {
            let item: usize = rest.trim().parse().map_err(|_| {
                Error::invalid_parameter("select", "usage: select <item>")
            })?;
            let row = session.select_tuple(item)?;
            let vals: Vec<String> = row.iter().map(ToString::to_string).collect();
            println!("selected tuple {item}: ({})", vals.join(", "));
        }
        "colors" => {
            let mut it = rest.split_whitespace();
            let idx: usize = it.next().and_then(|s| s.parse().ok()).unwrap_or(0);
            let lo: f64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
            let hi: f64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(255.0);
            let items = session.select_color_range(idx, lo, hi)?;
            println!("{} items in color range [{lo}, {hi}] of window {idx}", items.len());
        }
        "append" => {
            // append <table> <v1,v2,...> — grow the dataset in place;
            // the session rebases onto the new generation, whose table
            // carries its projections extended, not rebuilt
            let (tname, cells) = rest.split_once(' ').ok_or_else(|| {
                Error::invalid_parameter("append", "usage: append <table> <v1,v2,...>")
            })?;
            let tname = tname.trim();
            let row: Vec<Value> = {
                let table = session.db().table(tname)?;
                let schema = table.schema();
                let cells: Vec<&str> = cells.split(',').collect();
                if cells.len() != schema.columns().len() {
                    return Err(Error::invalid_parameter(
                        "append",
                        format!(
                            "expected {} cells for table '{tname}', got {}",
                            schema.columns().len(),
                            cells.len()
                        ),
                    ));
                }
                cells
                    .iter()
                    .zip(schema.columns())
                    .map(|(cell, col)| visdb::storage::csv::parse_cell(cell, col.data_type))
                    .collect::<Result<_>>()?
            };
            let mut db = session.db().clone();
            db.table_mut(tname)?.append_rows(vec![row])?;
            let total = db.total_rows();
            session.rebase(Arc::new(db), format!("repl#{total}"));
            println!("ok: appended 1 row to {tname} ({total} rows total)");
        }
        "auto" => {
            session.set_auto_recalculate(rest.trim() != "off");
            println!("ok: auto recalculate {}", rest.trim());
        }
        "recalc" => {
            session.recalculate()?;
            println!("ok: recalculated");
        }
        "stats" | ":stats" => {
            // turn trace collection on for this session (recomputing
            // once if the current result was produced untraced), then
            // read the paper's cost centers off the last pipeline run
            session.set_collect_trace(true);
            session.result()?;
            if let Some(t) = session.last_trace() {
                let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
                println!(
                    "pipeline trace: distance {:.3} ms | fit {:.3} ms | \
                     normalize+combine {:.3} ms | rank {:.3} ms",
                    ms(t.distance),
                    ms(t.fit),
                    ms(t.normalize_combine),
                    ms(t.rank),
                );
                println!(
                    "rows: {} scanned | windows: {} evaluated, \
                     {} cache hits, {} shared hits, {} of them refit",
                    t.rows_scanned,
                    t.windows_evaluated,
                    t.cache_hits,
                    t.shared_hits,
                    t.windows_refit,
                );
            } else {
                println!("no trace yet: install a query first");
            }
        }
        other => println!("unknown command '{other}' (try: query/show/panel/range/weight/percent/select/colors/auto/recalc/stats/quit)"),
    }
    Ok(true)
}

fn main() -> Result<()> {
    let env = generate_environmental(&EnvConfig {
        hours: 24 * 14,
        stations: 1,
        ..Default::default()
    });
    let mut session = Session::new(Arc::new(env.db), env.registry);
    session.set_window_size(32, 32)?;
    session.set_display_policy(DisplayPolicy::Percentage(30.0))?;
    println!("VisDB interactive session over the environmental database");
    println!("tables: Weather, Air-Pollution; type commands (or --demo):\n");

    if std::env::args().any(|a| a == "--demo") {
        for cmd in [
            "query SELECT Temperature, Humidity FROM Weather WHERE Temperature > 15 AND Humidity < 60",
            "panel",
            "show",
            "weight 1 0.3",
            "range 0 18 25",
            "panel",
            "stats",
            "quit",
        ] {
            println!("visdb> {cmd}");
            if let Err(e) = run_command(&mut session, cmd) {
                println!("error: {e}");
            }
        }
        return Ok(());
    }

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line?;
        match run_command(&mut session, &line) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => println!("error: {e}"),
        }
    }
    Ok(())
}
