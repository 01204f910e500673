//! The paper's running example (§3, §4.1): mining an environmental
//! database for the time-lagged ozone correlation and for hot spots.
//!
//! Reproduces, end to end:
//! * the §4.1 query — `(Temperature > 15 OR Solar-Radiation > 600 OR
//!   Humidity < 60) AND Air-Pollution with-time-diff(7200) Weather` —
//!   entered through the mini-SQL front-end with a declared connection,
//! * the fig 4 visualization (overall + OR-part + connection windows),
//! * the fig 5 drill-down into the OR part,
//! * claim C2: a restrictive query returns **zero** exact rows under the
//!   boolean baseline, while the visual feedback query still surfaces the
//!   planted hot spots at the top of the relevance ranking.
//!
//! ```sh
//! cargo run --example environmental_mining
//! ```

use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;

use visdb::baseline::{evaluate_boolean, hot_spot_ranks};
use visdb::core::JoinOptions;
use visdb::prelude::*;
use visdb::query::printer::render_query;

fn main() -> Result<()> {
    let env = generate_environmental(&EnvConfig {
        hours: 24 * 30,
        stations: 1,
        ..Default::default()
    });
    let truth = env.truth.clone();
    // one shared handle; both sessions below reference the same dataset
    let db = Arc::new(env.db.clone());

    // ---- part 1: the §4.1 query through the SQL front-end --------------
    let query_text = "SELECT Temperature, Solar-Radiation, Humidity, Ozone \
         FROM Weather, Air-Pollution \
         WHERE (Temperature > 15 OR Solar-Radiation > 600 OR Humidity < 60) \
         AND CONNECT with-time-diff(7200) ON Air-Pollution, Weather";
    let query = parse_query(query_text, &env.registry)?;
    println!(
        "--- Query Representation (fig 3) ---\n{}",
        render_query(&query)
    );

    let mut session = Session::new(Arc::clone(&db), env.registry.clone());
    session.set_window_size(48, 48)?;
    session.set_display_policy(DisplayPolicy::Percentage(40.0))?;
    session.set_join_options(JoinOptions {
        row_cap: 60_000,
        ..Default::default()
    })?;
    session.set_query(query)?;

    let panel = session.panel()?;
    println!("--- Visualization & Modification panel (fig 4) ---\n{panel}");

    std::fs::create_dir_all("out")?;
    let fb = render_session(&mut session, &RenderOptions::default())?;
    write_ppm(
        &fb,
        BufWriter::new(File::create("out/environmental_fig4.ppm")?),
    )?;
    println!("wrote out/environmental_fig4.ppm");

    // ---- part 2: drill into the OR part (fig 5) ------------------------
    let view = session.drilldown(&[0], false)?;
    println!(
        "--- OR-part drill-down (fig 5): {} predicate windows, {} exact OR answers ---",
        view.pipeline.windows.len(),
        view.pipeline.num_exact
    );
    for w in &view.pipeline.windows {
        let exact = w.zero_raw_count();
        println!("  window [{}]: {exact} exact", w.label);
    }

    // ---- part 3: hot spots vs the boolean baseline (claim C2) ----------
    // A very restrictive query on ozone: nothing satisfies it exactly.
    let pollution = env.db.table("Air-Pollution")?;
    let hunt = QueryBuilder::from_tables(["Air-Pollution"])
        .cmp("Ozone", CompareOp::Gt, 1000.0)
        .build();
    let exact = evaluate_boolean(&env.db, pollution, &hunt.condition.as_ref().unwrap().node)?;
    let exact_count = exact.iter().filter(|b| **b).count();
    println!("\n--- hot-spot hunt: Ozone > 1000 ---");
    println!("boolean baseline returns {exact_count} rows (a NULL result)");

    let mut hunt_session = Session::new(Arc::clone(&db), env.registry.clone());
    hunt_session.set_display_policy(DisplayPolicy::Percentage(10.0))?;
    hunt_session.set_query(hunt)?;
    let res = hunt_session.result()?;
    let ranked: Vec<usize> = res.pipeline.ranked().collect();
    let ranks = hot_spot_ranks(&ranked, &truth.hot_spot_rows);
    println!(
        "visual feedback ranks the {} planted hot spots at positions {:?} of {} items",
        truth.hot_spot_rows.len(),
        ranks,
        res.pipeline.n
    );
    let top = truth.hot_spot_rows.len();
    let found = ranks.iter().flatten().filter(|&&r| r < top).count();
    println!("=> {found}/{top} hot spots are the top-{top} most relevant items");
    Ok(())
}
