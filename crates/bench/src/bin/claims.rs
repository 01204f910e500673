//! Print the measured series for the paper's quantitative claims
//! (C2, C3, C4, C5, C7 — see DESIGN.md §3; C1 and C6 are Criterion
//! benches). Output is recorded in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run -p visdb-bench --bin claims
//! ```

use visdb_baseline::{evaluate_boolean, hot_spot_ranks, kmeans};
use visdb_color::{count_jnds, Colormap, ColormapKind};
use visdb_core::materialize_base;
use visdb_data::{generate_environmental, generate_multidb, EnvConfig, MultiDbConfig};
use visdb_distance::DistanceResolver;
use visdb_query::ast::CompareOp;
use visdb_query::builder::QueryBuilder;
use visdb_relevance::pipeline::{run_pipeline, DisplayPolicy};
use visdb_relevance::quantile::quantile;
use visdb_relevance::reduction::gap_cutoff;
use visdb_types::Result;

fn c2_hot_spots() -> Result<()> {
    println!("== C2: approximate answers rescue NULL-result queries ==");
    let env = generate_environmental(&EnvConfig {
        hours: 24 * 30,
        stations: 1,
        ..Default::default()
    });
    let pollution = env.db.table("Air-Pollution")?;
    let q = QueryBuilder::from_tables(["Air-Pollution"])
        .cmp("Ozone", CompareOp::Gt, 1500.0)
        .build();
    let exact = evaluate_boolean(&env.db, pollution, &q.condition.as_ref().unwrap().node)?;
    let resolver = DistanceResolver::new();
    let out = run_pipeline(
        &env.db,
        pollution,
        &resolver,
        q.condition.as_ref(),
        &DisplayPolicy::Percentage(10.0),
    )?;
    let ranked: Vec<usize> = out.ranked().collect();
    let ranks = hot_spot_ranks(&ranked, &env.truth.hot_spot_rows);
    println!("  query: Ozone > 1500 over {} rows", pollution.len());
    println!(
        "  boolean baseline rows: {}",
        exact.iter().filter(|b| **b).count()
    );
    println!(
        "  visual-feedback ranks of {} planted hot spots: {:?}",
        env.truth.hot_spot_rows.len(),
        ranks
    );
    Ok(())
}

fn c3_clustering() -> Result<()> {
    println!("\n== C3: cluster analysis cannot find single hot spots ==");
    let env = generate_environmental(&EnvConfig {
        hours: 24 * 30,
        stations: 1,
        ..Default::default()
    });
    let pollution = env.db.table("Air-Pollution")?;
    let points: Vec<Vec<f64>> = (0..pollution.len())
        .map(|i| {
            (2..6)
                .map(|c| pollution.column(c).unwrap().get_f64(i).unwrap_or(0.0))
                .collect()
        })
        .collect();
    for k in [2, 3, 5, 8] {
        let km = kmeans(&points, k, 42, 100)?;
        let labels: Vec<usize> = env
            .truth
            .hot_spot_rows
            .iter()
            .map(|&i| km.assignments[i])
            .collect();
        let sizes: Vec<usize> = labels
            .iter()
            .map(|&l| km.assignments.iter().filter(|&&a| a == l).count())
            .collect();
        println!(
            "  k={k}: hot-spot cluster labels {labels:?} (cluster sizes {sizes:?}, {} iters) \
             -> labels only, no per-item ranking",
            km.iterations
        );
    }
    Ok(())
}

fn c4_jnds() {
    println!("\n== C4: colormap JNDs vs gray scale ==");
    for (name, kind) in [
        (
            "visdb (yellow->green->blue->red->black)",
            ColormapKind::VisDb,
        ),
        ("grayscale (white->black)", ColormapKind::Grayscale),
        ("heat (white->yellow->red->black)", ColormapKind::Heat),
    ] {
        let j = count_jnds(&Colormap::new(kind), 2048);
        println!("  {name}: {j:.0} JNDs");
    }
}

fn c5_approx_join() -> Result<()> {
    println!("\n== C5: approximate joins recover lost correspondences ==");
    let data = generate_multidb(&MultiDbConfig::default());
    let conn = data
        .registry
        .lookup("same-customer", "CustomersA", "CustomersB")?
        .clone()
        .instantiate(vec![])?;
    let query = QueryBuilder::from_tables(["CustomersA", "CustomersB"])
        .connect(conn)
        .build();
    let base = materialize_base(&data.db, &query, &Default::default())?;
    let exact = evaluate_boolean(&data.db, &base, &query.condition.as_ref().unwrap().node)?;
    let resolver = DistanceResolver::new();
    let out = run_pipeline(
        &data.db,
        &base,
        &resolver,
        query.condition.as_ref(),
        &DisplayPolicy::Percentage(10.0),
    )?;
    let m = data.db.table("CustomersB")?.len();
    let truth: Vec<usize> = data.pairs.iter().map(|&(i, j)| i * m + j).collect();
    let top: Vec<usize> = out.ranked().take(truth.len()).collect();
    let recovered = truth.iter().filter(|t| top.contains(t)).count();
    println!("  cross product: {} pairs", base.len());
    println!(
        "  exact equi-join matches: {}",
        exact.iter().filter(|b| **b).count()
    );
    println!(
        "  approximate join: {recovered}/{} true pairs in the top {}",
        truth.len(),
        truth.len()
    );

    // and the environmental time join (clock offset 600s)
    let env = generate_environmental(&EnvConfig {
        hours: 24 * 10,
        stations: 1,
        ..Default::default()
    });
    let conn = env
        .registry
        .lookup("at-same-time", "Air-Pollution", "Weather")?
        .clone()
        .instantiate(vec![])?;
    let query = QueryBuilder::from_tables(["Weather", "Air-Pollution"])
        .connect(conn)
        .build();
    let base = materialize_base(
        &env.db,
        &query,
        &visdb_core::JoinOptions {
            row_cap: 40_000,
            ..Default::default()
        },
    )?;
    let out = run_pipeline(
        &env.db,
        &base,
        &resolver,
        query.condition.as_ref(),
        &DisplayPolicy::Percentage(10.0),
    )?;
    // a connection window keeps its raw frame
    let best = (out.ranked().next()).and_then(|i| out.windows[0].raw_frame()?.get(i));
    println!(
        "  environmental at-same-time join: {} exact (clock offset), closest approximate pair \
         {:?} seconds apart",
        out.num_exact,
        best.map(f64::abs)
    );
    Ok(())
}

fn c7_reduction() -> Result<()> {
    println!("\n== C7: gap heuristic vs alpha-quantile on bimodal distances ==");
    use visdb_data::distributions::{mixture, rng};
    let mut r = rng(23);
    let mut d: Vec<f64> = (0..10_000)
        .map(|_| mixture(&mut r, 0.5, (30.0, 8.0), (500.0, 20.0)).max(0.0))
        .collect();
    d.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let q60 = quantile(&d, 0.6)?;
    let cut = gap_cutoff(&d, 1000, 9000, 50)?;
    let gap_dmax = d[cut];
    println!("  sorted distances: two groups near 30 and 500");
    println!("  alpha-quantile (p=0.6) display bound: {q60:.1}");
    println!("  gap-heuristic cut: item {cut} -> display bound {gap_dmax:.1}");
    println!(
        "  color resolution gain for the near group: {:.0}x",
        q60 / gap_dmax
    );
    Ok(())
}

fn main() -> Result<()> {
    c2_hot_spots()?;
    c3_clustering()?;
    c4_jnds();
    c5_approx_join()?;
    c7_reduction()?;
    Ok(())
}
