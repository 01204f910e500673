//! End-to-end integration tests: the paper's running example through the
//! whole stack (parser → joins → distances → relevance → arrangement).

use std::sync::Arc;

use visdb::core::JoinOptions;
use visdb::prelude::*;

fn env_session() -> (Session, visdb::data::environmental::GroundTruth) {
    let env = generate_environmental(&EnvConfig {
        hours: 24 * 10,
        stations: 1,
        ..Default::default()
    });
    let truth = env.truth.clone();
    let mut s = Session::new(Arc::new(env.db), env.registry);
    s.set_window_size(32, 32).unwrap();
    s.set_display_policy(DisplayPolicy::Percentage(30.0))
        .unwrap();
    s.set_join_options(JoinOptions {
        row_cap: 30_000,
        ..Default::default()
    })
    .unwrap();
    (s, truth)
}

const PAPER_QUERY: &str = "SELECT Temperature, Solar-Radiation, Humidity, Ozone \
     FROM Weather, Air-Pollution \
     WHERE (Temperature > 15 OR Solar-Radiation > 600 OR Humidity < 60) \
     AND CONNECT with-time-diff(7200) ON Air-Pollution, Weather";

#[test]
fn the_papers_example_query_runs_end_to_end() {
    let (mut s, _) = env_session();
    s.set_query_text(PAPER_QUERY).unwrap();
    let res = s.result().unwrap();
    // fig 4 layout: overall + 2 top-level windows (OR part, connection)
    assert_eq!(res.pipeline.windows.len(), 2);
    assert!(res.pipeline.windows[0].label.contains("OR"));
    assert!(res.pipeline.windows[1].label.contains("with-time-diff"));
    // items were materialised from a bounded cross product
    assert!(res.pipeline.n > 0 && res.pipeline.n <= 30_000);
    // something is displayed, nothing beyond the policy's 30%
    let frac = res.pipeline.displayed_fraction();
    assert!(frac > 0.0 && frac <= 0.31, "displayed fraction {frac}");
}

#[test]
fn order_is_sorted_by_combined_distance() {
    let (mut s, _) = env_session();
    s.set_query_text(PAPER_QUERY).unwrap();
    let res = s.result().unwrap();
    let c = &res.pipeline.combined;
    // the ranking (top-k selection) is monotone and covers the display
    // set; the remaining defined items are left unranked
    let ranked: Vec<usize> = res.pipeline.ranked().collect();
    assert!(ranked.len() >= res.pipeline.displayed.len());
    for w in ranked.windows(2) {
        assert!(c.get(w[0]) <= c.get(w[1]), "ranking not monotone");
    }
    // every unranked item really belongs after the ranking
    if let Some(&last) = ranked.last() {
        let mut is_ranked = vec![false; res.pipeline.n];
        for &i in &ranked {
            is_ranked[i] = true;
        }
        for i in (0..res.pipeline.n).filter(|&i| !is_ranked[i] && c.get(i).is_some()) {
            assert!(
                c.get(i) >= c.get(last),
                "unranked item {i} beats the ranking"
            );
        }
    }
    // displayed is a prefix of order
    assert_eq!(
        res.pipeline.displayed[..],
        ranked[..res.pipeline.displayed.len()]
    );
}

#[test]
fn window_positions_are_coherent() {
    // §4.2: "for every data item the colors ... are at the same relative
    // position in each of the windows" — our per-predicate windows reuse
    // the overall grid, so the same item id sits at the same cell.
    let (mut s, _) = env_session();
    s.set_query_text(PAPER_QUERY).unwrap();
    let res = s.result().unwrap();
    // rank 0 of the displayed list sits at the spiral center
    let (w, h) = (res.grid.width(), res.grid.height());
    let center_item = res.grid.get((w - 1) / 2, (h - 1) / 2);
    assert_eq!(
        center_item,
        res.pipeline.displayed.first().map(|&i| i as u32)
    );
}

#[test]
fn fig5_drilldown_matches_fig4_or_window() {
    // "the corresponding window (lower left of figure 4) is identical
    // with the upper left window of figure 5"
    let (mut s, _) = env_session();
    s.set_query_text(PAPER_QUERY).unwrap();
    let or_window_in_fig4 = s.raw_distances(0).unwrap();
    let view = s.drilldown(&[0], false).unwrap();
    // the drill-down's overall combined distances must rank items the
    // same way as the parent's OR window (same normalization budget)
    assert_eq!(view.pipeline.windows.len(), 3);
    // shared arrangement: identical grids
    assert_eq!(view.grid, s.result().unwrap().grid);
    // consistency: items exactly fulfilling the OR part in fig 4 are
    // exactly the items with combined distance 0 in the drill-down
    let fig4_exact: Vec<usize> = (0..or_window_in_fig4.len())
        .filter(|&i| or_window_in_fig4.get(i) == Some(0.0))
        .collect();
    let fig5_exact: Vec<usize> = (0..view.pipeline.combined.len())
        .filter(|&i| view.pipeline.combined.get(i) == Some(0.0))
        .collect();
    assert_eq!(fig4_exact, fig5_exact);
}

#[test]
fn approximate_join_rescues_equality_joins() {
    // §4.4 / claim C5: the clock offset breaks `at-same-time`, but the
    // with-time-diff connection still finds near partners.
    let (mut s, _) = env_session();
    s.set_query_text(
        "SELECT Ozone FROM Weather, Air-Pollution \
         WHERE CONNECT at-same-time ON Air-Pollution, Weather",
    )
    .unwrap();
    let exact = s.result().unwrap().pipeline.num_exact;
    assert_eq!(exact, 0, "clock offset must break exact joins");
    // the same join, approximately: plenty of near-zero distances exist
    let best = s.result().unwrap().pipeline.ranked().next().unwrap();
    let d = s.raw_distances(0).unwrap().get(best).unwrap().abs();
    assert!(d <= 600.0, "closest approximate pair is {d}s apart");
}

#[test]
fn hot_spots_surface_in_the_relevance_order() {
    // claim C2 at integration level
    let (_, _) = env_session();
    let env = generate_environmental(&EnvConfig {
        hours: 24 * 10,
        stations: 1,
        ..Default::default()
    });
    let truth = env.truth.clone();
    let mut s = Session::new(Arc::new(env.db), env.registry);
    s.set_query(
        QueryBuilder::from_tables(["Air-Pollution"])
            .cmp("Ozone", CompareOp::Gt, 2000.0)
            .build(),
    )
    .unwrap();
    let res = s.result().unwrap();
    assert_eq!(res.pipeline.num_exact, 0); // NULL result for the baseline
    let top: Vec<usize> = (res.pipeline.ranked())
        .take(truth.hot_spot_rows.len())
        .collect();
    for hs in &truth.hot_spot_rows {
        assert!(top.contains(hs), "hot spot {hs} not in top ranks {top:?}");
    }
}

#[test]
fn csv_round_trip_preserves_pipeline_results() {
    use visdb::storage::csv::{read_csv, write_csv};
    let env = generate_environmental(&EnvConfig {
        hours: 48,
        stations: 1,
        ..Default::default()
    });
    let w = env.db.table("Weather").unwrap();
    let mut buf = Vec::new();
    write_csv(w, &mut buf).unwrap();
    let back = read_csv("Weather", w.schema().clone(), buf.as_slice()).unwrap();
    assert_eq!(back.len(), w.len());
    // identical pipelines on original and round-tripped tables
    let resolver = DistanceResolver::new();
    let q = QueryBuilder::from_tables(["Weather"])
        .cmp("Temperature", CompareOp::Gt, 15.0)
        .build();
    let p1 = run_pipeline(
        &env.db,
        w,
        &resolver,
        q.condition.as_ref(),
        &DisplayPolicy::Percentage(50.0),
        PipelineOptions::default(),
    )
    .unwrap();
    let p2 = run_pipeline(
        &env.db,
        &back,
        &resolver,
        q.condition.as_ref(),
        &DisplayPolicy::Percentage(50.0),
        PipelineOptions::default(),
    )
    .unwrap();
    assert_eq!(p1.order, p2.order);
    assert_eq!(p1.num_exact, p2.num_exact);
}
