//! Integration tests for the §4.3 interaction loop: sliders, weights,
//! percentage, color ranges, selections, auto-recalculate.

use std::sync::Arc;

use visdb::prelude::*;

fn ramp_session(n: usize) -> Session {
    let mut t = TableBuilder::new(
        "T",
        vec![
            Column::new("x", DataType::Float),
            Column::new("y", DataType::Float),
        ],
    );
    for i in 0..n {
        t = t
            .row(vec![Value::Float(i as f64), Value::Float((n - i) as f64)])
            .unwrap();
    }
    let mut db = Database::new("d");
    db.add_table(t.build());
    let mut s = Session::new(Arc::new(db), ConnectionRegistry::new());
    s.set_window_size(20, 20).unwrap();
    s.set_display_policy(DisplayPolicy::Percentage(100.0))
        .unwrap();
    s
}

#[test]
fn growing_the_query_range_grows_the_yellow_region() {
    // §4.3: "if the yellow region in the middle of each window is getting
    // larger ..., more ... data items fulfill the condition"
    let mut s = ramp_session(200);
    s.set_query(
        QueryBuilder::from_tables(["T"])
            .between("x", 90.0, 110.0)
            .build(),
    )
    .unwrap();
    let mut last = s.result().unwrap().pipeline.num_exact;
    for widen in [20.0, 40.0, 80.0] {
        s.set_predicate_target(
            0,
            PredicateTarget::Range {
                low: Value::Float(90.0 - widen),
                high: Value::Float(110.0 + widen),
            },
        )
        .unwrap();
        let now = s.result().unwrap().pipeline.num_exact;
        assert!(now > last, "yellow region must grow: {last} -> {now}");
        last = now;
    }
}

#[test]
fn percentage_slider_changes_normalization() {
    // "changing the percentage of data being displayed may completely
    // change the visualization since the distance values are normalized
    // according to the new range"
    let mut s = ramp_session(200);
    s.set_query(
        QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, 199.0)
            .build(),
    )
    .unwrap();
    s.set_display_policy(DisplayPolicy::Percentage(10.0))
        .unwrap();
    let narrow = s.result().unwrap().pipeline.windows[0].norm_params;
    s.set_display_policy(DisplayPolicy::Percentage(100.0))
        .unwrap();
    let wide = s.result().unwrap().pipeline.windows[0].norm_params;
    assert!(wide.dmax > narrow.dmax, "{wide:?} vs {narrow:?}");
}

#[test]
fn weights_shift_the_combined_ranking() {
    let mut s = ramp_session(100);
    // two competing predicates: x high, y high (y = 100 - x): items can't
    // satisfy both; weights decide which side dominates the ranking
    s.set_query(
        QueryBuilder::from_tables(["T"])
            .cmp_weighted("x", CompareOp::Ge, 100.0, 1.0)
            .cmp_weighted("y", CompareOp::Ge, 100.0, 1.0)
            .build(),
    )
    .unwrap();
    // heavily favour the x predicate
    s.set_weight(0, 1.0).unwrap();
    s.set_weight(1, 0.05).unwrap();
    let top_x = s.result().unwrap().pipeline.order[0];
    // now favour y
    s.set_weight(0, 0.05).unwrap();
    s.set_weight(1, 1.0).unwrap();
    let top_y = s.result().unwrap().pipeline.order[0];
    assert!(
        top_x > top_y,
        "x-heavy top {top_x} should be a high-x row, y-heavy {top_y} a low-x row"
    );
}

#[test]
fn auto_recalculate_off_keeps_stale_results() {
    let mut s = ramp_session(50);
    s.set_query(
        QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, 25.0)
            .build(),
    )
    .unwrap();
    assert_eq!(s.result().unwrap().pipeline.num_exact, 25);
    s.set_auto_recalculate(false);
    s.set_predicate_target(
        0,
        PredicateTarget::Compare {
            op: CompareOp::Ge,
            value: Value::Float(45.0),
        },
    )
    .unwrap();
    // stale until an explicit recalc
    assert!(s.cached_result().is_none());
    s.recalculate().unwrap();
    assert_eq!(s.cached_result().unwrap().pipeline.num_exact, 5);
}

#[test]
fn color_range_projection_is_consistent_across_windows() {
    // "In the other visualizations the same data items are displayed
    // allowing the user to easily compare the values" — the projected
    // item set is shared; window distances differ.
    let mut s = ramp_session(100);
    s.set_query(
        QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, 80.0)
            .cmp("y", CompareOp::Ge, 80.0)
            .build(),
    )
    .unwrap();
    let items = s.select_color_range(0, 0.0, 0.0).unwrap(); // exact on x
    assert!(!items.is_empty());
    // the windows' raw distances, re-derived where a window is its bits
    let (x, y) = (s.raw_distances(0).unwrap(), s.raw_distances(1).unwrap());
    for &i in &items {
        assert_eq!(x.get(i), Some(0.0));
        // the same items have *large* distances on the competing window
        assert!(y.get(i).unwrap() < 0.0);
    }
}

#[test]
fn selected_tuple_appears_in_every_window_render() {
    use visdb::core::{render_session, RenderOptions};
    let mut s = ramp_session(100);
    s.set_query(
        QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, 50.0)
            .cmp("y", CompareOp::Ge, 20.0)
            .build(),
    )
    .unwrap();
    let displayed0 = s.result().unwrap().pipeline.displayed[0];
    s.select_tuple(displayed0).unwrap();
    let fb = render_session(&mut s, &RenderOptions::default()).unwrap();
    // overall + 2 predicate windows -> 3 highlighted cells
    assert_eq!(fb.count_color(visdb::color::HIGHLIGHT), 3);
}

#[test]
fn gap_policy_in_a_session() {
    let mut s = ramp_session(400);
    s.set_display_policy(DisplayPolicy::GapHeuristic {
        rmin: 20,
        rmax: 350,
        z: 8,
    })
    .unwrap();
    s.set_query(
        QueryBuilder::from_tables(["T"])
            .cmp("x", CompareOp::Ge, 390.0)
            .build(),
    )
    .unwrap();
    let res = s.result().unwrap();
    assert!(!res.pipeline.displayed.is_empty());
    assert!(res.pipeline.displayed.len() <= 351);
}

#[test]
fn set_query_text_round_trip() {
    let mut s = ramp_session(10);
    s.set_query_text("SELECT x FROM T WHERE x BETWEEN 2 AND 4")
        .unwrap();
    assert_eq!(s.result().unwrap().pipeline.num_exact, 3);
    assert!(s.set_query_text("SELECT nope FROM T").is_err());
    assert!(s.set_query_text("garbage").is_err());
}
