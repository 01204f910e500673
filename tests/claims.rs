//! Integration tests for the paper's quantitative claims (DESIGN.md §3).

use visdb::baseline::{evaluate_boolean, hot_spot_ranks, kmeans, smallest_cluster_size};
use visdb::color::{count_jnds, Colormap, ColormapKind};
use visdb::prelude::*;

/// Claim C2: approximate answers rescue NULL-result queries and surface
/// single-item hot spots that boolean queries cannot.
#[test]
fn c2_null_results_become_ranked_answers() {
    let env = generate_environmental(&EnvConfig {
        hours: 24 * 14,
        stations: 1,
        ..Default::default()
    });
    let pollution = env.db.table("Air-Pollution").unwrap();
    let q = QueryBuilder::from_tables(["Air-Pollution"])
        .cmp("Ozone", CompareOp::Gt, 1500.0)
        .build();
    // boolean: NULL result
    let exact = evaluate_boolean(&env.db, pollution, &q.condition.as_ref().unwrap().node).unwrap();
    assert_eq!(exact.iter().filter(|b| **b).count(), 0);
    // visual feedback: hot spots are the top-ranked items
    let resolver = DistanceResolver::new();
    let out = run_pipeline(
        &env.db,
        pollution,
        &resolver,
        q.condition.as_ref(),
        &DisplayPolicy::Percentage(10.0),
        PipelineOptions::default(),
    )
    .unwrap();
    let ranked: Vec<usize> = out.ranked().collect();
    let ranks = hot_spot_ranks(&ranked, &env.truth.hot_spot_rows);
    for r in &ranks {
        assert!(r.unwrap() < env.truth.hot_spot_rows.len());
    }
}

/// Claim C3: cluster analysis "does not help to find single exceptional
/// data". k-means (even with k-means++ seeding, which gladly spends a
/// centroid on an outlier group) can only assign *labels*: all planted
/// hot spots land in the same cluster, indistinguishable from each other
/// and unranked. The relevance pipeline instead ranks each one
/// individually at the very top.
#[test]
fn c3_cluster_analysis_cannot_isolate_hot_spots() {
    let env = generate_environmental(&EnvConfig {
        hours: 24 * 14,
        stations: 1,
        hot_spots: 3,
        ..Default::default()
    });
    let pollution = env.db.table("Air-Pollution").unwrap();
    let hot = env.truth.hot_spot_rows.clone();
    // feature matrix: all four pollutant columns
    let points: Vec<Vec<f64>> = (0..pollution.len())
        .map(|i| {
            (2..6)
                .map(|c| pollution.column(c).unwrap().get_f64(i).unwrap_or(0.0))
                .collect()
        })
        .collect();
    let km = kmeans(&points, 3, 42, 100).unwrap();
    // every hot spot carries the same label: clustering cannot tell the
    // exceptional items apart, let alone rank them
    let labels: Vec<usize> = hot.iter().map(|&i| km.assignments[i]).collect();
    assert!(
        labels.windows(2).all(|w| w[0] == w[1]),
        "hot spots scattered across clusters: {labels:?}"
    );
    assert!(smallest_cluster_size(&km.assignments, 3) >= 1);

    // the relevance ranking separates and ranks them: top-3, in order of
    // their individual ozone extremity
    let resolver = DistanceResolver::new();
    let q = QueryBuilder::from_tables(["Air-Pollution"])
        .cmp("Ozone", CompareOp::Gt, 10_000.0)
        .build();
    let out = run_pipeline(
        &env.db,
        pollution,
        &resolver,
        q.condition.as_ref(),
        &DisplayPolicy::Percentage(5.0),
        PipelineOptions::default(),
    )
    .unwrap();
    for h in &hot {
        let rank = out.rank_of(*h).unwrap();
        assert!(rank < hot.len(), "hot spot {h} ranked {rank}");
    }
    // and the ranking is a strict order (distinct relevance values)
    let top: Vec<f64> = (out.ranked().take(hot.len()))
        .map(|i| out.combined.get(i).unwrap())
        .collect();
    assert_eq!(top.len(), hot.len());
    assert!(top.windows(2).all(|w| w[0] <= w[1]));
}

/// Claim C4: the VisDB colormap offers far more JNDs than gray scale.
#[test]
fn c4_colormap_has_more_jnds_than_grayscale() {
    let visdb = count_jnds(&Colormap::new(ColormapKind::VisDb), 1024);
    let gray = count_jnds(&Colormap::new(ColormapKind::Grayscale), 1024);
    assert!(visdb > gray * 1.5, "visdb {visdb:.0} vs gray {gray:.0}");
    // and the heat alternative sits in between or above gray too
    let heat = count_jnds(&Colormap::new(ColormapKind::Heat), 1024);
    assert!(heat > gray * 0.8);
}

/// Claim C5: approximate string joins recover multi-database
/// correspondences that equality joins lose.
#[test]
fn c5_approximate_join_recovers_correspondences() {
    let data = generate_multidb(&MultiDbConfig {
        customers: 40,
        unmatched_per_side: 10,
        ..Default::default()
    });
    let conn = data
        .registry
        .lookup("same-customer", "CustomersA", "CustomersB")
        .unwrap()
        .clone()
        .instantiate(vec![])
        .unwrap();
    let query = QueryBuilder::from_tables(["CustomersA", "CustomersB"])
        .connect(conn)
        .build();
    let base = visdb::core::materialize_base(&data.db, &query, &Default::default()).unwrap();
    // equality join: nothing
    let exact = evaluate_boolean(&data.db, &base, &query.condition.as_ref().unwrap().node).unwrap();
    assert_eq!(exact.iter().filter(|b| **b).count(), 0);
    // approximate: most true pairs in the top |pairs| ranks
    let resolver = DistanceResolver::new();
    let out = run_pipeline(
        &data.db,
        &base,
        &resolver,
        query.condition.as_ref(),
        &DisplayPolicy::Percentage(10.0),
        PipelineOptions::default(),
    )
    .unwrap();
    let m = data.db.table("CustomersB").unwrap().len();
    let truth: Vec<usize> = data.pairs.iter().map(|&(i, j)| i * m + j).collect();
    let top: Vec<usize> = out.ranked().take(truth.len()).collect();
    let recovered = truth.iter().filter(|t| top.contains(t)).count();
    assert!(
        recovered * 100 >= truth.len() * 75,
        "only {recovered}/{} correspondences recovered",
        truth.len()
    );
}

/// Claim C7: on a two-group distance distribution (fig 2b) the gap
/// heuristic cuts at the gap, spending the color scale on the near group,
/// while the raw α-quantile mixes both groups.
#[test]
fn c7_gap_heuristic_beats_alpha_quantile_on_bimodal_data() {
    use visdb::relevance::{gap_cutoff, quantile};
    // sorted distances: 200 near (0..20), 200 far (1000..1020)
    let mut d: Vec<f64> = (0..200).map(|i| i as f64 * 0.1).collect();
    d.extend((0..200).map(|i| 1000.0 + i as f64 * 0.1));
    // α-quantile for displaying 75% of the data reaches deep into the far
    // group: the normalization range is then ~1000 wide and the near
    // group collapses onto a handful of colors
    let q75 = quantile(&d, 0.75).unwrap();
    assert!(q75 >= 1000.0);
    // the gap heuristic cuts at the boundary
    let cut = gap_cutoff(&d, 50, 350, 10).unwrap();
    assert!((190..=210).contains(&cut), "cut at {cut}");
    // color resolution for the near group: range under gap cut is ~20
    // wide vs ~1010 under the quantile cut — a 50x improvement
    let gap_range = d[cut];
    assert!(gap_range < 25.0);
    assert!(q75 / gap_range > 40.0);
}

/// The CAD near-miss scenario (§4.5): fixed allowances lose parts that
/// fail a single parameter; the ranking surfaces them right behind the
/// exact matches.
#[test]
fn c2b_near_miss_parts_rank_directly_after_exact_matches() {
    let cad = generate_cad(&CadConfig {
        clusters: 3,
        parts_per_cluster: 20,
        near_misses_per_cluster: 1,
        random_parts: 100,
        ..Default::default()
    });
    let proto = cad.prototypes[0].clone();
    let mut qb = QueryBuilder::from_tables(["Parts"]);
    for (p, &target) in proto.iter().enumerate() {
        qb = qb.around(format!("p{p:02}"), target, 3.0);
    }
    let q = qb.build();
    let parts = cad.db.table("Parts").unwrap();
    let exact = evaluate_boolean(&cad.db, parts, &q.condition.as_ref().unwrap().node).unwrap();
    let near_miss_row = cad.near_misses.iter().find(|(_, c, _)| *c == 0).unwrap().0;
    assert!(!exact[near_miss_row], "baseline should miss the near-miss");
    let resolver = DistanceResolver::new();
    let out = run_pipeline(
        &cad.db,
        parts,
        &resolver,
        q.condition.as_ref(),
        &DisplayPolicy::Percentage(30.0),
        PipelineOptions::default(),
    )
    .unwrap();
    let rank = out.rank_of(near_miss_row).unwrap();
    let exact_count = exact.iter().filter(|b| **b).count();
    assert!(
        rank <= exact_count + 3,
        "near-miss rank {rank}, exact matches {exact_count}"
    );
}

/// Spatial approximate join (§4.4, `with-distance(m)`): sites paired at
/// 400 m rank as the closest station/site pairs, and an exact
/// `at-same-location` join (radius 0) finds nothing.
#[test]
fn c5b_spatial_join_ranks_paired_sites_first() {
    let geo = generate_geographic(&GeoConfig {
        stations: 9,
        paired_sites: 9,
        scattered_sites: 40,
        pair_distance_m: 400.0,
        ..Default::default()
    });
    let near = geo
        .registry
        .lookup("near", "Stations", "Sites")
        .unwrap()
        .clone();
    // radius 0: the exact at-same-location join fails
    let q0 = QueryBuilder::from_tables(["Stations", "Sites"])
        .connect(near.instantiate(vec![0.0]).unwrap())
        .build();
    let base = visdb::core::materialize_base(&geo.db, &q0, &Default::default()).unwrap();
    let resolver = DistanceResolver::new();
    let out = run_pipeline(
        &geo.db,
        &base,
        &resolver,
        q0.condition.as_ref(),
        &DisplayPolicy::Percentage(10.0),
        PipelineOptions::default(),
    )
    .unwrap();
    assert_eq!(out.num_exact, 0);
    // the paired sites are the closest approximate partners
    let m = geo.db.table("Sites").unwrap().len();
    let truth: Vec<usize> = geo.pairs.iter().map(|&(s, t)| s * m + t).collect();
    let top: Vec<usize> = out.ranked().take(truth.len()).collect();
    let recovered = truth.iter().filter(|t| top.contains(t)).count();
    assert_eq!(recovered, truth.len(), "top pairs {top:?}");
    // radius 500 m: the paired pixels become exact (yellow)
    let q500 = QueryBuilder::from_tables(["Stations", "Sites"])
        .connect(near.instantiate(vec![500.0]).unwrap())
        .build();
    let out = run_pipeline(
        &geo.db,
        &base,
        &resolver,
        q500.condition.as_ref(),
        &DisplayPolicy::Percentage(10.0),
        PipelineOptions::default(),
    )
    .unwrap();
    assert_eq!(out.num_exact, truth.len());
}
