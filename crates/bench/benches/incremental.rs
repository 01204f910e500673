//! Claim C6: incremental recalculation (§6) — "retrieve more data than
//! necessary in the beginning and ... retrieve only the additional
//! portion of the data that is needed for a slightly modified query".
//!
//! Two levels:
//!
//! 1. **Retrieval level** ([`visdb_bench::IncrementalCache`]): a cold
//!    range query vs a cached slider nudge. The cache pays off exactly in
//!    the paper's situation — the backing store is a *linear scan* (1994
//!    DBMSs had no multidimensional index, §6). Over our own k-d tree the
//!    cold query is already near-optimal, so the same comparison is
//!    included as an honest negative control.
//! 2. **Pipeline level** ([`visdb_relevance::PipelineCache`]): a full
//!    3-predicate recalculation vs one where a single slider moved and
//!    the other two windows are reused.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use visdb_bench::{
    ramp_db, random_points, three_predicate_query, IncrementalCache, KdTree, LinearScan, RangeIndex,
};
use visdb_distance::DistanceResolver;
use visdb_query::ast::{AttrRef, CompareOp, ConditionNode, Predicate, Weighted};
use visdb_relevance::cache::PipelineCache;
use visdb_relevance::pipeline::{run_pipeline, DisplayPolicy, PipelineOptions};

fn retrieval_level(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_retrieval");
    let n = 100_000usize;
    let pts = random_points(n, 2, 9);

    // the 1994 situation: linear scan as the only retrieval path
    let ls = LinearScan::new(pts.clone()).expect("scan");
    group.bench_with_input(BenchmarkId::new("cold_linear_scan", n), &n, |b, _| {
        let mut shift = 0.0;
        b.iter(|| {
            shift = (shift + 1.0) % 50.0;
            ls.range_query(&[200.0 + shift, 200.0], &[400.0 + shift, 400.0])
                .expect("query")
                .len()
        })
    });
    group.bench_with_input(BenchmarkId::new("cached_nudge_over_scan", n), &n, |b, _| {
        let ls2 = LinearScan::new(pts.clone()).expect("scan");
        let mut cache = IncrementalCache::new(ls2, 0.5);
        cache
            .range_query(&[200.0, 200.0], &[400.0, 400.0])
            .expect("warmup");
        let mut shift = 0.0;
        b.iter(|| {
            shift = (shift + 1.0) % 50.0;
            cache
                .range_query(&[200.0 + shift, 200.0], &[400.0 + shift, 400.0])
                .expect("query")
                .len()
        })
    });

    // negative control: over a k-d tree the cold query is already fast
    let kd = KdTree::build(pts.clone()).expect("kdtree");
    group.bench_with_input(BenchmarkId::new("cold_kdtree", n), &n, |b, _| {
        let mut shift = 0.0;
        b.iter(|| {
            shift = (shift + 1.0) % 50.0;
            kd.range_query(&[200.0 + shift, 200.0], &[400.0 + shift, 400.0])
                .expect("query")
                .len()
        })
    });
    group.bench_with_input(
        BenchmarkId::new("cached_nudge_over_kdtree", n),
        &n,
        |b, _| {
            let kd2 = KdTree::build(pts.clone()).expect("kdtree");
            let mut cache = IncrementalCache::new(kd2, 0.5);
            cache
                .range_query(&[200.0, 200.0], &[400.0, 400.0])
                .expect("warmup");
            let mut shift = 0.0;
            b.iter(|| {
                shift = (shift + 1.0) % 50.0;
                cache
                    .range_query(&[200.0 + shift, 200.0], &[400.0 + shift, 400.0])
                    .expect("query")
                    .len()
            })
        },
    );
    group.finish();
}

fn pipeline_level(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_pipeline");
    group.sample_size(20);
    let n = 100_000usize;
    let db = ramp_db(n);
    let table = db.table("T").expect("table");
    let resolver = DistanceResolver::new();
    let policy = DisplayPolicy::Percentage(25.0);
    let base_query = three_predicate_query(n);

    group.bench_function("full_recalculation", |b| {
        b.iter(|| {
            run_pipeline(
                &db,
                table,
                &resolver,
                base_query.condition.as_ref(),
                &policy,
                PipelineOptions::default(),
            )
            .expect("pipeline")
            .num_exact
        })
    });
    group.bench_function("one_slider_moved_cached", |b| {
        // warm the cache with the base query, then alternate the first
        // predicate's threshold: two of three windows are always reused
        let mut cache = PipelineCache::new();
        run_pipeline(
            &db,
            table,
            &resolver,
            base_query.condition.as_ref(),
            &policy,
            PipelineOptions {
                cache: Some(&mut cache),
                ..Default::default()
            },
        )
        .expect("warmup");
        let mut toggle = false;
        b.iter(|| {
            toggle = !toggle;
            let threshold = if toggle { 0.89 } else { 0.91 } * n as f64;
            let mut q = base_query.clone();
            if let Some(w) = &mut q.condition {
                if let ConditionNode::And(children) = &mut w.node {
                    children[0] = Weighted::unit(ConditionNode::Predicate(Predicate::compare(
                        AttrRef::new("x"),
                        CompareOp::Ge,
                        threshold,
                    )));
                }
            }
            run_pipeline(
                &db,
                table,
                &resolver,
                q.condition.as_ref(),
                &policy,
                PipelineOptions {
                    cache: Some(&mut cache),
                    ..Default::default()
                },
            )
            .expect("pipeline")
            .num_exact
        })
    });
    group.finish();
}

criterion_group!(benches, retrieval_level, pipeline_level);
criterion_main!(benches);
