//! Claim C1: the pipeline scales as O(n log n).
//!
//! "For simple queries and standard distance functions the complexity is
//! O(n logn) with n being the number of data items." We measure the full
//! pipeline (distances + normalization + combining + sort + display
//! selection) over n = 10³..10⁶ and report throughput; near-constant
//! time-per-item (up to the log factor) is the expected shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use visdb_bench::{ramp_db, three_predicate_query};
use visdb_distance::DistanceResolver;
use visdb_relevance::pipeline::{run_pipeline, DisplayPolicy, PipelineOptions};

fn pipeline_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_scaling");
    for &n in &[1_000usize, 10_000, 100_000, 1_000_000] {
        let db = ramp_db(n);
        let table = db.table("T").expect("table");
        let query = three_predicate_query(n);
        let resolver = DistanceResolver::new();
        let policy = DisplayPolicy::Percentage(25.0);
        group.throughput(Throughput::Elements(n as u64));
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                run_pipeline(
                    &db,
                    table,
                    &resolver,
                    query.condition.as_ref(),
                    &policy,
                    PipelineOptions::default(),
                )
                .expect("pipeline")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, pipeline_scaling);
criterion_main!(benches);
