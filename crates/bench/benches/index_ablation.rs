//! DESIGN.md ablation 5: linear scan vs k-d tree vs grid file for the
//! multidimensional range queries the paper says 1994 DBMSs lacked (§6).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use visdb_bench::{random_points, GridFile, KdTree, LinearScan, RangeIndex};

fn index_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_ablation");
    for &n in &[10_000usize, 100_000] {
        let pts = random_points(n, 3, 5);
        let kd = KdTree::build(pts.clone()).expect("kdtree");
        let gf = GridFile::build(pts.clone(), 16).expect("gridfile");
        let ls = LinearScan::new(pts).expect("scan");
        // a selective box (~1% of the volume per dimension pair)
        let low = [100.0, 100.0, 100.0];
        let high = [250.0, 250.0, 250.0];
        group.bench_with_input(BenchmarkId::new("kdtree", n), &n, |b, _| {
            b.iter(|| kd.range_query(&low, &high).expect("query").len())
        });
        group.bench_with_input(BenchmarkId::new("gridfile", n), &n, |b, _| {
            b.iter(|| gf.range_query(&low, &high).expect("query").len())
        });
        group.bench_with_input(BenchmarkId::new("linear_scan", n), &n, |b, _| {
            b.iter(|| ls.range_query(&low, &high).expect("query").len())
        });
    }
    group.finish();
}

criterion_group!(benches, index_ablation);
criterion_main!(benches);
