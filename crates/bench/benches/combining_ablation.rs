//! DESIGN.md ablation 1: the paper's weighted arithmetic/geometric mean
//! combiners (§5.2) vs fuzzy-logic min/max alternatives — cost per item
//! at AND/OR fan-ins of 2, 4 and 8.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use visdb_relevance::combine::ablation;
use visdb_relevance::reference::{combine_and, combine_or};

const N: usize = 100_000;

fn children(fan_in: usize) -> (Vec<Vec<Option<f64>>>, Vec<f64>) {
    let cs: Vec<Vec<Option<f64>>> = (0..fan_in)
        .map(|k| (0..N).map(|i| Some(((i * (k + 3)) % 256) as f64)).collect())
        .collect();
    let ws = vec![1.0 / fan_in as f64; fan_in];
    (cs, ws)
}

fn combining(c: &mut Criterion) {
    let mut group = c.benchmark_group("combining_ablation");
    group.throughput(Throughput::Elements(N as u64));
    for fan_in in [2usize, 4, 8] {
        let (cs, ws) = children(fan_in);
        group.bench_with_input(
            BenchmarkId::new("and_weighted_mean", fan_in),
            &fan_in,
            |b, _| b.iter(|| combine_and(&cs, &ws).expect("combine").len()),
        );
        group.bench_with_input(
            BenchmarkId::new("or_geometric_mean", fan_in),
            &fan_in,
            |b, _| b.iter(|| combine_or(&cs, &ws).expect("combine").len()),
        );
        group.bench_with_input(
            BenchmarkId::new("and_fuzzy_max", fan_in),
            &fan_in,
            |b, _| b.iter(|| ablation::combine_and_max(&cs, &ws).expect("combine").len()),
        );
        group.bench_with_input(BenchmarkId::new("or_fuzzy_min", fan_in), &fan_in, |b, _| {
            b.iter(|| ablation::combine_or_min(&cs, &ws).expect("combine").len())
        });
    }
    group.finish();
}

criterion_group!(benches, combining);
criterion_main!(benches);
