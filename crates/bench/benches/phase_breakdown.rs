//! Claim C1, second half: "query processing time is dominated by the
//! time needed for sorting."
//!
//! Benchmarks each pipeline phase in isolation at n = 100k so the phase
//! shares can be compared: distance evaluation, normalization, AND
//! combining, the relevance sort, and the spiral arrangement.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use visdb_arrange::arrange_overall;
use visdb_bench::{ramp_db, three_predicate_query};
use visdb_distance::DistanceResolver;
use visdb_query::ast::{ConditionNode, Weighted};
use visdb_relevance::eval::{EvalContext, ExecMode};
use visdb_relevance::normalize::normalize_frame;
use visdb_relevance::reference::combine_and;

const N: usize = 100_000;

fn phases(c: &mut Criterion) {
    let db = ramp_db(N);
    let table = db.table("T").expect("table");
    let query = three_predicate_query(N);
    let resolver = DistanceResolver::new();
    let cond = query.condition.as_ref().expect("condition");
    let children: Vec<&Weighted> = match &cond.node {
        ConditionNode::And(cs) => cs.iter().collect(),
        _ => vec![cond],
    };
    let ctx = EvalContext {
        db: &db,
        table,
        resolver: &resolver,
        display_budget: N / 4,
        mode: ExecMode::Vectorized,
        partitions: None,
        cancel: None,
    };
    // pre-compute inputs for the later phases
    let evals: Vec<_> = children
        .iter()
        .map(|w| ctx.eval_node(&w.node).expect("eval"))
        .collect();
    let normed: Vec<Vec<Option<f64>>> = evals
        .iter()
        .zip(children.iter())
        .map(|(e, w)| {
            normalize_frame(&e.distances, &e.stats, w.weight, N / 4)
                .0
                .to_options()
        })
        .collect();
    let weights: Vec<f64> = children.iter().map(|w| w.weight).collect();
    let combined = combine_and(&normed, &weights).expect("combine");

    let mut group = c.benchmark_group("phase_breakdown");
    group.throughput(Throughput::Elements(N as u64));
    group.sample_size(20);

    group.bench_function("1_distance_eval", |b| {
        b.iter(|| {
            children
                .iter()
                .map(|w| ctx.eval_node(&w.node).expect("eval").distances.len())
                .sum::<usize>()
        })
    });
    group.bench_function("2_normalize", |b| {
        b.iter(|| {
            evals
                .iter()
                .zip(children.iter())
                .map(|(e, w)| {
                    normalize_frame(&e.distances, &e.stats, w.weight, N / 4)
                        .0
                        .len()
                })
                .sum::<usize>()
        })
    });
    group.bench_function("3_combine_and", |b| {
        b.iter(|| combine_and(&normed, &weights).expect("combine").len())
    });
    group.bench_function("4_relevance_sort", |b| {
        b.iter(|| {
            let mut order: Vec<usize> = (0..N).filter(|&i| combined[i].is_some()).collect();
            order.sort_by(|&a, &b| {
                combined[a]
                    .partial_cmp(&combined[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            order.len()
        })
    });
    let displayed: Vec<usize> = (0..N / 4).collect();
    group.bench_function("5_spiral_arrange", |b| {
        b.iter(|| arrange_overall(&displayed, 160, 160).occupied())
    });
    group.finish();
}

criterion_group!(benches, phases);
criterion_main!(benches);
