//! Oversubscription regression tests: the service's global thread
//! budget must hold under many concurrent large queries.
//!
//! Before the shared runtime, every chunked pipeline walk spawned its
//! own scoped threads (up to min(16, cores)) *on top of* the service's
//! fixed worker pool, so N concurrent large queries could put
//! `workers × 16` threads in flight. Now dispatch and chunk fan-out
//! share one budgeted `visdb_exec::Runtime`: the runtime creates
//! exactly `workers` threads at startup and never more, and the peak
//! number of simultaneously *executing* workers can never exceed it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use visdb::prelude::*;

/// Process-wide thread count from `/proc/self/status` (`None` off
/// Linux). This observes threads the runtime's own counters cannot —
/// the exact blind spot a regression to per-walk scoped spawns would
/// hide in.
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Large enough that every query's chunk walks fan out
/// (`> PARALLEL_THRESHOLD = 32_768` rows); 1M rows under `--release`,
/// trimmed in debug builds so plain `cargo test` stays fast.
fn workload_rows() -> usize {
    if cfg!(debug_assertions) {
        150_000
    } else {
        1_000_000
    }
}

fn ramp_db(n: usize) -> Arc<Database> {
    let mut t = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
    for i in 0..n {
        t = t.row(vec![Value::Float(i as f64)]).unwrap();
    }
    let mut db = Database::new("ramp");
    db.add_table(t.build());
    Arc::new(db)
}

#[test]
fn concurrent_large_queries_respect_the_global_thread_budget() {
    const BUDGET: usize = 3;
    const CLIENTS: usize = 8;
    let rows = workload_rows();
    let db = ramp_db(rows);
    let service = Service::new(ServiceConfig {
        workers: BUDGET,
        ..Default::default()
    });
    service.register_dataset("ramp", Arc::clone(&db), ConnectionRegistry::new());
    assert_eq!(service.workers(), BUDGET);
    assert_eq!(service.runtime().budget(), BUDGET);
    assert_eq!(
        service.runtime().metrics().threads,
        BUDGET,
        "the runtime creates its threads eagerly and never more"
    );

    // Watch the *OS-level* thread count while the queries run: runtime
    // counters alone would stay green even if chunk walks regressed to
    // spawning scoped threads outside the pool, which is the exact
    // oversubscription this test guards against. Baseline (runtime
    // already up) + CLIENTS submitter threads + the sampler itself is
    // the ceiling; any spawn-per-walk regression bursts past it.
    let baseline = process_threads();
    let stop = AtomicBool::new(false);
    let sampled_max = AtomicUsize::new(0);

    // N concurrent sessions, each running a large two-predicate query:
    // every summary forces a full pipeline run whose distance /
    // normalize+combine walks fan out over the shared runtime
    let results: Vec<(usize, usize)> = std::thread::scope(|scope| {
        if baseline.is_some() {
            let (stop, sampled_max) = (&stop, &sampled_max);
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    if let Some(n) = process_threads() {
                        sampled_max.fetch_max(n, Ordering::AcqRel);
                    }
                    std::thread::yield_now();
                }
            });
        }
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let service = &service;
                scope.spawn(move || {
                    let id = service.create_session("ramp").expect("dataset registered");
                    let lo = (rows / 2 + c * 1000) as f64;
                    let hi = lo + (rows / 4) as f64;
                    let text = format!("SELECT * FROM T WHERE x >= {lo} AND x < {hi}");
                    service
                        .submit(id, Request::SetQueryText(text))
                        .expect("set query");
                    match service
                        .submit(id, Request::Summary { trace: false })
                        .expect("summary")
                    {
                        Response::Summary(s) => (s.objects, s.exact),
                        other => panic!("unexpected response {other:?}"),
                    }
                })
            })
            .collect();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        stop.store(true, Ordering::Release);
        results
    });

    // every query computed the right thing...
    for (c, &(objects, exact)) in results.iter().enumerate() {
        assert_eq!(objects, rows, "client {c}");
        // distance functions do not distinguish < from <=, so the
        // closed interval [lo, hi] is exact: rows/4 + 1 integer points
        assert_eq!(exact, rows / 4 + 1, "client {c}");
    }

    // ...and the budget held: no thread beyond the three created at
    // startup ever existed, and at no instant were more than BUDGET
    // workers executing
    let metrics = service.runtime().metrics();
    assert_eq!(metrics.threads, BUDGET);
    assert!(
        metrics.peak_active <= BUDGET,
        "peak {} live workers exceeds the budget {BUDGET}",
        metrics.peak_active
    );
    assert!(
        metrics.jobs_executed >= CLIENTS,
        "each session drain ran as a runtime job"
    );
    if let Some(baseline) = baseline {
        let ceiling = baseline + CLIENTS + 1; // submitters + the sampler
        let peak = sampled_max.load(Ordering::Acquire);
        assert!(
            peak <= ceiling,
            "process grew from {baseline} to {peak} threads mid-run (ceiling {ceiling}): \
             something is spawning outside the budgeted runtime"
        );
    }
}
