//! # visdb-obs
//!
//! Lock-light telemetry for the VisDB engine: atomic [`Counter`]s and
//! [`Gauge`]s, fixed-bucket log-scale latency [`Histogram`]s with
//! p50/p90/p99 readout, and a [`Registry`] that snapshots every
//! registered metric into one deterministic, comparable [`Snapshot`]
//! (JSON-friendly integers plus a Prometheus-style text exposition for
//! the future HTTP transport).
//!
//! Design rules, in the `crates/compat` spirit of zero external
//! dependencies:
//!
//! * **Recording never locks.** Every write path is a handful of
//!   `Relaxed` atomic ops on pre-resolved `Arc` handles; the registry's
//!   mutex is touched only at registration and snapshot time. Hot loops
//!   hold an `Arc<Counter>`/`Arc<Histogram>` and pay one `fetch_add`
//!   (counters) or three (histograms) per event.
//! * **Fixed memory.** A histogram is 258 `AtomicU64`s — no resizing,
//!   no per-record allocation, no sampling reservoir.
//! * **Deterministic readout.** Snapshots carry integers only (counts,
//!   nanoseconds, bucket-upper-bound quantiles), sorted by metric name,
//!   so two snapshots of an idle registry are `==` and service tests can
//!   assert on them exactly.
//!
//! The histogram buckets are log-linear: 4 linear subdivisions per
//! octave (power of two), giving a worst-case quantile overestimate of
//! 25% across the full `u64` range — precise enough to tell a 100 µs
//! cache hit from a 10 ms recompute at every magnitude, in 2 KiB per
//! histogram.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of histogram buckets: values 1..=3 map to the first three
/// buckets, then 4 buckets per octave for exponents 2..=63, so the
/// largest reachable index is `3 + 61*4 + 3 = 250`.
const NUM_BUCKETS: usize = 251;

/// Linear subdivisions per octave (the log-linear "resolution"); bucket
/// relative width is `1/SUB` of the octave base, hence the ≤ 25%
/// quantile overestimate.
const SUB_BITS: u32 = 2; // 2^2 = 4 subdivisions

/// A monotonically increasing event counter (requests served, cache
/// hits, rows pruned). All operations are `Relaxed`: counters are
/// statistics, not synchronization.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (queue depth, live sessions, peak actives).
/// Signed so decrements racing past zero stay meaningful.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Set the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` to the level.
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Raise the level to `v` if above the current value (high-water
    /// marks like peak active workers).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log-linear latency histogram over `u64` values
/// (by convention: nanoseconds).
///
/// Buckets subdivide each power-of-two octave into 4 linear slices, so
/// every recorded value lands in a bucket whose upper bound is at most
/// 25% above it. Quantile readout returns that upper bound — a
/// deterministic integer, never an interpolation — so p50/p90/p99 are
/// comparable across snapshots and safe to gate on.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index of a value: `0..=2` hold 1, 2, 3 (and 0); from 4 on,
/// four buckets per octave keyed by the exponent and the next two
/// mantissa bits.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 4 {
        (v.max(1) - 1) as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let frac = (v >> (exp - SUB_BITS)) & 3;
        ((exp - SUB_BITS) * 4 + 3) as usize + frac as usize
    }
}

/// Inclusive upper bound of a bucket (the value quantile readout
/// reports). Saturates at `u64::MAX` for the top octave.
fn bucket_upper(idx: usize) -> u64 {
    if idx < 3 {
        return (idx + 1) as u64;
    }
    let exp = (idx - 3) as u32 / 4 + SUB_BITS;
    let frac = ((idx - 3) % 4) as u128;
    let upper = (1u128 << exp) + (frac + 1) * (1u128 << (exp - SUB_BITS)) - 1;
    upper.min(u64::MAX as u128) as u64
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one value (three `Relaxed` `fetch_add`s; no allocation).
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Total recorded events.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy with p50/p90/p99 computed from the bucket
    /// counts (self-consistent: the quantiles and `count` come from one
    /// pass over the same loaded bucket values).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut cum = 0u64;
            for (idx, &c) in buckets.iter().enumerate() {
                cum += c;
                if cum >= target {
                    return bucket_upper(idx);
                }
            }
            bucket_upper(NUM_BUCKETS - 1)
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

/// Integer-only point-in-time view of a [`Histogram`]. Quantiles are
/// bucket upper bounds (≤ 25% above the true value), in the recorded
/// unit (nanoseconds by convention).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Recorded events.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// 50th-percentile upper bound.
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean recorded value (integer division; 0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// One registered metric handle.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A name → metric map. Registration and snapshotting lock a mutex;
/// recording through the returned `Arc` handles never does. Names are
/// dotted paths by convention (`service.latency.summary`,
/// `cache.window.hits`); the Prometheus exposition rewrites the dots.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter registered under `name`, creating it on first use.
    /// A clash with a differently-typed metric replaces it.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        match inner.get(name) {
            Some(Metric::Counter(c)) => Arc::clone(c),
            _ => {
                let c = Arc::new(Counter::new());
                inner.insert(name.to_string(), Metric::Counter(Arc::clone(&c)));
                c
            }
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        match inner.get(name) {
            Some(Metric::Gauge(g)) => Arc::clone(g),
            _ => {
                let g = Arc::new(Gauge::new());
                inner.insert(name.to_string(), Metric::Gauge(Arc::clone(&g)));
                g
            }
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        match inner.get(name) {
            Some(Metric::Histogram(h)) => Arc::clone(h),
            _ => {
                let h = Arc::new(Histogram::new());
                inner.insert(name.to_string(), Metric::Histogram(Arc::clone(&h)));
                h
            }
        }
    }

    /// Register an externally-owned counter (a subsystem that keeps its
    /// own handle — e.g. the exec runtime's job counter) under `name`.
    pub fn register_counter(&self, name: &str, c: Arc<Counter>) {
        self.inner
            .lock()
            .expect("obs registry poisoned")
            .insert(name.to_string(), Metric::Counter(c));
    }

    /// Register an externally-owned gauge under `name`.
    pub fn register_gauge(&self, name: &str, g: Arc<Gauge>) {
        self.inner
            .lock()
            .expect("obs registry poisoned")
            .insert(name.to_string(), Metric::Gauge(g));
    }

    /// Register an externally-owned histogram under `name`.
    pub fn register_histogram(&self, name: &str, h: Arc<Histogram>) {
        self.inner
            .lock()
            .expect("obs registry poisoned")
            .insert(name.to_string(), Metric::Histogram(h));
    }

    /// A deterministic point-in-time view of every registered metric,
    /// sorted by name. Two snapshots of a quiescent registry are `==`.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("obs registry poisoned");
        Snapshot {
            entries: inner
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// One snapshotted metric value — integers only, so snapshots compare
/// exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current level.
    Gauge(i64),
    /// A histogram's count/sum/quantiles.
    Histogram(HistogramSnapshot),
}

/// A point-in-time view of a whole [`Registry`]: `(name, value)` pairs
/// sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// The metrics, ascending by name.
    pub entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// The value registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// The counter under `name`, if it is one.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The gauge under `name`, if it is one.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram under `name`, if it is one.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Prometheus-style text exposition (`# TYPE` lines, counters and
    /// gauges as plain samples, histograms as summaries with
    /// `quantile` labels plus `_sum`/`_count`). Dots and other
    /// non-identifier characters in metric names become underscores.
    pub fn prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in &self.entries {
            let name = sanitize_metric_name(name);
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} summary");
                    let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", h.p50);
                    let _ = writeln!(out, "{name}{{quantile=\"0.9\"}} {}", h.p90);
                    let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {}", h.p99);
                    let _ = writeln!(out, "{name}_sum {}", h.sum);
                    let _ = writeln!(out, "{name}_count {}", h.count);
                }
            }
        }
        out
    }
}

/// Rewrite a dotted metric path into the Prometheus identifier charset
/// (`[a-zA-Z0-9_:]`).
fn sanitize_metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(3);
        g.inc();
        g.dec();
        g.add(-5);
        assert_eq!(g.get(), -2);
        g.set_max(7);
        g.set_max(2);
        assert_eq!(g.get(), 7);
    }

    /// Every `u64` maps to a bucket whose bounds actually contain it,
    /// bucket indices are monotone in the value, and the upper bound
    /// overestimates by at most 25%.
    #[test]
    fn bucket_bounds_contain_and_bound_error() {
        // exhaustive over the small range, then probes around every
        // octave boundary across the full range
        let mut probes: Vec<u64> = (0..=4096).collect();
        for exp in 2..=63u32 {
            let base = 1u64 << exp;
            for d in [0u64, 1, 2, 3] {
                probes.push(base.saturating_sub(d));
                probes.push(base.saturating_add(d));
            }
            probes.push(base + (base >> 1));
            probes.push(base + (base >> 2) - 1);
        }
        probes.push(u64::MAX);
        for &v in &probes {
            let idx = bucket_index(v);
            let upper = bucket_upper(idx);
            assert!(v <= upper, "v={v} above its bucket upper {upper}");
            if idx > 0 {
                let below = bucket_upper(idx - 1);
                assert!(
                    v.max(1) > below,
                    "v={v} should be above the previous bucket's upper {below}"
                );
            }
            // ≤ 25% overestimate (the log-linear resolution guarantee)
            assert!(
                (upper as u128) * 4 <= (v.max(1) as u128) * 5,
                "v={v}: upper {upper} overestimates by more than 25%"
            );
        }
        // monotone: increasing values never decrease the bucket index
        for w in probes.windows(2) {
            if w[0] <= w[1] {
                assert!(bucket_index(w[0]) <= bucket_index(w[1]));
            }
        }
    }

    /// Quantile readout is bounded below by the true quantile and above
    /// by 1.25× it, for a known distribution.
    #[test]
    fn quantile_bounds() {
        let h = Histogram::new();
        // 1..=1000: true p50 = 500, p90 = 900, p99 = 990
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500500);
        for (q, truth) in [(s.p50, 500u64), (s.p90, 900), (s.p99, 990)] {
            assert!(q >= truth, "quantile {q} below true value {truth}");
            assert!(
                (q as u128) * 4 <= (truth as u128) * 5,
                "quantile {q} more than 25% above true value {truth}"
            );
        }
        assert_eq!(s.mean(), 500);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
    }

    /// Concurrent recording from many threads loses nothing: the final
    /// count/sum equal the arithmetic truth.
    #[test]
    fn concurrent_recording_is_lossless() {
        let h = Arc::new(Histogram::new());
        let c = Arc::new(Counter::new());
        let g = Arc::new(Gauge::new());
        let threads = 8;
        let per = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (h, c, g) = (Arc::clone(&h), Arc::clone(&c), Arc::clone(&g));
                std::thread::spawn(move || {
                    for i in 0..per {
                        h.record(t * per + i);
                        c.inc();
                        g.inc();
                        g.dec();
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, threads * per);
        let total: u64 = (0..threads * per).sum();
        assert_eq!(s.sum, total);
        assert_eq!(c.get(), threads * per);
        assert_eq!(g.get(), 0);
    }

    /// Two snapshots of an idle registry are identical, and entries are
    /// sorted by name regardless of registration order.
    #[test]
    fn snapshot_determinism_and_order() {
        let r = Arc::new(Registry::new());
        r.counter("z.last").inc();
        r.histogram("m.middle").record(42);
        r.gauge("a.first").set(-3);
        let s1 = r.snapshot();
        let s2 = r.snapshot();
        assert_eq!(s1, s2);
        let names: Vec<&str> = s1.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.first", "m.middle", "z.last"]);
        assert_eq!(s1.counter("z.last"), Some(1));
        assert_eq!(s1.gauge("a.first"), Some(-3));
        assert_eq!(s1.histogram("m.middle").map(|h| h.count), Some(1));
        assert_eq!(s1.get("missing"), None);
    }

    #[test]
    fn registry_handles_are_shared_and_registerable() {
        let r = Registry::new();
        let c1 = r.counter("x");
        let c2 = r.counter("x");
        c1.inc();
        c2.inc();
        assert_eq!(r.snapshot().counter("x"), Some(2));

        let external = Arc::new(Counter::new());
        external.add(7);
        r.register_counter("ext", Arc::clone(&external));
        assert_eq!(r.snapshot().counter("ext"), Some(7));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = Registry::new();
        r.counter("service.requests.summary").add(3);
        r.gauge("exec.queue_depth").set(2);
        r.histogram("service.latency.summary").record(1000);
        let text = r.snapshot().prometheus();
        assert!(text.contains("# TYPE service_requests_summary counter"));
        assert!(text.contains("service_requests_summary 3"));
        assert!(text.contains("# TYPE exec_queue_depth gauge"));
        assert!(text.contains("exec_queue_depth 2"));
        assert!(text.contains("# TYPE service_latency_summary summary"));
        assert!(text.contains("service_latency_summary{quantile=\"0.5\"}"));
        assert!(text.contains("service_latency_summary_count 1"));
    }
}
