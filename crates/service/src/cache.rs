//! The two shared caches, one implementation.
//!
//! The serving layer reuses work across sessions at two grains, the
//! paper's §6 idea ("retrieve more than necessary, then only the
//! additional portion") applied across users:
//!
//! * [`QueryCache`] — finished [`Response::Frame`]s keyed by the full
//!   visual input ([`crate::api::render_key`]: dataset, normalized query
//!   text, display parameters). Identical renders from different users
//!   are the common case under heavy traffic (everyone starts from the
//!   same default query of a dashboard); a hit skips the whole pipeline.
//! * [`WindowCache`] — one evaluated window per condition subtree
//!   ([`visdb_relevance::window_key`]): its distance walk's stats, its
//!   latest fit, and its raw distance frame, its packed exact-answer bits
//!   or both — a window whose exact answers cover its fit (`dmax = 0`)
//!   is usually its bits alone; normalized distances are derived, not
//!   stored. A slider drag that changes one predicate reuses every
//!   *other* window, for everyone.
//!
//! (A column's sorted projection, which N sessions dragging or joining
//! on it share, is no cache entry: it is a pure function of the column
//! and lives on its table, [`visdb_storage::Table::projection`].)
//!
//! Both are [`Cache`] instantiated with a different payload, and
//! everything that is *policy* lives in that one type: least-recently-
//! used eviction by a logical clock under an entry cap and a total
//! weight budget, what zero capacity means, how a dataset's entries are
//! found for invalidation and append migration, and the hit/miss
//! counters. The payload only says what it weighs ([`Payload`]).
//! Payloads are `Arc`-shared inside, so hits hand out cheap clones.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use visdb_obs::{Counter, Registry};
use visdb_relevance::{PredicateWindow, WindowRecipe, WindowSource};

use crate::api::Response;

/// Hit/miss counters for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: usize,
    /// Lookups that found nothing (the caller ran the work).
    pub misses: usize,
}

/// Default bound on the total *heap bytes* cached across all windows
/// ([`PredicateWindow::heap_bytes`]). Entry count alone is no memory
/// bound, and neither is a row count: over a 1M-row relation a raw
/// window holds a packed `DistanceFrame` (8-byte values plus a byte
/// validity mask, 9 B/row) and at most two packed bit vectors (exact
/// answers and definedness, 1/8 B/row each) — ~9.25 MB — while a window
/// kept as its bits holds 125–250 KB. 74 MB is eight raw windows of 1M
/// rows, or hundreds of bits-only ones.
pub const DEFAULT_WINDOW_BYTE_BUDGET: usize = 74_000_000;

/// What a cached value weighs against its cache's budget.
pub trait Payload: Clone {
    /// Bound on the summed [`weight`](Payload::weight) of a cache of
    /// these values.
    const BUDGET: usize;

    /// This value's share of the budget.
    fn weight(&self) -> usize;
}

/// A finished response weighs nothing beyond its entry: the entry cap
/// alone bounds a [`QueryCache`].
impl Payload for Response {
    const BUDGET: usize = usize::MAX;

    fn weight(&self) -> usize {
        0
    }
}

/// A window weighs its heap bytes. The recipe beside it is the
/// append-extension recipe captured at evaluation time (`None` for
/// shapes that cannot be extended row-locally) — what lets a dataset
/// append *grow* the entry instead of dropping it.
impl Payload for (PredicateWindow, Option<WindowRecipe>) {
    const BUDGET: usize = DEFAULT_WINDOW_BYTE_BUDGET;

    fn weight(&self) -> usize {
        self.0.heap_bytes()
    }
}

/// The shared render cache: render keys to finished responses.
pub type QueryCache = Cache<Response>;

/// The shared **predicate-window** cache. The key carries dataset
/// generation, base relation, display budget and the rendered subtree —
/// not the weight: one entry per subtree, holding the latest stored
/// weight's normalization, which a lookup under another weight refits. A
/// window kept as its bits is a miss for a run that needs its raw frame.
/// Read through [`WindowSource`].
pub type WindowCache = Cache<(PredicateWindow, Option<WindowRecipe>)>;

struct Entry<P> {
    payload: P,
    weight: usize,
    last_used: u64,
}

/// The mutex-guarded state. `total_weight` is maintained on every
/// insert and removal, so eviction never re-sums the map while holding
/// the lock every query contends on.
struct State<P> {
    map: HashMap<String, Entry<P>>,
    clock: u64,
    total_weight: usize,
}

/// A bounded, weighted LRU map from canonical string keys to payloads,
/// safe to share across sessions.
///
/// Every key starts with a length-prefixed scope `{dataset}#{generation}`
/// ([`visdb_relevance::key_scope`]); the generation in it already keeps
/// a replaced dataset's entries from ever hitting, and the dataset in it
/// is what [`Cache::invalidate_dataset`] and [`Cache::drain_dataset`]
/// match on.
pub struct Cache<P> {
    state: Mutex<State<P>>,
    capacity: usize,
    budget: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl<P: Payload> Cache<P> {
    /// Cache holding at most `capacity` entries of at most
    /// [`Payload::BUDGET`] total weight. Zero capacity disables it:
    /// every lookup counts a miss and nothing is stored.
    pub fn new(capacity: usize) -> Self {
        Self::with_budget(capacity, P::BUDGET)
    }

    /// [`Cache::new`] under another weight budget (the budgets are
    /// constants; the unit tests shrink them).
    fn with_budget(capacity: usize, budget: usize) -> Self {
        Cache {
            state: Mutex::new(State {
                map: HashMap::new(),
                clock: 0,
                total_weight: 0,
            }),
            capacity,
            budget,
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
        }
    }

    /// Publish this cache's live hit/miss counters into `registry` under
    /// `{prefix}.hits` / `{prefix}.misses`. The handles are shared, so
    /// the registry observes every future lookup without polling.
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        registry.register_counter(&format!("{prefix}.hits"), Arc::clone(&self.hits));
        registry.register_counter(&format!("{prefix}.misses"), Arc::clone(&self.misses));
    }

    /// Whether lookups can ever succeed (capacity > 0). Callers skip
    /// key construction entirely for a disabled cache.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The state, recovered from a poisoned lock: no update below
    /// leaves an entry half-written, and the running weight is raised
    /// before an insert and lowered after a removal, so a holder that
    /// panicked can at worst have left it too high (evicting early).
    fn lock(&self) -> MutexGuard<'_, State<P>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look `key` up and return what `read` takes from the payload; a
    /// payload `read` takes nothing from counts as a miss. A hit
    /// refreshes the entry's recency.
    fn read<R>(&self, key: &str, read: impl FnOnce(&P) -> Option<R>) -> Option<R> {
        let found = (self.capacity > 0).then(|| {
            let mut state = self.lock();
            state.clock += 1;
            let now = state.clock;
            state.map.get_mut(key).and_then(|entry| {
                let got = read(&entry.payload)?;
                entry.last_used = now;
                Some(got)
            })
        });
        match found.flatten() {
            Some(got) => {
                self.hits.inc();
                Some(got)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Look up a payload, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<P> {
        self.read(key, |payload| Some(payload.clone()))
    }

    /// Store a payload (replacing the key's previous one), then evict
    /// least-recently-used entries until both the entry cap and the
    /// weight budget hold. The entry just stored is never evicted, even
    /// alone over budget: one giant relation degrades to single-entry
    /// reuse rather than disabling the cache.
    pub fn put(&self, key: String, payload: P) {
        if self.capacity == 0 {
            return;
        }
        let mut state = self.lock();
        state.clock += 1;
        let now = state.clock;
        let weight = payload.weight();
        state.total_weight += weight;
        let entry = Entry {
            payload,
            weight,
            last_used: now,
        };
        if let Some(old) = state.map.insert(key, entry) {
            state.total_weight -= old.weight;
        }
        // each round is one O(entries) scan for the oldest clock value;
        // only the entry just stored carries `now`
        while state.map.len() > 1
            && (state.map.len() > self.capacity || state.total_weight > self.budget)
        {
            let lru = state
                .map
                .iter()
                .filter(|(_, e)| e.last_used != now)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(old) = lru.and_then(|k| state.map.remove(&k)) else {
                break;
            };
            state.total_weight -= old.weight;
        }
    }

    /// Remove and return every entry belonging to dataset `name`, any
    /// generation — the delta-append migration path: the service drains
    /// the old generation's windows, extends them with
    /// the appended rows and re-stores them under the new generation's
    /// keys (see `Service::append_rows`).
    ///
    /// The dataset is recovered from the key by parsing the
    /// length-prefixed scope and splitting the service-appended
    /// `#generation` off at the **last** `#`, then compared **exactly**,
    /// so a crafted dataset name (e.g. `"env#1"`) can neither dodge its
    /// own invalidation nor trigger another dataset's.
    pub fn drain_dataset(&self, name: &str) -> Vec<(String, P)> {
        let mut state = self.lock();
        let mut freed = 0;
        let drained = state
            .map
            .extract_if(|key, _| {
                visdb_relevance::key_scope(key)
                    .and_then(|scope| scope.rsplit_once('#'))
                    .is_some_and(|(dataset, _)| dataset == name)
            })
            .map(|(key, entry)| {
                freed += entry.weight;
                (key, entry.payload)
            })
            .collect();
        state.total_weight -= freed;
        drained
    }

    /// Drop every entry belonging to dataset `name`, any generation
    /// (the exact matching of [`Cache::drain_dataset`]) — re-registration
    /// and chain compaction free the replaced dataset's artefacts.
    pub fn invalidate_dataset(&self, name: &str) {
        self.drain_dataset(name);
    }

    /// Hit/miss counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get() as usize,
            misses: self.misses.get() as usize,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl WindowSource for WindowCache {
    fn lookup(
        &self,
        key: &str,
        usable: &dyn Fn(&PredicateWindow) -> bool,
    ) -> Option<PredicateWindow> {
        self.read(key, |(window, _)| usable(window).then(|| window.clone()))
    }

    fn store(&self, key: String, window: PredicateWindow, recipe: Option<WindowRecipe>) {
        self.put(key, (window, recipe));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use visdb_relevance::{DistanceFrame, NormParams};

    fn window(tag: f64) -> PredicateWindow {
        window_of(tag, 1)
    }

    /// A window lookup that can use any entry.
    fn any(_: &PredicateWindow) -> bool {
        true
    }

    fn window_of(tag: f64, rows: usize) -> PredicateWindow {
        let (raw, stats) = DistanceFrame::constant(rows, tag);
        PredicateWindow::full(
            format!("w{tag}"),
            true,
            1.0,
            (Arc::new(raw), stats),
            NormParams {
                dmin: 0.0,
                dmax: tag,
            },
        )
    }

    #[test]
    fn window_cache_hit_miss_and_lru() {
        let c = WindowCache::new(2);
        assert!(c.lookup("a", &any).is_none());
        c.store("a".into(), window(1.0), None);
        c.store("b".into(), window(2.0), None);
        assert_eq!(c.lookup("a", &any).unwrap().norm_params.dmax, 1.0);
        c.store("c".into(), window(3.0), None); // evicts b (LRU)
        assert_eq!(c.len(), 2);
        assert!(c.lookup("b", &any).is_none());
        assert!(c.lookup("a", &any).is_some());
        assert!(c.lookup("c", &any).is_some());
        // an entry the caller cannot use is a miss, and stays cached
        assert!(c.lookup("a", &|w| w.norm_params.dmax > 1.0).is_none());
        assert_eq!(c.len(), 2);
        let stats = c.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 3);
    }

    /// The budget is heap bytes: a raw window of `rows` rows weighs 9 B a
    /// row, one kept as its exact bits a bit a row.
    #[test]
    fn window_cache_byte_budget_bounds_memory() {
        let wide = |tag: f64, rows: usize| window_of(tag, rows);
        let weight = |rows: usize| (wide(0.0, rows), None).weight();
        assert_eq!(weight(60), 9 * 60);
        // budget of 100 rows' bytes: two 60-row windows cannot coexist
        let c = WindowCache::with_budget(8, weight(100));
        c.store("a".into(), wide(1.0, 60), None);
        c.store("b".into(), wide(2.0, 60), None);
        assert_eq!(c.len(), 1);
        assert!(
            c.lookup("a", &any).is_none(),
            "LRU evicted for the byte budget"
        );
        assert!(c.lookup("b", &any).is_some());
        // a single over-budget window is still retained (degrades to
        // single-window reuse, never disables the cache)
        c.store("huge".into(), wide(3.0, 1_000), None);
        assert_eq!(c.len(), 1);
        assert!(c.lookup("huge", &any).is_some());
        // small windows accumulate up to the entry cap as before
        let c = WindowCache::with_budget(3, weight(100));
        for (i, key) in ["a", "b", "c", "d"].iter().enumerate() {
            c.store((*key).into(), wide(i as f64, 10), None);
        }
        assert_eq!(c.len(), 3);
        assert!(c.lookup("a", &any).is_none());
        // a window kept as its bits weighs them: sixteen of 6 400 rows
        // fit in the bytes of one raw window of 1 600
        let bits_only = bits_only_window(6_400);
        assert!(bits_only.raw_frame().is_none());
        assert_eq!((bits_only.clone(), None).weight(), 6_400 / 8);
        let c = WindowCache::with_budget(32, weight(1_600));
        for i in 0..16 {
            c.store(format!("k{i}"), bits_only.clone(), None);
        }
        assert_eq!(c.len(), 16);
    }

    /// A window of `n` rows whose exact answers (half of them) cover its
    /// fit (1 %), as a session's run keeps it: its exact bits, every row
    /// defined.
    fn bits_only_window(n: usize) -> PredicateWindow {
        use visdb_query::connection::ConnectionRegistry;
        use visdb_relevance::DisplayPolicy;
        use visdb_storage::{Database, TableBuilder};
        use visdb_types::{Column, DataType, Value};
        let mut t = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
        for i in 0..n {
            t = t.row(vec![Value::Float(i as f64)]).unwrap();
        }
        let mut db = Database::new("d");
        db.add_table(t.build());
        let mut s = visdb_core::Session::new(Arc::new(db), ConnectionRegistry::new());
        s.set_display_policy(DisplayPolicy::Percentage(1.0))
            .unwrap();
        let half = n / 2;
        s.set_query_text(&format!("SELECT * FROM T WHERE x >= {half}"))
            .unwrap();
        s.result().unwrap().pipeline.windows[0].clone()
    }

    /// A key framed the way `visdb_relevance::window_key` frames scopes:
    /// `len:scope` followed by the rest.
    fn scoped_key(scope: &str, rest: &str) -> String {
        format!("{}:{scope}{rest}", scope.len())
    }

    #[test]
    fn window_cache_dataset_invalidation_and_disable() {
        let c = WindowCache::new(8);
        c.store(scoped_key("ramp#1", "k1"), window(1.0), None);
        c.store(scoped_key("ramp#1", "k2"), window(2.0), None);
        c.store(scoped_key("env#2", "k1"), window(3.0), None);
        // crafted dataset names are matched exactly, never by raw key
        // or scope prefix: a dataset literally named "ramp#1" (scope
        // "ramp#1#7") and one whose key merely *contains* the bytes
        // both survive dataset "ramp"'s invalidation
        c.store(scoped_key("ramp#1#7", "k1"), window(4.0), None);
        c.store(scoped_key("evil#3", "ramp#1suffix"), window(5.0), None);
        c.invalidate_dataset("ramp");
        assert_eq!(c.len(), 3);
        assert!(c.lookup(&scoped_key("env#2", "k1"), &any).is_some());
        assert!(c.lookup(&scoped_key("ramp#1#7", "k1"), &any).is_some());
        assert!(c
            .lookup(&scoped_key("evil#3", "ramp#1suffix"), &any)
            .is_some());

        let off = WindowCache::new(0);
        assert!(!off.is_enabled());
        off.store("x".into(), window(1.0), None);
        assert!(off.is_empty());
        assert!(off.lookup("x", &any).is_none());
    }

    #[test]
    fn hit_after_put() {
        let c = QueryCache::new(4);
        assert_eq!(c.get("k"), None);
        c.put("k".into(), Response::Ok);
        assert_eq!(c.get("k"), Some(Response::Ok));
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let c = QueryCache::new(2);
        c.put("a".into(), Response::Ok);
        c.put("b".into(), Response::Ok);
        assert!(c.get("a").is_some()); // refresh a; b becomes LRU
        c.put("c".into(), Response::Ok);
        assert_eq!(c.len(), 2);
        assert!(c.get("b").is_none(), "LRU entry must be evicted");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let c = QueryCache::new(2);
        c.put("a".into(), Response::Ok);
        c.put("b".into(), Response::Ok);
        c.put(
            "a".into(),
            Response::error(crate::api::ErrorKind::Internal, "new"),
        );
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.get("a"),
            Some(Response::error(crate::api::ErrorKind::Internal, "new"))
        );
        assert!(c.get("b").is_some());
    }

    #[test]
    fn dataset_invalidation_scopes_to_one_dataset() {
        let c = QueryCache::new(8);
        c.put(scoped_key("env#1", "\u{1f}q1"), Response::Ok);
        c.put(scoped_key("env#1", "\u{1f}q2"), Response::Ok);
        c.put(scoped_key("ramp#2", "\u{1f}q1"), Response::Ok);
        // a *distinct* dataset named "env#1" (scope "env#1#3") is not
        // collateral damage of reloading dataset "env"
        c.put(scoped_key("env#1#3", "\u{1f}q1"), Response::Ok);
        c.invalidate_dataset("env");
        assert_eq!(c.len(), 2);
        assert!(c.get(&scoped_key("env#1", "\u{1f}q1")).is_none());
        assert!(c.get(&scoped_key("ramp#2", "\u{1f}q1")).is_some());
        assert!(c.get(&scoped_key("env#1#3", "\u{1f}q1")).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = QueryCache::new(0);
        c.put("a".into(), Response::Ok);
        assert!(c.is_empty());
        assert_eq!(c.get("a"), None);
        assert_eq!(c.stats().hits, 0);
    }

    /// The running weight, checked against a re-sum of the entries.
    fn weight<P: Payload>(c: &Cache<P>) -> usize {
        let state = c.lock();
        let resummed: usize = state.map.values().map(|e| e.weight).sum();
        assert_eq!(state.total_weight, resummed, "running weight drifted");
        resummed
    }

    /// The shared policy, run against one instantiation; `make(rows)`
    /// builds a payload of that many rows (a response weighs 0 whatever
    /// it is asked for, so the budget rows apply to windows alone).
    fn policy<P: Payload>(what: &str, make: impl Fn(usize) -> P) {
        let weight_of = |rows| make(rows).weight();
        // LRU order: a lookup refreshes, the stalest entry goes
        let c = Cache::<P>::new(2);
        assert!(c.get("a").is_none(), "{what}");
        c.put("a".into(), make(1));
        c.put("b".into(), make(1));
        assert!(c.get("a").is_some(), "{what}");
        c.put("c".into(), make(1));
        assert_eq!(c.len(), 2, "{what}");
        assert!(c.get("b").is_none(), "{what}: LRU entry must be evicted");
        assert!(c.get("a").is_some() && c.get("c").is_some(), "{what}");
        assert_eq!(c.stats(), CacheStats { hits: 3, misses: 2 }, "{what}");

        // replacing a key at capacity evicts nothing and re-weighs it
        c.put("a".into(), make(7));
        assert_eq!(c.len(), 2, "{what}");
        assert!(c.get("a").is_some() && c.get("c").is_some(), "{what}");
        assert_eq!(weight(&c), weight_of(7) + weight_of(1), "{what}");

        // weight budget (bytes for windows): LRU
        // entries go until the total fits, but never the entry just
        // stored — not even alone over budget
        if weight_of(60) > 0 {
            let c = Cache::<P>::with_budget(8, weight_of(100));
            c.put("a".into(), make(60));
            c.put("b".into(), make(30));
            c.put("c".into(), make(60));
            assert!(c.get("a").is_none(), "{what}: LRU evicted for the budget");
            assert!(c.get("b").is_some() && c.get("c").is_some(), "{what}");
            assert_eq!(weight(&c), weight_of(30) + weight_of(60), "{what}");
            c.put("huge".into(), make(1_000));
            assert_eq!((c.len(), weight(&c)), (1, weight_of(1_000)), "{what}");
            assert!(c.get("huge").is_some(), "{what}");
        }

        // zero capacity: lookups count misses, stores are no-ops
        let off = Cache::<P>::new(0);
        assert!(!off.is_enabled(), "{what}");
        off.put("x".into(), make(1));
        assert!(off.is_empty() && off.get("x").is_none(), "{what}");
        assert_eq!(off.stats(), CacheStats { hits: 0, misses: 1 }, "{what}");

        // dataset matching is exact: a dataset literally named "ramp#1"
        // (scope "ramp#1#7") and a key that merely *contains* the bytes
        // are not dataset "ramp"
        let fill = || {
            let c = Cache::<P>::new(8);
            c.put(scoped_key("ramp#1", "k1"), make(2));
            c.put(scoped_key("ramp#2", "k2"), make(3));
            c.put(scoped_key("env#2", "k1"), make(5));
            c.put(scoped_key("ramp#1#7", "k1"), make(7));
            c.put(scoped_key("evil#3", "ramp#1suffix"), make(11));
            c
        };
        let others = weight_of(5) + weight_of(7) + weight_of(11);
        let survivors = [
            scoped_key("env#2", "k1"),
            scoped_key("ramp#1#7", "k1"),
            scoped_key("evil#3", "ramp#1suffix"),
        ];
        let c = fill();
        c.invalidate_dataset("ramp");
        assert_eq!((c.len(), weight(&c)), (3, others), "{what}");
        assert!(survivors.iter().all(|k| c.get(k).is_some()), "{what}");

        // drain hands back exactly that dataset's entries
        let c = fill();
        let mut drained = c.drain_dataset("ramp");
        drained.sort_by(|a, b| a.0.cmp(&b.0));
        let drained: Vec<(String, usize)> =
            drained.into_iter().map(|(k, p)| (k, p.weight())).collect();
        let expected = vec![
            (scoped_key("ramp#1", "k1"), weight_of(2)),
            (scoped_key("ramp#2", "k2"), weight_of(3)),
        ];
        assert_eq!(drained, expected, "{what}");
        assert_eq!((c.len(), weight(&c)), (3, others), "{what}");
        assert!(survivors.iter().all(|k| c.get(k).is_some()), "{what}");
        assert!(c.drain_dataset("ramp").is_empty(), "{what}");
    }

    #[test]
    fn one_policy_for_both_instantiations() {
        policy("query", |_| Response::Ok);
        policy("window", |rows| (window_of(1.0, rows), None));
    }

    /// Eight threads store, look up and invalidate overlapping keys at
    /// once; the barrier makes them start together. Whatever the
    /// interleaving, the bounds hold at the end and every lookup was
    /// counted exactly once.
    #[test]
    fn concurrent_stores_and_lookups_keep_the_bounds() {
        const THREADS: usize = 8;
        const OPS: usize = 400;
        let budget = (window_of(0.0, 100), None).weight();
        let c = WindowCache::with_budget(6, budget);
        let entries: Vec<_> = (0..16)
            .map(|i| {
                let scope = if i % 2 == 0 { "a#1" } else { "b#1" };
                (
                    scoped_key(scope, &format!("k{i}")),
                    window_of(1.0, 5 + 3 * i),
                )
            })
            .collect();
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (c, entries, barrier) = (&c, &entries, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for op in 0..OPS {
                        let (key, payload) = &entries[(op / 4 + t) % entries.len()];
                        if c.lookup(key, &any).is_none() {
                            c.store(key.clone(), payload.clone(), None);
                        }
                        if op % 50 == t {
                            c.invalidate_dataset("b");
                        }
                    }
                });
            }
        });
        assert!(c.len() <= 6);
        assert!(weight(&c) <= budget || c.len() == 1);
        let stats = c.stats();
        assert_eq!(stats.hits + stats.misses, THREADS * OPS);
    }
}
