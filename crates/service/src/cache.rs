//! The shared query-result cache.
//!
//! Identical renders from *different* users are the common case under
//! heavy traffic (everyone starts from the same default query of a
//! dashboard). The cache is keyed by the full visual input — dataset,
//! normalized query text and display parameters (see
//! [`crate::api::render_key`]) — and stores complete [`Response::Frame`]
//! values, so a hit skips the whole pipeline: materialisation, distance
//! passes, normalization, combining, sorting and rasterisation.
//!
//! Eviction is least-recently-used via a logical clock. Frame bytes are
//! `Arc`-shared, so hits hand out cheap clones.

use std::collections::HashMap;
use std::sync::Mutex;

use std::sync::Arc;

use visdb_index::{ProjectionSource, SortedProjection};
use visdb_obs::{Counter, Registry};
use visdb_relevance::{PredicateWindow, WindowRecipe, WindowSource};

use crate::api::Response;

/// Hit/miss counters for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Renders served from the cache.
    pub hits: usize,
    /// Renders that ran the pipeline.
    pub misses: usize,
}

/// Register a cache's live hit/miss counters under
/// `{prefix}.hits` / `{prefix}.misses`. The handles are shared, so the
/// registry observes every future lookup without polling.
fn register_hit_miss(
    registry: &Registry,
    prefix: &str,
    hits: &Arc<Counter>,
    misses: &Arc<Counter>,
) {
    registry.register_counter(&format!("{prefix}.hits"), Arc::clone(hits));
    registry.register_counter(&format!("{prefix}.misses"), Arc::clone(misses));
}

/// Whether a cache key's scope (`{name}#{generation}`, length-prefix
/// framed — see [`visdb_relevance::key_scope`]) belongs to dataset
/// `name`: the generation suffix is split off at the **last** `#` and
/// the name compared exactly.
fn scope_is_dataset(key: &str, name: &str) -> bool {
    visdb_relevance::key_scope(key)
        .and_then(|scope| scope.rsplit_once('#'))
        .is_some_and(|(scope_name, _)| scope_name == name)
}

struct Entry {
    response: Response,
    last_used: u64,
}

/// A bounded LRU map from render keys to finished responses.
pub struct QueryCache {
    entries: Mutex<(HashMap<String, Entry>, u64)>,
    capacity: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl QueryCache {
    /// Cache holding at most `capacity` responses; zero disables caching
    /// (every lookup misses, nothing is stored).
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            entries: Mutex::new((HashMap::new(), 0)),
            capacity,
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
        }
    }

    /// Publish this cache's live hit/miss counters into `registry` under
    /// `{prefix}.hits` / `{prefix}.misses`.
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        register_hit_miss(registry, prefix, &self.hits, &self.misses);
    }

    /// Whether lookups can ever succeed (capacity > 0). Callers skip
    /// key construction entirely for a disabled cache.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Look up a finished response, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<Response> {
        if self.capacity == 0 {
            self.misses.inc();
            return None;
        }
        let mut guard = match self.entries.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let (map, clock) = &mut *guard;
        *clock += 1;
        match map.get_mut(key) {
            Some(entry) => {
                entry.last_used = *clock;
                self.hits.inc();
                Some(entry.response.clone())
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Store a finished response, evicting the LRU entry at capacity.
    pub fn put(&self, key: String, response: Response) {
        if self.capacity == 0 {
            return;
        }
        let mut guard = match self.entries.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let (map, clock) = &mut *guard;
        *clock += 1;
        if map.len() >= self.capacity && !map.contains_key(&key) {
            if let Some(lru) = map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                map.remove(&lru);
            }
        }
        map.insert(
            key,
            Entry {
                response,
                last_used: *clock,
            },
        );
    }

    /// Drop every entry belonging to dataset `name` (any generation) —
    /// dataset re-registration invalidates that dataset's cached
    /// frames. The dataset is recovered from the key by parsing the
    /// length-prefixed scope ([`visdb_relevance::key_scope`]) and
    /// splitting off the service-appended `#generation` suffix, then
    /// compared **exactly**, so a crafted dataset name (e.g. `"env#1"`)
    /// can neither dodge its own invalidation nor trigger another
    /// dataset's.
    pub fn invalidate_dataset(&self, name: &str) {
        let mut guard = match self.entries.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.0.retain(|k, _| !scope_is_dataset(k, name));
    }

    /// Hit/miss counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get() as usize,
            misses: self.misses.get() as usize,
        }
    }

    /// Number of cached responses.
    pub fn len(&self) -> usize {
        match self.entries.lock() {
            Ok(g) => g.0.len(),
            Err(poisoned) => poisoned.into_inner().0.len(),
        }
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct WindowEntry {
    window: PredicateWindow,
    /// The append-extension recipe captured at evaluation time (None for
    /// window shapes that cannot be extended row-locally) — what lets a
    /// dataset append *grow* this entry instead of dropping it.
    recipe: Option<WindowRecipe>,
    rows: usize,
    last_used: u64,
}

/// The mutex-guarded state of a [`WindowCache`]. `total_rows` is
/// maintained incrementally on insert/remove so eviction never rescans
/// the whole map while holding the lock every query contends on.
#[derive(Default)]
struct WindowMap {
    map: HashMap<String, WindowEntry>,
    clock: u64,
    total_rows: usize,
}

impl WindowMap {
    fn insert(&mut self, key: String, entry: WindowEntry) {
        self.total_rows += entry.rows;
        if let Some(old) = self.map.insert(key, entry) {
            self.total_rows -= old.rows;
        }
    }

    fn remove(&mut self, key: &str) {
        if let Some(old) = self.map.remove(key) {
            self.total_rows -= old.rows;
        }
    }
}

/// The shared **predicate-window** cache: finer-grained than
/// [`QueryCache`], it caches one evaluated + normalized window per
/// condition subtree (keyed by `visdb_relevance::window_key`: dataset
/// generation, base relation, display budget and the rendered subtree —
/// not the weight: one entry per subtree, holding the latest stored
/// weight's normalization, whose raw frame a lookup under another weight
/// refits). Where the query cache only helps when the *entire* render
/// is identical, this cache makes a slider drag that changes one
/// predicate reuse every other window — across sessions, so one user's
/// drag is cheap for everyone (the §6 incremental idea, cross-session).
///
/// Window payloads are `Arc`-shared; hits hand out cheap clones.
/// Eviction is least-recently-used via a logical clock.
pub struct WindowCache {
    entries: Mutex<WindowMap>,
    capacity: usize,
    row_budget: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

/// Default bound on the *total rows* cached across all windows. Entry
/// count alone is no memory bound — one window over a 1M-row relation
/// holds two packed `DistanceFrame`s of that length (8-byte values plus
/// a byte validity mask, ~18 MB/window vs the ~32 MB the old
/// `Vec<Option<f64>>` pair cost) — so eviction also honours a row
/// budget: 8M rows ≈ 144 MB resident worst case, roughly half of what
/// the same budget pinned before the packed representation.
pub const DEFAULT_WINDOW_ROW_BUDGET: usize = 8_000_000;

impl WindowCache {
    /// Cache holding at most `capacity` windows (zero disables caching)
    /// and at most [`DEFAULT_WINDOW_ROW_BUDGET`] total rows.
    pub fn new(capacity: usize) -> Self {
        Self::with_row_budget(capacity, DEFAULT_WINDOW_ROW_BUDGET)
    }

    /// [`WindowCache::new`] with an explicit total-row budget. The most
    /// recently stored window is always retained (even alone over
    /// budget), so one giant relation degrades to single-window reuse
    /// rather than disabling the cache.
    pub fn with_row_budget(capacity: usize, row_budget: usize) -> Self {
        WindowCache {
            entries: Mutex::new(WindowMap::default()),
            capacity,
            row_budget,
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
        }
    }

    /// Publish this cache's live hit/miss counters into `registry` under
    /// `{prefix}.hits` / `{prefix}.misses`.
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        register_hit_miss(registry, prefix, &self.hits, &self.misses);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WindowMap> {
        match self.entries.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Whether lookups can ever succeed (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Drop every entry belonging to dataset `name`, any generation
    /// (exact-match semantics of [`QueryCache::invalidate_dataset`]) —
    /// dataset re-registration frees the replaced generation's windows;
    /// the generation-scoped keys already prevent stale hits.
    pub fn invalidate_dataset(&self, name: &str) {
        let mut guard = self.lock();
        let mut dropped = 0;
        guard.map.retain(|k, e| {
            let keep = !scope_is_dataset(k, name);
            if !keep {
                dropped += e.rows;
            }
            keep
        });
        guard.total_rows -= dropped;
    }

    /// Remove and return every entry belonging to dataset `name`, any
    /// generation — the delta-append migration path: the service drains
    /// the old generation's windows, extends the extendable ones with
    /// the appended rows, and re-stores them under the new generation's
    /// keys (see `Service::append_rows`).
    pub fn drain_dataset(
        &self,
        name: &str,
    ) -> Vec<(String, PredicateWindow, Option<WindowRecipe>)> {
        let mut guard = self.lock();
        let keys: Vec<String> = guard
            .map
            .keys()
            .filter(|k| scope_is_dataset(k, name))
            .cloned()
            .collect();
        let mut drained = Vec::with_capacity(keys.len());
        for key in keys {
            if let Some(entry) = guard.map.remove(&key) {
                guard.total_rows -= entry.rows;
                drained.push((key, entry.window, entry.recipe));
            }
        }
        drained
    }

    /// Hit/miss counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get() as usize,
            misses: self.misses.get() as usize,
        }
    }

    /// Number of cached windows.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl WindowSource for WindowCache {
    fn lookup(&self, key: &str) -> Option<PredicateWindow> {
        if self.capacity == 0 {
            self.misses.inc();
            return None;
        }
        let mut guard = self.lock();
        guard.clock += 1;
        let clock = guard.clock;
        match guard.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = clock;
                self.hits.inc();
                Some(entry.window.clone())
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    fn store(&self, key: String, window: PredicateWindow, recipe: Option<WindowRecipe>) {
        if self.capacity == 0 {
            return;
        }
        let mut guard = self.lock();
        guard.clock += 1;
        let clock = guard.clock;
        let rows = window.len();
        guard.insert(
            key,
            WindowEntry {
                window,
                recipe,
                rows,
                last_used: clock,
            },
        );
        // evict LRU entries until both the entry-count cap and the
        // total-row budget hold (the just-stored entry is never evicted);
        // `total_rows` is a running counter, so each round costs one
        // O(entries) LRU scan, not a full row re-sum
        while guard.map.len() > 1
            && (guard.map.len() > self.capacity || guard.total_rows > self.row_budget)
        {
            let lru = guard
                .map
                .iter()
                .filter(|(_, e)| e.last_used != clock)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match lru {
                Some(lru) => guard.remove(&lru),
                None => break,
            }
        }
    }
}

struct ProjectionEntry {
    projection: Arc<SortedProjection>,
    rows: usize,
    last_used: u64,
}

/// The mutex-guarded state of a [`ProjectionCache`]; `total_rows` is
/// maintained incrementally like [`WindowMap`]'s.
#[derive(Default)]
struct ProjectionMap {
    map: HashMap<String, ProjectionEntry>,
    clock: u64,
    total_rows: usize,
}

/// Default bound on the total rows cached across all shared projections:
/// a projection costs ~20 bytes/row (coords + permutation + sorted
/// values), so 8M rows ≈ 160 MB resident worst case.
pub const DEFAULT_PROJECTION_ROW_BUDGET: usize = 8_000_000;

/// The shared **sorted-projection** cache: one built
/// [`SortedProjection`] per (dataset generation, table, row count,
/// column), keyed by [`visdb_index::projection_key`]. The per-column
/// build is the expensive part of a cold drag and of a §4.4 join over
/// that column as its inner key (O(n log n), ~20 bytes/row); sharing it
/// means N sessions dragging or joining on the same column pay for
/// **one** build — the per-session state that remains is only the thin
/// §6 candidate-band cache.
///
/// Eviction is least-recently-used under both an entry cap and a
/// total-row budget; dataset re-registration drops the replaced
/// generation's projections (the generation-scoped keys already prevent
/// stale hits).
pub struct ProjectionCache {
    entries: Mutex<ProjectionMap>,
    capacity: usize,
    row_budget: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl ProjectionCache {
    /// Cache holding at most `capacity` projections (zero disables
    /// sharing) and at most [`DEFAULT_PROJECTION_ROW_BUDGET`] total rows.
    pub fn new(capacity: usize) -> Self {
        Self::with_row_budget(capacity, DEFAULT_PROJECTION_ROW_BUDGET)
    }

    /// [`ProjectionCache::new`] with an explicit total-row budget. The
    /// most recently stored projection is always retained, so one giant
    /// relation degrades to single-projection reuse rather than
    /// disabling the cache.
    pub fn with_row_budget(capacity: usize, row_budget: usize) -> Self {
        ProjectionCache {
            entries: Mutex::new(ProjectionMap::default()),
            capacity,
            row_budget,
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
        }
    }

    /// Publish this cache's live hit/miss counters into `registry` under
    /// `{prefix}.hits` / `{prefix}.misses`.
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        register_hit_miss(registry, prefix, &self.hits, &self.misses);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProjectionMap> {
        match self.entries.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Whether lookups can ever succeed (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Drop every projection belonging to dataset `name`, any generation
    /// (the exact-match semantics of
    /// [`QueryCache::invalidate_dataset`]) — generation rotation frees
    /// the replaced dataset's builds.
    pub fn invalidate_dataset(&self, name: &str) {
        let mut guard = self.lock();
        let mut dropped = 0;
        guard.map.retain(|k, e| {
            let keep = !scope_is_dataset(k, name);
            if !keep {
                dropped += e.rows;
            }
            keep
        });
        guard.total_rows -= dropped;
    }

    /// Remove and return every projection belonging to dataset `name`,
    /// any generation — the delta-append migration path: the service
    /// merges the appended rows into each drained build
    /// ([`SortedProjection::extended`]) and re-stores it under the new
    /// generation's key instead of paying a cold O(n log n) rebuild.
    pub fn drain_dataset(&self, name: &str) -> Vec<(String, Arc<SortedProjection>)> {
        let mut guard = self.lock();
        let keys: Vec<String> = guard
            .map
            .keys()
            .filter(|k| scope_is_dataset(k, name))
            .cloned()
            .collect();
        let mut drained = Vec::with_capacity(keys.len());
        for key in keys {
            if let Some(entry) = guard.map.remove(&key) {
                guard.total_rows -= entry.rows;
                drained.push((key, entry.projection));
            }
        }
        drained
    }

    /// Hit/miss counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get() as usize,
            misses: self.misses.get() as usize,
        }
    }

    /// Number of cached projections.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ProjectionSource for ProjectionCache {
    fn lookup(&self, key: &str) -> Option<Arc<SortedProjection>> {
        if self.capacity == 0 {
            self.misses.inc();
            return None;
        }
        let mut guard = self.lock();
        guard.clock += 1;
        let clock = guard.clock;
        match guard.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = clock;
                self.hits.inc();
                Some(Arc::clone(&entry.projection))
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    fn store(&self, key: String, projection: Arc<SortedProjection>) {
        if self.capacity == 0 {
            return;
        }
        let mut guard = self.lock();
        guard.clock += 1;
        let clock = guard.clock;
        let rows = projection.rows();
        guard.total_rows += rows;
        if let Some(old) = guard.map.insert(
            key,
            ProjectionEntry {
                projection,
                rows,
                last_used: clock,
            },
        ) {
            guard.total_rows -= old.rows;
        }
        // evict LRU entries until both bounds hold (never the entry
        // just stored)
        while guard.map.len() > 1
            && (guard.map.len() > self.capacity || guard.total_rows > self.row_budget)
        {
            let lru = guard
                .map
                .iter()
                .filter(|(_, e)| e.last_used != clock)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match lru {
                Some(lru) => {
                    if let Some(old) = guard.map.remove(&lru) {
                        guard.total_rows -= old.rows;
                    }
                }
                None => break,
            }
        }
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

    fn window_of(tag: f64, rows: usize) -> PredicateWindow {
        let (raw, stats) = DistanceFrame::constant(rows, tag);
        PredicateWindow::full(
            format!("w{tag}"),
            true,
            1.0,
            (Arc::new(raw), stats),
            Arc::new(DistanceFrame::from_options(&vec![Some(0.0); rows])),
            NormParams {
                dmin: 0.0,
                dmax: tag,
            },
        )
    }

    #[test]
    fn window_cache_hit_miss_and_lru() {
        let c = WindowCache::new(2);
        assert!(c.lookup("a").is_none());
        c.store("a".into(), window(1.0), None);
        c.store("b".into(), window(2.0), None);
        assert_eq!(c.lookup("a").unwrap().norm_params.dmax, 1.0);
        c.store("c".into(), window(3.0), None); // evicts b (LRU)
        assert_eq!(c.len(), 2);
        assert!(c.lookup("b").is_none());
        assert!(c.lookup("a").is_some());
        assert!(c.lookup("c").is_some());
        let stats = c.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn window_cache_row_budget_bounds_memory() {
        fn wide(tag: f64, rows: usize) -> PredicateWindow {
            window_of(tag, rows)
        }
        // budget of 100 rows: two 60-row windows cannot coexist
        let c = WindowCache::with_row_budget(8, 100);
        c.store("a".into(), wide(1.0, 60), None);
        c.store("b".into(), wide(2.0, 60), None);
        assert_eq!(c.len(), 1);
        assert!(c.lookup("a").is_none(), "LRU evicted for the row budget");
        assert!(c.lookup("b").is_some());
        // a single over-budget window is still retained (degrades to
        // single-window reuse, never disables the cache)
        c.store("huge".into(), wide(3.0, 1_000), None);
        assert_eq!(c.len(), 1);
        assert!(c.lookup("huge").is_some());
        // small windows accumulate up to the entry cap as before
        let c = WindowCache::with_row_budget(3, 100);
        for (i, key) in ["a", "b", "c", "d"].iter().enumerate() {
            c.store((*key).into(), wide(i as f64, 10), None);
        }
        assert_eq!(c.len(), 3);
        assert!(c.lookup("a").is_none());
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
        assert!(c.lookup(&scoped_key("env#2", "k1")).is_some());
        assert!(c.lookup(&scoped_key("ramp#1#7", "k1")).is_some());
        assert!(c.lookup(&scoped_key("evil#3", "ramp#1suffix")).is_some());

        let off = WindowCache::new(0);
        assert!(!off.is_enabled());
        off.store("x".into(), window(1.0), None);
        assert!(off.is_empty());
        assert!(off.lookup("x").is_none());
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
}
