//! Session bookkeeping: IDs, lookup, mailboxes, and the LRU /
//! idle-eviction policy.
//!
//! The manager owns every live session as an [`Arc<SessionSlot>`]. A slot
//! bundles the session state with a FIFO *mailbox* and a `scheduled`
//! flag: the service's worker pool schedules a slot at most once at a
//! time and drains its mailbox in order, so requests *within* one session
//! apply in submission order while distinct sessions proceed in parallel
//! — the paper's single-user recalculation loop, multiplexed.
//!
//! Eviction only unlinks a slot from the table: a worker still draining
//! the mailbox holds its own `Arc`, finishes the in-flight requests
//! against the detached state, and later submissions get an
//! unknown-session error.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use visdb_core::Session;
use visdb_exec::CancelToken;
use visdb_obs::{Counter, Gauge, Registry};
use visdb_query::connection::ConnectionRegistry;
use visdb_storage::Database;

use crate::api::{Request, Response, SessionState};

/// Opaque handle to a live session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// One queued request and where to deliver its response.
pub struct Envelope {
    /// The request to execute.
    pub request: Request,
    /// Reply channel (a dropped receiver just discards the response).
    pub reply: Sender<Response>,
    /// Deadline/cancellation token minted at admission (`None` for
    /// plain submissions — the pipeline then skips its per-chunk polls).
    pub token: Option<CancelToken>,
    /// `(session id, request id)` under which the token is registered in
    /// the service's in-flight table, for cleanup after execution.
    pub inflight_key: Option<(u64, u64)>,
}

/// A live session plus its scheduling state.
pub struct SessionSlot {
    /// The session state; locked by the one worker draining the mailbox.
    pub state: Mutex<SessionState>,
    /// FIFO queue of not-yet-executed requests.
    pub mailbox: Mutex<VecDeque<Envelope>>,
    /// Whether the slot is currently queued for (or being drained by) a
    /// worker. Guards against double-scheduling.
    pub scheduled: AtomicBool,
}

impl SessionSlot {
    /// Whether a worker is draining (or queued to drain) this slot, or
    /// requests are still waiting in its mailbox. Busy slots are exempt
    /// from the idle sweep and deprioritized by capacity eviction: a
    /// session with a query mid-execution must drain before it can be
    /// reaped, or waiting submitters would observe their session vanish
    /// underneath an in-flight request.
    pub fn busy(&self) -> bool {
        if self.scheduled.load(Ordering::SeqCst) {
            return true;
        }
        match self.mailbox.lock() {
            Ok(m) => !m.is_empty(),
            Err(poisoned) => !poisoned.into_inner().is_empty(),
        }
    }
}

/// Per-session wiring handed to [`SessionManager::create`]: the shared
/// caches (scoped to one dataset generation) and the execution knobs.
/// Defaults to no shared caches, untraced.
#[derive(Default)]
pub struct SessionOptions {
    /// The service's shared predicate-window cache, if enabled.
    pub windows: Option<Arc<crate::cache::WindowCache>>,
    /// Collect a per-phase pipeline trace on every recalculation (see
    /// [`visdb_core::Session::set_collect_trace`]). The service enables
    /// this so `trace: true` requests and the per-phase latency
    /// histograms have data; the overhead is a handful of clock reads
    /// per full pipeline run.
    pub collect_trace: bool,
}

struct TableEntry {
    slot: Arc<SessionSlot>,
    last_used: Instant,
}

struct Table {
    entries: HashMap<u64, TableEntry>,
    next_id: u64,
}

/// Creates, resolves and evicts sessions.
pub struct SessionManager {
    table: Mutex<Table>,
    max_sessions: usize,
    idle_timeout: Duration,
    /// Live session count, kept in sync with the table so a registry
    /// snapshot never has to take the table lock.
    live: Arc<Gauge>,
    created: Arc<Counter>,
    /// Sessions dropped by LRU capacity pressure or the idle sweep
    /// (explicit [`SessionManager::remove`] closes are not evictions).
    evicted: Arc<Counter>,
}

impl SessionManager {
    /// Manager holding at most `max_sessions` (≥ 1) live sessions, with
    /// sessions idle longer than `idle_timeout` eligible for eviction.
    pub fn new(max_sessions: usize, idle_timeout: Duration) -> Self {
        SessionManager {
            table: Mutex::new(Table {
                entries: HashMap::new(),
                next_id: 1,
            }),
            max_sessions: max_sessions.max(1),
            idle_timeout,
            live: Arc::new(Gauge::new()),
            created: Arc::new(Counter::new()),
            evicted: Arc::new(Counter::new()),
        }
    }

    /// Publish the manager's live occupancy metrics into `registry`:
    /// `service.sessions.live` (gauge), `service.sessions.created` and
    /// `service.sessions.evicted` (counters).
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_gauge("service.sessions.live", Arc::clone(&self.live));
        registry.register_counter("service.sessions.created", Arc::clone(&self.created));
        registry.register_counter("service.sessions.evicted", Arc::clone(&self.evicted));
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        // a poisoned table only means a panic mid-insert/remove; the map
        // itself is still structurally sound
        match self.table.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Create a session over a shared database. When the manager is at
    /// capacity the least-recently-used session is evicted first.
    /// `options` carries the shared caches (scoped to the dataset
    /// generation the session was created over) and the execution knobs
    /// — outputs are bit-identical under every combination.
    pub fn create(
        &self,
        dataset: impl Into<String>,
        db: Arc<Database>,
        registry: ConnectionRegistry,
        options: SessionOptions,
    ) -> SessionId {
        let dataset = dataset.into();
        let mut session = Session::new(db, registry);
        // service sessions compute lazily: a burst of slider moves costs
        // one recalculation at the next fetch, not one per move (§4.3's
        // "auto recalculate off" mode)
        session.set_auto_recalculate(false);
        session.set_collect_trace(options.collect_trace);
        if let Some(cache) = options.windows {
            session.set_shared_windows(dataset.clone(), cache);
        }
        let slot = Arc::new(SessionSlot {
            state: Mutex::new(SessionState { session, dataset }),
            mailbox: Mutex::new(VecDeque::new()),
            scheduled: AtomicBool::new(false),
        });
        let mut table = self.lock();
        if table.entries.len() >= self.max_sessions {
            // prefer an idle victim; only when *every* session is busy
            // does capacity pressure fall back to the global LRU (the
            // cap is hard — a detached slot still drains its mailbox
            // through the worker's own Arc, so nothing is lost mid-run,
            // but later submissions get an unknown-session error)
            let victim = table
                .entries
                .iter()
                .filter(|(_, entry)| !entry.slot.busy())
                .min_by_key(|(_, entry)| entry.last_used)
                .or_else(|| {
                    table
                        .entries
                        .iter()
                        .min_by_key(|(_, entry)| entry.last_used)
                })
                .map(|(&id, _)| id);
            if let Some(lru) = victim {
                table.entries.remove(&lru);
                self.evicted.inc();
            }
        }
        let id = table.next_id;
        table.next_id += 1;
        table.entries.insert(
            id,
            TableEntry {
                slot,
                last_used: Instant::now(),
            },
        );
        self.created.inc();
        self.live.set(table.entries.len() as i64);
        SessionId(id)
    }

    /// Resolve a session, marking it used now. `None` after eviction or
    /// explicit removal.
    pub fn get(&self, id: SessionId) -> Option<Arc<SessionSlot>> {
        let mut table = self.lock();
        let entry = table.entries.get_mut(&id.0)?;
        entry.last_used = Instant::now();
        Some(Arc::clone(&entry.slot))
    }

    /// A snapshot of every live slot, for service-level maintenance
    /// passes (the delta-append session rebase). Taken under the table
    /// lock without touching recency; callers lock each slot's state
    /// individually afterwards.
    pub fn slots(&self) -> Vec<Arc<SessionSlot>> {
        self.lock()
            .entries
            .values()
            .map(|entry| Arc::clone(&entry.slot))
            .collect()
    }

    /// Drop a session explicitly. Returns whether it was present.
    pub fn remove(&self, id: SessionId) -> bool {
        let mut table = self.lock();
        let removed = table.entries.remove(&id.0).is_some();
        self.live.set(table.entries.len() as i64);
        removed
    }

    /// Evict every session idle longer than the configured timeout.
    /// Returns how many were evicted.
    pub fn evict_idle(&self) -> usize {
        self.evict_idle_older_than(self.idle_timeout)
    }

    /// Evict sessions idle longer than `max_idle` (tests use short
    /// horizons without waiting out the configured timeout). A session
    /// with queued or executing work is never idle, however stale its
    /// `last_used` — it becomes evictable only after its mailbox drains.
    pub fn evict_idle_older_than(&self, max_idle: Duration) -> usize {
        let mut table = self.lock();
        let now = Instant::now();
        let before = table.entries.len();
        table.entries.retain(|_, entry| {
            entry.slot.busy() || now.duration_since(entry.last_used) <= max_idle
        });
        let evicted = before - table.entries.len();
        self.evicted.add(evicted as u64);
        self.live.set(table.entries.len() as i64);
        evicted
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Sessions created since construction.
    pub fn created_count(&self) -> usize {
        self.created.get() as usize
    }

    /// Sessions evicted (LRU or idle) since construction.
    pub fn evicted_count(&self) -> usize {
        self.evicted.get() as usize
    }

    /// True when no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use visdb_storage::TableBuilder;
    use visdb_types::{Column, DataType, Value};

    fn db() -> Arc<Database> {
        let mut b = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
        for i in 0..4 {
            b = b.row(vec![Value::Float(i as f64)]).unwrap();
        }
        let mut d = Database::new("d");
        d.add_table(b.build());
        Arc::new(d)
    }

    fn manager(cap: usize) -> SessionManager {
        SessionManager::new(cap, Duration::from_secs(3600))
    }

    #[test]
    fn create_get_remove() {
        let m = manager(8);
        let db = db();
        let a = m.create(
            "d",
            Arc::clone(&db),
            ConnectionRegistry::new(),
            SessionOptions::default(),
        );
        let b = m.create(
            "d",
            db,
            ConnectionRegistry::new(),
            SessionOptions::default(),
        );
        assert_ne!(a, b);
        assert_eq!(m.len(), 2);
        assert!(m.get(a).is_some());
        assert!(m.remove(a));
        assert!(!m.remove(a));
        assert!(m.get(a).is_none());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn sessions_share_the_database_without_copies() {
        let m = manager(8);
        let db = db();
        let a = m.create(
            "d",
            Arc::clone(&db),
            ConnectionRegistry::new(),
            SessionOptions::default(),
        );
        let b = m.create(
            "d",
            Arc::clone(&db),
            ConnectionRegistry::new(),
            SessionOptions::default(),
        );
        let sa = m.get(a).unwrap();
        let sb = m.get(b).unwrap();
        let da = sa.state.lock().unwrap().session.shared_db();
        let db_b = sb.state.lock().unwrap().session.shared_db();
        assert!(Arc::ptr_eq(&da, &db_b), "sessions must share one Arc");
        // 1 local + 2 sessions + 2 accessor clones
        assert_eq!(Arc::strong_count(&db), 5);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let m = manager(2);
        let db = db();
        let a = m.create(
            "d",
            Arc::clone(&db),
            ConnectionRegistry::new(),
            SessionOptions::default(),
        );
        let b = m.create(
            "d",
            Arc::clone(&db),
            ConnectionRegistry::new(),
            SessionOptions::default(),
        );
        // touch `a` so `b` becomes the LRU
        assert!(m.get(a).is_some());
        let c = m.create(
            "d",
            db,
            ConnectionRegistry::new(),
            SessionOptions::default(),
        );
        assert_eq!(m.len(), 2);
        assert!(m.get(a).is_some(), "recently-used session survives");
        assert!(m.get(b).is_none(), "LRU session was evicted");
        assert!(m.get(c).is_some());
    }

    #[test]
    fn idle_eviction_removes_only_stale_sessions() {
        let m = manager(8);
        let db = db();
        let a = m.create(
            "d",
            Arc::clone(&db),
            ConnectionRegistry::new(),
            SessionOptions::default(),
        );
        let b = m.create(
            "d",
            db,
            ConnectionRegistry::new(),
            SessionOptions::default(),
        );
        std::thread::sleep(Duration::from_millis(30));
        assert!(m.get(b).is_some()); // refresh b's idle clock
        assert_eq!(m.evict_idle_older_than(Duration::from_millis(15)), 1);
        assert!(m.get(a).is_none());
        assert!(m.get(b).is_some());
        // nothing idle at a generous horizon
        assert_eq!(m.evict_idle_older_than(Duration::from_secs(60)), 0);
    }

    #[test]
    fn busy_sessions_survive_the_idle_sweep_until_drained() {
        let m = manager(8);
        let db = db();
        let a = m.create(
            "d",
            Arc::clone(&db),
            ConnectionRegistry::new(),
            SessionOptions::default(),
        );
        let b = m.create(
            "d",
            db,
            ConnectionRegistry::new(),
            SessionOptions::default(),
        );
        // a worker is mid-drain on `a` (the service sets `scheduled`
        // before spawning the drain and it stays set until the mailbox
        // is empty)
        let slot = m.get(a).unwrap();
        slot.scheduled.store(true, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            m.evict_idle_older_than(Duration::from_millis(1)),
            1,
            "only the idle session is swept"
        );
        assert!(m.get(a).is_some(), "in-flight session must survive");
        assert!(m.get(b).is_none());
        // the drain finishes; the session is ordinary-idle again
        slot.scheduled.store(false, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(m.evict_idle_older_than(Duration::from_millis(1)), 1);
        assert!(m.get(a).is_none(), "drained session is evictable again");
    }

    #[test]
    fn capacity_eviction_prefers_idle_victims() {
        let m = manager(2);
        let db = db();
        let a = m.create(
            "d",
            Arc::clone(&db),
            ConnectionRegistry::new(),
            SessionOptions::default(),
        );
        let b = m.create(
            "d",
            Arc::clone(&db),
            ConnectionRegistry::new(),
            SessionOptions::default(),
        );
        // `a` is the LRU but busy; capacity pressure must take `b`
        let slot = m.get(a).unwrap();
        slot.scheduled.store(true, Ordering::SeqCst);
        assert!(m.get(b).is_some());
        let c = m.create(
            "d",
            db,
            ConnectionRegistry::new(),
            SessionOptions::default(),
        );
        assert_eq!(m.len(), 2);
        assert!(m.get(a).is_some(), "busy LRU session survives");
        assert!(m.get(b).is_none(), "idle session was the victim");
        assert!(m.get(c).is_some());
    }

    #[test]
    fn eviction_does_not_kill_in_flight_handles() {
        let m = manager(8);
        let a = m.create(
            "d",
            db(),
            ConnectionRegistry::new(),
            SessionOptions::default(),
        );
        let handle = m.get(a).unwrap();
        assert!(m.remove(a));
        // the detached state is still usable through the Arc
        assert_eq!(handle.state.lock().unwrap().dataset, "d");
    }
}
