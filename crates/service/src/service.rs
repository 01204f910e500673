//! The concurrent query service: datasets, shared runtime, dispatch.
//!
//! A [`Service`] owns
//!
//! * a registry of named datasets (`Arc<Database>` + connections) shared
//!   by every session at zero copy cost,
//! * a [`SessionManager`] handing out [`SessionId`]s with LRU /
//!   idle eviction,
//! * a budgeted [`visdb_exec::Runtime`] — the **same** pool that
//!   executes `visdb_relevance`'s chunked row walks, so request
//!   dispatch and pipeline fan-out share one global thread budget
//!   instead of multiplying (the pre-runtime design had a fixed
//!   service pool *plus* per-walk scoped spawns, which oversubscribed
//!   multi-core boxes under concurrent large queries), and
//! * a shared [`QueryCache`] so identical renders from different users
//!   skip the pipeline entirely.
//!
//! ## Scheduling
//!
//! Work items are *session drains*, not individual requests. A
//! submission enqueues the request in the session's FIFO mailbox and
//! spawns one drain job on the runtime unless the slot is already
//! scheduled; the worker running the drain empties the mailbox in
//! order. The result: at most one worker executes a given session at a
//! time (so a slider drag followed by a render observes the drag — the
//! paper's interactive semantics), while distinct sessions run on as
//! many workers as the budget allows. When a drain reaches a chunked
//! pipeline pass, the fan-out lands on the *same* runtime: the draining
//! worker participates in its own batch and idle siblings steal, so the
//! thread count stays pinned at the budget end to end.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use visdb_core::{BandRebase, Paint};
use visdb_exec::{CancelToken, Interrupt, Runtime};
use visdb_index::{parse_projection_key, projection_key, ProjectionSource};
use visdb_obs::{Counter, Gauge, Histogram, Registry, Snapshot};
use visdb_query::connection::ConnectionRegistry;
use visdb_relevance::{extend_window, key_scope, window_key, PipelineTrace, WindowSource};
use visdb_storage::csv::read_csv;
use visdb_storage::{Database, DeltaChain, Row};
use visdb_types::{Error, Result};

use crate::api::{execute, ErrorKind, Request, Response};
use crate::cache::{CacheStats, ProjectionCache, QueryCache, WindowCache};
use crate::manager::{Envelope, SessionId, SessionManager, SessionOptions, SessionSlot};

/// Tuning knobs for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The service's global thread budget (≥ 1): worker threads in the
    /// shared runtime that executes *both* request dispatch and the
    /// pipeline's chunked row walks. No request — however many large
    /// queries run concurrently — can push the live thread count past
    /// this.
    pub workers: usize,
    /// Maximum live sessions before LRU eviction.
    pub max_sessions: usize,
    /// Idle horizon for [`Service::evict_idle_sessions`].
    pub idle_timeout: Duration,
    /// Shared query-result cache capacity (0 disables it).
    pub cache_capacity: usize,
    /// Shared predicate-window cache capacity in windows (0 disables
    /// cross-session window reuse).
    pub window_cache_capacity: usize,
    /// Shared sorted-projection cache capacity in projections (0
    /// disables cross-session slider-index reuse).
    pub projection_cache_capacity: usize,
    /// Admission watermark: when this many queued-but-unfinished
    /// requests are already pending across all sessions, new
    /// submissions are *shed* — answered immediately with
    /// `Response::Error { kind: Shed, retry_after_ms, .. }` instead of
    /// queued. In-flight and already-queued work always runs to
    /// completion; shedding only refuses *new* work, so the service
    /// degrades by answering "come back later" rather than by letting
    /// queue latency grow without bound. The default is high enough
    /// that only genuine overload trips it.
    pub pending_watermark: usize,
    /// Deadline applied to every request that does not carry its own
    /// [`SubmitOptions::deadline`]. `None` (the default) means requests
    /// without an explicit deadline run to completion.
    pub default_deadline: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            max_sessions: 1024,
            idle_timeout: Duration::from_secs(300),
            cache_capacity: 256,
            window_cache_capacity: 512,
            projection_cache_capacity: 64,
            pending_watermark: 4096,
            default_deadline: None,
        }
    }
}

struct Dataset {
    db: Arc<Database>,
    registry: ConnectionRegistry,
    /// Cache scope: `name#base_gen.chain_len` (the delta chain's tag).
    /// Base generations are unique per service, so sessions created over
    /// a *replaced* dataset of the same name can never share cache
    /// entries with sessions still holding the old data; the chain
    /// suffix rotates the scope on every append, which is what makes the
    /// O(Δ) cache migration of [`Service::append_rows`] safe — stale
    /// keys simply never match again.
    scope: String,
    /// Append bookkeeping behind the scope tag: base generation,
    /// per-append row watermarks, compaction count.
    chain: DeltaChain,
}

/// Appends per dataset before the delta chain is folded into a new base
/// generation (dropping — rather than migrating — the derived cache
/// artifacts, so chains cannot grow without bound).
const COMPACTION_THRESHOLD: usize = 8;

/// A response that has been dispatched but not necessarily produced yet.
pub struct PendingResponse {
    rx: Receiver<Response>,
}

impl PendingResponse {
    /// Block until the worker produces the response.
    pub fn wait(self) -> Result<Response> {
        self.rx
            .recv()
            .map_err(|_| Error::Internal("service worker dropped a reply".into()))
    }
}

/// Per-request dispatch options (see [`Service::submit_opts`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Deadline for this request, counted from admission. Overrides the
    /// service-wide [`ServiceConfig::default_deadline`]. An expired
    /// request stops at the pipeline's next per-chunk poll and answers
    /// `Response::Error { kind: DeadlineExceeded, .. }`; one still
    /// queued when its deadline passes is answered without executing.
    pub deadline: Option<Duration>,
    /// Caller-chosen id making the request addressable by
    /// [`Service::cancel`] (the wire layer threads the request `"id"`
    /// through here). Ids are scoped per session; reusing one after the
    /// earlier request finished is fine.
    pub request_id: Option<u64>,
}

/// Overload and interruption bookkeeping: the pending-work gauge the
/// shed decision reads, the in-flight token table the `cancel` op
/// resolves against, and the degradation counters.
pub(crate) struct Admission {
    /// Queued-but-unfinished requests across every session
    /// (`service.pending_depth`). Incremented at admission, decremented
    /// when the drain finishes the envelope — whatever the outcome.
    pending: Arc<Gauge>,
    /// Shed threshold ([`ServiceConfig::pending_watermark`]).
    watermark: usize,
    /// `service.shed` — submissions refused at admission.
    shed: Arc<Counter>,
    /// `service.cancelled` — requests that ended with `kind: Cancelled`.
    cancelled: Arc<Counter>,
    /// `service.deadline_exceeded` — requests that ended with
    /// `kind: DeadlineExceeded`.
    deadline_exceeded: Arc<Counter>,
    /// `service.panics` — requests whose execution panicked (contained:
    /// the worker survives and the session slot is recycled).
    panics: Arc<Counter>,
    /// Cancel tokens of queued/executing requests, keyed by
    /// `(session id, request id)`. Only requests submitted with a
    /// `request_id` appear here.
    inflight: Mutex<HashMap<(u64, u64), CancelToken>>,
}

impl Admission {
    fn new(registry: &Registry, watermark: usize) -> Self {
        Admission {
            pending: registry.gauge("service.pending_depth"),
            watermark: watermark.max(1),
            shed: registry.counter("service.shed"),
            cancelled: registry.counter("service.cancelled"),
            deadline_exceeded: registry.counter("service.deadline_exceeded"),
            panics: registry.counter("service.panics"),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    fn inflight_lock(&self) -> std::sync::MutexGuard<'_, HashMap<(u64, u64), CancelToken>> {
        match self.inflight.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Admit one request, or refuse it with a retry-after hint
    /// (milliseconds) when the pending depth has reached the watermark.
    /// The depth check and increment are not atomic together — the
    /// watermark is a soft limit, momentarily overshootable by one per
    /// concurrent submitter, which is exactly as precise as shedding
    /// needs to be.
    fn try_admit(&self) -> std::result::Result<(), u64> {
        let depth = self.pending.get();
        if depth >= self.watermark as i64 {
            self.shed.inc();
            // crude queueing-delay estimate: a few ms per pending
            // request, clamped to a sane polling interval
            return Err((depth as u64).saturating_mul(5).clamp(10, 2_000));
        }
        self.pending.inc();
        Ok(())
    }

    /// Mark one admitted envelope finished: drop the pending count and
    /// forget its in-flight token, and tally interrupted outcomes.
    fn finish(&self, key: Option<(u64, u64)>, response: &Response) {
        self.pending.dec();
        if let Some(key) = key {
            self.inflight_lock().remove(&key);
        }
        if let Response::Error { kind, .. } = response {
            match kind {
                ErrorKind::Cancelled => self.cancelled.inc(),
                ErrorKind::DeadlineExceeded => self.deadline_exceeded.inc(),
                _ => {}
            }
        }
    }
}

/// Per-op request telemetry plus the pipeline-phase histograms, with
/// every handle resolved once at service start-up — the hot path does
/// no registry lookups, only atomic increments.
pub(crate) struct ServiceObs {
    /// One `(op name, request counter, latency histogram)` per wire op.
    ops: Vec<(&'static str, Arc<Counter>, Arc<Histogram>)>,
    /// `pipeline.phase.{distance,fit,normalize_combine,rank}`
    /// nanosecond histograms, fed by the traces of fresh computations.
    phases: [Arc<Histogram>; 4],
    /// `pipeline.windows_refit`: cached windows those computations
    /// refitted under another weight instead of re-evaluating.
    windows_refit: Arc<Counter>,
    /// `pipeline.fit.{from_counts,selected}` and
    /// `pipeline.rank.{from_counts,selected}`: how many §5.2 fits and
    /// rankings the distance walk's counts answered, and how many took a
    /// selection walk — the share of the traffic with "very many" exact
    /// answers (§5.1), readable off the live server. Then
    /// `pipeline.combine.{children_bits,children_raw,roots_from_table}`:
    /// root children read from their packed exact bits (fits with
    /// `dmax = 0`) vs as raw distances, and derived roots: no combined
    /// frame written, the windows' bits plus a pattern table instead.
    /// Then `pipeline.windows.bits_only`: windows left as their packed
    /// exact bits alone, no raw frame written or kept; and
    /// `pipeline.chunks.compare_packed`: row ranges of those walks whose
    /// stats and bits were compare-packed straight from the column.
    run_counts: [Arc<Counter>; 9],
    /// `service.drag.{fast,declined}`: drags the sorted-projection fast
    /// path served, and drags that fell back to a full pipeline run.
    drag_fast: Arc<Counter>,
    drag_declined: Arc<Counter>,
    /// `render.panel.{held,by_pattern,by_row}`: session renders that
    /// handed back the held panel (same placed rows, same patterns, same
    /// render inputs), painted a table root by pattern, or painted every
    /// item through its distances ([`Paint`]).
    paints: [Arc<Counter>; 3],
}

/// Every wire op, including the service-level `metrics`, `cancel`,
/// `append_rows` and `append_csv`.
const OPS: [&str; 13] = [
    "ping",
    "set_query",
    "set_policy",
    "set_weight",
    "move_slider",
    "drag_slider",
    "set_window_size",
    "summary",
    "render",
    "metrics",
    "cancel",
    "append_rows",
    "append_csv",
];

const PHASES: [&str; 4] = ["distance", "fit", "normalize_combine", "rank"];

impl ServiceObs {
    fn new(registry: &Registry) -> Self {
        ServiceObs {
            ops: OPS
                .iter()
                .map(|op| {
                    (
                        *op,
                        registry.counter(&format!("service.requests.{op}")),
                        registry.histogram(&format!("service.latency_ns.{op}")),
                    )
                })
                .collect(),
            phases: PHASES.map(|p| registry.histogram(&format!("pipeline.phase.{p}"))),
            windows_refit: registry.counter("pipeline.windows_refit"),
            run_counts: [
                "pipeline.fit.from_counts",
                "pipeline.fit.selected",
                "pipeline.rank.from_counts",
                "pipeline.rank.selected",
                "pipeline.combine.children_bits",
                "pipeline.combine.children_raw",
                "pipeline.combine.roots_from_table",
                "pipeline.windows.bits_only",
                "pipeline.chunks.compare_packed",
            ]
            .map(|name| registry.counter(name)),
            drag_fast: registry.counter("service.drag.fast"),
            drag_declined: registry.counter("service.drag.declined"),
            paints: [
                "render.panel.held",
                "render.panel.by_pattern",
                "render.panel.by_row",
            ]
            .map(|name| registry.counter(name)),
        }
    }

    /// Count one session render by how it came by its panel.
    fn record_paint(&self, paint: Paint) {
        let [held, by_pattern, by_row] = &self.paints;
        match paint {
            Paint::Held => held.inc(),
            Paint::Patterns => by_pattern.inc(),
            Paint::Rows => by_row.inc(),
        }
    }

    /// Count one finished request and record its wall time.
    fn record_op(&self, op: &str, elapsed: Duration) {
        if let Some((_, count, latency)) = self.ops.iter().find(|(name, _, _)| *name == op) {
            count.inc();
            latency.record_duration(elapsed);
        }
    }

    /// Count one answered drag toward the fast-path ratio.
    fn record_drag(&self, incremental: bool) {
        if incremental {
            self.drag_fast.inc();
        } else {
            self.drag_declined.inc();
        }
    }

    /// Feed one pipeline run's trace into the service-wide per-phase
    /// histograms and the refit, fit, rank and combine counters.
    fn record_run(&self, trace: &PipelineTrace) {
        let [distance, fit, normalize_combine, rank] = &self.phases;
        distance.record_duration(trace.distance);
        fit.record_duration(trace.fit);
        normalize_combine.record_duration(trace.normalize_combine);
        rank.record_duration(trace.rank);
        self.windows_refit.add(trace.windows_refit as u64);
        let counts = [
            trace.fits_from_counts,
            trace.fits_selected,
            trace.ranks_from_counts,
            trace.ranks_selected,
            trace.children_bits,
            trace.children_raw,
            trace.roots_from_table,
            trace.windows_bits_only,
            trace.chunks_compare_packed,
        ];
        for (counter, count) in self.run_counts.iter().zip(counts) {
            counter.add(count as u64);
        }
    }
}

/// A one-call summary of the service's own counters — the programmatic
/// sibling of the full [`Service::metrics_snapshot`], for callers (and
/// tests) that want typed fields instead of a metric-name map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceTelemetry {
    /// Shared query-result cache counters.
    pub query_cache: CacheStats,
    /// Shared predicate-window cache counters (cross-session §6 reuse).
    pub window_cache: CacheStats,
    /// Shared sorted-projection cache counters.
    pub projection_cache: CacheStats,
    /// Live sessions right now.
    pub sessions_live: usize,
    /// Sessions created since the service started.
    pub sessions_created: usize,
    /// Sessions evicted by LRU or the idle sweep.
    pub sessions_evicted: usize,
    /// Queued-but-unfinished requests right now.
    pub pending_depth: i64,
    /// Submissions refused at admission (watermark exceeded).
    pub shed: u64,
    /// Requests that ended cancelled.
    pub cancelled: u64,
    /// Requests that ended deadline-exceeded.
    pub deadline_exceeded: u64,
    /// Requests whose execution panicked (contained).
    pub panics: u64,
    /// The shared execution runtime's counters.
    pub exec: visdb_exec::Metrics,
}

/// A concurrent multi-session query service over shared databases.
pub struct Service {
    datasets: Mutex<std::collections::HashMap<String, Dataset>>,
    generations: std::sync::atomic::AtomicU64,
    manager: SessionManager,
    cache: Arc<QueryCache>,
    window_cache: Arc<WindowCache>,
    projection_cache: Arc<ProjectionCache>,
    /// The telemetry registry every layer publishes into: exec-pool
    /// counters, cache hit/miss counters, session occupancy, per-op
    /// request counts and latency histograms, pipeline phase histograms.
    registry: Arc<Registry>,
    obs: Arc<ServiceObs>,
    /// Overload/interruption bookkeeping shared with every drain.
    admission: Arc<Admission>,
    /// Deadline minted for requests submitted without one.
    default_deadline: Option<Duration>,
    /// The shared budgeted runtime. Dropping the service shuts it down;
    /// workers finish already-queued drains first.
    runtime: Runtime,
}

impl Service {
    /// Start the shared runtime.
    pub fn new(config: ServiceConfig) -> Self {
        let cache = Arc::new(QueryCache::new(config.cache_capacity));
        let window_cache = Arc::new(WindowCache::new(config.window_cache_capacity));
        let projection_cache = Arc::new(ProjectionCache::new(config.projection_cache_capacity));
        let manager = SessionManager::new(config.max_sessions, config.idle_timeout);
        let runtime = Runtime::new(config.workers.max(1));
        let registry = Arc::new(Registry::new());
        runtime.register_metrics(&registry);
        manager.register_metrics(&registry);
        cache.register_metrics(&registry, "cache.query");
        window_cache.register_metrics(&registry, "cache.window");
        projection_cache.register_metrics(&registry, "cache.projection");
        let obs = Arc::new(ServiceObs::new(&registry));
        let admission = Arc::new(Admission::new(&registry, config.pending_watermark));
        Service {
            datasets: Mutex::new(std::collections::HashMap::new()),
            generations: std::sync::atomic::AtomicU64::new(1),
            manager,
            cache,
            window_cache,
            projection_cache,
            registry,
            obs,
            admission,
            default_deadline: config.default_deadline,
            runtime,
        }
    }

    /// Make a database available to sessions under `name` (replacing any
    /// previous dataset of that name for *new* sessions; existing
    /// sessions keep their Arc).
    pub fn register_dataset(
        &self,
        name: impl Into<String>,
        db: Arc<Database>,
        registry: ConnectionRegistry,
    ) {
        let name = name.into();
        // stale protection is the generation in the cache scopes;
        // dropping the replaced dataset's entries just frees memory
        self.cache.invalidate_dataset(&name);
        self.window_cache.invalidate_dataset(&name);
        self.projection_cache.invalidate_dataset(&name);
        let generation = self.generations.fetch_add(1, Ordering::Relaxed);
        let chain = DeltaChain::new(generation, db.total_rows());
        let scope = format!("{name}#{}", chain.tag());
        self.datasets
            .lock()
            .expect("dataset registry poisoned")
            .insert(
                name,
                Dataset {
                    db,
                    registry,
                    scope,
                    chain,
                },
            );
    }

    /// Registered dataset names, sorted.
    pub fn dataset_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .datasets
            .lock()
            .expect("dataset registry poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Open a session over a registered dataset.
    pub fn create_session(&self, dataset: &str) -> Result<SessionId> {
        let guard = self.datasets.lock().expect("dataset registry poisoned");
        let ds = guard.get(dataset).ok_or_else(|| {
            Error::invalid_parameter("dataset", format!("unknown dataset '{dataset}'"))
        })?;
        let options = SessionOptions {
            windows: self
                .window_cache
                .is_enabled()
                .then(|| Arc::clone(&self.window_cache)),
            projections: self
                .projection_cache
                .is_enabled()
                .then(|| Arc::clone(&self.projection_cache)),
            // traced sessions make `trace: true` requests answerable
            // from the cached result and feed the per-phase histograms;
            // the cost is a few clock reads per full pipeline run
            collect_trace: true,
        };
        Ok(self.manager.create(
            ds.scope.clone(),
            Arc::clone(&ds.db),
            ds.registry.clone(),
            options,
        ))
    }

    /// Close a session explicitly. Returns whether it was live.
    pub fn close_session(&self, id: SessionId) -> bool {
        self.manager.remove(id)
    }

    /// Dispatch a request and block for its response.
    pub fn submit(&self, id: SessionId, request: Request) -> Result<Response> {
        self.submit_async(id, request)?.wait()
    }

    /// [`Service::submit`] with a per-request deadline / cancel id.
    pub fn submit_opts(
        &self,
        id: SessionId,
        request: Request,
        opts: SubmitOptions,
    ) -> Result<Response> {
        self.submit_async_opts(id, request, opts)?.wait()
    }

    /// Dispatch a request without waiting. Requests for one session apply
    /// in submission order; distinct sessions run in parallel.
    pub fn submit_async(&self, id: SessionId, request: Request) -> Result<PendingResponse> {
        self.submit_async_opts(id, request, SubmitOptions::default())
    }

    /// [`Service::submit_async`] with a per-request deadline / cancel
    /// id. The admission decision happens here: past the pending-work
    /// watermark the request is answered with a `Shed` error (and a
    /// `retry_after_ms` hint) instead of queued — `Ok` is returned
    /// either way, `Err` is reserved for unknown sessions.
    pub fn submit_async_opts(
        &self,
        id: SessionId,
        request: Request,
        opts: SubmitOptions,
    ) -> Result<PendingResponse> {
        // the metrics op is service-level: it reads the registry, never
        // a session, so it is answered inline instead of queueing behind
        // a possibly busy mailbox (an explain request must not wait for
        // the query it wants to explain)
        if matches!(request, Request::Metrics) {
            let (reply, rx) = mpsc::channel();
            let _ = reply.send(Response::Metrics(Box::new(self.metrics_snapshot())));
            return Ok(PendingResponse { rx });
        }
        let slot = self.manager.get(id).ok_or_else(|| {
            Error::invalid_parameter("session", format!("unknown or evicted {id}"))
        })?;
        let (reply, rx) = mpsc::channel();
        if let Err(retry_after_ms) = self.admission.try_admit() {
            let _ = reply.send(Response::shed(
                format!(
                    "service overloaded: {} requests pending (watermark {})",
                    self.admission.pending.get(),
                    self.admission.watermark
                ),
                retry_after_ms,
            ));
            return Ok(PendingResponse { rx });
        }
        // mint a cancel token when anything could interrupt the request:
        // a deadline, or a caller id the `cancel` op can aim at. Plain
        // submissions get no token and the pipeline's per-chunk polls
        // stay on their no-token fast path.
        let deadline = opts.deadline.or(self.default_deadline);
        let token = match deadline {
            Some(d) => Some(CancelToken::with_deadline(d)),
            None => opts.request_id.map(|_| CancelToken::new()),
        };
        let inflight_key = opts.request_id.map(|rid| (id.0, rid));
        if let (Some(key), Some(tok)) = (inflight_key, &token) {
            self.admission.inflight_lock().insert(key, tok.clone());
        }
        slot.mailbox
            .lock()
            .expect("mailbox poisoned")
            .push_back(Envelope {
                request,
                reply,
                token,
                inflight_key,
            });
        if !slot.scheduled.swap(true, Ordering::SeqCst) {
            let cache = Arc::clone(&self.cache);
            let obs = Arc::clone(&self.obs);
            let admission = Arc::clone(&self.admission);
            self.runtime
                .spawn(move || drain_mailbox(&slot, &cache, &obs, &admission));
        }
        Ok(PendingResponse { rx })
    }

    /// Cancel a queued or executing request by `(session, request id)`
    /// — the ids the request was submitted with. Returns whether a
    /// matching in-flight request was found. Cancellation is
    /// cooperative: an executing pipeline stops at its next per-chunk
    /// poll; a still-queued request is answered without executing.
    /// Either way the caller's [`PendingResponse`] resolves to
    /// `Response::Error { kind: Cancelled, .. }`.
    pub fn cancel(&self, id: SessionId, request_id: u64) -> bool {
        let started = Instant::now();
        let found = self
            .admission
            .inflight_lock()
            .get(&(id.0, request_id))
            .map(CancelToken::cancel)
            .is_some();
        self.obs.record_op("cancel", started.elapsed());
        found
    }

    /// Evict sessions idle longer than the configured timeout; returns
    /// how many were evicted.
    pub fn evict_idle_sessions(&self) -> usize {
        self.manager.evict_idle()
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.manager.len()
    }

    /// The global thread budget (worker threads in the shared runtime).
    pub fn workers(&self) -> usize {
        self.runtime.budget()
    }

    /// The shared execution runtime (exposed for observability and the
    /// oversubscription regression tests).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// One consistent snapshot of the service's own counters: all three
    /// cache stats, session occupancy, and the exec-pool metrics.
    pub fn telemetry(&self) -> ServiceTelemetry {
        ServiceTelemetry {
            query_cache: self.cache.stats(),
            window_cache: self.window_cache.stats(),
            projection_cache: self.projection_cache.stats(),
            sessions_live: self.manager.len(),
            sessions_created: self.manager.created_count(),
            sessions_evicted: self.manager.evicted_count(),
            pending_depth: self.admission.pending.get(),
            shed: self.admission.shed.get(),
            cancelled: self.admission.cancelled.get(),
            deadline_exceeded: self.admission.deadline_exceeded.get(),
            panics: self.admission.panics.get(),
            exec: self.runtime.metrics(),
        }
    }

    /// The full telemetry registry: every metric any layer published —
    /// also reachable through [`Service::metrics_snapshot`] and the
    /// `metrics` server op.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Snapshot every registered metric (what `Request::Metrics`
    /// returns). Counts as one `metrics` request.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let started = Instant::now();
        let snapshot = self.registry.snapshot();
        self.obs.record_op("metrics", started.elapsed());
        snapshot
    }

    /// Per-dataset delta-chain bookkeeping (the `stats` server op's
    /// `datasets` section), sorted by name.
    pub fn dataset_info(&self) -> Vec<DatasetInfo> {
        let guard = self.datasets.lock().expect("dataset registry poisoned");
        let mut infos: Vec<DatasetInfo> = guard
            .iter()
            .map(|(name, ds)| DatasetInfo {
                name: name.clone(),
                total_rows: ds.chain.total_rows(),
                base_gen: ds.chain.base_gen(),
                chain_len: ds.chain.chain_len(),
                delta_rows: ds.chain.delta_rows(),
                compactions: ds.chain.compactions(),
            })
            .collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// The (resolved table name, schema) an append against `dataset`
    /// would target — what the wire layer needs to type-check JSON rows
    /// before calling [`Service::append_rows`].
    pub fn table_schema(
        &self,
        dataset: &str,
        table: Option<&str>,
    ) -> Result<(String, visdb_types::Schema)> {
        let guard = self.datasets.lock().expect("dataset registry poisoned");
        let ds = guard.get(dataset).ok_or_else(|| {
            Error::invalid_parameter("dataset", format!("unknown dataset '{dataset}'"))
        })?;
        let table_name = resolve_table(ds, dataset, table)?;
        let schema = ds.db.table(&table_name)?.schema().clone();
        Ok((table_name, schema))
    }

    /// Append rows to one table of a registered dataset as a new **delta
    /// generation** — the paper's interactive loop under *growing* data.
    /// Everything derived is maintained in O(Δ), never rebuilt from
    /// scratch:
    ///
    /// * the database is cloned copy-on-append (readers keep their Arc;
    ///   column pushes are O(Δ)),
    /// * shared sorted projections over the appended table are *merged*
    ///   ([`visdb_index::SortedProjection::extended`]: O(Δ log Δ + n)
    ///   memcpy-dominated, vs O(n log n) rebuild),
    /// * shared predicate windows *extend* by evaluating only the
    ///   appended rows ([`visdb_relevance::extend_window`]); when those
    ///   shift the §5.2 normalization fit, the new fit is re-applied to
    ///   the extended raw frame (O(n) arithmetic, no distance pass),
    /// * live sessions over the dataset are rebased
    ///   ([`visdb_core::Session::rebase`]): their §6 slider bands are
    ///   repaired by examining only the appended rows.
    ///
    /// Every [`COMPACTION_THRESHOLD`]-th append folds the chain into a
    /// fresh base generation and drops the derived artifacts instead.
    /// `table` may be omitted for single-table datasets. On any error
    /// the dataset is left exactly as it was.
    pub fn append_rows(
        &self,
        name: &str,
        table: Option<&str>,
        rows: Vec<Row>,
    ) -> Result<AppendOutcome> {
        let started = Instant::now();
        let outcome = self.append_rows_inner(name, table, rows);
        self.obs.record_op("append_rows", started.elapsed());
        outcome
    }

    /// [`Service::append_rows`] from headerless CSV text parsed against
    /// the table's **existing** schema (the append companion of the
    /// `load_csv` op's inference; empty cells are NULLs).
    pub fn append_csv(&self, name: &str, table: Option<&str>, csv: &str) -> Result<AppendOutcome> {
        let started = Instant::now();
        let outcome = (|| {
            let (table_name, schema) = {
                let guard = self.datasets.lock().expect("dataset registry poisoned");
                let ds = guard.get(name).ok_or_else(|| {
                    Error::invalid_parameter("dataset", format!("unknown dataset '{name}'"))
                })?;
                let table_name = resolve_table(ds, name, table)?;
                let schema = ds.db.table(&table_name)?.schema().clone();
                (table_name, schema)
            };
            let parsed = read_csv(&table_name, schema, csv.as_bytes())?;
            let rows: Vec<Row> = (0..parsed.len())
                .map(|i| parsed.row(i).expect("row index in range"))
                .collect();
            self.append_rows_inner(name, Some(&table_name), rows)
        })();
        self.obs.record_op("append_csv", started.elapsed());
        outcome
    }

    fn append_rows_inner(
        &self,
        name: &str,
        table: Option<&str>,
        rows: Vec<Row>,
    ) -> Result<AppendOutcome> {
        let mut guard = self.datasets.lock().expect("dataset registry poisoned");
        let ds = guard.get_mut(name).ok_or_else(|| {
            Error::invalid_parameter("dataset", format!("unknown dataset '{name}'"))
        })?;
        let table_name = resolve_table(ds, name, table)?;
        let old_n = ds.db.table(&table_name)?.len();
        let appended = rows.len();
        // copy-on-append: readers keep their Arc to the old generation
        // untouched; the append lands in a fresh clone (O(n) memcpy of
        // column buffers — the costly O(n log n) derived artifacts are
        // migrated, not rebuilt). Table::append_rows is atomic, so an
        // arity/type error here leaves the registered dataset untouched.
        let mut next = (*ds.db).clone();
        next.table_mut(&table_name)?.append_rows(rows)?;
        let new_db = Arc::new(next);
        let new_n = old_n + appended;
        let old_scope = ds.scope.clone();
        ds.chain.push_link(new_db.total_rows());
        let compacted = ds.chain.should_compact(COMPACTION_THRESHOLD);
        if compacted {
            let generation = self.generations.fetch_add(1, Ordering::Relaxed);
            ds.chain.compact(generation);
        }
        let new_scope = format!("{name}#{}", ds.chain.tag());
        ds.scope.clone_from(&new_scope);
        ds.db = Arc::clone(&new_db);
        let base_gen = ds.chain.base_gen();
        let chain_len = ds.chain.chain_len();
        let delta_rows = ds.chain.delta_rows();
        drop(guard);

        // old-generation rendered frames can never be requested again —
        // every live session moves to the new scope below — so free them
        self.cache.invalidate_dataset(name);
        let mut windows_extended = 0;
        let mut windows_declined = 0;
        let mut projections_merged = 0;
        if compacted {
            // fold the chain: drop the derived artifacts; the next
            // queries rebuild against the compacted base
            self.window_cache.invalidate_dataset(name);
            self.projection_cache.invalidate_dataset(name);
        } else {
            let table_ref = new_db.table(&table_name).expect("table just appended to");
            let delta_ids: Vec<usize> = (old_n..new_n).collect();
            let delta = table_ref.gather(table_name.as_str(), &delta_ids);
            for (key, (window, recipe)) in self.window_cache.drain_dataset(name) {
                if key_scope(&key) != Some(old_scope.as_str()) {
                    continue; // an even older generation: stale, drop
                }
                let Some(recipe) = recipe else {
                    windows_declined += 1; // not row-locally extendable
                    continue;
                };
                if recipe.table != table_name {
                    // other relations of the dataset are untouched: the
                    // entry survives verbatim under the new scope
                    if let Ok(t) = new_db.table(&recipe.table) {
                        let new_key = window_key(&new_scope, t, recipe.budget, &recipe.node);
                        self.window_cache.store(new_key, window, Some(recipe));
                    }
                    continue;
                }
                // a fit the appended rows shift is re-applied to the
                // extended raw frame, so only a stale row count or a
                // delta that fails to evaluate sends the next query back
                // to a full re-evaluation
                let extended = (window.len() == old_n)
                    .then(|| extend_window(&new_db, &delta, &window, &recipe))
                    .flatten();
                match extended {
                    Some(extended) => {
                        let new_key =
                            window_key(&new_scope, table_ref, recipe.budget, &recipe.node);
                        self.window_cache.store(new_key, extended, Some(recipe));
                        windows_extended += 1;
                    }
                    None => windows_declined += 1,
                }
            }
            for (key, projection) in self.projection_cache.drain_dataset(name) {
                let Some((scope, tbl, rows, column)) = parse_projection_key(&key) else {
                    continue;
                };
                if scope != old_scope {
                    continue;
                }
                if tbl != table_name {
                    let new_key = projection_key(&new_scope, tbl, rows, column);
                    self.projection_cache.store(new_key, projection);
                    continue;
                }
                if rows != old_n {
                    continue;
                }
                let Ok(col) = table_ref.column_by_name(column) else {
                    continue;
                };
                let merged = Arc::new(projection.extended(new_n, |i| col.get_f64(i)));
                self.projection_cache
                    .store(projection_key(&new_scope, tbl, new_n, column), merged);
                projections_merged += 1;
            }
        }
        // move every live session of the old generation onto the new one
        // (workers hold a slot's state lock only while executing that
        // session's requests and never take the dataset or cache locks,
        // so this ordering cannot deadlock)
        let mut bands_repaired = 0;
        let mut bands_dropped = 0;
        for slot in self.manager.slots() {
            let mut state = match slot.state.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            if state.dataset != old_scope {
                continue;
            }
            state.dataset.clone_from(&new_scope);
            match state.session.rebase(Arc::clone(&new_db), new_scope.clone()) {
                BandRebase::Repaired => bands_repaired += 1,
                BandRebase::Dropped => bands_dropped += 1,
                BandRebase::None => {}
            }
        }
        // delta-chain telemetry: appends are rare next to queries, so
        // get-or-create registry lookups are fine off the hot path
        self.registry.counter("delta.appends").inc();
        if compacted {
            self.registry.counter("delta.compactions").inc();
        }
        self.registry
            .counter("delta.windows_extended")
            .add(windows_extended as u64);
        self.registry
            .counter("delta.windows_recomputed")
            .add(windows_declined as u64);
        self.registry
            .counter("delta.projections_merged")
            .add(projections_merged as u64);
        self.registry
            .counter("delta.bands_repaired")
            .add(bands_repaired as u64);
        self.registry
            .counter("delta.bands_dropped")
            .add(bands_dropped as u64);
        self.registry
            .gauge(&format!("delta.chain_depth.{name}"))
            .set(chain_len as i64);
        self.registry
            .gauge(&format!("delta.rows.{name}"))
            .set(delta_rows as i64);
        Ok(AppendOutcome {
            dataset: name.to_string(),
            table: table_name,
            rows_appended: appended,
            total_rows: new_n,
            base_gen,
            chain_len,
            compacted,
            windows_extended,
            windows_declined,
            projections_merged,
            bands_repaired,
            bands_dropped,
        })
    }
}

/// Resolve the target table of an append: the explicit name, or the
/// dataset's only table.
fn resolve_table(ds: &Dataset, name: &str, table: Option<&str>) -> Result<String> {
    match table {
        Some(t) => Ok(t.to_string()),
        None => {
            let names = ds.db.table_names();
            match names.as_slice() {
                [only] => Ok((*only).to_string()),
                _ => Err(Error::invalid_parameter(
                    "table",
                    format!(
                        "dataset '{name}' has {} tables; specify which to append to",
                        names.len()
                    ),
                )),
            }
        }
    }
}

/// What one [`Service::append_rows`] / [`Service::append_csv`] call did:
/// the new chain position plus the incremental-maintenance counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Dataset appended to.
    pub dataset: String,
    /// Table the rows landed in.
    pub table: String,
    /// Rows in this delta.
    pub rows_appended: usize,
    /// The table's row count after the append.
    pub total_rows: usize,
    /// Base generation of the delta chain (rotates on compaction).
    pub base_gen: u64,
    /// Links in the chain after this append (0 right after compaction).
    pub chain_len: usize,
    /// Whether this append folded the chain into a new base generation.
    pub compacted: bool,
    /// Shared predicate windows grown in place by delta evaluation.
    pub windows_extended: usize,
    /// Shared windows dropped for full re-evaluation (shape not
    /// row-locally extendable).
    pub windows_declined: usize,
    /// Shared sorted projections merged with the sorted delta.
    pub projections_merged: usize,
    /// Live sessions whose §6 slider band was repaired in place.
    pub bands_repaired: usize,
    /// Live sessions whose slider index had to be dropped.
    pub bands_dropped: usize,
}

/// Per-dataset delta-chain bookkeeping (see [`Service::dataset_info`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetInfo {
    /// Dataset name.
    pub name: String,
    /// Rows across all tables at the chain tip.
    pub total_rows: usize,
    /// Base generation the chain grows from.
    pub base_gen: u64,
    /// Appends since the base generation.
    pub chain_len: usize,
    /// Rows added since the base generation.
    pub delta_rows: usize,
    /// Chain compactions over this dataset's lifetime.
    pub compactions: u64,
}

/// Execute a session's queued requests in FIFO order. Exactly one worker
/// runs this for a given slot at a time (`scheduled` guards entry); the
/// handshake at the empty-mailbox exit ensures a request that raced with
/// the exit is picked up — by this worker or by a rescheduled slot.
fn drain_mailbox(
    slot: &Arc<SessionSlot>,
    cache: &QueryCache,
    obs: &ServiceObs,
    admission: &Admission,
) {
    loop {
        let envelope = slot.mailbox.lock().expect("mailbox poisoned").pop_front();
        let Some(envelope) = envelope else {
            slot.scheduled.store(false, Ordering::SeqCst);
            let refilled = !slot.mailbox.lock().expect("mailbox poisoned").is_empty();
            // if a submitter slipped in after the pop but before the
            // store, either it saw scheduled=true (we must keep going) or
            // it re-sent the slot (another worker owns it; stop)
            if refilled && !slot.scheduled.swap(true, Ordering::SeqCst) {
                continue;
            }
            return;
        };
        let Envelope {
            request,
            reply,
            token,
            inflight_key,
        } = envelope;
        // a request interrupted while still queued — its deadline ran
        // out behind a slow neighbour, or a `cancel` op beat the drain —
        // is answered without touching the session at all
        let queued_interrupt = token.as_ref().and_then(CancelToken::interrupted);
        let response = if let Some(interrupt) = queued_interrupt {
            Response::from_error(&match interrupt {
                Interrupt::Cancelled => Error::Cancelled,
                Interrupt::DeadlineExceeded => Error::DeadlineExceeded,
            })
        } else {
            // a panic must not unwind through the worker loop: it would
            // kill the thread and strand the slot with `scheduled` stuck
            // at true, wedging the session and hanging every submitter
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut state = match slot.state.lock() {
                    Ok(g) => g,
                    // a previous request panicked mid-execution; the
                    // slot was recycled below, keep serving
                    Err(poisoned) => poisoned.into_inner(),
                };
                // phase histograms must count each pipeline run once: a
                // run happened iff this request left a result the session
                // did not have (a fast-path drag drops the result and runs
                // nothing, so it has no trace to report)
                let fresh = state.session.cached_result().is_none();
                state.session.set_cancel_token(token.clone());
                let started = Instant::now();
                let response = execute(&mut state, &request, Some(cache));
                obs.record_op(request.op_name(), started.elapsed());
                if let Response::Drag { incremental, .. } = &response {
                    obs.record_drag(*incremental);
                }
                if let Some(paint) = state.session.take_paint() {
                    obs.record_paint(paint);
                }
                state.session.set_cancel_token(None);
                if fresh {
                    if let Some(trace) = state.session.last_trace() {
                        obs.record_run(trace);
                    }
                }
                response
            }))
            .unwrap_or_else(|_| {
                admission.panics.inc();
                // containment: the poisoned slot is recycled — partial
                // results, the per-session pipeline cache and the stale
                // token are dropped so the *next* request over this
                // session recomputes from clean state instead of
                // trusting whatever the panic left behind
                let mut state = match slot.state.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                state.session.recover();
                Response::error(
                    ErrorKind::Internal,
                    "internal error: request execution panicked",
                )
            })
        };
        admission.finish(inflight_key, &response);
        // a dropped PendingResponse just means nobody wants the answer
        let _ = reply.send(response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RenderFormat;
    use visdb_storage::TableBuilder;
    use visdb_types::{Column, DataType, Value};

    fn ramp_db(n: usize) -> Arc<Database> {
        let mut b = TableBuilder::new("T", vec![Column::new("x", DataType::Float)]);
        for i in 0..n {
            b = b.row(vec![Value::Float(i as f64)]).unwrap();
        }
        let mut db = Database::new("ramp");
        db.add_table(b.build());
        Arc::new(db)
    }

    fn service(workers: usize) -> Service {
        let s = Service::new(ServiceConfig {
            workers,
            ..Default::default()
        });
        s.register_dataset("ramp", ramp_db(200), ConnectionRegistry::new());
        s
    }

    #[test]
    fn end_to_end_query_over_the_pool() {
        let s = service(2);
        let id = s.create_session("ramp").unwrap();
        assert_eq!(s.submit(id, Request::Ping).unwrap(), Response::Ok);
        assert_eq!(
            s.submit(
                id,
                Request::SetQueryText("SELECT * FROM T WHERE x >= 150".into())
            )
            .unwrap(),
            Response::Ok
        );
        match s.submit(id, Request::Summary { trace: false }).unwrap() {
            Response::Summary(sum) => {
                assert_eq!(sum.objects, 200);
                assert_eq!(sum.exact, 50);
            }
            other => panic!("expected summary, got {other:?}"),
        }
    }

    #[test]
    fn unknown_dataset_and_session_are_errors() {
        let s = service(1);
        assert!(s.create_session("nope").is_err());
        assert!(s.submit(SessionId(999), Request::Ping).is_err());
        let id = s.create_session("ramp").unwrap();
        assert!(s.close_session(id));
        assert!(s.submit(id, Request::Ping).is_err());
    }

    #[test]
    fn async_submissions_for_one_session_apply_in_order() {
        let s = service(4);
        let id = s.create_session("ramp").unwrap();
        let pending: Vec<PendingResponse> = vec![
            s.submit_async(
                id,
                Request::SetQueryText("SELECT * FROM T WHERE x >= 100".into()),
            )
            .unwrap(),
            s.submit_async(
                id,
                Request::MoveSlider {
                    window: 0,
                    op: visdb_query::ast::CompareOp::Ge,
                    value: 180.0,
                },
            )
            .unwrap(),
            s.submit_async(id, Request::Summary { trace: false })
                .unwrap(),
        ];
        let mut responses = pending.into_iter().map(|p| p.wait().unwrap());
        assert_eq!(responses.next().unwrap(), Response::Ok);
        assert_eq!(responses.next().unwrap(), Response::Ok);
        match responses.next().unwrap() {
            // the summary observes the slider move (20 exact answers),
            // not the original query (100)
            Response::Summary(sum) => assert_eq!(sum.exact, 20),
            other => panic!("expected summary, got {other:?}"),
        }
    }

    #[test]
    fn a_request_burst_across_sessions_all_completes() {
        let s = service(4);
        let ids: Vec<SessionId> = (0..16).map(|_| s.create_session("ramp").unwrap()).collect();
        let pending: Vec<(usize, PendingResponse)> = ids
            .iter()
            .enumerate()
            .flat_map(|(i, &id)| {
                let threshold = 10 * i;
                [
                    (
                        i,
                        s.submit_async(
                            id,
                            Request::SetQueryText(format!(
                                "SELECT * FROM T WHERE x >= {threshold}"
                            )),
                        )
                        .unwrap(),
                    ),
                    (
                        i,
                        s.submit_async(id, Request::Summary { trace: false })
                            .unwrap(),
                    ),
                ]
            })
            .collect();
        for (i, p) in pending {
            match p.wait().unwrap() {
                Response::Ok => {}
                Response::Summary(sum) => assert_eq!(sum.exact, 200 - 10 * i),
                other => panic!("unexpected response {other:?}"),
            }
        }
    }

    #[test]
    fn reregistering_a_dataset_invalidates_its_cached_frames() {
        let s = service(2);
        let a = s.create_session("ramp").unwrap();
        s.submit(
            a,
            Request::SetQueryText("SELECT * FROM T WHERE x >= 150".into()),
        )
        .unwrap();
        let old_frame = s.submit(a, Request::Render(RenderFormat::Ppm)).unwrap();

        // same name, different data: 400 rows instead of 200
        s.register_dataset("ramp", ramp_db(400), ConnectionRegistry::new());
        let b = s.create_session("ramp").unwrap();
        s.submit(
            b,
            Request::SetQueryText("SELECT * FROM T WHERE x >= 150".into()),
        )
        .unwrap();
        let new_frame = s.submit(b, Request::Render(RenderFormat::Ppm)).unwrap();

        assert_eq!(
            s.telemetry().query_cache.hits,
            0,
            "stale frame must not be served"
        );
        assert_ne!(old_frame, new_frame);
        match s.submit(b, Request::Summary { trace: false }).unwrap() {
            Response::Summary(sum) => assert_eq!(sum.objects, 400),
            other => panic!("expected summary, got {other:?}"),
        }

        // session A (still holding the old 200-row Arc) renders again,
        // re-populating the cache — its generation-scoped key must not
        // leak to a fresh session over the new data
        let old_again = s.submit(a, Request::Render(RenderFormat::Ppm)).unwrap();
        assert_eq!(old_again, old_frame);
        let c = s.create_session("ramp").unwrap();
        s.submit(
            c,
            Request::SetQueryText("SELECT * FROM T WHERE x >= 150".into()),
        )
        .unwrap();
        let hits_before = s.telemetry().query_cache.hits;
        let newest = s.submit(c, Request::Render(RenderFormat::Ppm)).unwrap();
        assert_eq!(newest, new_frame);
        // c's render hit b's (same-generation) entry, never a's
        assert_eq!(s.telemetry().query_cache.hits, hits_before + 1);
    }

    #[test]
    fn shared_cache_serves_identical_renders_across_sessions() {
        let s = service(2);
        let a = s.create_session("ramp").unwrap();
        let b = s.create_session("ramp").unwrap();
        for id in [a, b] {
            s.submit(
                id,
                Request::SetQueryText("SELECT * FROM T WHERE x >= 150".into()),
            )
            .unwrap();
        }
        let fa = s.submit(a, Request::Render(RenderFormat::Ppm)).unwrap();
        let before = s.telemetry().query_cache;
        let fb = s.submit(b, Request::Render(RenderFormat::Ppm)).unwrap();
        let after = s.telemetry().query_cache;
        assert_eq!(fa, fb, "cached frame must be identical");
        assert_eq!(after.hits, before.hits + 1);
    }

    #[test]
    fn append_rows_is_incremental_and_bit_identical() {
        use visdb_query::ast::CompareOp;
        let s = service(2);
        let id = s.create_session("ramp").unwrap();
        s.submit(
            id,
            Request::SetQueryText("SELECT * FROM T WHERE x >= 150".into()),
        )
        .unwrap();
        // run the query (populates the shared window cache with recipes)
        // and drag (warms the shared projection + the session's band)
        match s.submit(id, Request::Summary { trace: false }).unwrap() {
            Response::Summary(sum) => assert_eq!(sum.exact, 50),
            other => panic!("expected summary, got {other:?}"),
        }
        s.submit(
            id,
            Request::DragSlider {
                window: 0,
                op: CompareOp::Ge,
                value: 150.0,
                trace: false,
            },
        )
        .unwrap();
        // appended rows are exact answers (distance 0): the §5.2 fit
        // cannot shift, so the cached window must *extend*, not recompute
        let rows: Vec<Row> = (200..220).map(|i| vec![Value::Float(i as f64)]).collect();
        let out = s.append_rows("ramp", None, rows).unwrap();
        assert_eq!(out.table, "T");
        assert_eq!(out.rows_appended, 20);
        assert_eq!(out.total_rows, 220);
        assert_eq!(out.chain_len, 1);
        assert!(!out.compacted);
        assert_eq!(out.windows_extended, 1, "window grown by delta eval");
        assert_eq!(out.projections_merged, 1, "projection merged, not rebuilt");
        assert_eq!(out.bands_repaired, 1, "live session's band repaired");
        // the live session observes the appended rows...
        match s.submit(id, Request::Summary { trace: false }).unwrap() {
            Response::Summary(sum) => {
                assert_eq!(sum.objects, 220);
                assert_eq!(sum.exact, 70);
            }
            other => panic!("expected summary, got {other:?}"),
        }
        // ...and renders bit-identically to a service loaded with the
        // full 220 rows from scratch
        let appended_frame = s.submit(id, Request::Render(RenderFormat::Ppm)).unwrap();
        let fresh = Service::new(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        fresh.register_dataset("ramp", ramp_db(220), ConnectionRegistry::new());
        let fid = fresh.create_session("ramp").unwrap();
        fresh
            .submit(
                fid,
                Request::SetQueryText("SELECT * FROM T WHERE x >= 150".into()),
            )
            .unwrap();
        let fresh_frame = fresh
            .submit(fid, Request::Render(RenderFormat::Ppm))
            .unwrap();
        assert_eq!(appended_frame, fresh_frame);
        // delta telemetry is published
        let snap = s.registry().snapshot();
        assert_eq!(snap.counter("delta.appends"), Some(1));
        assert_eq!(snap.gauge("delta.chain_depth.ramp"), Some(1));
        assert_eq!(snap.gauge("delta.rows.ramp"), Some(20));
    }

    #[test]
    fn appends_compact_after_the_threshold() {
        let s = service(1);
        for i in 0..7u64 {
            let out = s
                .append_rows(
                    "ramp",
                    Some("T"),
                    vec![vec![Value::Float(200.0 + i as f64)]],
                )
                .unwrap();
            assert!(!out.compacted);
            assert_eq!(out.chain_len, i as usize + 1);
        }
        let out = s
            .append_rows("ramp", Some("T"), vec![vec![Value::Float(207.0)]])
            .unwrap();
        assert!(out.compacted, "the 8th link folds the chain");
        assert_eq!(out.chain_len, 0);
        let info = s.dataset_info();
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].total_rows, 208);
        assert_eq!(info[0].delta_rows, 0);
        assert_eq!(info[0].compactions, 1);
        // queries after compaction see every appended row
        let id = s.create_session("ramp").unwrap();
        s.submit(
            id,
            Request::SetQueryText("SELECT * FROM T WHERE x >= 200".into()),
        )
        .unwrap();
        match s.submit(id, Request::Summary { trace: false }).unwrap() {
            Response::Summary(sum) => {
                assert_eq!(sum.objects, 208);
                assert_eq!(sum.exact, 8);
            }
            other => panic!("expected summary, got {other:?}"),
        }
    }

    #[test]
    fn append_errors_leave_the_dataset_untouched() {
        let s = service(1);
        assert!(s.append_rows("nope", None, vec![]).is_err());
        // arity mismatch: the batch is atomic, nothing lands
        assert!(s
            .append_rows(
                "ramp",
                None,
                vec![vec![Value::Float(1.0), Value::Float(2.0)]]
            )
            .is_err());
        let info = s.dataset_info();
        assert_eq!(info[0].total_rows, 200);
        assert_eq!(info[0].chain_len, 0);
    }

    #[test]
    fn dropping_the_service_joins_workers_cleanly() {
        let s = service(4);
        let id = s.create_session("ramp").unwrap();
        let _ = s
            .submit_async(
                id,
                Request::SetQueryText("SELECT * FROM T WHERE x >= 1".into()),
            )
            .unwrap();
        drop(s); // must not hang or panic
    }
}
