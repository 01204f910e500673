//! # visdb-exec
//!
//! The shared execution runtime: **one** budgeted, persistent worker pool
//! serving every layer of the system — the service's request dispatch at
//! the top and `visdb_relevance`'s chunked row walks at the bottom.
//!
//! Before this crate existed the repository had three uncoordinated
//! sources of threads (the service's fixed pool, per-walk scoped spawns
//! inside the relevance pipeline, and the bench harness), so several
//! concurrent large queries could oversubscribe a multi-core box. A
//! [`Runtime`] replaces all of them with a fixed set of worker threads —
//! the **global in-flight thread budget** — and two ways to put work on
//! them:
//!
//! * [`Runtime::spawn`] — the long-lived task-queue API: fire-and-forget
//!   `'static` jobs (the service schedules one job per session drain).
//! * [`Runtime::run_tasks`] / [`run_tasks`] — the scoped fork-join API:
//!   a blocking call that fans a batch of tasks out across the pool
//!   while the **caller participates** in executing its own batch.
//!   Because tasks may borrow from the caller's stack (each task
//!   typically owns a disjoint `&mut` sub-slice of an output vector),
//!   no `Arc`/channel plumbing is needed, exactly like the scoped
//!   threads it replaces.
//!
//! ## Why fork-join callers must participate
//!
//! Pipeline walks run *inside* pool jobs (a service worker executing a
//! request reaches the chunked distance passes). If the fork-join caller
//! merely waited for pool capacity, a pool saturated with such jobs
//! would deadlock — every job waiting for helpers that can never be
//! scheduled. Instead the caller drains its own task queue; idle pool
//! workers *steal* from registered batches opportunistically. The caller
//! alone can always finish, so nested fork-join is deadlock-free by
//! construction, and thread count stays pinned at the budget.
//!
//! ## Determinism
//!
//! Tasks carry their own mutable state and the runtime never splits or
//! reorders a task's work, so results are independent of which thread
//! runs which task — the property the relevance pipeline's bit-identity
//! guarantees rest on.
//!
//! ## Single-core behaviour
//!
//! On a runtime whose budget is 1 (the default on a single-core box),
//! [`run_tasks`] never touches the registry, the queue mutex or a
//! condvar: the batch runs **inline on the calling thread**
//! (regression-tested below). On multi-core boxes the pooled walk pays
//! one mutex-protected pop per claimed task; at the pipeline's 16k-row
//! chunk size (~100 µs/task) that per-claim cost is ~three orders of
//! magnitude below the task itself, and stealing buys load balance
//! static per-thread buckets cannot.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use visdb_obs::{Counter, Gauge, Histogram, Registry};

mod cancel;
pub mod fault;

pub use cancel::{CancelToken, Interrupt};
pub use fault::{FaultAction, FaultGuard, Phase};

/// Hard cap on the default budget: the pipeline is memory-bound well
/// before 16 cores, and the cap keeps worst-case thread counts sane on
/// very wide boxes (explicit [`Runtime::new`] budgets may exceed it).
pub const DEFAULT_BUDGET_CAP: usize = 16;

/// A fire-and-forget pool job.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Counters exposed for observability and the oversubscription
/// regression tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metrics {
    /// Worker threads this runtime created (fixed at the budget).
    pub threads: usize,
    /// Peak number of worker threads simultaneously executing work —
    /// can never exceed `threads`, which is the point of the budget.
    pub peak_active: usize,
    /// Fire-and-forget jobs executed to completion.
    pub jobs_executed: usize,
    /// Fork-join tasks executed by *pool* workers (tasks the caller ran
    /// itself are not counted; they cost no extra thread).
    pub tasks_stolen: usize,
}

/// What a registered fork-join batch exposes to stealing workers. The
/// registry stores type-erased pointers to stack-allocated batches; the
/// visitor protocol in [`Shared::unregister`] keeps every dereference
/// inside the batch's real lifetime.
trait StealSource: Sync {
    /// Whether tasks remain to be claimed.
    fn has_tasks(&self) -> bool;
    /// Claim and run tasks until the batch queue is empty.
    fn run_until_empty(&self);
    /// Count of workers currently inside `run_until_empty` (mutated only
    /// under the registry lock).
    fn visitors(&self) -> &AtomicUsize;
}

/// A registered fork-join batch. The raw pointer is valid from
/// registration until [`Shared::unregister`] returns (the visitor
/// handshake), which is what makes `Send` sound here.
struct ScopeHandle {
    id: u64,
    source: *const (dyn StealSource + 'static),
}

// SAFETY: the pointee is only dereferenced by workers that registered as
// visitors under the state lock; `unregister` removes the handle and then
// waits for the visitor count to reach zero before the pointee is freed.
unsafe impl Send for ScopeHandle {}

struct State {
    jobs: VecDeque<Job>,
    scopes: Vec<ScopeHandle>,
    next_scope_id: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers sleep here waiting for jobs or registered batches.
    work: Condvar,
    /// Fork-join callers sleep here waiting for visitors to step out.
    progress: Condvar,
    threads: usize,
    active: AtomicUsize,
    // observability handles (visdb-obs): shared with any registry the
    // runtime is published into via [`Runtime::register_metrics`] —
    // recording stays lock-free either way
    peak_active: Arc<Gauge>,
    jobs_executed: Arc<Counter>,
    tasks_stolen: Arc<Counter>,
    /// Jobs queued but not yet started (incremented under the state
    /// lock at enqueue, decremented by the claiming worker).
    queue_depth: Arc<Gauge>,
    /// Wall-clock nanoseconds per fire-and-forget job body.
    job_latency: Arc<Histogram>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn begin_active(&self) {
        let now = self.active.fetch_add(1, Ordering::AcqRel) + 1;
        self.peak_active.set_max(now as i64);
    }

    fn end_active(&self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }

    /// Register a fork-join batch so idle workers can steal from it.
    /// Returns the handle id used to unregister.
    ///
    /// SAFETY (caller): `source` must stay valid until the matching
    /// [`Shared::unregister`] call returns.
    unsafe fn register(&self, source: *const (dyn StealSource + 'static)) -> u64 {
        let mut st = self.lock();
        let id = st.next_scope_id;
        st.next_scope_id += 1;
        st.scopes.push(ScopeHandle { id, source });
        drop(st);
        self.work.notify_all();
        id
    }

    /// Remove a batch from the registry and wait until no worker is
    /// still inside it. After this returns, no pool thread holds a
    /// reference to the batch.
    fn unregister(&self, id: u64, visitors: &AtomicUsize) {
        let mut st = self.lock();
        st.scopes.retain(|s| s.id != id);
        while visitors.load(Ordering::Acquire) != 0 {
            st = match self.progress.wait(st) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

thread_local! {
    /// The runtime owning the current thread, when it is a pool worker.
    /// Fork-join calls from pool threads reuse their own runtime, so a
    /// service's nested chunk walks share the service's budget instead
    /// of spilling onto the global pool.
    static CURRENT: std::cell::RefCell<Option<Arc<Shared>>> =
        const { std::cell::RefCell::new(None) };
}

fn worker_loop(shared: Arc<Shared>) {
    CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&shared)));
    let mut st = shared.lock();
    loop {
        if let Some(job) = st.jobs.pop_front() {
            drop(st);
            shared.queue_depth.dec();
            shared.begin_active();
            let started = Instant::now();
            // a panicking job must not kill the worker thread: the
            // thread *is* the budget, and the job's owner observes the
            // failure through its own channels (e.g. a dropped reply)
            let _ = catch_unwind(AssertUnwindSafe(job));
            shared.job_latency.record_duration(started.elapsed());
            shared.end_active();
            shared.jobs_executed.inc();
            st = shared.lock();
            continue;
        }
        let stealable = st.scopes.iter().find_map(|s| {
            // SAFETY: the handle is registered, so the pointee is alive;
            // we hold the state lock, which `unregister` needs to remove
            // the handle.
            let src = unsafe { &*s.source };
            src.has_tasks().then_some(s.source)
        });
        if let Some(ptr) = stealable {
            // enter as a visitor while still holding the state lock so
            // `unregister` cannot complete before we are counted
            unsafe { &*ptr }.visitors().fetch_add(1, Ordering::AcqRel);
            drop(st);
            shared.begin_active();
            // SAFETY: the visitor count keeps the batch alive.
            unsafe { &*ptr }.run_until_empty();
            shared.end_active();
            st = shared.lock();
            unsafe { &*ptr }.visitors().fetch_sub(1, Ordering::AcqRel);
            drop(st);
            // the batch's caller may be waiting for visitors to leave
            shared.progress.notify_all();
            st = shared.lock();
            continue;
        }
        if st.shutdown {
            return;
        }
        st = match shared.work.wait(st) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
    }
}

/// One stack-allocated fork-join batch: the pending tasks, the
/// completion handshake, and the shared task body.
struct ScopeSource<'env, T> {
    queue: Mutex<ScopeQueue<T>>,
    done: Condvar,
    f: &'env (dyn Fn(T) + Sync),
    visitors: AtomicUsize,
    panicked: AtomicBool,
    stolen: &'env Counter,
}

struct ScopeQueue<T> {
    tasks: VecDeque<T>,
    in_flight: usize,
}

impl<T: Send> ScopeSource<'_, T> {
    fn lock(&self) -> MutexGuard<'_, ScopeQueue<T>> {
        match self.queue.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Claim and run tasks until none remain, counting each toward
    /// `stolen` when asked (pool workers) — the caller passes `false`.
    fn drain(&self, count_stolen: bool) {
        loop {
            let task = {
                let mut q = self.lock();
                match q.tasks.pop_front() {
                    Some(t) => {
                        // claimed under the lock so completion checks
                        // (empty && in_flight == 0) never miss a task
                        q.in_flight += 1;
                        t
                    }
                    None => return,
                }
            };
            if count_stolen {
                self.stolen.inc();
            }
            if catch_unwind(AssertUnwindSafe(|| (self.f)(task))).is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            let mut q = self.lock();
            q.in_flight -= 1;
            if q.tasks.is_empty() && q.in_flight == 0 {
                drop(q);
                self.done.notify_all();
            }
        }
    }
}

impl<T: Send> StealSource for ScopeSource<'_, T> {
    fn has_tasks(&self) -> bool {
        !self.lock().tasks.is_empty()
    }

    fn run_until_empty(&self) {
        self.drain(true);
    }

    fn visitors(&self) -> &AtomicUsize {
        &self.visitors
    }
}

/// A budgeted execution runtime: `budget` persistent worker threads, a
/// fire-and-forget job queue, and a registry of fork-join batches that
/// idle workers steal from. See the crate docs for the architecture.
pub struct Runtime {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Start a runtime with exactly `budget.max(1)` worker threads. The
    /// budget is the hard ceiling on threads this runtime ever creates —
    /// there is no spawn-per-call anywhere behind it.
    pub fn new(budget: usize) -> Runtime {
        let threads = budget.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                scopes: Vec::new(),
                next_scope_id: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            progress: Condvar::new(),
            threads,
            active: AtomicUsize::new(0),
            peak_active: Arc::new(Gauge::new()),
            jobs_executed: Arc::new(Counter::new()),
            tasks_stolen: Arc::new(Counter::new()),
            queue_depth: Arc::new(Gauge::new()),
            job_latency: Arc::new(Histogram::new()),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("visdb-exec-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn exec worker")
            })
            .collect();
        Runtime { shared, handles }
    }

    /// The process-wide default runtime. Budget:
    /// `min(available_parallelism, 16)`, overridable with the
    /// `VISDB_EXEC_BUDGET` environment variable. Callers that are not
    /// running on some runtime's worker thread (tests, examples, the
    /// bench harness) land here.
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let budget = std::env::var("VISDB_EXEC_BUDGET")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                        .min(DEFAULT_BUDGET_CAP)
                });
            Runtime::new(budget)
        })
    }

    /// The thread budget (= worker threads owned by this runtime).
    pub fn budget(&self) -> usize {
        self.shared.threads
    }

    /// Current counters.
    pub fn metrics(&self) -> Metrics {
        Metrics {
            threads: self.shared.threads,
            peak_active: self.shared.peak_active.get().max(0) as usize,
            jobs_executed: self.shared.jobs_executed.get() as usize,
            tasks_stolen: self.shared.tasks_stolen.get() as usize,
        }
    }

    /// Publish this runtime's live metric handles into `registry` under
    /// the `exec.*` namespace. The registry then observes every future
    /// update for free — the handles are shared, not copied — so one
    /// call at service start-up is enough:
    ///
    /// - `exec.threads` (gauge): the fixed thread budget,
    /// - `exec.peak_active` (gauge): high-water mark of busy workers,
    /// - `exec.queue_depth` (gauge): jobs enqueued but not yet started,
    /// - `exec.jobs_executed` (counter): fire-and-forget jobs completed,
    /// - `exec.tasks_stolen` (counter): fork-join tasks run by idle
    ///   pool workers rather than the submitting thread,
    /// - `exec.job_latency_ns` (histogram): wall time per job body.
    pub fn register_metrics(&self, registry: &Registry) {
        registry
            .gauge("exec.threads")
            .set(self.shared.threads as i64);
        registry.register_gauge("exec.peak_active", Arc::clone(&self.shared.peak_active));
        registry.register_gauge("exec.queue_depth", Arc::clone(&self.shared.queue_depth));
        registry.register_counter("exec.jobs_executed", Arc::clone(&self.shared.jobs_executed));
        registry.register_counter("exec.tasks_stolen", Arc::clone(&self.shared.tasks_stolen));
        registry.register_histogram("exec.job_latency_ns", Arc::clone(&self.shared.job_latency));
    }

    /// Queue a fire-and-forget job on the pool (the long-lived
    /// task-queue API). Jobs run in FIFO order relative to each other;
    /// a job that panics is contained (the worker survives).
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let mut st = self.shared.lock();
        st.jobs.push_back(Box::new(job));
        // incremented under the state lock, before any worker can pop
        // the job, so the gauge never goes transiently negative
        self.shared.queue_depth.inc();
        drop(st);
        self.shared.work.notify_one();
    }

    /// Fork-join over this runtime: run `f` once per task, letting idle
    /// pool workers steal tasks while the calling thread drains its own
    /// batch. Blocks until every task has finished. Tasks typically own
    /// disjoint `&mut` sub-slices of a caller-local output; no `Arc` or
    /// channels are required.
    ///
    /// Panics (after completing the remaining tasks) if any task
    /// panicked.
    pub fn run_tasks<T: Send>(&self, tasks: Vec<T>, f: impl Fn(T) + Sync) {
        run_tasks_on(&self.shared, tasks, f);
    }

    /// Run `f` with this runtime installed as the calling thread's
    /// current runtime, so nested [`run_tasks`] calls use it instead of
    /// the global pool. Pool worker threads are installed automatically;
    /// this exists for benches and tests driving the pipeline directly.
    /// The previous runtime is restored on exit even if `f` panics (a
    /// caught panic must not leave the thread pointed at a runtime that
    /// may since have been dropped).
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Arc<Shared>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let previous = self.0.take();
                CURRENT.with(|c| *c.borrow_mut() = previous);
            }
        }
        let _restore = Restore(CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(&self.shared))));
        f()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        // workers drain already-queued jobs before exiting; joining from
        // one of this runtime's own workers would deadlock, so detach in
        // that (never expected) case
        let self_worker = CURRENT
            .with(|c| c.borrow().as_ref().map(|s| Arc::ptr_eq(s, &self.shared)))
            .unwrap_or(false);
        for handle in self.handles.drain(..) {
            if self_worker {
                continue;
            }
            let _ = handle.join();
        }
    }
}

/// Fork-join on the calling thread's current runtime (its own pool when
/// called from a worker thread, the [`Runtime::global`] pool otherwise).
/// This is the entry point `visdb_relevance::chunk` fans out through.
pub fn run_tasks<T: Send>(tasks: Vec<T>, f: impl Fn(T) + Sync) {
    let shared = CURRENT.with(|c| c.borrow().clone());
    match shared {
        Some(shared) => run_tasks_on(&shared, tasks, f),
        None => run_tasks_on(&Runtime::global().shared, tasks, f),
    }
}

/// The worker-thread count backing [`run_tasks`] on this thread — how
/// many threads a fork-join here could occupy at most. Callers use it to
/// skip fan-out bookkeeping when the pool cannot parallelize anyway.
pub fn current_budget() -> usize {
    CURRENT
        .with(|c| c.borrow().as_ref().map(|s| s.threads))
        .unwrap_or_else(|| Runtime::global().budget())
}

fn run_tasks_on<T: Send>(shared: &Arc<Shared>, tasks: Vec<T>, f: impl Fn(T) + Sync) {
    if tasks.is_empty() {
        return;
    }
    // nothing to win from the registry dance with a single task, or
    // when this runtime cannot offer a second thread
    if tasks.len() == 1 || shared.threads <= 1 {
        for task in tasks {
            f(task);
        }
        return;
    }
    let source = ScopeSource {
        queue: Mutex::new(ScopeQueue {
            tasks: tasks.into(),
            in_flight: 0,
        }),
        done: Condvar::new(),
        f: &f,
        visitors: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
        stolen: &shared.tasks_stolen,
    };
    // SAFETY: `source` outlives the registration — `unregister` below
    // runs before `source` drops and waits out every visitor. The
    // lifetime transmute only erases 'env from the registry entry.
    let id = unsafe {
        let ptr: *const (dyn StealSource + '_) = &source;
        shared.register(std::mem::transmute::<
            *const (dyn StealSource + '_),
            *const (dyn StealSource + 'static),
        >(ptr))
    };
    // the caller participates: it can finish the whole batch alone, so
    // fork-join never waits on pool capacity (deadlock freedom)
    source.drain(false);
    {
        let mut q = source.lock();
        while !(q.tasks.is_empty() && q.in_flight == 0) {
            q = match source.done.wait(q) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
    shared.unregister(id, &source.visitors);
    if source.panicked.load(Ordering::Acquire) {
        panic!("visdb-exec: a fork-join task panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn fork_join_covers_every_task_exactly_once() {
        let rt = Runtime::new(4);
        let mut out = vec![0usize; 1000];
        let tasks: Vec<(usize, &mut [usize])> = out.chunks_mut(7).enumerate().collect();
        rt.run_tasks(tasks, |(i, chunk)| {
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = i * 7 + j;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i);
        }
    }

    #[test]
    fn spawned_jobs_all_run() {
        let rt = Runtime::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            rt.spawn(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(());
            });
        }
        for _ in 0..50 {
            rx.recv_timeout(std::time::Duration::from_secs(10))
                .expect("job completed");
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50);
        // the jobs_executed metric is bumped *after* a job body runs (a
        // job's own channel send can be observed first), so poll briefly
        // instead of asserting the counter raced ahead
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while rt.metrics().jobs_executed < 50 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(rt.metrics().jobs_executed >= 50);
    }

    #[test]
    fn budget_one_runs_fork_join_inline_on_the_caller() {
        // the single-core guarantee: a budget-1 runtime executes
        // fork-join batches as a plain inline loop on the calling
        // thread — no queue round-trip, no stealing, nothing for a
        // worker to contend on
        let rt = Runtime::new(1);
        let stolen_before = rt.metrics().tasks_stolen;
        let caller = std::thread::current().id();
        let ids = Mutex::new(Vec::new());
        rt.install(|| {
            super::run_tasks((0..8).collect::<Vec<usize>>(), |_| {
                ids.lock().unwrap().push(std::thread::current().id());
            });
        });
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), 8);
        assert!(ids.iter().all(|&id| id == caller));
        assert_eq!(rt.metrics().tasks_stolen, stolen_before);
    }

    #[test]
    fn nested_fork_join_inside_a_job_completes() {
        // a saturated pool must not deadlock: every job runs a fork-join
        let rt = Arc::new(Runtime::new(2));
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..8 {
            let tx = tx.clone();
            let rt2 = Arc::clone(&rt);
            rt.spawn(move || {
                let mut out = vec![0u32; 100_000];
                let tasks: Vec<(usize, &mut [u32])> = out.chunks_mut(1000).enumerate().collect();
                rt2.run_tasks(tasks, |(i, chunk)| {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        *slot = (i * 1000 + j) as u32;
                    }
                });
                assert!(out.iter().enumerate().all(|(i, &v)| v as usize == i));
                let _ = tx.send(());
            });
        }
        for _ in 0..8 {
            rx.recv_timeout(std::time::Duration::from_secs(30))
                .expect("nested fork-join finished");
        }
    }

    #[test]
    fn budget_bounds_live_threads() {
        let rt = Runtime::new(3);
        let m = rt.metrics();
        assert_eq!(m.threads, 3);
        let tasks: Vec<usize> = (0..64).collect();
        rt.run_tasks(tasks, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let m = rt.metrics();
        assert!(m.peak_active <= 3, "peak {} > budget", m.peak_active);
    }

    #[test]
    fn task_panic_propagates_to_the_caller() {
        let rt = Runtime::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.run_tasks((0..10).collect::<Vec<usize>>(), |i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // the pool survives a task panic
        rt.run_tasks(vec![1, 2, 3], |_| {});
    }

    #[test]
    fn job_panic_does_not_kill_the_worker() {
        let rt = Runtime::new(1);
        rt.spawn(|| panic!("contained"));
        let (tx, rx) = std::sync::mpsc::channel();
        rt.spawn(move || {
            let _ = tx.send(42);
        });
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)), Ok(42));
    }

    #[test]
    fn install_routes_run_tasks_to_the_installed_runtime() {
        let rt = Runtime::new(2);
        let before = rt.metrics().tasks_stolen;
        rt.install(|| {
            super::run_tasks((0..256).collect::<Vec<usize>>(), |_| {
                std::thread::sleep(std::time::Duration::from_micros(50));
            });
        });
        // workers of the installed runtime had a chance to steal; at
        // minimum the call completed on the right pool without panicking
        let _ = before;
        assert_eq!(rt.budget(), 2);
    }

    #[test]
    fn drop_joins_workers_and_finishes_queued_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let rt = Runtime::new(2);
            for _ in 0..20 {
                let counter = Arc::clone(&counter);
                rt.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // drop: workers drain the queue, then exit
        assert_eq!(counter.load(Ordering::Relaxed), 20);
    }
}
