//! Set-up, client loops and the passes of one workload run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use visdb_data::generate_environmental;
use visdb_query::connection::ConnectionRegistry;
use visdb_service::json::{parse, Json};
use visdb_service::server::handle_line;
use visdb_service::{Service, ServiceConfig};
use visdb_storage::Database;

use crate::pacer::{achieved_share, backlog_growing, late_start_p95_ms, open_loop, Clock, Wall};
use crate::script::{AppendScript, Interaction, Quantiles, SessionScript, DATASET};
use crate::trace::Tracer;
use crate::workload::{Class, Pacing, Spec};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Lines per session the serial oracle replays.
pub const ORACLE_LINES: usize = 200;

/// The untimed warm-up is this share of the workload's tabled script.
const WARMUP_SHARE: f64 = 0.025;

/// A client stays with a session for this many interactions before it
/// turns to its next one: users work in bursts, and with strict
/// round-robin the gap between two interactions of one session would
/// grow with the session count (under a live feed, long enough that an
/// append lands in most gaps and a "settled" session rarely is).
const BURST: usize = 8;

/// The generated dataset and what the script needs to know about it.
pub struct Data {
    /// The registered database.
    pub db: Arc<Database>,
    /// Its declared connections.
    pub registry: ConnectionRegistry,
    /// Column quantiles thresholds are drawn from.
    pub quantiles: Quantiles,
}

impl Data {
    /// Generate the workload's dataset and sort its threshold columns.
    pub fn generate(spec: &Spec) -> Data {
        let env = generate_environmental(&spec.env);
        let quantiles = Quantiles::of(&env.db, spec);
        Data {
            db: Arc::new(env.db),
            registry: env.registry,
            quantiles,
        }
    }
}

/// One timed interaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Its class.
    pub class: Class,
    /// First line's bytes handed over (closed loop) or due time (open
    /// loop) until the last reply's bytes exist as a `String`.
    pub latency_ns: u64,
    /// Every reply said `"ok":true`.
    pub ok: bool,
    /// For drags: whether the reply said `"incremental":true`.
    pub incremental: Option<bool>,
}

/// The counters of one traced pipeline run, read off a `trace:true`
/// summary reply.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTrace {
    /// Rows the distance pass examined.
    pub rows_scanned: f64,
    /// Streaming offers the top-k threshold short-circuited.
    pub rows_pruned: f64,
    /// Windows served by the per-session cache.
    pub session_hits: f64,
    /// Windows served by the shared cache.
    pub shared_hits: f64,
    /// Windows actually evaluated.
    pub evaluated: f64,
}

/// What the harness remembers about one session for the oracle.
#[derive(Debug, Default)]
pub struct Record {
    /// The first [`ORACLE_LINES`] `(line, reply)` pairs since creation.
    pub lines: Vec<(String, String)>,
    /// The lines that define the session's current state: its policy
    /// line, the last `set_query` and every slider / weight change since.
    pub state: Vec<String>,
    /// `objects` of every `summary` reply.
    pub objects: Vec<usize>,
    /// Class of the session's previous interaction.
    prev: Option<Class>,
}

impl Record {
    fn keep(&mut self, recording: bool, line: &str, reply: &str) {
        if recording && self.lines.len() < ORACLE_LINES {
            self.lines.push((line.to_string(), reply.to_string()));
        }
    }
}

/// Everything one client thread owns.
pub struct ClientState<'a> {
    scripts: Vec<SessionScript<'a>>,
    /// Per owned session, in script order.
    pub records: Vec<Record>,
    cursor: usize,
    /// Pipeline-run counters sampled in the traced pass.
    pub run_traces: Vec<RunTrace>,
}

/// The append client's state.
pub struct FeedState<'a> {
    /// The append stream.
    pub script: AppendScript<'a>,
    /// The monitor session's record.
    pub record: Record,
    /// See [`ClientState::run_traces`].
    pub run_traces: Vec<RunTrace>,
}

/// A service with its sessions created, configured and warmed up.
pub struct Rig<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// The dataset.
    pub data: &'a Data,
    /// The service under test.
    pub service: Service,
    /// One per analyst client thread.
    pub clients: Vec<ClientState<'a>>,
    /// The append client.
    pub feed: FeedState<'a>,
    /// Whether `(line, reply)` pairs are still being kept for the oracle.
    pub recording: bool,
    /// Wall time of every `create_session` line at set-up.
    pub create_session_ns: Vec<u64>,
}

/// `ServiceConfig` as `visdb-server` ships it, on a two-thread budget.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Timed interactions, all clients.
    pub samples: Vec<Sample>,
    /// First client start to last client end.
    pub wall_s: f64,
    /// Late start of every open-loop slot (one per open-loop interaction).
    pub late_ns: Vec<u64>,
    /// Whether any open-loop client's backlog kept growing.
    pub backlog_growing: bool,
    /// The smallest share of its offered rate an open-loop client
    /// achieved ([`achieved_share`]).
    pub achieved_share: Option<f64>,
}

/// An open loop's achieved rate may miss the offered one by this share.
const RATE_TOLERANCE: f64 = 0.01;

/// The direct-manipulation limit `within_100ms_ratio` is held against.
pub const LATENCY_LIMIT_MS: f64 = 100.0;

impl Pass {
    /// Interactions completed per second of wall time.
    pub fn rate(&self) -> f64 {
        self.samples.len() as f64 / self.wall_s
    }

    /// Share of the interactions answered correctly within
    /// [`LATENCY_LIMIT_MS`]; a failed one misses any limit.
    pub fn within_limit_ratio(&self) -> f64 {
        let within = |s: &&Sample| s.ok && s.latency_ns as f64 / 1e6 <= LATENCY_LIMIT_MS;
        self.samples.iter().filter(within).count() as f64 / self.samples.len() as f64
    }

    /// What makes a run incorrect although every reply was right — one
    /// entry per reason, each counted as a failure. A generator whose
    /// backlog kept growing, or that missed its offered rate, measured its
    /// own queue and not the system; and a system that answers fewer than
    /// the workload's tabled share of interactions within the
    /// direct-manipulation limit has stopped doing its job, whatever its
    /// medians say.
    pub fn violations(&self, spec: &Spec) -> Vec<String> {
        let mut reasons = Vec::new();
        if self.backlog_growing {
            reasons.push(format!(
                "{}: an open loop's backlog kept growing (late-start p95 {:.1} ms)",
                spec.name,
                late_start_p95_ms(&self.late_ns)
            ));
        }
        if let Some(share) = self.achieved_share.filter(|s| *s < 1.0 - RATE_TOLERANCE) {
            reasons.push(format!(
                "{}: an open loop achieved {:.1} % of its offered rate",
                spec.name,
                share * 100.0
            ));
        }
        let within = self.within_limit_ratio();
        if within < spec.within_limit_floor {
            reasons.push(format!(
                "{}: {within:.4} of the interactions were answered within {LATENCY_LIMIT_MS} ms, \
                 the floor is {}",
                spec.name, spec.within_limit_floor
            ));
        }
        reasons
    }
}

impl<'a> Rig<'a> {
    /// Create the service, register the data, open and configure every
    /// session, and run the untimed warm-up.
    pub fn set_up(spec: &'a Spec, data: &'a Data, seed: u64) -> Rig<'a> {
        let service = Service::new(service_config());
        service.register_dataset(DATASET, Arc::clone(&data.db), data.registry.clone());
        let mut create_session_ns = Vec::new();
        let mut create = |expected: usize| {
            let started = Instant::now();
            let reply = handle_line(
                &service,
                &format!("{{\"op\":\"create_session\",\"dataset\":\"{DATASET}\"}}"),
            );
            create_session_ns.push(started.elapsed().as_nanos() as u64);
            let id = reply.get("session").and_then(Json::as_u64);
            assert_eq!(id, Some(expected as u64 + 1), "sessions number from 1");
        };
        let mut clients = Vec::new();
        let mut next_session = 0;
        for client in &spec.clients {
            let mut scripts = Vec::new();
            let mut records = Vec::new();
            for session in next_session..next_session + client.sessions {
                create(session);
                let mut script = SessionScript::new(spec, &data.quantiles, seed, session);
                let mut record = Record::default();
                let line = script.policy_line();
                record.keep(true, &line, &handle_line(&service, &line).to_string());
                record.state.push(line);
                scripts.push(script);
                records.push(record);
            }
            next_session += client.sessions;
            clients.push(ClientState {
                scripts,
                records,
                cursor: 0,
                run_traces: Vec::new(),
            });
        }
        create(next_session);
        let mut feed = FeedState {
            script: AppendScript::new(spec, &data.quantiles, &data.db, seed, next_session),
            record: Record::default(),
            run_traces: Vec::new(),
        };
        for line in feed.script.setup_lines() {
            let reply = handle_line(&service, &line).to_string();
            assert!(reply.contains("\"ok\":true"), "monitor set-up: {reply}");
            feed.record.state.push(line);
        }
        let mut rig = Rig {
            spec,
            data,
            service,
            clients,
            feed,
            recording: true,
            create_session_ns,
        };
        let warmup = (spec.interactions as f64 * WARMUP_SHARE) as usize;
        let pass = rig.pass(warmup.max(1), true, None);
        assert!(
            pass.samples.iter().all(|s| s.ok),
            "{}: a warm-up interaction failed",
            spec.name
        );
        rig
    }

    /// One pass of `interactions` analyst interactions, dealt evenly over
    /// the analyst clients: the run length is a count, the same on every
    /// commit. The feed appends on its schedule for as long as an analyst
    /// is still working. `warmup` runs the analysts closed loop and leaves
    /// the feed out; `tracers` (one per analyst client, then one for the
    /// append client) switches to the decomposed path.
    pub fn pass(
        &mut self,
        interactions: usize,
        warmup: bool,
        tracers: Option<&mut [Tracer]>,
    ) -> Pass {
        let spec = self.spec;
        let service = &self.service;
        let recording = self.recording;
        let clock = Wall(Instant::now());
        let per_client = interactions.div_ceil(spec.clients.len());
        let mut tracers: Vec<Option<&mut Tracer>> = match tracers {
            Some(t) => t.iter_mut().map(Some).collect(),
            None => (0..=spec.clients.len()).map(|_| None).collect(),
        };
        let feed_tracer = tracers.pop().expect("one tracer slot per client + feed");
        let working = AtomicUsize::new(spec.clients.len());
        let mut pass = Pass::default();
        let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for ((client, state), tracer) in spec.clients.iter().zip(&mut self.clients).zip(tracers)
            {
                let pacing = if warmup {
                    Pacing::Closed
                } else {
                    client.pacing
                };
                let mut run = ClientRun {
                    service,
                    recording,
                    tracer,
                    clock: &clock,
                };
                let working = &working;
                handles.push(scope.spawn(move || {
                    let _done = Done(working);
                    run.analyst(state, pacing, per_client)
                }));
            }
            if let (Some(feed), false) = (spec.feed, warmup) {
                let state = &mut self.feed;
                let mut run = ClientRun {
                    service,
                    recording,
                    tracer: feed_tracer,
                    clock: &clock,
                };
                let working = &working;
                handles.push(scope.spawn(move || run.feed(state, feed.interval_ms, working)));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        pass.wall_s = clock.0.elapsed().as_secs_f64();
        for outcome in outcomes {
            pass.samples.extend(outcome.samples);
            if let Some((interval_ns, late_ns)) = outcome.schedule {
                pass.backlog_growing |= backlog_growing(&late_ns, interval_ns);
                let share = achieved_share(&late_ns, interval_ns);
                pass.achieved_share = Some(pass.achieved_share.map_or(share, |s| s.min(share)));
                pass.late_ns.extend(late_ns);
            }
        }
        pass
    }

    /// Switch every script's `summary` lines to `trace:true`.
    pub fn set_traced(&mut self, traced: bool) {
        for client in &mut self.clients {
            for script in &mut client.scripts {
                script.traced = traced;
            }
        }
        self.feed.script.set_traced(traced);
    }
}

/// Counts an analyst out when its thread ends, panicking or not: the
/// feed must never wait for one that is gone.
struct Done<'a>(&'a AtomicUsize);

impl Drop for Done<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

struct ClientOutcome {
    samples: Vec<Sample>,
    /// Open loops only: the schedule's interval and every late start.
    schedule: Option<(u64, Vec<u64>)>,
}

/// One client thread's view of a pass.
struct ClientRun<'r, 't> {
    service: &'r Service,
    recording: bool,
    tracer: Option<&'t mut Tracer>,
    /// Counts from the start of the pass.
    clock: &'r Wall,
}

impl ClientRun<'_, '_> {
    /// Send an interaction's lines, time them from `from_ns` on the pass
    /// clock (now, or the due time of an open-loop slot), then do the
    /// bookkeeping.
    fn perform(
        &mut self,
        it: &Interaction,
        from_ns: Option<u64>,
        record: &mut Record,
        run_traces: &mut Vec<RunTrace>,
    ) -> Sample {
        let from_ns = from_ns.unwrap_or_else(|| self.clock.now_ns());
        let replies: Vec<String> = match &mut self.tracer {
            None => it
                .lines
                .iter()
                .map(|line| handle_line(self.service, line).to_string())
                .collect(),
            Some(tracer) => {
                let span = tracer.begin_interaction(self.clock.0 + Duration::from_nanos(from_ns));
                let replies = it
                    .lines
                    .iter()
                    .map(|line| tracer.line(self.service, line, span))
                    .collect();
                tracer.end_interaction(span);
                replies
            }
        };
        let latency_ns = self.clock.now_ns() - from_ns;
        self.note(it, &replies, latency_ns, record, run_traces)
    }

    /// Everything that happens to a reply after its bytes exist: the
    /// `"ok"` check, the oracle's record, the sampled pipeline trace.
    fn note(
        &self,
        it: &Interaction,
        replies: &[String],
        latency_ns: u64,
        record: &mut Record,
        run_traces: &mut Vec<RunTrace>,
    ) -> Sample {
        for (line, reply) in it.lines.iter().zip(replies) {
            record.keep(self.recording, line, reply);
        }
        match it.class {
            Class::ColdQuery => {
                record.state.truncate(1);
                record.state.push(it.lines[0].clone());
            }
            Class::Slide | Class::Reweight | Class::DragDense | Class::DragSparse => {
                record.state.push(it.lines[0].clone())
            }
            Class::Reask | Class::FramePpm | Class::Append => {}
        }
        let summary = match it.class {
            Class::Reask => Some(&replies[0]),
            Class::Append => Some(&replies[1]),
            _ => None,
        };
        if let Some(summary) = summary.and_then(|s| parse(s).ok()) {
            let summary = summary.get("summary");
            let field =
                |j: Option<&Json>, key: &str| j.and_then(|j| j.get(key)).and_then(Json::as_f64);
            if let Some(objects) = field(summary, "objects") {
                record.objects.push(objects as usize);
            }
            // a settled summary re-reports the trace of the session's
            // last pipeline run: sample it once, when that run is new
            let fresh = it.class == Class::Append
                || matches!(
                    record.prev,
                    Some(Class::ColdQuery | Class::Slide | Class::Reweight)
                );
            let trace = summary.and_then(|s| s.get("trace"));
            if let (true, Some(rows_scanned)) = (fresh, field(trace, "rows_scanned")) {
                run_traces.push(RunTrace {
                    rows_scanned,
                    rows_pruned: field(trace, "rows_pruned").unwrap_or(0.0),
                    session_hits: field(trace, "window_cache_hits").unwrap_or(0.0),
                    shared_hits: field(trace, "shared_window_hits").unwrap_or(0.0),
                    evaluated: field(trace, "windows_evaluated").unwrap_or(0.0),
                });
            }
        }
        record.prev = Some(it.class);
        Sample {
            class: it.class,
            latency_ns,
            ok: replies.iter().all(|r| r.contains("\"ok\":true")),
            incremental: it
                .class
                .unsettles()
                .then(|| replies[0].contains("\"incremental\":true")),
        }
    }

    /// Run `step` on a fixed schedule for as long as it returns `true`,
    /// each slot timed from its due time; returns every late start.
    fn on_schedule(
        &mut self,
        interval_ns: u64,
        mut step: impl FnMut(&mut Self, Option<u64>) -> bool,
    ) -> Vec<u64> {
        let clock = self.clock;
        // half an interval of lead so slot 0 is not born late
        let first_due = clock.now_ns() + interval_ns / 2;
        open_loop(clock, first_due, interval_ns, |_, due| {
            step(self, Some(due))
        })
    }

    /// `interactions` of this client's sessions, in bursts, paced as told.
    fn analyst(
        &mut self,
        state: &mut ClientState,
        pacing: Pacing,
        interactions: usize,
    ) -> ClientOutcome {
        let mut samples = Vec::with_capacity(interactions);
        let mut step = |run: &mut Self, from_ns: Option<u64>| {
            let session = state.cursor / BURST % state.scripts.len();
            state.cursor += 1;
            let it = state.scripts[session].next().expect("scripts are endless");
            let record = &mut state.records[session];
            samples.push(run.perform(&it, from_ns, record, &mut state.run_traces));
            samples.len() < interactions
        };
        let schedule = match pacing {
            Pacing::Closed => {
                while step(self, None) {}
                None
            }
            Pacing::Open { per_s } => {
                let interval_ns = (1e9 / per_s) as u64;
                Some((interval_ns, self.on_schedule(interval_ns, step)))
            }
        };
        ClientOutcome { samples, schedule }
    }

    /// The feed: one append due every `interval_ms` while an analyst works.
    fn feed(
        &mut self,
        state: &mut FeedState,
        interval_ms: u64,
        working: &AtomicUsize,
    ) -> ClientOutcome {
        let mut samples = Vec::new();
        let interval_ns = interval_ms * 1_000_000;
        let late_ns = self.on_schedule(interval_ns, |run, from_ns| {
            let it = state.script.next().expect("scripts are endless");
            samples.push(run.perform(&it, from_ns, &mut state.record, &mut state.run_traces));
            working.load(Ordering::Acquire) > 0
        });
        ClientOutcome {
            samples,
            schedule: Some((interval_ns, late_ns)),
        }
    }
}

/// `VmHWM` of this process in MiB (`NaN` where `/proc` has no such line).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::workload;

    /// A service over the smoke dataset of `solo_1m`, no sessions yet.
    pub fn tiny_service() -> Service {
        let spec = workload::by_name("solo_1m").unwrap().smoke();
        let data = Data::generate(&spec);
        let service = Service::new(service_config());
        service.register_dataset(DATASET, data.db, data.registry);
        service
    }

    #[test]
    fn a_late_generator_or_a_slow_system_is_a_violation() {
        let crowd = workload::by_name("crowd_50k").unwrap();
        let sample = Sample {
            class: Class::Reask,
            latency_ns: 1_000_000,
            ok: true,
            incremental: None,
        };
        let mut pass = Pass {
            samples: vec![sample; 10_000],
            wall_s: 20.0,
            achieved_share: Some(0.995),
            ..Pass::default()
        };
        assert_eq!(pass.violations(&crowd), Vec::<String>::new());
        // 2 % short of the offered rate: the generator fell behind
        pass.achieved_share = Some(0.98);
        assert_eq!(pass.violations(&crowd).len(), 1);
        pass.backlog_growing = true;
        assert_eq!(pass.violations(&crowd).len(), 2);
        // one interaction in five past the limit, or failed, is too many
        for miss in [
            Sample {
                latency_ns: 101_000_000,
                ..sample
            },
            Sample {
                ok: false,
                ..sample
            },
        ] {
            pass.samples[..2_000].fill(miss);
            assert_eq!(pass.within_limit_ratio(), 0.8);
            assert_eq!(pass.violations(&crowd).len(), 3);
        }
    }

    #[test]
    fn a_scheduled_interaction_is_timed_from_its_due_time() {
        let spec = workload::by_name("solo_1m").unwrap().smoke();
        let data = Data::generate(&spec);
        let mut rig = Rig::set_up(&spec, &data, 1);
        let clock = Wall(Instant::now());
        let mut run = ClientRun {
            service: &rig.service,
            recording: false,
            tracer: None,
            clock: &clock,
        };
        let client = &mut rig.clients[0];
        let it = client.scripts[0].next().unwrap();
        let (record, traces) = (&mut client.records[0], &mut client.run_traces);
        // served 200 ms after it was due: the wait is part of the latency
        std::thread::sleep(Duration::from_millis(200));
        let late = run.perform(&it, Some(0), record, traces);
        assert!(late.ok && late.latency_ns >= 200_000_000);
        // closed loop: from the moment the first line is handed over
        let it = client.scripts[0].next().unwrap();
        let prompt = run.perform(&it, None, record, traces);
        assert!(prompt.ok && prompt.latency_ns < late.latency_ns);
    }
}
