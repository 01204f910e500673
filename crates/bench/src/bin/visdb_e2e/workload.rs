//! The four workloads and the vocabulary they are written in:
//! interaction classes, query forms, clients and pacing.

use visdb_data::EnvConfig;

/// One kind of §4.3 interaction, named by its *input* — never by which
/// path of the program happened to serve it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// `set_query` with a new text + `render` ascii.
    ColdQuery,
    /// `move_slider` on window 0 of a multi-window query + `render` ascii.
    Slide,
    /// `set_weight` + `render` ascii.
    Reweight,
    /// One `drag_slider` leaving `k ≤ exact ≤ 16k` (k = display count).
    DragDense,
    /// One `drag_slider` leaving `exact < k`.
    DragSparse,
    /// `summary` + `render` ascii on a settled session.
    Reask,
    /// `render` ppm on a settled session.
    FramePpm,
    /// `append_rows` + `summary` on the monitor session.
    Append,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 8] = [
        Class::ColdQuery,
        Class::Slide,
        Class::Reweight,
        Class::DragDense,
        Class::DragSparse,
        Class::Reask,
        Class::FramePpm,
        Class::Append,
    ];

    /// The name used in metric names (`<name>_p50_ms`, `gen.samples.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            Class::ColdQuery => "cold_query",
            Class::Slide => "slide",
            Class::Reweight => "reweight",
            Class::DragDense => "drag_dense",
            Class::DragSparse => "drag_sparse",
            Class::Reask => "reask",
            Class::FramePpm => "frame_ppm",
            Class::Append => "append",
        }
    }

    /// Position in [`Class::ALL`] (index into per-class arrays).
    pub fn index(self) -> usize {
        self as usize
    }

    /// A drag replies without caching a result, so the session's next
    /// fetch recomputes: `reask` / `frame_ppm` may not follow one.
    pub fn unsettles(self) -> bool {
        matches!(self, Class::DragDense | Class::DragSparse)
    }

    /// Classes that are only meaningful on a settled session.
    pub fn needs_settled(self) -> bool {
        matches!(self, Class::Reask | Class::FramePpm)
    }
}

/// A top-level comparison window: `(column, operator)`.
pub type Pred = (&'static str, &'static str);

/// A query template a `cold_query` instantiates with fresh thresholds.
#[derive(Debug)]
pub struct Form {
    /// Top-level predicate windows on the outer table, in window order.
    pub preds: &'static [Pred],
    /// `DateTime IN (SELECT DateTime FROM <table> WHERE <column> <op> b)`
    /// appended as the last window (§4.4 approximate join).
    pub subquery: Option<(&'static str, Pred)>,
    /// What may follow a cold query of this form within its episode.
    pub admits: &'static [Class],
}

const WEATHER_3: Form = Form {
    preds: &[
        ("Temperature", ">"),
        ("Humidity", "<"),
        ("Solar-Radiation", ">"),
    ],
    subquery: None,
    admits: &[Class::Slide, Class::Reweight, Class::Reask, Class::FramePpm],
};

/// The only shape the sorted-projection fast path accepts: one bare
/// monotone predicate at the root.
const WEATHER_1: Form = Form {
    preds: &[("Temperature", ">")],
    subquery: None,
    admits: &[
        Class::DragDense,
        Class::DragSparse,
        Class::Reask,
        Class::FramePpm,
    ],
};

const JOIN: Form = Form {
    preds: &[("Ozone", ">=")],
    subquery: Some(("Weather", ("Temperature", ">="))),
    admits: &[
        Class::Slide,
        Class::Reweight,
        Class::DragDense,
        Class::DragSparse,
        Class::Reask,
        Class::FramePpm,
    ],
};

/// How a client decides when to send its next interaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Callers that wait for each reply: the next interaction is sent
    /// when the previous one completed.
    Closed,
    /// Independent users: interactions are due on a fixed schedule
    /// (`per_s` a second) whether or not earlier ones have completed, and
    /// latency counts from the due time.
    Open {
        /// Interactions due per second on this client.
        per_s: f64,
    },
}

/// One client thread driving `sessions` sessions round-robin.
#[derive(Debug, Clone, Copy)]
pub struct Client {
    /// Sessions this client owns (a session belongs to one client only).
    pub sessions: usize,
    /// Closed or open loop.
    pub pacing: Pacing,
}

/// The open-loop append client of `append_live_200k`.
#[derive(Debug, Clone, Copy)]
pub struct Feed {
    /// One `append` is due every this many milliseconds.
    pub interval_ms: u64,
}

/// Rows per `append` (0.1 % of the 200 k-row live table).
pub const APPEND_ROWS: usize = 200;

/// Everything that defines a workload.
#[derive(Debug)]
pub struct Spec {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// One sentence: why the workload exists.
    pub why: &'static str,
    /// `generate_environmental` configuration. The data is fixed per
    /// workload; `--seed` drives the script (thresholds, order, rows).
    pub env: EnvConfig,
    /// The table sessions query and appends land in.
    pub outer: &'static str,
    /// Query forms; consecutive cold queries of a session cycle them.
    /// A form may repeat: a class median over two equally frequent forms
    /// of different cost would sit on the boundary between two modes.
    pub forms: &'static [&'static Form],
    /// Per-session class counts of one round of the script.
    pub round: &'static [(Class, usize)],
    /// Analyst clients (at most two threads, feed included).
    pub clients: Vec<Client>,
    /// The concurrent append client, where the workload has one.
    pub feed: Option<Feed>,
    /// `deadline_ms` carried by every session line.
    pub deadline_ms: Option<u64>,
    /// Cold queries of a single-window form draw their threshold from this
    /// many fixed values — "dashboard" texts every session shares, for
    /// cross-session cache hits — instead of a never-seen one (0: never).
    pub dashboards: usize,
    /// A run that answers a smaller share of its interactions within the
    /// 100 ms direct-manipulation limit is incorrect. Set well under what
    /// the seed code reads on a bad day of the measuring box.
    pub within_limit_floor: f64,
    /// Timed analyst interactions of a [`RUN_SECONDS`] run: what the seed
    /// code got through in that time when the count was calibrated. The
    /// length of a run is this count, not a time budget, so every commit
    /// is measured over the same work.
    pub interactions: usize,
}

/// The `--seconds` the tabled interaction counts were calibrated for
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 20.0;

impl Spec {
    /// Interactions in one round of one session.
    #[cfg(test)]
    pub fn round_len(&self) -> usize {
        self.round.iter().map(|(_, n)| n).sum()
    }

    /// Interactions per second the open-loop analyst clients offer (0 for
    /// a closed loop, which offers whatever the system completes).
    pub fn offered_rate(&self) -> f64 {
        let open = |c: &Client| match c.pacing {
            Pacing::Open { per_s } => per_s,
            Pacing::Closed => 0.0,
        };
        self.clients.iter().map(open).sum()
    }

    /// Timed analyst interactions of a `--seconds` run: the tabled count,
    /// in proportion.
    pub fn interactions_in(&self, seconds: f64) -> usize {
        ((self.interactions as f64 * seconds / RUN_SECONDS).round() as usize).max(1)
    }

    /// `--smoke`: the same script shape over ≤ 5 k rows, ≤ 2 sessions a
    /// client and 300 interactions (with an append every 20 ms, so that a
    /// handful still land beside them), for tests and a ten-second
    /// end-to-end check.
    pub fn smoke(mut self) -> Spec {
        self.env.hours = self.env.hours.min(5_000 / self.env.stations);
        for client in &mut self.clients {
            client.sessions = client.sessions.min(2);
        }
        if let Some(feed) = &mut self.feed {
            feed.interval_ms = 20;
        }
        self.interactions = 300;
        self
    }
}

fn env(hours: usize, stations: usize, seed: u64) -> EnvConfig {
    EnvConfig {
        hours,
        stations,
        seed,
        ..EnvConfig::default()
    }
}

/// Three multi-window cold queries for every single-window one: every
/// class median then lies well inside the multi-window mode.
const WEATHER_FORMS: &[&Form] = &[&WEATHER_3, &WEATHER_1, &WEATHER_3, &WEATHER_3];

/// The four workloads, in report order.
pub fn all() -> Vec<Spec> {
    let default_seed = EnvConfig::default().seed;
    vec![
        Spec {
            name: "solo_1m",
            why: "One analyst on 1 M rows, closed loop: the four pipeline phases are > 90 % of \
                  every heavy class and the working set dwarfs every shared cache.",
            env: env(1_000_000, 1, default_seed),
            outer: "Weather",
            forms: WEATHER_FORMS,
            round: &[
                (Class::ColdQuery, 4),
                (Class::Slide, 4),
                (Class::Reweight, 3),
                (Class::DragSparse, 3),
                (Class::DragDense, 12),
                (Class::Reask, 4),
                (Class::FramePpm, 3),
            ],
            clients: vec![Client {
                sessions: 1,
                pacing: Pacing::Closed,
            }],
            feed: None,
            deadline_ms: None,
            dashboards: 0,
            within_limit_floor: 0.85,
            interactions: 660,
        },
        Spec {
            name: "crowd_50k",
            why: "32 independent users on 50 k rows, open loop at 500/s: JSON, dispatch, \
                  admission, hand-off, cache locks and render outweigh a 2 ms pipeline.",
            env: env(50_000, 1, default_seed),
            outer: "Weather",
            forms: WEATHER_FORMS,
            round: &[
                (Class::ColdQuery, 8),
                (Class::Slide, 25),
                (Class::Reweight, 15),
                (Class::DragDense, 30),
                (Class::DragSparse, 7),
                (Class::Reask, 10),
                (Class::FramePpm, 5),
            ],
            clients: vec![
                Client {
                    sessions: 16,
                    pacing: Pacing::Open { per_s: 250.0 },
                };
                2
            ],
            feed: None,
            deadline_ms: Some(2_000),
            dashboards: 4,
            within_limit_floor: 0.9,
            interactions: 10_000,
        },
        Spec {
            name: "append_live_200k",
            why: "Eight analyst sessions, closed loop, beside an open-loop feed appending 0.1 % \
                  every 200 ms: writes and reads share caches, projections and live sessions.",
            env: env(200_000, 1, default_seed),
            outer: "Weather",
            forms: WEATHER_FORMS,
            round: &[
                (Class::ColdQuery, 4),
                (Class::Slide, 12),
                (Class::Reweight, 4),
                (Class::DragDense, 40),
                (Class::DragSparse, 8),
                (Class::Reask, 8),
                (Class::FramePpm, 4),
            ],
            clients: vec![Client {
                sessions: 8,
                pacing: Pacing::Closed,
            }],
            feed: Some(Feed { interval_ms: 200 }),
            deadline_ms: None,
            dashboards: 0,
            within_limit_floor: 0.9,
            interactions: 4_200,
        },
        Spec {
            name: "join_explore_200k",
            why: "One analyst exploring an IN-subquery join (paper 4.4) of 200 k x 200 k rows, closed \
                  loop: the materialization-forcing subquery node and the banded sweep.",
            env: env(100_000, 2, 7),
            outer: "Air-Pollution",
            forms: &[&JOIN],
            round: &[
                (Class::ColdQuery, 3),
                (Class::Slide, 10),
                (Class::Reweight, 3),
                (Class::DragDense, 2),
                (Class::DragSparse, 2),
                (Class::Reask, 5),
                (Class::FramePpm, 3),
            ],
            clients: vec![Client {
                sessions: 1,
                pacing: Pacing::Closed,
            }],
            feed: None,
            deadline_ms: None,
            dashboards: 0,
            within_limit_floor: 0.9,
            interactions: 1_960,
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_dealable_and_clients_fit_two_threads() {
        for spec in all() {
            let threads = spec.clients.len() + usize::from(spec.feed.is_some());
            assert!(threads <= 2, "{}", spec.name);
            // every round opens one episode per entry of the form cycle,
            // and every class of the round is admitted by some form
            let cold = spec.round.iter().find(|(c, _)| *c == Class::ColdQuery);
            assert!(cold.is_some_and(|(_, n)| n % spec.forms.len() == 0));
            for (class, _) in spec.round.iter().filter(|(c, _)| *c != Class::ColdQuery) {
                assert!(
                    spec.forms.iter().any(|f| f.admits.contains(class)),
                    "{}: no form admits {}",
                    spec.name,
                    class.name()
                );
            }
            let smoke = by_name(spec.name).unwrap().smoke();
            assert!(smoke.env.hours * smoke.env.stations <= 5_000);
            assert!(smoke.interactions <= 300);
        }
    }
}
