//! The open-loop pacer: interactions are due on a fixed schedule whether
//! or not earlier ones have completed, and latency counts from the due
//! time — so a stall is charged to every request queued behind it
//! instead of silently slowing the generator down (coordinated omission).

use std::time::{Duration, Instant};

use crate::stats::{percentile, sorted};

/// Time as the pacer sees it; tests drive a virtual clock.
pub trait Clock {
    /// Nanoseconds since the clock's epoch.
    fn now_ns(&self) -> u64;
    /// Return no earlier than `t_ns` (immediately when already past).
    fn wait_until(&self, t_ns: u64);
}

/// The wall clock.
pub struct Wall(pub Instant);

/// `thread::sleep` overshoots by tens of microseconds — as much as a
/// fast-path drag takes — so the last stretch before a due time is spun.
const SPIN: Duration = Duration::from_micros(200);

impl Clock for Wall {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t_ns: u64) {
        let due = self.0 + Duration::from_nanos(t_ns);
        if let Some(sleep) = due
            .checked_duration_since(Instant::now())
            .and_then(|d| d.checked_sub(SPIN))
        {
            std::thread::sleep(sleep);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
    }
}

/// Run `serve` on a fixed schedule, slot `k` due at `first_due + k·interval`,
/// for as long as it returns `true`; returns every slot's late start
/// (actual start minus due time: how late the generator ran). `serve` gets
/// the slot and its due time, which is where the slot's latency counts
/// from. The caller is one blocking client: a slot whose predecessor is
/// still being served starts late, and that wait is part of its latency.
pub fn open_loop(
    clock: &impl Clock,
    first_due_ns: u64,
    interval_ns: u64,
    mut serve: impl FnMut(usize, u64) -> bool,
) -> Vec<u64> {
    let mut late_ns = Vec::new();
    loop {
        let due = first_due_ns + late_ns.len() as u64 * interval_ns;
        clock.wait_until(due);
        late_ns.push(clock.now_ns().saturating_sub(due));
        if !serve(late_ns.len() - 1, due) {
            return late_ns;
        }
    }
}

/// p95 of the late starts, in milliseconds (0 for a closed loop).
pub fn late_start_p95_ms(late_ns: &[u64]) -> f64 {
    if late_ns.is_empty() {
        return 0.0;
    }
    let late: Vec<f64> = late_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    percentile(&sorted(&late), 0.95)
}

/// Median late start of the schedule's last tenth (by which a slot
/// started late *by the end*; a median, so that one stall is not a trend)
/// and of its first tenth. `None` for a schedule under ten slots.
fn tenths(late_ns: &[u64]) -> Option<(u64, u64)> {
    let tenth = late_ns.len() / 10;
    let median_of = |part: &[u64]| {
        let mut v = part.to_vec();
        v.sort_unstable();
        v[v.len() / 2]
    };
    (tenth > 0).then(|| {
        (
            median_of(&late_ns[..tenth]),
            median_of(&late_ns[late_ns.len() - tenth..]),
        )
    })
}

/// Whether the generator fell behind and kept falling: the median late
/// start of the schedule's last tenth exceeds ten intervals *and* twice
/// that of its first tenth. A run with a growing backlog measures the
/// queue, not the system, and is invalid.
pub fn backlog_growing(late_ns: &[u64], interval_ns: u64) -> bool {
    tenths(late_ns).is_some_and(|(first, last)| last > 10 * interval_ns && last > 2 * first)
}

/// The share of its offered rate the generator achieved: the schedule's
/// length ÷ the time it took to get its slots started, which is longer by
/// however late they were starting by the end (see [`tenths`]: a stall
/// that happens to fall on the last slots is the box's, not a rate).
pub fn achieved_share(late_ns: &[u64], interval_ns: u64) -> f64 {
    let scheduled = (late_ns.len() as u64 * interval_ns) as f64;
    tenths(late_ns).map_or(1.0, |(_, last)| scheduled / (scheduled + last as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when someone waits on it or serves.
    struct Virtual(Cell<u64>);

    impl Clock for Virtual {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn latency_counts_from_the_due_time() {
        let clock = Virtual(Cell::new(0));
        // every slot takes 1 ms except slot 2, which stalls for 10 ms
        let mut latency = Vec::new();
        let late_ns = open_loop(&clock, 0, 4 * MS, |k, due| {
            let service = if k == 2 { 10 * MS } else { MS };
            clock.0.set(clock.0.get() + service);
            // as `ClientRun::perform` times a sample: completion − start
            latency.push((clock.now_ns() - due) / MS);
            k + 1 < 6
        });
        let late: Vec<u64> = late_ns.iter().map(|l| l / MS).collect();
        // slot 2 is due at 8 and ends at 18; slot 3 (due 12) and slot 4
        // (due 16) queue behind it and pay for the stall, slot 5 is clear
        assert_eq!(late, [0, 0, 0, 6, 3, 0]);
        assert_eq!(latency, [1, 1, 10, 7, 4, 1]);
        assert_eq!(late_start_p95_ms(&[]), 0.0);
        assert_eq!(late_start_p95_ms(&late_ns), 6.0);
        assert!(!backlog_growing(&late_ns, 4 * MS));
    }

    #[test]
    fn a_server_slower_than_the_schedule_grows_a_backlog() {
        let clock = Virtual(Cell::new(0));
        // 5 ms of service on a 4 ms schedule: 1 ms further behind per slot
        let late_ns = open_loop(&clock, 0, 4 * MS, |k, _| {
            clock.0.set(clock.0.get() + 5 * MS);
            k + 1 < 400
        });
        assert_eq!(late_ns[399], 399 * MS);
        assert!(backlog_growing(&late_ns, 4 * MS));
        // 400 slots of 4 ms took 1.6 s + the 380 ms it ran late by the end
        assert!((achieved_share(&late_ns, 4 * MS) - 1600.0 / 1980.0).abs() < 1e-9);
        assert!(late_start_p95_ms(&late_ns) > 350.0);
        // a server with headroom absorbs a burst and recovers
        let clock = Virtual(Cell::new(0));
        let late_ns = open_loop(&clock, 0, 4 * MS, |k, _| {
            let service = if k % 50 == 0 { 20 * MS } else { MS };
            clock.0.set(clock.0.get() + service);
            k + 1 < 400
        });
        assert!(!backlog_growing(&late_ns, 4 * MS));
        assert_eq!(achieved_share(&late_ns, 4 * MS), 1.0);
        // ... even when the burst falls on the very last slot
        let mut late_ns = late_ns;
        *late_ns.last_mut().unwrap() = 500 * MS;
        assert_eq!(achieved_share(&late_ns, 4 * MS), 1.0);
        assert_eq!(achieved_share(&[], 4 * MS), 1.0);
    }
}
