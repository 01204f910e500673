//! The measuring tools: percentiles, run-to-run spread and the
//! counter-delta arithmetic behind the per-layer means.

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 1]`): the
/// smallest sample with at least `p` of the samples at or below it.
/// `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// Ascending copy (total order, so `NaN`s cannot panic the sort).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail percentiles the harness is willing to print.
const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 0.999];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// of `n` samples beyond it — a tail read off fewer samples is an
/// anecdote. `None` below 20 samples (not even the median qualifies).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p) >= 10.0)
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method) — the benchmark driver judges spread with that function, so
/// `--repeat` and `compare` must read the same numbers. Needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let n = data.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// Inter-quartile distance as a share of the median: the spread the
/// driver holds every end-to-end metric's bound against.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// Sum and count of a registry histogram (or any monotone pair of
/// counters) at one instant; the difference of two readings is the work
/// recorded in between.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SumCount {
    /// Total of the recorded values (nanoseconds for latency histograms).
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
}

impl SumCount {
    /// What was recorded between `earlier` and `self`. Saturating: the
    /// registry's counters are read with relaxed loads, so a racing
    /// reading may trail by an event, never go backwards by design.
    pub fn since(self, earlier: SumCount) -> SumCount {
        SumCount {
            sum: self.sum.saturating_sub(earlier.sum),
            count: self.count.saturating_sub(earlier.count),
        }
    }

    /// Component-wise total of several readings (per-op histograms
    /// folded into one "all ops" figure).
    pub fn plus(self, other: SumCount) -> SumCount {
        SumCount {
            sum: self.sum + other.sum,
            count: self.count + other.count,
        }
    }

    /// Mean recorded value, 0 when nothing was recorded.
    pub fn mean(self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// `num / den`, 0 when the denominator is 0 (a ratio over no attempts is
/// printed as 0, never as `NaN` — every metric line stays a number).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(199), Some(0.9));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((iqr_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_deltas_give_per_event_means() {
        // service.latency_ns.render read before and after a timed part
        let before = SumCount {
            sum: 4_000_000,
            count: 4,
        };
        let after = SumCount {
            sum: 10_000_000,
            count: 7,
        };
        let d = after.since(before);
        assert_eq!(
            d,
            SumCount {
                sum: 6_000_000,
                count: 3
            }
        );
        assert_eq!(d.mean(), 2_000_000.0);
        // folding two ops: exec_us is the all-op mean, not a mean of means
        let other = SumCount {
            sum: 1_000_000,
            count: 1,
        };
        assert_eq!(d.plus(other).mean(), 1_750_000.0);
        // nothing recorded, or a reading that raced: zero, not NaN/underflow
        assert_eq!(before.since(before).mean(), 0.0);
        assert_eq!(before.since(after), SumCount::default());
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
