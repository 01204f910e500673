//! Bound-pruned selection: the k smallest rows of a packed frame.
//!
//! Both selections the pipeline performs at scale — the relevance
//! ranking's top-k and the §5.2 fit's k-th smallest `|d|` — want a small
//! prefix (k ≈ 1 % of n) of a million-row frame. Copying every defined
//! row into a selection buffer costs more than the selection itself, so
//! [`k_smallest`] first derives a **cut** from a deterministic strided
//! sample of the frame, then walks the frame once (chunk-parallel over
//! the caller's range list) and copies only rows *below* the cut,
//! counting the rows that tie with it. The walk verifies its own bound:
//! if fewer than `k` rows lie at or below the cut, the selection is
//! repeated without one (the full selection), so the sample decides
//! speed, never the result.
//!
//! Ties at the cut need care because §5.2 normalization clamps: under a
//! weight-1 predicate all but the display budget's worth of rows sit at
//! exactly `NORM_MAX`, and the k-th smallest is one of them. Rows equal
//! to the cut are therefore not copied at all — they rank by row id, so
//! the few that are needed are the first ones a second, early-exiting
//! row-order scan meets.
//!
//! The order is [`rank_order`]: ascending value, NaN after everything,
//! ties by row id — a total order, so "the k smallest" is one fixed set
//! whatever the range list or thread schedule.

use std::cmp::Ordering;

use visdb_distance::frame::DistanceFrame;

use crate::chunk;

/// The selection's total order over `(value, row id)`: ascending value
/// under IEEE comparison (`-0.0 == 0.0`), NaN after `+inf`, ties by row
/// id.
#[inline]
pub fn rank_order(a: &(f64, u32), b: &(f64, u32)) -> Ordering {
    (a.0.partial_cmp(&b.0))
        .unwrap_or_else(|| a.0.is_nan().cmp(&b.0.is_nan()))
        .then(a.1.cmp(&b.1))
}

/// Rows probed for the cut.
const SAMPLE: usize = 8_192;

/// Relations shorter than this skip the sample: copying every row is
/// already cheap.
const PRUNE_MIN_ROWS: usize = 4 * SAMPLE;

/// The [`SAMPLE`] jittered-stride probe rows of an `n`-row relation
/// (none below [`PRUNE_MIN_ROWS`]). The jitter is a fixed multiplicative
/// hash of the probe index, so periodic data cannot alias with the
/// stride and no RNG state exists. Public so a test can put its small
/// values exactly where the sample will look.
pub fn sample_rows(n: usize) -> impl Iterator<Item = usize> {
    let stride = n / SAMPLE;
    let probes = if n < PRUNE_MIN_ROWS { 0 } else { SAMPLE };
    (0..probes).map(move |i| i * stride + i.wrapping_mul(0x9E37_79B9) % stride)
}

/// A value that at least `k` of `n` rows' keys are expected to lie at
/// or below, given the keys of the defined [`sample_rows`]: the sample
/// order statistic expected to cover `k`, plus four standard deviations
/// of the binomial count and a constant for tiny `k`. `None` when the
/// sample is too thin to bound `k` (or holds NaN there).
pub(crate) fn sampled_cut(mut sample: Vec<f64>, n: usize, k: usize) -> Option<f64> {
    let share = (k as f64 / n as f64).min(1.0);
    let expected = share * SAMPLE as f64;
    let at = (expected + 4.0 * (expected * (1.0 - share)).sqrt()).ceil() as usize + 8;
    if at >= sample.len() {
        return None;
    }
    let (_, cut, _) = sample.select_nth_unstable_by(at, |a, b| rank_order(&(*a, 0), &(*b, 0)));
    (!cut.is_nan()).then_some(*cut)
}

/// One row range's share of the pruning walk.
struct Gathered {
    /// `(key, row)` of defined rows strictly below the cut (every
    /// defined row when there is no cut), in row order.
    below: Vec<(f64, u32)>,
    /// Defined rows whose key equals the cut.
    ties: usize,
}

fn gather(
    frame: &DistanceFrame,
    ranges: &[(usize, usize)],
    parallel: bool,
    cut: Option<f64>,
    key: impl Fn(f64) -> f64 + Sync,
) -> Vec<Gathered> {
    let (vals, mask) = (frame.values(), frame.validity().as_slice());
    chunk::map_range_list(ranges, parallel, |offset, len| {
        let rows = vals[offset..offset + len]
            .iter()
            .zip(&mask[offset..offset + len])
            .zip(offset as u32..);
        let mut out = Gathered {
            below: Vec::new(),
            ties: 0,
        };
        for ((&v, &ok), row) in rows {
            let x = key(v);
            if ok && cut.is_none_or(|c| x < c) {
                out.below.push((x, row));
            }
            out.ties += usize::from(ok && cut == Some(x));
        }
        out
    })
}

/// The `k` smallest defined rows of `frame` under [`rank_order`] on
/// `(key(value), row id)`, as `(key, row)` pairs in **unspecified
/// order** (all of them when fewer than `k` are defined). `ranges` must
/// cover the frame in order — partition-respecting or plain chunks, the
/// result is the same set. Row ids are `u32`: the pipeline rejects
/// larger relations up front.
pub fn k_smallest(
    frame: &DistanceFrame,
    ranges: &[(usize, usize)],
    parallel: bool,
    k: usize,
    key: impl Fn(f64) -> f64 + Sync,
) -> Vec<(f64, u32)> {
    if k == 0 {
        return Vec::new();
    }
    let (vals, mask) = (frame.values(), frame.validity().as_slice());
    let probes = sample_rows(frame.len()).filter(|&row| mask[row]);
    let mut cut = sampled_cut(probes.map(|row| key(vals[row])).collect(), frame.len(), k);
    let mut parts = gather(frame, ranges, parallel, cut, &key);
    if cut.is_some() && parts.iter().map(|p| p.below.len() + p.ties).sum::<usize>() < k {
        // the bound was too tight: select over everything
        cut = None;
        parts = gather(frame, ranges, parallel, None, &key);
    }
    let tie_counts: Vec<usize> = parts.iter().map(|p| p.ties).collect();
    let mut out: Vec<(f64, u32)> = Vec::with_capacity(parts.iter().map(|p| p.below.len()).sum());
    for part in parts {
        out.extend(part.below);
    }
    if out.len() > k {
        out.select_nth_unstable_by(k - 1, rank_order);
        out.truncate(k);
    }
    let Some(cut) = cut else { return out };
    // everything below the cut is in; the rest of the k are the first
    // rows (by id) that tie with it
    let tied = ranges
        .iter()
        .zip(&tie_counts)
        .filter(|(_, &ties)| ties > 0)
        .flat_map(|(&(offset, len), _)| offset..offset + len)
        .filter(|&row| mask[row] && key(vals[row]) == cut)
        .map(|row| (key(vals[row]), row as u32));
    let missing = k - out.len();
    out.extend(tied.take(missing));
    out
}

/// [`k_smallest`] sorted ascending by [`rank_order`] — the relevance
/// ranking's sorted prefix.
pub fn k_smallest_sorted(
    frame: &DistanceFrame,
    ranges: &[(usize, usize)],
    parallel: bool,
    k: usize,
) -> Vec<(f64, u32)> {
    let mut out = k_smallest(frame, ranges, parallel, k, |v| v);
    out.sort_unstable_by(rank_order);
    out
}
