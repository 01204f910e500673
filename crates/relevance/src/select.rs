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
use visdb_distance::lanes::WORD_ROWS;

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

/// The pruning walk: per row range, the defined rows under the cut and
/// the count of those on it. Eight rows at a time are classified with
/// one branch-free `key(v) <= cut` OR-reduction, and only a block
/// holding a candidate runs the per-row body — with a cut about `k / n`
/// of the rows lie under it, so most blocks have none.
fn gather(
    frame: &DistanceFrame,
    ranges: &[(usize, usize)],
    parallel: bool,
    cut: Option<f64>,
    key: impl Fn(f64) -> f64 + Sync,
) -> Vec<Gathered> {
    let (vals, mask) = (frame.values(), frame.validity().as_slice());
    // a NaN key compares false against any bound, and without a cut it
    // is a candidate like every defined row
    let (no_cut, bound) = (cut.is_none(), cut.unwrap_or(0.0));
    chunk::map_range_list(ranges, parallel, |offset, len| {
        let mut out = Gathered {
            below: Vec::new(),
            ties: 0,
        };
        let mut row_body = |v: f64, ok: bool, row: usize| {
            let x = key(v);
            if ok && (no_cut || x < bound) {
                out.below.push((x, row as u32));
            }
            out.ties += usize::from(ok && !no_cut && x == bound);
        };
        let (v, m) = (&vals[offset..offset + len], &mask[offset..offset + len]);
        let blocks = len / WORD_ROWS * WORD_ROWS;
        for at in (0..blocks).step_by(WORD_ROWS) {
            let (v8, m8) = (&v[at..at + WORD_ROWS], &m[at..at + WORD_ROWS]);
            let mut any = false;
            for l in 0..WORD_ROWS {
                any |= m8[l] & (no_cut | (key(v8[l]) <= bound));
            }
            if any {
                for l in 0..WORD_ROWS {
                    row_body(v8[l], m8[l], offset + at + l);
                }
            }
        }
        for at in blocks..len {
            row_body(v[at], m[at], offset + at);
        }
        out
    })
}

/// The `k` smallest defined rows of `frame` under [`rank_order`] on
/// `(key(value), row id)`, as `(key, row)` pairs in **unspecified
/// order** (all of them when fewer than `k` are defined), and the number
/// of defined rows whose key equals the k-th smallest key — in or out of
/// the `k` (0 when that key is NaN, or when fewer than `k` are defined).
/// The count costs no pass of its own: the walk has counted the rows on
/// the cut, and a k-th key under the cut has every row equal to it among
/// the gathered candidates. `ranges` must cover the frame in order
/// ([`crate::chunk::ranges`]); how they cut it does not change the set.
/// Row ids are `u32`: the pipeline rejects larger relations up front.
pub fn k_smallest(
    frame: &DistanceFrame,
    ranges: &[(usize, usize)],
    parallel: bool,
    k: usize,
    key: impl Fn(f64) -> f64 + Sync,
) -> (Vec<(f64, u32)>, usize) {
    if k == 0 {
        return (Vec::new(), 0);
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
    if out.len() >= k {
        // the k-th key lies among the candidates, and so does every row
        // equal to it (all rows under the cut, or all rows)
        let (_, &mut (kth, _), _) = out.select_nth_unstable_by(k - 1, rank_order);
        let tied = out.iter().filter(|c| c.0 == kth).count();
        out.truncate(k);
        return (out, tied);
    }
    let Some(cut) = cut else { return (out, 0) };
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
    (out, tie_counts.iter().sum())
}

/// [`k_smallest`] sorted ascending by [`rank_order`] — the relevance
/// ranking's sorted prefix.
pub fn k_smallest_sorted(
    frame: &DistanceFrame,
    ranges: &[(usize, usize)],
    parallel: bool,
    k: usize,
) -> Vec<(f64, u32)> {
    let (mut out, _) = k_smallest(frame, ranges, parallel, k, |v| v);
    out.sort_unstable_by(rank_order);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row-by-row walk the block-skipping [`gather`] replaced.
    fn gather_by_row(frame: &DistanceFrame, cut: Option<f64>) -> Gathered {
        let mut out = Gathered {
            below: Vec::new(),
            ties: 0,
        };
        for (row, d) in frame.iter().enumerate() {
            let Some(x) = d.map(f64::abs) else { continue };
            if cut.is_none_or(|c| x < c) {
                out.below.push((x, row as u32));
            }
            out.ties += usize::from(cut == Some(x));
        }
        out
    }

    /// The tie count is the brute-force count of defined rows whose key
    /// equals the k-th smallest: with the sampled cut on the k-th key,
    /// with it above, without one (short frames, or a cut too tight),
    /// at `k = defined − 1` and `k = defined`, under both keys, on frames
    /// with NULL, NaN, ±inf, `-0.0` and a duplicate plateau.
    #[test]
    fn tied_counts_the_rows_at_the_kth_key() {
        let plateau = |i: usize| {
            Some(if i.is_multiple_of(17) {
                (i % 101) as f64
            } else {
                255.0
            })
        };
        let hashed = |i: usize| Some((i.wrapping_mul(2_654_435_761) % 1_009) as f64 - 500.0);
        let messy = |i: usize| match i % 12 {
            0 => None,
            1 => Some(f64::NAN),
            2 => Some(f64::INFINITY),
            3 => Some(f64::NEG_INFINITY),
            4 => Some(-0.0),
            5 => Some(0.0),
            6..=8 => Some(if i.is_multiple_of(2) { 40.0 } else { -40.0 }),
            _ => Some((i % 23) as f64 - 11.0),
        };
        let shapes: [&dyn Fn(usize) -> Option<f64>; 3] = [&plateau, &hashed, &messy];
        let keys: [fn(f64) -> f64; 2] = [|v| v, f64::abs];
        // (cut on the k-th key, cut above it, no cut)
        let mut seen = [0usize; 3];
        for len in [2 * PRUNE_MIN_ROWS + 5, 1_000] {
            for shape in shapes {
                let rows: Vec<Option<f64>> = (0..len).map(shape).collect();
                let frame = DistanceFrame::from_options(&rows);
                let ranges = chunk::ranges(len);
                let defined = rows.iter().flatten().count();
                let ks = [1, 7, len / 100, len / 17, len / 4, defined - 1, defined];
                for (key, k) in keys.into_iter().flat_map(|key| ks.map(|k| (key, k))) {
                    let mut all: Vec<(f64, u32)> = (rows.iter().zip(0u32..))
                        .filter_map(|(v, row)| v.map(|v| (key(v), row)))
                        .collect();
                    all.sort_by(rank_order);
                    let kth = all[k - 1].0;
                    let want = all.iter().filter(|c| c.0 == kth).count();
                    let (got, tied) = k_smallest(&frame, &ranges, true, k, key);
                    assert_eq!(got.len(), k);
                    assert_eq!(tied, want, "len={len} k={k} kth={kth}");
                    // which arm answered: the walk's own cut, if it held
                    let sample = sample_rows(len).filter_map(|row| rows[row].map(key));
                    let cut = sampled_cut(sample.collect(), len, k)
                        .filter(|&c| all.iter().filter(|x| x.0 <= c).count() >= k);
                    seen[match cut {
                        Some(c) if c == kth => 0,
                        Some(_) => 1,
                        None => 2,
                    }] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    }

    #[test]
    fn gather_matches_the_row_by_row_walk() {
        // mostly a plateau at 255 with sparse near rows, NULLs, NaN,
        // ±inf and signed zeros, at every block remainder
        let rows: Vec<Option<f64>> = (0..83)
            .map(|i| match i % 13 {
                0 => None,
                1 => Some(-(i as f64)),
                2 if i % 2 == 0 => Some(f64::NAN),
                3 if i > 40 => Some(f64::NEG_INFINITY),
                4 if i < 20 => Some(-0.0),
                _ => Some(255.0),
            })
            .collect();
        let cuts = [
            Some(255.0), // on the plateau: every plateau row ties
            Some(14.0),  // on a sparse value
            Some(-1.0),  // below every key: nothing qualifies
            Some(0.0),   // only the signed zeros tie
            None,        // absent: every defined row, NaN included
        ];
        for len in (0..=rows.len()).rev().take(2 * WORD_ROWS + 1) {
            let frame = DistanceFrame::from_options(&rows[..len]);
            for cut in cuts {
                let got = gather(&frame, &[(0, len)], false, cut, f64::abs);
                let got = got.into_iter().next().expect("one range");
                let want = gather_by_row(&frame, cut);
                // NaN keys never compare equal: compare bit patterns
                let bits = |g: &Gathered| -> Vec<(u64, u32)> {
                    g.below.iter().map(|&(x, r)| (x.to_bits(), r)).collect()
                };
                assert_eq!(bits(&got), bits(&want), "len={len} cut={cut:?}");
                assert_eq!(got.ties, want.ties, "len={len} cut={cut:?}");
            }
        }
        // and over a split range list the parts concatenate to the same
        let frame = DistanceFrame::from_options(&rows);
        let parts = gather(&frame, &[(0, 29), (29, 54)], false, Some(255.0), f64::abs);
        let want = gather_by_row(&frame, Some(255.0));
        let below: Vec<(f64, u32)> = parts.iter().flat_map(|p| p.below.clone()).collect();
        assert_eq!(below, want.below);
        assert_eq!(parts.iter().map(|p| p.ties).sum::<usize>(), want.ties);
    }
}
