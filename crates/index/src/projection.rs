//! Sorted projections: a per-column sorted permutation that turns the
//! pipeline's monotone single-column work into binary searches.
//!
//! For a monotone numeric predicate (`x >= t`, `x <= t` and friends) the
//! absolute distance `|d(x, t)|` is monotone in the column value, so
//! everything the §5 pipeline derives from the distance *distribution* —
//! the weight-proportional normalization fit (k-th smallest `|d|`),
//! quantile cuts, the exact-answer count, the top-k display band —
//! becomes O(log n) position arithmetic on a sorted projection instead
//! of O(n) selection passes. Every value range is a position range too:
//! a slider drag's exact answers are `perm[position_ge(t)..]` (or
//! `perm[..position_gt(t)]`), whose smallest row ids
//! [`SortedProjection::smallest_rows_in`] finds without materializing a
//! wide band — the §6 "only the additional portion of the data" of a
//! modified bound, found by position instead of by re-reading the
//! relation.

/// A sorted permutation of one numeric column.
///
/// Rows whose value is NULL or NaN (both evaluate to *undefined*
/// distances under every monotone predicate) are excluded from the
/// permutation; `±inf` values are kept (they have defined, if
/// non-finite, distances) but flagged so exactness-sensitive fast paths
/// can decline.
#[derive(Debug, Clone)]
pub struct SortedProjection {
    /// Total rows of the relation, including excluded ones.
    rows: usize,
    /// Per-row value in row order ([`SortedProjection::coord`], the walk
    /// of [`SortedProjection::smallest_rows_in`]); NaN for excluded rows
    /// (a NaN value lies in no band).
    coords: Vec<f64>,
    /// Row ids sorted ascending by `(value, row)`.
    perm: Vec<u32>,
    /// `sorted[j]` = value of row `perm[j]`.
    sorted: Vec<f64>,
    /// Every projected value is finite.
    finite: bool,
}

impl SortedProjection {
    /// Build from a row accessor (`None` = NULL). O(n log n) once per
    /// (dataset generation, column); every drag afterwards is
    /// logarithmic.
    pub fn build(rows: usize, get: impl Fn(usize) -> Option<f64>) -> Self {
        assert!(u32::try_from(rows).is_ok(), "projection rows exceed u32");
        let mut coords = vec![f64::NAN; rows];
        let mut perm: Vec<u32> = Vec::with_capacity(rows);
        let mut finite = true;
        for (i, coord) in coords.iter_mut().enumerate() {
            if let Some(v) = get(i) {
                if !v.is_nan() {
                    *coord = v;
                    perm.push(i as u32);
                    finite &= v.is_finite();
                }
            }
        }
        perm.sort_unstable_by(|&a, &b| {
            coords[a as usize]
                .total_cmp(&coords[b as usize])
                .then(a.cmp(&b))
        });
        let sorted: Vec<f64> = perm.iter().map(|&i| coords[i as usize]).collect();
        SortedProjection {
            rows,
            coords,
            perm,
            sorted,
            finite,
        }
    }

    /// Extend to a relation grown to `new_rows` rows by merging the
    /// appended rows' sorted permutation into the existing one: O(Δ log Δ)
    /// to sort the delta plus an O(n + Δ) merge that gallops over old
    /// runs (so small deltas approach O(Δ log n) comparisons), instead of
    /// the O(n log n) re-sort of [`SortedProjection::build`]. The result
    /// is **identical** to building from scratch: the merge compares with
    /// the same total order as the sort, and delta row ids exceed every
    /// existing id, so equal values land after their old run exactly as
    /// the `(value, row)` tiebreak would place them.
    pub fn extended(&self, new_rows: usize, get: impl Fn(usize) -> Option<f64>) -> Self {
        assert!(
            new_rows >= self.rows,
            "extension must not shrink the relation"
        );
        assert!(
            u32::try_from(new_rows).is_ok(),
            "projection rows exceed u32"
        );
        let mut coords = self.coords.clone();
        coords.resize(new_rows, f64::NAN);
        let mut finite = self.finite;
        let mut delta: Vec<u32> = Vec::new();
        for (i, slot) in coords.iter_mut().enumerate().skip(self.rows) {
            if let Some(v) = get(i) {
                if !v.is_nan() {
                    *slot = v;
                    delta.push(i as u32);
                    finite &= v.is_finite();
                }
            }
        }
        delta.sort_unstable_by(|&a, &b| {
            coords[a as usize]
                .total_cmp(&coords[b as usize])
                .then(a.cmp(&b))
        });
        let mut perm = Vec::with_capacity(self.perm.len() + delta.len());
        let mut sorted = Vec::with_capacity(self.sorted.len() + delta.len());
        let mut src = 0;
        for &d in &delta {
            let v = coords[d as usize];
            let cut = src + gallop_le(&self.sorted[src..], v);
            perm.extend_from_slice(&self.perm[src..cut]);
            sorted.extend_from_slice(&self.sorted[src..cut]);
            perm.push(d);
            sorted.push(v);
            src = cut;
        }
        perm.extend_from_slice(&self.perm[src..]);
        sorted.extend_from_slice(&self.sorted[src..]);
        SortedProjection {
            rows: new_rows,
            coords,
            perm,
            sorted,
            finite,
        }
    }

    /// Total rows of the underlying relation.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Rows with a defined (non-NULL, non-NaN) value — exactly the rows
    /// a monotone predicate gives a defined distance.
    pub fn defined(&self) -> usize {
        self.perm.len()
    }

    /// True when every projected value is finite (the gate for the
    /// bit-exact slider fast path: `±inf` values produce non-finite
    /// distances whose normalization the position arithmetic cannot
    /// reproduce).
    pub fn is_fully_finite(&self) -> bool {
        self.finite
    }

    /// First position whose value is `>= t` (count of values `< t`).
    pub fn position_ge(&self, t: f64) -> usize {
        self.sorted.partition_point(|&v| v < t)
    }

    /// First position whose value is `> t` (count of values `<= t`).
    pub fn position_gt(&self, t: f64) -> usize {
        self.sorted.partition_point(|&v| v <= t)
    }

    /// Value at sorted position `j`.
    pub fn value_at(&self, j: usize) -> f64 {
        self.sorted[j]
    }

    /// Row id at sorted position `j`.
    pub fn row_at(&self, j: usize) -> usize {
        self.perm[j] as usize
    }

    /// Row ids at sorted positions `a..b`.
    pub fn rows_between(&self, a: usize, b: usize) -> &[u32] {
        &self.perm[a..b]
    }

    /// The value of row `i`, NaN when the row is excluded.
    pub fn coord(&self, i: usize) -> f64 {
        self.coords[i]
    }

    /// The `j` smallest row ids among sorted positions `a..b`, ascending
    /// (all of them when `j >= b - a`). `a..b` must be a **value band**:
    /// cut between distinct values, never inside a run of equal ones —
    /// which every band derived from a predicate on the value is.
    ///
    /// Two regimes, chosen from the expected cost. A band is usually
    /// gathered from the permutation and selected: O(b − a). But when the
    /// band is so wide that walking rows upward would meet `j` members
    /// sooner — `rows · j / (b − a)` rows, if members are spread evenly —
    /// the per-row values are read in row order instead and the walk
    /// stops at the `j`-th member: at worst one sequential pass of
    /// 8 B/row (the members are the last rows), typically a few rows (a
    /// band covering most of the relation, the §5.2 clamp plateau).
    /// Excluded rows' NaN coordinates fail both comparisons.
    pub fn smallest_rows_in(&self, a: usize, b: usize, j: usize) -> Vec<usize> {
        let width = b.saturating_sub(a);
        let j = j.min(width);
        if j == 0 {
            return Vec::new();
        }
        debug_assert!(a == 0 || self.sorted[a - 1] < self.sorted[a]);
        debug_assert!(b == self.sorted.len() || self.sorted[b - 1] < self.sorted[b]);
        // rows, j, width <= u32::MAX, so neither product overflows
        if (self.rows as u64) * (j as u64) <= (width as u64) * (width as u64) {
            let (lo, hi) = (self.sorted[a], self.sorted[b - 1]);
            return self
                .coords
                .iter()
                .enumerate()
                .filter(|&(_, &v)| lo <= v && v <= hi)
                .map(|(row, _)| row)
                .take(j)
                .collect();
        }
        let mut band = self.perm[a..b].to_vec();
        if j < width {
            band.select_nth_unstable(j - 1);
            band.truncate(j);
        }
        band.sort_unstable();
        band.into_iter().map(|row| row as usize).collect()
    }

    /// Sweep sorted positions outward from `center`, nearest first: an
    /// iterator of `(position, gap)` pairs in **non-decreasing**
    /// `|value - center|` order (ties yield the left side first). This is
    /// the banded sort-merge join's traversal order — a consumer keeping
    /// a running best can stop at the first gap whose lower bound can no
    /// longer beat it, because every later gap is at least as large.
    /// `center` must not be NaN.
    ///
    /// The sweep starts at [`SortedProjection::position_ge`]`(center)`
    /// whatever the `hint`; the hint (any position, clamped to
    /// [`SortedProjection::defined`]) only says where to look for it. The
    /// start is found by galloping from the hint, so it costs O(log Δ)
    /// comparisons for a start Δ positions away: a caller sweeping from
    /// ascending centres passes the previous sweep's
    /// [`BandSweep::start`] and pays O(1) per sweep when consecutive
    /// starts are close.
    pub fn sweep_from(&self, center: f64, hint: usize) -> BandSweep<'_> {
        debug_assert!(!center.is_nan());
        let below = |j: usize| self.sorted[j] < center;
        let hint = hint.min(self.sorted.len());
        let start = if hint == 0 || below(hint - 1) {
            hint + gallop(self.sorted.len() - hint, |i| below(hint + i))
        } else {
            hint - gallop(hint, |i| !below(hint - 1 - i))
        };
        BandSweep {
            sorted: &self.sorted,
            center,
            start,
            lo: start,
            hi: start,
        }
    }
}

/// Count of leading values at most `v` under [`f64::total_cmp`] — the
/// merge's run length. NaN sorts greatest under the total order, so the
/// plain `partition_point` contract holds even though excluded rows never
/// reach the sorted vector.
fn gallop_le(sorted: &[f64], v: f64) -> usize {
    gallop(sorted.len(), |i| {
        sorted[i].total_cmp(&v) != std::cmp::Ordering::Greater
    })
}

/// The partition point of `0..len` under `pred`, which must hold on a
/// prefix: exponential probing plus a binary search of the final doubling
/// window, so an answer `r` costs O(log r) comparisons rather than
/// O(log len).
fn gallop(len: usize, pred: impl Fn(usize) -> bool) -> usize {
    let mut bound = 1;
    while bound <= len && pred(bound - 1) {
        bound *= 2;
    }
    let (mut lo, mut hi) = (bound / 2, bound.min(len).max(bound / 2));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// See [`SortedProjection::sweep_from`].
pub struct BandSweep<'a> {
    sorted: &'a [f64],
    center: f64,
    /// The first position whose value is `>= center`.
    start: usize,
    /// Next left candidate is position `lo - 1` (value `< center`).
    lo: usize,
    /// Next right candidate is position `hi` (value `>= center`).
    hi: usize,
}

impl BandSweep<'_> {
    /// Where the sweep started: the first position whose value is
    /// `>= center` (the count of values `< center`) — the hint of the
    /// next sweep from a nearby centre.
    pub fn start(&self) -> usize {
        self.start
    }
}

impl Iterator for BandSweep<'_> {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<(usize, f64)> {
        let lgap = (self.lo > 0).then(|| (self.sorted[self.lo - 1] - self.center).abs());
        let rgap =
            (self.hi < self.sorted.len()).then(|| (self.sorted[self.hi] - self.center).abs());
        match (lgap, rgap) {
            (None, None) => None,
            (Some(lg), Some(rg)) if lg <= rg => {
                self.lo -= 1;
                Some((self.lo, lg))
            }
            (Some(lg), None) => {
                self.lo -= 1;
                Some((self.lo, lg))
            }
            (_, Some(rg)) => {
                let p = self.hi;
                self.hi += 1;
                Some((p, rg))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proj(values: &[Option<f64>]) -> SortedProjection {
        SortedProjection::build(values.len(), |i| values[i])
    }

    /// Every row whose value lies in `[lo, hi]`, ascending.
    fn rows_in(p: &SortedProjection, lo: f64, hi: f64) -> Vec<usize> {
        p.smallest_rows_in(p.position_ge(lo), p.position_gt(hi), usize::MAX)
    }

    #[test]
    fn positions_and_rows() {
        let p = proj(&[
            Some(3.0),
            None,
            Some(1.0),
            Some(2.0),
            Some(2.0),
            Some(f64::NAN),
        ]);
        assert_eq!(p.rows(), 6);
        assert_eq!(p.defined(), 4);
        assert!(p.is_fully_finite());
        // sorted: 1.0(r2), 2.0(r3), 2.0(r4), 3.0(r0)
        assert_eq!(p.position_ge(2.0), 1);
        assert_eq!(p.position_gt(2.0), 3);
        assert_eq!(p.row_at(0), 2);
        assert_eq!((p.row_at(1), p.row_at(2)), (3, 4), "ties break by row id");
        assert_eq!(p.value_at(3), 3.0);
        assert!(p.coord(1).is_nan());
        assert!(p.coord(5).is_nan(), "NaN rows are excluded like NULLs");
    }

    #[test]
    fn infinities_flag_but_do_not_break_queries() {
        let p = proj(&[Some(f64::NEG_INFINITY), Some(0.0), Some(f64::INFINITY)]);
        assert!(!p.is_fully_finite());
        assert_eq!(p.defined(), 3);
        assert_eq!(rows_in(&p, -1.0, 1.0), vec![1]);
        assert_eq!(rows_in(&p, f64::NEG_INFINITY, 0.0), vec![0, 1]);
    }

    #[test]
    fn sweep_from_yields_nearest_first() {
        let p = proj(&[Some(3.0), None, Some(1.0), Some(2.0), Some(2.0), Some(7.0)]);
        // sorted: 1.0, 2.0, 2.0, 3.0, 7.0
        for hint in [0, p.defined()] {
            let swept: Vec<(usize, f64)> = p.sweep_from(2.5, hint).collect();
            assert_eq!(swept.len(), p.defined());
            // gaps never decrease
            for w in swept.windows(2) {
                assert!(w[0].1 <= w[1].1, "{swept:?}");
            }
            // every position appears exactly once
            let mut pos: Vec<usize> = swept.iter().map(|&(p, _)| p).collect();
            pos.sort_unstable();
            assert_eq!(pos, vec![0, 1, 2, 3, 4]);
            // gap is |value - center|
            for &(pp, g) in &swept {
                assert_eq!(g, (p.value_at(pp) - 2.5).abs());
            }
            // center outside the value range sweeps one-directionally
            let left: Vec<usize> = p.sweep_from(0.0, hint).map(|(pp, _)| pp).collect();
            assert_eq!(left, vec![0, 1, 2, 3, 4]);
            let right: Vec<usize> = p.sweep_from(100.0, hint).map(|(pp, _)| pp).collect();
            assert_eq!(right, vec![4, 3, 2, 1, 0]);
        }
    }

    /// The hint only says where to look: from every hint in
    /// `0..=defined()` and one past the end, a sweep starts at
    /// `position_ge(center)` and yields the same `(position, gap)`
    /// sequence — over runs of duplicates, a single value, NULL / NaN
    /// rows the projection excludes, and no rows; at centres below the
    /// minimum, above the maximum, on every distinct value and between
    /// neighbours.
    #[test]
    fn any_hint_sweeps_from_the_binary_searched_start() {
        let projections = [
            proj(&[
                Some(2.0),
                Some(2.0),
                Some(-1.0),
                Some(2.0),
                Some(5.0),
                Some(5.0),
                Some(-1.0),
                Some(9.0),
            ]),
            proj(&[Some(4.0)]),
            proj(&[
                None,
                Some(f64::NAN),
                Some(3.0),
                None,
                Some(1.0),
                Some(f64::NAN),
            ]),
            proj(&[None, Some(f64::NAN)]),
            proj(&[]),
            SortedProjection::build(300, |i| Some(((i * 37) % 41) as f64 / 4.0)),
        ];
        for p in &projections {
            let m = p.defined();
            let mut distinct: Vec<f64> = (0..m).map(|j| p.value_at(j)).collect();
            distinct.dedup();
            let mut centers = vec![-1e9, 1e9];
            for (j, &v) in distinct.iter().enumerate() {
                centers.push(v);
                if let Some(&next) = distinct.get(j + 1) {
                    centers.push(v + (next - v) / 2.0);
                }
            }
            for &t in &centers {
                let start = p.position_ge(t);
                let want: Vec<(usize, f64)> = {
                    let sweep = p.sweep_from(t, start);
                    assert_eq!(sweep.start(), start);
                    sweep.collect()
                };
                assert_eq!(want.len(), m);
                for hint in (0..=m).chain([m + 1, usize::MAX]) {
                    let sweep = p.sweep_from(t, hint);
                    assert_eq!(sweep.start(), start, "centre {t}, hint {hint}");
                    let got: Vec<(usize, f64)> = sweep.collect();
                    assert_eq!(got, want, "centre {t}, hint {hint}");
                }
            }
        }
    }

    #[test]
    fn range_query_matches_linear_filter_and_sorts_by_row() {
        let values: Vec<Option<f64>> = (0..500)
            .map(|i| {
                if i % 11 == 0 {
                    None
                } else {
                    Some(((i * 37) % 101) as f64)
                }
            })
            .collect();
        let p = proj(&values);
        for (lo, hi) in [(10.0, 40.0), (0.0, 100.0), (99.5, 99.9), (50.0, 50.0)] {
            let got = rows_in(&p, lo, hi);
            let expect: Vec<usize> = (0..500)
                .filter(|&i| matches!(values[i], Some(v) if v >= lo && v <= hi))
                .collect();
            assert_eq!(got, expect, "[{lo}, {hi}]");
        }
    }

    /// Every value band of `p` (cuts only between distinct values) × a
    /// spread of `j` against the brute force: the band's rows sorted,
    /// first `j`. Returns how many calls the walk regime would serve.
    fn check_smallest_rows(p: &SortedProjection) -> usize {
        let m = p.defined();
        let cuts: Vec<usize> = (0..=m)
            .filter(|&c| c == 0 || c == m || p.value_at(c - 1) < p.value_at(c))
            .collect();
        let mut walked = 0;
        for (ci, &a) in cuts.iter().enumerate() {
            for &b in &cuts[ci..] {
                let mut brute: Vec<usize> = (a..b).map(|pos| p.row_at(pos)).collect();
                brute.sort_unstable();
                let w = b - a;
                for j in [0, 1, 2, w / 3, w.saturating_sub(1), w, w + 5] {
                    let got = p.smallest_rows_in(a, b, j);
                    assert_eq!(got, brute[..j.min(w)], "band {a}..{b}, j = {j}");
                    walked += usize::from(j > 0 && w > 0 && p.rows() * j.min(w) <= w * w);
                }
            }
        }
        walked
    }

    #[test]
    fn smallest_rows_match_the_sorted_band() {
        // duplicates, NULLs and NaNs; row order unrelated to value order
        let scattered = |i: usize| match i % 7 {
            0 => None,
            1 => Some(f64::NAN),
            _ => Some(((i * 37) % 23) as f64),
        };
        // value order = row order and its reverse: the walk's worst case,
        // a high band's members are the last (first) rows
        let ascending = |i: usize| Some((i / 4) as f64);
        let descending = |i: usize| Some(-((i / 4) as f64));
        for n in [0, 1, 5, 160] {
            for walked in [
                check_smallest_rows(&SortedProjection::build(n, scattered)),
                check_smallest_rows(&SortedProjection::build(n, ascending)),
                check_smallest_rows(&SortedProjection::build(n, descending)),
                check_smallest_rows(
                    &SortedProjection::build(n / 2, scattered).extended(n, scattered),
                ),
            ] {
                assert!(n < 160 || walked > 100, "the walk regime is exercised");
            }
        }
        // an empty or inverted band is empty
        let p = SortedProjection::build(10, ascending);
        assert!(p.smallest_rows_in(3, 3, 4).is_empty());
        assert!(p.smallest_rows_in(8, 4, 4).is_empty());
    }

    fn assert_same(a: &SortedProjection, b: &SortedProjection) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.defined(), b.defined());
        assert_eq!(a.is_fully_finite(), b.is_fully_finite());
        for j in 0..a.defined() {
            assert_eq!(a.row_at(j), b.row_at(j), "perm diverges at {j}");
            assert_eq!(
                a.value_at(j).to_bits(),
                b.value_at(j).to_bits(),
                "sorted value diverges at {j}"
            );
        }
        for i in 0..a.rows() {
            assert_eq!(a.coord(i).to_bits(), b.coord(i).to_bits());
        }
    }

    #[test]
    fn extended_matches_build_from_scratch() {
        // adversarial delta content: NULLs, NaN, ±inf, ±0.0, heavy
        // duplicates of values already present in the base
        let val = |i: usize| -> Option<f64> {
            match i % 9 {
                0 => None,
                1 => Some(f64::NAN),
                2 => Some(f64::INFINITY),
                3 => Some(f64::NEG_INFINITY),
                4 => Some(0.0),
                5 => Some(-0.0),
                _ => Some(((i * 37) % 13) as f64),
            }
        };
        for (base, delta) in [(0, 5), (1, 1), (200, 0), (200, 7), (50, 300), (97, 13)] {
            let built = SortedProjection::build(base + delta, val);
            let ext = SortedProjection::build(base, val).extended(base + delta, val);
            assert_same(&ext, &built);
            // chains of extensions behave like one big one
            let chained = SortedProjection::build(base, val)
                .extended(base + delta / 2, val)
                .extended(base + delta, val);
            assert_same(&chained, &built);
        }
    }
}
