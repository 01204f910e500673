//! Incremental recalculation cache (§6).
//!
//! "Our idea is to retrieve more data than necessary in the beginning and
//! to retrieve only the additional portion of the data that is needed for
//! a slightly modified query later on."
//!
//! The cache remembers the last *expanded* query box together with the
//! candidate rows it retrieved. A new query box that is **contained** in
//! the cached box is answered by filtering the cached candidates (cheap,
//! proportional to the candidate count) instead of re-querying the index.
//! Slider nudges — the dominant interaction in §4.3 — almost always stay
//! inside the expansion, so recalculation after a small query
//! modification avoids touching the full data set.

use visdb_types::Result;

use crate::RangeIndex;

/// Hit/miss counters for diagnostics and the C6 bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cached candidate set.
    pub hits: usize,
    /// Queries that had to go to the underlying index.
    pub misses: usize,
}

impl CacheStats {
    /// Hit rate in [0, 1]; 0 when nothing was asked.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A caching layer over any [`RangeIndex`].
pub struct IncrementalCache<I> {
    index: I,
    /// Fractional expansion applied to each queried box side (0.25 =
    /// retrieve a box 25% wider in every direction).
    slack: f64,
    cached_box: Option<(Vec<f64>, Vec<f64>)>,
    candidates: Vec<usize>,
    stats: CacheStats,
}

impl<I: RangeIndex + PointAccess> IncrementalCache<I> {
    /// Wrap an index with an expansion factor (`slack >= 0`).
    pub fn new(index: I, slack: f64) -> Self {
        IncrementalCache {
            index,
            slack: slack.max(0.0),
            cached_box: None,
            candidates: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// The wrapped index.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop the cached candidate set (e.g. after the data changes).
    pub fn invalidate(&mut self) {
        self.cached_box = None;
        self.candidates.clear();
    }

    /// Swap in an index over an *appended* relation — rows `0..old_rows`
    /// must be unchanged, rows `old_rows..new_rows` are new — and
    /// **repair** the cached candidate band instead of dropping it: each
    /// appended row whose point lies inside the cached expanded box
    /// joins the candidate set. This preserves the §6 invariant
    /// (candidates = every row inside the cached box) exactly, so
    /// contained queries keep answering from the band; appended ids
    /// exceed every existing id, so pushing keeps the candidates' row
    /// order. Returns `true` when a cached band existed and was
    /// repaired, `false` when there was nothing to repair.
    pub fn rebase(&mut self, index: I, old_rows: usize, new_rows: usize) -> bool {
        self.index = index;
        let Some((lo, hi)) = self.cached_box.clone() else {
            return false;
        };
        for i in old_rows..new_rows {
            if self.point_in(i, &lo, &hi) {
                self.candidates.push(i);
            }
        }
        true
    }

    fn contained(&self, low: &[f64], high: &[f64]) -> bool {
        match &self.cached_box {
            Some((clo, chi)) => {
                clo.len() == low.len()
                    && low.iter().zip(clo).all(|(q, c)| q >= c)
                    && high.iter().zip(chi).all(|(q, c)| q <= c)
            }
            None => false,
        }
    }

    /// Range query through the cache. Exact results (identical to querying
    /// the index directly), but slightly-modified queries are served from
    /// the cached superset.
    pub fn range_query(&mut self, low: &[f64], high: &[f64]) -> Result<Vec<usize>> {
        if self.contained(low, high) {
            self.stats.hits += 1;
            // filter cached candidates against the exact box
            let index = &self.index;
            return Ok(self
                .candidates
                .iter()
                .copied()
                .filter(|&i| {
                    let p = index.point(i);
                    (0..low.len()).all(|d| low[d] <= p[d] && p[d] <= high[d])
                })
                .collect());
        }
        self.stats.misses += 1;
        // expand and retrieve the superset
        let mut elo = Vec::with_capacity(low.len());
        let mut ehi = Vec::with_capacity(high.len());
        for d in 0..low.len() {
            let w = (high[d] - low[d]).abs().max(f64::MIN_POSITIVE);
            elo.push(low[d] - self.slack * w);
            ehi.push(high[d] + self.slack * w);
        }
        let superset = self.index.range_query(&elo, &ehi)?;
        let exact: Vec<usize> = superset
            .iter()
            .copied()
            .filter(|&i| self.point_in(i, low, high))
            .collect();
        self.cached_box = Some((elo, ehi));
        self.candidates = superset;
        Ok(exact)
    }

    #[inline]
    fn point_in(&self, i: usize, low: &[f64], high: &[f64]) -> bool {
        let p = self.index.point(i);
        (0..low.len()).all(|d| low[d] <= p[d] && p[d] <= high[d])
    }
}

// Point-membership needs access to coordinates; provide it via a small
// trait so the cache works with any index exposing its points.
/// Access to the coordinates of indexed points.
pub trait PointAccess {
    /// Coordinates of point `i`.
    fn point(&self, i: usize) -> &[f64];
}

// `Arc`-wrapped indexes delegate, so a projection shared across
// sessions (a table's projection slot, `visdb_storage::Table::projection`)
// plugs into the per-session incremental cache without cloning the
// underlying build.
impl<I: RangeIndex + ?Sized> RangeIndex for std::sync::Arc<I> {
    fn dims(&self) -> usize {
        (**self).dims()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn range_query(&self, low: &[f64], high: &[f64]) -> Result<Vec<usize>> {
        (**self).range_query(low, high)
    }
}

impl<I: PointAccess + ?Sized> PointAccess for std::sync::Arc<I> {
    fn point(&self, i: usize) -> &[f64] {
        (**self).point(i)
    }
}

impl PointAccess for crate::KdTree {
    fn point(&self, i: usize) -> &[f64] {
        &self.points()[i]
    }
}

impl PointAccess for crate::GridFile {
    fn point(&self, i: usize) -> &[f64] {
        &self.points()[i]
    }
}

impl PointAccess for crate::LinearScan {
    fn point(&self, i: usize) -> &[f64] {
        &self.points()[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KdTree;

    fn tree() -> KdTree {
        let pts: Vec<Vec<f64>> = (0..1000)
            .map(|i| vec![(i % 100) as f64, (i / 100) as f64 * 10.0])
            .collect();
        KdTree::build(pts).unwrap()
    }

    #[test]
    fn exactness_against_direct_queries() {
        let t = tree();
        let mut cache = IncrementalCache::new(tree(), 0.3);
        for bounds in [
            ([10.0, 0.0], [20.0, 40.0]),
            ([12.0, 10.0], [18.0, 30.0]), // contained: should be a hit
            ([90.0, 80.0], [99.0, 90.0]), // far away: miss
        ] {
            let direct = {
                let mut v = t.range_query(&bounds.0, &bounds.1).unwrap();
                v.sort_unstable();
                v
            };
            let mut cached = cache.range_query(&bounds.0, &bounds.1).unwrap();
            cached.sort_unstable();
            assert_eq!(cached, direct);
        }
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2 });
    }

    #[test]
    fn slider_nudges_are_hits() {
        let mut cache = IncrementalCache::new(tree(), 0.5);
        cache.range_query(&[20.0, 20.0], &[40.0, 60.0]).unwrap();
        // nudge the lower bound repeatedly, staying inside the slack
        for step in 1..=5 {
            let lo = 20.0 + step as f64;
            cache.range_query(&[lo, 20.0], &[40.0, 60.0]).unwrap();
        }
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 5);
        assert!(cache.stats().hit_rate() > 0.8);
    }

    #[test]
    fn invalidate_forces_miss() {
        let mut cache = IncrementalCache::new(tree(), 0.5);
        cache.range_query(&[20.0, 20.0], &[40.0, 60.0]).unwrap();
        cache.invalidate();
        cache.range_query(&[21.0, 21.0], &[39.0, 59.0]).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn zero_slack_still_correct() {
        let t = tree();
        let mut cache = IncrementalCache::new(tree(), 0.0);
        let direct = t.range_query(&[5.0, 0.0], &[10.0, 20.0]).unwrap();
        let got = cache.range_query(&[5.0, 0.0], &[10.0, 20.0]).unwrap();
        assert_eq!(got.len(), direct.len());
        // identical repeat query is contained (boundary-inclusive) -> hit
        cache.range_query(&[5.0, 0.0], &[10.0, 20.0]).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn hit_rate_empty() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn rebase_repairs_the_band_for_appended_rows() {
        use crate::SortedProjection;
        let old_vals: Vec<Option<f64>> = (0..200).map(|i| Some((i % 50) as f64)).collect();
        let mut all_vals = old_vals.clone();
        // delta straddles the band: some rows inside the cached box, some
        // outside, one NULL and one NaN
        all_vals.extend([
            Some(25.0),
            Some(49.0),
            Some(10.0),
            None,
            Some(f64::NAN),
            Some(30.5),
        ]);
        let old = SortedProjection::build(old_vals.len(), |i| old_vals[i]);
        let new = old.extended(all_vals.len(), |i| all_vals[i]);
        let direct = SortedProjection::build(all_vals.len(), |i| all_vals[i]);

        let mut cache = IncrementalCache::new(old, 0.25);
        cache.range_query(&[20.0], &[40.0]).unwrap();
        assert!(cache.rebase(new, old_vals.len(), all_vals.len()));
        // contained queries after the rebase see the appended rows and
        // match a from-scratch index exactly
        for (lo, hi) in [(20.0, 40.0), (24.0, 31.0), (25.0, 25.0)] {
            let got = cache.range_query(&[lo], &[hi]).unwrap();
            let expect = direct.range_query(&[lo], &[hi]).unwrap();
            assert_eq!(got, expect, "[{lo}, {hi}]");
        }
        assert_eq!(cache.stats().misses, 1, "repairs never re-query");
        assert_eq!(cache.stats().hits, 3);

        // no cached band -> nothing to repair
        let mut cold = IncrementalCache::new(
            SortedProjection::build(old_vals.len(), |i| old_vals[i]),
            0.25,
        );
        assert!(!cold.rebase(
            SortedProjection::build(all_vals.len(), |i| all_vals[i]),
            old_vals.len(),
            all_vals.len(),
        ));
    }
}
