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
//!
//! The engine does not use it: a one-column slider's exact answers are a
//! position range of the column's sorted projection
//! (`visdb_index::SortedProjection`), so a drag needs no candidate band.
//! The `incremental` bench measures the cache over the multidimensional
//! access methods of this crate, where the paper's situation holds.

use visdb_types::Result;

use crate::RangeIndex;

/// A caching layer over any [`RangeIndex`].
pub struct IncrementalCache<I> {
    index: I,
    /// Fractional expansion applied to each queried box side (0.25 =
    /// retrieve a box 25% wider in every direction).
    slack: f64,
    cached_box: Option<(Vec<f64>, Vec<f64>)>,
    candidates: Vec<usize>,
}

impl<I: RangeIndex + PointAccess> IncrementalCache<I> {
    /// Wrap an index with an expansion factor (`slack >= 0`).
    pub fn new(index: I, slack: f64) -> Self {
        IncrementalCache {
            index,
            slack: slack.max(0.0),
            cached_box: None,
            candidates: Vec::new(),
        }
    }

    /// Drop the cached candidate set (e.g. after the data changes).
    pub fn invalidate(&mut self) {
        self.cached_box = None;
        self.candidates.clear();
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
            // filter cached candidates against the exact box
            return Ok(self
                .candidates
                .iter()
                .copied()
                .filter(|&i| self.point_in(i, low, high))
                .collect());
        }
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
    use std::cell::Cell;
    use std::rc::Rc;

    use super::*;
    use crate::KdTree;

    /// A k-d tree that counts the range queries it answers: each cache
    /// miss asks it exactly once, a hit never.
    struct Counted {
        tree: KdTree,
        queries: Rc<Cell<usize>>,
    }

    impl RangeIndex for Counted {
        fn dims(&self) -> usize {
            self.tree.dims()
        }

        fn len(&self) -> usize {
            self.tree.len()
        }

        fn range_query(&self, low: &[f64], high: &[f64]) -> Result<Vec<usize>> {
            self.queries.set(self.queries.get() + 1);
            self.tree.range_query(low, high)
        }
    }

    impl PointAccess for Counted {
        fn point(&self, i: usize) -> &[f64] {
            self.tree.point(i)
        }
    }

    fn tree() -> KdTree {
        let pts: Vec<Vec<f64>> = (0..1000)
            .map(|i| vec![(i % 100) as f64, (i / 100) as f64 * 10.0])
            .collect();
        KdTree::build(pts).unwrap()
    }

    /// A cache over [`tree`] with `slack`, and its count of misses.
    fn cache(slack: f64) -> (IncrementalCache<Counted>, Rc<Cell<usize>>) {
        let queries = Rc::new(Cell::new(0));
        let counted = Counted {
            tree: tree(),
            queries: Rc::clone(&queries),
        };
        (IncrementalCache::new(counted, slack), queries)
    }

    #[test]
    fn exactness_against_direct_queries() {
        let t = tree();
        let (mut cache, misses) = cache(0.3);
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
        assert_eq!(misses.get(), 2, "one of three queries was a hit");
    }

    #[test]
    fn slider_nudges_are_hits() {
        let (mut cache, misses) = cache(0.5);
        cache.range_query(&[20.0, 20.0], &[40.0, 60.0]).unwrap();
        // nudge the lower bound repeatedly, staying inside the slack
        for step in 1..=5 {
            let lo = 20.0 + step as f64;
            cache.range_query(&[lo, 20.0], &[40.0, 60.0]).unwrap();
        }
        assert_eq!(misses.get(), 1, "five nudges, five hits");
    }

    #[test]
    fn invalidate_forces_miss() {
        let (mut cache, misses) = cache(0.5);
        cache.range_query(&[20.0, 20.0], &[40.0, 60.0]).unwrap();
        cache.invalidate();
        cache.range_query(&[21.0, 21.0], &[39.0, 59.0]).unwrap();
        assert_eq!(misses.get(), 2);
    }

    #[test]
    fn zero_slack_still_correct() {
        let t = tree();
        let (mut cache, misses) = cache(0.0);
        let direct = t.range_query(&[5.0, 0.0], &[10.0, 20.0]).unwrap();
        let got = cache.range_query(&[5.0, 0.0], &[10.0, 20.0]).unwrap();
        assert_eq!(got.len(), direct.len());
        // identical repeat query is contained (boundary-inclusive) -> hit
        cache.range_query(&[5.0, 0.0], &[10.0, 20.0]).unwrap();
        assert_eq!(misses.get(), 1);
    }
}
