//! Delta generations: the bookkeeping that makes a dataset *appendable*
//! without rotating its cache generation on every ingest.
//!
//! The paper's §6 reuse principle — "retrieve only the additional
//! portion" — is applied to *data* change here: an append produces a new
//! link in a [`DeltaChain`] instead of a brand-new base generation, so
//! the serving layer can key its caches by `(base generation, chain
//! length)` and *extend* derived artifacts (predicate windows, top-k
//! bands, and the tables' own sketches and sorted projections) by the
//! appended rows only. A compaction
//! threshold folds long chains back into a fresh base generation — the
//! point at which accumulated deltas stop being "the additional portion"
//! and incremental maintenance stops paying for its bookkeeping.

/// Append lineage of one dataset: the base generation it grew from plus
/// a row-count watermark per appended link.
///
/// `watermarks[0]` is the base row count; each append pushes the new
/// total, so link `i` (1-based) covers rows
/// `watermarks[i-1]..watermarks[i]`. The chain itself is O(links) tiny
/// metadata — the appended rows live in the columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaChain {
    base_gen: u64,
    watermarks: Vec<usize>,
    compactions: u64,
}

impl DeltaChain {
    /// A fresh chain: `base_rows` rows at base generation `base_gen`,
    /// no deltas yet.
    pub fn new(base_gen: u64, base_rows: usize) -> Self {
        DeltaChain {
            base_gen,
            watermarks: vec![base_rows],
            compactions: 0,
        }
    }

    /// The base generation this chain grew from.
    pub fn base_gen(&self) -> u64 {
        self.base_gen
    }

    /// Number of delta links appended since the base.
    pub fn chain_len(&self) -> usize {
        self.watermarks.len() - 1
    }

    /// Rows in the base generation.
    pub fn base_rows(&self) -> usize {
        self.watermarks[0]
    }

    /// Total rows including every delta link.
    pub fn total_rows(&self) -> usize {
        *self.watermarks.last().expect("chain has a base watermark")
    }

    /// Rows appended since the base (`total - base`).
    pub fn delta_rows(&self) -> usize {
        self.total_rows() - self.base_rows()
    }

    /// Row-count watermarks: base count first, then one running total
    /// per link.
    pub fn watermarks(&self) -> &[usize] {
        &self.watermarks
    }

    /// Times this dataset's chain has been folded back into a base.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Record an append that grew the dataset to `new_total` rows.
    pub fn push_link(&mut self, new_total: usize) {
        assert!(
            new_total >= self.total_rows(),
            "delta link must not shrink the dataset"
        );
        self.watermarks.push(new_total);
    }

    /// True once the chain holds at least `threshold` links — the cue to
    /// fold it back into a base generation.
    pub fn should_compact(&self, threshold: usize) -> bool {
        self.chain_len() >= threshold
    }

    /// Fold the chain into a fresh base generation `new_gen`: the
    /// current total becomes the new base row count and the link list
    /// resets. Cached artifacts keyed by the old `(base_gen, chain_len)`
    /// become unreachable — the caller invalidates/rebuilds them.
    pub fn compact(&mut self, new_gen: u64) {
        let total = self.total_rows();
        self.base_gen = new_gen;
        self.watermarks = vec![total];
        self.compactions += 1;
    }

    /// The generation tag that scopes cache keys: `base_gen.chain_len`.
    /// Every append (and every compaction) changes the tag, so stale
    /// keys can never alias a newer state of the data.
    pub fn tag(&self) -> String {
        format!("{}.{}", self.base_gen, self.chain_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_lifecycle() {
        let mut c = DeltaChain::new(7, 100);
        assert_eq!(
            (c.chain_len(), c.base_rows(), c.total_rows()),
            (0, 100, 100)
        );
        assert_eq!(c.tag(), "7.0");
        c.push_link(120);
        c.push_link(120); // empty appends are legal links
        c.push_link(150);
        assert_eq!(c.chain_len(), 3);
        assert_eq!(c.delta_rows(), 50);
        assert_eq!(c.watermarks(), &[100, 120, 120, 150]);
        assert_eq!(c.tag(), "7.3");
        assert!(!c.should_compact(4));
        assert!(c.should_compact(3));
        c.compact(9);
        assert_eq!((c.base_gen(), c.chain_len()), (9, 0));
        assert_eq!((c.base_rows(), c.delta_rows()), (150, 0));
        assert_eq!(c.compactions(), 1);
        assert_eq!(c.tag(), "9.0");
    }

    #[test]
    #[should_panic(expected = "must not shrink")]
    fn shrinking_link_panics() {
        let mut c = DeltaChain::new(1, 10);
        c.push_link(5);
    }
}
