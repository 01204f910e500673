//! Scoring helpers for the experiment harness.

/// Positions (0-based ranks) of target rows inside a relevance-ordered
/// index list; rows absent from the ordering get `None`.
///
/// Used by claim C2: a planted hot spot that ranks near the top of the
/// relevance order is "findable" through the visualization, while a
/// boolean baseline either returns it (drowned among thousands) or not
/// at all.
/// A pipeline's `order` holds only what it ranked (the policy's top
/// k): an unranked hot spot is exactly the `None` ("not findable")
/// outcome this metric is meant to report.
pub fn hot_spot_ranks(order: &[usize], targets: &[usize]) -> Vec<Option<usize>> {
    targets
        .iter()
        .map(|t| order.iter().position(|i| i == t))
        .collect()
}

/// Size of the smallest cluster in a k-means assignment — claim C3: if an
/// outlier were isolated, the smallest cluster would have size 1; in
/// practice it is absorbed and the smallest cluster stays large.
pub fn smallest_cluster_size(assignments: &[usize], k: usize) -> usize {
    let mut counts = vec![0usize; k];
    for &a in assignments {
        if a < k {
            counts[a] += 1;
        }
    }
    counts.into_iter().filter(|&c| c > 0).min().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks() {
        let order = vec![9, 3, 7, 1];
        assert_eq!(
            hot_spot_ranks(&order, &[7, 9, 4]),
            vec![Some(2), Some(0), None]
        );
    }

    #[test]
    fn smallest_cluster() {
        let a = vec![0, 0, 0, 1, 1, 2];
        assert_eq!(smallest_cluster_size(&a, 3), 1);
        assert_eq!(smallest_cluster_size(&[], 3), 0);
        // empty clusters are ignored
        let a = vec![0, 0, 2, 2];
        assert_eq!(smallest_cluster_size(&a, 3), 2);
    }
}
