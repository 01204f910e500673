//! Alternative multi-attribute distance combiners (§5.2):
//!
//! "for special applications other specific distance functions such as
//! the Euclidean, Lp or the Mahalanobis distance in n-dimensional space
//! may be used to combine the values of multiple attributes."
//!
//! These treat the per-predicate normalized distances of one data item as
//! a vector in `#sp`-dimensional space and reduce it to a scalar. They
//! share the AND-like semantics (zero iff *all* parts are zero) but
//! weight far misses differently: L2 emphasises the largest deviation
//! more than the arithmetic mean, L∞ (the limit) is the fuzzy max, and
//! Mahalanobis additionally discounts correlated predicates.

use visdb_types::{Error, Result};

fn check<C: AsRef<[Option<f64>]>>(children: &[C]) -> Result<usize> {
    if children.is_empty() {
        return Err(Error::invalid_query("combine of zero children"));
    }
    let n = children[0].as_ref().len();
    if children.iter().any(|c| c.as_ref().len() != n) {
        return Err(Error::Internal("ragged child distance vectors".into()));
    }
    Ok(n)
}

/// Weighted Lp combination: `dᵢ = (Σⱼ wⱼ·|dᵢⱼ|ᵖ)^(1/p)`, `p ≥ 1`.
/// `None` children make the item undefined (AND semantics).
pub fn combine_lp<C: AsRef<[Option<f64>]>>(
    children: &[C],
    weights: &[f64],
    p: f64,
) -> Result<Vec<Option<f64>>> {
    if p.is_nan() || p < 1.0 {
        return Err(Error::invalid_parameter("p", "Lp requires p >= 1"));
    }
    let n = check(children)?;
    if children.len() != weights.len() {
        return Err(Error::Internal("weights/children mismatch".into()));
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut sum = 0.0;
        let mut ok = true;
        for (c, &w) in children.iter().zip(weights) {
            match c.as_ref()[i] {
                Some(d) => sum += w * d.abs().powf(p),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        out.push(if ok { Some(sum.powf(1.0 / p)) } else { None });
    }
    Ok(out)
}

/// Weighted Euclidean combination: [`combine_lp`] with `p = 2`.
pub fn combine_euclidean<C: AsRef<[Option<f64>]>>(
    children: &[C],
    weights: &[f64],
) -> Result<Vec<Option<f64>>> {
    combine_lp(children, weights, 2.0)
}

/// Mahalanobis combination: `dᵢ = sqrt(xᵢᵀ Σ⁻¹ xᵢ)` where `xᵢ` is item
/// `i`'s vector of per-predicate distances and `Σ` the empirical
/// covariance of those distances over the defined items. Correlated
/// predicates (e.g. temperature and solar radiation) are discounted so
/// they do not double-count the same deviation.
///
/// The covariance is regularised with `ridge·I` to stay invertible; the
/// inverse is computed by Gauss–Jordan elimination (the number of
/// predicates is tiny).
pub fn combine_mahalanobis<C: AsRef<[Option<f64>]>>(
    children: &[C],
    ridge: f64,
) -> Result<Vec<Option<f64>>> {
    let n = check(children)?;
    let k = children.len();
    if !ridge.is_finite() || ridge < 0.0 {
        return Err(Error::invalid_parameter("ridge", "must be finite and >= 0"));
    }
    // means over fully-defined items
    let defined: Vec<usize> = (0..n)
        .filter(|&i| children.iter().all(|c| c.as_ref()[i].is_some()))
        .collect();
    if defined.is_empty() {
        return Ok(vec![None; n]);
    }
    let m = defined.len() as f64;
    let mean: Vec<f64> = children
        .iter()
        .map(|c| {
            defined
                .iter()
                .map(|&i| c.as_ref()[i].expect("defined"))
                .sum::<f64>()
                / m
        })
        .collect();
    // covariance + ridge
    let mut cov = vec![vec![0.0f64; k]; k];
    for &i in &defined {
        for a in 0..k {
            let xa = children[a].as_ref()[i].expect("defined") - mean[a];
            for b in a..k {
                let xb = children[b].as_ref()[i].expect("defined") - mean[b];
                cov[a][b] += xa * xb;
            }
        }
    }
    // symmetrise the upper triangle and scale by the sample count
    #[allow(clippy::needless_range_loop)]
    for a in 0..k {
        for b in a..k {
            let v = cov[a][b] / m;
            cov[a][b] = v;
            cov[b][a] = v;
        }
        cov[a][a] += ridge.max(1e-9);
    }
    let inv = invert(&cov).ok_or_else(|| {
        Error::invalid_parameter("covariance", "singular even after ridge regularisation")
    })?;
    // d_i = sqrt(x^T inv x) with x the raw (not mean-centred) distance
    // vector: an item with all parts fulfilled must stay at distance 0
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let x: Option<Vec<f64>> = children.iter().map(|c| c.as_ref()[i]).collect();
        match x {
            Some(x) => {
                let mut q = 0.0;
                for a in 0..k {
                    for b in 0..k {
                        q += x[a] * inv[a][b] * x[b];
                    }
                }
                out.push(Some(q.max(0.0).sqrt()));
            }
            None => out.push(None),
        }
    }
    Ok(out)
}

/// Gauss–Jordan inversion of a small square matrix.
fn invert(m: &[Vec<f64>]) -> Option<Vec<Vec<f64>>> {
    let k = m.len();
    let mut a: Vec<Vec<f64>> = m.to_vec();
    let mut inv: Vec<Vec<f64>> = (0..k)
        .map(|i| (0..k).map(|j| f64::from(u8::from(i == j))).collect())
        .collect();
    for col in 0..k {
        // partial pivot
        let pivot = (col..k).max_by(|&x, &y| {
            a[x][col]
                .abs()
                .partial_cmp(&a[y][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let p = a[col][col];
        for j in 0..k {
            a[col][j] /= p;
            inv[col][j] /= p;
        }
        for row in 0..k {
            if row != col {
                let f = a[row][col];
                for j in 0..k {
                    a[row][j] -= f * a[col][j];
                    inv[row][j] -= f * inv[col][j];
                }
            }
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(xs: &[f64]) -> Vec<Option<f64>> {
        xs.iter().map(|&x| Some(x)).collect()
    }

    #[test]
    fn euclidean_is_l2() {
        let out = combine_euclidean(&[v(&[3.0]), v(&[4.0])], &[1.0, 1.0]).unwrap();
        assert!((out[0].unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn lp_limits() {
        // p = 1 is the weighted sum of magnitudes
        let out = combine_lp(&[v(&[3.0]), v(&[-4.0])], &[1.0, 1.0], 1.0).unwrap();
        assert!((out[0].unwrap() - 7.0).abs() < 1e-12);
        // large p approaches the max
        let out = combine_lp(&[v(&[3.0]), v(&[4.0])], &[1.0, 1.0], 64.0).unwrap();
        assert!((out[0].unwrap() - 4.0).abs() < 0.1);
        assert!(combine_lp(&[v(&[1.0])], &[1.0], 0.5).is_err());
    }

    #[test]
    fn zero_iff_all_zero() {
        let out = combine_euclidean(&[v(&[0.0, 0.0]), v(&[0.0, 2.0])], &[1.0, 1.0]).unwrap();
        assert_eq!(out[0], Some(0.0));
        assert!(out[1].unwrap() > 0.0);
    }

    #[test]
    fn none_propagates() {
        let out = combine_euclidean(&[vec![None], v(&[1.0])], &[1.0, 1.0]).unwrap();
        assert_eq!(out, vec![None]);
    }

    #[test]
    fn mahalanobis_discounts_correlated_predicates() {
        // two perfectly correlated predicates vs two independent ones:
        // the correlated pair should not double-count
        let a: Vec<Option<f64>> = (0..200).map(|i| Some((i % 17) as f64)).collect();
        let corr = a.clone();
        let indep: Vec<Option<f64>> = (0..200).map(|i| Some(((i * 7) % 13) as f64)).collect();
        let d_corr = combine_mahalanobis(&[a.clone(), corr], 1e-6).unwrap();
        let d_indep = combine_mahalanobis(&[a, indep], 1e-6).unwrap();
        // pick an item with large distances on both parts
        let i = (0..200)
            .max_by(|&x, &y| d_indep[x].partial_cmp(&d_indep[y]).unwrap())
            .unwrap();
        // correlated case must not exceed the independent case by the
        // naive sqrt(2) factor an L2 would apply
        assert!(
            d_corr[i].unwrap() < d_indep[i].unwrap() * 1.45,
            "corr {:?} vs indep {:?}",
            d_corr[i],
            d_indep[i]
        );
    }

    #[test]
    fn mahalanobis_fulfilled_item_is_zero() {
        let a = vec![Some(0.0), Some(5.0), Some(9.0)];
        let b = vec![Some(0.0), Some(2.0), Some(7.0)];
        let out = combine_mahalanobis(&[a, b], 1e-6).unwrap();
        assert!(out[0].unwrap() < 1e-9);
        assert!(out[2].unwrap() > 0.0);
    }

    #[test]
    fn invert_identity_and_singular() {
        let id = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        assert_eq!(invert(&id).unwrap(), id);
        let sing = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert!(invert(&sing).is_none());
    }

    proptest! {
        /// Lp is monotone in every child's magnitude.
        #[test]
        fn prop_lp_monotone(d1 in 0.0f64..255.0, d2 in 0.0f64..255.0,
                            bump in 0.0f64..50.0, p in 1.0f64..8.0) {
            let a = combine_lp(&[v(&[d1]), v(&[d2])], &[1.0, 1.0], p).unwrap()[0].unwrap();
            let b = combine_lp(&[v(&[d1 + bump]), v(&[d2])], &[1.0, 1.0], p).unwrap()[0].unwrap();
            prop_assert!(b >= a - 1e-9);
        }

        /// The geometric-mean OR responds to *every* child, while fuzzy
        /// min ignores increases in non-minimal children — the semantic
        /// reason §5.2 prefers the mean (EXPERIMENTS.md ablation 1).
        #[test]
        fn prop_geometric_or_sees_all_children(
            dmin in 1.0f64..50.0, dother in 100.0f64..200.0, bump in 1.0f64..50.0,
        ) {
            use crate::combine::ablation::combine_or_min;
            use crate::reference::combine_or;
            let before = combine_or(&[v(&[dmin]), v(&[dother])], &[1.0, 1.0]).unwrap()[0].unwrap();
            let after = combine_or(&[v(&[dmin]), v(&[dother + bump])], &[1.0, 1.0]).unwrap()[0].unwrap();
            prop_assert!(after > before, "geometric mean must grow");
            let fm_before = combine_or_min(&[v(&[dmin]), v(&[dother])], &[1.0, 1.0]).unwrap()[0].unwrap();
            let fm_after = combine_or_min(&[v(&[dmin]), v(&[dother + bump])], &[1.0, 1.0]).unwrap()[0].unwrap();
            prop_assert_eq!(fm_before, fm_after, "fuzzy min is blind to the far child");
        }
    }
}
