//! Base-relation materialisation, including approximate joins (§4.4).
//!
//! "The totality of data items that need to be considered in this case
//! corresponds to the cross product of all tables involved."
//!
//! A full cross product of two 10⁵-row tables is 10¹⁰ items — far beyond
//! the display budget and memory. Two bounding strategies keep the
//! semantics while staying tractable:
//!
//! * **Band join** — when the query contains a `TimeDiff` connection, the
//!   only pairs that can ever be displayed are those whose time
//!   difference is near the expected offset. We enumerate exactly the
//!   pairs within `band_seconds` of the offset (sort + binary search,
//!   O((n+m) log m + |result|)) plus a deterministic sample of far pairs
//!   so the windows still show the far-distance color mass.
//! * **Uniform pair sampling** — otherwise, a deterministic stride sample
//!   of the cross product bounded by `row_cap`.
//!
//! Both strategies are *substitutions for a scrolling display*, not for
//! the math: every retained pair gets its true distance.

use std::sync::Arc;

use visdb_query::ast::{ConditionNode, Query, Weighted};
use visdb_query::connection::ConnectionKind;
use visdb_storage::{Database, Table};
use visdb_types::{Error, Result};

/// Bounds for cross-product materialisation.
#[derive(Debug, Clone)]
pub struct JoinOptions {
    /// Maximum number of base-relation rows to materialise.
    pub row_cap: usize,
    /// Half-width of the time band around a `TimeDiff` connection's
    /// expected offset, in seconds.
    pub band_seconds: f64,
    /// Fraction of the row cap reserved for far (out-of-band) pairs so
    /// the distance distribution keeps its tail.
    pub far_fraction: f64,
}

impl Default for JoinOptions {
    fn default() -> Self {
        JoinOptions {
            row_cap: 200_000,
            band_seconds: 3_600.0 * 6.0,
            far_fraction: 0.25,
        }
    }
}

/// Find the first `TimeDiff` connection in the condition tree, returning
/// `(left attr column name, right attr column name, expected offset)`.
fn find_time_diff(node: &ConditionNode) -> Option<(String, String, f64)> {
    let mut found = None;
    node.visit(&mut |n| {
        if found.is_some() {
            return;
        }
        if let ConditionNode::Connection(u) = n {
            if let ConnectionKind::TimeDiff { left, right } = &u.def.kind {
                found = Some((
                    left.column.clone(),
                    right.column.clone(),
                    *u.params.first().unwrap_or(&0.0),
                ));
            }
        }
    });
    found
}

/// Materialise the base relation for a query: the single table itself
/// (a shared handle — no row is copied), or a bounded cross product for
/// multi-table queries.
pub fn materialize_base(db: &Database, query: &Query, opts: &JoinOptions) -> Result<Arc<Table>> {
    match query.tables.len() {
        0 => Err(Error::invalid_query("query references no tables")),
        1 => db.shared_table(&query.tables[0]),
        2 => {
            let left = db.table(&query.tables[0])?;
            let right = db.table(&query.tables[1])?;
            let time_diff = query
                .condition
                .as_ref()
                .and_then(|w: &Weighted| find_time_diff(&w.node));
            materialize_pair(left, right, time_diff, opts).map(Arc::new)
        }
        n => Err(Error::invalid_query(format!(
            "queries over {n} tables are not supported (the paper's interface joins two relations at a time)"
        ))),
    }
}

fn materialize_pair(
    left: &Table,
    right: &Table,
    time_diff: Option<(String, String, f64)>,
    opts: &JoinOptions,
) -> Result<Table> {
    let n = left.len();
    let m = right.len();
    let total = n.saturating_mul(m);
    let name = format!("{}x{}", left.name(), right.name());
    if total <= opts.row_cap {
        return Ok(left.cross_product(right, name));
    }
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    if let Some((lcol_name, rcol_name, expected)) = &time_diff {
        // band join on timestamps: keep pairs with
        // |t_left - t_right - expected| <= band. NOTE: the TimeDiff kind
        // declares left = first query table? Not necessarily — resolve by
        // column presence: try left table first, fall back to swapped.
        let (lcol, rcol, sign) = match (
            left.column_by_name(lcol_name),
            right.column_by_name(rcol_name),
        ) {
            (Ok(a), Ok(b)) => (a, b, 1.0),
            _ => (
                left.column_by_name(rcol_name)?,
                right.column_by_name(lcol_name)?,
                -1.0,
            ),
        };
        // sort right rows by timestamp for binary search
        let mut right_ts: Vec<(f64, usize)> = (0..m)
            .filter_map(|j| rcol.get_f64(j).map(|t| (t, j)))
            .collect();
        right_ts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let band_cap = ((1.0 - opts.far_fraction) * opts.row_cap as f64) as usize;
        'left: for i in 0..n {
            let Some(tl) = lcol.get_f64(i) else { continue };
            // want: tl - tr - expected*sign ≈ 0  =>  tr ≈ tl - expected*sign
            let target = tl - expected * sign;
            let lo = target - opts.band_seconds;
            let hi = target + opts.band_seconds;
            let start = right_ts.partition_point(|(t, _)| *t < lo);
            for &(t, j) in &right_ts[start..] {
                if t > hi {
                    break;
                }
                pairs.push((i, j));
                if pairs.len() >= band_cap {
                    break 'left;
                }
            }
        }
    }
    // top up with a deterministic stride sample of the full cross product
    let want_far = opts.row_cap.saturating_sub(pairs.len());
    if want_far > 0 {
        let stride = (total / want_far.max(1)).max(1);
        let mut k = 0usize;
        while k < total && pairs.len() < opts.row_cap {
            pairs.push((k / m, k % m));
            k += stride;
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let left_idx: Vec<usize> = pairs.iter().map(|p| p.0).collect();
    let right_idx: Vec<usize> = pairs.iter().map(|p| p.1).collect();
    let lpart = left.gather(left.name(), &left_idx);
    let rpart = right.gather(right.name(), &right_idx);
    // zip the gathered halves row-by-row
    let schema = left.schema().join(right.schema(), right.name());
    let mut out = Table::new(name, schema);
    for r in 0..pairs.len() {
        let mut row = lpart.row(r)?;
        row.extend(rpart.row(r)?);
        out.push_row(row)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use visdb_query::ast::AttrRef;
    use visdb_query::builder::QueryBuilder;
    use visdb_query::connection::ConnectionDef;
    use visdb_storage::TableBuilder;
    use visdb_types::{Column, DataType, Value};

    fn ts_table(name: &str, count: usize, step: i64, offset: i64) -> Table {
        let mut b = TableBuilder::new(
            name,
            vec![
                Column::new("DateTime", DataType::Timestamp),
                Column::new("v", DataType::Float),
            ],
        );
        for i in 0..count {
            b = b
                .row(vec![
                    Value::Timestamp(i as i64 * step + offset),
                    Value::Float(i as f64),
                ])
                .unwrap();
        }
        b.build()
    }

    fn db_two(n: usize, m: usize) -> Database {
        let mut db = Database::new("d");
        db.add_table(ts_table("L", n, 3600, 0));
        db.add_table(ts_table("R", m, 3600, 600));
        db
    }

    fn time_conn(db: &Database) -> visdb_query::connection::ConnectionUse {
        let _ = db;
        ConnectionDef {
            name: "with-time-diff".into(),
            left_table: "L".into(),
            right_table: "R".into(),
            kind: ConnectionKind::TimeDiff {
                left: AttrRef::qualified("L", "DateTime"),
                right: AttrRef::qualified("R", "DateTime"),
            },
        }
        .instantiate(vec![7200.0])
        .unwrap()
    }

    #[test]
    fn single_table_passthrough() {
        let db = db_two(5, 5);
        let q = QueryBuilder::from_tables(["L"]).build();
        let t = materialize_base(&db, &q, &JoinOptions::default()).unwrap();
        assert_eq!(t.len(), 5);
        assert!(Arc::ptr_eq(&t, &db.shared_table("L").unwrap()));
    }

    #[test]
    fn small_cross_product_is_full() {
        let db = db_two(10, 10);
        let q = QueryBuilder::from_tables(["L", "R"]).build();
        let t = materialize_base(&db, &q, &JoinOptions::default()).unwrap();
        assert_eq!(t.len(), 100);
        assert_eq!(t.schema().len(), 4);
        assert!(t.schema().index_of("R.DateTime").is_some());
    }

    #[test]
    fn capped_cross_product_samples() {
        let db = db_two(500, 500); // 250k pairs > cap
        let q = QueryBuilder::from_tables(["L", "R"]).build();
        let opts = JoinOptions {
            row_cap: 10_000,
            ..Default::default()
        };
        let t = materialize_base(&db, &q, &opts).unwrap();
        assert!(t.len() <= 10_000);
        assert!(t.len() >= 9_000, "sample too small: {}", t.len());
    }

    #[test]
    fn band_join_keeps_near_offset_pairs() {
        let db = db_two(500, 500);
        let conn = time_conn(&db);
        let q = QueryBuilder::from_tables(["L", "R"]).connect(conn).build();
        let opts = JoinOptions {
            row_cap: 50_000,
            band_seconds: 4.0 * 3600.0,
            far_fraction: 0.1,
        };
        let t = materialize_base(&db, &q, &opts).unwrap();
        assert!(t.len() <= 50_000);
        // count pairs whose diff is within 1h of the expected 7200s
        let lt = t.column_by_name("DateTime").unwrap();
        let rt = t.column_by_name("R.DateTime").unwrap();
        let near = (0..t.len())
            .filter(|&i| {
                let d = lt.get_f64(i).unwrap() - rt.get_f64(i).unwrap() - 7200.0;
                d.abs() <= 3600.0
            })
            .count();
        // every left row has ~2-3 in-band-hour partners; must be well
        // represented (a uniform sample would have almost none)
        assert!(near >= 500, "only {near} near pairs");
    }

    #[test]
    fn three_tables_rejected() {
        let db = db_two(3, 3);
        let q = QueryBuilder::from_tables(["L", "R", "L"]).build();
        assert!(materialize_base(&db, &q, &JoinOptions::default()).is_err());
    }
}
