//! Tables: schema + columns + row accessors.

use std::sync::{Arc, OnceLock};

use visdb_index::SortedProjection;
use visdb_types::{Column, ColumnId, Error, Result, Schema, Value};

use crate::column::ColumnData;
use crate::sketch::ColumnSketch;
use crate::stats::ColumnStats;

/// A materialised row (only built off the hot path: selected-tuple display,
/// CSV export, tests).
pub type Row = Vec<Value>;

/// An in-memory table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<ColumnData>,
    rows: usize,
    /// What each column derives, one entry per column. Equality ignores
    /// it; a clone keeps what is built.
    derived: Vec<Derived>,
}

/// The lazily built structures derived from one column, in the manner of
/// [`crate::StrColumn`]'s dictionary: each built on the first ask and
/// shared by every reader of the table.
#[derive(Debug, Clone, Default)]
struct Derived {
    /// `None` once known unsketchable.
    sketch: OnceLock<Option<ColumnSketch>>,
    /// What a slider drag and a §4.4 join's inner key sweep.
    projection: OnceLock<Arc<SortedProjection>>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        let Table {
            name,
            schema,
            columns,
            rows,
            derived: _,
        } = self;
        (name, schema, columns, rows) == (&other.name, &other.schema, &other.columns, &other.rows)
    }
}

impl Table {
    /// Create an empty table for a schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| ColumnData::new(c.data_type))
            .collect();
        Table {
            name: name.into(),
            derived: vec![Derived::default(); schema.len()],
            schema,
            columns,
            rows: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column by position.
    pub fn column(&self, id: ColumnId) -> Result<&ColumnData> {
        self.columns.get(id).ok_or_else(|| Error::UnknownColumn {
            table: self.name.clone(),
            column: format!("#{id}"),
        })
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&ColumnData> {
        let id = self.schema.require(&self.name, name)?;
        self.column(id)
    }

    /// The byte sketch of column `id` ([`ColumnSketch`]), built on the
    /// first call and shared by every reader of this table. `None` for an
    /// empty table, an unknown column, or one that cannot have a sketch
    /// (not a native `F64` / `I64` buffer, or a NULL, NaN or ±inf row).
    pub fn sketch(&self, id: ColumnId) -> Option<&ColumnSketch> {
        let (derived, col) = (self.derived.get(id)?, self.columns.get(id)?);
        if self.rows == 0 {
            return None;
        }
        derived
            .sketch
            .get_or_init(|| ColumnSketch::build(col))
            .as_ref()
    }

    /// The sketch of column `id` when one is built; never builds.
    pub fn built_sketch(&self, id: ColumnId) -> Option<&ColumnSketch> {
        self.derived.get(id)?.sketch.get()?.as_ref()
    }

    /// The sorted projection of column `id` ([`SortedProjection`]: its
    /// rows in value order, NULL and NaN rows left out), built on the
    /// first call and shared by every reader of this table. `None` for an
    /// unknown column.
    pub fn projection(&self, id: ColumnId) -> Option<&Arc<SortedProjection>> {
        let (derived, col) = (self.derived.get(id)?, self.columns.get(id)?);
        let build = || SortedProjection::build(self.rows, |i| col.get_f64(i));
        Some(derived.projection.get_or_init(|| Arc::new(build())))
    }

    /// The projection of column `id` when one is built; never builds.
    pub fn built_projection(&self, id: ColumnId) -> Option<&Arc<SortedProjection>> {
        self.derived.get(id)?.projection.get()
    }

    /// Append one row. The row must match the schema arity and the value
    /// types must be column-compatible. On a mid-row type error the row is
    /// rolled back so the table never holds ragged columns. Drops every
    /// built sketch and projection ([`Table::append_rows`] extends them
    /// instead).
    pub fn push_row(&mut self, row: Row) -> Result<()> {
        self.derived.fill_with(Derived::default);
        self.push_values(row)
    }

    /// [`Table::push_row`] with the derived slots left as they are.
    fn push_values(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(Error::ArityMismatch {
                expected: self.schema.len(),
                found: row.len(),
            });
        }
        for (i, v) in row.into_iter().enumerate() {
            if let Err(e) = self.columns[i].push(v) {
                // roll back the partial row
                let truncated: Vec<usize> = (0..self.rows).collect();
                for c in self.columns.iter_mut().take(i) {
                    *c = c.gather(&truncated);
                }
                return Err(e);
            }
        }
        self.rows += 1;
        Ok(())
    }

    /// Append a batch of rows atomically: either every row lands or the
    /// table is left exactly as it was, its sketches and projections
    /// included. The happy path is O(Δ) column pushes, O(Δ) sketch
    /// extensions (a Δ with a NULL, NaN or ±inf value drops that column's
    /// sketch for good) and an O(Δ log Δ + n) merge per built projection
    /// ([`SortedProjection::extended`]); only a mid-batch arity/type error
    /// pays an O(n) rollback gather.
    pub fn append_rows(&mut self, rows: Vec<Row>) -> Result<()> {
        let before = self.rows;
        for row in rows {
            if let Err(e) = self.push_values(row) {
                let truncated: Vec<usize> = (0..before).collect();
                for c in self.columns.iter_mut() {
                    *c = c.gather(&truncated);
                }
                self.rows = before;
                return Err(e);
            }
        }
        for (derived, col) in self.derived.iter_mut().zip(&self.columns) {
            if let Some(Some(sketch)) = derived.sketch.get_mut() {
                if !sketch.extend(col) {
                    derived.sketch = OnceLock::from(None);
                }
            }
            if let Some(projection) = derived.projection.get_mut() {
                *projection = Arc::new(projection.extended(self.rows, |i| col.get_f64(i)));
            }
        }
        Ok(())
    }

    /// Materialise row `i`.
    pub fn row(&self, i: usize) -> Result<Row> {
        if i >= self.rows {
            return Err(Error::RowOutOfBounds {
                row: i,
                len: self.rows,
            });
        }
        Ok(self.columns.iter().map(|c| c.get(i)).collect())
    }

    /// Compute statistics for a column (O(n); results are cheap to cache at
    /// the session layer).
    pub fn stats(&self, id: ColumnId) -> Result<ColumnStats> {
        Ok(ColumnStats::compute(self.column(id)?))
    }

    /// Build a new table containing only `indices` (in order). Used for
    /// color-range projection (§4.3: "to get only those data items
    /// displayed that have the selected color").
    pub fn gather(&self, name: impl Into<String>, indices: &[usize]) -> Table {
        let columns: Vec<ColumnData> = self.columns.iter().map(|c| c.gather(indices)).collect();
        Table {
            name: name.into(),
            schema: self.schema.clone(),
            derived: vec![Derived::default(); columns.len()],
            columns,
            rows: indices.len(),
        }
    }

    /// Cross product with another table, producing the combined schema via
    /// [`Schema::join`]. The row count is `self.len() * other.len()` —
    /// callers (approximate joins, §4.4) are expected to bound inputs.
    pub fn cross_product(&self, other: &Table, name: impl Into<String>) -> Table {
        let schema = self.schema.join(other.schema(), other.name());
        let n = self.rows;
        let m = other.rows;
        let mut left_idx = Vec::with_capacity(n * m);
        let mut right_idx = Vec::with_capacity(n * m);
        for i in 0..n {
            for j in 0..m {
                left_idx.push(i);
                right_idx.push(j);
            }
        }
        let mut columns: Vec<ColumnData> =
            self.columns.iter().map(|c| c.gather(&left_idx)).collect();
        columns.extend(other.columns.iter().map(|c| c.gather(&right_idx)));
        Table {
            name: name.into(),
            schema,
            derived: vec![Derived::default(); columns.len()],
            columns,
            rows: n * m,
        }
    }
}

/// Convenience builder for assembling tables in examples and tests.
#[derive(Debug)]
pub struct TableBuilder {
    table: Table,
}

impl TableBuilder {
    /// Start a table with the given columns.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        TableBuilder {
            table: Table::new(name, Schema::new(columns)),
        }
    }

    /// Append a row of values convertible to [`Value`].
    pub fn row(mut self, values: Vec<Value>) -> Result<Self> {
        self.table.push_row(values)?;
        Ok(self)
    }

    /// Finish building.
    pub fn build(self) -> Table {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use visdb_types::DataType;

    fn small_table() -> Table {
        TableBuilder::new(
            "T",
            vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Str),
            ],
        )
        .row(vec![Value::Int(1), Value::from("x")])
        .unwrap()
        .row(vec![Value::Int(2), Value::from("y")])
        .unwrap()
        .build()
    }

    #[test]
    fn push_and_read_rows() {
        let t = small_table();
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(1).unwrap(), vec![Value::Int(2), Value::from("y")]);
        assert!(t.row(2).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = small_table();
        assert!(matches!(
            t.push_row(vec![Value::Int(1)]),
            Err(Error::ArityMismatch { .. })
        ));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn type_error_rolls_back_partial_row() {
        let mut t = small_table();
        let err = t.push_row(vec![Value::Int(3), Value::Int(4)]);
        assert!(err.is_err());
        assert_eq!(t.len(), 2);
        // column 'a' must not have grown
        assert_eq!(t.column_by_name("a").unwrap().len(), 2);
    }

    #[test]
    fn append_rows_is_atomic() {
        let mut t = small_table();
        t.append_rows(vec![
            vec![Value::Int(3), Value::from("z")],
            vec![Value::Int(4), Value::Null],
        ])
        .unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.row(3).unwrap(), vec![Value::Int(4), Value::Null]);
        // a bad row anywhere in the batch rolls the whole batch back
        let err = t.append_rows(vec![
            vec![Value::Int(5), Value::from("ok")],
            vec![Value::from("bad"), Value::from("row")],
        ]);
        assert!(err.is_err());
        assert_eq!(t.len(), 4);
        assert_eq!(t.column_by_name("a").unwrap().len(), 4);
        assert_eq!(t.row(3).unwrap(), vec![Value::Int(4), Value::Null]);
    }

    #[test]
    fn gather_projects_rows() {
        let t = small_table();
        let g = t.gather("G", &[1]);
        assert_eq!(g.len(), 1);
        assert_eq!(g.row(0).unwrap()[0], Value::Int(2));
    }

    #[test]
    fn cross_product_shapes() {
        let t = small_table();
        let u = TableBuilder::new("U", vec![Column::new("a", DataType::Int)])
            .row(vec![Value::Int(10)])
            .unwrap()
            .row(vec![Value::Int(20)])
            .unwrap()
            .row(vec![Value::Int(30)])
            .unwrap()
            .build();
        let x = t.cross_product(&u, "TxU");
        assert_eq!(x.len(), 6);
        assert_eq!(x.schema().len(), 3);
        // collision 'a' got prefixed
        assert!(x.schema().index_of("U.a").is_some());
        let r = x.row(1).unwrap();
        assert_eq!(r[0], Value::Int(1)); // t row 0
        assert_eq!(r[2], Value::Int(20)); // u row 1
    }

    /// A float column and a string one, `n` rows.
    fn numbers(n: usize) -> Table {
        let cols = vec![
            Column::new("x", DataType::Float),
            Column::new("s", DataType::Str),
        ];
        let mut t = Table::new("N", Schema::new(cols));
        let rows = (0..n).map(|i| vec![Value::Float((i * 7 % 101) as f64), Value::from("a")]);
        t.append_rows(rows.collect()).unwrap();
        t
    }

    /// Two projections hold the same rows, permutation, values and flags.
    fn assert_same(a: &SortedProjection, b: &SortedProjection) {
        assert_eq!(
            (a.rows(), a.defined(), a.is_fully_finite()),
            (b.rows(), b.defined(), b.is_fully_finite())
        );
        for j in 0..a.defined() {
            assert_eq!(a.row_at(j), b.row_at(j), "permutation diverges at {j}");
            assert_eq!(a.value_at(j).to_bits(), b.value_at(j).to_bits());
        }
        for i in 0..a.rows() {
            assert_eq!(a.coord(i).to_bits(), b.coord(i).to_bits());
        }
    }

    /// Column 0 of `t`, projected from scratch.
    fn fresh(t: &Table) -> SortedProjection {
        let col = t.column(0).unwrap();
        SortedProjection::build(t.len(), |i| col.get_f64(i))
    }

    #[test]
    fn sketches_are_lazy_shared_and_extended_by_appends() {
        let mut t = numbers(1_000);
        assert!(t.built_sketch(0).is_none() && t.built_projection(0).is_none());
        assert!(t.sketch(1).is_none() && t.sketch(2).is_none());
        assert!(t.projection(2).is_none());
        let before = t.sketch(0).unwrap().clone();
        assert_eq!(t.built_sketch(0), Some(&before));
        let projection = Arc::clone(t.projection(0).unwrap());
        assert!(Arc::ptr_eq(t.built_projection(0).unwrap(), &projection));
        assert_same(&projection, &fresh(&t));
        // equality ignores the slots; a clone keeps what is built
        assert_eq!(t, numbers(1_000));
        let clone = t.clone();
        assert_eq!(clone.built_sketch(0), Some(&before));
        assert!(Arc::ptr_eq(clone.built_projection(0).unwrap(), &projection));
        // gather and cross product start empty
        let gathered = t.gather("G", &[0, 1]);
        assert!(gathered.built_sketch(0).is_none() && gathered.built_projection(0).is_none());
        let crossed = t.cross_product(&t, "X");
        assert!(crossed.built_sketch(0).is_none() && crossed.built_projection(0).is_none());

        t.append_rows(vec![vec![Value::Float(500.0), Value::from("b")]])
            .unwrap();
        let grown = t.built_sketch(0).expect("extended, not dropped");
        assert_eq!(grown.bounds(), before.bounds());
        assert_eq!(&grown.codes()[..1_000], before.codes());
        assert_eq!(grown.len(), 1_001);
        let merged = Arc::clone(t.built_projection(0).expect("extended, not dropped"));
        assert_same(&merged, &fresh(&t));
        assert_eq!(
            projection.rows(),
            1_000,
            "the clone's generation keeps its own"
        );
        // a failed append leaves the sketch and the projection as they were
        let kept = grown.clone();
        let bad = vec![
            vec![Value::Float(1.0), Value::from("c")],
            vec![Value::from("bad"), Value::from("row")],
        ];
        assert!(t.append_rows(bad).is_err());
        assert_eq!(t.built_sketch(0), Some(&kept));
        assert!(Arc::ptr_eq(t.built_projection(0).unwrap(), &merged));
        // a NULL drops the sketch for good; the projection leaves it out
        t.append_rows(vec![vec![Value::Null, Value::from("d")]])
            .unwrap();
        assert!(t.built_sketch(0).is_none() && t.sketch(0).is_none());
        assert_same(t.built_projection(0).unwrap(), &fresh(&t));
        // a bare push drops both for a rebuild
        let mut u = numbers(10);
        let _ = (u.sketch(0).unwrap(), u.projection(0).unwrap());
        u.push_row(vec![Value::Float(1.0), Value::from("e")])
            .unwrap();
        assert!(u.built_sketch(0).is_none() && u.built_projection(0).is_none());
        assert_eq!(u.sketch(0).unwrap().len(), 11);
        assert_same(u.projection(0).unwrap(), &fresh(&u));
        assert!(Table::new("E", u.schema().clone()).sketch(0).is_none());
    }

    #[test]
    fn column_lookup_errors_name_the_table() {
        let t = small_table();
        let e = t.column_by_name("zzz").unwrap_err();
        assert!(e.to_string().contains('T'));
    }
}
