//! Tables: schema + columns + row accessors.

use visdb_types::{Column, ColumnId, Error, Result, Schema, Value};

use crate::column::ColumnData;
use crate::stats::ColumnStats;

/// A materialised row (only built off the hot path: selected-tuple display,
/// CSV export, tests).
pub type Row = Vec<Value>;

/// An in-memory table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<ColumnData>,
    rows: usize,
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

    /// Append one row. The row must match the schema arity and the value
    /// types must be column-compatible. On a mid-row type error the row is
    /// rolled back so the table never holds ragged columns.
    pub fn push_row(&mut self, row: Row) -> Result<()> {
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
    /// table is left exactly as it was. The happy path is O(Δ) column
    /// pushes; only a mid-batch arity/type error pays an O(n) rollback
    /// gather.
    pub fn append_rows(&mut self, rows: Vec<Row>) -> Result<()> {
        let before = self.rows;
        for row in rows {
            if let Err(e) = self.push_row(row) {
                let truncated: Vec<usize> = (0..before).collect();
                for c in self.columns.iter_mut() {
                    *c = c.gather(&truncated);
                }
                self.rows = before;
                return Err(e);
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

    #[test]
    fn column_lookup_errors_name_the_table() {
        let t = small_table();
        let e = t.column_by_name("zzz").unwrap_err();
        assert!(e.to_string().contains('T'));
    }
}
