//! The database catalog: a set of named tables.
//!
//! Mirrors the paper's query specification flow: "first the user has to
//! select the database s/he wants to work with ... the next step is to
//! select the tables to be used in the query" (§4.1).

use std::collections::BTreeMap;
use std::sync::Arc;

use visdb_types::{Error, Result};

use crate::table::Table;

/// A named collection of tables. Tables are held behind [`Arc`]s, so
/// cloning a database is O(tables) pointer clones: a new generation of
/// a dataset shares every table it does not change with the old one, and
/// [`Database::table_mut`] copies only the table it is about to modify.
#[derive(Debug, Clone, Default)]
pub struct Database {
    name: String,
    tables: BTreeMap<String, Arc<Table>>,
}

impl Database {
    /// New, empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Database {
            name: name.into(),
            tables: BTreeMap::new(),
        }
    }

    /// Database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Register (or replace) a table under its own name.
    pub fn add_table(&mut self, table: Table) {
        self.tables
            .insert(table.name().to_string(), Arc::new(table));
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .map(|t| &**t)
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    /// A shared handle to a table (a pointer clone, no row is copied).
    pub fn shared_table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    /// Mutable look-up. Copies the table first when another database
    /// generation (or a session result) still shares it.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    /// Remove a table, returning it if present.
    pub fn drop_table(&mut self, name: &str) -> Option<Table> {
        self.tables.remove(name).map(Arc::unwrap_or_clone)
    }

    /// Table names in sorted order (deterministic for UIs and tests).
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use visdb_types::{Column, DataType, Value};

    #[test]
    fn add_lookup_drop() {
        let mut db = Database::new("env");
        let t = TableBuilder::new("Weather", vec![Column::new("t", DataType::Float)])
            .row(vec![Value::Float(1.0)])
            .unwrap()
            .build();
        db.add_table(t);
        assert_eq!(db.len(), 1);
        assert_eq!(db.total_rows(), 1);
        assert!(db.table("Weather").is_ok());
        assert!(matches!(db.table("Nope"), Err(Error::UnknownTable(_))));
        assert!(db.drop_table("Weather").is_some());
        assert!(db.is_empty());
    }

    #[test]
    fn table_names_sorted() {
        let mut db = Database::new("env");
        for n in ["Zeta", "Alpha", "Mid"] {
            db.add_table(Table::new(n, visdb_types::Schema::default()));
        }
        assert_eq!(db.table_names(), vec!["Alpha", "Mid", "Zeta"]);
    }

    /// A new generation shares every table it does not grow: the clone
    /// is pointer clones, and `table_mut` copies only its own table.
    #[test]
    fn clone_shares_tables_and_append_copies_only_the_grown_one() {
        let table = |name: &str, rows: i64| {
            let mut b = TableBuilder::new(name, vec![Column::new("x", DataType::Int)]);
            for i in 0..rows {
                b = b.row(vec![Value::Int(i)]).unwrap();
            }
            b.build()
        };
        let mut old = Database::new("env");
        old.add_table(table("Grown", 3));
        old.add_table(table("Other", 2));
        let mut next = old.clone();
        for name in ["Grown", "Other"] {
            assert!(Arc::ptr_eq(
                &old.shared_table(name).unwrap(),
                &next.shared_table(name).unwrap()
            ));
        }
        next.table_mut("Grown")
            .unwrap()
            .append_rows(vec![vec![Value::Int(99)]])
            .unwrap();
        assert!(Arc::ptr_eq(
            &old.shared_table("Other").unwrap(),
            &next.shared_table("Other").unwrap()
        ));
        assert!(!Arc::ptr_eq(
            &old.shared_table("Grown").unwrap(),
            &next.shared_table("Grown").unwrap()
        ));
        assert_eq!(next.table("Grown").unwrap().len(), 4);
        // the original generation's rows are untouched
        assert_eq!(*old.table("Grown").unwrap(), table("Grown", 3));
    }

    #[test]
    fn replace_table_overwrites() {
        let mut db = Database::new("env");
        db.add_table(Table::new("T", visdb_types::Schema::default()));
        let t2 = TableBuilder::new("T", vec![Column::new("x", DataType::Int)])
            .row(vec![Value::Int(1)])
            .unwrap()
            .build();
        db.add_table(t2);
        assert_eq!(db.table("T").unwrap().len(), 1);
    }
}
