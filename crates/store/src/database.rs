//! The database container and its thread-safe wrapper.

use crate::exec::{self, ExecOutcome};
use crate::table::{StoreError, Table};
use gridrm_dbc::RowSet;
use gridrm_sqlparse::ast::SelectStatement;
use gridrm_sqlparse::{parse, SqlValue, Statement};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A single-threaded database: a named collection of tables.
#[derive(Debug, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Does a table exist (case-insensitive)?
    pub fn has_table(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    fn lookup(&self, name: &str) -> Option<&String> {
        self.tables.keys().find(|k| k.eq_ignore_ascii_case(name))
    }

    /// Borrow a table.
    pub fn table(&self, name: &str) -> Result<&Table, StoreError> {
        let key = self
            .lookup(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_owned()))?
            .clone();
        Ok(&self.tables[&key])
    }

    /// Borrow a table mutably.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StoreError> {
        let key = self
            .lookup(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_owned()))?
            .clone();
        Ok(self.tables.get_mut(&key).expect("key just resolved"))
    }

    /// Add a table (replacing any same-named one).
    pub fn create_table(&mut self, table: Table) {
        self.tables.insert(table.name.clone(), table);
    }

    /// Remove a table; returns whether it existed.
    pub fn drop_table(&mut self, name: &str) -> bool {
        match self.lookup(name).cloned() {
            Some(key) => {
                self.tables.remove(&key);
                true
            }
            None => false,
        }
    }

    /// Execute a parsed statement. `now` feeds `NOW()`.
    pub fn execute(&mut self, stmt: &Statement, now: i64) -> Result<ExecOutcome, StoreError> {
        exec::execute(self, stmt, now)
    }

    /// Run a SELECT over only the rows a predicate admits, without
    /// copying the table. `keep` is built once from the table the
    /// statement names (so it can find its columns) and then asked per
    /// row; a row it refuses is invisible to `WHERE`, aggregates and
    /// groups alike.
    pub fn select_where<K: Fn(&[SqlValue]) -> bool>(
        &self,
        sel: &SelectStatement,
        now: i64,
        keep: impl FnOnce(&Table) -> K,
    ) -> Result<RowSet, StoreError> {
        let table = self.table(&sel.table)?;
        exec::execute_select(table, sel, now, keep(table))
    }

    /// Parse and execute SQL text.
    pub fn execute_sql(&mut self, sql: &str, now: i64) -> Result<ExecOutcome, StoreError> {
        let stmt = parse(sql).map_err(|e| StoreError::Query(e.to_string()))?;
        self.execute(&stmt, now)
    }

    /// Retention sweep: delete rows of `table` whose `time_column` is older
    /// than `cutoff_ms`. Returns the number of rows removed. Used by the
    /// gateway to bound history growth.
    pub fn retain_since(
        &mut self,
        table: &str,
        time_column: &str,
        cutoff_ms: i64,
    ) -> Result<usize, StoreError> {
        let t = self.table_mut(table)?;
        let idx = t
            .column_index(time_column)
            .ok_or_else(|| StoreError::NoSuchColumn(time_column.to_owned()))?;
        let before = t.rows.len();
        t.rows.retain(|row| match row[idx].as_i64() {
            Some(ts) => ts >= cutoff_ms,
            None => true, // keep rows with NULL timestamps
        });
        Ok(before - t.rows.len())
    }
}

/// A write queued by [`Store::defer`].
type Deferred = Box<dyn FnOnce(&mut Database) + Send>;

#[derive(Default)]
struct Shared {
    db: Database,
    /// Deferred writes, oldest first.
    pending: Vec<Deferred>,
}

/// Thread-safe handle shared across gateway components.
#[derive(Clone, Default)]
pub struct Store {
    inner: Arc<Mutex<Shared>>,
}

impl Store {
    /// Fresh empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// Run a closure with the locked database, after applying every
    /// deferred write in the order it was queued. Every other access
    /// goes through here, so no reader sees the database without them.
    pub fn with<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let mut shared = self.inner.lock();
        let Shared { db, pending } = &mut *shared;
        for apply in pending.drain(..) {
            apply(db);
        }
        f(db)
    }

    /// Queue a write for the next access: the caller pays one push, and
    /// the write runs under the lock of whichever access comes first.
    pub fn defer(&self, apply: impl FnOnce(&mut Database) + Send + 'static) {
        self.inner.lock().pending.push(Box::new(apply));
    }

    /// Parse and execute SQL.
    pub fn execute_sql(&self, sql: &str, now: i64) -> Result<ExecOutcome, StoreError> {
        self.with(|db| db.execute_sql(sql, now))
    }

    /// Convenience: run a SELECT and get the rows.
    pub fn query(&self, sql: &str, now: i64) -> Result<RowSet, StoreError> {
        match self.execute_sql(sql, now)? {
            ExecOutcome::Rows(r) => Ok(r),
            _ => Err(StoreError::Query("statement did not produce rows".into())),
        }
    }

    /// Retention sweep (see [`Database::retain_since`]).
    pub fn retain_since(
        &self,
        table: &str,
        time_column: &str,
        cutoff_ms: i64,
    ) -> Result<usize, StoreError> {
        self.with(|db| db.retain_since(table, time_column, cutoff_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridrm_dbc::ResultSet;
    use gridrm_sqlparse::SqlValue;

    fn db_with_data() -> Database {
        let mut db = Database::new();
        db.execute_sql(
            "CREATE TABLE metrics (host TEXT, metric TEXT, value REAL, at TIMESTAMP)",
            0,
        )
        .unwrap();
        for (host, metric, value, at) in [
            ("node01", "load1", 0.5, 1000i64),
            ("node01", "load1", 0.9, 2000),
            ("node02", "load1", 1.5, 2000),
            ("node01", "mem", 512.0, 2000),
            ("node02", "load1", 2.5, 3000),
        ] {
            db.execute_sql(
                &format!("INSERT INTO metrics VALUES ('{host}', '{metric}', {value}, {at})"),
                0,
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn select_where_order_limit() {
        let mut db = db_with_data();
        let rows = db
            .execute_sql(
                "SELECT host, value FROM metrics WHERE metric = 'load1' ORDER BY value DESC LIMIT 2",
                0,
            )
            .unwrap()
            .rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.rows()[0][1], SqlValue::Float(2.5));
        assert_eq!(rows.rows()[1][1], SqlValue::Float(1.5));
    }

    #[test]
    fn select_star_preserves_declared_types() {
        let mut db = db_with_data();
        let rows = db
            .execute_sql("SELECT * FROM metrics LIMIT 1", 0)
            .unwrap()
            .rows();
        let meta = rows.meta();
        assert_eq!(meta.column_name(0).unwrap(), "host");
        assert_eq!(
            meta.column_type(3).unwrap(),
            gridrm_sqlparse::SqlType::Timestamp
        );
    }

    #[test]
    fn aggregates() {
        let mut db = db_with_data();
        let rows = db
            .execute_sql(
                "SELECT COUNT(*) AS n, AVG(value) AS avg, MIN(value) AS lo, MAX(value) AS hi \
                 FROM metrics WHERE metric = 'load1'",
                0,
            )
            .unwrap()
            .rows();
        assert_eq!(rows.rows()[0][0], SqlValue::Int(4));
        let SqlValue::Float(avg) = rows.rows()[0][1] else {
            panic!()
        };
        assert!((avg - 1.35).abs() < 1e-9);
        assert_eq!(rows.rows()[0][2], SqlValue::Float(0.5));
        assert_eq!(rows.rows()[0][3], SqlValue::Float(2.5));
    }

    #[test]
    fn aggregate_expression() {
        let mut db = db_with_data();
        let rows = db
            .execute_sql(
                "SELECT MAX(value) - MIN(value) AS range FROM metrics WHERE metric = 'load1'",
                0,
            )
            .unwrap()
            .rows();
        assert_eq!(rows.rows()[0][0], SqlValue::Float(2.0));
    }

    #[test]
    fn count_on_empty_filter() {
        let mut db = db_with_data();
        let rows = db
            .execute_sql(
                "SELECT COUNT(*), SUM(value) FROM metrics WHERE host = 'ghost'",
                0,
            )
            .unwrap()
            .rows();
        assert_eq!(rows.rows()[0][0], SqlValue::Int(0));
        assert_eq!(rows.rows()[0][1], SqlValue::Null);
    }

    #[test]
    fn distinct() {
        let mut db = db_with_data();
        let rows = db
            .execute_sql("SELECT DISTINCT host FROM metrics ORDER BY host", 0)
            .unwrap()
            .rows();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn expression_projection() {
        let mut db = db_with_data();
        let rows = db
            .execute_sql(
                "SELECT value * 100 AS pct FROM metrics WHERE metric = 'mem'",
                0,
            )
            .unwrap()
            .rows();
        assert_eq!(rows.rows()[0][0], SqlValue::Float(51200.0));
    }

    #[test]
    fn update_and_delete() {
        let mut db = db_with_data();
        let n = db
            .execute_sql(
                "UPDATE metrics SET value = value + 1 WHERE host = 'node01'",
                0,
            )
            .unwrap()
            .affected()
            .unwrap();
        assert_eq!(n, 3);
        let n = db
            .execute_sql("DELETE FROM metrics WHERE at < 2000", 0)
            .unwrap()
            .affected()
            .unwrap();
        assert_eq!(n, 1);
        let rows = db
            .execute_sql("SELECT COUNT(*) FROM metrics", 0)
            .unwrap()
            .rows();
        assert_eq!(rows.rows()[0][0], SqlValue::Int(4));
    }

    #[test]
    fn multi_row_insert_atomic_on_failure() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)", 0)
            .unwrap();
        db.execute_sql("INSERT INTO t VALUES (1, 'a')", 0).unwrap();
        // Second tuple violates the PK; nothing from this statement stays.
        let err = db
            .execute_sql("INSERT INTO t VALUES (2, 'b'), (1, 'dup'), (3, 'c')", 0)
            .unwrap_err();
        assert!(matches!(err, StoreError::DuplicateKey(_)));
        let rows = db.execute_sql("SELECT COUNT(*) FROM t", 0).unwrap().rows();
        assert_eq!(rows.rows()[0][0], SqlValue::Int(1));
    }

    #[test]
    fn create_if_not_exists_and_drop() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE t (a INTEGER)", 0).unwrap();
        assert!(db.execute_sql("CREATE TABLE t (a INTEGER)", 0).is_err());
        db.execute_sql("CREATE TABLE IF NOT EXISTS t (a INTEGER)", 0)
            .unwrap();
        db.execute_sql("DROP TABLE t", 0).unwrap();
        assert!(db.execute_sql("DROP TABLE t", 0).is_err());
        db.execute_sql("DROP TABLE IF EXISTS t", 0).unwrap();
    }

    #[test]
    fn retention_sweep() {
        let mut db = db_with_data();
        let removed = db.retain_since("metrics", "at", 2000).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(db.table("metrics").unwrap().len(), 4);
    }

    #[test]
    fn now_function_uses_supplied_clock() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE t (at TIMESTAMP)", 0).unwrap();
        db.execute_sql("INSERT INTO t VALUES (NOW())", 123_456)
            .unwrap();
        let rows = db.execute_sql("SELECT at FROM t", 0).unwrap().rows();
        assert_eq!(rows.rows()[0][0], SqlValue::Timestamp(123_456));
    }

    #[test]
    fn where_on_now_relative_window() {
        let mut db = db_with_data();
        let rows = db
            .execute_sql("SELECT * FROM metrics WHERE at > NOW() - 1500", 2500)
            .unwrap()
            .rows();
        // NOW()=2500, cutoff 1000 exclusive → rows at 2000 and 3000 qualify.
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn store_is_shareable_across_threads() {
        let store = Store::new();
        store
            .execute_sql("CREATE TABLE t (id INTEGER, v REAL)", 0)
            .unwrap();
        std::thread::scope(|s| {
            for i in 0..4 {
                let store = store.clone();
                s.spawn(move || {
                    for j in 0..50 {
                        store
                            .execute_sql(
                                &format!("INSERT INTO t VALUES ({}, {j}.0)", i * 1000 + j),
                                0,
                            )
                            .unwrap();
                    }
                });
            }
        });
        let rows = store.query("SELECT COUNT(*) FROM t", 0).unwrap();
        assert_eq!(rows.rows()[0][0], SqlValue::Int(200));
    }

    #[test]
    fn deferred_writes_apply_in_order_before_any_access() {
        let store = Store::new();
        store.execute_sql("CREATE TABLE t (v INTEGER)", 0).unwrap();
        let mount = store.clone();
        for v in [1i64, 2] {
            store.defer(move |db| {
                db.table_mut("t")
                    .unwrap()
                    .insert(&[], vec![v.into()])
                    .unwrap();
            });
        }
        let rows = mount.query("SELECT v FROM t", 0).unwrap();
        assert_eq!(
            rows.rows(),
            &[vec![SqlValue::Int(1)], vec![SqlValue::Int(2)]][..]
        );
        assert_eq!(store.with(|db| db.table("t").unwrap().len()), 2);
    }

    #[test]
    fn rowset_cursor_integration() {
        let mut db = db_with_data();
        let mut rs = db
            .execute_sql("SELECT host, value FROM metrics WHERE metric = 'mem'", 0)
            .unwrap()
            .rows();
        assert!(rs.advance().unwrap());
        assert_eq!(rs.get_string_by_name("host").unwrap(), "node01");
        assert_eq!(rs.get_f64_by_name("value").unwrap(), 512.0);
        assert!(!rs.advance().unwrap());
    }

    #[test]
    fn error_on_unknown_table_or_column() {
        let mut db = db_with_data();
        assert!(matches!(
            db.execute_sql("SELECT * FROM nope", 0),
            Err(StoreError::NoSuchTable(_))
        ));
        assert!(db.execute_sql("SELECT nope FROM metrics", 0).is_err());
    }
}
