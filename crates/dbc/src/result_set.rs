//! The `ResultSet` role: cursor-style access to query results.
//!
//! The paper notes that `java.sql.ResultSet` has 139 methods, most of them
//! typed getters, and that GridRM implements them incrementally (§3.2.1).
//! Here the trait requires only three methods; everything else is a default
//! built on them, and optional capabilities default to
//! [`SqlError::NotImplemented`].

use crate::error::{DbcResult, SqlError};
use gridrm_sqlparse::{SqlType, SqlValue};

/// Metadata for one result column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    /// Output column name (GLUE attribute name for normalised results).
    pub name: String,
    /// Declared type.
    pub ty: SqlType,
    /// Originating table/group, when known.
    pub table: Option<String>,
    /// Unit string from the naming schema (e.g. `MHz`, `KB`), when known.
    pub unit: Option<String>,
}

impl ColumnMeta {
    /// Column with just a name and type.
    pub fn new(name: impl Into<String>, ty: SqlType) -> Self {
        ColumnMeta {
            name: name.into(),
            ty,
            table: None,
            unit: None,
        }
    }

    /// Builder: attach the originating table/group name.
    pub fn with_table(mut self, table: impl Into<String>) -> Self {
        self.table = Some(table.into());
        self
    }

    /// Builder: attach a unit.
    pub fn with_unit(mut self, unit: impl Into<String>) -> Self {
        self.unit = Some(unit.into());
        self
    }
}

/// The `ResultSetMetaData` role: describes how to access returned fields.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSetMetaData {
    columns: Vec<ColumnMeta>,
}

impl ResultSetMetaData {
    /// Metadata over the given columns.
    pub fn new(columns: Vec<ColumnMeta>) -> Self {
        ResultSetMetaData { columns }
    }

    /// Convenience: build from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, SqlType)]) -> Self {
        ResultSetMetaData {
            columns: pairs.iter().map(|(n, t)| ColumnMeta::new(*n, *t)).collect(),
        }
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Column metadata by 0-based index.
    pub fn column(&self, idx: usize) -> DbcResult<&ColumnMeta> {
        self.columns.get(idx).ok_or(SqlError::CursorOutOfRange)
    }

    /// Column name by 0-based index.
    pub fn column_name(&self, idx: usize) -> DbcResult<&str> {
        self.column(idx).map(|c| c.name.as_str())
    }

    /// Column type by 0-based index.
    pub fn column_type(&self, idx: usize) -> DbcResult<SqlType> {
        self.column(idx).map(|c| c.ty)
    }

    /// Find a column index by name (case-insensitive, like JDBC).
    pub fn column_index(&self, name: &str) -> DbcResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| SqlError::ColumnNotFound(name.to_owned()))
    }

    /// All columns.
    pub fn columns(&self) -> &[ColumnMeta] {
        &self.columns
    }

    /// All columns, moved out.
    pub fn into_columns(self) -> Vec<ColumnMeta> {
        self.columns
    }
}

/// Cursor-style access to a query result (the `java.sql.ResultSet` role).
///
/// # Required methods
///
/// A *minimal driver* (paper §3.2.1) implements only [`ResultSet::advance`],
/// [`ResultSet::get`] and [`ResultSet::metadata`]; typed getters come free.
///
/// # Cursor protocol
///
/// The cursor starts *before* the first row. Call [`ResultSet::advance`]
/// to move to the next row; it returns `false` past the last row.
pub trait ResultSet: Send {
    /// Move the cursor to the next row; `false` when exhausted.
    fn advance(&mut self) -> DbcResult<bool>;

    /// Read the cell at 0-based `column` in the current row.
    fn get(&self, column: usize) -> DbcResult<SqlValue>;

    /// Describe the result columns.
    fn metadata(&self) -> &ResultSetMetaData;

    // ---- defaults built on the required methods -------------------------

    /// Resolve a column name to its index.
    fn find_column(&self, name: &str) -> DbcResult<usize> {
        self.metadata().column_index(name)
    }

    /// Read a cell by column name.
    fn get_by_name(&self, name: &str) -> DbcResult<SqlValue> {
        self.get(self.find_column(name)?)
    }

    /// Is the cell at `column` NULL?
    fn is_null(&self, column: usize) -> DbcResult<bool> {
        Ok(self.get(column)?.is_null())
    }

    /// Read as `i64` (coercing numerics; NULL and non-numerics error).
    fn get_i64(&self, column: usize) -> DbcResult<i64> {
        let v = self.get(column)?;
        v.as_i64().ok_or_else(|| SqlError::TypeMismatch {
            column: self.column_label(column),
            expected: "INTEGER",
        })
    }

    /// Read as `f64`.
    fn get_f64(&self, column: usize) -> DbcResult<f64> {
        let v = self.get(column)?;
        v.as_f64().ok_or_else(|| SqlError::TypeMismatch {
            column: self.column_label(column),
            expected: "REAL",
        })
    }

    /// Read as `bool`.
    fn get_bool(&self, column: usize) -> DbcResult<bool> {
        let v = self.get(column)?;
        v.as_bool().ok_or_else(|| SqlError::TypeMismatch {
            column: self.column_label(column),
            expected: "BOOLEAN",
        })
    }

    /// Read as owned `String` (any value formats; NULL errors).
    fn get_string(&self, column: usize) -> DbcResult<String> {
        let v = self.get(column)?;
        if v.is_null() {
            return Err(SqlError::TypeMismatch {
                column: self.column_label(column),
                expected: "TEXT",
            });
        }
        Ok(v.to_string())
    }

    /// Read as epoch-milliseconds timestamp.
    fn get_timestamp(&self, column: usize) -> DbcResult<i64> {
        match self.get(column)? {
            SqlValue::Timestamp(t) => Ok(t),
            SqlValue::Int(t) => Ok(t),
            _ => Err(SqlError::TypeMismatch {
                column: self.column_label(column),
                expected: "TIMESTAMP",
            }),
        }
    }

    /// Named variants of the typed getters.
    fn get_i64_by_name(&self, name: &str) -> DbcResult<i64> {
        self.get_i64(self.find_column(name)?)
    }
    /// See [`ResultSet::get_f64`].
    fn get_f64_by_name(&self, name: &str) -> DbcResult<f64> {
        self.get_f64(self.find_column(name)?)
    }
    /// See [`ResultSet::get_bool`].
    fn get_bool_by_name(&self, name: &str) -> DbcResult<bool> {
        self.get_bool(self.find_column(name)?)
    }
    /// See [`ResultSet::get_string`].
    fn get_string_by_name(&self, name: &str) -> DbcResult<String> {
        self.get_string(self.find_column(name)?)
    }

    /// Current row as a vector of values.
    fn row_values(&self) -> DbcResult<Vec<SqlValue>> {
        let n = self.metadata().column_count();
        let mut row = Vec::with_capacity(n);
        for i in 0..n {
            row.push(self.get(i)?);
        }
        Ok(row)
    }

    // ---- optional capabilities (NotImplemented by default, §3.2.1) ------

    /// Rewind the cursor to before the first row (scrollable results only).
    fn before_first(&mut self) -> DbcResult<()> {
        Err(SqlError::NotImplemented("before_first"))
    }

    /// Total number of rows, when known without consuming the cursor.
    fn row_count(&self) -> DbcResult<usize> {
        Err(SqlError::NotImplemented("row_count"))
    }

    /// Update a cell in the current row (updatable results only).
    fn update(&mut self, _column: usize, _value: SqlValue) -> DbcResult<()> {
        Err(SqlError::NotImplemented("update"))
    }

    /// Release any resources; the default is a no-op.
    fn close(&mut self) -> DbcResult<()> {
        Ok(())
    }

    /// The rows from the cursor on, as a [`RowSet`]. The default drains
    /// the cursor as [`RowSet::materialize`] does; a `RowSet` whose
    /// cursor has not moved hands itself over without a copy.
    fn into_rowset(mut self: Box<Self>) -> DbcResult<RowSet> {
        drain(&mut *self)
    }

    // ---- helpers --------------------------------------------------------

    /// Human-readable label for error messages.
    fn column_label(&self, column: usize) -> String {
        self.metadata()
            .column_name(column)
            .map(str::to_owned)
            .unwrap_or_else(|_| format!("#{column}"))
    }
}

/// Materialised, in-memory result set — the workhorse implementation every
/// bundled driver returns, and the form results take when shipped between
/// gateways.
#[derive(Debug, Clone, PartialEq)]
pub struct RowSet {
    meta: ResultSetMetaData,
    rows: Vec<Vec<SqlValue>>,
    /// Cursor: `None` = before first; `Some(i)` = on row `i`.
    cursor: Option<usize>,
    exhausted: bool,
}

impl RowSet {
    /// Build from metadata and rows. Each row must match the column count.
    pub fn new(meta: ResultSetMetaData, rows: Vec<Vec<SqlValue>>) -> DbcResult<RowSet> {
        let n = meta.column_count();
        if let Some(bad) = rows.iter().find(|r| r.len() != n) {
            return Err(SqlError::Driver(format!(
                "row arity {} does not match {} columns",
                bad.len(),
                n
            )));
        }
        Ok(RowSet {
            meta,
            rows,
            cursor: None,
            exhausted: false,
        })
    }

    /// Empty result with the given columns.
    pub fn empty(meta: ResultSetMetaData) -> RowSet {
        RowSet {
            meta,
            rows: Vec::new(),
            cursor: None,
            exhausted: false,
        }
    }

    /// Drain any [`ResultSet`] into a materialised `RowSet`, copying
    /// every row from the cursor on.
    pub fn materialize(rs: &mut dyn ResultSet) -> DbcResult<RowSet> {
        drain(rs)
    }

    /// The metadata and the rows, moved out.
    pub fn into_parts(self) -> (ResultSetMetaData, Vec<Vec<SqlValue>>) {
        (self.meta, self.rows)
    }

    /// Direct access to the rows (no cursor).
    pub fn rows(&self) -> &[Vec<SqlValue>] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The metadata (also available through the trait).
    pub fn meta(&self) -> &ResultSetMetaData {
        &self.meta
    }

    /// Append another result set with identical column names; used by the
    /// RequestManager to consolidate multi-source queries (§3.1.1).
    pub fn append(&mut self, other: RowSet) -> DbcResult<()> {
        check_consolidable(&self.meta, &other.meta)?;
        self.rows.extend(other.rows);
        Ok(())
    }

    /// [`RowSet::append`] of a copy of `other`'s rows, leaving `other`
    /// as it is.
    pub fn append_from(&mut self, other: &RowSet) -> DbcResult<()> {
        check_consolidable(&self.meta, &other.meta)?;
        self.rows.extend_from_slice(&other.rows);
        Ok(())
    }

    /// Pretty-print as an aligned text table (used by examples/harness).
    pub fn to_table_string(&self) -> String {
        let n = self.meta.column_count();
        let mut widths: Vec<usize> = (0..n)
            .map(|i| self.meta.column_name(i).map(str::len).unwrap_or(1))
            .collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(SqlValue::to_string).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, width) in widths.iter().enumerate() {
            let name = self.meta.column_name(i).unwrap_or("?");
            out.push_str(&format!("{name:<width$}  "));
        }
        out.push('\n');
        for w in &widths {
            out.push_str(&"-".repeat(*w));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{cell:<width$}  ", width = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// Rows under `other` may join rows under `meta`: as many columns.
fn check_consolidable(meta: &ResultSetMetaData, other: &ResultSetMetaData) -> DbcResult<()> {
    if other.column_count() != meta.column_count() {
        return Err(SqlError::Driver(format!(
            "cannot consolidate: {} vs {} columns",
            other.column_count(),
            meta.column_count()
        )));
    }
    Ok(())
}

/// Copy the rows of `rs` from its cursor on, with its metadata.
fn drain<R: ResultSet + ?Sized>(rs: &mut R) -> DbcResult<RowSet> {
    let meta = rs.metadata().clone();
    let mut rows = Vec::new();
    while rs.advance()? {
        rows.push(rs.row_values()?);
    }
    RowSet::new(meta, rows)
}

impl ResultSet for RowSet {
    fn advance(&mut self) -> DbcResult<bool> {
        if self.exhausted {
            return Ok(false);
        }
        let next = match self.cursor {
            None => 0,
            Some(i) => i + 1,
        };
        if next < self.rows.len() {
            self.cursor = Some(next);
            Ok(true)
        } else {
            self.exhausted = true;
            Ok(false)
        }
    }

    fn get(&self, column: usize) -> DbcResult<SqlValue> {
        let Some(i) = self.cursor else {
            return Err(SqlError::CursorOutOfRange);
        };
        if self.exhausted {
            return Err(SqlError::CursorOutOfRange);
        }
        self.rows[i]
            .get(column)
            .cloned()
            .ok_or(SqlError::CursorOutOfRange)
    }

    fn metadata(&self) -> &ResultSetMetaData {
        &self.meta
    }

    fn before_first(&mut self) -> DbcResult<()> {
        self.cursor = None;
        self.exhausted = false;
        Ok(())
    }

    fn row_count(&self) -> DbcResult<usize> {
        Ok(self.rows.len())
    }

    fn update(&mut self, column: usize, value: SqlValue) -> DbcResult<()> {
        let Some(i) = self.cursor else {
            return Err(SqlError::CursorOutOfRange);
        };
        let cell = self.rows[i]
            .get_mut(column)
            .ok_or(SqlError::CursorOutOfRange)?;
        *cell = value;
        Ok(())
    }

    fn into_rowset(mut self: Box<Self>) -> DbcResult<RowSet> {
        if self.cursor.is_none() && !self.exhausted {
            return Ok(*self);
        }
        drain(&mut *self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RowSet {
        RowSet::new(
            ResultSetMetaData::from_pairs(&[
                ("Hostname", SqlType::Str),
                ("Load1", SqlType::Float),
                ("NCpu", SqlType::Int),
            ]),
            vec![
                vec!["node01".into(), SqlValue::Float(0.5), SqlValue::Int(4)],
                vec!["node02".into(), SqlValue::Null, SqlValue::Int(8)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn cursor_protocol() {
        let mut rs = sample();
        // Before first: no access.
        assert_eq!(rs.get(0), Err(SqlError::CursorOutOfRange));
        assert!(rs.advance().unwrap());
        assert_eq!(rs.get_string(0).unwrap(), "node01");
        assert!(rs.advance().unwrap());
        assert!(!rs.advance().unwrap());
        assert!(!rs.advance().unwrap()); // stays exhausted
        assert_eq!(rs.get(0), Err(SqlError::CursorOutOfRange));
    }

    #[test]
    fn typed_getters_and_nulls() {
        let mut rs = sample();
        rs.advance().unwrap();
        assert_eq!(rs.get_f64_by_name("Load1").unwrap(), 0.5);
        assert_eq!(rs.get_i64_by_name("NCpu").unwrap(), 4);
        assert!(!rs.is_null(1).unwrap());
        rs.advance().unwrap();
        assert!(rs.is_null(1).unwrap());
        assert!(matches!(
            rs.get_f64_by_name("Load1"),
            Err(SqlError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn case_insensitive_column_lookup() {
        let rs = sample();
        assert_eq!(rs.find_column("hostname").unwrap(), 0);
        assert_eq!(rs.find_column("LOAD1").unwrap(), 1);
        assert!(matches!(
            rs.find_column("nope"),
            Err(SqlError::ColumnNotFound(_))
        ));
    }

    #[test]
    fn rewind_and_row_count() {
        let mut rs = sample();
        assert_eq!(rs.row_count().unwrap(), 2);
        while rs.advance().unwrap() {}
        rs.before_first().unwrap();
        assert!(rs.advance().unwrap());
        assert_eq!(rs.get_string(0).unwrap(), "node01");
    }

    #[test]
    fn arity_checked_on_construction() {
        let bad = RowSet::new(
            ResultSetMetaData::from_pairs(&[("a", SqlType::Int)]),
            vec![vec![SqlValue::Int(1), SqlValue::Int(2)]],
        );
        assert!(bad.is_err());
        // ... and the parts moved out build the same set again.
        let (meta, rows) = sample().into_parts();
        assert_eq!(RowSet::new(meta, rows).unwrap(), sample());
    }

    #[test]
    fn materialize_copies_everything() {
        let mut src = sample();
        let copy = RowSet::materialize(&mut src).unwrap();
        assert_eq!(copy.len(), 2);
        assert_eq!(copy.rows()[1][2], SqlValue::Int(8));
    }

    #[test]
    fn an_unread_rowset_hands_itself_over() {
        let boxed: Box<dyn ResultSet> = Box::new(sample());
        assert_eq!(boxed.into_rowset().unwrap(), sample());
    }

    #[test]
    fn append_consolidates() {
        let mut a = sample();
        let b = sample();
        a.append(b).unwrap();
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn append_rejects_mismatched_shapes() {
        let mut a = sample();
        let b = RowSet::empty(ResultSetMetaData::from_pairs(&[("x", SqlType::Int)]));
        assert!(a.append_from(&b).is_err());
        assert!(a.append(b).is_err());
        assert_eq!(a, sample());
    }

    #[test]
    fn append_from_copies_the_rows_and_keeps_the_source() {
        let mut a = sample();
        let b = sample();
        a.append_from(&b).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(&a.rows()[2..], b.rows());
        assert_eq!(b, sample());
    }

    #[test]
    fn update_in_place() {
        let mut rs = sample();
        rs.advance().unwrap();
        rs.update(1, SqlValue::Float(9.9)).unwrap();
        assert_eq!(rs.get_f64(1).unwrap(), 9.9);
    }

    #[test]
    fn default_optional_methods_error() {
        // A minimal driver result set: only the three required methods.
        struct Minimal {
            meta: ResultSetMetaData,
        }
        impl ResultSet for Minimal {
            fn advance(&mut self) -> DbcResult<bool> {
                Ok(false)
            }
            fn get(&self, _c: usize) -> DbcResult<SqlValue> {
                Err(SqlError::CursorOutOfRange)
            }
            fn metadata(&self) -> &ResultSetMetaData {
                &self.meta
            }
        }
        let mut m = Minimal {
            meta: ResultSetMetaData::default(),
        };
        // Optional capabilities behave like the paper's SQLException-throwing
        // superclass methods.
        assert_eq!(
            m.before_first(),
            Err(SqlError::NotImplemented("before_first"))
        );
        assert_eq!(m.row_count(), Err(SqlError::NotImplemented("row_count")));
        assert_eq!(
            m.update(0, SqlValue::Null),
            Err(SqlError::NotImplemented("update"))
        );
        assert_eq!(m.close(), Ok(()));
    }

    #[test]
    fn table_rendering() {
        let t = sample().to_table_string();
        assert!(t.contains("Hostname"));
        assert!(t.contains("node01"));
        assert!(t.contains("NULL"));
    }
}
