//! Typed tables.

use gridrm_sqlparse::ast::ColumnDef;
use gridrm_sqlparse::{SqlType, SqlValue};
use std::fmt;

/// Errors from the storage engine.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Table already exists (without `IF NOT EXISTS`).
    TableExists(String),
    /// No such table.
    NoSuchTable(String),
    /// No such column.
    NoSuchColumn(String),
    /// Wrong number of values for the column list.
    Arity {
        /// Expected count.
        expected: usize,
        /// Provided count.
        got: usize,
    },
    /// Value not coercible to the column type.
    Type {
        /// Column name.
        column: String,
        /// Target type.
        expected: SqlType,
    },
    /// Primary-key uniqueness violated.
    DuplicateKey(String),
    /// SQL feature not supported by the engine.
    Unsupported(String),
    /// Parse or evaluation error bubbled up.
    Query(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::TableExists(t) => write!(f, "table '{t}' already exists"),
            StoreError::NoSuchTable(t) => write!(f, "no such table '{t}'"),
            StoreError::NoSuchColumn(c) => write!(f, "no such column '{c}'"),
            StoreError::Arity { expected, got } => {
                write!(f, "expected {expected} values, got {got}")
            }
            StoreError::Type { column, expected } => {
                write!(f, "column '{column}' requires {expected}")
            }
            StoreError::DuplicateKey(k) => write!(f, "duplicate primary key {k}"),
            StoreError::Unsupported(m) => write!(f, "unsupported: {m}"),
            StoreError::Query(m) => write!(f, "query error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// What the SELECT evaluator reads of a table: its name, its typed
/// columns (with a unit where the schema names one) and its rows.
/// [`Table`] is one; a driver's GLUE group over the rows it has just
/// translated is another, read in place rather than copied into a
/// `Table`.
pub trait Relation {
    /// Table name, reported as each result column's table.
    fn name(&self) -> &str;
    /// Number of columns.
    fn column_count(&self) -> usize;
    /// Name of column `i` (`i < column_count()`).
    fn column_name(&self, i: usize) -> &str;
    /// Declared type of column `i`.
    fn column_type(&self, i: usize) -> SqlType;
    /// Unit of column `i`, when the schema names one.
    fn column_unit(&self, _i: usize) -> Option<&str> {
        None
    }
    /// The rows, each `column_count()` cells long.
    fn rows(&self) -> &[Vec<SqlValue>];
    /// Index of a column by name (case-insensitive).
    fn column_index(&self, name: &str) -> Option<usize> {
        (0..self.column_count()).find(|&i| self.column_name(i).eq_ignore_ascii_case(name))
    }
}

impl Relation for Table {
    fn name(&self) -> &str {
        &self.name
    }
    fn column_count(&self) -> usize {
        self.columns.len()
    }
    fn column_name(&self, i: usize) -> &str {
        &self.columns[i].name
    }
    fn column_type(&self, i: usize) -> SqlType {
        self.columns[i].ty
    }
    fn rows(&self) -> &[Vec<SqlValue>] {
        &self.rows
    }
    fn column_index(&self, name: &str) -> Option<usize> {
        Table::column_index(self, name)
    }
}

/// One table: ordered typed columns plus row storage.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Column definitions in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Row storage.
    pub rows: Vec<Vec<SqlValue>>,
}

impl Table {
    /// Empty table with the given columns.
    pub fn new(name: &str, columns: Vec<ColumnDef>) -> Table {
        Table {
            name: name.to_owned(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Index of a column by name (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Indices of primary-key columns.
    pub fn pk_indices(&self) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.primary_key)
            .map(|(i, _)| i)
            .collect()
    }

    /// Insert one row given an explicit column order (`columns` empty
    /// means declaration order). Values are coerced to the column types.
    pub fn insert(&mut self, columns: &[String], values: Vec<SqlValue>) -> Result<(), StoreError> {
        let indices: Vec<usize> = if columns.is_empty() {
            if values.len() != self.columns.len() {
                return Err(StoreError::Arity {
                    expected: self.columns.len(),
                    got: values.len(),
                });
            }
            (0..self.columns.len()).collect()
        } else {
            if values.len() != columns.len() {
                return Err(StoreError::Arity {
                    expected: columns.len(),
                    got: values.len(),
                });
            }
            columns
                .iter()
                .map(|c| {
                    self.column_index(c)
                        .ok_or_else(|| StoreError::NoSuchColumn(c.clone()))
                })
                .collect::<Result<_, _>>()?
        };
        let mut row = vec![SqlValue::Null; self.columns.len()];
        for (value, &idx) in values.into_iter().zip(&indices) {
            let col = &self.columns[idx];
            let coerced = value.coerce(col.ty).ok_or_else(|| StoreError::Type {
                column: col.name.clone(),
                expected: col.ty,
            })?;
            row[idx] = coerced;
        }
        // Primary-key uniqueness.
        let pks = self.pk_indices();
        if !pks.is_empty() {
            let clash = self.rows.iter().any(|existing| {
                pks.iter()
                    .all(|&i| existing[i].sql_eq(&row[i]) == Some(true))
            });
            if clash {
                let key = pks
                    .iter()
                    .map(|&i| row[i].to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                return Err(StoreError::DuplicateKey(key));
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                ColumnDef {
                    name: "id".into(),
                    ty: SqlType::Int,
                    primary_key: true,
                },
                ColumnDef {
                    name: "name".into(),
                    ty: SqlType::Str,
                    primary_key: false,
                },
                ColumnDef {
                    name: "score".into(),
                    ty: SqlType::Float,
                    primary_key: false,
                },
            ],
        )
    }

    #[test]
    fn insert_in_declaration_order() {
        let mut t = table();
        t.insert(&[], vec![1.into(), "a".into(), 0.5.into()])
            .unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let mut t = table();
        t.insert(&["id".into(), "score".into()], vec![2.into(), 1.5.into()])
            .unwrap();
        assert_eq!(t.rows[0][1], SqlValue::Null);
        assert_eq!(t.rows[0][2], SqlValue::Float(1.5));
    }

    #[test]
    fn coercion_on_insert() {
        let mut t = table();
        // score column is Float; an Int should coerce.
        t.insert(&[], vec![1.into(), "a".into(), 3.into()]).unwrap();
        assert_eq!(t.rows[0][2], SqlValue::Float(3.0));
        // name column is Str; number coerces to its text form.
        t.insert(&[], vec![2.into(), 42.into(), 0.0.into()])
            .unwrap();
        assert_eq!(t.rows[1][1], SqlValue::Str("42".into()));
    }

    #[test]
    fn bad_type_rejected() {
        let mut t = table();
        let err = t
            .insert(&[], vec!["xyz".into(), "a".into(), 0.5.into()])
            .unwrap_err();
        assert!(matches!(err, StoreError::Type { .. }));
    }

    #[test]
    fn arity_checked() {
        let mut t = table();
        assert!(matches!(
            t.insert(&[], vec![1.into()]),
            Err(StoreError::Arity {
                expected: 3,
                got: 1
            })
        ));
        assert!(matches!(
            t.insert(&["id".into()], vec![1.into(), 2.into()]),
            Err(StoreError::Arity { .. })
        ));
    }

    #[test]
    fn unknown_column_rejected() {
        let mut t = table();
        assert!(matches!(
            t.insert(&["bogus".into()], vec![1.into()]),
            Err(StoreError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn primary_key_enforced() {
        let mut t = table();
        t.insert(&[], vec![1.into(), "a".into(), 0.1.into()])
            .unwrap();
        let err = t
            .insert(&[], vec![1.into(), "b".into(), 0.2.into()])
            .unwrap_err();
        assert!(matches!(err, StoreError::DuplicateKey(_)));
        t.insert(&[], vec![2.into(), "b".into(), 0.2.into()])
            .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn null_pk_never_clashes() {
        // SQL semantics: NULL != NULL, so two NULL keys coexist.
        let mut t = table();
        t.insert(&["name".into()], vec!["x".into()]).unwrap();
        t.insert(&["name".into()], vec!["y".into()]).unwrap();
        assert_eq!(t.len(), 2);
    }
}
