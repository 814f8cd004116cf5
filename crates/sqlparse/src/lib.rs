#![warn(missing_docs)]

//! # gridrm-sqlparse
//!
//! A small, dependency-light SQL dialect used throughout GridRM-rs.
//!
//! The GridRM paper (§3) uses SQL as the single query language flowing from
//! clients through the gateway down to every data-source driver: *"queries for
//! resource data are submitted as SQL statements and pass down to the data
//! source drivers in the same format"*. This crate supplies that substrate:
//!
//! * [`Lexer`] — tokeniser with source positions,
//! * [`Parser`] — recursive-descent parser producing a typed [`ast`],
//! * [`eval`] — three-valued-logic expression evaluator used by drivers and
//!   the historical store to apply `WHERE` clauses,
//! * [`SqlValue`] — the dynamic value type shared with `gridrm-dbc` result
//!   sets,
//! * [`ParseMemo`] — a bounded memo of parses for text that repeats.
//!
//! The dialect covers what GridRM needs: `SELECT` (projection, `WHERE`,
//! `ORDER BY`, `LIMIT`), `INSERT`, `DELETE`, `CREATE TABLE`, and the usual
//! scalar expression grammar (`AND`/`OR`/`NOT`, comparisons, arithmetic,
//! `LIKE`, `IN`, `BETWEEN`, `IS [NOT] NULL`).

pub mod ast;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod token;
pub mod value;

pub use ast::{ColumnDef, Expr, OrderBy, Projection, SelectItem, SelectStatement, Statement};
pub use error::{ParseError, ParseResult};
pub use eval::{EvalContext, EvalError, Evaluator, MapContext};
pub use lexer::Lexer;
pub use parser::Parser;
pub use token::{Keyword, Token, TokenKind};
pub use value::{SqlType, SqlValue};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Parse a complete SQL statement from a string.
///
/// Convenience wrapper over [`Parser::parse_statement`].
///
/// ```
/// let stmt = gridrm_sqlparse::parse("SELECT * FROM Processor WHERE Load1 > 0.5").unwrap();
/// assert!(matches!(stmt, gridrm_sqlparse::Statement::Select(_)));
/// ```
pub fn parse(sql: &str) -> ParseResult<Statement> {
    Parser::new(sql)?.parse_statement()
}

/// A bounded memo of successful parses, keyed by the exact text: a
/// repeated text gets the statement its first parse produced.
///
/// GridRM hands the same SQL text down every layer to the drivers (§3)
/// and serves heavily repeated queries, so the points where text
/// arrives again and again — a gateway's wire service and the driver
/// kit behind the JDBC boundary — each parse through one of these. It
/// holds at most 256 texts and starts over when full; errors are never
/// stored, so bad text reports its error on every call. The lock covers
/// the lookup and the insert, never the parse.
///
/// ```
/// let memo = gridrm_sqlparse::ParseMemo::default();
/// let first = memo.parse("SELECT Load1 FROM Processor").unwrap();
/// let again = memo.parse("SELECT Load1 FROM Processor").unwrap();
/// assert!(std::sync::Arc::ptr_eq(&first, &again));
/// ```
#[derive(Debug, Default)]
pub struct ParseMemo {
    parsed: Mutex<BTreeMap<String, Arc<Statement>>>,
}

impl ParseMemo {
    /// Distinct texts a memo holds; a full memo starts over.
    const CAPACITY: usize = 256;

    /// [`parse`], once per distinct text.
    pub fn parse(&self, sql: &str) -> ParseResult<Arc<Statement>> {
        let hit = self.parsed().get(sql).cloned();
        if let Some(statement) = hit {
            return Ok(statement);
        }
        let statement = Arc::new(parse(sql)?);
        let mut parsed = self.parsed();
        if parsed.len() >= ParseMemo::CAPACITY {
            parsed.clear();
        }
        parsed.insert(sql.to_owned(), statement.clone());
        Ok(statement)
    }

    fn parsed(&self) -> MutexGuard<'_, BTreeMap<String, Arc<Statement>>> {
        // A panic elsewhere while the lock was held leaves a map whose
        // every entry is still a complete, correct parse.
        self.parsed.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Parse a SQL scalar expression (e.g. a bare `WHERE` clause body).
pub fn parse_expr(sql: &str) -> ParseResult<Expr> {
    Parser::new(sql)?.parse_standalone_expr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repeated_text_shares_one_statement_and_survives_a_full_memo() {
        let memo = ParseMemo::default();
        let first = "SELECT Hostname, Load1 FROM Processor WHERE Load1 > 0.5";
        let a = memo.parse(first).unwrap();
        let b = memo.parse(first).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "the second call is a hit");
        assert_eq!(*a, parse(first).unwrap());
        // Twice the capacity of other texts clears the memo at least once;
        // the first text then parses afresh, to the same statement.
        for i in 0..2 * ParseMemo::CAPACITY {
            let sql = format!("SELECT c{i} FROM t{i} LIMIT {i}");
            assert_eq!(*memo.parse(&sql).unwrap(), parse(&sql).unwrap());
            assert!(memo.parsed().len() <= ParseMemo::CAPACITY);
        }
        let c = memo.parse(first).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "the first text was forgotten");
        assert_eq!(*c, parse(first).unwrap());
    }

    #[test]
    fn a_syntax_error_is_reported_every_time_and_never_stored() {
        let memo = ParseMemo::default();
        let bad = "SELECT FROM WHERE";
        let want = parse(bad).unwrap_err();
        for _ in 0..3 {
            assert_eq!(memo.parse(bad).unwrap_err(), want);
        }
        assert!(memo.parsed().is_empty());
    }
}
