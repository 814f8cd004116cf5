//! The `SQLException` analogue: every dbc operation returns [`DbcResult`].

use std::fmt;

/// Result alias used across the connectivity layer.
pub type DbcResult<T> = Result<T, SqlError>;

/// Gateway-wide alias: layers above dbc (core, global) speak of
/// `GridRmError`, which today is the same enum the drivers throw.
pub type GridRmError = SqlError;

/// Errors surfaced by drivers, connections, statements and result sets.
///
/// `NotImplemented` deserves a note: the paper's incremental driver
/// methodology (§3.2.1) dictates that unimplemented interface methods throw
/// `SQLException` "as one would expect from a fully implemented driver that
/// had experienced errors". Default trait methods here return exactly that.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// The driver has not (yet) implemented this optional method.
    NotImplemented(&'static str),
    /// The SQL text could not be parsed or is unsupported by the driver.
    Syntax(String),
    /// Failure establishing or using a connection to the data source.
    Connection(String),
    /// No registered driver accepts the given URL.
    NoSuitableDriver(String),
    /// Operation on a closed connection/statement/result set.
    Closed,
    /// A value could not be converted to the requested type.
    TypeMismatch {
        /// Column involved.
        column: String,
        /// The requested target type.
        expected: &'static str,
    },
    /// No column with the given name exists in the result.
    ColumnNotFound(String),
    /// Column index outside the row, or cursor not positioned on a row.
    CursorOutOfRange,
    /// Access denied by a GridRM security layer.
    Security(String),
    /// The data source did not answer in time.
    Timeout(String),
    /// The query is valid SQL but asks for something the source cannot do.
    Unsupported(String),
    /// Any other driver-specific failure.
    Driver(String),
    /// A gateway-internal invariant failed. Never the data source's
    /// fault: seeing one of these means a GridRM bug, not a Grid fault.
    /// Introduced so the hot request path can degrade instead of
    /// panicking (see `docs/static-analysis.md`, the clippy panic lints).
    Internal(String),
}

impl SqlError {
    /// True when retrying against a different driver might succeed
    /// (used by the GridRMDriverManager failure policies, §3.1.3/§4).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SqlError::Connection(_) | SqlError::Timeout(_) | SqlError::NoSuitableDriver(_)
        )
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::NotImplemented(m) => write!(f, "method not implemented by driver: {m}"),
            SqlError::Syntax(m) => write!(f, "SQL syntax error: {m}"),
            SqlError::Connection(m) => write!(f, "connection error: {m}"),
            SqlError::NoSuitableDriver(u) => write!(f, "no suitable driver for URL '{u}'"),
            SqlError::Closed => f.write_str("operation on closed handle"),
            SqlError::TypeMismatch { column, expected } => {
                write!(f, "column '{column}' cannot be read as {expected}")
            }
            SqlError::ColumnNotFound(c) => write!(f, "no such column '{c}'"),
            SqlError::CursorOutOfRange => f.write_str("cursor not on a valid row/column"),
            SqlError::Security(m) => write!(f, "access denied: {m}"),
            SqlError::Timeout(m) => write!(f, "timed out: {m}"),
            SqlError::Unsupported(m) => write!(f, "unsupported operation: {m}"),
            SqlError::Driver(m) => write!(f, "driver error: {m}"),
            SqlError::Internal(m) => write!(f, "internal gateway error: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<gridrm_sqlparse::ParseError> for SqlError {
    fn from(e: gridrm_sqlparse::ParseError) -> Self {
        SqlError::Syntax(e.to_string())
    }
}

impl From<gridrm_sqlparse::EvalError> for SqlError {
    fn from(e: gridrm_sqlparse::EvalError) -> Self {
        SqlError::Driver(e.to_string())
    }
}
