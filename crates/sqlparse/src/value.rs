//! Dynamic SQL value and type system shared by the parser, the evaluator,
//! the embedded store and the `gridrm-dbc` result sets.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// The static type of a column or value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SqlType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
    /// Milliseconds since the UNIX epoch.
    Timestamp,
    /// The type of `NULL` literals before coercion.
    Null,
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SqlType::Int => "INTEGER",
            SqlType::Float => "REAL",
            SqlType::Str => "TEXT",
            SqlType::Bool => "BOOLEAN",
            SqlType::Timestamp => "TIMESTAMP",
            SqlType::Null => "NULL",
        };
        f.write_str(s)
    }
}

impl SqlType {
    /// Parse a type name as accepted by `CREATE TABLE`.
    pub fn parse(name: &str) -> Option<SqlType> {
        match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => Some(SqlType::Int),
            "REAL" | "FLOAT" | "DOUBLE" => Some(SqlType::Float),
            "TEXT" | "VARCHAR" | "CHAR" | "STRING" => Some(SqlType::Str),
            "BOOL" | "BOOLEAN" => Some(SqlType::Bool),
            "TIMESTAMP" | "DATETIME" => Some(SqlType::Timestamp),
            _ => None,
        }
    }
}

/// A dynamically typed SQL value.
///
/// `SqlValue` is the unit of data flowing through GridRM: drivers populate
/// result sets with it, the evaluator computes over it, and the GLUE schema
/// layer validates it against attribute definitions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SqlValue {
    /// SQL `NULL`. Per §3.2.3 of the paper, drivers return NULL for
    /// attributes "not possible or currently not implemented" to translate.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Milliseconds since the UNIX epoch.
    Timestamp(i64),
}

impl SqlValue {
    /// The runtime type tag of this value.
    pub fn sql_type(&self) -> SqlType {
        match self {
            SqlValue::Null => SqlType::Null,
            SqlValue::Bool(_) => SqlType::Bool,
            SqlValue::Int(_) => SqlType::Int,
            SqlValue::Float(_) => SqlType::Float,
            SqlValue::Str(_) => SqlType::Str,
            SqlValue::Timestamp(_) => SqlType::Timestamp,
        }
    }

    /// True when the value is SQL `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, SqlValue::Null)
    }

    /// Numeric view of this value, when it has one (`Int`, `Float`,
    /// `Timestamp`, and `Bool` as 0/1).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            SqlValue::Int(i) => Some(*i as f64),
            SqlValue::Float(f) => Some(*f),
            SqlValue::Timestamp(t) => Some(*t as f64),
            SqlValue::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view, truncating floats.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            SqlValue::Int(i) => Some(*i),
            SqlValue::Float(f) => Some(*f as i64),
            SqlValue::Timestamp(t) => Some(*t),
            SqlValue::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Borrowed string view (only for `Str`).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            SqlValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view (`Bool`, or nonzero numerics).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            SqlValue::Bool(b) => Some(*b),
            SqlValue::Int(i) => Some(*i != 0),
            SqlValue::Float(f) => Some(*f != 0.0),
            _ => None,
        }
    }

    /// Attempt to coerce the value to a target column type. Returns `None`
    /// when the coercion is lossy or nonsensical (e.g. `"abc"` → INTEGER),
    /// or when the target cannot hold the number (`1e19` → INTEGER, a NaN
    /// → TIMESTAMP): such a value is untranslatable, never a saturated
    /// or wrapped one.
    pub fn coerce(&self, ty: SqlType) -> Option<SqlValue> {
        if self.is_null() {
            return Some(SqlValue::Null);
        }
        match ty {
            SqlType::Null => Some(self.clone()),
            SqlType::Int => match self {
                SqlValue::Int(_) => Some(self.clone()),
                SqlValue::Float(f) if f.fract() == 0.0 => f64_to_i64(*f).map(SqlValue::Int),
                SqlValue::Bool(b) => Some(SqlValue::Int(i64::from(*b))),
                SqlValue::Timestamp(t) => Some(SqlValue::Int(*t)),
                SqlValue::Str(s) => s.trim().parse().ok().map(SqlValue::Int),
                _ => None,
            },
            SqlType::Float => match self {
                SqlValue::Float(_) => Some(self.clone()),
                SqlValue::Int(i) => Some(SqlValue::Float(*i as f64)),
                SqlValue::Bool(b) => Some(SqlValue::Float(if *b { 1.0 } else { 0.0 })),
                SqlValue::Timestamp(t) => Some(SqlValue::Float(*t as f64)),
                SqlValue::Str(s) => s.trim().parse().ok().map(SqlValue::Float),
                SqlValue::Null => Some(SqlValue::Null),
            },
            SqlType::Str => Some(SqlValue::Str(self.to_string())),
            SqlType::Bool => self.as_bool().map(SqlValue::Bool),
            SqlType::Timestamp => match self {
                SqlValue::Timestamp(_) => Some(self.clone()),
                SqlValue::Int(i) => Some(SqlValue::Timestamp(*i)),
                SqlValue::Float(f) => f64_to_i64(*f).map(SqlValue::Timestamp),
                SqlValue::Str(s) => s.trim().parse().ok().map(SqlValue::Timestamp),
                _ => None,
            },
        }
    }

    /// [`SqlValue::coerce`], consuming the value: one that already has
    /// the target type is returned as it is, not copied.
    pub fn into_type(self, ty: SqlType) -> Option<SqlValue> {
        let same = matches!(
            (&self, ty),
            (SqlValue::Null, _)
                | (_, SqlType::Null)
                | (SqlValue::Bool(_), SqlType::Bool)
                | (SqlValue::Int(_), SqlType::Int)
                | (SqlValue::Float(_), SqlType::Float)
                | (SqlValue::Str(_), SqlType::Str)
                | (SqlValue::Timestamp(_), SqlType::Timestamp)
        );
        if same {
            Some(self)
        } else {
            self.coerce(ty)
        }
    }

    /// SQL comparison. Returns `None` when either side is NULL (three-valued
    /// logic: the comparison is *unknown*) or the types are incomparable.
    ///
    /// Numeric types compare numerically across `Int`/`Float`/`Timestamp`;
    /// strings compare lexicographically; booleans as `false < true`.
    pub fn compare(&self, other: &SqlValue) -> Option<Ordering> {
        use SqlValue::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                a.partial_cmp(&b)
            }
        }
    }

    /// Total ordering used for `ORDER BY`: NULLs sort first, then by
    /// [`SqlValue::compare`], with incomparable pairs ordered by type tag
    /// and a NaN after every number and equal to NaN, so the sort is
    /// stable and total.
    pub fn total_cmp(&self, other: &SqlValue) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => self.compare(other).unwrap_or_else(|| {
                type_rank(self)
                    .cmp(&type_rank(other))
                    .then_with(|| self.is_nan().cmp(&other.is_nan()))
            }),
        }
    }

    fn is_nan(&self) -> bool {
        matches!(self, SqlValue::Float(f) if f.is_nan())
    }

    /// SQL equality: `None` (unknown) if either side is NULL.
    pub fn sql_eq(&self, other: &SqlValue) -> Option<bool> {
        self.compare(other).map(|o| o == Ordering::Equal)
    }
}

/// `f` truncated toward zero when an `i64` can hold it; `None` for a
/// NaN, an infinity or a number beyond `i64`'s range, all of which `as`
/// would saturate into a wrong number.
fn f64_to_i64(f: f64) -> Option<i64> {
    // −2⁶³ and 2⁶³ are exact in f64; i64::MAX is not.
    const LIMIT: f64 = 9_223_372_036_854_775_808.0;
    (-LIMIT..LIMIT).contains(&f).then_some(f as i64)
}

fn type_rank(v: &SqlValue) -> u8 {
    match v {
        SqlValue::Null => 0,
        SqlValue::Bool(_) => 1,
        SqlValue::Int(_) => 2,
        SqlValue::Float(_) => 2,
        SqlValue::Timestamp(_) => 2,
        SqlValue::Str(_) => 3,
    }
}

impl fmt::Display for SqlValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlValue::Null => f.write_str("NULL"),
            SqlValue::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            SqlValue::Int(i) => write!(f, "{i}"),
            SqlValue::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            SqlValue::Str(s) => f.write_str(s),
            SqlValue::Timestamp(t) => write!(f, "{t}"),
        }
    }
}

impl PartialEq for SqlValue {
    /// Structural (not SQL) equality: NULL == NULL here. Use
    /// [`SqlValue::sql_eq`] for SQL semantics.
    fn eq(&self, other: &Self) -> bool {
        use SqlValue::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Str(a), Str(b)) => a == b,
            (Timestamp(a), Timestamp(b)) => a == b,
            (Int(a), Float(b)) | (Float(b), Int(a)) => *a as f64 == *b,
            _ => false,
        }
    }
}

impl From<i64> for SqlValue {
    fn from(v: i64) -> Self {
        SqlValue::Int(v)
    }
}
impl From<i32> for SqlValue {
    fn from(v: i32) -> Self {
        SqlValue::Int(v as i64)
    }
}
impl From<u32> for SqlValue {
    fn from(v: u32) -> Self {
        SqlValue::Int(v as i64)
    }
}
/// A `u64` beyond `i64::MAX` is NULL: no SQL integer here holds it.
impl From<u64> for SqlValue {
    fn from(v: u64) -> Self {
        i64::try_from(v).map_or(SqlValue::Null, SqlValue::Int)
    }
}
impl From<f64> for SqlValue {
    fn from(v: f64) -> Self {
        SqlValue::Float(v)
    }
}
impl From<bool> for SqlValue {
    fn from(v: bool) -> Self {
        SqlValue::Bool(v)
    }
}
impl From<&str> for SqlValue {
    fn from(v: &str) -> Self {
        SqlValue::Str(v.to_owned())
    }
}
impl From<String> for SqlValue {
    fn from(v: String) -> Self {
        SqlValue::Str(v)
    }
}
impl<T: Into<SqlValue>> From<Option<T>> for SqlValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(SqlValue::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_numbers() {
        assert_eq!(SqlValue::Float(2.0).to_string(), "2.0");
        assert_eq!(SqlValue::Int(2).to_string(), "2");
        assert_eq!(SqlValue::Null.to_string(), "NULL");
        assert_eq!(SqlValue::Bool(true).to_string(), "TRUE");
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(SqlValue::Null.compare(&SqlValue::Int(1)), None);
        assert_eq!(SqlValue::Int(1).compare(&SqlValue::Null), None);
        assert_eq!(SqlValue::Null.sql_eq(&SqlValue::Null), None);
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(
            SqlValue::Int(2).compare(&SqlValue::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            SqlValue::Float(1.5).compare(&SqlValue::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn strings_incomparable_with_numbers() {
        assert_eq!(SqlValue::Str("a".into()).compare(&SqlValue::Int(1)), None);
    }

    #[test]
    fn total_cmp_sorts_nulls_first() {
        let mut vals = [SqlValue::Int(3), SqlValue::Null, SqlValue::Int(1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], SqlValue::Int(1));
    }

    #[test]
    fn nan_sorts_after_every_number_and_equals_nan() {
        let nan = SqlValue::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&SqlValue::Int(i64::MAX)), Ordering::Greater);
        assert_eq!(
            SqlValue::Float(f64::INFINITY).total_cmp(&nan),
            Ordering::Less
        );
        assert_eq!(nan.total_cmp(&SqlValue::Float(f64::NAN)), Ordering::Equal);
        assert_eq!(SqlValue::Null.total_cmp(&nan), Ordering::Less);
        // SQL comparison is unchanged: NaN compares with nothing.
        assert_eq!(nan.compare(&SqlValue::Int(1)), None);
    }

    #[test]
    fn coercions() {
        assert_eq!(
            SqlValue::Str("42".into()).coerce(SqlType::Int),
            Some(SqlValue::Int(42))
        );
        assert_eq!(SqlValue::Str("x".into()).coerce(SqlType::Int), None);
        assert_eq!(
            SqlValue::Int(1).coerce(SqlType::Bool),
            Some(SqlValue::Bool(true))
        );
        assert_eq!(
            SqlValue::Float(3.0).coerce(SqlType::Int),
            Some(SqlValue::Int(3))
        );
        assert_eq!(SqlValue::Float(3.5).coerce(SqlType::Int), None);
        // A number the type cannot hold is untranslatable, not saturated.
        assert_eq!(SqlValue::Float(1e19).coerce(SqlType::Int), None);
        assert_eq!(SqlValue::Float(-1e19).coerce(SqlType::Int), None);
        assert_eq!(SqlValue::Float(f64::INFINITY).coerce(SqlType::Int), None);
        assert_eq!(SqlValue::Float(1e30).coerce(SqlType::Timestamp), None);
        assert_eq!(SqlValue::Float(f64::NAN).coerce(SqlType::Timestamp), None);
        assert_eq!(
            SqlValue::Float(-9_223_372_036_854_775_808.0).coerce(SqlType::Int),
            Some(SqlValue::Int(i64::MIN))
        );
        assert_eq!(
            SqlValue::Float(1.5e3).coerce(SqlType::Timestamp),
            Some(SqlValue::Timestamp(1500))
        );
        assert_eq!(SqlValue::from(1u64 << 63), SqlValue::Null);
        assert_eq!(SqlValue::from(7u64), SqlValue::Int(7));
        assert_eq!(SqlValue::Null.coerce(SqlType::Str), Some(SqlValue::Null));
    }

    #[test]
    fn type_parsing() {
        assert_eq!(SqlType::parse("varchar"), Some(SqlType::Str));
        assert_eq!(SqlType::parse("BIGINT"), Some(SqlType::Int));
        assert_eq!(SqlType::parse("blob"), None);
    }
}
