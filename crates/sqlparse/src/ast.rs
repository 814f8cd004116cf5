//! Typed abstract syntax tree for the GridRM SQL dialect, including a
//! SQL printer (`Display`) used when forwarding queries to remote gateways.

use crate::value::{SqlType, SqlValue};
use std::borrow::Cow;
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinaryOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Like,
}

impl BinaryOp {
    /// SQL spelling of the operator.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Like => "LIKE",
        }
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference, optionally qualified (`table.column`).
    Column {
        /// Optional table/group qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Literal value.
    Literal(SqlValue),
    /// `left op right`.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `NOT expr`.
    Not(Box<Expr>),
    /// `-expr`.
    Neg(Box<Expr>),
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// Candidate expressions.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// Function call, e.g. `COUNT(*)` or `NOW()`.
    Function {
        /// Upper-cased function name.
        name: String,
        /// Argument expressions; `COUNT(*)` is encoded with an empty list
        /// and `star == true`.
        args: Vec<Expr>,
        /// Whether the single argument was `*`.
        star: bool,
    },
}

impl Expr {
    /// Shorthand: unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Shorthand: literal.
    pub fn lit(v: impl Into<SqlValue>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Shorthand: binary expression.
    pub fn bin(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// Collect the set of column names referenced by this expression into
    /// `out` (used by drivers to decide which native attributes to fetch).
    pub fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Column { name, .. } => out.push(name),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.collect_columns(out),
            Expr::IsNull { expr, .. } => expr.collect_columns(out),
            Expr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for e in list {
                    e.collect_columns(out);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.collect_columns(out);
                low.collect_columns(out);
                high.collect_columns(out);
            }
            Expr::Function { args, .. } => {
                for e in args {
                    e.collect_columns(out);
                }
            }
        }
    }
}

/// One item of a `SELECT` projection list.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The projected expression.
    pub expr: Expr,
    /// Optional `AS alias`.
    pub alias: Option<String>,
}

impl SelectItem {
    /// The output column name: the alias if given, otherwise the column
    /// name for plain column references, otherwise the printed expression.
    /// Borrowed from the item unless it is a printed expression.
    pub fn output_name(&self) -> Cow<'_, str> {
        match (&self.alias, &self.expr) {
            (Some(alias), _) => Cow::Borrowed(alias),
            (None, Expr::Column { name, .. }) => Cow::Borrowed(name),
            (None, other) => Cow::Owned(other.to_string()),
        }
    }
}

/// `SELECT` projection: `*` or an explicit item list.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `SELECT *`
    Star,
    /// `SELECT a, b AS c, ...`
    Items(Vec<SelectItem>),
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    /// Sort expression (usually a column).
    pub expr: Expr,
    /// True for descending order.
    pub desc: bool,
}

/// A parsed `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    /// Whether `DISTINCT` was specified.
    pub distinct: bool,
    /// The projection list.
    pub projection: Projection,
    /// The table (GLUE group) being queried.
    pub table: String,
    /// Optional `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` keys, possibly empty.
    pub group_by: Vec<Expr>,
    /// `ORDER BY` keys, possibly empty.
    pub order_by: Vec<OrderBy>,
    /// Optional `LIMIT`.
    pub limit: Option<u64>,
    /// Optional `OFFSET`.
    pub offset: Option<u64>,
    /// Optional `EVERY <n>` re-evaluation interval in virtual
    /// milliseconds. Present only on continuous queries: the statement
    /// describes a standing subscription rather than a one-shot fetch.
    pub every_ms: Option<u64>,
}

impl SelectStatement {
    /// A minimal `SELECT * FROM table` statement.
    pub fn star(table: impl Into<String>) -> Self {
        SelectStatement {
            distinct: false,
            projection: Projection::Star,
            table: table.into(),
            where_clause: None,
            group_by: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            offset: None,
            every_ms: None,
        }
    }

    /// The same statement without its `EVERY` clause: the one-shot
    /// query a standing subscription evaluates on each tick.
    pub fn without_every(&self) -> SelectStatement {
        SelectStatement {
            every_ms: None,
            ..self.clone()
        }
    }

    /// Column names needed to answer this query: projection plus predicate
    /// plus sort keys. Returns `None` when the projection is `*` (all).
    pub fn required_columns(&self) -> Option<Vec<String>> {
        let cols = self.required_column_names()?;
        Some(cols.into_iter().map(str::to_owned).collect())
    }

    /// [`SelectStatement::required_columns`], borrowed from the
    /// statement: sorted, without duplicates.
    pub fn required_column_names(&self) -> Option<Vec<&str>> {
        let items = match &self.projection {
            Projection::Star => return None,
            Projection::Items(items) => items,
        };
        let mut cols: Vec<&str> = Vec::new();
        for item in items {
            item.expr.collect_columns(&mut cols);
        }
        if let Some(w) = &self.where_clause {
            w.collect_columns(&mut cols);
        }
        for g in &self.group_by {
            g.collect_columns(&mut cols);
        }
        for ob in &self.order_by {
            ob.expr.collect_columns(&mut cols);
        }
        cols.sort_unstable();
        cols.dedup();
        Some(cols)
    }

    /// The string literal a top-level `column = '…'` conjunct of the
    /// WHERE clause pins `column` to, if any: the push-down opportunity
    /// a source turns into a narrower native request. A conjunct under
    /// `OR` pins nothing, since the other branch could match more.
    pub fn where_eq(&self, column: &str) -> Option<&str> {
        find_eq_literal(self.where_clause.as_ref()?, column)?.as_str()
    }
}

/// Find an equality constraint `column = literal` anywhere in the
/// top-level AND-chain of a predicate.
fn find_eq_literal<'e>(expr: &'e Expr, column: &str) -> Option<&'e SqlValue> {
    match expr {
        Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } => match (left.as_ref(), right.as_ref()) {
            (Expr::Column { name, .. }, Expr::Literal(v))
            | (Expr::Literal(v), Expr::Column { name, .. })
                if name.eq_ignore_ascii_case(column) =>
            {
                Some(v)
            }
            _ => None,
        },
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => find_eq_literal(left, column).or_else(|| find_eq_literal(right, column)),
        _ => None,
    }
}

/// A column definition inside `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: SqlType,
    /// Whether this column is (part of) the primary key.
    pub primary_key: bool,
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT ...`
    Select(SelectStatement),
    /// `INSERT INTO t (cols) VALUES (...), (...)`
    Insert {
        /// Target table.
        table: String,
        /// Explicit column list (empty means "all columns in order").
        columns: Vec<String>,
        /// One row of value expressions per `VALUES` tuple.
        rows: Vec<Vec<Expr>>,
    },
    /// `DELETE FROM t [WHERE ...]`
    Delete {
        /// Target table.
        table: String,
        /// Optional predicate; `None` deletes every row.
        where_clause: Option<Expr>,
    },
    /// `UPDATE t SET a = e, ... [WHERE ...]`
    Update {
        /// Target table.
        table: String,
        /// `(column, value expression)` assignments.
        assignments: Vec<(String, Expr)>,
        /// Optional predicate.
        where_clause: Option<Expr>,
    },
    /// `CREATE TABLE [IF NOT EXISTS] t (...)`
    CreateTable {
        /// New table name.
        table: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
        /// Whether `IF NOT EXISTS` was given.
        if_not_exists: bool,
    },
    /// `DROP TABLE [IF EXISTS] t`
    DropTable {
        /// Table to drop.
        table: String,
        /// Whether `IF EXISTS` was given.
        if_exists: bool,
    },
    /// `EXPLAIN [ANALYZE] <statement>` — run (or plan) the inner
    /// statement and return its span tree as a result set.
    Explain {
        /// Whether `ANALYZE` was given (execute and report real
        /// timings rather than a plan-only rendering).
        analyze: bool,
        /// The statement being explained.
        inner: Box<Statement>,
    },
}

fn fmt_literal(v: &SqlValue, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match v {
        SqlValue::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        other => write!(f, "{other}"),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Literal(v) => fmt_literal(v, f),
            Expr::Binary { left, op, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str("))")
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Function { name, args, star } => {
                write!(f, "{name}(")?;
                if *star {
                    f.write_str("*")?;
                } else {
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                }
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for SelectStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        match &self.projection {
            Projection::Star => f.write_str("*")?,
            Projection::Items(items) => {
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}", item.expr)?;
                    if let Some(a) = &item.alias {
                        write!(f, " AS {a}")?;
                    }
                }
            }
        }
        write!(f, " FROM {}", self.table)?;
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if !self.order_by.is_empty() {
            f.write_str(" ORDER BY ")?;
            for (i, ob) in self.order_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{}{}", ob.expr, if ob.desc { " DESC" } else { " ASC" })?;
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        if let Some(o) = self.offset {
            write!(f, " OFFSET {o}")?;
        }
        if let Some(e) = self.every_ms {
            write!(f, " EVERY {e}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                write!(f, "INSERT INTO {table}")?;
                if !columns.is_empty() {
                    write!(f, " ({})", columns.join(", "))?;
                }
                f.write_str(" VALUES ")?;
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    f.write_str("(")?;
                    for (j, e) in row.iter().enumerate() {
                        if j > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{e}")?;
                    }
                    f.write_str(")")?;
                }
                Ok(())
            }
            Statement::Delete {
                table,
                where_clause,
            } => {
                write!(f, "DELETE FROM {table}")?;
                if let Some(w) = where_clause {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::Update {
                table,
                assignments,
                where_clause,
            } => {
                write!(f, "UPDATE {table} SET ")?;
                for (i, (c, e)) in assignments.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{c} = {e}")?;
                }
                if let Some(w) = where_clause {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::CreateTable {
                table,
                columns,
                if_not_exists,
            } => {
                write!(
                    f,
                    "CREATE TABLE {}{table} (",
                    if *if_not_exists { "IF NOT EXISTS " } else { "" }
                )?;
                for (i, c) in columns.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{} {}", c.name, c.ty)?;
                    if c.primary_key {
                        f.write_str(" PRIMARY KEY")?;
                    }
                }
                f.write_str(")")
            }
            Statement::DropTable { table, if_exists } => {
                write!(
                    f,
                    "DROP TABLE {}{table}",
                    if *if_exists { "IF EXISTS " } else { "" }
                )
            }
            Statement::Explain { analyze, inner } => {
                write!(
                    f,
                    "EXPLAIN {}{inner}",
                    if *analyze { "ANALYZE " } else { "" }
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(sql: &str) -> SelectStatement {
        match crate::parse(sql).unwrap() {
            Statement::Select(sel) => sel,
            other => panic!("not a SELECT: {other}"),
        }
    }

    #[test]
    fn where_eq_finds_top_level_conjuncts_only() {
        let s = select("SELECT * FROM Event WHERE Category = 'cpu.load' AND Value > 1");
        assert_eq!(s.where_eq("Category"), Some("cpu.load"));
        assert_eq!(s.where_eq("category"), Some("cpu.load"));
        assert_eq!(s.where_eq("Hostname"), None);
        // OR-chains must NOT push down (the other branch could match more).
        let s = select("SELECT * FROM Event WHERE Category = 'a' OR Hostname = 'b'");
        assert_eq!(s.where_eq("Category"), None);
        // Reversed operand order still found; a non-string literal pins
        // no string, and no WHERE pins nothing.
        assert_eq!(
            select("SELECT * FROM Event WHERE 'x' = Category").where_eq("Category"),
            Some("x")
        );
        assert_eq!(
            select("SELECT * FROM Event WHERE Value = 1").where_eq("Value"),
            None
        );
        assert_eq!(SelectStatement::star("Event").where_eq("Category"), None);
    }

    #[test]
    fn select_star_builder() {
        let s = SelectStatement::star("Processor");
        assert_eq!(s.to_string(), "SELECT * FROM Processor");
        assert_eq!(s.required_columns(), None);
    }

    #[test]
    fn required_columns_dedup_and_sort() {
        let s = SelectStatement {
            distinct: false,
            projection: Projection::Items(vec![
                SelectItem {
                    expr: Expr::col("Load1"),
                    alias: None,
                },
                SelectItem {
                    expr: Expr::col("Hostname"),
                    alias: Some("h".into()),
                },
            ]),
            table: "Processor".into(),
            where_clause: Some(Expr::bin(Expr::col("Load1"), BinaryOp::Gt, Expr::lit(0.5))),
            group_by: Vec::new(),
            order_by: vec![OrderBy {
                expr: Expr::col("ClockMHz"),
                desc: true,
            }],
            limit: None,
            offset: None,
            every_ms: None,
        };
        assert_eq!(
            s.required_columns().unwrap(),
            vec!["ClockMHz".to_owned(), "Hostname".into(), "Load1".into()]
        );
    }

    #[test]
    fn output_name_prefers_alias() {
        let item = SelectItem {
            expr: Expr::col("Load1"),
            alias: Some("busy".into()),
        };
        assert_eq!(item.output_name(), "busy");
        let item = SelectItem {
            expr: Expr::col("Load1"),
            alias: None,
        };
        assert_eq!(item.output_name(), "Load1");
    }

    #[test]
    fn string_literals_escape_quotes() {
        let e = Expr::lit("it's");
        assert_eq!(e.to_string(), "'it''s'");
    }
}
