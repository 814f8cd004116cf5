//! Statement execution against a [`crate::Database`].

use crate::table::{Relation, StoreError, Table};
use gridrm_dbc::{ColumnMeta, ResultSetMetaData, RowSet};
use gridrm_sqlparse::ast::{Expr, Projection, SelectStatement, Statement};
use gridrm_sqlparse::eval::is_aggregate;
use gridrm_sqlparse::{EvalContext, Evaluator, SqlType, SqlValue};
use std::borrow::Cow;

/// One output column: the expression it evaluates and its name, both
/// borrowed from the statement where it spells them.
type Item<'a> = (Cow<'a, Expr>, Cow<'a, str>);

/// The result of executing a statement.
#[derive(Debug)]
pub enum ExecOutcome {
    /// `SELECT` produced rows.
    Rows(RowSet),
    /// DML affected this many rows.
    Affected(usize),
    /// DDL succeeded.
    Done,
}

impl ExecOutcome {
    /// Unwrap the row set (panics on DML/DDL outcomes — test helper).
    pub fn rows(self) -> RowSet {
        match self {
            ExecOutcome::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    /// The affected-row count, if DML.
    pub fn affected(&self) -> Option<usize> {
        match self {
            ExecOutcome::Affected(n) => Some(*n),
            _ => None,
        }
    }
}

/// Run a `SELECT` over an ad-hoc in-memory table.
///
/// This is the query-execution engine the data-source drivers reuse: after
/// translating native agent data into GLUE rows, a driver reads them as a
/// [`Relation`] over the GLUE group's attributes and lets this function
/// apply `WHERE`/projection/`ORDER BY`/`LIMIT`/aggregates — so every
/// driver supports full SELECT semantics for free. A result column that
/// is a plain column reference, under any alias, carries that column's
/// type and unit; any other expression carries no unit.
pub fn select_in_memory(
    table: &dyn Relation,
    sel: &SelectStatement,
    now: i64,
) -> Result<RowSet, StoreError> {
    execute_select(table, sel, now)
}

/// Row context over a table's columns.
struct RowCtx<'a> {
    table: &'a dyn Relation,
    row: &'a [SqlValue],
    now: i64,
}

impl EvalContext for RowCtx<'_> {
    fn get(&self, column: &str) -> Option<SqlValue> {
        self.table.column_index(column).map(|i| self.row[i].clone())
    }
    fn now_millis(&self) -> i64 {
        self.now
    }
}

/// Execute a SELECT against one table.
pub(crate) fn execute_select(
    table: &dyn Relation,
    sel: &SelectStatement,
    now: i64,
) -> Result<RowSet, StoreError> {
    let ev = Evaluator;

    // 1. filter
    let mut matching: Vec<&Vec<SqlValue>> = Vec::new();
    for row in table.rows() {
        let ctx = RowCtx { table, row, now };
        let keep = match &sel.where_clause {
            Some(w) => ev
                .matches(w, &ctx)
                .map_err(|e| StoreError::Query(e.to_string()))?,
            None => true,
        };
        if keep {
            matching.push(row);
        }
    }

    // 2. aggregate or project
    let items: Vec<Item<'_>> = match &sel.projection {
        Projection::Star => (0..table.column_count())
            .map(|i| {
                let name = table.column_name(i);
                (Cow::Owned(Expr::col(name)), Cow::Borrowed(name))
            })
            .collect(),
        Projection::Items(items) => items
            .iter()
            .map(|i| (Cow::Borrowed(&i.expr), i.output_name()))
            .collect(),
    };

    if !sel.group_by.is_empty() {
        return execute_grouped(table, sel, &items, &matching, now);
    }

    let has_aggregate = items.iter().any(|(e, _)| contains_aggregate(e));
    if has_aggregate {
        let row: Vec<SqlValue> = items
            .iter()
            .map(|(e, _)| eval_aggregate(table, &matching, e, now))
            .collect::<Result<_, _>>()?;
        let meta = ResultSetMetaData::new(
            items
                .iter()
                .zip(&row)
                .map(|((_, name), v)| ColumnMeta::new(name.as_ref(), v.sql_type()))
                .collect(),
        );
        return RowSet::new(meta, vec![row]).map_err(|e| StoreError::Query(e.to_string()));
    }

    // 3. order by (on the raw rows, before projection, like SQL).
    let mut ordered: Vec<&Vec<SqlValue>> = matching;
    if !sel.order_by.is_empty() {
        let mut keyed: Vec<(Vec<SqlValue>, &Vec<SqlValue>)> = Vec::with_capacity(ordered.len());
        for row in ordered {
            let ctx = RowCtx { table, row, now };
            let mut keys = Vec::with_capacity(sel.order_by.len());
            for ob in &sel.order_by {
                keys.push(
                    ev.eval(&ob.expr, &ctx)
                        .map_err(|e| StoreError::Query(e.to_string()))?,
                );
            }
            keyed.push((keys, row));
        }
        keyed.sort_by(|(ka, _), (kb, _)| {
            for (i, ob) in sel.order_by.iter().enumerate() {
                let ord = ka[i].total_cmp(&kb[i]);
                let ord = if ob.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        ordered = keyed.into_iter().map(|(_, r)| r).collect();
    }

    // 4. project
    let mut out_rows: Vec<Vec<SqlValue>> = Vec::with_capacity(ordered.len());
    for row in &ordered {
        let ctx = RowCtx { table, row, now };
        let mut out = Vec::with_capacity(items.len());
        for (e, _) in &items {
            out.push(
                ev.eval(e, &ctx)
                    .map_err(|err| StoreError::Query(err.to_string()))?,
            );
        }
        out_rows.push(out);
    }

    finalize_select(table, sel, &items, out_rows)
}

/// Shared SELECT tail: DISTINCT, OFFSET/LIMIT, and result metadata
/// (declared column type and unit where the projection is a plain
/// column, the type inferred from the first row and no unit otherwise).
fn finalize_select(
    table: &dyn Relation,
    sel: &SelectStatement,
    items: &[Item<'_>],
    mut out_rows: Vec<Vec<SqlValue>>,
) -> Result<RowSet, StoreError> {
    if sel.distinct {
        let mut seen: Vec<Vec<SqlValue>> = Vec::new();
        out_rows.retain(|row| {
            if seen.iter().any(|s| s == row) {
                false
            } else {
                seen.push(row.clone());
                true
            }
        });
    }

    let offset = sel.offset.unwrap_or(0) as usize;
    if offset > 0 {
        out_rows.drain(..offset.min(out_rows.len()));
    }
    if let Some(limit) = sel.limit {
        out_rows.truncate(limit as usize);
    }

    let meta = ResultSetMetaData::new(
        items
            .iter()
            .enumerate()
            .map(|(i, (e, name))| {
                let (ty, unit) = match e.as_ref() {
                    Expr::Column { name: c, .. } => match table.column_index(c) {
                        Some(idx) => (table.column_type(idx), table.column_unit(idx)),
                        None => (SqlType::Null, None),
                    },
                    _ => (
                        out_rows
                            .first()
                            .map(|r| r[i].sql_type())
                            .unwrap_or(SqlType::Null),
                        None,
                    ),
                };
                let column = ColumnMeta::new(name.as_ref(), ty).with_table(table.name());
                match unit {
                    Some(unit) => column.with_unit(unit),
                    None => column,
                }
            })
            .collect(),
    );
    RowSet::new(meta, out_rows).map_err(|e| StoreError::Query(e.to_string()))
}

/// `GROUP BY` execution: one output row per distinct key vector, each
/// projection item evaluated per group (aggregates over the group's
/// rows, scalars against its first row, SQLite-style leniency — which
/// covers the group key expression itself).
///
/// `ORDER BY` over grouped output must reference projected columns (by
/// alias or by structural expression match) since the pre-aggregation
/// rows no longer exist when sorting happens.
fn execute_grouped(
    table: &dyn Relation,
    sel: &SelectStatement,
    items: &[Item<'_>],
    matching: &[&Vec<SqlValue>],
    now: i64,
) -> Result<RowSet, StoreError> {
    let ev = Evaluator;
    let mut out_rows = match time_bucket_fast_path(table, sel, items, matching) {
        Some(rows) => rows,
        None => {
            // Generic path: evaluate the key vector per row, sort rows
            // by key, then aggregate each contiguous run.
            let mut keyed: Vec<(Vec<SqlValue>, &Vec<SqlValue>)> =
                Vec::with_capacity(matching.len());
            for row in matching {
                let ctx = RowCtx { table, row, now };
                let mut keys = Vec::with_capacity(sel.group_by.len());
                for g in &sel.group_by {
                    keys.push(
                        ev.eval(g, &ctx)
                            .map_err(|e| StoreError::Query(e.to_string()))?,
                    );
                }
                keyed.push((keys, row));
            }
            let key_cmp = |a: &[SqlValue], b: &[SqlValue]| {
                a.iter()
                    .zip(b)
                    .map(|(x, y)| x.total_cmp(y))
                    .find(|o| *o != std::cmp::Ordering::Equal)
                    .unwrap_or(std::cmp::Ordering::Equal)
            };
            keyed.sort_by(|(ka, _), (kb, _)| key_cmp(ka, kb));
            let mut out = Vec::new();
            let mut i = 0;
            while i < keyed.len() {
                let mut j = i + 1;
                while j < keyed.len()
                    && key_cmp(&keyed[j].0, &keyed[i].0) == std::cmp::Ordering::Equal
                {
                    j += 1;
                }
                let group: Vec<&Vec<SqlValue>> = keyed[i..j].iter().map(|(_, r)| *r).collect();
                let row: Vec<SqlValue> = items
                    .iter()
                    .map(|(e, _)| eval_aggregate(table, &group, e, now))
                    .collect::<Result<_, _>>()?;
                out.push(row);
                i = j;
            }
            out
        }
    };

    if !sel.order_by.is_empty() {
        let keys: Vec<(usize, bool)> = sel
            .order_by
            .iter()
            .map(|ob| {
                output_sort_index(items, &ob.expr)
                    .map(|i| (i, ob.desc))
                    .ok_or_else(|| {
                        StoreError::Unsupported(
                            "ORDER BY in a grouped query must reference a projected column"
                                .to_owned(),
                        )
                    })
            })
            .collect::<Result<_, _>>()?;
        out_rows.sort_by(|a, b| {
            for (i, desc) in &keys {
                let ord = a[*i].total_cmp(&b[*i]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    finalize_select(table, sel, items, out_rows)
}

/// Match an `ORDER BY` expression to an output column of a grouped
/// query: by alias name first, then by structural expression equality.
fn output_sort_index(items: &[Item<'_>], ob: &Expr) -> Option<usize> {
    if let Expr::Column { name, .. } = ob {
        if let Some(i) = items.iter().position(|(_, n)| n == name) {
            return Some(i);
        }
    }
    items.iter().position(|(e, _)| e.as_ref() == ob)
}

/// What a projection item computes in the TIME_BUCKET fast path.
enum FastItem {
    /// The bucket key itself.
    Bucket,
    /// `COUNT(*)`.
    CountStar,
    /// An aggregate over one plain column.
    Count(usize),
    Sum(usize),
    Avg(usize),
    Min(usize),
    Max(usize),
}

/// Columnar fast path for the canonical time-series rollup:
/// `GROUP BY TIME_BUCKET(<int literal>, <ts column>)` with projections
/// that are the bucket expression or plain-column aggregates. Buckets
/// are computed in one tight pass over the timestamp column, rows are
/// sorted by bucket, and every aggregate runs as a per-column loop over
/// each bucket's run — no per-row expression evaluation. Returns `None`
/// whenever the query shape (or the data: a null/mistyped timestamp)
/// doesn't fit, falling back to the generic grouped path.
fn time_bucket_fast_path(
    table: &dyn Relation,
    sel: &SelectStatement,
    items: &[Item<'_>],
    matching: &[&Vec<SqlValue>],
) -> Option<Vec<Vec<SqlValue>>> {
    let [group] = sel.group_by.as_slice() else {
        return None;
    };
    let Expr::Function { name, args, star } = group else {
        return None;
    };
    if *star || name != "TIME_BUCKET" || args.len() != 2 {
        return None;
    }
    let Expr::Literal(SqlValue::Int(width)) = &args[0] else {
        return None;
    };
    let width = *width;
    if width <= 0 {
        return None; // generic path surfaces the DivisionByZero
    }
    let Expr::Column { name: ts_col, .. } = &args[1] else {
        return None;
    };
    let ts_idx = table.column_index(ts_col)?;
    let bucket_is_timestamp = table.column_type(ts_idx) == SqlType::Timestamp;

    let plan: Vec<FastItem> = items
        .iter()
        .map(|(e, _)| {
            if e.as_ref() == group {
                return Some(FastItem::Bucket);
            }
            let Expr::Function { name, args, star } = e.as_ref() else {
                return None;
            };
            if *star {
                return (name == "COUNT").then_some(FastItem::CountStar);
            }
            let [Expr::Column { name: col, .. }] = args.as_slice() else {
                return None;
            };
            let idx = table.column_index(col)?;
            match name.as_str() {
                "COUNT" => Some(FastItem::Count(idx)),
                "SUM" => Some(FastItem::Sum(idx)),
                "AVG" => Some(FastItem::Avg(idx)),
                "MIN" => Some(FastItem::Min(idx)),
                "MAX" => Some(FastItem::Max(idx)),
                _ => None,
            }
        })
        .collect::<Option<_>>()?;

    // Tight pass over the timestamp column: bucket key per row.
    let mut keyed: Vec<(i64, u32)> = Vec::with_capacity(matching.len());
    for (i, row) in matching.iter().enumerate() {
        match row[ts_idx] {
            SqlValue::Int(t) | SqlValue::Timestamp(t) => {
                keyed.push((t.div_euclid(width) * width, i as u32));
            }
            _ => return None,
        }
    }
    keyed.sort_unstable();

    let mut out = Vec::new();
    let mut i = 0;
    while i < keyed.len() {
        let bucket = keyed[i].0;
        let mut j = i + 1;
        while j < keyed.len() && keyed[j].0 == bucket {
            j += 1;
        }
        let run = &keyed[i..j];
        let row: Vec<SqlValue> = plan
            .iter()
            .map(|item| fast_aggregate(item, run, matching, bucket, bucket_is_timestamp))
            .collect();
        out.push(row);
        i = j;
    }
    Some(out)
}

/// One aggregate over one bucket's run of rows — a per-column loop
/// touching only the aggregated column's cells.
fn fast_aggregate(
    item: &FastItem,
    run: &[(i64, u32)],
    matching: &[&Vec<SqlValue>],
    bucket: i64,
    bucket_is_timestamp: bool,
) -> SqlValue {
    let col = match item {
        FastItem::Bucket => {
            return if bucket_is_timestamp {
                SqlValue::Timestamp(bucket)
            } else {
                SqlValue::Int(bucket)
            };
        }
        FastItem::CountStar => return SqlValue::Int(run.len() as i64),
        FastItem::Count(c)
        | FastItem::Sum(c)
        | FastItem::Avg(c)
        | FastItem::Min(c)
        | FastItem::Max(c) => *c,
    };
    match item {
        FastItem::Count(_) => {
            let n = run
                .iter()
                .filter(|(_, r)| !matching[*r as usize][col].is_null())
                .count();
            SqlValue::Int(n as i64)
        }
        FastItem::Sum(_) => {
            let (mut sum_i, mut sum_f, mut n, mut all_int) = (0i64, 0.0f64, 0usize, true);
            for (_, r) in run {
                match &matching[*r as usize][col] {
                    SqlValue::Int(v) => {
                        sum_i = sum_i.wrapping_add(*v);
                        sum_f += *v as f64;
                        n += 1;
                    }
                    SqlValue::Null => {}
                    other => {
                        all_int = false;
                        if let Some(f) = other.as_f64() {
                            sum_f += f;
                            n += 1;
                        }
                    }
                }
            }
            if n == 0 {
                SqlValue::Null
            } else if all_int {
                SqlValue::Int(sum_i)
            } else {
                SqlValue::Float(sum_f)
            }
        }
        FastItem::Avg(_) => {
            let (mut sum, mut n) = (0.0f64, 0usize);
            for (_, r) in run {
                let v = &matching[*r as usize][col];
                if !v.is_null() {
                    if let Some(f) = v.as_f64() {
                        sum += f;
                        n += 1;
                    }
                }
            }
            if n == 0 {
                SqlValue::Null
            } else {
                SqlValue::Float(sum / n as f64)
            }
        }
        FastItem::Min(_) | FastItem::Max(_) => {
            let want_min = matches!(item, FastItem::Min(_));
            let mut best: Option<&SqlValue> = None;
            for (_, r) in run {
                let v = &matching[*r as usize][col];
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = if want_min {
                            v.total_cmp(b) == std::cmp::Ordering::Less
                        } else {
                            v.total_cmp(b) == std::cmp::Ordering::Greater
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            best.cloned().unwrap_or(SqlValue::Null)
        }
        FastItem::Bucket | FastItem::CountStar => unreachable!("handled above"),
    }
}

fn contains_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Function { name, args, .. } => {
            is_aggregate(name) || args.iter().any(contains_aggregate)
        }
        Expr::Binary { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        Expr::Not(e) | Expr::Neg(e) => contains_aggregate(e),
        Expr::IsNull { expr, .. } => contains_aggregate(expr),
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        Expr::Between {
            expr, low, high, ..
        } => contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high),
        _ => false,
    }
}

fn eval_aggregate(
    table: &dyn Relation,
    rows: &[&Vec<SqlValue>],
    e: &Expr,
    now: i64,
) -> Result<SqlValue, StoreError> {
    match e {
        Expr::Function { name, args, star } if is_aggregate(name) => {
            if *star {
                if name == "COUNT" {
                    return Ok(SqlValue::Int(rows.len() as i64));
                }
                return Err(StoreError::Unsupported(format!("{name}(*)")));
            }
            let arg = args
                .first()
                .ok_or_else(|| StoreError::Query(format!("{name} needs an argument")))?;
            let ev = Evaluator;
            let mut values = Vec::with_capacity(rows.len());
            for row in rows {
                let ctx = RowCtx { table, row, now };
                let v = ev
                    .eval(arg, &ctx)
                    .map_err(|err| StoreError::Query(err.to_string()))?;
                if !v.is_null() {
                    values.push(v);
                }
            }
            Ok(match name.as_str() {
                "COUNT" => SqlValue::Int(values.len() as i64),
                "SUM" => {
                    if values.is_empty() {
                        SqlValue::Null
                    } else if values.iter().all(|v| matches!(v, SqlValue::Int(_))) {
                        SqlValue::Int(values.iter().filter_map(SqlValue::as_i64).sum())
                    } else {
                        SqlValue::Float(values.iter().filter_map(SqlValue::as_f64).sum())
                    }
                }
                "AVG" => {
                    if values.is_empty() {
                        SqlValue::Null
                    } else {
                        let sum: f64 = values.iter().filter_map(SqlValue::as_f64).sum();
                        SqlValue::Float(sum / values.len() as f64)
                    }
                }
                "MIN" => values
                    .into_iter()
                    .min_by(|a, b| a.total_cmp(b))
                    .unwrap_or(SqlValue::Null),
                "MAX" => values
                    .into_iter()
                    .max_by(|a, b| a.total_cmp(b))
                    .unwrap_or(SqlValue::Null),
                other => return Err(StoreError::Unsupported(other.to_owned())),
            })
        }
        // Scalar wrapper around an aggregate, e.g. `AVG(x) * 2`: evaluate
        // the aggregate sub-expressions first via substitution.
        Expr::Binary { left, op, right } => {
            let l = eval_aggregate(table, rows, left, now)?;
            let r = eval_aggregate(table, rows, right, now)?;
            let ev = Evaluator;
            let expr = Expr::bin(Expr::Literal(l), *op, Expr::Literal(r));
            ev.eval(&expr, &gridrm_sqlparse::MapContext::new())
                .map_err(|err| StoreError::Query(err.to_string()))
        }
        Expr::Literal(v) => Ok(v.clone()),
        other => {
            if contains_aggregate(other) {
                Err(StoreError::Unsupported(
                    "complex aggregate expression".to_owned(),
                ))
            } else {
                // Non-aggregate item alongside aggregates: evaluate against
                // the first row, SQLite-style leniency.
                let ev = Evaluator;
                match rows.first() {
                    Some(row) => ev
                        .eval(other, &RowCtx { table, row, now })
                        .map_err(|err| StoreError::Query(err.to_string())),
                    None => Ok(SqlValue::Null),
                }
            }
        }
    }
}

/// Execute any statement against a database (crate-internal; the public
/// entry is [`crate::Database::execute`]).
pub(crate) fn execute(
    db: &mut crate::database::Database,
    stmt: &Statement,
    now: i64,
) -> Result<ExecOutcome, StoreError> {
    match stmt {
        Statement::Select(sel) => {
            let table = db.table(&sel.table)?;
            Ok(ExecOutcome::Rows(execute_select(table, sel, now)?))
        }
        Statement::Insert {
            table,
            columns,
            rows,
        } => {
            let ev = Evaluator;
            let empty = gridrm_sqlparse::MapContext::new().with_now(now);
            // Evaluate all value expressions before touching the table so a
            // failure can't leave a partial multi-row insert behind.
            let mut evaluated = Vec::with_capacity(rows.len());
            for row in rows {
                let mut vals = Vec::with_capacity(row.len());
                for e in row {
                    vals.push(
                        ev.eval(e, &empty)
                            .map_err(|err| StoreError::Query(err.to_string()))?,
                    );
                }
                evaluated.push(vals);
            }
            let t = db.table_mut(table)?;
            let snapshot_len = t.rows.len();
            let mut inserted = 0;
            for vals in evaluated {
                if let Err(e) = t.insert(columns, vals) {
                    t.rows.truncate(snapshot_len);
                    return Err(e);
                }
                inserted += 1;
            }
            Ok(ExecOutcome::Affected(inserted))
        }
        Statement::Delete {
            table,
            where_clause,
        } => {
            let t = db.table_mut(table)?;
            let ev = Evaluator;
            let before = t.rows.len();
            match where_clause {
                None => t.rows.clear(),
                Some(w) => {
                    let mut err = None;
                    let t_ref: &Table = t;
                    let keep: Vec<bool> = t_ref
                        .rows
                        .iter()
                        .map(|row| {
                            let ctx = RowCtx {
                                table: t_ref,
                                row,
                                now,
                            };
                            match ev.matches(w, &ctx) {
                                Ok(m) => !m,
                                Err(e) => {
                                    err = Some(StoreError::Query(e.to_string()));
                                    true
                                }
                            }
                        })
                        .collect();
                    if let Some(e) = err {
                        return Err(e);
                    }
                    let mut it = keep.iter();
                    t.rows.retain(|_| *it.next().unwrap());
                }
            }
            Ok(ExecOutcome::Affected(before - t.rows.len()))
        }
        Statement::Update {
            table,
            assignments,
            where_clause,
        } => {
            let t = db.table_mut(table)?;
            let ev = Evaluator;
            // Resolve assignment target indices first.
            let targets: Vec<(usize, &Expr)> = assignments
                .iter()
                .map(|(c, e)| {
                    t.column_index(c)
                        .map(|i| (i, e))
                        .ok_or_else(|| StoreError::NoSuchColumn(c.clone()))
                })
                .collect::<Result<_, _>>()?;
            let mut updated = 0;
            let columns = t.columns.clone();
            let name = t.name.clone();
            for row in &mut t.rows {
                let snapshot_table = Table {
                    name: name.clone(),
                    columns: columns.clone(),
                    rows: Vec::new(),
                };
                let ctx = RowCtx {
                    table: &snapshot_table,
                    row,
                    now,
                };
                // RowCtx::get goes through column_index on the snapshot
                // (same columns), row data borrowed directly.
                let matches = match where_clause {
                    Some(w) => ev
                        .matches(w, &ctx)
                        .map_err(|e| StoreError::Query(e.to_string()))?,
                    None => true,
                };
                if !matches {
                    continue;
                }
                let mut new_vals = Vec::with_capacity(targets.len());
                for (idx, e) in &targets {
                    let v = ev
                        .eval(e, &ctx)
                        .map_err(|err| StoreError::Query(err.to_string()))?;
                    let col = &columns[*idx];
                    let coerced = v.coerce(col.ty).ok_or_else(|| StoreError::Type {
                        column: col.name.clone(),
                        expected: col.ty,
                    })?;
                    new_vals.push((*idx, coerced));
                }
                for (idx, v) in new_vals {
                    row[idx] = v;
                }
                updated += 1;
            }
            Ok(ExecOutcome::Affected(updated))
        }
        Statement::CreateTable {
            table,
            columns,
            if_not_exists,
        } => {
            if db.has_table(table) {
                if *if_not_exists {
                    return Ok(ExecOutcome::Done);
                }
                return Err(StoreError::TableExists(table.clone()));
            }
            db.create_table(Table::new(table, columns.clone()));
            Ok(ExecOutcome::Done)
        }
        Statement::DropTable { table, if_exists } => {
            if db.drop_table(table) || *if_exists {
                Ok(ExecOutcome::Done)
            } else {
                Err(StoreError::NoSuchTable(table.clone()))
            }
        }
        Statement::Explain { .. } => Err(StoreError::Unsupported(
            "EXPLAIN is handled by the gateway query path, not the store".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use crate::Database;
    use gridrm_sqlparse::SqlValue;

    fn db_with_series() -> Database {
        let mut db = Database::new();
        db.execute_sql(
            "CREATE TABLE samples (host TEXT, at TIMESTAMP, value REAL)",
            0,
        )
        .unwrap();
        for (host, at, value) in [
            ("a", 100i64, 1.0),
            ("a", 900, 3.0),
            ("b", 1100, 5.0),
            ("a", 1900, 7.0),
            ("b", 2500, 2.0),
        ] {
            db.execute_sql(
                &format!("INSERT INTO samples VALUES ('{host}', {at}, {value})"),
                0,
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn group_by_column_counts() {
        let mut db = db_with_series();
        let rows = db
            .execute_sql(
                "SELECT host, COUNT(*) AS n, SUM(value) FROM samples GROUP BY host ORDER BY host",
                0,
            )
            .unwrap()
            .rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.rows()[0][0], SqlValue::Str("a".into()));
        assert_eq!(rows.rows()[0][1], SqlValue::Int(3));
        assert_eq!(rows.rows()[0][2], SqlValue::Float(11.0));
        assert_eq!(rows.rows()[1][0], SqlValue::Str("b".into()));
        assert_eq!(rows.rows()[1][1], SqlValue::Int(2));
    }

    #[test]
    fn time_bucket_fast_path_aggregates_per_bucket() {
        let mut db = db_with_series();
        let rows = db
            .execute_sql(
                "SELECT TIME_BUCKET(1000, at) AS bucket, COUNT(*) AS n, MIN(value), MAX(value), \
                 AVG(value), SUM(value) FROM samples GROUP BY TIME_BUCKET(1000, at) \
                 ORDER BY bucket",
                0,
            )
            .unwrap()
            .rows();
        assert_eq!(rows.len(), 3);
        // Bucket 0: ts 100 & 900 (values 1, 3).
        assert_eq!(rows.rows()[0][0], SqlValue::Timestamp(0));
        assert_eq!(rows.rows()[0][1], SqlValue::Int(2));
        assert_eq!(rows.rows()[0][2], SqlValue::Float(1.0));
        assert_eq!(rows.rows()[0][3], SqlValue::Float(3.0));
        assert_eq!(rows.rows()[0][4], SqlValue::Float(2.0));
        assert_eq!(rows.rows()[0][5], SqlValue::Float(4.0));
        // Bucket 1000: ts 1100 & 1900 (values 5, 7).
        assert_eq!(rows.rows()[1][0], SqlValue::Timestamp(1000));
        assert_eq!(rows.rows()[1][4], SqlValue::Float(6.0));
        // Bucket 2000: ts 2500 (value 2).
        assert_eq!(rows.rows()[2][0], SqlValue::Timestamp(2000));
        assert_eq!(rows.rows()[2][1], SqlValue::Int(1));
    }

    #[test]
    fn time_bucket_fast_path_matches_generic_path() {
        let mut db = db_with_series();
        // `AVG(value) * 1` defeats the fast-path plan, forcing the
        // generic grouped path over the same grouping; both paths must
        // agree bucket by bucket.
        let fast = db
            .execute_sql(
                "SELECT TIME_BUCKET(1000, at) AS bucket, AVG(value) AS v FROM samples \
                 GROUP BY TIME_BUCKET(1000, at) ORDER BY bucket",
                0,
            )
            .unwrap()
            .rows();
        let generic = db
            .execute_sql(
                "SELECT TIME_BUCKET(1000, at) AS bucket, AVG(value) * 1 AS v FROM samples \
                 GROUP BY TIME_BUCKET(1000, at) ORDER BY bucket",
                0,
            )
            .unwrap()
            .rows();
        assert_eq!(fast.rows(), generic.rows());
    }

    #[test]
    fn grouped_order_by_requires_projected_column() {
        let mut db = db_with_series();
        let err = db
            .execute_sql(
                "SELECT host, COUNT(*) FROM samples GROUP BY host ORDER BY value",
                0,
            )
            .unwrap_err();
        assert!(err.to_string().contains("projected column"), "{err}");
    }

    #[test]
    fn grouped_desc_order_and_limit() {
        let mut db = db_with_series();
        let rows = db
            .execute_sql(
                "SELECT TIME_BUCKET(1000, at) AS bucket, COUNT(*) AS n FROM samples \
                 GROUP BY TIME_BUCKET(1000, at) ORDER BY bucket DESC LIMIT 2",
                0,
            )
            .unwrap()
            .rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.rows()[0][0], SqlValue::Timestamp(2000));
        assert_eq!(rows.rows()[1][0], SqlValue::Timestamp(1000));
    }
}
