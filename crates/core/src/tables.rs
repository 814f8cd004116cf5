#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

//! The gateway's own state as relations — the "monitor the monitor"
//! loop. Each entity is declared once, here, and served through two
//! transports: the `jdbc-telemetry` SQL driver (`jdbc:telemetry://local/metrics`,
//! through the normal driver path) and the admin's `/v1/<name>` routes,
//! which render a table's `SELECT *` rows as JSON.
//!
//! Every table is one entry of [`TABLES`]: its name, its typed columns
//! and the expression each cell is computed from, side by side.
//! [`AdminInterface::select`] is the one evaluator both transports call;
//! the admin's route list, the driver's error naming the served tables
//! and its description are derived from the same list.
//! `docs/observability.md` documents each table for operators and
//! `tests/docs_drift.rs` keeps the two in step.
//!
//! On `gridrm_metrics_history`, equality filters on `name`/`labels` are
//! pushed down to the recorder so a single series is extracted without
//! materialising every ring. The canonical rollup is `TIME_BUCKET` +
//! `GROUP BY`:
//! `SELECT TIME_BUCKET(60000, ts_ms) AS bucket, AVG(value) FROM
//! gridrm_metrics_history WHERE name = '…' GROUP BY
//! TIME_BUCKET(60000, ts_ms) ORDER BY bucket`.

use crate::admin::AdminInterface;
use crate::explain::render_stages;
use crate::health::SourceHealthSnapshot;
use crate::stream::SubscriptionSnapshot;
use gridrm_dbc::{DbcResult, RowSet, SqlError};
use gridrm_sqlparse::ast::{ColumnDef, Expr, OrderBy, Projection, SelectStatement};
use gridrm_sqlparse::{EvalContext, Evaluator, SqlType, SqlValue};
use gridrm_store::Table;
use gridrm_telemetry::{
    HistoryRow, IntrusionRow, JournalEntry, RootBill, Sample, SloStatus, Span, TraceRecord,
};
use std::cmp::Ordering;

/// One item of a table as its cells, each computed only when asked
/// for: `cell(i)` is column `i`'s value.
type Cells<'a> = &'a dyn Fn(usize) -> SqlValue;

/// What a table lends its items to, one at a time.
type Visitor<'v> = dyn FnMut(Cells<'_>) + 'v;

/// One virtual table over the gateway's own state.
pub struct VirtualTable {
    /// Table name (`gridrm_*`).
    pub name: &'static str,
    /// Column names and types, in `SELECT *` order.
    pub columns: &'static [(&'static str, SqlType)],
    /// Lend every item, in table order, to the visitor. A ring lends its
    /// items under its own lock, so the visitor takes no other lock.
    scan: fn(&AdminInterface, &SelectStatement, &mut Visitor<'_>),
}

/// The span ring's table: the one table the admin also serves filtered,
/// at `/v1/spans/<trace_id>`.
pub const SPANS: &str = "gridrm_spans";

/// Declare a [`VirtualTable`]: the item type `each` takes and how to
/// hand it each borrowed item, then `column: Type = cell` for each
/// column, the cell being anything `Into<SqlValue>` (an `Option` becomes
/// NULL when empty). Each cell becomes one function over a borrowed
/// item, called only for the columns a query reads.
macro_rules! virtual_table {
    ($name:expr, |$src:pat_param, $sel:pat_param, $each:ident: &$ty:ty| $visit:expr,
     |$item:pat_param| {
        $($col:ident: $sqlty:ident = $cell:expr),* $(,)?
    }) => {
        VirtualTable {
            name: $name,
            columns: &[$((stringify!($col), SqlType::$sqlty)),*],
            scan: |$src, $sel, visit| {
                // A cell reads only some of the names the item pattern binds.
                #[allow(unused_variables)]
                const CELLS: &[fn(&$ty) -> SqlValue] = &[$(|$item: &$ty| SqlValue::from($cell)),*];
                let mut $each = |item: &$ty| {
                    visit(&|i| CELLS.get(i).map_or(SqlValue::Null, |cell| cell(item)))
                };
                $visit
            },
        }
    };
}

/// Every table the gateway serves about itself.
pub static TABLES: &[VirtualTable] = &[
    // One row per flattened registry sample, histogram buckets included.
    virtual_table!(
        "gridrm_telemetry",
        |a, _, each: &(&str, &Sample)| for family in &a.telemetry.registry().snapshot() {
            for sample in &family.samples {
                each(&(family.kind.as_str(), sample));
            }
        },
        |(kind, s)| {
            name: Str = s.name.as_str(),
            kind: Str = *kind,
            labels: Str = s.labels.as_str(),
            value: Float = s.value,
        }
    ),
    // One row per tracked data source, straight from the health monitor's
    // state machine.
    virtual_table!(
        "gridrm_health",
        |a, _, each: &SourceHealthSnapshot| for s in &a.health_monitor.snapshot() {
            each(s);
        },
        |s| {
            source: Str = s.source.as_str(),
            state: Str = s.state.name(),
            consecutive_failures: Int = s.consecutive_failures as u64,
            consecutive_successes: Int = s.consecutive_successes as u64,
            last_ok_ms: Int = s.last_ok_ms,
            last_error: Str = s.last_error.as_deref(),
            last_probe_ms: Int = s.last_probe_ms,
            last_failed_driver: Str = s.last_failed_driver.as_deref(),
            transitions: Int = s.transitions,
            last_transition_ms: Int = s.last_transition_ms,
            last_event_ms: Int = s.last_event_ms,
        }
    ),
    // One row per structured journal entry, oldest first; `trace_id` is
    // NULL for untraced events.
    virtual_table!(
        "gridrm_journal",
        |a, _, each: &JournalEntry| a.telemetry.journal().visit(&mut each),
        |e| {
            seq: Int = e.seq,
            at_ms: Int = e.at_ms,
            severity: Str = e.severity.name(),
            kind: Str = e.kind.as_str(),
            source: Str = e.source.as_str(),
            driver: Str = e.driver.as_deref(),
            stage: Str = e.stage.as_deref(),
            message: Str = e.message.as_str(),
            trace_id: Str = e.trace_id.as_deref(),
        }
    ),
    // One row per slow-query log entry, slowest first, with the
    // per-stage breakdown as `stage@offset_ms[=detail]` segments.
    virtual_table!(
        "gridrm_slow_queries",
        |a, _, each: &TraceRecord| a.telemetry.slow_queries().visit(&mut each),
        |r| {
            id: Int = r.id,
            trace_id: Str = r.trace_id.as_str(),
            request: Str = r.request.as_str(),
            source: Str = r.source.as_deref(),
            started_ms: Int = r.started_ms,
            finished_ms: Int = r.finished_ms,
            duration_ms: Int = r.duration_ms(),
            outcome: Str = r.outcome.as_str(),
            stages: Str = render_stages(
                r.stages.iter().map(|m| (m.stage.as_str(), m.at_ms, m.detail.as_deref())),
                r.started_ms,
                true,
            ),
            span_id: Str = r.span_id.as_str(),
            parent_span_id: Str = r.parent_span_id.as_deref(),
            site: Str = r.site.as_str(),
            msgs_out: Int = r.cost.msgs_out,
            msgs_in: Int = r.cost.msgs_in,
            bytes_out: Int = r.cost.bytes_out,
            bytes_in: Int = r.cost.bytes_in,
            rows_scanned: Int = r.cost.rows_scanned,
            rows_returned: Int = r.cost.rows_returned,
            fetch_units: Int = r.cost.fetch_units,
        }
    ),
    // One row per span in the trace ring buffer, oldest first. Rows for
    // one `trace_id` reconstruct the tree `EXPLAIN ANALYZE` renders:
    // every non-NULL `parent_span_id` names another `span_id` in the
    // trace. The cost columns are the span's inclusive cost. A span's
    // texts become strings only for the columns a query reads.
    virtual_table!(
        SPANS,
        |a, _, each: &Span| a.telemetry.traces().visit(&mut each),
        |r| {
            trace_id: Str = r.trace_id().to_string(),
            span_id: Str = r.span_id().to_string(),
            parent_span_id: Str = r.parent_span_id().map(ToString::to_string),
            site: Str = r.site().to_string(),
            id: Int = r.id(),
            request: Str = r.request().to_string(),
            source: Str = r.source().map(ToString::to_string),
            started_ms: Int = r.started_ms(),
            finished_ms: Int = r.finished_ms(),
            duration_ms: Int = r.duration_ms(),
            outcome: Str = r.outcome().to_string(),
            stages: Str = render_stages(r.stages(), r.started_ms(), true),
            msgs_out: Int = r.cost().msgs_out,
            msgs_in: Int = r.cost().msgs_in,
            bytes_out: Int = r.cost().bytes_out,
            bytes_in: Int = r.cost().bytes_in,
            rows_scanned: Int = r.cost().rows_scanned,
            rows_returned: Int = r.cost().rows_returned,
            fetch_units: Int = r.cost().fetch_units,
        }
    ),
    // One row per recorded time-series sample, ordered by series then
    // time; histograms expand to `_count`/`_sum`/`_p50`/`_p95`/`_p99`
    // series, `delta`/`rate_per_s` are NULL for gauges and first samples.
    virtual_table!(
        "gridrm_metrics_history",
        |a, sel, each: &HistoryRow| for r in &a
            .telemetry
            .timeseries()
            .history_for(sel.where_eq("name"), sel.where_eq("labels"))
        {
            each(r);
        },
        |r| {
            ts_ms: Timestamp = SqlValue::Timestamp(r.ts_ms as i64),
            name: Str = r.name.as_str(),
            labels: Str = r.labels.as_str(),
            kind: Str = r.kind.as_str(),
            value: Float = r.value,
            delta: Float = r.delta,
            rate_per_s: Float = r.rate_per_s,
        }
    ),
    // One row per declared SLO, straight from the burn-rate engine.
    virtual_table!(
        "gridrm_slo",
        |a, _, each: &SloStatus| for s in &a.telemetry.slo().snapshot() {
            each(s);
        },
        |s| {
            name: Str = s.name.as_str(),
            objective: Str = s.objective.as_str(),
            target: Float = s.target,
            good: Float = s.good,
            total: Float = s.total,
            burn_fast: Float = s.burn_fast,
            burn_slow: Float = s.burn_slow,
            error_budget: Float = s.error_budget_remaining,
            firing: Bool = s.firing,
            since_ms: Int = s.since_ms,
            transitions: Int = s.transitions,
        }
    ),
    // One row per live continuous-query subscription, ordered by id.
    virtual_table!(
        "gridrm_subscriptions",
        |a, _, each: &SubscriptionSnapshot| for s in &a.streams.snapshot() {
            each(s);
        },
        |s| {
            id: Int = s.id,
            origin: Str = s.origin.as_str(),
            sql: Str = s.sql.as_str(),
            sources: Int = s.sources as u64,
            every_ms: Int = s.every_ms,
            policy: Str = s.policy.as_str(),
            buffer_capacity: Int = s.buffer_capacity as u64,
            pending: Int = s.pending as u64,
            emitted: Int = s.emitted,
            delivered: Int = s.delivered,
            dropped: Int = s.dropped,
            last_emit_ms: Int = s.last_emit_ms,
            created_ms: Int = s.created_ms,
        }
    ),
    // One row per recently finished root query, oldest first, straight
    // from the cost ledger's entry ring.
    virtual_table!(
        "gridrm_query_costs",
        |a, _, each: &(&RootBill, bool)| a
            .telemetry
            .costs()
            .visit_entries(|bill, over_budget| each(&(bill, over_budget))),
        |(e, over_budget)| {
            trace_id: Str = e.trace_id().to_string(),
            site: Str = e.site().to_string(),
            request: Str = e.request().to_string(),
            started_ms: Int = e.started_ms(),
            finished_ms: Int = e.finished_ms(),
            duration_ms: Int = e.finished_ms().saturating_sub(e.started_ms()),
            msgs_out: Int = e.cost().msgs_out,
            msgs_in: Int = e.cost().msgs_in,
            bytes_out: Int = e.cost().bytes_out,
            bytes_in: Int = e.cost().bytes_in,
            rows_scanned: Int = e.cost().rows_scanned,
            rows_returned: Int = e.cost().rows_returned,
            fetch_units: Int = e.cost().fetch_units,
            over_budget: Bool = *over_budget,
        }
    ),
    // One row per (site, cause) intrusion bucket, ordered by site then
    // cause, with rates over each bucket's virtual observation window.
    virtual_table!(
        "gridrm_intrusion",
        |a, _, each: &IntrusionRow| for r in &a.telemetry.costs().intrusion_snapshot() {
            each(r);
        },
        |r| {
            site: Str = r.site.as_str(),
            cause: Str = r.cause.as_str(),
            msgs: Int = r.bucket.msgs,
            bytes: Int = r.bucket.bytes,
            window_ms: Int = r.bucket.window_ms(),
            msgs_per_vsec: Float = r.bucket.msgs_per_vsec(),
            bytes_per_vsec: Float = r.bucket.bytes_per_vsec(),
            first_ms: Int = r.bucket.first_ms,
            last_ms: Int = r.bucket.last_ms,
        }
    ),
];

/// The served table names as prose: `a, b, … and z`.
pub fn served_tables() -> String {
    let names: Vec<&str> = TABLES.iter().map(|t| t.name).collect();
    match names.split_last() {
        Some((last, rest)) if !rest.is_empty() => format!("{} and {last}", rest.join(", ")),
        _ => names.concat(),
    }
}

impl AdminInterface {
    /// Answer `sel` over [`TABLES`]. Both transports call this — the
    /// `jdbc-telemetry` driver and [`AdminInterface::handle`] — and it
    /// only reads: it records no span, cost, journal entry or metric.
    ///
    /// It builds only what the statement names: the columns it reads,
    /// the WHERE and ORDER BY cells of each item, which decide whether
    /// the item is kept, and the rest of a row only once it is. Under
    /// `ORDER BY … LIMIT` it keeps just the top `offset + limit` rows.
    /// The survivors go to [`gridrm_store::select_in_memory`], which
    /// decides every output byte and every error, as if it had been
    /// handed the whole table.
    pub fn select(&self, sel: &SelectStatement) -> DbcResult<RowSet> {
        let decl = TABLES
            .iter()
            .find(|t| sel.table.eq_ignore_ascii_case(t.name))
            .ok_or_else(|| {
                SqlError::Unsupported(format!(
                    "the telemetry driver serves {}, got '{}'",
                    served_tables(),
                    sel.table
                ))
            })?;
        let now = self.telemetry.clock().now_ts();
        let mut scan = Scan::new(decl, sel, now);
        (decl.scan)(self, sel, &mut |cells| scan.offer(cells));
        let table = scan.finish();
        gridrm_store::select_in_memory(&table, sel, now)
            .map_err(|e| SqlError::Driver(e.to_string()))
    }
}

/// Where a [`Scan`] stands. Evaluating an item can fail; the scan then
/// keeps the item, so that the store meets the same failure first.
#[derive(PartialEq)]
enum Progress {
    /// Every item is filtered, and ranked when the scan keeps a top set.
    Open,
    /// An ORDER BY key failed: later items are only filtered, since a
    /// WHERE failure still comes first in the store.
    KeysFailed,
    /// A WHERE failed: nothing later can change the answer.
    Done,
}

/// One pass of [`AdminInterface::select`] over a table's items.
struct Scan<'s> {
    sel: &'s SelectStatement,
    now: i64,
    /// The columns the statement reads, in declaration order, with no
    /// rows: [`Scan::finish`] fills them.
    table: Table,
    /// Each column of `table`'s index in the declaration.
    cells: Vec<usize>,
    /// The positions in `table` that WHERE and ORDER BY read.
    keys: Vec<usize>,
    /// `Some(offset + limit)` when only that many top rows are kept.
    top: Option<usize>,
    /// The current item's cells: the key cells first, the rest once the
    /// item is kept.
    row: Vec<SqlValue>,
    /// The current item's ORDER BY values.
    order: Vec<SqlValue>,
    /// Kept rows with their ORDER BY values: in table order, or under a
    /// top cut, best first with the earlier item first among equals.
    kept: Vec<(Vec<SqlValue>, Vec<SqlValue>)>,
    /// Items whose evaluation failed, in table order.
    failed: Vec<Vec<SqlValue>>,
    progress: Progress,
}

impl<'s> Scan<'s> {
    fn new(decl: &VirtualTable, sel: &'s SelectStatement, now: i64) -> Scan<'s> {
        let needed = sel.required_column_names();
        let (cells, columns): (Vec<usize>, Vec<ColumnDef>) = decl
            .columns
            .iter()
            .enumerate()
            .filter(|(_, (name, _))| {
                needed
                    .as_ref()
                    .is_none_or(|n| n.iter().any(|c| c.eq_ignore_ascii_case(name)))
            })
            .map(|(i, (name, ty))| {
                let def = ColumnDef {
                    name: (*name).to_owned(),
                    ty: *ty,
                    primary_key: false,
                };
                (i, def)
            })
            .unzip();
        let table = Table {
            name: decl.name.to_owned(),
            columns,
            rows: Vec::new(),
        };
        let mut read = Vec::new();
        if let Some(w) = &sel.where_clause {
            w.collect_columns(&mut read);
        }
        for ob in &sel.order_by {
            ob.expr.collect_columns(&mut read);
        }
        let mut keys: Vec<usize> = read.iter().filter_map(|c| table.column_index(c)).collect();
        keys.sort_unstable();
        keys.dedup();
        // Keeping only the top rows gives the store's answer where it
        // would sort every row and then keep the first `offset + limit`,
        // and where projecting a dropped row could not have failed: a
        // projection of `*` or known columns, so no aggregate either.
        let plain = match &sel.projection {
            Projection::Star => true,
            Projection::Items(items) => items.iter().all(|item| {
                matches!(&item.expr, Expr::Column { name, .. } if table.column_index(name).is_some())
            }),
        };
        let top = sel
            .limit
            .filter(|_| plain && sel.group_by.is_empty() && !sel.distinct)
            .map(|limit| {
                let k = limit.saturating_add(sel.offset.unwrap_or(0));
                usize::try_from(k).unwrap_or(usize::MAX)
            });
        Scan {
            sel,
            now,
            row: vec![SqlValue::Null; cells.len()],
            table,
            cells,
            keys,
            top,
            order: Vec::with_capacity(sel.order_by.len()),
            kept: Vec::new(),
            failed: Vec::new(),
            progress: Progress::Open,
        }
    }

    /// Filter one item, rank it under a top cut, and keep it if it
    /// passes both.
    fn offer(&mut self, cells: Cells<'_>) {
        let sel = self.sel;
        if self.progress == Progress::Done {
            return;
        }
        for &at in &self.keys {
            if let (Some(slot), Some(&i)) = (self.row.get_mut(at), self.cells.get(at)) {
                *slot = cells(i);
            }
        }
        let ev = Evaluator;
        let item = Item {
            table: &self.table,
            row: &self.row,
            now: self.now,
        };
        match sel.where_clause.as_ref().map(|w| ev.matches(w, &item)) {
            Some(Ok(false)) => return,
            Some(Ok(true)) | None => {}
            Some(Err(_)) => {
                let row = self.take_row(cells);
                self.failed.push(row);
                self.progress = Progress::Done;
                return;
            }
        }
        if self.progress == Progress::KeysFailed {
            return;
        }
        let Some(k) = self.top else {
            let row = self.take_row(cells);
            self.kept.push((Vec::new(), row));
            return;
        };
        self.order.clear();
        for ob in &sel.order_by {
            match ev.eval(&ob.expr, &item) {
                Ok(v) => self.order.push(v),
                Err(_) => {
                    let row = self.take_row(cells);
                    self.failed.push(row);
                    self.progress = Progress::KeysFailed;
                    return;
                }
            }
        }
        let order = &self.order;
        let at = self
            .kept
            .partition_point(|(kept, _)| compare(&sel.order_by, kept, order) != Ordering::Greater);
        if at >= k {
            return;
        }
        let order = order.clone();
        let row = self.take_row(cells);
        self.kept.insert(at, (order, row));
        self.kept.truncate(k);
    }

    /// The current item's whole row: the cells not yet computed are
    /// computed now.
    fn take_row(&mut self, cells: Cells<'_>) -> Vec<SqlValue> {
        for (at, (slot, &i)) in self.row.iter_mut().zip(&self.cells).enumerate() {
            if self.keys.binary_search(&at).is_err() {
                *slot = cells(i);
            }
        }
        std::mem::replace(&mut self.row, vec![SqlValue::Null; self.cells.len()])
    }

    /// The table the store answers from: the kept rows, then the rows
    /// whose evaluation failed.
    fn finish(self) -> Table {
        let mut table = self.table;
        table.rows = self.kept.into_iter().map(|(_, row)| row).collect();
        table.rows.extend(self.failed);
        table
    }
}

/// The store's ORDER BY comparison over two items' ORDER BY values.
fn compare(order_by: &[OrderBy], a: &[SqlValue], b: &[SqlValue]) -> Ordering {
    order_by
        .iter()
        .zip(a.iter().zip(b))
        .map(|(ob, (x, y))| {
            let ord = x.total_cmp(y);
            if ob.desc {
                ord.reverse()
            } else {
                ord
            }
        })
        .find(|ord| ord.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// One item's computed cells, as the evaluator reads them.
struct Item<'a> {
    table: &'a Table,
    row: &'a [SqlValue],
    now: i64,
}

impl EvalContext for Item<'_> {
    fn get(&self, column: &str) -> Option<SqlValue> {
        self.table
            .column_index(column)
            .and_then(|i| self.row.get(i))
            .cloned()
    }

    fn now_millis(&self) -> i64 {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheController;
    use crate::driver_manager::GridRMDriverManager;
    use crate::health::{HealthConfig, HealthMonitor};
    use crate::stream::{BackpressurePolicy, StreamManager, StreamSettings};
    use gridrm_simnet::SimClock;
    use gridrm_sqlparse::Statement;
    use gridrm_telemetry::{GatewayTelemetry, Labels, Registry, Stage};
    use std::sync::Arc;

    fn health(telemetry: &GatewayTelemetry) -> Arc<HealthMonitor> {
        Arc::new(HealthMonitor::new(HealthConfig::default(), telemetry))
    }

    fn streams(telemetry: &GatewayTelemetry) -> Arc<StreamManager> {
        let settings = StreamSettings {
            buffer_capacity: 4,
            backpressure: BackpressurePolicy::DropOldest,
            min_every_ms: 1,
            max_subscribers: 0,
        };
        Arc::new(StreamManager::new(
            settings,
            "local:test".to_owned(),
            telemetry,
        ))
    }

    /// An admin over exactly these subsystems; its driver manager and
    /// cache count into a registry of their own, so the hub's
    /// `gridrm_telemetry` rows are only what a test registers.
    fn admin_with(
        telemetry: &GatewayTelemetry,
        health: Arc<HealthMonitor>,
        streams: Arc<StreamManager>,
    ) -> AdminInterface {
        let own = Registry::new();
        AdminInterface::new(
            Arc::new(GridRMDriverManager::new(&own)),
            Arc::new(CacheController::new(0, &own)),
            telemetry,
            health,
            streams,
        )
    }

    fn admin_over(telemetry: &GatewayTelemetry) -> AdminInterface {
        admin_with(telemetry, health(telemetry), streams(telemetry))
    }

    fn admin() -> (GatewayTelemetry, AdminInterface) {
        let telemetry = GatewayTelemetry::new(SimClock::new());
        let a = admin_over(&telemetry);
        (telemetry, a)
    }

    fn query(a: &AdminInterface, sql: &str) -> DbcResult<RowSet> {
        match gridrm_sqlparse::parse(sql).unwrap() {
            Statement::Select(sel) => a.select(&sel),
            other => panic!("not a SELECT: {other}"),
        }
    }

    #[test]
    fn counters_appear_as_rows() {
        let (t, a) = admin();
        t.registry()
            .counter("gridrm_cache_hits_total", "hits", Labels::none())
            .add(5);
        let rs = query(
            &a,
            "SELECT value FROM gridrm_telemetry WHERE name = 'gridrm_cache_hits_total'",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows()[0][0].as_f64().unwrap(), 5.0);
    }

    #[test]
    fn like_filter_over_names() {
        let (t, a) = admin();
        t.registry()
            .counter("gridrm_cache_hits_total", "hits", Labels::none())
            .inc();
        t.registry()
            .counter("gridrm_cache_misses_total", "misses", Labels::none())
            .inc();
        t.registry()
            .counter("gridrm_requests_total", "requests", Labels::none())
            .inc();
        let rs = query(
            &a,
            "SELECT name FROM gridrm_telemetry WHERE name LIKE 'gridrm_cache%' ORDER BY name",
        )
        .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(
            rs.rows()[0][0],
            SqlValue::Str("gridrm_cache_hits_total".into())
        );
    }

    #[test]
    fn histogram_samples_flatten() {
        let (t, a) = admin();
        let h = t.registry().histogram(
            "gridrm_driver_latency_ms",
            "latency",
            Labels::from_pairs(&[("driver", "jdbc-snmp")]),
            &[1.0, 10.0],
        );
        h.observe(3.0);
        // 2 finite buckets + +Inf + _sum + _count = 5 rows.
        let rs = query(
            &a,
            "SELECT name FROM gridrm_telemetry WHERE name LIKE 'gridrm_driver_latency_ms%'",
        )
        .unwrap();
        assert_eq!(rs.len(), 5);
    }

    #[test]
    fn health_table_reflects_monitor_state() {
        let telemetry = GatewayTelemetry::new(SimClock::new());
        let monitor = health(&telemetry);
        monitor.record_failure("jdbc:snmp://n/p", Some("jdbc-snmp"), "timed out", 5);
        let a = admin_with(&telemetry, monitor, streams(&telemetry));
        let rs = query(
            &a,
            "SELECT source, state, consecutive_failures, last_failed_driver \
             FROM gridrm_health",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows()[0][1], SqlValue::Str("degraded".into()));
        assert_eq!(rs.rows()[0][2], SqlValue::Int(1));
        assert_eq!(rs.rows()[0][3], SqlValue::Str("jdbc-snmp".into()));
    }

    #[test]
    fn journal_table_serves_entries() {
        use gridrm_telemetry::{JournalSeverity, KIND_PROBE};
        let (t, a) = admin();
        t.journal().record(
            7,
            JournalSeverity::Warning,
            KIND_PROBE,
            "jdbc:snmp://n/p",
            Some("jdbc-snmp"),
            Some("probe"),
            "probe failed",
        );
        let rs = query(
            &a,
            "SELECT seq, severity, kind, driver, message FROM gridrm_journal",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows()[0][1], SqlValue::Str("warning".into()));
        assert_eq!(rs.rows()[0][2], SqlValue::Str("probe".into()));
        assert_eq!(rs.rows()[0][3], SqlValue::Str("jdbc-snmp".into()));
    }

    #[test]
    fn slow_query_table_renders_stage_breakdown() {
        let telemetry = GatewayTelemetry::with_capacities(
            SimClock::new(),
            gridrm_telemetry::TelemetryCapacities {
                slow_query_threshold_ms: 1,
                ..Default::default()
            },
        );
        let clock = telemetry.clock().clone();
        let mut span = telemetry.span("SELECT Load1 FROM Processor");
        span.stage(Stage::Acil);
        clock.advance(40);
        span.stage_with(Stage::DriverExecute, "jdbc-snmp");
        span.finish("ok");
        let a = admin_over(&telemetry);
        let rs = query(
            &a,
            "SELECT duration_ms, outcome, stages FROM gridrm_slow_queries",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows()[0][0], SqlValue::Int(40));
        assert_eq!(rs.rows()[0][1], SqlValue::Str("ok".into()));
        let stages = rs.rows()[0][2].as_str().unwrap();
        assert!(stages.contains("acil@0"), "stages: {stages}");
        assert!(
            stages.contains("driver_execute@40=jdbc-snmp"),
            "stages: {stages}"
        );
    }

    #[test]
    fn spans_table_links_children_to_parents() {
        let (t, a) = admin();
        t.set_identity("siteA", "gw-a");
        let root = t.span("SELECT Load1 FROM Processor");
        let mut child = root.child("driver_execute jdbc-snmp");
        child.stage_with(Stage::DriverExecute, "jdbc-snmp");
        child.finish("ok");
        root.finish("ok");
        let rs = query(
            &a,
            "SELECT trace_id, span_id, parent_span_id, site, stages FROM gridrm_spans",
        )
        .unwrap();
        assert_eq!(rs.len(), 2);
        let (child_row, root_row) = (&rs.rows()[0], &rs.rows()[1]);
        // Both spans share the trace, the child points at the root, and
        // every span is stamped with the gateway's site.
        assert_eq!(child_row[0], root_row[0]);
        assert_eq!(child_row[2], root_row[1]);
        assert!(root_row[2].is_null());
        assert_eq!(root_row[3], SqlValue::Str("siteA".into()));
        assert!(child_row[4]
            .as_str()
            .unwrap()
            .contains("driver_execute@0=jdbc-snmp"));
    }

    #[test]
    fn journal_table_carries_trace_ids() {
        use gridrm_telemetry::{JournalSeverity, KIND_CACHE_SERVE};
        let (t, a) = admin();
        t.journal().record_traced(
            3,
            JournalSeverity::Info,
            KIND_CACHE_SERVE,
            "jdbc:snmp://n/p",
            None,
            None,
            "served",
            Some("gw-a:1"),
        );
        let rs = query(&a, "SELECT trace_id FROM gridrm_journal").unwrap();
        assert_eq!(rs.rows()[0][0], SqlValue::Str("gw-a:1".into()));
    }

    #[test]
    fn history_table_serves_recorded_series() {
        use gridrm_telemetry::PointKind;
        let (t, a) = admin();
        let ts = t.timeseries();
        ts.record_point("gridrm_x_total", "", PointKind::Counter, 0, 1.0);
        ts.record_point("gridrm_x_total", "", PointKind::Counter, 1_000, 5.0);
        ts.record_point("gridrm_load1", "host=\"n1\"", PointKind::Gauge, 500, 0.7);
        let rs = query(
            &a,
            "SELECT ts_ms, value, delta, rate_per_s FROM gridrm_metrics_history \
             WHERE name = 'gridrm_x_total' ORDER BY ts_ms",
        )
        .unwrap();
        assert_eq!(rs.len(), 2);
        assert!(rs.rows()[0][2].is_null(), "oldest point has no delta");
        assert_eq!(rs.rows()[1][2], SqlValue::Float(4.0));
        assert_eq!(rs.rows()[1][3], SqlValue::Float(4.0));
        // Pushdown under OR must not drop the other branch's rows.
        let rs = query(
            &a,
            "SELECT name FROM gridrm_metrics_history \
             WHERE name = 'gridrm_x_total' OR name = 'gridrm_load1'",
        )
        .unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn history_time_bucket_group_by_aggregates() {
        use gridrm_telemetry::PointKind;
        let (t, a) = admin();
        let ts = t.timeseries();
        for i in 0..10u64 {
            ts.record_point("gridrm_load1", "", PointKind::Gauge, i * 250, i as f64);
        }
        let rs = query(
            &a,
            "SELECT TIME_BUCKET(1000, ts_ms) AS bucket, COUNT(*), MIN(value), \
             MAX(value), AVG(value), SUM(value) \
             FROM gridrm_metrics_history WHERE name = 'gridrm_load1' \
             GROUP BY TIME_BUCKET(1000, ts_ms) ORDER BY bucket",
        )
        .unwrap();
        // Points at 0..2250 ms fall into buckets 0, 1000 and 2000.
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.rows()[0][0], SqlValue::Timestamp(0));
        assert_eq!(rs.rows()[0][1], SqlValue::Int(4));
        assert_eq!(rs.rows()[0][2], SqlValue::Float(0.0));
        assert_eq!(rs.rows()[0][3], SqlValue::Float(3.0));
        assert_eq!(rs.rows()[0][4], SqlValue::Float(1.5));
        assert_eq!(rs.rows()[1][5], SqlValue::Float(4.0 + 5.0 + 6.0 + 7.0));
        assert_eq!(rs.rows()[2][1], SqlValue::Int(2));
    }

    #[test]
    fn slo_table_reflects_engine_state() {
        use gridrm_telemetry::{SloObjective, SloSpec};
        let (t, a) = admin();
        t.slo().configure(&[SloSpec::new(
            "availability",
            SloObjective::Availability {
                bad_paths: vec!["denied".into()],
            },
            0.99,
        )]);
        let paths = t.registry().counter(
            "gridrm_request_paths_total",
            "Requests by path",
            Labels::from_pairs(&[("path", "denied")]),
        );
        t.slo().evaluate(0);
        paths.add(10);
        t.slo().evaluate(60_000);
        let rs = query(
            &a,
            "SELECT name, target, firing, burn_slow FROM gridrm_slo WHERE firing",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows()[0][0], SqlValue::Str("availability".into()));
        assert_eq!(rs.rows()[0][1], SqlValue::Float(0.99));
        assert_eq!(rs.rows()[0][2], SqlValue::Bool(true));
        assert!(rs.rows()[0][3].as_f64().unwrap() > 2.0);
    }

    #[test]
    fn subscriptions_table_reflects_live_subscribers() {
        use crate::acil::ClientRequest;
        use crate::stream::SubscribeSpec;
        use gridrm_dbc::{ColumnMeta, ResultSetMetaData};
        let telemetry = GatewayTelemetry::new(SimClock::new());
        let streams = streams(&telemetry);
        let spec = SubscribeSpec {
            request: ClientRequest::builder("SELECT Load1 FROM Processor EVERY 250")
                .sources(&["jdbc:snmp://n1.siteA/public"])
                .build(),
            every_ms: None,
            buffer: None,
            backpressure: Some(BackpressurePolicy::Coalesce),
        };
        let id = streams.subscribe(&spec, 0).unwrap();
        streams.pump(0, |_req| {
            RowSet::new(
                ResultSetMetaData::new(vec![ColumnMeta::new("Load1", SqlType::Float)]),
                vec![vec![SqlValue::Float(0.5)]],
            )
        });
        let a = admin_with(&telemetry, health(&telemetry), streams);
        let rs = query(
            &a,
            "SELECT id, sql, every_ms, policy, pending, emitted FROM gridrm_subscriptions",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows()[0][0], SqlValue::Int(id as i64));
        assert_eq!(
            rs.rows()[0][1],
            SqlValue::Str("SELECT Load1 FROM Processor".into())
        );
        assert_eq!(rs.rows()[0][2], SqlValue::Int(250));
        assert_eq!(rs.rows()[0][3], SqlValue::Str("coalesce".into()));
        assert_eq!(rs.rows()[0][4], SqlValue::Int(1));
        assert_eq!(rs.rows()[0][5], SqlValue::Int(1));
    }

    #[test]
    fn query_costs_table_serves_ledger_entries() {
        use gridrm_telemetry::CostVector;
        let (t, a) = admin();
        t.set_identity("siteA", "gw-a");
        t.costs().set_budget(10, 0);
        let mut span = t.span("SELECT Load1 FROM Processor");
        span.add_cost(&CostVector {
            msgs_out: 2,
            msgs_in: 2,
            bytes_out: 64,
            bytes_in: 256,
            rows_returned: 3,
            ..CostVector::default()
        });
        span.finish("ok");
        let rs = query(
            &a,
            "SELECT trace_id, site, bytes_in, rows_returned, over_budget \
             FROM gridrm_query_costs",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows()[0][1], SqlValue::Str("siteA".into()));
        assert_eq!(rs.rows()[0][2], SqlValue::Int(256));
        assert_eq!(rs.rows()[0][3], SqlValue::Int(3));
        assert_eq!(rs.rows()[0][4], SqlValue::Bool(true));
        // The span tables carry the same inclusive cost.
        let rs = query(&a, "SELECT bytes_in, rows_returned FROM gridrm_spans").unwrap();
        assert_eq!(rs.rows()[0], [SqlValue::Int(256), SqlValue::Int(3)]);
    }

    #[test]
    fn intrusion_table_splits_sites_by_cause() {
        use gridrm_telemetry::{CostVector, IntrusionCause};
        let (t, a) = admin();
        let v = CostVector {
            msgs_out: 4,
            bytes_out: 400,
            ..CostVector::default()
        };
        t.costs().intrude("siteB", IntrusionCause::Query, &v);
        t.costs().intrude("siteB", IntrusionCause::Probe, &v);
        let rs = query(
            &a,
            "SELECT site, cause, msgs, bytes, msgs_per_vsec FROM gridrm_intrusion \
             ORDER BY cause",
        )
        .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows()[0][0], SqlValue::Str("siteB".into()));
        assert_eq!(rs.rows()[0][1], SqlValue::Str("probe".into()));
        assert_eq!(rs.rows()[1][1], SqlValue::Str("query".into()));
        assert_eq!(rs.rows()[1][2], SqlValue::Int(4));
        assert_eq!(rs.rows()[1][3], SqlValue::Int(400));
        // Window floors at one virtual second, so 4 msgs → 4.0/vsec.
        assert_eq!(rs.rows()[1][4], SqlValue::Float(4.0));
    }
}
