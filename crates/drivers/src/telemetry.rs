//! The JDBC-Telemetry driver: the gateway's own observability surfaces
//! exposed as virtual SQL tables, queryable through the normal driver
//! path — the "monitor the monitor" loop.
//!
//! Every table is one entry of [`TABLES`]: its name, its typed columns
//! and the expression each cell is computed from, side by side. The
//! dispatch, the error naming the served tables and the driver
//! description are derived from that list; `docs/observability.md`
//! documents each table for operators and `tests/docs_drift.rs` keeps
//! the two in step.
//!
//! On `gridrm_metrics_history`, equality filters on `name`/`labels` are
//! pushed down to the recorder so a single series is extracted without
//! materialising every ring. The canonical rollup is `TIME_BUCKET` +
//! `GROUP BY`:
//! `SELECT TIME_BUCKET(60000, ts_ms) AS bucket, AVG(value) FROM
//! gridrm_metrics_history WHERE name = '…' GROUP BY
//! TIME_BUCKET(60000, ts_ms) ORDER BY bucket`.
//!
//! URL form: `jdbc:telemetry://local/metrics`.

use crate::base::{pushed_down, DriverEnv, KitDriver, Source, Target};
use gridrm_core::health::HealthMonitor;
use gridrm_core::stream::StreamManager;
use gridrm_dbc::{DbcResult, DriverMetaData, RowSet, SqlError};
use gridrm_glue::SchemaHandle;
use gridrm_sqlparse::ast::{ColumnDef, SelectStatement};
use gridrm_sqlparse::{SqlType, SqlValue};
use gridrm_store::Table;
use gridrm_telemetry::GatewayTelemetry;
use std::sync::Arc;

/// Driver name as registered with the gateway.
pub const DRIVER_NAME: &str = "jdbc-telemetry";

/// The JDBC-Telemetry driver.
pub type TelemetryDriver = KitDriver<Telemetry>;

/// The telemetry [`Source`]: the gateway subsystems the tables read.
pub struct Telemetry {
    telemetry: GatewayTelemetry,
    health: Option<Arc<HealthMonitor>>,
    streams: Option<Arc<StreamManager>>,
}

impl TelemetryDriver {
    /// Create the driver over a gateway's telemetry hub. Without a
    /// health monitor `gridrm_health` is served empty, without a stream
    /// manager `gridrm_subscriptions` is.
    pub fn new(
        env: Arc<DriverEnv>,
        telemetry: GatewayTelemetry,
        health: Option<Arc<HealthMonitor>>,
        streams: Option<Arc<StreamManager>>,
    ) -> Arc<TelemetryDriver> {
        KitDriver::with_source(
            env,
            Telemetry {
                telemetry,
                health,
                streams,
            },
        )
    }
}

/// One virtual table of the telemetry driver.
pub struct VirtualTable {
    /// Table name (`gridrm_*`).
    pub name: &'static str,
    /// Column names and types, in `SELECT *` order.
    pub columns: &'static [(&'static str, SqlType)],
    rows: fn(&Telemetry, &SelectStatement) -> Vec<Vec<SqlValue>>,
}

/// Declare a [`VirtualTable`]: the items one row is made from, then
/// `column: Type = cell` for each column, the cell being anything
/// `Into<SqlValue>` (an `Option` becomes NULL when empty).
macro_rules! virtual_table {
    ($name:literal, |$src:pat_param, $sel:pat_param| $items:expr, |$item:pat_param| {
        $($col:ident: $ty:ident = $cell:expr),* $(,)?
    }) => {
        VirtualTable {
            name: $name,
            columns: &[$((stringify!($col), SqlType::$ty)),*],
            rows: |$src, $sel| {
                $items
                    .into_iter()
                    .map(|$item| vec![$(SqlValue::from($cell)),*])
                    .collect()
            },
        }
    };
}

/// Render a span's stage marks as `stage@offset_ms[=detail]` segments
/// joined with `;`.
fn render_stages(r: &gridrm_telemetry::TraceRecord) -> String {
    r.stages
        .iter()
        .map(|s| {
            let offset = s.at_ms.saturating_sub(r.started_ms);
            match &s.detail {
                Some(d) => format!("{}@{offset}={d}", s.stage),
                None => format!("{}@{offset}", s.stage),
            }
        })
        .collect::<Vec<_>>()
        .join(";")
}

fn with_stages(r: gridrm_telemetry::TraceRecord) -> (gridrm_telemetry::TraceRecord, String) {
    let stages = render_stages(&r);
    (r, stages)
}

/// Every table the driver serves.
pub static TABLES: &[VirtualTable] = &[
    // One row per flattened registry sample, histogram buckets included.
    virtual_table!(
        "gridrm_telemetry",
        |t, _| t.telemetry.registry().snapshot().into_iter().flat_map(|family| {
            let kind = family.kind;
            family.samples.into_iter().map(move |s| (kind.clone(), s))
        }),
        |(kind, s)| {
            name: Str = s.name,
            kind: Str = kind,
            labels: Str = s.labels,
            value: Float = s.value,
        }
    ),
    // One row per tracked data source, straight from the health monitor's
    // state machine. Served empty when no monitor is attached.
    virtual_table!(
        "gridrm_health",
        |t, _| t.health.as_ref().map(|h| h.snapshot()).unwrap_or_default(),
        |s| {
            source: Str = s.source,
            state: Str = s.state.name(),
            consecutive_failures: Int = s.consecutive_failures as u64,
            consecutive_successes: Int = s.consecutive_successes as u64,
            last_ok_ms: Int = s.last_ok_ms,
            last_error: Str = s.last_error,
            last_probe_ms: Int = s.last_probe_ms,
            last_failed_driver: Str = s.last_failed_driver,
            transitions: Int = s.transitions,
            last_transition_ms: Int = s.last_transition_ms,
        }
    ),
    // One row per structured journal entry, oldest first; `trace_id` is
    // NULL for untraced events.
    virtual_table!(
        "gridrm_journal",
        |t, _| t.telemetry.journal().recent(),
        |e| {
            seq: Int = e.seq,
            at_ms: Int = e.at_ms,
            severity: Str = e.severity.name(),
            kind: Str = e.kind,
            source: Str = e.source,
            driver: Str = e.driver,
            stage: Str = e.stage,
            message: Str = e.message,
            trace_id: Str = e.trace_id,
        }
    ),
    // One row per slow-query log entry, slowest first, with the
    // per-stage breakdown rendered by `render_stages`.
    virtual_table!(
        "gridrm_slow_queries",
        |t, _| t.telemetry.slow_queries().top().into_iter().map(with_stages),
        |(r, stages)| {
            id: Int = r.id,
            trace_id: Str = r.trace_id,
            request: Str = r.request,
            source: Str = r.source,
            started_ms: Int = r.started_ms,
            finished_ms: Int = r.finished_ms,
            duration_ms: Int = r.finished_ms.saturating_sub(r.started_ms),
            outcome: Str = r.outcome,
            stages: Str = stages,
        }
    ),
    // One row per span in the trace ring buffer, oldest first. Rows for
    // one `trace_id` reconstruct the tree `EXPLAIN ANALYZE` renders:
    // every non-NULL `parent_span_id` names another `span_id` in the
    // trace.
    virtual_table!(
        "gridrm_spans",
        |t, _| t.telemetry.traces().recent().into_iter().map(with_stages),
        |(r, stages)| {
            trace_id: Str = r.trace_id,
            span_id: Str = r.span_id,
            parent_span_id: Str = r.parent_span_id,
            site: Str = r.site,
            id: Int = r.id,
            request: Str = r.request,
            source: Str = r.source,
            started_ms: Int = r.started_ms,
            finished_ms: Int = r.finished_ms,
            duration_ms: Int = r.finished_ms.saturating_sub(r.started_ms),
            outcome: Str = r.outcome,
            stages: Str = stages,
        }
    ),
    // One row per recorded time-series sample, ordered by series then
    // time; histograms expand to `_count`/`_sum`/`_p50`/`_p95`/`_p99`
    // series, `delta`/`rate_per_s` are NULL for gauges and first samples.
    virtual_table!(
        "gridrm_metrics_history",
        |t, sel| t
            .telemetry
            .timeseries()
            .history_for(pushed_down(sel, "name"), pushed_down(sel, "labels")),
        |r| {
            ts_ms: Timestamp = SqlValue::Timestamp(r.ts_ms as i64),
            name: Str = r.name,
            labels: Str = r.labels,
            kind: Str = r.kind,
            value: Float = r.value,
            delta: Float = r.delta,
            rate_per_s: Float = r.rate_per_s,
        }
    ),
    // One row per declared SLO, straight from the burn-rate engine.
    virtual_table!(
        "gridrm_slo",
        |t, _| t.telemetry.slo().snapshot(),
        |s| {
            name: Str = s.name,
            objective: Str = s.objective,
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
    // Served empty when no stream manager is attached.
    virtual_table!(
        "gridrm_subscriptions",
        |t, _| t.streams.as_ref().map(|s| s.snapshot()).unwrap_or_default(),
        |s| {
            id: Int = s.id,
            origin: Str = s.origin,
            sql: Str = s.sql,
            sources: Int = s.sources as u64,
            every_ms: Int = s.every_ms,
            policy: Str = s.policy,
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
        |t, _| t.telemetry.costs().entries(),
        |e| {
            trace_id: Str = e.trace_id,
            site: Str = e.site,
            request: Str = e.request,
            started_ms: Int = e.started_ms,
            finished_ms: Int = e.finished_ms,
            duration_ms: Int = e.finished_ms.saturating_sub(e.started_ms),
            msgs_out: Int = e.cost.msgs_out,
            msgs_in: Int = e.cost.msgs_in,
            bytes_out: Int = e.cost.bytes_out,
            bytes_in: Int = e.cost.bytes_in,
            rows_scanned: Int = e.cost.rows_scanned,
            rows_returned: Int = e.cost.rows_returned,
            fetch_units: Int = e.cost.fetch_units,
            over_budget: Bool = e.over_budget,
        }
    ),
    // One row per (site, cause) intrusion bucket, ordered by site then
    // cause, with rates over each bucket's virtual observation window.
    virtual_table!(
        "gridrm_intrusion",
        |t, _| t.telemetry.costs().intrusion_snapshot(),
        |r| {
            site: Str = r.site,
            cause: Str = r.cause,
            msgs: Int = r.bucket.msgs,
            bytes: Int = r.bucket.bytes,
            window_ms: Int = r.bucket.window_ms(),
            msgs_per_vsec: Float = r.bucket.msgs_per_vsec(),
            bytes_per_vsec: Float = r.bucket.bytes_per_vsec(),
        }
    ),
];

/// The served table names as prose: `a, b, … and z`.
fn served_tables() -> String {
    let names: Vec<&str> = TABLES.iter().map(|t| t.name).collect();
    match names.split_last() {
        Some((last, rest)) if !rest.is_empty() => format!("{} and {last}", rest.join(", ")),
        _ => names.concat(),
    }
}

impl Source for Telemetry {
    fn meta(&self) -> DriverMetaData {
        DriverMetaData {
            name: DRIVER_NAME.to_owned(),
            subprotocol: "telemetry".to_owned(),
            version: (1, 0),
            description: format!(
                "Virtual SQL tables over the gateway's own state: {}",
                served_tables()
            ),
        }
    }

    /// Nothing to reach: the tables live in this process. They are
    /// addressed by their own URL only, never by a wildcard scan.
    fn probe(&self, at: &Target<'_>) -> DbcResult<()> {
        if at.url.is_wildcard() {
            return Err(SqlError::Unsupported(
                "the telemetry tables are not a wildcard target".into(),
            ));
        }
        Ok(())
    }

    fn query(
        &self,
        _at: &Target<'_>,
        _schema: &mut SchemaHandle,
        sel: &SelectStatement,
    ) -> DbcResult<RowSet> {
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
        let table = Table {
            name: decl.name.to_owned(),
            columns: decl
                .columns
                .iter()
                .map(|(name, ty)| ColumnDef {
                    name: (*name).to_owned(),
                    ty: *ty,
                    primary_key: false,
                })
                .collect(),
            rows: (decl.rows)(self, sel),
        };
        let now = self.telemetry.clock().now_ts();
        gridrm_store::select_in_memory(&table, sel, now)
            .map_err(|e| SqlError::Driver(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::DriverEnv;
    use gridrm_dbc::RowSet;
    use gridrm_dbc::{Driver, JdbcUrl, Properties};
    use gridrm_simnet::SimClock;
    use gridrm_telemetry::Labels;
    use std::sync::Arc;

    fn driver_over(
        telemetry: GatewayTelemetry,
        health: Option<Arc<HealthMonitor>>,
        streams: Option<Arc<StreamManager>>,
    ) -> Arc<TelemetryDriver> {
        let net = gridrm_simnet::Network::new(telemetry.clock().clone(), 1);
        let schema = Arc::new(gridrm_glue::SchemaManager::new());
        let env = DriverEnv::new(net, schema, "gw");
        TelemetryDriver::new(env, telemetry, health, streams)
    }

    fn driver() -> (GatewayTelemetry, Arc<TelemetryDriver>) {
        let telemetry = GatewayTelemetry::new(SimClock::new());
        let d = driver_over(telemetry.clone(), None, None);
        (telemetry, d)
    }

    fn query(d: &TelemetryDriver, sql: &str) -> DbcResult<RowSet> {
        let url = JdbcUrl::parse("jdbc:telemetry://local/metrics").unwrap();
        let mut conn = d.connect(&url, &Properties::new())?;
        let mut stmt = conn.create_statement()?;
        let mut rs = stmt.execute_query(sql)?;
        RowSet::materialize(rs.as_mut())
    }

    #[test]
    fn counters_appear_as_rows() {
        let (t, d) = driver();
        t.registry()
            .counter("gridrm_cache_hits_total", "hits", Labels::none())
            .add(5);
        let rs = query(
            &d,
            "SELECT value FROM gridrm_telemetry WHERE name = 'gridrm_cache_hits_total'",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows()[0][0].as_f64().unwrap(), 5.0);
    }

    #[test]
    fn like_filter_over_names() {
        let (t, d) = driver();
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
            &d,
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
        let (t, d) = driver();
        let h = t.registry().histogram(
            "gridrm_driver_latency_ms",
            "latency",
            Labels::from_pairs(&[("driver", "jdbc-snmp")]),
            &[1.0, 10.0],
        );
        h.observe(3.0);
        // 2 finite buckets + +Inf + _sum + _count = 5 rows.
        let rs = query(
            &d,
            "SELECT name FROM gridrm_telemetry WHERE name LIKE 'gridrm_driver_latency_ms%'",
        )
        .unwrap();
        assert_eq!(rs.len(), 5);
    }

    #[test]
    fn health_table_reflects_monitor_state() {
        use gridrm_core::health::HealthConfig;
        let telemetry = GatewayTelemetry::new(SimClock::new());
        let monitor = Arc::new(HealthMonitor::new(
            HealthConfig::default(),
            telemetry.journal().clone(),
        ));
        monitor.record_failure("jdbc:snmp://n/p", Some("jdbc-snmp"), "timed out", 5);
        let d = driver_over(telemetry, Some(monitor), None);
        let rs = query(
            &d,
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
    fn health_table_empty_without_monitor() {
        let (_t, d) = driver();
        let rs = query(&d, "SELECT * FROM gridrm_health").unwrap();
        assert_eq!(rs.len(), 0);
    }

    #[test]
    fn journal_table_serves_entries() {
        use gridrm_telemetry::{JournalSeverity, KIND_PROBE};
        let (t, d) = driver();
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
            &d,
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
        span.stage("acil");
        clock.advance(40);
        span.stage_with("driver_execute", "jdbc-snmp");
        span.finish("ok");
        let d = driver_over(telemetry, None, None);
        let rs = query(
            &d,
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
        let (t, d) = driver();
        t.set_identity("siteA", "gw-a");
        let root = t.span("SELECT Load1 FROM Processor");
        let mut child = root.child("driver_execute jdbc-snmp");
        child.stage_with("driver_execute", "jdbc-snmp");
        child.finish("ok");
        root.finish("ok");
        let rs = query(
            &d,
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
        let (t, d) = driver();
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
        let rs = query(&d, "SELECT trace_id FROM gridrm_journal").unwrap();
        assert_eq!(rs.rows()[0][0], SqlValue::Str("gw-a:1".into()));
    }

    #[test]
    fn history_table_serves_recorded_series() {
        use gridrm_telemetry::PointKind;
        let (t, d) = driver();
        let ts = t.timeseries();
        ts.record_point("gridrm_x_total", "", PointKind::Counter, 0, 1.0);
        ts.record_point("gridrm_x_total", "", PointKind::Counter, 1_000, 5.0);
        ts.record_point("gridrm_load1", "host=\"n1\"", PointKind::Gauge, 500, 0.7);
        let rs = query(
            &d,
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
            &d,
            "SELECT name FROM gridrm_metrics_history \
             WHERE name = 'gridrm_x_total' OR name = 'gridrm_load1'",
        )
        .unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn history_time_bucket_group_by_aggregates() {
        use gridrm_telemetry::PointKind;
        let (t, d) = driver();
        let ts = t.timeseries();
        for i in 0..10u64 {
            ts.record_point("gridrm_load1", "", PointKind::Gauge, i * 250, i as f64);
        }
        let rs = query(
            &d,
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
        let (t, d) = driver();
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
            &d,
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
        use gridrm_core::acil::ClientRequest;
        use gridrm_core::stream::{BackpressurePolicy, StreamSettings, SubscribeSpec};
        use gridrm_dbc::{ColumnMeta, ResultSetMetaData};
        let telemetry = GatewayTelemetry::new(SimClock::new());
        let streams = Arc::new(StreamManager::new(
            StreamSettings {
                buffer_capacity: 4,
                backpressure: BackpressurePolicy::DropOldest,
                min_every_ms: 1,
                max_subscribers: 0,
            },
            "local:test".to_owned(),
            None,
        ));
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
        let d = driver_over(telemetry, None, Some(streams));
        let rs = query(
            &d,
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
    fn subscriptions_table_empty_without_manager() {
        let (_t, d) = driver();
        let rs = query(&d, "SELECT * FROM gridrm_subscriptions").unwrap();
        assert_eq!(rs.len(), 0);
    }

    #[test]
    fn query_costs_table_serves_ledger_entries() {
        use gridrm_telemetry::CostVector;
        let (t, d) = driver();
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
            &d,
            "SELECT trace_id, site, bytes_in, rows_returned, over_budget \
             FROM gridrm_query_costs",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows()[0][1], SqlValue::Str("siteA".into()));
        assert_eq!(rs.rows()[0][2], SqlValue::Int(256));
        assert_eq!(rs.rows()[0][3], SqlValue::Int(3));
        assert_eq!(rs.rows()[0][4], SqlValue::Bool(true));
    }

    #[test]
    fn intrusion_table_splits_sites_by_cause() {
        use gridrm_telemetry::{CostVector, IntrusionCause};
        let (t, d) = driver();
        let v = CostVector {
            msgs_out: 4,
            bytes_out: 400,
            ..CostVector::default()
        };
        t.costs().intrude("siteB", IntrusionCause::Query, &v);
        t.costs().intrude("siteB", IntrusionCause::Probe, &v);
        let rs = query(
            &d,
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

    #[test]
    fn accepts_only_telemetry_urls() {
        let (_t, d) = driver();
        assert!(d.accepts_url(&JdbcUrl::parse("jdbc:telemetry://local/metrics").unwrap()));
        assert!(!d.accepts_url(&JdbcUrl::parse("jdbc:snmp://node/public").unwrap()));
    }
}
