//! Historical data (paper §3.1.1): "the RequestManager uses the
//! ConnectionManager to execute real-time queries, while historical data
//! is retrieved from the Gateway's internal database". Harvested rows are
//! recorded in narrow form (one row per attribute value) so that clients
//! can ask arbitrary SQL questions about any attribute's history, and
//! events are recorded "for historical analysis" (§3.1.5).
//!
//! When history is written: a harvest is queued at request time, one
//! push onto the store's pending list holding the answer the cache
//! already shares. Its narrow rows are built at the next
//! `Gateway::pump` or the next access to the store (a history query,
//! the jdbc-gridrm mount, retention), whichever comes first, with the
//! same rows and `at` stamps. A harvest whose `history` table a client
//! dropped or reshaped through the writable mount is dropped, and a
//! `history_drop` journal entry names its source and sample count.

use crate::events::GridRMEvent;
use gridrm_dbc::{DbcResult, ResultSet, RowSet, SqlError};
use gridrm_simnet::SimClock;
use gridrm_sqlparse::ast::{ColumnDef, SelectStatement};
use gridrm_sqlparse::{SqlType, SqlValue};
use gridrm_store::{Database, Store, StoreError, Table};
use gridrm_telemetry::{GatewayTelemetry, Journal, JournalSeverity, KIND_HISTORY_DROP};
use std::sync::Arc;

/// Table holding harvested metric samples.
pub const HISTORY_TABLE: &str = "history";
/// Table holding dispatched events.
pub const EVENTS_TABLE: &str = "events";
/// Where the jdbc-gridrm driver mounts this store.
const HISTORY_URL: &str = "jdbc:gridrm://local/history";

/// `history`'s columns: a harvest is only ever written into a table of
/// exactly this shape.
const HISTORY_COLUMNS: [(&str, SqlType); 7] = [
    ("at", SqlType::Timestamp),
    ("source", SqlType::Str),
    ("grp", SqlType::Str),
    ("hostname", SqlType::Str),
    ("attr", SqlType::Str),
    ("num", SqlType::Float),
    ("text", SqlType::Str),
];

const EVENTS_COLUMNS: [(&str, SqlType); 8] = [
    ("at", SqlType::Timestamp),
    ("id", SqlType::Int),
    ("source", SqlType::Str),
    ("hostname", SqlType::Str),
    ("severity", SqlType::Str),
    ("category", SqlType::Str),
    ("message", SqlType::Str),
    ("value", SqlType::Float),
];

/// The gateway's historical store facade.
#[derive(Clone)]
pub struct HistoryManager {
    store: Store,
    /// Where a harvest that cannot be written is reported, and when.
    journal: Arc<Journal>,
    clock: Arc<SimClock>,
}

impl HistoryManager {
    /// Create the manager and its schema inside `store`; harvests that
    /// cannot be written are journalled in `telemetry`.
    pub fn new(store: Store, telemetry: &GatewayTelemetry) -> Result<HistoryManager, StoreError> {
        let mk = |name: &str, cols: &[(&str, SqlType)]| {
            Table::new(
                name,
                cols.iter()
                    .map(|(n, t)| ColumnDef {
                        name: (*n).to_owned(),
                        ty: *t,
                        primary_key: false,
                    })
                    .collect(),
            )
        };
        store.with(|db| {
            if !db.has_table(HISTORY_TABLE) {
                db.create_table(mk(HISTORY_TABLE, &HISTORY_COLUMNS));
            }
            if !db.has_table(EVENTS_TABLE) {
                db.create_table(mk(EVENTS_TABLE, &EVENTS_COLUMNS));
            }
        });
        Ok(HistoryManager {
            store,
            journal: Arc::clone(telemetry.journal()),
            clock: Arc::clone(telemetry.clock()),
        })
    }

    /// The underlying store (mounted for the JDBC-GridRM driver).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Queue a harvested result set for `history`: one narrow row per
    /// non-NULL cell, keyed by the row's `Hostname`/`SourceHost` when
    /// present, built when the store is next accessed (see the module
    /// doc).
    pub fn record_rows(&self, source: &str, group: &str, rows: Arc<RowSet>, at_ms: i64) {
        let (source, group) = (source.to_owned(), group.to_owned());
        let (journal, clock) = (Arc::clone(&self.journal), Arc::clone(&self.clock));
        self.store.defer(move |db| {
            if let Err(e) = expand(db, &source, &group, &rows, at_ms) {
                journal.record(
                    clock.now_millis(),
                    JournalSeverity::Warning,
                    KIND_HISTORY_DROP,
                    &source,
                    None,
                    None,
                    &format!("dropped a harvest of {} samples: {e}", samples(&rows)),
                );
            }
        });
    }

    /// Build the narrow rows of every queued harvest now.
    pub fn flush(&self) {
        self.store.with(|_| ());
    }

    /// Record a dispatched event.
    pub fn record_event(&self, e: &GridRMEvent) -> Result<(), StoreError> {
        self.store.with(|db| {
            db.table_mut(EVENTS_TABLE)?.insert(
                &[],
                vec![
                    SqlValue::Timestamp(e.at_ms),
                    SqlValue::Int(e.id as i64),
                    SqlValue::Str(e.source.clone()),
                    SqlValue::from(e.hostname.clone()),
                    SqlValue::Str(e.severity.name().to_owned()),
                    SqlValue::Str(e.category.clone()),
                    SqlValue::Str(e.message.clone()),
                    SqlValue::from(e.value),
                ],
            )
        })
    }

    /// Run a historical query (the §3.1.1 path) over only the rows
    /// `allow(url, group)` admits; see `security`'s module doc for how
    /// a row names its URL and group.
    pub fn query(
        &self,
        sel: &SelectStatement,
        now_ms: i64,
        allow: impl Fn(&str, &str) -> bool,
    ) -> DbcResult<RowSet> {
        self.store
            .with(|db| db.select_where(sel, now_ms, |table| readable(table, &sel.table, allow)))
            .map_err(|e| SqlError::Driver(e.to_string()))
    }

    /// Apply retention: drop samples and events older than `cutoff_ms`.
    /// Returns `(samples_dropped, events_dropped)`.
    pub fn retain_since(&self, cutoff_ms: i64) -> Result<(usize, usize), StoreError> {
        let a = self.store.retain_since(HISTORY_TABLE, "at", cutoff_ms)?;
        let b = self.store.retain_since(EVENTS_TABLE, "at", cutoff_ms)?;
        Ok((a, b))
    }

    /// Convenience: the time series of one numeric attribute for one host,
    /// oldest first, as `(at_ms, value)` pairs. Feeds the admin tree
    /// view's "click icon to plot historical/current values" (Fig 9).
    pub fn series(
        &self,
        source: &str,
        group: &str,
        hostname: &str,
        attr: &str,
    ) -> DbcResult<Vec<(i64, f64)>> {
        let sql = format!(
            "SELECT at, num FROM {HISTORY_TABLE} WHERE source = '{}' AND grp = '{}' \
             AND hostname = '{}' AND attr = '{}' AND num IS NOT NULL ORDER BY at",
            source.replace('\'', "''"),
            group.replace('\'', "''"),
            hostname.replace('\'', "''"),
            attr.replace('\'', "''"),
        );
        let mut rs = self
            .store
            .query(&sql, 0)
            .map_err(|e| SqlError::Driver(e.to_string()))?;
        let mut out = Vec::with_capacity(rs.len());
        while rs.advance()? {
            out.push((rs.get_timestamp(0)?, rs.get_f64(1)?));
        }
        Ok(out)
    }
}

/// The rows of `table` (named `named` by the query) that `allow`
/// admits: a `history` row as its `(source, grp)`, an `events` row as
/// `(source, "events")`, any other table (or one reshaped without those
/// columns) as a whole, as the mount at [`HISTORY_URL`] would check it.
fn readable(
    table: &Table,
    named: &str,
    allow: impl Fn(&str, &str) -> bool,
) -> impl Fn(&[SqlValue]) -> bool {
    let is = |name: &str| table.name.eq_ignore_ascii_case(name);
    let source = table.column_index("source");
    let columns = match (source, table.column_index("grp")) {
        (Some(source), Some(grp)) if is(HISTORY_TABLE) => Some((source, Some(grp))),
        (Some(source), _) if is(EVENTS_TABLE) => Some((source, None)),
        _ => None,
    };
    let whole = columns.is_none() && allow(HISTORY_URL, named);
    move |row: &[SqlValue]| {
        let text = |i: usize| row.get(i).and_then(SqlValue::as_str).unwrap_or("");
        match columns {
            Some((source, grp)) => allow(text(source), grp.map_or(EVENTS_TABLE, text)),
            None => whole,
        }
    }
}

/// Write one queued harvest into `history`: one shape check, one
/// `reserve`, then the narrow rows pushed straight into the table's
/// storage (already typed as the columns require, so nothing to coerce).
fn expand(
    db: &mut Database,
    source: &str,
    group: &str,
    rows: &RowSet,
    at_ms: i64,
) -> Result<(), StoreError> {
    let table = db.table_mut(HISTORY_TABLE)?;
    let shaped = table.columns.len() == HISTORY_COLUMNS.len()
        && table
            .columns
            .iter()
            .zip(HISTORY_COLUMNS)
            .all(|(c, (name, ty))| {
                c.name.eq_ignore_ascii_case(name) && c.ty == ty && !c.primary_key
            });
    if !shaped {
        return Err(StoreError::Query(format!(
            "table '{HISTORY_TABLE}' no longer has the history columns"
        )));
    }
    let columns = rows.meta().columns();
    let host_idx = ["Hostname", "SourceHost"].iter().find_map(|key| {
        columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(key))
    });
    table.rows.reserve(samples(rows));
    for row in rows.rows() {
        // Without a key column the key is ''; a NULL key stays NULL, not
        // the text 'NULL'.
        let hostname = match host_idx.and_then(|i| row.get(i)) {
            None => SqlValue::Str(String::new()),
            Some(SqlValue::Null) => SqlValue::Null,
            Some(v) => SqlValue::Str(v.to_string()),
        };
        for (value, column) in row.iter().zip(columns) {
            if value.is_null() {
                continue;
            }
            let (num, text) = match value.as_f64() {
                Some(x) => (SqlValue::Float(x), SqlValue::Null),
                None => (SqlValue::Null, SqlValue::Str(value.to_string())),
            };
            table.rows.push(vec![
                SqlValue::Timestamp(at_ms),
                SqlValue::Str(source.to_owned()),
                SqlValue::Str(group.to_owned()),
                hostname.clone(),
                SqlValue::Str(column.name.clone()),
                num,
                text,
            ]);
        }
    }
    Ok(())
}

/// The narrow rows a harvest expands to: its non-NULL cells.
fn samples(rows: &RowSet) -> usize {
    rows.rows()
        .iter()
        .flatten()
        .filter(|v| !v.is_null())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Severity;
    use gridrm_dbc::{ColumnMeta, ResultSetMetaData};

    fn history() -> HistoryManager {
        HistoryManager::new(Store::new(), &GatewayTelemetry::new(SimClock::new())).unwrap()
    }

    fn sample_rows() -> Arc<RowSet> {
        Arc::new(
            RowSet::new(
                ResultSetMetaData::new(vec![
                    ColumnMeta::new("Hostname", SqlType::Str),
                    ColumnMeta::new("Load1", SqlType::Float),
                    ColumnMeta::new("Model", SqlType::Str),
                    ColumnMeta::new("Missing", SqlType::Float),
                ]),
                vec![
                    vec![
                        SqlValue::Str("node01".into()),
                        SqlValue::Float(0.5),
                        SqlValue::Str("Xeon".into()),
                        SqlValue::Null,
                    ],
                    vec![
                        SqlValue::Str("node02".into()),
                        SqlValue::Float(1.5),
                        SqlValue::Str("Xeon".into()),
                        SqlValue::Null,
                    ],
                ],
            )
            .unwrap(),
        )
    }

    fn count(h: &HistoryManager, sql: &str) -> SqlValue {
        h.store().query(sql, 0).unwrap().rows()[0][0].clone()
    }

    #[test]
    fn record_and_query_rows() {
        let h = history();
        h.record_rows(
            "jdbc:snmp://node01/public",
            "Processor",
            sample_rows(),
            1000,
        );
        // 3 non-null values per row × 2 rows.
        assert_eq!(count(&h, "SELECT COUNT(*) FROM history"), SqlValue::Int(6));
        assert_eq!(
            count(
                &h,
                "SELECT COUNT(*) FROM history WHERE attr = 'Load1' AND num > 1.0"
            ),
            SqlValue::Int(1)
        );
    }

    #[test]
    fn series_extraction() {
        let h = history();
        for t in 0..5 {
            h.record_rows("src", "Processor", sample_rows(), t * 1000);
        }
        let series = h.series("src", "Processor", "node02", "Load1").unwrap();
        assert_eq!(series.len(), 5);
        assert_eq!(series[0].0, 0);
        assert_eq!(series[4], (4000, 1.5));
        assert!(h
            .series("src", "Processor", "ghost", "Load1")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn record_and_query_events() {
        let h = history();
        h.record_event(&GridRMEvent {
            id: 7,
            at_ms: 500,
            source: "node0:snmp".into(),
            hostname: Some("node0".into()),
            severity: Severity::Critical,
            category: "cpu.load".into(),
            message: "load high".into(),
            value: Some(7.5),
        })
        .unwrap();
        let rs = h
            .store()
            .query(
                "SELECT severity, value FROM events WHERE category = 'cpu.load'",
                0,
            )
            .unwrap();
        assert_eq!(rs.rows()[0][0], SqlValue::Str("critical".into()));
        assert_eq!(rs.rows()[0][1], SqlValue::Float(7.5));
    }

    #[test]
    fn retention() {
        let h = history();
        for t in [0i64, 10_000, 20_000] {
            h.record_rows("s", "g", sample_rows(), t);
        }
        let (dropped, _) = h.retain_since(10_000).unwrap();
        assert_eq!(dropped, 6);
        assert_eq!(count(&h, "SELECT COUNT(*) FROM history"), SqlValue::Int(12));
    }

    #[test]
    fn text_values_stored_in_text_column() {
        let h = history();
        h.record_rows("s", "Processor", sample_rows(), 0);
        let rs = h
            .store()
            .query("SELECT text FROM history WHERE attr = 'Model' LIMIT 1", 0)
            .unwrap();
        assert_eq!(rs.rows()[0][0], SqlValue::Str("Xeon".into()));
    }

    #[test]
    fn a_reshaped_history_table_drops_the_harvest_into_the_journal() {
        let telemetry = GatewayTelemetry::new(SimClock::new());
        let h = HistoryManager::new(Store::new(), &telemetry).unwrap();
        h.record_rows("src", "Processor", sample_rows(), 0);
        h.store()
            .execute_sql("DROP TABLE history", 0)
            .and_then(|_| {
                h.store()
                    .execute_sql("CREATE TABLE history (at TIMESTAMP)", 0)
            })
            .unwrap();
        // The first harvest was written before the DROP; this one meets
        // the one-column table.
        h.record_rows("src", "Processor", sample_rows(), 0);
        h.flush();
        assert_eq!(count(&h, "SELECT COUNT(*) FROM history"), SqlValue::Int(0));
        let dropped = telemetry.journal().recent_of_kind(KIND_HISTORY_DROP);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].severity, JournalSeverity::Warning);
        assert_eq!(dropped[0].source, "src");
        assert!(dropped[0].message.contains("6 samples"), "{dropped:?}");
    }

    #[test]
    fn idempotent_schema_creation() {
        let store = Store::new();
        let telemetry = GatewayTelemetry::new(SimClock::new());
        let _a = HistoryManager::new(store.clone(), &telemetry).unwrap();
        let _b = HistoryManager::new(store, &telemetry).unwrap(); // must not fail
    }
}
