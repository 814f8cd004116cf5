//! Historical data (paper §3.1.1): "the RequestManager uses the
//! ConnectionManager to execute real-time queries, while historical data
//! is retrieved from the Gateway's internal database". Harvested rows are
//! recorded in narrow form (one row per attribute value) so that clients
//! can ask arbitrary SQL questions about any attribute's history, and
//! events are recorded "for historical analysis" (§3.1.5).

use crate::events::GridRMEvent;
use gridrm_dbc::{DbcResult, ResultSet, RowSet, SqlError};
use gridrm_sqlparse::ast::ColumnDef;
use gridrm_sqlparse::{SqlType, SqlValue, Statement};
use gridrm_store::{ExecOutcome, Store, StoreError, Table};

/// Table holding harvested metric samples.
pub const HISTORY_TABLE: &str = "history";
/// Table holding dispatched events.
pub const EVENTS_TABLE: &str = "events";

/// The gateway's historical store facade.
#[derive(Clone)]
pub struct HistoryManager {
    store: Store,
}

impl HistoryManager {
    /// Create the manager and its schema inside `store`.
    pub fn new(store: Store) -> Result<HistoryManager, StoreError> {
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
                db.create_table(mk(
                    HISTORY_TABLE,
                    &[
                        ("at", SqlType::Timestamp),
                        ("source", SqlType::Str),
                        ("grp", SqlType::Str),
                        ("hostname", SqlType::Str),
                        ("attr", SqlType::Str),
                        ("num", SqlType::Float),
                        ("text", SqlType::Str),
                    ],
                ));
            }
            if !db.has_table(EVENTS_TABLE) {
                db.create_table(mk(
                    EVENTS_TABLE,
                    &[
                        ("at", SqlType::Timestamp),
                        ("id", SqlType::Int),
                        ("source", SqlType::Str),
                        ("hostname", SqlType::Str),
                        ("severity", SqlType::Str),
                        ("category", SqlType::Str),
                        ("message", SqlType::Str),
                        ("value", SqlType::Float),
                    ],
                ));
            }
        });
        Ok(HistoryManager { store })
    }

    /// The underlying store (mounted for the JDBC-GridRM driver).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Record a harvested result set: one narrow row per (row, column)
    /// pair, keyed by the row's `Hostname`/`SourceHost` when present.
    /// Returns the number of samples recorded.
    pub fn record_rows(
        &self,
        source: &str,
        group: &str,
        rows: &RowSet,
        at_ms: i64,
    ) -> Result<usize, StoreError> {
        let meta = rows.meta().clone();
        let host_idx = meta
            .column_index("Hostname")
            .or_else(|_| meta.column_index("SourceHost"))
            .ok();
        let mut inserted = 0usize;
        self.store.with(|db| -> Result<(), StoreError> {
            let table = db.table_mut(HISTORY_TABLE)?;
            for row in rows.rows() {
                let hostname = host_idx
                    .and_then(|i| row.get(i))
                    .map(|v| v.to_string())
                    .unwrap_or_default();
                for (i, value) in row.iter().enumerate() {
                    if value.is_null() {
                        continue;
                    }
                    let attr = meta.column_name(i).unwrap_or("?").to_owned();
                    let (num, text) = match value.as_f64() {
                        Some(x) => (SqlValue::Float(x), SqlValue::Null),
                        None => (SqlValue::Null, SqlValue::Str(value.to_string())),
                    };
                    table.insert(
                        &[],
                        vec![
                            SqlValue::Timestamp(at_ms),
                            SqlValue::Str(source.to_owned()),
                            SqlValue::Str(group.to_owned()),
                            SqlValue::Str(hostname.clone()),
                            SqlValue::Str(attr),
                            num,
                            text,
                        ],
                    )?;
                    inserted += 1;
                }
            }
            Ok(())
        })?;
        Ok(inserted)
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

    /// Run a historical query (the §3.1.1 path) from the statement the
    /// request already carries.
    pub fn query(&self, statement: &Statement, now_ms: i64) -> DbcResult<RowSet> {
        match self.store.with(|db| db.execute(statement, now_ms)) {
            Ok(ExecOutcome::Rows(rows)) => Ok(rows),
            Ok(_) => Err(SqlError::Driver("statement did not produce rows".into())),
            Err(e) => Err(SqlError::Driver(e.to_string())),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Severity;
    use gridrm_dbc::{ColumnMeta, ResultSetMetaData};

    fn history() -> HistoryManager {
        HistoryManager::new(Store::new()).unwrap()
    }

    fn sample_rows() -> RowSet {
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
        .unwrap()
    }

    #[test]
    fn record_and_query_rows() {
        let h = history();
        let n = h
            .record_rows(
                "jdbc:snmp://node01/public",
                "Processor",
                &sample_rows(),
                1000,
            )
            .unwrap();
        // 3 non-null values per row × 2 rows.
        assert_eq!(n, 6);
        let rs = h
            .store()
            .query(
                "SELECT COUNT(*) FROM history WHERE attr = 'Load1' AND num > 1.0",
                0,
            )
            .unwrap();
        assert_eq!(rs.rows()[0][0], SqlValue::Int(1));
    }

    #[test]
    fn series_extraction() {
        let h = history();
        for t in 0..5 {
            h.record_rows("src", "Processor", &sample_rows(), t * 1000)
                .unwrap();
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
            h.record_rows("s", "g", &sample_rows(), t).unwrap();
        }
        let (dropped, _) = h.retain_since(10_000).unwrap();
        assert_eq!(dropped, 6);
        let rs = h.store().query("SELECT COUNT(*) FROM history", 0).unwrap();
        assert_eq!(rs.rows()[0][0], SqlValue::Int(12));
    }

    #[test]
    fn text_values_stored_in_text_column() {
        let h = history();
        h.record_rows("s", "Processor", &sample_rows(), 0).unwrap();
        let rs = h
            .store()
            .query("SELECT text FROM history WHERE attr = 'Model' LIMIT 1", 0)
            .unwrap();
        assert_eq!(rs.rows()[0][0], SqlValue::Str("Xeon".into()));
    }

    #[test]
    fn idempotent_schema_creation() {
        let store = Store::new();
        let _a = HistoryManager::new(store.clone()).unwrap();
        let _b = HistoryManager::new(store).unwrap(); // must not fail
    }
}
