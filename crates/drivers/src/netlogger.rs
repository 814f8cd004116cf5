//! The JDBC-NetLogger driver: fine-grained ULM log queries for the GLUE
//! `Event` group, with predicate push-down — a `WHERE Category = '…'`
//! becomes a native `QUERY <event>` instead of a full `TAIL` (§3.2.4:
//! "fine grained native requests for data are possible").
//!
//! URL form: `jdbc:netlogger://<head-host>/<log>[?limit=n]`.

use crate::base::{KitDriver, NativeRows, Source, Target};
use gridrm_agents::netlogger::UlmEvent;
use gridrm_dbc::{DbcResult, DriverMetaData, SqlError};
use gridrm_glue::{GroupDef, NativeRow, NeededKeys};
use gridrm_sqlparse::ast::SelectStatement;
use gridrm_sqlparse::SqlValue;

/// Driver name as registered with the gateway.
pub const DRIVER_NAME: &str = "jdbc-netlogger";

/// The JDBC-NetLogger driver.
pub type NetLoggerDriver = KitDriver<NetLogger>;

/// The NetLogger [`Source`].
#[derive(Default)]
pub struct NetLogger;

impl Source for NetLogger {
    fn meta(&self) -> DriverMetaData {
        DriverMetaData {
            name: DRIVER_NAME.to_owned(),
            subprotocol: "netlogger".to_owned(),
            version: (1, 0),
            description: "GridRM driver for NetLogger ULM event logs".to_owned(),
        }
    }

    fn probe(&self, at: &Target<'_>) -> DbcResult<()> {
        if at.request("netlogger", b"TAIL 1")?.starts_with(b"ERROR") {
            return Err(SqlError::Connection(
                "NetLogger agent rejected probe".into(),
            ));
        }
        Ok(())
    }

    fn fetch(
        &self,
        at: &Target<'_>,
        _group: &GroupDef,
        _needed: &NeededKeys<'_>,
        sel: &SelectStatement,
    ) -> DbcResult<NativeRows> {
        let limit: usize = at
            .url
            .param("limit")
            .and_then(|s| s.parse().ok())
            .unwrap_or(500);

        // Predicate push-down: Category = 'x' → native QUERY; otherwise a
        // HOSTQ for Hostname = 'x'; otherwise a plain TAIL.
        let cmd = if let Some(category) = sel.where_eq("Category") {
            format!("QUERY {category} {limit}")
        } else if let Some(host) = sel.where_eq("Hostname") {
            format!("HOSTQ {host} {limit}")
        } else {
            format!("TAIL {limit}")
        };

        let bytes = at.request("netlogger", cmd.as_bytes())?;
        at.stats.parsed(bytes.len());
        let text = String::from_utf8_lossy(&bytes);
        if text.starts_with("ERROR") {
            return Err(SqlError::Driver(format!("NetLogger: {}", text.trim())));
        }

        let source_url = at.url.to_string();
        Ok(text
            .lines()
            .filter_map(UlmEvent::parse)
            .map(|e| {
                let mut row = NativeRow::new();
                row.insert("source_url".into(), SqlValue::Str(source_url.clone()));
                row.insert("host".into(), SqlValue::Str(e.host.clone()));
                row.insert("level".into(), SqlValue::Str(e.level.clone()));
                row.insert("event".into(), SqlValue::Str(e.event.clone()));
                row.insert("line".into(), SqlValue::Str(e.to_line()));
                row.insert("at_ms".into(), SqlValue::Timestamp(e.at_ms as i64));
                row.insert("value".into(), SqlValue::from(e.value));
                row
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::DriverEnv;
    use gridrm_agents::deploy_site;
    use gridrm_dbc::{Driver, JdbcUrl, Properties};
    use gridrm_glue::SchemaManager;
    use gridrm_resmodel::{SiteModel, SiteSpec};
    use gridrm_simnet::{Network, SimClock};
    use std::sync::Arc;

    fn setup() -> (Arc<DriverEnv>, Arc<NetLoggerDriver>) {
        let net = Network::new(SimClock::new(), 6);
        let site = SiteModel::generate(17, &SiteSpec::new("l", 2, 2));
        site.advance_to(60_000);
        let agents = deploy_site(&net, site);
        agents.pump(); // generate one batch of events
        let schema = Arc::new(SchemaManager::new());
        schema.register_mapping(crate::mappings::netlogger_mapping());
        let env = DriverEnv::new(net, schema, "gw");
        let driver = NetLoggerDriver::new(env.clone());
        (env, driver)
    }

    fn query(driver: &NetLoggerDriver, sql: &str) -> gridrm_dbc::RowSet {
        let url = JdbcUrl::parse("jdbc:netlogger://node00.l/log").unwrap();
        let mut conn = driver.connect(&url, &Properties::new()).unwrap();
        let mut stmt = conn.create_statement().unwrap();
        let mut rs = stmt.execute_query(sql).unwrap();
        gridrm_dbc::RowSet::materialize(rs.as_mut()).unwrap()
    }

    #[test]
    fn events_normalised_to_glue() {
        let (_env, driver) = setup();
        let rs = query(&driver, "SELECT Hostname, Category, Value, At FROM Event");
        assert!(rs.len() >= 4, "{} events", rs.len());
        for row in rs.rows() {
            assert!(!row[0].is_null());
            assert!(!row[1].is_null());
            assert!(matches!(row[3], SqlValue::Timestamp(_)));
        }
    }

    #[test]
    fn category_pushdown_filters_natively() {
        let (_env, driver) = setup();
        let rs = query(
            &driver,
            "SELECT Category FROM Event WHERE Category = 'cpu.load'",
        );
        assert!(rs.len() >= 2);
        assert!(rs
            .rows()
            .iter()
            .all(|r| r[0] == SqlValue::Str("cpu.load".into())));
    }

    #[test]
    fn hostname_pushdown() {
        let (_env, driver) = setup();
        let rs = query(
            &driver,
            "SELECT Hostname FROM Event WHERE Hostname = 'node01.l'",
        );
        assert!(!rs.is_empty());
        assert!(rs
            .rows()
            .iter()
            .all(|r| r[0] == SqlValue::Str("node01.l".into())));
    }

    #[test]
    fn event_group_only() {
        let (_env, driver) = setup();
        let url = JdbcUrl::parse("jdbc:netlogger://node00.l/log").unwrap();
        let mut conn = driver.connect(&url, &Properties::new()).unwrap();
        let mut stmt = conn.create_statement().unwrap();
        assert!(matches!(
            stmt.execute_query("SELECT * FROM Processor").err().unwrap(),
            SqlError::Unsupported(_)
        ));
    }

    #[test]
    fn wildcard_probe() {
        let (_env, driver) = setup();
        assert!(driver.accepts_url(&JdbcUrl::parse("jdbc:://node00.l/x").unwrap()));
        assert!(!driver.accepts_url(&JdbcUrl::parse("jdbc:://ghost/x").unwrap()));
    }
}
