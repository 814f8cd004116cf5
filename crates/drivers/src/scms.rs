//! The JDBC-SCMS driver: simple `key: value` cluster-status text covering
//! host groups and the site-level `ComputeElement` summary.
//!
//! URL form: `jdbc:scms://<head-host>/<anything>`.

use crate::base::{guess_value, pushed_down, KitDriver, Source, Target};
use gridrm_agents::scms::parse_blocks;
use gridrm_dbc::{DbcResult, DriverMetaData, SqlError};
use gridrm_glue::{DriverMapping, GroupDef, NativeRow};
use gridrm_sqlparse::ast::SelectStatement;
use gridrm_sqlparse::SqlValue;

/// Driver name as registered with the gateway.
pub const DRIVER_NAME: &str = "jdbc-scms";

/// The JDBC-SCMS driver.
pub type ScmsDriver = KitDriver<Scms>;

/// The SCMS [`Source`].
#[derive(Default)]
pub struct Scms;

fn text_request(at: &Target<'_>, cmd: &str) -> DbcResult<String> {
    let bytes = at.request("scms", cmd.as_bytes())?;
    at.stats.parsed(bytes.len());
    let text = String::from_utf8_lossy(&bytes).into_owned();
    if text.starts_with("ERROR") {
        return Err(SqlError::Driver(format!("SCMS: {}", text.trim())));
    }
    Ok(text)
}

impl Source for Scms {
    fn meta(&self) -> DriverMetaData {
        DriverMetaData {
            name: DRIVER_NAME.to_owned(),
            subprotocol: "scms".to_owned(),
            version: (1, 0),
            description: "GridRM driver for SCMS cluster status".to_owned(),
        }
    }

    fn probe(&self, at: &Target<'_>) -> DbcResult<()> {
        text_request(at, "SUMMARY").map(|_| ())
    }

    fn fetch(
        &self,
        at: &Target<'_>,
        group: &GroupDef,
        _mapping: &DriverMapping,
        sel: &SelectStatement,
    ) -> DbcResult<Vec<NativeRow>> {
        if group.name.eq_ignore_ascii_case("ComputeElement") {
            // Site summary: one row.
            let text = text_request(at, "SUMMARY")?;
            let mut row = NativeRow::new();
            for line in text.lines() {
                if let Some((k, v)) = line.split_once(':') {
                    row.insert(k.trim().to_owned(), guess_value(v));
                }
            }
            if let Some(site) = row.get("site").cloned() {
                row.insert("ce_id".into(), site);
            }
            row.insert("status".into(), SqlValue::Str("production".into()));
            return Ok(vec![row]);
        }
        // Host-level groups: push a `Hostname = 'x'` equality down to
        // a native STATUS request, otherwise dump everything.
        let cmd = pushed_down(sel, "Hostname")
            .map(|h| format!("STATUS {h}"))
            .unwrap_or_else(|| "ALL".to_owned());
        let text = match text_request(at, &cmd) {
            Ok(t) => t,
            // STATUS for an unknown host: no rows, not an error.
            Err(SqlError::Driver(msg)) if msg.contains("no such host") => String::new(),
            Err(e) => return Err(e),
        };
        Ok(parse_blocks(&text)
            .into_iter()
            .map(|block| {
                block
                    .into_iter()
                    .map(|(k, v)| (k, guess_value(&v)))
                    .collect()
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

    fn setup() -> (Arc<DriverEnv>, Arc<ScmsDriver>) {
        let net = Network::new(SimClock::new(), 9);
        let site = SiteModel::generate(23, &SiteSpec::new("c", 3, 4));
        site.advance_to(45_000);
        deploy_site(&net, site);
        let schema = Arc::new(SchemaManager::new());
        schema.register_mapping(crate::mappings::scms_mapping());
        let env = DriverEnv::new(net, schema, "gw");
        let driver = ScmsDriver::new(env.clone());
        (env, driver)
    }

    fn query(driver: &ScmsDriver, sql: &str) -> gridrm_dbc::RowSet {
        let url = JdbcUrl::parse("jdbc:scms://node00.c/").unwrap();
        let mut conn = driver.connect(&url, &Properties::new()).unwrap();
        let mut stmt = conn.create_statement().unwrap();
        let mut rs = stmt.execute_query(sql).unwrap();
        gridrm_dbc::RowSet::materialize(rs.as_mut()).unwrap()
    }

    #[test]
    fn processor_rows_per_host() {
        let (_env, driver) = setup();
        let rs = query(
            &driver,
            "SELECT Hostname, NCpu, Load1 FROM Processor ORDER BY Hostname",
        );
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.rows()[0][1], SqlValue::Int(4));
    }

    #[test]
    fn hostname_pushdown_uses_status() {
        let (env, driver) = setup();
        let before = env
            .network
            .endpoint_stats("node00.c:scms")
            .unwrap()
            .snapshot()
            .bytes_served;
        let rs = query(
            &driver,
            "SELECT Hostname FROM Processor WHERE Hostname = 'node01.c'",
        );
        assert_eq!(rs.len(), 1);
        let after = env
            .network
            .endpoint_stats("node00.c:scms")
            .unwrap()
            .snapshot()
            .bytes_served;
        // STATUS response is one block (~10 lines), much smaller than ALL;
        // together with the connect-time SUMMARY it stays small.
        assert!(after - before < 400, "served {} bytes", after - before);
    }

    #[test]
    fn compute_element_summary() {
        let (_env, driver) = setup();
        let rs = query(
            &driver,
            "SELECT CEId, SiteName, TotalCpus, FreeCpus, Status FROM ComputeElement",
        );
        assert_eq!(rs.len(), 1);
        let row = &rs.rows()[0];
        assert_eq!(row[1], SqlValue::Str("c".into()));
        assert_eq!(row[2], SqlValue::Int(12));
        assert_eq!(row[4], SqlValue::Str("production".into()));
    }

    #[test]
    fn unknown_host_filter_gives_empty() {
        let (_env, driver) = setup();
        let rs = query(
            &driver,
            "SELECT Hostname FROM Processor WHERE Hostname = 'ghost'",
        );
        assert!(rs.is_empty());
    }

    #[test]
    fn wildcard_probe() {
        let (_env, driver) = setup();
        assert!(driver.accepts_url(&JdbcUrl::parse("jdbc:://node00.c/x").unwrap()));
        assert!(!driver.accepts_url(&JdbcUrl::parse("jdbc:://ghost/x").unwrap()));
    }
}
