//! The JDBC-GridRM driver: SQL access to stores mounted in the gateway —
//! the "SQL" plug-in of Fig 2's Abstract Data Layer and the path the
//! RequestManager uses for historical queries (§3.1.1).
//!
//! URL form: `jdbc:gridrm://local/<store-name>`.

use crate::base::{KitDriver, Source, Target};
use gridrm_dbc::{DbcResult, DriverMetaData, RowSet, SqlError};
use gridrm_glue::SchemaHandle;
use gridrm_sqlparse::ast::{SelectStatement, Statement};
use gridrm_store::{ExecOutcome, Store, StoreError};

/// Driver name as registered with the gateway.
pub const DRIVER_NAME: &str = "jdbc-gridrm";

/// The JDBC-GridRM driver.
pub type SqlStoreDriver = KitDriver<SqlStore>;

/// The mounted-store [`Source`]: its tables are the store's own, so it
/// answers `query` directly instead of fetching GLUE rows.
#[derive(Default)]
pub struct SqlStore;

fn store_of(at: &Target<'_>) -> DbcResult<Store> {
    at.env
        .store(&at.url.path)
        .ok_or_else(|| SqlError::Connection(format!("no store mounted at '{}'", at.url.path)))
}

impl Source for SqlStore {
    fn meta(&self) -> DriverMetaData {
        DriverMetaData {
            name: DRIVER_NAME.to_owned(),
            subprotocol: "gridrm".to_owned(),
            version: (1, 0),
            description: "GridRM driver for gateway-local SQL stores (history)".to_owned(),
        }
    }

    /// No request to send: the store is mounted or it is not. A
    /// wildcard URL names one only as `jdbc:://local/<store>`.
    fn probe(&self, at: &Target<'_>) -> DbcResult<()> {
        if at.url.is_wildcard() && at.url.host != "local" {
            return Err(SqlError::Connection(format!(
                "'{}' is not the local store host",
                at.url.host
            )));
        }
        store_of(at).map(|_| ())
    }

    fn query(
        &self,
        at: &Target<'_>,
        _schema: &mut SchemaHandle,
        sel: &SelectStatement,
    ) -> DbcResult<RowSet> {
        let now = at.env.clock.now_ts();
        store_of(at)?
            .with(|db| gridrm_store::select_in_memory(db.table(&sel.table)?, sel, now))
            .map_err(|e| match e {
                StoreError::NoSuchTable(_) => SqlError::Unsupported(e.to_string()),
                _ => SqlError::Driver(e.to_string()),
            })
    }

    /// Unlike agent drivers, the local store is writable: this is the
    /// optional capability a "fully implemented" driver provides.
    fn update(&self, at: &Target<'_>, stmt: &Statement) -> DbcResult<usize> {
        let now = at.env.clock.now_ts();
        match store_of(at)?.with(|db| db.execute(stmt, now)) {
            Ok(ExecOutcome::Affected(n)) => Ok(n),
            Ok(ExecOutcome::Done) => Ok(0),
            Ok(ExecOutcome::Rows(_)) => Err(SqlError::Unsupported(
                "SELECT passed to execute_update".into(),
            )),
            Err(e) => Err(SqlError::Driver(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::DriverEnv;
    use gridrm_dbc::{Driver, JdbcUrl, Properties};
    use gridrm_glue::SchemaManager;
    use gridrm_simnet::{Network, SimClock};
    use std::sync::Arc;

    fn setup() -> (Arc<DriverEnv>, Arc<SqlStoreDriver>) {
        let net = Network::new(SimClock::new(), 1);
        let env = DriverEnv::new(net, Arc::new(SchemaManager::new()), "gw");
        env.mount_store("history", Store::new());
        let driver = SqlStoreDriver::new(env.clone());
        (env, driver)
    }

    #[test]
    fn full_sql_lifecycle() {
        let (_env, driver) = setup();
        let url = JdbcUrl::parse("jdbc:gridrm://local/history").unwrap();
        let mut conn = driver.connect(&url, &Properties::new()).unwrap();
        let mut stmt = conn.create_statement().unwrap();
        assert_eq!(
            stmt.execute_update("CREATE TABLE h (host TEXT, v REAL)")
                .unwrap(),
            0
        );
        assert_eq!(
            stmt.execute_update("INSERT INTO h VALUES ('a', 1.5), ('b', 2.5)")
                .unwrap(),
            2
        );
        let mut rs = stmt
            .execute_query("SELECT host FROM h WHERE v > 2 ORDER BY host")
            .unwrap();
        assert!(rs.advance().unwrap());
        assert_eq!(rs.get_string(0).unwrap(), "b");
        assert!(!rs.advance().unwrap());
    }

    #[test]
    fn unknown_store_rejected() {
        let (_env, driver) = setup();
        let url = JdbcUrl::parse("jdbc:gridrm://local/nope").unwrap();
        assert!(matches!(
            driver.connect(&url, &Properties::new()).err().unwrap(),
            SqlError::Connection(_)
        ));
    }

    #[test]
    fn mismatched_statement_kinds() {
        let (_env, driver) = setup();
        let url = JdbcUrl::parse("jdbc:gridrm://local/history").unwrap();
        let mut conn = driver.connect(&url, &Properties::new()).unwrap();
        let mut stmt = conn.create_statement().unwrap();
        stmt.execute_update("CREATE TABLE t (a INTEGER)").unwrap();
        assert!(stmt.execute_query("INSERT INTO t VALUES (1)").is_err());
        assert!(stmt.execute_update("SELECT * FROM t").is_err());
    }

    #[test]
    fn wildcard_accepts_only_mounted_local() {
        let (_env, driver) = setup();
        assert!(driver.accepts_url(&JdbcUrl::parse("jdbc:://local/history").unwrap()));
        assert!(!driver.accepts_url(&JdbcUrl::parse("jdbc:://local/other").unwrap()));
        assert!(!driver.accepts_url(&JdbcUrl::parse("jdbc:://remote/history").unwrap()));
        assert!(driver.accepts_url(&JdbcUrl::parse("jdbc:gridrm://local/x").unwrap()));
    }
}
