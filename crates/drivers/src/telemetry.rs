//! The JDBC-Telemetry driver: the gateway's own state, declared as the
//! `gridrm_*` virtual tables of [`gridrm_core::tables::TABLES`], served
//! as SQL through the normal driver path — the "monitor the monitor"
//! loop. The driver only transports: each `SELECT` is answered by
//! [`AdminInterface::select`], the evaluator the admin's `/v1` routes
//! call too.
//!
//! URL form: `jdbc:telemetry://local/metrics`.

use crate::base::{DriverEnv, KitDriver, Source, Target};
use gridrm_core::admin::AdminInterface;
use gridrm_core::tables::served_tables;
use gridrm_dbc::{DbcResult, DriverMetaData, RowSet, SqlError};
use gridrm_glue::SchemaHandle;
use gridrm_sqlparse::ast::SelectStatement;
use std::sync::{Arc, Weak};

/// Driver name as registered with the gateway.
pub const DRIVER_NAME: &str = "jdbc-telemetry";

/// The JDBC-Telemetry driver.
pub type TelemetryDriver = KitDriver<Telemetry>;

/// The telemetry [`Source`]: the gateway's admin handle, which holds the
/// telemetry hub, health monitor and stream manager the tables read.
/// Held weakly: the admin owns the driver manager this driver is
/// registered in, so a strong handle would be a cycle that keeps the
/// whole gateway alive after its last user drops it.
pub struct Telemetry(Weak<AdminInterface>);

impl TelemetryDriver {
    /// Create the driver over a gateway's admin interface.
    pub fn new(env: Arc<DriverEnv>, admin: &Arc<AdminInterface>) -> Arc<TelemetryDriver> {
        KitDriver::with_source(env, Telemetry(Arc::downgrade(admin)))
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
        let admin = self.0.upgrade().ok_or(SqlError::Closed)?;
        admin.select(sel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridrm_core::{Gateway, GatewayConfig};
    use gridrm_dbc::{Driver, JdbcUrl};
    use gridrm_simnet::SimClock;

    #[test]
    fn accepts_only_telemetry_urls() {
        let net = gridrm_simnet::Network::new(SimClock::new(), 1);
        let gateway = Gateway::new(GatewayConfig::new("gw", "s"), net.clone());
        let env = DriverEnv::new(net, gateway.schema().clone(), "gw");
        let d = TelemetryDriver::new(env, gateway.admin());
        assert!(d.accepts_url(&JdbcUrl::parse("jdbc:telemetry://local/metrics").unwrap()));
        assert!(!d.accepts_url(&JdbcUrl::parse("jdbc:snmp://node/public").unwrap()));
    }

    /// The admin owns the driver manager the driver is registered in, so
    /// the driver must not own the admin: a dropped gateway is freed.
    #[test]
    fn an_installed_driver_keeps_no_gateway_alive() {
        let net = gridrm_simnet::Network::new(SimClock::new(), 1);
        let gateway = Gateway::new(GatewayConfig::new("gw", "s"), net);
        crate::install_into_gateway(&gateway);
        let admin = Arc::downgrade(gateway.admin());
        drop(gateway);
        assert!(
            admin.upgrade().is_none(),
            "a reference cycle leaks the gateway"
        );
    }
}
