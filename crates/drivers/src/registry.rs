//! One-call installation of the standard driver set into a gateway.

use crate::base::DriverEnv;
use crate::{
    mappings, GangliaDriver, NetLoggerDriver, NwsDriver, ScmsDriver, SnmpDriver, SqlStoreDriver,
};
use gridrm_dbc::DriverManager;
use std::sync::Arc;

/// Register the paper's initial driver set — "SNMP, Ganglia, NWS, Net
/// Logger and SCMS" (§3.2.4) — plus the local SQL-store driver, together
/// with their GLUE mappings. Mirrors the gateway's start-up registration
/// of "a number of drivers that come as default with the site" (§3.2.2).
///
/// Registration order matters: it is the priority order the Table 2 scan
/// probes wildcard URLs in. SNMP first (cheapest probe), then the
/// coarse-grained drivers, then the local store.
pub fn register_standard_drivers(manager: &DriverManager, env: &Arc<DriverEnv>) {
    env.schema.register_mapping(mappings::snmp_mapping());
    env.schema.register_mapping(mappings::ganglia_mapping());
    env.schema.register_mapping(mappings::nws_mapping());
    env.schema.register_mapping(mappings::netlogger_mapping());
    env.schema.register_mapping(mappings::scms_mapping());

    manager.register(SnmpDriver::new(env.clone()));
    manager.register(GangliaDriver::new(env.clone()));
    manager.register(NwsDriver::new(env.clone()));
    manager.register(NetLoggerDriver::new(env.clone()));
    manager.register(ScmsDriver::new(env.clone()));
    manager.register(SqlStoreDriver::new(env.clone()));
}

/// Install GridRM-rs's standard event formatters into an Event Manager
/// (Fig 4's per-driver formatter plug-ins).
pub fn install_standard_formatters(events: &gridrm_core::events::EventManager) {
    events.register_formatter(Arc::new(crate::formatters::SnmpTrapFormatter));
    events.register_formatter(Arc::new(crate::formatters::NetLoggerLineFormatter));
}

/// One-call gateway bootstrap: build the [`DriverEnv`] from a gateway's
/// own network/schema/identity, mount its history store as `history`,
/// register the standard drivers with the GridRM Driver Manager and plug
/// in the standard event formatters. Returns the environment so callers
/// can mount further stores or build additional drivers.
pub fn install_into_gateway(gateway: &gridrm_core::Gateway) -> Arc<DriverEnv> {
    let env = DriverEnv::new(
        gateway.network().clone(),
        gateway.schema().clone(),
        &gateway.config().address,
    );
    env.mount_store("history", gateway.history().store().clone());
    register_standard_drivers(gateway.driver_manager().base(), &env);
    // The gateway's own state as the `gridrm_*` virtual tables
    // (`telemetry::TABLES`), via `jdbc:telemetry://local/metrics`.
    gateway
        .driver_manager()
        .register(crate::TelemetryDriver::new(
            env.clone(),
            gateway.telemetry().clone(),
            Some(gateway.health().clone()),
            Some(gateway.streams().clone()),
        ));
    install_standard_formatters(gateway.events());
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridrm_agents::deploy_site;
    use gridrm_dbc::{JdbcUrl, Properties, RowSet};
    use gridrm_glue::SchemaManager;
    use gridrm_resmodel::{SiteModel, SiteSpec};
    use gridrm_simnet::{Network, SimClock};

    fn setup() -> (Arc<DriverEnv>, DriverManager) {
        let net = Network::new(SimClock::new(), 11);
        let mut spec = SiteSpec::new("r", 3, 2);
        spec.peers = vec!["node00.elsewhere".to_owned()];
        let site = SiteModel::generate(31, &spec);
        site.advance_to(600_000);
        let agents = deploy_site(&net, site);
        agents.pump();
        let env = DriverEnv::new(net, Arc::new(SchemaManager::new()), "gw");
        env.mount_store("history", gridrm_store::Store::new());
        let dm = DriverManager::new();
        register_standard_drivers(&dm, &env);
        (env, dm)
    }

    #[test]
    fn six_drivers_registered_with_mappings() {
        let (env, dm) = setup();
        assert_eq!(dm.len(), 6);
        assert_eq!(env.schema.mapped_drivers().len(), 5);
    }

    #[test]
    fn static_urls_resolve_to_right_driver() {
        let (_env, dm) = setup();
        for (url, name) in [
            ("jdbc:snmp://node01.r/public", "jdbc-snmp"),
            ("jdbc:ganglia://node00.r/r", "jdbc-ganglia"),
            ("jdbc:nws://node00.r/perf", "jdbc-nws"),
            ("jdbc:netlogger://node00.r/log", "jdbc-netlogger"),
            ("jdbc:scms://node00.r/", "jdbc-scms"),
            ("jdbc:gridrm://local/history", "jdbc-gridrm"),
        ] {
            let d = dm.locate(&JdbcUrl::parse(url).unwrap()).unwrap();
            assert_eq!(d.name(), name, "for {url}");
        }
    }

    #[test]
    fn wildcard_url_dynamic_selection_paper_example() {
        // §3.2.2: `jdbc:://host/path` uses "the first available driver".
        let (_env, dm) = setup();
        // An SNMP host with community 'public': SNMP probes first and wins.
        let d = dm
            .locate(&JdbcUrl::parse("jdbc:://node01.r/public").unwrap())
            .unwrap();
        assert_eq!(d.name(), "jdbc-snmp");
        // No driver for a dead host.
        assert!(dm
            .locate(&JdbcUrl::parse("jdbc:://deadhost/x").unwrap())
            .is_err());
    }

    #[test]
    fn same_query_same_answer_shape_across_drivers() {
        // The homogeneity claim (§1): `SELECT Hostname, Load1 FROM
        // Processor` works identically against SNMP, Ganglia and SCMS.
        let (_env, dm) = setup();
        let sql = "SELECT Hostname, Load1 FROM Processor WHERE Hostname = 'node01.r'";
        let mut answers = Vec::new();
        for url in [
            "jdbc:snmp://node01.r/public",
            "jdbc:ganglia://node00.r/r",
            "jdbc:scms://node00.r/",
        ] {
            let url = JdbcUrl::parse(url).unwrap();
            let mut conn = dm.connect(&url, &Properties::new()).unwrap();
            let mut stmt = conn.create_statement().unwrap();
            let mut rs = stmt.execute_query(sql).unwrap();
            let rs = RowSet::materialize(rs.as_mut()).unwrap();
            assert_eq!(rs.len(), 1, "via {url}");
            assert_eq!(rs.meta().column_name(0).unwrap(), "Hostname");
            assert_eq!(rs.meta().column_name(1).unwrap(), "Load1");
            let host = rs.rows()[0][0].clone();
            let load = rs.rows()[0][1].as_f64().unwrap();
            answers.push((host, load));
        }
        // All three report the same host and closely agreeing loads (the
        // sources quantise differently: SNMP is centi-load, Ganglia prints
        // two decimals).
        assert!(answers
            .iter()
            .all(|(h, _)| h == &gridrm_sqlparse::SqlValue::Str("node01.r".into())));
        let loads: Vec<f64> = answers.iter().map(|(_, l)| *l).collect();
        let spread = loads.iter().cloned().fold(f64::MIN, f64::max)
            - loads.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 0.02, "loads disagree: {loads:?}");
    }

    #[test]
    fn runtime_unregister_reroutes_wildcards() {
        let (_env, dm) = setup();
        // Kill the SNMP driver; the wildcard URL should now fall through
        // to another driver that can talk to the head node.
        dm.unregister("jdbc-snmp");
        let d = dm
            .locate(&JdbcUrl::parse("jdbc:://node00.r/x").unwrap())
            .unwrap();
        assert_eq!(d.name(), "jdbc-ganglia");
    }

    /// What every kit driver inherits, checked once over the whole set:
    /// the six standard drivers plus jdbc-telemetry.
    #[test]
    fn kit_conformance_across_every_driver() {
        use crate::telemetry::TelemetryDriver;
        use gridrm_dbc::SqlError;
        use gridrm_glue::{AttributeDef, GroupDef};
        use gridrm_sqlparse::SqlType;
        use gridrm_telemetry::GatewayTelemetry;

        let (env, dm) = setup();
        env.store("history")
            .unwrap()
            .execute_sql("CREATE TABLE t (a INTEGER)", 0)
            .unwrap();
        dm.register(TelemetryDriver::new(
            env.clone(),
            GatewayTelemetry::new(env.clock.clone()),
            None,
            None,
        ));
        // (url, a SELECT the driver answers, a table of its own it can lose)
        let cases = [
            ("jdbc:snmp://node01.r/public", "SELECT Load1 FROM Processor"),
            ("jdbc:ganglia://node00.r/r", "SELECT Load1 FROM Processor"),
            (
                "jdbc:nws://node00.r/perf",
                "SELECT SourceHost FROM NetworkElement",
            ),
            (
                "jdbc:netlogger://node00.r/log",
                "SELECT Category FROM Event",
            ),
            ("jdbc:scms://node00.r/", "SELECT Load1 FROM Processor"),
            ("jdbc:gridrm://local/history", "SELECT a FROM t"),
            (
                "jdbc:telemetry://local/metrics",
                "SELECT name FROM gridrm_telemetry",
            ),
        ];
        assert_eq!(cases.len(), dm.len());
        for (url, sql) in cases {
            let url = JdbcUrl::parse(url).unwrap();
            let driver = dm.locate(&url).unwrap();
            let name = driver.name();
            let mut conn = driver.connect(&url, &Properties::new()).unwrap();
            assert_eq!(conn.metadata().driver_name, name);
            let mut stmt = conn.create_statement().unwrap();
            assert!(stmt.execute_query(sql).is_ok(), "{name}: {sql}");

            // Read-only surface: non-SELECT and unknown tables/groups.
            for bad in ["DELETE FROM Processor", "SELECT * FROM NoSuchGroup"] {
                assert!(
                    matches!(stmt.execute_query(bad), Err(SqlError::Unsupported(_))),
                    "{name}: {bad}"
                );
            }
            // A GLUE group that exists but this driver does not map.
            let unmapped = match name.as_str() {
                "jdbc-nws" | "jdbc-netlogger" => "Processor",
                _ => "NetworkElement",
            };
            if name != "jdbc-gridrm" {
                assert!(
                    matches!(
                        stmt.execute_query(&format!("SELECT * FROM {unmapped}")),
                        Err(SqlError::Unsupported(_))
                    ),
                    "{name}: {unmapped}"
                );
            }
            // The paper's stub: only the local store is writable.
            let update = stmt.execute_update("INSERT INTO t VALUES (1)");
            if name == "jdbc-gridrm" {
                assert_eq!(update, Ok(1));
            } else {
                assert_eq!(
                    update,
                    Err(SqlError::NotImplemented("execute_update")),
                    "{name}"
                );
            }

            // Fig 5: a schema bump between two statements on one
            // connection is picked up without reconnecting.
            if let Some(mapping) = env.schema.mapping_for(&name) {
                env.schema.unregister_mapping(&name);
                assert!(
                    matches!(stmt.execute_query(sql), Err(SqlError::Unsupported(_))),
                    "{name}: stale mapping served"
                );
                env.schema.register_mapping((*mapping).clone());
                assert!(
                    stmt.execute_query(sql).is_ok(),
                    "{name}: mapping not re-read"
                );
            } else {
                env.schema.upsert_group(GroupDef {
                    name: "Bumped".into(),
                    description: "forces a schema version bump".into(),
                    attributes: vec![AttributeDef::new("X", SqlType::Int, None, "x")],
                });
                assert!(stmt.execute_query(sql).is_ok(), "{name}: after schema bump");
            }

            conn.close().unwrap();
            assert!(conn.is_closed());
            assert!(matches!(conn.create_statement(), Err(SqlError::Closed)));
            assert!(matches!(conn.ping(), Err(SqlError::Closed)), "{name}");
        }
    }
}
