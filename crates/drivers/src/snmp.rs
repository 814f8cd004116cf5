//! The JDBC-SNMP driver: fine-grained, per-attribute native requests
//! (§3.2.4: "fine grained native requests for data are possible, with
//! generally little or no parsing required").
//!
//! URL form: `jdbc:snmp://<host>[:port]/<community>`; the path is the SNMP
//! community string (defaults to `public`).

use crate::base::{needed_keys, KitDriver, Source, Target};
use gridrm_agents::snmp::codec::{self, error_status, Pdu, SnmpMessage, SnmpValue};
use gridrm_agents::snmp::{oids, Oid};
use gridrm_dbc::{DbcResult, DriverMetaData, SqlError};
use gridrm_glue::{DriverMapping, GroupDef, NativeRow};
use gridrm_sqlparse::ast::SelectStatement;
use gridrm_sqlparse::SqlValue;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};

/// Driver name as registered with the gateway.
pub const DRIVER_NAME: &str = "jdbc-snmp";

/// GLUE groups whose rows are SNMP table walks rather than scalars.
const INDEXED_GROUPS: [&str; 3] = ["NetworkAdapter", "FileSystem", "Disk"];

fn snmp_to_sql(v: &SnmpValue) -> SqlValue {
    match v {
        SnmpValue::Integer(i) => SqlValue::Int(*i),
        SnmpValue::Counter64(c) => SqlValue::Int(*c as i64),
        SnmpValue::Gauge(g) => SqlValue::Int(*g as i64),
        SnmpValue::OctetString(s) => SqlValue::Str(s.clone()),
        SnmpValue::TimeTicks(t) => SqlValue::Int(*t as i64),
        SnmpValue::ObjectId(o) => SqlValue::Str(o.to_string()),
        SnmpValue::Null => SqlValue::Null,
    }
}

/// The JDBC-SNMP driver.
pub type SnmpDriver = KitDriver<Snmp>;

/// The SNMP [`Source`].
pub struct Snmp {
    request_id: AtomicU32,
}

impl Default for Snmp {
    fn default() -> Snmp {
        Snmp {
            request_id: AtomicU32::new(1),
        }
    }
}

fn community_of<'a>(at: &Target<'a>) -> &'a str {
    if at.url.path.is_empty() {
        "public"
    } else {
        &at.url.path
    }
}

/// Send one PDU and decode the response bindings.
fn exchange(at: &Target<'_>, pdu: Pdu) -> DbcResult<(u8, Vec<(Oid, SnmpValue)>)> {
    let req = codec::encode(&SnmpMessage::v2c(community_of(at), pdu));
    let resp = at.request("snmp", &req)?;
    at.stats.parsed(resp.len());
    let msg =
        codec::decode(&resp).map_err(|e| SqlError::Driver(format!("bad SNMP response: {e}")))?;
    match msg.pdu {
        Pdu::Response {
            error_status: error_status::AUTH_ERROR,
            ..
        } => Err(SqlError::Security(format!(
            "SNMP community rejected by {}",
            at.url.host
        ))),
        Pdu::Response {
            error_status,
            bindings,
            ..
        } => Ok((error_status, bindings)),
        other => Err(SqlError::Driver(format!(
            "unexpected SNMP PDU in response: {other:?}"
        ))),
    }
}

/// Parse dotted-OID keys, skipping native keys that are not OIDs (the
/// mapping's `derived.*` names).
fn oids_of<'k>(keys: impl IntoIterator<Item = &'k str>) -> Vec<Oid> {
    keys.into_iter().filter_map(|k| k.parse().ok()).collect()
}

/// GET `oids` in one request: the error status and the bindings as a
/// native row keyed by dotted OID.
fn get(at: &Target<'_>, request_id: u32, oids: Vec<Oid>) -> DbcResult<(u8, NativeRow)> {
    let (status, bindings) = exchange(at, Pdu::Get { request_id, oids })?;
    let row = bindings
        .into_iter()
        .map(|(oid, value)| (oid.to_string(), snmp_to_sql(&value)))
        .collect();
    Ok((status, row))
}

/// Walk one table column prefix with GETBULK, returning index → value.
fn walk(at: &Target<'_>, prefix: &Oid) -> DbcResult<BTreeMap<u32, SnmpValue>> {
    let mut out = BTreeMap::new();
    let mut cursor = prefix.clone();
    loop {
        let (_, bindings) = exchange(
            at,
            Pdu::GetBulk {
                request_id: 0,
                max_repetitions: 32,
                oid: cursor.clone(),
            },
        )?;
        if bindings.is_empty() {
            break;
        }
        let mut advanced = false;
        let got = bindings.len();
        for (oid, value) in bindings {
            if !prefix.is_prefix_of(&oid) {
                return Ok(out);
            }
            if let Some(&idx) = oid.0.last() {
                out.insert(idx, value);
            }
            cursor = oid;
            advanced = true;
        }
        if !advanced || got < 32 {
            break;
        }
    }
    Ok(out)
}

impl Source for Snmp {
    fn meta(&self) -> DriverMetaData {
        DriverMetaData {
            name: DRIVER_NAME.to_owned(),
            subprotocol: "snmp".to_owned(),
            version: (1, 0),
            description: "GridRM driver for SNMP agents (MIB-2, host-resources, UCD)".to_owned(),
        }
    }

    fn probe(&self, at: &Target<'_>) -> DbcResult<()> {
        let id = self.request_id.fetch_add(1, Ordering::Relaxed);
        match get(at, id, oids_of([oids::SYS_NAME]))? {
            (error_status::NO_ERROR, _) => Ok(()),
            (status, _) => Err(SqlError::Connection(format!(
                "SNMP agent {} answered sysName with error status {status}",
                at.url.host
            ))),
        }
    }

    fn fetch(
        &self,
        at: &Target<'_>,
        group: &GroupDef,
        mapping: &DriverMapping,
        sel: &SelectStatement,
    ) -> DbcResult<Vec<NativeRow>> {
        // Which attributes do we actually need? (Fine-grained fetching.)
        let keys = needed_keys(group, mapping, sel);
        if !INDEXED_GROUPS
            .iter()
            .any(|g| g.eq_ignore_ascii_case(&group.name))
        {
            // Single-row group: one GET with every needed OID.
            let oids = oids_of(keys.iter().map(String::as_str));
            return Ok(vec![if oids.is_empty() {
                NativeRow::new()
            } else {
                get(at, 0, oids)?.1
            }]);
        }
        // Indexed group: the sysName key is scalar, everything else is
        // a column prefix to walk.
        let scalar_row = if keys.iter().any(|k| k == oids::SYS_NAME) {
            get(at, 0, oids_of([oids::SYS_NAME]))?.1
        } else {
            NativeRow::new()
        };
        // FileSystem.AvailableMB is size - used: if the query wants it,
        // make sure both inputs are walked, then synthesise.
        let wants_avail = keys.iter().any(|k| k == "derived.hrStorageAvail");
        let mut columns: Vec<&str> = keys
            .iter()
            .map(String::as_str)
            // Derived keys are synthesised below, not walked.
            .filter(|k| *k != oids::SYS_NAME && !k.starts_with("derived."))
            .collect();
        if wants_avail {
            for extra in [oids::HR_STORAGE_SIZE, oids::HR_STORAGE_USED] {
                if !columns.contains(&extra) {
                    columns.push(extra);
                }
            }
        }
        let mut per_index: BTreeMap<u32, NativeRow> = BTreeMap::new();
        for key in columns {
            let Ok(prefix) = key.parse::<Oid>() else {
                continue;
            };
            for (idx, value) in walk(at, &prefix)? {
                per_index
                    .entry(idx)
                    .or_default()
                    .insert(key.to_owned(), snmp_to_sql(&value));
            }
        }
        Ok(per_index
            .into_values()
            .map(|mut row| {
                row.extend(scalar_row.iter().map(|(k, v)| (k.clone(), v.clone())));
                if wants_avail {
                    let size = row.get(oids::HR_STORAGE_SIZE).and_then(SqlValue::as_i64);
                    let used = row.get(oids::HR_STORAGE_USED).and_then(SqlValue::as_i64);
                    if let (Some(s), Some(u)) = (size, used) {
                        row.insert("derived.hrStorageAvail".to_owned(), SqlValue::Int(s - u));
                    }
                }
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

    fn setup() -> (Arc<DriverEnv>, Arc<SnmpDriver>) {
        let net = Network::new(SimClock::new(), 2);
        let site = SiteModel::generate(42, &SiteSpec::new("s", 3, 4));
        site.advance_to(60_000);
        deploy_site(&net, site);
        let schema = Arc::new(SchemaManager::new());
        schema.register_mapping(crate::mappings::snmp_mapping());
        let env = DriverEnv::new(net, schema, "gw");
        let driver = SnmpDriver::new(env.clone());
        (env, driver)
    }

    fn query(driver: &SnmpDriver, url: &str, sql: &str) -> gridrm_dbc::RowSet {
        let url = JdbcUrl::parse(url).unwrap();
        let mut conn = driver.connect(&url, &Properties::new()).unwrap();
        let mut stmt = conn.create_statement().unwrap();
        let mut rs = stmt.execute_query(sql).unwrap();
        gridrm_dbc::RowSet::materialize(rs.as_mut()).unwrap()
    }

    #[test]
    fn processor_query_normalised() {
        let (_env, driver) = setup();
        let rs = query(
            &driver,
            "jdbc:snmp://node00.s/public",
            "SELECT Hostname, NCpu, Load1, Model FROM Processor",
        );
        assert_eq!(rs.len(), 1);
        let row = &rs.rows()[0];
        assert_eq!(row[0], SqlValue::Str("node00.s".into()));
        assert_eq!(row[1], SqlValue::Int(4));
        assert!(matches!(row[2], SqlValue::Float(l) if (0.0..16.0).contains(&l)));
        assert_eq!(row[3], SqlValue::Str("Xeon".into()));
    }

    #[test]
    fn select_star_has_all_glue_columns_with_nulls() {
        let (env, driver) = setup();
        let rs = query(
            &driver,
            "jdbc:snmp://node01.s/public",
            "SELECT * FROM OperatingSystem",
        );
        let group = env.schema.schema();
        let def = group.group("OperatingSystem").unwrap();
        assert_eq!(rs.meta().column_count(), def.attributes.len());
        // Release is unmapped for SNMP → NULL (§3.2.3).
        let rel_idx = rs.meta().column_index("Release").unwrap();
        assert!(rs.rows()[0][rel_idx].is_null());
        let name_idx = rs.meta().column_index("Name").unwrap();
        assert!(rs.rows()[0][name_idx].as_str().unwrap().contains("Linux"));
    }

    #[test]
    fn indexed_group_network_adapter() {
        let (_env, driver) = setup();
        let rs = query(
            &driver,
            "jdbc:snmp://node00.s/public",
            "SELECT Hostname, Name, MTU, Up FROM NetworkAdapter",
        );
        assert_eq!(rs.len(), 1); // one NIC per simulated host
        let row = &rs.rows()[0];
        assert_eq!(row[1], SqlValue::Str("eth0".into()));
        assert_eq!(row[2], SqlValue::Int(1500));
        assert_eq!(row[3], SqlValue::Bool(true));
    }

    #[test]
    fn filesystem_available_is_derived() {
        let (_env, driver) = setup();
        let rs = query(
            &driver,
            "jdbc:snmp://node00.s/public",
            "SELECT Name, SizeMB, AvailableMB FROM FileSystem ORDER BY Name",
        );
        assert_eq!(rs.len(), 2); // "/" and "/boot"
        for row in rs.rows() {
            let size = row[1].as_i64().unwrap();
            let avail = row[2].as_i64().unwrap();
            assert!(avail <= size, "avail {avail} > size {size}");
            assert!(avail >= 0);
        }
    }

    #[test]
    fn where_clause_pushapplied() {
        let (_env, driver) = setup();
        let rs = query(
            &driver,
            "jdbc:snmp://node00.s/public",
            "SELECT Hostname FROM Processor WHERE Load1 > 1000.0",
        );
        assert_eq!(rs.len(), 0);
    }

    #[test]
    fn wrong_community_is_security_error() {
        let (_env, driver) = setup();
        let url = JdbcUrl::parse("jdbc:snmp://node00.s/wrongpass").unwrap();
        let err = driver.connect(&url, &Properties::new()).err().unwrap();
        assert!(matches!(err, SqlError::Security(_)), "{err}");
    }

    #[test]
    fn unknown_host_is_connection_error() {
        let (_env, driver) = setup();
        let url = JdbcUrl::parse("jdbc:snmp://ghost/public").unwrap();
        assert!(matches!(
            driver.connect(&url, &Properties::new()).err().unwrap(),
            SqlError::Connection(_)
        ));
    }

    #[test]
    fn wildcard_url_probing() {
        let (_env, driver) = setup();
        assert!(driver.accepts_url(&JdbcUrl::parse("jdbc:://node00.s/public").unwrap()));
        assert!(!driver.accepts_url(&JdbcUrl::parse("jdbc:://nowhere/x").unwrap()));
        assert!(driver.accepts_url(&JdbcUrl::parse("jdbc:snmp://anything/x").unwrap()));
        assert!(!driver.accepts_url(&JdbcUrl::parse("jdbc:ganglia://node00.s/c").unwrap()));
    }

    #[test]
    fn fine_grained_fetch_requests_only_needed_oids() {
        let (env, driver) = setup();
        let before = env.network.stats_for("gw", "node00.s:snmp").snapshot();
        let _ = query(
            &driver,
            "jdbc:snmp://node00.s/public",
            "SELECT Load1 FROM Processor",
        );
        let after = env.network.stats_for("gw", "node00.s:snmp").snapshot();
        // connect probe + 1 GET for the single OID.
        assert_eq!(after.requests - before.requests, 2);
        // And the payloads are small (fine-grained property, E8).
        assert!(after.bytes_in - before.bytes_in < 200);
    }
}
