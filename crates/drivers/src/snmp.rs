//! The JDBC-SNMP driver: fine-grained, per-attribute native requests
//! (§3.2.4: "fine grained native requests for data are possible, with
//! generally little or no parsing required"). The driver adds none of its
//! own: a mapping key's OID is parsed once per source, and a GET's reply
//! is matched to the request by position, checked OID against OID, so a
//! warm query neither parses nor prints an OID.
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
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Driver name as registered with the gateway.
pub const DRIVER_NAME: &str = "jdbc-snmp";

/// GLUE groups whose rows are SNMP table walks rather than scalars.
const INDEXED_GROUPS: [&str; 3] = ["NetworkAdapter", "FileSystem", "Disk"];

fn snmp_to_sql(v: SnmpValue) -> SqlValue {
    match v {
        SnmpValue::Integer(i) => SqlValue::Int(i),
        SnmpValue::Counter64(c) => SqlValue::Int(c as i64),
        SnmpValue::Gauge(g) => SqlValue::Int(g as i64),
        SnmpValue::OctetString(s) => SqlValue::Str(s),
        SnmpValue::TimeTicks(t) => SqlValue::Int(t as i64),
        SnmpValue::ObjectId(o) => SqlValue::Str(o.to_string()),
        SnmpValue::Null => SqlValue::Null,
    }
}

/// The JDBC-SNMP driver.
pub type SnmpDriver = KitDriver<Snmp>;

/// A native key of the mapping with the OID it spells.
type Key = (String, Arc<Oid>);

/// The SNMP [`Source`].
pub struct Snmp {
    request_id: AtomicU32,
    /// The OID behind every native key a query has named so far, parsed
    /// when first named; `None` for a key that is not an OID (the
    /// mapping's `derived.*` names).
    parsed: Mutex<HashMap<String, Option<Arc<Oid>>>>,
}

impl Default for Snmp {
    fn default() -> Snmp {
        Snmp {
            request_id: AtomicU32::new(1),
            parsed: Mutex::default(),
        }
    }
}

impl Snmp {
    /// Pair each native key with its OID, skipping keys that are not
    /// OIDs. A key is parsed once per source, not once per query.
    fn compile(&self, keys: impl IntoIterator<Item = String>) -> Vec<Key> {
        let mut parsed = self.parsed.lock();
        let compiled = keys.into_iter().filter_map(|key| {
            let oid = match parsed.get(&key) {
                Some(known) => known.clone(),
                None => {
                    let oid = key.parse().ok().map(Arc::new);
                    parsed.insert(key.clone(), oid.clone());
                    oid
                }
            };
            Some((key, oid?))
        });
        compiled.collect()
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

/// GET the OIDs of `keys` in one request: the error status and the
/// bindings as a native row under those keys.
fn get(at: &Target<'_>, request_id: u32, keys: Vec<Key>) -> DbcResult<(u8, NativeRow)> {
    let oids = keys.iter().map(|(_, oid)| Oid::clone(oid)).collect();
    let (status, bindings) = exchange(at, Pdu::Get { request_id, oids })?;
    // An agent answers a GET binding for binding, so a reply's OID is
    // normally the one asked at its position and the value goes under
    // that key with no OID printed. The order is checked, not trusted: a
    // binding that is not the one asked there goes under its own dotted
    // form, which is how the mapping spells its keys.
    let mut asked = keys.into_iter();
    let row = bindings.into_iter().map(|(oid, value)| {
        let key = match asked.next() {
            Some((key, want)) if *want == oid => key,
            _ => oid.to_string(),
        };
        (key, snmp_to_sql(value))
    });
    Ok((status, row.collect()))
}

/// Walk one table column prefix with GETBULK, returning index → value.
fn walk(at: &Target<'_>, prefix: &Oid) -> DbcResult<BTreeMap<u32, SnmpValue>> {
    let mut out = BTreeMap::new();
    let mut cursor = prefix.clone();
    loop {
        let bulk = Pdu::GetBulk {
            request_id: 0,
            max_repetitions: 32,
            oid: cursor,
        };
        let (_, bindings) = exchange(at, bulk)?;
        let full = bindings.len() >= 32;
        let mut last = None;
        for (oid, value) in bindings {
            if !prefix.is_prefix_of(&oid) {
                return Ok(out);
            }
            if let Some(&idx) = oid.0.last() {
                out.insert(idx, value);
            }
            last = Some(oid);
        }
        // A short round was the last; a full one resumes after its end.
        match last {
            Some(oid) if full => cursor = oid,
            _ => return Ok(out),
        }
    }
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
        match get(at, id, self.compile([oids::SYS_NAME.to_owned()]))? {
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
        let mut keys = needed_keys(group, mapping, sel);
        if !INDEXED_GROUPS
            .iter()
            .any(|g| g.eq_ignore_ascii_case(&group.name))
        {
            // Single-row group: one GET with every needed OID.
            let keys = self.compile(keys);
            return Ok(vec![if keys.is_empty() {
                NativeRow::new()
            } else {
                get(at, 0, keys)?.1
            }]);
        }
        // FileSystem.AvailableMB is size - used: if the query wants it,
        // make sure both inputs are walked (last), then synthesise.
        let wants_avail = keys.iter().any(|k| k == "derived.hrStorageAvail");
        if wants_avail {
            for extra in [oids::HR_STORAGE_SIZE, oids::HR_STORAGE_USED] {
                if !keys.iter().any(|k| k == extra) {
                    keys.push(extra.to_owned());
                }
            }
        }
        // Indexed group: the sysName key is scalar, everything else that
        // is an OID (derived keys are not) is a column prefix to walk.
        let mut columns = self.compile(keys);
        let scalar_row = match columns.iter().position(|(k, _)| k == oids::SYS_NAME) {
            Some(sys_name) => get(at, 0, vec![columns.remove(sys_name)])?.1,
            None => NativeRow::new(),
        };
        let mut per_index: BTreeMap<u32, NativeRow> = BTreeMap::new();
        for (key, prefix) in &columns {
            for (idx, value) in walk(at, prefix)? {
                per_index
                    .entry(idx)
                    .or_default()
                    .insert(key.clone(), snmp_to_sql(value));
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
    fn filesystem_walk_requests_and_rows() {
        let (_env, driver) = setup();
        let rs = query(
            &driver,
            "jdbc:snmp://node00.s/public",
            "SELECT Hostname, Name, SizeMB, AvailableMB FROM FileSystem ORDER BY Name",
        );
        // The connect probe, a GET for sysName, then one GETBULK round
        // each for hrStorageDescr, hrStorageSize and — walked only to
        // derive AvailableMB — hrStorageUsed.
        assert_eq!(driver.stats().snapshot().1, 5);
        let host = || SqlValue::Str("node00.s".into());
        let int = SqlValue::Int;
        assert_eq!(
            rs.rows(),
            [
                [host(), SqlValue::Str("/".into()), int(60_000), int(23_477)],
                [host(), SqlValue::Str("/boot".into()), int(512), int(205)],
            ]
        );
    }

    #[test]
    fn a_reply_in_another_order_still_lands_under_the_right_keys() {
        let (env, driver) = setup();
        // An agent that answers a GET with the bindings back to front.
        let backwards = |_: &str, request: &[u8]| {
            let Ok(Pdu::Get { request_id, oids }) = codec::decode(request).map(|msg| msg.pdu)
            else {
                panic!("the driver sent something other than a GET");
            };
            let value = |oid: &Oid| match oid.to_string() {
                name if name == oids::SYS_NAME => SnmpValue::OctetString("backwards".into()),
                ncpu if ncpu == oids::HR_NUM_CPU => SnmpValue::Integer(16),
                _ => SnmpValue::Integer(250), // laLoadInt.1, in centi-load
            };
            let bindings = oids.iter().rev().map(|oid| (oid.clone(), value(oid)));
            codec::encode(&SnmpMessage::v2c(
                "public",
                Pdu::Response {
                    request_id,
                    error_status: error_status::NO_ERROR,
                    bindings: bindings.collect(),
                },
            ))
        };
        env.network.register("backwards:snmp", Arc::new(backwards));
        let rs = query(
            &driver,
            "jdbc:snmp://backwards/public",
            "SELECT Hostname, NCpu, Load1 FROM Processor",
        );
        assert_eq!(
            rs.rows(),
            [[
                SqlValue::Str("backwards".into()),
                SqlValue::Int(16),
                SqlValue::Float(2.5)
            ]]
        );
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
