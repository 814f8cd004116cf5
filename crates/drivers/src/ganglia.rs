//! The JDBC-Ganglia driver: coarse-grained whole-cluster XML responses
//! (§3.2.4: "responses are typically coarse grained. A greater overhead is
//! required to parse values from the response, which is typically XML").
//!
//! Per the paper's guidance that "implementations should address these
//! issues by using caching policies within the plug-in, as appropriate for
//! the characteristics of a particular type of data source", this driver
//! supports:
//!
//! * a TTL cache of the raw dump (`?ttl=<ms>`, default 5000 virtual ms) —
//!   one gmond fetch serves many queries;
//! * eager (`?parse=eager`, default) vs lazy (`?parse=lazy`) parsing —
//!   eager runs the full XML scanner once and caches typed rows; lazy
//!   string-scans only the metrics a query actually needs.
//!
//! URL form: `jdbc:ganglia://<head-host>/<cluster>[?ttl=ms&parse=mode]`.

use crate::base::{guess_value, needed_keys, KitDriver, Source, Target};
use crate::xml::{attr, scan, XmlEvent};
use gridrm_dbc::{DbcResult, DriverMetaData, SqlError};
use gridrm_glue::{DriverMapping, GroupDef, NativeRow};
use gridrm_sqlparse::ast::SelectStatement;
use gridrm_sqlparse::SqlValue;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Driver name as registered with the gateway.
pub const DRIVER_NAME: &str = "jdbc-ganglia";

struct CacheEntry {
    fetched_ms: u64,
    raw: Arc<String>,
    parsed: Option<Arc<Vec<NativeRow>>>,
}

/// The JDBC-Ganglia driver.
pub type GangliaDriver = KitDriver<Ganglia>;

/// The Ganglia [`Source`]: a per-head-node TTL cache of the gmond dump.
#[derive(Default)]
pub struct Ganglia {
    cache: Mutex<HashMap<String, CacheEntry>>,
}

impl Ganglia {
    /// Fetch the raw dump, honouring the TTL cache.
    fn fetch_raw(&self, at: &Target<'_>) -> DbcResult<Arc<String>> {
        let host = &at.url.host;
        let now = at.env.clock.now_millis();
        let ttl: u64 = at
            .url
            .param("ttl")
            .and_then(|s| s.parse().ok())
            .unwrap_or(5000);
        {
            let cache = self.cache.lock();
            if let Some(entry) = cache.get(host) {
                if ttl > 0 && now.saturating_sub(entry.fetched_ms) < ttl {
                    at.stats.hit();
                    return Ok(entry.raw.clone());
                }
            }
        }
        let bytes = at.request("ganglia", b"")?;
        let raw = Arc::new(
            String::from_utf8(bytes)
                .map_err(|_| SqlError::Driver("gmond returned non-UTF-8 XML".into()))?,
        );
        self.cache.lock().insert(
            host.clone(),
            CacheEntry {
                fetched_ms: now,
                raw: raw.clone(),
                parsed: None,
            },
        );
        Ok(raw)
    }

    /// Eager path: parsed rows, cached alongside the raw text.
    fn fetch_parsed(&self, at: &Target<'_>) -> DbcResult<Arc<Vec<NativeRow>>> {
        let raw = self.fetch_raw(at)?;
        {
            let cache = self.cache.lock();
            if let Some(entry) = cache.get(&at.url.host) {
                if Arc::ptr_eq(&entry.raw, &raw) {
                    if let Some(parsed) = &entry.parsed {
                        return Ok(parsed.clone());
                    }
                }
            }
        }
        at.stats.parsed(raw.len());
        let rows = Arc::new(parse_dump_eager(&raw)?);
        let mut cache = self.cache.lock();
        if let Some(entry) = cache.get_mut(&at.url.host) {
            if Arc::ptr_eq(&entry.raw, &raw) {
                entry.parsed = Some(rows.clone());
            }
        }
        Ok(rows)
    }
}

/// Full XML scan into one native row per host.
pub fn parse_dump_eager(xml: &str) -> DbcResult<Vec<NativeRow>> {
    let events = scan(xml).map_err(|e| SqlError::Driver(format!("bad gmond XML: {e}")))?;
    let mut rows = Vec::new();
    let mut current: Option<NativeRow> = None;
    for ev in events {
        match ev {
            XmlEvent::Open { name, attrs } if name == "HOST" => {
                let mut row = NativeRow::new();
                if let Some(h) = attr(&attrs, "NAME") {
                    row.insert("host.name".into(), SqlValue::Str(h.to_owned()));
                }
                if let Some(ip) = attr(&attrs, "IP") {
                    row.insert("host.ip".into(), SqlValue::Str(ip.to_owned()));
                }
                if let Some(rep) = attr(&attrs, "REPORTED") {
                    row.insert("host.reported".into(), guess_value(rep));
                }
                current = Some(row);
            }
            XmlEvent::SelfClose { name, attrs } if name == "METRIC" => {
                if let Some(row) = current.as_mut() {
                    if let (Some(metric), Some(val)) = (attr(&attrs, "NAME"), attr(&attrs, "VAL")) {
                        row.insert(metric.to_owned(), guess_value(val));
                    }
                }
            }
            XmlEvent::Close { name } if name == "HOST" => {
                if let Some(mut row) = current.take() {
                    // derived.uptime_sec = REPORTED - boottime.
                    let reported = row.get("host.reported").and_then(SqlValue::as_i64);
                    let boot = row.get("boottime").and_then(SqlValue::as_i64);
                    if let (Some(r), Some(b)) = (reported, boot) {
                        row.insert("derived.uptime_sec".into(), SqlValue::Int(r - b));
                    }
                    rows.push(row);
                }
            }
            _ => {}
        }
    }
    Ok(rows)
}

/// Lazy path: extract only `needed` metric names (plus host attributes)
/// with a line scan instead of a full XML parse.
pub fn parse_dump_lazy(xml: &str, needed: &[String]) -> Vec<NativeRow> {
    let mut rows = Vec::new();
    let mut current: Option<NativeRow> = None;
    for line in xml.lines() {
        let line = line.trim_start();
        if let Some(rest) = line.strip_prefix("<HOST ") {
            let mut row = NativeRow::new();
            if let Some(name) = extract_attr(rest, "NAME") {
                row.insert(
                    "host.name".into(),
                    SqlValue::Str(crate::xml::unescape(&name)),
                );
            }
            if let Some(ip) = extract_attr(rest, "IP") {
                row.insert("host.ip".into(), SqlValue::Str(ip));
            }
            if let Some(rep) = extract_attr(rest, "REPORTED") {
                row.insert("host.reported".into(), guess_value(&rep));
            }
            current = Some(row);
        } else if line.starts_with("</HOST>") {
            if let Some(mut row) = current.take() {
                if needed.iter().any(|n| n == "derived.uptime_sec") {
                    let reported = row.get("host.reported").and_then(SqlValue::as_i64);
                    let boot = row.get("boottime").and_then(SqlValue::as_i64);
                    if let (Some(r), Some(b)) = (reported, boot) {
                        row.insert("derived.uptime_sec".into(), SqlValue::Int(r - b));
                    }
                }
                rows.push(row);
            }
        } else if let Some(rest) = line.strip_prefix("<METRIC ") {
            let Some(row) = current.as_mut() else {
                continue;
            };
            let Some(name) = extract_attr(rest, "NAME") else {
                continue;
            };
            // `boottime` feeds the derived uptime, so treat it as needed
            // whenever uptime is.
            let wanted = needed.contains(&name)
                || (name == "boottime" && needed.iter().any(|n| n == "derived.uptime_sec"));
            if wanted {
                if let Some(val) = extract_attr(rest, "VAL") {
                    row.insert(name, guess_value(&val));
                }
            }
        }
    }
    rows
}

fn extract_attr(tag_rest: &str, key: &str) -> Option<String> {
    let pat = format!("{key}=\"");
    let idx = tag_rest.find(&pat)?;
    let rest = &tag_rest[idx + pat.len()..];
    let end = rest.find('"')?;
    Some(rest[..end].to_owned())
}

impl Source for Ganglia {
    fn meta(&self) -> DriverMetaData {
        DriverMetaData {
            name: DRIVER_NAME.to_owned(),
            subprotocol: "ganglia".to_owned(),
            version: (1, 0),
            description: "GridRM driver for Ganglia gmond XML cluster dumps".to_owned(),
        }
    }

    /// A gmond answers any payload with an XML dump.
    fn probe(&self, at: &Target<'_>) -> DbcResult<()> {
        let bytes = at.env.native_request(&at.url.host, "ganglia", b"")?;
        if bytes.starts_with(b"<?xml") {
            Ok(())
        } else {
            Err(SqlError::Connection(format!(
                "{} did not answer with a gmond XML dump",
                at.url.host
            )))
        }
    }

    /// Prime the cache (and verify connectivity).
    fn open(&self, at: &Target<'_>) -> DbcResult<()> {
        self.fetch_raw(at).map(|_| ())
    }

    fn fetch(
        &self,
        at: &Target<'_>,
        group: &GroupDef,
        mapping: &DriverMapping,
        sel: &SelectStatement,
    ) -> DbcResult<Vec<NativeRow>> {
        if at.url.param("parse") == Some("lazy") {
            let raw = self.fetch_raw(at)?;
            at.stats.parsed(raw.len());
            Ok(parse_dump_lazy(&raw, &needed_keys(group, mapping, sel)))
        } else {
            Ok((*self.fetch_parsed(at)?).clone())
        }
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

    fn setup(hosts: usize) -> (Arc<DriverEnv>, Arc<GangliaDriver>) {
        let net = Network::new(SimClock::new(), 7);
        let site = SiteModel::generate(13, &SiteSpec::new("g", hosts, 2));
        site.advance_to(300_000);
        deploy_site(&net, site);
        let schema = Arc::new(SchemaManager::new());
        schema.register_mapping(crate::mappings::ganglia_mapping());
        let env = DriverEnv::new(net, schema, "gw");
        let driver = GangliaDriver::new(env.clone());
        (env, driver)
    }

    fn query(driver: &Arc<GangliaDriver>, url: &str, sql: &str) -> gridrm_dbc::RowSet {
        let url = JdbcUrl::parse(url).unwrap();
        let mut conn = driver.connect(&url, &Properties::new()).unwrap();
        let mut stmt = conn.create_statement().unwrap();
        let mut rs = stmt.execute_query(sql).unwrap();
        gridrm_dbc::RowSet::materialize(rs.as_mut()).unwrap()
    }

    #[test]
    fn cluster_query_returns_row_per_host() {
        let (_env, driver) = setup(4);
        let rs = query(
            &driver,
            "jdbc:ganglia://node00.g/g",
            "SELECT Hostname, NCpu, Load1 FROM Processor ORDER BY Hostname",
        );
        assert_eq!(rs.len(), 4);
        assert_eq!(rs.rows()[0][0], SqlValue::Str("node00.g".into()));
        assert_eq!(rs.rows()[3][0], SqlValue::Str("node03.g".into()));
        assert_eq!(rs.rows()[0][1], SqlValue::Int(2));
    }

    #[test]
    fn memory_unit_conversion() {
        let (_env, driver) = setup(1);
        let rs = query(
            &driver,
            "jdbc:ganglia://node00.g/g",
            "SELECT RAMSizeMB FROM MainMemory",
        );
        // Simulated hosts have 2048 MB; gmond reports KB; mapping scales back.
        assert_eq!(rs.rows()[0][0].as_i64().unwrap(), 2048);
    }

    #[test]
    fn ttl_cache_avoids_refetch() {
        let (env, driver) = setup(2);
        let url = "jdbc:ganglia://node00.g/g?ttl=10000";
        let _ = query(&driver, url, "SELECT Load1 FROM Processor");
        let served_before = env
            .network
            .endpoint_stats("node00.g:ganglia")
            .unwrap()
            .snapshot()
            .requests_served;
        for _ in 0..5 {
            let _ = query(&driver, url, "SELECT Load1 FROM Processor");
        }
        let served_after = env
            .network
            .endpoint_stats("node00.g:ganglia")
            .unwrap()
            .snapshot()
            .requests_served;
        assert_eq!(served_after, served_before, "cache was bypassed");

        // Advance past the TTL: next query refetches.
        env.clock.advance(20_000);
        let _ = query(&driver, url, "SELECT Load1 FROM Processor");
        let served_final = env
            .network
            .endpoint_stats("node00.g:ganglia")
            .unwrap()
            .snapshot()
            .requests_served;
        assert_eq!(served_final, served_before + 1);
    }

    #[test]
    fn ttl_zero_disables_cache() {
        let (env, driver) = setup(1);
        let url = "jdbc:ganglia://node00.g/g?ttl=0";
        let _ = query(&driver, url, "SELECT Load1 FROM Processor");
        let _ = query(&driver, url, "SELECT Load1 FROM Processor");
        let served = env
            .network
            .endpoint_stats("node00.g:ganglia")
            .unwrap()
            .snapshot()
            .requests_served;
        // connect primes once, then each query fetches.
        assert!(served >= 3, "served {served}");
    }

    #[test]
    fn lazy_and_eager_agree() {
        let (_env, driver) = setup(3);
        let sql = "SELECT Hostname, Load1, CpuIdle FROM Processor ORDER BY Hostname";
        let eager = query(&driver, "jdbc:ganglia://node00.g/g?parse=eager", sql);
        let lazy = query(&driver, "jdbc:ganglia://node00.g/g?parse=lazy", sql);
        assert_eq!(eager.rows(), lazy.rows());
    }

    #[test]
    fn os_group_via_strings() {
        let (_env, driver) = setup(1);
        let rs = query(
            &driver,
            "jdbc:ganglia://node00.g/g",
            "SELECT Name, Release, Version FROM OperatingSystem",
        );
        assert_eq!(rs.rows()[0][0], SqlValue::Str("Linux".into()));
        assert_eq!(rs.rows()[0][1], SqlValue::Str("2.4.20".into()));
        // Version unmapped by gmond → NULL.
        assert!(rs.rows()[0][2].is_null());
    }

    #[test]
    fn derived_uptime() {
        let (_env, driver) = setup(1);
        let rs = query(
            &driver,
            "jdbc:ganglia://node00.g/g",
            "SELECT UpTimeSec FROM Host",
        );
        assert_eq!(rs.rows()[0][0].as_i64().unwrap(), 300);
        let lazy = query(
            &driver,
            "jdbc:ganglia://node00.g/g?parse=lazy",
            "SELECT UpTimeSec FROM Host",
        );
        assert_eq!(lazy.rows()[0][0].as_i64().unwrap(), 300);
    }

    #[test]
    fn wildcard_probe() {
        let (_env, driver) = setup(1);
        assert!(driver.accepts_url(&JdbcUrl::parse("jdbc:://node00.g/x").unwrap()));
        assert!(!driver.accepts_url(&JdbcUrl::parse("jdbc:://nowhere/x").unwrap()));
    }

    #[test]
    fn unknown_host_fails_connect() {
        let (_env, driver) = setup(1);
        let url = JdbcUrl::parse("jdbc:ganglia://ghost/g").unwrap();
        assert!(driver.connect(&url, &Properties::new()).is_err());
    }
}
