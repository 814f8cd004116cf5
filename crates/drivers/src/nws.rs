//! The JDBC-NWS driver: plain-text Network Weather Service responses for
//! the GLUE `NetworkElement` group, including forecasts.
//!
//! Per §3.2.4's guidance that caching policies be chosen "as appropriate
//! for the characteristics of a particular type of data source", the
//! driver caches translated pair rows with a TTL (`?ttl=<ms>`, default 0 —
//! forecasts are usually wanted fresh; NWS sensors measure every ~60 s,
//! so a TTL up to that is safe).
//!
//! URL form: `jdbc:nws://<head-host>/<path>[?ttl=ms]` (the path is
//! ignored, as with a real NWS nameserver registration namespace).

use crate::base::{guess_value, KitDriver, Source, Target, TtlCache};
use gridrm_dbc::{DbcResult, DriverMetaData, SqlError};
use gridrm_glue::{DriverMapping, GroupDef, NativeRow};
use gridrm_sqlparse::ast::SelectStatement;
use gridrm_sqlparse::SqlValue;

/// Driver name as registered with the gateway.
pub const DRIVER_NAME: &str = "jdbc-nws";

/// The JDBC-NWS driver.
pub type NwsDriver = KitDriver<Nws>;

/// The NWS [`Source`]: a TTL cache of fetched pair rows, keyed by
/// `(host, with_forecast)`.
#[derive(Default)]
pub struct Nws {
    cache: TtlCache<(String, bool), Vec<NativeRow>>,
}

/// Send one NWS command; the reply text (which may be an `ERROR` line).
fn text_request(at: &Target<'_>, cmd: &str) -> DbcResult<String> {
    let bytes = at.request("nws", cmd.as_bytes())?;
    at.stats.parsed(bytes.len());
    String::from_utf8(bytes).map_err(|_| SqlError::Driver("NWS returned non-UTF-8 text".into()))
}

/// Parse `key value [key value ...]`-style NWS lines into a map.
fn parse_kv_lines(text: &str) -> NativeRow {
    let mut row = NativeRow::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let Some(key) = parts.next() else { continue };
        let Some(value) = parts.next() else { continue };
        row.insert(key.to_owned(), guess_value(value));
        // FORECAST lines carry `method <name> mse <e>` suffixes.
        let rest: Vec<&str> = parts.collect();
        let mut i = 0;
        while i + 1 < rest.len() {
            row.insert(format!("{key}.{}", rest[i]), guess_value(rest[i + 1]));
            i += 2;
        }
    }
    row
}

impl Source for Nws {
    fn meta(&self) -> DriverMetaData {
        DriverMetaData {
            name: DRIVER_NAME.to_owned(),
            subprotocol: "nws".to_owned(),
            version: (1, 0),
            description: "GridRM driver for the Network Weather Service".to_owned(),
        }
    }

    fn probe(&self, at: &Target<'_>) -> DbcResult<()> {
        let text = text_request(at, "SERIES")?;
        if text.starts_with("ERROR") {
            return Err(SqlError::Driver(format!("NWS: {}", text.trim())));
        }
        Ok(())
    }

    fn fetch(
        &self,
        at: &Target<'_>,
        _group: &GroupDef,
        _mapping: &DriverMapping,
        sel: &SelectStatement,
    ) -> DbcResult<Vec<NativeRow>> {
        // Does the query need forecasts at all? (Avoid the expensive
        // FORECAST call when only raw measurements are selected.)
        let needs_forecast = match sel.required_columns() {
            Some(cols) => cols
                .iter()
                .any(|c| c.to_ascii_lowercase().contains("forecast")),
            None => true,
        };

        // Fresh enough pair rows are served without touching the sensor.
        let key = (at.url.host.clone(), needs_forecast);
        self.cache
            .get_or_fetch(at, at.ttl_ms(0)?, key, || pair_rows(at, needs_forecast))
    }
}

/// One native row per measured host pair, straight from the sensor.
fn pair_rows(at: &Target<'_>, needs_forecast: bool) -> DbcResult<Vec<NativeRow>> {
    // 1. Which pairs exist?
    let series = text_request(at, "SERIES")?;
    let mut pairs: Vec<(&str, &str)> = Vec::new();
    for line in series.lines() {
        let mut parts = line.split_whitespace();
        if parts.next() == Some("bandwidthMbps") {
            if let (Some(s), Some(d)) = (parts.next(), parts.next()) {
                pairs.push((s, d));
            }
        }
    }

    // 2. One MEASURE (and maybe FORECAST) per pair — coarse-grained.
    let mut native_rows = Vec::with_capacity(pairs.len());
    for (src, dst) in pairs {
        let measure = text_request(at, &format!("MEASURE {src} {dst}"))?;
        if measure.starts_with("ERROR") {
            continue;
        }
        let mut row = parse_kv_lines(&measure);
        row.insert("src".into(), SqlValue::Str(src.to_owned()));
        row.insert("dst".into(), SqlValue::Str(dst.to_owned()));
        if needs_forecast {
            let text = text_request(at, &format!("FORECAST {src} {dst}"))?;
            if !text.starts_with("ERROR") {
                let f = parse_kv_lines(&text);
                for (from, to) in [
                    ("bandwidthMbps_forecast", "forecastBandwidthMbps"),
                    ("latencyMs_forecast", "forecastLatencyMs"),
                    ("bandwidthMbps_forecast.method", "forecastMethod"),
                ] {
                    if let Some(v) = f.get(from) {
                        row.insert(to.into(), v.clone());
                    }
                }
            }
        }
        native_rows.push(row);
    }
    Ok(native_rows)
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

    fn setup() -> (Arc<DriverEnv>, Arc<NwsDriver>) {
        let net = Network::new(SimClock::new(), 4);
        let mut spec = SiteSpec::new("n", 3, 2);
        spec.peers = vec!["node00.remote".to_owned()];
        let site = SiteModel::generate(5, &spec);
        site.advance_to(1_800_000);
        deploy_site(&net, site);
        let schema = Arc::new(SchemaManager::new());
        schema.register_mapping(crate::mappings::nws_mapping());
        let env = DriverEnv::new(net, schema, "gw");
        let driver = NwsDriver::new(env.clone());
        (env, driver)
    }

    fn query(driver: &NwsDriver, sql: &str) -> gridrm_dbc::RowSet {
        let url = JdbcUrl::parse("jdbc:nws://node00.n/perfdata").unwrap();
        let mut conn = driver.connect(&url, &Properties::new()).unwrap();
        let mut stmt = conn.create_statement().unwrap();
        let mut rs = stmt.execute_query(sql).unwrap();
        gridrm_dbc::RowSet::materialize(rs.as_mut()).unwrap()
    }

    #[test]
    fn network_element_rows() {
        let (_env, driver) = setup();
        let rs = query(&driver, "SELECT * FROM NetworkElement");
        assert!(rs.len() >= 2, "{} pairs", rs.len());
        let src = rs.meta().column_index("SourceHost").unwrap();
        let bw = rs.meta().column_index("BandwidthMbps").unwrap();
        let fm = rs.meta().column_index("ForecastMethod").unwrap();
        for row in rs.rows() {
            assert!(!row[src].is_null());
            assert!(row[bw].as_f64().unwrap() > 0.0);
            assert!(!row[fm].is_null(), "forecast method missing");
        }
    }

    #[test]
    fn forecast_skipped_when_not_selected() {
        let (env, driver) = setup();
        let before = env
            .network
            .stats_for("gw", "node00.n:nws")
            .snapshot()
            .requests;
        let rs = query(
            &driver,
            "SELECT SourceHost, BandwidthMbps FROM NetworkElement",
        );
        let after = env
            .network
            .stats_for("gw", "node00.n:nws")
            .snapshot()
            .requests;
        let per_pair = (after - before - 2) as usize; // minus connect probe + SERIES
        assert_eq!(per_pair, rs.len(), "one MEASURE per pair, no FORECAST");
    }

    #[test]
    fn where_filters_pairs() {
        let (_env, driver) = setup();
        let rs = query(
            &driver,
            "SELECT SourceHost, DestHost FROM NetworkElement WHERE DestHost = 'node00.remote'",
        );
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn wildcard_probe() {
        let (_env, driver) = setup();
        assert!(driver.accepts_url(&JdbcUrl::parse("jdbc:://node00.n/x").unwrap()));
        assert!(!driver.accepts_url(&JdbcUrl::parse("jdbc:://ghost/x").unwrap()));
    }

    #[test]
    fn bad_ttl_fails_the_fetch() {
        let (_env, driver) = setup();
        let url = JdbcUrl::parse("jdbc:nws://node00.n/perfdata?ttl=5s").unwrap();
        let mut conn = driver.connect(&url, &Properties::new()).unwrap();
        let mut stmt = conn.create_statement().unwrap();
        match stmt.execute_query("SELECT SourceHost FROM NetworkElement") {
            Err(SqlError::Connection(msg)) => assert!(msg.starts_with("bad ?ttl= '5s'"), "{msg}"),
            other => panic!("{:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn kv_parser_handles_method_suffix() {
        let row = parse_kv_lines("bandwidthMbps_forecast 42.5 method sliding_mean_5 mse 0.01\n");
        assert_eq!(
            row.get("bandwidthMbps_forecast"),
            Some(&SqlValue::Float(42.5))
        );
        assert_eq!(
            row.get("bandwidthMbps_forecast.method"),
            Some(&SqlValue::Str("sliding_mean_5".into()))
        );
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use crate::base::DriverEnv;
    use gridrm_agents::deploy_site;
    use gridrm_dbc::{Driver, JdbcUrl, Properties};
    use gridrm_glue::SchemaManager;
    use gridrm_resmodel::{SiteModel, SiteSpec};
    use gridrm_simnet::{Network, SimClock};
    use std::sync::Arc;

    #[test]
    fn ttl_cache_avoids_sensor_traffic() {
        let net = Network::new(SimClock::new(), 3);
        let mut spec = SiteSpec::new("nc", 2, 2);
        spec.peers = vec!["node00.far".to_owned()];
        let site = SiteModel::generate(19, &spec);
        site.advance_to(900_000);
        deploy_site(&net, site);
        let schema = Arc::new(SchemaManager::new());
        schema.register_mapping(crate::mappings::nws_mapping());
        let env = DriverEnv::new(net.clone(), schema, "gw");
        let driver = NwsDriver::new(env.clone());

        let url = JdbcUrl::parse("jdbc:nws://node00.nc/perf?ttl=30000").unwrap();
        let mut conn = driver.connect(&url, &Properties::new()).unwrap();
        let mut stmt = conn.create_statement().unwrap();
        let sql = "SELECT SourceHost, BandwidthMbps FROM NetworkElement";
        let _ = stmt.execute_query(sql).unwrap();
        let agent = net.endpoint_stats("node00.nc:nws").unwrap();
        let before = agent.snapshot().requests_served;
        for _ in 0..10 {
            let _ = stmt.execute_query(sql).unwrap();
        }
        assert_eq!(agent.snapshot().requests_served, before, "cache bypassed");
        // After the TTL, the sensor is consulted again.
        env.clock.advance(60_000);
        let _ = stmt.execute_query(sql).unwrap();
        assert!(agent.snapshot().requests_served > before);
        let (_q, _n, hits, _b) = driver.stats().snapshot();
        assert_eq!(hits, 10);
    }

    #[test]
    fn forecast_and_plain_cached_separately() {
        let net = Network::new(SimClock::new(), 3);
        let mut spec = SiteSpec::new("nd", 2, 2);
        spec.peers = vec!["node00.far".to_owned()];
        let site = SiteModel::generate(23, &spec);
        site.advance_to(900_000);
        deploy_site(&net, site);
        let schema = Arc::new(SchemaManager::new());
        schema.register_mapping(crate::mappings::nws_mapping());
        let env = DriverEnv::new(net.clone(), schema, "gw");
        let driver = NwsDriver::new(env);

        let url = JdbcUrl::parse("jdbc:nws://node00.nd/perf?ttl=30000").unwrap();
        let mut conn = driver.connect(&url, &Properties::new()).unwrap();
        let mut stmt = conn.create_statement().unwrap();
        // Plain query cached; forecast query must still hit the sensor
        // once (different cache key), then be served from cache too.
        let _ = stmt
            .execute_query("SELECT SourceHost, BandwidthMbps FROM NetworkElement")
            .unwrap();
        let agent = net.endpoint_stats("node00.nd:nws").unwrap();
        let before = agent.snapshot().requests_served;
        let rs = stmt
            .execute_query("SELECT SourceHost, ForecastMethod FROM NetworkElement")
            .unwrap();
        drop(rs);
        assert!(agent.snapshot().requests_served > before);
        let mid = agent.snapshot().requests_served;
        let _ = stmt
            .execute_query("SELECT SourceHost, ForecastMethod FROM NetworkElement")
            .unwrap();
        assert_eq!(agent.snapshot().requests_served, mid);
    }
}
