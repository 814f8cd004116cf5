//! The JDBC-Ganglia driver: coarse-grained whole-cluster XML responses
//! (§3.2.4: "responses are typically coarse grained. A greater overhead is
//! required to parse values from the response, which is typically XML").
//!
//! Per the paper's guidance that "implementations should address these
//! issues by using caching policies within the plug-in, as appropriate for
//! the characteristics of a particular type of data source", the driver
//! keeps each head node's dump in the kit's [`TtlCache`] (`?ttl=<ms>`,
//! default 5000 virtual ms), so one gmond fetch serves many queries.
//!
//! There is one parser, [`parse_dump`]. It checks every tag of the dump
//! and builds only the native keys it is asked to keep. A dump that will
//! be served again is parsed once for every key, the rows kept beside the
//! text, and each query copies out the keys it names; a dump that cannot
//! be (`ttl=0`) is parsed for the query's keys alone and dropped.
//!
//! URL form: `jdbc:ganglia://<head-host>/<cluster>[?ttl=ms]`.

use crate::base::{guess_value, needed_keys, KitDriver, Source, Target, TtlCache};
use crate::xml::{Tag, Tags, XmlError};
use gridrm_dbc::{DbcResult, DriverMetaData, SqlError};
use gridrm_glue::{DriverMapping, GroupDef, NativeRow};
use gridrm_sqlparse::ast::SelectStatement;
use gridrm_sqlparse::SqlValue;
use std::sync::{Arc, OnceLock};

/// Driver name as registered with the gateway.
pub const DRIVER_NAME: &str = "jdbc-ganglia";

/// `?ttl=` when the URL has none: gmond's own metrics are seconds old.
const DEFAULT_TTL_MS: u64 = 5000;

/// One fetched dump and, from the first query that is answered from it,
/// the outcome of parsing it in full.
struct Dump {
    raw: String,
    rows: OnceLock<DbcResult<Vec<NativeRow>>>,
}

/// The JDBC-Ganglia driver.
pub type GangliaDriver = KitDriver<Ganglia>;

/// The Ganglia [`Source`]: a per-head-node TTL cache of the gmond dump.
#[derive(Default)]
pub struct Ganglia {
    cache: TtlCache<String, Arc<Dump>>,
}

impl Ganglia {
    /// The head node's dump, honouring the TTL cache.
    fn dump(&self, at: &Target<'_>, ttl_ms: u64) -> DbcResult<Arc<Dump>> {
        self.cache
            .get_or_fetch(at, ttl_ms, at.url.host.clone(), || {
                let raw = String::from_utf8(at.request("ganglia", b"")?)
                    .map_err(|_| SqlError::Driver("gmond returned non-UTF-8 XML".into()))?;
                let rows = OnceLock::new();
                Ok(Arc::new(Dump { raw, rows }))
            })
    }
}

/// The one gmond parser: one native row per `<HOST>`, holding those of
/// its attributes (`host.*`), metrics and `derived.uptime_sec` that
/// `keep` names — all of them when `keep` is `None`. Every tag and
/// attribute of the dump is checked whatever `keep` says, so damage
/// inside a metric nobody asked for is still an error.
pub fn parse_dump(xml: &str, keep: Option<&[String]>) -> DbcResult<Vec<NativeRow>> {
    let bad = |e: XmlError| SqlError::Driver(format!("bad gmond XML: {e}"));
    let want = |key: &str| keep.is_none_or(|keep| keep.iter().any(|k| k == key));
    let mut rows = Vec::new();
    // The open <HOST>: its row so far, then REPORTED and boottime, which
    // derived.uptime_sec is made of whether or not they are kept.
    let mut host: Option<(NativeRow, Option<i64>, Option<i64>)> = None;
    for tag in Tags::new(xml) {
        match tag.map_err(bad)? {
            Tag::Open("HOST", attrs) => {
                let (mut row, mut reported) = (NativeRow::new(), None);
                for attr in attrs {
                    let (key, val) = match attr.map_err(bad)? {
                        ("NAME", v) => ("host.name", SqlValue::Str(v.into_owned())),
                        ("IP", v) => ("host.ip", SqlValue::Str(v.into_owned())),
                        ("REPORTED", v) => {
                            let val = guess_value(&v);
                            reported = val.as_i64();
                            ("host.reported", val)
                        }
                        _ => continue,
                    };
                    if want(key) {
                        row.insert(key.to_owned(), val);
                    }
                }
                host = Some((row, reported, None));
            }
            Tag::SelfClose("METRIC", attrs) => {
                let (mut name, mut val) = (None, None);
                for attr in attrs {
                    match attr.map_err(bad)? {
                        ("NAME", v) => name = Some(v),
                        ("VAL", v) => val = Some(v),
                        _ => {}
                    }
                }
                if let (Some((row, _, boot)), Some(name), Some(val)) = (host.as_mut(), name, val) {
                    if name == "boottime" {
                        *boot = guess_value(&val).as_i64();
                    }
                    if want(&name) {
                        row.insert(name.into_owned(), guess_value(&val));
                    }
                }
            }
            Tag::Close("HOST") => {
                let Some((mut row, reported, boot)) = host.take() else {
                    continue;
                };
                let uptime = reported.zip(boot).and_then(|(r, b)| r.checked_sub(b));
                if let Some(up) = uptime.filter(|_| want("derived.uptime_sec")) {
                    row.insert("derived.uptime_sec".into(), SqlValue::Int(up));
                }
                rows.push(row);
            }
            Tag::Open(_, attrs) | Tag::SelfClose(_, attrs) => {
                for attr in attrs {
                    attr.map_err(bad)?;
                }
            }
            Tag::Close(_) => {}
        }
    }
    Ok(rows)
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
        self.dump(at, at.ttl_ms(DEFAULT_TTL_MS)?).map(|_| ())
    }

    fn fetch(
        &self,
        at: &Target<'_>,
        group: &GroupDef,
        mapping: &DriverMapping,
        sel: &SelectStatement,
    ) -> DbcResult<Vec<NativeRow>> {
        let keep = needed_keys(group, mapping, sel);
        let ttl_ms = at.ttl_ms(DEFAULT_TTL_MS)?;
        let dump = self.dump(at, ttl_ms)?;
        if ttl_ms == 0 {
            // Never served again: build what this query names, no more.
            at.stats.parsed(dump.raw.len());
            return parse_dump(&dump.raw, Some(&keep));
        }
        let parsed = dump.rows.get_or_init(|| {
            at.stats.parsed(dump.raw.len());
            parse_dump(&dump.raw, None)
        });
        let rows = parsed.as_ref().map_err(Clone::clone)?;
        let pick = |row: &NativeRow| {
            let kept = keep.iter().filter_map(|k| row.get_key_value(k));
            kept.map(|(k, v)| (k.clone(), v.clone())).collect()
        };
        Ok(rows.iter().map(pick).collect())
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
        driver_on(net)
    }

    fn driver_on(net: Arc<Network>) -> (Arc<DriverEnv>, Arc<GangliaDriver>) {
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
        // Parsed for UpTimeSec alone: boottime is read but not kept.
        let fresh = query(
            &driver,
            "jdbc:ganglia://node00.g/g?ttl=0",
            "SELECT UpTimeSec FROM Host",
        );
        assert_eq!(fresh.rows()[0][0].as_i64().unwrap(), 300);
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

    /// A driver whose head node `head` answers every request with `body`.
    fn fixed_gmond(body: &[u8]) -> Arc<GangliaDriver> {
        let net = Network::new(SimClock::new(), 7);
        let body = body.to_vec();
        net.register(
            "head:ganglia",
            Arc::new(move |_: &str, _: &[u8]| body.clone()),
        );
        driver_on(net).1
    }

    #[test]
    fn damage_in_an_unread_metric_is_rejected_on_both_ttl_sides() {
        let dump = r#"<?xml version="1.0"?>
<GANGLIA_XML VERSION="2.5.7" SOURCE="gmond">
<CLUSTER NAME="c" LOCALTIME="120">
<HOST NAME="head" IP="10.0.0.1" REPORTED="120">
<METRIC NAME="load_one" VAL="0.75" TYPE="float" UNITS=""/>
<METRIC NAME="machine_type" VAL="x86 TYPE="string" UNITS=""/>
</HOST>
</CLUSTER>
</GANGLIA_XML>
"#;
        let driver = fixed_gmond(dump.as_bytes());
        for ttl in [0, 10_000] {
            let url = JdbcUrl::parse(&format!("jdbc:ganglia://head/c?ttl={ttl}")).unwrap();
            let mut conn = driver.connect(&url, &Properties::new()).unwrap();
            let mut stmt = conn.create_statement().unwrap();
            // Twice: the cached side must not forget the verdict.
            for _ in 0..2 {
                match stmt.execute_query("SELECT Load1 FROM Processor") {
                    Err(SqlError::Driver(msg)) => {
                        assert!(msg.starts_with("bad gmond XML: "), "{msg}")
                    }
                    other => panic!("ttl={ttl}: {:?}", other.map(|_| ())),
                }
            }
        }
    }

    #[test]
    fn non_utf8_dump_is_rejected() {
        let driver = fixed_gmond(b"<?xml version=\"1.0\"?>\n<GANGLIA_XML \xff>");
        let url = JdbcUrl::parse("jdbc:ganglia://head/c").unwrap();
        match driver.connect(&url, &Properties::new()) {
            Err(SqlError::Driver(msg)) => assert_eq!(msg, "gmond returned non-UTF-8 XML"),
            other => panic!("{:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn bad_ttl_fails_connect() {
        let (_env, driver) = setup(1);
        let url = JdbcUrl::parse("jdbc:ganglia://node00.g/g?ttl=5s").unwrap();
        match driver.connect(&url, &Properties::new()) {
            Err(SqlError::Connection(msg)) => assert!(msg.starts_with("bad ?ttl= '5s'"), "{msg}"),
            other => panic!("{:?}", other.map(|_| ())),
        }
    }
}

/// `parse_dump` against a reference that never sees XML: dumps are
/// rendered from a generated model, and the reference reads the model.
#[cfg(test)]
mod parse_props {
    use super::*;
    use gridrm_agents::ganglia::xml_escape;
    use proptest::prelude::*;

    type Attrs = Vec<(String, String)>;
    /// Per host: the `<HOST>` attributes, then each `<METRIC>`'s.
    type Model = Vec<(Attrs, Vec<Attrs>)>;

    const METRICS: [&str; 6] = [
        "load_one", "boottime", "cpu_num", "a&b", "x<y>\"q'", "os name",
    ];

    /// Integers, decimals and text full of the five escaped characters.
    fn value() -> impl Strategy<Value = String> {
        prop_oneof![
            "-?[0-9]{1,9}",
            "[0-9]{1,3}[.][0-9]{1,2}",
            "[a-f&<>\"' ]{0,6}"
        ]
    }

    /// Three in four of `names`, each with a value, in shuffled order.
    fn attrs(names: &'static [&'static str]) -> impl Strategy<Value = Attrs> {
        prop::collection::vec((any::<u8>(), value()), names.len()..=names.len()).prop_map(
            move |vals| {
                let mut attrs: Vec<_> = names
                    .iter()
                    .zip(vals)
                    .filter(|(_, (order, _))| order % 4 != 0)
                    .map(|(name, (order, val))| (order, name.to_string(), val))
                    .collect();
                attrs.sort();
                attrs
                    .into_iter()
                    .map(|(_, name, val)| (name, val))
                    .collect()
            },
        )
    }

    fn model() -> impl Strategy<Value = Model> {
        let metric = (
            attrs(&["NAME", "VAL", "TYPE", "UNITS", "TN", "SLOPE"]),
            prop::sample::select(METRICS.to_vec()),
        )
            .prop_map(|(mut attrs, name)| {
                for (key, val) in &mut attrs {
                    if key == "NAME" {
                        *val = name.to_owned();
                    }
                }
                attrs
            });
        let host = attrs(&["NAME", "IP", "REPORTED", "TN", "LOCATION"]);
        prop::collection::vec((host, prop::collection::vec(metric, 0..8)), 0..5)
    }

    /// White space between attributes, and the `=` with or without it.
    fn spacing() -> impl Strategy<Value = (&'static str, &'static str)> {
        (
            prop::sample::select(vec![" ", "  ", "\n", " \t"]),
            prop::sample::select(vec!["=", " = "]),
        )
    }

    fn keys() -> impl Strategy<Value = Vec<String>> {
        let mut all = vec![
            "host.name",
            "host.ip",
            "host.reported",
            "derived.uptime_sec",
            "absent",
        ];
        all.extend(METRICS);
        let all: Vec<String> = all.into_iter().map(str::to_owned).collect();
        let n = all.len();
        prop::sample::subsequence(all, 0..n + 1)
    }

    fn render(model: &Model, (gap, eq): (&str, &str)) -> String {
        let tag = |name: &str, attrs: &Attrs, end: &str| {
            let attrs: String = attrs
                .iter()
                .map(|(k, v)| format!("{gap}{k}{eq}\"{}\"", xml_escape(v)))
                .collect();
            format!("<{name}{attrs}{end}{gap}")
        };
        let mut xml = String::from("<?xml version=\"1.0\"?>\n<!-- gmond -->\n");
        xml += "<GANGLIA_XML VERSION=\"2.5.7\"><CLUSTER NAME=\"c&amp;d\" >some text\n";
        for (host, metrics) in model {
            xml += &tag("HOST", host, ">");
            for metric in metrics {
                xml += &tag("METRIC", metric, "/>");
            }
            xml += "</HOST>";
        }
        xml + "</CLUSTER>\n</GANGLIA_XML>\n"
    }

    /// What the dump says, read off the model.
    fn reference(model: &Model, keep: Option<&[String]>) -> Vec<NativeRow> {
        let get = |attrs: &Attrs, key: &str| {
            let found = attrs.iter().find(|(k, _)| k == key);
            found.map(|(_, v)| v.clone())
        };
        let rows = model.iter().map(|(host, metrics)| {
            let mut row = NativeRow::new();
            for (attr, key) in [("NAME", "host.name"), ("IP", "host.ip")] {
                if let Some(v) = get(host, attr) {
                    row.insert(key.into(), SqlValue::Str(v));
                }
            }
            for metric in metrics {
                if let (Some(name), Some(val)) = (get(metric, "NAME"), get(metric, "VAL")) {
                    row.insert(name, guess_value(&val));
                }
            }
            let boot = row.get("boottime").and_then(SqlValue::as_i64);
            if let Some(reported) = get(host, "REPORTED").map(|v| guess_value(&v)) {
                if let (Some(r), Some(b)) = (reported.as_i64(), boot) {
                    row.insert("derived.uptime_sec".into(), SqlValue::Int(r - b));
                }
                row.insert("host.reported".into(), reported);
            }
            row.retain(|k, _| keep.is_none_or(|keep| keep.iter().any(|n| n == k)));
            row
        });
        rows.collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn agrees_with_the_reference(
            model in model(),
            spacing in spacing(),
            keys in prop::option::of(keys()),
        ) {
            let keep = keys.as_deref();
            let rows = parse_dump(&render(&model, spacing), keep).unwrap();
            prop_assert_eq!(rows, reference(&model, keep));
        }

        /// A dump cut short at any byte, or missing any one `"`, `=` or
        /// `>`, is either refused or still says, host for host from the
        /// first, exactly what the whole dump said — wide and narrow.
        #[test]
        fn damage_is_refused_or_harmless(
            model in model(),
            spacing in spacing(),
            keys in keys(),
            at in any::<usize>(),
            truncate in any::<bool>(),
        ) {
            let xml = render(&model, spacing);
            let damaged = if truncate {
                xml[..at % xml.len()].to_owned()
            } else {
                let marks: Vec<usize> = xml.match_indices(['"', '=', '>']).map(|(i, _)| i).collect();
                let i = marks[at % marks.len()];
                format!("{}{}", &xml[..i], &xml[i + 1..])
            };
            for keep in [None, Some(keys.as_slice())] {
                match parse_dump(&damaged, keep) {
                    Ok(rows) => {
                        let whole = reference(&model, keep);
                        prop_assert!(rows.len() <= whole.len(), "{damaged}");
                        prop_assert_eq!(&rows[..], &whole[..rows.len()], "{}", damaged);
                    }
                    Err(SqlError::Driver(msg)) => prop_assert!(msg.starts_with("bad gmond XML: ")),
                    Err(other) => panic!("{other:?}"),
                }
            }
        }
    }
}
