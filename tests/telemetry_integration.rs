//! Gateway-wide telemetry integration: a simulated multi-source workload
//! must leave exactly-accountable marks in the metrics registry, produce
//! ordered query-path traces, and expose the same numbers through every
//! exposition surface (JSON snapshot, Prometheus text, and the
//! `gridrm_*` virtual SQL tables). Each table is one declaration served
//! by two transports, SQL and the admin's `/v1/<name>` JSON, and the two
//! agree row for row; an admin scrape records nothing.

use gridrm::core::acil::render_json;
use gridrm::core::tables::TABLES;
use gridrm::dbc::Properties;
use gridrm::prelude::*;
use gridrm::telemetry::Sample;
use std::sync::Arc;

/// A deployed site with a gateway and the standard driver set.
fn world() -> Arc<Gateway> {
    let net = Network::new(SimClock::new(), 777);
    let site = SiteModel::generate(21, &SiteSpec::new("tm", 4, 2));
    site.advance_to(120_000);
    deploy_site(&net, site);
    let gateway = Gateway::new(GatewayConfig::new("gw-tm", "tm"), net);
    install_into_gateway(&gateway);
    gateway
}

const SNMP_URL: &str = "jdbc:snmp://node01.tm/public";
const GANGLIA_URL: &str = "jdbc:ganglia://node00.tm/tm";

/// Run the reference workload: four queries against two distinct
/// simulated sources — one of them repeated from cache.
fn run_workload(gateway: &Gateway) {
    let sql = "SELECT Hostname, Load1 FROM Processor";
    // 1. Real-time against the SNMP agent.
    gateway
        .query(&ClientRequest::realtime(SNMP_URL, sql))
        .expect("snmp query");
    // 2. Real-time against the Ganglia agent (different driver).
    gateway
        .query(&ClientRequest::realtime(GANGLIA_URL, sql))
        .expect("ganglia query");
    // 3. Cached query: misses (different SQL), so it fetches + stores.
    gateway
        .query(&ClientRequest::cached(
            SNMP_URL,
            "SELECT Hostname FROM Processor",
            Some(60_000),
        ))
        .expect("cached query (miss)");
    // 4. Same cached query again: served from the cache.
    gateway
        .query(&ClientRequest::cached(
            SNMP_URL,
            "SELECT Hostname FROM Processor",
            Some(60_000),
        ))
        .expect("cached query (hit)");
}

fn sample_value(samples: &[Sample], name: &str, labels: &str) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && s.labels == labels)
        .map(|s| s.value)
}

#[test]
fn counters_match_workload_exactly() {
    let gateway = world();
    run_workload(&gateway);
    let samples = gateway.telemetry().registry().samples();

    // 4 client requests total.
    assert_eq!(
        sample_value(&samples, "gridrm_requests_total", ""),
        Some(4.0)
    );
    // Cache: one lookup missed, one hit (realtime queries bypass lookup).
    assert_eq!(
        sample_value(&samples, "gridrm_cache_events_total", "event=\"hit\""),
        Some(1.0)
    );
    assert_eq!(
        sample_value(&samples, "gridrm_cache_events_total", "event=\"miss\""),
        Some(1.0)
    );
    // Every successful real-time fetch stores its result: queries 1-3.
    assert_eq!(
        sample_value(&samples, "gridrm_cache_events_total", "event=\"store\""),
        Some(3.0)
    );
    // Request paths: 3 real-time fetches, 1 served from cache.
    assert_eq!(
        sample_value(
            &samples,
            "gridrm_request_paths_total",
            "path=\"realtime_fetch\""
        ),
        Some(3.0)
    );
    assert_eq!(
        sample_value(
            &samples,
            "gridrm_request_paths_total",
            "path=\"cache_served\""
        ),
        Some(1.0)
    );

    // Per-driver latency histograms: SNMP executed twice, Ganglia once.
    assert_eq!(
        sample_value(
            &samples,
            "gridrm_driver_latency_ms_count",
            "driver=\"jdbc-snmp\""
        ),
        Some(2.0)
    );
    assert_eq!(
        sample_value(
            &samples,
            "gridrm_driver_latency_ms_count",
            "driver=\"jdbc-ganglia\""
        ),
        Some(1.0)
    );
    // And the request-latency histogram saw all four requests.
    assert_eq!(
        sample_value(&samples, "gridrm_request_latency_ms_count", ""),
        Some(4.0)
    );
}

#[test]
fn traces_record_query_path_stages_in_order() {
    let gateway = world();
    run_workload(&gateway);
    let traces = gateway.telemetry().traces().recent();
    let roots: Vec<_> = traces
        .iter()
        .filter(|t| t.parent_span_id.is_none())
        .collect();
    assert_eq!(roots.len(), 4, "one root span per client request");

    // The first request went to the SNMP agent through the full path:
    // the root span holds the request-manager stages...
    let t = roots[0];
    assert_eq!(t.outcome, "ok");
    assert_eq!(t.source.as_deref(), Some(SNMP_URL));
    let stages: Vec<&str> = t.stages.iter().map(|s| s.stage.as_str()).collect();
    let pos = |name: &str| {
        stages
            .iter()
            .position(|s| *s == name)
            .unwrap_or_else(|| panic!("stage {name} missing from {stages:?}"))
    };
    assert!(
        pos("acil") < pos("handle"),
        "stages out of order: {stages:?}"
    );
    assert!(
        pos("handle") < pos("resolve"),
        "stages out of order: {stages:?}"
    );
    // Timestamps are monotone non-decreasing across the whole trace.
    assert!(t.stages.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
    assert!(t.started_ms <= t.stages[0].at_ms);
    assert!(t.finished_ms >= t.stages[t.stages.len() - 1].at_ms);
    // The resolve stage names the winning driver.
    assert_eq!(
        t.stages[pos("resolve")].detail.as_deref(),
        Some("jdbc-snmp")
    );

    // ...while the per-driver work lives on a `driver_execute` child
    // span sharing the root's trace.
    let child = traces
        .iter()
        .find(|c| {
            c.parent_span_id.as_deref() == Some(t.span_id.as_str())
                && c.stages.iter().any(|s| s.stage == "driver_execute")
        })
        .expect("driver_execute child span");
    assert_eq!(child.trace_id, t.trace_id);
    let child_stages: Vec<&str> = child.stages.iter().map(|s| s.stage.as_str()).collect();
    let cpos = |name: &str| {
        child_stages
            .iter()
            .position(|s| *s == name)
            .unwrap_or_else(|| panic!("stage {name} missing from {child_stages:?}"))
    };
    let order = [
        cpos("checkout"),
        cpos("connect"),
        cpos("execute"),
        cpos("translate"),
    ];
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "child stages out of order: {child_stages:?}"
    );

    // The cache-served request records a cache hit and never resolves.
    let hit = roots[3];
    assert!(hit
        .stages
        .iter()
        .any(|s| s.stage == "cache_lookup" && s.detail.as_deref() == Some("hit")));
    assert!(!hit.stages.iter().any(|s| s.stage == "resolve"));
}

#[test]
fn sql_virtual_table_agrees_with_json_snapshot() {
    let gateway = world();
    run_workload(&gateway);

    // JSON exposition through the admin interface.
    let json = gateway.admin().handle("/v1/metrics.json").body;
    assert!(json.contains("gridrm_requests_total"));
    let snapshot = gateway.telemetry().registry().snapshot();
    let json_samples: Vec<Sample> = snapshot.into_iter().flat_map(|f| f.samples).collect();

    // The same counters via SQL over the virtual table — through the
    // normal driver path, like any other data source.
    let resp = gateway
        .query(&ClientRequest::realtime(
            "jdbc:telemetry://local/metrics",
            "SELECT name, labels, value FROM gridrm_telemetry \
             WHERE kind = 'counter' ORDER BY name, labels",
        ))
        .expect("telemetry query");
    assert!(!resp.rows.is_empty());
    for row in resp.rows.rows() {
        let name = row[0].to_string();
        let labels = row[1].to_string();
        let via_sql = row[2].as_f64().unwrap();
        // The SQL query itself is one more request, so skip the counters
        // it bumps between the JSON snapshot and the SQL read.
        if name.starts_with("gridrm_requests")
            || name.starts_with("gridrm_request_paths")
            || name.starts_with("gridrm_driver_resolutions")
            || name.starts_with("gridrm_pool")
        {
            continue;
        }
        let via_json = sample_value(&json_samples, &name, &labels)
            .unwrap_or_else(|| panic!("{name}{{{labels}}} missing from JSON snapshot"));
        assert_eq!(via_sql, via_json, "{name}{{{labels}}} disagrees");
    }
    // Spot-check the headline counter: the SQL read sees the 4 workload
    // requests plus itself.
    let req_row = resp
        .rows
        .rows()
        .iter()
        .find(|r| r[0].to_string() == "gridrm_requests_total")
        .expect("gridrm_requests_total row");
    assert_eq!(req_row[2].as_f64().unwrap(), 5.0);

    // Prometheus text exposition carries the same families.
    let prom = gateway.admin().metrics_prometheus();
    assert!(prom.contains("# TYPE gridrm_requests_total counter"));
    assert!(prom.contains("# TYPE gridrm_driver_latency_ms histogram"));
    assert!(prom.contains("gridrm_cache_events_total{event=\"hit\"} 1"));
}

#[test]
fn like_filter_over_virtual_table() {
    let gateway = world();
    run_workload(&gateway);
    let resp = gateway
        .query(&ClientRequest::realtime(
            "jdbc:telemetry://local/metrics",
            "SELECT name, value FROM gridrm_telemetry WHERE name LIKE 'gridrm_cache%'",
        ))
        .expect("LIKE query");
    assert!(!resp.rows.is_empty());
    assert!(resp
        .rows
        .rows()
        .iter()
        .all(|r| r[0].to_string().starts_with("gridrm_cache")));
}

/// A gateway where every `gridrm_*` table has at least one row: the
/// reference workload plus a tracked source, an SLO, a standing query,
/// one pump (probes, the time-series recorder, SLO evaluation,
/// standing-query evaluation) and one query above the 1 ms slow-query
/// threshold.
fn exercised() -> Arc<Gateway> {
    let net = Network::new(SimClock::new(), 777);
    let site = SiteModel::generate(21, &SiteSpec::new("tm", 4, 2));
    site.advance_to(120_000);
    deploy_site(&net, site);
    let mut config = GatewayConfig::new("gw-tm", "tm");
    config.slow_query_threshold_ms = 1;
    config.slos = vec![SloSpec::new(
        "availability",
        SloObjective::Availability {
            bad_paths: vec!["denied".into()],
        },
        0.99,
    )];
    let gateway = Gateway::new(config, net);
    install_into_gateway(&gateway);
    gateway
        .admin()
        .add_source(DataSourceConfig::dynamic(SNMP_URL, "node01"))
        .expect("source registers");
    run_workload(&gateway);
    gateway
        .subscribe(&SubscribeSpec {
            request: ClientRequest::builder("SELECT Hostname, Load1 FROM Processor EVERY 1000")
                .sources(&[SNMP_URL])
                .build(),
            every_ms: None,
            buffer: None,
            backpressure: None,
        })
        .expect("standing query");
    gateway.clock().advance(1_000);
    gateway.pump();
    // Simnet requests do not advance the virtual clock: a slow query is
    // one whose stages straddle an advance.
    let mut slow = gateway.telemetry().span("SELECT Hostname FROM Processor");
    slow.stage(Stage::Acil);
    gateway.clock().advance(25);
    slow.finish("ok");
    gateway
}

/// The route of a table: `/v1/` and its name without `gridrm_`.
fn route(table: &str) -> String {
    format!("/v1/{}", table.trim_start_matches("gridrm_"))
}

/// One declaration, two transports: for every table, `/v1/<name>` is the
/// JSON rendering of the telemetry driver's own answer to `SELECT *`.
/// The SQL is asked of the driver's `Connection`, not `Gateway::query`,
/// which would record itself into the very rings under test.
#[test]
fn every_table_route_renders_the_drivers_select_star() {
    let gateway = exercised();
    let driver = gateway
        .driver_manager()
        .base()
        .get_by_name("jdbc-telemetry")
        .expect("telemetry driver installed");
    let url = JdbcUrl::parse("jdbc:telemetry://local/metrics").unwrap();
    let mut conn = driver.connect(&url, &Properties::new()).unwrap();
    for table in TABLES {
        let body = gateway.admin().handle(&route(table.name)).body;
        let mut rs = conn
            .create_statement()
            .unwrap()
            .execute_query(&format!("SELECT * FROM {}", table.name))
            .unwrap();
        let rows = RowSet::materialize(rs.as_mut()).unwrap();
        assert!(!rows.is_empty(), "{} has no row", table.name);
        assert_eq!(body, render_json(&rows), "{}", table.name);
        // Flat rows whose keys are the table's columns, in column order.
        let json: Vec<serde_json::Value> = serde_json::from_str(&body).unwrap();
        let columns: Vec<&str> = table.columns.iter().map(|(name, _)| *name).collect();
        for row in &json {
            let keys: Vec<&str> = row
                .as_object()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, columns, "{}", table.name);
        }
    }
}

/// An admin scrape records nothing: every indexed route scraped twice
/// answers the same bodies, and the Prometheus text is unchanged by the
/// first pass.
#[test]
fn an_admin_scrape_records_nothing() {
    let gateway = exercised();
    let admin = gateway.admin();
    let trace_id = gateway.telemetry().traces().recent()[0].trace_id.clone();
    let paths: Vec<String> = admin
        .handle("/v1")
        .body
        .lines()
        .filter_map(|line| line.split_whitespace().next())
        .filter(|path| path.starts_with("/v1/"))
        .map(|path| path.replace("<trace_id>", &trace_id))
        .collect();
    assert_eq!(paths.len(), TABLES.len() + 4, "{paths:?}");
    let prometheus = admin.handle("/v1/metrics").body;
    let scrape = || -> Vec<String> { paths.iter().map(|p| admin.handle(p).body).collect() };
    let first = scrape();
    let second = scrape();
    for ((path, a), b) in paths.iter().zip(&first).zip(&second) {
        assert_eq!(a, b, "{path} changed between scrapes");
    }
    assert_eq!(admin.handle("/v1/metrics").body, prometheus);
}
