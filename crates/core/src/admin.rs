//! Driver and data-source administration (paper §4, Figs 6–9): the
//! programmatic API behind the JSP management interface — add/remove/
//! modify data sources, prioritised driver registration per source,
//! network discovery, and the cached tree view with status icons.

use crate::acil::render_json;
use crate::cache::CacheController;
use crate::driver_manager::{FailurePolicy, GridRMDriverManager};
use crate::health::{HealthMonitor, SourceHealthSnapshot};
use crate::stream::StreamManager;
use crate::tables::{SPANS, TABLES};
use gridrm_dbc::{DbcResult, JdbcUrl, SqlError};
use gridrm_simnet::Network;
use gridrm_sqlparse::ast::{BinaryOp, Expr, SelectStatement};
use gridrm_telemetry::GatewayTelemetry;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A configured data source (one row of Fig 8's registration panel).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataSourceConfig {
    /// The data-source URL.
    pub url: String,
    /// Display label.
    pub label: String,
    /// Prioritised driver names ("a single driver … or a number of
    /// drivers to be used in prioritised order", §4). Empty = dynamic.
    pub preferred_drivers: Vec<String>,
    /// Failure policy override for this source.
    pub policy: Option<FailurePolicy>,
}

impl DataSourceConfig {
    /// Source with dynamic driver selection.
    pub fn dynamic(url: &str, label: &str) -> DataSourceConfig {
        DataSourceConfig {
            url: url.to_owned(),
            label: label.to_owned(),
            preferred_drivers: Vec::new(),
            policy: None,
        }
    }
}

/// Status icon of a source in the tree view (Fig 9's legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceStatus {
    /// Healthy: last poll succeeded.
    Ok,
    /// "Event received in last n minutes (e.g. a SNMP trap)".
    RecentEvent,
    /// "Request to poll data failed (communications failure or security
    /// permissions not adequate)".
    PollFailed,
    /// Never polled.
    Unknown,
}

impl SourceStatus {
    /// The icon of a source whose health record is `health` (`None`
    /// when untracked): `PollFailed` while the last real contact (driver
    /// attempt or probe) failed, else `RecentEvent` when an event arrived
    /// within `window_ms` of `now_ms`, else `Ok` once any contact
    /// succeeded, else `Unknown`.
    pub fn of(health: Option<&SourceHealthSnapshot>, now_ms: u64, window_ms: u64) -> SourceStatus {
        let Some(h) = health else {
            return SourceStatus::Unknown;
        };
        if h.consecutive_failures > 0 {
            SourceStatus::PollFailed
        } else if h
            .last_event_ms
            .is_some_and(|t| now_ms.saturating_sub(t) <= window_ms)
        {
            SourceStatus::RecentEvent
        } else if h.last_ok_ms.is_some() {
            SourceStatus::Ok
        } else {
            SourceStatus::Unknown
        }
    }

    /// Terminal icon used by the text tree view (Fig 9's legend).
    pub fn icon(&self) -> &'static str {
        match self {
            SourceStatus::Ok => "[ok]",
            SourceStatus::RecentEvent => "[ev]",
            SourceStatus::PollFailed => "[!!]",
            SourceStatus::Unknown => "[??]",
        }
    }
}

/// One node of the Fig 9 tree view.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// Source URL.
    pub source: String,
    /// Display label.
    pub label: String,
    /// Status icon.
    pub status: SourceStatus,
    /// Cached queries for this source: `(sql, age_ms)`.
    pub cached: Vec<(String, u64)>,
    /// Last successful poll time.
    pub last_ok_ms: Option<u64>,
    /// Last error, if any.
    pub last_error: Option<String>,
}

/// Serialised administrative state ("registration details are cached
/// persistently within the Gateway", §3.2.2).
#[derive(Debug, Serialize, Deserialize)]
struct PersistedState {
    sources: Vec<DataSourceConfig>,
}

/// Outcome class of one [`AdminInterface::handle`] dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminStatus {
    /// The path resolved to an exposition endpoint.
    Ok,
    /// Unknown path; the body carries the endpoint index instead.
    NotFound,
}

/// One answered admin request: what [`AdminInterface::handle`] returns
/// for any transport to serialise — the serve crate's plain-text admin
/// port writes `status`/`content_type` as a header line and the body
/// verbatim.
#[derive(Debug, Clone)]
pub struct AdminResponse {
    /// Dispatch outcome.
    pub status: AdminStatus,
    /// MIME type of `body` (`text/plain` or `application/json`).
    pub content_type: &'static str,
    /// The rendered exposition.
    pub body: String,
}

impl AdminResponse {
    fn ok_json(body: String) -> AdminResponse {
        AdminResponse {
            status: AdminStatus::Ok,
            content_type: "application/json",
            body,
        }
    }

    fn ok_text(body: String) -> AdminResponse {
        AdminResponse {
            status: AdminStatus::Ok,
            content_type: "text/plain",
            body,
        }
    }
}

/// The administration interface.
pub struct AdminInterface {
    sources: RwLock<BTreeMap<String, DataSourceConfig>>,
    driver_manager: Arc<GridRMDriverManager>,
    cache: Arc<CacheController>,
    pub(crate) telemetry: GatewayTelemetry,
    pub(crate) health_monitor: Arc<HealthMonitor>,
    pub(crate) streams: Arc<StreamManager>,
}

impl AdminInterface {
    /// Wire the interface to the managers it configures and the
    /// subsystems it exposes.
    pub fn new(
        driver_manager: Arc<GridRMDriverManager>,
        cache: Arc<CacheController>,
        telemetry: &GatewayTelemetry,
        health_monitor: Arc<HealthMonitor>,
        streams: Arc<StreamManager>,
    ) -> AdminInterface {
        AdminInterface {
            sources: RwLock::new(BTreeMap::new()),
            driver_manager,
            cache,
            telemetry: telemetry.clone(),
            health_monitor,
            streams,
        }
    }

    /// Prometheus text exposition of every gateway metric (the admin
    /// scrape endpoint).
    pub fn metrics_prometheus(&self) -> String {
        self.telemetry.registry().render_prometheus()
    }

    /// Add (or modify) a data source; applies its driver preferences and
    /// failure policy to the GridRMDriverManager. The source is kept
    /// under its canonical URL, the key the request path records health
    /// under.
    pub fn add_source(&self, mut config: DataSourceConfig) -> DbcResult<()> {
        let url = JdbcUrl::parse(&config.url)?;
        config.url = url.to_string();
        if config.preferred_drivers.is_empty() {
            self.driver_manager.clear_preferences(&url);
        } else {
            self.driver_manager
                .set_preferences(&url, config.preferred_drivers.clone());
        }
        if let Some(policy) = config.policy {
            self.driver_manager.set_policy(&url, policy);
        }
        self.health_monitor.track(&config.url);
        self.sources.write().insert(config.url.clone(), config);
        Ok(())
    }

    /// Remove a data source: clears its preferences and cached results.
    pub fn remove_source(&self, url: &str) -> bool {
        let Ok(parsed) = JdbcUrl::parse(url) else {
            return false;
        };
        let key = parsed.to_string();
        let existed = self.sources.write().remove(&key).is_some();
        if existed {
            self.driver_manager.clear_preferences(&parsed);
            self.cache.invalidate_source(&key);
            self.health_monitor.untrack(&key);
        }
        existed
    }

    /// The configured sources, sorted by URL.
    pub fn list_sources(&self) -> Vec<DataSourceConfig> {
        self.sources.read().values().cloned().collect()
    }

    /// Look up one source.
    pub fn source(&self, url: &str) -> Option<DataSourceConfig> {
        let key = JdbcUrl::parse(url).ok()?.to_string();
        self.sources.read().get(&key).cloned()
    }

    /// Discover data sources "by scanning a network" (§4): every endpoint
    /// advertising `host:proto` becomes a candidate `jdbc:proto://host/…`
    /// URL. `default_paths` supplies per-protocol path defaults (e.g. the
    /// SNMP community).
    pub fn discover(
        &self,
        network: &Network,
        default_paths: &[(&str, &str)],
    ) -> Vec<DataSourceConfig> {
        self.discover_filtered(network, default_paths, |_| true)
    }

    /// Discovery restricted to "a network address, or specific range of
    /// addresses" (§4): `host_filter` decides which hosts to include
    /// (e.g. `|h| h.ends_with(".site-a")`).
    pub fn discover_filtered(
        &self,
        network: &Network,
        default_paths: &[(&str, &str)],
        host_filter: impl Fn(&str) -> bool,
    ) -> Vec<DataSourceConfig> {
        let mut found = Vec::new();
        for addr in network.scan() {
            let Some((host, proto)) = addr.rsplit_once(':') else {
                continue;
            };
            if !host_filter(host) {
                continue;
            }
            let path = default_paths
                .iter()
                .find(|(p, _)| *p == proto)
                .map(|(_, path)| *path);
            let Some(path) = path else { continue };
            let url = format!("jdbc:{proto}://{host}/{path}");
            found.push(DataSourceConfig::dynamic(
                &url,
                &format!("{host} ({proto})"),
            ));
        }
        found
    }

    /// Build the Fig 9 tree view: one node per configured source, with a
    /// status icon and its cached queries. Each icon is
    /// [`SourceStatus::of`] the source's health-monitor record, the row
    /// `gridrm_health` serves. `recent_window_ms` is the "received in
    /// last n minutes" window for the event icon.
    pub fn tree_view(&self, now_ms: u64, recent_window_ms: u64) -> Vec<TreeNode> {
        let health = self.health_monitor.snapshot();
        let inventory = self.cache.inventory(now_ms);
        let sources = self.sources.read();
        sources
            .values()
            .map(|cfg| {
                let h = health
                    .binary_search_by(|s| s.source.as_str().cmp(&cfg.url))
                    .ok()
                    .and_then(|i| health.get(i));
                TreeNode {
                    source: cfg.url.clone(),
                    label: cfg.label.clone(),
                    status: SourceStatus::of(h, now_ms, recent_window_ms),
                    cached: inventory
                        .iter()
                        .filter(|(s, _, _)| s == &cfg.url)
                        .map(|(_, sql, age)| (sql.clone(), *age))
                        .collect(),
                    last_ok_ms: h.and_then(|h| h.last_ok_ms),
                    last_error: h.and_then(|h| h.last_error.clone()),
                }
            })
            .collect()
    }

    /// Serialise the registration state.
    pub fn to_json(&self) -> String {
        let state = PersistedState {
            sources: self.list_sources(),
        };
        serde_json::to_string_pretty(&state).expect("state is serialisable")
    }

    /// Restore registration state produced by [`AdminInterface::to_json`].
    pub fn from_json(&self, json: &str) -> DbcResult<usize> {
        let state: PersistedState = serde_json::from_str(json)
            .map_err(|e| SqlError::Driver(format!("bad persisted state: {e}")))?;
        let n = state.sources.len();
        for cfg in state.sources {
            self.add_source(cfg)?;
        }
        Ok(n)
    }

    /// Persist to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Load from a file.
    pub fn load(&self, path: &std::path::Path) -> DbcResult<usize> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| SqlError::Driver(format!("cannot read {}: {e}", path.display())))?;
        self.from_json(&json)
    }

    /// The versioned admin dispatch: one entry point for every
    /// exposition, so transports expose a single surface instead of
    /// growing a method per endpoint. `/v1/<name>` renders the `SELECT *`
    /// rows of the table `gridrm_<name>` of [`TABLES`] as JSON, and
    /// `/v1/spans/<trace_id>` the spans of one trace; three fixed routes
    /// serve the Prometheus text, the metric families and the configured
    /// sources. Unknown paths answer `NotFound` with the endpoint index
    /// as the body, and `/` or `/v1` serve the index directly. Trailing
    /// slashes are tolerated. Nothing here records anything: a scrape
    /// leaves every table as it found it.
    pub fn handle(&self, path: &str) -> AdminResponse {
        let trimmed = path.trim().trim_end_matches('/');
        if matches!(trimmed, "" | "/" | "/v1") {
            return AdminResponse::ok_text(index_text());
        }
        if let Some((_, _, render)) = FIXED_ROUTES.iter().find(|(p, _, _)| *p == trimmed) {
            return render(self);
        }
        let rows = trimmed
            .strip_prefix("/v1/")
            .and_then(table_select)
            .and_then(|sel| self.select(&sel).ok());
        match rows {
            Some(rows) => AdminResponse::ok_json(render_json(&rows)),
            None => AdminResponse {
                status: AdminStatus::NotFound,
                content_type: "text/plain",
                body: index_text(),
            },
        }
    }
}

/// Does an event or push from `origin` concern the source at `url`?
/// Equal text does, and so does an agent address `host:proto` whose host
/// is the URL's host and whose proto is its sub-protocol (any proto, for
/// a wildcard URL): the inverse of [`AdminInterface::discover`]'s
/// mapping.
pub(crate) fn concerns(url: &str, origin: &str) -> bool {
    if url == origin {
        return true;
    }
    let Some((host, proto)) = origin.rsplit_once(':') else {
        return false;
    };
    JdbcUrl::parse(url).is_ok_and(|u| u.host == host && (u.is_wildcard() || u.subprotocol == proto))
}

/// Renders one route that serves no table.
type Render = fn(&AdminInterface) -> AdminResponse;

/// The routes that serve no table: path, index description, renderer.
const FIXED_ROUTES: &[(&str, &str, Render)] = &[
    ("/v1/metrics", "Prometheus text exposition", |a| {
        AdminResponse::ok_text(a.metrics_prometheus())
    }),
    ("/v1/metrics.json", "metric families as JSON", |a| {
        let families = a.telemetry.registry().snapshot();
        AdminResponse::ok_json(
            serde_json::to_string_pretty(&families).expect("metric families are serialisable"),
        )
    }),
    ("/v1/sources", "configured data sources", |a| {
        AdminResponse::ok_json(a.to_json())
    }),
];

/// A table's route below `/v1/`: its name without `gridrm_`.
fn route(table: &str) -> &str {
    table.trim_start_matches("gridrm_")
}

/// The statement a table route answers: `SELECT *` of the table whose
/// route is `rest`, or of the spans of one trace for
/// `spans/<trace_id>`. The id is a literal in the AST, never SQL text,
/// so no id can widen the filter.
fn table_select(rest: &str) -> Option<SelectStatement> {
    match rest.split_once('/') {
        None => TABLES
            .iter()
            .find(|t| route(t.name) == rest)
            .map(|t| SelectStatement::star(t.name)),
        Some((table, trace_id)) if table == route(SPANS) => Some(SelectStatement {
            where_clause: Some(Expr::bin(
                Expr::col("trace_id"),
                BinaryOp::Eq,
                Expr::lit(trace_id),
            )),
            ..SelectStatement::star(SPANS)
        }),
        Some(_) => None,
    }
}

/// The endpoint index `/` and `/v1` serve (and `NotFound` bodies): the
/// fixed routes, one route per table, then the spans of one trace.
fn index_text() -> String {
    let mut out = "gridrm admin v1\n".to_owned();
    let mut line = |path: &str, description: &str| {
        out.push_str(&format!("{path:<24}{description}\n"));
    };
    for (path, description, _) in FIXED_ROUTES {
        line(path, description);
    }
    for table in TABLES {
        line(
            &format!("/v1/{}", route(table.name)),
            &format!("rows of `{}`", table.name),
        );
    }
    line(
        &format!("/v1/{}/<trace_id>", route(SPANS)),
        &format!("rows of `{SPANS}` for one trace"),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gateway, GatewayConfig};
    use gridrm_simnet::SimClock;

    /// The admin interface of a fresh, idle gateway.
    fn admin() -> Arc<AdminInterface> {
        let network = Network::new(SimClock::new(), 1);
        Gateway::new(GatewayConfig::new("gw-admin", "admin"), network)
            .admin()
            .clone()
    }

    #[test]
    fn add_list_remove() {
        let a = admin();
        a.add_source(DataSourceConfig {
            url: "jdbc:snmp://node01/public".into(),
            label: "node01".into(),
            preferred_drivers: vec!["jdbc-snmp".into()],
            policy: Some(FailurePolicy::Retry(2)),
        })
        .unwrap();
        assert_eq!(a.list_sources().len(), 1);
        // Preferences landed in the driver manager.
        let url = JdbcUrl::parse("jdbc:snmp://node01/public").unwrap();
        assert_eq!(a.driver_manager.policy_for(&url), FailurePolicy::Retry(2));
        assert!(a.remove_source("jdbc:snmp://node01/public"));
        assert!(!a.remove_source("jdbc:snmp://node01/public"));
        assert!(a.list_sources().is_empty());
    }

    #[test]
    fn bad_url_rejected() {
        let a = admin();
        assert!(a
            .add_source(DataSourceConfig::dynamic("not-a-url", "x"))
            .is_err());
    }

    #[test]
    fn discovery_maps_addresses_to_urls() {
        let a = admin();
        let net = Network::new(SimClock::new(), 1);
        let svc: Arc<dyn gridrm_simnet::Service> = Arc::new(|_: &str, _: &[u8]| Vec::new());
        net.register("node00.x:snmp", svc.clone());
        net.register("node00.x:ganglia", svc.clone());
        net.register("node00.x:unknownproto", svc.clone());
        net.register("plain-address", svc);
        let found = a.discover(&net, &[("snmp", "public"), ("ganglia", "cluster")]);
        let urls: Vec<&str> = found.iter().map(|c| c.url.as_str()).collect();
        assert!(urls.contains(&"jdbc:snmp://node00.x/public"));
        assert!(urls.contains(&"jdbc:ganglia://node00.x/cluster"));
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn discovery_host_range_filter() {
        let a = admin();
        let net = Network::new(SimClock::new(), 2);
        let svc: Arc<dyn gridrm_simnet::Service> = Arc::new(|_: &str, _: &[u8]| Vec::new());
        net.register("node00.keep:snmp", svc.clone());
        net.register("node01.keep:snmp", svc.clone());
        net.register("node00.skip:snmp", svc);
        let found = a.discover_filtered(&net, &[("snmp", "public")], |h| h.ends_with(".keep"));
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|c| c.url.contains(".keep")));
    }

    #[test]
    fn tree_view_statuses() {
        let a = admin();
        for url in [
            "jdbc:snmp://ok/public",
            "jdbc:snmp://failed/public",
            "jdbc:snmp://eventful/public",
            "jdbc:snmp://fresh/public",
        ] {
            a.add_source(DataSourceConfig::dynamic(url, url)).unwrap();
        }
        let h = &a.health_monitor;
        h.record_success("jdbc:snmp://ok/public", "d", 1_000);
        h.record_success("jdbc:snmp://failed/public", "d", 1_000);
        h.record_failure("jdbc:snmp://failed/public", Some("d"), "boom", 2_000);
        h.record_success("jdbc:snmp://eventful/public", "d", 1_000);
        h.record_event("eventful:snmp", 9_000);

        let tree = a.tree_view(10_000, 60_000);
        let status_of = |url: &str| {
            tree.iter()
                .find(|n| n.source == url)
                .map(|n| n.status)
                .unwrap()
        };
        assert_eq!(status_of("jdbc:snmp://ok/public"), SourceStatus::Ok);
        assert_eq!(
            status_of("jdbc:snmp://failed/public"),
            SourceStatus::PollFailed
        );
        assert_eq!(
            status_of("jdbc:snmp://eventful/public"),
            SourceStatus::RecentEvent
        );
        assert_eq!(status_of("jdbc:snmp://fresh/public"), SourceStatus::Unknown);
        // Error message surfaced.
        assert_eq!(
            tree.iter()
                .find(|n| n.source == "jdbc:snmp://failed/public")
                .unwrap()
                .last_error
                .as_deref(),
            Some("boom")
        );
    }

    #[test]
    fn recovered_source_is_ok_again() {
        let a = admin();
        a.add_source(DataSourceConfig::dynamic("jdbc:snmp://n/p", "n"))
            .unwrap();
        a.health_monitor
            .record_failure("jdbc:snmp://n/p", None, "down", 1_000);
        a.health_monitor
            .record_success("jdbc:snmp://n/p", "d", 2_000);
        assert_eq!(a.tree_view(3_000, 60_000)[0].status, SourceStatus::Ok);
    }

    #[test]
    fn an_origin_concerns_the_sources_discovery_maps_it_to() {
        let url = "jdbc:snmp://node03.alpha/public";
        assert!(concerns(url, url));
        assert!(concerns(url, "node03.alpha:snmp"));
        assert!(concerns(
            "jdbc:://node03.alpha/public",
            "node03.alpha:ganglia"
        ));
        assert!(concerns(
            "jdbc:snmp://node03.alpha:161/public",
            "node03.alpha:snmp"
        ));
        for other in [
            "node03.alpha:ganglia",
            "node13.alpha:snmp",
            "node03.alpha",
            "",
        ] {
            assert!(!concerns(url, other), "{other}");
        }
    }

    #[test]
    fn a_source_is_kept_under_its_canonical_url() {
        let a = admin();
        a.add_source(DataSourceConfig::dynamic("jdbc:snmp://n", "n"))
            .unwrap();
        assert_eq!(a.list_sources()[0].url, "jdbc:snmp://n/");
        let tracked: Vec<String> = a
            .health_monitor
            .snapshot()
            .into_iter()
            .map(|s| s.source)
            .collect();
        assert_eq!(tracked, ["jdbc:snmp://n/"]);
        assert!(a.source("jdbc:snmp://n").is_some());
        assert!(a.remove_source("jdbc:snmp://n"));
        assert!(a.health_monitor.snapshot().is_empty());
    }

    #[test]
    fn persistence_roundtrip() {
        let a = admin();
        a.add_source(DataSourceConfig {
            url: "jdbc:ganglia://head/clu".into(),
            label: "cluster".into(),
            preferred_drivers: vec!["jdbc-ganglia".into(), "jdbc-snmp".into()],
            policy: Some(FailurePolicy::TryNext),
        })
        .unwrap();
        let json = a.to_json();
        let b = admin();
        assert_eq!(b.from_json(&json).unwrap(), 1);
        let restored = &b.list_sources()[0];
        assert_eq!(restored.preferred_drivers.len(), 2);
        // Preferences re-applied on load.
        let url = JdbcUrl::parse("jdbc:ganglia://head/clu").unwrap();
        assert!(b.driver_manager.clear_preferences(&url));
    }

    #[test]
    fn handle_dispatches_every_versioned_endpoint() {
        let a = admin();
        a.add_source(DataSourceConfig::dynamic("jdbc:snmp://n/p", "n"))
            .unwrap();
        // JSON endpoints answer Ok with parseable JSON bodies, even on an
        // idle gateway (they expose empty tables).
        let mut paths = vec!["/v1/metrics.json".to_owned(), "/v1/sources".to_owned()];
        paths.extend(TABLES.iter().map(|t| format!("/v1/{}", route(t.name))));
        paths.push("/v1/spans/some-trace".to_owned());
        for path in &paths {
            let resp = a.handle(path);
            assert_eq!(resp.status, AdminStatus::Ok, "{path}");
            assert_eq!(resp.content_type, "application/json", "{path}");
            assert!(
                serde_json::from_str::<serde_json::Value>(&resp.body).is_ok(),
                "{path} body is not JSON: {}",
                resp.body
            );
        }
        assert_eq!(a.handle("/v1/sources").body, a.to_json());
        assert_eq!(a.handle("/v1/metrics").body, a.metrics_prometheus());
        // Index + tolerated trailing slash.
        for path in ["/", "/v1", "/v1/", ""] {
            let resp = a.handle(path);
            assert_eq!(resp.status, AdminStatus::Ok, "{path:?}");
            assert!(resp.body.contains("/v1/metrics"), "{path:?}");
        }
        // Unknown paths, and the table's own name: NotFound, body is the
        // index.
        for path in ["/v2/nope", "/v1/nope", "/v1/gridrm_health", "/v1/health/x"] {
            let resp = a.handle(path);
            assert_eq!(resp.status, AdminStatus::NotFound, "{path}");
            assert!(resp.body.contains("gridrm admin v1"), "{path}");
        }
        // Trailing-slash tolerance folds `/v1/spans/` into the list
        // endpoint rather than an empty trace id.
        assert_eq!(a.handle("/v1/spans/").body, a.handle("/v1/spans").body);
    }

    #[test]
    fn a_trace_id_is_a_literal_never_sql() {
        let a = admin();
        let span_ids = |body: &str| -> Vec<String> {
            let rows: Vec<serde_json::Value> = serde_json::from_str(body).unwrap();
            rows.iter()
                .map(|r| r["span_id"].as_str().unwrap().to_owned())
                .collect()
        };
        // Two traces, the first with a child, so a widened filter shows.
        let mut traces = Vec::new();
        for request in ["SELECT 1 FROM a", "SELECT 2 FROM b"] {
            let root = a.telemetry.span(request);
            root.child("leg").finish("ok");
            traces.push(root.trace_id().to_owned());
            root.finish("ok");
        }
        for id in &traces {
            let body = a.handle(&format!("/v1/spans/{id}")).body;
            let expected: Vec<String> = a
                .telemetry
                .traces()
                .for_trace(id)
                .into_iter()
                .map(|r| r.span_id)
                .collect();
            assert_eq!(expected.len(), 2);
            assert_eq!(span_ids(&body), expected, "{id}");
        }
        let long = "x".repeat(4096);
        for id in ["x' OR '1'='1", "'", "%", "a trace id with spaces", &long] {
            let resp = a.handle(&format!("/v1/spans/{id}"));
            assert_eq!(resp.status, AdminStatus::Ok, "{id}");
            assert_eq!(resp.body, "[]", "{id}");
        }
    }

    #[test]
    fn file_persistence() {
        let a = admin();
        a.add_source(DataSourceConfig::dynamic("jdbc:scms://head/", "scms"))
            .unwrap();
        let dir = std::env::temp_dir().join("gridrm-admin-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sources.json");
        a.save(&path).unwrap();
        let b = admin();
        assert_eq!(b.load(&path).unwrap(), 1);
        std::fs::remove_file(&path).ok();
    }
}

/// Render a tree view as indented text — the terminal stand-in for the
/// JSP tree of Fig 9. Each source shows its status icon, up to
/// `max_cached` cached queries with ages, and any last error.
pub fn render_tree_text(tree: &[TreeNode], max_cached: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for node in tree {
        let _ = writeln!(
            out,
            "{} {}  ({})",
            node.status.icon(),
            node.label,
            node.source
        );
        for (sql, age) in node.cached.iter().take(max_cached) {
            let _ = writeln!(out, "      cached {:>4}s ago: {sql}", age / 1000);
        }
        if let Some(err) = &node.last_error {
            let brief: String = err.chars().take(72).collect();
            let _ = writeln!(out, "      last error: {brief}");
        }
    }
    out
}

#[cfg(test)]
mod render_tests {
    use super::*;

    #[test]
    fn tree_text_rendering() {
        let tree = vec![
            TreeNode {
                source: "jdbc:snmp://n/p".into(),
                label: "n".into(),
                status: SourceStatus::Ok,
                cached: vec![("SELECT 1 FROM t".into(), 12_000)],
                last_ok_ms: Some(1),
                last_error: None,
            },
            TreeNode {
                source: "jdbc:snmp://m/p".into(),
                label: "m".into(),
                status: SourceStatus::PollFailed,
                cached: vec![],
                last_ok_ms: None,
                last_error: Some("boom".into()),
            },
        ];
        let text = render_tree_text(&tree, 2);
        assert!(text.contains("[ok] n"));
        assert!(text.contains("cached   12s ago: SELECT 1 FROM t"));
        assert!(text.contains("[!!] m"));
        assert!(text.contains("last error: boom"));
    }

    #[test]
    fn icons_distinct() {
        let icons = [
            SourceStatus::Ok.icon(),
            SourceStatus::RecentEvent.icon(),
            SourceStatus::PollFailed.icon(),
            SourceStatus::Unknown.icon(),
        ];
        let unique: std::collections::HashSet<_> = icons.iter().collect();
        assert_eq!(unique.len(), 4);
    }
}
