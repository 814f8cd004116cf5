//! Driver and data-source administration (paper §4, Figs 6–9): the
//! programmatic API behind the JSP management interface — add/remove/
//! modify data sources, prioritised driver registration per source,
//! network discovery, and the cached tree view with status icons.

use crate::acil::{ClientRequest, ClientResponse, QueryExecutor};
use crate::cache::CacheController;
use crate::driver_manager::{FailurePolicy, GridRMDriverManager};
use crate::health::{HealthMonitor, SourceHealthSnapshot};
use crate::stream::StreamManager;
use gridrm_dbc::{DbcResult, JdbcUrl, SqlError};
use gridrm_simnet::Network;
use gridrm_telemetry::{GatewayTelemetry, MetricSnapshot, TraceRecord};
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

#[derive(Debug, Default, Clone)]
struct SourceHealth {
    last_ok_ms: Option<u64>,
    last_error: Option<(u64, String)>,
    last_event_ms: Option<u64>,
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
    health: RwLock<BTreeMap<String, SourceHealth>>,
    driver_manager: Arc<GridRMDriverManager>,
    cache: Arc<CacheController>,
    telemetry: RwLock<Option<GatewayTelemetry>>,
    health_monitor: RwLock<Option<Arc<HealthMonitor>>>,
    streams: RwLock<Option<Arc<StreamManager>>>,
}

impl AdminInterface {
    /// Wire the interface to the managers it configures.
    pub fn new(
        driver_manager: Arc<GridRMDriverManager>,
        cache: Arc<CacheController>,
    ) -> AdminInterface {
        AdminInterface {
            sources: RwLock::new(BTreeMap::new()),
            health: RwLock::new(BTreeMap::new()),
            driver_manager,
            cache,
            telemetry: RwLock::new(None),
            health_monitor: RwLock::new(None),
            streams: RwLock::new(None),
        }
    }

    /// Attach the gateway telemetry hub; enables the metric and trace
    /// exposition endpoints below.
    pub fn attach_telemetry(&self, telemetry: GatewayTelemetry) {
        *self.telemetry.write() = Some(telemetry);
    }

    /// Read from the attached telemetry hub; the type's empty value
    /// without one.
    fn telemetry<T: Default>(&self, read: impl FnOnce(&GatewayTelemetry) -> T) -> T {
        self.telemetry.read().as_ref().map(read).unwrap_or_default()
    }

    /// Prometheus text exposition of every gateway metric (the admin
    /// scrape endpoint). Empty without attached telemetry.
    pub fn metrics_prometheus(&self) -> String {
        self.telemetry(|t| t.registry().render_prometheus())
    }

    /// Structured snapshot of every metric family (JSON exposition).
    pub fn metrics_snapshot(&self) -> Vec<MetricSnapshot> {
        self.telemetry(|t| t.registry().snapshot())
    }

    /// JSON text of [`AdminInterface::metrics_snapshot`].
    pub fn metrics_json(&self) -> String {
        pretty_json(&self.metrics_snapshot())
    }

    /// Recent query traces, oldest first.
    pub fn traces(&self) -> Vec<TraceRecord> {
        self.telemetry(|t| t.traces().recent())
    }

    /// The slowest retained trace by virtual duration.
    pub fn slowest_trace(&self) -> Option<TraceRecord> {
        self.telemetry(|t| t.traces().slowest())
    }

    /// Every retained span of one trace tree, oldest first.
    pub fn trace_spans(&self, trace_id: &str) -> Vec<TraceRecord> {
        self.telemetry(|t| t.traces().for_trace(trace_id))
    }

    /// JSON text of [`AdminInterface::trace_spans`] (the span tree of
    /// one trace, with full span-identity fields).
    pub fn trace_spans_json(&self, trace_id: &str) -> String {
        pretty_json(&self.trace_spans(trace_id))
    }

    /// Attach the health monitor; enables the health exposition below
    /// and health tracking of administered sources.
    pub fn attach_health(&self, monitor: Arc<HealthMonitor>) {
        // Sources configured before attachment become tracked now.
        for url in self.sources.read().keys() {
            monitor.track(url);
        }
        *self.health_monitor.write() = Some(monitor);
    }

    /// The attached health monitor, if any.
    pub fn health_monitor(&self) -> Option<Arc<HealthMonitor>> {
        self.health_monitor.read().clone()
    }

    /// Per-source health snapshot (JSON exposition source of truth —
    /// the `gridrm_health` SQL table serves the same rows).
    pub fn health_snapshot(&self) -> Vec<SourceHealthSnapshot> {
        self.health_monitor
            .read()
            .as_ref()
            .map(|m| m.snapshot())
            .unwrap_or_default()
    }

    /// JSON text of [`AdminInterface::health_snapshot`].
    pub fn health_json(&self) -> String {
        pretty_json(&self.health_snapshot())
    }

    /// The slow-query log, slowest first (full per-stage breakdown).
    pub fn slow_queries(&self) -> Vec<TraceRecord> {
        self.telemetry(|t| t.slow_queries().top())
    }

    /// JSON text of [`AdminInterface::slow_queries`].
    pub fn slow_queries_json(&self) -> String {
        pretty_json(&self.slow_queries())
    }

    /// Point-in-time SLO statuses as JSON: burn rates, remaining error
    /// budget, and firing state per declared SLO, sorted by name.
    pub fn slo_json(&self) -> String {
        pretty_json(&self.telemetry(|t| t.slo().snapshot()))
    }

    /// Attach the stream manager; enables the subscription exposition
    /// below.
    pub fn attach_streams(&self, streams: Arc<StreamManager>) {
        *self.streams.write() = Some(streams);
    }

    /// Live continuous-query subscriptions as JSON, ordered by id (the
    /// `gridrm_subscriptions` SQL table serves the same rows).
    pub fn subscriptions_json(&self) -> String {
        let subs = self.streams.read().as_ref().map(|s| s.snapshot());
        pretty_json(&subs.unwrap_or_default())
    }

    /// Add (or modify) a data source; applies its driver preferences and
    /// failure policy to the GridRMDriverManager.
    pub fn add_source(&self, config: DataSourceConfig) -> DbcResult<()> {
        let url = JdbcUrl::parse(&config.url)?;
        if config.preferred_drivers.is_empty() {
            self.driver_manager.clear_preferences(&url);
        } else {
            self.driver_manager
                .set_preferences(&url, config.preferred_drivers.clone());
        }
        if let Some(policy) = config.policy {
            self.driver_manager.set_policy(&url, policy);
        }
        if let Some(monitor) = self.health_monitor.read().as_ref() {
            monitor.track(&config.url);
        }
        self.sources.write().insert(config.url.clone(), config);
        Ok(())
    }

    /// Remove a data source: clears its preferences and cached results.
    pub fn remove_source(&self, url: &str) -> bool {
        let existed = self.sources.write().remove(url).is_some();
        if existed {
            if let Ok(parsed) = JdbcUrl::parse(url) {
                self.driver_manager.clear_preferences(&parsed);
            }
            self.cache.invalidate_source(url);
            self.health.write().remove(url);
            if let Some(monitor) = self.health_monitor.read().as_ref() {
                monitor.untrack(url);
            }
        }
        existed
    }

    /// The configured sources, sorted by URL.
    pub fn list_sources(&self) -> Vec<DataSourceConfig> {
        self.sources.read().values().cloned().collect()
    }

    /// Look up one source.
    pub fn source(&self, url: &str) -> Option<DataSourceConfig> {
        self.sources.read().get(url).cloned()
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

    /// Explicitly poll one administered source ("explicitly poll",
    /// Fig 9) through *any* query surface — a local [`crate::Gateway`]
    /// or the grid-wide `GlobalLayer` — and feed the tree-view health
    /// model from the structured per-source outcomes. Being generic
    /// over [`QueryExecutor`] is the point: the admin console refreshes
    /// its tree the same way whether it manages one site or the Grid.
    pub fn poll_now(
        &self,
        executor: &dyn QueryExecutor,
        url: &str,
        sql: &str,
        now_ms: u64,
    ) -> DbcResult<ClientResponse> {
        let request = ClientRequest::builder(sql).source(url).build();
        let result = executor.execute(&request);
        match &result {
            Ok(resp) => {
                for o in &resp.outcomes {
                    if o.status.is_success() {
                        self.record_poll_ok(&o.source, now_ms);
                    } else if let Some(w) = o.warning() {
                        self.record_poll_error(&o.source, now_ms, &w);
                    }
                }
            }
            Err(e) => self.record_poll_error(url, now_ms, &e.to_string()),
        }
        result
    }

    /// Record a successful poll of `url` at `now_ms` (gateway hook).
    pub fn record_poll_ok(&self, url: &str, now_ms: u64) {
        self.health
            .write()
            .entry(url.to_owned())
            .or_default()
            .last_ok_ms = Some(now_ms);
    }

    /// Record a failed poll.
    pub fn record_poll_error(&self, url: &str, now_ms: u64, error: &str) {
        self.health
            .write()
            .entry(url.to_owned())
            .or_default()
            .last_error = Some((now_ms, error.to_owned()));
    }

    /// Record an event received from `url`.
    pub fn record_event(&self, url: &str, now_ms: u64) {
        self.health
            .write()
            .entry(url.to_owned())
            .or_default()
            .last_event_ms = Some(now_ms);
    }

    /// Build the Fig 9 tree view: one node per configured source, with a
    /// status icon and its cached queries. `recent_window_ms` is the
    /// "received in last n minutes" window for the event icon.
    pub fn tree_view(&self, now_ms: u64, recent_window_ms: u64) -> Vec<TreeNode> {
        let sources = self.sources.read();
        let health = self.health.read();
        let inventory = self.cache.inventory(now_ms);
        sources
            .values()
            .map(|cfg| {
                let h = health.get(&cfg.url).cloned().unwrap_or_default();
                let recent_event = h
                    .last_event_ms
                    .is_some_and(|t| now_ms.saturating_sub(t) <= recent_window_ms);
                // Ties (same virtual ms) count as failed: the error is
                // the more recent news.
                let failed = match (h.last_error, h.last_ok_ms) {
                    (Some((terr, _)), Some(tok)) => terr >= tok,
                    (Some(_), None) => true,
                    _ => false,
                };
                let status = if failed {
                    SourceStatus::PollFailed
                } else if recent_event {
                    SourceStatus::RecentEvent
                } else if h.last_ok_ms.is_some() {
                    SourceStatus::Ok
                } else {
                    SourceStatus::Unknown
                };
                let last_error = health
                    .get(&cfg.url)
                    .and_then(|h| h.last_error.as_ref().map(|(_, e)| e.clone()));
                TreeNode {
                    source: cfg.url.clone(),
                    label: cfg.label.clone(),
                    status,
                    cached: inventory
                        .iter()
                        .filter(|(s, _, _)| s == &cfg.url)
                        .map(|(_, sql, age)| (sql.clone(), *age))
                        .collect(),
                    last_ok_ms: h.last_ok_ms,
                    last_error,
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
    /// growing a method per endpoint. Paths are the [`ROUTES`];
    /// unknown paths answer `NotFound` with the endpoint index as the
    /// body, and `/` or `/v1` serve the index directly. Trailing
    /// slashes are tolerated.
    pub fn handle(&self, path: &str) -> AdminResponse {
        let trimmed = path.trim().trim_end_matches('/');
        if matches!(trimmed, "" | "/" | "/v1") {
            return AdminResponse::ok_text(index_text());
        }
        for (pattern, _, render) in ROUTES {
            let arg = match pattern.strip_suffix("<id>") {
                Some(prefix) => trimmed.strip_prefix(prefix).filter(|id| !id.is_empty()),
                None => (trimmed == *pattern).then_some(""),
            };
            if let Some(arg) = arg {
                return render(self, arg);
            }
        }
        AdminResponse {
            status: AdminStatus::NotFound,
            content_type: "text/plain",
            body: index_text(),
        }
    }
}

fn pretty_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("admin snapshots are serialisable")
}

/// Renders one endpoint; the argument is what matched `<id>` in the
/// route's path (empty for fixed paths).
type Render = fn(&AdminInterface, &str) -> AdminResponse;

/// Every `/v1` endpoint: path, index description, renderer. Both
/// [`AdminInterface::handle`] and the index it serves are driven from
/// this table.
pub const ROUTES: &[(&str, &str, Render)] = &[
    ("/v1/metrics", "Prometheus text exposition", |a, _| {
        AdminResponse::ok_text(a.metrics_prometheus())
    }),
    ("/v1/metrics.json", "metric families as JSON", |a, _| {
        AdminResponse::ok_json(a.metrics_json())
    }),
    ("/v1/health", "per-source health snapshot", |a, _| {
        AdminResponse::ok_json(a.health_json())
    }),
    ("/v1/journal", "structured journal entries", |a, _| {
        AdminResponse::ok_json(pretty_json(&a.telemetry(|t| t.journal().recent())))
    }),
    (
        "/v1/slow-queries",
        "slow-query log, slowest first",
        |a, _| AdminResponse::ok_json(a.slow_queries_json()),
    ),
    ("/v1/slo", "SLO burn rates and error budgets", |a, _| {
        AdminResponse::ok_json(a.slo_json())
    }),
    (
        "/v1/subscriptions",
        "live continuous-query subscriptions",
        |a, _| AdminResponse::ok_json(a.subscriptions_json()),
    ),
    ("/v1/costs", "per-query inclusive cost entries", |a, _| {
        AdminResponse::ok_json(pretty_json(&a.telemetry(|t| t.costs().entries())))
    }),
    (
        "/v1/intrusion",
        "per-(site, cause) intrusion buckets",
        |a, _| {
            AdminResponse::ok_json(pretty_json(
                &a.telemetry(|t| t.costs().intrusion_snapshot()),
            ))
        },
    ),
    (
        "/v1/timeseries",
        "recorded metric time-series rows",
        |a, _| AdminResponse::ok_json(pretty_json(&a.telemetry(|t| t.timeseries().history()))),
    ),
    ("/v1/traces", "recent query traces", |a, _| {
        AdminResponse::ok_json(pretty_json(&a.traces()))
    }),
    (
        "/v1/traces/<id>",
        "span tree of one trace",
        |a, trace_id| AdminResponse::ok_json(a.trace_spans_json(trace_id)),
    ),
    ("/v1/sources", "configured data sources", |a, _| {
        AdminResponse::ok_json(a.to_json())
    }),
];

/// The endpoint index `/` and `/v1` serve (and `NotFound` bodies).
fn index_text() -> String {
    let mut out = "gridrm admin v1\n".to_owned();
    for (path, description, _) in ROUTES {
        out.push_str(&format!("{path:<19}{description}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridrm_simnet::SimClock;
    use std::sync::Arc;

    fn admin() -> AdminInterface {
        AdminInterface::new(
            Arc::new(GridRMDriverManager::new()),
            Arc::new(CacheController::new(5_000)),
        )
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
        a.record_poll_ok("jdbc:snmp://ok/public", 1_000);
        a.record_poll_ok("jdbc:snmp://failed/public", 1_000);
        a.record_poll_error("jdbc:snmp://failed/public", 2_000, "boom");
        a.record_poll_ok("jdbc:snmp://eventful/public", 1_000);
        a.record_event("jdbc:snmp://eventful/public", 9_000);

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
        a.record_poll_error("jdbc:snmp://n/p", 1_000, "down");
        a.record_poll_ok("jdbc:snmp://n/p", 2_000);
        assert_eq!(a.tree_view(3_000, 60_000)[0].status, SourceStatus::Ok);
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
        // JSON endpoints answer Ok with parseable JSON bodies, even with
        // nothing attached (they expose empty snapshots).
        for path in [
            "/v1/metrics.json",
            "/v1/health",
            "/v1/journal",
            "/v1/slow-queries",
            "/v1/slo",
            "/v1/subscriptions",
            "/v1/costs",
            "/v1/intrusion",
            "/v1/timeseries",
            "/v1/traces",
            "/v1/traces/some-trace",
            "/v1/sources",
        ] {
            let resp = a.handle(path);
            assert_eq!(resp.status, AdminStatus::Ok, "{path}");
            assert_eq!(resp.content_type, "application/json", "{path}");
            assert!(
                serde_json::from_str::<serde_json::Value>(&resp.body).is_ok(),
                "{path} body is not JSON: {}",
                resp.body
            );
        }
        // The consolidated dispatch answers exactly what the accessors do.
        assert_eq!(a.handle("/v1/sources").body, a.to_json());
        assert_eq!(a.handle("/v1/slo").body, a.slo_json());
        assert_eq!(a.handle("/v1/metrics").body, a.metrics_prometheus());
        // Index + tolerated trailing slash.
        for path in ["/", "/v1", "/v1/", ""] {
            let resp = a.handle(path);
            assert_eq!(resp.status, AdminStatus::Ok, "{path:?}");
            assert!(resp.body.contains("/v1/metrics"), "{path:?}");
        }
        // Unknown paths: NotFound, body is the index.
        let resp = a.handle("/v2/nope");
        assert_eq!(resp.status, AdminStatus::NotFound);
        assert!(resp.body.contains("gridrm admin v1"));
        // Trailing-slash tolerance folds `/v1/traces/` into the list
        // endpoint rather than an empty trace id.
        assert_eq!(a.handle("/v1/traces/").status, AdminStatus::Ok);
        assert_eq!(a.handle("/v1/nope").status, AdminStatus::NotFound);
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

impl SourceStatus {
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
