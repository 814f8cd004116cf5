//! The Connection Manager (paper §3.1.2): executes queries through pooled
//! driver connections. "Driver connections typically incur an overhead
//! when a data source is first connected, especially if drivers are
//! dynamically mapped to the data source. Therefore the ConnectionManager
//! provides pooling of driver connections to reduce the overhead effects."
//! A pooled connection is handed out as it is: it holds no session, so
//! the query's own first request tests the source, a use that fails
//! discards the connection, and liveness between queries belongs to the
//! active prober ([`ConnectionManager::probe`]).
//!
//! This is also where failure policies play out (§4): a failed query
//! invalidates the driver cache and, depending on policy, is retried,
//! rerouted to the next compatible driver, or reported.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use crate::driver_manager::{FailurePolicy, GridRMDriverManager};
use crate::health::HealthMonitor;
use gridrm_dbc::{Connection, DbcResult, JdbcUrl, Properties, RowSet, SqlError};
use gridrm_telemetry::{
    CostVector, Counter, GatewayTelemetry, Histogram, JournalSeverity, Labels, Registry,
    SpanBuilder, SpanText, Stage, DEFAULT_LATENCY_BUCKETS_MS, KIND_DRIVER_FALLBACK,
    KIND_POLICY_DECISION,
};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Pool counters (experiment E9), registered as
/// `gridrm_pool_events_total{event=…}`.
#[derive(Debug)]
pub struct PoolStats {
    /// Connection requests.
    pub checkouts: Counter,
    /// Served from the pool.
    pub pool_hits: Counter,
    /// Fresh connections created.
    pub creates: Counter,
    /// Connections discarded (failed use / over capacity).
    pub discards: Counter,
    /// Query attempts that failed.
    pub failures: Counter,
}

/// Named point-in-time copy of [`PoolStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolSnapshot {
    /// Connection requests.
    pub checkouts: u64,
    /// Served from the pool.
    pub pool_hits: u64,
    /// Fresh connections created.
    pub creates: u64,
    /// Connections discarded (failed use / over capacity).
    pub discards: u64,
    /// Query attempts that failed.
    pub failures: u64,
}

impl PoolStats {
    fn new(registry: &Registry) -> PoolStats {
        let [checkouts, pool_hits, creates, discards, failures] = registry.counters(
            "gridrm_pool_events_total",
            "Connection-pool lifecycle events by kind",
            "event",
            ["checkout", "pool_hit", "create", "discard", "failure"],
        );
        PoolStats {
            checkouts,
            pool_hits,
            creates,
            discards,
            failures,
        }
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            checkouts: self.checkouts.get(),
            pool_hits: self.pool_hits.get(),
            creates: self.creates.get(),
            discards: self.discards.get(),
            failures: self.failures.get(),
        }
    }
}

/// Idle connections by canonical source URL, then driver name: both
/// levels are looked up by `&str`, so a checkout copies no key.
type Pool = HashMap<String, HashMap<String, Vec<Box<dyn Connection>>>>;

/// The Connection Manager.
pub struct ConnectionManager {
    driver_manager: Arc<GridRMDriverManager>,
    pool: Mutex<Pool>,
    max_idle_per_key: usize,
    /// Pooling can be disabled to measure its benefit (E9).
    pooling_enabled: std::sync::atomic::AtomicBool,
    stats: PoolStats,
    /// Per-driver latency histograms, policy-decision journal entries
    /// and the clock that stamps them.
    telemetry: GatewayTelemetry,
    /// Fed by every query outcome (the passive health signal).
    health: Arc<HealthMonitor>,
    /// `gridrm_driver_latency_ms` series by driver name, each
    /// registered on the driver's first attempt.
    driver_latency: RwLock<HashMap<String, Histogram>>,
}

impl ConnectionManager {
    /// Manager over a driver manager, keeping up to `max_idle_per_key`
    /// idle connections per (source, driver) pair, reporting into the
    /// telemetry hub and the health monitor.
    pub fn new(
        driver_manager: Arc<GridRMDriverManager>,
        max_idle_per_key: usize,
        telemetry: &GatewayTelemetry,
        health: Arc<HealthMonitor>,
    ) -> Self {
        ConnectionManager {
            driver_manager,
            pool: Mutex::new(HashMap::new()),
            max_idle_per_key: max_idle_per_key.max(1),
            pooling_enabled: std::sync::atomic::AtomicBool::new(true),
            stats: PoolStats::new(telemetry.registry()),
            telemetry: telemetry.clone(),
            health,
            driver_latency: RwLock::new(HashMap::new()),
        }
    }

    /// Enable/disable pooling (ablation switch).
    pub fn set_pooling(&self, enabled: bool) {
        self.pooling_enabled.store(enabled, Ordering::Relaxed);
        if !enabled {
            self.pool.lock().clear();
        }
    }

    /// The underlying GridRM driver manager.
    pub fn driver_manager(&self) -> &Arc<GridRMDriverManager> {
        &self.driver_manager
    }

    /// Check a connection to `url` (canonical text `key`) out; the
    /// boolean is true when it came from the pool (vs. freshly
    /// created), so callers can trace the decision.
    fn checkout(
        &self,
        url: &JdbcUrl,
        key: &str,
        driver_name: &str,
    ) -> DbcResult<(Box<dyn Connection>, bool)> {
        self.stats.checkouts.inc();
        if self.pooling_enabled.load(Ordering::Relaxed) {
            // Handed out as it is: the caller's first request is the test.
            let pooled = self
                .pool
                .lock()
                .get_mut(key)
                .and_then(|drivers| drivers.get_mut(driver_name))
                .and_then(Vec::pop);
            if let Some(conn) = pooled {
                self.stats.pool_hits.inc();
                return Ok((conn, true));
            }
        }
        // "The ConnectionManager calls the GridRMDriverManager to return a
        // new connection if a suitable pooled instance does not exist."
        let driver = self
            .driver_manager
            .base()
            .get_by_name(driver_name)
            .ok_or_else(|| SqlError::NoSuitableDriver(format!("{driver_name} unregistered")))?;
        self.stats.creates.inc();
        Ok((driver.connect(url, &Properties::new())?, false))
    }

    fn checkin(&self, key: &str, driver_name: &str, mut conn: Box<dyn Connection>) {
        if !self.pooling_enabled.load(Ordering::Relaxed) || conn.is_closed() {
            let _ = conn.close();
            return;
        }
        let mut pool = self.pool.lock();
        let idle = pool
            .get_mut(key)
            .and_then(|drivers| drivers.get_mut(driver_name));
        // A key seen before is not copied again.
        let slot = match idle {
            Some(slot) => slot,
            None => pool
                .entry(key.to_owned())
                .or_default()
                .entry(driver_name.to_owned())
                .or_default(),
        };
        if slot.len() >= self.max_idle_per_key {
            self.stats.discards.inc();
            let _ = conn.close();
        } else {
            slot.push(conn);
        }
    }

    /// Number of idle pooled connections (across all keys).
    pub fn idle_connections(&self) -> usize {
        self.pool
            .lock()
            .values()
            .flat_map(HashMap::values)
            .map(Vec::len)
            .sum()
    }

    /// Drop every pooled connection (e.g. on shutdown).
    pub fn drain(&self) {
        self.pool.lock().clear();
    }

    /// One query attempt against one specific driver. Records the
    /// `checkout`/`connect`/`execute`/`translate` stages on the span,
    /// when given.
    fn attempt(
        &self,
        url: &JdbcUrl,
        key: &str,
        driver_name: &Arc<str>,
        sql: &str,
        mut span: Option<&mut SpanBuilder>,
    ) -> DbcResult<RowSet> {
        let (mut conn, pooled) = self.checkout(url, key, driver_name)?;
        if let Some(s) = span.as_deref_mut() {
            s.stage_with(Stage::Checkout, if pooled { "pool_hit" } else { "create" });
            s.stage_with(Stage::Connect, driver_name);
        }
        let result = (|| {
            let mut stmt = conn.create_statement()?;
            let mut rs = stmt.execute_query(sql)?;
            if let Some(s) = span.as_deref_mut() {
                s.stage(Stage::Execute);
            }
            let rows = RowSet::materialize(rs.as_mut());
            if rows.is_ok() {
                if let Some(s) = span.as_deref_mut() {
                    s.stage_with(Stage::Translate, "glue rowset");
                }
            }
            rows
        })();
        match &result {
            Ok(_) => self.checkin(key, driver_name, conn),
            Err(_) => {
                // A failed connection is not returned to the pool.
                self.stats.discards.inc();
                let _ = conn.close();
            }
        }
        result
    }

    /// Execute a real-time query against a data source, applying the
    /// source's failure policy. This is the Fig 3/Fig 5 query path.
    pub fn execute(&self, url: &JdbcUrl, sql: &str) -> DbcResult<RowSet> {
        self.execute_traced(url, sql, None)
    }

    /// [`ConnectionManager::execute`] with an optional in-flight trace
    /// span. Each resolution runs under a `resolve` child span (which
    /// candidates were weighed, and why the winner won) and each driver
    /// attempt under a `driver_execute` child span (`checkout` →
    /// `connect` → `execute` → `translate`); the attempt's span is also
    /// entered as the thread's ambient active span, so GLUE translation
    /// inside the driver hangs its own child off it. Every attempt feeds
    /// the per-driver latency histogram.
    pub fn execute_traced(
        &self,
        url: &JdbcUrl,
        sql: &str,
        mut span: Option<&mut SpanBuilder>,
    ) -> DbcResult<RowSet> {
        let clock = self.telemetry.clock();
        let journal = self.telemetry.journal();
        // The source's canonical text, rendered once: every key, span and
        // health record below shares it.
        let key: Arc<str> = Arc::from(url.to_string());
        let policy = self.driver_manager.policy_for_key(&key);
        let mut excluded: Vec<String> = Vec::new();
        let mut retries_used = 0u32;
        let mut last_err: Option<SqlError> = None;
        loop {
            let mut resolve_span = span
                .as_deref()
                .map(|s| s.child(SpanText::around(&["resolve ", ""], &key)));
            let resolved =
                self.driver_manager
                    .resolve_keyed(url, &key, &excluded, resolve_span.as_mut());
            let driver = match resolved {
                Ok(d) => {
                    if let Some(rs) = resolve_span {
                        rs.finish("ok");
                    }
                    d
                }
                Err(e) => {
                    if let Some(rs) = resolve_span {
                        rs.finish("error");
                    }
                    return Err(last_err.unwrap_or(e));
                }
            };
            let name: Arc<str> = Arc::from(driver.name());
            if let Some(s) = span.as_deref_mut() {
                s.stage_with(Stage::Resolve, &name);
            }
            let mut exec_span = span.as_deref().map(|s| {
                let mut c = s.child(SpanText::around(&["driver_execute ", ""], &name));
                c.stage_with(Stage::DriverExecute, &name);
                c.source(&key);
                c
            });
            let started_ms = clock.now_millis();
            let outcome = {
                let _active = exec_span.as_ref().map(gridrm_telemetry::active::enter);
                self.attempt(url, &key, &name, sql, exec_span.as_mut())
            };
            if let Some(mut es) = exec_span {
                // Every attempt is one native driver fetch; a successful
                // one also materialised rows the ledger should attribute.
                es.add_cost(&CostVector {
                    fetch_units: 1,
                    rows_scanned: outcome.as_ref().map(RowSet::len).unwrap_or(0) as u64,
                    ..CostVector::default()
                });
                es.finish(if outcome.is_ok() { "ok" } else { "error" });
            }
            self.driver_latency(&name)
                .observe(clock.now_millis().saturating_sub(started_ms) as f64);
            match outcome {
                Ok(rs) => {
                    self.driver_manager.record_success_key(&key, &name);
                    self.health.record_success(&key, &name, clock.now_millis());
                    return Ok(rs);
                }
                Err(err) => {
                    self.stats.failures.inc();
                    // The *failed* driver is recorded against the source's
                    // health, even when the policy falls back to another.
                    self.driver_manager.record_failure_key(&key, &name);
                    self.health.record_failure(
                        &key,
                        Some(&name),
                        &err.to_string(),
                        clock.now_millis(),
                    );
                    // Query-level errors (bad SQL, unsupported group) are
                    // not connectivity failures: no policy will fix them.
                    if !err.is_retryable() && !matches!(err, SqlError::Driver(_)) {
                        return Err(err);
                    }
                    let trace_id = span.as_deref().map(SpanBuilder::trace_id);
                    let decision = |severity, kind, message: &str| {
                        journal.record_traced(
                            clock.now_millis(),
                            severity,
                            kind,
                            &key,
                            Some(&name),
                            None,
                            message,
                            trace_id,
                        );
                    };
                    match policy {
                        FailurePolicy::Report => {
                            decision(
                                JournalSeverity::Warning,
                                KIND_POLICY_DECISION,
                                "report: surfacing error to client",
                            );
                            return Err(err);
                        }
                        FailurePolicy::Retry(n) => {
                            if retries_used >= n {
                                decision(
                                    JournalSeverity::Warning,
                                    KIND_POLICY_DECISION,
                                    &format!("retry: {n} attempts exhausted"),
                                );
                                return Err(err);
                            }
                            retries_used += 1;
                            decision(
                                JournalSeverity::Info,
                                KIND_POLICY_DECISION,
                                &format!("retry {retries_used}/{n}"),
                            );
                            last_err = Some(err);
                        }
                        FailurePolicy::TryNext => {
                            decision(
                                JournalSeverity::Warning,
                                KIND_DRIVER_FALLBACK,
                                &format!("falling back from {name}: {err}"),
                            );
                            excluded.push(name.to_string());
                            last_err = Some(err);
                        }
                    }
                }
            }
        }
    }

    /// Actively probe a data source: resolve its driver, check a
    /// connection out (pooled or fresh) and ping it — one native
    /// request on a pooled connection. Returns the driver name on
    /// success. Used by the gateway's probe scheduler — the caller
    /// records the outcome (and elapsed time) into health.
    pub fn probe(&self, url: &JdbcUrl) -> DbcResult<String> {
        let driver = self.driver_manager.resolve(url)?;
        let name = driver.name();
        let key = url.to_string();
        let result = (|| {
            let (mut conn, _pooled) = self.checkout(url, &key, &name)?;
            match conn.ping() {
                Ok(()) => {
                    self.checkin(&key, &name, conn);
                    Ok(())
                }
                Err(e) => {
                    self.stats.discards.inc();
                    let _ = conn.close();
                    Err(e)
                }
            }
        })();
        match result {
            Ok(()) => {
                self.driver_manager.record_success(url, &name);
                Ok(name)
            }
            Err(e) => {
                // Keeps the last-success cache honest: a probe failing
                // through the cached driver unpins it, so the next
                // resolution can pick a live one.
                self.driver_manager.record_failure(url, &name);
                Err(e)
            }
        }
    }

    /// The latency histogram of `driver`, registered on first use.
    fn driver_latency(&self, driver: &str) -> Histogram {
        if let Some(histogram) = self.driver_latency.read().get(driver) {
            return histogram.clone();
        }
        let histogram = self.telemetry.registry().histogram(
            "gridrm_driver_latency_ms",
            "Per-driver query execution latency in virtual milliseconds",
            Labels::from_pairs(&[("driver", driver)]),
            DEFAULT_LATENCY_BUCKETS_MS,
        );
        self.driver_latency
            .write()
            .insert(driver.to_owned(), histogram.clone());
        histogram
    }

    /// Pool counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthConfig;
    use gridrm_agents::deploy_site;
    use gridrm_dbc::{ColumnMeta, Driver, DriverMetaData, ResultSet, ResultSetMetaData, Statement};
    use gridrm_drivers::{register_standard_drivers, DriverEnv};
    use gridrm_glue::SchemaManager;
    use gridrm_resmodel::{SiteModel, SiteSpec};
    use gridrm_simnet::{Network, SimClock};
    use gridrm_sqlparse::{SqlType, SqlValue};
    use gridrm_telemetry::KIND_STATE_TRANSITION;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    /// A scriptable driver: fails while `broken` is set.
    struct ScriptedDriver {
        name: &'static str,
        broken: Arc<AtomicBool>,
        connects: Arc<AtomicU64>,
    }

    struct ScriptedConn {
        url: JdbcUrl,
        name: &'static str,
        broken: Arc<AtomicBool>,
        closed: bool,
    }

    struct ScriptedStmt {
        name: &'static str,
        broken: Arc<AtomicBool>,
    }

    impl Driver for ScriptedDriver {
        fn meta(&self) -> DriverMetaData {
            DriverMetaData {
                name: self.name.to_owned(),
                subprotocol: "any".to_owned(),
                version: (1, 0),
                description: String::new(),
            }
        }
        fn accepts_url(&self, _url: &JdbcUrl) -> bool {
            true
        }
        fn connect(&self, url: &JdbcUrl, _props: &Properties) -> DbcResult<Box<dyn Connection>> {
            self.connects.fetch_add(1, Ordering::Relaxed);
            if self.broken.load(Ordering::Relaxed) {
                return Err(SqlError::Connection(format!("{} down", self.name)));
            }
            Ok(Box::new(ScriptedConn {
                url: url.clone(),
                name: self.name,
                broken: self.broken.clone(),
                closed: false,
            }))
        }
    }

    impl Connection for ScriptedConn {
        fn create_statement(&mut self) -> DbcResult<Box<dyn Statement>> {
            if self.closed {
                return Err(SqlError::Closed);
            }
            Ok(Box::new(ScriptedStmt {
                name: self.name,
                broken: self.broken.clone(),
            }))
        }
        fn url(&self) -> &JdbcUrl {
            &self.url
        }
        fn is_closed(&self) -> bool {
            self.closed
        }
        fn close(&mut self) -> DbcResult<()> {
            self.closed = true;
            Ok(())
        }
    }

    impl Statement for ScriptedStmt {
        fn execute_query(&mut self, _sql: &str) -> DbcResult<Box<dyn ResultSet>> {
            if self.broken.load(Ordering::Relaxed) {
                return Err(SqlError::Connection("query failed".into()));
            }
            Ok(Box::new(
                RowSet::new(
                    ResultSetMetaData::new(vec![ColumnMeta::new("driver", SqlType::Str)]),
                    vec![vec![SqlValue::Str(self.name.to_owned())]],
                )
                .unwrap(),
            ))
        }
    }

    struct Rig {
        cm: ConnectionManager,
        broken_a: Arc<AtomicBool>,
        broken_b: Arc<AtomicBool>,
        connects_a: Arc<AtomicU64>,
        connects_b: Arc<AtomicU64>,
    }

    /// A manager over `dm` with its own telemetry hub and health monitor.
    fn manager(dm: Arc<GridRMDriverManager>, max_idle_per_key: usize) -> ConnectionManager {
        let telemetry = GatewayTelemetry::new(SimClock::new());
        let health = Arc::new(HealthMonitor::new(HealthConfig::default(), &telemetry));
        ConnectionManager::new(dm, max_idle_per_key, &telemetry, health)
    }

    fn rig() -> Rig {
        let dm = Arc::new(GridRMDriverManager::new(&Registry::new()));
        let broken_a = Arc::new(AtomicBool::new(false));
        let broken_b = Arc::new(AtomicBool::new(false));
        let connects_a = Arc::new(AtomicU64::new(0));
        let connects_b = Arc::new(AtomicU64::new(0));
        dm.register(Arc::new(ScriptedDriver {
            name: "drv-a",
            broken: broken_a.clone(),
            connects: connects_a.clone(),
        }));
        dm.register(Arc::new(ScriptedDriver {
            name: "drv-b",
            broken: broken_b.clone(),
            connects: connects_b.clone(),
        }));
        Rig {
            cm: manager(dm, 4),
            broken_a,
            broken_b,
            connects_a,
            connects_b,
        }
    }

    fn url() -> JdbcUrl {
        JdbcUrl::parse("jdbc:any://host/x").unwrap()
    }

    fn winner(rs: &RowSet) -> String {
        rs.rows()[0][0].to_string()
    }

    #[test]
    fn pooling_reuses_connections() {
        let r = rig();
        for _ in 0..10 {
            r.cm.execute(&url(), "SELECT 1 FROM t").unwrap();
        }
        assert_eq!(r.connects_a.load(Ordering::Relaxed), 1);
        let snap = r.cm.stats().snapshot();
        assert_eq!(snap.checkouts, 10);
        assert_eq!(snap.pool_hits, 9);
        assert_eq!(snap.creates, 1);
        assert_eq!(r.cm.idle_connections(), 1);
    }

    #[test]
    fn pooling_disabled_reconnects_every_time() {
        let r = rig();
        r.cm.set_pooling(false);
        for _ in 0..5 {
            r.cm.execute(&url(), "q").unwrap();
        }
        assert_eq!(r.connects_a.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn trynext_fails_over_to_second_driver() {
        let r = rig();
        r.broken_a.store(true, Ordering::Relaxed);
        let rs = r.cm.execute(&url(), "q").unwrap();
        assert_eq!(winner(&rs), "drv-b");
        // And the success is cached for next time.
        assert_eq!(
            r.cm.driver_manager().cached_driver(&url()).as_deref(),
            Some("drv-b")
        );
    }

    #[test]
    fn report_policy_surfaces_error() {
        let r = rig();
        r.cm.driver_manager()
            .set_policy(&url(), FailurePolicy::Report);
        r.broken_a.store(true, Ordering::Relaxed);
        assert!(matches!(
            r.cm.execute(&url(), "q").err().unwrap(),
            SqlError::Connection(_)
        ));
    }

    #[test]
    fn retry_policy_recovers_after_transient_failure() {
        let r = rig();
        r.cm.driver_manager()
            .set_policy(&url(), FailurePolicy::Retry(3));
        // Pre-establish the cache so retry targets drv-a.
        r.cm.execute(&url(), "q").unwrap();
        r.broken_a.store(true, Ordering::Relaxed);
        // All retries exhausted → error.
        assert!(r.cm.execute(&url(), "q").is_err());
        // Transient failure: agent comes back before retries run out. The
        // scripted driver recovers instantly, so the first retry wins.
        r.broken_a.store(false, Ordering::Relaxed);
        assert_eq!(winner(&r.cm.execute(&url(), "q").unwrap()), "drv-a");
    }

    #[test]
    fn all_drivers_down_reports_last_error() {
        let r = rig();
        r.broken_a.store(true, Ordering::Relaxed);
        r.broken_b.store(true, Ordering::Relaxed);
        let err = r.cm.execute(&url(), "q").err().unwrap();
        assert!(matches!(err, SqlError::Connection(_)), "{err}");
    }

    #[test]
    fn recovery_after_failover_and_back() {
        let r = rig();
        r.cm.execute(&url(), "q").unwrap(); // cache = drv-a
        r.broken_a.store(true, Ordering::Relaxed);
        assert_eq!(winner(&r.cm.execute(&url(), "q").unwrap()), "drv-b");
        // drv-a heals; cache still says drv-b, which keeps working — the
        // gateway stays on the known-good driver (paper §4 behaviour).
        r.broken_a.store(false, Ordering::Relaxed);
        assert_eq!(winner(&r.cm.execute(&url(), "q").unwrap()), "drv-b");
    }

    #[test]
    fn broken_pooled_connection_is_replaced() {
        let r = rig();
        r.cm.execute(&url(), "q").unwrap();
        assert_eq!(r.cm.idle_connections(), 1);
        // Break the agent: the pooled connection fails its use, is
        // discarded, and drv-b takes over. The failed use was drv-a's
        // attempt, so nothing reconnects to drv-a.
        r.broken_a.store(true, Ordering::Relaxed);
        let rs = r.cm.execute(&url(), "q").unwrap();
        assert_eq!(winner(&rs), "drv-b");
        assert!(r.cm.stats().snapshot().discards >= 1);
        assert_eq!(r.connects_a.load(Ordering::Relaxed), 1);
    }

    /// Table 2 over policy × what became of the source once its
    /// connection was pooled. Every case first runs one query (drv-a
    /// answers and its connection is pooled); then `Up` queries again,
    /// `Broken` breaks drv-a and queries, `Healed` breaks drv-a,
    /// queries, heals it and queries again. The last query is the one
    /// judged: who answered, how many attempts failed, how many
    /// connections were opened, and what the journal says was decided.
    #[test]
    fn table2_outcomes_by_policy_and_source_state() {
        use FailurePolicy::{Report, Retry, TryNext};
        #[derive(Clone, Copy, Debug)]
        enum After {
            Up,
            Broken,
            Healed,
        }
        use After::{Broken, Healed, Up};
        struct Want {
            /// The driver that answers; `None` for a connection error.
            winner: Option<&'static str>,
            failed_attempts: u64,
            /// Connections opened to drv-a; `None` while it is broken
            /// (`broken_pooled_connection_is_replaced` pins that the
            /// pooled connection's failed use opens none).
            connects_a: Option<u64>,
            connects_b: u64,
            /// `(kind, message prefix)` of each journal line.
            journal: &'static [(&'static str, &'static str)],
        }
        let answered = |winner, connects_a| Want {
            winner: Some(winner),
            failed_attempts: 0,
            connects_a: Some(connects_a),
            connects_b: 0,
            journal: &[],
        };
        let cases = [
            (Report, Up, answered("drv-a", 0)),
            (Retry(2), Up, answered("drv-a", 0)),
            (TryNext, Up, answered("drv-a", 0)),
            (
                Report,
                Broken,
                Want {
                    winner: None,
                    failed_attempts: 1,
                    connects_a: None,
                    connects_b: 0,
                    journal: &[(KIND_POLICY_DECISION, "report: surfacing error")],
                },
            ),
            (
                Retry(2),
                Broken,
                Want {
                    winner: None,
                    failed_attempts: 3,
                    connects_a: None,
                    connects_b: 0,
                    journal: &[
                        (KIND_POLICY_DECISION, "retry 1/2"),
                        (KIND_POLICY_DECISION, "retry 2/2"),
                        (KIND_POLICY_DECISION, "retry: 2 attempts exhausted"),
                    ],
                },
            ),
            (
                TryNext,
                Broken,
                Want {
                    winner: Some("drv-b"),
                    failed_attempts: 1,
                    connects_a: None,
                    connects_b: 1,
                    journal: &[(KIND_DRIVER_FALLBACK, "falling back from drv-a")],
                },
            ),
            // Report and Retry forgot the failed driver, so the first
            // compatible one is connected afresh; TryNext stays on the
            // driver that last worked, whose connection is pooled.
            (Report, Healed, answered("drv-a", 1)),
            (Retry(2), Healed, answered("drv-a", 1)),
            (TryNext, Healed, answered("drv-b", 0)),
        ];
        for (policy, after, want) in cases {
            let case = format!("{policy:?} / {after:?}");
            let r = rig();
            let telemetry = r.cm.telemetry.clone();
            r.cm.driver_manager().set_policy(&url(), policy);
            assert_eq!(winner(&r.cm.execute(&url(), "q").unwrap()), "drv-a");
            if matches!(after, Broken | Healed) {
                r.broken_a.store(true, Ordering::Relaxed);
            }
            if matches!(after, Healed) {
                let _ = r.cm.execute(&url(), "q");
                r.broken_a.store(false, Ordering::Relaxed);
            }
            let journal_before = telemetry.journal().recent().len();
            let failures_before = r.cm.stats().snapshot().failures;
            let connects = || {
                (
                    r.connects_a.load(Ordering::Relaxed),
                    r.connects_b.load(Ordering::Relaxed),
                )
            };
            let connects_before = connects();

            let result = r.cm.execute(&url(), "q");

            match (&result, want.winner) {
                (Ok(rs), Some(driver)) => assert_eq!(winner(rs), driver, "{case}"),
                (Err(SqlError::Connection(_)), None) => {}
                _ => panic!("{case}: got {result:?}"),
            }
            assert_eq!(
                r.cm.stats().snapshot().failures - failures_before,
                want.failed_attempts,
                "{case}: failed attempts"
            );
            let opened = connects();
            if let Some(a) = want.connects_a {
                assert_eq!(opened.0 - connects_before.0, a, "{case}: drv-a connects");
            }
            assert_eq!(
                opened.1 - connects_before.1,
                want.connects_b,
                "{case}: drv-b connects"
            );
            // The health monitor's transitions share the journal; the
            // decisions judged here are the policy's own lines.
            let journal = telemetry.journal().recent();
            let lines: Vec<(&str, &str)> = journal[journal_before..]
                .iter()
                .filter(|e| e.kind != KIND_STATE_TRANSITION)
                .map(|e| (e.kind.as_str(), e.message.as_str()))
                .collect();
            assert_eq!(lines.len(), want.journal.len(), "{case}: {lines:?}");
            for ((kind, message), (want_kind, prefix)) in lines.iter().zip(want.journal) {
                assert_eq!(kind, want_kind, "{case}: {lines:?}");
                assert!(message.starts_with(prefix), "{case}: {lines:?}");
            }
        }
    }

    /// E9's claim, in intrusion instead of µs: through the real SNMP
    /// driver the pool saves the monitored host one request per query.
    #[test]
    fn pooled_snmp_query_costs_the_agent_one_request() {
        let net = Network::new(SimClock::new(), 5);
        let site = SiteModel::generate(7, &SiteSpec::new("pool", 2, 2));
        site.advance_to(60_000);
        deploy_site(&net, site);
        let env = DriverEnv::new(net.clone(), Arc::new(SchemaManager::new()), "gw");
        let dm = Arc::new(GridRMDriverManager::new(&Registry::new()));
        register_standard_drivers(dm.base(), &env);
        let cm = manager(dm, 4);
        let url = JdbcUrl::parse("jdbc:snmp://node01.pool/public").unwrap();
        let link = net.stats_for("gw", "node01.pool:snmp");
        let requests_of_one_query = || {
            let before = link.snapshot().requests;
            cm.execute(&url, "SELECT Hostname, Load1 FROM Processor")
                .unwrap();
            link.snapshot().requests - before
        };
        assert_eq!(requests_of_one_query(), 2, "cold: connect-time probe + GET");
        assert_eq!(requests_of_one_query(), 1, "warm: the GET alone");
        cm.set_pooling(false);
        assert_eq!(
            [requests_of_one_query(), requests_of_one_query()],
            [2, 2],
            "unpooled: every query reconnects"
        );
    }

    #[test]
    fn pool_respects_capacity() {
        let dm = Arc::new(GridRMDriverManager::new(&Registry::new()));
        dm.register(Arc::new(ScriptedDriver {
            name: "drv-a",
            broken: Arc::new(AtomicBool::new(false)),
            connects: Arc::new(AtomicU64::new(0)),
        }));
        let cm = manager(dm, 2);
        // Checkout 4 connections simultaneously, then return them all.
        let u = url();
        let key = u.to_string();
        let conns: Vec<_> = (0..4)
            .map(|_| cm.checkout(&u, &key, "drv-a").unwrap().0)
            .collect();
        for c in conns {
            cm.checkin(&key, "drv-a", c);
        }
        assert_eq!(cm.idle_connections(), 2);
        cm.drain();
        assert_eq!(cm.idle_connections(), 0);
    }

    #[test]
    fn nonretryable_error_not_failed_over() {
        // An Unsupported error (bad group) must not trigger failover —
        // trying another driver cannot fix the client's SQL.
        struct UnsupportedDriver;
        impl Driver for UnsupportedDriver {
            fn meta(&self) -> DriverMetaData {
                DriverMetaData {
                    name: "drv-unsup".into(),
                    subprotocol: "any".into(),
                    version: (1, 0),
                    description: String::new(),
                }
            }
            fn accepts_url(&self, _url: &JdbcUrl) -> bool {
                true
            }
            fn connect(&self, url: &JdbcUrl, _p: &Properties) -> DbcResult<Box<dyn Connection>> {
                struct C(JdbcUrl);
                impl Connection for C {
                    fn create_statement(&mut self) -> DbcResult<Box<dyn Statement>> {
                        struct S;
                        impl Statement for S {
                            fn execute_query(&mut self, _q: &str) -> DbcResult<Box<dyn ResultSet>> {
                                Err(SqlError::Unsupported("no such group".into()))
                            }
                        }
                        Ok(Box::new(S))
                    }
                    fn url(&self) -> &JdbcUrl {
                        &self.0
                    }
                    fn is_closed(&self) -> bool {
                        false
                    }
                    fn close(&mut self) -> DbcResult<()> {
                        Ok(())
                    }
                }
                Ok(Box::new(C(url.clone())))
            }
        }
        let dm = Arc::new(GridRMDriverManager::new(&Registry::new()));
        dm.register(Arc::new(UnsupportedDriver));
        let cm = manager(dm, 2);
        assert!(matches!(
            cm.execute(&url(), "SELECT * FROM Bogus").err().unwrap(),
            SqlError::Unsupported(_)
        ));
    }
}
