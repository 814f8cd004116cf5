//! The Gateway facade: wires every Local-layer component together
//! (Fig 2/Fig 3) and exposes the ACIL entry point.

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

use crate::acil::{ClientRequest, ClientResponse, QueryBuilder, QueryExecutor, RequestKind};
use crate::admin::AdminInterface;
use crate::alerts::AlertEngine;
use crate::cache::CacheController;
use crate::config::GatewayConfig;
use crate::connection::ConnectionManager;
use crate::driver_manager::GridRMDriverManager;
use crate::events::EventManager;
use crate::explain::{explain, explain_subscription};
use crate::health::{HealthConfig, HealthMonitor, HealthState};
use crate::history::HistoryManager;
use crate::request::RequestManager;
use crate::security::{Identity, SecurityPolicy};
use crate::session::{SessionManager, SessionToken};
use crate::stream::{StreamDelta, StreamManager, StreamSettings, SubscribeSpec, SubscriptionId};
use crossbeam::channel::Receiver;
use gridrm_dbc::{ColumnMeta, DbcResult, JdbcUrl, ResultSetMetaData, RowSet};
use gridrm_glue::SchemaManager;
use gridrm_simnet::{Network, Push, SimClock};
use gridrm_sqlparse::{ParseMemo, SqlType, SqlValue};
use gridrm_store::Store;
use gridrm_telemetry::{
    CostVector, GatewayTelemetry, IntrusionCause, Labels, Stage, TelemetryCapacities,
    DEFAULT_TRACE_CAPACITY,
};
use parking_lot::RwLock;
use std::sync::Arc;

/// A GridRM gateway: "an access point to local resource data within its
/// local control" (§1.1).
pub struct Gateway {
    config: GatewayConfig,
    clock: Arc<SimClock>,
    network: Arc<Network>,
    schema: Arc<SchemaManager>,
    driver_manager: Arc<GridRMDriverManager>,
    connections: Arc<ConnectionManager>,
    cache: Arc<CacheController>,
    history: HistoryManager,
    events: Arc<EventManager>,
    sessions: Arc<SessionManager>,
    security: Arc<RwLock<SecurityPolicy>>,
    alerts: Arc<AlertEngine>,
    admin: Arc<AdminInterface>,
    request: Arc<RequestManager>,
    telemetry: GatewayTelemetry,
    health: Arc<HealthMonitor>,
    streams: Arc<StreamManager>,
    /// Statements of the SQL texts [`Gateway::builder`] has seen.
    parses: ParseMemo,
    /// Native pushes (traps, streamed events) addressed to this gateway.
    push_rx: Receiver<Push>,
}

impl Gateway {
    /// Build and wire a gateway. Registers the gateway's address on the
    /// network (so agents can push traps to it) and mounts the history
    /// store for the JDBC-GridRM driver under the name `history`.
    pub fn new(config: GatewayConfig, network: Arc<Network>) -> Arc<Gateway> {
        let clock = network.clock().clone();
        let telemetry = GatewayTelemetry::with_capacities(
            clock.clone(),
            TelemetryCapacities {
                traces: DEFAULT_TRACE_CAPACITY,
                journal: config.journal_capacity,
                slow_queries: config.slow_query_log_capacity,
                slow_query_threshold_ms: config.slow_query_threshold_ms,
            },
        );
        // Spans are stamped with the gateway's Grid identity so a
        // multi-site trace reassembles unambiguously.
        telemetry.set_identity(&config.site, &config.name);
        telemetry
            .timeseries()
            .configure(config.timeseries_interval_ms, config.timeseries_capacity);
        telemetry.slo().configure(&config.slos);
        telemetry
            .costs()
            .set_budget(config.cost_budget_bytes, config.cost_budget_rows);
        // Every component below gets the telemetry hub (or its registry)
        // when it is built and creates its own metric families there.
        let registry = telemetry.registry();
        let schema = Arc::new(SchemaManager::new());
        let driver_manager = Arc::new(GridRMDriverManager::new(registry));
        // Data-source health: the state machine is fed passively by the
        // ConnectionManager's execute/checkout outcomes and actively by
        // the probe scheduler in `pump()`.
        let health = Arc::new(HealthMonitor::new(
            HealthConfig {
                probe_interval_ms: config.probe_interval_ms,
                probe_timeout_ms: config.probe_timeout_ms,
                down_after: config.health_down_after,
                up_after: config.health_up_after,
            },
            &telemetry,
        ));
        let connections = Arc::new(ConnectionManager::new(
            driver_manager.clone(),
            config.pool_max_idle,
            &telemetry,
            health.clone(),
        ));
        let cache = Arc::new(CacheController::new(config.cache_ttl_ms, registry));
        let store = Store::new();
        #[expect(
            clippy::expect_used,
            reason = "startup-only: runs once in new(), before any request is served"
        )]
        let history = HistoryManager::new(store, &telemetry).expect("fresh store accepts schema");
        let events = EventManager::new(config.event_fast_capacity, &telemetry);
        let sessions = Arc::new(SessionManager::new(config.session_ttl_ms));
        let security = Arc::new(RwLock::new(SecurityPolicy::permissive()));
        let alerts = Arc::new(AlertEngine::new());
        let request = Arc::new(RequestManager::new(
            connections.clone(),
            cache.clone(),
            history.clone(),
            events.clone(),
            alerts.clone(),
            sessions.clone(),
            security.clone(),
            config.record_history,
            &telemetry,
        ));
        request.set_default_deadline_ms(config.default_deadline_ms);
        // The live observability plane: standing queries registered by
        // `subscribe` / `SELECT … EVERY n`, evaluated incrementally in
        // `pump`.
        let streams = Arc::new(StreamManager::new(
            StreamSettings {
                buffer_capacity: config.stream_buffer_capacity,
                backpressure: config.stream_backpressure,
                min_every_ms: config.stream_min_every_ms,
                max_subscribers: config.stream_max_subscribers,
            },
            format!("local:{}", config.name),
            &telemetry,
        ));
        let admin = Arc::new(AdminInterface::new(
            driver_manager.clone(),
            cache.clone(),
            &telemetry,
            health.clone(),
            streams.clone(),
        ));
        // Become reachable: agents push traps to `config.address`.
        network.register(
            &config.address,
            Arc::new(|_from: &str, _req: &[u8]| {
                // The Local layer speaks to clients in-process; RPC to the
                // gateway goes through the Global layer's `:gma` endpoint.
                b"gridrm-gateway: use the :gma endpoint for RPC".to_vec()
            }),
        );
        #[expect(
            clippy::expect_used,
            reason = "startup-only: register() on this address is two statements up"
        )]
        let push_rx = network
            .subscribe(&config.address)
            .expect("gateway endpoint just registered");
        Arc::new(Gateway {
            config,
            clock,
            network,
            schema,
            driver_manager,
            connections,
            cache,
            history,
            events,
            sessions,
            security,
            alerts,
            admin,
            request,
            telemetry,
            health,
            streams,
            parses: ParseMemo::default(),
            push_rx,
        })
    }

    /// The gateway's configuration.
    pub fn config(&self) -> &GatewayConfig {
        &self.config
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The network the gateway lives on.
    pub fn network(&self) -> &Arc<Network> {
        &self.network
    }

    /// The Naming Schema Manager (§3.1.4).
    pub fn schema(&self) -> &Arc<SchemaManager> {
        &self.schema
    }

    /// The GridRM Driver Manager (§3.1.3).
    pub fn driver_manager(&self) -> &Arc<GridRMDriverManager> {
        &self.driver_manager
    }

    /// The Connection Manager (§3.1.2).
    pub fn connections(&self) -> &Arc<ConnectionManager> {
        &self.connections
    }

    /// The Cache Controller (§4).
    pub fn cache(&self) -> &Arc<CacheController> {
        &self.cache
    }

    /// Historical data (§3.1.1).
    pub fn history(&self) -> &HistoryManager {
        &self.history
    }

    /// The Event Manager (§3.1.5).
    pub fn events(&self) -> &Arc<EventManager> {
        &self.events
    }

    /// Session management.
    pub fn sessions(&self) -> &Arc<SessionManager> {
        &self.sessions
    }

    /// The security policy (shared, hot-swappable).
    pub fn security(&self) -> &Arc<RwLock<SecurityPolicy>> {
        &self.security
    }

    /// Replace the security policy.
    pub fn set_security_policy(&self, policy: SecurityPolicy) {
        *self.security.write() = policy;
    }

    /// Threshold alerting.
    pub fn alerts(&self) -> &Arc<AlertEngine> {
        &self.alerts
    }

    /// Administration (Figs 6–9).
    pub fn admin(&self) -> &Arc<AdminInterface> {
        &self.admin
    }

    /// The Request Manager (§3.1.1).
    pub fn request_manager(&self) -> &Arc<RequestManager> {
        &self.request
    }

    /// The gateway-wide telemetry hub: metric registry, trace ring
    /// buffer, and the clock that stamps trace stages.
    pub fn telemetry(&self) -> &GatewayTelemetry {
        &self.telemetry
    }

    /// The data-source health monitor (state machine + probe scheduler).
    pub fn health(&self) -> &Arc<HealthMonitor> {
        &self.health
    }

    /// The continuous-query subscription manager.
    pub fn streams(&self) -> &Arc<StreamManager> {
        &self.streams
    }

    /// [`ClientRequest::builder`] for text that arrives again and again
    /// (the wire service): the text is parsed through this gateway's
    /// memo, so each distinct text is parsed once.
    pub fn builder(&self, sql: &str) -> QueryBuilder {
        QueryBuilder::parsed(sql, self.parses.parse(sql))
    }

    /// Authenticate and open a session.
    pub fn login(&self, identity: Identity) -> SessionToken {
        self.sessions.open(identity, self.clock.now_millis())
    }

    /// Register a continuous-query subscription and run its initial
    /// evaluation, so the first [`Gateway::poll_deltas`] returns the
    /// current state as delta #1. Traced with `subscribe` and `delta`
    /// stages.
    pub fn subscribe(&self, spec: &SubscribeSpec) -> DbcResult<SubscriptionId> {
        let now = self.clock.now_millis();
        let mut span = spec.request.open_span(&self.telemetry);
        span.stage(Stage::Subscribe);
        match self.streams.subscribe(spec, now) {
            Ok(id) => {
                // A joiner on an already-materialized standing query got
                // its snapshot synthesized at registration — evaluating
                // again would bill every such subscriber one execution,
                // which is exactly the cost sharing exists to avoid.
                if self.streams.pending(id) == 0 {
                    let ctx = span.context();
                    span.stage(Stage::Delta);
                    self.streams.evaluate_for(id, now, |req| {
                        let traced = req.clone().with_trace(ctx.clone());
                        self.request.handle(&traced).map(|r| r.rows)
                    });
                }
                span.finish("ok");
                Ok(id)
            }
            Err(e) => {
                span.finish("error");
                Err(e)
            }
        }
    }

    /// Drain up to `max` pending deltas (0 = all) from one
    /// subscription's buffer. Untraced: this is the per-subscriber hot
    /// path, and 10k pollers must not flood the trace ring.
    pub fn poll_deltas(&self, id: SubscriptionId, max: usize) -> DbcResult<Vec<StreamDelta>> {
        self.streams.poll(id, max, self.clock.now_millis())
    }

    /// Cancel a subscription. Returns whether it existed.
    pub fn cancel_subscription(&self, id: SubscriptionId) -> bool {
        self.streams.cancel(id, self.clock.now_millis())
    }

    /// The one-row acknowledgement a `SELECT … EVERY n` query answers
    /// with: the subscription id plus its effective delivery knobs.
    fn subscription_ack(&self, id: SubscriptionId) -> DbcResult<ClientResponse> {
        let snap = self
            .streams
            .snapshot()
            .into_iter()
            .find(|s| s.id == id)
            .ok_or_else(|| gridrm_dbc::SqlError::Internal("subscription vanished".into()))?;
        let meta = ResultSetMetaData::new(vec![
            ColumnMeta::new("Subscription", SqlType::Int),
            ColumnMeta::new("EveryMs", SqlType::Int),
            ColumnMeta::new("Policy", SqlType::Str),
            ColumnMeta::new("Buffer", SqlType::Int),
        ]);
        let rows = RowSet::new(
            meta,
            vec![vec![
                SqlValue::Int(snap.id as i64),
                SqlValue::Int(snap.every_ms as i64),
                SqlValue::Str(snap.policy),
                SqlValue::Int(snap.buffer_capacity as i64),
            ]],
        )?;
        Ok(ClientResponse {
            rows,
            warnings: Vec::new(),
            served_from_cache: 0,
            sources_ok: 0,
            outcomes: Vec::new(),
        })
    }

    /// Submit a client request (ACIL shortcut), dispatching on what its
    /// statement asks for.
    ///
    /// A `SELECT … EVERY n` registers a subscription instead of
    /// answering rows: the response is a one-row acknowledgement
    /// carrying the subscription id (poll it with
    /// [`Gateway::poll_deltas`]). `EXPLAIN [ANALYZE]` answers with the
    /// span tree of running its inner statement; over a `SELECT … EVERY
    /// n` that is one temporary subscription's register / initial delta
    /// / delivery lifecycle, cancelled afterwards.
    pub fn query(&self, request: &ClientRequest) -> DbcResult<ClientResponse> {
        match request.kind() {
            RequestKind::Subscribe => {
                let id = self.subscribe(&SubscribeSpec::new(request.clone()))?;
                self.subscription_ack(id)
            }
            RequestKind::ExplainSubscribe { analyze, inner } => explain_subscription(
                &self.telemetry,
                request,
                analyze,
                inner,
                |spec| self.subscribe(spec),
                |id| {
                    let now = self.clock.now_millis();
                    let delivered = self.streams.poll(id, 0, now).map_or(0, |d| d.len());
                    self.streams.cancel(id, now);
                    delivered
                },
            ),
            RequestKind::Explain { analyze, inner } => {
                explain(&self.telemetry, request, analyze, inner, |traced, _| {
                    self.request.handle(traced)
                })
            }
            RequestKind::OneShot => self.request.handle(request),
        }
    }

    /// Run the gateway's periodic work: ingest pending native pushes
    /// through the Event Manager's formatters, dispatch buffered events
    /// (recording them into history and the health monitor), sweep
    /// expired cache entries and sessions, write queued harvests into
    /// history and apply history retention.
    /// Returns the number of events dispatched.
    pub fn pump(&self) -> usize {
        let now = self.clock.now_millis();
        // 0. Active health probes: every admin-registered source whose
        // probe interval has elapsed gets a lightweight ping through its
        // resolved driver. Probe transitions can re-promote a recovered
        // source (invalidating a cached fallback driver) and raise
        // alert events, which then dispatch in the same pump.
        for source in self.admin.list_sources() {
            if !self.health.probe_due(&source.url, now) {
                continue;
            }
            // Every probe costs the local site one request/response pair
            // against the data source: intrusion the monitoring system
            // itself imposes just by being on.
            let probe_cost = CostVector {
                msgs_out: 1,
                msgs_in: 1,
                ..CostVector::default()
            };
            self.telemetry.costs().count(&probe_cost);
            self.telemetry
                .costs()
                .intrude(&self.config.site, IntrusionCause::Probe, &probe_cost);
            match JdbcUrl::parse(&source.url) {
                Ok(url) => {
                    let started = self.clock.now_millis();
                    match self.connections.probe(&url) {
                        Ok(driver) => {
                            let elapsed = self.clock.now_millis().saturating_sub(started);
                            self.health
                                .record_probe_success(&source.url, &driver, now, elapsed);
                        }
                        Err(e) => {
                            self.health.record_probe_failure(
                                &source.url,
                                None,
                                &e.to_string(),
                                now,
                            );
                        }
                    }
                }
                Err(e) => {
                    self.health
                        .record_probe_failure(&source.url, None, &e.to_string(), now);
                }
            }
        }
        // Drain state transitions (from probes above and from passive
        // observation of query traffic since the last pump): re-promote
        // probe-verified recoveries and raise health alerts.
        for t in self.health.take_transitions() {
            if t.via_probe
                && t.to == HealthState::Up
                && matches!(t.from, HealthState::Down | HealthState::Degraded)
            {
                // A probe proved the source healthy again: unpin any
                // cached fallback driver so the preferred one can win
                // the next resolution.
                if let Ok(url) = JdbcUrl::parse(&t.source) {
                    self.driver_manager.invalidate_cached_driver(&url);
                }
            }
            if let Some(event) = self.alerts.health_alert(&t) {
                self.events.ingest(event);
            }
        }
        // 1. Native pushes → formatters → fast buffer. An agent update
        // also marks standing queries over that agent dirty, so the
        // continuous-query pass below re-evaluates them immediately
        // instead of waiting out their cadence.
        while let Ok(push) = self.push_rx.try_recv() {
            self.streams.mark_dirty(&push.from);
            self.events
                .ingest_native(&push.from, &push.payload, push.sent_at as i64);
        }
        // 2. Dispatch to listeners/transmitters; record history + health.
        let dispatched = self.events.dispatch();
        for event in &dispatched {
            let _ = self.history.record_event(event);
            self.health.record_event(&event.source, now);
            self.streams.mark_dirty(&event.source);
        }
        // 3. Housekeeping.
        let registry = self.telemetry.registry();
        registry
            .gauge(
                "gridrm_cache_entries",
                "Live query-result cache entries",
                Labels::none(),
            )
            .set(self.cache.len() as f64);
        registry
            .gauge(
                "gridrm_pool_idle",
                "Idle pooled driver connections",
                Labels::none(),
            )
            .set(self.connections.idle_connections() as f64);
        for (state, count) in self.health.state_counts() {
            registry
                .gauge(
                    "gridrm_health_sources",
                    "Tracked data sources by health state",
                    Labels::from_pairs(&[("state", state.name())]),
                )
                .set(count as f64);
        }
        // 4. Time series & SLOs, after the gauge refresh above so the
        // recorder and the burn-rate engine both read current levels.
        // SLO alert events ingest now and dispatch on the next pump;
        // the journal entry and the gauges carry the exact fire time.
        self.telemetry.timeseries().maybe_sample(registry, now);
        let slo = self.telemetry.slo();
        slo.evaluate(now);
        for t in slo.take_transitions() {
            self.events.ingest(self.alerts.slo_alert(&t));
        }
        // 5. Continuous queries: due (or dirtied) standing queries
        // re-evaluate once each, and only the changed rows fan out to
        // subscriber buffers. 10k subscribers to one query cost one
        // evaluation here, not 10k re-polls.
        self.streams
            .pump(now, |req| self.request.handle(req).map(|r| r.rows));
        self.sessions.sweep(now);
        self.cache
            .sweep(now, self.config.cache_ttl_ms.saturating_mul(10));
        // Harvests queued since the last pump become narrow rows here at
        // the latest, so the queue never outlives one pump interval.
        self.history.flush();
        let cutoff = now.saturating_sub(self.config.history_retention_ms);
        if cutoff > 0 {
            let _ = self.history.retain_since(cutoff as i64);
        }
        dispatched.len()
    }
}

/// Local-only execution: every source is answered by this gateway's own
/// drivers. (The blanket impl in [`crate::acil`] makes this a
/// [`crate::acil::ClientInterface`] too.)
impl QueryExecutor for Gateway {
    fn execute(&self, request: &ClientRequest) -> DbcResult<ClientResponse> {
        self.query(request)
    }

    fn scope(&self) -> String {
        format!("local:{}", self.config.name)
    }
}
