//! The Request Manager (paper §3.1.1): "SQL requests are received from the
//! Abstract Client Interface Layer, the queries are processed and the
//! results returned to the ACIL. The RequestManager coordinates queries
//! across multiple data sources and consolidates results … executing
//! queries that span real-time resource requests and historical (or
//! cached) data."

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

use crate::acil::{
    ClientRequest, ClientResponse, OutcomeStatus, QueryMode, ResultPolicy, SourceOutcome,
};
use crate::alerts::AlertEngine;
use crate::cache::CacheController;
use crate::connection::ConnectionManager;
use crate::events::EventManager;
use crate::history::HistoryManager;
use crate::security::{CoarseOperation, Decision, Identity, SecurityPolicy};
use crate::session::SessionManager;
use crate::singleflight::SingleFlight;
use gridrm_dbc::{DbcResult, JdbcUrl, RowSet, SqlError};
use gridrm_simnet::SimClock;
use gridrm_sqlparse::Statement;
use gridrm_telemetry::{
    CostVector, Counter, GatewayTelemetry, Histogram, JournalSeverity, Labels, Registry,
    SpanBuilder, Stage, KIND_CACHE_SERVE,
};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Request-path counters, registered as `gridrm_requests_total` and
/// `gridrm_request_paths_total{path=…}`.
#[derive(Debug)]
pub struct RequestStats {
    /// Requests handled.
    pub requests: Counter,
    /// Individual source queries that hit a data source.
    pub realtime_fetches: Counter,
    /// Individual source queries served from the cache.
    pub cache_served: Counter,
    /// Historical queries executed.
    pub historical: Counter,
    /// Requests denied by a security layer.
    pub denied: Counter,
    /// Identical concurrent queries that shared another request's
    /// in-flight execution instead of running their own.
    pub coalesced_hits: Counter,
    /// Source queries abandoned because the request's deadline budget
    /// ran out.
    pub deadline_exceeded: Counter,
}

/// Named point-in-time copy of [`RequestStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestSnapshot {
    /// Requests handled.
    pub requests: u64,
    /// Individual source queries that hit a data source.
    pub realtime_fetches: u64,
    /// Individual source queries served from the cache.
    pub cache_served: u64,
    /// Historical queries executed.
    pub historical: u64,
    /// Requests denied by a security layer.
    pub denied: u64,
    /// Queries answered by single-flight coalescing.
    #[serde(default)]
    pub coalesced_hits: u64,
    /// Source queries dropped by deadline budget exhaustion.
    #[serde(default)]
    pub deadline_exceeded: u64,
}

impl RequestStats {
    fn new(registry: &Registry) -> RequestStats {
        let [realtime_fetches, cache_served, historical, denied, coalesced_hits, deadline_exceeded] =
            registry.counters(
                "gridrm_request_paths_total",
                "Request-manager per-source outcomes by path",
                "path",
                [
                    "realtime_fetch",
                    "cache_served",
                    "historical",
                    "denied",
                    "coalesced",
                    "deadline_exceeded",
                ],
            );
        RequestStats {
            requests: registry.counter(
                "gridrm_requests_total",
                "Client requests handled by the Request Manager",
                Labels::none(),
            ),
            realtime_fetches,
            cache_served,
            historical,
            denied,
            coalesced_hits,
            deadline_exceeded,
        }
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> RequestSnapshot {
        RequestSnapshot {
            requests: self.requests.get(),
            realtime_fetches: self.realtime_fetches.get(),
            cache_served: self.cache_served.get(),
            historical: self.historical.get(),
            denied: self.denied.get(),
            coalesced_hits: self.coalesced_hits.get(),
            deadline_exceeded: self.deadline_exceeded.get(),
        }
    }
}

/// One realtime fetch's rows, shared by everything that keeps them.
type Fetched = DbcResult<Arc<RowSet>>;

/// The Request Manager.
pub struct RequestManager {
    connections: Arc<ConnectionManager>,
    cache: Arc<CacheController>,
    history: HistoryManager,
    events: Arc<EventManager>,
    alerts: Arc<AlertEngine>,
    sessions: Arc<SessionManager>,
    security: Arc<RwLock<SecurityPolicy>>,
    clock: Arc<SimClock>,
    record_history: AtomicBool,
    stats: RequestStats,
    /// Per-request trace spans and the cache-serve journal entries.
    telemetry: GatewayTelemetry,
    /// `gridrm_request_latency_ms`, registered by the first request so
    /// a gateway that has served none does not expose it.
    latency: OnceLock<Histogram>,
    /// Deduplicates identical concurrent realtime fetches (keyed by
    /// source URL + SQL text); leader and followers share one result.
    singleflight: SingleFlight<(Arc<str>, Arc<str>), Fetched>,
    /// Deadline budget applied to requests that set none
    /// (config `default_deadline_ms`; 0 = no deadline).
    default_deadline_ms: AtomicU64,
}

impl RequestManager {
    /// Wire the manager to its collaborators and the gateway's
    /// telemetry hub (whose clock it reads).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        connections: Arc<ConnectionManager>,
        cache: Arc<CacheController>,
        history: HistoryManager,
        events: Arc<EventManager>,
        alerts: Arc<AlertEngine>,
        sessions: Arc<SessionManager>,
        security: Arc<RwLock<SecurityPolicy>>,
        record_history: bool,
        telemetry: &GatewayTelemetry,
    ) -> RequestManager {
        RequestManager {
            connections,
            cache,
            history,
            events,
            alerts,
            sessions,
            security,
            clock: telemetry.clock().clone(),
            record_history: AtomicBool::new(record_history),
            stats: RequestStats::new(telemetry.registry()),
            telemetry: telemetry.clone(),
            latency: OnceLock::new(),
            singleflight: SingleFlight::new(),
            default_deadline_ms: AtomicU64::new(0),
        }
    }

    /// Toggle history recording.
    pub fn set_record_history(&self, on: bool) {
        self.record_history.store(on, Ordering::Relaxed);
    }

    /// Set the deadline budget (virtual ms) applied to requests that do
    /// not carry their own; 0 disables.
    pub fn set_default_deadline_ms(&self, deadline_ms: u64) {
        self.default_deadline_ms
            .store(deadline_ms, Ordering::Relaxed);
    }

    /// Followers currently parked on an in-flight `(source, sql)`
    /// fetch. Exists so concurrency tests can synchronise on "the
    /// second request has actually joined the flight".
    pub fn inflight_waiters(&self, source: &str, sql: &str) -> usize {
        self.singleflight
            .waiters(&(Arc::from(source), Arc::from(sql)))
    }

    /// The identity the request runs as, borrowed when it carries one.
    fn resolve_identity<'r>(&self, request: &'r ClientRequest) -> DbcResult<Cow<'r, Identity>> {
        if let Some(token) = request.token {
            return self
                .sessions
                .resolve(token, self.clock.now_millis())
                .map(Cow::Owned)
                .ok_or_else(|| SqlError::Security("invalid or expired session".into()));
        }
        Ok(match &request.identity {
            Some(identity) => Cow::Borrowed(identity),
            None => Cow::Owned(Identity::anonymous()),
        })
    }

    /// Handle one client request (the Fig 3 entry point). The whole
    /// request is traced (ACIL receipt through driver execution and GLUE
    /// translation) and its virtual latency recorded. A request carrying
    /// a [`gridrm_telemetry::TraceContext`] joins that trace as a child
    /// span instead of starting a new root.
    pub fn handle(&self, request: &ClientRequest) -> DbcResult<ClientResponse> {
        let mut span = request.open_span(&self.telemetry);
        span.stage(Stage::Acil);
        let started_ms = self.clock.now_millis();
        let result = self.handle_inner(request, &mut span);
        self.latency
            .get_or_init(|| {
                self.telemetry.registry().histogram(
                    "gridrm_request_latency_ms",
                    "End-to-end client request latency in virtual milliseconds",
                    Labels::none(),
                    gridrm_telemetry::DEFAULT_LATENCY_BUCKETS_MS,
                )
            })
            .observe(self.clock.now_millis().saturating_sub(started_ms) as f64);
        // The rows this request ships back to its caller — cache hits and
        // coalesced shares included — are a direct charge on the request
        // span; driver-side work (rows scanned, fetch units) rolls up
        // from the execute child spans.
        if let Ok(resp) = &result {
            span.add_cost(&CostVector {
                rows_returned: resp.rows.len() as u64,
                ..CostVector::default()
            });
        }
        span.finish(match &result {
            Ok(_) => "ok",
            Err(SqlError::Security(_)) => "denied",
            Err(_) => "error",
        });
        result
    }

    fn handle_inner(
        &self,
        request: &ClientRequest,
        span: &mut SpanBuilder,
    ) -> DbcResult<ClientResponse> {
        self.stats.requests.inc();
        span.stage(Stage::Handle);
        let identity = self.resolve_identity(request)?;

        // Clients may only SELECT; writes to the historical store go
        // through the admin/driver path.
        let statement = request.statement()?;
        let Statement::Select(sel) = statement else {
            return Err(SqlError::Unsupported(
                "clients may only submit SELECT statements".into(),
            ));
        };
        let sql = request.sql();

        let now = self.clock.now_millis();
        let policy = self.security.read().clone();

        if request.mode == QueryMode::Historical {
            if let Decision::Deny(reason) =
                policy.check_coarse(&identity, CoarseOperation::QueryHistory)
            {
                self.stats.denied.inc();
                return Err(SqlError::Security(reason));
            }
            self.stats.historical.inc();
            let rows = self.history.query(statement, now as i64)?;
            let outcomes = if rows.is_empty() {
                Vec::new()
            } else {
                let elapsed = self.clock.now_millis().saturating_sub(now);
                vec![SourceOutcome::success(
                    "historical",
                    OutcomeStatus::Ok,
                    elapsed,
                )]
            };
            return Ok(ClientResponse::from_outcomes(rows, outcomes, Vec::new()));
        }

        if let Decision::Deny(reason) = policy.check_coarse(&identity, CoarseOperation::Query) {
            self.stats.denied.inc();
            return Err(SqlError::Security(reason));
        }
        if request.sources.is_empty() {
            return Err(SqlError::Unsupported(
                "real-time queries need at least one data source".into(),
            ));
        }

        let deadline = request.deadline_ms.or({
            match self.default_deadline_ms.load(Ordering::Relaxed) {
                0 => None,
                d => Some(d),
            }
        });
        let group = sel.table.as_str();
        let mut consolidated: Option<RowSet> = None;
        let mut extra_warnings = Vec::new();

        // One source, start to finish: `Ok` is its success outcome (its
        // rows already consolidated), `Err` its failure outcome plus the
        // error the request surfaces if this failure decides it.
        let mut query_source =
            |source: &String| -> Result<SourceOutcome, (SourceOutcome, SqlError)> {
                let failure = |status, elapsed, detail: &str, error| {
                    Err((
                        SourceOutcome::failure(source, status, elapsed, detail),
                        error,
                    ))
                };
                let src_started = self.clock.now_millis();
                // Deadline budget: sources we no longer have time for are
                // reported as timeouts, not silently dropped.
                if deadline.is_some_and(|d| src_started.saturating_sub(now) >= d) {
                    self.stats.deadline_exceeded.inc();
                    let detail = "deadline budget exhausted";
                    let error = SqlError::Timeout(format!("{source}: {detail}"));
                    return failure(OutcomeStatus::Timeout, 0, detail, error);
                }

                // Fine Grained Security Layer, per resource (§2).
                match policy.check_fine(&identity, source, group) {
                    Decision::Allow => {}
                    Decision::Deny(reason) => {
                        self.stats.denied.inc();
                        let error = SqlError::Security(reason.clone());
                        return failure(OutcomeStatus::Denied, 0, &reason, error);
                    }
                    Decision::Defer => {
                        let detail = "not authoritative here; route via the Global layer";
                        let error = SqlError::Unsupported(format!("{source}: {detail}"));
                        return failure(OutcomeStatus::Deferred, 0, detail, error);
                    }
                }

                // Cache path (§4).
                if let QueryMode::Cached { max_age_ms } = request.mode {
                    let hit = self.cache.lookup(source, sql, now, max_age_ms);
                    span.stage_with(
                        Stage::CacheLookup,
                        if hit.is_some() { "hit" } else { "miss" },
                    );
                    if let Some(hit) = hit {
                        self.stats.cache_served.inc();
                        // The cache serving a last-known-state result is an
                        // operational fact worth journalling (§4): the client
                        // got an answer without the source being consulted.
                        self.telemetry.journal().record_traced(
                            now,
                            JournalSeverity::Info,
                            KIND_CACHE_SERVE,
                            source,
                            None,
                            Some("cache_lookup"),
                            "served last known state from cache",
                            Some(span.trace_id()),
                        );
                        let elapsed = self.clock.now_millis().saturating_sub(src_started);
                        append(&mut consolidated, &hit.rows, &mut extra_warnings, source);
                        return Ok(SourceOutcome::success(
                            source,
                            OutcomeStatus::Cached,
                            elapsed,
                        ));
                    }
                }

                // Real-time path through the ConnectionManager (Fig 3).
                let url = match JdbcUrl::parse(source) {
                    Ok(u) => u,
                    Err(e) => return failure(OutcomeStatus::Error, 0, &e.to_string(), e),
                };
                // One copy of the source text serves the span and the
                // flight key, and the connection manager's key when the
                // source is spelled canonically; the SQL text is the
                // request's own.
                let source_text: Arc<str> = Arc::from(source.as_str());
                span.source(&source_text);
                let key = if url.is_canonical_text(source) {
                    Arc::clone(&source_text)
                } else {
                    Arc::from(url.to_string())
                };
                // Single-flight: identical concurrent fetches share one
                // driver execution and one cache fill. The first caller in
                // (the leader) runs the closure; overlapping identical
                // callers block and share its result.
                let flight = (source_text, Arc::clone(request.sql_shared()));
                let (result, coalesced) = self.singleflight.execute(flight, || {
                    self.stats.realtime_fetches.inc();
                    (self.connections)
                        .execute_traced(&url, &key, sql, Some(&mut *span))
                        .map(Arc::new)
                });
                if coalesced {
                    self.stats.coalesced_hits.inc();
                    span.stage_with(Stage::Coalesce, "shared");
                }
                let elapsed = self.clock.now_millis().saturating_sub(src_started);
                let rows = match result {
                    Ok(rows) => rows,
                    Err(e) => return failure(OutcomeStatus::Error, elapsed, &e.to_string(), e),
                };
                // A coalesced follower skips this: the leader already filled
                // the cache, recorded history and scanned alerts for this
                // result — repeating any of it would double-count one
                // physical fetch. All three share the fetch's rows; only
                // the reply copies them.
                if !coalesced {
                    self.cache.store(source, sql, Arc::clone(&rows), now);
                    if self.record_history.load(Ordering::Relaxed) {
                        // Queued, not written: see `history`'s module doc.
                        (self.history).record_rows(source, group, Arc::clone(&rows), now as i64);
                    }
                    // Threshold alerts over fresh data (Fig 9).
                    for event in self.alerts.scan(source, group, &rows, now as i64) {
                        self.events.ingest(event);
                    }
                }
                append(&mut consolidated, &rows, &mut extra_warnings, source);
                let status = if coalesced {
                    OutcomeStatus::Coalesced
                } else {
                    OutcomeStatus::Ok
                };
                Ok(SourceOutcome::success(source, status, elapsed))
            };

        let mut outcomes: Vec<SourceOutcome> = Vec::new();
        let mut first_err: Option<SqlError> = None;
        for source in &request.sources {
            match query_source(source) {
                Ok(outcome) => outcomes.push(outcome),
                // Under fail-fast the first failure is the request's
                // answer. Otherwise it is remembered in case nothing
                // succeeds — except a deferral, which is a routing hint
                // rather than a fault.
                Err((outcome, error)) => {
                    if request.policy == ResultPolicy::FailFast {
                        return Err(error);
                    }
                    if outcome.status != OutcomeStatus::Deferred {
                        first_err.get_or_insert(error);
                    }
                    outcomes.push(outcome);
                }
            }
        }

        if let ResultPolicy::Quorum(n) = request.policy {
            let ok = outcomes.iter().filter(|o| o.status.is_success()).count();
            if ok < n {
                return Err(SqlError::Driver(format!(
                    "quorum not met: {ok}/{n} sources answered"
                )));
            }
        }

        match consolidated {
            Some(rows) => Ok(ClientResponse::from_outcomes(
                rows,
                outcomes,
                extra_warnings,
            )),
            None => {
                Err(first_err
                    .unwrap_or_else(|| SqlError::Driver("no source produced a result".into())))
            }
        }
    }

    /// Counters.
    pub fn stats(&self) -> &RequestStats {
        &self.stats
    }
}

/// Consolidate result sets from multiple sources (§3.1.1) into the
/// reply's own copy: the rows stay shared with the cache and history.
/// Shape mismatches (a driver translating differently) become warnings
/// rather than hard failures.
fn append(
    consolidated: &mut Option<RowSet>,
    rows: &RowSet,
    warnings: &mut Vec<String>,
    source: &str,
) {
    match consolidated {
        None => *consolidated = Some(rows.clone()),
        Some(acc) => {
            if let Err(e) = acc.append_from(rows) {
                warnings.push(format!("{source}: result shape mismatch: {e}"));
            }
        }
    }
}
