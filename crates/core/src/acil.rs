//! The Abstract Client Interface Layer (paper §2): "a clear separation
//! between client specific APIs and the data model used within GridRM".
//! Java applets, JSP pages and Web/Grid services all funnel through this
//! one request shape; here the bundled client adapters are the in-process
//! [`ClientInterface`] and a text adapter ([`render_csv`]/[`render_json`])
//! standing in for the web-facing front ends.

use crate::security::Identity;
use crate::session::SessionToken;
use gridrm_dbc::{DbcResult, RowSet};
use gridrm_sqlparse::{SqlValue, Statement};
use gridrm_telemetry::{GatewayTelemetry, SpanBuilder, TraceContext};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How a query should be satisfied (§3.1.1, §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// Always contact the data source ("explicitly poll", Fig 9).
    RealTime,
    /// Serve from the gateway cache when fresh enough; `None` uses the
    /// gateway's default TTL ("refresh their tree view", Fig 9).
    Cached {
        /// Maximum acceptable age in virtual ms.
        max_age_ms: Option<u64>,
    },
    /// Query the gateway's internal historical database.
    Historical,
}

/// What a multi-source query does when some sources fail (§2: the
/// Global layer consolidates results from many sites — a grid-wide
/// query should not be hostage to its slowest or flakiest site).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ResultPolicy {
    /// Abort on the first failed source; no partial results.
    FailFast,
    /// Return whatever succeeded, reporting failures as outcomes
    /// (the historical behaviour, and the default).
    #[default]
    BestEffort,
    /// Succeed only when at least `n` sources answered; otherwise the
    /// whole query fails even if some rows were gathered.
    Quorum(
        /// Minimum number of successful sources.
        usize,
    ),
}

/// Per-source terminal status inside a consolidated response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutcomeStatus {
    /// The source answered from a live fetch.
    Ok,
    /// The source was answered from the gateway cache.
    Cached,
    /// An identical in-flight query was coalesced into one execution;
    /// this request shared the leader's rows.
    Coalesced,
    /// The per-request deadline budget ran out before (or while) this
    /// source was queried.
    Timeout,
    /// The fetch failed (driver, connection, SQL error).
    Error,
    /// Security policy denied access to this source.
    Denied,
    /// This gateway is not authoritative for the source; route via the
    /// Global layer.
    Deferred,
}

impl OutcomeStatus {
    /// True for statuses that contributed rows (`Ok`/`Cached`/`Coalesced`).
    pub fn is_success(self) -> bool {
        matches!(
            self,
            OutcomeStatus::Ok | OutcomeStatus::Cached | OutcomeStatus::Coalesced
        )
    }

    /// Lower-case wire/driver-friendly name.
    pub fn name(self) -> &'static str {
        match self {
            OutcomeStatus::Ok => "ok",
            OutcomeStatus::Cached => "cached",
            OutcomeStatus::Coalesced => "coalesced",
            OutcomeStatus::Timeout => "timeout",
            OutcomeStatus::Error => "error",
            OutcomeStatus::Denied => "denied",
            OutcomeStatus::Deferred => "deferred",
        }
    }
}

/// Structured per-source result of a consolidated query: what the
/// stringly-typed `warnings` list used to encode, made machine-readable.
/// The legacy `warnings` / `sources_ok` / `served_from_cache` fields are
/// now *derived* from these (see [`ClientResponse::from_outcomes`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceOutcome {
    /// The data-source URL (or historical/virtual table name).
    pub source: String,
    /// Terminal status.
    pub status: OutcomeStatus,
    /// Virtual milliseconds this source took, as observed by the
    /// gateway that executed it (includes link RTT for remote segments).
    pub elapsed_ms: u64,
    /// Failure detail (error text), when there is one.
    #[serde(default)]
    pub detail: Option<String>,
}

impl SourceOutcome {
    /// A successful outcome with the given status.
    pub fn success(source: &str, status: OutcomeStatus, elapsed_ms: u64) -> SourceOutcome {
        debug_assert!(status.is_success());
        SourceOutcome {
            source: source.to_owned(),
            status,
            elapsed_ms,
            detail: None,
        }
    }

    /// A failed outcome with the given status and detail text.
    pub fn failure(
        source: &str,
        status: OutcomeStatus,
        elapsed_ms: u64,
        detail: &str,
    ) -> SourceOutcome {
        SourceOutcome {
            source: source.to_owned(),
            status,
            elapsed_ms,
            detail: Some(detail.to_owned()),
        }
    }

    /// The legacy warning string for this outcome, if it warrants one.
    /// Kept byte-for-byte compatible with the pre-structured format
    /// (`"{source}: {detail}"`) that callers match on.
    pub fn warning(&self) -> Option<String> {
        match (&self.status, &self.detail) {
            (s, _) if s.is_success() => None,
            (_, Some(detail)) => Some(format!("{}: {detail}", self.source)),
            (s, None) => Some(format!("{}: {}", self.source, s.name())),
        }
    }
}

/// SQL text and what it parses to, as one immutable value: whoever
/// holds the text holds the statement, so the two cannot disagree.
#[derive(Debug)]
struct Query {
    text: String,
    statement: DbcResult<Statement>,
}

/// What a request asks for, read off its parsed statement. Every entry
/// point (`Gateway::query`, `GlobalLayer::query`, the wire service)
/// dispatches on this one classification.
#[derive(Debug)]
pub enum RequestKind<'a> {
    /// Answer once. Also the lane for text that does not parse and for
    /// non-`SELECT` statements: the Request Manager rejects those from
    /// its usual place in the path (after span open, request count and
    /// identity resolution).
    OneShot,
    /// `SELECT … EVERY n`: register a standing query.
    Subscribe,
    /// `EXPLAIN [ANALYZE] <statement>`: answer with the span tree.
    Explain {
        /// Whether `ANALYZE` was given.
        analyze: bool,
        /// The statement being explained.
        inner: &'a Statement,
    },
    /// `EXPLAIN [ANALYZE] SELECT … EVERY n`: trace one temporary
    /// subscription's lifecycle.
    ExplainSubscribe {
        /// Whether `ANALYZE` was given.
        analyze: bool,
        /// The continuous `SELECT` being explained.
        inner: &'a Statement,
    },
}

fn is_continuous(statement: &Statement) -> bool {
    matches!(statement, Statement::Select(sel) if sel.every_ms.is_some())
}

/// A client request as it crosses the ACIL.
///
/// The SQL text is parsed once, when the request is built, and text and
/// statement travel together as one cheaply-cloned immutable value —
/// every layer above the drivers reads [`ClientRequest::statement`]
/// instead of parsing again. A syntax error does not fail construction:
/// it is kept and reported by the request path, exactly where a parse
/// there would have reported it.
#[derive(Debug, Clone)]
pub struct ClientRequest {
    /// Session token from a previous authentication, if any.
    pub token: Option<SessionToken>,
    /// Direct identity (in-process clients); ignored when `token` is set.
    pub identity: Option<Identity>,
    /// Data-source URLs to query ("the request consists of two parts, the
    /// network address of the data source and the query", §3.2.2).
    /// Historical queries leave this empty.
    pub sources: Vec<String>,
    query: Arc<Query>,
    /// Freshness mode.
    pub mode: QueryMode,
    /// Trace context this request runs under, when it is one leg of a
    /// larger traced operation (global fan-out, `EXPLAIN`). `None`
    /// starts a fresh trace.
    pub trace: Option<TraceContext>,
    /// Virtual-millisecond deadline budget for the whole request.
    /// `None` falls back to the gateway's configured default (0 = no
    /// deadline). Sources not answered within the budget come back as
    /// [`OutcomeStatus::Timeout`] outcomes.
    pub deadline_ms: Option<u64>,
    /// What to do when only some sources answer.
    pub policy: ResultPolicy,
}

impl ClientRequest {
    /// Start building a request with the given SQL text. This is the
    /// one construction path; [`ClientRequest::realtime`] and friends
    /// are shorthands over it.
    pub fn builder(sql: &str) -> QueryBuilder {
        QueryBuilder::new(sql)
    }

    /// Real-time query of one source.
    pub fn realtime(source: &str, sql: &str) -> ClientRequest {
        ClientRequest::builder(sql).source(source).build()
    }

    /// Cache-friendly query of one source.
    pub fn cached(source: &str, sql: &str, max_age_ms: Option<u64>) -> ClientRequest {
        ClientRequest::builder(sql)
            .source(source)
            .mode(QueryMode::Cached { max_age_ms })
            .build()
    }

    /// Historical query.
    pub fn historical(sql: &str) -> ClientRequest {
        ClientRequest::builder(sql)
            .mode(QueryMode::Historical)
            .build()
    }

    /// The SQL text, as submitted.
    pub fn sql(&self) -> &str {
        &self.query.text
    }

    /// The parsed statement, or the syntax error the text produced.
    pub fn statement(&self) -> DbcResult<&Statement> {
        self.query.statement.as_ref().map_err(Clone::clone)
    }

    /// Classify the request by statement kind.
    pub fn kind(&self) -> RequestKind<'_> {
        match &self.query.statement {
            Ok(statement) if is_continuous(statement) => RequestKind::Subscribe,
            Ok(Statement::Explain { analyze, inner }) if is_continuous(inner) => {
                RequestKind::ExplainSubscribe {
                    analyze: *analyze,
                    inner,
                }
            }
            Ok(Statement::Explain { analyze, inner }) => RequestKind::Explain {
                analyze: *analyze,
                inner,
            },
            _ => RequestKind::OneShot,
        }
    }

    /// The same request asking `statement` instead (an `EXPLAIN`'s inner
    /// statement, a standing query's `EVERY`-stripped `SELECT`). The
    /// text is the statement's printed form; nothing parses it again
    /// above the JDBC boundary.
    pub(crate) fn with_statement(&self, statement: Statement) -> ClientRequest {
        ClientRequest {
            query: Arc::new(Query {
                text: statement.to_string(),
                statement: Ok(statement),
            }),
            ..self.clone()
        }
    }

    /// Open this request's span, named after its SQL: a child when the
    /// request carries a trace context, a fresh root otherwise.
    pub fn open_span(&self, telemetry: &GatewayTelemetry) -> SpanBuilder {
        match &self.trace {
            Some(ctx) => telemetry.span_in(ctx, self.sql()),
            None => telemetry.span(self.sql()),
        }
    }

    /// Builder: attach an identity.
    pub fn with_identity(mut self, identity: Identity) -> ClientRequest {
        self.identity = Some(identity);
        self
    }

    /// Builder: attach a session token.
    pub fn with_token(mut self, token: SessionToken) -> ClientRequest {
        self.token = Some(token);
        self
    }

    /// Builder: run under an existing trace context, making the
    /// gateway's request span a child instead of a new root.
    pub fn with_trace(mut self, trace: TraceContext) -> ClientRequest {
        self.trace = Some(trace);
        self
    }
}

/// Fluent constructor for [`ClientRequest`] — the one way to express
/// every request knob (sources, freshness mode, identity, deadline,
/// partial-results policy), and the one place SQL text becomes a
/// statement. [`QueryBuilder::build`] never fails: a syntax error rides
/// along inside the request and surfaces when it is submitted.
///
/// ```
/// use gridrm_core::acil::{ClientRequest, QueryMode, ResultPolicy};
/// let req = ClientRequest::builder("SELECT Hostname, Load1 FROM Processor")
///     .sources(&["jdbc:snmp://node00.alpha/public", "jdbc:snmp://node00.beta/public"])
///     .mode(QueryMode::Cached { max_age_ms: Some(5_000) })
///     .deadline_ms(250)
///     .policy(ResultPolicy::Quorum(1))
///     .build();
/// assert_eq!(req.sources.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    request: ClientRequest,
}

impl QueryBuilder {
    /// Start a builder for the given SQL text (defaults: no sources,
    /// real-time mode, anonymous, no deadline, best-effort policy).
    pub fn new(sql: &str) -> QueryBuilder {
        QueryBuilder {
            request: ClientRequest {
                token: None,
                identity: None,
                sources: Vec::new(),
                query: Arc::new(Query {
                    text: sql.to_owned(),
                    statement: gridrm_sqlparse::parse(sql).map_err(Into::into),
                }),
                mode: QueryMode::RealTime,
                trace: None,
                deadline_ms: None,
                policy: ResultPolicy::BestEffort,
            },
        }
    }

    /// Append one data-source URL.
    pub fn source(mut self, source: &str) -> QueryBuilder {
        self.request.sources.push(source.to_owned());
        self
    }

    /// Replace the source list (consolidated query, §3.1.1).
    pub fn sources<S: AsRef<str>>(mut self, sources: &[S]) -> QueryBuilder {
        self.request.sources = sources.iter().map(|s| s.as_ref().to_owned()).collect();
        self
    }

    /// Set the freshness mode.
    pub fn mode(mut self, mode: QueryMode) -> QueryBuilder {
        self.request.mode = mode;
        self
    }

    /// Attach a direct identity.
    pub fn identity(mut self, identity: Identity) -> QueryBuilder {
        self.request.identity = Some(identity);
        self
    }

    /// Attach a session token from a previous authentication.
    pub fn token(mut self, token: SessionToken) -> QueryBuilder {
        self.request.token = Some(token);
        self
    }

    /// Set the virtual-millisecond deadline budget.
    pub fn deadline_ms(mut self, deadline_ms: u64) -> QueryBuilder {
        self.request.deadline_ms = Some(deadline_ms);
        self
    }

    /// Set the partial-results policy.
    pub fn policy(mut self, policy: ResultPolicy) -> QueryBuilder {
        self.request.policy = policy;
        self
    }

    /// Run under an existing trace context.
    pub fn trace(mut self, trace: TraceContext) -> QueryBuilder {
        self.request.trace = Some(trace);
        self
    }

    /// Finish building.
    pub fn build(self) -> ClientRequest {
        self.request
    }

    /// Finish building as a continuous-query subscription instead of a
    /// one-shot request. The cadence comes from the SQL's `EVERY <n>`
    /// clause (or `every_ms` on the returned spec); buffer capacity and
    /// backpressure fall back to the gateway defaults. Register the
    /// spec with `Gateway::subscribe`.
    pub fn subscribe(self) -> crate::stream::SubscribeSpec {
        crate::stream::SubscribeSpec::new(self.request)
    }

    /// Finish building as a subscription with an explicit cadence
    /// (overrides any `EVERY` clause in the SQL).
    pub fn subscribe_every(self, every_ms: u64) -> crate::stream::SubscribeSpec {
        crate::stream::SubscribeSpec {
            every_ms: Some(every_ms),
            ..self.subscribe()
        }
    }
}

/// The answer crossing back over the ACIL.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Consolidated result rows.
    pub rows: RowSet,
    /// Per-source warnings (failed sources, deferred security, …).
    /// Derived from `outcomes`; kept for text-facing clients.
    pub warnings: Vec<String>,
    /// How many sources were answered from the gateway cache.
    /// Derived from `outcomes`.
    pub served_from_cache: usize,
    /// How many sources contributed rows. Derived from `outcomes`.
    pub sources_ok: usize,
    /// Structured per-source outcomes — the source of truth the three
    /// legacy fields above are computed from.
    pub outcomes: Vec<SourceOutcome>,
}

impl ClientResponse {
    /// Build a response from structured outcomes, deriving the legacy
    /// `warnings` / `served_from_cache` / `sources_ok` fields from
    /// them. `extra_warnings` carries non-source diagnostics (result
    /// shape mismatches during consolidation).
    pub fn from_outcomes(
        rows: RowSet,
        outcomes: Vec<SourceOutcome>,
        extra_warnings: Vec<String>,
    ) -> ClientResponse {
        let mut warnings: Vec<String> = outcomes.iter().filter_map(|o| o.warning()).collect();
        warnings.extend(extra_warnings);
        let served_from_cache = outcomes
            .iter()
            .filter(|o| o.status == OutcomeStatus::Cached)
            .count();
        let sources_ok = outcomes.iter().filter(|o| o.status.is_success()).count();
        ClientResponse {
            rows,
            warnings,
            served_from_cache,
            sources_ok,
            outcomes,
        }
    }
}

/// Anything that accepts GridRM client requests (the ACIL seam).
pub trait ClientInterface: Send + Sync {
    /// Submit one request.
    fn submit(&self, request: &ClientRequest) -> DbcResult<ClientResponse>;
}

/// One query surface over local and grid execution: `Gateway` answers
/// from its own site, `GlobalLayer` fans out across the grid, and code
/// written against this trait (tests, examples, the admin poller) works
/// unchanged against either.
pub trait QueryExecutor: Send + Sync {
    /// Execute one request to completion.
    fn execute(&self, request: &ClientRequest) -> DbcResult<ClientResponse>;

    /// Human-readable scope label (`"local:gw-alpha"`, `"grid:gw-alpha"`)
    /// for logs and dashboards.
    fn scope(&self) -> String;
}

/// Every [`QueryExecutor`] is a [`ClientInterface`]: `submit` is
/// `execute`. (This replaces the hand-written per-type impls.)
impl<T: QueryExecutor + ?Sized> ClientInterface for T {
    fn submit(&self, request: &ClientRequest) -> DbcResult<ClientResponse> {
        self.execute(request)
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Render a result set as CSV (header + rows) — the "Web/Grid Services"
/// client adapter.
pub fn render_csv(rows: &RowSet) -> String {
    let meta = rows.meta();
    let mut out = String::new();
    let names: Vec<String> = (0..meta.column_count())
        .map(|i| csv_escape(meta.column_name(i).unwrap_or("?")))
        .collect();
    out.push_str(&names.join(","));
    out.push('\n');
    for row in rows.rows() {
        let cells: Vec<String> = row
            .iter()
            .map(|v| match v {
                SqlValue::Null => String::new(),
                other => csv_escape(&other.to_string()),
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Render a result set as a JSON array of objects.
pub fn render_json(rows: &RowSet) -> String {
    let meta = rows.meta();
    let objects: Vec<serde_json::Value> = rows
        .rows()
        .iter()
        .map(|row| {
            let mut map = serde_json::Map::new();
            for (i, v) in row.iter().enumerate() {
                let key = meta.column_name(i).unwrap_or("?").to_owned();
                let val = match v {
                    SqlValue::Null => serde_json::Value::Null,
                    SqlValue::Bool(b) => serde_json::Value::Bool(*b),
                    SqlValue::Int(x) => serde_json::Value::from(*x),
                    SqlValue::Float(x) => serde_json::Value::from(*x),
                    SqlValue::Timestamp(t) => serde_json::Value::from(*t),
                    SqlValue::Str(s) => serde_json::Value::from(s.clone()),
                };
                map.insert(key, val);
            }
            serde_json::Value::Object(map)
        })
        .collect();
    serde_json::Value::Array(objects).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridrm_dbc::{ColumnMeta, ResultSetMetaData};
    use gridrm_sqlparse::SqlType;

    fn rows() -> RowSet {
        RowSet::new(
            ResultSetMetaData::new(vec![
                ColumnMeta::new("Hostname", SqlType::Str),
                ColumnMeta::new("Load1", SqlType::Float),
            ]),
            vec![
                vec![SqlValue::Str("a,b".into()), SqlValue::Float(0.5)],
                vec![SqlValue::Str("n2".into()), SqlValue::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn request_builders() {
        let r = ClientRequest::builder("SELECT * FROM Processor")
            .identity(Identity::anonymous())
            .sources(&["a", "b"])
            .deadline_ms(250)
            .policy(ResultPolicy::Quorum(2))
            .build();
        assert_eq!(r.sources, vec!["a", "b"]);
        assert_eq!(r.mode, QueryMode::RealTime);
        assert_eq!(r.deadline_ms, Some(250));
        assert_eq!(r.policy, ResultPolicy::Quorum(2));
        let h = ClientRequest::historical("SELECT * FROM history");
        assert!(h.sources.is_empty());
        assert_eq!(h.mode, QueryMode::Historical);
        assert_eq!(h.policy, ResultPolicy::BestEffort);
        assert_eq!(h.deadline_ms, None);
    }

    #[test]
    fn builder_subscribe_produces_a_spec() {
        let spec = ClientRequest::builder("SELECT Load1 FROM Processor EVERY 250")
            .source("jdbc:snmp://node00.alpha/public")
            .subscribe()
            .buffer(8)
            .backpressure(crate::stream::BackpressurePolicy::Coalesce);
        assert_eq!(spec.every_ms, None, "cadence comes from the EVERY clause");
        assert_eq!(spec.buffer, Some(8));
        assert_eq!(
            spec.backpressure,
            Some(crate::stream::BackpressurePolicy::Coalesce)
        );
        let explicit = ClientRequest::builder("SELECT Load1 FROM Processor")
            .source("jdbc:snmp://node00.alpha/public")
            .subscribe_every(500);
        assert_eq!(explicit.every_ms, Some(500));
    }

    #[test]
    fn outcomes_derive_legacy_fields() {
        let outcomes = vec![
            SourceOutcome::success("a", OutcomeStatus::Ok, 3),
            SourceOutcome::success("b", OutcomeStatus::Cached, 0),
            SourceOutcome::success("c", OutcomeStatus::Coalesced, 1),
            SourceOutcome::failure("d", OutcomeStatus::Error, 2, "driver exploded"),
            SourceOutcome::failure("e", OutcomeStatus::Timeout, 9, "deadline exceeded"),
        ];
        let resp = ClientResponse::from_outcomes(rows(), outcomes, vec!["extra note".to_owned()]);
        assert_eq!(resp.sources_ok, 3);
        assert_eq!(resp.served_from_cache, 1);
        assert_eq!(
            resp.warnings,
            vec![
                "d: driver exploded".to_owned(),
                "e: deadline exceeded".to_owned(),
                "extra note".to_owned(),
            ]
        );
        // Outcomes round-trip through serde for the wire protocol.
        let json = serde_json::to_string(&resp.outcomes).unwrap();
        let back: Vec<SourceOutcome> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp.outcomes);
    }

    #[test]
    fn csv_rendering_escapes() {
        let csv = render_csv(&rows());
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "Hostname,Load1");
        assert_eq!(lines.next().unwrap(), "\"a,b\",0.5");
        assert_eq!(lines.next().unwrap(), "n2,");
    }

    #[test]
    fn json_rendering_types() {
        let json = render_json(&rows());
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed[0]["Hostname"], "a,b");
        assert_eq!(parsed[0]["Load1"], 0.5);
        assert!(parsed[1]["Load1"].is_null());
    }
}
