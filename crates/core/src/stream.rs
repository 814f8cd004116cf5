//! Continuous queries and streaming subscriptions — the live
//! observability plane.
//!
//! R-GMA's split of monitoring into *latest-state*, *history* and
//! *continuous* queries names the gap the paper's Event Manager (§3.1.5)
//! points at: everything else in the gateway is pull/request-at-a-time.
//! This module adds the third leg. `SELECT … EVERY n` (or the
//! programmatic [`crate::acil::QueryBuilder::subscribe`]) registers a
//! **standing query** on the gateway; `Gateway::pump` re-evaluates it on
//! its cadence (or sooner when an agent update arrives for one of its
//! sources) and diffs the result against the previous emission with
//! [`gridrm_store::DeltaTracker`]. Only the *changed rows* — the delta —
//! fan out to subscribers, each behind a bounded buffer with a
//! configurable [`BackpressurePolicy`]. Identical standing queries are
//! deduplicated: 10 000 subscribers to one query cost one evaluation per
//! tick, not 10 000 re-polls.

use crate::acil::ClientRequest;
use crate::admin::concerns;
use gridrm_dbc::{DbcResult, RowSet, SqlError};
use gridrm_sqlparse::Statement;
use gridrm_store::DeltaTracker;
use gridrm_telemetry::{
    CostVector, Counter, GatewayTelemetry, Gauge, Histogram, IntrusionCause, JournalSeverity,
    Labels, Registry, DEFAULT_LATENCY_BUCKETS_MS, KIND_STREAM,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies one subscriber on one gateway.
pub type SubscriptionId = u64;

/// What a full per-subscriber buffer does with the next delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BackpressurePolicy {
    /// Evict the oldest buffered delta to make room (lossy head —
    /// a catching-up subscriber sees the freshest data). The default.
    #[default]
    DropOldest,
    /// Refuse the incoming delta (lossy tail — the buffer preserves
    /// the oldest unread deltas).
    DropNewest,
    /// Merge the incoming delta into the newest buffered one: rows
    /// accumulate, `removed` adds up and `coalesced` counts the merges.
    /// Nothing is lost, but batch boundaries are.
    Coalesce,
}

impl BackpressurePolicy {
    /// Closed-set label used on `gridrm_sub_dropped_total`.
    pub fn name(self) -> &'static str {
        match self {
            BackpressurePolicy::DropOldest => "drop_oldest",
            BackpressurePolicy::DropNewest => "drop_newest",
            BackpressurePolicy::Coalesce => "coalesce",
        }
    }
}

/// A subscription request: the query to stand up plus per-subscriber
/// delivery knobs. Built by [`crate::acil::QueryBuilder::subscribe`] or
/// directly.
#[derive(Debug, Clone)]
pub struct SubscribeSpec {
    /// The underlying query (sources, SQL, identity, freshness mode).
    /// The SQL may carry its own `EVERY <n>` clause.
    pub request: ClientRequest,
    /// Re-evaluation cadence in virtual ms; falls back to the SQL's
    /// `EVERY` clause. One of the two must be present.
    pub every_ms: Option<u64>,
    /// Per-subscriber buffer capacity; `None` uses the gateway default.
    pub buffer: Option<usize>,
    /// Backpressure policy; `None` uses the gateway default.
    pub backpressure: Option<BackpressurePolicy>,
}

impl SubscribeSpec {
    /// Subscribe `request` with the gateway's default delivery knobs
    /// and the cadence of its SQL's `EVERY` clause.
    pub fn new(request: ClientRequest) -> SubscribeSpec {
        SubscribeSpec {
            request,
            every_ms: None,
            buffer: None,
            backpressure: None,
        }
    }

    /// Override the per-subscriber buffer capacity.
    pub fn buffer(mut self, capacity: usize) -> SubscribeSpec {
        self.buffer = Some(capacity);
        self
    }

    /// Override the backpressure policy.
    pub fn backpressure(mut self, policy: BackpressurePolicy) -> SubscribeSpec {
        self.backpressure = Some(policy);
        self
    }
}

/// One batch of changed rows emitted by a standing query to one
/// subscriber.
#[derive(Debug, Clone)]
pub struct StreamDelta {
    /// The receiving subscription.
    pub subscription: SubscriptionId,
    /// Per-subscriber emission sequence number (1-based, gaps mean
    /// drops).
    pub seq: u64,
    /// Virtual time of the evaluation that produced (or last merged
    /// into) this delta.
    pub emitted_ms: u64,
    /// Scope label of the gateway that evaluated the query
    /// (`"local:gw-alpha"`), so grid-level merges stay attributable.
    pub origin: String,
    /// The new or modified rows since the previous emission.
    pub rows: RowSet,
    /// Rows from the previous emission that disappeared.
    pub removed: usize,
    /// How many later emissions were coalesced into this delta (0 for
    /// an unmerged one).
    pub coalesced: u32,
}

/// Point-in-time view of one subscriber: a row of the
/// `gridrm_subscriptions` virtual table.
#[derive(Debug, Clone)]
pub struct SubscriptionSnapshot {
    /// Subscription id.
    pub id: SubscriptionId,
    /// Scope label of the owning gateway.
    pub origin: String,
    /// The standing query's SQL (EVERY clause stripped).
    pub sql: String,
    /// Number of data sources the query watches.
    pub sources: usize,
    /// Re-evaluation cadence, virtual ms.
    pub every_ms: u64,
    /// Backpressure policy label.
    pub policy: String,
    /// Buffer capacity.
    pub buffer_capacity: usize,
    /// Deltas currently buffered, waiting for a poll.
    pub pending: usize,
    /// Deltas emitted to this subscriber so far (drops included).
    pub emitted: u64,
    /// Deltas the subscriber has polled out.
    pub delivered: u64,
    /// Deltas lost (or merged away) to backpressure.
    pub dropped: u64,
    /// Virtual time of the last emission, if any.
    pub last_emit_ms: Option<u64>,
    /// Virtual time the subscription was registered.
    pub created_ms: u64,
}

/// Streaming-plane counters, registered as `gridrm_sub_deltas_total` and
/// `gridrm_sub_dropped_total{policy=…}`; `evaluations` is not exposed.
#[derive(Debug)]
pub struct StreamStats {
    /// Deltas emitted into subscriber buffers (one per subscriber per
    /// changed evaluation).
    pub deltas: Counter,
    /// Deltas evicted under `DropOldest`.
    pub dropped_oldest: Counter,
    /// Deltas refused under `DropNewest`.
    pub dropped_newest: Counter,
    /// Deltas merged away under `Coalesce`.
    pub dropped_coalesced: Counter,
    /// Standing-query evaluations run by the pump (the delta-eval hot
    /// path; compare with what naive per-subscriber re-polling would
    /// cost).
    pub evaluations: Counter,
}

impl StreamStats {
    fn new(registry: &Registry) -> StreamStats {
        let [dropped_oldest, dropped_newest, dropped_coalesced] = registry.counters(
            "gridrm_sub_dropped_total",
            "Deltas lost or merged away by subscriber backpressure",
            "policy",
            [
                BackpressurePolicy::DropOldest.name(),
                BackpressurePolicy::DropNewest.name(),
                BackpressurePolicy::Coalesce.name(),
            ],
        );
        StreamStats {
            deltas: registry.counter(
                "gridrm_sub_deltas_total",
                "Continuous-query deltas emitted into subscriber buffers",
                Labels::none(),
            ),
            dropped_oldest,
            dropped_newest,
            dropped_coalesced,
            evaluations: Counter::new(),
        }
    }

    /// The drop counter for one policy.
    fn dropped_for(&self, policy: BackpressurePolicy) -> &Counter {
        match policy {
            BackpressurePolicy::DropOldest => &self.dropped_oldest,
            BackpressurePolicy::DropNewest => &self.dropped_newest,
            BackpressurePolicy::Coalesce => &self.dropped_coalesced,
        }
    }
}

/// Gateway-level streaming knobs, lifted from `GatewayConfig`.
#[derive(Debug, Clone)]
pub struct StreamSettings {
    /// Default per-subscriber buffer capacity.
    pub buffer_capacity: usize,
    /// Default backpressure policy.
    pub backpressure: BackpressurePolicy,
    /// Floor for `EVERY` intervals, virtual ms.
    pub min_every_ms: u64,
    /// Hard cap on registered subscribers (0 = uncapped).
    pub max_subscribers: usize,
}

/// One deduplicated standing query: many subscribers, one evaluation
/// per tick.
struct StandingQuery {
    /// Template request the pump executes (EVERY clause stripped).
    request: ClientRequest,
    every_ms: u64,
    next_eval_ms: u64,
    /// An agent update touched one of this query's sources since the
    /// last evaluation; evaluate on the next pump regardless of cadence.
    dirty: bool,
    tracker: DeltaTracker,
    /// The full result set of the most recent evaluation — the baseline
    /// a late joiner receives as its synthesized snapshot delta.
    last_rows: Option<RowSet>,
    subscribers: Vec<SubscriptionId>,
}

struct Subscriber {
    id: SubscriptionId,
    key: String,
    sql: String,
    sources: usize,
    every_ms: u64,
    policy: BackpressurePolicy,
    capacity: usize,
    buffer: VecDeque<StreamDelta>,
    emitted: u64,
    delivered: u64,
    dropped: u64,
    last_emit_ms: Option<u64>,
    created_ms: u64,
}

#[derive(Default)]
struct Inner {
    queries: BTreeMap<String, StandingQuery>,
    subs: BTreeMap<SubscriptionId, Subscriber>,
}

/// The subscription registry and delta pump: standing queries in,
/// bounded per-subscriber delta buffers out.
pub struct StreamManager {
    inner: Mutex<Inner>,
    next_id: AtomicU64,
    settings: StreamSettings,
    origin: String,
    stats: StreamStats,
    /// Delivery lag (poll time minus emit time), virtual ms.
    lag: Histogram,
    /// Live subscriber count.
    active: Gauge,
    telemetry: GatewayTelemetry,
}

impl StreamManager {
    /// Build the manager and register the streaming metric families
    /// eagerly, so they are visible before the first subscription.
    pub fn new(
        settings: StreamSettings,
        origin: String,
        telemetry: &GatewayTelemetry,
    ) -> StreamManager {
        let registry = telemetry.registry();
        StreamManager {
            inner: Mutex::new(Inner::default()),
            next_id: AtomicU64::new(1),
            settings,
            origin,
            stats: StreamStats::new(registry),
            lag: registry.histogram(
                "gridrm_sub_lag_ms",
                "Delta delivery lag: poll time minus emit time, virtual ms",
                Labels::none(),
                DEFAULT_LATENCY_BUCKETS_MS,
            ),
            active: registry.gauge(
                "gridrm_subscriptions_active",
                "Registered continuous-query subscribers",
                Labels::none(),
            ),
            telemetry: telemetry.clone(),
        }
    }

    /// Streaming counters.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Scope label deltas are stamped with.
    pub fn origin(&self) -> &str {
        &self.origin
    }

    /// Registered subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.inner.lock().subs.len()
    }

    /// Deduplicated standing queries currently evaluated by the pump.
    pub fn standing_query_count(&self) -> usize {
        self.inner.lock().queries.len()
    }

    /// Register a subscription. The standing query becomes due on the
    /// next pump; identical (sources, SQL, cadence, identity) queries
    /// share one evaluation.
    pub fn subscribe(&self, spec: &SubscribeSpec, now: u64) -> DbcResult<SubscriptionId> {
        let Statement::Select(sel) = spec.request.statement()? else {
            return Err(SqlError::Unsupported(
                "subscriptions take SELECT statements".into(),
            ));
        };
        let every = spec.every_ms.or(sel.every_ms).ok_or_else(|| {
            SqlError::Unsupported(
                "a subscription needs a cadence: `SELECT … EVERY <ms>` or \
                 QueryBuilder::every_ms"
                    .into(),
            )
        })?;
        let every = every.max(self.settings.min_every_ms);
        if spec.request.sources.is_empty() {
            return Err(SqlError::Unsupported(
                "a subscription needs at least one data source".into(),
            ));
        }
        // The standing request the pump evaluates carries its own
        // statement, so no tick parses anything.
        let mut standing = spec
            .request
            .with_statement(Statement::Select(sel.without_every()));
        standing.trace = None;
        let exec_sql = standing.sql().to_owned();
        let who = spec
            .request
            .identity
            .as_ref()
            .map(|i| i.name.as_str())
            .unwrap_or("anonymous");
        let key = format!(
            "{}\u{1}{}\u{1}{}\u{1}{}",
            spec.request.sources.join(","),
            exec_sql,
            every,
            who
        );
        let capacity = spec.buffer.unwrap_or(self.settings.buffer_capacity).max(1);
        let policy = spec.backpressure.unwrap_or(self.settings.backpressure);
        let id = {
            let mut inner = self.inner.lock();
            if self.settings.max_subscribers > 0
                && inner.subs.len() >= self.settings.max_subscribers
            {
                return Err(SqlError::Unsupported(format!(
                    "subscriber cap reached ({})",
                    self.settings.max_subscribers
                )));
            }
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let query = inner
                .queries
                .entry(key.clone())
                .or_insert_with(|| StandingQuery {
                    request: standing,
                    every_ms: every,
                    next_eval_ms: now,
                    dirty: false,
                    tracker: DeltaTracker::new(),
                    last_rows: None,
                    subscribers: Vec::new(),
                });
            // A late joiner on an existing standing query starts from
            // the current materialization: synthesize its snapshot
            // delta rather than leaving it blind until the next change.
            let baseline = query.last_rows.clone();
            query.subscribers.push(id);
            let mut sub = Subscriber {
                id,
                key,
                sql: exec_sql,
                sources: spec.request.sources.len(),
                every_ms: every,
                policy,
                capacity,
                buffer: VecDeque::new(),
                emitted: 0,
                delivered: 0,
                dropped: 0,
                last_emit_ms: None,
                created_ms: now,
            };
            if let Some(rows) = baseline {
                sub.emitted = 1;
                sub.last_emit_ms = Some(now);
                sub.buffer.push_back(StreamDelta {
                    subscription: id,
                    seq: 1,
                    emitted_ms: now,
                    origin: self.origin.clone(),
                    rows,
                    removed: 0,
                    coalesced: 0,
                });
                self.stats.deltas.inc();
            }
            inner.subs.insert(id, sub);
            self.active.set(inner.subs.len() as f64);
            id
        };
        self.telemetry.journal().record(
            now,
            JournalSeverity::Info,
            KIND_STREAM,
            &spec.request.sources.join(","),
            None,
            Some("subscribe"),
            &format!(
                "subscription {id} registered (every {every} ms, {})",
                policy.name()
            ),
        );
        Ok(id)
    }

    /// Cancel a subscription; standing queries with no subscribers left
    /// are dropped. Returns whether the id existed.
    pub fn cancel(&self, id: SubscriptionId, now: u64) -> bool {
        let existed = {
            let mut inner = self.inner.lock();
            let Some(sub) = inner.subs.remove(&id) else {
                return false;
            };
            if let Some(q) = inner.queries.get_mut(&sub.key) {
                q.subscribers.retain(|s| *s != id);
                if q.subscribers.is_empty() {
                    inner.queries.remove(&sub.key);
                }
            }
            self.active.set(inner.subs.len() as f64);
            true
        };
        self.telemetry.journal().record(
            now,
            JournalSeverity::Info,
            KIND_STREAM,
            "",
            None,
            Some("subscribe"),
            &format!("subscription {id} cancelled"),
        );
        existed
    }

    /// An agent update (native push, event) came from `origin`: standing
    /// queries over a source it concerns are evaluated on the next pump
    /// even if their cadence has not elapsed. The origin is a source URL
    /// or an agent address (`node00.alpha:snmp`, which concerns
    /// `jdbc:snmp://node00.alpha/public`); see `admin::concerns`.
    pub fn mark_dirty(&self, origin: &str) {
        let mut inner = self.inner.lock();
        for q in inner.queries.values_mut() {
            if q.request.sources.iter().any(|s| concerns(s, origin)) {
                q.dirty = true;
            }
        }
    }

    /// Evaluate every due standing query once, diff against the last
    /// emission, and fan the changed rows out to subscribers under
    /// their backpressure policies. `exec` runs one (EVERY-stripped)
    /// query to rows — the gateway passes its Request Manager.
    ///
    /// Returns the number of deltas emitted into buffers.
    pub fn pump<F>(&self, now: u64, exec: F) -> usize
    where
        F: Fn(&ClientRequest) -> DbcResult<RowSet>,
    {
        self.tick(now, exec, false)
    }

    /// Force one subscription's standing query to evaluate now (the
    /// initial-snapshot path at subscribe time). Uses the same exec
    /// seam as [`StreamManager::pump`]; only dirty queries run, so
    /// other standing queries keep their own cadence.
    pub fn evaluate_for<F>(&self, id: SubscriptionId, now: u64, exec: F) -> usize
    where
        F: Fn(&ClientRequest) -> DbcResult<RowSet>,
    {
        {
            let mut inner = self.inner.lock();
            let Some(key) = inner.subs.get(&id).map(|s| s.key.clone()) else {
                return 0;
            };
            let Some(q) = inner.queries.get_mut(&key) else {
                return 0;
            };
            q.dirty = true;
        }
        self.tick(now, exec, true)
    }

    /// One evaluation pass. Three phases to keep the registry lock out
    /// of `exec`: pick the due queries under the lock, execute them
    /// unlocked (an evaluation may itself read the
    /// `gridrm_subscriptions` virtual table, which re-enters this
    /// manager), then re-lock to diff and fan out.
    fn tick<F>(&self, now: u64, exec: F, only_dirty: bool) -> usize
    where
        F: Fn(&ClientRequest) -> DbcResult<RowSet>,
    {
        let due: Vec<(String, ClientRequest)> = {
            let inner = self.inner.lock();
            inner
                .queries
                .iter()
                .filter(|(_, q)| q.dirty || (!only_dirty && now >= q.next_eval_ms))
                .map(|(k, q)| (k.clone(), q.request.clone()))
                .collect()
        };
        let mut results: Vec<(String, DbcResult<RowSet>)> = Vec::with_capacity(due.len());
        for (key, request) in due {
            self.stats.evaluations.inc();
            results.push((key, exec(&request)));
        }
        let mut emitted = 0usize;
        let mut inner = self.inner.lock();
        for (key, outcome) in results {
            let Some(q) = inner.queries.get_mut(&key) else {
                continue; // cancelled mid-evaluation
            };
            q.next_eval_ms = now + q.every_ms;
            q.dirty = false;
            let rows = match outcome {
                Ok(rows) => rows,
                Err(e) => {
                    self.telemetry.journal().record(
                        now,
                        JournalSeverity::Warning,
                        KIND_STREAM,
                        &q.request.sources.join(","),
                        None,
                        Some("delta"),
                        &format!("standing query evaluation failed: {e}"),
                    );
                    continue;
                }
            };
            let delta = q.tracker.diff(&rows);
            q.last_rows = Some(rows);
            let Some(delta) = delta else {
                continue; // unchanged — the idle case costs nothing
            };
            let targets = q.subscribers.clone();
            for sub_id in targets {
                let origin = self.origin.clone();
                let Some(sub) = inner.subs.get_mut(&sub_id) else {
                    continue;
                };
                sub.emitted += 1;
                sub.last_emit_ms = Some(now);
                let next = StreamDelta {
                    subscription: sub_id,
                    seq: sub.emitted,
                    emitted_ms: now,
                    origin,
                    rows: delta.rows.clone(),
                    removed: delta.removed,
                    coalesced: 0,
                };
                self.stats.deltas.inc();
                emitted += 1;
                if sub.buffer.len() < sub.capacity {
                    sub.buffer.push_back(next);
                    continue;
                }
                sub.dropped += 1;
                self.stats.dropped_for(sub.policy).inc();
                match sub.policy {
                    BackpressurePolicy::DropOldest => {
                        sub.buffer.pop_front();
                        sub.buffer.push_back(next);
                    }
                    BackpressurePolicy::DropNewest => {}
                    BackpressurePolicy::Coalesce => {
                        if let Some(back) = sub.buffer.back_mut() {
                            // Same standing query, same column shape —
                            // an arity mismatch cannot happen here, and
                            // a defensive miss just skips the merge.
                            let _ = back.rows.append(next.rows);
                            back.removed += next.removed;
                            back.coalesced += 1;
                            back.emitted_ms = now;
                            back.seq = next.seq;
                        }
                    }
                }
            }
        }
        emitted
    }

    /// Deliver: drain up to `max` buffered deltas (0 = all) and record
    /// each one's delivery lag.
    pub fn poll(&self, id: SubscriptionId, max: usize, now: u64) -> DbcResult<Vec<StreamDelta>> {
        let mut inner = self.inner.lock();
        let Some(sub) = inner.subs.get_mut(&id) else {
            return Err(SqlError::Unsupported(format!("unknown subscription {id}")));
        };
        let take = if max == 0 {
            sub.buffer.len()
        } else {
            max.min(sub.buffer.len())
        };
        let mut out = Vec::with_capacity(take);
        let mut cost = CostVector::default();
        for _ in 0..take {
            if let Some(d) = sub.buffer.pop_front() {
                sub.delivered += 1;
                self.lag.observe(now.saturating_sub(d.emitted_ms) as f64);
                // Each delivered delta is one message's worth of rows
                // shipped to a subscriber: subscription traffic the
                // local site endures.
                cost.msgs_out += 1;
                cost.rows_returned += d.rows.len() as u64;
                out.push(d);
            }
        }
        if !out.is_empty() {
            let costs = self.telemetry.costs();
            costs.count(&cost);
            costs.intrude(&self.telemetry.site(), IntrusionCause::Subscription, &cost);
        }
        Ok(out)
    }

    /// Deltas waiting in one subscriber's buffer.
    pub fn pending(&self, id: SubscriptionId) -> usize {
        self.inner
            .lock()
            .subs
            .get(&id)
            .map(|s| s.buffer.len())
            .unwrap_or(0)
    }

    /// Snapshot every subscriber, ordered by id.
    pub fn snapshot(&self) -> Vec<SubscriptionSnapshot> {
        let inner = self.inner.lock();
        let mut out: Vec<SubscriptionSnapshot> = inner
            .subs
            .values()
            .map(|s| SubscriptionSnapshot {
                id: s.id,
                origin: self.origin.clone(),
                sql: s.sql.clone(),
                sources: s.sources,
                every_ms: s.every_ms,
                policy: s.policy.name().to_owned(),
                buffer_capacity: s.capacity,
                pending: s.buffer.len(),
                emitted: s.emitted,
                delivered: s.delivered,
                dropped: s.dropped,
                last_emit_ms: s.last_emit_ms,
                created_ms: s.created_ms,
            })
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acil::ClientRequest;
    use gridrm_dbc::{ColumnMeta, ResultSetMetaData};
    use gridrm_sqlparse::{SqlType, SqlValue};
    use std::sync::Mutex as StdMutex;

    fn settings() -> StreamSettings {
        StreamSettings {
            buffer_capacity: 4,
            backpressure: BackpressurePolicy::DropOldest,
            min_every_ms: 10,
            max_subscribers: 0,
        }
    }

    fn telemetry() -> GatewayTelemetry {
        GatewayTelemetry::new(gridrm_simnet::SimClock::new())
    }

    fn manager() -> StreamManager {
        StreamManager::new(settings(), "local:test".into(), &telemetry())
    }

    fn spec(sql: &str) -> SubscribeSpec {
        SubscribeSpec::new(ClientRequest::realtime("jdbc:mem://n/t", sql))
    }

    fn rows(pairs: &[(&str, i64)]) -> RowSet {
        RowSet::new(
            ResultSetMetaData::new(vec![
                ColumnMeta::new("Hostname", SqlType::Str),
                ColumnMeta::new("Load1", SqlType::Int),
            ]),
            pairs
                .iter()
                .map(|(h, l)| vec![SqlValue::Str((*h).to_owned()), SqlValue::Int(*l)])
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn subscribe_requires_a_cadence_and_a_source() {
        let m = manager();
        let err = m.subscribe(&spec("SELECT * FROM Processor"), 0);
        assert!(err.is_err(), "no EVERY and no every_ms must be refused");
        let mut s = spec("SELECT * FROM Processor EVERY 100");
        s.request.sources.clear();
        assert!(m.subscribe(&s, 0).is_err());
    }

    #[test]
    fn identical_standing_queries_deduplicate() {
        let m = manager();
        for _ in 0..100 {
            m.subscribe(&spec("SELECT * FROM Processor EVERY 100"), 0)
                .unwrap();
        }
        assert_eq!(m.subscriber_count(), 100);
        assert_eq!(m.standing_query_count(), 1);
        // One pump = one evaluation, 100 deltas.
        let emitted = m.pump(0, |_req| Ok(rows(&[("n1", 1)])));
        assert_eq!(emitted, 100);
        assert_eq!(m.stats().evaluations.get(), 1);
    }

    #[test]
    fn unchanged_evaluations_emit_nothing() {
        let m = manager();
        let id = m
            .subscribe(&spec("SELECT * FROM Processor EVERY 100"), 0)
            .unwrap();
        assert_eq!(m.pump(0, |_| Ok(rows(&[("n1", 1)]))), 1);
        assert_eq!(m.pump(100, |_| Ok(rows(&[("n1", 1)]))), 0);
        assert_eq!(m.pump(200, |_| Ok(rows(&[("n1", 2)]))), 1);
        let deltas = m.poll(id, 0, 200).unwrap();
        assert_eq!(deltas.len(), 2, "snapshot + one change");
        assert_eq!(deltas[1].rows.rows()[0][1], SqlValue::Int(2));
    }

    #[test]
    fn cadence_is_respected_between_dirty_marks() {
        let m = manager();
        m.subscribe(&spec("SELECT * FROM Processor EVERY 100"), 0)
            .unwrap();
        assert_eq!(m.pump(0, |_| Ok(rows(&[("n1", 1)]))), 1);
        // 50 ms later: not due, not dirty → no evaluation at all.
        assert_eq!(m.pump(50, |_| Ok(rows(&[("n1", 2)]))), 0);
        assert_eq!(m.stats().evaluations.get(), 1);
        // An agent update marks it dirty → evaluated despite cadence.
        m.mark_dirty("jdbc:mem://n/t");
        assert_eq!(m.pump(60, |_| Ok(rows(&[("n1", 2)]))), 1);
    }

    #[test]
    fn drop_oldest_keeps_the_freshest_deltas() {
        let m = manager();
        let mut s = spec("SELECT * FROM Processor EVERY 10");
        s.buffer = Some(2);
        let id = m.subscribe(&s, 0).unwrap();
        for i in 0..5 {
            m.pump(i * 10, |_| Ok(rows(&[("n1", i as i64)])));
        }
        assert_eq!(m.pending(id), 2);
        let deltas = m.poll(id, 0, 50).unwrap();
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0].seq, 4);
        assert_eq!(deltas[1].seq, 5);
        assert_eq!(m.stats().dropped_oldest.get(), 3);
    }

    #[test]
    fn drop_newest_keeps_the_oldest_deltas() {
        let m = manager();
        let mut s = spec("SELECT * FROM Processor EVERY 10");
        s.buffer = Some(2);
        s.backpressure = Some(BackpressurePolicy::DropNewest);
        let id = m.subscribe(&s, 0).unwrap();
        for i in 0..5 {
            m.pump(i * 10, |_| Ok(rows(&[("n1", i as i64)])));
        }
        let deltas = m.poll(id, 0, 50).unwrap();
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0].seq, 1);
        assert_eq!(deltas[1].seq, 2);
        assert_eq!(m.stats().dropped_newest.get(), 3);
    }

    #[test]
    fn coalesce_merges_into_the_newest_buffered_delta() {
        let m = manager();
        let mut s = spec("SELECT * FROM Processor EVERY 10");
        s.buffer = Some(1);
        s.backpressure = Some(BackpressurePolicy::Coalesce);
        let id = m.subscribe(&s, 0).unwrap();
        for i in 0..4 {
            m.pump(i * 10, |_| Ok(rows(&[("n1", i as i64)])));
        }
        let deltas = m.poll(id, 0, 40).unwrap();
        assert_eq!(deltas.len(), 1, "capacity 1 + coalesce = one merged batch");
        let d = &deltas[0];
        assert_eq!(d.coalesced, 3);
        assert_eq!(d.seq, 4);
        assert_eq!(d.rows.len(), 4, "merged batch keeps every changed row");
        assert_eq!(m.stats().dropped_coalesced.get(), 3);
    }

    #[test]
    fn poll_honours_max_and_unknown_ids_error() {
        let m = manager();
        let id = m
            .subscribe(&spec("SELECT * FROM Processor EVERY 10"), 0)
            .unwrap();
        for i in 0..3 {
            m.pump(i * 10, |_| Ok(rows(&[("n1", i as i64)])));
        }
        assert_eq!(m.poll(id, 2, 30).unwrap().len(), 2);
        assert_eq!(m.poll(id, 2, 30).unwrap().len(), 1);
        assert!(m.poll(9_999, 0, 0).is_err());
    }

    #[test]
    fn cancel_drops_subscriber_and_orphaned_query() {
        let m = manager();
        let a = m
            .subscribe(&spec("SELECT * FROM Processor EVERY 10"), 0)
            .unwrap();
        let b = m
            .subscribe(&spec("SELECT * FROM Processor EVERY 10"), 0)
            .unwrap();
        assert_eq!(m.standing_query_count(), 1);
        assert!(m.cancel(a, 0));
        assert_eq!(m.standing_query_count(), 1, "b still holds the query");
        assert!(m.cancel(b, 0));
        assert_eq!(m.standing_query_count(), 0);
        assert!(!m.cancel(b, 0), "double-cancel reports absence");
    }

    #[test]
    fn subscriber_cap_is_enforced() {
        let mut st = settings();
        st.max_subscribers = 2;
        let m = StreamManager::new(st, "local:test".into(), &telemetry());
        m.subscribe(&spec("SELECT * FROM Processor EVERY 10"), 0)
            .unwrap();
        m.subscribe(&spec("SELECT * FROM Processor EVERY 10"), 0)
            .unwrap();
        assert!(m
            .subscribe(&spec("SELECT * FROM Processor EVERY 10"), 0)
            .is_err());
    }

    #[test]
    fn evaluation_failures_skip_without_poisoning_the_baseline() {
        let m = manager();
        let id = m
            .subscribe(&spec("SELECT * FROM Processor EVERY 10"), 0)
            .unwrap();
        m.pump(0, |_| Ok(rows(&[("n1", 1)])));
        m.pump(10, |_| Err(SqlError::Driver("source down".into())));
        // The failed tick changed nothing: the same rows still diff clean.
        assert_eq!(m.pump(20, |_| Ok(rows(&[("n1", 1)]))), 0);
        assert_eq!(m.poll(id, 0, 20).unwrap().len(), 1);
    }

    #[test]
    fn evaluation_runs_outside_the_registry_lock() {
        // The exec closure may re-enter the manager (a standing query
        // over the gridrm_subscriptions virtual table does); this must
        // not deadlock.
        let m = std::sync::Arc::new(manager());
        m.subscribe(&spec("SELECT * FROM gridrm_subscriptions EVERY 10"), 0)
            .unwrap();
        let snap_len = StdMutex::new(0usize);
        let m2 = m.clone();
        m.pump(0, |_| {
            *snap_len.lock().unwrap() = m2.snapshot().len();
            Ok(rows(&[("n1", 1)]))
        });
        assert_eq!(*snap_len.lock().unwrap(), 1);
    }
}
