//! Per-request trace spans: timestamped stages through the query path,
//! kept in a bounded ring buffer of recent traces.
//!
//! Since the hierarchical-tracing upgrade every record is a **span** in a
//! tree: it carries a `trace_id` naming the whole tree, its own globally
//! unique `span_id`, an optional `parent_span_id` and the Grid `site`
//! that produced it. A [`TraceContext`] is the portable half of a span —
//! it crosses layer (and gateway) boundaries so children created
//! anywhere land in the same tree.

use gridrm_simnet::SimClock;
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cost::{CostLedger, CostVector, RootBill};
use crate::journal::{Journal, DEFAULT_JOURNAL_CAPACITY};
use crate::metrics::{Counter, Labels, Registry};
use crate::slo::SloEngine;
use crate::slowlog::{SlowQueryLog, DEFAULT_SLOW_QUERY_CAPACITY, DEFAULT_SLOW_QUERY_THRESHOLD_MS};
use crate::timeseries::TimeSeriesRecorder;

/// Declares [`Stage`] once: each variant with the name a span records.
macro_rules! stages {
    ($($(#[doc = $doc:literal])+ $variant:ident = $name:literal,)+) => {
        /// The closed span-stage vocabulary: every stage a span records
        /// is one of these (listed in `docs/observability.md`, "Span
        /// stage vocabulary", which `tests/docs_drift.rs` keeps equal to
        /// [`Stage::ALL`]).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Stage {
            $($(#[doc = $doc])+ $variant,)+
        }

        impl Stage {
            /// Every stage, in declaration order.
            pub const ALL: &'static [Stage] = &[$(Stage::$variant,)+];

            /// The name recorded in [`SpanStage::stage`].
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Stage::$variant => $name,)+
                }
            }
        }
    };
}

stages! {
    /// Request crossed the client interface.
    Acil = "acil",
    /// Request Manager accepted it (post-security).
    Handle = "handle",
    /// Cache Controller consulted (`hit`/`miss`).
    CacheLookup = "cache_lookup",
    /// Driver Manager resolution on the root span; detail is the winner.
    Resolve = "resolve",
    /// Resolution child span: the failure policy in force.
    ResolvePolicy = "resolve_policy",
    /// Resolution child span: the cached-driver verdict.
    ResolveCache = "resolve_cache",
    /// Resolution child span: one candidate tried, with its verdict.
    ResolveCandidate = "resolve_candidate",
    /// Resolution child span: how the winner was found.
    ResolveChosen = "resolve_chosen",
    /// Connection Manager checkout (`pool_hit`/`create`).
    Checkout = "checkout",
    /// Driver connection established; detail is the driver.
    Connect = "connect",
    /// Native fetch ran.
    Execute = "execute",
    /// Driver returned a GLUE rowset.
    Translate = "translate",
    /// Marks the per-attempt child span; detail is the driver.
    DriverExecute = "driver_execute",
    /// GLUE translation child span: dropped attributes and NULL counts.
    GlueTranslate = "glue_translate",
    /// An EXPLAIN verb is driving this trace (`plan`/`analyze`).
    Explain = "explain",
    /// Global-layer fan-out split.
    GlobalQuery = "global_query",
    /// One fan-out segment span (`local`/`remote`).
    Segment = "segment",
    /// Shared another identical request's in-flight execution.
    Coalesce = "coalesce",
    /// A continuous-query subscription was registered.
    Subscribe = "subscribe",
    /// A standing query was evaluated incrementally.
    Delta = "delta",
    /// Buffered deltas were drained to a subscriber.
    Deliver = "deliver",
    /// A root span's inclusive cost breached the budget.
    Cost = "cost",
}

/// What [`SpanBuilder::stage`] records: a [`Stage`], or a stage's name
/// for callers that spell it out (checked against [`Stage::ALL`] in
/// debug builds).
pub trait StageName {
    /// The name to record.
    fn stage_name(&self) -> &str;

    /// The name as a span keeps it: the [`Stage`]'s own static name
    /// when there is one, so recording a stage copies nothing.
    fn span_text(&self) -> SpanText {
        let name = self.stage_name();
        match Stage::ALL.iter().find(|s| s.as_str() == name) {
            Some(stage) => SpanText::from(stage.as_str()),
            None => SpanText::from(name.to_owned()),
        }
    }
}

impl StageName for Stage {
    fn stage_name(&self) -> &str {
        self.as_str()
    }

    fn span_text(&self) -> SpanText {
        SpanText::from(self.as_str())
    }
}

impl StageName for &str {
    fn stage_name(&self) -> &str {
        debug_assert!(
            Stage::ALL.iter().any(|s| s.as_str() == *self),
            "span stage `{self}` is not in Stage::ALL — stages are a closed set"
        );
        self
    }
}

/// Text a span records, held in the cheapest form that renders it: a
/// static name, text shared with the rest of its request (the site,
/// the trace id, the SQL, a source URL, a driver name), shared text
/// between static words, the id of a span minted on this gateway, or
/// text of its own. It becomes a `String` only when a reader asks for
/// the span as a [`TraceRecord`].
#[derive(Debug, Clone)]
pub struct SpanText(Text);

#[derive(Debug, Clone)]
enum Text {
    Static(&'static str),
    Shared(Arc<str>),
    /// `{0[0]}{1}{0[1]}`; the words sit behind one pointer to keep
    /// every span text at 32 bytes.
    Around(&'static [&'static str; 2], Arc<str>),
    /// `{0}:{1}`: span `{1}` of gateway `{0}`.
    Id(Arc<str>, u64),
    Owned(String),
}

impl SpanText {
    /// `{words[0]}{shared}{words[1]}`, put together only when read.
    pub fn around(words: &'static [&'static str; 2], shared: &Arc<str>) -> SpanText {
        SpanText(Text::Around(words, Arc::clone(shared)))
    }

    /// True when the text reads `s`; nothing is rendered.
    fn is(&self, s: &str) -> bool {
        match &self.0 {
            Text::Static(t) => *t == s,
            Text::Shared(t) => **t == *s,
            Text::Owned(t) => t == s,
            Text::Around([before, after], shared) => s
                .strip_prefix(before)
                .and_then(|rest| rest.strip_suffix(after))
                .is_some_and(|middle| middle == &**shared),
            Text::Id(gateway, n) => minted_id(gateway, s) == Some(*n),
        }
    }
}

impl fmt::Display for SpanText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Text::Static(t) => f.write_str(t),
            Text::Shared(t) => f.write_str(t),
            Text::Owned(t) => f.write_str(t),
            Text::Around([before, after], shared) => {
                f.write_str(before)?;
                f.write_str(shared)?;
                f.write_str(after)
            }
            Text::Id(gateway, n) => write!(f, "{gateway}:{n}"),
        }
    }
}

impl From<&'static str> for SpanText {
    fn from(s: &'static str) -> SpanText {
        SpanText(Text::Static(s))
    }
}

impl From<String> for SpanText {
    fn from(s: String) -> SpanText {
        SpanText(Text::Owned(s))
    }
}

impl From<Arc<str>> for SpanText {
    fn from(s: Arc<str>) -> SpanText {
        SpanText(Text::Shared(s))
    }
}

impl From<&Arc<str>> for SpanText {
    fn from(s: &Arc<str>) -> SpanText {
        SpanText(Text::Shared(Arc::clone(s)))
    }
}

/// What a span is called ([`TraceRecord::request`]): any text, copied,
/// or a [`SpanText`] that shares it.
pub trait SpanLabel {
    /// The label as the span keeps it.
    fn into_label(self) -> SpanText;
}

impl SpanLabel for &str {
    fn into_label(self) -> SpanText {
        SpanText(Text::Owned(self.to_owned()))
    }
}

impl SpanLabel for String {
    fn into_label(self) -> SpanText {
        SpanText(Text::Owned(self))
    }
}

impl SpanLabel for SpanText {
    fn into_label(self) -> SpanText {
        self
    }
}

/// `n` when `span_id` is `{gateway}:{n}` with `n` in canonical decimal:
/// the form [`GatewayTelemetry`] mints span ids in.
fn minted_id(gateway: &str, span_id: &str) -> Option<u64> {
    let digits = span_id.strip_prefix(gateway)?.strip_prefix(':')?;
    let canonical = !digits.is_empty()
        && digits.bytes().all(|b| b.is_ascii_digit())
        && (digits == "0" || !digits.starts_with('0'));
    canonical.then(|| digits.parse().ok()).flatten()
}

/// One timestamped stage inside a trace (`resolve`, `connect`, …).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpanStage {
    /// Stage name: a [`Stage::as_str`].
    pub stage: String,
    /// Virtual time when the stage was recorded.
    pub at_ms: u64,
    /// Optional low-cardinality detail (driver name, cache outcome).
    pub detail: Option<String>,
}

/// A completed (or in-flight) span of a trace tree.
///
/// The span-identity fields default to empty so records serialised
/// before the hierarchical upgrade still deserialise.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Monotonic numeric id, unique per gateway telemetry instance
    /// (kept for ordering and slow-log tie-breaks).
    pub id: u64,
    /// The trace tree this span belongs to (equals the root's
    /// `span_id`).
    #[serde(default)]
    pub trace_id: String,
    /// Globally unique span id (`{gateway}:{n}`).
    #[serde(default)]
    pub span_id: String,
    /// The parent span, `None` for a root.
    #[serde(default)]
    pub parent_span_id: Option<String>,
    /// Grid site of the gateway that recorded this span.
    #[serde(default)]
    pub site: String,
    /// What is being traced (request label or SQL summary).
    pub request: String,
    /// The source URL the request resolved against, when known.
    pub source: Option<String>,
    /// Virtual start time.
    pub started_ms: u64,
    /// Virtual end time (equals `started_ms` until finished).
    pub finished_ms: u64,
    /// Outcome: `ok`, `error`, or `pending`.
    pub outcome: String,
    /// Ordered stages with monotonic timestamps.
    pub stages: Vec<SpanStage>,
    /// Inclusive cost: this span's direct charges plus everything its
    /// finished children rolled up into it. Defaults to zero so spans
    /// serialised before the cost-accounting upgrade (and wire messages
    /// from pre-cost peers) still deserialise.
    #[serde(default)]
    pub cost: CostVector,
}

impl TraceRecord {
    /// Total virtual duration.
    pub fn duration_ms(&self) -> u64 {
        self.finished_ms.saturating_sub(self.started_ms)
    }
}

/// The portable identity of an in-flight span: everything a child —
/// possibly on another gateway — needs to attach itself to the tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// The trace tree.
    pub trace_id: String,
    /// The span that children created under this context hang off.
    pub parent_span_id: String,
}

/// A stage as a span keeps it.
#[derive(Debug)]
struct StageMark {
    stage: SpanText,
    at_ms: u64,
    detail: Option<SpanText>,
}

/// A span as the hub keeps it: [`TraceRecord`]'s fields, with each
/// text in the form [`SpanText`] holds it. Readers get the record it
/// renders, or borrow the span itself through [`TraceBuffer::visit`].
/// Never cloned: it moves from its builder into the ring.
#[derive(Debug)]
pub struct Span {
    id: u64,
    trace_id: SpanText,
    span_id: SpanText,
    parent_span_id: Option<SpanText>,
    site: SpanText,
    request: SpanText,
    source: Option<SpanText>,
    started_ms: u64,
    finished_ms: u64,
    outcome: SpanText,
    stages: Vec<StageMark>,
    cost: CostVector,
}

impl Span {
    /// See [`TraceRecord::id`].
    pub fn id(&self) -> u64 {
        self.id
    }

    /// See [`TraceRecord::trace_id`].
    pub fn trace_id(&self) -> &SpanText {
        &self.trace_id
    }

    /// See [`TraceRecord::span_id`].
    pub fn span_id(&self) -> &SpanText {
        &self.span_id
    }

    /// See [`TraceRecord::parent_span_id`].
    pub fn parent_span_id(&self) -> Option<&SpanText> {
        self.parent_span_id.as_ref()
    }

    /// See [`TraceRecord::site`].
    pub fn site(&self) -> &SpanText {
        &self.site
    }

    /// See [`TraceRecord::request`].
    pub fn request(&self) -> &SpanText {
        &self.request
    }

    /// See [`TraceRecord::source`].
    pub fn source(&self) -> Option<&SpanText> {
        self.source.as_ref()
    }

    /// See [`TraceRecord::started_ms`].
    pub fn started_ms(&self) -> u64 {
        self.started_ms
    }

    /// See [`TraceRecord::finished_ms`].
    pub fn finished_ms(&self) -> u64 {
        self.finished_ms
    }

    /// See [`TraceRecord::outcome`].
    pub fn outcome(&self) -> &SpanText {
        &self.outcome
    }

    /// See [`TraceRecord::cost`].
    pub fn cost(&self) -> &CostVector {
        &self.cost
    }

    /// [`TraceRecord::stages`] as `(stage, at_ms, detail)`.
    pub fn stages(&self) -> impl Iterator<Item = (&SpanText, u64, Option<&SpanText>)> {
        self.stages
            .iter()
            .map(|m| (&m.stage, m.at_ms, m.detail.as_ref()))
    }

    /// Total virtual duration.
    pub fn duration_ms(&self) -> u64 {
        self.finished_ms.saturating_sub(self.started_ms)
    }

    fn render(&self) -> TraceRecord {
        TraceRecord {
            id: self.id,
            trace_id: self.trace_id.to_string(),
            span_id: self.span_id.to_string(),
            parent_span_id: self.parent_span_id.as_ref().map(ToString::to_string),
            site: self.site.to_string(),
            request: self.request.to_string(),
            source: self.source.as_ref().map(ToString::to_string),
            started_ms: self.started_ms,
            finished_ms: self.finished_ms,
            outcome: self.outcome.to_string(),
            stages: self
                .stages
                .iter()
                .map(|m| SpanStage {
                    stage: m.stage.to_string(),
                    at_ms: m.at_ms,
                    detail: m.detail.as_ref().map(ToString::to_string),
                })
                .collect(),
            cost: self.cost,
        }
    }

    /// A record made elsewhere, its strings kept as they are.
    fn from_record(record: TraceRecord) -> Span {
        let own = |s: String| SpanText(Text::Owned(s));
        Span {
            id: record.id,
            trace_id: own(record.trace_id),
            span_id: own(record.span_id),
            parent_span_id: record.parent_span_id.map(own),
            site: own(record.site),
            request: own(record.request),
            source: record.source.map(own),
            started_ms: record.started_ms,
            finished_ms: record.finished_ms,
            outcome: own(record.outcome),
            stages: record
                .stages
                .into_iter()
                .map(|s| StageMark {
                    stage: own(s.stage),
                    at_ms: s.at_ms,
                    detail: s.detail.map(own),
                })
                .collect(),
            cost: record.cost,
        }
    }
}

/// Where a new span hangs.
#[derive(Clone)]
pub(crate) struct Parent {
    pub(crate) trace_id: Arc<str>,
    span_id: SpanText,
    /// The parent's numeric id when it was minted on this hub: only
    /// such a parent finishes here and takes the cost its children park.
    local: Option<u64>,
}

/// An in-flight span; records stages against the shared clock and
/// commits into the ring buffer when finished.
pub struct SpanBuilder {
    span: Span,
    /// The trace id, shared by every span of the tree built here.
    trace_id: Arc<str>,
    /// See [`Parent::local`].
    local_parent: Option<u64>,
    hub: GatewayTelemetry,
}

impl SpanBuilder {
    /// Record a stage now.
    pub fn stage(&mut self, stage: impl StageName) {
        self.mark(stage, None);
    }

    /// Record a stage now, with a low-cardinality detail.
    pub fn stage_with(&mut self, stage: impl StageName, detail: impl Into<SpanText>) {
        self.mark(stage, Some(detail.into()));
    }

    fn mark(&mut self, stage: impl StageName, detail: Option<SpanText>) {
        self.span.stages.push(StageMark {
            stage: stage.span_text(),
            at_ms: self.hub.clock.now_millis(),
            detail,
        });
    }

    /// Note which source the request resolved to.
    pub fn source(&mut self, url: impl Into<SpanText>) {
        self.span.source = Some(url.into());
    }

    /// Charge a *direct* cost against this span: accumulated into the
    /// span's cost vector and counted into the gateway-wide
    /// `gridrm_cost_*` counters.
    pub fn add_cost(&mut self, v: &CostVector) {
        self.hub.costs.count(v);
        self.span.cost.add(v);
    }

    /// Absorb an already-counted cost into this span's vector without
    /// touching the counters — used for costs imported from remote
    /// spans (counted on the remote gateway) so nothing is double
    /// counted while the span tree still sums correctly.
    pub fn absorb_cost(&mut self, v: &CostVector) {
        self.span.cost.add(v);
    }

    /// The cost accumulated on this span so far (children not yet
    /// merged — that happens at finish).
    pub fn cost(&self) -> &CostVector {
        &self.span.cost
    }

    /// The numeric id assigned to this span.
    pub fn id(&self) -> u64 {
        self.span.id
    }

    /// The trace tree this span belongs to.
    pub fn trace_id(&self) -> &str {
        &self.trace_id
    }

    /// The context under which children of this span are created, in
    /// the portable form that crosses to other gateways.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id.to_string(),
            parent_span_id: self.span.span_id.to_string(),
        }
    }

    /// The hub this span commits to.
    pub(crate) fn hub(&self) -> &GatewayTelemetry {
        &self.hub
    }

    /// This span as the parent of spans started under it.
    pub(crate) fn as_parent(&self) -> Parent {
        Parent {
            trace_id: Arc::clone(&self.trace_id),
            span_id: self.span.span_id.clone(),
            local: Some(self.span.id),
        }
    }

    /// Start a child span of this one (on the same telemetry hub).
    pub fn child(&self, request: impl SpanLabel) -> SpanBuilder {
        self.hub.span_under(self.as_parent(), request)
    }

    /// Finish with an outcome, commit to the ring buffer, and offer the
    /// completed trace to the slow-query log.
    pub fn finish(self, outcome: impl Into<SpanText>) {
        let now = self.hub.clock.now_millis();
        self.finish_at(outcome, now);
    }

    /// Finish with an explicit virtual end time instead of "now".
    ///
    /// The parallel fan-out scheduler executes segments one after the
    /// other in deterministic order but models them as concurrent: each
    /// segment span ends at `start + virtual_cost`, so overlapping
    /// segments render with overlapping time offsets in `EXPLAIN
    /// ANALYZE` even though the clock only advances once, by the
    /// slowest segment's cost. `finished_ms` is clamped to be no
    /// earlier than `started_ms`.
    pub fn finish_at(self, outcome: impl Into<SpanText>, finished_ms: u64) {
        let SpanBuilder {
            mut span,
            local_parent,
            hub,
            ..
        } = self;
        span.finished_ms = finished_ms.max(span.started_ms);
        span.outcome = outcome.into();
        // Merge whatever finished children parked under this span, then
        // credit the inclusive total to a parent that finishes here, or
        // — at a root — commit the whole bill to the ledger. A parent on
        // another gateway is credited there, from the span shipped back
        // with the reply, so nothing is parked for it.
        let rolled = hub.costs.take_pending(span.id);
        span.cost.add(&rolled);
        match (&span.parent_span_id, local_parent) {
            (Some(_), Some(parent)) => hub.costs.roll_up(parent, &span.cost),
            (Some(_), None) => {}
            (None, _) => {
                let over_budget = hub.costs.note_root(
                    RootBill {
                        trace_id: span.trace_id.clone(),
                        site: span.site.clone(),
                        request: span.request.clone(),
                        started_ms: span.started_ms,
                        finished_ms: span.finished_ms,
                        cost: span.cost,
                    },
                    span.source.as_ref(),
                );
                if over_budget {
                    span.stages.push(StageMark {
                        stage: SpanText::from(Stage::Cost.as_str()),
                        at_ms: span.finished_ms,
                        detail: Some(SpanText::from("over_budget")),
                    });
                }
            }
        }
        hub.slow_queries
            .offer_with(span.id, span.duration_ms(), || span.render());
        hub.traces.push_span(span);
    }
}

struct RingState {
    ring: VecDeque<Span>,
    /// Spans ever pushed: the front of the ring is push number
    /// `pushed - ring.len()`.
    pushed: u64,
    /// `(push number, duration)` of the slowest retained span, newest
    /// on a tie, so `slowest()` renders one span instead of scanning.
    /// Re-derived only when that span itself is evicted.
    slowest: Option<(u64, u64)>,
}

impl RingState {
    fn front_push(&self) -> u64 {
        self.pushed - self.ring.len() as u64
    }
}

/// Bounded ring buffer of recent traces: oldest evicted first.
pub struct TraceBuffer {
    capacity: usize,
    state: Mutex<RingState>,
    /// Evictions, exposed as `gridrm_trace_drops_total` so loss of
    /// observability data is itself observable.
    drops: Counter,
}

impl TraceBuffer {
    /// Buffer keeping at most `capacity` traces (capacity >= 1), its
    /// counter created in `registry`.
    pub fn new(capacity: usize, registry: &Registry) -> TraceBuffer {
        assert!(capacity > 0, "trace buffer capacity must be positive");
        TraceBuffer {
            capacity,
            state: Mutex::new(RingState {
                ring: VecDeque::with_capacity(capacity),
                pushed: 0,
                slowest: None,
            }),
            drops: registry.counter(
                "gridrm_trace_drops_total",
                "Trace spans evicted from the bounded ring buffer before being read",
                Labels::none(),
            ),
        }
    }

    /// Append, evicting the oldest trace on overflow.
    pub fn push(&self, record: TraceRecord) {
        self.push_span(Span::from_record(record));
    }

    fn push_span(&self, span: Span) {
        let mut state = self.state.lock();
        if state.ring.len() == self.capacity {
            let evicted = state.front_push();
            state.ring.pop_front();
            self.drops.inc();
            if state.slowest.is_some_and(|(at, _)| at == evicted) {
                // The slowest span left the ring: rescan what remains.
                // Ties resolve to the newest, matching the old full scan.
                let front = state.front_push();
                state.slowest = state
                    .ring
                    .iter()
                    .zip(front..)
                    .max_by_key(|(s, _)| s.duration_ms())
                    .map(|(s, at)| (at, s.duration_ms()));
            }
        }
        let duration = span.duration_ms();
        if state.slowest.is_none_or(|(_, slowest)| duration >= slowest) {
            state.slowest = Some((state.pushed, duration));
        }
        state.ring.push_back(span);
        state.pushed += 1;
    }

    /// Retained traces, oldest first.
    pub fn recent(&self) -> Vec<TraceRecord> {
        self.state.lock().ring.iter().map(Span::render).collect()
    }

    /// Lend each retained span, oldest first, rendering nothing. `f`
    /// runs under the ring's lock, so it must take no other lock.
    pub fn visit(&self, f: impl FnMut(&Span)) {
        self.state.lock().ring.iter().for_each(f);
    }

    /// Retained spans belonging to one trace tree, oldest first.
    pub fn for_trace(&self, trace_id: &str) -> Vec<TraceRecord> {
        self.state
            .lock()
            .ring
            .iter()
            .filter(|s| s.trace_id.is(trace_id))
            .map(Span::render)
            .collect()
    }

    /// The slowest retained trace by virtual duration, the newest of
    /// equals. Found when pushed; rendered here.
    pub fn slowest(&self) -> Option<TraceRecord> {
        let state = self.state.lock();
        let (at, _) = state.slowest?;
        let index = usize::try_from(at - state.front_push()).ok()?;
        state.ring.get(index).map(Span::render)
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.state.lock().ring.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.state.lock().ring.is_empty()
    }

    /// Maximum number of retained traces.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Shared counter of traces evicted before being read.
    pub fn drops(&self) -> &Counter {
        &self.drops
    }
}

/// Default number of traces retained per gateway.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// Capacities and thresholds for the telemetry hub's bounded stores.
#[derive(Debug, Clone)]
pub struct TelemetryCapacities {
    /// Trace ring size.
    pub traces: usize,
    /// Structured journal ring size.
    pub journal: usize,
    /// Slow-query log top-K size.
    pub slow_queries: usize,
    /// Slow-query threshold in virtual milliseconds (0 disables).
    pub slow_query_threshold_ms: u64,
}

impl Default for TelemetryCapacities {
    fn default() -> TelemetryCapacities {
        TelemetryCapacities {
            traces: DEFAULT_TRACE_CAPACITY,
            journal: DEFAULT_JOURNAL_CAPACITY,
            slow_queries: DEFAULT_SLOW_QUERY_CAPACITY,
            slow_query_threshold_ms: DEFAULT_SLOW_QUERY_THRESHOLD_MS,
        }
    }
}

struct TelemetryIdentity {
    site: Arc<str>,
    gateway: Arc<str>,
}

/// The per-gateway telemetry hub: one registry, one trace ring, one
/// journal, one slow-query log, one clock. Cheap to clone (`Arc`
/// inside) and share across subsystems.
#[derive(Clone)]
pub struct GatewayTelemetry {
    registry: Arc<Registry>,
    traces: Arc<TraceBuffer>,
    journal: Arc<Journal>,
    slow_queries: Arc<SlowQueryLog>,
    timeseries: Arc<TimeSeriesRecorder>,
    slo: Arc<SloEngine>,
    costs: Arc<CostLedger>,
    clock: Arc<SimClock>,
    next_trace_id: Arc<AtomicU64>,
    identity: Arc<RwLock<TelemetryIdentity>>,
}

impl GatewayTelemetry {
    /// Telemetry hub over the gateway's clock, default capacities.
    pub fn new(clock: Arc<SimClock>) -> GatewayTelemetry {
        GatewayTelemetry::with_capacities(clock, TelemetryCapacities::default())
    }

    /// Telemetry hub with an explicit trace-ring capacity.
    pub fn with_capacity(clock: Arc<SimClock>, trace_capacity: usize) -> GatewayTelemetry {
        GatewayTelemetry::with_capacities(
            clock,
            TelemetryCapacities {
                traces: trace_capacity,
                ..TelemetryCapacities::default()
            },
        )
    }

    /// Telemetry hub with explicit capacities for every bounded store.
    /// Each store creates its counters in the hub's registry, so a bare
    /// hub exposes the same families a gateway's does.
    pub fn with_capacities(clock: Arc<SimClock>, caps: TelemetryCapacities) -> GatewayTelemetry {
        let registry = Arc::new(Registry::new());
        let journal = Arc::new(Journal::new(caps.journal, &registry));
        GatewayTelemetry {
            traces: Arc::new(TraceBuffer::new(caps.traces, &registry)),
            slow_queries: Arc::new(SlowQueryLog::new(
                caps.slow_query_threshold_ms,
                caps.slow_queries,
                &registry,
            )),
            timeseries: Arc::new(TimeSeriesRecorder::new(&registry)),
            slo: Arc::new(SloEngine::new(registry.clone(), journal.clone())),
            costs: Arc::new(CostLedger::new(clock.clone(), journal.clone(), &registry)),
            registry,
            journal,
            clock,
            next_trace_id: Arc::new(AtomicU64::new(1)),
            identity: Arc::new(RwLock::new(TelemetryIdentity {
                site: Arc::from("local"),
                gateway: Arc::from("local"),
            })),
        }
    }

    /// Set the Grid identity stamped onto spans: the site name and the
    /// gateway name (which prefixes span ids so they stay globally
    /// unique across a multi-gateway trace).
    pub fn set_identity(&self, site: &str, gateway: &str) {
        *self.identity.write() = TelemetryIdentity {
            site: Arc::from(site),
            gateway: Arc::from(gateway),
        };
    }

    /// The site name spans are stamped with.
    pub fn site(&self) -> String {
        self.identity.read().site.to_string()
    }

    /// The shared metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The trace ring buffer.
    pub fn traces(&self) -> &TraceBuffer {
        &self.traces
    }

    /// The structured event journal.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// The slow-query log.
    pub fn slow_queries(&self) -> &Arc<SlowQueryLog> {
        &self.slow_queries
    }

    /// The metrics time-series recorder (history ring buffers).
    pub fn timeseries(&self) -> &Arc<TimeSeriesRecorder> {
        &self.timeseries
    }

    /// The SLO burn-rate engine.
    pub fn slo(&self) -> &Arc<SloEngine> {
        &self.slo
    }

    /// The cost accounting ledger.
    pub fn costs(&self) -> &Arc<CostLedger> {
        &self.costs
    }

    /// The clock stamping trace stages.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    fn build_span(&self, parent: Option<Parent>, request: SpanText) -> SpanBuilder {
        let now = self.clock.now_millis();
        let (site, gateway) = {
            let identity = self.identity.read();
            (Arc::clone(&identity.site), Arc::clone(&identity.gateway))
        };
        let id = self.next_trace_id.fetch_add(1, Ordering::Relaxed);
        let (trace_id, span_id, parent_span_id, local_parent) = match parent {
            Some(p) => (
                p.trace_id,
                SpanText(Text::Id(gateway, id)),
                Some(p.span_id),
                p.local,
            ),
            None => {
                let root: Arc<str> = Arc::from(format!("{gateway}:{id}"));
                (Arc::clone(&root), SpanText::from(root), None, None)
            }
        };
        SpanBuilder {
            span: Span {
                id,
                trace_id: SpanText::from(&trace_id),
                span_id,
                parent_span_id,
                site: SpanText::from(site),
                request,
                source: None,
                started_ms: now,
                finished_ms: now,
                outcome: SpanText::from("pending"),
                stages: Vec::new(),
                cost: CostVector::default(),
            },
            trace_id,
            local_parent,
            hub: self.clone(),
        }
    }

    /// Start a root span for one request.
    pub fn span(&self, request: impl SpanLabel) -> SpanBuilder {
        self.build_span(None, request.into_label())
    }

    /// Start a span as a child of an existing context (possibly one
    /// that originated on another gateway).
    pub fn span_in(&self, ctx: &TraceContext, request: impl SpanLabel) -> SpanBuilder {
        let gateway = Arc::clone(&self.identity.read().gateway);
        let local = self.minted_here(&gateway, &ctx.parent_span_id);
        let parent = Parent {
            trace_id: Arc::from(ctx.trace_id.as_str()),
            span_id: match local {
                Some(n) => SpanText(Text::Id(gateway, n)),
                None => SpanText::from(ctx.parent_span_id.clone()),
            },
            local,
        };
        self.build_span(Some(parent), request.into_label())
    }

    /// Start a span under `parent`.
    pub(crate) fn span_under(&self, parent: Parent, request: impl SpanLabel) -> SpanBuilder {
        self.build_span(Some(parent), request.into_label())
    }

    /// The numeric id of `span_id` when this hub minted it.
    fn minted_here(&self, gateway: &str, span_id: &str) -> Option<u64> {
        minted_id(gateway, span_id).filter(|n| *n < self.next_trace_id.load(Ordering::Relaxed))
    }

    /// Import a finished span produced elsewhere (a remote gateway's
    /// half of a distributed trace) into the local ring buffer. The
    /// record is not re-offered to the slow-query log.
    pub fn import_span(&self, record: TraceRecord) {
        self.traces.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, started: u64, finished: u64) -> TraceRecord {
        TraceRecord {
            id,
            trace_id: format!("gw:{id}"),
            span_id: format!("gw:{id}"),
            request: format!("req-{id}"),
            started_ms: started,
            finished_ms: finished,
            outcome: "ok".into(),
            ..TraceRecord::default()
        }
    }

    #[test]
    fn span_text_reads_as_what_it_renders() {
        let driver: Arc<str> = Arc::from("jdbc-snmp");
        let gateway: Arc<str> = Arc::from("gw-a");
        let texts = [
            SpanText::from("ok"),
            SpanText::from("owned".to_owned()),
            SpanText::from(&driver),
            SpanText::around(&["hit ", ""], &driver),
            SpanText::around(&["", " via cache"], &driver),
            SpanText(Text::Id(Arc::clone(&gateway), 0)),
            SpanText(Text::Id(gateway, 42)),
        ];
        let near_misses = [
            "",
            "ok ",
            "hit jdbc-snm",
            "jdbc-snmp via cach",
            "gw-a:042",
            "gw-a:+42",
            "gw-a:4",
            "gw-a42",
            "gw-a:00",
        ];
        for text in &texts {
            let rendered = text.to_string();
            assert!(text.is(&rendered), "{text:?} is not `{rendered}`");
            for other in near_misses.iter().filter(|o| **o != rendered) {
                assert!(!text.is(other), "{text:?} claims to be `{other}`");
            }
        }
    }

    #[test]
    fn only_canonical_ids_of_this_gateway_count_as_minted_here() {
        assert_eq!(minted_id("gw-a", "gw-a:7"), Some(7));
        assert_eq!(minted_id("gw-a", "gw-a:0"), Some(0));
        for other in [
            "gw-a:07", "gw-a:+7", "gw-a:", "gw-ab:7", "gw-b:7", "gw-a7", "gw-a:7x",
        ] {
            assert_eq!(minted_id("gw-a", other), None, "{other}");
        }
    }

    #[test]
    fn ring_evicts_oldest_under_wraparound() {
        let buf = TraceBuffer::new(3, &Registry::new());
        for id in 1..=7 {
            buf.push(record(id, 0, id));
        }
        let kept: Vec<u64> = buf.recent().iter().map(|t| t.id).collect();
        assert_eq!(kept, vec![5, 6, 7]); // oldest-first, newest retained
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.capacity(), 3);
        // 7 pushed into a ring of 3: four evictions, all counted.
        assert_eq!(buf.drops().get(), 4);
        // One more full cycle keeps eviction order stable.
        for id in 8..=10 {
            buf.push(record(id, 0, id));
        }
        let kept: Vec<u64> = buf.recent().iter().map(|t| t.id).collect();
        assert_eq!(kept, vec![8, 9, 10]);
    }

    #[test]
    fn span_records_monotonic_stages() {
        let clock = SimClock::new();
        let telemetry = GatewayTelemetry::new(Arc::clone(&clock));
        let mut span = telemetry.span("SELECT * FROM host");
        span.stage(Stage::Resolve);
        clock.advance(5);
        span.stage_with(Stage::Connect, "ganglia");
        clock.advance(3);
        span.stage(Stage::Execute);
        span.source("h0:xml");
        span.finish("ok");

        let traces = telemetry.traces().recent();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.outcome, "ok");
        assert_eq!(t.source.as_deref(), Some("h0:xml"));
        assert_eq!(t.duration_ms(), 8);
        let stages: Vec<&str> = t.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(stages, vec!["resolve", "connect", "execute"]);
        assert!(t.stages.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        assert_eq!(t.stages[1].detail.as_deref(), Some("ganglia"));
        // A root span is its own trace.
        assert_eq!(t.trace_id, t.span_id);
        assert!(t.parent_span_id.is_none());
    }

    #[test]
    fn slowest_picks_longest_duration() {
        let buf = TraceBuffer::new(8, &Registry::new());
        buf.push(record(1, 0, 10));
        buf.push(record(2, 0, 50));
        buf.push(record(3, 0, 20));
        assert_eq!(buf.slowest().unwrap().id, 2);
    }

    #[test]
    fn slowest_cache_survives_eviction_of_maximum() {
        let buf = TraceBuffer::new(3, &Registry::new());
        buf.push(record(1, 0, 50)); // the maximum
        buf.push(record(2, 0, 10));
        buf.push(record(3, 0, 30));
        assert_eq!(buf.slowest().unwrap().id, 1);
        // Pushing a 4th evicts #1 (the cached maximum): the cache must
        // re-derive from what remains, not keep a stale answer.
        buf.push(record(4, 0, 20));
        assert_eq!(buf.slowest().unwrap().id, 3);
        // Ties go to the newest, matching the previous full-scan behaviour.
        buf.push(record(5, 0, 30));
        assert_eq!(buf.slowest().unwrap().id, 5);
    }

    #[test]
    fn trace_serializes_to_json() {
        let t = record(9, 1, 4);
        let json = serde_json::to_string(&t).unwrap();
        let back: TraceRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn legacy_json_without_span_fields_still_deserializes() {
        let json = r#"{"id":3,"request":"q","source":null,"started_ms":0,
                       "finished_ms":2,"outcome":"ok","stages":[]}"#;
        let back: TraceRecord = serde_json::from_str(json).unwrap();
        assert_eq!(back.id, 3);
        assert_eq!(back.trace_id, "");
        assert!(back.parent_span_id.is_none());
    }

    #[test]
    fn span_ids_are_unique() {
        let telemetry = GatewayTelemetry::new(SimClock::new());
        let a = telemetry.span("a").id();
        let b = telemetry.span("b").id();
        assert_ne!(a, b);
    }

    #[test]
    fn child_spans_share_the_trace() {
        let telemetry = GatewayTelemetry::new(SimClock::new());
        telemetry.set_identity("alpha", "gw-alpha");
        let root = telemetry.span("SELECT 1 FROM t");
        let child = root.child("resolve");
        let grandchild = child.child("driver");
        let (rc, cc) = (root.context(), child.context());
        assert_eq!(cc.trace_id, rc.trace_id);
        assert_eq!(grandchild.context().trace_id, rc.trace_id);
        grandchild.finish("ok");
        child.finish("ok");
        root.finish("ok");
        let spans = telemetry.traces().for_trace(&rc.trace_id);
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.site == "alpha"));
        assert!(spans.iter().all(|s| s.span_id.starts_with("gw-alpha:")));
        // Every parent resolves within the same trace.
        let ids: Vec<&str> = spans.iter().map(|s| s.span_id.as_str()).collect();
        for s in &spans {
            if let Some(p) = &s.parent_span_id {
                assert!(ids.contains(&p.as_str()), "dangling parent {p}");
            }
        }
    }

    #[test]
    fn child_costs_roll_up_to_the_root() {
        let telemetry = GatewayTelemetry::new(SimClock::new());
        telemetry.set_identity("alpha", "gw-a");
        let root = telemetry.span("SELECT 1 FROM t");
        let mut child_a = root.child("seg-a");
        let mut child_b = root.child("seg-b");
        let mut grandchild = child_a.child("driver");
        grandchild.add_cost(&CostVector {
            rows_scanned: 10,
            fetch_units: 1,
            ..CostVector::default()
        });
        grandchild.finish("ok");
        child_a.add_cost(&CostVector {
            msgs_out: 1,
            bytes_out: 100,
            ..CostVector::default()
        });
        child_a.finish("ok");
        child_b.add_cost(&CostVector {
            msgs_in: 1,
            bytes_in: 40,
            ..CostVector::default()
        });
        child_b.finish("ok");
        let trace_id = root.trace_id().to_owned();
        root.finish("ok");

        let spans = telemetry.traces().for_trace(&trace_id);
        let root_span = spans
            .iter()
            .find(|s| s.parent_span_id.is_none())
            .expect("root span");
        // Inclusive: the root had no direct charges, so its cost is
        // exactly the sum of its children's inclusive costs.
        let mut sum = CostVector::default();
        for s in spans
            .iter()
            .filter(|s| s.parent_span_id.as_deref() == Some(root_span.span_id.as_str()))
        {
            sum.add(&s.cost);
        }
        assert_eq!(root_span.cost, sum);
        assert_eq!(root_span.cost.rows_scanned, 10);
        assert_eq!(root_span.cost.bytes_out, 100);
        assert_eq!(root_span.cost.bytes_in, 40);
        assert_eq!(root_span.cost.total_msgs(), 2);
        // The root's bill landed in the ledger.
        let entries = telemetry.costs().entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].trace_id, trace_id);
        assert_eq!(entries[0].cost, root_span.cost);
        // Counters saw each direct charge exactly once.
        assert_eq!(telemetry.costs().totals().rows_scanned, 10);
        assert_eq!(telemetry.costs().totals().bytes_out, 100);
    }

    #[test]
    fn over_budget_root_gains_cost_stage_and_journal_entry() {
        let telemetry = GatewayTelemetry::new(SimClock::new());
        telemetry.costs().set_budget(50, 0);
        let mut root = telemetry.span("big query");
        root.add_cost(&CostVector {
            bytes_in: 500,
            ..CostVector::default()
        });
        let trace_id = root.trace_id().to_owned();
        root.finish("ok");
        let spans = telemetry.traces().for_trace(&trace_id);
        let stage = spans[0].stages.last().expect("cost stage");
        assert_eq!(stage.stage, "cost");
        assert_eq!(stage.detail.as_deref(), Some("over_budget"));
        let breaches = telemetry
            .journal()
            .recent_of_kind(crate::journal::KIND_COST_BUDGET);
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].trace_id.as_deref(), Some(&*trace_id));
        assert!(telemetry.costs().entries()[0].over_budget);
    }

    #[test]
    fn context_crosses_hubs_like_gateways() {
        let clock = SimClock::new();
        let a = GatewayTelemetry::new(clock.clone());
        a.set_identity("alpha", "gw-a");
        let b = GatewayTelemetry::new(clock);
        b.set_identity("beta", "gw-b");
        let root = a.span("global query");
        let ctx = root.context();
        let remote = b.span_in(&ctx, "remote half");
        assert_eq!(remote.trace_id(), root.trace_id());
        remote.finish("ok");
        // The remote half travels back and is imported locally.
        let remote_spans = b.traces().for_trace(root.trace_id());
        assert_eq!(remote_spans.len(), 1);
        assert_eq!(remote_spans[0].site, "beta");
        for s in remote_spans {
            a.import_span(s);
        }
        root.finish("ok");
        assert_eq!(a.traces().for_trace("gw-a:1").len(), 2);
    }
}
