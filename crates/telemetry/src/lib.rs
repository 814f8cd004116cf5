//! GridRM telemetry: metrics registry, query-path tracing, structured
//! event journal, slow-query log, exposition.

pub mod active;
pub mod cost;
pub mod journal;
pub mod metrics;
pub mod slo;
pub mod slowlog;
pub mod timeseries;
pub mod trace;

pub use cost::{
    CostLedger, CostVector, IntrusionBucket, IntrusionCause, IntrusionRow, QueryCostEntry,
    RootBill, DEFAULT_COST_ENTRIES, DEFAULT_COST_PENDING,
};
pub use journal::{
    Journal, JournalEntry, JournalSeverity, JournalStats, DEFAULT_JOURNAL_CAPACITY,
    KIND_CACHE_SERVE, KIND_COST_BUDGET, KIND_DRIVER_FALLBACK, KIND_EVENT, KIND_EVENT_OVERFLOW,
    KIND_EVENT_UNFORMATTED, KIND_HISTORY_DROP, KIND_POLICY_DECISION, KIND_PROBE, KIND_SLO,
    KIND_STATE_TRANSITION, KIND_STREAM,
};
pub use metrics::{
    Counter, Gauge, Histogram, Labels, MetricSnapshot, PointKind, Registry, Sample, SeriesPoint,
    DEFAULT_LATENCY_BUCKETS_MS,
};
pub use slo::{
    SloEngine, SloObjective, SloSpec, SloStats, SloStatus, SloTransition,
    DEFAULT_FAST_BURN_THRESHOLD, DEFAULT_FAST_WINDOW_MS, DEFAULT_SLOW_BURN_THRESHOLD,
    DEFAULT_SLOW_WINDOW_MS,
};
pub use slowlog::{SlowQueryLog, DEFAULT_SLOW_QUERY_CAPACITY, DEFAULT_SLOW_QUERY_THRESHOLD_MS};
pub use timeseries::{
    BucketStats, ColumnRing, HistoryRow, TimeSeriesRecorder, DEFAULT_TIMESERIES_CAPACITY,
    DEFAULT_TIMESERIES_INTERVAL_MS,
};
pub use trace::{
    GatewayTelemetry, Span, SpanBuilder, SpanLabel, SpanStage, SpanText, Stage, StageName,
    TelemetryCapacities, TraceBuffer, TraceContext, TraceRecord, DEFAULT_TRACE_CAPACITY,
};
