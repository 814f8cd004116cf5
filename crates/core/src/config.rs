//! Gateway policy & configuration (Fig 2's "Gateway Policy and Schemas").

use gridrm_telemetry::SloSpec;
use serde::{Deserialize, Serialize};

/// Static configuration of one gateway.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GatewayConfig {
    /// Gateway name (unique within the Grid).
    pub name: String,
    /// The Grid site this gateway manages.
    pub site: String,
    /// The gateway's own network address.
    pub address: String,
    /// Default cache TTL served to `Cached` queries, virtual ms (§4).
    pub cache_ttl_ms: u64,
    /// History retention window, virtual ms.
    pub history_retention_ms: u64,
    /// Event fast-buffer capacity (Fig 4).
    pub event_fast_capacity: usize,
    /// Max idle pooled connections per (source, driver) pair (§3.1.2).
    pub pool_max_idle: usize,
    /// Session time-to-live, virtual ms.
    pub session_ttl_ms: u64,
    /// Record harvested real-time results into history?
    pub record_history: bool,
    /// Virtual ms between active health probes of one source.
    #[serde(default = "defaults::probe_interval_ms")]
    pub probe_interval_ms: u64,
    /// A probe slower than this (virtual ms) counts as failed.
    #[serde(default = "defaults::probe_timeout_ms")]
    pub probe_timeout_ms: u64,
    /// Consecutive failures before a `Degraded` source becomes `Down`.
    #[serde(default = "defaults::health_down_after")]
    pub health_down_after: u32,
    /// Consecutive successes before a `Degraded`/`Down` source is `Up`.
    #[serde(default = "defaults::health_up_after")]
    pub health_up_after: u32,
    /// Requests at/above this virtual latency enter the slow-query log
    /// (0 disables the log).
    #[serde(default)]
    pub slow_query_threshold_ms: u64,
    /// Slow-query log size (top-K by end-to-end latency).
    #[serde(default = "defaults::slow_query_log_capacity")]
    pub slow_query_log_capacity: usize,
    /// Structured event-journal ring capacity.
    #[serde(default = "defaults::journal_capacity")]
    pub journal_capacity: usize,
    /// Dispatch global fan-out segments concurrently (virtual time
    /// advances by the slowest segment) instead of one after another
    /// (virtual time advances by the sum).
    #[serde(default = "defaults::fanout_parallel")]
    pub fanout_parallel: bool,
    /// Default per-request deadline budget, virtual ms, applied when a
    /// request does not set its own. 0 means no deadline.
    #[serde(default)]
    pub default_deadline_ms: u64,
    /// Virtual ms between samples of the metrics registry into the
    /// time-series recorder (driven by `pump`).
    #[serde(default = "defaults::timeseries_interval_ms")]
    pub timeseries_interval_ms: u64,
    /// Per-series ring capacity of the time-series recorder.
    #[serde(default = "defaults::timeseries_capacity")]
    pub timeseries_capacity: usize,
    /// Declared SLOs, evaluated by the burn-rate engine on every pump.
    #[serde(default)]
    pub slos: Vec<SloSpec>,
    /// Per-subscriber delta buffer capacity for continuous queries
    /// (`SELECT … EVERY n`); the backpressure policy decides what
    /// happens when a slow subscriber fills it.
    #[serde(default = "defaults::stream_buffer_capacity")]
    pub stream_buffer_capacity: usize,
    /// Default backpressure policy for subscribers that do not pick one.
    #[serde(default)]
    pub stream_backpressure: crate::stream::BackpressurePolicy,
    /// Floor for `EVERY` intervals, virtual ms: subscriptions asking
    /// for a faster cadence are clamped so a client cannot turn the
    /// pump into a busy loop.
    #[serde(default = "defaults::stream_min_every_ms")]
    pub stream_min_every_ms: u64,
    /// Hard cap on concurrently registered subscribers (bounded
    /// memory); further `subscribe` calls are refused. 0 disables the
    /// cap.
    #[serde(default = "defaults::stream_max_subscribers")]
    pub stream_max_subscribers: usize,
    /// Per-query cost budget in total wire bytes (in + out, whole span
    /// tree): a root whose bill exceeds it is journalled as
    /// `cost_budget` and marked over-budget. 0 disables.
    #[serde(default)]
    pub cost_budget_bytes: u64,
    /// Per-query cost budget in rows returned to the client. 0 disables.
    #[serde(default)]
    pub cost_budget_rows: u64,
}

/// Serde defaults so pre-health persisted configs keep loading.
mod defaults {
    pub fn probe_interval_ms() -> u64 {
        30_000
    }
    pub fn probe_timeout_ms() -> u64 {
        5_000
    }
    pub fn health_down_after() -> u32 {
        3
    }
    pub fn health_up_after() -> u32 {
        2
    }
    pub fn slow_query_log_capacity() -> usize {
        32
    }
    pub fn journal_capacity() -> usize {
        512
    }
    pub fn fanout_parallel() -> bool {
        true
    }
    pub fn timeseries_interval_ms() -> u64 {
        gridrm_telemetry::DEFAULT_TIMESERIES_INTERVAL_MS
    }
    pub fn timeseries_capacity() -> usize {
        gridrm_telemetry::DEFAULT_TIMESERIES_CAPACITY
    }
    pub fn stream_buffer_capacity() -> usize {
        64
    }
    pub fn stream_min_every_ms() -> u64 {
        10
    }
    pub fn stream_max_subscribers() -> usize {
        100_000
    }
}

impl GatewayConfig {
    /// Sensible defaults for a site gateway.
    pub fn new(name: &str, site: &str) -> GatewayConfig {
        GatewayConfig {
            name: name.to_owned(),
            site: site.to_owned(),
            address: format!("gw.{site}"),
            cache_ttl_ms: 10_000,
            history_retention_ms: 24 * 3_600_000,
            event_fast_capacity: 1024,
            pool_max_idle: 8,
            session_ttl_ms: 1_800_000,
            record_history: true,
            probe_interval_ms: defaults::probe_interval_ms(),
            probe_timeout_ms: defaults::probe_timeout_ms(),
            health_down_after: defaults::health_down_after(),
            health_up_after: defaults::health_up_after(),
            slow_query_threshold_ms: 0,
            slow_query_log_capacity: defaults::slow_query_log_capacity(),
            journal_capacity: defaults::journal_capacity(),
            fanout_parallel: defaults::fanout_parallel(),
            default_deadline_ms: 0,
            timeseries_interval_ms: defaults::timeseries_interval_ms(),
            timeseries_capacity: defaults::timeseries_capacity(),
            slos: Vec::new(),
            stream_buffer_capacity: defaults::stream_buffer_capacity(),
            stream_backpressure: crate::stream::BackpressurePolicy::default(),
            stream_min_every_ms: defaults::stream_min_every_ms(),
            stream_max_subscribers: defaults::stream_max_subscribers(),
            cost_budget_bytes: 0,
            cost_budget_rows: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = GatewayConfig::new("gw-a", "site-a");
        assert_eq!(c.address, "gw.site-a");
        assert!(c.record_history);
        assert!(c.cache_ttl_ms > 0);
    }

    #[test]
    fn serde_roundtrip() {
        let c = GatewayConfig::new("gw-a", "site-a");
        let json = serde_json::to_string(&c).unwrap();
        let back: GatewayConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, c.name);
        assert_eq!(back.pool_max_idle, c.pool_max_idle);
        assert_eq!(back.probe_interval_ms, c.probe_interval_ms);
        assert_eq!(back.health_down_after, c.health_down_after);
    }

    #[test]
    fn pre_health_config_loads_with_defaults() {
        // A config persisted before the health subsystem existed must
        // still deserialise, picking up the new defaults.
        let json = r#"{
            "name": "gw-old", "site": "s", "address": "gw.s",
            "cache_ttl_ms": 10000, "history_retention_ms": 86400000,
            "event_fast_capacity": 1024, "pool_max_idle": 8,
            "session_ttl_ms": 1800000, "record_history": true
        }"#;
        let c: GatewayConfig = serde_json::from_str(json).unwrap();
        assert_eq!(c.probe_interval_ms, 30_000);
        assert_eq!(c.health_down_after, 3);
        assert_eq!(c.health_up_after, 2);
        assert_eq!(c.slow_query_threshold_ms, 0);
        assert_eq!(c.journal_capacity, 512);
    }

    #[test]
    fn pre_fanout_config_loads_with_defaults() {
        // A config persisted before the parallel fan-out engine existed
        // must still deserialise, with parallelism on and no default
        // deadline.
        let json = r#"{
            "name": "gw-old", "site": "s", "address": "gw.s",
            "cache_ttl_ms": 10000, "history_retention_ms": 86400000,
            "event_fast_capacity": 1024, "pool_max_idle": 8,
            "session_ttl_ms": 1800000, "record_history": true
        }"#;
        let c: GatewayConfig = serde_json::from_str(json).unwrap();
        assert!(c.fanout_parallel);
        assert_eq!(c.default_deadline_ms, 0);

        // Single-flight coalescing is always on now; a config that still
        // carries the retired `coalesce_identical` switch loads anyway.
        let json = r#"{
            "name": "gw-old", "site": "s", "address": "gw.s",
            "cache_ttl_ms": 10000, "history_retention_ms": 86400000,
            "event_fast_capacity": 1024, "pool_max_idle": 8,
            "session_ttl_ms": 1800000, "record_history": true,
            "fanout_parallel": true, "coalesce_identical": false
        }"#;
        let c: GatewayConfig = serde_json::from_str(json).unwrap();
        assert!(c.fanout_parallel);
        assert_eq!(c.name, "gw-old");
    }

    #[test]
    fn pre_slo_config_loads_with_defaults() {
        // A config persisted before the time-series/SLO layer existed
        // must still deserialise: default recorder knobs, no SLOs.
        let json = r#"{
            "name": "gw-old", "site": "s", "address": "gw.s",
            "cache_ttl_ms": 10000, "history_retention_ms": 86400000,
            "event_fast_capacity": 1024, "pool_max_idle": 8,
            "session_ttl_ms": 1800000, "record_history": true
        }"#;
        let c: GatewayConfig = serde_json::from_str(json).unwrap();
        assert_eq!(
            c.timeseries_interval_ms,
            gridrm_telemetry::DEFAULT_TIMESERIES_INTERVAL_MS
        );
        assert_eq!(
            c.timeseries_capacity,
            gridrm_telemetry::DEFAULT_TIMESERIES_CAPACITY
        );
        assert!(c.slos.is_empty());
    }

    #[test]
    fn pre_stream_config_loads_with_defaults() {
        // A config persisted before the continuous-query plane existed
        // must still deserialise: bounded buffers, DropOldest, clamped
        // cadence, capped subscriber count.
        let json = r#"{
            "name": "gw-old", "site": "s", "address": "gw.s",
            "cache_ttl_ms": 10000, "history_retention_ms": 86400000,
            "event_fast_capacity": 1024, "pool_max_idle": 8,
            "session_ttl_ms": 1800000, "record_history": true
        }"#;
        let c: GatewayConfig = serde_json::from_str(json).unwrap();
        assert_eq!(c.stream_buffer_capacity, 64);
        assert_eq!(
            c.stream_backpressure,
            crate::stream::BackpressurePolicy::DropOldest
        );
        assert_eq!(c.stream_min_every_ms, 10);
        assert_eq!(c.stream_max_subscribers, 100_000);
    }

    #[test]
    fn pre_cost_config_loads_with_defaults() {
        // A config persisted before the cost accounting plane existed
        // must still deserialise, with both budget dimensions disabled.
        let json = r#"{
            "name": "gw-old", "site": "s", "address": "gw.s",
            "cache_ttl_ms": 10000, "history_retention_ms": 86400000,
            "event_fast_capacity": 1024, "pool_max_idle": 8,
            "session_ttl_ms": 1800000, "record_history": true
        }"#;
        let c: GatewayConfig = serde_json::from_str(json).unwrap();
        assert_eq!(c.cost_budget_bytes, 0);
        assert_eq!(c.cost_budget_rows, 0);
    }

    #[test]
    fn slo_specs_roundtrip_through_config() {
        use gridrm_telemetry::slo::SloObjective;
        let mut c = GatewayConfig::new("gw-a", "site-a");
        c.slos.push(SloSpec::new(
            "latency-100ms",
            SloObjective::Latency {
                metric: "gridrm_request_latency_ms".to_owned(),
                threshold_ms: 100.0,
            },
            0.99,
        ));
        let json = serde_json::to_string(&c).unwrap();
        let back: GatewayConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.slos, c.slos);
    }
}
