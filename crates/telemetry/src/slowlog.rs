//! Slow-query log: the top-K slowest traces by end-to-end virtual
//! latency, with their full per-stage breakdown. Traces are offered on
//! span finish; only those at or above the configured threshold are
//! retained, and within the log the slowest K win.

use crate::metrics::{Counter, Labels, Registry};
use crate::trace::TraceRecord;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default number of slow queries retained per gateway.
pub const DEFAULT_SLOW_QUERY_CAPACITY: usize = 32;

/// Default slow-query threshold: 0 disables the log until configured.
pub const DEFAULT_SLOW_QUERY_THRESHOLD_MS: u64 = 0;

/// Top-K slow-query log over finished traces.
pub struct SlowQueryLog {
    threshold_ms: AtomicU64,
    capacity: usize,
    /// Sorted slowest-first; ties broken by trace id (earlier first).
    entries: Mutex<Vec<TraceRecord>>,
    recorded: Counter,
}

impl SlowQueryLog {
    /// Log retaining at most `capacity` traces at/above `threshold_ms`,
    /// its counter created in `registry`. A threshold of 0 disables
    /// recording.
    pub fn new(threshold_ms: u64, capacity: usize, registry: &Registry) -> SlowQueryLog {
        SlowQueryLog {
            threshold_ms: AtomicU64::new(threshold_ms),
            capacity: capacity.max(1),
            entries: Mutex::new(Vec::new()),
            recorded: registry.counter(
                "gridrm_slow_queries_total",
                "Traces at or above the slow-query threshold",
                Labels::none(),
            ),
        }
    }

    /// Current threshold (0 = disabled).
    pub fn threshold_ms(&self) -> u64 {
        self.threshold_ms.load(Ordering::Relaxed)
    }

    /// Change the threshold at runtime (0 disables future recording;
    /// already-retained entries stay).
    pub fn set_threshold_ms(&self, threshold_ms: u64) {
        self.threshold_ms.store(threshold_ms, Ordering::Relaxed);
    }

    /// Offer a finished trace. Returns true when it was retained.
    pub fn offer(&self, record: &TraceRecord) -> bool {
        self.offer_with(record.id, record.duration_ms(), || record.clone())
    }

    /// Offer trace `id`, `duration_ms` long; `record` is called only
    /// when the trace is retained.
    pub(crate) fn offer_with(
        &self,
        id: u64,
        duration_ms: u64,
        record: impl FnOnce() -> TraceRecord,
    ) -> bool {
        let threshold = self.threshold_ms();
        if threshold == 0 || duration_ms < threshold {
            return false;
        }
        self.recorded.inc();
        let mut entries = self.entries.lock();
        let pos = entries
            .iter()
            .position(|e| {
                let d = e.duration_ms();
                d < duration_ms || (d == duration_ms && e.id > id)
            })
            .unwrap_or(entries.len());
        if pos >= self.capacity {
            // Slower (or equally slow, earlier) than nothing retained.
            return false;
        }
        entries.insert(pos, record());
        entries.truncate(self.capacity);
        true
    }

    /// Retained slow queries, slowest first.
    pub fn top(&self) -> Vec<TraceRecord> {
        self.entries.lock().clone()
    }

    /// Number of retained slow queries.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Maximum number of retained slow queries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Traces that ever crossed the threshold (including ones later
    /// displaced from the top-K).
    pub fn total_recorded(&self) -> u64 {
        self.recorded.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, duration: u64) -> TraceRecord {
        TraceRecord {
            id,
            request: format!("req-{id}"),
            started_ms: 1_000,
            finished_ms: 1_000 + duration,
            outcome: "ok".into(),
            ..TraceRecord::default()
        }
    }

    #[test]
    fn zero_threshold_disables() {
        let log = SlowQueryLog::new(0, 4, &Registry::new());
        assert!(!log.offer(&record(1, 10_000)));
        assert!(log.is_empty());
        assert_eq!(log.total_recorded(), 0);
    }

    #[test]
    fn below_threshold_rejected() {
        let log = SlowQueryLog::new(100, 4, &Registry::new());
        assert!(!log.offer(&record(1, 99)));
        assert!(log.offer(&record(2, 100)));
        assert_eq!(log.len(), 1);
        assert_eq!(log.total_recorded(), 1);
    }

    #[test]
    fn keeps_top_k_slowest_first() {
        let log = SlowQueryLog::new(10, 3, &Registry::new());
        for (id, d) in [(1, 50), (2, 20), (3, 80), (4, 30), (5, 60)] {
            log.offer(&record(id, d));
        }
        let top: Vec<(u64, u64)> = log.top().iter().map(|t| (t.id, t.duration_ms())).collect();
        assert_eq!(top, vec![(3, 80), (5, 60), (1, 50)]);
        assert_eq!(log.total_recorded(), 5, "all crossed the threshold");
        assert_eq!(log.capacity(), 3);
    }

    #[test]
    fn ties_keep_earlier_trace_first() {
        let log = SlowQueryLog::new(10, 4, &Registry::new());
        log.offer(&record(2, 40));
        log.offer(&record(1, 40));
        log.offer(&record(3, 40));
        let ids: Vec<u64> = log.top().iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn runtime_threshold_change() {
        let log = SlowQueryLog::new(0, 4, &Registry::new());
        assert!(!log.offer(&record(1, 500)));
        log.set_threshold_ms(100);
        assert_eq!(log.threshold_ms(), 100);
        assert!(log.offer(&record(2, 500)));
        assert_eq!(log.len(), 1);
    }
}
