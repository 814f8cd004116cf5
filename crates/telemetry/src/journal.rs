//! The structured event journal: a bounded ring of operational facts
//! (health transitions, driver fallbacks, cache last-known-state serves,
//! policy decisions, event-pipeline activity) with severity levels and
//! low-cardinality source/driver/stage fields.
//!
//! The journal is to *gateway behaviour* what the trace ring is to *one
//! request*: an ordered, bounded, queryable record. Entries are stamped
//! with the shared virtual clock by callers, so journal ordering can be
//! lined up against trace timestamps exactly.

use crate::metrics::{Counter, Labels, Registry};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Journal severity, ordered. Mirrors the gateway's event severities but
/// lives here so every crate below `core` can record entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum JournalSeverity {
    /// Routine operational fact.
    #[default]
    Info,
    /// Needs attention (degraded health, fallbacks, overflow).
    Warning,
    /// Needs attention now (source down, data loss risk).
    Critical,
}

impl JournalSeverity {
    /// Lower-case name (`info`, `warning`, `critical`).
    pub fn name(&self) -> &'static str {
        match self {
            JournalSeverity::Info => "info",
            JournalSeverity::Warning => "warning",
            JournalSeverity::Critical => "critical",
        }
    }

    /// Parse from common level strings (anything unknown is `Info`).
    pub fn parse(s: &str) -> JournalSeverity {
        match s.to_ascii_lowercase().as_str() {
            "critical" | "crit" | "error" | "fatal" => JournalSeverity::Critical,
            "warning" | "warn" => JournalSeverity::Warning,
            _ => JournalSeverity::Info,
        }
    }
}

/// One journal entry. `kind` comes from a closed set (see the constants
/// in this module); `source`/`driver`/`stage` carry the high-cardinality
/// detail that must stay out of metric labels.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Monotonic sequence number, unique per journal.
    pub seq: u64,
    /// Virtual time the entry was recorded.
    pub at_ms: u64,
    /// Severity level.
    pub severity: JournalSeverity,
    /// Entry kind from the closed set (`state_transition`, …).
    pub kind: String,
    /// The data source (URL) or component concerned.
    pub source: String,
    /// Driver involved, when one was.
    pub driver: Option<String>,
    /// Pipeline stage involved, when one was.
    pub stage: Option<String>,
    /// Human-readable detail.
    pub message: String,
    /// The trace tree active when the entry was recorded, so journal
    /// rows join against `gridrm_spans`. Defaults empty for entries
    /// recorded outside any request.
    pub trace_id: Option<String>,
}

/// Kind: a health state machine transition.
pub const KIND_STATE_TRANSITION: &str = "state_transition";
/// Kind: a failure policy fell back to another driver.
pub const KIND_DRIVER_FALLBACK: &str = "driver_fallback";
/// Kind: the cache served a last-known-state result.
pub const KIND_CACHE_SERVE: &str = "cache_serve";
/// Kind: a failure-policy decision (retry, report, exhausted).
pub const KIND_POLICY_DECISION: &str = "policy_decision";
/// Kind: an active health probe ran.
pub const KIND_PROBE: &str = "probe";
/// Kind: a normalised event entered the event pipeline.
pub const KIND_EVENT: &str = "event";
/// Kind: the event fast buffer overflowed to the disk buffer.
pub const KIND_EVENT_OVERFLOW: &str = "event_overflow";
/// Kind: a native push no formatter accepted.
pub const KIND_EVENT_UNFORMATTED: &str = "event_unformatted";
/// Kind: an SLO burn-rate alert fired or cleared.
pub const KIND_SLO: &str = "slo_alert";
/// Kind: continuous-query subscription lifecycle and evaluation facts.
pub const KIND_STREAM: &str = "stream";
/// Kind: a query's inclusive cost exceeded the configured budget.
pub const KIND_COST_BUDGET: &str = "cost_budget";
/// Kind: a queued harvest could not be written to the history table.
pub const KIND_HISTORY_DROP: &str = "history_drop";

/// Per-severity journal counters, registered as
/// `gridrm_journal_entries_total{severity=…}`.
#[derive(Debug)]
pub struct JournalStats {
    /// Info entries recorded.
    pub info: Counter,
    /// Warning entries recorded.
    pub warning: Counter,
    /// Critical entries recorded.
    pub critical: Counter,
}

impl JournalStats {
    fn new(registry: &Registry) -> JournalStats {
        let [info, warning, critical] = registry.counters(
            "gridrm_journal_entries_total",
            "Structured journal entries recorded by severity",
            "severity",
            ["info", "warning", "critical"],
        );
        JournalStats {
            info,
            warning,
            critical,
        }
    }

    fn for_severity(&self, severity: JournalSeverity) -> &Counter {
        match severity {
            JournalSeverity::Info => &self.info,
            JournalSeverity::Warning => &self.warning,
            JournalSeverity::Critical => &self.critical,
        }
    }
}

/// Default number of journal entries retained per gateway.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 512;

/// The bounded structured journal: oldest entries evicted first, like
/// the trace ring.
pub struct Journal {
    capacity: usize,
    ring: Mutex<VecDeque<JournalEntry>>,
    next_seq: AtomicU64,
    stats: JournalStats,
    /// Evictions, exposed as `gridrm_journal_drops_total` so loss of
    /// observability data is itself observable.
    drops: Counter,
}

impl Journal {
    /// Journal keeping at most `capacity` entries (capacity >= 1), its
    /// counters created in `registry`.
    pub fn new(capacity: usize, registry: &Registry) -> Journal {
        Journal {
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            next_seq: AtomicU64::new(1),
            stats: JournalStats::new(registry),
            drops: registry.counter(
                "gridrm_journal_drops_total",
                "Journal entries evicted from the bounded ring buffer before being read",
                Labels::none(),
            ),
        }
    }

    /// Record one entry (the journal assigns `seq`). Returns the assigned
    /// sequence number.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        at_ms: u64,
        severity: JournalSeverity,
        kind: &str,
        source: &str,
        driver: Option<&str>,
        stage: Option<&str>,
        message: &str,
    ) -> u64 {
        self.record_traced(at_ms, severity, kind, source, driver, stage, message, None)
    }

    /// [`Journal::record`] stamped with the active `trace_id`, so the
    /// entry joins against the span tree it was recorded under.
    #[allow(clippy::too_many_arguments)]
    pub fn record_traced(
        &self,
        at_ms: u64,
        severity: JournalSeverity,
        kind: &str,
        source: &str,
        driver: Option<&str>,
        stage: Option<&str>,
        message: &str,
        trace_id: Option<&str>,
    ) -> u64 {
        self.stats.for_severity(severity).inc();
        let mut ring = self.ring.lock();
        // Seq is assigned under the ring lock so sequence order always
        // matches ring order (and clock order, the clock being monotone).
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        if ring.len() == self.capacity {
            ring.pop_front();
            self.drops.inc();
        }
        ring.push_back(JournalEntry {
            seq,
            at_ms,
            severity,
            kind: kind.to_owned(),
            source: source.to_owned(),
            driver: driver.map(str::to_owned),
            stage: stage.map(str::to_owned),
            message: message.to_owned(),
            trace_id: trace_id.map(str::to_owned),
        });
        seq
    }

    /// Retained entries, oldest first.
    pub fn recent(&self) -> Vec<JournalEntry> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Lend each retained entry, oldest first, copying nothing. `f`
    /// runs under the ring's lock, so it must take no other lock.
    pub fn visit(&self, f: impl FnMut(&JournalEntry)) {
        self.ring.lock().iter().for_each(f);
    }

    /// Retained entries of one kind, oldest first.
    pub fn recent_of_kind(&self, kind: &str) -> Vec<JournalEntry> {
        self.ring
            .lock()
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// Maximum number of retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total entries ever recorded (survives ring eviction).
    pub fn total_recorded(&self) -> u64 {
        self.stats.info.get() + self.stats.warning.get() + self.stats.critical.get()
    }

    /// Per-severity counters.
    pub fn stats(&self) -> &JournalStats {
        &self.stats
    }

    /// Shared counter of entries evicted before being read.
    pub fn drops(&self) -> &Counter {
        &self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(capacity: usize) -> Journal {
        Journal::new(capacity, &Registry::new())
    }

    #[test]
    fn seq_is_monotonic_and_ring_bounded() {
        let journal = j(3);
        for i in 0..5u64 {
            journal.record(
                i,
                JournalSeverity::Info,
                KIND_PROBE,
                "jdbc:snmp://n/p",
                None,
                None,
                "probe ok",
            );
        }
        let kept = journal.recent();
        assert_eq!(kept.len(), 3);
        let seqs: Vec<u64> = kept.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
        assert_eq!(journal.total_recorded(), 5);
        assert_eq!(journal.capacity(), 3);
        // 5 recorded into a ring of 3: two evictions, both counted.
        assert_eq!(journal.drops().get(), 2);
    }

    #[test]
    fn severity_counters_track_records() {
        let journal = j(8);
        journal.record(0, JournalSeverity::Info, KIND_EVENT, "s", None, None, "m");
        journal.record(
            1,
            JournalSeverity::Warning,
            KIND_DRIVER_FALLBACK,
            "s",
            Some("jdbc-snmp"),
            None,
            "m",
        );
        journal.record(
            2,
            JournalSeverity::Critical,
            KIND_STATE_TRANSITION,
            "s",
            None,
            Some("down"),
            "m",
        );
        journal.record(
            3,
            JournalSeverity::Critical,
            KIND_PROBE,
            "s",
            None,
            None,
            "m",
        );
        assert_eq!(journal.stats().info.get(), 1);
        assert_eq!(journal.stats().warning.get(), 1);
        assert_eq!(journal.stats().critical.get(), 2);
        assert_eq!(journal.total_recorded(), 4);
    }

    #[test]
    fn kind_filter() {
        let journal = j(8);
        journal.record(0, JournalSeverity::Info, KIND_PROBE, "a", None, None, "m");
        journal.record(
            1,
            JournalSeverity::Warning,
            KIND_STATE_TRANSITION,
            "a",
            None,
            None,
            "m",
        );
        journal.record(2, JournalSeverity::Info, KIND_PROBE, "b", None, None, "m");
        let probes = journal.recent_of_kind(KIND_PROBE);
        assert_eq!(probes.len(), 2);
        assert!(probes.iter().all(|e| e.kind == KIND_PROBE));
    }

    #[test]
    fn severity_parse_and_order() {
        assert_eq!(JournalSeverity::parse("WARN"), JournalSeverity::Warning);
        assert_eq!(JournalSeverity::parse("error"), JournalSeverity::Critical);
        assert_eq!(JournalSeverity::parse("other"), JournalSeverity::Info);
        assert!(JournalSeverity::Info < JournalSeverity::Warning);
        assert!(JournalSeverity::Warning < JournalSeverity::Critical);
    }

    #[test]
    fn concurrent_records_keep_ring_ordered_by_seq() {
        let journal = j(4096);
        std::thread::scope(|s| {
            for t in 0..8 {
                let journal = &journal;
                s.spawn(move || {
                    for i in 0..200 {
                        journal.record(
                            0,
                            JournalSeverity::Info,
                            KIND_EVENT,
                            &format!("src-{t}"),
                            None,
                            None,
                            &format!("m{i}"),
                        );
                    }
                });
            }
        });
        let entries = journal.recent();
        assert_eq!(entries.len(), 1600);
        assert!(entries.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}
