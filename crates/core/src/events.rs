//! The Event Manager (paper §3.1.5, Fig 4): "a bridge between the native
//! events issued by data sources and GridRM".
//!
//! Native events arrive as opaque push payloads; pluggable **event
//! formatters** translate them into the standard [`GridRMEvent`] form.
//! Incoming events land in a bounded, lock-free **fast buffer** ("ensures
//! events are not lost in a busy system") with overflow spilling to a
//! **disk buffer**; a dispatch pump drains both, records events for
//! historical analysis and fans them out to registered listeners. The
//! reverse path — **transmitters** — converts GridRM events back into a
//! data source's native format (Fig 4's Transmitter API), which is how
//! events propagate between gateways and diverse sources.

use crossbeam::channel::{unbounded, Receiver, Sender};
use crossbeam::queue::ArrayQueue;
use gridrm_simnet::SimClock;
use gridrm_telemetry::{
    Counter, GatewayTelemetry, Journal, JournalSeverity, Registry, KIND_EVENT, KIND_EVENT_OVERFLOW,
    KIND_EVENT_UNFORMATTED,
};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Event severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Informational.
    Info,
    /// Needs attention.
    Warning,
    /// Needs attention now.
    Critical,
}

impl Severity {
    /// Parse from common level strings.
    pub fn parse(s: &str) -> Severity {
        match s.to_ascii_lowercase().as_str() {
            "critical" | "crit" | "error" | "fatal" => Severity::Critical,
            "warning" | "warn" => Severity::Warning,
            _ => Severity::Info,
        }
    }

    /// Lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }

    /// The equivalent journal severity.
    pub fn as_journal(&self) -> JournalSeverity {
        match self {
            Severity::Info => JournalSeverity::Info,
            Severity::Warning => JournalSeverity::Warning,
            Severity::Critical => JournalSeverity::Critical,
        }
    }
}

/// The gateway's normalised event format (the GLUE `Event` group in
/// struct form).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridRMEvent {
    /// Gateway-assigned sequence number.
    pub id: u64,
    /// When it happened (virtual epoch ms).
    pub at_ms: i64,
    /// The data source that produced it (URL or simnet address).
    pub source: String,
    /// Host concerned, if known.
    pub hostname: Option<String>,
    /// Severity.
    pub severity: Severity,
    /// Dotted category, e.g. `cpu.load`.
    pub category: String,
    /// Human-readable message.
    pub message: String,
    /// Associated numeric value.
    pub value: Option<f64>,
}

/// A pluggable native → GridRM event translator ("Custom Formatter plugged
/// into each Driver", Fig 4).
pub trait EventFormatter: Send + Sync {
    /// Can this formatter decode pushes from `source`?
    fn accepts(&self, source: &str) -> bool;
    /// Decode a native payload into zero or more events (without ids —
    /// the manager assigns them).
    fn format(&self, source: &str, payload: &[u8], now_ms: i64) -> Vec<GridRMEvent>;
}

/// A pluggable GridRM → native translator (Fig 4's Transmitter API).
pub trait EventTransmitter: Send + Sync {
    /// Name for administration.
    fn name(&self) -> &str;
    /// Encode and deliver `event` to the native destination. Returns
    /// whether delivery happened.
    fn transmit(&self, event: &GridRMEvent) -> bool;
}

/// Listener filter: all fields are conjunctive; `None` matches anything.
#[derive(Debug, Clone, Default)]
pub struct ListenerFilter {
    /// Only events whose category starts with this prefix.
    pub category_prefix: Option<String>,
    /// Only events at or above this severity.
    pub min_severity: Option<Severity>,
    /// Only events from this source.
    pub source: Option<String>,
}

impl ListenerFilter {
    /// Does `event` pass the filter?
    pub fn matches(&self, event: &GridRMEvent) -> bool {
        if let Some(p) = &self.category_prefix {
            if !event.category.starts_with(p.as_str()) {
                return false;
            }
        }
        if let Some(min) = self.min_severity {
            if event.severity < min {
                return false;
            }
        }
        if let Some(s) = &self.source {
            if &event.source != s {
                return false;
            }
        }
        true
    }
}

struct Listener {
    id: u64,
    filter: ListenerFilter,
    tx: Sender<GridRMEvent>,
}

/// Counters for the event path (experiment E4), registered as
/// `gridrm_events_total{stage=…}`.
#[derive(Debug)]
pub struct EventStats {
    /// Events accepted into the manager.
    pub ingested: Counter,
    /// Events that took the overflow (disk) path.
    pub overflowed: Counter,
    /// Events delivered to listeners (sum over listeners).
    pub delivered: Counter,
    /// Events transmitted back out natively.
    pub transmitted: Counter,
    /// Payloads no formatter accepted.
    pub unformatted: Counter,
}

/// Named point-in-time copy of [`EventStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventSnapshot {
    /// Events accepted into the manager.
    pub ingested: u64,
    /// Events that took the overflow (disk) path.
    pub overflowed: u64,
    /// Events delivered to listeners (sum over listeners).
    pub delivered: u64,
    /// Events transmitted back out natively.
    pub transmitted: u64,
    /// Payloads no formatter accepted.
    pub unformatted: u64,
}

impl EventStats {
    fn new(registry: &Registry) -> EventStats {
        let [ingested, overflowed, delivered, transmitted, unformatted] = registry.counters(
            "gridrm_events_total",
            "Event-manager pipeline events by stage",
            "stage",
            [
                "ingested",
                "overflowed",
                "delivered",
                "transmitted",
                "unformatted",
            ],
        );
        EventStats {
            ingested,
            overflowed,
            delivered,
            transmitted,
            unformatted,
        }
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> EventSnapshot {
        EventSnapshot {
            ingested: self.ingested.get(),
            overflowed: self.overflowed.get(),
            delivered: self.delivered.get(),
            transmitted: self.transmitted.get(),
            unformatted: self.unformatted.get(),
        }
    }
}

/// The Event Manager.
pub struct EventManager {
    formatters: RwLock<Vec<Arc<dyn EventFormatter>>>,
    transmitters: RwLock<Vec<Arc<dyn EventTransmitter>>>,
    listeners: RwLock<Vec<Listener>>,
    /// Bounded lock-free fast path.
    fast: ArrayQueue<GridRMEvent>,
    /// Unbounded overflow ("disk buffer") so bursts never lose events.
    disk: Mutex<VecDeque<GridRMEvent>>,
    next_event_id: AtomicU64,
    next_listener_id: AtomicU64,
    stats: EventStats,
    /// Every emission path (ingest, overflow, unformatted) writes its
    /// counter *and* a journal entry through one helper, so the two
    /// counts cannot drift.
    journal: Arc<Journal>,
    /// Stamps journal entries.
    clock: Arc<SimClock>,
}

impl EventManager {
    /// Manager with a fast buffer of `fast_capacity` events, journalling
    /// into the telemetry hub's journal and counting in its registry.
    pub fn new(fast_capacity: usize, telemetry: &GatewayTelemetry) -> Arc<EventManager> {
        Arc::new(EventManager {
            formatters: RwLock::new(Vec::new()),
            transmitters: RwLock::new(Vec::new()),
            listeners: RwLock::new(Vec::new()),
            fast: ArrayQueue::new(fast_capacity.max(1)),
            disk: Mutex::new(VecDeque::new()),
            next_event_id: AtomicU64::new(1),
            next_listener_id: AtomicU64::new(1),
            stats: EventStats::new(telemetry.registry()),
            journal: telemetry.journal().clone(),
            clock: telemetry.clock().clone(),
        })
    }

    /// The single emission path: increment the stage counter and mirror
    /// the fact into the journal in one place.
    fn note(
        &self,
        counter: &Counter,
        severity: JournalSeverity,
        kind: &str,
        source: &str,
        message: &str,
    ) {
        counter.inc();
        self.journal.record(
            self.clock.now_millis(),
            severity,
            kind,
            source,
            None,
            None,
            message,
        );
    }

    /// Install an event formatter (driver-supplied, Fig 4).
    pub fn register_formatter(&self, f: Arc<dyn EventFormatter>) {
        self.formatters.write().push(f);
    }

    /// Install a transmitter for the outbound path.
    pub fn register_transmitter(&self, t: Arc<dyn EventTransmitter>) {
        self.transmitters.write().push(t);
    }

    /// Remove a transmitter by name.
    pub fn unregister_transmitter(&self, name: &str) -> bool {
        let mut ts = self.transmitters.write();
        let before = ts.len();
        ts.retain(|t| t.name() != name);
        ts.len() != before
    }

    /// Register a listener; events matching `filter` arrive on the
    /// returned channel after each [`EventManager::dispatch`].
    pub fn register_listener(&self, filter: ListenerFilter) -> (u64, Receiver<GridRMEvent>) {
        let (tx, rx) = unbounded();
        let id = self.next_listener_id.fetch_add(1, Ordering::Relaxed);
        self.listeners.write().push(Listener { id, filter, tx });
        (id, rx)
    }

    /// Remove a listener.
    pub fn unregister_listener(&self, id: u64) -> bool {
        let mut ls = self.listeners.write();
        let before = ls.len();
        ls.retain(|l| l.id != id);
        ls.len() != before
    }

    /// Ingest a *native* payload pushed by `source`: run the formatters,
    /// buffer the resulting events. Returns how many events were buffered.
    pub fn ingest_native(&self, source: &str, payload: &[u8], now_ms: i64) -> usize {
        let formatter = {
            let fs = self.formatters.read();
            fs.iter().find(|f| f.accepts(source)).cloned()
        };
        let Some(formatter) = formatter else {
            self.note(
                &self.stats.unformatted,
                JournalSeverity::Warning,
                KIND_EVENT_UNFORMATTED,
                source,
                "no formatter accepted native payload",
            );
            return 0;
        };
        let events = formatter.format(source, payload, now_ms);
        let n = events.len();
        for e in events {
            self.ingest(e);
        }
        n
    }

    /// Ingest an already-normalised event (assigns the sequence id).
    pub fn ingest(&self, mut event: GridRMEvent) {
        event.id = self.next_event_id.fetch_add(1, Ordering::Relaxed);
        self.note(
            &self.stats.ingested,
            event.severity.as_journal(),
            KIND_EVENT,
            &event.source,
            &event.category,
        );
        if let Err(e) = self.fast.push(event) {
            // Fast buffer full: spill, never drop.
            self.note(
                &self.stats.overflowed,
                JournalSeverity::Warning,
                KIND_EVENT_OVERFLOW,
                &e.source,
                "fast buffer full; spilled to disk buffer",
            );
            self.disk.lock().push_back(e);
        }
    }

    /// Drain buffered events: deliver to listeners and transmitters, and
    /// return them (the gateway records them into history). Order is
    /// fast-buffer first, then overflow.
    pub fn dispatch(&self) -> Vec<GridRMEvent> {
        let mut drained = Vec::new();
        while let Some(e) = self.fast.pop() {
            drained.push(e);
        }
        {
            let mut disk = self.disk.lock();
            drained.extend(disk.drain(..));
        }
        if drained.is_empty() {
            return drained;
        }
        // Events within one dispatch are globally ordered by id (pushes
        // may have raced between the two buffers).
        drained.sort_by_key(|e| e.id);
        {
            let mut listeners = self.listeners.write();
            listeners.retain(|l| {
                for e in &drained {
                    if l.filter.matches(e) {
                        if l.tx.send(e.clone()).is_err() {
                            return false; // receiver gone
                        }
                        self.stats.delivered.inc();
                    }
                }
                true
            });
        }
        {
            let transmitters = self.transmitters.read();
            for t in transmitters.iter() {
                for e in &drained {
                    if t.transmit(e) {
                        self.stats.transmitted.inc();
                    }
                }
            }
        }
        drained
    }

    /// Number of events currently buffered.
    pub fn backlog(&self) -> usize {
        self.fast.len() + self.disk.lock().len()
    }

    /// Activity counters.
    pub fn stats(&self) -> &EventStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(fast_capacity: usize) -> Arc<EventManager> {
        EventManager::new(fast_capacity, &GatewayTelemetry::new(SimClock::new()))
    }

    fn ev(category: &str, sev: Severity) -> GridRMEvent {
        GridRMEvent {
            id: 0,
            at_ms: 100,
            source: "jdbc:snmp://node00/public".into(),
            hostname: Some("node00".into()),
            severity: sev,
            category: category.into(),
            message: "m".into(),
            value: Some(1.0),
        }
    }

    #[test]
    fn ids_are_assigned_sequentially() {
        let m = manager(16);
        m.ingest(ev("a", Severity::Info));
        m.ingest(ev("b", Severity::Info));
        let out = m.dispatch();
        assert_eq!(out[0].id, 1);
        assert_eq!(out[1].id, 2);
    }

    #[test]
    fn listener_filtering() {
        let m = manager(16);
        let (_, all) = m.register_listener(ListenerFilter::default());
        let (_, crit) = m.register_listener(ListenerFilter {
            min_severity: Some(Severity::Critical),
            ..Default::default()
        });
        let (_, cpu) = m.register_listener(ListenerFilter {
            category_prefix: Some("cpu.".into()),
            ..Default::default()
        });
        m.ingest(ev("cpu.load", Severity::Warning));
        m.ingest(ev("mem.free", Severity::Critical));
        m.dispatch();
        assert_eq!(all.try_iter().count(), 2);
        let crit_events: Vec<_> = crit.try_iter().collect();
        assert_eq!(crit_events.len(), 1);
        assert_eq!(crit_events[0].category, "mem.free");
        assert_eq!(cpu.try_iter().count(), 1);
    }

    #[test]
    fn burst_larger_than_fast_buffer_is_loss_free() {
        // The Fig 4 claim: the fast buffer "ensures events are not lost in
        // a busy system". Overflow goes to the disk buffer, not the floor.
        let m = manager(64);
        let (_, rx) = m.register_listener(ListenerFilter::default());
        for i in 0..10_000 {
            m.ingest(ev(&format!("burst.{i}"), Severity::Info));
        }
        assert_eq!(m.backlog(), 10_000);
        assert!(m.stats().overflowed.get() > 0);
        let drained = m.dispatch();
        assert_eq!(drained.len(), 10_000);
        assert_eq!(rx.try_iter().count(), 10_000);
        assert_eq!(m.backlog(), 0);
        // And order is preserved.
        for (i, e) in drained.iter().enumerate() {
            assert_eq!(e.id, i as u64 + 1);
        }
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let m = manager(32);
        std::thread::scope(|s| {
            for t in 0..8 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..500 {
                        m.ingest(ev(&format!("p{t}.{i}"), Severity::Info));
                    }
                });
            }
        });
        assert_eq!(m.dispatch().len(), 4000);
        assert_eq!(m.stats().ingested.get(), 4000);
    }

    #[test]
    fn dead_listener_is_pruned() {
        let m = manager(8);
        let (id, rx) = m.register_listener(ListenerFilter::default());
        drop(rx);
        m.ingest(ev("x", Severity::Info));
        m.dispatch();
        // Listener removed; unregistering again reports false.
        assert!(!m.unregister_listener(id));
    }

    #[test]
    fn unregister_listener_stops_delivery() {
        let m = manager(8);
        let (id, rx) = m.register_listener(ListenerFilter::default());
        assert!(m.unregister_listener(id));
        m.ingest(ev("x", Severity::Info));
        m.dispatch();
        assert_eq!(rx.try_iter().count(), 0);
    }

    #[test]
    fn formatter_dispatching() {
        struct F;
        impl EventFormatter for F {
            fn accepts(&self, source: &str) -> bool {
                source.ends_with(":test")
            }
            fn format(&self, source: &str, payload: &[u8], now_ms: i64) -> Vec<GridRMEvent> {
                vec![GridRMEvent {
                    id: 0,
                    at_ms: now_ms,
                    source: source.to_owned(),
                    hostname: None,
                    severity: Severity::Info,
                    category: String::from_utf8_lossy(payload).into_owned(),
                    message: String::new(),
                    value: None,
                }]
            }
        }
        let m = manager(8);
        m.register_formatter(Arc::new(F));
        assert_eq!(m.ingest_native("node0:test", b"cat", 5), 1);
        assert_eq!(m.ingest_native("node0:other", b"cat", 5), 0);
        assert_eq!(m.stats().unformatted.get(), 1);
        let out = m.dispatch();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].category, "cat");
    }

    #[test]
    fn transmitter_sees_all_events() {
        struct T(Arc<AtomicU64>);
        impl EventTransmitter for T {
            fn name(&self) -> &str {
                "t"
            }
            fn transmit(&self, _e: &GridRMEvent) -> bool {
                self.0.fetch_add(1, Ordering::Relaxed);
                true
            }
        }
        let m = manager(8);
        let count = Arc::new(AtomicU64::new(0));
        m.register_transmitter(Arc::new(T(count.clone())));
        for _ in 0..3 {
            m.ingest(ev("x", Severity::Info));
        }
        m.dispatch();
        assert_eq!(count.load(Ordering::Relaxed), 3);
        assert_eq!(m.stats().transmitted.get(), 3);
        assert!(m.unregister_transmitter("t"));
        assert!(!m.unregister_transmitter("t"));
    }

    #[test]
    fn journal_mirrors_emission_counters() {
        let telemetry = GatewayTelemetry::new(SimClock::new());
        let m = EventManager::new(2, &telemetry);
        let journal = telemetry.journal();
        for i in 0..4 {
            m.ingest(ev(&format!("c{i}"), Severity::Warning)); // 2 overflow
        }
        m.ingest_native("nobody:unknown", b"p", 0); // unformatted
        assert_eq!(
            journal.recent_of_kind(KIND_EVENT).len() as u64,
            m.stats().ingested.get()
        );
        assert_eq!(
            journal.recent_of_kind(KIND_EVENT_OVERFLOW).len() as u64,
            m.stats().overflowed.get()
        );
        assert_eq!(
            journal.recent_of_kind(KIND_EVENT_UNFORMATTED).len() as u64,
            m.stats().unformatted.get()
        );
        // Journal severity mirrors the event severity.
        assert!(journal
            .recent_of_kind(KIND_EVENT)
            .iter()
            .all(|e| e.severity == JournalSeverity::Warning));
    }

    #[test]
    fn severity_parse_and_order() {
        assert_eq!(Severity::parse("WARN"), Severity::Warning);
        assert_eq!(Severity::parse("error"), Severity::Critical);
        assert_eq!(Severity::parse("anything"), Severity::Info);
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Critical);
    }
}
