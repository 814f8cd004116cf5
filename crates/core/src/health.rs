//! Per-data-source health: a debounced state machine fed passively by
//! query outcomes (Connection/Driver managers) and actively by the probe
//! scheduler in [`crate::gateway::Gateway::pump`]. Every transition is
//! journalled and queued for the alert engine; snapshots feed the Admin
//! JSON exposition, the `gridrm_health` virtual SQL table and Fig 9's
//! tree view.
//!
//! The state machine (see `docs/observability.md` for the diagram):
//!
//! ```text
//!  Unknown --success--> Up --failure--> Degraded --down_after failures--> Down
//!     |                  ^                 |  ^                             |
//!     +----failure-------+--up_after-------+  +-------up_after successes---+
//!          (-> Degraded)      successes
//! ```

use crate::admin::concerns;
use gridrm_telemetry::{
    Counter, GatewayTelemetry, Journal, JournalSeverity, Registry, KIND_PROBE,
    KIND_STATE_TRANSITION,
};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Health of one data source as seen by the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum HealthState {
    /// Recent interactions succeed.
    Up,
    /// Failures observed, but fewer than the down threshold.
    Degraded,
    /// Consecutive failures reached the down threshold.
    Down,
    /// Never interacted with.
    #[default]
    Unknown,
}

impl HealthState {
    /// Lower-case name (`up`, `degraded`, `down`, `unknown`).
    pub fn name(&self) -> &'static str {
        match self {
            HealthState::Up => "up",
            HealthState::Degraded => "degraded",
            HealthState::Down => "down",
            HealthState::Unknown => "unknown",
        }
    }
}

/// Debounce and probe parameters (subset of `GatewayConfig`).
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Virtual ms between active probes of one source.
    pub probe_interval_ms: u64,
    /// A probe slower than this (virtual ms) counts as failed.
    pub probe_timeout_ms: u64,
    /// Consecutive failures before `Degraded` becomes `Down`.
    pub down_after: u32,
    /// Consecutive successes before `Degraded`/`Down` becomes `Up`.
    pub up_after: u32,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            probe_interval_ms: 30_000,
            probe_timeout_ms: 5_000,
            down_after: 3,
            up_after: 2,
        }
    }
}

/// One state-machine transition, queued for alerting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthTransition {
    /// The data-source URL.
    pub source: String,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// Virtual time of the transition.
    pub at_ms: u64,
    /// True when an active probe (not a client query) drove it.
    pub via_probe: bool,
}

/// Point-in-time health of one source: a `gridrm_health` row.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceHealthSnapshot {
    /// The data-source URL.
    pub source: String,
    /// Current state.
    pub state: HealthState,
    /// Failures since the last success.
    pub consecutive_failures: u32,
    /// Successes since the last failure.
    pub consecutive_successes: u32,
    /// Last successful interaction.
    pub last_ok_ms: Option<u64>,
    /// Last error observed.
    pub last_error: Option<String>,
    /// Last active probe.
    pub last_probe_ms: Option<u64>,
    /// Driver involved in the last failure.
    pub last_failed_driver: Option<String>,
    /// State transitions so far.
    pub transitions: u64,
    /// When the state last changed.
    pub last_transition_ms: Option<u64>,
    /// Last event (trap, alert) received from the source.
    pub last_event_ms: Option<u64>,
}

/// Health counters, registered as
/// `gridrm_health_transitions_total{state=…}` and
/// `gridrm_health_probes_total{outcome=…}`.
#[derive(Debug)]
pub struct HealthStats {
    /// Transitions into `Up`.
    pub to_up: Counter,
    /// Transitions into `Degraded`.
    pub to_degraded: Counter,
    /// Transitions into `Down`.
    pub to_down: Counter,
    /// Probes that succeeded.
    pub probes_ok: Counter,
    /// Probes that failed (error or timeout).
    pub probes_failed: Counter,
}

impl HealthStats {
    fn new(registry: &Registry) -> HealthStats {
        let [to_up, to_degraded, to_down] = registry.counters(
            "gridrm_health_transitions_total",
            "Health state-machine transitions by target state",
            "state",
            ["up", "degraded", "down"],
        );
        let [probes_ok, probes_failed] = registry.counters(
            "gridrm_health_probes_total",
            "Active health probes by outcome",
            "outcome",
            ["ok", "failed"],
        );
        HealthStats {
            to_up,
            to_degraded,
            to_down,
            probes_ok,
            probes_failed,
        }
    }
}

#[derive(Debug, Default)]
struct SourceRecord {
    state: HealthState,
    consecutive_failures: u32,
    consecutive_successes: u32,
    last_ok_ms: Option<u64>,
    last_error: Option<String>,
    last_probe_ms: Option<u64>,
    last_failed_driver: Option<String>,
    transitions: u64,
    last_transition_ms: Option<u64>,
    last_event_ms: Option<u64>,
}

/// The per-gateway health monitor.
pub struct HealthMonitor {
    config: HealthConfig,
    records: RwLock<BTreeMap<String, SourceRecord>>,
    journal: Arc<Journal>,
    /// Transitions not yet drained by the gateway pump (for alerting).
    pending: Mutex<Vec<HealthTransition>>,
    stats: HealthStats,
}

impl HealthMonitor {
    /// Monitor with the given thresholds, journalling into the
    /// telemetry hub's journal and counting in its registry.
    pub fn new(config: HealthConfig, telemetry: &GatewayTelemetry) -> HealthMonitor {
        HealthMonitor {
            config: HealthConfig {
                down_after: config.down_after.max(1),
                up_after: config.up_after.max(1),
                probe_interval_ms: config.probe_interval_ms.max(1),
                ..config
            },
            records: RwLock::new(BTreeMap::new()),
            journal: telemetry.journal().clone(),
            pending: Mutex::new(Vec::new()),
            stats: HealthStats::new(telemetry.registry()),
        }
    }

    /// The thresholds in force.
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// The journal transitions are recorded into.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// Counters.
    pub fn stats(&self) -> &HealthStats {
        &self.stats
    }

    /// Start tracking `source` (state `Unknown`) if not tracked yet.
    pub fn track(&self, source: &str) {
        self.records.write().entry(source.to_owned()).or_default();
    }

    /// Stop tracking `source` (e.g. removed from administration).
    pub fn untrack(&self, source: &str) -> bool {
        self.records.write().remove(source).is_some()
    }

    /// Is an active probe of `source` due at `now_ms`? Auto-tracks the
    /// source; a never-probed source is always due.
    pub fn probe_due(&self, source: &str, now_ms: u64) -> bool {
        let mut records = self.records.write();
        let rec = records.entry(source.to_owned()).or_default();
        match rec.last_probe_ms {
            None => true,
            Some(t) => now_ms.saturating_sub(t) >= self.config.probe_interval_ms,
        }
    }

    /// A successful interaction observed on the query path.
    pub fn record_success(&self, source: &str, driver: &str, now_ms: u64) {
        self.apply_success(source, driver, now_ms, false);
    }

    /// A failed interaction observed on the query path. `driver` names
    /// the driver that failed, when one was resolved.
    pub fn record_failure(&self, source: &str, driver: Option<&str>, error: &str, now_ms: u64) {
        self.apply_failure(source, driver, error, now_ms, false);
    }

    /// An active probe succeeded through `driver` in `elapsed_ms`.
    /// Probes slower than the configured timeout count as failures.
    pub fn record_probe_success(&self, source: &str, driver: &str, now_ms: u64, elapsed_ms: u64) {
        if elapsed_ms > self.config.probe_timeout_ms {
            self.record_probe_failure(
                source,
                Some(driver),
                &format!("probe timed out after {elapsed_ms}ms"),
                now_ms,
            );
            return;
        }
        self.stats.probes_ok.inc();
        self.records
            .write()
            .entry(source.to_owned())
            .or_default()
            .last_probe_ms = Some(now_ms);
        self.journal.record(
            now_ms,
            JournalSeverity::Info,
            KIND_PROBE,
            source,
            Some(driver),
            None,
            &format!("probe ok in {elapsed_ms}ms"),
        );
        self.apply_success(source, driver, now_ms, true);
    }

    /// An active probe failed (connect/ping error or timeout).
    pub fn record_probe_failure(
        &self,
        source: &str,
        driver: Option<&str>,
        error: &str,
        now_ms: u64,
    ) {
        self.stats.probes_failed.inc();
        self.records
            .write()
            .entry(source.to_owned())
            .or_default()
            .last_probe_ms = Some(now_ms);
        self.journal.record(
            now_ms,
            JournalSeverity::Warning,
            KIND_PROBE,
            source,
            driver,
            None,
            &format!("probe failed: {error}"),
        );
        self.apply_failure(source, driver, error, now_ms, true);
    }

    /// An event (native push, alert) from `origin` arrived at `now_ms`:
    /// stamp every tracked source it concerns (`admin::concerns`). An
    /// event never starts tracking a source.
    pub fn record_event(&self, origin: &str, now_ms: u64) {
        for (source, rec) in self.records.write().iter_mut() {
            if concerns(source, origin) {
                rec.last_event_ms = Some(now_ms);
            }
        }
    }

    /// Transitions recorded since the last drain (oldest first). The
    /// gateway pump turns these into alert events.
    pub fn take_transitions(&self) -> Vec<HealthTransition> {
        std::mem::take(&mut *self.pending.lock())
    }

    /// The current state of `source`, if tracked.
    pub fn state_of(&self, source: &str) -> Option<HealthState> {
        self.records.read().get(source).map(|r| r.state)
    }

    /// Snapshot of every tracked source, sorted by URL.
    pub fn snapshot(&self) -> Vec<SourceHealthSnapshot> {
        let records = self.records.read();
        let mut out: Vec<SourceHealthSnapshot> = records
            .iter()
            .map(|(source, r)| SourceHealthSnapshot {
                source: source.clone(),
                state: r.state,
                consecutive_failures: r.consecutive_failures,
                consecutive_successes: r.consecutive_successes,
                last_ok_ms: r.last_ok_ms,
                last_error: r.last_error.clone(),
                last_probe_ms: r.last_probe_ms,
                last_failed_driver: r.last_failed_driver.clone(),
                transitions: r.transitions,
                last_transition_ms: r.last_transition_ms,
                last_event_ms: r.last_event_ms,
            })
            .collect();
        out.sort_by(|a, b| a.source.cmp(&b.source));
        out
    }

    /// Snapshot of one source, if tracked.
    pub fn snapshot_of(&self, source: &str) -> Option<SourceHealthSnapshot> {
        self.snapshot().into_iter().find(|s| s.source == source)
    }

    /// How many tracked sources sit in each state, in a fixed order
    /// suitable for gauge exposition.
    pub fn state_counts(&self) -> [(HealthState, usize); 4] {
        let records = self.records.read();
        let mut counts = [
            (HealthState::Up, 0),
            (HealthState::Degraded, 0),
            (HealthState::Down, 0),
            (HealthState::Unknown, 0),
        ];
        for r in records.values() {
            for slot in counts.iter_mut() {
                if slot.0 == r.state {
                    slot.1 += 1;
                }
            }
        }
        counts
    }

    fn apply_success(&self, source: &str, driver: &str, now_ms: u64, via_probe: bool) {
        let mut records = self.records.write();
        // A source seen before is not copied again.
        let rec = match records.get_mut(source) {
            Some(rec) => rec,
            None => records.entry(source.to_owned()).or_default(),
        };
        rec.consecutive_failures = 0;
        rec.consecutive_successes = rec.consecutive_successes.saturating_add(1);
        rec.last_ok_ms = Some(now_ms);
        let next = match rec.state {
            HealthState::Unknown => HealthState::Up,
            HealthState::Up => HealthState::Up,
            HealthState::Degraded | HealthState::Down => {
                if rec.consecutive_successes >= self.config.up_after {
                    HealthState::Up
                } else {
                    rec.state
                }
            }
        };
        self.transition(source, rec, next, Some(driver), now_ms, via_probe);
    }

    fn apply_failure(
        &self,
        source: &str,
        driver: Option<&str>,
        error: &str,
        now_ms: u64,
        via_probe: bool,
    ) {
        let mut records = self.records.write();
        let rec = records.entry(source.to_owned()).or_default();
        rec.consecutive_successes = 0;
        rec.consecutive_failures = rec.consecutive_failures.saturating_add(1);
        rec.last_error = Some(error.to_owned());
        if let Some(d) = driver {
            rec.last_failed_driver = Some(d.to_owned());
        }
        let next = if rec.consecutive_failures >= self.config.down_after {
            HealthState::Down
        } else {
            match rec.state {
                HealthState::Down => HealthState::Down,
                _ => HealthState::Degraded,
            }
        };
        self.transition(source, rec, next, driver, now_ms, via_probe);
    }

    /// Move `rec` to `next` if different: one journal entry, one counter
    /// increment, one pending transition — the same code path, so the
    /// three counts can never drift apart.
    fn transition(
        &self,
        source: &str,
        rec: &mut SourceRecord,
        next: HealthState,
        driver: Option<&str>,
        now_ms: u64,
        via_probe: bool,
    ) {
        if rec.state == next {
            return;
        }
        let from = rec.state;
        rec.state = next;
        rec.transitions += 1;
        rec.last_transition_ms = Some(now_ms);
        let (severity, counter) = match next {
            HealthState::Down => (JournalSeverity::Critical, Some(&self.stats.to_down)),
            HealthState::Degraded => (JournalSeverity::Warning, Some(&self.stats.to_degraded)),
            HealthState::Up => (JournalSeverity::Info, Some(&self.stats.to_up)),
            HealthState::Unknown => (JournalSeverity::Info, None),
        };
        if let Some(c) = counter {
            c.inc();
        }
        self.journal.record(
            now_ms,
            severity,
            KIND_STATE_TRANSITION,
            source,
            driver,
            Some(next.name()),
            &format!("{} -> {}", from.name(), next.name()),
        );
        self.pending.lock().push(HealthTransition {
            source: source.to_owned(),
            from,
            to: next,
            at_ms: now_ms,
            via_probe,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridrm_simnet::SimClock;

    const SRC: &str = "jdbc:snmp://node00/public";

    fn monitor(down_after: u32, up_after: u32) -> HealthMonitor {
        HealthMonitor::new(
            HealthConfig {
                probe_interval_ms: 10_000,
                probe_timeout_ms: 1_000,
                down_after,
                up_after,
            },
            &GatewayTelemetry::new(SimClock::new()),
        )
    }

    #[test]
    fn unknown_until_first_interaction() {
        let m = monitor(3, 2);
        m.track(SRC);
        assert_eq!(m.state_of(SRC), Some(HealthState::Unknown));
        m.record_success(SRC, "jdbc-snmp", 100);
        assert_eq!(m.state_of(SRC), Some(HealthState::Up));
    }

    #[test]
    fn debounced_descent_to_down() {
        let m = monitor(3, 2);
        m.record_success(SRC, "jdbc-snmp", 0);
        m.record_failure(SRC, Some("jdbc-snmp"), "boom", 10);
        assert_eq!(m.state_of(SRC), Some(HealthState::Degraded));
        m.record_failure(SRC, Some("jdbc-snmp"), "boom", 20);
        assert_eq!(m.state_of(SRC), Some(HealthState::Degraded));
        m.record_failure(SRC, Some("jdbc-snmp"), "boom", 30);
        assert_eq!(m.state_of(SRC), Some(HealthState::Down));
        let snap = m.snapshot_of(SRC).unwrap();
        assert_eq!(snap.consecutive_failures, 3);
        assert_eq!(snap.last_failed_driver.as_deref(), Some("jdbc-snmp"));
        assert_eq!(snap.last_error.as_deref(), Some("boom"));
    }

    #[test]
    fn debounced_recovery_to_up() {
        let m = monitor(1, 2);
        m.record_failure(SRC, None, "down", 0);
        assert_eq!(m.state_of(SRC), Some(HealthState::Down));
        m.record_success(SRC, "jdbc-snmp", 10);
        assert_eq!(m.state_of(SRC), Some(HealthState::Down), "debounce holds");
        m.record_success(SRC, "jdbc-snmp", 20);
        assert_eq!(m.state_of(SRC), Some(HealthState::Up));
    }

    #[test]
    fn transitions_journalled_and_counted_identically() {
        let m = monitor(2, 1);
        m.record_success(SRC, "d", 0); // unknown -> up
        m.record_failure(SRC, Some("d"), "e", 1); // up -> degraded
        m.record_failure(SRC, Some("d"), "e", 2); // degraded -> down
        m.record_success(SRC, "d", 3); // down -> up
        let journalled = m.journal().recent_of_kind(KIND_STATE_TRANSITION);
        assert_eq!(journalled.len(), 4);
        let counted = m.stats().to_up.get() + m.stats().to_degraded.get() + m.stats().to_down.get();
        assert_eq!(counted, 4);
        let drained = m.take_transitions();
        assert_eq!(drained.len(), 4);
        assert_eq!(drained[3].from, HealthState::Down);
        assert_eq!(drained[3].to, HealthState::Up);
        assert!(m.take_transitions().is_empty(), "drain empties the queue");
        // Journal ordering matches transition ordering.
        let stages: Vec<&str> = journalled
            .iter()
            .map(|e| e.stage.as_deref().unwrap())
            .collect();
        assert_eq!(stages, vec!["up", "degraded", "down", "up"]);
    }

    #[test]
    fn probe_scheduling_and_timeout() {
        let m = monitor(3, 1);
        assert!(m.probe_due(SRC, 0), "never probed -> due");
        m.record_probe_success(SRC, "d", 0, 5);
        assert!(!m.probe_due(SRC, 9_999));
        assert!(m.probe_due(SRC, 10_000));
        assert_eq!(m.stats().probes_ok.get(), 1);
        // A slow probe counts as a failure despite connecting.
        m.record_probe_success(SRC, "d", 10_000, 2_000);
        assert_eq!(m.stats().probes_failed.get(), 1);
        assert_eq!(m.state_of(SRC), Some(HealthState::Degraded));
        let t = m.take_transitions();
        assert!(t.iter().all(|t| t.via_probe));
    }

    #[test]
    fn state_counts_cover_all_sources() {
        let m = monitor(1, 1);
        m.track("a");
        m.record_success("b", "d", 0);
        m.record_failure("c", None, "e", 0);
        let counts: BTreeMap<&str, usize> = m
            .state_counts()
            .iter()
            .map(|(s, n)| (s.name(), *n))
            .collect();
        assert_eq!(counts["unknown"], 1);
        assert_eq!(counts["up"], 1);
        assert_eq!(counts["down"], 1);
        assert_eq!(counts["degraded"], 0);
    }

    #[test]
    fn untrack_removes_source() {
        let m = monitor(1, 1);
        m.record_success(SRC, "d", 0);
        assert!(m.untrack(SRC));
        assert!(m.state_of(SRC).is_none());
        assert!(!m.untrack(SRC));
    }

    #[test]
    fn events_stamp_tracked_sources_only() {
        let m = monitor(3, 2);
        m.track(SRC);
        m.record_event("node00:snmp", 5);
        m.record_event("node09:snmp", 6);
        assert_eq!(m.snapshot_of(SRC).unwrap().last_event_ms, Some(5));
        assert_eq!(m.snapshot().len(), 1, "an event adds no row");
    }
}
