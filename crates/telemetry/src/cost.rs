//! The cost accounting plane: a [`CostLedger`] that attributes wire
//! bytes, messages, rows, driver fetch units and per-stage virtual time
//! to every request, subscription delta and probe.
//!
//! Costs are carried as [`CostVector`]s on trace spans and roll up the
//! span tree: when a child span finishes, its *inclusive* cost (its own
//! direct charges plus everything its children rolled up into it) is
//! credited to its parent through the ledger's pending table, so by the
//! time a root span commits, its cost vector is the whole query's bill.
//! Remote segments ship their spans — cost vectors included — back over
//! the wire, so a Grid fan-out's root accounts for work done on other
//! gateways too.
//!
//! Beyond per-query attribution the ledger keeps **intrusion**
//! accounting in the sense of Zhang et al.'s monitoring-system study:
//! messages and bytes imposed per Grid site, split by cause (`query`,
//! `probe`, `subscription`, `gossip`), with first/last timestamps so
//! per-virtual-second rates fall out. Rows where the site is the local
//! site are traffic this gateway *endured* (inbound wire service,
//! probes, local delta delivery); rows for other sites are traffic this
//! gateway *imposed* on them (fan-out segments, grid subscriptions,
//! event gossip).

use crate::journal::{Journal, JournalSeverity, KIND_COST_BUDGET};
use crate::metrics::{Counter, Labels, Registry};
use crate::trace::SpanText;
use gridrm_simnet::SimClock;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The additive cost of a piece of work. Every field defaults to zero
/// so pre-cost peers' wire messages (and persisted spans) still decode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostVector {
    /// Wire messages sent.
    #[serde(default)]
    pub msgs_out: u64,
    /// Wire messages received.
    #[serde(default)]
    pub msgs_in: u64,
    /// Wire bytes sent.
    #[serde(default)]
    pub bytes_out: u64,
    /// Wire bytes received.
    #[serde(default)]
    pub bytes_in: u64,
    /// Rows materialised by drivers (before any consolidation).
    #[serde(default)]
    pub rows_scanned: u64,
    /// Rows returned to the requester (or shipped in a delta).
    #[serde(default)]
    pub rows_returned: u64,
    /// Native driver fetches (one per driver execute attempt).
    #[serde(default)]
    pub fetch_units: u64,
    /// Virtual milliseconds attributed to the charged stage.
    #[serde(default)]
    pub stage_ms: u64,
}

impl CostVector {
    /// Element-wise saturating addition.
    pub fn add(&mut self, other: &CostVector) {
        self.msgs_out = self.msgs_out.saturating_add(other.msgs_out);
        self.msgs_in = self.msgs_in.saturating_add(other.msgs_in);
        self.bytes_out = self.bytes_out.saturating_add(other.bytes_out);
        self.bytes_in = self.bytes_in.saturating_add(other.bytes_in);
        self.rows_scanned = self.rows_scanned.saturating_add(other.rows_scanned);
        self.rows_returned = self.rows_returned.saturating_add(other.rows_returned);
        self.fetch_units = self.fetch_units.saturating_add(other.fetch_units);
        self.stage_ms = self.stage_ms.saturating_add(other.stage_ms);
    }

    /// Messages in either direction.
    pub fn total_msgs(&self) -> u64 {
        self.msgs_out.saturating_add(self.msgs_in)
    }

    /// Bytes in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_out.saturating_add(self.bytes_in)
    }

    /// True when every component is zero.
    pub fn is_zero(&self) -> bool {
        *self == CostVector::default()
    }
}

/// Why traffic was imposed on a site — the closed intrusion cause set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum IntrusionCause {
    /// Consolidated/realtime query traffic (fan-out segments, inbound
    /// query service).
    Query,
    /// Active health probes.
    Probe,
    /// Continuous-query subscriptions and delta delivery.
    Subscription,
    /// Inter-gateway event propagation.
    Gossip,
}

impl IntrusionCause {
    /// Lower-case label value (`query`, `probe`, `subscription`,
    /// `gossip`).
    pub fn name(&self) -> &'static str {
        match self {
            IntrusionCause::Query => "query",
            IntrusionCause::Probe => "probe",
            IntrusionCause::Subscription => "subscription",
            IntrusionCause::Gossip => "gossip",
        }
    }

    /// All causes, in label order.
    pub fn all() -> [IntrusionCause; 4] {
        [
            IntrusionCause::Query,
            IntrusionCause::Probe,
            IntrusionCause::Subscription,
            IntrusionCause::Gossip,
        ]
    }
}

/// One completed root request's bill, retained in a bounded ring and
/// served as the `gridrm_query_costs` virtual table.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCostEntry {
    /// The trace whose root this entry bills.
    pub trace_id: String,
    /// Site of the gateway that ran the root.
    pub site: String,
    /// Request label / SQL summary.
    pub request: String,
    /// Virtual start time of the root span.
    pub started_ms: u64,
    /// Virtual end time of the root span.
    pub finished_ms: u64,
    /// The inclusive cost (root + descendants, remote spans included).
    pub cost: CostVector,
    /// True when the configured cost budget was exceeded.
    pub over_budget: bool,
}

/// A root span's bill as the ledger keeps it, its texts unrendered:
/// [`CostLedger::visit_entries`] lends it, and [`CostLedger::entries`]
/// renders it as a [`QueryCostEntry`].
#[derive(Debug, Clone)]
pub struct RootBill {
    pub(crate) trace_id: SpanText,
    pub(crate) site: SpanText,
    pub(crate) request: SpanText,
    pub(crate) started_ms: u64,
    pub(crate) finished_ms: u64,
    pub(crate) cost: CostVector,
}

impl RootBill {
    /// See [`QueryCostEntry::trace_id`].
    pub fn trace_id(&self) -> &SpanText {
        &self.trace_id
    }

    /// See [`QueryCostEntry::site`].
    pub fn site(&self) -> &SpanText {
        &self.site
    }

    /// See [`QueryCostEntry::request`].
    pub fn request(&self) -> &SpanText {
        &self.request
    }

    /// See [`QueryCostEntry::started_ms`].
    pub fn started_ms(&self) -> u64 {
        self.started_ms
    }

    /// See [`QueryCostEntry::finished_ms`].
    pub fn finished_ms(&self) -> u64 {
        self.finished_ms
    }

    /// See [`QueryCostEntry::cost`].
    pub fn cost(&self) -> &CostVector {
        &self.cost
    }

    fn render(&self, over_budget: bool) -> QueryCostEntry {
        QueryCostEntry {
            trace_id: self.trace_id.to_string(),
            site: self.site.to_string(),
            request: self.request.to_string(),
            started_ms: self.started_ms,
            finished_ms: self.finished_ms,
            cost: self.cost,
            over_budget,
        }
    }
}

/// Costs parked under parent spans that have not finished yet.
#[derive(Default)]
struct Pending {
    /// Parent span's numeric id → (entry number, cost so far).
    bills: BTreeMap<u64, (u64, CostVector)>,
    /// Entries ever opened; numbers them oldest first.
    opened: u64,
}

/// Accumulated intrusion for one `(site, cause)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntrusionBucket {
    /// Messages imposed (both directions).
    pub msgs: u64,
    /// Bytes imposed (both directions).
    pub bytes: u64,
    /// Virtual time of the first charge.
    pub first_ms: u64,
    /// Virtual time of the most recent charge.
    pub last_ms: u64,
}

impl IntrusionBucket {
    /// The observation window, floored at one virtual second so rates
    /// stay finite for single-shot charges.
    pub fn window_ms(&self) -> u64 {
        self.last_ms.saturating_sub(self.first_ms).max(1_000)
    }

    /// Messages per virtual second over the observation window.
    pub fn msgs_per_vsec(&self) -> f64 {
        self.msgs as f64 * 1_000.0 / self.window_ms() as f64
    }

    /// Bytes per virtual second over the observation window.
    pub fn bytes_per_vsec(&self) -> f64 {
        self.bytes as f64 * 1_000.0 / self.window_ms() as f64
    }
}

/// One row of the intrusion snapshot: a `(site, cause)` bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct IntrusionRow {
    /// The Grid site the traffic was imposed on.
    pub site: String,
    /// Why (`query` / `probe` / `subscription` / `gossip`).
    pub cause: String,
    /// Accumulated messages and bytes with the observation window.
    pub bucket: IntrusionBucket,
}

/// Per-cause intrusion counter cells (messages + bytes).
#[derive(Debug)]
struct CauseCells {
    msgs: Counter,
    bytes: Counter,
}

/// Default number of completed query-cost entries retained.
pub const DEFAULT_COST_ENTRIES: usize = 256;
/// Default bound on the pending (in-flight roll-up) table.
pub const DEFAULT_COST_PENDING: usize = 1_024;

/// The per-gateway cost accounting ledger. Shared cells, lock-cheap;
/// cloneable via the hub's `Arc`.
pub struct CostLedger {
    clock: Arc<SimClock>,
    journal: Arc<Journal>,
    /// Costs rolled up from finished children, keyed by the parent
    /// span's numeric id, awaiting the parent's own finish.
    pending: Mutex<Pending>,
    pending_cap: usize,
    /// Completed root entries with their budget verdicts, oldest
    /// evicted first.
    entries: Mutex<VecDeque<(RootBill, bool)>>,
    entries_cap: usize,
    /// Intrusion buckets by site, then cause name.
    intrusion: Mutex<BTreeMap<String, BTreeMap<&'static str, IntrusionBucket>>>,
    /// Budget knobs (0 = disabled).
    budget_bytes: AtomicU64,
    budget_rows: AtomicU64,
    // Direct-charge counters, exposed as the gridrm_cost_* family.
    msgs_out: Counter,
    msgs_in: Counter,
    bytes_out: Counter,
    bytes_in: Counter,
    rows_scanned: Counter,
    rows_returned: Counter,
    fetch_units: Counter,
    /// Ledger-side evictions (pending-table overflow + entry-ring
    /// eviction), exposed as `gridrm_cost_drops_total`: loss of cost
    /// data is itself observable, exactly like trace/journal drops.
    drops: Counter,
    /// Per-cause intrusion counters, exposed as gridrm_intrusion_*.
    cause_cells: BTreeMap<&'static str, CauseCells>,
}

impl CostLedger {
    /// Ledger over the gateway clock and journal, default capacities,
    /// its `gridrm_cost_*` / `gridrm_intrusion_*` counters created in
    /// `registry`.
    pub fn new(clock: Arc<SimClock>, journal: Arc<Journal>, registry: &Registry) -> CostLedger {
        let [msgs_out, msgs_in] = registry.counters(
            "gridrm_cost_msgs_total",
            "Wire messages attributed by the cost ledger, by direction",
            "dir",
            ["out", "in"],
        );
        let [bytes_out, bytes_in] = registry.counters(
            "gridrm_cost_bytes_total",
            "Wire bytes attributed by the cost ledger, by direction",
            "dir",
            ["out", "in"],
        );
        let [rows_scanned, rows_returned] = registry.counters(
            "gridrm_cost_rows_total",
            "Rows attributed by the cost ledger: driver-materialised (scanned) vs client-shipped (returned)",
            "kind",
            ["scanned", "returned"],
        );
        let cause_cells = IntrusionCause::all()
            .into_iter()
            .map(|cause| {
                let labels = || Labels::from_pairs(&[("cause", cause.name())]);
                let cells = CauseCells {
                    msgs: registry.counter(
                        "gridrm_intrusion_msgs_total",
                        "Messages imposed on Grid sites, by cause",
                        labels(),
                    ),
                    bytes: registry.counter(
                        "gridrm_intrusion_bytes_total",
                        "Bytes imposed on Grid sites, by cause",
                        labels(),
                    ),
                };
                (cause.name(), cells)
            })
            .collect();
        CostLedger {
            clock,
            journal,
            pending: Mutex::new(Pending::default()),
            pending_cap: DEFAULT_COST_PENDING,
            entries: Mutex::new(VecDeque::new()),
            entries_cap: DEFAULT_COST_ENTRIES,
            intrusion: Mutex::new(BTreeMap::new()),
            budget_bytes: AtomicU64::new(0),
            budget_rows: AtomicU64::new(0),
            msgs_out,
            msgs_in,
            bytes_out,
            bytes_in,
            rows_scanned,
            rows_returned,
            fetch_units: registry.counter(
                "gridrm_cost_fetch_units_total",
                "Native driver fetches attributed by the cost ledger",
                Labels::none(),
            ),
            drops: registry.counter(
                "gridrm_cost_drops_total",
                "Cost-ledger records evicted (pending roll-ups or completed entries) before being read",
                Labels::none(),
            ),
            cause_cells,
        }
    }

    /// Set the per-query budget knobs (0 disables a dimension). A root
    /// whose inclusive cost exceeds either limit is journalled.
    pub fn set_budget(&self, bytes: u64, rows: u64) {
        self.budget_bytes.store(bytes, Ordering::Relaxed);
        self.budget_rows.store(rows, Ordering::Relaxed);
    }

    /// The configured `(bytes, rows)` budget.
    pub fn budget(&self) -> (u64, u64) {
        (
            self.budget_bytes.load(Ordering::Relaxed),
            self.budget_rows.load(Ordering::Relaxed),
        )
    }

    /// Count a *direct* charge into the gateway-wide cost counters.
    /// Roll-ups never come through here, so nothing is double counted.
    pub fn count(&self, v: &CostVector) {
        self.msgs_out.add(v.msgs_out);
        self.msgs_in.add(v.msgs_in);
        self.bytes_out.add(v.bytes_out);
        self.bytes_in.add(v.bytes_in);
        self.rows_scanned.add(v.rows_scanned);
        self.rows_returned.add(v.rows_returned);
        self.fetch_units.add(v.fetch_units);
    }

    /// Charge intrusion against a `(site, cause)` bucket: messages and
    /// bytes only, stamped with the current virtual time.
    pub fn intrude(&self, site: &str, cause: IntrusionCause, v: &CostVector) {
        let (msgs, bytes) = (v.total_msgs(), v.total_bytes());
        if msgs == 0 && bytes == 0 {
            return;
        }
        let cells = &self.cause_cells[cause.name()];
        cells.msgs.add(msgs);
        cells.bytes.add(bytes);
        let now = self.clock.now_millis();
        let mut intrusion = self.intrusion.lock();
        let fresh = IntrusionBucket {
            msgs: 0,
            bytes: 0,
            first_ms: now,
            last_ms: now,
        };
        // Look the site up before inserting: a site seen before costs
        // no key copy.
        let bucket = match intrusion.get_mut(site) {
            Some(causes) => causes.entry(cause.name()).or_insert(fresh),
            None => intrusion
                .entry(site.to_owned())
                .or_default()
                .entry(cause.name())
                .or_insert(fresh),
        };
        bucket.msgs = bucket.msgs.saturating_add(msgs);
        bucket.bytes = bucket.bytes.saturating_add(bytes);
        bucket.last_ms = bucket.last_ms.max(now);
    }

    /// Credit a finished child's inclusive cost to its parent span, by
    /// the parent's numeric id. Only a parent that finishes on this
    /// gateway is ever credited here. The pending table is still
    /// bounded, against a parent that never finishes (a leaked
    /// builder): overflow evicts the oldest entry and counts a drop.
    pub fn roll_up(&self, parent: u64, v: &CostVector) {
        if v.is_zero() {
            return;
        }
        let mut pending = self.pending.lock();
        if let Some((_, cost)) = pending.bills.get_mut(&parent) {
            cost.add(v);
            return;
        }
        if pending.bills.len() >= self.pending_cap {
            let oldest = pending
                .bills
                .iter()
                .min_by_key(|(_, (opened, _))| *opened)
                .map(|(k, _)| *k);
            if let Some(k) = oldest {
                pending.bills.remove(&k);
                self.drops.inc();
            }
        }
        let opened = pending.opened;
        pending.opened += 1;
        pending.bills.insert(parent, (opened, *v));
    }

    /// Take (and clear) the cost rolled up under a span's numeric id.
    pub fn take_pending(&self, span: u64) -> CostVector {
        self.pending
            .lock()
            .bills
            .remove(&span)
            .map(|(_, cost)| cost)
            .unwrap_or_default()
    }

    /// Record a completed root's bill: append the ring entry (evictions
    /// counted as drops) and journal a budget breach. The verdict is
    /// returned so the caller can stamp the span. `source` only labels
    /// the journal entry (falls back to the request text).
    pub(crate) fn note_root(&self, entry: RootBill, source: Option<&SpanText>) -> bool {
        let cost = &entry.cost;
        let (budget_bytes, budget_rows) = self.budget();
        let over_bytes = budget_bytes > 0 && cost.total_bytes() > budget_bytes;
        let over_rows = budget_rows > 0 && cost.rows_returned > budget_rows;
        let over_budget = over_bytes || over_rows;
        if over_budget {
            let what = match (over_bytes, over_rows) {
                (true, true) => format!(
                    "{}B > {budget_bytes}B and {} rows > {budget_rows} rows",
                    cost.total_bytes(),
                    cost.rows_returned
                ),
                (true, false) => format!("{}B > {budget_bytes}B", cost.total_bytes()),
                _ => format!("{} rows > {budget_rows} rows", cost.rows_returned),
            };
            self.journal.record_traced(
                self.clock.now_millis(),
                JournalSeverity::Warning,
                KIND_COST_BUDGET,
                &source.unwrap_or(&entry.request).to_string(),
                None,
                Some("cost"),
                &format!("query cost over budget: {what}"),
                Some(&entry.trace_id.to_string()),
            );
        }
        let mut entries = self.entries.lock();
        if entries.len() == self.entries_cap {
            entries.pop_front();
            self.drops.inc();
        }
        entries.push_back((entry, over_budget));
        over_budget
    }

    /// Completed root entries, oldest first.
    pub fn entries(&self) -> Vec<QueryCostEntry> {
        self.entries
            .lock()
            .iter()
            .map(|(bill, over_budget)| bill.render(*over_budget))
            .collect()
    }

    /// Lend each completed root entry, oldest first, with its budget
    /// verdict, rendering nothing. `f` runs under the entry ring's lock,
    /// so it must take no other lock.
    pub fn visit_entries(&self, mut f: impl FnMut(&RootBill, bool)) {
        for (bill, over_budget) in self.entries.lock().iter() {
            f(bill, *over_budget);
        }
    }

    /// The intrusion buckets, ordered by `(site, cause)`.
    pub fn intrusion_snapshot(&self) -> Vec<IntrusionRow> {
        self.intrusion
            .lock()
            .iter()
            .flat_map(|(site, causes)| {
                causes.iter().map(move |(cause, bucket)| IntrusionRow {
                    site: site.clone(),
                    cause: (*cause).to_owned(),
                    bucket: *bucket,
                })
            })
            .collect()
    }

    /// Flush the pending roll-up table: any cost still parked under a
    /// span id is dropped (and counted) — these belong to parents that
    /// will never finish, e.g. leaked builders. Returns
    /// the number of entries dropped. Ring evictions racing a flush are
    /// still counted: both paths share the same `drops` cell.
    pub fn flush(&self) -> usize {
        let mut pending = self.pending.lock();
        let dropped = pending.bills.len();
        if dropped > 0 {
            self.drops.add(dropped as u64);
            pending.bills.clear();
        }
        dropped
    }

    /// Shared counter of ledger records evicted before being read.
    pub fn drops(&self) -> &Counter {
        &self.drops
    }

    /// Point-in-time copy of the direct-charge totals.
    pub fn totals(&self) -> CostVector {
        CostVector {
            msgs_out: self.msgs_out.get(),
            msgs_in: self.msgs_in.get(),
            bytes_out: self.bytes_out.get(),
            bytes_in: self.bytes_in.get(),
            rows_scanned: self.rows_scanned.get(),
            rows_returned: self.rows_returned.get(),
            fetch_units: self.fetch_units.get(),
            stage_ms: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> CostLedger {
        ledger_at(SimClock::new())
    }

    fn ledger_at(clock: Arc<SimClock>) -> CostLedger {
        let registry = Registry::new();
        CostLedger::new(clock, Arc::new(Journal::new(16, &registry)), &registry)
    }

    fn v(bytes_out: u64, rows: u64) -> CostVector {
        CostVector {
            msgs_out: 1,
            bytes_out,
            rows_returned: rows,
            ..CostVector::default()
        }
    }

    fn entry(trace_id: &str, request: &str, cost: CostVector) -> RootBill {
        RootBill {
            trace_id: SpanText::from(trace_id.to_owned()),
            site: SpanText::from("s"),
            request: SpanText::from(request.to_owned()),
            started_ms: 0,
            finished_ms: 1,
            cost,
        }
    }

    #[test]
    fn vector_addition_saturates_and_roundtrips() {
        let mut a = v(10, 2);
        a.add(&v(u64::MAX, 3));
        assert_eq!(a.bytes_out, u64::MAX);
        assert_eq!(a.rows_returned, 5);
        assert_eq!(a.msgs_out, 2);
        let json = serde_json::to_string(&a).unwrap();
        let back: CostVector = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn legacy_json_without_cost_fields_defaults_zero() {
        let back: CostVector = serde_json::from_str("{}").unwrap();
        assert!(back.is_zero());
    }

    #[test]
    fn roll_up_accumulates_until_taken() {
        let l = ledger();
        l.roll_up(1, &v(100, 1));
        l.roll_up(1, &v(50, 2));
        let got = l.take_pending(1);
        assert_eq!(got.bytes_out, 150);
        assert_eq!(got.rows_returned, 3);
        assert!(l.take_pending(1).is_zero());
    }

    #[test]
    fn note_root_journals_budget_breach() {
        let l = ledger();
        l.set_budget(1_000, 0);
        assert!(!l.note_root(entry("t:1", "q1", v(500, 1)), None));
        assert!(l.note_root(entry("t:2", "q2", v(2_000, 1)), None));
        let breaches = l.journal.recent_of_kind(KIND_COST_BUDGET);
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].trace_id.as_deref(), Some("t:2"));
        let entries = l.entries();
        assert_eq!(entries.len(), 2);
        assert!(!entries[0].over_budget);
        assert!(entries[1].over_budget);
    }

    #[test]
    fn intrusion_buckets_rate_per_virtual_second() {
        let clock = SimClock::new();
        let l = ledger_at(clock.clone());
        l.intrude("beta", IntrusionCause::Query, &v(1_000, 0));
        clock.advance(4_000);
        l.intrude("beta", IntrusionCause::Query, &v(1_000, 0));
        let rows = l.intrusion_snapshot();
        assert_eq!(rows.len(), 1);
        let b = &rows[0].bucket;
        assert_eq!(b.msgs, 2);
        assert_eq!(b.bytes, 2_000);
        assert_eq!(b.window_ms(), 4_000);
        assert!((b.msgs_per_vsec() - 0.5).abs() < 1e-9);
        assert!((b.bytes_per_vsec() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn pending_table_is_bounded_and_flush_counts_drops() {
        let mut l = ledger();
        l.pending_cap = 2;
        l.roll_up(3, &v(1, 0));
        l.roll_up(1, &v(1, 0));
        l.roll_up(3, &v(1, 0)); // an entry already open: no eviction
        l.roll_up(2, &v(1, 0)); // evicts 3, the oldest entry
        assert_eq!(l.drops().get(), 1);
        assert!(l.take_pending(3).is_zero());
        assert_eq!(l.flush(), 2); // 1 and 2 still parked
        assert_eq!(l.drops().get(), 3);
        assert_eq!(l.flush(), 0);
    }

    #[test]
    fn entry_ring_evicts_and_counts_drops_during_concurrent_flush() {
        // Satellite regression: ring evictions that happen while a
        // ledger flush is in progress must still be counted — both
        // paths hit the same shared drops cell, from different threads.
        let mut l = ledger();
        l.entries_cap = 8;
        let l = Arc::new(l);
        std::thread::scope(|s| {
            let flusher = l.clone();
            s.spawn(move || {
                for i in 0..200 {
                    flusher.roll_up(i, &v(1, 0));
                    flusher.flush();
                }
            });
            let writer = l.clone();
            s.spawn(move || {
                for i in 0..100 {
                    writer.note_root(entry(&format!("t:{i}"), "q", v(1, 0)), None);
                }
            });
        });
        // 100 entries into a ring of 8: exactly 92 ring evictions, plus
        // every flushed pending roll-up, all present in the one counter.
        assert_eq!(l.entries().len(), 8);
        assert!(l.drops().get() >= 92, "drops = {}", l.drops().get());
    }

    #[test]
    fn counters_track_direct_charges_only() {
        let l = ledger();
        l.count(&v(100, 5));
        l.roll_up(1, &v(999, 9)); // roll-ups are not recounted
        let t = l.totals();
        assert_eq!(t.bytes_out, 100);
        assert_eq!(t.rows_returned, 5);
        assert_eq!(t.msgs_out, 1);
    }
}
