//! The Cache Controller (Fig 3, §4): query results are cached so that "a
//! heavily used GridRM Gateway can return a view of the recent status of a
//! site while limiting resource intrusion", and the same mechanism "is
//! used between gateways to increase scalability by reducing unnecessary
//! requests".

use gridrm_dbc::RowSet;
use gridrm_telemetry::{Counter, Registry};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A cached result with its capture time.
#[derive(Clone)]
pub struct CachedResult {
    /// The result rows.
    pub rows: Arc<RowSet>,
    /// Virtual capture time (ms).
    pub cached_at_ms: u64,
}

impl CachedResult {
    /// Age of the entry at `now_ms`.
    pub fn age_ms(&self, now_ms: u64) -> u64 {
        now_ms.saturating_sub(self.cached_at_ms)
    }
}

/// Cache counters (experiment E7), registered as
/// `gridrm_cache_events_total{event=…}`.
#[derive(Debug)]
pub struct CacheStats {
    /// Lookups that found a fresh entry.
    pub hits: Counter,
    /// Lookups that found nothing usable.
    pub misses: Counter,
    /// Entries stored.
    pub stores: Counter,
    /// Entries evicted/invalidated.
    pub invalidations: Counter,
}

/// Named point-in-time copy of [`CacheStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// Lookups that found a fresh entry.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries stored.
    pub stores: u64,
    /// Entries evicted/invalidated.
    pub invalidations: u64,
}

impl CacheStats {
    fn new(registry: &Registry) -> CacheStats {
        let [hits, misses, stores, invalidations] = registry.counters(
            "gridrm_cache_events_total",
            "Cache-controller lookup/store/invalidate events by kind",
            "event",
            ["hit", "miss", "store", "invalidate"],
        );
        CacheStats {
            hits,
            misses,
            stores,
            invalidations,
        }
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.get(),
            misses: self.misses.get(),
            stores: self.stores.get(),
            invalidations: self.invalidations.get(),
        }
    }
}

/// The gateway query-result cache.
pub struct CacheController {
    /// Entries by source URL, then SQL text: both levels are looked up
    /// by `&str`, so a lookup copies no key. No inner map is empty.
    entries: RwLock<BTreeMap<String, BTreeMap<String, CachedResult>>>,
    /// Default maximum age served, ms (clients may ask for fresher).
    default_ttl_ms: u64,
    stats: CacheStats,
}

impl CacheController {
    /// Controller with a default TTL, its counters created in `registry`.
    pub fn new(default_ttl_ms: u64, registry: &Registry) -> CacheController {
        CacheController {
            entries: RwLock::new(BTreeMap::new()),
            default_ttl_ms,
            stats: CacheStats::new(registry),
        }
    }

    /// The default TTL.
    pub fn default_ttl_ms(&self) -> u64 {
        self.default_ttl_ms
    }

    /// Look up a cached result no older than `max_age_ms` (`None` uses the
    /// default TTL).
    pub fn lookup(
        &self,
        source: &str,
        sql: &str,
        now_ms: u64,
        max_age_ms: Option<u64>,
    ) -> Option<CachedResult> {
        let limit = max_age_ms.unwrap_or(self.default_ttl_ms);
        let found = self
            .entries
            .read()
            .get(source)
            .and_then(|by_sql| by_sql.get(sql))
            .cloned();
        match found {
            Some(entry) if entry.age_ms(now_ms) <= limit => {
                self.stats.hits.inc();
                Some(entry)
            }
            _ => {
                self.stats.misses.inc();
                None
            }
        }
    }

    /// Store a fresh result.
    pub fn store(&self, source: &str, sql: &str, rows: Arc<RowSet>, now_ms: u64) {
        self.stats.stores.inc();
        let fresh = CachedResult {
            rows,
            cached_at_ms: now_ms,
        };
        let mut entries = self.entries.write();
        // Replacing an entry copies no key.
        if let Some(entry) = entries
            .get_mut(source)
            .and_then(|by_sql| by_sql.get_mut(sql))
        {
            *entry = fresh;
            return;
        }
        entries
            .entry(source.to_owned())
            .or_default()
            .insert(sql.to_owned(), fresh);
    }

    /// Invalidate all entries for one source (e.g. after a failure or an
    /// explicit poll). Returns how many entries were dropped.
    pub fn invalidate_source(&self, source: &str) -> usize {
        let dropped = self
            .entries
            .write()
            .remove(source)
            .map_or(0, |by_sql| by_sql.len());
        self.stats.invalidations.add(dropped as u64);
        dropped
    }

    /// Drop entries older than `max_age_ms` (housekeeping sweep).
    pub fn sweep(&self, now_ms: u64, max_age_ms: u64) -> usize {
        let mut entries = self.entries.write();
        let mut dropped = 0;
        entries.retain(|_, by_sql| {
            let before = by_sql.len();
            by_sql.retain(|_, e| e.age_ms(now_ms) <= max_age_ms);
            dropped += before - by_sql.len();
            !by_sql.is_empty()
        });
        self.stats.invalidations.add(dropped as u64);
        dropped
    }

    /// Every cached (source, sql, age) triple — feeds the admin tree view
    /// (Fig 9, "populated with cached data from queries issued within the
    /// local gateway").
    pub fn inventory(&self, now_ms: u64) -> Vec<(String, String, u64)> {
        let mut v: Vec<(String, String, u64)> = self
            .entries
            .read()
            .iter()
            .flat_map(|(s, by_sql)| {
                by_sql
                    .iter()
                    .map(move |(q, e)| (s.clone(), q.clone(), e.age_ms(now_ms)))
            })
            .collect();
        v.sort();
        v
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.read().values().map(BTreeMap::len).sum()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridrm_dbc::{ColumnMeta, ResultSetMetaData};
    use gridrm_sqlparse::SqlType;

    fn rows() -> Arc<RowSet> {
        Arc::new(RowSet::empty(ResultSetMetaData::new(vec![
            ColumnMeta::new("a", SqlType::Int),
        ])))
    }

    #[test]
    fn hit_within_ttl_miss_after() {
        let c = CacheController::new(5_000, &Registry::new());
        c.store("src", "SELECT 1", rows(), 1_000);
        assert!(c.lookup("src", "SELECT 1", 3_000, None).is_some());
        assert!(c.lookup("src", "SELECT 1", 7_000, None).is_none());
        let snap = c.stats().snapshot();
        assert_eq!((snap.hits, snap.misses, snap.stores), (1, 1, 1));
    }

    #[test]
    fn ttl_expiry_is_inclusive_at_the_boundary() {
        // An entry exactly `ttl` old is still served; one millisecond
        // older is not. Clients pinning `max_age_ms` get the same edge.
        let c = CacheController::new(5_000, &Registry::new());
        c.store("src", "q", rows(), 1_000);
        assert!(c.lookup("src", "q", 5_999, None).is_some(), "age ttl-1");
        assert!(c.lookup("src", "q", 6_000, None).is_some(), "age == ttl");
        assert!(c.lookup("src", "q", 6_001, None).is_none(), "age ttl+1");
        assert!(c.lookup("src", "q", 2_000, Some(1_000)).is_some());
        assert!(c.lookup("src", "q", 2_001, Some(1_000)).is_none());
        // Zero max-age only accepts a same-instant entry.
        assert!(c.lookup("src", "q", 1_000, Some(0)).is_some());
        assert!(c.lookup("src", "q", 1_001, Some(0)).is_none());
    }

    #[test]
    fn clock_skew_before_store_time_counts_as_age_zero() {
        // `age_ms` saturates: a lookup timestamped before the store (the
        // sim clock never goes backwards, but defensive code shouldn't
        // underflow) behaves like a fresh entry.
        let c = CacheController::new(5_000, &Registry::new());
        c.store("src", "q", rows(), 10_000);
        assert_eq!(c.lookup("src", "q", 9_000, None).unwrap().age_ms(9_000), 0);
    }

    #[test]
    fn sweep_keeps_entries_exactly_at_the_age_limit() {
        let c = CacheController::new(60_000, &Registry::new());
        c.store("a", "q1", rows(), 0);
        c.store("a", "q2", rows(), 1);
        // At now=20_000 with a 20_000 limit, q1 is exactly at the limit
        // (kept) and nothing is older.
        assert_eq!(c.sweep(20_000, 20_000), 0);
        // One millisecond later q1 crosses the line; q2 survives.
        assert_eq!(c.sweep(20_001, 20_000), 1);
        assert!(c.lookup("a", "q2", 20_001, None).is_some());
        assert!(c.lookup("a", "q1", 20_001, None).is_none());
    }

    #[test]
    fn client_max_age_overrides_default() {
        let c = CacheController::new(60_000, &Registry::new());
        c.store("src", "q", rows(), 0);
        // Client insists on ≤1s freshness.
        assert!(c.lookup("src", "q", 5_000, Some(1_000)).is_none());
        assert!(c.lookup("src", "q", 5_000, Some(10_000)).is_some());
    }

    #[test]
    fn keyed_by_source_and_sql() {
        let c = CacheController::new(5_000, &Registry::new());
        c.store("a", "q1", rows(), 0);
        assert!(c.lookup("a", "q2", 0, None).is_none());
        assert!(c.lookup("b", "q1", 0, None).is_none());
        assert!(c.lookup("a", "q1", 0, None).is_some());
    }

    #[test]
    fn invalidate_source_scoped() {
        let c = CacheController::new(5_000, &Registry::new());
        c.store("a", "q1", rows(), 0);
        c.store("a", "q2", rows(), 0);
        c.store("b", "q1", rows(), 0);
        assert_eq!(c.invalidate_source("a"), 2);
        assert_eq!(c.len(), 1);
        assert!(c.lookup("b", "q1", 0, None).is_some());
    }

    #[test]
    fn sweep_by_age() {
        let c = CacheController::new(60_000, &Registry::new());
        c.store("a", "q1", rows(), 0);
        c.store("a", "q2", rows(), 50_000);
        assert_eq!(c.sweep(60_000, 20_000), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn inventory_reports_ages() {
        let c = CacheController::new(5_000, &Registry::new());
        c.store("a", "q", rows(), 1_000);
        let inv = c.inventory(4_000);
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].2, 3_000);
    }

    #[test]
    fn age_never_negative() {
        let c = CacheController::new(5_000, &Registry::new());
        c.store("a", "q", rows(), 10_000);
        // Clock skew (entry "from the future") reads as age 0.
        assert!(c.lookup("a", "q", 5_000, None).is_some());
    }
}
