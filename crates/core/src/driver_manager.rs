//! The GridRM Driver Manager (paper §3.1.3): registers/unregisters
//! drivers, performs driver-to-resource allocation either **statically**
//! ("using driver preferences registered in advance by the user") or
//! **dynamically** ("selects a compatible driver at runtime"), keeps a
//! cache of "the driver last successfully used for a data source", and
//! applies configurable failure policies ("retry the driver, try another,
//! report the error", §3.1.3/§4).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use gridrm_dbc::{DbcResult, Driver, DriverManager, JdbcUrl, SqlError};
use gridrm_telemetry::{Counter, Registry, SpanBuilder, SpanText, Stage};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What to do when the selected driver fails a request (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FailurePolicy {
    /// "Provide notification of a connection failure": surface the error.
    Report,
    /// "Retry the specified drivers for n iterations".
    Retry(u32),
    /// "Dynamically select a new driver from the set of registered
    /// drivers", excluding those that already failed.
    #[default]
    TryNext,
}

impl FailurePolicy {
    /// The policy as `Debug` prints it; the unit variants need no
    /// formatting.
    fn describe(self) -> SpanText {
        match self {
            FailurePolicy::Report => SpanText::from("Report"),
            FailurePolicy::TryNext => SpanText::from("TryNext"),
            FailurePolicy::Retry(_) => SpanText::from(format!("{self:?}")),
        }
    }
}

/// Selection-path counters (experiment E5), registered as
/// `gridrm_driver_resolutions_total{path=…}`.
#[derive(Debug)]
pub struct ResolutionStats {
    /// Total resolutions requested.
    pub resolutions: Counter,
    /// Served from the last-success cache.
    pub cache_hits: Counter,
    /// Served from static preferences.
    pub static_hits: Counter,
    /// Fell through to a dynamic `accepts_url` scan.
    pub dynamic_scans: Counter,
    /// Cache invalidations after failures.
    pub invalidations: Counter,
}

/// Named point-in-time copy of [`ResolutionStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolutionSnapshot {
    /// Total resolutions requested.
    pub resolutions: u64,
    /// Served from the last-success cache.
    pub cache_hits: u64,
    /// Served from static preferences.
    pub static_hits: u64,
    /// Fell through to a dynamic `accepts_url` scan.
    pub dynamic_scans: u64,
    /// Cache invalidations after failures.
    pub invalidations: u64,
}

impl ResolutionStats {
    fn new(registry: &Registry) -> ResolutionStats {
        let [resolutions, cache_hits, static_hits, dynamic_scans, invalidations] = registry
            .counters(
                "gridrm_driver_resolutions_total",
                "Driver-manager resolution outcomes by path",
                "path",
                [
                    "resolutions",
                    "cache_hits",
                    "static_hits",
                    "dynamic_scans",
                    "invalidations",
                ],
            );
        ResolutionStats {
            resolutions,
            cache_hits,
            static_hits,
            dynamic_scans,
            invalidations,
        }
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> ResolutionSnapshot {
        ResolutionSnapshot {
            resolutions: self.resolutions.get(),
            cache_hits: self.cache_hits.get(),
            static_hits: self.static_hits.get(),
            dynamic_scans: self.dynamic_scans.get(),
            invalidations: self.invalidations.get(),
        }
    }
}

/// The GridRM Driver Manager wrapping the base registry.
pub struct GridRMDriverManager {
    base: DriverManager,
    /// Per-source prioritised driver-name preferences (Fig 8's "register a
    /// number of drivers to be used in prioritised order").
    preferences: RwLock<HashMap<String, Vec<String>>>,
    /// Per-source last successfully used driver.
    last_success: RwLock<HashMap<String, Arc<str>>>,
    /// Per-source failure policy, with a gateway-wide default.
    policies: RwLock<HashMap<String, FailurePolicy>>,
    default_policy: RwLock<FailurePolicy>,
    stats: ResolutionStats,
}

impl GridRMDriverManager {
    /// Empty manager with the default failure policy, its counters
    /// created in `registry`.
    pub fn new(registry: &Registry) -> GridRMDriverManager {
        GridRMDriverManager {
            base: DriverManager::new(),
            preferences: RwLock::new(HashMap::new()),
            last_success: RwLock::new(HashMap::new()),
            policies: RwLock::new(HashMap::new()),
            default_policy: RwLock::new(FailurePolicy::default()),
            stats: ResolutionStats::new(registry),
        }
    }

    /// The wrapped base registry (registration API, Table 1).
    pub fn base(&self) -> &DriverManager {
        &self.base
    }

    /// Register a driver plug-in (runtime-safe, §3.2).
    pub fn register(&self, driver: Arc<dyn Driver>) {
        self.base.register(driver);
    }

    /// Unregister a driver and purge it from caches/preferences so future
    /// resolutions cannot hand it out.
    pub fn unregister(&self, name: &str) -> bool {
        let removed = self.base.unregister(name);
        if removed {
            self.last_success.write().retain(|_, d| **d != *name);
        }
        removed
    }

    /// Set (replace) the user's prioritised driver preference for a source.
    pub fn set_preferences(&self, url: &JdbcUrl, drivers: Vec<String>) {
        self.preferences.write().insert(url.to_string(), drivers);
    }

    /// Clear a source's preferences.
    pub fn clear_preferences(&self, url: &JdbcUrl) -> bool {
        self.preferences.write().remove(&url.to_string()).is_some()
    }

    /// Configure the failure policy for one source.
    pub fn set_policy(&self, url: &JdbcUrl, policy: FailurePolicy) {
        self.policies.write().insert(url.to_string(), policy);
    }

    /// Configure the gateway-wide default failure policy.
    pub fn set_default_policy(&self, policy: FailurePolicy) {
        *self.default_policy.write() = policy;
    }

    /// The failure policy in force for a source.
    pub fn policy_for(&self, url: &JdbcUrl) -> FailurePolicy {
        self.policy_for_key(&url.to_string())
    }

    /// [`GridRMDriverManager::policy_for`] by the source's canonical
    /// URL text.
    pub(crate) fn policy_for_key(&self, key: &str) -> FailurePolicy {
        self.policies
            .read()
            .get(key)
            .copied()
            .unwrap_or(*self.default_policy.read())
    }

    /// Resolve the driver for `url`, excluding drivers named in `exclude`
    /// (used by the TryNext policy). Order: last-success cache → static
    /// preferences → dynamic scan (Table 2).
    pub fn resolve_excluding(
        &self,
        url: &JdbcUrl,
        exclude: &[String],
    ) -> DbcResult<Arc<dyn Driver>> {
        self.resolve_excluding_traced(url, exclude, None)
    }

    /// [`GridRMDriverManager::resolve_excluding`] with an optional span:
    /// the resolution records which cache/preference/`accepts_url`
    /// candidates it weighed (`resolve_cache`, `resolve_candidate`), the
    /// failure policy in force (`resolve_policy`) and the final pick
    /// (`resolve_chosen`) — the raw material for `EXPLAIN`'s "why this
    /// driver" answer.
    pub fn resolve_excluding_traced(
        &self,
        url: &JdbcUrl,
        exclude: &[String],
        span: Option<&mut SpanBuilder>,
    ) -> DbcResult<Arc<dyn Driver>> {
        self.resolve_keyed(url, &url.to_string(), exclude, span)
    }

    /// [`GridRMDriverManager::resolve_excluding_traced`] for a source
    /// whose canonical URL text `key` the caller already holds.
    pub(crate) fn resolve_keyed(
        &self,
        url: &JdbcUrl,
        key: &str,
        exclude: &[String],
        mut span: Option<&mut SpanBuilder>,
    ) -> DbcResult<Arc<dyn Driver>> {
        self.stats.resolutions.inc();
        let traced = span.is_some();
        let mut note = |stage: Stage, detail: SpanText| {
            if let Some(s) = span.as_deref_mut() {
                s.stage_with(stage, detail);
            }
        };
        if traced {
            note(Stage::ResolvePolicy, self.policy_for_key(key).describe());
        }

        // 1. Last-success cache ("for performance, the GridRMDriverManager
        //    maintains a cache containing details of the driver last
        //    successfully used for a data source").
        let cached = self.last_success.read().get(key).cloned();
        match cached {
            Some(name) if exclude.iter().any(|e| **e == *name) => {
                note(
                    Stage::ResolveCache,
                    SpanText::around(&["", " excluded"], &name),
                );
            }
            Some(name) => {
                if let Some(d) = self.base.get_by_name(&name) {
                    self.stats.cache_hits.inc();
                    note(Stage::ResolveCache, SpanText::around(&["hit ", ""], &name));
                    note(
                        Stage::ResolveChosen,
                        SpanText::around(&["", " via cache"], &name),
                    );
                    return Ok(d);
                }
                note(
                    Stage::ResolveCache,
                    SpanText::around(&["stale ", ""], &name),
                );
            }
            None => note(Stage::ResolveCache, SpanText::from("miss")),
        }

        // 2. Static preferences, in priority order.
        let prefs = self.preferences.read().get(key).cloned();
        if let Some(prefs) = prefs {
            for name in &prefs {
                if exclude.contains(name) {
                    note(
                        Stage::ResolveCandidate,
                        format!("{name} static excluded").into(),
                    );
                    continue;
                }
                if let Some(d) = self.base.get_by_name(name) {
                    self.stats.static_hits.inc();
                    note(
                        Stage::ResolveCandidate,
                        format!("{name} static accepted").into(),
                    );
                    note(
                        Stage::ResolveChosen,
                        format!("{name} via static preference").into(),
                    );
                    return Ok(d);
                }
                note(
                    Stage::ResolveCandidate,
                    format!("{name} static unregistered").into(),
                );
            }
            // Explicit preferences exist but none are usable: that is a
            // configuration-level failure the user asked to control; fall
            // through to dynamic selection only under TryNext.
            if self.policy_for_key(key) != FailurePolicy::TryNext {
                return Err(SqlError::NoSuitableDriver(format!(
                    "{key} (preferred drivers unavailable)"
                )));
            }
        }

        // 3. Dynamic selection (Table 2's accepts_url scan).
        self.stats.dynamic_scans.inc();
        if !traced && exclude.is_empty() {
            // Untraced fast path through the base registry's own scan.
            return self.base.locate(url);
        }
        // The traced scan below counts like `DriverManager::locate` does.
        let scan = self.base.stats();
        scan.scans.fetch_add(1, Ordering::Relaxed);
        let drivers = self.base.drivers();
        for d in drivers {
            let name = d.name();
            if exclude.contains(&name) {
                note(
                    Stage::ResolveCandidate,
                    format!("{name} accepts_url excluded").into(),
                );
                continue;
            }
            scan.probes.fetch_add(1, Ordering::Relaxed);
            if d.accepts_url(url) {
                note(
                    Stage::ResolveCandidate,
                    format!("{name} accepts_url accepted").into(),
                );
                note(
                    Stage::ResolveChosen,
                    format!("{name} via accepts_url scan").into(),
                );
                return Ok(d);
            }
            note(
                Stage::ResolveCandidate,
                format!("{name} accepts_url rejected").into(),
            );
        }
        Err(SqlError::NoSuitableDriver(key.to_owned()))
    }

    /// Resolve with no exclusions.
    pub fn resolve(&self, url: &JdbcUrl) -> DbcResult<Arc<dyn Driver>> {
        self.resolve_excluding(url, &[])
    }

    /// Record a successful use of `driver` for `url` (feeds the cache).
    pub fn record_success(&self, url: &JdbcUrl, driver: &str) {
        self.record_success_key(&url.to_string(), &Arc::from(driver));
    }

    /// [`GridRMDriverManager::record_success`] by the source's canonical
    /// URL text. The cache is written only when its answer changes.
    pub(crate) fn record_success_key(&self, key: &str, driver: &Arc<str>) {
        if self
            .last_success
            .read()
            .get(key)
            .is_some_and(|cached| cached == driver)
        {
            return;
        }
        self.last_success
            .write()
            .insert(key.to_owned(), Arc::clone(driver));
    }

    /// Record a failed use: "configuration rules determine the actions that
    /// should occur if a cached driver reference is no longer valid" — at
    /// minimum the stale cache entry is dropped.
    pub fn record_failure(&self, url: &JdbcUrl, driver: &str) {
        self.record_failure_key(&url.to_string(), driver);
    }

    /// [`GridRMDriverManager::record_failure`] by the source's canonical
    /// URL text.
    pub(crate) fn record_failure_key(&self, key: &str, driver: &str) {
        let mut cache = self.last_success.write();
        if cache.get(key).is_some_and(|cached| **cached == *driver) {
            cache.remove(key);
            self.stats.invalidations.inc();
        }
    }

    /// Drop the cached last-success driver for `url` regardless of which
    /// driver is cached. Used on probe-driven health recovery: the cache
    /// may be pinned to a fallback driver, and clearing it lets the next
    /// resolution re-promote the preferred (now recovered) driver via
    /// static preferences or a dynamic scan.
    pub fn invalidate_cached_driver(&self, url: &JdbcUrl) -> bool {
        let removed = self.last_success.write().remove(&url.to_string()).is_some();
        if removed {
            self.stats.invalidations.inc();
        }
        removed
    }

    /// The cached last-success driver for a source, if any.
    pub fn cached_driver(&self, url: &JdbcUrl) -> Option<String> {
        self.last_success
            .read()
            .get(&url.to_string())
            .map(|name| name.to_string())
    }

    /// Selection counters.
    pub fn stats(&self) -> &ResolutionStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridrm_dbc::{Connection, DriverMetaData, Properties};

    struct FakeDriver {
        name: &'static str,
        proto: &'static str,
        accept_wildcard: bool,
    }
    impl Driver for FakeDriver {
        fn meta(&self) -> DriverMetaData {
            DriverMetaData {
                name: self.name.to_owned(),
                subprotocol: self.proto.to_owned(),
                version: (1, 0),
                description: String::new(),
            }
        }
        fn accepts_url(&self, url: &JdbcUrl) -> bool {
            url.subprotocol == self.proto || (url.is_wildcard() && self.accept_wildcard)
        }
        fn connect(&self, _url: &JdbcUrl, _props: &Properties) -> DbcResult<Box<dyn Connection>> {
            Err(SqlError::Connection("fake".into()))
        }
    }

    #[test]
    fn policy_descriptions_read_as_debug_prints_them() {
        for policy in [
            FailurePolicy::Report,
            FailurePolicy::Retry(3),
            FailurePolicy::TryNext,
        ] {
            assert_eq!(policy.describe().to_string(), format!("{policy:?}"));
        }
    }

    fn manager() -> GridRMDriverManager {
        let m = GridRMDriverManager::new(&Registry::new());
        m.register(Arc::new(FakeDriver {
            name: "d-snmp",
            proto: "snmp",
            accept_wildcard: false,
        }));
        m.register(Arc::new(FakeDriver {
            name: "d-ganglia",
            proto: "ganglia",
            accept_wildcard: true,
        }));
        m.register(Arc::new(FakeDriver {
            name: "d-nws",
            proto: "nws",
            accept_wildcard: true,
        }));
        m
    }

    fn url(s: &str) -> JdbcUrl {
        JdbcUrl::parse(s).unwrap()
    }

    #[test]
    fn dynamic_then_cached() {
        let m = manager();
        let u = url("jdbc:://host/x");
        let d = m.resolve(&u).unwrap();
        assert_eq!(d.name(), "d-ganglia"); // first wildcard-acceptor
        m.record_success(&u, &d.name());
        let d2 = m.resolve(&u).unwrap();
        assert_eq!(d2.name(), "d-ganglia");
        let snap = m.stats().snapshot();
        assert_eq!(snap.resolutions, 2);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.dynamic_scans, 1);
    }

    #[test]
    fn static_preferences_take_priority() {
        let m = manager();
        let u = url("jdbc:://host/x");
        m.set_preferences(&u, vec!["d-nws".into(), "d-ganglia".into()]);
        assert_eq!(m.resolve(&u).unwrap().name(), "d-nws");
        let snap = m.stats().snapshot();
        assert_eq!(snap.static_hits, 1);
        assert_eq!(snap.dynamic_scans, 0);
        // Cache beats preferences on subsequent resolutions.
        m.record_success(&u, "d-ganglia");
        assert_eq!(m.resolve(&u).unwrap().name(), "d-ganglia");
    }

    #[test]
    fn preferences_fall_through_only_with_trynext() {
        let m = manager();
        let u = url("jdbc:snmp://host/x");
        m.set_preferences(&u, vec!["missing-driver".into()]);
        m.set_policy(&u, FailurePolicy::Report);
        assert!(m.resolve(&u).is_err());
        m.set_policy(&u, FailurePolicy::TryNext);
        assert_eq!(m.resolve(&u).unwrap().name(), "d-snmp");
    }

    #[test]
    fn failure_invalidates_cache() {
        let m = manager();
        let u = url("jdbc:snmp://host/x");
        m.record_success(&u, "d-snmp");
        assert_eq!(m.cached_driver(&u).as_deref(), Some("d-snmp"));
        m.record_failure(&u, "d-snmp");
        assert!(m.cached_driver(&u).is_none());
        // Failures of a *different* driver leave the cache alone.
        m.record_success(&u, "d-snmp");
        m.record_failure(&u, "d-other");
        assert!(m.cached_driver(&u).is_some());
    }

    #[test]
    fn invalidate_clears_any_cached_driver() {
        let m = manager();
        let u = url("jdbc:snmp://host/x");
        // Unlike record_failure, invalidation is unconditional: it clears
        // the cache even when a *different* driver is pinned (the
        // re-promotion path after a probe-driven recovery).
        m.record_success(&u, "d-ganglia");
        assert!(m.invalidate_cached_driver(&u));
        assert!(m.cached_driver(&u).is_none());
        assert!(!m.invalidate_cached_driver(&u), "already clear");
        assert_eq!(m.stats().snapshot().invalidations, 1);
        // Next resolution falls back to the static/dynamic order.
        assert_eq!(m.resolve(&u).unwrap().name(), "d-snmp");
    }

    #[test]
    fn exclusion_skips_failed_drivers() {
        let m = manager();
        let u = url("jdbc:://host/x");
        let d = m.resolve_excluding(&u, &["d-ganglia".to_owned()]).unwrap();
        assert_eq!(d.name(), "d-nws");
        assert!(m
            .resolve_excluding(&u, &["d-ganglia".to_owned(), "d-nws".to_owned()])
            .is_err());
    }

    #[test]
    fn traced_resolution_records_candidates() {
        use gridrm_telemetry::GatewayTelemetry;
        let m = manager();
        let t = GatewayTelemetry::new(gridrm_simnet::SimClock::new());
        let u = url("jdbc:://host/x");
        let mut span = t.span("resolve jdbc:://host/x");
        let d = m
            .resolve_excluding_traced(&u, &["d-ganglia".to_owned()], Some(&mut span))
            .unwrap();
        assert_eq!(d.name(), "d-nws");
        span.finish("ok");
        let rec = &t.traces().recent()[0];
        let stages: Vec<(&str, &str)> = rec
            .stages
            .iter()
            .map(|s| (s.stage.as_str(), s.detail.as_deref().unwrap_or("")))
            .collect();
        assert!(stages.contains(&("resolve_cache", "miss")));
        assert!(stages.contains(&("resolve_candidate", "d-snmp accepts_url rejected")));
        assert!(stages.contains(&("resolve_candidate", "d-ganglia accepts_url excluded")));
        assert!(stages.contains(&("resolve_candidate", "d-nws accepts_url accepted")));
        assert!(stages.contains(&("resolve_chosen", "d-nws via accepts_url scan")));
    }

    #[test]
    fn unregister_purges_cache() {
        let m = manager();
        let u = url("jdbc:ganglia://host/x");
        m.record_success(&u, "d-ganglia");
        assert!(m.unregister("d-ganglia"));
        assert!(m.cached_driver(&u).is_none());
        // Dynamic resolution no longer offers it.
        assert!(m.resolve(&u).is_err());
    }

    #[test]
    fn per_source_policy_overrides_default() {
        let m = manager();
        let u = url("jdbc:snmp://a/x");
        assert_eq!(m.policy_for(&u), FailurePolicy::TryNext);
        m.set_policy(&u, FailurePolicy::Retry(3));
        assert_eq!(m.policy_for(&u), FailurePolicy::Retry(3));
        m.set_default_policy(FailurePolicy::Report);
        assert_eq!(m.policy_for(&url("jdbc:snmp://b/x")), FailurePolicy::Report);
        assert_eq!(m.policy_for(&u), FailurePolicy::Retry(3));
    }

    #[test]
    fn stale_cached_name_falls_through() {
        let m = manager();
        let u = url("jdbc:nws://host/x");
        m.record_success(&u, "gone-driver");
        // Cache points at an unregistered driver: resolution must still
        // succeed dynamically.
        assert_eq!(m.resolve(&u).unwrap().name(), "d-nws");
    }
}
