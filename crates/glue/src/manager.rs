//! The Naming Schema Manager (paper §3.1.4).
//!
//! "The SchemaManager provides mapping and translation services for data
//! source drivers." Drivers fetch a [`SchemaHandle`] when a connection is
//! created ("Schema is cached when the connection is created", Fig 5) and
//! re-validate it before each statement ("Statement checks cache consistency
//! before using schema instance to connect to data source").

use crate::mapping::DriverMapping;
use crate::plan::GluePlan;
use crate::schema::{GroupDef, Schema};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters describing schema-manager traffic (experiment E11).
#[derive(Debug, Default)]
pub struct SchemaStats {
    /// Full handle fetches (connection creation).
    pub handle_fetches: AtomicU64,
    /// Cheap consistency validations (per statement).
    pub validations: AtomicU64,
    /// Validations that found a stale handle and forced a refetch.
    pub stale_hits: AtomicU64,
}

impl SchemaStats {
    /// Snapshot `(fetches, validations, stale)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.handle_fetches.load(Ordering::Relaxed),
            self.validations.load(Ordering::Relaxed),
            self.stale_hits.load(Ordering::Relaxed),
        )
    }
}

/// An immutable snapshot of the schema state a driver connection caches.
///
/// Cloning is cheap (`Arc`s); a handle knows the manager version it was cut
/// from, so [`SchemaManager::is_current`] is a single atomic load.
#[derive(Clone)]
pub struct SchemaHandle {
    /// Manager version this handle was created at.
    pub version: u64,
    /// The naming schema.
    pub schema: Arc<Schema>,
    /// The mapping for the driver that requested the handle, if registered.
    pub mapping: Option<Arc<DriverMapping>>,
    /// `mapping` compiled against `schema`, shared by every handle cut
    /// from the same pair.
    pub plan: Option<Arc<GluePlan>>,
}

impl SchemaHandle {
    /// Look up a group in the snapshot schema.
    pub fn group(&self, name: &str) -> Option<&GroupDef> {
        self.schema.group(name)
    }
}

/// The gateway-wide schema registry.
///
/// Holds the active naming schema (GLUE by default), the per-driver GLUE
/// implementation mappings and each mapping's [`GluePlan`]. Any mutation
/// bumps `version`, invalidating all outstanding [`SchemaHandle`]s.
pub struct SchemaManager {
    schema: RwLock<Arc<Schema>>,
    mappings: RwLock<HashMap<String, Arc<DriverMapping>>>,
    /// One plan per mapped driver, compiled when a handle first asks
    /// for it and replaced when its schema or mapping is.
    plans: RwLock<HashMap<String, Arc<GluePlan>>>,
    version: AtomicU64,
    stats: SchemaStats,
}

impl SchemaManager {
    /// Manager seeded with the built-in GLUE schema.
    pub fn new() -> Self {
        Self::with_schema(crate::schema::builtin_schema())
    }

    /// Manager with a custom schema.
    pub fn with_schema(schema: Schema) -> Self {
        SchemaManager {
            schema: RwLock::new(Arc::new(schema)),
            mappings: RwLock::new(HashMap::new()),
            plans: RwLock::new(HashMap::new()),
            version: AtomicU64::new(1),
            stats: SchemaStats::default(),
        }
    }

    /// Current schema version; bumps on every mutation.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Register (or replace) a driver's GLUE mapping. Typically called when
    /// the driver plug-in is registered with the gateway.
    pub fn register_mapping(&self, mapping: DriverMapping) {
        self.mappings
            .write()
            .insert(mapping.driver.clone(), Arc::new(mapping));
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// Remove a driver's mapping (driver unregistered).
    pub fn unregister_mapping(&self, driver: &str) -> bool {
        let removed = self.mappings.write().remove(driver).is_some();
        self.plans.write().remove(driver);
        if removed {
            self.version.fetch_add(1, Ordering::AcqRel);
        }
        removed
    }

    /// Replace or extend the naming schema itself (e.g. "as GLUE evolves",
    /// §3.2.3).
    pub fn upsert_group(&self, group: GroupDef) {
        let mut guard = self.schema.write();
        let mut schema = (**guard).clone();
        schema.upsert_group(group);
        *guard = Arc::new(schema);
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// The active schema (cheap Arc clone).
    pub fn schema(&self) -> Arc<Schema> {
        self.schema.read().clone()
    }

    /// Fetch a consistent snapshot for `driver` — the connect-time call.
    pub fn handle_for(&self, driver: &str) -> SchemaHandle {
        self.stats.handle_fetches.fetch_add(1, Ordering::Relaxed);
        // Read mappings and schema under their locks, then stamp with the
        // version read *before* both: if a writer races, the handle simply
        // reports stale on next validation.
        let version = self.version();
        let schema = self.schema.read().clone();
        let mapping = self.mappings.read().get(driver).cloned();
        let plan = mapping.as_ref().map(|m| self.plan_for(driver, &schema, m));
        SchemaHandle {
            version,
            schema,
            mapping,
            plan,
        }
    }

    /// `driver`'s plan for this schema and mapping: the kept one if it
    /// was compiled from both, else a new one, kept in its place.
    fn plan_for(
        &self,
        driver: &str,
        schema: &Arc<Schema>,
        mapping: &Arc<DriverMapping>,
    ) -> Arc<GluePlan> {
        if let Some(plan) = self.plans.read().get(driver) {
            if plan.compiled_from(schema, mapping) {
                return Arc::clone(plan);
            }
        }
        let plan = Arc::new(GluePlan::compile(Arc::clone(schema), Arc::clone(mapping)));
        self.plans
            .write()
            .insert(driver.to_owned(), Arc::clone(&plan));
        plan
    }

    /// Fig 5's per-statement consistency check: is `handle` still current?
    pub fn is_current(&self, handle: &SchemaHandle) -> bool {
        self.stats.validations.fetch_add(1, Ordering::Relaxed);
        let current = handle.version == self.version();
        if !current {
            self.stats.stale_hits.fetch_add(1, Ordering::Relaxed);
        }
        current
    }

    /// Validate-or-refresh: the pattern driver statements use.
    pub fn ensure_current(&self, handle: &mut SchemaHandle, driver: &str) {
        if !self.is_current(handle) {
            *handle = self.handle_for(driver);
        }
    }

    /// Mapping registered for a driver, if any.
    pub fn mapping_for(&self, driver: &str) -> Option<Arc<DriverMapping>> {
        self.mappings.read().get(driver).cloned()
    }

    /// Names of drivers with registered mappings.
    pub fn mapped_drivers(&self) -> Vec<String> {
        let mut v: Vec<String> = self.mappings.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Traffic counters.
    pub fn stats(&self) -> &SchemaStats {
        &self.stats
    }
}

impl Default for SchemaManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::FieldMapping;
    use crate::schema::AttributeDef;
    use gridrm_sqlparse::SqlType;

    #[test]
    fn handle_caching_and_invalidation() {
        let m = SchemaManager::new();
        let mut h = m.handle_for("jdbc-snmp");
        assert!(m.is_current(&h));

        m.register_mapping(
            DriverMapping::new("jdbc-snmp")
                .with_group("Processor", [("Load1", FieldMapping::direct("laLoad.1"))]),
        );
        assert!(!m.is_current(&h));

        m.ensure_current(&mut h, "jdbc-snmp");
        assert!(m.is_current(&h));
        assert!(h.mapping.is_some());
        let (fetches, validations, stale) = m.stats().snapshot();
        assert_eq!(fetches, 2);
        assert!(validations >= 3);
        // Two stale observations: the explicit is_current above plus the
        // one inside ensure_current.
        assert_eq!(stale, 2);
    }

    #[test]
    fn unregister_bumps_version_only_when_present() {
        let m = SchemaManager::new();
        let v0 = m.version();
        assert!(!m.unregister_mapping("nope"));
        assert_eq!(m.version(), v0);
        m.register_mapping(DriverMapping::new("d"));
        assert!(m.unregister_mapping("d"));
        assert_eq!(m.version(), v0 + 2);
    }

    #[test]
    fn schema_extension_invalidates_handles() {
        let m = SchemaManager::new();
        let h = m.handle_for("d");
        m.upsert_group(GroupDef {
            name: "Sensor".into(),
            attributes: vec![AttributeDef::new("Reading", SqlType::Float, None, "")],
            description: "extension".into(),
        });
        assert!(!m.is_current(&h));
        assert!(m.schema().group("Sensor").is_some());
        // Old handle still sees the old schema snapshot (immutability).
        assert!(h.schema.group("Sensor").is_none());
    }

    #[test]
    fn mapped_drivers_sorted() {
        let m = SchemaManager::new();
        m.register_mapping(DriverMapping::new("z"));
        m.register_mapping(DriverMapping::new("a"));
        assert_eq!(m.mapped_drivers(), vec!["a".to_owned(), "z".into()]);
    }

    #[test]
    fn concurrent_handles() {
        let m = Arc::new(SchemaManager::new());
        m.register_mapping(DriverMapping::new("churn"));
        let mut threads = Vec::new();
        for i in 0..8 {
            let m = m.clone();
            threads.push(std::thread::spawn(move || {
                for j in 0..100 {
                    if i == 0 && j % 10 == 0 {
                        m.register_mapping(DriverMapping::new("churn"));
                    }
                    let mut h = m.handle_for("churn");
                    m.ensure_current(&mut h, "churn");
                    // Whichever thread compiled it, a handle's plan is
                    // the plan of the handle's own schema and mapping.
                    let (plan, mapping) = (h.plan.unwrap(), h.mapping.unwrap());
                    assert!(plan.compiled_from(&h.schema, &mapping));
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
    }
}
