//! The `DriverManager` role: a thread-safe registry of driver plug-ins with
//! first-match URL resolution (paper Table 2).
//!
//! This is the *base* registry; the gateway wraps it in the richer
//! `GridRMDriverManager` (crate `gridrm-core`) which adds static
//! preferences, a last-success cache and failure policies (§3.1.3).

use crate::connection::Connection;
use crate::driver::{Driver, DriverMetaData, Properties};
use crate::error::{DbcResult, SqlError};
use crate::url::JdbcUrl;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters describing how much work URL→driver resolution has done;
/// experiment E5 reads these to show the value of the driver cache.
#[derive(Debug, Default)]
pub struct SelectionStats {
    /// Number of `locate` scans performed.
    pub scans: AtomicU64,
    /// Total `accepts_url` probes made across all scans.
    pub probes: AtomicU64,
}

impl SelectionStats {
    /// Snapshot `(scans, probes)`.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.scans.load(Ordering::Relaxed),
            self.probes.load(Ordering::Relaxed),
        )
    }
}

/// Thread-safe registry of [`Driver`] plug-ins.
///
/// Drivers can be registered and removed at runtime "without affecting
/// normal Gateway operation" (§3.2): registration takes a short write lock,
/// while query-path lookups take read locks and clone `Arc`s out.
#[derive(Default)]
pub struct DriverManager {
    /// Each driver under the name it registered with, read once.
    drivers: RwLock<Vec<(String, Arc<dyn Driver>)>>,
    stats: SelectionStats,
}

impl DriverManager {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a driver. Mirrors the paper's
    /// `DriverManager.registerDriver(driverClass.newInstance())` (Table 1):
    /// anything implementing [`Driver`] can be registered, with no
    /// compile-time knowledge of the concrete type. Re-registering a driver
    /// with the same name replaces the old instance (an upgrade).
    pub fn register(&self, driver: Arc<dyn Driver>) {
        let name = driver.name();
        let mut drivers = self.drivers.write();
        if let Some(existing) = drivers.iter_mut().find(|(n, _)| *n == name) {
            existing.1 = driver;
        } else {
            drivers.push((name, driver));
        }
    }

    /// Remove a driver by name; returns whether anything was removed.
    pub fn unregister(&self, name: &str) -> bool {
        let mut drivers = self.drivers.write();
        let before = drivers.len();
        drivers.retain(|(n, _)| n != name);
        drivers.len() != before
    }

    /// All registered drivers, in registration (priority) order.
    pub fn drivers(&self) -> Vec<Arc<dyn Driver>> {
        self.drivers.read().iter().map(|(_, d)| d.clone()).collect()
    }

    /// Metadata of all registered drivers.
    pub fn driver_metas(&self) -> Vec<DriverMetaData> {
        self.drivers.read().iter().map(|(_, d)| d.meta()).collect()
    }

    /// Look up a driver by registered name.
    pub fn get_by_name(&self, name: &str) -> Option<Arc<dyn Driver>> {
        self.drivers
            .read()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.clone())
    }

    /// Number of registered drivers.
    pub fn len(&self) -> usize {
        self.drivers.read().len()
    }

    /// True when no drivers are registered.
    pub fn is_empty(&self) -> bool {
        self.drivers.read().is_empty()
    }

    /// Dynamically locate a driver for `url` — the paper's Table 2 loop:
    /// iterate registered drivers, return the first whose `accepts_url`
    /// says it "supports the URL AND can connect to the data source".
    pub fn locate(&self, url: &JdbcUrl) -> DbcResult<Arc<dyn Driver>> {
        let drivers = self.drivers();
        self.stats.scans.fetch_add(1, Ordering::Relaxed);
        for d in &drivers {
            self.stats.probes.fetch_add(1, Ordering::Relaxed);
            if d.accepts_url(url) {
                return Ok(d.clone());
            }
        }
        Err(SqlError::NoSuitableDriver(url.to_string()))
    }

    /// Locate a driver and open a connection in one step (the
    /// `DriverManager.getConnection` role).
    pub fn connect(&self, url: &JdbcUrl, props: &Properties) -> DbcResult<Box<dyn Connection>> {
        self.locate(url)?.connect(url, props)
    }

    /// Resolution work counters.
    pub fn stats(&self) -> &SelectionStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct ProtoDriver {
        proto: &'static str,
    }
    impl Driver for ProtoDriver {
        fn meta(&self) -> DriverMetaData {
            DriverMetaData {
                name: format!("jdbc-{}", self.proto),
                subprotocol: self.proto.into(),
                version: (1, 0),
                description: String::new(),
            }
        }
        fn accepts_url(&self, url: &JdbcUrl) -> bool {
            url.subprotocol == self.proto
        }
        fn connect(&self, _url: &JdbcUrl, _props: &Properties) -> DbcResult<Box<dyn Connection>> {
            Err(SqlError::Connection("test driver".into()))
        }
    }

    fn manager() -> DriverManager {
        let m = DriverManager::new();
        m.register(Arc::new(ProtoDriver { proto: "snmp" }));
        m.register(Arc::new(ProtoDriver { proto: "ganglia" }));
        m.register(Arc::new(ProtoDriver { proto: "nws" }));
        m
    }

    #[test]
    fn register_and_locate_first_match() {
        let m = manager();
        assert_eq!(m.len(), 3);
        let d = m.locate(&JdbcUrl::new("ganglia", "h", "c")).unwrap();
        assert_eq!(d.name(), "jdbc-ganglia");
    }

    #[test]
    fn locate_miss_reports_no_suitable_driver() {
        let m = manager();
        let err = match m.locate(&JdbcUrl::new("ldap", "h", "")) {
            Err(e) => e,
            Ok(_) => panic!("expected lookup failure"),
        };
        assert!(matches!(err, SqlError::NoSuitableDriver(_)));
    }

    #[test]
    fn unregister_removes() {
        let m = manager();
        assert!(m.unregister("jdbc-snmp"));
        assert!(!m.unregister("jdbc-snmp"));
        assert!(m.locate(&JdbcUrl::new("snmp", "h", "")).is_err());
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn reregistration_replaces_same_name() {
        let m = manager();
        m.register(Arc::new(ProtoDriver { proto: "snmp" }));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn probe_counting() {
        let m = manager();
        let _ = m.locate(&JdbcUrl::new("nws", "h", "")); // probes snmp, ganglia, nws
        let (scans, probes) = m.stats().snapshot();
        assert_eq!(scans, 1);
        assert_eq!(probes, 3);
    }

    #[test]
    fn get_by_name() {
        let m = manager();
        assert!(m.get_by_name("jdbc-nws").is_some());
        assert!(m.get_by_name("jdbc-x").is_none());
    }

    #[test]
    fn concurrent_register_and_locate() {
        let m = Arc::new(manager());
        let mut handles = Vec::new();
        for i in 0..8 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    if i % 2 == 0 {
                        m.register(Arc::new(ProtoDriver { proto: "snmp" }));
                    } else {
                        let _ = m.locate(&JdbcUrl::new("nws", "h", ""));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(m.locate(&JdbcUrl::new("snmp", "h", "")).is_ok());
    }
}
