//! Property tests for gateway components: Event Manager ordering and
//! loss-freedom, cache laws, session laws, alert-rule consistency.

use gridrm_core::alerts::{AlertEngine, AlertRule, Comparison};
use gridrm_core::cache::CacheController;
use gridrm_core::events::{EventManager, GridRMEvent, ListenerFilter, Severity};
use gridrm_core::security::Identity;
use gridrm_core::session::SessionManager;
use gridrm_dbc::{ColumnMeta, ResultSetMetaData, RowSet};
use gridrm_simnet::SimClock;
use gridrm_sqlparse::{SqlType, SqlValue};
use gridrm_telemetry::{GatewayTelemetry, Registry};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_severity() -> impl Strategy<Value = Severity> {
    prop::sample::select(vec![Severity::Info, Severity::Warning, Severity::Critical])
}

fn arb_event() -> impl Strategy<Value = GridRMEvent> {
    (
        "[a-z]{1,6}(\\.[a-z]{1,6}){0,2}",
        arb_severity(),
        prop::option::of(-1e6f64..1e6),
    )
        .prop_map(|(category, severity, value)| GridRMEvent {
            id: 0,
            at_ms: 0,
            source: "prop:snmp".into(),
            hostname: None,
            severity,
            category,
            message: String::new(),
            value,
        })
}

proptest! {
    /// Whatever the burst size and buffer capacity, dispatch returns every
    /// ingested event exactly once, in id order, and matching listeners
    /// receive exactly the matching subset.
    #[test]
    fn event_manager_loss_free_and_ordered(
        events in prop::collection::vec(arb_event(), 0..200),
        capacity in 1usize..64,
        min_sev in arb_severity(),
    ) {
        let manager = EventManager::new(capacity, &GatewayTelemetry::new(SimClock::new()));
        let (_, all_rx) = manager.register_listener(ListenerFilter::default());
        let (_, sev_rx) = manager.register_listener(ListenerFilter {
            min_severity: Some(min_sev),
            ..Default::default()
        });
        for e in &events {
            manager.ingest(e.clone());
        }
        let dispatched = manager.dispatch();
        prop_assert_eq!(dispatched.len(), events.len());
        for (i, e) in dispatched.iter().enumerate() {
            prop_assert_eq!(e.id, i as u64 + 1);
            prop_assert_eq!(&e.category, &events[i].category);
        }
        prop_assert_eq!(all_rx.try_iter().count(), events.len());
        let expected_sev = events.iter().filter(|e| e.severity >= min_sev).count();
        prop_assert_eq!(sev_rx.try_iter().count(), expected_sev);
        prop_assert_eq!(manager.backlog(), 0);
    }

    /// Cache: an entry is served iff its age is within the requested
    /// bound; invalidation by source is exact.
    #[test]
    fn cache_age_law(
        stored_at in 0u64..100_000,
        now_delta in 0u64..100_000,
        max_age in 0u64..100_000,
    ) {
        let cache = CacheController::new(10_000, &Registry::new());
        let rows = Arc::new(RowSet::empty(ResultSetMetaData::new(vec![ColumnMeta::new(
            "x",
            SqlType::Int,
        )])));
        cache.store("src", "q", rows, stored_at);
        let now = stored_at + now_delta;
        let hit = cache.lookup("src", "q", now, Some(max_age)).is_some();
        prop_assert_eq!(hit, now_delta <= max_age);
    }

    /// Sessions: resolvable strictly within TTL of the last touch, never
    /// after; close is final.
    #[test]
    fn session_ttl_law(ttl in 1u64..10_000, touches in prop::collection::vec(1u64..5_000, 0..6)) {
        let m = SessionManager::new(ttl);
        let t0 = 0u64;
        let token = m.open(Identity::anonymous(), t0);
        let mut now = t0;
        let mut alive = true;
        for gap in touches {
            now += gap;
            let got = m.resolve(token, now).is_some();
            let expected = alive && gap <= ttl;
            prop_assert_eq!(got, expected, "gap {} ttl {}", gap, ttl);
            alive = got;
        }
        if alive {
            prop_assert!(m.resolve(token, now + ttl + 1).is_none());
        }
        let _ = m.close(token); // close never panics
    }

    /// Alert rules fire on exactly the rows a manual scan selects,
    /// regardless of comparison operator.
    #[test]
    fn alert_rule_exactness(
        values in prop::collection::vec(prop::option::of(-100.0f64..100.0), 0..30),
        threshold in -100.0f64..100.0,
        cmp in prop::sample::select(vec![
            Comparison::Gt,
            Comparison::Ge,
            Comparison::Lt,
            Comparison::Le,
        ]),
    ) {
        let engine = AlertEngine::new();
        engine.add_rule(AlertRule {
            name: "r".into(),
            group: "G".into(),
            attr: "V".into(),
            cmp,
            threshold,
            severity: Severity::Warning,
            category: "c".into(),
        });
        let rows: Vec<Vec<SqlValue>> = values
            .iter()
            .map(|v| vec![SqlValue::from(*v)])
            .collect();
        let rs = RowSet::new(
            ResultSetMetaData::new(vec![ColumnMeta::new("V", SqlType::Float)]),
            rows,
        )
        .unwrap();
        let fired = engine.scan("s", "G", &rs, 0).len();
        let expected = values
            .iter()
            .flatten()
            .filter(|v| match cmp {
                Comparison::Gt => **v > threshold,
                Comparison::Ge => **v >= threshold,
                Comparison::Lt => **v < threshold,
                Comparison::Le => **v <= threshold,
                Comparison::Eq => (**v - threshold).abs() < f64::EPSILON,
            })
            .count();
        prop_assert_eq!(fired, expected);
    }
}
