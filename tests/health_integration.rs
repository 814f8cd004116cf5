//! Data-source health subsystem end-to-end: a forced agent outage must
//! walk the Up → Degraded → Down state machine with debounce, recover
//! back to Up once the agent returns, raise alert events, and report the
//! same facts through every exposition surface — the `gridrm_health` and
//! `gridrm_journal` virtual SQL tables, the Admin JSON snapshot, and the
//! Prometheus text rendering.

use gridrm::prelude::*;
use std::sync::Arc;

const SNMP_URL: &str = "jdbc:snmp://node01.hm/public";
const AGENT_ADDR: &str = "node01.hm:snmp";
const TELEMETRY_URL: &str = "jdbc:telemetry://local/metrics";

/// A deployed site plus a gateway with fast health thresholds: probes
/// every 10 virtual seconds, Down after 2 consecutive failures, Up
/// after 2 consecutive successes.
fn world() -> Arc<Gateway> {
    let net = Network::new(SimClock::new(), 909);
    let site = SiteModel::generate(17, &SiteSpec::new("hm", 4, 2));
    site.advance_to(120_000);
    gridrm::agents::deploy_site(&net, site);
    let mut config = GatewayConfig::new("gw-hm", "hm");
    config.probe_interval_ms = 10_000;
    config.probe_timeout_ms = 5_000;
    config.health_down_after = 2;
    config.health_up_after = 2;
    config.slow_query_threshold_ms = 1;
    let gateway = Gateway::new(config, net);
    install_into_gateway(&gateway);
    gateway
        .admin()
        .add_source(DataSourceConfig::dynamic(SNMP_URL, "node01 via SNMP"))
        .expect("source registers");
    gateway
}

/// Query one of the telemetry driver's virtual tables through the
/// normal client path.
fn sql(gateway: &Gateway, query: &str) -> RowSet {
    gateway
        .query(&ClientRequest::realtime(TELEMETRY_URL, query))
        .expect("telemetry virtual table query")
        .rows
}

#[test]
fn outage_reaches_down_within_a_probe_interval_and_recovers() {
    let gateway = world();
    let clock = gateway.clock().clone();
    let net = gateway.network().clone();
    let (_, alerts) = gateway.events().register_listener(ListenerFilter {
        category_prefix: Some("health.".into()),
        ..Default::default()
    });

    // First pump: the registered source has never been probed, so a
    // probe runs immediately and proves it Up.
    gateway.pump();
    assert_eq!(
        gateway.health().state_of(SNMP_URL),
        Some(HealthState::Up),
        "first probe promotes Unknown -> Up"
    );

    // Kill the agent. A client query now fails: passive failure #1
    // puts the source into Degraded (debounce: not yet Down).
    net.set_down(AGENT_ADDR, true);
    clock.advance(1_000);
    let err = gateway.query(&ClientRequest::realtime(
        SNMP_URL,
        "SELECT Hostname, Load1 FROM Processor",
    ));
    assert!(err.is_err(), "query against a dead agent fails");
    assert_eq!(
        gateway.health().state_of(SNMP_URL),
        Some(HealthState::Degraded)
    );

    // Within one probe interval the scheduler notices too: probe
    // failure #2 crosses the down_after=2 threshold.
    clock.advance(10_000);
    gateway.pump();
    assert_eq!(gateway.health().state_of(SNMP_URL), Some(HealthState::Down));

    // The SQL view reflects the outage...
    let rows = sql(
        &gateway,
        "SELECT state, consecutive_failures FROM gridrm_health \
         WHERE source = 'jdbc:snmp://node01.hm/public'",
    );
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.rows()[0][0], SqlValue::Str("down".into()));
    let failures = rows.rows()[0][1].as_f64().unwrap() as u32;
    assert!(
        failures >= 2,
        "nonzero consecutive failures, got {failures}"
    );

    // ...and agrees field-for-field with the Admin snapshot behind the
    // JSON exposition.
    let snap = gateway
        .health()
        .snapshot()
        .into_iter()
        .find(|s| s.source == SNMP_URL)
        .expect("admin tracks the source");
    assert_eq!(snap.state, HealthState::Down);
    assert_eq!(snap.consecutive_failures, failures);
    assert!(gateway.admin().handle("/v1/health").body.contains("down"));

    // Down and Degraded transitions raised alert events.
    let mut categories = Vec::new();
    while let Ok(e) = alerts.try_recv() {
        categories.push(e.category);
    }
    assert!(
        categories.contains(&"health.state.degraded".to_owned()),
        "degraded alert raised: {categories:?}"
    );
    assert!(
        categories.contains(&"health.state.down".to_owned()),
        "down alert raised: {categories:?}"
    );

    // Agent returns: up_after=2 probe successes re-promote to Up.
    net.set_down(AGENT_ADDR, false);
    clock.advance(10_000);
    gateway.pump();
    assert_eq!(
        gateway.health().state_of(SNMP_URL),
        Some(HealthState::Down),
        "one success is not enough (debounce)"
    );
    clock.advance(10_000);
    gateway.pump();
    assert_eq!(gateway.health().state_of(SNMP_URL), Some(HealthState::Up));
    let rows = sql(
        &gateway,
        "SELECT state FROM gridrm_health \
         WHERE source = 'jdbc:snmp://node01.hm/public'",
    );
    assert_eq!(rows.rows()[0][0], SqlValue::Str("up".into()));
    let mut categories = Vec::new();
    while let Ok(e) = alerts.try_recv() {
        categories.push(e.category);
    }
    assert!(
        categories.contains(&"health.state.recovered".to_owned()),
        "recovery alert raised: {categories:?}"
    );
}

#[test]
fn transition_counts_identical_across_journal_sql_prometheus_and_json() {
    let gateway = world();
    let clock = gateway.clock().clone();
    let net = gateway.network().clone();

    // Produce a handful of transitions: up, degraded, down, up again.
    gateway.pump();
    net.set_down(AGENT_ADDR, true);
    for _ in 0..2 {
        clock.advance(10_000);
        gateway.pump();
    }
    net.set_down(AGENT_ADDR, false);
    for _ in 0..2 {
        clock.advance(10_000);
        gateway.pump();
    }
    assert_eq!(gateway.health().state_of(SNMP_URL), Some(HealthState::Up));

    // Surface 1: the in-process journal ring.
    let via_ring = gateway
        .telemetry()
        .journal()
        .recent_of_kind(gridrm::telemetry::KIND_STATE_TRANSITION)
        .len() as u64;
    assert!(
        via_ring >= 4,
        "expected several transitions, got {via_ring}"
    );

    // Surface 2: Prometheus text.
    let prom = gateway.admin().metrics_prometheus();
    let via_prometheus: u64 = prom
        .lines()
        .filter(|l| l.starts_with("gridrm_health_transitions_total{"))
        .map(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0) as u64
        })
        .sum();

    // Surface 3: the JSON metrics snapshot.
    let via_json: u64 = gateway
        .telemetry()
        .registry()
        .snapshot()
        .into_iter()
        .filter(|f| f.name == "gridrm_health_transitions_total")
        .flat_map(|f| f.samples)
        .map(|s| s.value as u64)
        .sum();

    // Surface 4: the journal SQL table — read last, because the read
    // itself is a successful interaction the health monitor observes
    // (after the table row snapshot is taken).
    let rows = sql(
        &gateway,
        "SELECT seq FROM gridrm_journal WHERE kind = 'state_transition'",
    );
    let via_sql = rows.len() as u64;

    assert_eq!(via_ring, via_prometheus, "journal ring vs Prometheus");
    assert_eq!(via_prometheus, via_json, "Prometheus vs JSON snapshot");
    assert_eq!(via_json, via_sql, "JSON snapshot vs journal SQL table");
}

#[test]
fn journal_ordering_matches_clock_and_trace_timestamps() {
    let gateway = world();
    let clock = gateway.clock().clone();
    let net = gateway.network().clone();

    gateway.pump();
    net.set_down(AGENT_ADDR, true);
    clock.advance(10_000);
    let _ = gateway.query(&ClientRequest::realtime(
        SNMP_URL,
        "SELECT Load1 FROM Processor",
    ));
    gateway.pump();

    let entries = gateway.telemetry().journal().recent();
    assert!(!entries.is_empty());
    for pair in entries.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "seq strictly increasing");
        assert!(
            pair[0].at_ms <= pair[1].at_ms,
            "journal timestamps never run backwards"
        );
    }
    let now = clock.now_millis();
    assert!(entries.iter().all(|e| e.at_ms <= now));

    // Traces come from the same virtual clock, so the journal and the
    // trace ring tell one consistent story.
    let traces = gateway.telemetry().traces().recent();
    assert!(!traces.is_empty());
    for pair in traces.windows(2) {
        assert!(pair[0].started_ms <= pair[1].started_ms);
    }
    assert!(traces.iter().all(|t| t.finished_ms <= now));
}

#[test]
fn slow_query_log_captures_per_stage_breakdown() {
    let gateway = world();
    let clock = gateway.clock().clone();

    // The world sets slow_query_threshold_ms = 1. Simnet requests do
    // not advance the virtual clock, so instantaneous client queries
    // never qualify; drive a traced request whose stages straddle a
    // clock advance, the same way a genuinely slow query would.
    let mut span = gateway
        .telemetry()
        .span("SELECT Hostname, Load1 FROM Processor");
    span.stage(Stage::Acil);
    clock.advance(25);
    span.stage_with(Stage::DriverExecute, "jdbc-snmp");
    span.finish("ok");
    let slow = gateway.telemetry().slow_queries().top();
    assert!(!slow.is_empty(), "slow log captured the query");
    assert!(slow[0].duration_ms() >= 1);
    assert!(
        slow[0].stages.iter().any(|s| s.stage == "driver_execute"),
        "per-stage breakdown retained: {:?}",
        slow[0].stages
    );

    // Same facts through the SQL surface and the Admin JSON exposition.
    let rows = sql(
        &gateway,
        "SELECT duration_ms, stages FROM gridrm_slow_queries",
    );
    assert!(!rows.is_empty());
    assert!(rows.rows()[0][1]
        .as_str()
        .unwrap()
        .contains("driver_execute"));
    assert!(gateway
        .admin()
        .handle("/v1/slow_queries")
        .body
        .contains("driver_execute"));
}

#[test]
fn site_rollup_tracks_worst_source_state() {
    let gateway = world();
    let clock = gateway.clock().clone();
    let net = gateway.network().clone();
    let directory = GmaDirectory::new();
    let layer = GlobalLayer::attach(gateway.clone(), directory);

    gateway.pump();
    let rollup = layer.site_health();
    assert_eq!(rollup.site, "hm");
    assert_eq!(rollup.overall, HealthState::Up);
    assert!(rollup.up >= 1);

    net.set_down(AGENT_ADDR, true);
    for _ in 0..2 {
        clock.advance(10_000);
        gateway.pump();
    }
    let rollup = layer.site_health();
    assert_eq!(rollup.overall, HealthState::Down, "worst state wins");
    assert!(rollup.down >= 1);
}

#[test]
fn prober_sees_a_dead_source_behind_a_pooled_netlogger_connection() {
    const NETLOGGER_URL: &str = "jdbc:netlogger://node00.hm/log";
    let gateway = world();
    let clock = gateway.clock().clone();
    gateway
        .admin()
        .add_source(DataSourceConfig::dynamic(NETLOGGER_URL, "node00 event log"))
        .expect("source registers");
    gateway.pump();
    gateway
        .query(&ClientRequest::realtime(
            NETLOGGER_URL,
            "SELECT Hostname, Category FROM Event",
        ))
        .expect("log agent answers");
    assert_eq!(
        gateway.connections().idle_connections(),
        2,
        "one per registered source"
    );
    assert_eq!(
        gateway.health().state_of(NETLOGGER_URL),
        Some(HealthState::Up)
    );

    // No client asks again: only the prober can notice the outage, and
    // it has a pooled connection to notice it through.
    gateway.network().set_down("node00.hm:netlogger", true);
    for _ in 0..gateway.config().health_down_after {
        clock.advance(10_000);
        gateway.pump();
    }
    assert_eq!(
        gateway.health().state_of(NETLOGGER_URL),
        Some(HealthState::Down)
    );
}

#[test]
fn a_due_probe_on_a_pooled_connection_is_one_agent_request() {
    let gateway = world();
    let clock = gateway.clock().clone();
    let link = gateway
        .network()
        .stats_for(&gateway.config().address, AGENT_ADDR);
    // The first probe connects, and leaves its connection in the pool.
    gateway.pump();
    assert_eq!(gateway.connections().idle_connections(), 1);
    for _ in 0..3 {
        let before = link.snapshot().requests;
        clock.advance(10_000);
        gateway.pump();
        assert_eq!(link.snapshot().requests - before, 1);
    }
    assert_eq!(gateway.connections().stats().snapshot().creates, 1);
}
