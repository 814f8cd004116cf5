//! End-to-end Local-layer integration: simulated site, agents, gateway
//! and the standard drivers, exercising the paper's Fig 3 query path, the
//! Fig 4 event path, caching (§4), history (§3.1.1), failure policies (§4)
//! and the admin tree view (Fig 9).

use gridrm_agents::deploy_site;
use gridrm_core::{
    AlertRule, ClientRequest, Comparison, DataSourceConfig, Gateway, GatewayConfig, Identity,
    ListenerFilter, Severity, SourceStatus,
};
use gridrm_drivers::install_into_gateway;
use gridrm_resmodel::{SiteModel, SiteSpec};
use gridrm_simnet::{Network, SimClock};
use gridrm_sqlparse::SqlValue;
use std::sync::Arc;

struct World {
    net: Arc<Network>,
    site: Arc<SiteModel>,
    agents: gridrm_agents::SiteAgents,
    gateway: Arc<Gateway>,
}

fn world() -> World {
    let net = Network::new(SimClock::new(), 99);
    let mut spec = SiteSpec::new("alpha", 4, 4);
    spec.peers = vec!["node00.beta".to_owned()];
    let site = SiteModel::generate(1234, &spec);
    site.advance_to(120_000);
    let agents = deploy_site(&net, site.clone());
    let gateway = Gateway::new(GatewayConfig::new("gw-alpha", "alpha"), net.clone());
    install_into_gateway(&gateway);
    World {
        net,
        site,
        agents,
        gateway,
    }
}

#[test]
fn realtime_query_through_full_stack() {
    let w = world();
    let resp = w
        .gateway
        .query(&ClientRequest::realtime(
            "jdbc:snmp://node01.alpha/public",
            "SELECT Hostname, NCpu, Load1 FROM Processor",
        ))
        .unwrap();
    assert_eq!(resp.rows.len(), 1);
    assert_eq!(resp.sources_ok, 1);
    assert!(resp.warnings.is_empty());
    assert_eq!(resp.rows.rows()[0][0], SqlValue::Str("node01.alpha".into()));
}

#[test]
fn multi_source_consolidation() {
    let w = world();
    let sources: Vec<String> = (0..4)
        .map(|i| format!("jdbc:snmp://node{i:02}.alpha/public"))
        .collect();
    let src_refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let resp = w
        .gateway
        .query(
            &ClientRequest::builder("SELECT Hostname, Load1 FROM Processor")
                .sources(&src_refs)
                .build(),
        )
        .unwrap();
    // "The RequestManager coordinates queries across multiple data sources
    // and consolidates results" (§3.1.1): one row per host, one result.
    assert_eq!(resp.rows.len(), 4);
    assert_eq!(resp.sources_ok, 4);
}

#[test]
fn cached_mode_limits_intrusion() {
    let w = world();
    let source = "jdbc:ganglia://node00.alpha/alpha";
    let sql = "SELECT Hostname, Load1 FROM Processor";
    // Prime.
    w.gateway
        .query(&ClientRequest::realtime(source, sql))
        .unwrap();
    let served_before = w
        .net
        .endpoint_stats("node00.alpha:ganglia")
        .unwrap()
        .snapshot()
        .requests_served;
    // 50 cached reads: zero additional agent traffic (§4's scalability).
    for _ in 0..50 {
        let resp = w
            .gateway
            .query(&ClientRequest::cached(source, sql, None))
            .unwrap();
        assert_eq!(resp.served_from_cache, 1);
    }
    let served_after = w
        .net
        .endpoint_stats("node00.alpha:ganglia")
        .unwrap()
        .snapshot()
        .requests_served;
    assert_eq!(served_after, served_before);

    // Explicit real-time poll refreshes (Fig 9's "explicitly poll").
    let resp = w
        .gateway
        .query(&ClientRequest::realtime(source, sql))
        .unwrap();
    assert_eq!(resp.served_from_cache, 0);
}

#[test]
fn history_accumulates_and_is_queryable() {
    let w = world();
    let source = "jdbc:snmp://node02.alpha/public";
    for step in 1..=5u64 {
        w.site.advance_to(120_000 + step * 30_000);
        w.gateway
            .query(&ClientRequest::realtime(
                source,
                "SELECT Hostname, Load1 FROM Processor",
            ))
            .unwrap();
    }
    let resp = w
        .gateway
        .query(&ClientRequest::historical(
            "SELECT COUNT(*) AS n FROM history WHERE attr = 'Load1'",
        ))
        .unwrap();
    assert_eq!(resp.rows.rows()[0][0], SqlValue::Int(5));
    // Series helper (Fig 9's plotting hook).
    let series = w
        .gateway
        .history()
        .series(source, "Processor", "node02.alpha", "Load1")
        .unwrap();
    assert_eq!(series.len(), 5);
}

/// A harvest is queued, not written, but every read of the store sees
/// it: through the jdbc-gridrm mount and as a historical query, with no
/// pump in between.
#[test]
fn history_reads_see_the_harvest_just_made() {
    let w = world();
    let source = "jdbc:snmp://node01.alpha/public";
    let sql = "SELECT Hostname, NCpu, Load1 FROM Processor";
    let count = "SELECT COUNT(*) AS n FROM history WHERE hostname = 'node01.alpha'";
    w.gateway
        .query(&ClientRequest::realtime(source, sql))
        .unwrap();
    let via_mount = w
        .gateway
        .query(&ClientRequest::realtime(
            "jdbc:gridrm://local/history",
            count,
        ))
        .unwrap();
    assert_eq!(via_mount.rows.rows()[0][0], SqlValue::Int(3));
    w.gateway
        .query(&ClientRequest::realtime(source, sql))
        .unwrap();
    let historical = w.gateway.query(&ClientRequest::historical(count)).unwrap();
    assert_eq!(historical.rows.rows()[0][0], SqlValue::Int(6));
}

/// Run `sql` through the writable jdbc-gridrm mount of the history store.
fn update_through_mount(w: &World, sql: &str) {
    let url = gridrm_dbc::JdbcUrl::parse("jdbc:gridrm://local/history").unwrap();
    let mut conn = w
        .gateway
        .driver_manager()
        .base()
        .connect(&url, &gridrm_dbc::Properties::new())
        .unwrap();
    conn.create_statement()
        .unwrap()
        .execute_update(sql)
        .unwrap();
}

/// A client that drops `history` through the mount costs the next
/// harvests their samples, never the query: the loss is journalled.
#[test]
fn a_harvest_into_a_dropped_history_table_is_journalled() {
    let w = world();
    update_through_mount(&w, "DROP TABLE history");
    let source = "jdbc:snmp://node02.alpha/public";
    let resp = w
        .gateway
        .query(&ClientRequest::realtime(
            source,
            "SELECT Hostname, NCpu, Load1 FROM Processor",
        ))
        .unwrap();
    assert_eq!(resp.rows.len(), 1);
    assert!(resp.warnings.is_empty(), "{:?}", resp.warnings);
    w.gateway.pump();
    let dropped = w
        .gateway
        .telemetry()
        .journal()
        .recent_of_kind(gridrm_telemetry::KIND_HISTORY_DROP);
    assert_eq!(dropped.len(), 1, "{dropped:?}");
    assert_eq!(
        dropped[0].severity,
        gridrm_telemetry::JournalSeverity::Warning
    );
    assert_eq!(dropped[0].source, source);
    assert!(dropped[0].message.contains("3 samples"), "{dropped:?}");
}

/// A harvested NULL `Hostname` (an untranslatable attribute, §3.2.3) is
/// stored as SQL NULL, not as a host named "NULL".
#[test]
fn a_null_hostname_is_harvested_as_null() {
    let w = world();
    update_through_mount(
        &w,
        "CREATE TABLE probe (Hostname TEXT, Load1 REAL, Model TEXT)",
    );
    update_through_mount(
        &w,
        "INSERT INTO probe VALUES (NULL, 0.5, 'Xeon'), (NULL, 1.5, NULL)",
    );
    w.gateway
        .query(&ClientRequest::realtime(
            "jdbc:gridrm://local/history",
            "SELECT Hostname, Load1, Model FROM probe",
        ))
        .unwrap();
    let count = |sql: &str| {
        w.gateway
            .query(&ClientRequest::historical(sql))
            .unwrap()
            .rows
            .rows()[0][0]
            .clone()
    };
    assert_eq!(
        count("SELECT COUNT(*) FROM history WHERE hostname IS NULL"),
        SqlValue::Int(3)
    );
    assert_eq!(
        count("SELECT COUNT(*) FROM history WHERE hostname = 'NULL'"),
        SqlValue::Int(0)
    );
    let series = w
        .gateway
        .history()
        .series("jdbc:gridrm://local/history", "probe", "NULL", "Load1")
        .unwrap();
    assert!(series.is_empty(), "{series:?}");
}

#[test]
fn trap_to_listener_pipeline() {
    let w = world();
    // Arm the SNMP agents to trap to this gateway.
    for agent in &w.agents.snmp {
        agent.set_trap_sink(w.net.clone(), "gw.alpha", 3.0);
    }
    let (_, rx) = w.gateway.events().register_listener(ListenerFilter {
        category_prefix: Some("cpu.".into()),
        ..Default::default()
    });
    // Provoke a spike on one host and pump.
    w.site.inject_load_spike("node03.alpha", 12.0);
    w.site.advance_to(121_000);
    let (traps, _) = w.agents.pump();
    assert_eq!(traps, 1);
    let dispatched = w.gateway.pump();
    assert!(dispatched >= 1);
    let event = rx.try_recv().expect("listener got the trap");
    assert_eq!(event.category, "cpu.load.high");
    assert_eq!(event.hostname.as_deref(), Some("node03.alpha"));
    assert_eq!(event.severity, Severity::Critical);
    // Recorded for historical analysis (§3.1.5).
    let resp = w
        .gateway
        .query(&ClientRequest::historical(
            "SELECT COUNT(*) FROM events WHERE category = 'cpu.load.high'",
        ))
        .unwrap();
    assert_eq!(resp.rows.rows()[0][0], SqlValue::Int(1));
}

#[test]
fn threshold_alerts_from_queries() {
    let w = world();
    w.gateway.alerts().add_rule(AlertRule {
        name: "mem-low".into(),
        group: "MainMemory".into(),
        attr: "RAMAvailableMB".into(),
        cmp: Comparison::Lt,
        threshold: 100_000.0, // generous: always fires
        severity: Severity::Warning,
        category: "mem.low".into(),
    });
    let (_, rx) = w
        .gateway
        .events()
        .register_listener(ListenerFilter::default());
    w.gateway
        .query(&ClientRequest::realtime(
            "jdbc:snmp://node00.alpha/public",
            "SELECT Hostname, RAMAvailableMB FROM MainMemory",
        ))
        .unwrap();
    w.gateway.pump();
    let event = rx.try_recv().expect("alert fired");
    assert_eq!(event.category, "mem.low");
}

#[test]
fn failover_to_another_driver_when_agent_dies() {
    let w = world();
    // A wildcard source on the head node: SNMP normally wins the scan.
    let source = "jdbc:://node00.alpha/public";
    let sql = "SELECT Hostname, Load1 FROM Processor WHERE Hostname = 'node00.alpha'";
    let resp = w
        .gateway
        .query(&ClientRequest::realtime(source, sql))
        .unwrap();
    assert_eq!(resp.rows.len(), 1);
    let url = gridrm_dbc::JdbcUrl::parse(source).unwrap();
    assert_eq!(
        w.gateway.driver_manager().cached_driver(&url).as_deref(),
        Some("jdbc-snmp")
    );
    // Kill the SNMP agent: TryNext reroutes (Ganglia can answer Processor
    // for the whole cluster; the WHERE keeps the same row).
    w.net.set_down("node00.alpha:snmp", true);
    let resp = w
        .gateway
        .query(&ClientRequest::realtime(source, sql))
        .unwrap();
    assert_eq!(resp.rows.len(), 1);
    assert_eq!(
        w.gateway.driver_manager().cached_driver(&url).as_deref(),
        Some("jdbc-ganglia")
    );
}

#[test]
fn security_layers_enforced() {
    let w = world();
    w.gateway
        .set_security_policy(gridrm_core::SecurityPolicy::strict().with_rule(
            gridrm_core::security::AclRule {
                role: "monitor".into(),
                url_prefix: "jdbc:snmp://".into(),
                group: "Processor".into(),
                allow: true,
            },
        ));
    let source = "jdbc:snmp://node00.alpha/public";
    let sql = "SELECT Hostname FROM Processor";
    // Anonymous: coarse denial.
    assert!(w
        .gateway
        .query(&ClientRequest::realtime(source, sql))
        .is_err());
    // Authorised role via a session.
    let token = w.gateway.login(Identity::new("alice", &["monitor"]));
    let resp = w
        .gateway
        .query(&ClientRequest::realtime(source, sql).with_token(token))
        .unwrap();
    assert_eq!(resp.rows.len(), 1);
    // Fine-grained: same identity, disallowed group.
    let err = w
        .gateway
        .query(
            &ClientRequest::realtime(source, "SELECT Hostname FROM MainMemory").with_token(token),
        )
        .err()
        .unwrap();
    assert!(matches!(err, gridrm_dbc::SqlError::Security(_)));
}

#[test]
fn admin_tree_view_reflects_health() {
    let w = world();
    let up = "jdbc:snmp://node00.alpha/public";
    let down = "jdbc:snmp://node01.alpha/public";
    w.gateway
        .admin()
        .add_source(DataSourceConfig::dynamic(up, "node00"))
        .unwrap();
    w.gateway
        .admin()
        .add_source(DataSourceConfig::dynamic(down, "node01"))
        .unwrap();
    w.gateway
        .query(&ClientRequest::realtime(
            up,
            "SELECT Hostname FROM Processor",
        ))
        .unwrap();
    w.net.set_down("node01.alpha:snmp", true);
    // With Report policy the failure surfaces and is recorded.
    let url = gridrm_dbc::JdbcUrl::parse(down).unwrap();
    w.gateway
        .driver_manager()
        .set_policy(&url, gridrm_core::FailurePolicy::Report);
    assert!(w
        .gateway
        .query(&ClientRequest::realtime(
            down,
            "SELECT Hostname FROM Processor"
        ))
        .is_err());

    let tree = w
        .gateway
        .admin()
        .tree_view(w.gateway.clock().now_millis(), 60_000);
    let status = |u: &str| tree.iter().find(|n| n.source == u).unwrap().status;
    assert_eq!(status(up), SourceStatus::Ok);
    assert_eq!(status(down), SourceStatus::PollFailed);
    // The healthy node's cached queries appear in its tree node.
    assert!(!tree
        .iter()
        .find(|n| n.source == up)
        .unwrap()
        .cached
        .is_empty());
}

/// A cache hit never contacts the source, so it is no evidence that a
/// poll succeeded: the tree keeps showing the last real poll's failure.
#[test]
fn a_cache_hit_does_not_clear_a_failed_poll() {
    let w = world();
    let url = "jdbc:snmp://node02.alpha/public";
    let sql = "SELECT Hostname FROM Processor";
    w.gateway
        .admin()
        .add_source(DataSourceConfig::dynamic(url, "node02"))
        .unwrap();
    w.gateway.query(&ClientRequest::realtime(url, sql)).unwrap();
    w.net.set_down("node02.alpha:snmp", true);
    w.gateway.driver_manager().set_policy(
        &gridrm_dbc::JdbcUrl::parse(url).unwrap(),
        gridrm_core::FailurePolicy::Report,
    );
    assert!(w.gateway.query(&ClientRequest::realtime(url, sql)).is_err());

    w.gateway.clock().advance(1_000);
    let resp = w
        .gateway
        .query(&ClientRequest::cached(url, sql, Some(60_000)))
        .unwrap();
    assert_eq!(resp.served_from_cache, 1);

    let tree = w
        .gateway
        .admin()
        .tree_view(w.gateway.clock().now_millis(), 60_000);
    let node = tree.iter().find(|n| n.source == url).unwrap();
    assert_eq!(node.status, SourceStatus::PollFailed, "{node:?}");
}

/// Administer `url` in `w`'s gateway.
fn administer(w: &World, url: &str) {
    w.gateway
        .admin()
        .add_source(DataSourceConfig::dynamic(url, url))
        .unwrap();
}

/// `url`'s Fig 9 icon, checked against the rule applied to its health
/// record.
fn icon(w: &World, url: &str) -> SourceStatus {
    let now = w.gateway.clock().now_millis();
    let tree = w.gateway.admin().tree_view(now, 60_000);
    let node = tree.iter().find(|n| n.source == url).unwrap();
    let record = w.gateway.health().snapshot_of(url);
    assert_eq!(
        node.status,
        SourceStatus::of(record.as_ref(), now, 60_000),
        "{record:?}"
    );
    node.status
}

/// A request that never reaches the source says nothing about its
/// health: bad SQL, a fine-grained denial and an exhausted deadline all
/// leave a healthy source `Ok`.
#[test]
fn a_request_that_never_reaches_the_source_leaves_it_ok() {
    let w = world();
    let url = "jdbc:snmp://node00.alpha/public";
    let sql = "SELECT Hostname FROM Processor";
    administer(&w, url);
    w.gateway
        .set_security_policy(gridrm_core::SecurityPolicy::strict().with_rule(
            gridrm_core::security::AclRule {
                role: "monitor".into(),
                url_prefix: "jdbc:snmp://".into(),
                group: "Processor".into(),
                allow: true,
            },
        ));
    let token = w.gateway.login(Identity::new("alice", &["monitor"]));
    let unreached = [
        ClientRequest::realtime(url, "SELEC nonsense").with_token(token),
        ClientRequest::realtime(url, "SELECT Hostname FROM MainMemory").with_token(token),
        ClientRequest::builder(sql)
            .source(url)
            .token(token)
            .deadline_ms(0)
            .build(),
    ];
    for request in &unreached {
        w.gateway
            .query(&ClientRequest::realtime(url, sql).with_token(token))
            .unwrap();
        assert_eq!(icon(&w, url), SourceStatus::Ok);
        let answer = w.gateway.query(request);
        assert!(
            answer.as_ref().map_or(true, |r| r.sources_ok == 0),
            "{answer:?}"
        );
        assert_eq!(icon(&w, url), SourceStatus::Ok, "{request:?}");
        assert_eq!(
            w.gateway.health().state_of(url),
            Some(gridrm_core::HealthState::Up)
        );
    }
}

/// Probes reach the tree: a source whose agent died after a good query
/// is `Down` after a few probe intervals, and its icon says so.
#[test]
fn failing_probes_show_poll_failed() {
    let w = world();
    let url = "jdbc:snmp://node01.alpha/public";
    administer(&w, url);
    w.gateway
        .query(&ClientRequest::realtime(
            url,
            "SELECT Hostname FROM Processor",
        ))
        .unwrap();
    w.net.set_down("node01.alpha:snmp", true);
    for _ in 0..4 {
        w.gateway
            .clock()
            .advance(w.gateway.config().probe_interval_ms);
        w.gateway.pump();
    }
    assert_eq!(
        w.gateway.health().state_of(url),
        Some(gridrm_core::HealthState::Down)
    );
    assert_eq!(icon(&w, url), SourceStatus::PollFailed);
}

/// A trap from `node03.alpha:snmp` concerns `jdbc:snmp://node03.alpha/…`:
/// it lights the source's event icon and re-evaluates a standing query
/// over it at the next pump, ahead of its cadence.
#[test]
fn a_trap_reaches_the_source_it_came_from() {
    let w = world();
    let url = "jdbc:snmp://node03.alpha/public";
    let agent = "node03.alpha:snmp";
    let sql = "SELECT Hostname, Load1 FROM Processor";
    administer(&w, url);
    w.gateway.query(&ClientRequest::realtime(url, sql)).unwrap();
    w.gateway
        .query(&ClientRequest::realtime(
            url,
            &format!("{sql} EVERY 600000"),
        ))
        .unwrap();
    // The first pump runs the source's first probe.
    w.gateway.pump();
    assert_eq!(icon(&w, url), SourceStatus::Ok);
    let served = || {
        w.net
            .endpoint_stats(agent)
            .unwrap()
            .snapshot()
            .requests_served
    };
    let before = served();

    for a in &w.agents.snmp {
        a.set_trap_sink(w.net.clone(), "gw.alpha", 3.0);
    }
    w.site.inject_load_spike("node03.alpha", 12.0);
    w.site.advance_to(121_000);
    assert_eq!(w.agents.pump().0, 1);
    w.gateway.pump();

    assert_eq!(icon(&w, url), SourceStatus::RecentEvent);
    assert!(served() > before, "the standing query was not re-evaluated");
    let subscription = &w.gateway.streams().snapshot()[0];
    assert_eq!(subscription.emitted, 2, "{subscription:?}");
}

/// A source administered as `jdbc:snmp://node02.alpha` is the source the
/// request path records as `jdbc:snmp://node02.alpha/`: one health row.
#[test]
fn a_non_canonical_url_is_one_health_row() {
    let w = world();
    administer(&w, "jdbc:snmp://node02.alpha");
    w.net.set_down("node02.alpha:snmp", true);
    let _ = w.gateway.query(&ClientRequest::realtime(
        "jdbc:snmp://node02.alpha",
        "SELECT Hostname FROM Processor",
    ));
    let rows: Vec<String> = w
        .gateway
        .health()
        .snapshot()
        .into_iter()
        .map(|s| s.source)
        .filter(|s| s.contains("node02.alpha"))
        .collect();
    assert_eq!(rows, ["jdbc:snmp://node02.alpha/"]);
    assert_eq!(
        icon(&w, "jdbc:snmp://node02.alpha/"),
        SourceStatus::PollFailed
    );
}

#[test]
fn dml_rejected_at_the_acil() {
    let w = world();
    let err = w
        .gateway
        .query(&ClientRequest::realtime(
            "jdbc:gridrm://local/history",
            "DELETE FROM history",
        ))
        .err()
        .unwrap();
    assert!(matches!(err, gridrm_dbc::SqlError::Unsupported(_)));
}

/// `Gateway::builder` parses a repeated text once and builds the request
/// `ClientRequest::builder` builds; a syntax error still reaches the
/// client on every submission.
#[test]
fn the_gateway_parses_a_repeated_text_once() {
    let w = world();
    let url = "jdbc:snmp://node01.alpha/public";
    let sql = "SELECT Hostname, NCpu, Load1 FROM Processor";
    let first = w.gateway.builder(sql).source(url).build();
    let again = w.gateway.builder(sql).source(url).build();
    assert!(std::ptr::eq(
        first.statement().unwrap(),
        again.statement().unwrap()
    ));
    let plain = ClientRequest::realtime(url, sql);
    assert_eq!(again.statement().unwrap(), plain.statement().unwrap());
    assert_eq!(
        w.gateway.query(&again).unwrap().rows,
        w.gateway.query(&plain).unwrap().rows
    );
    for _ in 0..2 {
        let bad = w.gateway.builder("SELEC Load1").source(url).build();
        let err = w.gateway.query(&bad).err().unwrap();
        assert!(matches!(err, gridrm_dbc::SqlError::Syntax(_)), "{err}");
    }
}

#[test]
fn glue_homogeneity_across_all_five_agents() {
    // The headline claim (§1): one SQL query, five heterogeneous agents,
    // one homogeneous answer shape.
    let w = world();
    let sql = "SELECT Hostname, Load1 FROM Processor WHERE Hostname = 'node01.alpha'";
    for source in [
        "jdbc:snmp://node01.alpha/public",
        "jdbc:ganglia://node00.alpha/alpha",
        "jdbc:scms://node00.alpha/",
    ] {
        let resp = w
            .gateway
            .query(&ClientRequest::realtime(source, sql))
            .unwrap();
        assert_eq!(resp.rows.len(), 1, "via {source}");
        assert_eq!(resp.rows.meta().column_name(0).unwrap(), "Hostname");
        assert_eq!(resp.rows.meta().column_name(1).unwrap(), "Load1");
    }
    // NWS speaks NetworkElement, NetLogger speaks Event — same mechanism.
    w.agents.pump();
    let resp = w
        .gateway
        .query(&ClientRequest::realtime(
            "jdbc:nws://node00.alpha/perf",
            "SELECT SourceHost, DestHost, BandwidthMbps FROM NetworkElement",
        ))
        .unwrap();
    assert!(resp.rows.len() >= 2);
    let resp = w
        .gateway
        .query(&ClientRequest::realtime(
            "jdbc:netlogger://node00.alpha/log",
            "SELECT Hostname, Category, Value FROM Event WHERE Category = 'cpu.load'",
        ))
        .unwrap();
    assert_eq!(resp.rows.len(), 4); // one per host
}

#[test]
fn pump_housekeeping_sweeps_cache_sessions_and_history() {
    let w = world();
    let source = "jdbc:snmp://node00.alpha/public";
    let sql = "SELECT Hostname, Load1 FROM Processor";
    w.gateway
        .query(&ClientRequest::realtime(source, sql))
        .unwrap();
    assert_eq!(w.gateway.cache().len(), 1);
    let token = w.gateway.login(Identity::anonymous());

    // Far beyond cache sweep age (10× TTL), session TTL and the history
    // retention window.
    let jump = w.gateway.config().history_retention_ms + 1_000_000;
    w.gateway.clock().advance(jump);
    w.gateway.pump();

    assert_eq!(w.gateway.cache().len(), 0, "stale cache entry survived");
    assert!(
        w.gateway
            .sessions()
            .resolve(token, w.gateway.clock().now_millis())
            .is_none(),
        "expired session survived"
    );
    let resp = w
        .gateway
        .query(&ClientRequest::historical("SELECT COUNT(*) FROM history"))
        .unwrap();
    assert_eq!(
        resp.rows.rows()[0][0],
        SqlValue::Int(0),
        "history not trimmed"
    );
}
