//! Fig 1 end-to-end: multiple sites, each with its own gateway and agent
//! population; clients connect to one gateway and transparently query the
//! whole Grid; events propagate between gateways.

use gridrm_agents::{deploy_site, SiteAgents};
use gridrm_core::events::ListenerFilter;
use gridrm_core::{ClientRequest, Gateway, GatewayConfig, Identity, Severity};
use gridrm_dbc::{RowSet, SqlError};
use gridrm_drivers::install_into_gateway;
use gridrm_global::{
    GlobalLayer, GlobalRequest, GlobalResponse, GmaDirectory, ProducerEntry, Transport, WireDelta,
    WireFrame, WireIdentity, WireRows,
};
use gridrm_resmodel::{SiteModel, SiteSpec};
use gridrm_simnet::{Latency, Network, SimClock};
use gridrm_sqlparse::{SqlType, SqlValue};
use gridrm_telemetry::{JournalSeverity, KIND_STREAM};
use std::sync::Arc;

struct Site {
    site: Arc<SiteModel>,
    agents: SiteAgents,
    gateway: Arc<Gateway>,
    layer: Arc<GlobalLayer>,
}

struct Grid {
    net: Arc<Network>,
    directory: Arc<GmaDirectory>,
    sites: Vec<Site>,
}

fn grid(names: &[&str]) -> Grid {
    let net = Network::new(SimClock::new(), 2026);
    let directory = GmaDirectory::new();
    let mut sites = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let model = SiteModel::generate(1000 + i as u64, &SiteSpec::new(name, 3, 4));
        model.advance_to(180_000);
        let agents = deploy_site(&net, model.clone());
        let gateway = Gateway::new(GatewayConfig::new(&format!("gw-{name}"), name), net.clone());
        install_into_gateway(&gateway);
        let layer = GlobalLayer::attach(gateway.clone(), directory.clone());
        sites.push(Site {
            site: model,
            agents,
            gateway,
            layer,
        });
    }
    Grid {
        net,
        directory,
        sites,
    }
}

#[test]
fn remote_query_routed_to_owning_gateway() {
    let g = grid(&["alpha", "beta"]);
    // Client connected to alpha queries a beta resource.
    let resp = g.sites[0]
        .layer
        .query(&ClientRequest::realtime(
            "jdbc:snmp://node01.beta/public",
            "SELECT Hostname, NCpu FROM Processor",
        ))
        .unwrap();
    assert_eq!(resp.rows.len(), 1);
    assert_eq!(resp.rows.rows()[0][0], SqlValue::Str("node01.beta".into()));
    // The query crossed exactly one gateway-to-gateway hop.
    assert_eq!(g.sites[0].layer.stats().remote_queries_out.get(), 1);
    assert_eq!(g.sites[1].layer.stats().remote_queries_in.get(), 1);
    // And alpha's gateway never talked to beta's agent directly.
    assert_eq!(
        g.net
            .stats_for("gw.alpha", "node01.beta:snmp")
            .snapshot()
            .requests,
        0
    );
}

/// A second Global layer attached to an already attached gateway counts
/// into the same cells the gateway's `/v1/metrics` reads.
#[test]
fn a_reattached_layer_counts_where_the_registry_reads() {
    let g = grid(&["alpha", "beta"]);
    let alpha = &g.sites[0].gateway;
    let second = GlobalLayer::attach(alpha.clone(), g.directory.clone());
    second
        .query(&ClientRequest::realtime(
            "jdbc:snmp://node01.beta/public",
            "SELECT Hostname FROM Processor",
        ))
        .unwrap();
    let live = second.stats().remote_queries_out.get();
    let exposed = alpha
        .telemetry()
        .registry()
        .family_values("gridrm_global_messages_total")
        .into_iter()
        .find_map(|(labels, value)| (labels == "kind=\"query_out\"").then_some(value))
        .expect("query_out series");
    assert_eq!(live, 1);
    assert_eq!(exposed, live as f64, "registry {exposed}, live {live}");
}

#[test]
fn mixed_local_and_remote_sources_consolidated() {
    let g = grid(&["alpha", "beta", "gamma"]);
    let resp = g.sites[0]
        .layer
        .query(
            &ClientRequest::builder("SELECT Hostname, Load1 FROM Processor")
                .sources(&[
                    "jdbc:snmp://node00.alpha/public",
                    "jdbc:snmp://node00.beta/public",
                    "jdbc:snmp://node00.gamma/public",
                ])
                .build(),
        )
        .unwrap();
    assert_eq!(resp.rows.len(), 3);
    assert_eq!(resp.sources_ok, 3);
    let hosts: Vec<String> = resp.rows.rows().iter().map(|r| r[0].to_string()).collect();
    assert!(hosts.contains(&"node00.beta".to_owned()));
    assert!(hosts.contains(&"node00.gamma".to_owned()));
}

#[test]
fn local_queries_never_leave_the_site() {
    let g = grid(&["alpha", "beta"]);
    g.sites[0]
        .layer
        .query(&ClientRequest::realtime(
            "jdbc:snmp://node02.alpha/public",
            "SELECT Hostname FROM Processor",
        ))
        .unwrap();
    assert_eq!(g.sites[0].layer.stats().remote_queries_out.get(), 0);
}

#[test]
fn remote_cache_mode_served_by_owner() {
    let g = grid(&["alpha", "beta"]);
    let source = "jdbc:ganglia://node00.beta/beta";
    let sql = "SELECT Hostname, Load1 FROM Processor";
    // Prime beta's cache through the global layer.
    g.sites[0]
        .layer
        .query(&ClientRequest::realtime(source, sql))
        .unwrap();
    let served_before = g
        .net
        .endpoint_stats("node00.beta:ganglia")
        .unwrap()
        .snapshot()
        .requests_served;
    let resp = g.sites[0]
        .layer
        .query(&ClientRequest::cached(source, sql, Some(60_000)))
        .unwrap();
    assert_eq!(resp.served_from_cache, 1);
    let served_after = g
        .net
        .endpoint_stats("node00.beta:ganglia")
        .unwrap()
        .snapshot()
        .requests_served;
    // The owning gateway answered from ITS cache: the agent saw nothing
    // (the inter-gateway scalability mechanism, §4).
    assert_eq!(served_after, served_before);
}

#[test]
fn events_propagate_between_gateways() {
    let g = grid(&["alpha", "beta"]);
    g.sites[0].layer.enable_event_propagation(Severity::Warning);
    g.sites[1].layer.enable_event_propagation(Severity::Warning);

    // A consumer at beta listens for remote cpu events.
    let (_, rx) = g.sites[1]
        .gateway
        .events()
        .register_listener(ListenerFilter {
            category_prefix: Some("cpu.".into()),
            ..Default::default()
        });

    // Trap fires at alpha.
    for a in &g.sites[0].agents.snmp {
        a.set_trap_sink(g.net.clone(), "gw.alpha", 3.0);
    }
    g.sites[0].site.inject_load_spike("node01.alpha", 15.0);
    g.sites[0].site.advance_to(181_000);
    let (traps, _) = g.sites[0].agents.pump();
    assert_eq!(traps, 1);

    // Alpha dispatches (forwarding to beta), then beta dispatches to its
    // local listeners.
    g.sites[0].gateway.pump();
    g.sites[1].gateway.pump();

    let event = rx.try_recv().expect("event crossed the Grid");
    assert_eq!(event.category, "cpu.load.high");
    assert!(event.source.starts_with("gma:gw-alpha:"));
    assert_eq!(event.hostname.as_deref(), Some("node01.alpha"));

    // No ping-pong: pumping again moves nothing new.
    g.sites[0].gateway.pump();
    g.sites[1].gateway.pump();
    assert!(rx.try_recv().is_err());
    assert_eq!(
        g.sites[1].layer.stats().events_out.get(),
        0,
        "beta re-forwarded a gma-sourced event"
    );
}

#[test]
fn owning_gateway_applies_its_own_security() {
    let g = grid(&["alpha", "beta"]);
    // Beta locks down; alpha stays permissive.
    g.sites[1]
        .gateway
        .set_security_policy(gridrm_core::SecurityPolicy::strict().with_rule(
            gridrm_core::security::AclRule {
                role: "monitor".into(),
                url_prefix: String::new(),
                group: "*".into(),
                allow: true,
            },
        ));
    let err = g.sites[0]
        .layer
        .query(
            &ClientRequest::realtime(
                "jdbc:snmp://node00.beta/public",
                "SELECT Hostname FROM Processor",
            )
            .with_identity(Identity::anonymous()),
        )
        .err()
        .unwrap();
    let msg = err.to_string();
    assert!(msg.contains("requires role"), "{msg}");
    // With the right role, beta accepts the vouched identity.
    let resp = g.sites[0]
        .layer
        .query(
            &ClientRequest::realtime(
                "jdbc:snmp://node00.beta/public",
                "SELECT Hostname FROM Processor",
            )
            .with_identity(Identity::new("alice", &["monitor"])),
        )
        .unwrap();
    assert_eq!(resp.rows.len(), 1);
}

#[test]
fn dead_remote_gateway_degrades_gracefully() {
    let g = grid(&["alpha", "beta"]);
    g.net.set_down("gw.beta:gma", true);
    // Mixed query: local part still answers, with a warning for beta.
    let resp = g.sites[0]
        .layer
        .query(
            &ClientRequest::builder("SELECT Hostname FROM Processor")
                .sources(&[
                    "jdbc:snmp://node00.alpha/public",
                    "jdbc:snmp://node00.beta/public",
                ])
                .build(),
        )
        .unwrap();
    assert_eq!(resp.rows.len(), 1);
    assert_eq!(resp.sources_ok, 1);
    assert!(resp.warnings.iter().any(|w| w.contains("gw-beta")));
    // Fully-remote query: hard error.
    assert!(g.sites[0]
        .layer
        .query(&ClientRequest::realtime(
            "jdbc:snmp://node00.beta/public",
            "SELECT Hostname FROM Processor",
        ))
        .is_err());
}

#[test]
fn ping_and_directory() {
    let g = grid(&["alpha", "beta"]);
    assert!(g.sites[0].layer.ping("gw-beta"));
    assert!(!g.sites[0].layer.ping("gw-nowhere"));
    assert_eq!(g.directory.producers().len(), 2);
}

/// A remote delta batch that does not rebuild (a row wider than its
/// columns) costs the poll that batch only: the local share's deltas,
/// already drained from their buffer, still reach the caller, and the
/// journal names the gateway that sent it.
#[test]
fn a_malformed_remote_delta_batch_loses_only_itself() {
    let g = grid(&["alpha"]);
    let liar = |_: &str, frame: &[u8]| {
        let answer = match WireFrame::decode::<GlobalRequest>(frame).unwrap().0 {
            GlobalRequest::Subscribe { .. } => GlobalResponse::Subscribed { subscription: 1 },
            GlobalRequest::PollDeltas { .. } => GlobalResponse::Deltas {
                deltas: vec![WireDelta {
                    subscription: 1,
                    seq: 1,
                    emitted_ms: 0,
                    origin: "local:gw-liar".into(),
                    rows: WireRows {
                        columns: vec![("Hostname".into(), SqlType::Str, None)],
                        rows: vec![vec![SqlValue::Str("node00.liar".into()), SqlValue::Int(1)]],
                    },
                    removed: 0,
                    coalesced: 0,
                }],
            },
            _ => GlobalResponse::Unsubscribed { existed: true },
        };
        WireFrame::encode(&answer).into_bytes()
    };
    g.net.serve("gw.liar:gma", Arc::new(liar));
    g.directory.register(ProducerEntry {
        gateway: "gw-liar".into(),
        site: "liar".into(),
        gma_address: "gw.liar:gma".into(),
        host_suffixes: vec![".liar".into()],
    });

    let layer = &g.sites[0].layer;
    let spec = ClientRequest::builder("SELECT Hostname, Load1 FROM Processor EVERY 250")
        .sources(&[
            "jdbc:snmp://node00.alpha/public",
            "jdbc:snmp://node00.liar/public",
        ])
        .subscribe();
    let sub = layer.subscribe(&spec).expect("grid subscribe");
    assert_eq!(sub.shares(), 2);
    let deltas = layer.poll_deltas(&sub, 0).expect("poll");
    let origins: Vec<&str> = deltas.iter().map(|d| d.origin.as_str()).collect();
    assert_eq!(origins, ["local:gw-alpha"]);
    let journal = g.sites[0]
        .gateway
        .telemetry()
        .journal()
        .recent_of_kind(KIND_STREAM);
    assert!(
        journal
            .iter()
            .any(|e| e.source == "gw-liar" && e.severity == JournalSeverity::Warning),
        "{journal:#?}"
    );
}

#[test]
fn wan_latency_accrues_on_remote_queries() {
    let g = grid(&["alpha", "beta"]);
    g.net
        .set_latency("gw.alpha:gma", "gw.beta:gma", Latency::ms(40, 0));
    g.sites[0]
        .layer
        .query(&ClientRequest::realtime(
            "jdbc:snmp://node00.beta/public",
            "SELECT Hostname FROM Processor",
        ))
        .unwrap();
    let link = g.net.stats_for("gw.alpha:gma", "gw.beta:gma").snapshot();
    assert_eq!(link.requests, 1);
    assert_eq!(link.latency_us, 80_000); // 40 ms each way
}

/// A request is classified once, from the statement it carries, so the
/// three ways in — `Gateway::query`, `GlobalLayer::query` and the wire
/// service — must treat every statement kind alike.
#[test]
fn every_entry_point_classifies_every_statement_kind_the_same_way() {
    const SOURCE: &str = "jdbc:snmp://node00.alpha/public";
    const SELECT: &str = "SELECT Hostname, NCpu FROM Processor";
    let g = grid(&["alpha"]);
    let (gateway, layer) = (&g.sites[0].gateway, &g.sites[0].layer);
    let wire = layer.wire_service();
    let over_wire = |sql: &str| -> Result<RowSet, String> {
        let frame = WireFrame::encode(&GlobalRequest::Query {
            from_gateway: "client".into(),
            identity: WireIdentity::from(&Identity::anonymous()),
            sources: vec![SOURCE.into()],
            sql: sql.into(),
            max_cache_age_ms: None,
            trace: None,
            deadline_ms: None,
        });
        let answer = wire.handle_frame("test", frame.bytes());
        match WireFrame::decode::<GlobalResponse>(&answer).unwrap().0 {
            GlobalResponse::Rows { rows, .. } => Ok(rows.to_rowset().unwrap()),
            GlobalResponse::Error { message } => Err(message),
            other => panic!("unexpected wire answer {other:?}"),
        }
    };
    // [Gateway::query, GlobalLayer::query, wire]; the wire carries an
    // error as its message only.
    let rows_from_each = |sql: &str| -> [RowSet; 3] {
        let request = ClientRequest::realtime(SOURCE, sql);
        [
            gateway.query(&request).expect("gateway").rows,
            layer.query(&request).expect("global layer").rows,
            over_wire(sql).expect("wire"),
        ]
    };
    let error_from_each = |request: &ClientRequest, wired: bool| -> SqlError {
        let local = gateway.query(request).expect_err("gateway");
        assert_eq!(layer.query(request).expect_err("global layer"), local);
        if wired {
            assert_eq!(
                over_wire(request.sql()).expect_err("wire"),
                local.to_string()
            );
        }
        local
    };
    let streams = gateway.streams();
    let requests = || gateway.request_manager().stats().requests.get();
    let column = |rows: &RowSet, name: &str| rows.meta().column_index(name).unwrap();

    // Plain SELECT: the same rows (the wire drops column provenance,
    // so compare cells).
    let [a, b, c] = rows_from_each(SELECT);
    assert_eq!(a.len(), 1);
    assert_eq!(a, b);
    assert_eq!(a.rows(), c.rows());

    // SELECT … EVERY: each entry registers one subscription and answers
    // with its acknowledgement (ids differ, delivery knobs do not).
    let acks = rows_from_each(&format!("{SELECT} EVERY 250"));
    assert_eq!(streams.subscriber_count(), 3);
    for ack in &acks {
        assert_eq!(ack.rows()[0][1..], acks[0].rows()[0][1..]);
        let SqlValue::Int(id) = ack.rows()[0][column(ack, "Subscription")] else {
            panic!("ack without a subscription id: {ack:?}");
        };
        assert!(gateway.cancel_subscription(id as u64));
    }

    // EXPLAIN: a span tree rooted at the explain span, with the inner
    // SELECT's request span below it.
    let sql = format!("EXPLAIN {SELECT}");
    for tree in rows_from_each(&sql) {
        let (request, stages) = (column(&tree, "request"), column(&tree, "stages"));
        assert_eq!(tree.rows()[0][request], SqlValue::Str(sql.clone()));
        assert_eq!(tree.rows()[0][stages], SqlValue::Str("explain=plan".into()));
        assert!(tree.rows().iter().any(|row| {
            row[request] == SqlValue::Str(SELECT.into())
                && row[stages].to_string().contains("handle")
        }));
    }

    // EXPLAIN ANALYZE … EVERY: one traced temporary subscription.
    for tree in rows_from_each(&format!("EXPLAIN ANALYZE {SELECT} EVERY 250")) {
        let rendered = format!("{:?}", tree.rows());
        for stage in ["explain@0=analyze", "subscribe", "delta", "deliver"] {
            assert!(rendered.contains(stage), "missing {stage}: {rendered}");
        }
    }
    assert_eq!(streams.subscriber_count(), 0);
    assert_eq!(streams.standing_query_count(), 0);

    // DELETE: refused, in the same words.
    assert_eq!(
        error_from_each(
            &ClientRequest::realtime(SOURCE, "DELETE FROM Processor"),
            true
        ),
        SqlError::Unsupported("clients may only submit SELECT statements".into())
    );

    // Unparseable text: a syntax error from the request path — counted
    // as a request and traced to an `error` outcome at every entry.
    let garbage = ClientRequest::realtime(SOURCE, "SELEKT nonsense");
    let before = requests();
    assert!(matches!(
        error_from_each(&garbage, true),
        SqlError::Syntax(_)
    ));
    assert_eq!(requests(), before + 3);
    let spans: Vec<_> = gateway
        .telemetry()
        .traces()
        .recent()
        .into_iter()
        .filter(|span| span.request == garbage.sql())
        .collect();
    assert!(spans.len() >= 3);
    assert!(
        spans.iter().all(|span| span.outcome == "error"),
        "{spans:?}"
    );

    // …and an invalid session is reported ahead of the syntax error.
    // The Global layer resolves the session at its own entry, before
    // anything could be sent to a peer, so only the local entry's
    // Request Manager counts this one.
    let token = gateway.login(Identity::anonymous());
    assert!(gateway.sessions().close(token));
    assert_eq!(
        error_from_each(&garbage.with_token(token), false),
        SqlError::Security("invalid or expired session".into())
    );
    assert_eq!(requests(), before + 4);
}
