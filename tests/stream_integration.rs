//! The live observability plane end to end: grid-level continuous
//! queries streaming exact deterministic deltas across the wire,
//! backpressure policies bounding slow subscribers with counters that
//! agree with delivered counts, subscriber churn mid-pump, and alerts
//! firing through the materialised-continuous-query path on every
//! surface (events, journal, SQL table, Prometheus).

use gridrm::dbc::{
    ColumnMeta, Connection, DbcResult, Driver, DriverMetaData, JdbcUrl, Properties, ResultSet,
    ResultSetMetaData, RowSet, SqlError, Statement,
};
use gridrm::prelude::*;
use gridrm::sqlparse::SqlType;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

const SQL: &str = "SELECT Hostname, Load1 FROM Processor ORDER BY Hostname EVERY 250";
const ALPHA_URL: &str = "jdbc:snmp://node00.alpha/public";
const BETA_URL: &str = "jdbc:snmp://node00.beta/public";

struct Grid {
    sites: Vec<Arc<SiteModel>>,
    gateways: Vec<Arc<Gateway>>,
    layers: Vec<Arc<GlobalLayer>>,
}

/// Two sites behind one directory, zero-latency links, models advanced
/// to the same virtual instant.
fn grid() -> Grid {
    let net = Network::new(SimClock::new(), 4242);
    let directory = GmaDirectory::new();
    let mut sites = Vec::new();
    let mut gateways = Vec::new();
    let mut layers = Vec::new();
    for (i, name) in ["alpha", "beta"].iter().enumerate() {
        let model = SiteModel::generate(900 + i as u64, &SiteSpec::new(name, 2, 3));
        model.advance_to(60_000);
        deploy_site(&net, model.clone());
        sites.push(model);
        let gateway = Gateway::new(GatewayConfig::new(&format!("gw-{name}"), name), net.clone());
        install_into_gateway(&gateway);
        layers.push(GlobalLayer::attach(gateway.clone(), directory.clone()));
        gateways.push(gateway);
    }
    Grid {
        sites,
        gateways,
        layers,
    }
}

/// Render a delta to a comparable line (everything deterministic).
fn render(d: &StreamDelta) -> String {
    format!(
        "{}@{} seq={} rows={} removed={} coalesced={}",
        d.origin,
        d.emitted_ms,
        d.seq,
        d.rows.len(),
        d.removed,
        d.coalesced
    )
}

/// Run the two-site streaming scenario once and transcribe every delta.
fn run_grid_scenario() -> Vec<String> {
    let g = grid();
    let clock = g.gateways[0].clock().clone();
    let spec = ClientRequest::builder(SQL)
        .sources(&[ALPHA_URL, BETA_URL])
        .subscribe();
    let sub = g.layers[0].subscribe(&spec).expect("grid subscribe");
    assert_eq!(sub.shares(), 2, "one local share, one remote share");
    assert!(sub.local.is_some());
    assert_eq!(sub.remotes.len(), 1);
    assert_eq!(sub.remotes[0].gateway, "gw-beta");

    let mut transcript = Vec::new();
    // Round 0: registration emitted the initial snapshot on both
    // gateways at the (virtual) instant of subscription.
    for d in g.layers[0].poll_deltas(&sub, 0).expect("initial poll") {
        transcript.push(render(&d));
    }
    // Rounds 1-3: advance virtual time one cadence at a time. Rounds 1
    // and 2 move the site models (loads change -> deltas); round 3
    // changes nothing, so the evaluations must emit nothing.
    for round in 1..=3u64 {
        clock.advance(250);
        if round < 3 {
            for site in &g.sites {
                site.advance_to(60_000 + round * 60_000);
            }
        }
        for gw in &g.gateways {
            gw.pump();
        }
        for d in g.layers[0].poll_deltas(&sub, 0).expect("poll") {
            transcript.push(render(&d));
        }
    }
    assert_eq!(g.layers[0].unsubscribe(&sub), 2, "both shares cancel");
    assert!(
        g.layers[0].poll_deltas(&sub, 0).is_err(),
        "polling a cancelled grid subscription errors"
    );
    transcript
}

#[test]
fn grid_subscription_streams_exact_deltas_across_the_wire() {
    let transcript = run_grid_scenario();
    // Initial snapshots at t=0 (subscribe time), one per share, merged
    // deterministically: same emit time -> origin order.
    assert_eq!(
        transcript[..2],
        [
            "local:gw-alpha@0 seq=1 rows=1 removed=0 coalesced=0",
            "local:gw-beta@0 seq=1 rows=1 removed=0 coalesced=0"
        ],
        "transcript: {transcript:#?}"
    );
    // Two changed rounds follow at exactly one cadence apart (a
    // modified row is one new row plus one removal); the unchanged
    // third round emitted nothing.
    assert_eq!(
        transcript[2..],
        [
            "local:gw-alpha@250 seq=2 rows=1 removed=1 coalesced=0",
            "local:gw-beta@250 seq=2 rows=1 removed=1 coalesced=0",
            "local:gw-alpha@500 seq=3 rows=1 removed=1 coalesced=0",
            "local:gw-beta@500 seq=3 rows=1 removed=1 coalesced=0",
        ],
        "transcript: {transcript:#?}"
    );
    // The whole scenario is bit-for-bit reproducible.
    assert_eq!(
        transcript,
        run_grid_scenario(),
        "scenario must be deterministic"
    );
}

#[test]
fn sql_every_clause_registers_a_subscription_and_explain_shows_stages() {
    let g = grid();
    // Plain `SELECT ... EVERY n` through the normal query path answers
    // with a subscription acknowledgement, not rows.
    let resp = g.gateways[0]
        .query(&ClientRequest::realtime(ALPHA_URL, SQL))
        .expect("subscribe via SQL");
    let meta = resp.rows.meta();
    assert!(meta.column_index("Subscription").is_ok());
    assert_eq!(resp.rows.len(), 1);
    let id = match resp.rows.rows()[0][0] {
        SqlValue::Int(n) => n as u64,
        ref other => panic!("expected subscription id, got {other:?}"),
    };
    assert_eq!(g.gateways[0].poll_deltas(id, 0).expect("poll").len(), 1);
    // The subscription is visible in the SQL surface and the admin JSON.
    let resp = g.gateways[0]
        .query(&ClientRequest::realtime(
            "jdbc:telemetry://local/metrics",
            "SELECT id, sql FROM gridrm_subscriptions",
        ))
        .expect("subscriptions table");
    assert_eq!(resp.rows.len(), 1);
    assert_eq!(
        resp.rows.rows()[0][1],
        SqlValue::Str("SELECT Hostname, Load1 FROM Processor ORDER BY Hostname ASC".into())
    );
    assert!(g.gateways[0]
        .admin()
        .handle("/v1/subscriptions")
        .body
        .contains("\"id\":1"));
    // EXPLAIN ANALYZE of a continuous query runs the full lifecycle and
    // renders the subscribe/delta/deliver stages.
    let resp = g.gateways[0]
        .query(&ClientRequest::realtime(
            ALPHA_URL,
            &format!("EXPLAIN ANALYZE {SQL}"),
        ))
        .expect("explain analyze");
    let rendered = format!("{:?}", resp.rows.rows());
    for stage in ["subscribe", "delta", "deliver"] {
        assert!(rendered.contains(stage), "missing {stage}: {rendered}");
    }
    // The temporary explain subscription was cancelled afterwards.
    assert_eq!(g.gateways[0].streams().subscriber_count(), 1);
}

#[test]
fn explain_of_a_continuous_query_through_the_global_layer_leaves_nothing_registered() {
    let g = grid();
    let registered = |g: &Grid| -> Vec<(usize, usize)> {
        g.gateways
            .iter()
            .map(|gw| {
                (
                    gw.streams().subscriber_count(),
                    gw.streams().standing_query_count(),
                )
            })
            .collect()
    };
    let before = registered(&g);
    let resp = g.layers[0]
        .query(
            &ClientRequest::builder(&format!("EXPLAIN ANALYZE {SQL}"))
                .sources(&[ALPHA_URL, BETA_URL])
                .build(),
        )
        .expect("explain analyze across the grid");
    let rendered = format!("{:?}", resp.rows.rows());
    for stage in ["subscribe", "delta", "deliver"] {
        assert!(rendered.contains(stage), "missing {stage}: {rendered}");
    }
    // Both the local and the remote share were temporary.
    assert_eq!(registered(&g), before);
}

// ---------------------------------------------------------------------
// A driver whose single row the test controls exactly, so emissions are
// forced (or suppressed) on demand.
// ---------------------------------------------------------------------

struct ValueDriver {
    value: Arc<AtomicI64>,
}

struct ValueConnection {
    url: JdbcUrl,
    value: Arc<AtomicI64>,
    closed: bool,
}

struct ValueStatement {
    value: Arc<AtomicI64>,
}

impl Driver for ValueDriver {
    fn meta(&self) -> DriverMetaData {
        DriverMetaData {
            name: "jdbc-value".to_owned(),
            subprotocol: "value".to_owned(),
            version: (0, 1),
            description: "test driver serving one controlled row".to_owned(),
        }
    }
    fn accepts_url(&self, url: &JdbcUrl) -> bool {
        url.subprotocol == "value"
    }
    fn connect(&self, url: &JdbcUrl, _props: &Properties) -> DbcResult<Box<dyn Connection>> {
        Ok(Box::new(ValueConnection {
            url: url.clone(),
            value: self.value.clone(),
            closed: false,
        }))
    }
}

impl Connection for ValueConnection {
    fn create_statement(&mut self) -> DbcResult<Box<dyn Statement>> {
        Ok(Box::new(ValueStatement {
            value: self.value.clone(),
        }))
    }
    fn url(&self) -> &JdbcUrl {
        &self.url
    }
    fn is_closed(&self) -> bool {
        self.closed
    }
    fn close(&mut self) -> DbcResult<()> {
        self.closed = true;
        Ok(())
    }
}

impl Statement for ValueStatement {
    fn execute_query(&mut self, _sql: &str) -> DbcResult<Box<dyn ResultSet>> {
        let rows = RowSet::new(
            ResultSetMetaData::new(vec![ColumnMeta::new("V", SqlType::Int)]),
            vec![vec![SqlValue::Int(self.value.load(Ordering::SeqCst))]],
        )
        .map_err(|e| SqlError::Driver(e.to_string()))?;
        Ok(Box::new(rows))
    }
}

/// A gateway over the controllable driver plus the shared value cell.
fn value_gateway() -> (Arc<Gateway>, Arc<AtomicI64>, Arc<SimClock>) {
    let clock = SimClock::new();
    let net = Network::new(clock.clone(), 7);
    let gateway = Gateway::new(GatewayConfig::new("gw-v", "v"), net);
    let value = Arc::new(AtomicI64::new(1));
    gateway.driver_manager().register(Arc::new(ValueDriver {
        value: value.clone(),
    }));
    (gateway, value, clock)
}

#[test]
fn backpressure_policies_bound_buffers_and_counters_agree() {
    let (gateway, value, clock) = value_gateway();
    // Three capacity-1 subscribers (the tightest possible buffer), one
    // per policy, on three distinct standing queries.
    let subscribe = |path: &str, policy: BackpressurePolicy| {
        let spec = ClientRequest::builder("SELECT V FROM T EVERY 100")
            .source(&format!("jdbc:value://node/{path}"))
            .subscribe()
            .buffer(1)
            .backpressure(policy);
        gateway.subscribe(&spec).expect("subscribe")
    };
    let oldest = subscribe("a", BackpressurePolicy::DropOldest);
    let newest = subscribe("b", BackpressurePolicy::DropNewest);
    let merged = subscribe("c", BackpressurePolicy::Coalesce);

    // Registration buffered the snapshot delta (seq 1, V=1); four more
    // changed evaluations overflow the one-slot buffer four times.
    for round in 2..=5i64 {
        clock.advance(100);
        value.store(round, Ordering::SeqCst);
        gateway.pump();
    }

    // DropOldest keeps the freshest delta.
    let d = gateway.poll_deltas(oldest, 0).expect("poll oldest");
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].seq, 5);
    assert_eq!(d[0].rows.rows()[0][0], SqlValue::Int(5));
    // DropNewest keeps the original snapshot.
    let d = gateway.poll_deltas(newest, 0).expect("poll newest");
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].seq, 1);
    assert_eq!(d[0].rows.rows()[0][0], SqlValue::Int(1));
    // Coalesce merges all five emissions into one delta, nothing lost.
    let d = gateway.poll_deltas(merged, 0).expect("poll merged");
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].seq, 5);
    assert_eq!(d[0].coalesced, 4);
    let values: Vec<&SqlValue> = d[0].rows.rows().iter().map(|r| &r[0]).collect();
    assert_eq!(values.len(), 5, "coalesced rows accumulate");

    // The exposed drop counters agree with what each subscriber saw:
    // emitted == delivered + dropped on every row of the snapshot.
    for snap in gateway.streams().snapshot() {
        assert_eq!(
            snap.emitted,
            snap.delivered + snap.dropped,
            "subscription {}: {snap:?}",
            snap.id
        );
        assert_eq!(snap.pending, 0, "all buffers drained");
    }
    let stats = gateway.streams().stats();
    assert_eq!(stats.dropped_oldest.get(), 4);
    assert_eq!(stats.dropped_newest.get(), 4);
    assert_eq!(stats.dropped_coalesced.get(), 4);
    let prom = gateway.admin().metrics_prometheus();
    for line in [
        "gridrm_sub_dropped_total{policy=\"drop_oldest\"} 4",
        "gridrm_sub_dropped_total{policy=\"drop_newest\"} 4",
        "gridrm_sub_dropped_total{policy=\"coalesce\"} 4",
        "gridrm_sub_deltas_total 15",
    ] {
        assert!(prom.contains(line), "missing `{line}` in:\n{prom}");
    }
}

#[test]
fn coalesce_merges_non_adjacent_deltas() {
    let (gateway, value, clock) = value_gateway();
    let spec = ClientRequest::builder("SELECT V FROM T EVERY 100")
        .source("jdbc:value://node/x")
        .subscribe()
        .buffer(2)
        .backpressure(BackpressurePolicy::Coalesce);
    let id = gateway.subscribe(&spec).expect("subscribe");

    // seq 1 (snapshot, V=1) and seq 2 (V=2) fill the two slots.
    clock.advance(100);
    value.store(2, Ordering::SeqCst);
    gateway.pump();
    // An unchanged evaluation sits between the buffered delta and the
    // next emission: nothing is emitted, nothing merged.
    clock.advance(100);
    gateway.pump();
    assert_eq!(gateway.streams().pending(id), 2);
    // The next change must coalesce into seq 2 even though the two
    // emissions were not produced by adjacent evaluations.
    clock.advance(100);
    value.store(3, Ordering::SeqCst);
    gateway.pump();

    let d = gateway.poll_deltas(id, 0).expect("poll");
    assert_eq!(d.len(), 2);
    assert_eq!((d[0].seq, d[0].coalesced), (1, 0));
    assert_eq!(d[1].seq, 3, "merged delta carries the newest seq");
    assert_eq!(d[1].coalesced, 1);
    assert_eq!(
        d[1].rows.rows().iter().map(|r| &r[0]).collect::<Vec<_>>(),
        [&SqlValue::Int(2), &SqlValue::Int(3)],
        "non-adjacent emissions merged into one batch"
    );
}

#[test]
fn subscriber_churn_keeps_streams_consistent() {
    let (gateway, value, clock) = value_gateway();
    let spec = || {
        ClientRequest::builder("SELECT V FROM T EVERY 100")
            .source("jdbc:value://node/x")
            .subscribe()
    };
    let a = gateway.subscribe(&spec()).expect("subscribe a");
    let b = gateway.subscribe(&spec()).expect("subscribe b");
    assert_eq!(
        gateway.streams().standing_query_count(),
        1,
        "identical subscriptions share one standing query"
    );
    clock.advance(100);
    value.store(2, Ordering::SeqCst);
    gateway.pump();
    // Cancel `a` mid-stream; `b` keeps streaming without a gap.
    assert!(gateway.cancel_subscription(a));
    clock.advance(100);
    value.store(3, Ordering::SeqCst);
    gateway.pump();
    assert!(
        gateway.poll_deltas(a, 0).is_err(),
        "cancelled subscriptions cannot be polled"
    );
    let seqs: Vec<u64> = gateway
        .poll_deltas(b, 0)
        .expect("poll b")
        .iter()
        .map(|d| d.seq)
        .collect();
    assert_eq!(seqs, [1, 2, 3], "b saw every emission, gap-free");
    // A newcomer mid-stream starts from its own snapshot, and the
    // shared standing query survives the churn.
    let c = gateway.subscribe(&spec()).expect("subscribe c");
    assert_eq!(gateway.streams().standing_query_count(), 1);
    let d = gateway.poll_deltas(c, 0).expect("poll c");
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].seq, 1, "fresh subscriber gets a fresh snapshot");
    assert_eq!(d[0].rows.rows()[0][0], SqlValue::Int(3));
    assert_eq!(gateway.streams().subscriber_count(), 2);
    // The active gauge tracked the churn.
    assert!(gateway
        .admin()
        .metrics_prometheus()
        .contains("gridrm_subscriptions_active 2"));
}

#[test]
fn alert_fires_through_the_continuous_query_path_on_every_surface() {
    let net = Network::new(SimClock::new(), 11);
    let site = SiteModel::generate(31, &SiteSpec::new("alpha", 2, 3));
    site.advance_to(60_000);
    deploy_site(&net, site);
    let gateway = Gateway::new(GatewayConfig::new("gw-alpha", "alpha"), net);
    install_into_gateway(&gateway);
    let rule = AlertRule {
        name: "load-high".into(),
        group: "Processor".into(),
        attr: "Load1".into(),
        cmp: Comparison::Gt,
        threshold: -1.0, // always true: the rule fires on every row
        severity: Severity::Warning,
        category: "cpu.load.high".into(),
    };
    // The rule IS a query: the scanner evaluates exactly this SQL.
    assert_eq!(rule.to_sql(), "SELECT * FROM Processor WHERE Load1 > -1.0");
    gateway.alerts().add_rule(rule.clone());
    let (_listener, rx) = gateway.events().register_listener(ListenerFilter {
        category_prefix: Some("cpu.load".into()),
        min_severity: None,
        source: None,
    });

    // A fresh fetch runs the materialised rule over the harvested rows.
    let resp = gateway
        .query(&ClientRequest::realtime(
            ALPHA_URL,
            "SELECT Hostname, Load1 FROM Processor",
        ))
        .expect("realtime query");
    assert_eq!(resp.rows.len(), 1);
    gateway.pump(); // dispatch buffered events

    // Surface 1: the event stream.
    let event = rx.try_recv().expect("alert event delivered");
    assert_eq!(event.category, "cpu.load.high");
    assert_eq!(event.severity, Severity::Warning);
    // Surface 2: the structured journal.
    assert!(
        gateway
            .telemetry()
            .journal()
            .recent()
            .iter()
            .any(|e| e.kind == "event" && e.message == "cpu.load.high"),
        "alert reaches the journal"
    );
    // Surface 3: the SQL surface over the journal.
    let resp = gateway
        .query(&ClientRequest::realtime(
            "jdbc:telemetry://local/metrics",
            "SELECT message FROM gridrm_journal WHERE message = 'cpu.load.high'",
        ))
        .expect("journal table");
    assert!(!resp.rows.is_empty());
    // Surface 4: Prometheus exposition.
    let prom = gateway.admin().metrics_prometheus();
    assert!(prom.contains("gridrm_events_total{stage=\"ingested\"}"));
    assert!(prom.contains("gridrm_journal_entries_total{severity=\"warning\"}"));

    // And the same rule stands up as a continuous query whose deltas
    // are the firings.
    assert_eq!(
        rule.to_continuous_sql(250),
        "SELECT * FROM Processor WHERE Load1 > -1.0 EVERY 250"
    );
    let spec = ClientRequest::builder(&rule.to_continuous_sql(250))
        .source(ALPHA_URL)
        .subscribe();
    let id = gateway.subscribe(&spec).expect("alert subscription");
    let deltas = gateway.poll_deltas(id, 0).expect("poll");
    assert_eq!(deltas.len(), 1, "the firing row arrives as a delta");
    assert_eq!(deltas[0].rows.len(), 1);
}
