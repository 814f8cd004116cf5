//! The cost-accounting plane end to end: a two-site fan-out where the
//! children's inclusive costs sum *exactly* to the root's ledger entry,
//! the priced `EXPLAIN ANALYZE` columns, the `gridrm_query_costs` /
//! `gridrm_intrusion` virtual tables, and determinism — the same world
//! built twice produces byte-identical cost vectors.

use gridrm::prelude::*;

const SQL: &str = "SELECT Hostname, Load1 FROM Processor ORDER BY Hostname";
const ALPHA_URL: &str = "jdbc:snmp://node00.alpha/public";
const BETA_URL: &str = "jdbc:snmp://node00.beta/public";

struct Grid {
    gateways: Vec<std::sync::Arc<Gateway>>,
    layers: Vec<std::sync::Arc<GlobalLayer>>,
}

/// Two sites behind one directory with 20 ms one-way WAN latency.
fn grid() -> Grid {
    let net = Network::new(SimClock::new(), 777);
    let directory = GmaDirectory::new();
    let mut gateways = Vec::new();
    let mut layers = Vec::new();
    for (i, name) in ["alpha", "beta"].iter().enumerate() {
        let model = SiteModel::generate(300 + i as u64, &SiteSpec::new(name, 2, 2));
        model.advance_to(120_000);
        deploy_site(&net, model);
        let gateway = Gateway::new(GatewayConfig::new(&format!("gw-{name}"), name), net.clone());
        install_into_gateway(&gateway);
        layers.push(GlobalLayer::attach(gateway.clone(), directory.clone()));
        gateways.push(gateway);
    }
    net.set_latency("gw.alpha:gma", "gw.beta:gma", Latency::ms(20, 0));
    net.set_latency("gw.beta:gma", "gw.alpha:gma", Latency::ms(20, 0));
    Grid { gateways, layers }
}

fn fanout_request() -> ClientRequest {
    ClientRequest::builder(SQL)
        .sources(&[ALPHA_URL, BETA_URL])
        .build()
}

/// Run one fan-out query and return (root span, its direct children,
/// the root's `gridrm_query_costs` ledger entry).
fn run_fanout(g: &Grid) -> (TraceRecord, Vec<TraceRecord>, QueryCostEntry) {
    let resp = g.layers[0].query(&fanout_request()).unwrap();
    assert_eq!(resp.sources_ok, 2, "outcomes: {:?}", resp.outcomes);

    let telemetry = g.gateways[0].telemetry();
    let spans = telemetry.traces().recent();
    let root = spans
        .iter()
        .find(|s| s.parent_span_id.is_none() && s.request == SQL)
        .expect("fan-out root span")
        .clone();
    let children: Vec<TraceRecord> = spans
        .iter()
        .filter(|s| s.parent_span_id.as_deref() == Some(root.span_id.as_str()))
        .cloned()
        .collect();
    let entry = telemetry
        .costs()
        .entries()
        .into_iter()
        .find(|e| e.trace_id == root.trace_id)
        .expect("root ledger entry");
    (root, children, entry)
}

#[test]
fn child_costs_sum_exactly_to_the_root_ledger_entry() {
    let g = grid();
    let (root, children, entry) = run_fanout(&g);

    // One local + one remote segment, each carrying a non-trivial cost.
    assert_eq!(children.len(), 2, "children: {children:#?}");
    let mut sum = CostVector::default();
    for c in &children {
        sum.add(&c.cost);
    }
    // The engine charges only segment spans, so the root's inclusive
    // cost is exactly the sum of its children — and the ledger entry
    // recorded the same vector.
    assert_eq!(root.cost, sum, "root: {root:#?}");
    assert_eq!(entry.cost, root.cost);
    assert_eq!(entry.site, "alpha");
    assert!(!entry.over_budget, "no budget configured");

    // The remote segment put real frames on the WAN, one each way.
    let remote = children
        .iter()
        .find(|c| c.request.contains("gw-beta"))
        .expect("remote segment span");
    assert_eq!(remote.cost.msgs_out, 1);
    assert_eq!(remote.cost.msgs_in, 1);
    assert!(remote.cost.bytes_out > 0 && remote.cost.bytes_in > 0);
    // It also absorbed the remote gateway's execution charges.
    assert!(remote.cost.fetch_units > 0, "remote: {remote:#?}");
    assert!(remote.cost.rows_returned > 0);

    // The local segment never touched the wire but did real work.
    let local = children
        .iter()
        .find(|c| c.request.contains("gw-alpha"))
        .expect("local segment span");
    assert_eq!(local.cost.total_msgs(), 0);
    assert!(local.cost.fetch_units > 0 && local.cost.rows_returned > 0);

    // Root totals are non-zero on every EXPLAIN-surfaced axis.
    assert!(root.cost.rows_returned >= 2);
    assert!(root.cost.total_bytes() > 0);
    assert_eq!(root.cost.total_msgs(), 2);
}

#[test]
fn fanout_costs_are_deterministic_across_worlds() {
    // The same world built twice yields byte-identical cost vectors —
    // costs are functions of virtual time and seeded content only.
    let runs: Vec<(CostVector, Vec<CostVector>, Vec<IntrusionRow>)> = (0..2)
        .map(|_| {
            let g = grid();
            let (root, mut children, _) = run_fanout(&g);
            children.sort_by(|a, b| a.request.cmp(&b.request));
            let costs = children.into_iter().map(|c| c.cost).collect();
            let intrusion = g.gateways[0].telemetry().costs().intrusion_snapshot();
            (root.cost, costs, intrusion)
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    // The fan-out charged its query traffic against the remote site.
    assert!(
        runs[0]
            .2
            .iter()
            .any(|r| r.site == "beta" && r.cause == "query" && r.bucket.bytes > 0),
        "intrusion: {:#?}",
        runs[0].2
    );
}

#[test]
fn explain_analyze_prices_the_span_tree() {
    let g = grid();
    let request = ClientRequest::builder(&format!("EXPLAIN ANALYZE {SQL}"))
        .sources(&[ALPHA_URL, BETA_URL])
        .build();
    let resp = g.layers[0].query(&request).unwrap();
    let meta = resp.rows.meta();
    let names: Vec<&str> = meta.columns().iter().map(|c| c.name.as_str()).collect();
    assert_eq!(&names[12..], &["rows", "bytes", "msgs"]);

    // Depth-first order: row 0 is the explain root, which inherits the
    // whole fan-out's inclusive cost.
    let root = &resp.rows.rows()[0];
    assert!(root[12].as_i64().unwrap() >= 2, "rows: {:?}", root[12]);
    assert!(root[13].as_i64().unwrap() > 0, "bytes: {:?}", root[13]);
    assert_eq!(root[14].as_i64().unwrap(), 2, "msgs: {:?}", root[14]);

    // The remote segment's row prices its own wire traffic.
    let remote = resp
        .rows
        .rows()
        .iter()
        .find(|r| {
            r[5].as_str()
                .map(|s| s.starts_with("segment:gw-beta"))
                .unwrap_or(false)
        })
        .expect("remote segment row");
    assert!(remote[13].as_i64().unwrap() > 0);
    assert_eq!(remote[14].as_i64().unwrap(), 2);

    // Plain EXPLAIN withholds measurements: cost columns are NULL.
    let request = ClientRequest::builder(&format!("EXPLAIN {SQL}"))
        .sources(&[ALPHA_URL, BETA_URL])
        .build();
    let resp = g.layers[0].query(&request).unwrap();
    for row in resp.rows.rows() {
        assert!(row[12].is_null() && row[13].is_null() && row[14].is_null());
    }
}

#[test]
fn cost_tables_serve_fanout_charges_via_sql() {
    let g = grid();
    run_fanout(&g);
    let resp = g.gateways[0]
        .query(&ClientRequest::realtime(
            "jdbc:telemetry://local/metrics",
            "SELECT trace_id, msgs_out, bytes_in, rows_returned, over_budget \
             FROM gridrm_query_costs WHERE request = 'SELECT Hostname, Load1 \
             FROM Processor ORDER BY Hostname'",
        ))
        .unwrap();
    assert_eq!(resp.rows.len(), 1);
    assert_eq!(resp.rows.rows()[0][1].as_i64().unwrap(), 1);
    assert!(resp.rows.rows()[0][2].as_i64().unwrap() > 0);

    let resp = g.gateways[0]
        .query(&ClientRequest::realtime(
            "jdbc:telemetry://local/metrics",
            "SELECT site, cause, msgs, bytes FROM gridrm_intrusion \
             WHERE site = 'beta' AND cause = 'query'",
        ))
        .unwrap();
    assert_eq!(resp.rows.len(), 1);
    assert_eq!(resp.rows.rows()[0][2].as_i64().unwrap(), 2);
    assert!(resp.rows.rows()[0][3].as_i64().unwrap() > 0);
}

/// Every gateway-to-gateway message is priced once on each side, so
/// both ledgers agree with the simnet's own link counters: the sender's
/// rows against the peer's site and the peer's rows for its own site.
#[test]
fn gateway_to_gateway_ledger_equals_the_link_counters() {
    let g = grid();
    let (alpha, beta) = (&g.layers[0], &g.gateways[1]);
    alpha.query(&fanout_request()).unwrap();
    // A filter nothing matches: the remote share emits no delta, so the
    // only traffic the poll imposes is its two frames.
    let spec = ClientRequest::builder("SELECT Hostname FROM Processor WHERE Load1 < 0 EVERY 250")
        .sources(&[BETA_URL])
        .subscribe();
    let sub = alpha.subscribe(&spec).unwrap();
    alpha.poll_deltas(&sub, 0).unwrap();
    assert_eq!(alpha.unsubscribe(&sub), 1);
    let event = GridRMEvent {
        id: 1,
        at_ms: 0,
        source: "node00.alpha:snmp".into(),
        hostname: Some("node00.alpha".into()),
        severity: Severity::Warning,
        category: "cpu.load.high".into(),
        message: "Load1 > 8".into(),
        value: Some(9.0),
    };
    assert_eq!(alpha.forward_event(&event), 1);
    assert!(alpha.ping("gw-beta"));

    let link = beta
        .network()
        .stats_for("gw.alpha:gma", "gw.beta:gma")
        .snapshot();
    assert_eq!(link.requests, 6);
    let charged_to_beta = |gateway: &Gateway| {
        let rows = gateway.telemetry().costs().intrusion_snapshot();
        rows.iter()
            .filter(|r| r.site == "beta")
            .fold((0, 0), |(m, b), r| (m + r.bucket.msgs, b + r.bucket.bytes))
    };
    let wire = (2 * link.requests, link.bytes_out + link.bytes_in);
    assert_eq!(charged_to_beta(&g.gateways[0]), wire, "imposed by alpha");
    assert_eq!(charged_to_beta(beta), wire, "endured by beta");
}
