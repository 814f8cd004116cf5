//! Golden span output: what a seeded world's traces look like to every
//! reader, pinned byte for byte in `span_golden.txt`.
//!
//! Three requests — a realtime point query, a cached one and a
//! two-source consolidation — run plainly and under `EXPLAIN ANALYZE`,
//! then one traced query arrives over the wire. The pinned text is the
//! `EXPLAIN ANALYZE` tables, the `gridrm_spans` and `gridrm_query_costs`
//! rows, the raw reply frame of the wire query (its rows and the spans
//! it ships to the caller) and the Prometheus text of the gateway, both
//! fresh and afterwards. A change to how spans are built, stored or
//! rendered must leave every byte of it alone.
//!
//! On a mismatch the actual text is written next to the build output
//! (`target/span_golden.actual.txt`) so the two can be diffed.

use gridrm::global::{GlobalRequest, WireFrame, WireIdentity};
use gridrm::prelude::*;
use gridrm::telemetry::TraceContext;

const GOLDEN: &str = include_str!("span_golden.txt");

const A: &str = "jdbc:snmp://node00.gold/public";
const B: &str = "jdbc:snmp://node01.gold/public";
const SQL: &str = "SELECT Hostname, Load1 FROM Processor";
const TELEMETRY: &str = "jdbc:telemetry://local/metrics";

fn world() -> std::sync::Arc<GlobalLayer> {
    let net = Network::new(SimClock::new(), 2024);
    let site = SiteModel::generate(77, &SiteSpec::new("gold", 3, 4));
    site.advance_to(120_000);
    deploy_site(&net, site);
    let gateway = Gateway::new(GatewayConfig::new("gw-gold", "gold"), net);
    install_into_gateway(&gateway);
    GlobalLayer::attach(gateway, GmaDirectory::new())
}

fn section(out: &mut String, title: &str, body: &str) {
    out.push_str("== ");
    out.push_str(title);
    out.push('\n');
    out.push_str(body);
    if !body.ends_with('\n') {
        out.push('\n');
    }
}

fn table(gateway: &Gateway, request: &ClientRequest) -> String {
    match gateway.query(request) {
        Ok(resp) => resp.rows.to_table_string(),
        Err(e) => format!("ERR {e}"),
    }
}

fn transcript() -> String {
    let layer = world();
    let gateway = layer.gateway().clone();
    let mut out = String::new();
    section(
        &mut out,
        "prometheus (fresh)",
        &gateway.telemetry().registry().render_prometheus(),
    );

    let cached = QueryMode::Cached {
        max_age_ms: Some(60_000),
    };
    let explain = format!("EXPLAIN ANALYZE {SQL}");
    let requests = [
        ("realtime", ClientRequest::builder(SQL).source(A).build()),
        (
            "cached",
            ClientRequest::builder(SQL).source(A).mode(cached).build(),
        ),
        (
            "two-source",
            ClientRequest::builder(SQL).sources(&[A, B]).build(),
        ),
    ];
    let clock = gateway.telemetry().clock().clone();
    for (name, request) in &requests {
        clock.advance(250);
        section(&mut out, name, &table(&gateway, request));
        let analyzed = ClientRequest::builder(&explain)
            .sources(&request.sources)
            .mode(request.mode)
            .build();
        section(
            &mut out,
            &format!("{name}: EXPLAIN ANALYZE"),
            &table(&gateway, &analyzed),
        );
    }
    clock.advance(250);

    let wire = GlobalRequest::Query {
        from_gateway: "gw-caller".to_owned(),
        identity: WireIdentity {
            name: "caller".to_owned(),
            roles: Vec::new(),
        },
        sources: vec![A.to_owned(), B.to_owned()],
        sql: SQL.to_owned(),
        max_cache_age_ms: None,
        trace: Some(TraceContext {
            trace_id: "gw-caller:1".to_owned(),
            parent_span_id: "gw-caller:7".to_owned(),
        }),
        deadline_ms: None,
    };
    let reply = layer
        .wire_service()
        .handle_frame("gw-caller.gma", &WireFrame::encode(&wire).into_bytes());
    section(
        &mut out,
        "traced wire reply",
        &String::from_utf8(reply).expect("wire frames are UTF-8"),
    );

    for (name, sql) in [
        ("gridrm_spans", "SELECT * FROM gridrm_spans"),
        ("gridrm_query_costs", "SELECT * FROM gridrm_query_costs"),
    ] {
        section(
            &mut out,
            name,
            &table(&gateway, &ClientRequest::realtime(TELEMETRY, sql)),
        );
    }
    section(
        &mut out,
        "prometheus",
        &gateway.telemetry().registry().render_prometheus(),
    );
    out
}

#[test]
fn span_output_matches_the_golden_transcript() {
    let got = transcript();
    if got != GOLDEN {
        let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(dir)
            .join("span_golden.actual.txt");
        let _ = std::fs::write(&path, &got);
        let line = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .map_or_else(|| "length".to_owned(), |i| format!("line {}", i + 1));
        panic!(
            "span output differs from tests/span_golden.txt at {line}; actual text in {}",
            path.display()
        );
    }
}

#[test]
fn the_golden_transcript_is_deterministic() {
    assert_eq!(transcript(), transcript());
}
