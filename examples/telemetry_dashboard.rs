//! A terminal telemetry dashboard: run a simulated multi-source workload
//! through one gateway, then read the gateway's own instruments back out
//! all three ways — Prometheus text, the slowest captured query trace,
//! and SQL over the `gridrm_telemetry` virtual table.
//!
//! Run with: `cargo run --example telemetry_dashboard`

use gridrm::core::explain::render_span_tree;
use gridrm::prelude::*;

fn main() {
    let net = Network::new(SimClock::new(), 1003);
    let site = SiteModel::generate(17, &SiteSpec::new("dash", 5, 3));
    site.advance_to(300_000);
    deploy_site(&net, site);
    let gateway = Gateway::new(GatewayConfig::new("gw-dash", "dash"), net);
    install_into_gateway(&gateway);

    // A mixed workload: every driver family, repeated cached reads, and
    // one query against a host that does not exist (an error trace).
    let workload: &[(&str, &str)] = &[
        (
            "jdbc:snmp://node01.dash/public",
            "SELECT Hostname, Load1 FROM Processor",
        ),
        (
            "jdbc:ganglia://node00.dash/dash",
            "SELECT Hostname, Load1 FROM Processor ORDER BY Load1 DESC LIMIT 3",
        ),
        (
            "jdbc:nws://node00.dash/perf",
            "SELECT SourceHost, BandwidthMbps FROM NetworkElement",
        ),
        (
            "jdbc:scms://node00.dash/",
            "SELECT Hostname, RAMAvailableMB FROM MainMemory",
        ),
    ];
    for (url, sql) in workload {
        gateway
            .query(&ClientRequest::realtime(url, sql))
            .unwrap_or_else(|e| panic!("workload query {url} failed: {e}"));
    }
    // Cached pair: one miss + store, then one hit.
    for _ in 0..2 {
        gateway
            .query(&ClientRequest::cached(
                "jdbc:snmp://node02.dash/public",
                "SELECT Hostname FROM Processor",
                Some(120_000),
            ))
            .expect("cached query");
    }
    // One failing query so the dashboard shows an error outcome.
    let _ = gateway.query(&ClientRequest::realtime(
        "jdbc:snmp://ghost.dash/public",
        "SELECT Hostname FROM Processor",
    ));
    gateway.pump(); // refresh the cache/pool gauges

    // 1. Prometheus text exposition — what a scraper would see.
    println!("== Prometheus exposition (/metrics)\n");
    print!("{}", gateway.admin().metrics_prometheus());

    // 2. The slowest captured span, in the trace tree it belongs to.
    println!("\n== slowest query trace");
    let traces = gateway.telemetry().traces();
    let slowest = traces.slowest().expect("workload left traces");
    print!("{}", render_span_tree(&traces.for_trace(&slowest.trace_id)));

    // 3. The same registry via SQL — the gateway monitoring itself
    //    through its own driver path.
    println!("\n== SELECT over the gridrm_telemetry virtual table");
    let resp = gateway
        .query(&ClientRequest::realtime(
            "jdbc:telemetry://local/metrics",
            "SELECT name, labels, value FROM gridrm_telemetry \
             WHERE kind = 'counter' ORDER BY value DESC LIMIT 10",
        ))
        .expect("telemetry query");
    print!("{}", resp.rows.to_table_string());
}
