//! A terminal health dashboard: register data sources, force an agent
//! outage, let the probe scheduler walk the Up → Degraded → Down state
//! machine and back, then read the health subsystem out every way it is
//! exposed — the `gridrm_health` and `gridrm_journal` virtual SQL
//! tables, the Admin JSON snapshot, the slow-query log, the Prometheus
//! health slice, and the Global layer's site rollup.
//!
//! Run with: `cargo run --example health_dashboard`

use gridrm::prelude::*;

fn main() {
    let net = Network::new(SimClock::new(), 2024);
    let site = SiteModel::generate(23, &SiteSpec::new("ward", 4, 3));
    site.advance_to(180_000);
    deploy_site(&net, site);

    // Tight thresholds so the demo turns over quickly: probe every 10
    // virtual seconds, Down after 2 failures, Up after 2 successes.
    let mut config = GatewayConfig::new("gw-ward", "ward");
    config.probe_interval_ms = 10_000;
    config.health_down_after = 2;
    config.health_up_after = 2;
    config.slow_query_threshold_ms = 5;
    let gateway = Gateway::new(config, net.clone());
    install_into_gateway(&gateway);
    let layer = GlobalLayer::attach(gateway.clone(), GmaDirectory::new());

    for (url, label) in [
        ("jdbc:snmp://node01.ward/public", "node01 via SNMP"),
        ("jdbc:snmp://node02.ward/public", "node02 via SNMP"),
        ("jdbc:ganglia://node00.ward/ward", "cluster via Ganglia"),
    ] {
        gateway
            .admin()
            .add_source(DataSourceConfig::dynamic(url, label))
            .expect("source registers");
    }
    let clock = gateway.clock().clone();

    // Baseline: one pump probes every registered source.
    gateway.pump();

    // Outage: node01's SNMP agent dies. The next two probe rounds walk
    // the source through Degraded into Down, raising alert events.
    net.set_down("node01.ward:snmp", true);
    for _ in 0..2 {
        clock.advance(10_000);
        gateway.pump();
    }

    // A slow query for the log: stages straddling a clock advance.
    let mut span = gateway
        .telemetry()
        .span("SELECT Hostname, Load1 FROM Processor");
    span.stage(Stage::Acil);
    clock.advance(42);
    span.stage_with(Stage::DriverExecute, "jdbc-ganglia");
    span.finish("ok");

    // Recovery: the agent returns; two clean probes re-promote it.
    net.set_down("node01.ward:snmp", false);
    for _ in 0..2 {
        clock.advance(10_000);
        gateway.pump();
    }

    let telemetry_url = "jdbc:telemetry://local/metrics";

    // 1. Per-source health through SQL.
    println!("== SELECT over the gridrm_health virtual table\n");
    let resp = gateway
        .query(&ClientRequest::realtime(
            telemetry_url,
            "SELECT source, state, consecutive_failures, transitions \
             FROM gridrm_health ORDER BY source",
        ))
        .expect("health query");
    print!("{}", resp.rows.to_table_string());

    // 2. The structured event journal: every transition, probe, and
    //    fallback with severity and stage.
    println!("\n== journal tail (state transitions)\n");
    let resp = gateway
        .query(&ClientRequest::realtime(
            telemetry_url,
            "SELECT at_ms, severity, source, message FROM gridrm_journal \
             WHERE kind = 'state_transition' ORDER BY seq",
        ))
        .expect("journal query");
    print!("{}", resp.rows.to_table_string());

    // 3. The slow-query log with per-stage breakdown.
    println!("\n== slow-query log\n");
    let resp = gateway
        .query(&ClientRequest::realtime(
            telemetry_url,
            "SELECT duration_ms, outcome, request, stages FROM gridrm_slow_queries",
        ))
        .expect("slow query log query");
    print!("{}", resp.rows.to_table_string());

    // 4. The Prometheus health slice a scraper would collect.
    println!("\n== Prometheus health slice\n");
    for line in gateway.admin().metrics_prometheus().lines() {
        if line.contains("gridrm_health") || line.contains("gridrm_journal") {
            println!("{line}");
        }
    }

    // 5. The Admin JSON exposition (what the management UI consumes).
    println!(
        "\n== Admin health JSON\n{}",
        gateway.admin().handle("/v1/health").body
    );

    // 6. Site-level rollup through the Global layer: worst state wins.
    let rollup = layer.site_health();
    println!(
        "\n== site rollup: {} via {} -> {} ({} up / {} degraded / {} down / {} unknown)",
        rollup.site,
        rollup.gateway,
        rollup.overall.name(),
        rollup.up,
        rollup.degraded,
        rollup.down,
        rollup.unknown,
    );
}
