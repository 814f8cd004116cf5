//! An SLO dashboard: declare a latency SLO over Global-layer query
//! segments, induce a WAN latency regression between two sites, watch
//! the multi-window burn-rate alert fire and clear at exact virtual
//! timestamps, and read the verdict out of every surface — the
//! `gridrm_slo` and `gridrm_metrics_history` virtual SQL tables (with
//! a `TIME_BUCKET` rollup), the journal, the Prometheus SLO slice, the
//! Admin JSON, and the Global layer's per-site rollup.
//!
//! Run with: `cargo run --example slo_dashboard`

use gridrm::prelude::*;
use std::sync::Arc;

fn main() {
    let net = Network::new(SimClock::new(), 7_117);
    let directory = GmaDirectory::new();
    let mut gateways = Vec::new();
    for (i, name) in ["east", "west"].iter().enumerate() {
        let model = SiteModel::generate(3_000 + i as u64, &SiteSpec::new(name, 4, 2));
        model.advance_to(120_000);
        deploy_site(&net, model);
        let mut config = GatewayConfig::new(&format!("gw-{name}"), name);
        if *name == "east" {
            // 90% of query segments under 100 ms, judged over a 60 s
            // fast window and a 300 s slow window, burning 2x / 1x.
            let mut spec = SloSpec::new(
                "segment-latency",
                SloObjective::Latency {
                    metric: "gridrm_site_latency_ms".to_owned(),
                    threshold_ms: 100.0,
                },
                0.9,
            );
            spec.fast_window_ms = 60_000;
            spec.slow_window_ms = 300_000;
            spec.fast_burn_threshold = 2.0;
            spec.slow_burn_threshold = 1.0;
            config.slos = vec![spec];
        }
        let gateway = Gateway::new(config, net.clone());
        install_into_gateway(&gateway);
        let layer = GlobalLayer::attach(gateway.clone(), directory.clone());
        gateways.push((gateway, layer));
    }
    let (east, layer): &(Arc<Gateway>, Arc<GlobalLayer>) = &gateways[0];
    let clock = east.clock().clone();
    let telemetry_url = "jdbc:telemetry://local/metrics";
    let run_query = || {
        layer
            .query(&ClientRequest::realtime(
                "jdbc:snmp://node01.west/public",
                "SELECT Hostname, Load1 FROM Processor",
            ))
            .expect("grid query");
    };

    // Healthy baseline: zero-latency WAN, every segment under budget.
    for _ in 0..4 {
        run_query();
        clock.advance(5_000);
        east.pump();
    }

    // Regression: the WAN now costs 250 ms one-way, so each cross-site
    // round trip pays 500 ms — five times the objective.
    println!(
        "== inducing 250 ms WAN latency at t={} ms",
        clock.now_millis()
    );
    net.set_default_latency(Latency::ms(250, 0));
    for _ in 0..30 {
        run_query();
        clock.advance(5_000);
        east.pump();
        if east.telemetry().slo().firing_count() > 0 {
            break;
        }
    }
    println!("== SLO fired at t={} ms\n", clock.now_millis());

    // 1. Current SLO state through SQL.
    println!("== SELECT over the gridrm_slo virtual table\n");
    let resp = east
        .query(&ClientRequest::realtime(
            telemetry_url,
            "SELECT name, target, burn_fast, burn_slow, error_budget, \
             firing, since_ms FROM gridrm_slo",
        ))
        .expect("slo query");
    print!("{}", resp.rows.to_table_string());

    // 2. A TIME_BUCKET rollup over the recorded segment-latency history.
    println!("\n== 60 s TIME_BUCKET rollup of gridrm_site_latency_ms_p95\n");
    let resp = east
        .query(&ClientRequest::realtime(
            telemetry_url,
            "SELECT TIME_BUCKET(60000, ts_ms) AS bucket, COUNT(*), \
             MIN(value), MAX(value), AVG(value) \
             FROM gridrm_metrics_history \
             WHERE name = 'gridrm_site_latency_ms_p95' \
             GROUP BY TIME_BUCKET(60000, ts_ms) ORDER BY bucket",
        ))
        .expect("time_bucket query");
    print!("{}", resp.rows.to_table_string());

    // Recovery: latency back to zero; good traffic drains the windows
    // until both burns drop below their thresholds.
    net.set_default_latency(Latency::ZERO);
    for _ in 0..200 {
        run_query();
        clock.advance(5_000);
        east.pump();
        if east.telemetry().slo().firing_count() == 0 {
            break;
        }
    }
    println!("\n== SLO cleared at t={} ms", clock.now_millis());

    // 3. The journal records both transitions at their exact times.
    println!("\n== journal tail (slo_alert entries)\n");
    let resp = east
        .query(&ClientRequest::realtime(
            telemetry_url,
            "SELECT at_ms, severity, source, message FROM gridrm_journal \
             WHERE kind = 'slo_alert' ORDER BY seq",
        ))
        .expect("journal query");
    print!("{}", resp.rows.to_table_string());

    // 4. The Prometheus SLO slice a scraper would collect.
    println!("\n== Prometheus SLO slice\n");
    for line in east.admin().metrics_prometheus().lines() {
        if line.contains("gridrm_slo") {
            println!("{line}");
        }
    }

    // 5. The Admin JSON exposition (what the management UI consumes).
    println!(
        "\n== Admin SLO JSON\n{}",
        east.admin().handle("/v1/slo").body
    );

    // 6. Site-level rollup through the Global layer.
    let rollup = layer.site_slo();
    println!(
        "\n== site rollup: {} via {} -> {} ({}/{} firing, worst burn {:.2}, \
         min budget {:.2})",
        rollup.site,
        rollup.gateway,
        if rollup.healthy() {
            "healthy"
        } else {
            "burning"
        },
        rollup.firing,
        rollup.slos,
        rollup.worst_burn_slow,
        rollup.min_error_budget,
    );
}
