//! A live dashboard over the continuous-query plane: standing queries
//! registered with `SELECT … EVERY n`, incremental deltas pumped on the
//! gateway's cadence, and the `gridrm_subscriptions` / Prometheus
//! surfaces that make the subscription population observable.
//!
//! Run with: `cargo run --example live_dashboard`

use gridrm::prelude::*;

fn main() {
    let net = Network::new(SimClock::new(), 23);
    let site = SiteModel::generate(41, &SiteSpec::new("lab", 2, 3));
    site.advance_to(60_000);
    deploy_site(&net, site.clone());
    let gateway = Gateway::new(GatewayConfig::new("gw-lab", "lab"), net.clone());
    install_into_gateway(&gateway);
    let clock = gateway.clock().clone();

    println!("== live dashboard: continuous queries on gw-lab ==\n");

    // Subscription 1: plain SQL with an EVERY clause. The query answers
    // with a one-row acknowledgement instead of rows.
    let ack = gateway
        .query(&ClientRequest::realtime(
            "jdbc:snmp://node00.lab/public",
            "SELECT Hostname, Load1 FROM Processor EVERY 500",
        ))
        .expect("subscribe via SQL");
    let sub_sql = match ack.rows.rows()[0][0] {
        SqlValue::Int(id) => id as u64,
        ref other => panic!("expected subscription id, got {other:?}"),
    };
    println!("SQL `EVERY 500` acknowledged: subscription #{sub_sql}");

    // Subscription 2: the builder path, with explicit delivery knobs —
    // a slow consumer that coalesces rather than losing data.
    let spec = ClientRequest::builder("SELECT Hostname, Load1 FROM Processor")
        .source("jdbc:snmp://node01.lab/public")
        .subscribe_every(1_000)
        .buffer(2)
        .backpressure(BackpressurePolicy::Coalesce);
    let sub_builder = gateway.subscribe(&spec).expect("subscribe via builder");
    println!("builder subscription registered: #{sub_builder} (buffer 2, coalesce)\n");

    // The dashboard loop: advance virtual time, let the site drift,
    // pump the gateway, drain deltas. Only subscription 1 is polled
    // every frame — subscription 2 falls behind and coalesces.
    for frame in 1u64..=6 {
        clock.advance(500);
        site.advance_to(60_000 + frame * 30_000);
        gateway.pump();
        for d in gateway.poll_deltas(sub_sql, 0).expect("poll") {
            for row in d.rows.rows() {
                println!(
                    "frame {frame}  t={}ms  #{:<2} seq {:<2} {} Load1={}",
                    d.emitted_ms, d.subscription, d.seq, row[0], row[1]
                );
            }
        }
    }
    println!();
    for d in gateway.poll_deltas(sub_builder, 0).expect("poll slow") {
        println!(
            "slow consumer catches up: seq {} carries {} row(s), {} emission(s) coalesced",
            d.seq,
            d.rows.len(),
            d.coalesced + 1
        );
    }

    // The subscription population is itself just a table...
    println!("\n-- SELECT * FROM gridrm_subscriptions --");
    let resp = gateway
        .query(&ClientRequest::realtime(
            "jdbc:telemetry://local/metrics",
            "SELECT id, every_ms, policy, pending, emitted, delivered, dropped \
             FROM gridrm_subscriptions ORDER BY id",
        ))
        .expect("subscriptions table");
    let meta = resp.rows.meta();
    let names: Vec<String> = (0..meta.column_count())
        .map(|i| meta.column_name(i).unwrap_or("?").to_owned())
        .collect();
    println!("  {}", names.join("  "));
    for row in resp.rows.rows() {
        let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        println!("  {}", cells.join("  "));
    }

    // ...and a Prometheus family plus an admin JSON document.
    println!("\n-- streaming metrics --");
    for line in gateway.admin().metrics_prometheus().lines() {
        if line.starts_with("gridrm_sub") && !line.starts_with('#') {
            println!("  {line}");
        }
    }
    let json = gateway.admin().handle("/v1/subscriptions").body;
    println!(
        "\nadmin /v1/subscriptions: {} bytes covering {} subscription(s)",
        json.len(),
        gateway.streams().subscriber_count()
    );
}
