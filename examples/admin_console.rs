//! The management interface of Figs 6–9 as a terminal rendering: network
//! discovery of data sources, driver registration panels with prioritised
//! drivers and failure policies, runtime driver install/remove, failover,
//! and the cached tree view with status icons.
//!
//! Run with: `cargo run --example admin_console`

use gridrm::core::render_tree_text;
use gridrm::prelude::*;

fn render_tree(gateway: &Gateway, title: &str) {
    println!("== {title}");
    let now = gateway.clock().now_millis();
    let tree = gateway.admin().tree_view(now, 5 * 60_000);
    print!("{}", render_tree_text(&tree, 2));
    println!();
}

fn main() {
    let net = Network::new(SimClock::new(), 31);
    let site = SiteModel::generate(8, &SiteSpec::new("ops", 3, 4));
    site.advance_to(300_000);
    deploy_site(&net, site);
    let gateway = Gateway::new(GatewayConfig::new("gw-ops", "ops"), net.clone());
    install_into_gateway(&gateway);

    // 1. Discovery: "data sources are discovered by scanning a network" (§4).
    let discovered = gateway.admin().discover(
        net.as_ref(),
        &[
            ("snmp", "public"),
            ("ganglia", "ops"),
            ("nws", "perfdata"),
            ("scms", ""),
            ("netlogger", "log"),
        ],
    );
    println!("network scan found {} data sources:", discovered.len());
    for cfg in &discovered {
        println!("  + {}", cfg.url);
    }
    println!();

    // 2. Register them, one with explicit prioritised drivers + a policy
    //    (Fig 8's registration panel).
    for mut cfg in discovered {
        if cfg.url.starts_with("jdbc:snmp://node00") {
            cfg.preferred_drivers = vec!["jdbc-snmp".into(), "jdbc-ganglia".into()];
            cfg.policy = Some(FailurePolicy::TryNext);
        }
        gateway.admin().add_source(cfg).unwrap();
    }

    // 3. Poll everything once so the tree view has health + cache data.
    //    Every driver attempt lands in the gateway's health monitor, and
    //    each tree icon is read from that source's record.
    let sources = gateway.admin().list_sources();
    for cfg in &sources {
        let sql = if cfg.url.contains(":nws") {
            "SELECT SourceHost, BandwidthMbps FROM NetworkElement"
        } else if cfg.url.contains(":netlogger") {
            "SELECT Hostname, Category FROM Event"
        } else {
            "SELECT Hostname, Load1 FROM Processor"
        };
        let _ = gateway.query(&ClientRequest::builder(sql).source(&cfg.url).build());
    }
    render_tree(&gateway, "tree view after first poll (Fig 9)");

    // 4. Registered drivers (Fig 6's driver panel).
    println!("== registered drivers");
    for meta in gateway.driver_manager().base().driver_metas() {
        println!(
            "  {:<15} v{}.{}  proto '{}'  — {}",
            meta.name, meta.version.0, meta.version.1, meta.subprotocol, meta.description
        );
    }
    println!();

    // 5. Failover demo: kill an SNMP agent; the TryNext policy reroutes
    //    the next poll through Ganglia, and the health monitor records
    //    the failed SNMP attempt.
    println!("== taking node00.ops:snmp down, re-polling");
    net.set_down("node00.ops:snmp", true);
    let url = "jdbc:snmp://node00.ops/public";
    match gateway.query(&ClientRequest::realtime(
        url,
        "SELECT Hostname, Load1 FROM Processor WHERE Hostname = 'node00.ops'",
    )) {
        Ok(resp) => {
            let chosen = gateway
                .driver_manager()
                .cached_driver(&JdbcUrl::parse(url).unwrap())
                .unwrap_or_default();
            println!(
                "  query still answered ({} row) — driver now: {chosen}\n",
                resp.rows.len()
            );
        }
        Err(e) => println!("  query failed: {e}\n"),
    }

    // 6. Runtime driver removal/re-registration "without affecting normal
    //    Gateway operation" (§3.2).
    println!("== unregistering jdbc-scms at runtime");
    gateway.driver_manager().unregister("jdbc-scms");
    let scms_url = sources
        .iter()
        .map(|c| c.url.clone())
        .find(|u| u.contains(":scms") || u.starts_with("jdbc:scms"))
        .unwrap_or_else(|| "jdbc:scms://node00.ops/".into());
    match gateway.query(&ClientRequest::realtime(
        &scms_url,
        "SELECT Hostname FROM Processor",
    )) {
        Ok(_) => println!("  (answered by another compatible driver)"),
        Err(e) => println!("  SCMS source now unreachable as expected: {e}"),
    }
    // Other sources are untouched.
    let ok = gateway
        .query(&ClientRequest::realtime(
            "jdbc:snmp://node01.ops/public",
            "SELECT Hostname FROM Processor",
        ))
        .is_ok();
    println!("  unrelated SNMP source still fine: {ok}\n");
    // A query that resolves no driver never reaches the source, so it
    // records no health; the pump's probes find the SCMS source
    // unreachable, and the final tree marks it `[!!]`.
    gateway.pump();

    // 7. Persist the registration state ("registration details are cached
    //    persistently within the Gateway", §3.2.2).
    let dir = std::env::temp_dir().join("gridrm-admin-console");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("sources.json");
    gateway.admin().save(&path).expect("persist admin state");
    println!(
        "== persisted {} source registrations to {}",
        gateway.admin().list_sources().len(),
        path.display()
    );

    render_tree(&gateway, "final tree view");
}
