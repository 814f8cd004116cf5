//! Doc-drift guard: the metric-family table in `docs/observability.md`
//! must stay in lockstep with the live registry, in both directions —
//! every documented family must be registered by a fully exercised
//! gateway, and every registered family must be documented. A new
//! metric without a doc row (or a doc row for a removed metric) fails
//! here instead of rotting silently. The same holds for the two other
//! declared lists: the telemetry driver's virtual tables and the admin
//! `/v1` routes.

use gridrm::core::AdminStatus;
use gridrm::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

const OBSERVABILITY_MD: &str = include_str!("../docs/observability.md");
const SERVING_MD: &str = include_str!("../docs/serving.md");

/// Family names from the `| metric | kind | labels | meaning |` table:
/// the first backticked cell of each `| `gridrm_...` |` row.
fn documented_families() -> BTreeSet<String> {
    OBSERVABILITY_MD
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("| `gridrm_")?;
            let name = rest.split('`').next()?;
            Some(format!("gridrm_{name}"))
        })
        .collect()
}

/// A world that materialises every documented family: two sites with
/// an SLO-configured alpha gateway, one cross-Grid query (site-latency
/// histogram + Global-layer counters), one local query, one pump
/// (housekeeping gauges, probes, time-series recorder, SLO gauges).
fn exercised_gateway() -> Arc<Gateway> {
    let net = Network::new(SimClock::new(), 424_242);
    let directory = GmaDirectory::new();
    let mut gateways = Vec::new();
    for (i, name) in ["alpha", "beta"].iter().enumerate() {
        let model = SiteModel::generate(2_000 + i as u64, &SiteSpec::new(name, 3, 2));
        model.advance_to(120_000);
        gridrm::agents::deploy_site(&net, model);
        let mut config = GatewayConfig::new(&format!("gw-{name}"), name);
        if *name == "alpha" {
            config.slos = vec![SloSpec::new(
                "availability",
                SloObjective::Availability {
                    bad_paths: vec!["denied".into(), "deadline_exceeded".into()],
                },
                0.99,
            )];
        }
        let gateway = Gateway::new(config, net.clone());
        install_into_gateway(&gateway);
        let layer = GlobalLayer::attach(gateway.clone(), directory.clone());
        gateways.push((gateway, layer));
    }
    let (alpha, layer) = gateways.swap_remove(0);
    alpha
        .admin()
        .add_source(DataSourceConfig::dynamic(
            "jdbc:snmp://node01.alpha/public",
            "node01 via SNMP",
        ))
        .expect("source registers");
    layer
        .query(
            &ClientRequest::builder("SELECT Hostname, Load1 FROM Processor")
                .sources(&[
                    "jdbc:snmp://node00.alpha/public",
                    "jdbc:snmp://node00.beta/public",
                ])
                .build(),
        )
        .expect("cross-grid query");
    alpha.clock().advance(1_000);
    alpha.pump();
    alpha
}

#[test]
fn metrics_table_matches_live_registry_both_ways() {
    let documented = documented_families();
    assert!(
        documented.len() >= 20,
        "table parse found only {} families — did the doc format change?",
        documented.len()
    );

    let gateway = exercised_gateway();
    let registered: BTreeSet<String> = gateway
        .telemetry()
        .registry()
        .snapshot()
        .into_iter()
        .map(|f| f.name)
        .collect();

    let undocumented: Vec<&String> = registered.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "registered but missing from the docs/observability.md metrics \
         table: {undocumented:?}"
    );
    let unregistered: Vec<&String> = documented.difference(&registered).collect();
    assert!(
        unregistered.is_empty(),
        "documented in docs/observability.md but never registered by an \
         exercised gateway (stale row?): {unregistered:?}"
    );
}

/// The backticked spans of `text` that satisfy `keep`.
fn backticked(text: &str, keep: impl Fn(&str) -> bool) -> BTreeSet<String> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| keep(span))
        .map(str::to_owned)
        .collect()
}

#[test]
fn virtual_tables_match_the_declared_list_both_ways() {
    use gridrm::drivers::telemetry::TABLES;
    let declared: BTreeSet<String> = TABLES.iter().map(|t| t.name.to_owned()).collect();
    assert_eq!(declared.len(), TABLES.len(), "duplicate table name");

    // The bullet list under "The three exposition surfaces".
    let documented: BTreeSet<String> = OBSERVABILITY_MD
        .lines()
        .filter_map(|line| line.strip_prefix("* `gridrm_")?.split('`').next())
        .map(|name| format!("gridrm_{name}"))
        .collect();
    assert_eq!(documented, declared, "docs/observability.md table list");

    // What the driver says it serves when asked for anything else.
    let gateway = exercised_gateway();
    let err = gateway
        .query(&ClientRequest::realtime(
            "jdbc:telemetry://local/metrics",
            "SELECT * FROM gridrm_no_such_table",
        ))
        .expect_err("unknown virtual table");
    let message = err.to_string();
    let named: BTreeSet<String> = message
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with("gridrm_") && *w != "gridrm_no_such_table")
        .map(str::to_owned)
        .collect();
    assert_eq!(named, declared, "Unsupported message: {message}");

    // And every declared table answers `SELECT *` with its declared columns.
    for table in TABLES {
        let resp = gateway
            .query(&ClientRequest::realtime(
                "jdbc:telemetry://local/metrics",
                &format!("SELECT * FROM {}", table.name),
            ))
            .unwrap_or_else(|e| panic!("{}: {e}", table.name));
        let served: Vec<&str> = (0..resp.rows.meta().column_count())
            .map(|i| resp.rows.meta().column_name(i).unwrap())
            .collect();
        let columns: Vec<&str> = table.columns.iter().map(|(name, _)| *name).collect();
        assert_eq!(served, columns, "{}", table.name);
    }
}

#[test]
fn admin_routes_match_the_index_and_the_docs_both_ways() {
    let gateway = exercised_gateway();
    let index = gateway.admin().handle("/v1").body;
    let served: BTreeSet<String> = index
        .lines()
        .filter_map(|line| line.split_whitespace().next())
        .filter(|path| path.starts_with("/v1/"))
        .map(str::to_owned)
        .collect();
    assert!(served.len() >= 13, "index parse found {served:?}");
    for (doc, text) in [
        ("docs/observability.md", OBSERVABILITY_MD),
        ("docs/serving.md", SERVING_MD),
    ] {
        assert_eq!(backticked(text, |s| s.starts_with("/v1/")), served, "{doc}");
    }
    // Every indexed route resolves; nothing else does.
    for path in &served {
        let resp = gateway.admin().handle(&path.replace("<id>", "some-trace"));
        assert_eq!(resp.status, AdminStatus::Ok, "{path}");
    }
    assert_eq!(
        gateway.admin().handle("/v1/no-such-route").status,
        AdminStatus::NotFound
    );
}
