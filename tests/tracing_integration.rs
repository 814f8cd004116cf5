//! Cross-gateway hierarchical tracing: one `trace_id` must span a
//! Global-layer fan-out, child spans must carry the site they ran on,
//! and `EXPLAIN ANALYZE` must answer with a rowset reconstructing the
//! exact same rooted span tree that the `gridrm_spans` virtual table
//! and the Admin JSON expose.

use gridrm::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Two sites, each with its own agent population and gateway, joined by
/// a shared GMA directory.
fn grid() -> Vec<(Arc<Gateway>, Arc<GlobalLayer>)> {
    let net = Network::new(SimClock::new(), 4242);
    let directory = GmaDirectory::new();
    ["alpha", "beta"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let model = SiteModel::generate(500 + i as u64, &SiteSpec::new(name, 3, 4));
            model.advance_to(180_000);
            deploy_site(&net, model);
            let gateway =
                Gateway::new(GatewayConfig::new(&format!("gw-{name}"), name), net.clone());
            install_into_gateway(&gateway);
            let layer = GlobalLayer::attach(gateway.clone(), directory.clone());
            (gateway, layer)
        })
        .collect()
}

const ALPHA_URL: &str = "jdbc:snmp://node00.alpha/public";
const BETA_URL: &str = "jdbc:snmp://node00.beta/public";
const SQL: &str = "SELECT Hostname, Load1 FROM Processor";

#[test]
fn one_trace_spans_the_global_fanout() {
    let g = grid();
    let (gateway, layer) = &g[0];
    layer
        .query(
            &ClientRequest::builder(SQL)
                .sources(&[ALPHA_URL, BETA_URL])
                .build(),
        )
        .unwrap();

    // The fan-out root lives in alpha's buffer with no parent.
    let traces = gateway.telemetry().traces().recent();
    let root = traces
        .iter()
        .find(|t| t.parent_span_id.is_none() && t.request == SQL)
        .expect("fan-out root span");
    assert_eq!(root.site, "alpha");
    let spans = gateway.telemetry().traces().for_trace(&root.trace_id);
    assert!(
        spans.len() >= 4,
        "expected a real tree, got {}",
        spans.len()
    );

    // Every span shares the trace and every parent resolves within it.
    let ids: HashSet<&str> = spans.iter().map(|s| s.span_id.as_str()).collect();
    for s in &spans {
        assert_eq!(s.trace_id, root.trace_id);
        if let Some(parent) = &s.parent_span_id {
            assert!(ids.contains(parent.as_str()), "orphan parent {parent}");
        }
    }

    // The remote half was imported: spans minted by beta's gateway carry
    // beta's site stamp; alpha's carry alpha's.
    assert!(spans
        .iter()
        .any(|s| s.span_id.starts_with("gw-beta:") && s.site == "beta"));
    assert!(spans
        .iter()
        .all(|s| !s.span_id.starts_with("gw-alpha:") || s.site == "alpha"));

    // Both fan-out segments landed in the per-site latency histogram.
    let samples = gateway.telemetry().registry().samples();
    for site in ["alpha", "beta"] {
        let labels = format!("site=\"{site}\"");
        assert!(
            samples
                .iter()
                .any(|s| s.name == "gridrm_site_latency_ms_count" && s.labels == labels),
            "no latency sample for {site}"
        );
    }
}

#[test]
fn explain_analyze_reconstructs_the_span_tree() {
    let g = grid();
    let (gateway, layer) = &g[0];
    let resp = layer
        .query(
            &ClientRequest::builder(&format!("EXPLAIN ANALYZE {SQL}"))
                .sources(&[ALPHA_URL, BETA_URL])
                .build(),
        )
        .unwrap();
    assert!(resp.warnings.is_empty(), "warnings: {:?}", resp.warnings);

    // Columns: trace_id, span_id, parent_span_id, site, depth, request,
    // source, started_ms, finished_ms, duration_ms, outcome, stages.
    let rows = resp.rows.rows();
    assert!(
        rows.len() >= 5,
        "expected a real tree, got {} rows",
        rows.len()
    );
    let trace_id = rows[0][0].to_string();
    let ids: HashSet<String> = rows.iter().map(|r| r[1].to_string()).collect();
    let mut roots = 0;
    for row in rows {
        assert_eq!(row[0].to_string(), trace_id, "one trace per EXPLAIN");
        match &row[2] {
            v if v.is_null() => roots += 1,
            parent => assert!(ids.contains(&parent.to_string()), "orphan {parent}"),
        }
        // ANALYZE renders real timings.
        assert!(!row[9].is_null(), "duration missing");
    }
    assert_eq!(roots, 1, "exactly one root: the EXPLAIN span");

    // At least one driver-resolution span names the accepts_url
    // candidates it tried, and at least one GLUE-translation span lists
    // what the mapping dropped.
    let stages: Vec<String> = rows.iter().map(|r| r[11].to_string()).collect();
    assert!(
        stages
            .iter()
            .any(|s| s.contains("resolve_candidate") && s.contains("accepts_url")),
        "no resolution span in {stages:?}"
    );
    assert!(
        stages
            .iter()
            .any(|s| s.contains("glue_translate") && s.contains("dropped")),
        "no glue span in {stages:?}"
    );
    // Spans from both sites appear in the tree.
    let sites: HashSet<String> = rows.iter().map(|r| r[3].to_string()).collect();
    assert!(
        sites.contains("alpha") && sites.contains("beta"),
        "{sites:?}"
    );

    // The row count matches the span tree everywhere it is exposed:
    // the trace buffer, the Admin JSON, and the gridrm_spans table.
    let buffered = gateway.telemetry().traces().for_trace(&trace_id);
    assert_eq!(rows.len(), buffered.len());
    let json = gateway
        .admin()
        .handle(&format!("/v1/spans/{trace_id}"))
        .body;
    let admin_spans: Vec<serde_json::Value> = serde_json::from_str(&json).unwrap();
    assert_eq!(rows.len(), admin_spans.len());
    assert!(json.contains(&trace_id));
    let via_sql = gateway
        .query(&ClientRequest::realtime(
            "jdbc:telemetry://local/metrics",
            &format!(
                "SELECT span_id, parent_span_id FROM gridrm_spans WHERE trace_id = '{trace_id}'"
            ),
        ))
        .unwrap();
    assert_eq!(via_sql.rows.len(), rows.len());
}

/// Every GLUE driver translates through the driver kit, whose
/// `Source::query` is the one place a `Translator` is built: a driver
/// that translated on its own would answer without a `glue_translate`
/// span.
#[test]
fn every_glue_driver_translates_through_the_kit() {
    let g = grid();
    let (gateway, _layer) = &g[0];
    for (url, sql) in [
        (ALPHA_URL, SQL),
        ("jdbc:ganglia://node00.alpha/alpha?ttl=0", SQL),
        (
            "jdbc:nws://node00.alpha/perf",
            "SELECT * FROM NetworkElement",
        ),
        ("jdbc:netlogger://node00.alpha/log", "SELECT * FROM Event"),
        ("jdbc:scms://node00.alpha/", SQL),
    ] {
        let resp = gateway
            .query(&ClientRequest::realtime(
                url,
                &format!("EXPLAIN ANALYZE {sql}"),
            ))
            .unwrap_or_else(|e| panic!("{url}: {e}"));
        assert!(resp.warnings.is_empty(), "{url}: {:?}", resp.warnings);
        let stages: Vec<String> = resp.rows.rows().iter().map(|r| r[11].to_string()).collect();
        assert!(
            stages.iter().any(|s| s.contains("glue_translate")),
            "{url}: no glue_translate stage in {stages:?}"
        );
    }
}

#[test]
fn plain_explain_skips_timings_but_keeps_the_plan() {
    let g = grid();
    let (_gateway, layer) = &g[0];
    let resp = layer
        .query(&ClientRequest::realtime(
            ALPHA_URL,
            &format!("EXPLAIN {SQL}"),
        ))
        .unwrap();
    let rows = resp.rows.rows();
    assert!(!rows.is_empty());
    // Plan mode: timing columns are NULL, stage offsets are omitted.
    for row in rows {
        assert!(row[7].is_null() && row[8].is_null() && row[9].is_null());
    }
    assert!(rows
        .iter()
        .any(|r| r[11].to_string().contains("resolve_chosen")));
}
