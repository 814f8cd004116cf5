//! Doc-drift guard: the metric-family table in `docs/observability.md`
//! must stay in lockstep with the live registry, in both directions —
//! every documented family must be registered by a fully exercised
//! gateway, and every registered family must be documented, with the
//! kind, label keys and closed label values its row states. A new
//! metric without a doc row (or a doc row for a removed metric) fails
//! here instead of rotting silently. The same holds for the other
//! declared lists: the telemetry driver's virtual tables, the admin
//! `/v1` routes, the span-stage vocabulary, the DESIGN.md crate
//! inventory, the EXPERIMENTS.md section per experiment, and the
//! DESIGN.md guarantees table against the mutation checklist and the
//! tree; and no top-level doc points at the removed criterion benches.

use gridrm::core::AdminStatus;
use gridrm::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const OBSERVABILITY_MD: &str = include_str!("../docs/observability.md");
const README_MD: &str = include_str!("../README.md");
const SERVING_MD: &str = include_str!("../docs/serving.md");
const DESIGN_MD: &str = include_str!("../DESIGN.md");
const EXPERIMENTS_MD: &str = include_str!("../EXPERIMENTS.md");
const EXPERIMENTS_RS: &str = include_str!("../crates/bench/src/bin/experiments.rs");
const MUTANTS_TSV: &str = include_str!("mutants.tsv");

/// One metric family as the docs describe it or the registry holds it:
/// its kind and, per label key, the label values (the docs list values
/// only for closed sets; an open set such as `driver` documents the key
/// alone).
struct Family {
    kind: String,
    labels: BTreeMap<String, BTreeSet<String>>,
}

/// The `| metric | kind | labels | meaning |` table, by family name.
/// A labels cell reads `—`, or comma-separated `` `key` `` and
/// `` `key` = `v1` \| `v2` `` entries.
fn documented_families() -> BTreeMap<String, Family> {
    OBSERVABILITY_MD
        .lines()
        .filter(|line| line.starts_with("| `gridrm_"))
        .map(|line| {
            let row = line.replace("\\|", " ");
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let labels = cells[3]
                .split(", ")
                .filter(|entry| *entry != "—")
                .map(|entry| {
                    let (key, values) = entry.split_once(" = ").unwrap_or((entry, ""));
                    (
                        key.trim_matches('`').to_owned(),
                        backticked(values, |_| true),
                    )
                })
                .collect();
            let family = Family {
                kind: cells[2].to_owned(),
                labels,
            };
            (cells[1].trim_matches('`').to_owned(), family)
        })
        .collect()
}

/// Every family `gateway` registers, in the shape of the docs table (a
/// histogram's `le` bucket label is part of the kind, not a label).
fn registered_families(gateway: &Gateway) -> BTreeMap<String, Family> {
    let mut out = BTreeMap::new();
    for snapshot in gateway.telemetry().registry().snapshot() {
        let mut labels: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for sample in &snapshot.samples {
            for pair in sample.labels.split(',').filter(|pair| !pair.is_empty()) {
                let (key, value) = pair.split_once('=').expect("rendered as key=\"value\"");
                if !(snapshot.kind == "histogram" && key == "le") {
                    let value = value.trim_matches('"').to_owned();
                    labels.entry(key.to_owned()).or_default().insert(value);
                }
            }
        }
        let family = Family {
            kind: snapshot.kind,
            labels,
        };
        out.insert(snapshot.name, family);
    }
    out
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

    let registered = registered_families(&exercised_gateway());

    let undocumented: Vec<&String> = registered
        .keys()
        .filter(|name| !documented.contains_key(*name))
        .collect();
    assert!(
        undocumented.is_empty(),
        "registered but missing from the docs/observability.md metrics \
         table: {undocumented:?}"
    );
    let unregistered: Vec<&String> = documented
        .keys()
        .filter(|name| !registered.contains_key(*name))
        .collect();
    assert!(
        unregistered.is_empty(),
        "documented in docs/observability.md but never registered by an \
         exercised gateway (stale row?): {unregistered:?}"
    );

    // Each row's kind and label keys, and the values of a closed label
    // set, are what the registry holds.
    for (name, doc) in &documented {
        let live = &registered[name];
        assert_eq!(doc.kind, live.kind, "{name}: kind column");
        let keys = |f: &Family| f.labels.keys().cloned().collect::<Vec<_>>();
        assert_eq!(keys(doc), keys(live), "{name}: label keys");
        for (key, values) in doc.labels.iter().filter(|(_, v)| !v.is_empty()) {
            assert_eq!(values, &live.labels[key], "{name}: `{key}` values");
        }
    }
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

/// `/v1/health` and `gridrm_health` serve the same record: each JSON
/// object's keys are the table's column names, in column order.
#[test]
fn health_json_keys_match_the_health_table_columns() {
    use gridrm::drivers::telemetry::TABLES;
    let table = TABLES.iter().find(|t| t.name == "gridrm_health").unwrap();
    let columns: Vec<&str> = table.columns.iter().map(|(name, _)| *name).collect();
    let body = exercised_gateway().admin().handle("/v1/health").body;
    let json: serde_json::Value = serde_json::from_str(&body).expect("/v1/health is JSON");
    let rows = json.as_array().expect("/v1/health is an array");
    assert!(!rows.is_empty(), "no tracked source in {body}");
    for row in rows {
        let keys: Vec<&str> = row
            .as_object()
            .expect("each /v1/health row is an object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, columns, "{row:?}");
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

#[test]
fn span_stage_vocabulary_matches_the_stage_enum_both_ways() {
    // The bullets under "### Span stage vocabulary": the backticked
    // names before each bullet's ` — ` (details after it are values).
    let section = OBSERVABILITY_MD
        .split("### Span stage vocabulary")
        .nth(1)
        .and_then(|rest| rest.split("\n#").next())
        .expect("docs/observability.md has a span stage vocabulary section");
    let documented: BTreeSet<String> = section
        .split("\n* ")
        .skip(1)
        .filter_map(|bullet| bullet.split(" — ").next())
        .flat_map(|names| backticked(names, |_| true))
        .collect();
    let declared: BTreeSet<String> = Stage::ALL.iter().map(|s| s.as_str().to_owned()).collect();
    assert_eq!(declared.len(), Stage::ALL.len(), "duplicate stage name");
    assert_eq!(documented, declared, "docs/observability.md stage list");
}

#[test]
fn crate_inventory_matches_the_workspace_both_ways() {
    // `    <dir>/   gridrm-<name>   <what>` rows of DESIGN.md §3.
    let documented: BTreeSet<String> = DESIGN_MD
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            let dir = words.next()?.strip_suffix('/')?;
            let package = words.next()?;
            (package == format!("gridrm-{dir}")).then(|| dir.to_owned())
        })
        .collect();
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let on_disk: BTreeSet<String> = std::fs::read_dir(&crates)
        .expect("crates/ is readable")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.join("Cargo.toml").is_file())
        .filter_map(|path| Some(path.file_name()?.to_str()?.to_owned()))
        .collect();
    assert!(on_disk.len() >= 15, "crates/ scan found {on_disk:?}");
    assert_eq!(documented, on_disk, "DESIGN.md §3 inventory vs crates/");
}

/// The ids of the harness's `EXPERIMENTS` table, in run order: the
/// `"eN"` that opens each `(id, title, run)` row.
fn experiment_ids() -> Vec<&'static str> {
    let table = EXPERIMENTS_RS
        .split("const EXPERIMENTS")
        .nth(1)
        .and_then(|rest| rest.split("\n];").next())
        .expect("experiments.rs has a `const EXPERIMENTS` table");
    table
        .split('(')
        .filter_map(|row| row.trim_start().strip_prefix('"')?.split('"').next())
        .filter(|id| {
            id.strip_prefix('e')
                .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
        })
        .collect()
}

#[test]
fn every_experiment_has_a_section() {
    let ids = experiment_ids();
    assert!(ids.len() >= 13, "experiments.rs parse found {ids:?}");
    for id in ids {
        let heading = format!("## {} ", id.to_uppercase());
        assert!(
            EXPERIMENTS_MD.lines().any(|l| l.starts_with(&heading)),
            "EXPERIMENTS.md has no `{heading}…` section for `experiments {id}`"
        );
    }
}

/// The timing figures come from `gridrm-benchmark` and the experiments
/// binary; the criterion benches are gone and the top-level docs must
/// not send a reader to them.
#[test]
fn docs_name_no_removed_bench_harness() {
    let mut stale = Vec::new();
    for (doc, text) in [
        ("README.md", README_MD),
        ("DESIGN.md", DESIGN_MD),
        ("EXPERIMENTS.md", EXPERIMENTS_MD),
    ] {
        for (n, line) in text.lines().enumerate() {
            let lower = line.to_lowercase();
            if ["cargo bench", "criterion", "bench/benches"]
                .iter()
                .any(|gone| lower.contains(gone))
            {
                stale.push(format!("{doc}:{}: {line}", n + 1));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "stale bench references:\n{}",
        stale.join("\n")
    );
}

/// DESIGN.md's guarantees table and `tests/mutants.tsv` name the same
/// `(refuting test, mutant)` pairs; every row's line still holds the
/// text its mutant replaces, and every refuting test exists.
#[test]
fn guarantees_table_matches_the_mutation_checklist_and_the_tree() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let table: BTreeSet<(String, String)> = DESIGN_MD
        .lines()
        .skip_while(|line| *line != "### Guarantees")
        .skip_while(|line| !line.starts_with("|---"))
        .skip(1)
        .take_while(|line| line.starts_with('|'))
        .map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let cell = |i: usize| cells[i].trim_matches('`').to_owned();
            (cell(cells.len() - 3), cell(cells.len() - 2))
        })
        .collect();
    assert!(!table.is_empty(), "DESIGN.md has no guarantees table");
    let mut checklist = BTreeSet::new();
    for row in MUTANTS_TSV.lines().filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = row.split('\t').collect();
        let [id, file, line, original, _replacement, test] = fields[..] else {
            panic!("a checklist row has six tab-separated fields: {row}");
        };
        let source = std::fs::read_to_string(root.join(file)).expect("the mutated file");
        let at: usize = line.parse().expect("line number");
        assert!(
            source
                .lines()
                .nth(at - 1)
                .is_some_and(|l| l.contains(original)),
            "{id}: {file}:{line} no longer holds `{original}`"
        );
        let (test_file, name) = test.split_once("::").expect("file::test");
        let tests = std::fs::read_to_string(root.join(test_file)).expect("the test file");
        assert!(
            tests.contains(&format!("fn {name}(")),
            "{id}: no test {test}"
        );
        checklist.insert((test.to_owned(), id.to_owned()));
    }
    assert_eq!(
        table, checklist,
        "DESIGN.md guarantees vs tests/mutants.tsv"
    );
}
