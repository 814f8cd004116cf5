//! Per-rule fixture tests: every rule has a fixture that makes it fire
//! and a fixture it stays silent on. Fixtures live under
//! `tests/fixtures/{ok,bad}/` and are parsed, never compiled.

use gridrm_xlint::{check_file, scan_files, Config, Finding, SourceFile};
use std::collections::BTreeSet;

fn fixture(rel: &str) -> String {
    let path = format!("{}/tests/fixtures/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// A self-contained config mirroring the workspace one, with fixture
/// paths standing in for the real hot-path files.
fn test_config() -> Config {
    Config {
        hot_path_files: vec!["hot/panics.rs".to_owned(), "hot/waivers.rs".to_owned()],
        hot_path_fns: vec![(
            "crates/drivers/src/".to_owned(),
            vec![
                "execute_query".to_owned(),
                "execute_update".to_owned(),
                "fetch".to_owned(),
            ],
        )],
        forbidden_label_keys: [
            "source", "url", "hostname", "host", "sql", "query", "address",
        ]
        .into_iter()
        .map(str::to_owned)
        .collect(),
        stage_vocab: ["parse", "execute", "glue_translate"]
            .into_iter()
            .map(str::to_owned)
            .collect::<BTreeSet<_>>(),
        dispatch_methods: [
            "execute",
            "execute_traced",
            "execute_query",
            "execute_update",
            "dispatch",
            "handle_request",
            "native_request",
            "glue_translate",
            "poll_now",
        ]
        .into_iter()
        .map(str::to_owned)
        .collect(),
        driver_dir: "crates/drivers/src/".to_owned(),
        driver_exempt: vec!["crates/drivers/src/base.rs".to_owned()],
        deterministic_dirs: vec![
            "crates/core/src/".to_owned(),
            "crates/global/src/".to_owned(),
            "crates/store/src/".to_owned(),
            "crates/telemetry/src/".to_owned(),
            "crates/drivers/src/".to_owned(),
        ],
        boundary_methods: ["pump"].into_iter().map(str::to_owned).collect(),
        wire_roots: vec!["GlobalRequest".to_owned(), "GlobalResponse".to_owned()],
    }
}

/// Parse `fixture_rel` pretending it sits at `as_path`, run every rule.
fn scan(fixture_rel: &str, as_path: &str) -> Vec<Finding> {
    let sf = SourceFile::parse(as_path, fixture(fixture_rel)).expect("fixture parses");
    check_file(&sf, &test_config())
}

fn count(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn metric_rules_fire_on_bad_fixture() {
    let f = scan("bad/metrics.rs", "crates/core/src/metrics_fixture.rs");
    assert_eq!(count(&f, "metric-prefix"), 3, "{f:#?}");
    assert_eq!(count(&f, "counter-suffix"), 2, "{f:#?}");
    assert_eq!(count(&f, "label-key"), 2, "{f:#?}");
}

#[test]
fn metric_rules_pass_ok_fixture() {
    let f = scan("ok/metrics.rs", "crates/core/src/metrics_fixture.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn stage_vocab_fires_on_undocumented_stages() {
    let f = scan("bad/stages.rs", "crates/core/src/stages_fixture.rs");
    assert_eq!(count(&f, "stage-vocab"), 2, "{f:#?}");
}

#[test]
fn stage_vocab_passes_documented_and_dynamic_stages() {
    let f = scan("ok/stages.rs", "crates/core/src/stages_fixture.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn panic_audit_fires_on_every_shape_outside_tests() {
    let f = scan("bad/panics.rs", "hot/panics.rs");
    // unwrap + expect + indexing + panic! — and nothing from the
    // #[cfg(test)] module.
    assert_eq!(count(&f, "hot-path-panic"), 4, "{f:#?}");
}

#[test]
fn panic_audit_passes_panic_free_code() {
    let f = scan("ok/panics.rs", "hot/panics.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn panic_audit_skips_files_outside_the_hot_path() {
    let f = scan("bad/panics.rs", "crates/telemetry/src/cold.rs");
    assert_eq!(count(&f, "hot-path-panic"), 0, "{f:#?}");
}

#[test]
fn panic_audit_in_drivers_covers_only_entry_points() {
    let f = scan("bad/hot_fn.rs", "crates/drivers/src/hot_fixture.rs");
    // helper()'s unwrap is out of scope; the kit's execute_query and
    // the source's fetch hook are in scope.
    assert_eq!(count(&f, "hot-path-panic"), 2, "{f:#?}");
    assert!(f[0].message.contains("fetch"), "{f:#?}");
    assert!(f[1].message.contains("execute_query"), "{f:#?}");
}

#[test]
fn lock_rule_fires_on_guard_held_across_dispatch() {
    let f = scan("bad/locks.rs", "crates/core/src/locks_fixture.rs");
    assert_eq!(count(&f, "lock-across-dispatch"), 2, "{f:#?}");
}

#[test]
fn lock_rule_passes_drop_before_dispatch_and_temporaries() {
    let f = scan("ok/locks.rs", "crates/core/src/locks_fixture.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn driver_conformance_fires_on_bad_driver() {
    let f = scan("bad/drivers.rs", "crates/drivers/src/bad_fixture.rs");
    // Translator without glue_translate + direct translate_all.
    assert_eq!(count(&f, "driver-conformance"), 2, "{f:#?}");
}

#[test]
fn driver_conformance_passes_good_driver() {
    let f = scan("ok/drivers.rs", "crates/drivers/src/good_fixture.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn driver_conformance_ignores_files_outside_driver_dir() {
    let f = scan("bad/drivers.rs", "crates/core/src/not_a_driver.rs");
    assert_eq!(count(&f, "driver-conformance"), 0, "{f:#?}");
}

#[test]
fn waiver_syntax_fires_on_malformed_waivers() {
    let f = scan("bad/waivers.rs", "crates/core/src/waivers_fixture.rs");
    assert_eq!(count(&f, "waiver-syntax"), 3, "{f:#?}");
}

#[test]
fn well_formed_waivers_suppress_findings_in_both_forms() {
    let f = scan("ok/waivers.rs", "hot/waivers.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn waivers_only_cover_their_own_rule() {
    // A hot-path-panic waiver on a line with a stage-vocab violation
    // must not hide the latter.
    let src = "pub fn f(span: &mut Span) {\n    \
               span.stage(\"bogus\"); // xlint: allow(hot-path-panic) -- wrong rule on purpose\n}\n";
    let sf = SourceFile::parse("crates/core/src/cross.rs", src.to_owned()).expect("parses");
    let f = check_file(&sf, &test_config());
    assert_eq!(count(&f, "stage-vocab"), 1, "{f:#?}");
}

#[test]
fn determinism_fires_on_wall_clock_entropy_and_hash_iteration() {
    let f = scan(
        "bad/determinism.rs",
        "crates/core/src/determinism_fixture.rs",
    );
    // Instant::now + SystemTime::now + thread::sleep + rand:: +
    // seen.iter() + `for .. in &self.tags` — and nothing from the
    // #[cfg(test)] module.
    assert_eq!(count(&f, "determinism"), 6, "{f:#?}");
}

#[test]
fn determinism_passes_ordered_orderless_and_waived_code() {
    let f = scan(
        "ok/determinism.rs",
        "crates/core/src/determinism_fixture.rs",
    );
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn determinism_ignores_wall_clock_crates() {
    let f = scan(
        "bad/determinism.rs",
        "crates/serve/src/determinism_fixture.rs",
    );
    assert_eq!(count(&f, "determinism"), 0, "{f:#?}");
}

#[test]
fn lock_order_detects_cycle_through_helper_and_pump_boundary() {
    let sf = SourceFile::parse(
        "crates/core/src/lockorder_fixture.rs",
        fixture("bad/lockorder.rs"),
    )
    .expect("fixture parses");
    let f = scan_files(std::slice::from_ref(&sf), &test_config());
    // One cycle (forward locks a→b, backward locks b then a via
    // grab_a's summary) and one guard held across pump.
    assert_eq!(count(&f, "lock-order"), 2, "{f:#?}");
    assert!(
        f.iter().any(|x| x.message.contains("lock-order cycle")),
        "{f:#?}"
    );
    assert!(
        f.iter().any(|x| x.message.contains("scheduling boundary")),
        "{f:#?}"
    );
}

#[test]
fn lock_order_passes_consistent_order_and_dropped_guards() {
    let sf = SourceFile::parse(
        "crates/core/src/lockorder_fixture.rs",
        fixture("ok/lockorder.rs"),
    )
    .expect("fixture parses");
    let f = scan_files(std::slice::from_ref(&sf), &test_config());
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn unbalanced_fixture_fails_to_parse() {
    let err = SourceFile::parse("bad/parse.rs", fixture("bad/parse.rs"));
    assert!(err.is_err(), "unbalanced delimiters must not parse");
}
