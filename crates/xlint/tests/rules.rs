//! Per-rule fixture tests: every rule has a fixture that makes it fire
//! and a fixture it stays silent on. Fixtures live under
//! `tests/fixtures/{ok,bad}/` and are parsed, never compiled.

use gridrm_xlint::rules::lockorder;
use gridrm_xlint::{check_file, Config, Finding, SourceFile};

fn fixture(rel: &str) -> String {
    let path = format!("{}/tests/fixtures/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Parse `fixture_rel` pretending it sits at `as_path`, run the
/// per-file rules.
fn scan(fixture_rel: &str, as_path: &str) -> Vec<Finding> {
    let sf = SourceFile::parse(as_path, &fixture(fixture_rel)).expect("fixture parses");
    check_file(&sf, &Config::workspace())
}

/// Parse `fixture_rel` as the whole workspace, run the lock-order pass.
fn scan_alone(fixture_rel: &str) -> Vec<Finding> {
    let sf = SourceFile::parse("crates/core/src/lock_fixture.rs", &fixture(fixture_rel))
        .expect("fixture parses");
    lockorder::check_workspace(std::slice::from_ref(&sf), &Config::workspace())
}

fn count(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn waiver_syntax_fires_on_malformed_waivers() {
    let f = scan("bad/waivers.rs", "crates/core/src/waivers_fixture.rs");
    assert_eq!(count(&f, "waiver-syntax"), 3, "{f:#?}");
}

#[test]
fn well_formed_waivers_suppress_findings_in_both_forms() {
    let f = scan("ok/waivers.rs", "crates/core/src/waivers_fixture.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn waivers_only_cover_their_own_rule() {
    // A lock-order waiver on a line with a determinism violation must
    // not hide the latter.
    let src = "pub fn f() {\n    \
               let t = Instant::now(); // xlint: allow(lock-order) -- wrong rule on purpose\n}\n";
    let sf = SourceFile::parse("crates/core/src/cross.rs", src).expect("parses");
    let f = check_file(&sf, &Config::workspace());
    assert_eq!(count(&f, "determinism"), 1, "{f:#?}");
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
fn determinism_sees_through_hash_aliases() {
    // `use HashMap as BTreeMap`: one `.iter()`. `type` aliases: the
    // `for` over a field and `.keys()` on an alias of the alias.
    for (fixture, expected) in [("bad/hash_alias_use.rs", 1), ("bad/hash_alias_type.rs", 2)] {
        let f = scan(fixture, "crates/telemetry/src/alias_fixture.rs");
        assert_eq!(count(&f, "determinism"), expected, "{fixture}: {f:#?}");
    }
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
    let f = scan_alone("bad/lockorder.rs");
    // One cycle (forward locks a→b, backward locks b then a via
    // grab_a's summary) and one guard held across pump.
    assert_eq!(count(&f, "lock-order"), 2, "{f:#?}");
    assert!(
        f.iter().any(|x| x.message.contains("lock-order cycle")),
        "{f:#?}"
    );
    assert!(f.iter().any(|x| x.message.contains("`pump(..)`")), "{f:#?}");
}

#[test]
fn lock_order_passes_consistent_order_and_dropped_guards() {
    let f = scan_alone("ok/lockorder.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn lock_order_fires_on_guard_held_across_dispatch() {
    let f = scan_alone("bad/locks.rs");
    // The third guard is bound right after a loop's block, which ends
    // its statement without a `;`.
    assert_eq!(count(&f, "lock-order"), 3, "{f:#?}");
    assert!(
        f.iter().any(|x| x.message.contains("`execute_query(..)`")),
        "{f:#?}"
    );
    assert!(
        f.iter().any(|x| x.message.contains("`poll_now(..)`")),
        "{f:#?}"
    );
    assert!(
        f.iter().any(|x| x.message.contains("`dispatch(..)`")),
        "{f:#?}"
    );
}

#[test]
fn lock_order_passes_drop_before_dispatch_and_temporaries() {
    let f = scan_alone("ok/locks.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn unbalanced_fixture_fails_to_parse() {
    let err = SourceFile::parse("bad/parse.rs", &fixture("bad/parse.rs"));
    assert!(err.is_err(), "unbalanced delimiters must not parse");
}
