//! Wire-schema ratchet tests: the committed `xlint-wire-schema.json`
//! must match a fresh extraction exactly, and the diff logic must fail
//! on every incompatible evolution (a field added without
//! `#[serde(default)]` above all) while staying silent on compatible
//! drift.

use gridrm_xlint::schema::{build_schema, diff_schema, WireSchema};
use gridrm_xlint::{parse_workspace, Config, SourceFile};
use std::collections::BTreeSet;
use std::path::Path;

fn fixture(rel: &str) -> String {
    let path = format!("{}/tests/fixtures/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Minimal config whose wire closure is rooted at the fixture `Req`.
fn fixture_config() -> Config {
    Config {
        hot_path_files: Vec::new(),
        hot_path_fns: Vec::new(),
        forbidden_label_keys: Vec::new(),
        stage_vocab: BTreeSet::new(),
        dispatch_methods: BTreeSet::new(),
        driver_dir: "crates/drivers/src/".to_owned(),
        driver_exempt: Vec::new(),
        deterministic_dirs: Vec::new(),
        boundary_methods: BTreeSet::new(),
        wire_roots: vec!["Req".to_owned()],
    }
}

fn schema_of(fixture_rel: &str) -> (WireSchema, gridrm_xlint::schema::SchemaLocs) {
    let sf = SourceFile::parse("crates/global/src/protocol.rs", fixture(fixture_rel))
        .expect("fixture parses");
    build_schema(std::slice::from_ref(&sf), &fixture_config())
}

#[test]
fn committed_wire_schema_matches_fresh_scan() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let config = Config::for_workspace(root).expect("workspace config");
    let (files, _) = parse_workspace(root).expect("parse workspace");
    let (fresh, _locs) = build_schema(&files, &config);
    let text = std::fs::read_to_string(root.join("xlint-wire-schema.json"))
        .expect("xlint-wire-schema.json is committed");
    let committed = WireSchema::from_json(&text).expect("schema parses");
    assert_eq!(
        committed, fresh,
        "xlint-wire-schema.json is stale — run `cargo run -p gridrm-xlint -- \
         --update-wire-schema` and commit the result"
    );
}

#[test]
fn closure_covers_reachable_types_only() {
    let (v1, _) = schema_of("schema/wire_v1.rs");
    let names: Vec<&str> = v1.types.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names, ["Envelope", "Payload", "Req"], "{v1:#?}");
}

#[test]
fn ratchet_fails_on_incompatible_evolution() {
    let (v1, _) = schema_of("schema/wire_v1.rs");
    let (v2, locs) = schema_of("schema/wire_v2_bad.rs");
    let f = diff_schema(&v1, &v2, &locs);
    // peer added without default + cost type change + Bye removed +
    // Ping/Query reordered + Payload slot 1 lost.
    assert_eq!(f.len(), 5, "{f:#?}");
    for needle in [
        "without `#[serde(default)]`",
        "changed type",
        "lost variant",
        "reordered its committed variants",
        "lost wire field",
    ] {
        assert!(
            f.iter().any(|x| x.message.contains(needle)),
            "missing {needle:?} in {f:#?}"
        );
    }
    assert!(f.iter().all(|x| x.rule == "wire-schema"), "{f:#?}");
}

#[test]
fn compatible_drift_is_silent_but_changes_the_fingerprint() {
    let (v1, _) = schema_of("schema/wire_v1.rs");
    let (v2, locs) = schema_of("schema/wire_v2_ok.rs");
    let f = diff_schema(&v1, &v2, &locs);
    assert!(
        f.is_empty(),
        "defaulted fields and new variants are compatible: {f:#?}"
    );
    assert_ne!(v1, v2, "drift must still force an --update-wire-schema");
}

#[test]
fn schema_json_round_trips() {
    let (v1, _) = schema_of("schema/wire_v1.rs");
    let back = WireSchema::from_json(&v1.to_json()).expect("round trip");
    assert_eq!(v1, back);
}
