//! Compiled GLUE plans against the translator they replaced.
//!
//! Before plans, translation searched the driver's mapping for every
//! attribute of every row. That search is kept here as the oracle: over
//! random mappings — attribute names in any ASCII case, several entries
//! naming one attribute, attributes sharing a native key, keys the row
//! lacks, every [`Transform`], values that fail their coercion — and
//! random statements, a plan must give the oracle's rows and NULL
//! counts, reading only the keys the statement needs.

use gridrm_glue::{
    builtin_schema, DriverMapping, FieldMapping, GroupDef, NativeRow, SchemaManager, Transform,
    Translator,
};
use gridrm_sqlparse::SqlValue;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The native keys the kit needed before plans: every mapped key of
/// the attributes `columns` names (all of them for `None`), sorted and
/// distinct.
fn oracle_needed_keys(
    def: &GroupDef,
    mapping: &DriverMapping,
    columns: Option<&[&str]>,
) -> Vec<String> {
    let needed: Vec<&str> = def
        .attributes
        .iter()
        .filter(|a| columns.is_none_or(|cols| cols.iter().any(|c| c.eq_ignore_ascii_case(&a.name))))
        .map(|a| a.name.as_str())
        .collect();
    mapping.native_keys_for(&def.name, &needed)
}

/// The translator before plans, over the row a driver that fetched only
/// the needed keys would have returned: per attribute, the first
/// mapping entry naming it (ASCII case ignored, mapping order), its key
/// looked up in the row, transformed, coerced to the attribute's type.
fn oracle_translate(
    def: &GroupDef,
    mapping: &DriverMapping,
    native: &NativeRow,
    columns: Option<&[&str]>,
) -> (Vec<SqlValue>, usize) {
    let keys = oracle_needed_keys(def, mapping, columns);
    let native: NativeRow = native
        .iter()
        .filter(|(k, _)| keys.contains(k))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    let none = BTreeMap::new();
    let fields = mapping.group(&def.name).unwrap_or(&none);
    let mut nulls = 0usize;
    let row = def
        .attributes
        .iter()
        .map(|attr| {
            let mapped = fields
                .iter()
                .find(|(name, _)| name.eq_ignore_ascii_case(&attr.name))
                .and_then(|(_, fm)| native.get(&fm.native_key).map(|v| fm.transform.apply(v)))
                .unwrap_or(SqlValue::Null);
            let coerced = mapped.coerce(attr.ty).unwrap_or(SqlValue::Null);
            if coerced.is_null() {
                nulls += 1;
            }
            coerced
        })
        .collect();
    (row, nulls)
}

/// `name` in one of four spellings: as it is, lower case, upper case,
/// or not an attribute at all.
fn spell(name: &str, how: u8) -> String {
    match how % 4 {
        0 => name.to_owned(),
        1 => name.to_ascii_lowercase(),
        2 => name.to_ascii_uppercase(),
        _ => format!("{name}Bogus"),
    }
}

/// Native keys come from a small pool, so attributes share them.
const KEYS: usize = 6;

fn key(i: usize) -> String {
    format!("k{}", i % (KEYS + 2))
}

fn arb_transform() -> impl Strategy<Value = Transform> {
    prop_oneof![
        Just(Transform::Identity),
        prop::sample::select(vec![0.5f64, 0.01, 1e20, -3.0])
            .prop_map(|factor| Transform::Scale { factor }),
        (-2.0f64..2.0, -5.0f64..5.0)
            .prop_map(|(scale, offset)| Transform::Affine { scale, offset }),
        Just(Transform::Enum {
            table: [
                ("1".to_owned(), SqlValue::Str("up".into())),
                ("2".to_owned(), SqlValue::Int(7)),
                ("up".to_owned(), SqlValue::Bool(true)),
            ]
            .into_iter()
            .collect(),
        }),
        Just(Transform::Truthy),
    ]
}

/// Native values, with some no GLUE type can take from them: text that
/// is not a number, floats beyond `i64`, NaN.
fn arb_value() -> impl Strategy<Value = SqlValue> {
    prop_oneof![
        Just(SqlValue::Null),
        any::<bool>().prop_map(SqlValue::Bool),
        (-3i64..3).prop_map(SqlValue::Int),
        any::<i64>().prop_map(SqlValue::Int),
        (-1e3f64..1e3).prop_map(SqlValue::Float),
        prop::sample::select(vec![1e19, -1e30, 2.0, f64::NAN]).prop_map(SqlValue::Float),
        prop::sample::select(vec!["1", "2", "up", "node01", "4.5", " 12 ", "1e400"])
            .prop_map(|s| SqlValue::Str(s.to_owned())),
        (0i64..2_000_000).prop_map(SqlValue::Timestamp),
    ]
}

/// One mapping entry: which attribute (and how spelled), which key,
/// which transform.
fn arb_entry() -> impl Strategy<Value = (usize, u8, usize, Transform)> {
    (0usize..64, 0u8..8, 0usize..KEYS, arb_transform())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A plan translates as the per-row search did, on every row and in
    /// the NULL count, for the statement's needed keys and for all.
    #[test]
    fn a_plan_translates_as_the_per_row_search_did(
        group_pick in 0usize..64,
        group_spelling in 0u8..3,
        entries in prop::collection::vec(arb_entry(), 0..14),
        shadow in prop::collection::vec(arb_entry(), 0..4),
        rows in prop::collection::vec(prop::collection::vec((0usize..KEYS + 2, arb_value()), 0..9), 1..4),
        columns in prop::option::of(prop::collection::vec((0usize..64, 0u8..4), 0..6)),
    ) {
        let schema = builtin_schema();
        let def = &schema.groups[group_pick % schema.groups.len()];
        let names: Vec<&str> = def.attributes.iter().map(|a| a.name.as_str()).collect();
        let field = |(attr, how, k, transform): &(usize, u8, usize, Transform)| {
            let name = spell(names[attr % names.len()], *how);
            (name, FieldMapping { native_key: key(*k), transform: transform.clone() })
        };
        let mut mapping = DriverMapping::new("prop-driver");
        mapping.groups.insert(spell(&def.name, group_spelling), entries.iter().map(field).collect());
        // A second spelling of the group, which the first in mapping
        // order hides or not.
        if !shadow.is_empty() {
            mapping.groups.insert(spell(&def.name, group_spelling + 1), shadow.iter().map(field).collect());
        }
        let manager = SchemaManager::new();
        manager.register_mapping(mapping.clone());
        let handle = manager.handle_for("prop-driver");
        let plan = handle.plan.as_deref().unwrap().group(&spell(&def.name, 1)).unwrap();
        prop_assert_eq!(plan.is_mapped(), mapping.group(&def.name).is_some());

        let columns: Option<Vec<String>> = columns.map(|cols| {
            cols.iter().map(|(attr, how)| spell(names[attr % names.len()], *how)).collect()
        });
        let columns: Option<Vec<&str>> = columns.as_ref().map(|c| c.iter().map(String::as_str).collect());
        let needed = plan.needed(columns.as_deref());
        let keys: Vec<&str> = needed.keys().collect();
        prop_assert_eq!(keys, oracle_needed_keys(def, &mapping, columns.as_deref()));

        let natives: Vec<NativeRow> = rows
            .iter()
            .map(|row| row.iter().map(|(k, v)| (key(*k), v.clone())).collect())
            .collect();
        let mut oracle_nulls = 0;
        for native in &natives {
            let (want, want_nulls) = oracle_translate(def, &mapping, native, columns.as_deref());
            oracle_nulls += want_nulls;
            let (got, got_nulls) = plan.translate(native, &needed);
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
            prop_assert_eq!(got_nulls, want_nulls);

            let (all, all_nulls) = Translator::new(&handle).translate(&def.name, native).unwrap();
            let (want, want_nulls) = oracle_translate(def, &mapping, native, None);
            prop_assert_eq!(format!("{all:?}"), format!("{want:?}"));
            prop_assert_eq!(all_nulls, want_nulls);
        }
        let (batch, nulls) = plan.translate_all(&natives, &needed);
        prop_assert_eq!(batch.len(), natives.len());
        prop_assert_eq!(nulls, oracle_nulls);
    }
}

/// The plan's "dropped" text names what the per-row search could never
/// translate: the attributes no mapping entry names in any case.
#[test]
fn the_dropped_text_names_the_unnamed_attributes() {
    let schema = builtin_schema();
    let def = schema.group("Processor").unwrap();
    let mapping = DriverMapping::new("d").with_group(
        "processor",
        [
            ("HOSTNAME", FieldMapping::direct("a")),
            ("load1", FieldMapping::direct("a")),
        ],
    );
    let manager = SchemaManager::new();
    manager.register_mapping(mapping);
    let plan = manager.handle_for("d").plan.unwrap();
    let unnamed: Vec<&str> = def
        .attributes
        .iter()
        .map(|a| a.name.as_str())
        .filter(|a| !["Hostname", "Load1"].contains(a))
        .collect();
    assert_eq!(
        plan.group("Processor").unwrap().dropped(),
        unnamed.join(",")
    );
}
