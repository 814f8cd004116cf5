//! Native → GLUE row translation (the normalisation step, §3.2.3).

use crate::manager::SchemaHandle;
use crate::mapping::FieldMapping;
use crate::schema::GroupDef;
use gridrm_sqlparse::SqlValue;
use std::collections::{BTreeMap, HashMap};

/// A bag of native key/value pairs fetched from a data source — one logical
/// entity's worth (one host, one interface, one host pair, …).
pub type NativeRow = HashMap<String, SqlValue>;

/// Translates native rows into GLUE-ordered rows using a driver's mapping.
///
/// The translator is the seam that makes heterogeneous sources homogeneous:
/// whatever shape the agent returned, the output row has exactly the
/// attributes of the GLUE group, in definition order, with
/// [`SqlValue::Null`] wherever the source has no translatable value.
pub struct Translator<'a> {
    handle: &'a SchemaHandle,
}

impl<'a> Translator<'a> {
    /// Translator over a schema handle (see [`crate::SchemaManager`]).
    pub fn new(handle: &'a SchemaHandle) -> Self {
        Translator { handle }
    }

    /// The group definition for `group`, if the schema knows it.
    pub fn group(&self, group: &str) -> Option<&GroupDef> {
        self.handle.group(group)
    }

    /// The driver's field mappings for `group`, borrowed from the handle;
    /// empty when no mapping is registered or it lacks the group.
    fn fields(&self, group: &str) -> &'a BTreeMap<String, FieldMapping> {
        static NONE: BTreeMap<String, FieldMapping> = BTreeMap::new();
        let mapping = self.handle.mapping.as_deref();
        mapping.and_then(|m| m.group(group)).unwrap_or(&NONE)
    }

    /// Translate one native row into a GLUE row for `group`.
    ///
    /// Returns `None` when the schema has no such group. Attributes the
    /// driver has no mapping for — or whose native key is absent from the
    /// row, or whose transform fails — come back as NULL and are counted in
    /// the second tuple element so drivers can report translation coverage.
    pub fn translate(&self, group: &str, native: &NativeRow) -> Option<(Vec<SqlValue>, usize)> {
        let def = self.handle.group(group)?;
        let fields = self.fields(group);
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
                // Coerce to the declared attribute type where possible; a
                // failed coercion is an untranslatable value → NULL.
                let coerced = mapped.coerce(attr.ty).unwrap_or(SqlValue::Null);
                if coerced.is_null() {
                    nulls += 1;
                }
                coerced
            })
            .collect();
        Some((row, nulls))
    }

    /// The attributes of `group` this driver's mapping cannot translate
    /// at all — "not possible to translate" drops (§3.2.3), as opposed
    /// to values that merely happen to be absent from one native row.
    /// Empty when the schema has no such group.
    pub fn unmapped_attributes(&self, group: &str) -> Vec<String> {
        let Some(def) = self.handle.group(group) else {
            return Vec::new();
        };
        let fields = self.fields(group);
        def.attributes
            .iter()
            .filter(|attr| {
                !fields
                    .iter()
                    .any(|(name, _)| name.eq_ignore_ascii_case(&attr.name))
            })
            .map(|attr| attr.name.clone())
            .collect()
    }

    /// Translate a batch of native rows.
    pub fn translate_all(
        &self,
        group: &str,
        rows: &[NativeRow],
    ) -> Option<(Vec<Vec<SqlValue>>, usize)> {
        let mut out = Vec::with_capacity(rows.len());
        let mut total_nulls = 0;
        for r in rows {
            let (row, nulls) = self.translate(group, r)?;
            total_nulls += nulls;
            out.push(row);
        }
        Some((out, total_nulls))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::SchemaManager;
    use crate::mapping::{DriverMapping, FieldMapping, Transform};

    fn manager_with_snmp_mapping() -> SchemaManager {
        let m = SchemaManager::new();
        m.register_mapping(DriverMapping::new("jdbc-snmp").with_group(
            "Processor",
            [
                ("Hostname", FieldMapping::direct("sysName")),
                ("NCpu", FieldMapping::direct("hrNumCpu")),
                // UCD laLoad is reported in centi-load.
                (
                    "Load1",
                    FieldMapping {
                        native_key: "laLoadInt.1".into(),
                        transform: Transform::Scale { factor: 0.01 },
                    },
                ),
            ],
        ));
        m
    }

    #[test]
    fn translation_orders_and_nulls() {
        let m = manager_with_snmp_mapping();
        let h = m.handle_for("jdbc-snmp");
        let t = Translator::new(&h);
        let mut native = NativeRow::new();
        native.insert("sysName".into(), SqlValue::Str("node01".into()));
        native.insert("hrNumCpu".into(), SqlValue::Int(4));
        native.insert("laLoadInt.1".into(), SqlValue::Int(75));

        let (row, nulls) = t.translate("Processor", &native).unwrap();
        let def = h.group("Processor").unwrap();
        assert_eq!(row.len(), def.attributes.len());
        assert_eq!(
            row[def.attribute_index("Hostname").unwrap()],
            SqlValue::Str("node01".into())
        );
        assert_eq!(row[def.attribute_index("NCpu").unwrap()], SqlValue::Int(4));
        assert_eq!(
            row[def.attribute_index("Load1").unwrap()],
            SqlValue::Float(0.75)
        );
        // Everything unmapped (Model, Vendor, Load5, ...) is NULL.
        assert_eq!(nulls, def.attributes.len() - 3);
        assert_eq!(row[def.attribute_index("Model").unwrap()], SqlValue::Null);
    }

    #[test]
    fn missing_native_key_is_null() {
        let m = manager_with_snmp_mapping();
        let h = m.handle_for("jdbc-snmp");
        let t = Translator::new(&h);
        let native = NativeRow::new(); // agent returned nothing
        let (row, nulls) = t.translate("Processor", &native).unwrap();
        assert!(row.iter().all(SqlValue::is_null));
        assert_eq!(nulls, row.len());
    }

    #[test]
    fn unknown_group_is_none() {
        let m = manager_with_snmp_mapping();
        let h = m.handle_for("jdbc-snmp");
        let t = Translator::new(&h);
        assert!(t.translate("Bogus", &NativeRow::new()).is_none());
    }

    #[test]
    fn type_coercion_to_declared_type() {
        let m = SchemaManager::new();
        m.register_mapping(
            DriverMapping::new("d")
                .with_group("Processor", [("NCpu", FieldMapping::direct("ncpu"))]),
        );
        let h = m.handle_for("d");
        let t = Translator::new(&h);
        let mut native = NativeRow::new();
        // Agent returned a string; GLUE declares NCpu as Int.
        native.insert("ncpu".into(), SqlValue::Str("8".into()));
        let (row, _) = t.translate("Processor", &native).unwrap();
        let def = h.group("Processor").unwrap();
        assert_eq!(row[def.attribute_index("NCpu").unwrap()], SqlValue::Int(8));
    }

    #[test]
    fn failed_coercion_is_null() {
        let m = SchemaManager::new();
        m.register_mapping(
            DriverMapping::new("d")
                .with_group("Processor", [("NCpu", FieldMapping::direct("ncpu"))]),
        );
        let h = m.handle_for("d");
        let t = Translator::new(&h);
        let mut native = NativeRow::new();
        native.insert("ncpu".into(), SqlValue::Str("not-a-number".into()));
        let (row, _) = t.translate("Processor", &native).unwrap();
        let def = h.group("Processor").unwrap();
        assert_eq!(row[def.attribute_index("NCpu").unwrap()], SqlValue::Null);
    }

    #[test]
    fn no_mapping_registered_all_null() {
        let m = SchemaManager::new();
        let h = m.handle_for("unmapped-driver");
        let t = Translator::new(&h);
        let mut native = NativeRow::new();
        native.insert("anything".into(), SqlValue::Int(1));
        let (row, nulls) = t.translate("Host", &native).unwrap();
        assert_eq!(nulls, row.len());
    }

    #[test]
    fn unmapped_attributes_lists_untranslatable_drops() {
        let m = manager_with_snmp_mapping();
        let h = m.handle_for("jdbc-snmp");
        let t = Translator::new(&h);
        let dropped = t.unmapped_attributes("Processor");
        // The mapped trio never appears; everything else does.
        for mapped in ["Hostname", "NCpu", "Load1"] {
            assert!(!dropped.iter().any(|d| d == mapped), "{mapped} is mapped");
        }
        let def = h.group("Processor").unwrap();
        assert_eq!(dropped.len(), def.attributes.len() - 3);
        assert!(t.unmapped_attributes("Bogus").is_empty());
    }

    #[test]
    fn batch_translation() {
        let m = manager_with_snmp_mapping();
        let h = m.handle_for("jdbc-snmp");
        let t = Translator::new(&h);
        let rows: Vec<NativeRow> = (0..3)
            .map(|i| {
                let mut n = NativeRow::new();
                n.insert("sysName".into(), SqlValue::Str(format!("node{i:02}")));
                n
            })
            .collect();
        let (out, _) = t.translate_all("Processor", &rows).unwrap();
        assert_eq!(out.len(), 3);
    }
}
