//! Native → GLUE row translation (the normalisation step, §3.2.3).

use crate::manager::SchemaHandle;
use gridrm_sqlparse::SqlValue;
use std::collections::HashMap;

/// A bag of native key/value pairs fetched from a data source — one logical
/// entity's worth (one host, one interface, one host pair, …).
pub type NativeRow = HashMap<String, SqlValue>;

/// Translates native rows into GLUE-ordered rows using a driver's mapping.
///
/// The translator is the seam that makes heterogeneous sources homogeneous:
/// whatever shape the agent returned, the output row has exactly the
/// attributes of the GLUE group, in definition order, with
/// [`SqlValue::Null`] wherever the source has no translatable value. It
/// reads through the handle's [`GluePlan`](crate::GluePlan).
pub struct Translator<'a> {
    handle: &'a SchemaHandle,
}

impl<'a> Translator<'a> {
    /// Translator over a schema handle (see [`crate::SchemaManager`]).
    pub fn new(handle: &'a SchemaHandle) -> Self {
        Translator { handle }
    }

    /// Translate one native row into a GLUE row for `group`, reading
    /// every attribute the driver's mapping can translate.
    ///
    /// Returns `None` when the schema has no such group. Attributes the
    /// driver has no mapping for — or whose native key is absent from the
    /// row, or whose transform fails — come back as NULL and are counted in
    /// the second tuple element so drivers can report translation coverage.
    pub fn translate(&self, group: &str, native: &NativeRow) -> Option<(Vec<SqlValue>, usize)> {
        let def = self.handle.group(group)?;
        match self.handle.plan.as_deref() {
            Some(plan) => {
                let plan = plan.group(group)?;
                Some(plan.translate(native, &plan.needed(None)))
            }
            None => Some((
                vec![SqlValue::Null; def.attributes.len()],
                def.attributes.len(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::SchemaManager;
    use crate::mapping::{DriverMapping, FieldMapping, Transform};
    use std::sync::Arc;

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
    fn the_plan_lists_untranslatable_drops() {
        let m = manager_with_snmp_mapping();
        let h = m.handle_for("jdbc-snmp");
        let plan = h.plan.as_deref().unwrap();
        let dropped = plan.group("processor").unwrap().dropped();
        // The mapped trio never appears; everything else does, in
        // definition order.
        let def = h.group("Processor").unwrap();
        let unmapped: Vec<&str> = def
            .attributes
            .iter()
            .map(|a| a.name.as_str())
            .filter(|a| !["Hostname", "NCpu", "Load1"].contains(a))
            .collect();
        assert_eq!(dropped, unmapped.join(","));
        assert!(plan.group("Bogus").is_none());
        assert!(!plan.group("Disk").unwrap().is_mapped());
        let mut all_mapped = DriverMapping::new("d");
        let event = m.schema().group("Event").unwrap().attributes.clone();
        let fields = event
            .iter()
            .map(|a| (a.name.clone(), FieldMapping::direct(&a.name)));
        all_mapped.groups.insert("Event".into(), fields.collect());
        m.register_mapping(all_mapped);
        let h = m.handle_for("d");
        let event = h.plan.as_deref().unwrap().group("Event").unwrap();
        assert_eq!(event.dropped(), "none");
    }

    #[test]
    fn only_needed_keys_are_read() {
        let m = manager_with_snmp_mapping();
        let h = m.handle_for("jdbc-snmp");
        let plan = h.plan.as_deref().unwrap().group("Processor").unwrap();
        let def = h.group("Processor").unwrap();
        let mut native = NativeRow::new();
        native.insert("sysName".into(), SqlValue::Str("node01".into()));
        native.insert("hrNumCpu".into(), SqlValue::Int(4));
        native.insert("laLoadInt.1".into(), SqlValue::Int(75));

        let needed = plan.needed(Some(&["LOAD1", "Nonsense"]));
        assert_eq!(needed.keys().collect::<Vec<_>>(), ["laLoadInt.1"]);
        let (row, nulls) = plan.translate(&native, &needed);
        assert_eq!(nulls, def.attributes.len() - 1);
        assert_eq!(
            row[def.attribute_index("Load1").unwrap()],
            SqlValue::Float(0.75)
        );
        assert_eq!(row[def.attribute_index("NCpu").unwrap()], SqlValue::Null);

        let all = plan.needed(None);
        assert_eq!(
            all.keys().collect::<Vec<_>>(),
            ["hrNumCpu", "laLoadInt.1", "sysName"]
        );
        let (rows, nulls) = plan.translate_all(&[native.clone(), native], &all);
        assert_eq!(rows.len(), 2);
        assert_eq!(nulls, 2 * (def.attributes.len() - 3));
    }

    #[test]
    fn handles_share_the_plan_until_the_mapping_changes() {
        let m = manager_with_snmp_mapping();
        let a = m.handle_for("jdbc-snmp");
        let b = m.handle_for("jdbc-snmp");
        let plan = |h: &SchemaHandle| Arc::clone(h.plan.as_ref().unwrap());
        assert!(Arc::ptr_eq(&plan(&a), &plan(&b)));
        // Another driver's mapping bumps the version but not this plan.
        m.register_mapping(DriverMapping::new("other"));
        assert!(Arc::ptr_eq(&plan(&a), &plan(&m.handle_for("jdbc-snmp"))));
        m.register_mapping(DriverMapping::new("jdbc-snmp"));
        let mut c = a.clone();
        m.ensure_current(&mut c, "jdbc-snmp");
        assert!(!Arc::ptr_eq(&plan(&a), &plan(&c)));
        assert!(!c
            .plan
            .as_deref()
            .unwrap()
            .group("Processor")
            .unwrap()
            .is_mapped());
        assert!(m.unregister_mapping("jdbc-snmp"));
        assert!(m.handle_for("jdbc-snmp").plan.is_none());
    }
}
