//! Per-driver mapping tables from GLUE attributes to native data-source keys.
//!
//! "Essentially GLUE provides the values that must be utilised by the data
//! source's native API in order to execute the request" (§3.2.3): a driver
//! looks up the mapping for the queried group, learns which native keys
//! (OIDs, Ganglia metric names, NWS series, …) to fetch, and how to
//! transform the fetched values into the GLUE form.

use gridrm_sqlparse::SqlValue;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A value transform applied when translating native → GLUE.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Transform {
    /// Use the native value as-is (after type coercion).
    Identity,
    /// Multiply a numeric native value by `factor` (unit conversion), e.g.
    /// KB → MB with `factor = 1.0/1024.0`.
    Scale {
        /// Multiplication factor.
        factor: f64,
    },
    /// Divide 100 by the value? No — generic affine transform
    /// `value * scale + offset`, covering centi-units and baselines.
    Affine {
        /// Multiplication factor applied first.
        scale: f64,
        /// Offset added second.
        offset: f64,
    },
    /// Translate enumerated native values through a lookup table; values
    /// missing from the table become NULL (untranslatable, §3.2.3).
    Enum {
        /// Native value (as string) → GLUE value.
        table: BTreeMap<String, SqlValue>,
    },
    /// Interpret a nonzero numeric / "true"-like string as boolean true.
    Truthy,
}

impl Transform {
    /// Apply the transform. Returns [`SqlValue::Null`] when the input is
    /// NULL or cannot be transformed — the paper's "translation was either
    /// not possible or currently not implemented" rule.
    pub fn apply(&self, value: &SqlValue) -> SqlValue {
        if value.is_null() {
            return SqlValue::Null;
        }
        match self {
            Transform::Identity => value.clone(),
            Transform::Scale { factor } => match value.as_f64() {
                Some(x) => SqlValue::Float(round9(x * factor)),
                None => SqlValue::Null,
            },
            Transform::Affine { scale, offset } => match value.as_f64() {
                Some(x) => SqlValue::Float(round9(x * scale + offset)),
                None => SqlValue::Null,
            },
            Transform::Enum { table } => {
                let key = value.to_string();
                table.get(&key).cloned().unwrap_or(SqlValue::Null)
            }
            Transform::Truthy => match value {
                SqlValue::Bool(b) => SqlValue::Bool(*b),
                SqlValue::Int(i) => SqlValue::Bool(*i != 0),
                SqlValue::Float(x) => SqlValue::Bool(*x != 0.0),
                SqlValue::Str(s) => SqlValue::Bool(matches!(
                    s.to_ascii_lowercase().as_str(),
                    "true" | "yes" | "on" | "up" | "1"
                )),
                _ => SqlValue::Null,
            },
        }
    }
}

/// Round to 9 decimal places so unit conversions don't leak binary float
/// noise into displayed values (57 × 0.01 would otherwise print as
/// 0.5700000000000001).
fn round9(x: f64) -> f64 {
    (x * 1e9).round() / 1e9
}

/// How one GLUE attribute is satisfied from the native source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldMapping {
    /// The native key to request (an OID, a metric name, a log field, …).
    pub native_key: String,
    /// Transform applied to the fetched native value.
    pub transform: Transform,
}

impl FieldMapping {
    /// Identity mapping to a native key.
    pub fn direct(native_key: &str) -> Self {
        FieldMapping {
            native_key: native_key.to_owned(),
            transform: Transform::Identity,
        }
    }

    /// Scaled mapping (unit conversion).
    pub fn scaled(native_key: &str, factor: f64) -> Self {
        FieldMapping {
            native_key: native_key.to_owned(),
            transform: Transform::Scale { factor },
        }
    }
}

/// The full GLUE implementation metadata of one driver: for each GLUE group
/// it supports, which attributes it can supply and how.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DriverMapping {
    /// Driver name this mapping belongs to (e.g. `jdbc-snmp`).
    pub driver: String,
    /// group name → (attribute name → field mapping). Attributes absent
    /// from the inner map are reported as NULL by the translator.
    pub groups: BTreeMap<String, BTreeMap<String, FieldMapping>>,
}

impl DriverMapping {
    /// Empty mapping for a driver.
    pub fn new(driver: &str) -> Self {
        DriverMapping {
            driver: driver.to_owned(),
            groups: BTreeMap::new(),
        }
    }

    /// Builder: add a group's attribute mappings.
    pub fn with_group(
        mut self,
        group: &str,
        fields: impl IntoIterator<Item = (&'static str, FieldMapping)>,
    ) -> Self {
        let map = fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        self.groups.insert(group.to_owned(), map);
        self
    }

    /// The attribute mappings for a group (case-insensitive lookup).
    pub fn group(&self, group: &str) -> Option<&BTreeMap<String, FieldMapping>> {
        self.groups
            .iter()
            .find(|(g, _)| g.eq_ignore_ascii_case(group))
            .map(|(_, m)| m)
    }

    /// Native keys needed to satisfy `attributes` of `group`; unknown
    /// attributes are skipped (they will come back NULL).
    pub fn native_keys_for(&self, group: &str, attributes: &[&str]) -> Vec<String> {
        let Some(fields) = self.group(group) else {
            return Vec::new();
        };
        let mut keys: Vec<String> = attributes
            .iter()
            .filter_map(|a| {
                fields
                    .iter()
                    .find(|(name, _)| name.eq_ignore_ascii_case(a))
                    .map(|(_, fm)| fm.native_key.clone())
            })
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transforms() {
        assert_eq!(
            Transform::Scale { factor: 0.5 }.apply(&SqlValue::Int(10)),
            SqlValue::Float(5.0)
        );
        assert_eq!(
            Transform::Affine {
                scale: 0.01,
                offset: 0.0
            }
            .apply(&SqlValue::Int(250)),
            SqlValue::Float(2.5)
        );
        assert_eq!(Transform::Identity.apply(&SqlValue::Null), SqlValue::Null);
        assert_eq!(
            Transform::Scale { factor: 2.0 }.apply(&SqlValue::Str("abc".into())),
            SqlValue::Null
        );
        assert_eq!(
            Transform::Truthy.apply(&SqlValue::Str("Up".into())),
            SqlValue::Bool(true)
        );
        assert_eq!(
            Transform::Truthy.apply(&SqlValue::Int(0)),
            SqlValue::Bool(false)
        );
    }

    #[test]
    fn enum_transform_unknown_is_null() {
        let mut table = BTreeMap::new();
        table.insert("1".to_owned(), SqlValue::Str("up".into()));
        table.insert("2".to_owned(), SqlValue::Str("down".into()));
        let t = Transform::Enum { table };
        assert_eq!(t.apply(&SqlValue::Int(1)), SqlValue::Str("up".into()));
        assert_eq!(t.apply(&SqlValue::Int(7)), SqlValue::Null);
    }

    #[test]
    fn driver_mapping_lookup() {
        let m = DriverMapping::new("jdbc-snmp").with_group(
            "Processor",
            [
                (
                    "Load1",
                    FieldMapping::scaled("1.3.6.1.4.1.2021.10.1.5.1", 0.01),
                ),
                ("NCpu", FieldMapping::direct("hrSystemNumCpu")),
            ],
        );
        assert!(m.group("processor").is_some());
        assert!(m.group("Disk").is_none());
        let keys = m.native_keys_for("Processor", &["Load1", "NCpu", "Missing"]);
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&"hrSystemNumCpu".to_owned()));
    }

    #[test]
    fn native_keys_dedup() {
        let m = DriverMapping::new("d").with_group(
            "G",
            [
                ("A", FieldMapping::direct("same.key")),
                ("B", FieldMapping::direct("same.key")),
            ],
        );
        assert_eq!(m.native_keys_for("G", &["A", "B"]), vec!["same.key"]);
    }
}
