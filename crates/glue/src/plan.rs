//! Compiled translation plans: one driver's GLUE mapping worked out
//! once against one schema (§3.2.3, Fig 5).
//!
//! A [`DriverMapping`] says, per group, which native key and transform
//! satisfy each GLUE attribute, under attribute names matched without
//! regard to ASCII case. A [`GluePlan`] resolves that match once for
//! every attribute of every group of the schema, so translating a row
//! is an indexed read per attribute, not a search of the mapping. The
//! [`SchemaManager`](crate::SchemaManager) keeps one plan per mapped
//! driver and every [`SchemaHandle`](crate::SchemaHandle) cut for that
//! driver shares it; the next schema or mapping change is a new plan,
//! picked up by the handle at Fig 5's per-statement consistency check.

use crate::mapping::{DriverMapping, Transform};
use crate::schema::Schema;
use crate::translate::NativeRow;
use gridrm_sqlparse::{SqlType, SqlValue};
use std::sync::Arc;

/// One driver's mapping compiled against one schema: a [`GroupPlan`]
/// for each group of the schema, in schema order.
#[derive(Debug)]
pub struct GluePlan {
    schema: Arc<Schema>,
    mapping: Arc<DriverMapping>,
    groups: Vec<GroupPlan>,
}

impl GluePlan {
    /// Resolve `mapping` against every group of `schema`.
    pub fn compile(schema: Arc<Schema>, mapping: Arc<DriverMapping>) -> GluePlan {
        let groups = schema
            .groups
            .iter()
            .map(|def| {
                let fields = mapping.group(&def.name);
                let mut keys: Vec<String> = Vec::new();
                let mut dropped: Vec<&str> = Vec::new();
                let mut found = Vec::with_capacity(def.attributes.len());
                for attr in &def.attributes {
                    // The first mapping entry naming the attribute, in
                    // mapping order, whatever its ASCII case.
                    let field = fields.and_then(|fields| {
                        fields
                            .iter()
                            .find(|(name, _)| name.eq_ignore_ascii_case(&attr.name))
                    });
                    match field {
                        Some((_, fm)) => {
                            keys.push(fm.native_key.clone());
                            found.push(Some(fm));
                        }
                        None => {
                            dropped.push(&attr.name);
                            found.push(None);
                        }
                    }
                }
                keys.sort();
                keys.dedup();
                let attrs = def
                    .attributes
                    .iter()
                    .zip(found)
                    .map(|(attr, fm)| AttrPlan {
                        name: attr.name.clone(),
                        ty: attr.ty,
                        field: fm.map(|fm| {
                            // Always found: every mapped key is in `keys`.
                            let key = keys.binary_search(&fm.native_key).unwrap_or_default();
                            (key, fm.transform.clone())
                        }),
                    })
                    .collect();
                GroupPlan {
                    attrs,
                    keys,
                    dropped: if dropped.is_empty() {
                        "none".to_owned()
                    } else {
                        dropped.join(",")
                    },
                    mapped: fields.is_some(),
                }
            })
            .collect();
        GluePlan {
            schema,
            mapping,
            groups,
        }
    }

    /// Was this plan compiled from exactly this schema and mapping? A
    /// plan outlives neither: any change to either is a new `Arc`.
    pub(crate) fn compiled_from(&self, schema: &Arc<Schema>, mapping: &Arc<DriverMapping>) -> bool {
        Arc::ptr_eq(&self.schema, schema) && Arc::ptr_eq(&self.mapping, mapping)
    }

    /// The plan for `group`, found as [`Schema::group`] finds its
    /// definition (the first, without regard to ASCII case).
    pub fn group(&self, group: &str) -> Option<&GroupPlan> {
        let at = self
            .schema
            .groups
            .iter()
            .position(|g| g.name.eq_ignore_ascii_case(group))?;
        self.groups.get(at)
    }
}

/// How one driver's mapping satisfies one GLUE group.
#[derive(Debug)]
pub struct GroupPlan {
    /// Per attribute, in definition order.
    attrs: Vec<AttrPlan>,
    /// The distinct native keys behind the mapped attributes, sorted.
    keys: Vec<String>,
    /// The attributes the mapping cannot translate at all, comma-joined,
    /// or `none`.
    dropped: String,
    /// Does the mapping implement the group at all?
    mapped: bool,
}

/// One attribute of a [`GroupPlan`].
#[derive(Debug)]
struct AttrPlan {
    name: String,
    ty: SqlType,
    /// The index of its native key in [`GroupPlan::keys`] and the
    /// transform from that key's value; `None` when the mapping has no
    /// entry for the attribute.
    field: Option<(usize, Transform)>,
}

impl GroupPlan {
    /// Does the driver's mapping implement this group at all?
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// The attributes the mapping cannot translate at all — the §3.2.3
    /// "not possible to translate" drops — comma-joined in definition
    /// order, or `none`.
    pub fn dropped(&self) -> &str {
        &self.dropped
    }

    /// The native keys behind the attributes named in `columns` (every
    /// attribute when `columns` is `None`), matched without regard to
    /// ASCII case; names that are not attributes need nothing.
    pub fn needed(&self, columns: Option<&[&str]>) -> NeededKeys<'_> {
        let wanted = columns.map(|columns| {
            let mut wanted = vec![false; self.keys.len()];
            for attr in &self.attrs {
                if let Some((key, _)) = attr.field {
                    if columns.iter().any(|c| c.eq_ignore_ascii_case(&attr.name)) {
                        if let Some(w) = wanted.get_mut(key) {
                            *w = true;
                        }
                    }
                }
            }
            wanted
        });
        NeededKeys { plan: self, wanted }
    }

    /// Translate one native row: the group's attributes in definition
    /// order, each read from the row when its native key is `needed`
    /// and NULL otherwise, with the number of NULL cells. A value that
    /// is absent, fails its transform or cannot take the attribute's
    /// type is NULL too (§3.2.3).
    pub fn translate(&self, native: &NativeRow, needed: &NeededKeys<'_>) -> (Vec<SqlValue>, usize) {
        debug_assert!(std::ptr::eq(needed.plan, self), "keys of another group");
        let mut nulls = 0usize;
        let row = self
            .attrs
            .iter()
            .map(|attr| {
                let value = attr
                    .field
                    .as_ref()
                    .filter(|(key, _)| needed.wants(*key))
                    .and_then(|(key, transform)| {
                        let value = native.get(self.keys.get(*key)?)?;
                        transform.apply(value).into_type(attr.ty)
                    })
                    .unwrap_or(SqlValue::Null);
                if value.is_null() {
                    nulls += 1;
                }
                value
            })
            .collect();
        (row, nulls)
    }

    /// [`GroupPlan::translate`] over a batch, with the NULL count across
    /// it.
    pub fn translate_all(
        &self,
        rows: &[NativeRow],
        needed: &NeededKeys<'_>,
    ) -> (Vec<Vec<SqlValue>>, usize) {
        let mut out = Vec::with_capacity(rows.len());
        let mut nulls = 0;
        for native in rows {
            let (row, n) = self.translate(native, needed);
            nulls += n;
            out.push(row);
        }
        (out, nulls)
    }
}

/// The native keys a statement needs from one group: what a
/// fine-grained driver fetches, and the only keys translation reads.
#[derive(Debug)]
pub struct NeededKeys<'p> {
    plan: &'p GroupPlan,
    /// Per key of the plan, whether it is needed; `None` when all are.
    wanted: Option<Vec<bool>>,
}

impl<'p> NeededKeys<'p> {
    fn wants(&self, key: usize) -> bool {
        self.wanted
            .as_ref()
            .is_none_or(|wanted| wanted.get(key).copied().unwrap_or(false))
    }

    /// The needed keys, sorted and distinct.
    pub fn keys(&self) -> impl Iterator<Item = &'p str> + '_ {
        let keys = self.plan.keys.iter().enumerate();
        keys.filter(|(key, _)| self.wants(*key))
            .map(|(_, name)| name.as_str())
    }
}
