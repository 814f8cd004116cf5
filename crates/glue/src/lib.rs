#![warn(missing_docs)]

//! # gridrm-glue — the GLUE naming schema
//!
//! GridRM normalises everything it harvests against the **GLUE schema**
//! (Grid Laboratory Uniform Environment), "minimum, common, conceptual
//! schemas to allow interoperability between Grid implementations for
//! resource monitoring and discovery" (paper §3.1.4). GLUE "logically
//! organises data into groups \[whose\] essence can be directly compared to
//! the tables of a relational database" (§3.2.3) — so `SELECT * FROM
//! Processor` queries the GLUE *Processor* group regardless of whether the
//! data comes from SNMP, Ganglia, NWS, NetLogger or SCMS.
//!
//! This crate provides:
//!
//! * [`schema`] — the built-in group definitions (Processor, MainMemory,
//!   NetworkElement, ComputeElement, …) with typed, unit-annotated
//!   attributes;
//! * [`mapping`] — per-driver mapping tables from GLUE attributes to native
//!   keys (OIDs, Ganglia metric names, …) with value transforms;
//! * [`manager`] — the [`SchemaManager`], the gateway component drivers
//!   consult to learn "metadata describing that driver's GLUE
//!   implementation" (§3.2.3), with the connection-time caching and
//!   consistency check shown in Fig 5;
//! * [`plan`] — each driver's mapping compiled once per schema version
//!   into per-group plans that the manager keeps and its handles share;
//! * [`translate`] — the normalisation step turning native key/value pairs
//!   into homogeneous GLUE rows, with NULL for attributes that are "either
//!   not possible or currently not implemented" to translate.

pub mod manager;
pub mod mapping;
pub mod plan;
pub mod schema;
pub mod translate;

pub use manager::{SchemaHandle, SchemaManager, SchemaStats};
pub use mapping::{DriverMapping, FieldMapping, Transform};
pub use plan::{GluePlan, GroupPlan, NeededKeys};
pub use schema::{builtin_schema, AttributeDef, GroupDef, Schema};
pub use translate::{NativeRow, Translator};
