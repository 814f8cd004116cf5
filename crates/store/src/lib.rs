#![warn(missing_docs)]

//! # gridrm-store — the gateway's internal database
//!
//! The paper stores harvested data for "historical analysis": *"historical
//! data is retrieved from the Gateway's internal database"* (§3.1.1) and
//! incoming events are "recorded for historical analysis" (§3.1.5). This
//! crate is that database — a small, fully in-process relational engine:
//!
//! * typed tables with primary-key enforcement,
//! * `CREATE TABLE` / `DROP TABLE` / `INSERT` / `SELECT` / `UPDATE` /
//!   `DELETE` executed straight from `gridrm-sqlparse` ASTs,
//! * `WHERE` evaluation with SQL three-valued logic, expression
//!   projections, `DISTINCT`, `ORDER BY`, `LIMIT`/`OFFSET`,
//! * whole-table aggregates (`COUNT`/`SUM`/`AVG`/`MIN`/`MAX`),
//! * a time-based retention sweep for bounded history.
//!
//! Results come back as `gridrm-dbc` [`RowSet`]s, so the historical path
//! through the gateway is "String queries in, ResultSets out" exactly like
//! the real-time path.

pub mod database;
pub mod delta;
pub mod exec;
pub mod table;

pub use database::{Database, Store};
pub use delta::{row_fingerprint, DeltaTracker, RowDelta};
pub use exec::{select_in_memory, ExecOutcome};
pub use table::{Relation, StoreError, Table};

pub use gridrm_dbc::RowSet;
