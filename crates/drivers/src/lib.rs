#![warn(missing_docs)]

//! # gridrm-drivers — the GridRM data-source driver plug-ins
//!
//! "A key element of GridRM is the driver layer for interacting with data
//! sources. The drivers are modular plug-ins that can be installed or
//! removed at runtime" (§3.2). This crate ships the paper's initial driver
//! set — JDBC-SNMP, JDBC-Ganglia, JDBC-NWS, JDBC-NetLogger, JDBC-SCMS —
//! plus a JDBC-GridRM driver over the embedded historical store.
//!
//! Every driver follows the paper's minimal-driver recipe (§3.2.1): the
//! base classes carry the whole JDBC surface and a driver overrides a
//! handful of things. Here that base is [`base`], the driver development
//! kit, which holds the one [`gridrm_dbc::Driver`] / `Connection` /
//! `Statement` implementation, generic over [`base::Source`]:
//!
//! 1. the kit's `Driver` matches the URL sub-protocol and, for wildcard
//!    `jdbc:://…` URLs, runs the source's one-request `probe` — Table 2's
//!    "supports the URL AND can connect" check;
//! 2. its `Connection` "creates a session with the data source and
//!    initialises schema settings for the session" (the GLUE
//!    [`gridrm_glue::SchemaHandle`] is cached at connect time, Fig 5);
//! 3. its `Statement` parses the SQL, re-validates the cached schema,
//!    asks the source to `fetch` native rows, normalises them via the
//!    GLUE mapping, and
//! 4. returns a populated `ResultSet`.
//!
//! So each driver module is a [`base::Source`] — metadata, `probe`,
//! `fetch` and whatever caching suits its protocol — and a type alias
//! (`SnmpDriver = KitDriver<Snmp>`, …). The paper's per-driver GLUE
//! mappings live in [`mappings`].

pub mod base;
pub mod formatters;
pub mod ganglia;
pub mod mappings;
pub mod netlogger;
pub mod nws;
pub mod registry;
pub mod scms;
pub mod snmp;
pub mod sqlstore;
pub mod telemetry;
pub mod xml;

pub use base::{DriverEnv, DriverStats, KitDriver, Source, Target};
pub use formatters::{NetLoggerLineFormatter, SnmpTrapFormatter, UlmLineTransmitter};
pub use ganglia::GangliaDriver;
pub use netlogger::NetLoggerDriver;
pub use nws::NwsDriver;
pub use registry::{install_into_gateway, install_standard_formatters, register_standard_drivers};
pub use scms::ScmsDriver;
pub use snmp::SnmpDriver;
pub use sqlstore::SqlStoreDriver;
pub use telemetry::TelemetryDriver;
