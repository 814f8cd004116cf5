#![warn(missing_docs)]

//! # GridRM-rs
//!
//! A from-scratch Rust reproduction of **"GridRM: An Extensible Resource
//! Monitoring System"** (Baker & Smith, 2003): an open, extensible
//! resource-monitoring framework built on the GGF Grid Monitoring
//! Architecture, whose gateways give clients a homogeneous SQL view over
//! heterogeneous monitoring agents through pluggable JDBC-style drivers.
//!
//! This facade crate re-exports the whole workspace. The fastest way in:
//!
//! ```
//! use gridrm::prelude::*;
//! use std::sync::Arc;
//!
//! // A simulated site with the full agent population.
//! let net = Network::new(SimClock::new(), 42);
//! let site = SiteModel::generate(7, &SiteSpec::new("demo", 2, 4));
//! site.advance_to(60_000);
//! deploy_site(&net, site);
//!
//! // A gateway with the standard driver set.
//! let gateway = Gateway::new(GatewayConfig::new("gw", "demo"), net);
//! install_into_gateway(&gateway);
//!
//! // One SQL dialect over any agent (§3.2.3's example query).
//! let resp = gateway
//!     .query(&ClientRequest::realtime(
//!         "jdbc:snmp://node00.demo/public",
//!         "SELECT * FROM Processor",
//!     ))
//!     .unwrap();
//! assert_eq!(resp.rows.len(), 1);
//! ```
//!
//! See `DESIGN.md` for the crate map and `EXPERIMENTS.md` for the
//! paper-reproduction experiment index.

pub use gridrm_agents as agents;
pub use gridrm_core as core;
pub use gridrm_dbc as dbc;
pub use gridrm_drivers as drivers;
pub use gridrm_global as global;
pub use gridrm_glue as glue;
pub use gridrm_resmodel as resmodel;
pub use gridrm_simnet as simnet;
pub use gridrm_sqlparse as sqlparse;
pub use gridrm_store as store;
pub use gridrm_telemetry as telemetry;

/// Everything needed for the common "stand up a monitored Grid" flow.
pub mod prelude {
    pub use gridrm_agents::{deploy_site, SiteAgents};
    pub use gridrm_core::{
        AlertRule, BackpressurePolicy, ClientInterface, ClientRequest, ClientResponse, Comparison,
        DataSourceConfig, FailurePolicy, Gateway, GatewayConfig, GridRMEvent, HealthMonitor,
        HealthState, Identity, ListenerFilter, OutcomeStatus, QueryBuilder, QueryExecutor,
        QueryMode, ResultPolicy, SecurityPolicy, Severity, SourceHealthSnapshot, SourceOutcome,
        StreamDelta, SubscribeSpec, SubscriptionId, SubscriptionSnapshot,
    };
    pub use gridrm_dbc::{JdbcUrl, ResultSet, RowSet, SqlError};
    pub use gridrm_drivers::install_into_gateway;
    pub use gridrm_global::{
        GlobalLayer, GmaDirectory, GridSubscription, SiteHealthRollup, SiteSloRollup,
    };
    pub use gridrm_resmodel::{SiteModel, SiteSpec};
    pub use gridrm_simnet::{Latency, Network, SimClock};
    pub use gridrm_sqlparse::SqlValue;
    pub use gridrm_telemetry::{
        CostLedger, CostVector, GatewayTelemetry, IntrusionCause, IntrusionRow, Journal,
        JournalEntry, JournalSeverity, QueryCostEntry, Registry, SloObjective, SloSpec, SloStatus,
        SlowQueryLog, Stage, TimeSeriesRecorder, TraceRecord,
    };
}
