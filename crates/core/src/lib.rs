#![warn(missing_docs)]

//! # gridrm-core — the GridRM Gateway Local layer
//!
//! This crate is the paper's primary contribution (§2–§4): a gateway that
//! gives clients a homogeneous SQL view over heterogeneous local data
//! sources through pluggable drivers, with caching, history, events,
//! security and runtime administration. The module map follows Figs 2–4:
//!
//! | Paper component | Module |
//! |---|---|
//! | Abstract Client Interface Layer | [`acil`] |
//! | Coarse/Fine Grained Security Layers | [`security`] |
//! | Request Manager | [`request`] |
//! | Connection Manager + pool | [`connection`] |
//! | GridRM Driver Manager | [`driver_manager`] |
//! | Cache Controller | [`cache`] |
//! | Event Manager (Fig 4) | [`events`] |
//! | Historical data | [`history`] |
//! | Session Management | [`session`] |
//! | Resource alerts (Fig 9 thresholds) | [`alerts`] |
//! | Driver/data-source administration (Figs 6–8) | [`admin`] |
//! | Gateway policy | [`config`] |
//! | Data-source health state machine + probes | [`health`] |
//! | Continuous queries & streaming subscriptions | [`stream`] |
//! | The gateway's own state as `gridrm_*` tables | [`tables`] |
//!
//! The [`gateway::Gateway`] facade wires everything together; the Global
//! layer (`gridrm-global`) stacks GMA routing on top of it.

pub mod acil;
pub mod admin;
pub mod alerts;
pub mod cache;
pub mod config;
pub mod connection;
pub mod driver_manager;
pub mod events;
pub mod explain;
pub mod gateway;
pub mod health;
pub mod history;
pub mod request;
pub mod security;
pub mod session;
pub mod singleflight;
pub mod stream;
pub mod tables;

pub use acil::{
    ClientInterface, ClientRequest, ClientResponse, OutcomeStatus, QueryBuilder, QueryExecutor,
    QueryMode, ResultPolicy, SourceOutcome,
};
pub use admin::{
    render_tree_text, AdminInterface, AdminResponse, AdminStatus, DataSourceConfig, SourceStatus,
    TreeNode,
};
pub use alerts::{AlertEngine, AlertRule, Comparison};
pub use cache::{CacheController, CacheSnapshot};
pub use config::GatewayConfig;
pub use connection::{ConnectionManager, PoolSnapshot};
pub use driver_manager::{FailurePolicy, GridRMDriverManager, ResolutionSnapshot};
pub use events::{EventManager, EventSnapshot, GridRMEvent, ListenerFilter, Severity};
pub use gateway::Gateway;
pub use health::{
    HealthConfig, HealthMonitor, HealthState, HealthTransition, SourceHealthSnapshot,
};
pub use history::HistoryManager;
pub use request::{RequestManager, RequestSnapshot};
pub use security::{CoarseOperation, Decision, Identity, SecurityPolicy};
pub use session::{SessionManager, SessionToken};
pub use singleflight::SingleFlight;
pub use stream::{
    BackpressurePolicy, StreamDelta, StreamManager, SubscribeSpec, SubscriptionId,
    SubscriptionSnapshot,
};
