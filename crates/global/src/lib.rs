#![warn(missing_docs)]

//! # gridrm-global — the GridRM Global layer
//!
//! "The Global layer, which provides inter Grid site, or Virtual
//! Organisation, interaction is based on the Global Grid Forum's Grid
//! Monitoring Architecture (GMA)" (§1.1, Fig 1):
//!
//! * gateways **register** with a [`gma::GmaDirectory`] as producers of
//!   monitoring data for the hosts they own;
//! * clients connect to *any* gateway; "requests for remote resource data
//!   are routed through to the Global layer for processing by the gateway
//!   that owns the required data";
//! * events propagate between gateways through the Event Manager's
//!   transmit path (§3.1.5).
//!
//! The [`layer::GlobalLayer`] attaches to a `gridrm-core` gateway: it
//! serves a `{gateway}:gma` RPC endpoint speaking the [`protocol`] wire
//! format, splits client queries into local and remote parts, and
//! consolidates the answers.

mod engine;
pub mod gma;
pub mod layer;
pub mod protocol;
pub mod stream;
pub mod transport;

pub use gma::{GmaDirectory, ProducerEntry};
pub use layer::{GlobalLayer, SiteHealthRollup, SiteSloRollup};
pub use protocol::{GlobalRequest, GlobalResponse, WireDelta, WireFrame, WireIdentity, WireRows};
pub use stream::{GridSubscription, RemoteSubscription};
pub use transport::{
    Answered, FrameService, Pending, RecordingTransport, Transport, TransportError,
    TransportExchange,
};
