//! Grid-level continuous queries: one subscription that watches every
//! site.
//!
//! A [`GridSubscription`] splits a [`SubscribeSpec`]'s sources by
//! owning gateway with the partition the query fan-out uses: the local
//! share becomes an ordinary local subscription, and each remote share
//! is registered on its owning gateway over the wire (`Subscribe`).
//! Polling drains the local buffer plus each remote buffer
//! (`PollDeltas`) and merges the batches deterministically — by emit
//! time, then origin label, then sequence number — so a two-site grid
//! produces the same delta order on every run under virtual time. Every
//! wire message goes through the layer's one priced exchange, which
//! charges it to the owning site as `subscription` intrusion.
//!
//! The model is pull-based on purpose: remote gateways evaluate standing
//! queries on *their* pump cadence and buffer emissions under *their*
//! backpressure policy, so a slow or disconnected consumer costs the
//! producer a bounded buffer, never an unbounded queue.

use crate::layer::GlobalLayer;
use crate::protocol::{GlobalRequest, GlobalResponse, WireDelta, WireIdentity};
use gridrm_core::stream::{StreamDelta, SubscribeSpec, SubscriptionId};
use gridrm_dbc::{DbcResult, SqlError};
use gridrm_telemetry::{JournalSeverity, KIND_STREAM};

/// One remote share of a grid subscription.
#[derive(Debug, Clone)]
pub struct RemoteSubscription {
    /// The owning gateway's name.
    pub gateway: String,
    /// The owning gateway's GMA endpoint.
    pub gma_address: String,
    /// Subscription id *on that gateway*.
    pub subscription: u64,
    /// The owning gateway's Grid site, so every poll charges its
    /// intrusion against the right site.
    pub site: String,
}

/// A standing query registered across the grid: the local share (when
/// any sources are owned here) plus one wire subscription per remote
/// gateway. Obtain via [`GlobalLayer::subscribe`], drain via
/// [`GlobalLayer::poll_deltas`], release via [`GlobalLayer::unsubscribe`].
#[derive(Debug, Clone)]
pub struct GridSubscription {
    /// Local subscription id, when the query has a local share.
    pub local: Option<SubscriptionId>,
    /// Remote shares, in deterministic gateway-name order.
    pub remotes: Vec<RemoteSubscription>,
}

impl GridSubscription {
    /// How many gateways (local + remote) hold a share.
    pub fn shares(&self) -> usize {
        usize::from(self.local.is_some()) + self.remotes.len()
    }
}

impl GlobalLayer {
    /// Register `spec` as a grid-wide continuous query: sources owned by
    /// this gateway subscribe locally, each remote gateway's share is
    /// registered there over the wire. Partial failures unwind the
    /// shares already registered before the error is returned.
    pub fn subscribe(&self, spec: &SubscribeSpec) -> DbcResult<GridSubscription> {
        let my_name = self.gateway.config().name.clone();
        let (local, remote) = self.partition(&spec.request.sources);
        let now = self.gateway.clock().now_millis();
        let identity = self.gateway.sessions().principal(&spec.request, now)?;
        let mut grid = GridSubscription {
            local: None,
            remotes: Vec::new(),
        };
        if !local.is_empty() {
            let mut local_spec = spec.clone();
            local_spec.request.sources = local;
            grid.local = Some(self.gateway.subscribe(&local_spec)?);
        }
        for (entry, sources) in remote {
            let wire = GlobalRequest::Subscribe {
                from_gateway: my_name.clone(),
                identity: WireIdentity::from(identity.as_ref()),
                sources,
                sql: spec.request.sql().to_owned(),
                every_ms: spec.every_ms,
                buffer: spec.buffer,
                backpressure: spec.backpressure,
            };
            self.stats.remote_queries_out.inc();
            let name = &entry.gateway;
            let error = match self.exchange(&entry.site, &entry.gma_address, &wire).0 {
                Ok(GlobalResponse::Subscribed { subscription }) => {
                    grid.remotes.push(RemoteSubscription {
                        gateway: entry.gateway,
                        gma_address: entry.gma_address,
                        subscription,
                        site: entry.site,
                    });
                    continue;
                }
                Ok(GlobalResponse::Error { message }) => {
                    SqlError::Driver(format!("{name}: {message}"))
                }
                Ok(other) => {
                    SqlError::Driver(format!("{name}: unexpected subscribe response: {other:?}"))
                }
                Err(SqlError::Connection(e)) => SqlError::Connection(format!("{name}: {e}")),
                Err(e) => e,
            };
            self.unsubscribe(&grid);
            return Err(error);
        }
        Ok(grid)
    }

    /// Drain up to `max` pending deltas *per share* (0 = all pending)
    /// and merge them into one deterministic stream: emit time, then
    /// origin label, then sequence number. Unreachable remotes
    /// contribute nothing this round; their deltas stay buffered under
    /// the producer's backpressure policy until the next poll. A remote
    /// batch that does not rebuild (a row as wide as no column list)
    /// contributes nothing either, and is journalled as a `stream`
    /// warning naming its gateway.
    pub fn poll_deltas(&self, sub: &GridSubscription, max: usize) -> DbcResult<Vec<StreamDelta>> {
        let mut out = Vec::new();
        if let Some(id) = sub.local {
            out.extend(self.gateway.poll_deltas(id, max)?);
        }
        for remote in &sub.remotes {
            let wire = GlobalRequest::PollDeltas {
                subscription: remote.subscription,
                max,
            };
            self.stats.remote_queries_out.inc();
            let (answer, ..) = self.exchange(&remote.site, &remote.gma_address, &wire);
            let Ok(GlobalResponse::Deltas { deltas }) = answer else {
                continue;
            };
            match deltas
                .iter()
                .map(WireDelta::to_delta)
                .collect::<DbcResult<Vec<_>>>()
            {
                Ok(batch) => out.extend(batch),
                Err(e) => {
                    let telemetry = self.gateway.telemetry();
                    telemetry.journal().record(
                        telemetry.clock().now_millis(),
                        JournalSeverity::Warning,
                        KIND_STREAM,
                        &remote.gateway,
                        None,
                        Some("deliver"),
                        &format!("dropped a malformed delta batch: {e}"),
                    );
                }
            }
        }
        out.sort_by(|a, b| (a.emitted_ms, &a.origin, a.seq).cmp(&(b.emitted_ms, &b.origin, b.seq)));
        Ok(out)
    }

    /// Cancel every share of a grid subscription. Returns how many
    /// shares acknowledged the cancel.
    pub fn unsubscribe(&self, sub: &GridSubscription) -> usize {
        let mut cancelled = 0;
        if let Some(id) = sub.local {
            if self.gateway.cancel_subscription(id) {
                cancelled += 1;
            }
        }
        for remote in &sub.remotes {
            let wire = GlobalRequest::Unsubscribe {
                subscription: remote.subscription,
            };
            self.stats.remote_queries_out.inc();
            let (answer, ..) = self.exchange(&remote.site, &remote.gma_address, &wire);
            if matches!(answer, Ok(GlobalResponse::Unsubscribed { existed: true })) {
                cancelled += 1;
            }
        }
        cancelled
    }
}
