//! Grid-level continuous queries: one subscription that watches every
//! site.
//!
//! A [`GridSubscription`] partitions a [`SubscribeSpec`]'s sources by
//! owning gateway exactly like the query fan-out does: the local share
//! becomes an ordinary local subscription, and each remote share is
//! registered on its owning gateway over the wire (`Subscribe`). Polling
//! drains the local buffer plus each remote buffer (`PollDeltas`) and
//! merges the batches deterministically — by emit time, then origin
//! label, then sequence number — so a two-site grid produces the same
//! delta order on every run under virtual time.
//!
//! The model is pull-based on purpose: remote gateways evaluate standing
//! queries on *their* pump cadence and buffer emissions under *their*
//! backpressure policy, so a slow or disconnected consumer costs the
//! producer a bounded buffer, never an unbounded queue.

use crate::gma::ProducerEntry;
use crate::layer::GlobalLayer;
use crate::protocol::{GlobalRequest, GlobalResponse, WireFrame, WireIdentity};
use gridrm_core::security::Identity;
use gridrm_core::stream::{StreamDelta, SubscribeSpec, SubscriptionId};
use gridrm_dbc::{DbcResult, JdbcUrl, SqlError};
use gridrm_telemetry::{CostVector, IntrusionCause};
use std::collections::BTreeMap;

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

        // ---- plan: partition sources by owning gateway (same idiom as
        // the query fan-out) ----
        let mut local: Vec<String> = Vec::new();
        let mut remote: BTreeMap<String, (ProducerEntry, Vec<String>)> = BTreeMap::new();
        for source in &spec.request.sources {
            let owner = JdbcUrl::parse(source)
                .ok()
                .and_then(|u| self.directory.lookup(&u));
            match owner {
                Some(entry) if entry.gateway != my_name => {
                    remote
                        .entry(entry.gateway.clone())
                        .or_insert_with(|| (entry, Vec::new()))
                        .1
                        .push(source.clone());
                }
                _ => local.push(source.clone()),
            }
        }

        let identity = spec
            .request
            .identity
            .clone()
            .unwrap_or_else(Identity::anonymous);
        let mut grid = GridSubscription {
            local: None,
            remotes: Vec::new(),
        };
        if !local.is_empty() {
            let mut local_spec = spec.clone();
            local_spec.request.sources = local;
            grid.local = Some(self.gateway.subscribe(&local_spec)?);
        }
        for (name, (entry, sources)) in remote {
            let wire = GlobalRequest::Subscribe {
                from_gateway: my_name.clone(),
                identity: WireIdentity::from(&identity),
                sources,
                sql: spec.request.sql().to_owned(),
                every_ms: spec.every_ms,
                buffer: spec.buffer,
                backpressure: spec.backpressure,
            };
            self.stats.remote_queries_out.inc();
            let frame = WireFrame::encode(&wire);
            let mut cost = CostVector {
                msgs_out: 1,
                bytes_out: frame.len(),
                ..CostVector::default()
            };
            let answer = self
                .transport
                .send_frame(&self.gma_address, &entry.gma_address, &frame)
                .map_err(|e| SqlError::Connection(format!("{name}: {e}")))
                .and_then(|(bytes, _)| {
                    cost.msgs_in = 1;
                    cost.bytes_in = bytes.len() as u64;
                    WireFrame::decode::<GlobalResponse>(&bytes).map(|(r, _)| r)
                });
            let costs = self.gateway.telemetry().costs();
            costs.count(&cost);
            costs.intrude(&entry.site, IntrusionCause::Subscription, &cost);
            match answer {
                Ok(GlobalResponse::Subscribed { subscription }) => {
                    grid.remotes.push(RemoteSubscription {
                        gateway: name,
                        gma_address: entry.gma_address,
                        subscription,
                        site: entry.site,
                    });
                }
                Ok(GlobalResponse::Error { message }) => {
                    self.unsubscribe(&grid);
                    return Err(SqlError::Driver(format!("{name}: {message}")));
                }
                Ok(other) => {
                    self.unsubscribe(&grid);
                    return Err(SqlError::Driver(format!(
                        "{name}: unexpected subscribe response: {other:?}"
                    )));
                }
                Err(e) => {
                    self.unsubscribe(&grid);
                    return Err(e);
                }
            }
        }
        Ok(grid)
    }

    /// Drain up to `max` pending deltas *per share* (0 = all pending)
    /// and merge them into one deterministic stream: emit time, then
    /// origin label, then sequence number. Unreachable remotes
    /// contribute nothing this round; their deltas stay buffered under
    /// the producer's backpressure policy until the next poll.
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
            let frame = WireFrame::encode(&wire);
            let mut cost = CostVector {
                msgs_out: 1,
                bytes_out: frame.len(),
                ..CostVector::default()
            };
            let answer = self
                .transport
                .send_frame(&self.gma_address, &remote.gma_address, &frame);
            if let Ok((bytes, _)) = &answer {
                cost.msgs_in = 1;
                cost.bytes_in = bytes.len() as u64;
            }
            let costs = self.gateway.telemetry().costs();
            costs.count(&cost);
            costs.intrude(&remote.site, IntrusionCause::Subscription, &cost);
            let Ok((bytes, _)) = answer else {
                continue;
            };
            if let Ok((GlobalResponse::Deltas { deltas }, _)) = WireFrame::decode(&bytes) {
                for delta in &deltas {
                    out.push(delta.to_delta()?);
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
            let frame = WireFrame::encode(&wire);
            let mut cost = CostVector {
                msgs_out: 1,
                bytes_out: frame.len(),
                ..CostVector::default()
            };
            if let Ok((bytes, _)) =
                self.transport
                    .send_frame(&self.gma_address, &remote.gma_address, &frame)
            {
                cost.msgs_in = 1;
                cost.bytes_in = bytes.len() as u64;
                if matches!(
                    WireFrame::decode::<GlobalResponse>(&bytes).map(|(r, _)| r),
                    Ok(GlobalResponse::Unsubscribed { existed: true })
                ) {
                    cancelled += 1;
                }
            }
            let costs = self.gateway.telemetry().costs();
            costs.count(&cost);
            costs.intrude(&remote.site, IntrusionCause::Subscription, &cost);
        }
        cancelled
    }
}
