//! The Global layer attachment: per-gateway GMA endpoint, remote query
//! routing, and inter-gateway event propagation.

use crate::gma::{GmaDirectory, ProducerEntry};
use crate::protocol::{GlobalRequest, GlobalResponse, WireDelta, WireFrame, WireRows};
use crate::transport::{FrameService, Transport};
use gridrm_core::acil::{ClientRequest, ClientResponse, QueryExecutor, QueryMode, RequestKind};
use gridrm_core::events::{EventTransmitter, GridRMEvent, Severity};
use gridrm_core::explain::{explain, explain_subscription};
use gridrm_core::health::HealthState;
use gridrm_core::stream::SubscribeSpec;
use gridrm_core::Gateway;
use gridrm_dbc::{DbcResult, JdbcUrl, SqlError};
use gridrm_telemetry::{CostVector, Counter, Labels, Registry, DEFAULT_LATENCY_BUCKETS_MS};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

/// Global-layer counters (experiments E1/E12), registered in the
/// gateway's registry as `gridrm_global_messages_total{kind=…}` and
/// `gridrm_global_segments_total{outcome=…}`. The counts are per
/// gateway: every layer attached to one gateway shares these cells.
#[derive(Debug)]
pub struct GlobalStats {
    /// Remote queries this gateway sent out.
    pub remote_queries_out: Counter,
    /// Remote queries this gateway answered for peers.
    pub remote_queries_in: Counter,
    /// Events forwarded to peers.
    pub events_out: Counter,
    /// Events accepted from peers.
    pub events_in: Counter,
    /// Fan-out segments that answered successfully.
    pub segments_ok: Counter,
    /// Fan-out segments that failed (or were skipped by fail-fast).
    pub segments_error: Counter,
    /// Fan-out segments abandoned because the deadline budget ran out.
    pub segments_deadline_exceeded: Counter,
}

/// Named point-in-time copy of [`GlobalStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalSnapshot {
    /// Remote queries this gateway sent out.
    pub remote_queries_out: u64,
    /// Remote queries this gateway answered for peers.
    pub remote_queries_in: u64,
    /// Events forwarded to peers.
    pub events_out: u64,
    /// Events accepted from peers.
    pub events_in: u64,
    /// Fan-out segments that answered successfully.
    pub segments_ok: u64,
    /// Fan-out segments that failed (or were skipped by fail-fast).
    pub segments_error: u64,
    /// Fan-out segments abandoned because the deadline budget ran out.
    pub segments_deadline_exceeded: u64,
}

impl GlobalStats {
    fn new(registry: &Registry) -> GlobalStats {
        let [remote_queries_out, remote_queries_in, events_out, events_in] = registry.counters(
            "gridrm_global_messages_total",
            "Inter-gateway Global-layer messages by kind and direction",
            "kind",
            ["query_out", "query_in", "event_out", "event_in"],
        );
        let [segments_ok, segments_error, segments_deadline_exceeded] = registry.counters(
            "gridrm_global_segments_total",
            "Global-layer fan-out segments by outcome",
            "outcome",
            ["ok", "error", "deadline_exceeded"],
        );
        GlobalStats {
            remote_queries_out,
            remote_queries_in,
            events_out,
            events_in,
            segments_ok,
            segments_error,
            segments_deadline_exceeded,
        }
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> GlobalSnapshot {
        GlobalSnapshot {
            remote_queries_out: self.remote_queries_out.get(),
            remote_queries_in: self.remote_queries_in.get(),
            events_out: self.events_out.get(),
            events_in: self.events_in.get(),
            segments_ok: self.segments_ok.get(),
            segments_error: self.segments_error.get(),
            segments_deadline_exceeded: self.segments_deadline_exceeded.get(),
        }
    }
}

/// Site-level health rollup: one gateway's per-source health states
/// aggregated into per-state counts plus a worst-state-wins overall
/// verdict, as presented to the rest of the Grid (Fig 1's site view).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteHealthRollup {
    /// The Grid site.
    pub site: String,
    /// The reporting gateway.
    pub gateway: String,
    /// Worst-state-wins verdict: any `Down` source makes the site
    /// `Down`, else any `Degraded` makes it `Degraded`, else any `Up`
    /// makes it `Up`; a site with no (or only untested) sources is
    /// `Unknown`.
    pub overall: HealthState,
    /// Sources currently `Up`.
    pub up: usize,
    /// Sources currently `Degraded`.
    pub degraded: usize,
    /// Sources currently `Down`.
    pub down: usize,
    /// Sources never yet observed.
    pub unknown: usize,
}

impl SiteHealthRollup {
    /// Total tracked sources.
    pub fn sources(&self) -> usize {
        self.up + self.degraded + self.down + self.unknown
    }

    /// Build a rollup from per-state counts (worst state wins).
    pub fn from_counts(
        site: &str,
        gateway: &str,
        counts: [(HealthState, usize); 4],
    ) -> SiteHealthRollup {
        let count = |want: HealthState| {
            counts
                .iter()
                .find(|(s, _)| *s == want)
                .map(|(_, n)| *n)
                .unwrap_or(0)
        };
        let (up, degraded, down, unknown) = (
            count(HealthState::Up),
            count(HealthState::Degraded),
            count(HealthState::Down),
            count(HealthState::Unknown),
        );
        let overall = if down > 0 {
            HealthState::Down
        } else if degraded > 0 {
            HealthState::Degraded
        } else if up > 0 {
            HealthState::Up
        } else {
            HealthState::Unknown
        };
        SiteHealthRollup {
            site: site.to_owned(),
            gateway: gateway.to_owned(),
            overall,
            up,
            degraded,
            down,
            unknown,
        }
    }
}

/// Site-level SLO rollup: one gateway's declared SLOs aggregated into
/// counts plus the worst observed burn, presented to the rest of the
/// Grid next to [`SiteHealthRollup`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteSloRollup {
    /// The Grid site.
    pub site: String,
    /// The reporting gateway.
    pub gateway: String,
    /// Declared SLOs.
    pub slos: usize,
    /// SLOs whose burn-rate alert is currently firing.
    pub firing: usize,
    /// Names of the firing SLOs, sorted.
    pub firing_names: Vec<String>,
    /// Highest slow-window burn rate across all SLOs (0 when none).
    pub worst_burn_slow: f64,
    /// Lowest remaining error budget across all SLOs (1 when none).
    pub min_error_budget: f64,
}

impl SiteSloRollup {
    /// True when every declared SLO is within budget.
    pub fn healthy(&self) -> bool {
        self.firing == 0
    }
}

/// A gateway's Global-layer attachment.
pub struct GlobalLayer {
    pub(crate) gateway: Arc<Gateway>,
    directory: Arc<GmaDirectory>,
    transport: Arc<dyn Transport>,
    gma_address: String,
    pub(crate) stats: GlobalStats,
    /// Fan-out dispatch mode: `true` issues segments concurrently in
    /// virtual time, `false` replays the historical one-at-a-time walk.
    parallel: AtomicBool,
    this: Weak<GlobalLayer>,
}

impl GlobalLayer {
    /// Attach the Global layer to `gateway` over the gateway's simnet —
    /// the deterministic default every test and experiment uses.
    /// Registers the gateway as a GMA producer for its site's hosts and
    /// serves the `{address}:gma` endpoint.
    pub fn attach(gateway: Arc<Gateway>, directory: Arc<GmaDirectory>) -> Arc<GlobalLayer> {
        let transport: Arc<dyn Transport> = gateway.network().clone();
        GlobalLayer::attach_via(gateway, directory, transport)
    }

    /// Attach the Global layer to `gateway` over an explicit
    /// [`Transport`] — the simnet for deterministic tests, `gridrm-serve`'s
    /// TCP transport in production, or a recording wrapper for transcript
    /// pinning. Everything else is identical to [`GlobalLayer::attach`].
    pub fn attach_via(
        gateway: Arc<Gateway>,
        directory: Arc<GmaDirectory>,
        transport: Arc<dyn Transport>,
    ) -> Arc<GlobalLayer> {
        let config = gateway.config().clone();
        let gma_address = format!("{}:gma", config.address);
        directory.register(ProducerEntry {
            gateway: config.name.clone(),
            site: config.site.clone(),
            gma_address: gma_address.clone(),
            host_suffixes: vec![format!(".{}", config.site)],
        });
        // Global-layer traffic shows up in the gateway's own registry.
        let stats = GlobalStats::new(gateway.telemetry().registry());
        let layer = Arc::new_cyclic(|this: &Weak<GlobalLayer>| GlobalLayer {
            gateway,
            directory,
            transport: transport.clone(),
            gma_address: gma_address.clone(),
            stats,
            parallel: AtomicBool::new(config.fanout_parallel),
            this: this.clone(),
        });
        transport.serve(&gma_address, layer.wire_service());
        layer
    }

    /// The transport frames travel over (simnet in tests, TCP in
    /// production).
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// This layer's wire endpoint as a shareable [`FrameService`] — the
    /// same handler [`GlobalLayer::attach_via`] registers on the
    /// transport. A second transport (e.g. `gridrm-serve`'s TCP server
    /// fronting a simnet-attached gateway) dispatches into the identical
    /// decode → execute → encode → cost-charge path; the service holds
    /// the layer weakly, so a shut-down gateway answers with a wire
    /// error instead of keeping the world alive.
    pub fn wire_service(&self) -> Arc<dyn FrameService> {
        let weak = self.this.clone();
        Arc::new(move |from: &str, req: &[u8]| match weak.upgrade() {
            Some(layer) => layer.handle_wire(from, req),
            None => WireFrame::encode(&GlobalResponse::Error {
                message: "gateway shut down".into(),
            })
            .into_bytes(),
        })
    }

    /// The wrapped gateway.
    pub fn gateway(&self) -> &Arc<Gateway> {
        &self.gateway
    }

    /// The directory in use.
    pub fn directory(&self) -> &Arc<GmaDirectory> {
        &self.directory
    }

    /// This layer's GMA endpoint address.
    pub fn gma_address(&self) -> &str {
        &self.gma_address
    }

    /// Counters.
    pub fn stats(&self) -> &GlobalStats {
        &self.stats
    }

    /// Whether fan-out currently dispatches segments concurrently in
    /// virtual time (`true`, the default) or one gateway at a time.
    pub fn parallel_fanout(&self) -> bool {
        self.parallel.load(Ordering::Relaxed)
    }

    /// Switch between concurrent and sequential segment dispatch at
    /// runtime (the bench A/Bs the two modes on the same grid).
    pub fn set_parallel_fanout(&self, parallel: bool) {
        self.parallel.store(parallel, Ordering::Relaxed);
    }

    fn handle_wire(&self, _from: &str, req: &[u8]) -> Vec<u8> {
        let (request, inbound_bytes) = match WireFrame::decode::<GlobalRequest>(req) {
            Ok(r) => r,
            Err(e) => {
                return WireFrame::encode(&GlobalResponse::Error {
                    message: e.to_string(),
                })
                .into_bytes()
            }
        };
        // What this wire service costs the local site: traffic we
        // *endure*, split by why the peer sent it.
        let cause = request.cause();
        let response = match request {
            GlobalRequest::Ping => GlobalResponse::Pong {
                gateway: self.gateway.config().name.clone(),
            },
            GlobalRequest::Event {
                from_gateway,
                event,
            } => {
                self.stats.events_in.inc();
                // Re-source so the forwarding transmitter never loops it
                // back out.
                let mut event = event;
                event.source = format!("gma:{from_gateway}:{}", event.source);
                self.gateway.events().ingest(event);
                GlobalResponse::EventAccepted
            }
            GlobalRequest::Query {
                identity,
                sources,
                sql,
                max_cache_age_ms,
                trace,
                deadline_ms,
                ..
            } => {
                self.stats.remote_queries_in.inc();
                let mode = match max_cache_age_ms {
                    Some(age) => QueryMode::Cached {
                        max_age_ms: Some(age),
                    },
                    None => QueryMode::RealTime,
                };
                let mut builder = self
                    .gateway
                    .builder(&sql)
                    .source_list(sources)
                    .identity(identity.into_identity())
                    .mode(mode);
                if let Some(deadline) = deadline_ms {
                    builder = builder.deadline_ms(deadline);
                }
                if let Some(ctx) = trace {
                    builder = builder.trace(ctx);
                }
                let request = builder.build();
                let started_ms = self.gateway.telemetry().clock().now_millis();
                match self.gateway.query(&request) {
                    Ok(resp) => {
                        // Ship the spans this gateway recorded for the
                        // caller's trace back with the rows, so the
                        // caller can reassemble the cross-site tree.
                        let spans = match &request.trace {
                            Some(ctx) => self.gateway.telemetry().traces().for_trace(&ctx.trace_id),
                            None => Vec::new(),
                        };
                        let elapsed_ms = self
                            .gateway
                            .telemetry()
                            .clock()
                            .now_millis()
                            .saturating_sub(started_ms);
                        GlobalResponse::Rows {
                            rows: WireRows::from_rowset(&resp.rows),
                            warnings: resp.warnings,
                            served_from_cache: resp.served_from_cache,
                            spans,
                            elapsed_ms,
                            outcomes: resp.outcomes,
                        }
                    }
                    Err(e) => GlobalResponse::Error {
                        message: e.to_string(),
                    },
                }
            }
            GlobalRequest::Subscribe {
                identity,
                sources,
                sql,
                every_ms,
                buffer,
                backpressure,
                ..
            } => {
                self.stats.remote_queries_in.inc();
                let spec = SubscribeSpec {
                    request: ClientRequest::builder(&sql)
                        .source_list(sources)
                        .identity(identity.into_identity())
                        .build(),
                    every_ms,
                    buffer,
                    backpressure,
                };
                match self.gateway.subscribe(&spec) {
                    Ok(id) => GlobalResponse::Subscribed { subscription: id },
                    Err(e) => GlobalResponse::Error {
                        message: e.to_string(),
                    },
                }
            }
            GlobalRequest::PollDeltas { subscription, max } => {
                match self.gateway.poll_deltas(subscription, max) {
                    Ok(deltas) => GlobalResponse::Deltas {
                        deltas: deltas.iter().map(WireDelta::from_delta).collect(),
                    },
                    Err(e) => GlobalResponse::Error {
                        message: e.to_string(),
                    },
                }
            }
            GlobalRequest::Unsubscribe { subscription } => GlobalResponse::Unsubscribed {
                existed: self.gateway.cancel_subscription(subscription),
            },
        };
        let frame = WireFrame::encode(&response);
        let served = CostVector {
            msgs_in: 1,
            msgs_out: 1,
            bytes_in: inbound_bytes,
            bytes_out: frame.len(),
            ..CostVector::default()
        };
        let costs = self.gateway.telemetry().costs();
        costs.count(&served);
        costs.intrude(&self.gateway.config().site, cause, &served);
        frame.into_bytes()
    }

    /// Send one request to a peer's `:gma` endpoint and price it: the
    /// one place gateway-to-gateway traffic is sent, counted in the
    /// ledger and charged as intrusion against the peer's `site`, under
    /// the cause the request's kind names. Returns the decoded answer
    /// (a transport failure is `SqlError::Connection`), the round trip
    /// in µs (0 when nothing came back) and the cost: 1 message and the
    /// frame's bytes out, plus 1 message and the reply's bytes in when
    /// a reply arrived.
    pub(crate) fn exchange(
        &self,
        site: &str,
        gma_address: &str,
        request: &GlobalRequest,
    ) -> (DbcResult<GlobalResponse>, u64, CostVector) {
        let frame = WireFrame::encode(request);
        let mut cost = CostVector {
            msgs_out: 1,
            bytes_out: frame.len(),
            ..CostVector::default()
        };
        let sent = self
            .transport
            .send_frame(&self.gma_address, gma_address, &frame);
        let (answer, rtt_us) = match sent {
            Ok((bytes, rtt_us)) => {
                cost.msgs_in = 1;
                cost.bytes_in = bytes.len() as u64;
                (WireFrame::decode(&bytes).map(|(r, _)| r), rtt_us)
            }
            Err(e) => (Err(SqlError::Connection(e.to_string())), 0),
        };
        let costs = self.gateway.telemetry().costs();
        costs.count(&cost);
        costs.intrude(site, request.cause(), &cost);
        (answer, rtt_us, cost)
    }

    /// Split `sources` by owning gateway: the share this gateway answers
    /// (sources it owns, and any the directory does not know, e.g. a
    /// local store URL), then each remote owner's share in gateway-name
    /// order.
    pub(crate) fn partition(
        &self,
        sources: &[String],
    ) -> (Vec<String>, Vec<(ProducerEntry, Vec<String>)>) {
        let my_name = &self.gateway.config().name;
        let mut local = Vec::new();
        let mut remote: BTreeMap<String, (ProducerEntry, Vec<String>)> = BTreeMap::new();
        for source in sources {
            let owner = JdbcUrl::parse(source)
                .ok()
                .and_then(|u| self.directory.lookup(&u));
            match owner {
                Some(entry) if &entry.gateway != my_name => {
                    remote
                        .entry(entry.gateway.clone())
                        .or_insert_with(|| (entry, Vec::new()))
                        .1
                        .push(source.clone());
                }
                _ => local.push(source.clone()),
            }
        }
        (local, remote.into_values().collect())
    }

    /// Query through the Global layer: local sources are handled by the
    /// local gateway, remote ones are routed to their owning gateways
    /// (Fig 1), and everything is consolidated into one response.
    ///
    /// The whole fan-out runs under one span: the local segment and every
    /// remote segment become children sharing a single `trace_id`, and
    /// `EXPLAIN [ANALYZE] <query>` renders that tree as a result set
    /// instead of the query's rows. `EXPLAIN [ANALYZE] SELECT … EVERY n`
    /// traces one temporary grid subscription instead (the local share's
    /// `subscribe`/`delta` stages plus the grid-wide `deliver`; the wire
    /// `Subscribe` carries no trace context, so remote shares register
    /// untraced) and cancels every share it registered.
    pub fn query(&self, request: &ClientRequest) -> DbcResult<ClientResponse> {
        let telemetry = self.gateway.telemetry();
        match request.kind() {
            RequestKind::Explain { analyze, inner } => {
                explain(telemetry, request, analyze, inner, |traced, _| {
                    self.fan_out(traced)
                })
            }
            RequestKind::ExplainSubscribe { analyze, inner } => explain_subscription(
                telemetry,
                request,
                analyze,
                inner,
                |spec| self.subscribe(spec),
                |sub| {
                    let delivered = self.poll_deltas(&sub, 0).map_or(0, |d| d.len());
                    self.unsubscribe(&sub);
                    delivered
                },
            ),
            // A plain `SELECT … EVERY n` fans out like any query: each
            // owning gateway registers its share and acknowledges it.
            RequestKind::OneShot | RequestKind::Subscribe => self.fan_out(request),
        }
    }

    /// Observe one fan-out segment's end-to-end latency in the per-site
    /// histogram (virtual milliseconds, `site` label).
    pub(crate) fn observe_site_latency(&self, site: &str, elapsed_ms: u64) {
        self.gateway
            .telemetry()
            .registry()
            .histogram(
                "gridrm_site_latency_ms",
                "End-to-end per-site latency of Global-layer query segments",
                Labels::from_pairs(&[("site", site)]),
                DEFAULT_LATENCY_BUCKETS_MS,
            )
            .observe(elapsed_ms as f64);
    }

    /// Forward one event to every *other* registered gateway. Returns how
    /// many peers accepted it.
    pub fn forward_event(&self, event: &GridRMEvent) -> usize {
        let my_name = self.gateway.config().name.clone();
        let mut accepted = 0;
        for peer in self.directory.producers() {
            if peer.gateway == my_name {
                continue;
            }
            let wire = GlobalRequest::Event {
                from_gateway: my_name.clone(),
                event: event.clone(),
            };
            let (answer, ..) = self.exchange(&peer.site, &peer.gma_address, &wire);
            if matches!(answer, Ok(GlobalResponse::EventAccepted)) {
                self.stats.events_out.inc();
                accepted += 1;
            }
        }
        accepted
    }

    /// Register a transmitter on the gateway's Event Manager that forwards
    /// local events at or above `min_severity` to all peer gateways —
    /// "this behaviour allows GridRM to propagate events between Gateways"
    /// (§3.1.5). Events that *arrived* via the Global layer are never
    /// re-forwarded (loop prevention).
    pub fn enable_event_propagation(self: &Arc<Self>, min_severity: Severity) {
        struct Forwarder {
            layer: Weak<GlobalLayer>,
            min_severity: Severity,
        }
        impl EventTransmitter for Forwarder {
            fn name(&self) -> &str {
                "gma-event-forwarder"
            }
            fn transmit(&self, event: &GridRMEvent) -> bool {
                if event.severity < self.min_severity || event.source.starts_with("gma:") {
                    return false;
                }
                match self.layer.upgrade() {
                    Some(layer) => layer.forward_event(event) > 0,
                    None => false,
                }
            }
        }
        self.gateway
            .events()
            .register_transmitter(Arc::new(Forwarder {
                layer: Arc::downgrade(self),
                min_severity,
            }));
    }

    /// Roll this gateway's per-source health up to the site level
    /// (worst state wins) for Grid-wide presentation.
    pub fn site_health(&self) -> SiteHealthRollup {
        let config = self.gateway.config();
        SiteHealthRollup::from_counts(
            &config.site,
            &config.name,
            self.gateway.health().state_counts(),
        )
    }

    /// Roll this gateway's SLO statuses up to the site level for
    /// Grid-wide presentation, next to [`GlobalLayer::site_health`].
    pub fn site_slo(&self) -> SiteSloRollup {
        let config = self.gateway.config();
        let statuses = self.gateway.telemetry().slo().snapshot();
        let mut firing_names: Vec<String> = statuses
            .iter()
            .filter(|s| s.firing)
            .map(|s| s.name.clone())
            .collect();
        firing_names.sort();
        let worst_burn_slow = statuses.iter().map(|s| s.burn_slow).fold(0.0, f64::max);
        let min_error_budget = statuses
            .iter()
            .map(|s| s.error_budget_remaining)
            .fold(1.0, f64::min);
        SiteSloRollup {
            site: config.site.clone(),
            gateway: config.name.clone(),
            slos: statuses.len(),
            firing: firing_names.len(),
            firing_names,
            worst_burn_slow,
            min_error_budget,
        }
    }

    /// Liveness check of a peer gateway.
    pub fn ping(&self, gateway_name: &str) -> bool {
        let Some(entry) = self.directory.by_name(gateway_name) else {
            return false;
        };
        let (answer, ..) = self.exchange(&entry.site, &entry.gma_address, &GlobalRequest::Ping);
        matches!(answer, Ok(GlobalResponse::Pong { .. }))
    }
}

impl QueryExecutor for GlobalLayer {
    fn execute(&self, request: &ClientRequest) -> DbcResult<ClientResponse> {
        self.query(request)
    }

    fn scope(&self) -> String {
        format!("grid:{}", self.gateway.config().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(
        up: usize,
        degraded: usize,
        down: usize,
        unknown: usize,
    ) -> [(HealthState, usize); 4] {
        [
            (HealthState::Up, up),
            (HealthState::Degraded, degraded),
            (HealthState::Down, down),
            (HealthState::Unknown, unknown),
        ]
    }

    #[test]
    fn slo_rollup_healthy_tracks_firing_count() {
        let mut r = SiteSloRollup {
            site: "s".into(),
            gateway: "gw".into(),
            slos: 2,
            firing: 0,
            firing_names: Vec::new(),
            worst_burn_slow: 0.4,
            min_error_budget: 0.8,
        };
        assert!(r.healthy());
        r.firing = 1;
        r.firing_names.push("latency".into());
        assert!(!r.healthy());
    }

    #[test]
    fn rollup_worst_state_wins() {
        let r = SiteHealthRollup::from_counts("s", "gw", counts(3, 1, 1, 0));
        assert_eq!(r.overall, HealthState::Down);
        assert_eq!(r.sources(), 5);
        let r = SiteHealthRollup::from_counts("s", "gw", counts(3, 1, 0, 0));
        assert_eq!(r.overall, HealthState::Degraded);
        let r = SiteHealthRollup::from_counts("s", "gw", counts(3, 0, 0, 2));
        assert_eq!(r.overall, HealthState::Up);
        let r = SiteHealthRollup::from_counts("s", "gw", counts(0, 0, 0, 0));
        assert_eq!(r.overall, HealthState::Unknown);
    }
}
