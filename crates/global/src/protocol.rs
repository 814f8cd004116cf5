//! Wire protocol between gateways (and to the GMA directory): JSON
//! messages over the simulated network.

use gridrm_core::acil::SourceOutcome;
use gridrm_core::events::GridRMEvent;
use gridrm_core::security::Identity;
use gridrm_core::stream::{BackpressurePolicy, StreamDelta};
use gridrm_dbc::{ColumnMeta, DbcResult, ResultSetMetaData, RowSet, SqlError};
use gridrm_sqlparse::{SqlType, SqlValue};
use gridrm_telemetry::{IntrusionCause, TraceContext, TraceRecord};
use serde::{Deserialize, Serialize};

/// Identity as shipped between gateways (the requesting gateway vouches
/// for it; the owning gateway applies *its* policy — §2's deferral).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireIdentity {
    /// Principal name.
    pub name: String,
    /// Roles.
    pub roles: Vec<String>,
}

impl From<&Identity> for WireIdentity {
    fn from(i: &Identity) -> Self {
        WireIdentity {
            name: i.name.clone(),
            roles: i.roles.iter().cloned().collect(),
        }
    }
}

impl WireIdentity {
    /// Back to a core identity.
    pub fn to_identity(&self) -> Identity {
        self.clone().into_identity()
    }

    /// Back to a core identity, its strings moved rather than copied.
    pub fn into_identity(self) -> Identity {
        Identity {
            name: self.name,
            roles: self.roles.into_iter().collect(),
        }
    }
}

/// A result set in wire form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireRows {
    /// Column `(name, type, unit)` triples.
    pub columns: Vec<(String, SqlType, Option<String>)>,
    /// Row data.
    pub rows: Vec<Vec<SqlValue>>,
}

impl WireRows {
    /// Capture a [`RowSet`].
    pub fn from_rowset(rs: &RowSet) -> WireRows {
        WireRows {
            columns: rs
                .meta()
                .columns()
                .iter()
                .map(|c| (c.name.clone(), c.ty, c.unit.clone()))
                .collect(),
            rows: rs.rows().to_vec(),
        }
    }

    /// Rebuild a [`RowSet`].
    pub fn to_rowset(&self) -> DbcResult<RowSet> {
        let meta = ResultSetMetaData::new(
            self.columns
                .iter()
                .map(|(name, ty, unit)| {
                    let mut c = ColumnMeta::new(name.clone(), *ty);
                    if let Some(u) = unit {
                        c = c.with_unit(u.clone());
                    }
                    c
                })
                .collect(),
        );
        RowSet::new(meta, self.rows.clone())
    }
}

/// One continuous-query delta batch in wire form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireDelta {
    /// Subscription id *on the gateway that evaluated the query*.
    pub subscription: u64,
    /// Per-subscriber sequence number of the newest merged emission.
    pub seq: u64,
    /// Virtual emit time on the origin gateway.
    pub emitted_ms: u64,
    /// Scope label of the evaluating gateway (e.g. `local:gw-a`).
    pub origin: String,
    /// The changed rows.
    pub rows: WireRows,
    /// Rows that disappeared since the previous emission (count only;
    /// absent from pre-stream peers).
    #[serde(default)]
    pub removed: usize,
    /// How many buffered emissions were merged into this one by the
    /// `Coalesce` backpressure policy (absent from pre-stream peers).
    #[serde(default)]
    pub coalesced: u32,
}

impl WireDelta {
    /// Capture a core [`StreamDelta`].
    pub fn from_delta(d: &StreamDelta) -> WireDelta {
        WireDelta {
            subscription: d.subscription,
            seq: d.seq,
            emitted_ms: d.emitted_ms,
            origin: d.origin.clone(),
            rows: WireRows::from_rowset(&d.rows),
            removed: d.removed,
            coalesced: d.coalesced,
        }
    }

    /// Rebuild a core [`StreamDelta`].
    pub fn to_delta(&self) -> DbcResult<StreamDelta> {
        Ok(StreamDelta {
            subscription: self.subscription,
            seq: self.seq,
            emitted_ms: self.emitted_ms,
            origin: self.origin.clone(),
            rows: self.rows.to_rowset()?,
            removed: self.removed,
            coalesced: self.coalesced,
        })
    }
}

/// Requests a gateway's `:gma` endpoint accepts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum GlobalRequest {
    /// Execute a query against sources this gateway owns.
    Query {
        /// Requesting gateway (for loop detection / auditing).
        from_gateway: String,
        /// Vouched client identity.
        identity: WireIdentity,
        /// Data-source URLs (all owned by the receiving gateway).
        sources: Vec<String>,
        /// SQL text.
        sql: String,
        /// Serve from the receiving gateway's cache when ≤ this age.
        max_cache_age_ms: Option<u64>,
        /// Trace context of the originating query, so remote spans join
        /// the caller's trace (absent from pre-span peers).
        #[serde(default)]
        trace: Option<TraceContext>,
        /// Remaining deadline budget (virtual ms) the originator grants
        /// this segment; the receiving gateway enforces it against its
        /// own sources (absent from pre-deadline peers = unlimited).
        #[serde(default)]
        deadline_ms: Option<u64>,
    },
    /// Deliver an event produced at another site.
    Event {
        /// Originating gateway.
        from_gateway: String,
        /// The normalised event.
        event: GridRMEvent,
    },
    /// Liveness probe.
    Ping,
    /// Register a continuous-query subscription on sources this gateway
    /// owns (the grid-level share of a `SELECT … EVERY n`).
    Subscribe {
        /// Requesting gateway.
        from_gateway: String,
        /// Vouched client identity.
        identity: WireIdentity,
        /// Data-source URLs (all owned by the receiving gateway).
        sources: Vec<String>,
        /// SQL text, including any `EVERY` clause.
        sql: String,
        /// Explicit cadence override (virtual ms); when absent the
        /// receiving gateway uses the SQL's `EVERY` clause.
        #[serde(default)]
        every_ms: Option<u64>,
        /// Per-subscriber buffer capacity override.
        #[serde(default)]
        buffer: Option<usize>,
        /// Backpressure policy override.
        #[serde(default)]
        backpressure: Option<BackpressurePolicy>,
    },
    /// Drain pending deltas from a subscription registered here.
    PollDeltas {
        /// Subscription id returned by `Subscribed`.
        subscription: u64,
        /// Maximum deltas to drain (0 = all pending).
        #[serde(default)]
        max: usize,
    },
    /// Cancel a subscription registered here.
    Unsubscribe {
        /// Subscription id returned by `Subscribed`.
        subscription: u64,
    },
}

impl GlobalRequest {
    /// Why this message intrudes on the site that answers it: the
    /// sender charges the peer's site under this cause, the receiver
    /// its own.
    pub(crate) fn cause(&self) -> IntrusionCause {
        match self {
            GlobalRequest::Query { .. } => IntrusionCause::Query,
            GlobalRequest::Ping => IntrusionCause::Probe,
            GlobalRequest::Subscribe { .. }
            | GlobalRequest::PollDeltas { .. }
            | GlobalRequest::Unsubscribe { .. } => IntrusionCause::Subscription,
            GlobalRequest::Event { .. } => IntrusionCause::Gossip,
        }
    }
}

/// Responses from a gateway's `:gma` endpoint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum GlobalResponse {
    /// Query answered.
    Rows {
        /// The consolidated result.
        rows: WireRows,
        /// Per-source warnings.
        warnings: Vec<String>,
        /// Sources served from the remote cache.
        served_from_cache: usize,
        /// Spans the remote gateway recorded for this trace, shipped
        /// back so the caller can assemble the full cross-site tree
        /// (empty from pre-span peers).
        #[serde(default)]
        spans: Vec<TraceRecord>,
        /// Virtual milliseconds the remote gateway spent answering, so
        /// the originator can cost the segment (0 from older peers).
        #[serde(default)]
        elapsed_ms: u64,
        /// Structured per-source outcomes from the remote gateway
        /// (empty from pre-outcome peers; the originator synthesises).
        #[serde(default)]
        outcomes: Vec<SourceOutcome>,
    },
    /// Event accepted.
    EventAccepted,
    /// Pong.
    Pong {
        /// Responding gateway name.
        gateway: String,
    },
    /// Subscription registered; poll it with `PollDeltas`.
    Subscribed {
        /// Id of the new subscription on the responding gateway.
        subscription: u64,
    },
    /// Pending deltas drained from a subscription.
    Deltas {
        /// The drained batches, oldest first.
        deltas: Vec<WireDelta>,
    },
    /// Subscription cancel acknowledged.
    Unsubscribed {
        /// Whether the subscription existed.
        #[serde(default)]
        existed: bool,
    },
    /// Something failed.
    Error {
        /// Error description.
        message: String,
    },
    /// The serving layer refused admission: the caller's queue is full
    /// or the scheduler is saturated. Retry after the hinted delay —
    /// the request was **not** executed. (Never produced by the simnet
    /// path, whose virtual time admits everything; older peers decode
    /// it like any unknown-variant error and surface a driver error.)
    Overloaded {
        /// Queue depth observed at rejection time.
        #[serde(default)]
        queue_depth: u64,
        /// Suggested client backoff in wall-clock milliseconds.
        #[serde(default)]
        retry_after_ms: u64,
    },
}

/// An encoded wire message together with its measured size.
///
/// Wire-frame sizes used to be measured ad hoc at each call site (or
/// not at all); this is now the **single source of truth** for the byte
/// counts the cost ledger attributes to queries, subscriptions, probes
/// and gossip. Both directions agree by construction: the sender
/// charges `frame.len()`, the receiver charges the slice length that
/// [`WireFrame::decode`] reports, and they are the same bytes.
#[derive(Debug, Clone)]
pub struct WireFrame {
    bytes: Vec<u8>,
}

impl WireFrame {
    /// Encode a message for the wire, measuring its size. This is the
    /// supported entry point for producing wire bytes: every message a
    /// transport carries passes through here, so the cost ledger sees
    /// every byte.
    pub fn encode<T: Serialize>(msg: &T) -> WireFrame {
        // Most frames (a point query, its reply, a ping) fit without
        // the buffer growing; a wide reply doubles it a few times.
        let mut bytes = Vec::with_capacity(512);
        msg.write_json(&mut bytes);
        // Frames get kept (request plans, transcripts, scheduler
        // queues): hand the slack back instead of holding it per frame.
        bytes.shrink_to_fit();
        WireFrame { bytes }
    }

    /// Decode a message from the wire, reporting the frame size the
    /// ledger should charge inbound. The supported counterpart of
    /// [`WireFrame::encode`].
    pub fn decode<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> DbcResult<(T, u64)> {
        let msg = serde_json::from_slice(bytes)
            .map_err(|e| SqlError::Driver(format!("bad global-layer message: {e}")))?;
        Ok((msg, bytes.len() as u64))
    }

    /// Wrap already-encoded payload bytes (a frame received from a
    /// socket being re-sent verbatim). The bytes are *not* validated;
    /// the receiving side's [`WireFrame::decode`] does that.
    pub fn from_bytes(bytes: Vec<u8>) -> WireFrame {
        WireFrame { bytes }
    }

    /// The frame size in bytes — what the ledger charges.
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// True for a zero-length frame (never produced by [`WireFrame::encode`]).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The encoded payload.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume the frame, yielding the payload for the network.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc<T: Serialize>(msg: &T) -> Vec<u8> {
        WireFrame::encode(msg).into_bytes()
    }

    fn dec<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> DbcResult<T> {
        WireFrame::decode(bytes).map(|(msg, _)| msg)
    }

    #[test]
    fn wire_rows_roundtrip() {
        let rs = RowSet::new(
            ResultSetMetaData::new(vec![
                ColumnMeta::new("Hostname", SqlType::Str).with_unit("".to_owned()),
                ColumnMeta::new("Load1", SqlType::Float),
            ]),
            vec![
                vec![SqlValue::Str("n1".into()), SqlValue::Float(0.5)],
                vec![SqlValue::Str("n2".into()), SqlValue::Null],
            ],
        )
        .unwrap();
        let wire = WireRows::from_rowset(&rs);
        let back = wire.to_rowset().unwrap();
        assert_eq!(back.rows(), rs.rows());
        assert_eq!(back.meta().column_name(1).unwrap(), "Load1");
    }

    #[test]
    fn request_json_roundtrip() {
        let req = GlobalRequest::Query {
            from_gateway: "gw-a".into(),
            identity: WireIdentity {
                name: "alice".into(),
                roles: vec!["monitor".into()],
            },
            sources: vec!["jdbc:snmp://n/p".into()],
            sql: "SELECT * FROM Processor".into(),
            max_cache_age_ms: Some(5_000),
            trace: Some(TraceContext {
                trace_id: "gw-a:1".into(),
                parent_span_id: "gw-a:1".into(),
            }),
            deadline_ms: Some(250),
        };
        let bytes = enc(&req);
        let back: GlobalRequest = dec(&bytes).unwrap();
        match back {
            GlobalRequest::Query { identity, sql, .. } => {
                assert_eq!(identity.name, "alice");
                assert!(sql.contains("Processor"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pre_span_query_json_still_decodes() {
        // A peer built before hierarchical tracing sends no `trace`
        // field and no `spans` field; both default. Peers built before
        // the fan-out engine additionally omit `deadline_ms`,
        // `elapsed_ms` and `outcomes`.
        let json = br#"{"Query":{"from_gateway":"gw-b","identity":{"name":"alice","roles":[]},"sources":[],"sql":"SELECT 1","max_cache_age_ms":null}}"#;
        match dec::<GlobalRequest>(json).unwrap() {
            GlobalRequest::Query {
                trace, deadline_ms, ..
            } => {
                assert!(trace.is_none());
                assert!(deadline_ms.is_none());
            }
            other => panic!("{other:?}"),
        }
        let json =
            br#"{"Rows":{"rows":{"columns":[],"rows":[]},"warnings":[],"served_from_cache":0}}"#;
        match dec::<GlobalResponse>(json).unwrap() {
            GlobalResponse::Rows {
                spans,
                elapsed_ms,
                outcomes,
                ..
            } => {
                assert!(spans.is_empty());
                assert_eq!(elapsed_ms, 0);
                assert!(outcomes.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wire_delta_roundtrip() {
        let rs = RowSet::new(
            ResultSetMetaData::new(vec![ColumnMeta::new("Load1", SqlType::Float)]),
            vec![vec![SqlValue::Float(1.5)]],
        )
        .unwrap();
        let delta = StreamDelta {
            subscription: 7,
            seq: 3,
            emitted_ms: 1_000,
            origin: "local:gw-a".into(),
            rows: rs,
            removed: 2,
            coalesced: 1,
        };
        let wire = WireDelta::from_delta(&delta);
        let back: WireDelta = dec(&enc(&wire)).unwrap();
        let restored = back.to_delta().unwrap();
        assert_eq!(restored.subscription, 7);
        assert_eq!(restored.seq, 3);
        assert_eq!(restored.origin, "local:gw-a");
        assert_eq!(restored.rows.rows(), delta.rows.rows());
        assert_eq!(restored.removed, 2);
        assert_eq!(restored.coalesced, 1);
    }

    #[test]
    fn subscribe_roundtrip_and_minimal_json_decodes() {
        let req = GlobalRequest::Subscribe {
            from_gateway: "gw-a".into(),
            identity: WireIdentity {
                name: "alice".into(),
                roles: vec![],
            },
            sources: vec!["jdbc:snmp://n/p".into()],
            sql: "SELECT * FROM Processor EVERY 500".into(),
            every_ms: None,
            buffer: Some(4),
            backpressure: Some(BackpressurePolicy::Coalesce),
        };
        match dec::<GlobalRequest>(&enc(&req)).unwrap() {
            GlobalRequest::Subscribe {
                sql, backpressure, ..
            } => {
                assert!(sql.contains("EVERY 500"));
                assert!(matches!(backpressure, Some(BackpressurePolicy::Coalesce)));
            }
            other => panic!("{other:?}"),
        }
        // A sender that only knows the required fields still decodes:
        // cadence/buffer/policy all default.
        let json = br#"{"Subscribe":{"from_gateway":"gw-b","identity":{"name":"alice","roles":[]},"sources":["jdbc:snmp://n/p"],"sql":"SELECT 1 EVERY 100"}}"#;
        match dec::<GlobalRequest>(json).unwrap() {
            GlobalRequest::Subscribe {
                every_ms,
                buffer,
                backpressure,
                ..
            } => {
                assert!(every_ms.is_none());
                assert!(buffer.is_none());
                assert!(backpressure.is_none());
            }
            other => panic!("{other:?}"),
        }
        // PollDeltas without `max` drains everything; a bare WireDelta
        // without removed/coalesced defaults both to zero.
        let json = br#"{"PollDeltas":{"subscription":9}}"#;
        match dec::<GlobalRequest>(json).unwrap() {
            GlobalRequest::PollDeltas { subscription, max } => {
                assert_eq!(subscription, 9);
                assert_eq!(max, 0);
            }
            other => panic!("{other:?}"),
        }
        let json = br#"{"Deltas":{"deltas":[{"subscription":1,"seq":1,"emitted_ms":5,"origin":"local:gw-b","rows":{"columns":[],"rows":[]}}]}}"#;
        match dec::<GlobalResponse>(json).unwrap() {
            GlobalResponse::Deltas { deltas } => {
                assert_eq!(deltas.len(), 1);
                assert_eq!(deltas[0].removed, 0);
                assert_eq!(deltas[0].coalesced, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decode_garbage_errors() {
        assert!(WireFrame::decode::<GlobalRequest>(b"not json").is_err());
    }

    #[test]
    fn framed_sizes_agree_in_both_directions() {
        let frame = WireFrame::encode(&GlobalRequest::Ping);
        assert!(!frame.is_empty());
        assert_eq!(frame.len(), frame.bytes().len() as u64);
        // The receiver measures the same bytes the sender charged.
        let (back, inbound) = WireFrame::decode::<GlobalRequest>(frame.bytes()).unwrap();
        assert!(matches!(back, GlobalRequest::Ping));
        assert_eq!(inbound, frame.len());
        // Re-wrapping received bytes is lossless.
        let rewrapped = WireFrame::from_bytes(frame.bytes().to_vec());
        assert_eq!(rewrapped.len(), frame.len());
    }

    #[test]
    fn identity_conversion() {
        let id = Identity::new("bob", &["admin", "monitor"]);
        let wire = WireIdentity::from(&id);
        let back = wire.to_identity();
        assert_eq!(back, id);
    }
}
