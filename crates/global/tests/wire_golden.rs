//! Golden wire corpus: one canonical message per wire shape, pinned
//! byte for byte in `wire_golden.jsonl`. Its first 21 lines were written
//! by the last codec that went through a `Value` tree, so they stand for
//! every peer built before the direct codec; the lines after them carry
//! the enum variants those left out. Line `i` of the file is corpus
//! value `i`; the last line is the pretty-printed persisted admin state,
//! itself JSON-encoded as one string so the file stays one message per
//! line. A codec change that moves a byte fails here before it reaches
//! such a peer.
//!
//! This corpus and `wire_peers.jsonl`, the frames earlier peers sent,
//! are the workspace's wire-compatibility check: every such frame must
//! decode with today's types and keep every key when re-encoded.

use gridrm_core::acil::{OutcomeStatus, SourceOutcome};
use gridrm_core::admin::{AdminInterface, DataSourceConfig};
use gridrm_core::events::{GridRMEvent, Severity};
use gridrm_core::stream::BackpressurePolicy;
use gridrm_core::{FailurePolicy, Gateway, GatewayConfig};
use gridrm_global::{GlobalRequest, GlobalResponse, WireDelta, WireFrame, WireIdentity, WireRows};
use gridrm_simnet::{Network, SimClock};
use gridrm_sqlparse::{SqlType, SqlValue};
use gridrm_telemetry::{CostVector, SloObjective, SloSpec, SpanStage, TraceContext, TraceRecord};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::sync::Arc;

const GOLDEN: &str = include_str!("wire_golden.jsonl");

/// Frames that peers built from earlier commits sent, one per line as
/// `<type> <json>`: every line of the golden corpus, and its minimal
/// form, with every key of a `serde(default)` field left out.
/// Append only: a line this build cannot read is a peer it has dropped.
const PEERS: &str = include_str!("wire_peers.jsonl");

/// A corpus value of any wire type.
trait Golden {
    fn encoded(&self) -> String;
    /// `line` decodes to a value that prints and re-encodes like `self`
    /// (not every wire type is `PartialEq`).
    fn assert_decodes_from(&self, line: &str);
}

impl<T: Serialize + for<'de> Deserialize<'de> + Debug> Golden for T {
    fn encoded(&self) -> String {
        String::from_utf8(WireFrame::encode(self).into_bytes()).expect("wire JSON is UTF-8")
    }

    fn assert_decodes_from(&self, line: &str) {
        let (back, charged) = WireFrame::decode::<T>(line.as_bytes())
            .unwrap_or_else(|e| panic!("golden line does not decode: {e}\n{line}"));
        assert_eq!(charged, line.len() as u64);
        assert_eq!(format!("{back:?}"), format!("{self:?}"));
        assert_eq!(back.encoded(), line);
    }
}

fn identity() -> WireIdentity {
    WireIdentity {
        name: "wire-client".to_owned(),
        roles: vec!["admin".to_owned()],
    }
}

const SOURCE: &str = "jdbc:snmp://node03.serve/public";
const SQL_POINT: &str = "SELECT Hostname, NCpu, Load1 FROM Processor";

/// The `cached_point` request of the benchmark, as `query_frame` builds it.
fn point_query() -> GlobalRequest {
    GlobalRequest::Query {
        from_gateway: "wire-client".to_owned(),
        identity: identity(),
        sources: vec![SOURCE.to_owned()],
        sql: SQL_POINT.to_owned(),
        max_cache_age_ms: Some(60_000),
        trace: None,
        deadline_ms: None,
    }
}

fn point_rows() -> WireRows {
    WireRows {
        columns: vec![
            ("Hostname".to_owned(), SqlType::Str, None),
            ("NCpu".to_owned(), SqlType::Int, None),
            ("Load1".to_owned(), SqlType::Float, None),
        ],
        rows: vec![vec![
            SqlValue::Str("node03".to_owned()),
            SqlValue::Int(4),
            SqlValue::Float(0.42),
        ]],
    }
}

/// Every `SqlValue` shape, the float printing rule's corners and the
/// whole escape set.
fn odd_rows() -> WireRows {
    WireRows {
        columns: vec![
            ("Name".to_owned(), SqlType::Str, Some("".to_owned())),
            ("Value".to_owned(), SqlType::Float, Some("MB/s".to_owned())),
            ("Seen".to_owned(), SqlType::Timestamp, None),
            ("Up".to_owned(), SqlType::Bool, None),
            ("Gap".to_owned(), SqlType::Null, None),
        ],
        rows: vec![
            vec![
                SqlValue::Str("quote\" slash\\ nl\n cr\r tab\t bell\u{7} é 😀 /".to_owned()),
                SqlValue::Float(3.0),
                SqlValue::Timestamp(1_057_000_000_000),
                SqlValue::Bool(true),
                SqlValue::Null,
            ],
            vec![
                SqlValue::Str(String::new()),
                SqlValue::Float(-0.0),
                SqlValue::Timestamp(-1),
                SqlValue::Bool(false),
                SqlValue::Int(i64::MIN),
            ],
            vec![
                SqlValue::Float(1e15),
                SqlValue::Float(1e300),
                SqlValue::Float(f64::MIN_POSITIVE),
                SqlValue::Float(-1.75e-9),
                SqlValue::Float(999_999_999_999_999.0),
            ],
        ],
    }
}

fn span() -> TraceRecord {
    TraceRecord {
        id: 7,
        trace_id: "gw-a:1".to_owned(),
        span_id: "gw-b:7".to_owned(),
        parent_span_id: Some("gw-a:1".to_owned()),
        site: "site-b".to_owned(),
        request: SQL_POINT.to_owned(),
        source: Some(SOURCE.to_owned()),
        started_ms: 1_000,
        finished_ms: 1_012,
        outcome: "ok".to_owned(),
        stages: vec![
            SpanStage {
                stage: "cache_lookup".to_owned(),
                at_ms: 1_000,
                detail: Some("miss".to_owned()),
            },
            SpanStage {
                stage: "execute".to_owned(),
                at_ms: 1_012,
                detail: None,
            },
        ],
        cost: cost(),
    }
}

fn cost() -> CostVector {
    CostVector {
        msgs_out: 1,
        msgs_in: 1,
        bytes_out: 288,
        bytes_in: 280,
        rows_scanned: 3,
        rows_returned: 1,
        fetch_units: 1,
        stage_ms: 12,
    }
}

fn outcome() -> SourceOutcome {
    SourceOutcome::failure(
        SOURCE,
        OutcomeStatus::Timeout,
        250,
        "deadline of 250 ms spent",
    )
}

fn delta() -> WireDelta {
    WireDelta {
        subscription: 9,
        seq: 3,
        emitted_ms: 5_000,
        origin: "local:gw-b".to_owned(),
        rows: point_rows(),
        removed: 2,
        coalesced: 1,
    }
}

fn config() -> GatewayConfig {
    let mut config = GatewayConfig::new("gw-a", "site-a");
    config.slow_query_threshold_ms = 40;
    config.stream_backpressure = BackpressurePolicy::Coalesce;
    config.slos = vec![
        SloSpec::new(
            "fast-queries",
            SloObjective::Latency {
                metric: "gridrm_request_latency_ms".to_owned(),
                threshold_ms: 100.0,
            },
            0.99,
        ),
        SloSpec::new(
            "answers",
            SloObjective::Availability {
                bad_paths: vec!["denied".to_owned()],
            },
            0.999,
        ),
        SloSpec::new("sources-up", SloObjective::SourceHealth, 0.9),
    ];
    config
}

fn corpus() -> Vec<Box<dyn Golden>> {
    vec![
        Box::new(point_query()),
        Box::new(GlobalRequest::Query {
            from_gateway: "gw-a".to_owned(),
            identity: WireIdentity {
                name: "alice".to_owned(),
                roles: Vec::new(),
            },
            sources: vec![
                SOURCE.to_owned(),
                "jdbc:ganglia://node00.serve/serve?ttl=0".to_owned(),
            ],
            sql: "SELECT Hostname FROM Processor WHERE Hostname < 'node08'".to_owned(),
            max_cache_age_ms: None,
            trace: Some(TraceContext {
                trace_id: "gw-a:1".to_owned(),
                parent_span_id: "gw-a:2".to_owned(),
            }),
            deadline_ms: Some(250),
        }),
        Box::new(GlobalRequest::Event {
            from_gateway: "gw-b".to_owned(),
            event: GridRMEvent {
                id: 41,
                at_ms: 1_057_000_000_123,
                source: "node03.serve:snmp".to_owned(),
                hostname: Some("node03".to_owned()),
                severity: Severity::Critical,
                category: "cpu.load".to_owned(),
                message: "Load1 > 8".to_owned(),
                value: Some(9.25),
            },
        }),
        Box::new(GlobalRequest::Ping),
        Box::new(GlobalRequest::Subscribe {
            from_gateway: "gw-a".to_owned(),
            identity: identity(),
            sources: vec![SOURCE.to_owned()],
            sql: "SELECT Hostname, Load1 FROM Processor EVERY 1000".to_owned(),
            every_ms: Some(500),
            buffer: None,
            backpressure: Some(BackpressurePolicy::DropNewest),
        }),
        Box::new(GlobalRequest::PollDeltas {
            subscription: 9,
            max: 16,
        }),
        Box::new(GlobalRequest::Unsubscribe {
            subscription: u64::MAX,
        }),
        Box::new(GlobalResponse::Rows {
            rows: point_rows(),
            warnings: Vec::new(),
            served_from_cache: 1,
            spans: Vec::new(),
            elapsed_ms: 0,
            outcomes: vec![SourceOutcome::success(SOURCE, OutcomeStatus::Cached, 0)],
        }),
        Box::new(GlobalResponse::Rows {
            rows: odd_rows(),
            warnings: vec![format!("{SOURCE}: deadline of 250 ms spent")],
            served_from_cache: 0,
            spans: vec![span()],
            elapsed_ms: 12,
            outcomes: vec![outcome()],
        }),
        Box::new(GlobalResponse::EventAccepted),
        Box::new(GlobalResponse::Pong {
            gateway: "gw-serve".to_owned(),
        }),
        Box::new(GlobalResponse::Subscribed { subscription: 9 }),
        Box::new(GlobalResponse::Deltas {
            deltas: vec![delta()],
        }),
        Box::new(GlobalResponse::Unsubscribed { existed: true }),
        Box::new(GlobalResponse::Error {
            message: "bad global-layer message: unexpected end of input".to_owned(),
        }),
        Box::new(GlobalResponse::Overloaded {
            queue_depth: 64,
            retry_after_ms: 40,
        }),
        Box::new(delta()),
        Box::new(span()),
        Box::new(cost()),
        Box::new(outcome()),
        Box::new(config()),
        Box::new(GlobalResponse::Rows {
            rows: WireRows {
                columns: Vec::new(),
                rows: Vec::new(),
            },
            warnings: Vec::new(),
            served_from_cache: 0,
            spans: Vec::new(),
            elapsed_ms: 3,
            outcomes: vec![
                SourceOutcome::success(SOURCE, OutcomeStatus::Ok, 3),
                SourceOutcome::success(SOURCE, OutcomeStatus::Coalesced, 3),
                SourceOutcome::failure(
                    "jdbc:nws://node05.serve/serve",
                    OutcomeStatus::Error,
                    1,
                    "connection refused",
                ),
                SourceOutcome::failure(
                    "jdbc:scms://node06.serve/serve",
                    OutcomeStatus::Denied,
                    0,
                    "role admin required",
                ),
                SourceOutcome::failure(
                    "jdbc:snmp://node07.remote/public",
                    OutcomeStatus::Deferred,
                    0,
                    "route via the Global layer",
                ),
            ],
        }),
        Box::new(GlobalRequest::Event {
            from_gateway: "gw-b".to_owned(),
            event: GridRMEvent {
                id: 42,
                at_ms: 1_057_000_000_200,
                source: "node04.serve:netlogger".to_owned(),
                hostname: None,
                severity: Severity::Info,
                category: "host.boot".to_owned(),
                message: "node04 up".to_owned(),
                value: None,
            },
        }),
        Box::new(GlobalRequest::Event {
            from_gateway: "gw-b".to_owned(),
            event: GridRMEvent {
                id: 43,
                at_ms: 1_057_000_000_300,
                source: "node04.serve:snmp".to_owned(),
                hostname: Some("node04".to_owned()),
                severity: Severity::Warning,
                category: "memory.free".to_owned(),
                message: "RAMAvailableMB < 64".to_owned(),
                value: Some(48.0),
            },
        }),
        Box::new(GlobalRequest::Subscribe {
            from_gateway: "gw-a".to_owned(),
            identity: identity(),
            sources: vec![SOURCE.to_owned()],
            sql: "SELECT Hostname, Load1 FROM Processor EVERY 1000".to_owned(),
            every_ms: None,
            buffer: Some(8),
            backpressure: Some(BackpressurePolicy::DropOldest),
        }),
        Box::new(GlobalRequest::Subscribe {
            from_gateway: "gw-a".to_owned(),
            identity: identity(),
            sources: vec![SOURCE.to_owned()],
            sql: "SELECT Hostname, Load1 FROM Processor EVERY 1000".to_owned(),
            every_ms: Some(250),
            buffer: None,
            backpressure: Some(BackpressurePolicy::Coalesce),
        }),
    ]
}

fn admin() -> Arc<AdminInterface> {
    let network = Network::new(SimClock::new(), 1);
    Gateway::new(GatewayConfig::new("gw-golden", "golden"), network)
        .admin()
        .clone()
}

#[test]
fn corpus_encodes_to_the_golden_bytes_and_decodes_back() {
    let corpus = corpus();
    let lines: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(lines.len(), corpus.len() + 1, "one line per value + state");
    for (i, (value, line)) in corpus.iter().zip(&lines).enumerate() {
        assert_eq!(value.encoded(), *line, "corpus value {i}");
        value.assert_decodes_from(line);
    }

    let saved = admin();
    saved
        .add_source(DataSourceConfig {
            url: SOURCE.to_owned(),
            label: "node03".to_owned(),
            preferred_drivers: vec!["jdbc-snmp".to_owned(), "jdbc-ganglia".to_owned()],
            policy: Some(FailurePolicy::Retry(2)),
        })
        .unwrap();
    saved
        .add_source(DataSourceConfig::dynamic(
            "jdbc:ganglia://node00.serve/serve",
            "head",
        ))
        .unwrap();
    let pretty = saved.to_json();
    let line = lines[corpus.len()];
    assert_eq!(serde_json::to_string(&pretty).unwrap(), line);
    let text: String = serde_json::from_str(line).unwrap();
    assert_eq!(text, pretty);
    let restored = admin();
    assert_eq!(restored.from_json(&text).unwrap(), 2);
    assert_eq!(restored.to_json(), pretty);
}

fn decode<T: for<'de> Deserialize<'de>>(json: &str) -> T {
    WireFrame::decode::<T>(json.as_bytes())
        .unwrap_or_else(|e| panic!("{e}\n{json}"))
        .0
}

/// What a peer built from another commit may send: `serde(default)`
/// fields absent, fields this build does not know, keys in another
/// order, and a key sent twice (the last one wins).
#[test]
fn older_and_newer_peer_forms_decode() {
    let query: GlobalRequest = decode(
        r#" { "Query" : { "sql":"SELECT 1", "hop_count":[1,{"a":[null,"]}"]}], "sources":[],
            "max_cache_age_ms":null, "sql":"SELECT 2",
            "identity":{"roles":["r"],"realm":{"x":1.5e3},"name":"alice"},
            "from_gateway":"gw-b" } } "#,
    );
    match query {
        GlobalRequest::Query {
            from_gateway,
            identity,
            sources,
            sql,
            max_cache_age_ms,
            trace,
            deadline_ms,
        } => {
            assert_eq!(from_gateway, "gw-b");
            assert_eq!((identity.name.as_str(), identity.roles.len()), ("alice", 1));
            assert!(sources.is_empty());
            assert_eq!(sql, "SELECT 2");
            assert_eq!((max_cache_age_ms, deadline_ms), (None, None));
            assert!(trace.is_none());
        }
        other => panic!("{other:?}"),
    }

    // `max_cache_age_ms` carries no `serde(default)`, yet an `Option`
    // reads an absent key as `None`; a required string does not.
    let json = r#"{"Query":{"from_gateway":"g","identity":{"name":"a","roles":[]},"sources":[],"sql":"SELECT 1"}}"#;
    assert!(matches!(
        decode::<GlobalRequest>(json),
        GlobalRequest::Query {
            max_cache_age_ms: None,
            ..
        }
    ));
    let json = r#"{"Query":{"identity":{"name":"a","roles":[]},"sources":[],"sql":"SELECT 1"}}"#;
    assert!(WireFrame::decode::<GlobalRequest>(json.as_bytes()).is_err());

    let delta: WireDelta = decode(
        r#"{"rows":{"rows":[],"columns":[]},"origin":"local:gw-b","emitted_ms":5,"seq":1,"subscription":1}"#,
    );
    assert_eq!((delta.removed, delta.coalesced), (0, 0));

    let span: TraceRecord = decode(
        r#"{"id":1,"request":"q","source":null,"started_ms":1,"finished_ms":2.0,"outcome":"ok","stages":[],"cost":{"bytes_in":9}}"#,
    );
    assert_eq!(span.trace_id, "");
    assert_eq!(span.finished_ms, 2);
    assert_eq!(
        span.cost,
        CostVector {
            bytes_in: 9,
            ..CostVector::default()
        }
    );

    // A config persisted before health probing, SLOs and streaming
    // existed takes every later field from its `default = "path"`.
    let old: GatewayConfig = decode(
        r#"{"name":"gw","site":"s","address":"gw.s","cache_ttl_ms":1,"history_retention_ms":2,"event_fast_capacity":3,"pool_max_idle":4,"session_ttl_ms":5,"record_history":false}"#,
    );
    let fresh = GatewayConfig::new("gw", "s");
    assert_eq!(old.probe_interval_ms, fresh.probe_interval_ms);
    assert_eq!(old.stream_max_subscribers, fresh.stream_max_subscribers);
    assert_eq!(old.stream_backpressure, BackpressurePolicy::default());
    assert!(old.slos.is_empty() && old.fanout_parallel);

    let slo: SloSpec =
        decode(r#"{"target":0.5,"objective":"latency","threshold_ms":50,"name":"l"}"#);
    assert_eq!(
        slo,
        SloSpec::new(
            "l",
            SloObjective::Latency {
                metric: "gridrm_request_latency_ms".to_owned(),
                threshold_ms: 50.0,
            },
            0.5,
        )
    );

    // A field this build does not know is skipped to the depth a known
    // one is read to: 128 levels, counting the two the message opens.
    let pong = |depth: usize| {
        let (open, close) = ("[".repeat(depth), "]".repeat(depth));
        format!(r#"{{"Pong":{{"extra":{open}{close},"gateway":"g"}}}}"#)
    };
    assert!(matches!(
        decode::<GlobalResponse>(&pong(126)),
        GlobalResponse::Pong { .. }
    ));
    assert!(WireFrame::decode::<GlobalResponse>(pong(127).as_bytes()).is_err());

    assert!(matches!(
        decode::<GlobalResponse>(r#"{"Unsubscribed":{}}"#),
        GlobalResponse::Unsubscribed { existed: false }
    ));
    assert!(matches!(
        decode::<GlobalRequest>(r#""Ping""#),
        GlobalRequest::Ping
    ));
    for unknown in [
        r#""Gossip""#,
        r#"{"Gossip":{"x":1}}"#,
        r#"{"Ping":null}"#,
        "{}",
        "[]",
        "7",
    ] {
        assert!(
            WireFrame::decode::<GlobalRequest>(unknown.as_bytes()).is_err(),
            "{unknown}"
        );
    }
}

/// Every node of `json` by its path from the root (object members by
/// key, array items by index), with the node's text when it is a string.
fn nodes(json: &str) -> BTreeMap<String, Option<String>> {
    fn walk(v: &Value, at: String, out: &mut BTreeMap<String, Option<String>>) {
        match v {
            Value::Object(members) => {
                for (key, v) in members.iter() {
                    walk(v, format!("{at}/{key}"), out);
                }
            }
            Value::Array(items) => {
                for (i, v) in items.iter().enumerate() {
                    walk(v, format!("{at}/{i}"), out);
                }
            }
            _ => {}
        }
        out.insert(at, v.as_str().map(str::to_owned));
    }
    let value: Value = serde_json::from_str(json).unwrap_or_else(|e| panic!("{e}\n{json}"));
    let mut out = BTreeMap::new();
    walk(&value, String::new(), &mut out);
    out
}

/// `json` decoded as `T` with today's types, then encoded again.
fn reencode<T: Golden + for<'de> Deserialize<'de>>(json: &str) -> Result<String, String> {
    let (value, _) = WireFrame::decode::<T>(json.as_bytes()).map_err(|e| e.to_string())?;
    Ok(value.encoded())
}

/// Every frame an earlier peer sent still decodes, so a field added
/// without a default, a default removed, a field retyped or a variant
/// removed fails here; and today's re-encoding keeps every key the
/// frame had, so a field removed (which decoding skips) fails too.
#[test]
fn every_frame_an_earlier_peer_sent_decodes_and_keeps_its_keys() {
    for (n, line) in PEERS.lines().enumerate() {
        let (ty, json) = line.split_once(' ').expect("`<type> <json>`");
        let (sent, again) = match ty {
            "GlobalRequest" => (json.to_owned(), reencode::<GlobalRequest>(json)),
            "GlobalResponse" => (json.to_owned(), reencode::<GlobalResponse>(json)),
            "WireDelta" => (json.to_owned(), reencode::<WireDelta>(json)),
            "TraceRecord" => (json.to_owned(), reencode::<TraceRecord>(json)),
            "CostVector" => (json.to_owned(), reencode::<CostVector>(json)),
            "SourceOutcome" => (json.to_owned(), reencode::<SourceOutcome>(json)),
            "GatewayConfig" => (json.to_owned(), reencode::<GatewayConfig>(json)),
            "AdminState" => {
                let text: String = serde_json::from_str(json).expect("a JSON string");
                let restored = admin();
                let again = restored.from_json(&text).map(|_| restored.to_json());
                (text, again.map_err(|e| e.to_string()))
            }
            other => panic!("peer line {}: unknown type `{other}`", n + 1),
        };
        let again =
            again.unwrap_or_else(|e| panic!("peer line {} no longer decodes: {e}\n{line}", n + 1));
        let kept = nodes(&again);
        let lost: Vec<String> = nodes(&sent)
            .into_keys()
            .filter(|path| !kept.contains_key(path))
            .collect();
        assert!(
            lost.is_empty(),
            "peer line {}: re-encoding drops {lost:?}\n{line}",
            n + 1
        );
    }
    let sent: BTreeSet<&str> = PEERS
        .lines()
        .filter_map(|line| Some(line.split_once(' ')?.1))
        .collect();
    for (i, line) in GOLDEN.lines().enumerate() {
        assert!(
            sent.contains(line),
            "golden line {} is missing from wire_peers.jsonl",
            i + 1
        );
    }
}

/// The names of every variant of `$enum`. The match has no wildcard, so
/// a variant added to the enum does not compile until it is listed
/// here, and then the corpus must carry it.
macro_rules! variants {
    ($enum:ident: $($variant:ident),+ $(,)?) => {{
        let _every_variant_is_listed = |e: &$enum| match e {
            $($enum::$variant { .. } => ()),+
        };
        [$(stringify!($variant)),+]
    }};
}

#[test]
fn every_variant_of_every_wire_enum_is_in_the_corpus() {
    let (mut keys, mut strings) = (BTreeSet::new(), BTreeSet::new());
    for line in GOLDEN.lines() {
        for (path, text) in nodes(line) {
            keys.insert(path.rsplit('/').next().unwrap_or_default().to_owned());
            strings.extend(text);
        }
    }
    // A unit-only enum encodes each variant as a string...
    for name in variants!(OutcomeStatus: Ok, Cached, Coalesced, Timeout, Error, Denied, Deferred)
        .into_iter()
        .chain(variants!(Severity: Info, Warning, Critical))
        .chain(variants!(BackpressurePolicy: DropOldest, DropNewest, Coalesce))
        .chain(variants!(SqlType: Int, Float, Str, Bool, Timestamp, Null))
    {
        assert!(strings.contains(name), "no corpus line carries `{name}`");
    }
    // ...the others as the key over its payload, or as a string without one.
    let requests = variants!(GlobalRequest: Query, Event, Ping, Subscribe, PollDeltas, Unsubscribe);
    let responses = variants!(GlobalResponse: Rows, EventAccepted, Pong, Subscribed, Deltas,
        Unsubscribed, Error, Overloaded);
    for name in requests
        .into_iter()
        .chain(responses)
        .chain(variants!(SqlValue: Null, Bool, Int, Float, Str, Timestamp))
    {
        assert!(
            keys.contains(name) || strings.contains(name),
            "no corpus line carries `{name}`"
        );
    }
}
