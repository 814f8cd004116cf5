//! Property tests for the Global-layer wire protocol.

use gridrm_core::acil::{OutcomeStatus, SourceOutcome};
use gridrm_core::events::{GridRMEvent, Severity};
use gridrm_dbc::{ColumnMeta, ResultSetMetaData, RowSet};
use gridrm_global::{GlobalRequest, GlobalResponse, WireDelta, WireFrame, WireIdentity, WireRows};
use gridrm_sqlparse::{SqlType, SqlValue};
use proptest::prelude::*;
use proptest::strategy::ValueTree;
use serde::{Deserialize, Serialize};

fn encode<T: Serialize>(msg: &T) -> Vec<u8> {
    WireFrame::encode(msg).into_bytes()
}

fn decode<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> gridrm_dbc::DbcResult<T> {
    WireFrame::decode(bytes).map(|(msg, _)| msg)
}

fn arb_value() -> impl Strategy<Value = SqlValue> {
    prop_oneof![
        Just(SqlValue::Null),
        any::<bool>().prop_map(SqlValue::Bool),
        any::<i64>().prop_map(SqlValue::Int),
        (-1e12f64..1e12).prop_map(SqlValue::Float),
        "\\PC{0,20}".prop_map(SqlValue::Str),
        (0i64..i64::MAX / 2).prop_map(SqlValue::Timestamp),
    ]
}

/// Text made of what the escape rules single out — controls, `"`, `\\`,
/// multi-byte and astral-plane characters — among printable ASCII.
fn hostile_text() -> impl Strategy<Value = String> {
    let marked = vec![
        '"',
        '\\',
        '/',
        '\0',
        '\u{1}',
        '\u{8}',
        '\t',
        '\n',
        '\r',
        '\u{1f}',
        '\u{7f}',
        'é',
        '\u{2028}',
        '😀',
        '\u{10FFFF}',
    ];
    prop::collection::vec(
        prop_oneof![
            prop::sample::select(marked),
            (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("ASCII")),
        ],
        0..16,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// `arb_value` plus the corners of the number rules.
fn edge_value() -> impl Strategy<Value = SqlValue> {
    let floats = vec![f64::MIN_POSITIVE, 1e300, -0.0, 1e15, -1e15, 0.1, f64::MAX];
    prop_oneof![
        arb_value(),
        hostile_text().prop_map(SqlValue::Str),
        prop::sample::select(floats).prop_map(SqlValue::Float),
        (any::<f64>().prop_filter("finite", |f| f.is_finite())).prop_map(SqlValue::Float),
        prop::sample::select(vec![i64::MIN, i64::MAX, 0, -1]).prop_map(SqlValue::Int),
    ]
}

fn edge_u64() -> impl Strategy<Value = u64> {
    prop_oneof![prop::sample::select(vec![0, 1, u64::MAX]), any::<u64>()]
}

/// Valid frames of the three busiest shapes, for the mutation property.
fn sample_frames() -> Vec<Vec<u8>> {
    let rows = WireRows {
        columns: vec![("Load1".to_owned(), SqlType::Float, Some("é".to_owned()))],
        rows: vec![
            vec![SqlValue::Float(0.5)],
            vec![SqlValue::Str("a\"\\\n😀".to_owned())],
        ],
    };
    vec![
        encode(&GlobalRequest::Query {
            from_gateway: "gw-a".to_owned(),
            identity: WireIdentity {
                name: "alice".to_owned(),
                roles: vec!["admin".to_owned()],
            },
            sources: vec!["jdbc:snmp://node03.serve/public".to_owned()],
            sql: "SELECT Hostname, NCpu, Load1 FROM Processor".to_owned(),
            max_cache_age_ms: Some(60_000),
            trace: None,
            deadline_ms: Some(250),
        }),
        encode(&GlobalResponse::Rows {
            rows: rows.clone(),
            warnings: vec!["w".to_owned()],
            served_from_cache: 1,
            spans: Vec::new(),
            elapsed_ms: 3,
            outcomes: vec![SourceOutcome::success("s", OutcomeStatus::Cached, 0)],
        }),
        encode(&GlobalResponse::Deltas {
            deltas: vec![WireDelta {
                subscription: 9,
                seq: 3,
                emitted_ms: 5_000,
                origin: "local:gw-b".to_owned(),
                rows,
                removed: 2,
                coalesced: 1,
            }],
        }),
    ]
}

proptest! {
    /// encode → decode is the identity on messages built from the text
    /// and numbers the codec treats specially: the decoded message
    /// prints the same and encodes to the same bytes.
    #[test]
    fn edge_messages_roundtrip(
        text in hostile_text(),
        cells in prop::collection::vec(edge_value(), 0..6),
        big in edge_u64(),
        detail in prop::option::of(hostile_text()),
    ) {
        let reply = GlobalResponse::Rows {
            rows: WireRows {
                columns: vec![(text.clone(), SqlType::Str, detail.clone())],
                rows: vec![cells.clone(), Vec::new()],
            },
            warnings: vec![text.clone()],
            served_from_cache: big as usize,
            spans: Vec::new(),
            elapsed_ms: big,
            outcomes: vec![SourceOutcome {
                source: text.clone(),
                status: OutcomeStatus::Error,
                elapsed_ms: big,
                detail: detail.clone(),
            }],
        };
        let bytes = encode(&reply);
        let back: GlobalResponse = decode(&bytes).unwrap();
        prop_assert_eq!(format!("{back:?}"), format!("{reply:?}"));
        prop_assert_eq!(encode(&back), bytes);

        let request = GlobalRequest::Subscribe {
            from_gateway: text.clone(),
            identity: WireIdentity { name: text.clone(), roles: vec![text.clone()] },
            sources: detail.iter().cloned().collect(),
            sql: text,
            every_ms: Some(big),
            buffer: None,
            backpressure: None,
        };
        let bytes = encode(&request);
        let back: GlobalRequest = decode(&bytes).unwrap();
        prop_assert_eq!(format!("{back:?}"), format!("{request:?}"));
        prop_assert_eq!(encode(&back), bytes);
    }

    /// A valid frame with one byte changed, or cut short, decodes to
    /// `Ok` or `Err`; it never panics.
    #[test]
    fn mutated_and_truncated_frames_never_panic(at in any::<usize>(), byte in any::<u8>()) {
        for frame in sample_frames() {
            let at = at % frame.len();
            let mut mutated = frame.clone();
            mutated[at] = byte;
            for bytes in [&mutated[..], &frame[..at]] {
                let _ = decode::<GlobalRequest>(bytes);
                let _ = decode::<GlobalResponse>(bytes);
            }
        }
    }

    /// Arbitrary result sets survive the gateway-to-gateway wire format.
    #[test]
    fn wire_rows_roundtrip(
        names in prop::collection::vec("[A-Za-z][A-Za-z0-9]{0,10}", 1..5),
        nrows in 0usize..8,
    ) {
        let meta = ResultSetMetaData::new(
            names.iter().map(|n| ColumnMeta::new(n.clone(), SqlType::Null)).collect(),
        );
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let rows: Vec<Vec<SqlValue>> = (0..nrows)
            .map(|_| {
                (0..names.len())
                    .map(|_| arb_value().new_tree(&mut runner).unwrap().current())
                    .collect()
            })
            .collect();
        let rs = RowSet::new(meta, rows).unwrap();
        let wire = WireRows::from_rowset(&rs);
        let bytes = encode(&wire);
        // Moving a result into wire form writes what copying it does.
        prop_assert_eq!(&encode(&WireRows::from_owned(rs.clone())), &bytes);
        let back: WireRows = decode(&bytes).unwrap();
        let restored = back.to_rowset().unwrap();
        prop_assert_eq!(restored.rows(), rs.rows());
        prop_assert_eq!(restored.meta().column_count(), rs.meta().column_count());
    }

    /// Requests and responses round-trip, including events with odd text.
    #[test]
    fn request_event_roundtrip(
        gateway in "[a-z-]{1,12}",
        category in "\\PC{0,24}",
        message in "\\PC{0,48}",
        value in prop::option::of(any::<f64>().prop_filter("finite", |f| f.is_finite())),
    ) {
        let req = GlobalRequest::Event {
            from_gateway: gateway.clone(),
            event: GridRMEvent {
                id: 7,
                at_ms: 123,
                source: "x:snmp".into(),
                hostname: Some("h".into()),
                severity: Severity::Warning,
                category: category.clone(),
                message: message.clone(),
                value,
            },
        };
        let back: GlobalRequest = decode(&encode(&req)).unwrap();
        match back {
            GlobalRequest::Event { from_gateway, event } => {
                prop_assert_eq!(from_gateway, gateway);
                prop_assert_eq!(event.category, category);
                prop_assert_eq!(event.message, message);
                prop_assert_eq!(event.value, value);
            }
            other => prop_assert!(false, "wrong variant {:?}", other),
        }
    }

    /// Identities round-trip with any role set.
    #[test]
    fn identity_roundtrip(name in "[a-z]{1,10}", roles in prop::collection::vec("[a-z]{1,8}", 0..5)) {
        let wire = WireIdentity { name: name.clone(), roles };
        let id = wire.to_identity();
        let back = WireIdentity::from(&id);
        prop_assert_eq!(back.name.clone(), name);
        prop_assert_eq!(back.to_identity(), id);
    }

    /// Decoding arbitrary bytes never panics.
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode::<GlobalRequest>(&bytes);
        let _ = decode::<GlobalResponse>(&bytes);
        let _ = decode::<WireRows>(&bytes);
    }
}
