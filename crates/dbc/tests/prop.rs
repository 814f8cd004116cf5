//! Property tests for the connectivity layer: URL round-trips, the
//! RowSet cursor laws and the result hand-off.

use gridrm_dbc::{ColumnMeta, JdbcUrl, ResultSet, ResultSetMetaData, RowSet};
use gridrm_sqlparse::{SqlType, SqlValue};
use proptest::prelude::*;

fn arb_host() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,12}(\\.[a-z][a-z0-9]{0,6}){0,2}"
}

fn arb_value() -> impl Strategy<Value = SqlValue> {
    prop_oneof![
        Just(SqlValue::Null),
        any::<bool>().prop_map(SqlValue::Bool),
        any::<i64>().prop_map(SqlValue::Int),
        (-1e12f64..1e12).prop_map(SqlValue::Float),
        "[ -~]{0,16}".prop_map(SqlValue::Str),
        (0i64..i64::MAX / 2).prop_map(SqlValue::Timestamp),
    ]
}

proptest! {
    /// Any programmatically built URL survives print → parse.
    #[test]
    fn url_roundtrip(
        proto in "[a-z][a-z0-9]{0,8}",
        host in arb_host(),
        port in prop::option::of(1u16..u16::MAX),
        path in "[a-zA-Z0-9_./-]{0,12}",
        params in prop::collection::btree_map("[a-z]{1,6}", "[a-zA-Z0-9]{0,6}", 0..4),
    ) {
        // A path starting with '/' would be ambiguous; JdbcUrl::new treats
        // the path verbatim, so normalise like callers must.
        let path = path.trim_start_matches('/');
        let mut url = JdbcUrl::new(&proto, &host, path);
        if let Some(p) = port {
            url = url.with_port(p);
        }
        for (k, v) in &params {
            url = url.with_param(k, v);
        }
        let printed = url.to_string();
        prop_assert!(url.is_canonical_text(&printed));
        prop_assert!(!url.is_canonical_text(&printed[..printed.len() - 1]));
        prop_assert!(!url.is_canonical_text(&format!("{printed}&")));
        let back = JdbcUrl::parse(&printed).unwrap();
        prop_assert_eq!(back, url);
    }

    /// The wildcard form round-trips too.
    #[test]
    fn wildcard_url_roundtrip(host in arb_host(), path in "[a-z0-9]{0,8}") {
        let url = JdbcUrl::new("", &host, &path);
        prop_assert!(url.is_wildcard());
        let back = JdbcUrl::parse(&url.to_string()).unwrap();
        prop_assert!(back.is_wildcard());
        prop_assert_eq!(back, url);
    }

    /// Parsing never panics on arbitrary input.
    #[test]
    fn parse_never_panics(input in "\\PC{0,48}") {
        let _ = JdbcUrl::parse(&input);
    }

    /// RowSet cursor laws: a full advance pass visits every row exactly
    /// once in order; rewinding replays identically; row_count agrees.
    #[test]
    fn rowset_cursor_laws(rows in prop::collection::vec(
        prop::collection::vec(arb_value(), 3..=3), 0..12))
    {
        let meta = ResultSetMetaData::new(vec![
            ColumnMeta::new("a", SqlType::Null),
            ColumnMeta::new("b", SqlType::Null),
            ColumnMeta::new("c", SqlType::Null),
        ]);
        let mut rs = RowSet::new(meta, rows.clone()).unwrap();
        prop_assert_eq!(rs.row_count().unwrap(), rows.len());

        let mut first_pass = Vec::new();
        while rs.advance().unwrap() {
            first_pass.push(rs.row_values().unwrap());
        }
        prop_assert_eq!(&first_pass, &rows);
        // Exhausted cursor stays exhausted.
        prop_assert!(!rs.advance().unwrap());

        rs.before_first().unwrap();
        let mut second_pass = Vec::new();
        while rs.advance().unwrap() {
            second_pass.push(rs.row_values().unwrap());
        }
        prop_assert_eq!(second_pass, rows);
    }

    /// Materialising a RowSet through the trait object reproduces it.
    #[test]
    fn materialize_identity(rows in prop::collection::vec(
        prop::collection::vec(arb_value(), 2..=2), 0..10))
    {
        let meta = ResultSetMetaData::from_pairs(&[("x", SqlType::Null), ("y", SqlType::Null)]);
        let mut original = RowSet::new(meta, rows).unwrap();
        let copy = RowSet::materialize(&mut original).unwrap();
        original.before_first().unwrap();
        prop_assert_eq!(copy.rows(), original.rows());
    }

    /// Handing a RowSet over, wherever its cursor stands, gives what
    /// materialising it there would: itself when the cursor has not
    /// moved, the rows after the cursor when it has.
    #[test]
    fn into_rowset_hands_over_what_materialize_would(
        rows in prop::collection::vec(prop::collection::vec(arb_value(), 2..=2), 0..10),
        advanced in 0usize..12,
    ) {
        let meta = ResultSetMetaData::from_pairs(&[("x", SqlType::Null), ("y", SqlType::Null)]);
        let mut rs = RowSet::new(meta, rows).unwrap();
        for _ in 0..advanced {
            rs.advance().unwrap();
        }
        let expected = RowSet::materialize(&mut rs.clone()).unwrap();
        let handed = (Box::new(rs) as Box<dyn ResultSet>).into_rowset().unwrap();
        prop_assert_eq!(handed.meta(), expected.meta());
        prop_assert_eq!(handed.rows(), expected.rows());
    }
}

/// A set advanced past its first row hands over only the rows after
/// the cursor, exactly as `materialize` copies them.
#[test]
fn a_rowset_advanced_past_row_one_hands_over_what_materialize_would() {
    let rows: Vec<Vec<SqlValue>> = (0..3)
        .map(|i| vec![SqlValue::Int(i), SqlValue::Str(format!("r{i}"))])
        .collect();
    let meta = ResultSetMetaData::from_pairs(&[("i", SqlType::Int), ("s", SqlType::Str)]);
    let mut rs = RowSet::new(meta, rows).unwrap();
    rs.advance().unwrap();
    rs.advance().unwrap();
    let expected = RowSet::materialize(&mut rs.clone()).unwrap();
    assert_eq!(expected.rows(), &[vec![SqlValue::Int(2), "r2".into()]]);
    let handed = (Box::new(rs) as Box<dyn ResultSet>).into_rowset().unwrap();
    assert_eq!(handed.rows(), expected.rows());
    assert_eq!(handed.meta(), expected.meta());
}
