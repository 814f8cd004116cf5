//! Property-based tests for the SQL parser and evaluator.

use gridrm_sqlparse::ast::{BinaryOp, Expr};
use gridrm_sqlparse::eval::like_match;
use gridrm_sqlparse::{
    parse, parse_expr, Evaluator, MapContext, ParseMemo, SqlType, SqlValue, Statement,
};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = SqlValue> {
    prop_oneof![
        Just(SqlValue::Null),
        any::<bool>().prop_map(SqlValue::Bool),
        (-1_000_000i64..1_000_000).prop_map(SqlValue::Int),
        (-1e6f64..1e6).prop_map(SqlValue::Float),
        "[a-z]{0,8}".prop_map(SqlValue::Str),
    ]
}

/// A numeric column's cell: about a third NaN, the rest numbers or NULL.
fn arb_number_or_nan() -> impl Strategy<Value = SqlValue> {
    prop_oneof![
        Just(SqlValue::Float(f64::NAN)),
        Just(SqlValue::Float(f64::NAN)),
        Just(SqlValue::Null),
        (-1_000i64..1_000).prop_map(SqlValue::Int),
        (-1e3f64..1e3).prop_map(SqlValue::Float),
        (-1e3f64..1e3).prop_map(SqlValue::Float),
    ]
}

/// Floats on and around the edges of `i64`: the specials, ±2⁶³ and
/// their neighbours, the integral and fractional numbers in between,
/// and numbers far beyond.
fn arb_wide_float() -> impl Strategy<Value = f64> {
    const EDGE: f64 = 9_223_372_036_854_775_808.0;
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        prop::sample::select(vec![EDGE, -EDGE, EDGE.next_down(), (-EDGE).next_up()]),
        (-1e6f64..1e6).prop_map(f64::trunc),
        -1e6f64..1e6,
        -2e19f64..2e19,
        -1e300f64..1e300,
    ]
}

fn arb_ident() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_]{0,10}".prop_filter("not a keyword", |s| {
        gridrm_sqlparse::Keyword::lookup(s).is_none()
    })
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_value().prop_map(Expr::Literal),
        arb_ident().prop_map(Expr::col),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(a, BinaryOp::And, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(a, BinaryOp::Or, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(a, BinaryOp::Eq, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(a, BinaryOp::Lt, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(a, BinaryOp::Add, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(a, BinaryOp::Mul, b)),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), any::<bool>()).prop_map(|(e, negated)| Expr::IsNull {
                expr: Box::new(e),
                negated
            }),
            (
                inner.clone(),
                prop::collection::vec(inner, 1..4),
                any::<bool>()
            )
                .prop_map(|(e, list, negated)| Expr::InList {
                    expr: Box::new(e),
                    list,
                    negated
                }),
        ]
    })
}

proptest! {
    /// Printing an expression and re-parsing it yields the same AST.
    #[test]
    fn expr_print_parse_roundtrip(e in arb_expr()) {
        let printed = e.to_string();
        let reparsed = parse_expr(&printed).unwrap_or_else(|err| {
            panic!("failed to reparse `{printed}`: {err}")
        });
        // Compare by re-printing: the printer is deterministic and fully
        // parenthesised, so print-equality implies structural equality up to
        // literal representation (e.g. -0.0 vs 0.0 prints identically).
        prop_assert_eq!(reparsed.to_string(), printed);
    }

    /// A printed SELECT re-parses to an identical statement.
    #[test]
    fn select_roundtrip(
        table in arb_ident(),
        cols in prop::collection::vec(arb_ident(), 0..4),
        limit in prop::option::of(0u64..1000),
        desc in any::<bool>(),
    ) {
        let mut sql = String::from("SELECT ");
        if cols.is_empty() {
            sql.push('*');
        } else {
            sql.push_str(&cols.join(", "));
        }
        sql.push_str(&format!(" FROM {table}"));
        if let Some(c) = cols.first() {
            sql.push_str(&format!(" ORDER BY {c}{}", if desc { " DESC" } else { "" }));
        }
        if let Some(l) = limit {
            sql.push_str(&format!(" LIMIT {l}"));
        }
        let stmt1 = parse(&sql).unwrap();
        let printed = stmt1.to_string();
        let stmt2 = parse(&printed).unwrap();
        prop_assert_eq!(stmt2.to_string(), printed);
        prop_assert!(matches!(stmt1, Statement::Select(_)));
        // The memo agrees with the plain parse on a miss and on a hit.
        let memo = ParseMemo::default();
        for _ in 0..2 {
            prop_assert_eq!(&*memo.parse(&sql).unwrap(), &stmt1);
        }
    }

    /// LIKE agrees with a simple reference implementation on `%`-only patterns.
    #[test]
    fn like_percent_reference(parts in prop::collection::vec("[a-z]{0,4}", 1..4), text in "[a-z]{0,12}") {
        let pattern = parts.join("%");
        let ours = like_match(&pattern, &text);
        // Reference: greedy segment search.
        let reference = {
            let segs: Vec<&str> = pattern.split('%').collect();
            let mut pos = 0usize;
            let mut ok = true;
            for (i, seg) in segs.iter().enumerate() {
                if seg.is_empty() { continue; }
                if i == 0 {
                    if !text[pos..].starts_with(seg) { ok = false; break; }
                    pos += seg.len();
                } else if i == segs.len() - 1 {
                    if !(text.len() >= pos + seg.len() && text.ends_with(seg)
                        && text.len() - seg.len() >= pos) { ok = false; break; }
                    pos = text.len();
                } else {
                    match text[pos..].find(seg) {
                        Some(idx) => pos += idx + seg.len(),
                        None => { ok = false; break; }
                    }
                }
            }
            if ok && segs.len() == 1 {
                // No '%' at all: exact match required.
                text == pattern
            } else { ok }
        };
        prop_assert_eq!(ours, reference, "pattern={} text={}", pattern, text);
    }

    /// NOT(NOT(p)) has the same truth value as p (in three-valued logic).
    #[test]
    fn double_negation(e in arb_expr()) {
        let ctx = MapContext::new();
        let ev = Evaluator;
        let direct = ev.eval_truth(&e, &ctx);
        let double = ev.eval_truth(&Expr::Not(Box::new(Expr::Not(Box::new(e)))), &ctx);
        match (direct, double) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            // NOT coerces its operand to a truth value first, so an operand
            // that errors under eval() may survive under eval_truth(); accept
            // any combination involving an error on the direct side.
            (Err(_), Ok(_)) | (Ok(_), Err(_)) => {}
        }
    }

    /// total_cmp is a total order: antisymmetric and transitive on samples.
    #[test]
    fn total_cmp_total_order(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
    }

    /// An `ORDER BY` column holding NaN, numbers and NULL sorts without
    /// panicking, and comes out ordered: NULL first, NaN last.
    #[test]
    fn sorting_nan_numbers_and_null_is_total(column in prop::collection::vec(arb_number_or_nan(), 0..64)) {
        use std::cmp::Ordering;
        let mut column = column;
        column.sort_by(SqlValue::total_cmp);
        for (i, a) in column.iter().enumerate() {
            for b in &column[i..] {
                prop_assert_ne!(a.total_cmp(b), Ordering::Greater);
            }
        }
    }

    /// A float coerces to INTEGER and TIMESTAMP exactly when `i64`
    /// holds it (INTEGER also wants it integral), and then to its own
    /// value truncated toward zero; anything else is untranslatable,
    /// never a saturated number (§3.2.3's NULL).
    #[test]
    fn a_number_its_type_cannot_hold_coerces_to_null(f in arb_wide_float()) {
        let truncated = f.trunc();
        let held = f.is_finite()
            && truncated >= i64::MIN as f64
            && (truncated as i128) <= i128::from(i64::MAX);
        let want = held.then_some(truncated as i128 as i64);
        let int = SqlValue::Float(f).coerce(SqlType::Int);
        prop_assert_eq!(int, want.filter(|_| f == truncated).map(SqlValue::Int));
        let ts = SqlValue::Float(f).coerce(SqlType::Timestamp);
        prop_assert_eq!(ts, want.map(SqlValue::Timestamp));
    }

    /// Consuming coercion answers as borrowing coercion does.
    #[test]
    fn into_type_is_coerce(v in arb_value(), ty in prop::sample::select(vec![
        SqlType::Null, SqlType::Bool, SqlType::Int, SqlType::Float, SqlType::Str, SqlType::Timestamp,
    ])) {
        prop_assert_eq!(v.clone().into_type(ty), v.coerce(ty));
    }

    /// The lexer never panics on arbitrary input.
    #[test]
    fn lexer_never_panics(input in "\\PC{0,64}") {
        let _ = gridrm_sqlparse::Lexer::new(&input).tokenize();
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_never_panics(input in "\\PC{0,64}") {
        let _ = parse(&input);
    }
}
