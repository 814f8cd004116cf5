//! Rendering a trace's span tree as a result set (the `EXPLAIN` /
//! `EXPLAIN ANALYZE` verbs) and as indented text (for dashboards).
//!
//! The rows come back in depth-first pre-order with an explicit `depth`
//! column, so a client can rebuild the tree without re-deriving parent
//! links — but the `trace_id`/`span_id`/`parent_span_id` columns are
//! all present for joining against `gridrm_spans`, `gridrm_journal`
//! and `gridrm_slow_queries`.

use crate::acil::{ClientRequest, ClientResponse};
use crate::stream::SubscribeSpec;
use gridrm_dbc::{ColumnMeta, DbcResult, ResultSetMetaData, RowSet};
use gridrm_sqlparse::{SqlType, SqlValue, Statement};
use gridrm_telemetry::{GatewayTelemetry, SpanBuilder, TraceRecord};

/// `EXPLAIN [ANALYZE] <inner>`, for every layer that answers it: run
/// `inner` through `run` as a child of an `explain` span, then answer
/// with every span of the resulting trace instead of the rows. `run`
/// gets the inner request (already carrying the explain span's trace
/// context) and the explain span itself, for hanging further children
/// off it. An inner failure still yields the (partial) span tree, with
/// a warning — exactly when a query misbehaves is when its plan matters
/// most.
pub fn explain(
    telemetry: &GatewayTelemetry,
    request: &ClientRequest,
    analyze: bool,
    inner: &Statement,
    run: impl FnOnce(&ClientRequest, &SpanBuilder) -> DbcResult<ClientResponse>,
) -> DbcResult<ClientResponse> {
    let mut span = request.open_span(telemetry);
    span.stage_with("explain", if analyze { "analyze" } else { "plan" });
    let trace_id = span.trace_id().to_owned();
    let inner_request = request
        .with_statement(inner.clone())
        .with_trace(span.context());
    let (warnings, sources_ok, outcomes) = match run(&inner_request, &span) {
        Ok(resp) => {
            span.finish("ok");
            (resp.warnings, resp.sources_ok, resp.outcomes)
        }
        Err(e) => {
            span.finish("error");
            let warning = format!("explain: inner query failed: {e}");
            (vec![warning], 0, Vec::new())
        }
    };
    let spans = telemetry.traces().for_trace(&trace_id);
    Ok(ClientResponse {
        rows: explain_rowset(&spans, analyze)?,
        warnings,
        served_from_cache: 0,
        sources_ok,
        outcomes,
    })
}

/// `EXPLAIN [ANALYZE] SELECT … EVERY n`: run one subscription's whole
/// lifecycle under a single trace — `subscribe` registers it (tracing
/// the `subscribe` and initial `delta` stages), `deliver_and_cancel`
/// drains what was emitted, releases everything `subscribe` registered
/// and reports how many deltas it drained — so the answer shows the
/// `subscribe`/`delta`/`deliver` stages and nothing stays registered.
pub fn explain_subscription<S>(
    telemetry: &GatewayTelemetry,
    request: &ClientRequest,
    analyze: bool,
    inner: &Statement,
    subscribe: impl FnOnce(&SubscribeSpec) -> DbcResult<S>,
    deliver_and_cancel: impl FnOnce(S) -> usize,
) -> DbcResult<ClientResponse> {
    explain(telemetry, request, analyze, inner, |traced, span| {
        let subscription = subscribe(&SubscribeSpec::new(traced.clone()))?;
        let mut deliver = span.child("deliver");
        let delivered = deliver_and_cancel(subscription);
        deliver.stage_with("deliver", &format!("{delivered} deltas"));
        deliver.finish("ok");
        let no_rows = RowSet::empty(ResultSetMetaData::new(Vec::new()));
        Ok(ClientResponse::from_outcomes(
            no_rows,
            Vec::new(),
            Vec::new(),
        ))
    })
}

fn opt_str(v: &Option<String>) -> SqlValue {
    match v {
        Some(s) => SqlValue::Str(s.clone()),
        None => SqlValue::Null,
    }
}

fn render_stages(span: &TraceRecord, analyze: bool) -> String {
    span.stages
        .iter()
        .map(|s| {
            let mut out = if analyze {
                format!("{}@{}", s.stage, s.at_ms.saturating_sub(span.started_ms))
            } else {
                s.stage.clone()
            };
            if let Some(d) = &s.detail {
                out.push('=');
                out.push_str(d);
            }
            out
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// The spans of one trace ordered depth-first: roots (spans whose
/// parent is absent from the set) first by start time, children under
/// their parent by start time. Returns `(depth, span)` pairs.
pub fn span_tree(spans: &[TraceRecord]) -> Vec<(usize, &TraceRecord)> {
    let ids: Vec<&str> = spans.iter().map(|s| s.span_id.as_str()).collect();
    let is_root = |s: &TraceRecord| match &s.parent_span_id {
        None => true,
        Some(p) => !ids.contains(&p.as_str()),
    };
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        (spans[a].started_ms, &spans[a].span_id).cmp(&(spans[b].started_ms, &spans[b].span_id))
    });

    let mut out: Vec<(usize, &TraceRecord)> = Vec::with_capacity(spans.len());
    fn visit<'a>(
        parent: &str,
        depth: usize,
        order: &[usize],
        spans: &'a [TraceRecord],
        out: &mut Vec<(usize, &'a TraceRecord)>,
    ) {
        for &i in order {
            if spans[i].parent_span_id.as_deref() == Some(parent) {
                out.push((depth, &spans[i]));
                visit(&spans[i].span_id, depth + 1, order, spans, out);
            }
        }
    }
    for &i in &order {
        if is_root(&spans[i]) {
            out.push((0, &spans[i]));
            visit(&spans[i].span_id, 1, &order, spans, &mut out);
        }
    }
    out
}

/// Render a span set as the `EXPLAIN` result set. With `analyze` the
/// virtual timings are real; without, timing columns are NULL and
/// stage lists drop their offsets (plan shape only).
pub fn explain_rowset(spans: &[TraceRecord], analyze: bool) -> DbcResult<RowSet> {
    let meta = ResultSetMetaData::new(vec![
        ColumnMeta::new("trace_id", SqlType::Str),
        ColumnMeta::new("span_id", SqlType::Str),
        ColumnMeta::new("parent_span_id", SqlType::Str),
        ColumnMeta::new("site", SqlType::Str),
        ColumnMeta::new("depth", SqlType::Int),
        ColumnMeta::new("request", SqlType::Str),
        ColumnMeta::new("source", SqlType::Str),
        ColumnMeta::new("started_ms", SqlType::Int),
        ColumnMeta::new("finished_ms", SqlType::Int),
        ColumnMeta::new("duration_ms", SqlType::Int),
        ColumnMeta::new("outcome", SqlType::Str),
        ColumnMeta::new("stages", SqlType::Str),
        ColumnMeta::new("rows", SqlType::Int),
        ColumnMeta::new("bytes", SqlType::Int),
        ColumnMeta::new("msgs", SqlType::Int),
    ]);
    let rows = span_tree(spans)
        .into_iter()
        .map(|(depth, s)| {
            let timing = |v: u64| {
                if analyze {
                    SqlValue::Int(v as i64)
                } else {
                    SqlValue::Null
                }
            };
            vec![
                SqlValue::Str(s.trace_id.clone()),
                SqlValue::Str(s.span_id.clone()),
                opt_str(&s.parent_span_id),
                SqlValue::Str(s.site.clone()),
                SqlValue::Int(depth as i64),
                SqlValue::Str(s.request.clone()),
                opt_str(&s.source),
                timing(s.started_ms),
                timing(s.finished_ms),
                timing(s.duration_ms()),
                SqlValue::Str(s.outcome.clone()),
                SqlValue::Str(render_stages(s, analyze)),
                // Cost columns are measurements, so like the timings
                // they are NULL under plain EXPLAIN.
                timing(s.cost.rows_returned),
                timing(s.cost.total_bytes()),
                timing(s.cost.total_msgs()),
            ]
        })
        .collect();
    RowSet::new(meta, rows)
}

/// Pretty-print a span set as an indented tree (one line per span),
/// for terminals and examples.
pub fn render_span_tree(spans: &[TraceRecord]) -> String {
    let mut out = String::new();
    for (depth, s) in span_tree(spans) {
        let indent = "  ".repeat(depth);
        out.push_str(&format!(
            "{indent}{} [{}] {}ms {} — {}\n",
            s.span_id,
            s.site,
            s.duration_ms(),
            s.outcome,
            s.request,
        ));
        for st in &s.stages {
            let detail = st
                .detail
                .as_deref()
                .map(|d| format!(" = {d}"))
                .unwrap_or_default();
            out.push_str(&format!(
                "{indent}  · {}@{}{detail}\n",
                st.stage,
                st.at_ms.saturating_sub(s.started_ms)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridrm_telemetry::{CostVector, SpanStage};

    fn span(span_id: &str, parent: Option<&str>, started: u64, finished: u64) -> TraceRecord {
        TraceRecord {
            trace_id: "gw:1".into(),
            span_id: span_id.into(),
            parent_span_id: parent.map(str::to_owned),
            site: "alpha".into(),
            request: format!("req {span_id}"),
            started_ms: started,
            finished_ms: finished,
            outcome: "ok".into(),
            stages: vec![SpanStage {
                stage: "resolve".into(),
                at_ms: started + 1,
                detail: Some("jdbc-snmp".into()),
            }],
            ..TraceRecord::default()
        }
    }

    #[test]
    fn tree_orders_depth_first_by_start_time() {
        // Shuffled input: root, two children (second started first),
        // a grandchild under the late child.
        let spans = vec![
            span("gw:4", Some("gw:2"), 30, 35),
            span("gw:1", None, 0, 100),
            span("gw:3", Some("gw:1"), 10, 20),
            span("gw:2", Some("gw:1"), 25, 40),
        ];
        let order: Vec<(usize, &str)> = span_tree(&spans)
            .iter()
            .map(|(d, s)| (*d, s.span_id.as_str()))
            .collect();
        assert_eq!(
            order,
            vec![(0, "gw:1"), (1, "gw:3"), (1, "gw:2"), (2, "gw:4")]
        );
    }

    #[test]
    fn orphan_parent_becomes_a_root() {
        let spans = vec![span("gw:9", Some("gone:1"), 5, 6)];
        let order = span_tree(&spans);
        assert_eq!(order.len(), 1);
        assert_eq!(order[0].0, 0);
    }

    #[test]
    fn analyze_controls_timing_columns() {
        let spans = vec![span("gw:1", None, 10, 30)];
        let analyzed = explain_rowset(&spans, true).unwrap();
        let row = &analyzed.rows()[0];
        assert_eq!(row[9], SqlValue::Int(20)); // duration_ms
        assert_eq!(row[11], SqlValue::Str("resolve@1=jdbc-snmp".into()));

        let planned = explain_rowset(&spans, false).unwrap();
        let row = &planned.rows()[0];
        assert_eq!(row[7], SqlValue::Null);
        assert_eq!(row[9], SqlValue::Null);
        assert_eq!(row[11], SqlValue::Str("resolve=jdbc-snmp".into()));
    }

    #[test]
    fn cost_columns_follow_the_timing_rule() {
        let mut s = span("gw:1", None, 10, 30);
        s.cost = CostVector {
            msgs_out: 2,
            msgs_in: 2,
            bytes_out: 100,
            bytes_in: 300,
            rows_returned: 7,
            ..CostVector::default()
        };
        let analyzed = explain_rowset(&[s.clone()], true).unwrap();
        let row = &analyzed.rows()[0];
        assert_eq!(row[12], SqlValue::Int(7)); // rows
        assert_eq!(row[13], SqlValue::Int(400)); // bytes
        assert_eq!(row[14], SqlValue::Int(4)); // msgs

        let planned = explain_rowset(&[s], false).unwrap();
        let row = &planned.rows()[0];
        assert_eq!(row[12], SqlValue::Null);
        assert_eq!(row[13], SqlValue::Null);
        assert_eq!(row[14], SqlValue::Null);
    }

    #[test]
    fn text_tree_indents_children() {
        let spans = vec![span("gw:1", None, 0, 10), span("gw:2", Some("gw:1"), 2, 6)];
        let text = render_span_tree(&spans);
        assert!(text.contains("gw:1 [alpha] 10ms ok"));
        assert!(text.contains("\n  gw:2 [alpha] 4ms ok"));
        assert!(text.contains("· resolve@1 = jdbc-snmp"));
    }
}
