//! The parallel fan-out query engine: plans a Global-layer query into
//! per-gateway *segments*, dispatches them — concurrently in virtual
//! time by default — and consolidates the answers under a per-request
//! deadline budget and partial-results policy.
//!
//! ## Deterministic concurrency
//!
//! The simulation is single-threaded and driven by a virtual
//! [`SimClock`](gridrm_simnet::SimClock), so "parallel" cannot mean OS
//! threads. Instead the engine *models* concurrency: every segment is
//! issued at the same virtual instant `t0`, each segment's cost is
//! measured as the virtual time it alone would take (network RTT plus
//! the remote gateway's own elapsed time), and the clock is advanced
//! **once**, at the end, by the *maximum* segment cost rather than the
//! sum. Segments execute in a fixed order — the local share first, then
//! remote gateways in name order — so results, warnings and RNG draws
//! are byte-identical run to run; only the clock arithmetic changes.
//! Segment spans are closed with their modelled end time, which is how
//! `EXPLAIN ANALYZE` shows remote segments overlapping in time.
//!
//! Sequential mode (`fanout_parallel = false`, or
//! [`GlobalLayer::set_parallel_fanout`]) replays the historical
//! one-gateway-at-a-time walk: the clock advances after every segment
//! and total latency degrades to the sum of segment costs.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use crate::gma::ProducerEntry;
use crate::layer::GlobalLayer;
use crate::protocol::{GlobalRequest, GlobalResponse, WireIdentity};
use gridrm_core::acil::{
    ClientRequest, ClientResponse, OutcomeStatus, QueryMode, ResultPolicy, SourceOutcome,
};
use gridrm_core::security::{Access, CoarseOperation, Decision};
use gridrm_dbc::{DbcResult, RowSet, SqlError};
use gridrm_telemetry::Stage;
use std::collections::HashSet;

/// One unit of the fan-out plan: the local gateway's share of the
/// sources, or one remote gateway's share.
enum SegmentPlan {
    Local {
        sources: Vec<String>,
    },
    Remote {
        entry: ProducerEntry,
        sources: Vec<String>,
    },
}

impl SegmentPlan {
    fn sources(&self) -> &[String] {
        match self {
            SegmentPlan::Local { sources } | SegmentPlan::Remote { sources, .. } => sources,
        }
    }

    /// The gateway that answers this segment.
    fn gateway_name(&self, my_name: &str) -> String {
        match self {
            SegmentPlan::Local { .. } => my_name.to_owned(),
            SegmentPlan::Remote { entry, .. } => entry.gateway.clone(),
        }
    }

    /// The Grid site that answers this segment.
    fn site(&self, my_site: &str) -> String {
        match self {
            SegmentPlan::Local { .. } => my_site.to_owned(),
            SegmentPlan::Remote { entry, .. } => entry.site.clone(),
        }
    }
}

/// Warnings a gateway reported beyond what its structured outcomes
/// already derive (result-shape mismatches, history-write failures, …).
fn undeclared_warnings(warnings: Vec<String>, outcomes: &[SourceOutcome]) -> Vec<String> {
    let derived: HashSet<String> = outcomes.iter().filter_map(SourceOutcome::warning).collect();
    warnings
        .into_iter()
        .filter(|w| !derived.contains(w))
        .collect()
}

/// Record the same failure for every source of a segment.
fn fail_each(
    outcomes: &mut Vec<SourceOutcome>,
    sources: &[String],
    status: OutcomeStatus,
    elapsed_ms: u64,
    detail: &str,
) {
    outcomes.extend(
        sources
            .iter()
            .map(|s| SourceOutcome::failure(s, status, elapsed_ms, detail)),
    );
}

fn merge(acc: &mut Option<RowSet>, rows: RowSet, warnings: &mut Vec<String>, origin: &str) {
    match acc {
        None => *acc = Some(rows),
        Some(existing) => {
            if let Err(e) = existing.append(rows) {
                warnings.push(format!("{origin}: result shape mismatch: {e}"));
            }
        }
    }
}

impl GlobalLayer {
    /// Plan, dispatch and consolidate one Global-layer query. The
    /// caller's principal is resolved and its operation authorised here,
    /// before anything is sent; each owner checks again on arrival.
    pub(crate) fn fan_out(&self, request: &ClientRequest) -> DbcResult<ClientResponse> {
        let telemetry = self.gateway.telemetry().clone();
        let clock = telemetry.clock().clone();
        let identity = self
            .gateway
            .sessions()
            .principal(request, clock.now_millis())?;
        let op = match request.mode {
            QueryMode::Historical => CoarseOperation::QueryHistory,
            _ => CoarseOperation::Query,
        };
        if let Decision::Deny(reason) = self
            .gateway
            .policy()
            .authorize(&identity, Access::Operation(op))
        {
            return Err(SqlError::Security(reason));
        }
        let my_site = self.gateway.config().site.clone();
        let my_name = self.gateway.config().name.clone();
        let parallel = self.parallel_fanout();

        // ---- plan: one segment per owning gateway ----
        let (local, remote) = self.partition(&request.sources);
        let (n_local, n_remote) = (local.len(), remote.len());
        let mut segments: Vec<SegmentPlan> = Vec::new();
        if !local.is_empty() || request.mode == QueryMode::Historical {
            segments.push(SegmentPlan::Local { sources: local });
        }
        for (entry, sources) in remote {
            segments.push(SegmentPlan::Remote { entry, sources });
        }

        let mut span = request.open_span(&telemetry);
        span.stage_with(
            Stage::GlobalQuery,
            format!(
                "{n_local} local, {n_remote} remote gateways, {} dispatch",
                if parallel { "parallel" } else { "sequential" }
            ),
        );
        let ctx = span.context();

        let deadline = request
            .deadline_ms
            .or(match self.gateway.config().default_deadline_ms {
                0 => None,
                d => Some(d),
            });
        let max_cache_age_ms = match request.mode {
            QueryMode::Cached { max_age_ms } => {
                Some(max_age_ms.unwrap_or(self.gateway.cache().default_ttl_ms()))
            }
            _ => None,
        };

        let t0 = clock.now_millis();
        let mut consolidated: Option<RowSet> = None;
        let mut outcomes: Vec<SourceOutcome> = Vec::new();
        let mut extra_warnings: Vec<String> = Vec::new();
        let mut first_err: Option<SqlError> = None;
        // Virtual time each segment still owes beyond what is already on
        // the clock; in parallel mode the clock advances once by the max.
        let mut max_external = 0u64;
        let mut failed = false;

        for segment in segments {
            let label = segment.gateway_name(&my_name);
            let site = segment.site(&my_site);

            // Fail-fast: once a segment has failed, skip the rest.
            if failed && request.policy == ResultPolicy::FailFast {
                fail_each(
                    &mut outcomes,
                    segment.sources(),
                    OutcomeStatus::Error,
                    0,
                    "skipped: fail-fast after earlier failure",
                );
                self.stats.segments_error.inc();
                continue;
            }

            // Deadline budget: concurrent segments each get the full
            // budget (they all start at t0); sequential dispatch spends
            // it as the clock moves.
            let budget = deadline.map(|d| {
                if parallel {
                    d
                } else {
                    d.saturating_sub(clock.now_millis().saturating_sub(t0))
                }
            });
            if budget == Some(0) {
                fail_each(
                    &mut outcomes,
                    segment.sources(),
                    OutcomeStatus::Timeout,
                    0,
                    "deadline budget exhausted",
                );
                self.stats.segments_deadline_exceeded.inc();
                first_err.get_or_insert_with(|| {
                    SqlError::Timeout(format!("{label}: deadline budget exhausted"))
                });
                failed = true;
                continue;
            }

            let mut seg_span = telemetry.span_in(&ctx, format!("segment:{label}"));
            let seg_start = clock.now_millis();
            // `external` is the segment's modelled cost not yet applied
            // to the clock (RTT + remote compute); local work moves the
            // clock itself, so its external cost is 0.
            let (tag, external) = match &segment {
                SegmentPlan::Local { sources } => {
                    seg_span.stage_with(Stage::Segment, "local");
                    let mut local_request = request.clone();
                    local_request.sources = sources.clone();
                    local_request.trace = Some(seg_span.context());
                    local_request.deadline_ms = budget;
                    // The engine owns the policy; each segment reports
                    // everything it can.
                    local_request.policy = ResultPolicy::BestEffort;
                    match self.gateway.query(&local_request) {
                        Ok(resp) => {
                            if resp.outcomes.iter().any(|o| !o.status.is_success()) {
                                failed = true;
                            }
                            extra_warnings
                                .extend(undeclared_warnings(resp.warnings, &resp.outcomes));
                            outcomes.extend(resp.outcomes);
                            merge(&mut consolidated, resp.rows, &mut extra_warnings, &label);
                            self.stats.segments_ok.inc();
                            ("ok", 0)
                        }
                        Err(e) => {
                            let elapsed = clock.now_millis().saturating_sub(seg_start);
                            let detail = e.to_string();
                            if sources.is_empty() {
                                // Historical fan-out with no local share.
                                outcomes.push(SourceOutcome::failure(
                                    "local",
                                    OutcomeStatus::Error,
                                    elapsed,
                                    &detail,
                                ));
                            }
                            fail_each(
                                &mut outcomes,
                                sources,
                                OutcomeStatus::Error,
                                elapsed,
                                &detail,
                            );
                            first_err.get_or_insert(e);
                            failed = true;
                            self.stats.segments_error.inc();
                            ("error", 0)
                        }
                    }
                }
                SegmentPlan::Remote { entry, sources } => {
                    seg_span.stage_with(Stage::Segment, "remote");
                    self.stats.remote_queries_out.inc();
                    let wire = GlobalRequest::Query {
                        from_gateway: my_name.clone(),
                        identity: WireIdentity::from(identity.as_ref()),
                        sources: sources.clone(),
                        sql: request.sql().to_owned(),
                        max_cache_age_ms,
                        trace: Some(seg_span.context()),
                        deadline_ms: budget,
                    };
                    let (answer, rtt_us, wire_cost) =
                        self.exchange(&entry.site, &entry.gma_address, &wire);
                    // The exchange already counted the frames; the span
                    // only sums them.
                    seg_span.absorb_cost(&wire_cost);
                    let rtt_ms = rtt_us.div_ceil(1000);
                    let clock_delta = clock.now_millis().saturating_sub(seg_start);
                    match answer {
                        Ok(GlobalResponse::Rows {
                            rows,
                            warnings: remote_warnings,
                            served_from_cache: remote_cached,
                            spans,
                            elapsed_ms,
                            outcomes: remote_outcomes,
                        }) => {
                            // Adopt the remote half of the trace into the
                            // local ring buffer so EXPLAIN sees one
                            // cross-site tree. Remote spans that hang
                            // directly off this segment carry the remote
                            // gateway's inclusive costs; absorb (not
                            // count — they were counted over there) so
                            // the local roll-up still sums.
                            let seg_span_id = seg_span.context().parent_span_id;
                            for remote_span in spans {
                                if remote_span.parent_span_id.as_deref()
                                    == Some(seg_span_id.as_str())
                                {
                                    seg_span.absorb_cost(&remote_span.cost);
                                }
                                telemetry.import_span(remote_span);
                            }
                            // A shared sim clock means remote compute may
                            // already be inside clock_delta; only charge
                            // the part that is not.
                            let external = rtt_ms + elapsed_ms.saturating_sub(clock_delta);
                            let cost = clock_delta + external;
                            match budget {
                                Some(b) if cost > b => {
                                    // The answer would land after the
                                    // budget: the caller stopped waiting
                                    // at `b`, so the rows are dropped.
                                    fail_each(
                                        &mut outcomes,
                                        sources,
                                        OutcomeStatus::Timeout,
                                        b,
                                        &format!(
                                            "via {label}: deadline exceeded \
                                             ({cost}ms > {b}ms budget)"
                                        ),
                                    );
                                    self.stats.segments_deadline_exceeded.inc();
                                    first_err.get_or_insert_with(|| {
                                        SqlError::Timeout(format!(
                                            "{label}: answered in {cost}ms, over the {b}ms budget"
                                        ))
                                    });
                                    failed = true;
                                    ("timeout", b.saturating_sub(clock_delta))
                                }
                                _ => match rows.to_rowset() {
                                    Ok(rs) => {
                                        let mut seg_outcomes = remote_outcomes;
                                        if seg_outcomes.is_empty() && !sources.is_empty() {
                                            // Pre-outcome peer: synthesise
                                            // one success per source.
                                            seg_outcomes = sources
                                                .iter()
                                                .enumerate()
                                                .map(|(i, s)| {
                                                    let status = if i < remote_cached {
                                                        OutcomeStatus::Cached
                                                    } else {
                                                        OutcomeStatus::Ok
                                                    };
                                                    SourceOutcome::success(s, status, cost)
                                                })
                                                .collect();
                                        } else {
                                            // The peer measured its own LAN-local
                                            // elapsed; the caller also paid the
                                            // WAN hop to hear the answer.
                                            for o in &mut seg_outcomes {
                                                o.elapsed_ms += rtt_ms;
                                            }
                                        }
                                        if seg_outcomes.iter().any(|o| !o.status.is_success()) {
                                            failed = true;
                                        }
                                        extra_warnings.extend(
                                            undeclared_warnings(remote_warnings, &seg_outcomes)
                                                .into_iter()
                                                .map(|w| format!("{label}: {w}")),
                                        );
                                        outcomes.extend(seg_outcomes);
                                        merge(&mut consolidated, rs, &mut extra_warnings, &label);
                                        self.stats.segments_ok.inc();
                                        ("ok", external)
                                    }
                                    Err(e) => {
                                        fail_each(
                                            &mut outcomes,
                                            sources,
                                            OutcomeStatus::Error,
                                            cost,
                                            &format!("via {label}: bad wire rows: {e}"),
                                        );
                                        first_err.get_or_insert(e);
                                        failed = true;
                                        self.stats.segments_error.inc();
                                        ("error", external)
                                    }
                                },
                            }
                        }
                        failure => {
                            let (detail, error) = match failure {
                                Ok(GlobalResponse::Error { message }) => (
                                    format!("via {label}: {message}"),
                                    Some(SqlError::Driver(message)),
                                ),
                                Ok(GlobalResponse::Overloaded {
                                    queue_depth,
                                    retry_after_ms,
                                }) => {
                                    // A serving-layer peer shed this segment
                                    // at admission; the query was never
                                    // executed there. Surface it as a
                                    // retryable connection-class failure.
                                    // (Simnet peers never produce this.)
                                    let message = format!(
                                        "via {label}: peer overloaded \
                                         (queue depth {queue_depth}, retry after {retry_after_ms}ms)"
                                    );
                                    (message.clone(), Some(SqlError::Connection(message)))
                                }
                                // An answer of the wrong kind fails the
                                // segment's sources but is no request error.
                                Ok(other) => {
                                    (format!("via {label}: unexpected response {other:?}"), None)
                                }
                                Err(e) => (format!("via {label}: {e}"), Some(e)),
                            };
                            let cost = clock_delta + rtt_ms;
                            fail_each(&mut outcomes, sources, OutcomeStatus::Error, cost, &detail);
                            if let Some(e) = error {
                                first_err.get_or_insert(e);
                            }
                            failed = true;
                            self.stats.segments_error.inc();
                            ("error", rtt_ms)
                        }
                    }
                }
            };

            let cost = clock.now_millis().saturating_sub(seg_start) + external;
            self.observe_site_latency(&site, cost);
            if parallel {
                max_external = max_external.max(external);
                // Close the span at its modelled end, which may be ahead
                // of (or behind) the clock: concurrent segments overlap.
                seg_span.finish_at(tag, seg_start + cost);
            } else {
                clock.advance(external);
                seg_span.finish(tag);
            }
        }

        if parallel && max_external > 0 {
            // All segments ran side by side: total wall-clock is the
            // slowest one, not the sum.
            clock.advance(max_external);
        }

        let ok = outcomes.iter().filter(|o| o.status.is_success()).count();
        let result =
            match (request.policy, consolidated) {
                (ResultPolicy::FailFast, _) if failed => {
                    let detail = outcomes
                        .iter()
                        .find(|o| !o.status.is_success())
                        .and_then(SourceOutcome::warning);
                    Err(first_err.unwrap_or_else(|| {
                        SqlError::Driver(detail.unwrap_or_else(|| "fan-out segment failed".into()))
                    }))
                }
                (ResultPolicy::Quorum(n), _) if ok < n => Err(SqlError::Driver(format!(
                    "quorum not met: {ok}/{n} sources answered"
                ))),
                (_, Some(rows)) => Ok(ClientResponse::from_outcomes(
                    rows,
                    outcomes,
                    extra_warnings,
                )),
                (_, None) => Err(first_err
                    .unwrap_or_else(|| SqlError::Driver("no source produced a result".into()))),
            };
        span.finish(if result.is_ok() { "ok" } else { "error" });
        result
    }
}
