//! The traced pass: per-layer probes, timed from outside.
//!
//! After the timed replays, further replays run with the probes below
//! wrapped around the in-process requests. A probe calls one public
//! entry point of one layer — the paper's Fig 2–4 boundaries — with the
//! parts of the request in hand, and records a span. **Every call into
//! a layer below the wire lives in this file**, so a refactor of the
//! program breaks at most this file's imports; a layer that cannot be
//! reached from outside gets no probe, never a patch.
//!
//! Probes are separate calls, not slices of one `handle_frame` call:
//! `core.gateway_query_us` is a second `Gateway::query` with the same
//! request, and so on down. Their `parent` is the layer that makes the
//! same call on the real path. The estimator is the same position-wise
//! minimum over the traced replays.

use crate::estimator::{mean_us, sample_ns};
use crate::replay::{check_reply, pump_due, Served, SETUP_STAGES};
use crate::workload::{Op, Plan, Workload};
use gridrm_agents::snmp::codec;
use gridrm_agents::snmp::{Oid, Pdu, SnmpMessage};
use gridrm_core::{ClientRequest, Gateway, QueryMode};
use gridrm_dbc::{JdbcUrl, Properties, RowSet};
use gridrm_global::{GlobalRequest, GlobalResponse, WireFrame, WireRows};
use gridrm_glue::{NativeRow, Translator};
use gridrm_serve::{client_identity, read_frame, write_frame};
use gridrm_sqlparse::{ColumnDef, Statement};
use gridrm_store::{select_in_memory, Table};
use gridrm_telemetry::{JournalSeverity, KIND_CACHE_SERVE};
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

/// One probe: a public entry point of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// `FrameService::handle_frame` — the request itself, the root span.
    HandleFrame,
    /// `WireFrame::decode::<GlobalRequest>`.
    DecodeRequest,
    /// `Gateway::query(&ClientRequest)`.
    GatewayQuery,
    /// `gridrm_sqlparse::parse(sql)`, once.
    SqlParse,
    /// `CacheController::lookup`.
    CacheLookup,
    /// `CacheController::store`.
    CacheStore,
    /// `GridRMDriverManager::resolve`.
    DriverResolve,
    /// `ConnectionManager::execute`.
    ConnExecute,
    /// dbc `connect` → `execute_query` on the workload's source.
    DriverExecute,
    /// The same on `jdbc:telemetry://local/metrics`.
    TelemetryQuery,
    /// `Network::request` with the driver's native payload.
    AgentRequest,
    /// `Translator::translate` on one native row.
    GlueTranslateRow,
    /// `select_in_memory` of the query over the unfiltered group rows.
    StoreSelect,
    /// `JdbcUrl::parse`.
    UrlParse,
    /// `RowSet::clone` of the reply rows (what a cache hit does).
    RowsetClone,
    /// `WireRows::from_rowset`.
    RowsToWire,
    /// `WireFrame::encode` of the `Rows` response.
    EncodeResponse,
    /// `write_frame` + `read_frame` of request and reply over memory.
    FrameCodec,
    /// Open a span, three stages, finish.
    Span,
    /// One `Journal::record_traced`.
    JournalRecord,
    /// `Gateway::poll_deltas`.
    StreamPoll,
    /// `ServeWorld::pump_once(1000)`.
    Pump,
}

impl Probe {
    /// Every probe.
    pub const ALL: [Probe; 22] = [
        Probe::HandleFrame,
        Probe::DecodeRequest,
        Probe::GatewayQuery,
        Probe::SqlParse,
        Probe::CacheLookup,
        Probe::CacheStore,
        Probe::DriverResolve,
        Probe::ConnExecute,
        Probe::DriverExecute,
        Probe::TelemetryQuery,
        Probe::AgentRequest,
        Probe::GlueTranslateRow,
        Probe::StoreSelect,
        Probe::UrlParse,
        Probe::RowsetClone,
        Probe::RowsToWire,
        Probe::EncodeResponse,
        Probe::FrameCodec,
        Probe::Span,
        Probe::JournalRecord,
        Probe::StreamPoll,
        Probe::Pump,
    ];

    /// The span name, `<module>.<probe>`; with `_us` appended it is the
    /// per-layer metric.
    pub fn name(self) -> &'static str {
        match self {
            Probe::HandleFrame => "serve.handle_frame",
            Probe::DecodeRequest => "global.decode_request",
            Probe::GatewayQuery => "core.gateway_query",
            Probe::SqlParse => "sqlparse.parse",
            Probe::CacheLookup => "core.cache_lookup",
            Probe::CacheStore => "core.cache_store",
            Probe::DriverResolve => "core.driver_resolve",
            Probe::ConnExecute => "core.conn_execute",
            Probe::DriverExecute => "drivers.execute",
            Probe::TelemetryQuery => "drivers.telemetry_query",
            Probe::AgentRequest => "agents.request",
            Probe::GlueTranslateRow => "glue.translate_row",
            Probe::StoreSelect => "store.select",
            Probe::UrlParse => "dbc.url_parse",
            Probe::RowsetClone => "dbc.rowset_clone",
            Probe::RowsToWire => "global.rows_to_wire",
            Probe::EncodeResponse => "global.encode_response",
            Probe::FrameCodec => "serve.frame_codec",
            Probe::Span => "telemetry.span",
            Probe::JournalRecord => "telemetry.journal_record",
            Probe::StreamPoll => "core.stream_poll",
            Probe::Pump => "core.pump",
        }
    }

    /// The layer that makes this call on the real path.
    pub fn parent(self) -> Option<Probe> {
        match self {
            Probe::HandleFrame | Probe::Pump | Probe::FrameCodec => None,
            Probe::DecodeRequest
            | Probe::GatewayQuery
            | Probe::RowsToWire
            | Probe::EncodeResponse
            | Probe::StreamPoll => Some(Probe::HandleFrame),
            Probe::SqlParse
            | Probe::CacheLookup
            | Probe::CacheStore
            | Probe::ConnExecute
            | Probe::UrlParse
            | Probe::RowsetClone
            | Probe::Span
            | Probe::JournalRecord => Some(Probe::GatewayQuery),
            Probe::DriverResolve | Probe::DriverExecute | Probe::TelemetryQuery => {
                Some(Probe::ConnExecute)
            }
            Probe::AgentRequest | Probe::GlueTranslateRow | Probe::StoreSelect => {
                Some(Probe::DriverExecute)
            }
        }
    }
}

/// One recorded span of traced replay 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: u64,
    /// Position of the request in the sequence; spans of one request
    /// share it.
    pub request_id: u64,
    /// `<module>.<probe>`.
    pub name: &'static str,
    /// Start, nanoseconds since the traced pass began.
    pub start_ns: u64,
    /// End, nanoseconds since the traced pass began.
    pub end_ns: u64,
    /// The span of the layer that makes this call on the real path.
    pub parent: Option<u64>,
}

impl Span {
    /// One line of `spans-<workload>.jsonl`.
    pub fn to_json(&self) -> String {
        let parent = self.parent.map_or("null".to_owned(), |p| p.to_string());
        format!(
            "{{\"id\":{},\"request_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            self.id, self.request_id, self.name, self.start_ns, self.end_ns, parent
        )
    }
}

const UNSET: u32 = u32::MAX;

struct Tracer {
    origin: Instant,
    /// `[probe][position]` minima over the traced replays.
    mins: Vec<Vec<u32>>,
    /// Spans are kept for replay 0 only.
    spans: Option<Vec<Span>>,
    /// The current request's latest span per probe (parent lookup).
    open: [Option<u64>; Probe::ALL.len()],
    next_id: u64,
}

impl Tracer {
    fn time<T>(&mut self, probe: Probe, position: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        let slot = &mut self.mins[probe as usize][position];
        *slot = (*slot).min(sample_ns(end - start));
        if let Some(spans) = &mut self.spans {
            let id = self.next_id;
            self.next_id += 1;
            spans.push(Span {
                id,
                request_id: position as u64,
                name: probe.name(),
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
                parent: probe.parent().and_then(|p| self.open[p as usize]),
            });
            self.open[probe as usize] = Some(id);
        }
        out
    }
}

/// What the traced replays produced.
pub struct Traced {
    mins: Vec<Vec<u32>>,
    /// Spans of traced replay 0, in recording order.
    pub spans: Vec<Span>,
    /// Requests sent during the traced replays.
    pub attempted: u64,
    /// Requests of traced replay 0 whose reply was wrong.
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
}

impl Traced {
    fn positions<'a>(&'a self, probes: &'a [Probe]) -> impl Iterator<Item = usize> + 'a {
        (0..self.mins[0].len())
            .filter(move |&i| probes.iter().all(|&p| self.mins[p as usize][i] != UNSET))
    }

    /// Mean of the probe's per-position minima over the positions it
    /// ran at, microseconds (0 when it never ran on this workload).
    pub fn mean_us(&self, probe: Probe) -> f64 {
        let ran: Vec<u32> = self
            .positions(&[probe])
            .map(|i| self.mins[probe as usize][i])
            .collect();
        mean_us(&ran)
    }

    /// Mean over the positions where `parent` and at least one of
    /// `children` ran of `parent − Σ children that ran`, floored at 0
    /// per position: the parent's self time.
    pub fn self_time_us(&self, parent: Probe, children: &[Probe]) -> f64 {
        let at = |p: Probe, i: usize| self.mins[p as usize][i];
        let selfs: Vec<u32> = self
            .positions(&[parent])
            .filter(|&i| children.iter().any(|&c| at(c, i) != UNSET))
            .map(|i| {
                let covered: u64 = children
                    .iter()
                    .map(|&c| at(c, i))
                    .filter(|&t| t != UNSET)
                    .map(u64::from)
                    .sum();
                u64::from(at(parent, i)).saturating_sub(covered) as u32
            })
            .collect();
        mean_us(&selfs)
    }

    /// `handle_frame` mean over the positions where `probe` ran.
    pub fn handle_frame_us_where(&self, probe: Probe) -> f64 {
        let at: Vec<u32> = self
            .positions(&[Probe::HandleFrame, probe])
            .map(|i| self.mins[Probe::HandleFrame as usize][i])
            .collect();
        mean_us(&at)
    }
}

/// Every `stride`-th position gets the layer probes (all positions get
/// the root `handle_frame` span): probing costs several times the
/// request itself, and a mean of minima does not need every position.
pub fn probe_stride(workload: Workload, n: usize) -> usize {
    let probed = match workload {
        // Every scan is the same request, and its probes re-fetch and
        // re-parse the 80 KiB dump four times over.
        Workload::CoarseScan => 10,
        _ => 200,
    };
    n.div_ceil(probed).max(1)
}

/// Run `replays` traced replays of `plan`.
pub fn run_traced(plan: &Plan, replays: usize) -> std::io::Result<Traced> {
    let n = plan.requests.len();
    let stride = probe_stride(plan.workload, n);
    let mut tracer = Tracer {
        origin: Instant::now(),
        mins: vec![vec![UNSET; n]; Probe::ALL.len()],
        spans: Some(Vec::new()),
        open: [None; Probe::ALL.len()],
        next_id: 0,
    };
    let mut traced = Traced {
        mins: Vec::new(),
        spans: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let mut stages = [0u32; SETUP_STAGES.len()];
    for replay in 0..replays {
        let served = Served::build(plan.site_seed, plan.workload.hosts(), 1, 0, &mut stages)?;
        for request in &plan.warmup {
            served.service.handle_frame("bench", &request.frame);
        }
        let mut fixtures = Fixtures::default();
        for (i, request) in plan.requests.iter().enumerate() {
            tracer.open = [None; Probe::ALL.len()];
            let probed = i % stride == 0;
            if let (true, Op::Poll { subscription }) = (probed, &request.op) {
                // Before the request, so the probe drains the pending
                // deltas and not an already emptied buffer.
                let gateway = &served.world.gateway;
                let _ = tracer.time(Probe::StreamPoll, i, || {
                    gateway.poll_deltas(*subscription, 0)
                });
            }
            let reply = tracer.time(Probe::HandleFrame, i, || {
                served.service.handle_frame("bench", &request.frame)
            });
            traced.attempted += 1;
            if replay == 0 {
                if let Err(why) = check_reply(&reply, &request.expect, &plan.truth) {
                    traced.failed += 1;
                    if traced.failures.len() < 5 {
                        traced
                            .failures
                            .push(format!("traced[{i}] {:?}: {why}", request.op));
                    }
                }
            }
            if let (
                true,
                Op::Query {
                    sources,
                    sql,
                    max_cache_age_ms,
                },
            ) = (probed, &request.op)
            {
                let query = QueryParts {
                    frame: &request.frame,
                    reply: &reply,
                    sources,
                    sql,
                    max_cache_age_ms: *max_cache_age_ms,
                };
                probe_query(&mut tracer, i, &served, &query, &mut fixtures);
            }
            if pump_due(plan.workload, i) {
                tracer.time(Probe::Pump, i, || served.world.pump_once(1_000));
            }
        }
        served.shut_down();
        if let Some(spans) = tracer.spans.take() {
            traced.spans = spans;
        }
    }
    traced.mins = tracer.mins;
    Ok(traced)
}

struct QueryParts<'a> {
    frame: &'a [u8],
    reply: &'a [u8],
    sources: &'a [String],
    sql: &'a str,
    max_cache_age_ms: Option<u64>,
}

/// What the driver-level probes need, fetched once per source kind
/// and replay, outside any timing: the unfiltered rows of the group and
/// one native row built from them.
#[derive(Default)]
struct Fixtures {
    per_driver: Vec<(String, Table, NativeRow)>,
}

impl Fixtures {
    fn for_driver(&mut self, gateway: &Gateway, driver: &str, url: &JdbcUrl) -> Option<usize> {
        if let Some(k) = self.per_driver.iter().position(|(d, _, _)| d == driver) {
            return Some(k);
        }
        let all = gateway
            .connections()
            .execute(url, "SELECT * FROM Processor")
            .ok()?;
        let handle = gateway.schema().handle_for(driver);
        let fields = handle.mapping.as_ref()?.group("Processor")?.clone();
        let first = all.rows().first()?;
        let native: NativeRow = fields
            .iter()
            .filter_map(|(attr, field)| {
                let col = all.meta().columns().iter().position(|c| c.name == *attr)?;
                Some((field.native_key.clone(), first.get(col)?.clone()))
            })
            .collect();
        let table = Table {
            name: "Processor".to_owned(),
            columns: all
                .meta()
                .columns()
                .iter()
                .map(|c| ColumnDef {
                    name: c.name.clone(),
                    ty: c.ty,
                    primary_key: false,
                })
                .collect(),
            rows: all.rows().to_vec(),
        };
        self.per_driver.push((driver.to_owned(), table, native));
        Some(self.per_driver.len() - 1)
    }
}

fn probe_query(
    tracer: &mut Tracer,
    i: usize,
    served: &Served,
    q: &QueryParts<'_>,
    fixtures: &mut Fixtures,
) {
    let gateway = &served.world.gateway;
    let telemetry = gateway.telemetry();
    let now = gateway.clock().now_millis();

    // The wire layer, as `GlobalLayer::handle_wire` strings it together.
    let _ = tracer.time(Probe::DecodeRequest, i, || {
        WireFrame::decode::<GlobalRequest>(q.frame)
    });
    let mode = match q.max_cache_age_ms {
        Some(age) => QueryMode::Cached {
            max_age_ms: Some(age),
        },
        None => QueryMode::RealTime,
    };
    let request = ClientRequest::builder(q.sql)
        .sources(q.sources)
        .identity(client_identity().to_identity())
        .mode(mode)
        .build();
    let Ok(response) = tracer.time(Probe::GatewayQuery, i, || gateway.query(&request)) else {
        return;
    };
    let wire = tracer.time(Probe::RowsToWire, i, || {
        WireRows::from_rowset(&response.rows)
    });
    let rows_reply = GlobalResponse::Rows {
        rows: wire,
        warnings: response.warnings.clone(),
        served_from_cache: response.served_from_cache,
        spans: Vec::new(),
        elapsed_ms: 0,
        outcomes: response.outcomes.clone(),
    };
    let _ = tracer.time(Probe::EncodeResponse, i, || WireFrame::encode(&rows_reply));
    tracer.time(Probe::FrameCodec, i, || {
        for payload in [q.frame, q.reply] {
            let mut wire = Vec::new();
            let _ = write_frame(&mut wire, payload);
            let _ = read_frame(&mut Cursor::new(wire));
        }
    });

    // What `Gateway::query` does for one source.
    let source = &q.sources[0];
    let _ = tracer.time(Probe::SqlParse, i, || gridrm_sqlparse::parse(q.sql));
    let _ = tracer.time(Probe::RowsetClone, i, || response.rows.clone());
    tracer.time(Probe::Span, i, || {
        let mut span = telemetry.span(q.sql);
        span.stage("acil");
        span.stage("handle");
        span.stage_with("cache_lookup", "hit");
        span.finish("ok");
    });
    tracer.time(Probe::JournalRecord, i, || {
        telemetry.journal().record_traced(
            now,
            JournalSeverity::Info,
            KIND_CACHE_SERVE,
            source,
            None,
            Some("cache_lookup"),
            "served last known state from cache",
            Some("probe"),
        )
    });
    if q.sources.len() > 1 {
        // The per-source probes below would cover one source of
        // several; the single-source requests are the ones they split.
        return;
    }
    let Ok(url) = tracer.time(Probe::UrlParse, i, || JdbcUrl::parse(source)) else {
        return;
    };
    if q.max_cache_age_ms.is_some() {
        let _ = tracer.time(Probe::CacheLookup, i, || {
            gateway
                .cache()
                .lookup(source, q.sql, now, q.max_cache_age_ms)
        });
    }
    if response.served_from_cache == q.sources.len() {
        return;
    }

    // The realtime path below the cache.
    let Ok(driver) = tracer.time(Probe::DriverResolve, i, || {
        gateway.driver_manager().resolve(&url)
    }) else {
        return;
    };
    let Ok(fetched) = tracer.time(Probe::ConnExecute, i, || {
        gateway.connections().execute(&url, q.sql)
    }) else {
        return;
    };
    // Stored under a key no request looks up, so the probe refreshes
    // nothing a later cached query would otherwise find expired.
    let probe_key = source.replacen("jdbc:", "prob:", 1);
    let shared = Arc::new(fetched);
    tracer.time(Probe::CacheStore, i, || {
        gateway
            .cache()
            .store(&probe_key, q.sql, shared.clone(), now);
    });
    let execute = || -> gridrm_dbc::DbcResult<RowSet> {
        let mut conn = driver.connect(&url, &Properties::new())?;
        let mut statement = conn.create_statement()?;
        let mut rs = statement.execute_query(q.sql)?;
        RowSet::materialize(rs.as_mut())
    };
    if url.subprotocol == "telemetry" {
        let _ = tracer.time(Probe::TelemetryQuery, i, execute);
        return;
    }
    let _ = tracer.time(Probe::DriverExecute, i, execute);

    // What the driver does: one native request, then per row GLUE
    // translation, then the SELECT over the translated rows.
    let native_payload = match url.subprotocol.as_str() {
        "snmp" => snmp_get_payload(gateway, q.sql),
        _ => Some(Vec::new()),
    };
    if let Some(payload) = native_payload {
        let agent = format!("{}:{}", url.host, url.subprotocol);
        let net = &served.world.net;
        let from = &gateway.config().address;
        let _ = tracer.time(Probe::AgentRequest, i, || {
            net.request(from, &agent, &payload)
        });
    }
    let driver_name = driver.name();
    let Some(k) = fixtures.for_driver(gateway, &driver_name, &url) else {
        return;
    };
    let (_, table, native) = &fixtures.per_driver[k];
    let handle = gateway.schema().handle_for(&driver_name);
    let translator = Translator::new(&handle);
    let _ = tracer.time(Probe::GlueTranslateRow, i, || {
        translator.translate("Processor", native)
    });
    if let Ok(Statement::Select(select)) = gridrm_sqlparse::parse(q.sql) {
        let _ = tracer.time(Probe::StoreSelect, i, || {
            select_in_memory(table, &select, now as i64)
        });
    }
}

/// The GET the SNMP driver sends for `sql`: one PDU naming the OIDs of
/// the columns the query needs.
fn snmp_get_payload(gateway: &Gateway, sql: &str) -> Option<Vec<u8>> {
    let Ok(Statement::Select(select)) = gridrm_sqlparse::parse(sql) else {
        return None;
    };
    let handle = gateway.schema().handle_for("jdbc-snmp");
    let needed = select.required_columns()?;
    let needed: Vec<&str> = needed.iter().map(String::as_str).collect();
    let oids: Vec<Oid> = handle
        .mapping
        .as_ref()?
        .native_keys_for("Processor", &needed)
        .iter()
        .filter_map(|k| k.parse().ok())
        .collect();
    Some(codec::encode(&SnmpMessage::v2c(
        "public",
        Pdu::Get {
            request_id: 0,
            oids,
        },
    )))
}

/// `serve.qps_2c`: two closed-loop clients, two workers, on whatever
/// CPUs the caller's affinity allows; the median over `replays` of
/// requests per second. Informational — known to be noisy on a shared
/// 2-vCPU host, which is why nothing is gated on it.
pub fn qps_two_clients(plan: &Plan, replays: usize) -> std::io::Result<f64> {
    let mut stages = [0u32; SETUP_STAGES.len()];
    let mut qps = Vec::with_capacity(replays);
    for _ in 0..replays {
        let mut served = Served::build(plan.site_seed, plan.workload.hosts(), 2, 2, &mut stages)?;
        for request in &plan.warmup {
            served.service.handle_frame("bench", &request.frame);
        }
        let clients = std::mem::take(&mut served.clients);
        let started = Instant::now();
        let sent: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = clients
                .into_iter()
                .map(|mut stream| {
                    scope.spawn(move || {
                        let mut done = 0usize;
                        for request in &plan.requests {
                            let ok = write_frame(&mut stream, &request.frame).is_ok()
                                && matches!(read_frame(&mut stream), Ok(Some(_)));
                            if !ok {
                                break;
                            }
                            done += 1;
                        }
                        done
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap_or(0)).sum()
        });
        qps.push(sent as f64 / started.elapsed().as_secs_f64());
        served.shut_down();
    }
    qps.sort_by(f64::total_cmp);
    Ok(qps.get(qps.len() / 2).copied().unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_has_a_name_and_parents_form_a_tree() {
        for (k, probe) in Probe::ALL.into_iter().enumerate() {
            assert_eq!(
                probe as usize, k,
                "ALL must list probes in declaration order"
            );
            assert!(probe.name().contains('.'));
            // Walking up always ends at a root within a few steps.
            let mut at = probe;
            for _ in 0..4 {
                match at.parent() {
                    Some(p) => at = p,
                    None => break,
                }
            }
            assert!(at.parent().is_none(), "{probe:?}");
        }
    }

    #[test]
    fn span_json_line() {
        let span = Span {
            id: 3,
            request_id: 10,
            name: "core.gateway_query",
            start_ns: 5,
            end_ns: 9,
            parent: Some(1),
        };
        assert_eq!(
            span.to_json(),
            "{\"id\":3,\"request_id\":10,\"name\":\"core.gateway_query\",\"start_ns\":5,\"end_ns\":9,\"parent\":1}"
        );
    }

    #[test]
    fn self_time_uses_only_positions_where_children_ran() {
        let mut mins = vec![vec![UNSET; 3]; Probe::ALL.len()];
        mins[Probe::GatewayQuery as usize] = vec![10_000, 50_000, 7_000];
        mins[Probe::CacheLookup as usize] = vec![4_000, UNSET, UNSET];
        mins[Probe::ConnExecute as usize] = vec![UNSET, 45_000, UNSET];
        let traced = Traced {
            mins,
            spans: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        };
        // (10-4) and (50-45); position 2 had no child probe.
        let own = traced.self_time_us(
            Probe::GatewayQuery,
            &[Probe::CacheLookup, Probe::ConnExecute],
        );
        assert!((own - 5.5).abs() < 1e-9, "{own}");
        assert!((traced.mean_us(Probe::CacheLookup) - 4.0).abs() < 1e-9);
        assert_eq!(traced.mean_us(Probe::Pump), 0.0);
    }
}
