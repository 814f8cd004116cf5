//! The guarantees ledger's refuting tests: each test here is named in a
//! row of DESIGN.md's guarantees table and of `tests/mutants.tsv`, and
//! each row's planted mutation must make it fail
//! (`cargo test --test mutants -- --ignored` checks that they do).

use gridrm::core::tables::{VirtualTable, TABLES};
use gridrm::global::{Answered, GlobalRequest, GlobalResponse, WireFrame, WireIdentity};
use gridrm::glue::Transform;
use gridrm::prelude::*;
use gridrm::simnet::XorShift;
use gridrm::sqlparse::ast::{ColumnDef, SelectStatement};
use gridrm::sqlparse::{SqlType, Statement};
use gridrm::store::{select_in_memory, Table};
use gridrm::telemetry::{Labels, PointKind, KIND_PROBE};
use gridrm::telemetry::{SpanBuilder, TraceContext, DEFAULT_COST_PENDING};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn fetch() -> CostVector {
    CostVector {
        fetch_units: 1,
        ..CostVector::default()
    }
}

fn hub() -> GatewayTelemetry {
    let hub = GatewayTelemetry::new(SimClock::new());
    hub.set_identity("alpha", "gw-alpha");
    hub
}

/// A local root whose child `a` charges one fetch, and whose child `b`
/// parks one fetch from its own child `g`, bills exactly two fetches.
fn bill_a_two_level_root(hub: &GatewayTelemetry, root: SpanBuilder) -> u64 {
    let trace_id = root.trace_id().to_owned();
    let mut a = root.child("a");
    a.add_cost(&fetch());
    a.finish("ok");
    let b = root.child("b");
    let mut g = b.child("g");
    g.add_cost(&fetch());
    g.finish("ok");
    b.finish("ok");
    root.finish("ok");
    let entries = hub.costs().entries();
    let entry = entries
        .iter()
        .find(|e| e.trace_id == trace_id)
        .expect("the root's ledger entry");
    entry.cost.fetch_units
}

/// G(ii): a leg served for another gateway's trace parks nothing here.
/// Its caller absorbs the leg's cost from the span shipped back, so a
/// bill parked under the remote parent would never be taken, and 1 024
/// of them used to fill the pending table and evict a live local
/// parent's bill.
#[test]
fn g2_remote_legs_never_cost_a_live_parent_its_bill() {
    let hub = hub();
    for i in 0..DEFAULT_COST_PENDING {
        let caller = TraceContext {
            trace_id: format!("gw-zeta:{i}"),
            parent_span_id: format!("gw-zeta:{i}"),
        };
        let mut leg = hub.span_in(&caller, "leg");
        leg.add_cost(&fetch());
        leg.finish("ok");
    }
    let root = hub.span("root");
    assert_eq!(bill_a_two_level_root(&hub, root), 2);
    assert_eq!(hub.costs().drops().get(), 0, "no parked bill was evicted");
}

/// G(ii): when a parent that never finishes (a leaked builder) fills the
/// pending table, eviction takes the oldest entry, never a live
/// parent's newer one, even when the live parent is the oldest span.
#[test]
fn g2_leaked_parents_are_evicted_before_a_live_parents_bill() {
    let hub = hub();
    let root = hub.span("root");
    let leaked: Vec<SpanBuilder> = (0..DEFAULT_COST_PENDING)
        .map(|_| {
            let parent = hub.span("leaked");
            let mut child = parent.child("child");
            child.add_cost(&fetch());
            child.finish("ok");
            parent
        })
        .collect();
    assert_eq!(bill_a_two_level_root(&hub, root), 2);
    assert_eq!(hub.costs().drops().get(), 2, "two leaked bills evicted");
    drop(leaked);
}

const SITE: &str = "det";

/// One site with six standing queries and nine subscribers, driven
/// through five cadences, transcribed: every subscriber's deltas, the
/// subscription table, the stream journal and the spans, in order.
fn streaming_transcript(seed: u64) -> String {
    let net = Network::new(SimClock::new(), seed);
    let site = SiteModel::generate(seed ^ 0x5EED, &SiteSpec::new(SITE, 4, 2));
    site.advance_to(60_000);
    deploy_site(&net, site.clone());
    let gateway = Gateway::new(GatewayConfig::new("gw-det", SITE), net);
    install_into_gateway(&gateway);
    let clock = gateway.clock().clone();

    let mut ids = Vec::new();
    for (i, every) in [250u64, 500, 250, 750, 500, 250].into_iter().enumerate() {
        let source = format!("jdbc:snmp://node0{}.{SITE}/public", i % 4);
        let sql = if i < 4 {
            format!("SELECT Hostname, Load1 FROM Processor EVERY {every}")
        } else {
            format!("SELECT Hostname, Load5, Load15 FROM Processor EVERY {every}")
        };
        // The first three queries have a second, identical subscriber.
        for _ in 0..if i < 3 { 2 } else { 1 } {
            let spec = ClientRequest::builder(&sql).source(&source).subscribe();
            ids.push(gateway.subscribe(&spec).expect("subscribe"));
        }
    }

    let mut out = String::new();
    for round in 0..5u64 {
        clock.advance(250);
        site.advance_to(60_000 + round * 30_000);
        gateway.pump();
        for id in &ids {
            for d in gateway.poll_deltas(*id, 0).expect("poll") {
                out.push_str(&format!(
                    "{id} {}@{} seq={} rows={:?} removed={}\n",
                    d.origin,
                    d.emitted_ms,
                    d.seq,
                    d.rows.rows(),
                    d.removed
                ));
            }
        }
        out.push_str(&format!("{:?}\n", gateway.streams().snapshot()));
    }
    for e in gateway.telemetry().journal().recent() {
        out.push_str(&format!(
            "{} {} {} {}\n",
            e.at_ms, e.kind, e.source, e.message
        ));
    }
    for s in gateway.telemetry().traces().recent() {
        out.push_str(&format!("{} {} {:?}\n", s.span_id, s.request, s.stages));
    }
    out
}

/// G(ix): the same seed gives a byte-identical streaming transcript in
/// two worlds built side by side, with several standing queries and
/// subscribers, so no hash order reaches what a subscriber sees.
#[test]
fn g9_standing_queries_replay_byte_identically_across_worlds() {
    let first = streaming_transcript(7);
    assert!(
        first.contains(" seq=2 "),
        "the transcript has deltas:\n{first}"
    );
    assert_eq!(first, streaming_transcript(7));
}

/// G(iv): no reply served from cache is older than its bound, whichever
/// thread answers. Cached queries over random sources with random bounds,
/// across random clock advances, go through the wire service the way the
/// serving layer sends them: answered at once where the service takes
/// the frame, else through the full path. Every source a reply serves
/// from cache was filled no longer ago than the bound, and a frame
/// answered at once is served wholly from cache.
#[test]
fn g4_no_reply_served_from_cache_is_older_than_its_bound() {
    let net = Network::new(SimClock::new(), 11);
    let site = SiteModel::generate(11, &SiteSpec::new(SITE, 3, 2));
    site.advance_to(60_000);
    deploy_site(&net, site.clone());
    let gateway = Gateway::new(GatewayConfig::new("gw-g4", SITE), net);
    install_into_gateway(&gateway);
    let layer = GlobalLayer::attach(gateway.clone(), GmaDirectory::new());
    let service = layer.wire_service();
    let clock = gateway.clock().clone();
    let sources: Vec<String> = (0..3)
        .map(|n| format!("jdbc:snmp://node0{n}.{SITE}/public"))
        .collect();

    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    let mut filled: std::collections::BTreeMap<String, u64> = Default::default();
    let (mut at_once, mut fetched) = (0, 0);
    for step in 0..300 {
        clock.advance([0, 200, 700, 1_500, 4_000][draw(5) as usize]);
        let bound = [0, 500, 1_000, 3_000, 10_000][draw(5) as usize];
        let mask = 1 + draw(7);
        let picked: Vec<String> = (sources.iter().enumerate())
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, s)| s.clone())
            .collect();
        let frame = WireFrame::encode(&GlobalRequest::Query {
            from_gateway: "g4".to_owned(),
            identity: WireIdentity {
                name: "g4".to_owned(),
                roles: vec!["admin".to_owned()],
            },
            sources: picked,
            sql: "SELECT Hostname, Load1 FROM Processor".to_owned(),
            max_cache_age_ms: Some(bound),
            trace: None,
            deadline_ms: None,
        })
        .into_bytes();
        let now = clock.now_millis();
        let (reply, answered_now) = match service.answer_now("g4", frame) {
            Answered::Now(reply) => (reply, true),
            Answered::Later(pending) => (pending.reply(&*service, "g4"), false),
        };
        at_once += u32::from(answered_now);
        let Ok((GlobalResponse::Rows { outcomes, .. }, _)) = WireFrame::decode(&reply) else {
            panic!("step {step}: {}", String::from_utf8_lossy(&reply));
        };
        for outcome in outcomes {
            match outcome.status {
                OutcomeStatus::Cached => {
                    let age = now - filled[&outcome.source];
                    assert!(
                        age <= bound,
                        "step {step}: {} served {age} ms old, bound {bound}",
                        outcome.source
                    );
                }
                OutcomeStatus::Ok => {
                    fetched += 1;
                    assert!(!answered_now, "step {step}: a fetch answered at once");
                    filled.insert(outcome.source, now);
                }
                other => panic!("step {step}: {other:?}"),
            }
        }
    }
    assert!(
        at_once > 0 && fetched > 0,
        "{at_once} answered at once, {fetched} sources fetched"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The trace ring's slowest span, found as spans are pushed, is the
    /// one a full scan of what it retains finds: the longest, and the
    /// newest of equals. Spans arrive finished, imported and pushed,
    /// with few distinct durations so ties are common.
    #[test]
    fn ring_slowest_equals_a_full_scan_newest_on_ties(
        capacity in 1usize..9,
        ops in prop::collection::vec((0u8..3, 0u64..4), 0..40),
    ) {
        let hub = GatewayTelemetry::with_capacity(SimClock::new(), capacity);
        for (i, (how, duration)) in ops.into_iter().enumerate() {
            let record = TraceRecord {
                id: 10_000 + i as u64,
                span_id: format!("gw-elsewhere:{i}"),
                started_ms: 5,
                finished_ms: 5 + duration,
                outcome: "ok".to_owned(),
                ..TraceRecord::default()
            };
            match how {
                0 => {
                    let span = hub.span("finished here");
                    let started = hub.clock().now_millis();
                    span.finish_at("ok", started + duration);
                }
                1 => hub.import_span(record),
                _ => hub.traces().push(record),
            }
            let scanned = hub
                .traces()
                .recent()
                .into_iter()
                .max_by_key(TraceRecord::duration_ms);
            prop_assert_eq!(hub.traces().slowest(), scanned);
        }
    }
}

/// G(iv): one fetch's rows are shared by the cache, history and alert
/// scan, and copied once into the reply. After a realtime query of two
/// sources, each source's cached read returns only that source's row,
/// and a cached query of both answers what the realtime one did.
#[test]
fn g4_each_source_caches_only_its_own_rows() {
    let net = Network::new(SimClock::new(), 12);
    let site = SiteModel::generate(12, &SiteSpec::new(SITE, 2, 2));
    site.advance_to(60_000);
    deploy_site(&net, site);
    let gateway = Gateway::new(GatewayConfig::new("gw-g4-shared", SITE), net);
    install_into_gateway(&gateway);
    let sql = "SELECT Hostname, Load1 FROM Processor";
    let sources: Vec<String> = (0..2)
        .map(|n| format!("jdbc:snmp://node0{n}.{SITE}/public"))
        .collect();
    let request = ClientRequest::builder(sql)
        .source_list(sources.clone())
        .build();
    let fresh = gateway.query(&request).unwrap();
    assert_eq!(fresh.rows.len(), 2);
    let now = gateway.clock().now_millis();
    for (n, source) in sources.iter().enumerate() {
        let hit = gateway.cache().lookup(source, sql, now, None).unwrap();
        assert_eq!(hit.rows.rows(), &fresh.rows.rows()[n..=n], "{source}");
        assert_eq!(
            hit.rows.rows()[0][0],
            SqlValue::Str(format!("node0{n}.{SITE}"))
        );
    }
    let cached = ClientRequest::builder(sql)
        .source_list(sources)
        .mode(QueryMode::Cached { max_age_ms: None })
        .build();
    let served = gateway.query(&cached).unwrap();
    assert_eq!(served.served_from_cache, 2);
    assert_eq!(served.rows, fresh.rows);
}

/// Fig 5's per-statement schema check re-cuts the connection's GLUE
/// plan: a mapping re-registered between two queries on one pooled
/// connection translates the second query through the new mapping, so
/// an attribute it no longer maps is NULL (§3.2.3) and a changed
/// transform applies.
#[test]
fn a_remapped_driver_translates_through_its_new_mapping_on_a_pooled_connection() {
    let net = Network::new(SimClock::new(), 13);
    let site = SiteModel::generate(13, &SiteSpec::new(SITE, 1, 2));
    site.advance_to(60_000);
    deploy_site(&net, site);
    let gateway = Gateway::new(GatewayConfig::new("gw-remap", SITE), net);
    install_into_gateway(&gateway);
    let url = JdbcUrl::parse(&format!("jdbc:snmp://node00.{SITE}/public")).unwrap();
    let sql = "SELECT Hostname, NCpu, Load1 FROM Processor";
    let before = gateway.connections().execute(&url, sql).unwrap();
    assert_eq!(before.rows()[0][1], SqlValue::Int(2));

    let schema = gateway.schema();
    let mut mapping = schema.mapping_for("jdbc-snmp").unwrap().as_ref().clone();
    let processor = mapping.groups.get_mut("Processor").unwrap();
    processor.remove("NCpu");
    processor.get_mut("Load1").unwrap().transform = Transform::Identity;
    schema.register_mapping(mapping);

    let after = gateway.connections().execute(&url, sql).unwrap();
    let pool = gateway.connections().stats().snapshot();
    assert_eq!(
        (pool.creates, pool.pool_hits),
        (1, 1),
        "one pooled connection"
    );
    assert_eq!(after.rows()[0][0], before.rows()[0][0]);
    assert_eq!(
        after.rows()[0][1],
        SqlValue::Null,
        "NCpu is no longer mapped"
    );
    // laLoad is centi-load: the old mapping scaled it by 0.01.
    let load = |rs: &RowSet| rs.rows()[0][2].as_f64().unwrap();
    assert!(load(&before) > 0.0);
    assert!((load(&after) * 0.01 - load(&before)).abs() < 1e-9);
}

/// A gateway whose rings are full and whose sort keys tie heavily:
/// 300 root queries (and a child each) into a 256-entry span ring and
/// cost ledger, most of them costing the same `bytes_in`, a slow log
/// and a journal filled past capacity, entries with NULL cells, and
/// NaN among the gauges and recorded points.
fn introspected_gateway() -> Arc<Gateway> {
    let net = Network::new(SimClock::new(), 5);
    let site = SiteModel::generate(5, &SiteSpec::new("intro", 2, 2));
    site.advance_to(60_000);
    deploy_site(&net, site);
    let gateway = Gateway::new(GatewayConfig::new("gw-intro", "intro"), net);
    install_into_gateway(&gateway);
    for host in ["node00", "node01", "gone"] {
        let _ = gateway.query(&ClientRequest::realtime(
            &format!("jdbc:snmp://{host}.intro/public"),
            "SELECT Hostname, Load1 FROM Processor",
        ));
    }
    let spec = ClientRequest::builder("SELECT Load1 FROM Processor EVERY 500")
        .source("jdbc:snmp://node00.intro/public")
        .subscribe();
    gateway.subscribe(&spec).expect("subscribe");

    let t = gateway.telemetry();
    let clock = gateway.clock().clone();
    let mut rng = XorShift::new(41);
    t.slow_queries().set_threshold_ms(2);
    let requests = ["SELECT a", "SELECT b", "SELECT c", "SELECT d"];
    for i in 0..300u64 {
        clock.advance(rng.next_below(3));
        let root = t.span(requests[rng.next_below(4) as usize]);
        let mut child = root.child("driver_execute jdbc-snmp");
        child.stage_with(Stage::DriverExecute, "jdbc-snmp");
        child.add_cost(&CostVector {
            msgs_out: 1 + rng.next_below(2),
            bytes_in: if rng.chance(0.8) {
                512
            } else {
                rng.next_below(4) * 256
            },
            rows_returned: rng.next_below(3),
            ..CostVector::default()
        });
        child.finish("ok");
        let started = clock.now_millis();
        root.finish_at(
            if i % 7 == 0 { "error" } else { "ok" },
            started + rng.next_below(5),
        );
    }
    for i in 0..600u64 {
        let severity =
            [JournalSeverity::Info, JournalSeverity::Warning][rng.next_below(2) as usize];
        let driver = (i % 3 == 0).then_some("jdbc-snmp");
        let trace = format!("gw-intro:{}", i % 9);
        t.journal().record_traced(
            i,
            severity,
            KIND_PROBE,
            "jdbc:snmp://node00.intro/public",
            driver,
            None,
            "probe",
            (i % 2 == 0).then_some(trace.as_str()),
        );
    }
    for (i, value) in [1.5, f64::NAN, -2.0, f64::NAN, 0.0].into_iter().enumerate() {
        t.registry()
            .gauge(
                "gridrm_test_level",
                "A test gauge",
                Labels::from_pairs(&[("tier", ["a", "b", "c", "d", "e"][i])]),
            )
            .set(value);
        for at in 0..20u64 {
            let v = if at % 5 == 0 { value } else { at as f64 };
            t.timeseries()
                .record_point("gridrm_test_level", "", PointKind::Gauge, at * 250, v);
        }
    }
    for cause in [IntrusionCause::Query, IntrusionCause::Probe] {
        t.costs().intrude(
            "intro",
            cause,
            &CostVector {
                msgs_out: 2,
                ..CostVector::default()
            },
        );
    }
    gateway
}

/// One of `names`, in upper case one time in five.
fn pick(names: &[&str], rng: &mut XorShift) -> String {
    let name = names[rng.next_below(names.len() as u64) as usize];
    if rng.chance(0.2) {
        name.to_ascii_uppercase()
    } else {
        name.to_owned()
    }
}

/// One random statement over `table`: a projection of `*`, plain
/// columns in mixed case, an aggregate or a failing expression; a WHERE
/// that may meet NULL or fail on some rows only; ORDER BY keys, some of
/// which fail; LIMIT (0 included), OFFSET (past the end included),
/// DISTINCT and GROUP BY.
fn random_select(table: &VirtualTable, rng: &mut XorShift) -> String {
    let cols: Vec<&str> = table.columns.iter().map(|(name, _)| *name).collect();
    let mut numeric: Vec<&str> = table
        .columns
        .iter()
        .filter(|(_, ty)| matches!(ty, SqlType::Int | SqlType::Float | SqlType::Timestamp))
        .map(|(name, _)| *name)
        .collect();
    if numeric.is_empty() {
        numeric.push("1");
    }
    let grouped = rng.chance(0.12);
    let (distinct, projection, group_by) = if grouped {
        let key = pick(&cols, rng);
        let agg = match rng.next_below(3) {
            0 => "COUNT(*)".to_owned(),
            1 => format!("MAX({})", pick(&numeric, rng)),
            _ => format!("MIN({})", pick(&cols, rng)),
        };
        (
            false,
            format!("{key}, {agg} AS n"),
            format!(" GROUP BY {key}"),
        )
    } else {
        let projection = match rng.next_below(8) {
            0 | 1 => "*".to_owned(),
            2 => "COUNT(*)".to_owned(),
            3 => format!("{}, 1 / {}", pick(&cols, rng), pick(&numeric, rng)),
            4 => format!("{}, nope", pick(&cols, rng)),
            _ => (0..1 + rng.next_below(4))
                .map(|_| pick(&cols, rng))
                .collect::<Vec<_>>()
                .join(", "),
        };
        (rng.chance(0.25), projection, String::new())
    };
    let mut sql = format!(
        "SELECT {}{projection} FROM {}",
        if distinct { "DISTINCT " } else { "" },
        table.name
    );
    let predicate = |rng: &mut XorShift| match rng.next_below(6) {
        0 => format!("{} IS NULL", pick(&cols, rng)),
        1 => format!("{} IS NOT NULL", pick(&cols, rng)),
        2 => format!("{} > {}", pick(&numeric, rng), rng.next_below(600)),
        3 => format!("1 / {} > 0", pick(&numeric, rng)),
        4 => format!("{} LIKE '%a%'", pick(&cols, rng)),
        _ => format!("{} <> 'x'", pick(&cols, rng)),
    };
    if rng.chance(0.5) {
        sql.push_str(&format!(" WHERE {}", predicate(rng)));
        if rng.chance(0.3) {
            let op = if rng.chance(0.5) { "AND" } else { "OR" };
            sql.push_str(&format!(" {op} {}", predicate(rng)));
        }
    }
    sql.push_str(&group_by);
    let keys = rng.next_below(3);
    if keys > 0 {
        let keys: Vec<String> = (0..keys)
            .map(|_| {
                let key = if grouped && rng.chance(0.7) {
                    "n".to_owned()
                } else {
                    match rng.next_below(10) {
                        0 => format!("1 / {}", pick(&numeric, rng)),
                        1 => "nope".to_owned(),
                        _ => pick(&cols, rng),
                    }
                };
                format!("{key}{}", if rng.chance(0.5) { " DESC" } else { "" })
            })
            .collect();
        sql.push_str(&format!(" ORDER BY {}", keys.join(", ")));
    }
    if rng.chance(0.8) {
        sql.push_str(&format!(" LIMIT {}", rng.next_below(10)));
        if rng.chance(0.3) {
            sql.push_str(&format!(" OFFSET {}", rng.next_below(300)));
        }
    }
    sql
}

/// The answer the store gives over the whole table, every item and every
/// column materialised: what `AdminInterface::select` must equal.
fn materialised_answer(gateway: &Gateway, table: &VirtualTable, sel: &SelectStatement) -> String {
    let all = gateway
        .admin()
        .select(&SelectStatement::star(table.name))
        .expect("SELECT *");
    let whole = Table {
        name: table.name.to_owned(),
        columns: table
            .columns
            .iter()
            .map(|(name, ty)| ColumnDef {
                name: (*name).to_owned(),
                ty: *ty,
                primary_key: false,
            })
            .collect(),
        rows: all.rows().to_vec(),
    };
    let now = gateway.telemetry().clock().now_ts();
    answer(select_in_memory(&whole, sel, now).map_err(|e| SqlError::Driver(e.to_string())))
}

fn answer(result: Result<RowSet, SqlError>) -> String {
    match result {
        Ok(rows) => format!("{:?}\n{:?}", rows.metadata(), rows.rows()),
        Err(e) => format!("error: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A `gridrm_*` SELECT answers exactly as the store does over the
    /// whole table: the same rows and metadata, or the same error, for
    /// random statements over every table. Only the columns a statement
    /// reads are built, WHERE is decided per item, and an
    /// `ORDER BY … LIMIT` keeps only its top rows, the earlier item
    /// first among equal keys.
    #[test]
    fn introspection_select_answers_as_the_whole_table_would(seed in any::<u64>()) {
        static GATEWAY: OnceLock<Arc<Gateway>> = OnceLock::new();
        let gateway = GATEWAY.get_or_init(introspected_gateway);
        let mut rng = XorShift::new(seed);
        for table in TABLES {
            for _ in 0..4 {
                let sql = random_select(table, &mut rng);
                let Ok(Statement::Select(sel)) = gridrm::sqlparse::parse(&sql) else {
                    panic!("not a SELECT: {sql}");
                };
                let lazy = answer(gateway.admin().select(&sel));
                let whole = materialised_answer(gateway, table, &sel);
                prop_assert!(lazy == whole, "{sql}\nselect: {lazy}\nstore:  {whole}");
            }
        }
    }
}
