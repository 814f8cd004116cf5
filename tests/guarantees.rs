//! The guarantees ledger's refuting tests: each test here is named in a
//! row of DESIGN.md's guarantees table and of `tests/mutants.tsv`, and
//! each row's planted mutation must make it fail
//! (`cargo test --test mutants -- --ignored` checks that they do).

use gridrm::prelude::*;
use gridrm::telemetry::{SpanBuilder, TraceContext, DEFAULT_COST_PENDING};
use proptest::prelude::*;

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
