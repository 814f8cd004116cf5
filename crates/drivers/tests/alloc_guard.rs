//! Allocation guards for the drivers. The JDBC-SNMP one runs one warm
//! `Processor` point query over a connection that is already open — the
//! benchmark's `realtime_snmp` statement as the pool runs it, its result
//! handed over rather than copied — through the real driver kit, the
//! SNMP codec, the simulated network and the agent. The hand-off one
//! checks that handing over a driver's `RowSet` copies nothing. The
//! gmond ones scan and parse the benchmark's 32-host
//! `coarse_scan` dump, and run `mixed_churn`'s Ganglia filter over a
//! cached 16-host dump. The telemetry one runs the benchmark's
//! `mixed_churn` cost query over a short and a full cost ledger. The
//! counts do not depend on the host, so an OID parsed from or printed
//! to text on the request path, a cloned field mapping, an agent that
//! builds more than the request names, a scanner that copies what it
//! could borrow, a cached dump copied per query, or an introspection
//! query that renders every ledger entry fails here, where a timing
//! would not.

use gridrm_agents::deploy_site;
use gridrm_agents::ganglia::GangliaAgent;
use gridrm_core::{Gateway, GatewayConfig};
use gridrm_dbc::{Driver, JdbcUrl, Properties, ResultSet, ResultSetMetaData, RowSet};
use gridrm_drivers::base::DriverEnv;
use gridrm_drivers::ganglia::{parse_dump, GangliaDriver};
use gridrm_drivers::snmp::SnmpDriver;
use gridrm_drivers::telemetry::TelemetryDriver;
use gridrm_drivers::xml::{Tag, Tags};
use gridrm_glue::SchemaManager;
use gridrm_resmodel::{SiteModel, SiteSpec};
use gridrm_simnet::{Network, SimClock};
use gridrm_sqlparse::{SqlType, SqlValue};
use gridrm_telemetry::CostVector;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calling thread's allocations.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract (`realloc` and
// `alloc_zeroed` keep their default bodies, which call `alloc`); the
// count is a `Cell` with a constant initialiser and no destructor, so
// touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` was allocated here with
        // `layout`; both are passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_of<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_warm_point_query_allocates_for_one_fine_grained_exchange() {
    let net = Network::new(SimClock::new(), 2);
    let site = SiteModel::generate(42, &SiteSpec::new("serve", 8, 4));
    site.advance_to(60_000);
    deploy_site(&net, site);
    let schema = Arc::new(SchemaManager::new());
    schema.register_mapping(gridrm_drivers::mappings::snmp_mapping());
    let driver = SnmpDriver::new(DriverEnv::new(net, schema, "gw"));
    let url = JdbcUrl::parse("jdbc:snmp://node03.serve/public").unwrap();
    let mut conn = driver.connect(&url, &Properties::new()).unwrap();
    let mut stmt = conn.create_statement().unwrap();
    let mut run = || {
        let rs = stmt
            .execute_query("SELECT Hostname, NCpu, Load1 FROM Processor")
            .unwrap();
        rs.into_rowset().unwrap()
    };
    // The first query parses the three native keys' OIDs and builds the
    // agent's object table; every later one finds both in place.
    let warm = run();

    let (rows, allocations) = allocations_of(run);
    assert_eq!(rows.rows(), warm.rows());
    assert_eq!(rows.rows()[0][0], SqlValue::Str("node03.serve".into()));
    assert_eq!(driver.stats().snapshot().1, 3, "connect probe + 2 GETs");
    // Measured 83 (85 before GLUE plans: the needed keys were listed
    // twice, and a translated hostname copied twice), of which the
    // agent's answer is 40 (`crates/agents/tests/alloc_guard.rs`).
    assert!(allocations <= 83, "query: {allocations}");
}

#[test]
fn handing_over_a_driver_rowset_allocates_nothing() {
    let meta =
        ResultSetMetaData::from_pairs(&[("Hostname", SqlType::Str), ("Load1", SqlType::Float)]);
    let rows = (0..32)
        .map(|i| vec![SqlValue::Str(format!("node{i:02}")), SqlValue::Float(0.5)])
        .collect();
    let rs: Box<dyn ResultSet> = Box::new(RowSet::new(meta, rows).unwrap());
    let (rows, allocations) = allocations_of(|| rs.into_rowset().unwrap());
    assert_eq!(rows.len(), 32);
    assert_eq!(allocations, 0);
}

/// The gmond dump of a 32-host site, as `coarse_scan` fetches it.
fn gmond_dump() -> String {
    let site = SiteModel::generate(1, &SiteSpec::new("serve", 32, 4));
    site.advance_to(600_000);
    GangliaAgent::new(site).dump()
}

#[test]
fn draining_an_entity_free_dump_allocates_nothing() {
    let xml = gmond_dump();
    assert!(!xml.contains('&'));
    let ((tags, attrs), allocations) = allocations_of(|| {
        let (mut tags, mut attrs) = (0, 0);
        for tag in Tags::new(&xml) {
            tags += 1;
            if let Tag::Open(_, all) | Tag::SelfClose(_, all) = tag.unwrap() {
                for attr in all {
                    attr.unwrap();
                    attrs += 1;
                }
            }
        }
        (tags, attrs)
    });
    assert_eq!((tags, attrs), (708, 2662));
    assert_eq!(allocations, 0);
}

#[test]
fn a_narrow_gmond_parse_allocates_only_the_rows_it_keeps() {
    let xml = gmond_dump();
    let keep = ["host.name", "load_one"];
    let (rows, allocations) = allocations_of(|| parse_dump(&xml, Some(&keep)).unwrap());
    assert_eq!(rows.len(), 32);
    assert!(rows.iter().all(|row| row.len() == 2));
    // Measured 132: per host its map, two key strings and the name,
    // plus four growths of the row vector (164 at the parent commit,
    // which also copied out every host's unkept IP).
    assert!(allocations <= 132, "parse: {allocations}");
}

#[test]
fn a_warm_ganglia_filter_reads_the_cached_dump_in_place() {
    let net = Network::new(SimClock::new(), 2);
    let site = SiteModel::generate(1, &SiteSpec::new("serve", 16, 4));
    site.advance_to(60_000);
    deploy_site(&net, site);
    let schema = Arc::new(SchemaManager::new());
    schema.register_mapping(gridrm_drivers::mappings::ganglia_mapping());
    let driver = GangliaDriver::new(DriverEnv::new(net, schema, "gw"));
    let url = JdbcUrl::parse("jdbc:ganglia://node00.serve/serve").unwrap();
    let mut conn = driver.connect(&url, &Properties::new()).unwrap();
    let mut stmt = conn.create_statement().unwrap();
    let mut run = || {
        let rs = stmt
            .execute_query("SELECT Hostname, Load1 FROM Processor WHERE Hostname < 'node08'")
            .unwrap();
        rs.into_rowset().unwrap()
    };
    // The connect fetched the dump; the first query parses it in full.
    let warm = run();

    let (rows, allocations) = allocations_of(run);
    assert_eq!(rows.rows(), warm.rows());
    assert_eq!(rows.len(), 8);
    assert_eq!(
        driver.stats().snapshot().1,
        1,
        "one gmond fetch, at connect"
    );
    // Measured 93 (178 before GLUE plans, when the needed keys of all
    // 16 parsed hosts were copied into new rows on every query and
    // each translated hostname copied twice).
    assert!(allocations <= 93, "query: {allocations}");
}

/// The allocations of one warm `mixed_churn` cost query through the
/// telemetry driver, over a ledger of `entries` root queries whose
/// `bytes_in` mostly tie, as a busy gateway's do.
fn cost_query_allocations(entries: u64) -> u64 {
    let net = Network::new(SimClock::new(), 3);
    let gateway = Gateway::new(GatewayConfig::new("gw", "site"), net.clone());
    let t = gateway.telemetry();
    for i in 0..entries {
        let mut root = t.span(format!("SELECT Load1 FROM Processor -- {i}"));
        root.add_cost(&CostVector {
            msgs_out: 2,
            bytes_in: if i % 5 == 0 { (i * 37) % 1024 } else { 512 },
            rows_returned: i % 4,
            ..CostVector::default()
        });
        root.finish("ok");
    }
    let env = DriverEnv::new(net, gateway.schema().clone(), "gw");
    let driver = TelemetryDriver::new(env, gateway.admin());
    let url = JdbcUrl::parse("jdbc:telemetry://local/metrics").unwrap();
    let mut conn = driver.connect(&url, &Properties::new()).unwrap();
    let mut stmt = conn.create_statement().unwrap();
    let mut run = || {
        let mut rs = stmt
            .execute_query(
                "SELECT request, msgs_out, bytes_in, rows_returned \
                 FROM gridrm_query_costs ORDER BY bytes_in DESC LIMIT 8",
            )
            .unwrap();
        RowSet::materialize(rs.as_mut()).unwrap()
    };
    let warm = run();
    let (rows, allocations) = allocations_of(run);
    assert_eq!(rows.rows(), warm.rows());
    assert_eq!(rows.len(), 8);
    allocations
}

#[test]
fn a_cost_query_allocates_less_than_once_per_extra_ledger_entry() {
    let short = cost_query_allocations(32);
    let full = cost_query_allocations(256);
    // Rendering every entry costs several allocations each; reading
    // only the sort key of an entry that stays out of the top 8 costs
    // none.
    assert!(
        full < short + 224,
        "32 entries: {short} allocations, 256 entries: {full}"
    );
}
