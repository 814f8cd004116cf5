//! Allocation guard for the JDBC-SNMP driver: one warm `Processor` point
//! query over a connection that is already open — the benchmark's
//! `realtime_snmp` statement as the pool runs it — through the real
//! driver kit, the SNMP codec, the simulated network and the agent. The
//! count does not depend on the host, so an OID parsed from or printed to
//! text on this path, a cloned field mapping or an agent that builds
//! more than the request names fails here, where a timing would not.

use gridrm_agents::deploy_site;
use gridrm_dbc::{Driver, JdbcUrl, Properties, RowSet};
use gridrm_drivers::base::DriverEnv;
use gridrm_drivers::snmp::SnmpDriver;
use gridrm_glue::SchemaManager;
use gridrm_resmodel::{SiteModel, SiteSpec};
use gridrm_simnet::{Network, SimClock};
use gridrm_sqlparse::SqlValue;
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
        let mut rs = stmt
            .execute_query("SELECT Hostname, NCpu, Load1 FROM Processor")
            .unwrap();
        RowSet::materialize(rs.as_mut()).unwrap()
    };
    // The first query parses the three native keys' OIDs and builds the
    // agent's object table; every later one finds both in place.
    let warm = run();

    let (rows, allocations) = allocations_of(run);
    assert_eq!(rows.rows(), warm.rows());
    assert_eq!(rows.rows()[0][0], SqlValue::Str("node03.serve".into()));
    assert_eq!(driver.stats().snapshot().1, 3, "connect probe + 2 GETs");
    // Measured 142 (328 at the parent commit, with this file), of which
    // the agent's answer is 40 (`crates/agents/tests/alloc_guard.rs`).
    assert!(allocations <= 150, "query: {allocations}");
}
