//! Allocation guard for the SNMP agent: answering the benchmark's
//! three-OID `Processor` GET allocates for the snapshot, the request and
//! the reply, and for nothing that the request does not name. The count
//! does not depend on the host, so a whole MIB (or any OID parsed from
//! text) coming back between a request and its reply fails here, where a
//! timing would not.

use gridrm_agents::snmp::codec::{self, Pdu, SnmpMessage};
use gridrm_agents::snmp::{oids, SnmpAgent};
use gridrm_resmodel::{SiteModel, SiteSpec};
use gridrm_simnet::Service;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// What the same GET cost when the agent built its whole MIB per
/// request (measured at the parent commit with this file).
const MAP_BUILDING_AGENT: u64 = 188;

#[test]
fn a_three_oid_get_allocates_for_what_it_names() {
    let site = SiteModel::generate(42, &SiteSpec::new("serve", 8, 4));
    site.advance_to(60_000);
    let agent = SnmpAgent::new(site, "node03.serve", "public");
    let oid = |text: &str| text.parse().expect("static OID");
    let request = codec::encode(&SnmpMessage::v2c(
        "public",
        Pdu::Get {
            request_id: 0,
            oids: vec![
                oid(oids::SYS_NAME),
                oid(oids::HR_NUM_CPU),
                oid(&format!("{}.1", oids::LA_LOAD_INT)),
            ],
        },
    ));
    // The first request builds the agent's object table.
    let warm = agent.handle("gw", &request);

    let (reply, allocations) = allocations_of(|| agent.handle("gw", &request));
    assert_eq!(reply, warm);
    let Ok(Pdu::Response { bindings, .. }) = codec::decode(&reply).map(|msg| msg.pdu) else {
        panic!("not a response");
    };
    assert_eq!(bindings.len(), 3);
    // Measured 40: 27 for the host snapshot (the spec's and the tables'
    // strings), 7 to decode the request, 6 to build and encode the reply.
    assert!(allocations <= 44, "GET: {allocations}");
    assert!(allocations * 2 < MAP_BUILDING_AGENT, "GET: {allocations}");
}
