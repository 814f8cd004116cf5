//! Allocation guard for the wire codec: decoding the `cached_point`
//! query frame and encoding its reply allocate what the message itself
//! owns and nothing more. The counts do not depend on the host, so a
//! `Value` tree (or any other intermediate copy) coming back between a
//! typed message and its text fails here, where a timing would not.

use gridrm_core::acil::{OutcomeStatus, SourceOutcome};
use gridrm_global::{GlobalRequest, GlobalResponse, WireFrame, WireIdentity, WireRows};
use gridrm_sqlparse::{SqlType, SqlValue};
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

const SOURCE: &str = "jdbc:snmp://node03.serve/public";

#[test]
fn point_query_decode_and_reply_encode_allocate_only_what_they_keep() {
    let frame = WireFrame::encode(&GlobalRequest::Query {
        from_gateway: "wire-client".to_owned(),
        identity: WireIdentity {
            name: "wire-client".to_owned(),
            roles: vec!["admin".to_owned()],
        },
        sources: vec![SOURCE.to_owned()],
        sql: "SELECT Hostname, NCpu, Load1 FROM Processor".to_owned(),
        max_cache_age_ms: Some(60_000),
        trace: None,
        deadline_ms: None,
    })
    .into_bytes();
    let reply = GlobalResponse::Rows {
        rows: WireRows {
            columns: vec![
                ("Hostname".to_owned(), SqlType::Str, None),
                ("NCpu".to_owned(), SqlType::Int, None),
                ("Load1".to_owned(), SqlType::Float, None),
            ],
            rows: vec![vec![
                SqlValue::Str("node03".to_owned()),
                SqlValue::Int(4),
                SqlValue::Float(0.42),
            ]],
        },
        warnings: Vec::new(),
        served_from_cache: 1,
        spans: Vec::new(),
        elapsed_ms: 0,
        outcomes: vec![SourceOutcome::success(SOURCE, OutcomeStatus::Cached, 0)],
    };

    // Five owned strings (gateway, name, role, source, SQL) and two
    // vectors (roles, sources); keys are matched where they lie.
    let (decoded, decode_allocations) =
        allocations_of(|| WireFrame::decode::<GlobalRequest>(&frame));
    assert!(decoded.is_ok());
    assert!(decode_allocations <= 7, "decode: {decode_allocations}");

    // The frame's buffer, sized once, and the call that trims it to
    // the frame's length (a `realloc`, which `Counting` sees as `alloc`).
    let (encoded, encode_allocations) = allocations_of(|| WireFrame::encode(&reply));
    assert!(encode_allocations <= 2, "encode: {encode_allocations}");
    assert!(
        encoded.len() < 512,
        "the reply outgrew encode's first buffer"
    );
}
