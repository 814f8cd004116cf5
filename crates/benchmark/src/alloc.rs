//! A counting `#[global_allocator]`: allocations and bytes requested
//! by the *current thread*, so the harness can bracket one in-process
//! `handle_frame` call and read an exact per-request count.
//!
//! The counters are thread-local plain cells (no atomics, no lock
//! prefix), which keeps the allocator cheap enough to leave on during
//! the timed replays: the serving threads of the TCP pass count into
//! their own cells and never touch the harness thread's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: a thread tearing down may allocate after its locals
    // are gone; those allocations are nobody's request.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

/// The system allocator plus per-thread counting.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// `Cell`s with constant initialisers and no destructor, so it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`, `layout` and `new_size` come from the caller,
        // who guarantees `ptr` was allocated here with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` was allocated here with
        // `layout`; both are passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` by the calling thread so far.
pub fn thread_totals() -> (u64, u64) {
    (
        COUNT.try_with(Cell::get).unwrap_or(0),
        BYTES.try_with(Cell::get).unwrap_or(0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_exactly() {
        let (c0, b0) = thread_totals();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let (c1, b1) = thread_totals();
        drop(v);
        assert_eq!(c1 - c0, 1);
        assert_eq!(b1 - b0, 4096);
        // Another thread's allocations land in its own cells.
        std::thread::spawn(|| drop(vec![0u8; 1 << 16]))
            .join()
            .expect("allocating thread");
        let (c2, _) = thread_totals();
        // Spawning allocates a little on this thread, but never 64 KiB.
        assert!(thread_totals().1 - b1 < 1 << 16, "c2={c2}");
    }
}
