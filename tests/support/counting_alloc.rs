//! The counting global allocator behind every zero-allocation contract
//! test, included into each `alloc` test binary with
//! `#[path = "…/tests/support/counting_alloc.rs"] mod counting_alloc;`.
//!
//! Only allocations made on the thread running [`allocations`] are
//! counted, and only while its closure runs: the test harness's other
//! threads (its main thread keeps allocating while a test runs) can never
//! land in a measured window, and tests of one binary may run
//! concurrently. Reallocations count as allocations (the default
//! `GlobalAlloc::realloc` goes through `alloc`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// This thread's count while it measures; `None` otherwise. `const`
    /// initialised and drop-free, so reading it never allocates.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread past its thread-local teardown counts nothing.
        let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on the calling thread.
pub fn allocations(f: impl FnOnce()) -> usize {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.take()).unwrap_or(0)
}
