//! `RLCX_THREADS` is read once per process: after the first
//! [`thread_count`] call, the lookup returns the configured count without
//! touching the environment or the heap — it runs on every parallel
//! dispatch and every GMRES matvec.
//!
//! This lives in its own test binary because it sets `RLCX_THREADS` before
//! the first lookup and installs a counting `#[global_allocator]`; no other
//! test may race on either.

use rlcx::numeric::thread_count;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread (the harness allocates on
    /// other threads); `const` with no destructor, so counting itself
    /// never allocates.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn env_thread_count_is_read_once_and_allocation_free() {
    std::env::set_var("RLCX_THREADS", "3");
    assert_eq!(thread_count(), 3, "first lookup reads RLCX_THREADS");
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    let mut total = 0;
    for _ in 0..100 {
        total += thread_count();
    }
    let allocations = THREAD_ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(total, 300);
    assert_eq!(allocations, 0, "thread_count() allocated on a warm lookup");
}
