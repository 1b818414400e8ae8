//! A counting global allocator for the allocation-budget tests
//! (`idle_alloc.rs`, `heldfor_alloc.rs`). A test binary that declares
//! `mod counting_alloc;` installs it process-wide, which is why each of
//! those tests lives in its own integration binary.
//!
//! Only allocations made on a thread inside [`allocations_during`] are
//! counted — libtest's harness threads (timers, stdout capture) allocate
//! concurrently and must not pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting_here() -> bool {
    // try_with: the allocator can be called during TLS teardown.
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_here() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the number of heap allocations
/// and reallocations it made on the calling thread.
pub fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNTING.with(|c| c.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(false));
    (out, after - before)
}
