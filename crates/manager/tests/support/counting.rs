//! The counting allocator of the tests that pin heap traffic; a test
//! file takes it with `#[path = "support/counting.rs"] mod counting;`
//! and becomes a process whose every allocation is counted.
//!
//! Calls are counted per thread — the test harness's own threads
//! allocate now and then, and an exact count cannot absorb that. Live
//! bytes are process-wide, so a file that reads them holds one test: a
//! concurrent test's heap would be measured too.

// Each test file reads its own subset of the counters.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

struct Counting;

thread_local! {
    // No destructors, so the allocator may touch these at any point of
    // a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    counter.with(|n| n.set(n.get() + 1));
}

/// Allocations this thread has made.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Reallocations this thread has made.
pub fn reallocs() -> u64 {
    REALLOCS.with(Cell::get)
}

/// Frees this thread has made.
pub fn frees() -> u64 {
    FREES.with(Cell::get)
}

/// Bytes the process has allocated and not freed.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;
