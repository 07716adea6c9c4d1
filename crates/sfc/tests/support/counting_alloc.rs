//! Shared counting-allocator harness for this crate's zero-allocation
//! suites (`alloc_free.rs`, `dynamic_alloc.rs`), included via
//! `#[path]` so each test binary gets its own `#[global_allocator]`.
//! Each binary must hold exactly one live `#[test]` so no concurrent
//! test pollutes the count.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAllocator;

thread_local! {
    /// Whether this thread has the gate open. Only the opening thread's
    /// allocations count, so the test harness's own thread cannot fail
    /// the gate; a thread spawned inside the gate is still caught,
    /// because spawning allocates on the opening thread.
    static GATE_OPEN: Cell<bool> = const { Cell::new(false) };
}
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn gate_open() -> bool {
    GATE_OPEN.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        if gate_open() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        if gate_open() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with the allocation gate open on this thread, returning its
/// result and the number of heap allocations performed inside.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    GATE_OPEN.set(true);
    let result = f();
    GATE_OPEN.set(false);
    (result, ALLOCATIONS.load(Ordering::SeqCst))
}
