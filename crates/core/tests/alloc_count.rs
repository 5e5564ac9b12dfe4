//! Pins the node layout's allocation cost: a SkipQueue node, header and
//! tower together, is exactly one heap allocation.
//!
//! A counting global allocator tallies the allocations made by the test's
//! own thread (a const-initialized thread-local, so counting allocates
//! nothing and ignores the test harness's threads). After a warm-up that
//! registers the thread with the queue's collector, every `insert` into a
//! single-thread eager queue must allocate its node and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use skipqueue::SkipQueue;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

// SAFETY: every block comes from and returns to `System`; the counter is a
// plain thread-local `Cell` with no destructor. The default `alloc_zeroed`
// and `realloc` allocate through `alloc`, so they are counted too.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's block and layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn each_insert_makes_exactly_one_allocation() {
    const N: usize = 10_000;
    let q: SkipQueue<u64, u64> = SkipQueue::new();
    // Warm-up: the first operations register this thread with the
    // collector and touch every lazily initialized piece of state.
    for k in 0..64 {
        q.insert(k, k);
    }
    while q.delete_min().is_some() {}

    let before = allocs();
    for k in 0..N as u64 {
        q.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k);
    }
    let made = allocs() - before;
    assert_eq!(q.len(), N);
    assert_eq!(made, N, "{N} inserts made {made} heap allocations");
}
