//! Pins the allocation cost of the node layer and of the collector's node
//! pools: a SkipQueue node, header and tower together, is one heap
//! allocation when no reclaimed block of its height is pooled; a thread in
//! steady state reuses the blocks its own deletes reclaimed instead; and
//! a queue that never recycles pays nothing for the pools.
//!
//! A counting global allocator tallies the allocations made by the test's
//! own thread (a const-initialized thread-local, so counting allocates
//! nothing and ignores the test harness's threads).

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

/// Scrambles `k` so consecutive inserts land all over the list.
fn spread(k: u64) -> u64 {
    k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[test]
fn each_insert_into_an_empty_pool_makes_exactly_one_allocation() {
    const N: usize = 10_000;
    let q: SkipQueue<u64, u64> = SkipQueue::new();
    // Warm-up: the first operations register this thread with the
    // collector and touch every lazily initialized piece of state. Fewer
    // deletes than the collection threshold, so nothing is reclaimed yet
    // and this thread's node pool stays empty.
    for k in 0..8 {
        q.insert(k, k);
    }
    while q.delete_min().is_some() {}

    let before = allocs();
    for k in 0..N as u64 {
        q.insert(spread(k), k);
    }
    let made = allocs() - before;
    assert_eq!(q.len(), N);
    assert_eq!(made, N, "{N} inserts made {made} heap allocations");
}

#[test]
fn steady_state_hold_reuses_reclaimed_blocks() {
    const SIZE: u64 = 1_000;
    const HOLDS: usize = 10_000;
    let q: SkipQueue<u64, u64> = SkipQueue::new();
    for k in 0..SIZE {
        q.insert(spread(k) >> 8, k);
    }
    // One hold: pop the minimum, push a later event.
    let hold = |i: u64| {
        let (k, v) = q.delete_min().expect("the hold keeps the queue full");
        q.insert(k + 1 + spread(i) % 4_096, v);
    };
    // Warm-up: fill this thread's node pool.
    for i in 0..HOLDS as u64 {
        hold(i);
    }

    let before = allocs();
    for i in 0..HOLDS as u64 {
        hold(i);
    }
    let made = allocs() - before;
    assert_eq!(q.len(), SIZE as usize);
    assert!(
        made <= HOLDS / 5,
        "{HOLDS} holds made {made} heap allocations; expected at most {}",
        HOLDS / 5
    );
}

#[test]
fn constructing_and_dropping_a_queue_allocates_no_pool() {
    // The two sentinels and the collector's slot table. Node pools are
    // created by a thread's first recycle, so an untouched queue (like
    // each shard a sharded front-end builds and drops) pays nothing for
    // them.
    let before = allocs();
    drop(SkipQueue::<u64, u64>::new());
    assert_eq!(allocs() - before, 3);
}
