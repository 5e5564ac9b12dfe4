//! Quiescence-based memory reclamation — the paper's garbage-collection
//! scheme.
//!
//! Section 3 of the paper: *"it is safe to free the memory used by a
//! particular node only after all the processors that were in the structure
//! when the node was deleted have already exited the structure."* Each
//! processor registers the time it entered the structure; unlinked nodes are
//! stamped with their deletion time and freed once the oldest registered
//! entry time is newer than the deletion stamp.
//!
//! The paper dedicates one processor to collection; here every thread
//! collects its own garbage list when it grows past a threshold (the paper
//! itself notes the task "can be split/shared among processors").
//!
//! ## Node recycling
//!
//! The paper's collector hands reclaimed nodes back to a per-processor
//! pool, and so does this one (the simulator's free-list allocator in
//! `pqsim` does the same). When the threshold path reclaims a node, its
//! payload is dropped but its block goes to the collecting thread's pool,
//! one free list per tower height, and that thread's next insert of the
//! same height reuses it instead of calling the allocator:
//!
//! * **Own slot only.** The threshold path reclaims only the calling
//!   thread's own garbage list and refills only its own pool, so in a hold
//!   loop each thread's supply of blocks matches its demand. (Sweeping
//!   every slot into the collector's pool unbalances the pools.) Garbage a
//!   thread leaves behind when it exits waits for an explicit
//!   [`Collector::collect`] or the collector's drop, which sweep every slot
//!   and also return every pooled block to the allocator.
//! * **Bounded.** A pool holds at most `POOL_CAP` blocks, 64 collections'
//!   worth; overflow goes to the allocator.
//! * **Lazy.** A slot's pool is allocated by its first recycle, so idle
//!   slots cost nothing to build or tear down.
//! * **Poisoned in debug builds.** A pooled block is never freed, so
//!   AddressSanitizer cannot see a stale read of one; debug builds overwrite
//!   it (all but the free-list link) with a poison pattern instead (see
//!   `Node::into_pooled`).
//!
//! Recycling changes where memory goes, not when: a block is reused only
//! after the same quiescence test that would free it. Without recycling,
//! a producer thread's nodes freed by consumer threads land in the
//! producer's malloc arena, which the consumers never allocate from, so
//! a hold loop on a prefilled queue ends up holding two copies of the list.
//!
//! ## Entry announcements
//!
//! This is a QSBR-style scheme over one [`TimestampClock`], the same one the
//! owning queue stamps its inserts on and reads its delete-min start times
//! from (extra ticks only widen the gaps between values). A retire takes a
//! fresh deletion stamp with a `tick`, a `fetch_add` that returns `r`. A pin
//! only *reads* the clock (`peek`), like the paper's `getTime()`, stores the
//! value `e` in its slot and issues one `SeqCst` fence (as in
//! crossbeam-epoch) before it reads any pointer into the structure:
//!
//! * A pin whose read comes after the retire's `fetch_add` sees `e > r`,
//!   and its read synchronizes with that `fetch_add`, so it also sees the
//!   unlink (and the batched cleaner's hint store) that came before it: the
//!   node is out of its reach and may go.
//! * A pin whose read comes before sees `e <= r` and may reach the node, so
//!   the node is kept while that entry is announced. `e == r` is possible
//!   (ticks are unique, reads are not) and means "pinned before the
//!   retire": reclamation frees only stamps strictly below the oldest
//!   entry, and `Collector::wait_for_readers` waits while an entry is at
//!   or below its stamp.
//! * A collector fences before it reads the slots. Either it sees the
//!   pin's entry, or the pin's fence comes later and everything the
//!   collector saw unlinked is unlinked for the pinned reader too.
//!
//! So a pin writes only its own slot: no shared counter is bumped. The
//! slot itself is found through a one-entry thread-local `(collector id,
//! slot)` cache in front of a per-thread map; a thread that alternates
//! collectors (a sharded queue's shards) falls through to the map.
//!
//! Slots are claimed in index order and never released, so a high-water
//! mark of claimed slots bounds every scan: the oldest-entry scan and the
//! length sum read only slots a thread has ever used, not all
//! `max_threads` of them. A claim raises the mark before the claimer's
//! first pin announces anything.
//!
//! ## Length shares
//!
//! Each slot also holds its thread's share of the owning queue's length:
//! the items its inserts added minus the items its deletes removed. Only
//! the owner writes it, with a plain load and store, so counting an item
//! costs no shared read-modify-write. `Collector::len` sums the shares; a
//! single share may be negative (a thread that only deletes), the sum is
//! exact at quiescence.
//!
//! `Collector::wait_for_readers` turns the same announcements into a grace
//! period: the eager `delete_min` uses it to hold back a popped key with drop
//! glue until no search can still compare it.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicIsize, AtomicU64, AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

use crate::clock::TimestampClock;
use crate::node::{Node, MAX_HEIGHT};

/// "Thread is outside the structure."
const OUTSIDE: u64 = u64::MAX;

/// Collect the slot's own garbage once it holds this many retired nodes.
const COLLECT_THRESHOLD: usize = 64;

/// Most node blocks one slot's pool keeps for reuse, across all heights.
/// A peer descheduled while pinned holds back reclamation; the garbage it
/// held back comes back as one large batch once it exits, and the pool
/// keeps enough of it to cover the inserts the owner makes during the next
/// such stall instead of passing it to the allocator.
const POOL_CAP: usize = 64 * COLLECT_THRESHOLD;

struct Retired<K, V> {
    ptr: *mut Node<K, V>,
    ts: u64,
}

struct Slot<K, V> {
    /// Stable token of the owning thread; 0 = unclaimed.
    owner: AtomicUsize,
    /// Entry timestamp, or [`OUTSIDE`].
    entry: AtomicU64,
    /// The owning thread's share of the queue length; written only by the
    /// owner (see the module docs).
    len: AtomicIsize,
    /// Nodes retired by the owning thread, awaiting quiescence, in stamp
    /// order (only the owner appends, and its stamps only grow).
    garbage: Mutex<Vec<Retired<K, V>>>,
    /// Reclaimed blocks awaiting reuse by the owning thread's inserts;
    /// `None` until the slot first recycles. Never locked while user `Drop`
    /// code runs on a key or value.
    pool: Mutex<Option<Box<Pool<K, V>>>>,
}

/// Emptied node blocks, one intrusive free list per tower height.
struct Pool<K, V> {
    /// Top of the free list of `height`-level blocks, at `height - 1`.
    heads: [*mut Node<K, V>; MAX_HEIGHT],
    /// Blocks across all lists; at most [`POOL_CAP`].
    len: usize,
}

impl<K, V> Pool<K, V> {
    fn new() -> Box<Self> {
        Box::new(Pool {
            heads: [std::ptr::null_mut(); MAX_HEIGHT],
            len: 0,
        })
    }

    fn pop(&mut self, height: usize) -> Option<*mut Node<K, V>> {
        let head = &mut self.heads[height - 1];
        if head.is_null() {
            return None;
        }
        let block = *head;
        // SAFETY: a block on this pool's list, owned by the pool.
        *head = unsafe { Node::pooled_next(block) };
        self.len -= 1;
        Some(block)
    }

    /// Pools an emptied `height`-level block, or returns it to the
    /// allocator when the pool is full.
    ///
    /// # Safety
    ///
    /// `block` must be an exclusively owned `height`-level block holding no
    /// live node, never accessed by anyone else again.
    unsafe fn push(&mut self, block: *mut Node<K, V>, height: usize) {
        // SAFETY: forwarded contract.
        unsafe {
            if self.len == POOL_CAP {
                Node::free_block(block, height);
                return;
            }
            let head = &mut self.heads[height - 1];
            Node::into_pooled(block, height, *head);
            *head = block;
        }
        self.len += 1;
    }

    /// Returns every pooled block to the allocator.
    fn free_all(mut self: Box<Self>) {
        for height in 1..=MAX_HEIGHT {
            while let Some(block) = self.pop(height) {
                // SAFETY: popped from the pool, which owned it alone.
                unsafe { Node::free_block(block, height) };
            }
        }
    }
}

/// The per-queue collector: one announcement slot per thread, plus the
/// stamp clock it shares with its queue.
pub struct Collector<K, V> {
    id: u64,
    clock: TimestampClock,
    /// One past the highest slot index ever claimed; every slot below it
    /// is claimed, every slot from it on is unused.
    claimed: AtomicUsize,
    slots: Box<[CachePadded<Slot<K, V>>]>,
}

// SAFETY: the raw node pointers in garbage lists are exclusively owned
// retired nodes; they are only dereferenced when reclaimed under the
// quiescence rule, and the key/value they carry are sent between threads.
// Pooled blocks hold no key or value and are reached only under their
// slot's pool lock.
unsafe impl<K: Send, V: Send> Send for Collector<K, V> {}
unsafe impl<K: Send, V: Send> Sync for Collector<K, V> {}

/// Pin guard: while alive, no node unlinked *after* the pin may be freed.
pub struct Guard<'a, K, V> {
    collector: &'a Collector<K, V>,
    raw: RawGuard,
}

impl<K, V> Drop for Guard<'_, K, V> {
    fn drop(&mut self) {
        self.collector.exit(self.raw);
    }
}

/// Manual-lifecycle pin token for the shared-algorithm platform hooks: the
/// algorithm layer registers entry/exit explicitly (the paper's §3 registry
/// writes), so the native platform cannot use a borrow-carrying guard.
///
/// `nested` marks a re-entrant pin on an already-pinned thread (a test
/// phase hook injecting an insert from inside a cleanup sweep): the outer,
/// older announcement is kept and the nested exit is a no-op, so the outer
/// pin's protection is never retracted early.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RawGuard {
    slot: usize,
    nested: bool,
}

fn collector_ids() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A stable, nonzero per-thread token: the address of a thread-local.
fn thread_token() -> usize {
    thread_local! {
        static TOKEN: u8 = const { 0 };
    }
    TOKEN.with(|t| t as *const u8 as usize)
}

thread_local! {
    /// The last `(collector id, slot index)` this thread looked up. Ids
    /// start at 1, so the initial entry never matches.
    static LAST_SLOT: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
    /// Maps collector id -> claimed slot index, per thread.
    static SLOT_CACHE: RefCell<HashMap<u64, usize>> = RefCell::new(HashMap::new());
}

impl<K, V> Collector<K, V> {
    /// Creates a collector supporting up to `max_threads` distinct threads
    /// over the collector's lifetime (slots are claimed permanently; see the
    /// crate docs).
    pub fn new(max_threads: usize) -> Self {
        assert!(max_threads >= 1);
        let slots = (0..max_threads)
            .map(|_| {
                CachePadded::new(Slot {
                    owner: AtomicUsize::new(0),
                    entry: AtomicU64::new(OUTSIDE),
                    len: AtomicIsize::new(0),
                    garbage: Mutex::new(Vec::new()),
                    pool: Mutex::new(None),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            id: collector_ids(),
            clock: TimestampClock::new(),
            claimed: AtomicUsize::new(0),
            slots,
        }
    }

    fn claim_slot(&self) -> usize {
        let token = thread_token();
        // Re-find a slot this thread already owns (cache miss after the
        // thread-local map was dropped, or first touch), else claim a free
        // one.
        for (i, s) in self.claimed_slots().iter().enumerate() {
            if s.owner.load(Ordering::Relaxed) == token {
                return i;
            }
        }
        for (i, s) in self.slots.iter().enumerate() {
            if s.owner.load(Ordering::Relaxed) == 0
                && s.owner
                    .compare_exchange(0, token, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                // Before this thread's first pin: the pin's fence then
                // publishes the mark along with the entry.
                self.claimed.fetch_max(i + 1, Ordering::SeqCst);
                return i;
            }
        }
        panic!(
            "collector slot table exhausted: more than {} threads used this queue; \
             construct it with a larger `max_threads`",
            self.slots.len()
        );
    }

    fn slot_index(&self) -> usize {
        match LAST_SLOT.get() {
            (id, idx) if id == self.id => idx,
            _ => self.slot_index_slow(),
        }
    }

    /// The front cache missed: look the slot up in (or claim it into) the
    /// per-thread map, and make it the front entry.
    fn slot_index_slow(&self) -> usize {
        let idx = SLOT_CACHE.with(|c| {
            *c.borrow_mut()
                .entry(self.id)
                .or_insert_with(|| self.claim_slot())
        });
        LAST_SLOT.set((self.id, idx));
        idx
    }

    /// The clock behind entry announcements and deletion stamps. The
    /// owning queue stamps its inserts and reads its delete-min start
    /// times on it too, so a hold touches one shared counter, not two.
    pub(crate) fn clock(&self) -> &TimestampClock {
        &self.clock
    }

    /// The claimed prefix of the slot table.
    fn claimed_slots(&self) -> &[CachePadded<Slot<K, V>>] {
        &self.slots[..self.claimed.load(Ordering::SeqCst)]
    }

    /// Announces that the current thread is inside the structure and returns
    /// a guard that retracts the announcement on drop.
    pub fn pin(&self) -> Guard<'_, K, V> {
        Guard {
            collector: self,
            raw: self.enter(),
        }
    }

    /// Manual-lifecycle variant of [`Collector::pin`]: announces entry and
    /// returns a token the caller must pass back to [`Collector::exit`].
    /// Re-entrant on the same thread (see [`RawGuard`]).
    pub(crate) fn enter(&self) -> RawGuard {
        let slot_idx = self.slot_index();
        let slot = &self.slots[slot_idx];
        if slot.entry.load(Ordering::Relaxed) != OUTSIDE {
            // Already pinned by an outer operation on this thread: keep the
            // older (more conservative) announcement.
            return RawGuard {
                slot: slot_idx,
                nested: true,
            };
        }
        // A read, not a tick: see "Entry announcements" in the module docs.
        slot.entry.store(self.clock.peek(), Ordering::Relaxed);
        // Make the announcement visible before any pointer into the
        // structure is read (crossbeam-epoch-style publication fence).
        fence(Ordering::SeqCst);
        RawGuard {
            slot: slot_idx,
            nested: false,
        }
    }

    /// Retracts an [`Collector::enter`] announcement (no-op for a nested
    /// token — the outer exit retracts it).
    pub(crate) fn exit(&self, g: RawGuard) {
        if !g.nested {
            self.slots[g.slot].entry.store(OUTSIDE, Ordering::Release);
        }
    }

    /// Retires an unlinked node: it will be reclaimed once every thread
    /// that was inside the structure at this moment has exited. Returns the
    /// deletion stamp (see [`Collector::wait_for_readers`]).
    ///
    /// # Safety
    ///
    /// `ptr` must be a fully unlinked node from the owning queue, retired at
    /// most once, with no new references to it created after unlinking
    /// (traversals holding older references are exactly what the quiescence
    /// rule waits out). The calling thread must currently be entered with
    /// `g`.
    pub(crate) unsafe fn retire(&self, g: RawGuard, ptr: *mut Node<K, V>) -> u64 {
        // SAFETY: forwarded contract.
        unsafe { self.retire_batch(g, std::iter::once(ptr)) }
    }

    /// Retires a whole group of unlinked nodes as one unit: a single
    /// deletion stamp covers the group and the slot's garbage lock is taken
    /// once, so a batched physical delete amortizes the retirement
    /// bookkeeping the same way it amortizes the unlinking itself. The
    /// group becomes reclaimable atomically — once every thread that was
    /// inside the structure at this moment has exited. Returns the stamp.
    ///
    /// # Safety
    ///
    /// Every pointer must satisfy the [`Collector::retire`] contract.
    pub(crate) unsafe fn retire_batch<I>(&self, g: RawGuard, ptrs: I) -> u64
    where
        I: IntoIterator<Item = *mut Node<K, V>>,
    {
        let ts = self.clock.tick();
        let slot = &self.slots[g.slot];
        let mut garbage = slot.garbage.lock();
        garbage.extend(ptrs.into_iter().map(|ptr| Retired { ptr, ts }));
        if garbage.len() >= COLLECT_THRESHOLD {
            self.recycle(slot, &mut garbage);
        }
        ts
    }

    /// Runs the threshold path on the calling thread's own garbage now,
    /// whatever its length.
    pub(crate) fn recycle_own(&self) {
        let g = self.enter();
        let slot = &self.slots[g.slot];
        self.recycle(slot, &mut slot.garbage.lock());
        self.exit(g);
    }

    /// The threshold path: moves the reclaimable prefix of the calling
    /// thread's own garbage list into its own pool.
    fn recycle(&self, slot: &Slot<K, V>, garbage: &mut Vec<Retired<K, V>>) {
        let horizon = self.min_entry();
        // Strictly below: an entry equal to a stamp pinned before it.
        let n = garbage.partition_point(|r| r.ts < horizon);
        if n == 0 {
            return;
        }
        // User `Drop` code runs in the first pass of each chunk, with the
        // pool unlocked; the second pass pools the emptied blocks.
        for chunk in garbage[..n].chunks(COLLECT_THRESHOLD) {
            let mut heights = [0; COLLECT_THRESHOLD];
            for (r, height) in chunk.iter().zip(&mut heights) {
                // SAFETY: r.ts < every current entry announcement, so every
                // thread inside entered after the unlink; per the retire
                // contract nobody can still reach the node.
                *height = unsafe { Node::drop_payload(r.ptr) };
            }
            let mut pool = slot.pool.lock();
            let pool = pool.get_or_insert_with(Pool::new);
            for (r, &height) in chunk.iter().zip(&heights) {
                // SAFETY: emptied above and unreachable by anyone else.
                unsafe { pool.push(r.ptr, height) };
            }
        }
        garbage.drain(..n);
    }

    /// The oldest entry announcement across all claimed slots.
    fn min_entry(&self) -> u64 {
        fence(Ordering::SeqCst);
        self.claimed_slots()
            .iter()
            .map(|s| s.entry.load(Ordering::SeqCst))
            .min()
            .unwrap_or(OUTSIDE)
    }

    /// Adds `delta` to the length share of the thread entered with `g`.
    pub(crate) fn add_len(&self, g: RawGuard, delta: isize) {
        let len = &self.slots[g.slot].len;
        len.store(len.load(Ordering::Relaxed) + delta, Ordering::Relaxed);
    }

    /// The sum of every thread's length share, clamped at zero: exact when
    /// no operation is in flight, approximate (but never negative) while
    /// operations run.
    pub(crate) fn len(&self) -> usize {
        let sum: isize = self
            .claimed_slots()
            .iter()
            .map(|s| s.len.load(Ordering::Relaxed))
            .sum();
        sum.max(0) as usize
    }

    /// Waits until every thread that was inside the structure when the
    /// deletion `stamp` was taken has exited: a grace period, after which
    /// no thread can still reach what was retired at `stamp`. A nested
    /// token returns at once, since the outer pin on this thread predates
    /// the stamp and cannot be waited out from inside.
    pub(crate) fn wait_for_readers(&self, g: RawGuard, stamp: u64) {
        if g.nested {
            return;
        }
        let mut spins = 0u32;
        // `<=`: an entry equal to the stamp was read before the retire's
        // tick, so that reader may still reach the node.
        while self.min_entry() <= stamp {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Heap-allocates a node for an insert by the thread entered with `g`,
    /// reusing a block of the same height from the thread's own pool when
    /// one is there.
    pub(crate) fn alloc(
        &self,
        g: RawGuard,
        key: K,
        seq: u64,
        value: V,
        height: usize,
    ) -> *mut Node<K, V> {
        let pooled = self.slots[g.slot]
            .pool
            .lock()
            .as_mut()
            .and_then(|pool| pool.pop(height));
        match pooled {
            Some(block) => {
                // SAFETY: a pooled block of this height, now ours alone.
                unsafe { Node::init(block, key, seq, value, height) };
                block
            }
            None => Node::alloc(key, seq, value, height),
        }
    }

    /// Frees every retired node older than the oldest announcement, across
    /// all slots (so garbage from exited threads is freed too), and returns
    /// every pooled block to the allocator. Returns the number of retired
    /// nodes freed.
    pub fn collect(&self) -> usize {
        let horizon = self.min_entry();
        let mut freed = 0;
        for s in self.claimed_slots() {
            // Skip slots another thread is concurrently collecting.
            if let Some(mut g) = s.garbage.try_lock() {
                let n = g.partition_point(|r| r.ts < horizon);
                for r in g.drain(..n) {
                    // SAFETY: as in `recycle`.
                    unsafe { Node::dealloc(r.ptr) };
                }
                freed += n;
            }
            let pool = s.pool.try_lock().and_then(|mut p| p.take());
            if let Some(pool) = pool {
                pool.free_all();
            }
        }
        freed
    }

    /// Number of retired-but-not-yet-freed nodes (diagnostics).
    pub fn pending(&self) -> usize {
        self.claimed_slots()
            .iter()
            .map(|s| s.garbage.lock().len())
            .sum()
    }

    /// Frees all remaining garbage and pooled blocks unconditionally.
    /// Requires `&mut self`: exclusive access proves no thread is inside
    /// the structure.
    pub fn flush_all(&mut self) {
        for s in self.slots.iter_mut() {
            for r in s.garbage.get_mut().drain(..) {
                // SAFETY: exclusive access to the collector (and therefore
                // to the queue that owns it) means no concurrent readers.
                unsafe { Node::dealloc(r.ptr) };
            }
            if let Some(pool) = s.pool.get_mut().take() {
                pool.free_all();
            }
        }
    }
}

impl<K, V> Drop for Collector<K, V> {
    fn drop(&mut self) {
        self.flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mknode(k: u64) -> *mut Node<u64, u64> {
        Node::alloc(k, k, k, 1)
    }

    #[test]
    fn retire_then_collect_frees_when_unpinned() {
        let c: Collector<u64, u64> = Collector::new(4);
        {
            let g = c.pin();
            unsafe { c.retire(g.raw, mknode(1)) };
            // We are still pinned with an entry older than the retirement:
            // nothing can be freed.
            assert_eq!(c.collect(), 0);
            assert_eq!(c.pending(), 1);
        }
        // Unpinned: the node is older than every (non-existent) entry.
        assert_eq!(c.collect(), 1);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn pinned_peer_blocks_reclamation() {
        let c: Collector<u64, u64> = Collector::new(4);
        std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
            let c2 = &c;
            s.spawn(move || {
                let _g = c2.pin();
                tx.send(()).unwrap();
                done_rx.recv().unwrap();
            });
            rx.recv().unwrap();
            // Peer pinned before this retirement: must block it.
            {
                let g = c.pin();
                unsafe { c.retire(g.raw, mknode(2)) };
            }
            assert_eq!(c.collect(), 0, "peer entered before the retirement");
            done_tx.send(()).unwrap();
        });
        assert_eq!(c.collect(), 1, "peer exited; node is reclaimable");
    }

    #[test]
    fn pin_reads_the_clock_without_advancing_it() {
        let c: Collector<u64, u64> = Collector::new(2);
        let before = c.clock.peek();
        let g = c.pin();
        assert_eq!(c.slots[g.raw.slot].entry.load(Ordering::Relaxed), before);
        drop(g);
        assert_eq!(c.clock.peek(), before, "a pin writes only its own slot");
    }

    #[test]
    fn pin_equal_to_a_later_retire_stamp_blocks_reclamation_and_grace() {
        // A pin reads the clock and a retire ticks it, so with no tick in
        // between the peer's entry equals the retire's stamp: the peer
        // pinned before the retire and may still reach the node.
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc::channel;
        let c: Collector<u64, u64> = Collector::new(4);
        let released = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (pinned_tx, pinned_rx) = channel();
            let (go_tx, go_rx) = channel::<()>();
            let (c2, released) = (&c, &released);
            s.spawn(move || {
                let g = c2.pin();
                pinned_tx
                    .send(c2.slots[g.raw.slot].entry.load(Ordering::Relaxed))
                    .unwrap();
                go_rx.recv().unwrap();
                released.store(true, Ordering::SeqCst);
                drop(g);
            });
            let entry = pinned_rx.recv().unwrap();
            let g = c.enter();
            let stamp = unsafe { c.retire(g, mknode(4)) };
            c.exit(g);
            assert_eq!(stamp, entry, "the retire's tick returned the value read");
            assert_eq!(c.collect(), 0, "an equal entry keeps the node");
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                go_tx.send(()).unwrap();
            });
            c.wait_for_readers(g, stamp);
            assert!(
                released.load(Ordering::SeqCst),
                "the grace period ended while an equal entry was announced"
            );
        });
        assert_eq!(c.collect(), 1, "peer exited; node is reclaimable");
    }

    #[test]
    fn alternating_collectors_keep_one_slot_each() {
        // One slot per collector: a second claim in either would panic, so
        // every front-cache miss must find the slot again through the map.
        let a: Collector<u64, u64> = Collector::new(1);
        let b: Collector<u64, u64> = Collector::new(1);
        for i in 0..100 {
            let c = if i % 2 == 0 { &a } else { &b };
            let g = c.enter();
            unsafe { c.retire(g, mknode(i)) };
            c.add_len(g, 1);
            c.exit(g);
        }
        for c in [&a, &b] {
            assert_eq!(c.claimed.load(Ordering::Relaxed), 1);
            assert_eq!(c.slots[0].owner.load(Ordering::Relaxed), thread_token());
            assert_eq!(c.len(), 50);
            assert_eq!(c.collect(), 50, "each collector holds its own garbage");
        }
    }

    #[test]
    fn length_shares_may_go_negative_but_the_sum_does_not() {
        let c: Collector<u64, u64> = Collector::new(4);
        let g = c.enter();
        c.add_len(g, 3);
        c.exit(g);
        std::thread::scope(|s| {
            s.spawn(|| {
                let g = c.enter();
                c.add_len(g, -5);
                c.exit(g);
            });
        });
        assert_eq!(c.claimed.load(Ordering::Relaxed), 2);
        assert_eq!(c.len(), 0, "clamped while shares sum to -2");
        let g = c.enter();
        c.add_len(g, 4);
        c.exit(g);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn late_pin_does_not_block_old_garbage() {
        let c: Collector<u64, u64> = Collector::new(4);
        {
            let g = c.pin();
            unsafe { c.retire(g.raw, mknode(3)) };
        }
        // Pin *after* the retirement: the entry is newer than the stamp.
        let _g = c.pin();
        assert_eq!(c.collect(), 1);
    }

    #[test]
    fn drop_flushes_everything() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);

        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        struct Tracked;
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }

        let c: Collector<u64, Tracked> = Collector::new(2);
        {
            let g = c.pin();
            let n = Node::alloc(1, 0, Tracked, 1);
            unsafe { c.retire(g.raw, n) };
        }
        drop(c);
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn threshold_triggers_automatic_collection() {
        let c: Collector<u64, u64> = Collector::new(2);
        for i in 0..(COLLECT_THRESHOLD as u64 + 8) {
            let g = c.pin();
            unsafe { c.retire(g.raw, mknode(i)) };
            drop(g);
        }
        // The automatic collection inside retire must have reclaimed most
        // earlier garbage (everything retired before the current pin).
        assert!(c.pending() < COLLECT_THRESHOLD, "pending={}", c.pending());
        assert!(c.collect() > 0 || c.pending() == 0);
    }

    #[test]
    fn threshold_recycles_into_own_pool_and_inserts_reuse_it() {
        let c: Collector<u64, u64> = Collector::new(2);
        let mut retired = Vec::new();
        for i in 0..COLLECT_THRESHOLD as u64 {
            assert!(
                c.slots.iter().all(|s| s.pool.lock().is_none()),
                "pools are created by the first recycle"
            );
            let g = c.enter();
            let n = mknode(i);
            retired.push(n);
            unsafe { c.retire(g, n) };
            c.exit(g);
        }
        // The last retire crossed the threshold while pinned, so everything
        // retired before its pin went to this thread's pool.
        assert_eq!(c.pending(), 1);
        let g = c.enter();
        let n = c.alloc(g, 7, 7, 7, 1);
        c.exit(g);
        assert!(
            retired.contains(&n),
            "a height-1 insert reuses a pooled block"
        );
        unsafe { Node::dealloc(n) };
        // An explicit collection frees the rest and empties the pools.
        assert_eq!(c.collect(), 1);
        assert!(c.slots.iter().all(|s| s.pool.lock().is_none()));
    }

    #[test]
    fn slots_are_reused_by_same_thread() {
        let c: Collector<u64, u64> = Collector::new(1);
        for _ in 0..100 {
            let _g = c.pin();
        }
        // One thread, one slot: never exhausts.
    }

    #[test]
    fn many_threads_each_get_a_slot() {
        let c: Collector<u64, u64> = Collector::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..50 {
                        let g = c.pin();
                        unsafe { c.retire(g.raw, mknode(i)) };
                    }
                });
            }
        });
        drop(c); // flushes; miri/asan would catch double/missing frees
    }
}
