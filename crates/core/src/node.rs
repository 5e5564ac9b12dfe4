//! Node representation for the concurrent SkipQueue.
//!
//! The paper's node (Figure 1) holds a key, a value, a `deleted` flag, a
//! `timeStamp`, a whole-node lock, and one `{lock, next}` pair per level.
//! Here each pair is a single word: the level's forward pointer, with the
//! level's lock in its low bit ([`LOCK_BIT`]). A node is at least 8-byte
//! aligned, so that bit of a pointer to one is always zero. The level-`i`
//! word is only written by the holder of its lock bit, or by the insert
//! that owns a node not yet published at level `i`; reads are lock-free and
//! mask the bit off ([`Node::next`]). All `unsafe` in the crate funnels
//! through the small helpers here and in [`crate::queue`].
//!
//! A node is one heap block: a `#[repr(C)]` header followed inline by its
//! tower of `height` words. The header ends with the sequence number and
//! the key, so a search hop that compares the key and then loads
//! `next(lvl)` stays inside one block, usually within one cache line.
//! [`Node::alloc`] and [`Node::dealloc`] compute the block's `Layout` from
//! the height stored in the header. For a `Node<u64, u64>` the header is
//! 40 bytes and each level adds 8, so a node of height 1 or 2 (three nodes
//! in four) fits a 64-byte allocator chunk.
//!
//! Key and value are `MaybeUninit`: the sentinels hold neither, and the
//! queue tells them apart from entries by address, never by reading a key.
//! One `payload_taken` flag records that key and value are gone, moved out
//! together by the winning deleter or never there (sentinels).
//!
//! A block outlives the node in it when the collector recycles it: the
//! payload is dropped ([`Node::drop_payload`]), the block waits in a
//! per-thread pool as a free-list entry ([`Node::into_pooled`]), and the
//! next insert of the same height writes a fresh node into it
//! ([`Node::init`]).

use std::alloc::{handle_alloc_error, Layout};
use std::cmp::Ordering as CmpOrdering;
use std::mem::{offset_of, size_of, MaybeUninit};
use std::ptr::addr_of_mut;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

use parking_lot::lock_api::RawMutex as RawMutexApi;
use parking_lot::RawMutex;

/// Hard cap on tower height; `SkipQueue::with_params` enforces it.
pub(crate) const MAX_HEIGHT: usize = 32;

/// The level lock's bit in a tower word.
const LOCK_BIT: usize = 1;

/// Spins on a held level lock before each yield.
const SPIN_LIMIT: u32 = 64;

/// Debug-build fill byte for pooled blocks (see [`Node::into_pooled`]).
const POOL_POISON: u8 = 0xA5;

/// A SkipQueue node header; its tower follows it inline in the same
/// allocation. Allocated with [`Node::alloc`] or [`Node::alloc_sentinel`],
/// freed with [`Node::dealloc`] (via the quiescence collector). Never
/// constructed or moved by value.
#[repr(C)]
pub(crate) struct Node<K, V> {
    /// The entry's value; initialized unless `payload_taken` is set.
    value: MaybeUninit<V>,
    /// `TimestampClock::MAX_TIME` until the insert completes.
    pub timestamp: AtomicU64,
    /// Set (never cleared) once key and value are gone: moved out by the
    /// winning deleter, or never written (sentinels). Tells
    /// [`Node::drop_payload`] not to drop them.
    payload_taken: AtomicBool,
    /// The logical-deletion mark, claimed with an atomic swap.
    pub deleted: AtomicBool,
    /// Membership mark for the batched physical delete: set by the cleaner
    /// (under the queue's cleaner lock) when it collects this node into an
    /// unlink batch, so the per-level sweep can tell batch members from
    /// nodes claimed after collection. Only the cleaner reads or writes it
    /// while the node is linked.
    pub in_unlink_batch: AtomicBool,
    /// Serializes whole-node phases: held for the full linking of an insert
    /// and for the full unlinking of a delete.
    pub node_lock: RawMutex,
    /// Number of words in the inline tower; fixed at allocation.
    height: u32,
    /// Insert sequence number: breaks ties between equal keys (FIFO) and
    /// makes every entry's `(key, seq)` unique.
    seq: u64,
    /// The entry's priority; initialized in every entry (sentinels have
    /// none). Last in the header, directly before the tower it is read
    /// with.
    key: MaybeUninit<K>,
    /// Start of the inline tower: `height` words live from here to the end
    /// of the allocation. Reach them through [`Node::next`] and the level
    /// lock methods.
    tower: [AtomicPtr<Node<K, V>>; 0],
}

impl<K, V> Node<K, V> {
    /// The layout of a node with a `height`-word tower: the header up to
    /// `tower`, then the words, padded to the node's alignment so the block
    /// always covers a whole `Node`.
    fn layout(height: usize) -> Layout {
        let size = offset_of!(Self, tower) + height * size_of::<AtomicPtr<Self>>();
        Layout::from_size_align(size, std::mem::align_of::<Self>())
            .expect("node layout overflows isize")
            .pad_to_align()
    }

    /// Allocates a block for a `height`-level node, uninitialized.
    fn alloc_block(height: usize) -> *mut Self {
        assert!((1..=MAX_HEIGHT).contains(&height));
        let layout = Self::layout(height);
        // SAFETY: the layout is non-zero-sized (it holds at least one word).
        let ptr = unsafe { std::alloc::alloc(layout) }.cast::<Self>();
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        ptr
    }

    /// Heap-allocates an entry node of the given height, fully unlinked,
    /// unmarked, with `timeStamp = MAX_TIME`. Header and tower share one
    /// allocation.
    pub fn alloc(key: K, seq: u64, value: V, height: usize) -> *mut Self {
        let ptr = Self::alloc_block(height);
        // SAFETY: a fresh block of exactly this height's layout.
        unsafe { Self::init(ptr, key, seq, value, height) };
        ptr
    }

    /// Heap-allocates a sentinel: a node with no key and no value (its
    /// `payload_taken` flag is set from the start), otherwise as
    /// [`Node::alloc`] leaves one.
    pub fn alloc_sentinel(height: usize) -> *mut Self {
        let ptr = Self::alloc_block(height);
        // SAFETY: a fresh block of exactly this height's layout; a sentinel
        // is written without key or value and marked as such.
        unsafe {
            Self::write(
                ptr,
                MaybeUninit::uninit(),
                0,
                MaybeUninit::uninit(),
                true,
                height,
            )
        };
        ptr
    }

    /// Asks the CPU to start loading the cache line that holds `node`'s key,
    /// so a search can overlap that miss with the one it is waiting on. Only
    /// computes an address: `node` may be null or dangling. A no-op off
    /// x86_64.
    #[inline(always)]
    pub fn prefetch_key(node: *const Self) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let key = node.cast::<i8>().wrapping_add(offset_of!(Self, key));
            // SAFETY: a prefetch never faults, whatever the address.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(key) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = node;
    }

    /// Writes a fresh entry node into `block`: every header field and every
    /// word of the tower, exactly as [`Node::alloc`] leaves them.
    ///
    /// # Safety
    ///
    /// `block` must be an exclusively owned block of `layout(height)` from
    /// the global allocator holding no live node: fresh, or emptied by
    /// [`Node::drop_payload`]. Whatever it held before is overwritten
    /// without being dropped.
    pub unsafe fn init(block: *mut Self, key: K, seq: u64, value: V, height: usize) {
        // SAFETY: forwarded contract; key and value are both initialized.
        unsafe {
            Self::write(
                block,
                MaybeUninit::new(key),
                seq,
                MaybeUninit::new(value),
                false,
                height,
            )
        }
    }

    /// Writes a node into `block`. `taken` says that `key` and `value` are
    /// uninitialized (a sentinel); otherwise both must be initialized.
    ///
    /// # Safety
    ///
    /// As for [`Node::init`].
    unsafe fn write(
        block: *mut Self,
        key: MaybeUninit<K>,
        seq: u64,
        value: MaybeUninit<V>,
        taken: bool,
        height: usize,
    ) {
        debug_assert!((1..=MAX_HEIGHT).contains(&height));
        // SAFETY: per contract the block is aligned for `Self`, at least
        // `size_of::<Self>()` long, and has room for `height` words starting
        // at the `tower` offset.
        unsafe {
            block.write(Node {
                value,
                timestamp: AtomicU64::new(u64::MAX),
                payload_taken: AtomicBool::new(taken),
                deleted: AtomicBool::new(false),
                in_unlink_batch: AtomicBool::new(false),
                node_lock: RawMutex::INIT,
                height: height as u32,
                seq,
                key,
                tower: [],
            });
            let tower = Self::tower_ptr(block);
            for lvl in 0..height {
                tower.add(lvl).write(AtomicPtr::new(std::ptr::null_mut()));
            }
        }
    }

    /// Drops the key and value unless they were taken (or never there),
    /// leaving the block allocated and holding no live node: ready for
    /// [`Node::init`] or [`Node::free_block`]. Returns the block's height.
    ///
    /// # Safety
    ///
    /// `ptr` must be a live node from [`Node::alloc`],
    /// [`Node::alloc_sentinel`] or [`Node::init`], emptied at most once, and
    /// no other thread may access it concurrently or afterwards (the
    /// collector's quiescence rule establishes this).
    pub unsafe fn drop_payload(ptr: *mut Self) -> usize {
        // SAFETY: per contract we own the live node exclusively. An untaken
        // payload was never moved out, so this is its only drop. No other
        // field has drop glue: the header holds atomics and a lock, the
        // tower atomic pointers.
        unsafe {
            let height = (*ptr).height();
            if !(*ptr).payload_taken.load(Ordering::Relaxed) {
                addr_of_mut!((*ptr).key).cast::<K>().drop_in_place();
                addr_of_mut!((*ptr).value).cast::<V>().drop_in_place();
            }
            height
        }
    }

    /// Returns a block to the global allocator.
    ///
    /// # Safety
    ///
    /// `ptr` must be a `height`-level block from [`Node::alloc`] holding no
    /// live node, freed at most once and never accessed afterwards.
    pub unsafe fn free_block(ptr: *mut Self, height: usize) {
        // SAFETY: per contract, allocated with exactly this layout.
        unsafe { std::alloc::dealloc(ptr.cast(), Self::layout(height)) }
    }

    /// Frees a node, dropping its key and value unless they were taken.
    ///
    /// # Safety
    ///
    /// As for [`Node::drop_payload`], and the block is never accessed
    /// afterwards.
    pub unsafe fn dealloc(ptr: *mut Self) {
        // SAFETY: per contract.
        unsafe {
            let height = Self::drop_payload(ptr);
            Self::free_block(ptr, height);
        }
    }

    /// The first word of `block`'s tower. Only computes an address inside
    /// the block: no reference to the possibly poisoned header is made.
    ///
    /// # Safety
    ///
    /// `block` must point into a block from [`Node::alloc`].
    unsafe fn tower_ptr(block: *mut Self) -> *mut AtomicPtr<Self> {
        // SAFETY: per contract.
        unsafe { addr_of_mut!((*block).tower).cast() }
    }

    /// Turns an emptied `height`-level block into a free-list entry whose
    /// link, the bottom tower word, points at `next`. In debug builds the
    /// whole block except the link is first overwritten with
    /// [`POOL_POISON`]: a stale reader of a pooled block, which is never
    /// freed and so invisible to AddressSanitizer, then trips the height
    /// assertion in [`Node::height`] (which [`Node::next`] checks in debug
    /// builds).
    ///
    /// # Safety
    ///
    /// `block` must be an exclusively owned `height`-level block from
    /// [`Node::alloc`] that holds no live node.
    pub unsafe fn into_pooled(block: *mut Self, height: usize, next: *mut Self) {
        // SAFETY: per contract the block is ours and `layout(height)` long.
        unsafe {
            if cfg!(debug_assertions) {
                std::ptr::write_bytes(block.cast::<u8>(), POOL_POISON, Self::layout(height).size());
            }
            Self::tower_ptr(block).write(AtomicPtr::new(next));
        }
    }

    /// The link of a free-list entry made by [`Node::into_pooled`].
    ///
    /// # Safety
    ///
    /// `block` must be a pooled block owned by the caller's pool.
    pub unsafe fn pooled_next(block: *mut Self) -> *mut Self {
        // SAFETY: per contract the link was written by `into_pooled`.
        unsafe { (*Self::tower_ptr(block)).load(Ordering::Relaxed) }
    }

    /// Tower height (number of linked levels).
    pub fn height(&self) -> usize {
        debug_assert!(
            (1..=MAX_HEIGHT as u32).contains(&self.height),
            "read of a reclaimed node (height {:#x})",
            self.height
        );
        self.height as usize
    }

    /// The level-`lvl` tower word: forward pointer plus lock bit.
    fn word(&self, lvl: usize) -> &AtomicPtr<Self> {
        // Debug builds check the level against the height, which also
        // catches a stale read of a pooled (poisoned) block.
        debug_assert!(lvl < self.height(), "level {lvl} above the tower");
        // SAFETY: the node was written with `height` initialized words
        // starting at the `tower` offset of this same allocation, and they
        // live as long as the header does.
        unsafe {
            &*std::ptr::addr_of!(self.tower)
                .cast::<AtomicPtr<Self>>()
                .add(lvl)
        }
    }

    /// Lock-free read of the level-`lvl` forward pointer, lock bit masked
    /// off.
    #[inline]
    pub fn next(&self, lvl: usize) -> *mut Self {
        self.word(lvl)
            .load(Ordering::Acquire)
            .map_addr(|a| a & !LOCK_BIT)
    }

    /// Stores the level-`lvl` forward pointer, keeping the lock bit as it
    /// is. The `Release` store publishes `to`'s contents to readers that
    /// load it through [`Node::next`].
    ///
    /// # Safety
    ///
    /// The caller holds this level's lock, or owns the node and has not yet
    /// published it at this level: nobody else may write the word, or the
    /// store could clear a lock bit another thread just set.
    #[inline]
    pub unsafe fn store_next(&self, lvl: usize, to: *mut Self) {
        debug_assert_eq!(to.addr() & LOCK_BIT, 0, "misaligned node pointer");
        let word = self.word(lvl);
        let bit = word.load(Ordering::Relaxed).addr() & LOCK_BIT;
        word.store(to.map_addr(|a| a | bit), Ordering::Release);
    }

    /// Acquires the level-`lvl` lock: a test-and-set of the word's lock bit,
    /// spinning while it is held and yielding every [`SPIN_LIMIT`] spins.
    /// The `Acquire` exchange pairs with the previous holder's `Release`
    /// clear in [`Node::unlock_level`].
    pub fn lock_level(&self, lvl: usize) {
        let word = self.word(lvl);
        let mut spins = 0u32;
        loop {
            let cur = word.load(Ordering::Relaxed);
            if cur.addr() & LOCK_BIT == 0 {
                let locked = cur.map_addr(|a| a | LOCK_BIT);
                if word
                    .compare_exchange(cur, locked, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return;
                }
            } else if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
            } else {
                spins = 0;
                std::thread::yield_now();
            }
        }
    }

    /// Releases the level-`lvl` lock: clears the bit with a `Release` store.
    ///
    /// # Safety
    ///
    /// The caller must hold the level-`lvl` lock.
    pub unsafe fn unlock_level(&self, lvl: usize) {
        let word = self.word(lvl);
        let cur = word.load(Ordering::Relaxed);
        debug_assert_ne!(cur.addr() & LOCK_BIT, 0, "unlock of a free level lock");
        word.store(cur.map_addr(|a| a & !LOCK_BIT), Ordering::Release);
    }

    /// Whether key and value are gone (taken by the winning deleter, or a
    /// sentinel's).
    pub fn payload_taken(&self) -> bool {
        self.payload_taken.load(Ordering::Relaxed)
    }

    /// Whether the level-`lvl` lock is held (a snapshot).
    pub fn level_locked(&self, lvl: usize) -> bool {
        self.word(lvl).load(Ordering::Relaxed).addr() & LOCK_BIT != 0
    }

    /// The entry's priority.
    ///
    /// # Safety
    ///
    /// The node must be an entry, not a sentinel. Once the winning deleter
    /// has taken the payload, the returned bytes are a bitwise copy of a
    /// moved-out key: the caller must know that comparing them is sound
    /// (see the `crate::queue` module docs).
    pub unsafe fn key(&self) -> &K {
        // SAFETY: per contract the key was initialized by `init`.
        unsafe { self.key.assume_init_ref() }
    }

    /// Orders two entries by `(key, seq)`.
    ///
    /// # Safety
    ///
    /// As for [`Node::key`], for both nodes.
    pub unsafe fn cmp_entry(&self, other: &Self) -> CmpOrdering
    where
        K: Ord,
    {
        // SAFETY: forwarded contract.
        unsafe { self.key().cmp(other.key()) }.then(self.seq.cmp(&other.seq))
    }

    /// Moves key and value out of the node. Caller must be the unique
    /// winner of the `deleted` swap.
    ///
    /// # Safety
    ///
    /// Must be called at most once per node, by the thread that won the
    /// logical-deletion swap, on an entry node (not a sentinel).
    pub unsafe fn take_payload(&self) -> (K, V) {
        debug_assert!(self.deleted.load(Ordering::Relaxed));
        debug_assert!(!self.payload_taken.load(Ordering::Relaxed));
        self.payload_taken.store(true, Ordering::Relaxed);
        // SAFETY: winner exclusivity (contract) makes this the only
        // move-out; readers only compare the key through &K, and the bytes
        // stay valid until the block is reused.
        unsafe {
            (
                std::ptr::read(self.key.as_ptr()),
                std::ptr::read(self.value.as_ptr()),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_order_by_key_then_sequence() {
        let nodes =
            [(1u64, 5u64), (2, 0), (1, 0), (1, 1), (3, 3)].map(|(k, s)| Node::alloc(k, s, (), 1));
        let cmp = |a: usize, b: usize| unsafe { (*nodes[a]).cmp_entry(&*nodes[b]) };
        assert_eq!(cmp(0, 1), CmpOrdering::Less, "key first");
        assert_eq!(cmp(2, 3), CmpOrdering::Less, "ties broken by sequence");
        assert_eq!(cmp(3, 0), CmpOrdering::Less);
        assert_eq!(cmp(4, 4), CmpOrdering::Equal);
        assert_eq!(cmp(4, 1), CmpOrdering::Greater);
        for n in nodes {
            unsafe { Node::dealloc(n) };
        }
    }

    #[test]
    fn u64_nodes_take_40_bytes_plus_8_per_level() {
        assert_eq!(offset_of!(Node<u64, u64>, tower), 40);
        for height in 1..=MAX_HEIGHT {
            assert_eq!(
                Node::<u64, u64>::layout(height).size(),
                40 + 8 * height,
                "height {height}"
            );
        }
    }

    thread_local! {
        /// Drops of the tracked types below, per test thread.
        static DROPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn drops() -> usize {
        DROPS.with(|d| d.get())
    }

    fn count_drop() {
        DROPS.with(|d| d.set(d.get() + 1));
    }

    struct Tracked(#[allow(dead_code)] u64);
    impl Drop for Tracked {
        fn drop(&mut self) {
            count_drop();
        }
    }

    /// Zero-sized, so the node's value takes no room in the header.
    struct TrackedZst;
    impl Drop for TrackedZst {
        fn drop(&mut self) {
            count_drop();
        }
    }

    /// Aligned past the tower's words, so the header's padding and the
    /// node's alignment both come from the key.
    #[repr(align(64))]
    struct OverAligned(#[allow(dead_code)] u64);
    impl Drop for OverAligned {
        fn drop(&mut self) {
            count_drop();
        }
    }

    /// For every height: allocates a node, checks that its tower is inline,
    /// aligned, initialized, unlocked and inside the allocation, optionally
    /// moves the payload out as a winning deleter would, frees the node,
    /// and checks that key and value were each dropped exactly once.
    fn roundtrip_every_height<K, V>(key: impl Fn() -> K, value: impl Fn() -> V, take: bool) {
        for height in 1..=MAX_HEIGHT {
            let before = drops();
            let n = Node::alloc(key(), 0, value(), height);
            let base = n as usize;
            let end = base + Node::<K, V>::layout(height).size();
            assert_eq!(base % std::mem::align_of::<Node<K, V>>(), 0);
            assert!(end - base >= size_of::<Node<K, V>>());
            unsafe {
                assert_eq!((*n).height(), height);
                for lvl in 0..height {
                    let at = (*n).word(lvl) as *const AtomicPtr<Node<K, V>> as usize;
                    assert_eq!(at % std::mem::align_of::<usize>(), 0, "level {lvl}");
                    assert_eq!(at, base + offset_of!(Node<K, V>, tower) + lvl * 8);
                    assert!(at + 8 <= end, "level {lvl} past the block");
                    assert!((*n).next(lvl).is_null());
                    assert!(!(*n).level_locked(lvl), "level {lvl} starts unlocked");
                }
                if take {
                    (*n).deleted.store(true, Ordering::Relaxed);
                    drop((*n).take_payload());
                    assert_eq!(drops() - before, 2, "take_payload hands both out");
                }
                Node::dealloc(n);
            }
            assert_eq!(
                drops() - before,
                2,
                "height {height}, payload taken: {take}: key and value each dropped once"
            );
        }
    }

    #[test]
    fn every_height_roundtrips_with_payload_kept_or_taken() {
        for take in [false, true] {
            roundtrip_every_height(|| Tracked(1), || Tracked(2), take);
        }
    }

    #[test]
    fn zero_sized_value_roundtrips() {
        for take in [false, true] {
            roundtrip_every_height(|| Tracked(1), || TrackedZst, take);
        }
    }

    #[test]
    fn over_aligned_key_roundtrips() {
        assert_eq!(std::mem::align_of::<Node<OverAligned, Tracked>>(), 64);
        for take in [false, true] {
            roundtrip_every_height(|| OverAligned(1), || Tracked(2), take);
        }
    }

    #[test]
    fn sentinels_hold_no_payload() {
        let before = drops();
        let n = Node::<Tracked, Tracked>::alloc_sentinel(MAX_HEIGHT);
        unsafe {
            assert!((*n).payload_taken.load(Ordering::Relaxed));
            assert_eq!((*n).height(), MAX_HEIGHT);
            Node::dealloc(n);
        }
        assert_eq!(drops(), before, "a sentinel drops nothing");
    }

    #[test]
    fn level_lock_bits_are_independent() {
        let n = Node::alloc(1u64, 1, (), 3);
        unsafe {
            (*n).lock_level(0);
            assert!((*n).level_locked(0));
            assert!(!(*n).level_locked(1) && !(*n).level_locked(2));
            (*n).lock_level(2);
            (*n).unlock_level(0);
            assert!(!(*n).level_locked(0));
            assert!((*n).level_locked(2));
            (*n).unlock_level(2);
            assert!((0..3).all(|lvl| !(*n).level_locked(lvl)));
            assert!((*n).node_lock.try_lock(), "node lock is separate");
            (*n).node_lock.unlock();
            Node::dealloc(n);
        }
    }

    #[test]
    fn level_lock_excludes_other_threads() {
        /// A plain counter guarded by a node's level-1 lock.
        struct Shared(*mut Node<u64, ()>, std::cell::UnsafeCell<u64>);
        // SAFETY: the counter is only touched under the node's level-1 lock.
        unsafe impl Sync for Shared {}
        impl Shared {
            fn bump(&self) {
                // SAFETY: the node outlives the threads; the lock guards
                // the counter.
                unsafe {
                    (*self.0).lock_level(1);
                    *self.1.get() += 1;
                    (*self.0).unlock_level(1);
                }
            }
        }
        let shared = Shared(Node::alloc(1u64, 1, (), 2), std::cell::UnsafeCell::new(0));
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| (0..10_000).for_each(|_| shared.bump()));
            }
        });
        assert_eq!(unsafe { *shared.1.get() }, 20_000);
        unsafe { Node::dealloc(shared.0) };
    }

    #[test]
    fn next_masks_the_lock_bit() {
        let a = Node::alloc(1u64, 1, (), 2);
        let b = Node::alloc(2u64, 2, (), 2);
        unsafe {
            (*a).store_next(1, b);
            (*a).lock_level(1);
            assert_eq!((*a).next(1), b, "the real pointer while locked");
            (*a).unlock_level(1);
            assert_eq!((*a).next(1), b);
            Node::dealloc(a);
            Node::dealloc(b);
        }
    }

    #[test]
    fn store_next_under_a_held_lock_keeps_the_bit() {
        let a = Node::alloc(1u64, 1, (), 2);
        let b = Node::alloc(2u64, 2, (), 1);
        unsafe {
            (*a).lock_level(0);
            (*a).store_next(0, b);
            assert!((*a).level_locked(0), "the store kept the lock");
            assert_eq!((*a).next(0), b);
            (*a).store_next(0, std::ptr::null_mut());
            assert!((*a).level_locked(0));
            (*a).unlock_level(0);
            assert!(!(*a).level_locked(0));
            assert!((*a).next(0).is_null());
            (*a).store_next(0, b);
            assert!(!(*a).level_locked(0), "an unlocked store sets no bit");
            assert!(!(*a).level_locked(1));
            Node::dealloc(a);
            Node::dealloc(b);
        }
    }

    /// Asserts that `n` is in the state [`Node::alloc`] leaves a node in:
    /// stamp `MAX`, every flag clear, every lock free, every `next` null.
    unsafe fn assert_fresh<K, V>(n: *mut Node<K, V>, height: usize) {
        // SAFETY: the caller owns the live node.
        unsafe {
            assert_eq!((*n).height(), height);
            assert_eq!((*n).timestamp.load(Ordering::Relaxed), u64::MAX);
            assert!(!(*n).payload_taken.load(Ordering::Relaxed));
            assert!(!(*n).deleted.load(Ordering::Relaxed));
            assert!(!(*n).in_unlink_batch.load(Ordering::Relaxed));
            assert!((*n).node_lock.try_lock(), "node lock starts free");
            (*n).node_lock.unlock();
            for lvl in 0..height {
                assert!((*n).next(lvl).is_null(), "level {lvl}");
                assert!(!(*n).level_locked(lvl), "level {lvl} starts unlocked");
            }
        }
    }

    /// For every height: takes a node through a whole life (stamped,
    /// marked, batched, locked, linked, optionally with its payload moved
    /// out), empties it, pools it (poisoning it in debug builds), and
    /// writes a fresh node into the same block. The reused node must match
    /// a fresh `alloc`, and both generations' keys and values drop exactly
    /// once.
    fn reuse_every_height(take: bool) {
        for height in 1..=MAX_HEIGHT {
            let before = drops();
            let n = Node::alloc(Tracked(1), 0, Tracked(2), height);
            unsafe {
                assert_fresh(n, height);
                (*n).timestamp.store(7, Ordering::Relaxed);
                (*n).deleted.store(true, Ordering::Relaxed);
                (*n).in_unlink_batch.store(true, Ordering::Relaxed);
                (*n).node_lock.lock();
                for lvl in 0..height {
                    (*n).lock_level(lvl);
                    (*n).store_next(lvl, n);
                }
                if take {
                    drop((*n).take_payload());
                }
                assert_eq!(Node::drop_payload(n), height);
                assert_eq!(drops() - before, 2, "height {height}: first payload");

                Node::into_pooled(n, height, std::ptr::null_mut());
                assert!(Node::pooled_next(n).is_null());
                Node::init(n, Tracked(3), 1, Tracked(4), height);
                assert_fresh(n, height);
                assert_eq!(drops() - before, 2, "init drops nothing");
                Node::dealloc(n);
            }
            assert_eq!(
                drops() - before,
                4,
                "height {height}, payload taken: {take}: each key and value dropped once"
            );
        }
    }

    #[test]
    fn reused_blocks_match_fresh_nodes_at_every_height() {
        for take in [false, true] {
            reuse_every_height(take);
        }
    }

    #[test]
    fn pooled_blocks_chain_through_their_link() {
        let a = Node::alloc(1u64, 0, (), 3);
        let b = Node::alloc(2u64, 1, (), 3);
        unsafe {
            Node::drop_payload(a);
            Node::drop_payload(b);
            Node::into_pooled(a, 3, std::ptr::null_mut());
            Node::into_pooled(b, 3, a);
            assert_eq!(Node::pooled_next(b), a);
            assert!(Node::pooled_next(a).is_null());
            Node::free_block(a, 3);
            Node::free_block(b, 3);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn reading_a_pooled_block_trips_the_poison_check() {
        let n = Node::alloc(1u64, 0, (), 2);
        unsafe {
            Node::drop_payload(n);
            Node::into_pooled(n, 2, std::ptr::null_mut());
        }
        // A stale reader's steps past a node: its tower height (eager
        // unlink, batch collection) and its forward pointer (every walk).
        let reads: [&dyn Fn() -> usize; 2] = [&|| unsafe { (*n).height() }, &|| unsafe {
            (*n).next(1).addr()
        }];
        for read in reads {
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(read));
            let msg = res.expect_err("poisoned height must not pass");
            let msg = msg.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("read of a reclaimed node"), "{msg}");
        }
        unsafe { Node::free_block(n, 2) };
    }
}
