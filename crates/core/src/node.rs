//! Node representation for the concurrent SkipQueue.
//!
//! Mirrors the paper's node layout (Figure 1): a key, a value, a `deleted`
//! flag, a `timeStamp`, a whole-node lock, and per-level `{lock, next}`
//! pairs. Writes to `levels()[i].next` only ever happen while holding
//! `levels()[i].lock` of the owning node; reads are lock-free. All `unsafe`
//! in the crate funnels through the small helpers here and in
//! [`crate::queue`].
//!
//! A node is one heap block: a `#[repr(C)]` header followed inline by its
//! tower of `height` [`Level`]s. The header ends with the key, so a search
//! hop that compares the key and then loads `levels()[lvl].next` stays
//! inside one block, usually within one or two adjacent cache lines.
//! [`Node::alloc`] and [`Node::dealloc`] compute the block's `Layout` from
//! the height stored in the header.
//!
//! A block outlives the node in it when the collector recycles it: the
//! payload is dropped ([`Node::drop_payload`]), the block waits in a
//! per-thread pool as a free-list entry ([`Node::into_pooled`]), and the
//! next insert of the same height writes a fresh node into it
//! ([`Node::init`]).

use std::alloc::{handle_alloc_error, Layout};
use std::cell::UnsafeCell;
use std::mem::{offset_of, size_of, ManuallyDrop};
use std::ptr::addr_of_mut;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

use parking_lot::lock_api::RawMutex as RawMutexApi;
use parking_lot::RawMutex;

/// Hard cap on tower height; `SkipQueue::with_params` enforces it.
pub(crate) const MAX_HEIGHT: usize = 32;

/// Debug-build fill byte for pooled blocks (see [`Node::into_pooled`]).
const POOL_POISON: u8 = 0xA5;

/// Internal ordering key: sentinels plus `(priority, unique sequence)`.
///
/// The sequence number makes every entry's key unique, so the physical
/// delete can search for an exact identity and duplicate priorities pop in
/// FIFO order.
pub(crate) enum IKey<K> {
    /// Head sentinel: smaller than everything.
    NegInf,
    /// A real entry. The priority is `ManuallyDrop` because the winning
    /// `delete_min` moves it out while the node is still reachable by
    /// concurrent readers (which only ever compare by shared reference).
    Val(ManuallyDrop<K>, u64),
    /// Tail sentinel: larger than everything.
    PosInf,
}

impl<K: std::fmt::Debug> std::fmt::Debug for IKey<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IKey::NegInf => write!(f, "-inf"),
            IKey::Val(k, seq) => write!(f, "({k:?}, #{seq})"),
            IKey::PosInf => write!(f, "+inf"),
        }
    }
}

impl<K: Ord> IKey<K> {
    fn rank(&self) -> u8 {
        match self {
            IKey::NegInf => 0,
            IKey::Val(..) => 1,
            IKey::PosInf => 2,
        }
    }
}

impl<K: Ord> PartialEq for IKey<K> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (IKey::Val(a, sa), IKey::Val(b, sb)) => sa == sb && **a == **b,
            _ => self.rank() == other.rank(),
        }
    }
}

impl<K: Ord> Eq for IKey<K> {}

impl<K: Ord> PartialOrd for IKey<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> Ord for IKey<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self, other) {
            (IKey::Val(a, sa), IKey::Val(b, sb)) => a.cmp(b).then(sa.cmp(sb)),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

/// One level of a node's tower: the forward pointer and the lock that
/// guards *writes* to it.
pub(crate) struct Level<K, V> {
    pub lock: RawMutex,
    pub next: AtomicPtr<Node<K, V>>,
}

/// A SkipQueue node header; its tower follows it inline in the same
/// allocation. Allocated with [`Node::alloc`], freed with [`Node::dealloc`]
/// (via the quiescence collector). Never constructed or moved by value.
#[repr(C)]
pub(crate) struct Node<K, V> {
    /// Present until the winning deleter extracts it.
    pub value: UnsafeCell<Option<V>>,
    /// `TimestampClock::MAX_TIME` until the insert completes.
    pub timestamp: AtomicU64,
    /// Set (never cleared) by the deleter that moved the priority out of
    /// `key`; tells `dealloc` not to drop it again.
    pub key_taken: AtomicBool,
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
    /// Number of `Level`s in the inline tower; fixed at allocation.
    height: u32,
    /// Last in the header, directly before the tower it is read with.
    pub key: IKey<K>,
    /// Start of the inline tower: `height` levels live from here to the end
    /// of the allocation. Reach them through [`Node::levels`].
    levels: [Level<K, V>; 0],
}

impl<K, V> Node<K, V> {
    /// The layout of a node with a `height`-level tower: the header up to
    /// `levels`, then the levels, padded to the node's alignment so the
    /// block always covers a whole `Node`.
    fn layout(height: usize) -> Layout {
        let size = offset_of!(Self, levels) + height * size_of::<Level<K, V>>();
        Layout::from_size_align(size, std::mem::align_of::<Self>())
            .expect("node layout overflows isize")
            .pad_to_align()
    }

    /// Heap-allocates a node of the given height, fully unlinked, unmarked,
    /// with `timeStamp = MAX_TIME`. Header and tower share one allocation.
    pub fn alloc(key: IKey<K>, value: Option<V>, height: usize) -> *mut Self {
        assert!((1..=MAX_HEIGHT).contains(&height));
        let layout = Self::layout(height);
        // SAFETY: the layout is non-zero-sized (it holds at least one level).
        let ptr = unsafe { std::alloc::alloc(layout) }.cast::<Self>();
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        // SAFETY: a fresh block of exactly this height's layout.
        unsafe { Self::init(ptr, key, value, height) };
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

    /// Writes a fresh node into `block`: every header field and every level
    /// of the tower, exactly as [`Node::alloc`] leaves them.
    ///
    /// # Safety
    ///
    /// `block` must be an exclusively owned block of `layout(height)` from
    /// the global allocator holding no live node: fresh, or emptied by
    /// [`Node::drop_payload`]. Whatever it held before is overwritten
    /// without being dropped.
    pub unsafe fn init(block: *mut Self, key: IKey<K>, value: Option<V>, height: usize) {
        debug_assert!((1..=MAX_HEIGHT).contains(&height));
        // SAFETY: per contract the block is aligned for `Self`, at least
        // `size_of::<Self>()` long, and has room for `height` levels
        // starting at the `levels` offset.
        unsafe {
            block.write(Node {
                value: UnsafeCell::new(value),
                timestamp: AtomicU64::new(u64::MAX),
                key_taken: AtomicBool::new(false),
                deleted: AtomicBool::new(false),
                in_unlink_batch: AtomicBool::new(false),
                node_lock: RawMutex::INIT,
                height: height as u32,
                key,
                levels: [],
            });
            let tower = addr_of_mut!((*block).levels).cast::<Level<K, V>>();
            for lvl in 0..height {
                tower.add(lvl).write(Level {
                    lock: RawMutex::INIT,
                    next: AtomicPtr::new(std::ptr::null_mut()),
                });
            }
        }
    }

    /// Drops any value still present and the priority if it was not moved
    /// out by a deleter, leaving the block allocated and holding no live
    /// node: ready for [`Node::init`] or [`Node::free_block`]. Returns the
    /// block's height.
    ///
    /// # Safety
    ///
    /// `ptr` must be a live node from [`Node::alloc`] or [`Node::init`],
    /// emptied at most once, and no other thread may access it
    /// concurrently or afterwards (the collector's quiescence rule
    /// establishes this).
    pub unsafe fn drop_payload(ptr: *mut Self) -> usize {
        // SAFETY: per contract we own the live node exclusively. An untaken
        // key was never moved out, so this is its only drop.
        // `drop_in_place` then drops the header's fields: the value is the
        // only one with drop glue (the key is `ManuallyDrop`, and locks and
        // atomics have none), and the tower holds only locks and atomic
        // pointers, so it needs no drop.
        unsafe {
            let height = (*ptr).height();
            if !(*ptr).key_taken.load(Ordering::Relaxed) {
                if let IKey::Val(k, _) = &mut (*ptr).key {
                    ManuallyDrop::drop(k);
                }
            }
            std::ptr::drop_in_place(ptr);
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

    /// Frees a node, dropping any value still present and the priority if it
    /// was not moved out by a deleter.
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

    /// The free-list link of a pooled block: the bottom level's `next`
    /// slot, which every height has.
    fn pool_link(block: *mut Self) -> *mut AtomicPtr<Self> {
        // SAFETY: only computes an address inside the block (a field of the
        // tower's first level); no reference to the possibly poisoned
        // header is made.
        unsafe {
            let tower = addr_of_mut!((*block).levels).cast::<Level<K, V>>();
            addr_of_mut!((*tower).next)
        }
    }

    /// Turns an emptied `height`-level block into a free-list entry whose
    /// link points at `next`. In debug builds the whole block except the
    /// link is first overwritten with [`POOL_POISON`]: a stale reader of a
    /// pooled block, which is never freed and so invisible to
    /// AddressSanitizer, then trips the height assertion in
    /// [`Node::height`] or faults on a non-canonical forward pointer.
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
            Self::pool_link(block).write(AtomicPtr::new(next));
        }
    }

    /// The link of a free-list entry made by [`Node::into_pooled`].
    ///
    /// # Safety
    ///
    /// `block` must be a pooled block owned by the caller's pool.
    pub unsafe fn pooled_next(block: *mut Self) -> *mut Self {
        // SAFETY: per contract the link was written by `into_pooled`.
        unsafe { (*Self::pool_link(block)).load(Ordering::Relaxed) }
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

    /// The inline tower, bottom level first.
    pub fn levels(&self) -> &[Level<K, V>] {
        // SAFETY: `alloc` wrote `height` initialized levels starting at the
        // `levels` offset of this same allocation, and they live as long as
        // the header does.
        unsafe {
            std::slice::from_raw_parts(
                std::ptr::addr_of!(self.levels).cast::<Level<K, V>>(),
                self.height(),
            )
        }
    }

    /// Lock-free read of the level-`lvl` forward pointer.
    pub fn next(&self, lvl: usize) -> *mut Self {
        self.levels()[lvl].next.load(Ordering::Acquire)
    }

    /// Moves the priority out of the node. Caller must be the unique winner
    /// of the `deleted` swap and must hold the node lock.
    ///
    /// # Safety
    ///
    /// Must be called at most once per node, by the thread that won the
    /// logical-deletion swap, on a node whose key is `IKey::Val`.
    pub unsafe fn take_key(&self) -> K {
        debug_assert!(self.deleted.load(Ordering::Relaxed));
        self.key_taken.store(true, Ordering::Relaxed);
        match &self.key {
            // SAFETY: winner exclusivity (contract) makes this the only
            // move-out; readers only compare through &K, and the bytes stay
            // valid until dealloc.
            IKey::Val(k, _) => unsafe { std::ptr::read(&**k) },
            _ => unreachable!("take_key on a sentinel"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(k: u64, seq: u64) -> IKey<u64> {
        IKey::Val(ManuallyDrop::new(k), seq)
    }

    #[test]
    fn ikey_ordering() {
        assert!(IKey::<u64>::NegInf < val(0, 0));
        assert!(val(u64::MAX, u64::MAX) < IKey::PosInf);
        assert!(IKey::<u64>::NegInf < IKey::PosInf);
        assert!(val(1, 5) < val(2, 0));
        assert!(val(1, 0) < val(1, 1), "ties broken by sequence");
        assert_eq!(val(3, 3), val(3, 3));
        assert_ne!(val(3, 3), val(3, 4));
    }

    #[test]
    fn alloc_dealloc_roundtrip() {
        let n = Node::alloc(val(7, 0), Some(String::from("payload")), 4);
        unsafe {
            assert_eq!((*n).height(), 4);
            assert!((*n).next(0).is_null());
            assert!(!(*n).deleted.load(Ordering::Relaxed));
            assert_eq!((*n).timestamp.load(Ordering::Relaxed), u64::MAX);
            Node::dealloc(n);
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

    /// Zero-sized, so the node's value is a one-byte `Option`.
    struct TrackedZst;
    impl Drop for TrackedZst {
        fn drop(&mut self) {
            count_drop();
        }
    }

    /// Aligned past the tower's levels, so the header's padding and the
    /// node's alignment both come from the key.
    #[repr(align(64))]
    struct OverAligned(#[allow(dead_code)] u64);
    impl Drop for OverAligned {
        fn drop(&mut self) {
            count_drop();
        }
    }

    /// For every height: allocates a node, checks that its tower is inline,
    /// aligned, initialized and inside the allocation, optionally moves the
    /// key out as a winning deleter would, frees the node, and checks that
    /// key and value were each dropped exactly once.
    fn roundtrip_every_height<K, V>(key: impl Fn() -> K, value: impl Fn() -> V, take: bool) {
        for height in 1..=MAX_HEIGHT {
            let before = drops();
            let n = Node::alloc(
                IKey::Val(ManuallyDrop::new(key()), 0),
                Some(value()),
                height,
            );
            let base = n as usize;
            let end = base + Node::<K, V>::layout(height).size();
            assert_eq!(base % std::mem::align_of::<Node<K, V>>(), 0);
            assert!(end - base >= size_of::<Node<K, V>>());
            unsafe {
                assert_eq!((*n).height(), height);
                let levels = (*n).levels();
                assert_eq!(levels.len(), height);
                for (i, level) in levels.iter().enumerate() {
                    let at = level as *const Level<K, V> as usize;
                    assert_eq!(at % std::mem::align_of::<Level<K, V>>(), 0, "level {i}");
                    assert_eq!(
                        at,
                        base + offset_of!(Node<K, V>, levels) + i * size_of::<Level<K, V>>()
                    );
                    assert!(
                        at + size_of::<Level<K, V>>() <= end,
                        "level {i} past the block"
                    );
                    assert!(level.next.load(Ordering::Relaxed).is_null());
                    assert!(level.lock.try_lock(), "level {i} starts unlocked");
                    level.lock.unlock();
                }
                if take {
                    (*n).deleted.store(true, Ordering::Relaxed);
                    drop((*n).take_key());
                    assert_eq!(drops() - before, 1, "take_key hands the key out");
                }
                Node::dealloc(n);
            }
            assert_eq!(
                drops() - before,
                2,
                "height {height}, key taken: {take}: key and value each dropped once"
            );
        }
    }

    #[test]
    fn every_height_roundtrips_with_key_kept_or_taken() {
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

    /// Asserts that `n` is in the state [`Node::alloc`] leaves a node in:
    /// stamp `MAX`, every flag clear, every lock free, every `next` null,
    /// and the payload present.
    unsafe fn assert_fresh<K, V>(n: *mut Node<K, V>, height: usize) {
        // SAFETY: the caller owns the live node.
        unsafe {
            assert_eq!((*n).height(), height);
            assert_eq!((*n).timestamp.load(Ordering::Relaxed), u64::MAX);
            assert!(!(*n).key_taken.load(Ordering::Relaxed));
            assert!(!(*n).deleted.load(Ordering::Relaxed));
            assert!(!(*n).in_unlink_batch.load(Ordering::Relaxed));
            assert!((*n).node_lock.try_lock(), "node lock starts free");
            (*n).node_lock.unlock();
            assert!((*(*n).value.get()).is_some());
            assert!(matches!((*n).key, IKey::Val(..)));
            for (i, level) in (*n).levels().iter().enumerate() {
                assert!(level.next.load(Ordering::Relaxed).is_null(), "level {i}");
                assert!(level.lock.try_lock(), "level {i} starts unlocked");
                level.lock.unlock();
            }
        }
    }

    /// For every height: takes a node through a whole life (stamped,
    /// marked, batched, locked, linked, optionally with its key moved out),
    /// empties it, pools it (poisoning it in debug builds), and writes a
    /// fresh node into the same block. The reused node must match a fresh
    /// `alloc`, and both generations' keys and values drop exactly once.
    fn reuse_every_height(take: bool) {
        for height in 1..=MAX_HEIGHT {
            let before = drops();
            let n = Node::alloc(
                IKey::Val(ManuallyDrop::new(Tracked(1)), 0),
                Some(Tracked(2)),
                height,
            );
            unsafe {
                assert_fresh(n, height);
                (*n).timestamp.store(7, Ordering::Relaxed);
                (*n).deleted.store(true, Ordering::Relaxed);
                (*n).in_unlink_batch.store(true, Ordering::Relaxed);
                (*n).node_lock.lock();
                for level in (*n).levels() {
                    level.lock.lock();
                    level.next.store(n, Ordering::Relaxed);
                }
                if take {
                    drop((*n).take_key());
                }
                assert_eq!(Node::drop_payload(n), height);
                assert_eq!(drops() - before, 2, "height {height}: first payload");

                Node::into_pooled(n, height, std::ptr::null_mut());
                assert!(Node::pooled_next(n).is_null());
                Node::init(
                    n,
                    IKey::Val(ManuallyDrop::new(Tracked(3)), 1),
                    Some(Tracked(4)),
                    height,
                );
                assert_fresh(n, height);
                assert_eq!(drops() - before, 2, "init drops nothing");
                Node::dealloc(n);
            }
            assert_eq!(
                drops() - before,
                4,
                "height {height}, key taken: {take}: each key and value dropped once"
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
        let a = Node::alloc(val(1, 0), Some(()), 3);
        let b = Node::alloc(val(2, 1), Some(()), 3);
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
        let n = Node::alloc(val(1, 0), Some(()), 2);
        unsafe {
            Node::drop_payload(n);
            Node::into_pooled(n, 2, std::ptr::null_mut());
        }
        // A stale reader's first step past a node: its tower height.
        let read =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe { (*n).height() }));
        let msg = read.expect_err("poisoned height must not pass");
        let msg = msg.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("read of a reclaimed node"), "{msg}");
        unsafe { Node::free_block(n, 2) };
    }

    #[test]
    fn level_locks_are_independent() {
        let n = Node::alloc(val(1, 1), Some(()), 3);
        unsafe {
            let levels = (*n).levels();
            levels[0].lock.lock();
            assert!(levels[1].lock.try_lock());
            assert!(!levels[0].lock.try_lock());
            levels[1].lock.unlock();
            levels[0].lock.unlock();
            Node::dealloc(n);
        }
    }
}
