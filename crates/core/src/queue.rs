//! The concurrent SkipQueue (Lotan & Shavit, IPDPS 2000) — native runtime.
//!
//! The algorithm itself (Figures 9–11, §3, §5.4, and the batched
//! physical-deletion departure) lives in the shared [`pqalgo`] crate,
//! written once as `async` control flow over [`pqalgo::Platform`] hooks.
//! This module supplies the **native platform**: nodes are raw pointers,
//! `load_next`/`store_next` are `Acquire`/`Release` atomics on a node's
//! tower words, each level lock is a spin-then-yield test-and-set of its
//! word's low bit (see the `node` module), the node lock is the offline
//! `parking_lot` shim's `RawMutex` (`shims/parking_lot`), the head and tail
//! sentinels are told apart from entries by address, and GC registration is
//! the quiescence collector ([`crate::gc`]). Every hook returns an
//! immediately-ready future, so one poll drives a whole operation and the
//! async plumbing compiles down to the same straight-line code the
//! hand-written version had.
//!
//! What the paper's pseudo-code maps to here:
//!
//! * **`insert`** (Figure 10): search saves the predecessor at every level,
//!   the new node is locked for the duration of linking, and levels are
//!   connected bottom-to-top, each under the predecessor's level lock
//!   re-validated by `getLock` (Figure 9).
//! * **`delete_min`** (Figure 11): traverse the bottom level from the head,
//!   skipping nodes time-stamped after the traversal began, and claim the
//!   first unmarked node with an atomic `SWAP` on its `deleted` flag. The
//!   winner then performs Pugh's physical delete: top-down, two locks per
//!   level, unlinking the node and pointing its forward pointer *backwards*
//!   at its predecessor so concurrent traversals escape gracefully.
//! * Unlinked nodes go to the quiescence collector ([`crate::gc`]).
//!
//! ## Batched physical deletion (a departure from the paper)
//!
//! With [`SkipQueue::with_unlink_batch`] the winner of the `deleted` swap
//! does *not* run Pugh's physical delete. It extracts the payload and
//! returns immediately; the marked node stays linked. Once enough claimed
//! nodes accumulate, one thread at a time (a try-lock — the fast path never
//! blocks on it) collects the whole marked prefix of the bottom level and
//! unlinks it with a single hand-over-hand sweep per level, amortizing the
//! re-search and the two-locks-per-level protocol across the batch, then
//! retires the group to the collector as one unit. A cache-line-private
//! *scan-start hint* lets deleters begin their bottom-level walk past the
//! already-claimed prefix instead of re-walking it from `head.next(0)`;
//! inserts that land in front of the hint invalidate it *before* they
//! time-stamp themselves, which is what keeps the paper's Definition 1
//! intact (see `publish`/repair comments on the fields below). Claim order,
//! sequence numbering, and timestamp placement are identical to the eager
//! path, so strict-mode semantics are preserved bit for bit.
//!
//! A claimed node's key stays comparable-by-reference until the node is
//! reclaimed, after the winning deleter has moved the key out. On the
//! eager path the window is short (a search that reached the victim just
//! before the unlink), and for keys with drop glue `delete_min` closes it:
//! it waits, after unpinning, until every thread pinned before the unlink
//! has exited, and only then hands the key out. Batching widens the window
//! to a whole batch, so there keys must order correctly on a bitwise copy
//! whose original has been dropped — true for every `Copy`/scalar key (the
//! paper's queues only ever hold integer priorities), but undefined
//! behaviour for heap-owning keys (`String`, `Vec<u8>`, …). The batched
//! constructors carry a `K: Copy` bound so the type system enforces this;
//! heap-owning keys get the eager default.
//!
//! Locking invariant: bit 0 of a node's level-`i` word is that level's
//! lock, and the word's pointer is only written while holding it (or by the
//! insert that owns a node not yet published at level `i`); every write
//! keeps the bit as it is. Reads are lock-free (`Acquire`) and mask the bit
//! off. Because a deleter holds the predecessor's level lock while
//! unlinking, holding a node's level lock also pins the node into the list
//! at that level — which is what makes `getLock`'s validation sound.

use std::cell::Cell;
use std::cmp::Ordering as CmpOrdering;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicIsize, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
use std::task::{Context, Poll, Waker};

use crossbeam_utils::CachePadded;
use parking_lot::lock_api::RawMutex as RawMutexApi;
use parking_lot::RawMutex;

use pqalgo::{CleanupPhase, Event, InsertResult, PeekPlatform, Platform, SkipAlgo, TraceEvent};

use crate::gc::{Collector, RawGuard};
use crate::node::{Node, MAX_HEIGHT};
use crate::pq::PriorityQueue;

/// Default cap on tower height (supports ~2^24 items comfortably).
const DEFAULT_MAX_HEIGHT: usize = 24;

/// Default claimed-node threshold that triggers a batched physical delete
/// (see [`SkipQueue::with_unlink_batch`]).
pub const DEFAULT_UNLINK_BATCH: usize = 128;

/// Hard cap on how many nodes one cleanup sweep collects, bounding the
/// latency of the delete that happens to trip the threshold.
const MAX_BATCH: usize = 512;

/// The skiplist-based concurrent priority queue.
///
/// See the [crate docs](crate) for an overview and an example. All methods
/// take `&self` and may be called from any number of threads (up to the
/// `max_threads` configured at construction).
pub struct SkipQueue<K, V> {
    head: *mut Node<K, V>,
    tail: *mut Node<K, V>,
    /// Insert sequence counter; padded so insert traffic does not false-share
    /// with the collector's clock or the batched-mode counters.
    seq: CachePadded<AtomicU64>,
    /// Claimed-but-still-linked nodes awaiting a batched physical delete.
    /// Signed because a claimer marks its node (making it collectible)
    /// *before* counting it here, so a concurrent sweep can subtract a
    /// batch member ahead of its claimer's increment — the counter dips
    /// transiently negative and settles once the increment lands. It is
    /// only a threshold heuristic; exactness is asserted at quiescence.
    deferred: CachePadded<AtomicIsize>,
    /// Serializes batched cleanups. Only ever `try_lock`ed: the fast path
    /// skips cleanup when another thread is already sweeping.
    cleaner: CachePadded<RawMutex>,
    /// Bottom-level scan-start hint: the first node a `delete_min` walk may
    /// need to look at (null ⇒ start at `head.next(0)`). Everything
    /// physically before it is marked. Published by the cleaner *before*
    /// the batch it covers is retired, always with `SeqCst`. That is what
    /// makes dereferencing a loaded hint sound: a pin reads the collector's
    /// clock (see [`crate::gc`]), and a pin recent enough to allow the old
    /// hint's target to be freed read the value the batch's retire
    /// `fetch_add` wrote, or a later one. Its read therefore synchronizes
    /// with that `fetch_add`, which the cleaner made after the hint store,
    /// so the thread loads the newer hint value.
    front: CachePadded<AtomicPtr<Node<K, V>>>,
    /// Bumped (`SeqCst`) by every insert after linking, before stamping.
    /// The cleaner publishes a hint only if this is unchanged across its
    /// collection walk (checked again right after the store), so an insert
    /// that lands in front of a hint mid-publication either aborts the
    /// publication or sees the published hint and repairs it — in both
    /// cases before the insert time-stamps itself, so no *completed* insert
    /// is ever hidden from a later scan (Definition 1).
    front_epoch: CachePadded<AtomicU64>,
    max_height: usize,
    /// Strict mode runs the paper's time-stamp mechanism; relaxed mode (§5.4)
    /// omits it and may return concurrently inserted items.
    strict: bool,
    /// Claimed-node count that triggers a batched physical delete;
    /// 0 = eager (the paper's per-delete Pugh unlink).
    unlink_batch: usize,
    gc: Collector<K, V>,
    /// Test-only seams (height scripting, decision tracing, cleaner phase
    /// hooks, the stale-hint mutation); `None` in production, so the fast
    /// paths pay one branch.
    hooks: Option<Box<TestHooks<K, V>>>,
}

// SAFETY: the queue hands out no references into nodes; keys are compared
// through &K from many threads (K: Sync via K: Send + Sync bound below) and
// key/value move between threads (Send). All node mutation is synchronized
// by the level/node locks and atomics as described in the module docs.
unsafe impl<K: Send + Sync, V: Send> Send for SkipQueue<K, V> {}
unsafe impl<K: Send + Sync, V: Send> Sync for SkipQueue<K, V> {}

impl<K: Ord, V> Default for SkipQueue<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

fn thread_rng_next() -> u64 {
    thread_local! {
        static STATE: Cell<u64> = const { Cell::new(0) };
    }
    STATE.with(|s| {
        let mut x = s.get();
        if x == 0 {
            // Seed from a global counter + the TLS address for per-thread
            // decorrelation; determinism across runs is not required here.
            static SEED: AtomicU64 = AtomicU64::new(0x0DDB_1A5E_5BAD_5EED);
            x = SEED
                .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
                .wrapping_add(s as *const Cell<u64> as u64);
            if x == 0 {
                x = 1;
            }
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        x
    })
}

/// Phase-hook callback type (see [`SkipQueue::with_phase_hook`]).
type PhaseHookFn<K, V> = Box<dyn Fn(CleanupPhase, &SkipQueue<K, V>) + Send + Sync>;

/// Decision-trace configuration: where events go and how to flatten a key
/// to the platform-neutral `u64` the trace format uses.
struct TraceCfg<K> {
    sink: Arc<StdMutex<Vec<TraceEvent>>>,
    key_fn: fn(&K) -> u64,
}

/// Deterministic test seams. All `None`/empty in production.
struct TestHooks<K, V> {
    /// Heights consumed (front first) by inserts before falling back to the
    /// RNG — lets a test replay a recorded schedule's exact towers.
    height_script: StdMutex<VecDeque<usize>>,
    trace: Option<TraceCfg<K>>,
    phase_hook: Option<PhaseHookFn<K, V>>,
    /// Mutation seam: re-introduces the stale-hint use-after-free (a
    /// cleaner ignores its own hint clears once it reaches `PrePublish`, so
    /// both Phase-4 abort paths leave the hint in place) so the abort-path
    /// tests can prove they catch it.
    buggy_abort: bool,
}

impl<K, V> TestHooks<K, V> {
    fn new() -> Self {
        Self {
            height_script: StdMutex::new(VecDeque::new()),
            trace: None,
            phase_hook: None,
            buggy_abort: false,
        }
    }
}

/// Drives a native-platform future to completion with a single poll: every
/// hook returns `Poll::Ready` immediately, so the shared `async` algorithm
/// compiles down to the straight-line code of the hand-written version.
fn drive<F: std::future::Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    match fut.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(v) => v,
        Poll::Pending => unreachable!("native platform futures never suspend"),
    }
}

/// The native [`Platform`]: one is stack-allocated per public-API call.
/// Operands go in through `input` before the algorithm runs; results come
/// back out of `out` after it returns (key/value ownership never crosses
/// the platform trait).
///
/// SAFETY (for every raw dereference below): the algorithm only hands back
/// node handles it reached between this platform's `enter`/`exit` hooks,
/// i.e. under a GC pin, so the nodes cannot be freed; unlinked nodes'
/// forward pointers lead back into the list (the paper's backward-pointer
/// trick). Lock/unlock pairing is enforced by the shared algorithm.
struct NativeOp<'q, K, V> {
    q: &'q SkipQueue<K, V>,
    input: Cell<Option<(K, V)>>,
    out: Cell<Option<(K, V)>>,
    /// The GC pin token, held between `enter` and `exit`.
    pin: Cell<Option<RawGuard>>,
    /// Deletion stamp of the eager victim this operation retired, kept only
    /// for keys with drop glue (see `exit`).
    retired: Cell<Option<u64>>,
    /// Set when the stale-hint mutation is armed for this operation's
    /// cleaner (see `TestHooks::buggy_abort`).
    keep_hint: Cell<bool>,
}

impl<'q, K: Ord, V> NativeOp<'q, K, V> {
    fn new(q: &'q SkipQueue<K, V>) -> Self {
        Self {
            q,
            input: Cell::new(None),
            out: Cell::new(None),
            pin: Cell::new(None),
            retired: Cell::new(None),
            keep_hint: Cell::new(false),
        }
    }

    /// The test seams' side of [`Platform::event`]: decision trace, phase
    /// injection and the stale-hint mutation. Out of line so production
    /// operations pay one branch per event.
    #[cold]
    #[inline(never)]
    fn test_event(&self, hooks: &TestHooks<K, V>, ev: Event<'_, *mut Node<K, V>>) {
        if let Some(cfg) = &hooks.trace {
            // SAFETY: every event node is reachable under this op's pin;
            // tracing is only enabled for `Copy` keys (see `with_trace`),
            // whose bits stay readable after the key was moved out.
            let key = |n| unsafe { self.q.trace_key(cfg.key_fn, n) };
            if let Some(t) = TraceEvent::flatten(ev, key) {
                cfg.sink.lock().unwrap().push(t);
            }
        }
        if let Event::Phase(phase) = ev {
            if phase == CleanupPhase::PrePublish && hooks.buggy_abort {
                self.keep_hint.set(true);
            }
            if let Some(f) = &hooks.phase_hook {
                f(phase, self.q);
            }
        }
    }
}

impl<K: Ord, V> Platform for NativeOp<'_, K, V> {
    type Node = *mut Node<K, V>;
    // Search operands are node pointers too: the key (with its FIFO
    // sequence number) lives inside the new/victim node.
    type SearchKey = *mut Node<K, V>;

    // The native queue is a multiset (duplicate priorities get fresh
    // nodes), already holds the victim pointer after the claim, moves
    // non-`Copy` keys out only once the node is unlinked, and reads stamps
    // for free (the `u64::MAX` filter also skips mid-insert nodes and the
    // head sentinel in relaxed mode).
    const DICT_INSERT: bool = false;
    const REFIND_VICTIM: bool = false;
    const EAGER_PAYLOAD_FIRST: bool = false;
    const RELAXED_CLAIM_READS_STAMP: bool = true;

    fn event(&self, ev: Event<'_, Self::Node>) {
        if let Some(hooks) = self.q.hooks.as_deref() {
            self.test_event(hooks, ev);
        }
    }

    async fn enter(&self) {
        self.pin.set(Some(self.q.gc.enter()));
    }

    async fn exit(&self) {
        let pin = self.pin.take().expect("exit without enter");
        self.q.gc.exit(pin);
        // An eager winner moves a key with drop glue out of its victim, and
        // the caller may drop it as soon as `delete_min` returns. A search
        // that reached the victim before the unlink may still compare that
        // key, so wait for every such search to exit before handing it out.
        if std::mem::needs_drop::<K>() {
            if let Some(stamp) = self.retired.take() {
                self.q.gc.wait_for_readers(pin, stamp);
            }
        }
    }

    fn insert_prepare(&self) -> Self::SearchKey {
        let (key, value) = self.input.take().expect("insert operand staged");
        let height = self.q.next_height();
        let seq = self.q.seq.fetch_add(1, Ordering::Relaxed);
        let pin = self.pin.get().expect("insert under pin");
        self.q.gc.add_len(pin, 1);
        self.q.gc.alloc(pin, key, seq, value, height)
    }

    fn materialize(&self, skey: Self::SearchKey) -> (Self::Node, usize) {
        // SAFETY: freshly allocated (or recycled) in `insert_prepare`,
        // exclusively owned until linked.
        (skey, unsafe { (*skey).height() })
    }

    async fn update_in_place(&self, _node: Self::Node) {
        unreachable!("native insert is multiset (DICT_INSERT = false)");
    }

    async fn store_stamp(&self, node: Self::Node) {
        // SAFETY: module-level platform contract (pinned node).
        unsafe {
            (*node)
                .timestamp
                .store(self.q.gc.clock().tick(), Ordering::Release);
        }
    }

    async fn load_next(&self, node: Self::Node, lvl: usize) -> Self::Node {
        // SAFETY: platform contract.
        unsafe {
            if lvl > 0 {
                // A search that stops on this level drops to `lvl - 1` and
                // compares the key of `node.next(lvl - 1)` next: start that
                // miss now, overlapped with the one on this level's successor.
                Node::prefetch_key((*node).next(lvl - 1));
            }
            (*node).next(lvl)
        }
    }

    async fn store_next(&self, node: Self::Node, lvl: usize, to: Self::Node) {
        // SAFETY: platform contract; the algorithm holds `node`'s level
        // lock here, or `node` is this insert's own unpublished node
        // (locking invariant in the module docs).
        unsafe { (*node).store_next(lvl, to) }
    }

    async fn key_lt(&self, node: Self::Node, skey: Self::SearchKey) -> bool {
        // SAFETY: platform contract; keys are compared through shared refs.
        unsafe { self.q.key_cmp(node, skey).is_lt() }
    }

    async fn key_eq(&self, node: Self::Node, skey: Self::SearchKey) -> bool {
        // SAFETY: platform contract.
        unsafe { self.q.key_cmp(node, skey).is_eq() }
    }

    async fn lock_level(&self, node: Self::Node, lvl: usize) {
        // SAFETY: platform contract.
        unsafe { (*node).lock_level(lvl) }
    }

    async fn unlock_level(&self, node: Self::Node, lvl: usize) {
        // SAFETY: platform contract; the algorithm pairs every unlock with
        // its own earlier lock.
        unsafe { (*node).unlock_level(lvl) }
    }

    async fn lock_node(&self, node: Self::Node) {
        // SAFETY: platform contract.
        unsafe { (*node).node_lock.lock() }
    }

    async fn unlock_node(&self, node: Self::Node) {
        // SAFETY: platform contract (paired with `lock_node`).
        unsafe { (*node).node_lock.unlock() }
    }

    async fn delete_read_clock(&self) -> u64 {
        // A read: Lemma 1 needs only "an insert that completed before this
        // delete began has a smaller stamp" (see `TimestampClock::peek`).
        self.q.gc.clock().peek()
    }

    async fn load_stamp(&self, node: Self::Node) -> u64 {
        // SAFETY: platform contract.
        unsafe { (*node).timestamp.load(Ordering::Acquire) }
    }

    async fn load_deleted(&self, node: Self::Node) -> bool {
        // SAFETY: platform contract.
        unsafe { (*node).deleted.load(Ordering::Acquire) }
    }

    async fn swap_deleted(&self, node: Self::Node) -> bool {
        // SAFETY: platform contract.
        unsafe { (*node).deleted.swap(true, Ordering::AcqRel) }
    }

    async fn take_payload(&self, node: Self::Node) {
        // SAFETY: we are the unique winner of the `deleted` swap on an
        // entry; nobody else moves key/value out (the mark is never cleared).
        self.out.set(Some(unsafe { (*node).take_payload() }));
        let pin = self.pin.get().expect("claim under pin");
        self.q.gc.add_len(pin, -1);
    }

    fn victim_search_key(&self, victim: Self::Node) -> Self::SearchKey {
        victim
    }

    async fn victim_height(&self, victim: Self::Node) -> usize {
        // SAFETY: platform contract.
        unsafe { (*victim).height() }
    }

    async fn retire_one(&self, victim: Self::Node, _height: usize) {
        let pin = self.pin.get().expect("retire under pin");
        // SAFETY: this caller unlinked `victim` and holds the pin.
        let stamp = unsafe { self.q.gc.retire(pin, victim) };
        if std::mem::needs_drop::<K>() {
            self.retired.set(Some(stamp));
        }
    }

    fn deferred_push(&self, _node: Self::Node) -> bool {
        self.q.deferred.fetch_add(1, Ordering::AcqRel) + 1 >= self.q.unlink_batch as isize
    }

    fn deferred_pending(&self) -> bool {
        self.q.deferred.load(Ordering::Relaxed) > 0
    }

    async fn load_hint(&self) -> Option<Self::Node> {
        let hint = self.q.front.load(Ordering::SeqCst);
        if hint.is_null() {
            None
        } else {
            Some(hint)
        }
    }

    async fn store_hint(&self, hint: Option<Self::Node>) {
        if hint.is_none() && self.keep_hint.get() {
            return;
        }
        let ptr = hint.unwrap_or(std::ptr::null_mut());
        self.q.front.store(ptr, Ordering::SeqCst);
    }

    async fn hint_key_gt(&self, hint: Self::Node, node: Self::Node) -> bool {
        // SAFETY: platform contract (both pinned).
        unsafe { self.q.key_cmp(hint, node).is_gt() }
    }

    async fn bump_epoch(&self, _node: Self::Node) {
        self.q.front_epoch.fetch_add(1, Ordering::SeqCst);
    }

    async fn load_epoch(&self) -> u64 {
        self.q.front_epoch.load(Ordering::SeqCst)
    }

    async fn try_lock_cleaner(&self) -> bool {
        self.q.cleaner.try_lock()
    }

    async fn unlock_cleaner(&self) {
        // SAFETY: paired with a successful `try_lock_cleaner` by the
        // algorithm.
        unsafe { self.q.cleaner.unlock() }
    }

    fn max_batch(&self) -> usize {
        MAX_BATCH
    }

    async fn batch_handshake(&self, node: Self::Node) -> bool {
        // A held node lock means the insert is still linking its upper
        // levels; don't wait (the sweep can end here), just probe.
        // SAFETY: platform contract.
        unsafe {
            if (*node).node_lock.try_lock() {
                (*node).node_lock.unlock();
                true
            } else {
                false
            }
        }
    }

    async fn note_batch_member(&self, node: Self::Node) -> usize {
        // SAFETY: only the cleaner (serialized by its lock) touches
        // `in_unlink_batch` while the node is linked.
        unsafe {
            (*node).in_unlink_batch.store(true, Ordering::Relaxed);
            (*node).height()
        }
    }

    fn is_batch_member(&self, node: Self::Node) -> bool {
        // SAFETY: platform contract.
        unsafe { (*node).in_unlink_batch.load(Ordering::Relaxed) }
    }

    async fn retire_unlinked_batch(&self, batch: Vec<Self::Node>, _heights: &[usize]) {
        self.q
            .deferred
            .fetch_sub(batch.len() as isize, Ordering::AcqRel);
        let pin = self.pin.get().expect("retire under pin");
        // SAFETY: the cleaner unlinked every member and holds the pin.
        unsafe { self.q.gc.retire_batch(pin, batch) };
    }
}

impl<K: Ord + Copy, V> PeekPlatform for NativeOp<'_, K, V> {
    type PeekKey = K;

    async fn peek_key(&self, node: Self::Node) -> Option<K> {
        if node == self.q.head || node == self.q.tail {
            return None;
        }
        // SAFETY: platform contract; an entry's key bits stay readable
        // (`K: Copy`) until the node is reclaimed.
        Some(unsafe { *(*node).key() })
    }
}

impl<K: Ord, V> SkipQueue<K, V> {
    /// Creates a queue with the paper's strict (time-stamped) semantics and
    /// default parameters: height cap 24, level probability 1/2, up to 256
    /// threads.
    pub fn new() -> Self {
        Self::with_params(DEFAULT_MAX_HEIGHT, true, 256)
    }

    /// Creates the paper's *relaxed* variant (§5.4): no time stamps, so a
    /// `delete_min` may return an item whose insert was concurrent with it.
    pub fn new_relaxed() -> Self {
        Self::with_params(DEFAULT_MAX_HEIGHT, false, 256)
    }

    /// Full-control constructor.
    ///
    /// * `max_height` — tower cap, `1..=32`; ~log2 of the expected maximum
    ///   queue size is ideal (the paper uses exactly this "simple method").
    /// * `strict` — run the time-stamp ordering mechanism.
    /// * `max_threads` — bound on distinct threads ever touching the queue.
    pub fn with_params(max_height: usize, strict: bool, max_threads: usize) -> Self {
        assert!((1..=MAX_HEIGHT).contains(&max_height));
        let tail = Node::alloc_sentinel(max_height);
        let head = Node::alloc_sentinel(max_height);
        // SAFETY: freshly allocated, exclusively owned here.
        unsafe {
            for lvl in 0..max_height {
                (*head).store_next(lvl, tail);
            }
        }
        Self {
            head,
            tail,
            seq: CachePadded::new(AtomicU64::new(0)),
            deferred: CachePadded::new(AtomicIsize::new(0)),
            cleaner: CachePadded::new(RawMutex::INIT),
            front: CachePadded::new(AtomicPtr::new(std::ptr::null_mut())),
            front_epoch: CachePadded::new(AtomicU64::new(0)),
            max_height,
            strict,
            unlink_batch: 0,
            gc: Collector::new(max_threads),
            hooks: None,
        }
    }

    /// Approximate number of items (exact when no operations are in flight,
    /// never negative). Sums the per-thread counts the collector keeps (see
    /// [`crate::gc`]), so it reads one cache line per thread that has used
    /// the queue.
    pub fn len(&self) -> usize {
        self.gc.len()
    }

    /// True when [`SkipQueue::len`] is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this queue runs the strict (time-stamped) protocol.
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// Orders two nodes: the head before everything, the tail after
    /// everything, entries by `(key, seq)`. The sentinels are told apart by
    /// address, so their (absent) keys are never read.
    ///
    /// # Safety
    ///
    /// Both nodes must be live nodes of this queue, reachable under the
    /// caller's pin or owned by it.
    #[inline]
    unsafe fn key_cmp(&self, a: *mut Node<K, V>, b: *mut Node<K, V>) -> CmpOrdering {
        if a == b {
            CmpOrdering::Equal
        } else if a == self.tail || b == self.head {
            CmpOrdering::Greater
        } else if a == self.head || b == self.tail {
            CmpOrdering::Less
        } else {
            // SAFETY: per contract; neither node is a sentinel.
            unsafe { (*a).cmp_entry(&*b) }
        }
    }

    /// Flattens a node's key for the decision trace: head ⇒ 0, tail ⇒
    /// `u64::MAX`, entries through the configured projection.
    ///
    /// # Safety
    ///
    /// `node` must be reachable under the caller's pin. Retired-batch
    /// members may have had their `K` moved out; tracing is only enabled
    /// for `Copy` keys (see [`SkipQueue::with_trace`]), whose bits stay
    /// readable until the node is reclaimed.
    unsafe fn trace_key(&self, key_fn: fn(&K) -> u64, node: *mut Node<K, V>) -> u64 {
        if node == self.head {
            0
        } else if node == self.tail {
            u64::MAX
        } else {
            // SAFETY: per contract; `node` is an entry.
            key_fn(unsafe { (*node).key() })
        }
    }

    /// The shared-algorithm descriptor for this queue's configuration.
    fn algo(&self) -> SkipAlgo<*mut Node<K, V>> {
        SkipAlgo {
            head: self.head,
            tail: self.tail,
            max_height: self.max_height,
            strict: self.strict,
            batched: self.unlink_batch != 0,
        }
    }

    fn random_height(&self) -> usize {
        // One RNG word decides the whole tower: each consecutive set low
        // bit is an independent p = 1/2 "grow another level" success (the
        // paper's level probability), so `1 + trailing_ones` has exactly the
        // right geometric law and costs one xorshift instead of one per level.
        let h = 1 + thread_rng_next().trailing_ones() as usize;
        h.min(self.max_height)
    }

    /// Tower height for the next insert: scripted (tests) or random.
    fn next_height(&self) -> usize {
        if let Some(hooks) = &self.hooks {
            if let Some(h) = hooks.height_script.lock().unwrap().pop_front() {
                return h;
            }
        }
        self.random_height()
    }

    /// Inserts `value` with priority `key` (Figure 10). Always adds an
    /// entry; duplicate priorities are returned in insertion order.
    pub fn insert(&self, key: K, value: V) {
        let op = NativeOp::new(self);
        op.input.set(Some((key, value)));
        let res = drive(self.algo().insert(&op));
        debug_assert_eq!(res, InsertResult::Inserted);
    }

    /// Removes and returns the minimum entry (Figure 11), or `None` if no
    /// claimable entry is found.
    ///
    /// In strict mode the returned entry is the minimum over all inserts
    /// that completed before this call began, minus already-claimed
    /// deletions (the paper's Definition 1). In relaxed mode a concurrently
    /// inserted smaller entry may be returned instead.
    pub fn delete_min(&self) -> Option<(K, V)> {
        let op = NativeOp::new(self);
        if drive(self.algo().delete_min(&op)) {
            Some(op.out.take().expect("winning delete filled the result"))
        } else {
            None
        }
    }

    /// Checks structural invariants, including that no level lock bit and
    /// no node lock is left held (a leaked lock would otherwise only show
    /// as a later hang). Takes `&mut self` so it can only run quiescently
    /// (tests).
    pub fn check_invariants(&mut self) {
        // SAFETY: &mut self — no concurrent operations.
        unsafe {
            let assert_unlocked = |node: *mut Node<K, V>, what: &str| {
                for lvl in 0..(*node).height() {
                    assert!(!(*node).level_locked(lvl), "{what}: level {lvl} lock held");
                }
                assert!((*node).node_lock.try_lock(), "{what}: node lock held");
                (*node).node_lock.unlock();
            };
            assert_unlocked(self.head, "head");
            assert_unlocked(self.tail, "tail");
            let mut live = 0usize;
            let mut marked = 0usize;
            for lvl in (0..self.max_height).rev() {
                let mut prev = self.head;
                let mut cur = (*prev).next(lvl);
                while cur != self.tail {
                    assert!(self.key_cmp(prev, cur).is_lt(), "level {lvl} out of order");
                    assert!((*cur).height() > lvl, "node linked above its height");
                    if (*cur).deleted.load(Ordering::Relaxed) {
                        // Batched mode legitimately leaves claimed nodes
                        // linked until the next sweep; they must already be
                        // emptied by their winning deleter.
                        assert_ne!(
                            self.unlink_batch, 0,
                            "marked node still linked in quiescent state"
                        );
                        assert!((*cur).payload_taken(), "deferred node's payload not taken");
                        if lvl == 0 {
                            marked += 1;
                        }
                    } else if lvl == 0 {
                        live += 1;
                        assert!(!(*cur).payload_taken(), "unclaimed node without payload");
                        assert_ne!(
                            (*cur).timestamp.load(Ordering::Relaxed),
                            u64::MAX,
                            "linked node with incomplete insert in quiescent state"
                        );
                    }
                    if lvl == 0 {
                        assert_unlocked(cur, "linked node");
                    }
                    prev = cur;
                    cur = (*cur).next(lvl);
                }
            }
            assert_eq!(live, self.len(), "len out of sync with bottom level");
            assert_eq!(
                marked as isize,
                self.deferred.load(Ordering::Relaxed),
                "deferred counter out of sync with marked nodes"
            );
        }
    }

    /// Forces a garbage-collection cycle; returns the number of nodes freed.
    pub fn collect_garbage(&self) -> usize {
        self.gc.collect()
    }

    /// Number of retired nodes not yet freed (diagnostics).
    pub fn garbage_pending(&self) -> usize {
        self.gc.pending()
    }

    fn hooks_mut(&mut self) -> &mut TestHooks<K, V> {
        self.hooks.get_or_insert_with(|| Box::new(TestHooks::new()))
    }

    /// Test seam: pre-loads tower heights consumed (front first) by
    /// subsequent inserts, so a recorded schedule replays with identical
    /// skiplist shape. Falls back to the RNG when the script runs dry.
    #[doc(hidden)]
    #[must_use]
    pub fn with_height_script<I: IntoIterator<Item = usize>>(mut self, heights: I) -> Self {
        self.hooks_mut()
            .height_script
            .lock()
            .unwrap()
            .extend(heights);
        self
    }

    /// Test seam: registers a callback invoked at fixed points inside the
    /// batched cleaner (see [`CleanupPhase`]), with the queue itself in
    /// hand so the callback can inject concurrent operations.
    #[doc(hidden)]
    #[must_use]
    pub fn with_phase_hook(
        mut self,
        f: impl Fn(CleanupPhase, &SkipQueue<K, V>) + Send + Sync + 'static,
    ) -> Self {
        self.hooks_mut().phase_hook = Some(Box::new(f));
        self
    }

    /// Mutation seam: re-introduces the PR 3 stale-hint bug (aborted hint
    /// publications leave the previous hint in place). Only for proving the
    /// abort-path tests catch the bug; never set in production.
    #[doc(hidden)]
    pub fn set_buggy_abort(&mut self, on: bool) {
        self.hooks_mut().buggy_abort = on;
    }

    /// Test seam: whether the batched scan-start hint is currently unset.
    #[doc(hidden)]
    pub fn debug_front_hint_is_null(&self) -> bool {
        self.front.load(Ordering::SeqCst).is_null()
    }

    /// Test seam: recycles the calling thread's reclaimable garbage into
    /// its node pool now, as a retire past the collection threshold would
    /// (debug builds poison the pooled blocks; see [`crate::gc`]).
    #[doc(hidden)]
    pub fn debug_recycle_garbage(&self) {
        self.gc.recycle_own();
    }
}

impl<K: Ord + Copy, V> SkipQueue<K, V> {
    /// Returns a copy of the smallest unclaimed priority without claiming
    /// it, or `None` when no unmarked node is found.
    ///
    /// This is the cheap front-key probe a sampling front-end (e.g. a
    /// sharded multi-queue choosing between `c` candidate shards) needs:
    /// one bottom-level walk, no SWAP, no locks. In batched mode the walk
    /// starts at the published scan-start hint, so it skips the
    /// already-claimed prefix just like `delete_min` does.
    ///
    /// The result is a *relaxed snapshot*: the returned key belonged to a
    /// node that was linked and unclaimed at some instant during the call,
    /// but a concurrent `delete_min` may claim it (or a concurrent `insert`
    /// may link a smaller key) before the caller acts on it. Strict-mode
    /// timestamps are deliberately ignored — a probe is not a claim, so
    /// Definition 1 does not apply to it.
    ///
    /// Requires `K: Copy` for the same reason the batched constructors do:
    /// the key bytes are read through a shared reference while a winning
    /// deleter may concurrently move the original out.
    pub fn peek_min_key(&self) -> Option<K> {
        let op = NativeOp::new(self);
        drive(self.algo().peek_min_key(&op))
    }

    /// Switches physical deletion to the deferred, batched scheme (see the
    /// [module docs](self)): a claimed node stays linked until `threshold`
    /// claims have accumulated, then one thread unlinks the whole claimed
    /// prefix in a single sweep and retires it as a group. `threshold = 0`
    /// restores the paper's eager per-delete unlink.
    ///
    /// Strict-mode ordering (Definition 1) is preserved exactly. Batched
    /// mode compares a claimed node's key through a bitwise copy after the
    /// winning deleter has moved the original out, so keys are required to
    /// be `Copy` — the bound is what keeps heap-owning keys (`String`,
    /// `Vec<u8>`, …) on the eager default, where the same window never
    /// reaches a dropped key (see the module docs).
    #[must_use]
    pub fn with_unlink_batch(mut self, threshold: usize) -> Self {
        self.unlink_batch = threshold;
        self
    }

    /// Strict queue with batched physical deletion at the default
    /// threshold ([`DEFAULT_UNLINK_BATCH`]).
    pub fn new_batched() -> Self {
        Self::new().with_unlink_batch(DEFAULT_UNLINK_BATCH)
    }

    /// Test seam: records the algorithm's logical decisions (heights,
    /// claims, stamps, hint traffic, retirements) into `sink`, flattening
    /// keys through `key_fn`. `Copy` keys only: retired batch members'
    /// key bits are read after the original was moved out.
    #[doc(hidden)]
    #[must_use]
    pub fn with_trace(
        mut self,
        sink: Arc<StdMutex<Vec<TraceEvent>>>,
        key_fn: fn(&K) -> u64,
    ) -> Self {
        self.hooks_mut().trace = Some(TraceCfg { sink, key_fn });
        self
    }
}

impl<K: Ord, V> PriorityQueue<K, V> for SkipQueue<K, V>
where
    K: Send + Sync,
    V: Send,
{
    fn insert(&self, key: K, value: V) {
        SkipQueue::insert(self, key, value);
    }

    fn delete_min(&self) -> Option<(K, V)> {
        SkipQueue::delete_min(self)
    }

    fn len(&self) -> usize {
        SkipQueue::len(self)
    }
}

impl<K: Ord, V> SkipQueue<K, V> {
    /// Drains the queue in priority order. Requires exclusive access, so it
    /// observes a quiescent state and returns *everything*.
    pub fn drain_sorted(&mut self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(kv) = self.delete_min() {
            out.push(kv);
        }
        out
    }
}

impl<K, V> std::fmt::Debug for SkipQueue<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipQueue")
            .field("len", &self.gc.len())
            .field("max_height", &self.max_height)
            .field("strict", &self.strict)
            .field("unlink_batch", &self.unlink_batch)
            .field("deferred", &self.deferred.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<K: Ord, V> Extend<(K, V)> for SkipQueue<K, V> {
    fn extend<T: IntoIterator<Item = (K, V)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for SkipQueue<K, V> {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut q = SkipQueue::new();
        q.extend(iter);
        q
    }
}

impl<K, V> Drop for SkipQueue<K, V> {
    fn drop(&mut self) {
        // SAFETY: &mut self — exclusive. Free every node still linked at the
        // bottom level, then the sentinels; the collector's own Drop frees
        // retired nodes.
        unsafe {
            let mut cur = (*self.head).next(0);
            while cur != self.tail {
                let next = (*cur).next(0);
                Node::dealloc(cur);
                cur = next;
            }
            Node::dealloc(self.head);
            Node::dealloc(self.tail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;
    use std::sync::Arc;

    #[test]
    fn empty_queue() {
        let q: SkipQueue<u64, u64> = SkipQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.delete_min(), None);
    }

    #[test]
    fn single_thread_ordering() {
        let mut q = SkipQueue::new();
        for k in [5u64, 1, 9, 3, 7, 0, 8, 2, 6, 4] {
            q.insert(k, k * 10);
        }
        q.check_invariants();
        for expect in 0..10u64 {
            let (k, v) = q.delete_min().unwrap();
            assert_eq!(k, expect);
            assert_eq!(v, expect * 10);
        }
        assert_eq!(q.delete_min(), None);
        q.check_invariants();
    }

    #[test]
    fn duplicate_priorities_fifo() {
        let q = SkipQueue::new();
        q.insert(1u64, "a");
        q.insert(1, "b");
        q.insert(0, "z");
        q.insert(1, "c");
        assert_eq!(q.delete_min(), Some((0, "z")));
        assert_eq!(q.delete_min(), Some((1, "a")));
        assert_eq!(q.delete_min(), Some((1, "b")));
        assert_eq!(q.delete_min(), Some((1, "c")));
    }

    #[test]
    fn randomized_against_binary_heap() {
        let mut q = SkipQueue::new();
        let mut reference = BinaryHeap::new();
        let mut state = 7u64;
        for i in 0..5_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.is_multiple_of(3) {
                let got = q.delete_min().map(|(k, _)| k);
                let want = reference.pop().map(|std::cmp::Reverse(k)| k);
                assert_eq!(got, want, "step {i}");
            } else {
                let k = state >> 32;
                q.insert(k, ());
                reference.push(std::cmp::Reverse(k));
            }
        }
        assert_eq!(q.len(), reference.len());
        q.check_invariants();
    }

    #[test]
    fn concurrent_inserts_then_drain() {
        let q = Arc::new(SkipQueue::new());
        let per_thread = 500u64;
        let threads = 8u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..per_thread {
                        q.insert(t * per_thread + i, t);
                    }
                });
            }
        });
        let mut q = Arc::into_inner(q).unwrap();
        q.check_invariants();
        assert_eq!(q.len() as u64, threads * per_thread);
        let mut prev = None;
        let mut count = 0;
        while let Some((k, _)) = q.delete_min() {
            if let Some(p) = prev {
                assert!(k > p, "out of order: {p} then {k}");
            }
            prev = Some(k);
            count += 1;
        }
        assert_eq!(count, threads * per_thread);
    }

    #[test]
    fn concurrent_mixed_workload_conserves_items() {
        let q = Arc::new(SkipQueue::new());
        let threads = 8usize;
        let ops = 2_000usize;
        let deleted: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        let mut state = (t as u64 + 1) * 0x9E37_79B9;
                        let mut inserted = 0u64;
                        for _ in 0..ops {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            if state.is_multiple_of(2) {
                                q.insert(state >> 16, t as u64);
                                inserted += 1;
                            } else if let Some((k, _)) = q.delete_min() {
                                got.push(k);
                            }
                        }
                        (inserted, got)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total_inserted: u64 = deleted.iter().map(|(i, _)| i).sum();
        let total_deleted: usize = deleted.iter().map(|(_, g)| g.len()).sum();
        assert_eq!(
            q.len() as u64,
            total_inserted - total_deleted as u64,
            "conservation of items"
        );
        let mut q = Arc::into_inner(q).unwrap();
        q.check_invariants();
    }

    #[test]
    fn no_item_delivered_twice() {
        let q = Arc::new(SkipQueue::new());
        let n = 4_000u64;
        for k in 0..n {
            q.insert(k, ());
        }
        let mut all: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Some((k, _)) = q.delete_min() {
                            got.push(k);
                        }
                        got
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(all.len() as u64, n);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len() as u64, n, "duplicates delivered");
    }

    #[test]
    fn relaxed_mode_also_conserves_items() {
        let q = Arc::new(SkipQueue::new_relaxed());
        assert!(!q.is_strict());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        q.insert(t * 10_000 + i, ());
                        if i % 2 == 0 {
                            q.delete_min();
                        }
                    }
                });
            }
        });
        let mut q = Arc::into_inner(q).unwrap();
        q.check_invariants();
        assert_eq!(q.len(), 4 * 1_000 - 4 * 500);
    }

    #[test]
    fn check_invariants_catches_a_leaked_lock() {
        let mut q: SkipQueue<u64, ()> = SkipQueue::new().with_height_script([2usize]);
        q.insert(1, ());
        q.check_invariants();
        let node = unsafe { (*q.head).next(0) };
        let leak = |q: &mut SkipQueue<u64, ()>| {
            let res =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.check_invariants()));
            let msg = res.expect_err("a held lock must fail the check");
            msg.downcast_ref::<String>()
                .expect("formatted message")
                .clone()
        };
        unsafe {
            (*node).lock_level(1);
            assert!(leak(&mut q).contains("level 1 lock held"));
            (*node).unlock_level(1);
            (*q.head).lock_level(0);
            assert!(leak(&mut q).contains("head: level 0 lock held"));
            (*q.head).unlock_level(0);
            (*node).node_lock.lock();
            assert!(leak(&mut q).contains("node lock held"));
            (*node).node_lock.unlock();
        }
        q.check_invariants();
    }

    #[test]
    fn garbage_is_eventually_reclaimed() {
        let q: SkipQueue<u64, u64> = SkipQueue::new();
        for k in 0..500 {
            q.insert(k, k);
        }
        for _ in 0..500 {
            q.delete_min().unwrap();
        }
        q.collect_garbage();
        assert_eq!(q.garbage_pending(), 0);
    }

    #[test]
    fn queue_dropped_with_full_pools_leaks_nothing() {
        // Hold loops on two threads fill both threads' node pools with
        // reclaimed blocks (and leave garbage pending); dropping the queue
        // must free pooled blocks, garbage and linked nodes alike. Payload
        // drops are counted here; the blocks are checked by the
        // AddressSanitizer job's leak check.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static LIVE: AtomicUsize = AtomicUsize::new(0);

        struct Tracked;
        impl Tracked {
            fn new() -> Self {
                LIVE.fetch_add(1, Ordering::SeqCst);
                Tracked
            }
        }
        impl Drop for Tracked {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }

        {
            let q: SkipQueue<u64, Tracked> = SkipQueue::new();
            for k in 0..512 {
                q.insert(k, Tracked::new());
            }
            std::thread::scope(|s| {
                for t in 0..2u64 {
                    let q = &q;
                    s.spawn(move || {
                        for i in 0..4_000u64 {
                            let (k, v) = q.delete_min().expect("hold keeps the queue full");
                            q.insert(k + 1 + (i * 7 + t) % 97, v);
                        }
                    });
                }
            });
            assert_eq!(q.len(), 512);
        }
        assert_eq!(
            LIVE.load(Ordering::SeqCst),
            0,
            "payload leak or double drop"
        );
    }

    #[test]
    fn drop_frees_values() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);

        struct Tracked;
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }

        {
            let q = SkipQueue::new();
            for k in 0..100u64 {
                q.insert(k, Tracked);
            }
            for _ in 0..40 {
                drop(q.delete_min().unwrap().1);
            }
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn string_keys_and_values() {
        let q: SkipQueue<String, String> = SkipQueue::new();
        q.insert("banana".into(), "yellow".into());
        q.insert("apple".into(), "red".into());
        q.insert("cherry".into(), "dark".into());
        assert_eq!(
            q.delete_min(),
            Some(("apple".to_string(), "red".to_string()))
        );
        assert_eq!(
            q.delete_min(),
            Some(("banana".to_string(), "yellow".to_string()))
        );
    }

    #[test]
    fn min_height_queue_works() {
        let mut q: SkipQueue<u64, ()> = SkipQueue::with_params(1, true, 4);
        for k in [3u64, 1, 2] {
            q.insert(k, ());
        }
        q.check_invariants();
        assert_eq!(q.delete_min().map(|(k, _)| k), Some(1));
    }

    #[test]
    fn drain_sorted_and_from_iterator() {
        let mut q: SkipQueue<u64, &str> = [(3u64, "c"), (1, "a"), (2, "b")].into_iter().collect();
        assert_eq!(q.len(), 3);
        let drained = q.drain_sorted();
        assert_eq!(drained, vec![(1, "a"), (2, "b"), (3, "c")]);
        assert!(q.is_empty());
    }

    #[test]
    fn extend_adds_items() {
        let mut q: SkipQueue<u64, u64> = SkipQueue::new();
        q.extend((0..10).map(|k| (k, k * 2)));
        assert_eq!(q.len(), 10);
        assert_eq!(q.delete_min(), Some((0, 0)));
    }

    #[test]
    fn debug_output_mentions_fields() {
        let q: SkipQueue<u64, u64> = SkipQueue::new();
        q.insert(1, 1);
        let s = format!("{q:?}");
        assert!(s.contains("SkipQueue"));
        assert!(s.contains("len"));
        assert!(s.contains("strict"));
    }

    #[test]
    fn strict_ordering_smoke() {
        // A completed insert must be visible to a subsequent delete_min.
        let q = SkipQueue::new();
        for round in 0..200u64 {
            q.insert(round, ());
            let (k, _) = q.delete_min().expect("completed insert must be seen");
            assert_eq!(k, round);
        }
    }

    #[test]
    fn batched_single_thread_ordering() {
        let mut q = SkipQueue::new().with_unlink_batch(8);
        for k in [5u64, 1, 9, 3, 7, 0, 8, 2, 6, 4] {
            q.insert(k, k * 10);
        }
        q.check_invariants();
        for expect in 0..10u64 {
            assert_eq!(q.delete_min(), Some((expect, expect * 10)));
        }
        assert_eq!(q.delete_min(), None);
        q.check_invariants();
    }

    #[test]
    fn batched_randomized_against_binary_heap() {
        // Small threshold so sweeps fire constantly, including mid-stream.
        let mut q = SkipQueue::new().with_unlink_batch(4);
        let mut reference = BinaryHeap::new();
        let mut state = 99u64;
        for i in 0..5_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.is_multiple_of(3) {
                let got = q.delete_min().map(|(k, _)| k);
                let want = reference.pop().map(|std::cmp::Reverse(k)| k);
                assert_eq!(got, want, "step {i}");
            } else {
                let k = state >> 32;
                q.insert(k, ());
                reference.push(std::cmp::Reverse(k));
            }
            if i % 512 == 0 {
                q.check_invariants();
            }
        }
        assert_eq!(q.len(), reference.len());
        q.check_invariants();
    }

    #[test]
    fn batched_strict_ordering_smoke() {
        // Definition 1 through the hint: a completed insert — even one that
        // lands *in front of* a published scan hint — must be visible to
        // the next delete_min.
        let q = SkipQueue::new().with_unlink_batch(2);
        // Build a dead prefix so a hint gets published past key 100.
        for k in 100..120u64 {
            q.insert(k, ());
        }
        for _ in 0..10 {
            q.delete_min().unwrap();
        }
        for round in 0..50u64 {
            q.insert(round, ()); // smaller than everything left: hint must yield
            let (k, _) = q.delete_min().expect("completed insert must be seen");
            assert_eq!(k, round, "hint hid a completed insert");
        }
    }

    #[test]
    fn batched_multithread_stress_matches_model() {
        // Phase 1: real threads hammer the batched queue; phase 2: drain
        // quiescently and compare the union of everything delivered against
        // a sequential model fed the same inserts.
        use crate::seq::SeqSkipList;
        let q = Arc::new(SkipQueue::new().with_unlink_batch(8));
        let threads = 8usize;
        let per = 1_500u64;
        let results: Vec<(Vec<u64>, Vec<u64>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        let mut inserted = Vec::new();
                        let mut got = Vec::new();
                        let mut state = (t as u64 + 1) * 0x1234_5677;
                        for i in 0..per {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            if !state.is_multiple_of(3) {
                                let k = (state >> 16) << 4 | t as u64; // unique per thread
                                q.insert(k, t as u64);
                                inserted.push(k);
                            } else if let Some((k, _)) = q.delete_min() {
                                got.push(k);
                            }
                            let _ = i;
                        }
                        (inserted, got)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut q = Arc::into_inner(q).unwrap();
        q.check_invariants();
        let mut all_inserted: Vec<u64> = results.iter().flat_map(|(i, _)| i.clone()).collect();
        let mut delivered: Vec<u64> = results.iter().flat_map(|(_, g)| g.clone()).collect();
        let remaining = q.drain_sorted();
        assert!(
            remaining.windows(2).all(|w| w[0].0 <= w[1].0),
            "drain out of order"
        );
        delivered.extend(remaining.iter().map(|(k, _)| *k));
        // Same multiset: feed the model and drain it fully.
        let mut model = SeqSkipList::new();
        for &k in &all_inserted {
            model.insert(k, ());
        }
        let mut model_all: Vec<u64> =
            std::iter::from_fn(|| model.delete_min().map(|(k, _)| k)).collect();
        all_inserted.sort_unstable();
        delivered.sort_unstable();
        model_all.sort_unstable();
        assert_eq!(delivered, all_inserted, "lost or duplicated items");
        assert_eq!(model_all, all_inserted, "model disagrees on contents");
    }

    #[test]
    fn batched_retirement_frees_every_node() {
        // Tracked VALUES (keys must be Copy-friendly in batched mode): every
        // payload must be dropped exactly once after quiescence, proving the
        // batch-retirement path reclaims every deferred node.
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);

        struct Tracked;
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }

        let n = 1_000u64;
        {
            let q: SkipQueue<u64, Tracked> = SkipQueue::new().with_unlink_batch(16);
            for k in 0..n {
                q.insert(k, Tracked);
            }
            for _ in 0..n {
                drop(q.delete_min().unwrap().1);
            }
            assert_eq!(q.delete_min().map(|_| ()), None);
            // All nodes are either retired or still linked-but-claimed; a
            // forced collection after quiescence must free every retiree.
            q.collect_garbage();
            assert_eq!(q.garbage_pending(), 0, "batch retirement left garbage");
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), n as usize, "leaked payloads");
    }

    #[test]
    fn batched_multithread_drain_no_duplicates() {
        let q = Arc::new(SkipQueue::new_batched());
        let n = 4_000u64;
        for k in 0..n {
            q.insert(k, ());
        }
        let mut all: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Some((k, _)) = q.delete_min() {
                            got.push(k);
                        }
                        got
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(all.len() as u64, n);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len() as u64, n, "duplicates delivered");
        let mut q = Arc::into_inner(q).unwrap();
        q.check_invariants();
    }

    #[test]
    fn batched_relaxed_mode_conserves_items() {
        let q = Arc::new(SkipQueue::new_relaxed().with_unlink_batch(8));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        q.insert(t * 10_000 + i, ());
                        if i % 2 == 0 {
                            q.delete_min();
                        }
                    }
                });
            }
        });
        let mut q = Arc::into_inner(q).unwrap();
        q.check_invariants();
        assert_eq!(q.len(), 4 * 1_000 - 4 * 500);
    }

    #[test]
    fn peek_min_key_eager_tracks_minimum() {
        let q: SkipQueue<u64, u64> = SkipQueue::new();
        assert_eq!(q.peek_min_key(), None);
        for k in [7u64, 3, 9, 5] {
            q.insert(k, k);
        }
        assert_eq!(q.peek_min_key(), Some(3));
        q.insert(1, 1);
        assert_eq!(q.peek_min_key(), Some(1));
        assert_eq!(q.delete_min().map(|(k, _)| k), Some(1));
        assert_eq!(q.peek_min_key(), Some(3));
        // Peeking never claims: the length is untouched.
        assert_eq!(q.len(), 4);
        while q.delete_min().is_some() {}
        assert_eq!(q.peek_min_key(), None);
    }

    #[test]
    fn peek_min_key_batched_skips_claimed_prefix() {
        // Small threshold so a sweep publishes a hint mid-test; marked
        // nodes lingering before the sweep must be skipped either way.
        let q: SkipQueue<u64, u64> = SkipQueue::new().with_unlink_batch(4);
        for k in 0..20u64 {
            q.insert(k, k);
        }
        for expect in 0..10u64 {
            assert_eq!(q.peek_min_key(), Some(expect));
            assert_eq!(q.delete_min().map(|(k, _)| k), Some(expect));
        }
        assert_eq!(q.peek_min_key(), Some(10));
        // An insert in front of the hint must be visible to the probe.
        q.insert(2, 2);
        assert_eq!(q.peek_min_key(), Some(2));
    }

    #[test]
    fn peek_min_key_concurrent_smoke() {
        let q = Arc::new(SkipQueue::<u64, ()>::new_batched());
        for k in 0..2_000u64 {
            q.insert(k + 1, ());
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    while let Some((k, _)) = q.delete_min() {
                        assert!(k >= 1);
                    }
                });
            }
            let q = Arc::clone(&q);
            s.spawn(move || {
                // Probes racing the drain must only ever see live keys.
                while let Some(k) = q.peek_min_key() {
                    assert!((1..=2_000).contains(&k));
                }
            });
        });
    }

    #[test]
    fn random_height_distribution_sane() {
        // The one-word draw must keep the geometric(1/2) shape: about
        // half the towers are height 1, none exceed the cap.
        let q: SkipQueue<u64, ()> = SkipQueue::with_params(8, true, 4);
        let mut counts = [0usize; 9];
        for _ in 0..20_000 {
            let h = q.random_height();
            assert!((1..=8).contains(&h));
            counts[h] += 1;
        }
        let h1 = counts[1] as f64 / 20_000.0;
        assert!((0.4..0.6).contains(&h1), "P(h=1) = {h1}, expected ~0.5");
        assert!(counts[8] > 0, "cap level never reached in 20k draws");
    }

    #[test]
    fn height_script_consumed_in_order() {
        let mut q: SkipQueue<u64, ()> = SkipQueue::new().with_height_script([3usize, 1, 2]);
        q.insert(10, ());
        q.insert(20, ());
        q.insert(30, ());
        q.check_invariants();
        // SAFETY-free structural probe: drain and confirm contents survive
        // scripted (non-random) towers.
        assert_eq!(
            q.drain_sorted().iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
    }

    #[test]
    fn trace_records_insert_and_delete_decisions() {
        let sink = Arc::new(StdMutex::new(Vec::new()));
        let q: SkipQueue<u64, ()> = SkipQueue::new()
            .with_height_script([1usize, 1])
            .with_trace(Arc::clone(&sink), |k| *k);
        q.insert(5, ());
        q.insert(7, ());
        assert_eq!(q.delete_min().map(|(k, _)| k), Some(5));
        let events = sink.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![
                TraceEvent::Height(1),
                TraceEvent::Stamp(5),
                TraceEvent::Height(1),
                TraceEvent::Stamp(7),
                TraceEvent::Claim(5),
                TraceEvent::Retire(5),
            ]
        );

        // Batched: the second claim trips a sweep, which reports its phase
        // points around the hint publication and the group retirement.
        let sink = Arc::new(StdMutex::new(Vec::new()));
        let q: SkipQueue<u64, ()> = SkipQueue::new()
            .with_unlink_batch(2)
            .with_height_script([1usize, 1, 1])
            .with_trace(Arc::clone(&sink), |k| *k);
        for k in [5, 7, 9] {
            q.insert(k, ());
        }
        sink.lock().unwrap().clear();
        assert_eq!(q.delete_min().map(|(k, _)| k), Some(5));
        assert_eq!(q.delete_min().map(|(k, _)| k), Some(7));
        let events = sink.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![
                TraceEvent::Claim(5),
                TraceEvent::Claim(7),
                TraceEvent::Phase(CleanupPhase::PreCollect),
                TraceEvent::Phase(CleanupPhase::PrePublish),
                TraceEvent::HintSet(9),
                TraceEvent::Phase(CleanupPhase::PostPublish),
                TraceEvent::RetireBatch(vec![5, 7]),
            ]
        );
    }
}
