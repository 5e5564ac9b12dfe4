//! The [`Platform`] trait: everything the SkipQueue algorithm needs from its
//! execution substrate.
//!
//! The algorithm in [`crate::algo`] is written once, as `async` control flow
//! over these hooks. A platform decides what each hook *costs* and what it
//! compiles to:
//!
//! * The **native** platform (`crates/core`) maps nodes to raw pointers,
//!   `load_next`/`store_next` to `Acquire`/`Release` atomics on a node's
//!   tower words, each level lock to a spin-then-yield test-and-set of the
//!   low bit of that level's forward-pointer word, the node lock to the
//!   offline `parking_lot` shim's `RawMutex` (`shims/parking_lot`),
//!   `delete_read_clock` to a load of the collector's timestamp clock (only
//!   inserts' stamps and retires tick it), and the GC hooks to
//!   quiescence-collector slot registration. Every hook returns an
//!   immediately-ready future, so a poll-once executor drives a whole
//!   operation synchronously.
//! * The **simulator** platform (`crates/simpq`) maps nodes to simulated
//!   machine addresses and every hook to the charged `READ`/`WRITE`/`SWAP`/
//!   semaphore operations of the simulated multiprocessor; each `.await` is
//!   a scheduling point for the deterministic executor.
//!
//! Paper correspondence (Lotan & Shavit, IPDPS 2000):
//!
//! * `key_lt` + `load_next` + `lock_level` are the memory operations of
//!   `getLock` (Figure 9) and the level search (Figures 10/11);
//!   `store_next` is every pointer write of Figure 10 lines 21–27, both the
//!   new node's own forward pointers and the predecessor's relink.
//! * `swap_deleted` is the claiming `SWAP` of Figure 11 line 7.
//! * `delete_read_clock` / `store_stamp` are `getTime()` and the
//!   `timeStamp` write (Figure 10 line 29, Figure 11 line 1).
//! * `enter` / `exit` / `retire_one` / `retire_unlinked_batch` are the §3
//!   garbage-collection registry and stamped garbage lists.
//!
//! Everything else a runtime wants to observe — tower heights, stamps,
//! claims, hint traffic, retirements, operation completions and the
//! cleaner's phase points — arrives through the one non-`async`
//! [`Platform::event`] hook, which the algorithm calls at each of those
//! points. The decision trace ([`TraceEvent::flatten`]), the simulator's
//! history tap and test fault injection all read from it; none of them is
//! a primitive of the paper.
//!
//! The differences between the two original hand-written implementations
//! that are *not* pure cost accounting are captured by the associated
//! `const`s (dictionary-style insert, victim re-find, payload extraction
//! order, relaxed-mode stamp filtering); each is documented on its item.

/// Identifies where in the batched cleaner an [`Event::Phase`] sits.
/// Platforms that inject concurrent work at these points (tests) can
/// exercise the hint-publication abort paths deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CleanupPhase {
    /// After the cleaner lock and epoch snapshot, before the Phase-1 collect.
    PreCollect,
    /// After the Phase-3 unlink sweep, before the Phase-4 epoch check.
    PrePublish,
    /// After the Phase-4 hint store, before the epoch re-check.
    PostPublish,
}

/// A notification the algorithm hands to [`Platform::event`]: how the
/// decision trace, the simulator's history tap and test fault injection
/// observe an operation.
#[derive(Clone, Copy, Debug)]
pub enum Event<'a, N> {
    /// An insert made its node; this is the node's tower height.
    Height(usize),
    /// An insert's time stamp (Figure 10 line 29) has landed on this node.
    Stamp(N),
    /// A delete-min won the claiming SWAP on this node.
    Claim(N),
    /// The batched cleaner published this node as the scan-start hint.
    HintSet(N),
    /// The scan-start hint was cleared (cleaner abort or insert repair).
    HintClear,
    /// An eager delete unlinked this node and is about to retire it.
    Retire(N),
    /// The batched cleaner unlinked these nodes and is about to retire them.
    RetireBatch(&'a [N]),
    /// A delete-min finished with a claimed payload.
    Deleted,
    /// A delete-min finished with EMPTY.
    Empty,
    /// The batched cleaner reached this phase point.
    Phase(CleanupPhase),
}

/// Logical decisions of one run, with keys flattened to `u64` (the head
/// sentinel maps to `0`, the tail to `u64::MAX`). Two [`Platform`]s replaying
/// the same schedule must produce identical event streams — that is the
/// cross-platform differential test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// An insert drew this tower height.
    Height(usize),
    /// A delete-min won the claiming SWAP on this key.
    Claim(u64),
    /// An insert published its time stamp on this key.
    Stamp(u64),
    /// The batched cleaner published this key as the scan-start hint.
    HintSet(u64),
    /// The scan-start hint was cleared (cleaner abort or insert repair).
    HintClear,
    /// An eager delete physically unlinked and retired this key.
    Retire(u64),
    /// The batched cleaner unlinked and retired these keys, in batch order.
    RetireBatch(Vec<u64>),
    /// The batched cleaner reached this phase point.
    Phase(CleanupPhase),
}

impl TraceEvent {
    /// Flattens an [`Event`] into the trace vocabulary, reading node keys
    /// through the platform's `key` function. Operation completions
    /// ([`Event::Deleted`], [`Event::Empty`]) carry no decision and map to
    /// `None`.
    pub fn flatten<N: Copy>(ev: Event<'_, N>, key: impl Fn(N) -> u64) -> Option<Self> {
        Some(match ev {
            Event::Height(h) => Self::Height(h),
            Event::Stamp(n) => Self::Stamp(key(n)),
            Event::Claim(n) => Self::Claim(key(n)),
            Event::HintSet(n) => Self::HintSet(key(n)),
            Event::HintClear => Self::HintClear,
            Event::Retire(n) => Self::Retire(key(n)),
            Event::RetireBatch(batch) => Self::RetireBatch(batch.iter().map(|&n| key(n)).collect()),
            Event::Deleted | Event::Empty => return None,
            Event::Phase(phase) => Self::Phase(phase),
        })
    }
}

/// Result of [`crate::SkipAlgo::insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertResult {
    /// A new node was linked.
    Inserted,
    /// An existing node's value was overwritten in place (only on platforms
    /// with [`Platform::DICT_INSERT`]; Figure 10 lines 12–16).
    Updated,
}

/// Execution substrate for the shared SkipQueue algorithm.
///
/// Key/value ownership never crosses this trait: operands are staged into
/// the platform (which is instantiated per call on both runtimes) before an
/// operation starts, and results are read back out of it afterwards. The
/// same per-call instance holds any per-operation state (the native GC pin,
/// the simulator's history-tap times). The algorithm itself only
/// manipulates `Node` handles and `SearchKey`s.
///
/// `async` here does not imply an executor requirement: the native platform
/// returns only immediately-ready futures and is driven by a single poll.
#[allow(async_fn_in_trait)] // single-threaded driving; no Send bounds wanted
pub trait Platform {
    /// Handle to a skiplist node: a raw pointer (native) or a simulated
    /// machine address (simulator).
    type Node: Copy + Eq + core::fmt::Debug;
    /// Search operand compared against node keys by `key_lt`/`key_eq`: the
    /// new/victim node handle itself (native — keys live in nodes) or the
    /// raw key word (simulator).
    type SearchKey: Copy;

    /// Insert is dictionary-style (Figure 10 lines 10–16): lock the level-0
    /// predecessor first, and update in place when the key already exists.
    /// The simulator keeps the paper's exact shape; the native queue is a
    /// multiset (duplicate priorities get fresh nodes) and skips the check.
    const DICT_INSERT: bool;
    /// The eager physical delete re-finds the victim by key along the bottom
    /// level after the predecessor search (Figure 11 lines 24–26). The
    /// native queue already holds the victim pointer and skips the walk.
    const REFIND_VICTIM: bool;
    /// The eager delete extracts the payload (Figure 11 lines 11–13) before
    /// the physical unlink (simulator, as in the paper) rather than after it
    /// (native, which moves non-`Copy` keys out only once unlinked).
    const EAGER_PAYLOAD_FIRST: bool;
    /// Relaxed-mode (§5.4) delete still reads the stamp and skips nodes
    /// stamped `MAX` (native: the read is free and filters mid-insert nodes
    /// and the head). The simulator charges for every read, so its relaxed
    /// mode skips the read entirely and relies on the claiming SWAP.
    const RELAXED_CLAIM_READS_STAMP: bool;

    /// Observes an algorithm [`Event`]. Not a step of the algorithm: the
    /// simulator charges nothing for it and the native platform pays one
    /// branch when no test seam is attached. Test seams may inject
    /// concurrent operations at [`Event::Phase`] points.
    fn event(&self, ev: Event<'_, Self::Node>);

    /// GC entry registration (§3): native quiescence-slot pin, simulator
    /// entry-time registry write.
    async fn enter(&self);
    /// GC exit registration: unpin / registry `MAX_TIME` write.
    async fn exit(&self);

    // ---- insert ----

    /// Stages the insert and returns its search operand. Native draws the
    /// tower height, assigns the FIFO sequence number and allocates the
    /// node here; the simulator just surfaces the key (its height draw and
    /// allocation sit after the dictionary check, in
    /// [`Platform::materialize`], preserving RNG draw order).
    fn insert_prepare(&self) -> Self::SearchKey;
    /// Produces the linked-to-be node and its height (Figure 10 lines
    /// 17–19). Simulator: draws the height and allocates/initializes the
    /// node with charged cost.
    fn materialize(&self, skey: Self::SearchKey) -> (Self::Node, usize);
    /// Dictionary hit: overwrite `node`'s value in place (only reachable
    /// when [`Platform::DICT_INSERT`]).
    async fn update_in_place(&self, node: Self::Node);
    /// Publishes the time stamp (Figure 10 line 29): native stores a global
    /// clock tick; the simulator reads the simulated clock (strict) or
    /// writes `0` (relaxed).
    async fn store_stamp(&self, node: Self::Node);

    // ---- traversal ----

    /// Loads `node`'s level-`lvl` forward pointer (`Acquire` / charged READ).
    async fn load_next(&self, node: Self::Node, lvl: usize) -> Self::Node;
    /// Stores `node`'s level-`lvl` forward pointer (`Release` / charged
    /// WRITE). Caller holds the level lock, or `node` is its own
    /// not-yet-published insert.
    async fn store_next(&self, node: Self::Node, lvl: usize, to: Self::Node);
    /// `node.key < skey` — the search/`getLock` advance test. The simulator
    /// charges one READ of the node's key per call.
    async fn key_lt(&self, node: Self::Node, skey: Self::SearchKey) -> bool;
    /// `node.key == skey` — the dictionary check and victim re-find test.
    async fn key_eq(&self, node: Self::Node, skey: Self::SearchKey) -> bool;

    // ---- locks ----

    /// Acquires `node`'s level-`lvl` pointer lock.
    async fn lock_level(&self, node: Self::Node, lvl: usize);
    /// Releases `node`'s level-`lvl` pointer lock.
    async fn unlock_level(&self, node: Self::Node, lvl: usize);
    /// Acquires the whole-node lock (Figure 10 line 20 / Figure 11 line 27).
    async fn lock_node(&self, node: Self::Node);
    /// Releases the whole-node lock.
    async fn unlock_node(&self, node: Self::Node);

    // ---- delete-min ----

    /// Strict mode's `getTime()` (Figure 11 line 1). Relaxed mode (§5.4)
    /// skips it and considers every stamp below `u64::MAX`.
    async fn delete_read_clock(&self) -> u64;
    /// Loads `node`'s time stamp (`u64::MAX` = insert incomplete).
    async fn load_stamp(&self, node: Self::Node) -> u64;
    /// Loads `node`'s deleted mark (batched-mode TTAS filter and the
    /// cleaner's prefix test).
    async fn load_deleted(&self, node: Self::Node) -> bool;
    /// The claiming `SWAP` (Figure 11 line 7): marks `node` deleted and
    /// returns the previous mark — `false` means this caller won the node.
    async fn swap_deleted(&self, node: Self::Node) -> bool;
    /// Moves the claimed node's key/value out into the platform's result
    /// slot. The winner of the SWAP is the unique caller.
    async fn take_payload(&self, node: Self::Node);
    /// Search operand that re-finds `victim`'s predecessors (native: the
    /// victim handle; simulator: the key word saved by `take_payload`).
    fn victim_search_key(&self, victim: Self::Node) -> Self::SearchKey;
    /// `victim`'s tower height (free on native; a charged READ of the level
    /// word on the simulator).
    async fn victim_height(&self, victim: Self::Node) -> usize;
    /// Retires one eagerly-unlinked node to the collector / garbage list.
    async fn retire_one(&self, victim: Self::Node, height: usize);

    // ---- batched physical deletion ----

    /// Queues a claimed node for the next batch sweep; returns `true` when
    /// the accumulated count has reached the sweep threshold.
    fn deferred_push(&self, node: Self::Node) -> bool;
    /// Whether any claimed nodes are still awaiting a sweep.
    fn deferred_pending(&self) -> bool;
    /// Loads the bottom-level scan-start hint (`None` = start at the head).
    async fn load_hint(&self) -> Option<Self::Node>;
    /// Publishes (`Some`) or clears (`None`) the scan-start hint.
    async fn store_hint(&self, hint: Option<Self::Node>);
    /// `hint.key > node.key` — the insert-side hint repair test. Charged as
    /// one READ of the hint's key on the simulator.
    async fn hint_key_gt(&self, hint: Self::Node, node: Self::Node) -> bool;
    /// Insert's epoch bump after linking: native `fetch_add`, simulator a
    /// `SWAP` of the (unique) node address into the epoch word.
    async fn bump_epoch(&self, node: Self::Node);
    /// Cleaner's epoch snapshot / re-check read.
    async fn load_epoch(&self) -> u64;
    /// Try-acquires the one-sweeper-at-a-time cleaner lock.
    async fn try_lock_cleaner(&self) -> bool;
    /// Releases the cleaner lock.
    async fn unlock_cleaner(&self);
    /// Cap on nodes collected by one sweep.
    fn max_batch(&self) -> usize;
    /// The Phase-1 node-lock handshake that waits out (simulator) or skips
    /// (native try-lock) an insert still linking its upper levels. `false`
    /// ends the collection at this node.
    async fn batch_handshake(&self, node: Self::Node) -> bool;
    /// Marks `node` as a batch member and returns its height (native: a
    /// flag store + free height; simulator: a host-side set insert + a
    /// charged READ of the level).
    async fn note_batch_member(&self, node: Self::Node) -> usize;
    /// Membership test used by the Phase-3 counting sweep.
    fn is_batch_member(&self, node: Self::Node) -> bool;
    /// Phase 5: drop the batch from the deferred accounting and retire it
    /// as a group to the collector / garbage lists.
    async fn retire_unlinked_batch(&self, batch: Vec<Self::Node>, heights: &[usize]);
}

/// Extension for platforms whose keys can be surfaced by value: enables the
/// non-claiming [`crate::SkipAlgo::peek_min_key`] probe. Kept separate so
/// the native platform only provides it under its `K: Copy` bound.
#[allow(async_fn_in_trait)]
pub trait PeekPlatform: Platform {
    /// Key type returned by the probe.
    type PeekKey;
    /// Surfaces `node`'s key by value (`None` for a sentinel).
    async fn peek_key(&self, node: Self::Node) -> Option<Self::PeekKey>;
}
