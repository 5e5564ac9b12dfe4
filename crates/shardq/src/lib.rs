//! # shardq — sharded multi-queue front-end over the native SkipQueue
//!
//! The paper's Relaxed SkipQueue (§5.4) gives up strict linearized
//! delete-min for throughput, but every operation still contends on a
//! single skiplist head; the bottom-level claim walk is the scaling wall
//! that batched unlinking (see `skipqueue`'s module docs) only softened.
//! The multiqueue line of work surveyed in *Practical Concurrent Priority
//! Queues* (Gruber, 2015) removes the wall structurally: keep `k`
//! independent queues, route inserts across them, and serve `delete_min`
//! from the best of `c` sampled shards. The price is a further relaxation
//! of Definition 1 — the returned key is only probably the minimum — which
//! this workspace treats as a measurable quantity: `histcheck`'s
//! rank-error auditor scores recorded histories, and `nbench` reports the
//! score next to the throughput it bought.
//!
//! [`ShardedSkipQueue`] composes three mechanisms:
//!
//! * **Sharding** — `k` cache-padded strict [`SkipQueue`]s (batched
//!   physical deletion by default). Each thread strides its inserts
//!   round-robin across the shards; `delete_min` samples `c` distinct shards
//!   (default `c = 2`, the classic power-of-two-choices width), peeks each
//!   front with [`SkipQueue::peek_min_key`], and claims from the shard
//!   whose front key is smallest.
//! * **Exact-scan fallback** — when every sampled shard is empty the
//!   operation degrades to a scan of *all* shards, claiming from the
//!   globally smallest front; only when a full pass observes every shard
//!   empty does it return `None`. Emptiness is therefore exact, not
//!   sampled: a quiescent non-empty queue never reports empty.
//! * **Elimination** — a `delete_min` that *lost* its sampled claim race
//!   parks briefly in a bounded elimination array (see the `elim` module
//!   docs) with the front key it observed as a bound; a concurrent
//!   `insert` with a key `<=` that bound hands its element over directly,
//!   and the matched pair completes with zero skiplist traffic.
//!
//! Per-shard ordering stays strict (each shard keeps the paper's
//! timestamp mechanism), so the only relaxation is *which* shard a
//! claim lands on — the source of rank error is sampling, not the
//! underlying queues.
//!
//! The delete-min policy (sampling, claiming, parking, the exact-scan
//! fallback) is written once, in [`policy`], generic over the
//! [`policy::Shards`] seam — the same pattern as `pqalgo`'s `Platform`.
//! This crate implements every hook natively: a thread-local xorshift
//! pick, [`SkipQueue::peek_min_key`] and [`SkipQueue::delete_min`] per
//! shard, a `park` in the elimination array and a fallback counter.
//! `schedtest` implements the seam over simulated SkipQueues with the
//! processor's seeded RNG as the pick and keeps the default no-op `park`
//! and fallback hooks, so the policy it audits is this one. Insert routing
//! stays per runtime: it is a runtime's notion of thread identity, not
//! policy.

mod elim;
pub mod policy;

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;
use elim::EliminationArray;
use policy::Shards;
use skipqueue::{PriorityQueue, SkipQueue, DEFAULT_UNLINK_BATCH};

/// Default sampling width for `delete_min` (power-of-two-choices).
pub const DEFAULT_SAMPLE: usize = 2;

/// Spin budget for a parked deleter in the elimination array.
pub const DEFAULT_ELIM_SPINS: u32 = 128;

/// Sharded multi-queue: `k` native SkipQueues behind sample-`c`-of-`k`
/// delete-min and a bounded elimination array. See the [module docs](self)
/// for the semantics; construction is [`ShardedSkipQueue::new`] for the
/// defaults or [`ShardedSkipQueue::with_params`] for the full knob set.
///
/// `K: Copy` for the same reason the batched `SkipQueue` constructors
/// require it (keys are compared through bitwise copies while the original
/// may concurrently be moved out), plus the sampling probe and elimination
/// bound both traffic in copied keys.
pub struct ShardedSkipQueue<K: Ord + Copy, V> {
    shards: Box<[CachePadded<SkipQueue<K, V>>]>,
    sample: usize,
    elim: EliminationArray<K, V>,
    /// Claims that went through the exact-scan fallback (rare path, so a
    /// shared counter here doesn't perturb the sampled fast path).
    fallback_claims: CachePadded<AtomicU64>,
}

impl<K: Ord + Copy, V> ShardedSkipQueue<K, V> {
    /// `shards` strict batched SkipQueues, sample width
    /// [`DEFAULT_SAMPLE`], system-wide unlink budget
    /// [`DEFAULT_UNLINK_BATCH`].
    pub fn new(shards: usize) -> Self {
        Self::with_params(shards, DEFAULT_SAMPLE, DEFAULT_UNLINK_BATCH)
    }

    /// Full-knob constructor.
    ///
    /// `unlink_batch` is a *system-wide* claimed-prefix budget, split
    /// evenly across shards, rounding up: every `delete_min` walks
    /// `sample + 1` deleted prefixes (peeks plus the claim), so a full
    /// per-shard threshold would multiply the walk cost by the shard
    /// count. A positive budget leaves every shard at least 1; `0` keeps
    /// every shard on the paper's eager per-delete unlink.
    ///
    /// A `sample` of at least `min(shards, 9)` peeks every shard (beyond 8
    /// a full scan is cheaper than distinct sampling). The elimination
    /// array has one slot per shard.
    pub fn with_params(shards: usize, sample: usize, unlink_batch: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(sample >= 1, "sample width must be at least 1");
        let per_shard = unlink_batch.div_ceil(shards);
        Self {
            shards: (0..shards)
                .map(|_| CachePadded::new(SkipQueue::new().with_unlink_batch(per_shard)))
                .collect(),
            sample: policy::width(sample, shards),
            elim: EliminationArray::new(shards),
            fallback_claims: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Number of shards (`k`).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Effective sampling width `c`: the shard count when every shard is
    /// peeked.
    pub fn sample_width(&self) -> usize {
        self.sample
    }

    /// Successful elimination hand-offs so far.
    pub fn elimination_hits(&self) -> u64 {
        self.elim.hits()
    }

    /// Claims served by the exact-scan fallback so far.
    pub fn fallback_claims(&self) -> u64 {
        self.fallback_claims.load(Ordering::Relaxed)
    }

    /// Per-shard lengths, for load-balance introspection.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// Total items across all shards (approximate under concurrency, exact
    /// when quiescent; elimination never buffers items, so slots add 0).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when [`ShardedSkipQueue::len`] is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `value` at priority `key`: first offered to a parked
    /// deleter whose bound admits it, otherwise to the calling thread's
    /// next round-robin shard.
    pub fn insert(&self, key: K, value: V) {
        if let Err((key, value)) = self.elim.try_eliminate(key, value) {
            self.shards[self.route()].insert(key, value);
        }
    }

    /// Removes an item of (approximately) minimum priority.
    ///
    /// Samples `c` distinct shards, claims from the one with the smallest
    /// front key; a lost race parks in the elimination array; sampled-empty
    /// or unmatched parks fall back to [`ShardedSkipQueue::delete_min_exact`].
    /// Returns `None` only after a full pass observed every shard empty.
    /// The policy is [`policy::delete_min`].
    pub fn delete_min(&self) -> Option<(K, V)> {
        policy::drive(policy::delete_min(&Native(self), self.sample))
    }

    /// Exact-scan delete-min: peeks *every* shard, claims from the
    /// globally smallest front, retries while fronts race away, and
    /// returns `None` only once a full pass found all shards empty.
    ///
    /// Under exclusive access this is a true minimum — the quiescent
    /// drain path — which is why it is public rather than an internal
    /// fallback detail.
    pub fn delete_min_exact(&self) -> Option<(K, V)> {
        policy::drive(policy::delete_min_exact(&Native(self)))
    }

    /// Drains everything in priority order. Exclusive access means the
    /// exact scan really does return the global minimum each time.
    pub fn drain_sorted(&mut self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(kv) = self.delete_min_exact() {
            out.push(kv);
        }
        out
    }

    /// Runs every shard's structural invariant check (exclusive access).
    pub fn check_invariants(&mut self) {
        for s in self.shards.iter_mut() {
            s.check_invariants();
        }
    }

    /// Drives every shard's quiescence GC; returns nodes freed.
    pub fn collect_garbage(&self) -> usize {
        self.shards.iter().map(|s| s.collect_garbage()).sum()
    }

    /// Retired-but-unfreed nodes across all shards.
    pub fn garbage_pending(&self) -> usize {
        self.shards.iter().map(|s| s.garbage_pending()).sum()
    }

    fn route(&self) -> usize {
        // Stride from a thread-specific starting offset: uniform load.
        RR.with(|c| {
            let n = c.get();
            c.set(n.wrapping_add(1));
            (thread_ordinal().wrapping_add(n)) % self.shards.len()
        })
    }
}

/// The native [`Shards`]: every hook is ready on first poll, so
/// [`policy::drive`] runs the policy as straight-line code.
struct Native<'a, K: Ord + Copy, V>(&'a ShardedSkipQueue<K, V>);

impl<K: Ord + Copy, V> Shards for Native<'_, K, V> {
    type Key = K;
    type Item = (K, V);

    fn shards(&self) -> usize {
        self.0.shards.len()
    }

    fn pick(&self) -> usize {
        (rng_next() % self.0.shards.len() as u64) as usize
    }

    async fn peek(&self, i: usize) -> Option<K> {
        self.0.shards[i].peek_min_key()
    }

    async fn claim(&self, i: usize) -> Option<(K, V)> {
        self.0.shards[i].delete_min()
    }

    async fn park(&self, bound: K) -> Option<(K, V)> {
        let slot = thread_ordinal() % self.0.shards.len();
        self.0.elim.park(bound, DEFAULT_ELIM_SPINS, slot)
    }

    fn note_fallback(&self) {
        self.0.fallback_claims.fetch_add(1, Ordering::Relaxed);
    }
}

impl<K: Ord + Copy, V> PriorityQueue<K, V> for ShardedSkipQueue<K, V>
where
    K: Send + Sync,
    V: Send,
{
    fn insert(&self, key: K, value: V) {
        ShardedSkipQueue::insert(self, key, value);
    }

    fn delete_min(&self) -> Option<(K, V)> {
        ShardedSkipQueue::delete_min(self)
    }

    fn len(&self) -> usize {
        ShardedSkipQueue::len(self)
    }
}

impl<K: Ord + Copy, V> std::fmt::Debug for ShardedSkipQueue<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSkipQueue")
            .field("shards", &self.shards.len())
            .field("sample", &self.sample)
            .field("len", &self.len())
            .finish()
    }
}

thread_local! {
    /// Per-thread round-robin stride counter.
    static RR: Cell<usize> = const { Cell::new(0) };
    /// Per-thread xorshift state for shard sampling; seeded from the
    /// thread's TLS address so threads start decorrelated.
    static RNG: Cell<u64> = Cell::new(thread_seed() | 1);
}

/// A stable, well-spread per-thread integer (Fibonacci-hashed TLS
/// address) used for routing, elimination slots and RNG seeding.
fn thread_seed() -> u64 {
    thread_local! {
        static TOKEN: u8 = const { 0 };
    }
    let addr = TOKEN.with(|t| t as *const u8 as usize as u64);
    addr.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn thread_ordinal() -> usize {
    (thread_seed() >> 32) as usize
}

fn rng_next() -> u64 {
    RNG.with(|r| {
        let mut x = r.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        r.set(x);
        x
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Barrier};

    #[test]
    fn single_shard_degenerates_to_skipqueue() {
        let q: ShardedSkipQueue<u64, u64> = ShardedSkipQueue::new(1);
        q.insert(5, 50);
        q.insert(1, 10);
        q.insert(3, 30);
        assert_eq!(q.delete_min(), Some((1, 10)));
        assert_eq!(q.delete_min(), Some((3, 30)));
        assert_eq!(q.delete_min(), Some((5, 50)));
        assert_eq!(q.delete_min(), None);
    }

    #[test]
    fn quiescent_drain_is_sorted_and_complete() {
        let mut q: ShardedSkipQueue<u64, u64> = ShardedSkipQueue::new(4);
        let mut keys: Vec<u64> = (0..500).map(|i| (i * 2654435761u64) % 10_000).collect();
        for &k in &keys {
            q.insert(k, k * 10);
        }
        assert_eq!(q.len(), keys.len());
        let drained = q.drain_sorted();
        assert_eq!(drained.len(), keys.len());
        assert!(drained.windows(2).all(|w| w[0].0 <= w[1].0));
        keys.sort_unstable();
        let got: Vec<u64> = drained.iter().map(|&(k, _)| k).collect();
        assert_eq!(got, keys);
        q.check_invariants();
    }

    #[test]
    fn exact_fallback_finds_lone_item_despite_sampling() {
        // 8 shards, one item: a c=2 sample usually misses it, so this
        // only passes because the exact-scan fallback kicks in.
        for _ in 0..32 {
            let q: ShardedSkipQueue<u64, &'static str> = ShardedSkipQueue::with_params(8, 2, 0);
            q.insert(42, "lone");
            assert_eq!(q.delete_min(), Some((42, "lone")));
            assert_eq!(q.delete_min(), None);
        }
    }

    #[test]
    fn sample_width_beyond_max_sample_peeks_every_shard() {
        let q: ShardedSkipQueue<u64, u64> = ShardedSkipQueue::with_params(16, 12, 0);
        assert_eq!(q.sample_width(), 16);
        // One thread's round-robin puts one key on each shard, so every
        // quiescent delete_min must find the minimum among all 16 fronts.
        for round in 0..4u64 {
            for i in 0..16 {
                q.insert((i * 7 + round) % 16, i);
            }
            let got: Vec<u64> = (0..16).map(|_| q.delete_min().unwrap().0).collect();
            assert_eq!(got, (0..16).collect::<Vec<_>>(), "round {round}");
        }
    }

    #[test]
    fn round_robin_touches_every_shard() {
        let q: ShardedSkipQueue<u64, u64> = ShardedSkipQueue::with_params(4, 2, 0);
        for i in 0..100 {
            q.insert(i, i);
        }
        let lens = q.shard_lens();
        assert_eq!(lens.iter().sum::<usize>(), 100);
        assert!(
            lens.iter().all(|&l| l > 0),
            "round-robin left a shard empty: {lens:?}"
        );
    }

    /// The acceptance-criteria drain test: concurrent producers and
    /// consumers over shards + elimination, then a quiescent sweep; every
    /// value inserted must come back exactly once.
    #[test]
    fn concurrent_drain_no_lost_or_duplicated_elements() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_THREAD: u64 = 2_000;

        let q: Arc<ShardedSkipQueue<u64, u64>> = Arc::new(ShardedSkipQueue::new(4));
        let barrier = Arc::new(Barrier::new(PRODUCERS + CONSUMERS));
        let done = Arc::new(AtomicBool::new(false));

        let producers: Vec<_> = (0..PRODUCERS as u64)
            .map(|t| {
                let q = Arc::clone(&q);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..PER_THREAD {
                        // Small key range forces claim races (and thus
                        // elimination parks); values stay globally unique.
                        let key = (t * PER_THREAD + i) % 97;
                        q.insert(key, t * PER_THREAD + i);
                    }
                })
            })
            .collect();

        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                let barrier = Arc::clone(&barrier);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut got = Vec::new();
                    loop {
                        match q.delete_min() {
                            Some((_, v)) => got.push(v),
                            None if done.load(Ordering::SeqCst) => break,
                            None => std::thread::yield_now(),
                        }
                    }
                    got
                })
            })
            .collect();

        for p in producers {
            p.join().unwrap();
        }
        done.store(true, Ordering::SeqCst);
        let mut seen: Vec<u64> = Vec::new();
        for c in consumers {
            seen.extend(c.join().unwrap());
        }
        // Consumers may have observed empty before the final inserts; the
        // quiescent remainder belongs in the count too.
        let q = Arc::try_unwrap(q).unwrap_or_else(|_| panic!("consumers still hold the queue"));
        let mut q = q;
        for (_, v) in q.drain_sorted() {
            seen.push(v);
        }

        let expected = (PRODUCERS as u64) * PER_THREAD;
        assert_eq!(
            seen.len() as u64,
            expected,
            "lost or duplicated elements (elim hits: {})",
            q.elimination_hits()
        );
        let unique: HashSet<u64> = seen.iter().copied().collect();
        assert_eq!(unique.len() as u64, expected, "duplicated values");
        q.check_invariants();
    }

    #[test]
    fn trait_object_usable() {
        let q: Box<dyn PriorityQueue<u64, u64>> = Box::new(ShardedSkipQueue::new(2));
        q.insert(9, 90);
        q.insert(4, 40);
        assert_eq!(q.delete_min(), Some((4, 40)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn gc_plumbs_through_shards() {
        let q: ShardedSkipQueue<u64, u64> = ShardedSkipQueue::new(2);
        for i in 0..200 {
            q.insert(i, i);
        }
        while q.delete_min().is_some() {}
        // Deletions retire nodes; collecting from a quiescent state frees
        // at least the batched groups.
        let freed = q.collect_garbage();
        let pending = q.garbage_pending();
        assert!(freed > 0 || pending == 0, "freed={freed} pending={pending}");
    }
}
