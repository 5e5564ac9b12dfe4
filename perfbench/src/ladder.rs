//! The layer ladder and the GC and clock probes.
//!
//! Each ladder rung runs the same single-thread hold model (same seed,
//! same keys) through one structure's public constructor; the difference
//! between two rungs is the cost of the layers one adds over the other.
//! The probes time the per-operation primitives `Collector::pin` and
//! `TimestampClock::tick` alone, with one thread and with two.

use std::hint::black_box;
use std::time::Instant;

use funnel::FunnelList;
use huntheap::{HuntHeap, LockedBinaryHeap};
use shardq::ShardedSkipQueue;
use skipqueue::gc::Collector;
use skipqueue::seq::{LockedSeqSkipList, SeqSkipList};
use skipqueue::{PriorityQueue, SkipQueue, TimestampClock};

use crate::util::{median, Rng};

/// Items held by every rung but the FunnelList.
pub const SIZE: usize = 1 << 16;
/// Items held by the FunnelList rung (its operations are linear in size).
pub const FUNNEL_SIZE: usize = 1 << 10;
/// Timed holds per repetition.
const HOLDS: usize = 1 << 16;
const FUNNEL_HOLDS: usize = 1 << 14;
const REPS: usize = 3;
/// Calls per thread in one probe repetition.
const PROBE_CALLS: u64 = 1 << 20;

/// A structure the ladder can drive.
trait Rung {
    fn push(&mut self, key: u64, value: u64);
    fn pop(&mut self) -> Option<(u64, u64)>;
}

impl Rung for SeqSkipList<u64, u64> {
    fn push(&mut self, key: u64, value: u64) {
        self.insert(key, value);
    }
    fn pop(&mut self) -> Option<(u64, u64)> {
        self.delete_min()
    }
}

/// Any concurrent queue, driven from one thread.
struct Shared<Q>(Q);

impl<Q: PriorityQueue<u64, u64>> Rung for Shared<Q> {
    fn push(&mut self, key: u64, value: u64) {
        self.0.insert(key, value);
    }
    fn pop(&mut self) -> Option<(u64, u64)> {
        self.0.delete_min()
    }
}

/// Median ns per operation (half a hold) over [`REPS`] fresh structures.
fn hold_ns<R: Rung>(make: impl Fn() -> R, size: usize, holds: usize, seed: u64) -> f64 {
    let mut rng = Rng::new(seed, 200);
    let prefill: Vec<u64> = (0..size).map(|_| rng.exp_ticks(1000.0 * 1024.0)).collect();
    let incs: Vec<u64> = (0..holds).map(|_| rng.exp_ticks(1000.0 * 1024.0)).collect();
    let mut ns = Vec::new();
    for _ in 0..REPS {
        let mut q = make();
        for (i, &k) in prefill.iter().enumerate() {
            q.push(k, i as u64);
        }
        let t = Instant::now();
        for (i, &inc) in incs.iter().enumerate() {
            let (k, _) = q.pop().expect("the ladder's queue never empties");
            q.push(k + inc, (size + i) as u64);
        }
        ns.push(t.elapsed().as_nanos() as f64 / (2 * holds) as f64);
    }
    median(&mut ns)
}

/// Every rung, as `(metric name, ns per operation)`.
pub fn ladder(seed: u64) -> Vec<(&'static str, f64)> {
    let (n, h) = (SIZE, HOLDS);
    vec![
        ("ladder.seq_ns", hold_ns(SeqSkipList::new, n, h, seed)),
        (
            "ladder.locked_seq_ns",
            hold_ns(|| Shared(LockedSeqSkipList::new()), n, h, seed),
        ),
        (
            "ladder.relaxed_ns",
            hold_ns(|| Shared(SkipQueue::new_relaxed()), n, h, seed),
        ),
        (
            "ladder.strict_ns",
            hold_ns(|| Shared(SkipQueue::new()), n, h, seed),
        ),
        (
            "ladder.batched_ns",
            hold_ns(|| Shared(SkipQueue::new_batched()), n, h, seed),
        ),
        (
            "ladder.sharded_ns",
            hold_ns(|| Shared(ShardedSkipQueue::new(4)), n, h, seed),
        ),
        (
            "ladder.huntheap_ns",
            hold_ns(|| Shared(HuntHeap::with_capacity(n + 1)), n, h, seed),
        ),
        (
            "ladder.locked_heap_ns",
            hold_ns(|| Shared(LockedBinaryHeap::new()), n, h, seed),
        ),
        (
            "ladder.funnel_ns",
            hold_ns(
                || Shared(FunnelList::new()),
                FUNNEL_SIZE,
                FUNNEL_HOLDS,
                seed,
            ),
        ),
    ]
}

/// Median ns per call of `op`, run [`PROBE_CALLS`] times on each of
/// `threads` threads at once.
fn probe_ns<S: Sync>(threads: usize, make: impl Fn() -> S, op: impl Fn(&S) + Sync) -> f64 {
    let mut ns = Vec::new();
    for _ in 0..REPS {
        let shared = make();
        let per_thread: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let (shared, op) = (&shared, &op);
                    s.spawn(move || {
                        let t = Instant::now();
                        for _ in 0..PROBE_CALLS {
                            op(shared);
                        }
                        t.elapsed().as_nanos() as f64 / PROBE_CALLS as f64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread"))
                .collect()
        });
        ns.push(per_thread.iter().sum::<f64>() / threads as f64);
    }
    median(&mut ns)
}

/// `Collector::pin` + drop, ns per call with `threads` threads.
pub fn pin_ns(threads: usize) -> f64 {
    probe_ns(
        threads,
        || Collector::<u64, u64>::new(threads),
        |c| drop(black_box(c.pin())),
    )
}

/// `TimestampClock::tick`, ns per call with `threads` threads.
pub fn tick_ns(threads: usize) -> f64 {
    probe_ns(threads, TimestampClock::new, |c| {
        black_box(c.tick());
    })
}
