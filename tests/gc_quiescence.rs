//! Integration tests of the paper's §3 reclamation scheme, native side:
//! nodes unlinked by `delete_min` are freed only after every thread that
//! was inside the structure at unlink time has exited, and everything is
//! reclaimed at quiescence — across heavy churn and many threads.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use shardq::ShardedSkipQueue;
use skipqueue::SkipQueue;

#[test]
fn churn_does_not_accumulate_garbage() {
    let q: SkipQueue<u64, u64> = SkipQueue::new();
    for round in 0..50u64 {
        for k in 0..200 {
            q.insert(round * 1_000 + k, k);
        }
        for _ in 0..200 {
            q.delete_min().unwrap();
        }
        // The automatic threshold collection inside retire should keep the
        // backlog bounded well below the total churn.
        assert!(
            q.garbage_pending() < 2_000,
            "round {round}: backlog {}",
            q.garbage_pending()
        );
    }
    q.collect_garbage();
    assert_eq!(q.garbage_pending(), 0);
}

#[test]
fn concurrent_churn_reclaims_at_quiescence() {
    let q: Arc<SkipQueue<u64, u64>> = Arc::new(SkipQueue::new());
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let q = Arc::clone(&q);
            s.spawn(move || {
                for i in 0..3_000u64 {
                    q.insert(t * 100_000 + i, i);
                    if i % 2 == 1 {
                        q.delete_min();
                    }
                }
            });
        }
    });
    // All threads have exited: a collection cycle must drain everything.
    q.collect_garbage();
    assert_eq!(q.garbage_pending(), 0);
}

#[test]
fn values_of_reclaimed_nodes_are_dropped_exactly_once() {
    static LIVE: AtomicUsize = AtomicUsize::new(0);

    struct Payload;
    impl Payload {
        fn new() -> Self {
            LIVE.fetch_add(1, Ordering::SeqCst);
            Payload
        }
    }
    impl Drop for Payload {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }

    {
        let q: Arc<SkipQueue<u64, Payload>> = Arc::new(SkipQueue::new());
        std::thread::scope(|s| {
            for t in 0..6u64 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        q.insert(t * 10_000 + i, Payload::new());
                        if i % 3 == 0 {
                            // Returned payloads drop here.
                            q.delete_min();
                        }
                    }
                });
            }
        });
    } // queue dropped: remaining payloads (linked + retired) drop too

    assert_eq!(
        LIVE.load(Ordering::SeqCst),
        0,
        "payload leak or double drop through delete_min / GC / queue Drop"
    );
}

#[test]
fn garbage_of_exited_threads_is_freed_by_collect_garbage() {
    // The threshold path reclaims only the calling thread's own garbage, so
    // what a thread retired since its last collection waits on its list
    // after it exits; an explicit collection from another thread frees it.
    let q: SkipQueue<u64, u64> = SkipQueue::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            for k in 0..300 {
                q.insert(k, k);
            }
            for _ in 0..100 {
                q.delete_min().unwrap();
            }
        });
    });
    let left = q.garbage_pending();
    assert!(left > 0, "the exited thread left retired nodes behind");
    assert_eq!(q.collect_garbage(), left);
    assert_eq!(q.garbage_pending(), 0);
    assert_eq!(q.len(), 200);
}

#[test]
fn keys_with_drop_glue_survive_gc() {
    // String keys exercise take_key()'s ManuallyDrop handling under churn.
    let q: Arc<SkipQueue<String, u64>> = Arc::new(SkipQueue::new());
    std::thread::scope(|s| {
        for t in 0..4 {
            let q = Arc::clone(&q);
            s.spawn(move || {
                for i in 0..2_000u64 {
                    q.insert(format!("key-{t}-{i:06}"), i);
                    if i % 2 == 0 {
                        if let Some((k, _)) = q.delete_min() {
                            assert!(k.starts_with("key-"));
                        }
                    }
                }
            });
        }
    });
    q.collect_garbage();
    assert_eq!(q.garbage_pending(), 0);
}

/// Comparisons that read a key after its owner dropped it (see
/// [`CanaryKey`]).
static STALE_COMPARES: AtomicUsize = AtomicUsize::new(0);

/// A key with drop glue whose heap state is a leaked, never-freed canary
/// cell: dropping the key marks its cell dead, and every comparison checks
/// both operands' cells. A comparison against a popped-and-dropped key is
/// then a counted, well-defined event instead of a read of freed memory.
struct CanaryKey {
    prio: u64,
    live: &'static AtomicBool,
}

impl CanaryKey {
    fn new(prio: u64) -> Self {
        CanaryKey {
            prio,
            live: Box::leak(Box::new(AtomicBool::new(true))),
        }
    }
}

impl Drop for CanaryKey {
    fn drop(&mut self) {
        self.live.store(false, Ordering::SeqCst);
    }
}

impl Ord for CanaryKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        for key in [self, other] {
            if !key.live.load(Ordering::SeqCst) {
                STALE_COMPARES.fetch_add(1, Ordering::SeqCst);
            }
        }
        self.prio.cmp(&other.prio)
    }
}

impl PartialOrd for CanaryKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for CanaryKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for CanaryKey {}

#[test]
fn drop_glue_keys_outlive_concurrent_readers() {
    // Hold model on the eager path with more threads than cores: every
    // popped key is dropped at once, while other threads' searches walk
    // the same front of the list and can be preempted between loading a
    // pointer to a victim and comparing its key. `delete_min` must not
    // hand a key out while such a search may still compare it.
    const THREADS: u64 = 8;
    const HOLDS: u64 = 20_000;
    let q: Arc<SkipQueue<CanaryKey, u64>> = Arc::new(SkipQueue::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let q = Arc::clone(&q);
            s.spawn(move || {
                for i in 0..64 {
                    q.insert(CanaryKey::new(i * THREADS + t), t);
                }
                let mut x = t + 1;
                for _ in 0..HOLDS {
                    if let Some((key, v)) = q.delete_min() {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        q.insert(CanaryKey::new(key.prio + 1 + x % 64), v);
                    }
                }
            });
        }
    });
    assert_eq!(
        STALE_COMPARES.load(Ordering::SeqCst),
        0,
        "a search compared a key that delete_min had already handed out and dropped"
    );
    q.collect_garbage();
    assert_eq!(q.garbage_pending(), 0);
}

#[test]
fn batched_retirement_under_shard_churn_leaks_nothing() {
    // The sharded front-end is the harshest client `retire_batch` has:
    // every shard owns a collector, each thread holds a slot in several
    // collectors at once (sampling touches shards it never inserts into),
    // and the batched cleaner retires whole unlinked prefixes in one call
    // while other threads are still walking them. Drop-counted payloads
    // account for every node across claim-path drops, per-shard GC, and
    // queue teardown.
    static LIVE: AtomicUsize = AtomicUsize::new(0);

    struct Tracked(#[allow(dead_code)] u64);
    impl Tracked {
        fn new(v: u64) -> Self {
            LIVE.fetch_add(1, Ordering::SeqCst);
            Tracked(v)
        }
    }
    impl Drop for Tracked {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }

    for round in 0..4u64 {
        {
            // Small unlink batch so retirement batches trigger constantly;
            // elimination hand-offs bypass shards entirely (those payloads
            // must drop through the consumer, not a collector).
            let q: Arc<ShardedSkipQueue<u64, Tracked>> =
                Arc::new(ShardedSkipQueue::with_params(4, 2, 16));
            std::thread::scope(|s| {
                for t in 0..6u64 {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        for i in 0..2_000u64 {
                            let key = (round * 7 + t * 11 + i * 13) % 509;
                            q.insert(key, Tracked::new(key));
                            if i % 3 != 0 {
                                // Claim-path drop; sampling routinely
                                // enters shards this thread never wrote.
                                q.delete_min();
                            }
                        }
                    });
                }
            });
            // Quiescent: every shard's collector must drain its backlog.
            q.collect_garbage();
            assert_eq!(
                q.garbage_pending(),
                0,
                "round {round}: retired nodes stuck after quiescent collection"
            );
        } // queue drop reclaims still-linked nodes
        assert_eq!(
            LIVE.load(Ordering::SeqCst),
            0,
            "round {round}: payload leak or double drop under shard churn"
        );
    }
}

#[test]
fn many_queues_per_thread_do_not_interfere() {
    // Each queue has its own collector; thread slots are per-collector.
    for _ in 0..20 {
        let q: SkipQueue<u64, u64> = SkipQueue::new();
        for k in 0..100 {
            q.insert(k, k);
        }
        for _ in 0..100 {
            q.delete_min().unwrap();
        }
    }
}

#[test]
fn slot_table_exhaustion_is_loud() {
    // 1-thread queue used from 2 threads must panic with a clear message,
    // not corrupt memory.
    let q: Arc<SkipQueue<u64, u64>> = Arc::new(SkipQueue::with_params(8, true, 1));
    q.insert(1, 1);
    let q2 = Arc::clone(&q);
    let result = std::thread::spawn(move || {
        // Second distinct thread: no slot available.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q2.insert(2, 2);
        }));
        caught.is_err()
    })
    .join()
    .unwrap();
    assert!(result, "second thread should panic on slot exhaustion");
}
