//! Cross-implementation integration tests: every native priority queue in
//! the workspace (the SkipQueue in both modes, the Hunt et al. heap, the
//! FunnelList, and the coarse-grained baselines) must satisfy the same
//! behavioural contract. Each check is written once against the
//! `PriorityQueue` trait and instantiated for every implementation.

use std::collections::BinaryHeap;
use std::sync::Arc;

use funnel::FunnelList;
use huntheap::{HuntHeap, LockedBinaryHeap};
use skipqueue::seq::LockedSeqSkipList;
use skipqueue::{PriorityQueue, SkipQueue};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

// ---------------------------------------------------------------- generic

fn check_empty<Q: PriorityQueue<u64, u64>>(q: Q) {
    assert!(q.is_empty());
    assert_eq!(q.delete_min(), None);
    assert_eq!(q.len(), 0);
}

fn check_sorted_drain<Q: PriorityQueue<u64, u64>>(q: Q) {
    let mut state = 0xDEAD_BEEF_u64;
    let mut keys = Vec::new();
    for _ in 0..500 {
        let k = xorshift(&mut state) >> 16;
        keys.push(k);
        q.insert(k, k ^ 1);
    }
    assert_eq!(q.len(), 500);
    keys.sort_unstable();
    for expect in keys {
        let (k, v) = q.delete_min().expect("queue should not be empty yet");
        assert_eq!(k, expect);
        assert_eq!(v, k ^ 1);
    }
    assert_eq!(q.delete_min(), None);
}

fn check_interleaved_against_model<Q: PriorityQueue<u64, u64>>(q: Q) {
    let mut model = BinaryHeap::new();
    let mut state = 0xFACE_u64;
    for step in 0..3_000 {
        if xorshift(&mut state).is_multiple_of(3) {
            let got = q.delete_min().map(|(k, _)| k);
            let want = model.pop().map(|std::cmp::Reverse(k)| k);
            assert_eq!(got, want, "step {step}");
        } else {
            let k = state >> 20;
            q.insert(k, 0);
            model.push(std::cmp::Reverse(k));
        }
    }
    assert_eq!(q.len(), model.len());
}

fn check_concurrent_conservation<Q: PriorityQueue<u64, u64> + Send + Sync + 'static>(q: Q) {
    let q = Arc::new(q);
    let threads = 8;
    let per = 1_000;
    let stats: Vec<(u64, u64)> = std::thread::scope(|s| {
        (0..threads)
            .map(|t| {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    let mut state = (t as u64 + 1) * 0x9E37_79B9;
                    let mut ins = 0;
                    let mut del = 0;
                    for _ in 0..per {
                        if xorshift(&mut state).is_multiple_of(2) {
                            q.insert(state >> 16, t as u64);
                            ins += 1;
                        } else if q.delete_min().is_some() {
                            del += 1;
                        }
                    }
                    (ins, del)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    let ins: u64 = stats.iter().map(|(i, _)| i).sum();
    let del: u64 = stats.iter().map(|(_, d)| d).sum();
    assert_eq!(q.len() as u64, ins - del, "items must be conserved");
}

fn check_concurrent_drain_exactly_once<Q: PriorityQueue<u64, u64> + Send + Sync + 'static>(q: Q) {
    let n = 4_000u64;
    for k in 0..n {
        q.insert(k, k);
    }
    let q = Arc::new(q);
    let mut all: Vec<u64> = std::thread::scope(|s| {
        (0..8)
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
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(all.len() as u64, n);
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len() as u64, n, "every item exactly once");
}

fn check_producer_consumer<Q: PriorityQueue<u64, u64> + Send + Sync + 'static>(q: Q) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let q = Arc::new(q);
    let done = AtomicBool::new(false);
    let consumed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let q = Arc::clone(&q);
            s.spawn(move || {
                for i in 0..2_000u64 {
                    q.insert(t * 2_000 + i, i);
                }
            });
        }
        for _ in 0..4 {
            let q = Arc::clone(&q);
            let done = &done;
            let consumed = &consumed;
            s.spawn(move || loop {
                match q.delete_min() {
                    Some(_) => {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                    None if done.load(Ordering::Acquire) => break,
                    None => std::thread::yield_now(),
                }
            });
        }
        // Producers are the first four handles; scope joins everything, but
        // we must flip `done` after producers finish. Easiest: poll len.
        while consumed.load(Ordering::Relaxed) + (q.len() as u64) < 8_000 {
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
    });
    assert_eq!(consumed.load(Ordering::Relaxed) + q.len() as u64, 8_000);
}

// ------------------------------------------------------------ per-impl

macro_rules! suite {
    ($modname:ident, $make:expr) => {
        mod $modname {
            use super::*;

            #[test]
            fn empty() {
                check_empty($make);
            }

            #[test]
            fn sorted_drain() {
                check_sorted_drain($make);
            }

            #[test]
            fn interleaved_against_model() {
                check_interleaved_against_model($make);
            }

            #[test]
            fn concurrent_conservation() {
                check_concurrent_conservation($make);
            }

            #[test]
            fn concurrent_drain_exactly_once() {
                check_concurrent_drain_exactly_once($make);
            }

            #[test]
            fn producer_consumer() {
                check_producer_consumer($make);
            }
        }
    };
}

suite!(skipqueue_strict, SkipQueue::<u64, u64>::new());
suite!(skipqueue_relaxed, SkipQueue::<u64, u64>::new_relaxed());
suite!(hunt_heap, HuntHeap::<u64, u64>::with_capacity(50_000));
suite!(funnel_list, FunnelList::<u64, u64>::new());
suite!(locked_binary_heap, LockedBinaryHeap::<u64, u64>::new());
suite!(locked_seq_skiplist, LockedSeqSkipList::<u64, u64>::new());

// ------------------------------------------------- cross-implementation

/// All implementations must agree on a deterministic sequential script.
#[test]
fn all_implementations_agree_sequentially() {
    let script: Vec<(bool, u64)> = {
        let mut state = 0xC0FFEE_u64;
        (0..2_000)
            .map(|_| {
                let r = xorshift(&mut state);
                (!r.is_multiple_of(3), r >> 24)
            })
            .collect()
    };

    fn run<Q: PriorityQueue<u64, u64>>(q: Q, script: &[(bool, u64)]) -> Vec<Option<u64>> {
        script
            .iter()
            .map(|&(ins, k)| {
                if ins {
                    q.insert(k, 0);
                    None
                } else {
                    q.delete_min().map(|(k, _)| k)
                }
            })
            .collect()
    }

    let reference = run(LockedBinaryHeap::new(), &script);
    assert_eq!(run(SkipQueue::new(), &script), reference, "SkipQueue");
    assert_eq!(
        run(SkipQueue::new_relaxed(), &script),
        reference,
        "Relaxed SkipQueue"
    );
    assert_eq!(
        run(HuntHeap::with_capacity(4_096), &script),
        reference,
        "HuntHeap"
    );
    assert_eq!(run(FunnelList::new(), &script), reference, "FunnelList");
    assert_eq!(
        run(LockedSeqSkipList::new(), &script),
        reference,
        "LockedSeqSkipList"
    );
}

// ------------------------------------------------------- length count

/// Runs inserters and deleters side by side on a prefilled `q` while a
/// monitor samples `len()`, and returns how many items are left. Deleters
/// remove more than they add, so their threads' shares of the count go
/// negative; the sum never may.
fn run_len_workload<Q: PriorityQueue<u64, u64> + Sync>(q: &Q) -> u64 {
    use std::sync::atomic::{AtomicBool, Ordering};
    const PREFILL: u64 = 1_000;
    const THREADS: u64 = 4;
    const OPS: u64 = 2_000;
    for k in 0..PREFILL {
        q.insert(k, k);
    }
    let running = AtomicBool::new(true);
    let (added, removed) = std::thread::scope(|s| {
        let running = &running;
        let monitor = s.spawn(move || {
            while running.load(Ordering::Relaxed) {
                let n = q.len() as u64;
                assert!(n <= PREFILL + THREADS * OPS, "len() wrapped: {n}");
                std::thread::yield_now();
            }
        });
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    // Even threads insert 3 ops in 4, odd threads delete 3 in 4.
                    let mut state = (t + 1) * 0x9E37_79B9;
                    let (mut added, mut removed) = (0, 0);
                    for _ in 0..OPS {
                        let quarter = xorshift(&mut state).is_multiple_of(4);
                        let insert = if t % 2 == 0 { !quarter } else { quarter };
                        if insert {
                            q.insert(PREFILL + (state >> 40), t);
                            added += 1;
                        } else if q.delete_min().is_some() {
                            removed += 1;
                        }
                    }
                    (added, removed)
                })
            })
            .collect();
        let totals = workers
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |(a, r), (da, dr)| (a + da, r + dr));
        running.store(false, Ordering::Relaxed);
        monitor.join().unwrap();
        totals
    });
    let left = PREFILL + added - removed;
    assert_eq!(q.len() as u64, left, "len() at quiescence");
    left
}

fn drained<Q: PriorityQueue<u64, u64>>(q: &Q) -> u64 {
    std::iter::from_fn(|| q.delete_min()).count() as u64
}

#[test]
fn skipqueue_len_matches_the_drain_at_quiescence() {
    for mut q in [SkipQueue::new(), SkipQueue::new().with_unlink_batch(8)] {
        let left = run_len_workload(&q);
        q.check_invariants();
        assert_eq!(drained(&q), left);
        assert_eq!(q.len(), 0);
    }
}

#[test]
fn sharded_len_matches_the_drain_at_quiescence() {
    let q = shardq::ShardedSkipQueue::<u64, u64>::new(4);
    let left = run_len_workload(&q);
    assert_eq!(drained(&q), left);
    assert_eq!(q.len(), 0);
}
