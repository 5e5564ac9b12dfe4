//! Auditing real concurrent executions against the paper's specification
//! (Section 4, Definition 1) using the `histcheck` crate.
//!
//! The strict SkipQueue must produce histories passing the full
//! Definition-1 audit; the relaxed variant is only required to pass the
//! integrity audit (each item delivered at most once, nothing invented).
//! The baselines are audited too — they are all strict implementations.

use std::sync::Arc;

use funnel::FunnelList;
use histcheck::{History, Recorder, TicketClock};
use huntheap::HuntHeap;
use skipqueue::{PriorityQueue, SkipQueue};

/// Runs a mixed concurrent workload against `q`, recording a timed history.
/// Values are made unique per thread.
fn record_workload<Q: PriorityQueue<u64, u64> + Send + Sync + 'static>(
    q: Q,
    threads: u64,
    ops: u64,
) -> History {
    let clock = TicketClock::new();
    let q = Arc::new(q);
    let parts: Vec<History> = std::thread::scope(|s| {
        (0..threads)
            .map(|t| {
                let q = Arc::clone(&q);
                let clock = &clock;
                s.spawn(move || {
                    let mut rec = Recorder::new(clock);
                    let mut state = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut seq = 0u64;
                    for _ in 0..ops {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        if state % 2 == 0 {
                            // Unique value: random priority bits + thread tag
                            // + sequence (uniqueness is a histcheck input
                            // requirement; key order is still random-ish).
                            let v = ((state >> 32) << 20) | (t << 12) | (seq % (1 << 12));
                            seq += 1;
                            rec.insert(v, || q.insert(v, v));
                        } else {
                            rec.delete_min(|| q.delete_min().map(|(k, _)| k));
                        }
                    }
                    rec.finish()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    History::merge(parts)
}

#[test]
fn strict_skipqueue_passes_definition_1_audit() {
    for round in 0..3 {
        let h = record_workload(SkipQueue::new(), 8, 2_000);
        let violations = h.check_strict();
        assert!(
            violations.is_empty(),
            "round {round}: strict SkipQueue violated Definition 1: {violations:?}"
        );
    }
}

#[test]
fn relaxed_skipqueue_passes_integrity_audit() {
    let h = record_workload(SkipQueue::new_relaxed(), 8, 2_000);
    let violations = h.check_integrity();
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn hunt_heap_passes_integrity_audit() {
    // Hunt et al. is not linearizable to Definition 1 in all corner cases
    // (a delete can lift an in-flight insert's item from the root region),
    // so like the relaxed queue it gets the integrity audit.
    let h = record_workload(HuntHeap::with_capacity(100_000), 8, 2_000);
    let violations = h.check_integrity();
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn funnel_list_passes_definition_1_audit() {
    // The FunnelList executes batches atomically under one lock: it is
    // strict.
    let h = record_workload(FunnelList::new(), 8, 1_000);
    let violations = h.check_strict();
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn single_threaded_histories_always_strict() {
    for queue_ctor in [
        SkipQueue::<u64, u64>::new,
        SkipQueue::<u64, u64>::new_relaxed,
    ] {
        let h = record_workload(queue_ctor(), 1, 3_000);
        assert!(h.check_strict().is_empty());
    }
}

#[test]
fn small_concurrent_histories_are_exactly_linearizable() {
    // For histories small enough, decide linearizability *exactly* (subset
    // DP over delete serializations) rather than via necessary conditions.
    //
    // Linearizability — not Definition 1 — is the right ground truth here:
    // these histories are recorded at operation boundaries, and a strict
    // delete can legally return a value whose insert has stamped its
    // timestamp but not yet returned to the caller. The Definition-1 exact
    // check belongs to histories stamped at serialization points (see the
    // simulator taps in `simpq`).
    use histcheck::ExactOutcome;
    for round in 0..20 {
        let q = SkipQueue::new();
        let clock = TicketClock::new();
        let q = Arc::new(q);
        let parts: Vec<History> = std::thread::scope(|s| {
            (0..4u64)
                .map(|t| {
                    let q = Arc::clone(&q);
                    let clock = &clock;
                    s.spawn(move || {
                        let mut rec = Recorder::new(clock);
                        let mut state = (round * 4 + t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                        for i in 0..8 {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            if state % 8 < 5 {
                                let v = ((state >> 32) << 8) | (t << 4) | i;
                                rec.insert(v, || q.insert(v, v));
                            } else {
                                rec.delete_min(|| q.delete_min().map(|(k, _)| k));
                            }
                        }
                        rec.finish()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let h = History::merge(parts);
        let deletes = h
            .ops()
            .iter()
            .filter(|o| matches!(o, histcheck::Op::DeleteMin { .. }))
            .count();
        assert!(deletes <= histcheck::MAX_EXACT_DELETES);
        assert_eq!(
            h.check_linearizable_exact(),
            ExactOutcome::Linearizable,
            "round {round}: strict SkipQueue history not linearizable"
        );
        // Cross-validation: the fast audit must agree (it is sound).
        assert!(h.check_strict().is_empty(), "round {round}");
    }
}

#[test]
fn hold_loop_empties_are_definition_1_legal() {
    // The shape of a hold model on a small queue: two threads each delete
    // the minimum and insert it back with a larger key, on a queue
    // prefilled with 512 items, so at most two items are ever out. Every
    // EMPTY is recorded. One can still be legal: a deleter descheduled
    // after reading its start time, while its peer claims every item
    // stamped before that time and re-inserts them all with later stamps.
    // `check_strict` flags any EMPTY that overlooks an insert completed
    // before the delete began and not claimed by a delete invoked before
    // it responded.
    const PREFILL: u64 = 512;
    const HOLDS: u64 = 1_500;
    // Unique values: priority above bit 24, thread tag, then a sequence.
    let value = |prio: u64, tag: u64, seq: u64| prio << 24 | tag << 20 | seq;
    for round in 0..2u64 {
        let clock = TicketClock::new();
        let q = SkipQueue::<u64, u64>::new();
        let mut prefill = Recorder::new(&clock);
        for i in 0..PREFILL {
            let v = value(i, 2, 0);
            prefill.insert(v, || q.insert(v, v));
        }
        let runs: Vec<(History, u64)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2u64)
                .map(|t| {
                    let (q, clock) = (&q, &clock);
                    s.spawn(move || {
                        let mut rec = Recorder::new(clock);
                        let mut state = (round * 2 + t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let mut empties = 0;
                        for seq in 0..HOLDS {
                            match rec.delete_min(|| q.delete_min().map(|(k, _)| k)) {
                                Some(k) => {
                                    state ^= state << 13;
                                    state ^= state >> 7;
                                    state ^= state << 17;
                                    let v = value((k >> 24) + 1 + state % 64, t, seq);
                                    rec.insert(v, || q.insert(v, v));
                                }
                                None => empties += 1,
                            }
                        }
                        (rec.finish(), empties)
                    })
                })
                .collect();
            workers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let empties: u64 = runs.iter().map(|(_, e)| e).sum();
        assert_eq!(
            q.len() as u64,
            PREFILL,
            "round {round}: holds conserve items"
        );
        let h = History::merge(
            std::iter::once(prefill.finish()).chain(runs.into_iter().map(|(h, _)| h)),
        );
        let violations = h.check_strict();
        assert!(
            violations.is_empty(),
            "round {round}: {empties} EMPTY results, violations: {violations:?}"
        );
    }
}

#[test]
fn audit_actually_has_teeth() {
    // Sanity: a deliberately broken "queue" (LIFO!) must fail the audit.
    struct Lifo(parking_lot::Mutex<Vec<(u64, u64)>>);
    impl PriorityQueue<u64, u64> for Lifo {
        fn insert(&self, k: u64, v: u64) {
            self.0.lock().push((k, v));
        }
        fn delete_min(&self) -> Option<(u64, u64)> {
            self.0.lock().pop()
        }
        fn len(&self) -> usize {
            self.0.lock().len()
        }
    }
    let h = record_workload(Lifo(parking_lot::Mutex::new(Vec::new())), 4, 500);
    assert!(
        !h.check_strict().is_empty(),
        "a LIFO must violate the priority-queue specification"
    );
}
