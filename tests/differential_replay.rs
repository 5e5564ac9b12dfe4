//! Cross-runtime differential replay: one recorded schedule, two platforms.
//!
//! The shared `pqalgo` algorithm must make identical logical decisions on
//! the native queue and on the simulated machine when both replay the same
//! serial schedule. Tower heights are the one source of randomness, so the
//! simulator's draws are recorded and forced onto the native queue via its
//! height script; after that, per-operation results and the platform-neutral
//! decision-trace event streams (claims, stamps, hint traffic, retirements,
//! and the order in which the batched cleaner reaches its phase points) must
//! match event for event.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use pqalgo::{CleanupPhase, TraceEvent};
use pqsim::{Sim, SimConfig};
use simpq::SimSkipQueue;
use skipqueue::SkipQueue;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Insert(u64),
    DeleteMin,
}

fn value_of(key: u64) -> u64 {
    key ^ 0xABCD
}

/// Deterministic mixed schedule (fixed LCG, no host randomness): unique
/// keys that jump around (so fresh smaller keys land before claimed
/// prefixes, exercising hint repair in batched mode), insert-biased so the
/// structure grows and shrinks, and a full drain at the end so the EMPTY
/// path replays too.
fn schedule(seed: u64, len: usize) -> Vec<Op> {
    let mut x = seed | 1;
    let mut counter = 1u64;
    let mut live = 0usize;
    let mut ops = Vec::with_capacity(len + 8);
    for _ in 0..len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if live == 0 || (x >> 33) % 10 < 6 {
            let bucket = (x >> 17) % 97;
            counter += 1;
            // Unique: distinct `counter` per op, bucket spread multiplies out.
            ops.push(Op::Insert(1 + bucket * 100_000 + counter));
            live += 1;
        } else {
            ops.push(Op::DeleteMin);
            live -= 1;
        }
    }
    for _ in 0..live + 2 {
        ops.push(Op::DeleteMin); // drain past EMPTY
    }
    ops
}

/// Replays `ops` on one simulated processor; returns per-op delete results
/// and the decision trace (whose `Height` events drive the native replay).
fn run_sim(
    ops: &[Op],
    strict: bool,
    batch: Option<usize>,
) -> (Vec<Option<(u64, u64)>>, Vec<TraceEvent>) {
    let mut sim = Sim::new(SimConfig::new(1).with_seed(4242));
    let trace = Rc::new(RefCell::new(Vec::new()));
    let mut q = SimSkipQueue::create(&sim, 12, strict).with_trace(Rc::clone(&trace));
    if let Some(t) = batch {
        q = q.with_batched_unlink(&sim, t);
    }
    let results = Rc::new(RefCell::new(Vec::new()));
    let ops = ops.to_vec();
    let q2 = q.clone();
    let res = Rc::clone(&results);
    sim.spawn(move |p| async move {
        for op in ops {
            match op {
                Op::Insert(k) => {
                    q2.insert(&p, k, value_of(k)).await;
                    res.borrow_mut().push(None);
                }
                Op::DeleteMin => {
                    let r = q2.delete_min(&p).await;
                    res.borrow_mut().push(r);
                }
            }
        }
    });
    sim.run();
    let results = results.borrow().clone();
    let trace = trace.borrow().clone();
    (results, trace)
}

/// Replays `ops` on the native queue with the simulator's tower heights
/// forced via the height script.
fn run_native(
    ops: &[Op],
    strict: bool,
    batch: Option<usize>,
    heights: Vec<usize>,
) -> (Vec<Option<(u64, u64)>>, Vec<TraceEvent>) {
    let sink = Arc::new(Mutex::new(Vec::new()));
    let mut q = SkipQueue::<u64, u64>::with_params(12, 0.5, strict, 4)
        .with_height_script(heights)
        .with_trace(Arc::clone(&sink), |k| *k);
    if let Some(t) = batch {
        q = q.with_unlink_batch(t);
    }
    let mut results = Vec::new();
    for &op in ops {
        match op {
            Op::Insert(k) => {
                q.insert(k, value_of(k));
                results.push(None);
            }
            Op::DeleteMin => results.push(q.delete_min()),
        }
    }
    drop(q);
    let trace = Arc::try_unwrap(sink).unwrap().into_inner().unwrap();
    (results, trace)
}

fn assert_replay_matches(seed: u64, len: usize, strict: bool, batch: Option<usize>) {
    let ops = schedule(seed, len);
    let inserts = ops.iter().filter(|o| matches!(o, Op::Insert(_))).count();
    let (sim_results, sim_trace) = run_sim(&ops, strict, batch);
    let heights: Vec<usize> = sim_trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Height(h) => Some(*h),
            _ => None,
        })
        .collect();
    assert_eq!(heights.len(), inserts, "one height draw per insert");
    let (native_results, native_trace) = run_native(&ops, strict, batch, heights);

    assert_eq!(
        sim_results, native_results,
        "per-operation results diverged (seed {seed}, strict {strict}, batch {batch:?})"
    );
    assert_eq!(
        sim_trace, native_trace,
        "decision traces diverged (seed {seed}, strict {strict}, batch {batch:?})"
    );
}

#[test]
fn differential_replay_eager_strict() {
    let ops = schedule(7, 300);
    let (_, trace) = run_sim(&ops, true, None);
    assert!(
        trace.iter().any(|e| matches!(e, TraceEvent::Retire(_))),
        "eager replay must exercise the per-delete unlink"
    );
    assert_replay_matches(7, 300, true, None);
}

#[test]
fn differential_replay_eager_relaxed() {
    assert_replay_matches(21, 300, false, None);
}

#[test]
fn differential_replay_batched_strict() {
    let ops = schedule(13, 300);
    let (_, trace) = run_sim(&ops, true, Some(4));
    assert!(
        trace
            .iter()
            .any(|e| matches!(e, TraceEvent::RetireBatch(_))),
        "batched replay must exercise the cleaner"
    );
    assert!(
        trace.iter().any(|e| matches!(e, TraceEvent::HintSet(_))),
        "batched replay must publish a scan hint"
    );
    for phase in [
        CleanupPhase::PreCollect,
        CleanupPhase::PrePublish,
        CleanupPhase::PostPublish,
    ] {
        assert!(
            trace.contains(&TraceEvent::Phase(phase)),
            "batched replay must reach the cleaner's {phase:?} point"
        );
    }
    assert_replay_matches(13, 300, true, Some(4));
}

#[test]
fn differential_replay_batched_relaxed() {
    assert_replay_matches(33, 300, false, Some(4));
}
