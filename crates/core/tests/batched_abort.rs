//! Deterministic coverage of the batched cleaner's hint-publication abort
//! paths, driven through the shared `pqalgo` layer's phase hooks.
//!
//! The cleaner publishes the scan-start hint only if no insert completed
//! linking since its epoch snapshot; on either abort path (epoch moved
//! before the store, or between the store and the re-check) it must *clear*
//! the hint, because the previously published hint may name a node the
//! current sweep just collected — leaving it in place would dangle once the
//! batch is retired. PR 3 shipped exactly that bug; `set_buggy_abort` is a
//! mutation seam that re-introduces it so these tests can prove they catch
//! it.

use skipqueue::{CleanupPhase, SkipQueue};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Builds a batched queue (threshold 2) whose phase hook injects a
/// completed `insert(injected_key)` at the `fire_on_nth` occurrence of
/// `fire_at` — i.e. during the *second* cleanup sweep, after the first
/// sweep has already published a hint.
fn queue_with_injection(
    fire_at: CleanupPhase,
    fire_on_nth: usize,
    injected_key: u64,
) -> SkipQueue<u64, u64> {
    let seen = AtomicUsize::new(0);
    SkipQueue::new()
        .with_unlink_batch(2)
        .with_phase_hook(move |phase, q| {
            if phase == fire_at && seen.fetch_add(1, Ordering::SeqCst) + 1 == fire_on_nth {
                q.insert(injected_key, injected_key * 10);
            }
        })
}

/// Drives the queue to the point where the second cleanup sweep runs (and
/// the injected insert races its hint publication):
///
/// * four deletes at threshold 2 ⇒ sweep #1 collects the first two keys
///   and publishes `keys[2]` as the hint, then sweep #2 collects the next
///   two — with the hook's insert landing mid-publication.
fn drive_two_sweeps(q: &SkipQueue<u64, u64>, keys: &[u64]) {
    for &k in keys {
        q.insert(k, k * 10);
    }
    for &k in &keys[..4] {
        assert_eq!(q.delete_min(), Some((k, k * 10)), "prefix claims in order");
    }
}

/// Outer abort path: the injected insert completes during `PrePublish`, so
/// the epoch check *before* the store fails. The stale hint from sweep #1
/// names a node sweep #2 just collected; it must be cleared.
#[test]
fn outer_abort_clears_stale_hint() {
    let mut q = queue_with_injection(CleanupPhase::PrePublish, 2, 20);
    drive_two_sweeps(&q, &[10, 11, 12, 13]);
    assert!(
        q.debug_front_hint_is_null(),
        "aborted publication must clear the previously published hint"
    );
    // The injected insert is fully visible: the next claim walks from the
    // head and finds it.
    assert_eq!(q.delete_min(), Some((20, 200)));
    assert_eq!(q.delete_min(), None);
    q.check_invariants();
}

/// Inner abort path: the injected insert completes during `PostPublish`
/// (after the store, before the re-check), so the rollback branch runs.
/// The extra key 30 keeps sweep #2's `stop` a real node (not the tail)
/// with a key *below* the injected one, so the insert's own hint repair
/// does not fire and the rollback alone is responsible for the clear.
#[test]
fn inner_abort_rolls_back_published_hint() {
    let mut q = queue_with_injection(CleanupPhase::PostPublish, 2, 40);
    drive_two_sweeps(&q, &[10, 11, 12, 13, 30]);
    assert!(
        q.debug_front_hint_is_null(),
        "rolled-back publication must clear the just-stored hint"
    );
    assert_eq!(q.delete_min(), Some((30, 300)));
    assert_eq!(q.delete_min(), Some((40, 400)));
    assert_eq!(q.delete_min(), None);
    q.check_invariants();
}

/// Mutation check: re-introducing the PR 3 stale-hint bug flips the exact
/// observable the two tests above assert on. With `set_buggy_abort(true)`
/// the outer abort leaves the hint pointing at a node the sweep retired
/// (use-after-free on the native runtime once the collector frees it), and
/// the inner abort leaves the rolled-back publication in place — so both
/// `debug_front_hint_is_null` assertions fail, proving the tests catch the
/// bug class rather than passing vacuously.
#[test]
fn mutation_reintroducing_stale_hint_bug_is_caught() {
    let mut q = queue_with_injection(CleanupPhase::PrePublish, 2, 20);
    q.set_buggy_abort(true);
    drive_two_sweeps(&q, &[10, 11, 12, 13]);
    assert!(
        !q.debug_front_hint_is_null(),
        "mutant must leave the stale hint in place, failing the outer-abort test"
    );

    let mut q = queue_with_injection(CleanupPhase::PostPublish, 2, 40);
    q.set_buggy_abort(true);
    drive_two_sweeps(&q, &[10, 11, 12, 13, 30]);
    assert!(
        !q.debug_front_hint_is_null(),
        "mutant must keep the aborted publication, failing the inner-abort test"
    );
}

/// The same mutation seen from memory safety: the outer-abort mutant's
/// stale hint names a node sweep #2 retired. Once the collector recycles
/// that node's block into its pool, the next `delete_min` starts its walk
/// there. A pooled block is never freed, so AddressSanitizer cannot see
/// the read; debug builds poison pooled blocks instead, and the walk's
/// first step past the node trips `Node::height`'s check. The correct
/// cleaner, driven the same way, cleared the hint and stays clean.
#[test]
#[cfg(debug_assertions)]
fn mutant_stale_hint_reads_a_reclaimed_node() {
    let q = queue_with_injection(CleanupPhase::PrePublish, 2, 20);
    drive_two_sweeps(&q, &[10, 11, 12, 13]);
    q.debug_recycle_garbage();
    assert_eq!(q.delete_min(), Some((20, 200)), "control: no stale hint");

    let mut q = queue_with_injection(CleanupPhase::PrePublish, 2, 20);
    q.set_buggy_abort(true);
    drive_two_sweeps(&q, &[10, 11, 12, 13]);
    assert!(!q.debug_front_hint_is_null(), "mutant keeps the stale hint");
    q.debug_recycle_garbage();
    let walk = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.delete_min()));
    let msg = walk.expect_err("the walk from a recycled hint must trip the poison check");
    let msg = msg.downcast_ref::<String>().expect("formatted message");
    assert!(msg.contains("read of a reclaimed node"), "{msg}");
}
