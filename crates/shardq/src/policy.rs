//! The sharded delete-min policy, written once for both runtimes.
//!
//! [`delete_min`] and [`delete_min_exact`] decide *which* shard to claim
//! from; a [`Shards`] implementation decides *how* a shard is probed and
//! claimed. [`crate::ShardedSkipQueue`] implements the seam over native
//! SkipQueues and runs the policy to completion in a single poll (every
//! native hook is ready at once). `schedtest` implements it over simulated
//! SkipQueues for one virtual processor, so the policy it audits under
//! adversarial schedules is the one users run.

use std::future::Future;
use std::task::{Context, Poll, Waker};

/// Sampling widths up to this peek that many distinct shards; a width
/// above it (or reaching the shard count) peeks every shard instead.
pub(crate) const MAX_SAMPLE: usize = 8;

/// One runtime's view of `k` shards. `pick`, `peek` and `claim` are
/// required; `park` and `note_fallback` default to no-ops for a runtime
/// without an elimination array or fallback counter.
#[allow(async_fn_in_trait)] // single-threaded driving; no Send bounds wanted
pub trait Shards {
    /// Priority type; fronts are compared and copied by the policy.
    type Key: Ord + Copy;
    /// What a successful claim returns.
    type Item;
    /// Number of shards (`k`, at least 1).
    fn shards(&self) -> usize;
    /// A uniformly random shard index in `0..shards()`.
    fn pick(&self) -> usize;
    /// Non-claiming probe of shard `i`'s front key; `None` if it is empty.
    async fn peek(&self, i: usize) -> Option<Self::Key>;
    /// Claims shard `i`'s minimum; `None` if the shard was empty.
    async fn claim(&self, i: usize) -> Option<Self::Item>;
    /// After a lost claim on a front of key `bound`: wait briefly for an
    /// insert of a key `<= bound` to hand its item over directly.
    async fn park(&self, _bound: Self::Key) -> Option<Self::Item> {
        None
    }
    /// Counts one claim served by the exact scan.
    fn note_fallback(&self) {}
}

/// Effective sampling width over `k` shards: `sample` distinct shards, or
/// all `k` once `sample` reaches `min(k, MAX_SAMPLE + 1)`.
pub(crate) fn width(sample: usize, k: usize) -> usize {
    if sample < k && sample <= MAX_SAMPLE {
        sample
    } else {
        k
    }
}

/// Removes an item of (approximately) minimum priority.
///
/// Peeks `sample` distinct random shards, or every shard once `sample`
/// reaches `min(k, 9)`, and claims from the one with the smallest front; a
/// lost claim parks. Width 1 claims from one random shard without peeking. Sampled
/// shards that were all empty, and unmatched parks, fall back to
/// [`delete_min_exact`], so `None` means a full pass saw every shard empty.
pub async fn delete_min<S: Shards>(s: &S, sample: usize) -> Option<S::Item> {
    let k = s.shards();
    let c = width(sample, k);
    if c == 1 {
        // The classic c = 1 multiqueue: one walk per claim, no peek.
        if let Some(item) = s.claim(s.pick()).await {
            return Some(item);
        }
        return delete_min_exact(s).await;
    }
    // The shards to peek: `c` distinct random picks, or every shard.
    let mut picked = [0usize; MAX_SAMPLE];
    if c < k {
        let mut n = 0;
        while n < c {
            let i = s.pick();
            if !picked[..n].contains(&i) {
                picked[n] = i;
                n += 1;
            }
        }
    }
    let mut best: Option<(S::Key, usize)> = None;
    for i in (0..c).map(|j| if c < k { picked[j] } else { j }) {
        if let Some(key) = s.peek(i).await {
            if best.is_none_or(|(bk, _)| key < bk) {
                best = Some((key, i));
            }
        }
    }
    if let Some((front, i)) = best {
        if let Some(item) = s.claim(i).await {
            return Some(item);
        }
        // Lost the claim race: an insert with a key no larger than the
        // front we just saw may hand over directly.
        if let Some(item) = s.park(front).await {
            return Some(item);
        }
    }
    delete_min_exact(s).await
}

/// Exact-scan delete-min: peeks every shard, claims from the globally
/// smallest front (ties to the lower shard index), rescans while fronts
/// race away, and returns `None` only once a full pass found every shard
/// empty. Under exclusive access this is a true minimum.
pub async fn delete_min_exact<S: Shards>(s: &S) -> Option<S::Item> {
    loop {
        let mut fronts = Vec::with_capacity(s.shards());
        for i in 0..s.shards() {
            if let Some(key) = s.peek(i).await {
                fronts.push((key, i));
            }
        }
        if fronts.is_empty() {
            return None;
        }
        fronts.sort_unstable();
        for &(_, i) in &fronts {
            if let Some(item) = s.claim(i).await {
                s.note_fallback();
                return Some(item);
            }
        }
        // Every observed front was claimed by someone else between the
        // peek and our attempt: system-wide progress happened, so rescan.
    }
}

/// Runs a policy future whose hooks never suspend to completion with a
/// single poll.
pub(crate) fn drive<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    match fut.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(v) => v,
        Poll::Pending => unreachable!("shard hooks never suspend"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::collections::VecDeque;

    /// `Vec`-backed shards with scripted randomness, claim failures and
    /// elimination partners, counting every hook call.
    #[derive(Default)]
    struct Fake {
        /// Each shard's keys, smallest first.
        shards: RefCell<Vec<VecDeque<u64>>>,
        /// Results `pick` returns, in order; running out is a test failure.
        picks: RefCell<VecDeque<usize>>,
        /// Per shard: how many upcoming claims lose their race (return
        /// `None` and leave the shard as it was).
        lose: RefCell<Vec<u32>>,
        /// What the next `park` receives from a matching insert.
        partner: Cell<Option<u64>>,
        parked_bounds: RefCell<Vec<u64>>,
        peeks: Cell<usize>,
        claims: Cell<usize>,
        fallbacks: Cell<usize>,
    }

    impl Fake {
        fn new(shards: &[&[u64]]) -> Self {
            Self {
                shards: RefCell::new(shards.iter().map(|s| s.iter().copied().collect()).collect()),
                lose: RefCell::new(vec![0; shards.len()]),
                ..Self::default()
            }
        }

        fn picks(self, picks: &[usize]) -> Self {
            self.picks.replace(picks.iter().copied().collect());
            self
        }

        fn lose(self, shard: usize, times: u32) -> Self {
            self.lose.borrow_mut()[shard] = times;
            self
        }
    }

    impl Shards for Fake {
        type Key = u64;
        type Item = u64;

        fn shards(&self) -> usize {
            self.shards.borrow().len()
        }

        fn pick(&self) -> usize {
            self.picks
                .borrow_mut()
                .pop_front()
                .expect("unscripted pick")
        }

        async fn peek(&self, i: usize) -> Option<u64> {
            self.peeks.set(self.peeks.get() + 1);
            self.shards.borrow()[i].front().copied()
        }

        async fn claim(&self, i: usize) -> Option<u64> {
            self.claims.set(self.claims.get() + 1);
            let mut lose = self.lose.borrow_mut();
            if lose[i] > 0 {
                lose[i] -= 1;
                return None;
            }
            self.shards.borrow_mut()[i].pop_front()
        }

        async fn park(&self, bound: u64) -> Option<u64> {
            self.parked_bounds.borrow_mut().push(bound);
            self.partner.take().filter(|&key| key <= bound)
        }

        fn note_fallback(&self) {
            self.fallbacks.set(self.fallbacks.get() + 1);
        }
    }

    #[test]
    fn lost_claim_is_satisfied_by_a_parked_partner() {
        let s = Fake::new(&[&[5], &[3], &[9]]).lose(1, 1);
        s.partner.set(Some(2));
        assert_eq!(drive(delete_min(&s, 3)), Some(2));
        assert_eq!(*s.parked_bounds.borrow(), [3]);
        assert_eq!(
            (s.peeks.get(), s.claims.get(), s.fallbacks.get()),
            (3, 1, 0)
        );
        assert_eq!(s.shards.borrow()[1], [3], "the lost front stays put");
    }

    #[test]
    fn unmatched_park_falls_to_one_exact_scan() {
        let s = Fake::new(&[&[5], &[3], &[9]]).lose(1, 1);
        assert_eq!(drive(delete_min(&s, 3)), Some(3));
        assert_eq!(*s.parked_bounds.borrow(), [3]);
        assert_eq!(s.fallbacks.get(), 1);
        assert_eq!((s.peeks.get(), s.claims.get()), (3 + 3, 2));
    }

    #[test]
    fn exact_scan_rescans_when_every_front_races_away() {
        let s = Fake::new(&[&[5], &[], &[3]]).lose(0, 1).lose(2, 1);
        assert_eq!(drive(delete_min_exact(&s)), Some(3));
        assert_eq!((s.peeks.get(), s.claims.get()), (2 * 3, 3));
        assert_eq!(s.fallbacks.get(), 1);
    }

    #[test]
    fn all_empty_returns_none_after_one_full_pass() {
        let s = Fake::new(&[&[], &[], &[], &[]]).picks(&[2, 2, 0]);
        assert_eq!(drive(delete_min(&s, 2)), None);
        assert_eq!((s.peeks.get(), s.claims.get()), (2 + 4, 0));
        assert!(s.parked_bounds.borrow().is_empty(), "nothing to park on");
        assert!(s.picks.borrow().is_empty(), "the repeated pick is redrawn");
    }

    #[test]
    fn single_sample_on_an_empty_shard_falls_to_the_exact_scan() {
        let s = Fake::new(&[&[7], &[], &[4]]).picks(&[1]);
        assert_eq!(drive(delete_min(&s, 1)), Some(4));
        assert_eq!((s.peeks.get(), s.claims.get()), (3, 2), "no peek first");
        assert_eq!(s.fallbacks.get(), 1);
        assert!(
            s.parked_bounds.borrow().is_empty(),
            "an empty pick lost no race"
        );
    }

    #[test]
    fn width_reaching_the_shard_count_peeks_every_shard_without_picking() {
        let shards: Vec<[u64; 1]> = (0..16).map(|i| [100 - i]).collect();
        let shards: Vec<&[u64]> = shards.iter().map(|s| &s[..]).collect();
        for (k, sample) in [(3, 3), (3, 7), (16, 9), (16, 12)] {
            let s = Fake::new(&shards[..k]);
            assert_eq!(drive(delete_min(&s, sample)), Some(100 - k as u64 + 1));
            assert_eq!((s.peeks.get(), s.claims.get()), (k, 1));
            assert_eq!(width(sample, k), k);
        }
        assert_eq!(width(8, 16), 8, "widths up to MAX_SAMPLE still sample");
    }
}
