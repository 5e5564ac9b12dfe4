//! The SkipQueue algorithm (Figures 9–11, §3, §5.4, plus the batched
//! physical-deletion departure), written once over [`Platform`] hooks.
//!
//! Control flow, lock protocol, claim filtering and the cleaner's five
//! phases live here; *what the individual steps cost and compile to* lives
//! in the platform implementations (`crates/core` native, `crates/simpq`
//! simulated). The hook sequence each path issues is exactly the charged-op
//! sequence of the original hand-written simulator transcription, so the
//! simulator's figures are bit-identical across the unification.

use crate::platform::{CleanupPhase, Event, InsertResult, PeekPlatform, Platform};

/// Tower-height ceiling shared by both runtimes (the native queue caps
/// construction at 32, the simulator at 30).
pub const MAX_HEIGHT: usize = 32;

/// Immutable shape of one queue instance, in platform-neutral terms. Both
/// runtimes build one of these next to their own state and pass it to every
/// algorithm call.
#[derive(Clone, Copy, Debug)]
pub struct SkipAlgo<N> {
    /// The `-∞` sentinel.
    pub head: N,
    /// The `+∞` sentinel.
    pub tail: N,
    /// Number of levels in the sentinels' towers.
    pub max_height: usize,
    /// Strict (time-stamped, Definition 1) vs relaxed (§5.4) semantics.
    pub strict: bool,
    /// Batched physical deletion active (the PR 3 departure); `false` is
    /// the paper's eager per-delete Pugh unlink.
    pub batched: bool,
}

impl<N: Copy + Eq + core::fmt::Debug> SkipAlgo<N> {
    /// The paper's `getLock` (Figure 9): starting from `node1` (a node with
    /// key < `skey` reached under the caller's GC registration), lock the
    /// level-`lvl` pointer of the node with the largest key smaller than
    /// `skey`, re-validating (and hand-over-hand advancing) after each
    /// acquisition. On return the caller holds the result's level lock.
    async fn get_lock<P: Platform<Node = N>>(
        &self,
        p: &P,
        mut node1: N,
        skey: P::SearchKey,
        lvl: usize,
    ) -> N {
        let mut node2 = p.load_next(node1, lvl).await;
        while p.key_lt(node2, skey).await {
            node1 = node2;
            node2 = p.load_next(node1, lvl).await;
        }
        p.lock_level(node1, lvl).await;
        let mut node2 = p.load_next(node1, lvl).await;
        while p.key_lt(node2, skey).await {
            // Something changed before we got the lock: move it forward.
            p.unlock_level(node1, lvl).await;
            node1 = node2;
            p.lock_level(node1, lvl).await;
            node2 = p.load_next(node1, lvl).await;
        }
        node1
    }

    /// Finds, for every level, the node with the largest key smaller than
    /// `skey` (Figure 10 lines 1–9 / Figure 11 lines 15–22).
    async fn search<P: Platform<Node = N>>(&self, p: &P, skey: P::SearchKey) -> [N; MAX_HEIGHT] {
        let mut preds = [self.head; MAX_HEIGHT];
        let mut node1 = self.head;
        for lvl in (0..self.max_height).rev() {
            let mut node2 = p.load_next(node1, lvl).await;
            while p.key_lt(node2, skey).await {
                node1 = node2;
                node2 = p.load_next(node1, lvl).await;
            }
            preds[lvl] = node1;
        }
        preds
    }

    /// Publishes or clears the scan-start hint and reports it.
    async fn store_hint<P: Platform<Node = N>>(&self, p: &P, hint: Option<N>) {
        p.store_hint(hint).await;
        p.event(hint.map_or(Event::HintClear, Event::HintSet));
    }

    /// Inserts the operand staged in the platform (Figure 10).
    pub async fn insert<P: Platform<Node = N>>(&self, p: &P) -> InsertResult {
        p.enter().await;
        let skey = p.insert_prepare();
        let preds = self.search(p, skey).await;

        // Lines 10–16 (dictionary platforms only): lock the level-0
        // predecessor; if the key exists, update its value in place.
        let mut pred0 = preds[0];
        if P::DICT_INSERT {
            pred0 = self.get_lock(p, preds[0], skey, 0).await;
            let node2 = p.load_next(pred0, 0).await;
            if p.key_eq(node2, skey).await {
                p.update_in_place(node2).await;
                p.unlock_level(pred0, 0).await;
                p.exit().await;
                return InsertResult::Updated;
            }
        }

        // Lines 17–20: make the node, lock it whole so no deleter can start
        // unlinking it while its upper levels are still being connected.
        let (node, height) = p.materialize(skey);
        p.event(Event::Height(height));
        p.lock_node(node).await;

        // Lines 21–27: connect bottom-to-top, each level under the
        // predecessor's re-validated lock (on dictionary platforms level 0
        // is already locked from the check above).
        for (lvl, &level_pred) in preds.iter().enumerate().take(height) {
            let pred = if P::DICT_INSERT && lvl == 0 {
                pred0
            } else {
                self.get_lock(p, level_pred, skey, lvl).await
            };
            let nxt = p.load_next(pred, lvl).await;
            p.store_next_init(node, lvl, nxt).await;
            p.store_next(pred, lvl, node).await;
            p.unlock_level(pred, lvl).await;
        }
        p.unlock_node(node).await;

        if self.batched {
            // Hint maintenance, ordered *before* the time stamp: a scan that
            // starts after this insert completes must not begin past the new
            // node. Bump the epoch (aborts any in-flight hint publication),
            // then repair the hint ourselves if it already points past us.
            p.bump_epoch(node).await;
            if let Some(hint) = p.load_hint().await {
                if hint != node && p.hint_key_gt(hint, node).await {
                    self.store_hint(p, None).await;
                }
            }
        }

        // Line 29: the time stamp is set only after the node is completely
        // inserted.
        p.store_stamp(node).await;
        p.event(Event::Stamp(node));
        p.exit().await;
        InsertResult::Inserted
    }

    /// Removes the minimum entry (Figure 11) into the platform's result
    /// slot; returns `false` for EMPTY.
    pub async fn delete_min<P: Platform<Node = N>>(&self, p: &P) -> bool {
        p.enter().await;
        // Line 1: note the time the search starts; only consider nodes
        // stamped earlier. Relaxed mode (§5.4) considers everything (the
        // stamp filter, where a platform still reads it, then only skips
        // mid-insert nodes and the head).
        let time = if self.strict {
            p.delete_read_clock().await
        } else {
            u64::MAX
        };

        // Lines 2–10: walk the bottom level, SWAP-claiming the first
        // unmarked node stamped before we began. Batched mode starts at the
        // published scan hint (everything physically before it is already
        // claimed) and test-and-test-and-sets the mark so walking over a
        // lingering claimed node costs a read, not a SWAP.
        let mut node1 = if self.batched {
            match p.load_hint().await {
                Some(hint) => hint,
                None => p.load_next(self.head, 0).await,
            }
        } else {
            p.load_next(self.head, 0).await
        };
        let victim = loop {
            if node1 == self.tail {
                if self.batched && p.deferred_pending() {
                    // EMPTY but claimed nodes are still linked: sweep now so
                    // an idle queue does not pin its final batch.
                    self.cleanup(p).await;
                }
                p.exit().await;
                p.event(Event::Empty);
                return false; // EMPTY
            }
            let eligible = if self.strict || P::RELAXED_CLAIM_READS_STAMP {
                p.load_stamp(node1).await < time
            } else {
                true
            };
            if eligible
                && !(self.batched && p.load_deleted(node1).await)
                && !p.swap_deleted(node1).await
            {
                p.event(Event::Claim(node1));
                break node1;
            }
            node1 = p.load_next(node1, 0).await;
        };

        if self.batched || P::EAGER_PAYLOAD_FIRST {
            // Lines 11–13: save the value and key. The winner of the SWAP is
            // the unique owner of the payload.
            p.take_payload(victim).await;
        }

        if self.batched {
            // Deferred physical delete: leave the marked node linked and
            // sweep once enough claims have accumulated.
            if p.deferred_push(victim) {
                self.cleanup(p).await;
            }
            p.exit().await;
            p.event(Event::Deleted);
            return true;
        }

        // Pugh's physical delete. Lines 15–22: re-find the predecessors.
        let skey = p.victim_search_key(victim);
        let preds = self.search(p, skey).await;
        // Lines 24–26 (platforms searching by key): make sure we hold a
        // pointer to the node with the key.
        let mut node2 = preds[0];
        if P::REFIND_VICTIM {
            while !p.key_eq(node2, skey).await {
                node2 = p.load_next(node2, 0).await;
            }
        } else {
            node2 = victim;
        }
        // Line 27: lock the whole node (waits out an in-flight insert).
        p.lock_node(node2).await;
        // Lines 28–35: unlink top-down, two locks per level, pointing the
        // removed node's forward pointer *backwards* at its predecessor so
        // concurrent traversals escape gracefully (§2).
        let height = p.victim_height(node2).await;
        for lvl in (0..height).rev() {
            let pred = self.get_lock(p, preds[lvl], skey, lvl).await;
            // Holding the victim pointer, the exact predecessor must point
            // at it; platforms that re-find the victim by key cannot assert
            // this (and must not pay a charged read for it).
            debug_assert!(
                P::REFIND_VICTIM || p.load_next(pred, lvl).await == node2,
                "pred must point at victim"
            );
            p.lock_level(node2, lvl).await;
            let nxt = p.load_next(node2, lvl).await;
            p.store_next(pred, lvl, nxt).await;
            p.store_next(node2, lvl, pred).await;
            p.unlock_level(node2, lvl).await;
            p.unlock_level(pred, lvl).await;
        }
        // Lines 36–37: release and retire to the stamped garbage list (§3).
        p.unlock_node(node2).await;
        if !P::EAGER_PAYLOAD_FIRST {
            p.take_payload(node2).await;
        }
        p.event(Event::Retire(node2));
        p.retire_one(node2, height).await;
        p.exit().await;
        p.event(Event::Deleted);
        true
    }

    /// Batched physical delete: collect the contiguous marked prefix of the
    /// bottom level, unlink every member with one counting hand-over-hand
    /// sweep per level (top-down, two locks per level — the same protocol
    /// as the eager unlink, amortized across the batch), publish the
    /// scan-start hint, and retire the batch as a group.
    ///
    /// Only one sweeper at a time (cleaner try-lock); callers that lose
    /// simply return — the claim fast path never blocks here.
    async fn cleanup<P: Platform<Node = N>>(&self, p: &P) {
        if !p.try_lock_cleaner().await {
            return;
        }
        // Epoch snapshot for the hint publication below: if any insert
        // completes linking after this point, the publication is aborted or
        // repaired by the insert itself.
        let v1 = p.load_epoch().await;
        p.event(Event::Phase(CleanupPhase::PreCollect));
        // Phase 1: collect the marked prefix. Stop at the first node that is
        // unmarked, still mid-insert (node-lock handshake — possible in
        // relaxed mode, which can claim before stamping), or past the cap.
        // `stop` is the first node NOT in the batch and becomes the
        // published scan hint.
        let mut batch: Vec<N> = Vec::new();
        let mut heights: Vec<usize> = Vec::new();
        let mut cur = p.load_next(self.head, 0).await;
        let stop = loop {
            if cur == self.tail || batch.len() >= p.max_batch() {
                break cur;
            }
            if !p.load_deleted(cur).await {
                break cur;
            }
            if !p.batch_handshake(cur).await {
                break cur; // insert still linking its upper levels
            }
            heights.push(p.note_batch_member(cur).await);
            batch.push(cur);
            cur = p.load_next(cur, 0).await;
        };
        if batch.is_empty() {
            p.unlock_cleaner().await;
            return;
        }
        // Phase 2: per-level membership counts, so each level's sweep knows
        // when it has seen the whole batch and can stop.
        let mut level_counts = [0usize; MAX_HEIGHT];
        for &h in &heights {
            for c in level_counts.iter_mut().take(h) {
                *c += 1;
            }
        }
        // Phase 3: top-down counting sweep. One hand-over-hand pass per
        // level from the head; every batch member met is unlinked under the
        // usual two locks (pred's and its own), with the backward pointer
        // left for concurrent traversals. Members cannot be unlinked by
        // anyone else, so each level pass terminates after
        // `level_counts[lvl]` removals.
        for lvl in (0..self.max_height).rev() {
            let mut remaining = level_counts[lvl];
            if remaining == 0 {
                continue;
            }
            let mut pred = self.head;
            p.lock_level(pred, lvl).await;
            while remaining > 0 {
                let cur = p.load_next(pred, lvl).await;
                debug_assert!(cur != self.tail, "batch member lost at level {lvl}");
                if p.is_batch_member(cur) {
                    p.lock_level(cur, lvl).await;
                    let nxt = p.load_next(cur, lvl).await;
                    p.store_next(pred, lvl, nxt).await;
                    p.store_next(cur, lvl, pred).await;
                    p.unlock_level(cur, lvl).await;
                    remaining -= 1;
                } else {
                    // A node inserted (or claimed after collection) between
                    // batch members: keep it, advance past.
                    p.lock_level(cur, lvl).await;
                    p.unlock_level(pred, lvl).await;
                    pred = cur;
                }
            }
            p.unlock_level(pred, lvl).await;
        }
        p.event(Event::Phase(CleanupPhase::PrePublish));
        // Phase 4: publish the scan hint — but only if no insert completed
        // linking since `v1`; re-check after the store and roll back so a
        // racing insert can never be hidden. Must happen *before* the batch
        // is retired (Phase 5) — that order is what makes dereferencing a
        // loaded hint safe on the native runtime. On either abort path the
        // hint is *cleared*, not merely left alone: the previously published
        // hint may name a node that this sweep collected (the old `stop` can
        // be claimed and re-swept), and leaving it in place across Phase 5
        // would dangle. Inserts only ever clear the hint, so the clear never
        // hides anything — it just costs the next scan a walk from the head.
        if p.load_epoch().await == v1 {
            self.store_hint(p, Some(stop)).await;
            p.event(Event::Phase(CleanupPhase::PostPublish));
            if p.load_epoch().await != v1 {
                self.store_hint(p, None).await;
            }
        } else {
            self.store_hint(p, None).await;
        }
        // Phase 5: hand the whole batch to the collector in one shot.
        p.event(Event::RetireBatch(&batch));
        p.retire_unlinked_batch(batch, &heights).await;
        p.unlock_cleaner().await;
    }

    /// Non-claiming front-key probe: walks the bottom level from the scan
    /// hint (batched) or the head and returns the first unmarked key, or
    /// `None` when no unmarked node is found. Reads only — no SWAP, no
    /// locks — so a sampling front-end can compare shard fronts cheaply.
    /// The snapshot is relaxed: strict-mode stamps are deliberately ignored
    /// (a probe is not a claim, so Definition 1 does not apply).
    pub async fn peek_min_key<P: PeekPlatform<Node = N>>(&self, p: &P) -> Option<P::PeekKey> {
        p.enter().await;
        let mut node1 = if self.batched {
            match p.load_hint().await {
                Some(hint) => hint,
                None => p.load_next(self.head, 0).await,
            }
        } else {
            p.load_next(self.head, 0).await
        };
        let key = loop {
            if node1 == self.tail {
                break None;
            }
            // The backward-pointer trick can land the walk on the head (an
            // unlinked node's forward pointers name its predecessors); step
            // forward again rather than report the sentinel.
            if node1 != self.head && !p.load_deleted(node1).await {
                break p.peek_key(node1).await;
            }
            node1 = p.load_next(node1, 0).await;
        };
        p.exit().await;
        key
    }
}
