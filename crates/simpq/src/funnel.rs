//! The combining funnel (Shavit & Zemach) on the simulated machine, shared
//! by [`crate::funnellist::SimFunnelList`] and
//! [`crate::funnel_skip::FunnelSkipQueue`].
//!
//! Processors descend through layers of collision slots, `SWAP`ing their
//! request pointers in; whoever collides with a waiting request *captures*
//! it and carries it down; whoever emerges from the bottom is the combiner
//! and executes the whole batch.
//!
//! Protocol state machine per request (same discipline as the native
//! `funnel` crate — a request is capturable only while its owner spins in a
//! collision window, so a capturer always observes a stable chain):
//!
//! ```text
//! LOCKED ─owner─▶ ACTIVE ─owner CAS─▶ LOCKED   (retract, descend)
//!                  ACTIVE ─peer  CAS─▶ CAPTURED ─combiner─▶ DONE
//! ```
//!
//! Request layout: `+0 status`, then the caller's payload words, then
//! `chain, sibling, resKey, resVal, resOk`. Each caller keeps its own
//! payload, so its request size (and with it every simulated address) is
//! its own. Requests are never recycled during a run (the simulated arena
//! is virtual), which sidesteps ABA on stale slot pointers.

use pqsim::{Addr, Proc, Sim, Word, NULL};

const ST_LOCKED: Word = 0;
const ST_ACTIVE: Word = 1;
const ST_CAPTURED: Word = 2;
const ST_DONE: Word = 3;

// Offsets within the tail that follows the payload.
const CHAIN: u32 = 0;
const SIBLING: u32 = 1;
const RES_KEY: u32 = 2;
const RES_VAL: u32 = 3;
const RES_OK: u32 = 4;
const TAIL_WORDS: u32 = 5;

/// Collision-window spin length, in backoff rounds.
const SPIN_ROUNDS: u32 = 6;

/// The funnel's collision layers plus the request layout.
#[derive(Clone)]
pub(crate) struct SimFunnel {
    /// Collision layers: (base address, width).
    layers: Vec<(Addr, u32)>,
    /// Payload words between the status word and the tail.
    payload: u32,
}

impl SimFunnel {
    /// Allocates the layers (out-of-band). `width` is the first layer's
    /// slot count; each deeper layer is half as wide.
    pub(crate) fn create(sim: &Sim, width: u32, depth: u32, payload: u32) -> Self {
        assert!(width >= 1 && depth >= 1);
        let m = sim.machine();
        let mut m = m.borrow_mut();
        let nproc = m.cfg.nproc.max(1);
        let layers = (0..depth)
            .map(|d| {
                let w = (width >> d).max(1);
                let base = m.mem.alloc(w, 0);
                for i in 0..w {
                    m.mem.set_home(base + i, 1, i % nproc);
                }
                (base, w)
            })
            .collect();
        Self { layers, payload }
    }

    /// Allocates a request carrying `payload`. It is private until
    /// published, so its initialisation costs nothing beyond the allocation.
    pub(crate) fn request(&self, p: &Proc, payload: &[Word]) -> Addr {
        debug_assert_eq!(payload.len(), self.payload as usize);
        let req = p.alloc(1 + self.payload + TAIL_WORDS);
        p.with_machine(|m| {
            m.mem.poke(req, ST_LOCKED);
            for (a, &w) in (req + 1..).zip(payload) {
                m.mem.poke(a, w);
            }
        });
        req
    }

    /// Address of payload word `i` of `req`.
    pub(crate) fn payload(req: Addr, i: u32) -> Addr {
        req + 1 + i
    }

    fn tail(&self, req: Addr, word: u32) -> Addr {
        req + 1 + self.payload + word
    }

    /// Descends the layers. Returns the chain of captured requests when
    /// `req` emerges from the bottom as combiner, or `None` once `req` was
    /// captured and its combiner has marked it `DONE`.
    pub(crate) async fn descend(&self, p: &Proc, req: Addr) -> Option<Addr> {
        let mut chain: Addr = NULL;
        for &(base, width) in &self.layers {
            // Publish the chain, open the collision window.
            p.write(self.tail(req, CHAIN), Word::from(chain)).await;
            p.write(req, ST_ACTIVE).await;
            let slot = base + p.gen_range_u64(u64::from(width)) as u32;
            let prev = p.swap(slot, Word::from(req)).await as Addr;

            // Collision window: spin with growing local backoff. The real
            // funnel adapts its size to the concurrency level; we get the
            // same effect cheaply by keeping the window short when the slot
            // was empty (nobody to collide with).
            let rounds = if prev == NULL { 1 } else { SPIN_ROUNDS };
            let mut backoff = 16u64;
            for _ in 0..rounds {
                if p.read(req).await != ST_ACTIVE {
                    break;
                }
                p.work(backoff);
                backoff = (backoff * 2).min(256);
            }
            let retracted = p.cas(req, ST_ACTIVE, ST_LOCKED).await == ST_ACTIVE;

            // Best-effort slot cleanup.
            p.cas(slot, Word::from(req), Word::from(NULL)).await;

            if prev != NULL && prev != req && retracted {
                let got = p.cas(prev, ST_ACTIVE, ST_CAPTURED).await;
                if got == ST_ACTIVE {
                    p.write(self.tail(prev, SIBLING), Word::from(chain)).await;
                    chain = prev;
                }
            }

            if !retracted {
                // Captured: wait for the combiner to deliver our result.
                let mut wait = 64u64;
                while p.read(req).await != ST_DONE {
                    p.work(wait);
                    wait = (wait * 2).min(4096);
                }
                return None;
            }
        }
        Some(chain)
    }

    /// The combiner's batch: `req` first, then every request reachable
    /// from `chain`.
    pub(crate) async fn gather(&self, p: &Proc, req: Addr, chain: Addr) -> Vec<Addr> {
        let mut members = vec![req];
        let mut stack = vec![chain];
        while let Some(mut c) = stack.pop() {
            while c != NULL {
                members.push(c);
                stack.push(p.read(self.tail(c, CHAIN)).await as Addr);
                c = p.read(self.tail(c, SIBLING)).await as Addr;
            }
        }
        members
    }

    /// Writes member `m`'s result (`None` for inserts and empty
    /// delete-mins) and, unless `m` is the combiner's own `req`, releases
    /// its owner.
    pub(crate) async fn deliver(&self, p: &Proc, req: Addr, m: Addr, result: Option<(u64, u64)>) {
        match result {
            Some((k, v)) => {
                p.write(self.tail(m, RES_KEY), k).await;
                p.write(self.tail(m, RES_VAL), v).await;
                p.write(self.tail(m, RES_OK), 1).await;
            }
            None => p.write(self.tail(m, RES_OK), 0).await,
        }
        if m != req {
            p.write(m, ST_DONE).await;
        }
    }

    /// Reads the result a combiner delivered into `req`.
    pub(crate) async fn read_result(&self, p: &Proc, req: Addr) -> Option<(u64, u64)> {
        if p.read(self.tail(req, RES_OK)).await == 1 {
            let k = p.read(self.tail(req, RES_KEY)).await;
            let v = p.read(self.tail(req, RES_VAL)).await;
            Some((k, v))
        } else {
            None
        }
    }
}
