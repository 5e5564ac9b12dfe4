//! One SkipQueue algorithm, two runtimes.
//!
//! This crate holds the single, execution-agnostic implementation of the
//! paper's concurrent priority-queue algorithms (Lotan & Shavit, *Skiplist-
//! Based Concurrent Priority Queues*, IPDPS 2000):
//!
//! * Pugh insert with hand-over-hand `getLock` re-validation (Figures 9–10),
//! * claim-based `delete_min` with time-stamp filtering (Figure 11,
//!   Definition 1) and the relaxed variant (§5.4),
//! * the batched physical-deletion cleaner (this repo's PR 3 departure:
//!   five phases, epoch-validated scan-start hint, abort paths),
//! * quiescence GC entry/exit and group retirement hooks (§3).
//!
//! The algorithm is parameterized over a [`Platform`] supplying memory
//! operations, locks, the clock, RNG, GC registration and instrumentation.
//! `crates/core` instantiates it with a zero-cost native platform (std
//! atomics + `parking_lot`, driven by a single poll); `crates/simpq`
//! instantiates it with the simulated 256-processor machine, where every
//! hook is a charged, globally visible operation and every `.await` a
//! deterministic scheduling point.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod algo;
mod platform;

pub use algo::{SkipAlgo, MAX_HEIGHT};
pub use platform::{CleanupPhase, Event, InsertResult, PeekPlatform, Platform, TraceEvent};
