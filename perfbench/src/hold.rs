//! `des-hold`: the classic hold model of discrete-event simulation on the
//! strict eager `SkipQueue`.
//!
//! The queue is prefilled with events at i.i.d. exponential times. Each
//! worker then loops `delete_min` -> `insert(t + Exp)`, so the queue size
//! stays constant. Every event carries a unique id; afterwards a quiescent
//! drain plus the workers' ledgers must account for every id exactly once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use nbench::hist::LatencyHist;
use skipqueue::SkipQueue;

use crate::report::{Outcome, Value};
use crate::trace::{reduce, Name, SpanBuf, ROOT, SPAN_CAP};
use crate::util::{median, ratio, secs, MemProbe, Rng, THREADS};

/// Event times are kept in ticks of 1/1024 time unit.
const TICKS: f64 = 1024.0;
/// Mean event-time increment, in time units.
const MEAN: f64 = 1000.0;
/// Increments pregenerated per worker (cycled).
const INCS: usize = 1 << 16;
/// Worker 0 samples the queue's GC backlog every this many traced holds.
const GC_SAMPLE: u64 = 1024;

/// The calls the hold model makes, so checks can run on wrapped queues.
pub trait HoldQueue: Sync {
    fn insert(&self, key: u64, id: u64);
    fn delete_min(&self) -> Option<(u64, u64)>;
    fn garbage_pending(&self) -> usize {
        0
    }
    fn collect_garbage(&self) -> usize {
        0
    }
}

impl HoldQueue for SkipQueue<u64, u64> {
    fn insert(&self, key: u64, id: u64) {
        SkipQueue::insert(self, key, id);
    }
    fn delete_min(&self) -> Option<(u64, u64)> {
        SkipQueue::delete_min(self)
    }
    fn garbage_pending(&self) -> usize {
        SkipQueue::garbage_pending(self)
    }
    fn collect_garbage(&self) -> usize {
        SkipQueue::collect_garbage(self)
    }
}

#[derive(Clone, Debug)]
pub struct HoldConfig {
    /// Events in the queue (constant during the run).
    pub prefill: usize,
    /// Unmeasured holds per worker before timing starts.
    pub warmup: u64,
    /// Constructions + prefills timed for `setup_s` (the last one runs).
    pub setup_reps: usize,
    /// Length of the measured phase (and of the traced phase, at most).
    pub seconds: f64,
    /// Holds per worker in one timed block (`solve_s`).
    pub block: u64,
    /// Holds per worker the id ledger has room for; a worker that reaches
    /// it ends the phase early.
    pub max_holds: u64,
}

impl HoldConfig {
    pub fn standard(seconds: f64) -> Self {
        HoldConfig {
            prefill: 1 << 18,
            warmup: 1 << 17,
            setup_reps: 3,
            seconds,
            block: 1 << 16,
            max_holds: 1 << 24,
        }
    }
}

/// Ids one party removed: a bitmap over the whole id space.
struct Ledger {
    bits: Vec<u64>,
    /// Removals of an id this party already removed, or of an id outside
    /// the id space.
    bad: u64,
}

impl Ledger {
    fn new(ids: u64) -> Self {
        let mut bits = vec![0u64; ids.div_ceil(64) as usize];
        // Fault the pages in now, so they count in the memory baseline.
        for i in (0..bits.len()).step_by(512) {
            // SAFETY: `i` is in bounds.
            unsafe { std::ptr::write_volatile(&mut bits[i], 0) };
        }
        Ledger { bits, bad: 0 }
    }

    #[inline]
    fn mark(&mut self, id: u64) {
        match self.bits.get_mut((id / 64) as usize) {
            Some(w) if *w & (1 << (id % 64)) == 0 => *w |= 1 << (id % 64),
            _ => self.bad += 1,
        }
    }

    fn has(&self, id: u64) -> bool {
        self.bits[(id / 64) as usize] & (1 << (id % 64)) != 0
    }
}

/// Per-worker state: the id stream it issues and everything it measured.
struct Worker {
    t: usize,
    incs: Vec<u64>,
    /// Ids issued so far; the k-th is `prefill + THREADS * k + t`.
    issued: u64,
    ledger: Ledger,
    empties: u64,
    holds: u64,
    del: LatencyHist,
    ins: LatencyHist,
    blocks: Vec<f64>,
    traced_holds: u64,
    spans: Option<SpanBuf>,
    pending_max: usize,
}

impl Worker {
    #[inline]
    fn next(&mut self, prefill: usize, key: u64) -> (u64, u64) {
        let inc = self.incs[self.issued as usize % INCS];
        let id = prefill as u64 + THREADS as u64 * self.issued + self.t as u64;
        self.issued += 1;
        (key + inc, id)
    }

    fn untimed<Q: HoldQueue>(&mut self, q: &Q, cfg: &HoldConfig, n: u64) {
        for _ in 0..n {
            match q.delete_min() {
                Some((k, id)) => {
                    self.ledger.mark(id);
                    let (k, id) = self.next(cfg.prefill, k);
                    q.insert(k, id);
                }
                None => self.empties += 1,
            }
        }
    }

    fn measured<Q: HoldQueue>(&mut self, q: &Q, cfg: &HoldConfig, stop: &AtomicBool) {
        let mut block_start = Instant::now();
        let mut in_block = 0;
        while !stop.load(Ordering::Relaxed) && self.issued < cfg.max_holds {
            let t0 = Instant::now();
            let got = q.delete_min();
            let t1 = Instant::now();
            let Some((k, id)) = got else {
                self.empties += 1;
                continue;
            };
            self.ledger.mark(id);
            let (k, id) = self.next(cfg.prefill, k);
            q.insert(k, id);
            let t2 = Instant::now();
            self.del.record((t1 - t0).as_nanos() as u64);
            self.ins.record((t2 - t1).as_nanos() as u64);
            self.holds += 1;
            in_block += 1;
            if in_block == cfg.block {
                self.blocks.push((t2 - block_start).as_secs_f64());
                block_start = t2;
                in_block = 0;
            }
        }
        stop.store(true, Ordering::Relaxed);
    }

    fn traced<Q: HoldQueue>(&mut self, q: &Q, cfg: &HoldConfig, stop: &AtomicBool, epoch: Instant) {
        let mut buf = SpanBuf::new(epoch, SPAN_CAP);
        while !stop.load(Ordering::Relaxed)
            && self.issued < cfg.max_holds
            && buf.spans().len() + 2 <= SPAN_CAP
        {
            let op = (self.t as u64) << 40 | self.traced_holds;
            let t0 = buf.now();
            let got = q.delete_min();
            let t1 = buf.now();
            let del = buf.push(Name::QueueDeleteMin, ROOT, op, t0, t1, got.is_none());
            let Some((k, id)) = got else {
                self.empties += 1;
                continue;
            };
            self.ledger.mark(id);
            let (k, id) = self.next(cfg.prefill, k);
            q.insert(k, id);
            buf.push(Name::QueueInsert, del, op, t1, buf.now(), false);
            self.traced_holds += 1;
            if self.t == 0 && self.traced_holds.is_multiple_of(GC_SAMPLE) {
                self.pending_max = self.pending_max.max(q.garbage_pending());
            }
        }
        stop.store(true, Ordering::Relaxed);
        self.spans = Some(buf);
    }
}

/// The traced phase of a run.
pub struct Traced {
    pub window_s: f64,
    pub holds: u64,
    pub bufs: Vec<SpanBuf>,
    pub pending_max: usize,
    pub collect_s: f64,
}

/// Everything one run measured.
pub struct HoldRun {
    pub setup_s: Vec<f64>,
    pub window_s: f64,
    pub holds: u64,
    pub empties: u64,
    pub del: LatencyHist,
    pub ins: LatencyHist,
    pub blocks: Vec<f64>,
    pub mem_mb: f64,
    pub check: Result<(), String>,
    pub traced: Option<Traced>,
}

impl HoldRun {
    pub fn holds_per_s(&self) -> f64 {
        self.holds as f64 / self.window_s
    }

    pub fn block_s(&self) -> f64 {
        median(&mut self.blocks.clone())
    }
}

/// Runs the hold model on queues built by `make`.
pub fn run<Q: HoldQueue>(
    make: impl Fn() -> Q,
    cfg: &HoldConfig,
    seed: u64,
    trace: bool,
) -> HoldRun {
    let mut rng = Rng::new(seed, 0);
    let prefill: Vec<u64> = (0..cfg.prefill)
        .map(|_| rng.exp_ticks(MEAN * TICKS))
        .collect();
    let ids = cfg.prefill as u64 + THREADS as u64 * cfg.max_holds;
    let mut workers: Vec<Worker> = (0..THREADS)
        .map(|t| {
            let mut r = Rng::new(seed, 1 + t as u64);
            Worker {
                t,
                incs: (0..INCS).map(|_| r.exp_ticks(MEAN * TICKS)).collect(),
                issued: 0,
                ledger: Ledger::new(ids),
                empties: 0,
                holds: 0,
                del: LatencyHist::new(),
                ins: LatencyHist::new(),
                blocks: Vec::new(),
                traced_holds: 0,
                spans: None,
                pending_max: 0,
            }
        })
        .collect();
    let mut drain_ledger = Ledger::new(ids);
    let mut mem = MemProbe::start();

    let mut setup_s = Vec::new();
    let mut queue = None;
    for _ in 0..cfg.setup_reps.max(1) {
        drop(queue.take());
        let t = Instant::now();
        let q = make();
        for (id, &k) in prefill.iter().enumerate() {
            q.insert(k, id as u64);
        }
        setup_s.push(secs(t));
        queue = Some(q);
    }
    let q = queue.expect("at least one setup");

    let stop = AtomicBool::new(false);
    let stop_traced = AtomicBool::new(false);
    let barrier = Barrier::new(THREADS + 1);
    let mut window_s = 0.0;
    let mut mem_mb = 0.0;
    let mut traced_window = 0.0;
    std::thread::scope(|s| {
        for w in workers.iter_mut() {
            let (q, stop, stop_traced, barrier) = (&q, &stop, &stop_traced, &barrier);
            s.spawn(move || {
                w.untimed(q, cfg, cfg.warmup);
                barrier.wait();
                w.measured(q, cfg, stop);
                barrier.wait();
                if trace {
                    let epoch = Instant::now();
                    w.traced(q, cfg, stop_traced, epoch);
                    barrier.wait();
                }
            });
        }
        barrier.wait();
        window_s = run_phase(cfg.seconds, &stop, &mut mem);
        barrier.wait();
        mem_mb = mem.growth_mb();
        if trace {
            traced_window = run_phase(cfg.seconds, &stop_traced, &mut mem);
            barrier.wait();
        }
    });

    let t = Instant::now();
    q.collect_garbage();
    let collect_s = secs(t);
    let mut drained = Vec::with_capacity(cfg.prefill);
    while let Some(kv) = q.delete_min() {
        drained.push(kv);
    }
    drop(q);
    for &(_, id) in &drained {
        drain_ledger.mark(id);
    }
    let check = check(cfg.prefill, &workers, &drain_ledger, &drained);

    let mut del = LatencyHist::new();
    let mut ins = LatencyHist::new();
    let mut blocks = Vec::new();
    for w in &workers {
        del.merge(&w.del);
        ins.merge(&w.ins);
        blocks.extend_from_slice(&w.blocks);
    }
    let traced = trace.then(|| Traced {
        window_s: traced_window,
        holds: workers.iter().map(|w| w.traced_holds).sum(),
        pending_max: workers[0].pending_max,
        collect_s,
        bufs: workers.iter_mut().filter_map(|w| w.spans.take()).collect(),
    });
    HoldRun {
        setup_s,
        window_s,
        holds: workers.iter().map(|w| w.holds).sum(),
        empties: workers.iter().map(|w| w.empties).sum(),
        del,
        ins,
        blocks,
        mem_mb,
        check,
        traced,
    }
}

/// Lets the workers run for `seconds`, or until one of them raises
/// `stop`, sampling resident memory meanwhile; returns the phase length.
fn run_phase(seconds: f64, stop: &AtomicBool, mem: &mut MemProbe) -> f64 {
    let t = Instant::now();
    while secs(t) < seconds && !stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(10));
        mem.sample();
    }
    stop.store(true, Ordering::Relaxed);
    secs(t)
}

/// Every prefilled and issued id was removed exactly once, by a worker or
/// by the drain; no other id came out; the drain came out sorted; and no
/// worker saw an empty queue.
fn check(
    prefill: usize,
    workers: &[Worker],
    drain: &Ledger,
    drained: &[(u64, u64)],
) -> Result<(), String> {
    let empties: u64 = workers.iter().map(|w| w.empties).sum();
    if empties > 0 {
        return Err(format!(
            "{empties} delete_min calls returned None on a non-empty queue"
        ));
    }
    if let Some(i) = drained.windows(2).position(|p| p[0].0 > p[1].0) {
        return Err(format!("drain out of order at position {i}"));
    }
    let bad: u64 = drain.bad + workers.iter().map(|w| w.ledger.bad).sum::<u64>();
    if bad > 0 {
        return Err(format!(
            "{bad} removals of an id already removed or never issued"
        ));
    }
    let issued = |id: u64| {
        id < prefill as u64 || {
            let k = (id - prefill as u64) / THREADS as u64;
            k < workers[((id - prefill as u64) % THREADS as u64) as usize].issued
        }
    };
    let (mut missing, mut twice, mut phantom) = (0u64, 0u64, 0u64);
    for id in 0..drain.bits.len() as u64 * 64 {
        let n = usize::from(drain.has(id)) + workers.iter().filter(|w| w.ledger.has(id)).count();
        match (issued(id), n) {
            (true, 0) => missing += 1,
            (true, 1) | (false, 0) => {}
            (true, _) => twice += 1,
            (false, _) => phantom += 1,
        }
    }
    if missing + twice + phantom > 0 {
        return Err(format!(
            "ids: {missing} never removed, {twice} removed twice, {phantom} never issued"
        ));
    }
    Ok(())
}

/// The `des-hold` workload: the run, its check and its metrics.
pub fn workload(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let cfg = HoldConfig::standard(seconds);
    let mut r = run(SkipQueue::<u64, u64>::new, &cfg, seed, trace);
    let mut o = Outcome::default();
    let ops = 2 * r.holds;
    o.attempted = ops + r.empties;
    o.failed = r.empties;
    if let Err(e) = &r.check {
        o.problems.push(e.clone());
    }
    let ops_per_s = ops as f64 / r.window_s;
    o.e2e = vec![
        ("ops_per_s", ops_per_s),
        ("solve_s", r.block_s()),
        ("setup_s", median(&mut r.setup_s)),
        ("mem_peak_mb", r.mem_mb),
    ];
    o.figures = vec![
        ("holds_per_s", r.holds_per_s(), "1/s"),
        ("delete_min_p50_ns", r.del.percentile(50.0) as f64, "ns"),
        ("delete_min_p90_ns", r.del.percentile(90.0) as f64, "ns"),
        ("insert_p50_ns", r.ins.percentile(50.0) as f64, "ns"),
        ("insert_p90_ns", r.ins.percentile(90.0) as f64, "ns"),
        ("latency_samples", r.del.count() as f64, "count"),
        (
            "failed_frac",
            ratio(o.failed_ops() as f64, o.attempted as f64),
            "fraction",
        ),
    ];
    o.units = std::mem::take(&mut r.blocks);
    o.config = vec![
        ("prefill", cfg.prefill as f64),
        ("warmup_holds_per_thread", cfg.warmup as f64),
        ("block_holds_per_thread", cfg.block as f64),
        ("setup_reps", cfg.setup_reps as f64),
        ("seconds", seconds),
    ];
    if let Some(t) = r.traced {
        let traced_ops = 2 * t.holds;
        o.attempted += traced_ops;
        let mut layers = queue_layer(&t.bufs);
        layers.extend([
            ("core.gc.pending_max", t.pending_max as f64),
            ("core.gc.collect_s", t.collect_s),
            (
                "trace.overhead_frac",
                ops_per_s * t.window_s / traced_ops as f64 - 1.0,
            ),
        ]);
        o.layers = layers;
        o.spans = t.bufs;
    }
    o
}

/// The `core.queue.*` metrics of a traced phase.
fn queue_layer(bufs: &[SpanBuf]) -> Vec<Value> {
    let mut v = Vec::new();
    for (name, tails) in [
        (
            Name::QueueInsert,
            [
                "core.queue.insert.calls",
                "core.queue.insert.busy_s",
                "core.queue.insert.p50_ns",
                "core.queue.insert.p90_ns",
                "core.queue.insert.p99_ns",
                "core.queue.insert.p99_n",
                "core.queue.insert.p999_ns",
                "core.queue.insert.p999_n",
            ],
        ),
        (
            Name::QueueDeleteMin,
            [
                "core.queue.delete_min.calls",
                "core.queue.delete_min.busy_s",
                "core.queue.delete_min.p50_ns",
                "core.queue.delete_min.p90_ns",
                "core.queue.delete_min.p99_ns",
                "core.queue.delete_min.p99_n",
                "core.queue.delete_min.p999_ns",
                "core.queue.delete_min.p999_n",
            ],
        ),
    ] {
        let a = reduce(bufs, name);
        let (p99, n99) = a.tail(99.0);
        let (p999, n999) = a.tail(99.9);
        v.extend(tails.into_iter().zip([
            a.calls as f64,
            a.busy_s(),
            a.hist.percentile(50.0) as f64,
            a.hist.percentile(90.0) as f64,
            p99,
            n99,
            p999,
            n999,
        ]));
        if name == Name::QueueDeleteMin {
            v.push(("core.queue.delete_min.empty", a.empty as f64));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn small() -> HoldConfig {
        HoldConfig {
            prefill: 512,
            warmup: 256,
            setup_reps: 2,
            seconds: 0.05,
            block: 64,
            max_holds: 1 << 14,
        }
    }

    /// Wraps a queue and misbehaves on the `at`-th insert.
    struct Faulty {
        q: SkipQueue<u64, u64>,
        inserts: AtomicU64,
        at: u64,
        dup: bool,
    }

    impl HoldQueue for Faulty {
        fn insert(&self, key: u64, id: u64) {
            let n = self.inserts.fetch_add(1, Ordering::Relaxed);
            if n == self.at && !self.dup {
                return;
            }
            if n == self.at {
                self.q.insert(key, id);
            }
            self.q.insert(key, id);
        }
        fn delete_min(&self) -> Option<(u64, u64)> {
            self.q.delete_min()
        }
    }

    fn faulty(dup: bool, at: u64) -> impl Fn() -> Faulty {
        move || Faulty {
            q: SkipQueue::new(),
            inserts: AtomicU64::new(0),
            at,
            dup,
        }
    }

    #[test]
    fn clean_run_passes_the_check() {
        let r = run(SkipQueue::<u64, u64>::new, &small(), 3, true);
        assert_eq!(r.check, Ok(()));
        assert!(r.holds > 0 && r.traced.unwrap().holds > 0);
        assert_eq!(r.setup_s.len(), 2);
    }

    #[test]
    fn dropped_item_fails_the_check() {
        // The 512 prefill inserts come first; drop one made during the run.
        let r = run(faulty(false, 512 + 100), &small(), 3, false);
        let err = r.check.unwrap_err();
        assert!(err.contains("1 never removed"), "{err}");
    }

    #[test]
    fn dropped_prefill_item_fails_the_check() {
        let r = run(faulty(false, 7), &small(), 3, false);
        assert!(r.check.unwrap_err().contains("1 never removed"));
    }

    #[test]
    fn duplicated_item_fails_the_check() {
        let r = run(faulty(true, 512 + 100), &small(), 3, false);
        let err = r.check.unwrap_err();
        assert!(
            err.contains("already removed") || err.contains("1 removed twice"),
            "{err}"
        );
    }

    #[test]
    fn spurious_empty_fails_the_check() {
        struct Flaky(SkipQueue<u64, u64>, AtomicBool);
        impl HoldQueue for Flaky {
            fn insert(&self, key: u64, id: u64) {
                self.0.insert(key, id);
            }
            fn delete_min(&self) -> Option<(u64, u64)> {
                if !self.1.swap(true, Ordering::Relaxed) {
                    return None;
                }
                self.0.delete_min()
            }
        }
        let r = run(
            || Flaky(SkipQueue::new(), AtomicBool::new(false)),
            &small(),
            3,
            false,
        );
        assert!(r.check.unwrap_err().contains("returned None"));
    }
}
