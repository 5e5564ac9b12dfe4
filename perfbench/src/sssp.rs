//! `sssp-sharded`: label-correcting parallel Dijkstra with the frontier in
//! a sharded multi-queue.
//!
//! Workers pop the closest known vertex, relax its out-edges with
//! `fetch_min` on a shared distance array and push every improved vertex.
//! Pops whose distance was already improved are stale: wasted work that
//! the queue's relaxation (rank error) causes. Every solve's distances are
//! checked against sequential Dijkstra computed before timing starts.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use shardq::ShardedSkipQueue;

use crate::report::Outcome;
use crate::trace::{reduce, Name, SpanBuf, ROOT, SPAN_CAP};
use crate::util::{median, ratio, secs, MemProbe, Rng, THREADS};

/// Shards in the frontier (`ShardedSkipQueue::new(SHARDS)`).
pub const SHARDS: usize = 4;
/// Worker 0 samples shard lengths and GC backlog every this many pops.
const SAMPLE_EVERY: u64 = 1024;

/// A random digraph in CSR form: vertex `v`'s out-edges are
/// `adj[v * stride..(v + 1) * stride]`, the first of them to `v + 1` so
/// that every vertex is reachable from vertex 0.
pub struct Graph {
    stride: usize,
    adj: Vec<(u32, u32)>,
}

impl Graph {
    pub fn random(n: usize, degree: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 100);
        let stride = degree + 1;
        let mut adj = Vec::with_capacity(n * stride);
        for v in 0..n {
            adj.push((((v + 1) % n) as u32, 1 + rng.below(1000) as u32));
            for _ in 0..degree {
                adj.push((rng.below(n as u64) as u32, 1 + rng.below(1000) as u32));
            }
        }
        Graph { stride, adj }
    }

    pub fn n(&self) -> usize {
        self.adj.len() / self.stride
    }

    fn out(&self, v: u32) -> &[(u32, u32)] {
        let v = v as usize;
        &self.adj[v * self.stride..(v + 1) * self.stride]
    }
}

pub fn sequential_dijkstra(g: &Graph) -> Vec<u64> {
    let mut dist = vec![u64::MAX; g.n()];
    let mut heap = BinaryHeap::new();
    dist[0] = 0;
    heap.push(Reverse((0u64, 0u32)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for &(to, w) in g.out(v) {
            let nd = d + u64::from(w);
            if nd < dist[to as usize] {
                dist[to as usize] = nd;
                heap.push(Reverse((nd, to)));
            }
        }
    }
    dist
}

/// Every distance equals the reference.
pub fn check_distances(got: &[u64], reference: &[u64]) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!(
            "{} distances for {} vertices",
            got.len(),
            reference.len()
        ));
    }
    let wrong: Vec<usize> = (0..got.len()).filter(|&v| got[v] != reference[v]).collect();
    match wrong.first() {
        None => Ok(()),
        Some(&v) => Err(format!(
            "{} wrong distances, first at vertex {v}: {} instead of {}",
            wrong.len(),
            got[v],
            reference[v]
        )),
    }
}

/// A solver's state before the first insert: the frontier queue, the
/// tentative distances and the number of workers relaxing a vertex.
struct Frontier {
    queue: ShardedSkipQueue<u64, u32>,
    dist: Vec<AtomicU64>,
    active: AtomicI64,
}

impl Frontier {
    fn new(n: usize) -> Self {
        Frontier {
            queue: ShardedSkipQueue::new(SHARDS),
            dist: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
            active: AtomicI64::new(0),
        }
    }
}

/// What one solve did.
#[derive(Default, Debug)]
pub struct Solve {
    pub solve_s: f64,
    pub pops: u64,
    pub stale: u64,
    pub pushes: u64,
    pub empties: u64,
    /// Items still in the frontier after every worker exited.
    pub left: usize,
    pub elim_hits: u64,
    pub fallbacks: u64,
    /// Sampled `max / mean` of the shard lengths (non-empty samples only).
    pub imbalance: Vec<f64>,
    pub pending_max: usize,
    pub collect_s: f64,
}

#[derive(Default)]
struct Counts {
    pops: u64,
    stale: u64,
    pushes: u64,
    empties: u64,
    imbalance: Vec<f64>,
    pending_max: usize,
}

/// Solves from vertex 0 with `THREADS` workers. With `spans`, each worker
/// records its calls into the frontier in its own buffer.
pub fn solve(g: &Graph, spans: Option<&mut [SpanBuf]>, solve_id: u64) -> (Vec<u64>, Solve) {
    let f = Frontier::new(g.n());
    let t = Instant::now();
    f.dist[0].store(0, Ordering::Relaxed);
    f.queue.insert(0, 0);
    let mut counts: Vec<Counts> = (0..THREADS).map(|_| Counts::default()).collect();
    std::thread::scope(|s| {
        let mut bufs = spans.map(|b| b.iter_mut());
        for (w, c) in counts.iter_mut().enumerate() {
            let buf = bufs.as_mut().and_then(|b| b.next());
            let f = &f;
            s.spawn(move || match buf {
                None => worker(g, f, c),
                Some(buf) => traced_worker(g, f, c, buf, w, solve_id),
            });
        }
    });
    let solve_s = secs(t);
    let t = Instant::now();
    f.queue.collect_garbage();
    let collect_s = secs(t);

    let mut out = Solve {
        solve_s,
        left: f.queue.len(),
        elim_hits: f.queue.elimination_hits(),
        fallbacks: f.queue.fallback_claims(),
        collect_s,
        ..Solve::default()
    };
    for c in counts {
        out.pops += c.pops;
        out.stale += c.stale;
        out.pushes += c.pushes;
        out.empties += c.empties;
        out.imbalance.extend(c.imbalance);
        out.pending_max = out.pending_max.max(c.pending_max);
    }
    let dist = f.dist.into_iter().map(AtomicU64::into_inner).collect();
    (dist, out)
}

fn worker(g: &Graph, f: &Frontier, c: &mut Counts) {
    let Frontier {
        queue: q,
        dist,
        active,
    } = f;
    loop {
        let Some((d, v)) = q.delete_min() else {
            c.empties += 1;
            if active.load(Ordering::Acquire) == 0 {
                break;
            }
            std::thread::yield_now();
            continue;
        };
        active.fetch_add(1, Ordering::AcqRel);
        c.pops += 1;
        if d <= dist[v as usize].load(Ordering::Acquire) {
            for &(to, w) in g.out(v) {
                let nd = d + u64::from(w);
                if nd < dist[to as usize].fetch_min(nd, Ordering::AcqRel) {
                    q.insert(nd, to);
                    c.pushes += 1;
                }
            }
        } else {
            c.stale += 1;
        }
        active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// [`worker`] with a span around every frontier call and around every
/// stretch of empty retries.
fn traced_worker(
    g: &Graph,
    f: &Frontier,
    c: &mut Counts,
    buf: &mut SpanBuf,
    w: usize,
    solve_id: u64,
) {
    let Frontier {
        queue: q,
        dist,
        active,
    } = f;
    let mut idle_since = None;
    loop {
        let op = (solve_id << 48) | (w as u64) << 40 | c.pops;
        let t0 = buf.now();
        let got = q.delete_min();
        let t1 = buf.now();
        let pop = buf.push(Name::ShardDeleteMin, ROOT, op, t0, t1, got.is_none());
        let Some((d, v)) = got else {
            c.empties += 1;
            idle_since.get_or_insert(t0);
            if active.load(Ordering::Acquire) == 0 {
                break;
            }
            std::thread::yield_now();
            continue;
        };
        if let Some(s) = idle_since.take() {
            buf.push(Name::SsspIdle, ROOT, op, s, t0, false);
        }
        active.fetch_add(1, Ordering::AcqRel);
        c.pops += 1;
        if d <= dist[v as usize].load(Ordering::Acquire) {
            for &(to, wt) in g.out(v) {
                let nd = d + u64::from(wt);
                if nd < dist[to as usize].fetch_min(nd, Ordering::AcqRel) {
                    let t0 = buf.now();
                    q.insert(nd, to);
                    buf.push(Name::ShardInsert, pop, op, t0, buf.now(), false);
                    c.pushes += 1;
                }
            }
        } else {
            c.stale += 1;
        }
        active.fetch_sub(1, Ordering::AcqRel);
        if w == 0 && c.pops.is_multiple_of(SAMPLE_EVERY) {
            let lens = q.shard_lens();
            let total: usize = lens.iter().sum();
            if total > 0 {
                let max = *lens.iter().max().unwrap_or(&0) as f64;
                c.imbalance.push(max * lens.len() as f64 / total as f64);
            }
            c.pending_max = c.pending_max.max(q.garbage_pending());
        }
    }
    if let Some(s) = idle_since {
        buf.push(Name::SsspIdle, ROOT, 0, s, buf.now(), false);
    }
}

/// Solver set-ups timed for `setup_s`.
const SETUP_REPS: usize = 200;
/// Vertices of the generated graph.
pub const VERTICES: usize = 1 << 18;
/// Random out-edges per vertex (plus the one to `v + 1`).
pub const DEGREE: usize = 6;

/// The `sssp-sharded` workload: repeated solves of one seeded graph.
pub fn workload(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let g = Graph::random(VERTICES, DEGREE, seed);
    let reference = sequential_dijkstra(&g);
    let mut o = Outcome::default();
    let check = |o: &mut Outcome, dist: &[u64], s: &Solve| {
        o.attempted += s.pops + s.pushes + s.empties;
        if let Err(e) = check_distances(dist, &reference) {
            o.problems.push(e);
        }
        if s.left > 0 {
            o.problems.push(format!(
                "workers exited with {} items in the frontier",
                s.left
            ));
        }
    };

    let mut mem = MemProbe::start();
    let mut setup_s: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            drop(black_box(Frontier::new(g.n())));
            secs(t)
        })
        .collect();
    // Later solves reuse the memory the first one freed, so the first
    // solve's growth is the one that shows what a solve needs.
    let mut mem_mb = 0.0;
    let t = Instant::now();
    let mut solves = Vec::new();
    while solves.is_empty() || secs(t) < seconds {
        let (dist, s) = solve(&g, None, solves.len() as u64);
        check(&mut o, &dist, &s);
        if solves.is_empty() {
            mem_mb = mem.growth_mb();
        }
        solves.push(s);
    }
    let sum = |f: fn(&Solve) -> f64, v: &[Solve]| v.iter().map(f).sum::<f64>();
    let solve_s = median(&mut solves.iter().map(|s| s.solve_s).collect::<Vec<_>>());
    let ops = sum(|s| (s.pops + s.pushes) as f64, &solves);
    o.e2e = vec![
        ("ops_per_s", ops / sum(|s| s.solve_s, &solves)),
        ("solve_s", solve_s),
        ("setup_s", median(&mut setup_s)),
        ("mem_peak_mb", mem_mb),
    ];
    let pops = sum(|s| s.pops as f64, &solves);
    o.figures = vec![
        ("solves", solves.len() as f64, "count"),
        ("pops_per_solve", pops / solves.len() as f64, "count"),
        (
            "stale_pop_frac",
            ratio(sum(|s| s.stale as f64, &solves), pops),
            "fraction",
        ),
        (
            "failed_frac",
            ratio(o.failed_ops() as f64, o.attempted as f64),
            "fraction",
        ),
    ];
    o.units = solves.iter().map(|s| s.solve_s).collect();
    o.config = vec![
        ("vertices", VERTICES as f64),
        ("degree", DEGREE as f64),
        ("shards", SHARDS as f64),
        ("seconds", seconds),
    ];
    if !trace {
        return o;
    }

    let epoch = Instant::now();
    let mut bufs: Vec<SpanBuf> = (0..THREADS)
        .map(|_| SpanBuf::new(epoch, SPAN_CAP))
        .collect();
    let t = Instant::now();
    let mut traced = Vec::new();
    let mut per_solve = 0;
    while traced.is_empty() || (secs(t) < seconds && room(&bufs) >= per_solve) {
        let before = SPAN_CAP - room(&bufs);
        let (dist, s) = solve(&g, Some(&mut bufs), (solves.len() + traced.len()) as u64);
        check(&mut o, &dist, &s);
        per_solve = per_solve.max(SPAN_CAP - room(&bufs) - before);
        traced.push(s);
    }
    let n = traced.len() as f64;
    let ins = reduce(&bufs, Name::ShardInsert);
    let del = reduce(&bufs, Name::ShardDeleteMin);
    let idle = reduce(&bufs, Name::SsspIdle);
    let tpops = sum(|s| s.pops as f64, &traced);
    let mut imbalance: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.imbalance.iter().copied())
        .collect();
    o.layers = vec![
        ("shardq.insert.calls", ins.calls as f64 / n),
        ("shardq.insert.busy_s", ins.busy_s() / n),
        ("shardq.delete_min.calls", del.calls as f64 / n),
        ("shardq.delete_min.busy_s", del.busy_s() / n),
        (
            "shardq.delete_min.empty_frac",
            ratio(del.empty as f64, del.calls as f64),
        ),
        (
            "shardq.elimination_hit_frac",
            ratio(sum(|s| s.elim_hits as f64, &traced), del.calls as f64),
        ),
        (
            "shardq.fallback_frac",
            ratio(sum(|s| s.fallbacks as f64, &traced), del.calls as f64),
        ),
        ("shardq.imbalance", median(&mut imbalance)),
        ("sssp.pops", tpops / n),
        (
            "sssp.stale_pop_frac",
            ratio(sum(|s| s.stale as f64, &traced), tpops),
        ),
        ("sssp.idle_s", idle.busy_s() / n),
        (
            "core.gc.pending_max",
            traced.iter().map(|s| s.pending_max).max().unwrap_or(0) as f64,
        ),
        (
            "core.gc.collect_s",
            median(&mut traced.iter().map(|s| s.collect_s).collect::<Vec<_>>()),
        ),
        (
            "trace.overhead_frac",
            median(&mut traced.iter().map(|s| s.solve_s).collect::<Vec<_>>()) / solve_s - 1.0,
        ),
    ];
    o.figures.push(("traced_solves", n, "count"));
    o.spans = bufs;
    o
}

/// Spans left in the fullest of `bufs`.
fn room(bufs: &[SpanBuf]) -> usize {
    bufs.iter()
        .map(|b| SPAN_CAP - b.spans().len())
        .min()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_solve_matches_dijkstra() {
        let g = Graph::random(5_000, 6, 9);
        let reference = sequential_dijkstra(&g);
        assert!(reference.iter().all(|&d| d != u64::MAX));
        let (dist, s) = solve(&g, None, 0);
        assert_eq!(check_distances(&dist, &reference), Ok(()));
        assert_eq!(s.left, 0);
        assert!(s.pops >= g.n() as u64);

        let epoch = Instant::now();
        let mut bufs: Vec<SpanBuf> = (0..THREADS).map(|_| SpanBuf::new(epoch, 1 << 16)).collect();
        let (dist, s) = solve(&g, Some(&mut bufs), 1);
        assert_eq!(check_distances(&dist, &reference), Ok(()));
        let pops: usize = bufs
            .iter()
            .map(|b| {
                b.spans()
                    .iter()
                    .filter(|s| s.name == Name::ShardDeleteMin && !s.empty)
                    .count()
            })
            .sum();
        assert_eq!(pops as u64, s.pops);
    }

    #[test]
    fn one_wrong_distance_fails_the_check() {
        let g = Graph::random(2_000, 6, 4);
        let reference = sequential_dijkstra(&g);
        let (mut dist, _) = solve(&g, None, 0);
        dist[1234] += 1;
        let err = check_distances(&dist, &reference).unwrap_err();
        assert!(
            err.starts_with("1 wrong distances, first at vertex 1234"),
            "{err}"
        );
    }
}
