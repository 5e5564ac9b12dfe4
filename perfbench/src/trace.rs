//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A traced phase gives every worker thread its own [`SpanBuf`]. A span
//! holds the layer function it timed, its start and end (nanoseconds since
//! the phase epoch), the span that caused it and the op id it belongs to.
//! Buffers are preallocated; once one is full, further spans are dropped
//! and counted, and the workloads end a traced phase early instead of
//! overrunning. After the phase the spans are written to a CSV file and
//! reduced to per-layer counts, busy time and latency histograms.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use nbench::hist::LatencyHist;

/// Spans per thread a traced phase may hold (32 bytes each).
pub const SPAN_CAP: usize = 1 << 19;

/// "No parent": the span was caused by the benchmark loop itself.
pub const ROOT: u32 = u32::MAX;

/// The layer functions the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// `skipqueue::SkipQueue::insert`.
    QueueInsert,
    /// `skipqueue::SkipQueue::delete_min`.
    QueueDeleteMin,
    /// `shardq::ShardedSkipQueue::insert`.
    ShardInsert,
    /// `shardq::ShardedSkipQueue::delete_min`.
    ShardDeleteMin,
    /// An SSSP worker retrying on an empty frontier, from its first empty
    /// `delete_min` until it next gets work or exits.
    SsspIdle,
    /// `simpq::run_workload`.
    SimRun,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::QueueInsert => "core.queue.insert",
            Name::QueueDeleteMin => "core.queue.delete_min",
            Name::ShardInsert => "shardq.insert",
            Name::ShardDeleteMin => "shardq.delete_min",
            Name::SsspIdle => "sssp.idle",
            Name::SimRun => "simpq.run_workload",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub start: u64,
    pub end: u64,
    pub op: u64,
    pub parent: u32,
    pub name: Name,
    /// A `delete_min` that returned `None`.
    pub empty: bool,
}

/// One thread's spans for one traced phase.
pub struct SpanBuf {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanBuf {
    pub fn new(epoch: Instant, cap: usize) -> Self {
        SpanBuf {
            epoch,
            spans: Vec::with_capacity(cap),
            dropped: 0,
        }
    }

    /// Nanoseconds since the phase epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn is_full(&self) -> bool {
        self.spans.len() == self.spans.capacity()
    }

    /// Records a finished span and returns its index, or [`ROOT`] when the
    /// buffer is full and the span was dropped.
    #[inline]
    pub fn push(
        &mut self,
        name: Name,
        parent: u32,
        op: u64,
        start: u64,
        end: u64,
        empty: bool,
    ) -> u32 {
        if self.is_full() {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            start,
            end,
            op,
            parent,
            name,
            empty,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// One layer function's spans, reduced.
pub struct Agg {
    pub calls: u64,
    pub empty: u64,
    pub busy_ns: u64,
    pub hist: LatencyHist,
}

impl Agg {
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }

    /// The `q`-th percentile and how many samples lie above it.
    pub fn tail(&self, q: f64) -> (f64, f64) {
        let beyond = self.calls as f64 * (1.0 - q / 100.0);
        (self.hist.percentile(q) as f64, beyond.floor())
    }
}

/// Reduces every span named `name` across `bufs`.
pub fn reduce(bufs: &[SpanBuf], name: Name) -> Agg {
    let mut agg = Agg {
        calls: 0,
        empty: 0,
        busy_ns: 0,
        hist: LatencyHist::new(),
    };
    for s in bufs
        .iter()
        .flat_map(|b| b.spans())
        .filter(|s| s.name == name)
    {
        let d = s.end.saturating_sub(s.start);
        agg.calls += 1;
        agg.empty += u64::from(s.empty);
        agg.busy_ns += d;
        agg.hist.record(d);
    }
    agg
}

/// Writes every span as CSV: one row per span, `parent` as an index into
/// the same thread's rows (empty for a root span).
pub fn write_csv(path: &Path, bufs: &[SpanBuf]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread,index,name,parent,op,start_ns,end_ns,empty")?;
    for (t, b) in bufs.iter().enumerate() {
        for (i, s) in b.spans().iter().enumerate() {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{t},{i},{},{parent},{},{},{},{}",
                s.name.as_str(),
                s.op,
                s.start,
                s.end,
                u8::from(s.empty)
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_buffer_drops_and_counts() {
        let mut b = SpanBuf::new(Instant::now(), 2);
        assert_eq!(b.push(Name::QueueInsert, ROOT, 0, 1, 2, false), 0);
        assert_eq!(b.push(Name::QueueDeleteMin, 0, 0, 2, 5, true), 1);
        assert_eq!(b.push(Name::QueueInsert, ROOT, 1, 5, 6, false), ROOT);
        assert_eq!(b.dropped(), 1);
        let d = reduce(std::slice::from_ref(&b), Name::QueueDeleteMin);
        assert_eq!((d.calls, d.empty, d.busy_ns), (1, 1, 3));
    }
}
