//! The metric tables, a run's outcome, and its two outputs: the results
//! document and the one-line JSON summary that ends standard output.

use std::fmt::Write as _;
use std::path::Path;

use nbench::json::JsonWriter;

use crate::trace::SpanBuf;
use crate::util::{Host, THREADS};

/// End-to-end metrics: every workload reports each of them, untraced.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("mem_peak_mb", "MB"),
];

/// Per-layer metrics from the traced run. A workload that makes no call
/// into a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.queue.insert.calls", "count"),
    ("core.queue.insert.busy_s", "s"),
    ("core.queue.insert.p50_ns", "ns"),
    ("core.queue.insert.p90_ns", "ns"),
    ("core.queue.insert.p99_ns", "ns"),
    ("core.queue.insert.p99_n", "count"),
    ("core.queue.insert.p999_ns", "ns"),
    ("core.queue.insert.p999_n", "count"),
    ("core.queue.delete_min.calls", "count"),
    ("core.queue.delete_min.busy_s", "s"),
    ("core.queue.delete_min.empty", "count"),
    ("core.queue.delete_min.p50_ns", "ns"),
    ("core.queue.delete_min.p90_ns", "ns"),
    ("core.queue.delete_min.p99_ns", "ns"),
    ("core.queue.delete_min.p99_n", "count"),
    ("core.queue.delete_min.p999_ns", "ns"),
    ("core.queue.delete_min.p999_n", "count"),
    ("core.queue.contention_ns", "ns"),
    ("ladder.seq_ns", "ns"),
    ("ladder.locked_seq_ns", "ns"),
    ("ladder.relaxed_ns", "ns"),
    ("ladder.strict_ns", "ns"),
    ("ladder.batched_ns", "ns"),
    ("ladder.sharded_ns", "ns"),
    ("ladder.huntheap_ns", "ns"),
    ("ladder.locked_heap_ns", "ns"),
    ("ladder.funnel_ns", "ns"),
    ("ladder.size", "count"),
    ("ladder.funnel_size", "count"),
    ("core.gc.pin_ns", "ns"),
    ("core.gc.pin_ns_2t", "ns"),
    ("core.gc.pending_max", "count"),
    ("core.gc.collect_s", "s"),
    ("core.clock.tick_ns", "ns"),
    ("core.clock.tick_ns_2t", "ns"),
    ("shardq.insert.calls", "count"),
    ("shardq.insert.busy_s", "s"),
    ("shardq.delete_min.calls", "count"),
    ("shardq.delete_min.busy_s", "s"),
    ("shardq.delete_min.empty_frac", "fraction"),
    ("shardq.elimination_hit_frac", "fraction"),
    ("shardq.fallback_frac", "fraction"),
    ("shardq.imbalance", "ratio"),
    ("sssp.pops", "count"),
    ("sssp.stale_pop_frac", "fraction"),
    ("sssp.idle_s", "s"),
    ("pqsim.shared_ops", "count"),
    ("pqsim.host_ns_per_shared_op", "ns"),
    ("pqsim.lock_wait_cycles", "cycles"),
    ("pqsim.final_time_cycles", "cycles"),
    ("simpq.gc_freed", "count"),
    ("simpq.empty_deletes", "count"),
    ("sim_insert_cycles", "cycles"),
    ("sim_delete_cycles", "cycles"),
    ("trace.overhead_frac", "fraction"),
];

/// A named measurement.
pub type Value = (&'static str, f64);

/// What one workload run measured and whether its outputs were right.
#[derive(Default)]
pub struct Outcome {
    /// Output checks that failed, one message each. Any entry makes the
    /// run incorrect and every attempted op count as failed.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// [`END_TO_END`] values, from the untraced phase.
    pub e2e: Vec<Value>,
    /// Workload-specific figures printed and recorded beside the
    /// end-to-end metrics (name, value, unit).
    pub figures: Vec<(&'static str, f64, &'static str)>,
    /// [`PER_LAYER`] values this workload measured (traced runs only).
    pub layers: Vec<Value>,
    /// Settings the run used, for the results document.
    pub config: Vec<(&'static str, f64)>,
    /// Every timed unit of work behind `solve_s` (blocks of holds, solves
    /// or simulations), in seconds, for the results document.
    pub units: Vec<f64>,
    /// The traced phase's spans, one buffer per thread.
    pub spans: Vec<SpanBuf>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Failed ops as reported: all of them once any check failed.
    pub fn failed_ops(&self) -> u64 {
        if self.correct() {
            self.failed
        } else {
            self.attempted
        }
    }
}

fn unit_of(table: &[(&str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The metrics the summary line carries, in table order: every end-to-end
/// metric, or with `trace` every per-layer metric (0 where not measured).
pub fn summary_metrics(o: &Outcome, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    let (table, got) = if trace {
        (PER_LAYER, &o.layers)
    } else {
        (END_TO_END, &o.e2e)
    };
    table
        .iter()
        .map(|&(name, unit)| {
            let v = got.iter().find(|(n, _)| *n == name).map_or(0.0, |v| v.1);
            (name, if v.is_finite() { v } else { 0.0 }, unit)
        })
        .collect()
}

/// The last line of standard output.
pub fn summary_line(o: &Outcome, trace: bool) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct(),
        o.attempted.max(1),
        o.failed_ops()
    );
    for (i, (name, v, unit)) in summary_metrics(o, trace).into_iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Human-readable lines: host, every figure by name with its unit, checks.
pub fn print_human(workload: &str, seed: u64, host: &Host, o: &Outcome, trace: bool) {
    println!(
        "{workload} seed={seed} threads={THREADS} cores={} oversubscribed={} cpu={:?} commit={}",
        host.cores, host.oversubscribed, host.cpu, host.commit
    );
    for &(name, v) in &o.e2e {
        println!("  {name:<34} {v:>16.6} {}", unit_of(END_TO_END, name));
    }
    for &(name, v, unit) in &o.figures {
        println!("  {name:<34} {v:>16.6} {unit}");
    }
    if trace {
        for (name, v, unit) in summary_metrics(o, true) {
            println!("  {name:<34} {v:>16.6} {unit}");
        }
    }
    match o.problems.as_slice() {
        [] => println!("  check: all outputs correct"),
        ps => ps.iter().for_each(|p| println!("  check FAILED: {p}")),
    }
}

/// Writes the results document: host record, settings, every figure.
pub fn write_results(
    path: &Path,
    workload: &str,
    seed: u64,
    host: &Host,
    o: &Outcome,
    trace: bool,
) -> std::io::Result<()> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "perfbench-v1");
    w.field_str("workload", workload);
    w.field_u64("seed", seed);
    w.field_u64("trace", u64::from(trace));
    w.key("host");
    w.begin_object();
    w.field_u64("cores", host.cores as u64);
    w.field_str("cpu", &host.cpu);
    w.field_str("commit", &host.commit);
    w.field_u64("threads", THREADS as u64);
    w.field_str(
        "oversubscribed",
        if host.oversubscribed { "yes" } else { "no" },
    );
    w.end_object();
    w.key("config");
    w.begin_object();
    for &(k, v) in &o.config {
        w.field_f64(k, v);
    }
    w.end_object();
    w.key("unit_ns");
    w.begin_array();
    for &u in &o.units {
        w.item_u64((u * 1e9) as u64);
    }
    w.end_array();
    w.field_str("correct", if o.correct() { "yes" } else { "no" });
    w.key("problems");
    w.begin_array();
    for p in &o.problems {
        w.item_str(p);
    }
    w.end_array();
    w.field_u64("attempted", o.attempted);
    w.field_u64("failed", o.failed_ops());
    w.key("metrics");
    w.begin_object();
    let mut all: Vec<(&str, f64, &str)> = o
        .e2e
        .iter()
        .map(|&(n, v)| (n, v, unit_of(END_TO_END, n)))
        .collect();
    all.extend(o.figures.iter().copied());
    if trace {
        all.extend(summary_metrics(o, true));
    }
    for (name, v, unit) in all {
        w.key(name);
        w.begin_object();
        w.field_f64("value", v);
        w.field_str("unit", unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbench::json::{parse, Value as J};

    fn names(doc: &J, key: &str) -> Vec<(String, String)> {
        doc.as_object().unwrap()[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let m = m.as_object().unwrap();
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    /// The contract file lists exactly the metrics the code reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let doc = parse(&text).unwrap();
        let own = |t: &[(&str, &str)]| {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = doc.as_object().unwrap()["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.as_object().unwrap()["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn summary_line_is_one_json_object_with_every_metric() {
        let o = Outcome {
            attempted: 10,
            e2e: vec![
                ("ops_per_s", 1.5),
                ("solve_s", 0.25),
                ("setup_s", 0.125),
                ("mem_peak_mb", 3.0),
            ],
            ..Outcome::default()
        };
        for trace in [false, true] {
            let line = summary_line(&o, trace);
            assert!(!line.contains('\n'));
            let doc = parse(&line).unwrap();
            let obj = doc.as_object().unwrap();
            assert_eq!(
                obj.keys().collect::<Vec<_>>(),
                ["attempted", "correct", "failed", "metrics"]
            );
            let want = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(obj["metrics"].as_object().unwrap().len(), want);
        }
        let mut bad = o;
        bad.problems.push("x".into());
        assert!(summary_line(&bad, false).contains("\"failed\": 10"));
    }
}
