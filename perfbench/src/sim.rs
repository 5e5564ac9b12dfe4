//! `sim-fig4`: the paper's Figure 4 point for the strict SkipQueue on the
//! simulated 256-processor machine (1000 initial items, 70 000 operations,
//! 50% inserts, default seed and cost model).
//!
//! The simulation is deterministic, so every run must reproduce the
//! committed `results/fig4_large.csv` row exactly.

use std::time::Instant;

use simpq::{QueueKind, WorkloadConfig, WorkloadResult};

use crate::report::Outcome;
use crate::trace::{reduce, Name, SpanBuf, ROOT};
use crate::util::{median, ratio, secs, MemProbe};

/// The committed figure the point must reproduce.
pub const FIG4_CSV: &str = "results/fig4_large.csv";

pub fn fig4_config() -> WorkloadConfig {
    WorkloadConfig {
        queue: QueueKind::SkipQueue { strict: true },
        nproc: 256,
        initial_size: 1_000,
        total_ops: 70_000,
        insert_ratio: 0.5,
        work_cycles: 100,
        ..WorkloadConfig::default()
    }
}

/// The same machine and prefill with no operations: the point's set-up.
pub fn setup_config() -> WorkloadConfig {
    WorkloadConfig {
        total_ops: 0,
        ..fig4_config()
    }
}

/// `r` as a row of the figure CSVs (same columns and rounding).
pub fn csv_row(cfg: &WorkloadConfig, r: &WorkloadResult) -> String {
    format!(
        "{},{},{},{:.1},{:.1},{:.1},{},{},{}",
        cfg.queue.label(),
        cfg.nproc,
        cfg.nproc,
        r.insert.mean,
        r.delete.mean,
        r.overall.mean,
        r.insert.p99,
        r.delete.p99,
        r.final_time
    )
}

/// The committed row for the point's structure and processor count.
pub fn expected_row(csv: &str, cfg: &WorkloadConfig) -> Option<String> {
    let prefix = format!("{},{},", cfg.queue.label(), cfg.nproc);
    csv.lines()
        .find(|l| l.starts_with(&prefix))
        .map(str::to_string)
}

/// The run reproduces the committed row, and the final size equals the
/// initial size plus inserts minus successful deletes.
pub fn check(cfg: &WorkloadConfig, r: &WorkloadResult, expected: &str) -> Result<(), String> {
    let got = csv_row(cfg, r);
    if got != expected {
        return Err(format!("row {got} differs from committed {expected}"));
    }
    let deleted = r.delete.count - r.empty_deletes;
    let want = cfg.initial_size as u64 + r.insert.count - deleted;
    if r.final_size as u64 != want {
        return Err(format!("final size {} instead of {want}", r.final_size));
    }
    Ok(())
}

/// Zero-operation simulations timed for `setup_s`.
const SETUP_REPS: usize = 100;
/// Simulations in the traced phase, at most (spans add nothing inside a
/// simulation, so more would only lengthen the run).
const TRACED_RUNS: usize = 2;

/// The `sim-fig4` workload. The point keeps the paper's default simulation
/// seed, so that it reproduces the committed figure; `seed` changes nothing.
pub fn workload(_seed: u64, seconds: f64, trace: bool) -> Outcome {
    let cfg = fig4_config();
    let mut o = Outcome::default();
    let expected = std::fs::read_to_string(FIG4_CSV)
        .ok()
        .and_then(|csv| expected_row(&csv, &cfg))
        .unwrap_or_else(|| {
            o.problems.push(format!(
                "no {} row for {} processors in {FIG4_CSV}",
                cfg.queue.label(),
                cfg.nproc
            ));
            String::new()
        });
    let check = |o: &mut Outcome, r: &WorkloadResult| {
        o.attempted += r.insert.count + r.delete.count;
        if let Err(e) = check(&cfg, r, &expected) {
            o.problems.push(e);
        }
    };

    let mut mem = MemProbe::start();
    let mut setup_s: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            simpq::run_workload(&setup_config());
            secs(t)
        })
        .collect();
    let t = Instant::now();
    let mut jobs = Vec::new();
    let mut ops = 0;
    let mut last = None;
    while jobs.is_empty() || secs(t) < seconds {
        let t = Instant::now();
        let r = simpq::run_workload(&cfg);
        jobs.push(secs(t));
        ops += r.insert.count + r.delete.count;
        check(&mut o, &r);
        last = Some(r);
    }
    let r = last.expect("at least one simulation");
    let mem_mb = mem.growth_mb();
    let sim_host_s = median(&mut jobs.clone());
    o.e2e = vec![
        ("ops_per_s", ops as f64 / jobs.iter().sum::<f64>()),
        ("solve_s", sim_host_s),
        ("setup_s", median(&mut setup_s)),
        ("mem_peak_mb", mem_mb),
    ];
    o.figures = vec![
        ("sim_host_s", sim_host_s, "s"),
        ("sim_insert_cycles", r.insert.mean, "cycles"),
        ("sim_delete_cycles", r.delete.mean, "cycles"),
        ("simulations", jobs.len() as f64, "count"),
        (
            "failed_frac",
            ratio(o.failed_ops() as f64, o.attempted as f64),
            "fraction",
        ),
    ];
    o.units = jobs;
    o.config = vec![
        ("nproc", f64::from(cfg.nproc)),
        ("initial_size", cfg.initial_size as f64),
        ("total_ops", cfg.total_ops as f64),
        ("insert_ratio", cfg.insert_ratio),
        ("sim_seed", cfg.seed as f64),
        ("seconds", seconds),
    ];
    if !trace {
        return o;
    }

    let epoch = Instant::now();
    let mut buf = SpanBuf::new(epoch, TRACED_RUNS);
    let t = Instant::now();
    let mut last = None;
    while last.is_none() || (secs(t) < seconds && !buf.is_full()) {
        let start = buf.now();
        let r = simpq::run_workload(&cfg);
        buf.push(
            Name::SimRun,
            ROOT,
            buf.spans().len() as u64,
            start,
            buf.now(),
            false,
        );
        check(&mut o, &r);
        last = Some(r);
    }
    let r = last.expect("at least one traced simulation");
    let run = reduce(std::slice::from_ref(&buf), Name::SimRun);
    let per_run_ns = run.busy_ns as f64 / run.calls as f64;
    o.layers = vec![
        ("pqsim.shared_ops", r.shared_ops as f64),
        (
            "pqsim.host_ns_per_shared_op",
            per_run_ns / r.shared_ops as f64,
        ),
        ("pqsim.lock_wait_cycles", r.total_lock_wait as f64),
        ("pqsim.final_time_cycles", r.final_time as f64),
        ("simpq.gc_freed", r.gc_freed as f64),
        ("simpq.empty_deletes", r.empty_deletes as f64),
        ("sim_insert_cycles", r.insert.mean),
        ("sim_delete_cycles", r.delete.mean),
        ("trace.overhead_frac", per_run_ns / 1e9 / sim_host_s - 1.0),
    ];
    o.spans = vec![buf];
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> WorkloadConfig {
        WorkloadConfig {
            nproc: 8,
            total_ops: 2_000,
            initial_size: 100,
            ..fig4_config()
        }
    }

    #[test]
    fn committed_row_is_found() {
        let csv = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../",
            "results/fig4_large.csv"
        ))
        .unwrap();
        let row = expected_row(&csv, &fig4_config()).unwrap();
        assert!(
            row.starts_with("SkipQueue,256,256,9893.3,22755.1,"),
            "{row}"
        );
    }

    #[test]
    fn check_accepts_its_own_row_and_rejects_changes() {
        let cfg = small();
        let mut r = simpq::run_workload(&cfg);
        let row = csv_row(&cfg, &r);
        assert_eq!(check(&cfg, &r, &row), Ok(()));

        let mut shifted = r.clone();
        shifted.insert.mean += 0.1;
        assert!(check(&cfg, &shifted, &row).unwrap_err().contains("differs"));

        r.final_size += 1;
        assert!(check(&cfg, &r, &row).unwrap_err().contains("final size"));
    }
}
