//! perfbench: one command that runs one workload of the SkipQueue stack,
//! checks its outputs and reports its metrics.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload des-hold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run it from the repository root. It prints every metric by name with
//! its unit, writes a results document to `perfbench/out/`, and ends its
//! standard output with a one-line JSON summary. `--trace 1` adds a traced
//! phase, the layer ladder and the primitive probes, and reports the
//! per-layer metrics instead of the end-to-end ones. See `README.md`.

mod hold;
mod ladder;
mod report;
mod sim;
mod sssp;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;
use util::{Host, THREADS};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["des-hold", "sssp-sharded", "sim-fig4"];

/// Where results documents and span files go, relative to the repository root.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// The per-layer metrics every traced run measures, whatever its workload:
/// the ladder and the GC and clock probes.
fn common_layers(o: &mut Outcome, seed: u64) {
    o.layers.extend(ladder::ladder(seed));
    o.layers.extend([
        ("ladder.size", ladder::SIZE as f64),
        ("ladder.funnel_size", ladder::FUNNEL_SIZE as f64),
        ("core.gc.pin_ns", ladder::pin_ns(1)),
        ("core.gc.pin_ns_2t", ladder::pin_ns(THREADS)),
        ("core.clock.tick_ns", ladder::tick_ns(1)),
        ("core.clock.tick_ns_2t", ladder::tick_ns(THREADS)),
    ]);
    // Two-thread busy time per queue op beyond the single-thread strict rung.
    let get = |name| {
        o.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |v| v.1)
    };
    let calls = get("core.queue.insert.calls") + get("core.queue.delete_min.calls");
    if calls > 0.0 {
        let busy = get("core.queue.insert.busy_s") + get("core.queue.delete_min.busy_s");
        let contention = busy * 1e9 / calls - get("ladder.strict_ns");
        o.layers.push(("core.queue.contention_ns", contention));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    if host.oversubscribed {
        eprintln!(
            "perfbench: {THREADS} threads on {} cores: results are marked oversubscribed",
            host.cores
        );
    }
    let run = match args.workload.as_str() {
        "des-hold" => hold::workload,
        "sssp-sharded" => sssp::workload,
        _ => sim::workload,
    };
    let mut o = run(args.seed, args.seconds, args.trace);
    if args.trace {
        common_layers(&mut o, args.seed);
        let kept: usize = o.spans.iter().map(|b| b.spans().len()).sum();
        let dropped: u64 = o.spans.iter().map(|b| b.dropped()).sum();
        o.figures.push(("trace_spans", kept as f64, "count"));
        o.figures
            .push(("trace_dropped_spans", dropped as f64, "count"));
        let spans = PathBuf::from(format!("{OUT_DIR}/spans-{}.csv", args.workload));
        if let Err(e) = trace::write_csv(&spans, &o.spans) {
            eprintln!("perfbench: cannot write {}: {e}", spans.display());
        }
    }

    report::print_human(&args.workload, args.seed, &host, &o, args.trace);
    let suffix = if args.trace { "-trace" } else { "" };
    let doc = PathBuf::from(format!(
        "{OUT_DIR}/{}-seed{}{suffix}.json",
        args.workload, args.seed
    ));
    if let Err(e) = report::write_results(&doc, &args.workload, args.seed, &host, &o, args.trace) {
        eprintln!("perfbench: cannot write {}: {e}", doc.display());
    }
    println!("{}", report::summary_line(&o, args.trace));
    ExitCode::SUCCESS
}
