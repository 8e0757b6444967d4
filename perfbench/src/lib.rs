//! The repository benchmark. Three workloads drive the simulator's public
//! functions from one process, time every call from outside, check every
//! output and print one result line; see `NOTES.md` beside this package.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gpu-suite --seed 1 --seconds 30 --trace 0
//! ```

pub mod gpu_suite;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod llc;
pub mod pool;
pub mod report;
pub mod shared;
pub mod spans;
pub mod stats;

use std::path::PathBuf;

use report::{Report, END_TO_END, PER_LAYER};
use spans::Tracer;

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["gpu-suite", "llc-write", "llc-read"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Host seconds a timed run measures for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed one.
    pub trace: bool,
}

/// The usage line.
pub const USAGE: &str =
    "usage: perfbench --workload gpu-suite|llc-write|llc-read --seed N --seconds S --trace 0|1";

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`, all required.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(bad()),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where a traced run writes its spans: inside this package's directory.
fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
}

/// Runs the benchmark as `args` ask and returns what to print: the report
/// lines, then the result line last.
pub fn run(args: &Args) -> String {
    let tracer = Tracer::default();
    let mut report = match (args.workload.as_str(), args.trace) {
        ("gpu-suite", false) => gpu_suite::timed(args),
        ("gpu-suite", true) => gpu_suite::traced(args, &tracer),
        ("llc-write", false) => llc::timed(args, "llc-write", &inputs::WRITE_SET),
        ("llc-write", true) => llc::traced(args, "llc-write", &inputs::WRITE_SET, &tracer),
        ("llc-read", false) => llc::timed(args, "llc-read", &inputs::READ_SET),
        ("llc-read", true) => llc::traced(args, "llc-read", &inputs::READ_SET, &tracer),
        _ => unreachable!("parse_args admits listed workloads only"),
    };
    let mut head = report::provenance();
    head.push(format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    head.append(&mut report.notes);
    report.notes = head;
    if args.trace {
        let self_s: Vec<String> = tracer
            .self_times()
            .iter()
            .map(|(name, s)| format!("{name} {s:.4}"))
            .collect();
        report.note(format!("self time by span, s: {}", self_s.join(", ")));
        let path = spans_path(args);
        match tracer.write_jsonl(&path) {
            Ok(()) => report.note(format!("spans written to {}", path.display())),
            Err(e) => report.fail(format!("could not write spans to {}: {e}", path.display())),
        }
    }
    finish(report, if args.trace { &PER_LAYER } else { &END_TO_END })
}

fn finish(mut report: Report, table: &[(&'static str, &'static str)]) -> String {
    let line = report.result_json(table);
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.note(format!(
        "failed_ratio {failed_ratio} ({} failed of {} attempted; carried by the result line's failed and attempted fields)",
        report.failed, report.attempted
    ));
    format!("{}{line}\n", report.render())
}
