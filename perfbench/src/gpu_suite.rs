//! `gpu-suite`: the paper's Fig. 8 path through every layer. One
//! operation is one `Executor::run` of a suite member on a Table 2
//! configuration (or on C1 under an adaptive policy), on a fresh
//! `Executor` per pass.

use std::sync::Arc;
use std::time::Instant;

use sttgpu_core::{LlcModel, LlcPolicy, TwoPartStats};
use sttgpu_experiments::{gpu_config, Executor, ExecutorStats, L2Choice, RunOutput, RunPlan};
use sttgpu_sim::{Gpu, GpuConfig, L2ModelConfig, RunMetrics, Workload};
use sttgpu_tracefile::TraceHeader;

use crate::inputs::{suite_members, suite_ops, SuiteOp, BUILTIN_SEED};
use crate::layers::{
    decode, drive_any, drive_timed_any, encode, timer_overhead_ns, CoreCounts, KIND_NAMES,
};
use crate::pool::{host_workers, run_pass, Pass};
use crate::report::{peak_rss_mb, Report};
use crate::shared::{self, Fig8Point, MIN_OP_SAMPLES};
use crate::spans::Tracer;
use crate::stats::{digest_of, median, ratio, tail_percentile};
use crate::Args;

/// Times the traced run generates the members, so `workloads.build_ms`
/// (a few microseconds each) is a mean over many calls.
const TRACED_BUILD_REPS: usize = 101;

/// The plan of every operation: reference cycle budget, no checker, no
/// faults.
fn plan() -> RunPlan {
    RunPlan::full()
}

/// What identifies one operation's output: every metric and the two-part
/// statistics block.
type Output = (RunMetrics, Option<TwoPartStats>);

/// One operation run directly on a fresh `Gpu`, outside the executor and
/// its retry path: a panic here is not retried under a salted seed.
fn direct_run(members: &[Workload], op: &SuiteOp) -> Output {
    let mut gpu = Gpu::new(op_config(op));
    let metrics = gpu.run_workload(&members[op.member], plan().max_cycles);
    let two_part = gpu.llc().as_two_part().map(|t| *t.stats());
    (metrics, two_part)
}

/// One pass of every operation through a fresh `Executor`.
fn executor_pass(
    members: &[Workload],
    ops: &[SuiteOp],
    plan: RunPlan,
    workers: usize,
) -> (Pass<Arc<RunOutput>>, ExecutorStats) {
    let exec = Executor::new(workers);
    let pass = run_pass(workers, ops.len(), |i| {
        let op = ops[i];
        exec.run(op.choice, &members[op.member], &plan.with_policy(op.policy))
    });
    (pass, exec.stats())
}

fn output_digest(metrics: &RunMetrics, two_part: &Option<TwoPartStats>) -> u64 {
    digest_of(&(metrics, two_part))
}

fn describe(op: &SuiteOp, members: &[Workload]) -> String {
    format!(
        "{} on {} ({})",
        members[op.member].name,
        op.choice.label(),
        op.policy.name()
    )
}

/// The digest of one operation's output. An operation that errored or did
/// not finish within the cycle budget counts as failed and has none.
fn checked_digest(
    report: &mut Report,
    what: impl FnOnce() -> String,
    result: Result<(&RunMetrics, &Option<TwoPartStats>), &String>,
) -> Option<u64> {
    match result {
        Err(msg) => {
            report.fail(format!("{}: {msg}", what()));
            None
        }
        Ok((metrics, _)) if !metrics.finished => {
            report.fail(format!(
                "{}: did not finish within the cycle budget",
                what()
            ));
            None
        }
        Ok((metrics, two_part)) => Some(output_digest(metrics, two_part)),
    }
}

/// Checks every operation of a pass and returns their digests.
fn pass_digests<R>(
    report: &mut Report,
    pass: &Pass<R>,
    ops: &[SuiteOp],
    members: &[Workload],
    output: impl Fn(&R) -> (&RunMetrics, &Option<TwoPartStats>),
) -> Vec<Option<u64>> {
    report.attempted += ops.len() as u64;
    pass.ops
        .iter()
        .zip(ops)
        .map(|(t, op)| {
            checked_digest(
                report,
                || describe(op, members),
                t.result.as_ref().map(&output),
            )
        })
        .collect()
}

fn executor_output(out: &Arc<RunOutput>) -> (&RunMetrics, &Option<TwoPartStats>) {
    (&out.metrics, &out.two_part)
}

/// Checks one executor pass: every operation returned, finished within the
/// cycle budget and matches its `reference` digest; the executor served
/// nothing from memo or store.
fn verify_pass(
    report: &mut Report,
    pass: &Pass<Arc<RunOutput>>,
    stats: &ExecutorStats,
    ops: &[SuiteOp],
    members: &[Workload],
    reference: &[Option<u64>],
) {
    let digests = pass_digests(report, pass, ops, members, executor_output);
    for (i, digest) in digests.iter().enumerate() {
        if digest.is_some() && reference[i].is_some() && *digest != reference[i] {
            report.fail(format!(
                "{}: output differs from its reference run",
                describe(&ops[i], members)
            ));
        }
    }
    let served = stats.cache_hits + stats.store_hits;
    if served > 0 {
        report.fail(format!("executor served {served} runs from memo or store"));
    }
}

/// The fixed-policy metrics of the reference pass, `[member][config]` in
/// `L2Choice::ALL` order, when every one of them succeeded.
fn fixed_grid(pass: &Pass<Output>, members: usize) -> Option<Vec<Vec<&RunMetrics>>> {
    let per = L2Choice::ALL.len();
    (0..members)
        .map(|m| {
            (0..per)
                .map(|c| pass.ops[m * per + c].result.as_ref().ok().map(|o| &o.0))
                .collect()
        })
        .collect()
}

const C1: usize = 2;
const SRAM: usize = 0;

/// Sets the simulated end-to-end figures and the fig8 check.
fn set_simulated(
    report: &mut Report,
    args: &Args,
    members: &[Workload],
    grid: &[Vec<&RunMetrics>],
) {
    let pairs: Vec<(&RunMetrics, &RunMetrics)> = grid.iter().map(|g| (g[C1], g[SRAM])).collect();
    let (speedup, power) = shared::c1_ratios(&pairs);
    report.set("c1_speedup_geomean", speedup);
    report.set("c1_l2_power_ratio", power);
    let dyn_nj: f64 = grid.iter().map(|g| g[C1].l2_energy.dynamic_nj()).sum();
    report.set("l2_dynamic_uj", dyn_nj / 1e3);
    shared::note_versus_paper(report, speedup, power, "the 16 suite members");
    if args.seed == BUILTIN_SEED {
        let points: Vec<Fig8Point<'_>> = grid
            .iter()
            .zip(members)
            .flat_map(|(g, w)| {
                L2Choice::ALL
                    .iter()
                    .enumerate()
                    .map(move |(c, choice)| Fig8Point {
                        member: &w.name,
                        config: choice.label(),
                        run: g[c],
                        base: g[SRAM],
                    })
            })
            .collect();
        shared::check_fig8(report, &points);
    }
}

fn notes(report: &mut Report, workers: usize, ops: usize) {
    report.note(format!(
        "workload gpu-suite: one operation = Executor::run of a member on a Table 2 config or on C1 under an adaptive policy; {ops} operations per pass, a fresh Executor and no result store per pass"
    ));
    shared::common_notes(report, workers);
}

/// The timed, untraced run. Set-up generates the members and runs every
/// operation once directly on a `Gpu` (the reference every timed output
/// must equal); then come executor passes until `--seconds` have elapsed
/// and at least [`MIN_OP_SAMPLES`] operations were timed.
pub fn timed(args: &Args) -> Report {
    let start = Instant::now();
    let mut report = Report::default();
    let workers = host_workers();
    let members = suite_members(args.seed);
    let ops = suite_ops(members.len());
    let reference_pass = run_pass(workers, ops.len(), |i| direct_run(&members, &ops[i]));
    let reference = pass_digests(&mut report, &reference_pass, &ops, &members, |o| {
        (&o.0, &o.1)
    });
    let setup_s = start.elapsed().as_secs_f64();
    notes(&mut report, workers, ops.len());

    let timed_start = Instant::now();
    let mut walls = Vec::new();
    let mut op_ms = Vec::new();
    loop {
        let (pass, stats) = executor_pass(&members, &ops, plan(), workers);
        verify_pass(&mut report, &pass, &stats, &ops, &members, &reference);
        walls.push(pass.wall.as_secs_f64());
        op_ms.extend(pass.ops.iter().map(|t| t.elapsed.as_secs_f64() * 1e3));
        if timed_start.elapsed().as_secs_f64() >= args.seconds && op_ms.len() >= MIN_OP_SAMPLES {
            break;
        }
    }
    let outputs: Vec<&RunMetrics> = reference_pass
        .ops
        .iter()
        .filter_map(|t| t.result.as_ref().ok().map(|o| &o.0))
        .collect();
    let wall_s = median(&walls).expect("at least one pass");
    let cycles: f64 = outputs.iter().map(|m| m.cycles as f64).sum();
    let instructions: f64 = outputs.iter().map(|m| m.instructions as f64).sum();
    let probes: f64 = outputs
        .iter()
        .map(|m| (m.l2.read_hits + m.l2.read_misses + m.l2.write_hits + m.l2.write_misses) as f64)
        .sum();
    report.note(format!(
        "set-up {setup_s:.3} s (generation and one direct reference run of every operation); {} passes, {} timed operations; wall_s is the median pass",
        walls.len(),
        op_ms.len()
    ));
    report.note("sim_cycles_per_s, sim_instr_per_s and llc_calls_per_s are one pass's simulated totals (fixed for a seed) over wall_s, so they move with wall_s");
    report.note(
        "llc_calls_per_s counts the LLC's demand probes (the timed run keeps the call log off)",
    );
    report.set("wall_s", wall_s);
    report.set("setup_s", setup_s);
    report.set(
        "op_ms_p50",
        tail_percentile(&op_ms, 0.5).unwrap_or(f64::NAN),
    );
    report.set(
        "op_ms_p90",
        tail_percentile(&op_ms, 0.9).unwrap_or(f64::NAN),
    );
    report.set("sim_cycles_per_s", cycles / wall_s);
    report.set("sim_instr_per_s", instructions / wall_s);
    report.set("llc_calls_per_s", probes / wall_s);
    match fixed_grid(&reference_pass, members.len()) {
        Some(grid) => set_simulated(&mut report, args, &members, &grid),
        None => report.fail("a fixed-policy reference run failed; no Fig. 8 figures"),
    }
    report.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    report
}

/// The GPU configuration an operation runs on, with its policy applied
/// the way the executor applies it.
fn op_config(op: &SuiteOp) -> GpuConfig {
    let mut cfg = gpu_config(op.choice);
    if let L2ModelConfig::TwoPart(tp) = &mut cfg.l2 {
        tp.policy = op.policy;
    }
    cfg
}

/// What one traced operation produced.
struct TracedOut {
    metrics: RunMetrics,
    two_part: Option<TwoPartStats>,
    calls: u64,
    encoded_bytes: u64,
}

/// One operation under spans: build the GPU, run it with the LLC call log
/// on, replay the log standalone against a fresh LLC of the same
/// configuration (whole, then call by call), and round-trip it through
/// the trace codec. Errors name the output that disagreed.
fn traced_op(tracer: &Tracer, members: &[Workload], op: &SuiteOp) -> Result<TracedOut, String> {
    let id = tracer.new_id();
    let cfg = op_config(op);
    tracer.span("bench.op", id, None, |root| {
        let mut gpu = tracer.span("sim.gpu_new", id, Some(root), |_| Gpu::new(cfg.clone()));
        gpu.start_llc_call_log();
        let metrics = tracer.span("sim.run_workload", id, Some(root), |_| {
            gpu.run_workload(&members[op.member], plan().max_cycles)
        });
        let log = gpu
            .take_llc_call_log()
            .ok_or("the LLC call log was not on")?;
        let two_part = gpu.llc().as_two_part().map(|t| *t.stats());
        let replayed = tracer.span("core.replay", id, Some(root), |_| {
            let mut llc = cfg.l2.build(cfg.l2_line_bytes);
            drive_any(&mut llc, &log);
            llc
        });
        if replayed.summary() != gpu.llc().summary()
            || replayed.as_two_part().map(|t| *t.stats()) != two_part
            || replayed.energy().dynamic_nj() != gpu.llc().energy().dynamic_nj()
        {
            return Err("standalone replay of the call log differs from the run".to_owned());
        }
        tracer.span("core.drive_timed", id, Some(root), |span| {
            let mut llc = cfg.l2.build(cfg.l2_line_bytes);
            let kinds = drive_timed_any(&mut llc, &log);
            for (name, (calls, total)) in KIND_NAMES.iter().zip(kinds) {
                tracer.tally(name, id, span, calls, total);
            }
        });
        let header = TraceHeader::raw(cfg.l2_line_bytes);
        let bytes = tracer.span("tracefile.encode", id, Some(root), |_| encode(header, &log))?;
        let decoded = tracer.span("tracefile.decode", id, Some(root), |_| decode(&bytes))?;
        if decoded != (header, log.clone()) {
            return Err("trace codec round trip changed the call log".to_owned());
        }
        Ok(TracedOut {
            metrics,
            two_part,
            calls: log.len() as u64,
            encoded_bytes: bytes.len() as u64,
        })
    })
}

/// Σ host time of the operations of `pass` that `pick` selects, seconds.
fn op_time<R>(pass: &Pass<R>, ops: &[SuiteOp], pick: impl Fn(&SuiteOp) -> bool) -> f64 {
    pass.ops
        .iter()
        .zip(ops)
        .filter(|(_, op)| pick(op))
        .map(|(t, _)| t.elapsed.as_secs_f64())
        .sum()
}

fn is_c1(op: &SuiteOp, policy: LlcPolicy) -> bool {
    op.choice == L2Choice::TwoPartC1 && op.policy == policy
}

/// The traced run: one untraced pass, one traced pass over the same
/// operations, and one checked verification pass; writes per-layer
/// metrics.
pub fn traced(args: &Args, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let workers = host_workers();
    let mut members = Vec::new();
    for _ in 0..TRACED_BUILD_REPS {
        let op = tracer.new_id();
        members = tracer.span("workloads.build", op, None, |_| suite_members(args.seed));
    }
    let ops = suite_ops(members.len());
    notes(&mut report, workers, ops.len());

    // The executor's outputs are the reference here; the traced pass below
    // runs every operation directly, outside the retry path, against them.
    let (untraced, stats) = executor_pass(&members, &ops, plan(), workers);
    let reference = pass_digests(&mut report, &untraced, &ops, &members, executor_output);
    let served = stats.cache_hits + stats.store_hits;
    if served > 0 {
        report.fail(format!("executor served {served} runs from memo or store"));
    }

    let traced = run_pass(workers, ops.len(), |i| traced_op(tracer, &members, &ops[i]));
    report.attempted += ops.len() as u64;
    let mut done = Vec::new();
    for (i, t) in traced.ops.iter().enumerate() {
        match &t.result {
            Ok(Ok(out)) if Some(output_digest(&out.metrics, &out.two_part)) == reference[i] => {
                done.push((&ops[i], out));
            }
            Ok(Ok(_)) => report.fail(format!(
                "{}: traced run differs from the executor's",
                describe(&ops[i], &members)
            )),
            Ok(Err(msg)) | Err(msg) => {
                report.fail(format!("{} (traced): {msg}", describe(&ops[i], &members)));
            }
        }
    }

    let (checked, checked_stats) = executor_pass(&members, &ops, plan().with_check(true), workers);
    verify_pass(
        &mut report,
        &checked,
        &checked_stats,
        &ops,
        &members,
        &reference,
    );
    let violations: u64 = checked
        .ops
        .iter()
        .filter_map(|t| t.result.as_ref().ok())
        .filter_map(|o| o.check.as_ref())
        .map(|c| c.violations)
        .sum();
    if violations > 0 {
        report.fail(format!("invariant checker found {violations} violations"));
    }

    let calls: u64 = done.iter().map(|(_, o)| o.calls).sum();
    let bytes: u64 = done.iter().map(|(_, o)| o.encoded_bytes).sum();
    let runs: Vec<&RunMetrics> = done.iter().map(|(_, o)| &o.metrics).collect();
    let mut core = CoreCounts::default();
    for (op, out) in &done {
        if is_c1(op, LlcPolicy::Fixed) {
            core.add(out.two_part.as_ref().expect("C1 is a two-part design"));
        }
    }
    let cycles: f64 = runs.iter().map(|m| m.cycles as f64).sum();
    let instructions: f64 = runs.iter().map(|m| m.instructions as f64).sum();

    report.set(
        "workloads.build_ms",
        tracer.total_s("workloads.build") * 1e3 / tracer.count("workloads.build") as f64,
    );
    report.set(
        "experiments.parallel_efficiency",
        untraced.busy().as_secs_f64() / (untraced.wall.as_secs_f64() * workers as f64),
    );
    report.set("experiments.runs_executed", stats.runs_executed as f64);
    report.set(
        "experiments.memo_hits",
        (stats.cache_hits + checked_stats.cache_hits) as f64,
    );
    report.set(
        "sim.gpu_new_ms",
        tracer.total_s("sim.gpu_new") * 1e3 / tracer.count("sim.gpu_new") as f64,
    );
    shared::set_run_split(
        &mut report,
        tracer.total_s("sim.run_workload"),
        tracer.total_s("core.replay"),
        calls,
        cycles,
        instructions,
    );
    report.note("sim.frontend_s = sim.run_s - core.replay_s is an estimate: inside the full simulation the LLC shares CPU caches with the front end, a standalone replay does not");
    shared::set_sim_counts(&mut report, &runs, calls);
    shared::set_core_counts(&mut report, &core);
    let timer_ns = timer_overhead_ns();
    shared::set_per_kind(&mut report, tracer, timer_ns);
    let fixed_c1 = op_time(&untraced, &ops, |o| is_c1(o, LlcPolicy::Fixed));
    report.set(
        "core.policy.adaptive_retention_time_ratio",
        ratio(
            op_time(&untraced, &ops, |o| is_c1(o, LlcPolicy::AdaptiveRetention)),
            fixed_c1,
        ),
    );
    report.set(
        "core.policy.adaptive_ways_time_ratio",
        ratio(
            op_time(&untraced, &ops, |o| is_c1(o, LlcPolicy::AdaptiveWays)),
            fixed_c1,
        ),
    );
    shared::set_cache_times(&mut report);
    shared::set_codec_rates(&mut report, tracer, bytes, calls);
    report.set(
        "trace.check_time_ratio",
        ratio(
            op_time(&checked, &ops, |o| is_c1(o, LlcPolicy::Fixed)),
            fixed_c1,
        ),
    );
    report.set("trace.violations", violations as f64);
    report.set(
        "bench.trace_overhead_s",
        traced.wall.as_secs_f64() - untraced.wall.as_secs_f64(),
    );
    report.set("bench.workers", workers as f64);
    report.note(format!(
        "traced pass {:.3} s against untraced {:.3} s; the traced pass also replays, re-drives call by call and round-trips every call log",
        traced.wall.as_secs_f64(),
        untraced.wall.as_secs_f64()
    ));
    report
}
