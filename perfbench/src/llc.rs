//! `llc-write` and `llc-read`: LLC-only replays. Set-up records each
//! member's LLC call stream from a seeded C1 run and round-trips it
//! through the trace codec; one operation is one raw-mode
//! `replay_records` of one stream on the C1 geometry.

use std::time::Instant;

use sttgpu_core::{LlcModel, LlcPolicy, TwoPartConfig, TwoPartLlc, TwoPartStats};
use sttgpu_experiments::configs::two_part_config;
use sttgpu_experiments::{gpu_config, replay_records, L2Choice, ReplayOutput, RunPlan};
use sttgpu_sim::{Gpu, RunMetrics, Workload};
use sttgpu_tracefile::{TraceHeader, TraceRecord};

use crate::inputs::{members_named, BUILTIN_SEED};
use crate::layers::{
    decode, drive, drive_timed, encode, timer_overhead_ns, CoreCounts, KIND_NAMES,
};
use crate::pool::{host_workers, run_pass, Pass};
use crate::report::{peak_rss_mb, Report};
use crate::shared::{self, Fig8Point, MIN_OP_SAMPLES};
use crate::spans::{span_opt, Tracer};
use crate::stats::{digest_of, fnv64, median, ratio, tail_percentile};
use crate::Args;

/// Times the set-up is repeated in a timed run; its median is `setup_s`.
const SETUP_REPS: usize = 3;

/// Host time the traced run spends on untraced, then on traced, passes.
const TRACE_PASS_SECONDS: f64 = 1.0;

/// Replays of each stream under each policy in the traced run.
const POLICY_REPS: usize = 3;

/// One member's recorded stream and the runs around it.
pub struct Stream {
    /// The member, as generated.
    pub workload: Workload,
    /// The call stream, as decoded from its binary encoding.
    pub records: Vec<TraceRecord>,
    /// Size of the binary encoding, bytes.
    pub encoded_bytes: u64,
    /// Digest of the binary encoding.
    pub encoded_digest: u64,
    /// The recording run's LLC statistics (a replay must reproduce them).
    pub stats: TwoPartStats,
    /// The recording C1 run.
    pub c1: RunMetrics,
    /// The same member on the SRAM baseline.
    pub base: RunMetrics,
}

/// A set-up run: its metrics, plus the LLC statistics and call log when
/// it was a recording.
struct Job {
    metrics: RunMetrics,
    recorded: Option<(TwoPartStats, Vec<TraceRecord>)>,
}

fn max_cycles() -> u64 {
    RunPlan::full().max_cycles
}

/// The replay geometry: C1's two-part LLC.
fn c1_geometry() -> TwoPartConfig {
    two_part_config(L2Choice::TwoPartC1).expect("C1 is a two-part design")
}

fn header() -> TraceHeader {
    TraceHeader::raw(c1_geometry().line_bytes)
}

/// Runs `w` on C1 with the LLC call log on.
fn record(w: &Workload, tracer: Option<&Tracer>) -> Result<Job, String> {
    let id = tracer.map_or(0, Tracer::new_id);
    let mut gpu = span_opt(tracer, "sim.gpu_new", id, None, |_| {
        Gpu::new(gpu_config(L2Choice::TwoPartC1))
    });
    gpu.start_llc_call_log();
    let metrics = span_opt(tracer, "sim.run_workload", id, None, |_| {
        gpu.run_workload(w, max_cycles())
    });
    let log = gpu
        .take_llc_call_log()
        .ok_or("the LLC call log was not on")?;
    let stats = *gpu
        .llc()
        .as_two_part()
        .ok_or("C1 has a two-part LLC")?
        .stats();
    Ok(Job {
        metrics,
        recorded: Some((stats, log)),
    })
}

/// Round-trips a recorded log through the trace codec; returns the decoded
/// stream and the encoding's size and digest.
fn round_trip(
    name: &str,
    log: Vec<TraceRecord>,
    tracer: Option<&Tracer>,
) -> Result<(Vec<TraceRecord>, u64, u64), String> {
    let id = tracer.map_or(0, Tracer::new_id);
    let bytes = span_opt(tracer, "tracefile.encode", id, None, |_| {
        encode(header(), &log)
    })?;
    let (decoded_header, records) =
        span_opt(tracer, "tracefile.decode", id, None, |_| decode(&bytes))?;
    if decoded_header != header() || records != log {
        return Err(format!(
            "{name}: trace codec round trip changed the call stream"
        ));
    }
    Ok((records, bytes.len() as u64, fnv64(&bytes)))
}

fn baseline(w: &Workload, tracer: Option<&Tracer>) -> Job {
    let id = tracer.map_or(0, Tracer::new_id);
    let mut gpu = span_opt(tracer, "sim.gpu_new", id, None, |_| {
        Gpu::new(gpu_config(L2Choice::SramBaseline))
    });
    let metrics = span_opt(tracer, "sim.baseline_run", id, None, |_| {
        gpu.run_workload(w, max_cycles())
    });
    Job {
        metrics,
        recorded: None,
    }
}

/// Set-up: generates the members, records each one's stream on C1 and
/// runs it on the SRAM baseline, and checks every run finished. Returns
/// the streams and the host time of those GPU runs, seconds.
///
/// The runs go one at a time on the calling thread. Spread over worker
/// threads, each repetition's memory landed in whichever allocator arenas
/// the new threads drew, and the set-up's memory peak swung by a fifth
/// from run to run.
pub fn record_streams(
    set: &[&str],
    seed: u64,
    tracer: Option<&Tracer>,
) -> Result<(Vec<Stream>, f64), String> {
    let op = tracer.map_or(0, Tracer::new_id);
    let members = span_opt(tracer, "workloads.build", op, None, |_| {
        members_named(set, seed)
    });
    let pass = run_pass(1, 2 * members.len(), |j| {
        let w = &members[j / 2];
        if j % 2 == 0 {
            record(w, tracer)
        } else {
            Ok(baseline(w, tracer))
        }
    });
    let runs_s = pass.wall.as_secs_f64();
    let mut jobs = pass.ops.into_iter().map(|t| t.result);
    let mut streams = Vec::new();
    for w in members {
        let recorded = jobs.next().expect("two jobs per member");
        let based = jobs.next().expect("two jobs per member");
        let (
            Ok(Ok(Job {
                metrics,
                recorded: Some((stats, log)),
            })),
            Ok(Ok(Job { metrics: base, .. })),
        ) = (recorded, based)
        else {
            return Err(format!("{}: recording or baseline run failed", w.name));
        };
        if !metrics.finished || !base.finished {
            return Err(format!(
                "{}: did not finish within the cycle budget",
                w.name
            ));
        }
        let (records, encoded_bytes, encoded_digest) = round_trip(&w.name, log, tracer)?;
        streams.push(Stream {
            workload: w,
            records,
            encoded_bytes,
            encoded_digest,
            stats,
            c1: metrics,
            base,
        });
    }
    Ok((streams, runs_s))
}

/// What identifies a set-up's outputs.
fn setup_digest(streams: &[Stream]) -> u64 {
    let parts: Vec<_> = streams
        .iter()
        .map(|s| {
            (
                &s.workload,
                s.encoded_digest,
                s.records.len(),
                &s.stats,
                &s.c1,
                &s.base,
            )
        })
        .collect();
    digest_of(&parts)
}

/// One pass replaying every stream, optionally under spans.
fn replay_pass(
    streams: &[Stream],
    workers: usize,
    tracer: Option<&Tracer>,
) -> Pass<Result<ReplayOutput, String>> {
    let cfg = c1_geometry();
    let header = header();
    run_pass(workers, streams.len(), |i| {
        let id = tracer.map_or(0, Tracer::new_id);
        span_opt(tracer, "experiments.replay_records", id, None, |_| {
            replay_records(&cfg, &header, &streams[i].records, false)
        })
    })
}

/// Checks every replay reproduced its recording's statistics.
fn verify_replays(
    report: &mut Report,
    pass: &Pass<Result<ReplayOutput, String>>,
    streams: &[Stream],
) {
    for (t, s) in pass.ops.iter().zip(streams) {
        match &t.result {
            Ok(Ok(out)) if out.stats == s.stats && out.records == s.records.len() as u64 => {}
            Ok(Ok(_)) => report.fail(format!(
                "{}: replay statistics differ from the recording's",
                s.workload.name
            )),
            Ok(Err(msg)) | Err(msg) => report.fail(format!("{}: {msg}", s.workload.name)),
        }
    }
    report.attempted += streams.len() as u64;
}

fn notes(report: &mut Report, name: &str, set: &[&str], workers: usize) {
    report.note(format!(
        "workload {name}: one operation = raw-mode replay_records of one member's recorded C1 call stream ({})",
        set.join(", ")
    ));
    shared::common_notes(report, workers);
}

/// Sets the simulated figures of the set-up's GPU runs and, under the
/// built-in seed, checks them against `results/fig8.csv`.
fn set_simulated(report: &mut Report, args: &Args, streams: &[Stream]) {
    let pairs: Vec<(&RunMetrics, &RunMetrics)> = streams.iter().map(|s| (&s.c1, &s.base)).collect();
    let (speedup, power) = shared::c1_ratios(&pairs);
    report.set("c1_speedup_geomean", speedup);
    report.set("c1_l2_power_ratio", power);
    shared::note_versus_paper(
        report,
        speedup,
        power,
        "this stream set's members only (the paper's figures are 16-member geomeans)",
    );
    if args.seed == BUILTIN_SEED {
        let points: Vec<Fig8Point<'_>> = streams
            .iter()
            .flat_map(|s| {
                [("baseline", &s.base), ("C1", &s.c1)].map(|(config, run)| Fig8Point {
                    member: &s.workload.name,
                    config,
                    run,
                    base: &s.base,
                })
            })
            .collect();
        shared::check_fig8(report, &points);
    }
}

/// Replays every stream call by call on a fresh C1 LLC and checks its
/// statistics and dynamic energy against the recording's; returns the
/// summed dynamic energy, nJ.
fn replay_energy_nj(report: &mut Report, streams: &[Stream]) -> f64 {
    let mut total = 0.0;
    for s in streams {
        let mut llc = TwoPartLlc::new(c1_geometry());
        drive(&mut llc, &s.records);
        report.attempted += 1;
        if *llc.stats() != s.stats || llc.energy().dynamic_nj() != s.c1.l2_energy.dynamic_nj() {
            report.fail(format!(
                "{}: call-by-call replay differs from the recording",
                s.workload.name
            ));
        }
        total += llc.energy().dynamic_nj();
    }
    total
}

/// The timed, untraced run.
pub fn timed(args: &Args, name: &str, set: &[&str]) -> Report {
    let mut report = Report::default();
    let workers = host_workers();
    notes(&mut report, name, set, workers);
    let mut setup_times = Vec::new();
    let mut cycle_rates = Vec::new();
    let mut instr_rates = Vec::new();
    let mut streams = Vec::new();
    let mut digest = None;
    let mut dyn_nj = 0.0;
    let mut walls = Vec::new();
    let mut op_ms = Vec::new();
    // Each set-up is followed by an equal share of the timed replays, so
    // the set-ups sample the host at different moments of the run.
    for rep in 0..SETUP_REPS {
        // The previous repetition's streams go first, so they do not
        // count into this one's memory peak.
        streams.clear();
        let t = Instant::now();
        let runs_s;
        (streams, runs_s) = match record_streams(set, args.seed, None) {
            Ok(s) => s,
            Err(e) => {
                report.fail(format!("set-up: {e}"));
                return report;
            }
        };
        setup_times.push(t.elapsed().as_secs_f64());
        let runs = streams.iter().flat_map(|s| [&s.c1, &s.base]);
        cycle_rates.push(runs.clone().map(|m| m.cycles as f64).sum::<f64>() / runs_s);
        instr_rates.push(runs.map(|m| m.instructions as f64).sum::<f64>() / runs_s);
        let d = setup_digest(&streams);
        if digest.is_some_and(|prev| prev != d) {
            report.fail("set-up outputs differ between repetitions");
        }
        digest = Some(d);

        // One untimed pass lets allocator and CPU caches settle; it is
        // checked like the rest.
        verify_replays(&mut report, &replay_pass(&streams, workers, None), &streams);
        if rep == 0 {
            dyn_nj = replay_energy_nj(&mut report, &streams);
        }
        let last = rep + 1 == SETUP_REPS;
        let start = Instant::now();
        loop {
            let pass = replay_pass(&streams, workers, None);
            verify_replays(&mut report, &pass, &streams);
            walls.push(pass.wall.as_secs_f64());
            op_ms.extend(pass.ops.iter().map(|t| t.elapsed.as_secs_f64() * 1e3));
            if start.elapsed().as_secs_f64() >= args.seconds / SETUP_REPS as f64
                && (!last || op_ms.len() >= MIN_OP_SAMPLES)
            {
                break;
            }
        }
    }
    let wall_s = median(&walls).expect("at least one pass");
    let calls: f64 = streams.iter().map(|s| s.records.len() as f64).sum();
    report.note(format!(
        "{} passes, {} timed operations, {} recorded calls per pass; wall_s is the median pass",
        walls.len(),
        op_ms.len(),
        calls
    ));
    report.note("from the replays: wall_s, op_ms_p50, op_ms_p90, llc_calls_per_s and l2_dynamic_uj (one call-by-call replay of the stream set)");
    report.note("from the set-up's GPU runs (C1 recordings and SRAM baselines), so a sim front-end change moves them here too: setup_s, sim_cycles_per_s and sim_instr_per_s (their simulated totals over their host time, median of the set-ups), c1_speedup_geomean, c1_l2_power_ratio, and peak_rss_mb (the process high-water mark, set-up included)");
    report.set("wall_s", wall_s);
    report.set("setup_s", median(&setup_times).expect("set-up ran"));
    report.set(
        "op_ms_p50",
        tail_percentile(&op_ms, 0.5).unwrap_or(f64::NAN),
    );
    report.set(
        "op_ms_p90",
        tail_percentile(&op_ms, 0.9).unwrap_or(f64::NAN),
    );
    report.set(
        "sim_cycles_per_s",
        median(&cycle_rates).expect("set-up ran"),
    );
    report.set("sim_instr_per_s", median(&instr_rates).expect("set-up ran"));
    report.set("llc_calls_per_s", calls / wall_s);
    report.set("l2_dynamic_uj", dyn_nj / 1e3);
    set_simulated(&mut report, args, &streams);
    report.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    report
}

/// Replay passes for at least [`TRACE_PASS_SECONDS`] (and five passes),
/// or exactly `count` passes when given.
fn replay_passes(
    report: &mut Report,
    streams: &[Stream],
    workers: usize,
    tracer: Option<&Tracer>,
    count: Option<usize>,
) -> Vec<Pass<Result<ReplayOutput, String>>> {
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        let done = match count {
            Some(n) => passes.len() >= n,
            None => passes.len() >= 5 && start.elapsed().as_secs_f64() >= TRACE_PASS_SECONDS,
        };
        if done {
            return passes;
        }
        let pass = replay_pass(streams, workers, tracer);
        verify_replays(report, &pass, streams);
        passes.push(pass);
    }
}

fn median_wall<R>(passes: &[Pass<R>]) -> f64 {
    median(
        &passes
            .iter()
            .map(|p| p.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    )
    .expect("passes ran")
}

/// Replays of every stream on the C1 geometry under `policy`, one at a
/// time on this thread: the sum over streams of the median of
/// [`POLICY_REPS`] replays, seconds. The recordings were made under the
/// fixed policy, so only a fixed-policy replay must reproduce their
/// statistics.
fn policy_replay_s(report: &mut Report, streams: &[Stream], policy: LlcPolicy) -> f64 {
    let mut cfg = c1_geometry();
    cfg.policy = policy;
    let mut total = 0.0;
    for s in streams {
        let mut times = Vec::new();
        for _ in 0..POLICY_REPS {
            let t = Instant::now();
            let out = replay_records(&cfg, &header(), &s.records, false);
            times.push(t.elapsed().as_secs_f64());
            report.attempted += 1;
            match out {
                Ok(o)
                    if o.records == s.records.len() as u64
                        && (policy != LlcPolicy::Fixed || o.stats == s.stats) => {}
                other => report.fail(format!(
                    "{} under {}: replay failed or differs: {:?}",
                    s.workload.name,
                    policy.name(),
                    other.map(|o| o.records)
                )),
            }
        }
        total += median(&times).expect("replays ran");
    }
    total
}

/// The traced run: set-up and replays under spans, a call-by-call drive,
/// checked replays, and replays under each policy.
pub fn traced(args: &Args, name: &str, set: &[&str], tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let workers = host_workers();
    notes(&mut report, name, set, workers);
    let streams = match record_streams(set, args.seed, Some(tracer)) {
        Ok((s, _)) => s,
        Err(e) => {
            report.fail(format!("set-up: {e}"));
            return report;
        }
    };
    let untraced = replay_passes(&mut report, &streams, workers, None, None);
    let traced = replay_passes(
        &mut report,
        &streams,
        workers,
        Some(tracer),
        Some(untraced.len()),
    );

    // Call by call, against the recording's statistics and energy.
    let cfg = c1_geometry();
    for s in &streams {
        let id = tracer.new_id();
        let llc = tracer.span("core.drive_timed", id, None, |span| {
            let mut llc = TwoPartLlc::new(cfg.clone());
            let kinds = drive_timed(&mut llc, &s.records);
            for (kind, (calls, total)) in KIND_NAMES.iter().zip(kinds) {
                tracer.tally(kind, id, span, calls, total);
            }
            llc
        });
        report.attempted += 1;
        if *llc.stats() != s.stats || llc.energy().dynamic_nj() != s.c1.l2_energy.dynamic_nj() {
            report.fail(format!(
                "{}: call-by-call replay differs from the recording",
                s.workload.name
            ));
        }
    }

    // Checked replays, against the median unchecked time of each stream.
    let mut violations = 0;
    let mut checked_s = 0.0;
    let mut unchecked_s = 0.0;
    for (i, s) in streams.iter().enumerate() {
        let t = Instant::now();
        let out = replay_records(&cfg, &header(), &s.records, true);
        checked_s += t.elapsed().as_secs_f64();
        let times: Vec<f64> = untraced
            .iter()
            .map(|p| p.ops[i].elapsed.as_secs_f64())
            .collect();
        unchecked_s += median(&times).expect("passes ran");
        report.attempted += 1;
        match out.map(|o| o.check) {
            Ok(Some(check)) => violations += check.violations,
            other => report.fail(format!(
                "{}: checked replay failed: {other:?}",
                s.workload.name
            )),
        }
    }
    if violations > 0 {
        report.fail(format!("invariant checker found {violations} violations"));
    }

    // The streams replayed under each policy, one at a time.
    let policy_s = [
        LlcPolicy::Fixed,
        LlcPolicy::AdaptiveRetention,
        LlcPolicy::AdaptiveWays,
    ]
    .map(|policy| policy_replay_s(&mut report, &streams, policy));

    let calls: u64 = streams.iter().map(|s| s.records.len() as u64).sum();
    let bytes: u64 = streams.iter().map(|s| s.encoded_bytes).sum();
    let runs: Vec<&RunMetrics> = streams.iter().map(|s| &s.c1).collect();
    let mut core = CoreCounts::default();
    for s in &streams {
        core.add(&s.stats);
    }
    let busy: f64 = untraced.iter().map(|p| p.busy().as_secs_f64()).sum();
    let walls: f64 = untraced.iter().map(|p| p.wall.as_secs_f64()).sum();

    report.set(
        "workloads.build_ms",
        tracer.total_s("workloads.build") * 1e3 / tracer.count("workloads.build") as f64,
    );
    report.set(
        "experiments.parallel_efficiency",
        busy / (walls * workers as f64),
    );
    report.set("experiments.runs_executed", streams.len() as f64);
    report.set("experiments.memo_hits", 0.0);
    report.note(
        "experiments.memo_hits: llc-* replays through no executor, so it is 0 by construction",
    );
    report.set(
        "sim.gpu_new_ms",
        tracer.total_s("sim.gpu_new") * 1e3 / tracer.count("sim.gpu_new") as f64,
    );
    shared::set_run_split(
        &mut report,
        tracer.total_s("sim.run_workload"),
        tracer.total_s("experiments.replay_records") / traced.len() as f64,
        calls,
        runs.iter().map(|m| m.cycles as f64).sum(),
        runs.iter().map(|m| m.instructions as f64).sum(),
    );
    report.note("sim.run_s: the recording C1 runs of set-up; core.replay_s: one traced replay of their streams; sim.frontend_s is their difference, an estimate");
    shared::set_sim_counts(&mut report, &runs, calls);
    shared::set_core_counts(&mut report, &core);
    shared::set_per_kind(&mut report, tracer, timer_overhead_ns());
    report.set(
        "core.policy.adaptive_retention_time_ratio",
        ratio(policy_s[1], policy_s[0]),
    );
    report.set(
        "core.policy.adaptive_ways_time_ratio",
        ratio(policy_s[2], policy_s[0]),
    );
    report.note("core.policy.*: replays of the fixed-policy recordings with the LLC under each policy, so the PolicyEngine's own host cost; gpu-suite measures whole C1 runs under each policy");
    shared::set_cache_times(&mut report);
    shared::set_codec_rates(&mut report, tracer, bytes, calls);
    report.set("trace.check_time_ratio", ratio(checked_s, unchecked_s));
    report.set("trace.violations", violations as f64);
    report.set(
        "bench.trace_overhead_s",
        median_wall(&traced) - median_wall(&untraced),
    );
    report.set("bench.workers", workers as f64);
    report.note(format!(
        "{} untraced and {} traced replay passes",
        untraced.len(),
        traced.len()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{READ_SET, WRITE_SET};

    fn write_share(set: &[&str], seed: u64) -> f64 {
        let (streams, _) = record_streams(set, seed, None).expect("set-up");
        let mut core = CoreCounts::default();
        for s in &streams {
            core.add(&s.stats);
        }
        core.write_share()
    }

    #[test]
    fn stream_sets_keep_the_traffic_they_were_chosen_for() {
        for seed in [1, 2] {
            let w = write_share(&WRITE_SET, seed);
            let r = write_share(&READ_SET, seed);
            assert!(w >= 0.6, "llc-write write share {w} at seed {seed}");
            assert!(r <= 0.3, "llc-read write share {r} at seed {seed}");
        }
    }
}
