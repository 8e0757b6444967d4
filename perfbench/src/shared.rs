//! Pieces both kinds of workload use: the Fig. 8 reference check, the
//! simulated-statistics aggregates, and the notes every result carries.

use std::collections::HashMap;

use sttgpu_sim::RunMetrics;

use crate::layers::CoreCounts;
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{geomean, ratio};

/// Operation samples a timed run collects at least, so that `op_ms_p90`
/// has ten samples beyond it.
pub const MIN_OP_SAMPLES: usize = 100;

/// The repository's full-scale Fig. 8 artefact.
const FIG8_CSV: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/fig8.csv");

/// One member on one configuration next to its SRAM-baseline run.
pub struct Fig8Point<'a> {
    /// Suite member name.
    pub member: &'a str,
    /// Configuration label as `results/fig8.csv` writes it.
    pub config: &'static str,
    /// The configuration's run.
    pub run: &'a RunMetrics,
    /// The SRAM baseline's run of the same member.
    pub base: &'a RunMetrics,
}

impl Fig8Point<'_> {
    /// Speedup, dynamic-power and total-power ratios, formatted as
    /// `results/fig8.csv` writes them.
    fn cells(&self) -> [String; 3] {
        let dyn_ratio = self.run.l2_dynamic_power_mw() / self.base.l2_dynamic_power_mw().max(1e-9);
        let tot_ratio = self.run.l2_total_power_mw() / self.base.l2_total_power_mw().max(1e-9);
        [
            format!("{:.6}", self.run.speedup_over(self.base)),
            format!("{dyn_ratio:.6}"),
            format!("{tot_ratio:.6}"),
        ]
    }
}

/// Compares every point with `results/fig8.csv`; each mismatching or
/// missing point counts as one failure.
pub fn check_fig8(report: &mut Report, points: &[Fig8Point<'_>]) {
    let text = match std::fs::read_to_string(FIG8_CSV) {
        Ok(t) => t,
        Err(e) => {
            report.fail(format!("fig8 reference {FIG8_CSV} unreadable: {e}"));
            return;
        }
    };
    let reference: HashMap<(&str, &str), [&str; 3]> = text
        .lines()
        .skip(1)
        .filter_map(|line| {
            let c: Vec<&str> = line.split(',').collect();
            (c.len() == 6).then(|| ((c[0], c[2]), [c[3], c[4], c[5]]))
        })
        .collect();
    let mut mismatches = 0;
    for p in points {
        let got = p.cells();
        match reference.get(&(p.member, p.config)) {
            Some(want) if want.iter().zip(&got).all(|(w, g)| w == g) => {}
            other => {
                mismatches += 1;
                report.fail(format!(
                    "fig8 {} on {}: measured {got:?}, results/fig8.csv has {other:?}",
                    p.member, p.config
                ));
            }
        }
    }
    report.note(format!(
        "fig8 check: {} (member, config) points against results/fig8.csv, {mismatches} mismatches",
        points.len()
    ));
}

/// Geomean over members of C1's speedup and L2 total-power ratio against
/// the SRAM baseline, from (C1 run, baseline run) pairs.
pub fn c1_ratios(pairs: &[(&RunMetrics, &RunMetrics)]) -> (f64, f64) {
    let speedups: Vec<f64> = pairs.iter().map(|(c1, b)| c1.speedup_over(b)).collect();
    let powers: Vec<f64> = pairs
        .iter()
        .map(|(c1, b)| ratio(c1.l2_total_power_mw(), b.l2_total_power_mw()))
        .collect();
    (
        geomean(&speedups).unwrap_or(f64::NAN),
        geomean(&powers).unwrap_or(f64::NAN),
    )
}

/// Sets the simulated `sim.*` statistics, summed over `runs`, whose LLCs
/// received `llc_calls` calls in all.
pub fn set_sim_counts(report: &mut Report, runs: &[&RunMetrics], llc_calls: u64) {
    let sum = |f: fn(&RunMetrics) -> u64| runs.iter().map(|m| f(m)).sum::<u64>() as f64;
    let cycles = sum(|m| m.cycles);
    let instructions = sum(|m| m.instructions);
    let l1_hits = sum(|m| m.l1_read_hits);
    let l1_total = l1_hits + sum(|m| m.l1_read_misses);
    let dram_reads = sum(|m| m.dram_reads);
    let read_hits = sum(|m| m.l2.read_hits);
    let hit_latency: f64 = runs
        .iter()
        .map(|m| m.l2_read_hit_latency_ns * m.l2.read_hits as f64)
        .sum();
    report.set("sim.cycles", cycles);
    report.set("sim.instructions", instructions);
    report.set("sim.ipc", ratio(instructions, cycles));
    report.set("sim.l1_hit_rate", ratio(l1_hits, l1_total));
    report.set("sim.mshr_stalls", sum(|m| m.mshr_stalls));
    report.set("sim.sm_idle_cycles", sum(|m| m.sm_idle_cycles));
    report.set("sim.dram_reads", dram_reads);
    report.set(
        "sim.dram_row_hit_rate",
        ratio(sum(|m| m.dram_row_hits), dram_reads),
    );
    report.set("sim.l2_read_hit_latency_ns", ratio(hit_latency, read_hits));
    report.set(
        "sim.llc_calls_per_kcycle",
        ratio(llc_calls as f64 * 1000.0, cycles),
    );
}

/// Sets the simulated `core.*` statistics from summed two-part counters.
pub fn set_core_counts(report: &mut Report, c: &CoreCounts) {
    report.set("core.write_share", c.write_share());
    report.set("core.hit_rate", c.hit_rate());
    report.set("core.lr_read_hits", c.lr_read_hits as f64);
    report.set("core.hr_read_hits", c.hr_read_hits as f64);
    report.set("core.lr_write_hits", c.lr_write_hits as f64);
    report.set("core.hr_write_hits", c.hr_write_hits as f64);
    report.set("core.second_search_hits", c.second_search_hits as f64);
    report.set("core.migrations_to_lr", c.migrations_to_lr as f64);
    report.set("core.demotions_to_hr", c.demotions_to_hr as f64);
    report.set("core.refreshes", c.refreshes as f64);
    report.set("core.overflow_writebacks", c.overflow_writebacks as f64);
    report.set("core.lr_write_utilization", c.lr_write_utilization());
}

/// Sets the host-time split between the simulator and the LLC: `run_s`
/// of full simulation against `replay_s` of standalone replay of the same
/// LLC call streams, which made `calls` calls over `cycles` simulated
/// cycles and `instructions` instructions.
pub fn set_run_split(
    report: &mut Report,
    run_s: f64,
    replay_s: f64,
    calls: u64,
    cycles: f64,
    instructions: f64,
) {
    report.set("sim.run_s", run_s);
    report.set("core.replay_s", replay_s);
    report.set("sim.frontend_s", run_s - replay_s);
    report.set("core.share_of_run", ratio(replay_s, run_s));
    report.set("sim.host_ns_per_cycle", ratio(run_s * 1e9, cycles));
    report.set("sim.host_ns_per_instr", ratio(run_s * 1e9, instructions));
    report.set("core.ns_per_call", ratio(replay_s * 1e9, calls as f64));
}

/// Sets `core.ns_per_{probe,fill,maintain}` from the per-call tallies,
/// less the timer's own cost per call (`bench.timer_ns_per_call`).
pub fn set_per_kind(report: &mut Report, tracer: &Tracer, timer_ns: f64) {
    for (tally, metric) in crate::layers::KIND_NAMES.iter().zip([
        "core.ns_per_probe",
        "core.ns_per_fill",
        "core.ns_per_maintain",
    ]) {
        let (calls, ns) = tracer.tally_total(tally);
        report.set(metric, (ratio(ns as f64, calls as f64) - timer_ns).max(0.0));
    }
    report.set("bench.timer_ns_per_call", timer_ns);
}

/// Sets the `cache.*` loop timings.
pub fn set_cache_times(report: &mut Report) {
    let c = crate::layers::cache_times(2_000_000);
    report.set("cache.setassoc_hit_ns", c.hit_ns);
    report.set("cache.setassoc_fill_evict_ns", c.fill_evict_ns);
    report.set("cache.mshr_alloc_complete_ns", c.mshr_ns);
}

/// Sets the `tracefile.*` codec rates from the encode/decode spans over
/// `bytes` encoded bytes holding `records` records.
pub fn set_codec_rates(report: &mut Report, tracer: &Tracer, bytes: u64, records: u64) {
    let mb = bytes as f64 / 1e6;
    report.set(
        "tracefile.encode_mb_per_s",
        ratio(mb, tracer.total_s("tracefile.encode")),
    );
    report.set(
        "tracefile.decode_mb_per_s",
        ratio(mb, tracer.total_s("tracefile.decode")),
    );
    report.set(
        "tracefile.bytes_per_record",
        ratio(bytes as f64, records as f64),
    );
}

/// Notes every result carries: how the load is offered, the cache state
/// each operation starts from, and what the simulated figures rest on.
pub fn common_notes(report: &mut Report, workers: usize) {
    report.note(format!(
        "load: closed loop, {workers} worker(s) (one per available core); each worker starts its next operation only when its last one returned"
    ));
    report.note("modelled caches start empty in every operation, as in the paper's runs");
    report.note(
        "simulated figures come from an unvalidated model: the only reference is the paper's reported numbers, not hardware",
    );
}

/// Prints C1's speedup and power ratio beside the paper's figures.
pub fn note_versus_paper(report: &mut Report, speedup: f64, power: f64, scope: &str) {
    use crate::report::{versus_paper, PAPER_C1_POWER, PAPER_C1_SPEEDUP};
    report.note(format!(
        "c1_speedup_geomean {speedup:.4} over {scope} ({}; the repository's full-scale results/fig8.csv reads 1.208)",
        versus_paper(speedup, PAPER_C1_SPEEDUP)
    ));
    report.note(format!(
        "c1_l2_power_ratio {power:.4} over {scope} ({}; results/fig8.csv reads 0.852)",
        versus_paper(power, PAPER_C1_POWER)
    ));
}
