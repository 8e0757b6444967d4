//! Metric names and units, the run's outcome, and the printed result.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 11] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("sim_cycles_per_s", "1/s"),
    ("sim_instr_per_s", "1/s"),
    ("llc_calls_per_s", "1/s"),
    ("c1_speedup_geomean", "ratio"),
    ("c1_l2_power_ratio", "ratio"),
    ("l2_dynamic_uj", "uJ"),
];

/// Per-layer metrics, printed by every traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 50] = [
    ("workloads.build_ms", "ms"),
    ("experiments.parallel_efficiency", "ratio"),
    ("experiments.runs_executed", "count"),
    ("experiments.memo_hits", "count"),
    ("sim.gpu_new_ms", "ms"),
    ("sim.run_s", "s"),
    ("sim.frontend_s", "s"),
    ("sim.host_ns_per_cycle", "ns"),
    ("sim.host_ns_per_instr", "ns"),
    ("sim.cycles", "count"),
    ("sim.instructions", "count"),
    ("sim.ipc", "ratio"),
    ("sim.l1_hit_rate", "ratio"),
    ("sim.mshr_stalls", "count"),
    ("sim.sm_idle_cycles", "count"),
    ("sim.dram_reads", "count"),
    ("sim.dram_row_hit_rate", "ratio"),
    ("sim.l2_read_hit_latency_ns", "ns"),
    ("sim.llc_calls_per_kcycle", "count"),
    ("core.replay_s", "s"),
    ("core.share_of_run", "ratio"),
    ("core.ns_per_call", "ns"),
    ("core.ns_per_probe", "ns"),
    ("core.ns_per_fill", "ns"),
    ("core.ns_per_maintain", "ns"),
    ("core.write_share", "ratio"),
    ("core.hit_rate", "ratio"),
    ("core.lr_read_hits", "count"),
    ("core.hr_read_hits", "count"),
    ("core.lr_write_hits", "count"),
    ("core.hr_write_hits", "count"),
    ("core.second_search_hits", "count"),
    ("core.migrations_to_lr", "count"),
    ("core.demotions_to_hr", "count"),
    ("core.refreshes", "count"),
    ("core.overflow_writebacks", "count"),
    ("core.lr_write_utilization", "ratio"),
    ("core.policy.adaptive_retention_time_ratio", "ratio"),
    ("core.policy.adaptive_ways_time_ratio", "ratio"),
    ("cache.setassoc_hit_ns", "ns"),
    ("cache.setassoc_fill_evict_ns", "ns"),
    ("cache.mshr_alloc_complete_ns", "ns"),
    ("tracefile.encode_mb_per_s", "MB/s"),
    ("tracefile.decode_mb_per_s", "MB/s"),
    ("tracefile.bytes_per_record", "B"),
    ("trace.check_time_ratio", "ratio"),
    ("trace.violations", "count"),
    ("bench.trace_overhead_s", "s"),
    ("bench.timer_ns_per_call", "ns"),
    ("bench.workers", "count"),
];

/// The paper's Fig. 8 geomean speedup of C1 over the SRAM baseline.
pub const PAPER_C1_SPEEDUP: f64 = 1.16;
/// The paper's C1 L2 total power relative to the SRAM baseline.
pub const PAPER_C1_POWER: f64 = 0.80;

/// Everything one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations (or whole-run checks) that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets metric `name`, which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not listed in BENCHMARK.json's metric tables"
        );
        self.values.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one failed operation or check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.failures.push(what.into());
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result line: exactly the metrics of `table`, each finite.
    /// A missing or non-finite metric marks the run incorrect.
    pub fn result_json(&mut self, table: &[(&'static str, &'static str)]) -> String {
        let mut fields = Vec::new();
        for &(name, unit) in table {
            match self.get(name) {
                Some(v) if v.is_finite() => {
                    fields.push(format!(
                        "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                    ));
                }
                other => self.fail(format!("metric {name} has no finite value ({other:?})")),
            }
        }
        let correct = self.failed == 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }

    /// Human-readable lines: notes, failures, then every metric set.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("# FAILED: {f}\n"));
        }
        for (name, v) in &self.values {
            let unit = unit_of(name).expect("set() admits listed names only");
            out.push_str(&format!("{name:<44} {v:>18.6} {unit}\n"));
        }
        out
    }
}

/// The unit of a listed metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Peak resident set of this process, MB (the `VmHWM` line of
/// `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Output of a provenance command, or `unknown`.
fn command_line(program: &str, args: &[&str], dir: &std::path::Path) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `nproc`, the git revision of the source tree and `rustc -V`.
pub fn provenance() -> Vec<String> {
    let bench_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let revision = if bench_dir.join("../.git").exists() {
        command_line("git", &["rev-parse", "HEAD"], bench_dir)
    } else {
        "unknown (source tree is not a git checkout)".to_owned()
    };
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    vec![
        format!("nproc: {nproc}"),
        format!("git revision: {revision}"),
        format!("rustc: {}", command_line("rustc", &["-V"], bench_dir)),
    ]
}

/// The paper's figure and the measured one's relative error, for printing.
pub fn versus_paper(measured: f64, paper: f64) -> String {
    format!(
        "paper {paper:.2}, error {:+.1}%",
        (measured / paper - 1.0) * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::json::{parse, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
    }

    fn table(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .expect("metric table")
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Value::str).expect("name").to_owned(),
                    m.get("unit").and_then(Value::str).expect("unit").to_owned(),
                )
            })
            .collect()
    }

    fn owned(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let spec = benchmark_json();
        assert_eq!(table(&spec, "end_to_end"), owned(&END_TO_END));
        assert_eq!(table(&spec, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .expect("workloads")
            .arr()
            .iter()
            .map(|w| w.get("name").and_then(Value::str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_carries_exactly_the_table() {
        let mut r = Report::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.5 + i as f64);
        }
        r.set("sim.cycles", 3.0);
        r.attempted = 4;
        let line = parse(&r.result_json(&END_TO_END));
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(line.get("failed"), Some(&Value::Num(0.0)));
        let Some(Value::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn a_missing_metric_fails_the_run() {
        let mut r = Report {
            attempted: 1,
            ..Default::default()
        };
        let line = parse(&r.result_json(&END_TO_END[..1]));
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
    }
}
