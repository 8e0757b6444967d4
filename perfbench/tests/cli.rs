//! Runs the benchmark binary end to end, as it is invoked, and checks the
//! contract of its result line.

use std::process::Command;

use perfbench::json::{parse, Value};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::WORKLOADS;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn result_line(workload: &str, trace: &str) -> Value {
    let out = run(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited {:?}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    parse(stdout.lines().last().expect("a result line"))
}

/// Both runs of `workload` pass their checks and print exactly their
/// metric table.
fn prints_exactly_its_metric_tables(workload: &str) {
    assert!(WORKLOADS.contains(&workload));
    for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        let line = result_line(workload, trace);
        assert_eq!(
            line.get("correct"),
            Some(&Value::Bool(true)),
            "{workload} trace {trace}"
        );
        assert_eq!(line.get("failed"), Some(&Value::Num(0.0)));
        let Some(Value::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics object");
        };
        let printed: Vec<(&str, &str)> = metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.as_str(),
                    m.get("unit").and_then(Value::str).expect("unit"),
                )
            })
            .collect();
        assert_eq!(printed, table, "{workload} trace {trace}");
    }
}

#[test]
fn gpu_suite_prints_exactly_its_metric_tables() {
    prints_exactly_its_metric_tables("gpu-suite");
}

#[test]
fn llc_write_prints_exactly_its_metric_tables() {
    prints_exactly_its_metric_tables("llc-write");
}

#[test]
fn llc_read_prints_exactly_its_metric_tables() {
    prints_exactly_its_metric_tables("llc-read");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "llc-read", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "llc-read",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "llc-read",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
