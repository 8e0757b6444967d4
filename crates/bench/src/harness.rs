//! Minimal wall-clock benchmark harness.
//!
//! Implements just the slice of the criterion API the bench targets use —
//! enough to time a closure, print a stable `ns/iter` style report and run
//! under `cargo bench` with `harness = false`, without any external
//! dependency. Measurements are mean/min/max over a fixed number of
//! samples; each sample batches iterations so that per-sample time is
//! large enough to swamp timer resolution.

use std::time::Instant;

/// Target wall-clock time per sample, used to size iteration batches.
const TARGET_SAMPLE_NS: u128 = 5_000_000; // 5 ms

/// Upper bound on iterations batched into one sample.
const MAX_BATCH: u64 = 100_000;

/// Entry point collecting benchmark registrations.
#[derive(Debug, Default)]
pub struct Criterion {
    default_sample_size: usize,
}

impl Criterion {
    /// Creates a harness with the default sample count (10).
    pub fn new() -> Self {
        Criterion {
            default_sample_size: 10,
        }
    }

    /// Times `f` and prints a one-line report.
    pub fn bench_function(
        &mut self,
        name: impl std::fmt::Display,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_bench(&name.to_string(), self.default_sample_size.max(1), f);
        self
    }
}

/// Passed to the measured closure; call [`Bencher::iter`] with the code
/// under test.
#[derive(Debug)]
pub struct Bencher {
    /// Iterations to run in the current sample.
    batch: u64,
    /// Accumulated nanoseconds for the current sample.
    elapsed_ns: u128,
}

impl Bencher {
    /// Runs the closure `batch` times and records the elapsed wall clock.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let start = Instant::now();
        for _ in 0..self.batch {
            std::hint::black_box(f());
        }
        self.elapsed_ns = start.elapsed().as_nanos();
    }
}

/// One timed sample of `batch` iterations; returns total nanoseconds.
fn sample(b: &mut Bencher, f: &mut impl FnMut(&mut Bencher)) -> u128 {
    b.elapsed_ns = 0;
    f(b);
    b.elapsed_ns
}

fn run_bench(name: &str, samples: usize, mut f: impl FnMut(&mut Bencher)) {
    let mut b = Bencher {
        batch: 1,
        elapsed_ns: 0,
    };
    // Warmup + batch sizing: one iteration tells us roughly how expensive
    // the closure is, then batches aim for TARGET_SAMPLE_NS per sample.
    let warm_ns = sample(&mut b, &mut f).max(1);
    b.batch = ((TARGET_SAMPLE_NS / warm_ns).max(1) as u64).min(MAX_BATCH);

    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let total = sample(&mut b, &mut f);
        per_iter.push(total as f64 / b.batch as f64);
    }
    let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    let min = per_iter.iter().copied().fold(f64::INFINITY, f64::min);
    let max = per_iter.iter().copied().fold(0.0f64, f64::max);
    println!(
        "bench {name:<44} {:>14} ns/iter (min {:>12}, max {:>12}, {} x {} iters)",
        format_ns(mean),
        format_ns(min),
        format_ns(max),
        samples,
        b.batch,
    );
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3}e9", ns / 1e9)
    } else if ns >= 1_000.0 {
        let v = ns as u64;
        // Thousands separators for readability.
        let s = v.to_string();
        let mut out = String::new();
        for (i, ch) in s.chars().enumerate() {
            if i > 0 && (s.len() - i).is_multiple_of(3) {
                out.push(',');
            }
            out.push(ch);
        }
        out
    } else {
        format!("{ns:.1}")
    }
}

/// Declares a bench group function in the style of criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::harness::Criterion::new();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench `main` in the style of criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_closure() {
        let mut calls = 0u64;
        Criterion::new().bench_function("smoke", |b| b.iter(|| calls += 1));
        assert!(calls > 0);
    }
}
