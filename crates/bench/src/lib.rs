//! Component microbenchmarks (`cargo bench -p sttgpu-bench --bench
//! components`): the hot paths of the cache substrate, the two-part LLC,
//! the memory system's event queue, the warp-program generator and an
//! SM's issue loop, each timed in isolation.
//!
//! The harness in [`harness`] is a drop-in for the subset of the criterion
//! API the target uses (`bench_function`, `criterion_group!`/
//! `criterion_main!`), so benches build and run with no registry access.
//! Whole-artefact timings come from `repro`, which writes them to
//! `BENCH_repro.json`.

pub mod harness;
