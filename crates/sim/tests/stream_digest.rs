//! Pins the synthetic instruction streams: a digest of every warp's
//! (kind, line addresses) sequence for kernels covering each branch of
//! the generator — the end-of-kernel write phase, local spills, bursts
//! wider than eight lines, write skew, read locality at both extremes,
//! and memory fractions of 0 and 1. The digests were recorded from the
//! generator before it moved to integer Bernoulli thresholds and
//! shift-based line arithmetic; any change to a draw, its order or an
//! address changes them.

use std::sync::Arc;

use sttgpu_sim::config::LineSize;
use sttgpu_sim::kernel::{KernelParams, WritePhase};
use sttgpu_sim::program::{InstrKind, StreamShape, WarpProgram};

/// (name, kernel, digest), for 128-byte L1 lines.
fn kernels() -> Vec<(&'static str, KernelParams, u64)> {
    vec![
        (
            "end_of_kernel",
            KernelParams::new("eok", 4, 96)
                .with_instructions(700)
                .with_mem_fraction(0.5)
                .with_write_fraction(0.3)
                .with_write_phase(WritePhase::EndOfKernel),
            0xd2583773d9e4a7f3,
        ),
        (
            "local_spills",
            KernelParams::new("local", 4, 96)
                .with_instructions(700)
                .with_mem_fraction(0.6)
                .with_write_fraction(0.2)
                .with_local_fraction(0.4),
            0x77e97d10bed54547,
        ),
        (
            "wide_coalescing",
            KernelParams::new("wide", 4, 96)
                .with_instructions(500)
                .with_mem_fraction(0.7)
                .with_write_fraction(0.3)
                .with_read_locality(0.5)
                .with_coalescing(11.3),
            0x3e45577e8cd03c03,
        ),
        (
            "write_skew",
            KernelParams::new("skew", 4, 96)
                .with_instructions(700)
                .with_mem_fraction(0.5)
                .with_write_fraction(0.6)
                .with_footprint_kb(768)
                .with_wws(0.05, 0.9),
            0xee257a07fb0110f2,
        ),
        (
            "random_reads_all_mem",
            KernelParams::new("rl0", 4, 96)
                .with_instructions(600)
                .with_mem_fraction(1.0)
                .with_write_fraction(0.1)
                .with_read_locality(0.0)
                .with_coalescing(2.5),
            0xab992a266e2c21aa,
        ),
        (
            "streaming_reads",
            KernelParams::new("rl1", 4, 96)
                .with_instructions(600)
                .with_mem_fraction(0.4)
                .with_write_fraction(0.0)
                .with_read_locality(1.0)
                .with_coalescing(3.0),
            0x743872f986ec9586,
        ),
        (
            "alu_only",
            KernelParams::new("alu", 4, 96)
                .with_instructions(600)
                .with_mem_fraction(0.0),
            0x2642655708b56825,
        ),
    ]
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// FNV-1a over every warp stream of blocks 0..4: per instruction, a
/// kind code, the address count and each address's little-endian bytes.
fn digest(k: &KernelParams) -> u64 {
    let shape = Arc::new(StreamShape::new(k, LineSize::new(128)));
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut addrs = Vec::new();
    for block in 0..4 {
        for warp in 0..k.warps_per_block() {
            let mut p = WarpProgram::new(Arc::clone(&shape), block, warp, 0x5EED);
            while let Some(kind) = p.next_into(&mut addrs) {
                let code = match kind {
                    InstrKind::Alu => 0,
                    InstrKind::MemRead => 1,
                    InstrKind::MemWrite => 2,
                    InstrKind::LocalRead => 3,
                    InstrKind::LocalWrite => 4,
                };
                fnv(&mut h, &[code, addrs.len() as u8]);
                for a in &addrs {
                    fnv(&mut h, &a.to_le_bytes());
                }
            }
        }
    }
    h
}

#[test]
fn warp_streams_match_their_pinned_digests() {
    for (name, k, want) in kernels() {
        let got = digest(&k);
        assert_eq!(
            got, want,
            "{name}: stream digest {got:#018x}, pinned {want:#018x}"
        );
    }
}
