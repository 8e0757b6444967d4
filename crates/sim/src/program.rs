//! Synthetic warp instruction streams.
//!
//! Every warp executes a procedurally generated stream of ALU and global
//! memory instructions whose statistics come from [`KernelParams`]: the
//! memory fraction, write fraction, footprint, write-working-set skew,
//! read locality, coalescing degree and write phase. Streams are
//! deterministic in (workload seed, kernel index, block id, warp id), so
//! every simulator configuration sees the *same* access trace — the
//! experiments compare architectures, not random draws.
//!
//! The per-kernel constants of a stream — Bernoulli thresholds, the
//! coalescing floor, line counts — live in one shared [`StreamShape`];
//! a [`WarpProgram`] holds only its generator and cursors, and decodes
//! each instruction's addresses into a buffer its caller owns.

use std::sync::Arc;
use sttgpu_stats::Rng;

use crate::config::LineSize;
use crate::kernel::{KernelParams, WritePhase};

/// Base byte address of the local (per-thread) memory region — far above
/// any global footprint so the two spaces never alias.
pub const LOCAL_BASE: u64 = 1 << 40;

/// Cap on a warp's streaming segment, in lines. The window is fixed so
/// the per-SM resident stream working set stays L1-sized regardless of
/// grid scale (real kernels tile their hot data the same way).
const STREAM_WINDOW_LINES: u64 = 2;

/// Lines in a warp's local spill frame.
const LOCAL_FRAME_LINES: u64 = 2;

/// Widest memory instruction, in L1 lines (a fully divergent warp).
const MAX_LINES_PER_OP: usize = 32;

/// A Bernoulli probability pre-scaled to the generator's integer output,
/// so a draw is one shift and one compare instead of an int-to-float
/// conversion and a multiply.
///
/// [`draw`](Chance::draw) consumes exactly the draws `Rng::chance(p)`
/// consumes and returns the same result: `chance` tests
/// `(x >> 11) * 2^-53 < p`, both sides are exact in `f64`, and the left
/// side is an integer times `2^-53`, so the test equals
/// `x >> 11 < ceil(p * 2^53)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chance {
    /// `p <= 0`: false, without drawing.
    Never,
    /// `p >= 1`: true, without drawing.
    Always,
    /// True when the draw's top 53 bits are below the threshold. A NaN
    /// `p` lands here with threshold 0: it draws and is never true, as
    /// `Rng::chance(NaN)` does.
    Below(u64),
}

impl Chance {
    /// A fair coin: `ceil(0.5 * 2^53)`.
    const HALF: Chance = Chance::Below(1 << 52);

    fn new(p: f64) -> Self {
        if p <= 0.0 {
            Chance::Never
        } else if p >= 1.0 {
            Chance::Always
        } else {
            Chance::Below((p * (1u64 << 53) as f64).ceil() as u64)
        }
    }

    #[inline]
    fn draw(self, rng: &mut Rng) -> bool {
        match self {
            Chance::Never => false,
            Chance::Always => true,
            Chance::Below(t) => rng.next_u64() >> 11 < t,
        }
    }
}

/// Kind of one decoded warp instruction. Memory kinds come with their
/// L1-line byte addresses in the buffer passed to
/// [`WarpProgram::next_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrKind {
    /// An arithmetic instruction (register-file only).
    Alu,
    /// A global load.
    MemRead,
    /// A global store.
    MemWrite,
    /// A **local** (per-thread) load — write-back cached in L1.
    LocalRead,
    /// A **local** (per-thread) store — write-back/write-allocate in L1;
    /// dirty evictions flow to L2 later.
    LocalWrite,
}

/// The per-kernel constants every warp stream of a kernel shares,
/// derived once per kernel from [`KernelParams`] and an L1 line size.
#[derive(Debug, Clone)]
pub struct StreamShape {
    instructions: u32,
    line: LineSize,
    addr_base: u64,
    warps_per_block: u32,
    /// Lines in the global footprint (at least 1).
    footprint_lines: u64,
    /// Lines in the write working set (at least 1).
    wws_lines: u64,
    /// Lines in each warp's streaming segment.
    seg_lines: u64,
    /// Lines per memory instruction: the coalescing floor, and the floor
    /// plus one taken with probability `extra_line`.
    lines_floor: usize,
    lines_ceil: usize,
    extra_line: Chance,
    mem: Chance,
    local: Chance,
    /// Write probability of a global memory op from issue index
    /// `write_from` on; before it, no write is drawn.
    write: Chance,
    write_from: u32,
    read_stream: Chance,
    write_skew: Chance,
}

impl StreamShape {
    /// Derives the stream constants of `params` for L1 lines of `line`.
    pub fn new(params: &KernelParams, line: LineSize) -> Self {
        let line_bytes = line.bytes();
        let c = params.coalescing;
        let floor = c.floor();
        let floor_lines = floor as usize;
        let wws_bytes =
            ((params.footprint_bytes as f64 * params.wws_fraction) as u64).max(line_bytes);
        let footprint_lines = line.line_of(params.footprint_bytes).max(1);
        let total_warps = params.total_warps().max(1);
        let n = params.instructions_per_warp;
        let (write, write_from) = match params.write_phase {
            WritePhase::Uniform => (Chance::new(params.write_fraction), 0),
            WritePhase::EndOfKernel => {
                // All write traffic compressed into the last 20 % of the
                // stream (grids write their outputs at the end, §4): from
                // the first issue index whose progress is not below 0.8.
                let in_head = |i: u32| (i as f64 / n.max(1) as f64) < 0.8;
                let mut from = (0.8 * n as f64).ceil() as u32;
                while from > 0 && !in_head(from - 1) {
                    from -= 1;
                }
                while from < n && in_head(from) {
                    from += 1;
                }
                (Chance::new((params.write_fraction * 5.0).min(1.0)), from)
            }
        };
        StreamShape {
            instructions: n,
            line,
            addr_base: params.addr_base,
            warps_per_block: params.warps_per_block(),
            footprint_lines,
            wws_lines: line.line_of(wws_bytes).max(1),
            // Partition the footprint into per-warp streaming segments so
            // coalesced streaming reads behave like real strided kernels.
            seg_lines: (footprint_lines / total_warps).clamp(1, STREAM_WINDOW_LINES),
            lines_floor: floor_lines.clamp(1, MAX_LINES_PER_OP),
            lines_ceil: floor_lines.saturating_add(1).clamp(1, MAX_LINES_PER_OP),
            extra_line: Chance::new((c - floor).clamp(0.0, 1.0)),
            mem: Chance::new(params.mem_fraction),
            local: if params.local_fraction > 0.0 {
                Chance::new(params.local_fraction)
            } else {
                Chance::Never
            },
            write,
            write_from,
            read_stream: Chance::new(params.read_locality),
            write_skew: Chance::new(params.write_skew),
        }
    }

    /// Warps per thread block of the kernel.
    pub fn warps_per_block(&self) -> u32 {
        self.warps_per_block
    }
}

/// Deterministic per-warp instruction generator.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use sttgpu_sim::config::LineSize;
/// use sttgpu_sim::kernel::KernelParams;
/// use sttgpu_sim::program::{StreamShape, WarpProgram};
///
/// let k = KernelParams::new("k", 4, 64).with_instructions(50);
/// let shape = Arc::new(StreamShape::new(&k, LineSize::new(128)));
/// let mut p = WarpProgram::new(shape, 0, 0, 99);
/// let mut addrs = Vec::new();
/// let mut count = 0;
/// while p.next_into(&mut addrs).is_some() {
///     count += 1;
/// }
/// assert_eq!(count, 50);
/// ```
#[derive(Debug, Clone)]
pub struct WarpProgram {
    shape: Arc<StreamShape>,
    rng: Rng,
    issued: u32,
    /// The stream's length (the shape's, kept here so the per-issue
    /// finished check stays on the warp's own cache lines).
    instructions: u32,
    /// Next line of the streaming segment, `0..seg_lines`.
    stream_line: u32,
    /// Next line of the spill frame, `0..LOCAL_FRAME_LINES`.
    local_line: u32,
    segment_base: u64,
    local_base: u64,
}

impl WarpProgram {
    /// Creates the instruction stream of one warp.
    ///
    /// `seed` (the kernel's) and the warp's (block, warp-in-block)
    /// coordinates seed the stream.
    pub fn new(shape: Arc<StreamShape>, block_id: u32, warp_in_block: u32, seed: u64) -> Self {
        let global_warp = block_id as u64 * shape.warps_per_block as u64 + warp_in_block as u64;
        let mixed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(global_warp.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let rng = Rng::new(mixed);

        let offset_lines = (global_warp * shape.seg_lines) % shape.footprint_lines;
        let segment_base = shape.addr_base + shape.line.bytes_of(offset_lines);
        // Local (per-thread) data lives in its own address region, far
        // above any global footprint, with a small per-warp frame.
        let local_base = LOCAL_BASE + shape.line.bytes_of(global_warp * LOCAL_FRAME_LINES);

        WarpProgram {
            instructions: shape.instructions,
            shape,
            rng,
            issued: 0,
            stream_line: 0,
            local_line: 0,
            segment_base,
            local_base,
        }
    }

    /// Instructions issued so far.
    pub fn issued(&self) -> u32 {
        self.issued
    }

    /// Whether the stream is exhausted.
    pub fn is_finished(&self) -> bool {
        self.issued >= self.instructions
    }

    /// Decodes the next instruction, or returns `None` when the warp is
    /// done. A memory instruction's line addresses replace the contents
    /// of `addrs`; an ALU instruction leaves `addrs` empty.
    pub fn next_into(&mut self, addrs: &mut Vec<u64>) -> Option<InstrKind> {
        if self.is_finished() {
            return None;
        }
        addrs.clear();
        let s = &*self.shape;
        let rng = &mut self.rng;
        let kind = if s.mem.draw(rng) {
            if s.local.draw(rng) {
                // Register spills: reads and rewrites of the private
                // frame, revisited round-robin — extreme locality.
                let kind = if Chance::HALF.draw(rng) {
                    InstrKind::LocalWrite
                } else {
                    InstrKind::LocalRead
                };
                addrs.push(self.local_base + s.line.bytes_of(self.local_line as u64));
                self.local_line = (self.local_line + 1) % LOCAL_FRAME_LINES as u32;
                kind
            } else {
                let write = if self.issued >= s.write_from {
                    s.write
                } else {
                    Chance::Never
                };
                let is_write = write.draw(rng);
                // Distinct L1 lines touched, drawn around the kernel's
                // coalescing factor.
                let n = if s.extra_line.draw(rng) {
                    s.lines_ceil
                } else {
                    s.lines_floor
                };
                if is_write {
                    for _ in 0..n {
                        // Concentrated write-working-set traffic, or
                        // scattered writes across the footprint.
                        let lines = if s.write_skew.draw(rng) {
                            s.wws_lines
                        } else {
                            s.footprint_lines
                        };
                        addrs.push(s.addr_base + s.line.bytes_of(rng.range_u64(0, lines)));
                    }
                    InstrKind::MemWrite
                } else if s.read_stream.draw(rng) {
                    // Stream through the warp's segment: consecutive lines.
                    for _ in 0..n {
                        let off = s.line.bytes_of(self.stream_line as u64);
                        addrs.push(s.line.align(self.segment_base + off));
                        self.stream_line += 1;
                        if self.stream_line as u64 == s.seg_lines {
                            self.stream_line = 0;
                        }
                    }
                    InstrKind::MemRead
                } else {
                    // Random shared-data lines across the whole footprint.
                    for _ in 0..n {
                        let line = rng.range_u64(0, s.footprint_lines);
                        addrs.push(s.addr_base + s.line.bytes_of(line));
                    }
                    InstrKind::MemRead
                }
            }
        } else {
            InstrKind::Alu
        };
        // The write phase is decided on the pre-issue position, so the
        // count is bumped only after the draws.
        self.issued += 1;
        Some(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Instr = (InstrKind, Vec<u64>);

    fn program(p: &KernelParams, block: u32, warp: u32, seed: u64) -> WarpProgram {
        let shape = Arc::new(StreamShape::new(p, LineSize::new(128)));
        WarpProgram::new(shape, block, warp, seed)
    }

    fn params() -> KernelParams {
        KernelParams::new("k", 8, 64)
            .with_instructions(2_000)
            .with_mem_fraction(0.4)
            .with_write_fraction(0.3)
            .with_footprint_kb(256)
    }

    fn collect(p: &mut WarpProgram) -> Vec<Instr> {
        let mut addrs = Vec::new();
        std::iter::from_fn(|| p.next_into(&mut addrs).map(|k| (k, addrs.clone()))).collect()
    }

    fn is_global(kind: InstrKind) -> bool {
        matches!(kind, InstrKind::MemRead | InstrKind::MemWrite)
    }

    fn is_local(kind: InstrKind) -> bool {
        matches!(kind, InstrKind::LocalRead | InstrKind::LocalWrite)
    }

    #[test]
    fn chance_draws_exactly_what_rng_chance_draws() {
        let tiny = f64::MIN_POSITIVE;
        let below_one = 1.0 - f64::EPSILON / 2.0; // 1 - 2^-53
        let ps = [
            0.0,
            -0.5,
            1.0,
            1.5,
            tiny,
            5e-324,
            0.5,
            below_one,
            1.0 / (1u64 << 53) as f64, // p * 2^53 = 1
            3.0 / 8.0,                 // p * 2^53 an integer
            0.1,                       // p * 2^53 not an integer
            (1u64 << 52) as f64 / (1u64 << 53) as f64 + f64::EPSILON,
            f64::NAN,
        ];
        for (i, &p) in ps.iter().enumerate() {
            let mut a = Rng::new(i as u64);
            let mut b = a.clone();
            let c = Chance::new(p);
            for _ in 0..2_000 {
                assert_eq!(c.draw(&mut a), b.chance(p), "p = {p:e}");
            }
            assert_eq!(a, b, "p = {p:e}: generator states diverged");
        }
        assert_eq!(Chance::new(0.5), Chance::HALF);
        // No draw at all for the degenerate probabilities.
        for p in [0.0, -1.0, 1.0, 2.0] {
            let mut a = Rng::new(3);
            let before = a.clone();
            Chance::new(p).draw(&mut a);
            assert_eq!(a, before, "p = {p} must not consume a draw");
        }
        // Boundary raw draws: `x >> 11` just below, at and above the
        // threshold compare exactly as `f64_unit() < p` does.
        let unit = |x: u64| (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        for &p in &ps[4..12] {
            let Chance::Below(t) = Chance::new(p) else {
                panic!("p = {p:e} is interior");
            };
            for m in [t.saturating_sub(1), t, t + 1]
                .into_iter()
                .filter(|&m| m < 1 << 53)
            {
                for x in [m << 11, (m << 11) | 0x7FF] {
                    assert_eq!(x >> 11 < t, unit(x) < p, "p = {p:e}, x = {x:#x}");
                }
            }
        }
    }

    #[test]
    fn stream_length_matches_params() {
        let mut p = program(&params(), 0, 0, 1);
        assert_eq!(collect(&mut p).len(), 2_000);
        assert!(p.is_finished());
        assert!(p.next_into(&mut Vec::new()).is_none());
    }

    #[test]
    fn deterministic_for_same_coordinates() {
        let a = collect(&mut program(&params(), 3, 1, 42));
        let b = collect(&mut program(&params(), 3, 1, 42));
        assert_eq!(a, b);
    }

    #[test]
    fn different_warps_differ() {
        let a = collect(&mut program(&params(), 0, 0, 42));
        let b = collect(&mut program(&params(), 0, 1, 42));
        assert_ne!(a, b);
    }

    #[test]
    fn alu_leaves_the_buffer_empty() {
        let mut p = program(&params(), 0, 0, 5);
        let mut addrs = vec![7, 7, 7];
        while let Some(kind) = p.next_into(&mut addrs) {
            assert_eq!(kind == InstrKind::Alu, addrs.is_empty());
        }
    }

    #[test]
    fn mix_approximates_fractions() {
        let instrs = collect(&mut program(&params(), 0, 0, 7));
        let mem = instrs.iter().filter(|i| i.0 != InstrKind::Alu).count() as f64;
        let writes = instrs.iter().filter(|i| i.0 == InstrKind::MemWrite).count() as f64;
        let mem_frac = mem / instrs.len() as f64;
        let write_frac = writes / mem;
        assert!((mem_frac - 0.4).abs() < 0.05, "mem fraction {mem_frac}");
        assert!(
            (write_frac - 0.3).abs() < 0.06,
            "write fraction {write_frac}"
        );
    }

    #[test]
    fn addresses_stay_in_footprint_and_aligned() {
        let p = params();
        let fp = p.footprint_bytes;
        for (kind, addrs) in collect(&mut program(&p, 1, 1, 9)) {
            if is_local(kind) {
                for &addr in &addrs {
                    assert!(addr >= LOCAL_BASE, "local address below LOCAL_BASE");
                }
                continue;
            }
            for &a in &addrs {
                assert!(a < fp, "address {a:#x} outside footprint");
                assert_eq!(a % 128, 0, "address {a:#x} not line-aligned");
            }
        }
    }

    #[test]
    fn write_skew_concentrates_writes() {
        let p = KernelParams::new("k", 4, 64)
            .with_instructions(4_000)
            .with_mem_fraction(0.5)
            .with_write_fraction(0.5)
            .with_footprint_kb(1024)
            .with_wws(0.05, 0.9);
        let wws_limit = (p.footprint_bytes as f64 * 0.05) as u64;
        let mut in_wws = 0usize;
        let mut total = 0usize;
        for (kind, addrs) in collect(&mut program(&p, 0, 0, 11)) {
            if kind == InstrKind::MemWrite {
                for &a in &addrs {
                    total += 1;
                    if a < wws_limit {
                        in_wws += 1;
                    }
                }
            }
        }
        let frac = in_wws as f64 / total as f64;
        assert!(frac > 0.85, "write concentration {frac}");
    }

    #[test]
    fn end_of_kernel_phase_delays_writes() {
        let p = KernelParams::new("k", 1, 32)
            .with_instructions(1_000)
            .with_mem_fraction(0.5)
            .with_write_fraction(0.2)
            .with_write_phase(WritePhase::EndOfKernel);
        let instrs = collect(&mut program(&p, 0, 0, 5));
        let first_write = instrs
            .iter()
            .position(|i| i.0 == InstrKind::MemWrite)
            .expect("some write must occur");
        assert!(
            first_write >= 790,
            "first write at {first_write} should be in the last fifth"
        );
    }

    #[test]
    fn end_of_kernel_tail_starts_at_progress_point_eight() {
        for n in [0, 1, 4, 5, 7, 10, 999, 1_000, 1_001, 4_999] {
            let p = KernelParams::new("k", 1, 32)
                .with_instructions(n)
                .with_write_phase(WritePhase::EndOfKernel);
            let from = StreamShape::new(&p, LineSize::new(128)).write_from;
            let progress = |i: u32| i as f64 / n.max(1) as f64;
            let first = (0..n).find(|&i| progress(i) >= 0.8).unwrap_or(n);
            assert_eq!(from, first, "n = {n}");
        }
    }

    #[test]
    fn local_fraction_generates_private_frame_traffic() {
        let p = KernelParams::new("k", 2, 64)
            .with_instructions(2_000)
            .with_mem_fraction(0.6)
            .with_local_fraction(0.5);
        let mut locals = 0usize;
        let mut frame = std::collections::HashSet::new();
        let mut mems = 0usize;
        for (kind, addrs) in collect(&mut program(&p, 1, 0, 5)) {
            if is_local(kind) {
                locals += 1;
                for &addr in &addrs {
                    assert!(addr >= LOCAL_BASE);
                    frame.insert(addr);
                }
            } else if is_global(kind) {
                mems += 1;
            }
        }
        assert!(locals > 0, "local ops must be generated");
        // Roughly half of memory ops are local at local_fraction 0.5.
        let frac = locals as f64 / (locals + mems) as f64;
        assert!((frac - 0.5).abs() < 0.08, "local share {frac}");
        assert_eq!(frame.len(), 2, "spill frame is two lines");
    }

    #[test]
    fn different_warps_use_disjoint_local_frames() {
        let p = KernelParams::new("k", 2, 64)
            .with_instructions(500)
            .with_mem_fraction(0.8)
            .with_local_fraction(1.0);
        let frame_of = |block: u32, warp: u32| {
            let mut frame = std::collections::BTreeSet::new();
            for (kind, addrs) in collect(&mut program(&p, block, warp, 5)) {
                if is_local(kind) {
                    frame.extend(addrs);
                }
            }
            frame
        };
        let a = frame_of(0, 0);
        let b = frame_of(0, 1);
        assert!(a.is_disjoint(&b), "frames must not alias");
    }

    #[test]
    fn coalescing_controls_lines_per_op() {
        let p = KernelParams::new("k", 1, 32)
            .with_instructions(3_000)
            .with_mem_fraction(1.0)
            .with_coalescing(4.0);
        let mut total_lines = 0usize;
        let mut ops = 0usize;
        for (kind, addrs) in collect(&mut program(&p, 0, 0, 3)) {
            if is_global(kind) {
                total_lines += addrs.len();
                ops += 1;
            }
        }
        let avg = total_lines as f64 / ops as f64;
        assert!((avg - 4.0).abs() < 0.2, "avg lines {avg}");
    }
}
