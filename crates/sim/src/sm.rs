//! Streaming multiprocessor: warp scheduling and instruction issue.
//!
//! Each cycle the SM issues up to `issue_width` instructions from ready
//! warps (loose round-robin). Warps stall when they exceed the outstanding
//! -load limit and wake when fill responses arrive — interleaving many
//! resident warps is how the GPU hides memory latency, and why occupancy
//! (hence register-file size, hence configurations C2/C3) matters.

use std::sync::Arc;

use sttgpu_trace::{Trace, TraceEvent};

use crate::config::{GpuConfig, WarpScheduler};
use crate::l1::{L1Cache, L1ReadOutcome};
use crate::mem::MemSystem;
use crate::program::{InstrKind, StreamShape, WarpProgram};
use crate::ready::ReadyList;
use crate::warp::Warp;

/// Replay delay after an MSHR-full stall, cycles.
const MSHR_RETRY_CYCLES: u64 = 8;

/// What one [`Sm::step`] call produced, for the driver to aggregate.
#[derive(Debug, Clone, Copy)]
pub struct StepOutcome {
    /// Thread blocks that retired during the issue pass.
    pub blocks_retired: u32,
    /// Earliest cycle any queued warp can issue (`u64::MAX` when none).
    pub next_wake: u64,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    id: u32,
    warps: Vec<Option<Warp>>,
    ready: ReadyList,
    /// Lower bound on the earliest `ready_at` over all queued warps
    /// (`u64::MAX` when none is queued). Enqueues lower it in O(1); an
    /// issue pass that runs out of ready warps sets it exactly from the
    /// failed pop's scan — never per issue slot, and never from the
    /// gate-side reader.
    next_ready: u64,
    /// Live warps per resident block slot (0 = slot free).
    blocks: Vec<u32>,
    /// Decode buffer: the line addresses of the instruction being issued.
    addrs: Vec<u64>,
    /// The warp tokens a fill wakes, copied out of the L1's MSHR entry.
    woken: Vec<u32>,
    /// Per-warp-slot addresses of a load waiting to replay (valid while
    /// the slot's warp has `replay` set). A stall swaps the decode buffer
    /// in, a replay swaps it back out: no addresses are copied.
    replay_addrs: Vec<Vec<u64>>,
    /// Live warp count (cached; `warps` holds exactly this many `Some`s).
    warps_live: u32,
    /// Live block count (cached; `blocks` holds this many nonzero slots).
    blocks_live: u32,
    l1: L1Cache,
    issue_width: u32,
    dep_interval: u64,
    max_pending: u32,
    warp_size: u32,
    scheduler: WarpScheduler,
    trace: Trace,
    /// The warp GTO keeps issuing from until it stalls.
    greedy: Option<usize>,
    /// Whether the greedy warp is currently queued. A queued greedy warp
    /// is *parked* outside `ready` (see [`enqueue`](Sm::enqueue)), which
    /// makes the GTO fast path O(1) instead of a queue walk.
    greedy_parked: bool,
    /// Monotone launch counter assigning warp ages.
    age_counter: u64,
    /// Thread instructions committed.
    pub instructions: u64,
    /// Cycles with no issuable warp.
    pub idle_cycles: u64,
    /// Instruction replays due to full L1 MSHRs.
    pub mshr_stalls: u64,
    /// Every issue attempt, for tests: (warp slot, kind, line addresses,
    /// whether the attempt stalled on a full MSHR table).
    #[cfg(test)]
    issue_log: Vec<(usize, InstrKind, Vec<u64>, bool)>,
}

impl Sm {
    /// Creates an empty SM.
    pub fn new(cfg: &GpuConfig, id: u32) -> Self {
        Sm {
            id,
            warps: (0..cfg.max_warps_per_sm).map(|_| None).collect(),
            ready: ReadyList::with_slots(cfg.max_warps_per_sm as usize),
            next_ready: u64::MAX,
            blocks: Vec::new(),
            addrs: Vec::new(),
            woken: Vec::new(),
            replay_addrs: vec![Vec::new(); cfg.max_warps_per_sm as usize],
            warps_live: 0,
            blocks_live: 0,
            l1: L1Cache::new(&cfg.l1),
            issue_width: cfg.issue_width,
            dep_interval: cfg.dep_interval_cycles as u64,
            max_pending: cfg.max_pending_loads,
            warp_size: cfg.warp_size,
            scheduler: cfg.scheduler,
            trace: Trace::off(),
            greedy: None,
            greedy_parked: false,
            age_counter: 0,
            instructions: 0,
            idle_cycles: 0,
            mshr_stalls: 0,
            #[cfg(test)]
            issue_log: Vec::new(),
        }
    }

    /// This SM's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Free warp contexts.
    pub fn free_warp_slots(&self) -> usize {
        self.warps.len() - self.warps_live as usize
    }

    /// Live warps.
    pub fn live_warps(&self) -> usize {
        self.warps_live as usize
    }

    /// Live blocks.
    pub fn live_blocks(&self) -> u32 {
        self.blocks_live
    }

    /// Whether nothing is resident.
    pub fn is_idle(&self) -> bool {
        self.warps_live == 0
    }

    /// The SM's L1 data cache (for statistics).
    pub fn l1(&self) -> &L1Cache {
        &self.l1
    }

    /// Attaches a trace sink observing this SM's launch invariants and
    /// its L1 MSHR table.
    pub fn set_trace(&mut self, trace: Trace) {
        self.l1.set_trace(trace.clone(), 1 + self.id);
        self.trace = trace;
    }

    /// Invalidates the L1 (kernel boundary — GPU L1s hold no dirty global
    /// data, so this is traffic-free).
    pub fn flush_l1(&mut self) {
        self.l1.invalidate_all();
    }

    /// Launches one thread block of the kernel whose streams `shape`
    /// describes; returns `false` when warp contexts are insufficient.
    pub fn launch_block(
        &mut self,
        shape: &Arc<StreamShape>,
        block_id: u32,
        seed: u64,
        cycle: u64,
    ) -> bool {
        let needed = shape.warps_per_block() as usize;
        if self.free_warp_slots() < needed {
            return false;
        }
        // Claim or reuse a block slot.
        let block_slot = match self.blocks.iter().position(|&c| c == 0) {
            Some(i) => {
                self.blocks[i] = needed as u32;
                i
            }
            None => {
                self.blocks.push(needed as u32);
                self.blocks.len() - 1
            }
        };
        self.blocks_live += 1;
        let mut placed = 0u32;
        for slot in 0..self.warps.len() {
            if placed == needed as u32 {
                break;
            }
            if self.warps[slot].is_none() {
                let program = WarpProgram::new(Arc::clone(shape), block_id, placed, seed);
                let mut warp = Warp::new(program, block_slot);
                warp.age = self.age_counter;
                self.age_counter += 1;
                warp.ready_at = cycle;
                warp.queued = true;
                self.warps[slot] = Some(warp);
                self.warps_live += 1;
                self.enqueue(slot, cycle);
                placed += 1;
            }
        }
        if placed != needed as u32 {
            // The free-slot check above should make this unreachable; the
            // checker reports it instead of silently under-launching.
            self.trace.emit(|| TraceEvent::LaunchUnderfill {
                sm: self.id,
                placed,
                needed: needed as u32,
            });
            debug_assert_eq!(placed, needed as u32);
        }
        true
    }

    /// Retires `slot`'s warp; returns `true` when its whole block retired.
    fn retire_warp(&mut self, slot: usize) -> bool {
        let warp = self.warps[slot].take().expect("retiring a live warp");
        self.warps_live -= 1;
        let left = &mut self.blocks[warp.block_slot];
        *left -= 1;
        if *left == 0 {
            self.blocks_live -= 1;
            true
        } else {
            false
        }
    }

    /// Queues `slot`'s (live, `queued`) warp, whose `ready_at` is
    /// `ready_at`, for issue and folds it into `next_ready`. The greedy
    /// warp parks outside `ready` so GTO's fast path need not scan the
    /// queue for it.
    fn enqueue(&mut self, slot: usize, ready_at: u64) {
        self.next_ready = self.next_ready.min(ready_at);
        if self.greedy == Some(slot) {
            self.greedy_parked = true;
        } else {
            self.ready.push_back(slot, ready_at);
        }
    }

    /// Earliest cycle at which any queued warp can issue, or `None` when
    /// none is queued (the SM is empty or every warp is blocked on
    /// memory). O(1): reads the incrementally maintained minimum.
    pub fn next_ready_cycle(&self) -> Option<u64> {
        (self.next_ready != u64::MAX).then_some(self.next_ready)
    }

    /// Records `n` cycles in which this SM had live warps but could not
    /// issue — exactly the accounting [`cycle`](Sm::cycle) would have
    /// produced had it been called once per skipped cycle.
    pub fn count_idle(&mut self, n: u64) {
        if self.warps_live > 0 {
            self.idle_cycles += n;
        }
    }

    /// Runs this SM for one cycle: gates on its earliest queued warp and
    /// issues, sending every L2 read and write to `mem` as it goes.
    /// Fills due this cycle must already have been delivered.
    #[inline]
    pub fn step(&mut self, cycle: u64, now_ns: u64, mem: &mut MemSystem) -> StepOutcome {
        // `next_ready` is `u64::MAX` when nothing is queued, which no
        // cycle reaches.
        let blocks_retired = if self.next_ready <= cycle {
            self.issue_cycle(cycle, now_ns, mem)
        } else {
            self.count_idle(1);
            0
        };
        StepOutcome {
            blocks_retired,
            next_wake: self.next_ready,
        }
    }

    /// Applies an L1 fill response, writing a displaced dirty line back to
    /// `mem` and waking warps. Returns the number of blocks that retired
    /// as a result.
    pub fn deliver_fill(&mut self, byte_addr: u64, now_ns: u64, mem: &mut MemSystem) -> u32 {
        let (tokens, dirty_victim) = self.l1.fill(byte_addr, now_ns);
        let mut woken = std::mem::take(&mut self.woken);
        woken.clear();
        woken.extend_from_slice(tokens);
        if let Some(victim_addr) = dirty_victim {
            mem.write_request(self.id, victim_addr, now_ns);
        }
        let mut blocks_retired = 0;
        for &token in &woken {
            let slot = token as usize;
            let Some(warp) = self.warps[slot].as_mut() else {
                continue;
            };
            warp.pending_loads = warp.pending_loads.saturating_sub(1);
            if warp.queued {
                continue;
            }
            if warp.can_retire() {
                if self.retire_warp(slot) {
                    blocks_retired += 1;
                }
            } else if warp.pending_loads < self.max_pending && !warp.stream_done() {
                warp.queued = true;
                let ready_at = warp.ready_at;
                self.enqueue(slot, ready_at);
            }
        }
        self.woken = woken;
        blocks_retired
    }

    /// Executes the decoded load's reads for `slot`'s warp. Returns
    /// `(misses_issued, true)` on success or `(partial, false)` on an
    /// MSHR-full abort.
    fn issue_reads(&mut self, slot: usize, now_ns: u64, mem: &mut MemSystem) -> (u32, bool) {
        let mut misses = 0;
        for &addr in &self.addrs {
            match self.l1.read(addr, slot as u32, now_ns) {
                L1ReadOutcome::Hit => {}
                L1ReadOutcome::MissIssued => {
                    mem.read_request(self.id, addr, now_ns);
                    misses += 1;
                }
                L1ReadOutcome::MissMerged => {
                    misses += 1;
                }
                L1ReadOutcome::MshrFull => {
                    return (misses, false);
                }
            }
        }
        (misses, true)
    }

    /// Removes and returns the next issuable warp slot per the scheduling
    /// policy. When no queued warp can issue this cycle, returns the
    /// earliest `ready_at` over the queued set — `ready`'s entries plus
    /// the parked greedy warp, whose `ready_at`s are authoritative while
    /// queued.
    fn pop_issuable(&mut self, cycle: u64) -> Result<usize, u64> {
        match self.scheduler {
            // The first issuable warp in rotation order wins and the
            // not-ready prefix rotates to the back.
            WarpScheduler::LooseRoundRobin => self.ready.pop_first_ready(cycle),
            WarpScheduler::GreedyThenOldest => {
                // Stick with the greedy warp while it can issue. It parks
                // outside `ready` (see `enqueue`), so this is O(1) rather
                // than a scan of the queue.
                let mut parked_at = u64::MAX;
                if self.greedy_parked {
                    let g = self.greedy.expect("parked implies a greedy slot");
                    let w = self.warps[g].as_ref().expect("parked warp is live");
                    if w.ready_at <= cycle {
                        self.greedy_parked = false;
                        return Ok(g);
                    }
                    parked_at = w.ready_at;
                }
                // ...otherwise the oldest ready warp becomes greedy.
                let warps = &self.warps;
                let age_of = |slot: usize| warps[slot].as_ref().expect("queued warp is live").age;
                let slot = self
                    .ready
                    .pop_oldest_ready(cycle, age_of)
                    .map_err(|min| min.min(parked_at))?;
                if self.greedy_parked {
                    // The stalled ex-greedy warp rejoins the rotation.
                    let g = self.greedy.expect("parked implies a greedy slot");
                    let w = self.warps[g].as_ref().expect("parked warp is live");
                    self.ready.push_back(g, w.ready_at);
                    self.greedy_parked = false;
                }
                self.greedy = Some(slot);
                Ok(slot)
            }
        }
    }

    /// Runs one cycle of issue. Returns the number of blocks retired.
    fn issue_cycle(&mut self, cycle: u64, now_ns: u64, mem: &mut MemSystem) -> u32 {
        let mut blocks_retired = 0;
        let mut issued = 0u32;
        let mut issued_any = false;

        while issued < self.issue_width {
            let slot = match self.pop_issuable(cycle) {
                Ok(slot) => slot,
                Err(earliest) => {
                    // `next_ready` is a lower bound (pops only raise the
                    // true minimum; enqueues fold in via `min`). A
                    // stale-low bound merely costs one futile `step` whose
                    // idle accounting matches `count_idle`, so the exact
                    // value — a by-product of the failed pop's scan — is
                    // only restored when the queue proved empty of
                    // issuable warps, which is precisely when the driver
                    // needs it to compute a skip.
                    self.next_ready = earliest;
                    break;
                }
            };
            let warp = self.warps[slot].as_mut().expect("queued warp is live");

            // A pending replay first (always a load; its addresses swap
            // into the decode buffer), otherwise the next instruction.
            let kind = if warp.replay {
                warp.replay = false;
                std::mem::swap(&mut self.addrs, &mut self.replay_addrs[slot]);
                InstrKind::MemRead
            } else if let Some(kind) = warp.program.next_into(&mut self.addrs) {
                kind
            } else {
                // Stream exhausted: retire or wait for loads to drain.
                warp.queued = false;
                if warp.can_retire() && self.retire_warp(slot) {
                    blocks_retired += 1;
                }
                continue;
            };

            issued += 1;
            issued_any = true;
            #[cfg(test)]
            self.issue_log.push((slot, kind, self.addrs.clone(), false));
            match kind {
                InstrKind::Alu => {}
                InstrKind::MemWrite => {
                    for &addr in &self.addrs {
                        self.l1.write(addr, now_ns);
                        mem.write_request(self.id, addr, now_ns);
                    }
                }
                InstrKind::LocalWrite => {
                    // Write-back/write-allocate (paper Fig. 1-b): the write
                    // stays in L1; only displaced dirty lines reach L2.
                    for &addr in &self.addrs {
                        if let Some(victim) = self.l1.write_local(addr, now_ns) {
                            mem.write_request(self.id, victim, now_ns);
                        }
                    }
                }
                InstrKind::MemRead | InstrKind::LocalRead => {
                    let (misses, ok) = self.issue_reads(slot, now_ns, mem);
                    let warp = self.warps[slot].as_mut().expect("live");
                    warp.pending_loads += misses;
                    if !ok {
                        // MSHR full: replay the whole instruction later.
                        self.mshr_stalls += 1;
                        #[cfg(test)]
                        {
                            self.issue_log.last_mut().expect("logged above").3 = true;
                        }
                        warp.replay = true;
                        std::mem::swap(&mut self.addrs, &mut self.replay_addrs[slot]);
                        warp.ready_at = cycle + MSHR_RETRY_CYCLES;
                        self.enqueue(slot, cycle + MSHR_RETRY_CYCLES);
                        continue;
                    }
                    self.instructions += self.warp_size as u64;
                    if warp.pending_loads >= self.max_pending {
                        // Stalled: wakes via deliver_fill.
                        warp.queued = false;
                    } else if warp.stream_done() {
                        warp.queued = false;
                        if warp.can_retire() && self.retire_warp(slot) {
                            blocks_retired += 1;
                        }
                    } else {
                        warp.ready_at = cycle + self.dep_interval;
                        self.enqueue(slot, cycle + self.dep_interval);
                    }
                    continue;
                }
            }
            // ALU ops and stores never stall the warp.
            self.instructions += self.warp_size as u64;
            let warp = self.warps[slot].as_mut().expect("live");
            warp.ready_at = cycle + self.dep_interval;
            self.enqueue(slot, cycle + self.dep_interval);
        }

        if !issued_any && !self.is_idle() {
            self.idle_cycles += 1;
        }
        blocks_retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GpuConfig, L2ModelConfig, LineSize};
    use crate::kernel::KernelParams;
    use sttgpu_core::LlcModel;

    fn setup(kernel: KernelParams) -> (Sm, MemSystem, Arc<StreamShape>) {
        let mut cfg = GpuConfig::gtx480();
        cfg.l2 = L2ModelConfig::Sram {
            kb: 64,
            ways: 8,
            banks: 2,
        };
        let shape = StreamShape::new(&kernel, LineSize::new(cfg.l1.line_bytes as u64));
        (Sm::new(&cfg, 0), MemSystem::new(&cfg), Arc::new(shape))
    }

    /// Runs the SM until idle, delivering memory responses the way the
    /// `Gpu` driver does: fills in tick order, then one step.
    fn run_to_completion(sm: &mut Sm, mem: &mut MemSystem, max_cycles: u64) -> u32 {
        let mut retired = 0;
        let mut fills = Vec::new();
        for cycle in 0..max_cycles {
            let now_ns = cycle * 5 / 7;
            mem.tick(now_ns, &mut fills);
            for fill in &fills {
                retired += sm.deliver_fill(fill.byte_addr, now_ns, mem);
            }
            retired += sm.step(cycle, now_ns, mem).blocks_retired;
            if sm.is_idle() && mem.is_idle() {
                return retired;
            }
        }
        panic!("SM did not drain in {max_cycles} cycles");
    }

    #[test]
    fn launch_and_drain_alu_only_block() {
        let k = KernelParams::new("k", 1, 64)
            .with_instructions(100)
            .with_mem_fraction(0.0);
        let (mut sm, mut mem, k) = setup(k);
        assert!(sm.launch_block(&k, 0, 1, 0));
        assert_eq!(sm.live_warps(), 2);
        let retired = run_to_completion(&mut sm, &mut mem, 10_000);
        assert_eq!(retired, 1);
        assert!(sm.is_idle());
        // 2 warps * 100 instr * 32 threads.
        assert_eq!(sm.instructions, 6_400);
    }

    #[test]
    fn memory_kernel_completes_with_l2_traffic() {
        let k = KernelParams::new("k", 1, 64)
            .with_instructions(300)
            .with_mem_fraction(0.5)
            .with_write_fraction(0.2)
            .with_footprint_kb(128);
        let (mut sm, mut mem, k) = setup(k);
        sm.launch_block(&k, 0, 2, 0);
        run_to_completion(&mut sm, &mut mem, 2_000_000);
        assert!(mem.llc().summary().accesses() > 0, "L2 must see traffic");
        assert!(mem.dram_reads > 0, "cold misses must reach DRAM");
    }

    #[test]
    fn capacity_respected() {
        let k = KernelParams::new("k", 4, 32 * 48); // 48 warps per block
        let (mut sm, _mem, k) = setup(k);
        assert!(sm.launch_block(&k, 0, 1, 0));
        assert_eq!(sm.free_warp_slots(), 0);
        assert!(!sm.launch_block(&k, 1, 1, 0), "no contexts left");
    }

    #[test]
    fn multiple_blocks_share_the_sm() {
        let k = KernelParams::new("k", 2, 64)
            .with_instructions(50)
            .with_mem_fraction(0.0);
        let (mut sm, mut mem, k) = setup(k);
        assert!(sm.launch_block(&k, 0, 1, 0));
        assert!(sm.launch_block(&k, 1, 1, 0));
        assert_eq!(sm.live_blocks(), 2);
        let retired = run_to_completion(&mut sm, &mut mem, 100_000);
        assert_eq!(retired, 2);
    }

    #[test]
    fn block_slot_reuse_after_retirement() {
        let k = KernelParams::new("k", 3, 64)
            .with_instructions(10)
            .with_mem_fraction(0.0);
        let (mut sm, mut mem, k) = setup(k);
        sm.launch_block(&k, 0, 1, 0);
        run_to_completion(&mut sm, &mut mem, 10_000);
        assert!(sm.launch_block(&k, 1, 1, 0), "slots must be reusable");
        assert_eq!(sm.live_blocks(), 1);
    }

    #[test]
    fn idle_cycles_counted_when_warps_stall() {
        // One warp, pure loads over a big footprint: it will stall on
        // DRAM and the SM will idle.
        let k = KernelParams::new("k", 1, 32)
            .with_instructions(50)
            .with_mem_fraction(1.0)
            .with_write_fraction(0.0)
            .with_read_locality(0.0)
            .with_footprint_kb(4 * 1024);
        let (mut sm, mut mem, k) = setup(k);
        sm.launch_block(&k, 0, 3, 0);
        run_to_completion(&mut sm, &mut mem, 2_000_000);
        assert!(sm.idle_cycles > 0, "a single warp cannot hide DRAM latency");
    }

    /// A stalled load replays its own addresses, in order, before its
    /// warp issues anything else from its stream; the stream itself is
    /// issued exactly as the warp's program generates it.
    #[test]
    fn stalled_loads_replay_before_the_stream_moves_on() {
        let mut cfg = GpuConfig::gtx480();
        cfg.l2 = L2ModelConfig::Sram {
            kb: 64,
            ways: 8,
            banks: 2,
        };
        // MSHRs squeezed so most loads bounce off a full table.
        cfg.l1.mshr_entries = 2;
        cfg.l1.mshr_targets = 2;
        cfg.max_pending_loads = 2;
        let k = KernelParams::new("thrash", 2, 128)
            .with_instructions(150)
            .with_mem_fraction(0.6)
            .with_footprint_kb(4_096)
            .with_local_fraction(0.3)
            .with_coalescing(4.0);
        let shape = Arc::new(StreamShape::new(
            &k,
            LineSize::new(cfg.l1.line_bytes as u64),
        ));
        let (mut sm, mut mem) = (Sm::new(&cfg, 0), MemSystem::new(&cfg));
        let seed = 0x3511;
        assert!(sm.launch_block(&shape, 0, seed, 0));
        assert!(sm.launch_block(&shape, 1, seed, 0));
        run_to_completion(&mut sm, &mut mem, 10_000_000);
        assert!(sm.mshr_stalls > 0, "the squeezed MSHRs must stall loads");

        let is_load = |kind| matches!(kind, InstrKind::MemRead | InstrKind::LocalRead);
        let mut stalls = 0;
        // Both blocks' warps land in slots 0..8 in launch order.
        for slot in 0..8 {
            let (block, warp) = (slot as u32 / 4, slot as u32 % 4);
            let mut program = WarpProgram::new(Arc::clone(&shape), block, warp, seed);
            let mut log = sm.issue_log.iter().filter(|e| e.0 == slot);
            let mut want = Vec::new();
            while let Some(kind) = program.next_into(&mut want) {
                let (_, got_kind, got, mut stalled) = log.next().expect("stream issued");
                assert_eq!(*got_kind, kind, "slot {slot}");
                assert_eq!(got, &want, "slot {slot}");
                while stalled {
                    stalls += 1;
                    assert!(is_load(kind), "slot {slot}: only loads stall");
                    let (_, replay_kind, replayed, again) =
                        log.next().expect("a stalled load replays");
                    assert!(is_load(*replay_kind), "slot {slot}: replay is a load");
                    assert_eq!(replayed, &want, "slot {slot}: replay addresses");
                    stalled = *again;
                }
            }
            assert!(log.next().is_none(), "slot {slot}: issued past its stream");
        }
        assert_eq!(stalls, sm.mshr_stalls);
    }
}
