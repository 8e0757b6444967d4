//! Component microbenchmarks: the hot paths of the cache substrate, the
//! two-part LLC, the memory system's event queue, the warp-program
//! generator and an SM's issue loop.

use std::hint::black_box;
use std::sync::Arc;
use sttgpu_bench::harness::Criterion;
use sttgpu_bench::{criterion_group, criterion_main};
use sttgpu_cache::{AccessKind, BankArbiter, MshrTable, ReplacementPolicy, SetAssocCache};
use sttgpu_core::{LlcModel, TwoPartConfig, TwoPartLlc};
use sttgpu_sim::config::LineSize;
use sttgpu_sim::events::EventQueue;
use sttgpu_sim::mem::MemSystem;
use sttgpu_sim::program::{StreamShape, WarpProgram};
use sttgpu_sim::sm::Sm;
use sttgpu_sim::{GpuConfig, KernelParams};
use sttgpu_stats::Rng;

fn bench_cache(c: &mut Criterion) {
    c.bench_function("components/setassoc_lookup_hit", |b| {
        let mut cache: SetAssocCache<()> = SetAssocCache::new(768, 7, 256, ReplacementPolicy::Lru);
        for la in 0..4096u64 {
            cache.fill(la, false, 0);
        }
        let mut la = 0u64;
        b.iter(|| {
            la = (la + 97) % 4096;
            black_box(cache.lookup(black_box(la), AccessKind::Read, 1).is_some())
        })
    });

    c.bench_function("components/setassoc_fill_evict", |b| {
        let mut cache: SetAssocCache<()> = SetAssocCache::new(64, 4, 256, ReplacementPolicy::Lru);
        let mut la = 0u64;
        b.iter(|| {
            la += 1;
            black_box(cache.fill(black_box(la), true, la))
        })
    });

    c.bench_function("components/mshr_allocate_complete", |b| {
        let mut mshr = MshrTable::new(64, 8);
        let mut line = 0u64;
        b.iter(|| {
            line += 1;
            mshr.allocate(line, 1);
            black_box(mshr.complete(line));
        })
    });

    c.bench_function("components/bank_arbiter_reserve", |b| {
        let mut arb = BankArbiter::new(8);
        let mut t = 0u64;
        b.iter(|| {
            t += 3;
            black_box(arb.reserve((t % 8) as usize, t, 5))
        })
    });
}

fn bench_two_part(c: &mut Criterion) {
    c.bench_function("components/two_part_probe_hit", |b| {
        let mut llc = TwoPartLlc::new(TwoPartConfig::new(48, 2, 336, 7, 256));
        for la in 0..1024u64 {
            llc.fill(la * 256, la % 3 == 0, la);
        }
        let mut la = 0u64;
        let mut t = 10_000u64;
        b.iter(|| {
            la = (la + 131) % 1024;
            t += 7;
            black_box(llc.probe(la * 256, AccessKind::Read, t).hit)
        })
    });

    c.bench_function("components/two_part_write_migrate", |b| {
        let mut llc = TwoPartLlc::new(TwoPartConfig::new(48, 2, 336, 7, 256));
        for la in 0..1024u64 {
            llc.fill(la * 256, false, la);
        }
        let mut la = 0u64;
        let mut t = 10_000u64;
        b.iter(|| {
            la = (la + 131) % 1024;
            t += 7;
            black_box(llc.probe(la * 256, AccessKind::Write, t).hit)
        })
    });

    c.bench_function("components/two_part_maintain", |b| {
        let mut llc = TwoPartLlc::new(TwoPartConfig::new(48, 2, 336, 7, 256));
        for la in 0..1536u64 {
            llc.fill(la * 256, la % 2 == 0, la);
        }
        let mut t = 0u64;
        b.iter(|| {
            t += 1_000;
            llc.maintain(black_box(t));
        })
    });
}

/// One pop of the earliest event and one push per iteration, at the
/// shape measured over `gpu-suite`'s Fig. 8 runs: about 1,000 events
/// queued, most a few hundred ns out and about a sixth more than 1 µs
/// out (DRAM queueing). The payload has the size of the memory system's
/// own events.
fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("components/mem_event_queue", |b| {
        const DEPTH: usize = 1_000;
        let mut rng = Rng::new(17);
        let delays: Vec<u64> = (0..4096)
            .map(|_| {
                if rng.chance(1.0 / 6.0) {
                    rng.range_u64(1_000, 5_000)
                } else {
                    rng.range_u64(1, 1_000)
                }
            })
            .collect();
        let mut q: EventQueue<(u32, u64)> = EventQueue::new();
        for (i, &d) in delays.iter().take(DEPTH).enumerate() {
            q.push(d, (i as u32, d));
        }
        let mut i = 0usize;
        b.iter(|| {
            let now = q.peek_time().expect("the queue stays at its depth");
            let (at, payload) = q.pop_due(now).expect("due");
            i = (i + 1) % delays.len();
            q.push(at + delays[i], payload);
            black_box(at)
        })
    });
}

fn bench_program(c: &mut Criterion) {
    c.bench_function("components/warp_program_next_instr", |b| {
        let k = KernelParams::new("bench", 64, 256)
            .with_instructions(u32::MAX / 2)
            .with_mem_fraction(0.3);
        let shape = Arc::new(StreamShape::new(&k, LineSize::new(128)));
        let mut p = WarpProgram::new(shape, 0, 0, 42);
        let mut addrs = Vec::new();
        b.iter(|| black_box(p.next_into(&mut addrs)))
    });
}

/// One simulated cycle of a single GTX480 SM per iteration, driven the
/// way `Gpu` drives it: refill free warp contexts with blocks, tick the
/// memory system, deliver fills, step.
fn bench_sm(c: &mut Criterion) {
    let alu = KernelParams::new("alu", 1_000, 256)
        .with_instructions(4_000)
        .with_mem_fraction(0.0);
    let mem_heavy = KernelParams::new("mem", 1_000, 256)
        .with_instructions(4_000)
        .with_mem_fraction(0.4)
        .with_write_fraction(0.2)
        .with_footprint_kb(512);
    for (name, kernel) in [
        ("components/sm_step_alu", alu),
        ("components/sm_step_mem", mem_heavy),
    ] {
        let mut cfg = GpuConfig::gtx480();
        cfg.num_sms = 1;
        let line = LineSize::new(cfg.l1.line_bytes as u64);
        let shape = Arc::new(StreamShape::new(&kernel, line));
        c.bench_function(name, |b| {
            let mut sm = Sm::new(&cfg, 0);
            let mut mem = MemSystem::new(&cfg);
            let mut fills = Vec::new();
            let (mut cycle, mut block) = (0u64, 0u32);
            let warps_per_block = kernel.warps_per_block() as usize;
            b.iter(|| {
                while sm.free_warp_slots() >= warps_per_block {
                    sm.launch_block(&shape, block % kernel.blocks, 7, cycle);
                    block += 1;
                }
                let now_ns = cfg.ns_of_cycle(cycle);
                mem.tick(now_ns, &mut fills);
                for fill in &fills {
                    sm.deliver_fill(fill.byte_addr, now_ns, &mut mem);
                }
                let out = sm.step(cycle, now_ns, &mut mem);
                cycle += 1;
                out.blocks_retired
            })
        });
    }
}

criterion_group!(
    benches,
    bench_cache,
    bench_two_part,
    bench_event_queue,
    bench_program,
    bench_sm
);
criterion_main!(benches);
