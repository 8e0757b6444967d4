//! Calls into single layers, shared by the workloads: driving an LLC from
//! a recorded call stream, the trace-file codec round trip, and the cache
//! substrate's public calls timed in a loop.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sttgpu_cache::{AccessKind, MshrTable, ReplacementPolicy, SetAssocCache};
use sttgpu_core::{AnyLlc, LlcModel, TwoPartStats};
use sttgpu_tracefile::{TraceHeader, TraceReader, TraceRecord, TraceWriter};

use crate::stats::median;

/// Makes one recorded call against `llc`.
#[inline]
fn call_one<L: LlcModel>(llc: &mut L, rec: &TraceRecord, line_bytes: u64) {
    match *rec {
        TraceRecord::Access { at_ns, line, write } => {
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            black_box(llc.probe(line * line_bytes, kind, at_ns));
        }
        TraceRecord::Fill { at_ns, line, dirty } => {
            black_box(llc.fill(line * line_bytes, dirty, at_ns));
        }
        TraceRecord::Maintain { at_ns } => llc.maintain(at_ns),
    }
}

/// Replays a raw call stream against `llc`, exactly as recorded.
pub fn drive<L: LlcModel>(llc: &mut L, records: &[TraceRecord]) {
    let line_bytes = u64::from(llc.line_bytes());
    for rec in records {
        call_one(llc, rec, line_bytes);
    }
}

/// [`drive`] through whichever concrete model `llc` holds, so the replay
/// pays no per-call dynamic dispatch.
pub fn drive_any(llc: &mut AnyLlc, records: &[TraceRecord]) {
    match llc {
        AnyLlc::Single(s) => drive(s, records),
        AnyLlc::TwoPart(t) => drive(t.as_mut(), records),
    }
}

/// Per-kind call counts and summed host times: probe, fill, maintain.
pub type KindTimes = [(u64, Duration); 3];

/// Call names of [`KindTimes`], in order.
pub const KIND_NAMES: [&str; 3] = ["core.probe", "core.fill", "core.maintain"];

/// [`drive`], timing every call on its own.
pub fn drive_timed<L: LlcModel>(llc: &mut L, records: &[TraceRecord]) -> KindTimes {
    let line_bytes = u64::from(llc.line_bytes());
    let mut out: KindTimes = [(0, Duration::ZERO); 3];
    for rec in records {
        let kind = match rec {
            TraceRecord::Access { .. } => 0,
            TraceRecord::Fill { .. } => 1,
            TraceRecord::Maintain { .. } => 2,
        };
        let t0 = Instant::now();
        call_one(llc, rec, line_bytes);
        let dt = t0.elapsed();
        out[kind].0 += 1;
        out[kind].1 += dt;
    }
    out
}

/// [`drive_timed`] through whichever concrete model `llc` holds.
pub fn drive_timed_any(llc: &mut AnyLlc, records: &[TraceRecord]) -> KindTimes {
    match llc {
        AnyLlc::Single(s) => drive_timed(s, records),
        AnyLlc::TwoPart(t) => drive_timed(t.as_mut(), records),
    }
}

/// Host ns one timed call adds on its own: two clock reads and the sum.
pub fn timer_overhead_ns() -> f64 {
    const N: u32 = 200_000;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut acc = Duration::ZERO;
            let t = Instant::now();
            for _ in 0..N {
                let t0 = Instant::now();
                acc += black_box(t0).elapsed();
            }
            black_box(acc);
            t.elapsed().as_nanos() as f64 / f64::from(N)
        })
        .collect();
    median(&samples).expect("five samples")
}

/// Encodes `records` in the binary trace format.
pub fn encode(header: TraceHeader, records: &[TraceRecord]) -> Result<Vec<u8>, String> {
    let mut w = TraceWriter::new(Vec::new(), header).map_err(|e| e.to_string())?;
    for rec in records {
        w.write(rec).map_err(|e| e.to_string())?;
    }
    w.finish().map_err(|e| e.to_string())
}

/// Decodes a binary trace.
pub fn decode(bytes: &[u8]) -> Result<(TraceHeader, Vec<TraceRecord>), String> {
    let reader = TraceReader::new(bytes).map_err(|e| e.to_string())?;
    let header = reader.header();
    let records = reader
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok((header, records))
}

/// Host ns per call of the cache substrate's hot paths, each the median of
/// five timed loops.
#[derive(Debug, Clone, Copy)]
pub struct CacheTimes {
    /// `SetAssocCache::lookup` hitting, on a 768-set 7-way array.
    pub hit_ns: f64,
    /// `SetAssocCache::fill` evicting a dirty line, on a 64-set 4-way array.
    pub fill_evict_ns: f64,
    /// `MshrTable::allocate` followed by `complete`.
    pub mshr_ns: f64,
}

fn loop_ns(iters: u64, mut body: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                body(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples).expect("five samples")
}

/// Times the cache substrate's public calls in loops of `iters` calls.
pub fn cache_times(iters: u64) -> CacheTimes {
    let mut hits: SetAssocCache<()> = SetAssocCache::new(768, 7, 256, ReplacementPolicy::Lru);
    for la in 0..4096u64 {
        hits.fill(la, false, 0);
    }
    let hit_ns = loop_ns(iters, |i| {
        let la = i.wrapping_mul(97) % 4096;
        black_box(hits.lookup(black_box(la), AccessKind::Read, 1).is_some());
    });
    let mut evicts: SetAssocCache<()> = SetAssocCache::new(64, 4, 256, ReplacementPolicy::Lru);
    let mut next = 0u64;
    let fill_evict_ns = loop_ns(iters, |_| {
        next += 1;
        black_box(evicts.fill(black_box(next), true, next));
    });
    let mut mshr = MshrTable::new(64, 8);
    let mshr_ns = loop_ns(iters, |i| {
        mshr.allocate(black_box(i), 1);
        black_box(mshr.complete(i));
    });
    CacheTimes {
        hit_ns,
        fill_evict_ns,
        mshr_ns,
    }
}

/// The two-part LLC counters the benchmark reports, summed over runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreCounts {
    pub lr_read_hits: u64,
    pub hr_read_hits: u64,
    pub lr_write_hits: u64,
    pub hr_write_hits: u64,
    pub read_misses: u64,
    pub write_misses: u64,
    pub demand_writes_lr: u64,
    pub demand_writes_hr: u64,
    pub second_search_hits: u64,
    pub migrations_to_lr: u64,
    pub demotions_to_hr: u64,
    pub refreshes: u64,
    pub overflow_writebacks: u64,
}

impl CoreCounts {
    /// Adds one run's statistics block.
    pub fn add(&mut self, s: &TwoPartStats) {
        self.lr_read_hits += s.lr_read_hits;
        self.hr_read_hits += s.hr_read_hits;
        self.lr_write_hits += s.lr_write_hits;
        self.hr_write_hits += s.hr_write_hits;
        self.read_misses += s.read_misses;
        self.write_misses += s.write_misses;
        self.demand_writes_lr += s.demand_writes_lr;
        self.demand_writes_hr += s.demand_writes_hr;
        self.second_search_hits += s.second_search_hits;
        self.migrations_to_lr += s.migrations_to_lr;
        self.demotions_to_hr += s.demotions_to_hr;
        self.refreshes += s.refreshes;
        self.overflow_writebacks += s.overflow_writebacks;
    }

    fn accesses(&self) -> u64 {
        self.reads() + self.writes()
    }

    fn reads(&self) -> u64 {
        self.lr_read_hits + self.hr_read_hits + self.read_misses
    }

    fn writes(&self) -> u64 {
        self.lr_write_hits + self.hr_write_hits + self.write_misses
    }

    /// Demand writes over demand accesses.
    pub fn write_share(&self) -> f64 {
        crate::stats::ratio(self.writes() as f64, self.accesses() as f64)
    }

    /// Demand hits (either part) over demand accesses.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.lr_read_hits + self.hr_read_hits + self.lr_write_hits + self.hr_write_hits;
        crate::stats::ratio(hits as f64, self.accesses() as f64)
    }

    /// Share of demand writes serviced in the LR part.
    pub fn lr_write_utilization(&self) -> f64 {
        let total = self.demand_writes_lr + self.demand_writes_hr;
        crate::stats::ratio(self.demand_writes_lr as f64, total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttgpu_core::{TwoPartConfig, TwoPartLlc};

    fn stream() -> Vec<TraceRecord> {
        let mut recs = Vec::new();
        for i in 0..2_000u64 {
            let at_ns = 10 + i * 7;
            let line = (i * 13) % 300;
            recs.push(TraceRecord::Access {
                at_ns,
                line,
                write: i % 3 == 0,
            });
            recs.push(TraceRecord::Fill {
                at_ns: at_ns + 1,
                line,
                dirty: i % 3 == 0,
            });
            if i % 50 == 0 {
                recs.push(TraceRecord::Maintain { at_ns: at_ns + 2 });
            }
        }
        recs
    }

    #[test]
    fn timed_and_untimed_drives_agree() {
        let cfg = TwoPartConfig::new(48, 2, 336, 7, 256);
        let recs = stream();
        let mut a = TwoPartLlc::new(cfg.clone());
        let mut b = TwoPartLlc::new(cfg);
        drive(&mut a, &recs);
        let kinds = drive_timed(&mut b, &recs);
        assert_eq!(a.stats(), b.stats());
        let calls: u64 = kinds.iter().map(|k| k.0).sum();
        assert_eq!(calls, recs.len() as u64);
    }

    #[test]
    fn codec_round_trip_is_lossless() {
        let recs = stream();
        let bytes = encode(TraceHeader::raw(256), &recs).expect("encode");
        let (header, back) = decode(&bytes).expect("decode");
        assert_eq!(header, TraceHeader::raw(256));
        assert_eq!(back, recs);
    }
}
