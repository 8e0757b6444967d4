//! Host-time accounting for the phases of [`Gpu::run_seeded`]'s busy
//! loop: block feed, memory-system tick, fill delivery, SM step and the
//! cycle skip.
//!
//! Off by default. The switch is process-wide and read once per run:
//! `run_seeded` then runs one of two monomorphised copies of its loop, so
//! with timing off the loop carries no clock reads and no per-phase
//! branches. With timing on, every visited cycle reads the host clock
//! once per phase and the run adds its per-phase nanoseconds to
//! process-wide totals when it ends. Simulated behaviour is identical
//! either way; the times appear in no [`RunMetrics`], golden or memo,
//! store or journal key.
//!
//! A host clock read costs tens of nanoseconds, a sizeable fraction of a
//! busy cycle, so each lap is charged its time minus the clock's own
//! cost, measured once per process. Even so a timed run is slower than
//! an untimed one: use the shares to see where host time goes, and the
//! untimed canary for throughput.
//!
//! [`Gpu::run_seeded`]: crate::Gpu::run_seeded
//! [`RunMetrics`]: crate::RunMetrics

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One phase of a visited cycle, in loop order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Deadline check and block launches.
    Feed,
    /// `MemSystem::tick`: maintenance and due memory events.
    Tick,
    /// Delivering due L1 fills to their SMs.
    Fills,
    /// Stepping every SM and retiring blocks.
    Step,
    /// The end-of-kernel check and the jump over idle cycles.
    Skip,
}

impl Phase {
    /// Every phase, in loop order.
    pub const ALL: [Phase; 5] = [
        Phase::Feed,
        Phase::Tick,
        Phase::Fills,
        Phase::Step,
        Phase::Skip,
    ];

    /// Lower-case name, as written to `BENCH_repro.json`.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Feed => "feed",
            Phase::Tick => "tick",
            Phase::Fills => "fills",
            Phase::Step => "step",
            Phase::Skip => "skip",
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static TOTALS: [AtomicU64; 5] = [const { AtomicU64::new(0) }; 5];

/// Turns phase timing on or off for runs that start afterwards.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether runs starting now are timed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes the process-wide totals.
pub fn reset() {
    for t in &TOTALS {
        t.store(0, Ordering::Relaxed);
    }
}

/// Host nanoseconds per phase, summed over every timed run that ended
/// since the last [`reset`].
pub fn totals() -> PhaseTimes {
    PhaseTimes {
        ns: TOTALS.each_ref().map(|t| t.load(Ordering::Relaxed)),
    }
}

/// Host nanoseconds per [`Phase`], indexed in [`Phase::ALL`] order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Nanoseconds per phase.
    pub ns: [u64; 5],
}

impl PhaseTimes {
    /// Sum over all phases, ns.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Each phase's share of the total (all zero when nothing was timed).
    pub fn shares(&self) -> [f64; 5] {
        let total = self.total_ns().max(1) as f64;
        self.ns.map(|ns| ns as f64 / total)
    }
}

/// Host nanoseconds one `Instant::now()` costs: the cheapest mean over a
/// few batches of back-to-back reads, measured once per process.
fn clock_read_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        const READS: u32 = 4096;
        (0..3)
            .map(|_| {
                let start = Instant::now();
                let mut last = start;
                for _ in 0..READS {
                    last = std::hint::black_box(Instant::now());
                }
                (last - start).as_nanos() as u64 / u64::from(READS)
            })
            .min()
            .unwrap_or(0)
    })
}

/// A lap clock for one run. With `ON = false` every method is empty.
pub(crate) struct PhaseClock<const ON: bool> {
    last: Instant,
    ns: [u64; 5],
    laps: [u64; 5],
}

impl<const ON: bool> PhaseClock<ON> {
    pub fn start() -> Self {
        PhaseClock {
            last: Instant::now(),
            ns: [0; 5],
            laps: [0; 5],
        }
    }

    /// Charges the time since the previous lap to `phase`.
    #[inline(always)]
    pub fn lap(&mut self, phase: Phase) {
        if ON {
            let now = Instant::now();
            self.ns[phase as usize] += (now - self.last).as_nanos() as u64;
            self.laps[phase as usize] += 1;
            self.last = now;
        }
    }

    /// Restarts the lap without charging anyone (work between kernels
    /// is outside the busy loop).
    #[inline(always)]
    pub fn restart(&mut self) {
        if ON {
            self.last = Instant::now();
        }
    }

    /// Adds this run's laps, less the clock's own cost, to the
    /// process-wide totals.
    pub fn finish(self) {
        if ON {
            let cost = clock_read_ns();
            for ((total, ns), laps) in TOTALS.iter().zip(self.ns).zip(self.laps) {
                total.fetch_add(ns.saturating_sub(laps * cost), Ordering::Relaxed);
            }
        }
    }
}
