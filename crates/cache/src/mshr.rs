//! Miss-status holding registers (MSHRs).
//!
//! GPU caches are heavily non-blocking: dozens of warps miss concurrently
//! and secondary misses to an in-flight line must merge rather than issue
//! duplicate memory requests. The [`MshrTable`] tracks in-flight line
//! fills and the opaque tokens (warp/request ids) waiting on them.
//!
//! The table is a slab sized once at construction: `capacity` entries,
//! each with inline room for `targets_per_entry` tokens, a free list of
//! entries and an open-addressed line → entry index. Allocating, merging
//! and completing never touch the allocator.

use sttgpu_trace::{Trace, TraceEvent};

/// Result of trying to allocate an MSHR for a missing line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated — the caller must send a fill request.
    Allocated,
    /// The line is already in flight — the token was merged, no new
    /// request needed.
    Merged,
    /// The table (or the entry's target list) is full — the access must
    /// stall and retry.
    Full,
}

/// Marks an empty cell of the line index.
const NIL: u32 = u32::MAX;

/// A table of in-flight misses keyed by line address, with `u32` tokens
/// (the simulator's are warp slots).
///
/// # Example
///
/// ```
/// use sttgpu_cache::{MshrOutcome, MshrTable};
///
/// let mut mshr = MshrTable::new(32, 8);
/// assert_eq!(mshr.allocate(0x10, 1), MshrOutcome::Allocated);
/// assert_eq!(mshr.allocate(0x10, 2), MshrOutcome::Merged);
/// assert_eq!(mshr.complete(0x10), [1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct MshrTable {
    targets_per_entry: usize,
    /// Line → entry, linear probing over a power-of-two table at most
    /// half full; removal shifts displaced cells back, so there are no
    /// tombstones.
    index: Box<[u32]>,
    /// `64 - log2(index.len())`: the Fibonacci hash keeps the top bits.
    index_shift: u32,
    /// Per entry: the line in flight and how many tokens wait on it.
    lines: Box<[u64]>,
    counts: Box<[u32]>,
    /// Entry `e`'s tokens are `targets[e * targets_per_entry..][..counts[e]]`.
    targets: Box<[u32]>,
    /// Entries not in flight; the most recently freed is reused first.
    free: Vec<u32>,
    trace: Trace,
    space: u32,
}

impl MshrTable {
    /// Creates a table of at most `capacity` in-flight lines, each holding
    /// up to `targets_per_entry` waiting tokens.
    ///
    /// # Panics
    ///
    /// Panics if either limit is zero.
    pub fn new(capacity: usize, targets_per_entry: usize) -> Self {
        assert!(capacity > 0 && targets_per_entry > 0);
        assert!(
            capacity < NIL as usize,
            "entry ids must fit below the marker"
        );
        let cells = (2 * capacity).next_power_of_two();
        MshrTable {
            targets_per_entry,
            index: vec![NIL; cells].into_boxed_slice(),
            index_shift: 64 - cells.trailing_zeros(),
            lines: vec![0; capacity].into_boxed_slice(),
            counts: vec![0; capacity].into_boxed_slice(),
            targets: vec![0; capacity * targets_per_entry].into_boxed_slice(),
            free: (0..capacity as u32).rev().collect(),
            trace: Trace::off(),
            space: 0,
        }
    }

    /// Attaches a trace sink; `space` distinguishes this table in the
    /// event stream (0 is the L2 miss tracker, `1 + sm_id` an L1's).
    pub fn set_trace(&mut self, trace: Trace, space: u32) {
        self.trace = trace;
        self.space = space;
    }

    #[inline]
    fn home(&self, line_addr: u64) -> usize {
        (line_addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.index_shift) as usize
    }

    /// The index cell holding `line_addr`'s entry, or the empty cell
    /// where it would go.
    #[inline]
    fn find(&self, line_addr: u64) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut cell = self.home(line_addr);
        loop {
            match self.index[cell] {
                NIL => return Err(cell),
                e if self.lines[e as usize] == line_addr => return Ok(cell),
                _ => cell = (cell + 1) & mask,
            }
        }
    }

    /// Empties index cell `hole`, shifting later cells of its probe run
    /// back so every remaining line stays reachable from its home.
    fn remove_cell(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut cell = hole;
        loop {
            cell = (cell + 1) & mask;
            let e = self.index[cell];
            if e == NIL {
                break;
            }
            // The cell may fill the hole unless its home lies strictly
            // between the hole and the cell (cyclically).
            let home = self.home(self.lines[e as usize]);
            if cell.wrapping_sub(home) & mask >= cell.wrapping_sub(hole) & mask {
                self.index[hole] = e;
                hole = cell;
            }
        }
        self.index[hole] = NIL;
    }

    /// Attempts to register `token` as waiting for `line_addr`.
    pub fn allocate(&mut self, line_addr: u64, token: u32) -> MshrOutcome {
        match self.find(line_addr) {
            Ok(cell) => {
                let e = self.index[cell] as usize;
                let n = self.counts[e] as usize;
                if n >= self.targets_per_entry {
                    return MshrOutcome::Full;
                }
                self.targets[e * self.targets_per_entry + n] = token;
                self.counts[e] += 1;
                self.trace.emit(|| TraceEvent::MshrMerge {
                    space: self.space,
                    la: line_addr,
                });
                MshrOutcome::Merged
            }
            Err(cell) => {
                let Some(e) = self.free.pop() else {
                    return MshrOutcome::Full;
                };
                self.index[cell] = e;
                let e = e as usize;
                self.lines[e] = line_addr;
                self.counts[e] = 1;
                self.targets[e * self.targets_per_entry] = token;
                self.trace.emit(|| TraceEvent::MshrAlloc {
                    space: self.space,
                    la: line_addr,
                });
                MshrOutcome::Allocated
            }
        }
    }

    /// Completes the fill of `line_addr`, releasing its entry and
    /// returning the waiting tokens in arrival order (empty when the line
    /// was not in flight). The tokens stay readable until the next
    /// allocation.
    pub fn complete(&mut self, line_addr: u64) -> &[u32] {
        let Ok(cell) = self.find(line_addr) else {
            return &[];
        };
        let e = self.index[cell];
        self.remove_cell(cell);
        self.free.push(e);
        self.trace.emit(|| TraceEvent::MshrComplete {
            space: self.space,
            la: line_addr,
        });
        let start = e as usize * self.targets_per_entry;
        &self.targets[start..start + self.counts[e as usize] as usize]
    }

    /// Whether `line_addr` currently has an in-flight fill.
    pub fn is_pending(&self, line_addr: u64) -> bool {
        self.find(line_addr).is_ok()
    }

    /// Number of in-flight lines.
    pub fn len(&self) -> usize {
        self.lines.len() - self.free.len()
    }

    /// Whether no fills are in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the table can accept a brand-new line miss.
    pub fn has_free_entry(&self) -> bool {
        !self.free.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrTable::new(2, 2);
        assert_eq!(m.allocate(1, 100), MshrOutcome::Allocated);
        assert_eq!(m.allocate(1, 101), MshrOutcome::Merged);
        assert!(m.is_pending(1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn entry_target_limit() {
        let mut m = MshrTable::new(2, 2);
        m.allocate(1, 100);
        m.allocate(1, 101);
        assert_eq!(m.allocate(1, 102), MshrOutcome::Full);
    }

    #[test]
    fn table_capacity_limit() {
        let mut m = MshrTable::new(1, 4);
        assert_eq!(m.allocate(1, 0), MshrOutcome::Allocated);
        assert_eq!(m.allocate(2, 0), MshrOutcome::Full);
        assert!(!m.has_free_entry());
    }

    #[test]
    fn complete_releases_tokens_in_order() {
        let mut m = MshrTable::new(4, 4);
        m.allocate(9, 1);
        m.allocate(9, 2);
        m.allocate(9, 3);
        assert_eq!(m.complete(9), vec![1, 2, 3]);
        assert!(!m.is_pending(9));
        assert!(m.is_empty());
    }

    #[test]
    fn complete_unknown_line_is_empty() {
        let mut m = MshrTable::new(4, 4);
        assert!(m.complete(42).is_empty());
    }

    /// The table as it was before the slab: a map from line to a token
    /// `Vec`, bounded by entry count and per-entry tokens.
    struct Reference {
        capacity: usize,
        targets: usize,
        entries: std::collections::HashMap<u64, Vec<u32>>,
    }

    impl Reference {
        fn allocate(&mut self, line: u64, token: u32) -> MshrOutcome {
            if let Some(t) = self.entries.get_mut(&line) {
                if t.len() >= self.targets {
                    return MshrOutcome::Full;
                }
                t.push(token);
                return MshrOutcome::Merged;
            }
            if self.entries.len() >= self.capacity {
                return MshrOutcome::Full;
            }
            self.entries.insert(line, vec![token]);
            MshrOutcome::Allocated
        }
    }

    /// Lines that all hash to the same home cell of a `capacity`-entry
    /// table, so their probe runs collide and wrap.
    fn colliding_lines(capacity: usize, count: usize) -> Vec<u64> {
        let probe = MshrTable::new(capacity, 1);
        let home = probe.home(0);
        (0u64..)
            .filter(|&la| probe.home(la) == home)
            .take(count)
            .collect()
    }

    /// Random allocate/complete traffic against the reference: identical
    /// outcomes, tokens in arrival order on completion, and identical
    /// occupancy, with entries reused many times over.
    fn check(seed: u64, capacity: usize, targets: usize, lines: &[u64]) {
        let mut rng = sttgpu_stats::Rng::new(seed);
        let mut m = MshrTable::new(capacity, targets);
        let mut r = Reference {
            capacity,
            targets,
            entries: Default::default(),
        };
        let (mut allocated, mut full) = (0, 0);
        for step in 0..20_000 {
            let line = lines[rng.range_usize(0, lines.len())];
            if rng.chance(0.6) {
                let token = rng.range_u64(0, 1 << 32) as u32;
                let got = m.allocate(line, token);
                assert_eq!(got, r.allocate(line, token), "seed {seed}, step {step}");
                allocated += u32::from(got == MshrOutcome::Allocated);
                full += u32::from(got == MshrOutcome::Full);
            } else {
                let want = r.entries.remove(&line).unwrap_or_default();
                assert_eq!(m.complete(line), want, "seed {seed}, step {step}");
            }
            assert_eq!(m.len(), r.entries.len());
            assert_eq!(m.has_free_entry(), r.entries.len() < capacity);
            for &la in lines {
                assert_eq!(m.is_pending(la), r.entries.contains_key(&la));
            }
        }
        assert!(
            allocated as usize > 10 * capacity,
            "seed {seed}: little reuse"
        );
        assert!(full > 0, "seed {seed}: never full");
    }

    #[test]
    fn slab_matches_the_map_reference() {
        let spread: Vec<u64> = (0..40).map(|i| i * 128 + 0x4000).collect();
        check(1, 16, 4, &spread);
        check(2, 1, 3, &spread[..4]);
        check(3, 128, 16, &(0..300).collect::<Vec<_>>());
        // Every line shares one home cell: long probe runs that wrap the
        // index, with removals from their middle.
        check(4, 8, 2, &colliding_lines(8, 24));
        check(5, 5, 3, &colliding_lines(5, 12));
    }

    #[test]
    fn freed_entries_are_reused_without_leaking_tokens() {
        let mut m = MshrTable::new(2, 3);
        assert_eq!(m.allocate(1, 10), MshrOutcome::Allocated);
        assert_eq!(m.allocate(1, 11), MshrOutcome::Merged);
        assert_eq!(m.allocate(1, 12), MshrOutcome::Merged);
        assert_eq!(m.complete(1), [10, 11, 12]);
        // The freed entry is handed out again: only the new token shows.
        assert_eq!(m.allocate(2, 20), MshrOutcome::Allocated);
        assert_eq!(m.allocate(3, 30), MshrOutcome::Allocated);
        assert_eq!(m.allocate(4, 40), MshrOutcome::Full);
        assert_eq!(m.complete(3), [30]);
        assert_eq!(m.complete(2), [20]);
        assert!(m.is_empty());
    }

    #[test]
    fn capacity_frees_after_completion() {
        let mut m = MshrTable::new(1, 1);
        m.allocate(1, 0);
        m.complete(1);
        assert_eq!(m.allocate(2, 0), MshrOutcome::Allocated);
    }
}
