//! An SM's ready queue: a fixed-capacity power-of-two ring of the warps
//! waiting to issue.

/// One ready-queue entry. `ready_at` is copied out of the warp at
/// enqueue time — it is immutable while the warp sits in the queue — so
/// scheduler scans stay inside the ring's contiguous 16-byte entries
/// instead of chasing the warp table for every element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct ReadyEntry {
    pub ready_at: u64,
    pub slot: u32,
}

/// The ready queue. Sized once for every warp an SM can hold, so it never
/// reallocates and index arithmetic is a mask.
#[derive(Debug)]
pub(crate) struct ReadyRing {
    buf: Box<[ReadyEntry]>,
    mask: usize,
    head: usize,
    len: usize,
}

impl ReadyRing {
    /// A ring holding up to `max_entries` entries.
    pub fn with_capacity(max_entries: usize) -> Self {
        let cap = max_entries.max(1).next_power_of_two();
        ReadyRing {
            buf: vec![ReadyEntry::default(); cap].into_boxed_slice(),
            mask: cap - 1,
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn phys(&self, i: usize) -> usize {
        (self.head + i) & self.mask
    }

    /// The entries in queue order, as the ring's two physical runs.
    fn as_slices(&self) -> (&[ReadyEntry], &[ReadyEntry]) {
        let end = self.head + self.len;
        if end <= self.buf.len() {
            (&self.buf[self.head..end], &[])
        } else {
            (&self.buf[self.head..], &self.buf[..end - self.buf.len()])
        }
    }

    /// Appends an entry at the tail.
    #[inline]
    pub fn push_back(&mut self, e: ReadyEntry) {
        debug_assert!(self.len < self.buf.len(), "ready ring overflow");
        let at = self.phys(self.len);
        self.buf[at] = e;
        self.len += 1;
    }

    /// Loose round-robin pop: removes the first entry ready at `cycle`
    /// and rotates the not-ready entries ahead of it behind the tail,
    /// keeping their order — a pop/check/push-back loop done as one scan
    /// and one bulk move. When no entry is ready the scan has seen them
    /// all and returns their earliest `ready_at` (`u64::MAX` when empty).
    pub fn pop_first_ready(&mut self, cycle: u64) -> Result<ReadyEntry, u64> {
        let (a, b) = self.as_slices();
        let mut min = u64::MAX;
        let pos = match first_ready(a, cycle, &mut min) {
            Some(i) => i,
            None => a.len() + first_ready(b, cycle, &mut min).ok_or(min)?,
        };
        let e = self.buf[self.phys(pos)];
        // The new order is suffix then prefix. Move whichever is shorter:
        // the prefix to just behind the tail, or the suffix forward by
        // the ring's free gap to just before the head. Neither move
        // overwrites an entry it has yet to read (the suffix moves
        // back to front).
        let suffix = self.len - pos - 1;
        if pos <= suffix {
            for i in 0..pos {
                let (from, to) = (self.phys(i), self.phys(self.len + i));
                self.buf[to] = self.buf[from];
            }
            self.head = self.phys(pos + 1);
        } else {
            let gap = self.buf.len() - self.len;
            if gap > 0 {
                for k in (pos + 1..self.len).rev() {
                    let (from, to) = (self.phys(k), self.phys(k + gap));
                    self.buf[to] = self.buf[from];
                }
            }
            self.head = self.phys(pos + 1 + gap);
        }
        self.len -= 1;
        Ok(e)
    }

    /// Greedy-then-oldest pop: removes the entry ready at `cycle` whose
    /// slot has the smallest `age_of`, filling its place with the tail
    /// entry. Ages are unique, so the choice does not depend on queue
    /// order. When no entry is ready, returns their earliest `ready_at`
    /// (`u64::MAX` when empty).
    pub fn pop_oldest_ready(
        &mut self,
        cycle: u64,
        age_of: impl Fn(u32) -> u64,
    ) -> Result<ReadyEntry, u64> {
        let (a, b) = self.as_slices();
        let mut min = u64::MAX;
        let mut best: Option<(usize, u64)> = None;
        for (i, e) in a.iter().chain(b).enumerate() {
            if e.ready_at > cycle {
                min = min.min(e.ready_at);
            } else {
                let age = age_of(e.slot);
                if best.is_none_or(|(_, oldest)| age < oldest) {
                    best = Some((i, age));
                }
            }
        }
        let (pos, _) = best.ok_or(min)?;
        let (at, last) = (self.phys(pos), self.phys(self.len - 1));
        let e = self.buf[at];
        self.buf[at] = self.buf[last];
        self.len -= 1;
        Ok(e)
    }
}

/// Index of the first entry of `run` ready at `cycle`, folding the
/// `ready_at` of every entry before it into `min`.
#[inline]
fn first_ready(run: &[ReadyEntry], cycle: u64, min: &mut u64) -> Option<usize> {
    for (i, e) in run.iter().enumerate() {
        if e.ready_at <= cycle {
            return Some(i);
        }
        *min = (*min).min(e.ready_at);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use sttgpu_stats::Rng;

    /// The queue as it was before the ring: a `VecDeque` with a bulk
    /// rotate for LRR and `swap_remove_back` for GTO; a failed pop yields
    /// the queue's earliest `ready_at`, as the SM's `next_ready` rescan
    /// computed it.
    fn reference_lrr(q: &mut VecDeque<ReadyEntry>, cycle: u64) -> Result<ReadyEntry, u64> {
        let Some(pos) = q.iter().position(|e| e.ready_at <= cycle) else {
            return Err(reference_min(q));
        };
        q.rotate_left(pos);
        Ok(q.pop_front().expect("found above"))
    }

    fn reference_gto(
        q: &mut VecDeque<ReadyEntry>,
        cycle: u64,
        ages: &[u64],
    ) -> Result<ReadyEntry, u64> {
        let best = q
            .iter()
            .enumerate()
            .filter(|(_, e)| e.ready_at <= cycle)
            .min_by_key(|(_, e)| ages[e.slot as usize])
            .map(|(i, _)| i);
        match best {
            Some(i) => Ok(q.swap_remove_back(i).expect("index valid")),
            None => Err(reference_min(q)),
        }
    }

    fn reference_min(q: &VecDeque<ReadyEntry>) -> u64 {
        q.iter().map(|e| e.ready_at).min().unwrap_or(u64::MAX)
    }

    fn contents(r: &ReadyRing) -> Vec<ReadyEntry> {
        let (a, b) = r.as_slices();
        a.iter().chain(b).copied().collect()
    }

    /// Drives the ring and the reference through one random sequence of
    /// enqueues and pops, asserting identical pops, contents and minima.
    fn check(seed: u64, warps: usize, steps: usize) {
        let mut rng = Rng::new(seed);
        let mut ring = ReadyRing::with_capacity(warps);
        let mut reference = VecDeque::new();
        // Slots not currently queued; each slot's age, renewed (like a
        // relaunched warp's) every time it is queued.
        let mut idle: Vec<u32> = (0..warps as u32).collect();
        let mut ages = vec![0u64; warps];
        let mut age = 0u64;
        let mut cycle = 0u64;
        let mut fullest = 0;
        for step in 0..steps {
            cycle += rng.range_u64(0, 3);
            // Bias towards enqueues so the ring runs full regularly.
            if !idle.is_empty() && rng.chance(0.55) {
                let slot = idle.swap_remove(rng.range_usize(0, idle.len()));
                let e = ReadyEntry {
                    slot,
                    ready_at: cycle + rng.range_u64(0, 40),
                };
                ages[slot as usize] = age;
                age += 1;
                ring.push_back(e);
                reference.push_back(e);
            } else {
                let lrr = rng.chance(0.5);
                let (got, want) = if lrr {
                    (
                        ring.pop_first_ready(cycle),
                        reference_lrr(&mut reference, cycle),
                    )
                } else {
                    (
                        ring.pop_oldest_ready(cycle, |slot| ages[slot as usize]),
                        reference_gto(&mut reference, cycle, &ages),
                    )
                };
                assert_eq!(got, want, "seed {seed}, step {step}, lrr {lrr}");
                if let Ok(e) = got {
                    idle.push(e.slot);
                }
            }
            assert_eq!(contents(&ring), Vec::from(reference.clone()));
            fullest = fullest.max(ring.len);
        }
        assert_eq!(fullest, warps, "seed {seed}: the ring never ran full");
    }

    #[test]
    fn ring_matches_the_deque_reference() {
        // 48 warps (a GTX480 SM) in a 64-entry ring; 32 warps fill their
        // ring exactly; tiny rings wrap on almost every operation.
        for (seed, warps) in [(1, 48), (2, 48), (3, 32), (4, 5), (5, 1), (6, 2)] {
            check(seed, warps, 20_000);
        }
    }

    #[test]
    fn full_ring_rotates_through_wraparound() {
        let mut ring = ReadyRing::with_capacity(48);
        let mut reference = VecDeque::new();
        for slot in 0..48u32 {
            // Only every third warp is ready at cycle 0.
            let e = ReadyEntry {
                slot,
                ready_at: if slot % 3 == 0 { 0 } else { 10 },
            };
            ring.push_back(e);
            reference.push_back(e);
        }
        // Pop and immediately re-queue many times so `head` laps the
        // 64-entry buffer while the ring stays at 48 entries.
        for round in 0..500 {
            let cycle = if round % 7 == 0 { 10 } else { 0 };
            let got = ring.pop_first_ready(cycle);
            assert_eq!(got, reference_lrr(&mut reference, cycle), "round {round}");
            let e = got.expect("a ready warp exists");
            ring.push_back(e);
            reference.push_back(e);
            assert_eq!(contents(&ring), Vec::from(reference.clone()));
        }
    }
}
