//! The memory system's event queue: a timing wheel of 1-ns buckets for
//! near events and an overflow heap for far (and late) ones.
//!
//! Events pop in exact (time, push order) order, as from a binary heap
//! keyed on `(time, sequence number)`. Most events land within a few
//! hundred nanoseconds of the present (interconnect hops, L2 hits, DRAM
//! row hits), so they go to the wheel: an append to a bucket's FIFO list,
//! no comparisons. DRAM queueing under load schedules a tail further
//! out: over the reference-scale Fig. 8 runs, 22% of all events are more
//! than 1 µs ahead but only 3.5% are 4 µs or more. Events at or beyond
//! [`HORIZON_NS`] ahead of the wheel's base, and events pushed for a time
//! the wheel has already passed, go to the overflow heap.
//!
//! **Tie rule.** When an overflow event and a wheel event share a time,
//! the overflow event pops first. This is exact: the base only moves
//! forward and never past a queued wheel event, so once a time `t` falls
//! inside the wheel's window `[base, base + HORIZON_NS)` it stays there
//! until `t` has been drained. Hence every overflow push for `t` (made
//! while `t` was beyond the window, or below it with no wheel event left
//! at `t`) precedes every wheel push for `t` still queued.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fifo::{FifoPool, EMPTY};

/// Width of the wheel's window, ns: one bucket per nanosecond. Wide
/// enough that the heap sees a few percent of the events; the buckets
/// cost 16 KB per memory system.
pub const HORIZON_NS: u64 = 4096;

const BUCKETS: usize = HORIZON_NS as usize;
const WORDS: usize = BUCKETS / 64;

/// A time-ordered event queue; see the [module docs](self).
///
/// # Example
///
/// ```
/// use sttgpu_sim::events::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(30, 'b');
/// q.push(5_000, 'c'); // beyond the horizon: overflow heap
/// q.push(30, 'a');
/// assert_eq!(q.peek_time(), Some(30));
/// assert_eq!(q.pop_due(100), Some((30, 'b')));
/// assert_eq!(q.pop_due(100), Some((30, 'a')));
/// assert_eq!(q.pop_due(100), None);
/// assert_eq!(q.pop_due(5_000), Some((5_000, 'c')));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<K> {
    /// No wheel event is earlier; every wheel event is earlier than
    /// `base + HORIZON_NS`. Never decreases.
    base: u64,
    /// Time of the earliest wheel event (`u64::MAX` when none).
    wheel_min: u64,
    wheel_len: usize,
    /// Per bucket, the handle of its list in `pool`.
    buckets: Box<[u32]>,
    /// One bit per non-empty bucket.
    occupied: [u64; WORDS],
    /// The buckets' nodes; grows to the deepest the wheel has been.
    pool: FifoPool<K>,
    overflow: BinaryHeap<Reverse<(u64, u64, K)>>,
    overflow_seq: u64,
}

impl<K: Copy + Ord> Default for EventQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Ord> EventQueue<K> {
    /// An empty queue with its window at time 0.
    pub fn new() -> Self {
        EventQueue {
            base: 0,
            wheel_min: u64::MAX,
            wheel_len: 0,
            buckets: vec![EMPTY; BUCKETS].into_boxed_slice(),
            occupied: [0; WORDS],
            pool: FifoPool::new(),
            overflow: BinaryHeap::new(),
            overflow_seq: 0,
        }
    }

    /// Queued events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether no event is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queues `kind` at time `at`, after every event already queued for
    /// `at`.
    #[inline]
    pub fn push(&mut self, at: u64, kind: K) {
        // Late (`at < base`) pushes wrap to a huge offset: heap, too.
        if at.wrapping_sub(self.base) >= HORIZON_NS {
            self.overflow_seq += 1;
            self.overflow.push(Reverse((at, self.overflow_seq, kind)));
            return;
        }
        let b = bucket(at);
        self.occupied[b / 64] |= 1 << (b % 64);
        self.pool.push_back(&mut self.buckets[b], kind);
        self.wheel_len += 1;
        self.wheel_min = self.wheel_min.min(at);
    }

    /// Time of the earliest queued event. O(1).
    #[inline]
    pub fn peek_time(&self) -> Option<u64> {
        let far = self.overflow.peek().map_or(u64::MAX, |r| r.0 .0);
        let t = far.min(self.wheel_min);
        (t != u64::MAX || !self.is_empty()).then_some(t)
    }

    /// Removes and returns the earliest event if its time is at most
    /// `now`. When none is due, moves the wheel's window up towards `now`
    /// so that events pushed from the present land on the wheel.
    #[inline]
    pub fn pop_due(&mut self, now: u64) -> Option<(u64, K)> {
        match self.overflow.peek() {
            // Ties go to the overflow heap (see the module docs).
            Some(&Reverse((at, _, _))) if at <= self.wheel_min => {
                if at > now {
                    self.settle(now);
                    return None;
                }
                let Reverse((_, _, kind)) = self.overflow.pop().expect("peeked above");
                self.base = self.base.max(at);
                Some((at, kind))
            }
            _ => {
                let at = self.wheel_min;
                if at > now || self.wheel_len == 0 {
                    self.settle(now);
                    return None;
                }
                Some((at, self.pop_wheel(at)))
            }
        }
    }

    /// Removes the head of the (non-empty) bucket of `at`, the earliest
    /// wheel event, and re-derives `wheel_min`.
    fn pop_wheel(&mut self, at: u64) -> K {
        let b = bucket(at);
        let kind = self.pool.pop_front(&mut self.buckets[b]).expect("occupied");
        self.wheel_len -= 1;
        self.base = at;
        if self.buckets[b] == EMPTY {
            self.occupied[b / 64] &= !(1 << (b % 64));
            self.wheel_min = match self.wheel_len {
                0 => u64::MAX,
                _ => at + self.distance_to_next_occupied(b),
            };
        }
        kind
    }

    /// Cyclic distance from bucket `from` to the next occupied bucket.
    /// Every wheel event lies in `[base, base + HORIZON_NS)`, so cyclic
    /// bucket order from the base's bucket is time order.
    fn distance_to_next_occupied(&self, from: usize) -> u64 {
        let mut w = from / 64;
        let mut bits = self.occupied[w] & (!0u64 << (from % 64));
        for _ in 0..=WORDS {
            if bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                return ((b + BUCKETS - from) % BUCKETS) as u64;
            }
            w = (w + 1) % WORDS;
            bits = self.occupied[w];
        }
        unreachable!("the wheel holds an event but no bucket is occupied")
    }

    /// Moves the base up to `now`. Called only when nothing is due, so
    /// every wheel event is later than `now` and stays inside the window.
    fn settle(&mut self, now: u64) {
        debug_assert!(self.wheel_len == 0 || self.wheel_min > now);
        self.base = self.base.max(now);
    }
}

#[inline]
fn bucket(at: u64) -> usize {
    (at % HORIZON_NS) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttgpu_stats::Rng;

    /// The queue as it was before the wheel: a binary heap on
    /// `(time, push sequence)`; payloads are the sequence numbers, so any
    /// misordering shows in the popped values.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        seq: u64,
    }

    impl Reference {
        fn push(&mut self, at: u64) -> u64 {
            self.seq += 1;
            self.heap.push(Reverse((at, self.seq)));
            self.seq
        }

        fn peek_time(&self) -> Option<u64> {
            self.heap.peek().map(|r| r.0 .0)
        }

        fn pop_due(&mut self, now: u64) -> Option<(u64, u64)> {
            match self.heap.peek() {
                Some(&Reverse((at, _))) if at <= now => self.heap.pop().map(|r| r.0),
                _ => None,
            }
        }
    }

    /// Drives the queue and the reference through one random sequence,
    /// checking every pop, `peek_time` after every operation, and that the
    /// overflow heap and the late path were both exercised.
    fn check(seed: u64, steps: usize) {
        let mut rng = Rng::new(seed);
        let mut q = EventQueue::new();
        let mut r = Reference::default();
        let mut now = 0u64;
        let (mut far, mut late, mut ties) = (0, 0, 0);
        let push = |q: &mut EventQueue<u64>, r: &mut Reference, at: u64| {
            let id = r.push(at);
            q.push(at, id);
            assert_eq!(q.peek_time(), r.peek_time(), "after push at {at}");
            assert_eq!(q.len(), r.heap.len());
        };
        for _ in 0..steps {
            match rng.range_u64(0, 100) {
                // Near: mostly a few hundred ns out, as interconnect and
                // L2 hits schedule.
                0..=49 => push(&mut q, &mut r, now + rng.range_u64(0, 600)),
                // Far: DRAM queueing, beyond the horizon.
                50..=59 => {
                    far += 1;
                    push(
                        &mut q,
                        &mut r,
                        now + HORIZON_NS + rng.range_u64(0, 3 * HORIZON_NS),
                    );
                }
                // Either side of the window's edge, where a time crosses
                // from the heap's side to the wheel's as `now` advances.
                60..=69 => {
                    let edge = now + HORIZON_NS;
                    push(&mut q, &mut r, edge - rng.range_u64(0, 3));
                    push(&mut q, &mut r, edge + rng.range_u64(0, 3));
                    ties += 1;
                }
                // A tie across the horizon: the same time queued once from
                // beyond the window and again once it is inside.
                70..=72 => {
                    let at = now + HORIZON_NS + rng.range_u64(0, 64);
                    push(&mut q, &mut r, at);
                    now += rng.range_u64(64, HORIZON_NS);
                    drain(&mut q, &mut r, now);
                    push(&mut q, &mut r, at);
                    ties += 1;
                }
                // A drain to `now` that pushes during the drain: at the
                // popped event's time, before it, and just after it.
                73..=89 => {
                    now += rng.range_u64(0, 40);
                    while let Some(got) = q.pop_due(now) {
                        assert_eq!(Some(got), r.pop_due(now));
                        if rng.chance(0.2) {
                            let at = got.0.saturating_sub(rng.range_u64(0, 3));
                            late += u32::from(at < got.0);
                            push(&mut q, &mut r, at);
                            push(&mut q, &mut r, got.0 + rng.range_u64(0, 5));
                        }
                    }
                    assert_eq!(r.pop_due(now), None);
                    assert_eq!(q.peek_time(), r.peek_time());
                }
                // A long idle jump, possibly past everything queued.
                90..=94 => {
                    now += rng.range_u64(HORIZON_NS, 50 * HORIZON_NS);
                    drain(&mut q, &mut r, now);
                }
                // A plain time step.
                _ => now += rng.range_u64(1, 200),
            }
        }
        drain(&mut q, &mut r, u64::MAX);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert!(
            far > 0 && late > 0 && ties > 0,
            "seed {seed}: a path went unused"
        );
    }

    fn drain(q: &mut EventQueue<u64>, r: &mut Reference, now: u64) {
        loop {
            let got = q.pop_due(now);
            assert_eq!(got, r.pop_due(now), "drain to {now}");
            assert_eq!(q.peek_time(), r.peek_time(), "drain to {now}");
            if got.is_none() {
                return;
            }
        }
    }

    #[test]
    fn wheel_matches_the_heap_reference() {
        for seed in 1..=8 {
            check(seed, 20_000);
        }
    }

    #[test]
    fn overflow_event_pops_before_a_wheel_event_at_the_same_time() {
        let mut q = EventQueue::new();
        let at = HORIZON_NS + 10;
        q.push(at, 1); // beyond the window: overflow
        q.push(5, 0);
        assert_eq!(q.pop_due(100), Some((5, 0)));
        assert_eq!(q.pop_due(100), None); // the window moves up to 100
        q.push(at, 2); // now inside the window: wheel
        assert_eq!(q.pop_due(at), Some((at, 1)));
        assert_eq!(q.pop_due(at), Some((at, 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn late_pushes_pop_first_and_in_order() {
        let mut q = EventQueue::new();
        q.push(50, 'a');
        assert_eq!(q.pop_due(50), Some((50, 'a')));
        q.push(60, 'd');
        q.push(40, 'b'); // behind the window's base: overflow
        q.push(40, 'c');
        assert_eq!(q.peek_time(), Some(40));
        assert_eq!(q.pop_due(70), Some((40, 'b')));
        assert_eq!(q.pop_due(70), Some((40, 'c')));
        assert_eq!(q.pop_due(70), Some((60, 'd')));
    }

    #[test]
    fn recycled_nodes_keep_bucket_order() {
        // Fill and drain the same buckets repeatedly: freed nodes are
        // reused and each bucket stays first-in, first-out.
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            let t = round * 7;
            for i in 0..20 {
                q.push(t + i % 3, round * 100 + i);
            }
            let mut got = Vec::new();
            while let Some((at, id)) = q.pop_due(t + 2) {
                got.push((at, id));
            }
            let mut want: Vec<(u64, u64)> = (0..20).map(|i| (t + i % 3, round * 100 + i)).collect();
            want.sort_by_key(|&(at, _)| at);
            assert_eq!(got, want, "round {round}");
        }
        assert!(
            q.pool.capacity() <= 20,
            "the pool grew past the deepest wheel"
        );
    }
}
