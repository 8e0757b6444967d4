//! Retention deadline index of one two-part LLC array.
//!
//! The refresh engine (LR) and the expiry engine (HR) must visit every
//! line the moment its retention counter reaches the last tick, in
//! `(deadline, line address, stamp)` order. Scanning the array on every
//! maintenance call is exact but pays for every resident line; queueing
//! one entry per array write pays instead for every write, and most of
//! those entries are dead (the line was rewritten, migrated or evicted)
//! by the time they pop.
//!
//! [`DeadlineQueue`] tracks **at most one queued entry per slot**, so
//! at most one per line residency:
//!
//! * a write restamps the line and queues a new entry only if its key is
//!   *earlier* than the one its slot has queued (the raw call stream is
//!   not monotone in time, so this does happen);
//! * when a slot's entry pops and the line now in the slot has a later
//!   live key — it was rewritten, or another line took the slot — the
//!   entry is re-queued at that live key;
//! * an entry that a slot no longer tracks, or whose slot is empty, is
//!   discarded when it pops.
//!
//! Every resident line therefore always has its slot's entry queued at
//! or before its live key, so live deadlines come out in exactly the
//! order a full scan sorting every due line would produce, while the
//! queue never holds much more than one entry per slot.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sttgpu_cache::{SetAssocCache, Slot};

/// A deadline's sort key: `(deadline_ns, line address, stamp)`.
type Key = (u64, u64, u64);

/// Tracked key of a slot with no queued entry.
const NOT_QUEUED: Key = (u64::MAX, u64::MAX, u64::MAX);

/// Per-line retention metadata of both parts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RetMeta {
    /// When the cell array last physically wrote this line (fill, demand
    /// write or refresh) — the retention clock.
    pub(crate) written_at_ns: u64,
    /// When the engine must next act on the line: the tracker's deadline
    /// for `written_at_ns`, or `now + 1` after a dropped refresh.
    pub(crate) due_ns: u64,
}

/// One queued deadline. The derived order is the [`Key`]; the slot only
/// breaks ties between identical keys, which behave the same whichever
/// pops first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct DeadlineEntry {
    deadline_ns: u64,
    la: u64,
    stamp: u64,
    slot: Slot,
}

impl DeadlineEntry {
    fn key(&self) -> Key {
        (self.deadline_ns, self.la, self.stamp)
    }
}

/// Min-queue of retention deadlines over one array (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct DeadlineQueue {
    heap: BinaryHeap<Reverse<DeadlineEntry>>,
    /// Per slot, the key of the entry tracking it ([`NOT_QUEUED`] when
    /// none). Never later than the live key of the line in the slot.
    queued: Vec<Key>,
}

impl DeadlineQueue {
    /// An empty queue over an array of `capacity_lines` slots.
    pub(crate) fn new(capacity_lines: usize) -> Self {
        DeadlineQueue {
            heap: BinaryHeap::new(),
            queued: vec![NOT_QUEUED; capacity_lines],
        }
    }

    fn push(&mut self, slot: Slot, (deadline_ns, la, stamp): Key) {
        self.queued[slot.index()] = (deadline_ns, la, stamp);
        self.heap.push(Reverse(DeadlineEntry {
            deadline_ns,
            la,
            stamp,
            slot,
        }));
    }

    /// Stamps the valid line at `slot` with retention clock `stamp` and
    /// live deadline `deadline_ns`, queueing an entry only when that is
    /// earlier than the slot's tracked one.
    pub(crate) fn arm(
        &mut self,
        cache: &mut SetAssocCache<RetMeta>,
        slot: Slot,
        stamp: u64,
        deadline_ns: u64,
    ) {
        let line = cache.line_mut(slot);
        line.meta = RetMeta {
            written_at_ns: stamp,
            due_ns: deadline_ns,
        };
        let key = (deadline_ns, line.line_addr(), stamp);
        if key < self.queued[slot.index()] {
            self.push(slot, key);
        }
    }

    /// Pops the next line whose live deadline is at or before `now_ns`
    /// and returns `(slot, line address, stamp)`. The slot is left
    /// untracked: the caller must [`arm`](Self::arm) the line again or
    /// remove it from the array.
    pub(crate) fn pop_due(
        &mut self,
        cache: &SetAssocCache<RetMeta>,
        now_ns: u64,
    ) -> Option<(Slot, u64, u64)> {
        while let Some(&Reverse(e)) = self.heap.peek() {
            if e.deadline_ns > now_ns {
                return None;
            }
            self.heap.pop();
            if self.queued[e.slot.index()] != e.key() {
                continue; // superseded by an earlier entry for this slot
            }
            self.queued[e.slot.index()] = NOT_QUEUED;
            let line = cache.line(e.slot);
            if !line.is_valid() {
                continue;
            }
            let live = (line.meta.due_ns, line.line_addr(), line.meta.written_at_ns);
            if live == e.key() {
                return Some((e.slot, e.la, e.stamp));
            }
            // Rewritten, or another line took the slot: follow the slot
            // to its live deadline, which is never earlier.
            self.push(e.slot, live);
        }
        None
    }

    /// Drops every entry, ready for the caller to re-[`arm`](Self::arm)
    /// the lines it keeps.
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
        self.queued.fill(NOT_QUEUED);
    }

    /// Queued entries, tracked or not.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttgpu_cache::ReplacementPolicy;

    fn array() -> (SetAssocCache<RetMeta>, DeadlineQueue) {
        let c = SetAssocCache::new(4, 2, 256, ReplacementPolicy::Lru);
        let q = DeadlineQueue::new(c.capacity_lines());
        (c, q)
    }

    fn insert(c: &mut SetAssocCache<RetMeta>, la: u64) -> Slot {
        c.fill_with(la, true, 0, RetMeta::default(), 0).slot
    }

    fn drain(q: &mut DeadlineQueue, c: &SetAssocCache<RetMeta>, now: u64) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop_due(c, now).map(|(_, la, stamp)| (la, stamp))).collect()
    }

    #[test]
    fn later_rewrites_queue_nothing_and_forward_on_pop() {
        let (mut c, mut q) = array();
        let s = insert(&mut c, 1);
        q.arm(&mut c, s, 0, 100);
        q.arm(&mut c, s, 10, 110);
        q.arm(&mut c, s, 20, 120);
        assert_eq!(q.len(), 1, "one entry per residency");
        assert!(drain(&mut q, &c, 105).is_empty(), "forwarded, not due");
        assert_eq!(drain(&mut q, &c, 120), vec![(1, 20)]);
    }

    #[test]
    fn an_earlier_rewrite_queues_its_own_entry() {
        let (mut c, mut q) = array();
        let s = insert(&mut c, 1);
        q.arm(&mut c, s, 50, 150);
        q.arm(&mut c, s, 40, 140);
        assert_eq!(drain(&mut q, &c, 145), vec![(1, 40)]);
        assert!(drain(&mut q, &c, 1_000).is_empty(), "old entry superseded");
    }

    #[test]
    fn a_new_line_in_the_slot_inherits_its_entry() {
        let (mut c, mut q) = array();
        let s = insert(&mut c, 1);
        q.arm(&mut c, s, 0, 100);
        c.extract_at(s);
        let s2 = insert(&mut c, 5); // same set, reuses the slot
        assert_eq!(s, s2);
        q.arm(&mut c, s2, 30, 130);
        assert_eq!(q.len(), 1, "the slot's entry serves the new line");
        assert!(drain(&mut q, &c, 100).is_empty());
        assert_eq!(drain(&mut q, &c, 130), vec![(5, 30)]);
    }

    #[test]
    fn entries_of_emptied_slots_are_discarded() {
        let (mut c, mut q) = array();
        let s = insert(&mut c, 1);
        q.arm(&mut c, s, 0, 100);
        c.extract_at(s);
        assert!(drain(&mut q, &c, 1_000).is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn due_lines_pop_in_deadline_address_order() {
        let (mut c, mut q) = array();
        for (la, stamp) in [(3, 5), (1, 5), (2, 0), (7, 9)] {
            let s = insert(&mut c, la);
            q.arm(&mut c, s, stamp, stamp + 100);
        }
        assert_eq!(drain(&mut q, &c, 106), vec![(2, 0), (1, 5), (3, 5)]);
    }
}
