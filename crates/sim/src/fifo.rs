//! First-in, first-out lists whose nodes share one pool.
//!
//! A list is a single `u32` handle naming its tail node, [`EMPTY`] when
//! the list is empty; the tail links back to the head, so the one handle
//! reaches both ends. Freed nodes go on a free list and are reused, so the
//! pool grows to the most nodes ever live at once and then stops
//! allocating. The timing wheel's buckets and the memory system's lists
//! of L1 requests waiting on an L2 miss are such lists.

/// The handle of an empty list.
pub(crate) const EMPTY: u32 = u32::MAX;

/// The node pool.
#[derive(Debug, Clone)]
pub(crate) struct FifoPool<T> {
    /// Each node's value and the next node: in its list (the tail's next
    /// is the head), or in the free list.
    nodes: Vec<(T, u32)>,
    free: u32,
}

impl<T: Copy> FifoPool<T> {
    pub fn new() -> Self {
        FifoPool {
            nodes: Vec::new(),
            free: EMPTY,
        }
    }

    /// Appends `value` to the list whose handle is `tail`.
    #[inline]
    pub fn push_back(&mut self, tail: &mut u32, value: T) {
        let id = if self.free == EMPTY {
            self.nodes.push((value, EMPTY));
            (self.nodes.len() - 1) as u32
        } else {
            let id = self.free;
            self.free = self.nodes[id as usize].1;
            self.nodes[id as usize].0 = value;
            id
        };
        self.nodes[id as usize].1 = if *tail == EMPTY {
            id
        } else {
            std::mem::replace(&mut self.nodes[*tail as usize].1, id)
        };
        *tail = id;
    }

    /// Removes and returns the head of the list whose handle is `tail`.
    #[inline]
    pub fn pop_front(&mut self, tail: &mut u32) -> Option<T> {
        if *tail == EMPTY {
            return None;
        }
        let head = self.nodes[*tail as usize].1;
        let (value, next) = self.nodes[head as usize];
        if head == *tail {
            *tail = EMPTY;
        } else {
            self.nodes[*tail as usize].1 = next;
        }
        self.nodes[head as usize].1 = self.free;
        self.free = head;
        Some(value)
    }

    /// Nodes ever allocated (live or free).
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use sttgpu_stats::Rng;

    #[test]
    fn lists_match_deques_and_recycle_nodes() {
        let mut rng = Rng::new(3);
        let mut pool = FifoPool::new();
        let mut tails = [EMPTY; 4];
        let mut reference: [VecDeque<u64>; 4] = Default::default();
        let mut most_live = 0;
        for step in 0..50_000u64 {
            let l = rng.range_usize(0, 4);
            if rng.chance(0.5) {
                pool.push_back(&mut tails[l], step);
                reference[l].push_back(step);
            } else {
                assert_eq!(pool.pop_front(&mut tails[l]), reference[l].pop_front());
            }
            assert_eq!(tails[l] == EMPTY, reference[l].is_empty());
            most_live = most_live.max(reference.iter().map(VecDeque::len).sum::<usize>());
        }
        assert_eq!(pool.capacity(), most_live, "freed nodes are reused first");
    }
}
