//! An SM's ready queue: a circular singly linked list of the warps
//! waiting to issue, threaded through the SM's warp slots.

/// Marks a slot that is not queued.
const NIL: u32 = u32::MAX;

/// One warp slot's place in the queue. `ready_at` is copied out of the
/// warp at enqueue time — it is immutable while the warp is queued — so a
/// scan walks this small table and never the warp table.
#[derive(Debug, Clone, Copy)]
struct Link {
    ready_at: u64,
    /// The next queued slot (the head, from the tail); `NIL` when this
    /// slot is not queued.
    next: u32,
}

/// The ready queue. One link per warp slot, so it never reallocates; each
/// slot is queued at most once, so every pop is a relink and nothing is
/// copied.
#[derive(Debug)]
pub(crate) struct ReadyList {
    links: Box<[Link]>,
    /// The first and last queued slots, both `NIL` when the queue is
    /// empty; `links[tail].next` is `head`. Keeping the head spares a pop
    /// one dependent load.
    head: u32,
    tail: u32,
}

impl ReadyList {
    /// An empty queue over `slots` warp slots.
    pub fn with_slots(slots: usize) -> Self {
        ReadyList {
            links: vec![
                Link {
                    ready_at: 0,
                    next: NIL
                };
                slots
            ]
            .into_boxed_slice(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Queues `slot`, which must not be queued already, at the tail.
    #[inline]
    pub fn push_back(&mut self, slot: usize, ready_at: u64) {
        debug_assert_eq!(self.links[slot].next, NIL, "slot {slot} queued twice");
        let slot32 = slot as u32;
        if self.tail == NIL {
            self.head = slot32;
        } else {
            self.links[self.tail as usize].next = slot32;
        }
        self.links[slot] = Link {
            ready_at,
            next: self.head,
        };
        self.tail = slot32;
    }

    /// Unlinks `slot`, whose predecessor in the circle is `prev` and
    /// successor `next`. With `rotate`, the circle then starts at `next`
    /// (so `prev` becomes the tail); otherwise its ends move only if
    /// `slot` was one of them.
    #[inline]
    fn unlink(&mut self, prev: u32, slot: u32, next: u32, rotate: bool) {
        if prev == slot {
            self.head = NIL;
            self.tail = NIL;
        } else {
            self.links[prev as usize].next = next;
            if rotate || slot == self.head {
                self.head = next;
            }
            if rotate || slot == self.tail {
                self.tail = prev;
            }
        }
        self.links[slot as usize].next = NIL;
    }

    /// Loose round-robin pop: removes the first slot ready at `cycle` and
    /// moves the not-ready slots ahead of it behind the tail, keeping
    /// their order — which, in a circle, is just starting the circle
    /// after it. When no slot is ready the walk has seen them all and
    /// returns their earliest `ready_at` (`u64::MAX` when empty).
    pub fn pop_first_ready(&mut self, cycle: u64) -> Result<usize, u64> {
        let mut min = u64::MAX;
        let (mut prev, mut cur) = (self.tail, self.head);
        while cur != NIL {
            let Link { ready_at, next } = self.links[cur as usize];
            if ready_at <= cycle {
                self.unlink(prev, cur, next, true);
                return Ok(cur as usize);
            }
            min = min.min(ready_at);
            if cur == self.tail {
                break;
            }
            (prev, cur) = (cur, next);
        }
        Err(min)
    }

    /// Greedy-then-oldest pop: removes the slot ready at `cycle` with the
    /// smallest `age_of`, leaving the others in order. Ages are unique,
    /// so the choice does not depend on queue order. When no slot is
    /// ready, returns their earliest `ready_at` (`u64::MAX` when empty).
    pub fn pop_oldest_ready(
        &mut self,
        cycle: u64,
        age_of: impl Fn(usize) -> u64,
    ) -> Result<usize, u64> {
        let mut min = u64::MAX;
        // (predecessor, slot, successor, age) of the oldest ready slot.
        let mut best: Option<(u32, u32, u32, u64)> = None;
        let (mut prev, mut cur) = (self.tail, self.head);
        while cur != NIL {
            let Link { ready_at, next } = self.links[cur as usize];
            if ready_at > cycle {
                min = min.min(ready_at);
            } else {
                let age = age_of(cur as usize);
                if best.is_none_or(|(.., oldest)| age < oldest) {
                    best = Some((prev, cur, next, age));
                }
            }
            if cur == self.tail {
                break;
            }
            (prev, cur) = (cur, next);
        }
        let (prev, slot, next, _) = best.ok_or(min)?;
        self.unlink(prev, slot, next, false);
        Ok(slot as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use sttgpu_stats::Rng;

    /// A queued slot and the `ready_at` it was queued with.
    type Entry = (usize, u64);

    /// The queue as a `VecDeque` with a bulk rotate for LRR and an
    /// order-keeping removal for GTO; a failed pop yields the queue's
    /// earliest `ready_at`, as the SM's `next_ready` rescan computed it.
    fn reference_lrr(q: &mut VecDeque<Entry>, cycle: u64) -> Result<usize, u64> {
        let Some(pos) = q.iter().position(|e| e.1 <= cycle) else {
            return Err(reference_min(q));
        };
        q.rotate_left(pos);
        Ok(q.pop_front().expect("found above").0)
    }

    fn reference_gto(q: &mut VecDeque<Entry>, cycle: u64, ages: &[u64]) -> Result<usize, u64> {
        let best = q
            .iter()
            .enumerate()
            .filter(|(_, e)| e.1 <= cycle)
            .min_by_key(|(_, e)| ages[e.0])
            .map(|(i, _)| i);
        match best {
            Some(i) => Ok(q.remove(i).expect("index valid").0),
            None => Err(reference_min(q)),
        }
    }

    fn reference_min(q: &VecDeque<Entry>) -> u64 {
        q.iter().map(|e| e.1).min().unwrap_or(u64::MAX)
    }

    /// The queue's entries, head first, by walking the circle.
    fn contents(r: &ReadyList) -> Vec<Entry> {
        let mut out = Vec::new();
        if r.tail == NIL {
            assert_eq!(r.head, NIL);
            return out;
        }
        assert_eq!(
            r.head, r.links[r.tail as usize].next,
            "head is the tail's next"
        );
        let mut cur = r.head;
        loop {
            out.push((cur as usize, r.links[cur as usize].ready_at));
            if cur == r.tail {
                return out;
            }
            cur = r.links[cur as usize].next;
        }
    }

    /// Drives the list and the reference through one random sequence of
    /// enqueues and pops, asserting identical pops, contents and minima,
    /// and that exactly the queued slots are linked.
    fn check(seed: u64, warps: usize, steps: usize) {
        let mut rng = Rng::new(seed);
        let mut list = ReadyList::with_slots(warps);
        let mut reference = VecDeque::new();
        // Slots not currently queued; each slot's age, renewed (like a
        // relaunched warp's) every time it is queued.
        let mut idle: Vec<usize> = (0..warps).collect();
        let mut ages = vec![0u64; warps];
        let mut age = 0u64;
        let mut cycle = 0u64;
        let mut fullest = 0;
        for step in 0..steps {
            cycle += rng.range_u64(0, 3);
            // Bias towards enqueues so the list runs full regularly.
            if !idle.is_empty() && rng.chance(0.55) {
                let slot = idle.swap_remove(rng.range_usize(0, idle.len()));
                let ready_at = cycle + rng.range_u64(0, 40);
                ages[slot] = age;
                age += 1;
                list.push_back(slot, ready_at);
                reference.push_back((slot, ready_at));
            } else {
                let lrr = rng.chance(0.5);
                let (got, want) = if lrr {
                    (
                        list.pop_first_ready(cycle),
                        reference_lrr(&mut reference, cycle),
                    )
                } else {
                    (
                        list.pop_oldest_ready(cycle, |slot| ages[slot]),
                        reference_gto(&mut reference, cycle, &ages),
                    )
                };
                assert_eq!(got, want, "seed {seed}, step {step}, lrr {lrr}");
                if let Ok(slot) = got {
                    idle.push(slot);
                }
            }
            assert_eq!(contents(&list), Vec::from(reference.clone()));
            for &slot in &idle {
                assert_eq!(list.links[slot].next, NIL, "idle slot {slot} linked");
            }
            fullest = fullest.max(reference.len());
        }
        assert_eq!(fullest, warps, "seed {seed}: the list never ran full");
    }

    #[test]
    fn list_matches_the_deque_reference() {
        // 48 warps (a GTX480 SM), 32, and tiny lists whose head and tail
        // coincide or swap on almost every operation.
        for (seed, warps) in [(1, 48), (2, 48), (3, 32), (4, 5), (5, 1), (6, 2)] {
            check(seed, warps, 20_000);
        }
    }

    #[test]
    fn full_list_rotates_like_the_deque() {
        let mut list = ReadyList::with_slots(48);
        let mut reference = VecDeque::new();
        for slot in 0..48usize {
            // Only every third warp is ready at cycle 0.
            let ready_at = if slot.is_multiple_of(3) { 0 } else { 10 };
            list.push_back(slot, ready_at);
            reference.push_back((slot, ready_at));
        }
        // Pop and immediately re-queue many times so the head laps the
        // circle while the list stays full.
        for round in 0..500 {
            let cycle = if round % 7 == 0 { 10 } else { 0 };
            let got = list.pop_first_ready(cycle);
            assert_eq!(got, reference_lrr(&mut reference, cycle), "round {round}");
            let slot = got.expect("a ready warp exists");
            let ready_at = if slot.is_multiple_of(3) { 0 } else { 10 };
            list.push_back(slot, ready_at);
            reference.push_back((slot, ready_at));
            assert_eq!(contents(&list), Vec::from(reference.clone()));
        }
    }

    #[test]
    fn gto_choice_does_not_depend_on_queue_order() {
        // The same queued set in two orders: the oldest ready slot and the
        // failed pop's minimum agree.
        let ages = [5u64, 3, 9, 1, 7, 2];
        let ready = [(0, 4), (1, 0), (2, 0), (3, 6), (4, 2), (5, 9)];
        let mut forward = ReadyList::with_slots(6);
        let mut backward = ReadyList::with_slots(6);
        for &(slot, at) in &ready {
            forward.push_back(slot, at);
        }
        for &(slot, at) in ready.iter().rev() {
            backward.push_back(slot, at);
        }
        for cycle in [0, 2, 2, 4, 6, 6, 9, 9] {
            let a = forward.pop_oldest_ready(cycle, |s| ages[s]);
            let b = backward.pop_oldest_ready(cycle, |s| ages[s]);
            assert_eq!(a, b, "cycle {cycle}");
        }
        assert_eq!(forward.pop_oldest_ready(100, |s| ages[s]), Err(u64::MAX));
    }
}
