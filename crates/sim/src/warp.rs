//! Warp execution state.

use crate::program::WarpProgram;

/// One resident warp's scheduler-visible state.
#[derive(Debug, Clone)]
pub struct Warp {
    /// The warp's instruction stream.
    pub program: WarpProgram,
    /// Index of the owning block in the SM's block table.
    pub block_slot: usize,
    /// Launch order within the SM (lower = older), used by GTO scheduling.
    pub age: u64,
    /// Outstanding load requests (the warp stalls at the SM's
    /// `max_pending_loads`).
    pub pending_loads: u32,
    /// Earliest cycle the warp may issue again.
    pub ready_at: u64,
    /// Whether the warp currently sits in the SM's ready queue.
    pub queued: bool,
    /// Whether a load must replay (e.g. after an MSHR-full stall) before
    /// the stream continues. Its addresses sit in the SM's replay table
    /// under this warp's slot.
    pub replay: bool,
}

impl Warp {
    /// Creates a warp ready to issue at cycle 0.
    pub fn new(program: WarpProgram, block_slot: usize) -> Self {
        Warp {
            program,
            block_slot,
            age: 0,
            pending_loads: 0,
            ready_at: 0,
            queued: false,
            replay: false,
        }
    }

    /// Whether the warp has issued its whole stream (it may still have
    /// loads in flight).
    pub fn stream_done(&self) -> bool {
        self.program.is_finished() && !self.replay
    }

    /// Whether the warp can retire: stream done and no loads in flight.
    pub fn can_retire(&self) -> bool {
        self.stream_done() && self.pending_loads == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LineSize;
    use crate::kernel::KernelParams;
    use crate::program::StreamShape;
    use std::sync::Arc;

    fn warp(instrs: u32) -> Warp {
        let k = KernelParams::new("k", 1, 32).with_instructions(instrs);
        let shape = Arc::new(StreamShape::new(&k, LineSize::new(128)));
        Warp::new(WarpProgram::new(shape, 0, 0, 1), 0)
    }

    #[test]
    fn fresh_warp_is_issuable() {
        let w = warp(10);
        assert!(!w.stream_done());
        assert!(!w.can_retire());
        assert_eq!(w.pending_loads, 0);
    }

    #[test]
    fn drains_to_retirement() {
        let mut w = warp(3);
        let mut addrs = Vec::new();
        for _ in 0..3 {
            assert!(w.program.next_into(&mut addrs).is_some());
        }
        assert!(w.program.next_into(&mut addrs).is_none());
        assert!(w.can_retire());
    }

    #[test]
    fn pending_loads_block_retirement() {
        let mut w = warp(1);
        let _ = w.program.next_into(&mut Vec::new());
        w.pending_loads = 1;
        assert!(w.stream_done());
        assert!(!w.can_retire());
        w.pending_loads = 0;
        assert!(w.can_retire());
    }

    #[test]
    fn pending_replay_blocks_retirement() {
        let mut w = warp(1);
        let _ = w.program.next_into(&mut Vec::new());
        w.replay = true;
        assert!(!w.stream_done());
        assert!(!w.can_retire());
    }
}
