//! The closed-loop load generator: a fixed pool of workers, each taking the next
//! operation only when its previous one has returned, so a slower system
//! receives less load — the way callers of this simulator wait for their
//! results.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One operation's outcome and its host time, measured around the call.
#[derive(Debug)]
pub struct Timed<R> {
    /// What the operation returned; `Err` holds a panic message.
    pub result: Result<R, String>,
    /// Host time of the call.
    pub elapsed: Duration,
}

/// One pass over a list of operations.
#[derive(Debug)]
pub struct Pass<R> {
    /// Per-operation outcomes, in input order.
    pub ops: Vec<Timed<R>>,
    /// Host time from the pass's start to its last operation's end.
    pub wall: Duration,
}

impl<R> Pass<R> {
    /// Sum of the operations' own host times (busy worker time).
    pub fn busy(&self) -> Duration {
        self.ops.iter().map(|t| t.elapsed).sum()
    }
}

/// Workers the closed loop uses on this host: one per available core.
pub fn host_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `op(i)` for every `i < n` on `workers` threads. Each worker pulls
/// the next index only after its previous call returned; a panicking call
/// is caught and reported as that operation's error. A single worker runs
/// on the calling thread, so its allocations stay in that thread's
/// allocator arena.
pub fn run_pass<R, F>(workers: usize, n: usize, op: F) -> Pass<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break done;
            }
            let t0 = Instant::now();
            let result =
                catch_unwind(AssertUnwindSafe(|| op(i))).map_err(|p| panic_text(p.as_ref()));
            let elapsed = t0.elapsed();
            done.push((i, Timed { result, elapsed }));
        }
    };
    let threads = workers.clamp(1, n.max(1));
    let mut tagged: Vec<(usize, Timed<R>)> = if threads == 1 {
        work()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .flat_map(|h| {
                    h.join()
                        .expect("benchmark worker panicked outside an operation")
                })
                .collect()
        })
    };
    let wall = start.elapsed();
    tagged.sort_by_key(|(i, _)| *i);
    Pass {
        ops: tagged.into_iter().map(|(_, t)| t).collect(),
        wall,
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order_and_panics_are_caught() {
        let pass = run_pass(3, 20, |i| {
            assert!(i != 7, "op seven fails");
            i * 2
        });
        assert_eq!(pass.ops.len(), 20);
        for (i, t) in pass.ops.iter().enumerate() {
            match &t.result {
                Ok(v) => assert_eq!(*v, i * 2),
                Err(msg) => {
                    assert_eq!(i, 7);
                    assert!(msg.contains("op seven fails"));
                }
            }
        }
        assert!(pass.busy() <= pass.wall * 3);
    }
}
