//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the operation it belongs to. Calls too short to time one by one (a
//! single LLC probe) are aggregated into a [`Tally`] per operation and
//! kind instead. Everything stays in memory until [`Tracer::write_jsonl`]
//! writes it out when the benchmark ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span; times are ns since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// The operation this span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `sim.run_workload`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Calls of one kind inside one span, timed one by one and summed.
#[derive(Debug, Clone)]
pub struct Tally {
    /// The span the calls ran under.
    pub parent: u64,
    /// The operation.
    pub op: u64,
    /// Layer-qualified call name, e.g. `core.probe`.
    pub name: &'static str,
    /// Calls made.
    pub count: u64,
    /// Summed host time of the calls, ns.
    pub total_ns: u64,
}

/// Collects spans and tallies from any number of worker threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    tallies: Mutex<Vec<Tally>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            tallies: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// A fresh id, for operations and spans alike.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` under a span named `name` of operation `op`, caused by
    /// `parent`. `f` receives the new span's id so it can open children.
    pub fn span<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.new_id();
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records `count` calls named `name` that took `total` together.
    pub fn tally(&self, name: &'static str, op: u64, parent: u64, count: u64, total: Duration) {
        self.tallies
            .lock()
            .expect("tally list poisoned")
            .push(Tally {
                parent,
                op,
                name,
                count,
                total_ns: total.as_nanos() as u64,
            });
    }

    /// Summed duration of every span named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span list poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        let spans = self.spans.lock().expect("span list poisoned");
        spans.iter().filter(|s| s.name == name).count()
    }

    /// Calls and summed ns of every tally named `name`.
    pub fn tally_total(&self, name: &str) -> (u64, u64) {
        let tallies = self.tallies.lock().expect("tally list poisoned");
        tallies
            .iter()
            .filter(|t| t.name == name)
            .fold((0, 0), |(c, ns), t| (c + t.count, ns + t.total_ns))
    }

    /// Self time per span name, seconds: each span's duration minus the
    /// part of it that its child spans cover (children of one span never
    /// overlap — a span's children run on its own thread, in sequence).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in spans.iter() {
            let own = s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *out.entry(s.name).or_default() += own as f64 / 1e9;
        }
        out
    }

    /// Writes every span and tally as one JSON object per line, then one
    /// line of self times per span name.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span list poisoned").iter() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, parent, s.op, s.start_ns, s.end_ns
            )?;
        }
        for t in self.tallies.lock().expect("tally list poisoned").iter() {
            writeln!(
                out,
                "{{\"tally\":\"{}\",\"parent\":{},\"op\":{},\"count\":{},\"total_ns\":{}}}",
                t.name, t.parent, t.op, t.count, t.total_ns
            )?;
        }
        let selfs: Vec<String> = self
            .self_times()
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        writeln!(out, "{{\"self_s\":{{{}}}}}", selfs.join(","))?;
        out.flush()
    }
}

/// [`Tracer::span`] when a tracer is given; otherwise just `f(None)`, so
/// untraced runs pay nothing.
pub fn span_opt<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    op: u64,
    parent: Option<u64>,
    f: impl FnOnce(Option<u64>) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, op, parent, |id| f(Some(id))),
        None => f(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::default();
        let op = t.new_id();
        t.span("outer", op, None, |id| {
            t.span("inner", op, Some(id), |_| {
                std::thread::sleep(Duration::from_millis(20));
            });
            std::thread::sleep(Duration::from_millis(5));
        });
        let selfs = t.self_times();
        assert!(selfs["inner"] >= 0.020);
        assert!(selfs["outer"] >= 0.005 && selfs["outer"] < 0.020);
        assert!(t.total_s("outer") >= t.total_s("inner"));
        assert_eq!(t.count("inner"), 1);
    }
}
