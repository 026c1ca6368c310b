//! Tracing from outside the program: an in-memory span recorder, an
//! [`ExecutionBackend`] wrapper that times every backend call, and a
//! [`TaskRegistry`] whose kernels are wrapped with timers.
//!
//! Spans are recorded only around the benchmark's calls into each
//! layer's public functions; nothing inside the program is changed.

use condor::pool::{TaskContext, TaskRegistry};
use pegasus_wms::engine::{CompletionEvent, ExecutionBackend};
use pegasus_wms::planner::ExecutableJob;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `dax.parse`.
    pub name: &'static str,
    /// Start, seconds since the tracer's origin.
    pub start: f64,
    /// End, seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span recorder. When off, [`Tracer::span`] only calls its
/// closure, so the untraced run pays one branch per layer call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records (`on`) or only forwards.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Adds `v` to the counter `name` (work done at a layer boundary).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }

    /// Index of the next span to be recorded; pass it to
    /// [`Tracer::totals_since`] to summarise one pass.
    pub fn mark(&self) -> (usize, BTreeMap<&'static str, f64>) {
        (self.spans.len(), self.counts.clone())
    }

    /// Per-name duration sums of the spans recorded since `mark`, plus
    /// the counters' growth since then.
    pub fn totals_since(
        &self,
        mark: &(usize, BTreeMap<&'static str, f64>),
    ) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans[mark.0..] {
            *out.entry(s.name).or_insert(0.0) += s.end - s.start;
        }
        for (k, v) in &self.counts {
            let before = mark.1.get(k).copied().unwrap_or(0.0);
            *out.entry(*k).or_insert(0.0) += v - before;
        }
        out
    }

    /// All spans as JSON lines (`name`, `start`, `end`, `parent`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}}}",
                s.name, s.start, s.end
            );
        }
        out
    }
}

/// Times every call into a wrapped backend. Forwards every trait
/// method, the defaulted ones included, so the wrapped run makes
/// exactly the calls the bare run makes.
pub struct TimedBackend<B> {
    inner: B,
    busy: Cell<Duration>,
    calls: Cell<u64>,
}

impl<B: ExecutionBackend> TimedBackend<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Self {
        TimedBackend {
            inner,
            busy: Cell::new(Duration::ZERO),
            calls: Cell::new(0),
        }
    }

    /// Time spent inside the wrapped backend so far.
    pub fn busy(&self) -> Duration {
        self.busy.get()
    }

    /// Calls made into the wrapped backend so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// The wrapped backend.
    pub fn into_inner(self) -> B {
        self.inner
    }

    fn note(&self, started: Instant) {
        self.busy.set(self.busy.get() + started.elapsed());
        self.calls.set(self.calls.get() + 1);
    }
}

impl<B: ExecutionBackend> ExecutionBackend for TimedBackend<B> {
    fn submit(&mut self, job: &ExecutableJob, attempt: u32) {
        let t = Instant::now();
        self.inner.submit(job, attempt);
        self.note(t);
    }

    fn submit_after(&mut self, job: &ExecutableJob, attempt: u32, delay: f64) {
        let t = Instant::now();
        self.inner.submit_after(job, attempt, delay);
        self.note(t);
    }

    fn set_timeout(&mut self, timeout: Option<f64>) {
        let t = Instant::now();
        self.inner.set_timeout(timeout);
        self.note(t);
    }

    fn wait_any(&mut self) -> CompletionEvent {
        let t = Instant::now();
        let ev = self.inner.wait_any();
        self.note(t);
        ev
    }

    fn now(&self) -> f64 {
        let t = Instant::now();
        let now = self.inner.now();
        self.note(t);
        now
    }

    fn slot_capacity(&self) -> Option<usize> {
        let t = Instant::now();
        let cap = self.inner.slot_capacity();
        self.note(t);
        cap
    }
}

/// Busy time and call count per transformation, shared with the
/// pool's worker threads.
#[derive(Default)]
pub struct KernelClock {
    busy: Mutex<BTreeMap<String, (Duration, u64)>>,
}

impl KernelClock {
    fn add(&self, transformation: &str, d: Duration) {
        let mut m = self
            .busy
            .lock()
            .expect("no kernel timer panics while holding the lock");
        let e = m.entry(transformation.to_string()).or_default();
        e.0 += d;
        e.1 += 1;
    }

    /// Busy time and calls of one transformation.
    pub fn get(&self, transformation: &str) -> (Duration, u64) {
        self.busy
            .lock()
            .expect("no kernel timer panics while holding the lock")
            .get(transformation)
            .copied()
            .unwrap_or_default()
    }

    /// Busy time summed over every transformation.
    pub fn total(&self) -> Duration {
        self.busy
            .lock()
            .expect("no kernel timer panics while holding the lock")
            .values()
            .map(|(d, _)| *d)
            .sum()
    }
}

/// A registry whose entries call `inner`'s kernels for
/// `transformations` under a timer that reports into `clock`.
///
/// # Panics
/// Panics if `inner` lacks one of the transformations.
pub fn timed_registry(
    inner: &TaskRegistry,
    transformations: &[&str],
    clock: &Arc<KernelClock>,
) -> TaskRegistry {
    let mut reg = TaskRegistry::new();
    for &t in transformations {
        let kernel = inner
            .get(t)
            .unwrap_or_else(|| panic!("registry has no kernel for {t}"))
            .clone();
        let clock = Arc::clone(clock);
        let name = t.to_string();
        reg.register(t, move |ctx: &TaskContext| {
            let start = Instant::now();
            let out = kernel(ctx);
            clock.add(&name, start.elapsed());
            out
        });
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_per_pass() {
        let mut t = Tracer::new(true);
        let mark = t.mark();
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            t.count("work", 3.0);
        });
        let totals = t.totals_since(&mark);
        assert!(totals["outer"] >= totals["inner"]);
        assert!(totals["inner"] >= 0.002);
        assert_eq!(totals["work"], 3.0);
        assert!(t.to_jsonl().contains("\"name\": \"inner\", "));
        assert!(t.to_jsonl().contains("\"parent\": 0}"));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let mark = t.mark();
        let v = t.span("x", |t| {
            t.count("c", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(t.totals_since(&mark).is_empty());
        assert!(t.to_jsonl().is_empty());
    }
}
