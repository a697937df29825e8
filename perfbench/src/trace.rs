//! In-memory span recorder for the traced run.
//!
//! A span wraps one call the benchmark makes into a layer's public API:
//! name, start, end, parent span, and the id of the request, fit or
//! epoch it belongs to. Parents are passed explicitly, so parentage holds
//! across the load generator's threads. Spans stay in memory until the
//! run ends and are then written as JSON lines. With tracing off a span
//! costs one branch: no clock read, no allocation.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// Request, fit or epoch id shared by the spans of one operation.
    pub op: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. Shared by reference across threads.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span; it is recorded when the guard drops. Returns an inert
    /// guard (id 0) when tracing is off.
    pub fn span(&self, name: &'static str, parent: u64, op: u64) -> Guard<'_> {
        if !self.on {
            return Guard {
                tracer: self,
                id: 0,
                parent,
                name,
                op,
                start: None,
            };
        }
        Guard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            op,
            start: Some(Instant::now()),
        }
    }

    /// Run `f` inside a span, handing it the span id to parent children.
    pub fn time<T>(&self, name: &'static str, parent: u64, op: u64, f: impl FnOnce(u64) -> T) -> T {
        let g = self.span(name, parent, op);
        let out = f(g.id);
        drop(g);
        out
    }

    fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .clone()
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Write every span as one JSON object per line, then a per-name
    /// summary line with total and self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        for (name, t) in self_times(&spans) {
            writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        out.flush()
    }
}

/// An open span; records itself on drop.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    pub id: u64,
    parent: u64,
    name: &'static str,
    op: u64,
    start: Option<Instant>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let origin = self.tracer.origin;
            self.tracer.record(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                op: self.op,
                start_ns: (start - origin).as_nanos() as u64,
                end_ns: origin.elapsed().as_nanos() as u64,
            });
        }
    }
}

/// Count, total and self time of all spans sharing a name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NameTimes {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals, where a span's self time is its duration minus the
/// part of its interval that its children cover (overlapping children,
/// as on parallel threads, are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTimes> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTimes> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |iv| covered_ns(iv, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns() - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "fit", 0, 100),
            // Two overlapping children (parallel threads) and one disjoint.
            span(2, 1, "tree", 10, 40),
            span(3, 1, "tree", 30, 50),
            span(4, 1, "save", 80, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["fit"].total_ns, 100);
        // Covered: [10, 50) ∪ [80, 100) = 60.
        assert_eq!(t["fit"].self_ns, 40);
        assert_eq!(t["tree"].count, 2);
        assert_eq!(t["tree"].self_ns, 50);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        let id = tr.time("x", 0, 0, |id| id);
        assert_eq!(id, 0);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_keeps_parentage() {
        let tr = Tracer::new(true);
        tr.time("outer", 0, 7, |outer| {
            std::thread::scope(|s| {
                s.spawn(|| drop(tr.span("inner", outer, 7)));
            });
        });
        let spans = tr.spans();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.op, 7);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
