//! Lightweight span/event tracing with a ring-buffer recorder.
//!
//! A *span* brackets a region of work: `let _s = span!("inner_step",
//! env = m);` opens it and the guard's drop closes it, recording one
//! [`TraceEvent`] carrying the span's id, its parent's id, its depth,
//! its duration and the recording thread's ordinal. An *event* is an
//! instant point (`event!("mrq_hit", env = m)`). Both are no-ops —
//! the macro bodies constant-fold away — unless the `obs` cargo
//! feature is on.
//!
//! A span's parent is the span open on its thread, so a span opened on
//! a parallel worker would lose the span that launched the work. Such
//! call sites take the launching thread's [`SpanCtx`] with [`current`]
//! before the parallel region and open their spans under it:
//! `span!(parent: ctx, "inner_step", env = m)`. The worker's span then
//! records that parent and the parent's depth plus one.
//!
//! Events land in a bounded in-memory ring (the flight recorder, newest
//! ~64k events) and are fanned out to any attached [`TraceSink`]s:
//! a JSON-lines file writer or a no-op. Ids, durations and thread
//! ordinals are observability data only — nothing in the traced code
//! paths reads them back, which is what keeps tracing
//! deterministic-safe.

use std::cell::Cell;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default ring capacity (events).
pub const RING_CAPACITY: usize = 65_536;

/// What a trace record marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum EventKind {
    /// A completed span (duration in `dur_ns`).
    Span,
    /// An instant event (`dur_ns` = 0).
    Event,
}

/// One recorded span or event.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TraceEvent {
    /// Global record sequence number (assignment order, not span-open
    /// order — spans are recorded when they *close*).
    pub seq: u64,
    /// Record id, unique in the process: a span's is drawn when it
    /// opens, an instant event's when it is recorded.
    pub id: u64,
    /// Id of the enclosing span, or `None` at the top level.
    pub parent: Option<u64>,
    /// Ordinal of the recording thread (0, 1, 2… in first-record order).
    pub thread: u64,
    /// Nesting depth: 0 at the top level, the parent's depth plus one
    /// under a parent.
    pub depth: u32,
    /// Span or instant event.
    pub kind: EventKind,
    /// The site name passed to `span!`/`event!`.
    pub name: String,
    /// The `key = value` fields, rendered to strings.
    pub fields: Vec<(String, String)>,
    /// Span duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
}

/// Receives every recorded event. Implementations must tolerate being
/// called from any thread.
pub trait TraceSink: Send + Sync {
    /// Called once per recorded event.
    fn on_event(&self, event: &TraceEvent);
    /// Flush buffered output (called when the sink is detached).
    fn flush(&self) {}
}

/// Discards everything. Attaching it exercises the fan-out path with
/// zero observable effect — used by the determinism tests.
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn on_event(&self, _event: &TraceEvent) {}
}

/// Writes each event as one JSON object per line.
pub struct JsonLinesSink {
    w: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl JsonLinesSink {
    /// Create (truncate) `path` and write JSON lines to it.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonLinesSink {
            w: Mutex::new(std::io::BufWriter::new(file)),
        })
    }
}

impl TraceSink for JsonLinesSink {
    fn on_event(&self, event: &TraceEvent) {
        let line = serde_json::to_string(event).unwrap_or_default();
        let mut w = self
            .w
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let mut w = self
            .w
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = w.flush();
    }
}

/// The global trace recorder: sequence counter, bounded ring, sinks.
pub struct Tracer {
    seq: AtomicU64,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    next_sink_id: AtomicU64,
    has_sink: AtomicBool,
    ring: Mutex<VecDeque<TraceEvent>>,
    sinks: Mutex<Vec<(u64, Arc<dyn TraceSink>)>>,
}

/// Where a new span attaches: the enclosing span, if any, and the depth
/// a span opened there records. Copy it across threads to keep a
/// worker's spans under the span that launched the work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanCtx {
    parent: Option<u64>,
    depth: u32,
}

thread_local! {
    static THREAD_ORD: Cell<u64> = const { Cell::new(u64::MAX) };
    static CURRENT: Cell<SpanCtx> = const {
        Cell::new(SpanCtx {
            parent: None,
            depth: 0,
        })
    };
}

/// The calling thread's [`SpanCtx`]: under its innermost open span, or
/// the top level when none is open (always, without the `obs` feature).
#[must_use]
pub fn current() -> SpanCtx {
    if super::enabled() {
        CURRENT.with(Cell::get)
    } else {
        SpanCtx::default()
    }
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

/// The process-global tracer.
pub fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        seq: AtomicU64::new(0),
        next_id: AtomicU64::new(0),
        next_thread: AtomicU64::new(0),
        next_sink_id: AtomicU64::new(0),
        has_sink: AtomicBool::new(false),
        ring: Mutex::new(VecDeque::with_capacity(1024)),
        sinks: Mutex::new(Vec::new()),
    })
}

impl Tracer {
    fn thread_ordinal(&self) -> u64 {
        THREAD_ORD.with(|c| {
            let v = c.get();
            if v != u64::MAX {
                return v;
            }
            let v = self.next_thread.fetch_add(1, Ordering::Relaxed);
            c.set(v);
            v
        })
    }

    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn record(
        &self,
        kind: EventKind,
        id: u64,
        ctx: SpanCtx,
        name: &str,
        fields: Vec<(String, String)>,
        dur_ns: u64,
    ) {
        let event = TraceEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            id,
            parent: ctx.parent,
            thread: self.thread_ordinal(),
            depth: ctx.depth,
            kind,
            name: name.to_string(),
            fields,
            dur_ns,
        };
        {
            let mut ring = self
                .ring
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if ring.len() == RING_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(event.clone());
        }
        if self.has_sink.load(Ordering::Relaxed) {
            let sinks = self
                .sinks
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (_, sink) in sinks.iter() {
                sink.on_event(&event);
            }
        }
    }

    /// Attach a sink; returns an id for [`remove_sink`](Self::remove_sink).
    pub fn add_sink(&self, sink: Arc<dyn TraceSink>) -> u64 {
        let id = self.next_sink_id.fetch_add(1, Ordering::Relaxed);
        let mut sinks = self
            .sinks
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        sinks.push((id, sink));
        self.has_sink.store(true, Ordering::Relaxed);
        id
    }

    /// Detach a sink (flushing it first). Unknown ids are ignored.
    pub fn remove_sink(&self, id: u64) {
        let mut sinks = self
            .sinks
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(pos) = sinks.iter().position(|(i, _)| *i == id) {
            let (_, sink) = sinks.remove(pos);
            sink.flush();
        }
        self.has_sink.store(!sinks.is_empty(), Ordering::Relaxed);
    }

    /// Copy of the ring's current contents, oldest first.
    pub fn ring_snapshot(&self) -> Vec<TraceEvent> {
        self.ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }
}

/// Open guard returned by [`span!`](crate::span). Records the span on drop.
pub struct SpanGuard {
    name: &'static str,
    fields: Vec<(String, String)>,
    start: Instant,
    id: u64,
    ctx: SpanCtx,
    /// The thread's context before this span opened, restored on drop.
    prev: SpanCtx,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        CURRENT.with(|c| c.set(self.prev));
        tracer().record(
            EventKind::Span,
            self.id,
            self.ctx,
            self.name,
            std::mem::take(&mut self.fields),
            dur_ns,
        );
    }
}

/// Open a span under `ctx` (called by the `span!` macro; prefer the
/// macro). Until the guard drops, spans and events on this thread nest
/// under it.
pub fn span_guard(ctx: SpanCtx, name: &'static str, fields: Vec<(String, String)>) -> SpanGuard {
    let id = tracer().next_id();
    let prev = CURRENT.with(|c| {
        c.replace(SpanCtx {
            parent: Some(id),
            depth: ctx.depth + 1,
        })
    });
    SpanGuard {
        name,
        fields,
        start: Instant::now(),
        id,
        ctx,
        prev,
    }
}

/// Record an instant event (called by the `event!` macro).
pub fn instant_event(name: &str, fields: Vec<(String, String)>) {
    let t = tracer();
    t.record(
        EventKind::Event,
        t.next_id(),
        CURRENT.with(Cell::get),
        name,
        fields,
        0,
    );
}

/// Open a span bracketing the enclosing scope. Bind the guard:
/// `let _span = span!("inner_step", env = m);` — dropping it records
/// the span. `span!(parent: ctx, ...)` opens it under a [`SpanCtx`]
/// taken with [`current`] on another thread. Compiles to nothing when
/// the `obs` feature is off (the guard is `Option<SpanGuard>` and the
/// fields are never rendered).
#[macro_export]
macro_rules! span {
    (parent: $ctx:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::obs::enabled() {
            Some($crate::obs::trace::span_guard(
                $ctx,
                $name,
                vec![$((stringify!($k).to_string(), format!("{}", $v))),*],
            ))
        } else {
            None
        }
    };
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::span!(parent: $crate::obs::trace::current(), $name $(, $k = $v)*)
    };
}

/// Record an instant trace event. Compiles to nothing when the `obs`
/// feature is off.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::obs::enabled() {
            $crate::obs::trace::instant_event(
                $name,
                vec![$((stringify!($k).to_string(), format!("{}", $v))),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is process-global and the test harness runs tests in
    // parallel, so these tests filter for their own (unique) span names
    // instead of assuming exclusive ownership of the ring/sinks.

    /// The thread's context whether or not the `obs` feature is on
    /// ([`current`] reads the top level without it).
    fn here() -> SpanCtx {
        CURRENT.with(Cell::get)
    }

    fn recorded(prefix: &str) -> Vec<TraceEvent> {
        tracer()
            .ring_snapshot()
            .into_iter()
            .filter(|e| e.name.starts_with(prefix))
            .collect()
    }

    #[test]
    fn spans_nest_and_record_depth() {
        {
            let _outer = span_guard(here(), "trace_test_outer", vec![]);
            {
                let _inner =
                    span_guard(here(), "trace_test_inner", vec![("env".into(), "3".into())]);
            }
        }
        instant_event("trace_test_tick", vec![]);
        let mine = recorded("trace_test_");
        let names: Vec<&str> = mine.iter().map(|e| e.name.as_str()).collect();
        // Spans record at close: inner first, then outer, then the event.
        assert_eq!(
            names,
            ["trace_test_inner", "trace_test_outer", "trace_test_tick"]
        );
        assert_eq!(mine[0].depth, 1);
        assert_eq!(mine[0].parent, Some(mine[1].id));
        assert_eq!(mine[0].kind, EventKind::Span);
        assert_eq!(mine[0].fields, [("env".to_string(), "3".to_string())]);
        assert_eq!(mine[1].depth, 0);
        assert_eq!(mine[1].parent, None);
        // The outer span opened first, so it drew the smaller id.
        assert!(mine[1].id < mine[0].id);
        assert_eq!(mine[2].kind, EventKind::Event);
        assert_eq!((mine[2].parent, mine[2].depth), (None, 0));
        assert!(mine[0].seq < mine[1].seq && mine[1].seq < mine[2].seq);
        assert_eq!(mine[0].thread, mine[1].thread);
    }

    #[test]
    fn a_worker_span_keeps_the_parent_it_was_opened_under() {
        {
            let _outer = span_guard(here(), "trace_ctx_outer", vec![]);
            let ctx = here();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    {
                        let _worker = span_guard(ctx, "trace_ctx_worker", vec![]);
                        let _nested = span_guard(here(), "trace_ctx_nested", vec![]);
                        instant_event("trace_ctx_tick", vec![]);
                    }
                    // Closing restores the worker's own top level.
                    assert_eq!(here(), SpanCtx::default());
                });
            });
        }
        let mine = recorded("trace_ctx_");
        let by_name = |n: &str| mine.iter().find(|e| e.name == n).expect(n);
        let (outer, worker) = (by_name("trace_ctx_outer"), by_name("trace_ctx_worker"));
        let (nested, tick) = (by_name("trace_ctx_nested"), by_name("trace_ctx_tick"));
        assert_ne!(worker.thread, outer.thread);
        assert_eq!((worker.parent, worker.depth), (Some(outer.id), 1));
        assert_eq!((nested.parent, nested.depth), (Some(worker.id), 2));
        assert_eq!((tick.parent, tick.depth), (Some(nested.id), 3));
    }

    #[test]
    fn sinks_receive_events_and_detach() {
        struct CountSink(AtomicU64);
        impl TraceSink for CountSink {
            fn on_event(&self, e: &TraceEvent) {
                if e.name.starts_with("sink_test_") {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let sink = Arc::new(CountSink(AtomicU64::new(0)));
        let t = tracer();
        let id = t.add_sink(sink.clone());
        instant_event("sink_test_a", vec![]);
        instant_event("sink_test_b", vec![]);
        t.remove_sink(id);
        instant_event("sink_test_c", vec![]);
        assert_eq!(sink.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn trace_event_serializes_to_json() {
        let ev = TraceEvent {
            seq: 7,
            id: 9,
            parent: Some(4),
            thread: 1,
            depth: 2,
            kind: EventKind::Span,
            name: "inner_step".into(),
            fields: vec![("env".into(), "0".into())],
            dur_ns: 1234,
        };
        let json = serde_json::to_string(&ev).unwrap();
        assert!(json.contains("\"inner_step\""), "{json}");
        assert!(json.contains("1234"), "{json}");
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["seq"], 7u64);
        assert_eq!(v["parent"], 4u64);
    }
}
