//! Lightweight span tracing.
//!
//! Every statement processed by the pipeline gets a trace: a root span plus
//! one child span per pipeline stage (and deeper children for nested work
//! like recursive-CTE iterations). Span context propagates through a
//! thread-local stack, so instrumented layers never thread IDs explicitly;
//! finished spans land in a bounded ring buffer for inspection and for the
//! slowest-call trees on `/statements`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifies one traced statement end-to-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Identifies one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// A finished span as stored in the ring buffer.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub trace: TraceId,
    pub span: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// Start offset from the sink's epoch.
    pub start: Duration,
    pub duration: Duration,
    /// Timestamped annotations: offset from span start, message.
    pub events: Vec<(Duration, String)>,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<(TraceId, SpanId)>> = const { RefCell::new(Vec::new()) };
}

/// Collects finished spans into a bounded ring buffer.
#[derive(Debug)]
pub struct TraceSink {
    enabled: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    ring: Mutex<VecDeque<SpanRecord>>,
    capacity: usize,
}

pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceSink {
    pub fn with_capacity(capacity: usize) -> TraceSink {
        TraceSink {
            enabled: AtomicBool::new(true),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Open a span. If the current thread is already inside a span, the new
    /// one joins that trace as a child; otherwise it roots a fresh trace.
    pub fn enter(&self, name: &'static str) -> Span<'_> {
        let (trace, parent) = SPAN_STACK.with(|s| {
            s.borrow().last().map_or_else(|| {
                (TraceId(self.fresh_id()), None)
            }, |&(t, id)| (t, Some(id)))
        });
        self.open(trace, parent, name)
    }

    /// Open a span attached to an existing trace (e.g. converting results
    /// for a statement whose pipeline trace already finished).
    pub fn enter_in(&self, trace: TraceId, name: &'static str) -> Span<'_> {
        let parent = SPAN_STACK.with(|s| {
            s.borrow().last().and_then(|&(t, id)| (t == trace).then_some(id))
        });
        self.open(trace, parent, name)
    }

    fn open(&self, trace: TraceId, parent: Option<SpanId>, name: &'static str) -> Span<'_> {
        let span = SpanId(self.fresh_id());
        SPAN_STACK.with(|s| s.borrow_mut().push((trace, span)));
        Span {
            sink: self,
            trace,
            span,
            parent,
            name,
            started: Instant::now(),
            events: Vec::new(),
            closed: false,
        }
    }

    /// Append an externally-measured span — for work that ran before its
    /// trace existed (e.g. script parsing charged to the first statement's
    /// trace).
    pub fn record_manual(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &'static str,
        duration: Duration,
    ) -> SpanId {
        let span = SpanId(self.fresh_id());
        let now = self.epoch.elapsed();
        self.record(SpanRecord {
            trace,
            span,
            parent,
            name,
            start: now.saturating_sub(duration),
            duration,
            events: Vec::new(),
        });
        span
    }

    /// The (trace, span) the current thread is inside, if any.
    pub fn current(&self) -> Option<(TraceId, SpanId)> {
        SPAN_STACK.with(|s| s.borrow().last().copied())
    }

    fn record(&self, rec: SpanRecord) {
        if !self.is_enabled() {
            return;
        }
        let mut ring = self.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(rec);
    }

    /// All buffered spans for a trace, in completion order (children finish
    /// before their parents).
    pub fn spans_for(&self, trace: TraceId) -> Vec<SpanRecord> {
        let ring = self.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        ring.iter().filter(|r| r.trace == trace).cloned().collect()
    }

    /// The most recent `n` spans across all traces.
    pub fn recent(&self, n: usize) -> Vec<SpanRecord> {
        let ring = self.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        ring.iter().rev().take(n).cloned().collect()
    }

    pub fn clear(&self) {
        self.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    }

    /// Render the span tree of a trace as an indented text outline (empty
    /// once the ring has dropped the trace).
    pub fn render_tree(&self, trace: TraceId) -> String {
        let spans = self.spans_for(trace);
        let mut out = String::new();
        let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent.is_none()).collect();
        for root in roots {
            render_node(&spans, root, 0, &mut out);
        }
        out
    }
}

fn render_node(all: &[SpanRecord], node: &SpanRecord, depth: usize, out: &mut String) {
    out.push_str(&"  ".repeat(depth));
    out.push_str(&format!("{} {:.3?}", node.name, node.duration));
    for (at, msg) in &node.events {
        out.push_str(&format!(" [{:.3?}: {msg}]", at));
    }
    out.push('\n');
    let mut children: Vec<&SpanRecord> =
        all.iter().filter(|s| s.parent == Some(node.span)).collect();
    children.sort_by_key(|s| s.start);
    for child in children {
        render_node(all, child, depth + 1, out);
    }
}

/// An open span; finishing (or dropping) it pops the thread-local context
/// and records it in the sink.
pub struct Span<'a> {
    sink: &'a TraceSink,
    trace: TraceId,
    span: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    started: Instant,
    events: Vec<(Duration, String)>,
    closed: bool,
}

impl Span<'_> {
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    pub fn id(&self) -> SpanId {
        self.span
    }

    /// Attach a timestamped annotation to this span.
    pub fn event(&mut self, message: impl Into<String>) {
        if self.sink.is_enabled() {
            self.events.push((self.started.elapsed(), message.into()));
        }
    }

    /// Close the span and return its wall-clock duration, so callers can
    /// feed the same measurement into a histogram without a second clock
    /// read.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let duration = self.started.elapsed();
        if self.closed {
            return duration;
        }
        self.closed = true;
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop this span; tolerate out-of-order drops during unwinding.
            if let Some(pos) = stack.iter().rposition(|&(_, id)| id == self.span) {
                stack.truncate(pos);
            }
        });
        self.sink.record(SpanRecord {
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            name: self.name,
            start: self.started.duration_since(self.sink.epoch),
            duration,
            events: std::mem::take(&mut self.events),
        });
        duration
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.closed {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_one_trace_with_parent_links() {
        let sink = TraceSink::default();
        let trace = {
            let root = sink.enter("statement");
            let trace = root.trace_id();
            let parse = sink.enter("parse");
            assert_eq!(parse.trace_id(), trace, "children join the ambient trace");
            parse.finish();
            let mut bind = sink.enter("bind");
            bind.event("resolved 3 tables");
            bind.finish();
            root.finish();
            trace
        };
        let spans = sink.spans_for(trace);
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "statement").unwrap();
        assert_eq!(root.parent, None);
        for name in ["parse", "bind"] {
            let s = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.parent, Some(root.span), "{name} must hang off the root");
        }
        assert_eq!(spans.iter().find(|s| s.name == "bind").unwrap().events.len(), 1);
        let tree = sink.render_tree(trace);
        assert!(tree.starts_with("statement "), "{tree}");
        assert!(tree.contains("\n  parse "), "{tree}");
        assert!(tree.contains("resolved 3 tables"), "{tree}");
    }

    #[test]
    fn sequential_roots_get_distinct_traces() {
        let sink = TraceSink::default();
        let a = sink.enter("one").trace_id();
        let b = sink.enter("two").trace_id();
        assert_ne!(a, b);
        assert_eq!(sink.spans_for(a).len(), 1);
    }

    #[test]
    fn enter_in_attaches_to_foreign_trace() {
        let sink = TraceSink::default();
        let trace = sink.enter("pipeline").trace_id();
        let conv = sink.enter_in(trace, "convert");
        assert_eq!(conv.trace_id(), trace);
        conv.finish();
        assert_eq!(sink.spans_for(trace).len(), 2);
    }

    #[test]
    fn ring_is_bounded_and_disable_drops_records() {
        let sink = TraceSink::with_capacity(2);
        for _ in 0..5 {
            sink.enter("s").finish();
        }
        assert_eq!(sink.recent(10).len(), 2);
        sink.set_enabled(false);
        let t = sink.enter("off").trace_id();
        assert!(sink.spans_for(t).is_empty());
    }

    #[test]
    fn drop_without_finish_still_pops_context() {
        let sink = TraceSink::default();
        {
            let _root = sink.enter("outer");
            let _child = sink.enter("inner");
            // dropped in reverse order here
        }
        assert_eq!(sink.current(), None);
    }
}
