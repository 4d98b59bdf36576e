//! The benchmark's own spans: recorded around the calls into each layer,
//! kept in memory, written out when the traced run ends. Nothing here
//! touches the product's `ObsContext`; spans inside the program are a later
//! change.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Value;

/// One timed interval. Spans of one client request share `stmt`; `parent`
/// is the span that caused this one (0 for the request itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub stmt: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from the client thread and from the gateway's session
/// thread (through `TimedBackend`). All times are nanoseconds since the
/// recorder was made, from one monotonic clock, so spans from both threads
/// compare.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    enabled: AtomicBool,
    /// The request in flight, for spans recorded on another thread: the
    /// loop is closed with one client, so there is at most one.
    current_stmt: AtomicU64,
    current_parent: AtomicU64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            enabled: AtomicBool::new(false),
            current_stmt: AtomicU64::new(0),
            current_parent: AtomicU64::new(0),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Announce the request about to be sent: spans recorded by other
    /// threads until the next call belong to `stmt`, under `parent`.
    pub fn begin_request(&self, stmt: u64, parent: u64) {
        self.current_stmt.store(stmt, Ordering::SeqCst);
        self.current_parent.store(parent, Ordering::SeqCst);
    }

    /// Record a span under the request in flight.
    pub fn record_in_flight(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled() {
            return;
        }
        let stmt = self.current_stmt.load(Ordering::SeqCst);
        let parent = self.current_parent.load(Ordering::SeqCst);
        self.record(self.fresh_id(), parent, stmt, name, start, end);
    }

    pub fn record(
        &self,
        id: u64,
        parent: u64,
        stmt: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled() {
            return;
        }
        let span = Span {
            id,
            parent,
            stmt,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned"))
    }
}

/// A span's duration minus the part of it its children cover (children may
/// overlap each other; the union is what counts).
pub fn self_time_ns(span: &Span, all: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = all
        .iter()
        .filter(|s| s.parent == span.id)
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    span.duration_ns() - covered
}

/// Every span must end no earlier than it starts, name an existing parent
/// of the same request, and lie inside that parent.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let by_id: std::collections::HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        if s.parent == 0 {
            continue;
        }
        let Some(p) = by_id.get(&s.parent) else {
            return Err(format!(
                "span {} ({}) has no parent {}",
                s.id, s.name, s.parent
            ));
        };
        if p.stmt != s.stmt {
            return Err(format!(
                "span {} ({}) and its parent belong to different requests",
                s.id, s.name
            ));
        }
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span {} ({}) [{}, {}] is not inside its parent {} ({}) [{}, {}]",
                s.id, s.name, s.start_ns, s.end_ns, p.id, p.name, p.start_ns, p.end_ns
            ));
        }
    }
    Ok(())
}

pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::obj()
                    .with("id", s.id)
                    .with("parent", s.parent)
                    .with("stmt", s.stmt)
                    .with("name", s.name)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("self_ns", self_time_ns(s, spans))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            stmt: 1,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let all = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50), // overlaps 2: together they cover 10..50
            span(4, 1, 70, 80),
            span(5, 2, 12, 14), // a grandchild is not the root's child
        ];
        assert_eq!(self_time_ns(&all[0], &all), 100 - 40 - 10);
        assert_eq!(self_time_ns(&all[1], &all), 20 - 2);
        assert_eq!(self_time_ns(&all[3], &all), 10);
    }

    #[test]
    fn nesting_check_accepts_nested_and_rejects_escaping_spans() {
        let good = vec![span(1, 0, 0, 100), span(2, 1, 0, 100), span(3, 2, 5, 9)];
        assert!(check_nesting(&good).is_ok());
        let escapes = vec![span(1, 0, 10, 100), span(2, 1, 5, 20)];
        assert!(check_nesting(&escapes).unwrap_err().contains("not inside"));
        let orphan = vec![span(2, 7, 5, 20)];
        assert!(check_nesting(&orphan).unwrap_err().contains("no parent"));
        let mut other_request = vec![span(1, 0, 0, 100), span(2, 1, 5, 20)];
        other_request[1].stmt = 2;
        assert!(check_nesting(&other_request).is_err());
    }

    #[test]
    fn recorder_keeps_nothing_while_disabled() {
        let r = Recorder::new();
        let t = Instant::now();
        r.record_in_flight("x", t, t);
        assert!(r.take().is_empty());
        r.set_enabled(true);
        r.begin_request(4, 9);
        r.record_in_flight("x", t, t);
        let spans = r.take();
        assert_eq!((spans.len(), spans[0].stmt, spans[0].parent), (1, 4, 9));
    }
}
