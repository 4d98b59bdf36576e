//! Zero-dependency observability for the Hyper-Q pipeline.
//!
//! Three pillars, one context:
//!
//! * [`trace`] — lightweight span/event tracing with per-statement trace
//!   ids, propagated through a thread-local stack and buffered in a
//!   bounded ring.
//! * [`metrics`] — a registry of atomic counters, gauges and log-bucketed
//!   latency histograms, rendered via [`metrics::MetricsRegistry::render_prometheus`]
//!   and [`metrics::MetricsRegistry::render_json`].
//! * [`provenance`] — one record per statement in a bounded ring, folded
//!   into the cumulative per-fingerprint [`statements`] table that
//!   [`report`] projects.
//!
//! Pipeline layers share an [`ObsContext`]: the process-wide
//! [`ObsContext::global`] by default, or an isolated instance in tests.
//! Recording on the hot path is atomics-only; registry lookups happen once
//! at construction time and hand out `Arc` handles.

#![forbid(unsafe_code)]

pub mod io;
pub mod json;
pub mod metrics;
pub mod provenance;
pub mod report;
pub mod statements;
pub mod trace;

use std::sync::{Arc, OnceLock};
use std::time::Duration;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use provenance::{CacheOutcome, ConvertStats, ProvenanceLog, ProvenanceRecord};
pub use report::WorkloadReport;
pub use statements::{StatementRow, StatementTable};
pub use trace::{Span, SpanId, SpanRecord, TraceId, TraceSink};

/// Per-statement stage timings (the paper's Figure 9 instrumentation):
/// `translation` covers parsing, binding, backend-specific transformations
/// and emitting the final query into the target language; `execution` is
/// the time the target database took. Lives here so every layer can report
/// timings without depending on the core crate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    pub translation: Duration,
    pub execution: Duration,
}

impl StageTimings {
    pub fn merge(&mut self, other: StageTimings) {
        self.translation += other.translation;
        self.execution += other.execution;
    }
}

/// Shared observability state: metrics registry, trace sink,
/// per-statement provenance ring and its statement table.
#[derive(Debug, Default)]
pub struct ObsContext {
    pub metrics: MetricsRegistry,
    pub traces: TraceSink,
    pub provenance: ProvenanceLog,
}

impl ObsContext {
    /// A fresh, isolated context (used by tests and by anything that wants
    /// metrics scoped away from the process globals).
    pub fn new() -> Arc<ObsContext> {
        Arc::new(ObsContext::default())
    }

    /// The process-wide context. Environment knobs, read once:
    ///
    /// * `HYPERQ_TRACE` — set to `0` or `off` to disable span buffering.
    /// * `HYPERQ_PROVENANCE` — set to `0` or `off` to disable per-statement
    ///   provenance capture (which also leaves the statement table empty).
    /// * `HYPERQ_RAW_SQL` — set to `1` or `on` to store raw (unredacted)
    ///   SQL in provenance records and statement-table samples.
    pub fn global() -> &'static Arc<ObsContext> {
        static GLOBAL: OnceLock<Arc<ObsContext>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let ctx = ObsContext::new();
            let off = |v: String| {
                let v = v.trim().to_ascii_lowercase();
                v == "0" || v == "off" || v == "false"
            };
            let on = |v: String| {
                let v = v.trim().to_ascii_lowercase();
                v == "1" || v == "on" || v == "true"
            };
            if std::env::var("HYPERQ_TRACE").is_ok_and(off) {
                ctx.traces.set_enabled(false);
            }
            if std::env::var("HYPERQ_PROVENANCE").is_ok_and(off) {
                ctx.provenance.set_enabled(false);
            }
            if std::env::var("HYPERQ_RAW_SQL").is_ok_and(on) {
                ctx.provenance.set_capture_raw(true);
            }
            ctx
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_timings_merge_accumulates() {
        let mut t = StageTimings::default();
        t.merge(StageTimings {
            translation: Duration::from_millis(2),
            execution: Duration::from_millis(3),
        });
        t.merge(StageTimings {
            translation: Duration::from_millis(1),
            execution: Duration::from_millis(4),
        });
        assert_eq!(t.translation, Duration::from_millis(3));
        assert_eq!(t.execution, Duration::from_millis(7));
    }

    #[test]
    fn global_context_is_a_singleton() {
        let a = Arc::as_ptr(ObsContext::global());
        let b = Arc::as_ptr(ObsContext::global());
        assert_eq!(a, b);
    }
}
