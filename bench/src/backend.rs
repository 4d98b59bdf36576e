//! `TimedBackend`: the benchmark's stand-in for the warehouse connection.
//! It wraps the engine, takes two clock readings per call, and sums busy
//! time, calls and rows. The timed run has no other instrument besides the
//! client's clock; the traced run also records each call as a span.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperq_core::{Backend, BackendError, ExecResult, RequestContext};
use hyperq_engine::EngineDb;
use hyperq_xtra::TableDef;

use crate::trace::Recorder;

pub struct TimedBackend {
    inner: Arc<EngineDb>,
    busy_ns: AtomicU64,
    calls: AtomicU64,
    rows: AtomicU64,
    recorder: Option<Arc<Recorder>>,
}

/// Totals since the backend was made; subtract two readings for a delta.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendTotals {
    pub busy: Duration,
    pub calls: u64,
    pub rows: u64,
}

impl BackendTotals {
    pub fn since(&self, earlier: &BackendTotals) -> BackendTotals {
        BackendTotals {
            busy: self.busy - earlier.busy,
            calls: self.calls - earlier.calls,
            rows: self.rows - earlier.rows,
        }
    }
}

impl TimedBackend {
    pub fn new(inner: Arc<EngineDb>, recorder: Option<Arc<Recorder>>) -> Arc<TimedBackend> {
        Arc::new(TimedBackend {
            inner,
            busy_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            recorder,
        })
    }

    // Relaxed: these are statistics, and the one reader reads them between
    // requests, after the response that followed the call has arrived.
    pub fn totals(&self) -> BackendTotals {
        BackendTotals {
            busy: Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
            calls: self.calls.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
        }
    }

    fn timed(
        &self,
        call: impl FnOnce() -> Result<ExecResult, BackendError>,
    ) -> Result<ExecResult, BackendError> {
        let start = Instant::now();
        let result = call();
        let end = Instant::now();
        self.busy_ns
            .fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(r) = &result {
            self.rows.fetch_add(r.rows.len() as u64, Ordering::Relaxed);
        }
        if let Some(recorder) = &self.recorder {
            recorder.record_in_flight("engine.execute", start, end);
        }
        result
    }
}

impl Backend for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&self, sql: &str) -> Result<ExecResult, BackendError> {
        self.timed(|| self.inner.execute(sql))
    }

    fn execute_ctx(&self, sql: &str, ctx: RequestContext) -> Result<ExecResult, BackendError> {
        self.timed(|| self.inner.execute_ctx(sql, ctx))
    }

    fn table_meta(&self, name: &str) -> Option<TableDef> {
        self.inner.table_meta(name)
    }

    fn reset_session(&self) -> Result<(), BackendError> {
        self.inner.reset_session()
    }
}
