//! Per-statement query provenance: what happened to each statement.
//!
//! Aggregate metrics (counters, histograms) answer "how is the fleet
//! doing"; provenance answers "what happened to *this* query": which
//! rewrite rules fired and how often, which emulations ran, whether the
//! translation cache hit, how many transparent retries and recoveries the
//! backend needed, how long admission queued it, and how the time split
//! across pipeline stages. Records land in a bounded, sharded ring so a
//! busy gateway keeps a rolling window of recent statements without
//! unbounded memory.
//!
//! Capture is hook-based: the crosscompiler opens a per-statement builder
//! on the current thread ([`ProvenanceLog::begin`]), instrumented layers
//! deeper in the stack (transformer, resilient/recovering backends, the
//! admission gate) call the free `note_*` functions — each a cheap
//! thread-local check that no-ops when no builder is active — and the
//! statement epilogue seals the record ([`ProvenanceLog::finish`]). This
//! works because one statement runs on one thread end to end; layers never
//! thread record handles explicitly, mirroring the span stack in
//! [`crate::trace`].
//!
//! Every sealed record is also folded into the log's cumulative
//! per-fingerprint [`StatementTable`], which outlives the ring's window.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::metrics::{json_map, json_str};
use crate::statements::StatementTable;
use crate::trace::TraceId;

/// Total ring capacity across all shards, and the statement table's row
/// bound.
pub const CAPACITY: usize = 1024;

pub(crate) const SHARDS: usize = 8;

/// Byte bound on stored error text and statement-table samples.
pub(crate) const TEXT_CLIP: usize = 240;

/// How the translation cache treated a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The statement never interacted with the cache (cache disabled, or a
    /// statement kind the cache does not hold).
    Uncached,
    /// Served from a cached translation.
    Hit,
    /// Translated fresh; the result was offered to the cache.
    Miss,
    /// Deliberately skipped, with the reason.
    Bypass(&'static str),
}

impl CacheOutcome {
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheOutcome::Uncached => "uncached",
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypass(_) => "bypass",
        }
    }

    pub fn bypass_reason(&self) -> Option<&'static str> {
        match self {
            CacheOutcome::Bypass(r) => Some(r),
            _ => None,
        }
    }
}

/// Result-conversion statistics attached after the fact by the wire layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvertStats {
    pub rows: u64,
    pub bytes: u64,
    pub duration: Duration,
}

/// One statement's full forensic trail.
#[derive(Debug, Clone)]
pub struct ProvenanceRecord {
    /// Monotonic capture sequence number (per log).
    pub seq: u64,
    pub trace: TraceId,
    /// Literal-normalized query fingerprint (0 when unfingerprintable).
    pub fingerprint: u64,
    /// Coarse statement kind from the leading keyword.
    pub kind: &'static str,
    /// Registry name of the target profile the statement was translated
    /// for (`simwh`, `simwh-reduced`, ...).
    pub target: String,
    /// Statement text, literal-redacted unless raw capture is enabled.
    pub sql: String,
    pub total: Duration,
    /// Per-stage latency breakdown, accumulated across nested pipeline
    /// runs (e.g. macro bodies, MERGE legs).
    pub stages: Vec<(&'static str, Duration)>,
    /// Transform rules that fired, with per-rule fire counts.
    pub rules: Vec<(&'static str, u64)>,
    /// Emulation kinds triggered, with counts.
    pub emulations: Vec<(&'static str, u64)>,
    /// Detected non-standard dialect feature codes (T1…E9).
    pub features: Vec<&'static str>,
    pub cache: CacheOutcome,
    /// Transparent backend retries consumed by this statement.
    pub retries: u64,
    /// Transparent session recoveries consumed by this statement.
    pub recoveries: u64,
    /// Time spent queued at admission gates before this statement ran.
    pub admission_wait: Duration,
    /// Analyze-mode verdict: the mode the plan validator ran under.
    pub analyze_mode: &'static str,
    /// Validator invariant violations observed during this statement.
    pub violations: u64,
    pub ok: bool,
    pub error: Option<String>,
    /// Why the governor cancelled this statement (`client_abort`,
    /// `deadline`, `budget`, `shutdown`), if it was cancelled.
    pub cancelled: Option<&'static str>,
    /// Which replica served this statement, when a replicated backend
    /// routed it (`r0`, `r1`, …); `None` on single-backend paths.
    pub replica: Option<String>,
    /// Rows produced by the backend.
    pub rows: u64,
    /// Wire-format conversion stats, if the result was converted.
    pub convert: Option<ConvertStats>,
}

/// Thread-local in-flight record state.
#[derive(Debug, Default)]
struct Builder {
    stages: Vec<(&'static str, Duration)>,
    rules: Vec<(&'static str, u64)>,
    emulations: Vec<(&'static str, u64)>,
    cache: Option<CacheOutcome>,
    retries: u64,
    recoveries: u64,
    violations: u64,
    admission_wait: Duration,
    cancelled: Option<&'static str>,
    replica: Option<String>,
}

thread_local! {
    static ACTIVE: RefCell<Option<Builder>> = const { RefCell::new(None) };
    /// Admission wait observed before the statement's builder exists
    /// (gates admit before the crosscompiler runs); micros, accumulated.
    static PENDING_ADMISSION_MICROS: Cell<u64> = const { Cell::new(0) };
    /// Cache-bypass reason decided before the builder exists (the fast
    /// path rejects, then the slow path begins the record).
    static PENDING_CACHE_BYPASS: Cell<Option<&'static str>> = const { Cell::new(None) };
}

fn with_active(f: impl FnOnce(&mut Builder)) {
    ACTIVE.with(|a| {
        if let Some(b) = a.borrow_mut().as_mut() {
            f(b);
        }
    });
}

pub(crate) fn accumulate<V: AddAssign>(
    list: &mut Vec<(&'static str, V)>,
    key: &'static str,
    n: V,
) {
    match list.iter_mut().find(|(k, _)| *k == key) {
        Some((_, v)) => *v += n,
        None => list.push((key, n)),
    }
}

/// Add `d` to the named stage of the active record, if any.
pub fn note_stage(name: &'static str, d: Duration) {
    with_active(|b| accumulate(&mut b.stages, name, d));
}

/// Credit `fires` firings of a transform rule to the active record.
pub fn note_rule(name: &'static str, fires: u64) {
    if fires > 0 {
        with_active(|b| accumulate(&mut b.rules, name, fires));
    }
}

/// Record one emulation of the given kind against the active record.
pub fn note_emulation(kind: &'static str) {
    with_active(|b| accumulate(&mut b.emulations, kind, 1));
}

/// Set the cache outcome of the active record (last writer wins).
pub fn note_cache(outcome: CacheOutcome) {
    with_active(|b| b.cache = Some(outcome));
}

/// Record one transparent backend retry.
pub fn note_retry() {
    with_active(|b| b.retries += 1);
}

/// Record one transparent session recovery.
pub fn note_recovery() {
    with_active(|b| b.recoveries += 1);
}

/// Record one validator invariant violation.
pub fn note_violation() {
    with_active(|b| b.violations += 1);
}

/// Record that the governor cancelled this statement, with the stable
/// cancel-reason label (first writer wins, matching the sticky token).
pub fn note_cancelled(reason: &'static str) {
    with_active(|b| {
        if b.cancelled.is_none() {
            b.cancelled = Some(reason);
        }
    });
}

/// Record which replica served the statement (last writer wins: a write
/// broadcast notes the replica whose result was returned to the client).
pub fn note_replica(name: &str) {
    with_active(|b| b.replica = Some(name.to_string()));
}

/// Record time spent queued at an admission gate. Safe to call before the
/// statement's record exists: the wait is parked thread-locally and folded
/// into the next [`ProvenanceLog::begin`].
pub fn pend_admission_wait(d: Duration) {
    let micros = d.as_micros().min(u64::MAX as u128) as u64;
    ACTIVE.with(|a| {
        if let Some(b) = a.borrow_mut().as_mut() {
            b.admission_wait += d;
            return;
        }
        PENDING_ADMISSION_MICROS.with(|c| c.set(c.get().saturating_add(micros)));
    });
}

/// Park a cache-bypass reason for the next [`ProvenanceLog::begin`] on
/// this thread (used when the bypass decision precedes the record).
pub fn pend_cache_bypass(reason: &'static str) {
    PENDING_CACHE_BYPASS.with(|c| c.set(Some(reason)));
}

/// Run `f` with provenance capture suspended on this thread: notes made
/// inside do not reach the active record. Used for side-band work (cache
/// revalidation probes) that must not pollute the statement's trail.
pub fn suspended<T>(f: impl FnOnce() -> T) -> T {
    let saved = ACTIVE.with(|a| a.borrow_mut().take());
    let out = f();
    ACTIVE.with(|a| *a.borrow_mut() = saved);
    out
}

/// Everything the statement epilogue knows when sealing a record.
#[derive(Debug)]
pub struct FinishedStatement<'a> {
    pub trace: TraceId,
    pub fingerprint: u64,
    pub kind: &'static str,
    /// Registry name of the target profile in effect for the statement.
    pub target: &'a str,
    pub sql: &'a str,
    pub total: Duration,
    pub features: Vec<&'static str>,
    pub analyze_mode: &'static str,
    pub rows: u64,
    pub error: Option<&'a str>,
}

/// Bounded, sharded ring of [`ProvenanceRecord`]s, plus the
/// [`StatementTable`] every record is folded into.
///
/// Shards are selected by trace id, so concurrent sessions rarely contend
/// on the same lock and post-hoc attachment ([`ProvenanceLog::attach_convert`])
/// only scans one shard.
#[derive(Debug)]
pub struct ProvenanceLog {
    enabled: AtomicBool,
    capture_raw: AtomicBool,
    seq: AtomicU64,
    shards: [Mutex<VecDeque<ProvenanceRecord>>; SHARDS],
    statements: StatementTable,
}

impl Default for ProvenanceLog {
    fn default() -> Self {
        ProvenanceLog {
            enabled: AtomicBool::new(true),
            capture_raw: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            shards: std::array::from_fn(|_| Mutex::new(VecDeque::new())),
            statements: StatementTable::default(),
        }
    }
}

impl ProvenanceLog {
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opt in to storing raw SQL instead of literal-redacted text.
    pub fn set_capture_raw(&self, on: bool) {
        self.capture_raw.store(on, Ordering::Relaxed);
    }

    pub fn capture_raw(&self) -> bool {
        self.capture_raw.load(Ordering::Relaxed)
    }

    /// The cumulative per-fingerprint table the records fold into.
    pub fn statements(&self) -> &StatementTable {
        &self.statements
    }

    /// Open a builder for the statement starting on this thread, consuming
    /// any parked admission wait / cache-bypass reason. When capture is
    /// disabled the parked state is still drained so it cannot leak into a
    /// later statement.
    pub fn begin(&self) {
        let parked_wait = PENDING_ADMISSION_MICROS.with(|c| c.replace(0));
        let parked_bypass = PENDING_CACHE_BYPASS.with(|c| c.replace(None));
        if !self.is_enabled() {
            ACTIVE.with(|a| *a.borrow_mut() = None);
            return;
        }
        let builder = Builder {
            admission_wait: Duration::from_micros(parked_wait),
            cache: parked_bypass.map(CacheOutcome::Bypass),
            ..Builder::default()
        };
        ACTIVE.with(|a| *a.borrow_mut() = Some(builder));
    }

    /// Seal the active builder into a record. Returns the sequence number,
    /// or `None` when no builder was active (capture disabled, or nested).
    pub fn finish(&self, f: FinishedStatement<'_>) -> Option<u64> {
        let builder = ACTIVE.with(|a| a.borrow_mut().take())?;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let record = ProvenanceRecord {
            seq,
            trace: f.trace,
            fingerprint: f.fingerprint,
            kind: f.kind,
            target: f.target.to_string(),
            sql: f.sql.to_string(),
            total: f.total,
            stages: builder.stages,
            rules: builder.rules,
            emulations: builder.emulations,
            features: f.features,
            cache: builder.cache.unwrap_or(CacheOutcome::Uncached),
            retries: builder.retries,
            recoveries: builder.recoveries,
            admission_wait: builder.admission_wait,
            analyze_mode: f.analyze_mode,
            violations: builder.violations,
            ok: f.error.is_none(),
            error: f.error.map(|e| truncate(e, TEXT_CLIP)),
            cancelled: builder.cancelled,
            replica: builder.replica,
            rows: f.rows,
            convert: None,
        };
        self.statements.fold(&record);
        self.push(record);
        Some(seq)
    }

    fn push(&self, record: ProvenanceRecord) {
        let cap = CAPACITY / SHARDS;
        let shard = &self.shards[record.trace.0 as usize % SHARDS];
        let mut ring = shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while ring.len() >= cap {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Attach result-conversion stats to the (already sealed) record of a
    /// trace, and its time to the record's statement-table row. Returns
    /// whether a record was found.
    pub fn attach_convert(
        &self,
        trace: TraceId,
        rows: u64,
        bytes: u64,
        duration: Duration,
    ) -> bool {
        let shard = &self.shards[trace.0 as usize % SHARDS];
        let mut ring = shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(rec) = ring.iter_mut().rev().find(|r| r.trace == trace && r.convert.is_none())
        else {
            return false;
        };
        rec.convert = Some(ConvertStats { rows, bytes, duration });
        let fingerprint = rec.fingerprint;
        drop(ring);
        self.statements.add_convert(fingerprint, duration);
        true
    }

    /// All buffered records, oldest first.
    pub fn snapshot(&self) -> Vec<ProvenanceRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let ring = shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            out.extend(ring.iter().cloned());
        }
        out.sort_by_key(|r| r.seq);
        out
    }

    /// The most recent `n` records, oldest of those first.
    pub fn recent(&self, n: usize) -> Vec<ProvenanceRecord> {
        let mut all = self.snapshot();
        let skip = all.len().saturating_sub(n);
        all.drain(..skip);
        all
    }

    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forget every record and every statement-table row.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
        }
        self.statements.clear();
    }
}

pub(crate) fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        return s.to_string();
    }
    let mut end = max;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}

/// Render records as a JSON array (hand-rolled; the workspace has no
/// serde).
pub fn render_json(records: &[ProvenanceRecord]) -> String {
    let rendered: Vec<String> = records.iter().map(render_record_json).collect();
    format!("[{}]", rendered.join(","))
}

fn render_record_json(r: &ProvenanceRecord) -> String {
    let null_or = |v: Option<&str>| v.map_or("null".to_string(), json_str);
    let features: Vec<String> = r.features.iter().map(|c| json_str(c)).collect();
    let convert = r.convert.map_or("null".to_string(), |c| {
        format!(
            "{{\"rows\":{},\"bytes\":{},\"duration_seconds\":{}}}",
            c.rows,
            c.bytes,
            c.duration.as_secs_f64()
        )
    });
    json_map([
        ("seq", r.seq.to_string()),
        ("trace", format!("\"{}\"", r.trace)),
        ("fingerprint", format!("\"{:016x}\"", r.fingerprint)),
        ("kind", json_str(r.kind)),
        ("target", json_str(&r.target)),
        ("sql", json_str(&r.sql)),
        ("total_seconds", r.total.as_secs_f64().to_string()),
        ("stages", json_map(r.stages.iter().map(|(s, d)| (s, d.as_secs_f64())))),
        ("rules", json_map(r.rules.iter().copied())),
        ("emulations", json_map(r.emulations.iter().copied())),
        ("features", format!("[{}]", features.join(","))),
        ("cache", json_str(r.cache.as_str())),
        ("cache_bypass_reason", null_or(r.cache.bypass_reason())),
        ("retries", r.retries.to_string()),
        ("recoveries", r.recoveries.to_string()),
        ("admission_wait_seconds", r.admission_wait.as_secs_f64().to_string()),
        ("analyze_mode", json_str(r.analyze_mode)),
        ("violations", r.violations.to_string()),
        ("ok", r.ok.to_string()),
        ("error", null_or(r.error.as_deref())),
        ("cancelled", null_or(r.cancelled)),
        ("replica", null_or(r.replica.as_deref())),
        ("rows", r.rows.to_string()),
        ("convert", convert),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_flight() -> bool {
        ACTIVE.with(|a| a.borrow().is_some())
    }

    fn seal(log: &ProvenanceLog, trace: u64, sql: &str, ok: bool) -> Option<u64> {
        log.finish(FinishedStatement {
            trace: TraceId(trace),
            fingerprint: 0xabcd,
            kind: "select",
            target: "simwh",
            sql,
            total: Duration::from_micros(500),
            features: vec!["X1"],
            analyze_mode: "log_only",
            rows: 3,
            error: (!ok).then_some("boom"),
        })
    }

    #[test]
    fn begin_note_finish_roundtrip() {
        let log = ProvenanceLog::default();
        log.begin();
        assert!(in_flight());
        note_stage("bind", Duration::from_micros(10));
        note_stage("bind", Duration::from_micros(5));
        note_rule("qualify_to_subquery", 2);
        note_rule("noop_rule", 0);
        note_emulation("macro");
        note_emulation("macro");
        note_cache(CacheOutcome::Miss);
        note_retry();
        note_recovery();
        note_violation();
        let seq = seal(&log, 7, "SELECT 1", true).unwrap();
        assert!(!in_flight());
        let records = log.snapshot();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.seq, seq);
        assert_eq!(r.stages, vec![("bind", Duration::from_micros(15))]);
        assert_eq!(r.rules, vec![("qualify_to_subquery", 2)]);
        assert_eq!(r.emulations, vec![("macro", 2)]);
        assert_eq!(r.cache, CacheOutcome::Miss);
        assert_eq!((r.retries, r.recoveries, r.violations), (1, 1, 1));
        assert!(r.ok);
        assert_eq!(r.features, vec!["X1"]);
    }

    #[test]
    fn notes_without_begin_are_noops_and_finish_returns_none() {
        let log = ProvenanceLog::default();
        note_stage("bind", Duration::from_micros(10));
        note_retry();
        assert_eq!(seal(&log, 1, "SELECT 1", true), None);
        assert!(log.is_empty());
    }

    #[test]
    fn disabled_log_drains_parked_state() {
        let log = ProvenanceLog::default();
        pend_admission_wait(Duration::from_micros(100));
        pend_cache_bypass("volatile");
        log.set_enabled(false);
        log.begin();
        assert!(!in_flight());
        log.set_enabled(true);
        log.begin();
        let _ = seal(&log, 2, "SELECT 1", true);
        let r = &log.snapshot()[0];
        assert_eq!(r.admission_wait, Duration::ZERO, "parked wait must not leak");
        assert_eq!(r.cache, CacheOutcome::Uncached, "parked bypass must not leak");
    }

    #[test]
    fn parked_admission_and_bypass_fold_into_next_begin() {
        let log = ProvenanceLog::default();
        pend_admission_wait(Duration::from_micros(40));
        pend_admission_wait(Duration::from_micros(2));
        pend_cache_bypass("volatile");
        log.begin();
        pend_admission_wait(Duration::from_micros(8)); // active: adds directly
        let _ = seal(&log, 3, "SELECT 1", true);
        let r = &log.snapshot()[0];
        assert_eq!(r.admission_wait, Duration::from_micros(50));
        assert_eq!(r.cache, CacheOutcome::Bypass("volatile"));
        assert_eq!(r.cache.as_str(), "bypass");
        assert_eq!(r.cache.bypass_reason(), Some("volatile"));
    }

    #[test]
    fn suspended_shields_the_active_record() {
        let log = ProvenanceLog::default();
        log.begin();
        note_rule("real", 1);
        suspended(|| {
            note_rule("probe_only", 9);
            note_retry();
        });
        let _ = seal(&log, 4, "SELECT 1", true);
        let r = &log.snapshot()[0];
        assert_eq!(r.rules, vec![("real", 1)]);
        assert_eq!(r.retries, 0);
    }

    #[test]
    fn ring_is_bounded_and_recent_returns_newest() {
        let log = ProvenanceLog::default();
        let sealed = 2 * CAPACITY as u64 + 50;
        for i in 0..sealed {
            log.begin();
            let _ = seal(&log, i, "SELECT 1", true);
        }
        assert_eq!(log.len(), CAPACITY);
        let recent = log.recent(3);
        assert_eq!(recent.len(), 3);
        assert!(recent.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(recent.last().unwrap().seq, sealed - 1);
        // The table outlives the ring: one fingerprint, every call.
        assert_eq!(log.statements().snapshot()[0].calls, sealed);
        log.clear();
        assert!(log.is_empty());
        assert!(log.statements().is_empty());
    }

    #[test]
    fn attach_convert_finds_record_by_trace() {
        let log = ProvenanceLog::default();
        log.begin();
        let _ = seal(&log, 11, "SELECT 1", true);
        assert!(log.attach_convert(TraceId(11), 3, 120, Duration::from_micros(9)));
        assert!(!log.attach_convert(TraceId(12), 1, 1, Duration::ZERO));
        let r = &log.snapshot()[0];
        let c = r.convert.unwrap();
        assert_eq!((c.rows, c.bytes), (3, 120));
    }

    #[test]
    fn error_records_truncate_and_render_as_json() {
        let log = ProvenanceLog::default();
        log.begin();
        let long = "x".repeat(500);
        log.finish(FinishedStatement {
            trace: TraceId(5),
            fingerprint: 1,
            kind: "select",
            target: "simwh",
            sql: "SELECT 1",
            total: Duration::from_micros(10),
            features: Vec::new(),
            analyze_mode: "off",
            rows: 0,
            error: Some(&long),
        });
        let records = log.snapshot();
        assert!(!records[0].ok);
        assert!(records[0].error.as_ref().unwrap().len() < 500);
        let json = render_json(&records);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"cache\":\"uncached\""));
        assert!(json.contains("\"convert\":null"));
        crate::json::validate(&json).expect("record JSON must parse");
    }
}
