//! The cumulative per-fingerprint statement table: `pg_stat_statements`
//! for the middleware.
//!
//! The provenance ring answers "what happened to *this* query" for the
//! last [`CAPACITY`] statements and then forgets them. This table folds
//! every sealed [`ProvenanceRecord`] into one row per literal-normalized
//! fingerprint and keeps accumulating: calls, errors and cancels, total
//! and maximum latency with the trace of the slowest call, per-stage
//! totals, the translation-overhead distribution, cache outcomes,
//! emulations and feature usage. `/statements`, the `/report` projection
//! ([`crate::report::WorkloadReport::from_rows`]) and the Figure 8
//! reproduction are all reads of it.
//!
//! Only [`ProvenanceLog`](crate::ProvenanceLog) writes to it: `finish` folds
//! each record, `attach_convert` adds the result conversion afterwards. It
//! is bounded like the ring: at most [`CAPACITY`] rows, sharded by
//! fingerprint. A full shard evicts its least-recently-used ~5% in one
//! pass (the `entry_dealloc` policy of PostgreSQL's `pg_stat_statements`)
//! and counts them in [`StatementTable::evicted`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::metrics::{json_map, json_str};
use crate::provenance::{
    accumulate, truncate, CacheOutcome, ProvenanceRecord, CAPACITY, SHARDS, TEXT_CLIP,
};
use crate::trace::{TraceId, TraceSink};

const SHARD_ROWS: usize = CAPACITY / SHARDS;
/// Rows one eviction pass frees in a full shard: ~5%, at least one.
const EVICT_ROWS: usize = SHARD_ROWS.div_ceil(20);

/// Stages counted as translation overhead (everything Hyper-Q adds in
/// front of the target database). `execute` is the backend's time;
/// `convert` is attached after the record is sealed.
const TRANSLATION_STAGES: [&str; 6] =
    ["parse", "bind", "transform", "serialize", "validate", "cache"];

/// Upper bounds (percent) of the overhead-ratio distribution bands.
const BAND_BOUNDS: [f64; 7] = [0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0];
/// Labels of the overhead-ratio bands, one per [`StatementRow::overhead_bands`] slot.
pub const BAND_LABELS: [&str; 8] =
    ["<=0.5%", "0.5-1%", "1-2%", "2-5%", "5-10%", "10-25%", "25-50%", ">50%"];

/// Feature-code prefixes of the three rewrite classes, in
/// [`StatementRow::classes`] order: translation, transformation, emulation.
pub const CLASS_PREFIXES: [char; 3] = ['T', 'X', 'E'];

/// Everything the table knows about one fingerprint.
#[derive(Debug, Clone)]
pub struct StatementRow {
    pub fingerprint: u64,
    /// The first call's SQL (literal-redacted unless raw capture is on),
    /// clipped like error text.
    pub sample: String,
    pub calls: u64,
    pub errors: u64,
    /// Governor cancellations by reason.
    pub cancels: Vec<(&'static str, u64)>,
    pub total: Duration,
    pub max: Duration,
    /// Trace of the slowest call.
    pub max_trace: TraceId,
    /// Per-stage totals, `convert` included.
    pub stages: Vec<(&'static str, Duration)>,
    /// Calls per translation-overhead band ([`BAND_LABELS`]).
    pub overhead_bands: [u64; 8],
    /// Sum of the banded calls' overhead ratios, in percent.
    pub overhead_pct_sum: f64,
    pub rows: u64,
    pub retries: u64,
    pub recoveries: u64,
    pub admission_wait: Duration,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_bypasses: u64,
    /// Emulation requests by kind.
    pub emulations: Vec<(&'static str, u64)>,
    /// Calls per detected feature code (T1…E9).
    pub features: Vec<(&'static str, u64)>,
    /// Calls with at least one feature of each class ([`CLASS_PREFIXES`]).
    pub classes: [u64; 3],
    /// Sequence number of the latest call: the LRU stamp.
    last_used: u64,
}

impl StatementRow {
    fn new(r: &ProvenanceRecord) -> StatementRow {
        StatementRow {
            fingerprint: r.fingerprint,
            sample: truncate(&r.sql, TEXT_CLIP),
            calls: 0,
            errors: 0,
            cancels: Vec::new(),
            total: Duration::ZERO,
            max: Duration::ZERO,
            max_trace: r.trace,
            // Room for `convert`, which arrives after the record is sealed.
            stages: Vec::with_capacity(r.stages.len() + 1),
            overhead_bands: [0; 8],
            overhead_pct_sum: 0.0,
            rows: 0,
            retries: 0,
            recoveries: 0,
            admission_wait: Duration::ZERO,
            cache_hits: 0,
            cache_misses: 0,
            cache_bypasses: 0,
            emulations: Vec::new(),
            features: Vec::new(),
            classes: [0; 3],
            last_used: r.seq,
        }
    }

    fn fold(&mut self, r: &ProvenanceRecord) {
        self.calls += 1;
        self.errors += u64::from(!r.ok);
        if let Some(reason) = r.cancelled {
            accumulate(&mut self.cancels, reason, 1);
        }
        self.total += r.total;
        if r.total >= self.max {
            self.max = r.total;
            self.max_trace = r.trace;
        }
        for &(stage, d) in &r.stages {
            accumulate(&mut self.stages, stage, d);
        }
        if !r.total.is_zero() {
            let translation: Duration = r
                .stages
                .iter()
                .filter(|(s, _)| TRANSLATION_STAGES.contains(s))
                .map(|(_, d)| *d)
                .sum();
            let ratio = 100.0 * translation.as_secs_f64() / r.total.as_secs_f64();
            let band =
                BAND_BOUNDS.iter().position(|&b| ratio <= b).unwrap_or(BAND_BOUNDS.len());
            self.overhead_bands[band] += 1;
            self.overhead_pct_sum += ratio;
        }
        self.rows += r.rows;
        self.retries += r.retries;
        self.recoveries += r.recoveries;
        self.admission_wait += r.admission_wait;
        match r.cache {
            CacheOutcome::Hit => self.cache_hits += 1,
            CacheOutcome::Miss => self.cache_misses += 1,
            CacheOutcome::Bypass(_) => self.cache_bypasses += 1,
            CacheOutcome::Uncached => {}
        }
        for &(kind, n) in &r.emulations {
            accumulate(&mut self.emulations, kind, n);
        }
        for &code in &r.features {
            accumulate(&mut self.features, code, 1);
        }
        for (n, prefix) in self.classes.iter_mut().zip(CLASS_PREFIXES) {
            *n += u64::from(r.features.iter().any(|c| c.starts_with(prefix)));
        }
        self.last_used = r.seq;
    }

    /// Mean latency per call.
    pub fn mean(&self) -> Duration {
        match self.calls {
            0 => Duration::ZERO,
            n => self.total / u32::try_from(n).unwrap_or(u32::MAX),
        }
    }

    /// Emulation requests across all kinds.
    pub fn emulation_requests(&self) -> u64 {
        self.emulations.iter().map(|(_, n)| n).sum()
    }

    /// Calls that used feature `code`.
    pub fn feature_calls(&self, code: &str) -> u64 {
        self.features.iter().find(|(c, _)| *c == code).map_or(0, |(_, n)| *n)
    }
}

/// A shard's rows, boxed: a full shard leaves half its map's slots empty,
/// and an empty slot then costs a pointer, not a row.
type Shard = HashMap<u64, Box<StatementRow>>;

/// Bounded, sharded table of [`StatementRow`]s keyed by fingerprint.
#[derive(Debug, Default)]
pub struct StatementTable {
    evicted: AtomicU64,
    shards: [Mutex<Shard>; SHARDS],
}

impl StatementTable {
    fn shard(&self, fingerprint: u64) -> MutexGuard<'_, Shard> {
        self.shards[fingerprint as usize % SHARDS]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Fold one sealed record into its fingerprint's row.
    pub(crate) fn fold(&self, r: &ProvenanceRecord) {
        let mut shard = self.shard(r.fingerprint);
        if shard.len() >= SHARD_ROWS && !shard.contains_key(&r.fingerprint) {
            self.dealloc(&mut shard);
        }
        shard.entry(r.fingerprint).or_insert_with(|| Box::new(StatementRow::new(r))).fold(r);
    }

    /// Evict the least-recently-used [`EVICT_ROWS`] rows of a full shard.
    fn dealloc(&self, shard: &mut Shard) {
        let mut stamps: Vec<(u64, u64)> =
            shard.values().map(|r| (r.last_used, r.fingerprint)).collect();
        stamps.select_nth_unstable(EVICT_ROWS - 1);
        for (_, fingerprint) in &stamps[..EVICT_ROWS] {
            shard.remove(fingerprint);
        }
        self.evicted.fetch_add(EVICT_ROWS as u64, Ordering::Relaxed);
    }

    /// Add a result conversion to its fingerprint's `convert` stage.
    pub(crate) fn add_convert(&self, fingerprint: u64, d: Duration) {
        if let Some(row) = self.shard(fingerprint).get_mut(&fingerprint) {
            accumulate(&mut row.stages, "convert", d);
        }
    }

    /// Every row, by total time descending (ties by fingerprint).
    pub fn snapshot(&self) -> Vec<StatementRow> {
        let mut rows = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            rows.extend(shard.values().map(|r| StatementRow::clone(r)));
        }
        rows.sort_by(|a, b| b.total.cmp(&a.total).then(a.fingerprint.cmp(&b.fingerprint)));
        rows
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows evicted to keep the table within [`CAPACITY`].
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(PoisonError::into_inner).clear();
        }
        self.evicted.store(0, Ordering::Relaxed);
    }

    /// The table as JSON: `evicted` plus the rows by total time. Each row
    /// carries the span tree of its slowest call, rendered now from
    /// `traces`, or `null` once the trace ring has dropped it.
    pub fn render_json(&self, traces: &TraceSink) -> String {
        let rows: Vec<String> = self.snapshot().iter().map(|r| render_row(r, traces)).collect();
        format!("{{\"evicted\":{},\"statements\":[{}]}}", self.evicted(), rows.join(","))
    }
}

fn render_row(r: &StatementRow, traces: &TraceSink) -> String {
    let tree = traces.render_tree(r.max_trace);
    let secs = |d: &Duration| d.as_secs_f64();
    let fields = [
        ("fingerprint", format!("\"{:016x}\"", r.fingerprint)),
        ("calls", r.calls.to_string()),
        ("errors", r.errors.to_string()),
        ("cancels", json_map(r.cancels.iter().copied())),
        ("total_seconds", secs(&r.total).to_string()),
        ("mean_seconds", secs(&r.mean()).to_string()),
        ("max_seconds", secs(&r.max).to_string()),
        ("max_trace", format!("\"{}\"", r.max_trace)),
        ("max_trace_tree", if tree.is_empty() { "null".to_string() } else { json_str(&tree) }),
        ("stages", json_map(r.stages.iter().map(|(s, d)| (s, secs(d))))),
        ("overhead_bands", json_map(BAND_LABELS.iter().zip(r.overhead_bands))),
        ("rows", r.rows.to_string()),
        ("retries", r.retries.to_string()),
        ("recoveries", r.recoveries.to_string()),
        ("admission_wait_seconds", secs(&r.admission_wait).to_string()),
        (
            "cache",
            json_map([
                ("hits", r.cache_hits),
                ("misses", r.cache_misses),
                ("bypasses", r.cache_bypasses),
            ]),
        ),
        ("emulations", json_map(r.emulations.iter().copied())),
        ("features", json_map(r.features.iter().copied())),
        (
            "classes",
            json_map(CLASS_PREFIXES.iter().map(char::to_string).zip(r.classes)),
        ),
        ("sample", json_str(&r.sample)),
    ];
    json_map(fields)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::provenance::{FinishedStatement, ProvenanceLog};

    /// A successful, uncached record of `total_micros`, split evenly
    /// between `bind` and `execute`.
    pub(crate) fn record(seq: u64, fingerprint: u64, total_micros: u64) -> ProvenanceRecord {
        let half = Duration::from_micros(total_micros / 2);
        ProvenanceRecord {
            seq,
            trace: TraceId(seq),
            fingerprint,
            kind: "select",
            target: "simwh".to_string(),
            sql: format!("SELECT {fingerprint}"),
            total: Duration::from_micros(total_micros),
            stages: vec![("bind", half), ("execute", half)],
            rules: Vec::new(),
            emulations: Vec::new(),
            features: Vec::new(),
            cache: CacheOutcome::Uncached,
            retries: 0,
            recoveries: 0,
            admission_wait: Duration::ZERO,
            analyze_mode: "log_only",
            violations: 0,
            ok: true,
            error: None,
            cancelled: None,
            replica: None,
            rows: 0,
            convert: None,
        }
    }

    #[test]
    fn folding_records_gives_hand_computed_rows() {
        let table = StatementTable::default();
        let mut a = record(0, 1, 1000);
        a.stages = vec![("bind", Duration::from_micros(10)), ("execute", Duration::from_micros(990))];
        a.features = vec!["X1", "X4", "E2"];
        a.emulations = vec![("macro", 2)];
        a.cache = CacheOutcome::Miss;
        a.rows = 4;
        a.retries = 1;
        a.admission_wait = Duration::from_micros(30);
        let mut b = record(1, 1, 3000);
        b.features = vec!["X1"];
        b.cache = CacheOutcome::Hit;
        b.rows = 4;
        let mut c = record(2, 1, 500);
        c.ok = false;
        c.cancelled = Some("deadline");
        c.cache = CacheOutcome::Bypass("volatile");
        let other = record(3, 2, 100);
        for r in [&a, &b, &c, &other] {
            table.fold(r);
        }

        let rows = table.snapshot();
        assert_eq!(rows.len(), 2);
        let row = &rows[0];
        assert_eq!(row.fingerprint, 1, "sorted by total time");
        assert_eq!(row.sample, "SELECT 1", "the first call's text");
        assert_eq!((row.calls, row.errors), (3, 1));
        assert_eq!(row.cancels, vec![("deadline", 1)]);
        assert_eq!(row.total, Duration::from_micros(4500));
        assert_eq!(row.mean(), Duration::from_micros(1500));
        assert_eq!((row.max, row.max_trace), (Duration::from_micros(3000), TraceId(1)));
        assert_eq!(
            row.stages,
            vec![
                ("bind", Duration::from_micros(10 + 1500 + 250)),
                ("execute", Duration::from_micros(990 + 1500 + 250)),
            ]
        );
        // Overhead ratios: a 1% (bind 10 of 1000), b and c 50%.
        assert_eq!(row.overhead_bands, [0, 1, 0, 0, 0, 0, 2, 0]);
        assert!((row.overhead_pct_sum - 101.0).abs() < 1e-9);
        assert_eq!((row.rows, row.retries, row.recoveries), (8, 1, 0));
        assert_eq!(row.admission_wait, Duration::from_micros(30));
        assert_eq!((row.cache_hits, row.cache_misses, row.cache_bypasses), (1, 1, 1));
        assert_eq!(row.emulations, vec![("macro", 2)]);
        assert_eq!(row.emulation_requests(), 2);
        assert_eq!(row.features, vec![("X1", 2), ("X4", 1), ("E2", 1)]);
        assert_eq!(row.feature_calls("X1"), 2);
        assert_eq!(row.feature_calls("T1"), 0);
        assert_eq!(row.classes, [0, 2, 1], "a call counts once per class");
        assert_eq!((rows[1].fingerprint, rows[1].calls), (2, 1));
    }

    #[test]
    fn full_table_evicts_least_recently_used_rows() {
        let table = StatementTable::default();
        let inserted = 3 * CAPACITY as u64;
        for fp in 0..inserted {
            table.fold(&record(fp, fp, 10));
        }
        assert!(table.len() <= CAPACITY, "{} rows", table.len());
        assert_eq!(table.evicted() + table.len() as u64, inserted);
        let rows = table.snapshot();
        for fp in inserted - 64..inserted {
            assert!(rows.iter().any(|r| r.fingerprint == fp), "newest fingerprint {fp} evicted");
        }
        // A row in use survives eviction: re-touching fingerprint 0 before
        // each new insert keeps it the most recently used in its shard.
        let table = StatementTable::default();
        for seq in 0..inserted {
            table.fold(&record(2 * seq, 0, 10));
            table.fold(&record(2 * seq + 1, seq + 1, 10));
        }
        assert!(table.snapshot().iter().any(|r| r.fingerprint == 0 && r.calls == inserted));
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.evicted(), 0);
    }

    #[test]
    fn attach_convert_reaches_the_right_row() {
        let log = ProvenanceLog::default();
        for (trace, fingerprint) in [(1, 10), (2, 20), (3, 10)] {
            log.begin();
            log.finish(FinishedStatement {
                trace: TraceId(trace),
                fingerprint,
                kind: "select",
                target: "simwh",
                sql: "SELECT ?",
                total: Duration::from_micros(100),
                features: Vec::new(),
                analyze_mode: "off",
                rows: 1,
                error: None,
            });
        }
        assert!(log.attach_convert(TraceId(2), 1, 10, Duration::from_micros(7)));
        assert!(log.attach_convert(TraceId(3), 1, 10, Duration::from_micros(5)));
        assert!(log.attach_convert(TraceId(1), 1, 10, Duration::from_micros(4)));
        let convert = |fp: u64| {
            let rows = log.statements().snapshot();
            let row = rows.iter().find(|r| r.fingerprint == fp).unwrap().clone();
            row.stages.iter().find(|(s, _)| *s == "convert").map(|(_, d)| *d)
        };
        assert_eq!(convert(10), Some(Duration::from_micros(9)));
        assert_eq!(convert(20), Some(Duration::from_micros(7)));
    }

    #[test]
    fn renders_json_with_the_slowest_calls_span_tree() {
        let table = StatementTable::default();
        let traces = TraceSink::default();
        let span = traces.enter("statement");
        let live = span.trace_id();
        span.finish();
        let mut slow = record(0, 1, 900);
        slow.trace = live;
        slow.sql = "SELECT \"q\"".to_string();
        table.fold(&slow);
        table.fold(&record(1000, 2, 100)); // trace 1000 was never recorded
        let json = table.render_json(&traces);
        crate::json::validate(&json).expect("/statements JSON must parse");
        assert!(json.starts_with("{\"evicted\":0,\"statements\":[{\"fingerprint\":\"0000000000000001\",\"calls\":1,"), "{json}");
        assert!(json.contains("\"max_trace_tree\":\"statement "), "{json}");
        assert!(json.contains("\"max_trace_tree\":null"), "a dropped trace renders null: {json}");
        assert!(json.contains("\"classes\":{\"T\":0,\"X\":0,\"E\":0}"), "{json}");
    }
}
