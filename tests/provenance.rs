//! Per-statement provenance end to end: the forensic record a statement
//! leaves behind must agree with the independently recorded metrics, the
//! translation cache's actual behavior, and the workload tracker's feature
//! measurement — and captured SQL must never leak literal values unless
//! raw capture was explicitly opted into.

use std::sync::Arc;
use std::time::Duration;

use hyperq::core::backend::testing::{FaultInjectingBackend, FaultPlan};
use hyperq::core::backend::BackendErrorKind;
use hyperq::core::resilience::{BreakerConfig, ResilienceConfig, RetryPolicy, TargetLink};
use hyperq::core::tracker::WorkloadTracker;
use hyperq::core::{Backend, HyperQBuilder, ObsContext};
use hyperq::engine::EngineDb;
use hyperq::obs::provenance::CacheOutcome;
use hyperq::obs::WorkloadReport;
use hyperq::workload::customer::{health, telco, CustomerWorkload, QueryClass};

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_millis(2),
        jitter: 0.5,
        seed: 42,
        deadline: None,
    }
}

/// The acceptance scenario: one statement through a cold cache, the same
/// statement again through a warm cache, with one injected transient fault
/// on the cold run. The two provenance records must tell exactly that
/// story, and every claim in them must match an independently observed
/// metric.
#[test]
fn cache_miss_then_hit_with_injected_fault_leaves_matching_forensics() {
    let obs = ObsContext::new();
    obs.slowlog.set_threshold(Some(Duration::from_micros(1)));
    let db = Arc::new(EngineDb::new());
    db.execute_sql("CREATE TABLE ORDERS (O_ID INTEGER NOT NULL, TOTAL INTEGER)").unwrap();
    db.execute_sql("INSERT INTO ORDERS VALUES (1, 500)").unwrap();
    let fault = FaultInjectingBackend::wrap(db as Arc<dyn Backend>, FaultPlan::none());
    let link = TargetLink::new(
        Arc::clone(&fault) as Arc<dyn Backend>,
        Some(ResilienceConfig { retry: fast_retry(), breaker: BreakerConfig::default() }),
        &obs,
    );
    let mut hq = HyperQBuilder::for_target(&link, hyperq::core::targets::simwh())
        .obs(Arc::clone(&obs))
        .build();

    fault.set_plan(FaultPlan::fail_n_then_succeed(1, BackendErrorKind::Transient));
    let sql = "SELECT TOTAL FROM ORDERS WHERE O_ID = 1";
    let cold = hq.run_one(sql).unwrap();
    let warm = hq.run_one(sql).unwrap();
    assert_eq!(cold.result.rows, warm.result.rows, "cache hit must not change the result");

    let records = obs.provenance.recent(10);
    assert_eq!(records.len(), 2, "one record per statement");
    let (miss, hit) = (&records[0], &records[1]);

    // Cold run: full pipeline, cache miss, one transparent retry.
    assert_eq!(miss.cache, CacheOutcome::Miss);
    assert_eq!(miss.kind, "select");
    assert!(miss.ok);
    assert_eq!(miss.retries, 1, "the injected transient fault cost one retry");
    assert_eq!(miss.rows, 1);
    assert!(miss.fingerprint != 0);
    let stage_names: Vec<&str> = miss.stages.iter().map(|(s, _)| *s).collect();
    for stage in ["parse", "bind", "transform", "serialize", "execute"] {
        assert!(stage_names.contains(&stage), "miss record must time {stage}: {stage_names:?}");
    }
    let staged: Duration = miss.stages.iter().map(|(_, d)| *d).sum();
    assert!(staged <= miss.total, "stage timings cannot exceed end-to-end time");

    // Warm run: served from cache, no translation stages, no retry.
    assert_eq!(hit.cache, CacheOutcome::Hit);
    assert_eq!(hit.retries, 0);
    assert_eq!(hit.fingerprint, miss.fingerprint, "same statement, same fingerprint");
    let hit_stages: Vec<&str> = hit.stages.iter().map(|(s, _)| *s).collect();
    assert!(hit_stages.contains(&"cache"), "hit record must time the cache lookup");
    assert!(hit_stages.contains(&"execute"));
    assert!(!hit_stages.contains(&"bind"), "a cache hit skips translation: {hit_stages:?}");

    // Every forensic claim matches an independently recorded metric.
    assert_eq!(obs.metrics.counter_value("hyperq_cache_hits_total", &[]), 1);
    assert_eq!(obs.metrics.counter_value("hyperq_cache_misses_total", &[]), 1);
    let prom = obs.metrics.render_prometheus();
    let retry_line = prom
        .lines()
        .find(|l| l.starts_with("hyperq_backend_retries_total"))
        .expect("retry counter must be exposed");
    assert!(retry_line.ends_with(" 1"), "metrics saw exactly one retry: {retry_line}");
    assert_eq!(
        obs.metrics.counter_value("hyperq_statements_total", &[("outcome", "ok")]),
        2
    );

    // The slow-query log captured both, with the literal redacted.
    let slow = obs.slowlog.entries();
    assert_eq!(slow.len(), 2);
    for entry in &slow {
        assert!(!entry.sql.contains("= 1"), "literal leaked into slowlog: {}", entry.sql);
        assert!(entry.sql.contains('?'), "redacted placeholder expected: {}", entry.sql);
    }
}

/// Regression: no literal values in the slow-query log or provenance ring
/// by default; raw text only behind the explicit opt-in.
#[test]
fn captured_sql_is_literal_redacted_unless_raw_capture_opted_in() {
    let run = |capture_raw: bool| -> (Vec<String>, Vec<String>) {
        let obs = ObsContext::new();
        obs.slowlog.set_threshold(Some(Duration::from_micros(1)));
        if capture_raw {
            obs.slowlog.set_capture_raw(true);
            obs.provenance.set_capture_raw(true);
        }
        let db = Arc::new(EngineDb::new());
        db.execute_sql("CREATE TABLE USERS (UID INTEGER NOT NULL, TOKEN VARCHAR(40))")
            .unwrap();
        let mut hq = HyperQBuilder::for_target(db as Arc<dyn Backend>, hyperq::core::targets::simwh())
            .obs(Arc::clone(&obs))
            .build();
        hq.run_one("SELECT UID FROM USERS WHERE TOKEN = 'SECRET-TOKEN' AND UID = 98765")
            .unwrap();
        (
            obs.slowlog.entries().into_iter().map(|e| e.sql).collect(),
            obs.provenance.recent(10).into_iter().map(|r| r.sql).collect(),
        )
    };

    let (slow, prov) = run(false);
    for sql in slow.iter().chain(prov.iter()) {
        assert!(!sql.contains("SECRET-TOKEN"), "string literal leaked: {sql}");
        assert!(!sql.contains("98765"), "number literal leaked: {sql}");
        assert!(sql.contains('?'), "expected redaction placeholders: {sql}");
    }

    let (slow_raw, prov_raw) = run(true);
    for sql in slow_raw.iter().chain(prov_raw.iter()) {
        assert!(sql.contains("SECRET-TOKEN") && sql.contains("98765"), "raw opt-in: {sql}");
    }
}

fn replay_distinct(w: &CustomerWorkload) -> (Arc<ObsContext>, WorkloadTracker) {
    let obs = ObsContext::new();
    let db = Arc::new(EngineDb::new());
    for ddl in &w.target_ddl {
        db.execute_sql(ddl).unwrap();
    }
    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq::core::targets::simwh())
        .obs(Arc::clone(&obs))
        .build();
    for setup in &w.hyperq_setup {
        hq.run_one(setup).unwrap();
    }
    // The report must reflect the application queries only, not the
    // one-time setup DDL; records before this mark are skipped.
    let setup_records = obs.provenance.snapshot().len();
    let mut tracker = WorkloadTracker::new();
    for text in &w.distinct {
        let outcome = hq.run_one(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        tracker.observe(text, &outcome.features);
    }
    let total = obs.provenance.snapshot().len();
    assert_eq!(
        total - setup_records,
        w.distinct.len(),
        "one provenance record per distinct query"
    );
    (obs, tracker)
}

fn application_records(
    obs: &ObsContext,
    w: &CustomerWorkload,
) -> Vec<hyperq::obs::ProvenanceRecord> {
    let mut all = obs.provenance.snapshot();
    let skip = all.len() - w.distinct.len();
    all.drain(..skip);
    all
}

/// Figure 8 analog from live provenance records: per-feature frequencies
/// must agree exactly with the workload tracker's independent measurement,
/// and every class-tagged query must exhibit a feature of its class.
#[test]
fn figure8_report_matches_tracker_and_generator_tags() {
    for w in [health(0.05), telco(0.02)] {
        let (obs, tracker) = replay_distinct(&w);
        let records = application_records(&obs, &w);
        let report = WorkloadReport::from_records(&records);
        assert_eq!(report.statements, w.distinct.len() as u64);
        assert_eq!(report.errors, 0);

        // Per-feature statement counts: the report (folded from provenance
        // records) against the tracker (fed directly from pipeline
        // outcomes). Each distinct query ran exactly once, so statement
        // counts equal distinct-query counts.
        let tracked: Vec<(&str, u64)> = tracker
            .feature_counts()
            .into_iter()
            .filter(|(_, n)| *n > 0)
            .map(|(f, n)| (f.code(), n))
            .collect();
        assert!(!tracked.is_empty(), "{}: corpus must exercise features", w.profile.sector);
        for (code, n) in &tracked {
            let row = report
                .features
                .iter()
                .find(|f| f.code == *code)
                .unwrap_or_else(|| panic!("{}: feature {code} missing from report", w.profile.sector));
            assert_eq!(
                row.statements, *n,
                "{}: feature {code} frequency diverges from tracker",
                w.profile.sector
            );
        }
        assert_eq!(
            report.features.len(),
            tracked.len(),
            "{}: report lists features the tracker never saw",
            w.profile.sector
        );

        // Generator ground truth: a query synthesized in a rewrite class
        // must exhibit at least one feature of that class; plain queries
        // must exhibit none.
        for (record, class) in records.iter().zip(&w.classes) {
            let has = |prefix: char| record.features.iter().any(|c| c.starts_with(prefix));
            match class {
                QueryClass::Translation => {
                    assert!(has('T'), "translation query without T feature: {}", record.sql);
                }
                QueryClass::Transformation => {
                    assert!(has('X'), "transformation query without X feature: {}", record.sql);
                }
                QueryClass::Emulation => {
                    assert!(has('E'), "emulation query without E feature: {}", record.sql);
                }
                QueryClass::Plain => assert!(
                    record.features.is_empty(),
                    "plain query tripped features {:?}: {}",
                    record.features,
                    record.sql
                ),
            }
        }
    }
}

/// The Figure 8 analog table is byte-stable for a fixed seed: two fresh
/// replays of the same corpus render identical feature tables.
#[test]
fn figure8_table_is_byte_stable_for_fixed_seed() {
    let render = || {
        let w = health(0.05);
        let (obs, _) = replay_distinct(&w);
        WorkloadReport::from_records(&application_records(&obs, &w)).render_feature_table()
    };
    let first = render();
    let second = render();
    assert!(!first.is_empty());
    assert_eq!(first, second, "feature table must be byte-identical across replays");
    // Counts only — no timings — so the snapshot itself is stable too.
    assert!(first.contains("figure 8 analog"));
}
