//! Translation-cache behavior through the full crosscompiler: warm-hit
//! replay, literal splicing, DDL/SET invalidation, per-session isolation
//! on a shared cache, GTT and transaction bypasses, and strict-mode
//! revalidation sampling.

use std::sync::Arc;

use hyperq_core::backend::testing::ScriptedBackend;
use hyperq_core::backend::Backend;
use hyperq_core::{AnalyzeMode, CacheConfig, HyperQBuilder, ObsContext, TranslationCache};
use hyperq_xtra::catalog::{ColumnDef, TableDef};
use hyperq_xtra::types::SqlType;

fn sales_table() -> TableDef {
    TableDef::new(
        "SALES",
        vec![
            ColumnDef::new("STORE", SqlType::Integer, true),
            ColumnDef::new("AMOUNT", SqlType::Integer, true),
        ],
    )
}

fn counter(obs: &Arc<ObsContext>, name: &str) -> u64 {
    obs.metrics.counter_value(name, &[])
}

#[test]
fn warm_hit_replays_byte_identical_sql_without_retranslating() {
    let obs = ObsContext::new();
    let backend = Arc::new(ScriptedBackend::acking(vec![sales_table()]));
    let mut hq = HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, hyperq_core::targets::simwh())
        .obs(Arc::clone(&obs))
        .build();
    let sql = "SEL STORE FROM SALES WHERE AMOUNT > 10";
    hq.run_one(sql).unwrap();
    assert_eq!(counter(&obs, "hyperq_cache_hits_total"), 0);
    hq.run_one(sql).unwrap();
    assert_eq!(counter(&obs, "hyperq_cache_hits_total"), 1);
    let log = backend.sql_log();
    assert_eq!(log.len(), 2);
    assert_eq!(log[0], log[1], "warm hit must replay the exact SQL-B");
}

#[test]
fn literal_variation_upgrades_to_a_spliced_template() {
    let backend = Arc::new(ScriptedBackend::acking(vec![sales_table()]));
    let mut hq = HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, hyperq_core::targets::simwh())
        .build();
    // Two distinct literal vectors under one fingerprint: the second
    // populate builds (and probe-verifies) a spliced template.
    hq.run_one("SEL STORE FROM SALES WHERE AMOUNT > 10").unwrap();
    hq.run_one("SEL STORE FROM SALES WHERE AMOUNT > 20").unwrap();
    // A literal never seen before must now be served by splicing…
    let o = hq.run_one("SEL STORE FROM SALES WHERE AMOUNT > 31337").unwrap();
    assert!(
        o.sql_sent[0].contains("31337"),
        "spliced SQL must carry the new literal: {:?}",
        o.sql_sent
    );
    // …and byte-match what a cold pipeline produces for the same text.
    let mut cold = HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, hyperq_core::targets::simwh())
        .no_cache()
        .build();
    let c = cold.run_one("SEL STORE FROM SALES WHERE AMOUNT > 31337").unwrap();
    assert_eq!(o.sql_sent, c.sql_sent);
}

#[test]
fn ddl_invalidates_cached_translations_for_the_table() {
    let backend = Arc::new(ScriptedBackend::acking(vec![sales_table()]));
    let mut hq = HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, hyperq_core::targets::simwh())
        .build();
    hq.run_one("SEL STORE FROM SALES WHERE AMOUNT > 10").unwrap();
    let cache = Arc::clone(hq.cache().expect("cache on by default"));
    assert_eq!(cache.len(), 1);
    hq.run_one("DROP TABLE SALES").unwrap();
    assert_eq!(cache.len(), 0, "DROP TABLE must drop entries that resolved SALES");
}

#[test]
fn set_session_moves_the_session_to_a_fresh_key_space() {
    let backend = Arc::new(ScriptedBackend::acking(vec![sales_table()]));
    let obs = ObsContext::new();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, hyperq_core::targets::simwh())
        .obs(Arc::clone(&obs))
        .build();
    let sql = "SEL STORE FROM SALES WHERE AMOUNT > 10";
    hq.run_one(sql).unwrap();
    hq.run_one(sql).unwrap();
    assert_eq!(counter(&obs, "hyperq_cache_hits_total"), 1);
    hq.run_one("SET SESSION COLLATION = 'UNICODE'").unwrap();
    // Same text, new settings epoch: must re-translate, not hit.
    hq.run_one(sql).unwrap();
    assert_eq!(counter(&obs, "hyperq_cache_hits_total"), 1);
    let cache = hq.cache().unwrap();
    assert_eq!(cache.len(), 2, "old and new epochs hold separate entries");
}

/// The regression the shared-cache design must hold: one gateway-wide
/// cache, two sessions whose `SET` state differs, same statement text —
/// each session gets *its own* translation, never the other's.
#[test]
fn shared_cache_respects_per_session_settings() {
    let backend = Arc::new(ScriptedBackend::acking(vec![
        TableDef::new("T", vec![ColumnDef::new("X", SqlType::Integer, true)]),
        TableDef::new("SALES.T", vec![ColumnDef::new("X", SqlType::Integer, true)]),
    ]));
    let obs = ObsContext::new();
    let cache = Arc::new(TranslationCache::new(CacheConfig::default(), &obs));
    let mk = || {
        HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, hyperq_core::targets::simwh())
            .obs(Arc::clone(&obs))
            .shared_cache(Arc::clone(&cache))
            .build()
    };
    let mut a = mk();
    let mut b = mk();
    a.run_one("SET SESSION DATABASE = 'SALES'").unwrap();

    let sql = "SEL X FROM T WHERE X = 1";
    let a_cold = a.run_one(sql).unwrap().sql_sent;
    let b_cold = b.run_one(sql).unwrap().sql_sent;
    assert!(a_cold[0].contains("SALES.T"), "session A resolves via its default database: {a_cold:?}");
    assert!(!b_cold[0].contains("SALES"), "session B resolves the bare table: {b_cold:?}");

    // Warm replays: each session must hit its *own* entry.
    let a_warm = a.run_one(sql).unwrap().sql_sent;
    let b_warm = b.run_one(sql).unwrap().sql_sent;
    assert_eq!(a_cold, a_warm);
    assert_eq!(b_cold, b_warm);
    assert!(counter(&obs, "hyperq_cache_hits_total") >= 2);
}

#[test]
fn gtt_statements_are_never_cached() {
    // GTT statements depend on per-session materialization state (and are
    // re-materialized after recovery); caching their translation could
    // replay a pre-recovery instance name. They must bypass entirely.
    let backend = Arc::new(ScriptedBackend::acking(vec![]));
    let mut hq = HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, hyperq_core::targets::simwh())
        .build();
    hq.run_one("CREATE GLOBAL TEMPORARY TABLE STAGE (K INTEGER, V INTEGER)").unwrap();
    let cache = Arc::clone(hq.cache().unwrap());
    for _ in 0..3 {
        hq.run_one("SEL K FROM STAGE WHERE V = 1").unwrap();
    }
    assert_eq!(cache.len(), 0, "GTT-touching statements must never populate the cache");
    // The bypass is not a behavior change, just a slow path: every
    // execution still reached the target.
    assert!(backend.sql_log().len() >= 3);
}

#[test]
fn in_transaction_dml_takes_the_slow_path() {
    let backend = Arc::new(ScriptedBackend::acking(vec![sales_table()]));
    let obs = ObsContext::new();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, hyperq_core::targets::simwh())
        .obs(Arc::clone(&obs))
        .build();
    // Populate the entry outside a transaction.
    hq.run_one("UPDATE SALES SET AMOUNT = 5 WHERE STORE = 1").unwrap();
    hq.run_one("UPDATE SALES SET AMOUNT = 5 WHERE STORE = 1").unwrap();
    let hits_before = counter(&obs, "hyperq_cache_hits_total");
    assert_eq!(hits_before, 1);
    // The same statement inside an open transaction must not hit.
    hq.run_script("BEGIN TRANSACTION").unwrap();
    hq.run_one("UPDATE SALES SET AMOUNT = 5 WHERE STORE = 1").unwrap();
    hq.run_script("COMMIT").unwrap();
    assert_eq!(counter(&obs, "hyperq_cache_hits_total"), hits_before);
    assert!(counter(&obs, "hyperq_cache_bypass_total") >= 1);
}

#[test]
fn strict_mode_revalidates_sampled_hits() {
    let backend = Arc::new(ScriptedBackend::acking(vec![sales_table()]));
    let obs = ObsContext::new();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, hyperq_core::targets::simwh())
        .obs(Arc::clone(&obs))
        .analyze(AnalyzeMode::Strict)
        .cache(CacheConfig { revalidate_every: 1, ..CacheConfig::default() })
        .build();
    let sql = "SEL STORE FROM SALES WHERE AMOUNT > 10";
    for _ in 0..3 {
        hq.run_one(sql).unwrap();
    }
    let ok = obs.metrics.counter_value("hyperq_cache_revalidations_total", &[("outcome", "ok")]);
    assert!(ok >= 2, "every strict-mode hit revalidates at period 1, got {ok}");
    assert_eq!(
        obs.metrics.counter_value("hyperq_cache_revalidations_total", &[("outcome", "mismatch")]),
        0
    );
}

#[test]
fn bypass_request_skips_lookup_and_population() {
    use hyperq_core::Request;
    let backend = Arc::new(ScriptedBackend::acking(vec![sales_table()]));
    let obs = ObsContext::new();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, hyperq_core::targets::simwh())
        .obs(Arc::clone(&obs))
        .build();
    let sql = "SEL STORE FROM SALES WHERE AMOUNT > 10";
    hq.run(Request::script(sql).bypass_cache()).unwrap();
    hq.run(Request::script(sql).bypass_cache()).unwrap();
    assert_eq!(counter(&obs, "hyperq_cache_hits_total"), 0);
    assert_eq!(hq.cache().unwrap().len(), 0);
}

/// Two sessions on one shared cache, same statement text, different
/// target profiles: each target must populate and replay *its own*
/// entry — a `simwh` translation served to a `simwh-reduced` session
/// would ship the wrong dialect to the target.
#[test]
fn shared_cache_isolates_entries_per_target() {
    let backend = Arc::new(ScriptedBackend::acking(vec![sales_table()]));
    let obs = ObsContext::new();
    let cache = Arc::new(TranslationCache::new(CacheConfig::default(), &obs));
    let mk = |profile| {
        HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, profile)
            .obs(Arc::clone(&obs))
            .shared_cache(Arc::clone(&cache))
            .build()
    };
    let mut full = mk(hyperq_core::targets::simwh());
    let mut reduced = mk(hyperq_core::targets::simwh_reduced());

    // A statement whose spelling differs between the flavors.
    let sql = "SEL STORE FROM SALES WHERE STORE MOD 3 = 1";
    let full_cold = full.run_one(sql).unwrap().sql_sent;
    let reduced_cold = reduced.run_one(sql).unwrap().sql_sent;
    assert_eq!(counter(&obs, "hyperq_cache_hits_total"), 0);
    assert_eq!(cache.len(), 2, "one entry per target, never shared");
    assert!(full_cold[0].contains('%'), "{full_cold:?}");
    assert!(reduced_cold[0].contains("MOD("), "{reduced_cold:?}");

    // Warm replays stay within their target's key space.
    assert_eq!(full.run_one(sql).unwrap().sql_sent, full_cold);
    assert_eq!(reduced.run_one(sql).unwrap().sql_sent, reduced_cold);
    assert_eq!(counter(&obs, "hyperq_cache_hits_total"), 2);
    assert_eq!(cache.len(), 2);
}
