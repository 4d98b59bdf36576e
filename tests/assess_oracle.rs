//! The differential oracle for static workload assessment. The assessor
//! runs the real crosscompiler against a data-less, catalog-only target;
//! this suite checks that such a target routes exactly like the loaded
//! engine, statement by statement, over TPC-H, both customer corpora and
//! an edge corpus of catalog collisions and recursion.
//!
//! Agreement means:
//! * `Unsupported` ⇔ the pipeline rejects the statement,
//! * `Translatable` ⇔ the pipeline succeeds without a single mid-tier
//!   emulation request,
//! * `NeedsEmulation { kinds }` ⇔ the pipeline succeeds and the set of
//!   `hyperq_emulation_requests_total` counters that advanced is exactly
//!   `kinds`.
//!
//! The emulation counters are snapshotted around each statement on an
//! isolated observability context, so the comparison is per-statement
//! and exact — not a corpus-level aggregate that could hide compensating
//! errors.

use std::collections::HashSet;
use std::sync::Arc;

use hyperq::assess::{Assessor, Verdict};
use hyperq::core::targets::TargetProfile;
use hyperq::core::capability::TargetCapabilities;
use hyperq::core::{Backend, EmulationKind, HyperQBuilder, HyperQ, ObsContext};
use hyperq::engine::EngineDb;
use hyperq::workload::customer::{health, telco, CustomerWorkload};
use hyperq::workload::tpch;
use hyperq::xtra::feature::Feature;

fn snapshot(obs: &ObsContext) -> Vec<u64> {
    EmulationKind::ALL
        .iter()
        .map(|k| obs.metrics.counter_value("hyperq_emulation_requests_total", &[("kind", k.as_str())]))
        .collect()
}

/// Run one corpus entry through both sides and assert agreement.
/// Returns the number of statements the entry contained.
fn check_entry(hq: &mut HyperQ, a: &mut Assessor, obs: &ObsContext, text: &str) -> usize {
    let before = snapshot(obs);
    let run = hq.run_script(text);
    let after = snapshot(obs);
    let observed: HashSet<EmulationKind> = EmulationKind::ALL
        .iter()
        .zip(before.iter().zip(after.iter()))
        .filter(|(_, (b, a))| a > b)
        .map(|(k, _)| *k)
        .collect();

    let assessments = a.assess_script(text);
    assert!(!assessments.is_empty(), "assessor produced nothing for: {text}");
    let unsupported: Vec<String> = assessments
        .iter()
        .filter_map(|sa| match &sa.verdict {
            Verdict::Unsupported { reason, .. } => Some(reason.clone()),
            _ => None,
        })
        .collect();
    let predicted: HashSet<EmulationKind> = assessments
        .iter()
        .flat_map(|sa| match &sa.verdict {
            Verdict::NeedsEmulation { kinds, .. } => kinds.clone(),
            _ => Vec::new(),
        })
        .collect();

    match run {
        Ok(_) => {
            assert!(
                unsupported.is_empty(),
                "pipeline succeeded but assessor said unsupported ({unsupported:?}) for: {text}"
            );
            assert_eq!(
                predicted, observed,
                "predicted vs observed emulation kinds disagree for: {text}"
            );
        }
        Err(e) => {
            assert!(
                !unsupported.is_empty(),
                "pipeline failed ({e}) but assessor said supported for: {text}"
            );
        }
    }
    assessments.len()
}

fn oracle_over(ddl: &[String], entries: impl Iterator<Item = String>) -> usize {
    oracle_over_target(hyperq::core::targets::simwh(), ddl, entries)
}

fn oracle_over_target(
    profile: TargetProfile,
    ddl: &[String],
    entries: impl Iterator<Item = String>,
) -> usize {
    let db = Arc::new(EngineDb::new());
    let obs = ObsContext::new();
    for d in ddl {
        db.execute_sql(d).unwrap();
    }
    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, profile.clone())
        .obs(Arc::clone(&obs))
        .no_cache()
        .build();
    let mut assessor = Assessor::for_target(profile);
    for d in ddl {
        assessor.ingest_ddl(d);
    }
    let mut statements = 0;
    for text in entries {
        statements += check_entry(&mut hq, &mut assessor, &obs, &text);
    }
    assert!(
        assessor.inferred_tables().is_empty(),
        "full-DDL corpora must not need catalog inference: {:?}",
        assessor.inferred_tables()
    );
    statements
}

fn customer_entries(w: &CustomerWorkload) -> impl Iterator<Item = String> + '_ {
    w.hyperq_setup.iter().chain(w.distinct.iter()).cloned()
}

#[test]
fn tpch_verdicts_agree_with_pipeline() {
    let n = oracle_over(
        &tpch::ddl(),
        tpch::queries().into_iter().map(|(_, q)| q.to_string()),
    );
    assert_eq!(n, 22);
}

#[test]
fn health_verdicts_agree_with_pipeline() {
    let w = health(0.05);
    let n = oracle_over(&w.target_ddl, customer_entries(&w));
    assert_eq!(n, w.hyperq_setup.len() + w.distinct.len());
}

#[test]
fn telco_verdicts_agree_with_pipeline() {
    let w = telco(0.02);
    let n = oracle_over(&w.target_ddl, customer_entries(&w));
    assert_eq!(n, w.hyperq_setup.len() + w.distinct.len());
}

/// The second executable registry profile: the assessor must predict the
/// `simwh-reduced` pipeline exactly — including `LimitFetch` for the
/// corpus's `SEL TOP n` queries, an emulation the default target never
/// needs (the per-statement kind-set equality in `check_entry` is exact,
/// so a missed or spurious LimitFetch prediction fails here).
#[test]
fn tpch_verdicts_agree_on_simwh_reduced() {
    let n = oracle_over_target(
        hyperq::core::targets::simwh_reduced(),
        &tpch::ddl(),
        tpch::queries().into_iter().map(|(_, q)| q.to_string()),
    );
    assert_eq!(n, 22);
}

#[test]
fn customer_verdicts_agree_on_simwh_reduced() {
    for w in [health(0.05), telco(0.02)] {
        let n = oracle_over_target(
            hyperq::core::targets::simwh_reduced(),
            &w.target_ddl,
            customer_entries(&w),
        );
        assert_eq!(n, w.hyperq_setup.len() + w.distinct.len());
    }
}

/// The assessor against a deliberately-reduced capability profile: a
/// target without RETURNING or GROUPING SETS still executes the corpora
/// (neither corpus uses those constructs), and verdicts still agree.
#[test]
fn telco_verdicts_agree_on_reduced_profile() {
    let cloud_d = hyperq::core::targets::lookup("cloud-d").unwrap();
    let mut profile = TargetProfile {
        name: "cloud-d-reduced".into(),
        caps: TargetCapabilities { returning_clause: false, ..cloud_d.caps },
        ..cloud_d
    };
    profile.caps.supported.remove(Feature::GroupingExtensions);
    let w = telco(0.02);
    oracle_over_target(profile, &w.target_ddl, customer_entries(&w));
}

/// Statements whose outcome depends on the target catalog's state or on
/// what the target does with emulation temp tables: a duplicate `CREATE
/// TABLE`, the same collision from inside a macro body, a `DROP` of a
/// missing table, and a recursive CTE whose seed and step compute its
/// level column. Every one must get the verdict the loaded engine gives.
fn edge_entries() -> impl Iterator<Item = String> {
    [
        "CREATE TABLE T (A INTEGER)",
        "CREATE TABLE T (A INTEGER)",
        "CREATE MACRO MK AS (CREATE TABLE K (A INTEGER);)",
        "EXEC MK",
        "EXEC MK",
        "DROP TABLE NOPE",
        "INSERT INTO EMP VALUES (1, NULL)",
        "INSERT INTO EMP VALUES (2, 1)",
        "WITH RECURSIVE R (ID, LVL) AS ( \
           SELECT ID, 0 FROM EMP WHERE MGR IS NULL \
           UNION ALL \
           SELECT E.ID, R.LVL + 1 FROM EMP E, R WHERE E.MGR = R.ID ) \
         SELECT ID, LVL FROM R ORDER BY ID",
    ]
    .into_iter()
    .map(str::to_string)
}

#[test]
fn edge_verdicts_agree_on_executable_targets() {
    let ddl = ["CREATE TABLE EMP (ID INTEGER, MGR INTEGER)".to_string()];
    for profile in [hyperq::core::targets::simwh(), hyperq::core::targets::simwh_reduced()] {
        let n = oracle_over_target(profile, &ddl, edge_entries());
        assert_eq!(n, edge_entries().count());
    }
}
