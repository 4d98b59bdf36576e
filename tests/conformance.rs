//! Capability-conformance linting end to end: Strict mode is clean over
//! every corpus on a self-consistent target, a deliberately-reduced
//! capability signature is flagged with correctly-attributed rules, and
//! lint spans always point at real byte ranges of the linted SQL.
//!
//! Plus the property half of the assessment work: randomized
//! corpus-shaped statements keep the assessor's verdicts in agreement
//! with live pipeline outcomes.

use std::collections::HashSet;
use std::sync::Arc;

use hyperq::assess::{Assessor, Verdict};
use hyperq::core::capability::TargetCapabilities;
use hyperq::core::targets;
use hyperq::core::conformance::{lint_serialized, Conformance, ConformanceMode, Severity};
use hyperq::core::{Backend, EmulationKind, HyperQBuilder, ObsContext};
use hyperq::xtra::feature::Feature;
use hyperq::engine::EngineDb;
use hyperq::workload::customer::{health, telco};
use hyperq::workload::tpch;
use proptest::prelude::*;

/// Every statement of every corpus must pass Strict conformance on every
/// **executable** target profile: the serializer never emits a construct
/// the profile's own capability signature says the target lacks — on the
/// default `simwh` and on the reduced dialect alike (where e.g. the
/// `DATEADD` spelling and the peeled row bounds must still lint clean).
#[test]
fn corpora_are_conformance_clean_under_strict() {
    for profile in targets::executable() {
        let target = profile.name.clone();

        // TPC-H.
        let db = Arc::new(EngineDb::new());
        for ddl in tpch::ddl() {
            db.execute_sql(&ddl).unwrap();
        }
        let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, profile.clone())
            .conformance(ConformanceMode::Strict)
            .build();
        for (n, q) in tpch::queries() {
            hq.run_script(q)
                .unwrap_or_else(|e| panic!("[{target}] TPC-H Q{n} under Strict conformance: {e}"));
        }

        // Customer corpora.
        for w in [health(0.05), telco(0.02)] {
            let db = Arc::new(EngineDb::new());
            for ddl in &w.target_ddl {
                db.execute_sql(ddl).unwrap();
            }
            let mut hq =
                HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, profile.clone())
                    .conformance(ConformanceMode::Strict)
                    .build();
            for text in w.hyperq_setup.iter().chain(w.distinct.iter()) {
                hq.run_script(text)
                    .unwrap_or_else(|e| panic!("[{target}] under Strict conformance: {text}: {e}"));
            }
        }
    }
}

/// The acceptance scenario: SQL serialized for a full-capability target,
/// re-linted against a no-RETURNING / no-GROUPING-SETS signature, is
/// flagged — and by exactly the right rules.
#[test]
fn reduced_signature_is_flagged_with_attributed_rules() {
    let cloud_d = targets::lookup("cloud-d").unwrap().caps;
    let mut reduced = TargetCapabilities { returning_clause: false, ..cloud_d.clone() };
    reduced.supported.remove(Feature::GroupingExtensions);

    let grouping = "SELECT REGION, SUM(AMOUNT) FROM SALES \
                    GROUP BY GROUPING SETS ((REGION), ())";
    let returning = "INSERT INTO SALES (REGION, AMOUNT) VALUES ('EU', 5) RETURNING AMOUNT";

    // Full cloud-d signature: both statements are conformant.
    assert!(lint_serialized(grouping, &cloud_d)
        .iter()
        .all(|f| f.severity != Severity::Error));

    let gf = lint_serialized(grouping, &reduced);
    let gf: Vec<_> = gf.iter().filter(|f| f.severity == Severity::Error).collect();
    assert_eq!(gf.len(), 1, "{gf:?}");
    assert_eq!(gf[0].rule, "grouping-sets");
    assert_eq!(&grouping[gf[0].span.0..gf[0].span.1], "GROUPING");

    let rf = lint_serialized(returning, &reduced);
    let rf: Vec<_> = rf.iter().filter(|f| f.severity == Severity::Error).collect();
    assert_eq!(rf.len(), 1, "{rf:?}");
    assert_eq!(rf[0].rule, "returning-clause");
    assert_eq!(&returning[rf[0].span.0..rf[0].span.1], "RETURNING");

    // The Strict driver turns the finding into a statement failure and
    // counts it, attributed to the rule.
    let obs = ObsContext::new();
    let strict = Conformance::new(ConformanceMode::Strict, &obs);
    let err = strict.check_serialized(grouping, &reduced, "cloud-d-reduced").unwrap_err();
    assert!(err.to_string().contains("conformance rule 'grouping-sets'"), "{err}");
    assert_eq!(
        obs.metrics.counter_value(
            "hyperq_conformance_violations_total",
            &[("rule", "grouping-sets"), ("target", "cloud-d-reduced")]
        ),
        1
    );
    assert_eq!(
        obs.metrics
            .counter_value("hyperq_conformance_checks_total", &[("stage", "serialized")]),
        1
    );
}

/// Every finding's span must slice the linted SQL to real, non-empty
/// text — checked over both the Teradata source texts of a corpus (which
/// are full of constructs the default target lacks) and every statement
/// the pipeline actually sends.
#[test]
fn lint_spans_are_real_source_ranges_over_corpus_sql() {
    let caps = targets::simwh().caps;
    let check = |sql: &str| -> usize {
        let findings = lint_serialized(sql, &caps);
        for f in &findings {
            assert!(
                f.span.0 < f.span.1 && f.span.1 <= sql.len(),
                "span {:?} out of range for {sql}",
                f.span
            );
            let slice = &sql[f.span.0..f.span.1];
            assert!(!slice.trim().is_empty(), "empty span slice in {sql}");
            assert!(f.line >= 1);
        }
        findings.len()
    };

    let w = telco(0.02);
    let db = Arc::new(EngineDb::new());
    for ddl in &w.target_ddl {
        db.execute_sql(ddl).unwrap();
    }
    let mut hq =
        HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, targets::simwh()).build();
    let mut findings = 0usize;
    for text in w.hyperq_setup.iter().chain(w.distinct.iter()) {
        findings += check(text);
        let response = hq.run_script(text).unwrap();
        for stmt in &response {
            for sql in &stmt.sql_sent {
                findings += check(sql);
            }
        }
    }
    assert!(findings > 0, "corpus source texts produced no findings to validate");
}

// ---------------------------------------------------------------------
// Property: generated statements — assessor verdict ⇔ pipeline outcome
// ---------------------------------------------------------------------

fn corpus_shaped_statement(case: u64) -> String {
    let i = case % 11;
    let k = (case / 11) % 97;
    match i {
        0 => format!("SEL STORE, AMOUNT FROM SALES WHERE AMOUNT > {k}"),
        1 => format!("SELECT STORE, SUM(AMOUNT) FROM SALES GROUP BY 1 HAVING SUM(AMOUNT) <> {k}"),
        2 => format!(
            "SELECT AMOUNT AS BASE, BASE * 2 AS DOUBLED FROM SALES WHERE STORE = {k}"
        ),
        3 => format!(
            "SELECT STORE FROM SALES QUALIFY RANK(AMOUNT DESC) <= {}",
            1 + k % 7
        ),
        4 => format!(
            "SELECT S.STORE FROM SALES S, STORES T WHERE S.STORE = T.STORE_ID AND T.REGION <> {k}"
        ),
        5 => format!("INSERT INTO SALES (STORE, AMOUNT) VALUES ({k}, {})", k * 3),
        6 => format!("UPDATE SALES SET AMOUNT = AMOUNT + {k} WHERE STORE = {}", k % 9),
        7 => format!("SELECT COUNT(*) FROM SALES WHERE AMOUNT MOD {} = 1", 2 + k % 5),
        8 => "HELP TABLE SALES".to_string(),
        9 => format!(
            "SELECT STORE FROM SALES WHERE (STORE, AMOUNT) > ANY \
             (SELECT STORE_ID, REGION FROM STORES WHERE STORE_ID < {k})"
        ),
        _ => format!("DELETE FROM SALES WHERE AMOUNT < {k}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_statement_verdicts_agree_with_pipeline(case in 0u64..100_000) {
        let text = corpus_shaped_statement(case);

        let db = Arc::new(EngineDb::new());
        db.execute_sql("CREATE TABLE SALES (STORE INTEGER, AMOUNT INTEGER)").unwrap();
        db.execute_sql("CREATE TABLE STORES (STORE_ID INTEGER, REGION INTEGER)").unwrap();
        let obs = ObsContext::new();
        let mut hq =
            HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, targets::simwh())
                .obs(Arc::clone(&obs))
                .no_cache()
                .build();
        let mut assessor = Assessor::for_target(targets::simwh());
        assessor.ingest_ddl("CREATE TABLE SALES (STORE INTEGER, AMOUNT INTEGER)");
        assessor.ingest_ddl("CREATE TABLE STORES (STORE_ID INTEGER, REGION INTEGER)");

        let run = hq.run_script(&text);
        let observed: HashSet<EmulationKind> = EmulationKind::ALL
            .iter()
            .filter(|kind| {
                obs.metrics.counter_value(
                    "hyperq_emulation_requests_total",
                    &[("kind", kind.as_str())],
                ) > 0
            })
            .copied()
            .collect();

        let assessments = assessor.assess_script(&text);
        prop_assert_eq!(assessments.len(), 1);
        match (&assessments[0].verdict, &run) {
            (Verdict::Unsupported { .. }, Err(_)) => {}
            (Verdict::Translatable, Ok(_)) => {
                prop_assert!(observed.is_empty(), "{}: observed {:?}", text, observed);
            }
            (Verdict::NeedsEmulation { kinds, .. }, Ok(_)) => {
                let predicted: HashSet<EmulationKind> = kinds.iter().copied().collect();
                prop_assert_eq!(predicted, observed, "{}", text);
            }
            (verdict, outcome) => {
                prop_assert!(
                    false,
                    "disagreement for {}: verdict {:?}, pipeline ok={}",
                    text,
                    verdict,
                    outcome.is_ok()
                );
            }
        }

        // Every advisory finding's span indexes real statement/SQL text.
        for f in &assessments[0].findings {
            prop_assert!(f.span.0 <= f.span.1);
        }
    }
}

// ---------------------------------------------------------------------
// Golden: every registered profile's transcribed capabilities and the
// lint verdicts they imply
// ---------------------------------------------------------------------

/// Statements that trigger each capability and spelling rule, plus one
/// clean ANSI query.
const LINT_TRIGGERS: &[&str] = &[
    "SELECT a, b FROM t INNER JOIN u ON t.id = u.id WHERE a > 3 GROUP BY a, b ORDER BY a LIMIT 10",
    "SEL a FROM t",
    "SELECT a FROM t WHERE a EQ 3",
    "SELECT a ** 2 FROM t",
    "SELECT CHARS(a) FROM t",
    "SELECT ZEROIFNULL(a) FROM t",
    "SELECT INDEX(a, 'x') FROM t",
    "SELECT SUBSTR(a, 1, 2) FROM t",
    "SELECT a FROM t QUALIFY rn = 1",
    "SELECT a FROM t, u WHERE t.id = u.id",
    "SELECT a FROM t GROUP BY 1",
    "SELECT a FROM t WHERE d > DATE '2020-01-01' AND DATE '2020-01-01' = 20200101",
    "SELECT a, b FROM t WHERE (a, b) > ANY (SELECT x, y FROM u)",
    "SELECT a FROM t GROUP BY GROUPING SETS ((a), ())",
    "SELECT a FROM t GROUP BY ROLLUP (a)",
    "SELECT RANK(a DESC) FROM t",
    "WITH RECURSIVE r AS (SELECT 1) SELECT * FROM r",
    "MERGE INTO t USING u ON t.id = u.id",
    "HELP TABLE t",
    "CREATE GLOBAL TEMPORARY TABLE g (a INT)",
    "CREATE SET TABLE t (a INT)",
    "CREATE TABLE t (a VARCHAR(3) CASESPECIFIC)",
    "SELECT TOP 3 a FROM t",
    "INSERT INTO t VALUES (1) RETURNING a",
    "BT",
    "EXPLAIN SELECT 1",
    "CREATE VIEW v AS SELECT 1",
    "EXEC report(3)",
    "CALL p(1)",
    "SELECT a % 2 FROM t",
    "SELECT ADD_MONTHS(d, 3) FROM t",
    "SELECT DATEADD(DAY, 3, d) FROM t",
    "SELECT a FROM t LIMIT 5",
    "SELECT TOP 5 a FROM t",
    ") AS d (x, y)",
];

fn target_profiles_report() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for p in targets::all() {
        let c = &p.caps;
        let supported: Vec<&str> =
            Feature::ALL.iter().filter(|f| c.supports(**f)).map(Feature::code).collect();
        let _ = writeln!(out, "{} ({}) executable={}", p.name, c.name, p.executable);
        let _ = writeln!(out, "  supports: {}", supported.join(" "));
        let _ = writeln!(out, "  limit: {:?}", c.limit_spelling());
        let _ = writeln!(
            out,
            "  derived_table_column_aliases={} top_clause={} with_ties={} limit_clause={} \
             returning_clause={} session_settings={}",
            c.derived_table_column_aliases,
            c.top_clause,
            c.with_ties,
            c.limit_clause,
            c.returning_clause,
            c.session_settings
        );
        let _ = writeln!(
            out,
            "  spelling: mod={:?} date_add={:?} add_months={:?}",
            c.mod_style, c.date_add_style, c.add_months_style
        );
        for sql in LINT_TRIGGERS {
            let _ = writeln!(out, "  {sql}");
            for f in lint_serialized(sql, c) {
                let _ = writeln!(out, "    {} {:?}: {}", f.rule, f.severity, f.message);
            }
        }
    }
    out
}

/// The eight registered profiles, byte for byte: supported feature codes,
/// limit spelling, output-only capabilities, spellings, and every rule
/// `lint_serialized` reports on each trigger statement.
#[test]
fn target_profiles_match_golden() {
    let fresh = target_profiles_report();
    let golden = include_str!("snapshots/target_profiles.txt");
    let first_diff = golden.lines().zip(fresh.lines()).position(|(g, f)| g != f);
    assert!(
        fresh == golden,
        "target_profiles.txt drifted (first differing line: {first_diff:?}); fresh report:\n{fresh}"
    );
}
