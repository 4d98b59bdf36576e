//! Reproduction of the paper's worked examples: the intermediate trees of
//! Figures 4–6 and the final SQL of Example 3, plus the Example 4
//! recursion trace of Figure 7.

use std::sync::Arc;

use hyperq::core::backend::Backend;
use hyperq::core::binder::Binder;
use hyperq::core::serialize::Serializer;
use hyperq::core::session::{SessionState, ShadowCatalog};
use hyperq::core::targets;
use hyperq::core::transform::{Phase, Transformer};
use hyperq::core::HyperQBuilder;
use hyperq::engine::EngineDb;
use hyperq::parser::{parse_one, Dialect};
use hyperq::xtra::display::render_rel;
use hyperq::xtra::feature::FeatureSet;
use hyperq::xtra::rel::Plan;

const EXAMPLE2: &str = "SEL * FROM SALES WHERE SALES_DATE > 1140101 \
     AND (AMOUNT, AMOUNT * 0.85) > ANY (SEL GROSS, NET FROM SALES_HISTORY) \
     QUALIFY RANK(AMOUNT DESC) <= 10";

fn backend() -> Arc<dyn Backend> {
    let db = EngineDb::new();
    db.execute_sql("CREATE TABLE SALES (AMOUNT INTEGER, SALES_DATE DATE)").unwrap();
    db.execute_sql("CREATE TABLE SALES_HISTORY (GROSS INTEGER, NET INTEGER)").unwrap();
    Arc::new(db)
}

/// Bind Example 2 and run the transformer up to the given phase.
fn example2_xtra(phases: &[Phase]) -> Plan {
    let backend = backend();
    let session = SessionState::new(1, "T");
    let catalog = ShadowCatalog::new(&*backend, &session);
    let mut binder = Binder::new(&catalog);
    let parsed = parse_one(EXAMPLE2, Dialect::Teradata).unwrap();
    let mut plan = binder.bind_statement(&parsed.stmt).unwrap();
    let transformer = Transformer::standard();
    let caps = targets::simwh().caps;
    let mut fired = FeatureSet::new();
    for phase in phases {
        plan = transformer.run(plan, *phase, &caps, &mut fired).unwrap();
    }
    plan
}

#[test]
fn figure5_xtra_after_binding() {
    // After binding + binding-phase transformations, the tree matches
    // Figure 5's structure: a window over a select whose predicate contains
    // the date expansion and the vector subq node.
    let plan = example2_xtra(&[Phase::Binding]);
    let rel = match &plan {
        Plan::Query(rel) => rel,
        other => panic!("{other:?}"),
    };
    let tree = render_rel(rel);
    // Figure 5 landmarks:
    assert!(tree.contains("window(RANK, DESC, SALES.AMOUNT)"), "{tree}");
    assert!(tree.contains("get (SALES)"), "{tree}");
    assert!(tree.contains("boolexpr(AND)"), "{tree}");
    assert!(tree.contains("extract(DAY, SALES.SALES_DATE)"), "{tree}");
    assert!(tree.contains("extract(MONTH, SALES.SALES_DATE)"), "{tree}");
    assert!(tree.contains("const(1900)"), "{tree}");
    assert!(tree.contains("const(10000)"), "{tree}");
    assert!(tree.contains("const(1140101)"), "{tree}");
    assert!(tree.contains("subq(ANY, GT,"), "{tree}");
    assert!(tree.contains("get (SALES_HISTORY)"), "{tree}");
    assert!(tree.contains("const(0.85)"), "{tree}");
    assert!(tree.contains("comp(LTE)"), "{tree}");
    assert!(tree.contains("const(10)"), "{tree}");
}

#[test]
fn figure6_final_xtra_after_serialization_phase() {
    // After the serialization-phase transformations, the vector comparison
    // is gone: Figure 6's existential correlated subquery with the
    // lexicographic OR/AND expansion.
    let plan = example2_xtra(&[Phase::Binding, Phase::Serialization]);
    let rel = match &plan {
        Plan::Query(rel) => rel,
        other => panic!("{other:?}"),
    };
    let tree = render_rel(rel);
    assert!(tree.contains("subq(EXISTS)"), "{tree}");
    assert!(!tree.contains("subq(ANY"), "vector comparison must be rewritten: {tree}");
    assert!(tree.contains("boolexpr(OR)"), "{tree}");
    assert!(tree.contains("comp(EQ)"), "{tree}");
    // The remapped const: SELECT 1 projection.
    assert!(tree.contains("const(1)"), "{tree}");
}

#[test]
fn example3_final_sql_shape() {
    let plan = example2_xtra(&[Phase::Binding, Phase::Serialization]);
    let sql = Serializer::for_profile(&targets::simwh()).serialize_plan(&plan).unwrap();
    let upper = sql.to_uppercase();
    // Example 3 landmarks.
    assert!(upper.contains("RANK() OVER (ORDER BY"), "{sql}");
    assert!(upper.contains("EXISTS"), "{sql}");
    assert!(upper.contains("SELECT 1"), "{sql}");
    assert!(upper.contains("EXTRACT(DAY FROM"), "{sql}");
    assert!(upper.contains("EXTRACT(MONTH FROM"), "{sql}");
    assert!(upper.contains("EXTRACT(YEAR FROM"), "{sql}");
    assert!(upper.contains("1140101"), "{sql}");
    assert!(upper.contains("0.85"), "{sql}");
    // And none of the Teradata-isms survive.
    assert!(!upper.contains("QUALIFY"), "{sql}");
    assert!(!upper.contains(" ANY"), "{sql}");
    assert!(!upper.contains("SEL *"), "{sql}");
}

#[test]
fn example3_sql_executes_on_target_with_paper_semantics() {
    // Populate SALES/SALES_HISTORY such that the paper's predicate
    // semantics are observable: ties on GROSS broken by NET.
    let db = EngineDb::new();
    db.execute_sql("CREATE TABLE SALES (AMOUNT INTEGER, SALES_DATE DATE)").unwrap();
    db.execute_sql("CREATE TABLE SALES_HISTORY (GROSS INTEGER, NET INTEGER)").unwrap();
    db.execute_sql(
        "INSERT INTO SALES VALUES \
         (100, DATE '2014-06-01'), \
         (200, DATE '2014-06-01'), \
         (200, DATE '2013-06-01'), \
         (50,  DATE '2014-06-01')",
    )
    .unwrap();
    // History: (200, 100): amount=200 ties on gross, 200*0.85=170 > 100 → keep.
    db.execute_sql("INSERT INTO SALES_HISTORY VALUES (200, 100), (150, 149)").unwrap();
    let backend: Arc<dyn Backend> = Arc::new(db);
    let mut hq = HyperQBuilder::for_target(Arc::clone(&backend), targets::simwh()).build();
    let outcome = hq.run_one(EXAMPLE2).unwrap();
    // Expected: rows after 2014-01-01 with (amount, amount*.85) > ANY
    // {(200,100),(150,149)}:
    //   100: 100>200? no; 100>150? no; ties? no → out.
    //   200 (2014): 200>150 → in. (also tie on 200 with net 170>100.)
    //   200 (2013): date filter excludes.
    //   50: out.
    let amounts: Vec<i64> = outcome
        .result
        .rows
        .iter()
        .map(|r| r[0].to_i64().unwrap())
        .collect();
    assert_eq!(amounts, vec![200]);
}

#[test]
fn example1_runs_end_to_end() {
    let db = EngineDb::new();
    db.execute_sql(
        "CREATE TABLE PRODUCT (PRODUCT_NAME VARCHAR(30), SALES INTEGER, STORE INTEGER)",
    )
    .unwrap();
    db.execute_sql(
        "INSERT INTO PRODUCT VALUES ('widget', 5, 1), ('gadget', 7, 1), ('gizmo', 20, 2)",
    )
    .unwrap();
    let backend: Arc<dyn Backend> = Arc::new(db);
    let mut hq = HyperQBuilder::for_target(backend, targets::simwh()).build();
    let outcome = hq
        .run_one(
            "SEL PRODUCT_NAME, SALES AS SALES_BASE, SALES_BASE + 100 AS SALES_OFFSET \
             FROM PRODUCT \
             QUALIFY 10 < SUM(SALES) OVER (PARTITION BY STORE) \
             ORDER BY STORE, PRODUCT_NAME \
             WHERE CHARS(PRODUCT_NAME) > 4",
        )
        .unwrap();
    // Store sums: store1 = 12 (>10), store2 = 20 (>10); CHARS > 4 keeps
    // widget(6)/gadget(6)/gizmo(5). Order: store, then name.
    let names: Vec<String> = outcome
        .result
        .rows
        .iter()
        .map(|r| r[0].to_sql_string())
        .collect();
    assert_eq!(names, vec!["gadget", "widget", "gizmo"]);
    let offsets: Vec<i64> = outcome
        .result
        .rows
        .iter()
        .map(|r| r[2].to_i64().unwrap())
        .collect();
    assert_eq!(offsets, vec![107, 105, 120]);
}

#[test]
fn figure7_recursion_trace() {
    // Example 4 / Figure 7: the request sequence against the target must
    // follow the WorkTable/TempTable protocol.
    let db = EngineDb::new();
    db.execute_sql("CREATE TABLE EMP (EMPNO INTEGER, MGRNO INTEGER)").unwrap();
    db.execute_sql("INSERT INTO EMP VALUES (1,7),(7,8),(8,10),(9,10),(10,11)").unwrap();
    let backend: Arc<dyn Backend> = Arc::new(db);
    let mut hq = HyperQBuilder::for_target(backend, targets::simwh()).build();
    let outcome = hq
        .run_one(
            "WITH RECURSIVE REPORTS (EMPNO, MGRNO) AS ( \
               SELECT EMPNO, MGRNO FROM EMP WHERE MGRNO = 10 \
               UNION ALL \
               SELECT EMP.EMPNO, EMP.MGRNO FROM EMP, REPORTS \
               WHERE REPORTS.EMPNO = EMP.MGRNO ) \
             SELECT EMPNO FROM REPORTS ORDER BY EMPNO",
        )
        .unwrap();
    let sql = &outcome.sql_sent;
    // Step 1: initialize WorkTable and TempTable with the seed.
    assert!(sql[0].contains("CREATE TEMPORARY TABLE WT_"), "{}", sql[0]);
    assert!(sql[1].contains("CREATE TEMPORARY TABLE TT_"), "{}", sql[1]);
    // Steps 2–3: two productive recursive iterations (e7 then e1), each
    // appending into the WorkTable; step 4: an empty iteration ends it.
    let inserts = sql.iter().filter(|s| s.starts_with("INSERT INTO WT_")).count();
    assert_eq!(inserts, 2, "{sql:#?}");
    // Step 5: the main query reads the WorkTable.
    assert!(
        sql.iter().any(|s| s.starts_with("SELECT") && s.contains("WT_")),
        "{sql:#?}"
    );
    // Step 6: both temporary tables dropped.
    let drops = sql.iter().filter(|s| s.starts_with("DROP TABLE")).count();
    assert!(drops >= 3, "{sql:#?}"); // intermediate TTs + final WT/TT
    // The paper's hand-traced result.
    let ids: Vec<i64> = outcome
        .result
        .rows
        .iter()
        .map(|r| r[0].to_i64().unwrap())
        .collect();
    assert_eq!(ids, vec![1, 7, 8, 9]);
}

#[test]
fn figure4_parse_features_match_example2() {
    let parsed = parse_one(EXAMPLE2, Dialect::Teradata).unwrap();
    use hyperq::xtra::Feature::*;
    for f in [KeywordShortcut, Qualify, VectorSubquery, NonAnsiWindowSyntax] {
        assert!(parsed.features.contains(f), "missing {f:?}");
    }
}
