//! End-to-end integration: Teradata-dialect application SQL through the
//! full Hyper-Q pipeline (parse → bind → transform → serialize) executed on
//! the SimWH engine substrate.

use std::sync::Arc;

use hyperq::core::{HyperQ, HyperQBuilder};
use hyperq::engine::EngineDb;
use hyperq::xtra::datum::{Datum, Decimal};

fn setup() -> (HyperQ, Arc<EngineDb>) {
    let db = Arc::new(EngineDb::new());
    db.execute_sql(
        "CREATE TABLE SALES (STORE INTEGER, PRODUCT_NAME VARCHAR(40), AMOUNT INTEGER, \
         SALES_DATE DATE)",
    )
    .unwrap();
    db.execute_sql(
        "INSERT INTO SALES VALUES \
         (1, 'widget', 500, DATE '2014-03-01'), \
         (1, 'gadget', 300, DATE '2014-04-01'), \
         (2, 'widget', 500, DATE '2013-12-31'), \
         (2, 'doohickey', 100, DATE '2014-06-15'), \
         (3, 'gizmo', 700, DATE '2015-01-01')",
    )
    .unwrap();
    db.execute_sql("CREATE TABLE SALES_HISTORY (GROSS INTEGER, NET INTEGER)").unwrap();
    db.execute_sql("INSERT INTO SALES_HISTORY VALUES (400, 350), (500, 420)").unwrap();
    let hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn hyperq::core::Backend>, hyperq::core::targets::simwh()).build();
    (hq, db)
}

fn int_col(outcome: &hyperq::core::StatementOutcome, col: usize) -> Vec<i64> {
    outcome
        .result
        .rows
        .iter()
        .map(|r| r[col].to_i64().expect("integer column"))
        .collect()
}

#[test]
fn sel_shortcut_and_keyword_comparison() {
    let (mut hq, _db) = setup();
    let o = hq
        .run_one("SEL STORE FROM SALES WHERE AMOUNT GT 400 ORDER BY STORE")
        .unwrap();
    assert_eq!(int_col(&o, 0), vec![1, 2, 3]);
    assert!(o.features.contains(hyperq::xtra::Feature::KeywordShortcut));
    assert!(o.features.contains(hyperq::xtra::Feature::KeywordComparison));
}

#[test]
fn date_int_comparison_rewrites_and_runs() {
    let (mut hq, _db) = setup();
    // 1140101 is Teradata's integer encoding of 2014-01-01.
    let o = hq
        .run_one("SEL STORE FROM SALES WHERE SALES_DATE > 1140101 ORDER BY STORE, AMOUNT")
        .unwrap();
    assert_eq!(int_col(&o, 0), vec![1, 1, 2, 3]);
    assert!(o.features.contains(hyperq::xtra::Feature::DateIntComparison));
    // The SQL sent to the target must not contain the raw encoded literal
    // compared against a date; it carries the EXTRACT expansion.
    assert!(o.sql_sent[0].contains("EXTRACT"), "{}", o.sql_sent[0]);
}

#[test]
fn qualify_lowering_runs_on_target_without_qualify() {
    let (mut hq, _db) = setup();
    let o = hq
        .run_one(
            "SEL STORE, AMOUNT FROM SALES QUALIFY RANK() OVER (ORDER BY AMOUNT DESC) <= 2 \
             ORDER BY AMOUNT DESC",
        )
        .unwrap();
    assert_eq!(int_col(&o, 1), vec![700, 500, 500]); // rank ties preserved
    assert!(o.features.contains(hyperq::xtra::Feature::Qualify));
    assert!(!o.sql_sent[0].to_uppercase().contains("QUALIFY"));
}

#[test]
fn td_rank_shorthand_in_qualify() {
    let (mut hq, _db) = setup();
    let o = hq
        .run_one("SEL STORE, AMOUNT FROM SALES QUALIFY RANK(AMOUNT DESC) <= 2 ORDER BY AMOUNT DESC")
        .unwrap();
    assert_eq!(int_col(&o, 1), vec![700, 500, 500]);
    assert!(o.features.contains(hyperq::xtra::Feature::NonAnsiWindowSyntax));
}

#[test]
fn paper_example_2_end_to_end() {
    let (mut hq, _db) = setup();
    let o = hq
        .run_one(
            "SEL * FROM SALES \
             WHERE SALES_DATE > 1140101 \
             AND (AMOUNT, AMOUNT * 0.85) > ANY (SEL GROSS, NET FROM SALES_HISTORY) \
             QUALIFY RANK(AMOUNT DESC) <= 10",
        )
        .unwrap();
    // Rows after 2014-01-01: (1,widget,500), (1,gadget,300), (2,doohickey,100), (3,gizmo,700).
    // Vector comparison against {(400,350), (500,420)}:
    //   500 > 400 → widget qualifies; 700 > 400 → gizmo qualifies;
    //   300 and 100 exceed no gross. RANK keeps all (≤10).
    let mut amounts = int_col(&o, 2);
    amounts.sort();
    assert_eq!(amounts, vec![500, 700]);
    for f in [
        hyperq::xtra::Feature::KeywordShortcut,
        hyperq::xtra::Feature::DateIntComparison,
        hyperq::xtra::Feature::VectorSubquery,
        hyperq::xtra::Feature::Qualify,
        hyperq::xtra::Feature::NonAnsiWindowSyntax,
    ] {
        assert!(o.features.contains(f), "missing {f:?}");
    }
    // Final SQL shape matches the paper's Example 3: EXISTS + SELECT 1 +
    // RANK window, no vector comparison.
    let sql = &o.sql_sent[0];
    assert!(sql.contains("EXISTS"), "{sql}");
    assert!(sql.contains("SELECT 1"), "{sql}");
    assert!(sql.to_uppercase().contains("RANK() OVER"), "{sql}");
    assert!(!sql.contains("ANY"), "{sql}");
}

#[test]
fn paper_example_1_end_to_end() {
    let (mut hq, _db) = setup();
    // Example 1: SEL, named expressions, QUALIFY with windowed SUM, clause
    // reordering, CHARS.
    let o = hq
        .run_one(
            "SEL PRODUCT_NAME, AMOUNT AS SALES_BASE, SALES_BASE + 100 AS SALES_OFFSET \
             FROM SALES \
             QUALIFY 400 < SUM(AMOUNT) OVER (PARTITION BY STORE) \
             ORDER BY STORE, PRODUCT_NAME \
             WHERE CHARS(PRODUCT_NAME) > 4",
        )
        .unwrap();
    // Store sums: s1=800, s2=600, s3=700 → all stores pass QUALIFY.
    // CHARS > 4: widget(6), gadget(6), doohickey(9), gizmo(5) — all rows.
    assert_eq!(o.result.rows.len(), 5);
    // Named expression: SALES_OFFSET = AMOUNT + 100.
    for row in &o.result.rows {
        let base = row[1].to_i64().unwrap();
        let offset = row[2].to_i64().unwrap();
        assert_eq!(offset, base + 100);
    }
    assert!(o.features.contains(hyperq::xtra::Feature::NamedExprReference));
    assert!(o.features.contains(hyperq::xtra::Feature::CharsFunction));
}

#[test]
fn implicit_join_expansion() {
    let (mut hq, _db) = setup();
    // SALES_HISTORY never appears in FROM (tracked feature X2).
    let o = hq
        .run_one(
            "SEL STORE FROM SALES WHERE SALES.AMOUNT = SALES_HISTORY.GROSS ORDER BY STORE",
        )
        .unwrap();
    assert_eq!(int_col(&o, 0), vec![1, 2]); // amount 500 matches gross 500, two sales rows
    assert!(o.features.contains(hyperq::xtra::Feature::ImplicitJoin));
    assert!(o.sql_sent[0].contains("SALES_HISTORY"), "{}", o.sql_sent[0]);
}

#[test]
fn ordinal_group_by_resolution() {
    let (mut hq, _db) = setup();
    let o = hq
        .run_one("SEL STORE, SUM(AMOUNT) FROM SALES GROUP BY 1 ORDER BY 2 DESC")
        .unwrap();
    assert_eq!(int_col(&o, 0), vec![1, 3, 2]);
    assert!(o.features.contains(hyperq::xtra::Feature::OrdinalGroupBy));
    // No ordinals survive in the serialized SQL's GROUP BY.
    assert!(!o.sql_sent[0].contains("GROUP BY 1"), "{}", o.sql_sent[0]);
}

#[test]
fn grouping_sets_expand_to_union_all() {
    let (mut hq, _db) = setup();
    let o = hq
        .run_one("SEL STORE, SUM(AMOUNT) AS TOTAL FROM SALES GROUP BY ROLLUP(STORE)")
        .unwrap();
    // 3 store rows + 1 grand-total row.
    assert_eq!(o.result.rows.len(), 4);
    let grand = o
        .result
        .rows
        .iter()
        .find(|r| r[0].is_null())
        .expect("grand total row");
    assert_eq!(grand[1].to_i64(), Some(2100));
    assert!(o.features.contains(hyperq::xtra::Feature::GroupingExtensions));
    assert!(o.sql_sent[0].contains("UNION ALL"), "{}", o.sql_sent[0]);
}

#[test]
fn date_arithmetic_native_on_simwh() {
    let (mut hq, _db) = setup();
    // SimWH has native date arithmetic, so the DATEADD rewrite must NOT
    // fire; the expression passes through as `date + n`.
    let o = hq
        .run_one("SEL SALES_DATE + 30 FROM SALES WHERE STORE = 3")
        .unwrap();
    assert_eq!(o.result.rows[0][0].to_sql_string(), "2015-01-31");
}

#[test]
fn top_with_ties_lowered() {
    let (mut hq, _db) = setup();
    let o = hq
        .run_one("SEL TOP 1 WITH TIES STORE, AMOUNT FROM SALES ORDER BY AMOUNT DESC")
        .unwrap();
    assert_eq!(o.result.rows.len(), 1); // 700 is unique
    let o2 = hq
        .run_one("SEL TOP 2 WITH TIES STORE, AMOUNT FROM SALES ORDER BY AMOUNT DESC")
        .unwrap();
    // Second place is a 500/500 tie → 3 rows.
    assert_eq!(o2.result.rows.len(), 3);
}

#[test]
fn translation_functions_run() {
    let (mut hq, _db) = setup();
    let o = hq
        .run_one(
            "SEL ZEROIFNULL(AMOUNT), NULLIFZERO(AMOUNT - AMOUNT), INDEX(PRODUCT_NAME, 'dg'), \
             SUBSTR(PRODUCT_NAME, 1, 3), AMOUNT MOD 3, 2 ** 10 \
             FROM SALES WHERE PRODUCT_NAME = 'gadget'",
        )
        .unwrap();
    let row = &o.result.rows[0];
    assert_eq!(row[0], Datum::Int(300));
    assert_eq!(row[1], Datum::Null);
    assert_eq!(row[2], Datum::Int(3));
    assert_eq!(row[3], Datum::str("gad"));
    assert_eq!(row[4], Datum::Int(0));
    assert_eq!(row[5].to_f64(), Some(1024.0));
    for f in [
        hyperq::xtra::Feature::ZeroIfNull,
        hyperq::xtra::Feature::IndexFunction,
        hyperq::xtra::Feature::SubstrFunction,
        hyperq::xtra::Feature::ModOperator,
        hyperq::xtra::Feature::ExponentOperator,
    ] {
        assert!(o.features.contains(f), "missing {f:?}");
    }
}

#[test]
fn merge_emulation_updates_and_inserts() {
    let (mut hq, db) = setup();
    db.execute_sql("CREATE TABLE TARGET (ID INTEGER, V INTEGER)").unwrap();
    db.execute_sql("INSERT INTO TARGET VALUES (1, 10), (2, 20)").unwrap();
    db.execute_sql("CREATE TABLE SRC (ID INTEGER, V INTEGER)").unwrap();
    db.execute_sql("INSERT INTO SRC VALUES (2, 99), (3, 30)").unwrap();
    let o = hq
        .run_one(
            "MERGE INTO TARGET T USING SRC S ON T.ID = S.ID \
             WHEN MATCHED THEN UPDATE SET V = S.V \
             WHEN NOT MATCHED THEN INSERT (ID, V) VALUES (S.ID, S.V)",
        )
        .unwrap();
    assert!(o.features.contains(hyperq::xtra::Feature::MergeStatement));
    assert!(o.sql_sent.len() >= 2, "MERGE must become multiple requests");
    let r = db
        .execute_sql("SELECT ID, V FROM TARGET ORDER BY ID")
        .unwrap();
    let pairs: Vec<(i64, i64)> = r
        .rows
        .iter()
        .map(|r| (r[0].to_i64().unwrap(), r[1].to_i64().unwrap()))
        .collect();
    assert_eq!(pairs, vec![(1, 10), (2, 99), (3, 30)]);
}

#[test]
fn recursive_query_emulation_matches_paper_example() {
    let (mut hq, db) = setup();
    // The paper's Figure 7 data: {(e1,e7),(e7,e8),(e8,e10),(e9,e10),(e10,e11)}.
    db.execute_sql("CREATE TABLE EMP (EMPNO INTEGER, MGRNO INTEGER)").unwrap();
    db.execute_sql("INSERT INTO EMP VALUES (1,7),(7,8),(8,10),(9,10),(10,11)").unwrap();
    let o = hq
        .run_one(
            "WITH RECURSIVE REPORTS (EMPNO, MGRNO) AS ( \
               SELECT EMPNO, MGRNO FROM EMP WHERE MGRNO = 10 \
               UNION ALL \
               SELECT EMP.EMPNO, EMP.MGRNO FROM EMP, REPORTS \
               WHERE REPORTS.EMPNO = EMP.MGRNO ) \
             SELECT EMPNO FROM REPORTS ORDER BY EMPNO",
        )
        .unwrap();
    // All employees reporting directly or indirectly to e10: e8, e9 (seed),
    // then e7 (reports to e8), then e1 (reports to e7).
    assert_eq!(int_col(&o, 0), vec![1, 7, 8, 9]);
    assert!(o.features.contains(hyperq::xtra::Feature::RecursiveQuery));
    // The emulation drives multiple requests: 2 seeds + ≥2 recursive steps
    // + main query + drops.
    assert!(o.sql_sent.len() >= 6, "{:?}", o.sql_sent);
    // No temp tables left behind.
    assert!(db.table_names().iter().all(|t| !t.starts_with("WT_") && !t.starts_with("TT_")));
}

/// A recursive CTE whose seed computes a column (`0`, unnamed) and whose
/// step computes it again (`R.LVL + 1`, unaliased): the WorkTable and
/// every step table must carry the CTE's declared column names, or the
/// first step cannot resolve `R.LVL`. Also the renaming-list shape
/// `R (X, Y)` over a seed whose columns are named differently.
#[test]
fn recursive_query_with_computed_and_renamed_columns() {
    for profile in hyperq::core::targets::executable() {
        let db = Arc::new(EngineDb::new());
        db.execute_sql("CREATE TABLE EMP (ID INTEGER, MGR INTEGER)").unwrap();
        db.execute_sql("INSERT INTO EMP VALUES (1, NULL), (2, 1)").unwrap();
        let name = profile.name.clone();
        let mut hq = HyperQBuilder::for_target(
            Arc::clone(&db) as Arc<dyn hyperq::core::Backend>,
            profile,
        )
        .build();
        for sql in [
            "WITH RECURSIVE R (ID, LVL) AS ( \
               SELECT ID, 0 FROM EMP WHERE MGR IS NULL \
               UNION ALL \
               SELECT E.ID, R.LVL + 1 FROM EMP E, R WHERE E.MGR = R.ID ) \
             SELECT ID, LVL FROM R ORDER BY ID",
            "WITH RECURSIVE R (ID, LVL) AS ( \
               SELECT ID, 0 AS LVL FROM EMP WHERE MGR IS NULL \
               UNION ALL \
               SELECT E.ID, R.LVL + 1 FROM EMP E, R WHERE E.MGR = R.ID ) \
             SELECT ID, LVL FROM R ORDER BY ID",
            "WITH RECURSIVE R (X, Y) AS ( \
               SELECT ID, 0 AS LVL FROM EMP WHERE MGR IS NULL \
               UNION ALL \
               SELECT E.ID, R.Y + 1 AS LVL FROM EMP E, R WHERE E.MGR = R.X ) \
             SELECT X, Y FROM R ORDER BY X",
        ] {
            let o = hq.run_one(sql).unwrap_or_else(|e| panic!("{name}: {e}\n{sql}"));
            let rows: Vec<Vec<i64>> = o
                .result
                .rows
                .iter()
                .map(|r| r.iter().map(|d| d.to_i64().expect("integer")).collect())
                .collect();
            assert_eq!(rows, vec![vec![1, 0], vec![2, 1]], "{name}: {sql}");
        }
        assert!(
            db.table_names().iter().all(|t| !t.starts_with("WT_") && !t.starts_with("TT_")),
            "{name}: {:?}",
            db.table_names()
        );
    }
}

#[test]
fn macro_emulation_with_parameters() {
    let (mut hq, _db) = setup();
    hq.run_one(
        "CREATE MACRO STORE_REPORT (S INTEGER, MIN_AMT INTEGER DEFAULT 0) AS ( \
           SEL PRODUCT_NAME, AMOUNT FROM SALES WHERE STORE = :S AND AMOUNT >= :MIN_AMT \
           ORDER BY AMOUNT DESC; )",
    )
    .unwrap();
    let o = hq.run_one("EXEC STORE_REPORT(1)").unwrap();
    assert_eq!(o.result.rows.len(), 2);
    assert!(o.features.contains(hyperq::xtra::Feature::MacroStatement));
    let o2 = hq.run_one("EXEC STORE_REPORT(1, MIN_AMT = 400)").unwrap();
    assert_eq!(o2.result.rows.len(), 1);
    assert_eq!(o2.result.rows[0][1], Datum::Int(500));
}

#[test]
fn procedure_call_emulation() {
    let (mut hq, db) = setup();
    db.execute_sql("CREATE TABLE AUDIT (N INTEGER)").unwrap();
    hq.run_one(
        "CREATE PROCEDURE BUMP (K INTEGER) BEGIN \
           INSERT INTO AUDIT VALUES (:K); \
           UPDATE AUDIT SET N = N + 1 WHERE N = :K; \
         END",
    )
    .unwrap();
    let o = hq.run_one("CALL BUMP(5)").unwrap();
    assert!(o.features.contains(hyperq::xtra::Feature::StoredProcedureCall));
    let r = db.execute_sql("SELECT N FROM AUDIT").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(6));
}

#[test]
fn help_session_answered_mid_tier() {
    let (mut hq, _db) = setup();
    let o = hq.run_one("HELP SESSION").unwrap();
    assert!(o.sql_sent.is_empty(), "HELP must not reach the target");
    assert!(o.result.rows.iter().any(|r| r[0] == Datum::str("DATEFORM")));
    assert!(o.features.contains(hyperq::xtra::Feature::HelpCommand));
}

#[test]
fn help_table_lists_columns() {
    let (mut hq, _db) = setup();
    let o = hq.run_one("HELP TABLE SALES").unwrap();
    assert_eq!(o.result.rows.len(), 4);
    assert!(o.result.rows.iter().any(|r| r[0] == Datum::str("AMOUNT")));
}

#[test]
fn view_dml_rewrites_to_base_table() {
    let (mut hq, db) = setup();
    hq.run_one("CREATE VIEW BIG_SALES AS SEL STORE, PRODUCT_NAME, AMOUNT FROM SALES WHERE AMOUNT > 400")
        .unwrap();
    // Query through the view.
    let o = hq.run_one("SEL COUNT(*) FROM BIG_SALES").unwrap();
    assert_eq!(int_col(&o, 0), vec![3]);
    // The view never reached the target.
    assert!(db.table_names().iter().all(|t| t != "BIG_SALES"));
    assert!(o.sql_sent[0].contains("SALES"), "{}", o.sql_sent[0]);
}

#[test]
fn global_temp_table_emulation() {
    let (mut hq, db) = setup();
    let o = hq
        .run_one("CREATE GLOBAL TEMPORARY TABLE STAGE (K INTEGER, V VARCHAR(10))")
        .unwrap();
    assert!(o.features.contains(hyperq::xtra::Feature::GlobalTempTable));
    assert!(o.sql_sent.is_empty(), "GTT definition stays in the DTM catalog");
    // First reference materializes the per-session instance.
    let o2 = hq.run_one("INS STAGE (1, 'a')").unwrap();
    assert!(
        o2.sql_sent.iter().any(|s| s.contains("CREATE TEMPORARY TABLE")),
        "{:?}",
        o2.sql_sent
    );
    let o3 = hq.run_one("SEL COUNT(*) FROM STAGE").unwrap();
    assert_eq!(int_col(&o3, 0), vec![1]);
    // Second statement must not re-create it.
    assert!(o3.sql_sent.iter().all(|s| !s.contains("CREATE TEMPORARY TABLE")));
    let names = db.table_names();
    assert!(names.iter().any(|t| t.starts_with("GTT_STAGE_S")), "{names:?}");
}

#[test]
fn set_table_semantics_dedup_on_insert() {
    let (mut hq, db) = setup();
    // Define the SET table through Hyper-Q; the target gets a plain table.
    let o = hq.run_one("CREATE SET TABLE UNIQ (A INTEGER, B INTEGER)").unwrap();
    assert!(o.features.contains(hyperq::xtra::Feature::SetTableSemantics));
    hq.run_one("INSERT INTO UNIQ VALUES (1, 1), (1, 1), (2, 2)").unwrap();
    let r = db.execute_sql("SELECT COUNT(*) FROM UNIQ").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(2), "duplicates silently dropped");
    // Re-inserting existing rows inserts nothing.
    let o2 = hq.run_one("INSERT INTO UNIQ VALUES (1, 1), (3, 3)").unwrap();
    assert_eq!(o2.result.row_count, 1);
}

#[test]
fn set_table_def_forwarded_without_set_keyword() {
    let (mut hq, db) = setup();
    hq.run_one("CREATE SET TABLE UNIQ2 (A INTEGER)").unwrap();
    // The target-side DDL must be valid ANSI (no SET keyword).
    assert!(db.table_def("UNIQ2").is_some());
}

#[test]
fn period_type_split_into_begin_end() {
    let (mut hq, db) = setup();
    let o = hq
        .run_one("CREATE TABLE COVERAGE (ID INTEGER, VALIDITY PERIOD(DATE))")
        .unwrap();
    assert!(o.features.contains(hyperq::xtra::Feature::ColumnProperties));
    let def = db.table_def("COVERAGE").expect("created on target");
    let names: Vec<&str> = def.columns.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, vec!["ID", "VALIDITY_BEGIN", "VALIDITY_END"]);
}

#[test]
fn non_constant_default_injected_mid_tier() {
    let (mut hq, db) = setup();
    hq.run_one("CREATE TABLE LOG_ROWS (MSG VARCHAR(20), AT DATE DEFAULT CURRENT_DATE)")
        .unwrap();
    let o = hq.run_one("INSERT INTO LOG_ROWS (MSG) VALUES ('hello')").unwrap();
    assert!(o.features.contains(hyperq::xtra::Feature::ColumnProperties));
    let r = db.execute_sql("SELECT AT FROM LOG_ROWS").unwrap();
    assert!(!r.rows[0][0].is_null(), "default must be injected by the mid tier");
}

#[test]
fn case_insensitive_column_comparison() {
    let (mut hq, db) = setup();
    hq.run_one("CREATE TABLE USERS (NAME VARCHAR(20) NOT CASESPECIFIC)").unwrap();
    hq.run_one("INSERT INTO USERS VALUES ('Alice')").unwrap();
    let o = hq.run_one("SEL COUNT(*) FROM USERS WHERE NAME = 'ALICE'").unwrap();
    assert_eq!(int_col(&o, 0), vec![1], "NOT CASESPECIFIC comparison is case-blind");
    assert!(o.features.contains(hyperq::xtra::Feature::ColumnProperties));
    assert!(o.sql_sent[0].contains("UPPER"), "{}", o.sql_sent[0]);
    let _ = db;
}

#[test]
fn dml_batching_merges_consecutive_inserts() {
    let (mut hq, db) = setup();
    db.execute_sql("CREATE TABLE EVENTS (K INTEGER)").unwrap();
    let outcomes = hq
        .run_script(
            "INSERT INTO EVENTS VALUES (1); INSERT INTO EVENTS VALUES (2); \
             INSERT INTO EVENTS VALUES (3); SEL COUNT(*) FROM EVENTS",
        )
        .unwrap();
    // Three single-row inserts batch into one statement + the query.
    assert_eq!(outcomes.len(), 2);
    assert_eq!(outcomes[0].result.row_count, 3);
    assert_eq!(int_col(&outcomes[1], 0), vec![3]);
    // Ablation: turning batching off sends them separately.
    let mut hq2 = HyperQBuilder::for_target(
        Arc::clone(&db) as Arc<dyn hyperq::core::Backend>,
        hyperq::core::targets::simwh(),
    ).build();
    hq2.dml_batching = false;
    let outcomes2 = hq2
        .run_script("INSERT INTO EVENTS VALUES (4); INSERT INTO EVENTS VALUES (5)")
        .unwrap();
    assert_eq!(outcomes2.len(), 2);
}

#[test]
fn null_ordering_made_explicit_for_target() {
    let (mut hq, db) = setup();
    db.execute_sql("CREATE TABLE NULLABLE_T (V INTEGER)").unwrap();
    db.execute_sql("INSERT INTO NULLABLE_T VALUES (2), (NULL), (1)").unwrap();
    // Teradata sorts NULLs first ascending; the engine's native default is
    // NULLs last — the rewrite must force Teradata semantics.
    let o = hq.run_one("SEL V FROM NULLABLE_T ORDER BY V").unwrap();
    assert!(o.result.rows[0][0].is_null(), "NULL must sort first (Teradata semantics)");
    assert!(o.sql_sent[0].contains("NULLS FIRST"), "{}", o.sql_sent[0]);
}

#[test]
fn transactions_acknowledged() {
    let (mut hq, _db) = setup();
    let outcomes = hq.run_script("BT; SEL 1; ET").unwrap();
    assert_eq!(outcomes.len(), 3);
}

#[test]
fn decimal_results_survive_round_trip() {
    let (mut hq, _db) = setup();
    let o = hq
        .run_one("SEL SUM(AMOUNT) * 0.10 FROM SALES")
        .unwrap();
    match &o.result.rows[0][0] {
        Datum::Dec(d) => assert_eq!(*d, Decimal::parse("210.00").unwrap()),
        other => panic!("{other:?}"),
    }
}

#[test]
fn timings_are_recorded() {
    let (mut hq, _db) = setup();
    let o = hq.run_one("SEL COUNT(*) FROM SALES").unwrap();
    assert!(o.timings.translation.as_nanos() > 0);
    assert!(o.timings.execution.as_nanos() > 0);
}

#[test]
fn error_for_unknown_table_is_bind_error() {
    let (mut hq, _db) = setup();
    let err = hq.run_one("SEL * FROM NO_SUCH_TABLE").unwrap_err();
    assert!(err.to_string().contains("NO_SUCH_TABLE"), "{err}");
}

#[test]
fn parameterized_query_with_positional_markers() {
    let (mut hq, _db) = setup();
    let o = hq
        .run_with_params(
            "SEL PRODUCT_NAME FROM SALES WHERE STORE = ? AND AMOUNT > ? ORDER BY PRODUCT_NAME",
            &[Datum::Int(1), Datum::Int(350)],
        )
        .unwrap();
    assert_eq!(o.result.rows.len(), 1);
    assert_eq!(o.result.rows[0][0], Datum::str("widget"));
    // Too few values is a bind error, not a panic.
    let err = hq
        .run_with_params("SEL * FROM SALES WHERE STORE = ? AND AMOUNT > ?", &[Datum::Int(1)])
        .unwrap_err();
    assert!(err.to_string().contains("marker"), "{err}");
}

#[test]
fn replicated_backend_scale_out() {
    use hyperq::core::ReplicatedBackend;
    // Two replicas of the warehouse, loaded identically out of band.
    let make = || {
        let db = Arc::new(EngineDb::new());
        db.execute_sql("CREATE TABLE SALES (STORE INTEGER, AMOUNT INTEGER, SALES_DATE DATE)")
            .unwrap();
        db.execute_sql(
            "INSERT INTO SALES VALUES (1, 500, DATE '2014-03-01'), (2, 300, DATE '2014-04-01')",
        )
        .unwrap();
        db
    };
    let (r1, r2) = (make(), make());
    let replicated = ReplicatedBackend::new(vec![
        Arc::clone(&r1) as Arc<dyn hyperq::core::Backend>,
        Arc::clone(&r2) as Arc<dyn hyperq::core::Backend>,
    ])
    .unwrap();
    let mut hq = HyperQBuilder::for_target(Arc::new(replicated), hyperq::core::targets::simwh()).build();
    // Reads load-balance; writes broadcast — consistency preserved.
    hq.run_one("INS SALES (3, 700, DATE '2015-01-01')").unwrap();
    for _ in 0..4 {
        let o = hq.run_one("SEL COUNT(*) FROM SALES").unwrap();
        assert_eq!(int_col(&o, 0), vec![3]);
    }
    // Both replicas actually received the write.
    for r in [&r1, &r2] {
        let n = r.execute_sql("SELECT COUNT(*) FROM SALES").unwrap().rows[0][0]
            .to_i64()
            .unwrap();
        assert_eq!(n, 3);
    }
}

#[test]
fn explain_answered_mid_tier_with_plan_and_sql() {
    let (mut hq, _db) = setup();
    let o = hq
        .run_one("EXPLAIN SEL * FROM SALES WHERE SALES_DATE > 1140101 QUALIFY RANK(AMOUNT DESC) <= 2")
        .unwrap();
    assert!(o.sql_sent.is_empty(), "EXPLAIN must not reach the target");
    let text: String = o
        .result
        .rows
        .iter()
        .map(|r| r[0].to_sql_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("tracked features"), "{text}");
    assert!(text.contains("QUALIFY"), "{text}");
    assert!(text.contains("XTRA plan"), "{text}");
    assert!(text.contains("window(RANK"), "{text}");
    assert!(text.contains("target SQL"), "{text}");
    assert!(text.contains("RANK() OVER"), "{text}");
}

#[test]
fn explain_of_emulated_statements_shows_decomposition() {
    let (mut hq, db) = setup();
    db.execute_sql("CREATE TABLE FEED (STORE INTEGER, AMOUNT INTEGER)").unwrap();
    let o = hq
        .run_one(
            "EXPLAIN MERGE INTO SALES S USING FEED F ON S.STORE = F.STORE \
             WHEN MATCHED THEN UPDATE SET AMOUNT = F.AMOUNT",
        )
        .unwrap();
    let text: String = o
        .result
        .rows
        .iter()
        .map(|r| r[0].to_sql_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("emulated"), "{text}");
    assert!(text.contains("UPDATE SALES"), "{text}");
    assert!(o.sql_sent.is_empty());
}

#[test]
fn locking_modifier_parsed_and_dropped() {
    let (mut hq, _db) = setup();
    let o = hq
        .run_one("LOCKING SALES FOR ACCESS SEL COUNT(*) FROM SALES")
        .unwrap();
    assert_eq!(int_col(&o, 0), vec![5]);
    assert!(!o.sql_sent[0].to_uppercase().contains("LOCKING"), "{}", o.sql_sent[0]);
    // ROW-level form too.
    let o2 = hq.run_one("LOCKING ROW FOR ACCESS SEL COUNT(*) FROM SALES").unwrap();
    assert_eq!(int_col(&o2, 0), vec![5]);
}

#[test]
fn set_session_updates_help_session() {
    let (mut hq, _db) = setup();
    hq.run_one("SET SESSION DATEFORM = 'ANSIDATE'").unwrap();
    let help = hq.run_one("HELP SESSION").unwrap();
    let row = help
        .result
        .rows
        .iter()
        .find(|r| r[0] == Datum::str("DATEFORM"))
        .expect("DATEFORM setting");
    assert_eq!(row[1], Datum::str("ANSIDATE"));
}
