//! End-to-end integration: Teradata-dialect application SQL through the
//! full Hyper-Q pipeline (parse → bind → transform → serialize) executed on
//! the SimWH engine substrate.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use hyperq::core::backend::{BackendError, ExecResult, RequestContext, RequestKind};
use hyperq::core::conformance::{self, RuleCheck};
use hyperq::core::{targets, Backend, HyperQ, HyperQBuilder, ObsContext, ReplicatedBackend};
use hyperq::xtra::catalog::TableDef;
use hyperq::engine::EngineDb;
use hyperq::workload::customer::{health, telco, QueryClass};
use hyperq::workload::tpch;
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

fn int_col(outcome: &hyperq::core::StatementResult, col: usize) -> Vec<i64> {
    outcome
        .result
        .rows
        .iter()
        .map(|r| r[col].to_i64().expect("integer column"))
        .collect()
}

#[test]
fn a_whole_table_read_returns_the_table() {
    let (mut hq, db) = setup();
    let table = db.scan("SALES").unwrap();
    for sql in ["SEL * FROM SALES", "SEL STORE, PRODUCT_NAME AS P, AMOUNT, SALES_DATE FROM SALES"] {
        let o = hq.run_one(sql).unwrap();
        assert_eq!(o.result.rows, *table, "{sql}");
        assert_eq!(o.result.row_count, 5, "{sql}");
    }
    let o = hq.run_one("SEL AMOUNT, STORE FROM SALES").unwrap();
    assert_eq!(int_col(&o, 1), vec![1, 1, 2, 2, 3]);
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

/// `translate()` of a statement the mid tier emulates is an emulation
/// error naming the emulation, not a bind error; `run_one` still executes
/// each of them.
#[test]
fn translate_names_the_emulation_of_a_mid_tier_statement() {
    let (mut hq, db) = setup();
    db.execute_sql("CREATE TABLE FEED (STORE INTEGER, AMOUNT INTEGER)").unwrap();
    hq.run_one("CREATE MACRO TOP_SALES AS ( SEL STORE FROM SALES WHERE AMOUNT > 400; )").unwrap();
    hq.run_one("CREATE VIEW BIG_SALES AS SEL STORE, AMOUNT FROM SALES WHERE AMOUNT > 400").unwrap();
    let cases = [
        (
            "merge",
            "MERGE INTO SALES S USING FEED F ON S.STORE = F.STORE \
             WHEN MATCHED THEN UPDATE SET AMOUNT = F.AMOUNT \
             WHEN NOT MATCHED THEN INSERT (STORE, AMOUNT) VALUES (F.STORE, F.AMOUNT)",
        ),
        (
            "recursive",
            "WITH RECURSIVE R (N) AS (SELECT 1 FROM SALES WHERE STORE = 1 AND AMOUNT = 500 \
             UNION ALL SELECT R.N + 1 FROM R WHERE R.N < 3) SELECT N FROM R",
        ),
        ("macro", "EXEC TOP_SALES"),
        ("view_dml", "UPDATE BIG_SALES SET AMOUNT = AMOUNT + 1 WHERE STORE = 3"),
    ];
    for (kind, sql) in cases {
        match hq.translate(sql) {
            Err(hyperq::core::HyperQError::Emulation(m)) => assert!(
                m.starts_with(&format!("{kind} is emulated by the mid tier")),
                "{sql}: {m}"
            ),
            other => panic!("{sql}: {other:?}"),
        }
        hq.run_one(sql).unwrap();
    }
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
    assert_preview_matches_execution(&mut hq, "INSERT INTO UNIQ VALUES (1, 2)");
}

/// `translate()` and EXPLAIN's `target SQL:` line show exactly the SQL
/// that executing `sql` sends, emulations included.
fn assert_preview_matches_execution(hq: &mut HyperQ, sql: &str) {
    let translated = hq.translate(sql).unwrap();
    let explained: Vec<String> = hq
        .run_one(&format!("EXPLAIN {sql}"))
        .unwrap()
        .result
        .rows
        .iter()
        .map(|r| r[0].to_sql_string())
        .collect();
    let at = explained.iter().position(|l| l == "target SQL:").expect("target SQL line");
    let explained_sql = explained[at + 1].strip_prefix("  ").expect("indented SQL").to_string();
    let sent = hq.run_one(sql).unwrap().sql_sent;
    assert_eq!(translated, sent, "translate() differs from what {sql} sends");
    assert_eq!(vec![explained_sql], sent, "EXPLAIN differs from what {sql} sends");
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
    assert_preview_matches_execution(&mut hq, "INSERT INTO LOG_ROWS (MSG) VALUES ('again')");
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

/// One request as it passed a [`Tap`]: where (`None` above the replica
/// set, `Some(i)` at replica `i`), what, and whether it returned rows.
struct Hop {
    at: Option<usize>,
    sql: String,
    kind: RequestKind,
    result_set: bool,
}

/// Logs every request it forwards into a log shared by the whole stack.
struct Tap {
    at: Option<usize>,
    inner: Arc<dyn Backend>,
    log: Arc<Mutex<Vec<Hop>>>,
}

impl Backend for Tap {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&self, sql: &str) -> Result<ExecResult, BackendError> {
        self.execute_ctx(sql, RequestContext::write())
    }

    fn execute_ctx(&self, sql: &str, ctx: RequestContext) -> Result<ExecResult, BackendError> {
        let hop = Hop { at: self.at, sql: sql.to_string(), kind: ctx.kind, result_set: false };
        let i = {
            let mut log = self.log.lock().unwrap();
            log.push(hop);
            log.len() - 1
        };
        let result = self.inner.execute_ctx(sql, ctx);
        if let Ok(r) = &result {
            self.log.lock().unwrap()[i].result_set = !r.schema.is_empty();
        }
        result
    }

    fn table_meta(&self, name: &str) -> Option<TableDef> {
        self.inner.table_meta(name)
    }

    fn reset_session(&self) -> Result<(), BackendError> {
        self.inner.reset_session()
    }
}

/// The tables `churn_mix` runs over, a few rows each.
const CHURN_DDL: &[&str] = &[
    "CREATE TABLE CH_FACTS (F0 INTEGER NOT NULL, F1 INTEGER NOT NULL, F2 INTEGER NOT NULL)",
    "CREATE TABLE CH_ACCT (ACCT_ID INTEGER NOT NULL, BAL INTEGER, REGION INTEGER, \
     NOTE VARCHAR(20))",
    "CREATE TABLE CH_FEED (ACCT_ID INTEGER NOT NULL, BAL INTEGER, REGION INTEGER)",
    "CREATE TABLE CH_LOG (K INTEGER, V INTEGER)",
    "CREATE TABLE CH_EMP (EMPNO INTEGER NOT NULL, MGRNO INTEGER)",
    "INSERT INTO CH_FACTS VALUES (1, 2, 3), (5, 6, 7)",
    "INSERT INTO CH_ACCT VALUES (1, 100, 1, 'loaded'), (2, 200, 2, 'loaded')",
    "INSERT INTO CH_FEED VALUES (1, 1001, 1), (10002, 1002, 2)",
    "INSERT INTO CH_LOG VALUES (-1, 1)",
    "INSERT INTO CH_EMP VALUES (2, 1), (3, 1), (4, 2)",
];

/// One statement of each kind `churn_mix` sends, and a session `SET`.
const CHURN: &[&str] = &[
    "CREATE SET TABLE CH_UNIQ (A INTEGER, B INTEGER)",
    "CREATE MACRO CH_REPORT (R INTEGER) AS ( \
     SELECT REGION, COUNT(*), SUM(BAL) FROM CH_ACCT WHERE REGION = :R GROUP BY REGION; )",
    "CREATE GLOBAL TEMPORARY TABLE CH_GTT (K INTEGER, V INTEGER)",
    "SELECT F0, F1 FROM CH_FACTS WHERE (F2 < 5)",
    "INSERT INTO CH_LOG VALUES (7, 2 + 0)",
    "INSERT INTO CH_LOG VALUES (8, 1); INSERT INTO CH_LOG VALUES (9, 2)",
    "UPDATE CH_ACCT SET BAL = BAL + 5 WHERE REGION = 1 AND ACCT_ID > -1",
    "MERGE INTO CH_ACCT A USING CH_FEED F ON A.ACCT_ID = F.ACCT_ID \
     WHEN MATCHED THEN UPDATE SET NOTE = 'merged' \
     WHEN NOT MATCHED THEN INSERT (ACCT_ID, BAL, REGION, NOTE) \
     VALUES (F.ACCT_ID, F.BAL, F.REGION, 'new')",
    "DELETE FROM CH_ACCT WHERE ACCT_ID > 10000",
    "INSERT INTO CH_UNIQ VALUES (1, 2), (1, 2), (101, 2)",
    "DELETE FROM CH_UNIQ WHERE A >= 0",
    "BT",
    "UPDATE CH_ACCT SET BAL = BAL + 1 WHERE ACCT_ID = 1",
    "SEL COUNT(*) FROM CH_ACCT",
    "ET",
    "CREATE VOLATILE TABLE CH_VT (K INTEGER, V INTEGER) ON COMMIT PRESERVE ROWS",
    "INSERT INTO CH_VT SELECT F0, F1 FROM CH_FACTS WHERE F2 < 5",
    "SEL COUNT(*) FROM CH_VT",
    "DROP TABLE CH_VT",
    "INS CH_GTT (1, 2)",
    "SEL COUNT(*) FROM CH_GTT",
    "DELETE FROM CH_GTT",
    "EXEC CH_REPORT(1)",
    "WITH RECURSIVE REPORTS (EMPNO) AS ( \
       SELECT EMPNO FROM CH_EMP WHERE MGRNO = 1 \
       UNION ALL \
       SELECT E.EMPNO FROM CH_EMP E, REPORTS WHERE E.MGRNO = REPORTS.EMPNO ) \
     SELECT COUNT(*) FROM REPORTS",
    "SET SESSION DATEFORM = 'ANSIDATE'",
];

/// The replica set routes on the lowering's classification alone: over
/// TPC-H, the health and telco corpora and every `churn_mix` statement
/// kind, on every executable profile, each query (the requests that return
/// a result set) reaches exactly one replica, every other request reaches
/// both, and the two replicas end with identical tables and settings.
#[test]
fn replica_routing_follows_the_lowering() {
    let strings = |list: &[&str]| list.iter().map(ToString::to_string).collect::<Vec<_>>();
    let queries: Vec<&str> = tpch::queries().into_iter().map(|(_, q)| q).collect();
    let mut corpora = vec![("tpch", tpch::ddl(), strings(&queries))];
    for (name, w) in [("health", health(0.05)), ("telco", telco(0.02))] {
        let statements = w.hyperq_setup.iter().chain(&w.distinct).cloned().collect();
        corpora.push((name, w.target_ddl, statements));
    }
    corpora.push(("churn_mix", strings(CHURN_DDL), strings(CHURN)));

    for profile in targets::executable() {
        for (corpus, ddl, statements) in &corpora {
            let replica = || {
                let db = Arc::new(EngineDb::new());
                for d in ddl {
                    db.execute_sql(d).unwrap();
                }
                if *corpus == "tpch" {
                    for (table, rows) in tpch::generate(0.001, 42).tables() {
                        db.load_rows(table, rows).unwrap();
                    }
                }
                db
            };
            let dbs = [replica(), replica()];
            let log = Arc::new(Mutex::new(Vec::new()));
            let tap = |at: Option<usize>, inner: Arc<dyn Backend>| -> Arc<dyn Backend> {
                Arc::new(Tap { at, inner, log: Arc::clone(&log) })
            };
            let set = ReplicatedBackend::new(
                (0..2).map(|i| tap(Some(i), Arc::clone(&dbs[i]) as Arc<dyn Backend>)).collect(),
            )
            .unwrap();
            let mut hq = HyperQBuilder::for_target(tap(None, Arc::new(set)), profile.clone())
                .obs(ObsContext::new())
                .build();
            let at = |what: &str| format!("[{}/{corpus}] {what}", profile.name);
            for sql in statements {
                hq.run_script(sql).unwrap_or_else(|e| panic!("{}", at(&format!("{e}: {sql}"))));
            }

            let log = log.lock().unwrap();
            let mut requests = log.iter().enumerate().filter(|(_, h)| h.at.is_none()).peekable();
            let mut reads = 0;
            while let Some((i, request)) = requests.next() {
                let end = requests.peek().map_or(log.len(), |(j, _)| *j);
                let hops = &log[i + 1..end];
                let mut replicas: Vec<usize> = hops.iter().filter_map(|h| h.at).collect();
                replicas.sort_unstable();
                let ctx = at(&format!("{:?} {}: reached {replicas:?}", request.kind, request.sql));
                let same = |h: &Hop| h.sql == request.sql && h.kind == request.kind;
                assert!(hops.iter().all(same), "{ctx}");
                assert_eq!(request.kind == RequestKind::Read, request.result_set, "{ctx}");
                if request.kind == RequestKind::Read {
                    reads += 1;
                    assert_eq!(replicas.len(), 1, "{ctx}");
                } else {
                    assert_eq!(replicas, vec![0, 1], "{ctx}");
                }
            }
            assert!(reads > 0, "{}", at("no read was routed"));

            let [a, b] = &dbs;
            assert_eq!(a.table_names(), b.table_names());
            assert_eq!(a.session_params(), b.session_params());
            for table in a.table_names() {
                let select = format!("SELECT * FROM {table}");
                let read = |db: &EngineDb| db.execute_sql(&select).unwrap().rows;
                assert_eq!(read(a), read(b), "{}", at(&table));
            }
        }
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

/// Every `/metrics` series whose value differs between two scrapes.
fn moved_series(before: &str, after: &str) -> Vec<String> {
    let values = |text: &str| -> BTreeMap<String, String> {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.rsplit_once(' '))
            .map(|(series, value)| (series.to_string(), value.to_string()))
            .collect()
    };
    let before = values(before);
    values(after).into_iter().filter(|(s, v)| before.get(s) != Some(v)).map(|(s, _)| s).collect()
}

/// A session on `target` over `db`, reporting into `obs`.
fn session_on(db: &Arc<EngineDb>, target: &str, obs: &Arc<ObsContext>) -> HyperQ {
    let profile = targets::lookup(target).expect("registered target");
    HyperQBuilder::for_target(Arc::clone(db) as Arc<dyn Backend>, profile)
        .obs(Arc::clone(obs))
        .build()
}

/// `translate()` and EXPLAIN are previews: they run the lowering execution
/// runs and record nothing of it. Around `translate()` only the target's
/// catalog lookups move (binding makes them for real); around EXPLAIN, only
/// what the EXPLAIN statement itself records besides. Executing the `TOP 2`
/// query is what counts its one LimitFetch emulation on `simwh-reduced`.
#[test]
fn a_preview_moves_no_pipeline_metric() {
    const QUALIFY: &str = "SEL * FROM SALES QUALIFY RANK(AMOUNT DESC) <= 2";
    const TOP: &str = "SEL TOP 2 AMOUNT FROM SALES ORDER BY AMOUNT";
    let lookups = "hyperq_backend_catalog_lookups_total{";
    // The EXPLAIN statement's own series: its outcome, emulation kind and
    // features, its source lint's findings, and the durations of its parse,
    // source lint and whole statement.
    let explain_own = |series: &str| {
        let source_finding = series
            .strip_prefix("hyperq_conformance_violations_total{rule=\"")
            .and_then(|rest| rest.split('"').next())
            .and_then(conformance::rule)
            .is_some_and(|rule| matches!(rule.check, RuleCheck::Source));
        let own_stage = series.starts_with("hyperq_stage_duration_seconds")
            && ["parse", "conformance", "statement"]
                .iter()
                .any(|stage| series.contains(&format!("{{stage=\"{stage}\"")));
        let own_series = [
            lookups,
            "hyperq_statements_total{outcome=\"ok\"}",
            "hyperq_emulation_requests_total{kind=\"explain\"}",
            "hyperq_feature_statements_total{",
            "hyperq_conformance_checks_total{stage=\"source\"}",
        ];
        source_finding || own_stage || own_series.iter().any(|own| series.starts_with(own))
    };
    for target in ["simwh", "simwh-reduced"] {
        let (_, db) = setup();
        let obs = ObsContext::new();
        let mut hq = session_on(&db, target, &obs);
        for sql in [QUALIFY, TOP] {
            let before = obs.metrics.render_prometheus();
            hq.translate(sql).unwrap();
            let moved = moved_series(&before, &obs.metrics.render_prometheus());
            let stray: Vec<&String> = moved.iter().filter(|s| !s.starts_with(lookups)).collect();
            assert!(stray.is_empty(), "[{target}] translate({sql}) moved {stray:?}");

            let before = obs.metrics.render_prometheus();
            hq.run_one(&format!("EXPLAIN {sql}")).unwrap();
            let moved = moved_series(&before, &obs.metrics.render_prometheus());
            let stray: Vec<&String> = moved.iter().filter(|s| !explain_own(s)).collect();
            assert!(stray.is_empty(), "[{target}] EXPLAIN {sql} moved {stray:?}");
        }
        let limit_fetch = || {
            obs.metrics.counter_value("hyperq_emulation_requests_total", &[("kind", "limit_fetch")])
        };
        let before = limit_fetch();
        assert_eq!(hq.run_one(TOP).unwrap().result.row_count, 2);
        let expected = u64::from(target == "simwh-reduced");
        assert_eq!(limit_fetch() - before, expected, "[{target}] executing {TOP}");
    }
}

/// `translate()`, EXPLAIN's `target SQL:` line and execution agree on
/// every TPC-H query and every health/telco statement that takes the
/// standard path, on both simwh flavors (the reduced one peels TPC-H's
/// `TOP n` into LimitFetch). The statements the mid tier emulates instead
/// (MERGE, macros, recursion, DML on views) have no translation of their
/// own and are skipped; a first pass over the corpus materializes its
/// global temporary tables, whose creation is not the statement's SQL.
#[test]
fn previews_match_execution_across_the_corpora() {
    for target in ["simwh", "simwh-reduced"] {
        let db = Arc::new(EngineDb::new());
        for ddl in tpch::ddl() {
            db.execute_sql(&ddl).unwrap();
        }
        for (table, rows) in tpch::generate(0.001, 42).tables() {
            db.load_rows(table, rows).unwrap();
        }
        let mut hq = session_on(&db, target, &ObsContext::new());
        for (_, sql) in tpch::queries() {
            assert_preview_matches_execution(&mut hq, sql);
        }

        for w in [health(0.05), telco(0.02)] {
            let db = Arc::new(EngineDb::new());
            for ddl in &w.target_ddl {
                db.execute_sql(ddl).unwrap();
            }
            let mut hq = session_on(&db, target, &ObsContext::new());
            for sql in w.hyperq_setup.iter().chain(&w.distinct) {
                hq.run_one(sql).unwrap();
            }
            let mut checked = 0;
            for sql in &w.distinct {
                if hq.translate(sql).is_ok() {
                    assert_preview_matches_execution(&mut hq, sql);
                    checked += 1;
                }
            }
            // At least every statement the generator drew without an
            // emulation takes the standard path.
            let plain = w.classes.iter().filter(|c| **c != QueryClass::Emulation).count();
            assert!(checked >= plain, "[{target}] {checked} standard-path statements of {plain}");
        }
    }
}
