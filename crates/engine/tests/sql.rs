//! End-to-end SQL tests for the engine substrate (ANSI target dialect).

use hyperq_engine::EngineDb;
use hyperq_xtra::datum::{Datum, Decimal};

fn db() -> EngineDb {
    let db = EngineDb::new();
    db.execute_sql(
        "CREATE TABLE EMP (EMPNO INTEGER NOT NULL, MGRNO INTEGER, NAME VARCHAR(30), \
         SALARY DECIMAL(10,2), HIRED DATE)",
    )
    .unwrap();
    db.execute_sql(
        "INSERT INTO EMP VALUES \
         (1, 7, 'alice', 100.00, DATE '2014-01-01'), \
         (7, 8, 'bob', 200.00, DATE '2013-05-10'), \
         (8, 10, 'carol', 300.50, DATE '2012-07-20'), \
         (9, 10, 'dave', 250.25, DATE '2015-02-28'), \
         (10, 11, 'erin', 400.00, DATE '2010-12-31')",
    )
    .unwrap();
    db
}

fn ints(result: &hyperq_core::ExecResult, col: usize) -> Vec<i64> {
    result
        .rows
        .iter()
        .map(|r| r[col].to_i64().expect("integer column"))
        .collect()
}

#[test]
fn select_where_order() {
    let db = db();
    let r = db
        .execute_sql("SELECT EMPNO FROM EMP WHERE MGRNO = 10 ORDER BY EMPNO")
        .unwrap();
    assert_eq!(ints(&r, 0), vec![8, 9]);
}

#[test]
fn select_star_preserves_all_columns() {
    let db = db();
    let r = db.execute_sql("SELECT * FROM EMP").unwrap();
    assert_eq!(r.schema.len(), 5);
    assert_eq!(r.rows.len(), 5);
}

#[test]
fn arithmetic_and_aliases() {
    let db = db();
    let r = db
        .execute_sql("SELECT EMPNO * 2 AS DOUBLED FROM EMP WHERE EMPNO = 7")
        .unwrap();
    assert_eq!(r.schema.fields[0].name, "DOUBLED");
    assert_eq!(ints(&r, 0), vec![14]);
}

#[test]
fn decimal_arithmetic_is_exact() {
    let db = db();
    let r = db
        .execute_sql("SELECT SALARY * 0.10 FROM EMP WHERE EMPNO = 8")
        .unwrap();
    match &r.rows[0][0] {
        Datum::Dec(d) => assert_eq!(*d, Decimal::parse("30.0500").unwrap()),
        other => panic!("{other:?}"),
    }
}

#[test]
fn decimal_overflow_fails_like_integer_overflow() {
    let db = EngineDb::new();
    db.execute_sql("CREATE TABLE D (A DECIMAL(38,2), N INTEGER)").unwrap();
    db.execute_sql("INSERT INTO D VALUES (100000000000000000000.00, 9223372036854775807)").unwrap();
    let int = db.execute_sql("SELECT N + 1 FROM D").unwrap_err();
    assert!(int.message.contains("integer overflow in +"), "{int}");
    for (sql, op) in [
        ("SELECT A * A FROM D", "*"),
        ("SELECT CAST(A AS DECIMAL(38,30)) FROM D", "CAST"),
        ("SELECT A / 0.0000000001 FROM D", "/"),
        ("SELECT CAST(1e300 AS DECIMAL(38,2)) FROM D", "CAST"),
        ("SELECT ROUND(A, 30) FROM D", "CAST"),
        ("SELECT CAST(-1.7014118346046923E38 AS DECIMAL(38,0)) % -1 FROM D", "CAST"),
    ] {
        let err = db.execute_sql(sql).unwrap_err();
        assert!(err.message.contains(&format!("decimal overflow in {op}")), "{sql}: {err}");
        assert_eq!((err.kind, err.wire_code), (int.kind, int.wire_code), "{sql}");
    }

    // 10^37 against 0.05: aligning the scales overflows, and the
    // comparison still orders by magnitude.
    db.execute_sql("CREATE TABLE E (A DECIMAL(38,0))").unwrap();
    db.execute_sql("INSERT INTO E VALUES (10000000000000000000000000000000000000)").unwrap();
    let count = |sql: &str| ints(&db.execute_sql(sql).unwrap(), 0);
    assert_eq!(count("SELECT COUNT(*) FROM E WHERE A > 0.05"), vec![1]);
    assert_eq!(count("SELECT COUNT(*) FROM E WHERE A < 0.05"), vec![0]);
}

/// A one-row table holding i64::MAX, i64::MIN + 1 and a date, and the
/// error `i64::MAX + 1` fails with: the class every overflow below shares.
fn edges() -> (EngineDb, hyperq_core::BackendError) {
    let db = EngineDb::new();
    db.execute_sql("CREATE TABLE X (HI INTEGER, LO INTEGER, D DATE)").unwrap();
    db.execute_sql("INSERT INTO X VALUES (9223372036854775807, -9223372036854775807, DATE '2020-01-31')")
        .unwrap();
    let int = db.execute_sql("SELECT HI + 1 FROM X").unwrap_err();
    (db, int)
}

fn fails_like(db: &EngineDb, int: &hyperq_core::BackendError, sql: &str, message: &str) {
    let err = db.execute_sql(sql).unwrap_err();
    assert!(err.message.contains(message), "{sql}: {err}");
    assert_eq!((err.kind, err.wire_code), (int.kind, int.wire_code), "{sql}");
}

#[test]
fn mod_of_the_smallest_integer_by_minus_one_fails_instead_of_panicking() {
    let (db, int) = edges();
    fails_like(&db, &int, "SELECT MOD(LO - 1, -1) FROM X", "integer overflow in MOD");
    assert_eq!(ints(&db.execute_sql("SELECT MOD(LO, -1), MOD(7, -2) FROM X").unwrap(), 1), vec![1]);
}

#[test]
fn abs_of_the_smallest_integer_fails_instead_of_wrapping() {
    let (db, int) = edges();
    fails_like(&db, &int, "SELECT ABS(LO - 1) FROM X", "integer overflow in ABS");
    assert_eq!(ints(&db.execute_sql("SELECT ABS(LO) FROM X").unwrap(), 0), vec![i64::MAX]);
}

#[test]
fn a_date_moved_past_the_day_range_fails_instead_of_wrapping() {
    let (db, int) = edges();
    for (sql, message) in [
        ("SELECT D + 2147483647 FROM X", "date overflow in +"),
        ("SELECT D + HI FROM X", "date overflow in +"),
        ("SELECT D - LO FROM X", "date overflow in -"),
        ("SELECT DATE_ADD_DAYS(D, 2147483647) FROM X", "date overflow in DATE_ADD_DAYS"),
        ("SELECT DATE_ADD_DAYS(D, 4294967297) FROM X", "date overflow in DATE_ADD_DAYS"),
    ] {
        fails_like(&db, &int, sql, message);
    }
    let r = db.execute_sql("SELECT D + 1, DATE_ADD_DAYS(D, -31) FROM X").unwrap();
    assert_eq!(r.rows[0][0].to_sql_string(), "2020-02-01");
    assert_eq!(r.rows[0][1].to_sql_string(), "2019-12-31");
    // Two dates in range can lie further apart than an i32 counts.
    let r = db.execute_sql("SELECT (D + 2000000000) - (D - 2000000000) FROM X").unwrap();
    assert_eq!(ints(&r, 0), vec![4_000_000_000]);
}

#[test]
fn add_months_past_the_day_range_fails_instead_of_truncating_the_count() {
    // 4294967297 is 2^32 + 1: cut to 32 bits it was one month.
    let (db, int) = edges();
    for sql in ["SELECT ADD_MONTHS(D, 4294967297) FROM X", "SELECT ADD_MONTHS(D, 2147483647) FROM X"] {
        fails_like(&db, &int, sql, "date overflow in ADD_MONTHS");
    }
    let r = db.execute_sql("SELECT ADD_MONTHS(D, 1) FROM X").unwrap();
    assert_eq!(r.rows[0][0].to_sql_string(), "2020-02-29");
}

#[test]
fn group_by_having() {
    let db = db();
    let r = db
        .execute_sql(
            "SELECT MGRNO, COUNT(*) AS N, SUM(SALARY) AS TOTAL FROM EMP \
             GROUP BY MGRNO HAVING COUNT(*) > 1 ORDER BY MGRNO",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Datum::Int(10));
    assert_eq!(r.rows[0][1], Datum::Int(2));
    match &r.rows[0][2] {
        Datum::Dec(d) => assert_eq!(*d, Decimal::parse("550.75").unwrap()),
        other => panic!("{other:?}"),
    }
}

#[test]
fn global_aggregate_on_empty_input_returns_one_row() {
    let db = db();
    let r = db
        .execute_sql("SELECT COUNT(*), SUM(SALARY) FROM EMP WHERE EMPNO > 1000")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Datum::Int(0));
    assert_eq!(r.rows[0][1], Datum::Null);
}

#[test]
fn count_distinct() {
    let db = db();
    let r = db
        .execute_sql("SELECT COUNT(DISTINCT MGRNO) FROM EMP")
        .unwrap();
    assert_eq!(ints(&r, 0), vec![4]);
}

#[test]
fn inner_join_hash_path() {
    let db = db();
    let r = db
        .execute_sql(
            "SELECT E.NAME, M.NAME FROM EMP E INNER JOIN EMP M ON E.MGRNO = M.EMPNO \
             ORDER BY E.EMPNO",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 4); // erin's manager (11) is not in the table
    assert_eq!(r.rows[0][0], Datum::str("alice"));
    assert_eq!(r.rows[0][1], Datum::str("bob"));
}

#[test]
fn left_join_pads_nulls() {
    let db = db();
    let r = db
        .execute_sql(
            "SELECT E.NAME, M.NAME FROM EMP E LEFT JOIN EMP M ON E.MGRNO = M.EMPNO \
             ORDER BY E.EMPNO",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 5);
    let erin = r.rows.iter().find(|row| row[0] == Datum::str("erin")).unwrap();
    assert_eq!(erin[1], Datum::Null);
}

#[test]
fn full_outer_join() {
    let db = db();
    db.execute_sql("CREATE TABLE DEPT (DEPTNO INTEGER, HEAD INTEGER)").unwrap();
    db.execute_sql("INSERT INTO DEPT VALUES (100, 10), (200, 999)").unwrap();
    let r = db
        .execute_sql(
            "SELECT D.DEPTNO, E.NAME FROM DEPT D FULL JOIN EMP E ON D.HEAD = E.EMPNO",
        )
        .unwrap();
    // 1 matched (10→erin), 1 left-unmatched (200), 4 right-unmatched emps.
    assert_eq!(r.rows.len(), 6);
}

#[test]
fn cross_join_counts() {
    let db = db();
    let r = db
        .execute_sql("SELECT COUNT(*) FROM EMP A CROSS JOIN EMP B")
        .unwrap();
    assert_eq!(ints(&r, 0), vec![25]);
}

#[test]
fn theta_join_nested_loop_path() {
    let db = db();
    let r = db
        .execute_sql("SELECT COUNT(*) FROM EMP A INNER JOIN EMP B ON A.EMPNO < B.EMPNO")
        .unwrap();
    assert_eq!(ints(&r, 0), vec![10]);
}

#[test]
fn correlated_exists_subquery() {
    let db = db();
    // Employees who manage someone.
    let r = db
        .execute_sql(
            "SELECT NAME FROM EMP M WHERE EXISTS \
             (SELECT 1 FROM EMP E WHERE E.MGRNO = M.EMPNO) ORDER BY NAME",
        )
        .unwrap();
    let names: Vec<String> = r.rows.iter().map(|r| r[0].to_sql_string()).collect();
    assert_eq!(names, vec!["bob", "carol", "erin"]);
}

#[test]
fn scalar_subquery() {
    let db = db();
    let r = db
        .execute_sql(
            "SELECT NAME FROM EMP WHERE SALARY = (SELECT MAX(SALARY) FROM EMP)",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Datum::str("erin"));
}

#[test]
fn in_subquery_and_not_in() {
    let db = db();
    let r = db
        .execute_sql(
            "SELECT COUNT(*) FROM EMP WHERE MGRNO IN (SELECT EMPNO FROM EMP)",
        )
        .unwrap();
    assert_eq!(ints(&r, 0), vec![4]);
    let r2 = db
        .execute_sql(
            "SELECT NAME FROM EMP WHERE EMPNO NOT IN (SELECT MGRNO FROM EMP WHERE MGRNO IS NOT NULL)",
        )
        .unwrap();
    let names: Vec<String> = r2.rows.iter().map(|r| r[0].to_sql_string()).collect();
    assert_eq!(names, vec!["alice", "dave"]);
}

#[test]
fn quantified_scalar_any() {
    let db = db();
    let r = db
        .execute_sql(
            "SELECT COUNT(*) FROM EMP WHERE SALARY > ANY (SELECT SALARY FROM EMP WHERE MGRNO = 10)",
        )
        .unwrap();
    // salaries: 100,200,300.5,250.25,400 vs subquery {300.5, 250.25}
    // > ANY means > min(250.25): 300.5 and 400.
    assert_eq!(ints(&r, 0), vec![2]);
}

#[test]
fn window_rank_and_partition() {
    let db = db();
    let r = db
        .execute_sql(
            "SELECT NAME, RANK() OVER (ORDER BY SALARY DESC) AS R FROM EMP ORDER BY R, NAME",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Datum::str("erin"));
    assert_eq!(r.rows[0][1], Datum::Int(1));
    let r2 = db
        .execute_sql(
            "SELECT NAME, ROW_NUMBER() OVER (PARTITION BY MGRNO ORDER BY NAME) AS RN \
             FROM EMP WHERE MGRNO = 10 ORDER BY RN",
        )
        .unwrap();
    assert_eq!(r2.rows.len(), 2);
    assert_eq!(r2.rows[0][1], Datum::Int(1));
    assert_eq!(r2.rows[1][1], Datum::Int(2));
}

#[test]
fn window_rank_ties() {
    let db = db();
    db.execute_sql("CREATE TABLE SCORES (ID INTEGER, S INTEGER)").unwrap();
    db.execute_sql("INSERT INTO SCORES VALUES (1, 10), (2, 10), (3, 5)").unwrap();
    let r = db
        .execute_sql(
            "SELECT ID, RANK() OVER (ORDER BY S DESC) AS R, \
             DENSE_RANK() OVER (ORDER BY S DESC) AS D FROM SCORES ORDER BY ID",
        )
        .unwrap();
    assert_eq!(r.rows[0][1], Datum::Int(1));
    assert_eq!(r.rows[1][1], Datum::Int(1));
    assert_eq!(r.rows[2][1], Datum::Int(3));
    assert_eq!(r.rows[2][2], Datum::Int(2));
}

#[test]
fn windowed_sum_over_partition() {
    let db = db();
    let r = db
        .execute_sql(
            "SELECT NAME, SUM(SALARY) OVER (PARTITION BY MGRNO) AS TOT FROM EMP \
             WHERE MGRNO = 10 ORDER BY NAME",
        )
        .unwrap();
    for row in &r.rows {
        match &row[1] {
            Datum::Dec(d) => assert_eq!(*d, Decimal::parse("550.75").unwrap()),
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn running_sum_with_order() {
    let db = db();
    db.execute_sql("CREATE TABLE SERIES (T INTEGER, V INTEGER)").unwrap();
    db.execute_sql("INSERT INTO SERIES VALUES (1, 10), (2, 20), (3, 30)").unwrap();
    let r = db
        .execute_sql(
            "SELECT T, SUM(V) OVER (ORDER BY T) AS RUNNING FROM SERIES ORDER BY T",
        )
        .unwrap();
    assert_eq!(ints(&r, 1), vec![10, 30, 60]);
}

#[test]
fn set_operations() {
    let db = db();
    let r = db
        .execute_sql(
            "SELECT EMPNO FROM EMP WHERE EMPNO < 9 UNION ALL SELECT EMPNO FROM EMP WHERE EMPNO > 7 \
             ORDER BY 1",
        );
    // Ordinal ORDER BY over a set op works at the query level.
    let r = r.unwrap();
    assert_eq!(ints(&r, 0), vec![1, 7, 8, 8, 9, 10]);
    let r2 = db
        .execute_sql(
            "SELECT MGRNO FROM EMP INTERSECT SELECT EMPNO FROM EMP",
        )
        .unwrap();
    let mut got = ints(&r2, 0);
    got.sort();
    assert_eq!(got, vec![7, 8, 10]);
    let r3 = db
        .execute_sql("SELECT EMPNO FROM EMP EXCEPT SELECT MGRNO FROM EMP")
        .unwrap();
    let mut got = ints(&r3, 0);
    got.sort();
    assert_eq!(got, vec![1, 9]);
}

#[test]
fn distinct_and_limit() {
    let db = db();
    let r = db
        .execute_sql("SELECT DISTINCT MGRNO FROM EMP WHERE MGRNO IS NOT NULL ORDER BY MGRNO LIMIT 2")
        .unwrap();
    assert_eq!(ints(&r, 0), vec![7, 8]);
}

#[test]
fn case_expression() {
    let db = db();
    let r = db
        .execute_sql(
            "SELECT NAME, CASE WHEN SALARY >= 300 THEN 'high' WHEN SALARY >= 200 THEN 'mid' \
             ELSE 'low' END AS BAND FROM EMP ORDER BY EMPNO",
        )
        .unwrap();
    let bands: Vec<String> = r.rows.iter().map(|r| r[1].to_sql_string()).collect();
    assert_eq!(bands, vec!["low", "mid", "high", "mid", "high"]);
}

#[test]
fn string_functions() {
    let db = db();
    let r = db
        .execute_sql(
            "SELECT UPPER(NAME), CHAR_LENGTH(NAME), SUBSTRING(NAME, 1, 2), \
             POSITION('li' IN NAME) FROM EMP WHERE EMPNO = 1",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Datum::str("ALICE"));
    assert_eq!(r.rows[0][1], Datum::Int(5));
    assert_eq!(r.rows[0][2], Datum::str("al"));
    assert_eq!(r.rows[0][3], Datum::Int(2));
}

#[test]
fn like_and_between() {
    let db = db();
    let r = db
        .execute_sql("SELECT COUNT(*) FROM EMP WHERE NAME LIKE '%a%'") // alice, carol, dave
        .unwrap();
    assert_eq!(ints(&r, 0), vec![3]);
    let r2 = db
        .execute_sql("SELECT COUNT(*) FROM EMP WHERE SALARY BETWEEN 200 AND 300")
        .unwrap();
    assert_eq!(ints(&r2, 0), vec![2]);
}

#[test]
fn date_functions_and_arithmetic() {
    let db = db();
    let r = db
        .execute_sql(
            "SELECT EXTRACT(YEAR FROM HIRED), HIRED + 30, ADD_MONTHS(HIRED, 2) \
             FROM EMP WHERE EMPNO = 1",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(2014));
    assert_eq!(r.rows[0][1].to_sql_string(), "2014-01-31");
    assert_eq!(r.rows[0][2].to_sql_string(), "2014-03-01");
}

#[test]
fn update_and_delete() {
    let db = db();
    let r = db
        .execute_sql("UPDATE EMP SET SALARY = SALARY + 50 WHERE MGRNO = 10")
        .unwrap();
    assert_eq!(r.row_count, 2);
    let check = db
        .execute_sql("SELECT SALARY FROM EMP WHERE EMPNO = 8")
        .unwrap();
    match &check.rows[0][0] {
        Datum::Dec(d) => assert_eq!(*d, Decimal::parse("350.50").unwrap()),
        other => panic!("{other:?}"),
    }
    let d = db.execute_sql("DELETE FROM EMP WHERE EMPNO = 1").unwrap();
    assert_eq!(d.row_count, 1);
    let left = db.execute_sql("SELECT COUNT(*) FROM EMP").unwrap();
    assert_eq!(ints(&left, 0), vec![4]);
}

#[test]
fn ctas_reports_row_count() {
    let db = db();
    let r = db
        .execute_sql("CREATE TABLE RICH AS SELECT NAME FROM EMP WHERE SALARY > 250")
        .unwrap();
    assert_eq!(r.row_count, 3);
    let check = db.execute_sql("SELECT COUNT(*) FROM RICH").unwrap();
    assert_eq!(ints(&check, 0), vec![3]);
}

#[test]
fn temp_table_lifecycle() {
    let db = db();
    db.execute_sql("CREATE TEMPORARY TABLE TT (A INTEGER)").unwrap();
    db.execute_sql("INSERT INTO TT VALUES (1), (2)").unwrap();
    let r = db.execute_sql("SELECT COUNT(*) FROM TT").unwrap();
    assert_eq!(ints(&r, 0), vec![2]);
    db.execute_sql("DROP TABLE TT").unwrap();
    assert!(db.execute_sql("SELECT * FROM TT").is_err());
}

#[test]
fn derived_table_with_column_aliases() {
    let db = db();
    let r = db
        .execute_sql(
            "SELECT X FROM (SELECT EMPNO FROM EMP WHERE EMPNO < 8) AS D (X) ORDER BY X",
        )
        .unwrap();
    assert_eq!(ints(&r, 0), vec![1, 7]);
}

#[test]
fn nulls_ordering_explicit() {
    let db = db();
    let r = db
        .execute_sql("SELECT MGRNO FROM EMP ORDER BY MGRNO ASC NULLS FIRST LIMIT 1")
        .unwrap();
    // No NULL mgrno in the fixture; add one.
    db.execute_sql("INSERT INTO EMP VALUES (99, NULL, 'zed', 1.00, NULL)").unwrap();
    let r2 = db
        .execute_sql("SELECT EMPNO FROM EMP ORDER BY MGRNO ASC NULLS FIRST LIMIT 1")
        .unwrap();
    assert_eq!(ints(&r2, 0), vec![99]);
    let r3 = db
        .execute_sql("SELECT EMPNO FROM EMP ORDER BY MGRNO ASC NULLS LAST LIMIT 1")
        .unwrap();
    assert_eq!(ints(&r3, 0), vec![1]);
    let _ = r;
}

#[test]
fn engine_default_null_order_is_nulls_high() {
    // Without explicit NULLS placement the engine sorts NULLs last on ASC —
    // different from Teradata, which is exactly the subtle defect the
    // explicit-null-ordering rewrite guards against.
    let db = db();
    db.execute_sql("INSERT INTO EMP VALUES (99, NULL, 'zed', 1.00, NULL)").unwrap();
    let r = db
        .execute_sql("SELECT EMPNO FROM EMP ORDER BY MGRNO")
        .unwrap();
    assert_eq!(r.rows.last().unwrap()[0], Datum::Int(99));
}

#[test]
fn engine_rejects_teradata_dialect() {
    let db = db();
    assert!(db.execute_sql("SEL * FROM EMP").is_err());
    assert!(db
        .execute_sql("SELECT * FROM EMP QUALIFY RANK() OVER (ORDER BY EMPNO) <= 1")
        .is_err());
    assert!(db.execute_sql("SELECT TOP 3 * FROM EMP").is_err());
    assert!(db.execute_sql("HELP SESSION").is_err());
    assert!(db
        .execute_sql("MERGE INTO EMP USING EMP ON 1=1 WHEN MATCHED THEN UPDATE SET EMPNO = 1")
        .is_err());
}

#[test]
fn engine_rejects_recursion_and_grouping_sets() {
    let db = db();
    assert!(db
        .execute_sql("WITH RECURSIVE R (N) AS (SELECT 1) SELECT * FROM R")
        .is_err());
    assert!(db
        .execute_sql("SELECT MGRNO, COUNT(*) FROM EMP GROUP BY ROLLUP(MGRNO)")
        .is_err());
}

#[test]
fn engine_rejects_vector_subquery() {
    let db = db();
    assert!(db
        .execute_sql(
            "SELECT * FROM EMP WHERE (EMPNO, MGRNO) > ANY (SELECT EMPNO, MGRNO FROM EMP)",
        )
        .is_err());
}

#[test]
fn not_null_constraint_enforced() {
    let db = db();
    assert!(db.execute_sql("INSERT INTO EMP (MGRNO) VALUES (5)").is_err());
}

#[test]
fn insert_with_column_subset_fills_nulls() {
    let db = db();
    db.execute_sql("INSERT INTO EMP (EMPNO, NAME) VALUES (50, 'pat')").unwrap();
    let r = db
        .execute_sql("SELECT MGRNO, SALARY FROM EMP WHERE EMPNO = 50")
        .unwrap();
    assert_eq!(r.rows[0][0], Datum::Null);
    assert_eq!(r.rows[0][1], Datum::Null);
}

#[test]
fn char_type_coercion_pads() {
    let db = db();
    db.execute_sql("CREATE TABLE CODES (C CHAR(4))").unwrap();
    db.execute_sql("INSERT INTO CODES VALUES ('ab')").unwrap();
    let r = db.execute_sql("SELECT C FROM CODES WHERE C = 'ab'").unwrap();
    assert_eq!(r.rows.len(), 1, "blank-padded comparison must match");
}

#[test]
fn non_correlated_subquery_in_from() {
    let db = db();
    let r = db
        .execute_sql(
            "SELECT AVG_SAL FROM (SELECT AVG(SALARY) AS AVG_SAL FROM EMP) AS A",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn three_valued_logic_null_comparisons() {
    let db = db();
    db.execute_sql("INSERT INTO EMP VALUES (99, NULL, 'zed', NULL, NULL)").unwrap();
    // NULL = NULL is UNKNOWN, excluded by WHERE.
    let r = db
        .execute_sql("SELECT COUNT(*) FROM EMP WHERE MGRNO = MGRNO")
        .unwrap();
    assert_eq!(ints(&r, 0), vec![5]); // the NULL-mgrno row drops out
    // IS NULL catches it.
    let r2 = db
        .execute_sql("SELECT COUNT(*) FROM EMP WHERE MGRNO IS NULL")
        .unwrap();
    assert_eq!(ints(&r2, 0), vec![1]);
}
