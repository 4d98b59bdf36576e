//! The per-statement subquery memo: a subquery's rows are computed once
//! per distinct value of its free (outer) references and reused for every
//! outer row that binds them the same way. An uncorrelated subquery —
//! no free references — runs once per statement.
//!
//! Entries are keyed by the subquery node's address, which is stable
//! while the executing plan is borrowed: execution never builds a
//! temporary plan node, so no address is freed and reused inside one
//! memo's lifetime. The memo is created per statement and dropped with
//! it, so a later statement of the same script sees an earlier one's
//! writes. Every stored row was charged to the statement's ledger when it
//! was produced, so the memo never holds more than the budget admitted.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use hyperq_xtra::datum::Datum;
use hyperq_xtra::rel::RelExpr;
use hyperq_xtra::Row;

use crate::eval::EvalError;
use crate::keys::KeyState;
use crate::scope::{free_refs, ColRef};

/// One outer value in a memo key, compared *structurally*: same variant,
/// same payload (decimal scale included, doubles by bit pattern).
/// `Datum`'s SQL equality would make `Int(1)`, `Dec(1.00)` and
/// `Double(1.0)` one key, yet a subquery can tell them apart (a `CAST` to
/// a string, integer vs decimal division).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyValue {
    Null,
    Bool(bool),
    Int(i64),
    Double(u64),
    Dec(i128, u8),
    Date(i32),
    Timestamp(i64),
    Str(Arc<str>),
    Interval(i32, i32),
}

impl From<Datum> for KeyValue {
    fn from(d: Datum) -> Self {
        match d {
            Datum::Null => KeyValue::Null,
            Datum::Bool(b) => KeyValue::Bool(b),
            Datum::Int(v) => KeyValue::Int(v),
            Datum::Double(v) => KeyValue::Double(v.to_bits()),
            Datum::Dec(d) => KeyValue::Dec(d.mantissa, d.scale),
            Datum::Date(v) => KeyValue::Date(v),
            Datum::Timestamp(v) => KeyValue::Timestamp(v),
            Datum::Str(s) => KeyValue::Str(s),
            Datum::Interval(iv) => KeyValue::Interval(iv.months, iv.days),
        }
    }
}

/// One subquery node: its free references and its results so far.
struct Entry {
    free: Rc<[ColRef]>,
    results: HashMap<Vec<KeyValue>, Rc<Vec<Row>>, KeyState>,
}

#[derive(Default)]
pub(crate) struct SubqueryMemo {
    entries: RefCell<HashMap<*const RelExpr, Entry, KeyState>>,
    executed: Cell<u64>,
    reused: Cell<u64>,
}

impl SubqueryMemo {
    /// The rows of subquery `rel`: stored ones when the outer values of
    /// its free references (read through `resolve`) were seen before,
    /// otherwise `execute()`'s. A free reference `resolve` cannot read
    /// runs `execute` unmemoized, so its error surfaces unchanged; only
    /// `Ok` results are stored.
    pub fn rows(
        &self,
        rel: &RelExpr,
        resolve: impl Fn(&ColRef) -> Option<Datum>,
        execute: impl FnOnce() -> Result<Vec<Row>, EvalError>,
    ) -> Result<Rc<Vec<Row>>, EvalError> {
        let addr = std::ptr::from_ref(rel);
        let free = Rc::clone(
            &self
                .entries
                .borrow_mut()
                .entry(addr)
                .or_insert_with(|| Entry { free: free_refs(rel).into(), results: HashMap::default() })
                .free,
        );
        let key: Option<Vec<KeyValue>> =
            free.iter().map(|c| resolve(c).map(KeyValue::from)).collect();
        if let Some(key) = &key {
            let hit = self.entries.borrow().get(&addr).and_then(|e| e.results.get(key).cloned());
            if let Some(rows) = hit {
                hyperq_governor::checkpoint().map_err(|c| c.to_string())?;
                self.reused.set(self.reused.get() + 1);
                return Ok(rows);
            }
        }
        self.executed.set(self.executed.get() + 1);
        let rows = Rc::new(execute()?);
        if let Some(key) = key {
            if let Some(entry) = self.entries.borrow_mut().get_mut(&addr) {
                entry.results.insert(key, Rc::clone(&rows));
            }
        }
        Ok(rows)
    }

    /// `(executed, reused)` subquery evaluations so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.executed.get(), self.reused.get())
    }
}

#[cfg(test)]
mod tests {
    use hyperq_xtra::datum::Datum;
    use hyperq_xtra::expr::{CmpOp, ScalarExpr};
    use hyperq_xtra::rel::RelExpr;
    use hyperq_xtra::schema::Schema;
    use hyperq_xtra::types::SqlType;

    use super::SubqueryMemo;
    use crate::exec::{execute_rel, Rows};
    use crate::EngineDb;

    fn db(setup: &[&str]) -> EngineDb {
        let db = EngineDb::new();
        for sql in setup {
            db.execute_sql(sql).unwrap();
        }
        db
    }

    /// The statement's rows rendered as SQL strings, and its memo's
    /// `(executed, reused)` counts.
    fn run(db: &EngineDb, sql: &str) -> (Vec<Vec<String>>, (u64, u64)) {
        let (result, counts) = db.execute_counted(sql);
        let rows = result.unwrap().rows;
        (rows.iter().map(|r| r.iter().map(Datum::to_sql_string).collect()).collect(), counts)
    }

    fn strings(rows: &[&[&str]]) -> Vec<Vec<String>> {
        rows.iter().map(|r| r.iter().map(|s| (*s).to_string()).collect()).collect()
    }

    #[test]
    fn numerically_equal_outer_values_of_different_types_are_different_keys() {
        // UNION ALL keeps each branch's representation, so the outer rows
        // carry Int(1), Dec(1.00), Double(1.0) and Int(1) again. Under SQL
        // equality they would share one memo entry and all print "1".
        let db = db(&[
            "CREATE TABLE ONE (X INTEGER)",
            "INSERT INTO ONE VALUES (0)",
            "CREATE TABLE TI (K INTEGER)",
            "INSERT INTO TI VALUES (1)",
            "CREATE TABLE TD (K DECIMAL(5,2))",
            "INSERT INTO TD VALUES (1.00)",
            "CREATE TABLE TF (K FLOAT)",
            "INSERT INTO TF VALUES (1.0)",
        ]);
        let (rows, counts) = run(
            &db,
            "SELECT (SELECT CAST(U.K AS VARCHAR(10)) FROM ONE) AS S FROM \
             (SELECT K FROM TI UNION ALL SELECT K FROM TD UNION ALL SELECT K FROM TF \
              UNION ALL SELECT K FROM TI) AS U",
        );
        assert_eq!(rows, strings(&[&["1"], &["1.00"], &["1.0"], &["1"]]));
        assert_eq!(counts, (3, 1));
    }

    #[test]
    fn null_is_an_outer_value_of_its_own() {
        let db = db(&[
            "CREATE TABLE ONE (X INTEGER)",
            "INSERT INTO ONE VALUES (0)",
            "CREATE TABLE T (K INTEGER)",
            "INSERT INTO T VALUES (1), (NULL), (0), (NULL)",
            "CREATE TABLE S (K INTEGER)",
            "INSERT INTO S VALUES (1), (1), (0)",
        ]);
        let (rows, counts) = run(
            &db,
            "SELECT T.K, (SELECT COUNT(*) FROM S WHERE S.K = T.K) AS N, \
             (SELECT COALESCE(T.K, -1) FROM ONE) AS C FROM T",
        );
        assert_eq!(
            rows,
            strings(&[&["1", "2", "1"], &["NULL", "0", "-1"], &["0", "1", "0"], &["NULL", "0", "-1"]])
        );
        // Two subqueries, three distinct outer values each (1, NULL, 0).
        assert_eq!(counts, (6, 2));
    }

    #[test]
    fn an_inner_name_also_visible_outside_is_not_a_key() {
        // TPC-H Q15's shape: the inner MAX(V) reads R's own V, though the
        // outer row's D.V answers to the bare name V as well.
        let db = db(&[
            "CREATE TABLE R (ID INTEGER, V INTEGER)",
            "INSERT INTO R VALUES (1, 5), (2, 7), (3, 7), (4, 2)",
        ]);
        let (rows, counts) = run(
            &db,
            "SELECT D.ID, D.V FROM R AS D WHERE D.V = (SELECT MAX(V) FROM R) ORDER BY D.ID",
        );
        assert_eq!(rows, strings(&[&["2", "7"], &["3", "7"]]));
        assert_eq!(counts, (1, 3), "uncorrelated: one execution for four outer rows");
    }

    #[test]
    fn a_doubly_nested_subquery_keys_on_the_outermost_row() {
        let db = db(&[
            "CREATE TABLE T (K INTEGER, V INTEGER)",
            "INSERT INTO T VALUES (1, 10), (2, 20), (1, 20), (1, 10)",
            "CREATE TABLE S (K INTEGER)",
            "INSERT INTO S VALUES (1), (2), (1)",
            "CREATE TABLE U (K INTEGER, V INTEGER)",
            "INSERT INTO U VALUES (1, 10), (2, 10)",
        ]);
        let (rows, counts) = run(
            &db,
            "SELECT T.K, T.V, (SELECT COUNT(*) FROM S WHERE S.K = T.K AND \
               EXISTS (SELECT * FROM U WHERE U.K = S.K AND U.V = T.V)) AS N FROM T",
        );
        assert_eq!(
            rows,
            strings(&[&["1", "10", "2"], &["2", "20", "0"], &["1", "20", "0"], &["1", "10", "2"]])
        );
        // Middle: keyed on (T.K, T.V) — three distinct of four rows. Inner:
        // keyed on (S.K, T.V) — runs for (1,10), (2,20), (1,20), and the
        // second S row with K = 1 reuses within each middle execution.
        assert_eq!(counts, (3 + 3, 1 + 2));
    }

    #[test]
    fn an_unresolvable_free_reference_runs_unmemoized() {
        // σ[E.X = NOPE.Y](E) under a one-row projection: no scope binds
        // NOPE.Y, so the memo cannot build a key and runs the plan as is.
        // Over an empty E the predicate is never evaluated and the scalar
        // subquery is NULL; over a non-empty E it fails as it always did.
        let db = db(&["CREATE TABLE E (X INTEGER)"]);
        let e = db.table_def("E").unwrap().schema(Some("E"));
        let sub = RelExpr::Project {
            input: Box::new(RelExpr::Select {
                input: Box::new(RelExpr::Get { table: "E".into(), alias: Some("E".into()), schema: e }),
                predicate: ScalarExpr::cmp(
                    CmpOp::Eq,
                    ScalarExpr::column(Some("E"), "X", SqlType::Integer),
                    ScalarExpr::column(Some("NOPE"), "Y", SqlType::Integer),
                ),
            }),
            exprs: vec![(ScalarExpr::column(Some("E"), "X", SqlType::Integer), "X".into())],
        };
        let plan = RelExpr::Project {
            input: Box::new(RelExpr::Values { rows: vec![vec![]], schema: Schema::empty() }),
            exprs: vec![(ScalarExpr::ScalarSubquery(Box::new(sub)), "S".into())],
        };
        let memo = SubqueryMemo::default();
        assert_eq!(execute_rel(&plan, &db, &memo, &[]).map(Rows::into_vec), Ok(vec![vec![Datum::Null]]));
        assert_eq!(memo.counts(), (1, 0));

        db.execute_sql("INSERT INTO E VALUES (1)").unwrap();
        let err = execute_rel(&plan, &db, &SubqueryMemo::default(), &[]).unwrap_err();
        assert_eq!(err, "column NOPE.Y not found at execution time");
    }

    #[test]
    fn update_reads_the_pre_update_table_once() {
        let db = db(&["CREATE TABLE T (C INTEGER)", "INSERT INTO T VALUES (1), (2), (3)"]);
        let (_, counts) = db.execute_counted("UPDATE T SET C = C + (SELECT MAX(C) FROM T)");
        assert_eq!(counts, (1, 2));
        let (rows, _) = run(&db, "SELECT C FROM T ORDER BY C");
        assert_eq!(rows, strings(&[&["4"], &["5"], &["6"]]));
    }

    #[test]
    fn each_statement_of_a_script_has_its_own_memo() {
        let db = db(&[
            "CREATE TABLE ONE (X INTEGER)",
            "INSERT INTO ONE VALUES (0)",
            "CREATE TABLE T (C INTEGER)",
            "INSERT INTO T VALUES (1), (2), (3)",
        ]);
        let count = "SELECT (SELECT COUNT(*) FROM T) AS N FROM ONE";
        assert_eq!(run(&db, count).0, strings(&[&["3"]]));
        let r = db.execute_sql(&format!("INSERT INTO T VALUES (9); {count}")).unwrap();
        assert_eq!(r.rows, vec![vec![Datum::Int(4)]]);
    }
}
