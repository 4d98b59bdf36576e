//! The engine's subquery memo, observed through its counter
//! `hyperq_engine_subqueries_total`. The counter is process-wide, so this
//! check lives in a file of its own: no concurrently running test can
//! move it between the reads.

use std::sync::Arc;

use hyperq::core::{Backend, HyperQBuilder};
use hyperq::engine::EngineDb;
use hyperq::obs::ObsContext;
use hyperq::workload::tpch;

/// `(executed, reused)` subquery evaluations so far, process-wide.
fn counts() -> (u64, u64) {
    let metrics = &ObsContext::global().metrics;
    let read = |outcome| {
        metrics.counter_value(
            "hyperq_engine_subqueries_total",
            &[("engine", "SimWH"), ("outcome", outcome)],
        )
    };
    (read("executed"), read("reused"))
}

fn single_int(db: &EngineDb, sql: &str) -> u64 {
    db.execute_sql(sql).unwrap().rows[0][0].to_i64().unwrap() as u64
}

#[test]
fn each_subquery_runs_once_per_distinct_outer_value() {
    // Seed 28 at SF 0.002: all three queries have outer rows that reach
    // their subquery, and Q17's span three parts (with seed 1234 no
    // supplier is German, so Q11's HAVING never runs).
    let db = Arc::new(EngineDb::new());
    for ddl in tpch::ddl() {
        db.execute_sql(&ddl).unwrap();
    }
    for (table, rows) in tpch::generate(0.002, 28).tables() {
        db.load_rows(table, rows).unwrap();
    }
    // Q17's outer rows: lineitems of the parts its WHERE keeps. Counted
    // directly on the engine, by statements with no subquery.
    let q17_outer = "FROM LINEITEM L INNER JOIN PART P ON P.P_PARTKEY = L.L_PARTKEY \
                     WHERE P.P_BRAND = 'Brand#23' AND P.P_CONTAINER = 'MED BOX'";
    let outer_rows = single_int(&db, &format!("SELECT COUNT(*) {q17_outer}"));
    let distinct_parts = single_int(&db, &format!("SELECT COUNT(DISTINCT P.P_PARTKEY) {q17_outer}"));
    assert!(outer_rows > distinct_parts && distinct_parts > 1, "{outer_rows} / {distinct_parts}");

    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();
    let mut run = |n: usize| {
        let (executed, reused) = counts();
        hq.run_one(tpch::query(n)).unwrap_or_else(|e| panic!("Q{n}: {e}"));
        let (executed_after, reused_after) = counts();
        (executed_after - executed, reused_after - reused)
    };

    let (executed, reused) = run(17);
    assert_eq!(executed, distinct_parts, "Q17 runs AVG(L_QUANTITY) once per P_PARTKEY");
    assert_eq!(executed + reused, outer_rows, "Q17 evaluates its subquery once per outer row");
    for n in [11, 15] {
        let (executed, reused) = run(n);
        assert_eq!(executed, 1, "Q{n}'s subquery is uncorrelated");
        assert!(reused > 0, "Q{n} reused nothing");
    }
}
