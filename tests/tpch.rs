//! TPC-H through the full stack: Teradata-dialect queries via Hyper-Q,
//! executed on the SimWH engine over generated data.

use std::sync::Arc;

use hyperq::core::{Backend, HyperQBuilder, Request};
use hyperq::engine::EngineDb;
use hyperq::workload::tpch;

/// Tiny scale for test speed; the benchmark harness uses larger factors.
const SCALE: f64 = 0.002;

fn load() -> Arc<EngineDb> {
    load_seed(1234)
}

fn load_seed(seed: u64) -> Arc<EngineDb> {
    let db = Arc::new(EngineDb::new());
    for ddl in tpch::ddl() {
        db.execute_sql(&ddl).unwrap();
    }
    for (table, rows) in tpch::generate(SCALE, seed).tables() {
        db.load_rows(table, rows).unwrap();
    }
    db
}

#[test]
fn all_22_queries_run_through_hyperq() {
    let db = load();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();
    for (n, sql) in tpch::queries() {
        let outcome = hq
            .run_one(sql)
            .unwrap_or_else(|e| panic!("Q{n} failed: {e}"));
        // Every query is an analytical SELECT: it must produce a schema.
        assert!(
            !outcome.result.schema.is_empty(),
            "Q{n} produced no result schema"
        );
        assert!(
            outcome.timings.translation.as_nanos() > 0,
            "Q{n} recorded no translation time"
        );
    }
}

/// One block per query: a `Qn` line with the row count and column names,
/// then one tab-separated line per row in result order. `to_sql_string`
/// keeps representations apart (`1`, `1.00`, `1.0`) and prints doubles in
/// shortest round-trip form, so any change to a value shows.
fn render_results(db: &Arc<EngineDb>) -> String {
    let mut hq = HyperQBuilder::for_target(Arc::clone(db) as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();
    let mut out = String::new();
    for (n, sql) in tpch::queries() {
        let result = hq.run_one(sql).unwrap_or_else(|e| panic!("Q{n} failed: {e}")).result;
        let columns: Vec<&str> = result.schema.fields.iter().map(|f| f.name.as_str()).collect();
        out.push_str(&format!("Q{n}\t{} rows\t{}\n", result.rows.len(), columns.join(",")));
        for row in &result.rows {
            let cells: Vec<String> = row.iter().map(hyperq::xtra::Datum::to_sql_string).collect();
            out.push_str(&cells.join("\t"));
            out.push('\n');
        }
    }
    out
}

#[test]
fn all_22_result_sets_match_the_snapshot() {
    // The result-level gate for engine optimizations: every row of every
    // query, compared with a snapshot captured before the subquery memo
    // existed. Seed 28 joins the suite's seed 1234 because with 1234
    // alone a memo that ran each correlated subquery (Q2, Q17, Q20) once
    // per statement would still match every result. A mismatch writes
    // the fresh rendering next to the test binaries so the two can be
    // diffed.
    let mut fresh = String::new();
    for seed in [1234, 28] {
        fresh.push_str(&format!("-- seed {seed}\n"));
        fresh.push_str(&render_results(&load_seed(seed)));
    }
    let golden = include_str!("snapshots/tpch_results.txt");
    if fresh != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tpch_results.txt");
        std::fs::write(&path, &fresh).unwrap();
        let first_diff = golden.lines().zip(fresh.lines()).position(|(g, f)| g != f);
        panic!(
            "TPC-H results drifted from tests/snapshots/tpch_results.txt (first differing \
             line: {first_diff:?}); fresh rendering written to {}",
            path.display()
        );
    }
}

#[test]
fn subquery_heavy_queries_fit_a_56_mib_budget() {
    // The ledger counts every charge, so a subquery re-run per outer row
    // is charged per outer row. With seed 28 all three queries reach their
    // subquery and Q17's outer rows span three parts. Run once per
    // distinct outer value, each needs at most 29 MB of charges; re-run
    // per outer row they needed 113 MB (Q15), 169 MB (Q11) and 543 MB
    // (Q17).
    let db = load_seed(28);
    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();
    for n in [11, 15, 17] {
        hq.run(Request::script(tpch::query(n)).memory_budget(56 << 20))
            .unwrap_or_else(|e| panic!("Q{n} under a 56 MiB budget: {e}"));
    }
}

#[test]
fn q1_aggregates_are_plausible() {
    let db = load();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();
    let o = hq.run_one(tpch::query(1)).unwrap();
    // Four flag/status groups at most (R/F, A/F, N/O, N/F).
    assert!((1..=4).contains(&o.result.rows.len()), "{:?}", o.result.rows.len());
    // COUNT_ORDER column (last) sums to the number of lineitems within the
    // date filter — which is nearly all of them.
    let total: i64 = o
        .result
        .rows
        .iter()
        .map(|r| r.last().unwrap().to_i64().unwrap())
        .sum();
    let lineitems = db.execute_sql("SELECT COUNT(*) FROM LINEITEM").unwrap().rows[0][0]
        .to_i64()
        .unwrap();
    assert!(total > 0 && total <= lineitems);
}

#[test]
fn q6_revenue_matches_direct_engine_execution() {
    // The virtualized result must be identical to running the equivalent
    // ANSI query directly on the target.
    let db = load();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();
    let via_hyperq = hq.run_one(tpch::query(6)).unwrap();
    let direct = db
        .execute_sql(
            "SELECT SUM(L_EXTENDEDPRICE * L_DISCOUNT) AS REVENUE FROM LINEITEM \
             WHERE L_SHIPDATE >= DATE '1994-01-01' \
             AND L_SHIPDATE < (DATE '1994-01-01' + INTERVAL '1' YEAR) \
             AND L_DISCOUNT BETWEEN 0.05 AND 0.07 AND L_QUANTITY < 24",
        )
        .unwrap();
    assert_eq!(via_hyperq.result.rows, direct.rows);
}

#[test]
fn q4_exists_decorrelation_gives_same_answer_as_naive() {
    // Compare the optimized EXISTS path against a manual semi-join-free
    // formulation (IN over DISTINCT keys).
    let db = load();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();
    let q4 = hq.run_one(tpch::query(4)).unwrap();
    let manual = db
        .execute_sql(
            "SELECT O_ORDERPRIORITY, COUNT(*) AS ORDER_COUNT FROM ORDERS \
             WHERE O_ORDERDATE >= DATE '1993-07-01' \
             AND O_ORDERDATE < (DATE '1993-07-01' + INTERVAL '3' MONTH) \
             AND O_ORDERKEY IN (SELECT DISTINCT L_ORDERKEY FROM LINEITEM \
                                WHERE L_COMMITDATE < L_RECEIPTDATE) \
             GROUP BY O_ORDERPRIORITY ORDER BY O_ORDERPRIORITY",
        )
        .unwrap();
    assert_eq!(q4.result.rows, manual.rows);
}

#[test]
fn q21_anti_join_consistency() {
    let db = load();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();
    let o = hq.run_one(tpch::query(21)).unwrap();
    // Sanity: counts positive, sorted descending.
    let counts: Vec<i64> = o
        .result
        .rows
        .iter()
        .map(|r| r[1].to_i64().unwrap())
        .collect();
    for w in counts.windows(2) {
        assert!(w[0] >= w[1], "NUMWAIT must be sorted descending: {counts:?}");
    }
}

#[test]
fn tpch_features_tracked() {
    let db = load();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();
    let o1 = hq.run_one(tpch::query(1)).unwrap();
    assert!(o1.features.contains(hyperq::xtra::Feature::KeywordShortcut));
    assert!(o1.features.contains(hyperq::xtra::Feature::OrdinalGroupBy));
    assert!(o1.features.contains(hyperq::xtra::Feature::DateArithmetic));
}

#[test]
fn q1_matches_direct_rust_computation() {
    // Correctness anchor: recompute Q1's aggregates in plain Rust from the
    // generated rows and compare with the full-stack result.
    use hyperq::xtra::datum::{parse_date, Datum};
    use std::collections::BTreeMap;

    let data = hyperq::workload::tpch::generate(SCALE, 1234);
    let cutoff = parse_date("1998-12-01").unwrap() - 90;

    #[derive(Default)]
    struct Acc {
        qty: i128,          // scale 2
        base: i128,         // scale 2
        disc_price: i128,   // scale 4 (price*(1-disc))
        count: i64,
    }
    let mut groups: BTreeMap<(String, String), Acc> = BTreeMap::new();
    for row in &data.lineitem {
        let Datum::Date(shipdate) = row[10] else {
            panic!();
        };
        if shipdate > cutoff {
            continue;
        }
        let flag = row[8].to_sql_string();
        let status = row[9].to_sql_string();
        let qty = match &row[4] {
            Datum::Dec(d) => d.rescale(2).mantissa,
            _ => panic!(),
        };
        let price = match &row[5] {
            Datum::Dec(d) => d.rescale(2).mantissa,
            _ => panic!(),
        };
        let disc = match &row[6] {
            Datum::Dec(d) => d.rescale(2).mantissa, // 0.00..0.10 → cents
            _ => panic!(),
        };
        let acc = groups.entry((flag, status)).or_default();
        acc.qty += qty;
        acc.base += price;
        acc.disc_price += price * (100 - disc); // scale 2+2 = 4
        acc.count += 1;
    }

    let db = load();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();
    let o = hq.run_one(tpch::query(1)).unwrap();
    assert_eq!(o.result.rows.len(), groups.len());
    for row in &o.result.rows {
        let key = (row[0].to_sql_string(), row[1].to_sql_string());
        let acc = groups.get(&key).unwrap_or_else(|| panic!("group {key:?}"));
        let sum_qty = match &row[2] {
            Datum::Dec(d) => d.rescale(2).mantissa,
            other => panic!("{other:?}"),
        };
        assert_eq!(sum_qty, acc.qty, "SUM_QTY for {key:?}");
        let sum_base = match &row[3] {
            Datum::Dec(d) => d.rescale(2).mantissa,
            other => panic!("{other:?}"),
        };
        assert_eq!(sum_base, acc.base, "SUM_BASE_PRICE for {key:?}");
        let sum_disc = match &row[4] {
            Datum::Dec(d) => d.rescale(4).mantissa,
            other => panic!("{other:?}"),
        };
        assert_eq!(sum_disc, acc.disc_price, "SUM_DISC_PRICE for {key:?}");
        assert_eq!(row[9].to_i64().unwrap(), acc.count, "COUNT_ORDER for {key:?}");
        // AVG_QTY = SUM_QTY / COUNT within rounding.
        let avg_qty = row[6].to_f64().unwrap();
        let expect = acc.qty as f64 / 100.0 / acc.count as f64;
        assert!((avg_qty - expect).abs() < 0.01, "AVG_QTY {avg_qty} vs {expect}");
    }

    // The same result must arrive bit-identically over the wire protocol.
    let handle = hyperq::wire::Gateway::spawn(
        Arc::clone(&db) as Arc<dyn Backend>,
        hyperq::wire::GatewayConfig::default(),
    )
    .unwrap();
    let mut client = hyperq::wire::Client::connect(handle.addr, "APP", "secret").unwrap();
    let over_wire = client.run(tpch::query(1)).unwrap();
    assert_eq!(over_wire[0].rows.len(), o.result.rows.len());
    for (a, b) in over_wire[0].rows.iter().zip(o.result.rows.iter()) {
        for (x, y) in a.iter().zip(b.iter()) {
            match (x, y) {
                (Datum::Dec(p), Datum::Dec(q)) => assert_eq!(p, q),
                _ => assert_eq!(x.to_sql_string(), y.to_sql_string()),
            }
        }
    }
    handle.shutdown();
}
