//! `tpch_seq` — Figure 9a: the 22 TPC-H queries in the Teradata dialect,
//! one after the other, in an order the seed shuffles per pass.
//!
//! The engine does nearly all the work here: translation is a warm cache
//! hit and the largest result has a few hundred rows. An engine change must
//! show on this workload; a hit-path or wire change must show nothing
//! beyond its fixed saving per statement.

use hyperq_engine::EngineDb;
use hyperq_workload::tpch;

use super::{load_tpch, read_goldens, Class, Size, Stmt, Workload};
use crate::rng::Rng;
use crate::verify::{Expect, GoldenTable};

pub struct TpchSeq {
    size: Size,
    templates: Vec<String>,
    goldens: GoldenTable,
}

impl TpchSeq {
    pub fn new(size: Size) -> TpchSeq {
        let templates = (1..=tpch::QUERY_COUNT).map(|n| format!("Q{n}")).collect();
        let goldens = read_goldens(&format!("tpch_seq.{}.tsv", size.name));
        TpchSeq {
            size,
            templates,
            goldens,
        }
    }
}

impl Workload for TpchSeq {
    fn name(&self) -> &'static str {
        "tpch_seq"
    }

    /// Two passes give 44 samples: p75 keeps 11 beyond it, p90 only 4.
    fn tail_quantile(&self) -> f64 {
        0.75
    }

    fn templates(&self) -> &[String] {
        &self.templates
    }

    fn load(&self, db: &EngineDb) {
        load_tpch(db, self.size.tpch_sf);
    }

    fn session_setup(&self) -> Vec<String> {
        Vec::new()
    }

    fn pass(&mut self, seed: u64, index: u64) -> Vec<Stmt> {
        let mut order: Vec<usize> = (1..=tpch::QUERY_COUNT).collect();
        Rng::for_stream(seed, index).shuffle(&mut order);
        order
            .into_iter()
            .map(|n| Stmt {
                sql: tpch::query(n).to_string(),
                template: n - 1,
                class: Class::Read,
                expect: Expect::Golden,
            })
            .collect()
    }

    fn golden_file(&self) -> Option<String> {
        Some(format!("tpch_seq.{}.tsv", self.size.name))
    }

    fn goldens(&self) -> &GoldenTable {
        &self.goldens
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use hyperq_core::{targets, Backend, HyperQBuilder, ObsContext};
    use hyperq_xtra::datum::parse_date;
    use hyperq_xtra::{Datum, Row};

    use super::*;
    use crate::verify::digest;
    use crate::workload::DATA_SEED;

    /// The committed digests are only as good as the results they were
    /// taken from. Tie four of them to answers obtained another way, as
    /// `tests/tpch.rs` does for the product: Q1 to a computation over the
    /// generated rows, Q6 and Q4 to equivalent ANSI queries run on the
    /// engine directly, Q21 to its own ordering.
    #[test]
    fn goldens_agree_with_independent_answers() {
        let workload = TpchSeq::new(Size::SMOKE);
        let db = Arc::new(EngineDb::new());
        workload.load(&db);
        let mut hq =
            HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, targets::simwh())
                .obs(ObsContext::new())
                .build();
        let mut golden_rows = |n: usize| -> Vec<Row> {
            let sql = tpch::query(n);
            let rows = hq
                .run_one(sql)
                .unwrap_or_else(|e| panic!("Q{n}: {e}"))
                .result
                .rows;
            let d = digest([(rows.as_slice(), rows.len() as u64)]);
            Expect::Golden
                .check(sql, &d, workload.goldens())
                .unwrap_or_else(|e| panic!("{e}"));
            rows
        };

        let q6 = golden_rows(6);
        let direct = db
            .execute_sql(
                "SELECT SUM(L_EXTENDEDPRICE * L_DISCOUNT) AS REVENUE FROM LINEITEM \
                 WHERE L_SHIPDATE >= DATE '1994-01-01' \
                 AND L_SHIPDATE < (DATE '1994-01-01' + INTERVAL '1' YEAR) \
                 AND L_DISCOUNT BETWEEN 0.05 AND 0.07 AND L_QUANTITY < 24",
            )
            .unwrap();
        assert_eq!(q6, direct.rows, "Q6");

        let q4 = golden_rows(4);
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
        assert_eq!(q4, manual.rows, "Q4");

        let waits: Vec<i64> = golden_rows(21)
            .iter()
            .filter_map(|r| r[1].to_i64())
            .collect();
        assert!(
            waits.windows(2).all(|w| w[0] >= w[1]),
            "Q21 NUMWAIT not descending: {waits:?}"
        );

        // Q1: SUM_QTY (hundredths) and COUNT_ORDER per (flag, status).
        let cutoff = parse_date("1998-12-01").unwrap() - 90;
        let hundredths = |d: &Datum| match d {
            Datum::Dec(d) => d.rescale(2).mantissa,
            other => panic!("not a decimal: {other:?}"),
        };
        let mut groups: BTreeMap<(String, String), (i128, i64)> = BTreeMap::new();
        for row in &tpch::generate(Size::SMOKE.tpch_sf, DATA_SEED).lineitem {
            if matches!(row[10], Datum::Date(shipped) if shipped <= cutoff) {
                let g = groups
                    .entry((row[8].to_sql_string(), row[9].to_sql_string()))
                    .or_default();
                g.0 += hundredths(&row[4]);
                g.1 += 1;
            }
        }
        let q1 = golden_rows(1);
        assert_eq!(q1.len(), groups.len(), "Q1 groups");
        for row in &q1 {
            let key = (row[0].to_sql_string(), row[1].to_sql_string());
            let (qty, count) = groups[&key];
            assert_eq!(hundredths(&row[2]), qty, "Q1 SUM_QTY for {key:?}");
            assert_eq!(row[9].to_i64(), Some(count), "Q1 COUNT_ORDER for {key:?}");
        }
    }
}
