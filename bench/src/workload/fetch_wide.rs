//! `fetch_wide` — large result sets off a warm plan.
//!
//! Five statements, round-robin: all of LINEITEM (16 columns), all of
//! ORDERS (9 columns), a two-column and a four-column projection of
//! LINEITEM, and a range of LINEITEM whose bounds the seed draws from eight
//! fixed windows. (Five, not the issue's four: with an even number of
//! equally frequent statements the median falls on the edge between two of
//! them and reports the slowest sample of one; with five it is the median
//! of the middle one.) Scan and
//! translation are trivial; TDF encoding, the Result Converter, frame
//! writes and the client's row decoding do the work. It shares the wire
//! layer with `short_mix` but uses it for bulk instead of round trips, so a
//! latency fix that costs streaming throughput (or the reverse) shows.

use hyperq_engine::EngineDb;

use super::{load_tpch, read_goldens, Class, Size, Stmt, Workload};
use crate::rng::Rng;
use crate::verify::{Expect, GoldenTable};

const WINDOWS: u64 = 8;

pub struct FetchWide {
    size: Size,
    templates: Vec<String>,
    /// ORDERS rows; order keys run from 1 to this.
    orders: u64,
    goldens: GoldenTable,
}

impl FetchWide {
    pub fn new(size: Size) -> FetchWide {
        let templates = [
            "lineitem_all",
            "orders_all",
            "lineitem_2col",
            "lineitem_4col",
            "lineitem_range",
        ]
        .map(String::from)
        .to_vec();
        // The generator's own sizing rule; `load` checks it still holds.
        let orders = ((1_500_000.0 * size.tpch_sf) as u64).max(100);
        let goldens = read_goldens(&format!("fetch_wide.{}.tsv", size.name));
        FetchWide {
            size,
            templates,
            orders,
            goldens,
        }
    }

    /// Window `k` of eight: half the key range, starting a sixteenth
    /// further on each time, so every window returns about half the table.
    fn window(&self, k: u64) -> (u64, u64) {
        let lo = 1 + k * self.orders / (2 * WINDOWS);
        (lo, lo + self.orders / 2)
    }
}

impl Workload for FetchWide {
    fn name(&self) -> &'static str {
        "fetch_wide"
    }

    /// A 10 s window completes about a hundred statements: p85 keeps fifteen
    /// beyond it, p90 ten only just. It also falls inside the slowest fifth
    /// (the full LINEITEM fetches), not on the edge between two statements.
    fn tail_quantile(&self) -> f64 {
        0.85
    }

    fn templates(&self) -> &[String] {
        &self.templates
    }

    fn load(&self, db: &EngineDb) {
        load_tpch(db, self.size.tpch_sf);
        let count = db
            .execute_sql("SELECT COUNT(*), MAX(O_ORDERKEY) FROM ORDERS")
            .expect("count");
        let row = &count.rows[0];
        assert_eq!(
            (row[0].to_i64(), row[1].to_i64()),
            (Some(self.orders as i64), Some(self.orders as i64)),
            "fetch_wide's range windows assume order keys 1..=ORDERS"
        );
    }

    fn session_setup(&self) -> Vec<String> {
        Vec::new()
    }

    fn pass(&mut self, seed: u64, index: u64) -> Vec<Stmt> {
        // The seed fixes one order of the eight windows; passes cycle
        // through it, so any eight consecutive passes fetch the same rows.
        let mut order: Vec<u64> = (0..WINDOWS).collect();
        Rng::for_stream(seed, 0).shuffle(&mut order);
        let (lo, hi) = self.window(order[(index % WINDOWS) as usize]);
        [
            "SEL * FROM LINEITEM".to_string(),
            "SEL * FROM ORDERS".to_string(),
            "SEL L_ORDERKEY, L_EXTENDEDPRICE FROM LINEITEM".to_string(),
            "SEL L_ORDERKEY, L_QUANTITY, L_EXTENDEDPRICE, L_SHIPDATE FROM LINEITEM".to_string(),
            format!("SEL * FROM LINEITEM WHERE L_ORDERKEY BETWEEN {lo} AND {hi}"),
        ]
        .into_iter()
        .enumerate()
        .map(|(template, sql)| Stmt {
            sql,
            template,
            class: Class::Read,
            expect: Expect::Golden,
        })
        .collect()
    }

    /// All eight windows, so the goldens cover whatever a seed draws.
    fn golden_statements(&mut self) -> Vec<Stmt> {
        let mut stmts = self.pass(0, 0);
        let range = stmts.pop().expect("five statements");
        stmts.extend((0..WINDOWS).map(|k| {
            let (lo, hi) = self.window(k);
            Stmt {
                sql: format!("SEL * FROM LINEITEM WHERE L_ORDERKEY BETWEEN {lo} AND {hi}"),
                ..range.clone()
            }
        }));
        stmts
    }

    fn golden_file(&self) -> Option<String> {
        Some(format!("fetch_wide.{}.tsv", self.size.name))
    }

    fn goldens(&self) -> &GoldenTable {
        &self.goldens
    }
}
