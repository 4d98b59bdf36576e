//! `churn_mix` — everything that never hits the translation cache, with
//! writes beside reads.
//!
//! One cycle sends ad-hoc reads whose fingerprints never repeat (a column
//! subset times a predicate shape, so `populate` runs every time and the
//! LRU fills), a single-row INSERT and a multi-statement batch of them, an
//! UPDATE, a MERGE (which Hyper-Q decomposes), a SET-table insert, a
//! `BT … ET` transaction, a volatile table and a global temporary table
//! created, used and dropped, a macro `EXEC` and an emulated recursive
//! query. The fixed writes carry the cycle number in the shape of an
//! always-true guard, so they miss too; the rest takes emulation paths the
//! cache never sees. Every cycle undoes its own writes, so table sizes stay
//! put however long the run is.
//!
//! Parse, bind, transform, serialize, emulation and the backend decorator
//! stack do the work here, with several backend calls per client
//! statement; the cache hit path does none. A hit-path gain predicts no
//! change on this workload; a change that slows DML, temp tables or the
//! session context shows here and nowhere else.

use std::collections::HashSet;

use hyperq_engine::EngineDb;
use hyperq_xtra::Datum;

use super::{insert_values, Class, Size, Stmt, Workload, DATA_SEED};
use crate::rng::Rng;
use crate::verify::{digest, Expect, GoldenTable};

const FACT_ROWS: usize = 1000;
const FACT_COLS: usize = 8;
const ACCOUNTS: i64 = 200;
const REGIONS: i64 = 8;
/// Feed rows: the first half match accounts 1..=20, the rest are new.
const FEED_ROWS: i64 = 40;
const EMPLOYEES: i64 = 63;
const ADHOC_PER_CYCLE: usize = 16;

const TEMPLATES: [&str; 23] = [
    "adhoc_read",
    "insert_single",
    "insert_batch",
    "update_region",
    "merge_feed",
    "delete_merged",
    "update_region_undo",
    "insert_set_table",
    "delete_set_table",
    "bt",
    "update_in_txn",
    "update_in_txn_undo",
    "et",
    "create_volatile",
    "insert_select_volatile",
    "count_volatile",
    "drop_volatile",
    "insert_gtt",
    "count_gtt",
    "delete_gtt",
    "exec_macro",
    "recursive_reports",
    "delete_log",
];

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    Between,
    In3,
}

const OPS: [Op; 8] = [
    Op::Lt,
    Op::Le,
    Op::Gt,
    Op::Ge,
    Op::Eq,
    Op::Ne,
    Op::Between,
    Op::In3,
];

#[derive(Clone)]
struct Atom {
    col: usize,
    op: Op,
    lits: [i64; 3],
}

impl Atom {
    fn sql(&self) -> String {
        let c = format!("F{}", self.col);
        let [a, b, d] = self.lits;
        match self.op {
            Op::Lt => format!("{c} < {a}"),
            Op::Le => format!("{c} <= {a}"),
            Op::Gt => format!("{c} > {a}"),
            Op::Ge => format!("{c} >= {a}"),
            Op::Eq => format!("{c} = {a}"),
            Op::Ne => format!("{c} <> {a}"),
            Op::Between => format!("{c} BETWEEN {} AND {}", a.min(b), a.max(b)),
            Op::In3 => format!("{c} IN ({a}, {b}, {d})"),
        }
    }

    fn holds(&self, row: &[i64; FACT_COLS]) -> bool {
        let v = row[self.col];
        let [a, b, d] = self.lits;
        match self.op {
            Op::Lt => v < a,
            Op::Le => v <= a,
            Op::Gt => v > a,
            Op::Ge => v >= a,
            Op::Eq => v == a,
            Op::Ne => v != a,
            Op::Between => a.min(b) <= v && v <= a.max(b),
            Op::In3 => v == a || v == b || v == d,
        }
    }
}

pub struct ChurnMix {
    size: Size,
    templates: Vec<String>,
    facts: Vec<[i64; FACT_COLS]>,
    /// `(count, sum of BAL)` per region, as loaded and as every cycle
    /// leaves it.
    region_totals: Vec<(i64, i64)>,
    /// Shapes of the ad-hoc reads handed out so far, so none repeats.
    seen_shapes: HashSet<u64>,
    /// Cycles generated so far; every cycle's writes carry it in their shape.
    cycles: u64,
    /// Empty: every expectation is computed, none is read from a file.
    goldens: GoldenTable,
}

/// A conjunction of comparisons that every row passes, whose *shape* spells
/// `n` (digits in base 3 × columns, one comparison per digit). Appended to
/// the WHERE clause of the cycle's fixed writes, it gives each cycle's
/// UPDATE and DELETE a fingerprint no earlier cycle had, without changing
/// which rows they touch. Columns must hold nothing below zero.
fn unique_guard(mut n: u64, cols: &[&str]) -> String {
    const OPS: [&str; 3] = [">", ">=", "<>"];
    let base = (cols.len() * OPS.len()) as u64;
    let mut guard = String::new();
    loop {
        let digit = (n % base) as usize;
        guard.push_str(&format!(
            " AND {} {} -1",
            cols[digit / OPS.len()],
            OPS[digit % OPS.len()]
        ));
        n /= base;
        if n == 0 {
            return guard;
        }
    }
}

/// The same idea for an INSERT's value: `v` followed by operations that
/// leave it unchanged, their sequence spelling `n` in base 3.
fn unique_value(v: i64, mut n: u64) -> String {
    const OPS: [&str; 3] = [" + 0", " - 0", " * 1"];
    let mut expr = v.to_string();
    loop {
        expr.push_str(OPS[(n % 3) as usize]);
        n /= 3;
        if n == 0 {
            return expr;
        }
    }
}

fn fact_rows() -> Vec<[i64; FACT_COLS]> {
    let mut r = Rng::for_stream(DATA_SEED, 0x43_4855_524e);
    (0..FACT_ROWS as i64)
        .map(|id| {
            [
                id,
                r.range(0, 99),
                r.range(0, 999),
                r.range(0, 9),
                r.range(-500, 500),
                r.range(0, 49),
                r.range(0, 9999),
                r.range(0, 1),
            ]
        })
        .collect()
}

/// `(ACCT_ID, BAL, REGION)` of the accounts table.
fn account_rows() -> Vec<(i64, i64, i64)> {
    let mut r = Rng::for_stream(DATA_SEED, 0x4143_4354);
    (1..=ACCOUNTS)
        .map(|id| (id, r.range(100, 9_999), id % REGIONS))
        .collect()
}

impl ChurnMix {
    pub fn new(size: Size) -> ChurnMix {
        let mut region_totals = vec![(0, 0); REGIONS as usize];
        for (_, bal, region) in account_rows() {
            region_totals[region as usize].0 += 1;
            region_totals[region as usize].1 += bal;
        }
        ChurnMix {
            size,
            templates: TEMPLATES.map(String::from).to_vec(),
            facts: fact_rows(),
            region_totals,
            seen_shapes: HashSet::new(),
            cycles: 0,
            goldens: GoldenTable::default(),
        }
    }

    /// One ad-hoc read: a projection of one to eight columns and a
    /// predicate of one to three comparisons, of a shape not used before.
    fn adhoc_read(&mut self, r: &mut Rng) -> Stmt {
        loop {
            let mask = r.range(1, (1 << FACT_COLS) - 1) as usize;
            let atoms: Vec<Atom> = (0..r.range(1, 3))
                .map(|_| {
                    let col = r.below(FACT_COLS as u64) as usize;
                    let op = *r.pick(&OPS);
                    // Literals come from the column's own values, so
                    // selectivity runs from a single row to all of them.
                    let lits = [0; 3].map(|_| self.facts[r.below(FACT_ROWS as u64) as usize][col]);
                    Atom { col, op, lits }
                })
                .collect();
            let ors: Vec<bool> = (1..atoms.len()).map(|_| r.below(2) == 1).collect();

            let mut shape = crate::verify::Fnv::new();
            shape.bytes(&[mask as u8]);
            for a in &atoms {
                shape.bytes(&[a.col as u8, a.op as u8]);
            }
            shape.bytes(&ors.iter().map(|o| *o as u8).collect::<Vec<_>>());
            if !self.seen_shapes.insert(shape.finish()) {
                continue;
            }

            let cols: Vec<usize> = (0..FACT_COLS).filter(|c| mask & (1 << c) != 0).collect();
            let mut predicate = format!("({})", atoms[0].sql());
            for (atom, or) in atoms[1..].iter().zip(&ors) {
                let word = if *or { "OR" } else { "AND" };
                predicate = format!("({predicate} {word} ({}))", atom.sql());
            }
            let holds = |row: &[i64; FACT_COLS]| {
                atoms[1..]
                    .iter()
                    .zip(&ors)
                    .fold(atoms[0].holds(row), |acc, (atom, or)| {
                        if *or {
                            acc || atom.holds(row)
                        } else {
                            acc && atom.holds(row)
                        }
                    })
            };
            let expected: Vec<Vec<Datum>> = self
                .facts
                .iter()
                .filter(|row| holds(row))
                .map(|row| cols.iter().map(|c| Datum::Int(row[*c])).collect())
                .collect();
            let d = digest([(expected.as_slice(), expected.len() as u64)]);
            let list = cols
                .iter()
                .map(|c| format!("F{c}"))
                .collect::<Vec<_>>()
                .join(", ");
            return Stmt {
                sql: format!("SELECT {list} FROM CH_FACTS WHERE {predicate}"),
                template: 0,
                class: Class::AdhocRead,
                expect: Expect::Rows {
                    rows: d.rows,
                    unordered: d.unordered,
                },
            };
        }
    }

    fn cycle(&mut self, r: &mut Rng, out: &mut Vec<Stmt>) {
        let template = |name: &str| {
            TEMPLATES
                .iter()
                .position(|t| *t == name)
                .expect("known template")
        };
        let stmt = |name: &str, class: Class, sql: String, expect: Expect| Stmt {
            sql,
            template: template(name),
            class,
            expect,
        };
        let acks = |counts: &[u64]| Expect::Activity(counts.to_vec());
        let one_int = |v: i64| {
            let rows = vec![vec![Datum::Int(v)]];
            let d = digest([(rows.as_slice(), 1)]);
            Expect::Rows {
                rows: 1,
                unordered: d.unordered,
            }
        };

        self.cycles += 1;
        let n = self.cycles;
        let acct_guard = unique_guard(n, &["ACCT_ID", "BAL", "REGION"]);
        let reads: Vec<Stmt> = (0..ADHOC_PER_CYCLE).map(|_| self.adhoc_read(r)).collect();
        let mut reads = reads.into_iter();

        // Reads are interleaved with the writes in fours, as a reporting
        // application beside a loader would.
        out.extend(reads.by_ref().take(4));
        let (k, v) = (r.range(0, 9_999), r.range(0, 99));
        out.push(stmt(
            "insert_single",
            Class::Dml,
            format!("INSERT INTO CH_LOG VALUES ({k}, {})", unique_value(v, n)),
            acks(&[1]),
        ));
        let batch: Vec<String> = (0..5)
            .map(|_| {
                format!(
                    "INSERT INTO CH_LOG VALUES ({}, {})",
                    r.range(0, 9_999),
                    r.range(0, 99)
                )
            })
            .collect();
        out.push(stmt(
            "insert_batch",
            Class::Dml,
            batch.join("; "),
            acks(&[5]),
        ));
        let (delta, region) = (r.range(1, 50), r.range(0, REGIONS - 1));
        let in_region = self.region_totals[region as usize].0 as u64;
        out.push(stmt(
            "update_region",
            Class::Dml,
            format!("UPDATE CH_ACCT SET BAL = BAL + {delta} WHERE REGION = {region}{acct_guard}"),
            acks(&[in_region]),
        ));
        out.push(stmt(
            "merge_feed",
            Class::Dml,
            "MERGE INTO CH_ACCT A USING CH_FEED F ON A.ACCT_ID = F.ACCT_ID \
             WHEN MATCHED THEN UPDATE SET NOTE = 'merged' \
             WHEN NOT MATCHED THEN INSERT (ACCT_ID, BAL, REGION, NOTE) \
             VALUES (F.ACCT_ID, F.BAL, F.REGION, 'new')"
                .to_string(),
            acks(&[FEED_ROWS as u64]),
        ));
        out.push(stmt(
            "delete_merged",
            Class::Dml,
            format!("DELETE FROM CH_ACCT WHERE ACCT_ID > 10000{acct_guard}"),
            acks(&[(FEED_ROWS / 2) as u64]),
        ));
        out.push(stmt(
            "update_region_undo",
            Class::Dml,
            format!("UPDATE CH_ACCT SET BAL = BAL - {delta} WHERE REGION = {region}{acct_guard}"),
            acks(&[in_region]),
        ));

        out.extend(reads.by_ref().take(4));
        let (a, b) = (r.range(0, 99), r.range(0, 99));
        out.push(stmt(
            "insert_set_table",
            Class::Dml,
            format!(
                "INSERT INTO CH_UNIQ VALUES ({a}, {b}), ({a}, {b}), ({}, {b})",
                a + 100
            ),
            acks(&[2]),
        ));
        out.push(stmt(
            "delete_set_table",
            Class::Dml,
            format!(
                "DELETE FROM CH_UNIQ WHERE A >= 0{}",
                unique_guard(n, &["A", "B"])
            ),
            acks(&[2]),
        ));
        let acct = r.range(1, ACCOUNTS);
        out.push(stmt("bt", Class::Dml, "BT".to_string(), acks(&[0])));
        out.push(stmt(
            "update_in_txn",
            Class::Dml,
            format!("UPDATE CH_ACCT SET BAL = BAL + 1 WHERE ACCT_ID = {acct}{acct_guard}"),
            acks(&[1]),
        ));
        out.push(stmt(
            "update_in_txn_undo",
            Class::Dml,
            format!("UPDATE CH_ACCT SET BAL = BAL - 1 WHERE ACCT_ID = {acct}{acct_guard}"),
            acks(&[1]),
        ));
        out.push(stmt("et", Class::Dml, "ET".to_string(), acks(&[0])));

        out.extend(reads.by_ref().take(4));
        let cut = r.range(0, 999);
        let below_cut = self.facts.iter().filter(|f| f[2] < cut).count() as u64;
        out.push(stmt(
            "create_volatile",
            Class::DdlTemp,
            "CREATE VOLATILE TABLE CH_VT (K INTEGER, V INTEGER) ON COMMIT PRESERVE ROWS"
                .to_string(),
            acks(&[0]),
        ));
        out.push(stmt(
            "insert_select_volatile",
            Class::DdlTemp,
            format!("INSERT INTO CH_VT SELECT F0, F1 FROM CH_FACTS WHERE F2 < {cut}"),
            acks(&[below_cut]),
        ));
        out.push(stmt(
            "count_volatile",
            Class::DdlTemp,
            "SEL COUNT(*) FROM CH_VT".to_string(),
            one_int(below_cut as i64),
        ));
        out.push(stmt(
            "drop_volatile",
            Class::DdlTemp,
            "DROP TABLE CH_VT".to_string(),
            acks(&[0]),
        ));
        out.push(stmt(
            "insert_gtt",
            Class::DdlTemp,
            format!("INS CH_GTT ({}, {})", r.range(0, 999), r.range(0, 99)),
            acks(&[1]),
        ));
        out.push(stmt(
            "count_gtt",
            Class::DdlTemp,
            "SEL COUNT(*) FROM CH_GTT".to_string(),
            one_int(1),
        ));
        out.push(stmt(
            "delete_gtt",
            Class::DdlTemp,
            "DELETE FROM CH_GTT".to_string(),
            acks(&[1]),
        ));

        out.extend(reads.by_ref().take(4));
        let region = r.range(0, REGIONS - 1);
        let (count, sum) = self.region_totals[region as usize];
        let report = vec![vec![Datum::Int(region), Datum::Int(count), Datum::Int(sum)]];
        let d = digest([(report.as_slice(), 1)]);
        out.push(stmt(
            "exec_macro",
            Class::Emulated,
            format!("EXEC CH_REPORT({region})"),
            Expect::Rows {
                rows: 1,
                unordered: d.unordered,
            },
        ));
        let manager = r.range(2, 7);
        // Employee `e` reports to `e / 2`: count everyone below `manager`.
        let reports = (2..=EMPLOYEES)
            .filter(|e| {
                std::iter::successors(Some(e / 2), |m| Some(m / 2))
                    .take_while(|m| *m >= 1)
                    .any(|m| m == manager)
            })
            .count() as i64;
        out.push(stmt(
            "recursive_reports",
            Class::Emulated,
            format!(
                "WITH RECURSIVE REPORTS (EMPNO) AS ( \
                   SELECT EMPNO FROM CH_EMP WHERE MGRNO = {manager} \
                   UNION ALL \
                   SELECT E.EMPNO FROM CH_EMP E, REPORTS WHERE E.MGRNO = REPORTS.EMPNO ) \
                 SELECT COUNT(*) FROM REPORTS"
            ),
            one_int(reports),
        ));
        out.push(stmt(
            "delete_log",
            Class::Dml,
            format!(
                "DELETE FROM CH_LOG WHERE K >= 0{}",
                unique_guard(n, &["K", "V"])
            ),
            acks(&[6]),
        ));
    }
}

impl Workload for ChurnMix {
    fn name(&self) -> &'static str {
        "churn_mix"
    }

    /// A 10 s window completes about 450 statements at today's 24 ms each:
    /// p95 keeps twenty-two beyond it, p98 nine.
    fn tail_quantile(&self) -> f64 {
        0.95
    }

    fn templates(&self) -> &[String] {
        &self.templates
    }

    fn load(&self, db: &EngineDb) {
        let cols: Vec<String> = (0..FACT_COLS)
            .map(|c| format!("F{c} INTEGER NOT NULL"))
            .collect();
        for ddl in [
            format!("CREATE TABLE CH_FACTS ({})", cols.join(", ")),
            "CREATE TABLE CH_ACCT (ACCT_ID INTEGER NOT NULL, BAL INTEGER, REGION INTEGER, \
             NOTE VARCHAR(20))"
                .to_string(),
            "CREATE TABLE CH_FEED (ACCT_ID INTEGER NOT NULL, BAL INTEGER, REGION INTEGER)"
                .to_string(),
            "CREATE TABLE CH_LOG (K INTEGER, V INTEGER)".to_string(),
            "CREATE TABLE CH_EMP (EMPNO INTEGER NOT NULL, MGRNO INTEGER)".to_string(),
        ] {
            db.execute_sql(&ddl).expect("churn_mix DDL");
        }
        let tuple = |vals: &[i64]| {
            format!(
                "({})",
                vals.iter()
                    .map(i64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        let facts: Vec<String> = self.facts.iter().map(|f| tuple(f)).collect();
        insert_values(db, "CH_FACTS", &facts);
        // Accounts the feed matches already carry the note the MERGE sets,
        // so the first cycle leaves the same table as every later one.
        let accounts: Vec<String> = account_rows()
            .into_iter()
            .map(|(id, bal, region)| {
                let note = if id <= FEED_ROWS / 2 {
                    "merged"
                } else {
                    "loaded"
                };
                format!("({id}, {bal}, {region}, '{note}')")
            })
            .collect();
        insert_values(db, "CH_ACCT", &accounts);
        let feed: Vec<String> = (1..=FEED_ROWS)
            .map(|i| {
                let id = if i <= FEED_ROWS / 2 { i } else { 10_000 + i };
                tuple(&[id, 1_000 + i, i % REGIONS])
            })
            .collect();
        insert_values(db, "CH_FEED", &feed);
        let log: Vec<String> = (1..=50).map(|i| tuple(&[-i, i])).collect();
        insert_values(db, "CH_LOG", &log);
        let emp: Vec<String> = (2..=EMPLOYEES).map(|e| tuple(&[e, e / 2])).collect();
        insert_values(db, "CH_EMP", &emp);
    }

    fn session_setup(&self) -> Vec<String> {
        vec![
            "CREATE SET TABLE CH_UNIQ (A INTEGER, B INTEGER)".to_string(),
            "CREATE MACRO CH_REPORT (R INTEGER) AS ( \
               SELECT REGION, COUNT(*), SUM(BAL) FROM CH_ACCT WHERE REGION = :R GROUP BY REGION; )"
                .to_string(),
            "CREATE GLOBAL TEMPORARY TABLE CH_GTT (K INTEGER, V INTEGER)".to_string(),
        ]
    }

    fn pass(&mut self, seed: u64, index: u64) -> Vec<Stmt> {
        let mut r = Rng::for_stream(seed, index);
        let mut out = Vec::new();
        for _ in 0..self.size.churn_cycles {
            self.cycle(&mut r, &mut out);
        }
        out
    }

    /// One cycle sees every template once.
    fn warmup(&mut self, seed: u64) -> Vec<Stmt> {
        let mut out = Vec::new();
        self.cycle(&mut Rng::for_stream(seed, 0), &mut out);
        out
    }

    /// Nothing in this workload is checked against a committed digest: the
    /// generator works every expected result out from its own copy of the
    /// data, and `check_state` pins the tables.
    fn golden_statements(&mut self) -> Vec<Stmt> {
        Vec::new()
    }

    fn check_state(&self, db: &EngineDb) -> Result<(), String> {
        let total: i64 = self.region_totals.iter().map(|t| t.1).sum();
        let checks = [
            (
                "SELECT COUNT(*), SUM(BAL) FROM CH_ACCT",
                vec![ACCOUNTS, total],
            ),
            (
                "SELECT COUNT(*) FROM CH_ACCT WHERE NOTE = 'merged'",
                vec![FEED_ROWS / 2],
            ),
            ("SELECT COUNT(*), SUM(V) FROM CH_LOG", vec![50, 50 * 51 / 2]),
            ("SELECT COUNT(*) FROM CH_UNIQ", vec![0]),
        ];
        for (sql, want) in checks {
            let got = db.execute_sql(sql).map_err(|e| format!("{sql}: {e}"))?;
            let got: Vec<Option<i64>> = got.rows[0].iter().map(Datum::to_i64).collect();
            let want: Vec<Option<i64>> = want.into_iter().map(Some).collect();
            if got != want {
                return Err(format!(
                    "table state after a pass: {sql} gave {got:?}, not {want:?}"
                ));
            }
        }
        Ok(())
    }

    fn golden_file(&self) -> Option<String> {
        None
    }

    fn goldens(&self) -> &GoldenTable {
        &self.goldens
    }
}
