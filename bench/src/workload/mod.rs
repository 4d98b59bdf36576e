//! The four workloads. Each one owns its data, its statement generator and
//! its golden results; the runner knows none of their SQL.
//!
//! Only the statement generator sees the run's seed. Data is generated from
//! the fixed [`DATA_SEED`], so the golden results can be committed.

mod churn_mix;
mod fetch_wide;
mod short_mix;
mod tpch_seq;

use hyperq_engine::EngineDb;

use crate::verify::{Expect, GoldenTable};

/// Seed of every table the benchmark loads.
pub const DATA_SEED: u64 = 7_777;

pub const NAMES: [&str; 4] = ["tpch_seq", "short_mix", "fetch_wide", "churn_mix"];

/// How much work a run does. `FULL` is what `BENCHMARK.json` measures;
/// `SMOKE` is the same code at sizes a unit test can afford.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    pub name: &'static str,
    /// TPC-H scale factor of `tpch_seq` and `fetch_wide`.
    pub tpch_sf: f64,
    /// Statements per `short_mix` pass, split health : telco like the
    /// corpora's own sizes.
    pub short_health: usize,
    pub short_telco: usize,
    /// Cycles per `churn_mix` pass.
    pub churn_cycles: usize,
    /// How often the timed run may repeat set-up to report its median.
    pub max_setups: usize,
}

impl Size {
    /// SF 0.006 instead of the issue's 0.01: one pass over the 22 queries
    /// takes about 6 s here and 12.3 s at 0.01, and a run has to fit a set-up
    /// pass plus two measured ones in about 20 s (see bench/README.md).
    pub const FULL: Size = Size {
        name: "full",
        tpch_sf: 0.006,
        short_health: 34,
        short_telco: 166,
        churn_cycles: 4,
        max_setups: 3,
    };
    pub const SMOKE: Size = Size {
        name: "smoke",
        tpch_sf: 0.001,
        short_health: 8,
        short_telco: 32,
        churn_cycles: 1,
        max_setups: 1,
    };
}

/// Statement class, reported per class by `churn_mix`'s traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Read,
    AdhocRead,
    Dml,
    DdlTemp,
    Emulated,
}

impl Class {
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::AdhocRead => "adhoc_read",
            Class::Dml => "dml",
            Class::DdlTemp => "ddl_temp",
            Class::Emulated => "emulated",
        }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub sql: String,
    /// Index into [`Workload::templates`]: statements that differ only in
    /// literals share a template.
    pub template: usize,
    pub class: Class,
    pub expect: Expect,
}

pub trait Workload {
    fn name(&self) -> &'static str;

    /// The tail percentile `stmt_tail_ms` reports on this workload: the
    /// highest one that keeps ten samples beyond it at today's speed.
    fn tail_quantile(&self) -> f64;

    /// Labels of the statement templates, for per-template medians.
    fn templates(&self) -> &[String];

    /// Create and fill the tables directly on the target: the content
    /// transfer that happened before the application was re-platformed.
    fn load(&self, db: &EngineDb);

    /// Statements every Hyper-Q session runs after logon: the views,
    /// macros and temporary-table definitions the application relies on.
    fn session_setup(&self) -> Vec<String>;

    /// The statements of pass `index` for `seed`. Every pass of a workload
    /// holds the same multiset of templates; the seed decides order and
    /// literal draws.
    fn pass(&mut self, seed: u64, index: u64) -> Vec<Stmt>;

    /// The set-up pass that lets caches fill: every distinct statement of a
    /// pass at least once.
    fn warmup(&mut self, seed: u64) -> Vec<Stmt> {
        self.pass(seed, 0)
    }

    /// Every statement whose result is checked against a committed golden
    /// digest, for `regen-expected`.
    fn golden_statements(&mut self) -> Vec<Stmt> {
        self.warmup(0)
    }

    /// Check the tables a pass writes to, after it. Read-only workloads
    /// have nothing to check.
    fn check_state(&self, _db: &EngineDb) -> Result<(), String> {
        Ok(())
    }

    /// The committed golden results for this workload and size, and the
    /// file under bench/expected/ they are read from (`None`: the workload
    /// checks itself).
    fn goldens(&self) -> &GoldenTable;
    fn golden_file(&self) -> Option<String>;
}

pub fn by_name(name: &str, size: Size) -> Option<Box<dyn Workload>> {
    Some(match name {
        "tpch_seq" => Box::new(tpch_seq::TpchSeq::new(size)),
        "short_mix" => Box::new(short_mix::ShortMix::new(size)),
        "fetch_wide" => Box::new(fetch_wide::FetchWide::new(size)),
        "churn_mix" => Box::new(churn_mix::ChurnMix::new(size)),
        _ => return None,
    })
}

/// Read a golden file from bench/expected/. A missing file is an empty
/// table, so that `regen-expected` can write the first one; a malformed one
/// is a bug in the commit.
fn read_goldens(file: &str) -> GoldenTable {
    match std::fs::read_to_string(std::path::Path::new(crate::EXPECTED_DIR).join(file)) {
        Ok(text) => {
            GoldenTable::parse(&text).unwrap_or_else(|e| panic!("bench/expected/{file}: {e}"))
        }
        Err(_) => GoldenTable::default(),
    }
}

/// Create the TPC-H tables and load them at `sf`.
fn load_tpch(db: &EngineDb, sf: f64) {
    use hyperq_workload::tpch;
    for ddl in tpch::ddl() {
        db.execute_sql(&ddl).expect("TPC-H DDL");
    }
    for (table, rows) in tpch::generate(sf, DATA_SEED).tables() {
        db.load_rows(table, rows).expect("TPC-H load");
    }
}

/// `INSERT` the given `(v1, v2, …)` tuples, a few hundred per statement.
fn insert_values(db: &EngineDb, table: &str, tuples: &[String]) {
    for chunk in tuples.chunks(250) {
        let sql = format!("INSERT INTO {table} VALUES {}", chunk.join(", "));
        db.execute_sql(&sql)
            .unwrap_or_else(|e| panic!("loading {table}: {e}"));
    }
}

/// Group statements that differ only in literals: every run of digits and
/// every quoted string becomes `?`. Cruder than the product's fingerprint
/// on purpose — it only names rows of the per-template report, and must
/// not change when the product's lexer does.
pub fn template_key(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut chars = sql.chars().peekable();
    let mut prev_ident = false;
    while let Some(c) = chars.next() {
        if c == '\'' {
            for q in chars.by_ref() {
                if q == '\'' {
                    break;
                }
            }
            out.push('?');
            prev_ident = false;
        } else if c.is_ascii_digit() && !prev_ident {
            while chars
                .peek()
                .is_some_and(|d| d.is_ascii_digit() || *d == '.')
            {
                chars.next();
            }
            out.push('?');
        } else {
            prev_ident = c.is_ascii_alphanumeric() || c == '_';
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn template_key_strips_literals_but_not_identifiers() {
        assert_eq!(
            template_key("SEL F1, T2.X FROM T2 WHERE A = 12 AND B > 3.5 AND C = 'x y'"),
            "SEL F1, T2.X FROM T2 WHERE A = ? AND B > ? AND C = ?"
        );
        assert_eq!(template_key("EXEC M(1001)"), template_key("EXEC M(7)"));
    }

    fn multiset(stmts: &[Stmt]) -> BTreeMap<usize, usize> {
        let mut m = BTreeMap::new();
        for s in stmts {
            *m.entry(s.template).or_insert(0) += 1;
        }
        m
    }

    /// Same seed ⇒ byte-identical stream; another seed ⇒ another order (or
    /// other literals) over the identical template multiset.
    #[test]
    fn streams_are_seeded_and_multisets_fixed() {
        for name in NAMES {
            let stream = |seed: u64| -> Vec<Vec<Stmt>> {
                let mut w = by_name(name, Size::SMOKE).unwrap();
                (0..3).map(|i| w.pass(seed, i)).collect()
            };
            let a = stream(11);
            let b = stream(11);
            let c = stream(12);
            assert_eq!(a, b, "{name}: same seed must give the same statements");
            assert_ne!(a, c, "{name}: another seed must change the stream");
            for (pa, pc) in a.iter().zip(&c) {
                assert_eq!(
                    multiset(pa),
                    multiset(pc),
                    "{name}: template multiset differs"
                );
            }
            assert_eq!(
                multiset(&a[1]),
                multiset(&a[2]),
                "{name}: passes differ in templates"
            );
            let w = by_name(name, Size::SMOKE).unwrap();
            for s in a.iter().flatten() {
                assert!(
                    s.template < w.templates().len(),
                    "{name}: template out of range"
                );
            }
        }
    }

    #[test]
    fn unknown_workload_is_none() {
        assert!(by_name("nope", Size::SMOKE).is_none());
    }
}
