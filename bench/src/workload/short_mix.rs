//! `short_mix` — the paper's Table 1 customer workloads: a sample of the
//! synthetic health and telco corpora, replayed with their hot-set skew
//! (80% of repeats from 20% of the queries) and literal variation over
//! tables of at most a thousand rows, in an order the seed shuffles.
//!
//! The target spends about 0.1 ms on a statement, so wire framing,
//! admission, governor registration, fingerprinting, the cache lookup and
//! splice and the response tail are the work, and the engine is not. The
//! distinct fingerprints fit the translation cache many times over. This
//! is where a hit-path or wire-latency change must show, and where an
//! engine change must not.

use std::collections::HashMap;

use hyperq_engine::EngineDb;
use hyperq_workload::customer::{health, telco, CustomerWorkload};

use super::{insert_values, read_goldens, template_key, Class, Size, Stmt, Workload, DATA_SEED};
use crate::rng::Rng;
use crate::verify::{Expect, GoldenTable};

/// Scale of both corpora (1.0 = the published sizes): 75 + 208 distinct
/// texts, of which a pass replays a fixed sample.
const CORPUS_SCALE: f64 = 0.02;

pub struct ShortMix {
    corpora: [CustomerWorkload; 2],
    /// The statements of one pass, before shuffling.
    base: Vec<Stmt>,
    templates: Vec<String>,
    goldens: GoldenTable,
}

impl ShortMix {
    pub fn new(size: Size) -> ShortMix {
        let corpora = [health(CORPUS_SCALE), telco(CORPUS_SCALE)];
        let mut templates: Vec<String> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut base = Vec::new();
        // Each corpus's replay sequence is already a seeded shuffle with the
        // hot-set skew, so a prefix of it is a fair sample.
        for (corpus, take) in corpora.iter().zip([size.short_health, size.short_telco]) {
            for &i in corpus.sequence.iter().take(take) {
                let sql = corpus.distinct[i as usize].clone();
                let key = template_key(&sql);
                let template = *index.entry(key.clone()).or_insert_with(|| {
                    templates.push(key);
                    templates.len() - 1
                });
                base.push(Stmt {
                    sql,
                    template,
                    class: Class::Read,
                    expect: Expect::Golden,
                });
            }
        }
        ShortMix {
            corpora,
            base,
            templates,
            goldens: read_goldens("short_mix.tsv"),
        }
    }
}

fn date(rng: &mut Rng, from_year: i64, to_year: i64) -> String {
    format!(
        "DATE '{:04}-{:02}-{:02}'",
        rng.range(from_year, to_year),
        rng.range(1, 12),
        rng.range(1, 28)
    )
}

fn money(rng: &mut Rng, lo: i64, hi: i64) -> String {
    format!("{}.{:02}", rng.range(lo, hi), rng.range(0, 99))
}

/// Table contents: a few hundred rows each, so that the engine's share of
/// a statement stays small next to the wire's and the hit path's. Key
/// ranges are chosen against the corpora's literals so that macro calls
/// (subscribers 1000…, invoices 2000…) find rows, while the few writing
/// statements in the corpora (a MERGE on claim 0, an UPDATE on claim 5002,
/// an INSERT…SELECT for subscriber 97) match nothing: results then do not
/// depend on replay order, and one golden digest per text is enough.
fn load_tables(db: &EngineDb) {
    let mut r = Rng::for_stream(DATA_SEED, 0x53_484f_5254);
    let statuses = ["OPEN", "PAID", "DENIED", "REVIEWED"];
    let specialties = [
        "CARDIOLOGY",
        "ONCOLOGY",
        "PEDIATRICS",
        "RADIOLOGY",
        "GENERAL",
        "SURGERY",
    ];

    let patients: Vec<String> = (1..=100)
        .map(|id| {
            let name = format!("Patient {}{}", "x".repeat(r.range(0, 12) as usize), id);
            format!(
                "({id}, '{name}', {}, {})",
                date(&mut r, 1940, 2010),
                r.range(1, 8)
            )
        })
        .collect();
    insert_values(db, "PATIENTS", &patients);
    let claims: Vec<String> = (1..=300)
        .map(|id| {
            format!(
                "({id}, {}, {}, {}, {}, '{}')",
                r.range(1, 100),
                r.range(1, 40),
                date(&mut r, 2013, 2015),
                money(&mut r, 5, 1999),
                r.pick(&statuses)
            )
        })
        .collect();
    insert_values(db, "CLAIMS", &claims);
    let providers: Vec<String> = (1..=40)
        .map(|id| format!("({id}, 'Provider {id}', '{}')", r.pick(&specialties)))
        .collect();
    insert_values(db, "PROVIDERS", &providers);
    let visits: Vec<String> = (1..=200)
        .map(|id| {
            format!(
                "({id}, {}, {}, {})",
                r.range(1, 100),
                date(&mut r, 2013, 2015),
                money(&mut r, 10, 499)
            )
        })
        .collect();
    insert_values(db, "VISITS", &visits);

    let subscribers: Vec<String> = (1000..=1299)
        .map(|id| {
            format!(
                "({id}, 'sub a{} {id}', {}, {}, {})",
                r.range(0, 19),
                r.range(1, 50),
                date(&mut r, 1990, 2001),
                r.range(1, 10)
            )
        })
        .collect();
    insert_values(db, "SUBSCRIBERS", &subscribers);
    let calls: Vec<String> = (1..=300)
        .map(|id| {
            format!(
                "({id}, {}, {}, {}, {})",
                r.range(1000, 1299),
                date(&mut r, 2016, 2017),
                r.range(1, 600),
                money(&mut r, 0, 40)
            )
        })
        .collect();
    insert_values(db, "CALLS", &calls);
    let plans: Vec<String> = (1..=50)
        .map(|id| format!("({id}, 'Plan {id}', {})", money(&mut r, 5, 120)))
        .collect();
    insert_values(db, "PLANS", &plans);
    let invoices: Vec<String> = (1..=300)
        .map(|id| {
            format!(
                "({id}, {}, {}, {})",
                r.range(2000, 2299),
                date(&mut r, 2016, 2017),
                money(&mut r, 0, 499)
            )
        })
        .collect();
    insert_values(db, "INVOICES", &invoices);
    // Referral chains only ever point from a higher to a lower id, so the
    // recursive chain query terminates; 98 is the root the corpus asks for.
    let mut referrals = vec!["(150, 98)", "(151, 150)", "(152, 151)", "(153, 98)"]
        .into_iter()
        .map(String::from)
        .collect::<Vec<_>>();
    referrals.extend((0..200).map(|_| {
        let by = r.range(100, 1000);
        format!("({}, {by})", r.range(by + 1, 1099))
    }));
    insert_values(db, "REFERRALS", &referrals);
}

impl Workload for ShortMix {
    fn name(&self) -> &'static str {
        "short_mix"
    }

    /// A 10 s window completes about 800 statements at today's 14 ms each:
    /// p98 keeps sixteen beyond it, p99 eight.
    fn tail_quantile(&self) -> f64 {
        0.98
    }

    fn templates(&self) -> &[String] {
        &self.templates
    }

    fn load(&self, db: &EngineDb) {
        for corpus in &self.corpora {
            for ddl in &corpus.target_ddl {
                db.execute_sql(ddl).expect("customer DDL");
            }
        }
        load_tables(db);
    }

    fn session_setup(&self) -> Vec<String> {
        self.corpora
            .iter()
            .flat_map(|c| c.hyperq_setup.iter().cloned())
            .collect()
    }

    fn pass(&mut self, seed: u64, index: u64) -> Vec<Stmt> {
        let mut stmts = self.base.clone();
        Rng::for_stream(seed, index).shuffle(&mut stmts);
        stmts
    }

    /// Each distinct text once: that fills the translation cache, and a
    /// repeat would only add its 12 ms to set-up.
    fn warmup(&mut self, seed: u64) -> Vec<Stmt> {
        let mut seen = std::collections::HashSet::new();
        let mut stmts = self.pass(seed, 0);
        stmts.retain(|s| seen.insert(s.sql.clone()));
        stmts
    }

    /// One file for both sizes: the smoke sample is a subset of the full one.
    fn golden_file(&self) -> Option<String> {
        Some("short_mix.tsv".to_string())
    }

    fn goldens(&self) -> &GoldenTable {
        &self.goldens
    }
}
