//! # hyperq-assess — static workload assessment (paper §3, "rapid
//! assessment of workload compatibility")
//!
//! Before any gateway is deployed, the adoption methodology starts with a
//! *static* pass over a captured workload: every statement is classified
//! as directly translatable, translatable with mid-tier emulation (and at
//! what cost), or unsupported. The aggregate report — supported
//! percentage, emulation histogram, ranked blockers — is the
//! migration-assessment artifact the paper describes producing in days
//! instead of the months a manual inventory takes.
//!
//! The assessor is a client of the crosscompiler, not a copy of it: each
//! [`Assessor`] runs every statement through a real `HyperQ` session (no
//! cache, analysis off, private metrics) against a *dry target*, a
//! catalog without data. `CREATE`/`DROP` requests run on an empty bundled
//! engine, so tables exist exactly when they would on the target; every
//! other request is logged and acknowledged. An error is `Unsupported`,
//! the `hyperq_emulation_requests_total` counters that advanced are the
//! emulation kinds, and the logged requests are linted against the
//! target's capabilities.
//!
//! A `CREATE`/`DROP` the bundled engine cannot parse (a target's own
//! spelling, e.g. cloud-c's `DATE_ADD(d, INTERVAL n DAY)` in a CTAS) is
//! acknowledged without touching the catalog, so a later reference to its
//! table falls back to usage inference: tables with no DDL in the corpus
//! are fabricated from the binder's "not found" errors plus qualified
//! column references in the statement text, and the report lists them.

#![forbid(unsafe_code)]

pub mod report;

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use hyperq_core::conformance::{self, Finding};
use hyperq_core::{
    AnalyzeMode, Backend, BackendError, ConformanceMode, CostTier, EmulationKind, ExecResult,
    HyperQ, HyperQBuilder, HyperQError, ObsContext, TargetCapabilities, TargetProfile,
};
use hyperq_engine::EngineDb;
use hyperq_parser::ast::Statement;
use hyperq_parser::{parse_statements, Dialect, ParsedStatement, StmtSpan};
use hyperq_workload::{customer, tpch};
use hyperq_xtra::catalog::{ColumnDef, TableDef};
use hyperq_xtra::feature::FeatureSet;
use hyperq_xtra::types::SqlType;
use parking_lot::Mutex;

pub use report::Report;

/// Per-statement classification.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Translates to a single target statement; no mid-tier machinery.
    Translatable,
    /// Executable, but only through mid-tier emulation of the listed
    /// kinds; `tier` is the worst per-request cost among them.
    NeedsEmulation {
        kinds: Vec<EmulationKind>,
        tier: CostTier,
    },
    /// The pipeline would reject the statement.
    Unsupported { reason: String, span: StmtSpan },
}

/// One assessed statement: its source span, tracked features, verdict and
/// advisory lint findings (conformance over the projected target SQL plus
/// anti-pattern lints over the source text).
#[derive(Debug, Clone)]
pub struct StatementAssessment {
    pub index: usize,
    pub text: String,
    pub span: StmtSpan,
    pub features: FeatureSet,
    pub verdict: Verdict,
    pub findings: Vec<Finding>,
}

/// How many binder round-trips the catalog-inference loop may take for a
/// single statement (each round learns one table or one column).
const MAX_INFERENCE_STEPS: usize = 64;

/// The assessor's backend: a target catalog without data.
struct DryTarget {
    engine: EngineDb,
    /// Every request the session sent, in order.
    log: Mutex<Vec<String>>,
    /// Tables a `DROP` removed; usage inference never re-fabricates them.
    dropped: Mutex<HashSet<String>>,
}

impl Backend for DryTarget {
    fn name(&self) -> &str {
        "dry"
    }

    fn execute(&self, sql: &str) -> Result<ExecResult, BackendError> {
        self.log.lock().push(sql.to_string());
        let head = sql.split_whitespace().next().unwrap_or("").to_ascii_uppercase();
        if !matches!(head.as_str(), "CREATE" | "DROP")
            || parse_statements(sql, Dialect::Ansi).is_err()
        {
            return Ok(ExecResult::ack());
        }
        let before = self.engine.table_names();
        let out = self.engine.execute_sql(sql);
        let gone = before.into_iter().filter(|t| self.engine.table_def(t).is_none());
        self.dropped.lock().extend(gone);
        out
    }

    fn table_meta(&self, name: &str) -> Option<TableDef> {
        self.engine.table_meta(name)
    }
}

/// The static assessor: a crosscompiler session against a dry target.
pub struct Assessor {
    hq: HyperQ,
    target: Arc<DryTarget>,
    /// Names fabricated from usage (no DDL in the corpus) — reported so
    /// the assessment's confidence is visible.
    inferred: BTreeSet<String>,
}

impl Assessor {
    /// Assess for a target profile.
    pub fn for_target(profile: TargetProfile) -> Self {
        let target = Arc::new(DryTarget {
            engine: EngineDb::new(),
            log: Mutex::new(Vec::new()),
            dropped: Mutex::new(HashSet::new()),
        });
        let hq = HyperQBuilder::for_target(Arc::clone(&target), profile)
            .obs(ObsContext::new())
            .no_cache()
            .analyze(AnalyzeMode::Off)
            .conformance(ConformanceMode::Off)
            .build();
        Assessor { hq, target, inferred: BTreeSet::new() }
    }

    pub fn capabilities(&self) -> &TargetCapabilities {
        self.hq.capabilities()
    }

    /// Tables fabricated from usage alone and not dropped since, sorted.
    pub fn inferred_tables(&self) -> Vec<String> {
        let dropped = self.target.dropped.lock();
        self.inferred.iter().filter(|t| !dropped.contains(*t)).cloned().collect()
    }

    /// Ingest schema DDL without producing verdicts: `CREATE TABLE` /
    /// `CREATE VIEW` statements populate the catalog exactly as assessing
    /// them would; everything else is ignored. Returns how many
    /// definitions were registered. Failures in individual statements
    /// are skipped (the corpus proper will surface them).
    pub fn ingest_ddl(&mut self, sql: &str) -> usize {
        let Ok(parsed) = parse_statements(sql, Dialect::Teradata) else {
            return 0;
        };
        let is_def = |ps: &ParsedStatement| {
            matches!(ps.stmt, Statement::CreateTable { .. } | Statement::CreateView { .. })
        };
        parsed.iter().filter(|ps| is_def(ps) && self.run(&ps.text).0.is_ok()).count()
    }

    /// Assess a script: one [`StatementAssessment`] per statement. A
    /// script that does not parse yields a single `Unsupported` verdict
    /// covering the whole input.
    pub fn assess_script(&mut self, sql: &str) -> Vec<StatementAssessment> {
        match parse_statements(sql, Dialect::Teradata) {
            Ok(parsed) => {
                parsed.into_iter().enumerate().map(|(i, ps)| self.assess_statement(ps, i)).collect()
            }
            Err(e) => {
                let span = StmtSpan { start: 0, end: sql.len(), line: 1 };
                vec![StatementAssessment {
                    index: 0,
                    text: sql.to_string(),
                    span,
                    features: FeatureSet::new(),
                    verdict: Verdict::Unsupported { reason: format!("parse error: {e}"), span },
                    findings: Vec::new(),
                }]
            }
        }
    }

    /// Assess one parsed statement by running it on the session, which
    /// updates catalog and session state the same way executing it would.
    pub fn assess_statement(&mut self, ps: ParsedStatement, index: usize) -> StatementAssessment {
        let txn_before = self.hq.session.in_transaction;
        let before = emulation_counts(self.hq.obs());
        let (outcome, sent) = self.run(&ps.text);
        let after = emulation_counts(self.hq.obs());
        let kinds: Vec<EmulationKind> = (0..before.len())
            .filter(|&i| after[i] > before[i])
            .map(|i| EmulationKind::ALL[i])
            .collect();

        let features = outcome.as_ref().map_or_else(|_| ps.features.clone(), Clone::clone);
        let mut findings = conformance::lint_source(&ps.text, &features, txn_before);
        for sql in &sent {
            findings.extend(conformance::lint_serialized(sql, self.capabilities()));
        }
        let verdict = match outcome {
            Err(e) => Verdict::Unsupported { reason: e.to_string(), span: ps.span },
            Ok(_) => match kinds.iter().map(EmulationKind::cost_tier).max() {
                None => Verdict::Translatable,
                Some(tier) => Verdict::NeedsEmulation { kinds, tier },
            },
        };
        StatementAssessment { index, text: ps.text, span: ps.span, features, verdict, findings }
    }

    /// Run one statement on the session, learning one missing catalog
    /// fact per binder error and retrying (statements whose tables all
    /// have DDL run once). Returns the outcome's features and the
    /// requests the final round sent.
    fn run(&mut self, text: &str) -> (Result<FeatureSet, HyperQError>, Vec<String>) {
        let mut attempts = 0;
        loop {
            let mark = self.target.log.lock().len();
            match self.hq.run_one(text) {
                Err(HyperQError::Bind(msg))
                    if attempts < MAX_INFERENCE_STEPS && self.learn_from(&msg, text) =>
                {
                    attempts += 1;
                }
                outcome => {
                    let sent = self.target.log.lock()[mark..].to_vec();
                    return (outcome.map(|r| r.features), sent);
                }
            }
        }
    }

    /// Interpret one binder error as a missing catalog fact and record it
    /// in the dry target's engine. Returns false when nothing new can be
    /// learned (the error then stands as the verdict).
    fn learn_from(&mut self, msg: &str, text: &str) -> bool {
        let engine = &self.target.engine;
        if let Some(name) = msg.strip_prefix("table ").and_then(|r| r.strip_suffix(" not found")) {
            let upper = name.to_ascii_uppercase();
            let fabricated = TableDef::new(&upper, harvest_columns(text, &upper));
            if self.target.dropped.lock().contains(&upper)
                || engine.table_def(&upper).is_some()
                || self.hq.session.global_temp_defs.contains_key(&upper)
                || engine.create_table(fabricated).is_err()
            {
                return false;
            }
            self.inferred.insert(upper);
            return true;
        }
        // "column C not found in T" (relational lookup) or
        // "column Q.C not found" (scalar reference).
        let Some(rest) = msg.strip_prefix("column ") else {
            return false;
        };
        let rest = rest.strip_suffix(" not found").unwrap_or(rest);
        let (column, table_hint) = match rest.split_once(" not found in ") {
            Some((c, t)) => (c, Some(t)),
            None => match rest.rsplit_once('.') {
                Some((q, c)) => (c, Some(q)),
                None => (rest, None),
            },
        };
        let column = column.trim().to_ascii_uppercase();
        let target = table_hint
            .map(|t| base_name(&t.to_ascii_uppercase()).to_string())
            .filter(|t| self.inferred.contains(t))
            // An unqualified (or alias-qualified) reference: only
            // unambiguous if exactly one table was fabricated.
            .or_else(|| self.inferred.first().filter(|_| self.inferred.len() == 1).cloned());
        let Some(mut def) = target.and_then(|t| engine.table_def(&t)) else {
            return false;
        };
        if column.is_empty() || def.columns.iter().any(|c| c.name == column) {
            return false;
        }
        // The engine has no ALTER: widen the table by re-creating it.
        def.columns.push(ColumnDef::new(&column, SqlType::Unknown, true));
        engine.drop_table(&def.name, false).is_ok() && engine.create_table(def).is_ok()
    }
}

fn emulation_counts(obs: &ObsContext) -> Vec<u64> {
    EmulationKind::ALL
        .iter()
        .map(|k| {
            obs.metrics.counter_value("hyperq_emulation_requests_total", &[("kind", k.as_str())])
        })
        .collect()
}

fn base_name(name: &str) -> &str {
    name.rsplit('.').next().unwrap_or(name)
}

/// Harvest `TBL.COL` references for a fabricated table from the statement
/// text (the only schema evidence a usage-only corpus offers).
fn harvest_columns(text: &str, table: &str) -> Vec<ColumnDef> {
    use hyperq_parser::token::Token;
    let mut cols: Vec<ColumnDef> = Vec::new();
    for w in hyperq_parser::lexer::tokenize(text).unwrap_or_default().windows(3) {
        let (Token::Word(q) | Token::QuotedIdent(q), Token::Dot, Token::Word(c) | Token::QuotedIdent(c)) =
            (&w[0].token, &w[1].token, &w[2].token)
        else {
            continue;
        };
        let upper = c.to_ascii_uppercase();
        if q.eq_ignore_ascii_case(base_name(table)) && !cols.iter().any(|e| e.name == upper) {
            cols.push(ColumnDef::new(&upper, SqlType::Unknown, true));
        }
    }
    cols
}

/// What to assess: schema-only DDL, which populates the catalog without
/// verdicts, and the scripts whose statements get verdicts.
#[derive(Debug, Clone)]
pub struct Workload {
    pub ddl: Vec<String>,
    pub scripts: Vec<String>,
}

impl Workload {
    /// A built-in corpus by name (`tpch`, `health` or `telco`): the
    /// workload generators supply both the DDL and the statements.
    pub fn corpus(name: &str) -> Option<Workload> {
        let w = match name {
            "tpch" => {
                let scripts = tpch::queries().into_iter().map(|(_, q)| q.to_string()).collect();
                return Some(Workload { ddl: tpch::ddl(), scripts });
            }
            "health" => customer::health(0.05),
            "telco" => customer::telco(0.02),
            _ => return None,
        };
        let scripts = w.hyperq_setup.iter().chain(&w.distinct).cloned().collect();
        Some(Workload { ddl: w.target_ddl, scripts })
    }
}

/// One target's report: a fresh assessor fed the whole workload.
pub fn assess(profile: TargetProfile, workload: &Workload) -> Report {
    let target = profile.name.clone();
    let mut assessor = Assessor::for_target(profile);
    for sql in &workload.ddl {
        assessor.ingest_ddl(sql);
    }
    let mut assessments: Vec<StatementAssessment> = Vec::new();
    for sql in &workload.scripts {
        let base = assessments.len();
        for mut sa in assessor.assess_script(sql) {
            sa.index += base;
            assessments.push(sa);
        }
    }
    Report::build(&target, &assessments, assessor.inferred_tables())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assessor() -> Assessor {
        Assessor::for_target(hyperq_core::targets::simwh())
    }

    #[test]
    fn ddl_then_query_is_translatable() {
        let mut a = assessor();
        a.ingest_ddl("CREATE TABLE T (A INTEGER, B VARCHAR(10))");
        let out = a.assess_script("SELECT A, B FROM T WHERE A > 1");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].verdict, Verdict::Translatable);
        assert!(a.inferred_tables().is_empty());
    }

    #[test]
    fn usage_only_tables_are_inferred() {
        let mut a = assessor();
        let out =
            a.assess_script("SELECT ORDERS.ID, ORDERS.TOTAL FROM ORDERS WHERE ORDERS.TOTAL > 5");
        assert_eq!(out[0].verdict, Verdict::Translatable, "{:?}", out[0].verdict);
        assert_eq!(a.inferred_tables(), vec!["ORDERS".to_string()]);
    }

    #[test]
    fn macro_lifecycle_is_needs_emulation() {
        let mut a = assessor();
        a.ingest_ddl("CREATE TABLE T (A INTEGER)");
        let out = a.assess_script(
            "CREATE MACRO M (X INTEGER) AS (SELECT A FROM T WHERE A = :X;); EXEC M(4)",
        );
        assert_eq!(out.len(), 2);
        for sa in &out {
            let kinds = vec![EmulationKind::Macro];
            assert_eq!(sa.verdict, Verdict::NeedsEmulation { kinds, tier: CostTier::Medium });
        }
    }

    #[test]
    fn undefined_macro_is_unsupported() {
        let mut a = assessor();
        let out = a.assess_script("EXEC NOPE(1)");
        match &out[0].verdict {
            Verdict::Unsupported { reason, .. } => {
                assert!(reason.contains("not defined"), "{reason}");
            }
            v => panic!("expected unsupported, got {v:?}"),
        }
    }

    #[test]
    fn gtt_define_then_touch_predicts_materialization_once() {
        let mut a = assessor();
        let out = a.assess_script(
            "CREATE GLOBAL TEMPORARY TABLE G (A INTEGER); \
             INSERT INTO G SELECT 1; \
             SELECT COUNT(*) FROM G",
        );
        assert_eq!(out.len(), 3);
        let kinds = vec![EmulationKind::GttDefine];
        assert_eq!(out[0].verdict, Verdict::NeedsEmulation { kinds, tier: CostTier::Medium });
        let kinds = vec![EmulationKind::GttMaterialize];
        assert_eq!(out[1].verdict, Verdict::NeedsEmulation { kinds, tier: CostTier::High });
        // Second touch: the instance is already materialized.
        assert_eq!(out[2].verdict, Verdict::Translatable);
    }

    #[test]
    fn span_points_at_statement_in_script() {
        let mut a = assessor();
        a.ingest_ddl("CREATE TABLE T (A INTEGER)");
        let script = "SELECT A FROM T; SELECT ZZZ FROM T";
        let out = a.assess_script(script);
        assert_eq!(out[0].verdict, Verdict::Translatable);
        assert!(matches!(out[1].verdict, Verdict::Unsupported { .. }));
        let span = &out[1].span;
        assert!(span.start >= 17 && span.end <= script.len(), "{span:?}");
    }

    fn verdicts(a: &mut Assessor, script: &str) -> Vec<String> {
        a.assess_script(script).iter().map(|sa| format!("{:?}", sa.verdict)).collect()
    }

    /// A later unqualified reference widens an inferred table (the dry
    /// target's engine has no ALTER: drop + re-create).
    #[test]
    fn inferred_table_learns_column_from_unqualified_reference() {
        let mut a = assessor();
        let v = verdicts(&mut a, "SELECT ORDERS.ID FROM ORDERS; SELECT TOTAL FROM ORDERS");
        assert_eq!(v, ["Translatable", "Translatable"]);
        let def = a.target.engine.table_def("ORDERS").expect("fabricated");
        let names: Vec<&str> = def.columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["ID", "TOTAL"]);
    }

    #[test]
    fn drop_of_missing_table_is_unsupported() {
        let v = verdicts(&mut assessor(), "DROP TABLE NOPE");
        assert!(v[0].starts_with("Unsupported"), "{v:?}");
    }

    /// The engine cannot parse cloud-c's `DATE_ADD(d, INTERVAL n DAY)`:
    /// the CTAS is acknowledged without registering its table, and the
    /// later reference infers it from usage.
    #[test]
    fn ctas_the_engine_cannot_parse_stays_translatable() {
        let mut a = Assessor::for_target(hyperq_core::targets::lookup("cloud-c").expect("cloud-c"));
        a.ingest_ddl("CREATE TABLE T (D DATE)");
        let script = "CREATE TABLE T2 AS (SELECT D + 1 AS N FROM T) WITH DATA; SELECT T2.N FROM T2";
        assert_eq!(verdicts(&mut a, script), ["Translatable", "Translatable"]);
        assert!(a.target.log.lock().iter().any(|sql| sql.contains("DATE_ADD")));
        assert_eq!(a.inferred_tables(), ["T2"]);
    }

    /// EXPLAIN binds its statement like the statement itself, so a
    /// usage-only table is inferred for it too.
    #[test]
    fn explain_over_usage_only_table_infers_it() {
        let mut a = assessor();
        let out = a.assess_script("EXPLAIN SELECT ORDERS.ID FROM ORDERS");
        let kinds = vec![EmulationKind::Explain];
        assert_eq!(out[0].verdict, Verdict::NeedsEmulation { kinds, tier: CostTier::Low });
        assert_eq!(a.inferred_tables(), ["ORDERS"]);
    }
}
