//! Capability-conformance linting of *serialized* SQL, plus anti-pattern
//! lints over *source* statements.
//!
//! The analyzer layer ([`crate::analyze`]) checks the plan tree; this module
//! is its post-serializer sibling: a token walk over the exact bytes Hyper-Q
//! is about to send to the target, cross-checked against the session's
//! [`TargetCapabilities`]. Any construct the target lacks — a leaked
//! `QUALIFY`, a `GROUPING SETS` the transformer should have lowered, a
//! `RETURNING` clause on a no-`RETURNING` target — is reported as a
//! [`Finding`] with a rule name and a byte span into the serialized text.
//!
//! The same machinery also runs a set of *anti-pattern* lints over the
//! client's source statement (cache-hostile volatile literals, `SELECT *`
//! feeding DML, DML outside an explicit transaction, constructs with poor
//! cloud portability). Anti-pattern findings are advisory: they carry
//! [`Severity::Warning`] or [`Severity::Info`] and never fail a statement,
//! even in [`ConformanceMode::Strict`].
//!
//! Every rule is declared in [`RULES`], which doubles as the exhaustiveness
//! ledger: each of the 27 tracked [`Feature`]s and each mid-tier
//! [`EmulationKind`] must be policed by at least one rule (a unit test and
//! the CI audit enforce this). Rules whose construct is structurally
//! eliminated *before* serialization (e.g. named-expression references,
//! which the binder inlines) have no lexical check; the table entry records
//! why the emitted SQL cannot contain them.
//!
//! Reporting follows the analyzer convention:
//! `hyperq_conformance_checks_total{stage}` counts walks,
//! `hyperq_conformance_violations_total{rule}` counts findings, and walk
//! latency lands in `hyperq_stage_duration_seconds{stage="conformance"}`.

use std::sync::Arc;
use std::time::Instant;

use hyperq_obs::{Counter, Histogram, ObsContext};
use hyperq_parser::lexer::tokenize;
use hyperq_parser::token::{Spanned, Token};
use hyperq_xtra::feature::{Feature, FeatureSet};

use crate::capability::{percent_supported, AddMonthsStyle, DateAddStyle, ModStyle, TargetCapabilities};
use crate::crosscompiler::STAGE_DURATION_METRIC;
use crate::emulate::EmulationKind;
use crate::error::{HyperQError, Result};

/// How the conformance layer reacts to findings: the analyze layer's
/// Off / LogOnly / Strict. Under `Strict`, [`Severity::Error`] findings on
/// serialized SQL become [`HyperQError::Validation`] errors; advisory
/// (warning/info) findings only count in every mode.
pub use crate::analyze::AnalyzeMode as ConformanceMode;

/// Finding severity. Only [`Severity::Error`] fails statements in strict
/// mode; warnings and infos are advisory in every mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One lint finding: a named rule, where it fired, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Rule name from [`RULES`].
    pub rule: &'static str,
    pub severity: Severity,
    /// Byte range into the linted text (`start < end`, both within bounds).
    pub span: (usize, usize),
    /// 1-based line of the span start.
    pub line: u32,
    pub message: String,
}

/// How a rule polices its constructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleCheck {
    /// A lexical pattern over serialized SQL ([`lint_serialized`]).
    Serialized,
    /// A lexical pattern over the client's source statement
    /// ([`lint_source`]).
    Source,
    /// No lexical check: the construct is structurally eliminated before
    /// serialization (binder inlining, mid-tier interception), so emitted
    /// SQL cannot contain it. The entry documents the policing story.
    Structural,
}

/// Declaration of one conformance rule: the ledger row the exhaustiveness
/// audit consumes.
pub struct RuleSpec {
    pub name: &'static str,
    pub severity: Severity,
    pub check: RuleCheck,
    /// Tracked source features this rule polices in emitted SQL.
    pub features: &'static [Feature],
    /// Mid-tier emulation kinds whose emitted artifacts this rule covers.
    pub emulations: &'static [EmulationKind],
    pub description: &'static str,
}

/// The complete rule table. Every [`Feature`] and every [`EmulationKind`]
/// appears in at least one entry; `conformance::tests` and the repo's
/// exhaustiveness audit enforce this.
pub const RULES: &[RuleSpec] = &[
    // --- capability rules over serialized SQL (translation class) ---
    RuleSpec {
        name: "keyword-shortcut",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::KeywordShortcut],
        emulations: &[],
        description: "statement-leading SEL/INS/UPD/DEL shortcut on a target \
                      without keyword shortcuts",
    },
    RuleSpec {
        name: "keyword-comparison",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::KeywordComparison],
        emulations: &[],
        description: "EQ/NE/LT/LE/GT/GE comparison keyword on a target that \
                      only accepts symbolic operators",
    },
    RuleSpec {
        name: "mod-spelling",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::ModOperator],
        emulations: &[],
        description: "infix MOD on a target without it, or `%` on a target \
                      that spells modulo as MOD(a, b)",
    },
    RuleSpec {
        name: "exponent-operator",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::ExponentOperator],
        emulations: &[],
        description: "`**` exponentiation on a target without the operator",
    },
    RuleSpec {
        name: "chars-function",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::CharsFunction],
        emulations: &[],
        description: "CHARS/CHARACTERS length function on a target without it",
    },
    RuleSpec {
        name: "zeroifnull-function",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::ZeroIfNull],
        emulations: &[],
        description: "ZEROIFNULL/NULLIFZERO on a target without them",
    },
    RuleSpec {
        name: "index-function",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::IndexFunction],
        emulations: &[],
        description: "INDEX(string, substring) on a target without it",
    },
    RuleSpec {
        name: "substr-function",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::SubstrFunction],
        emulations: &[],
        description: "SUBSTR spelling on a target that only accepts SUBSTRING",
    },
    RuleSpec {
        name: "add-months-function",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::AddMonths],
        emulations: &[],
        description: "ADD_MONTHS(d, n) on a target that spells month \
                      arithmetic differently",
    },
    // --- capability rules over serialized SQL (transformation class) ---
    RuleSpec {
        name: "qualify-clause",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::Qualify],
        emulations: &[],
        description: "QUALIFY clause on a target without it",
    },
    RuleSpec {
        name: "implicit-join",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::ImplicitJoin],
        emulations: &[],
        description: "comma-separated FROM list on a target requiring \
                      explicit join syntax",
    },
    RuleSpec {
        name: "named-expr-reuse",
        severity: Severity::Error,
        check: RuleCheck::Structural,
        features: &[Feature::NamedExprReference],
        emulations: &[],
        description: "select-list alias referenced within the same statement: \
                      the binder inlines every named-expression reference \
                      before serialization, so emitted SQL cannot contain one",
    },
    RuleSpec {
        name: "ordinal-group-by",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::OrdinalGroupBy],
        emulations: &[],
        description: "ordinal in GROUP BY on a target that requires \
                      expressions",
    },
    RuleSpec {
        name: "date-int-comparison",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::DateIntComparison],
        emulations: &[],
        description: "DATE literal compared against a bare integer on a \
                      target without Teradata's internal date encoding",
    },
    RuleSpec {
        name: "date-arithmetic",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::DateArithmetic],
        emulations: &[],
        description: "DATE literal ± integer on a target without native date \
                      arithmetic, or a DATEADD/DATE_ADD spelling the target \
                      does not use",
    },
    RuleSpec {
        name: "vector-subquery",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::VectorSubquery],
        emulations: &[],
        description: "row-value comparison against a (quantified) subquery on \
                      a target without vector comparison",
    },
    RuleSpec {
        name: "grouping-sets",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::GroupingExtensions],
        emulations: &[],
        description: "GROUPING SETS/ROLLUP/CUBE on a target without grouping \
                      extensions",
    },
    RuleSpec {
        name: "td-window-syntax",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::NonAnsiWindowSyntax],
        emulations: &[],
        description: "Teradata window shorthand (RANK(expr), CSUM, MAVG, \
                      MSUM, MDIFF) on a target that requires ANSI OVER() \
                      syntax",
    },
    // --- capability rules over serialized SQL (emulation class) ---
    RuleSpec {
        name: "recursive-cte",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::RecursiveQuery],
        emulations: &[EmulationKind::Recursive],
        description: "WITH RECURSIVE on a target without recursive CTEs (the \
                      mid-tier iterative protocol should have decomposed it)",
    },
    RuleSpec {
        name: "macro-statement",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::MacroStatement],
        emulations: &[EmulationKind::Macro],
        description: "CREATE/DROP MACRO or EXEC on a target without macros \
                      (macro bodies are expanded mid-tier)",
    },
    RuleSpec {
        name: "stored-procedure",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::StoredProcedureCall],
        emulations: &[EmulationKind::Procedure],
        description: "CREATE PROCEDURE / CALL on a target without stored \
                      procedures (procedure bodies are interpreted mid-tier)",
    },
    RuleSpec {
        name: "merge-statement",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::MergeStatement],
        emulations: &[EmulationKind::Merge],
        description: "MERGE on a target without it (should have been \
                      decomposed into UPDATE + INSERT steps)",
    },
    RuleSpec {
        name: "help-command",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::HelpCommand],
        emulations: &[EmulationKind::Help],
        description: "HELP command on a target without it (answered from the \
                      mid-tier catalog)",
    },
    RuleSpec {
        name: "dml-on-view",
        severity: Severity::Error,
        check: RuleCheck::Structural,
        features: &[Feature::DmlOnView],
        emulations: &[EmulationKind::ViewDml],
        description: "DML against a session view: detecting this requires the \
                      catalog, and the E6 rewrite re-targets the base table \
                      before serialization, so emitted SQL cannot contain it",
    },
    RuleSpec {
        name: "global-temp-table",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::GlobalTempTable],
        emulations: &[EmulationKind::GttDefine, EmulationKind::GttMaterialize],
        description: "GLOBAL TEMPORARY on a target without global temp tables \
                      (materialized as per-session instances mid-tier)",
    },
    RuleSpec {
        name: "set-table",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::SetTableSemantics],
        emulations: &[EmulationKind::SetTableDedup],
        description: "CREATE SET TABLE on a target without SET semantics \
                      (deduplication is injected into DML instead)",
    },
    RuleSpec {
        name: "column-properties",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[Feature::ColumnProperties],
        emulations: &[EmulationKind::DefaultInjection],
        description: "Teradata column properties (CASESPECIFIC, …) on a \
                      target without them (defaults are injected into INSERTs \
                      mid-tier)",
    },
    // --- output-only capability rules (no Teradata source feature) ---
    RuleSpec {
        name: "top-clause",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[],
        emulations: &[EmulationKind::LimitFetch],
        description: "SELECT TOP n on a target without the TOP clause (a \
                      target with neither spelling gets the bound peeled \
                      and the result truncated mid-tier)",
    },
    RuleSpec {
        name: "limit-clause",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[],
        emulations: &[EmulationKind::LimitFetch],
        description: "LIMIT n on a target without the LIMIT clause (a \
                      target with neither spelling gets the bound peeled \
                      and the result truncated mid-tier)",
    },
    RuleSpec {
        name: "with-ties",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[],
        emulations: &[],
        description: "WITH TIES on a target without it",
    },
    RuleSpec {
        name: "returning-clause",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[],
        emulations: &[],
        description: "RETURNING clause on DML sent to a target without it",
    },
    RuleSpec {
        name: "derived-table-column-aliases",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[],
        emulations: &[],
        description: "derived-table column alias list `) AS d (a, b)` on a \
                      target without the syntax",
    },
    // --- mid-tier leak rules ---
    RuleSpec {
        name: "session-setting",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[],
        emulations: &[EmulationKind::SetSession],
        description: "statement-leading SET sent to a target that rejects \
                      session settings (should have been kept mid-tier)",
    },
    RuleSpec {
        name: "transaction-shorthand",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[],
        emulations: &[EmulationKind::Transaction],
        description: "Teradata BT/ET transaction shorthand, valid on no \
                      target (transactions are journaled mid-tier)",
    },
    RuleSpec {
        name: "mid-tier-leak",
        severity: Severity::Error,
        check: RuleCheck::Serialized,
        features: &[],
        emulations: &[EmulationKind::Explain, EmulationKind::View],
        description: "EXPLAIN or view DDL in serialized output: both are \
                      answered entirely in the mid-tier and must never reach \
                      the target",
    },
    RuleSpec {
        name: "orphan-cleanup",
        severity: Severity::Info,
        check: RuleCheck::Structural,
        features: &[],
        emulations: &[EmulationKind::Cleanup],
        description: "temp-table cleanup emits `DROP TABLE IF EXISTS` only, \
                      idempotent by construction on every profile",
    },
    // --- anti-pattern rules over source statements ---
    RuleSpec {
        name: "volatile-literal",
        severity: Severity::Warning,
        check: RuleCheck::Source,
        features: &[],
        emulations: &[],
        description: "CURRENT_DATE/CURRENT_TIME/CURRENT_TIMESTAMP in a read \
                      query: cache-hostile, the fingerprint changes meaning \
                      across days",
    },
    RuleSpec {
        name: "select-star-dml",
        severity: Severity::Warning,
        check: RuleCheck::Source,
        features: &[],
        emulations: &[],
        description: "SELECT * feeding an INSERT or CTAS: breaks silently \
                      when the source schema evolves",
    },
    RuleSpec {
        name: "implicit-transaction",
        severity: Severity::Info,
        check: RuleCheck::Source,
        features: &[],
        emulations: &[],
        description: "DML outside an explicit transaction: each statement \
                      auto-commits on the target, so multi-statement updates \
                      are not atomic",
    },
    RuleSpec {
        name: "non-portable",
        severity: Severity::Warning,
        check: RuleCheck::Source,
        features: &[],
        emulations: &[],
        description: "statement uses a tracked feature supported by fewer \
                      than half of the surveyed cloud targets",
    },
];

/// Look up a rule declaration by name.
pub fn rule(name: &str) -> Option<&'static RuleSpec> {
    RULES.iter().find(|r| r.name == name)
}

// ---------------------------------------------------------------------------
// Token-walk machinery
// ---------------------------------------------------------------------------

/// Byte length of a token as rendered in source (approximate for string
/// literals containing escaped quotes — always ≤ the written length, so
/// spans never run past the following token).
fn tok_len(t: &Token) -> usize {
    match t {
        Token::Word(w) => w.len(),
        Token::QuotedIdent(w) => w.len() + 2,
        Token::Number(n) => n.len(),
        Token::StringLit(s) => s.len() + 2,
        Token::NamedParam(n) => n.len() + 1,
        Token::Concat | Token::Power | Token::Le | Token::Ge | Token::Neq => 2,
        Token::Eof => 0,
        _ => 1,
    }
}

fn is_cmp(t: &Token) -> bool {
    matches!(
        t,
        Token::Eq | Token::Neq | Token::Lt | Token::Le | Token::Gt | Token::Ge
    )
}

/// Could this token end an operand (so that a following keyword could be an
/// infix operator)?
fn ends_operand(t: &Token) -> bool {
    matches!(
        t,
        Token::Word(_) | Token::QuotedIdent(_) | Token::Number(_) | Token::StringLit(_) | Token::RParen
    )
}

/// Could this token begin an operand?
fn starts_operand(t: &Token) -> bool {
    matches!(
        t,
        Token::Word(_)
            | Token::QuotedIdent(_)
            | Token::Number(_)
            | Token::StringLit(_)
            | Token::NamedParam(_)
            | Token::Question
            | Token::LParen
            | Token::Plus
            | Token::Minus
    )
}

/// Clause context at one paren-nesting level.
#[derive(Clone, Copy, PartialEq)]
enum Clause {
    None,
    From,
    GroupBy,
}

struct Walk<'a> {
    toks: &'a [Spanned],
    findings: Vec<Finding>,
}

impl<'a> Walk<'a> {
    fn kw(&self, i: usize) -> Option<String> {
        self.toks.get(i).and_then(|s| s.token.keyword())
    }

    fn is_kw(&self, i: usize, kw: &str) -> bool {
        self.toks.get(i).is_some_and(|s| s.token.is_kw(kw))
    }

    fn tok(&self, i: usize) -> Option<&Token> {
        self.toks.get(i).map(|s| &s.token)
    }

    fn flag(&mut self, name: &'static str, i: usize, msg: String) {
        let sp = &self.toks[i];
        let spec = rule(name).expect("rule declared in RULES");
        self.findings.push(Finding {
            rule: name,
            severity: spec.severity,
            span: (sp.offset, sp.offset + tok_len(&sp.token).max(1)),
            line: sp.line,
            message: msg,
        });
    }
}

/// Lint serialized SQL against the target's capability signature. Returns
/// findings sorted by span start (the natural walk order).
pub fn lint_serialized(sql: &str, caps: &TargetCapabilities) -> Vec<Finding> {
    let Ok(toks) = tokenize(sql) else {
        // The serializers always produce lexable SQL; an unlexable string
        // cannot be checked token-wise, and the pipeline's own parser will
        // reject it long before this point when it matters.
        return Vec::new();
    };
    let mut w = Walk {
        toks: &toks,
        findings: Vec::new(),
    };
    // Clause context per nesting level, plus whether each open paren group
    // has seen a top-level comma (vector-subquery detection).
    let mut clause: Vec<Clause> = vec![Clause::None];
    let mut group_comma: Vec<bool> = Vec::new();
    // Index of the statement's first token and its leading keyword.
    let mut stmt_start = true;
    let mut leading: Option<String> = None;

    let n = toks.len();
    let mut i = 0;
    while i < n {
        let t = &toks[i].token;
        if *t == Token::Eof {
            break;
        }
        if stmt_start {
            if *t == Token::Semicolon {
                i += 1;
                continue;
            }
            leading = t.keyword();
            stmt_start = false;
            if let Some(kw) = leading.as_deref() {
                match kw {
                    "SEL" | "INS" | "UPD" | "DEL" if !caps.supports(Feature::KeywordShortcut) => {
                        w.flag(
                            "keyword-shortcut",
                            i,
                            format!("{} shortcut: {} lacks keyword shortcuts", kw, caps.name),
                        );
                    }
                    "EXEC" | "EXECUTE" if !caps.supports(Feature::MacroStatement) => {
                        w.flag(
                            "macro-statement",
                            i,
                            format!("{} leaked to {}: macros are mid-tier objects", kw, caps.name),
                        );
                    }
                    "CALL" if !caps.supports(Feature::StoredProcedureCall) => {
                        w.flag(
                            "stored-procedure",
                            i,
                            format!("CALL leaked to {}: procedures are mid-tier objects", caps.name),
                        );
                    }
                    "MERGE" if !caps.supports(Feature::MergeStatement) => {
                        w.flag(
                            "merge-statement",
                            i,
                            format!("MERGE is not supported by {}", caps.name),
                        );
                    }
                    "HELP" if !caps.supports(Feature::HelpCommand) => {
                        w.flag(
                            "help-command",
                            i,
                            format!("HELP leaked to {}: answered from the mid-tier catalog", caps.name),
                        );
                    }
                    "SET" if !caps.session_settings => {
                        w.flag(
                            "session-setting",
                            i,
                            format!("session SET leaked to {}: should stay mid-tier", caps.name),
                        );
                    }
                    "BT" | "ET" => {
                        w.flag(
                            "transaction-shorthand",
                            i,
                            format!("Teradata {kw} shorthand is valid on no target"),
                        );
                    }
                    "EXPLAIN" => {
                        w.flag(
                            "mid-tier-leak",
                            i,
                            "EXPLAIN is answered mid-tier and must not reach the target".into(),
                        );
                    }
                    _ => {}
                }
            }
        }
        match t {
            Token::Semicolon => {
                stmt_start = true;
                leading = None;
                clause.truncate(1);
                clause[0] = Clause::None;
                group_comma.clear();
            }
            Token::LParen => {
                clause.push(Clause::None);
                group_comma.push(false);
                // Preceding word + open paren: function-style checks.
                if i > 0 {
                    if let Some(kw) = w.kw(i - 1) {
                        let fi = i - 1;
                        let nonempty = w.tok(i + 1).is_some_and(|t| *t != Token::RParen);
                        match kw.as_str() {
                            "CHARS" | "CHARACTERS" if !caps.supports(Feature::CharsFunction) => w.flag(
                                "chars-function",
                                fi,
                                format!("{}() is not supported by {}", kw, caps.name),
                            ),
                            "ZEROIFNULL" | "NULLIFZERO" if !caps.supports(Feature::ZeroIfNull) => w.flag(
                                "zeroifnull-function",
                                fi,
                                format!("{}() is not supported by {}", kw, caps.name),
                            ),
                            "INDEX" if !caps.supports(Feature::IndexFunction) && fi > 0 && !w.is_kw(fi - 1, "CREATE") => {
                                w.flag(
                                    "index-function",
                                    fi,
                                    format!("INDEX() is not supported by {}", caps.name),
                                );
                            }
                            "SUBSTR" if !caps.supports(Feature::SubstrFunction) => w.flag(
                                "substr-function",
                                fi,
                                format!("{} only accepts SUBSTRING", caps.name),
                            ),
                            "ADD_MONTHS" if caps.add_months_style != AddMonthsStyle::AddMonthsFn => {
                                w.flag(
                                    "add-months-function",
                                    fi,
                                    format!("{} does not spell month arithmetic ADD_MONTHS", caps.name),
                                );
                            }
                            "DATEADD"
                                if caps.date_add_style != DateAddStyle::DateAddFn
                                    && caps.add_months_style != AddMonthsStyle::DateAddFn =>
                            {
                                w.flag(
                                    "date-arithmetic",
                                    fi,
                                    format!("{} does not use the DATEADD spelling", caps.name),
                                );
                            }
                            "DATE_ADD" if caps.date_add_style != DateAddStyle::IntervalFn => w.flag(
                                "date-arithmetic",
                                fi,
                                format!("{} does not use the DATE_ADD spelling", caps.name),
                            ),
                            "RANK" if !caps.supports(Feature::NonAnsiWindowSyntax) && nonempty => w.flag(
                                "td-window-syntax",
                                fi,
                                format!("RANK(expr) shorthand is not supported by {}", caps.name),
                            ),
                            "CSUM" | "MAVG" | "MSUM" | "MDIFF" if !caps.supports(Feature::NonAnsiWindowSyntax) => w.flag(
                                "td-window-syntax",
                                fi,
                                format!("{}() is not supported by {}", kw, caps.name),
                            ),
                            // The new nesting level was already pushed;
                            // ROLLUP/CUBE sit in the *enclosing* clause.
                            "ROLLUP" | "CUBE"
                                if !caps.supports(Feature::GroupingExtensions)
                                    && clause[clause.len() - 2] == Clause::GroupBy =>
                            {
                                w.flag(
                                    "grouping-sets",
                                    fi,
                                    format!("{} is not supported by {}", kw, caps.name),
                                );
                            }
                            _ => {}
                        }
                    }
                }
            }
            Token::RParen => {
                if clause.len() > 1 {
                    clause.pop();
                }
                let had_comma = group_comma.pop().unwrap_or(false);
                // `(a, b) cmp [ANY|ALL|SOME] (…)` — a row-value (vector)
                // comparison. The group must not be a call argument list.
                if had_comma && !caps.supports(Feature::VectorSubquery) {
                    // Find the matching LParen to inspect the token before it.
                    // Walk back using a simple depth count.
                    let mut depth = 0usize;
                    let mut open = None;
                    for j in (0..i).rev() {
                        match toks[j].token {
                            Token::RParen => depth += 1,
                            Token::LParen => {
                                if depth == 0 {
                                    open = Some(j);
                                    break;
                                }
                                depth -= 1;
                            }
                            _ => {}
                        }
                    }
                    // A word directly before the open paren makes this a
                    // call argument list — unless it's a clause keyword
                    // that merely precedes a parenthesized row value.
                    let call_like = open.is_some_and(|j| {
                        j > 0
                            && match &toks[j - 1].token {
                                Token::QuotedIdent(_) => true,
                                Token::Word(wd) => !matches!(
                                    wd.to_ascii_uppercase().as_str(),
                                    "WHERE" | "AND" | "OR" | "NOT" | "ON" | "WHEN" | "THEN"
                                        | "ELSE" | "SELECT" | "SEL" | "BY" | "HAVING"
                                        | "QUALIFY" | "SET"
                                ),
                                _ => false,
                            }
                    });
                    let mut k = i + 1;
                    if !call_like && w.tok(k).is_some_and(is_cmp) {
                        k += 1;
                        if w.is_kw(k, "ANY") || w.is_kw(k, "ALL") || w.is_kw(k, "SOME") {
                            k += 1;
                        }
                        if w.tok(k) == Some(&Token::LParen) {
                            w.flag(
                                "vector-subquery",
                                i,
                                format!("vector comparison is not supported by {}", caps.name),
                            );
                        }
                    }
                }
            }
            Token::Comma => {
                if let Some(f) = group_comma.last_mut() {
                    *f = true;
                }
                if *clause.last().unwrap() == Clause::From && !caps.supports(Feature::ImplicitJoin) {
                    w.flag(
                        "implicit-join",
                        i,
                        format!("comma join: {} requires explicit JOIN syntax", caps.name),
                    );
                }
            }
            Token::Percent if caps.mod_style == ModStyle::Function => {
                w.flag(
                    "mod-spelling",
                    i,
                    format!("{} spells modulo MOD(a, b), not `%`", caps.name),
                );
            }
            Token::Power if !caps.supports(Feature::ExponentOperator) => {
                w.flag(
                    "exponent-operator",
                    i,
                    format!("`**` is not supported by {}", caps.name),
                );
            }
            Token::Number(_)
                // Ordinal GROUP BY item: a bare number that is a complete
                // list element in GROUP BY context.
                if *clause.last().unwrap() == Clause::GroupBy
                    && !caps.supports(Feature::OrdinalGroupBy)
                    && i > 0
                    && matches!(toks[i - 1].token, Token::Comma | Token::Word(_))
                    && (w.is_kw(i - 1, "BY") || toks[i - 1].token == Token::Comma)
                => {
                    let terminated = match w.tok(i + 1) {
                        Some(Token::Comma | Token::Semicolon | Token::Eof) | None => true,
                        Some(Token::Word(word)) => matches!(
                            word.to_ascii_uppercase().as_str(),
                            "HAVING" | "ORDER" | "LIMIT" | "QUALIFY" | "UNION" | "EXCEPT"
                                | "INTERSECT" | "WINDOW"
                        ),
                        Some(Token::RParen) => true,
                        _ => false,
                    };
                    if terminated {
                        w.flag(
                            "ordinal-group-by",
                            i,
                            format!("GROUP BY ordinal: {} requires expressions", caps.name),
                        );
                    }
                }
            Token::Word(word) => {
                let kw = word.to_ascii_uppercase();
                let dotted = i > 0 && toks[i - 1].token == Token::Dot;
                match kw.as_str() {
                    // clause tracking
                    "FROM" if !dotted => *clause.last_mut().unwrap() = Clause::From,
                    "GROUP" if !dotted && w.is_kw(i + 1, "BY") => {
                        *clause.last_mut().unwrap() = Clause::GroupBy;
                    }
                    "SELECT" | "WHERE" | "HAVING" | "WINDOW" | "ORDER" | "UNION" | "EXCEPT"
                    | "INTERSECT" | "VALUES" | "ON" if !dotted => {
                        *clause.last_mut().unwrap() = Clause::None;
                    }
                    "SET" if !dotted && i > 0 => {
                        // UPDATE … SET resets clause context; CREATE SET
                        // TABLE is the Teradata set-semantics leak.
                        if w.is_kw(i - 1, "CREATE") && w.is_kw(i + 1, "TABLE") && !caps.supports(Feature::SetTableSemantics) {
                            w.flag(
                                "set-table",
                                i,
                                format!("CREATE SET TABLE: {} has no SET semantics", caps.name),
                            );
                        }
                        *clause.last_mut().unwrap() = Clause::None;
                    }
                    "QUALIFY" if !dotted && !caps.supports(Feature::Qualify) => {
                        *clause.last_mut().unwrap() = Clause::None;
                        w.flag(
                            "qualify-clause",
                            i,
                            format!("QUALIFY is not supported by {}", caps.name),
                        );
                    }
                    "LIMIT" if !dotted && !caps.limit_clause
                        && w.tok(i + 1).is_some_and(|t| matches!(t, Token::Number(_))) => {
                            w.flag(
                                "limit-clause",
                                i,
                                format!("LIMIT is not supported by {}", caps.name),
                            );
                        }
                    "TOP" if !caps.top_clause
                        && i > 0
                        && (w.is_kw(i - 1, "SELECT")
                            || w.is_kw(i - 1, "SEL")
                            || w.is_kw(i - 1, "DISTINCT")) =>
                    {
                        w.flag(
                            "top-clause",
                            i,
                            format!("TOP is not supported by {}", caps.name),
                        );
                    }
                    "WITH" if !dotted => {
                        if w.is_kw(i + 1, "RECURSIVE") && !caps.supports(Feature::RecursiveQuery) {
                            w.flag(
                                "recursive-cte",
                                i,
                                format!("WITH RECURSIVE is not supported by {}", caps.name),
                            );
                        }
                        if w.is_kw(i + 1, "TIES") && !caps.with_ties {
                            w.flag(
                                "with-ties",
                                i,
                                format!("WITH TIES is not supported by {}", caps.name),
                            );
                        }
                    }
                    "GROUPING" if w.is_kw(i + 1, "SETS") && !caps.supports(Feature::GroupingExtensions) => {
                        w.flag(
                            "grouping-sets",
                            i,
                            format!("GROUPING SETS is not supported by {}", caps.name),
                        );
                    }
                    "MACRO" if !caps.supports(Feature::MacroStatement)
                        && i > 0
                        && (w.is_kw(i - 1, "CREATE")
                            || w.is_kw(i - 1, "REPLACE")
                            || w.is_kw(i - 1, "DROP")) =>
                    {
                        w.flag(
                            "macro-statement",
                            i,
                            format!("macro DDL leaked to {}: macros are mid-tier objects", caps.name),
                        );
                    }
                    "PROCEDURE" if !caps.supports(Feature::StoredProcedureCall)
                        && i > 0
                        && (w.is_kw(i - 1, "CREATE")
                            || w.is_kw(i - 1, "REPLACE")
                            || w.is_kw(i - 1, "DROP")) =>
                    {
                        w.flag(
                            "stored-procedure",
                            i,
                            format!("procedure DDL leaked to {}: procedures are mid-tier objects", caps.name),
                        );
                    }
                    "VIEW" if i > 0
                        && (w.is_kw(i - 1, "CREATE")
                            || w.is_kw(i - 1, "REPLACE")
                            || w.is_kw(i - 1, "DROP")) =>
                    {
                        w.flag(
                            "mid-tier-leak",
                            i,
                            "view DDL is kept mid-tier and must not reach the target".into(),
                        );
                    }
                    "GLOBAL" if w.is_kw(i + 1, "TEMPORARY") && !caps.supports(Feature::GlobalTempTable) => {
                        w.flag(
                            "global-temp-table",
                            i,
                            format!("GLOBAL TEMPORARY is not supported by {}", caps.name),
                        );
                    }
                    "CASESPECIFIC" if !caps.supports(Feature::ColumnProperties) => {
                        w.flag(
                            "column-properties",
                            i,
                            format!("CASESPECIFIC is not supported by {}", caps.name),
                        );
                    }
                    "RETURNING" if !caps.returning_clause
                        && clause.len() == 1
                        && matches!(
                            leading.as_deref(),
                            Some("INSERT" | "UPDATE" | "DELETE" | "MERGE")
                        ) =>
                    {
                        w.flag(
                            "returning-clause",
                            i,
                            format!("RETURNING is not supported by {}", caps.name),
                        );
                    }
                    "EQ" | "NE" | "LT" | "LE" | "GT" | "GE"
                        if !caps.supports(Feature::KeywordComparison)
                            && i > 0
                            && ends_operand(&toks[i - 1].token)
                            && w.tok(i + 1).is_some_and(starts_operand) =>
                    {
                        w.flag(
                            "keyword-comparison",
                            i,
                            format!("{} comparison keyword: {} only accepts symbols", kw, caps.name),
                        );
                    }
                    "MOD" if !caps.supports(Feature::ModOperator)
                        && i > 0
                        && ends_operand(&toks[i - 1].token)
                        && w.tok(i + 1).is_some_and(starts_operand)
                        && w.tok(i + 1) != Some(&Token::LParen) =>
                    {
                        w.flag(
                            "mod-spelling",
                            i,
                            format!("infix MOD is not supported by {}", caps.name),
                        );
                    }
                    "AS"
                        // `) AS alias (col, …)` — derived-table column alias
                        // list (a CTE is `alias AS (…)`, no leading RParen).
                        if !caps.derived_table_column_aliases
                            && i > 0
                            && toks[i - 1].token == Token::RParen
                            && w.tok(i + 1).is_some_and(|t| matches!(t, Token::Word(_) | Token::QuotedIdent(_)))
                            && w.tok(i + 2) == Some(&Token::LParen)
                        => {
                            w.flag(
                                "derived-table-column-aliases",
                                i,
                                format!("derived-table column aliases are not supported by {}", caps.name),
                            );
                        }
                    "DATE" if !dotted => {
                        // DATE 'lit' followed by a comparison/arithmetic with
                        // a bare integer (or preceded by one).
                        if w.tok(i + 1).is_some_and(|t| matches!(t, Token::StringLit(_))) {
                            let after = i + 2;
                            if !caps.supports(Feature::DateIntComparison)
                                && w.tok(after).is_some_and(is_cmp)
                                && w.tok(after + 1).is_some_and(|t| matches!(t, Token::Number(_)))
                            {
                                w.flag(
                                    "date-int-comparison",
                                    i,
                                    format!("DATE vs integer comparison: {} lacks the internal date encoding", caps.name),
                                );
                            }
                            if !caps.supports(Feature::DateArithmetic)
                                && w.tok(after)
                                    .is_some_and(|t| matches!(t, Token::Plus | Token::Minus))
                                && w.tok(after + 1).is_some_and(|t| matches!(t, Token::Number(_)))
                                && !w.is_kw(after + 1, "INTERVAL")
                            {
                                w.flag(
                                    "date-arithmetic",
                                    i,
                                    format!("DATE ± integer: {} lacks native date arithmetic", caps.name),
                                );
                            }
                        }
                        // integer cmp DATE 'lit'
                        if !caps.supports(Feature::DateIntComparison)
                            && i >= 2
                            && matches!(toks[i - 2].token, Token::Number(_))
                            && is_cmp(&toks[i - 1].token)
                            && w.tok(i + 1).is_some_and(|t| matches!(t, Token::StringLit(_)))
                        {
                            w.flag(
                                "date-int-comparison",
                                i,
                                format!("integer vs DATE comparison: {} lacks the internal date encoding", caps.name),
                            );
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
        i += 1;
    }
    w.findings
}

/// Anti-pattern lints over a client's *source* statement. `features` is the
/// statement's tracked-feature set from the parser; `in_transaction` is the
/// session's explicit-transaction state. Findings are always advisory
/// (warning/info).
pub fn lint_source(sql: &str, features: &FeatureSet, in_transaction: bool) -> Vec<Finding> {
    let Ok(toks) = tokenize(sql) else {
        return Vec::new();
    };
    let mut w = Walk {
        toks: &toks,
        findings: Vec::new(),
    };
    let leading = toks
        .iter()
        .find(|s| !matches!(s.token, Token::Semicolon | Token::Eof))
        .and_then(|s| s.token.keyword());
    let leading = leading.as_deref().unwrap_or("");
    let is_read = matches!(leading, "SELECT" | "SEL" | "WITH");
    let is_dml = matches!(
        leading,
        "INSERT" | "INS" | "UPDATE" | "UPD" | "DELETE" | "DEL" | "MERGE"
    );
    let is_ctas = leading == "CREATE"
        && toks
            .iter()
            .any(|s| s.token.is_kw("AS"));

    let n = toks.len();
    for i in 0..n {
        if let Token::Word(word) = &toks[i].token {
            let kw = word.to_ascii_uppercase();
            match kw.as_str() {
                "CURRENT_DATE" | "CURRENT_TIME" | "CURRENT_TIMESTAMP" if is_read => {
                    w.flag(
                        "volatile-literal",
                        i,
                        format!("{kw} makes this query cache-hostile: its fingerprint is stable but its meaning changes with the clock"),
                    );
                }
                "SELECT" | "SEL" if (is_dml || is_ctas) && i + 1 < n
                    && toks[i + 1].token == Token::Star => {
                        w.flag(
                            "select-star-dml",
                            i + 1,
                            "SELECT * feeding DML breaks silently when the source schema evolves".into(),
                        );
                    }
                _ => {}
            }
        }
    }

    if is_dml && !in_transaction {
        w.flag(
            "implicit-transaction",
            0,
            format!("{leading} outside an explicit transaction auto-commits on the target"),
        );
    }

    // Portability advisory: any tracked feature supported by fewer than half
    // of the surveyed cloud targets.
    for f in features.iter() {
        let percent = percent_supported(f);
        if percent < 50.0 {
            w.flag(
                "non-portable",
                0,
                format!(
                    "{} ({}) is supported by only {:.0}% of surveyed cloud targets",
                    f.code(),
                    f.title(),
                    percent
                ),
            );
        }
    }
    w.findings
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// The per-session conformance driver: mode + pre-resolved metric handles,
/// the post-serializer sibling of [`crate::analyze::Analyzer`].
pub struct Conformance {
    mode: ConformanceMode,
    obs: Arc<ObsContext>,
    duration: Arc<Histogram>,
    checks_serialized: Arc<Counter>,
    checks_source: Arc<Counter>,
}

impl Conformance {
    pub fn new(mode: ConformanceMode, obs: &Arc<ObsContext>) -> Self {
        let checks = |stage| {
            obs.metrics
                .counter("hyperq_conformance_checks_total", &[("stage", stage)])
        };
        Conformance {
            mode,
            obs: Arc::clone(obs),
            duration: obs
                .metrics
                .histogram(STAGE_DURATION_METRIC, &[("stage", "conformance")]),
            checks_serialized: checks("serialized"),
            checks_source: checks("source"),
        }
    }

    pub fn mode(&self) -> ConformanceMode {
        self.mode
    }

    /// This linter in `Off` mode: a preview's, which lints and records
    /// nothing.
    pub(crate) fn off(&self) -> Conformance {
        Conformance {
            mode: ConformanceMode::Off,
            obs: Arc::clone(&self.obs),
            duration: Arc::clone(&self.duration),
            checks_serialized: Arc::clone(&self.checks_serialized),
            checks_source: Arc::clone(&self.checks_source),
        }
    }

    /// Count findings attributed to the rule *and* the target profile
    /// that tripped it — a multi-target gateway (or a session serving
    /// per-request target overrides) needs both coordinates to tell which
    /// profile a violation belongs to.
    fn count(&self, findings: &[Finding], target: &str) {
        for f in findings {
            self.obs
                .metrics
                .counter(
                    "hyperq_conformance_violations_total",
                    &[("rule", f.rule), ("target", target)],
                )
                .inc();
        }
    }

    /// Lint serialized SQL on its way to the target. In strict mode, an
    /// error-severity finding fails the statement. `target` is the
    /// registry name of the profile the SQL was serialized for — the
    /// violation counter's `target` label.
    pub fn check_serialized(&self, sql: &str, caps: &TargetCapabilities, target: &str) -> Result<()> {
        if self.mode == ConformanceMode::Off {
            return Ok(());
        }
        let t0 = Instant::now();
        let findings = lint_serialized(sql, caps);
        let d = t0.elapsed();
        self.duration.record(d);
        hyperq_obs::provenance::note_stage("conformance", d);
        self.checks_serialized.inc();
        if findings.is_empty() {
            return Ok(());
        }
        self.count(&findings, target);
        if self.mode.is_strict() {
            if let Some(f) = findings.iter().find(|f| f.severity == Severity::Error) {
                return Err(HyperQError::Validation(format!(
                    "conformance rule '{}' at bytes {}..{} (line {}): {} — {sql}",
                    f.rule, f.span.0, f.span.1, f.line, f.message
                )));
            }
        }
        Ok(())
    }

    /// Run the advisory anti-pattern lints over a source statement. Never
    /// fails; findings are only counted.
    pub fn check_source(
        &self,
        sql: &str,
        features: &FeatureSet,
        in_transaction: bool,
        target: &str,
    ) {
        if self.mode == ConformanceMode::Off || sql.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let findings = lint_source(sql, features, in_transaction);
        let d = t0.elapsed();
        self.duration.record(d);
        hyperq_obs::provenance::note_stage("conformance", d);
        self.checks_source.inc();
        self.count(&findings, target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simwh() -> TargetCapabilities {
        crate::targets::simwh().caps
    }

    fn cloud(name: &str) -> TargetCapabilities {
        crate::targets::lookup(name).unwrap().caps
    }

    fn find(sql: &str, caps: &TargetCapabilities, rule: &str) -> bool {
        lint_serialized(sql, caps).iter().any(|f| f.rule == rule)
    }

    #[test]
    fn rules_cover_every_feature_and_emulation_kind() {
        for f in Feature::ALL {
            assert!(
                RULES.iter().any(|r| r.features.contains(&f)),
                "feature {} ({:?}) has no conformance rule",
                f.code(),
                f
            );
        }
        for k in EmulationKind::ALL {
            assert!(
                RULES.iter().any(|r| r.emulations.contains(&k)),
                "emulation kind {} has no conformance rule",
                k.as_str()
            );
        }
        let mut names: Vec<_> = RULES.iter().map(|r| r.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(n, names.len(), "duplicate rule names");
    }

    #[test]
    fn clean_ansi_is_clean_on_simwh() {
        let sql = "SELECT a, b FROM t INNER JOIN u ON t.id = u.id WHERE a > 3 \
                   GROUP BY a, b ORDER BY a LIMIT 10";
        assert!(lint_serialized(sql, &simwh()).is_empty());
    }

    #[test]
    fn capability_rules_fire() {
        let caps = simwh();
        assert!(find("SEL a FROM t", &caps, "keyword-shortcut"));
        assert!(find("SELECT a FROM t WHERE a EQ 3", &caps, "keyword-comparison"));
        assert!(find("SELECT a ** 2 FROM t", &caps, "exponent-operator"));
        assert!(find("SELECT CHARS(a) FROM t", &caps, "chars-function"));
        assert!(find("SELECT ZEROIFNULL(a) FROM t", &caps, "zeroifnull-function"));
        assert!(find("SELECT INDEX(a, 'x') FROM t", &caps, "index-function"));
        assert!(find("SELECT SUBSTR(a, 1, 2) FROM t", &caps, "substr-function"));
        assert!(find("SELECT a FROM t QUALIFY rn = 1", &caps, "qualify-clause"));
        assert!(find("SELECT a FROM t, u WHERE t.id = u.id", &caps, "implicit-join"));
        assert!(find("SELECT a FROM t GROUP BY 1", &caps, "ordinal-group-by"));
        assert!(find(
            "SELECT a FROM t WHERE d > DATE '2020-01-01' AND DATE '2020-01-01' = 20200101",
            &caps,
            "date-int-comparison"
        ));
        assert!(find(
            "SELECT a, b FROM t WHERE (a, b) > ANY (SELECT x, y FROM u)",
            &caps,
            "vector-subquery"
        ));
        assert!(find(
            "SELECT a FROM t GROUP BY GROUPING SETS ((a), ())",
            &caps,
            "grouping-sets"
        ));
        assert!(find("SELECT a FROM t GROUP BY ROLLUP (a)", &caps, "grouping-sets"));
        assert!(find("SELECT RANK(a DESC) FROM t", &caps, "td-window-syntax"));
        assert!(find(
            "WITH RECURSIVE r AS (SELECT 1) SELECT * FROM r",
            &caps,
            "recursive-cte"
        ));
        assert!(find("MERGE INTO t USING u ON t.id = u.id", &caps, "merge-statement"));
        assert!(find("HELP TABLE t", &caps, "help-command"));
        assert!(find(
            "CREATE GLOBAL TEMPORARY TABLE g (a INT)",
            &caps,
            "global-temp-table"
        ));
        assert!(find("CREATE SET TABLE t (a INT)", &caps, "set-table"));
        assert!(find(
            "CREATE TABLE t (a VARCHAR(3) CASESPECIFIC)",
            &caps,
            "column-properties"
        ));
        assert!(find("SELECT TOP 3 a FROM t", &caps, "top-clause"));
        assert!(find(
            "INSERT INTO t VALUES (1) RETURNING a",
            &caps,
            "returning-clause"
        ));
        assert!(find("BT", &caps, "transaction-shorthand"));
        assert!(find("EXPLAIN SELECT 1", &caps, "mid-tier-leak"));
        assert!(find("CREATE VIEW v AS SELECT 1", &caps, "mid-tier-leak"));
        assert!(find("EXEC report(3)", &caps, "macro-statement"));
        assert!(find("CALL p(1)", &caps, "stored-procedure"));
    }

    #[test]
    fn spellings_follow_target_styles() {
        // simwh spells modulo `%` and months ADD_MONTHS: both clean.
        let caps = simwh();
        assert!(lint_serialized("SELECT a % 2 FROM t", &caps).is_empty());
        assert!(lint_serialized("SELECT ADD_MONTHS(d, 3) FROM t", &caps).is_empty());
        // cloud_c spells modulo MOD() and months via intervals.
        let c = cloud("cloud-c");
        assert!(find("SELECT a % 2 FROM t", &c, "mod-spelling"));
        assert!(find("SELECT ADD_MONTHS(d, 3) FROM t", &c, "add-months-function"));
        assert!(find("SELECT DATEADD(DAY, 3, d) FROM t", &simwh(), "date-arithmetic"));
        // LIMIT on a TOP-only target, and vice versa.
        let a = cloud("cloud-a");
        assert!(find("SELECT a FROM t LIMIT 5", &a, "limit-clause"));
        assert!(lint_serialized("SELECT TOP 5 a FROM t", &a).is_empty());
        assert!(find(") AS d (x, y)", &a, "derived-table-column-aliases"));
    }

    #[test]
    fn reduced_profile_flags_grouping_sets_and_returning() {
        // cloud_d supports GROUPING SETS; remove it and the rule must fire
        // with correct attribution.
        let mut reduced = cloud("cloud-d");
        assert!(lint_serialized(
            "SELECT a FROM t GROUP BY GROUPING SETS ((a), ())",
            &reduced
        )
        .is_empty());
        reduced.supported.remove(Feature::GroupingExtensions);
        let f = lint_serialized("SELECT a FROM t GROUP BY GROUPING SETS ((a), ())", &reduced);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "grouping-sets");
        assert_eq!(f[0].severity, Severity::Error);

        let mut no_ret = cloud("cloud-b");
        assert!(lint_serialized("INSERT INTO t VALUES (1) RETURNING a", &no_ret).is_empty());
        no_ret.returning_clause = false;
        let f = lint_serialized("INSERT INTO t VALUES (1) RETURNING a", &no_ret);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "returning-clause");
    }

    #[test]
    fn spans_are_real_source_ranges() {
        let sql = "SELECT a FROM t QUALIFY rn = 1";
        for f in lint_serialized(sql, &simwh()) {
            assert!(f.span.0 < f.span.1);
            assert!(f.span.1 <= sql.len());
            assert_eq!(&sql[f.span.0..f.span.1], "QUALIFY");
        }
    }

    #[test]
    fn source_lints_are_advisory() {
        let mut fs = FeatureSet::new();
        fs.insert(Feature::Qualify);
        let findings = lint_source(
            "INSERT INTO t SELECT * FROM u WHERE d = CURRENT_DATE",
            &fs,
            false,
        );
        assert!(findings.iter().all(|f| f.severity < Severity::Error));
        assert!(findings.iter().any(|f| f.rule == "select-star-dml"));
        assert!(findings.iter().any(|f| f.rule == "implicit-transaction"));
        assert!(findings.iter().any(|f| f.rule == "non-portable"));
        // volatile-literal only fires on reads.
        let reads = lint_source("SELECT CURRENT_DATE", &FeatureSet::new(), false);
        assert!(reads.iter().any(|f| f.rule == "volatile-literal"));
    }
}
