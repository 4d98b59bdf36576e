//! Static-analysis layer tests: strict-mode gating, rule-audit
//! attribution, the serializer-boundary semi/anti join gate, and
//! property-based "generated queries never violate" coverage.

use std::sync::Arc;

use proptest::prelude::*;

use hyperq_core::binder::Binder;
use hyperq_core::serialize::Serializer;
use hyperq_core::targets;
use hyperq_core::transform::{Phase, TransformRule, Transformer};
use hyperq_core::{AnalyzeMode, Analyzer, HyperQError, ObsContext};
use hyperq_parser::{parse_one, Dialect};
use hyperq_xtra::catalog::{ColumnDef, MemoryCatalog, TableDef};
use hyperq_xtra::expr::ScalarExpr;
use hyperq_xtra::feature::FeatureSet;
use hyperq_xtra::rel::{JoinKind, Plan, RelExpr};
use hyperq_xtra::schema::{Field, Schema};
use hyperq_xtra::types::SqlType;

fn catalog() -> MemoryCatalog {
    MemoryCatalog::new()
        .with_table(TableDef::new(
            "T",
            vec![
                ColumnDef::new("A", SqlType::Integer, true),
                ColumnDef::new("B", SqlType::Integer, true),
                ColumnDef::new("D", SqlType::Date, true),
                ColumnDef::new("S", SqlType::Varchar(Some(20)), true),
            ],
        ))
        .with_table(TableDef::new(
            "U",
            vec![
                ColumnDef::new("A", SqlType::Integer, true),
                ColumnDef::new("X", SqlType::Integer, true),
            ],
        ))
}

fn bind(sql: &str) -> Plan {
    let cat: &'static MemoryCatalog = Box::leak(Box::new(catalog()));
    let parsed = parse_one(sql, Dialect::Teradata).unwrap();
    let mut binder = Binder::new(cat);
    binder.bind_statement(&parsed.stmt).unwrap()
}

fn analyzer(mode: AnalyzeMode) -> (Analyzer, Arc<ObsContext>) {
    let obs = ObsContext::new();
    (Analyzer::new(mode, &obs), obs)
}

/// Run a statement through the analyzed pipeline exactly as the cross
/// compiler does: bind-boundary check, audited transform, serializer-
/// boundary check, then the round-trip audit against the same catalog.
fn strict_pipeline(sql: &str) -> Result<(), HyperQError> {
    let (az, _obs) = analyzer(AnalyzeMode::Strict);
    let target = targets::simwh();
    let transformer = Transformer::standard();
    let plan = bind(sql);
    az.check_plan(&plan, "bind")?;
    let mut fired = FeatureSet::new();
    let plan = az.transform(&transformer, plan, &target.caps, &mut fired)?;
    az.check_plan(&plan, "serializer")?;
    let out = Serializer::for_profile(&target).serialize_plan(&plan)?;
    az.audit_roundtrip(&out, &plan, &catalog())
}

// ---------------------------------------------------------------------------
// Strict mode on well-formed statements

#[test]
fn representative_statements_pass_strict_analysis() {
    for sql in [
        "SEL A, B FROM T WHERE B > 0",
        "SEL T.A, U.X FROM T, U WHERE T.A = U.A",
        "SEL A, COUNT(*) FROM T GROUP BY A ORDER BY 2 DESC",
        "SEL A FROM T WHERE A IN (SEL A FROM U)",
        "SEL A, B FROM T QUALIFY ROW_NUMBER() OVER (PARTITION BY A ORDER BY B) = 1",
        "SEL TOP 5 WITH TIES A FROM T ORDER BY A",
        "SEL A FROM T WHERE D > DATE '2001-01-01' + 30",
        "SEL A, SUM(B) FROM T GROUP BY GROUPING SETS ((A), ())",
        "SEL A FROM T UNION ALL SEL X FROM U",
    ] {
        strict_pipeline(sql).unwrap_or_else(|e| panic!("{sql}\n  -> {e}"));
    }
}

// ---------------------------------------------------------------------------
// Deliberately broken rules: caught and attributed by name

/// Drops the last projection column — preserves well-formedness but
/// changes the plan's output schema, which the audit must flag.
struct DropLastColumn;

impl TransformRule for DropLastColumn {
    fn name(&self) -> &'static str {
        "test_drop_last_column"
    }
    fn phase(&self) -> Phase {
        Phase::Binding
    }
    fn rewrite_rel(&self, rel: RelExpr) -> (RelExpr, bool) {
        match rel {
            RelExpr::Project { input, mut exprs } if exprs.len() > 1 => {
                exprs.pop();
                (RelExpr::Project { input, exprs }, true)
            }
            other => (other, false),
        }
    }
}

/// Renames every reference to column `A` to a name that resolves nowhere —
/// the validator must report the dangling reference after the rule fires.
struct GhostColumn;

impl TransformRule for GhostColumn {
    fn name(&self) -> &'static str {
        "test_ghost_column"
    }
    fn phase(&self) -> Phase {
        Phase::Binding
    }
    fn rewrite_expr(&self, expr: ScalarExpr) -> (ScalarExpr, bool) {
        match expr {
            ScalarExpr::Column { qualifier, name, ty } if name == "A" => (
                ScalarExpr::Column { qualifier, name: "GHOST".into(), ty },
                true,
            ),
            other => (other, false),
        }
    }
}

fn audited(rule: Box<dyn TransformRule>, mode: AnalyzeMode) -> (Result<Plan, HyperQError>, Arc<ObsContext>) {
    let (az, obs) = analyzer(mode);
    let transformer = Transformer::with_rules(vec![rule]);
    let plan = bind("SEL A, B FROM T WHERE A > 0");
    let mut fired = FeatureSet::new();
    let out = az.transform(&transformer, plan, &targets::simwh().caps, &mut fired);
    (out, obs)
}

#[test]
fn schema_changing_rule_is_caught_and_attributed() {
    let (out, _) = audited(Box::new(DropLastColumn), AnalyzeMode::Strict);
    let err = out.unwrap_err().to_string();
    assert!(err.contains("test_drop_last_column"), "{err}");
    assert!(err.contains("output schema changed"), "{err}");
}

#[test]
fn invariant_breaking_rule_is_caught_and_attributed() {
    let (out, _) = audited(Box::new(GhostColumn), AnalyzeMode::Strict);
    let err = out.unwrap_err().to_string();
    assert!(err.contains("test_ghost_column"), "{err}");
    assert!(err.contains("unresolved_column"), "{err}");
}

#[test]
fn log_only_counts_rule_audit_failures_without_failing() {
    let (out, obs) = audited(Box::new(DropLastColumn), AnalyzeMode::LogOnly);
    out.unwrap();
    assert!(
        obs.metrics.counter_value(
            "hyperq_rule_audit_failures_total",
            &[("rule", "test_drop_last_column")],
        ) >= 1
    );
    assert!(
        obs.metrics.counter_value(
            "hyperq_validation_violations_total",
            &[("invariant", "rule_schema_drift")],
        ) >= 1
    );
}

#[test]
fn off_mode_skips_the_walks_entirely() {
    let (out, obs) = audited(Box::new(DropLastColumn), AnalyzeMode::Off);
    out.unwrap();
    assert_eq!(
        obs.metrics.counter_value(
            "hyperq_rule_audit_failures_total",
            &[("rule", "test_drop_last_column")],
        ),
        0
    );
}

// ---------------------------------------------------------------------------
// Serializer-boundary gate: engine-internal join kinds must not escape

fn semi_join_plan(kind: JoinKind) -> Plan {
    let get = |table: &str, cols: &[&str]| RelExpr::Get {
        table: table.to_string(),
        alias: None,
        schema: Schema::new(
            cols.iter()
                .map(|c| Field {
                    qualifier: Some(table.to_string()),
                    name: (*c).to_string(),
                    ty: SqlType::Integer,
                    nullable: true,
                })
                .collect(),
        ),
    };
    Plan::Query(RelExpr::Join {
        kind,
        left: Box::new(get("T", &["A", "B"])),
        right: Box::new(get("U", &["A", "X"])),
        condition: None,
    })
}

#[test]
fn semi_and_anti_joins_are_rejected_at_the_serializer_boundary() {
    let (az, obs) = analyzer(AnalyzeMode::Strict);
    for kind in [JoinKind::Semi, JoinKind::Anti] {
        let plan = semi_join_plan(kind);
        let err = az.check_plan(&plan, "serializer").unwrap_err().to_string();
        assert!(err.contains("internal_join"), "{err}");
        // Regression anchor: the serializer itself also refuses the plan,
        // so the validator gate fires strictly earlier on the same input.
        assert!(Serializer::for_profile(&targets::simwh()).serialize_plan(&plan).is_err());
    }
    assert!(
        obs.metrics.counter_value(
            "hyperq_validation_violations_total",
            &[("invariant", "internal_join")],
        ) >= 2
    );
}

// ---------------------------------------------------------------------------
// Property: generated queries through bind -> transform -> validate are
// always clean in strict mode.

const COLS: [&str; 4] = ["A", "B", "D", "S"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_queries_never_violate(
        proj in proptest::collection::vec(0usize..4, 1..4),
        filter in 0u8..4,
        shape in 0u8..4,
        limit in 0u8..3,
        n in -100i64..100,
    ) {
        let mut sql = String::from("SEL ");
        let top = limit > 0 && matches!(shape, 0 | 1);
        if top {
            sql.push_str(&format!("TOP {limit} "));
        }
        match shape {
            // Plain projection over generated column picks.
            0 | 1 => {
                let cols: Vec<&str> = proj.iter().map(|&i| COLS[i]).collect();
                sql.push_str(&cols.join(", "));
            }
            // Grouped aggregate.
            2 => sql.push_str("A, COUNT(*) AS C, SUM(B) AS SB"),
            // Distinct projection.
            _ => sql.push_str("DISTINCT A, B"),
        }
        sql.push_str(" FROM T");
        match filter {
            0 => {}
            1 => sql.push_str(&format!(" WHERE A > {n}")),
            2 => sql.push_str(&format!(" WHERE B = {n} AND A <> 0")),
            _ => sql.push_str(" WHERE A IN (SEL A FROM U)"),
        }
        if shape == 2 {
            sql.push_str(" GROUP BY A ORDER BY 1");
        }
        if top {
            sql.push_str(" ORDER BY A");
        }
        let result = strict_pipeline(&sql);
        prop_assert!(result.is_ok(), "{sql}\n  -> {:?}", result.err());
    }
}
