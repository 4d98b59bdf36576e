//! Transformer unit tests: phases, fixed-point cascading, capability
//! gating, and rule-by-rule behavior on hand-built plans.

use hyperq_core::capability::TargetCapabilities;
use hyperq_core::transform::{Phase, TransformRule, Transformer};
use hyperq_core::HyperQError;
use hyperq_xtra::datum::{date_from_ymd, Datum};
use hyperq_xtra::expr::{CmpOp, ScalarExpr, SortExpr};
use hyperq_xtra::feature::{Feature, FeatureSet};
use hyperq_xtra::rel::{Grouping, Plan, RelExpr};
use hyperq_xtra::schema::{Field, Schema};
use hyperq_xtra::types::SqlType;

fn sales_get() -> RelExpr {
    RelExpr::Get {
        table: "SALES".into(),
        alias: Some("SALES".into()),
        schema: Schema::new(vec![
            Field::new(Some("SALES"), "AMOUNT", SqlType::Integer, true),
            Field::new(Some("SALES"), "SALES_DATE", SqlType::Date, true),
        ]),
    }
}

fn date_col() -> ScalarExpr {
    ScalarExpr::column(Some("SALES"), "SALES_DATE", SqlType::Date)
}

#[test]
fn date_int_comparison_fires_in_binding_phase_only() {
    let plan = Plan::Query(RelExpr::Select {
        input: Box::new(sales_get()),
        predicate: ScalarExpr::cmp(CmpOp::Gt, date_col(), ScalarExpr::int(1_140_101)),
    });
    let t = Transformer::standard();
    let caps = TargetCapabilities::simwh();
    let mut fired = FeatureSet::new();
    // Serialization phase alone must not touch it…
    let unchanged = t.run(plan.clone(), Phase::Serialization, &caps, &mut fired).unwrap();
    assert_eq!(unchanged, plan);
    assert!(!fired.contains(Feature::DateIntComparison));
    // …the binding phase rewrites it.
    let rewritten = t.run(plan, Phase::Binding, &caps, &mut fired).unwrap();
    assert!(fired.contains(Feature::DateIntComparison));
    let dbg = format!("{rewritten:?}");
    assert!(dbg.contains("Extract"), "{dbg}");
}

#[test]
fn constant_date_folds_to_teradata_int() {
    // DATE literal compared to INT folds to an int-int comparison rather
    // than an EXTRACT expansion.
    let plan = Plan::Query(RelExpr::Select {
        input: Box::new(sales_get()),
        predicate: ScalarExpr::cmp(
            CmpOp::Eq,
            ScalarExpr::Literal(Datum::Date(date_from_ymd(2014, 1, 1)), SqlType::Date),
            ScalarExpr::int(1_140_101),
        ),
    });
    let mut fired = FeatureSet::new();
    let out = Transformer::standard()
        .run(plan, Phase::Binding, &TargetCapabilities::simwh(), &mut fired)
        .unwrap();
    let dbg = format!("{out:?}");
    assert!(!dbg.contains("Extract"), "{dbg}");
    assert!(dbg.contains("Int(1140101)"), "{dbg}");
}

#[test]
fn grouping_sets_gated_by_capability() {
    let agg = RelExpr::Aggregate {
        input: Box::new(sales_get()),
        group_by: vec![(
            ScalarExpr::column(Some("SALES"), "AMOUNT", SqlType::Integer),
            "AMOUNT".into(),
        )],
        grouping: Grouping::rollup(1),
        aggs: vec![],
    };
    let t = Transformer::standard();
    let mut fired = FeatureSet::new();
    // Target WITH grouping sets: untouched.
    let kept = t
        .run(Plan::Query(agg.clone()), Phase::Serialization, &TargetCapabilities::cloud_d(), &mut fired)
        .unwrap();
    assert!(format!("{kept:?}").contains("Sets"), "{kept:?}");
    // Target WITHOUT: expanded to a union.
    let expanded = t
        .run(Plan::Query(agg), Phase::Serialization, &TargetCapabilities::simwh(), &mut fired)
        .unwrap();
    let dbg = format!("{expanded:?}");
    assert!(dbg.contains("SetOp"), "{dbg}");
    assert!(fired.contains(Feature::GroupingExtensions));
}

#[test]
fn rollup_expansion_has_one_branch_per_set() {
    let agg = RelExpr::Aggregate {
        input: Box::new(sales_get()),
        group_by: vec![
            (ScalarExpr::column(Some("SALES"), "AMOUNT", SqlType::Integer), "AMOUNT".into()),
            (ScalarExpr::column(Some("SALES"), "SALES_DATE", SqlType::Date), "SALES_DATE".into()),
        ],
        grouping: Grouping::rollup(2),
        aggs: vec![],
    };
    let mut fired = FeatureSet::new();
    let out = Transformer::standard()
        .run(
            Plan::Query(agg),
            Phase::Serialization,
            &TargetCapabilities::simwh(),
            &mut fired,
        )
        .unwrap();
    // rollup(2) → 3 grouping sets → 3 aggregate branches, 2 unions.
    let mut aggs = 0;
    let mut unions = 0;
    if let Plan::Query(rel) = &out {
        rel.visit(&mut |_| {}, &mut |r| match r {
            RelExpr::Aggregate { .. } => aggs += 1,
            RelExpr::SetOp { .. } => unions += 1,
            _ => {}
        });
    }
    assert_eq!(aggs, 3);
    assert_eq!(unions, 2);
}

#[test]
fn with_ties_lowering_gated_by_capability() {
    let limit = RelExpr::Limit {
        input: Box::new(RelExpr::Sort {
            input: Box::new(sales_get()),
            keys: vec![SortExpr::desc(ScalarExpr::column(
                Some("SALES"),
                "AMOUNT",
                SqlType::Integer,
            ))],
        }),
        limit: Some(3),
        offset: 0,
        with_ties: true,
    };
    let t = Transformer::standard();
    let mut fired = FeatureSet::new();
    // CloudWH-A supports WITH TIES: the Limit survives.
    let kept = t
        .run(Plan::Query(limit.clone()), Phase::Serialization, &TargetCapabilities::cloud_a(), &mut fired)
        .unwrap();
    assert!(format!("{kept:?}").contains("with_ties: true"), "{kept:?}");
    // SimWH does not: lowered to a RANK window + filter.
    let lowered = t
        .run(Plan::Query(limit), Phase::Serialization, &TargetCapabilities::simwh(), &mut fired)
        .unwrap();
    let dbg = format!("{lowered:?}");
    assert!(dbg.contains("__TIES_RANK"), "{dbg}");
    assert!(!dbg.contains("with_ties: true"), "{dbg}");
}

#[test]
fn null_ordering_rule_is_idempotent_across_runs() {
    let sort = RelExpr::Sort {
        input: Box::new(sales_get()),
        keys: vec![SortExpr::asc(ScalarExpr::column(
            Some("SALES"),
            "AMOUNT",
            SqlType::Integer,
        ))],
    };
    let t = Transformer::standard();
    let caps = TargetCapabilities::simwh();
    let mut fired = FeatureSet::new();
    let once = t.run(Plan::Query(sort), Phase::Serialization, &caps, &mut fired).unwrap();
    let twice = t.run(once.clone(), Phase::Serialization, &caps, &mut fired).unwrap();
    assert_eq!(once, twice, "fixed point must be stable");
}

#[test]
fn cascade_reaches_fixed_point() {
    // A date-int comparison nested inside a vector subquery requires the
    // binding rule to fire inside the tree the serialization rule then
    // rewrites — the cascading case the paper's §4.3 describes.
    let history = RelExpr::Get {
        table: "H".into(),
        alias: Some("H".into()),
        schema: Schema::new(vec![
            Field::new(Some("H"), "G", SqlType::Integer, true),
            Field::new(Some("H"), "N", SqlType::Integer, true),
            Field::new(Some("H"), "D", SqlType::Date, true),
        ]),
    };
    let inner = RelExpr::Select {
        input: Box::new(history),
        predicate: ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::column(Some("H"), "D", SqlType::Date),
            ScalarExpr::int(1_150_101),
        ),
    };
    let inner = RelExpr::Project {
        input: Box::new(inner),
        exprs: vec![
            (ScalarExpr::column(Some("H"), "G", SqlType::Integer), "G".into()),
            (ScalarExpr::column(Some("H"), "N", SqlType::Integer), "N".into()),
        ],
    };
    let outer_pred = ScalarExpr::QuantifiedCmp {
        left: vec![
            ScalarExpr::column(Some("SALES"), "AMOUNT", SqlType::Integer),
            ScalarExpr::column(Some("SALES"), "AMOUNT", SqlType::Integer),
        ],
        op: CmpOp::Gt,
        quantifier: hyperq_xtra::expr::Quantifier::Any,
        subquery: Box::new(inner),
    };
    let plan = Plan::Query(RelExpr::Select {
        input: Box::new(sales_get()),
        predicate: outer_pred,
    });
    let mut fired = FeatureSet::new();
    let out = Transformer::standard()
        .run_all(plan, &TargetCapabilities::simwh(), &mut fired)
        .unwrap();
    assert!(fired.contains(Feature::DateIntComparison));
    assert!(fired.contains(Feature::VectorSubquery));
    let dbg = format!("{out:?}");
    assert!(dbg.contains("Exists"), "{dbg}");
    assert!(dbg.contains("Extract"), "{dbg}");
    assert!(!dbg.contains("QuantifiedCmp"), "{dbg}");
}

#[test]
fn scalar_quantified_comparison_left_alone() {
    // A 1-wide quantified comparison is ANSI; the vector rule must not
    // touch it.
    let inner = RelExpr::Get {
        table: "H".into(),
        alias: Some("H".into()),
        schema: Schema::new(vec![Field::new(Some("H"), "G", SqlType::Integer, true)]),
    };
    let pred = ScalarExpr::QuantifiedCmp {
        left: vec![ScalarExpr::column(Some("SALES"), "AMOUNT", SqlType::Integer)],
        op: CmpOp::Gt,
        quantifier: hyperq_xtra::expr::Quantifier::Any,
        subquery: Box::new(inner),
    };
    let plan = Plan::Query(RelExpr::Select {
        input: Box::new(sales_get()),
        predicate: pred,
    });
    let mut fired = FeatureSet::new();
    let out = Transformer::standard()
        .run_all(plan.clone(), &TargetCapabilities::simwh(), &mut fired)
        .unwrap();
    let dbg = format!("{out:?}");
    assert!(dbg.contains("QuantifiedCmp"), "{dbg}");
    assert!(!fired.contains(Feature::VectorSubquery));
}

/// Rewrites the integer literal `from` to `to`. Two of these pointing at
/// each other never reach a fixed point.
struct Swap {
    name: &'static str,
    from: i64,
    to: i64,
}

impl TransformRule for Swap {
    fn name(&self) -> &'static str {
        self.name
    }
    fn phase(&self) -> Phase {
        Phase::Binding
    }
    fn rewrite_expr(&self, expr: ScalarExpr) -> (ScalarExpr, bool) {
        match expr {
            ScalarExpr::Literal(Datum::Int(v), _) if v == self.from => {
                (ScalarExpr::int(self.to), true)
            }
            other => (other, false),
        }
    }
}

#[test]
fn cyclic_rules_fail_after_the_pass_budget() {
    let t = Transformer::with_rules(vec![
        Box::new(Swap { name: "test_one_to_two", from: 1, to: 2 }),
        Box::new(Swap { name: "test_two_to_one", from: 2, to: 1 }),
    ]);
    let plan = Plan::Query(RelExpr::Select {
        input: Box::new(sales_get()),
        predicate: ScalarExpr::cmp(
            CmpOp::Eq,
            ScalarExpr::column(Some("SALES"), "AMOUNT", SqlType::Integer),
            ScalarExpr::int(1),
        ),
    });
    let caps = TargetCapabilities::simwh();
    let expect = "did not reach a fixed point within 32 passes";

    let err = t.run_all(plan.clone(), &caps, &mut FeatureSet::new()).unwrap_err();
    assert!(matches!(&err, HyperQError::Transform(m) if m.contains(expect)), "{err:?}");

    let mut audits = 0;
    let err = t
        .run_all_audited(plan, &caps, &mut FeatureSet::new(), &mut |_, _| {
            audits += 1;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(&err, HyperQError::Transform(m) if m.contains(expect)), "{err:?}");
    assert!(err.to_string().contains("test_one_to_two, test_two_to_one"), "{err}");
    assert_eq!(audits, 64, "both rules fire on every one of the 32 passes");
}
