//! The standard transformation rules (Table 2).

use hyperq_xtra::datum::{teradata_int_from_date, Datum};
use hyperq_xtra::expr::{
    ArithOp, CmpOp, Quantifier, ScalarExpr, SortExpr, WindowExpr, WindowFuncKind,
};
use hyperq_xtra::feature::Feature;
use hyperq_xtra::rel::{Grouping, RelExpr, SetOpKind};
use hyperq_xtra::types::SqlType;

use super::{Phase, TransformRule};
use crate::capability::TargetCapabilities;

/// The full standard rule registry.
pub fn standard_rules() -> Vec<Box<dyn TransformRule>> {
    vec![
        Box::new(DateIntComparison),
        Box::new(VectorSubqueryToExists),
        Box::new(ExpandGroupingSets),
        Box::new(DateArithToFunction),
        Box::new(LowerWithTies),
        Box::new(ExplicitNullOrdering),
    ]
}

// ---------------------------------------------------------------------------
// comp_date_to_int (X5) — binding phase
// ---------------------------------------------------------------------------

/// Expands the DATE side of a DATE–INTEGER comparison into the arithmetic
/// expression `DAY + MONTH*100 + (YEAR-1900)*10000` — the paper's
/// `comp_date_to_int` transformation module (§5.2, Figure 5).
pub struct DateIntComparison;

/// Build the integer-encoding expansion of a date expression.
fn date_to_int_expr(e: ScalarExpr) -> ScalarExpr {
    // Constant dates fold directly to the Teradata integer encoding.
    if let ScalarExpr::Literal(Datum::Date(d), _) = &e {
        return ScalarExpr::Literal(Datum::Int(teradata_int_from_date(*d)), SqlType::Integer);
    }
    let day = ScalarExpr::Extract {
        field: hyperq_xtra::expr::DateField::Day,
        expr: Box::new(e.clone()),
    };
    let month = ScalarExpr::Extract {
        field: hyperq_xtra::expr::DateField::Month,
        expr: Box::new(e.clone()),
    };
    let year = ScalarExpr::Extract {
        field: hyperq_xtra::expr::DateField::Year,
        expr: Box::new(e),
    };
    // DAY + (MONTH * 100) + (YEAR - 1900) * 10000
    ScalarExpr::arith(
        ArithOp::Add,
        ScalarExpr::arith(
            ArithOp::Add,
            day,
            ScalarExpr::arith(ArithOp::Mul, month, ScalarExpr::int(100)),
        ),
        ScalarExpr::arith(
            ArithOp::Mul,
            ScalarExpr::arith(ArithOp::Sub, year, ScalarExpr::int(1900)),
            ScalarExpr::int(10_000),
        ),
    )
}

impl TransformRule for DateIntComparison {
    fn name(&self) -> &'static str {
        "comp_date_to_int"
    }

    fn tracked_feature(&self) -> Option<Feature> {
        Some(Feature::DateIntComparison)
    }

    fn phase(&self) -> Phase {
        // "Binding is an appropriate stage for such transformations since it
        // does not require knowledge of the target database system" (§5.2).
        Phase::Binding
    }

    fn rewrite_expr(&self, expr: ScalarExpr) -> (ScalarExpr, bool) {
        if let ScalarExpr::Cmp { op, left, right } = &expr {
            let (lt, rt) = (left.ty(), right.ty());
            if lt == SqlType::Date && rt == SqlType::Integer {
                return (
                    ScalarExpr::cmp(*op, date_to_int_expr((**left).clone()), (**right).clone()),
                    true,
                );
            }
            if lt == SqlType::Integer && rt == SqlType::Date {
                return (
                    ScalarExpr::cmp(*op, (**left).clone(), date_to_int_expr((**right).clone())),
                    true,
                );
            }
        }
        (expr, false)
    }
}

// ---------------------------------------------------------------------------
// Vector subquery → correlated EXISTS (X7) — serialization phase
// ---------------------------------------------------------------------------

/// Replaces a quantified *vector* comparison with a semantically equivalent
/// existential correlated subquery (§5.3, Figures 6–7).
pub struct VectorSubqueryToExists;

/// Lexicographic row comparison `left (op) right`, the semantics spelled
/// out in the paper: `(a1, a2) > (b1, b2) ⇔ a1 > b1 ∨ (a1 = b1 ∧ a2 > b2)`.
fn row_cmp(op: CmpOp, left: &[ScalarExpr], right: &[ScalarExpr]) -> ScalarExpr {
    let eq_prefix = |k: usize| -> Vec<ScalarExpr> {
        (0..k)
            .map(|j| ScalarExpr::cmp(CmpOp::Eq, left[j].clone(), right[j].clone()))
            .collect()
    };
    match op {
        CmpOp::Eq => ScalarExpr::and(eq_prefix(left.len())),
        CmpOp::Ne => ScalarExpr::or(
            (0..left.len())
                .map(|i| ScalarExpr::cmp(CmpOp::Ne, left[i].clone(), right[i].clone()))
                .collect(),
        ),
        CmpOp::Gt | CmpOp::Lt | CmpOp::Ge | CmpOp::Le => {
            let strict = match op {
                CmpOp::Gt | CmpOp::Ge => CmpOp::Gt,
                _ => CmpOp::Lt,
            };
            let mut alternatives = Vec::with_capacity(left.len() + 1);
            for i in 0..left.len() {
                let mut conj = eq_prefix(i);
                conj.push(ScalarExpr::cmp(strict, left[i].clone(), right[i].clone()));
                alternatives.push(ScalarExpr::and(conj));
            }
            if matches!(op, CmpOp::Ge | CmpOp::Le) {
                alternatives.push(ScalarExpr::and(eq_prefix(left.len())));
            }
            ScalarExpr::or(alternatives)
        }
    }
}

impl TransformRule for VectorSubqueryToExists {
    fn name(&self) -> &'static str {
        "vector_subquery_to_exists"
    }

    fn tracked_feature(&self) -> Option<Feature> {
        Some(Feature::VectorSubquery)
    }

    fn phase(&self) -> Phase {
        // "It is designed to match the capabilities of a particular target
        // database system and hence it needs to be triggered right before
        // serialization" (§5.3).
        Phase::Serialization
    }

    fn enabled_for(&self, caps: &TargetCapabilities) -> bool {
        !caps.supports(Feature::VectorSubquery)
    }

    fn rewrite_expr(&self, expr: ScalarExpr) -> (ScalarExpr, bool) {
        let (left, op, quantifier, subquery) = match expr {
            ScalarExpr::QuantifiedCmp { left, op, quantifier, subquery } if left.len() > 1 => {
                (left, op, quantifier, subquery)
            }
            other => return (other, false),
        };
        let fields = subquery.schema().fields;
        let right: Vec<ScalarExpr> = fields
            .iter()
            .map(|f| ScalarExpr::Column {
                qualifier: f.qualifier.clone(),
                name: f.name.clone(),
                ty: f.ty.clone(),
            })
            .collect();
        let (predicate, negated) = match quantifier {
            Quantifier::Any => (row_cmp(op, &left, &right), false),
            // x op ALL S  ⇔  NOT EXISTS (s ∈ S : NOT (x op s)).
            Quantifier::All => (
                ScalarExpr::Not(Box::new(row_cmp(op, &left, &right))),
                true,
            ),
        };
        // SELECT 1 FROM (sub) WHERE pred — the paper's "remap consts: (1)".
        let filtered = RelExpr::Select { input: subquery, predicate };
        let one = RelExpr::Project {
            input: Box::new(filtered),
            exprs: vec![(ScalarExpr::int(1), "ONE".to_string())],
        };
        (
            ScalarExpr::Exists { subquery: Box::new(one), negated },
            true,
        )
    }
}

// ---------------------------------------------------------------------------
// OLAP grouping extensions (X8) — serialization phase
// ---------------------------------------------------------------------------

/// Expands `ROLLUP`/`CUBE`/`GROUPING SETS` into a `UNION ALL` over simple
/// `GROUP BY`s (Table 2).
pub struct ExpandGroupingSets;

impl TransformRule for ExpandGroupingSets {
    fn name(&self) -> &'static str {
        "expand_grouping_sets"
    }

    fn tracked_feature(&self) -> Option<Feature> {
        Some(Feature::GroupingExtensions)
    }

    fn phase(&self) -> Phase {
        Phase::Serialization
    }

    fn enabled_for(&self, caps: &TargetCapabilities) -> bool {
        !caps.supports(Feature::GroupingExtensions)
    }

    fn rewrite_rel(&self, rel: RelExpr) -> (RelExpr, bool) {
        let (input, group_by, sets, aggs) = match rel {
            RelExpr::Aggregate { input, group_by, grouping: Grouping::Sets(sets), aggs } => {
                (input, group_by, sets, aggs)
            }
            other => return (other, false),
        };
        let mut branches: Vec<RelExpr> = Vec::with_capacity(sets.len());
        for set in &sets {
            let branch_groups: Vec<(ScalarExpr, String)> = set
                .iter()
                .map(|&i| group_by[i].clone())
                .collect();
            let agg = RelExpr::Aggregate {
                input: input.clone(),
                group_by: branch_groups,
                grouping: Grouping::Simple,
                aggs: aggs.clone(),
            };
            // Align every branch to the full output shape: excluded keys
            // become NULL literals.
            let exprs: Vec<(ScalarExpr, String)> = group_by
                .iter()
                .enumerate()
                .map(|(i, (g, name))| {
                    if set.contains(&i) {
                        (
                            ScalarExpr::Column {
                                qualifier: None,
                                name: name.clone(),
                                ty: g.ty(),
                            },
                            name.clone(),
                        )
                    } else {
                        (ScalarExpr::Literal(Datum::Null, g.ty()), name.clone())
                    }
                })
                .chain(aggs.iter().map(|(a, name)| {
                    (
                        ScalarExpr::Column { qualifier: None, name: name.clone(), ty: a.ty() },
                        name.clone(),
                    )
                }))
                .collect();
            branches.push(RelExpr::Project { input: Box::new(agg), exprs });
        }
        let union = branches
            .into_iter()
            .reduce(|l, r| RelExpr::SetOp {
                kind: SetOpKind::Union,
                all: true,
                left: Box::new(l),
                right: Box::new(r),
            })
            .expect("grouping sets are never empty");
        (union, true)
    }
}

// ---------------------------------------------------------------------------
// Date arithmetic (X6) — serialization phase
// ---------------------------------------------------------------------------

/// Rewrites Teradata `date ± n` arithmetic into an explicit date-add
/// function for targets without native date/integer arithmetic (Table 2,
/// "Date arithmetics": "replace by DATEADD function").
pub struct DateArithToFunction;

impl TransformRule for DateArithToFunction {
    fn name(&self) -> &'static str {
        "date_arith_to_function"
    }

    fn tracked_feature(&self) -> Option<Feature> {
        Some(Feature::DateArithmetic)
    }

    fn phase(&self) -> Phase {
        Phase::Serialization
    }

    fn enabled_for(&self, caps: &TargetCapabilities) -> bool {
        !caps.supports(Feature::DateArithmetic)
    }

    fn rewrite_expr(&self, expr: ScalarExpr) -> (ScalarExpr, bool) {
        use hyperq_xtra::expr::ScalarFunc;
        if let ScalarExpr::Arith { op, left, right } = &expr {
            let (lt, rt) = (left.ty(), right.ty());
            match (op, &lt, &rt) {
                (ArithOp::Add, SqlType::Date, SqlType::Integer) => {
                    return (
                        ScalarExpr::Func {
                            func: ScalarFunc::DateAddDays,
                            args: vec![(**left).clone(), (**right).clone()],
                        },
                        true,
                    )
                }
                (ArithOp::Add, SqlType::Integer, SqlType::Date) => {
                    return (
                        ScalarExpr::Func {
                            func: ScalarFunc::DateAddDays,
                            args: vec![(**right).clone(), (**left).clone()],
                        },
                        true,
                    )
                }
                (ArithOp::Sub, SqlType::Date, SqlType::Integer) => {
                    return (
                        ScalarExpr::Func {
                            func: ScalarFunc::DateAddDays,
                            args: vec![
                                (**left).clone(),
                                ScalarExpr::Neg(Box::new((**right).clone())),
                            ],
                        },
                        true,
                    )
                }
                _ => {}
            }
        }
        (expr, false)
    }
}

// ---------------------------------------------------------------------------
// TOP n WITH TIES lowering — serialization phase
// ---------------------------------------------------------------------------

/// Lowers tie-preserving limits (`TOP n WITH TIES`, and `QUALIFY
/// RANK() <= n` lowered to a limit) into a RANK window + filter for targets
/// without `WITH TIES`.
pub struct LowerWithTies;

impl TransformRule for LowerWithTies {
    fn name(&self) -> &'static str {
        "lower_with_ties"
    }

    fn phase(&self) -> Phase {
        Phase::Serialization
    }

    fn enabled_for(&self, caps: &TargetCapabilities) -> bool {
        !caps.with_ties
    }

    fn rewrite_rel(&self, rel: RelExpr) -> (RelExpr, bool) {
        let (input, limit, offset) = match rel {
            RelExpr::Limit { input, limit: Some(n), offset, with_ties: true } => {
                (input, n, offset)
            }
            other => return (other, false),
        };
        match *input {
            RelExpr::Sort { input: inner, keys } => {
                let visible = inner.schema();
                let w = WindowExpr {
                    func: WindowFuncKind::Rank,
                    arg: None,
                    partition_by: Vec::new(),
                    order_by: keys.clone(),
                    output: "__TIES_RANK".to_string(),
                };
                let win = RelExpr::Window { input: inner, exprs: vec![w] };
                let sel = RelExpr::Select {
                    input: Box::new(win),
                    predicate: ScalarExpr::cmp(
                        CmpOp::Le,
                        ScalarExpr::Column {
                            qualifier: None,
                            name: "__TIES_RANK".to_string(),
                            ty: SqlType::Integer,
                        },
                        ScalarExpr::int(limit as i64),
                    ),
                };
                let sort = RelExpr::Sort { input: Box::new(sel), keys };
                let proj = RelExpr::Project {
                    input: Box::new(sort),
                    exprs: visible
                        .fields
                        .iter()
                        .map(|f| {
                            (
                                ScalarExpr::Column {
                                    qualifier: f.qualifier.clone(),
                                    name: f.name.clone(),
                                    ty: f.ty.clone(),
                                },
                                f.name.clone(),
                            )
                        })
                        .collect(),
                };
                (proj, true)
            }
            // Without an ordering, WITH TIES degenerates to a plain limit.
            other => (
                RelExpr::Limit {
                    input: Box::new(other),
                    limit: Some(limit),
                    offset,
                    with_ties: false,
                },
                true,
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Explicit NULL ordering — serialization phase
// ---------------------------------------------------------------------------

/// Makes the source system's default NULL placement explicit on every sort
/// key. The paper (§2.1) singles out default NULL ordering as a construct
/// that "may be syntactically supported as-is on the target system, but
/// ha[s] a different behavior … correctness has been compromised and leads
/// to subtle defects". Teradata sorts NULLs low: first ascending, last
/// descending.
pub struct ExplicitNullOrdering;

fn fill_keys(keys: &mut [SortExpr]) -> bool {
    let mut changed = false;
    for k in keys {
        if k.nulls_first.is_none() {
            k.nulls_first = Some(!k.desc);
            changed = true;
        }
    }
    changed
}

impl TransformRule for ExplicitNullOrdering {
    fn name(&self) -> &'static str {
        "explicit_null_ordering"
    }

    fn phase(&self) -> Phase {
        Phase::Serialization
    }

    fn rewrite_rel(&self, rel: RelExpr) -> (RelExpr, bool) {
        match rel {
            RelExpr::Sort { input, mut keys } => {
                let changed = fill_keys(&mut keys);
                (RelExpr::Sort { input, keys }, changed)
            }
            RelExpr::Window { input, mut exprs } => {
                let mut changed = false;
                for w in &mut exprs {
                    changed |= fill_keys(&mut w.order_by);
                }
                (RelExpr::Window { input, exprs }, changed)
            }
            other => (other, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperq_xtra::datum::date_from_ymd;

    #[test]
    fn date_literal_folds_to_teradata_int() {
        let d = ScalarExpr::Literal(
            Datum::Date(date_from_ymd(2014, 1, 1)),
            SqlType::Date,
        );
        match date_to_int_expr(d) {
            ScalarExpr::Literal(Datum::Int(v), _) => assert_eq!(v, 1_140_101),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn date_column_expands_to_extract_arith() {
        let col = ScalarExpr::column(Some("S"), "SALES_DATE", SqlType::Date);
        let e = date_to_int_expr(col);
        assert_eq!(e.ty(), SqlType::Integer);
        let rendered = format!("{e}");
        assert!(rendered.contains("EXTRACT(DAY"), "{rendered}");
        assert!(rendered.contains("1900"), "{rendered}");
        assert!(rendered.contains("10000"), "{rendered}");
    }

    #[test]
    fn row_cmp_gt_matches_paper_semantics() {
        // (AMOUNT, AMOUNT*0.85) > (GROSS, NET) ⇔
        //   AMOUNT > GROSS ∨ (AMOUNT = GROSS ∧ AMOUNT*0.85 > NET)
        let l = vec![
            ScalarExpr::column(Some("S1"), "AMOUNT", SqlType::Integer),
            ScalarExpr::column(Some("S1"), "DISCOUNTED", SqlType::Integer),
        ];
        let r = vec![
            ScalarExpr::column(Some("S2"), "GROSS", SqlType::Integer),
            ScalarExpr::column(Some("S2"), "NET", SqlType::Integer),
        ];
        let p = row_cmp(CmpOp::Gt, &l, &r);
        let s = format!("{p}");
        assert!(s.contains("(S1.AMOUNT > S2.GROSS)"), "{s}");
        assert!(s.contains("(S1.AMOUNT = S2.GROSS)"), "{s}");
        assert!(s.contains("(S1.DISCOUNTED > S2.NET)"), "{s}");
        assert!(s.contains(" OR "), "{s}");
    }

    #[test]
    fn row_cmp_eq_and_ne() {
        let l = vec![ScalarExpr::int(1), ScalarExpr::int(2)];
        let r = vec![ScalarExpr::int(3), ScalarExpr::int(4)];
        assert!(format!("{}", row_cmp(CmpOp::Eq, &l, &r)).contains("AND"));
        assert!(format!("{}", row_cmp(CmpOp::Ne, &l, &r)).contains("OR"));
    }

    #[test]
    fn null_ordering_uses_teradata_defaults() {
        let rule = ExplicitNullOrdering;
        let sort = RelExpr::Sort {
            input: Box::new(RelExpr::Values {
                rows: vec![],
                schema: hyperq_xtra::Schema::empty(),
            }),
            keys: vec![
                SortExpr::asc(ScalarExpr::int(1)),
                SortExpr::desc(ScalarExpr::int(2)),
            ],
        };
        let (out, changed) = rule.rewrite_rel(sort);
        assert!(changed);
        match out {
            RelExpr::Sort { keys, .. } => {
                assert_eq!(keys[0].nulls_first, Some(true), "ASC: NULLs first");
                assert_eq!(keys[1].nulls_first, Some(false), "DESC: NULLs last");
            }
            other => panic!("{other:?}"),
        }
        // Idempotent: second application changes nothing (fixed point).
        let sort2 = RelExpr::Sort {
            input: Box::new(RelExpr::Values {
                rows: vec![],
                schema: hyperq_xtra::Schema::empty(),
            }),
            keys: vec![SortExpr {
                expr: ScalarExpr::int(1),
                desc: false,
                nulls_first: Some(true),
            }],
        };
        let (_, changed2) = rule.rewrite_rel(sort2);
        assert!(!changed2);
    }
}
