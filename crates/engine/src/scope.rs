//! Scope analysis: which column references of a relation are *free*, i.e.
//! bound by no scope the relation pushes while it executes and therefore
//! read from the enclosing (outer) rows.
//!
//! The walk mirrors the scope stack [`crate::exec::execute_rel`] builds:
//! Select, Project, Sort, Window and Aggregate evaluate their expressions
//! over their input's schema, Join over left ⋈ right, Values over nothing,
//! and a nested subquery runs on top of the scopes of the expression that
//! contains it. A reference counts as bound exactly when some scope's
//! `Schema::try_resolve` returns `Ok(Some(_))` — the predicate the
//! evaluator resolves with — so an ambiguous name falls through to outer
//! scopes here as it does at run time. The optimizer's decorrelation gates
//! and the subquery memo both use this one walk.

use hyperq_xtra::expr::ScalarExpr;
use hyperq_xtra::rel::RelExpr;
use hyperq_xtra::schema::Schema;

/// A column reference as written in the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ColRef {
    pub qualifier: Option<String>,
    pub name: String,
}

/// The free references of `rel`, each once, in first-seen order.
pub(crate) fn free_refs(rel: &RelExpr) -> Vec<ColRef> {
    let mut walk = Walk::default();
    walk.rel(rel);
    walk.free
}

/// The references of `e` that rows of `schema` do not bind.
pub(crate) fn free_refs_over(e: &ScalarExpr, schema: Schema) -> Vec<ColRef> {
    let mut walk = Walk { scopes: vec![schema], free: Vec::new() };
    walk.expr(e);
    walk.free
}

#[derive(Default)]
struct Walk {
    scopes: Vec<Schema>,
    free: Vec<ColRef>,
}

impl Walk {
    fn rel(&mut self, rel: &RelExpr) {
        match rel {
            RelExpr::Get { .. } => {}
            RelExpr::Values { rows, .. } => rows.iter().flatten().for_each(|e| self.expr(e)),
            RelExpr::Select { input, predicate } => {
                self.rel(input);
                self.over(input.schema(), [predicate]);
            }
            RelExpr::Project { input, exprs } => {
                self.rel(input);
                self.over(input.schema(), exprs.iter().map(|(e, _)| e));
            }
            RelExpr::Window { input, exprs } => {
                self.rel(input);
                self.over(
                    input.schema(),
                    exprs.iter().flat_map(|w| {
                        w.arg
                            .iter()
                            .chain(&w.partition_by)
                            .chain(w.order_by.iter().map(|k| &k.expr))
                    }),
                );
            }
            RelExpr::Join { left, right, condition, .. } => {
                self.rel(left);
                self.rel(right);
                self.over(left.schema().join(&right.schema()), condition);
            }
            RelExpr::Aggregate { input, group_by, aggs, .. } => {
                self.rel(input);
                self.over(input.schema(), group_by.iter().chain(aggs).map(|(e, _)| e));
            }
            RelExpr::Sort { input, keys } => {
                self.rel(input);
                self.over(input.schema(), keys.iter().map(|k| &k.expr));
            }
            RelExpr::Distinct { input }
            | RelExpr::Limit { input, .. }
            | RelExpr::Alias { input, .. } => self.rel(input),
            RelExpr::SetOp { left, right, .. } => {
                self.rel(left);
                self.rel(right);
            }
        }
    }

    /// Walk `exprs` evaluated over rows of `schema`.
    fn over<'e>(&mut self, schema: Schema, exprs: impl IntoIterator<Item = &'e ScalarExpr>) {
        self.scopes.push(schema);
        for e in exprs {
            self.expr(e);
        }
        self.scopes.pop();
    }

    fn expr(&mut self, e: &ScalarExpr) {
        e.visit_no_subquery(&mut |x| match x {
            ScalarExpr::Column { qualifier, name, .. } => {
                let q = qualifier.as_deref();
                let bound =
                    self.scopes.iter().any(|s| matches!(s.try_resolve(q, name), Ok(Some(_))));
                if !bound && !self.free.iter().any(|c| c.qualifier.as_deref() == q && c.name == *name) {
                    self.free.push(ColRef { qualifier: qualifier.clone(), name: name.clone() });
                }
            }
            ScalarExpr::ScalarSubquery(s)
            | ScalarExpr::Exists { subquery: s, .. }
            | ScalarExpr::InSubquery { subquery: s, .. }
            | ScalarExpr::QuantifiedCmp { subquery: s, .. } => self.rel(s),
            _ => {}
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperq_xtra::expr::{AggFunc, CmpOp};
    use hyperq_xtra::schema::Field;
    use hyperq_xtra::types::SqlType;

    fn get(table: &str, cols: &[&str]) -> RelExpr {
        RelExpr::Get {
            table: table.to_string(),
            alias: Some(table.to_string()),
            schema: Schema::new(
                cols.iter().map(|c| Field::new(Some(table), c, SqlType::Integer, true)).collect(),
            ),
        }
    }

    fn col(q: Option<&str>, name: &str) -> ScalarExpr {
        ScalarExpr::column(q, name, SqlType::Integer)
    }

    fn names(refs: &[ColRef]) -> Vec<String> {
        refs.iter()
            .map(|c| match &c.qualifier {
                Some(q) => format!("{q}.{}", c.name),
                None => c.name.clone(),
            })
            .collect()
    }

    #[test]
    fn correlated_filter_is_free_local_one_is_not() {
        // σ[L.K = P.K ∧ L.Q > 1](L): only P.K comes from outside.
        let rel = RelExpr::Select {
            input: Box::new(get("L", &["K", "Q"])),
            predicate: ScalarExpr::and(vec![
                ScalarExpr::cmp(CmpOp::Eq, col(Some("L"), "K"), col(Some("P"), "K")),
                ScalarExpr::cmp(CmpOp::Gt, col(Some("L"), "Q"), ScalarExpr::int(1)),
                ScalarExpr::cmp(CmpOp::Eq, col(Some("P"), "K"), ScalarExpr::int(2)),
            ]),
        };
        assert_eq!(names(&free_refs(&rel)), ["P.K"]);
    }

    #[test]
    fn nested_subquery_refs_bound_by_the_enclosing_body_are_not_free() {
        // σ[EXISTS σ[M.K = L.K ∧ M.Z = O.Z](M)](L): L.K is bound by the
        // outer body's scope, O.Z by nothing inside.
        let inner = RelExpr::Select {
            input: Box::new(get("M", &["K", "Z"])),
            predicate: ScalarExpr::and(vec![
                ScalarExpr::cmp(CmpOp::Eq, col(Some("M"), "K"), col(Some("L"), "K")),
                ScalarExpr::cmp(CmpOp::Eq, col(Some("M"), "Z"), col(Some("O"), "Z")),
            ]),
        };
        let rel = RelExpr::Select {
            input: Box::new(get("L", &["K"])),
            predicate: ScalarExpr::Exists { subquery: Box::new(inner), negated: false },
        };
        assert_eq!(names(&free_refs(&rel)), ["O.Z"]);
    }

    #[test]
    fn an_aggregate_output_name_binds_only_above_the_aggregate() {
        // Project[M](Aggregate[MAX(M) AS M](R)): the Project reads the
        // aggregate's output M, but the aggregate's own argument is
        // evaluated over R, which has no M.
        let agg = RelExpr::Aggregate {
            input: Box::new(get("R", &["T"])),
            group_by: vec![],
            grouping: hyperq_xtra::rel::Grouping::Simple,
            aggs: vec![(
                ScalarExpr::Agg { func: AggFunc::Max, distinct: false, arg: Some(Box::new(col(None, "M"))) },
                "M".to_string(),
            )],
        };
        assert_eq!(names(&free_refs(&agg)), ["M"]);
        let above = RelExpr::Project { input: Box::new(agg), exprs: vec![(col(None, "M"), "X".into())] };
        assert_eq!(names(&free_refs(&above)), ["M"], "the inner M is still free");
    }

    #[test]
    fn ambiguous_names_fall_through_like_the_evaluator() {
        // Over A × B both exposing X, an unqualified X is ambiguous in the
        // join scope, so it is read from outside.
        let rel = RelExpr::Join {
            kind: hyperq_xtra::rel::JoinKind::Inner,
            left: Box::new(get("A", &["X"])),
            right: Box::new(get("B", &["X"])),
            condition: Some(ScalarExpr::cmp(CmpOp::Eq, col(None, "X"), col(Some("A"), "X"))),
        };
        assert_eq!(names(&free_refs(&rel)), ["X"]);
    }

    #[test]
    fn values_bind_nothing() {
        let rel = RelExpr::Values { rows: vec![vec![col(Some("O"), "Z")]], schema: Schema::empty() };
        assert_eq!(names(&free_refs(&rel)), ["O.Z"]);
        assert!(free_refs(&RelExpr::Values { rows: vec![vec![ScalarExpr::int(1)]], schema: Schema::empty() }).is_empty());
    }
}
