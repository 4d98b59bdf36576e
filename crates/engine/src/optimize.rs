//! A minimal heuristic optimizer: predicate pushdown into (cross) joins,
//! then join pruning.
//!
//! The engine is a substrate, not the paper's contribution, so there is no
//! cost-based optimization — but *one* rewrite is indispensable for
//! realistic analytical SQL: turning `σ[p](A × B)` into a hash-joinable
//! `A ⋈ B`, since warehouse workloads (and Teradata applications in
//! particular, via implicit joins) routinely spell joins as cross products
//! filtered by `WHERE`. The second keeps a join chain from concatenating
//! whole rows when the statement reads a few of their columns.

use std::collections::HashSet;

use hyperq_xtra::expr::ScalarExpr;
use hyperq_xtra::rel::{JoinKind, RelExpr};
use hyperq_xtra::schema::{Field, Schema};

use crate::exec::{conjuncts, emit_list};
use crate::scope::{free_refs, free_refs_over};

/// Optimize one statement's plan: `pushdown` to fixed point, then `prune`.
pub fn optimize(rel: RelExpr) -> RelExpr {
    prune(pushdown(rel))
}

/// Push filter conjuncts down into join inputs/conditions and decorrelate
/// top-level [NOT] EXISTS conjuncts into semi/anti joins, until fixed
/// point.
pub(crate) fn pushdown(mut rel: RelExpr) -> RelExpr {
    for _ in 0..10 {
        let changed = std::cell::Cell::new(false);
        rel = rel.rewrite(
            &mut |node| match node {
                RelExpr::Select { input, predicate } => {
                    // Pushdown first: it moves non-pushable conjuncts (like
                    // EXISTS) into a residual Select above the join, which a
                    // later pass then decorrelates — never the other way
                    // around, or a cross product gets trapped under the
                    // semi join.
                    let (input, predicate) = match *input {
                        RelExpr::Join {
                            kind: kind @ (JoinKind::Cross | JoinKind::Inner),
                            left,
                            right,
                            condition,
                        } => {
                            let (pushed, did) =
                                push_into_join(kind, left, right, condition, predicate);
                            if did {
                                changed.set(true);
                                return pushed;
                            }
                            match pushed {
                                RelExpr::Select { input, predicate } => (*input, predicate),
                                other => return other,
                            }
                        }
                        other => (other, predicate),
                    };
                    match decorrelate_exists(input, predicate) {
                        Ok(rewritten) => {
                            changed.set(true);
                            rewritten
                        }
                        Err((input, predicate)) => {
                            RelExpr::Select { input: Box::new(input), predicate }
                        }
                    }
                }
                other => other,
            },
            &mut |e| e,
        );
        if !changed.get() {
            break;
        }
    }
    rel
}

/// Try to rewrite `σ[… ∧ [NOT] EXISTS(S) ∧ …](R)` into semi/anti hash
/// joins. Returns `Err` with the inputs unchanged when nothing applies.
#[allow(clippy::result_large_err)] // Err carries the inputs back, by design.
fn decorrelate_exists(
    input: RelExpr,
    predicate: ScalarExpr,
) -> Result<RelExpr, (RelExpr, ScalarExpr)> {
    let mut conjuncts: Vec<ScalarExpr> = conjuncts(&predicate).into_iter().cloned().collect();
    let input_schema = input.schema();

    // Find the first decorrelatable [NOT] EXISTS or [NOT] IN conjunct and
    // plan its join: (position, negated, inner relation, join condition).
    let found = conjuncts.iter().enumerate().find_map(|(pos, c)| match c {
        ScalarExpr::Exists { subquery, negated } => {
            exists_plan(subquery, &input_schema).map(|(inner, mut keys, residual)| {
                keys.extend(residual);
                (pos, *negated, inner, keys)
            })
        }
        ScalarExpr::InSubquery { exprs, subquery, negated }
            if in_subquery_decorrelatable(exprs, subquery, *negated, &input_schema) =>
        {
            let keys = exprs
                .iter()
                .zip(subquery.schema().fields)
                .map(|(e, f)| {
                    ScalarExpr::cmp(
                        hyperq_xtra::expr::CmpOp::Eq,
                        e.clone(),
                        ScalarExpr::Column { qualifier: f.qualifier, name: f.name, ty: f.ty },
                    )
                })
                .collect();
            Some((pos, *negated, (**subquery).clone(), keys))
        }
        _ => None,
    });
    let Some((pos, negated, inner, condition)) = found else {
        return Err((input, predicate));
    };
    conjuncts.remove(pos);

    let kind = if negated { JoinKind::Anti } else { JoinKind::Semi };
    if condition.is_empty() {
        return Err((input, predicate));
    }
    let join = RelExpr::Join {
        kind,
        left: Box::new(input),
        right: Box::new(inner),
        condition: Some(ScalarExpr::and(condition)),
    };
    Ok(if conjuncts.is_empty() {
        join
    } else {
        RelExpr::Select { input: Box::new(join), predicate: ScalarExpr::and(conjuncts) }
    })
}

/// Analyze an EXISTS subquery for decorrelation against `outer`. Returns
/// the stripped inner relation, the correlated equi conjuncts, and the
/// remaining correlated conjuncts (residual, evaluated per candidate
/// pair) — or `None` when the shape is not safely decorrelatable.
fn exists_plan(
    subquery: &RelExpr,
    outer: &Schema,
) -> Option<(RelExpr, Vec<ScalarExpr>, Vec<ScalarExpr>)> {
    // Strip constant projections (the binder's `SELECT 1` / the vector
    // rewrite's remapped const) and aliases off the top.
    let mut cur = subquery;
    while let RelExpr::Project { input, .. } | RelExpr::Alias { input, .. } = cur {
        cur = input;
    }
    let RelExpr::Select { input: inner, predicate } = cur else {
        return None;
    };
    // The inner source must be self-contained: no nested subqueries and
    // no free references (otherwise the hash build would capture
    // correlation).
    if has_subquery_rel(inner) || !free_refs(inner).is_empty() {
        return None;
    }
    let inner_schema = inner.schema();
    let mut keys = Vec::new();
    let mut inner_local = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts(predicate) {
        if refs_resolve_in(c, &inner_schema) {
            inner_local.push(c.clone());
            continue;
        }
        if let ScalarExpr::Cmp { op: hyperq_xtra::expr::CmpOp::Eq, left, right } = c {
            let l_inner = refs_resolve_in(left, &inner_schema);
            let r_inner = refs_resolve_in(right, &inner_schema);
            let l_outer = refs_resolve_in(left, outer);
            let r_outer = refs_resolve_in(right, outer);
            if l_outer && r_inner && !l_inner {
                keys.push(c.clone());
                continue;
            }
            if r_outer && l_inner && !r_inner {
                keys.push(c.clone());
                continue;
            }
        }
        // Correlated non-equi (or mixed): only safe as a join residual if
        // it resolves against the combined scope.
        if free_refs_over(c, outer.join(&inner_schema)).is_empty() {
            residual.push(c.clone());
        } else {
            return None;
        }
    }
    if keys.is_empty() {
        // Without an equi key the semi join degenerates to a nested loop
        // over the full inner — no better than naive evaluation.
        return None;
    }
    let inner = if inner_local.is_empty() {
        (**inner).clone()
    } else {
        RelExpr::Select { input: inner.clone(), predicate: ScalarExpr::and(inner_local) }
    };
    Some((inner, keys, residual))
}

/// Is `exprs [NOT] IN (subquery)` rewritable into a semi/anti join?
///
/// `IN` is always safe as a semi join in filter position. `NOT IN` is only
/// equivalent to an anti join when no key on either side can be NULL
/// (otherwise SQL's three-valued `NOT IN` yields UNKNOWN, not TRUE, for
/// unmatched rows).
fn in_subquery_decorrelatable(
    exprs: &[ScalarExpr],
    subquery: &RelExpr,
    negated: bool,
    outer: &Schema,
) -> bool {
    if has_subquery_rel(subquery) || !free_refs(subquery).is_empty() {
        return false;
    }
    if !exprs.iter().all(|e| refs_resolve_in(e, outer)) {
        return false;
    }
    if negated {
        let inner_nullable = subquery.schema().fields.iter().any(|f| f.nullable);
        let outer_nullable = exprs.iter().any(|e| match e {
            ScalarExpr::Column { qualifier, name, .. } => outer
                .try_resolve(qualifier.as_deref(), name)
                .ok()
                .flatten()
                .is_none_or(|i| outer.fields[i].nullable),
            ScalarExpr::Literal(d, _) => d.is_null(),
            _ => true,
        });
        if inner_nullable || outer_nullable {
            return false;
        }
    }
    true
}

fn has_subquery_rel(rel: &RelExpr) -> bool {
    let mut found = false;
    rel.visit(
        &mut |e| {
            if matches!(
                e,
                ScalarExpr::ScalarSubquery(_)
                    | ScalarExpr::Exists { .. }
                    | ScalarExpr::InSubquery { .. }
                    | ScalarExpr::QuantifiedCmp { .. }
            ) {
                found = true;
            }
        },
        &mut |_| {},
    );
    found
}

/// Returns the rewritten tree and whether anything actually moved.
fn push_into_join(
    _kind: JoinKind,
    left: Box<RelExpr>,
    right: Box<RelExpr>,
    condition: Option<ScalarExpr>,
    predicate: ScalarExpr,
) -> (RelExpr, bool) {
    let lschema = left.schema();
    let rschema = right.schema();
    let combined = lschema.join(&rschema);

    let pred_conjuncts = conjuncts(&predicate);
    let n_pred = pred_conjuncts.len();
    let cond_conjuncts = condition.as_ref().map(conjuncts).unwrap_or_default();

    let mut left_preds = Vec::new();
    let mut right_preds = Vec::new();
    let mut join_preds = Vec::new();
    let mut residual = Vec::new();
    let mut moved = false;
    for (i, c) in pred_conjuncts.into_iter().chain(cond_conjuncts).cloned().enumerate() {
        let from_predicate = i < n_pred;
        if refs_resolve_in(&c, &lschema) {
            moved = true;
            left_preds.push(c);
        } else if refs_resolve_in(&c, &rschema) {
            moved = true;
            right_preds.push(c);
        } else if refs_resolve_in(&c, &combined) {
            if from_predicate {
                moved = true;
            }
            join_preds.push(c);
        } else {
            // Correlated or subquery-bearing: evaluate above the join.
            residual.push(c);
        }
    }

    let wrap = |rel: Box<RelExpr>, preds: Vec<ScalarExpr>| -> Box<RelExpr> {
        if preds.is_empty() {
            rel
        } else {
            Box::new(RelExpr::Select { input: rel, predicate: ScalarExpr::and(preds) })
        }
    };
    let join = RelExpr::Join {
        kind: if join_preds.is_empty() { JoinKind::Cross } else { JoinKind::Inner },
        left: wrap(left, left_preds),
        right: wrap(right, right_preds),
        condition: if join_preds.is_empty() {
            None
        } else {
            Some(ScalarExpr::and(join_preds))
        },
    };
    let out = if residual.is_empty() {
        join
    } else {
        RelExpr::Select { input: Box::new(join), predicate: ScalarExpr::and(residual) }
    };
    (out, moved)
}

/// True when the conjunct can be evaluated given only `schema`: every
/// column resolves there and there are no subqueries (whose correlation we
/// cannot cheaply analyze).
fn refs_resolve_in(e: &ScalarExpr, schema: &Schema) -> bool {
    let mut ok = true;
    e.visit(
        &mut |x| match x {
            ScalarExpr::Column { qualifier, name, .. }
                if !matches!(schema.try_resolve(qualifier.as_deref(), name), Ok(Some(_))) => {
                    ok = false;
                }
            ScalarExpr::ScalarSubquery(_)
            | ScalarExpr::Exists { .. }
            | ScalarExpr::InSubquery { .. }
            | ScalarExpr::QuantifiedCmp { .. } => ok = false,
            _ => {}
        },
        &mut |_| {},
    );
    ok
}

// ---------------------------------------------------------------------------
// Join pruning
// ---------------------------------------------------------------------------

/// Narrow each join whose consumer reads its rows by name to the fields
/// whose *name* the statement references anywhere, subqueries included:
/// `Alias { kept fields, Project(plain column refs) }` over the join, a
/// projection the executor fuses into the join's row build.
///
/// Why by name: every field a reference could match is kept, so each
/// reference sees exactly the same-named fields it saw before. Every
/// resolution, every ambiguity falling through to an outer scope and every
/// error text is unchanged, with no scope analysis. Consumers that read
/// rows whole or by position keep them whole: the statement root (an
/// INSERT/CTAS source root too), each subquery root, `Distinct`, both
/// `SetOp` inputs and an `Alias` input.
fn prune(rel: RelExpr) -> RelExpr {
    let mut has_join = false;
    rel.visit(&mut |_| {}, &mut |r| has_join |= matches!(r, RelExpr::Join { .. }));
    if !has_join {
        return rel;
    }
    let mut names = HashSet::new();
    rel.visit(
        &mut |e| {
            if let ScalarExpr::Column { name, .. } = e {
                names.insert(name.to_ascii_uppercase());
            }
        },
        &mut |_| {},
    );
    let prune = Prune { names };
    // The bottom-up rewrite reaches each subquery exactly once, and
    // `Prune::rel` never descends into expressions, so no body is pruned
    // twice.
    let rel = rel.rewrite(&mut |r| r, &mut |e| prune.subquery(e));
    prune.rel(rel, true).0
}

struct Prune {
    /// Every column name the statement references, upper-cased.
    names: HashSet<String>,
}

impl Prune {
    /// A subquery expression whose body is pruned as a root: its rows are
    /// read by position.
    fn subquery(&self, e: ScalarExpr) -> ScalarExpr {
        let root = |body: Box<RelExpr>| Box::new(self.rel(*body, true).0);
        match e {
            ScalarExpr::ScalarSubquery(body) => ScalarExpr::ScalarSubquery(root(body)),
            ScalarExpr::Exists { subquery, negated } => {
                ScalarExpr::Exists { subquery: root(subquery), negated }
            }
            ScalarExpr::InSubquery { exprs, subquery, negated } => {
                ScalarExpr::InSubquery { exprs, subquery: root(subquery), negated }
            }
            ScalarExpr::QuantifiedCmp { left, op, quantifier, subquery } => {
                ScalarExpr::QuantifiedCmp { left, op, quantifier, subquery: root(subquery) }
            }
            other => other,
        }
    }

    /// `rel` with its joins narrowed, where `whole` says whether its
    /// consumer reads rows whole or by position. Returns `rel`'s schema too
    /// when it came for free, so a join chain derives each schema once.
    fn rel(&self, rel: RelExpr, whole: bool) -> (RelExpr, Option<Schema>) {
        match rel {
            RelExpr::Join { kind, left, right, condition } if whole => {
                // Only the condition reads a semi/anti join's right side.
                let semi_anti = matches!(kind, JoinKind::Semi | JoinKind::Anti);
                let left = Box::new(self.rel(*left, true).0);
                let right = Box::new(self.rel(*right, !semi_anti).0);
                (RelExpr::Join { kind, left, right, condition }, None)
            }
            RelExpr::Join { kind, left, right, condition } => {
                let (join, schema) = self.join(kind, *left, *right, condition);
                let (join, schema) = self.narrow(join, schema);
                (join, Some(schema))
            }
            RelExpr::Project { input, exprs } => {
                let input = match *input {
                    // A projection of plain columns over a join already is
                    // the narrowing: the join builds just those columns.
                    RelExpr::Join { kind, left, right, condition } => {
                        let (join, schema) = self.join(kind, *left, *right, condition);
                        if emit_list(exprs.iter().map(|(e, _)| e), &schema).is_some() {
                            join
                        } else {
                            self.narrow(join, schema).0
                        }
                    }
                    input => self.rel(input, false).0,
                };
                (RelExpr::Project { input: Box::new(input), exprs }, None)
            }
            RelExpr::Aggregate { input, group_by, grouping, aggs } => {
                let input = Box::new(self.rel(*input, false).0);
                (RelExpr::Aggregate { input, group_by, grouping, aggs }, None)
            }
            RelExpr::Select { input, predicate } => {
                let (input, schema) = self.rel(*input, whole);
                (RelExpr::Select { input: Box::new(input), predicate }, schema)
            }
            RelExpr::Sort { input, keys } => {
                let (input, schema) = self.rel(*input, whole);
                (RelExpr::Sort { input: Box::new(input), keys }, schema)
            }
            RelExpr::Limit { input, limit, offset, with_ties } => {
                let (input, schema) = self.rel(*input, whole);
                (RelExpr::Limit { input: Box::new(input), limit, offset, with_ties }, schema)
            }
            RelExpr::Window { input, exprs } => {
                let input = Box::new(self.rel(*input, whole).0);
                (RelExpr::Window { input, exprs }, None)
            }
            RelExpr::Distinct { input } => {
                let (input, schema) = self.rel(*input, true);
                (RelExpr::Distinct { input: Box::new(input) }, schema)
            }
            RelExpr::SetOp { kind, all, left, right } => {
                let left = Box::new(self.rel(*left, true).0);
                let right = Box::new(self.rel(*right, true).0);
                (RelExpr::SetOp { kind, all, left, right }, None)
            }
            RelExpr::Alias { input, alias, schema } => {
                let input = Box::new(self.rel(*input, true).0);
                (RelExpr::Alias { input, alias, schema: schema.clone() }, Some(schema))
            }
            leaf @ (RelExpr::Get { .. } | RelExpr::Values { .. }) => (leaf, None),
        }
    }

    /// A join whose consumer reads by name, its inputs pruned for the same
    /// kind of consumer, with its output schema.
    fn join(
        &self,
        kind: JoinKind,
        left: RelExpr,
        right: RelExpr,
        condition: Option<ScalarExpr>,
    ) -> (RelExpr, Schema) {
        let (left, lschema) = self.rel(left, false);
        let (right, rschema) = self.rel(right, false);
        let schema = kind.output_schema(
            lschema.unwrap_or_else(|| left.schema()),
            rschema.unwrap_or_else(|| right.schema()),
        );
        (RelExpr::Join { kind, left: Box::new(left), right: Box::new(right), condition }, schema)
    }

    /// `join` narrowed to the fields whose name the statement references.
    /// It stays as it is when that drops nothing, or when a kept field's
    /// `(qualifier, name)` would not resolve uniquely in the projection.
    fn narrow(&self, join: RelExpr, schema: Schema) -> (RelExpr, Schema) {
        let kept: Vec<Field> = schema
            .fields
            .iter()
            .filter(|f| self.names.contains(&f.name.to_ascii_uppercase()))
            .cloned()
            .collect();
        let resolvable = kept.iter().all(|f| {
            matches!(schema.try_resolve(f.qualifier.as_deref(), &f.name), Ok(Some(_)))
        });
        if kept.len() == schema.len() || !resolvable {
            return (join, schema);
        }
        let exprs = kept
            .iter()
            .map(|f| {
                let column = ScalarExpr::Column {
                    qualifier: f.qualifier.clone(),
                    name: f.name.clone(),
                    ty: f.ty.clone(),
                };
                (column, f.name.clone())
            })
            .collect();
        let schema = Schema::new(kept);
        let project = RelExpr::Project { input: Box::new(join), exprs };
        let alias = RelExpr::Alias { input: Box::new(project), alias: String::new(), schema: schema.clone() };
        (alias, schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperq_xtra::expr::CmpOp;
    use hyperq_xtra::schema::Field;
    use hyperq_xtra::types::SqlType;

    fn get(name: &str, col: &str) -> RelExpr {
        RelExpr::Get {
            table: name.to_string(),
            alias: Some(name.to_string()),
            schema: Schema::new(vec![Field::new(Some(name), col, SqlType::Integer, true)]),
        }
    }

    #[test]
    fn cross_join_with_equi_filter_becomes_inner_join() {
        let sel = RelExpr::Select {
            input: Box::new(RelExpr::Join {
                kind: JoinKind::Cross,
                left: Box::new(get("A", "X")),
                right: Box::new(get("B", "Y")),
                condition: None,
            }),
            predicate: ScalarExpr::and(vec![
                ScalarExpr::cmp(
                    CmpOp::Eq,
                    ScalarExpr::column(Some("A"), "X", SqlType::Integer),
                    ScalarExpr::column(Some("B"), "Y", SqlType::Integer),
                ),
                ScalarExpr::cmp(
                    CmpOp::Gt,
                    ScalarExpr::column(Some("A"), "X", SqlType::Integer),
                    ScalarExpr::int(5),
                ),
            ]),
        };
        let opt = optimize(sel);
        match opt {
            RelExpr::Join { kind: JoinKind::Inner, left, condition: Some(_), .. } => {
                assert!(
                    matches!(*left, RelExpr::Select { .. }),
                    "single-side filter pushed below the join"
                );
            }
            other => panic!("expected inner join, got {other:?}"),
        }
    }

    #[test]
    fn correlated_conjunct_stays_above() {
        let sub = RelExpr::Values { rows: vec![], schema: Schema::empty() };
        let sel = RelExpr::Select {
            input: Box::new(RelExpr::Join {
                kind: JoinKind::Cross,
                left: Box::new(get("A", "X")),
                right: Box::new(get("B", "Y")),
                condition: None,
            }),
            predicate: ScalarExpr::Exists { subquery: Box::new(sub), negated: false },
        };
        match optimize(sel) {
            RelExpr::Select { input, .. } => {
                assert!(matches!(*input, RelExpr::Join { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nested_comma_joins_fully_pushed() {
        // σ[a=b ∧ b=c](A × B × C) — both equi conjuncts become join
        // conditions after the fixed-point loop.
        let abc = RelExpr::Join {
            kind: JoinKind::Cross,
            left: Box::new(RelExpr::Join {
                kind: JoinKind::Cross,
                left: Box::new(get("A", "X")),
                right: Box::new(get("B", "Y")),
                condition: None,
            }),
            right: Box::new(get("C", "Z")),
            condition: None,
        };
        let sel = RelExpr::Select {
            input: Box::new(abc),
            predicate: ScalarExpr::and(vec![
                ScalarExpr::cmp(
                    CmpOp::Eq,
                    ScalarExpr::column(Some("A"), "X", SqlType::Integer),
                    ScalarExpr::column(Some("B"), "Y", SqlType::Integer),
                ),
                ScalarExpr::cmp(
                    CmpOp::Eq,
                    ScalarExpr::column(Some("B"), "Y", SqlType::Integer),
                    ScalarExpr::column(Some("C"), "Z", SqlType::Integer),
                ),
            ]),
        };
        let opt = optimize(sel);
        // No Select directly above a cross join may remain.
        let mut bad = false;
        opt.visit(&mut |_| {}, &mut |r| {
            if let RelExpr::Select { input, .. } = r {
                if matches!(**input, RelExpr::Join { kind: JoinKind::Cross, .. }) {
                    bad = true;
                }
            }
        });
        assert!(!bad, "{opt:?}");
    }
}
