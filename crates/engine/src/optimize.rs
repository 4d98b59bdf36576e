//! A minimal heuristic optimizer: predicate pushdown into (cross) joins.
//!
//! The engine is a substrate, not the paper's contribution, so there is no
//! cost-based optimization — but *one* rewrite is indispensable for
//! realistic analytical SQL: turning `σ[p](A × B)` into a hash-joinable
//! `A ⋈ B`, since warehouse workloads (and Teradata applications in
//! particular, via implicit joins) routinely spell joins as cross products
//! filtered by `WHERE`.

use hyperq_xtra::expr::ScalarExpr;
use hyperq_xtra::rel::{JoinKind, RelExpr};
use hyperq_xtra::schema::Schema;

use crate::exec::conjuncts;
use crate::scope::{free_refs, free_refs_over};

/// Push filter conjuncts down into join inputs/conditions and decorrelate
/// top-level [NOT] EXISTS conjuncts into semi/anti joins, until fixed
/// point.
pub fn optimize(mut rel: RelExpr) -> RelExpr {
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
