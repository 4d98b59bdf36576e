//! Relational operator execution.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use hyperq_xtra::datum::Datum;
use hyperq_xtra::expr::{BoolOp, CmpOp, ScalarExpr, SortExpr, WindowFuncKind};
use hyperq_xtra::rel::{Grouping, JoinKind, RelExpr, SetOpKind};
use hyperq_xtra::schema::Schema;
use hyperq_xtra::Row;

use crate::db::EngineDb;
use crate::eval::{eval, eval_truth, AggState, EvalContext, EvalError};
use crate::memo::SubqueryMemo;

type Scopes<'a> = [(&'a Schema, &'a Row)];

/// Rough heap footprint of one materialized row of `width` columns: the
/// `Vec<Datum>` header plus a per-datum estimate. Deliberately coarse —
/// the governor ledger wants an early, cheap bound, not an allocator.
fn row_bytes(width: usize) -> u64 {
    48 + 24 * width as u64
}

/// Charge an operator's materialized output to the statement's resource
/// ledger (no-op without an installed governor). A denied charge cancels
/// the statement, surfacing the budget error instead of an engine OOM.
fn charge_rows(rows: &[Row]) -> Result<(), EvalError> {
    if rows.is_empty() {
        return Ok(());
    }
    let width = rows[0].len();
    hyperq_governor::charge(rows.len() as u64 * row_bytes(width)).map_err(|c| c.to_string())
}

/// Incremental governor accounting inside a single operator's row loop:
/// charges and checkpoints every `BATCH` produced rows, so a huge cross
/// join is cancelled (or budget-killed) *mid-materialization* instead of
/// after it has already allocated everything.
struct ChargeTicker {
    pending: u64,
    row_bytes: u64,
}

impl ChargeTicker {
    const BATCH: u64 = 1024;

    fn new(width: usize) -> ChargeTicker {
        ChargeTicker { pending: 0, row_bytes: row_bytes(width) }
    }

    fn produced(&mut self) -> Result<(), EvalError> {
        self.pending += 1;
        if self.pending >= Self::BATCH {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), EvalError> {
        if self.pending > 0 {
            hyperq_governor::charge(self.pending * self.row_bytes)
                .map_err(|c| c.to_string())?;
            self.pending = 0;
        }
        hyperq_governor::checkpoint().map_err(|c| c.to_string())
    }
}

/// Execute a relational tree, with `outer` scopes available for correlated
/// column references and `memo` holding the statement's subquery results.
pub fn execute_rel(
    rel: &RelExpr,
    db: &EngineDb,
    memo: &SubqueryMemo,
    outer: &Scopes<'_>,
) -> Result<Vec<Row>, EvalError> {
    // Cooperative cancellation at every operator boundary; joins and
    // aggregates additionally tick inside their row loops.
    hyperq_governor::checkpoint().map_err(|c| c.to_string())?;
    let out = match rel {
        RelExpr::Get { table, .. } => {
            let data = db.scan(table)?;
            Ok(data.iter().cloned().collect())
        }
        RelExpr::Values { rows, .. } => {
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let mut ctx = EvalContext { db, memo, scopes: outer.to_vec() };
                let mut vals = Vec::with_capacity(row.len());
                for e in row {
                    vals.push(eval(e, &mut ctx)?);
                }
                out.push(vals);
            }
            Ok(out)
        }
        RelExpr::Select { input, predicate } => {
            let schema = input.schema();
            let rows = execute_rel(input, db, memo, outer)?;
            let mut out = Vec::new();
            for row in rows {
                let mut scopes = outer.to_vec();
                scopes.push((&schema, &row));
                let mut ctx = EvalContext { db, memo, scopes };
                if eval_truth(predicate, &mut ctx)? == Some(true) {
                    out.push(row);
                }
            }
            Ok(out)
        }
        RelExpr::Project { input, exprs } => {
            let schema = input.schema();
            let rows = execute_rel(input, db, memo, outer)?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let mut scopes = outer.to_vec();
                scopes.push((&schema, &row));
                let mut ctx = EvalContext { db, memo, scopes };
                let mut projected = Vec::with_capacity(exprs.len());
                for (e, _) in exprs {
                    projected.push(eval(e, &mut ctx)?);
                }
                out.push(projected);
            }
            Ok(out)
        }
        RelExpr::Window { input, exprs } => {
            execute_window(input, exprs, db, memo, outer)
        }
        RelExpr::Join { kind, left, right, condition } => {
            execute_join(*kind, left, right, condition.as_ref(), db, memo, outer)
        }
        RelExpr::Aggregate { input, group_by, grouping, aggs } => {
            if matches!(grouping, Grouping::Sets(_)) {
                // SimWH truthfully lacks OLAP grouping extensions; Hyper-Q's
                // expansion rule must fire before SQL reaches the engine.
                return Err("GROUPING SETS are not supported by this warehouse".to_string());
            }
            execute_aggregate(input, group_by, aggs, db, memo, outer)
        }
        RelExpr::Distinct { input } => {
            let rows = execute_rel(input, db, memo, outer)?;
            let mut seen: HashSet<Row> = HashSet::with_capacity(rows.len());
            Ok(rows.into_iter().filter(|r| seen.insert(r.clone())).collect())
        }
        RelExpr::Sort { input, keys } => {
            let schema = input.schema();
            let rows = execute_rel(input, db, memo, outer)?;
            sort_rows(rows, &schema, keys, db, memo, outer)
        }
        RelExpr::Limit { input, limit, offset, with_ties } => {
            if *with_ties {
                return Err("FETCH ... WITH TIES is not supported by this warehouse".to_string());
            }
            let mut rows = execute_rel(input, db, memo, outer)?;
            let start = (*offset as usize).min(rows.len());
            rows.drain(..start);
            if let Some(n) = limit {
                rows.truncate(*n as usize);
            }
            Ok(rows)
        }
        RelExpr::SetOp { kind, all, left, right } => {
            let l = execute_rel(left, db, memo, outer)?;
            let r = execute_rel(right, db, memo, outer)?;
            Ok(execute_setop(*kind, *all, l, r))
        }
        RelExpr::Alias { input, .. } => execute_rel(input, db, memo, outer),
    }?;
    // Joins charge incrementally while producing (see ChargeTicker);
    // every other operator charges its materialized output here, once.
    if !matches!(rel, RelExpr::Join { .. }) {
        charge_rows(&out)?;
    }
    Ok(out)
}

/// Sort rows by the given keys. NULL placement defaults to "NULLs high"
/// (last ascending, first descending) — deliberately *different* from
/// Teradata, so the explicit-NULL-ordering rewrite is observable.
pub fn sort_rows(
    rows: Vec<Row>,
    schema: &Schema,
    keys: &[SortExpr],
    db: &EngineDb,
    memo: &SubqueryMemo,
    outer: &Scopes<'_>,
) -> Result<Vec<Row>, EvalError> {
    let mut keyed: Vec<(Vec<Datum>, Row)> = Vec::with_capacity(rows.len());
    for row in rows {
        let mut scopes = outer.to_vec();
        scopes.push((schema, &row));
        let mut ctx = EvalContext { db, memo, scopes };
        let mut kv = Vec::with_capacity(keys.len());
        for k in keys {
            kv.push(eval(&k.expr, &mut ctx)?);
        }
        keyed.push((kv, row));
    }
    keyed.sort_by(|(a, _), (b, _)| compare_key_rows(a, b, keys));
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}

/// Compare two pre-computed key vectors.
pub fn compare_key_rows(a: &[Datum], b: &[Datum], keys: &[SortExpr]) -> Ordering {
    for (i, k) in keys.iter().enumerate() {
        let nulls_first = k.nulls_first.unwrap_or(k.desc);
        let ord = match (a[i].is_null(), b[i].is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => {
                if nulls_first {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, true) => {
                if nulls_first {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (false, false) => {
                let o = a[i].sql_cmp(&b[i]).unwrap_or(Ordering::Equal);
                if k.desc {
                    o.reverse()
                } else {
                    o
                }
            }
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

// ---------------------------------------------------------------------------
// Window functions
// ---------------------------------------------------------------------------

fn execute_window(
    input: &RelExpr,
    exprs: &[hyperq_xtra::expr::WindowExpr],
    db: &EngineDb,
    memo: &SubqueryMemo,
    outer: &Scopes<'_>,
) -> Result<Vec<Row>, EvalError> {
    let schema = input.schema();
    let rows = execute_rel(input, db, memo, outer)?;
    let n = rows.len();
    // Each window function appends one column; computed independently.
    let mut appended: Vec<Vec<Datum>> = vec![Vec::with_capacity(exprs.len()); n];

    for w in exprs {
        // Evaluate partition and order keys per row.
        let mut part_keys: Vec<Vec<Datum>> = Vec::with_capacity(n);
        let mut order_keys: Vec<Vec<Datum>> = Vec::with_capacity(n);
        let mut args: Vec<Option<Datum>> = Vec::with_capacity(n);
        for row in &rows {
            let mut scopes = outer.to_vec();
            scopes.push((&schema, row));
            let mut ctx = EvalContext { db, memo, scopes };
            let mut pk = Vec::with_capacity(w.partition_by.len());
            for p in &w.partition_by {
                pk.push(eval(p, &mut ctx)?);
            }
            part_keys.push(pk);
            let mut ok = Vec::with_capacity(w.order_by.len());
            for k in &w.order_by {
                ok.push(eval(&k.expr, &mut ctx)?);
            }
            order_keys.push(ok);
            args.push(match &w.arg {
                Some(a) => Some(eval(a, &mut ctx)?),
                None => None,
            });
        }

        // Group row indices by partition.
        let mut partitions: HashMap<Vec<Datum>, Vec<usize>> = HashMap::new();
        for (i, key) in part_keys.iter().enumerate() {
            partitions.entry(key.clone()).or_default().push(i);
        }

        let mut results: Vec<Datum> = vec![Datum::Null; n];
        for (_, mut indices) in partitions {
            indices.sort_by(|&a, &b| {
                compare_key_rows(&order_keys[a], &order_keys[b], &w.order_by)
            });
            match &w.func {
                WindowFuncKind::RowNumber => {
                    for (pos, &i) in indices.iter().enumerate() {
                        results[i] = Datum::Int(pos as i64 + 1);
                    }
                }
                WindowFuncKind::Rank | WindowFuncKind::DenseRank => {
                    let dense = matches!(w.func, WindowFuncKind::DenseRank);
                    let mut rank = 0i64;
                    let mut dense_rank = 0i64;
                    let mut prev: Option<&Vec<Datum>> = None;
                    for (pos, &i) in indices.iter().enumerate() {
                        let tie = prev
                            .is_some_and(|p| {
                                compare_key_rows(p, &order_keys[i], &w.order_by)
                                    == Ordering::Equal
                            });
                        if !tie {
                            rank = pos as i64 + 1;
                            dense_rank += 1;
                        }
                        results[i] = Datum::Int(if dense { dense_rank } else { rank });
                        prev = Some(&order_keys[i]);
                    }
                }
                WindowFuncKind::Agg(agg) => {
                    if w.order_by.is_empty() {
                        // Whole-partition aggregate broadcast.
                        let mut state = AggState::new(*agg, false, w.ty());
                        for &i in &indices {
                            state.update(match agg {
                                hyperq_xtra::expr::AggFunc::CountStar => None,
                                _ => args[i].as_ref(),
                            })?;
                        }
                        let v = state.finish()?;
                        for &i in &indices {
                            results[i] = v.clone();
                        }
                    } else {
                        // Default frame: RANGE UNBOUNDED PRECEDING — running
                        // aggregate including peers.
                        let mut pos = 0usize;
                        let mut state = AggState::new(*agg, false, w.ty());
                        let mut finished: Vec<(usize, Datum)> = Vec::new();
                        while pos < indices.len() {
                            // Find the peer group [pos, end).
                            let mut end = pos + 1;
                            while end < indices.len()
                                && compare_key_rows(
                                    &order_keys[indices[pos]],
                                    &order_keys[indices[end]],
                                    &w.order_by,
                                ) == Ordering::Equal
                            {
                                end += 1;
                            }
                            for &i in &indices[pos..end] {
                                state.update(match agg {
                                    hyperq_xtra::expr::AggFunc::CountStar => None,
                                    _ => args[i].as_ref(),
                                })?;
                            }
                            // Snapshot requires finishing; AggState is not
                            // cloneable, so recompute via a fresh pass.
                            let mut snapshot =
                                AggState::new(*agg, false, w.ty());
                            for &i in &indices[..end] {
                                snapshot.update(match agg {
                                    hyperq_xtra::expr::AggFunc::CountStar => None,
                                    _ => args[i].as_ref(),
                                })?;
                            }
                            let v = snapshot.finish()?;
                            for &i in &indices[pos..end] {
                                finished.push((i, v.clone()));
                            }
                            pos = end;
                        }
                        for (i, v) in finished {
                            results[i] = v;
                        }
                    }
                }
            }
        }
        for i in 0..n {
            appended[i].push(results[i].clone());
        }
    }

    Ok(rows
        .into_iter()
        .zip(appended)
        .map(|(mut row, extra)| {
            row.extend(extra);
            row
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

fn execute_aggregate(
    input: &RelExpr,
    group_by: &[(ScalarExpr, String)],
    aggs: &[(ScalarExpr, String)],
    db: &EngineDb,
    memo: &SubqueryMemo,
    outer: &Scopes<'_>,
) -> Result<Vec<Row>, EvalError> {
    let schema = input.schema();
    let rows = execute_rel(input, db, memo, outer)?;

    struct AggSpec<'e> {
        func: hyperq_xtra::expr::AggFunc,
        distinct: bool,
        arg: Option<&'e ScalarExpr>,
        ty: hyperq_xtra::types::SqlType,
    }
    let specs: Vec<AggSpec> = aggs
        .iter()
        .map(|(a, _)| match a {
            ScalarExpr::Agg { func, distinct, arg } => Ok(AggSpec {
                func: *func,
                distinct: *distinct,
                arg: arg.as_deref(),
                ty: a.ty(),
            }),
            other => Err(format!("aggregate list contains non-aggregate {other}")),
        })
        .collect::<Result<_, _>>()?;

    // Group — preserving first-seen order for determinism: `slots` maps a
    // key to its position in `groups`.
    let mut slots: HashMap<Vec<Datum>, usize> = HashMap::new();
    let mut groups: Vec<(Vec<Datum>, Vec<AggState>)> = Vec::new();
    // Each distinct group holds a key vector plus aggregate states; the
    // ticker charges that hash-table growth and checkpoints the loop.
    let mut ticker = ChargeTicker::new(group_by.len() + aggs.len());
    let mut rows_seen = 0u64;
    for row in &rows {
        rows_seen += 1;
        if rows_seen.is_multiple_of(ChargeTicker::BATCH) {
            hyperq_governor::checkpoint().map_err(|c| c.to_string())?;
        }
        let mut scopes = outer.to_vec();
        scopes.push((&schema, row));
        let mut ctx = EvalContext { db, memo, scopes };
        let mut key = Vec::with_capacity(group_by.len());
        for (g, _) in group_by {
            key.push(eval(g, &mut ctx)?);
        }
        let slot = match slots.get(&key) {
            Some(&slot) => slot,
            None => {
                ticker.produced()?;
                slots.insert(key.clone(), groups.len());
                let states =
                    specs.iter().map(|s| AggState::new(s.func, s.distinct, s.ty.clone())).collect();
                groups.push((key, states));
                groups.len() - 1
            }
        };
        for (state, spec) in groups[slot].1.iter_mut().zip(specs.iter()) {
            match spec.arg {
                Some(a) => state.update(Some(&eval(a, &mut ctx)?))?,
                None => state.update(None)?,
            }
        }
    }
    ticker.flush()?;

    // Global aggregate over empty input still produces one row.
    if groups.is_empty() && group_by.is_empty() {
        let states: Vec<AggState> = specs
            .iter()
            .map(|s| AggState::new(s.func, s.distinct, s.ty.clone()))
            .collect();
        let mut row = Vec::with_capacity(specs.len());
        for s in states {
            row.push(s.finish()?);
        }
        return Ok(vec![row]);
    }

    let mut out = Vec::with_capacity(groups.len());
    for (key, states) in groups {
        let mut row = key;
        for s in states {
            row.push(s.finish()?);
        }
        out.push(row);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

fn execute_join(
    kind: JoinKind,
    left: &RelExpr,
    right: &RelExpr,
    condition: Option<&ScalarExpr>,
    db: &EngineDb,
    memo: &SubqueryMemo,
    outer: &Scopes<'_>,
) -> Result<Vec<Row>, EvalError> {
    let lschema = left.schema();
    let rschema = right.schema();
    // Residual predicates always see the concatenated row, regardless of
    // the join's output schema (semi/anti joins output only the left side).
    let combined_schema = lschema.join(&rschema);
    let lrows = execute_rel(left, db, memo, outer)?;
    let rrows = execute_rel(right, db, memo, outer)?;
    let lwidth = lschema.len();
    let rwidth = rschema.len();

    // Try to extract hash keys from the condition. Keys and residual
    // borrow from the plan: the subquery memo keys on node addresses, so
    // execution must not clone plan nodes into temporaries.
    let (lkeys, rkeys, residual) = match condition {
        Some(c) if kind != JoinKind::Cross => split_equi_condition(c, &lschema, &rschema),
        _ => (Vec::new(), Vec::new(), condition.into_iter().collect()),
    };

    let eval_keys = |exprs: &[&ScalarExpr],
                     schema: &Schema,
                     row: &Row|
     -> Result<Option<Vec<Datum>>, EvalError> {
        let mut scopes = outer.to_vec();
        scopes.push((schema, row));
        let mut ctx = EvalContext { db, memo, scopes };
        let mut key = Vec::with_capacity(exprs.len());
        for e in exprs {
            let v = eval(e, &mut ctx)?;
            if v.is_null() {
                return Ok(None); // NULL keys never join.
            }
            key.push(v);
        }
        Ok(Some(key))
    };

    // The residual conjuncts under AND's three-valued logic: FALSE stops
    // the scan, UNKNOWN does not, and only all-TRUE passes.
    let residual_ok = |combined: &Row| -> Result<bool, EvalError> {
        if residual.is_empty() {
            return Ok(true);
        }
        let mut scopes = outer.to_vec();
        scopes.push((&combined_schema, combined));
        let mut ctx = EvalContext { db, memo, scopes };
        let mut all_true = true;
        for p in &residual {
            match eval_truth(p, &mut ctx)? {
                Some(false) => return Ok(false),
                None => all_true = false,
                Some(true) => {}
            }
        }
        Ok(all_true)
    };

    let mut out: Vec<Row> = Vec::new();
    let mut right_matched = vec![false; rrows.len()];
    // Semi/anti joins output left-width rows; everything else the
    // concatenated width. The ticker charges the join's output
    // incrementally so a runaway cross join dies mid-build.
    let semi_anti = matches!(kind, JoinKind::Semi | JoinKind::Anti);
    let out_width = if semi_anti { lwidth } else { lwidth + rwidth };
    let mut ticker = ChargeTicker::new(out_width);

    if !lkeys.is_empty() {
        // Hash join: build on the right.
        let mut table: HashMap<Vec<Datum>, Vec<usize>> = HashMap::new();
        for (i, row) in rrows.iter().enumerate() {
            if let Some(key) = eval_keys(&rkeys, &rschema, row)? {
                table.entry(key).or_default().push(i);
            }
        }
        // The build side holds one key vector per right row on top of the
        // already-charged input; account for it up front.
        hyperq_governor::charge(rrows.len() as u64 * row_bytes(rkeys.len()))
            .map_err(|c| c.to_string())?;
        for lrow in &lrows {
            let mut matched = false;
            if let Some(key) = eval_keys(&lkeys, &lschema, lrow)? {
                if let Some(candidates) = table.get(&key) {
                    for &ri in candidates {
                        let mut combined = lrow.clone();
                        combined.extend(rrows[ri].iter().cloned());
                        if residual_ok(&combined)? {
                            matched = true;
                            right_matched[ri] = true;
                            if !semi_anti {
                                out.push(combined);
                                ticker.produced()?;
                            } else {
                                break;
                            }
                        }
                    }
                }
            }
            match kind {
                JoinKind::Semi if matched => out.push(lrow.clone()),
                JoinKind::Anti if !matched => out.push(lrow.clone()),
                JoinKind::Left | JoinKind::Full if !matched => {
                    let mut padded = lrow.clone();
                    padded.extend(std::iter::repeat_n(Datum::Null, rwidth));
                    out.push(padded);
                }
                _ => {}
            }
            ticker.produced()?;
        }
    } else {
        // Nested-loop join.
        for lrow in &lrows {
            let mut matched = false;
            for (ri, rrow) in rrows.iter().enumerate() {
                let mut combined = lrow.clone();
                combined.extend(rrow.iter().cloned());
                if residual_ok(&combined)? {
                    matched = true;
                    right_matched[ri] = true;
                    if !semi_anti {
                        out.push(combined);
                        ticker.produced()?;
                    } else {
                        break;
                    }
                }
            }
            match kind {
                JoinKind::Semi if matched => out.push(lrow.clone()),
                JoinKind::Anti if !matched => out.push(lrow.clone()),
                JoinKind::Left | JoinKind::Full if !matched => {
                    let mut padded = lrow.clone();
                    padded.extend(std::iter::repeat_n(Datum::Null, rwidth));
                    out.push(padded);
                }
                _ => {}
            }
            ticker.produced()?;
        }
    }

    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        for (ri, m) in right_matched.iter().enumerate() {
            if !m {
                let mut padded: Row = std::iter::repeat_n(Datum::Null, lwidth).collect();
                padded.extend(rrows[ri].iter().cloned());
                out.push(padded);
                ticker.produced()?;
            }
        }
    }
    ticker.flush()?;
    Ok(out)
}

/// The hash-joinable equi-pairs of an AND-tree (left keys, right keys)
/// plus the residual conjuncts.
type EquiSplit<'e> = (Vec<&'e ScalarExpr>, Vec<&'e ScalarExpr>, Vec<&'e ScalarExpr>);

/// Split an AND-tree into hash-joinable equi-pairs plus a residual.
fn split_equi_condition<'e>(c: &'e ScalarExpr, lschema: &Schema, rschema: &Schema) -> EquiSplit<'e> {
    let mut lkeys = Vec::new();
    let mut rkeys = Vec::new();
    let mut residual = Vec::new();
    for conj in conjuncts(c) {
        if let ScalarExpr::Cmp { op: CmpOp::Eq, left, right } = conj {
            if resolves_in(left, lschema) && resolves_in(right, rschema) {
                lkeys.push(&**left);
                rkeys.push(&**right);
                continue;
            }
            if resolves_in(left, rschema) && resolves_in(right, lschema) {
                lkeys.push(&**right);
                rkeys.push(&**left);
                continue;
            }
        }
        residual.push(conj);
    }
    (lkeys, rkeys, residual)
}

/// The conjuncts of a (possibly nested) AND-tree, left to right.
pub(crate) fn conjuncts(e: &ScalarExpr) -> Vec<&ScalarExpr> {
    fn walk<'e>(e: &'e ScalarExpr, out: &mut Vec<&'e ScalarExpr>) {
        match e {
            ScalarExpr::BoolExpr { op: BoolOp::And, args } => {
                for a in args {
                    walk(a, out);
                }
            }
            other => out.push(other),
        }
    }
    let mut out = Vec::new();
    walk(e, &mut out);
    out
}

/// Does every column reference in `e` resolve in `schema`, with at least
/// one column and no subqueries?
fn resolves_in(e: &ScalarExpr, schema: &Schema) -> bool {
    let mut has_column = false;
    let mut all_resolve = true;
    let mut has_subquery = false;
    e.visit(
        &mut |x| match x {
            ScalarExpr::Column { qualifier, name, .. } => {
                has_column = true;
                if !matches!(schema.try_resolve(qualifier.as_deref(), name), Ok(Some(_))) {
                    all_resolve = false;
                }
            }
            ScalarExpr::ScalarSubquery(_)
            | ScalarExpr::Exists { .. }
            | ScalarExpr::InSubquery { .. }
            | ScalarExpr::QuantifiedCmp { .. } => has_subquery = true,
            _ => {}
        },
        &mut |_| {},
    );
    has_column && all_resolve && !has_subquery
}

// ---------------------------------------------------------------------------
// Set operations
// ---------------------------------------------------------------------------

fn execute_setop(kind: SetOpKind, all: bool, l: Vec<Row>, r: Vec<Row>) -> Vec<Row> {
    match (kind, all) {
        (SetOpKind::Union, true) => {
            let mut out = l;
            out.extend(r);
            out
        }
        (SetOpKind::Union, false) => {
            let mut seen: HashSet<Row> = HashSet::new();
            let mut out = Vec::new();
            for row in l.into_iter().chain(r) {
                if seen.insert(row.clone()) {
                    out.push(row);
                }
            }
            out
        }
        (SetOpKind::Intersect, false) => {
            let rset: HashSet<Row> = r.into_iter().collect();
            let mut seen: HashSet<Row> = HashSet::new();
            l.into_iter()
                .filter(|row| rset.contains(row) && seen.insert(row.clone()))
                .collect()
        }
        (SetOpKind::Intersect, true) => {
            let mut counts: HashMap<Row, usize> = HashMap::new();
            for row in r {
                *counts.entry(row).or_insert(0) += 1;
            }
            l.into_iter()
                .filter(|row| {
                    if let Some(c) = counts.get_mut(row) {
                        if *c > 0 {
                            *c -= 1;
                            return true;
                        }
                    }
                    false
                })
                .collect()
        }
        (SetOpKind::Except, false) => {
            let rset: HashSet<Row> = r.into_iter().collect();
            let mut seen: HashSet<Row> = HashSet::new();
            l.into_iter()
                .filter(|row| !rset.contains(row) && seen.insert(row.clone()))
                .collect()
        }
        (SetOpKind::Except, true) => {
            let mut counts: HashMap<Row, usize> = HashMap::new();
            for row in r {
                *counts.entry(row).or_insert(0) += 1;
            }
            l.into_iter()
                .filter(|row| {
                    if let Some(c) = counts.get_mut(row) {
                        if *c > 0 {
                            *c -= 1;
                            return false;
                        }
                    }
                    true
                })
                .collect()
        }
    }
}
