//! Relational operator execution.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use std::sync::Arc;

use hyperq_xtra::datum::Datum;
use hyperq_xtra::expr::{AggFunc, BoolOp, CmpOp, ScalarExpr, SortExpr, WindowFuncKind};
use hyperq_xtra::rel::{Grouping, JoinKind, RelExpr, SetOpKind};
use hyperq_xtra::schema::Schema;
use hyperq_xtra::Row;

use crate::db::EngineDb;
use crate::eval::{eval, eval_truth, AggState, EvalContext, EvalError, Slots};
use crate::memo::SubqueryMemo;

type Scopes<'a> = [(&'a Schema, &'a Row)];

/// An operator's output. A scan hands out the table's copy-on-write
/// snapshot itself; every other operator owns the rows it built. Either
/// way it reads as a slice of rows.
#[derive(Debug)]
pub enum Rows {
    Shared(Arc<Vec<Row>>),
    Owned(Vec<Row>),
}

impl Deref for Rows {
    type Target = [Row];

    fn deref(&self) -> &[Row] {
        match self {
            Rows::Shared(rows) => rows,
            Rows::Owned(rows) => rows,
        }
    }
}

impl Rows {
    /// The rows as a vector of their own; only a shared snapshot is copied.
    pub fn into_vec(self) -> Vec<Row> {
        match self {
            Rows::Shared(rows) => Arc::unwrap_or_clone(rows),
            Rows::Owned(rows) => rows,
        }
    }

    /// The rows whose `keep` flag is set, in order: moved when owned,
    /// cloned when shared, passed on as they are when every flag is set.
    fn keep(self, keep: &[bool]) -> Rows {
        if keep.iter().all(|&k| k) {
            return self;
        }
        Rows::Owned(match self {
            Rows::Shared(rows) => {
                rows.iter().zip(keep).filter(|(_, &k)| k).map(|(r, _)| r.clone()).collect()
            }
            Rows::Owned(rows) => {
                rows.into_iter().zip(keep).filter_map(|(r, &k)| k.then_some(r)).collect()
            }
        })
    }

    /// The rows in `start..end`; a shared snapshot copies only those.
    fn window(self, start: usize, end: usize) -> Rows {
        if start == 0 && end == self.len() {
            return self;
        }
        Rows::Owned(match self {
            Rows::Shared(rows) => rows[start..end].to_vec(),
            Rows::Owned(mut rows) => {
                rows.truncate(end);
                rows.drain(..start);
                rows
            }
        })
    }
}

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

/// A governor checkpoint on every `ChargeTicker::BATCH`-th row an
/// operator's row loop reads (`i` counts from 0).
fn tick(i: usize) -> Result<(), EvalError> {
    if (i as u64 + 1).is_multiple_of(ChargeTicker::BATCH) {
        hyperq_governor::checkpoint().map_err(|c| c.to_string())?;
    }
    Ok(())
}

/// Execute a relational tree, with `outer` scopes available for correlated
/// column references and `memo` holding the statement's subquery results.
pub fn execute_rel(
    rel: &RelExpr,
    db: &EngineDb,
    memo: &SubqueryMemo,
    outer: &Scopes<'_>,
) -> Result<Rows, EvalError> {
    // Cooperative cancellation at every operator boundary; row loops
    // additionally tick every `ChargeTicker::BATCH` rows.
    hyperq_governor::checkpoint().map_err(|c| c.to_string())?;
    let out = match rel {
        RelExpr::Get { table, .. } => Rows::Shared(db.scan(table)?),
        RelExpr::Values { rows, .. } => {
            let mut ctx = EvalContext::new(db, memo, outer);
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let mut vals = Vec::with_capacity(row.len());
                for e in row {
                    vals.push(eval(e, &mut ctx)?);
                }
                out.push(vals);
            }
            Rows::Owned(out)
        }
        RelExpr::Select { input, predicate } => {
            let schema = input.schema();
            let rows = execute_rel(input, db, memo, outer)?;
            let mut ctx = EvalContext::for_rows(db, memo, outer, &schema);
            let mut keep = Vec::with_capacity(rows.len());
            for (i, row) in rows.iter().enumerate() {
                tick(i)?;
                ctx.set_row(row);
                keep.push(eval_truth(predicate, &mut ctx)? == Some(true));
            }
            rows.keep(&keep)
        }
        RelExpr::Project { input, exprs } => {
            let schema = input.schema();
            let rows = execute_rel(input, db, memo, outer)?;
            let mut ctx = EvalContext::for_rows(db, memo, outer, &schema);
            let mut out = Vec::with_capacity(rows.len());
            for (i, row) in rows.iter().enumerate() {
                tick(i)?;
                ctx.set_row(row);
                let mut projected = Vec::with_capacity(exprs.len());
                for (e, _) in exprs {
                    projected.push(eval(e, &mut ctx)?);
                }
                out.push(projected);
            }
            Rows::Owned(out)
        }
        RelExpr::Window { input, exprs } => {
            Rows::Owned(execute_window(input, exprs, db, memo, outer)?)
        }
        RelExpr::Join { kind, left, right, condition } => Rows::Owned(execute_join(
            *kind,
            left,
            right,
            condition.as_ref(),
            db,
            memo,
            outer,
        )?),
        RelExpr::Aggregate { input, group_by, grouping, aggs } => {
            if matches!(grouping, Grouping::Sets(_)) {
                // SimWH truthfully lacks OLAP grouping extensions; Hyper-Q's
                // expansion rule must fire before SQL reaches the engine.
                return Err("GROUPING SETS are not supported by this warehouse".to_string());
            }
            Rows::Owned(execute_aggregate(input, group_by, aggs, db, memo, outer)?)
        }
        RelExpr::Distinct { input } => {
            let rows = execute_rel(input, db, memo, outer)?;
            let mut seen: HashSet<&Row> = HashSet::with_capacity(rows.len());
            let keep: Vec<bool> = rows.iter().map(|r| seen.insert(r)).collect();
            rows.keep(&keep)
        }
        RelExpr::Sort { input, keys } => {
            let schema = input.schema();
            let rows = execute_rel(input, db, memo, outer)?;
            Rows::Owned(sort_rows(rows, &schema, keys, db, memo, outer)?)
        }
        RelExpr::Limit { input, limit, offset, with_ties } => {
            if *with_ties {
                return Err("FETCH ... WITH TIES is not supported by this warehouse".to_string());
            }
            let rows = execute_rel(input, db, memo, outer)?;
            let start = (*offset as usize).min(rows.len());
            let end = limit.map_or(rows.len(), |n| start.saturating_add(n as usize).min(rows.len()));
            rows.window(start, end)
        }
        RelExpr::SetOp { kind, all, left, right } => {
            let l = execute_rel(left, db, memo, outer)?;
            let r = execute_rel(right, db, memo, outer)?;
            execute_setop(*kind, *all, l, r)
        }
        RelExpr::Alias { input, .. } => execute_rel(input, db, memo, outer)?,
    };
    // Joins charge incrementally while producing (see ChargeTicker);
    // every other operator charges its output here, once — a scan its
    // snapshot's rows, as if it had copied them.
    if !matches!(rel, RelExpr::Join { .. }) {
        charge_rows(&out)?;
    }
    Ok(out)
}

/// Sort rows by the given keys. NULL placement defaults to "NULLs high"
/// (last ascending, first descending) — deliberately *different* from
/// Teradata, so the explicit-NULL-ordering rewrite is observable.
pub fn sort_rows(
    rows: Rows,
    schema: &Schema,
    keys: &[SortExpr],
    db: &EngineDb,
    memo: &SubqueryMemo,
    outer: &Scopes<'_>,
) -> Result<Vec<Row>, EvalError> {
    let mut ctx = EvalContext::for_rows(db, memo, outer, schema);
    let mut key_rows: Vec<Vec<Datum>> = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        tick(i)?;
        ctx.set_row(row);
        let mut kv = Vec::with_capacity(keys.len());
        for k in keys {
            kv.push(eval(&k.expr, &mut ctx)?);
        }
        key_rows.push(kv);
    }
    let mut keyed: Vec<(Vec<Datum>, Row)> = key_rows.into_iter().zip(rows.into_vec()).collect();
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
    let mut ctx = EvalContext::for_rows(db, memo, outer, &schema);

    for w in exprs {
        // Evaluate partition and order keys per row.
        let mut part_keys: Vec<Vec<Datum>> = Vec::with_capacity(n);
        let mut order_keys: Vec<Vec<Datum>> = Vec::with_capacity(n);
        let mut args: Vec<Option<Datum>> = Vec::with_capacity(n);
        for (i, row) in rows.iter().enumerate() {
            tick(i)?;
            ctx.set_row(row);
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
                    let arg = |i: usize| match agg {
                        AggFunc::CountStar => None,
                        _ => args[i].as_ref(),
                    };
                    let mut state = AggState::new(*agg, false, w.ty());
                    if w.order_by.is_empty() {
                        // Whole-partition aggregate broadcast.
                        for &i in &indices {
                            state.update(arg(i))?;
                        }
                        let v = state.finish()?;
                        for &i in &indices {
                            results[i] = v.clone();
                        }
                    } else {
                        // Default frame: RANGE UNBOUNDED PRECEDING — a
                        // running aggregate including peers. One state
                        // accumulates the partition in order, and each peer
                        // group finishes a copy of it.
                        let mut pos = 0usize;
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
                                state.update(arg(i))?;
                            }
                            let v = state.clone().finish()?;
                            for &i in &indices[pos..end] {
                                results[i] = v.clone();
                            }
                            pos = end;
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
        .into_vec()
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
        func: AggFunc,
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
    let mut ctx = EvalContext::for_rows(db, memo, outer, &schema);
    for (i, row) in rows.iter().enumerate() {
        tick(i)?;
        ctx.set_row(row);
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

/// A row's hash-join key, or `None` when a component is NULL: NULL keys
/// never join.
fn eval_key(exprs: &[&ScalarExpr], ctx: &mut EvalContext<'_>) -> Result<Option<Vec<Datum>>, EvalError> {
    let mut key = Vec::with_capacity(exprs.len());
    for e in exprs {
        let v = eval(e, ctx)?;
        if v.is_null() {
            return Ok(None);
        }
        key.push(v);
    }
    Ok(Some(key))
}

/// The conjuncts under AND's three-valued logic: FALSE stops the scan,
/// UNKNOWN does not, and only all-TRUE passes.
fn all_true(conjuncts: &[&ScalarExpr], ctx: &mut EvalContext<'_>) -> Result<bool, EvalError> {
    let mut all_true = true;
    for p in conjuncts {
        match eval_truth(p, ctx)? {
            Some(false) => return Ok(false),
            None => all_true = false,
            Some(true) => {}
        }
    }
    Ok(all_true)
}

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
    // borrow from the plan: the subquery memo and the evaluator's slot
    // cache key on node addresses, so execution must not clone plan nodes
    // into temporaries.
    let (lkeys, rkeys, residual) = match condition {
        Some(c) if kind != JoinKind::Cross => split_equi_condition(c, &lschema, &rschema),
        _ => (Vec::new(), Vec::new(), condition.into_iter().collect()),
    };

    // A combined row lives for one candidate pair, so each pair gets a
    // context of its own; the resolved slots pass from pair to pair, since
    // every pair has the same combined schema.
    let mut residual_slots = Slots::default();
    let mut residual_ok = |combined: &Row| -> Result<bool, EvalError> {
        if residual.is_empty() {
            return Ok(true);
        }
        let mut ctx = EvalContext::for_rows(db, memo, outer, &combined_schema);
        ctx.set_row(combined);
        ctx.swap_slots(&mut residual_slots);
        let verdict = all_true(&residual, &mut ctx);
        ctx.swap_slots(&mut residual_slots);
        verdict
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
        let mut rctx = EvalContext::for_rows(db, memo, outer, &rschema);
        for (i, row) in rrows.iter().enumerate() {
            rctx.set_row(row);
            if let Some(key) = eval_key(&rkeys, &mut rctx)? {
                table.entry(key).or_default().push(i);
            }
        }
        // The build side holds one key vector per right row on top of the
        // already-charged input; account for it up front.
        hyperq_governor::charge(rrows.len() as u64 * row_bytes(rkeys.len()))
            .map_err(|c| c.to_string())?;
        let mut lctx = EvalContext::for_rows(db, memo, outer, &lschema);
        for lrow in lrows.iter() {
            lctx.set_row(lrow);
            let mut matched = false;
            if let Some(key) = eval_key(&lkeys, &mut lctx)? {
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
        for lrow in lrows.iter() {
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

/// A set operation over its two inputs. Rows are hashed by reference and
/// only the survivors are copied out of a shared scan.
fn execute_setop(kind: SetOpKind, all: bool, l: Rows, r: Rows) -> Rows {
    let keep: Vec<bool> = match (kind, all) {
        (SetOpKind::Union, true) => {
            let mut out = l.into_vec();
            out.extend(r.into_vec());
            return Rows::Owned(out);
        }
        (SetOpKind::Union, false) => {
            let mut seen: HashSet<&Row> = HashSet::new();
            let lkeep: Vec<bool> = l.iter().map(|row| seen.insert(row)).collect();
            let rkeep: Vec<bool> = r.iter().map(|row| seen.insert(row)).collect();
            let mut out = l.keep(&lkeep).into_vec();
            out.extend(r.keep(&rkeep).into_vec());
            return Rows::Owned(out);
        }
        (SetOpKind::Intersect | SetOpKind::Except, false) => {
            let rset: HashSet<&Row> = r.iter().collect();
            let mut seen: HashSet<&Row> = HashSet::new();
            let intersect = kind == SetOpKind::Intersect;
            l.iter().map(|row| rset.contains(row) == intersect && seen.insert(row)).collect()
        }
        (SetOpKind::Intersect | SetOpKind::Except, true) => {
            let mut counts: HashMap<&Row, usize> = HashMap::new();
            for row in r.iter() {
                *counts.entry(row).or_insert(0) += 1;
            }
            // Each right row cancels one equal left row: INTERSECT ALL
            // keeps the cancelled ones, EXCEPT ALL the rest.
            let intersect = kind == SetOpKind::Intersect;
            l.iter()
                .map(|row| {
                    let cancelled = match counts.get_mut(row) {
                        Some(c) if *c > 0 => {
                            *c -= 1;
                            true
                        }
                        _ => false,
                    };
                    cancelled == intersect
                })
                .collect()
        }
    };
    l.keep(&keep)
}

#[cfg(test)]
mod tests {
    use hyperq_xtra::datum::Datum;
    use hyperq_xtra::expr::{AggFunc, ArithOp, CmpOp, ScalarExpr};
    use hyperq_xtra::rel::{Grouping, JoinKind, RelExpr, SetOpKind};
    use hyperq_xtra::types::SqlType;
    use hyperq_xtra::Row;

    use super::{execute_rel, Rows};
    use crate::memo::SubqueryMemo;
    use crate::EngineDb;

    fn db(setup: &[&str]) -> EngineDb {
        let db = EngineDb::new();
        for sql in setup {
            db.execute_sql(sql).unwrap();
        }
        db
    }

    fn get(db: &EngineDb, table: &str, alias: &str) -> RelExpr {
        let schema = db.table_def(table).unwrap().schema(Some(alias));
        RelExpr::Get { table: table.into(), alias: Some(alias.into()), schema }
    }

    fn col(qualifier: Option<&str>, name: &str) -> ScalarExpr {
        ScalarExpr::column(qualifier, name, SqlType::Integer)
    }

    fn text(rows: &[Row]) -> Vec<Vec<String>> {
        rows.iter().map(|r| r.iter().map(Datum::to_sql_string).collect()).collect()
    }

    fn strings(rows: &[&[&str]]) -> Vec<Vec<String>> {
        rows.iter().map(|r| r.iter().map(|s| (*s).to_string()).collect()).collect()
    }

    fn run(db: &EngineDb, plan: &RelExpr) -> Result<Vec<Vec<String>>, String> {
        execute_rel(plan, db, &SubqueryMemo::default(), &[]).map(|rows| text(&rows))
    }

    fn query(db: &EngineDb, sql: &str) -> Vec<Row> {
        db.execute_sql(sql).unwrap().rows
    }

    #[test]
    fn a_name_ambiguous_in_a_self_join_falls_through_to_the_outer_scope() {
        // σ[A.K = K](T AS A × T AS B) under O: the bare K matches both A.K
        // and B.K, so it is O's K, on the first row and on every cached one.
        let db = db(&[
            "CREATE TABLE T (K INTEGER)",
            "INSERT INTO T VALUES (1), (2), (2)",
            "CREATE TABLE O (K INTEGER)",
            "INSERT INTO O VALUES (2), (3)",
        ]);
        let pairs = RelExpr::Select {
            input: Box::new(RelExpr::Join {
                kind: JoinKind::Cross,
                left: Box::new(get(&db, "T", "A")),
                right: Box::new(get(&db, "T", "B")),
                condition: None,
            }),
            predicate: ScalarExpr::cmp(CmpOp::Eq, col(Some("A"), "K"), col(None, "K")),
        };
        let count = RelExpr::Aggregate {
            input: Box::new(pairs),
            group_by: vec![],
            grouping: Grouping::Simple,
            aggs: vec![(
                ScalarExpr::Agg { func: AggFunc::CountStar, distinct: false, arg: None },
                "N".into(),
            )],
        };
        let plan = RelExpr::Project {
            input: Box::new(get(&db, "O", "O")),
            exprs: vec![
                (col(Some("O"), "K"), "K".into()),
                (ScalarExpr::ScalarSubquery(Box::new(count)), "N".into()),
            ],
        };
        // O.K = 2: two A rows match, times three B rows; O.K = 3: none.
        assert_eq!(run(&db, &plan), Ok(strings(&[&["2", "6"], &["3", "0"]])));
    }

    #[test]
    fn one_name_at_different_positions_in_two_operators() {
        // K is column 0 of R, under the filter and the join's build side,
        // and column 3 of L ⋈ R, in the residual and the projection.
        let db = db(&[
            "CREATE TABLE L (A INTEGER, B VARCHAR(5), C INTEGER)",
            "INSERT INTO L VALUES (1, 'x', 10), (2, 'y', 20), (3, 'z', 30)",
            "CREATE TABLE R (K INTEGER, V VARCHAR(5))",
            "INSERT INTO R VALUES (1, 'p'), (2, 'q'), (3, 'r'), (3, 's'), (4, 't')",
        ]);
        let k = || col(None, "K");
        let plan = RelExpr::Project {
            input: Box::new(RelExpr::Join {
                kind: JoinKind::Inner,
                left: Box::new(get(&db, "L", "L")),
                right: Box::new(RelExpr::Select {
                    input: Box::new(get(&db, "R", "R")),
                    predicate: ScalarExpr::cmp(CmpOp::Gt, k(), ScalarExpr::int(1)),
                }),
                condition: Some(ScalarExpr::and(vec![
                    ScalarExpr::cmp(CmpOp::Eq, col(None, "A"), k()),
                    ScalarExpr::cmp(CmpOp::Gt, col(None, "C"), k()),
                ])),
            }),
            exprs: vec![
                (col(None, "A"), "A".into()),
                (k(), "K".into()),
                (ScalarExpr::column(None, "V", SqlType::Varchar(Some(5))), "V".into()),
                (ScalarExpr::arith(ArithOp::Add, col(None, "C"), k()), "CK".into()),
            ],
        };
        assert_eq!(
            run(&db, &plan),
            Ok(strings(&[&["2", "2", "q", "22"], &["3", "3", "r", "33"], &["3", "3", "s", "33"]]))
        );
    }

    #[test]
    fn an_unresolvable_reference_fails_on_rows_and_not_without_them() {
        let db = db(&["CREATE TABLE E (X INTEGER)"]);
        let select = RelExpr::Select {
            input: Box::new(get(&db, "E", "E")),
            predicate: ScalarExpr::cmp(CmpOp::Eq, col(Some("E"), "X"), col(Some("NOPE"), "Y")),
        };
        let project = RelExpr::Project {
            input: Box::new(get(&db, "E", "E")),
            exprs: vec![(col(None, "Y"), "Y".into())],
        };
        assert_eq!(run(&db, &select), Ok(vec![]));
        assert_eq!(run(&db, &project), Ok(vec![]));

        db.execute_sql("INSERT INTO E VALUES (1), (2)").unwrap();
        assert_eq!(run(&db, &select), Err("column NOPE.Y not found at execution time".into()));
        assert_eq!(run(&db, &project), Err("column Y not found at execution time".into()));
    }

    #[test]
    fn limit_and_offset_over_a_bare_scan() {
        let db = db(&["CREATE TABLE T (K INTEGER)", "INSERT INTO T VALUES (1), (2), (3), (4), (5)"]);
        let limit = |limit: Option<u64>, offset: u64| RelExpr::Limit {
            input: Box::new(get(&db, "T", "T")),
            limit,
            offset,
            with_ties: false,
        };
        assert_eq!(run(&db, &limit(Some(2), 1)), Ok(strings(&[&["2"], &["3"]])));
        assert_eq!(run(&db, &limit(Some(5), 3)), Ok(strings(&[&["4"], &["5"]])));
        assert_eq!(run(&db, &limit(None, 9)), Ok(vec![]));
        assert_eq!(run(&db, &limit(Some(2), 9)), Ok(vec![]));
        assert_eq!(run(&db, &limit(Some(0), 0)), Ok(vec![]));
        assert_eq!(run(&db, &limit(Some(u64::MAX), 4)), Ok(strings(&[&["5"]])));
        // A window that is the whole table is the snapshot itself.
        let whole = execute_rel(&limit(Some(5), 0), &db, &SubqueryMemo::default(), &[]);
        assert!(matches!(whole, Ok(Rows::Shared(_))), "{whole:?}");
    }

    #[test]
    fn distinct_and_set_ops_over_a_bare_scan_keep_first_seen_order() {
        let db = db(&[
            "CREATE TABLE T (K INTEGER)",
            "INSERT INTO T VALUES (3), (1), (3), (2), (1)",
            "CREATE TABLE U (K INTEGER)",
            "INSERT INTO U VALUES (2), (4), (3), (5), (4)",
        ]);
        let distinct = RelExpr::Distinct { input: Box::new(get(&db, "T", "T")) };
        assert_eq!(run(&db, &distinct), Ok(strings(&[&["3"], &["1"], &["2"]])));
        let setop = |kind: SetOpKind, all: bool| RelExpr::SetOp {
            kind,
            all,
            left: Box::new(get(&db, "T", "T")),
            right: Box::new(get(&db, "U", "U")),
        };
        let cases: [(SetOpKind, bool, &[&[&str]]); 6] = [
            (SetOpKind::Union, false, &[&["3"], &["1"], &["2"], &["4"], &["5"]]),
            (
                SetOpKind::Union,
                true,
                &[&["3"], &["1"], &["3"], &["2"], &["1"], &["2"], &["4"], &["3"], &["5"], &["4"]],
            ),
            (SetOpKind::Intersect, false, &[&["3"], &["2"]]),
            (SetOpKind::Intersect, true, &[&["3"], &["2"]]),
            (SetOpKind::Except, false, &[&["1"]]),
            (SetOpKind::Except, true, &[&["1"], &["3"], &["1"]]),
        ];
        for (kind, all, expected) in cases {
            assert_eq!(run(&db, &setop(kind, all)), Ok(strings(expected)), "{kind:?} all={all}");
        }
    }

    #[test]
    fn a_borrowed_snapshot_survives_a_later_update() {
        let db = db(&["CREATE TABLE T (C INTEGER)", "INSERT INTO T VALUES (1), (2)"]);
        let before = execute_rel(&get(&db, "T", "T"), &db, &SubqueryMemo::default(), &[]).unwrap();
        assert!(matches!(before, Rows::Shared(_)));
        let after = db
            .execute_sql("SELECT C FROM T; UPDATE T SET C = C * 10; SELECT C FROM T")
            .unwrap();
        assert_eq!(text(&before), strings(&[&["1"], &["2"]]));
        assert_eq!(text(&after.rows), strings(&[&["10"], &["20"]]));
    }

    #[test]
    fn running_aggregates_include_peers_and_skip_nulls() {
        // ORDER BY K puts the NULL key last; IDs 2 and 3 are peers.
        let db = db(&[
            "CREATE TABLE T (ID INTEGER, K INTEGER, V INTEGER)",
            "INSERT INTO T VALUES (1, 1, 10), (2, 2, NULL), (3, 2, 4), (4, 3, 1), (5, NULL, 5)",
        ]);
        let rows = query(
            &db,
            "SELECT ID, SUM(V) OVER (ORDER BY K) AS S, COUNT(V) OVER (ORDER BY K) AS C, \
             COUNT(*) OVER (ORDER BY K) AS N, AVG(V) OVER (ORDER BY K) AS A FROM T ORDER BY ID",
        );
        let row = |id: i64, s: i64, c: i64, n: i64, a: f64| {
            vec![Datum::Int(id), Datum::Int(s), Datum::Int(c), Datum::Int(n), Datum::Double(a)]
        };
        assert_eq!(
            rows,
            vec![
                row(1, 10, 1, 1, 10.0),
                row(2, 14, 2, 3, 7.0),
                row(3, 14, 2, 3, 7.0),
                row(4, 15, 3, 4, 5.0),
                row(5, 20, 4, 5, 5.0),
            ]
        );
    }

    #[test]
    fn a_running_sum_over_a_long_partition_is_every_prefix_sum() {
        let db = db(&["CREATE TABLE T (K INTEGER)"]);
        let n = 5_000;
        db.load_rows("T", (1..=n).rev().map(|k| vec![Datum::Int(k)]).collect()).unwrap();
        let rows = query(&db, "SELECT K, SUM(K) OVER (ORDER BY K) AS S FROM T");
        assert_eq!(rows.len(), n as usize);
        for row in rows {
            let Datum::Int(k) = row[0] else { panic!("{row:?}") };
            assert_eq!(row[1], Datum::Int(k * (k + 1) / 2));
        }
    }
}
