//! Relational operator execution.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use hyperq_xtra::datum::Datum;
use hyperq_xtra::expr::{AggFunc, BoolOp, CmpOp, ScalarExpr, SortExpr, WindowFuncKind};
use hyperq_xtra::rel::{Grouping, JoinKind, RelExpr, SetOpKind};
use hyperq_xtra::schema::Schema;
use hyperq_xtra::Row;

use crate::db::EngineDb;
use crate::eval::{eval, eval_truth, AggState, EvalContext, EvalError, Scope};
use crate::keys::{Groups, KeyIndex, NO_KEY};
use crate::memo::SubqueryMemo;

type Scopes<'a> = [Scope<'a>];

/// An operator's output. A scan hands out the table's copy-on-write
/// snapshot itself, and a filter or window over a snapshot hands out the
/// indices of the rows it keeps; every other operator owns the rows it
/// built.
#[derive(Debug)]
pub enum Rows {
    Shared(Arc<Vec<Row>>),
    /// The snapshot's rows at these indices, in this order.
    Picked(Arc<Vec<Row>>, Vec<usize>),
    Owned(Vec<Row>),
}

impl Rows {
    pub fn len(&self) -> usize {
        match self {
            Rows::Shared(rows) => rows.len(),
            Rows::Picked(_, picks) => picks.len(),
            Rows::Owned(rows) => rows.len(),
        }
    }

    /// The `i`-th row.
    pub fn get(&self, i: usize) -> Option<&Row> {
        match self {
            Rows::Shared(rows) => rows.get(i),
            Rows::Picked(rows, picks) => picks.get(i).map(|&p| &rows[p]),
            Rows::Owned(rows) => rows.get(i),
        }
    }

    /// The rows in order, by reference.
    pub fn iter(&self) -> impl Iterator<Item = &Row> + '_ {
        let (rows, picks) = match self {
            Rows::Shared(rows) => (rows.as_slice(), None),
            Rows::Picked(rows, picks) => (rows.as_slice(), Some(picks.as_slice())),
            Rows::Owned(rows) => (rows.as_slice(), None),
        };
        (0..picks.map_or(rows.len(), <[usize]>::len)).map(move |i| match picks {
            Some(picks) => &rows[picks[i]],
            None => &rows[i],
        })
    }

    /// The rows as a vector of their own; a shared snapshot's rows are
    /// copied, and so are picked ones.
    pub fn into_vec(self) -> Vec<Row> {
        match self {
            Rows::Shared(rows) => Arc::unwrap_or_clone(rows),
            Rows::Picked(rows, picks) => picks.iter().map(|&i| rows[i].clone()).collect(),
            Rows::Owned(rows) => rows,
        }
    }

    /// The rows whose `keep` flag is set, in order: moved when owned,
    /// picked by index from a snapshot, passed on as they are when every
    /// flag is set.
    fn keep(self, keep: &[bool]) -> Rows {
        if keep.iter().all(|&k| k) {
            return self;
        }
        match self {
            Rows::Shared(rows) => {
                Rows::Picked(rows, keep.iter().enumerate().filter(|(_, &k)| k).map(|(i, _)| i).collect())
            }
            Rows::Picked(rows, picks) => {
                Rows::Picked(rows, picks.into_iter().zip(keep).filter_map(|(i, &k)| k.then_some(i)).collect())
            }
            Rows::Owned(rows) => {
                Rows::Owned(rows.into_iter().zip(keep).filter_map(|(r, &k)| k.then_some(r)).collect())
            }
        }
    }

    /// The rows in `start..end`; a snapshot's are picked by index.
    fn window(self, start: usize, end: usize) -> Rows {
        if start == 0 && end == self.len() {
            return self;
        }
        match self {
            Rows::Shared(rows) => Rows::Picked(rows, (start..end).collect()),
            Rows::Picked(rows, mut picks) => {
                picks.truncate(end);
                picks.drain(..start);
                Rows::Picked(rows, picks)
            }
            Rows::Owned(mut rows) => {
                rows.truncate(end);
                rows.drain(..start);
                Rows::Owned(rows)
            }
        }
    }
}

/// Rough heap footprint of one materialized row of `width` columns: the
/// `Vec<Datum>` header plus a per-datum estimate. Deliberately coarse —
/// the governor ledger wants an early, cheap bound, not an allocator.
fn row_bytes(width: usize) -> u64 {
    48 + 24 * width as u64
}

/// Charge an operator's output to the statement's resource ledger (no-op
/// without an installed governor). A denied charge cancels the statement,
/// surfacing the budget error instead of an engine OOM. Snapshot rows,
/// shared or picked, are charged as if they had been copied.
fn charge_rows(rows: &Rows) -> Result<(), EvalError> {
    let Some(first) = rows.get(0) else {
        return Ok(());
    };
    hyperq_governor::charge(rows.len() as u64 * row_bytes(first.len())).map_err(|c| c.to_string())
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
            if let RelExpr::Join { kind, left, right, condition } = &**input {
                let join = JoinInputs::new(*kind, left, right, condition.as_ref());
                if let Some(emit) = join.emit_list(exprs) {
                    // The join builds the projected rows itself and its
                    // ticker charges them: this is the join's operator
                    // boundary, and nothing is left to charge below.
                    hyperq_governor::checkpoint().map_err(|c| c.to_string())?;
                    return execute_join(&join, &emit, db, memo, outer).map(Rows::Owned);
                }
            }
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
        RelExpr::Join { kind, left, right, condition } => {
            let join = JoinInputs::new(*kind, left, right, condition.as_ref());
            return execute_join(&join, &join.all_columns(), db, memo, outer).map(Rows::Owned);
        }
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
    // Joins charge incrementally while producing (see ChargeTicker) and
    // return above; every other operator charges its output here, once.
    charge_rows(&out)?;
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
    // Every row's key values back to back: row i's are
    // `values[i * width..(i + 1) * width]`.
    let width = keys.len();
    let mut values = Vec::with_capacity(rows.len() * width);
    let mut ctx = EvalContext::for_rows(db, memo, outer, schema);
    for (i, row) in rows.iter().enumerate() {
        tick(i)?;
        ctx.set_row(row);
        for k in keys {
            values.push(eval(&k.expr, &mut ctx)?);
        }
    }
    let key = |i: usize| &values[i * width..(i + 1) * width];
    // A stable sort of row numbers: ties keep their input order.
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| compare_key_rows(key(a), key(b), keys));
    let mut rows = rows.into_vec();
    Ok(order.into_iter().map(|i| std::mem::take(&mut rows[i])).collect())
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
    // Each window function computes one column, independently.
    let mut columns: Vec<Vec<Datum>> = Vec::with_capacity(exprs.len());
    let mut ctx = EvalContext::for_rows(db, memo, outer, &schema);

    for w in exprs {
        // Per row: its partition's number, its order key (row i's is
        // `order[i * width..(i + 1) * width]`) and its argument.
        let width = w.order_by.len();
        let mut partitions = KeyIndex::new(w.partition_by.len());
        let mut partition_of = Vec::with_capacity(n);
        let mut order = Vec::with_capacity(n * width);
        let mut args: Vec<Option<Datum>> = Vec::with_capacity(n);
        let mut key = Vec::with_capacity(w.partition_by.len());
        for (i, row) in rows.iter().enumerate() {
            tick(i)?;
            ctx.set_row(row);
            key.clear();
            for p in &w.partition_by {
                key.push(eval(p, &mut ctx)?);
            }
            partition_of.push(partitions.insert(&mut key).0);
            for k in &w.order_by {
                order.push(eval(&k.expr, &mut ctx)?);
            }
            args.push(match &w.arg {
                Some(a) => Some(eval(a, &mut ctx)?),
                None => None,
            });
        }
        let order_key = |i: usize| &order[i * width..(i + 1) * width];

        let mut members = Groups::new(&partition_of, partitions.len());
        let mut results: Vec<Datum> = vec![Datum::Null; n];
        for p in 0..partitions.len() {
            let indices = members.get_mut(p);
            indices.sort_by(|&a, &b| compare_key_rows(order_key(a), order_key(b), &w.order_by));
            let indices = &*indices;
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
                    let mut prev: Option<&[Datum]> = None;
                    for (pos, &i) in indices.iter().enumerate() {
                        let tie = prev.is_some_and(|p| {
                            compare_key_rows(p, order_key(i), &w.order_by) == Ordering::Equal
                        });
                        if !tie {
                            rank = pos as i64 + 1;
                            dense_rank += 1;
                        }
                        results[i] = Datum::Int(if dense { dense_rank } else { rank });
                        prev = Some(order_key(i));
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
                        for &i in indices {
                            state.update(arg(i))?;
                        }
                        let v = state.finish()?;
                        for &i in indices {
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
                                    order_key(indices[pos]),
                                    order_key(indices[end]),
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
        columns.push(results);
    }

    // Each row at its final width: its own columns, then one per function.
    let mut columns: Vec<_> = columns.into_iter().map(Vec::into_iter).collect();
    Ok(rows
        .iter()
        .map(|row| {
            let mut out = Vec::with_capacity(row.len() + columns.len());
            out.extend_from_slice(row);
            out.extend(columns.iter_mut().filter_map(Iterator::next));
            out
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
    impl AggSpec<'_> {
        fn state(&self) -> AggState {
            AggState::new(self.func, self.distinct, self.ty.clone())
        }
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

    // Group in first-seen order: `groups` numbers each distinct key, and
    // group g's aggregate states are `states[g * n..(g + 1) * n]`.
    let n = specs.len();
    let mut groups = KeyIndex::new(group_by.len());
    let mut states: Vec<AggState> = Vec::new();
    // Each distinct group holds a key plus aggregate states; the ticker
    // charges that growth and checkpoints the loop.
    let mut ticker = ChargeTicker::new(group_by.len() + aggs.len());
    let mut ctx = EvalContext::for_rows(db, memo, outer, &schema);
    let mut key = Vec::with_capacity(group_by.len());
    for (i, row) in rows.iter().enumerate() {
        tick(i)?;
        ctx.set_row(row);
        key.clear();
        for (g, _) in group_by {
            key.push(eval(g, &mut ctx)?);
        }
        let (group, new) = groups.insert(&mut key);
        if new {
            ticker.produced()?;
            states.extend(specs.iter().map(AggSpec::state));
        }
        for (state, spec) in states[group * n..(group + 1) * n].iter_mut().zip(&specs) {
            match spec.arg {
                Some(a) => state.update(Some(&eval(a, &mut ctx)?))?,
                None => state.update(None)?,
            }
        }
    }
    ticker.flush()?;

    // Global aggregate over empty input still produces one row.
    if groups.len() == 0 && group_by.is_empty() {
        let row = specs.iter().map(|s| s.state().finish()).collect::<Result<_, _>>()?;
        return Ok(vec![row]);
    }

    let count = groups.len();
    let mut keys = groups.into_values().into_iter();
    let mut states = states.into_iter();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let mut row = Vec::with_capacity(group_by.len() + n);
        row.extend(keys.by_ref().take(group_by.len()));
        for s in states.by_ref().take(n) {
            row.push(s.finish()?);
        }
        out.push(row);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// A join node's parts, borrowed from the plan, with the schemas its
/// execution reads.
struct JoinInputs<'p> {
    kind: JoinKind,
    left: &'p RelExpr,
    right: &'p RelExpr,
    condition: Option<&'p ScalarExpr>,
    lschema: Schema,
    rschema: Schema,
    /// Left ⧺ right: what the condition sees, whatever the join outputs.
    combined: Schema,
}

impl<'p> JoinInputs<'p> {
    fn new(
        kind: JoinKind,
        left: &'p RelExpr,
        right: &'p RelExpr,
        condition: Option<&'p ScalarExpr>,
    ) -> Self {
        let (lschema, rschema) = (left.schema(), right.schema());
        let combined = lschema.join(&rschema);
        JoinInputs { kind, left, right, condition, lschema, rschema, combined }
    }

    /// Semi/anti joins output the left row alone.
    fn output(&self) -> &Schema {
        match self.kind {
            JoinKind::Semi | JoinKind::Anti => &self.lschema,
            _ => &self.combined,
        }
    }

    /// Every output column, as indices into left ⧺ right.
    fn all_columns(&self) -> Vec<usize> {
        (0..self.output().len()).collect()
    }

    /// The output columns a projection over this join reads, as indices
    /// into left ⧺ right (see [`emit_list`]).
    fn emit_list(&self, exprs: &[(ScalarExpr, String)]) -> Option<Vec<usize>> {
        emit_list(exprs, self.output())
    }
}

/// The columns of `schema` that a projection reads, or `None` unless every
/// expression is a plain column reference that resolves uniquely in
/// `schema` — exactly the projections a join can build itself, since the
/// evaluator would read each of those references from the join's row.
pub(crate) fn emit_list(exprs: &[(ScalarExpr, String)], schema: &Schema) -> Option<Vec<usize>> {
    exprs
        .iter()
        .map(|(e, _)| match e {
            ScalarExpr::Column { qualifier, name, .. } => {
                schema.try_resolve(qualifier.as_deref(), name).ok().flatten()
            }
            _ => None,
        })
        .collect()
}

/// Each row's join key, numbered in `index`: inserted when `build`, only
/// looked up otherwise. A key with a NULL, or one a lookup does not find,
/// is `NO_KEY`: NULL keys never join.
fn key_numbers<'r>(
    rows: impl Iterator<Item = &'r Row>,
    exprs: &[&ScalarExpr],
    ctx: &mut EvalContext<'r>,
    index: &mut KeyIndex,
    build: bool,
) -> Result<Vec<usize>, EvalError> {
    let mut numbers = Vec::with_capacity(rows.size_hint().0);
    let mut key = Vec::with_capacity(exprs.len());
    'rows: for (i, row) in rows.enumerate() {
        tick(i)?;
        ctx.set_row(row);
        key.clear();
        for e in exprs {
            let v = eval(e, ctx)?;
            if v.is_null() {
                numbers.push(NO_KEY);
                continue 'rows;
            }
            key.push(v);
        }
        numbers.push(if build { index.insert(&mut key).0 } else { index.find(&key).unwrap_or(NO_KEY) });
    }
    Ok(numbers)
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

/// Does the candidate pair pass the residual? `pair` scopes the combined
/// schema, so the two rows are tested in place: a rejected candidate
/// builds nothing.
fn pair_passes<'r>(
    residual: &[&ScalarExpr],
    pair: &mut EvalContext<'r>,
    lrow: &'r [Datum],
    rrow: &'r [Datum],
) -> Result<bool, EvalError> {
    if residual.is_empty() {
        return Ok(true);
    }
    pair.set_pair(lrow, rrow);
    all_true(residual, pair)
}

/// The output row of a pair: the `emit` columns of left ⧺ right, built once
/// and at its exact width.
fn emit_row(emit: &[usize], lrow: &[Datum], rrow: &[Datum]) -> Row {
    emit.iter()
        .map(|&i| match lrow.get(i) {
            Some(d) => d.clone(),
            None => rrow[i - lrow.len()].clone(),
        })
        .collect()
}

/// Execute a join, building only the `emit` columns of each output row.
fn execute_join(
    join: &JoinInputs<'_>,
    emit: &[usize],
    db: &EngineDb,
    memo: &SubqueryMemo,
    outer: &Scopes<'_>,
) -> Result<Vec<Row>, EvalError> {
    let JoinInputs { kind, left, right, condition, lschema, rschema, combined } = join;
    let lrows = execute_rel(left, db, memo, outer)?;
    let right_rows = execute_rel(right, db, memo, outer)?;
    // Candidates and padding read the right side by position.
    let rrows: Vec<&Row> = right_rows.iter().collect();

    // Try to extract hash keys from the condition. Keys and residual
    // borrow from the plan: the subquery memo and the evaluator's slot
    // cache key on node addresses, so execution must not clone plan nodes
    // into temporaries.
    let (lkeys, rkeys, residual) = match condition {
        Some(c) if *kind != JoinKind::Cross => split_equi_condition(c, lschema, rschema),
        _ => (Vec::new(), Vec::new(), condition.iter().copied().collect()),
    };

    // Hash join: a left row's candidates are the right rows with an equal
    // key, in order; without keys, every right row is a candidate (nested
    // loop). The smaller input's keys go into the index and the larger
    // input's are only looked up, so the index holds the smaller input's
    // distinct keys and a larger-side row whose key it lacks drops out.
    let hashed = if lkeys.is_empty() {
        None
    } else {
        let mut index = KeyIndex::new(lkeys.len());
        let mut lctx = EvalContext::for_rows(db, memo, outer, lschema);
        let mut rctx = EvalContext::for_rows(db, memo, outer, rschema);
        let (lnums, rnums) = if lrows.len() < rrows.len() {
            let lnums = key_numbers(lrows.iter(), &lkeys, &mut lctx, &mut index, true)?;
            (lnums, key_numbers(rrows.iter().copied(), &rkeys, &mut rctx, &mut index, false)?)
        } else {
            let rnums = key_numbers(rrows.iter().copied(), &rkeys, &mut rctx, &mut index, true)?;
            (key_numbers(lrows.iter(), &lkeys, &mut lctx, &mut index, false)?, rnums)
        };
        // The index holds one key per distinct key of the smaller input on
        // top of the already-charged inputs; account for it up front.
        hyperq_governor::charge(index.len() as u64 * row_bytes(lkeys.len()))
            .map_err(|c| c.to_string())?;
        Some((lnums, Groups::new(&rnums, index.len())))
    };
    let every_right: Vec<usize> = if hashed.is_none() { (0..rrows.len()).collect() } else { Vec::new() };

    let semi_anti = matches!(kind, JoinKind::Semi | JoinKind::Anti);
    let rnulls = vec![Datum::Null; rschema.len()];
    let mut out: Vec<Row> = Vec::new();
    let mut right_matched = vec![false; rrows.len()];
    // The ticker charges the join's output at the width it emits,
    // incrementally, so a runaway cross join dies mid-build.
    let mut ticker = ChargeTicker::new(emit.len());
    let mut pair = EvalContext::for_rows(db, memo, outer, combined);
    for (li, lrow) in lrows.iter().enumerate() {
        let candidates: &[usize] = match &hashed {
            Some((lnums, rgroups)) => rgroups.get(lnums[li]),
            None => &every_right,
        };
        let mut matched = false;
        for &ri in candidates {
            let rrow = rrows[ri];
            if pair_passes(&residual, &mut pair, lrow, rrow)? {
                matched = true;
                right_matched[ri] = true;
                if semi_anti {
                    break;
                }
                out.push(emit_row(emit, lrow, rrow));
                ticker.produced()?;
            }
        }
        match kind {
            JoinKind::Semi if matched => out.push(emit_row(emit, lrow, &[])),
            JoinKind::Anti if !matched => out.push(emit_row(emit, lrow, &[])),
            JoinKind::Left | JoinKind::Full if !matched => out.push(emit_row(emit, lrow, &rnulls)),
            _ => {}
        }
        ticker.produced()?;
    }

    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        let lnulls = vec![Datum::Null; lschema.len()];
        for (rrow, _) in rrows.iter().zip(&right_matched).filter(|(_, &m)| !m) {
            out.push(emit_row(emit, &lnulls, rrow));
            ticker.produced()?;
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

/// The width of every join's output rows in `rel`: the projection's width
/// when a plain-column projection over the join is fused into it, else the
/// join's schema width. Pre-order, subqueries included.
#[cfg(test)]
pub(crate) fn join_widths(rel: &RelExpr) -> Vec<usize> {
    let mut widths = Vec::new();
    let mut fused: Vec<*const RelExpr> = Vec::new();
    rel.visit(&mut |_| {}, &mut |r| match r {
        RelExpr::Project { input, exprs } if matches!(**input, RelExpr::Join { .. }) => {
            if let Some(emit) = emit_list(exprs, &input.schema()) {
                fused.push(std::ptr::from_ref(&**input));
                widths.push(emit.len());
            }
        }
        RelExpr::Join { .. } if !fused.contains(&std::ptr::from_ref(r)) => {
            widths.push(r.schema().len());
        }
        _ => {}
    });
    widths
}

// ---------------------------------------------------------------------------
// Set operations
// ---------------------------------------------------------------------------

/// A set operation over its two inputs. Rows are hashed by reference, and
/// a snapshot's survivors are picked, not copied.
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

    use super::{execute_rel, join_widths, Rows};
    use crate::memo::SubqueryMemo;
    use crate::optimize::optimize;
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

    fn join(kind: JoinKind, left: RelExpr, right: RelExpr, condition: Option<ScalarExpr>) -> RelExpr {
        RelExpr::Join { kind, left: Box::new(left), right: Box::new(right), condition }
    }

    fn eq(l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::cmp(CmpOp::Eq, l, r)
    }

    fn agg(func: AggFunc, arg: Option<ScalarExpr>, name: &str) -> (ScalarExpr, String) {
        (ScalarExpr::Agg { func, distinct: false, arg: arg.map(Box::new) }, name.into())
    }

    fn aggregate(input: RelExpr, aggs: Vec<(ScalarExpr, String)>) -> RelExpr {
        RelExpr::Aggregate { input: Box::new(input), group_by: vec![], grouping: Grouping::Simple, aggs }
    }

    fn project(input: RelExpr, cols: &[(Option<&str>, &str)]) -> RelExpr {
        RelExpr::Project {
            input: Box::new(input),
            exprs: cols.iter().map(|&(q, n)| (col(q, n), n.to_string())).collect(),
        }
    }

    fn text(rows: &[Row]) -> Vec<Vec<String>> {
        rows.iter().map(|r| r.iter().map(Datum::to_sql_string).collect()).collect()
    }

    fn strings(rows: &[&[&str]]) -> Vec<Vec<String>> {
        rows.iter().map(|r| r.iter().map(|s| (*s).to_string()).collect()).collect()
    }

    fn run(db: &EngineDb, plan: &RelExpr) -> Result<Vec<Vec<String>>, String> {
        execute_rel(plan, db, &SubqueryMemo::default(), &[]).map(|rows| text(&rows.into_vec()))
    }

    /// `plan` optimized as a statement, with its join output widths, and
    /// its rows.
    fn run_optimized(db: &EngineDb, plan: &RelExpr) -> (Vec<usize>, Result<Vec<Vec<String>>, String>) {
        let optimized = optimize(plan.clone());
        (join_widths(&optimized), run(db, &optimized))
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
            input: Box::new(join(JoinKind::Cross, get(&db, "T", "A"), get(&db, "T", "B"), None)),
            predicate: eq(col(Some("A"), "K"), col(None, "K")),
        };
        let count = aggregate(pairs, vec![agg(AggFunc::CountStar, None, "N")]);
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
    fn an_ambiguous_name_over_a_narrowed_self_join_still_falls_through() {
        // SUM(K) over T AS A ⋈ T AS B under O: the bare K is ambiguous in
        // the join, so it is O's K. The aggregate reads by name, so the join
        // is narrowed to the fields named K; both stay, and K stays
        // ambiguous.
        let db = db(&[
            "CREATE TABLE T (K INTEGER, V INTEGER)",
            "INSERT INTO T VALUES (1, 10), (2, 20), (2, 30)",
            "CREATE TABLE O (K INTEGER)",
            "INSERT INTO O VALUES (2), (3)",
        ]);
        let pairs = join(
            JoinKind::Inner,
            get(&db, "T", "A"),
            get(&db, "T", "B"),
            Some(eq(col(Some("A"), "K"), col(Some("B"), "K"))),
        );
        let sum = aggregate(pairs, vec![agg(AggFunc::Sum, Some(col(None, "K")), "S")]);
        let plan = RelExpr::Project {
            input: Box::new(get(&db, "O", "O")),
            exprs: vec![
                (col(Some("O"), "K"), "K".into()),
                (ScalarExpr::ScalarSubquery(Box::new(sum)), "S".into()),
            ],
        };
        // Five pairs (1-1 and four 2-2), each adding O.K.
        let expected = Ok(strings(&[&["2", "10"], &["3", "15"]]));
        assert_eq!(run(&db, &plan), expected);
        assert_eq!(run_optimized(&db, &plan), (vec![2], expected));
    }

    #[test]
    fn a_column_only_a_correlated_subquery_reads_survives_the_narrowing() {
        let db = db(&[
            "CREATE TABLE L (K INTEGER, A INTEGER, X INTEGER, LPAD INTEGER)",
            "INSERT INTO L VALUES (1, 10, 100, 0), (2, 20, 200, 0), (3, 30, 300, 0)",
            "CREATE TABLE R (K INTEGER, B INTEGER, RPAD INTEGER)",
            "INSERT INTO R VALUES (1, 5, 0), (3, 6, 0), (3, 7, 0)",
            "CREATE TABLE S (X INTEGER, Y INTEGER)",
            "INSERT INTO S VALUES (100, 1), (100, 2), (300, 9)",
        ]);
        // L.X is read only inside the subquery, above the join.
        let sql = "SELECT L.A, (SELECT MAX(S.Y) FROM S WHERE S.X = L.X) AS M \
                   FROM L, R WHERE L.K = R.K ORDER BY L.A";
        assert_eq!(text(&query(&db, sql)), strings(&[&["10", "2"], &["30", "9"], &["30", "9"]]));
        // Of L ⧺ R's seven fields the join builds L.K, L.A, L.X and R.K.
        assert_eq!(join_widths(&optimize(db.bind_query(sql))), vec![4]);
    }

    #[test]
    fn joins_read_whole_or_by_position_are_not_narrowed() {
        let db = db(&[
            "CREATE TABLE L (K INTEGER, A INTEGER)",
            "INSERT INTO L VALUES (1, 10), (1, 11), (2, 20)",
            "CREATE TABLE R (K INTEGER, B INTEGER)",
            "INSERT INTO R VALUES (1, 5), (1, 5), (2, 6)",
            "CREATE TABLE LR (K INTEGER, A INTEGER, K2 INTEGER, B INTEGER)",
        ]);
        let lr = || {
            join(
                JoinKind::Inner,
                get(&db, "L", "L"),
                get(&db, "R", "R"),
                Some(eq(col(Some("L"), "K"), col(Some("R"), "K"))),
            )
        };
        // Narrowed to its K fields, the join under DISTINCT would collapse
        // to two rows.
        let distinct = RelExpr::Distinct { input: Box::new(lr()) };
        let (widths, rows) = run_optimized(&db, &distinct);
        assert_eq!(widths, vec![4]);
        assert_eq!(
            rows,
            Ok(strings(&[&["1", "10", "1", "5"], &["1", "11", "1", "5"], &["2", "20", "2", "6"]]))
        );
        let union = RelExpr::SetOp {
            kind: SetOpKind::Union,
            all: false,
            left: Box::new(lr()),
            right: Box::new(lr()),
        };
        let (widths, rows) = run_optimized(&db, &union);
        assert_eq!(widths, vec![4, 4]);
        assert_eq!(rows.map(|r| r.len()), Ok(3));
        let (widths, rows) = run_optimized(&db, &lr());
        assert_eq!(widths, vec![4]);
        assert_eq!(rows.map(|r| r.len()), Ok(5));

        let star = "SELECT * FROM L, R WHERE L.K = R.K";
        assert_eq!(join_widths(&optimize(db.bind_query(star))), vec![4]);
        assert_eq!(query(&db, star).len(), 5);
        db.execute_sql(&format!("INSERT INTO LR {star}")).unwrap();
        assert_eq!(
            text(&query(&db, "SELECT * FROM LR ORDER BY A, B")),
            strings(&[
                &["1", "10", "1", "5"],
                &["1", "10", "1", "5"],
                &["1", "11", "1", "5"],
                &["1", "11", "1", "5"],
                &["2", "20", "2", "6"],
            ])
        );
    }

    #[test]
    fn outer_semi_and_anti_joins_build_only_the_emitted_columns() {
        let db = db(&[
            "CREATE TABLE L (K INTEGER, A INTEGER)",
            "INSERT INTO L VALUES (1, 10), (2, 20), (4, 40)",
            "CREATE TABLE R (K INTEGER, B INTEGER)",
            "INSERT INTO R VALUES (1, 5), (3, 6), (4, 7), (4, 8)",
        ]);
        let cases: [(JoinKind, &[&[&str]]); 6] = [
            (JoinKind::Inner, &[&["10", "5"], &["40", "7"], &["40", "8"]]),
            (JoinKind::Left, &[&["10", "5"], &["20", "NULL"], &["40", "7"], &["40", "8"]]),
            (JoinKind::Right, &[&["10", "5"], &["40", "7"], &["40", "8"], &["NULL", "6"]]),
            (
                JoinKind::Full,
                &[&["10", "5"], &["20", "NULL"], &["40", "7"], &["40", "8"], &["NULL", "6"]],
            ),
            (JoinKind::Semi, &[&["10"], &["40"]]),
            (JoinKind::Anti, &[&["20"]]),
        ];
        for (kind, expected) in cases {
            let on = Some(eq(col(Some("L"), "K"), col(Some("R"), "K")));
            let pairs = join(kind, get(&db, "L", "L"), get(&db, "R", "R"), on);
            let emitted: &[(Option<&str>, &str)] = match kind {
                JoinKind::Semi | JoinKind::Anti => &[(Some("L"), "A")],
                _ => &[(Some("L"), "A"), (Some("R"), "B")],
            };
            let plan = project(pairs, emitted);
            assert_eq!(join_widths(&plan), vec![emitted.len()], "{kind:?}");
            assert_eq!(run(&db, &plan), Ok(strings(expected)), "{kind:?}");
        }
    }

    #[test]
    fn a_hash_join_matches_its_nested_loop_twin_whichever_input_it_indexes() {
        // S is the smaller input on either side: S ⋈ B indexes its left
        // input's keys, B ⋈ S its right one's. Each returns the rows of the
        // same join run as a nested loop (the equality as a residual the key
        // split does not take), in the same order: INTEGER and DECIMAL keys
        // compare by value, NULL keys join nothing, both sides repeat keys.
        let db = db(&[
            "CREATE TABLE S (K DECIMAL(5,2), A INTEGER)",
            "INSERT INTO S VALUES (1.00, 10), (NULL, 11), (3, 12), (1, 13)",
            "CREATE TABLE B (K INTEGER, C INTEGER)",
            "INSERT INTO B VALUES (3, 20), (1, 21), (NULL, 22), (5, 23), (1, 24), (3, 25), (4, 26)",
        ]);
        let hashed = |l: &str, r: &str| Some(eq(col(Some(l), "K"), col(Some(r), "K")));
        let nested = |l: &str, r: &str| {
            let ne = ScalarExpr::cmp(CmpOp::Ne, col(Some(l), "K"), col(Some(r), "K"));
            Some(ScalarExpr::Not(Box::new(ne)))
        };
        let kinds =
            [JoinKind::Inner, JoinKind::Left, JoinKind::Right, JoinKind::Full, JoinKind::Semi, JoinKind::Anti];
        for kind in kinds {
            for (l, r) in [("S", "B"), ("B", "S")] {
                let plan = |on| join(kind, get(&db, l, l), get(&db, r, r), on);
                let rows = run(&db, &plan(hashed(l, r)));
                assert_eq!(rows, run(&db, &plan(nested(l, r))), "{kind:?} {l} ⋈ {r}");
                assert!(rows.is_ok_and(|rows| !rows.is_empty()), "{kind:?} {l} ⋈ {r}");
            }
        }
        let pairs = |l: &str, r: &str| {
            let on = hashed(l, r);
            project(join(JoinKind::Inner, get(&db, l, l), get(&db, r, r), on), &[(Some("S"), "A"), (Some("B"), "C")])
        };
        assert_eq!(
            run(&db, &pairs("S", "B")),
            Ok(strings(&[&["10", "21"], &["10", "24"], &["12", "20"], &["12", "25"], &["13", "21"], &["13", "24"]]))
        );
        assert_eq!(
            run(&db, &pairs("B", "S")),
            Ok(strings(&[&["12", "20"], &["10", "21"], &["13", "21"], &["10", "24"], &["13", "24"], &["12", "25"]]))
        );
    }

    #[test]
    fn groups_come_out_in_first_seen_order_keyed_by_value() {
        // UNION ALL keeps each branch's representation: 1 and 1.00 are one
        // group, shown as first seen; NULLs are one group.
        let db = db(&[
            "CREATE TABLE TI (K INTEGER, V INTEGER)",
            "INSERT INTO TI VALUES (2, 1), (NULL, 2), (1, 3)",
            "CREATE TABLE TD (K DECIMAL(5,2), V INTEGER)",
            "INSERT INTO TD VALUES (1.00, 4), (NULL, 5), (2.50, 6)",
        ]);
        let rows = query(
            &db,
            "SELECT K, SUM(V) AS S, COUNT(*) AS N FROM \
             (SELECT K, V FROM TI UNION ALL SELECT K, V FROM TD) AS U GROUP BY K",
        );
        assert_eq!(
            text(&rows),
            strings(&[&["2", "1", "1"], &["NULL", "7", "2"], &["1", "7", "2"], &["2.50", "6", "1"]])
        );
    }

    #[test]
    fn window_partitions_and_sorts_keep_ties_in_input_order() {
        // Partitions: 'b' and 'b ' are one, NULLs are one. IDs 1 and 6 tie
        // on V in partition b, and so do IDs 2 and 4 in the whole table.
        let db = db(&[
            "CREATE TABLE T (ID INTEGER, G VARCHAR(5), V INTEGER)",
            "INSERT INTO T VALUES (1, 'b', 3), (2, NULL, 1), (3, 'a', 2), (4, 'b ', 1), (5, NULL, 4), (6, 'b', 3)",
        ]);
        let rows = query(
            &db,
            "SELECT ID, ROW_NUMBER() OVER (PARTITION BY G ORDER BY V) AS RN, \
             RANK() OVER (PARTITION BY G ORDER BY V) AS R, SUM(V) OVER (PARTITION BY G) AS S \
             FROM T ORDER BY ID",
        );
        assert_eq!(
            text(&rows),
            strings(&[
                &["1", "2", "2", "7"],
                &["2", "1", "1", "5"],
                &["3", "1", "1", "2"],
                &["4", "1", "1", "7"],
                &["5", "2", "2", "5"],
                &["6", "3", "2", "7"],
            ])
        );
        let ids = |sql: &str| text(&query(&db, sql)).concat();
        assert_eq!(ids("SELECT ID FROM T ORDER BY V"), ["2", "4", "3", "1", "6", "5"]);
        assert_eq!(ids("SELECT ID FROM T ORDER BY V DESC"), ["5", "1", "6", "3", "2", "4"]);
        assert_eq!(ids("SELECT ID FROM T WHERE ID > 1 ORDER BY G, V"), ["3", "4", "6", "2", "5"]);
    }

    #[test]
    fn counting_a_cross_join_builds_zero_width_rows() {
        let db = db(&[
            "CREATE TABLE A (X INTEGER, Y INTEGER)",
            "INSERT INTO A VALUES (1, 1), (2, 2), (3, 3)",
            "CREATE TABLE B (Z INTEGER)",
            "INSERT INTO B VALUES (1), (2), (3), (4)",
        ]);
        let sql = "SELECT COUNT(*) FROM A, B";
        assert_eq!(query(&db, sql), vec![vec![Datum::Int(12)]]);
        assert_eq!(join_widths(&optimize(db.bind_query(sql))), vec![0]);
    }

    #[test]
    fn a_join_with_a_duplicated_field_is_left_whole() {
        // Both sides expose T.K, so a projection of T.K would not resolve:
        // the join stays whole although only K and W are read.
        let db = db(&[
            "CREATE TABLE T (K INTEGER, V INTEGER)",
            "INSERT INTO T VALUES (1, 10), (2, 20)",
            "CREATE TABLE U (K INTEGER, W INTEGER)",
            "INSERT INTO U VALUES (7, 3), (8, 4)",
        ]);
        let left = RelExpr::Select {
            input: Box::new(get(&db, "T", "T")),
            predicate: ScalarExpr::cmp(CmpOp::Gt, col(None, "K"), ScalarExpr::int(0)),
        };
        let plan = aggregate(
            join(JoinKind::Cross, left, get(&db, "U", "T"), None),
            vec![agg(AggFunc::CountStar, None, "N"), agg(AggFunc::Max, Some(col(None, "W")), "M")],
        );
        assert_eq!(run_optimized(&db, &plan), (vec![4], Ok(strings(&[&["4", "4"]]))));
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
            input: Box::new(join(
                JoinKind::Inner,
                get(&db, "L", "L"),
                RelExpr::Select {
                    input: Box::new(get(&db, "R", "R")),
                    predicate: ScalarExpr::cmp(CmpOp::Gt, k(), ScalarExpr::int(1)),
                },
                Some(ScalarExpr::and(vec![
                    eq(col(None, "A"), k()),
                    ScalarExpr::cmp(CmpOp::Gt, col(None, "C"), k()),
                ])),
            )),
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
            predicate: eq(col(Some("E"), "X"), col(Some("NOPE"), "Y")),
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
    fn limit_and_offset_over_a_filtered_scan_pick_from_the_snapshot() {
        let db = db(&["CREATE TABLE T (K INTEGER)", "INSERT INTO T VALUES (1), (2), (3), (4), (5), (6)"]);
        let limit = |limit: Option<u64>, offset: u64| RelExpr::Limit {
            input: Box::new(RelExpr::Select {
                input: Box::new(get(&db, "T", "T")),
                predicate: ScalarExpr::cmp(CmpOp::Gt, col(None, "K"), ScalarExpr::int(2)),
            }),
            limit,
            offset,
            with_ties: false,
        };
        assert_eq!(run(&db, &limit(Some(2), 1)), Ok(strings(&[&["4"], &["5"]])));
        assert_eq!(run(&db, &limit(None, 2)), Ok(strings(&[&["5"], &["6"]])));
        assert_eq!(run(&db, &limit(Some(9), 0)), Ok(strings(&[&["3"], &["4"], &["5"], &["6"]])));
        assert_eq!(run(&db, &limit(Some(1), 9)), Ok(vec![]));
        let picked = execute_rel(&limit(Some(2), 1), &db, &SubqueryMemo::default(), &[]).unwrap();
        assert!(matches!(&picked, Rows::Picked(_, picks) if picks == &[3, 4]), "{picked:?}");
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
        for (kind, all) in [(SetOpKind::Intersect, false), (SetOpKind::Except, true)] {
            let rows = execute_rel(&setop(kind, all), &db, &SubqueryMemo::default(), &[]);
            assert!(matches!(rows, Ok(Rows::Picked(..))), "{kind:?} all={all}: {rows:?}");
        }
        for (kind, all, expected) in cases {
            assert_eq!(run(&db, &setop(kind, all)), Ok(strings(expected)), "{kind:?} all={all}");
        }
    }

    #[test]
    fn a_borrowed_snapshot_survives_a_later_update() {
        let db = db(&["CREATE TABLE T (C INTEGER)", "INSERT INTO T VALUES (1), (2), (3)"]);
        let scan = get(&db, "T", "T");
        let filter = RelExpr::Select {
            input: Box::new(get(&db, "T", "T")),
            predicate: ScalarExpr::cmp(CmpOp::Gt, col(None, "C"), ScalarExpr::int(1)),
        };
        let before = execute_rel(&scan, &db, &SubqueryMemo::default(), &[]).unwrap();
        assert!(matches!(before, Rows::Shared(_)));
        let picked = execute_rel(&filter, &db, &SubqueryMemo::default(), &[]).unwrap();
        assert!(matches!(picked, Rows::Picked(..)));
        let after = db
            .execute_sql("SELECT C FROM T WHERE C > 1; UPDATE T SET C = C * 10; SELECT C FROM T WHERE C > 1")
            .unwrap();
        assert_eq!(text(&before.into_vec()), strings(&[&["1"], &["2"], &["3"]]));
        assert_eq!(text(&picked.into_vec()), strings(&[&["2"], &["3"]]));
        assert_eq!(text(&after.rows), strings(&[&["10"], &["20"], &["30"]]));
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
