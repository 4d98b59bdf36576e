//! Relational operator execution.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use hyperq_xtra::datum::Datum;
use hyperq_xtra::expr::{AggFunc, BoolOp, CmpOp, ScalarExpr, SortExpr, WindowFuncKind};
use hyperq_xtra::rel::{Grouping, JoinKind, RelExpr, SetOpKind};
use hyperq_xtra::schema::Schema;
use hyperq_xtra::Row;

use crate::compile::{Acc, Aggregate, Predicate};
use crate::db::EngineDb;
use crate::eval::{eval, AggState, EvalContext, EvalError, Scope};
use crate::keys::{Groups, KeyIndex, KeyState, KeyValue, NO_KEY};
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
            let predicate = Predicate::compile(predicate, &schema);
            let mut keep = Vec::with_capacity(rows.len());
            for (i, row) in rows.iter().enumerate() {
                tick(i)?;
                ctx.set_row(row);
                keep.push(predicate.holds(&mut ctx)?);
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
            match emit_list(exprs.iter().map(|(e, _)| e), &schema) {
                // Every input column once, in order (renames only): the
                // input rows are the output, charged below for the copy
                // that the first consumer needing rows of its own makes
                // with `into_vec`.
                Some(columns) if columns.iter().copied().eq(0..schema.len()) => rows,
                // Plain columns, reordered, repeated or a subset: each
                // output row clones the cells the evaluator would read, by
                // index.
                Some(columns) => {
                    let mut out = Vec::with_capacity(rows.len());
                    for (i, row) in rows.iter().enumerate() {
                        tick(i)?;
                        out.push(columns.iter().map(|&c| row[c].clone()).collect());
                    }
                    Rows::Owned(out)
                }
                None => {
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
            }
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
            let mut seen: HashSet<&Row, KeyState> =
                HashSet::with_capacity_and_hasher(rows.len(), KeyState::default());
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
        let mut key = KeyReader::new(w.partition_by.iter().collect(), &schema);
        for (i, row) in rows.iter().enumerate() {
            tick(i)?;
            ctx.set_row(row);
            partition_of.push(key.number(row, &mut ctx, &mut partitions, KeyOp::Group)?.0);
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
    let specs: Vec<Aggregate> = aggs
        .iter()
        .map(|(a, _)| {
            Aggregate::compile(a, &schema).ok_or_else(|| format!("aggregate list contains non-aggregate {a}"))
        })
        .collect::<Result<_, _>>()?;

    // Group in first-seen order: `groups` numbers each distinct key, and
    // group g's aggregate states are `states[g * n..(g + 1) * n]`.
    let n = specs.len();
    let mut groups = KeyIndex::new(group_by.len());
    let mut states: Vec<Acc> = Vec::new();
    // Each distinct group holds a key plus aggregate states; the ticker
    // charges that growth and checkpoints the loop.
    let mut ticker = ChargeTicker::new(group_by.len() + aggs.len());
    let mut ctx = EvalContext::for_rows(db, memo, outer, &schema);
    let mut key = KeyReader::new(group_by.iter().map(|(g, _)| g).collect(), &schema);
    for (i, row) in rows.iter().enumerate() {
        tick(i)?;
        ctx.set_row(row);
        let (group, new) = key.number(row, &mut ctx, &mut groups, KeyOp::Group)?;
        if new {
            ticker.produced()?;
            states.extend(specs.iter().map(Aggregate::start));
        }
        for (state, spec) in states[group * n..(group + 1) * n].iter_mut().zip(&specs) {
            spec.update(state, &mut ctx)?;
        }
    }
    ticker.flush()?;

    // Global aggregate over empty input still produces one row.
    if groups.len() == 0 && group_by.is_empty() {
        let row = specs.iter().map(|s| s.finish(s.start())).collect::<Result<_, _>>()?;
        return Ok(vec![row]);
    }

    let count = groups.len();
    let mut keys = groups.into_values().into_iter();
    let mut states = states.into_iter();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let mut row = Vec::with_capacity(group_by.len() + n);
        row.extend(keys.by_ref().take(group_by.len()));
        for (s, spec) in states.by_ref().take(n).zip(&specs) {
            row.push(spec.finish(s)?);
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
        emit_list(exprs.iter().map(|(e, _)| e), self.output())
    }
}

/// The columns of `schema` that expressions read, or `None` unless every
/// expression is a plain column reference that resolves uniquely in
/// `schema` — exactly the projections a join can build itself, and the
/// keys an operator can borrow from its rows, since the evaluator would
/// read each of those references from the row at that column.
pub(crate) fn emit_list<'e>(exprs: impl IntoIterator<Item = &'e ScalarExpr>, schema: &Schema) -> Option<Vec<usize>> {
    exprs
        .into_iter()
        .map(|e| match e {
            ScalarExpr::Column { qualifier, name, .. } => {
                schema.try_resolve(qualifier.as_deref(), name).ok().flatten()
            }
            _ => None,
        })
        .collect()
}

/// What an operator does with a row's key in its [`KeyIndex`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum KeyOp {
    /// Number it, new or not; NULL is a value like any other (GROUP BY,
    /// PARTITION BY).
    Group,
    /// Number it unless it holds a NULL (a join's build side).
    Build,
    /// Look it up; a key with a NULL is not looked up (a join's probe side).
    Probe,
}

/// Reads each row's key for a [`KeyIndex`]. When every key expression is a
/// plain column of the input (the [`emit_list`] test), the key is borrowed
/// from the row and a value is cloned only when a new key enters the
/// index; any other key is evaluated into a scratch vector, whose values a
/// new key moves into the index.
struct KeyReader<'e, 'r> {
    exprs: Vec<&'e ScalarExpr>,
    columns: Option<Vec<usize>>,
    borrowed: Vec<&'r Datum>,
    evaluated: Vec<Datum>,
}

impl<'e, 'r> KeyReader<'e, 'r> {
    fn new(exprs: Vec<&'e ScalarExpr>, schema: &Schema) -> Self {
        let columns = emit_list(exprs.iter().copied(), schema);
        let width = exprs.len();
        KeyReader { exprs, columns, borrowed: Vec::with_capacity(width), evaluated: Vec::with_capacity(width) }
    }

    /// The number of `row`'s key in `index` and whether it is new: `NO_KEY`
    /// for a join key that holds a NULL or that a probe does not find. An
    /// evaluated key reads `row` through `ctx`, which must be set to it.
    fn number(
        &mut self,
        row: &'r [Datum],
        ctx: &mut EvalContext<'_>,
        index: &mut KeyIndex,
        op: KeyOp,
    ) -> Result<(usize, bool), EvalError> {
        fn apply<K: KeyValue>(key: &mut Vec<K>, index: &mut KeyIndex, op: KeyOp) -> (usize, bool) {
            match op {
                KeyOp::Probe => (index.find(key).unwrap_or(NO_KEY), false),
                KeyOp::Group | KeyOp::Build => index.insert(key),
            }
        }
        let nulls_join = op == KeyOp::Group;
        if let Some(columns) = &self.columns {
            self.borrowed.clear();
            for &c in columns {
                if row[c].is_null() && !nulls_join {
                    return Ok((NO_KEY, false));
                }
                self.borrowed.push(&row[c]);
            }
            return Ok(apply(&mut self.borrowed, index, op));
        }
        self.evaluated.clear();
        for e in &self.exprs {
            let v = eval(e, ctx)?;
            if v.is_null() && !nulls_join {
                return Ok((NO_KEY, false));
            }
            self.evaluated.push(v);
        }
        Ok(apply(&mut self.evaluated, index, op))
    }
}

/// Each row's join key, numbered in `index` by `op` (see [`KeyOp`]).
fn key_numbers<'r>(
    rows: impl Iterator<Item = &'r Row>,
    exprs: &[&ScalarExpr],
    schema: &Schema,
    ctx: &mut EvalContext<'r>,
    index: &mut KeyIndex,
    op: KeyOp,
) -> Result<Vec<usize>, EvalError> {
    let mut numbers = Vec::with_capacity(rows.size_hint().0);
    let mut key = KeyReader::new(exprs.to_vec(), schema);
    for (i, row) in rows.enumerate() {
        tick(i)?;
        ctx.set_row(row);
        numbers.push(key.number(row, ctx, index, op)?.0);
    }
    Ok(numbers)
}

/// Does the candidate pair pass the residual, the AND of its conjuncts?
/// `pair` scopes the combined schema, so the two rows are tested in place:
/// a rejected candidate builds nothing.
fn pair_passes<'r>(
    residual: Option<&Predicate<'_>>,
    pair: &mut EvalContext<'r>,
    lrow: &'r [Datum],
    rrow: &'r [Datum],
) -> Result<bool, EvalError> {
    let Some(residual) = residual else {
        return Ok(true);
    };
    pair.set_pair(lrow, rrow);
    residual.holds(pair)
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
            let lnums = key_numbers(lrows.iter(), &lkeys, lschema, &mut lctx, &mut index, KeyOp::Build)?;
            (lnums, key_numbers(rrows.iter().copied(), &rkeys, rschema, &mut rctx, &mut index, KeyOp::Probe)?)
        } else {
            let rnums = key_numbers(rrows.iter().copied(), &rkeys, rschema, &mut rctx, &mut index, KeyOp::Build)?;
            (key_numbers(lrows.iter(), &lkeys, lschema, &mut lctx, &mut index, KeyOp::Probe)?, rnums)
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
    let residual = (!residual.is_empty()).then(|| Predicate::all(&residual, combined));
    for (li, lrow) in lrows.iter().enumerate() {
        let candidates: &[usize] = match &hashed {
            Some((lnums, rgroups)) => rgroups.get(lnums[li]),
            None => &every_right,
        };
        let mut matched = false;
        for &ri in candidates {
            let rrow = rrows[ri];
            if pair_passes(residual.as_ref(), &mut pair, lrow, rrow)? {
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
            if let Some(emit) = emit_list(exprs.iter().map(|(e, _)| e), &input.schema()) {
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
            let mut seen: HashSet<&Row, KeyState> = HashSet::default();
            let lkeep: Vec<bool> = l.iter().map(|row| seen.insert(row)).collect();
            let rkeep: Vec<bool> = r.iter().map(|row| seen.insert(row)).collect();
            let mut out = l.keep(&lkeep).into_vec();
            out.extend(r.keep(&rkeep).into_vec());
            return Rows::Owned(out);
        }
        (SetOpKind::Intersect | SetOpKind::Except, false) => {
            let rset: HashSet<&Row, KeyState> = r.iter().collect();
            let mut seen: HashSet<&Row, KeyState> = HashSet::default();
            let intersect = kind == SetOpKind::Intersect;
            l.iter().map(|row| rset.contains(row) == intersect && seen.insert(row)).collect()
        }
        (SetOpKind::Intersect | SetOpKind::Except, true) => {
            let mut counts: HashMap<&Row, usize, KeyState> = HashMap::default();
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
    use std::sync::Arc;

    use hyperq_core::binder::Binder;
    use hyperq_parser::{parse_statements, Dialect};
    use hyperq_xtra::datum::{date_from_ymd, Datum, Decimal, Interval};
    use hyperq_xtra::expr::{AggFunc, ArithOp, BoolOp, CmpOp, ScalarExpr};
    use hyperq_xtra::rel::{Grouping, JoinKind, Plan, RelExpr, SetOpKind};
    use hyperq_xtra::types::SqlType;
    use hyperq_xtra::Row;

    use super::{emit_list, execute_rel, join_widths, KeyReader, Rows};
    use crate::compile::{Aggregate, Predicate};
    use crate::db::EngineCatalog;
    use crate::eval::{eval, eval_truth, AggState, EvalContext};
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
    fn keys_borrowed_from_the_row_match_keys_evaluated_as_expressions() {
        // Plain-column keys are read from the row in place; the same keys
        // wrapped in an expression (`K + 0`, `C || ''`) go through the
        // evaluator. Both give the same groups, pairs and partitions, in the
        // same order: INTEGER 1 and DECIMAL 1.00 are one key, 'a' and 'a  '
        // are one key, and NULL is a group of its own but joins nothing.
        let db = db(&[
            "CREATE TABLE TI (K INTEGER, C VARCHAR(5), V INTEGER)",
            "INSERT INTO TI VALUES (1, 'a', 1), (NULL, 'a', 2), (2, 'a  ', 3), (1, 'a  ', 4), (NULL, NULL, 5)",
            "CREATE TABLE TD (K DECIMAL(5,2), C VARCHAR(5), V INTEGER)",
            "INSERT INTO TD VALUES (1.00, 'a  ', 6), (2.50, 'a', 7), (NULL, 'a', 8), (1, 'a', 9), (2, NULL, 10)",
        ]);
        let union = "(SELECT K, C, V FROM TI UNION ALL SELECT K, C, V FROM TD) AS U";
        let group = |keys: &str| format!("SELECT MIN(V), MAX(V), COUNT(*) FROM {union} GROUP BY {keys}");
        let join = |on: &str| format!("SELECT TI.V, TD.V FROM TI INNER JOIN TD ON {on}");
        let window = |keys: &str| {
            format!("SELECT V, ROW_NUMBER() OVER (PARTITION BY {keys} ORDER BY V DESC) AS RN FROM {union} ORDER BY V")
        };
        let cases = [
            (
                group("K, C"),
                group("K + 0, C || ''"),
                strings(&[
                    &["1", "9", "4"],
                    &["2", "8", "2"],
                    &["3", "3", "1"],
                    &["5", "5", "1"],
                    &["7", "7", "1"],
                    &["10", "10", "1"],
                ]),
            ),
            (
                join("TI.K = TD.K AND TI.C = TD.C"),
                join("TI.K + 0 = TD.K + 0 AND TI.C || '' = TD.C || ''"),
                strings(&[&["1", "6"], &["1", "9"], &["4", "6"], &["4", "9"]]),
            ),
            (
                window("K, C"),
                window("K + 0, C || ''"),
                strings(&[
                    &["1", "4"],
                    &["2", "2"],
                    &["3", "1"],
                    &["4", "3"],
                    &["5", "1"],
                    &["6", "2"],
                    &["7", "1"],
                    &["8", "1"],
                    &["9", "1"],
                    &["10", "1"],
                ]),
            ),
        ];
        for (plain, wrapped, expected) in cases {
            assert_eq!(text(&query(&db, &plain)), expected, "{plain}");
            assert_eq!(text(&query(&db, &wrapped)), expected, "{wrapped}");
        }
        // Only the plain keys are read in place.
        let schema = db.table_def("TI").unwrap().schema(Some("TI"));
        let (k, c) = (col(Some("TI"), "K"), col(Some("TI"), "C"));
        let k0 = ScalarExpr::arith(ArithOp::Add, k.clone(), ScalarExpr::int(0));
        assert_eq!(KeyReader::new(vec![&c, &k], &schema).columns, Some(vec![1, 0]));
        assert_eq!(KeyReader::new(vec![&c, &k0], &schema).columns, None);
    }

    /// A deterministic stream of choices (xorshift) for generated
    /// expressions.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        fn pick<T: Clone>(&mut self, from: &[T]) -> T {
            from[self.below(from.len())].clone()
        }
    }

    fn lit(d: Datum) -> ScalarExpr {
        let ty = d.sql_type();
        ScalarExpr::Literal(d, ty)
    }

    /// A predicate of depth at most `depth` over `operands`: comparisons,
    /// BETWEEN, IN lists, IS NULL, LIKE, a bare operand (non-boolean, so
    /// an error unless NULL) and AND/OR/NOT of smaller predicates.
    fn predicate(d: &mut Draw, depth: usize, operands: &[ScalarExpr]) -> ScalarExpr {
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let negated = d.below(2) == 1;
        match d.below(if depth == 0 { 6 } else { 9 }) {
            0 => ScalarExpr::cmp(d.pick(&ops), d.pick(operands), d.pick(operands)),
            1 => ScalarExpr::Between {
                expr: Box::new(d.pick(operands)),
                low: Box::new(d.pick(operands)),
                high: Box::new(d.pick(operands)),
                negated,
            },
            2 => {
                let list = (0..=d.below(3)).map(|_| d.pick(operands)).collect();
                ScalarExpr::InList { expr: Box::new(d.pick(operands)), list, negated }
            }
            3 => ScalarExpr::IsNull { expr: Box::new(d.pick(operands)), negated },
            4 => d.pick(operands),
            5 => ScalarExpr::Like { expr: Box::new(d.pick(operands)), pattern: Box::new(d.pick(operands)), negated },
            8 => ScalarExpr::Not(Box::new(predicate(d, depth - 1, operands))),
            k => ScalarExpr::BoolExpr {
                op: if k == 6 { BoolOp::And } else { BoolOp::Or },
                args: (0..2 + d.below(2)).map(|_| predicate(d, depth - 1, operands)).collect(),
            },
        }
    }

    #[test]
    fn compiled_predicates_and_aggregates_agree_with_eval() {
        // Rows as an operator may see them, not coerced to the declared
        // types: NULLs on either side, blank-padded CHARs, DECIMALs at the
        // declared scale and at others, an INTEGER in the DECIMAL column,
        // and values whose sums and products overflow.
        let db = db(&["CREATE TABLE T (I INTEGER, D DECIMAL(15,2), F DOUBLE, C CHAR(4), V VARCHAR(8), DT DATE, TS TIMESTAMP)"]);
        let schema = db.table_def("T").unwrap().schema(Some("T"));
        let dec = |m: i128, s: u8| Datum::Dec(Decimal::new(m, s));
        let day = date_from_ymd(1995, 3, 15);
        let at = |d: i32, us: i64| Datum::Timestamp(i64::from(d) * 86_400_000_000 + us);
        let (int, double, text, date) = (Datum::Int, Datum::Double, Datum::str, Datum::Date);
        let null = || Datum::Null;
        let rows: Vec<Row> = vec![
            vec![int(1), dec(150, 2), double(1.5), text("a   "), text("a"), date(day), at(day, 0)],
            vec![null(), dec(-7, 2), null(), text("b"), null(), date(day + 1), at(day, 1)],
            vec![int(2), null(), double(2.0), null(), text("b  "), null(), null()],
            vec![int(-3), dec(2, 0), double(-0.5), text("ab  "), text("ab"), date(day - 1), at(day, -1)],
            vec![int(2), dec(15_000, 4), double(1.5), text("a"), text("a  "), date(day), at(day - 1, 0)],
            vec![int(0), int(3), double(0.0), text(""), text(" "), date(day), at(day + 1, 0)],
            vec![int(i64::MAX), dec(i128::MAX / 3 * 2, 2), double(1e300), text("zz  "), text("zz"), date(day), at(day, 0)],
            vec![int(i64::MAX), dec(i128::MAX / 3 * 2, 2), double(-1e300), text("b "), text("b"), date(day + 2), null()],
        ];
        let col = |name: &str| {
            let i = schema.try_resolve(None, name).unwrap().unwrap();
            ScalarExpr::column(Some("T"), name, schema.fields[i].ty.clone())
        };
        let arith = ScalarExpr::arith;
        let huge = lit(dec(i128::MAX / 10, 0));
        let numeric = vec![
            col("I"),
            col("D"),
            col("F"),
            lit(int(1)),
            lit(dec(150, 2)),
            lit(dec(15, 1)),
            lit(double(1.5)),
            lit(null()),
            arith(ArithOp::Add, col("I"), lit(int(1))),
            arith(ArithOp::Sub, lit(int(1)), col("D")),
            arith(ArithOp::Mul, col("D"), arith(ArithOp::Sub, lit(int(1)), col("D"))),
            arith(ArithOp::Mul, col("D"), col("D")),
            arith(ArithOp::Add, col("D"), col("I")),
            arith(ArithOp::Mul, col("I"), col("I")),
            arith(ArithOp::Mul, col("D"), lit(dec(5, 1))),
            arith(ArithOp::Add, col("D"), col("F")),
            arith(ArithOp::Mul, col("D"), huge.clone()),
            arith(ArithOp::Mul, arith(ArithOp::Mul, col("D"), col("D")), arith(ArithOp::Mul, col("D"), col("D"))),
            arith(ArithOp::Mul, arith(ArithOp::Mul, col("D"), col("D")), lit(dec(3, 10))),
            arith(ArithOp::Add, lit(int(1)), lit(int(10))),
            arith(ArithOp::Mul, huge.clone(), huge),
        ];
        let mut operands = numeric.clone();
        operands.extend([
            col("C"),
            col("V"),
            col("DT"),
            col("TS"),
            lit(text("a")),
            lit(text("ab ")),
            lit(text("a%")),
            lit(text("%b_")),
            lit(date(day)),
            lit(at(day, 0)),
            arith(ArithOp::Add, lit(date(day)), lit(Datum::Interval(Interval::months(1)))),
            arith(ArithOp::Sub, col("DT"), lit(int(1))),
        ]);

        // A context's slot cache keys on node addresses, and a generated
        // expression's may be reused once it is dropped: one pair of
        // contexts per expression.
        let memo = SubqueryMemo::default();
        let contexts = || (EvalContext::for_rows(&db, &memo, &[], &schema), EvalContext::for_rows(&db, &memo, &[], &schema));
        let mut draw = Draw(0x9E37_79B9_7F4A_7C15);
        let (mut decided, mut failed) = (0, 0);
        for _ in 0..600 {
            let p = predicate(&mut draw, 3, &operands);
            let fast = Predicate::compile(&p, &schema);
            let (mut by_eval, mut compiled) = contexts();
            for row in &rows {
                by_eval.set_row(row);
                compiled.set_row(row);
                let expected = eval_truth(&p, &mut by_eval);
                assert_eq!(fast.truth(&mut compiled), expected, "{p} on {row:?}");
                match expected {
                    Ok(Some(_)) => decided += 1,
                    Err(_) => failed += 1,
                    Ok(None) => {}
                }
            }
        }
        assert!(decided > 1000 && failed > 100, "{decided} decided, {failed} failed");

        // Each aggregate over every run of consecutive rows: sums that stay
        // in range, sums that overflow, and typed sums that meet an
        // off-scale value first or last.
        let funcs = [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max, AggFunc::Count];
        let mut errors = 0;
        for func in funcs {
            for distinct in [false, true] {
                for arg in &numeric {
                    let agg = ScalarExpr::Agg { func, distinct, arg: Some(Box::new(arg.clone())) };
                    let fast = Aggregate::compile(&agg, &schema).unwrap();
                    for (start, end) in (0..=rows.len()).flat_map(|s| (s..=rows.len()).map(move |e| (s, e))) {
                        let rows = &rows[start..end];
                        let (mut by_eval, mut compiled) = contexts();
                        let mut state = AggState::new(func, distinct, agg.ty());
                        let expected = rows
                            .iter()
                            .try_for_each(|row| {
                                by_eval.set_row(row);
                                state.update(Some(&eval(arg, &mut by_eval)?))
                            })
                            .and_then(|()| state.finish());
                        let mut acc = fast.start();
                        let got = rows
                            .iter()
                            .try_for_each(|row| {
                                compiled.set_row(row);
                                fast.update(&mut acc, &mut compiled)
                            })
                            .and_then(|()| fast.finish(acc));
                        errors += usize::from(expected.is_err());
                        assert_eq!(format!("{got:?}"), format!("{expected:?}"), "{agg} over rows {start}..{end}");
                    }
                }
            }
        }
        assert!(errors > 50, "{errors} aggregate errors");
    }

    #[test]
    fn a_correlated_reference_in_a_compiled_predicate_reads_the_outer_row() {
        // σ[T.K = O.K AND T.V > O.K * 8](T), summed as T.V + O.K, under
        // each O row: O.K resolves only in the outer scope, so it is not a
        // slot, and the compiled predicate and aggregate read it through
        // `eval`, from the outer row.
        let db = db(&[
            "CREATE TABLE T (K INTEGER, V INTEGER)",
            "INSERT INTO T VALUES (1, 10), (2, 20), (2, 30), (3, 40), (3, 5)",
            "CREATE TABLE O (K INTEGER)",
            "INSERT INTO O VALUES (2), (3), (NULL)",
        ]);
        let predicate = ScalarExpr::and(vec![
            eq(col(Some("T"), "K"), col(Some("O"), "K")),
            ScalarExpr::cmp(
                CmpOp::Gt,
                col(Some("T"), "V"),
                ScalarExpr::arith(ArithOp::Mul, col(Some("O"), "K"), ScalarExpr::int(8)),
            ),
        ]);
        let t = db.table_def("T").unwrap().schema(Some("T"));
        assert_eq!(Predicate::compile(&predicate, &t).slots(), vec![0, 1]);
        let matching = RelExpr::Select { input: Box::new(get(&db, "T", "T")), predicate };
        let sum = ScalarExpr::arith(ArithOp::Add, col(Some("T"), "V"), col(Some("O"), "K"));
        let plan = RelExpr::Project {
            input: Box::new(get(&db, "O", "O")),
            exprs: vec![
                (col(Some("O"), "K"), "K".into()),
                (
                    ScalarExpr::ScalarSubquery(Box::new(aggregate(matching, vec![agg(AggFunc::Sum, Some(sum), "S")]))),
                    "S".into(),
                ),
            ],
        };
        // O.K = 2: (20 + 2) + (30 + 2); O.K = 3: 40 + 3; NULL: no row.
        // Each O row runs the subquery, and compiles it, afresh.
        assert_eq!(run(&db, &plan), Ok(strings(&[&["2", "54"], &["3", "43"], &["NULL", "NULL"]])));
    }

    #[test]
    fn tpch_q19_residual_and_q1_aggregates_match_eval() {
        // Q1 and Q19 as Hyper-Q sends them to the warehouse, against the
        // same queries with every aggregate argument and the Q19 residual
        // wrapped in a CASE, which only `eval` evaluates.
        let mut setup = hyperq_workload::tpch::ddl();
        setup.push(
            "INSERT INTO PART VALUES \
             (1, 'p1', 'M1', 'Brand#12', 'T', 3, 'SM BOX', 1.00, 'c'), \
             (2, 'p2', 'M1', 'Brand#23', 'T', 8, 'MED BAG', 1.00, 'c'), \
             (3, 'p3', 'M1', 'Brand#34', 'T', 12, 'LG CASE', 1.00, 'c'), \
             (4, 'p4', 'M1', 'Brand#12', 'T', 30, 'SM BOX', 1.00, 'c')"
                .to_string(),
        );
        let lines = [
            (1, 5, "17.25", "0.04", "0.02", "N", "O", "1998-08-01", "AIR", "DELIVER IN PERSON"),
            (1, 12, "24.00", "0.10", "0.08", "N", "O", "1998-08-02", "AIR", "DELIVER IN PERSON"),
            (2, 15, "1500.10", "0.05", "0.00", "R", "F", "1995-01-01", "REG AIR", "DELIVER IN PERSON"),
            (2, 21, "33.00", "0.00", "0.01", "R", "F", "1994-06-30", "AIR", "DELIVER IN PERSON"),
            (3, 25, "999.99", "0.07", "0.06", "A", "F", "1993-03-03", "REG AIR", "DELIVER IN PERSON"),
            (3, 31, "12.50", "0.01", "0.03", "A", "F", "1993-03-04", "AIR", "DELIVER IN PERSON"),
            (4, 1, "100.00", "0.00", "0.00", "N", "O", "1998-09-02", "AIR", "DELIVER IN PERSON"),
            (1, 7, "45.45", "0.02", "0.04", "N", "F", "1998-09-03", "REG AIR", "DELIVER IN PERSON"),
            (2, 11, "0.01", "0.10", "0.08", "A", "F", "1996-02-29", "MAIL", "DELIVER IN PERSON"),
            (3, 22, "250.00", "0.03", "0.05", "R", "F", "1992-12-31", "AIR", "NONE"),
            (1, 9, "77.70", "0.06", "0.07", "A", "F", "1997-07-07", "AIR", "DELIVER IN PERSON"),
            (2, 18, "8.88", "0.09", "0.02", "N", "O", "1998-12-01", "AIR", "DELIVER IN PERSON"),
        ];
        let rows: Vec<String> = lines
            .iter()
            .enumerate()
            .map(|(i, (part, qty, price, disc, tax, flag, status, ship, mode, instruct))| {
                format!(
                    "({i}, {part}, 1, 1, {qty}, {price}, {disc}, {tax}, '{flag}', '{status}', DATE '{ship}', \
                     DATE '{ship}', DATE '{ship}', '{instruct}', '{mode}', 'c')"
                )
            })
            .collect();
        setup.push(format!("INSERT INTO LINEITEM VALUES {}", rows.join(", ")));
        let setup: Vec<&str> = setup.iter().map(String::as_str).collect();
        let db = db(&setup);

        let q1 = |arg: &dyn Fn(&str) -> String| {
            format!(
                "SELECT L_RETURNFLAG, L_LINESTATUS, SUM({}), SUM({}), SUM({}), SUM({}), AVG({}), AVG({}), AVG({}), \
                 COUNT(*) FROM LINEITEM WHERE (LINEITEM.L_SHIPDATE <= (DATE '1998-12-01' - 90)) \
                 GROUP BY L_RETURNFLAG, L_LINESTATUS ORDER BY L_RETURNFLAG, L_LINESTATUS",
                arg("L_QUANTITY"),
                arg("L_EXTENDEDPRICE"),
                arg("(L_EXTENDEDPRICE * (1 - L_DISCOUNT))"),
                arg("((L_EXTENDEDPRICE * (1 - L_DISCOUNT)) * (1 + L_TAX))"),
                arg("L_QUANTITY"),
                arg("L_EXTENDEDPRICE"),
                arg("L_DISCOUNT"),
            )
        };
        let branch = |brand: &str, containers: &str, low: u32, size: u32| {
            format!(
                "((P.P_BRAND = '{brand}') AND (P.P_CONTAINER IN ({containers})) AND (L.L_QUANTITY >= {low}) \
                 AND (L.L_QUANTITY <= {}) AND (P.P_SIZE BETWEEN 1 AND {size}) \
                 AND (L.L_SHIPMODE IN ('AIR', 'REG AIR')) AND (L.L_SHIPINSTRUCT = 'DELIVER IN PERSON'))",
                low + 10
            )
        };
        let residual = [
            branch("Brand#12", "'SM CASE', 'SM BOX', 'SM PACK', 'SM PKG'", 1, 5),
            branch("Brand#23", "'MED BAG', 'MED BOX', 'MED PKG', 'MED PACK'", 10, 10),
            branch("Brand#34", "'LG CASE', 'LG BOX', 'LG PACK', 'LG PKG'", 20, 15),
        ]
        .join(" OR ");
        let q19 = |wrap: &dyn Fn(&str) -> String| {
            format!(
                "SELECT SUM((L.L_EXTENDEDPRICE * (1 - L.L_DISCOUNT))) AS REVENUE FROM LINEITEM AS L \
                 INNER JOIN PART AS P ON (P.P_PARTKEY = L.L_PARTKEY) WHERE {}",
                wrap(&format!("({residual})"))
            )
        };
        let plain = |e: &str| e.to_string();
        let by_eval = |e: &str| format!("CASE WHEN 1 = 1 THEN {e} END");
        let residual_by_eval = |e: &str| format!("CASE WHEN {e} THEN 1 ELSE 0 END = 1");

        let q1_rows = query(&db, &q1(&plain));
        assert_eq!(format!("{q1_rows:?}"), format!("{:?}", query(&db, &q1(&by_eval))));
        assert_eq!(q1_rows.len(), 3, "{q1_rows:?}");
        let q19_rows = query(&db, &q19(&plain));
        assert_eq!(format!("{q19_rows:?}"), format!("{:?}", query(&db, &q19(&residual_by_eval))));
        // Lines 0, 7 and 10 pass the first branch, 2 and 11 the second, 4
        // the third; the others fail on quantity, size, mode or
        // instruction.
        assert_eq!(text(&q19_rows), strings(&[&["2497.3055"]]));
        // And the residual runs as one, pair by pair.
        let plan = optimize(db.bind_query(&q19(&plain)));
        assert!(format!("{plan:?}").contains("Join"), "{plan:?}");
    }

    #[test]
    fn projections_copied_by_index_match_projections_evaluated_as_expressions() {
        // Plain-column projections copy each cell by index; the same
        // columns wrapped in an expression (`K + 0`, `C || ''`) go through
        // the evaluator. Both give the same rows, value for value: NULLs,
        // and CHAR values with their trailing spaces.
        let db = db(&[
            "CREATE TABLE T (K INTEGER, C CHAR(4), V VARCHAR(5))",
            "INSERT INTO T VALUES (1, 'a', 'x'), (NULL, 'b  ', 'y'), (3, NULL, NULL), (2, 'a  ', 'z ')",
            "CREATE TABLE O (K INTEGER)",
            "INSERT INTO O VALUES (5), (NULL)",
        ]);
        let cases = [
            // Reordered.
            ("SELECT C, K FROM T", "SELECT C || '', K + 0 FROM T"),
            // A duplicated column.
            ("SELECT K, K, C FROM T", "SELECT K + 0, K + 0, C || '' FROM T"),
            // Renames and qualified references.
            (
                "SELECT X.V AS W, X.K AS KEY FROM T AS X",
                "SELECT X.V || '' AS W, X.K + 0 AS KEY FROM T AS X",
            ),
            // Picked rows, after a WHERE.
            ("SELECT V, C FROM T WHERE K > 1", "SELECT V || '', C || '' FROM T WHERE K > 1"),
        ];
        for (plain, wrapped) in cases {
            let rows = query(&db, plain);
            assert_eq!(rows.len(), if plain.contains("WHERE") { 2 } else { 4 }, "{plain}");
            assert_eq!(format!("{rows:?}"), format!("{:?}", query(&db, wrapped)), "{plain}");
        }
        let schema = db.table_def("T").unwrap().schema(Some("X"));
        let (k, c, v) = (col(Some("X"), "K"), col(None, "C"), col(Some("X"), "V"));
        assert_eq!(emit_list([&v, &k, &c, &k], &schema), Some(vec![2, 0, 1, 0]));

        // A correlated subquery: O.K does not resolve in T, so the inner
        // projection falls through to the outer scope, through `eval`.
        let inner = |k: ScalarExpr| {
            let projected = RelExpr::Project {
                input: Box::new(get(&db, "T", "T")),
                exprs: vec![(k, "X".into()), (col(Some("T"), "K"), "TK".into())],
            };
            let max = aggregate(projected, vec![agg(AggFunc::Max, Some(col(None, "X")), "M")]);
            RelExpr::Project {
                input: Box::new(get(&db, "O", "O")),
                exprs: vec![
                    (col(Some("O"), "K"), "K".into()),
                    (ScalarExpr::ScalarSubquery(Box::new(max)), "M".into()),
                ],
            }
        };
        let outer_k = col(Some("O"), "K");
        let wrapped = ScalarExpr::arith(ArithOp::Add, outer_k.clone(), ScalarExpr::int(0));
        let expected = strings(&[&["5", "5"], &["NULL", "NULL"]]);
        assert_eq!(run(&db, &inner(outer_k.clone())), Ok(expected.clone()));
        assert_eq!(run(&db, &inner(wrapped)), Ok(expected));
        let t = db.table_def("T").unwrap().schema(Some("T"));
        assert_eq!(emit_list([&outer_k, &col(Some("T"), "K")], &t), None);
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

        // A held whole-table result is a copy of its own: a later write
        // changes the table, not the result, and the next read sees it.
        let held = db.execute_sql("SELECT * FROM T").unwrap();
        let writes: [(&str, &[&[&str]]); 3] = [
            ("INSERT INTO T VALUES (40)", &[&["10"], &["20"], &["30"], &["40"]]),
            ("UPDATE T SET C = C + 1", &[&["11"], &["21"], &["31"], &["41"]]),
            ("DELETE FROM T WHERE C > 30", &[&["11"], &["21"]]),
        ];
        for (write, expected) in writes {
            db.execute_sql(write).unwrap();
            assert_eq!(text(&held.rows), strings(&[&["10"], &["20"], &["30"]]), "{write}");
            assert_eq!(text(&query(&db, "SELECT * FROM T")), strings(expected), "{write}");
        }
    }

    #[test]
    fn an_identity_projection_passes_the_snapshot_on() {
        let db = db(&["CREATE TABLE T (A INTEGER, B INTEGER)", "INSERT INTO T VALUES (1, 2), (3, 4)"]);
        let rows = |sql: &str| {
            let stmt = parse_statements(sql, Dialect::Ansi).unwrap().remove(0).stmt;
            let Plan::Query(rel) = Binder::new(&EngineCatalog(&db)).bind_statement(&stmt).unwrap() else {
                panic!("{sql}: not a query");
            };
            execute_rel(&optimize(rel), &db, &SubqueryMemo::default(), &[]).unwrap()
        };
        // Every column once, in table order, renamed or not: the
        // projection evaluates nothing and hands on the table's snapshot,
        // which the result edge copies whole.
        for sql in ["SELECT * FROM T", "SELECT A AS X, B FROM T", "SELECT T.A, T.B FROM T"] {
            assert!(matches!(rows(sql), Rows::Shared(s) if Arc::ptr_eq(&s, &db.scan("T").unwrap())), "{sql}");
            assert_eq!(text(&query(&db, sql)), strings(&[&["1", "2"], &["3", "4"]]), "{sql}");
        }
        // Any other projection builds rows of its own: copied by index
        // from plain columns, evaluated otherwise.
        let built: [(&str, &[&[&str]]); 4] = [
            ("SELECT B, A FROM T", &[&["2", "1"], &["4", "3"]]),
            ("SELECT A, A, B FROM T", &[&["1", "1", "2"], &["3", "3", "4"]]),
            ("SELECT A + 0, B FROM T", &[&["1", "2"], &["3", "4"]]),
            ("SELECT * FROM T WHERE A > 1", &[&["3", "4"]]),
        ];
        for (sql, expected) in built {
            assert!(!matches!(rows(sql), Rows::Shared(_)), "{sql}");
            assert_eq!(text(&query(&db, sql)), strings(expected), "{sql}");
        }
        // An INSERT whose source is the live snapshot of its own target
        // reads the table as it was: T doubles exactly once.
        assert_eq!(db.execute_sql("INSERT INTO T SELECT * FROM T").unwrap().row_count, 2);
        assert_eq!(
            text(&query(&db, "SELECT * FROM T")),
            strings(&[&["1", "2"], &["3", "4"], &["1", "2"], &["3", "4"]])
        );
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
