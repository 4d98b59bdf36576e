//! Scalar expression evaluation with SQL three-valued logic.

use std::rc::Rc;

use hyperq_xtra::datum::{add_months, ymd_from_date, Datum, Decimal};
use hyperq_xtra::expr::{
    AggFunc, ArithOp, BoolOp, CmpOp, DateField, Quantifier, ScalarExpr, ScalarFunc,
};
use hyperq_xtra::schema::Schema;
use hyperq_xtra::types::SqlType;
use hyperq_xtra::Row;

use crate::db::EngineDb;
use crate::exec::{execute_rel, Rows};
use crate::memo::SubqueryMemo;

/// Evaluation error.
pub type EvalError = String;
pub type EvalResult = Result<Datum, EvalError>;

/// One scope of an evaluation: a schema and the row bound to it. A join's
/// residual binds a candidate *pair* instead: `left` holds the schema's
/// first columns and `right` the rest, so testing a pair builds no
/// combined row. Any other scope has an empty `right`.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    schema: &'a Schema,
    left: &'a [Datum],
    right: &'a [Datum],
}

impl<'a> Scope<'a> {
    fn value(&self, i: usize) -> &'a Datum {
        match self.left.get(i) {
            Some(d) => d,
            None => &self.right[i - self.left.len()],
        }
    }
}

/// A stack of scopes, innermost last: the evaluator resolves column
/// references innermost-first, which is what makes correlated subqueries
/// work. `memo` is the statement's subquery memo.
///
/// An operator builds one context and repoints its innermost scope at each
/// row with [`EvalContext::set_row`] (or each candidate pair with
/// [`EvalContext::set_pair`]). The scope *schemas* never change for a
/// context's lifetime, so a column reference resolves to the same slot on
/// every row; `slots` remembers it after the first.
pub struct EvalContext<'a> {
    db: &'a EngineDb,
    memo: &'a SubqueryMemo,
    scopes: Vec<Scope<'a>>,
    slots: Slots,
}

/// The column references a context has resolved: a `Column` node's
/// address and the (scope position, column index) the name lookup found.
/// Addresses are stable while the plan is borrowed, because execution
/// builds no temporary plan nodes (the subquery memo's precondition too).
#[derive(Default)]
pub struct Slots {
    resolved: Vec<(*const ScalarExpr, usize, usize)>,
    /// Where the next lookup starts. Every row evaluates the same
    /// references in the same order, so it is usually the entry after the
    /// last hit.
    next: usize,
}

impl Slots {
    fn get(&mut self, key: *const ScalarExpr) -> Option<(usize, usize)> {
        let (before, after) = self.resolved.split_at(self.next);
        let pos = match after.iter().position(|s| s.0 == key) {
            Some(p) => self.next + p,
            None => before.iter().position(|s| s.0 == key)?,
        };
        self.next = pos + 1;
        let (_, d, i) = self.resolved[pos];
        Some((d, i))
    }

    fn insert(&mut self, key: *const ScalarExpr, (d, i): (usize, usize)) {
        self.resolved.push((key, d, i));
        self.next = self.resolved.len();
    }
}

impl<'a> EvalContext<'a> {
    /// A context over the `outer` scopes alone.
    pub fn new(db: &'a EngineDb, memo: &'a SubqueryMemo, outer: &[Scope<'a>]) -> Self {
        EvalContext { db, memo, scopes: Vec::from(outer), slots: Slots::default() }
    }

    /// A context for one operator's row loop: `outer` plus an innermost
    /// scope of `schema`, which [`EvalContext::set_row`] points at each row.
    pub fn for_rows(
        db: &'a EngineDb,
        memo: &'a SubqueryMemo,
        outer: &[Scope<'a>],
        schema: &'a Schema,
    ) -> Self {
        let mut scopes = Vec::with_capacity(outer.len() + 1);
        scopes.extend_from_slice(outer);
        scopes.push(Scope { schema, left: &[], right: &[] });
        EvalContext { db, memo, scopes, slots: Slots::default() }
    }

    /// Point the innermost scope of a [`EvalContext::for_rows`] context at
    /// `row`.
    pub fn set_row(&mut self, row: &'a [Datum]) {
        self.set_pair(row, &[]);
    }

    /// Point the innermost scope at a candidate pair: `left` supplies the
    /// schema's first `left.len()` columns and `right` the rest.
    pub fn set_pair(&mut self, left: &'a [Datum], right: &'a [Datum]) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.left = left;
            scope.right = right;
        }
    }

    /// The scope position and column index of a reference: the innermost
    /// scope that binds it unambiguously.
    fn find(&self, qualifier: Option<&str>, name: &str) -> Result<(usize, usize), EvalError> {
        self.scopes
            .iter()
            .enumerate()
            .rev()
            .find_map(|(d, scope)| match scope.schema.try_resolve(qualifier, name) {
                Ok(Some(i)) => Some((d, i)),
                _ => None,
            })
            .ok_or_else(|| {
                format!(
                    "column {}{name} not found at execution time",
                    qualifier.map(|q| format!("{q}.")).unwrap_or_default()
                )
            })
    }

    fn resolve(&self, qualifier: Option<&str>, name: &str) -> EvalResult {
        let (d, i) = self.find(qualifier, name)?;
        Ok(self.scopes[d].value(i).clone())
    }

    /// The value of column reference `e`: resolved by name on its first
    /// evaluation, read from its cached slot on every later row.
    fn column(&mut self, e: &ScalarExpr, qualifier: Option<&str>, name: &str) -> EvalResult {
        let key = std::ptr::from_ref(e);
        let (d, i) = match self.slots.get(key) {
            Some(slot) => slot,
            None => {
                let slot = self.find(qualifier, name)?;
                self.slots.insert(key, slot);
                slot
            }
        };
        let scope = self.scopes[d];
        debug_assert!(
            scope.schema.fields[i].name.eq_ignore_ascii_case(name),
            "slot of {name} holds {}",
            scope.schema.fields[i].name
        );
        Ok(scope.value(i).clone())
    }
}

/// Evaluate an expression to a datum.
pub fn eval(e: &ScalarExpr, ctx: &mut EvalContext<'_>) -> EvalResult {
    match e {
        ScalarExpr::Column { qualifier, name, .. } => {
            ctx.column(e, qualifier.as_deref(), name)
        }
        ScalarExpr::Literal(d, _) => Ok(d.clone()),
        ScalarExpr::Arith { op, left, right } => {
            let l = eval(left, ctx)?;
            let r = eval(right, ctx)?;
            match op {
                ArithOp::Add => l.add(&r),
                ArithOp::Sub => l.sub(&r),
                ArithOp::Mul => l.mul(&r),
                ArithOp::Div => l.div(&r),
                ArithOp::Mod => l.rem(&r),
                ArithOp::Pow => l.pow(&r),
            }
            .map_err(|e| e.0)
        }
        ScalarExpr::Neg(inner) => eval(inner, ctx)?.neg().map_err(|e| e.0),
        ScalarExpr::Cmp { op, left, right } => {
            let l = eval(left, ctx)?;
            let r = eval(right, ctx)?;
            Ok(truth(cmp_datums(*op, &l, &r)))
        }
        ScalarExpr::BoolExpr { op, args } => {
            let mut saw_null = false;
            for a in args {
                match eval_truth(a, ctx)? {
                    Some(true) if *op == BoolOp::Or => return Ok(Datum::Bool(true)),
                    Some(false) if *op == BoolOp::And => return Ok(Datum::Bool(false)),
                    None => saw_null = true,
                    _ => {}
                }
            }
            Ok(if saw_null {
                Datum::Null
            } else {
                Datum::Bool(*op == BoolOp::And)
            })
        }
        ScalarExpr::Not(inner) => Ok(truth(eval_truth(inner, ctx)?.map(|b| !b))),
        ScalarExpr::IsNull { expr, negated } => {
            let v = eval(expr, ctx)?;
            Ok(Datum::Bool(v.is_null() != *negated))
        }
        ScalarExpr::Like { expr, pattern, negated } => {
            let v = eval(expr, ctx)?;
            let p = eval(pattern, ctx)?;
            match (v, p) {
                (Datum::Null, _) | (_, Datum::Null) => Ok(Datum::Null),
                (Datum::Str(s), Datum::Str(pat)) => {
                    Ok(Datum::Bool(like_match(&s, &pat) != *negated))
                }
                (a, b) => Err(format!(
                    "LIKE requires strings, got {} and {}",
                    a.sql_type(),
                    b.sql_type()
                )),
            }
        }
        ScalarExpr::InList { expr, list, negated } => {
            let v = eval(expr, ctx)?;
            if v.is_null() {
                return Ok(Datum::Null);
            }
            let mut saw_null = false;
            for item in list {
                let i = eval(item, ctx)?;
                if i.is_null() {
                    saw_null = true;
                } else if v.sql_eq(&i) {
                    return Ok(Datum::Bool(!*negated));
                }
            }
            Ok(if saw_null { Datum::Null } else { Datum::Bool(*negated) })
        }
        ScalarExpr::Between { expr, low, high, negated } => {
            let v = eval(expr, ctx)?;
            let lo = eval(low, ctx)?;
            let hi = eval(high, ctx)?;
            let ge = cmp_datums(CmpOp::Ge, &v, &lo);
            let le = cmp_datums(CmpOp::Le, &v, &hi);
            let r = match (ge, le) {
                (Some(a), Some(b)) => Some(a && b),
                (Some(false), _) | (_, Some(false)) => Some(false),
                _ => None,
            };
            Ok(truth(r.map(|b| b != *negated)))
        }
        ScalarExpr::Case { operand, branches, else_expr } => {
            let op_val = operand.as_ref().map(|o| eval(o, ctx)).transpose()?;
            for (cond, result) in branches {
                let matched = match &op_val {
                    Some(v) => {
                        let c = eval(cond, ctx)?;
                        !v.is_null() && v.sql_eq(&c)
                    }
                    None => eval_truth(cond, ctx)? == Some(true),
                };
                if matched {
                    return eval(result, ctx);
                }
            }
            match else_expr {
                Some(e) => eval(e, ctx),
                None => Ok(Datum::Null),
            }
        }
        ScalarExpr::Cast { expr, ty } => {
            eval(expr, ctx)?.cast_to(ty).map_err(|e| e.0)
        }
        ScalarExpr::Extract { field, expr } => {
            let v = eval(expr, ctx)?;
            extract_field(*field, &v)
        }
        ScalarExpr::Func { func, args } => eval_func(func, args, ctx),
        ScalarExpr::Agg { .. } => Err(
            "aggregate reference escaped the Aggregate operator (binder bug)".to_string(),
        ),
        ScalarExpr::ScalarSubquery(rel) => {
            let rows = execute_subquery(rel, ctx)?;
            match rows.len() {
                0 => Ok(Datum::Null),
                1 => Ok(rows[0][0].clone()),
                n => Err(format!("scalar subquery returned {n} rows")),
            }
        }
        ScalarExpr::Exists { subquery, negated } => {
            let rows = execute_subquery(subquery, ctx)?;
            Ok(Datum::Bool(rows.is_empty() == *negated))
        }
        ScalarExpr::InSubquery { exprs, subquery, negated } => {
            let left: Vec<Datum> = exprs
                .iter()
                .map(|e| eval(e, ctx))
                .collect::<Result<_, _>>()?;
            let rows = execute_subquery(subquery, ctx)?;
            let mut saw_null = false;
            for row in rows.iter() {
                match rows_equal(&left, row) {
                    Some(true) => return Ok(Datum::Bool(!*negated)),
                    None => saw_null = true,
                    Some(false) => {}
                }
            }
            Ok(if saw_null { Datum::Null } else { Datum::Bool(*negated) })
        }
        ScalarExpr::QuantifiedCmp { left, op, quantifier, subquery } => {
            let l: Vec<Datum> = left
                .iter()
                .map(|e| eval(e, ctx))
                .collect::<Result<_, _>>()?;
            let rows = execute_subquery(subquery, ctx)?;
            let mut saw_null = false;
            match quantifier {
                Quantifier::Any => {
                    for row in rows.iter() {
                        match rows_cmp(*op, &l, row) {
                            Some(true) => return Ok(Datum::Bool(true)),
                            None => saw_null = true,
                            Some(false) => {}
                        }
                    }
                    Ok(if saw_null { Datum::Null } else { Datum::Bool(false) })
                }
                Quantifier::All => {
                    for row in rows.iter() {
                        match rows_cmp(*op, &l, row) {
                            Some(false) => return Ok(Datum::Bool(false)),
                            None => saw_null = true,
                            Some(true) => {}
                        }
                    }
                    Ok(if saw_null { Datum::Null } else { Datum::Bool(true) })
                }
            }
        }
    }
}

fn execute_subquery(
    rel: &hyperq_xtra::rel::RelExpr,
    ctx: &EvalContext<'_>,
) -> Result<Rc<Vec<Row>>, EvalError> {
    ctx.memo.rows(
        rel,
        |c| ctx.resolve(c.qualifier.as_deref(), &c.name).ok(),
        || execute_rel(rel, ctx.db, ctx.memo, &ctx.scopes).map(Rows::into_vec),
    )
}

/// Evaluate a predicate to SQL truth: `Some(bool)` or `None` for UNKNOWN.
pub fn eval_truth(e: &ScalarExpr, ctx: &mut EvalContext<'_>) -> Result<Option<bool>, EvalError> {
    match eval(e, ctx)? {
        Datum::Null => Ok(None),
        Datum::Bool(b) => Ok(Some(b)),
        other => Err(format!(
            "predicate evaluated to non-boolean {}",
            other.sql_type()
        )),
    }
}

fn truth(v: Option<bool>) -> Datum {
    match v {
        Some(b) => Datum::Bool(b),
        None => Datum::Null,
    }
}

/// Three-valued comparison of two datums.
pub fn cmp_datums(op: CmpOp, l: &Datum, r: &Datum) -> Option<bool> {
    let ord = l.sql_cmp(r)?;
    Some(match op {
        CmpOp::Eq => ord == std::cmp::Ordering::Equal,
        CmpOp::Ne => ord != std::cmp::Ordering::Equal,
        CmpOp::Lt => ord == std::cmp::Ordering::Less,
        CmpOp::Le => ord != std::cmp::Ordering::Greater,
        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
        CmpOp::Ge => ord != std::cmp::Ordering::Less,
    })
}

/// Row equality under 3VL.
fn rows_equal(l: &[Datum], r: &[Datum]) -> Option<bool> {
    let mut saw_null = false;
    for (a, b) in l.iter().zip(r.iter()) {
        match cmp_datums(CmpOp::Eq, a, b) {
            Some(false) => return Some(false),
            None => saw_null = true,
            Some(true) => {}
        }
    }
    if saw_null {
        None
    } else {
        Some(true)
    }
}

/// Lexicographic row comparison under 3VL (vector subquery semantics).
fn rows_cmp(op: CmpOp, l: &[Datum], r: &[Datum]) -> Option<bool> {
    match op {
        CmpOp::Eq => rows_equal(l, r),
        CmpOp::Ne => rows_equal(l, r).map(|b| !b),
        _ => {
            // Lexicographic: find the first differing component.
            for (a, b) in l.iter().zip(r.iter()) {
                let ord = a.sql_cmp(b)?;
                if ord != std::cmp::Ordering::Equal {
                    return Some(match op {
                        CmpOp::Lt | CmpOp::Le => ord == std::cmp::Ordering::Less,
                        CmpOp::Gt | CmpOp::Ge => ord == std::cmp::Ordering::Greater,
                        _ => unreachable!("eq/ne handled above"),
                    });
                }
            }
            Some(matches!(op, CmpOp::Le | CmpOp::Ge))
        }
    }
}

fn extract_field(field: DateField, v: &Datum) -> EvalResult {
    if v.is_null() {
        return Ok(Datum::Null);
    }
    let (days, time_micros) = match v {
        Datum::Date(d) => (*d, 0i64),
        Datum::Timestamp(t) => (
            t.div_euclid(86_400_000_000) as i32,
            t.rem_euclid(86_400_000_000),
        ),
        other => {
            return Err(format!(
                "EXTRACT requires a date/timestamp, got {}",
                other.sql_type()
            ))
        }
    };
    let (y, m, d) = ymd_from_date(days);
    Ok(Datum::Int(match field {
        DateField::Year => y as i64,
        DateField::Month => m as i64,
        DateField::Day => d as i64,
        DateField::Hour => time_micros / 3_600_000_000,
        DateField::Minute => (time_micros / 60_000_000) % 60,
        DateField::Second => (time_micros / 1_000_000) % 60,
    }))
}

/// SQL LIKE matching (`%` any sequence, `_` any single char).
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Consume runs of %.
                let rest = &p[1..];
                (0..=s.len()).any(|k| rec(&s[k..], rest))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

fn eval_func(func: &ScalarFunc, args: &[ScalarExpr], ctx: &mut EvalContext<'_>) -> EvalResult {
    let vals: Vec<Datum> = args
        .iter()
        .map(|a| eval(a, ctx))
        .collect::<Result<_, _>>()?;
    // COALESCE is the only function that tolerates leading NULLs.
    if matches!(func, ScalarFunc::Coalesce) {
        for v in &vals {
            if !v.is_null() {
                return Ok(v.clone());
            }
        }
        return Ok(Datum::Null);
    }
    if matches!(func, ScalarFunc::Concat) {
        if vals.iter().any(hyperq_xtra::Datum::is_null) {
            return Ok(Datum::Null);
        }
        let mut out = String::new();
        for v in &vals {
            out.push_str(&v.to_sql_string());
        }
        return Ok(Datum::str(out));
    }
    // NULL propagation for everything else.
    if vals.iter().any(hyperq_xtra::Datum::is_null)
        && !matches!(func, ScalarFunc::CurrentDate | ScalarFunc::CurrentTimestamp)
    {
        return Ok(Datum::Null);
    }
    let str_arg = |i: usize| -> Result<&str, EvalError> {
        match &vals[i] {
            Datum::Str(s) => Ok(s),
            other => Err(format!(
                "{} requires a string argument, got {}",
                func.name(),
                other.sql_type()
            )),
        }
    };
    let int_arg = |i: usize| -> Result<i64, EvalError> {
        vals[i]
            .to_i64()
            .ok_or_else(|| format!("{} requires an integer argument", func.name()))
    };
    let f64_arg = |i: usize| -> Result<f64, EvalError> {
        vals[i]
            .to_f64()
            .ok_or_else(|| format!("{} requires a numeric argument", func.name()))
    };
    Ok(match func {
        ScalarFunc::Upper => Datum::str(str_arg(0)?.to_uppercase()),
        ScalarFunc::Lower => Datum::str(str_arg(0)?.to_lowercase()),
        ScalarFunc::Trim => Datum::str(str_arg(0)?.trim()),
        ScalarFunc::Ltrim => Datum::str(str_arg(0)?.trim_start()),
        ScalarFunc::Rtrim => Datum::str(str_arg(0)?.trim_end()),
        ScalarFunc::Substring => {
            let s = str_arg(0)?;
            let chars: Vec<char> = s.chars().collect();
            let start = int_arg(1)?.max(1) as usize - 1;
            let len = if vals.len() > 2 {
                int_arg(2)?.max(0) as usize
            } else {
                chars.len().saturating_sub(start)
            };
            Datum::str(
                chars
                    .iter()
                    .skip(start)
                    .take(len)
                    .collect::<String>(),
            )
        }
        ScalarFunc::CharLength => {
            Datum::Int(str_arg(0)?.chars().count() as i64)
        }
        ScalarFunc::Position => {
            let sub = str_arg(0)?;
            let s = str_arg(1)?;
            Datum::Int(match s.find(sub) {
                Some(byte_pos) => (s[..byte_pos].chars().count() + 1) as i64,
                None => 0,
            })
        }
        ScalarFunc::Coalesce | ScalarFunc::Concat => unreachable!("handled above"),
        ScalarFunc::NullIf => {
            if vals[0].sql_eq(&vals[1]) {
                Datum::Null
            } else {
                vals[0].clone()
            }
        }
        ScalarFunc::Abs => match &vals[0] {
            Datum::Int(v) => Datum::Int(v.abs()),
            Datum::Double(v) => Datum::Double(v.abs()),
            Datum::Dec(d) => Datum::Dec(Decimal::new(d.mantissa.abs(), d.scale)),
            other => return Err(format!("ABS of {}", other.sql_type())),
        },
        ScalarFunc::Round => {
            let scale = if vals.len() > 1 { int_arg(1)? } else { 0 };
            match &vals[0] {
                Datum::Int(v) => Datum::Int(*v),
                Datum::Dec(d) => Datum::Dec(d.rescale(scale.clamp(0, 30) as u8)),
                Datum::Double(v) => {
                    let f = 10f64.powi(scale as i32);
                    Datum::Double((v * f).round() / f)
                }
                other => return Err(format!("ROUND of {}", other.sql_type())),
            }
        }
        ScalarFunc::Floor => Datum::Double(f64_arg(0)?.floor()),
        ScalarFunc::Ceil => Datum::Double(f64_arg(0)?.ceil()),
        ScalarFunc::Sqrt => Datum::Double(f64_arg(0)?.sqrt()),
        ScalarFunc::Exp => Datum::Double(f64_arg(0)?.exp()),
        ScalarFunc::Ln => {
            let v = f64_arg(0)?;
            if v <= 0.0 {
                return Err("LN of non-positive value".to_string());
            }
            Datum::Double(v.ln())
        }
        ScalarFunc::Power => Datum::Double(f64_arg(0)?.powf(f64_arg(1)?)),
        ScalarFunc::Mod => {
            let (a, b) = (int_arg(0)?, int_arg(1)?);
            if b == 0 {
                return Err("MOD by zero".to_string());
            }
            Datum::Int(a % b)
        }
        ScalarFunc::AddMonths => match &vals[0] {
            Datum::Date(d) => Datum::Date(add_months(*d, int_arg(1)? as i32)),
            other => return Err(format!("ADD_MONTHS of {}", other.sql_type())),
        },
        ScalarFunc::DateAddDays => match &vals[0] {
            Datum::Date(d) => Datum::Date(d + int_arg(1)? as i32),
            other => return Err(format!("date add of {}", other.sql_type())),
        },
        ScalarFunc::CurrentDate => {
            Datum::Date((now_micros() / 86_400_000_000) as i32)
        }
        ScalarFunc::CurrentTimestamp => Datum::Timestamp(now_micros()),
        ScalarFunc::Other(name) => {
            return Err(format!("unknown function {name} at execution time"))
        }
    })
}

fn now_micros() -> i64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as i64)
}

/// Accumulator for one aggregate function.
#[derive(Clone)]
pub enum AggState {
    Count(i64),
    CountDistinct(std::collections::HashSet<Datum>),
    Sum(Option<Datum>),
    SumDistinct(std::collections::HashSet<Datum>),
    Min(Option<Datum>),
    Max(Option<Datum>),
    Avg { sum: Option<Datum>, n: i64, result_ty: SqlType },
    AvgDistinct { set: std::collections::HashSet<Datum>, result_ty: SqlType },
}

impl AggState {
    pub fn new(func: AggFunc, distinct: bool, result_ty: SqlType) -> AggState {
        match (func, distinct) {
            (AggFunc::Count | AggFunc::CountStar, false) => AggState::Count(0),
            (AggFunc::Count | AggFunc::CountStar, true) => {
                AggState::CountDistinct(Default::default())
            }
            (AggFunc::Sum, false) => AggState::Sum(None),
            (AggFunc::Sum, true) => AggState::SumDistinct(Default::default()),
            (AggFunc::Min, _) => AggState::Min(None),
            (AggFunc::Max, _) => AggState::Max(None),
            (AggFunc::Avg, false) => AggState::Avg { sum: None, n: 0, result_ty },
            (AggFunc::Avg, true) => {
                AggState::AvgDistinct { set: Default::default(), result_ty }
            }
        }
    }

    /// Feed one input value (`None` for `COUNT(*)`).
    pub fn update(&mut self, v: Option<&Datum>) -> Result<(), EvalError> {
        match self {
            AggState::Count(n) => match v {
                None => *n += 1,
                Some(d) if !d.is_null() => *n += 1,
                _ => {}
            },
            AggState::CountDistinct(set) => {
                if let Some(d) = v {
                    if !d.is_null() {
                        set.insert(d.clone());
                    }
                }
            }
            AggState::Sum(acc) => {
                if let Some(d) = v {
                    if !d.is_null() {
                        *acc = Some(match acc.take() {
                            Some(prev) => prev.add(d).map_err(|e| e.0)?,
                            None => d.clone(),
                        });
                    }
                }
            }
            AggState::SumDistinct(set) | AggState::AvgDistinct { set, .. } => {
                if let Some(d) = v {
                    if !d.is_null() {
                        set.insert(d.clone());
                    }
                }
            }
            AggState::Min(acc) => {
                if let Some(d) = v {
                    if !d.is_null() {
                        let replace = match acc {
                            Some(prev) => d.sql_cmp(prev) == Some(std::cmp::Ordering::Less),
                            None => true,
                        };
                        if replace {
                            *acc = Some(d.clone());
                        }
                    }
                }
            }
            AggState::Max(acc) => {
                if let Some(d) = v {
                    if !d.is_null() {
                        let replace = match acc {
                            Some(prev) => d.sql_cmp(prev) == Some(std::cmp::Ordering::Greater),
                            None => true,
                        };
                        if replace {
                            *acc = Some(d.clone());
                        }
                    }
                }
            }
            AggState::Avg { sum, n, .. } => {
                if let Some(d) = v {
                    if !d.is_null() {
                        *sum = Some(match sum.take() {
                            Some(prev) => prev.add(d).map_err(|e| e.0)?,
                            None => d.clone(),
                        });
                        *n += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Produce the final aggregate value.
    pub fn finish(self) -> Result<Datum, EvalError> {
        Ok(match self {
            AggState::Count(n) => Datum::Int(n),
            AggState::CountDistinct(set) => Datum::Int(set.len() as i64),
            AggState::Sum(acc) => acc.unwrap_or(Datum::Null),
            AggState::SumDistinct(set) => {
                let mut acc: Option<Datum> = None;
                for d in set {
                    acc = Some(match acc.take() {
                        Some(prev) => prev.add(&d).map_err(|e| e.0)?,
                        None => d,
                    });
                }
                acc.unwrap_or(Datum::Null)
            }
            AggState::Min(acc) | AggState::Max(acc) => acc.unwrap_or(Datum::Null),
            AggState::Avg { sum, n, result_ty } => {
                avg_result(sum, n, &result_ty)?
            }
            AggState::AvgDistinct { set, result_ty } => {
                let n = set.len() as i64;
                let mut acc: Option<Datum> = None;
                for d in set {
                    acc = Some(match acc.take() {
                        Some(prev) => prev.add(&d).map_err(|e| e.0)?,
                        None => d,
                    });
                }
                avg_result(acc, n, &result_ty)?
            }
        })
    }
}

fn avg_result(sum: Option<Datum>, n: i64, result_ty: &SqlType) -> Result<Datum, EvalError> {
    match (sum, n) {
        (None, _) | (_, 0) => Ok(Datum::Null),
        (Some(s), n) => {
            let q = match &s {
                Datum::Dec(_) => s.div(&Datum::Dec(Decimal::from_int(n))).map_err(|e| e.0)?,
                _ => Datum::Double(
                    s.to_f64().ok_or("AVG of non-numeric values")? / n as f64,
                ),
            };
            q.cast_to(result_ty).or(Ok(q)).map_err(|e: hyperq_xtra::ValueError| e.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_matching() {
        assert!(like_match("hello", "h%o"));
        assert!(like_match("hello", "_ello"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "h_o"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
        assert!(like_match("special offer", "%special%"));
    }

    #[test]
    fn agg_sum_ignores_nulls() {
        let mut s = AggState::new(AggFunc::Sum, false, SqlType::Integer);
        s.update(Some(&Datum::Int(1))).unwrap();
        s.update(Some(&Datum::Null)).unwrap();
        s.update(Some(&Datum::Int(4))).unwrap();
        assert_eq!(s.finish().unwrap(), Datum::Int(5));
    }

    #[test]
    fn agg_sum_of_all_nulls_is_null() {
        let mut s = AggState::new(AggFunc::Sum, false, SqlType::Integer);
        s.update(Some(&Datum::Null)).unwrap();
        assert_eq!(s.finish().unwrap(), Datum::Null);
    }

    #[test]
    fn agg_count_star_vs_count_col() {
        let mut star = AggState::new(AggFunc::CountStar, false, SqlType::Integer);
        star.update(None).unwrap();
        star.update(None).unwrap();
        assert_eq!(star.finish().unwrap(), Datum::Int(2));
        let mut col = AggState::new(AggFunc::Count, false, SqlType::Integer);
        col.update(Some(&Datum::Int(1))).unwrap();
        col.update(Some(&Datum::Null)).unwrap();
        assert_eq!(col.finish().unwrap(), Datum::Int(1));
    }

    #[test]
    fn agg_count_distinct() {
        let mut s = AggState::new(AggFunc::Count, true, SqlType::Integer);
        for v in [1, 2, 2, 3, 3, 3] {
            s.update(Some(&Datum::Int(v))).unwrap();
        }
        assert_eq!(s.finish().unwrap(), Datum::Int(3));
    }

    #[test]
    fn agg_avg_decimal_exact() {
        let mut s = AggState::new(
            AggFunc::Avg,
            false,
            SqlType::Decimal { precision: 38, scale: 8 },
        );
        s.update(Some(&Datum::Dec(Decimal::parse("1.00").unwrap())))
            .unwrap();
        s.update(Some(&Datum::Dec(Decimal::parse("2.00").unwrap())))
            .unwrap();
        match s.finish().unwrap() {
            Datum::Dec(d) => assert_eq!(d.to_f64(), 1.5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rows_cmp_lexicographic() {
        let l = vec![Datum::Int(5), Datum::Int(1)];
        assert_eq!(rows_cmp(CmpOp::Gt, &l, &[Datum::Int(4), Datum::Int(9)]), Some(true));
        assert_eq!(rows_cmp(CmpOp::Gt, &l, &[Datum::Int(5), Datum::Int(0)]), Some(true));
        assert_eq!(rows_cmp(CmpOp::Gt, &l, &[Datum::Int(5), Datum::Int(1)]), Some(false));
        assert_eq!(rows_cmp(CmpOp::Ge, &l, &[Datum::Int(5), Datum::Int(1)]), Some(true));
        assert_eq!(
            rows_cmp(CmpOp::Gt, &l, &[Datum::Int(5), Datum::Null]),
            None
        );
    }
}
