//! Scalar work compiled once per operator invocation.
//!
//! A filter's predicate, a join's residual and an aggregate's arguments
//! are lowered against the operator's input schema before its row loop,
//! so a row reads its columns by slot and its literals in place instead of
//! walking the expression tree through [`eval`] with a fresh `Datum` per
//! node. A column becomes a slot only when the input schema binds it
//! (`Schema::try_resolve` returns `Ok(Some(_))`, the test the evaluator
//! resolves with); everything else is left to [`eval`] through the
//! operator's context: once per operator for what no row changes
//! (literal arithmetic, outer-scope references), per row otherwise.
//!
//! There is one semantics. AND, OR, NOT, comparisons, BETWEEN, IN, LIKE
//! and IS NULL evaluate through the helpers [`eval`] calls
//! ([`cmp_datums`], [`fold_truth`], [`in_list`], [`between`], [`like`]) on
//! borrowed values. A SUM or
//! AVG whose argument is INTEGER and DECIMAL columns and literals under
//! `+`, `-` and `*` sums bare mantissas at scales fixed here; any row whose
//! value has another variant or scale, or whose arithmetic overflows,
//! leaves that path for [`eval`] and [`AggState`], which give today's
//! value or error text.

use std::borrow::Cow;
use std::cell::OnceCell;

use hyperq_xtra::datum::{Datum, Decimal};
use hyperq_xtra::expr::{AggFunc, ArithOp, BoolOp, CmpOp, ScalarExpr};
use hyperq_xtra::schema::Schema;
use hyperq_xtra::types::SqlType;

use crate::eval::{
    between, cmp_datums, eval, eval_truth, fold_truth, in_list, like, AggState, EvalContext, EvalError, Scope,
};

/// A value a compiled expression reads.
enum Operand<'e> {
    /// Column `i` of the row (or candidate pair) the context is set to.
    Slot(usize),
    Literal(&'e Datum),
    /// A value no row of the operator changes: literals under arithmetic,
    /// negation and casts, and columns of an outer scope, whose rows stay
    /// put for the context's whole life. Evaluated through [`eval`] on
    /// first use, and that value or error reused on every later row.
    Fixed(&'e ScalarExpr, OnceCell<Result<Datum, EvalError>>),
    /// Anything else, through [`eval`].
    Eval(&'e ScalarExpr),
}

impl<'e> Operand<'e> {
    fn compile(e: &'e ScalarExpr, schema: &Schema) -> Self {
        match e {
            ScalarExpr::Column { qualifier, name, .. } => match slot(qualifier.as_deref(), name, schema) {
                Some(i) => Operand::Slot(i),
                None => Operand::Fixed(e, OnceCell::new()),
            },
            ScalarExpr::Literal(d, _) => Operand::Literal(d),
            _ if is_fixed(e, schema) => Operand::Fixed(e, OnceCell::new()),
            _ => Operand::Eval(e),
        }
    }

    /// The operand's value on `row` when it takes no evaluation: a slot, a
    /// literal, or a fixed value already evaluated. A bare reference comes
    /// back in a register, where a `Cow` of a `Datum` goes through memory.
    #[inline]
    fn borrowed<'v>(&'v self, row: Scope<'v>) -> Option<&'v Datum> {
        match self {
            Operand::Slot(i) => Some(row.value(*i)),
            Operand::Literal(d) => Some(d),
            Operand::Fixed(_, value) => value.get()?.as_ref().ok(),
            Operand::Eval(_) => None,
        }
    }

    /// The operand's value on `row`, borrowed unless [`eval`] built it.
    fn value<'v>(&'v self, row: Scope<'v>, ctx: &mut EvalContext<'_>) -> Result<Cow<'v, Datum>, EvalError> {
        Ok(match self {
            Operand::Slot(i) => Cow::Borrowed(row.value(*i)),
            Operand::Literal(d) => Cow::Borrowed(d),
            Operand::Fixed(e, value) => Cow::Borrowed(value.get_or_init(|| eval(e, ctx)).as_ref().map_err(Clone::clone)?),
            Operand::Eval(e) => Cow::Owned(eval(e, ctx)?),
        })
    }
}

/// The slot of a column reference in `schema`, when the schema binds it.
fn slot(qualifier: Option<&str>, name: &str, schema: &Schema) -> Option<usize> {
    schema.try_resolve(qualifier, name).ok().flatten()
}

/// Does `e` evaluate to the same value (or error) on every row of
/// `schema`: literals and columns `schema` does not bind, under
/// arithmetic, negation and casts, with no function or subquery?
fn is_fixed(e: &ScalarExpr, schema: &Schema) -> bool {
    match e {
        ScalarExpr::Literal(..) => true,
        ScalarExpr::Column { qualifier, name, .. } => slot(qualifier.as_deref(), name, schema).is_none(),
        ScalarExpr::Arith { left, right, .. } => is_fixed(left, schema) && is_fixed(right, schema),
        ScalarExpr::Neg(inner) | ScalarExpr::Cast { expr: inner, .. } => is_fixed(inner, schema),
        _ => false,
    }
}

/// A predicate compiled against an operator's input schema.
pub(crate) struct Predicate<'e>(Pred<'e>);

enum Pred<'e> {
    Cmp(CmpOp, Operand<'e>, Operand<'e>),
    Between { value: Operand<'e>, low: Operand<'e>, high: Operand<'e>, negated: bool },
    In { value: Operand<'e>, list: Vec<Operand<'e>>, negated: bool },
    IsNull { value: Operand<'e>, negated: bool },
    Like { value: Operand<'e>, pattern: Operand<'e>, negated: bool },
    Bool(BoolOp, Vec<Pred<'e>>),
    Not(Box<Pred<'e>>),
    /// Any other predicate, through [`eval_truth`].
    Eval(&'e ScalarExpr),
}

impl<'e> Predicate<'e> {
    /// `predicate` over rows of `schema`.
    pub(crate) fn compile(predicate: &'e ScalarExpr, schema: &Schema) -> Self {
        Predicate(Pred::compile(predicate, schema))
    }

    /// The AND of `conjuncts` over rows of `schema`; TRUE when there are
    /// none.
    pub(crate) fn all(conjuncts: &[&'e ScalarExpr], schema: &Schema) -> Self {
        match conjuncts {
            [one] => Predicate::compile(one, schema),
            _ => Predicate(Pred::Bool(BoolOp::And, conjuncts.iter().map(|c| Pred::compile(c, schema)).collect())),
        }
    }

    /// SQL truth on the row or pair `ctx` is set to: `Some(bool)`, or
    /// `None` for UNKNOWN.
    pub(crate) fn truth(&self, ctx: &mut EvalContext<'_>) -> Result<Option<bool>, EvalError> {
        self.0.truth(ctx.row(), ctx)
    }

    /// Is the predicate TRUE (not FALSE, not UNKNOWN) on the row or pair
    /// `ctx` is set to?
    #[inline]
    pub(crate) fn holds(&self, ctx: &mut EvalContext<'_>) -> Result<bool, EvalError> {
        Ok(self.truth(ctx)? == Some(true))
    }

    /// The slots the predicate's comparisons read directly, in order.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> Vec<usize> {
        fn walk(p: &Pred<'_>, out: &mut Vec<usize>) {
            let operands: Vec<&Operand<'_>> = match p {
                Pred::Cmp(_, l, r) => vec![l, r],
                Pred::Between { value, low, high, .. } => vec![value, low, high],
                Pred::In { value, list, .. } => std::iter::once(value).chain(list).collect(),
                Pred::IsNull { value, .. } => vec![value],
                Pred::Like { value, pattern, .. } => vec![value, pattern],
                Pred::Bool(_, args) => return args.iter().for_each(|a| walk(a, out)),
                Pred::Not(inner) => return walk(inner, out),
                Pred::Eval(_) => vec![],
            };
            out.extend(operands.into_iter().filter_map(|o| match o {
                Operand::Slot(i) => Some(*i),
                _ => None,
            }));
        }
        let mut out = Vec::new();
        walk(&self.0, &mut out);
        out
    }
}

impl<'e> Pred<'e> {
    fn compile(e: &'e ScalarExpr, schema: &Schema) -> Self {
        let operand = |e| Operand::compile(e, schema);
        match e {
            ScalarExpr::Cmp { op, left, right } => Pred::Cmp(*op, operand(left), operand(right)),
            ScalarExpr::Between { expr, low, high, negated } => Pred::Between {
                value: operand(expr),
                low: operand(low),
                high: operand(high),
                negated: *negated,
            },
            ScalarExpr::InList { expr, list, negated } => {
                Pred::In { value: operand(expr), list: list.iter().map(operand).collect(), negated: *negated }
            }
            ScalarExpr::IsNull { expr, negated } => Pred::IsNull { value: operand(expr), negated: *negated },
            ScalarExpr::Like { expr, pattern, negated } => {
                Pred::Like { value: operand(expr), pattern: operand(pattern), negated: *negated }
            }
            ScalarExpr::BoolExpr { op, args } => {
                Pred::Bool(*op, args.iter().map(|a| Pred::compile(a, schema)).collect())
            }
            ScalarExpr::Not(inner) => Pred::Not(Box::new(Pred::compile(inner, schema))),
            _ => Pred::Eval(e),
        }
    }

    /// SQL truth on `row`: `Some(bool)`, or `None` for UNKNOWN.
    fn truth(&self, row: Scope<'_>, ctx: &mut EvalContext<'_>) -> Result<Option<bool>, EvalError> {
        match self {
            Pred::Cmp(op, left, right) => {
                if let (Some(left), Some(right)) = (left.borrowed(row), right.borrowed(row)) {
                    return Ok(cmp_datums(*op, left, right));
                }
                let left = left.value(row, ctx)?;
                let right = right.value(row, ctx)?;
                Ok(cmp_datums(*op, &left, &right))
            }
            Pred::Between { value, low, high, negated } => {
                if let (Some(value), Some(low), Some(high)) = (value.borrowed(row), low.borrowed(row), high.borrowed(row)) {
                    return Ok(between(value, low, high, *negated));
                }
                let value = value.value(row, ctx)?;
                let low = low.value(row, ctx)?;
                let high = high.value(row, ctx)?;
                Ok(between(&value, &low, &high, *negated))
            }
            Pred::In { value, list, negated } => {
                let owned;
                let value = match value.borrowed(row) {
                    Some(d) => d,
                    None => {
                        owned = value.value(row, ctx)?;
                        &*owned
                    }
                };
                let items = list.iter().map(|item| match item.borrowed(row) {
                    Some(d) => Ok(Cow::Borrowed(d)),
                    None => item.value(row, ctx),
                });
                in_list(value, items, *negated)
            }
            Pred::IsNull { value, negated } => {
                let null = match value.borrowed(row) {
                    Some(d) => d.is_null(),
                    None => value.value(row, ctx)?.is_null(),
                };
                Ok(Some(null != *negated))
            }
            Pred::Like { value, pattern, negated } => {
                if let (Some(value), Some(pattern)) = (value.borrowed(row), pattern.borrowed(row)) {
                    return like(value, pattern, *negated);
                }
                let value = value.value(row, ctx)?;
                let pattern = pattern.value(row, ctx)?;
                like(&value, &pattern, *negated)
            }
            Pred::Bool(op, args) => fold_truth(*op, args.iter().map(|a| a.truth(row, ctx))),
            Pred::Not(inner) => Ok(inner.truth(row, ctx)?.map(|b| !b)),
            Pred::Eval(e) => eval_truth(e, ctx),
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

/// One aggregate of an Aggregate operator, compiled against its input.
pub(crate) struct Aggregate<'e> {
    func: AggFunc,
    distinct: bool,
    ty: SqlType,
    /// The argument; `None` for `COUNT(*)`.
    arg: Option<Operand<'e>>,
    /// A SUM or AVG argument in the typed subset.
    exact: Option<Exact>,
}

/// A typed SUM or AVG argument and the kind of its values.
struct Exact {
    num: Num,
    kind: Kind,
}

/// An aggregate's running state for one group.
pub(crate) enum Acc {
    /// A typed SUM or AVG: the sum's mantissa at the argument's kind, and
    /// the number of non-NULL inputs.
    Exact { sum: i128, n: i64, kind: Kind },
    State(AggState),
}

impl<'e> Aggregate<'e> {
    /// An `Agg` node over rows of `schema`; `None` for any other node.
    pub(crate) fn compile(e: &'e ScalarExpr, schema: &Schema) -> Option<Self> {
        let ScalarExpr::Agg { func, distinct, arg } = e else {
            return None;
        };
        let exact = match (func, distinct, arg) {
            (AggFunc::Sum | AggFunc::Avg, false, Some(a)) => {
                Num::compile(a, schema).map(|(num, kind)| Exact { num, kind })
            }
            _ => None,
        };
        Some(Aggregate {
            func: *func,
            distinct: *distinct,
            ty: e.ty(),
            arg: arg.as_deref().map(|a| Operand::compile(a, schema)),
            exact,
        })
    }

    /// The state of a new group.
    pub(crate) fn start(&self) -> Acc {
        match &self.exact {
            Some(exact) => Acc::Exact { sum: 0, n: 0, kind: exact.kind },
            None => Acc::State(AggState::new(self.func, self.distinct, self.ty.clone())),
        }
    }

    /// Feed the row `ctx` is set to into `acc`.
    #[inline]
    pub(crate) fn update(&self, acc: &mut Acc, ctx: &mut EvalContext<'_>) -> Result<(), EvalError> {
        if let (Acc::Exact { sum, n, kind }, Some(exact)) = (&mut *acc, &self.exact) {
            match exact.num.eval(ctx.row()) {
                Ok(None) => return Ok(()),
                Ok(Some(v)) => {
                    if let Some(total) = kind.add(*sum, v) {
                        *sum = total;
                        *n += 1;
                        return Ok(());
                    }
                }
                Err(Bail) => {}
            }
            // Off the typed path for good: the group continues from the
            // state today's path holds, and this row goes through it.
            *acc = Acc::State(self.state_of(*kind, *sum, *n));
        }
        if let Acc::State(state) = acc {
            match &self.arg {
                Some(a) => match a.borrowed(ctx.row()) {
                    Some(d) => state.update(Some(d))?,
                    None => state.update(Some(&*a.value(ctx.row(), ctx)?))?,
                },
                None => state.update(None)?,
            }
        }
        Ok(())
    }

    /// The aggregate's value for a group.
    pub(crate) fn finish(&self, acc: Acc) -> Result<Datum, EvalError> {
        match acc {
            Acc::Exact { sum, n, kind } => self.state_of(kind, sum, n).finish(),
            Acc::State(state) => state.finish(),
        }
    }

    /// The [`AggState`] that `n` non-NULL inputs summing to `sum` leave.
    fn state_of(&self, kind: Kind, sum: i128, n: i64) -> AggState {
        let sum = (n > 0).then(|| kind.datum(sum));
        match self.func {
            AggFunc::Avg => AggState::Avg { sum, n, result_ty: self.ty.clone() },
            _ => AggState::Sum(sum),
        }
    }
}

/// The variant and scale a typed value has: an INTEGER, or a DECIMAL
/// mantissa at a fixed scale.
#[derive(Clone, Copy)]
pub(crate) enum Kind {
    Int,
    Dec(u8),
}

impl Kind {
    fn of_type(ty: &SqlType) -> Option<Kind> {
        match ty {
            SqlType::Integer => Some(Kind::Int),
            SqlType::Decimal { scale, .. } => Some(Kind::Dec(*scale)),
            _ => None,
        }
    }

    /// A value of this kind, or `None` for any other variant or scale.
    fn read(self, d: &Datum) -> Option<i128> {
        match (self, d) {
            (Kind::Int, Datum::Int(v)) => Some(i128::from(*v)),
            (Kind::Dec(scale), Datum::Dec(d)) if d.scale == scale => Some(d.mantissa),
            _ => None,
        }
    }

    fn scale(self) -> u8 {
        match self {
            Kind::Int => 0,
            Kind::Dec(scale) => scale,
        }
    }

    /// An INTEGER result in `i64`'s range, as `Datum::add`/`sub`/`mul`
    /// check it; a DECIMAL one as it is.
    fn checked(self, v: i128) -> Option<i128> {
        match self {
            Kind::Int => i64::try_from(v).ok().map(i128::from),
            Kind::Dec(_) => Some(v),
        }
    }

    /// `a + b`, or `None` where `Datum::add` fails.
    fn add(self, a: i128, b: i128) -> Option<i128> {
        self.checked(a.checked_add(b)?)
    }

    fn datum(self, v: i128) -> Datum {
        match self {
            // `checked` keeps an INTEGER's values in range.
            Kind::Int => Datum::Int(i64::try_from(v).unwrap_or_default()),
            Kind::Dec(scale) => Datum::Dec(Decimal::new(v, scale)),
        }
    }
}

/// A row whose values leave the typed path: a variant or scale other than
/// the compiled one, or an overflow.
struct Bail;

/// Typed arithmetic over INTEGER and DECIMAL values at compiled kinds.
/// Each step computes what `Datum::add`/`sub`/`mul` would, and bails
/// wherever they would take another branch or fail.
enum Num {
    /// A column read at its declared kind.
    Slot(usize, Kind),
    /// A literal's mantissa, pre-scaled to the scale its operation uses.
    Literal(i128),
    Op(Box<NumOp>),
}

struct NumOp {
    op: ArithOp,
    left: Num,
    right: Num,
    /// What each operand is multiplied by to align it to the result's
    /// scale (1 for literals, pre-scaled instead).
    left_factor: i128,
    right_factor: i128,
    kind: Kind,
}

/// The largest scale a product keeps: `Decimal::mul` rounds anything past
/// it, which the typed path leaves to `Decimal`.
const MAX_PRODUCT_SCALE: u8 = 12;

impl Num {
    /// `e` in the typed subset over rows of `schema`, with its kind.
    fn compile(e: &ScalarExpr, schema: &Schema) -> Option<(Num, Kind)> {
        match e {
            ScalarExpr::Column { qualifier, name, .. } => {
                let i = slot(qualifier.as_deref(), name, schema)?;
                let kind = Kind::of_type(&schema.fields[i].ty)?;
                Some((Num::Slot(i, kind), kind))
            }
            ScalarExpr::Literal(d, _) => {
                let kind = match d {
                    Datum::Int(_) => Kind::Int,
                    Datum::Dec(d) => Kind::Dec(d.scale),
                    _ => return None,
                };
                Some((Num::Literal(kind.read(d)?), kind))
            }
            ScalarExpr::Arith { op: op @ (ArithOp::Add | ArithOp::Sub | ArithOp::Mul), left, right } => {
                let (left, lkind) = Num::compile(left, schema)?;
                let (right, rkind) = Num::compile(right, schema)?;
                // INTEGER with INTEGER stays INTEGER; with a DECIMAL it is a
                // DECIMAL of scale 0 (`Decimal::from_int`).
                let kind = match (lkind, rkind, op) {
                    (Kind::Int, Kind::Int, _) => Kind::Int,
                    (l, r, ArithOp::Mul) => {
                        let scale = l.scale() + r.scale();
                        if scale > MAX_PRODUCT_SCALE {
                            return None;
                        }
                        Kind::Dec(scale)
                    }
                    (l, r, _) => Kind::Dec(l.scale().max(r.scale())),
                };
                // Addition aligns both operands to the larger scale first.
                let factor = |k: Kind| match op {
                    ArithOp::Mul => Some(1),
                    _ => 10i128.checked_pow(u32::from(kind.scale() - k.scale())),
                };
                let (left, left_factor) = Num::aligned(left, factor(lkind)?)?;
                let (right, right_factor) = Num::aligned(right, factor(rkind)?)?;
                Some((Num::Op(Box::new(NumOp { op: *op, left, right, left_factor, right_factor, kind })), kind))
            }
            _ => None,
        }
    }

    /// An operand and the factor still to apply to it per row: a literal
    /// is scaled here, once.
    fn aligned(num: Num, factor: i128) -> Option<(Num, i128)> {
        match num {
            Num::Literal(m) => Some((Num::Literal(m.checked_mul(factor)?), 1)),
            other => Some((other, factor)),
        }
    }

    /// The value on `row`: `None` for NULL.
    fn eval(&self, row: Scope<'_>) -> Result<Option<i128>, Bail> {
        match self {
            Num::Slot(i, kind) => match row.value(*i) {
                Datum::Null => Ok(None),
                d => kind.read(d).map(Some).ok_or(Bail),
            },
            Num::Literal(m) => Ok(Some(*m)),
            Num::Op(op) => {
                let left = op.left.eval(row)?;
                let right = op.right.eval(row)?;
                let (Some(left), Some(right)) = (left, right) else {
                    return Ok(None);
                };
                let left = left.checked_mul(op.left_factor).ok_or(Bail)?;
                let right = right.checked_mul(op.right_factor).ok_or(Bail)?;
                let v = match op.op {
                    ArithOp::Add => left.checked_add(right),
                    ArithOp::Sub => left.checked_sub(right),
                    _ => left.checked_mul(right),
                };
                v.and_then(|v| op.kind.checked(v)).map(Some).ok_or(Bail)
            }
        }
    }
}
