//! Vectorized expression evaluation with selection masking.
//!
//! Evaluates a bound [`Expr`] column-at-a-time over a [`RecordBatch`],
//! one tight loop per expression node instead of one interpreter
//! dispatch per row. Between nodes a literal stays a scalar, a fully
//! selected column a borrowed slice, and only computed values own a
//! buffer, which the node above overwrites in place. The selection
//! argument carries the rows a value is demanded for, which keeps the
//! short-circuit semantics of the per-row interpreter [`Expr::eval`] —
//! the oracle the tests below compare with — exactly:
//!
//! - `And` evaluates its right side only on rows whose left side is
//!   nonzero (`Or` only where it is zero), so errors in the skipped
//!   branch stay suppressed — just as `&&` / `||` skip them per row;
//! - `Div` / `Mod` evaluate the *divisor first* and raise
//!   [`QueryError::DivideByZero`] iff some selected row's divisor is
//!   zero, before touching the numerator — [`Expr::eval`]'s evaluation
//!   order;
//! - an empty selection evaluates nothing (a filter over an empty
//!   fragment cannot error).

use std::borrow::Cow;

use tamp_simulator::Value;

use crate::batch::RecordBatch;
use crate::error::QueryError;
use crate::expr::Expr;

/// The rows an expression value is demanded for, in batch row order.
pub(crate) enum Sel<'a> {
    /// Every row of the batch.
    All(usize),
    /// The rows at these batch indices (strictly increasing).
    Idx(&'a [usize]),
}

impl Sel<'_> {
    fn len(&self) -> usize {
        match self {
            Sel::All(n) => *n,
            Sel::Idx(idx) => idx.len(),
        }
    }

    /// The batch row index of the `k`-th selected row.
    fn row(&self, k: usize) -> usize {
        match self {
            Sel::All(_) => k,
            Sel::Idx(idx) => idx[k],
        }
    }
}

/// An expression node's value over a non-empty selection.
enum Operand<'a> {
    /// The same value on every selected row.
    Lit(Value),
    /// One value per selected row, aligned with the selection.
    Rows(Cow<'a, [Value]>),
}
use Operand::{Lit, Rows};

/// Evaluate a bound expression over the selected rows; the result is
/// dense, aligned with the selection (`out[k]` is the value on row
/// `sel.row(k)`).
pub(crate) fn eval(e: &Expr, batch: &RecordBatch, sel: &Sel<'_>) -> Result<Vec<Value>, QueryError> {
    let n = sel.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    Ok(match operand(e, batch, sel)? {
        Lit(v) => std::iter::repeat_n(v, n).collect(),
        Rows(v) => v.into_owned(),
    })
}

/// [`eval`] over a non-empty selection, each value left in the cheapest
/// shape that holds it.
fn operand<'a>(e: &Expr, batch: &'a RecordBatch, sel: &Sel<'_>) -> Result<Operand<'a>, QueryError> {
    let bin = |l: &Expr, r: &Expr| -> Result<(Operand<'a>, Operand<'a>), QueryError> {
        Ok((operand(l, batch, sel)?, operand(r, batch, sel)?))
    };
    // Divisor first; a zero in it and the numerator is never touched.
    let div = |l: &Expr, r: &Expr| -> Result<(Operand<'a>, Operand<'a>), QueryError> {
        let d = operand(r, batch, sel)?;
        let has_zero = match &d {
            Lit(v) => *v == 0,
            Rows(v) => v.contains(&0),
        };
        if has_zero {
            return Err(QueryError::DivideByZero);
        }
        Ok((operand(l, batch, sel)?, d))
    };
    Ok(match e {
        Expr::Col(name) => {
            return Err(QueryError::UnknownColumn(format!("{name} (unbound)")));
        }
        Expr::ColIdx(i) => {
            if *i >= batch.width() {
                return Err(QueryError::ColumnOutOfRange {
                    index: *i,
                    width: batch.width(),
                });
            }
            let col = batch.col(*i);
            Rows(match sel {
                Sel::All(_) => Cow::Borrowed(col),
                Sel::Idx(idx) => idx.iter().map(|&k| col[k]).collect(),
            })
        }
        Expr::Lit(v) => Lit(*v),
        Expr::Add(l, r) => zip(bin(l, r)?, |x, y| x.saturating_add(y)),
        Expr::Sub(l, r) => zip(bin(l, r)?, |x, y| x.saturating_sub(y)),
        Expr::Mul(l, r) => zip(bin(l, r)?, |x, y| x.saturating_mul(y)),
        Expr::Div(l, r) => zip(div(l, r)?, |x, y| x / y),
        Expr::Mod(l, r) => zip(div(l, r)?, |x, y| x % y),
        Expr::Eq(l, r) => zip(bin(l, r)?, |x, y| (x == y) as Value),
        Expr::Ne(l, r) => zip(bin(l, r)?, |x, y| (x != y) as Value),
        Expr::Lt(l, r) => zip(bin(l, r)?, |x, y| (x < y) as Value),
        Expr::Le(l, r) => zip(bin(l, r)?, |x, y| (x <= y) as Value),
        Expr::Gt(l, r) => zip(bin(l, r)?, |x, y| (x > y) as Value),
        Expr::Ge(l, r) => zip(bin(l, r)?, |x, y| (x >= y) as Value),
        Expr::And(l, r) | Expr::Or(l, r) => {
            // Truth values first: `And` is then undecided exactly where
            // the left side reads 1, `Or` where it reads 0, and the right
            // side is demanded on those rows only.
            let undecided = matches!(e, Expr::And(..)) as Value;
            let mut out = eval(l, batch, sel)?;
            out.iter_mut().for_each(|x| *x = (*x != 0) as Value);
            let open = (0..out.len()).filter(|&k| out[k] == undecided);
            let sub: Vec<usize> = open.map(|k| sel.row(k)).collect();
            let rv = eval(r, batch, &Sel::Idx(&sub))?;
            let open = out.iter_mut().filter(|x| **x == undecided);
            open.zip(&rv).for_each(|(x, &y)| *x = (y != 0) as Value);
            Rows(Cow::Owned(out))
        }
        Expr::Not(e) => map(operand(e, batch, sel)?, |x| (x == 0) as Value),
    })
}

/// `f` over every selected row of `v`, in place when `v` owns its buffer.
fn map<'a>(v: Operand<'a>, f: impl Fn(Value) -> Value) -> Operand<'a> {
    match v {
        Lit(x) => Lit(f(x)),
        Rows(Cow::Owned(mut v)) => {
            v.iter_mut().for_each(|x| *x = f(*x));
            Rows(Cow::Owned(v))
        }
        Rows(Cow::Borrowed(v)) => Rows(v.iter().map(|&x| f(x)).collect()),
    }
}

/// `f` over the selected rows of a pair: scalar-left, scalar-right or
/// vector-vector, in the left buffer when it is owned.
fn zip<'a>((a, b): (Operand<'a>, Operand<'a>), f: impl Fn(Value, Value) -> Value) -> Operand<'a> {
    match (a, b) {
        (Lit(x), b) => map(b, |y| f(x, y)),
        (a, Lit(y)) => map(a, |x| f(x, y)),
        (Rows(Cow::Owned(mut a)), Rows(b)) => {
            a.iter_mut().zip(b.iter()).for_each(|(x, &y)| *x = f(*x, y));
            Rows(Cow::Owned(a))
        }
        (Rows(a), Rows(b)) => Rows(a.iter().zip(b.iter()).map(|(&x, &y)| f(x, y)).collect()),
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::expr::{col, lit};
    use crate::row::Row;
    use crate::schema::Schema;

    fn batch() -> (Schema, RecordBatch) {
        let s = Schema::new(vec!["a", "b"]).unwrap();
        let rows: Vec<Row> = (0..8u64).map(|i| vec![i, 8 - i]).collect();
        (s, RecordBatch::from_rows(&rows, 2))
    }

    fn tuple_eval(e: &Expr, b: &RecordBatch) -> Vec<Result<Value, QueryError>> {
        b.to_rows().iter().map(|r| e.eval(r)).collect()
    }

    #[test]
    fn matches_the_tuple_interpreter_per_row() {
        let (s, b) = batch();
        for e in [
            col("a").add(lit(3)).mul(col("b")),
            col("a").sub(lit(4)),
            col("a").lt(col("b")).and(col("b").rem(lit(3)).eq(lit(0))),
            col("a").ge(lit(4)).or(col("b").le(lit(2))),
            col("a").eq(lit(2)).not(),
        ] {
            let bound = e.bind(&s).unwrap();
            let got = eval(&bound, &b, &Sel::All(b.num_rows())).unwrap();
            let want: Vec<Value> = tuple_eval(&bound, &b)
                .into_iter()
                .map(Result::unwrap)
                .collect();
            assert_eq!(got, want, "{e}");
        }
    }

    const LEAF_LITS: [Value; 4] = [0, 1, 7, u64::MAX];
    type Binary = fn(Box<Expr>, Box<Expr>) -> Expr;
    const BINARY: [Binary; 13] = [
        Expr::Add,
        Expr::Sub,
        Expr::Mul,
        Expr::Div,
        Expr::Mod,
        Expr::Eq,
        Expr::Ne,
        Expr::Lt,
        Expr::Le,
        Expr::Gt,
        Expr::Ge,
        Expr::And,
        Expr::Or,
    ];

    /// A random bound tree of at most `depth` levels over `width` columns.
    fn arb_expr(rng: &mut StdRng, depth: usize, width: usize) -> Expr {
        if depth == 0 || rng.random_range(0..4) == 0 {
            return match rng.random_bool(0.5) {
                true => Expr::ColIdx(rng.random_range(0..width)),
                false => Expr::Lit(LEAF_LITS[rng.random_range(0..LEAF_LITS.len())]),
            };
        }
        let l = Box::new(arb_expr(rng, depth - 1, width));
        match rng.random_range(0..BINARY.len() + 1) {
            k if k < BINARY.len() => BINARY[k](l, Box::new(arb_expr(rng, depth - 1, width))),
            _ => Expr::Not(l),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// Generated trees — literal-only subtrees, literal divisors and
        /// literal left operands included — under the full, a partial and
        /// the empty selection: value for value equal to the row
        /// interpreter, and an error iff it errs on some selected row.
        #[test]
        fn generated_expressions_match_the_tuple_interpreter(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let width = rng.random_range(2..4);
            // Some columns never hold a zero, so divisions also succeed.
            let floors: Vec<Value> = (0..width).map(|_| rng.random_range(0..2)).collect();
            let rows: Vec<Row> = (0..rng.random_range(0..41))
                .map(|_| {
                    let cell = |&lo: &Value| match rng.random_range(0..10) {
                        0 => u64::MAX,
                        _ => rng.random_range(lo..5),
                    };
                    floors.iter().map(cell).collect()
                })
                .collect();
            let b = RecordBatch::from_rows(&rows, width);
            let e = arb_expr(&mut rng, 4, width);
            let some: Vec<usize> = (0..rows.len()).filter(|_| rng.random_bool(0.5)).collect();
            for sel in [Sel::All(rows.len()), Sel::Idx(&some), Sel::Idx(&[])] {
                let want: Result<Vec<Value>, QueryError> =
                    (0..sel.len()).map(|k| e.eval(&rows[sel.row(k)])).collect();
                prop_assert_eq!(eval(&e, &b, &sel), want, "{} on {} rows", e, sel.len());
            }
        }
    }

    #[test]
    fn short_circuit_masks_suppress_divide_errors() {
        let (s, b) = batch();
        // `a != 0 AND b % a >= 0` divides by zero only where the guard
        // already rejected the row (a = 0), so neither evaluator errors.
        let e = col("a").ne(lit(0)).and(col("b").rem(col("a")).ge(lit(0)));
        let bound = e.bind(&s).unwrap();
        let got = eval(&bound, &b, &Sel::All(b.num_rows())).unwrap();
        let want: Vec<Value> = tuple_eval(&bound, &b)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(got, want);
        // Without the guard, both raise the typed error.
        let e = col("b").rem(col("a"));
        let bound = e.bind(&s).unwrap();
        assert_eq!(
            eval(&bound, &b, &Sel::All(b.num_rows())).unwrap_err(),
            QueryError::DivideByZero
        );
    }

    #[test]
    fn empty_selection_evaluates_nothing() {
        let (s, b) = batch();
        let bound = col("a").div(lit(0)).bind(&s).unwrap();
        assert_eq!(
            eval(&bound, &b, &Sel::Idx(&[])).unwrap(),
            Vec::<Value>::new()
        );
        assert!(eval(&bound, &b, &Sel::All(b.num_rows())).is_err());
    }

    #[test]
    fn out_of_range_columns_are_typed() {
        let (_, b) = batch();
        assert_eq!(
            eval(&Expr::ColIdx(5), &b, &Sel::All(b.num_rows())).unwrap_err(),
            QueryError::ColumnOutOfRange { index: 5, width: 2 }
        );
    }
}
