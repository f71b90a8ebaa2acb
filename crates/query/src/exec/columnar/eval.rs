//! Vectorized expression evaluation with selection masking.
//!
//! Evaluates a bound [`Expr`] column-at-a-time over a [`RecordBatch`],
//! one tight loop per expression node instead of one interpreter
//! dispatch per row. The selection argument carries the rows a value is
//! demanded for, which keeps the short-circuit semantics of the per-row
//! interpreter [`Expr::eval`] — the oracle the tests below compare with —
//! exactly:
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

/// Evaluate a bound expression over the selected rows; the result is
/// dense, aligned with the selection (`out[k]` is the value on row
/// `sel.row(k)`).
pub(crate) fn eval(e: &Expr, batch: &RecordBatch, sel: &Sel<'_>) -> Result<Vec<Value>, QueryError> {
    let n = sel.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let bin = |l: &Expr, r: &Expr| -> Result<(Vec<Value>, Vec<Value>), QueryError> {
        Ok((eval(l, batch, sel)?, eval(r, batch, sel)?))
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
            match sel {
                Sel::All(_) => col.to_vec(),
                Sel::Idx(idx) => idx.iter().map(|&k| col[k]).collect(),
            }
        }
        Expr::Lit(v) => vec![*v; n],
        Expr::Add(l, r) => {
            let (a, b) = bin(l, r)?;
            zip(a, &b, |x, y| x.saturating_add(y))
        }
        Expr::Sub(l, r) => {
            let (a, b) = bin(l, r)?;
            zip(a, &b, |x, y| x.saturating_sub(y))
        }
        Expr::Mul(l, r) => {
            let (a, b) = bin(l, r)?;
            zip(a, &b, |x, y| x.saturating_mul(y))
        }
        Expr::Div(l, r) => {
            let d = eval(r, batch, sel)?;
            if d.contains(&0) {
                return Err(QueryError::DivideByZero);
            }
            let a = eval(l, batch, sel)?;
            zip(a, &d, |x, y| x / y)
        }
        Expr::Mod(l, r) => {
            let d = eval(r, batch, sel)?;
            if d.contains(&0) {
                return Err(QueryError::DivideByZero);
            }
            let a = eval(l, batch, sel)?;
            zip(a, &d, |x, y| x % y)
        }
        Expr::Eq(l, r) => {
            let (a, b) = bin(l, r)?;
            zip(a, &b, |x, y| (x == y) as Value)
        }
        Expr::Ne(l, r) => {
            let (a, b) = bin(l, r)?;
            zip(a, &b, |x, y| (x != y) as Value)
        }
        Expr::Lt(l, r) => {
            let (a, b) = bin(l, r)?;
            zip(a, &b, |x, y| (x < y) as Value)
        }
        Expr::Le(l, r) => {
            let (a, b) = bin(l, r)?;
            zip(a, &b, |x, y| (x <= y) as Value)
        }
        Expr::Gt(l, r) => {
            let (a, b) = bin(l, r)?;
            zip(a, &b, |x, y| (x > y) as Value)
        }
        Expr::Ge(l, r) => {
            let (a, b) = bin(l, r)?;
            zip(a, &b, |x, y| (x >= y) as Value)
        }
        Expr::And(l, r) => {
            let lv = eval(l, batch, sel)?;
            // Right side is demanded only where the left is nonzero.
            let sub: Vec<usize> = (0..n).filter(|&k| lv[k] != 0).map(|k| sel.row(k)).collect();
            let rv = eval(r, batch, &Sel::Idx(&sub))?;
            let mut out = vec![0; n];
            let mut j = 0;
            for (k, &x) in lv.iter().enumerate() {
                if x != 0 {
                    out[k] = (rv[j] != 0) as Value;
                    j += 1;
                }
            }
            out
        }
        Expr::Or(l, r) => {
            let lv = eval(l, batch, sel)?;
            // Right side is demanded only where the left is zero.
            let sub: Vec<usize> = (0..n).filter(|&k| lv[k] == 0).map(|k| sel.row(k)).collect();
            let rv = eval(r, batch, &Sel::Idx(&sub))?;
            let mut out = vec![0; n];
            let mut j = 0;
            for (k, &x) in lv.iter().enumerate() {
                if x != 0 {
                    out[k] = 1;
                } else {
                    out[k] = (rv[j] != 0) as Value;
                    j += 1;
                }
            }
            out
        }
        Expr::Not(e) => {
            let v = eval(e, batch, sel)?;
            v.into_iter().map(|x| (x == 0) as Value).collect()
        }
    })
}

fn zip(mut a: Vec<Value>, b: &[Value], f: impl Fn(Value, Value) -> Value) -> Vec<Value> {
    for (x, &y) in a.iter_mut().zip(b) {
        *x = f(*x, y);
    }
    a
}

#[cfg(test)]
mod tests {
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
